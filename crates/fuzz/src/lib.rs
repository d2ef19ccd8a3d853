//! cdna-fuzz: deterministic coverage-guided adversarial fuzzing of the
//! CDNA guest-visible interface.
//!
//! The paper's protection argument (§3.3) is that a malicious guest
//! driving the concurrent direct-access interface — enqueue hypercalls,
//! mapped mailbox words, and (under the IOMMU policy) its own
//! descriptor rings — can harm only itself: every illegal interaction
//! is rejected or faults the attacker's own contexts, and co-resident
//! guests proceed untouched. This crate turns that argument into a
//! machine-checked campaign:
//!
//! * [`persona`] — eight malicious-guest strategies covering each slice
//!   of the interface (forged buffers, forged contexts, producer
//!   overruns, stale-descriptor replay, mailbox scribbling, doorbell
//!   storms, IOMMU escapes).
//! * [`episode`] — one seeded attack: an attacker domain rides a
//!   standard two-victim testbed, injects persona-driven interactions
//!   between simulation steps, and the outcome is judged against a
//!   byte-identical no-attacker control run of the same world. A
//!   control reads only its [`ControlKey`] (DMA policy, plus the seed
//!   of a bootstrapping persona), so attacks on one key share it, and
//!   every run on a key is identical up to its injection floor.
//! * [`campaign`] — the coverage-guided loop: coverage is the hit-set
//!   of `(persona, outcome-label)` pairs, newly discovered points feed
//!   an energy schedule across generations, each generation runs its
//!   new controls and then its attacks on the deterministic worker
//!   pool, and each first-discovering episode is minimized by one
//!   halving chain of attack-only reruns into a replayable corpus.
//!   Each key's rig is primed to its injection floor once; its control,
//!   attacks and halvings run on clones of that snapshot, and a halving
//!   stops once its labels are back.
//!
//! Everything is a pure function of the campaign seed: reports and
//! corpora are byte-identical across `--jobs` values and across runs.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

pub mod campaign;
pub mod episode;
pub mod persona;

pub use campaign::{run_campaign, Campaign, CampaignConfig, CorpusEntry, CoveragePoint};
pub use episode::{
    control_key, judge, run_attack, run_control, run_episode, Attack, Control, ControlKey,
    EpisodeOutcome, EpisodeSpec,
};
pub use persona::{Persona, ALL};
