#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

//! cdna-model: bounded exhaustive schedule exploration for the CDNA
//! DMA protection protocol.
//!
//! The simulation engine is deterministic: equal-time events fire in
//! schedule (FIFO) order. That determinism is what makes runs
//! reproducible — but it also means every regular run examines exactly
//! **one** interleaving of each set of same-timestamp events, and a
//! protocol bug that only surfaces under a different interleaving stays
//! invisible. This crate turns the tie-break rule into a *decision
//! point* and explores the alternatives exhaustively, up to bounds:
//!
//! * [`queue::PermutationQueue`] plugs into the engine through
//!   [`cdna_sim::Simulation::with_event_queue`] and, at every
//!   same-timestamp tie, asks the [`queue::Controller`] it owns which
//!   event to deliver first; [`explore`] reaches that controller through
//!   [`cdna_sim::Simulation::queue_mut`];
//! * the controller replays a recorded *prefix* of choices and then
//!   takes the first untried branch — the depth-first search of
//!   stateless model checkers (VeriSoft, DPOR), run on the *real*
//!   engine but not restarted from time zero (next point). Each cell's
//!   world is built with
//!   [`cdna_system::SystemWorld::build`], primed and shadow-synced
//!   once, and its first schedule runs on that primed simulation
//!   itself;
//! * the controller also pauses the queue before every fresh decision,
//!   and [`explore`] snapshots the whole simulation there, keeping a
//!   few snapshots on a stack; each carries its own copy of the
//!   controller. The next schedule leaves the current one's path at its
//!   deepest decision with an untried candidate, so it resumes from the
//!   snapshot at (or nearest above) that decision with the candidate
//!   forced ([`queue::Controller::resume`]) and simulates only the tail. Resumed schedules end exactly as
//!   schedules replayed from time zero do, which the crate's tests
//!   check schedule by schedule;
//! * commutative tie pairs are pruned sleep-set style: two events
//!   scoped to different NICs are treated as independent, so only
//!   orderings that permute *dependent* events (same NIC, or global
//!   CPU/measurement events) fork new schedules;
//! * each schedule's shadow is synced once, by its `StopMeasure` event.
//!   The sync folds only the pins and reaps of the schedule's own run
//!   and audits only the pool pages written since the cell's primed
//!   sync, plus any the last audit found divergent
//!   ([`cdna_check::shadow::DmaShadow::audit_mem_runs`]); it finds
//!   exactly what a whole-pool audit would;
//! * after every schedule, [`explore`] checks the full invariant suite:
//!   zero `DmaShadow` violations (pin lifecycle, sequence continuity),
//!   zero protection faults, event-channel conservation
//!   (`sent == collected + pending`), and CDNA pin balance (pool pins
//!   == protection-engine pinned pages);
//! * [`explore`] and the shadow sync mark each phase of their work
//!   ([`cdna_system::phase`]) for a hook that does nothing unless a
//!   binary installs one; `cdna-model --profile` installs a timer and
//!   prints the host time per phase;
//! * [`explore_matrix`] runs a whole configuration matrix on the
//!   [`cdna_sim::par`] worker pool, one cell per task. Each cell's tree
//!   is searched by the same sequential [`explore`], so the report is
//!   identical at any worker count.
//!
//! # What the bounds do and don't prove
//!
//! Exploration is exhaustive only up to its bounds (`max_schedules`,
//! `max_depth`) and up to the independence relation: a clean report
//! means *no explored interleaving* violates an invariant, not that
//! none exists. Four seeded protocol bugs calibrate the checker itself
//! ([`cdna_mem::mutation::MutationKind`], built into a cell's world
//! through [`cdna_system::TestbedConfig::mutation`]): each must be
//! caught by some explored schedule, which the `cdna-model` tests and
//! CI assert.

pub mod explore;
pub mod queue;

pub use explore::{
    check_invariants, default_matrix, explore, explore_matrix, Exploration, ExploreConfig,
    MatrixReport,
};
pub use queue::{dependent, Controller, Decision, PermutationQueue};
