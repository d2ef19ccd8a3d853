//! One fuzz episode: a persona attacks a live testbed, a no-attacker
//! control run of the same world stands beside it, and the two finished
//! worlds are compared.
//!
//! An episode is three functions. [`run_attack`] runs the persona
//! against the world and reduces it to labels, fault attribution, the
//! victim digest and event-channel conservation. [`run_control`] runs
//! the world with no attack and keeps only what the comparison reads.
//! [`judge`] compares the two. A control reads nothing but its
//! [`ControlKey`] — the persona's DMA policy, plus the episode seed for
//! the one persona whose benign bootstrap draws from it — so a campaign
//! runs each distinct control once and judges every attack on that key
//! against it; [`run_episode`] is the three composed for one spec.
//!
//! Every run on one key is identical up to the key's *injection floor*:
//! no action lands before 2 ms, or before 10 ms for the persona whose
//! bootstrap lap must drain first. A campaign therefore primes each key
//! once — builds the rig, allocates its pages, primes the world, runs
//! the bootstrap lap and runs on to the floor — and runs that key's
//! control, attacks and minimiser halvings on clones of the snapshot.
//! A halving asks only whether its labels come back, so it stops right
//! after the first injection at which every one of them has been seen:
//! labels and faults only accumulate, so the finished run would show
//! them too. [`run_attack`], [`run_control`] and [`run_episode`] prime
//! a fresh rig on every call.
//!
//! The attacker is the trailing *idle guest* of a 3-guest CDNA testbed
//! ([`TestbedConfig::idle_guests`]): a real domain with real contexts,
//! rings, and posted receive buffers, but no workload. The persona
//! drives that domain's guest-visible interface from outside the event
//! loop — enqueue hypercalls through [`cdna_xen::adversary`], mailbox
//! words through [`RiceNic::adversarial_mailbox_write`] — between
//! `run_until` steps, and routes any device activity back through
//! [`SystemWorld::absorb_nic_activity`] so consequences follow exactly
//! the production scheduling rules.
//!
//! Two containment rules keep the attack/control difference attributable:
//!
//! * **Scratch bus.** Malicious mailbox pokes run their PIO/DMA against
//!   a scratch [`PciBus`], never the world's shared bus segments, so a
//!   *rejected* or *faulting* poke cannot perturb victim DMA timing.
//!   The one benign bootstrap (the stale-replay setup lap) uses the
//!   real bus — identically in both runs.
//! * **No valid unfetched work.** Personas never leave a descriptor the
//!   NIC could legally emit later: every malicious interaction either
//!   rejects at the hypercall boundary, faults the attacker's context,
//!   or is a doorbell no-op. Nothing the attack run puts on the wire
//!   differs from the control run.

use std::collections::{BTreeMap, BTreeSet};

use cdna_core::{layout::Mailbox, ContextId, DmaPolicy, FaultKind, RxRequest};
use cdna_mem::mutation::MutationKind;
use cdna_mem::{BufferSlice, DomainId, PageId};
use cdna_net::{framing, FlowId, MacAddr, PciBus};
use cdna_nic::{DescFlags, DmaDescriptor, FrameMeta};
use cdna_ricenic::{Activity, DeviceError};
use cdna_sim::{SimRng, SimTime, Simulation};
use cdna_system::{victim_digest, Direction, IoModel, SystemWorld, TestbedConfig};
use cdna_xen::adversary::{
    flood_batch, foreign_page_rx, foreign_page_tx, legal_tx, out_of_range_tx, AdversarialCaller,
    ProbeOutcome,
};

use crate::persona::Persona;

/// Victim guests per episode (guests 0 and 1; the attacker is guest 2).
pub const VICTIMS: u16 = 2;
/// Physical NICs per episode testbed.
pub const NICS: usize = 2;
/// Descriptor-ring slots per context — small enough that ring-capacity
/// and lap-wrap attack shapes trigger within one episode.
pub const RING: u32 = 64;

/// The attacking guest's domain id (the trailing idle guest).
fn attacker_domain() -> DomainId {
    DomainId::guest(VICTIMS)
}

/// One episode to run: which persona, which RNG seed, how many
/// adversarial actions to inject.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct EpisodeSpec {
    /// The attacking persona.
    pub persona: Persona,
    /// Seed for the episode's deterministic RNG.
    pub seed: u64,
    /// Number of injected adversarial actions.
    pub actions: u32,
    /// The seeded bug built into the testbed, if any.
    pub mutation: Option<MutationKind>,
}

/// Everything an episode observed, reduced to the counters the campaign
/// aggregates and the coverage labels it steers on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EpisodeOutcome {
    /// The episode that ran.
    pub spec: EpisodeSpec,
    /// Outcome-label histogram: rejection labels, `accepted`,
    /// `absorbed`, device errors, and `fault:<kind>` labels.
    pub labels: BTreeMap<String, u64>,
    /// Adversarial operations issued (a doorbell storm counts each
    /// poke).
    pub interactions: u64,
    /// Must-reject probes the protection path *accepted* — each one is
    /// a real protection-boundary breach.
    pub breaches: u64,
    /// Faults attributed to the attacker's own contexts (expected).
    pub attacker_faults: u64,
    /// Faults attributed to a victim guest's context.
    pub victim_faults: u64,
    /// Faults attributed to any context the attacker does not own
    /// (victims and the privileged context 0) — isolation demands zero.
    pub misattributed: u64,
    /// Faults in the no-attacker control run — must be zero.
    pub control_faults: u64,
    /// Whether the victim digests of the attack and control runs were
    /// byte-identical.
    pub digest_match: bool,
    /// Whether event-channel conservation (`sent == collected +
    /// pending`) held in both runs.
    pub evtchn_conserved: bool,
}

impl EpisodeOutcome {
    /// Whether the episode surfaced a protection anomaly: a breach, a
    /// cross-guest fault, control-run faults, victim-state divergence,
    /// or broken event-channel conservation. Clean builds must never be
    /// caught; seeded mutations must be.
    pub fn caught(&self) -> bool {
        self.breaches > 0
            || self.victim_faults > 0
            || self.misattributed > 0
            || self.control_faults > 0
            || !self.digest_match
            || !self.evtchn_conserved
    }
}

/// What an attack run observed, before it is compared with a control.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Attack {
    /// Outcome-label histogram, `fault:<kind>` labels included.
    pub labels: BTreeMap<String, u64>,
    /// Adversarial operations issued.
    pub interactions: u64,
    /// Must-reject probes the protection path accepted.
    pub breaches: u64,
    /// Faults attributed to the attacker's own contexts.
    pub attacker_faults: u64,
    /// Faults attributed to a victim guest's context.
    pub victim_faults: u64,
    /// Faults attributed to any context the attacker does not own.
    pub misattributed: u64,
    /// The finished world's [`victim_digest`].
    pub victim_digest: String,
    /// Whether event-channel conservation held.
    pub evtchn_conserved: bool,
}

/// Everything a control run can influence: the testbed's DMA policy and
/// seeded bug and, for the persona whose benign bootstrap lap draws from
/// the episode RNG, that episode's seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct ControlKey {
    /// The DMA protection policy of the testbed.
    pub policy: DmaPolicy,
    /// The episode seed the bootstrap lap draws from, if there is one.
    pub bootstrap_seed: Option<u64>,
    /// The seeded bug built into the testbed.
    pub mutation: Option<MutationKind>,
}

/// The control run `spec` is judged against.
pub fn control_key(spec: &EpisodeSpec) -> ControlKey {
    ControlKey {
        policy: spec.persona.policy(),
        bootstrap_seed: spec.persona.bootstraps().then_some(spec.seed),
        mutation: spec.mutation,
    }
}

/// What a no-attacker control run observed: the part of its finished
/// world that [`judge`] compares with an attack.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Control {
    /// The finished world's [`victim_digest`].
    pub victim_digest: String,
    /// Faults recorded anywhere in the run — must be zero.
    pub faults: u64,
    /// Whether event-channel conservation held.
    pub evtchn_conserved: bool,
}

/// Stable coverage label for a fault kind: the kind's name, with the
/// shadow checker's violation-class code appended for shadow faults so
/// distinct violation classes are distinct coverage points.
pub fn fault_label(kind: FaultKind) -> String {
    match kind {
        FaultKind::StaleSequence { .. }
        | FaultKind::EmptySlot { .. }
        | FaultKind::IommuViolation { .. } => kind.name().to_string(),
        FaultKind::ShadowViolation { code } => format!("{}-{code}", kind.name()),
    }
}

/// The testbed an episode on `key` runs: CDNA with the key's policy and
/// seeded bug, two victims plus the idle attacker slot, a small ring,
/// and a window short enough to fuzz thousands of episodes. The DMA
/// shadow checker runs under the `Validated` policy only: the IOMMU
/// policy's guest-pinned mappings are not modelled by the shadow's
/// whole-pool audit.
fn episode_cfg(key: ControlKey) -> TestbedConfig {
    let policy = key.policy;
    let mut cfg = TestbedConfig::new(IoModel::Cdna { policy }, VICTIMS + 1, Direction::Transmit)
        .with_idle_guests(1)
        .with_mutation(key.mutation);
    cfg.nics = NICS as u8;
    cfg.ring_size = RING;
    cfg.warmup = SimTime::from_ms(8);
    cfg.measure = SimTime::from_ms(24);
    cfg.shadow_check = policy == DmaPolicy::Validated;
    // Arm the device's adversarial seam in BOTH runs so the config —
    // and thus every timing constant — is identical with and without
    // the attack.
    cfg.ricenic.adversarial = true;
    cfg
}

/// Pages the rig allocates up front, identically in attack and control
/// runs, so the physical pool state never differs between them.
#[derive(Clone)]
struct Pages {
    /// Attacker-owned buffer pages (legal probes rotate through these).
    own: Vec<PageId>,
    /// A page owned by victim guest 0 — the foreign-page target.
    victim: PageId,
}

impl Pages {
    fn alloc(world: &mut SystemWorld) -> Pages {
        #[expect(clippy::expect_used, reason = "rig invariant")]
        let own = (0..8)
            .map(|_| world.mem.alloc(attacker_domain()).expect("attacker page"))
            .collect();
        #[expect(clippy::expect_used, reason = "rig invariant")]
        let victim = world.mem.alloc(DomainId::guest(0)).expect("victim page");
        Pages { own, victim }
    }

    fn own(&self, rng: &mut SimRng) -> PageId {
        self.own[rng.below(self.own.len())]
    }
}

/// Mutable per-run persona bookkeeping (indices the rig itself wrote).
#[derive(Default)]
struct RigState {
    /// Descriptors the IOMMU-escape persona wrote per NIC ring.
    iommu_written: [u64; NICS],
}

/// The first instant an action may land: 2 ms into the run, or 10 ms for
/// a persona that bootstraps, once its setup lap has drained. Every run
/// on one [`ControlKey`] is identical up to here.
fn injection_floor(bootstraps: bool) -> SimTime {
    SimTime::from_ms(if bootstraps { 10 } else { 2 })
}

/// An episode's two RNG streams: the bootstrap lap's (`fork(0)`) and the
/// injections' (`fork(1)`, taken after it).
fn episode_rngs(seed: u64) -> (SimRng, SimRng) {
    let mut rng = SimRng::seed_from(seed);
    let boot = rng.fork(0);
    (boot, rng.fork(1))
}

/// An episode world and what every run on its key shares: the testbed,
/// the rig's pages and, for a bootstrapping key, the stale-replay setup
/// lap. [`Primed::at_floor`] pauses it at the key's injection floor, and a
/// campaign runs each key's control, attacks and minimiser halvings on
/// clones of that snapshot.
#[derive(Clone)]
pub(crate) struct Primed {
    sim: Simulation<SystemWorld>,
    pages: Pages,
    /// The end of the run.
    end: SimTime,
}

impl Primed {
    /// Primes `key`'s rig and runs it to the injection floor.
    pub(crate) fn at_floor(key: ControlKey) -> Primed {
        let mut primed = rig(key);
        primed
            .sim
            .run_until(injection_floor(key.bootstrap_seed.is_some()));
        primed
    }
}

/// `key`'s rig at the end of its set-up: the testbed for its policy, the
/// rig's pages, the primed world and — for a bootstrapping key — the
/// stale-replay setup lap drawn from the seed's bootstrap stream.
fn rig(key: ControlKey) -> Primed {
    let cfg = episode_cfg(key);
    let end = cfg.warmup + cfg.measure;
    let queue = cfg.queue;
    let mut sim = Simulation::with_queue(SystemWorld::build(cfg), queue);
    let pages = Pages::alloc(sim.world_mut());
    let primed = sim.world_mut().prime();
    for (t, e) in primed {
        sim.schedule(t, e);
    }
    // The stale-replay persona first transmits one legal ring lap — in
    // BOTH runs, over the real bus — so the attack run's later replay
    // poke is the only difference between the two worlds.
    if let Some(seed) = key.bootstrap_seed {
        bootstrap_lap(&mut sim, &pages, &mut episode_rngs(seed).0);
    }
    Primed { sim, pages, end }
}

/// Whether event-channel conservation (`sent == collected + pending`)
/// holds in `w`.
fn evtchn_conserved(w: &SystemWorld) -> bool {
    w.evt.sent() == w.evt.collected() + w.evt.pending_total()
}

/// An attack run after its injections.
struct Injected {
    run: Primed,
    labels: BTreeMap<String, u64>,
    interactions: u64,
    breaches: u64,
    /// Whether the run stopped early with every wanted label seen.
    stopped: bool,
}

/// Injects `spec`'s actions into `run`, a rig of its key, each after
/// running the world to its planned time. With `wanted`, stops right
/// after the first injection at which every wanted label has been seen:
/// as a probe label, or as the `fault:` label of an attacker fault
/// already recorded.
fn inject(mut run: Primed, spec: &EpisodeSpec, wanted: Option<&[&str]>) -> Injected {
    let mut act_rng = episode_rngs(spec.seed).1;
    let mut labels = BTreeMap::new();
    let mut interactions = 0u64;
    let mut breaches = 0u64;
    let mut scratch = PciBus::new_64bit_66mhz();
    let mut st = RigState::default();
    let mut faults_read = 0;
    let mut fault_labels = BTreeSet::new();
    let mut stopped = false;
    for at in plan_times(spec, &mut act_rng) {
        run.sim.run_until(at);
        inject_one(
            &mut run.sim,
            spec.persona,
            at,
            &mut act_rng,
            &run.pages,
            &mut scratch,
            &mut st,
            &mut labels,
            &mut interactions,
            &mut breaches,
        );
        if let Some(wanted) = wanted {
            let world = run.sim.world();
            let attacker = &world.ctx_of[VICTIMS as usize];
            for f in &world.faults[faults_read..] {
                if attacker.contains(&f.ctx) {
                    fault_labels.insert(format!("fault:{}", fault_label(f.kind)));
                }
            }
            faults_read = world.faults.len();
            stopped = wanted
                .iter()
                .all(|&l| labels.contains_key(l) || fault_labels.contains(l));
            if stopped {
                break;
            }
        }
    }
    Injected {
        run,
        labels,
        interactions,
        breaches,
        stopped,
    }
}

impl Injected {
    /// Runs the rest of the window and attributes every fault recorded.
    fn finish(self) -> Attack {
        let Injected {
            run: Primed { mut sim, end, .. },
            mut labels,
            interactions,
            breaches,
            ..
        } = self;
        sim.run_until(end);
        let world = sim.into_world();

        let attacker_ctxs: BTreeSet<ContextId> =
            world.ctx_of[VICTIMS as usize].iter().copied().collect();
        let victim_ctxs: BTreeSet<ContextId> = (0..VICTIMS as usize)
            .flat_map(|g| world.ctx_of[g].iter().copied())
            .collect();
        let mut attacker_faults = 0u64;
        let mut victim_faults = 0u64;
        let mut misattributed = 0u64;
        for f in &world.faults {
            if attacker_ctxs.contains(&f.ctx) {
                attacker_faults += 1;
                // All attacker faults are labeled here, where each appears
                // exactly once: device faults usually surface after the
                // injecting poke (the pump defers under load) and shadow
                // violations only at the end-of-run sync.
                *labels
                    .entry(format!("fault:{}", fault_label(f.kind)))
                    .or_insert(0) += 1;
            } else {
                misattributed += 1;
                if victim_ctxs.contains(&f.ctx) {
                    victim_faults += 1;
                }
            }
        }

        Attack {
            labels,
            interactions,
            breaches,
            attacker_faults,
            victim_faults,
            misattributed,
            victim_digest: victim_digest(&world, VICTIMS),
            evtchn_conserved: evtchn_conserved(&world),
        }
    }
}

/// Runs `spec`'s attack on a fresh rig and attributes every fault it
/// recorded.
pub fn run_attack(spec: &EpisodeSpec) -> Attack {
    attack_on(Primed::at_floor(control_key(spec)), spec)
}

/// Runs `spec`'s attack on `primed`, a snapshot of its key.
pub(crate) fn attack_on(primed: Primed, spec: &EpisodeSpec) -> Attack {
    inject(primed, spec, None).finish()
}

/// A minimiser halving: runs `spec` on `primed`, a snapshot of its key,
/// to learn which of `wanted` it shows. Returns `None` — every one — if
/// the run could stop early with all of them seen, else the finished
/// run's label histogram. Labels and faults only accumulate, so a run
/// that stopped would have shown them all at its end too.
pub(crate) fn labels_unless_seen(
    primed: Primed,
    spec: &EpisodeSpec,
    wanted: &[&str],
) -> Option<BTreeMap<String, u64>> {
    let run = inject(primed, spec, Some(wanted));
    (!run.stopped).then(|| run.finish().labels)
}

/// Runs the no-attacker control world named by `key` on a fresh rig.
pub fn run_control(key: ControlKey) -> Control {
    control_on(Primed::at_floor(key))
}

/// Runs the no-attacker control on `primed`, a snapshot of its key.
pub(crate) fn control_on(primed: Primed) -> Control {
    let Primed { mut sim, end, .. } = primed;
    sim.run_until(end);
    let world = sim.into_world();
    Control {
        victim_digest: victim_digest(&world, VICTIMS),
        faults: world.faults.len() as u64,
        evtchn_conserved: evtchn_conserved(&world),
    }
}

/// Compares `spec`'s attack with the control of its [`control_key`].
pub fn judge(spec: &EpisodeSpec, attack: Attack, control: &Control) -> EpisodeOutcome {
    EpisodeOutcome {
        spec: *spec,
        labels: attack.labels,
        interactions: attack.interactions,
        breaches: attack.breaches,
        attacker_faults: attack.attacker_faults,
        victim_faults: attack.victim_faults,
        misattributed: attack.misattributed,
        control_faults: control.faults,
        digest_match: attack.victim_digest == control.victim_digest,
        evtchn_conserved: attack.evtchn_conserved && control.evtchn_conserved,
    }
}

/// Runs one full episode: attack run, its control run, judgement.
pub fn run_episode(spec: &EpisodeSpec) -> EpisodeOutcome {
    judge(spec, run_attack(spec), &run_control(control_key(spec)))
}

/// Draws the injection schedule: `actions` sorted times inside the run,
/// from the injection floor until the window closes.
fn plan_times(spec: &EpisodeSpec, rng: &mut SimRng) -> Vec<SimTime> {
    let floor = injection_floor(spec.persona.bootstraps());
    let span_ns = if spec.persona.bootstraps() {
        21_000_000usize
    } else {
        29_000_000usize
    };
    let mut times: Vec<SimTime> = (0..spec.actions)
        .map(|_| floor + SimTime::from_ns(rng.below(span_ns) as u64))
        .collect();
    times.sort();
    debug_assert!(times.iter().all(|&t| t >= floor), "action before the floor");
    times
}

/// Transmits one full ring lap of legal frames from the attacker's
/// context on every NIC, through the production hypercall + doorbell
/// path on the real bus. Runs identically in attack and control runs.
fn bootstrap_lap(sim: &mut Simulation<SystemWorld>, pages: &Pages, rng: &mut SimRng) {
    let t = SimTime::from_ms(1);
    sim.run_until(t);
    for nic in 0..NICS {
        let w = sim.world_mut();
        let ctx = w.ctx_of[VICTIMS as usize][nic];
        let caller = AdversarialCaller {
            domain: attacker_domain(),
            ctx,
        };
        let mac = w.nics[nic].rice().mac_for(ctx);
        for _batch in 0..2 {
            let reqs: Vec<_> = (0..RING / 2)
                .map(|_| legal_tx(pages.own(rng), mac, nic as u8, rng))
                .collect();
            let out = caller.issue_tx(&mut w.engines[nic], &reqs, 0, &mut w.rings, &mut w.mem);
            debug_assert!(!out.is_rejected(), "bootstrap lap must enqueue");
        }
        // Doorbell over the REAL bus: this is benign foreground work,
        // and both runs charge its DMA to the shared segment equally.
        let mut act = Activity::default();
        #[expect(clippy::expect_used, reason = "rig invariant")]
        w.nics[nic]
            .rice_mut()
            .adversarial_mailbox_write(
                t,
                ctx,
                Mailbox::TxProducer.index(),
                u64::from(RING),
                &w.rings,
                &mut w.buses[nic],
                &mut act,
            )
            .expect("bootstrap doorbell");
        let events = w.absorb_nic_activity(t, nic, &mut act);
        for (at, e) in events {
            sim.schedule(at, e);
        }
    }
}

/// Writes one adversarial mailbox word through the device's test-only
/// seam on the scratch bus and folds any resulting activity back into
/// the world. Returns the interaction's outcome label.
fn poke(
    sim: &mut Simulation<SystemWorld>,
    now: SimTime,
    nic: usize,
    ctx: ContextId,
    mailbox: usize,
    value: u64,
    scratch: &mut PciBus,
) -> String {
    let w = sim.world_mut();
    let mut act = Activity::default();
    let res = w.nics[nic]
        .rice_mut()
        .adversarial_mailbox_write(now, ctx, mailbox, value, &w.rings, scratch, &mut act);
    match res {
        Err(DeviceError::Unattached(_)) => "unattached".to_string(),
        Err(DeviceError::BadMailbox(_)) => "bad-mailbox".to_string(),
        Err(DeviceError::Ring(_)) => "ring-error".to_string(),
        Ok(()) => {
            // Faults are labeled by the post-run scan, not here: the TX
            // pump defers while the victims keep the device's transmit
            // buffer full, so a poke's fault usually surfaces in a later
            // activity on the normal simulation path.
            let events = w.absorb_nic_activity(now, nic, &mut act);
            for (at, e) in events {
                sim.schedule(at, e);
            }
            "absorbed".to_string()
        }
    }
}

fn record(labels: &mut BTreeMap<String, u64>, label: String) {
    *labels.entry(label).or_insert(0) += 1;
}

fn record_probe(
    out: ProbeOutcome,
    must_reject: bool,
    labels: &mut BTreeMap<String, u64>,
    breaches: &mut u64,
) {
    record(labels, out.label().to_string());
    if must_reject && !out.is_rejected() {
        *breaches += 1;
    }
}

/// Injects one adversarial action of `persona` at `now`.
#[allow(clippy::too_many_arguments)] // the rig's full seam set, threaded once
fn inject_one(
    sim: &mut Simulation<SystemWorld>,
    persona: Persona,
    now: SimTime,
    rng: &mut SimRng,
    pages: &Pages,
    scratch: &mut PciBus,
    st: &mut RigState,
    labels: &mut BTreeMap<String, u64>,
    interactions: &mut u64,
    breaches: &mut u64,
) {
    let nic = rng.below(NICS);
    let dom = attacker_domain();
    match persona {
        Persona::HypercallCorrupter => {
            *interactions += 1;
            let w = sim.world_mut();
            let ctx = w.ctx_of[VICTIMS as usize][nic];
            let caller = AdversarialCaller { domain: dom, ctx };
            let mac = w.nics[nic].rice().mac_for(ctx);
            let consumer = w.nics[nic].rice().tx_consumer(ctx);
            let total = w.mem.total_pages();
            let (reqs, must_reject) = match rng.below(4) {
                0 => (
                    vec![foreign_page_tx(pages.victim, mac, nic as u8, rng)],
                    true,
                ),
                1 => (vec![out_of_range_tx(total, mac, nic as u8, rng)], true),
                2 => (
                    flood_batch(
                        legal_tx(pages.own(rng), mac, nic as u8, rng),
                        RING as usize + 1,
                    ),
                    true,
                ),
                _ => (vec![legal_tx(pages.own(rng), mac, nic as u8, rng)], false),
            };
            let out = caller.issue_tx(
                &mut w.engines[nic],
                &reqs,
                consumer,
                &mut w.rings,
                &mut w.mem,
            );
            record_probe(out, must_reject, labels, breaches);
        }
        Persona::RxCreditCorrupter => {
            *interactions += 1;
            let w = sim.world_mut();
            let ctx = w.ctx_of[VICTIMS as usize][nic];
            let caller = AdversarialCaller { domain: dom, ctx };
            let real_consumer = w.nics[nic].rice().rx_consumer(ctx);
            let producer = w.engines[nic].producers(ctx).map(|(_, r)| r).unwrap_or(0);
            // Shape 0 presents the NIC's true consumer index (the
            // posted ring is still full → ring-full); shapes 1-2 replay
            // a forged consumer equal to the producer, the classic
            // stale-credit replay that bypasses the capacity check.
            let (req, consumer, must_reject) = match rng.below(3) {
                0 => (foreign_page_rx(pages.victim, rng), real_consumer, true),
                1 => (foreign_page_rx(pages.victim, rng), producer, true),
                _ => (
                    RxRequest {
                        buf: BufferSlice::new(
                            pages.own(rng).base_addr(),
                            1514 - rng.below(64) as u32,
                        ),
                    },
                    producer,
                    false,
                ),
            };
            let out = caller.issue_rx(
                &mut w.engines[nic],
                &[req],
                consumer,
                &mut w.rings,
                &mut w.mem,
            );
            record_probe(out, must_reject, labels, breaches);
        }
        Persona::ForgedContext => {
            *interactions += 1;
            match rng.below(4) {
                shape @ 0..=2 => {
                    let w = sim.world_mut();
                    let forged_ctx = match shape {
                        0 => w.ctx_of[0][nic], // a victim's context
                        1 => ContextId(20),    // valid id, never assigned
                        _ => ContextId(255),   // out of range entirely
                    };
                    let own_ctx = w.ctx_of[VICTIMS as usize][nic];
                    let mac = w.nics[nic].rice().mac_for(own_ctx);
                    let caller = AdversarialCaller {
                        domain: dom,
                        ctx: forged_ctx,
                    };
                    let req = legal_tx(pages.own(rng), mac, nic as u8, rng);
                    let out =
                        caller.issue_tx(&mut w.engines[nic], &[req], 0, &mut w.rings, &mut w.mem);
                    record_probe(out, true, labels, breaches);
                }
                _ => {
                    // Mailbox write naming a context with no device
                    // attachment: must fail `unattached`.
                    let label = poke(
                        sim,
                        now,
                        nic,
                        ContextId(20),
                        Mailbox::TxProducer.index(),
                        1 + rng.below(64) as u64,
                        scratch,
                    );
                    if label == "absorbed" {
                        *breaches += 1;
                    }
                    record(labels, label);
                }
            }
        }
        Persona::ProducerOverrun => {
            *interactions += 1;
            let (ctx, tx_producer) = {
                let w = sim.world_mut();
                let ctx = w.ctx_of[VICTIMS as usize][nic];
                let tp = w.engines[nic].producers(ctx).map(|(t, _)| t).unwrap_or(0);
                (ctx, tp)
            };
            // Doorbell past everything the hypervisor ever enqueued:
            // the NIC must fault on the never-written slot, not read it.
            let value = tx_producer + 1 + rng.below(8) as u64;
            let label = poke(
                sim,
                now,
                nic,
                ctx,
                Mailbox::TxProducer.index(),
                value,
                scratch,
            );
            record(labels, label);
        }
        Persona::StaleReplayer => {
            *interactions += 1;
            let ctx = sim.world_mut().ctx_of[VICTIMS as usize][nic];
            // The bootstrap lap enqueued exactly RING descriptors; a
            // producer beyond that makes the NIC re-read slot 0, whose
            // stale sequence number must fault.
            let value = u64::from(RING) + 1 + rng.below(4) as u64;
            let label = poke(
                sim,
                now,
                nic,
                ctx,
                Mailbox::TxProducer.index(),
                value,
                scratch,
            );
            record(labels, label);
        }
        Persona::MailboxScribbler => {
            *interactions += 1;
            let ctx = sim.world_mut().ctx_of[VICTIMS as usize][nic];
            let (mailbox, value) = match rng.below(3) {
                0 => (Mailbox::Enable.index(), rng.range_u64(0..u64::MAX)),
                1 => (Mailbox::Reset.index(), rng.range_u64(0..u64::MAX)),
                _ => (24 + rng.below(40), rng.range_u64(0..u64::MAX)),
            };
            let label = poke(sim, now, nic, ctx, mailbox, value, scratch);
            record(labels, label);
        }
        Persona::DoorbellStorm => {
            let burst = 4 + rng.below(12);
            for i in 0..burst {
                *interactions += 1;
                let (ctx, tp, rp) = {
                    let w = sim.world_mut();
                    let ctx = w.ctx_of[VICTIMS as usize][nic];
                    let (tp, rp) = w.engines[nic].producers(ctx).unwrap_or((0, 0));
                    (ctx, tp, rp)
                };
                // Redundant writes of the current producer values (and
                // occasional regressions): all must be no-ops under the
                // device's monotonic-max rule.
                let (mailbox, value) = if i % 2 == 0 {
                    (
                        Mailbox::TxProducer.index(),
                        tp.saturating_sub(rng.below(3) as u64),
                    )
                } else {
                    (
                        Mailbox::RxProducer.index(),
                        rp.saturating_sub(rng.below(3) as u64),
                    )
                };
                let label = poke(sim, now, nic, ctx, mailbox, value, scratch);
                record(labels, label);
            }
        }
        Persona::IommuEscape => {
            *interactions += 1;
            let (ctx, value) = {
                let w = sim.world_mut();
                let ctx = w.ctx_of[VICTIMS as usize][nic];
                #[expect(clippy::expect_used, reason = "rig invariant")]
                let ring_id = w.engines[nic]
                    .contexts()
                    .state(ctx)
                    .expect("attacker context assigned")
                    .tx_ring;
                let mac = w.nics[nic].rice().mac_for(ctx);
                let len = 60 + rng.below(1200) as u32;
                let meta = FrameMeta {
                    dst: MacAddr::for_peer(nic as u8),
                    src: mac,
                    tcp_payload: len.min(framing::MSS),
                    flow: FlowId::new(u16::MAX, nic as u16),
                    seq: 0,
                };
                // Under the IOMMU policy the guest owns its ring: write
                // a descriptor naming a victim's page directly, as a
                // compromised guest driver would.
                let desc = DmaDescriptor::tx(
                    BufferSlice::new(pages.victim.base_addr(), len),
                    DescFlags::END_OF_PACKET,
                    meta,
                );
                let idx = st.iommu_written[nic];
                #[expect(clippy::expect_used, reason = "rig invariant")]
                w.rings
                    .get_mut(ring_id)
                    .expect("attacker ring exists")
                    .write_at(idx, desc);
                st.iommu_written[nic] = idx + 1;
                (ctx, idx + 1)
            };
            let label = poke(
                sim,
                now,
                nic,
                ctx,
                Mailbox::TxProducer.index(),
                value,
                scratch,
            );
            record(labels, label);
        }
    }
}

#[cfg(test)]
mod shadow_oracle;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::persona::ALL;

    fn quick_spec(p: Persona) -> EpisodeSpec {
        EpisodeSpec {
            persona: p,
            seed: 11,
            actions: 12,
            mutation: None,
        }
    }

    #[test]
    fn clean_episode_is_isolated_and_deterministic() {
        let spec = quick_spec(Persona::HypercallCorrupter);
        let a = run_episode(&spec);
        assert!(!a.caught(), "clean build flagged: {a:?}");
        assert!(a.interactions >= 12);
        assert!(a.labels.contains_key("not-owner"));
        let b = run_episode(&spec);
        assert_eq!(a.labels, b.labels);
        assert_eq!(a.breaches, b.breaches);
    }

    #[test]
    fn producer_overrun_faults_only_the_attacker() {
        let o = run_episode(&quick_spec(Persona::ProducerOverrun));
        assert!(!o.caught(), "overrun leaked: {o:?}");
        assert!(o.attacker_faults > 0, "no fault recorded: {:?}", o.labels);
        assert!(o.labels.contains_key("fault:empty-slot"));
    }

    #[test]
    fn stale_replay_faults_the_sequence_check() {
        let o = run_episode(&quick_spec(Persona::StaleReplayer));
        assert!(!o.caught(), "replay leaked: {o:?}");
        assert!(
            o.labels.contains_key("fault:stale-sequence"),
            "labels: {:?}",
            o.labels
        );
    }

    #[test]
    fn iommu_escape_is_blocked_by_the_iommu() {
        let o = run_episode(&quick_spec(Persona::IommuEscape));
        assert!(!o.caught(), "iommu escape leaked: {o:?}");
        assert!(
            o.labels.contains_key("fault:iommu-violation"),
            "labels: {:?}",
            o.labels
        );
    }

    /// `spec`'s attack on `run`, with the finished world's event count
    /// and `Debug` rendering. An `Attack` alone cannot tell when its
    /// injections landed: isolation keeps the victims' digest, and the
    /// probe outcomes, the same either way.
    fn attack_and_world(run: Primed, spec: &EpisodeSpec) -> (Attack, u64, String) {
        let injected = inject(run, spec, None);
        let mut sim = injected.run.sim.clone();
        sim.run_until(injected.run.end);
        let world = format!("{:?}", sim.world());
        (injected.finish(), sim.events_processed(), world)
    }

    #[test]
    fn primed_runs_match_fresh_rigs() {
        for persona in ALL {
            for seed in [1, 7, 42] {
                for actions in [0, 160] {
                    let spec = EpisodeSpec {
                        persona,
                        seed,
                        actions,
                        mutation: None,
                    };
                    let key = control_key(&spec);
                    let snapshot = Primed::at_floor(key);
                    // The reference rig never pauses at the floor.
                    let (attack, events, world) = attack_and_world(snapshot.clone(), &spec);
                    let fresh = attack_and_world(rig(key), &spec);
                    let what = format!("{} seed {seed} actions {actions}", persona.name());
                    assert_eq!(attack, fresh.0, "{what}");
                    assert_eq!(events, fresh.1, "{what}");
                    assert!(world == fresh.2, "{what}: the finished worlds differ");
                    assert_eq!(control_on(snapshot), control_on(rig(key)), "{what}");
                }
            }
        }
    }

    #[test]
    fn no_action_is_planned_before_the_floor() {
        for persona in ALL {
            let floor = injection_floor(persona.bootstraps());
            for seed in [1, 7, 42] {
                let spec = EpisodeSpec {
                    persona,
                    seed,
                    actions: 400,
                    mutation: None,
                };
                let times = plan_times(&spec, &mut episode_rngs(seed).1);
                assert_eq!(times.len(), 400);
                assert!(
                    times.iter().all(|&t| t >= floor),
                    "{} seed {seed}: {:?} before {floor}",
                    persona.name(),
                    times.first()
                );
            }
        }
    }
}
