//! Depth-first schedule exploration over clones of one primed world,
//! plus the invariant suite every explored schedule must satisfy.
//!
//! [`explore`] searches one configuration's decision tree depth-first;
//! [`explore_matrix`] runs a whole configuration matrix, one cell per
//! worker of the [`cdna_sim::par`] pool. Each cell is searched by the
//! same sequential [`explore`], so a matrix report does not depend on
//! the worker count — proven by `tests/parallel.rs`.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex};

use cdna_core::{DmaPolicy, FaultKind};
use cdna_sim::{par, SimTime, Simulation};
use cdna_system::{Direction, Event, IoModel, NicKind, SystemWorld, TestbedConfig};

use crate::queue::{lock, Controller, PermutationQueue};

/// One exploration job: a testbed configuration plus bounds.
#[derive(Debug, Clone)]
pub struct ExploreConfig {
    /// Human-readable identifier, stable across runs (used in reports).
    pub label: String,
    /// The configuration of the world every schedule starts from.
    pub cfg: TestbedConfig,
    /// Stop after this many schedules even if branches remain.
    pub max_schedules: u64,
    /// Record (and therefore fork) at most this many decisions per
    /// schedule.
    pub max_depth: usize,
    /// Events within this window of the earliest pending event count as
    /// tied (bounded timing jitter); `SimTime::ZERO` forks exact ties
    /// only.
    pub tie_window: SimTime,
}

/// The outcome of exploring one [`ExploreConfig`].
///
/// `PartialEq` compares every field; the differential tests use it to
/// pin [`explore_matrix`] at one worker against several.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Exploration {
    /// The job's label.
    pub label: String,
    /// Schedules executed.
    pub schedules: u64,
    /// Events processed across all schedules.
    pub events: u64,
    /// Deepest decision count observed in any single schedule.
    pub max_decisions: usize,
    /// Total invariant violations across all schedules.
    pub violations: u64,
    /// First few violation descriptions (capped; see `violations` for
    /// the true count).
    pub sample: Vec<String>,
    /// Whether the decision tree was exhausted within `max_schedules`
    /// (true = every explorable interleaving up to `max_depth` ran).
    pub exhausted: bool,
    /// Whether any schedule hit the depth bound.
    pub depth_truncated: bool,
}

/// How many violation descriptions an [`Exploration`] retains verbatim.
const SAMPLE_CAP: usize = 8;

/// Checks the full invariant suite against a finished world (after
/// [`SystemWorld::shadow_sync`]), returning one description per
/// violation.
///
/// The suite:
/// 1. every `DmaShadow` violation (pin lifecycle, ownership, sequence
///    continuity, mirror audits);
/// 2. every non-shadow protection fault (e.g. stale sequence numbers
///    rejected by the NIC);
/// 3. event-channel conservation: `sent == collected + pending`;
/// 4. CDNA pin balance: outstanding pool pins equal the protection
///    engines' pinned pages (Xen's grant path pins outside the engines,
///    so this is only sound for CDNA runs).
pub fn check_invariants(world: &SystemWorld) -> Vec<String> {
    let mut out = Vec::new();
    if let Some(shadow) = world.shadow() {
        for v in shadow.violations() {
            out.push(format!("shadow: {}", v.kind));
        }
    }
    for f in &world.faults {
        if !matches!(f.kind, FaultKind::ShadowViolation { .. }) {
            // Render via the stable code/name accessors, not `{:?}`:
            // violation samples land in reports and CI logs, and the
            // Debug form changes whenever a payload field does.
            out.push(format!(
                "fault on {}: {} (code {}): {}",
                f.ctx,
                f.kind.name(),
                f.kind.code(),
                f.kind
            ));
        }
    }
    let (sent, collected, pending) = (
        world.evt.sent(),
        world.evt.collected(),
        world.evt.pending_total(),
    );
    if sent != collected + pending {
        out.push(format!(
            "evtchn conservation broken: sent={sent} != collected={collected} + pending={pending}"
        ));
    }
    if matches!(world.cfg.io_model, IoModel::Cdna { .. }) {
        let engine_pins: u64 = world
            .engines
            .iter()
            .flat_map(|e| e.contexts().assigned().flat_map(|(c, _)| e.pinned_runs(c)))
            .map(|(_, len)| u64::from(len))
            .sum();
        let pool_pins = world.mem.outstanding_pins();
        if pool_pins != engine_pins {
            out.push(format!(
                "pin balance broken: pool={pool_pins} engines={engine_pins}"
            ));
        }
    }
    out
}

/// A cell's world, built and primed once: every schedule runs on a
/// clone of `world` with a copy of `events` enqueued.
struct PrimedCell {
    world: SystemWorld,
    events: Vec<(SimTime, Event)>,
}

impl PrimedCell {
    fn build(cfg: TestbedConfig) -> Self {
        let mut world = SystemWorld::build(cfg);
        let events = world.prime();
        PrimedCell { world, events }
    }

    /// Runs a clone of the primed world under `queue` to `end` and
    /// brings its shadow up to date; returns the world and the events
    /// processed.
    fn run_clone(&self, queue: PermutationQueue, end: SimTime) -> (SystemWorld, u64) {
        let mut sim = Simulation::with_event_queue(self.world.clone(), Box::new(queue));
        for (t, e) in &self.events {
            sim.schedule(*t, e.clone());
        }
        sim.run_until(end);
        let events = sim.events_processed();
        let mut world = sim.into_world();
        world.shadow_sync();
        (world, events)
    }
}

/// The message of a caught panic.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_string())
}

/// Runs one schedule: replay `prefix` on a clone of the cell's primed
/// world, run to the end of the measurement window, audit. Returns the
/// controller (for backtracking), the violations, and the events
/// processed. A panic inside the schedule, or the one that stopped the
/// cell's build (`cell` is then its message), counts as a violation of
/// its own.
fn run_schedule(
    job: &ExploreConfig,
    cell: Result<&PrimedCell, &str>,
    prefix: Vec<usize>,
) -> (Arc<Mutex<Controller>>, Vec<String>, u64) {
    let ctrl = Arc::new(Mutex::new(Controller::new(prefix, job.max_depth)));
    let queue = PermutationQueue::with_window(Arc::clone(&ctrl), job.tie_window);
    let end = job.cfg.warmup + job.cfg.measure;
    let outcome = cell.map_err(str::to_string).and_then(|cell| {
        catch_unwind(AssertUnwindSafe(|| {
            let (world, events) = cell.run_clone(queue, end);
            (check_invariants(&world), events)
        }))
        .map_err(panic_message)
    });
    match outcome {
        Ok((violations, events)) => (ctrl, violations, events),
        Err(msg) => (ctrl, vec![format!("panic during schedule: {msg}")], 0),
    }
}

/// Explores `job` depth-first until the decision tree is exhausted or
/// `max_schedules` is reached. The cell's world is built and primed
/// once; every schedule runs on a clone of it.
pub fn explore(job: &ExploreConfig) -> Exploration {
    let mut result = Exploration {
        label: job.label.clone(),
        schedules: 0,
        events: 0,
        max_decisions: 0,
        violations: 0,
        sample: Vec::new(),
        exhausted: false,
        depth_truncated: false,
    };
    let cell = catch_unwind(AssertUnwindSafe(|| PrimedCell::build(job.cfg.clone())))
        .map_err(panic_message);
    let mut prefix = Vec::new();
    loop {
        let (ctrl, violations, events) =
            run_schedule(job, cell.as_ref().map_err(String::as_str), prefix);
        result.schedules += 1;
        result.events += events;
        result.violations += violations.len() as u64;
        for v in violations {
            if result.sample.len() < SAMPLE_CAP {
                result.sample.push(format!("{}: {v}", result.label));
            }
        }
        let ctrl = lock(&ctrl);
        result.max_decisions = result.max_decisions.max(ctrl.record.len());
        result.depth_truncated |= ctrl.depth_truncated;
        if result.schedules >= job.max_schedules {
            break;
        }
        match ctrl.next_prefix() {
            Some(p) => prefix = p,
            None => {
                result.exhausted = true;
                break;
            }
        }
    }
    result
}

/// Explores every cell of `matrix` with [`explore`] on `jobs` workers of
/// the [`par`] pool, one cell per task, and returns the runs in matrix
/// order.
///
/// Parallelism stops at the cell boundary: each decision tree is still
/// searched sequentially, so every [`Exploration`] — exhausted or cut
/// at `max_schedules` — is the same at any worker count. The active
/// [`cdna_mem::mutation`] switch (a thread-local) is mirrored from the
/// calling thread onto every worker, so seeded-bug calibration runs
/// explore the same mutated build at any worker count.
pub fn explore_matrix(matrix: Vec<ExploreConfig>, jobs: usize) -> MatrixReport {
    let mutation = cdna_mem::mutation::active();
    let init = move || cdna_mem::mutation::set_active(mutation);
    MatrixReport {
        runs: par::run_indexed_init(jobs, matrix, init, |_, job| explore(&job)),
    }
}

/// Aggregated results of exploring a whole configuration matrix.
#[derive(Debug, Clone, Default)]
pub struct MatrixReport {
    /// Per-configuration outcomes, in matrix order.
    pub runs: Vec<Exploration>,
}

impl MatrixReport {
    /// Schedules executed across the matrix.
    pub fn total_schedules(&self) -> u64 {
        self.runs.iter().map(|r| r.schedules).sum()
    }

    /// Invariant violations across the matrix.
    pub fn total_violations(&self) -> u64 {
        self.runs.iter().map(|r| r.violations).sum()
    }

    /// Events processed across the matrix.
    pub fn total_events(&self) -> u64 {
        self.runs.iter().map(|r| r.events).sum()
    }

    /// Whether every explored schedule satisfied every invariant.
    pub fn clean(&self) -> bool {
        self.total_violations() == 0
    }
}

/// The standard exploration matrix: {CDNA validated, Xen bridged} ×
/// {2, 3 guests} × {transmit, receive}, with the shadow checker on and
/// short warm-up/measure windows (`window_us` simulated microseconds)
/// so thousands of schedules stay affordable. `per_config_schedules`
/// bounds each cell's DFS and `tie_window_ns` sets the jitter tie
/// window (see [`ExploreConfig::tie_window`]).
pub fn default_matrix(
    window_us: u64,
    per_config_schedules: u64,
    max_depth: usize,
    tie_window_ns: u64,
) -> Vec<ExploreConfig> {
    let mut jobs = Vec::new();
    let models = [
        IoModel::Cdna {
            policy: DmaPolicy::Validated,
        },
        IoModel::XenBridged {
            nic: NicKind::Intel,
        },
    ];
    for io in models {
        for guests in [2u16, 3] {
            for dir in [Direction::Transmit, Direction::Receive] {
                let mut cfg = TestbedConfig::new(io, guests, dir);
                cfg.warmup = SimTime::from_us(window_us / 3);
                cfg.measure = SimTime::from_us(window_us - window_us / 3);
                cfg.shadow_check = true;
                let dir_name = match dir {
                    Direction::Transmit => "tx",
                    Direction::Receive => "rx",
                };
                jobs.push(ExploreConfig {
                    label: format!("{}/{}g/{}", io.label(), guests, dir_name),
                    cfg,
                    max_schedules: per_config_schedules,
                    max_depth,
                    tie_window: SimTime::from_ns(tie_window_ns),
                });
            }
        }
    }
    jobs
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdna_system::report_from_world;

    /// Everything a finished schedule is judged by.
    fn outcome(world: &mut SystemWorld, events: u64) -> (u64, Vec<String>, String, String) {
        let shadow = format!("{:?}", world.shadow().map(|s| s.violations()));
        let report = report_from_world(world, events, true).to_json();
        (events, check_invariants(world), shadow, report)
    }

    fn queue(job: &ExploreConfig, prefix: Vec<usize>) -> PermutationQueue {
        let ctrl = Arc::new(Mutex::new(Controller::new(prefix, job.max_depth)));
        PermutationQueue::with_window(ctrl, job.tie_window)
    }

    /// Two schedules on clones of one primed cell and one on a freshly
    /// built world agree, and leave the cell as it was: a `Clone` that
    /// shared state between copies would fail here.
    #[test]
    fn clones_of_a_primed_cell_run_like_a_freshly_built_world() {
        // Windows long enough for a report: a dispatch that straddles
        // the window's end must stay within the ledger's 1 % tolerance.
        let mut forked = 0;
        for job in default_matrix(30_000, 2, 64, 2000) {
            let cell = PrimedCell::build(job.cfg.clone());
            let before = format!("{:?}", (&cell.world, &cell.events));
            let end = job.cfg.warmup + job.cfg.measure;
            // A prefix that takes a second branch, where the tree has one.
            let (ctrl, _, _) = run_schedule(&job, Ok(&cell), Vec::new());
            let prefix = lock(&ctrl).next_prefix().unwrap_or_default();
            forked += usize::from(!prefix.is_empty());

            let mut fresh = Simulation::with_event_queue(
                SystemWorld::build(job.cfg.clone()),
                Box::new(queue(&job, prefix.clone())),
            );
            for (t, e) in fresh.world_mut().prime() {
                fresh.schedule(t, e);
            }
            fresh.run_until(end);
            let events = fresh.events_processed();
            let mut world = fresh.into_world();
            world.shadow_sync();
            let want = outcome(&mut world, events);

            for _ in 0..2 {
                let (mut world, events) = cell.run_clone(queue(&job, prefix.clone()), end);
                assert_eq!(outcome(&mut world, events), want, "{}", job.label);
            }
            assert_eq!(format!("{:?}", (&cell.world, &cell.events)), before);
        }
        assert!(forked > 0, "no cell took a second branch");
    }

    #[test]
    fn a_build_that_panics_is_one_schedule_with_one_violation() {
        let mut job = default_matrix(1000, 5, 64, 2000).remove(0);
        job.cfg.guests = 1;
        job.cfg.inter_guest = true;
        let run = explore(&job);
        assert_eq!((run.schedules, run.violations, run.events), (1, 1, 0));
        assert!(run.exhausted);
        assert!(
            run.sample[0]
                .ends_with("panic during schedule: inter-VM traffic needs two virtualized guests"),
            "{:?}",
            run.sample
        );
    }
}
