//! Depth-first schedule exploration that resumes each schedule from a
//! snapshot where it leaves its parent's path, plus the invariant suite
//! every explored schedule must satisfy.
//!
//! A cell's world is built, primed and shadow-synced once. The first
//! schedule runs that primed simulation under a [`PermutationQueue`]
//! whose [`Controller`] pauses before every fresh decision; [`explore`]
//! then pushes a clone of the whole simulation onto a snapshot stack
//! and runs on. The queue owns the controller, so each snapshot carries
//! the decisions taken before it. The next schedule differs from this
//! one first at some decision `d` (the deepest with an untried
//! candidate), so it resumes from the snapshot taken before `d` with
//! that candidate forced and simulates only the tail. The stack keeps
//! only a few snapshots (`SNAPSHOTS`); a branch whose snapshot was
//! dropped resumes from the nearest one above it.
//!
//! A schedule's one shadow sync is the one its `StopMeasure` event
//! runs. It folds only the pins and reaps of the schedule's own run,
//! since the build-time posts are already in the primed mirror every
//! snapshot copies, and it audits only the pool pages written since the
//! primed sync, which every snapshot's pool marks dirty. Nothing
//! after `StopMeasure` pins, reaps or stamps a descriptor (a test below
//! checks every schedule of a 300 µs matrix), so a second sync at the
//! schedule's end would only re-record what the first found.
//!
//! The explorer marks each [`Phase`] of its work (build, snapshot
//! clone, resume, tail, invariants) for a profiling hook that does
//! nothing unless a binary installs one (`cdna-model --profile`).
//!
//! [`explore`] searches one configuration's decision tree depth-first;
//! [`explore_matrix`] runs a whole configuration matrix, one cell per
//! worker of the [`cdna_sim::par`] pool. Each cell is searched by the
//! same sequential [`explore`], so a matrix report does not depend on
//! the worker count — proven by `tests/parallel.rs`.

use std::panic::{catch_unwind, AssertUnwindSafe};

use cdna_core::{DmaPolicy, FaultKind};
use cdna_sim::{par, SimTime, Simulation};
use cdna_system::phase::{self, Phase};
use cdna_system::{Direction, IoModel, NicKind, SystemWorld, TestbedConfig};

use crate::queue::{Controller, PermutationQueue};

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

impl Exploration {
    fn new(label: &str) -> Self {
        Exploration {
            label: label.to_string(),
            schedules: 0,
            events: 0,
            max_decisions: 0,
            violations: 0,
            sample: Vec::new(),
            exhausted: false,
            depth_truncated: false,
        }
    }

    /// Folds one finished schedule into the totals: its events, its
    /// violations, and the decisions `ctrl` recorded along its path.
    fn add(&mut self, events: u64, violations: Vec<String>, ctrl: &Controller) {
        self.schedules += 1;
        self.events += events;
        self.violations += violations.len() as u64;
        for v in violations {
            if self.sample.len() < SAMPLE_CAP {
                self.sample.push(format!("{}: {v}", self.label));
            }
        }
        self.max_decisions = self.max_decisions.max(ctrl.record.len());
        self.depth_truncated |= ctrl.depth_truncated;
    }
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

/// A cell's primed simulation: its world built, primed and
/// shadow-synced once, with the events priming scheduled under `queue`.
///
/// Everything a schedule would otherwise redo identically is paid here.
/// The build-time sync seeds the DMA shadow's page mirror with every
/// buffer the drivers posted while priming, so each schedule's
/// `StopMeasure` sync folds only the pins and reaps of its own run. The
/// cell's first schedule runs on this simulation itself, and every
/// later one on a snapshot taken along an earlier schedule's path, so
/// the primed world is never copied.
fn primed(cfg: TestbedConfig, queue: PermutationQueue) -> Simulation<SystemWorld> {
    let mut sim = Simulation::with_event_queue(SystemWorld::build(cfg), queue);
    for (t, e) in sim.world_mut().prime() {
        sim.schedule(t, e);
    }
    sim.world_mut().shadow_sync();
    sim
}

/// A simulation paused just before the fresh decision at `depth`.
#[derive(Clone)]
struct Snapshot {
    depth: usize,
    sim: Simulation<SystemWorld>,
}

/// The most snapshots [`explore`] keeps: the shallowest, so every
/// branch has one at or above its decision, and the deepest seven,
/// where a depth-first search backtracks to almost every time.
///
/// A snapshot is a whole world (0.1–0.43 MB on the default matrix),
/// with its shadow's page mirror and its pool's dirty bitmap but no
/// scratch space of the sync's. Eight keep nearly all the re-runs one
/// per depth (12–21) saves, at half its heap; the scattered memory a
/// larger heap leaves behind slows the next world built in the
/// process. DESIGN.md §11 has the sweep over 2, 4, 8 and one per
/// depth.
const SNAPSHOTS: usize = 8;

/// Runs `sim` to `end` under its pausing controller, pushing a snapshot
/// onto `stack` at every pause after pinning the default choice, and
/// dropping the second-shallowest snapshot once there are more than
/// [`SNAPSHOTS`]; then finishes the schedule and returns the events
/// processed since time zero (a resumed simulation carries its
/// snapshot's count).
fn run_tail(sim: &mut Simulation<SystemWorld>, stack: &mut Vec<Snapshot>, end: SimTime) -> u64 {
    loop {
        phase::enter(Phase::Tail);
        sim.run_due(end);
        let unpaused = sim.queue_mut::<PermutationQueue>();
        let Some(depth) = unpaused.and_then(|q| q.ctrl.unpause()) else {
            break;
        };
        phase::enter(Phase::Clone);
        stack.push(Snapshot {
            depth,
            sim: sim.clone(),
        });
        if stack.len() > SNAPSHOTS {
            phase::enter(Phase::Resume);
            stack.remove(1);
        }
    }
    sim.run_until(end);
    sim.events_processed()
}

/// Runs `f`, turning a panic into the violation that stands for it.
fn catch<T>(f: impl FnOnce() -> T) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|payload| {
        let msg = payload
            .downcast_ref::<&str>()
            .map(|s| (*s).to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string panic payload".to_string());
        format!("panic during schedule: {msg}")
    })
}

/// Explores `job` depth-first until the decision tree is exhausted or
/// `max_schedules` is reached. The cell's world is built, primed and
/// shadow-synced once; the first schedule runs on it, and each later
/// one resumes from the snapshot taken just before the decision where
/// it leaves the previous schedule's path, so a schedule pays only for
/// its own tail and its own sync.
///
/// The snapshot stack holds at most [`SNAPSHOTS`] simulations. A branch
/// whose decision lost its snapshot resumes from the nearest one above
/// it and replays the recorded choices in between. A panic inside a
/// schedule, or the one that stopped the cell's build, counts as one
/// violation of its own; the search goes on from the panicked run's
/// record and the snapshots taken before the panic.
pub fn explore(job: &ExploreConfig) -> Exploration {
    explore_observed(job, &mut |_, _| ())
}

/// [`explore`], handing each finished schedule's world and event count
/// to `observe` before its invariants are checked.
fn explore_observed(
    job: &ExploreConfig,
    observe: &mut dyn FnMut(&mut SystemWorld, u64),
) -> Exploration {
    let outer = phase::enter(Phase::Build);
    let mut result = Exploration::new(&job.label);
    let queue = PermutationQueue::new(Controller::pausing(job.max_depth), job.tie_window);
    let end = job.cfg.warmup + job.cfg.measure;
    let mut stack: Vec<Snapshot> = Vec::new();
    // The simulation the next schedule runs, or the violation that
    // stands in for it. The schedule runs through `&mut`, so its
    // controller, and the record the search goes on from, outlives a
    // panic; a build that panicked has no controller, so its empty
    // record is exhausted.
    let mut next = catch(|| primed(job.cfg.clone(), queue));
    loop {
        let (violations, events) = match &mut next {
            Ok(sim) => catch(|| {
                let events = run_tail(sim, &mut stack, end);
                phase::enter(Phase::Invariants);
                observe(sim.world_mut(), events);
                (check_invariants(sim.world()), events)
            })
            .unwrap_or_else(|v| (vec![v], 0)),
            Err(v) => (vec![std::mem::take(v)], 0),
        };
        phase::enter(Phase::Resume);
        let empty = Controller::default();
        let finished = next
            .as_mut()
            .ok()
            .and_then(|sim| sim.queue_mut::<PermutationQueue>())
            .map_or(&empty, |q| &q.ctrl);
        result.add(events, violations, finished);
        if result.schedules >= job.max_schedules {
            break;
        }
        let Some((depth, candidate)) = finished.next_branch() else {
            result.exhausted = true;
            break;
        };
        // Every decision with an untried candidate paused for its
        // snapshot when it was fresh, and the shallowest snapshot is
        // never dropped, so one lies at or above `depth`; the deeper
        // ones are spent. The last candidate of the snapshot's own
        // decision takes it, any other branch a copy. The snapshot's
        // controller already holds the record up to its own depth.
        stack.truncate(stack.partition_point(|s| s.depth <= depth));
        let from = stack.last().map_or(0, |s| s.depth);
        let last = finished.record[depth].candidates.last() == Some(&candidate);
        let snapshot = if last && from == depth {
            stack.pop()
        } else {
            phase::enter(Phase::Clone);
            stack.last().cloned()
        };
        phase::enter(Phase::Resume);
        next = snapshot
            .map(|mut s| {
                if let Some(q) = s.sim.queue_mut::<PermutationQueue>() {
                    q.ctrl.resume(finished, depth, candidate);
                }
                s.sim
            })
            .ok_or_else(|| format!("no snapshot at or above decision {depth}"));
    }
    phase::enter(outer);
    result
}

/// Explores every cell of `matrix` with [`explore`] on `jobs` workers of
/// the [`par`] pool, one cell per task, and returns the runs in matrix
/// order.
///
/// Parallelism stops at the cell boundary: each decision tree is still
/// searched sequentially, so every [`Exploration`] — exhausted or cut
/// at `max_schedules` — is the same at any worker count. A seeded bug
/// travels in its cell's [`TestbedConfig::mutation`]; the calling
/// thread's [`phase`] hook is copied onto every worker, so a profile
/// covers every cell at any worker count.
pub fn explore_matrix(matrix: Vec<ExploreConfig>, jobs: usize) -> MatrixReport {
    let hook = phase::hook();
    let init = move || phase::set_hook(hook);
    MatrixReport {
        runs: par::run_indexed_init(jobs, matrix, init, |_, job| explore(&job)),
    }
}

/// Aggregated results of exploring a whole configuration matrix.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
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

    /// What a finished short-window schedule is judged by: as
    /// [`outcome`], with a digest of the whole world's `Debug` rendering
    /// in place of the report. Every report field is read from the
    /// world, but a 300 µs window is too short for the report itself: a
    /// dispatch straddling the window's end trips the CPU ledger's 1 %
    /// over-commitment check.
    fn short_outcome(world: &mut SystemWorld, events: u64) -> (u64, Vec<String>, String, u64) {
        use std::hash::{DefaultHasher, Hash, Hasher};
        let shadow = format!("{:?}", world.shadow().map(|s| s.violations()));
        let mut h = DefaultHasher::new();
        format!("{world:?}").hash(&mut h);
        (events, check_invariants(world), shadow, h.finish())
    }

    fn queue(job: &ExploreConfig, ctrl: Controller) -> PermutationQueue {
        PermutationQueue::new(ctrl, job.tie_window)
    }

    /// The controller of a simulation on a [`PermutationQueue`].
    fn ctrl(sim: &mut Simulation<SystemWorld>) -> &mut Controller {
        &mut sim
            .queue_mut::<PermutationQueue>()
            .expect("a permutation queue")
            .ctrl
    }

    /// Replays the schedule `prefix` names from time zero, on a clone of
    /// the `primed` simulation; returns the finished simulation and its
    /// events. The oracle resumed schedules are tested against.
    fn run_clone(
        primed: &Simulation<SystemWorld>,
        prefix: Vec<usize>,
        job: &ExploreConfig,
    ) -> (Simulation<SystemWorld>, u64) {
        let mut sim = primed.clone();
        *ctrl(&mut sim) = Controller::new(prefix, job.max_depth);
        sim.run_until(job.cfg.warmup + job.cfg.measure);
        let events = sim.events_processed();
        (sim, events)
    }

    /// [`explore`] as it ran before snapshots: every schedule replays
    /// its whole prefix on a fresh clone of the primed simulation from
    /// time zero.
    fn explore_by_replay(
        job: &ExploreConfig,
        observe: &mut dyn FnMut(&mut SystemWorld, u64),
    ) -> Exploration {
        let mut result = Exploration::new(&job.label);
        let primed = primed(job.cfg.clone(), queue(job, Controller::default()));
        let mut prefix = Vec::new();
        loop {
            let (mut sim, events) = run_clone(&primed, prefix, job);
            observe(sim.world_mut(), events);
            let violations = check_invariants(sim.world());
            let ctrl = ctrl(&mut sim);
            result.add(events, violations, ctrl);
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

    /// Every schedule resumed from a snapshot ends exactly like the same
    /// schedule replayed from time zero: same events, invariants, shadow
    /// violations and report, in the same order, and the same
    /// exploration totals. A resume that forced its pick at the wrong
    /// depth would fork a different tree.
    #[test]
    fn resumed_schedules_match_schedules_replayed_from_time_zero() {
        let mut jobs = default_matrix(300, 200, 64, 2000);
        let mut shallow = jobs[1].clone();
        shallow.label.push_str("/depth3");
        shallow.max_depth = 3;
        jobs.push(shallow);
        let (mut forked, mut truncated) = (0, 0);
        for job in jobs {
            let (mut resumed, mut replayed) = (Vec::new(), Vec::new());
            let got = explore_observed(&job, &mut |w, e| resumed.push(short_outcome(w, e)));
            let want = explore_by_replay(&job, &mut |w, e| replayed.push(short_outcome(w, e)));
            assert_eq!(resumed.len(), replayed.len(), "{}", job.label);
            for (n, (r, p)) in resumed.iter().zip(&replayed).enumerate() {
                assert_eq!(r, p, "{} schedule {n}", job.label);
            }
            assert_eq!(got, want);
            forked += usize::from(got.schedules > 1);
            truncated += usize::from(got.depth_truncated && job.max_depth == 3);
        }
        // At 300 µs the Xen tx cells have no decision and the CDNA tx
        // cells two; every other cell forks.
        assert_eq!(forked, 7, "cells that took a second branch");
        assert_eq!(truncated, 1, "the depth-3 cell was not truncated");
    }

    /// A sync at a schedule's end would have nothing to fold or replay:
    /// on every schedule of the 300 µs matrix, every engine's pin
    /// journal is empty after the `StopMeasure` sync, and a further sync
    /// observes no sequence number and folds no pin (the shadow's event
    /// count stays put), so no context's TX or RX producer moved.
    #[test]
    fn nothing_reaches_the_shadow_after_the_stop_measure_sync() {
        let mut schedules = 0;
        for job in default_matrix(300, 200, 64, 2000) {
            let run = explore_observed(&job, &mut |world, _| {
                schedules += 1;
                for (nic, engine) in world.engines.iter().enumerate() {
                    let journal = engine.pin_journal().unwrap_or_default();
                    assert!(journal.is_empty(), "{} nic {nic}: {journal:?}", job.label);
                }
                let events = |w: &SystemWorld| w.shadow().map(|s| s.events());
                let mut again = world.clone();
                again.shadow_sync();
                assert_eq!(events(&again), events(world), "{}", job.label);
            });
            assert_eq!(run.violations, 0, "{run:?}");
        }
        assert!(schedules > 700, "{schedules} schedules");
    }

    /// Two schedules on clones of one primed simulation and one on a
    /// freshly built world agree, and leave the primed simulation as it
    /// was: a `Clone` that shared state between copies, the controller
    /// included, would fail here. The primed simulation then runs the
    /// same schedule itself and must agree too.
    #[test]
    fn clones_of_a_primed_cell_run_like_a_freshly_built_world() {
        // Windows long enough for a report: a dispatch that straddles
        // the window's end must stay within the ledger's 1 % tolerance.
        let mut forked = 0;
        for job in default_matrix(30_000, 2, 64, 2000) {
            let end = job.cfg.warmup + job.cfg.measure;
            let mut cell = primed(job.cfg.clone(), queue(&job, Controller::default()));
            // The world, every pending event's time and payload, and
            // the controller.
            let before = format!("{cell:?}");
            // A prefix that takes a second branch, where the tree has one.
            let (mut sim, _) = run_clone(&cell, Vec::new(), &job);
            let prefix = ctrl(&mut sim).next_prefix().unwrap_or_default();
            forked += usize::from(!prefix.is_empty());

            let fresh_ctrl = Controller::new(prefix.clone(), job.max_depth);
            let mut fresh = primed(job.cfg.clone(), queue(&job, fresh_ctrl));
            fresh.run_until(end);
            let events = fresh.events_processed();
            let want = outcome(fresh.world_mut(), events);

            for _ in 0..2 {
                let (mut sim, events) = run_clone(&cell, prefix.clone(), &job);
                assert_eq!(outcome(sim.world_mut(), events), want, "{}", job.label);
            }
            assert_eq!(format!("{cell:?}"), before, "{}", job.label);
            *ctrl(&mut cell) = Controller::new(prefix, job.max_depth);
            cell.run_until(end);
            let events = cell.events_processed();
            assert_eq!(outcome(cell.world_mut(), events), want, "{}", job.label);
        }
        assert!(forked > 0, "no cell took a second branch");
    }

    /// A panic inside one schedule is that schedule's one violation; the
    /// search goes on from its record, so every other schedule runs
    /// exactly as in the exploration without the panic.
    #[test]
    fn a_schedule_that_panics_is_one_violation_and_the_search_goes_on() {
        let job = default_matrix(300, 200, 64, 2000).remove(1);
        let mut events = Vec::new();
        let clean = explore_observed(&job, &mut |_, e| events.push(e));
        assert!(clean.schedules > 10 && clean.violations == 0, "{clean:?}");
        let mut n = 0;
        let panicked = explore_observed(&job, &mut |_, _| {
            n += 1;
            assert!(n != 5, "observer stops schedule 4");
        });
        let want = Exploration {
            events: clean.events - events[4],
            violations: 1,
            sample: vec![format!(
                "{}: panic during schedule: observer stops schedule 4",
                job.label
            )],
            ..clean
        };
        assert_eq!(panicked, want);
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
