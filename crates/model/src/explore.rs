//! Depth-first schedule exploration over rebuilt worlds, plus the
//! invariant suite every explored schedule must satisfy.
//!
//! Exploration comes in two shapes: [`explore`] is the sequential
//! reference, and [`explore_parallel`] fans the same decision tree out
//! over the [`cdna_sim::par`] worker pool by partitioning it into
//! disjoint subtree *shards* (see [`explore_parallel`] for the
//! decomposition argument). On an exhausted tree the two produce
//! identical [`Exploration`]s — proven by `tests/parallel.rs`.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use cdna_core::{DmaPolicy, FaultKind};
use cdna_sim::{par, SimTime, Simulation};
use cdna_system::{Direction, Event, IoModel, NicKind, SystemWorld, TestbedConfig};

use crate::queue::{lock, Controller, Decision, PermutationQueue};

/// One exploration job: a testbed configuration plus bounds.
#[derive(Debug, Clone)]
pub struct ExploreConfig {
    /// Human-readable identifier, stable across runs (used in reports).
    pub label: String,
    /// The configuration every schedule rebuilds from.
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
/// pin [`explore_parallel`] against [`explore`].
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
            .flat_map(|e| {
                e.contexts()
                    .assigned()
                    .map(|(c, _)| e.pinned_pages(c).count())
            })
            .map(|n| n as u64)
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

/// Runs one schedule: rebuild the world, replay `prefix`, run to the
/// end of the measurement window, audit. Returns the controller (for
/// backtracking), the violations, and the events processed. A panic
/// inside the schedule counts as a violation of its own.
fn run_schedule(
    job: &ExploreConfig,
    prefix: Vec<usize>,
) -> (Arc<Mutex<Controller>>, Vec<String>, u64) {
    let ctrl = Arc::new(Mutex::new(Controller::new(prefix, job.max_depth)));
    let queue = PermutationQueue::with_window(Arc::clone(&ctrl), job.tie_window);
    let end = job.cfg.warmup + job.cfg.measure;
    let cfg = job.cfg.clone();
    let outcome = catch_unwind(AssertUnwindSafe(move || {
        let mut sim = Simulation::with_event_queue(SystemWorld::build(cfg), Box::new(queue));
        let primed: Vec<(SimTime, Event)> = sim.world_mut().prime();
        for (t, e) in primed {
            sim.schedule(t, e);
        }
        sim.run_until(end);
        let events = sim.events_processed();
        let mut world = sim.into_world();
        world.shadow_sync();
        (check_invariants(&world), events)
    }));
    match outcome {
        Ok((violations, events)) => (ctrl, violations, events),
        Err(payload) => {
            let msg = payload
                .downcast_ref::<&str>()
                .map(|s| (*s).to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic payload".to_string());
            (ctrl, vec![format!("panic during schedule: {msg}")], 0)
        }
    }
}

/// Explores `job` depth-first until the decision tree is exhausted or
/// `max_schedules` is reached.
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
    let mut prefix = Vec::new();
    loop {
        let (ctrl, violations, events) = run_schedule(job, prefix);
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

/// Frontier-splitting rounds [`explore_parallel`] performs before
/// handing whole subtrees to the workers. Each round runs the first
/// schedule of every pending shard and replaces the shard with its
/// sub-shards, multiplying the pieces available for work stealing;
/// after the last round each remaining shard is explored to completion
/// by one worker. Three rounds comfortably out-produces any realistic
/// worker count on the matrices this repo explores while keeping the
/// (sequentially merged) bookkeeping cheap.
const FRONTIER_ROUNDS: usize = 3;

/// One disjoint subtree of the decision tree: replay `prefix`, then
/// search depth-first without ever backtracking above `fixed_len`
/// decisions (see [`Controller::next_prefix_from`]).
#[derive(Debug, Clone)]
struct Shard {
    prefix: Vec<usize>,
    fixed_len: usize,
}

/// What one executed schedule contributes to an [`Exploration`].
#[derive(Debug)]
struct RunStats {
    violations: Vec<String>,
    events: u64,
    decisions: usize,
    depth_truncated: bool,
}

/// An ordered fragment of the exploration: schedules already executed
/// (in sequential-DFS order) or a subtree still to be explored.
#[derive(Debug)]
enum Piece {
    Done(Vec<RunStats>),
    Todo(Shard),
}

/// Takes one schedule from the shared budget; `false` once
/// `max_schedules` runs have been claimed fleet-wide.
fn take_token(budget: &AtomicU64) -> bool {
    budget
        .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |b| b.checked_sub(1))
        .is_ok()
}

/// The sub-shards of a finished schedule, in the exact order the
/// sequential DFS would visit them: deepest decision first, and within
/// a decision the untried candidates ascending. Decisions above
/// `fixed_len` belong to an enclosing shard and are not forked here.
fn subshards(record: &[Decision], fixed_len: usize) -> Vec<Shard> {
    let mut out = Vec::new();
    for d in (fixed_len..record.len()).rev() {
        let dec = &record[d];
        if let Some(pos) = dec.candidates.iter().position(|&c| c == dec.chosen) {
            for &c in &dec.candidates[pos + 1..] {
                let mut p: Vec<usize> = record[..d].iter().map(|x| x.chosen).collect();
                p.push(c);
                out.push(Shard {
                    prefix: p,
                    fixed_len: d + 1,
                });
            }
        }
    }
    out
}

/// Runs one schedule and packages its contribution.
fn run_stats(job: &ExploreConfig, prefix: Vec<usize>) -> (RunStats, Arc<Mutex<Controller>>) {
    let (ctrl, violations, events) = run_schedule(job, prefix);
    let stats = {
        let c = lock(&ctrl);
        RunStats {
            violations,
            events,
            decisions: c.record.len(),
            depth_truncated: c.depth_truncated,
        }
    };
    (stats, ctrl)
}

/// Explores one shard's whole subtree depth-first, claiming one budget
/// token per schedule. Returns the executed schedules in sequential-DFS
/// order (possibly empty if the budget ran dry before the first run).
fn run_shard_dfs(job: &ExploreConfig, shard: Shard, budget: &AtomicU64) -> Vec<RunStats> {
    let mut out = Vec::new();
    let mut prefix = shard.prefix;
    loop {
        if !take_token(budget) {
            break;
        }
        let (stats, ctrl) = run_stats(job, prefix);
        out.push(stats);
        let next = lock(&ctrl).next_prefix_from(shard.fixed_len);
        match next {
            Some(p) => prefix = p,
            None => break,
        }
    }
    out
}

/// [`explore`], fanned out over `jobs` workers of the [`par`] pool.
///
/// The decision tree is partitioned into disjoint subtree shards: after
/// running one schedule, every decision depth `d` with untried
/// candidates spawns a shard that replays the first `d` choices plus
/// one untried candidate and then searches with a backtracking floor of
/// `d + 1` ([`Controller::next_prefix_from`]). Enumerating those shards
/// deepest-first (candidates ascending) is exactly the order the
/// sequential search visits the same subtrees, so concatenating the
/// shard results reproduces the sequential schedule order — the merge
/// is deterministic no matter which worker ran what when.
/// [`FRONTIER_ROUNDS`] rounds of recursive splitting keep the shard
/// queue well ahead of the worker count.
///
/// A shared token budget caps total schedules at `max_schedules`, so
/// the *count* always matches [`explore`]; on a tree the budget
/// exhausts, which schedules run (and thus `events`, `sample`, …) can
/// differ from sequential. On an exhausted tree — the interesting case
/// for verification, and what `tests/parallel.rs` pins — every field of
/// the returned [`Exploration`] is identical to the sequential one.
///
/// The active [`cdna_mem::mutation`] switch (a thread-local) is
/// mirrored from the calling thread onto every worker, so seeded-bug
/// calibration runs shard identically to clean ones. `jobs <= 1` simply
/// runs [`explore`].
pub fn explore_parallel(job: &ExploreConfig, jobs: usize) -> Exploration {
    if jobs <= 1 {
        return explore(job);
    }
    // `max_schedules == 0` still runs one schedule sequentially (the
    // loop tests the bound only after the first run); mirror that.
    let budget = AtomicU64::new(job.max_schedules.max(1));
    let mutation = cdna_mem::mutation::active();
    let init = move || cdna_mem::mutation::set_active(mutation);

    let mut pieces: Vec<Piece> = vec![Piece::Todo(Shard {
        prefix: Vec::new(),
        fixed_len: 0,
    })];
    for round in 0..=FRONTIER_ROUNDS {
        let split = round < FRONTIER_ROUNDS;
        let todo: Vec<(usize, Shard)> = pieces
            .iter()
            .enumerate()
            .filter_map(|(i, p)| match p {
                Piece::Todo(s) => Some((i, s.clone())),
                Piece::Done(_) => None,
            })
            .collect();
        if todo.is_empty() {
            break;
        }
        let results = par::run_indexed_init(jobs, todo, init, |_, (pos, shard)| {
            if split {
                if !take_token(&budget) {
                    return (pos, Vec::new(), Vec::new());
                }
                let (stats, ctrl) = run_stats(job, shard.prefix.clone());
                let subs = subshards(&lock(&ctrl).record, shard.fixed_len);
                (pos, vec![stats], subs)
            } else {
                (pos, run_shard_dfs(job, shard, &budget), Vec::new())
            }
        });
        // Splice each shard's first run and sub-shards back in place;
        // `results` is index-ordered, so walking both lists in step
        // keeps the piece order canonical.
        let mut results = results.into_iter();
        let mut next_pieces = Vec::new();
        for (i, piece) in pieces.into_iter().enumerate() {
            match piece {
                Piece::Done(runs) => next_pieces.push(Piece::Done(runs)),
                Piece::Todo(_) => {
                    let (pos, runs, subs) = results
                        .next()
                        .unwrap_or_else(|| (i, Vec::new(), Vec::new()));
                    debug_assert_eq!(pos, i, "shard results out of order");
                    if !runs.is_empty() {
                        next_pieces.push(Piece::Done(runs));
                    }
                    next_pieces.extend(subs.into_iter().map(Piece::Todo));
                }
            }
        }
        pieces = next_pieces;
    }

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
    for piece in pieces {
        if let Piece::Done(runs) = piece {
            for r in runs {
                result.schedules += 1;
                result.events += r.events;
                result.violations += r.violations.len() as u64;
                for v in r.violations {
                    if result.sample.len() < SAMPLE_CAP {
                        result.sample.push(format!("{}: {v}", result.label));
                    }
                }
                result.max_decisions = result.max_decisions.max(r.decisions);
                result.depth_truncated |= r.depth_truncated;
            }
        }
    }
    // Sequential semantics: `exhausted` means the tree ran dry *before*
    // the schedule bound was reached. A denied token implies exactly
    // `max_schedules` runs happened, so the comparison covers all cases.
    result.exhausted = result.schedules < job.max_schedules;
    result
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
