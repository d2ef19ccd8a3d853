//! The rack cell: 4 hosts × 8 CDNA guests in the cross-host ring, on
//! the quick 30 ms + 120 ms window.
//!
//! The rack is not a timed workload of its own: on a 2-vCPU VM with busy
//! neighbours even its jobs-1 figures spread by 23–36% over ten runs.
//! Its layers are measured by the traced `cdna-host` run instead, which
//! calls [`run`] for a short budget. The rack is timed from outside through
//! [`RackWorld::run_with_host_hook`]: host 0's hook stamps the host time
//! every [`SLICE_ROUNDS`] epochs, which splits the run into fixed
//! simulated slices.

use std::sync::Mutex;
use std::time::{Duration, Instant};

use cdna_rack::{RackConfig, RackReport, RackWorkload, RackWorld};
use cdna_sim::par;

use crate::spans::Spans;
use crate::{closed_loop, median, ms, Gate, Values};

/// Hosts in the rack.
pub const HOSTS: u8 = 4;

/// Guests per host.
pub const GUESTS: u16 = 8;

/// Epoch rounds per timing slice.
pub const SLICE_ROUNDS: u64 = 7500;

/// The workload's rack configuration at `seed`.
pub fn config(seed: u64) -> RackConfig {
    RackConfig::new(HOSTS, GUESTS, RackWorkload::XHost)
        .quick()
        .with_seed(seed)
}

/// One timed rack run.
#[derive(Debug)]
pub struct RackRun {
    /// Host instants at start, after build, at the first simulated
    /// event (host 0's first hook), and after the report.
    pub marks: [Instant; 4],
    /// Host 0's hook stamps, one every [`SLICE_ROUNDS`] rounds.
    pub stamps: Vec<Instant>,
    /// Simulated seconds per slice.
    pub slice_sim_s: f64,
    /// The rack report.
    pub report: RackReport,
}

impl RackRun {
    /// Host milliseconds per simulated second of each complete slice.
    pub fn slice_ms(&self) -> Vec<f64> {
        self.stamps
            .windows(2)
            .map(|w| ms(w[1] - w[0]) / self.slice_sim_s)
            .collect()
    }

    /// Build through report.
    pub fn total(&self) -> Duration {
        self.marks[3] - self.marks[0]
    }

    /// Mean host time per epoch round between the first and last stamp.
    pub fn round(&self) -> Duration {
        match (self.stamps.first(), self.stamps.last()) {
            (Some(a), Some(b)) if self.stamps.len() > 1 => {
                (*b - *a) / ((self.stamps.len() as u64 - 1) * SLICE_ROUNDS) as u32
            }
            _ => Duration::ZERO,
        }
    }
}

/// Builds and runs `cfg` on `jobs` workers.
pub fn run_one(cfg: RackConfig, jobs: usize) -> RackRun {
    let epoch_s = cfg.switch.latency.as_secs_f64();
    let start = Instant::now();
    let rack = RackWorld::build(cfg);
    let built = Instant::now();
    let stamps = Mutex::new(Vec::new());
    let report = rack.run_with_host_hook(jobs, |host, round, _sim| {
        if host == 0 && round % SLICE_ROUNDS == 0 {
            stamps
                .lock()
                .expect("no hook panics while holding the stamp lock")
                .push(Instant::now());
        }
    });
    let reported = Instant::now();
    let stamps = stamps.into_inner().expect("no hook panicked");
    let first_event = stamps.first().copied().unwrap_or(reported);
    RackRun {
        marks: [start, built, first_event, reported],
        stamps,
        slice_sim_s: SLICE_ROUNDS as f64 * epoch_s,
        report,
    }
}

/// Checks one run: no protection fault, traffic through the switch,
/// and the same report as every earlier run at any worker count.
fn check(run: &RackRun, gate: &mut Gate, problems: &mut Vec<String>) {
    if run.report.total_faults() != 0 {
        problems.push(format!(
            "rack: {} protection faults",
            run.report.total_faults()
        ));
    }
    if run.report.switch.forwarded == 0 {
        problems.push("rack: the switch forwarded nothing".to_string());
    }
    // One key for both worker counts: jobs 1 ≡ jobs N, and every
    // repeat ≡ the first run.
    gate.pin(problems, "rack", &run.report.to_json());
}

/// Records `run`'s spans under `parent`.
fn record_spans(spans: &mut Spans, parent: u32, name: &'static str, run: &RackRun) {
    let id = spans.record(name, parent, run.marks[0], run.marks[3]);
    spans.record("build", id, run.marks[0], run.marks[1]);
    spans.record("prime", id, run.marks[1], run.marks[2]);
    for w in run.stamps.windows(2) {
        spans.record("rounds", id, w[0], w[1]);
    }
}

/// Runs the cell for `budget`, alternating jobs 1 and jobs N, and
/// records each run's spans under `parent`. Returns the rack's per-layer
/// values (the parallel path's round cost and speed-up beside the jobs-1
/// host time per simulated second) and its gate.
pub fn run(seed: u64, budget: Duration, spans: &mut Spans, parent: u32) -> (Values, Gate) {
    let mut gate = Gate::default();
    let jobs = par::available_jobs();
    let root = spans.open("rack-xhost", parent, Instant::now());
    let (mut serial, mut parallel) = (Vec::new(), Vec::new());
    let (mut slices, mut rounds) = (Vec::new(), Vec::new());
    let mut first: Option<RackReport> = None;

    closed_loop(budget, 2, |i| {
        let mut problems = Vec::new();
        let parallel_unit = i % 2 == 1;
        let run = run_one(config(seed), if parallel_unit { jobs } else { 1 });
        check(&run, &mut gate, &mut problems);
        gate.record(problems);
        if parallel_unit {
            record_spans(spans, root, "run.jobs-n", &run);
            parallel.push(ms(run.total()));
            rounds.push(run.round().as_secs_f64() * 1e6);
        } else {
            record_spans(spans, root, "run.jobs-1", &run);
            serial.push(ms(run.total()));
            slices.extend(run.slice_ms());
        }
        if first.is_none() {
            first = Some(run.report);
        }
    });
    spans.close(root, Instant::now());

    let report = first.expect("closed_loop runs at least one unit");
    let mut v = Values::new();
    v.insert("rack_serial_ms_per_sim_s", median(&slices));
    v.insert("rack.round_us", median(&rounds));
    v.insert("rack.epochs", report.epochs as f64);
    v.insert("rack.parallel_speedup", median(&serial) / median(&parallel));
    v.insert("rack.switch.forwarded", report.switch.forwarded as f64);
    (v, gate)
}
