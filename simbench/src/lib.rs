//! Host-time benchmark of the CDNA simulator.
//!
//! One binary runs one named workload in a closed loop for a fixed
//! number of host seconds and prints its metrics. The end-to-end metrics
//! are measured with tracing off; `--trace 1` instead interleaves
//! untraced and traced runs and reports per-layer metrics, the tracing
//! overhead, and a Chrome trace of the benchmark-side spans.
//!
//! Every layer is measured from outside, through public calls only:
//! the host workloads drive [`cdna_system::SystemWorld`] through
//! [`cdna_sim::Simulation`] (optionally behind [`timing::TimingWorld`]),
//! the rack cell through [`cdna_rack::RackWorld::run_with_host_hook`],
//! and the verify workload through the fuzz, model and check entry
//! points. [`micro`] holds the component microbenchmarks.

pub mod host;
pub mod micro;
pub mod rack;
pub mod spans;
pub mod timing;
pub mod verify;

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use cdna_trace::json::JsonWriter;

/// The workloads this binary runs, all timed by `BENCHMARK.json`. The
/// rack cell runs inside the traced `cdna-host` run (see [`host::run`]).
pub const WORKLOADS: [&str; 3] = ["cdna-host", "softvirt-host", "verify"];

/// End-to-end metrics `(name, unit)`, reported with `--trace 0`.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("host_ms_per_sim_s", "ms"),
    ("unit_ms", "ms"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics `(name, unit)`, reported with `--trace 1`. A layer
/// the workload does not reach reads 0.
pub const PER_LAYER: [(&str, &str); 56] = [
    ("host_ms_per_sim_s_tail", "ms"),
    ("sim.engine_ns_per_event", "ns"),
    ("sim.events_per_sim_s", "1/s"),
    ("sim.events_per_s", "1/s"),
    ("sim.slices", "count"),
    ("sim.tail_pct", "%"),
    ("system.handler_share", "%"),
    ("system.cpu_dispatch.count", "count"),
    ("system.cpu_dispatch.ns", "ns"),
    ("system.phys_irq.count", "count"),
    ("system.phys_irq.ns", "ns"),
    ("system.emission_due.count", "count"),
    ("system.emission_due.ns", "ns"),
    ("system.wire_tx_done.count", "count"),
    ("system.wire_tx_done.ns", "ns"),
    ("system.wire_rx_arrive.count", "count"),
    ("system.wire_rx_arrive.ns", "ns"),
    ("system.peer_pump.count", "count"),
    ("system.peer_pump.ns", "ns"),
    ("system.build_ms", "ms"),
    ("system.prime_ms", "ms"),
    ("system.report_ms", "ms"),
    ("queue.push_pop_ns", "ns"),
    ("core.enqueue_tx_ns", "ns"),
    ("core.enqueue_rx_ns", "ns"),
    ("core.reap_ns", "ns"),
    ("core.reject_ns", "ns"),
    ("core.bitvec_ns", "ns"),
    ("ricenic.rx_frame_ns", "ns"),
    ("ricenic.rx_dropped", "count"),
    ("xen.hypercalls", "1/s"),
    ("xen.domain_switches", "1/s"),
    ("xen.page_flips", "1/s"),
    ("xen.guest_virqs", "1/s"),
    ("xen.driver_virqs", "1/s"),
    ("paper_error_pct", "%"),
    ("fuzz_ms_per_episode", "ms"),
    ("fuzz.episodes", "count"),
    ("fuzz.interactions", "count"),
    ("fuzz.attacker_faults", "count"),
    ("fuzz.coverage_points", "count"),
    ("model_us_per_schedule", "us"),
    ("model.schedules", "count"),
    ("model.events", "count"),
    ("check_ms_per_kloc", "ms"),
    ("check.kloc", "kloc"),
    ("check.static_ms", "ms"),
    ("check.analysis_ms", "ms"),
    ("rack_serial_ms_per_sim_s", "ms"),
    ("rack.round_us", "us"),
    ("rack.epochs", "count"),
    ("rack.parallel_speedup", "x"),
    ("rack.switch_forward_ns", "ns"),
    ("rack.switch.forwarded", "count"),
    ("par.round_ns", "ns"),
    ("trace.overhead_pct", "%"),
];

/// Metric values by name; see [`END_TO_END`] and [`PER_LAYER`].
pub type Values = BTreeMap<&'static str, f64>;

/// The correctness gate: counts attempted and failed runs, and pins the
/// simulated output of every keyed run so repeats must match exactly.
#[derive(Debug, Default)]
pub struct Gate {
    /// Runs attempted.
    pub attempted: u64,
    /// Runs that failed at least one check.
    pub failed: u64,
    /// The first few failure descriptions.
    pub reasons: Vec<String>,
    pinned: BTreeMap<String, String>,
}

impl Gate {
    /// Checks `output` against the first output recorded under `key`
    /// (recording it if this is the first), adding a problem on mismatch.
    pub fn pin(&mut self, problems: &mut Vec<String>, key: &str, output: &str) {
        match self.pinned.get(key) {
            None => {
                self.pinned.insert(key.to_string(), output.to_string());
            }
            Some(first) if first != output => {
                problems.push(format!(
                    "{key}: simulated output differs from the first run"
                ));
            }
            Some(_) => {}
        }
    }

    /// Adds the tally of `other`, a gate over different keys.
    pub fn absorb(&mut self, other: Gate) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for r in other.reasons {
            if self.reasons.len() < 8 {
                self.reasons.push(r);
            }
        }
    }

    /// Counts one attempted run, failed if `problems` is non-empty.
    pub fn record(&mut self, problems: Vec<String>) {
        self.attempted += 1;
        if !problems.is_empty() {
            self.failed += 1;
            for p in problems {
                if self.reasons.len() < 8 {
                    self.reasons.push(p);
                }
            }
        }
    }
}

/// Median of `values` (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The end-to-end centre of a set of host timings: their 10th
/// percentile. Other tenants of a shared machine only ever add time, in
/// bursts that move the median by 10–35% from run to run; the low
/// quantile tracks the code's own cost and repeats far more closely.
pub fn p10(values: &[f64]) -> f64 {
    quantile(values, 0.1)
}

/// Linear-interpolated quantile `q` in `[0, 1]` of `values` (0 when
/// empty).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Percentiles a tail is reported at, highest first.
const TAIL_PERCENTILES: [usize; 5] = [99, 95, 90, 75, 50];

/// The tail of `values`: the highest of [`TAIL_PERCENTILES`] that has at
/// least ten samples beyond it, as `(percentile, value)`. With fewer
/// than twenty samples no percentile qualifies and the maximum is
/// reported as percentile 100.
pub fn tail(values: &[f64]) -> (f64, f64) {
    for p in TAIL_PERCENTILES {
        if values.len() * (100 - p) >= 10 * 100 {
            return (p as f64, quantile(values, p as f64 / 100.0));
        }
    }
    (100.0, quantile(values, 1.0))
}

/// Peak resident set size of this process in MiB, from
/// `/proc/self/status` (0 where that file does not exist).
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// Milliseconds in `d`.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Closed-loop runner: calls `unit(i)` for `i = 0, 1, …` until `budget`
/// has elapsed and at least `min_units` units ran. Returns the number
/// of units run.
pub fn closed_loop(budget: Duration, min_units: u64, mut unit: impl FnMut(u64)) -> u64 {
    let start = Instant::now();
    let mut i = 0;
    while i < min_units || start.elapsed() < budget {
        unit(i);
        i += 1;
    }
    i
}

/// What one benchmark invocation measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// The correctness gate's tally.
    pub gate: Gate,
    /// Whether this was the traced run (per-layer metrics).
    pub traced: bool,
    /// Measured values by metric name.
    pub values: Values,
    /// Context lines for stderr (percentiles, slice counts, paths).
    pub notes: Vec<String>,
}

impl Outcome {
    /// The metric table this outcome reports.
    pub fn table(&self) -> &'static [(&'static str, &'static str)] {
        if self.traced {
            &PER_LAYER
        } else {
            &END_TO_END
        }
    }

    /// Failed runs as a share of runs attempted.
    pub fn failed_frac(&self) -> f64 {
        self.gate.failed as f64 / self.gate.attempted.max(1) as f64
    }
}

/// The result line: one JSON object with `correct`, `attempted`,
/// `failed` and `metrics`, the latter holding every metric of the
/// outcome's table (0 for a layer the workload does not reach).
pub fn result_json(out: &Outcome) -> String {
    let mut w = JsonWriter::new();
    w.begin_object();
    w.key("correct");
    w.boolean(out.gate.failed == 0 && out.gate.attempted > 0);
    w.key("attempted");
    w.number_u64(out.gate.attempted);
    w.key("failed");
    w.number_u64(out.gate.failed);
    w.key("metrics");
    w.begin_object();
    for (name, unit) in out.table() {
        w.key(name);
        w.begin_object();
        w.key("value");
        w.number_f64(out.values.get(name).copied().unwrap_or(0.0));
        w.key("unit");
        w.string(unit);
        w.end_object();
    }
    w.end_object();
    w.end_object();
    w.finish()
}

/// Whether `name` is a legal metric name (`[A-Za-z0-9_.-]+`).
pub fn valid_metric_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Runs `workload` for `seconds` host seconds. With `trace` the result
/// carries per-layer metrics instead of end-to-end ones. Returns `None`
/// for an unknown workload name.
pub fn run_workload(workload: &str, seed: u64, seconds: u64, trace: bool) -> Option<Outcome> {
    let budget = Duration::from_secs(seconds);
    let mut out = match workload {
        "cdna-host" => host::run(host::Io::Cdna, seed, budget, trace),
        "softvirt-host" => host::run(host::Io::Softvirt, seed, budget, trace),
        "verify" => verify::run(seed, budget, trace),
        _ => return None,
    };
    if trace {
        micro::measure(seed, &mut out.values);
    }
    Some(out)
}
