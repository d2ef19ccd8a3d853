//! The single-host workloads, `cdna-host` and `softvirt-host`: 24
//! guests transmitting, then 24 guests receiving, each over the full
//! 200 ms warm-up plus 800 ms measurement window.
//!
//! One closed-loop unit is such a TX/RX pair. Each run advances in
//! fixed simulated slices; the host time of slice `i` of the TX run and
//! of the RX run, averaged, gives one sample of host milliseconds per
//! simulated second, so both directions weigh equally in every sample.

use std::time::{Duration, Instant};

use cdna_bench::paper;
use cdna_core::DmaPolicy;
use cdna_sim::{SimTime, Simulation};
use cdna_system::{
    report_from_world, Direction, IoModel, NicKind, RunReport, SystemWorld, TestbedConfig,
};

use crate::spans::Spans;
use crate::timing::{HandlerStats, Hosted, TimingWorld, COUNT_METRICS, NS_METRICS};
use crate::{closed_loop, median, ms, p10, tail, Gate, Outcome};

/// Which I/O architecture a host workload runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Io {
    /// CDNA on the RiceNIC with validated DMA protection.
    Cdna,
    /// Xen's bridged driver-domain path on the Intel NIC.
    Softvirt,
}

impl Io {
    /// The workload's name.
    pub fn workload(self) -> &'static str {
        match self {
            Io::Cdna => "cdna-host",
            Io::Softvirt => "softvirt-host",
        }
    }

    fn model(self) -> IoModel {
        match self {
            Io::Cdna => IoModel::Cdna {
                policy: DmaPolicy::Validated,
            },
            Io::Softvirt => IoModel::XenBridged {
                nic: NicKind::Intel,
            },
        }
    }

    /// The paper's 24-guest throughput for `dir`, in Mb/s.
    pub fn anchor_mbps(self, dir: Direction) -> f64 {
        match (self, dir) {
            (Io::Cdna, Direction::Transmit) => paper::FIG3_CDNA_TX,
            (Io::Cdna, Direction::Receive) => paper::FIG4_CDNA_RX,
            (Io::Softvirt, Direction::Transmit) => paper::FIG3_XEN_TX_24,
            (Io::Softvirt, Direction::Receive) => paper::FIG4_XEN_RX_24,
        }
    }
}

/// Guests per host.
pub const GUESTS: u16 = 24;

/// Simulated length of one timing slice.
pub const SLICE: SimTime = SimTime::from_ms(50);

/// Host time the traced `cdna-host` run gives the rack cell.
const RACK_BUDGET: Duration = Duration::from_secs(2);

/// Relative band CDNA throughput must stay in around the paper's value
/// (the band `tests/calibration.rs` holds CDNA to).
pub const CDNA_BAND: f64 = 0.05;

/// The workload's testbed configuration for `dir` at `seed`.
pub fn config(io: Io, dir: Direction, seed: u64) -> TestbedConfig {
    TestbedConfig::new(io.model(), GUESTS, dir).with_seed(seed)
}

/// One run of one configuration, timed phase by phase.
#[derive(Debug)]
pub struct HostRun {
    /// Host instants at start, after build, after prime, after the run
    /// and after the report.
    pub marks: [Instant; 5],
    /// Host milliseconds per simulated second, one per slice.
    pub slice_ms: Vec<f64>,
    /// Events processed.
    pub events: u64,
    /// Simulated seconds run.
    pub sim_s: f64,
    /// The run's report.
    pub report: RunReport,
    /// Handler statistics, when run through [`TimingWorld`].
    pub handlers: Option<HandlerStats>,
}

impl HostRun {
    /// Build plus prime: host time to the first simulated event.
    pub fn setup(&self) -> Duration {
        self.marks[2] - self.marks[0]
    }

    /// Build through report.
    pub fn total(&self) -> Duration {
        self.marks[4] - self.marks[0]
    }

    /// Host time between marks `i` and `i + 1`.
    pub fn phase(&self, i: usize) -> Duration {
        self.marks[i + 1] - self.marks[i]
    }
}

/// Builds, primes, runs in `slice`-long steps, and reports `cfg` with
/// the world wrapped as `W` — the same sequence of public calls as
/// [`cdna_system::run_experiment`].
pub fn run_one<W: Hosted>(cfg: TestbedConfig, slice: SimTime) -> HostRun {
    let start = Instant::now();
    let end = cfg.warmup + cfg.measure;
    let queue = cfg.queue;
    let mut sim = Simulation::with_queue(W::wrap(SystemWorld::build(cfg)), queue);
    let built = Instant::now();
    for (t, e) in sim.world_mut().system().prime() {
        sim.schedule(t, e);
    }
    let primed = Instant::now();
    let mut slice_ms = Vec::with_capacity((end.as_ns() / slice.as_ns().max(1)) as usize + 1);
    let (mut at, mut last) = (SimTime::ZERO, primed);
    while at < end {
        let next = (at + slice).min(end);
        sim.run_until(next);
        let now = Instant::now();
        slice_ms.push(ms(now - last) / (next - at).as_secs_f64());
        (at, last) = (next, now);
    }
    let ran = Instant::now();
    let events = sim.events_processed();
    let (mut world, handlers) = sim.into_world().finish();
    let report = report_from_world(&mut world, events, false);
    let reported = Instant::now();
    HostRun {
        marks: [start, built, primed, ran, reported],
        slice_ms,
        events,
        sim_s: end.as_secs_f64(),
        report,
        handlers,
    }
}

/// Runs `cfg` as one gated unit member: no protection fault, the same
/// report as every earlier run of `key`, and (for CDNA) throughput in
/// the calibration band.
fn gated<W: Hosted>(
    io: Io,
    cfg: TestbedConfig,
    gate: &mut Gate,
    problems: &mut Vec<String>,
) -> HostRun {
    let dir = cfg.direction;
    let run = run_one::<W>(cfg, SLICE);
    let key = format!("{io:?}-{dir:?}");
    if run.report.protection_faults != 0 {
        problems.push(format!(
            "{key}: {} protection faults",
            run.report.protection_faults
        ));
    }
    gate.pin(problems, &key, &run.report.to_json());
    let anchor = io.anchor_mbps(dir);
    if io == Io::Cdna && (run.report.throughput_mbps / anchor - 1.0).abs() > CDNA_BAND {
        problems.push(format!(
            "{key}: {:.1} Mb/s is outside ±5% of the paper's {anchor}",
            run.report.throughput_mbps
        ));
    }
    run
}

/// Span names per phase of a run.
const PHASES: [&str; 4] = ["build", "prime", "run", "report"];

/// Span names per handler kind.
const HANDLER_SPANS: [&str; 8] = [
    "handler.cpu_dispatch",
    "handler.phys_irq",
    "handler.emission_due",
    "handler.wire_tx_done",
    "handler.wire_rx_arrive",
    "handler.peer_pump",
    "handler.start_measure",
    "handler.stop_measure",
];

/// Records `run`'s spans under `parent`: the run, its phases, and its
/// sampled handler calls under the `run` phase.
fn record_spans(spans: &mut Spans, parent: u32, name: &'static str, run: &HostRun) {
    let id = spans.record(name, parent, run.marks[0], run.marks[4]);
    let mut run_phase = 0;
    for (i, phase) in PHASES.iter().enumerate() {
        let p = spans.record(phase, id, run.marks[i], run.marks[i + 1]);
        if i == 2 {
            run_phase = p;
        }
    }
    if let Some(h) = &run.handlers {
        for &(kind, start, end) in &h.spans {
            spans.record(HANDLER_SPANS[kind], run_phase, start, end);
        }
    }
}

/// Runs the `io` host workload for `budget`.
pub fn run(io: Io, seed: u64, budget: Duration, trace: bool) -> Outcome {
    let mut out = Outcome {
        traced: trace,
        ..Outcome::default()
    };
    let mut spans = Spans::new(200_000);
    let root = spans.open(io.workload(), 0, Instant::now());

    let mut slices: Vec<f64> = Vec::new();
    let mut setups: Vec<f64> = Vec::new();
    let mut units: Vec<f64> = Vec::new();
    let mut traced_units: Vec<f64> = Vec::new();
    let mut phases: [Vec<f64>; 4] = Default::default();
    let mut handlers = HandlerStats::default();
    let mut traced_events = 0u64;
    let (mut events, mut run_s, mut sim_s) = (0u64, 0.0, 0.0);
    let mut first: Option<[RunReport; 2]> = None;

    closed_loop(budget, if trace { 2 } else { 1 }, |i| {
        let mut problems = Vec::new();
        let traced_unit = trace && i % 2 == 1;
        let (tx_cfg, rx_cfg) = (
            config(io, Direction::Transmit, seed),
            config(io, Direction::Receive, seed),
        );
        let pair = if traced_unit {
            [
                gated::<TimingWorld>(io, tx_cfg, &mut out.gate, &mut problems),
                gated::<TimingWorld>(io, rx_cfg, &mut out.gate, &mut problems),
            ]
        } else {
            [
                gated::<SystemWorld>(io, tx_cfg, &mut out.gate, &mut problems),
                gated::<SystemWorld>(io, rx_cfg, &mut out.gate, &mut problems),
            ]
        };
        out.gate.record(problems);
        let unit_ms = ms(pair[0].total() + pair[1].total());
        if traced_unit {
            traced_units.push(unit_ms);
            let unit = spans.open("unit", root, pair[0].marks[0]);
            for (run, name) in pair.iter().zip(["run.tx", "run.rx"]) {
                record_spans(&mut spans, unit, name, run);
                if let Some(h) = &run.handlers {
                    handlers.absorb(h);
                }
                traced_events += run.events;
            }
            spans.close(unit, pair[1].marks[4]);
        } else {
            units.push(unit_ms);
            setups.push((pair[0].setup() + pair[1].setup()).as_secs_f64() / 2.0);
            slices.extend(
                pair[0]
                    .slice_ms
                    .iter()
                    .zip(&pair[1].slice_ms)
                    .map(|(a, b)| (a + b) / 2.0),
            );
            for run in &pair {
                for (p, v) in phases.iter_mut().enumerate() {
                    v.push(ms(run.phase(p)));
                }
                events += run.events;
                run_s += run.phase(2).as_secs_f64();
                sim_s += run.sim_s;
            }
        }
        if first.is_none() {
            let [tx, rx] = pair;
            first = Some([tx.report, rx.report]);
        }
    });
    spans.close(root, Instant::now());

    let reports = first.expect("closed_loop runs at least one unit");
    let paper_error_pct = reports
        .iter()
        .zip([Direction::Transmit, Direction::Receive])
        .map(|(r, dir)| (r.throughput_mbps / io.anchor_mbps(dir) - 1.0).abs() * 100.0)
        .sum::<f64>()
        / 2.0;
    let (tail_pct, tail_ms) = tail(&slices);
    out.notes.push(format!(
        "{} slices of {} ms simulated; tail is p{tail_pct}; {} TX/RX units; paper error {paper_error_pct:.3}%",
        slices.len(),
        SLICE.as_ns() / 1_000_000,
        units.len() + traced_units.len(),
    ));

    let v = &mut out.values;
    if !trace {
        v.insert("setup_s", p10(&setups));
        v.insert("host_ms_per_sim_s", p10(&slices));
        v.insert("unit_ms", p10(&units));
        v.insert("peak_rss_mib", crate::peak_rss_mib());
        return out;
    }

    let handler_ns = handlers.estimated_total_ns();
    let engine_ns = handlers.engine_ns() * traced_events as f64;
    v.insert(
        "sim.events_per_sim_s",
        events as f64 / sim_s.max(f64::MIN_POSITIVE),
    );
    v.insert(
        "sim.events_per_s",
        events as f64 / run_s.max(f64::MIN_POSITIVE),
    );
    v.insert("host_ms_per_sim_s_tail", tail_ms);
    v.insert("sim.slices", slices.len() as f64);
    v.insert("sim.tail_pct", tail_pct);
    v.insert("sim.engine_ns_per_event", handlers.engine_ns());
    v.insert(
        "system.handler_share",
        100.0 * handler_ns / (handler_ns + engine_ns).max(1.0),
    );
    let traced_pairs = traced_units.len().max(1) as f64;
    for (k, (count, ns)) in COUNT_METRICS.iter().zip(NS_METRICS).enumerate() {
        v.insert(count, handlers.counts[k] as f64 / traced_pairs);
        v.insert(ns, handlers.mean_ns(k));
    }
    v.insert("system.build_ms", median(&phases[0]));
    v.insert("system.prime_ms", median(&phases[1]));
    v.insert("system.report_ms", median(&phases[3]));
    let mean = |f: fn(&RunReport) -> f64| reports.iter().map(f).sum::<f64>() / 2.0;
    v.insert("xen.hypercalls", mean(|r| r.hypercalls_per_s));
    v.insert("xen.domain_switches", mean(|r| r.domain_switches_per_s));
    v.insert("xen.page_flips", mean(|r| r.page_flips_per_s));
    v.insert("xen.guest_virqs", mean(|r| r.guest_virq_per_s));
    v.insert("xen.driver_virqs", mean(|r| r.driver_virq_per_s));
    v.insert(
        "ricenic.rx_dropped",
        reports.iter().map(|r| r.rx_dropped as f64).sum(),
    );
    v.insert("paper_error_pct", paper_error_pct);
    if io == Io::Cdna {
        // The rack is too unsteady on a shared machine to time end to end
        // (see `rack`), so its layers ride on the traced CDNA run: the
        // rack's hosts are this workload's CDNA hosts.
        let (rack, gate) = crate::rack::run(seed, RACK_BUDGET, &mut spans, root);
        v.extend(rack);
        out.gate.absorb(gate);
    }
    v.insert(
        "trace.overhead_pct",
        100.0 * (median(&traced_units) / median(&units).max(f64::MIN_POSITIVE) - 1.0),
    );
    match spans.write(io.workload()) {
        Ok(path) => out
            .notes
            .push(format!("trace: {path} ({} spans)", spans.spans().len())),
        Err(e) => out.notes.push(format!("trace not written: {e}")),
    }
    out
}
