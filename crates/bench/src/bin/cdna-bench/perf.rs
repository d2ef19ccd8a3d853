//! `cdna-bench perf` — wall-clock performance harness for the simulator
//! itself.
//!
//! Where every other target measures the *simulated* system (Mb/s,
//! interrupt rates), this one measures the *simulator*: how many
//! scheduler events per wall-clock second the engine sustains across a
//! fixed, seeded suite of testbed configs. Wall-clock time is legal
//! here, read at the two `#[expect]`ed timing sites below, and never
//! feeds back into simulated results: it reaches only the `wall_ms*`
//! fields and the rates derived from them (`events_per_sec`,
//! `ns_per_event`), which CI's `--jobs 1` vs `--jobs 2` comparison
//! leaves out.
//!
//! ```sh
//! cargo run --release -p cdna-bench -- perf            # full suite
//! cargo run --release -p cdna-bench -- perf --quick    # CI smoke
//! cargo run --release -p cdna-bench -- perf --jobs 8   # fan out
//! ```
//!
//! The suite is {CDNA, Xen-softvirt} × {TX, RX} × {1, 8, 24} guests,
//! all at the default seed (see [`cdna_bench::perf_suite`]). Results
//! land in `BENCH.json` at the repo root (override with `--out`). Every
//! field except the wall-clock derived ones (`wall_ms*`,
//! `events_per_sec`, `ns_per_event`) is deterministic run-to-run; the
//! harness re-runs each config `--reps` times, asserts the simulated
//! outcome is identical across reps, and reports the best wall time
//! plus the min/median/max spread so the perf trajectory is
//! noise-aware.
//!
//! Suite entries run concurrently on the `cdna-sim` worker pool
//! (`--jobs N`, default `min(cores, entries)`).
//! Per-entry wall times are measured inside the entry's worker —
//! meaningful for relative comparisons but contended at `jobs > 1` —
//! while `aggregate.wall_ms_parallel` is the whole suite's elapsed
//! wall-clock, the number the fan-out actually improves.
//!
//! The event queue is always the timer wheel; `BENCH.json` keeps naming
//! it in its `queue` field so the `cdna-bench/1` schema stays valid.

use cdna_bench::{perf_suite, PerfEntry};
use cdna_sim::{par, QueueKind};
use cdna_system::{run_experiment, Direction};
use cdna_trace::json::JsonWriter;

/// Bump when the `BENCH.json` layout changes shape (adding fields is
/// allowed; removing or renaming is not, without a bump).
const SCHEMA: &str = "cdna-bench/1";

/// Default repetitions per config; wall time is the best of these.
const DEFAULT_REPS: u32 = 3;

/// Flag synopsis for the usage text.
pub const FLAGS: &str = "[--quick] [--reps N] [--out PATH] [--stdout]";

struct Measured {
    entry: PerfEntry,
    seed: u64,
    events_processed: u64,
    throughput_mbps: f64,
    protection_faults: u64,
    sim_ms: f64,
    /// Best (minimum) wall time across reps — the historical headline.
    wall_ms: f64,
    /// Median wall time across reps.
    wall_ms_median: f64,
    /// Worst (maximum) wall time across reps.
    wall_ms_max: f64,
}

fn measure(entry: PerfEntry, reps: u32) -> Measured {
    let cfg = &entry.cfg;
    let sim_ms = (cfg.warmup + cfg.measure).as_ns() as f64 / 1e6;
    let seed = cfg.seed;

    let mut walls: Vec<f64> = Vec::with_capacity(reps as usize);
    let mut outcome: Option<(u64, f64, u64)> = None;
    for _ in 0..reps {
        #[expect(
            clippy::disallowed_methods,
            clippy::disallowed_types,
            reason = "perf measures host wall time per simulated run"
        )]
        let start = std::time::Instant::now();
        let report = run_experiment(cfg.clone());
        walls.push(start.elapsed().as_secs_f64() * 1e3);
        let this = (
            report.events_processed,
            report.throughput_mbps,
            report.protection_faults,
        );
        match &outcome {
            None => outcome = Some(this),
            Some(prev) => assert_eq!(
                *prev, this,
                "{}: simulated outcome varied across reps — determinism bug",
                entry.id
            ),
        }
    }
    let (events_processed, throughput_mbps, protection_faults) = outcome.expect("reps >= 1"); // loop runs at least once
    walls.sort_by(|a, b| a.total_cmp(b));
    let median = if walls.len() % 2 == 1 {
        walls[walls.len() / 2]
    } else {
        (walls[walls.len() / 2 - 1] + walls[walls.len() / 2]) / 2.0
    };
    Measured {
        seed,
        events_processed,
        throughput_mbps,
        protection_faults,
        sim_ms,
        wall_ms: walls[0],
        wall_ms_median: median,
        wall_ms_max: walls[walls.len() - 1],
        entry,
    }
}

fn write_json(
    results: &[Measured],
    quick: bool,
    reps: u32,
    jobs: usize,
    wall_ms_parallel: f64,
) -> String {
    let mut w = JsonWriter::with_capacity(4096);
    w.begin_object();
    w.key("schema");
    w.string(SCHEMA);
    w.key("suite");
    w.string(if quick { "quick" } else { "full" });
    w.key("queue");
    w.string(QueueKind::default().name());
    w.key("reps");
    w.number_u64(reps as u64);
    w.key("jobs");
    w.number_u64(jobs as u64);
    w.key("entries");
    w.begin_array();
    for m in results {
        w.begin_object();
        w.key("id");
        w.string(&m.entry.id);
        w.key("io");
        w.string(m.entry.io_name);
        w.key("direction");
        w.string(match m.entry.direction {
            Direction::Transmit => "tx",
            Direction::Receive => "rx",
        });
        w.key("guests");
        w.number_u64(m.entry.guests as u64);
        w.key("seed");
        w.number_u64(m.seed);
        w.key("events_processed");
        w.number_u64(m.events_processed);
        w.key("throughput_mbps");
        w.number_f64(m.throughput_mbps);
        w.key("protection_faults");
        w.number_u64(m.protection_faults);
        w.key("sim_ms");
        w.number_f64(m.sim_ms);
        w.key("wall_ms");
        w.number_f64(m.wall_ms);
        w.key("wall_ms_min");
        w.number_f64(m.wall_ms);
        w.key("wall_ms_median");
        w.number_f64(m.wall_ms_median);
        w.key("wall_ms_max");
        w.number_f64(m.wall_ms_max);
        w.key("events_per_sec");
        w.number_f64(m.events_processed as f64 / (m.wall_ms / 1e3));
        w.key("ns_per_event");
        w.number_f64(m.wall_ms * 1e6 / m.events_processed as f64);
        w.end_object();
    }
    w.end_array();

    // Aggregates: whole suite, plus the 24-guest subset the paper's
    // scalability story (and the perf acceptance bar) cares about.
    let all_events: u64 = results.iter().map(|m| m.events_processed).sum();
    let all_wall_ms: f64 = results.iter().map(|m| m.wall_ms).sum();
    let g24_events: u64 = results
        .iter()
        .filter(|m| m.entry.guests == 24)
        .map(|m| m.events_processed)
        .sum();
    let g24_wall_ms: f64 = results
        .iter()
        .filter(|m| m.entry.guests == 24)
        .map(|m| m.wall_ms)
        .sum();
    w.key("aggregate");
    w.begin_object();
    w.key("events_processed");
    w.number_u64(all_events);
    w.key("wall_ms");
    w.number_f64(all_wall_ms);
    w.key("wall_ms_parallel");
    w.number_f64(wall_ms_parallel);
    w.key("events_per_sec");
    w.number_f64(all_events as f64 / (all_wall_ms / 1e3));
    w.key("events_per_sec_24g");
    w.number_f64(g24_events as f64 / (g24_wall_ms / 1e3));
    w.end_object();
    w.end_object();
    w.finish()
}

/// Runs the suite on `jobs` workers and writes `BENCH.json`.
pub fn main(args: &[String], jobs: usize) -> Result<(), String> {
    let mut quick = false;
    let mut reps = DEFAULT_REPS;
    let mut out: Option<String> = None;
    let mut stdout = false;
    let mut flags = args.iter();
    while let Some(flag) = flags.next() {
        match flag.as_str() {
            "--quick" => quick = true,
            "--reps" => reps = crate::flag_value(flag, flags.next())?,
            "--out" => out = Some(crate::flag_value(flag, flags.next())?),
            "--stdout" => stdout = true,
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    if reps == 0 {
        return Err("`--reps` must be at least 1".to_string());
    }

    // Default output lands at the repo root regardless of the cwd
    // `cargo run` was invoked from.
    let out = out.unwrap_or_else(|| {
        format!("{}/../../BENCH.json", env!("CARGO_MANIFEST_DIR")) // bench artifact location
    });

    let entries = perf_suite(quick);
    let jobs = jobs.min(entries.len());
    eprintln!("running {} entries on {} worker(s)", entries.len(), jobs);
    #[expect(
        clippy::disallowed_methods,
        clippy::disallowed_types,
        reason = "the suite's elapsed wall time is what --jobs improves"
    )]
    let suite_start = std::time::Instant::now();
    let results = par::run_indexed(jobs, entries, |_, entry| measure(entry, reps));
    let wall_ms_parallel = suite_start.elapsed().as_secs_f64() * 1e3;
    for m in &results {
        eprintln!(
            "{:16} {:>9} events  {:>9.0} ev/s  {:>7.1} ns/ev  {:>8.2} ms wall (med {:.2}, max {:.2})",
            m.entry.id,
            m.events_processed,
            m.events_processed as f64 / (m.wall_ms / 1e3),
            m.wall_ms * 1e6 / m.events_processed as f64,
            m.wall_ms,
            m.wall_ms_median,
            m.wall_ms_max,
        );
    }
    eprintln!(
        "suite wall-clock {:.2} ms at jobs={} (sum of per-entry best walls {:.2} ms)",
        wall_ms_parallel,
        jobs,
        results.iter().map(|m| m.wall_ms).sum::<f64>(),
    );
    let json = write_json(&results, quick, reps, jobs, wall_ms_parallel);
    if stdout {
        println!("{json}");
    } else {
        std::fs::write(&out, format!("{json}\n")).unwrap_or_else(|e| {
            eprintln!("cannot write {out}: {e}");
            std::process::exit(1);
        });
        eprintln!("wrote {out}");
    }
    Ok(())
}
