//! `cdna-rack` bench binary: runs a hosts × guests × workload matrix
//! of rack scenarios and writes `RACK-BENCH.json`.
//!
//! ```text
//! cargo run --release -p cdna-rack --bin rack                  # full matrix
//! cargo run --release -p cdna-rack --bin rack -- --quick       # CI window
//! cargo run --release -p cdna-rack --bin rack -- --jobs 8      # fan out
//! cargo run --release -p cdna-rack --bin rack -- \
//!     --hosts 16 --guests 24 --workload xhost --stdout         # one cell
//! ```
//!
//! Every scenario is deterministic for a given configuration and seed,
//! independent of `--jobs`: hosts advance in epoch-barrier lockstep and
//! the switch merge order is fixed (see the `cdna_rack` crate docs).
//! `--stdout` prints the single-scenario rack report JSON instead of
//! the suite file, which is what the CI equality guard diffs across
//! worker counts.

use cdna_bench::take_jobs_flag;
use cdna_rack::{run_rack, RackConfig, RackReport, RackWorkload};
use cdna_sim::par;
use cdna_trace::json::JsonWriter;

/// Bump when the `RACK-BENCH.json` layout changes shape.
const SCHEMA: &str = "cdna-rack-bench/1";

fn usage() -> ! {
    eprintln!(
        "usage: rack [--quick] [--jobs N] [--seed N] [--hosts N] [--guests N] \
         [--workload xhost|txpeer|rxpeer] [--out PATH] [--stdout]"
    );
    std::process::exit(2);
}

/// One cell of the rack matrix, measured.
struct Measured {
    report: RackReport,
    wall_ms: f64,
}

fn measure(cfg: RackConfig, jobs: usize) -> Measured {
    #[expect(
        clippy::disallowed_methods,
        clippy::disallowed_types,
        reason = "the rack suite reports host wall time per cell"
    )]
    let t0 = std::time::Instant::now();
    let report = run_rack(cfg, jobs);
    Measured {
        report,
        wall_ms: t0.elapsed().as_secs_f64() * 1e3,
    }
}

fn write_suite_json(results: &[Measured], quick: bool, jobs: usize) -> String {
    let mut w = JsonWriter::with_capacity(4096);
    w.begin_object();
    w.key("schema");
    w.string(SCHEMA);
    w.key("suite");
    w.string(if quick { "quick" } else { "full" });
    w.key("jobs");
    w.number_u64(jobs as u64);
    w.key("entries");
    w.begin_array();
    for m in results {
        let r = &m.report;
        w.begin_object();
        w.key("id");
        w.string(&format!("{}-{}h-{}g", r.workload, r.hosts, r.guests));
        w.key("hosts");
        w.number_u64(r.hosts as u64);
        w.key("guests_per_host");
        w.number_u64(r.guests as u64);
        w.key("workload");
        w.string(r.workload);
        w.key("seed");
        w.number_u64(r.seed);
        w.key("aggregate_mbps");
        w.number_f64(r.aggregate_mbps());
        w.key("per_host_mbps");
        w.begin_array();
        for h in &r.per_host {
            w.number_f64(h.throughput_mbps);
        }
        w.end_array();
        w.key("switch_forwarded");
        w.number_u64(r.switch.forwarded);
        w.key("total_events");
        w.number_u64(r.total_events());
        w.key("total_faults");
        w.number_u64(r.total_faults());
        w.key("wall_ms");
        w.number_f64(m.wall_ms);
        w.key("events_per_sec");
        w.number_f64(r.total_events() as f64 / (m.wall_ms / 1e3));
        w.end_object();
    }
    w.end_array();
    w.end_object();
    w.finish()
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let jobs_flag = take_jobs_flag(&mut args).unwrap_or_else(|e| {
        eprintln!("rack: {e}");
        usage()
    });
    let mut quick = false;
    let mut stdout = false;
    let mut out: Option<String> = None;
    let mut seed: u64 = 42;
    let mut hosts: Option<u8> = None;
    let mut guests: Option<u16> = None;
    let mut workload: Option<RackWorkload> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--quick" => {
                quick = true;
                i += 1;
            }
            "--stdout" => {
                stdout = true;
                i += 1;
            }
            "--seed" => {
                seed = args
                    .get(i + 1)
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage());
                i += 2;
            }
            "--hosts" => {
                hosts = Some(
                    args.get(i + 1)
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| usage()),
                );
                i += 2;
            }
            "--guests" => {
                guests = Some(
                    args.get(i + 1)
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| usage()),
                );
                i += 2;
            }
            "--workload" => {
                workload = Some(
                    args.get(i + 1)
                        .and_then(|v| RackWorkload::parse(v))
                        .unwrap_or_else(|| usage()),
                );
                i += 2;
            }
            "--out" => {
                out = Some(args.get(i + 1).cloned().unwrap_or_else(|| usage()));
                i += 2;
            }
            _ => usage(),
        }
    }

    let explicit_cell = hosts.is_some() || guests.is_some() || workload.is_some();
    let scenarios: Vec<RackConfig> = if explicit_cell {
        let mut cfg = RackConfig::new(
            hosts.unwrap_or(2),
            guests.unwrap_or(4),
            workload.unwrap_or(RackWorkload::XHost),
        )
        .with_seed(seed)
        .with_shadow_check();
        if quick {
            cfg = cfg.quick();
        }
        vec![cfg]
    } else {
        // The default matrix: cross-host traffic at increasing rack
        // sizes plus the local-peer scaling baseline.
        let mut v = Vec::new();
        for (h, g) in [(2u8, 4u16), (4, 8), (8, 24), (16, 24)] {
            for wl in [RackWorkload::XHost, RackWorkload::TxPeer] {
                let mut cfg = RackConfig::new(h, g, wl).with_seed(seed);
                if quick {
                    cfg = cfg.quick();
                }
                v.push(cfg);
            }
        }
        v
    };

    // Each rack's hosts are the parallel tasks, so the largest rack
    // bounds the useful worker count.
    let widest = scenarios.iter().map(|c| usize::from(c.hosts)).max();
    let jobs = par::resolve_jobs(jobs_flag, widest.unwrap_or(1));
    eprintln!(
        "running {} rack scenario(s) on {} worker(s)",
        scenarios.len(),
        jobs
    );

    // Scenarios run one after another; the parallelism lives inside
    // each rack's epoch loop, where every host is an independent task.
    let results: Vec<Measured> = scenarios
        .into_iter()
        .map(|cfg| {
            let m = measure(cfg, jobs);
            let r = &m.report;
            eprintln!(
                "  {:>7}-{:>2}h-{:>2}g  {:>9.1} Mb/s aggregate  {:>6} switched  {} faults  {:>8.1} ms",
                r.workload,
                r.hosts,
                r.guests,
                r.aggregate_mbps(),
                r.switch.forwarded,
                r.total_faults(),
                m.wall_ms,
            );
            m
        })
        .collect();

    if stdout && results.len() == 1 {
        println!("{}", results[0].report.to_json());
        return;
    }
    let json = write_suite_json(&results, quick, jobs);
    if stdout {
        println!("{json}");
        return;
    }
    let out = out.unwrap_or_else(|| {
        format!("{}/../../RACK-BENCH.json", env!("CARGO_MANIFEST_DIR")) // repo root
    });
    if let Err(e) = std::fs::write(&out, &json) {
        eprintln!("cannot write {out}: {e}");
        std::process::exit(1);
    }
    eprintln!("wrote {out}");
}
