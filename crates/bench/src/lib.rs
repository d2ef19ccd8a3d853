#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

//! Benchmark harness regenerating every table and figure of the CDNA
//! paper, plus the paper's reported values for comparison.
//!
//! The `cdna-bench` binary runs one target per table, figure or
//! ablation (`cdna-bench table2`, `cdna-bench fig3`, …) and prints the
//! paper's value next to the simulated one; `perf` and `run` are its
//! simulator-speed harness and free-form runner. `EXPERIMENTS.md` in the
//! repository root records the outcomes.
//!
//! # Parallel fan-out
//!
//! Every target fans its configuration matrix out over the
//! [`cdna_sim::par`] worker pool through [`run_parallel_jobs`]. Each
//! simulation is single-threaded, seeded, and self-contained, so
//! parallelism changes wall-clock time and nothing else —
//! `tests/parallel.rs` proves `jobs=1` and `jobs=N` produce
//! byte-identical reports. The binary parses `--jobs N` once (else
//! `CDNA_JOBS`, else the core count) and passes the count down.

pub mod paper;

use cdna_core::DmaPolicy;
use cdna_sim::par;
use cdna_system::{run_experiment, Direction, IoModel, NicKind, RunReport, TestbedConfig};

/// Extracts the last `--jobs N` / `--jobs=N` occurrence from `args`,
/// ignoring every other argument. This is the one place the flag's
/// syntax lives; `cdna-bench` and `rack` resolve it here. A missing or
/// non-numeric value is an error, never silently "no flag".
pub fn jobs_flag_in(args: &[String]) -> Result<Option<usize>, String> {
    let parse = |v: Option<&str>| {
        let v = v.unwrap_or_default();
        v.parse()
            .map(Some)
            .map_err(|_| format!("--jobs expects a worker count, got `{v}`"))
    };
    let mut requested = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--jobs" {
            requested = parse(it.next().map(String::as_str))?;
        } else if let Some(v) = a.strip_prefix("--jobs=") {
            requested = parse(Some(v))?;
        }
    }
    Ok(requested)
}

/// Like [`jobs_flag_in`], but removes every `--jobs` occurrence (and
/// its value) from `args`, so a binary can strip the flag before
/// parsing the rest.
pub fn take_jobs_flag(args: &mut Vec<String>) -> Result<Option<usize>, String> {
    let requested = jobs_flag_in(args)?;
    let mut i = 0;
    while i < args.len() {
        if args[i] == "--jobs" {
            args.drain(i..(i + 2).min(args.len()));
        } else if args[i].starts_with("--jobs=") {
            args.remove(i);
        } else {
            i += 1;
        }
    }
    Ok(requested)
}

/// Runs several configurations across `jobs` workers (clamped to
/// `1..=configs.len()`; `jobs=1` runs inline on the caller's thread).
/// Each simulation is single-threaded and deterministic, so the worker
/// count affects wall-clock time, never results. Reports come back in
/// input order.
pub fn run_parallel_jobs(configs: Vec<TestbedConfig>, jobs: usize) -> Vec<RunReport> {
    par::run_indexed(jobs, configs, |_, cfg| run_experiment(cfg))
}

/// One entry of the `perf` target's wall-clock suite.
#[derive(Debug, Clone)]
pub struct PerfEntry {
    /// Stable identifier, e.g. `cdna-tx-24g`.
    pub id: String,
    /// IO model short name (`cdna` / `softvirt`).
    pub io_name: &'static str,
    /// Traffic direction.
    pub direction: Direction,
    /// Guest domain count.
    pub guests: u16,
    /// The fully-formed testbed configuration for this entry.
    pub cfg: TestbedConfig,
}

/// The `perf` suite: {CDNA, Xen-softvirt} × {TX, RX} × {1, 8, 24}
/// guests at the default seed. `quick` shrinks the simulated window for
/// CI smoke runs. Shared between the `perf` target, the golden corpus
/// and the `tests/parallel.rs` differential test so all of them measure
/// the same matrix.
pub fn perf_suite(quick: bool) -> Vec<PerfEntry> {
    let cdna = IoModel::Cdna {
        policy: DmaPolicy::Validated,
    };
    let soft = IoModel::XenBridged {
        nic: NicKind::Intel,
    };
    let mut entries = Vec::new();
    for (io_name, io, direction, dir_name) in [
        ("cdna", cdna, Direction::Transmit, "tx"),
        ("cdna", cdna, Direction::Receive, "rx"),
        ("softvirt", soft, Direction::Transmit, "tx"),
        ("softvirt", soft, Direction::Receive, "rx"),
    ] {
        for guests in [1u16, 8, 24] {
            let mut cfg = TestbedConfig::new(io, guests, direction);
            if quick {
                cfg = cfg.quick();
            }
            entries.push(PerfEntry {
                id: format!("{io_name}-{dir_name}-{guests}g"),
                io_name,
                direction,
                guests,
                cfg,
            });
        }
    }
    entries
}

/// The Figure 3 (transmit) or Figure 4 (receive) sweep: for each of
/// [`paper::FIG_GUESTS`], a Xen/Intel config followed by a CDNA
/// (validated) config. The `fig3`/`fig4` targets and the golden corpus
/// both build their runs here.
pub fn figure_configs(direction: Direction) -> Vec<TestbedConfig> {
    let xen = IoModel::XenBridged {
        nic: NicKind::Intel,
    };
    let cdna = IoModel::Cdna {
        policy: DmaPolicy::Validated,
    };
    paper::FIG_GUESTS
        .iter()
        .flat_map(|&g| [xen, cdna].map(|io| TestbedConfig::new(io, g, direction)))
        .collect()
}

/// Formats a paper-vs-simulated line.
pub fn compare_line(what: &str, paper: f64, simulated: f64) -> String {
    let ratio = if paper == 0.0 { 1.0 } else { simulated / paper };
    format!("{what:<44} paper {paper:>8.1}   sim {simulated:>8.1}   ratio {ratio:>5.2}")
}

/// Prints a standard experiment header.
pub fn header(title: &str) {
    println!("{}", "=".repeat(100));
    println!("{title}");
    println!("{}", "=".repeat(100));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jobs_flag_variants_parse() {
        let args = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        assert_eq!(jobs_flag_in(&args(&["--jobs", "4"])), Ok(Some(4)));
        assert_eq!(jobs_flag_in(&args(&["--jobs=7"])), Ok(Some(7)));
        assert_eq!(
            jobs_flag_in(&args(&["--quick", "--jobs", "2", "x"])),
            Ok(Some(2))
        );
        assert_eq!(
            jobs_flag_in(&args(&["--jobs", "2", "--jobs=3"])),
            Ok(Some(3))
        );
        assert_eq!(jobs_flag_in(&args(&["--quick"])), Ok(None));
    }

    #[test]
    fn malformed_jobs_values_are_errors() {
        let args = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        for bad in [
            &["--jobs", "zero"][..],
            &["--jobs=0x"],
            &["--jobs="],
            &["--quick", "--jobs"],
            &["--jobs", "-1"],
        ] {
            assert!(jobs_flag_in(&args(bad)).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn take_jobs_flag_strips_all_occurrences() {
        let mut args: Vec<String> = ["--quick", "--jobs", "2", "--out", "x", "--jobs=3"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert_eq!(take_jobs_flag(&mut args), Ok(Some(3)));
        assert_eq!(args, ["--quick", "--out", "x"]);
        assert_eq!(take_jobs_flag(&mut args), Ok(None));
    }

    #[test]
    fn compare_line_formats() {
        let s = compare_line("throughput", 1602.0, 1576.0);
        assert!(s.contains("1602.0"));
        assert!(s.contains("1576.0"));
        assert!(s.contains("0.98"));
    }

    #[test]
    fn perf_suite_is_the_twelve_entry_matrix() {
        let suite = perf_suite(true);
        assert_eq!(suite.len(), 12);
        let ids: Vec<&str> = suite.iter().map(|e| e.id.as_str()).collect();
        assert!(ids.contains(&"cdna-tx-1g"));
        assert!(ids.contains(&"softvirt-rx-24g"));
        // Stable order: the differential tests index into this.
        assert_eq!(ids[0], "cdna-tx-1g");
        assert_eq!(ids[11], "softvirt-rx-24g");
    }
}
