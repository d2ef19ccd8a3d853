//! `cdna-bench` — one entry point for every table, figure and ablation
//! of the paper, the simulator-speed harness, and the free-form runner.
//!
//! ```sh
//! cargo run --release -p cdna-bench -- table2             # paper vs sim
//! cargo run --release -p cdna-bench -- fig3 --jobs 4      # guest sweep
//! cargo run --release -p cdna-bench -- perf --quick       # BENCH.json
//! cargo run --release -p cdna-bench -- run xen-intel 24 rx --json
//! ```
//!
//! `--jobs N` (anywhere after the target; else the core count) sets
//! the worker pool every target fans its runs out over. It changes wall-clock time only: output is byte-identical at
//! any worker count. The paper targets take no other flag; `perf` and
//! `run` take their own (see `usage`). Bad input prints usage and exits
//! 2 before anything runs.

mod experiments;
mod perf;
mod run;

use cdna_bench::take_jobs_flag;
use cdna_sim::par;
use cdna_system::Direction::{Receive, Transmit};
use experiments::{figure, profile_table};

/// A paper/ablation target, given the worker count.
type Experiment = fn(usize);

/// The paper/ablation targets, in usage order. They take no flag
/// besides `--jobs`.
const EXPERIMENTS: [(&str, Experiment); 12] = [
    ("table1", experiments::table1),
    ("table2", |jobs| profile_table(Transmit, jobs)),
    ("table3", |jobs| profile_table(Receive, jobs)),
    ("table4", experiments::table4),
    ("fig3", |jobs| figure(Transmit, jobs)),
    ("fig4", |jobs| figure(Receive, jobs)),
    ("calibrate", experiments::calibrate),
    ("sensitivity", experiments::sensitivity),
    ("ablation-batch", experiments::ablation_batch),
    ("ablation-coalesce", experiments::ablation_coalesce),
    ("ablation-slice", experiments::ablation_slice),
    ("whatif-more-nics", experiments::whatif_more_nics),
];

/// A target that parses flags of its own; `Err` is a usage error.
type FlagsEntry = fn(&[String], usize) -> Result<(), String>;

/// The targets with flags of their own: name, flag synopsis, entry.
const WITH_FLAGS: [(&str, &str, FlagsEntry); 2] = [
    ("perf", perf::FLAGS, perf::main),
    ("run", run::FLAGS, run::main),
];

fn usage() -> String {
    let mut s = String::from("usage: cdna-bench <target> [--jobs N] [target flags]\ntargets:");
    for (name, _) in EXPERIMENTS {
        s.push_str(&format!(" {name}"));
    }
    for (name, flags, _) in WITH_FLAGS {
        s.push_str(&format!("\n  {name} {flags}"));
    }
    s
}

/// Runs `target` on `args`, the rest of the command line.
fn dispatch(target: Option<String>, mut args: Vec<String>) -> Result<(), String> {
    let target = target.ok_or("missing target")?;
    let jobs = par::resolve_jobs(take_jobs_flag(&mut args)?, usize::MAX);
    if let Some((_, run)) = EXPERIMENTS.iter().find(|(name, _)| *name == target) {
        return match args.first() {
            Some(other) => Err(format!("unknown argument `{other}`")),
            None => {
                run(jobs);
                Ok(())
            }
        };
    }
    match WITH_FLAGS.iter().find(|(name, ..)| *name == target) {
        Some((_, _, run)) => run(&args, jobs),
        None => Err(format!("unknown target `{target}`")),
    }
}

fn main() {
    let mut argv = std::env::args().skip(1);
    if let Err(e) = dispatch(argv.next(), argv.collect()) {
        eprintln!("cdna-bench: {e}\n{}", usage());
        std::process::exit(2);
    }
}

/// `value`, the argument after `flag`, parsed as `T`.
fn flag_value<T: std::str::FromStr>(flag: &str, value: Option<&String>) -> Result<T, String> {
    value
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| format!("`{flag}` expects a value"))
}
