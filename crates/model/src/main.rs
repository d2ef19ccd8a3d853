//! `cdna-model`: bounded exhaustive schedule exploration CLI.
//!
//! Explores the standard configuration matrix ({CDNA, Xen-bridged} ×
//! {2, 3 guests} × {tx, rx}) depth-first over same-timestamp event
//! permutations and checks the invariant suite after every schedule.
//!
//! ```text
//! cdna-model [--out report.json] [--window-us N] [--per-config N]
//!            [--max-depth N] [--tie-window-ns N] [--jobs N]
//!            [--mutation NAME [--expect-caught]] [--profile]
//! ```
//!
//! `--jobs N` (default: one worker per core, at most one per
//! configuration) explores that many configurations at once on the
//! `cdna-sim` worker pool. Each configuration's tree is still searched
//! sequentially, so the report is byte-identical at any worker count
//! apart from `bounds.jobs`.
//! With `--expect-caught` every configuration runs, and the report
//! ends at the first one that caught the mutation.
//!
//! `--tie-window-ns N` (default 2000) treats pending events within `N`
//! ns of the earliest as tied; 0 forks exact ties only.
//!
//! `--profile` times every worker's explorer phases (build, snapshot
//! clone, resume, tail events, the shadow sync's sequence replay, fold
//! and two audits, invariants) and prints the host time per phase,
//! summed over the workers, to stderr. The report does not change.
//!
//! `--window-us`, `--per-config`, `--max-depth` and `--jobs` must be
//! positive: a zero window, schedule budget or decision depth explores
//! nothing (beyond the default schedule) and would report clean, and
//! zero workers run nothing.
//!
//! Exit status: 0 on a clean exploration (or, with `--expect-caught`,
//! when the seeded mutation WAS caught); 1 when an invariant is
//! violated without a mutation, when an expected mutation escapes, or
//! when the report cannot be written; 2 on bad usage.

use std::process::ExitCode;

use cdna_mem::mutation::{self, MutationKind};
use cdna_model::{default_matrix, explore_matrix, MatrixReport};
use cdna_sim::par;
use cdna_trace::json::JsonWriter;

/// Parsed command-line options.
struct Options {
    out: Option<String>,
    window_us: u64,
    per_config: u64,
    max_depth: usize,
    tie_window_ns: u64,
    jobs: Option<usize>,
    mutation: Option<MutationKind>,
    expect_caught: bool,
    profile: bool,
}

impl Options {
    fn default() -> Options {
        Options {
            out: None,
            window_us: 1000,
            per_config: 1600,
            max_depth: 64,
            tie_window_ns: 2000,
            jobs: None,
            mutation: None,
            expect_caught: false,
            profile: false,
        }
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: cdna-model [--out PATH] [--window-us N] [--per-config N] \
         [--max-depth N] [--tie-window-ns N] [--jobs N] [--mutation NAME] [--expect-caught] \
         [--profile]"
    );
    eprintln!("mutations: {}", names().join(", "));
    std::process::exit(2);
}

fn names() -> Vec<&'static str> {
    mutation::ALL.iter().map(|m| m.name()).collect()
}

/// Parses a count that must be at least 1, or exits with usage.
fn positive(v: String) -> u64 {
    match v.parse() {
        Ok(n) if n > 0 => n,
        _ => usage(),
    }
}

fn parse_args() -> Options {
    let mut opts = Options::default();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| {
            args.next().unwrap_or_else(|| {
                eprintln!("{name} requires a value");
                usage()
            })
        };
        match arg.as_str() {
            "--out" => opts.out = Some(value("--out")),
            "--window-us" => opts.window_us = positive(value("--window-us")),
            "--per-config" => opts.per_config = positive(value("--per-config")),
            "--max-depth" => opts.max_depth = positive(value("--max-depth")) as usize,
            "--tie-window-ns" => {
                opts.tie_window_ns = value("--tie-window-ns").parse().unwrap_or_else(|_| usage())
            }
            "--jobs" => opts.jobs = Some(positive(value("--jobs")) as usize),
            "--mutation" => {
                let name = value("--mutation");
                match MutationKind::parse(&name) {
                    Some(m) => opts.mutation = Some(m),
                    None => {
                        eprintln!("unknown mutation {name:?}");
                        usage();
                    }
                }
            }
            "--expect-caught" => opts.expect_caught = true,
            "--profile" => opts.profile = true,
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown flag {other:?}");
                usage();
            }
        }
    }
    if opts.expect_caught && opts.mutation.is_none() {
        eprintln!("--expect-caught requires --mutation");
        usage();
    }
    opts
}

/// `--profile`: host time per explorer phase (`cdna_system::phase`),
/// summed over every worker, read through the hook each worker
/// inherits.
#[expect(
    clippy::disallowed_types,
    clippy::disallowed_methods,
    reason = "--profile reports host wall time per phase, on stderr only"
)]
mod profile {
    use std::cell::Cell;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::time::Instant;

    use cdna_system::phase::{self, Phase, ALL};

    /// Slots for every phase, [`Phase::Idle`] included.
    const SLOTS: usize = ALL.len() + 1;

    /// Nanoseconds spent in each phase, indexed by `Phase as usize`.
    static TOTALS: [AtomicU64; SLOTS] = [const { AtomicU64::new(0) }; SLOTS];

    thread_local! {
        /// The phase this thread is in, and since when.
        static CLOCK: Cell<(Phase, Option<Instant>)> = const { Cell::new((Phase::Idle, None)) };
    }

    /// The hook: charges the time since the thread's last mark to the
    /// phase that mark entered.
    fn mark(next: Phase) -> Phase {
        let now = Instant::now();
        let (prev, since) = CLOCK.replace((next, Some(now)));
        if let Some(since) = since {
            let ns = u64::try_from((now - since).as_nanos()).unwrap_or(u64::MAX);
            TOTALS[prev as usize].fetch_add(ns, Ordering::Relaxed);
        }
        prev
    }

    /// Installs the timer on this thread; `explore_matrix` hands it on
    /// to its workers.
    pub fn install() {
        phase::set_hook(Some(mark));
    }

    /// Prints each phase's total and share to stderr.
    pub fn report(jobs: usize) {
        let ms = |p: Phase| TOTALS[p as usize].load(Ordering::Relaxed) as f64 / 1e6;
        let total: f64 = ALL.into_iter().map(ms).sum();
        eprintln!("profile: host ms per phase, summed over {jobs} worker(s)");
        for p in ALL {
            let share = 100.0 * ms(p) / total.max(f64::MIN_POSITIVE);
            eprintln!("  {:14} {:>10.1} ms {:>6.1}%", p.name(), ms(p), share);
        }
        eprintln!("  {:14} {:>10.1} ms", "total", total);
    }
}

/// Serializes the matrix report. Schema is versioned so CI consumers
/// can assert compatibility.
fn render(report: &MatrixReport, opts: &Options, jobs: usize) -> String {
    let mut w = JsonWriter::with_capacity(4096);
    w.begin_object();
    w.key("schema_version");
    w.number_u64(1);
    w.key("tool");
    w.string("cdna-model");
    w.key("mutation");
    match opts.mutation {
        Some(m) => w.string(m.name()),
        None => w.null(),
    }
    w.key("bounds");
    w.begin_object();
    w.key("window_us");
    w.number_u64(opts.window_us);
    w.key("per_config_schedules");
    w.number_u64(opts.per_config);
    w.key("max_depth");
    w.number_u64(opts.max_depth as u64);
    w.key("tie_window_ns");
    w.number_u64(opts.tie_window_ns);
    w.key("jobs");
    w.number_u64(jobs as u64);
    w.end_object();
    w.key("matrix");
    w.begin_array();
    for run in &report.runs {
        w.begin_object();
        w.key("label");
        w.string(&run.label);
        w.key("schedules");
        w.number_u64(run.schedules);
        w.key("events");
        w.number_u64(run.events);
        w.key("max_decisions");
        w.number_u64(run.max_decisions as u64);
        w.key("violations");
        w.number_u64(run.violations);
        w.key("exhausted");
        w.boolean(run.exhausted);
        w.key("depth_truncated");
        w.boolean(run.depth_truncated);
        w.key("sample");
        w.begin_array();
        for s in &run.sample {
            w.string(s);
        }
        w.end_array();
        w.end_object();
    }
    w.end_array();
    w.key("totals");
    w.begin_object();
    w.key("schedules");
    w.number_u64(report.total_schedules());
    w.key("events");
    w.number_u64(report.total_events());
    w.key("violations");
    w.number_u64(report.total_violations());
    w.key("clean");
    w.boolean(report.clean());
    w.end_object();
    w.end_object();
    w.finish()
}

fn main() -> ExitCode {
    let opts = parse_args();
    mutation::set_active(opts.mutation);
    let matrix = default_matrix(
        opts.window_us,
        opts.per_config,
        opts.max_depth,
        opts.tie_window_ns,
    );
    let jobs = par::resolve_jobs(opts.jobs, matrix.len());
    eprintln!(
        "exploring {} configurations on {jobs} worker(s)",
        matrix.len()
    );
    if opts.profile {
        profile::install();
    }
    let mut report = explore_matrix(matrix, jobs);
    for run in &report.runs {
        eprintln!(
            "{:24} {:>7} schedules  {:>9} events  depth<={:<3} {} violations{}{}",
            run.label,
            run.schedules,
            run.events,
            run.max_decisions,
            run.violations,
            if run.exhausted { "  (exhausted)" } else { "" },
            if run.depth_truncated {
                "  (depth-truncated)"
            } else {
                ""
            },
        );
    }
    if opts.profile {
        profile::report(jobs);
    }
    // Calibration runs only need one catching config: the report ends
    // at the first.
    if opts.expect_caught {
        if let Some(first) = report.runs.iter().position(|r| r.violations > 0) {
            report.runs.truncate(first + 1);
        }
    }
    mutation::set_active(None);

    let json = render(&report, &opts, jobs);
    if let Some(path) = &opts.out {
        if let Err(e) = std::fs::write(path, &json) {
            eprintln!("cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("report written to {path}");
    } else {
        println!("{json}");
    }

    let ok = if opts.mutation.is_some() && opts.expect_caught {
        let caught = !report.clean();
        if caught {
            eprintln!("mutation caught, as expected");
        } else {
            eprintln!("ERROR: seeded mutation escaped the explored schedules");
        }
        caught
    } else {
        if !report.clean() {
            for run in &report.runs {
                for s in &run.sample {
                    eprintln!("violation: {s}");
                }
            }
        }
        report.clean()
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
