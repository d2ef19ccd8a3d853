//! `cdna-fuzz`: deterministic coverage-guided adversarial campaign CLI.
//!
//! Runs malicious-guest personas against the guest-visible interface
//! and asserts the paper's isolation property after every episode: all
//! faults attribute to the attacker's own contexts and co-resident
//! victims are byte-identical to a no-attacker control run.
//!
//! ```text
//! cdna-fuzz [--seed N] [--episodes N] [--actions N] [--quick]
//!           [--jobs N] [--out FUZZ-REPORT.json] [--corpus PATH]
//!           [--stdout] [--min-coverage N]
//!           [--mutation NAME [--expect-caught]]
//! ```
//!
//! The report (`cdna-fuzz/1`) and corpus (`cdna-fuzz-corpus/1`) contain
//! no wall-clock or job-count fields: the same seed produces
//! byte-identical output for every `--jobs` value, which CI pins.
//!
//! Exit status: 0 on a fully isolated campaign (or, with
//! `--expect-caught`, when the seeded mutation WAS caught); 1 when an
//! isolation invariant breaks without a mutation, when an expected
//! mutation escapes, or when coverage falls below `--min-coverage`;
//! 2 on bad usage, `--jobs 0` included.

use std::process::ExitCode;

use cdna_fuzz::{run_campaign, CampaignConfig};
use cdna_mem::mutation::{self, MutationKind};
use cdna_sim::par;

/// Parsed command-line options.
struct Options {
    seed: u64,
    episodes: Option<u32>,
    actions: Option<u32>,
    quick: bool,
    jobs: Option<usize>,
    out: Option<String>,
    corpus: Option<String>,
    stdout: bool,
    min_coverage: usize,
    mutation: Option<MutationKind>,
    expect_caught: bool,
}

impl Options {
    fn default() -> Options {
        Options {
            seed: 7,
            episodes: None,
            actions: None,
            quick: false,
            jobs: None,
            out: None,
            corpus: None,
            stdout: false,
            min_coverage: 0,
            mutation: None,
            expect_caught: false,
        }
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: cdna-fuzz [--seed N] [--episodes N] [--actions N] [--quick] \
         [--jobs N] [--out PATH] [--corpus PATH] [--stdout] [--min-coverage N] \
         [--mutation NAME] [--expect-caught]"
    );
    let names: Vec<&str> = mutation::ALL.iter().map(|m| m.name()).collect();
    eprintln!("mutations: {}", names.join(", "));
    std::process::exit(2);
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
            "--seed" => opts.seed = value("--seed").parse().unwrap_or_else(|_| usage()),
            "--episodes" => {
                opts.episodes = Some(value("--episodes").parse().unwrap_or_else(|_| usage()))
            }
            "--actions" => {
                opts.actions = Some(value("--actions").parse().unwrap_or_else(|_| usage()))
            }
            "--quick" => opts.quick = true,
            "--jobs" => match value("--jobs").parse() {
                Ok(n) if n > 0 => opts.jobs = Some(n),
                _ => usage(),
            },
            "--out" => opts.out = Some(value("--out")),
            "--corpus" => opts.corpus = Some(value("--corpus")),
            "--stdout" => opts.stdout = true,
            "--min-coverage" => {
                opts.min_coverage = value("--min-coverage").parse().unwrap_or_else(|_| usage())
            }
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

fn main() -> ExitCode {
    let opts = parse_args();
    let mut cfg = CampaignConfig::new(opts.seed);
    if opts.quick {
        cfg = cfg.quick();
    }
    if let Some(n) = opts.episodes {
        cfg.episodes = n;
    }
    if let Some(n) = opts.actions {
        cfg.actions = n;
    }
    cfg.jobs = par::resolve_jobs(opts.jobs, cfg.episodes as usize);
    cfg.mutation = opts.mutation;
    eprintln!(
        "campaign: seed {} episodes {} x {} actions, {} worker(s){}",
        cfg.seed,
        cfg.episodes,
        cfg.actions,
        cfg.jobs,
        match cfg.mutation {
            Some(m) => format!(", mutation {}", m.name()),
            None => String::new(),
        }
    );

    let camp = run_campaign(&cfg);
    eprintln!(
        "{} episodes, {} interactions, {} coverage points, {} corpus entries",
        camp.episodes_run,
        camp.interactions,
        camp.coverage_points(),
        camp.corpus.len()
    );
    eprintln!(
        "isolation: breaches {} victim-faults {} misattributed {} control-faults {} \
         digest-mismatches {} evtchn-breaks {} (attacker faults {})",
        camp.breaches,
        camp.victim_faults,
        camp.misattributed,
        camp.control_faults,
        camp.digest_mismatches,
        camp.evtchn_breaks,
        camp.attacker_faults
    );

    let report = camp.report_json();
    if let Some(path) = &opts.out {
        if let Err(e) = std::fs::write(path, &report) {
            eprintln!("cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("report written to {path}");
    }
    if let Some(path) = &opts.corpus {
        if let Err(e) = std::fs::write(path, camp.corpus_json()) {
            eprintln!("cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("corpus written to {path}");
    }
    if opts.stdout || (opts.out.is_none() && opts.corpus.is_none()) {
        println!("{report}");
    }

    if camp.coverage_points() < opts.min_coverage {
        eprintln!(
            "ERROR: coverage {} below required {}",
            camp.coverage_points(),
            opts.min_coverage
        );
        return ExitCode::FAILURE;
    }
    let ok = if opts.expect_caught {
        if camp.caught {
            eprintln!("mutation caught, as expected");
        } else {
            eprintln!("ERROR: seeded mutation escaped the campaign");
        }
        camp.caught
    } else {
        if camp.caught {
            eprintln!("ERROR: isolation anomaly detected");
        }
        !camp.caught
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
