//! `simbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload in a closed loop for `--seconds` host seconds and
//! prints, as the last line of standard output, one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`. A readable table of
//! the same metrics goes to standard error. Bad arguments print usage
//! and exit 2; a failed correctness check shows as `"correct": false`.

use simbench::{result_json, run_workload, WORKLOADS};

fn usage() -> ! {
    eprintln!(
        "usage: simbench --workload <{}> --seed <n> --seconds <1-600> --trace <0|1>",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().unwrap_or_else(|_| usage())),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<u64>()
                        .ok()
                        .filter(|s| (1..=600).contains(s))
                        .unwrap_or_else(|| usage()),
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                })
            }
            _ => usage(),
        }
    }
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (workload, seed, seconds, trace)
    else {
        usage()
    };
    let Some(out) = run_workload(&workload, seed, seconds, trace) else {
        usage()
    };

    eprintln!(
        "workload {workload}, seed {seed}, {seconds} s, trace {}",
        trace as u8
    );
    for note in &out.notes {
        eprintln!("  {note}");
    }
    for (name, unit) in out.table() {
        let value = out.values.get(name).copied().unwrap_or(0.0);
        eprintln!("  {name:<32} {value:>16.4} {unit}");
    }
    eprintln!(
        "  {:<32} {:>16.4} ({} of {} runs failed)",
        "failed_frac",
        out.failed_frac(),
        out.gate.failed,
        out.gate.attempted
    );
    for reason in &out.gate.reasons {
        eprintln!("  FAILED: {reason}");
    }
    println!("{}", result_json(&out));
}
