//! The benchmark's own checks: the timing wrapper changes no simulated
//! output, metric names are legal and match `BENCHMARK.json`, and a
//! different seed changes the inputs while every correctness check
//! still passes.

use cdna_fuzz::run_campaign;
use cdna_rack::{RackConfig, RackWorkload};
use cdna_sim::SimTime;
use cdna_system::{run_experiment, Direction, SystemWorld};
use simbench::host::{self, Io};
use simbench::timing::TimingWorld;
use simbench::{
    rack, result_json, tail, valid_metric_name, verify, Outcome, END_TO_END, PER_LAYER,
};

#[test]
fn timing_world_reports_byte_identical_to_run_experiment() {
    for io in [Io::Cdna, Io::Softvirt] {
        for dir in [Direction::Transmit, Direction::Receive] {
            let cfg = host::config(io, dir, 42).quick();
            let expected = run_experiment(cfg.clone()).to_json();
            let timed = host::run_one::<TimingWorld>(cfg.clone(), host::SLICE);
            assert_eq!(
                timed.report.to_json(),
                expected,
                "{io:?} {dir:?} through TimingWorld"
            );
            let bare = host::run_one::<SystemWorld>(cfg, SimTime::from_ms(7));
            assert_eq!(
                bare.report.to_json(),
                expected,
                "{io:?} {dir:?} in 7 ms slices"
            );
            let handlers = timed
                .handlers
                .expect("TimingWorld gathers handler statistics");
            assert_eq!(handlers.counts.iter().sum::<u64>(), timed.events);
            assert!(handlers.samples.iter().sum::<u64>() > 0);
        }
    }
}

#[test]
fn metric_names_are_legal_and_listed_in_benchmark_json() {
    let manifest =
        std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
            .expect("BENCHMARK.json sits at the repository root");
    let mut seen = std::collections::BTreeSet::new();
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
        assert!(valid_metric_name(name), "{name}");
        assert!(seen.insert(*name), "{name} is listed twice");
        let entry = format!(r#"{{"name": "{name}", "unit": "{unit}""#);
        assert!(manifest.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    assert!(!valid_metric_name("bad name"));
    assert!(!valid_metric_name(""));
}

#[test]
fn result_line_carries_exactly_the_table() {
    let mut out = Outcome::default();
    out.gate.record(Vec::new());
    out.values.insert("setup_s", 0.5);
    let line = result_json(&out);
    assert!(line.starts_with(
        r#"{"correct":true,"attempted":1,"failed":0,"metrics":{"setup_s":{"value":0.5,"unit":"s"}"#
    ));
    for (name, _) in END_TO_END {
        assert!(line.contains(&format!(r#""{name}":"#)));
    }
    assert!(!line.contains("sim.engine_ns_per_event"));
    out.gate.record(vec!["broken".to_string()]);
    assert!(result_json(&out).starts_with(r#"{"correct":false,"attempted":2,"failed":1"#));
}

#[test]
fn tail_takes_the_highest_percentile_with_ten_samples_beyond() {
    let values: Vec<f64> = (1..=1000).map(f64::from).collect();
    assert_eq!(tail(&values).0, 99.0);
    assert_eq!(tail(&values[..100]).0, 90.0);
    assert_eq!(tail(&values[..10]), (100.0, 10.0));
}

#[test]
fn another_seed_changes_the_inputs_and_every_check_still_passes() {
    // Host workloads: the seed reaches the testbed configuration.
    let (a, b) = (
        host::config(Io::Cdna, Direction::Transmit, 1),
        host::config(Io::Cdna, Direction::Transmit, 2),
    );
    assert_ne!(a.seed, b.seed);
    for cfg in [a, b] {
        let run = host::run_one::<SystemWorld>(cfg.quick(), host::SLICE);
        assert_eq!(run.report.protection_faults, 0);
        assert!(run.report.throughput_mbps > 0.0);
    }

    // Rack: the seed reaches every host; jobs 1 and jobs 2 still agree.
    assert_ne!(
        rack::config(1).host_config(0).seed,
        rack::config(2).host_config(0).seed
    );
    for seed in [1, 2] {
        let mut cfg = RackConfig::new(2, 2, RackWorkload::XHost).with_seed(seed);
        cfg.warmup = SimTime::from_ms(1);
        cfg.measure = SimTime::from_ms(3);
        let one = rack::run_one(cfg.clone(), 1);
        let two = rack::run_one(cfg, 2);
        assert_eq!(one.report.to_json(), two.report.to_json());
        assert_eq!(one.report.total_faults(), 0);
        assert!(one.report.switch.forwarded > 0);
    }

    // Verify: the seed changes the fuzz campaign's episodes, which
    // still keep isolation; the model cells take the seed as well.
    let camps: Vec<_> = [1, 2]
        .map(|s| run_campaign(&verify::fuzz_config(s).quick()))
        .into_iter()
        .collect();
    assert_ne!(camps[0].report_json(), camps[1].report_json());
    assert!(camps.iter().all(|c| c.isolated()));
    assert!(verify::model_cells(7).iter().all(|c| c.cfg.seed == 7));
}

#[test]
fn verify_loads_the_files_the_checker_scans() {
    let root = verify::repo_root();
    let sources = verify::Sources::load(&root).expect("the tree is readable");
    let report = cdna_check::check_repo_jobs(&root, Some(1)).expect("the tree is readable");
    assert_eq!(sources.files.len(), report.files_scanned);
    assert_eq!(sources.manifests.len(), report.manifests_scanned);
    assert!(sources.kloc() > 1.0);
}
