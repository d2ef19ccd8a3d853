//! Differential proof that the parallel fan-out changes wall-clock
//! time and nothing else: the full 12-entry perf matrix run at `jobs=1`
//! (inline, on the calling thread) and on the worker pool must produce
//! byte-identical serialized reports, entry for entry.

use cdna_bench::{perf_suite, run_parallel_jobs};
use cdna_system::TestbedConfig;

fn configs() -> Vec<TestbedConfig> {
    perf_suite(true).into_iter().map(|e| e.cfg).collect()
}

#[test]
fn parallel_vs_sequential_bench_identical() {
    let sequential = run_parallel_jobs(configs(), 1);
    let parallel = run_parallel_jobs(configs(), 4);
    assert_eq!(sequential.len(), 12);
    assert_eq!(parallel.len(), 12);
    for (i, (s, p)) in sequential.iter().zip(&parallel).enumerate() {
        assert_eq!(
            s.to_json(),
            p.to_json(),
            "entry {i}: jobs=4 diverged from jobs=1"
        );
    }
}

#[test]
fn parallel_preserves_input_order_across_queue_kinds() {
    // Every run uses the timer wheel, the only runtime queue; jobs = 5
    // does not divide the entry count.
    let a = run_parallel_jobs(configs(), 1);
    let b = run_parallel_jobs(configs(), 5);
    assert_eq!(a.len(), b.len());
    for (i, (s, p)) in a.iter().zip(&b).enumerate() {
        assert_eq!(
            s.to_json(),
            p.to_json(),
            "entry {i}: jobs=5 diverged from jobs=1"
        );
    }
}
