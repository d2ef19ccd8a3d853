//! Ablation: scheduler batch limit (activation length) vs guest count
//! (DESIGN.md §7). Long activations amortize switch costs; short ones
//! reduce latency but thrash the cache. The sweep points run
//! concurrently on the worker pool (`--jobs N`).

use cdna_bench::header;
use cdna_core::DmaPolicy;
use cdna_system::{Direction, IoModel, TestbedConfig};

fn main() {
    cdna_bench::check_args();
    header("Ablation — activation batch limit (8 guests, transmit, CDNA)");
    println!(
        "{:>6} | {:>12} {:>12} {:>14}",
        "batch", "Mb/s", "idle %", "switches/s"
    );
    let limits = [8u32, 16, 32, 64, 128, 256];
    let configs: Vec<_> = limits
        .iter()
        .map(|&limit| {
            let mut cfg = TestbedConfig::new(
                IoModel::Cdna {
                    policy: DmaPolicy::Validated,
                },
                8,
                Direction::Transmit,
            );
            cfg.batch_limit = limit;
            cfg
        })
        .collect();
    let reports = cdna_bench::run_parallel(configs);
    for (limit, r) in limits.iter().zip(&reports) {
        println!(
            "{:>6} | {:>12.0} {:>12.1} {:>14.0}",
            limit,
            r.throughput_mbps,
            r.idle_pct(),
            r.domain_switches_per_s
        );
    }
}
