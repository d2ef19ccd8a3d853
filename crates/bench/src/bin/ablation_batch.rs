//! Ablation: how the CDNA enqueue-hypercall batch size affects
//! hypervisor overhead and idle time (DESIGN.md §7).
//!
//! Larger batches amortize hypercall entry/exit over more descriptors
//! but delay the doorbell; the paper's driver batches naturally at the
//! interrupt cadence (~10-12 descriptors). The sweep points run
//! concurrently on the worker pool (`--jobs N`).

use cdna_bench::header;
use cdna_core::DmaPolicy;
use cdna_system::{Direction, IoModel, TestbedConfig};

fn main() {
    cdna_bench::check_args();
    header("Ablation — CDNA hypercall batch size (1 guest, transmit)");
    println!(
        "{:>6} | {:>12} {:>12} {:>14} {:>12}",
        "batch", "Mb/s", "idle %", "hypercalls/s", "hyp %"
    );
    let batches = [1u32, 2, 4, 8, 10, 16, 32, 64];
    let configs: Vec<_> = batches
        .iter()
        .map(|&batch| {
            let mut cfg = TestbedConfig::new(
                IoModel::Cdna {
                    policy: DmaPolicy::Validated,
                },
                1,
                Direction::Transmit,
            );
            cfg.hypercall_batch = batch;
            cfg
        })
        .collect();
    let reports = cdna_bench::run_parallel(configs);
    for (batch, r) in batches.iter().zip(&reports) {
        println!(
            "{:>6} | {:>12.0} {:>12.1} {:>14.0} {:>12.1}",
            batch,
            r.throughput_mbps,
            r.idle_pct(),
            r.hypercalls_per_s,
            r.profile.hypervisor_frac * 100.0
        );
    }
}
