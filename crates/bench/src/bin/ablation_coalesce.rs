//! Ablation: the CDNA interrupt bit-vector coalescing interval
//! (DESIGN.md §7). Shorter intervals cut latency but raise the
//! interrupt-dispatch load in the hypervisor and guests. The sweep
//! points run concurrently on the worker pool (`--jobs N`).

use cdna_bench::header;
use cdna_core::DmaPolicy;
use cdna_sim::SimTime;
use cdna_system::{Direction, IoModel, TestbedConfig};

fn main() {
    cdna_bench::check_args();
    header("Ablation — CDNA interrupt coalescing interval (4 guests, transmit)");
    println!(
        "{:>10} | {:>12} {:>12} {:>14} {:>12}",
        "gap (us)", "Mb/s", "idle %", "guest int/s", "hyp %"
    );
    let gaps = [20u64, 50, 100, 146, 250, 500, 1000];
    let configs: Vec<_> = gaps
        .iter()
        .map(|&gap_us| {
            let mut cfg = TestbedConfig::new(
                IoModel::Cdna {
                    policy: DmaPolicy::Validated,
                },
                4,
                Direction::Transmit,
            );
            cfg.ricenic.coalesce_tx = SimTime::from_us(gap_us);
            cfg
        })
        .collect();
    let reports = cdna_bench::run_parallel(configs);
    for (gap_us, r) in gaps.iter().zip(&reports) {
        println!(
            "{:>10} | {:>12.0} {:>12.1} {:>14.0} {:>12.1}",
            gap_us,
            r.throughput_mbps,
            r.idle_pct(),
            r.guest_virq_per_s,
            r.profile.hypervisor_frac * 100.0
        );
    }
}
