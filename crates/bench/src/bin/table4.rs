//! Regenerates Table 4: CDNA transmit and receive with and without DMA
//! memory protection (the IOMMU upper-bound ablation). Rows run
//! concurrently on the worker pool (`--jobs N`).

use cdna_bench::{compare_line, header, paper};
use cdna_core::DmaPolicy;
use cdna_system::{Direction, IoModel, TestbedConfig};

fn main() {
    cdna_bench::check_args();
    header("Table 4 — CDNA with vs without DMA memory protection");
    let cases = [
        (Direction::Transmit, DmaPolicy::Validated, &paper::TABLE4[0]),
        (
            Direction::Transmit,
            DmaPolicy::Unprotected,
            &paper::TABLE4[1],
        ),
        (Direction::Receive, DmaPolicy::Validated, &paper::TABLE4[2]),
        (
            Direction::Receive,
            DmaPolicy::Unprotected,
            &paper::TABLE4[3],
        ),
    ];
    let configs: Vec<_> = cases
        .iter()
        .map(|&(dir, policy, _)| TestbedConfig::new(IoModel::Cdna { policy }, 1, dir))
        .collect();
    let reports = cdna_bench::run_parallel(configs);
    let mut idle = Vec::new();
    for (r, (_, _, row)) in reports.iter().zip(cases) {
        println!("--- {} ---", row.label);
        println!(
            "{}",
            compare_line("throughput (Mb/s)", row.mbps, r.throughput_mbps)
        );
        println!(
            "{}",
            compare_line(
                "hypervisor (%)",
                row.hyp * 100.0,
                r.profile.hypervisor_frac * 100.0
            )
        );
        println!(
            "{}",
            compare_line(
                "guest OS (%)",
                row.guest_os * 100.0,
                r.profile.guest_kernel_frac * 100.0
            )
        );
        println!(
            "{}",
            compare_line("idle (%)", row.idle * 100.0, r.profile.idle_frac * 100.0)
        );
        println!(
            "{}",
            compare_line("guest interrupts/s", row.guest_int, r.guest_virq_per_s)
        );
        idle.push(r.profile.idle_frac);
    }
    println!();
    println!(
        "Disabling protection frees ~{:.1}% (TX) / {:.1}% (RX) of the CPU (paper: ~9.6% / ~9.3%).",
        (idle[1] - idle[0]) * 100.0,
        (idle[3] - idle[2]) * 100.0
    );
}
