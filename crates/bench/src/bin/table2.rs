//! Regenerates Table 2: transmit performance for a single guest with
//! two NICs — Xen/Intel, Xen/RiceNIC, and CDNA/RiceNIC — including the
//! six-way execution profile and interrupt rates. Rows run concurrently
//! on the worker pool (`--jobs N`).

use cdna_bench::{compare_line, header, paper};
use cdna_core::DmaPolicy;
use cdna_system::{Direction, IoModel, NicKind, TestbedConfig};

fn main() {
    cdna_bench::check_args();
    header("Table 2 — single-guest transmit, 2 NICs");
    let ios = [
        IoModel::XenBridged {
            nic: NicKind::Intel,
        },
        IoModel::XenBridged {
            nic: NicKind::RiceNic,
        },
        IoModel::Cdna {
            policy: DmaPolicy::Validated,
        },
    ];
    let configs: Vec<_> = ios
        .iter()
        .map(|io| TestbedConfig::new(*io, 1, Direction::Transmit))
        .collect();
    let reports = cdna_bench::run_parallel(configs);
    for (r, row) in reports.iter().zip(paper::TABLE2_TX.iter()) {
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
                "driver domain OS (%)",
                row.driver_os * 100.0,
                r.profile.driver_kernel_frac * 100.0
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
            compare_line("driver interrupts/s", row.driver_int, r.driver_virq_per_s)
        );
        println!(
            "{}",
            compare_line("guest interrupts/s", row.guest_int, r.guest_virq_per_s)
        );
        assert_eq!(r.protection_faults, 0);
    }
}
