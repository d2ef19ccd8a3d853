//! Regenerates Figure 4: aggregate receive throughput for Xen/Intel and
//! CDNA/RiceNIC as the number of guests grows from 1 to 24, with CDNA
//! idle time annotations.

use cdna_bench::{header, paper};
use cdna_core::DmaPolicy;
use cdna_system::{Direction, IoModel, NicKind, TestbedConfig};

fn main() {
    cdna_bench::check_args();
    header("Figure 4 — receive throughput vs guest count (2 NICs)");
    println!(
        "{:>6} | {:>13} {:>13} | {:>13} {:>12} {:>12}",
        "guests",
        "Xen RX (Mb/s)",
        "CDNA RX (Mb/s)",
        "CDNA idle sim",
        "CDNA idle paper",
        "Xen idle sim"
    );
    let configs: Vec<_> = paper::FIG_GUESTS
        .iter()
        .flat_map(|&g| {
            [
                TestbedConfig::new(
                    IoModel::XenBridged {
                        nic: NicKind::Intel,
                    },
                    g,
                    Direction::Receive,
                ),
                TestbedConfig::new(
                    IoModel::Cdna {
                        policy: DmaPolicy::Validated,
                    },
                    g,
                    Direction::Receive,
                ),
            ]
        })
        .collect();
    let reports = cdna_bench::run_parallel(configs);
    let mut xen24 = 0.0;
    let mut cdna24 = 0.0;
    for (i, &g) in paper::FIG_GUESTS.iter().enumerate() {
        let xen = &reports[i * 2];
        let cdna = &reports[i * 2 + 1];
        println!(
            "{:>6} | {:>13.0} {:>13.0} | {:>12.1}% {:>11.1}% {:>11.1}%",
            g,
            xen.throughput_mbps,
            cdna.throughput_mbps,
            cdna.idle_pct(),
            paper::FIG4_CDNA_IDLE_PCT[i],
            xen.idle_pct(),
        );
        if g == 24 {
            xen24 = xen.throughput_mbps;
            cdna24 = cdna.throughput_mbps;
        }
    }
    println!();
    println!(
        "At 24 guests CDNA receives {:.2}x Xen's aggregate bandwidth (paper: {:.1}x).",
        cdna24 / xen24,
        paper::FACTOR_RX_24
    );
}
