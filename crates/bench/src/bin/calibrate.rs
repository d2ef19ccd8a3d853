//! Calibration harness: runs every single-guest configuration and
//! prints simulated vs paper targets.

use cdna_core::DmaPolicy;
use cdna_system::{run_experiment, Direction, IoModel, NicKind, TestbedConfig};

fn main() {
    cdna_bench::check_args();
    let cases = [
        (
            IoModel::Native {
                nic: NicKind::Intel,
            },
            Direction::Transmit,
            6,
            5126.0,
        ),
        (
            IoModel::Native {
                nic: NicKind::Intel,
            },
            Direction::Receive,
            6,
            3629.0,
        ),
        (
            IoModel::XenBridged {
                nic: NicKind::Intel,
            },
            Direction::Transmit,
            2,
            1602.0,
        ),
        (
            IoModel::XenBridged {
                nic: NicKind::Intel,
            },
            Direction::Receive,
            2,
            1112.0,
        ),
        (
            IoModel::XenBridged {
                nic: NicKind::RiceNic,
            },
            Direction::Transmit,
            2,
            1674.0,
        ),
        (
            IoModel::XenBridged {
                nic: NicKind::RiceNic,
            },
            Direction::Receive,
            2,
            1075.0,
        ),
        (
            IoModel::Cdna {
                policy: DmaPolicy::Validated,
            },
            Direction::Transmit,
            2,
            1867.0,
        ),
        (
            IoModel::Cdna {
                policy: DmaPolicy::Validated,
            },
            Direction::Receive,
            2,
            1874.0,
        ),
        (
            IoModel::Cdna {
                policy: DmaPolicy::Unprotected,
            },
            Direction::Transmit,
            2,
            1867.0,
        ),
        (
            IoModel::Cdna {
                policy: DmaPolicy::Unprotected,
            },
            Direction::Receive,
            2,
            1874.0,
        ),
    ];
    for (io, dir, nics, target) in cases {
        let mut cfg = TestbedConfig::new(io, 1, dir).with_nics(nics);
        cfg.conns_per_guest = 2 * nics as u16;
        let r = run_experiment(cfg);
        println!(
            "{:<10?} {}  target {:>6.0}  {}",
            dir,
            r.table_row(),
            target,
            if (r.throughput_mbps / target - 1.0).abs() < 0.08 {
                "OK"
            } else {
                "MISS"
            }
        );
    }
}
