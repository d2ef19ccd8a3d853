//! Absolute golden corpus: checked-in `to_json` reports for a fixed set
//! of seeded quick runs, compared byte for byte.
//!
//! The relative differentials (heap ≡ wheel, `--jobs 1` ≡ `--jobs N`)
//! cannot catch a refactor that shifts both sides together; these files
//! can. Any intended change to simulated results shows up as a reviewed
//! diff under `tests/golden/`. Regenerate with
//!
//! ```sh
//! CDNA_BLESS=1 cargo test --test golden
//! ```

use std::path::PathBuf;

use cdna_bench::{figure_configs, perf_suite};
use cdna_core::DmaPolicy;
use cdna_rack::{run_rack, RackConfig, RackWorkload};
use cdna_sim::par;
use cdna_system::{run_experiment, Direction, IoModel, NicKind, TestbedConfig};

/// The run that produces one golden.
#[allow(clippy::large_enum_variant)] // a couple dozen values, built once
enum Case {
    Testbed(TestbedConfig),
    Rack(RackConfig),
}

fn cases() -> Vec<(String, Case)> {
    let mut out: Vec<(String, Case)> = perf_suite(true)
        .into_iter()
        .map(|e| (format!("perf-{}", e.id), Case::Testbed(e.cfg)))
        .collect();
    for (name, io) in [
        (
            "native-intel",
            IoModel::Native {
                nic: NicKind::Intel,
            },
        ),
        (
            "xen-ricenic",
            IoModel::XenBridged {
                nic: NicKind::RiceNic,
            },
        ),
        (
            "cdna-iommu",
            IoModel::Cdna {
                policy: DmaPolicy::Iommu,
            },
        ),
        (
            "cdna-noprot",
            IoModel::Cdna {
                policy: DmaPolicy::Unprotected,
            },
        ),
    ] {
        for (dir_name, dir) in [("tx", Direction::Transmit), ("rx", Direction::Receive)] {
            out.push((
                format!("{name}-{dir_name}-4g"),
                Case::Testbed(TestbedConfig::new(io, 4, dir).quick()),
            ));
        }
    }
    out.push((
        "cdna-interguest-tx-8g".to_string(),
        Case::Testbed(
            TestbedConfig::new(
                IoModel::Cdna {
                    policy: DmaPolicy::Validated,
                },
                8,
                Direction::Transmit,
            )
            .with_inter_guest()
            .quick(),
        ),
    ));
    // Table 1: six NICs and twelve connections per guest, which drives
    // the multi-NIC loops of the native OS and the driver domain.
    for (name, io) in [
        (
            "native-intel",
            IoModel::Native {
                nic: NicKind::Intel,
            },
        ),
        (
            "xen-intel",
            IoModel::XenBridged {
                nic: NicKind::Intel,
            },
        ),
    ] {
        for (dir_name, dir) in [("tx", Direction::Transmit), ("rx", Direction::Receive)] {
            let mut cfg = TestbedConfig::new(io, 1, dir).with_nics(6).quick();
            cfg.conns_per_guest = 12;
            out.push((format!("table1-{name}-{dir_name}"), Case::Testbed(cfg)));
        }
    }
    // Single-guest rows of Tables 2/3 and 4 not already covered by the
    // perf entries (Xen/Intel and CDNA Validated at 1 guest).
    for (name, io) in [
        (
            "xen-ricenic",
            IoModel::XenBridged {
                nic: NicKind::RiceNic,
            },
        ),
        (
            "cdna-iommu",
            IoModel::Cdna {
                policy: DmaPolicy::Iommu,
            },
        ),
        (
            "cdna-noprot",
            IoModel::Cdna {
                policy: DmaPolicy::Unprotected,
            },
        ),
    ] {
        for (dir_name, dir) in [("tx", Direction::Transmit), ("rx", Direction::Receive)] {
            out.push((
                format!("{name}-{dir_name}-1g"),
                Case::Testbed(TestbedConfig::new(io, 1, dir).quick()),
            ));
        }
    }
    let cdna = IoModel::Cdna {
        policy: DmaPolicy::Validated,
    };
    out.push((
        "cdna-shadow-rx-4g".to_string(),
        Case::Testbed(
            TestbedConfig::new(cdna, 4, Direction::Receive)
                .with_shadow_check()
                .quick(),
        ),
    ));
    // One descriptor per hypercall: the validated receive-post loop
    // runs once per buffer.
    let mut unbatched = TestbedConfig::new(cdna, 2, Direction::Receive).quick();
    unbatched.hypercall_batch = 1;
    out.push(("cdna-hcbatch1-rx-2g".to_string(), Case::Testbed(unbatched)));
    // Figures 3/4 at the guest counts the perf entries do not cover.
    for (fig, dir) in [("fig3", Direction::Transmit), ("fig4", Direction::Receive)] {
        for cfg in figure_configs(dir) {
            if [1, 8, 24].contains(&cfg.guests) {
                continue;
            }
            let io = match cfg.io_model {
                IoModel::Cdna { .. } => "cdna",
                _ => "xen-intel",
            };
            out.push((
                format!("{fig}-{io}-{}g", cfg.guests),
                Case::Testbed(cfg.quick()),
            ));
        }
    }
    out.push((
        "rack-xhost-3h4g".to_string(),
        Case::Rack(RackConfig::new(3, 4, RackWorkload::XHost).quick()),
    ));
    out
}

fn render(case: Case) -> String {
    let mut json = match case {
        Case::Testbed(cfg) => run_experiment(cfg).to_json(),
        Case::Rack(cfg) => run_rack(cfg, 1).to_json(),
    };
    json.push('\n');
    json
}

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
}

#[test]
fn reports_match_checked_in_goldens() {
    let (names, runs): (Vec<String>, Vec<Case>) = cases().into_iter().unzip();
    let jobs = par::resolve_jobs(None, runs.len());
    let rendered = par::run_indexed(jobs, runs, |_, case| render(case));

    let dir = golden_dir();
    let bless = std::env::var_os("CDNA_BLESS").is_some_and(|v| v == "1");
    if bless {
        std::fs::create_dir_all(&dir).expect("create golden dir");
    }
    let mut stale = Vec::new();
    for (name, got) in names.iter().zip(&rendered) {
        let path = dir.join(format!("{name}.json"));
        if bless {
            std::fs::write(&path, got).expect("write golden");
            continue;
        }
        match std::fs::read_to_string(&path) {
            Ok(want) if want == *got => {}
            Ok(want) => stale.push(format!("{name}: differs\n  want {want}  got  {got}")),
            Err(e) => stale.push(format!("{name}: {e}")),
        }
    }
    assert!(
        stale.is_empty(),
        "{} golden(s) out of date (rerun with CDNA_BLESS=1 if intended):\n{}",
        stale.len(),
        stale.join("\n")
    );
}
