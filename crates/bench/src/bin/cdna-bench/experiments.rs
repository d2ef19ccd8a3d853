//! The paper's tables and figures, the calibration and sensitivity
//! runs, the ablations, and the §5.4 what-if. Each target builds its
//! configuration matrix, fans it out over `jobs` workers, and prints the
//! paper's value next to the simulated one.

use cdna_bench::paper::{self, ProfileRow};
use cdna_bench::{compare_line, figure_configs, header, run_parallel_jobs};
use cdna_core::DmaPolicy;
use cdna_sim::SimTime;
use cdna_system::{Direction, IoModel, NicKind, RunReport, TestbedConfig};

const NATIVE: IoModel = IoModel::Native {
    nic: NicKind::Intel,
};
const XEN_INTEL: IoModel = IoModel::XenBridged {
    nic: NicKind::Intel,
};
const CDNA: IoModel = IoModel::Cdna {
    policy: DmaPolicy::Validated,
};
const CDNA_NOPROT: IoModel = IoModel::Cdna {
    policy: DmaPolicy::Unprotected,
};
/// The configurations of Tables 2 and 3, in the paper's row order.
const PROFILE_IOS: [IoModel; 3] = [
    XEN_INTEL,
    IoModel::XenBridged {
        nic: NicKind::RiceNic,
    },
    CDNA,
];
const DIRECTIONS: [(Direction, &str); 2] =
    [(Direction::Transmit, "TX"), (Direction::Receive, "RX")];

/// Table 1: native Linux vs a Xen guest on six NICs.
pub fn table1(jobs: usize) {
    header("Table 1 — native Linux vs Xen guest (6 NICs)");
    let rows = [
        (
            "Native Linux",
            NATIVE,
            paper::TABLE1_NATIVE_TX,
            paper::TABLE1_NATIVE_RX,
        ),
        (
            "Xen guest",
            XEN_INTEL,
            paper::TABLE1_XEN_TX,
            paper::TABLE1_XEN_RX,
        ),
    ];
    let mut cases = Vec::new();
    for (name, io, tx, rx) in rows {
        for ((dir, d), target) in DIRECTIONS.into_iter().zip([tx, rx]) {
            cases.push((format!("{name:<14}{d}"), io, dir, target));
        }
    }
    // The paper measured Table 1 on six NICs (the Xen rows are CPU-bound
    // well below even two NICs' line rate, so the NIC count is moot for
    // them; we still configure six for fidelity).
    let configs = cases
        .iter()
        .map(|&(_, io, dir, _)| {
            let mut cfg = TestbedConfig::new(io, 1, dir).with_nics(6);
            cfg.conns_per_guest = 12;
            cfg
        })
        .collect();
    for ((label, _, _, target), r) in cases.iter().zip(run_parallel_jobs(configs, jobs)) {
        println!("{}", compare_line(label, *target, r.throughput_mbps));
        assert_eq!(r.protection_faults, 0);
    }
    println!();
    println!("Shape check: a Xen guest achieves ~30% of native throughput (paper §2.3).");
}

/// Table 2 (transmit) or Table 3 (receive): one guest on two NICs under
/// each of [`PROFILE_IOS`], with the six-way profile and interrupt rates.
pub fn profile_table(direction: Direction, jobs: usize) {
    let (title, rows) = match direction {
        Direction::Transmit => ("Table 2 — single-guest transmit", &paper::TABLE2_TX),
        Direction::Receive => ("Table 3 — single-guest receive", &paper::TABLE3_RX),
    };
    header(&format!("{title}, 2 NICs"));
    let configs = PROFILE_IOS
        .iter()
        .map(|&io| TestbedConfig::new(io, 1, direction))
        .collect();
    for (r, row) in run_parallel_jobs(configs, jobs).iter().zip(rows) {
        print_profile(row, r, true);
    }
}

/// Table 4: CDNA with and without DMA memory protection.
pub fn table4(jobs: usize) {
    header("Table 4 — CDNA with vs without DMA memory protection");
    // `paper::TABLE4`'s row order.
    let cases = [
        (Direction::Transmit, CDNA),
        (Direction::Transmit, CDNA_NOPROT),
        (Direction::Receive, CDNA),
        (Direction::Receive, CDNA_NOPROT),
    ];
    let configs = cases
        .iter()
        .map(|&(dir, io)| TestbedConfig::new(io, 1, dir))
        .collect();
    let reports = run_parallel_jobs(configs, jobs);
    for (r, row) in reports.iter().zip(&paper::TABLE4) {
        print_profile(row, r, false);
    }
    let idle: Vec<f64> = reports.iter().map(|r| r.profile.idle_frac).collect();
    println!();
    println!(
        "Disabling protection frees ~{:.1}% (TX) / {:.1}% (RX) of the CPU (paper: ~9.6% / ~9.3%).",
        (idle[1] - idle[0]) * 100.0,
        (idle[3] - idle[2]) * 100.0
    );
}

/// Prints one row of Tables 2–4, paper vs simulated. Table 4 has no
/// driver-domain columns (`driver == false`).
fn print_profile(row: &ProfileRow, r: &RunReport, driver: bool) {
    let p = &r.profile;
    println!("--- {} ---", row.label);
    let lines = [
        ("throughput (Mb/s)", row.mbps, r.throughput_mbps),
        ("hypervisor (%)", row.hyp * 100.0, p.hypervisor_frac * 100.0),
        (
            "driver domain OS (%)",
            row.driver_os * 100.0,
            p.driver_kernel_frac * 100.0,
        ),
        (
            "guest OS (%)",
            row.guest_os * 100.0,
            p.guest_kernel_frac * 100.0,
        ),
        ("idle (%)", row.idle * 100.0, p.idle_frac * 100.0),
        ("driver interrupts/s", row.driver_int, r.driver_virq_per_s),
        ("guest interrupts/s", row.guest_int, r.guest_virq_per_s),
    ];
    for (what, paper, sim) in lines {
        if driver || !what.starts_with("driver") {
            println!("{}", compare_line(what, paper, sim));
        }
    }
    assert_eq!(r.protection_faults, 0);
}

/// Figure 3 (transmit) or Figure 4 (receive): Xen/Intel vs CDNA
/// throughput as the guest count grows, with CDNA idle annotations.
pub fn figure(direction: Direction, jobs: usize) {
    let (fig, what, d, verb, cdna_idle, factor) = match direction {
        Direction::Transmit => (
            3,
            "transmit",
            "TX",
            "transmits",
            &paper::FIG3_CDNA_IDLE_PCT,
            paper::FACTOR_TX_24,
        ),
        Direction::Receive => (
            4,
            "receive",
            "RX",
            "receives",
            &paper::FIG4_CDNA_IDLE_PCT,
            paper::FACTOR_RX_24,
        ),
    };
    header(&format!(
        "Figure {fig} — {what} throughput vs guest count (2 NICs)"
    ));
    println!(
        "{:>6} | {:>13} {:>13} | {:>13} {:>12} {:>12}",
        "guests",
        format!("Xen {d} (Mb/s)"),
        format!("CDNA {d} (Mb/s)"),
        "CDNA idle sim",
        "CDNA idle paper",
        "Xen idle sim"
    );
    let reports = run_parallel_jobs(figure_configs(direction), jobs);
    let mut ratio24 = 0.0;
    for (i, (&g, pair)) in paper::FIG_GUESTS.iter().zip(reports.chunks(2)).enumerate() {
        let (xen, cdna) = (&pair[0], &pair[1]);
        println!(
            "{:>6} | {:>13.0} {:>13.0} | {:>12.1}% {:>11.1}% {:>11.1}%",
            g,
            xen.throughput_mbps,
            cdna.throughput_mbps,
            cdna.idle_pct(),
            cdna_idle[i],
            xen.idle_pct(),
        );
        if g == 24 {
            ratio24 = cdna.throughput_mbps / xen.throughput_mbps;
        }
    }
    println!();
    println!(
        "At 24 guests CDNA {verb} {ratio24:.2}x Xen's aggregate bandwidth (paper: {factor:.1}x)."
    );
}

/// Calibration: every single-guest configuration against its paper
/// throughput (Table 1 native rows, Tables 2/3, Table 4 unprotected).
pub fn calibrate(jobs: usize) {
    let mut rows = vec![(NATIVE, 6, paper::TABLE1_NATIVE_TX, paper::TABLE1_NATIVE_RX)];
    for ((&io, tx), rx) in PROFILE_IOS
        .iter()
        .zip(&paper::TABLE2_TX)
        .zip(&paper::TABLE3_RX)
    {
        rows.push((io, 2, tx.mbps, rx.mbps));
    }
    rows.push((CDNA_NOPROT, 2, paper::TABLE4[1].mbps, paper::TABLE4[3].mbps));
    let (mut configs, mut targets) = (Vec::new(), Vec::new());
    for (io, nics, tx, rx) in rows {
        for ((dir, _), target) in DIRECTIONS.into_iter().zip([tx, rx]) {
            let mut cfg = TestbedConfig::new(io, 1, dir).with_nics(nics);
            cfg.conns_per_guest = 2 * nics as u16;
            configs.push(cfg);
            targets.push((dir, target));
        }
    }
    for (r, (dir, target)) in run_parallel_jobs(configs, jobs).iter().zip(targets) {
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

/// Sensitivity: the headline results under ±25% on the two most
/// influential cost constants. The 7-scenario × 3-config grid fans out
/// as one flat batch.
pub fn sensitivity(jobs: usize) {
    // (switch-penalty scale, validate-cost scale).
    const SCALES: [(f64, f64); 7] = [
        (1.0, 1.0),
        (0.75, 1.0),
        (1.25, 1.0),
        (1.0, 0.75),
        (1.0, 1.25),
        (0.75, 0.75),
        (1.25, 1.25),
    ];
    header("Sensitivity — headline results vs cost-constant perturbation");
    println!(
        "{:>14} {:>14} | {:>16} {:>16} {:>14}",
        "switch-penalty", "validate-cost", "TX factor @24", "CDNA idle @1", "CDNA hyp% @1"
    );
    let mut configs = Vec::new();
    for (scale_switch, scale_validate) in SCALES {
        for (io, guests) in [(CDNA, 24), (XEN_INTEL, 24), (CDNA, 1)] {
            let mut cfg = TestbedConfig::new(io, guests, Direction::Transmit);
            let c = &mut cfg.costs;
            c.switch_cache_penalty =
                SimTime::from_us_f64(c.switch_cache_penalty.as_us_f64() * scale_switch);
            c.hyp_validate_desc =
                SimTime::from_us_f64(c.hyp_validate_desc.as_us_f64() * scale_validate);
            configs.push(cfg);
        }
    }
    let reports = run_parallel_jobs(configs, jobs);
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

/// Runs one CDNA transmit config per sweep point and prints a line for
/// each: the shared shape of the three ablations (DESIGN.md §7).
fn ablation<T: Copy>(
    title: &str,
    columns: String,
    points: &[T],
    guests: u16,
    jobs: usize,
    set: impl Fn(&mut TestbedConfig, T),
    line: impl Fn(T, &RunReport) -> String,
) {
    header(title);
    println!("{columns}");
    let configs = points
        .iter()
        .map(|&p| {
            let mut cfg = TestbedConfig::new(CDNA, guests, Direction::Transmit);
            set(&mut cfg, p);
            cfg
        })
        .collect();
    for (&p, r) in points.iter().zip(&run_parallel_jobs(configs, jobs)) {
        println!("{}", line(p, r));
    }
}

/// Ablation: the enqueue-hypercall batch size. Larger batches amortize
/// hypercall entry/exit over more descriptors but delay the doorbell;
/// the paper's driver batches naturally at the interrupt cadence
/// (~10-12 descriptors).
pub fn ablation_batch(jobs: usize) {
    ablation(
        "Ablation — CDNA hypercall batch size (1 guest, transmit)",
        format!(
            "{:>6} | {:>12} {:>12} {:>14} {:>12}",
            "batch", "Mb/s", "idle %", "hypercalls/s", "hyp %"
        ),
        &[1u32, 2, 4, 8, 10, 16, 32, 64],
        1,
        jobs,
        |cfg, batch| cfg.hypercall_batch = batch,
        |batch, r| {
            format!(
                "{:>6} | {:>12.0} {:>12.1} {:>14.0} {:>12.1}",
                batch,
                r.throughput_mbps,
                r.idle_pct(),
                r.hypercalls_per_s,
                r.profile.hypervisor_frac * 100.0
            )
        },
    );
}

/// Ablation: the interrupt bit-vector coalescing interval. Shorter
/// intervals cut latency but raise the interrupt-dispatch load in the
/// hypervisor and guests.
pub fn ablation_coalesce(jobs: usize) {
    ablation(
        "Ablation — CDNA interrupt coalescing interval (4 guests, transmit)",
        format!(
            "{:>10} | {:>12} {:>12} {:>14} {:>12}",
            "gap (us)", "Mb/s", "idle %", "guest int/s", "hyp %"
        ),
        &[20u64, 50, 100, 146, 250, 500, 1000],
        4,
        jobs,
        |cfg, gap_us| cfg.ricenic.coalesce_tx = SimTime::from_us(gap_us),
        |gap_us, r| {
            format!(
                "{:>10} | {:>12.0} {:>12.1} {:>14.0} {:>12.1}",
                gap_us,
                r.throughput_mbps,
                r.idle_pct(),
                r.guest_virq_per_s,
                r.profile.hypervisor_frac * 100.0
            )
        },
    );
}

/// Ablation: the scheduler batch limit (activation length). Long
/// activations amortize switch costs; short ones reduce latency but
/// thrash the cache.
pub fn ablation_slice(jobs: usize) {
    ablation(
        "Ablation — activation batch limit (8 guests, transmit, CDNA)",
        format!(
            "{:>6} | {:>12} {:>12} {:>14}",
            "batch", "Mb/s", "idle %", "switches/s"
        ),
        &[8u32, 16, 32, 64, 128, 256],
        8,
        jobs,
        |cfg, limit| cfg.batch_limit = limit,
        |limit, r| {
            format!(
                "{:>6} | {:>12.0} {:>12.1} {:>14.0}",
                limit,
                r.throughput_mbps,
                r.idle_pct(),
                r.domain_switches_per_s
            )
        },
    );
}

/// The paper's §5.4 hypothesis: "it is likely that with more CDNA NICs,
/// the throughput curve would have a similar shape to that of software
/// virtualization, but with a much higher peak throughput when using
/// 1–4 guests." Sweeps CDNA transmit over 2, 4 and 6 NICs.
pub fn whatif_more_nics(jobs: usize) {
    header("What-if (§5.4) — CDNA transmit with more NICs");
    let nic_counts = [2u8, 4, 6];
    let mut configs = Vec::new();
    for nics in nic_counts {
        for g in paper::FIG_GUESTS {
            let mut cfg = TestbedConfig::new(CDNA, g, Direction::Transmit).with_nics(nics);
            // Keep connections spread over every NIC.
            cfg.conns_per_guest = cfg.conns_per_guest.max(nics as u16);
            configs.push(cfg);
        }
    }
    let reports = run_parallel_jobs(configs, jobs);
    println!(
        "{:>6} | {:>14} {:>14} {:>14}",
        "guests", "2 NICs (Mb/s)", "4 NICs (Mb/s)", "6 NICs (Mb/s)"
    );
    let per_nic = paper::FIG_GUESTS.len();
    for (gi, g) in paper::FIG_GUESTS.iter().enumerate() {
        let mbps = |ni: usize| reports[ni * per_nic + gi].throughput_mbps;
        println!(
            "{:>6} | {:>14.0} {:>14.0} {:>14.0}",
            g,
            mbps(0),
            mbps(1),
            mbps(2)
        );
    }
    println!();
    println!("With 2 NICs CDNA holds line rate to 24 guests. Four NICs double");
    println!("the peak (confirming §5.4's 'much higher peak'); a sixth NIC buys");
    println!("nothing — the single Opteron core saturates at ~3.6 Gb/s of CDNA");
    println!("transmit processing, so the CPU, not the NICs or the driver");
    println!("domain, is the next bottleneck once software multiplexing is gone.");
}
