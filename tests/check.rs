//! Tier-1 coverage for the `cdna-check` subsystem: the static pass run
//! against this repository, and the dynamic `DmaShadow` checker wired
//! into [`SystemWorld`] behind [`TestbedConfig::shadow_check`].

use cdna_check::{check_repo, workspace_root};
use cdna_core::{DmaPolicy, FaultKind};
use cdna_mem::{DomainId, PageId};
use cdna_sim::{SimTime, Simulation};
use cdna_system::{run_experiment, Direction, IoModel, SystemWorld, TestbedConfig};

fn cdna_cfg(policy: DmaPolicy, guests: u16, dir: Direction) -> TestbedConfig {
    TestbedConfig::new(IoModel::Cdna { policy }, guests, dir).quick()
}

/// The repository itself must stay clean under the static rules; this
/// runs in the root package so tier-1 `cargo test` enforces it.
#[test]
fn repository_is_clean_under_static_analysis() {
    let report = check_repo(&workspace_root()).expect("repo scan");
    let rendered: Vec<String> = report.diagnostics.iter().map(|d| d.render()).collect();
    assert!(
        report.clean(),
        "static violations:\n{}",
        rendered.join("\n")
    );
}

#[test]
fn shadow_checked_cdna_runs_are_clean() {
    for dir in [Direction::Transmit, Direction::Receive] {
        let r = run_experiment(cdna_cfg(DmaPolicy::Validated, 2, dir).with_shadow_check());
        assert_eq!(r.protection_faults, 0, "{dir:?}");
        assert!(r.throughput_mbps > 0.0, "{dir:?}");
    }
}

#[test]
fn shadow_checker_does_not_perturb_the_simulation() {
    // The shadow is an observer: enabling it must not change a single
    // simulated outcome.
    let plain = run_experiment(cdna_cfg(DmaPolicy::Validated, 2, Direction::Transmit));
    let checked =
        run_experiment(cdna_cfg(DmaPolicy::Validated, 2, Direction::Transmit).with_shadow_check());
    assert_eq!(plain.packets, checked.packets);
    assert_eq!(plain.throughput_mbps, checked.throughput_mbps);
    assert_eq!(plain.events_processed, checked.events_processed);
}

#[test]
fn shadow_observes_live_sequence_streams() {
    use cdna_check::shadow::ShadowDir;
    let cfg = cdna_cfg(DmaPolicy::Validated, 2, Direction::Transmit).with_shadow_check();
    let end = cfg.warmup + cfg.measure;
    let mut sim = Simulation::new(SystemWorld::build(cfg));
    let primed = sim.world_mut().prime();
    for (t, e) in primed {
        sim.schedule(t, e);
    }
    sim.run_until(end);
    let world = sim.into_world();
    let shadow = world.shadow().expect("shadow enabled");
    assert!(shadow.violations().is_empty(), "{:?}", shadow.violations());
    let ctx = world.ctx_of[0][0];
    assert!(
        shadow.seq_observed(ctx, ShadowDir::Tx) > 0,
        "transmit stream unobserved"
    );
    assert!(
        shadow.seq_observed(ctx, ShadowDir::Rx) > 0,
        "receive-credit stream unobserved"
    );
    assert!(shadow.events() > 0);
}

#[test]
fn shadow_sync_detects_a_pin_outside_the_protection_path() {
    // A pin PhysMem knows about but no engine accounts for is exactly
    // the kind of bug the whole-pool audit exists to catch.
    let cfg = cdna_cfg(DmaPolicy::Validated, 1, Direction::Transmit).with_shadow_check();
    let mut world = SystemWorld::build(cfg);
    let first = world.shadow_sync();
    assert_eq!(
        first,
        0,
        "fresh world must audit clean: {:?}",
        world.shadow().map(|s| s.violations())
    );

    // Pin several non-adjacent engine-pinned pages a second time,
    // highest first, plus one page no engine holds at all.
    let ctx = world.ctx_of[0][0];
    let mut held: Vec<PageId> = world.engines[0]
        .pinned_runs(ctx)
        .flat_map(|(first, len)| (first.0..first.0 + len).map(PageId))
        .collect();
    held.sort();
    let mut rogue: Vec<PageId> = held.iter().step_by(7).take(4).copied().collect();
    assert_eq!(rogue.len(), 4, "receive ring posts enough buffers");
    for &page in rogue.iter().rev() {
        world.mem.pin(page).expect("pin");
    }
    let stray = world.mem.alloc(DomainId::guest(0)).expect("page");
    world.mem.pin(stray).expect("pin");

    let new = world.shadow_sync();
    assert_eq!(new, rogue.len() + 1, "one per page plus the aggregate");
    assert!(
        world
            .faults
            .iter()
            .any(|f| matches!(f.kind, FaultKind::ShadowViolation { code: 9 })),
        "expected a mirror-divergence protection fault: {:?}",
        world.faults
    );
    let diverged: Vec<Option<PageId>> = world
        .shadow()
        .expect("shadow enabled")
        .violations()
        .iter()
        .filter(|v| v.kind.code() == 9)
        .map(|v| v.page)
        .collect();
    rogue.push(PageId(0)); // the aggregate pin count is reported last
    assert_eq!(diverged, rogue.into_iter().map(Some).collect::<Vec<_>>());
}

#[test]
fn a_second_shadow_sync_with_nothing_new_records_no_events() {
    // A sync feeds the mirror only what the engines journaled since the
    // last pass: with no simulated event in between, a sync replays no
    // descriptor, moves no pin and finds nothing — but still audits.
    let cfg = cdna_cfg(DmaPolicy::Validated, 2, Direction::Receive).with_shadow_check();
    let end = cfg.warmup + cfg.measure;
    let mut sim = Simulation::new(SystemWorld::build(cfg));
    let primed = sim.world_mut().prime();
    for (t, e) in primed {
        sim.schedule(t, e);
    }
    sim.run_until(end);
    let mut world = sim.into_world();
    assert_eq!(world.shadow_sync(), 0);
    let shadow = world.shadow().expect("shadow enabled");
    let (events, tracked) = (shadow.events(), shadow.pages_tracked());
    assert!(tracked > 0, "posted receive buffers are mirrored");
    assert_eq!(world.shadow_sync(), 0);
    let shadow = world.shadow().expect("shadow enabled");
    assert_eq!(shadow.events(), events);
    assert_eq!(shadow.pages_tracked(), tracked);
    assert!(shadow.violations().is_empty(), "{:?}", shadow.violations());

    // The audits still run on the quiet pass: a pin the engines never
    // made is caught even though no page's engine count changed.
    let ctx = world.ctx_of[0][0];
    let (page, _) = world.engines[0]
        .pinned_runs(ctx)
        .next()
        .expect("a pinned page");
    world.mem.pin(page).expect("pin");
    assert_eq!(world.shadow_sync(), 2, "page and aggregate divergence");
    assert_eq!(world.shadow().expect("shadow enabled").events(), events);
}

#[test]
fn without_the_shadow_no_engine_keeps_a_pin_journal() {
    // The journal is the shadow's only hot-path cost: runs without the
    // checker must not record a single pin.
    for dir in [Direction::Transmit, Direction::Receive] {
        let cfg = cdna_cfg(DmaPolicy::Validated, 2, dir);
        let end = cfg.warmup + cfg.measure;
        let mut sim = Simulation::new(SystemWorld::build(cfg));
        for (t, e) in sim.world_mut().prime() {
            sim.schedule(t, e);
        }
        sim.run_until(end);
        let world = sim.into_world();
        assert!(!world.engines.is_empty());
        assert!(world.engines.iter().all(|e| e.pin_journal().is_none()));
        assert!(world.engines.iter().all(|e| e.stats().pages_pinned > 0));
    }
}

#[test]
fn every_shadow_sync_empties_every_pin_journal() {
    let cfg = cdna_cfg(DmaPolicy::Validated, 2, Direction::Receive).with_shadow_check();
    let end = cfg.warmup + cfg.measure;
    let mut sim = Simulation::new(SystemWorld::build(cfg));
    for (t, e) in sim.world_mut().prime() {
        sim.schedule(t, e);
    }
    let journaled = |w: &SystemWorld| -> usize {
        w.engines
            .iter()
            .map(|e| e.pin_journal().expect("journal on").len())
            .sum()
    };
    // Build-time receive posts are journaled before any sync.
    assert!(journaled(sim.world()) > 0);
    let mut busy = 0;
    for step in 1..=8u64 {
        sim.run_until(SimTime::from_ns(end.as_ns() * step / 8));
        busy += usize::from(journaled(sim.world()) > 0);
        sim.world_mut().shadow_sync();
        assert_eq!(journaled(sim.world()), 0, "step {step}");
    }
    assert!(busy > 1, "the run pinned between syncs");
    let world = sim.into_world();
    let shadow = world.shadow().expect("shadow enabled");
    assert!(shadow.violations().is_empty(), "{:?}", shadow.violations());
}

#[test]
fn shadow_disabled_by_default_and_sync_is_a_noop() {
    let mut world = SystemWorld::build(cdna_cfg(DmaPolicy::Validated, 1, Direction::Transmit));
    assert!(world.shadow().is_none());
    assert_eq!(world.shadow_sync(), 0);
    assert!(world.faults.is_empty());
}

// --- Seeded violations for the symbol-graph passes -------------------
//
// Each fixture plants exactly one violation of one interprocedural rule
// and asserts the diagnostic lands on the exact file:line, exercising
// the public `cdna_check::analyze` entry point end to end.

fn lib_file(rel: &str, text: &str) -> cdna_check::SourceFile {
    cdna_check::SourceFile {
        rel: rel.to_string(),
        kind: cdna_check::rules::FileKind::Library,
        text: text.to_string(),
    }
}

#[test]
fn seeded_layering_back_edge_is_pinpointed() {
    // `mem` (layer 0) depending on `system` (layer 6) inverts the DAG.
    // Its sources could only `use cdna_system` once a manifest declares
    // the crate, so the manifest line is where the diagnostic lands;
    // a test-only import goes through `[dev-dependencies]`.
    let manifest =
        "[package]\nname = \"cdna-mem\"\n\n[dev-dependencies]\ncdna-system.workspace = true\n";
    let a = cdna_check::analyze(
        &[lib_file(
            "crates/mem/src/seeded.rs",
            "//! Doc.\n\nuse cdna_system::SystemWorld;\n",
        )],
        &[("crates/mem/Cargo.toml".to_string(), manifest.to_string())],
    );
    let hits: Vec<(&str, &str, u32)> = a
        .diagnostics
        .iter()
        .map(|d| (d.rule, d.file.as_str(), d.line))
        .collect();
    assert_eq!(
        hits,
        [("layering", "crates/mem/Cargo.toml", 5)],
        "{:?}",
        a.diagnostics
    );
}

#[test]
fn seeded_pin_leak_is_pinpointed_at_the_early_return() {
    // The `?` on the middle call can exit with the pin still held; the
    // diagnostic must land on that line, not on the pin itself.
    let defs = lib_file(
        "crates/mem/src/pool.rs",
        "//! Doc.\n/// Doc.\npub fn pin_run(s: u32, l: u32) {}\n/// Doc.\npub fn unpin_run(s: u32, l: u32) {}\n",
    );
    let src = "//! Doc.\nfn dma(m: &mut M) -> Result<(), E> {\n    m.pin_run(s, l)?;\n    validate(buf)?;\n    m.unpin_run(s, l);\n    Ok(())\n}\n";
    let a = cdna_check::analyze(&[defs, lib_file("crates/core/src/seeded.rs", src)], &[]);
    let hits: Vec<(&str, &str, u32)> = a
        .diagnostics
        .iter()
        .map(|d| (d.rule, d.file.as_str(), d.line))
        .collect();
    assert_eq!(
        hits,
        [("must-pair", "crates/core/src/seeded.rs", 4)],
        "{:?}",
        a.diagnostics
    );
}

fn hits(a: &cdna_check::Analysis) -> Vec<(&str, &str, u32)> {
    a.diagnostics
        .iter()
        .map(|d| (d.rule, d.file.as_str(), d.line))
        .collect()
}

#[test]
fn seeded_guest_taint_flow_is_pinpointed() {
    // A guest-facing xen entry point stores a guest index straight into
    // the ring with no sanitizer on the path; the sanitized twin is
    // clean, proving the prefix-ordering semantics.
    let nic = lib_file(
        "crates/nic/src/ring.rs",
        "//! Doc.\n/// Doc.\npub fn write_at(i: u64) { let _ = i; }\n",
    );
    let core = lib_file(
        "crates/core/src/protection.rs",
        "//! Doc.\n/// Doc.\npub fn precheck(v: u64) -> bool { v > 0 }\n",
    );
    let bad = "//! Doc.\n/// Doc.\npub fn flush_tx_direct(i: u64) {\n    write_at(i);\n}\n";
    let good = "//! Doc.\n/// Doc.\npub fn flush_tx_validated(i: u64) {\n    if precheck(i) {\n        write_at(i);\n    }\n}\n";
    let a = cdna_check::analyze(
        &[
            nic.clone(),
            core.clone(),
            lib_file("crates/xen/src/seeded.rs", bad),
        ],
        &[],
    );
    assert_eq!(
        hits(&a),
        [("guest-taint", "crates/xen/src/seeded.rs", 4)],
        "{:?}",
        a.diagnostics
    );
    let clean = cdna_check::analyze(
        &[nic, core, lib_file("crates/xen/src/seeded.rs", good)],
        &[],
    );
    assert!(clean.diagnostics.is_empty(), "{:?}", clean.diagnostics);
}

#[test]
fn seeded_taint_propagates_through_a_helper() {
    // The root itself never touches a sink: the violation is the call
    // into the vulnerable helper, and the diagnostic lands there.
    let net = lib_file(
        "crates/net/src/pci.rs",
        "//! Doc.\n/// Doc.\npub fn dma(b: u64) -> u64 { b }\n",
    );
    let src = "//! Doc.\nfn stage(i: u64) {\n    dma(i);\n}\n/// Doc.\npub fn queue_tx(i: u64) {\n    stage(i);\n}\n";
    let a = cdna_check::analyze(&[net, lib_file("crates/xen/src/seeded.rs", src)], &[]);
    assert_eq!(
        hits(&a),
        [("guest-taint", "crates/xen/src/seeded.rs", 7)],
        "{:?}",
        a.diagnostics
    );
}

#[test]
fn calibration_corpus_is_fully_caught() {
    // The same corpus CI's calibration step runs: every seeded
    // violation must be caught at its exact file:line, nothing extra.
    let corpus = workspace_root().join("crates/check/tests/corpus");
    let failures = cdna_check::calibrate::calibrate(&corpus).expect("corpus parses");
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}
