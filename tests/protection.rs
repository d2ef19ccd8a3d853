//! End-to-end security tests for the CDNA protection mechanisms
//! (paper §3.3): a buggy or malicious guest driver must not be able to
//! read or write other domains' memory through the NIC, and every
//! attack must fault in a way that is isolated to the offender.

use cdna_core::{
    layout::Mailbox, ContextError, ContextId, DmaPolicy, FaultKind, ProtectionEngine,
    ProtectionError, RxRequest, TxRequest,
};
use cdna_mem::{BufferSlice, DomainId, MemError, PhysMem};
use cdna_net::{FlowId, Frame, MacAddr, PciBus};
use cdna_nic::{DescFlags, FrameMeta, RingTable};
use cdna_ricenic::{Activity, RiceNic, RiceNicConfig};
use cdna_sim::SimTime;

struct Bench {
    mem: PhysMem,
    rings: RingTable,
    bus: PciBus,
    engine: ProtectionEngine,
    nic: RiceNic,
}

impl Bench {
    /// Writes `value` into `mailbox` of `ctx`; the device's activity.
    fn write(&mut self, now: SimTime, ctx: ContextId, mailbox: usize, value: u64) -> Activity {
        let mut act = Activity::default();
        self.nic
            .mailbox_write_into(
                now,
                ctx,
                mailbox,
                value,
                &self.rings,
                &mut self.bus,
                &mut act,
            )
            .unwrap();
        act
    }

    /// Completes `frame` on the wire; the device's activity.
    fn sent(&mut self, now: SimTime, frame: &Frame) -> Activity {
        let mut act = Activity::default();
        self.nic
            .tx_frame_sent(now, frame, &self.rings, &mut self.bus, &mut act);
        act
    }
}

fn bench() -> Bench {
    Bench {
        mem: PhysMem::new(2048),
        rings: RingTable::new(),
        bus: PciBus::new_64bit_66mhz(),
        engine: ProtectionEngine::new(),
        nic: RiceNic::new(0, RiceNicConfig::default()),
    }
}

fn attach(b: &mut Bench, guest: DomainId) -> cdna_core::ContextId {
    let ctx = b
        .engine
        .assign_context(guest, DmaPolicy::Validated, 32, &mut b.rings, &mut b.mem)
        .unwrap();
    let st = b.engine.contexts().state(ctx).unwrap();
    b.nic
        .attach_context(ctx, st.tx_ring, st.rx_ring, true, &b.rings)
        .unwrap();
    ctx
}

fn tx_req(b: &mut Bench, owner: DomainId, ctx: cdna_core::ContextId) -> TxRequest {
    let page = b.mem.alloc(owner).unwrap();
    TxRequest {
        buf: BufferSlice::new(page.base_addr(), 1514),
        flags: DescFlags::END_OF_PACKET,
        meta: FrameMeta {
            dst: MacAddr::for_peer(0),
            src: MacAddr::for_context(0, ctx.0),
            tcp_payload: 1460,
            flow: FlowId::new(0, 0),
            seq: 0,
        },
    }
}

#[test]
fn guest_cannot_transmit_from_another_guests_memory() {
    let mut b = bench();
    let attacker = DomainId::guest(0);
    let victim = DomainId::guest(1);
    let ctx = attach(&mut b, attacker);
    // The "secret" lives in the victim's page.
    let secret = b.mem.alloc(victim).unwrap();
    let req = TxRequest {
        buf: BufferSlice::new(secret.base_addr(), 1514),
        flags: DescFlags::END_OF_PACKET,
        meta: FrameMeta {
            dst: MacAddr::for_peer(0),
            src: MacAddr::for_context(0, ctx.0),
            tcp_payload: 1460,
            flow: FlowId::new(0, 0),
            seq: 0,
        },
    };
    let err = b
        .engine
        .enqueue_tx(ctx, attacker, &[req], 0, &mut b.rings, &mut b.mem)
        .unwrap_err();
    assert!(matches!(
        err,
        ProtectionError::Mem(MemError::NotOwner { .. })
    ));
    assert_eq!(b.mem.outstanding_pins(), 0);
}

#[test]
fn guest_cannot_receive_into_another_guests_memory() {
    let mut b = bench();
    let attacker = DomainId::guest(0);
    let victim = DomainId::guest(1);
    let ctx = attach(&mut b, attacker);
    let target = b.mem.alloc(victim).unwrap();
    let err = b
        .engine
        .enqueue_rx(
            ctx,
            attacker,
            &[RxRequest {
                buf: BufferSlice::new(target.base_addr(), 1514),
            }],
            0,
            &mut b.rings,
            &mut b.mem,
        )
        .unwrap_err();
    assert!(matches!(
        err,
        ProtectionError::Mem(MemError::NotOwner { .. })
    ));
}

#[test]
fn guest_cannot_enqueue_on_a_context_it_does_not_own() {
    let mut b = bench();
    let owner = DomainId::guest(0);
    let attacker = DomainId::guest(1);
    let ctx = attach(&mut b, owner);
    let req = tx_req(&mut b, attacker, ctx);
    let err = b
        .engine
        .enqueue_tx(ctx, attacker, &[req], 0, &mut b.rings, &mut b.mem)
        .unwrap_err();
    assert!(matches!(
        err,
        ProtectionError::Context(ContextError::WrongOwner { .. })
    ));
}

#[test]
fn producer_overrun_faults_without_touching_memory() {
    // The malicious driver enqueues one valid descriptor through the
    // hypervisor, then writes a producer index of 5 into its mailbox.
    let mut b = bench();
    let guest = DomainId::guest(0);
    let ctx = attach(&mut b, guest);
    let req = tx_req(&mut b, guest, ctx);
    let out = b
        .engine
        .enqueue_tx(ctx, guest, &[req], 0, &mut b.rings, &mut b.mem)
        .unwrap();
    assert_eq!(out.producer, 1);
    let act = b.write(
        SimTime::ZERO,
        ctx,
        Mailbox::TxProducer.index(),
        5, // lies: only 1 descriptor was validated
    );
    assert_eq!(act.faults.len(), 1);
    assert!(matches!(act.faults[0].kind, FaultKind::EmptySlot { .. }));
    assert!(b.nic.is_faulted(ctx));
    // Only the genuinely enqueued frame was emitted.
    assert!(act.emissions.len() <= 1);
}

#[test]
fn replayed_stale_descriptor_is_detected_by_sequence_number() {
    let mut b = bench();
    let guest = DomainId::guest(0);
    let ctx = attach(&mut b, guest);
    // Fill one complete lap of the 32-slot ring, transmitting everything.
    let reqs: Vec<TxRequest> = (0..32).map(|_| tx_req(&mut b, guest, ctx)).collect();
    b.engine
        .enqueue_tx(ctx, guest, &reqs, 0, &mut b.rings, &mut b.mem)
        .unwrap();
    let act = b.write(SimTime::ZERO, ctx, Mailbox::TxProducer.index(), 32);
    assert_eq!(act.emissions.len(), 32);
    for e in &act.emissions {
        b.sent(e.ready_at, &e.frame);
    }
    // Replay: advance the producer one past what the hypervisor wrote;
    // slot 0 holds the stale lap-old descriptor.
    let act = b.write(SimTime::from_ms(1), ctx, Mailbox::TxProducer.index(), 33);
    assert_eq!(act.faults.len(), 1);
    assert!(
        matches!(
            act.faults[0].kind,
            FaultKind::StaleSequence {
                expected: 32,
                found: 0
            }
        ),
        "got {:?}",
        act.faults[0]
    );
    // The hypervisor collects the fault through the privileged path.
    let collected = b.nic.take_faults();
    assert_eq!(collected.len(), 1);
    assert_eq!(collected[0].ctx, ctx);
}

#[test]
fn freeing_a_page_during_dma_defers_reallocation() {
    let mut b = bench();
    let guest = DomainId::guest(0);
    let ctx = attach(&mut b, guest);
    let req = tx_req(&mut b, guest, ctx);
    let page = req.buf.addr.page();
    b.engine
        .enqueue_tx(ctx, guest, &[req], 0, &mut b.rings, &mut b.mem)
        .unwrap();
    // Guest frees the page while the DMA is outstanding.
    assert_eq!(b.mem.free(guest, page), Err(MemError::Pinned(page)));
    // Exhaust memory: the pinned page must never be reallocated.
    let mut grabbed = Vec::new();
    while let Ok(p) = b.mem.alloc(DomainId::guest(7)) {
        assert_ne!(p, page, "pinned page reallocated during DMA!");
        grabbed.push(p);
    }
    // DMA completes; the engine reaps; the deferred free finishes.
    b.engine.reap(ctx, 1, 0, &mut b.mem).unwrap();
    assert_eq!(b.mem.info(page).unwrap().owner, None);
}

#[test]
fn fault_isolation_other_guests_keep_working() {
    let mut b = bench();
    let evil = DomainId::guest(0);
    let good = DomainId::guest(1);
    let evil_ctx = attach(&mut b, evil);
    let good_ctx = attach(&mut b, good);

    // Fault the evil context via producer overrun.
    let _ = b.write(SimTime::ZERO, evil_ctx, Mailbox::TxProducer.index(), 1);
    assert!(b.nic.is_faulted(evil_ctx));

    // The good guest transmits unaffected.
    let req = tx_req(&mut b, good, good_ctx);
    let out = b
        .engine
        .enqueue_tx(good_ctx, good, &[req], 0, &mut b.rings, &mut b.mem)
        .unwrap();
    let act = b.write(
        SimTime::from_us(1),
        good_ctx,
        Mailbox::TxProducer.index(),
        out.producer,
    );
    assert_eq!(act.emissions.len(), 1);
    assert!(act.faults.is_empty());
    assert!(!b.nic.is_faulted(good_ctx));
}

#[test]
fn revocation_shuts_down_exactly_one_context() {
    let mut b = bench();
    let g0 = DomainId::guest(0);
    let g1 = DomainId::guest(1);
    let c0 = attach(&mut b, g0);
    let c1 = attach(&mut b, g1);
    // Queue work on both.
    for (g, c) in [(g0, c0), (g1, c1)] {
        let req = tx_req(&mut b, g, c);
        let out = b
            .engine
            .enqueue_tx(c, g, &[req], 0, &mut b.rings, &mut b.mem)
            .unwrap();
        // Don't ring c0's doorbell yet; leave its work pending.
        if c == c1 {
            b.write(SimTime::ZERO, c, Mailbox::TxProducer.index(), out.producer);
        }
    }
    // Revoke guest 0's context.
    b.nic.detach_context(c0);
    b.engine.revoke_context(c0, &mut b.mem).unwrap();
    assert!(!b.nic.is_attached(c0));
    assert!(b.nic.is_attached(c1));
    assert_eq!(b.engine.outstanding(c0), 0, "revocation unpinned c0");
    assert_eq!(b.engine.outstanding(c1), 1, "c1 untouched");
    // The revoked context's mailboxes no longer work.
    assert!(b
        .nic
        .mailbox_write_into(
            SimTime::from_us(2),
            c0,
            Mailbox::TxProducer.index(),
            1,
            &b.rings,
            &mut b.bus,
            &mut Activity::default(),
        )
        .is_err());
}

#[test]
fn benign_full_system_runs_never_fault() {
    use cdna_system::{run_experiment, Direction, IoModel, TestbedConfig};
    for dir in [Direction::Transmit, Direction::Receive] {
        let r = run_experiment(
            TestbedConfig::new(
                IoModel::Cdna {
                    policy: DmaPolicy::Validated,
                },
                4,
                dir,
            )
            .quick(),
        );
        assert_eq!(r.protection_faults, 0, "{dir:?}");
    }
}

/// Priming the receive rings at build time goes through the device's
/// mailbox; under every policy it must raise no fault and (debug builds
/// assert this) want nothing scheduled before the run starts.
#[test]
fn priming_receive_rings_at_build_time_never_faults() {
    use cdna_system::{Direction, IoModel, NicKind, SystemWorld, TestbedConfig};
    let policies = [
        DmaPolicy::Validated,
        DmaPolicy::Iommu,
        DmaPolicy::Unprotected,
    ];
    let ios = policies
        .map(|policy| IoModel::Cdna { policy })
        .into_iter()
        .chain([IoModel::XenBridged {
            nic: NicKind::RiceNic,
        }]);
    for io in ios {
        for dir in [Direction::Transmit, Direction::Receive] {
            let w = SystemWorld::build(TestbedConfig::new(io, 4, dir).quick());
            assert!(w.faults.is_empty(), "{io:?} {dir:?}: {:?}", w.faults);
        }
    }
}

#[test]
fn iommu_policy_blocks_foreign_dma_at_the_device() {
    // Under DmaPolicy::Iommu the hypervisor never sees descriptors; the
    // per-context IOMMU on the device's upstream port catches the attack
    // instead (paper §5.3).
    let mut b = bench();
    let attacker = DomainId::guest(0);
    let victim = DomainId::guest(1);
    let ctx = b
        .engine
        .assign_context(attacker, DmaPolicy::Iommu, 32, &mut b.rings, &mut b.mem)
        .unwrap();
    let st = b.engine.contexts().state(ctx).unwrap();
    b.nic
        .attach_context(ctx, st.tx_ring, st.rx_ring, false, &b.rings)
        .unwrap();
    b.nic.install_iommu();
    b.nic.iommu_mut().unwrap().enable(ctx);

    // Honest traffic with mapped pages flows.
    let own = b.mem.alloc(attacker).unwrap();
    b.nic.iommu_mut().unwrap().map(ctx, own);
    let honest = cdna_nic::DmaDescriptor::tx(
        BufferSlice::new(own.base_addr(), 1514),
        DescFlags::END_OF_PACKET,
        FrameMeta {
            dst: MacAddr::for_peer(0),
            src: MacAddr::for_context(0, ctx.0),
            tcp_payload: 1460,
            flow: FlowId::new(0, 0),
            seq: 0,
        },
    );
    b.rings.get_mut(st.tx_ring).unwrap().write_at(0, honest);
    let act = b.write(SimTime::ZERO, ctx, Mailbox::TxProducer.index(), 1);
    assert_eq!(act.emissions.len(), 1);
    assert!(act.faults.is_empty());

    // The attack: a descriptor naming the victim's (unmapped) page.
    let secret = b.mem.alloc(victim).unwrap();
    let steal = cdna_nic::DmaDescriptor::tx(
        BufferSlice::new(secret.base_addr(), 1514),
        DescFlags::END_OF_PACKET,
        FrameMeta {
            dst: MacAddr::for_peer(0),
            src: MacAddr::for_context(0, ctx.0),
            tcp_payload: 1460,
            flow: FlowId::new(0, 0),
            seq: 0,
        },
    );
    b.rings.get_mut(st.tx_ring).unwrap().write_at(1, steal);
    let act = b.write(SimTime::from_us(1), ctx, Mailbox::TxProducer.index(), 2);
    assert!(
        act.emissions.is_empty(),
        "exfiltration frame must not leave"
    );
    assert_eq!(act.faults.len(), 1);
    assert!(matches!(
        act.faults[0].kind,
        cdna_core::FaultKind::IommuViolation { page } if page == secret
    ));
    assert!(b.nic.is_faulted(ctx));
}

#[test]
fn iommu_full_system_run_is_clean_and_fast() {
    use cdna_system::{run_experiment, Direction, IoModel, TestbedConfig};
    let r = run_experiment(
        TestbedConfig::new(
            IoModel::Cdna {
                policy: DmaPolicy::Iommu,
            },
            2,
            Direction::Transmit,
        )
        .quick(),
    );
    assert_eq!(r.protection_faults, 0);
    assert!((r.throughput_mbps - 1867.0).abs() < 40.0);
}

#[test]
fn unprotected_context_would_allow_the_attack_cdna_prevents() {
    // Demonstrates *why* validation matters: with protection disabled
    // (Table 4's ablation) the same foreign-buffer descriptor reaches
    // the NIC unchallenged.
    let mut b = bench();
    let attacker = DomainId::guest(0);
    let victim = DomainId::guest(1);
    let ctx = b
        .engine
        .assign_context(
            attacker,
            DmaPolicy::Unprotected,
            32,
            &mut b.rings,
            &mut b.mem,
        )
        .unwrap();
    let st = b.engine.contexts().state(ctx).unwrap();
    b.nic
        .attach_context(ctx, st.tx_ring, st.rx_ring, false, &b.rings)
        .unwrap();
    let secret = b.mem.alloc(victim).unwrap();
    // The attacker writes its own ring directly.
    let desc = cdna_nic::DmaDescriptor::tx(
        BufferSlice::new(secret.base_addr(), 1514),
        DescFlags::END_OF_PACKET,
        FrameMeta {
            dst: MacAddr::for_peer(0),
            src: MacAddr::for_context(0, ctx.0),
            tcp_payload: 1460,
            flow: FlowId::new(0, 0),
            seq: 0,
        },
    );
    b.rings.get_mut(st.tx_ring).unwrap().write_at(0, desc);
    let act = b.write(SimTime::ZERO, ctx, Mailbox::TxProducer.index(), 1);
    // The frame with the victim's data goes out — the exfiltration CDNA's
    // validated mode blocks.
    assert_eq!(act.emissions.len(), 1);
    assert!(act.faults.is_empty());
}

#[test]
fn device_faults_carry_stable_codes_and_spare_other_contexts() {
    // The fuzzer's coverage keys and the trace wire format match on
    // FaultKind::code()/name(), not on Debug strings — pin the mapping
    // end to end: a real overrun fault produced by the device carries
    // code 2 / "empty-slot" and faults only the offending context.
    let mut b = bench();
    let attacker = DomainId::guest(0);
    let victim = DomainId::guest(1);
    let a_ctx = attach(&mut b, attacker);
    let v_ctx = attach(&mut b, victim);
    // Doorbell the attacker's producer past the (never-written) ring.
    let act = b.write(SimTime::ZERO, a_ctx, Mailbox::TxProducer.index(), 3);
    assert_eq!(act.faults.len(), 1);
    let fault = act.faults[0];
    assert_eq!(fault.ctx, a_ctx);
    assert_eq!(fault.kind.code(), 2);
    assert_eq!(fault.kind.name(), "empty-slot");
    assert_eq!(fault.kind.shadow_code(), None);
    assert!(matches!(fault.kind, FaultKind::EmptySlot { index: 0 }));
    // The victim's context still accepts work through the hypercall.
    let req = tx_req(&mut b, victim, v_ctx);
    b.engine
        .enqueue_tx(v_ctx, victim, &[req], 0, &mut b.rings, &mut b.mem)
        .unwrap();
}
