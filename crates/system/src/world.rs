//! The full-machine model: one Opteron CPU, physical memory, a PCI bus,
//! two (or more) gigabit NICs wired to an infinitely fast peer, a
//! hypervisor, and a set of domains running the benchmark workload.
//!
//! This is where the event-driven dynamics live; all component logic is
//! in the substrate crates. The world interprets NIC activity into
//! scheduled events, runs domains on the single CPU in scheduler order,
//! and charges every code path's cost to the execution-profile ledger.
//!
//! # Panics
//!
//! Unlike the substrate crates, the world is the top of the simulation:
//! there is no caller to propagate errors to, and a broken invariant
//! here (a lost mailbox, an unassigned context in the run queue) means
//! the simulated machine itself is inconsistent. Those states abort the
//! run immediately rather than produce a silently wrong benchmark.
// cdna-check: allow-file(panic): simulation top level — invariant
// breaks abort the run; there is no caller to return an error to.

use std::collections::VecDeque;

use cdna_check::shadow::{DmaShadow, ShadowDir, ShadowState};
use cdna_core::{
    layout::Mailbox, BitVectorRing, ContextId, DmaPolicy, FaultKind, ProtectionEngine,
    ProtectionFault,
};
use cdna_mem::{BufferSlice, DomainId, PageId, PhysMem};
use cdna_net::{framing, FlowId, Frame, GigabitWire, MacAddr, PciBus, WireDirection};
use cdna_nic::{
    ConventionalNic, FrameMeta, IrqReason, NicConfig, RingTable, RxDisposition, TxActivity,
    TxEmission,
};
use cdna_ricenic::{Activity, RiceNic};
use cdna_sim::{RateMeter, Scheduler, SimRng, SimTime, World};
use cdna_trace::{CounterId, Domain, MetricKey, Registry};
use cdna_xen::{
    BridgePort, CdnaGuestDriver, CpuLedger, EthernetBridge, EventChannels, ExecCategory,
    FrontBackChannel, NativeDriver, PvPacket, RunQueue, VirtualIrq,
};

use crate::{Direction, IoModel, NicKind, TestbedConfig};

/// Events driving the machine.
#[derive(Debug, Clone)]
#[allow(clippy::large_enum_variant)] // Frame-carrying events dominate traffic anyway
pub enum Event {
    /// The CPU is free to run the next pending work item.
    CpuDispatch,
    /// A NIC raised a physical interrupt line.
    PhysIrq {
        /// NIC index.
        nic: usize,
        /// Direction that requested it.
        reason: IrqReason,
    },
    /// A previously emitted frame may start serializing onto the wire.
    ///
    /// The world never schedules this itself: frames reserve the wire
    /// when the NIC hands them over (see DESIGN.md §10). The variant
    /// stays so external harnesses that match every kind keep compiling;
    /// handling it takes the same reservation path.
    EmissionDue {
        /// NIC index.
        nic: usize,
        /// The frame.
        frame: Frame,
    },
    /// A transmitted frame's last bit left the NIC (arrived at peer).
    WireTxDone {
        /// NIC index.
        nic: usize,
        /// The frame.
        frame: Frame,
    },
    /// A switch-forwarded frame's last bit arrived at the NIC (rack
    /// uplinks and inter-VM hairpins; peer traffic lands at
    /// [`Event::PeerPump`]).
    WireRxArrive {
        /// NIC index.
        nic: usize,
        /// The frame.
        frame: Frame,
    },
    /// The peer's frame in flight on this NIC's link finished arriving:
    /// it lands, and the peer starts serializing its next frame.
    PeerPump {
        /// NIC index.
        nic: usize,
    },
    /// Open the measurement window.
    StartMeasure,
    /// Close the measurement window.
    StopMeasure,
}

/// A physical NIC plus its link.
#[derive(Debug)]
#[allow(clippy::large_enum_variant)] // a handful of slots exist per machine
pub enum NicSlot {
    /// Conventional single-context device.
    Conventional(ConventionalNic),
    /// RiceNIC running CDNA firmware.
    Rice(RiceNic),
}

/// A frame delivered by a NIC into some domain's host buffer, awaiting
/// stack processing.
#[derive(Debug, Clone)]
pub struct HostRx {
    /// NIC it arrived on.
    pub nic: usize,
    /// The frame.
    pub frame: Frame,
    /// The buffer it landed in.
    pub buf: BufferSlice,
}

/// A physical driver instance inside a domain, per NIC.
#[derive(Debug)]
pub enum PhysDriver {
    /// Native driver for a conventional NIC.
    Native(NativeDriver),
    /// CDNA driver for a RiceNIC context.
    Cdna(CdnaGuestDriver),
}

/// What a domain does.
#[derive(Debug)]
pub enum Role {
    /// The driver domain on the Xen software-virtualized path.
    DriverXen {
        /// One physical driver per NIC.
        drivers: Vec<PhysDriver>,
    },
    /// The driver domain in CDNA mode: off the data path entirely.
    DriverIdle,
    /// A guest on the Xen path (netfront).
    GuestXen {
        /// Transmit buffer pages.
        tx_pool: Vec<cdna_mem::PageId>,
    },
    /// A guest with direct CDNA access.
    GuestCdna {
        /// One CDNA driver per NIC (one context each).
        drivers: Vec<CdnaGuestDriver>,
    },
    /// The unvirtualized OS (native baseline).
    NativeOs {
        /// One native driver per NIC.
        drivers: Vec<NativeDriver>,
    },
}

/// One domain's scheduling and I/O state.
#[derive(Debug)]
pub struct DomainState {
    /// The domain's id.
    pub id: DomainId,
    /// What it runs.
    pub role: Role,
    /// NIC deliveries awaiting stack processing.
    pub rx_host: VecDeque<HostRx>,
    /// The benchmark workload (guests and the native OS).
    pub workload: Option<crate::GuestWorkload>,
}

impl DomainState {
    fn placeholder() -> Self {
        DomainState {
            id: DomainId::HYPERVISOR,
            role: Role::DriverIdle,
            rx_host: VecDeque::new(),
            workload: None,
        }
    }
}

/// Track-id conventions for exported Chrome traces: one process track
/// for the CPU, one per physical NIC.
pub mod trace {
    /// Process track for the (single) CPU.
    pub const PID_CPU: u32 = 0;

    /// Process track for physical NIC `n`.
    pub fn pid_nic(n: usize) -> u32 {
        1 + n as u32
    }
}

/// Pre-interned registry handles for hot-path counters, so increments
/// on the event path are a plain array add (no hashing, no allocation).
#[derive(Debug, Clone, Copy)]
struct HotIds {
    phys_irq: CounterId,
    guest_virq: CounterId,
    driver_virq: CounterId,
    world_switches: CounterId,
    shadow_violations: CounterId,
}

impl HotIds {
    fn new(reg: &mut Registry) -> Self {
        HotIds {
            phys_irq: reg.counter(MetricKey::new(Domain::Hypervisor, "irq", "physical")),
            guest_virq: reg.counter(MetricKey::new(Domain::Hypervisor, "irq", "guest_virtual")),
            driver_virq: reg.counter(MetricKey::new(Domain::Hypervisor, "irq", "driver_virtual")),
            world_switches: reg.counter(MetricKey::new(
                Domain::Hypervisor,
                "sched",
                "world_switches",
            )),
            shadow_violations: reg.counter(MetricKey::new(
                Domain::Global,
                "check",
                "shadow_violations",
            )),
        }
    }
}

/// Live state of the `cdna-check` DMA shadow checker
/// ([`TestbedConfig::shadow_check`]).
///
/// The world feeds the shadow by *reconciliation* rather than by inline
/// events: the hot path stays untouched, and at each sync point the
/// harness replays the descriptor sequence streams the hypervisor
/// produced since the last pass, diffs the engines' pinned-buffer lists
/// into the page mirror, and then runs the mirror-vs-reality audits.
#[derive(Debug, Default)]
struct ShadowHarness {
    shadow: DmaShadow,
    /// Next unread descriptor-ring index per (nic, ctx, dir).
    cursors: std::collections::BTreeMap<(usize, u8, ShadowDir), u64>,
    /// The engines' pinned-page multiset as of the last sync.
    pinned_view: std::collections::BTreeMap<PageId, u32>,
    /// Violations already surfaced as protection faults.
    reported: usize,
}

#[derive(Debug, Default, Clone, Copy)]
struct CounterSnap {
    switches: u64,
    flips: u64,
    hypercalls: u64,
    rx_dropped: u64,
}

/// Measurement state.
#[derive(Debug, Default)]
pub struct Meters {
    /// TCP payload bytes arriving at the peer (transmit throughput).
    pub tx_payload: RateMeter,
    /// TCP payload bytes delivered to guest applications (receive).
    pub rx_payload: RateMeter,
    /// Physical NIC interrupts.
    pub nic_irq: RateMeter,
    /// Virtual interrupts newly posted to guests.
    pub guest_virq: RateMeter,
    /// Virtual interrupts newly posted to the driver domain.
    pub driver_virq: RateMeter,
    /// Packets counted toward throughput in-window.
    pub packets: u64,
    start_snap: CounterSnap,
    end_snap: CounterSnap,
    in_window: bool,
}

/// A frame that left a rack host through its uplink: captured at wire
/// transmit completion, forwarded by the top-of-rack switch.
#[derive(Debug, Clone)]
pub struct EgressFrame {
    /// When the frame finished serializing onto the host's wire.
    pub at: SimTime,
    /// The NIC (and thus switch port) it departed through.
    pub nic: usize,
    /// The frame itself; `dst` selects the switch's output port.
    pub frame: Frame,
}

/// The complete simulated machine.
#[derive(Debug)]
pub struct SystemWorld {
    /// Run configuration.
    pub cfg: TestbedConfig,
    /// Physical memory.
    pub mem: PhysMem,
    /// All descriptor rings.
    pub rings: RingTable,
    /// Per-NIC PCI bus segments (the Tyan S2882 testbed hosts its NICs
    /// on independent PCI-X segments; each RiceNIC gets a 64-bit/66 MHz
    /// bus of its own).
    pub buses: Vec<PciBus>,
    /// NIC devices.
    pub nics: Vec<NicSlot>,
    /// Per-NIC full-duplex links to the peer.
    pub wires: Vec<GigabitWire>,
    /// Per-NIC protection engines (CDNA NICs only; empty otherwise).
    pub engines: Vec<ProtectionEngine>,
    /// Per-NIC interrupt bit-vector rings in hypervisor memory.
    pub vec_rings: Vec<BitVectorRing>,
    /// The driver domain's software bridge (Xen mode).
    pub bridge: EthernetBridge,
    /// Per-guest paravirtualized channels (Xen mode).
    pub channels: Vec<FrontBackChannel>,
    /// Event channels (virtual interrupts).
    pub evt: EventChannels,
    /// The vcpu run queue.
    pub runq: RunQueue,
    /// CPU time ledger.
    pub ledger: CpuLedger,
    /// All domains: `[0]` is the driver domain (or the native OS).
    pub domains: Vec<DomainState>,
    /// Measurement state.
    pub meters: Meters,
    /// Per-NIC peer traffic sources (receive direction).
    pub peers: Vec<Option<crate::PeerSource>>,
    /// Destination MAC of peer-generated traffic, indexed by
    /// `guest * conns_per_guest + conn`.
    flow_dst: Vec<MacAddr>,
    /// Per-NIC frame the peer is serializing; it lands at the next
    /// [`Event::PeerPump`] on that NIC.
    peer_inflight: Vec<Option<Frame>>,
    /// Per-NIC start of the latest transmit wire reservation, which
    /// must never decrease (see [`SystemWorld::reserve_tx`]).
    tx_reserved_from: Vec<SimTime>,
    /// MACs that terminate on this host; `Some` marks the world as one
    /// host of a rack whose non-local frames leave through the uplink
    /// (see [`SystemWorld::enable_uplink`]).
    local_macs: Option<std::collections::BTreeSet<MacAddr>>,
    /// Per-guest, per-NIC destination override for cross-host flows
    /// (set by the rack; empty for standalone runs).
    remote_dst: Vec<Vec<MacAddr>>,
    /// Frames captured at the uplink this epoch, awaiting the rack's
    /// top-of-rack switch.
    egress: Vec<EgressFrame>,
    /// Per-NIC MACs whose frames the external switch hairpins back to
    /// this host (CDNA inter-VM traffic; empty otherwise).
    hairpin_macs: Vec<std::collections::BTreeSet<MacAddr>>,
    /// Per-guest, per-NIC CDNA context ids.
    pub ctx_of: Vec<Vec<ContextId>>,
    /// Protection faults observed.
    pub faults: Vec<ProtectionFault>,
    /// Receive packets dropped by netback because the destination guest
    /// had no credit pages posted (guest overloaded).
    pub rx_credit_drops: u64,
    /// Deterministic RNG (reserved for jittered extensions).
    pub rng: SimRng,
    /// Metric counters/histograms (`cdna-trace`). Hot paths increment
    /// through pre-interned handles; component stats are copied in by
    /// [`SystemWorld::collect_metrics`] at report time.
    pub registry: Registry,
    hot: HotIds,
    /// DMA shadow checker, present when [`TestbedConfig::shadow_check`]
    /// is set.
    shadow: Option<ShadowHarness>,

    cpu_busy_until: SimTime,
    dispatch_pending: bool,
    pending_irqs: VecDeque<(usize, IrqReason)>,
    dispatch_cost: SimTime,
    nic_irq_count: u64,
}

impl World for SystemWorld {
    type Event = Event;

    fn handle(&mut self, now: SimTime, event: Event, sched: &mut Scheduler<Event>) {
        // Keep the profile sampler's cursor at the event clock so every
        // charge lands in the sampling slice containing `now`.
        self.ledger.advance_to(now);
        match event {
            Event::CpuDispatch => self.on_cpu_dispatch(now, sched),
            Event::PhysIrq { nic, reason } => self.on_phys_irq(now, sched, nic, reason),
            Event::EmissionDue { nic, frame } => {
                let done = self.reserve_tx(now, nic, now, &frame);
                sched.at(now, done, Event::WireTxDone { nic, frame });
            }
            Event::WireTxDone { nic, frame } => self.on_wire_tx_done(now, sched, nic, frame),
            Event::WireRxArrive { nic, frame } => self.on_wire_rx_arrive(now, sched, nic, frame),
            Event::PeerPump { nic } => self.on_peer_pump(now, sched, nic),
            Event::StartMeasure => {
                if let Some(t) = sched.tracer_mut() {
                    t.instant(
                        "start_measure",
                        "measure",
                        now.as_ns(),
                        trace::PID_CPU,
                        0,
                        None,
                    );
                }
                self.on_start_measure(now);
            }
            Event::StopMeasure => {
                if let Some(t) = sched.tracer_mut() {
                    t.instant(
                        "stop_measure",
                        "measure",
                        now.as_ns(),
                        trace::PID_CPU,
                        0,
                        None,
                    );
                }
                self.on_stop_measure(now);
                if self.shadow.is_some() {
                    let new = self.shadow_sync();
                    if let Some(t) = sched.tracer_mut() {
                        t.instant(
                            "shadow_audit",
                            "check",
                            now.as_ns(),
                            trace::PID_CPU,
                            0,
                            Some(("violations", new as u64)),
                        );
                    }
                }
            }
        }
    }
}

impl SystemWorld {
    // ------------------------------------------------------------------
    // Construction
    // ------------------------------------------------------------------

    /// Builds the machine described by `cfg` with all domains, NICs,
    /// rings, pools, and initial receive posting in place.
    pub fn build(cfg: TestbedConfig) -> Self {
        let guests = if cfg.is_virtualized() { cfg.guests } else { 1 };
        // Trailing idle guests keep their full device plumbing but get
        // no workload: prime() never wakes them and per-guest reporting
        // skips them (see TestbedConfig::idle_guests).
        let active_guests = guests - cfg.idle_guests.min(guests);
        let nic_count = cfg.nics as usize;
        let pages = 60_000 + guests as u32 * nic_count as u32 * 1600;
        let mut mem = PhysMem::new(pages);
        let mut rings = RingTable::new();
        let mut engines = Vec::new();
        let mut vec_rings = Vec::new();
        let mut nics = Vec::new();
        let mut wires = Vec::new();
        let mut bridge = EthernetBridge::new();
        let mut channels = Vec::new();
        let mut ctx_of: Vec<Vec<ContextId>> = vec![Vec::new(); guests as usize];
        let mut domains = Vec::new();

        let rng = SimRng::seed_from(cfg.seed);

        match cfg.io_model {
            IoModel::Native { nic } => {
                let os = DomainId::guest(0);
                let mut drivers = Vec::new();
                for i in 0..nic_count {
                    let (dev, drv) =
                        build_conventional(i, nic, os, false, &cfg, &mut mem, &mut rings);
                    nics.push(NicSlot::Conventional(dev));
                    wires.push(GigabitWire::new());
                    drivers.push(drv);
                }
                domains.push(DomainState {
                    id: os,
                    role: Role::NativeOs { drivers },
                    rx_host: VecDeque::new(),
                    workload: Some(crate::GuestWorkload::new(0, cfg.conns_per_guest, cfg.nics)),
                });
            }
            IoModel::XenBridged { nic } => {
                // Driver domain terminates the physical NICs.
                let mut drivers = Vec::new();
                for i in 0..nic_count {
                    match nic {
                        NicKind::Intel => {
                            let (dev, drv) = build_conventional(
                                i,
                                nic,
                                DomainId::DRIVER,
                                true,
                                &cfg,
                                &mut mem,
                                &mut rings,
                            );
                            nics.push(NicSlot::Conventional(dev));
                            drivers.push(PhysDriver::Native(drv));
                        }
                        NicKind::RiceNic => {
                            // The RiceNIC under software virtualization:
                            // dom0 owns one CDNA context; guests have none.
                            let mut dev = RiceNic::new(i as u8, cfg.ricenic.clone());
                            let mut engine = ProtectionEngine::new();
                            let ctx = engine
                                .assign_context(
                                    DomainId::DRIVER,
                                    DmaPolicy::Validated,
                                    cfg.ring_size,
                                    &mut rings,
                                    &mut mem,
                                )
                                .expect("context assignment");
                            let st = engine.contexts().state(ctx).expect("assigned");
                            dev.attach_context(ctx, st.tx_ring, st.rx_ring, true, &rings)
                                .expect("attach");
                            dev.set_promiscuous_ctx(Some(ctx));
                            let drv = CdnaGuestDriver::new(
                                DomainId::DRIVER,
                                ctx,
                                DmaPolicy::Validated,
                                st.tx_ring,
                                st.rx_ring,
                                cfg.ring_size,
                                cfg.ring_size + cfg.batch_limit + 16,
                                cfg.ring_size + cfg.batch_limit + 16,
                                &mut mem,
                            )
                            .expect("driver alloc");
                            // dom0's context MAC stands in for the port;
                            // the device must also accept guests' vif MACs,
                            // which the CDNA firmware demuxes per context —
                            // in softvirt mode all traffic flows through
                            // dom0's single context, so peers address it.
                            nics.push(NicSlot::Rice(dev));
                            engines.push(engine);
                            vec_rings.push(BitVectorRing::new(64));
                            drivers.push(PhysDriver::Cdna(drv));
                        }
                    }
                    wires.push(GigabitWire::new());
                }
                domains.push(DomainState {
                    id: DomainId::DRIVER,
                    role: Role::DriverXen { drivers },
                    rx_host: VecDeque::new(),
                    workload: None,
                });
                for g in 0..guests {
                    let dom = DomainId::guest(g);
                    let mut chan = FrontBackChannel::new(dom, cfg.ring_size as usize);
                    let pool_size = cfg.ring_size + cfg.batch_limit + 16;
                    let tx_pool = mem.alloc_many(dom, pool_size).expect("guest tx pool");
                    for _ in 0..cfg.ring_size {
                        let credit = mem.alloc(dom).expect("guest rx credit");
                        chan.front_post_rx_credit(credit);
                    }
                    channels.push(chan);
                    bridge.learn(MacAddr::for_vif(g), BridgePort::Frontend(dom));
                    domains.push(DomainState {
                        id: dom,
                        role: Role::GuestXen { tx_pool },
                        rx_host: VecDeque::new(),
                        workload: (g < active_guests)
                            .then(|| crate::GuestWorkload::new(g, cfg.conns_per_guest, cfg.nics)),
                    });
                }
                for i in 0..nic_count {
                    bridge.learn(MacAddr::for_peer(i as u8), BridgePort::Physical(i));
                }
            }
            IoModel::Cdna { policy } => {
                for i in 0..nic_count {
                    nics.push(NicSlot::Rice(RiceNic::new(i as u8, cfg.ricenic.clone())));
                    wires.push(GigabitWire::new());
                    engines.push(ProtectionEngine::new());
                    vec_rings.push(BitVectorRing::new(64));
                }
                // Driver domain exists for control but is off the path.
                domains.push(DomainState {
                    id: DomainId::DRIVER,
                    role: Role::DriverIdle,
                    rx_host: VecDeque::new(),
                    workload: None,
                });
                for g in 0..guests {
                    let dom = DomainId::guest(g);
                    let mut drivers = Vec::new();
                    for i in 0..nic_count {
                        let ctx = engines[i]
                            .assign_context(dom, policy, cfg.ring_size, &mut rings, &mut mem)
                            .expect("context assignment");
                        let st = engines[i].contexts().state(ctx).expect("assigned");
                        let NicSlot::Rice(dev) = &mut nics[i] else {
                            unreachable!("CDNA mode uses RiceNICs");
                        };
                        dev.attach_context(
                            ctx,
                            st.tx_ring,
                            st.rx_ring,
                            policy == DmaPolicy::Validated,
                            &rings,
                        )
                        .expect("attach");
                        if policy == DmaPolicy::Iommu {
                            if dev.iommu().is_none() {
                                dev.install_iommu();
                            }
                            dev.iommu_mut().expect("installed").enable(ctx);
                        }
                        ctx_of[g as usize].push(ctx);
                        let pool = cfg.ring_size + cfg.batch_limit + 16;
                        drivers.push(
                            CdnaGuestDriver::new(
                                dom,
                                ctx,
                                policy,
                                st.tx_ring,
                                st.rx_ring,
                                cfg.ring_size,
                                pool,
                                pool,
                                &mut mem,
                            )
                            .expect("driver alloc"),
                        );
                    }
                    domains.push(DomainState {
                        id: dom,
                        role: Role::GuestCdna { drivers },
                        rx_host: VecDeque::new(),
                        workload: (g < active_guests)
                            .then(|| crate::GuestWorkload::new(g, cfg.conns_per_guest, cfg.nics)),
                    });
                }
            }
        }

        let nic_total = cfg.nics;
        let mut registry = Registry::new();
        let hot = HotIds::new(&mut registry);
        let shadow = cfg.shadow_check.then(ShadowHarness::default);
        let mut world = SystemWorld {
            cfg,
            mem,
            rings,
            buses: (0..nic_total).map(|_| PciBus::new_64bit_66mhz()).collect(),
            nics,
            wires,
            engines,
            vec_rings,
            bridge,
            channels,
            evt: EventChannels::new(),
            runq: RunQueue::new(),
            ledger: CpuLedger::new(),
            domains,
            meters: Meters::default(),
            peers: Vec::new(),
            flow_dst: Vec::new(),
            peer_inflight: (0..nic_total).map(|_| None).collect(),
            tx_reserved_from: vec![SimTime::ZERO; nic_total as usize],
            local_macs: None,
            remote_dst: Vec::new(),
            egress: Vec::new(),
            hairpin_macs: (0..nic_total).map(|_| Default::default()).collect(),
            ctx_of,
            faults: Vec::new(),
            rx_credit_drops: 0,
            rng,
            registry,
            hot,
            shadow,
            cpu_busy_until: SimTime::ZERO,
            dispatch_pending: false,
            pending_irqs: VecDeque::new(),
            dispatch_cost: SimTime::ZERO,
            nic_irq_count: 0,
        };
        if world.cfg.inter_guest {
            assert!(
                world.cfg.is_virtualized() && guests >= 2,
                "inter-VM traffic needs two virtualized guests"
            );
            // CDNA inter-VM frames leave the host and come back through
            // the external switch: record which destination MACs hairpin.
            if matches!(world.cfg.io_model, IoModel::Cdna { .. }) {
                for nic in 0..nic_total as usize {
                    let NicSlot::Rice(dev) = &world.nics[nic] else {
                        unreachable!()
                    };
                    for g in 0..guests as usize {
                        let mac = dev.mac_for(world.ctx_of[g][nic]);
                        world.hairpin_macs[nic].insert(mac);
                    }
                }
            }
        }
        world.initial_rx_posting();
        world.build_peer_sources();
        world
    }

    /// Primes every receive path: rx descriptors posted, credits ready.
    fn initial_rx_posting(&mut self) {
        let now = SimTime::ZERO;
        for d in 0..self.domains.len() {
            let mut dom = std::mem::replace(&mut self.domains[d], DomainState::placeholder());
            match &mut dom.role {
                Role::NativeOs { drivers } => {
                    for (i, drv) in drivers.iter_mut().enumerate() {
                        let posted = drv.post_rx(self.cfg.ring_size, &mut self.rings).unwrap();
                        if posted > 0 {
                            if let NicSlot::Conventional(dev) = &mut self.nics[i] {
                                dev.rx_doorbell(drv.rx_producer());
                            }
                        }
                    }
                }
                Role::DriverXen { drivers } => {
                    for (i, drv) in drivers.iter_mut().enumerate() {
                        match drv {
                            PhysDriver::Native(n) => {
                                let posted =
                                    n.post_rx(self.cfg.ring_size, &mut self.rings).unwrap();
                                if posted > 0 {
                                    if let NicSlot::Conventional(dev) = &mut self.nics[i] {
                                        dev.rx_doorbell(n.rx_producer());
                                    }
                                }
                            }
                            PhysDriver::Cdna(c) => {
                                let outcome = c
                                    .post_rx_validated(
                                        self.cfg.ring_size,
                                        &mut self.engines[i],
                                        0,
                                        &mut self.rings,
                                        &mut self.mem,
                                    )
                                    .expect("initial rx post");
                                if let Some(out) = outcome {
                                    if let NicSlot::Rice(dev) = &mut self.nics[i] {
                                        let _ = dev.mailbox_write(
                                            now,
                                            c.ctx(),
                                            Mailbox::RxProducer.index(),
                                            out.producer,
                                            &self.rings,
                                            &mut self.buses[i],
                                        );
                                    }
                                }
                            }
                        }
                    }
                }
                Role::GuestCdna { drivers } => {
                    for (i, drv) in drivers.iter_mut().enumerate() {
                        let producer = match drv.policy() {
                            DmaPolicy::Validated => drv
                                .post_rx_validated(
                                    self.cfg.ring_size,
                                    &mut self.engines[i],
                                    0,
                                    &mut self.rings,
                                    &mut self.mem,
                                )
                                .expect("initial rx post")
                                .map(|o| o.producer),
                            DmaPolicy::Iommu => {
                                let NicSlot::Rice(dev) = &mut self.nics[i] else {
                                    unreachable!()
                                };
                                let iommu = dev.iommu_mut().expect("installed");
                                drv.post_rx_iommu(self.cfg.ring_size, iommu, &mut self.rings)
                                    .map(|(p, _)| p)
                            }
                            DmaPolicy::Unprotected => {
                                drv.post_rx_direct(self.cfg.ring_size, &mut self.rings)
                            }
                        };
                        if let Some(p) = producer {
                            if let NicSlot::Rice(dev) = &mut self.nics[i] {
                                let _ = dev.mailbox_write(
                                    now,
                                    drv.ctx(),
                                    Mailbox::RxProducer.index(),
                                    p,
                                    &self.rings,
                                    &mut self.buses[i],
                                );
                            }
                        }
                    }
                }
                Role::GuestXen { .. } | Role::DriverIdle => {}
            }
            self.domains[d] = dom;
        }
    }

    /// Builds the peer's per-NIC traffic sources and destination map
    /// for receive-direction runs.
    fn build_peer_sources(&mut self) {
        self.peers = (0..self.cfg.nics as usize).map(|_| None).collect();
        if self.cfg.direction != Direction::Receive {
            return;
        }
        let guests = if self.cfg.is_virtualized() {
            self.cfg.guests
        } else {
            1
        };
        let mut per_nic: Vec<Vec<FlowId>> = vec![Vec::new(); self.cfg.nics as usize];
        for g in 0..guests {
            for c in 0..self.cfg.conns_per_guest {
                let nic = (c % self.cfg.nics as u16) as usize;
                per_nic[nic].push(FlowId::new(g, c));
                let dst = self.rx_dst_mac(g, nic);
                self.flow_dst.push(dst);
            }
        }
        for (nic, flows) in per_nic.into_iter().enumerate() {
            if !flows.is_empty() {
                self.peers[nic] = Some(crate::PeerSource::new(flows));
            }
        }
    }

    /// Marks this world as one host of a multi-host rack: transmitted
    /// frames whose destination MAC does not terminate on this host are
    /// captured into the egress buffer (see
    /// [`SystemWorld::drain_egress`]) for the rack's top-of-rack switch
    /// instead of sinking at the local peer.
    pub fn enable_uplink(&mut self) {
        let mut local = std::collections::BTreeSet::new();
        for nic in 0..self.cfg.nics as usize {
            local.insert(MacAddr::for_peer(nic as u8));
            if let NicSlot::Rice(dev) = &self.nics[nic] {
                for per_guest in &self.ctx_of {
                    local.insert(dev.mac_for(per_guest[nic]));
                }
            }
        }
        for g in 0..self.cfg.guests {
            local.insert(MacAddr::for_vif(g));
        }
        self.local_macs = Some(local);
    }

    /// Overrides the destination MAC of every guest transmission:
    /// `dst[g][nic]` addresses guest `g`'s flows on `nic`, typically at
    /// a context on another rack host. Standalone runs never call this.
    pub fn set_remote_dst(&mut self, dst: Vec<Vec<MacAddr>>) {
        self.remote_dst = dst;
    }

    /// Takes the frames captured at the uplink since the last drain,
    /// in wire-completion order.
    pub fn drain_egress(&mut self) -> Vec<EgressFrame> {
        std::mem::take(&mut self.egress)
    }

    /// The destination MAC a frame must carry to reach `guest` on
    /// `nic`: its CDNA context address, or its vif address under Xen.
    /// The rack reads this from the destination host to build the
    /// cross-host [`SystemWorld::set_remote_dst`] table.
    pub fn guest_rx_mac(&self, guest: u16, nic: usize) -> MacAddr {
        self.rx_dst_mac(guest, nic)
    }

    /// Folds a RiceNIC [`Activity`] produced *outside* the event loop
    /// back into the world: faults are recorded, the activity's buffers
    /// are recycled, and the emissions/interrupt it wants scheduled are
    /// returned as `(time, event)` pairs for the caller to hand to
    /// [`cdna_sim::Simulation::schedule`].
    ///
    /// This is the injection seam for adversarial harnesses
    /// (`cdna-fuzz`): a persona drives a device mailbox directly between
    /// `run_until` steps and this method routes the consequences through
    /// exactly the same scheduling rules the event loop uses
    /// (`schedule_emissions` / `schedule_irq`), so an injected run and
    /// an event-loop run handle device activity identically.
    pub fn absorb_nic_activity(
        &mut self,
        now: SimTime,
        nic: usize,
        mut act: Activity,
    ) -> Vec<(SimTime, Event)> {
        let mut events = Vec::new();
        self.faults.extend(act.faults.iter().copied());
        for e in act.emissions.drain(..) {
            let done = self.reserve_tx(now, nic, e.ready_at, &e.frame);
            events.push((
                done,
                Event::WireTxDone {
                    nic,
                    frame: e.frame,
                },
            ));
        }
        if let Some((at, reason)) = act.irq_at {
            events.push((at.max(now), Event::PhysIrq { nic, reason }));
        }
        self.recycle_rice(nic, act);
        events
    }

    /// Destination MAC for guest `g`'s transmissions on `nic`: the
    /// external peer, or — in inter-VM mode — the next sibling guest.
    fn tx_dst_mac(&self, g: u16, nic: usize) -> MacAddr {
        if let Some(mac) = self.remote_dst.get(g as usize).and_then(|v| v.get(nic)) {
            return *mac;
        }
        if !self.cfg.inter_guest {
            return MacAddr::for_peer(nic as u8);
        }
        let guests = self.cfg.guests;
        let partner = (g + 1) % guests;
        match self.cfg.io_model {
            IoModel::XenBridged { .. } => MacAddr::for_vif(partner),
            IoModel::Cdna { .. } => {
                let ctx = self.ctx_of[partner as usize][nic];
                let NicSlot::Rice(dev) = &self.nics[nic] else {
                    unreachable!()
                };
                dev.mac_for(ctx)
            }
            IoModel::Native { .. } => unreachable!("inter-VM needs a VMM"),
        }
    }

    fn rx_dst_mac(&self, guest: u16, nic: usize) -> MacAddr {
        match self.cfg.io_model {
            IoModel::Native { .. } => match &self.nics[nic] {
                NicSlot::Conventional(dev) => dev.mac(),
                NicSlot::Rice(dev) => dev.mac_for(ContextId(1)),
            },
            IoModel::XenBridged { nic: kind } => match kind {
                NicKind::Intel => MacAddr::for_vif(guest),
                // Softvirt RiceNIC: everything lands in dom0's context;
                // the bridge then demuxes on the inner (vif) MAC, which
                // we model by addressing the vif through dom0's context.
                NicKind::RiceNic => MacAddr::for_vif(guest),
            },
            IoModel::Cdna { .. } => {
                let ctx = self.ctx_of[guest as usize][nic];
                match &self.nics[nic] {
                    NicSlot::Rice(dev) => dev.mac_for(ctx),
                    NicSlot::Conventional(_) => unreachable!("CDNA uses RiceNICs"),
                }
            }
        }
    }

    /// The domain index that terminates physical NIC deliveries.
    fn host_domain_index(&self) -> usize {
        // domains[0] is the driver domain (Xen) or the native OS.
        0
    }

    // ------------------------------------------------------------------
    // Measurement
    // ------------------------------------------------------------------

    fn snapshot(&self) -> CounterSnap {
        CounterSnap {
            switches: self.runq.switches(),
            flips: self.channels.iter().map(|c| c.stats().page_flips).sum(),
            hypercalls: self.engines.iter().map(|e| e.stats().hypercalls).sum(),
            rx_dropped: self
                .nics
                .iter()
                .map(|n| match n {
                    NicSlot::Conventional(d) => d.stats().rx_dropped,
                    NicSlot::Rice(d) => d.stats().rx_dropped,
                })
                .sum(),
        }
    }

    fn on_start_measure(&mut self, now: SimTime) {
        self.ledger.start_window(now);
        self.meters.tx_payload.start(now);
        self.meters.rx_payload.start(now);
        self.meters.nic_irq.start(now);
        self.meters.guest_virq.start(now);
        self.meters.driver_virq.start(now);
        self.meters.packets = 0;
        self.meters.start_snap = self.snapshot();
        self.meters.in_window = true;
    }

    fn on_stop_measure(&mut self, now: SimTime) {
        // The CPU may be mid-batch; the ledger only accepts charges
        // inside the window, so close it exactly here.
        self.ledger.close_window(now);
        self.meters.tx_payload.stop(now);
        self.meters.rx_payload.stop(now);
        self.meters.nic_irq.stop(now);
        self.meters.guest_virq.stop(now);
        self.meters.driver_virq.stop(now);
        self.meters.end_snap = self.snapshot();
        self.meters.in_window = false;
    }

    /// Read-only view of the live DMA shadow checker, when
    /// [`TestbedConfig::shadow_check`] is set.
    pub fn shadow(&self) -> Option<&DmaShadow> {
        self.shadow.as_ref().map(|h| &h.shadow)
    }

    /// Runs one shadow-checker synchronisation pass (no-op unless
    /// [`TestbedConfig::shadow_check`] is set):
    ///
    /// 1. replays every descriptor the hypervisor stamped since the
    ///    last pass into the shadow's per-(context, direction)
    ///    sequence streams (detects replay and gaps);
    /// 2. reconciles the protection engines' pinned-buffer lists into
    ///    the page mirror (detects pin-lifecycle violations);
    /// 3. cross-checks the mirror against the engines and — in CDNA
    ///    mode, where every pin traces back to a validated
    ///    descriptor — against the whole [`PhysMem`] pool. (Xen's
    ///    grant-mapping path pins pages outside the engines, so the
    ///    whole-pool audit is only sound without a driver domain.)
    ///
    /// New violations become [`FaultKind::ShadowViolation`] protection
    /// faults attributed to the offending context; the count of new
    /// violations is returned. Called automatically at
    /// [`Event::StopMeasure`]; callers may also invoke it directly at
    /// any quiescent point.
    pub fn shadow_sync(&mut self) -> usize {
        let Some(h) = self.shadow.as_mut() else {
            return 0;
        };
        let modulus = (self.cfg.ring_size * 2).max(4);
        // One pass over every assigned context: gather the engine-side
        // pinned lists and replay newly produced descriptors.
        let mut pinned_lists: Vec<(ContextId, Vec<PageId>)> = Vec::new();
        for (nic, engine) in self.engines.iter().enumerate() {
            for c in 0..=u8::MAX {
                let ctx = ContextId(c);
                let Ok(st) = engine.contexts().state(ctx) else {
                    continue;
                };
                pinned_lists.push((ctx, engine.pinned_pages(ctx)));
                // Only the hypervisor stamps sequence numbers
                // (Validated policy); direct and IOMMU descriptors
                // carry seq 0 and are not stream-checked.
                if st.policy != DmaPolicy::Validated {
                    continue;
                }
                let Some((txp, rxp)) = engine.producers(ctx) else {
                    continue;
                };
                for (dir, ring, prod) in [
                    (ShadowDir::Tx, st.tx_ring, txp),
                    (ShadowDir::Rx, st.rx_ring, rxp),
                ] {
                    let cur = h.cursors.entry((nic, c, dir)).or_insert(0);
                    // Only the last ring-size descriptors still exist;
                    // older slots have been overwritten by later laps.
                    // If the ring wrapped past the cursor since the
                    // last pass, skip ahead and reseed the stream — the
                    // hole's continuity cannot be judged from memory.
                    let oldest = prod.saturating_sub(u64::from(self.cfg.ring_size));
                    if *cur < oldest {
                        h.shadow.reset_seq_on(nic as u16, ctx, dir);
                        *cur = oldest;
                    }
                    while *cur < prod {
                        if let Ok(desc) = self.rings.read(ring, *cur) {
                            h.shadow
                                .observe_seq_on(nic as u16, ctx, dir, desc.seq, modulus);
                        }
                        *cur += 1;
                    }
                }
            }
        }
        // Reconcile the engines' pinned multiset into the page mirror.
        let mut desired: std::collections::BTreeMap<PageId, u32> = Default::default();
        for (_, pages) in &pinned_lists {
            for &page in pages {
                *desired.entry(page).or_insert(0) += 1;
            }
        }
        let keys: std::collections::BTreeSet<PageId> = h
            .pinned_view
            .keys()
            .chain(desired.keys())
            .copied()
            .collect();
        for page in keys {
            let have = h.pinned_view.get(&page).copied().unwrap_or(0);
            let want = desired.get(&page).copied().unwrap_or(0);
            if want > have && h.shadow.state(page) == ShadowState::Free {
                // First sighting: seed ownership from the live pool. An
                // unowned page stays untracked and the pin below is
                // flagged as pin-without-owner — a real violation.
                if let Ok(info) = self.mem.info(page) {
                    if let Some(owner) = info.owner {
                        h.shadow.on_alloc(owner, page);
                    }
                }
            }
            for _ in have..want {
                h.shadow.on_pin(page);
            }
            for _ in want..have {
                h.shadow.on_unpin(page);
            }
            if want == 0 {
                // Fully reaped: retire the mirror entry so the mirror
                // tracks exactly the engine-pinned set.
                if let Some(owner) = h.shadow.owner(page) {
                    h.shadow.on_free(owner, page);
                }
            }
        }
        h.pinned_view = desired;
        // Mirror-vs-reality audits.
        for (ctx, pages) in &pinned_lists {
            h.shadow.audit_pinned(*ctx, pages);
        }
        if matches!(self.cfg.io_model, IoModel::Cdna { .. }) {
            h.shadow.audit_mem(&self.mem);
        }
        // Surface new violations as per-guest protection faults.
        let new = &h.shadow.violations()[h.reported..];
        let count = new.len();
        let faults: Vec<ProtectionFault> = new
            .iter()
            .map(|v| ProtectionFault {
                ctx: v.ctx.unwrap_or(ContextId(0)),
                kind: FaultKind::ShadowViolation {
                    code: v.kind.code(),
                },
            })
            .collect();
        h.reported += count;
        self.faults.extend(faults);
        for _ in 0..count {
            self.registry.inc(self.hot.shadow_violations);
        }
        count
    }

    /// Counter deltas over the measurement window.
    pub fn window_deltas(&self) -> (u64, u64, u64, u64) {
        let s = self.meters.start_snap;
        let e = self.meters.end_snap;
        (
            e.switches - s.switches,
            e.flips - s.flips,
            e.hypercalls - s.hypercalls,
            e.rx_dropped - s.rx_dropped,
        )
    }

    /// Copies the substrate components' lifetime counters into the
    /// metric registry (the hot-path counters are already there). Call
    /// once, when the run ends; the registry then holds the full
    /// per-domain counter table.
    pub fn collect_metrics(&mut self) {
        let reg = &mut self.registry;
        reg.set_by_key(
            MetricKey::new(Domain::Hypervisor, "sched", "switches_total"),
            self.runq.switches(),
        );
        reg.set_by_key(
            MetricKey::new(Domain::Global, "mem", "outstanding_pins"),
            self.mem.outstanding_pins(),
        );
        reg.set_by_key(
            MetricKey::new(Domain::Global, "world", "rx_credit_drops"),
            self.rx_credit_drops,
        );
        reg.set_by_key(
            MetricKey::new(Domain::Global, "world", "protection_faults"),
            self.faults.len() as u64,
        );
        if let Some(h) = &self.shadow {
            let key = |metric| MetricKey::new(Domain::Global, "check", metric);
            reg.set_by_key(key("shadow_events"), h.shadow.events());
            reg.set_by_key(key("shadow_pages_tracked"), h.shadow.pages_tracked() as u64);
            reg.set_by_key(key("shadow_seq_streams"), h.cursors.len() as u64);
        }
        // DMA protection engines live in the hypervisor, one per NIC.
        for (i, engine) in self.engines.iter().enumerate() {
            let s = engine.stats();
            let n = i as u32 + 1;
            let key = |metric| MetricKey::instance(Domain::Hypervisor, "protection", metric, n);
            reg.set_by_key(key("hypercalls"), s.hypercalls);
            reg.set_by_key(key("descriptors_enqueued"), s.descriptors_enqueued);
            reg.set_by_key(key("pages_pinned"), s.pages_pinned);
            reg.set_by_key(key("rejections"), s.rejections);
        }
        for (i, nic) in self.nics.iter().enumerate() {
            let d = Domain::Nic(i as u16);
            match nic {
                NicSlot::Conventional(dev) => {
                    let s = dev.stats();
                    let key = |metric| MetricKey::new(d, "dev", metric);
                    reg.set_by_key(key("tx_frames"), s.tx_frames);
                    reg.set_by_key(key("tx_payload_bytes"), s.tx_payload_bytes);
                    reg.set_by_key(key("rx_frames"), s.rx_frames);
                    reg.set_by_key(key("rx_payload_bytes"), s.rx_payload_bytes);
                    reg.set_by_key(key("rx_dropped"), s.rx_dropped);
                    reg.set_by_key(key("interrupts"), s.interrupts);
                }
                NicSlot::Rice(dev) => {
                    let s = dev.stats();
                    let key = |metric| MetricKey::new(d, "dev", metric);
                    reg.set_by_key(key("tx_frames"), s.tx_frames);
                    reg.set_by_key(key("tx_payload_bytes"), s.tx_payload_bytes);
                    reg.set_by_key(key("rx_frames"), s.rx_frames);
                    reg.set_by_key(key("rx_payload_bytes"), s.rx_payload_bytes);
                    reg.set_by_key(key("rx_dropped"), s.rx_dropped);
                    reg.set_by_key(key("interrupts"), s.interrupts);
                    reg.set_by_key(key("vector_ring_dmas"), s.vectors_flushed);
                    reg.set_by_key(key("faults"), s.faults);
                }
            }
        }
        // Per-guest paravirtualized channel counters (Xen mode).
        for (g, ch) in self.channels.iter().enumerate() {
            let s = ch.stats();
            let key = |metric| MetricKey::new(Domain::Guest(g as u16), "chan", metric);
            reg.set_by_key(key("tx_packets"), s.tx_packets);
            reg.set_by_key(key("rx_packets"), s.rx_packets);
            reg.set_by_key(key("page_flips"), s.page_flips);
            reg.set_by_key(key("grant_maps"), s.grant_maps);
        }
        // Per-guest CDNA context counters, one instance per NIC.
        for (g, ctxs) in self.ctx_of.iter().enumerate() {
            for (nic, &ctx) in ctxs.iter().enumerate() {
                let NicSlot::Rice(dev) = &self.nics[nic] else {
                    continue;
                };
                let Some(c) = dev.context_counters(ctx) else {
                    continue;
                };
                let key = |metric| {
                    MetricKey::instance(Domain::Guest(g as u16), "ctx", metric, nic as u32 + 1)
                };
                reg.set_by_key(key("tx_descriptors"), c.tx_descriptors);
                reg.set_by_key(key("rx_descriptors"), c.rx_descriptors);
                reg.set_by_key(key("seqnum_checks"), c.seq_checks);
            }
        }
    }

    // ------------------------------------------------------------------
    // CPU machinery
    // ------------------------------------------------------------------

    fn charge(&mut self, cat: ExecCategory, dt: SimTime) {
        self.ledger.charge(cat, dt);
        self.dispatch_cost += dt;
    }

    fn kick_cpu(&mut self, now: SimTime, sched: &mut Scheduler<Event>) {
        if self.dispatch_pending {
            return;
        }
        if self.pending_irqs.is_empty() && !self.runq.has_runnable() {
            return;
        }
        let at = now.max(self.cpu_busy_until);
        sched.at(now, at, Event::CpuDispatch);
        self.dispatch_pending = true;
    }

    fn on_cpu_dispatch(&mut self, now: SimTime, sched: &mut Scheduler<Event>) {
        self.dispatch_pending = false;
        debug_assert!(now >= self.cpu_busy_until, "CPU dispatched while busy");
        self.dispatch_cost = SimTime::ZERO;

        let (span_name, span_tid);
        if let Some((nic, reason)) = self.pending_irqs.pop_front() {
            self.service_irq(now, sched, nic, reason);
            (span_name, span_tid) = ("service_irq", 0u32);
        } else if self.runq.has_runnable() {
            let prev = self.runq.last_run();
            let dom = self.runq.pick().expect("runnable");
            let pick = self.cfg.costs.hyp_sched_pick;
            if self.cfg.is_virtualized() {
                self.charge(ExecCategory::Hypervisor, pick);
                if prev != Some(dom) {
                    self.registry.inc(self.hot.world_switches);
                    let sw = self.cfg.costs.hyp_domain_switch;
                    let cp = self.cfg.costs.switch_cache_penalty;
                    self.charge(ExecCategory::Hypervisor, sw);
                    self.charge(ExecCategory::Kernel(dom), cp);
                }
            }
            self.run_domain(now, sched, dom);
            (span_name, span_tid) = ("run_domain", self.domain_index(dom) as u32 + 1);
        } else {
            return; // idle; events will re-kick
        }

        self.cpu_busy_until = now + self.dispatch_cost;
        if self.dispatch_cost > SimTime::ZERO {
            if let Some(t) = sched.tracer_mut() {
                t.span(
                    span_name,
                    "cpu",
                    now.as_ns(),
                    self.dispatch_cost.as_ns(),
                    trace::PID_CPU,
                    span_tid,
                    None,
                );
            }
        }
        self.kick_cpu(now, sched);
    }

    /// The hypervisor-level (or native ISR) part of interrupt handling.
    fn service_irq(
        &mut self,
        _now: SimTime,
        sched: &mut Scheduler<Event>,
        nic: usize,
        _reason: IrqReason,
    ) {
        let costs = self.cfg.costs.clone();
        match self.cfg.io_model {
            IoModel::Native { .. } => {
                let os = self.domains[self.host_domain_index()].id;
                self.charge(ExecCategory::Kernel(os), costs.native_isr);
                self.runq.wake(os);
            }
            IoModel::XenBridged { .. } => {
                self.charge(ExecCategory::Hypervisor, costs.hyp_isr_conventional);
                // CDNA-firmware NICs in softvirt mode deliver through the
                // bit-vector ring even though only dom0 has a context.
                if matches!(self.nics[nic], NicSlot::Rice(_)) {
                    let vector = self.vec_rings[nic].drain();
                    let _ = vector; // dom0 owns every flagged context
                }
                self.meters.driver_virq.add(1);
                self.registry.inc(self.hot.driver_virq);
                if self.evt.send(DomainId::DRIVER, VirtualIrq::NicPhys) {
                    self.charge(ExecCategory::Hypervisor, costs.hyp_evtchn_send);
                }
                self.runq.wake(DomainId::DRIVER);
            }
            IoModel::Cdna { .. } => {
                self.charge(ExecCategory::Hypervisor, costs.hyp_isr_cdna);
                let vector = self.vec_rings[nic].drain();
                for ctx in vector.iter() {
                    let Some(owner) = self.engines[nic].contexts().owner_of(ctx) else {
                        continue;
                    };
                    self.charge(ExecCategory::Hypervisor, costs.hyp_cdna_vint);
                    self.meters.guest_virq.add(1);
                    self.registry.inc(self.hot.guest_virq);
                    if self.evt.send(owner, VirtualIrq::Cdna) {
                        self.charge(ExecCategory::Hypervisor, costs.hyp_evtchn_send);
                    }
                    self.runq.wake(owner);
                }
            }
        }
        let _ = sched;
    }

    // ------------------------------------------------------------------
    // Domain execution
    // ------------------------------------------------------------------

    fn domain_index(&self, dom: DomainId) -> usize {
        if dom == DomainId::DRIVER {
            0
        } else if self.cfg.is_virtualized() {
            dom.0 as usize // guest(g) = DomainId(g+1) → index g+1
        } else {
            0
        }
    }

    fn run_domain(&mut self, now: SimTime, sched: &mut Scheduler<Event>, dom: DomainId) {
        let idx = self.domain_index(dom);
        let mut state = std::mem::replace(&mut self.domains[idx], DomainState::placeholder());
        let costs = self.cfg.costs.clone();

        self.charge(ExecCategory::Kernel(dom), costs.activation_fixed);
        let virqs = self.evt.collect(dom);
        for v in virqs.iter() {
            let c = match (&state.role, v) {
                (Role::DriverXen { .. }, VirtualIrq::NicPhys) => costs.drv_isr,
                _ => costs.virq_upcall,
            };
            self.charge(ExecCategory::Kernel(dom), c);
        }

        let still_runnable = match &mut state.role {
            Role::GuestCdna { .. } => self.run_guest_cdna(now, sched, &mut state),
            Role::GuestXen { .. } => self.run_guest_xen(now, sched, &mut state),
            Role::DriverXen { .. } => self.run_driver_xen(now, sched, &mut state),
            Role::NativeOs { .. } => self.run_native_os(now, sched, &mut state),
            Role::DriverIdle => false,
        };

        if still_runnable {
            self.runq.requeue(dom);
        }
        self.domains[idx] = state;
    }

    /// Puts frames the NIC handed to its MAC on the wire and schedules
    /// their completions. Drains the vector in place so the caller can
    /// hand the emptied activity back to the device for reuse.
    fn schedule_emissions(
        &mut self,
        now: SimTime,
        sched: &mut Scheduler<Event>,
        nic: usize,
        emissions: &mut Vec<TxEmission>,
    ) {
        for e in emissions.drain(..) {
            let done = self.reserve_tx(now, nic, e.ready_at, &e.frame);
            sched.at(
                now,
                done,
                Event::WireTxDone {
                    nic,
                    frame: e.frame,
                },
            );
        }
    }

    /// Reserves `nic`'s transmit wire for `frame` from `ready_at` (or
    /// `now`, if later) behind every frame already reserved, and returns
    /// when its last bit leaves. Reserving at hand-off gives the times
    /// a separate "may start serializing" event would, because each
    /// NIC's hand-off times never decrease (its bus DMA completions are
    /// monotone), so reservation order is start-time order.
    fn reserve_tx(
        &mut self,
        now: SimTime,
        nic: usize,
        ready_at: SimTime,
        frame: &Frame,
    ) -> SimTime {
        let start = ready_at.max(now);
        debug_assert!(
            start >= self.tx_reserved_from[nic],
            "nic {nic}: wire reservation at {start} precedes one at {}",
            self.tx_reserved_from[nic]
        );
        self.tx_reserved_from[nic] = start;
        let gap = self.tx_gap_bytes(nic);
        self.wires[nic].transfer(start, WireDirection::Transmit, frame.wire_bytes() + gap)
    }

    /// Hands a drained RiceNIC activity back to the device so its
    /// buffers back the next operation (allocation-free steady state).
    fn recycle_rice(&mut self, nic: usize, act: Activity) {
        if let NicSlot::Rice(dev) = &mut self.nics[nic] {
            dev.recycle(act);
        }
    }

    /// As [`SystemWorld::recycle_rice`], for the conventional NIC.
    fn recycle_conventional(&mut self, nic: usize, act: TxActivity) {
        if let NicSlot::Conventional(dev) = &mut self.nics[nic] {
            dev.recycle(act);
        }
    }

    fn schedule_irq(
        &mut self,
        now: SimTime,
        sched: &mut Scheduler<Event>,
        nic: usize,
        irq_at: Option<(SimTime, IrqReason)>,
    ) {
        if let Some((at, reason)) = irq_at {
            sched.at(now, at.max(now), Event::PhysIrq { nic, reason });
        }
    }

    fn run_guest_cdna(
        &mut self,
        now: SimTime,
        sched: &mut Scheduler<Event>,
        state: &mut DomainState,
    ) -> bool {
        let dom = state.id;
        let costs = self.cfg.costs.clone();
        let Role::GuestCdna { drivers } = &mut state.role else {
            unreachable!()
        };
        let mut budget = self.cfg.batch_limit;

        // Reclaim transmit completions (consumer writebacks are in host
        // memory; reading them is part of driver cost already). Under the
        // IOMMU policy reclaiming also unmaps the completed buffers.
        for (i, drv) in drivers.iter_mut().enumerate() {
            let NicSlot::Rice(dev) = &mut self.nics[i] else {
                unreachable!()
            };
            let consumer = dev.tx_consumer(drv.ctx());
            if drv.policy() == DmaPolicy::Iommu {
                let iommu = dev.iommu_mut().expect("installed");
                let (_freed, unmapped) = drv.reclaim_tx_iommu(consumer, iommu);
                self.ledger.charge(
                    ExecCategory::Hypervisor,
                    costs.hyp_iommu_unmap * unmapped as u64,
                );
                self.dispatch_cost += costs.hyp_iommu_unmap * unmapped as u64;
            } else {
                let (_freed, _ext) = drv.reclaim_tx(consumer);
            }
        }

        // Receive processing.
        let mut rx_done = 0u32;
        while budget > 0 {
            let Some(rx) = state.rx_host.pop_front() else {
                break;
            };
            let drv = &mut drivers[rx.nic];
            let page = drv.rx_delivered(rx.buf);
            drv.release_rx_page(page);
            if drv.policy() == DmaPolicy::Iommu {
                let NicSlot::Rice(dev) = &mut self.nics[rx.nic] else {
                    unreachable!()
                };
                if dev.iommu_mut().expect("installed").unmap(drv.ctx(), page) {
                    self.charge(ExecCategory::Hypervisor, costs.hyp_iommu_unmap);
                }
            }
            self.charge(
                ExecCategory::Kernel(dom),
                costs.stack_rx_kernel + costs.cdna_drv_rx,
            );
            self.charge(ExecCategory::User(dom), costs.stack_rx_user);
            if self.meters.in_window {
                self.meters.rx_payload.add(rx.frame.tcp_payload as u64);
                self.meters.packets += 1;
            }
            if let Some(w) = &mut state.workload {
                w.record_rx(rx.frame.flow.conn, rx.frame.tcp_payload);
            }
            rx_done += 1;
            budget -= 1;
        }

        // Replenish receive buffers when some were consumed. Posts go
        // through the enqueue hypercall in driver-batch-sized chunks.
        if rx_done > 0 {
            #[allow(clippy::needless_range_loop)] // `i` also indexes self.nics/engines
            for i in 0..drivers.len() {
                let drv = &mut drivers[i];
                let NicSlot::Rice(dev) = &self.nics[i] else {
                    unreachable!()
                };
                let rx_consumer = dev.rx_consumer(drv.ctx());
                let producer = match drv.policy() {
                    DmaPolicy::Validated => {
                        let mut last = None;
                        loop {
                            match drv.post_rx_validated(
                                self.cfg.hypercall_batch,
                                &mut self.engines[i],
                                rx_consumer,
                                &mut self.rings,
                                &mut self.mem,
                            ) {
                                Ok(Some(out)) => {
                                    self.ledger.charge(
                                        ExecCategory::Hypervisor,
                                        costs.hyp_hypercall_fixed
                                            + costs.hyp_validate_desc * out.enqueued as u64
                                            + costs.hyp_reap_desc * out.reaped as u64,
                                    );
                                    self.dispatch_cost += costs.hyp_hypercall_fixed
                                        + costs.hyp_validate_desc * out.enqueued as u64
                                        + costs.hyp_reap_desc * out.reaped as u64;
                                    last = Some(out.producer);
                                    if out.enqueued < self.cfg.hypercall_batch {
                                        break;
                                    }
                                }
                                Ok(None) => break,
                                Err(e) => panic!("benign rx post rejected: {e}"),
                            }
                        }
                        last
                    }
                    DmaPolicy::Iommu => {
                        let NicSlot::Rice(dev) = &mut self.nics[i] else {
                            unreachable!()
                        };
                        let iommu = dev.iommu_mut().expect("installed");
                        match drv.post_rx_iommu(self.cfg.batch_limit, iommu, &mut self.rings) {
                            Some((p, mapped)) => {
                                self.ledger.charge(
                                    ExecCategory::Hypervisor,
                                    costs.hyp_hypercall_fixed + costs.hyp_iommu_map * mapped as u64,
                                );
                                self.dispatch_cost +=
                                    costs.hyp_hypercall_fixed + costs.hyp_iommu_map * mapped as u64;
                                Some(p)
                            }
                            None => None,
                        }
                    }
                    DmaPolicy::Unprotected => {
                        drv.post_rx_direct(self.cfg.batch_limit, &mut self.rings)
                    }
                };
                if let Some(p) = producer {
                    self.charge(ExecCategory::Kernel(dom), costs.pio_write);
                    drv.note_pio();
                    let NicSlot::Rice(dev) = &mut self.nics[i] else {
                        unreachable!()
                    };
                    let mut act = dev
                        .mailbox_write(
                            now,
                            drv.ctx(),
                            Mailbox::RxProducer.index(),
                            p,
                            &self.rings,
                            &mut self.buses[i],
                        )
                        .expect("mailbox write");
                    self.faults.extend(act.faults.iter().copied());
                    let irq = act.irq_at;
                    self.schedule_emissions(now, sched, i, &mut act.emissions);
                    self.schedule_irq(now, sched, i, irq);
                    self.recycle_rice(i, act);
                }
            }
        }

        // Transmit generation.
        let mut queued_any = false;
        if self.cfg.direction == Direction::Transmit {
            let mut failures = 0u32;
            while budget > 0 && failures < self.cfg.conns_per_guest as u32 {
                let Some(w) = &mut state.workload else { break };
                // Peek the next unit; only commit if it queues (a full
                // ring on one NIC must not starve the others).
                let unit = w.next_tx();
                let nic = unit.nic;
                let drv = &mut drivers[nic];
                let src = match &self.nics[nic] {
                    NicSlot::Rice(dev) => dev.mac_for(drv.ctx()),
                    NicSlot::Conventional(_) => unreachable!(),
                };
                let meta = FrameMeta {
                    dst: self.tx_dst_mac(unit.flow.guest, nic),
                    src,
                    tcp_payload: framing::MSS,
                    flow: unit.flow,
                    seq: unit.seq,
                };
                if !drv.queue_tx(meta) {
                    failures += 1;
                    continue;
                }
                failures = 0;
                w.commit_tx(unit, framing::MSS);
                self.charge(
                    ExecCategory::Kernel(dom),
                    costs.stack_tx_kernel + costs.cdna_drv_tx,
                );
                self.charge(ExecCategory::User(dom), costs.stack_tx_user);
                queued_any = true;
                budget -= 1;
                if drv.pending_tx() as u32 >= self.cfg.hypercall_batch {
                    self.flush_cdna_tx(now, sched, dom, drivers, nic);
                }
            }
            // Flush stragglers on every NIC.
            for nic in 0..drivers.len() {
                if drivers[nic].pending_tx() > 0 {
                    self.flush_cdna_tx(now, sched, dom, drivers, nic);
                }
            }
        }
        let _ = queued_any;

        // Still runnable? Pending receive work or transmit headroom.
        let more_rx = !state.rx_host.is_empty();
        // A workload-less (idle) guest has nothing to transmit: without
        // the workload check it would requeue forever once an interrupt
        // wakes it, spinning the CPU for the rest of the run.
        let more_tx = self.cfg.direction == Direction::Transmit
            && state.workload.is_some()
            && drivers.iter().any(|d| d.can_queue_tx());
        more_rx || more_tx
    }

    fn flush_cdna_tx(
        &mut self,
        now: SimTime,
        sched: &mut Scheduler<Event>,
        dom: DomainId,
        drivers: &mut [CdnaGuestDriver],
        nic: usize,
    ) {
        let costs = self.cfg.costs.clone();
        let drv = &mut drivers[nic];
        let NicSlot::Rice(dev) = &mut self.nics[nic] else {
            unreachable!()
        };
        let producer = match drv.policy() {
            DmaPolicy::Validated => {
                let engine = if self.engines.len() > nic {
                    &mut self.engines[nic]
                } else {
                    unreachable!("validated context without engine")
                };
                match drv.flush_tx_validated(
                    engine,
                    dev.tx_consumer(drv.ctx()),
                    &mut self.rings,
                    &mut self.mem,
                ) {
                    Ok(Some(out)) => {
                        self.ledger.charge(
                            ExecCategory::Hypervisor,
                            costs.hyp_hypercall_fixed
                                + costs.hyp_validate_desc * out.enqueued as u64
                                + costs.hyp_reap_desc * out.reaped as u64,
                        );
                        self.dispatch_cost += costs.hyp_hypercall_fixed
                            + costs.hyp_validate_desc * out.enqueued as u64
                            + costs.hyp_reap_desc * out.reaped as u64;
                        Some(out.producer)
                    }
                    Ok(None) => None,
                    Err(e) => panic!("benign tx flush rejected: {e}"),
                }
            }
            DmaPolicy::Iommu => {
                let iommu = dev.iommu_mut().expect("installed");
                match drv.flush_tx_iommu(iommu, &mut self.rings) {
                    Some((p, mapped)) => {
                        self.ledger.charge(
                            ExecCategory::Hypervisor,
                            costs.hyp_hypercall_fixed + costs.hyp_iommu_map * mapped as u64,
                        );
                        self.dispatch_cost +=
                            costs.hyp_hypercall_fixed + costs.hyp_iommu_map * mapped as u64;
                        Some(p)
                    }
                    None => None,
                }
            }
            DmaPolicy::Unprotected => drv.flush_tx_direct(&mut self.rings),
        };
        if let Some(p) = producer {
            self.ledger
                .charge(ExecCategory::Kernel(dom), costs.pio_write);
            self.dispatch_cost += costs.pio_write;
            drv.note_pio();
            let mut act = dev
                .mailbox_write(
                    now,
                    drv.ctx(),
                    Mailbox::TxProducer.index(),
                    p,
                    &self.rings,
                    &mut self.buses[nic],
                )
                .expect("mailbox write");
            self.faults.extend(act.faults.iter().copied());
            let irq = act.irq_at;
            self.schedule_emissions(now, sched, nic, &mut act.emissions);
            self.schedule_irq(now, sched, nic, irq);
            self.recycle_rice(nic, act);
        }
    }

    fn run_guest_xen(
        &mut self,
        _now: SimTime,
        sched: &mut Scheduler<Event>,
        state: &mut DomainState,
    ) -> bool {
        let dom = state.id;
        let costs = self.cfg.costs.clone();
        let guest_index = (dom.0 - 1) as usize;
        let Role::GuestXen { tx_pool } = &mut state.role else {
            unreachable!()
        };
        let mut budget = self.cfg.batch_limit;
        let chan = &mut self.channels[guest_index];

        // Reclaim transmit completions.
        for page in chan.front_take_tx_done() {
            tx_pool.push(page);
        }

        // Receive processing: consume delivered packets, repost pages as
        // credit.
        let pkts = chan.front_rx_take(budget as usize);
        for pkt in pkts {
            self.ledger.charge(
                ExecCategory::Kernel(dom),
                costs.stack_rx_kernel + costs.netfront_rx,
            );
            self.dispatch_cost += costs.stack_rx_kernel + costs.netfront_rx;
            self.ledger
                .charge(ExecCategory::User(dom), costs.stack_rx_user);
            self.dispatch_cost += costs.stack_rx_user;
            if self.meters.in_window {
                self.meters.rx_payload.add(pkt.frame.tcp_payload as u64);
                self.meters.packets += 1;
            }
            if let Some(w) = &mut state.workload {
                w.record_rx(pkt.frame.flow.conn, pkt.frame.tcp_payload);
            }
            self.channels[guest_index].front_post_rx_credit(pkt.page);
            budget -= 1;
            if budget == 0 {
                break;
            }
        }

        // Transmit generation.
        let mut pushed = 0u32;
        if self.cfg.direction == Direction::Transmit {
            while budget > 0 {
                let Some(w) = &mut state.workload else { break };
                let chan = &mut self.channels[guest_index];
                if chan.tx_free() == 0 || tx_pool.is_empty() {
                    break;
                }
                let unit = w.next_tx();
                let guest_no = w.guest();
                let dst = self.tx_dst_mac(guest_no, unit.nic);
                let chan = &mut self.channels[guest_index];
                let frame = Frame::tcp_data(
                    MacAddr::for_vif(guest_no),
                    dst,
                    framing::MSS,
                    unit.flow,
                    unit.seq,
                );
                let page = tx_pool.pop().expect("checked");
                chan.front_tx_push(PvPacket { frame, page })
                    .expect("checked free slot");
                w.commit_tx(unit, framing::MSS);
                self.charge(
                    ExecCategory::Kernel(dom),
                    costs.stack_tx_kernel + costs.netfront_tx,
                );
                self.charge(ExecCategory::User(dom), costs.stack_tx_user);
                pushed += 1;
                budget -= 1;
            }
            if pushed > 0 {
                self.charge(ExecCategory::Hypervisor, costs.hyp_evtchn_send);
                self.meters.driver_virq.add(1);
                self.registry.inc(self.hot.driver_virq);
                self.evt.send(DomainId::DRIVER, VirtualIrq::Netback);
                self.runq.wake(DomainId::DRIVER);
            }
        }
        let _ = sched;

        let chan = &self.channels[guest_index];
        let more_rx = chan.rx_pending() > 0;
        let more_tx = self.cfg.direction == Direction::Transmit
            && state.workload.is_some()
            && chan.tx_free() > 0
            && !tx_pool.is_empty();
        more_rx || more_tx
    }

    fn run_driver_xen(
        &mut self,
        now: SimTime,
        sched: &mut Scheduler<Event>,
        state: &mut DomainState,
    ) -> bool {
        let dom = state.id;
        let costs = self.cfg.costs.clone();
        let Role::DriverXen { drivers } = &mut state.role else {
            unreachable!()
        };
        let mut budget = self.cfg.batch_limit;

        // Reap completed CDNA descriptors first so delivered receive
        // pages are unpinned before netback flips them to guests.
        for (i, drv) in drivers.iter_mut().enumerate() {
            if let PhysDriver::Cdna(c) = drv {
                let NicSlot::Rice(dev) = &self.nics[i] else {
                    unreachable!()
                };
                let reaped = self.engines[i]
                    .reap(
                        c.ctx(),
                        dev.tx_consumer(c.ctx()),
                        dev.rx_consumer(c.ctx()),
                        &mut self.mem,
                    )
                    .expect("dom0 reap");
                self.ledger.charge(
                    ExecCategory::Hypervisor,
                    costs.hyp_reap_desc * reaped as u64,
                );
                self.dispatch_cost += costs.hyp_reap_desc * reaped as u64;
            }
        }

        // --- Physical NIC ingress (receive path) ---
        // Per-guest count of new work since the last notification;
        // netback notifies every `notify_batch` packets and flushes the
        // remainder at the end of the pass.
        let mut pending_notify: Vec<u32> = vec![0; self.channels.len()];
        while budget > 0 {
            let Some(rx) = state.rx_host.pop_front() else {
                break;
            };
            budget -= 1;
            // Native/CDNA driver releases the posted page.
            let (page, drv_cost) = match &mut drivers[rx.nic] {
                PhysDriver::Native(n) => (n.rx_delivered(rx.buf), costs.native_drv_rx),
                PhysDriver::Cdna(c) => (c.rx_delivered(rx.buf), costs.cdna_dom0_drv_rx),
            };
            self.charge(
                ExecCategory::Kernel(dom),
                drv_cost + costs.bridge_per_packet + costs.netback_rx,
            );
            let dst = self.bridge.lookup(rx.frame.dst);
            match dst {
                Some(BridgePort::Frontend(guest)) => {
                    let gidx = (guest.0 - 1) as usize;
                    match self.channels[gidx].back_rx_push(rx.frame.clone(), page, &mut self.mem) {
                        Ok(credit) => {
                            self.charge(ExecCategory::Hypervisor, costs.hyp_page_flip);
                            match &mut drivers[rx.nic] {
                                PhysDriver::Native(n) => n.donate_rx_page(credit),
                                PhysDriver::Cdna(c) => c.release_rx_page(credit),
                            }
                            pending_notify[gidx] += 1;
                            if pending_notify[gidx] >= self.cfg.notify_batch {
                                pending_notify[gidx] = 0;
                                self.notify_frontend(guest);
                            }
                        }
                        Err(_) => {
                            // Guest out of credits: drop, reuse the page.
                            self.rx_credit_drops += 1;
                            match &mut drivers[rx.nic] {
                                PhysDriver::Native(n) => n.release_rx_page(page),
                                PhysDriver::Cdna(c) => c.release_rx_page(page),
                            }
                        }
                    }
                }
                _ => {
                    // Unknown destination: drop.
                    match &mut drivers[rx.nic] {
                        PhysDriver::Native(n) => n.release_rx_page(page),
                        PhysDriver::Cdna(c) => c.release_rx_page(page),
                    }
                }
            }
        }
        // Replenish physical receive rings.
        for (i, drv) in drivers.iter_mut().enumerate() {
            self.replenish_phys_rx(now, sched, dom, drv, i);
        }

        // --- Frontend egress (transmit path) ---
        let guest_count = self.channels.len();
        let mut doorbell_nics: Vec<usize> = Vec::new();
        if guest_count > 0 {
            // Netback scans every frontend ring each pass.
            self.charge(
                ExecCategory::Kernel(dom),
                costs.netback_scan_per_channel * guest_count as u64,
            );
            let share = (budget as usize / guest_count).max(1);
            for g in 0..guest_count {
                if budget == 0 {
                    break;
                }
                let take = share.min(budget as usize);
                let pkts = match self.channels[g].back_tx_take(take, &mut self.mem) {
                    Ok(p) => p,
                    Err(e) => panic!("trusted frontend failed grant map: {e}"),
                };
                for pkt in pkts {
                    budget -= 1;
                    let nic = match self.bridge.lookup(pkt.frame.dst) {
                        Some(BridgePort::Physical(n)) => n,
                        Some(BridgePort::Frontend(dst_dom)) => {
                            // Guest-to-guest: the software bridge switches
                            // the packet in host memory — copy into a
                            // fresh dom0 page, flip it to the destination,
                            // and complete the source immediately.
                            self.charge(
                                ExecCategory::Kernel(dom),
                                costs.netback_tx + costs.bridge_per_packet + costs.netback_rx,
                            );
                            let dst_idx = (dst_dom.0 - 1) as usize;
                            if let Ok(page) = self.mem.alloc(DomainId::DRIVER) {
                                match self.channels[dst_idx].back_rx_push(
                                    pkt.frame.clone(),
                                    page,
                                    &mut self.mem,
                                ) {
                                    Ok(credit) => {
                                        self.charge(ExecCategory::Hypervisor, costs.hyp_page_flip);
                                        self.mem
                                            .free(DomainId::DRIVER, credit)
                                            .expect("fresh credit page");
                                        pending_notify[dst_idx] += 1;
                                        if pending_notify[dst_idx] >= self.cfg.notify_batch {
                                            pending_notify[dst_idx] = 0;
                                            self.notify_frontend(dst_dom);
                                        }
                                    }
                                    Err(_) => {
                                        // Destination out of credits: drop.
                                        self.mem.free(DomainId::DRIVER, page).expect("fresh page");
                                    }
                                }
                            }
                            self.channels[g].back_tx_complete_page(pkt.page, &mut self.mem);
                            pending_notify[g] += 1;
                            if pending_notify[g] >= self.cfg.notify_batch {
                                pending_notify[g] = 0;
                                let src_dom = self.channels[g].guest();
                                self.notify_frontend(src_dom);
                            }
                            continue;
                        }
                        None => continue, // unknown: drop
                    };
                    // With a CDNA context the enqueue hypercall performs
                    // the pinning, so no separate grant-map charge.
                    let drv_cost = match &drivers[nic] {
                        PhysDriver::Native(_) => {
                            self.charge(ExecCategory::Hypervisor, costs.hyp_grant_map);
                            costs.native_drv_tx
                        }
                        PhysDriver::Cdna(_) => costs.cdna_dom0_drv_tx,
                    };
                    self.charge(
                        ExecCategory::Kernel(dom),
                        costs.netback_tx + costs.bridge_per_packet + drv_cost,
                    );
                    let guest = self.channels[g].guest();
                    let meta = FrameMeta {
                        dst: pkt.frame.dst,
                        src: pkt.frame.src,
                        tcp_payload: pkt.frame.tcp_payload,
                        flow: pkt.frame.flow,
                        seq: pkt.frame.seq,
                    };
                    let buf = BufferSlice::new(pkt.page.base_addr(), pkt.frame.buffer_bytes());
                    let ok = match &mut drivers[nic] {
                        PhysDriver::Native(n) => {
                            n.queue_tx_extern(buf, meta, guest, &mut self.rings).is_ok()
                        }
                        PhysDriver::Cdna(c) => c.queue_tx_extern(buf, meta, guest),
                    };
                    if ok && !doorbell_nics.contains(&nic) {
                        doorbell_nics.push(nic);
                    }
                }
            }
        }
        // Ring doorbells for NICs with new work.
        for nic in doorbell_nics {
            self.charge(ExecCategory::Kernel(dom), costs.pio_write);
            match &mut drivers[nic] {
                PhysDriver::Native(n) => {
                    n.note_doorbell();
                    let NicSlot::Conventional(dev) = &mut self.nics[nic] else {
                        unreachable!()
                    };
                    let mut act = dev
                        .tx_doorbell(now, n.tx_producer(), &self.rings, &mut self.buses[nic])
                        .expect("doorbell");
                    let irq = act.irq_at.map(|t| (t, IrqReason::Tx));
                    self.schedule_emissions(now, sched, nic, &mut act.emissions);
                    self.schedule_irq(now, sched, nic, irq);
                    self.recycle_conventional(nic, act);
                }
                PhysDriver::Cdna(c) => {
                    // dom0's CDNA context: flush through the hypervisor.
                    let NicSlot::Rice(dev) = &mut self.nics[nic] else {
                        unreachable!()
                    };
                    match c.flush_tx_validated(
                        &mut self.engines[nic],
                        dev.tx_consumer(c.ctx()),
                        &mut self.rings,
                        &mut self.mem,
                    ) {
                        Ok(Some(out)) => {
                            self.ledger.charge(
                                ExecCategory::Hypervisor,
                                costs.hyp_hypercall_fixed
                                    + costs.hyp_validate_desc * out.enqueued as u64
                                    + costs.hyp_reap_desc * out.reaped as u64,
                            );
                            self.dispatch_cost += costs.hyp_hypercall_fixed
                                + costs.hyp_validate_desc * out.enqueued as u64
                                + costs.hyp_reap_desc * out.reaped as u64;
                            c.note_pio();
                            let mut act = dev
                                .mailbox_write(
                                    now,
                                    c.ctx(),
                                    Mailbox::TxProducer.index(),
                                    out.producer,
                                    &self.rings,
                                    &mut self.buses[nic],
                                )
                                .expect("mailbox write");
                            self.faults.extend(act.faults.iter().copied());
                            let irq = act.irq_at;
                            self.schedule_emissions(now, sched, nic, &mut act.emissions);
                            self.schedule_irq(now, sched, nic, irq);
                            self.recycle_rice(nic, act);
                        }
                        Ok(None) => {}
                        Err(e) => panic!("dom0 tx flush rejected: {e}"),
                    }
                }
            }
        }

        // --- Transmit completion reclaim ---
        #[allow(clippy::needless_range_loop)] // `nic` also indexes self.nics
        for nic in 0..drivers.len() {
            let (extern_done, unmap_charges) = match &mut drivers[nic] {
                PhysDriver::Native(n) => {
                    let NicSlot::Conventional(dev) = &self.nics[nic] else {
                        unreachable!()
                    };
                    let done = n.reclaim_tx(dev.tx_consumer());
                    let c = done.len() as u64;
                    (done, c)
                }
                PhysDriver::Cdna(c) => {
                    let NicSlot::Rice(dev) = &self.nics[nic] else {
                        unreachable!()
                    };
                    let (_pool, done) = c.reclaim_tx(dev.tx_consumer(c.ctx()));
                    // Unpinning happened through the engine reap above.
                    (done, 0)
                }
            };
            self.charge(
                ExecCategory::Hypervisor,
                costs.hyp_grant_unmap * unmap_charges,
            );
            for guest in extern_done {
                let gidx = (guest.0 - 1) as usize;
                self.channels[gidx].back_tx_complete(1, &mut self.mem);
                pending_notify[gidx] += 1;
                if pending_notify[gidx] >= self.cfg.notify_batch {
                    pending_notify[gidx] = 0;
                    self.notify_frontend(guest);
                }
            }
        }

        // Flush remaining notifications.
        for (gidx, count) in pending_notify.into_iter().enumerate() {
            if count > 0 {
                self.notify_frontend(DomainId::guest(gidx as u16));
            }
        }

        let more_rx = !state.rx_host.is_empty();
        let more_tx = self.channels.iter().any(|c| c.tx_pending() > 0);
        more_rx || more_tx
    }

    fn replenish_phys_rx(
        &mut self,
        now: SimTime,
        sched: &mut Scheduler<Event>,
        dom: DomainId,
        driver: &mut PhysDriver,
        nic: usize,
    ) {
        let costs = self.cfg.costs.clone();
        match driver {
            PhysDriver::Native(n) => {
                let posted = n
                    .post_rx(self.cfg.batch_limit, &mut self.rings)
                    .expect("rx post");
                if posted > 0 {
                    self.charge(ExecCategory::Kernel(dom), costs.pio_write);
                    let NicSlot::Conventional(dev) = &mut self.nics[nic] else {
                        unreachable!()
                    };
                    dev.rx_doorbell(n.rx_producer());
                }
            }
            PhysDriver::Cdna(c) => {
                let NicSlot::Rice(dev) = &mut self.nics[nic] else {
                    unreachable!()
                };
                let rx_consumer = dev.rx_consumer(c.ctx());
                match c.post_rx_validated(
                    self.cfg.batch_limit,
                    &mut self.engines[nic],
                    rx_consumer,
                    &mut self.rings,
                    &mut self.mem,
                ) {
                    Ok(Some(out)) => {
                        self.ledger.charge(
                            ExecCategory::Hypervisor,
                            costs.hyp_hypercall_fixed
                                + costs.hyp_validate_desc * out.enqueued as u64
                                + costs.hyp_reap_desc * out.reaped as u64,
                        );
                        self.dispatch_cost += costs.hyp_hypercall_fixed
                            + costs.hyp_validate_desc * out.enqueued as u64
                            + costs.hyp_reap_desc * out.reaped as u64;
                        self.ledger
                            .charge(ExecCategory::Kernel(dom), costs.pio_write);
                        self.dispatch_cost += costs.pio_write;
                        let mut act = dev
                            .mailbox_write(
                                now,
                                c.ctx(),
                                Mailbox::RxProducer.index(),
                                out.producer,
                                &self.rings,
                                &mut self.buses[nic],
                            )
                            .expect("mailbox write");
                        self.faults.extend(act.faults.iter().copied());
                        let irq = act.irq_at;
                        self.schedule_emissions(now, sched, nic, &mut act.emissions);
                        self.schedule_irq(now, sched, nic, irq);
                        self.recycle_rice(nic, act);
                    }
                    Ok(None) => {}
                    Err(e) => panic!("dom0 rx post rejected: {e}"),
                }
            }
        }
    }

    /// Netback notifies a frontend of new receive packets or transmit
    /// completions.
    fn notify_frontend(&mut self, guest: DomainId) {
        let send = self.cfg.costs.hyp_evtchn_send;
        self.charge(ExecCategory::Hypervisor, send);
        self.meters.guest_virq.add(1);
        self.registry.inc(self.hot.guest_virq);
        self.evt.send(guest, VirtualIrq::Netfront);
        self.runq.wake(guest);
    }

    fn run_native_os(
        &mut self,
        now: SimTime,
        sched: &mut Scheduler<Event>,
        state: &mut DomainState,
    ) -> bool {
        let dom = state.id;
        let costs = self.cfg.costs.clone();
        let Role::NativeOs { drivers } = &mut state.role else {
            unreachable!()
        };
        let mut budget = self.cfg.batch_limit;

        // Reclaim transmit completions.
        for (i, drv) in drivers.iter_mut().enumerate() {
            let NicSlot::Conventional(dev) = &self.nics[i] else {
                unreachable!()
            };
            let _ = drv.reclaim_tx(dev.tx_consumer());
        }

        // Receive.
        let mut rx_done = 0;
        while budget > 0 {
            let Some(rx) = state.rx_host.pop_front() else {
                break;
            };
            let drv = &mut drivers[rx.nic];
            let page = drv.rx_delivered(rx.buf);
            drv.release_rx_page(page);
            self.charge(
                ExecCategory::Kernel(dom),
                costs.stack_rx_kernel + costs.native_drv_rx,
            );
            self.charge(ExecCategory::User(dom), costs.stack_rx_user);
            if self.meters.in_window {
                self.meters.rx_payload.add(rx.frame.tcp_payload as u64);
                self.meters.packets += 1;
            }
            if let Some(w) = &mut state.workload {
                w.record_rx(rx.frame.flow.conn, rx.frame.tcp_payload);
            }
            rx_done += 1;
            budget -= 1;
        }
        if rx_done > 0 {
            for (i, drv) in drivers.iter_mut().enumerate() {
                let posted = drv
                    .post_rx(self.cfg.batch_limit, &mut self.rings)
                    .expect("rx post");
                if posted > 0 {
                    self.charge(ExecCategory::Kernel(dom), costs.pio_write);
                    let NicSlot::Conventional(dev) = &mut self.nics[i] else {
                        unreachable!()
                    };
                    dev.rx_doorbell(drv.rx_producer());
                }
            }
        }

        // Transmit.
        if self.cfg.direction == Direction::Transmit {
            let mut doorbells: Vec<usize> = Vec::new();
            let mut failures = 0u32;
            while budget > 0 && failures < self.cfg.conns_per_guest as u32 {
                let Some(w) = &mut state.workload else { break };
                let unit = w.next_tx();
                let nic = unit.nic;
                let drv = &mut drivers[nic];
                if !drv.can_queue_tx(&self.rings) {
                    failures += 1;
                    continue;
                }
                failures = 0;
                let NicSlot::Conventional(dev) = &self.nics[nic] else {
                    unreachable!()
                };
                let meta = FrameMeta {
                    dst: MacAddr::for_peer(nic as u8),
                    src: dev.mac(),
                    tcp_payload: framing::MSS,
                    flow: unit.flow,
                    seq: unit.seq,
                };
                drv.queue_tx(meta, &mut self.rings).expect("checked");
                w.commit_tx(unit, framing::MSS);
                self.charge(
                    ExecCategory::Kernel(dom),
                    costs.stack_tx_kernel + costs.native_drv_tx,
                );
                self.charge(ExecCategory::User(dom), costs.stack_tx_user);
                budget -= 1;
                if !doorbells.contains(&nic) {
                    doorbells.push(nic);
                }
            }
            for nic in doorbells {
                self.charge(ExecCategory::Kernel(dom), costs.pio_write);
                let drv = &mut drivers[nic];
                drv.note_doorbell();
                let NicSlot::Conventional(dev) = &mut self.nics[nic] else {
                    unreachable!()
                };
                let mut act = dev
                    .tx_doorbell(now, drv.tx_producer(), &self.rings, &mut self.buses[nic])
                    .expect("doorbell");
                let irq = act.irq_at.map(|t| (t, IrqReason::Tx));
                self.schedule_emissions(now, sched, nic, &mut act.emissions);
                self.schedule_irq(now, sched, nic, irq);
                self.recycle_conventional(nic, act);
            }
        }

        let more_rx = !state.rx_host.is_empty();
        let more_tx = self.cfg.direction == Direction::Transmit
            && drivers.iter().any(|d| d.can_queue_tx(&self.rings));
        more_rx || more_tx
    }

    // ------------------------------------------------------------------
    // NIC/wire events
    // ------------------------------------------------------------------

    fn on_phys_irq(
        &mut self,
        now: SimTime,
        sched: &mut Scheduler<Event>,
        nic: usize,
        reason: IrqReason,
    ) {
        // The hardware raises the line and (CDNA) flushes the interrupt
        // bit vector now; the hypervisor/OS services it at the next CPU
        // dispatch boundary.
        match &mut self.nics[nic] {
            NicSlot::Conventional(dev) => dev.irq_fired(now, reason),
            NicSlot::Rice(dev) => {
                let _ = dev.irq_fired(now, reason, &mut self.vec_rings[nic], &mut self.buses[nic]);
            }
        }
        self.nic_irq_count += 1;
        self.meters.nic_irq.add(1);
        self.registry.inc(self.hot.phys_irq);
        if let Some(t) = sched.tracer_mut() {
            t.instant("phys_irq", "irq", now.as_ns(), trace::pid_nic(nic), 0, None);
        }
        self.pending_irqs.push_back((nic, reason));
        self.kick_cpu(now, sched);
    }

    fn tx_gap_bytes(&self, nic: usize) -> u32 {
        match &self.nics[nic] {
            NicSlot::Rice(dev) => (dev.config().mac_tx_gap.as_ns() / 8) as u32,
            NicSlot::Conventional(_) => 0,
        }
    }

    fn rx_gap_bytes(&self, nic: usize) -> u32 {
        match &self.nics[nic] {
            NicSlot::Rice(dev) => (dev.config().mac_rx_gap.as_ns() / 8) as u32,
            NicSlot::Conventional(_) => 0,
        }
    }

    fn on_wire_tx_done(
        &mut self,
        now: SimTime,
        sched: &mut Scheduler<Event>,
        nic: usize,
        frame: Frame,
    ) {
        // The peer (or switch) takes the frame: transmit measurement.
        if self.meters.in_window {
            self.meters.tx_payload.add(frame.tcp_payload as u64);
            self.meters.packets += 1;
        }
        // Rack uplink: a frame addressed off-host is handed to the
        // top-of-rack switch; local NIC completion still runs below.
        if let Some(local) = &self.local_macs {
            if !local.contains(&frame.dst) {
                self.egress.push(EgressFrame {
                    at: now,
                    nic,
                    frame: frame.clone(),
                });
            }
        }
        // Inter-VM CDNA traffic: the external switch forwards the frame
        // straight back toward the destination guest's context.
        if self.hairpin_macs[nic].contains(&frame.dst) {
            let gap = self.rx_gap_bytes(nic);
            let done =
                self.wires[nic].transfer(now, WireDirection::Receive, frame.wire_bytes() + gap);
            sched.at(
                now,
                done + SimTime::from_us(2), // store-and-forward switch latency
                Event::WireRxArrive {
                    nic,
                    frame: frame.clone(),
                },
            );
        }
        match &mut self.nics[nic] {
            NicSlot::Conventional(dev) => {
                let mut act = dev
                    .tx_frame_sent(now, &frame, &self.rings, &mut self.buses[nic])
                    .expect("completion");
                let irq = act.irq_at.map(|t| (t, IrqReason::Tx));
                self.schedule_emissions(now, sched, nic, &mut act.emissions);
                self.schedule_irq(now, sched, nic, irq);
                self.recycle_conventional(nic, act);
            }
            NicSlot::Rice(dev) => {
                let mut act = dev.tx_frame_sent(now, &frame, &self.rings, &mut self.buses[nic]);
                self.faults.extend(act.faults.iter().copied());
                let irq = act.irq_at;
                self.schedule_emissions(now, sched, nic, &mut act.emissions);
                self.schedule_irq(now, sched, nic, irq);
                self.recycle_rice(nic, act);
            }
        }
    }

    fn on_wire_rx_arrive(
        &mut self,
        now: SimTime,
        sched: &mut Scheduler<Event>,
        nic: usize,
        frame: Frame,
    ) {
        match &mut self.nics[nic] {
            NicSlot::Conventional(dev) => {
                match dev
                    .frame_from_wire(now, frame, &self.rings, &mut self.buses[nic])
                    .expect("rx")
                {
                    RxDisposition::Delivered {
                        frame,
                        buf,
                        at: _,
                        irq_at,
                    } => {
                        let host = self.host_domain_index();
                        self.domains[host]
                            .rx_host
                            .push_back(HostRx { nic, frame, buf });
                        self.schedule_irq(now, sched, nic, irq_at.map(|t| (t, IrqReason::Rx)));
                    }
                    RxDisposition::Filtered
                    | RxDisposition::DroppedNoBuffer
                    | RxDisposition::DroppedTooSmall => {}
                }
            }
            NicSlot::Rice(dev) => {
                let act = dev.frame_from_wire(now, frame, &self.rings, &mut self.buses[nic]);
                self.faults.extend(act.faults.iter().copied());
                if let Some(d) = act.delivered {
                    // Route to the context's owner.
                    let owner = self.engines[nic]
                        .contexts()
                        .owner_of(d.ctx)
                        .expect("delivery to assigned context");
                    let idx = self.domain_index(owner);
                    self.domains[idx].rx_host.push_back(HostRx {
                        nic,
                        frame: d.frame,
                        buf: d.buf,
                    });
                }
                self.schedule_irq(now, sched, nic, act.irq_at);
            }
        }
    }

    /// The peer link as a one-frame pipeline: land the frame that has
    /// just finished arriving, then start serializing the next one. The
    /// arrival and the next start share an instant, so one event does
    /// both (an arrival event and a pump event at the same time would
    /// sit on adjacent sequence numbers, with nothing between them).
    fn on_peer_pump(&mut self, now: SimTime, sched: &mut Scheduler<Event>, nic: usize) {
        if let Some(frame) = self.peer_inflight[nic].take() {
            self.on_wire_rx_arrive(now, sched, nic, frame);
        }
        let gap = self.rx_gap_bytes(nic);
        let Some(peer) = &mut self.peers[nic] else {
            return;
        };
        let (flow, seq) = peer.next_frame(framing::MSS);
        let conns = self.cfg.conns_per_guest as usize;
        let dst = self.flow_dst[flow.guest as usize * conns + flow.conn as usize];
        let frame = Frame::tcp_data(MacAddr::for_peer(nic as u8), dst, framing::MSS, flow, seq);
        let done = self.wires[nic].transfer(now, WireDirection::Receive, frame.wire_bytes() + gap);
        self.peer_inflight[nic] = Some(frame);
        sched.at(now, done, Event::PeerPump { nic });
    }

    // ------------------------------------------------------------------
    // Run-loop entry points used by the testbed
    // ------------------------------------------------------------------

    /// Seeds the initial events for a run: wakes transmitting domains,
    /// starts peer traffic, and schedules the measurement window.
    /// Returns the events the caller must enqueue at the given times.
    pub fn prime(&mut self) -> Vec<(SimTime, Event)> {
        let mut events = Vec::new();
        match self.cfg.direction {
            Direction::Transmit => {
                let ids: Vec<DomainId> = self
                    .domains
                    .iter()
                    .filter(|d| d.workload.is_some())
                    .map(|d| d.id)
                    .collect();
                for id in ids {
                    self.runq.wake(id);
                }
            }
            Direction::Receive => {
                for nic in 0..self.cfg.nics as usize {
                    if self.peers[nic].is_some() {
                        events.push((SimTime::ZERO, Event::PeerPump { nic }));
                    }
                }
            }
        }
        events.push((self.cfg.warmup, Event::StartMeasure));
        events.push((self.cfg.warmup + self.cfg.measure, Event::StopMeasure));
        if self.runq.has_runnable() {
            events.push((SimTime::ZERO, Event::CpuDispatch));
            self.dispatch_pending = true;
        }
        events
    }

    /// Revokes guest `g`'s CDNA contexts at runtime (paper §3.1: "the
    /// hypervisor can also revoke a context at any time by notifying the
    /// NIC, which will shut down all pending operations associated with
    /// the indicated context"). The guest's traffic stops; every pinned
    /// page is released; other guests are unaffected.
    ///
    /// Returns the number of pending NIC operations that were shut down.
    ///
    /// # Panics
    ///
    /// Panics if the run is not a CDNA configuration or `g` is out of
    /// range.
    pub fn revoke_guest_contexts(&mut self, g: u16) -> usize {
        assert!(
            matches!(self.cfg.io_model, IoModel::Cdna { .. }),
            "revocation applies to CDNA runs"
        );
        let dom = DomainId::guest(g);
        let idx = self.domain_index(dom);
        let mut dropped = 0;
        for (nic, &ctx) in self.ctx_of[g as usize].iter().enumerate() {
            let NicSlot::Rice(dev) = &mut self.nics[nic] else {
                unreachable!("CDNA uses RiceNICs")
            };
            dropped += dev.detach_context(ctx);
            if let Some(iommu) = dev.iommu_mut() {
                iommu.disable(ctx);
            }
            self.engines[nic]
                .revoke_context(ctx, &mut self.mem)
                .expect("assigned context");
        }
        // The guest's driver state is gone with its contexts; the domain
        // becomes inert (its vcpu still exists, like a domain whose
        // device was hot-unplugged).
        self.domains[idx].role = Role::DriverIdle;
        self.domains[idx].workload = None;
        self.domains[idx].rx_host.clear();
        dropped
    }
}

fn build_conventional(
    index: usize,
    kind: NicKind,
    owner: DomainId,
    promiscuous: bool,
    cfg: &TestbedConfig,
    mem: &mut PhysMem,
    rings: &mut RingTable,
) -> (ConventionalNic, NativeDriver) {
    let ring_pages = ((cfg.ring_size * 16) as u64).div_ceil(cdna_mem::PAGE_SIZE) as u32;
    let tx_ring_page = mem.alloc_many(owner, ring_pages).expect("ring pages")[0];
    let rx_ring_page = mem.alloc_many(owner, ring_pages).expect("ring pages")[0];
    let tx_ring = rings.create(tx_ring_page.base_addr(), cfg.ring_size);
    let rx_ring = rings.create(rx_ring_page.base_addr(), cfg.ring_size);
    let nic_cfg = match kind {
        NicKind::Intel => NicConfig::intel_e1000(),
        NicKind::RiceNic => NicConfig::ricenic_base(),
    };
    let mac = MacAddr::for_context(index as u8, 0);
    let mut dev = ConventionalNic::new(mac, nic_cfg, tx_ring, rx_ring);
    dev.set_promiscuous(promiscuous);
    // The harness drives descriptors at MSS granularity (see DESIGN.md);
    // TSO's CPU saving is captured in the cost model, so driver pools are
    // single pages.
    let drv = NativeDriver::allocate(
        owner,
        false,
        cfg.ring_size + cfg.batch_limit + 16,
        cfg.ring_size + cfg.batch_limit + 16,
        tx_ring,
        rx_ring,
        mem,
    )
    .expect("driver pools");
    (dev, drv)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdna_core::DmaPolicy;
    use cdna_sim::Simulation;

    fn cfg(io: IoModel, guests: u16, dir: Direction) -> TestbedConfig {
        TestbedConfig::new(io, guests, dir).quick()
    }

    #[test]
    fn build_native_has_one_domain_per_machine() {
        let w = SystemWorld::build(cfg(
            IoModel::Native {
                nic: NicKind::Intel,
            },
            5, // ignored for native
            Direction::Transmit,
        ));
        assert_eq!(w.domains.len(), 1);
        assert!(matches!(w.domains[0].role, Role::NativeOs { .. }));
        assert!(w.engines.is_empty());
    }

    #[test]
    fn build_xen_has_dom0_plus_guests_and_bridge_entries() {
        let w = SystemWorld::build(cfg(
            IoModel::XenBridged {
                nic: NicKind::Intel,
            },
            3,
            Direction::Transmit,
        ));
        assert_eq!(w.domains.len(), 4);
        assert!(matches!(w.domains[0].role, Role::DriverXen { .. }));
        assert_eq!(w.channels.len(), 3);
        // 3 vif MACs + 2 peer MACs.
        assert_eq!(w.bridge.len(), 5);
    }

    #[test]
    fn build_cdna_assigns_contexts_and_posts_rx() {
        let w = SystemWorld::build(cfg(
            IoModel::Cdna {
                policy: DmaPolicy::Validated,
            },
            2,
            Direction::Receive,
        ));
        assert_eq!(w.engines.len(), 2);
        for e in &w.engines {
            assert_eq!(e.contexts().assigned_count(), 2);
        }
        for nic in &w.nics {
            let NicSlot::Rice(dev) = nic else {
                panic!("CDNA uses RiceNICs")
            };
            for g in 0..2 {
                let ctx = w.ctx_of[g][dev.index() as usize];
                assert_eq!(
                    dev.rx_available(ctx),
                    w.cfg.ring_size as u64,
                    "initial rx posting"
                );
            }
        }
        // Receive-direction runs have peer sources on both NICs.
        assert!(w.peers.iter().all(Option::is_some));
    }

    #[test]
    fn transmit_runs_have_no_peer_sources() {
        let w = SystemWorld::build(cfg(
            IoModel::Cdna {
                policy: DmaPolicy::Validated,
            },
            1,
            Direction::Transmit,
        ));
        assert!(w.peers.iter().all(Option::is_none));
    }

    #[test]
    fn prime_wakes_transmitters_and_schedules_measurement() {
        let mut w = SystemWorld::build(cfg(
            IoModel::Cdna {
                policy: DmaPolicy::Validated,
            },
            2,
            Direction::Transmit,
        ));
        let events = w.prime();
        assert!(w.runq.has_runnable());
        let starts = events
            .iter()
            .filter(|(_, e)| matches!(e, Event::StartMeasure))
            .count();
        let dispatches = events
            .iter()
            .filter(|(_, e)| matches!(e, Event::CpuDispatch))
            .count();
        assert_eq!(starts, 1);
        assert_eq!(dispatches, 1);
    }

    /// A device activity handing one frame from guest `g`'s context to
    /// NIC 0's MAC at `ready_at`.
    fn hand_off(w: &SystemWorld, g: usize, ready_at: SimTime) -> Activity {
        let NicSlot::Rice(dev) = &w.nics[0] else {
            unreachable!("CDNA uses RiceNICs")
        };
        let frame = Frame::tcp_data(
            dev.mac_for(w.ctx_of[g][0]),
            MacAddr::for_peer(0),
            framing::MSS,
            FlowId::new(g as u16, 0),
            0,
        );
        Activity {
            emissions: vec![TxEmission {
                frame,
                ready_at,
                desc_idx: 0,
            }],
            ..Activity::default()
        }
    }

    fn cdna_tx_world() -> SystemWorld {
        SystemWorld::build(cfg(
            IoModel::Cdna {
                policy: DmaPolicy::Validated,
            },
            2,
            Direction::Transmit,
        ))
    }

    #[test]
    fn hand_offs_reserve_the_wire_in_fifo_order() {
        let mut w = cdna_tx_world();
        // Two doorbells on NIC 0; the second frame is ready while the
        // first is still serializing, so it queues behind it.
        let (ready_a, ready_b) = (SimTime::from_us(10), SimTime::from_us(11));
        let a = hand_off(&w, 0, ready_a);
        let b = hand_off(&w, 1, ready_b);
        let src = |act: &Activity| act.emissions[0].frame.src;
        let (src_a, src_b) = (src(&a), src(&b));
        let ser =
            SimTime::from_ns(u64::from(a.emissions[0].frame.wire_bytes() + w.tx_gap_bytes(0)) * 8);
        let done = |events: Vec<(SimTime, Event)>| match events.as_slice() {
            [(at, Event::WireTxDone { nic: 0, frame })] => (*at, frame.src),
            other => panic!("expected one WireTxDone, got {other:?}"),
        };
        let first = done(w.absorb_nic_activity(SimTime::from_us(5), 0, a));
        let second = done(w.absorb_nic_activity(SimTime::from_us(6), 0, b));
        assert_eq!(first, (ready_a + ser, src_a));
        assert_eq!(
            second,
            (ready_a + ser + ser, src_b),
            "FIFO behind the first"
        );
        assert_eq!(w.wires[0].busy_until(WireDirection::Transmit), second.0);
        assert!(w.wires[1].is_idle(SimTime::ZERO, WireDirection::Transmit));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "wire reservation")]
    fn reservations_out_of_start_order_trip_the_debug_check() {
        let mut w = cdna_tx_world();
        let late = hand_off(&w, 0, SimTime::from_us(20));
        let early = hand_off(&w, 1, SimTime::from_us(10));
        w.absorb_nic_activity(SimTime::ZERO, 0, late);
        w.absorb_nic_activity(SimTime::ZERO, 0, early);
    }

    #[test]
    fn iommu_policy_installs_and_enables_per_context() {
        let w = SystemWorld::build(cfg(
            IoModel::Cdna {
                policy: DmaPolicy::Iommu,
            },
            2,
            Direction::Transmit,
        ));
        for nic in &w.nics {
            let NicSlot::Rice(dev) = nic else { panic!() };
            let iommu = dev.iommu().expect("IOMMU installed");
            for g in 0..2usize {
                let ctx = w.ctx_of[g][dev.index() as usize];
                assert!(iommu.is_enabled(ctx));
            }
        }
    }

    #[test]
    fn short_run_executes_and_moves_traffic() {
        let c = cfg(
            IoModel::Cdna {
                policy: DmaPolicy::Validated,
            },
            1,
            Direction::Transmit,
        );
        let end = c.warmup + c.measure;
        let mut sim = Simulation::new(SystemWorld::build(c));
        let primed = sim.world_mut().prime();
        for (t, e) in primed {
            sim.schedule(t, e);
        }
        sim.run_until(end);
        let w = sim.world();
        assert!(w.meters.packets > 1_000);
        assert!(w.faults.is_empty());
        assert!(!w.ledger.recording(), "window closed");
    }

    #[test]
    fn rx_destinations_differ_per_io_model() {
        let cdna = SystemWorld::build(cfg(
            IoModel::Cdna {
                policy: DmaPolicy::Validated,
            },
            1,
            Direction::Receive,
        ));
        let xen = SystemWorld::build(cfg(
            IoModel::XenBridged {
                nic: NicKind::Intel,
            },
            1,
            Direction::Receive,
        ));
        // CDNA targets context MACs; Xen targets vif MACs.
        assert_eq!(
            cdna.rx_dst_mac(0, 0),
            MacAddr::for_context(0, cdna.ctx_of[0][0].0)
        );
        assert_eq!(xen.rx_dst_mac(0, 0), MacAddr::for_vif(0));
    }
}
