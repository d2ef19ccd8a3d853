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
#![expect(
    clippy::expect_used,
    clippy::panic,
    reason = "simulation top level — invariant breaks abort the run; there is no caller to return an error to"
)]

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
};
use cdna_ricenic::{Activity, RiceNic};
use cdna_sim::{RateMeter, Scheduler, SimRng, SimTime, World};
use cdna_trace::{CounterId, Domain, MetricKey, Registry};
use cdna_xen::{
    BridgePort, CdnaGuestDriver, CpuLedger, EthernetBridge, EventChannels, ExecCategory,
    FrontBackChannel, NativeDriver, PvPacket, RunQueue, VirtualIrq,
};

use crate::phase::{self, Phase};
use crate::{Direction, IoModel, NicKind, TestbedConfig};

/// Events driving the machine.
///
/// The per-frame events carry indices, not frames: a transmitted frame
/// waits in its NIC's in-flight slot ring until its [`Event::WireTxDone`]
/// takes it back by id, and the rare frame-carrying events box theirs.
#[derive(Debug, Clone)]
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
        /// The frame, boxed so the variant stays as small as the rest.
        frame: Box<Frame>,
    },
    /// A transmitted frame's last bit left the NIC (arrived at peer).
    WireTxDone {
        /// NIC index.
        nic: usize,
        /// The frame's id in the NIC's in-flight slot ring, handed out
        /// when the frame reserved the wire.
        id: u64,
    },
    /// A switch-forwarded frame's last bit arrived at the NIC (rack
    /// uplinks and inter-VM hairpins; peer traffic lands at
    /// [`Event::PeerPump`]).
    WireRxArrive {
        /// NIC index.
        nic: usize,
        /// The frame, boxed so the variant stays as small as the rest.
        frame: Box<Frame>,
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

// Every push and pop of the event queue copies a whole entry (time,
// sequence number and event), so the event must stay this small.
const _: () = assert!(std::mem::size_of::<Event>() <= 24);

/// One NIC's frames on the transmit wire, each under the id its
/// [`Event::WireTxDone`] carries. Ids rise by one per reservation and the
/// ring spans the oldest uncompleted id onward, so a completion takes
/// its own frame by id in whatever order completions are delivered
/// (`cdna-model` reorders same-NIC events inside its tie window).
#[derive(Debug, Default, Clone)]
struct TxSlots {
    /// Id of `slots[0]`.
    base: u64,
    slots: VecDeque<Option<Frame>>,
}

impl TxSlots {
    /// Stores `frame` and returns its id.
    fn put(&mut self, frame: Frame) -> u64 {
        self.slots.push_back(Some(frame));
        self.base + self.slots.len() as u64 - 1
    }

    /// Takes back the frame stored under `id`.
    fn take(&mut self, id: u64) -> Frame {
        let frame = id
            .checked_sub(self.base)
            .and_then(|i| self.slots.get_mut(i as usize))
            .and_then(Option::take)
            .expect("wire completion of a frame in flight");
        while let Some(None) = self.slots.front() {
            self.slots.pop_front();
            self.base += 1;
        }
        frame
    }
}

/// A physical NIC plus its link.
#[derive(Debug, Clone)]
#[allow(clippy::large_enum_variant)] // a handful of slots exist per machine
pub enum NicSlot {
    /// Conventional single-context device.
    Conventional(ConventionalNic),
    /// RiceNIC running CDNA firmware.
    Rice(RiceNic),
}

impl NicSlot {
    /// The RiceNIC in this slot.
    ///
    /// # Panics
    ///
    /// Panics if the slot holds a conventional NIC.
    pub fn rice(&self) -> &RiceNic {
        match self {
            NicSlot::Rice(dev) => dev,
            NicSlot::Conventional(_) => panic!("NIC slot holds a conventional NIC, not a RiceNIC"),
        }
    }

    /// Mutable [`NicSlot::rice`].
    ///
    /// # Panics
    ///
    /// Panics if the slot holds a conventional NIC.
    pub fn rice_mut(&mut self) -> &mut RiceNic {
        match self {
            NicSlot::Rice(dev) => dev,
            NicSlot::Conventional(_) => panic!("NIC slot holds a conventional NIC, not a RiceNIC"),
        }
    }

    /// The conventional NIC in this slot.
    ///
    /// # Panics
    ///
    /// Panics if the slot holds a RiceNIC.
    pub fn conventional(&self) -> &ConventionalNic {
        match self {
            NicSlot::Conventional(dev) => dev,
            NicSlot::Rice(_) => panic!("NIC slot holds a RiceNIC, not a conventional NIC"),
        }
    }

    /// Mutable [`NicSlot::conventional`].
    ///
    /// # Panics
    ///
    /// Panics if the slot holds a RiceNIC.
    pub fn conventional_mut(&mut self) -> &mut ConventionalNic {
        match self {
            NicSlot::Conventional(dev) => dev,
            NicSlot::Rice(_) => panic!("NIC slot holds a RiceNIC, not a conventional NIC"),
        }
    }
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
#[derive(Debug, Clone)]
pub enum PhysDriver {
    /// Native driver for a conventional NIC.
    Native(NativeDriver),
    /// CDNA driver for a RiceNIC context.
    Cdna(CdnaGuestDriver),
}

/// What a domain does.
#[derive(Debug, Clone)]
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
#[derive(Debug, Clone)]
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
/// The world feeds the shadow in batches rather than by inline events.
/// The only hot-path cost is each protection engine's pin journal
/// (enabled by [`SystemWorld::build`] for shadow-checked runs only),
/// which records every page run the engine pins or unpins, and, from
/// the first sync on, the pool's dirty-page marks. At each sync point the
/// harness replays the descriptor sequence streams the hypervisor
/// produced since the last pass, folds the drained journals into the
/// page mirror, and then runs the mirror-vs-reality audits.
#[derive(Debug, Default, Clone)]
struct ShadowHarness {
    shadow: DmaShadow,
    /// Next unread descriptor-ring index per (nic, ctx, dir).
    cursors: std::collections::BTreeMap<(usize, u8, ShadowDir), u64>,
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
#[derive(Debug, Default, Clone)]
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
///
/// A clone is a deep copy: no part of the machine is shared between
/// copies, so `cdna-model` can prime one world per configuration and
/// run every explored schedule on its own clone.
#[derive(Debug, Clone)]
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
    /// Per-NIC frames serializing onto the transmit wire.
    tx_inflight: Vec<TxSlots>,
    /// What the last RiceNIC operation did, written in place by the
    /// device and cleared by [`SystemWorld::apply_rice`].
    rice_act: Activity,
    /// As `rice_act`, for the conventional NICs.
    conv_act: TxActivity,
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
    /// NICs whose raised interrupt awaits service, in arrival order.
    pending_irqs: VecDeque<usize>,
}

impl World for SystemWorld {
    type Event = Event;

    fn handle(&mut self, now: SimTime, event: Event, sched: &mut Scheduler<Event>) {
        match event {
            Event::CpuDispatch => self.on_cpu_dispatch(now, sched),
            Event::PhysIrq { nic, reason } => self.on_phys_irq(now, sched, nic, reason),
            Event::EmissionDue { nic, frame } => {
                let (done, id) = self.reserve_tx(now, nic, now, *frame);
                sched.at(now, done, Event::WireTxDone { nic, id });
            }
            Event::WireTxDone { nic, id } => self.on_wire_tx_done(now, sched, nic, id),
            Event::WireRxArrive { nic, frame } => self.on_wire_rx_arrive(now, sched, nic, *frame),
            Event::PeerPump { nic } => self.on_peer_pump(now, sched, nic),
            Event::StartMeasure => {
                cpu_mark(sched, now, "start_measure", "measure", None);
                self.on_start_measure(now);
            }
            Event::StopMeasure => {
                cpu_mark(sched, now, "stop_measure", "measure", None);
                self.on_stop_measure(now);
                if self.shadow.is_some() {
                    let new = self.shadow_sync() as u64;
                    cpu_mark(
                        sched,
                        now,
                        "shadow_audit",
                        "check",
                        Some(("violations", new)),
                    );
                }
            }
        }
    }
}

/// Puts a sync's run endpoints `(page, delta)` in ascending page order.
/// Few endpoints over a wide span (a schedule's own pins and reaps) are
/// compared; many over a narrow one (the runs a world journals from its
/// build to its first sync) are counted into their span instead, which
/// sums each page's deltas and drops the pages they cancel on.
fn sort_by_page(ends: &mut Vec<(u32, i32)>) {
    let (lo, hi) = ends.iter().fold((u32::MAX, 0), |(lo, hi), &(page, _)| {
        (lo.min(page), hi.max(page + 1))
    });
    let span = hi.saturating_sub(lo) as usize;
    if ends.len() * 8 < span {
        ends.sort_unstable_by_key(|&(page, _)| page);
        return;
    }
    let mut net = vec![0i32; span];
    for &(page, d) in ends.iter() {
        net[(page - lo) as usize] += d;
    }
    ends.clear();
    ends.extend((lo..hi).zip(net).filter(|&(_, d)| d != 0));
}

/// Applies one page's non-zero net pin change `net`, from a sync's
/// journal fold, to the shadow's page mirror.
fn fold_page(shadow: &mut DmaShadow, mem: &PhysMem, page: PageId, net: i32) {
    if net > 0 {
        if shadow.state(page) == ShadowState::Free {
            // First sighting: seed ownership from the live pool. An
            // unowned page stays untracked and the pin below is flagged
            // as pin-without-owner — a real violation.
            if let Some(owner) = mem.info(page).ok().and_then(|info| info.owner) {
                shadow.on_alloc(owner, page);
            }
        }
        for _ in 0..net {
            shadow.on_pin(page);
        }
        return;
    }
    let have = shadow.pins(page);
    for _ in net..0 {
        shadow.on_unpin(page);
    }
    if have <= net.unsigned_abs() {
        // Fully reaped: retire the mirror entry so the mirror tracks
        // exactly the engine-pinned set.
        if let Some(owner) = shadow.owner(page) {
            shadow.on_free(owner, page);
        }
    }
}

/// Records instant `name` on the CPU track of the attached trace, if any.
fn cpu_mark(
    sched: &mut Scheduler<Event>,
    now: SimTime,
    name: &'static str,
    cat: &'static str,
    arg: Option<(&'static str, u64)>,
) {
    if let Some(t) = sched.tracer_mut() {
        t.instant(name, cat, now.as_ns(), trace::PID_CPU, 0, arg);
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
                            let drv = build_cdna_context(
                                &mut dev,
                                &mut engine,
                                DomainId::DRIVER,
                                DmaPolicy::Validated,
                                &cfg,
                                &mut mem,
                                &mut rings,
                            );
                            dev.set_promiscuous_ctx(Some(drv.ctx()));
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
                    for (dev, engine) in nics.iter_mut().zip(&mut engines) {
                        let drv = build_cdna_context(
                            dev.rice_mut(),
                            engine,
                            dom,
                            policy,
                            &cfg,
                            &mut mem,
                            &mut rings,
                        );
                        ctx_of[g as usize].push(drv.ctx());
                        drivers.push(drv);
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
        if shadow.is_some() {
            for engine in &mut engines {
                engine.enable_pin_journal();
            }
        }
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
            tx_inflight: (0..nic_total).map(|_| TxSlots::default()).collect(),
            rice_act: Activity::default(),
            conv_act: TxActivity::default(),
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
                    let dev = world.nics[nic].rice();
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
        let ring = self.cfg.ring_size;
        for d in 0..self.domains.len() {
            let mut dom = std::mem::replace(&mut self.domains[d], DomainState::placeholder());
            match &mut dom.role {
                Role::NativeOs { drivers } => {
                    for (i, drv) in drivers.iter_mut().enumerate() {
                        self.post_conventional_rx(i, drv, ring);
                    }
                }
                Role::DriverXen { drivers } => {
                    for (i, drv) in drivers.iter_mut().enumerate() {
                        match drv {
                            PhysDriver::Native(n) => {
                                self.post_conventional_rx(i, n, ring);
                            }
                            PhysDriver::Cdna(c) => {
                                let outcome = c
                                    .post_rx_validated(
                                        ring,
                                        &mut self.engines[i],
                                        0,
                                        &mut self.rings,
                                        &mut self.mem,
                                    )
                                    .expect("initial rx post");
                                if let Some(out) = outcome {
                                    self.prime_rice_rx(i, c.ctx(), out.producer);
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
                                    ring,
                                    &mut self.engines[i],
                                    0,
                                    &mut self.rings,
                                    &mut self.mem,
                                )
                                .expect("initial rx post")
                                .map(|o| o.producer),
                            DmaPolicy::Iommu => {
                                let iommu = self.nics[i].rice_mut().iommu_mut().expect("installed");
                                drv.post_rx_iommu(ring, iommu, &mut self.rings)
                                    .map(|(p, _)| p)
                            }
                            DmaPolicy::Unprotected => drv.post_rx_direct(ring, &mut self.rings),
                        };
                        if let Some(p) = producer {
                            self.prime_rice_rx(i, drv.ctx(), p);
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
    /// back into the world and clears it: faults are recorded, and the
    /// emissions/interrupt it wants scheduled are returned as
    /// `(time, event)` pairs for the caller to hand to
    /// [`cdna_sim::Simulation::schedule`].
    ///
    /// This is the injection seam for adversarial harnesses
    /// (`cdna-fuzz`): a persona drives a device mailbox directly between
    /// `run_until` steps and this method routes the consequences through
    /// the same RiceNIC interpreter the event loop uses, so an injected
    /// run and an event-loop run handle device activity identically.
    pub fn absorb_nic_activity(
        &mut self,
        now: SimTime,
        nic: usize,
        act: &mut Activity,
    ) -> Vec<(SimTime, Event)> {
        let mut events = Vec::new();
        std::mem::swap(&mut self.rice_act, act);
        self.apply_rice(now, nic, |at, e| events.push((at, e)));
        std::mem::swap(&mut self.rice_act, act);
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
            IoModel::Cdna { .. } => self.nics[nic]
                .rice()
                .mac_for(self.ctx_of[partner as usize][nic]),
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
            IoModel::Cdna { .. } => self.nics[nic]
                .rice()
                .mac_for(self.ctx_of[guest as usize][nic]),
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
    /// 2. drains every protection engine's pin journal and folds it
    ///    into one net pin change per page, which reaches the page
    ///    mirror in ascending page order (detects pin-lifecycle
    ///    violations); the journals are empty afterwards;
    /// 3. cross-checks the mirror against the engines' pinned-buffer
    ///    lists and — in CDNA mode, where every pin traces back to a
    ///    validated descriptor — against the [`PhysMem`] pool. (Xen's
    ///    grant-mapping path pins pages outside the engines, so the
    ///    pool audit is only sound without a driver domain.) The
    ///    world's first sync audits the whole pool and starts the
    ///    pool's dirty marks; every later one audits only the pages the
    ///    pool wrote or the fold changed since, plus those the last
    ///    audit found divergent ([`DmaShadow::audit_mem_runs`]), and
    ///    records exactly what a whole-pool audit would.
    ///
    /// Each step is marked as its own [`phase`](crate::phase) for a
    /// profiling hook.
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
        let outer = phase::enter(Phase::SeqReplay);
        let modulus = (self.cfg.ring_size * 2).max(4);
        // Replay newly produced descriptors of every assigned context.
        for (nic, engine) in self.engines.iter().enumerate() {
            for (ctx, st) in engine.contexts().assigned() {
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
                    let cur = h.cursors.entry((nic, ctx.0, dir)).or_insert(0);
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
                    let rings = &self.rings;
                    let seqs = (*cur..prod).filter_map(|i| rings.read(ring, i).ok().map(|d| d.seq));
                    h.shadow
                        .observe_seqs_on(nic as u16, ctx, dir, seqs, modulus);
                    *cur = prod.max(*cur);
                }
            }
        }
        // Fold the journals into one net pin change per page: sweep the
        // runs' endpoints in page order, so each stretch of equal net
        // change is one step and a page pinned and reaped between two
        // syncs nets to zero and never reaches the shadow.
        phase::enter(Phase::Fold);
        let journals = || self.engines.iter().filter_map(|e| e.pin_journal());
        // Sized up front: a world's first sync folds every run since the
        // build, thousands on a long run.
        let mut ends: Vec<(u32, i32)> =
            Vec::with_capacity(2 * journals().map(<[_]>::len).sum::<usize>());
        for r in journals().flatten() {
            ends.extend([(r.first.0, r.delta), (r.first.0 + r.len, -r.delta)]);
        }
        for engine in &mut self.engines {
            engine.clear_pin_journal();
        }
        sort_by_page(&mut ends);
        // The page runs the fold changed, ascending.
        let mut folded: Vec<(PageId, u32)> = Vec::new();
        let shadow = &mut h.shadow;
        let mut net = 0;
        for (i, &(from, d)) in ends.iter().enumerate() {
            net += d;
            let to = ends.get(i + 1).map_or(from, |&(page, _)| page);
            if net == 0 || to == from {
                continue;
            }
            folded.push((PageId(from), to - from));
            for page in (from..to).map(PageId) {
                fold_page(shadow, &self.mem, page, net);
            }
        }
        // Mirror-vs-reality audits: the engines' pinned lists, read
        // apart from the journals, then the pool.
        phase::enter(Phase::AuditPinned);
        for engine in &self.engines {
            for (ctx, _) in engine.contexts().assigned() {
                h.shadow.audit_pinned(ctx, engine.pinned_runs(ctx));
            }
        }
        phase::enter(Phase::AuditMem);
        if matches!(self.cfg.io_model, IoModel::Cdna { .. }) {
            match self.mem.dirty_runs() {
                Some(dirty) => {
                    let touched = folded.into_iter().chain(dirty);
                    h.shadow.audit_mem_runs(&self.mem, touched)
                }
                None => h.shadow.audit_mem(&self.mem),
            };
            // The next audit checks only what the pool writes from here.
            self.mem.track_dirty();
        }
        phase::enter(outer);
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

    /// Runs one work item on the CPU. The dispatch lasts exactly as long
    /// as the CPU time charged to the ledger while it runs.
    fn on_cpu_dispatch(&mut self, now: SimTime, sched: &mut Scheduler<Event>) {
        self.dispatch_pending = false;
        debug_assert!(now >= self.cpu_busy_until, "CPU dispatched while busy");
        self.ledger.begin_dispatch();

        let (span_name, span_tid);
        if let Some(nic) = self.pending_irqs.pop_front() {
            self.service_irq(nic);
            (span_name, span_tid) = ("service_irq", 0u32);
        } else if self.runq.has_runnable() {
            let prev = self.runq.last_run();
            let dom = self.runq.pick().expect("runnable");
            let costs = &self.cfg.costs;
            if self.cfg.is_virtualized() {
                self.ledger
                    .charge(ExecCategory::Hypervisor, costs.hyp_sched_pick);
                if prev != Some(dom) {
                    self.registry.inc(self.hot.world_switches);
                    self.ledger
                        .charge(ExecCategory::Hypervisor, costs.hyp_domain_switch);
                    self.ledger
                        .charge(ExecCategory::Kernel(dom), costs.switch_cache_penalty);
                }
            }
            self.run_domain(now, sched, dom);
            (span_name, span_tid) = ("run_domain", self.domain_index(dom) as u32 + 1);
        } else {
            return; // idle; events will re-kick
        }

        let cost = self.ledger.dispatch_charged();
        self.cpu_busy_until = now + cost;
        if cost > SimTime::ZERO {
            if let Some(t) = sched.tracer_mut() {
                t.span(
                    span_name,
                    "cpu",
                    now.as_ns(),
                    cost.as_ns(),
                    trace::PID_CPU,
                    span_tid,
                    None,
                );
            }
        }
        self.kick_cpu(now, sched);
    }

    /// The hypervisor-level (or native ISR) part of interrupt handling.
    fn service_irq(&mut self, nic: usize) {
        let costs = &self.cfg.costs;
        match self.cfg.io_model {
            IoModel::Native { .. } => {
                let os = self.domains[self.host_domain_index()].id;
                self.ledger
                    .charge(ExecCategory::Kernel(os), costs.native_isr);
                self.runq.wake(os);
            }
            IoModel::XenBridged { .. } => {
                self.ledger
                    .charge(ExecCategory::Hypervisor, costs.hyp_isr_conventional);
                // CDNA-firmware NICs in softvirt mode deliver through the
                // bit-vector ring even though only dom0 has a context:
                // every flagged context is dom0's, so draining is enough.
                if matches!(self.nics[nic], NicSlot::Rice(_)) {
                    self.vec_rings[nic].drain();
                }
                self.meters.driver_virq.add(1);
                self.registry.inc(self.hot.driver_virq);
                if self.evt.send(DomainId::DRIVER, VirtualIrq::NicPhys) {
                    self.ledger
                        .charge(ExecCategory::Hypervisor, costs.hyp_evtchn_send);
                }
                self.runq.wake(DomainId::DRIVER);
            }
            IoModel::Cdna { .. } => {
                self.ledger
                    .charge(ExecCategory::Hypervisor, costs.hyp_isr_cdna);
                let vector = self.vec_rings[nic].drain();
                for ctx in vector.iter() {
                    let Some(owner) = self.engines[nic].contexts().owner_of(ctx) else {
                        continue;
                    };
                    self.ledger
                        .charge(ExecCategory::Hypervisor, costs.hyp_cdna_vint);
                    self.meters.guest_virq.add(1);
                    self.registry.inc(self.hot.guest_virq);
                    if self.evt.send(owner, VirtualIrq::Cdna) {
                        self.ledger
                            .charge(ExecCategory::Hypervisor, costs.hyp_evtchn_send);
                    }
                    self.runq.wake(owner);
                }
            }
        }
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
        let costs = &self.cfg.costs;

        self.ledger
            .charge(ExecCategory::Kernel(dom), costs.activation_fixed);
        let virqs = self.evt.collect(dom);
        for v in virqs.iter() {
            let c = match (&state.role, v) {
                (Role::DriverXen { .. }, VirtualIrq::NicPhys) => costs.drv_isr,
                _ => costs.virq_upcall,
            };
            self.ledger.charge(ExecCategory::Kernel(dom), c);
        }

        let DomainState {
            role,
            rx_host,
            workload,
            ..
        } = &mut state;
        let still_runnable = match role {
            Role::GuestCdna { drivers } => {
                self.run_guest_cdna(now, sched, dom, drivers, rx_host, workload)
            }
            Role::GuestXen { tx_pool } => self.run_guest_xen(dom, tx_pool, workload),
            Role::DriverXen { drivers } => self.run_driver_xen(now, sched, dom, drivers, rx_host),
            Role::NativeOs { drivers } => {
                self.run_native_os(now, sched, dom, drivers, rx_host, workload)
            }
            Role::DriverIdle => false,
        };

        if still_runnable {
            self.runq.requeue(dom);
        }
        self.domains[idx] = state;
    }

    /// Reserves `nic`'s transmit wire for `frame` from `ready_at` (or
    /// `now`, if later) behind every frame already reserved, stores the
    /// frame in the NIC's in-flight slot ring, and returns when its last
    /// bit leaves plus the id its [`Event::WireTxDone`] must carry.
    /// Reserving at hand-off gives the times a separate "may start
    /// serializing" event would, because each NIC's hand-off times never
    /// decrease (its bus DMA completions are monotone), so reservation
    /// order is start-time order.
    fn reserve_tx(
        &mut self,
        now: SimTime,
        nic: usize,
        ready_at: SimTime,
        frame: Frame,
    ) -> (SimTime, u64) {
        let start = ready_at.max(now);
        debug_assert!(
            start >= self.tx_reserved_from[nic],
            "nic {nic}: wire reservation at {start} precedes one at {}",
            self.tx_reserved_from[nic]
        );
        self.tx_reserved_from[nic] = start;
        let gap = self.tx_gap_bytes(nic);
        let done =
            self.wires[nic].transfer(start, WireDirection::Transmit, frame.wire_bytes() + gap);
        (done, self.tx_inflight[nic].put(frame))
    }

    /// The one interpreter of RiceNIC activity: reads `rice_act` field
    /// by field — records its faults, queues a delivered frame for the
    /// owning domain, reserves the wire for each emitted frame, and
    /// hands `push` the `WireTxDone` and interrupt events to schedule, in
    /// that order — and leaves it clear for the next device operation,
    /// its vectors' capacity kept so the steady state does not allocate.
    fn apply_rice(&mut self, now: SimTime, nic: usize, mut push: impl FnMut(SimTime, Event)) {
        if !self.rice_act.faults.is_empty() {
            self.faults.extend_from_slice(&self.rice_act.faults);
            self.rice_act.faults.clear();
        }
        if let Some(d) = self.rice_act.delivered.take() {
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
        if !self.rice_act.emissions.is_empty() {
            let mut emissions = std::mem::take(&mut self.rice_act.emissions);
            for e in emissions.drain(..) {
                let (done, id) = self.reserve_tx(now, nic, e.ready_at, e.frame);
                push(done, Event::WireTxDone { nic, id });
            }
            self.rice_act.emissions = emissions;
        }
        if let Some((at, reason)) = self.rice_act.irq_at.take() {
            push(at.max(now), Event::PhysIrq { nic, reason });
        }
        self.rice_act.rx_dropped = false;
    }

    /// The one interpreter of conventional-NIC transmit activity, as
    /// [`SystemWorld::apply_rice`] over `conv_act`: wire reservations,
    /// completions and the transmit interrupt.
    fn apply_conventional(&mut self, now: SimTime, sched: &mut Scheduler<Event>, nic: usize) {
        if !self.conv_act.emissions.is_empty() {
            let mut emissions = std::mem::take(&mut self.conv_act.emissions);
            for e in emissions.drain(..) {
                let (done, id) = self.reserve_tx(now, nic, e.ready_at, e.frame);
                sched.at(now, done, Event::WireTxDone { nic, id });
            }
            self.conv_act.emissions = emissions;
        }
        if let Some(at) = self.conv_act.irq_at.take() {
            let reason = IrqReason::Tx;
            sched.at(now, at.max(now), Event::PhysIrq { nic, reason });
        }
    }

    /// Writes a new producer index into `ctx`'s `mailbox` on RiceNIC
    /// `nic` and schedules what the device does in response.
    fn rice_doorbell(
        &mut self,
        now: SimTime,
        sched: &mut Scheduler<Event>,
        nic: usize,
        ctx: ContextId,
        mailbox: Mailbox,
        producer: u64,
    ) {
        self.nics[nic]
            .rice_mut()
            .mailbox_write_into(
                now,
                ctx,
                mailbox.index(),
                producer,
                &self.rings,
                &mut self.buses[nic],
                &mut self.rice_act,
            )
            .expect("mailbox write");
        self.apply_rice(now, nic, |at, e| sched.at(now, at, e));
    }

    /// Rings RiceNIC `nic`'s receive doorbell for `ctx` while the machine
    /// is being built. No scheduler exists yet, so the device must want
    /// nothing scheduled; any fault it raises still counts.
    fn prime_rice_rx(&mut self, nic: usize, ctx: ContextId, producer: u64) {
        self.nics[nic]
            .rice_mut()
            .mailbox_write_into(
                SimTime::ZERO,
                ctx,
                Mailbox::RxProducer.index(),
                producer,
                &self.rings,
                &mut self.buses[nic],
                &mut self.rice_act,
            )
            .expect("mailbox write");
        debug_assert!(
            self.rice_act.emissions.is_empty() && self.rice_act.irq_at.is_none(),
            "nic {nic}: receive priming wants events before the run starts"
        );
        self.apply_rice(SimTime::ZERO, nic, |_, _| {});
    }

    /// `dom` rings conventional NIC `nic`'s transmit doorbell with
    /// `drv`'s producer index; schedules what the device does in response.
    fn conventional_doorbell(
        &mut self,
        now: SimTime,
        sched: &mut Scheduler<Event>,
        dom: DomainId,
        nic: usize,
        drv: &mut NativeDriver,
    ) {
        self.ledger
            .charge(ExecCategory::Kernel(dom), self.cfg.costs.pio_write);
        drv.note_doorbell();
        self.nics[nic]
            .conventional_mut()
            .tx_doorbell(
                now,
                drv.tx_producer(),
                &self.rings,
                &mut self.buses[nic],
                &mut self.conv_act,
            )
            .expect("doorbell");
        self.apply_conventional(now, sched, nic);
    }

    /// Posts up to `max` receive buffers from `drv` and rings conventional
    /// NIC `nic`'s receive doorbell. Returns whether anything was posted
    /// (the caller charges the doorbell write).
    fn post_conventional_rx(&mut self, nic: usize, drv: &mut NativeDriver, max: u32) -> bool {
        let posted = drv.post_rx(max, &mut self.rings).expect("rx post");
        if posted > 0 {
            self.nics[nic]
                .conventional_mut()
                .rx_doorbell(drv.rx_producer());
        }
        posted > 0
    }

    /// Charges the network stack's send path for one packet: kernel
    /// (plus `drv_cost` for the driver) and user time.
    fn charge_tx_stack(&mut self, dom: DomainId, drv_cost: SimTime) {
        let costs = &self.cfg.costs;
        self.ledger
            .charge(ExecCategory::Kernel(dom), costs.stack_tx_kernel + drv_cost);
        self.ledger
            .charge(ExecCategory::User(dom), costs.stack_tx_user);
    }

    /// Hands one received frame to `dom`'s application: the stack's
    /// receive costs (plus `drv_cost` for the driver), the window's
    /// receive meters, and the workload's per-connection record.
    fn deliver_rx(
        &mut self,
        dom: DomainId,
        drv_cost: SimTime,
        workload: &mut Option<crate::GuestWorkload>,
        frame: &Frame,
    ) {
        let costs = &self.cfg.costs;
        self.ledger
            .charge(ExecCategory::Kernel(dom), costs.stack_rx_kernel + drv_cost);
        self.ledger
            .charge(ExecCategory::User(dom), costs.stack_rx_user);
        if self.meters.in_window {
            self.meters.rx_payload.add(frame.tcp_payload as u64);
            self.meters.packets += 1;
        }
        if let Some(w) = workload {
            w.record_rx(frame.flow.conn, frame.tcp_payload);
        }
    }

    fn run_guest_cdna(
        &mut self,
        now: SimTime,
        sched: &mut Scheduler<Event>,
        dom: DomainId,
        drivers: &mut [CdnaGuestDriver],
        rx_host: &mut VecDeque<HostRx>,
        workload: &mut Option<crate::GuestWorkload>,
    ) -> bool {
        let mut budget = self.cfg.batch_limit;

        // Reclaim transmit completions (consumer writebacks are in host
        // memory; reading them is part of driver cost already). Under the
        // IOMMU policy reclaiming also unmaps the completed buffers.
        for (i, drv) in drivers.iter_mut().enumerate() {
            let dev = self.nics[i].rice_mut();
            let consumer = dev.tx_consumer(drv.ctx());
            if drv.policy() == DmaPolicy::Iommu {
                let iommu = dev.iommu_mut().expect("installed");
                let (_freed, unmapped) = drv.reclaim_tx_iommu(consumer, iommu);
                self.ledger.charge(
                    ExecCategory::Hypervisor,
                    self.cfg.costs.hyp_iommu_unmap * unmapped as u64,
                );
            } else {
                let (_freed, _ext) = drv.reclaim_tx(consumer);
            }
        }

        // Receive processing.
        let mut rx_done = 0u32;
        while budget > 0 {
            let Some(rx) = rx_host.pop_front() else {
                break;
            };
            let drv = &mut drivers[rx.nic];
            let page = drv.rx_delivered(rx.buf);
            drv.release_rx_page(page);
            if drv.policy() == DmaPolicy::Iommu
                && self.nics[rx.nic]
                    .rice_mut()
                    .iommu_mut()
                    .expect("installed")
                    .unmap(drv.ctx(), page)
            {
                self.ledger
                    .charge(ExecCategory::Hypervisor, self.cfg.costs.hyp_iommu_unmap);
            }
            self.deliver_rx(dom, self.cfg.costs.cdna_drv_rx, workload, &rx.frame);
            rx_done += 1;
            budget -= 1;
        }

        // Replenish receive buffers when some were consumed. Posts go
        // through the enqueue hypercall in driver-batch-sized chunks.
        if rx_done > 0 {
            for (i, drv) in drivers.iter_mut().enumerate() {
                let producer = match drv.policy() {
                    DmaPolicy::Validated => {
                        let rx_consumer = self.nics[i].rice().rx_consumer(drv.ctx());
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
                                        self.cfg.costs.enqueue_hypercall(&out),
                                    );
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
                        let iommu = self.nics[i].rice_mut().iommu_mut().expect("installed");
                        drv.post_rx_iommu(self.cfg.batch_limit, iommu, &mut self.rings)
                            .map(|(p, mapped)| {
                                self.ledger.charge(
                                    ExecCategory::Hypervisor,
                                    self.cfg.costs.iommu_hypercall(mapped),
                                );
                                p
                            })
                    }
                    DmaPolicy::Unprotected => {
                        drv.post_rx_direct(self.cfg.batch_limit, &mut self.rings)
                    }
                };
                if let Some(p) = producer {
                    self.ledger
                        .charge(ExecCategory::Kernel(dom), self.cfg.costs.pio_write);
                    drv.note_pio();
                    self.rice_doorbell(now, sched, i, drv.ctx(), Mailbox::RxProducer, p);
                }
            }
        }

        // Transmit generation.
        if self.cfg.direction == Direction::Transmit {
            let mut failures = 0u32;
            while budget > 0 && failures < self.cfg.conns_per_guest as u32 {
                let Some(w) = workload.as_mut() else { break };
                // Peek the next unit; only commit if it queues (a full
                // ring on one NIC must not starve the others).
                let unit = w.next_tx();
                let nic = unit.nic;
                let drv = &mut drivers[nic];
                let meta = FrameMeta {
                    dst: self.tx_dst_mac(unit.flow.guest, nic),
                    src: self.nics[nic].rice().mac_for(drv.ctx()),
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
                self.charge_tx_stack(dom, self.cfg.costs.cdna_drv_tx);
                budget -= 1;
                if drv.pending_tx() as u32 >= self.cfg.hypercall_batch {
                    self.flush_cdna_tx(now, sched, dom, drv, nic);
                }
            }
            // Flush stragglers on every NIC.
            for (nic, drv) in drivers.iter_mut().enumerate() {
                if drv.pending_tx() > 0 {
                    self.flush_cdna_tx(now, sched, dom, drv, nic);
                }
            }
        }

        // Still runnable? Pending receive work or transmit headroom.
        let more_rx = !rx_host.is_empty();
        // A workload-less (idle) guest has nothing to transmit: without
        // the workload check it would requeue forever once an interrupt
        // wakes it, spinning the CPU for the rest of the run.
        let more_tx = self.cfg.direction == Direction::Transmit
            && workload.is_some()
            && drivers.iter().any(|d| d.can_queue_tx());
        more_rx || more_tx
    }

    fn flush_cdna_tx(
        &mut self,
        now: SimTime,
        sched: &mut Scheduler<Event>,
        dom: DomainId,
        drv: &mut CdnaGuestDriver,
        nic: usize,
    ) {
        let dev = self.nics[nic].rice_mut();
        let costs = &self.cfg.costs;
        let producer = match drv.policy() {
            DmaPolicy::Validated => match drv.flush_tx_validated(
                &mut self.engines[nic],
                dev.tx_consumer(drv.ctx()),
                &mut self.rings,
                &mut self.mem,
            ) {
                Ok(Some(out)) => {
                    self.ledger
                        .charge(ExecCategory::Hypervisor, costs.enqueue_hypercall(&out));
                    Some(out.producer)
                }
                Ok(None) => None,
                Err(e) => panic!("benign tx flush rejected: {e}"),
            },
            DmaPolicy::Iommu => {
                let iommu = dev.iommu_mut().expect("installed");
                drv.flush_tx_iommu(iommu, &mut self.rings)
                    .map(|(p, mapped)| {
                        self.ledger
                            .charge(ExecCategory::Hypervisor, costs.iommu_hypercall(mapped));
                        p
                    })
            }
            DmaPolicy::Unprotected => drv.flush_tx_direct(&mut self.rings),
        };
        if let Some(p) = producer {
            self.ledger
                .charge(ExecCategory::Kernel(dom), costs.pio_write);
            drv.note_pio();
            self.rice_doorbell(now, sched, nic, drv.ctx(), Mailbox::TxProducer, p);
        }
    }

    fn run_guest_xen(
        &mut self,
        dom: DomainId,
        tx_pool: &mut Vec<PageId>,
        workload: &mut Option<crate::GuestWorkload>,
    ) -> bool {
        let guest_index = (dom.0 - 1) as usize;
        let mut budget = self.cfg.batch_limit;
        let chan = &mut self.channels[guest_index];

        // Reclaim transmit completions.
        tx_pool.extend(chan.front_take_tx_done());

        // Receive processing: consume delivered packets, repost pages as
        // credit.
        let pkts = chan.front_rx_take(budget as usize);
        for pkt in pkts {
            self.deliver_rx(dom, self.cfg.costs.netfront_rx, workload, &pkt.frame);
            self.channels[guest_index].front_post_rx_credit(pkt.page);
            budget -= 1;
            if budget == 0 {
                break;
            }
        }

        // Transmit generation.
        if self.cfg.direction == Direction::Transmit {
            let mut pushed = 0u32;
            while budget > 0 {
                let Some(w) = workload.as_mut() else { break };
                if self.channels[guest_index].tx_free() == 0 || tx_pool.is_empty() {
                    break;
                }
                let unit = w.next_tx();
                let guest_no = w.guest();
                let dst = self.tx_dst_mac(guest_no, unit.nic);
                let frame = Frame::tcp_data(
                    MacAddr::for_vif(guest_no),
                    dst,
                    framing::MSS,
                    unit.flow,
                    unit.seq,
                );
                let page = tx_pool.pop().expect("checked");
                self.channels[guest_index]
                    .front_tx_push(PvPacket { frame, page })
                    .expect("checked free slot");
                w.commit_tx(unit, framing::MSS);
                self.charge_tx_stack(dom, self.cfg.costs.netfront_tx);
                pushed += 1;
                budget -= 1;
            }
            if pushed > 0 {
                self.ledger
                    .charge(ExecCategory::Hypervisor, self.cfg.costs.hyp_evtchn_send);
                self.meters.driver_virq.add(1);
                self.registry.inc(self.hot.driver_virq);
                self.evt.send(DomainId::DRIVER, VirtualIrq::Netback);
                self.runq.wake(DomainId::DRIVER);
            }
        }

        let chan = &self.channels[guest_index];
        let more_rx = chan.rx_pending() > 0;
        let more_tx = self.cfg.direction == Direction::Transmit
            && workload.is_some()
            && chan.tx_free() > 0
            && !tx_pool.is_empty();
        more_rx || more_tx
    }

    fn run_driver_xen(
        &mut self,
        now: SimTime,
        sched: &mut Scheduler<Event>,
        dom: DomainId,
        drivers: &mut [PhysDriver],
        rx_host: &mut VecDeque<HostRx>,
    ) -> bool {
        let mut budget = self.cfg.batch_limit;

        // Reap completed CDNA descriptors first so delivered receive
        // pages are unpinned before netback flips them to guests.
        for (i, drv) in drivers.iter_mut().enumerate() {
            if let PhysDriver::Cdna(c) = drv {
                let dev = self.nics[i].rice();
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
                    self.cfg.costs.hyp_reap_desc * reaped as u64,
                );
            }
        }

        // --- Physical NIC ingress (receive path) ---
        // Per-guest count of new work since the last notification;
        // netback notifies every `notify_batch` packets and flushes the
        // remainder at the end of the pass.
        let mut pending_notify: Vec<u32> = vec![0; self.channels.len()];
        while budget > 0 {
            let Some(rx) = rx_host.pop_front() else {
                break;
            };
            budget -= 1;
            // Native/CDNA driver releases the posted page.
            let (page, drv_cost) = match &mut drivers[rx.nic] {
                PhysDriver::Native(n) => (n.rx_delivered(rx.buf), self.cfg.costs.native_drv_rx),
                PhysDriver::Cdna(c) => (c.rx_delivered(rx.buf), self.cfg.costs.cdna_dom0_drv_rx),
            };
            self.ledger.charge(
                ExecCategory::Kernel(dom),
                drv_cost + self.cfg.costs.bridge_per_packet + self.cfg.costs.netback_rx,
            );
            // A flip hands the driver the guest's credit page in exchange;
            // a drop (unknown destination, guest out of credits) hands
            // back its own page.
            let credit = match self.bridge.lookup(rx.frame.dst) {
                Some(BridgePort::Frontend(guest)) => {
                    let gidx = (guest.0 - 1) as usize;
                    let flip = self.channels[gidx].back_rx_push(rx.frame, page, &mut self.mem);
                    if flip.is_ok() {
                        self.ledger
                            .charge(ExecCategory::Hypervisor, self.cfg.costs.hyp_page_flip);
                        self.batch_notify(&mut pending_notify, gidx);
                    } else {
                        self.rx_credit_drops += 1;
                    }
                    flip.ok()
                }
                _ => None,
            };
            match &mut drivers[rx.nic] {
                PhysDriver::Native(n) => match credit {
                    Some(credit) => n.donate_rx_page(credit),
                    None => n.release_rx_page(page),
                },
                PhysDriver::Cdna(c) => c.release_rx_page(credit.unwrap_or(page)),
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
            self.ledger.charge(
                ExecCategory::Kernel(dom),
                self.cfg.costs.netback_scan_per_channel * guest_count as u64,
            );
            let share = (budget as usize / guest_count).max(1);
            for g in 0..guest_count {
                if budget == 0 {
                    break;
                }
                let take = share.min(budget as usize);
                let pkts = self.channels[g]
                    .back_tx_take(take, &mut self.mem)
                    .unwrap_or_else(|e| panic!("trusted frontend failed grant map: {e}"));
                for pkt in pkts {
                    budget -= 1;
                    let nic = match self.bridge.lookup(pkt.frame.dst) {
                        Some(BridgePort::Physical(n)) => n,
                        Some(BridgePort::Frontend(dst_dom)) => {
                            // Guest-to-guest: the software bridge switches
                            // the packet in host memory — copy into a
                            // fresh dom0 page, flip it to the destination,
                            // and complete the source immediately.
                            self.ledger.charge(
                                ExecCategory::Kernel(dom),
                                self.cfg.costs.netback_tx
                                    + self.cfg.costs.bridge_per_packet
                                    + self.cfg.costs.netback_rx,
                            );
                            let dst_idx = (dst_dom.0 - 1) as usize;
                            if let Ok(page) = self.mem.alloc(DomainId::DRIVER) {
                                match self.channels[dst_idx].back_rx_push(
                                    pkt.frame,
                                    page,
                                    &mut self.mem,
                                ) {
                                    Ok(credit) => {
                                        self.ledger.charge(
                                            ExecCategory::Hypervisor,
                                            self.cfg.costs.hyp_page_flip,
                                        );
                                        self.mem
                                            .free(DomainId::DRIVER, credit)
                                            .expect("fresh credit page");
                                        self.batch_notify(&mut pending_notify, dst_idx);
                                    }
                                    Err(_) => {
                                        // Destination out of credits: drop.
                                        self.mem.free(DomainId::DRIVER, page).expect("fresh page");
                                    }
                                }
                            }
                            self.channels[g].back_tx_complete_page(pkt.page, &mut self.mem);
                            self.batch_notify(&mut pending_notify, g);
                            continue;
                        }
                        None => continue, // unknown: drop
                    };
                    // With a CDNA context the enqueue hypercall performs
                    // the pinning, so no separate grant-map charge.
                    let drv_cost = match &drivers[nic] {
                        PhysDriver::Native(_) => {
                            self.ledger
                                .charge(ExecCategory::Hypervisor, self.cfg.costs.hyp_grant_map);
                            self.cfg.costs.native_drv_tx
                        }
                        PhysDriver::Cdna(_) => self.cfg.costs.cdna_dom0_drv_tx,
                    };
                    self.ledger.charge(
                        ExecCategory::Kernel(dom),
                        self.cfg.costs.netback_tx + self.cfg.costs.bridge_per_packet + drv_cost,
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
        // Ring doorbells for NICs with new work; dom0's CDNA context
        // flushes through the hypervisor.
        for nic in doorbell_nics {
            match &mut drivers[nic] {
                PhysDriver::Native(n) => self.conventional_doorbell(now, sched, dom, nic, n),
                PhysDriver::Cdna(c) => self.flush_cdna_tx(now, sched, dom, c, nic),
            }
        }

        // --- Transmit completion reclaim ---
        for (nic, drv) in drivers.iter_mut().enumerate() {
            let (extern_done, unmap_charges) = match drv {
                PhysDriver::Native(n) => {
                    let done = n.reclaim_tx(self.nics[nic].conventional().tx_consumer());
                    let c = done.len() as u64;
                    (done, c)
                }
                PhysDriver::Cdna(c) => {
                    let (_pool, done) = c.reclaim_tx(self.nics[nic].rice().tx_consumer(c.ctx()));
                    // Unpinning happened through the engine reap above.
                    (done, 0)
                }
            };
            self.ledger.charge(
                ExecCategory::Hypervisor,
                self.cfg.costs.hyp_grant_unmap * unmap_charges,
            );
            for guest in extern_done {
                let gidx = (guest.0 - 1) as usize;
                self.channels[gidx].back_tx_complete(1, &mut self.mem);
                self.batch_notify(&mut pending_notify, gidx);
            }
        }

        // Flush remaining notifications.
        for (gidx, count) in pending_notify.into_iter().enumerate() {
            if count > 0 {
                self.notify_frontend(DomainId::guest(gidx as u16));
            }
        }

        let more_rx = !rx_host.is_empty();
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
        let costs = &self.cfg.costs;
        match driver {
            PhysDriver::Native(n) => {
                if self.post_conventional_rx(nic, n, self.cfg.batch_limit) {
                    self.ledger
                        .charge(ExecCategory::Kernel(dom), self.cfg.costs.pio_write);
                }
            }
            PhysDriver::Cdna(c) => {
                let rx_consumer = self.nics[nic].rice().rx_consumer(c.ctx());
                match c.post_rx_validated(
                    self.cfg.batch_limit,
                    &mut self.engines[nic],
                    rx_consumer,
                    &mut self.rings,
                    &mut self.mem,
                ) {
                    Ok(Some(out)) => {
                        self.ledger
                            .charge(ExecCategory::Hypervisor, costs.enqueue_hypercall(&out));
                        self.ledger
                            .charge(ExecCategory::Kernel(dom), costs.pio_write);
                        let ctx = c.ctx();
                        self.rice_doorbell(now, sched, nic, ctx, Mailbox::RxProducer, out.producer);
                    }
                    Ok(None) => {}
                    Err(e) => panic!("dom0 rx post rejected: {e}"),
                }
            }
        }
    }

    /// Counts one unit of new work for guest `gidx`'s frontend, notifying
    /// it once `notify_batch` units have accumulated since the last one.
    fn batch_notify(&mut self, pending: &mut [u32], gidx: usize) {
        pending[gidx] += 1;
        if pending[gidx] >= self.cfg.notify_batch {
            pending[gidx] = 0;
            self.notify_frontend(DomainId::guest(gidx as u16));
        }
    }

    /// Netback notifies a frontend of new receive packets or transmit
    /// completions.
    fn notify_frontend(&mut self, guest: DomainId) {
        self.ledger
            .charge(ExecCategory::Hypervisor, self.cfg.costs.hyp_evtchn_send);
        self.meters.guest_virq.add(1);
        self.registry.inc(self.hot.guest_virq);
        self.evt.send(guest, VirtualIrq::Netfront);
        self.runq.wake(guest);
    }

    fn run_native_os(
        &mut self,
        now: SimTime,
        sched: &mut Scheduler<Event>,
        dom: DomainId,
        drivers: &mut [NativeDriver],
        rx_host: &mut VecDeque<HostRx>,
        workload: &mut Option<crate::GuestWorkload>,
    ) -> bool {
        let mut budget = self.cfg.batch_limit;

        // Reclaim transmit completions.
        for (i, drv) in drivers.iter_mut().enumerate() {
            let _ = drv.reclaim_tx(self.nics[i].conventional().tx_consumer());
        }

        // Receive.
        let mut rx_done = 0;
        while budget > 0 {
            let Some(rx) = rx_host.pop_front() else {
                break;
            };
            let drv = &mut drivers[rx.nic];
            let page = drv.rx_delivered(rx.buf);
            drv.release_rx_page(page);
            self.deliver_rx(dom, self.cfg.costs.native_drv_rx, workload, &rx.frame);
            rx_done += 1;
            budget -= 1;
        }
        if rx_done > 0 {
            for (i, drv) in drivers.iter_mut().enumerate() {
                if self.post_conventional_rx(i, drv, self.cfg.batch_limit) {
                    self.ledger
                        .charge(ExecCategory::Kernel(dom), self.cfg.costs.pio_write);
                }
            }
        }

        // Transmit.
        if self.cfg.direction == Direction::Transmit {
            let mut doorbells: Vec<usize> = Vec::new();
            let mut failures = 0u32;
            while budget > 0 && failures < self.cfg.conns_per_guest as u32 {
                let Some(w) = workload.as_mut() else { break };
                let unit = w.next_tx();
                let nic = unit.nic;
                let drv = &mut drivers[nic];
                if !drv.can_queue_tx(&self.rings) {
                    failures += 1;
                    continue;
                }
                failures = 0;
                let meta = FrameMeta {
                    dst: MacAddr::for_peer(nic as u8),
                    src: self.nics[nic].conventional().mac(),
                    tcp_payload: framing::MSS,
                    flow: unit.flow,
                    seq: unit.seq,
                };
                drv.queue_tx(meta, &mut self.rings).expect("checked");
                w.commit_tx(unit, framing::MSS);
                self.charge_tx_stack(dom, self.cfg.costs.native_drv_tx);
                budget -= 1;
                if !doorbells.contains(&nic) {
                    doorbells.push(nic);
                }
            }
            for nic in doorbells {
                self.conventional_doorbell(now, sched, dom, nic, &mut drivers[nic]);
            }
        }

        let more_rx = !rx_host.is_empty();
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
        self.meters.nic_irq.add(1);
        self.registry.inc(self.hot.phys_irq);
        if let Some(t) = sched.tracer_mut() {
            t.instant("phys_irq", "irq", now.as_ns(), trace::pid_nic(nic), 0, None);
        }
        self.pending_irqs.push_back(nic);
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

    fn on_wire_tx_done(&mut self, now: SimTime, sched: &mut Scheduler<Event>, nic: usize, id: u64) {
        let frame = self.tx_inflight[nic].take(id);
        // The peer (or switch) takes the frame: transmit measurement.
        if self.meters.in_window {
            self.meters.tx_payload.add(frame.tcp_payload as u64);
            self.meters.packets += 1;
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
                    frame: Box::new(frame),
                },
            );
        }
        match &mut self.nics[nic] {
            NicSlot::Conventional(dev) => {
                dev.tx_frame_sent(
                    now,
                    &frame,
                    &self.rings,
                    &mut self.buses[nic],
                    &mut self.conv_act,
                )
                .expect("completion");
                self.apply_conventional(now, sched, nic);
            }
            NicSlot::Rice(dev) => {
                dev.tx_frame_sent(
                    now,
                    &frame,
                    &self.rings,
                    &mut self.buses[nic],
                    &mut self.rice_act,
                );
                self.apply_rice(now, nic, |at, e| sched.at(now, at, e));
            }
        }
        // Rack uplink: a frame addressed off-host is handed to the
        // top-of-rack switch once the local NIC completion has run.
        if let Some(local) = &self.local_macs {
            if !local.contains(&frame.dst) {
                self.egress.push(EgressFrame {
                    at: now,
                    nic,
                    frame,
                });
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
                        if let Some(at) = irq_at {
                            let reason = IrqReason::Rx;
                            sched.at(now, at.max(now), Event::PhysIrq { nic, reason });
                        }
                    }
                    RxDisposition::Filtered
                    | RxDisposition::DroppedNoBuffer
                    | RxDisposition::DroppedTooSmall => {}
                }
            }
            NicSlot::Rice(dev) => {
                dev.frame_from_wire_into(
                    now,
                    frame,
                    &self.rings,
                    &mut self.buses[nic],
                    &mut self.rice_act,
                );
                self.apply_rice(now, nic, |at, e| sched.at(now, at, e));
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
            let dev = self.nics[nic].rice_mut();
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

/// Assigns `dom` a CDNA context on `dev` under `policy`, attaches it to
/// the device (enabling the device's IOMMU for it under
/// [`DmaPolicy::Iommu`]), and builds the domain's driver for it.
fn build_cdna_context(
    dev: &mut RiceNic,
    engine: &mut ProtectionEngine,
    dom: DomainId,
    policy: DmaPolicy,
    cfg: &TestbedConfig,
    mem: &mut PhysMem,
    rings: &mut RingTable,
) -> CdnaGuestDriver {
    let ctx = engine
        .assign_context(dom, policy, cfg.ring_size, rings, mem)
        .expect("context assignment");
    let st = engine.contexts().state(ctx).expect("assigned");
    dev.attach_context(
        ctx,
        st.tx_ring,
        st.rx_ring,
        policy == DmaPolicy::Validated,
        rings,
    )
    .expect("attach");
    if policy == DmaPolicy::Iommu {
        if dev.iommu().is_none() {
            dev.install_iommu();
        }
        dev.iommu_mut().expect("installed").enable(ctx);
    }
    let pool = cfg.ring_size + cfg.batch_limit + 16;
    CdnaGuestDriver::new(
        dom,
        ctx,
        policy,
        st.tx_ring,
        st.rx_ring,
        cfg.ring_size,
        pool,
        pool,
        mem,
    )
    .expect("driver alloc")
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
    use cdna_check::shadow::ViolationKind;
    use cdna_core::DmaPolicy;
    use cdna_nic::TxEmission;
    use cdna_sim::Simulation;

    fn cfg(io: IoModel, guests: u16, dir: Direction) -> TestbedConfig {
        TestbedConfig::new(io, guests, dir).quick()
    }

    #[test]
    fn journal_fold_reaches_the_shadow_in_page_order() {
        // A sync hands the mirror one net change per page, ascending,
        // whatever order the engines journaled the runs in.
        let mut w = SystemWorld::build(
            cfg(
                IoModel::Cdna {
                    policy: DmaPolicy::Validated,
                },
                2,
                Direction::Receive,
            )
            .with_shadow_check(),
        );
        assert_eq!(w.shadow_sync(), 0);
        // Take the mirror's pin off three engine-held pages, highest
        // first; revoking their guest then unpins each once more than
        // the mirror holds.
        let ctx = w.ctx_of[1][0];
        let mut held: Vec<PageId> = w.engines[0].pinned_runs(ctx).map(|(p, _)| p).collect();
        held.sort();
        let picked: Vec<PageId> = held.iter().step_by(5).take(3).copied().collect();
        assert_eq!(picked.len(), 3);
        let h = w.shadow.as_mut().expect("shadow on");
        for &page in picked.iter().rev() {
            h.shadow.on_unpin(page);
        }
        w.revoke_guest_contexts(1);
        assert_eq!(w.shadow_sync(), 3);
        let shadow = w.shadow().expect("shadow on");
        let underflows: Vec<Option<PageId>> = shadow
            .violations()
            .iter()
            .map(|v| {
                assert_eq!(v.kind, ViolationKind::UnpinUnderflow);
                v.page
            })
            .collect();
        assert_eq!(underflows, picked.into_iter().map(Some).collect::<Vec<_>>());
        assert!(w.engines.iter().all(|e| e.pin_journal() == Some(&[])));
    }

    /// Both of `sort_by_page`'s paths put the endpoints in page order
    /// and keep every page's net change (the running sum of the deltas
    /// at or below it).
    #[test]
    fn sort_by_page_keeps_each_page_net_change_on_both_paths() {
        let net = |ends: &[(u32, i32)]| -> Vec<i32> {
            (1_000..1_500)
                .map(|p| ends.iter().filter(|e| e.0 <= p).map(|e| e.1).sum())
                .collect()
        };
        let mut rng = SimRng::seed_from(7);
        let (mut counted, mut compared) = (0, 0);
        for _ in 0..200 {
            let span = 1 + rng.below(400) as u32;
            let mut ends: Vec<(u32, i32)> = (0..rng.below(120))
                .flat_map(|_| {
                    let first = 1_000 + rng.below(span as usize) as u32;
                    let d = if rng.chance(0.5) { 1 } else { -1 };
                    [(first, d), (first + 1 + rng.below(4) as u32, -d)]
                })
                .collect();
            let want = net(&ends);
            let (lo, hi) = (
                ends.iter().map(|e| e.0).min(),
                ends.iter().map(|e| e.0).max(),
            );
            let wide = lo
                .zip(hi)
                .is_some_and(|(lo, hi)| ends.len() * 8 < (hi - lo + 1) as usize);
            sort_by_page(&mut ends);
            assert!(ends.windows(2).all(|w| w[0].0 <= w[1].0), "{ends:?}");
            assert_eq!(net(&ends), want);
            compared += usize::from(wide);
            counted += usize::from(!wide);
        }
        assert!(
            counted > 0 && compared > 0,
            "{counted} counted, {compared} compared"
        );
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
            let dev = nic.rice();
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
        let frame = Frame::tcp_data(
            w.nics[0].rice().mac_for(w.ctx_of[g][0]),
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

    /// Guest `g` hands NIC 0 one frame bound for `dst` down the real
    /// path: a validated enqueue, then the transmit doorbell at `now`.
    /// Returns the device's activity, not yet absorbed.
    fn transmit_one(w: &mut SystemWorld, g: usize, dst: MacAddr, now: SimTime) -> Activity {
        let (ctx, owner) = (w.ctx_of[g][0], DomainId::guest(g as u16));
        let page = w.mem.alloc(owner).expect("free page");
        let req = cdna_core::TxRequest {
            buf: BufferSlice::new(page.base_addr(), 1514),
            flags: cdna_nic::DescFlags::END_OF_PACKET,
            meta: FrameMeta {
                dst,
                src: w.nics[0].rice().mac_for(ctx),
                tcp_payload: framing::MSS,
                flow: FlowId::new(g as u16, 0),
                seq: 0,
            },
        };
        let out = w.engines[0]
            .enqueue_tx(ctx, owner, &[req], 0, &mut w.rings, &mut w.mem)
            .expect("validated enqueue");
        let mut act = Activity::default();
        w.nics[0]
            .rice_mut()
            .mailbox_write_into(
                now,
                ctx,
                Mailbox::TxProducer.index(),
                out.producer,
                &w.rings,
                &mut w.buses[0],
                &mut act,
            )
            .expect("attached context");
        act
    }

    /// Forwards only the transmit-wire events to `world`, so a test sees
    /// exactly the hand-offs it makes. Completions are held until `hold`
    /// of them have arrived and are then handled newest first.
    struct WireOnly {
        world: SystemWorld,
        hold: usize,
        held: Vec<Event>,
        /// `(time, nic, id)` of every completion handled, in order.
        completed: Vec<(SimTime, usize, u64)>,
    }

    impl World for WireOnly {
        type Event = Event;

        fn handle(&mut self, now: SimTime, event: Event, sched: &mut Scheduler<Event>) {
            match event {
                Event::EmissionDue { .. } => self.world.handle(now, event, sched),
                Event::WireTxDone { .. } => {
                    self.held.push(event);
                    if self.held.len() < self.hold {
                        return;
                    }
                    while let Some(e) = self.held.pop() {
                        if let Event::WireTxDone { nic, id } = e {
                            self.completed.push((now, nic, id));
                        }
                        self.world.handle(now, e, sched);
                    }
                }
                Event::CpuDispatch
                | Event::PhysIrq { .. }
                | Event::WireRxArrive { .. }
                | Event::PeerPump { .. }
                | Event::StartMeasure
                | Event::StopMeasure => {}
            }
        }
    }

    #[test]
    fn hand_offs_reserve_the_wire_in_fifo_order() {
        let mut w = cdna_tx_world();
        w.enable_uplink();
        // Guests 0 and 1 each hand NIC 0 one frame bound off-host, so
        // each completion surfaces in the egress buffer with its frame.
        // The second is ready while the first is still serializing, so
        // it queues behind it.
        let remote = MacAddr::for_host_context(1, 0, 1);
        let now = SimTime::from_us(5);
        let mut handed = Vec::new();
        let mut events = Vec::new();
        for g in 0..2 {
            let mut act = transmit_one(&mut w, g, remote, now);
            let [e] = act.emissions.as_slice() else {
                panic!("expected one emission, got {:?}", act.emissions);
            };
            handed.push((e.frame.src, e.ready_at, e.frame.wire_bytes()));
            events.extend(w.absorb_nic_activity(now, 0, &mut act));
            assert_eq!(act, Activity::default(), "absorbing clears the activity");
        }
        let [(src_a, ready_a, bytes), (src_b, ready_b, _)] = handed[..] else {
            unreachable!()
        };
        assert_ne!(src_a, src_b);
        let ser = SimTime::from_ns(u64::from(bytes + w.tx_gap_bytes(0)) * 8);
        let done = |e: &(SimTime, Event)| match e {
            (at, Event::WireTxDone { nic: 0, id }) => (*at, *id),
            other => panic!("expected a NIC 0 WireTxDone, got {other:?}"),
        };
        let [first, second] = [done(&events[0]), done(&events[1])];
        assert_eq!(events.len(), 2);
        assert_eq!(first.0, ready_a + ser);
        assert!(ready_b < first.0);
        assert_eq!(second.0, first.0 + ser, "FIFO behind the first");
        assert_eq!(w.wires[0].busy_until(WireDirection::Transmit), second.0);
        assert!(w.wires[1].is_idle(SimTime::ZERO, WireDirection::Transmit));

        // Deliver the two completions in reverse: each must still take
        // its own frame (a FIFO pop would hand the first id frame a).
        let mut sim = Simulation::new(WireOnly {
            world: w,
            hold: 2,
            held: Vec::new(),
            completed: Vec::new(),
        });
        for (at, e) in events {
            sim.schedule(at, e);
        }
        sim.run_until(second.0);
        let h = sim.world_mut();
        assert_eq!(
            h.completed,
            [(second.0, 0, second.1), (second.0, 0, first.1)]
        );
        let egress: Vec<_> = h
            .world
            .drain_egress()
            .into_iter()
            .map(|e| (e.at, e.nic, e.frame.src))
            .collect();
        assert_eq!(egress, [(second.0, 0, src_b), (second.0, 0, src_a)]);
    }

    #[test]
    fn emission_due_reserves_the_wire_and_completes_by_id() {
        let mut w = SystemWorld::build(cfg(
            IoModel::XenBridged {
                nic: NicKind::Intel,
            },
            2,
            Direction::Transmit,
        ));
        w.enable_uplink();
        let src = w.nics[0].conventional().mac();
        let frame = |seq| {
            Frame::tcp_data(
                src,
                MacAddr::for_host_context(1, 0, 1),
                framing::MSS,
                FlowId::new(0, 0),
                seq,
            )
        };
        let ser = SimTime::from_ns(u64::from(frame(0).wire_bytes()) * 8);
        let mut sim = Simulation::new(WireOnly {
            world: w,
            hold: 1,
            held: Vec::new(),
            completed: Vec::new(),
        });
        // Two external emissions at the same instant: the second
        // reserves the wire behind the first, and each completion takes
        // its frame back from the slot ring by the id it was given.
        let t = SimTime::from_us(3);
        for seq in [7, 8] {
            let frame = Box::new(frame(seq));
            sim.schedule(t, Event::EmissionDue { nic: 0, frame });
        }
        sim.run_until(t + ser + ser);
        let h = sim.world_mut();
        assert_eq!(h.completed, [(t + ser, 0, 0), (t + ser + ser, 0, 1)]);
        assert_eq!(
            h.world.wires[0].busy_until(WireDirection::Transmit),
            t + ser + ser
        );
        assert_eq!(h.world.nics[0].conventional().stats().tx_frames, 2);
        let egress: Vec<_> = h
            .world
            .drain_egress()
            .into_iter()
            .map(|e| (e.at, e.frame.seq))
            .collect();
        assert_eq!(egress, [(t + ser, 7), (t + ser + ser, 8)]);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "wire reservation")]
    fn reservations_out_of_start_order_trip_the_debug_check() {
        let mut w = cdna_tx_world();
        let mut late = hand_off(&w, 0, SimTime::from_us(20));
        let mut early = hand_off(&w, 1, SimTime::from_us(10));
        w.absorb_nic_activity(SimTime::ZERO, 0, &mut late);
        w.absorb_nic_activity(SimTime::ZERO, 0, &mut early);
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
            let dev = nic.rice();
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

    /// Every charge lands in the ledger and lengthens its own dispatch:
    /// each dispatch occupies the CPU for exactly what it charged, and
    /// over a window open from the first dispatch on, those lengths sum
    /// to the ledger's busy time.
    #[test]
    fn dispatches_last_exactly_what_they_charge() {
        for io in [
            IoModel::XenBridged {
                nic: NicKind::Intel,
            },
            IoModel::Cdna {
                policy: DmaPolicy::Validated,
            },
        ] {
            let mut c = cfg(io, 2, Direction::Transmit);
            c.warmup = SimTime::ZERO;
            let stop = c.measure;
            let mut sim = Simulation::new(SystemWorld::build(c));
            for (t, e) in sim.world_mut().prime() {
                sim.schedule(t, e);
            }
            let mut dispatched = SimTime::ZERO;
            while sim.now() < stop || sim.world().ledger.recording() {
                let busy_before = sim.world().cpu_busy_until;
                assert!(sim.step());
                let w = sim.world();
                if w.cpu_busy_until != busy_before {
                    let length = w.cpu_busy_until - sim.now();
                    assert_eq!(length, w.ledger.dispatch_charged());
                    dispatched += length;
                }
            }
            let w = sim.world();
            assert!(dispatched > SimTime::ZERO);
            assert_eq!(dispatched, w.ledger.total_busy(), "{io:?}");
        }
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
