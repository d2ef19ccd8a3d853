//! The timing `World` wrapper: forwards every event to a
//! [`SystemWorld`], counts each [`Event`] kind, and times a sparse,
//! deterministic sample of the handler calls.
//!
//! The wrapper never touches the event or the scheduler, so a run
//! through it is the same simulation as a run of the bare world; the
//! report comparison in `tests/` holds it to that.

use std::sync::OnceLock;
use std::time::Instant;

use cdna_sim::{Scheduler, SimTime, World};
use cdna_system::{Event, SystemWorld};

/// Event kinds, in [`kind_of`] order.
pub const KINDS: [&str; 8] = [
    "cpu_dispatch",
    "phys_irq",
    "emission_due",
    "wire_tx_done",
    "wire_rx_arrive",
    "peer_pump",
    "start_measure",
    "stop_measure",
];

/// Per-layer count metric of each data-path kind (the first six).
pub const COUNT_METRICS: [&str; 6] = [
    "system.cpu_dispatch.count",
    "system.phys_irq.count",
    "system.emission_due.count",
    "system.wire_tx_done.count",
    "system.wire_rx_arrive.count",
    "system.peer_pump.count",
];

/// Per-layer mean-handler-time metric of each data-path kind.
pub const NS_METRICS: [&str; 6] = [
    "system.cpu_dispatch.ns",
    "system.phys_irq.ns",
    "system.emission_due.ns",
    "system.wire_tx_done.ns",
    "system.wire_rx_arrive.ns",
    "system.peer_pump.ns",
];

/// Index of `event`'s kind in [`KINDS`].
pub fn kind_of(event: &Event) -> usize {
    match event {
        Event::CpuDispatch => 0,
        Event::PhysIrq { .. } => 1,
        Event::EmissionDue { .. } => 2,
        Event::WireTxDone { .. } => 3,
        Event::WireRxArrive { .. } => 4,
        Event::PeerPump { .. } => 5,
        Event::StartMeasure => 6,
        Event::StopMeasure => 7,
    }
}

/// Handler calls are timed when the low bits of a per-call hash are
/// zero: one call in 128 on average, without locking onto any period
/// in the event stream.
const SAMPLE_MASK: u64 = 127;

/// Host nanoseconds one `Instant::now` pair adds to a timed interval:
/// the median of many back-to-back readings, measured once.
pub fn timer_overhead_ns() -> u64 {
    static OVERHEAD: OnceLock<u64> = OnceLock::new();
    *OVERHEAD.get_or_init(|| {
        let mut d: Vec<u64> = (0..10_001)
            .map(|_| {
                let a = Instant::now();
                Instant::now().duration_since(a).as_nanos() as u64
            })
            .collect();
        d.sort_unstable();
        d[d.len() / 2]
    })
}

/// Sampled handler calls kept as spans per run.
const SPAN_CAP: usize = 512;

/// Per-kind handler statistics gathered by [`TimingWorld`].
#[derive(Debug, Clone, Default)]
pub struct HandlerStats {
    /// Calls per kind.
    pub counts: [u64; 8],
    /// Timed calls per kind.
    pub samples: [u64; 8],
    /// Total host nanoseconds of the timed calls per kind, each net of
    /// [`timer_overhead_ns`].
    pub sampled_ns: [u64; 8],
    /// Engine gaps timed: from the end of a timed handler call to the
    /// start of the next call, i.e. the run loop's pop and dispatch.
    pub gaps: u64,
    /// Total host nanoseconds of the timed gaps, each net of
    /// [`timer_overhead_ns`].
    pub gap_ns: u64,
    /// The first timed calls as `(kind, start, end)`, for spans.
    pub spans: Vec<(usize, Instant, Instant)>,
}

impl HandlerStats {
    /// Mean host nanoseconds per call of `kind` (0 if never sampled).
    pub fn mean_ns(&self, kind: usize) -> f64 {
        self.sampled_ns[kind] as f64 / self.samples[kind].max(1) as f64
    }

    /// Estimated host nanoseconds spent in all handlers: each kind's
    /// sampled mean times its call count.
    pub fn estimated_total_ns(&self) -> f64 {
        (0..KINDS.len())
            .map(|k| self.mean_ns(k) * self.counts[k] as f64)
            .sum()
    }

    /// Mean host nanoseconds the engine spends per event between
    /// handler calls (0 if no gap was timed).
    pub fn engine_ns(&self) -> f64 {
        self.gap_ns as f64 / self.gaps.max(1) as f64
    }

    /// Adds `other`'s counters into `self` (spans are not merged).
    pub fn absorb(&mut self, other: &HandlerStats) {
        for k in 0..KINDS.len() {
            self.counts[k] += other.counts[k];
            self.samples[k] += other.samples[k];
            self.sampled_ns[k] += other.sampled_ns[k];
        }
        self.gaps += other.gaps;
        self.gap_ns += other.gap_ns;
    }
}

/// A [`SystemWorld`] behind a counting, sampling shim.
#[derive(Debug)]
pub struct TimingWorld {
    inner: SystemWorld,
    stats: HandlerStats,
    calls: u64,
    overhead_ns: u64,
    /// End of the last timed handler call, when the next call should
    /// time the engine gap since.
    gap_from: Option<Instant>,
}

impl TimingWorld {
    /// Wraps `inner`.
    pub fn new(inner: SystemWorld) -> Self {
        TimingWorld {
            inner,
            stats: HandlerStats::default(),
            calls: 0,
            overhead_ns: timer_overhead_ns(),
            gap_from: None,
        }
    }
}

impl World for TimingWorld {
    type Event = Event;

    fn handle(&mut self, now: SimTime, event: Event, sched: &mut Scheduler<Event>) {
        if let Some(from) = self.gap_from.take() {
            self.stats.gaps += 1;
            self.stats.gap_ns +=
                (from.elapsed().as_nanos() as u64).saturating_sub(self.overhead_ns);
        }
        let kind = kind_of(&event);
        self.stats.counts[kind] += 1;
        self.calls += 1;
        // splitmix64 finalizer over the call index.
        let mut z = self.calls.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 31)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        if (z ^ (z >> 29)) & SAMPLE_MASK != 0 {
            self.inner.handle(now, event, sched);
            return;
        }
        let start = Instant::now();
        self.inner.handle(now, event, sched);
        let end = Instant::now();
        self.stats.samples[kind] += 1;
        self.stats.sampled_ns[kind] +=
            (end.duration_since(start).as_nanos() as u64).saturating_sub(self.overhead_ns);
        if self.stats.spans.len() < SPAN_CAP {
            self.stats.spans.push((kind, start, end));
        }
        self.gap_from = Some(Instant::now());
    }
}

/// A world the host workloads can drive: the bare [`SystemWorld`] or
/// the [`TimingWorld`] shim around it.
pub trait Hosted: World<Event = Event> + Sized {
    /// Wraps a freshly built world.
    fn wrap(world: SystemWorld) -> Self;
    /// The simulated machine.
    fn system(&mut self) -> &mut SystemWorld;
    /// Unwraps into the machine and whatever handler statistics were
    /// gathered.
    fn finish(self) -> (SystemWorld, Option<HandlerStats>);
}

impl Hosted for SystemWorld {
    fn wrap(world: SystemWorld) -> Self {
        world
    }
    fn system(&mut self) -> &mut SystemWorld {
        self
    }
    fn finish(self) -> (SystemWorld, Option<HandlerStats>) {
        (self, None)
    }
}

impl Hosted for TimingWorld {
    fn wrap(world: SystemWorld) -> Self {
        TimingWorld::new(world)
    }
    fn system(&mut self) -> &mut SystemWorld {
        &mut self.inner
    }
    fn finish(self) -> (SystemWorld, Option<HandlerStats>) {
        (self.inner, Some(self.stats))
    }
}
