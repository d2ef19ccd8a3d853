#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

//! Deterministic multi-host rack simulation (`cdna-rack`).
//!
//! The paper evaluates CDNA on one host; this crate scales the same
//! machine model to a rack: N independent [`SystemWorld`] hosts — each
//! with its own CPU ledger, Xen instance, and RiceNICs — connected
//! through a store-and-forward top-of-rack switch
//! ([`TorSwitch`]).
//!
//! # Epoch-barrier synchronization
//!
//! Cross-host delivery is made deterministic with conservative
//! lookahead: every path between two hosts crosses the switch, and the
//! switch adds at least `2 * latency` to any frame, so a host's events
//! up to time `T` can never be affected by a frame another host
//! transmits after `T - 2 * latency`. Hosts therefore advance in
//! epochs of exactly one link latency. At each epoch barrier the rack
//! drains every host's uplink egress buffer, pushes the frames through
//! the switch in a fixed merge order — `(departure time, source host,
//! capture sequence)` — and schedules the resulting arrivals into the
//! destination hosts, always at times strictly beyond the barrier.
//! The barrier work is serial on the calling thread. The per-epoch
//! host stepping fans out over [`cdna_sim::par::run_rounds`]: the
//! hosts split once into `jobs` contiguous slices, the caller steps the
//! first, and each other slice stays with one worker, crossing to the
//! barrier and back each epoch. No host is ever locked, and `--jobs 1`
//! and `--jobs N` produce byte-identical rack reports.
//!
//! # Example
//!
//! ```
//! use cdna_rack::{RackConfig, RackWorkload};
//!
//! let mut cfg = RackConfig::new(2, 1, RackWorkload::XHost).quick();
//! cfg.measure = cdna_sim::SimTime::from_ms(4);
//! cfg.warmup = cdna_sim::SimTime::from_ms(2);
//! let report = cdna_rack::run_rack(cfg, 1);
//! assert_eq!(report.per_host.len(), 2);
//! assert!(report.switch.forwarded > 0);
//! ```

mod switch;

pub use switch::{SwitchConfig, SwitchStats, TorSwitch};

use cdna_core::DmaPolicy;
use cdna_net::MacAddr;
use cdna_sim::{par, SimTime, Simulation};
use cdna_system::{
    report_from_world, Direction, EgressFrame, Event, IoModel, RunReport, SystemWorld,
    TestbedConfig,
};
use cdna_trace::json::JsonWriter;

/// What every guest in the rack does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RackWorkload {
    /// Cross-host ring: guest `g` on host `h` streams to guest `g`'s
    /// context on host `(h + 1) % hosts`, through the switch. This is
    /// the workload that exercises the fabric.
    XHost,
    /// Every guest transmits to its host-local peer sink; the switch
    /// carries no traffic. The host-scaling baseline.
    TxPeer,
    /// Every guest receives from its host-local peer source.
    RxPeer,
}

impl RackWorkload {
    /// Stable name used in reports and on the command line.
    pub fn name(self) -> &'static str {
        match self {
            RackWorkload::XHost => "xhost",
            RackWorkload::TxPeer => "txpeer",
            RackWorkload::RxPeer => "rxpeer",
        }
    }

    /// Parses a [`RackWorkload::name`].
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "xhost" => Some(RackWorkload::XHost),
            "txpeer" => Some(RackWorkload::TxPeer),
            "rxpeer" => Some(RackWorkload::RxPeer),
            _ => None,
        }
    }

    fn direction(self) -> Direction {
        match self {
            RackWorkload::RxPeer => Direction::Receive,
            RackWorkload::XHost | RackWorkload::TxPeer => Direction::Transmit,
        }
    }
}

/// A rack scenario: the host/guest matrix plus shared timing.
#[derive(Debug, Clone)]
pub struct RackConfig {
    /// Number of hosts in the rack (each is a full [`SystemWorld`]).
    pub hosts: u8,
    /// Guest domains per host.
    pub guests: u16,
    /// Physical NICs (switch uplinks) per host.
    pub nics: u8,
    /// The traffic pattern.
    pub workload: RackWorkload,
    /// Base run label; host `h` is labelled with a seed derived from
    /// this and `h` ([`host_seed`]). Nothing in the simulated testbed
    /// is random, so the seed changes no simulated result.
    pub seed: u64,
    /// Per-host warm-up before measurement.
    pub warmup: SimTime,
    /// Measurement window length.
    pub measure: SimTime,
    /// Run the DMA shadow checker on every host.
    pub shadow_check: bool,
    /// Arm the RiceNIC adversarial mailbox seam on every host
    /// ([`cdna_ricenic::RiceNicConfig::adversarial`]) so a
    /// [`RackWorld::run_with_host_hook`] hook can inject malicious
    /// guest-interface traffic. Off by default; arming it changes no
    /// benign behaviour.
    pub adversarial: bool,
    /// Top-of-rack switch timing. `switch.latency` is also the epoch
    /// length.
    pub switch: SwitchConfig,
}

impl RackConfig {
    /// A rack of `hosts` hosts with `guests` guests each, on the
    /// standard testbed timing (200 ms warm-up, 800 ms window).
    pub fn new(hosts: u8, guests: u16, workload: RackWorkload) -> Self {
        let base = TestbedConfig::new(
            IoModel::Cdna {
                policy: DmaPolicy::Validated,
            },
            guests.max(1),
            workload.direction(),
        );
        RackConfig {
            hosts: hosts.max(1),
            guests: guests.max(1),
            nics: base.nics,
            workload,
            seed: base.seed,
            warmup: base.warmup,
            measure: base.measure,
            shadow_check: false,
            adversarial: false,
            switch: SwitchConfig::default(),
        }
    }

    /// Shrinks the simulated window for smoke tests and CI.
    pub fn quick(mut self) -> Self {
        self.warmup = SimTime::from_ms(30);
        self.measure = SimTime::from_ms(120);
        self
    }

    /// Sets the base seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Enables the per-host DMA shadow checker.
    pub fn with_shadow_check(mut self) -> Self {
        self.shadow_check = true;
        self
    }

    /// Arms the adversarial mailbox seam on every host (see
    /// [`RackConfig::adversarial`]).
    pub fn with_adversarial(mut self) -> Self {
        self.adversarial = true;
        self
    }

    /// The per-host testbed configuration for host `host`: identical
    /// across the rack except for the derived seed and the MAC host
    /// namespace.
    pub fn host_config(&self, host: u8) -> TestbedConfig {
        let mut cfg = TestbedConfig::new(
            IoModel::Cdna {
                policy: DmaPolicy::Validated,
            },
            self.guests,
            self.workload.direction(),
        )
        .with_seed(host_seed(self.seed, host));
        cfg.nics = self.nics;
        cfg.warmup = self.warmup;
        cfg.measure = self.measure;
        cfg.shadow_check = self.shadow_check;
        cfg.ricenic.adversarial = self.adversarial;
        cfg.ricenic.mac_host = host;
        cfg
    }
}

/// The derived seed for host `host`: a per-host label for its testbed
/// config (splitmix-style spread, so adjacent hosts' labels differ in
/// every bit).
pub fn host_seed(base: u64, host: u8) -> u64 {
    base.wrapping_add(0x9e37_79b9_7f4a_7c15u64.wrapping_mul(host as u64 + 1))
}

/// Everything a finished rack run reports.
#[derive(Debug, Clone)]
pub struct RackReport {
    /// The scenario's host count.
    pub hosts: u8,
    /// Guests per host.
    pub guests: u16,
    /// Workload name.
    pub workload: &'static str,
    /// Base seed the scenario ran at.
    pub seed: u64,
    /// Epoch (lookahead window) length in nanoseconds.
    pub epoch_ns: u64,
    /// Number of epoch barriers crossed.
    pub epochs: u64,
    /// Per-host reports, host 0 first — each the same computation a
    /// standalone [`cdna_system::run_experiment`] would produce.
    pub per_host: Vec<RunReport>,
    /// Switch counters for the whole run.
    pub switch: SwitchStats,
}

impl RackReport {
    /// Sum of per-host goodput.
    pub fn aggregate_mbps(&self) -> f64 {
        self.per_host.iter().map(|r| r.throughput_mbps).sum()
    }

    /// Sum of per-host simulation events.
    pub fn total_events(&self) -> u64 {
        self.per_host.iter().map(|r| r.events_processed).sum()
    }

    /// Sum of per-host protection faults (0 on a clean run).
    pub fn total_faults(&self) -> u64 {
        self.per_host.iter().map(|r| r.protection_faults).sum()
    }

    /// The full report as deterministic JSON (used byte-for-byte by the
    /// jobs-equivalence differential tests: no floats are formatted
    /// differently across worker counts because the values themselves
    /// are identical).
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.key("schema");
        w.string("cdna-rack/1");
        w.key("hosts");
        w.number_u64(self.hosts as u64);
        w.key("guests_per_host");
        w.number_u64(self.guests as u64);
        w.key("workload");
        w.string(self.workload);
        w.key("seed");
        w.number_u64(self.seed);
        w.key("epoch_ns");
        w.number_u64(self.epoch_ns);
        w.key("epochs");
        w.number_u64(self.epochs);
        w.key("aggregate_mbps");
        w.number_f64(self.aggregate_mbps());
        w.key("total_events");
        w.number_u64(self.total_events());
        w.key("total_faults");
        w.number_u64(self.total_faults());
        w.key("switch");
        w.begin_object();
        w.key("forwarded");
        w.number_u64(self.switch.forwarded);
        w.key("forwarded_bytes");
        w.number_u64(self.switch.forwarded_bytes);
        w.key("dropped_unknown");
        w.number_u64(self.switch.dropped_unknown);
        w.key("learned");
        w.number_u64(self.switch.learned);
        w.end_object();
        w.key("per_host");
        w.begin_array();
        for r in &self.per_host {
            w.begin_object();
            w.key("throughput_mbps");
            w.number_f64(r.throughput_mbps);
            w.key("packets");
            w.number_u64(r.packets);
            w.key("rx_dropped");
            w.number_u64(r.rx_dropped);
            w.key("protection_faults");
            w.number_u64(r.protection_faults);
            w.key("events_processed");
            w.number_u64(r.events_processed);
            w.key("nic_interrupts_per_s");
            w.number_f64(r.nic_interrupts_per_s);
            w.key("domain_switches_per_s");
            w.number_f64(r.domain_switches_per_s);
            w.end_object();
        }
        w.end_array();
        w.end_object();
        w.finish()
    }
}

/// The rack: every host world wrapped in its own simulation, plus the
/// switch between them.
#[derive(Debug)]
pub struct RackWorld {
    cfg: RackConfig,
    hosts: Vec<Simulation<SystemWorld>>,
    switch: TorSwitch,
}

impl RackWorld {
    /// Builds the rack: N hosts (host `h` seeded by [`host_seed`] and
    /// MAC-namespaced by `h`), the switch pre-loaded with every guest
    /// context MAC, and — for [`RackWorkload::XHost`] — uplinks enabled
    /// and every guest's destination pointed at its ring successor.
    pub fn build(cfg: RackConfig) -> Self {
        let n = cfg.hosts as usize;
        let nics = cfg.nics as usize;
        let mut hosts: Vec<Simulation<SystemWorld>> = (0..cfg.hosts)
            .map(|h| {
                let host_cfg = cfg.host_config(h);
                let queue = host_cfg.queue;
                Simulation::with_queue(SystemWorld::build(host_cfg), queue)
            })
            .collect();

        // The switch knows where every guest context lives: port
        // h * nics + nic. Dynamic learning is kept as well, so the
        // first frame of a flow does not need the preload to exist.
        let mut switch = TorSwitch::new(cfg.switch, n * nics);
        for (h, sim) in hosts.iter().enumerate() {
            let world = sim.world();
            for g in 0..cfg.guests {
                for nic in 0..nics {
                    switch.preload(world.guest_rx_mac(g, nic), h * nics + nic);
                }
            }
        }

        if cfg.workload == RackWorkload::XHost && n > 1 {
            // Collect destination MACs first (immutable pass), then
            // point each host at its ring successor.
            let rx_macs: Vec<Vec<Vec<MacAddr>>> = hosts
                .iter()
                .map(|sim| {
                    (0..cfg.guests)
                        .map(|g| {
                            (0..nics)
                                .map(|nic| sim.world().guest_rx_mac(g, nic))
                                .collect()
                        })
                        .collect()
                })
                .collect();
            for (h, sim) in hosts.iter_mut().enumerate() {
                let world = sim.world_mut();
                world.enable_uplink();
                world.set_remote_dst(rx_macs[(h + 1) % n].clone());
            }
        }

        RackWorld { cfg, hosts, switch }
    }

    /// The scenario this rack was built for.
    pub fn config(&self) -> &RackConfig {
        &self.cfg
    }

    /// Runs the whole rack to the end of the measurement window on
    /// `jobs` workers and assembles the report. Determinism does not
    /// depend on `jobs`.
    pub fn run(self, jobs: usize) -> RackReport {
        self.run_with_host_hook(jobs, |_, _, _| {})
    }

    /// Like [`RackWorld::run`], but invokes `hook(host, round, sim)`
    /// for every host at the start of each epoch round, *before* the
    /// host simulates that epoch. This is the rack-level adversarial
    /// injection seam (`cdna-fuzz`): a persona perturbs one host's
    /// guest-visible interface between epochs while the other hosts
    /// stay untouched — each hook call sees only its own host, so
    /// determinism is still independent of `jobs`.
    pub fn run_with_host_hook<H>(self, jobs: usize, hook: H) -> RackReport
    where
        H: Fn(usize, u64, &mut Simulation<SystemWorld>) + Sync,
    {
        let RackWorld {
            cfg,
            mut hosts,
            mut switch,
        } = self;
        for sim in &mut hosts {
            let primed = sim.world_mut().prime();
            for (t, e) in primed {
                sim.schedule(t, e);
            }
        }

        let end_ns = (cfg.warmup + cfg.measure).as_ns();
        let epoch_ns = cfg.switch.latency.as_ns().max(1);
        let epochs = end_ns.div_ceil(epoch_ns);
        let nics = cfg.nics as usize;

        let hosts = par::run_rounds(
            jobs,
            hosts,
            |round, hosts| {
                if round > 0 {
                    // Epoch barrier: drain every uplink, cross the
                    // switch in (departure, src host, capture seq)
                    // order, inject arrivals. All times here are beyond
                    // every host's local clock (see crate docs).
                    let mut crossing: Vec<(SimTime, usize, usize, EgressFrame)> = Vec::new();
                    for (h, sim) in hosts.iter_mut().enumerate() {
                        for (i, ef) in sim.world_mut().drain_egress().into_iter().enumerate() {
                            crossing.push((ef.at, h, i, ef));
                        }
                    }
                    crossing.sort_by_key(|(at, h, i, _)| (*at, *h, *i));
                    for (at, h, _, ef) in crossing {
                        let src_port = h * nics + ef.nic;
                        if let Some((dst_port, deliver)) = switch.forward(at, src_port, &ef.frame) {
                            hosts[dst_port / nics].schedule(
                                deliver,
                                Event::WireRxArrive {
                                    nic: dst_port % nics,
                                    frame: Box::new(ef.frame),
                                },
                            );
                        }
                    }
                }
                round < epochs
            },
            |host, round, sim| {
                hook(host, round, sim);
                sim.run_until(SimTime::from_ns(((round + 1) * epoch_ns).min(end_ns)));
            },
        );

        let per_host: Vec<RunReport> = hosts
            .into_iter()
            .map(|sim| {
                let events = sim.events_processed();
                let mut world = sim.into_world();
                report_from_world(&mut world, events, false)
            })
            .collect();

        RackReport {
            hosts: cfg.hosts,
            guests: cfg.guests,
            workload: cfg.workload.name(),
            seed: cfg.seed,
            epoch_ns,
            epochs,
            per_host,
            switch: switch.stats(),
        }
    }
}

/// Builds and runs a rack scenario on `jobs` workers.
pub fn run_rack(cfg: RackConfig, jobs: usize) -> RackReport {
    RackWorld::build(cfg).run(jobs)
}
