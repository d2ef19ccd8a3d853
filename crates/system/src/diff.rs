//! Control-run differencing: canonical digests of victim-visible state.
//!
//! The paper's isolation claim (§3.3) is that a malicious or buggy
//! guest's damage is confined to its own context: every other guest's
//! traffic and protection state proceed exactly as if the attacker were
//! absent. `cdna-fuzz` tests that claim by running each adversarial
//! episode twice — once with the attacking persona active, once as a
//! no-attacker control — and requiring the *victim digest* of the two
//! finished worlds to be byte-identical.
//!
//! [`victim_digest`] serializes everything a victim guest can observe
//! or be billed for: its workload byte counters, its per-NIC protection
//! engine producers and pinned-page counts, its device-side consumer
//! indices and context counters, plus the global wire/interrupt meters
//! (the attacker's episodes are constructed so that only rejected or
//! faulting operations ever leave its own context — any global drift is
//! a protection-path bug by definition). The digest deliberately
//! excludes the fault log and the attacker's own contexts: those are
//! *supposed* to differ between an attack run and its control.

use cdna_core::ContextId;
use cdna_trace::json::JsonWriter;

use crate::world::NicSlot;
use crate::SystemWorld;

/// Serializes the victim-visible state of a finished world as canonical
/// JSON. `victims` is the number of leading guests to include —
/// normally `cfg.guests - cfg.idle_guests`, leaving the trailing
/// attacker slots out of the digest.
///
/// Two runs of the same configuration must produce byte-identical
/// digests unless something crossed a protection boundary; the digest is
/// ordered and hand-rolled precisely so "byte-identical" is meaningful.
pub fn victim_digest(world: &SystemWorld, victims: u16) -> String {
    let mut w = JsonWriter::with_capacity(4096);
    w.begin_object();
    w.key("schema");
    w.string("cdna-victim-digest/1");
    w.key("victims");
    w.number_u64(victims as u64);

    // Global data-path meters. Attacker activity that is rejected or
    // faults never reaches the wire, so these must match the control.
    w.key("meters");
    w.begin_object();
    w.key("packets");
    w.number_u64(world.meters.packets);
    w.key("tx_payload_events");
    w.number_u64(world.meters.tx_payload.events());
    w.key("rx_payload_events");
    w.number_u64(world.meters.rx_payload.events());
    w.key("nic_irq_events");
    w.number_u64(world.meters.nic_irq.events());
    w.key("guest_virq_events");
    w.number_u64(world.meters.guest_virq.events());
    w.end_object();

    // Event-channel conservation inputs (global, attacker included —
    // the attacker's channels only move during its benign bootstrap,
    // which the control run repeats).
    w.key("evtchn");
    w.begin_object();
    w.key("sent");
    w.number_u64(world.evt.sent());
    w.key("collected");
    w.number_u64(world.evt.collected());
    w.key("pending");
    w.number_u64(world.evt.pending_total());
    w.end_object();

    w.key("guests");
    w.begin_array();
    for g in 0..victims {
        w.begin_object();
        w.key("guest");
        w.number_u64(g as u64);
        let dom_index = world
            .domains
            .iter()
            .position(|d| d.id == cdna_mem::DomainId::guest(g));
        if let Some(idx) = dom_index {
            if let Some(wl) = &world.domains[idx].workload {
                w.key("tx_bytes");
                w.number_u64(wl.total_tx_bytes());
                w.key("rx_bytes");
                w.number_u64(wl.total_rx_bytes());
            }
            w.key("rx_host_queued");
            w.number_u64(world.domains[idx].rx_host.len() as u64);
        }
        w.key("contexts");
        w.begin_array();
        if let Some(ctxs) = world.ctx_of.get(g as usize) {
            for (nic, &ctx) in ctxs.iter().enumerate() {
                w.begin_object();
                w.key("nic");
                w.number_u64(nic as u64);
                w.key("ctx");
                w.number_u64(ctx.0 as u64);
                write_engine_state(&mut w, world, nic, ctx);
                write_device_state(&mut w, world, nic, ctx);
                w.end_object();
            }
        }
        w.end_array();
        w.end_object();
    }
    w.end_array();
    w.end_object();
    w.finish()
}

/// Protection-engine state for one victim context (CDNA runs only; Xen
/// runs have no engines and skip these keys).
fn write_engine_state(w: &mut JsonWriter, world: &SystemWorld, nic: usize, ctx: ContextId) {
    let Some(engine) = world.engines.get(nic) else {
        return;
    };
    if let Some((tx_p, rx_p)) = engine.producers(ctx) {
        w.key("engine_tx_producer");
        w.number_u64(tx_p);
        w.key("engine_rx_producer");
        w.number_u64(rx_p);
    }
    w.key("engine_pinned");
    w.number_u64(engine.pinned_pages(ctx).count() as u64);
}

/// Device-side state for one victim context.
fn write_device_state(w: &mut JsonWriter, world: &SystemWorld, nic: usize, ctx: ContextId) {
    let Some(NicSlot::Rice(dev)) = world.nics.get(nic) else {
        return;
    };
    w.key("dev_faulted");
    w.boolean(dev.is_faulted(ctx));
    w.key("dev_tx_consumer");
    w.number_u64(dev.tx_consumer(ctx));
    w.key("dev_rx_consumer");
    w.number_u64(dev.rx_consumer(ctx));
    w.key("dev_rx_available");
    w.number_u64(dev.rx_available(ctx));
    if let Some(c) = dev.context_counters(ctx) {
        w.key("dev_tx_descriptors");
        w.number_u64(c.tx_descriptors);
        w.key("dev_rx_descriptors");
        w.number_u64(c.rx_descriptors);
        w.key("dev_seq_checks");
        w.number_u64(c.seq_checks);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{run_experiment, Direction, IoModel, SystemWorld, TestbedConfig};
    use cdna_core::DmaPolicy;
    use cdna_sim::Simulation;

    fn cdna_cfg() -> TestbedConfig {
        TestbedConfig::new(
            IoModel::Cdna {
                policy: DmaPolicy::Validated,
            },
            2,
            Direction::Transmit,
        )
        .quick()
    }

    fn finished_world(cfg: TestbedConfig) -> SystemWorld {
        let end = cfg.warmup + cfg.measure;
        let queue = cfg.queue;
        let mut sim = Simulation::with_queue(SystemWorld::build(cfg), queue);
        let primed = sim.world_mut().prime();
        for (t, e) in primed {
            sim.schedule(t, e);
        }
        sim.run_until(end);
        sim.into_world()
    }

    #[test]
    fn digest_is_deterministic() {
        let a = victim_digest(&finished_world(cdna_cfg()), 2);
        let b = victim_digest(&finished_world(cdna_cfg()), 2);
        assert_eq!(a, b);
        assert!(a.contains("cdna-victim-digest/1"));
        assert!(a.contains("engine_tx_producer"));
    }

    #[test]
    fn digest_sees_workload_differences() {
        // The CDNA transmit path is seed-independent, so perturb the
        // window instead: more simulated time means more victim bytes,
        // and the digest must see it.
        let a = victim_digest(&finished_world(cdna_cfg()), 2);
        let mut longer = cdna_cfg();
        longer.measure += cdna_sim::SimTime::from_ms(10);
        let b = victim_digest(&finished_world(longer), 2);
        assert_ne!(a, b, "longer window must produce a different digest");
    }

    #[test]
    fn idle_guest_is_excluded_and_inert() {
        // 2 victims + 1 idle attacker slot. The idle guest keeps its
        // contexts and rings but generates no traffic, and the digest
        // over the two victims leaves it out entirely.
        let cfg = || {
            TestbedConfig::new(
                IoModel::Cdna {
                    policy: DmaPolicy::Validated,
                },
                3,
                Direction::Transmit,
            )
            .quick()
            .with_idle_guests(1)
        };
        let with_idle = finished_world(cfg());
        let idle = with_idle
            .domains
            .iter()
            .find(|dm| dm.id == cdna_mem::DomainId::guest(2))
            .expect("idle guest built");
        assert!(idle.workload.is_none(), "idle guest must have no workload");
        assert_eq!(with_idle.ctx_of[2].len(), 2, "idle guest keeps contexts");
        let d = victim_digest(&with_idle, 2);
        assert!(d.contains("tx_bytes"));
        assert!(
            !d.contains("\"guest\":2"),
            "attacker slot must not appear in the victim digest"
        );
        // Idle-guest runs are themselves deterministic.
        let d2 = victim_digest(&finished_world(cfg()), 2);
        assert_eq!(d, d2);
    }

    #[test]
    fn xen_runs_digest_without_engines() {
        let cfg = TestbedConfig::new(
            IoModel::XenBridged {
                nic: crate::NicKind::Intel,
            },
            2,
            Direction::Transmit,
        )
        .quick();
        let d = victim_digest(&finished_world(cfg), 2);
        assert!(d.contains("tx_bytes"));
        assert!(!d.contains("engine_tx_producer"));
    }

    #[test]
    fn report_excludes_idle_guests() {
        let mut cfg = cdna_cfg().with_idle_guests(1);
        cfg.guests = 3; // 2 victims + 1 idle attacker slot
        let r = run_experiment(cfg);
        assert_eq!(r.per_guest_mbps.len(), 2, "idle guest not in per-guest");
        assert!(r.per_guest_mbps.iter().all(|&m| m > 0.0));
        assert_eq!(r.protection_faults, 0);
    }
}
