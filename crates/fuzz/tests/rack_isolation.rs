//! Satellite: cross-host isolation at rack scale.
//!
//! A ghost context on host 0 of a three-host rack is driven with
//! producer overruns, forged-context pokes, and out-of-range mailbox
//! scribbles while every real guest streams cross-host traffic through
//! the top-of-rack switch. The attack must fault only the ghost
//! context: hosts 1 and 2 must be field-for-field identical to a
//! no-attack control rack, and host 0's victims must keep their
//! bandwidth share.

#![expect(
    clippy::disallowed_types,
    reason = "the attack hook records its ghost context in one Mutex, held alone"
)]

use std::sync::Mutex;

use cdna_core::{layout::Mailbox, ContextId, DmaPolicy};
use cdna_mem::DomainId;
use cdna_net::PciBus;
use cdna_rack::{RackConfig, RackWorkload, RackWorld};
use cdna_ricenic::Activity;
use cdna_sim::Simulation;
use cdna_system::{RunReport, SystemWorld};
use cdna_xen::adversary::{out_of_range_tx, AdversarialCaller};

/// Rounds of the epoch loop that inject attacks (the ghost faults on
/// the first doorbell; the rest exercise the rejection paths).
const ATTACK_ROUNDS: u64 = 16;

fn rack_cfg() -> RackConfig {
    RackConfig::new(3, 2, RackWorkload::XHost)
        .quick()
        .with_seed(5)
        .with_adversarial()
}

/// The host-0 attack hook: assigns a ghost context on round 0, then
/// pokes it (and deliberately bogus contexts/mailboxes) each round.
fn attack_hook(
    ghost: &Mutex<Option<ContextId>>,
) -> impl Fn(usize, u64, &mut Simulation<SystemWorld>) + Sync + '_ {
    move |host, round, sim| {
        if host != 0 || round >= ATTACK_ROUNDS {
            return;
        }
        let now = sim.now();
        let w = sim.world_mut();
        let mut slot = ghost.lock().expect("ghost lock");
        if slot.is_none() {
            let (engines, rings, mem) = (&mut w.engines, &mut w.rings, &mut w.mem);
            let ctx = engines[0]
                .assign_context(DomainId::guest(64), DmaPolicy::Validated, 64, rings, mem)
                .expect("ghost context");
            let st = engines[0].contexts().state(ctx).expect("assigned");
            w.nics[0]
                .rice_mut()
                .attach_context(ctx, st.tx_ring, st.rx_ring, true, &w.rings)
                .expect("attach ghost");
            *slot = Some(ctx);
        }
        let ctx = slot.expect("ghost assigned");
        let mut scratch = PciBus::new_64bit_66mhz();
        let mut act = Activity::default();
        {
            let (dev, rings) = (w.nics[0].rice_mut(), &w.rings);
            // Producer overrun on the ghost's never-written ring: faults
            // the ghost context on the first pump, then becomes a no-op.
            dev.adversarial_mailbox_write(
                now,
                ctx,
                Mailbox::TxProducer.index(),
                round + 1,
                rings,
                &mut scratch,
                &mut act,
            )
            .expect("ghost poke");
            // A context nobody attached must fail, not absorb.
            assert!(dev
                .adversarial_mailbox_write(
                    now,
                    ContextId(30),
                    Mailbox::TxProducer.index(),
                    1,
                    rings,
                    &mut scratch,
                    &mut act,
                )
                .is_err());
            // An out-of-range mailbox word must fail, not absorb.
            assert!(dev
                .adversarial_mailbox_write(
                    now,
                    ctx,
                    24 + (round as usize % 40),
                    0,
                    rings,
                    &mut scratch,
                    &mut act,
                )
                .is_err());
        }
        let scheduled = w.absorb_nic_activity(now, 0, &mut act);
        assert!(scheduled.is_empty(), "ghost poke scheduled an event");
        // A hypercall claiming a victim's context must be rejected.
        let victim_ctx = w.ctx_of[0][0];
        let caller = AdversarialCaller {
            domain: DomainId::guest(64),
            ctx: victim_ctx,
        };
        let total = w.mem.total_pages();
        let mut rng = cdna_sim::SimRng::seed_from(round);
        let req = out_of_range_tx(total, cdna_net::MacAddr::for_peer(0), 0, &mut rng);
        let out = caller.issue_tx(&mut w.engines[0], &[req], 0, &mut w.rings, &mut w.mem);
        assert!(out.is_rejected(), "forged-context hypercall accepted");
    }
}

/// Field-for-field equality of two host reports (floats compared by
/// bits: the claim is byte-identity, not approximation).
fn assert_host_identical(a: &RunReport, b: &RunReport, host: usize) {
    assert_eq!(a.label, b.label);
    assert_eq!(a.guests, b.guests);
    assert_eq!(
        a.throughput_mbps.to_bits(),
        b.throughput_mbps.to_bits(),
        "host {host} throughput diverged"
    );
    assert_eq!(a.packets, b.packets, "host {host} packets diverged");
    assert_eq!(a.rx_dropped, b.rx_dropped);
    assert_eq!(a.protection_faults, b.protection_faults);
    assert_eq!(a.per_guest_mbps.len(), b.per_guest_mbps.len());
    for (x, y) in a.per_guest_mbps.iter().zip(&b.per_guest_mbps) {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "host {host} per-guest share diverged"
        );
    }
    assert_eq!(
        a.events_processed, b.events_processed,
        "host {host} event count diverged"
    );
}

#[test]
fn rack_attack_on_host_zero_leaves_other_hosts_byte_identical() {
    let control = RackWorld::build(rack_cfg()).run(2);
    let ghost = Mutex::new(None);
    let attack = RackWorld::build(rack_cfg()).run_with_host_hook(2, attack_hook(&ghost));

    // The attack really happened: host 0 faulted (the ghost context),
    // and only host 0.
    assert!(
        attack.per_host[0].protection_faults > 0,
        "ghost overrun never faulted"
    );
    assert_eq!(control.per_host[0].protection_faults, 0);
    assert_eq!(attack.per_host[1].protection_faults, 0);
    assert_eq!(attack.per_host[2].protection_faults, 0);

    // Hosts 1 and 2 never see the attack: field-for-field identical.
    assert_host_identical(&attack.per_host[1], &control.per_host[1], 1);
    assert_host_identical(&attack.per_host[2], &control.per_host[2], 2);

    // Host 0's real guests keep their bandwidth share: every victim
    // stays within 1% of its control-run goodput.
    for (g, (a, c)) in attack.per_host[0]
        .per_guest_mbps
        .iter()
        .zip(&control.per_host[0].per_guest_mbps)
        .enumerate()
    {
        let drift = (a - c).abs() / c.max(1e-9);
        assert!(
            drift < 0.01,
            "host 0 guest {g} goodput drifted {:.3}% ({a} vs {c} Mb/s)",
            drift * 100.0
        );
    }
}

#[test]
fn rack_attack_is_deterministic_across_worker_counts() {
    let g1 = Mutex::new(None);
    let g3 = Mutex::new(None);
    let a = RackWorld::build(rack_cfg()).run_with_host_hook(1, attack_hook(&g1));
    let b = RackWorld::build(rack_cfg()).run_with_host_hook(3, attack_hook(&g3));
    assert_eq!(
        a.to_json(),
        b.to_json(),
        "attacked rack diverges across worker counts"
    );
}
