//! Fairness and backpressure behaviour of the CDNA firmware's TX
//! multiplexer (paper §3.1: "the NIC simply services all of the hardware
//! contexts fairly and interleaves the network traffic for each guest").

use cdna_core::{layout::Mailbox, ContextId};
use cdna_mem::{BufferSlice, PhysAddr};
use cdna_net::{FlowId, Frame, MacAddr, PciBus};
use cdna_nic::{DescFlags, DmaDescriptor, FrameMeta, RingId, RingTable};
use cdna_ricenic::{Activity, RiceNic, RiceNicConfig};
use cdna_sim::SimTime;

struct Fix {
    rings: RingTable,
    bus: PciBus,
    nic: RiceNic,
}

impl Fix {
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

fn fix() -> Fix {
    Fix {
        rings: RingTable::new(),
        bus: PciBus::new_64bit_66mhz(),
        nic: RiceNic::new(0, RiceNicConfig::default()),
    }
}

fn attach(f: &mut Fix, ctx: ContextId, ring_size: u32) -> (RingId, RingId) {
    let tx = f
        .rings
        .create(PhysAddr(0x100_0000 + ctx.0 as u64 * 0x10_0000), ring_size);
    let rx = f
        .rings
        .create(PhysAddr(0x200_0000 + ctx.0 as u64 * 0x10_0000), ring_size);
    f.nic.attach_context(ctx, tx, rx, true, &f.rings).unwrap();
    (tx, rx)
}

fn fill_tx(f: &mut Fix, ctx: ContextId, ring: RingId, count: u64, ring_size: u32, payload: u32) {
    for i in 0..count {
        let meta = FrameMeta {
            dst: MacAddr::for_peer(0),
            src: f.nic.mac_for(ctx),
            tcp_payload: payload,
            flow: FlowId::new(ctx.0 as u16, 0),
            seq: i * payload as u64,
        };
        let mut d = DmaDescriptor::tx(
            BufferSlice::new(
                PhysAddr(0x400_0000 + ctx.0 as u64 * 0x100_0000 + i * 4096),
                1514,
            ),
            DescFlags::END_OF_PACKET,
            meta,
        );
        d.seq = (i % (2 * ring_size as u64)) as u32;
        f.rings.get_mut(ring).unwrap().write_at(i, d);
    }
}

#[test]
fn three_contexts_with_deep_backlogs_share_the_buffer_fairly() {
    // Give every context more work than the 128 KB packet buffer holds,
    // then drain the wire frame by frame; the refill stream must serve
    // all three contexts at comparable rates (paper §3.1's fair
    // round-robin service).
    let mut f = fix();
    let ctxs = [ContextId(1), ContextId(2), ContextId(3)];
    let mut queue = std::collections::VecDeque::new();
    for &c in &ctxs {
        let (tx, _rx) = attach(&mut f, c, 256);
        fill_tx(&mut f, c, tx, 200, 256, 1460);
        let act = f.write(SimTime::ZERO, c, Mailbox::TxProducer.index(), 200);
        queue.extend(act.emissions);
    }
    // Drain in wire order, collecting refills. The first ~86 frames are
    // ctx1's head start (it was alone when it doorbelled, and the packet
    // buffer holds 128 KB); fairness is a steady-state property, so count
    // the 300 frames after that warm-up.
    let mut counts = std::collections::BTreeMap::new();
    let mut drained = 0;
    while let Some(e) = queue.pop_front() {
        drained += 1;
        if drained > 90 {
            *counts.entry(e.frame.src).or_insert(0u32) += 1;
        }
        let act = f.sent(e.ready_at, &e.frame);
        queue.extend(act.emissions);
        if drained == 390 {
            break;
        }
    }
    assert_eq!(drained, 390, "pipeline stalled early");
    let per_ctx: Vec<u32> = ctxs.iter().map(|&c| counts[&f.nic.mac_for(c)]).collect();
    let max = *per_ctx.iter().max().unwrap() as f64;
    let min = *per_ctx.iter().min().unwrap() as f64;
    assert!(
        min / max > 0.7,
        "unfair steady-state service across contexts: {per_ctx:?}"
    );
}

#[test]
fn global_tx_buffer_bounds_total_prefetch_across_contexts() {
    let mut f = fix();
    let a = ContextId(1);
    let b = ContextId(2);
    let (tx_a, _) = attach(&mut f, a, 256);
    let (tx_b, _) = attach(&mut f, b, 256);
    fill_tx(&mut f, a, tx_a, 200, 256, 1460);
    fill_tx(&mut f, b, tx_b, 200, 256, 1460);
    let act_a = f.write(SimTime::ZERO, a, Mailbox::TxProducer.index(), 200);
    let act_b = f.write(SimTime::ZERO, b, Mailbox::TxProducer.index(), 200);
    let queued: u32 = act_a
        .emissions
        .iter()
        .chain(act_b.emissions.iter())
        .map(|e| e.frame.buffer_bytes())
        .sum();
    let cap = RiceNicConfig::default().tx_buffer_bytes;
    assert!(
        queued <= cap + 1514,
        "prefetched {queued} bytes past the {cap}-byte packet buffer"
    );
    // Draining frames releases buffer space and pumps more.
    let mut refill = 0usize;
    for e in act_a.emissions.iter().take(20) {
        let act = f.sent(e.ready_at, &e.frame);
        refill += act.emissions.len();
    }
    assert!(refill > 0, "completions must refill the pipeline");
}

#[test]
fn backlogged_context_does_not_starve_a_light_one() {
    let mut f = fix();
    let heavy = ContextId(1);
    let light = ContextId(2);
    let (tx_h, _) = attach(&mut f, heavy, 256);
    let (tx_l, _) = attach(&mut f, light, 256);
    fill_tx(&mut f, heavy, tx_h, 100, 256, 1460);
    fill_tx(&mut f, light, tx_l, 2, 256, 1460);
    let heavy_act = f.write(SimTime::ZERO, heavy, Mailbox::TxProducer.index(), 100);
    let light_act = f.write(SimTime::ZERO, light, Mailbox::TxProducer.index(), 2);
    // The heavy doorbell filled the 128 KB packet buffer (~86 frames), so
    // the light frames wait for drain — but round-robin service must emit
    // them among the first few refills, not after heavy's whole backlog.
    let mut queue: std::collections::VecDeque<_> = heavy_act
        .emissions
        .into_iter()
        .chain(light_act.emissions)
        .collect();
    let mut light_seen = 0;
    let mut refills_after_light_doorbell = 0;
    while let Some(e) = queue.pop_front() {
        if e.frame.src == f.nic.mac_for(light) {
            light_seen += 1;
            if light_seen == 2 {
                break;
            }
        }
        let refills = f.sent(e.ready_at, &e.frame);
        refills_after_light_doorbell += refills.emissions.len();
        queue.extend(refills.emissions);
        if refills_after_light_doorbell > 20 {
            break;
        }
    }
    assert_eq!(
        light_seen, 2,
        "light context starved: not served within the first {refills_after_light_doorbell} refills"
    );
}

mod event_unit_properties {
    //! Property-style checks of the mailbox event unit, driven over many
    //! seeded pseudo-random write patterns (no external property-testing
    //! framework — the repo builds with zero external dependencies).

    use cdna_core::ContextId;
    use cdna_ricenic::MailboxEventUnit;
    use cdna_sim::SimRng;

    const CASES: u64 = 200;

    /// The two-level hierarchy delivers exactly the set of distinct
    /// (context, mailbox) pairs written, regardless of write order
    /// or duplication.
    #[test]
    fn hierarchy_delivers_exactly_the_written_set() {
        for case in 0..CASES {
            let mut rng = SimRng::seed_from(0xB17 ^ case);
            let n = rng.range_u64(0..300) as usize;
            let writes: Vec<(u8, usize)> = (0..n)
                .map(|_| (rng.range_u64(0..32) as u8, rng.range_u64(0..24) as usize))
                .collect();

            let mut unit = MailboxEventUnit::new();
            let mut expected = std::collections::BTreeSet::new();
            for &(ctx, mb) in &writes {
                unit.note_write(ContextId(ctx), mb);
                expected.insert((ctx, mb));
            }
            let mut got = std::collections::BTreeSet::new();
            while let Some((ctx, mb)) = unit.pop_event() {
                assert!(got.insert((ctx.0, mb)), "duplicate event (case {case})");
            }
            assert_eq!(got, expected);
            assert!(!unit.has_events());
        }
    }

    /// clear_context removes exactly one context's events.
    #[test]
    fn clear_context_is_surgical() {
        for case in 0..CASES {
            let mut rng = SimRng::seed_from(0x5169 ^ case);
            let n = rng.range_u64(1..100) as usize;
            let writes: Vec<(u8, usize)> = (0..n)
                .map(|_| (rng.range_u64(0..8) as u8, rng.range_u64(0..24) as usize))
                .collect();
            let victim = rng.range_u64(0..8) as u8;

            let mut unit = MailboxEventUnit::new();
            let mut expected = std::collections::BTreeSet::new();
            for &(ctx, mb) in &writes {
                unit.note_write(ContextId(ctx), mb);
                if ctx != victim {
                    expected.insert((ctx, mb));
                }
            }
            unit.clear_context(ContextId(victim));
            let mut got = std::collections::BTreeSet::new();
            while let Some((ctx, mb)) = unit.pop_event() {
                got.insert((ctx.0, mb));
            }
            assert_eq!(got, expected);
        }
    }
}
