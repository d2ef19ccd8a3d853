//! Property-style tests of the NIC substrate, driven over many seeded
//! pseudo-random cases (the repo builds with zero external
//! dependencies, so no property-testing framework).

use cdna_mem::{BufferSlice, PhysAddr};
use cdna_nic::{Coalescer, DescRing, DmaDescriptor};
use cdna_sim::{SimRng, SimTime};

const CASES: u64 = 200;

/// The coalescer never fires two interrupts closer than min_gap and
/// never loses a request entirely.
#[test]
fn coalescer_respects_gap_and_liveness() {
    for case in 0..CASES {
        let mut rng = SimRng::seed_from(0xC0A ^ case);
        let n = rng.range_u64(1..200) as usize;
        let gaps: Vec<u64> = (0..n).map(|_| rng.range_u64(1..400)).collect();
        let min_gap_us = rng.range_u64(10..500);

        let min_gap = SimTime::from_us(min_gap_us);
        let mut co = Coalescer::new(min_gap);
        let mut now = SimTime::ZERO;
        let mut fires: Vec<SimTime> = Vec::new();
        let mut pending: Option<SimTime> = None;
        for &g in &gaps {
            now += SimTime::from_us(g);
            // Deliver a due interrupt first.
            if let Some(at) = pending {
                if at <= now {
                    co.fired(at);
                    fires.push(at);
                    pending = None;
                }
            }
            if pending.is_none() {
                pending = co.request(now);
            } else {
                let _ = co.request(now);
            }
        }
        if let Some(at) = pending {
            co.fired(at);
            fires.push(at);
        }
        assert!(!fires.is_empty(), "requests must eventually fire");
        for w in fires.windows(2) {
            assert!(
                w[1] >= w[0] + min_gap,
                "gap violated (case {case}): {fires:?}"
            );
        }
    }
}

/// Ring slots behave like memory: the last write to a slot wins, and
/// aliasing follows index mod size.
#[test]
fn ring_is_last_write_wins_memory() {
    for case in 0..CASES {
        let mut rng = SimRng::seed_from(0x21C6 ^ case);
        let n = rng.range_u64(1..100) as usize;
        let writes: Vec<(u64, u64)> = (0..n)
            .map(|_| (rng.range_u64(0..64), rng.range_u64(0..1_000_000)))
            .collect();
        let size = 1u32 << rng.range_u64(2..6);

        let mut ring = DescRing::new(PhysAddr(0), size);
        let mut model: std::collections::BTreeMap<u64, u64> = Default::default();
        for &(idx, addr) in &writes {
            let desc = DmaDescriptor::rx(BufferSlice::new(PhysAddr(addr * 4096 + 1), 100));
            ring.write_at(idx, desc);
            model.insert(idx % size as u64, addr);
        }
        for (&slot, &addr) in &model {
            let got = ring.read_at(slot).expect("written slot");
            assert_eq!(got.buf.addr.0, addr * 4096 + 1);
        }
    }
}
