//! Component microbenchmarks behind the per-layer `_ns` metrics, each
//! built only on public calls. Every figure is the median over several
//! fixed-size batches of host nanoseconds per operation.

use std::hint::black_box;
use std::time::Instant;

use cdna_core::layout::Mailbox;
use cdna_core::{
    BitVectorRing, ContextId, DmaPolicy, InterruptBitVector, ProtectionEngine, RxRequest, TxRequest,
};
use cdna_mem::{BufferSlice, DomainId, PhysAddr, PhysMem};
use cdna_net::{FlowId, Frame, MacAddr, PciBus};
use cdna_nic::{DescFlags, DmaDescriptor, FrameMeta, RingTable};
use cdna_rack::{SwitchConfig, TorSwitch};
use cdna_ricenic::{RiceNic, RiceNicConfig};
use cdna_sim::queue::{EventQueue, TimerWheel};
use cdna_sim::{par, SimTime};

use crate::{median, Values};

/// Batches per microbenchmark.
const BATCHES: usize = 7;

/// Median over [`BATCHES`] of `batch()`'s host nanoseconds divided by
/// the operation count it returns.
fn ns_per_op(mut batch: impl FnMut() -> u64) -> f64 {
    let samples: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let t = Instant::now();
            let ops = batch();
            t.elapsed().as_nanos() as f64 / ops.max(1) as f64
        })
        .collect();
    median(&samples)
}

/// `TimerWheel` push plus pop with about a thousand events pending,
/// at seeded delays up to 100 µs.
pub fn queue_push_pop(seed: u64) -> f64 {
    let mut q: TimerWheel<u64> = TimerWheel::new();
    let mut rng = seed | 1;
    let mut next = move || {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        rng
    };
    let mut seq = 0;
    for _ in 0..1000 {
        q.push(SimTime::from_ns(next() % 100_000), seq, seq);
        seq += 1;
    }
    ns_per_op(|| {
        for _ in 0..100_000 {
            let (at, _, e) = q.pop().expect("the wheel stays at a thousand events");
            q.push(at + SimTime::from_ns(next() % 100_000), seq, black_box(e));
            seq += 1;
        }
        100_000
    })
}

/// A guest with one validated context and a page pool for its buffers.
struct Guest {
    mem: PhysMem,
    rings: RingTable,
    engine: ProtectionEngine,
    owner: DomainId,
    ctx: ContextId,
}

/// Descriptors per enqueue hypercall, as in the testbed's batching.
const BATCH: usize = 8;

fn guest() -> Guest {
    let mut mem = PhysMem::new(4096);
    let mut rings = RingTable::new();
    let mut engine = ProtectionEngine::new();
    let owner = DomainId::guest(0);
    let ctx = engine
        .assign_context(owner, DmaPolicy::Validated, 256, &mut rings, &mut mem)
        .expect("a fresh engine has free contexts");
    Guest {
        mem,
        rings,
        engine,
        owner,
        ctx,
    }
}

fn buffers(g: &mut Guest, n: usize) -> Vec<BufferSlice> {
    (0..n)
        .map(|_| {
            let page = g.mem.alloc(g.owner).expect("the pool has free pages");
            BufferSlice::new(page.base_addr(), 1514)
        })
        .collect()
}

/// Enqueue-TX hypercalls on the accept path: each validates, pins and
/// stamps [`BATCH`] descriptors and lazily reaps the previous batch.
/// Nanoseconds per descriptor.
pub fn enqueue_tx() -> f64 {
    let mut g = guest();
    let reqs: Vec<TxRequest> = buffers(&mut g, BATCH)
        .into_iter()
        .map(|buf| TxRequest {
            buf,
            flags: DescFlags::END_OF_PACKET,
            meta: FrameMeta {
                dst: MacAddr::for_peer(0),
                src: MacAddr::for_context(0, g.ctx.0),
                tcp_payload: 1460,
                flow: FlowId::new(0, 0),
                seq: 0,
            },
        })
        .collect();
    let mut producer = 0;
    ns_per_op(|| {
        for _ in 0..5_000 {
            let out = g
                .engine
                .enqueue_tx(g.ctx, g.owner, &reqs, producer, &mut g.rings, &mut g.mem)
                .expect("the accept path accepts");
            producer = out.producer;
        }
        (5_000 * BATCH) as u64
    })
}

/// Enqueue-RX hypercalls followed by an explicit reap of the batch:
/// `(enqueue ns, reap ns)` per descriptor, net of the timer reads that
/// split the two.
pub fn enqueue_rx_and_reap() -> (f64, f64) {
    let mut g = guest();
    let reqs: Vec<RxRequest> = buffers(&mut g, BATCH)
        .into_iter()
        .map(|buf| RxRequest { buf })
        .collect();
    let mut producer = 0;
    let timer = crate::timing::timer_overhead_ns() as u128;
    let mut enqueue = Vec::new();
    let mut reap = Vec::new();
    for _ in 0..BATCHES {
        let (mut e_ns, mut r_ns) = (0u128, 0u128);
        for _ in 0..5_000 {
            let t = Instant::now();
            let out = g
                .engine
                .enqueue_rx(g.ctx, g.owner, &reqs, producer, &mut g.rings, &mut g.mem)
                .expect("the accept path accepts");
            let m = Instant::now();
            producer = out.producer;
            black_box(
                g.engine
                    .reap(g.ctx, 0, producer, &mut g.mem)
                    .expect("the context is assigned"),
            );
            e_ns += (m - t).as_nanos().saturating_sub(timer);
            r_ns += m.elapsed().as_nanos().saturating_sub(timer);
        }
        enqueue.push(e_ns as f64 / (5_000 * BATCH) as f64);
        reap.push(r_ns as f64 / (5_000 * BATCH) as f64);
    }
    (median(&enqueue), median(&reap))
}

/// Enqueue-TX by a domain that does not own the context: the not-owner
/// reject. Nanoseconds per rejected hypercall.
pub fn reject_not_owner() -> f64 {
    let mut g = guest();
    let buf = buffers(&mut g, 1)[0];
    let req = [TxRequest {
        buf,
        flags: DescFlags::END_OF_PACKET,
        meta: FrameMeta {
            dst: MacAddr::for_peer(0),
            src: MacAddr::for_context(0, g.ctx.0),
            tcp_payload: 1460,
            flow: FlowId::new(0, 0),
            seq: 0,
        },
    }];
    let intruder = DomainId::guest(7);
    ns_per_op(|| {
        for _ in 0..50_000 {
            let r = g
                .engine
                .enqueue_tx(g.ctx, intruder, &req, 0, &mut g.rings, &mut g.mem);
            assert!(black_box(r).is_err(), "a foreign caller is rejected");
        }
        50_000
    })
}

/// `BitVectorRing` push of one interrupt bit vector and its drain.
pub fn bitvec_push_drain() -> f64 {
    let mut ring = BitVectorRing::new(64);
    let mut bits = 1u32;
    ns_per_op(|| {
        for _ in 0..200_000 {
            bits = bits.rotate_left(7) | 1;
            ring.push(InterruptBitVector(bits));
            black_box(ring.drain());
        }
        200_000
    })
}

/// `RiceNic::frame_from_wire` delivering into a posted receive buffer:
/// demux by MAC, sequence check, descriptor fetch and data DMA.
/// Nanoseconds per frame; reposting the ring between frames is not
/// timed.
pub fn ricenic_rx_frame() -> f64 {
    const RING: u32 = 256;
    let mut rings = RingTable::new();
    let mut bus = PciBus::new_64bit_66mhz();
    let mut nic = RiceNic::new(0, RiceNicConfig::default());
    let ctx = ContextId(1);
    let tx = rings.create(PhysAddr(0x100_0000), RING);
    let rx = rings.create(PhysAddr(0x200_0000), RING);
    nic.attach_context(ctx, tx, rx, true, &rings)
        .expect("the rings exist");
    let frame = Frame::tcp_data(
        MacAddr::for_peer(0),
        nic.mac_for(ctx),
        1460,
        FlowId::new(0, 0),
        0,
    );
    let mut posted = 0u64;
    let mut now = SimTime::ZERO;
    let mut samples = Vec::new();
    for _ in 0..BATCHES {
        let mut ns = 0u128;
        for _ in 0..40 {
            let ring = rings.get_mut(rx).expect("the ring exists");
            for i in posted..posted + RING as u64 {
                let mut d = DmaDescriptor::rx(BufferSlice::new(
                    PhysAddr(0x400_0000 + (i % RING as u64) * 4096),
                    2048,
                ));
                d.seq = (i % (2 * RING as u64)) as u32;
                ring.write_at(i, d);
            }
            posted += RING as u64;
            let act = nic
                .mailbox_write(
                    now,
                    ctx,
                    Mailbox::RxProducer.index(),
                    posted,
                    &rings,
                    &mut bus,
                )
                .expect("the context is attached");
            nic.recycle(act);
            let t = Instant::now();
            for _ in 0..RING {
                let act = nic.frame_from_wire(now, frame.clone(), &rings, &mut bus);
                assert!(act.delivered.is_some(), "a posted buffer takes the frame");
                nic.recycle(act);
                now += SimTime::from_ns(12_000);
            }
            ns += t.elapsed().as_nanos();
        }
        samples.push(ns as f64 / (40 * RING) as f64);
    }
    median(&samples)
}

/// `TorSwitch::forward` across eight ports with pre-loaded MACs.
pub fn switch_forward() -> f64 {
    const PORTS: usize = 8;
    let mut sw = TorSwitch::new(SwitchConfig::default(), PORTS);
    let macs: Vec<MacAddr> = (0..PORTS)
        .map(|p| MacAddr::for_host_context(p as u8, 0, 1))
        .collect();
    for (p, &mac) in macs.iter().enumerate() {
        sw.preload(mac, p);
    }
    let frames: Vec<Frame> = (0..PORTS)
        .map(|p| {
            Frame::tcp_data(
                macs[p],
                macs[(p + 1) % PORTS],
                1460,
                FlowId::new(p as u16, 0),
                0,
            )
        })
        .collect();
    let mut at = SimTime::ZERO;
    ns_per_op(|| {
        for i in 0..100_000 {
            let p = i % PORTS;
            black_box(sw.forward(at, p, &frames[p]));
            at += SimTime::from_ns(1_500);
        }
        100_000
    })
}

/// One empty-step `par::run_rounds` round at `jobs` workers.
pub fn par_round(jobs: usize) -> f64 {
    const ROUNDS: u64 = 2_000;
    ns_per_op(|| {
        let states: Vec<u64> = vec![0; jobs.max(1)];
        let out = par::run_rounds(jobs, states, |round, _| round < ROUNDS, |_, _, s| *s += 1);
        assert!(
            out.iter().all(|&s| s == ROUNDS),
            "every state stepped every round"
        );
        ROUNDS
    })
}

/// Runs every microbenchmark into `values`.
pub fn measure(seed: u64, values: &mut Values) {
    values.insert("queue.push_pop_ns", queue_push_pop(seed));
    values.insert("core.enqueue_tx_ns", enqueue_tx());
    let (rx, reap) = enqueue_rx_and_reap();
    values.insert("core.enqueue_rx_ns", rx);
    values.insert("core.reap_ns", reap);
    values.insert("core.reject_ns", reject_not_owner());
    values.insert("core.bitvec_ns", bitvec_push_drain());
    values.insert("ricenic.rx_frame_ns", ricenic_rx_frame());
    values.insert("rack.switch_forward_ns", switch_forward());
    values.insert("par.round_ns", par_round(par::available_jobs()));
}
