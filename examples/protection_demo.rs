//! Demonstrates CDNA's DMA memory protection (paper §3.3) against a
//! malicious guest device driver, attack by attack:
//!
//! 1. transmitting from another guest's memory — rejected at the
//!    enqueue hypercall;
//! 2. receiving into memory the guest does not own — rejected;
//! 3. freeing a page with DMA in flight — reallocation deferred;
//! 4. overrunning the producer index — the NIC detects the stale
//!    descriptor by its sequence number and halts only that context.
//!
//! ```sh
//! cargo run --release --example protection_demo
//! ```

use cdna_core::{
    layout::Mailbox, DmaPolicy, ProtectionEngine, ProtectionError, RxRequest, TxRequest,
};
use cdna_mem::{BufferSlice, DomainId, MemError, PhysMem};
use cdna_net::{FlowId, MacAddr, PciBus};
use cdna_nic::{DescFlags, FrameMeta, RingTable};
use cdna_ricenic::{Activity, RiceNic, RiceNicConfig};
use cdna_sim::SimTime;

fn main() {
    let mut mem = PhysMem::new(1024);
    let mut rings = RingTable::new();
    let mut bus = PciBus::new_64bit_66mhz();
    let mut engine = ProtectionEngine::new();
    let mut nic = RiceNic::new(0, RiceNicConfig::default());

    let attacker = DomainId::guest(0);
    let victim = DomainId::guest(1);

    // The hypervisor assigns each guest a hardware context.
    let ctx = engine
        .assign_context(attacker, DmaPolicy::Validated, 32, &mut rings, &mut mem)
        .expect("context");
    let st = engine.contexts().state(ctx).expect("state");
    nic.attach_context(ctx, st.tx_ring, st.rx_ring, true, &rings)
        .expect("attach");
    println!(
        "hypervisor assigned {ctx} to {attacker} (MAC {})\n",
        nic.mac_for(ctx)
    );

    // --- Attack 1: transmit the victim's memory ---
    let secret_page = mem.alloc(victim).expect("victim page");
    let steal = TxRequest {
        buf: BufferSlice::new(secret_page.base_addr(), 1514),
        flags: DescFlags::END_OF_PACKET,
        meta: meta(ctx),
    };
    match engine.enqueue_tx(ctx, attacker, &[steal], 0, &mut rings, &mut mem) {
        Err(ProtectionError::Mem(MemError::NotOwner { page, .. })) => {
            println!(
                "attack 1 (transmit victim memory): REJECTED — page {page:?} not owned by attacker"
            )
        }
        other => panic!("exfiltration not blocked: {other:?}"),
    }

    // --- Attack 2: receive into the victim's memory ---
    let overwrite = RxRequest {
        buf: BufferSlice::new(secret_page.base_addr(), 1514),
    };
    match engine.enqueue_rx(ctx, attacker, &[overwrite], 0, &mut rings, &mut mem) {
        Err(ProtectionError::Mem(_)) => {
            println!("attack 2 (receive into victim memory): REJECTED by validation")
        }
        other => panic!("corruption not blocked: {other:?}"),
    }

    // --- Attack 3: free a page while its DMA is outstanding ---
    let own_page = mem.alloc(attacker).expect("attacker page");
    let honest = TxRequest {
        buf: BufferSlice::new(own_page.base_addr(), 1514),
        flags: DescFlags::END_OF_PACKET,
        meta: meta(ctx),
    };
    let out = engine
        .enqueue_tx(ctx, attacker, &[honest], 0, &mut rings, &mut mem)
        .expect("honest enqueue");
    match mem.free(attacker, own_page) {
        Err(MemError::Pinned(_)) => println!(
            "attack 3 (free during DMA): DEFERRED — page pinned ({} pin outstanding)",
            mem.outstanding_pins()
        ),
        other => panic!("reallocation hazard: {other:?}"),
    }

    // --- Attack 4: overrun the producer index ---
    let mut act = Activity::default();
    nic.mailbox_write_into(
        SimTime::ZERO,
        ctx,
        Mailbox::TxProducer.index(),
        out.producer + 3, // claims 3 descriptors that were never validated
        &rings,
        &mut bus,
        &mut act,
    )
    .expect("mailbox");
    println!(
        "attack 4 (producer overrun): NIC raised {:?}",
        act.faults.first().map(|f| f.kind).expect("fault expected")
    );
    println!(
        "  context halted: {} — other contexts unaffected",
        nic.is_faulted(ctx)
    );

    // The hypervisor revokes the offender and recovers its memory.
    nic.detach_context(ctx);
    engine.revoke_context(ctx, &mut mem).expect("revoke");
    println!(
        "\nhypervisor revoked {ctx}; outstanding pins: {}",
        mem.outstanding_pins()
    );
}

fn meta(ctx: cdna_core::ContextId) -> FrameMeta {
    FrameMeta {
        dst: MacAddr::for_peer(0),
        src: MacAddr::for_context(0, ctx.0),
        tcp_payload: 1460,
        flow: FlowId::new(0, 0),
        seq: 0,
    }
}
