//! Allocation-count regression tests for the zero-copy datapath.
//!
//! The vendored `bytes` crate counts every fresh backing buffer in a
//! process-global counter ([`bytes::buffer_allocs`]); refcount clones,
//! slices and ownership transfers do not move it. These tests pin the
//! zero-copy contract of the hot path: once a flow is cached, serving
//! it must not allocate — flood fan-out included — and copy-on-write
//! paths must allocate exactly one buffer per rewritten frame.
//!
//! The counter is process-global, so this suite lives in its own test
//! binary and serialises its tests with a mutex; keep counter-exact
//! assertions out of other binaries.

use bytes::{buffer_allocs, Bytes};
use netpkt::{builder, MacAddr};
use openflow::message::FlowMod;
use openflow::{port_no, Action, Match};
use softswitch::batch::{BatchResult, FrameBatch};
use softswitch::datapath::{Datapath, DpConfig, PipelineMode};
use std::net::Ipv4Addr;
use std::sync::Mutex;

/// Serialises tests that assert exact counter deltas.
static COUNTER_LOCK: Mutex<()> = Mutex::new(());

fn dp_with_ports(n_ports: u32) -> Datapath {
    let mut dp = Datapath::new(DpConfig::software(1).with_mode(PipelineMode::full()));
    for p in 1..=n_ports {
        dp.add_port(p, format!("p{p}"), 1_000_000);
    }
    dp
}

/// Push one frame through `dp` as a one-frame batch, reusing the
/// caller's batch and arena the way a frame-at-a-time node does.
fn run1(dp: &mut Datapath, batch: &mut FrameBatch, out: &mut BatchResult, frame: Bytes, now: u64) {
    batch.push(1, frame);
    dp.process_batch_into(batch, now, out);
}

fn udp_frame(payload: &[u8]) -> Bytes {
    builder::udp_packet(
        MacAddr::host(1),
        MacAddr::host(2),
        Ipv4Addr::new(10, 0, 0, 1),
        Ipv4Addr::new(10, 0, 0, 2),
        1000,
        53,
        payload,
    )
}

/// A cached flood of a full-MTU frame to 32 ports must be pure refcount
/// bumps: at most one buffer allocation for the whole fan-out,
/// regardless of the output port count.
#[test]
fn cached_flood_to_32_ports_allocates_at_most_one_buffer() {
    let _g = COUNTER_LOCK.lock().unwrap();
    let mut dp = dp_with_ports(33);
    dp.apply_flow_mod(
        FlowMod::add(0)
            .priority(1)
            .apply(vec![Action::output(port_no::FLOOD)]),
        0,
    )
    .unwrap();
    // 1500-byte frame: 42 bytes of headers + 1458 of payload.
    let frame = udp_frame(&[0xab; 1458]);
    assert_eq!(frame.len(), 1500);
    // Warm the caches: the first frame takes the slow path (recording,
    // cache install) and may allocate.
    let (mut batch, mut r) = (FrameBatch::new(), BatchResult::default());
    run1(&mut dp, &mut batch, &mut r, frame.clone(), 0);
    assert_eq!(
        r.outputs_of(0).len(),
        32,
        "flood fans out to every other port"
    );

    let before = buffer_allocs();
    run1(&mut dp, &mut batch, &mut r, frame.clone(), 1);
    let allocs = buffer_allocs() - before;
    assert_eq!(r.outputs_of(0).len(), 32);
    assert!(
        allocs <= 1,
        "cached flood must be refcount bumps, got {allocs} buffer allocations for 32 outputs"
    );
    // Every flood copy shares the ingress frame's backing storage.
    for (_port, out) in r.outputs_of(0) {
        assert_eq!(out.as_slice().as_ptr(), frame.as_slice().as_ptr());
    }
}

/// A batch of cached pure-forward frames must not allocate any frame
/// buffers at all: parse, memo probe, cache hit and emit all operate on
/// borrowed or refcounted storage.
#[test]
fn cached_path_batch_allocates_no_buffers() {
    let _g = COUNTER_LOCK.lock().unwrap();
    let mut dp = dp_with_ports(2);
    dp.apply_flow_mod(
        FlowMod::add(0)
            .priority(1)
            .match_(Match::new().in_port(1))
            .apply(vec![Action::output(2)]),
        0,
    )
    .unwrap();
    let frame = udp_frame(b"payload");
    const N: usize = 64;
    let mut batch = FrameBatch::with_capacity(N);
    let mut result = BatchResult::default();
    // Warm: slow path + cache install.
    run1(&mut dp, &mut batch, &mut result, frame.clone(), 0);
    for _ in 0..N {
        batch.push(1, frame.clone());
    }
    let before = buffer_allocs();
    dp.process_batch_into(&mut batch, 1, &mut result);
    let allocs = buffer_allocs() - before;
    assert_eq!(result.len(), N);
    assert_eq!(result.total_outputs(), N);
    assert_eq!(
        allocs, 0,
        "{N} cached pure-forward frames allocated {allocs} buffers; expected zero"
    );
}

/// Copy-on-write ceiling: a cached flow whose actions rewrite the frame
/// (TTL decrement via the routed pipeline's DecNwTtl analogue — here a
/// set-field) allocates exactly one buffer per frame: the private copy
/// made by the first mutation. Emitting the rewritten frame is a
/// transfer, not another copy.
#[test]
fn cow_rewrite_allocates_exactly_one_buffer_per_frame() {
    let _g = COUNTER_LOCK.lock().unwrap();
    let mut dp = dp_with_ports(2);
    dp.apply_flow_mod(
        FlowMod::add(0)
            .priority(1)
            .match_(Match::new().in_port(1))
            .apply(vec![
                Action::SetField(openflow::OxmField::EthDst(MacAddr::host(9), None)),
                Action::output(2),
            ]),
        0,
    )
    .unwrap();
    let frame = udp_frame(b"rewrite-me");
    let (mut batch, mut r) = (FrameBatch::new(), BatchResult::default());
    run1(&mut dp, &mut batch, &mut r, frame.clone(), 0); // warm

    const N: u64 = 16;
    let before = buffer_allocs();
    for i in 0..N {
        run1(&mut dp, &mut batch, &mut r, frame.clone(), 1 + i);
        assert_eq!(r.outputs_of(0).len(), 1);
    }
    let allocs = buffer_allocs() - before;
    assert_eq!(
        allocs, N,
        "a rewriting flow must take exactly one CoW copy per frame, got {allocs} for {N} frames"
    );
}

/// The slow path is zero-copy too: a pure-forward frame that misses
/// table 0's specific rule, takes the table-miss entry to table 1 and
/// matches there walks the whole pipeline (no caches in TSS mode)
/// without allocating a single buffer.
#[test]
fn slow_path_table_miss_then_match_allocates_no_buffers() {
    let _g = COUNTER_LOCK.lock().unwrap();
    let mut dp = Datapath::new(DpConfig::software(1).with_mode(PipelineMode::tss()));
    for p in 1..=3 {
        dp.add_port(p, format!("p{p}"), 1_000_000);
    }
    for fm in [
        FlowMod::add(0)
            .priority(10)
            .match_(Match::new().eth_type(0x0800).ip_proto(17).udp_dst(9))
            .apply(vec![Action::output(3)]),
        FlowMod::add(0).priority(0).goto(1),
        FlowMod::add(1)
            .priority(1)
            .match_(Match::new().in_port(1))
            .apply(vec![Action::output(2)]),
    ] {
        dp.apply_flow_mod(fm, 0).unwrap();
    }
    let frame = udp_frame(b"slow");
    let (mut batch, mut r) = (FrameBatch::new(), BatchResult::default());
    run1(&mut dp, &mut batch, &mut r, frame.clone(), 0); // size the arena

    const N: u64 = 16;
    let before = buffer_allocs();
    for i in 0..N {
        run1(&mut dp, &mut batch, &mut r, frame.clone(), 1 + i);
        assert_eq!(r.outputs_of(0)[0].0, 2);
    }
    let allocs = buffer_allocs() - before;
    assert!(matches!(
        r.frames()[0].trace.unwrap().path,
        softswitch::trace::LookupPath::SlowPath { tables: 2, .. }
    ));
    assert_eq!(
        allocs, 0,
        "{N} pure-forward slow-path walks allocated {allocs} buffers; expected zero"
    );
}

/// Copy-on-write ceiling on the slow path: a set-field rewrite walked
/// through the uncached pipeline allocates exactly one buffer per
/// frame, the private copy its first mutation makes.
#[test]
fn slow_path_rewrite_allocates_exactly_one_buffer_per_frame() {
    let _g = COUNTER_LOCK.lock().unwrap();
    let mut dp = Datapath::new(DpConfig::software(1).with_mode(PipelineMode::tss()));
    dp.add_port(1, "p1", 1_000_000);
    dp.add_port(2, "p2", 1_000_000);
    dp.apply_flow_mod(
        FlowMod::add(0)
            .priority(1)
            .match_(Match::new().in_port(1))
            .apply(vec![
                Action::SetField(openflow::OxmField::EthDst(MacAddr::host(9), None)),
                Action::output(2),
            ]),
        0,
    )
    .unwrap();
    let frame = udp_frame(b"rewrite-me");
    let (mut batch, mut r) = (FrameBatch::new(), BatchResult::default());
    run1(&mut dp, &mut batch, &mut r, frame.clone(), 0); // size the arena

    const N: u64 = 16;
    let before = buffer_allocs();
    for i in 0..N {
        run1(&mut dp, &mut batch, &mut r, frame.clone(), 1 + i);
        assert_eq!(r.outputs_of(0).len(), 1);
    }
    let allocs = buffer_allocs() - before;
    assert!(matches!(
        r.frames()[0].trace.unwrap().path,
        softswitch::trace::LookupPath::SlowPath { .. }
    ));
    assert_eq!(
        allocs, N,
        "a rewriting slow-path walk must take exactly one CoW copy per frame, got {allocs} for {N} frames"
    );
}

/// A controller PACKET_OUT to one port, executed into a reused arena,
/// emits the controller's frame by reference: no buffer is allocated.
#[test]
fn packet_out_single_output_allocates_no_buffers() {
    let _g = COUNTER_LOCK.lock().unwrap();
    let mut dp = dp_with_ports(2);
    let frame = udp_frame(b"from-controller");
    let actions = [Action::output(2)];
    let mut r = BatchResult::default();
    dp.packet_out(port_no::CONTROLLER, &actions, frame.clone(), 0, &mut r); // size the arena

    const N: u64 = 16;
    let before = buffer_allocs();
    for i in 0..N {
        dp.packet_out(port_no::CONTROLLER, &actions, frame.clone(), 1 + i, &mut r);
        assert_eq!(r.outputs_of(0), [(2, frame.clone())]);
    }
    let allocs = buffer_allocs() - before;
    assert_eq!(
        allocs, 0,
        "{N} single-output packet-outs allocated {allocs} buffers; expected zero"
    );
}
