//! Per-layer numbers: public counters read after a run, and replays of
//! inputs captured during the traced run, timed from outside.

use crate::metrics::median;
use bytes::{Bytes, BytesMut};
use harmless::fabric::{Fabric, Spine};
use legacy_switch::LegacySwitchNode;
use netsim::{HybridStats, Network};
use softswitch::{BatchResult, Datapath, FrameBatch, SoftSwitchNode};
use std::hint::black_box;
use std::time::Instant;

/// Public counters of every software switch (each pod's SS_1 and SS_2
/// and a soft spine), summed.
#[derive(Debug, Clone, Copy, Default)]
pub struct SwitchCounters {
    /// Entries in table 0.
    pub flow_entries: u64,
    /// Frames processed, including frames the flow-level engine
    /// credited without simulating them.
    pub packets: u64,
    /// Lookups served by the cross-batch memo.
    pub memo_hits: u64,
    /// Microflow cache hits.
    pub micro_hits: u64,
    /// Microflow cache misses (frames that went on to the megaflow
    /// cache).
    pub micro_misses: u64,
    /// Megaflow cache hits.
    pub mega_hits: u64,
    /// Megaflow cache misses: frames that took the slow path.
    pub mega_misses: u64,
    /// Frames tail-dropped at RX queues.
    pub rx_dropped: u64,
    /// Packet-ins sent.
    pub packet_ins: u64,
}

impl SwitchCounters {
    /// Read and sum the counters of every software switch of `fx`.
    pub fn read(net: &Network, fx: &Fabric) -> SwitchCounters {
        let mut nodes: Vec<_> = fx
            .pods()
            .flat_map(|p| p.ss1.into_iter().chain([p.ss2]))
            .collect();
        if let Some(Spine::Soft(spine)) = fx.spine() {
            nodes.push(spine);
        }
        let mut c = SwitchCounters::default();
        for id in nodes {
            let sw = net.node_ref::<SoftSwitchNode>(id);
            let dp = sw.datapath();
            c.flow_entries += dp.table(0).map_or(0, |t| t.len() as u64);
            c.packets += dp.packets_processed();
            c.memo_hits += dp.batch_memo_hits();
            c.micro_hits += dp.micro_cache().hits();
            c.micro_misses += dp.micro_cache().misses();
            c.mega_hits += dp.mega_cache().hits();
            c.mega_misses += dp.mega_cache().misses();
            c.rx_dropped += sw.rx_dropped();
            c.packet_ins += sw.packet_ins_sent();
        }
        c
    }

    /// Frames that went through the lookup pipeline: every one starts
    /// at the memo or, failing that, at the microflow cache.
    pub fn lookups(&self) -> u64 {
        self.memo_hits + self.micro_hits + self.micro_misses
    }
}

/// Frames flooded by the pods' legacy switches.
pub fn legacy_floods(net: &Network, fx: &Fabric) -> u64 {
    fx.pods()
        .map(|p| {
            net.node_ref::<LegacySwitchNode>(p.legacy)
                .bridge()
                .flood_frames()
        })
        .sum()
}

/// Counters of one iteration, read after its last `run_*` call.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters {
    /// Software switches.
    pub switches: SwitchCounters,
    /// Legacy switch floods.
    pub legacy_floods: u64,
    /// Packet-ins the controller handled.
    pub ctrl_packet_ins: u64,
    /// Flow-mods the controller sent.
    pub ctrl_flow_mods: u64,
    /// Events the engine processed.
    pub events: u64,
    /// Frames the engine delivered over links.
    pub delivered_frames: u64,
    /// Flow-level engine counters (zero for packet-level workloads).
    pub flowsim: HybridStats,
    /// Frames generators offered (zero for ping workloads).
    pub frames_sent: u64,
}

/// Bursts per timing sample and samples per replay.
const BURSTS: usize = 2_000;
const SAMPLES: usize = 5;

/// Replay 32-frame bursts cycled from `frames` through `dp`'s
/// `process_batch_into`; median ns per burst over [`SAMPLES`] samples.
/// The datapath is left warmed and its counters advanced, so call this
/// only after the iteration's outputs are read.
pub fn batch32_ns(dp: &mut Datapath, now_ns: u64, frames: &[(u32, Bytes)]) -> f64 {
    if frames.is_empty() {
        return 0.0;
    }
    let mut batch = FrameBatch::with_capacity(32);
    let mut out = BatchResult::default();
    let mut next = 0usize;
    let mut burst = |dp: &mut Datapath| {
        for _ in 0..32 {
            let (port, f) = &frames[next];
            batch.push(*port, f.clone());
            next = (next + 1) % frames.len();
        }
        dp.process_batch_into(&mut batch, now_ns, &mut out);
        black_box(out.total_outputs());
    };
    for _ in 0..BURSTS {
        burst(dp);
    }
    let samples: Vec<f64> = (0..SAMPLES)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..BURSTS {
                burst(dp);
            }
            t.elapsed().as_nanos() as f64 / BURSTS as f64
        })
        .collect();
    median(&samples)
}

/// Median ns per frame of `FlowKey::extract` over the captured frames.
pub fn parse_ns_per_frame(frames: &[(u32, Bytes)]) -> f64 {
    if frames.is_empty() {
        return 0.0;
    }
    let passes = (200_000 / frames.len()).max(1);
    let samples: Vec<f64> = (0..SAMPLES)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..passes {
                for (port, f) in frames {
                    let _ = black_box(netpkt::FlowKey::extract(*port, black_box(f)));
                }
            }
            t.elapsed().as_nanos() as f64 / (passes * frames.len()) as f64
        })
        .collect();
    median(&samples)
}

/// Median ns per decoded message of `openflow::message::decode_stream`
/// over the captured control payloads. Payloads that do not decode on
/// their own are left out of the replay.
pub fn decode_ns_per_msg(chunks: &[Bytes]) -> f64 {
    let decodes = |c: &Bytes| {
        let mut s = BytesMut::new();
        s.extend_from_slice(c);
        openflow::message::decode_stream(&mut s)
            .ok()
            .map(|m| m.len())
    };
    let good: Vec<&Bytes> = chunks.iter().filter(|c| decodes(c).is_some()).collect();
    let msgs: usize = good.iter().filter_map(|c| decodes(c)).sum();
    if msgs == 0 {
        return 0.0;
    }
    let passes = (100_000 / msgs).max(1);
    let samples: Vec<f64> = (0..SAMPLES)
        .map(|_| {
            let mut streams: Vec<BytesMut> = Vec::with_capacity(passes * good.len());
            for _ in 0..passes {
                for c in &good {
                    let mut s = BytesMut::with_capacity(c.len());
                    s.extend_from_slice(c);
                    streams.push(s);
                }
            }
            let t = Instant::now();
            for s in &mut streams {
                let _ = black_box(openflow::message::decode_stream(s));
            }
            t.elapsed().as_nanos() as f64 / (passes * msgs) as f64
        })
        .collect();
    median(&samples)
}
