//! The simulation event loop: one event queue ordered by
//! `(time, sequence-number)`.
//!
//! Every node, link direction and pending event of a [`Network`] lives
//! in this one queue and is processed on the calling thread. Events at
//! the same instant fire in the order they were scheduled, and all
//! device randomness comes from one `StdRng` stream seeded with the
//! network seed, so a run is a pure function of its seed and inputs.

use bytes::Bytes;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cmp::Ordering;
use std::collections::{BinaryHeap, HashMap};

use crate::fault::{CtrlProfile, Fault, FaultPlan};
use crate::link::{LinkDir, LinkSpec, LinkStats};
use crate::node::{Action, Node, NodeCtx, PortId};
use crate::stats::CtrlStats;
use crate::time::SimTime;

/// Identifies a node within one [`Network`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub usize);

impl core::fmt::Display for NodeId {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Queued events. Nodes are referenced by their [`NodeId`] index.
#[derive(Debug)]
enum Ev {
    /// A frame finishes arriving at a node's port.
    Deliver {
        node: u32,
        port: PortId,
        frame: Bytes,
    },
    /// A device timer fires.
    Timer { node: u32, token: u64 },
    /// A control-plane message arrives.
    Ctrl {
        node: u32,
        from: NodeId,
        data: Bytes,
    },
    /// A link serializer finishes the current frame.
    TxDone { chan: u32 },
    /// A delayed transmit enters the egress queue.
    Emit {
        node: u32,
        port: PortId,
        frame: Bytes,
    },
    /// A scheduled fault fires (see [`crate::fault::FaultPlan`]).
    Fault(FaultEv),
}

/// Fault events. A full link-down schedules one event per direction at
/// the same instant, which keeps fault processing inside the normal
/// `(at, seq)` order.
#[derive(Debug, Clone, Copy)]
enum FaultEv {
    /// Take one egress direction down (queued frames blackhole).
    LinkDown { chan: u32 },
    /// Bring one egress direction back up.
    LinkUp { chan: u32 },
    /// Power-cycle a node: fires [`Node::on_reset`].
    Reset { node: u32 },
    /// Partition a node from the control plane.
    CtrlDown { node: NodeId },
    /// Heal a node's control-plane partition.
    CtrlUp { node: NodeId },
}

struct Sched {
    at: SimTime,
    seq: u64,
    ev: Ev,
}

impl PartialEq for Sched {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for Sched {}
impl PartialOrd for Sched {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Sched {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so earliest (time, seq) pops first.
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

/// One egress channel: the transmitting half of a duplex link.
struct Chan {
    dir: LinkDir,
    peer: NodeId,
    peer_port: PortId,
}

/// A complete simulated network: nodes, links and the event queue.
///
/// Deterministic given the seed passed to [`Network::new`]; all device
/// randomness must come from [`NodeCtx::rng`].
pub struct Network {
    now: SimTime,
    seq: u64,
    queue: BinaryHeap<Sched>,
    nodes: Vec<Box<dyn Node>>,
    started: Vec<bool>,
    /// Per-node egress map: `ports[node][port] = Some(chan)` — a plain
    /// vector lookup on the `emit` hot path (one per frame hop).
    ports: Vec<Vec<Option<u32>>>,
    chans: Vec<Chan>,
    rng: StdRng,
    ctrl_delay: SimTime,
    ctrl_profile: CtrlProfile,
    /// Control-plane partition state, indexed by node id.
    ctrl_blocked: Vec<bool>,
    /// Per-channel control impairment counters, keyed by the
    /// `(from, to)` node pair.
    ctrl_stats: HashMap<(usize, usize), CtrlStats>,
    unconnected_drops: u64,
    events_processed: u64,
    /// Frames actually handed to a node's `on_packet`/`on_frames` — the
    /// packet-level delivery volume the flow-level engine compares its
    /// modeled volume against.
    delivered_frames: u64,
    /// Bytes of those delivered frames.
    delivered_bytes: u64,
    /// Frames that finished their flight into a port whose link was down
    /// on arrival.
    blackholed_in_flight: u64,
}

impl Network {
    /// Create an empty network with a deterministic RNG seed.
    pub fn new(seed: u64) -> Network {
        Network {
            now: SimTime::ZERO,
            seq: 0,
            queue: BinaryHeap::new(),
            nodes: Vec::new(),
            started: Vec::new(),
            ports: Vec::new(),
            chans: Vec::new(),
            rng: StdRng::seed_from_u64(seed),
            ctrl_delay: SimTime::from_micros(50),
            ctrl_profile: CtrlProfile::default(),
            ctrl_blocked: Vec::new(),
            ctrl_stats: HashMap::new(),
            unconnected_drops: 0,
            events_processed: 0,
            delivered_frames: 0,
            delivered_bytes: 0,
            blackholed_in_flight: 0,
        }
    }

    /// Register a device; returns its id. Nodes added between `run_*`
    /// calls get their [`Node::on_start`] at the start of the next run.
    pub fn add_node(&mut self, node: impl Node) -> NodeId {
        let id = NodeId(self.nodes.len());
        self.nodes.push(Box::new(node));
        self.started.push(false);
        self.ports.push(Vec::new());
        id
    }

    /// Connect `(a, pa)` to `(b, pb)` with a duplex link.
    ///
    /// # Panics
    /// Panics if either port is already connected, or `a == b` with the
    /// same port.
    pub fn connect(&mut self, a: NodeId, pa: PortId, b: NodeId, pb: PortId, spec: LinkSpec) {
        let chan_a = self.chans.len() as u32;
        self.chans.push(Chan {
            dir: LinkDir::new(spec),
            peer: b,
            peer_port: pb,
        });
        self.set_port(a, pa, chan_a);
        let chan_b = self.chans.len() as u32;
        self.chans.push(Chan {
            dir: LinkDir::new(spec),
            peer: a,
            peer_port: pa,
        });
        self.set_port(b, pb, chan_b);
    }

    /// Map `(node, port)` to an egress channel.
    ///
    /// # Panics
    /// Panics if the port is already connected.
    fn set_port(&mut self, node: NodeId, port: PortId, chan: u32) {
        let row = &mut self.ports[node.0];
        let p = usize::from(port.0);
        if row.len() <= p {
            row.resize(p + 1, None);
        }
        if let Some(old) = row[p] {
            // A dead channel (torn out by a host detach) may be replaced
            // on re-attach; it stays allocated as a tombstone so pending
            // TxDone events referencing it resolve safely.
            assert!(
                self.chans[old as usize].dir.dead,
                "port {port} of {node} already connected"
            );
        }
        row[p] = Some(chan);
    }

    fn chan_of(&self, node: u32, port: PortId) -> Option<u32> {
        self.ports[node as usize]
            .get(usize::from(port.0))
            .copied()
            .flatten()
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events processed so far (for runaway detection in tests
    /// and events/second reporting).
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Frames transmitted to unconnected ports so far.
    pub fn unconnected_drops(&self) -> u64 {
        self.unconnected_drops
    }

    /// Frames handed to node callbacks so far — the packet-level
    /// delivery volume ([`crate::flowsim`] reports its modeled volume
    /// alongside this).
    pub fn delivered_frames(&self) -> u64 {
        self.delivered_frames
    }

    /// Bytes of frames handed to node callbacks so far.
    pub fn delivered_bytes(&self) -> u64 {
        self.delivered_bytes
    }

    /// Set the out-of-band control channel delay (default 50 µs).
    pub fn set_ctrl_delay(&mut self, d: SimTime) {
        self.ctrl_delay = d;
    }

    /// Arm a stochastic control-channel impairment profile (see
    /// [`CtrlProfile`]): probabilistic drop, duplication, bounded
    /// reorder jitter and fixed extra delay applied to every control
    /// message from its send instant on. Call between `run_*`
    /// invocations. Extra latency is added *on top of* the base control
    /// delay.
    pub fn set_ctrl_profile(&mut self, profile: CtrlProfile) {
        self.ctrl_profile = profile;
    }

    /// The armed control-channel impairment profile (the no-op
    /// [`CtrlProfile::lossless`] by default).
    pub fn ctrl_profile(&self) -> CtrlProfile {
        self.ctrl_profile
    }

    /// Control-channel impairment counters summed over every channel
    /// (see [`CtrlStats`]; `retransmitted` is owned by the protocol
    /// layer and stays 0 here).
    pub fn ctrl_stats(&self) -> CtrlStats {
        let mut total = CtrlStats::default();
        for st in self.ctrl_stats.values() {
            total.merge(st);
        }
        total
    }

    /// Impairment counters of the directed control channel `from → to`.
    pub fn ctrl_channel_stats(&self, from: NodeId, to: NodeId) -> CtrlStats {
        self.ctrl_stats
            .get(&(from.0, to.0))
            .copied()
            .unwrap_or_default()
    }

    fn ctrl_stat(&mut self, from: NodeId, to: NodeId) -> &mut CtrlStats {
        self.ctrl_stats.entry((from.0, to.0)).or_default()
    }

    /// Partition `node` from the out-of-band control plane *now*:
    /// control messages from or to it are discarded (at send time, and
    /// on delivery for messages already in flight) until
    /// [`Network::ctrl_up`]. This is the explicit control-channel
    /// teardown — unlike [`Network::disconnect`]'s dead-link
    /// tombstones, the partition cannot be silently replaced by a
    /// re-attach. Call between `run_*` invocations; scheduled variants
    /// live in [`FaultPlan::ctrl_down`](crate::FaultPlan::ctrl_down).
    pub fn ctrl_down(&mut self, node: NodeId) {
        self.set_ctrl_blocked(node, true);
    }

    /// Heal `node`'s control-plane partition *now*.
    pub fn ctrl_up(&mut self, node: NodeId) {
        self.set_ctrl_blocked(node, false);
    }

    /// Whether `node` is currently partitioned from the control plane.
    pub fn ctrl_is_down(&self, node: NodeId) -> bool {
        self.ctrl_blocked.get(node.0).copied().unwrap_or(false)
    }

    fn set_ctrl_blocked(&mut self, node: NodeId, blocked: bool) {
        if self.ctrl_blocked.len() <= node.0 {
            self.ctrl_blocked.resize(node.0 + 1, false);
        }
        self.ctrl_blocked[node.0] = blocked;
    }

    /// Egress statistics of the link attached to `(node, port)`, if
    /// connected.
    pub fn link_stats(&self, node: NodeId, port: PortId) -> Option<LinkStats> {
        let chan = (*self.ports.get(node.0)?.get(usize::from(port.0))?)?;
        Some(self.chans[chan as usize].dir.stats)
    }

    /// Resolve the two egress channels of the duplex link attached to
    /// `(node, port)`: the endpoint's own direction and its peer's.
    fn link_chans(&self, node: NodeId, port: PortId) -> Option<(u32, u32)> {
        let chan = (*self.ports.get(node.0)?.get(usize::from(port.0))?)?;
        let c = &self.chans[chan as usize];
        let pchan = (*self.ports[c.peer.0].get(usize::from(c.peer_port.0))?)?;
        Some((chan, pchan))
    }

    /// Arm every fault in `plan` (see [`crate::fault`]). Entries are
    /// scheduled in time order (ties in insertion order) as ordinary
    /// events. Fault times must not lie in the simulated past.
    ///
    /// # Panics
    /// Panics if a link fault names an unconnected port or a fault names
    /// an unknown node.
    pub fn apply_faults(&mut self, plan: &FaultPlan) {
        for (at, fault) in plan.entries() {
            match fault {
                Fault::LinkDown { node, port } => self.schedule_link_down(at, node, port),
                Fault::LinkUp { node, port } => self.schedule_link_up(at, node, port),
                Fault::Reset { node } => self.schedule_reset(at, node),
                Fault::CtrlDown { node } => self.schedule_ctrl_down(at, node),
                Fault::CtrlUp { node } => self.schedule_ctrl_up(at, node),
            }
        }
    }

    /// Schedule both directions of the link at `(node, port)` to go down
    /// at `at`. Queued and in-flight frames are blackholed (see
    /// [`crate::fault`] for exact semantics).
    ///
    /// # Panics
    /// Panics if `(node, port)` has no link.
    pub fn schedule_link_down(&mut self, at: SimTime, node: NodeId, port: PortId) {
        let (ca, cb) = self
            .link_chans(node, port)
            .unwrap_or_else(|| panic!("no link at {node}:{port}"));
        self.push(at, Ev::Fault(FaultEv::LinkDown { chan: ca }));
        self.push(at, Ev::Fault(FaultEv::LinkDown { chan: cb }));
    }

    /// Schedule both directions of the link at `(node, port)` to come
    /// back up at `at`.
    ///
    /// # Panics
    /// Panics if `(node, port)` has no link.
    pub fn schedule_link_up(&mut self, at: SimTime, node: NodeId, port: PortId) {
        let (ca, cb) = self
            .link_chans(node, port)
            .unwrap_or_else(|| panic!("no link at {node}:{port}"));
        self.push(at, Ev::Fault(FaultEv::LinkUp { chan: ca }));
        self.push(at, Ev::Fault(FaultEv::LinkUp { chan: cb }));
    }

    /// Schedule a power cycle of `node` at `at`: its
    /// [`Node::on_reset`] hook fires at that instant.
    pub fn schedule_reset(&mut self, at: SimTime, node: NodeId) {
        self.push(
            at,
            Ev::Fault(FaultEv::Reset {
                node: node.0 as u32,
            }),
        );
    }

    /// Schedule a control-plane partition of `node` at `at`.
    pub fn schedule_ctrl_down(&mut self, at: SimTime, node: NodeId) {
        self.push(at, Ev::Fault(FaultEv::CtrlDown { node }));
    }

    /// Schedule the control-plane partition of `node` to heal at `at`.
    pub fn schedule_ctrl_up(&mut self, at: SimTime, node: NodeId) {
        self.push(at, Ev::Fault(FaultEv::CtrlUp { node }));
    }

    /// Tear out the link at `(node, port)` right now, returning the peer
    /// endpoint. Queued frames on both directions are blackholed; frames
    /// already in flight blackhole on arrival. Both port slots become
    /// reusable — a later [`Network::connect`] on either port builds a
    /// fresh link (this is how host detach/re-attach is modelled).
    ///
    /// Returns `None` if the port has no link. Call between `run_*`
    /// invocations only.
    pub fn disconnect(&mut self, node: NodeId, port: PortId) -> Option<(NodeId, PortId)> {
        let (ca, cb) = self.link_chans(node, port)?;
        let peer = {
            let c = &mut self.chans[ca as usize];
            let p = (c.peer, c.peer_port);
            c.dir.take_down();
            c.dir.dead = true;
            p
        };
        let c = &mut self.chans[cb as usize];
        c.dir.take_down();
        c.dir.dead = true;
        Some(peer)
    }

    /// Whether the duplex link at `(node, port)` is currently up in both
    /// directions (and not torn out). `None` if the port has no link.
    /// The flow-level engine polls this at window boundaries: a downed
    /// hop demotes every converged flow routed over it.
    pub fn link_up(&self, node: NodeId, port: PortId) -> Option<bool> {
        let (ca, cb) = self.link_chans(node, port)?;
        let a = &self.chans[ca as usize].dir;
        let b = &self.chans[cb as usize].dir;
        Some(!a.down && !a.dead && !b.down && !b.dead)
    }

    /// Total frames lost to downed or torn-out links so far: queued or
    /// newly transmitted frames blackholed at the egress, plus in-flight
    /// frames blackholed on arrival.
    pub fn blackholed_frames(&self) -> u64 {
        self.blackholed_in_flight
            + self
                .chans
                .iter()
                .map(|c| c.dir.stats.blackholed_frames)
                .sum::<u64>()
    }

    /// Typed shared access to a node.
    ///
    /// # Panics
    /// Panics if the node is not of type `T`.
    pub fn node_ref<T: Node>(&self, id: NodeId) -> &T {
        self.try_node_ref(id).expect("node type mismatch")
    }

    /// Typed exclusive access to a node.
    ///
    /// # Panics
    /// Panics if the node is not of type `T`.
    pub fn node_mut<T: Node>(&mut self, id: NodeId) -> &mut T {
        self.nodes[id.0]
            .as_any_mut()
            .downcast_mut::<T>()
            .expect("node type mismatch")
    }

    /// Typed shared access to a node, or `None` if it is of another
    /// type (the probing sibling of [`Network::node_ref`]).
    pub fn try_node_ref<T: Node>(&self, id: NodeId) -> Option<&T> {
        self.nodes[id.0].as_any().downcast_ref::<T>()
    }

    /// Untyped shared access to a node (flow-level engine plumbing).
    pub(crate) fn node_dyn(&self, id: NodeId) -> &dyn Node {
        self.nodes[id.0].as_ref()
    }

    /// Untyped exclusive access to a node (flow-level engine plumbing).
    pub(crate) fn node_dyn_mut(&mut self, id: NodeId) -> &mut dyn Node {
        self.nodes[id.0].as_mut()
    }

    /// Deliver a frame to a node as if it had arrived on `port` now
    /// (bypasses links; intended for tests).
    pub fn inject(&mut self, node: NodeId, port: PortId, frame: Bytes) {
        self.push(
            self.now,
            Ev::Deliver {
                node: node.0 as u32,
                port,
                frame,
            },
        );
    }

    /// Invoke a closure against a node with a full [`NodeCtx`], outside any
    /// event. This is how experiment drivers poke devices "from the
    /// management plane" (e.g. ask a generator to start, or a manager to
    /// begin migration) at the current instant.
    ///
    /// # Panics
    /// Panics if the node is not of type `T`.
    pub fn with_node_ctx<T: Node, R>(
        &mut self,
        id: NodeId,
        f: impl FnOnce(&mut T, &mut NodeCtx) -> R,
    ) -> R {
        self.dispatch(id.0 as u32, |n, ctx| {
            let node = n
                .as_any_mut()
                .downcast_mut::<T>()
                .expect("node type mismatch");
            f(node, ctx)
        })
    }

    /// Run until the event queue is exhausted or `limit` is reached,
    /// whichever comes first. The clock ends at `limit` if given, and at
    /// the last processed event when running until idle.
    pub fn run_until(&mut self, limit: SimTime) {
        let start = self.now;
        for i in 0..self.nodes.len() {
            if !self.started[i] {
                self.started[i] = true;
                self.dispatch(i as u32, |n, ctx| n.on_start(ctx));
            }
        }
        while let Some(top) = self.queue.peek() {
            if top.at > limit {
                break;
            }
            let sched = self.queue.pop().expect("peeked event exists");
            self.now = sched.at;
            self.events_processed += 1;
            self.handle(sched.ev);
        }
        self.now = self.now.max(start);
        if limit != SimTime::MAX {
            self.now = self.now.max(limit);
        }
    }

    /// Run for a duration from the current clock.
    pub fn run_for(&mut self, d: SimTime) {
        let t = self.now + d;
        self.run_until(t);
    }

    /// Run until completely idle (no events left). Use only for workloads
    /// that terminate; generators with no stop time never go idle.
    pub fn run_until_idle(&mut self) {
        self.run_until(SimTime::MAX);
    }

    fn push(&mut self, at: SimTime, ev: Ev) {
        let seq = self.seq;
        self.seq += 1;
        self.queue.push(Sched { at, seq, ev });
    }

    fn handle(&mut self, ev: Ev) {
        match ev {
            Ev::Deliver { node, port, frame } => {
                if self.ingress_down(node, port) {
                    self.blackholed_in_flight += 1;
                    return;
                }
                self.deliver_burst(node, port, frame);
            }
            Ev::Timer { node, token } => {
                self.dispatch(node, |n, ctx| n.on_timer(token, ctx));
            }
            Ev::Ctrl { node, from, data } => {
                // A message already in flight when the receiver was
                // partitioned is discarded on delivery (the send-time
                // check lives in `apply`).
                let to = NodeId(node as usize);
                if self.ctrl_is_down(to) {
                    self.ctrl_stat(from, to).dropped += 1;
                    return;
                }
                self.dispatch(node, |n, ctx| n.on_ctrl(from, data, ctx));
            }
            Ev::Emit { node, port, frame } => {
                self.emit(node, port, frame);
            }
            Ev::TxDone { chan } => {
                self.chans[chan as usize].dir.tx_in_flight = false;
                self.kick(chan);
            }
            Ev::Fault(f) => match f {
                FaultEv::LinkDown { chan } => self.chans[chan as usize].dir.take_down(),
                FaultEv::LinkUp { chan } => {
                    self.chans[chan as usize].dir.bring_up();
                    self.kick(chan);
                }
                FaultEv::Reset { node } => {
                    self.dispatch(node, |n, ctx| n.on_reset(ctx));
                }
                FaultEv::CtrlDown { node } => self.set_ctrl_blocked(node, true),
                FaultEv::CtrlUp { node } => self.set_ctrl_blocked(node, false),
            },
        }
    }

    /// Deliver a frame plus any immediately following same-instant
    /// deliveries for the same node as one burst. Coalescing only merges
    /// events that would have been processed back-to-back anyway (they
    /// are adjacent in `(time, seq)` order), so per-port FIFO order,
    /// action ordering and determinism are untouched; nodes that do not
    /// override [`Node::on_frames`] see the exact per-frame callbacks
    /// they always did.
    fn deliver_burst(&mut self, node: u32, port: PortId, frame: Bytes) {
        let mut frames = vec![(port, frame)];
        loop {
            match self.queue.peek() {
                Some(top) if top.at == self.now => match &top.ev {
                    Ev::Deliver { node: n, .. } if *n == node => {}
                    _ => break,
                },
                _ => break,
            }
            let Some(Sched {
                ev: Ev::Deliver { port, frame, .. },
                ..
            }) = self.queue.pop()
            else {
                unreachable!("peeked event was a Deliver");
            };
            self.events_processed += 1;
            if self.ingress_down(node, port) {
                self.blackholed_in_flight += 1;
                continue;
            }
            frames.push((port, frame));
        }
        self.delivered_frames += frames.len() as u64;
        self.delivered_bytes += frames.iter().map(|(_, f)| f.len() as u64).sum::<u64>();
        if frames.len() == 1 {
            let (port, frame) = frames.pop().expect("exactly one frame");
            self.dispatch(node, |n, ctx| n.on_packet(port, frame, ctx));
        } else {
            self.dispatch(node, |n, ctx| n.on_frames(frames, ctx));
        }
    }

    /// True when the link into `(node, port)` is down on arrival: the
    /// receiver's own egress channel on the same port is the paired half
    /// of the same duplex link, which fault scheduling always downs at
    /// the same instant as its twin.
    fn ingress_down(&self, node: u32, port: PortId) -> bool {
        self.chan_of(node, port)
            .is_some_and(|c| self.chans[c as usize].dir.down)
    }

    /// Run one callback of `node` and apply its deferred side effects.
    fn dispatch<R>(&mut self, node: u32, f: impl FnOnce(&mut dyn Node, &mut NodeCtx) -> R) -> R {
        let mut actions = Vec::new();
        let mut ctx = NodeCtx {
            now: self.now,
            node: NodeId(node as usize),
            actions: &mut actions,
            rng: &mut self.rng,
        };
        let r = f(self.nodes[node as usize].as_mut(), &mut ctx);
        self.apply(node, actions);
        r
    }

    /// Apply the deferred side effects of one callback of `node`.
    fn apply(&mut self, node: u32, actions: Vec<Action>) {
        for a in actions {
            match a {
                Action::Transmit { port, frame } => self.emit(node, port, frame),
                Action::TransmitAfter { delay, port, frame } => {
                    let at = self.now + delay;
                    self.push(at, Ev::Emit { node, port, frame });
                }
                Action::Timer { at, token } => self.push(at, Ev::Timer { node, token }),
                Action::Ctrl { to, data } => {
                    let from = NodeId(node as usize);
                    // Control partition: either endpoint down ⇒ the
                    // message dies at the sender.
                    if self.ctrl_is_down(from) || self.ctrl_is_down(to) {
                        self.ctrl_stat(from, to).dropped += 1;
                        continue;
                    }
                    let mut at = self.now + self.ctrl_delay;
                    let mut copies = 1u32;
                    let p = self.ctrl_profile;
                    if !p.is_noop() {
                        // Impairment decisions are drawn at the send
                        // instant, where ordering is already fixed.
                        at += p.extra_delay;
                        self.ctrl_stat(from, to).sent += 1;
                        if p.drop > 0.0 && self.rng.gen_bool(p.drop) {
                            self.ctrl_stat(from, to).dropped += 1;
                            continue;
                        }
                        if p.dup > 0.0 && self.rng.gen_bool(p.dup) {
                            self.ctrl_stat(from, to).duplicated += 1;
                            copies = 2;
                        }
                        if p.reorder > 0.0
                            && p.reorder_bound > SimTime::ZERO
                            && self.rng.gen_bool(p.reorder)
                        {
                            let jitter = self.rng.gen_range(1..=p.reorder_bound.as_nanos());
                            at += SimTime::from_nanos(jitter);
                            self.ctrl_stat(from, to).reordered += 1;
                        }
                    }
                    for _ in 0..copies {
                        self.push(
                            at,
                            Ev::Ctrl {
                                node: to.0 as u32,
                                from,
                                data: data.clone(),
                            },
                        );
                    }
                }
            }
        }
    }

    /// Enqueue a frame onto the egress channel of `(node, port)`.
    fn emit(&mut self, node: u32, port: PortId, frame: Bytes) {
        let Some(chan) = self.chan_of(node, port) else {
            self.unconnected_drops += 1;
            return;
        };
        if self.chans[chan as usize].dir.enqueue(frame) {
            self.kick(chan);
        }
    }

    /// If the serializer of `chan` is idle and frames are queued, start
    /// transmitting the head-of-line frame.
    fn kick(&mut self, chan: u32) {
        let now = self.now;
        let c = &mut self.chans[chan as usize];
        if c.dir.tx_in_flight || c.dir.down {
            return;
        }
        let Some(frame) = c.dir.dequeue() else { return };
        let ser = c.dir.spec.ser_time(frame.len());
        let tx_done = now + ser;
        let arrive = tx_done + c.dir.spec.delay;
        c.dir.tx_in_flight = true;
        c.dir.busy_until = tx_done;
        let (peer, peer_port) = (c.peer, c.peer_port);
        self.push(tx_done, Ev::TxDone { chan });
        self.push(
            arrive,
            Ev::Deliver {
                node: peer.0 as u32,
                port: peer_port,
                frame,
            },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::any::Any;

    /// Echoes every frame back out the port it came in on, after `delay`.
    struct Echo {
        delay: SimTime,
        seen: u64,
    }

    impl Node for Echo {
        fn on_packet(&mut self, port: PortId, frame: Bytes, ctx: &mut NodeCtx) {
            self.seen += 1;
            ctx.transmit_after(self.delay, port, frame);
        }
        fn name(&self) -> &str {
            "echo"
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    /// Sends `count` frames at fixed intervals on port 0 and records the
    /// arrival times of everything it receives.
    struct Pinger {
        count: u32,
        interval: SimTime,
        arrivals: Vec<SimTime>,
        sent: u32,
    }

    impl Node for Pinger {
        fn on_start(&mut self, ctx: &mut NodeCtx) {
            ctx.schedule(SimTime::ZERO, 0);
        }
        fn on_timer(&mut self, _t: u64, ctx: &mut NodeCtx) {
            if self.sent < self.count {
                self.sent += 1;
                ctx.transmit(PortId(0), Bytes::from(vec![0u8; 100]));
                ctx.schedule(self.interval, 0);
            }
        }
        fn on_packet(&mut self, _port: PortId, _frame: Bytes, ctx: &mut NodeCtx) {
            self.arrivals.push(ctx.now());
        }
        fn name(&self) -> &str {
            "pinger"
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    fn pinger(count: u32, interval: SimTime) -> Pinger {
        Pinger {
            count,
            interval,
            arrivals: Vec::new(),
            sent: 0,
        }
    }

    #[test]
    fn round_trip_latency_is_deterministic() {
        let mut net = Network::new(1);
        let p = net.add_node(pinger(1, SimTime::from_micros(10)));
        let e = net.add_node(Echo {
            delay: SimTime::from_micros(5),
            seen: 0,
        });
        net.connect(p, PortId(0), e, PortId(0), LinkSpec::gigabit());
        net.run_until_idle();
        let arr = &net.node_ref::<Pinger>(p).arrivals;
        assert_eq!(arr.len(), 1);
        // ser = (100+24)*8ns = 992ns, prop = 1000ns, echo delay = 5000ns,
        // then the same back: 2*(992+1000) + 5000 = 8984ns.
        assert_eq!(arr[0], SimTime::from_nanos(8984));
        assert_eq!(net.node_ref::<Echo>(e).seen, 1);
    }

    #[test]
    fn queueing_delays_back_to_back_frames() {
        let mut net = Network::new(1);
        let p = net.add_node(pinger(3, SimTime::ZERO)); // 3 frames same instant
        let e = net.add_node(Echo {
            delay: SimTime::ZERO,
            seen: 0,
        });
        net.connect(p, PortId(0), e, PortId(0), LinkSpec::gigabit());
        net.run_until_idle();
        let arr = &net.node_ref::<Pinger>(p).arrivals;
        assert_eq!(arr.len(), 3);
        // Frames serialize one after another: arrivals spaced by 992ns.
        assert_eq!(arr[1].0 - arr[0].0, 992);
        assert_eq!(arr[2].0 - arr[1].0, 992);
    }

    #[test]
    fn unconnected_port_drops() {
        let mut net = Network::new(1);
        let _p = net.add_node(pinger(2, SimTime::from_micros(1)));
        net.run_until_idle();
        assert_eq!(net.unconnected_drops(), 2);
    }

    #[test]
    fn ctrl_messages_arrive_after_ctrl_delay() {
        struct CtrlEcho {
            got_at: Option<SimTime>,
        }
        impl Node for CtrlEcho {
            fn on_packet(&mut self, _p: PortId, _f: Bytes, _c: &mut NodeCtx) {}
            fn on_ctrl(&mut self, _from: NodeId, _d: Bytes, ctx: &mut NodeCtx) {
                self.got_at = Some(ctx.now());
            }
            fn as_any(&self) -> &dyn Any {
                self
            }
            fn as_any_mut(&mut self) -> &mut dyn Any {
                self
            }
        }
        struct CtrlSender {
            to: NodeId,
        }
        impl Node for CtrlSender {
            fn on_start(&mut self, ctx: &mut NodeCtx) {
                ctx.ctrl_send(self.to, Bytes::from_static(b"hi"));
            }
            fn on_packet(&mut self, _p: PortId, _f: Bytes, _c: &mut NodeCtx) {}
            fn as_any(&self) -> &dyn Any {
                self
            }
            fn as_any_mut(&mut self) -> &mut dyn Any {
                self
            }
        }
        let mut net = Network::new(1);
        net.set_ctrl_delay(SimTime::from_micros(123));
        let r = net.add_node(CtrlEcho { got_at: None });
        let _s = net.add_node(CtrlSender { to: r });
        net.run_until_idle();
        assert_eq!(
            net.node_ref::<CtrlEcho>(r).got_at,
            Some(SimTime::from_micros(123))
        );
    }

    #[test]
    fn run_until_advances_clock_even_when_idle() {
        let mut net = Network::new(1);
        net.run_until(SimTime::from_secs(1));
        assert_eq!(net.now(), SimTime::from_secs(1));
    }

    #[test]
    #[should_panic(expected = "already connected")]
    fn double_connect_panics() {
        let mut net = Network::new(1);
        let a = net.add_node(pinger(0, SimTime::ZERO));
        let b = net.add_node(pinger(0, SimTime::ZERO));
        let c = net.add_node(pinger(0, SimTime::ZERO));
        net.connect(a, PortId(0), b, PortId(0), LinkSpec::gigabit());
        net.connect(a, PortId(0), c, PortId(0), LinkSpec::gigabit());
    }

    #[test]
    fn same_instant_frames_coalesce_into_one_burst() {
        struct Burst {
            bursts: Vec<Vec<u16>>,
        }
        impl Node for Burst {
            fn on_packet(&mut self, port: PortId, _f: Bytes, _ctx: &mut NodeCtx) {
                self.bursts.push(vec![port.0]);
            }
            fn on_frames(&mut self, frames: Vec<(PortId, Bytes)>, _ctx: &mut NodeCtx) {
                self.bursts.push(frames.iter().map(|(p, _)| p.0).collect());
            }
            fn as_any(&self) -> &dyn Any {
                self
            }
            fn as_any_mut(&mut self) -> &mut dyn Any {
                self
            }
        }
        let mut net = Network::new(1);
        let b = net.add_node(Burst { bursts: Vec::new() });
        for port in [3u16, 1, 2] {
            net.inject(b, PortId(port), Bytes::from_static(b"x"));
        }
        net.run_until_idle();
        // All three same-instant frames arrive as one burst, in
        // submission order.
        assert_eq!(net.node_ref::<Burst>(b).bursts, vec![vec![3, 1, 2]]);
        assert_eq!(net.events_processed(), 3, "coalesced events still count");
        // A frame at a later instant arrives alone, via on_packet.
        net.inject(b, PortId(9), Bytes::from_static(b"y"));
        net.run_until_idle();
        assert_eq!(net.node_ref::<Burst>(b).bursts.last().unwrap(), &vec![9]);
    }

    #[test]
    fn inject_delivers_to_node() {
        let mut net = Network::new(1);
        let e = net.add_node(Echo {
            delay: SimTime::ZERO,
            seen: 0,
        });
        net.inject(e, PortId(3), Bytes::from_static(b"x"));
        net.run_until_idle();
        assert_eq!(net.node_ref::<Echo>(e).seen, 1);
    }

    #[test]
    fn link_stats_track_egress() {
        let mut net = Network::new(1);
        let p = net.add_node(pinger(5, SimTime::from_micros(100)));
        let e = net.add_node(Echo {
            delay: SimTime::ZERO,
            seen: 0,
        });
        net.connect(p, PortId(0), e, PortId(0), LinkSpec::gigabit());
        net.run_until_idle();
        let s = net.link_stats(p, PortId(0)).unwrap();
        assert_eq!(s.tx_frames, 5);
        assert_eq!(s.tx_bytes, 500);
        assert_eq!(s.dropped_frames, 0);
    }

    /// Two pinger↔echo pairs driven through `slices` short `run_for`
    /// calls before one final `run_until`.
    fn sliced_scenario(slices: u32) -> (Vec<SimTime>, Vec<SimTime>, u64) {
        let mut net = Network::new(9);
        let p0 = net.add_node(pinger(4, SimTime::from_micros(3)));
        let e0 = net.add_node(Echo {
            delay: SimTime::from_micros(1),
            seen: 0,
        });
        let p1 = net.add_node(pinger(4, SimTime::from_micros(5)));
        let e1 = net.add_node(Echo {
            delay: SimTime::from_micros(2),
            seen: 0,
        });
        net.connect(p0, PortId(0), e0, PortId(0), LinkSpec::gigabit());
        net.connect(p1, PortId(0), e1, PortId(0), LinkSpec::gigabit());
        for _ in 0..slices {
            net.run_for(SimTime::from_micros(5));
        }
        net.run_until(SimTime::from_millis(5));
        let a0 = net.node_ref::<Pinger>(p0).arrivals.clone();
        let a1 = net.node_ref::<Pinger>(p1).arrivals.clone();
        (a0, a1, net.events_processed())
    }

    /// Slicing a run into many `run_for` calls is result-neutral: arrival
    /// times and event counts match one long run, for any slicing (the
    /// flow-level engine relies on this).
    #[test]
    fn sliced_runs_match_one_run() {
        let base = sliced_scenario(0);
        assert_eq!(base.0.len(), 4, "workload converged");
        assert_eq!(base.1.len(), 4, "workload converged");
        assert_eq!(sliced_scenario(40), base);
        assert_eq!(sliced_scenario(7), base);
    }

    /// Events scheduled near (or exactly at) the end of time still fire
    /// when running until idle.
    #[test]
    fn events_at_the_end_of_time_still_fire() {
        struct FarTimer {
            fire_at: SimTime,
            fired: Vec<SimTime>,
        }
        impl Node for FarTimer {
            fn on_start(&mut self, ctx: &mut NodeCtx) {
                let delay = self.fire_at.saturating_sub(ctx.now());
                ctx.schedule(delay, 0);
            }
            fn on_timer(&mut self, _t: u64, ctx: &mut NodeCtx) {
                self.fired.push(ctx.now());
            }
            fn on_packet(&mut self, _p: PortId, _f: Bytes, _c: &mut NodeCtx) {}
            fn as_any(&self) -> &dyn Any {
                self
            }
            fn as_any_mut(&mut self) -> &mut dyn Any {
                self
            }
        }
        let near = SimTime::from_nanos(u64::MAX - 10);
        let mut net = Network::new(1);
        let a = net.add_node(FarTimer {
            fire_at: near,
            fired: Vec::new(),
        });
        let b = net.add_node(FarTimer {
            fire_at: SimTime::MAX,
            fired: Vec::new(),
        });
        net.run_until_idle();
        assert_eq!(net.node_ref::<FarTimer>(a).fired, vec![near]);
        assert_eq!(net.node_ref::<FarTimer>(b).fired, vec![SimTime::MAX]);
    }

    #[test]
    fn link_down_blackholes_then_up_restores_service() {
        // 10 pings at 100 µs spacing; the link is down for [250 µs, 450 µs):
        // pings sent at 300 and 400 µs blackhole, the rest echo back.
        let mut net = Network::new(1);
        let p = net.add_node(pinger(10, SimTime::from_micros(100)));
        let e = net.add_node(Echo {
            delay: SimTime::ZERO,
            seen: 0,
        });
        net.connect(p, PortId(0), e, PortId(0), LinkSpec::gigabit());
        let plan = crate::FaultPlan::new().link_flap(
            SimTime::from_micros(250),
            SimTime::from_micros(200),
            p,
            PortId(0),
        );
        net.apply_faults(&plan);
        net.run_until_idle();
        assert_eq!(net.node_ref::<Pinger>(p).arrivals.len(), 8);
        assert_eq!(net.node_ref::<Echo>(e).seen, 8);
        assert_eq!(net.blackholed_frames(), 2);
        // Service resumed: pings from 500 µs onward arrived.
        let last = *net.node_ref::<Pinger>(p).arrivals.last().unwrap();
        assert!(last > SimTime::from_micros(900));
    }

    #[test]
    fn in_flight_frame_blackholes_on_arrival() {
        // A slow link (1 ms propagation): the frame sent at t=0 is still
        // in flight when the link drops at 500 µs, so it must be counted
        // as blackholed, not delivered.
        let mut net = Network::new(1);
        let p = net.add_node(pinger(1, SimTime::from_micros(10)));
        let e = net.add_node(Echo {
            delay: SimTime::ZERO,
            seen: 0,
        });
        net.connect(
            p,
            PortId(0),
            e,
            PortId(0),
            LinkSpec::gigabit().with_delay(SimTime::from_millis(1)),
        );
        net.schedule_link_down(SimTime::from_micros(500), p, PortId(0));
        net.run_until_idle();
        assert_eq!(net.node_ref::<Echo>(e).seen, 0);
        assert_eq!(net.blackholed_frames(), 1);
    }

    #[test]
    fn disconnect_blackholes_and_frees_ports_for_reattach() {
        let mut net = Network::new(1);
        let p = net.add_node(pinger(3, SimTime::from_micros(10)));
        let e = net.add_node(Echo {
            delay: SimTime::ZERO,
            seen: 0,
        });
        let e2 = net.add_node(Echo {
            delay: SimTime::ZERO,
            seen: 0,
        });
        net.connect(p, PortId(0), e, PortId(0), LinkSpec::gigabit());
        net.run_until(SimTime::from_micros(15)); // pings 1 and 2 echoed
        let peer = net.disconnect(p, PortId(0)).expect("link existed");
        assert_eq!(peer, (e, PortId(0)));
        net.run_until(SimTime::from_micros(40)); // 3rd ping blackholes
        assert_eq!(net.blackholed_frames(), 1);
        // Re-attach the pinger's port 0 to a different echo node.
        net.connect(p, PortId(0), e2, PortId(0), LinkSpec::gigabit());
        net.with_node_ctx::<Pinger, _>(p, |n, ctx| {
            n.count += 1; // one more ping through the new link
            ctx.schedule(SimTime::ZERO, 0);
        });
        net.run_until_idle();
        assert_eq!(net.node_ref::<Echo>(e2).seen, 1);
        assert_eq!(net.node_ref::<Echo>(e).seen, 2);
    }

    #[test]
    fn scheduled_reset_fires_the_hook() {
        struct Resettable {
            resets: u32,
            at: Vec<SimTime>,
        }
        impl Node for Resettable {
            fn on_packet(&mut self, _p: PortId, _f: Bytes, _c: &mut NodeCtx) {}
            fn on_reset(&mut self, ctx: &mut NodeCtx) {
                self.resets += 1;
                self.at.push(ctx.now());
            }
            fn as_any(&self) -> &dyn Any {
                self
            }
            fn as_any_mut(&mut self) -> &mut dyn Any {
                self
            }
        }
        let mut net = Network::new(1);
        let r = net.add_node(Resettable {
            resets: 0,
            at: Vec::new(),
        });
        let plan = crate::FaultPlan::new()
            .reset(SimTime::from_millis(1), r)
            .reset(SimTime::from_millis(3), r);
        net.apply_faults(&plan);
        net.run_until_idle();
        let n = net.node_ref::<Resettable>(r);
        assert_eq!(n.resets, 2);
        assert_eq!(n.at, vec![SimTime::from_millis(1), SimTime::from_millis(3)]);
    }

    /// Two pinger/echo pairs with a link flap on each and a node reset.
    fn faulted_scenario() -> (Vec<SimTime>, Vec<SimTime>, u64, u64) {
        let mut net = Network::new(9);
        let p0 = net.add_node(pinger(6, SimTime::from_micros(3)));
        let e0 = net.add_node(Echo {
            delay: SimTime::from_micros(1),
            seen: 0,
        });
        let p1 = net.add_node(pinger(6, SimTime::from_micros(5)));
        let e1 = net.add_node(Echo {
            delay: SimTime::from_micros(2),
            seen: 0,
        });
        net.connect(p0, PortId(0), e0, PortId(0), LinkSpec::gigabit());
        net.connect(p1, PortId(0), e1, PortId(0), LinkSpec::gigabit());
        let plan = crate::FaultPlan::new()
            .link_flap(
                SimTime::from_micros(8),
                SimTime::from_micros(9),
                p1,
                PortId(0),
            )
            .link_flap(
                SimTime::from_micros(4),
                SimTime::from_micros(3),
                p0,
                PortId(0),
            )
            .reset(SimTime::from_micros(12), e0);
        net.apply_faults(&plan);
        net.run_until(SimTime::from_millis(5));
        let a0 = net.node_ref::<Pinger>(p0).arrivals.clone();
        let a1 = net.node_ref::<Pinger>(p1).arrivals.clone();
        (a0, a1, net.events_processed(), net.blackholed_frames())
    }

    #[test]
    fn fault_schedule_is_deterministic() {
        let base = faulted_scenario();
        assert!(base.3 > 0, "the schedule actually blackholed something");
        assert_eq!(faulted_scenario(), base);
    }

    /// A node that sends one ctrl message to `to` every `interval` and
    /// counts what it receives back.
    struct CtrlChatter {
        to: NodeId,
        interval: SimTime,
        remaining: u32,
        received: Vec<(NodeId, SimTime)>,
    }
    impl Node for CtrlChatter {
        fn on_start(&mut self, ctx: &mut NodeCtx) {
            ctx.schedule(SimTime::ZERO, 0);
        }
        fn on_timer(&mut self, _t: u64, ctx: &mut NodeCtx) {
            if self.remaining > 0 {
                self.remaining -= 1;
                ctx.ctrl_send(self.to, Bytes::from_static(b"m"));
                ctx.schedule(self.interval, 0);
            }
        }
        fn on_ctrl(&mut self, from: NodeId, _d: Bytes, ctx: &mut NodeCtx) {
            self.received.push((from, ctx.now()));
        }
        fn on_packet(&mut self, _p: PortId, _f: Bytes, _c: &mut NodeCtx) {}
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    fn chatter(to: NodeId, interval: SimTime, n: u32) -> CtrlChatter {
        CtrlChatter {
            to,
            interval,
            remaining: n,
            received: Vec::new(),
        }
    }

    #[test]
    fn ctrl_partition_drops_messages_both_ways_until_healed() {
        let mut net = Network::new(3);
        let sink = NodeId(0); // self-reference placeholder, fixed below
        let a = net.add_node(chatter(sink, SimTime::from_micros(100), 10));
        let b = net.add_node(chatter(a, SimTime::from_micros(100), 10));
        net.node_mut::<CtrlChatter>(a).to = b;
        // Partition b for [250 µs, 650 µs): sends at 300/400/500/600 µs
        // in both directions die at the sender (b is an endpoint of
        // both channels), and a's 200 µs send — in flight when the
        // partition starts — dies on delivery at 250 µs.
        let plan = crate::FaultPlan::new().ctrl_partition(
            SimTime::from_micros(250),
            SimTime::from_micros(400),
            b,
        );
        net.apply_faults(&plan);
        net.run_until_idle();
        assert_eq!(net.node_ref::<CtrlChatter>(a).received.len(), 6);
        assert_eq!(net.node_ref::<CtrlChatter>(b).received.len(), 5);
        let st = net.ctrl_stats();
        assert_eq!(st.dropped, 9);
        assert_eq!(st.duplicated + st.reordered, 0);
        // Per-channel view: 4 send-side + 1 in-flight toward b, 4 back.
        assert_eq!(net.ctrl_channel_stats(a, b).dropped, 5);
        assert_eq!(net.ctrl_channel_stats(b, a).dropped, 4);
    }

    #[test]
    fn ctrl_down_facade_blocks_in_flight_delivery() {
        let mut net = Network::new(3);
        let r = net.add_node(chatter(NodeId(0), SimTime::from_micros(1), 0));
        let s = net.add_node(chatter(r, SimTime::from_micros(100), 1));
        net.run_until(SimTime::from_micros(20)); // message in flight (50 µs delay)
        assert!(!net.ctrl_is_down(r));
        net.ctrl_down(r);
        assert!(net.ctrl_is_down(r));
        net.run_until_idle();
        // The in-flight message was discarded on delivery.
        assert!(net.node_ref::<CtrlChatter>(r).received.is_empty());
        assert_eq!(net.ctrl_channel_stats(s, r).dropped, 1);
        net.ctrl_up(r);
        assert!(!net.ctrl_is_down(r));
        net.with_node_ctx::<CtrlChatter, _>(s, |n, ctx| {
            n.remaining = 1;
            ctx.schedule(SimTime::ZERO, 0);
        });
        net.run_until_idle();
        assert_eq!(net.node_ref::<CtrlChatter>(r).received.len(), 1);
    }

    #[test]
    fn lossy_profile_drops_dups_and_reorders() {
        let mut net = Network::new(11);
        let r = net.add_node(chatter(NodeId(0), SimTime::from_micros(1), 0));
        let s = net.add_node(chatter(r, SimTime::from_micros(10), 400));
        net.set_ctrl_profile(
            CtrlProfile::lossy(0.25)
                .with_dup(0.10)
                .with_reorder(0.20, SimTime::from_micros(30)),
        );
        net.run_until_idle();
        let st = net.ctrl_channel_stats(s, r);
        assert_eq!(st.sent, 400);
        assert!(
            st.dropped > 50 && st.dropped < 150,
            "dropped={}",
            st.dropped
        );
        assert!(st.duplicated > 10, "duplicated={}", st.duplicated);
        assert!(st.reordered > 30, "reordered={}", st.reordered);
        let got = net.node_ref::<CtrlChatter>(r).received.len() as u64;
        assert_eq!(got, st.sent - st.dropped + st.duplicated);
        // Reorder jitter produced at least one pair of out-of-order
        // arrivals relative to send order (arrival times not monotone
        // would be invisible here since the vec is in arrival order —
        // instead check some message took more than the base delay).
        let late = net
            .node_ref::<CtrlChatter>(r)
            .received
            .iter()
            .filter(|(_, t)| {
                !(t.as_nanos() - SimTime::from_micros(50).as_nanos()).is_multiple_of(10 * 1000)
            })
            .count();
        assert!(late > 0, "some arrivals carry reorder jitter");
    }

    #[test]
    fn extra_delay_shifts_every_ctrl_message() {
        let mut net = Network::new(1);
        let r = net.add_node(chatter(NodeId(0), SimTime::from_micros(1), 0));
        let s = net.add_node(chatter(r, SimTime::from_micros(100), 2));
        net.node_mut::<CtrlChatter>(r).to = s;
        net.set_ctrl_profile(CtrlProfile::lossless().with_extra_delay(SimTime::from_micros(75)));
        net.run_until_idle();
        let got = &net.node_ref::<CtrlChatter>(r).received;
        // Base 50 µs + 75 µs extra = 125 µs after each 100 µs-spaced send.
        assert_eq!(
            got.iter().map(|(_, t)| *t).collect::<Vec<_>>(),
            vec![SimTime::from_micros(125), SimTime::from_micros(225)]
        );
    }

    /// Ctrl chatter under a lossy profile plus a scheduled partition.
    fn lossy_ctrl_scenario() -> (Vec<(NodeId, SimTime)>, u64, u64) {
        let mut net = Network::new(77);
        let r = net.add_node(chatter(NodeId(0), SimTime::from_micros(1), 0));
        net.add_node(chatter(r, SimTime::from_micros(7), 200));
        let s2 = net.add_node(chatter(r, SimTime::from_micros(11), 200));
        net.set_ctrl_profile(
            CtrlProfile::lossy(0.15)
                .with_dup(0.05)
                .with_reorder(0.25, SimTime::from_micros(40)),
        );
        let plan = crate::FaultPlan::new().ctrl_partition(
            SimTime::from_micros(300),
            SimTime::from_micros(200),
            s2,
        );
        net.apply_faults(&plan);
        net.run_until(SimTime::from_millis(10));
        let got = net.node_ref::<CtrlChatter>(r).received.clone();
        let st = net.ctrl_stats();
        (got, st.dropped, net.events_processed())
    }

    #[test]
    fn lossy_ctrl_is_deterministic() {
        let base = lossy_ctrl_scenario();
        assert!(base.1 > 0, "the profile actually dropped something");
        assert_eq!(lossy_ctrl_scenario(), base);
    }
}
