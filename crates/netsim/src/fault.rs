//! Scheduled fault injection: link flaps, node reboots, control-plane
//! partitions and lossy control channels.
//!
//! A [`FaultPlan`] is a declarative schedule of faults built before (or
//! between) `run_*` calls and armed with
//! [`crate::Network::apply_faults`]. Each entry becomes an ordinary
//! event in the network's queue, ordered with frames and timers by
//! `(time, sequence-number)`, so a faulted run is deterministic.
//!
//! Semantics:
//!
//! * **Link down** — both directions of the duplex link go down at the
//!   same instant. Frames queued on either direction are blackholed,
//!   frames transmitted into a downed direction are blackholed, and
//!   frames already in flight are blackholed *on arrival* (delivery
//!   checks the receiving port's link state). A frame transmitted
//!   before the fault whose arrival postdates the matching link-up
//!   survives — the flap was shorter than its remaining flight time.
//! * **Link up** — both directions come back; queued traffic resumes.
//! * **Reset** — the node's [`crate::Node::on_reset`] hook fires: the
//!   device drops whatever a real power cycle would lose.
//! * **Ctrl down / up** — the named node is partitioned from the
//!   out-of-band control plane: control messages from or to it are
//!   discarded at send time (and on delivery, for messages already in
//!   flight when the partition begins).
//!
//! Beyond scheduled faults, a stochastic [`CtrlProfile`] (armed with
//! [`crate::Network::set_ctrl_profile`]) impairs every control message
//! with probabilistic drop, duplication, bounded reorder jitter and
//! fixed extra delay. Decisions are drawn from the network's RNG
//! stream at send time — the point where the message order is already
//! fixed — and extra latency is always added on top of the base control
//! delay.
//!
//! Blackholed frames are counted (per direction in
//! [`crate::LinkStats::blackholed_frames`], in-flight losses by the
//! network) and totalled by [`crate::Network::blackholed_frames`];
//! control-message impairments are counted per channel in
//! [`crate::stats::CtrlStats`] and totalled by
//! [`crate::Network::ctrl_stats`].

use crate::net::NodeId;
use crate::node::PortId;
use crate::time::SimTime;

/// One fault. Link faults name either end of the link — `(node, port)`
/// identifies the duplex pair, and both directions are affected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Take the link attached to `(node, port)` down (both directions).
    LinkDown {
        /// Either endpoint of the link.
        node: NodeId,
        /// The endpoint's port.
        port: PortId,
    },
    /// Bring the link attached to `(node, port)` back up.
    LinkUp {
        /// Either endpoint of the link.
        node: NodeId,
        /// The endpoint's port.
        port: PortId,
    },
    /// Power-cycle `node`: its [`crate::Node::on_reset`] hook fires.
    Reset {
        /// The node to reboot.
        node: NodeId,
    },
    /// Partition `node` from the out-of-band control plane: control
    /// messages from or to it are discarded until a matching
    /// [`Fault::CtrlUp`].
    CtrlDown {
        /// The node to partition.
        node: NodeId,
    },
    /// Heal the control-plane partition of `node`.
    CtrlUp {
        /// The node to reconnect.
        node: NodeId,
    },
}

/// A stochastic impairment profile for the out-of-band control channel,
/// armed network-wide with [`crate::Network::set_ctrl_profile`].
///
/// Each control message is (in this order) dropped with probability
/// `drop`; duplicated with probability `dup` (the copy arrives at the
/// same instant, ordered after the original); and jittered with
/// probability `reorder` by a uniform extra delay in
/// `(0, reorder_bound]`, which lets it overtake or fall behind
/// neighbouring sends — a *bounded* reorder. `extra_delay` is added to
/// every message unconditionally. All randomness comes from the
/// network's RNG stream; a no-op profile (the default) draws nothing
/// and leaves the stream untouched.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CtrlProfile {
    /// Probability each message is discarded.
    pub drop: f64,
    /// Probability each message is delivered twice.
    pub dup: f64,
    /// Probability each message receives reorder jitter.
    pub reorder: f64,
    /// Upper bound of the reorder jitter (uniform in `(0, bound]`).
    pub reorder_bound: SimTime,
    /// Fixed extra delay added to every message.
    pub extra_delay: SimTime,
}

impl Default for CtrlProfile {
    fn default() -> Self {
        CtrlProfile {
            drop: 0.0,
            dup: 0.0,
            reorder: 0.0,
            reorder_bound: SimTime::ZERO,
            extra_delay: SimTime::ZERO,
        }
    }
}

impl CtrlProfile {
    /// The transparent profile: no impairment, no RNG draws.
    pub fn lossless() -> CtrlProfile {
        CtrlProfile::default()
    }

    /// A profile that drops each message with probability `drop`.
    pub fn lossy(drop: f64) -> CtrlProfile {
        CtrlProfile {
            drop,
            ..CtrlProfile::default()
        }
    }

    /// Set the duplication probability.
    pub fn with_dup(mut self, dup: f64) -> Self {
        self.dup = dup;
        self
    }

    /// Set the reorder probability and jitter bound.
    pub fn with_reorder(mut self, reorder: f64, bound: SimTime) -> Self {
        self.reorder = reorder;
        self.reorder_bound = bound;
        self
    }

    /// Set the fixed extra delay added to every message.
    pub fn with_extra_delay(mut self, extra: SimTime) -> Self {
        self.extra_delay = extra;
        self
    }

    /// True when the profile impairs nothing (the fast path: no RNG
    /// draws, no per-message accounting).
    pub fn is_noop(&self) -> bool {
        self.drop == 0.0
            && self.dup == 0.0
            && self.reorder == 0.0
            && self.extra_delay == SimTime::ZERO
    }
}

/// A deterministic schedule of [`Fault`]s.
///
/// Build with the chained constructors, then arm it with
/// [`crate::Network::apply_faults`]. Entries at the same instant fire
/// in insertion order.
///
/// ```
/// use netsim::{FaultPlan, NodeId, PortId, SimTime};
/// let plan = FaultPlan::new()
///     .link_flap(
///         SimTime::from_millis(10),
///         SimTime::from_millis(5),
///         NodeId(3),
///         PortId(1),
///     )
///     .reset(SimTime::from_millis(30), NodeId(7));
/// assert_eq!(plan.len(), 3);
/// ```
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    entries: Vec<(SimTime, Fault)>,
}

impl FaultPlan {
    /// An empty plan.
    pub fn new() -> FaultPlan {
        FaultPlan::default()
    }

    /// Schedule a raw [`Fault`] at `at`.
    pub fn push(mut self, at: SimTime, fault: Fault) -> Self {
        self.entries.push((at, fault));
        self
    }

    /// Take the link at `(node, port)` down at `at`.
    pub fn link_down(self, at: SimTime, node: NodeId, port: PortId) -> Self {
        self.push(at, Fault::LinkDown { node, port })
    }

    /// Bring the link at `(node, port)` up at `at`.
    pub fn link_up(self, at: SimTime, node: NodeId, port: PortId) -> Self {
        self.push(at, Fault::LinkUp { node, port })
    }

    /// Flap the link at `(node, port)`: down at `at`, up again
    /// `duration` later.
    pub fn link_flap(self, at: SimTime, duration: SimTime, node: NodeId, port: PortId) -> Self {
        self.link_down(at, node, port)
            .link_up(at + duration, node, port)
    }

    /// Power-cycle `node` at `at`.
    pub fn reset(self, at: SimTime, node: NodeId) -> Self {
        self.push(at, Fault::Reset { node })
    }

    /// Partition `node` from the control plane at `at`.
    pub fn ctrl_down(self, at: SimTime, node: NodeId) -> Self {
        self.push(at, Fault::CtrlDown { node })
    }

    /// Heal the control-plane partition of `node` at `at`.
    pub fn ctrl_up(self, at: SimTime, node: NodeId) -> Self {
        self.push(at, Fault::CtrlUp { node })
    }

    /// Partition `node` from the control plane for `duration` starting
    /// at `at`.
    pub fn ctrl_partition(self, at: SimTime, duration: SimTime, node: NodeId) -> Self {
        self.ctrl_down(at, node).ctrl_up(at + duration, node)
    }

    /// Crash `node` at `at` with no recovery: it loses all state
    /// ([`crate::Node::on_reset`]) and stays partitioned from the
    /// control plane forever.
    pub fn crash(self, at: SimTime, node: NodeId) -> Self {
        self.ctrl_down(at, node).reset(at, node)
    }

    /// Crash `node` at `at` and bring it back `outage` later: state is
    /// lost at the crash instant and the control plane reconnects at
    /// `at + outage` — the node restarts blank and must be resynced by
    /// its peers.
    pub fn crash_restart(self, at: SimTime, outage: SimTime, node: NodeId) -> Self {
        self.crash(at, node).ctrl_up(at + outage, node)
    }

    /// The scheduled entries in time order (ties keep insertion order).
    pub fn entries(&self) -> Vec<(SimTime, Fault)> {
        let mut v = self.entries.clone();
        v.sort_by_key(|(at, _)| *at); // stable: same-instant entries keep order
        v
    }

    /// Number of scheduled faults.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing is scheduled.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn entries_sort_by_time_keeping_insertion_order_on_ties() {
        let t = SimTime::from_millis(1);
        let plan = FaultPlan::new()
            .reset(SimTime::from_millis(2), NodeId(1))
            .link_down(t, NodeId(0), PortId(0))
            .link_up(t, NodeId(0), PortId(0));
        let e = plan.entries();
        assert_eq!(e.len(), 3);
        assert!(matches!(e[0].1, Fault::LinkDown { .. }));
        assert!(matches!(e[1].1, Fault::LinkUp { .. }));
        assert!(matches!(e[2].1, Fault::Reset { .. }));
    }

    #[test]
    fn crash_restart_expands_to_down_reset_up() {
        let plan = FaultPlan::new().crash_restart(
            SimTime::from_millis(10),
            SimTime::from_millis(4),
            NodeId(2),
        );
        let e = plan.entries();
        assert_eq!(e.len(), 3);
        assert!(matches!(e[0].1, Fault::CtrlDown { node: NodeId(2) }));
        assert!(matches!(e[1].1, Fault::Reset { node: NodeId(2) }));
        assert_eq!(
            e[2],
            (SimTime::from_millis(14), Fault::CtrlUp { node: NodeId(2) })
        );
    }

    #[test]
    fn noop_profile_detection() {
        assert!(CtrlProfile::lossless().is_noop());
        assert!(!CtrlProfile::lossy(0.1).is_noop());
        assert!(!CtrlProfile::lossless()
            .with_extra_delay(SimTime::from_micros(1))
            .is_noop());
        assert!(!CtrlProfile::lossless()
            .with_reorder(0.5, SimTime::from_micros(10))
            .is_noop());
    }

    #[test]
    fn flap_expands_to_down_then_up() {
        let plan = FaultPlan::new().link_flap(
            SimTime::from_millis(3),
            SimTime::from_millis(2),
            NodeId(4),
            PortId(2),
        );
        let e = plan.entries();
        assert_eq!(e[0].0, SimTime::from_millis(3));
        assert_eq!(e[1].0, SimTime::from_millis(5));
    }
}
