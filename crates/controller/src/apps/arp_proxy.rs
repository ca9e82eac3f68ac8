//! Per-pod ARP proxy with proactive host routes — flood containment for
//! hybrid-SDN fabrics.
//!
//! In a multi-pod fabric every round of fresh traffic starts with ARP:
//! each host broadcasts a who-has, the pod's edge datapath punts it,
//! and a reactive learning controller floods it fabric-wide — every
//! datapath punts the same broadcast again, and the round-1 control
//! load grows as O(hosts²). This is the classic packet-in bottleneck of
//! keeping legacy L2 flooding alive during an SDN migration (HARMLESS
//! §5; the hybrid-SDN surveys make the same point).
//!
//! The fix is that the controller already *knows* every host: the
//! fabric layer registers each attached host's `(IP, MAC)` identity and
//! its location — which port of which datapath leads to it
//! ([`HostRoute`]). With that table this app:
//!
//! * **answers ARP requests at the pod edge**: a punted who-has for a
//!   known host is answered with a forged unicast reply out of the
//!   ingress port and **consumed** ([`PacketInVerdict::Consumed`]), so
//!   no app behind it floods the broadcast — the request never leaves
//!   the pod, turning round-1 broadcast cost into O(hosts) packet-ins
//!   (one per requesting host);
//! * **installs proactive routes**: when a datapath completes its
//!   handshake (and on every tick, for hosts registered later), a
//!   `eth_dst → output` rule per known host is installed, so the
//!   unicast traffic that follows the ARP exchange never punts at all —
//!   without these, suppressing the ARP flood would just move the
//!   flooding to the first data frame, since nothing would have
//!   learned remote MACs;
//! * **installs reflection guards** where the fabric asks for them
//!   (legacy-spine interconnects): a flood copy arriving *from* the
//!   fabric at a pod that does not host the destination would match the
//!   uplink route and reflect back out of its ingress port; the guard
//!   drops it instead;
//! * **retracts stale routes**: when a host is re-registered (a pod
//!   move) or removed from the host table, the rules installed for the
//!   superseded entry are deleted from every datapath they reached —
//!   proactive routes that outlive the host they point at silently
//!   blackhole its traffic at the old location.
//!
//! Installs and retractions go through the shared [`crate::desired`]
//! engine: each [`HostRoute`] is one rule group keyed by IP.
//!
//! Chain this app *before* a [`crate::apps::LearningSwitch`]: the proxy
//! consumes what it can answer, the learning switch handles any MAC the
//! host table does not know (and is free to flood it, as before).
//!
//! The app is fabric-agnostic: it only sees `(dpid, port)` pairs. The
//! `harmless` crate's `Fabric::host_route` computes them from the
//! topology, and `FabricSpec`'s `arp_proxy` flag wires the whole thing
//! up.

use std::any::Any;
use std::net::Ipv4Addr;

use netpkt::{builder, MacAddr};
use openflow::message::FlowMod;
use openflow::{Action, Match};

use crate::desired::{RuleGroup, Shared, Syncer};
use crate::node::{App, PacketInEvent, PacketInVerdict, SwitchHandle};

/// Priority of the proactive `eth_dst → output` host routes — above the
/// learning switch's reactive rules (10), below the guards.
pub const ROUTE_PRIORITY: u16 = 20;
/// Priority of the reflection-guard drop rules.
pub const GUARD_PRIORITY: u16 = 30;

/// One host's fabric-wide identity and location: how to answer ARP for
/// it, and which port of each datapath leads to it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HostRoute {
    /// The host's IPv4 address (the ARP table key).
    pub ip: Ipv4Addr,
    /// The host's MAC address (the ARP answer, and the route match).
    pub mac: MacAddr,
    /// `(dpid, out_port)`: the proactive route installed on each
    /// datapath that carries traffic toward this host.
    pub ports: Vec<(u64, u32)>,
    /// `(dpid, in_port)`: drop frames for this host that arrive on
    /// `in_port` of `dpid` (reflection guards for flooding
    /// interconnects; empty for spine datapaths the controller owns).
    pub guards: Vec<(u64, u32)>,
}

/// A host is one desired-state group, keyed by IP: its guards and its
/// route on every datapath it names.
impl RuleGroup for HostRoute {
    type Key = Ipv4Addr;

    /// The host table is fabric-wide: every datapath acknowledges each
    /// registration with a barrier, whether or not it got a rule.
    const FENCE_LOG_GROWTH: bool = true;

    fn key(&self) -> Ipv4Addr {
        self.ip
    }

    fn touches(&self, dpid: u64) -> bool {
        self.ports
            .iter()
            .chain(self.guards.iter())
            .any(|&(d, _)| d == dpid)
    }

    fn install(&self, sw: &mut SwitchHandle) {
        let dpid = sw.dpid;
        for &(_, in_port) in self.guards.iter().filter(|&&(d, _)| d == dpid) {
            sw.flow_mod(
                FlowMod::add(0)
                    .priority(GUARD_PRIORITY)
                    .match_(Match::new().in_port(in_port).eth_dst(self.mac))
                    .apply(vec![]), // match with no actions = drop
            );
        }
        for &(_, out) in self.ports.iter().filter(|&&(d, _)| d == dpid) {
            sw.flow_mod(
                FlowMod::add(0)
                    .priority(ROUTE_PRIORITY)
                    .match_(Match::new().eth_dst(self.mac))
                    .apply(vec![Action::output(out)]),
            );
        }
    }

    /// One non-strict `eth_dst` delete sweeps the route, the guards and
    /// any stale reactive rules for the MAC, while matching nothing the
    /// table-miss entry covers.
    fn retract(&self, sw: &mut SwitchHandle) {
        sw.flow_mod(FlowMod::delete(0).match_(Match::new().eth_dst(self.mac)));
    }
}

/// The ARP-proxy / proactive-routing app. See the module docs.
#[derive(Default)]
pub struct ArpProxy {
    hosts: Syncer<HostRoute>,
    answered: u64,
}

impl ArpProxy {
    /// An empty proxy. Upsert into [`Self::hosts`] to register or move a
    /// host, remove its IP to drop it (the fabric does this when
    /// `FabricSpec::arp_proxy` is set). Routes reach connected datapaths
    /// on the next controller tick (1 s) or handshake.
    pub fn new() -> ArpProxy {
        Self::default()
    }

    /// The host table this proxy answers from and installs routes for.
    pub fn hosts(&self) -> &Shared<HostRoute> {
        self.hosts.store()
    }

    /// Serve `hosts` instead of this proxy's own table — a standby
    /// controller adopting the primary's.
    pub fn share_hosts(&mut self, hosts: Shared<HostRoute>) {
        self.hosts.share(hosts);
    }

    /// ARP requests answered (and consumed) at the pod edge.
    pub fn answered(&self) -> u64 {
        self.answered
    }

    /// The registered MAC for an IP, if any.
    pub fn lookup(&self, ip: Ipv4Addr) -> Option<MacAddr> {
        self.hosts.store().borrow().get(ip).map(|h| h.mac)
    }
}

impl App for ArpProxy {
    fn name(&self) -> &str {
        "arp-proxy"
    }

    fn on_switch_ready(&mut self, sw: &mut SwitchHandle) {
        // Table-miss punt, so ARP broadcasts (which no dst-MAC route
        // matches) reach the proxy. Idempotent with the learning
        // switch's identical entry.
        sw.flow_mod(
            FlowMod::add(0)
                .priority(0)
                .apply(vec![Action::to_controller()]),
        );
        self.hosts.handshake(sw);
    }

    fn on_tick(&mut self, sw: &mut SwitchHandle) {
        // Hosts registered (or retired) after a datapath's handshake
        // catch up here.
        self.hosts.sync(sw);
    }

    fn on_packet_in(&mut self, sw: &mut SwitchHandle, ev: &PacketInEvent) -> PacketInVerdict {
        let Some(repr) = ev.arp_request() else {
            return PacketInVerdict::Continue;
        };
        let Some(mac) = self.lookup(repr.target_ip) else {
            return PacketInVerdict::Continue;
        };
        // Answer from the host table with the target's real MAC, out of
        // the port the request came in on — the broadcast itself goes no
        // further than this datapath.
        self.answered += 1;
        sw.packet_out(ev.in_port, builder::arp_reply(&repr, mac));
        PacketInVerdict::Consumed
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::node::{flow_mods, sent};
    use openflow::FlowModCommand;

    pub(crate) fn route(ip: [u8; 4], mac: u32) -> HostRoute {
        HostRoute {
            ip: Ipv4Addr::from(ip),
            mac: MacAddr::host(mac),
            ports: vec![(0x52, 1)],
            guards: Vec::new(),
        }
    }

    #[test]
    fn add_host_replaces_existing_ips() {
        let p = ArpProxy::new();
        p.hosts().borrow_mut().upsert(route([10, 0, 0, 1], 1));
        p.hosts().borrow_mut().upsert(route([10, 0, 0, 2], 2));
        assert_eq!(p.hosts().borrow().len(), 2);
        assert_eq!(p.lookup(Ipv4Addr::new(10, 0, 0, 1)), Some(MacAddr::host(1)));
        // Re-registering the same IP with a new MAC replaces the entry.
        p.hosts().borrow_mut().upsert(route([10, 0, 0, 1], 7));
        assert_eq!(p.hosts().borrow().len(), 2);
        assert_eq!(p.lookup(Ipv4Addr::new(10, 0, 0, 1)), Some(MacAddr::host(7)));
        assert_eq!(p.lookup(Ipv4Addr::new(10, 0, 0, 9)), None);
    }

    #[test]
    fn remove_host_retracts_and_stops_answering() {
        let mut p = ArpProxy::new();
        p.hosts().borrow_mut().upsert(route([10, 0, 0, 1], 1));
        sent(0x52, |sw| p.on_tick(sw));
        let ip = Ipv4Addr::new(10, 0, 0, 1);
        assert!(p.hosts().borrow_mut().remove(ip));
        assert!(!p.hosts().borrow_mut().remove(ip), "already gone");
        assert_eq!(p.lookup(ip), None);
        assert_eq!(p.hosts().borrow().len(), 0);
        let mods = flow_mods(&sent(0x52, |sw| p.on_tick(sw)));
        assert_eq!(mods.len(), 1);
        assert_eq!(mods[0].command, FlowModCommand::Delete);
    }
}
