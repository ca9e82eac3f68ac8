//! The desired-state sync engine shared by the proactive apps.
//!
//! [`crate::apps::ArpProxy`] and [`crate::apps::Router`] do not push
//! rules themselves. They declare keyed [`RuleGroup`]s in a [`Desired`]
//! store, and one engine brings every datapath up to date with it:
//!
//! * the store keeps an append-only **live log** (a replaced or removed
//!   group leaves a tombstone) and a **retired log** of groups whose
//!   rules must come off again;
//! * each controller keeps its own per-datapath **cursors** into both
//!   logs ([`Syncer`]), so a sync with nothing pending costs O(1);
//! * a sync retracts first, then installs, then sends one barrier, so a
//!   moved group's old rules are gone before the new ones land;
//! * a handshake means empty tables: it rewinds the install cursor and
//!   fast-forwards the retract cursor (no deletes into a fresh table).
//!
//! The store sits behind an `Rc<RefCell<_>>` ([`Shared`]): the fabric
//! writes it, and a warm-standby controller adopts the primary's handle
//! ([`Syncer::share`]) instead of being fed a second copy. It holds
//! groups, not flow-mods; a group renders its rules for one datapath
//! when a sync needs them.

use std::cell::RefCell;
use std::collections::HashMap;
use std::hash::Hash;
use std::rc::Rc;

use crate::node::SwitchHandle;

/// A keyed unit of desired state: the rules one key (a host, a
/// datapath's routing personality) owns across the fabric.
pub trait RuleGroup: PartialEq {
    /// Identity of the group; upserting a group with the same key
    /// replaces the old one.
    type Key: Copy + Eq + Hash;

    /// Whether every datapath fences a sync with a barrier whenever the
    /// live log grew since its last sync, even if none of the new
    /// groups touches it (a store whose every change concerns the whole
    /// fabric). By default a sync fences only what it sent.
    const FENCE_LOG_GROWTH: bool = false;

    /// The group's key.
    fn key(&self) -> Self::Key;

    /// Whether the group owns rules on `dpid`.
    fn touches(&self, dpid: u64) -> bool;

    /// Send the flow-mods that install the group's rules on `sw`.
    fn install(&self, sw: &mut SwitchHandle);

    /// Send the flow-mods that delete the group's rules from `sw`.
    fn retract(&self, sw: &mut SwitchHandle);
}

/// The desired state of one app: live groups by key, plus the groups
/// retired since. See the module docs.
pub struct Desired<G: RuleGroup> {
    /// Append-only; `None` marks a replaced or removed group.
    live: Vec<Option<G>>,
    /// Key → index of its entry in `live`.
    index: HashMap<G::Key, usize>,
    /// Replaced and removed groups, in retirement order.
    retired: Vec<G>,
}

/// A [`Desired`] store shared by the fabric and every controller that
/// serves it.
pub type Shared<G> = Rc<RefCell<Desired<G>>>;

impl<G: RuleGroup> Default for Desired<G> {
    fn default() -> Self {
        Desired {
            live: Vec::new(),
            index: HashMap::new(),
            retired: Vec::new(),
        }
    }
}

impl<G: RuleGroup> Desired<G> {
    /// Insert `group`, replacing the live group with the same key. An
    /// identical group is a no-op; a different one retires the old
    /// group, so the next sync retracts its rules before installing the
    /// new ones.
    pub fn upsert(&mut self, group: G) {
        let key = group.key();
        if let Some(&i) = self.index.get(&key) {
            if self.live[i].as_ref() == Some(&group) {
                return;
            }
            self.retired.extend(self.live[i].take());
        }
        self.index.insert(key, self.live.len());
        self.live.push(Some(group));
    }

    /// Remove `key`'s group; its rules are retracted on the next sync.
    /// Returns true if the key was live.
    pub fn remove(&mut self, key: G::Key) -> bool {
        let Some(i) = self.index.remove(&key) else {
            return false;
        };
        self.retired.extend(self.live[i].take());
        true
    }

    /// The live group for `key`, if any.
    pub fn get(&self, key: G::Key) -> Option<&G> {
        self.index.get(&key).and_then(|&i| self.live[i].as_ref())
    }

    /// Number of live groups.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.index.len()
    }
}

/// One controller's sync state over a [`Shared`] store: per-datapath
/// cursors into the live and retired logs.
pub struct Syncer<G: RuleGroup> {
    store: Shared<G>,
    /// dpid → (live entries installed, retired entries retracted).
    cursors: HashMap<u64, (usize, usize)>,
}

impl<G: RuleGroup> Default for Syncer<G> {
    fn default() -> Self {
        Syncer {
            store: Rc::default(),
            cursors: HashMap::new(),
        }
    }
}

impl<G: RuleGroup> Syncer<G> {
    /// The store this syncer serves (a fresh, empty one to begin with).
    pub fn store(&self) -> &Shared<G> {
        &self.store
    }

    /// Serve `store` from now on (a standby adopting the primary's
    /// desired state). Cursors into the old store are dropped; datapaths
    /// are brought up to date on their next handshake.
    pub fn share(&mut self, store: Shared<G>) {
        self.store = store;
        self.cursors.clear();
    }

    /// `sw` completed a handshake, so its tables are empty: rewind the
    /// install cursor, fast-forward the retract cursor, and sync.
    pub fn handshake(&mut self, sw: &mut SwitchHandle) {
        let retired = self.store.borrow().retired.len();
        self.cursors.insert(sw.dpid, (0, retired));
        self.sync(sw);
    }

    /// Bring `sw`'s datapath up to date with the store: retract the
    /// groups retired since its last sync, install the groups added
    /// since, then fence with one barrier.
    pub fn sync(&mut self, sw: &mut SwitchHandle) {
        let dpid = sw.dpid;
        let store = self.store.borrow();
        let (installed, retracted) = self.cursors.entry(dpid).or_default();
        let mut fence = false;
        let stale = store.retired[*retracted..].iter();
        for g in stale.filter(|g| g.touches(dpid)) {
            g.retract(sw);
            fence = true;
        }
        *retracted = store.retired.len();
        if *installed < store.live.len() {
            fence |= G::FENCE_LOG_GROWTH;
            let fresh = store.live[*installed..].iter().flatten();
            for g in fresh.filter(|g| g.touches(dpid)) {
                g.install(sw);
                fence = true;
            }
            *installed = store.live.len();
        }
        if fence {
            sw.barrier();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apps::arp_proxy::tests::route;
    use crate::apps::router::tests::pod_config;
    use crate::apps::{ArpProxy, HostRoute, Router, RouterConfig};
    use crate::node::{flow_mods, sent, App};
    use netpkt::{EtherType, MacAddr};
    use openflow::message::{FlowMod, Message};
    use openflow::{FlowModCommand, Match};
    use proptest::prelude::*;
    use softswitch::{Datapath, DpConfig};
    use std::net::Ipv4Addr;

    fn deletes(mods: &[FlowMod]) -> usize {
        let del = |m: &&FlowMod| m.command == FlowModCommand::Delete;
        mods.iter().filter(del).count()
    }

    #[test]
    fn move_deletes_stale_rules_before_installing_new_ones() {
        let mut p = ArpProxy::new();
        let mac = MacAddr::host(1);
        p.hosts().borrow_mut().upsert(HostRoute {
            ip: Ipv4Addr::new(10, 0, 0, 1),
            mac,
            ports: vec![(0x52, 1), (0x53, 9)],
            guards: vec![(0x53, 9)],
        });
        let mods = flow_mods(&sent(0x52, |sw| p.on_tick(sw)));
        assert_eq!(mods.len(), 1);
        let mut retracted = deletes(&mods);
        assert_eq!(retracted, 0);

        // The host moves: same identity, new location.
        p.hosts().borrow_mut().upsert(HostRoute {
            ip: Ipv4Addr::new(10, 0, 0, 1),
            mac,
            ports: vec![(0x53, 2), (0x52, 7)],
            guards: Vec::new(),
        });
        let mods = flow_mods(&sent(0x52, |sw| p.on_tick(sw)));
        retracted += deletes(&mods);
        // Delete of the old rule first, then the add of the new route —
        // the reverse order would delete the fresh rule.
        assert_eq!(mods[0].command, FlowModCommand::Delete);
        assert_eq!(mods[0].match_, Match::new().eth_dst(mac));
        assert_eq!(mods[1].command, FlowModCommand::Add);
        assert_eq!(mods.len(), 2);
        // 0x53 held a route *and* a guard, swept by the one delete.
        let mods = flow_mods(&sent(0x53, |sw| p.on_tick(sw)));
        retracted += deletes(&mods);
        assert_eq!(mods[0].command, FlowModCommand::Delete);
        assert_eq!(mods.len(), 2);
        assert_eq!(retracted, 2);
        // Syncing again is a no-op: both cursors caught up.
        assert!(sent(0x52, |sw| p.on_tick(sw)).is_empty());
    }

    #[test]
    fn rehandshake_reinstalls_routes_and_skips_stale_deletes() {
        let mut p = ArpProxy::new();
        p.hosts().borrow_mut().upsert(route([10, 0, 0, 1], 1));
        p.hosts().borrow_mut().upsert(route([10, 0, 0, 2], 2));
        sent(0x52, |sw| p.on_tick(sw));
        p.hosts().borrow_mut().remove(Ipv4Addr::new(10, 0, 0, 2));
        // The datapath reboots before the tick that would retract: its
        // tables are empty, so the handshake must re-install host 1 and
        // not bother deleting rules that no longer exist.
        let mods = flow_mods(&sent(0x52, |sw| p.on_switch_ready(sw)));
        assert!(
            mods.iter().all(|m| m.command == FlowModCommand::Add),
            "no deletes into a fresh table: {mods:?}"
        );
        // Table-miss + host 1's route; host 2's tombstone installs nothing.
        assert_eq!(mods.len(), 2);
    }

    #[test]
    fn reconfigure_deletes_before_reinstalling() {
        let mut r = Router::new();
        r.configs().borrow_mut().upsert(pod_config());
        sent(0x52, |sw| r.on_tick(sw));
        // New personality: one route fewer.
        let mut c = pod_config();
        c.routes.truncate(2);
        r.configs().borrow_mut().upsert(c);
        let mods = flow_mods(&sent(0x52, |sw| r.on_tick(sw)));
        // Three deletes (shared table by classifier match, own tables
        // wholesale) strictly before any add.
        assert_eq!(mods.len(), 3 + 4);
        assert!(mods[..3]
            .iter()
            .all(|m| m.command == FlowModCommand::Delete));
        assert_eq!(mods[0].match_, Match::new().eth_type(EtherType::IPV4.0));
        assert_eq!(mods[1].table_id, crate::apps::router::NAT_TABLE);
        assert_eq!(mods[2].table_id, crate::apps::router::ROUTE_TABLE);
        assert!(mods[3..].iter().all(|m| m.command == FlowModCommand::Add));
        assert_eq!(deletes(&mods), 3);
    }

    #[test]
    fn rehandshake_reinstalls_without_deletes() {
        let mut r = Router::new();
        r.configs().borrow_mut().upsert(pod_config());
        sent(0x52, |sw| r.on_tick(sw));
        let mods = flow_mods(&sent(0x52, |sw| r.on_switch_ready(sw)));
        assert_eq!(mods.len(), 5);
        assert!(
            mods.iter().all(|m| m.command == FlowModCommand::Add),
            "no deletes into a fresh table"
        );
        // An unconfigured datapath gets nothing.
        assert!(sent(0x99, |sw| r.on_switch_ready(sw)).is_empty());
        assert_eq!(r.rules_for(0x99), 0);
    }

    // ---- oracle: arbitrary edits, handshakes and syncs against a real
    // datapath --------------------------------------------------------

    const DPIDS: [u64; 3] = [1, 2, 3];

    /// Host `k` in one of 8 placements over [`DPIDS`]: variant bits pick
    /// which datapaths route it (and out of which port) and which guard
    /// it. The MAC stays fixed per key, as a fabric host's does.
    fn arb_host(k: u8, variant: u8) -> HostRoute {
        let mut h = route([10, 0, 0, k], u32::from(k) + 1);
        h.ports = DPIDS
            .iter()
            .filter(|&&d| variant & (1 << (d - 1)) != 0)
            .map(|&d| (d, 1 + u32::from(variant % 3)))
            .collect();
        h.guards = DPIDS
            .iter()
            .filter(|&&d| variant & 4 != 0 && (u64::from(variant) + d) % 2 == 0)
            .map(|&d| (d, 7))
            .collect();
        h
    }

    /// Datapath `k`'s routing personality in one of 8 variants.
    fn arb_routing(k: u8, variant: u8) -> RouterConfig {
        let mut c = pod_config();
        c.dpid = DPIDS[usize::from(k) % DPIDS.len()];
        c.routes.truncate(usize::from(variant % 4));
        if variant & 4 != 0 {
            c.nat_external = Some(Ipv4Addr::new(198, 18, 0, 254));
            c.uplink_guards = vec![9];
        }
        c
    }

    /// Canonical contents of every table of `dp`.
    fn tables(dp: &Datapath) -> Vec<String> {
        let mut v: Vec<String> = (0..4)
            .filter_map(|t| dp.table(t))
            .flat_map(|t| t.entries().iter().map(move |e| (t.id(), e)))
            .map(|(t, e)| format!("{t:?}|{}|{:?}|{:?}", e.priority, e.match_, e.instructions))
            .collect();
        v.sort();
        v
    }

    /// Replay `ops` — `(kind, a, b)` triples: upsert group `a` in
    /// variant `b`, remove group `a`, hand datapath `a` over to
    /// controller `b % 2` (a handshake into empty tables), or sync it
    /// with its current controller — over two controllers sharing one
    /// store. After every sync and handshake the datapath's tables
    /// must equal the render of the live groups touching it, no delete
    /// may follow an add of the same sync, and an immediate second sync
    /// must send nothing.
    fn oracle<G: RuleGroup>(
        ops: &[(u8, u8, u8)],
        group: impl Fn(u8, u8) -> G,
    ) -> Result<(), TestCaseError> {
        let mut ctrls = [Syncer::<G>::default(), Syncer::default()];
        let store = Rc::clone(ctrls[0].store());
        ctrls[1].share(Rc::clone(&store));
        let fresh = |dpid| Datapath::new(DpConfig::software(dpid));
        // Per datapath: its tables and the controller it is connected to.
        let mut dps: Vec<(Datapath, Option<usize>)> =
            DPIDS.iter().map(|&d| (fresh(d), None)).collect();
        for &(kind, a, b) in ops {
            let (i, c) = (usize::from(a) % DPIDS.len(), usize::from(b) % 2);
            let dpid = DPIDS[i];
            let msgs = match (kind, dps[i].1) {
                (0 | 1, _) => {
                    store.borrow_mut().upsert(group(a, b));
                    continue;
                }
                (2, _) => {
                    store.borrow_mut().remove(group(a, 0).key());
                    continue;
                }
                (3, _) => {
                    dps[i] = (fresh(dpid), Some(c));
                    let msgs = sent(dpid, |sw| ctrls[c].handshake(sw));
                    prop_assert_eq!(deletes(&flow_mods(&msgs)), 0, "handshake deletes");
                    msgs
                }
                (_, Some(c)) => sent(dpid, |sw| ctrls[c].sync(sw)),
                (_, None) => continue,
            };
            let mods = flow_mods(&msgs);
            let cmds: Vec<FlowModCommand> = mods.iter().map(|m| m.command).collect();
            prop_assert!(
                !cmds
                    .windows(2)
                    .any(|w| w == [FlowModCommand::Add, FlowModCommand::Delete]),
                "delete after an add in one sync: {cmds:?}"
            );
            prop_assert!(
                mods.is_empty() || matches!(msgs.last(), Some(Message::BarrierRequest)),
                "a sync that sends flow-mods ends with a barrier"
            );
            for fm in mods {
                dps[i].0.apply_flow_mod(fm, 0).expect("valid flow-mod");
            }
            let mut want = fresh(dpid);
            for g in store
                .borrow()
                .live
                .iter()
                .flatten()
                .filter(|g| g.touches(dpid))
            {
                for fm in flow_mods(&sent(dpid, |sw| g.install(sw))) {
                    want.apply_flow_mod(fm, 0).expect("valid flow-mod");
                }
            }
            prop_assert_eq!(tables(&dps[i].0), tables(&want), "dpid {}", dpid);
            let c = dps[i].1.expect("synced datapaths are connected");
            let again = sent(dpid, |sw| ctrls[c].sync(sw));
            prop_assert!(again.is_empty(), "idle sync sent {again:?}");
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(proptest::test_runner::Config::with_cases(200))]

        #[test]
        fn host_table_sync_matches_the_desired_state(
            ops in proptest::collection::vec((0u8..5, 0u8..5, 0u8..8), 1..60)
        ) {
            oracle(&ops, arb_host)?;
        }

        #[test]
        fn router_sync_matches_the_desired_state(
            ops in proptest::collection::vec((0u8..5, 0u8..3, 0u8..8), 1..60)
        ) {
            oracle(&ops, arb_routing)?;
        }
    }
}
