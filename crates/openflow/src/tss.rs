//! Tuple-space-search index over one flow table.
//!
//! Entries are grouped by their (identical) mask; lookup probes one hash
//! map per distinct mask and keeps the best-priority hit. For the common
//! controller workloads — a handful of rule shapes, thousands of rules —
//! this turns an O(n) scan into a few O(1) probes. A table whose entries
//! all share one mask degenerates to a single probe, which is the
//! dataplane-specialisation trick ESwitch builds its templates from.
//!
//! The index is owned by its [`FlowTable`](crate::FlowTable) and updated
//! by every mutation, so it is never stale and never rebuilt. Entries are
//! named by their *rank*: priority (descending) then install sequence,
//! packed into one `u64` that sorts exactly like the table's
//! `entries()` slice, so a hit's slice position is one binary search.
//! Groups hash the 32-bit flow hash of the masked key, not the key
//! itself, and confirm a candidate against its entry's key: a bucket
//! costs 16 bytes instead of the ~100 of a stored key, for an index
//! kept alive on every table.
//!
//! Groups are probed in the order a from-scratch build would give them —
//! by the rank of each group's best entry, i.e. its highest priority,
//! then the first entry installed at that priority — and probing stops
//! once the best hit's priority reaches the next group's maximum. So the
//! entry found and the probe count (which the cost model charges) depend
//! only on the table's contents, not on the order of past mutations.

use std::collections::btree_set::BTreeSet;
use std::collections::hash_map::{Entry, HashMap};

use netpkt::flowkey::FieldMask;
use netpkt::{FlowHashBuilder, FlowKey};

use crate::table::FlowEntry;

/// Install sequence numbers must stay below this to fit in a rank.
pub(crate) const SEQ_LIMIT: u64 = 1 << 48;

/// The rank of an entry of `priority` installed as number `seq` of its
/// table: lower ranks come first in the table's priority order.
pub(crate) fn rank(priority: u16, seq: u64) -> u64 {
    u64::from(!priority) << 48 | seq
}

/// The priority encoded in `rank`.
fn priority_of(rank: u64) -> u16 {
    !((rank >> 48) as u16)
}

/// Slice position of the entry of `rank` in `entries`, which are sorted
/// by rank.
fn position(entries: &[FlowEntry], rank: u64) -> usize {
    entries
        .binary_search_by_key(&rank, FlowEntry::rank)
        .expect("indexed entry is installed")
}

/// One mask group: every entry with this mask, by masked key.
#[derive(Debug)]
struct MaskGroup {
    mask: FieldMask,
    /// The smallest rank in the group; its priority is the group's
    /// maximum.
    head: u64,
    /// Ranks of every entry in the group.
    ranks: BTreeSet<u64>,
    /// Flow hash of the masked key → the smallest rank with that hash.
    best: HashMap<u32, u64, FlowHashBuilder>,
    /// Flow hash → the other ranks with that hash, ascending: the same
    /// match at lower priorities, or keys whose hashes collide.
    shadowed: HashMap<u32, Vec<u64>, FlowHashBuilder>,
}

impl MaskGroup {
    /// Ranks whose masked key hashes to `h`, ascending.
    fn ranks_of(&self, h: u32) -> impl Iterator<Item = u64> + '_ {
        let rest = self.shadowed.get(&h).into_iter().flatten();
        self.best.get(&h).into_iter().chain(rest).copied()
    }

    /// Rank and slice position of the best entry with masked key `key`,
    /// considering only ranks below `below`.
    fn get(&self, entries: &[FlowEntry], key: &FlowKey, below: u64) -> Option<(u64, usize)> {
        self.ranks_of(key.flow_hash(0))
            .take_while(|&r| r < below)
            .map(|r| (r, position(entries, r)))
            .find(|&(_, pos)| entries[pos].key == *key)
    }
}

/// The tuple-space index of one table: mask groups in probe order.
#[derive(Debug, Default)]
pub(crate) struct TupleSpace {
    groups: Vec<MaskGroup>,
    /// Union of the groups' masks.
    union: FieldMask,
}

impl TupleSpace {
    /// Index an entry.
    pub(crate) fn insert(&mut self, mask: &FieldMask, key: &FlowKey, rank: u64) {
        let i = match self.groups.iter().position(|g| g.mask == *mask) {
            Some(i) => i,
            None => {
                self.groups.push(MaskGroup {
                    mask: *mask,
                    head: u64::MAX,
                    ranks: BTreeSet::new(),
                    best: HashMap::default(),
                    shadowed: HashMap::default(),
                });
                self.union = self.union.mask_union(mask);
                self.groups.len() - 1
            }
        };
        let g = &mut self.groups[i];
        let h = key.flow_hash(0);
        g.ranks.insert(rank);
        match g.best.entry(h) {
            Entry::Vacant(v) => {
                v.insert(rank);
            }
            Entry::Occupied(mut o) => {
                let displaced = if rank < *o.get() {
                    std::mem::replace(o.get_mut(), rank)
                } else {
                    rank
                };
                let list = g.shadowed.entry(h).or_default();
                list.insert(list.partition_point(|&r| r < displaced), displaced);
            }
        }
        if rank < g.head {
            g.head = rank;
            self.reorder(i);
        }
    }

    /// Drop an indexed entry.
    pub(crate) fn remove(&mut self, mask: &FieldMask, key: &FlowKey, rank: u64) {
        let i = self
            .groups
            .iter()
            .position(|g| g.mask == *mask)
            .expect("removed entry is indexed");
        let g = &mut self.groups[i];
        let h = key.flow_hash(0);
        g.ranks.remove(&rank);
        if g.ranks.is_empty() {
            self.groups.remove(i);
            self.union = self
                .groups
                .iter()
                .fold(FieldMask::default(), |m, g| m.mask_union(&g.mask));
            return;
        }
        if g.best.get(&h) == Some(&rank) {
            match g.shadowed.get_mut(&h) {
                Some(list) => {
                    let next = list.remove(0);
                    if list.is_empty() {
                        g.shadowed.remove(&h);
                    }
                    g.best.insert(h, next);
                }
                None => {
                    g.best.remove(&h);
                }
            }
        } else {
            let list = g.shadowed.get_mut(&h).expect("removed entry is indexed");
            list.retain(|&r| r != rank);
            if list.is_empty() {
                g.shadowed.remove(&h);
            }
        }
        if g.head == rank {
            g.head = *g.ranks.first().expect("group is not empty");
            self.reorder(i);
        }
    }

    /// Move group `i`, whose head changed, to its probe position.
    fn reorder(&mut self, i: usize) {
        let g = self.groups.remove(i);
        let at = self.groups.partition_point(|o| o.head < g.head);
        self.groups.insert(at, g);
    }

    /// Slice position of the entry with exactly this mask, key and
    /// priority.
    pub(crate) fn find(
        &self,
        entries: &[FlowEntry],
        mask: &FieldMask,
        key: &FlowKey,
        priority: u16,
    ) -> Option<usize> {
        let g = self.groups.iter().find(|g| g.mask == *mask)?;
        g.ranks_of(key.flow_hash(0))
            .filter(|&r| priority_of(r) == priority)
            .map(|r| position(entries, r))
            .find(|&pos| entries[pos].key == *key)
    }

    /// Look up `pkt` in the table holding `entries`; returns `(slice
    /// position of the hit, probes made)`.
    pub(crate) fn lookup(&self, entries: &[FlowEntry], pkt: &FlowKey) -> (Option<usize>, u32) {
        let mut best: Option<(u64, usize)> = None;
        let mut probes = 0u32;
        for g in &self.groups {
            // If the best hit so far beats everything this group can
            // offer, stop probing.
            if best.is_some_and(|(b, _)| priority_of(b) >= priority_of(g.head)) {
                break;
            }
            probes += 1;
            // A lower rank is a higher priority, or the same priority
            // installed earlier: only those can improve on the best.
            let below = best.map_or(u64::MAX, |(b, _)| b);
            if let Some(hit) = g.get(entries, &pkt.masked(&g.mask), below) {
                best = Some(hit);
            }
        }
        (best.map(|(_, pos)| pos), probes)
    }

    /// Union of every indexed mask.
    pub(crate) fn aggregate_mask(&self) -> FieldMask {
        self.union
    }

    /// Number of distinct masks (= probes in the worst case).
    #[cfg(test)]
    pub(crate) fn mask_count(&self) -> usize {
        self.groups.len()
    }
}

#[cfg(test)]
mod tests {
    use crate::table::{FlowEntry, FlowTable, TableId};
    use crate::{Action, Instruction, Match};
    use netpkt::{builder, FlowKey, MacAddr};
    use std::net::Ipv4Addr;

    fn udp_key(src: u32, dst_port: u16) -> FlowKey {
        let f = builder::udp_packet(
            MacAddr::host(1),
            MacAddr::host(2),
            Ipv4Addr::from(0x0a000000 + src),
            Ipv4Addr::new(10, 0, 0, 2),
            1000,
            dst_port,
            b"x",
        );
        FlowKey::extract(1, &f).unwrap()
    }

    fn entry(priority: u16, m: Match, out: u32) -> FlowEntry {
        FlowEntry::new(
            priority,
            m,
            Instruction::apply(vec![Action::output(out)]),
            0,
        )
    }

    #[test]
    fn index_agrees_with_linear_lookup() {
        let mut t = FlowTable::new(TableId(0));
        // Three rule shapes: per-dst-port ACLs, per-src exact, catch-all.
        for p in [53u16, 80, 443, 8080] {
            t.add(entry(
                100,
                Match::new().eth_type(0x0800).ip_proto(17).udp_dst(p),
                u32::from(p),
            ))
            .unwrap();
        }
        for s in 1..20u32 {
            t.add(entry(
                50,
                Match::new()
                    .eth_type(0x0800)
                    .ipv4_src(Ipv4Addr::from(0x0a000000 + s)),
                1000 + s,
            ))
            .unwrap();
        }
        t.add(entry(1, Match::any(), 9999)).unwrap();
        assert_eq!(t.index().mask_count(), 3);

        for key in [
            udp_key(1, 53),
            udp_key(5, 80),
            udp_key(7, 1234),
            udp_key(99, 7),
        ] {
            let (tss_hit, probes) = t.lookup_indexed(&key);
            let lin_hit = t.lookup(&key);
            assert_eq!(
                tss_hit.map(|i| t.entry(i).priority),
                lin_hit.map(|i| t.entry(i).priority),
                "priority mismatch for {key:?}"
            );
            // Higher-priority rule must win: port rules (prio 100) over
            // src rules (prio 50).
            assert!(probes >= 1);
            if let (Some(a), Some(b)) = (tss_hit, lin_hit) {
                assert_eq!(a, b, "index must return the same entry");
            }
        }
    }

    #[test]
    fn priority_early_exit() {
        let mut t = FlowTable::new(TableId(0));
        t.add(entry(
            100,
            Match::new().eth_type(0x0800).ip_proto(17).udp_dst(53),
            1,
        ))
        .unwrap();
        t.add(entry(1, Match::any(), 2)).unwrap();
        // A dns packet hits the priority-100 group first and stops.
        let (hit, probes) = t.lookup_indexed(&udp_key(1, 53));
        assert_eq!(t.entry(hit.unwrap()).priority, 100);
        assert_eq!(probes, 1, "must not probe the catch-all group");
    }

    #[test]
    fn index_follows_every_mutation() {
        let mut t = FlowTable::new(TableId(0));
        t.add(entry(1, Match::any(), 1)).unwrap();
        let arp = Match::new().eth_type(0x0806);
        t.add(entry(2, arp.clone(), 2)).unwrap();
        // The ARP group now outranks the catch-all: probed first.
        assert_eq!(t.index().mask_count(), 2);
        let (hit, probes) = t.lookup_indexed(&udp_key(1, 53));
        assert_eq!(t.entry(hit.unwrap()).priority, 1);
        assert_eq!(probes, 2);
        // A same-match entry at a higher priority shadows the first, and
        // deleting it uncovers the first again.
        t.add(entry(7, Match::any(), 7)).unwrap();
        let (hit, probes) = t.lookup_indexed(&udp_key(1, 53));
        assert_eq!((t.entry(hit.unwrap()).priority, probes), (7, 1));
        t.delete(
            &Match::any(),
            7,
            true,
            crate::port_no::ANY,
            crate::group_no::ANY,
        );
        let (hit, probes) = t.lookup_indexed(&udp_key(1, 53));
        assert_eq!((t.entry(hit.unwrap()).priority, probes), (1, 2));
        // Deleting the last ARP entry drops its group.
        t.delete(&arp, 2, true, crate::port_no::ANY, crate::group_no::ANY);
        assert_eq!(t.index().mask_count(), 1);
        assert_eq!(t.lookup_indexed(&udp_key(1, 53)).1, 1);
    }

    #[test]
    fn single_template_table_is_one_probe() {
        let mut t = FlowTable::new(TableId(0));
        for vid in 1..100u16 {
            t.add(entry(10, Match::new().vlan(vid), u32::from(vid)))
                .unwrap();
        }
        assert_eq!(
            t.index().mask_count(),
            1,
            "homogeneous table = ESwitch template"
        );
        let tagged = netpkt::vlan::push_vlan(
            &builder::udp_packet(
                MacAddr::host(1),
                MacAddr::host(2),
                Ipv4Addr::new(10, 0, 0, 1),
                Ipv4Addr::new(10, 0, 0, 2),
                1,
                2,
                b"x",
            ),
            netpkt::vlan::VlanTag::new(42),
        )
        .unwrap();
        let key = FlowKey::extract(1, &tagged).unwrap();
        let (hit, probes) = t.lookup_indexed(&key);
        assert_eq!(probes, 1);
        assert!(t.entry(hit.unwrap()).matches(&key));
    }

    #[test]
    fn miss_returns_none() {
        let mut t = FlowTable::new(TableId(0));
        t.add(entry(10, Match::new().eth_type(0x0806), 1)).unwrap();
        let (hit, _) = t.lookup_indexed(&udp_key(1, 53));
        assert!(hit.is_none());
    }

    /// Two destination MACs whose masked keys share a flow hash.
    fn colliding_macs() -> (MacAddr, MacAddr) {
        let mask = Match::new().eth_dst(MacAddr::ZERO).to_key_mask().1;
        let mut seen = std::collections::HashMap::new();
        (0u32..)
            .find_map(|i| {
                let mac = MacAddr::host(i);
                let key = FlowKey {
                    eth_dst: mac,
                    ..FlowKey::default()
                };
                let h = key.masked(&mask).flow_hash(0);
                seen.insert(h, mac).map(|other| (other, mac))
            })
            .unwrap()
    }

    #[test]
    fn hash_collisions_resolve_by_key() {
        let (a, b) = colliding_macs();
        let mut t = FlowTable::new(TableId(0));
        // b at two priorities shares a's bucket too.
        t.add(entry(10, Match::new().eth_dst(b), 2)).unwrap();
        t.add(entry(20, Match::new().eth_dst(a), 1)).unwrap();
        t.add(entry(5, Match::new().eth_dst(b), 3)).unwrap();
        let to = |mac| FlowKey {
            eth_dst: mac,
            ..FlowKey::default()
        };
        let out = |t: &mut FlowTable, mac| {
            let (hit, _) = t.lookup_indexed(&to(mac));
            hit.map(|i| t.entry(i).instructions.clone())
        };
        let via = |port| Some(Instruction::apply(vec![Action::output(port)]));
        assert_eq!(out(&mut t, a), via(1));
        assert_eq!(out(&mut t, b), via(2));
        // Replacing and strict-deleting find the exact entry, not a
        // bucket neighbour.
        t.add(entry(10, Match::new().eth_dst(b), 4)).unwrap();
        assert_eq!(t.len(), 3);
        assert_eq!(out(&mut t, b), via(4));
        let any = (crate::port_no::ANY, crate::group_no::ANY);
        assert!(t
            .delete(&Match::new().eth_dst(b), 20, true, any.0, any.1)
            .is_empty());
        assert_eq!(
            t.delete(&Match::new().eth_dst(a), 20, true, any.0, any.1)
                .len(),
            1
        );
        assert_eq!(out(&mut t, a), None);
        t.delete(&Match::new().eth_dst(b), 10, true, any.0, any.1);
        assert_eq!(out(&mut t, b), via(3));
    }
}
