//! Flow-table semantics per OpenFlow 1.3 §5.2–5.5 and §6.4: priority
//! ordering, overlap checking, strict/non-strict modify/delete, idle and
//! hard timeouts, and per-entry counters.
//!
//! Finding what a mutation touches is sub-linear, except where every
//! entry must be visited (non-strict modify/delete, expiry): the table
//! keeps a tuple-space index (one hash map per distinct mask) in step
//! with its entries, which finds the identical match an `ADD` replaces
//! or a strict command selects and serves the indexed packet lookup,
//! and insert positions come from a binary search on priority. What
//! remains linear is the slice shift of an insert or removal, which
//! moves only the entries behind it.

use std::ops::Range;

use netpkt::flowkey::FieldMask;
use netpkt::FlowKey;

use crate::instruction::Instruction;
use crate::oxm::Match;
use crate::tss::{self, TupleSpace};
use crate::{Error, Result};

/// A table number within a pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct TableId(pub u8);

impl core::fmt::Display for TableId {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// Flow-mod flags (OF 1.3 `ofp_flow_mod_flags`).
pub mod flow_flags {
    /// Send a `FLOW_REMOVED` when this entry dies.
    pub const SEND_FLOW_REM: u16 = 1 << 0;
    /// Reject the add if it overlaps an existing entry of equal priority.
    pub const CHECK_OVERLAP: u16 = 1 << 1;
}

/// `ofp_flow_mod_command`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FlowModCommand {
    /// Insert (or replace an identical match+priority).
    Add,
    /// Modify instructions of all matching entries.
    Modify,
    /// Modify the entry exactly matching (match, priority).
    ModifyStrict,
    /// Delete all matching entries.
    Delete,
    /// Delete the entry exactly matching (match, priority).
    DeleteStrict,
}

impl FlowModCommand {
    /// Wire value.
    pub fn value(&self) -> u8 {
        match self {
            FlowModCommand::Add => 0,
            FlowModCommand::Modify => 1,
            FlowModCommand::ModifyStrict => 2,
            FlowModCommand::Delete => 3,
            FlowModCommand::DeleteStrict => 4,
        }
    }

    /// From wire value.
    pub fn from_value(v: u8) -> Result<FlowModCommand> {
        Ok(match v {
            0 => FlowModCommand::Add,
            1 => FlowModCommand::Modify,
            2 => FlowModCommand::ModifyStrict,
            3 => FlowModCommand::Delete,
            4 => FlowModCommand::DeleteStrict,
            _ => return Err(Error::Malformed("bad flow-mod command")),
        })
    }
}

/// Why an entry was removed (for `FLOW_REMOVED`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RemovedReason {
    /// Idle timeout expired.
    IdleTimeout,
    /// Hard timeout expired.
    HardTimeout,
    /// Deleted by a flow-mod.
    Delete,
}

impl RemovedReason {
    /// Wire value.
    pub fn value(&self) -> u8 {
        match self {
            RemovedReason::IdleTimeout => 0,
            RemovedReason::HardTimeout => 1,
            RemovedReason::Delete => 2,
        }
    }
}

/// One installed flow entry.
#[derive(Debug, Clone)]
pub struct FlowEntry {
    /// Matching priority; higher wins.
    pub priority: u16,
    /// The authored match (kept for stats encoding).
    pub match_: Match,
    /// Precomputed lookup key (masked value).
    pub key: FlowKey,
    /// Precomputed lookup mask.
    pub mask: FieldMask,
    /// The instruction list executed on a hit.
    pub instructions: Vec<Instruction>,
    /// Controller-chosen opaque id.
    pub cookie: u64,
    /// Seconds of inactivity before removal (0 = never).
    pub idle_timeout: u16,
    /// Seconds of lifetime before removal (0 = never).
    pub hard_timeout: u16,
    /// `flow_flags` bits.
    pub flags: u16,
    /// Packets matched.
    pub packets: u64,
    /// Bytes matched.
    pub bytes: u64,
    /// Installation time (ns).
    pub installed_ns: u64,
    /// Last hit time (ns).
    pub last_used_ns: u64,
    /// Install sequence number in its table, assigned by the table;
    /// orders entries of equal priority.
    seq: u64,
}

impl FlowEntry {
    /// Build an entry from a flow-mod's pieces at time `now_ns`.
    pub fn new(
        priority: u16,
        match_: Match,
        instructions: Vec<Instruction>,
        now_ns: u64,
    ) -> FlowEntry {
        let (key, mask) = match_.to_key_mask();
        FlowEntry {
            priority,
            match_,
            key,
            mask,
            instructions,
            cookie: 0,
            idle_timeout: 0,
            hard_timeout: 0,
            flags: 0,
            packets: 0,
            bytes: 0,
            installed_ns: now_ns,
            last_used_ns: now_ns,
            seq: 0,
        }
    }

    /// Position key in the table's priority order.
    pub(crate) fn rank(&self) -> u64 {
        tss::rank(self.priority, self.seq)
    }

    /// The timeout that has removed this entry by `now_ns`, if any.
    fn expiry(&self, now_ns: u64) -> Option<RemovedReason> {
        let due =
            |from: u64, secs: u16| secs > 0 && now_ns >= from + u64::from(secs) * 1_000_000_000;
        if due(self.installed_ns, self.hard_timeout) {
            Some(RemovedReason::HardTimeout)
        } else if due(self.last_used_ns, self.idle_timeout) {
            Some(RemovedReason::IdleTimeout)
        } else {
            None
        }
    }

    /// Builder-style cookie.
    pub fn with_cookie(mut self, c: u64) -> Self {
        self.cookie = c;
        self
    }

    /// Builder-style timeouts (seconds).
    pub fn with_timeouts(mut self, idle: u16, hard: u16) -> Self {
        self.idle_timeout = idle;
        self.hard_timeout = hard;
        self
    }

    /// Builder-style flags.
    pub fn with_flags(mut self, f: u16) -> Self {
        self.flags = f;
        self
    }

    /// True if `pkt` satisfies this entry's match.
    pub fn matches(&self, pkt: &FlowKey) -> bool {
        pkt.masked(&self.mask) == self.key
    }

    /// True if two entries can both match some packet (used for
    /// `CHECK_OVERLAP`).
    pub fn overlaps(&self, other: &FlowEntry) -> bool {
        // Values must agree on the intersection of the masks. Keys are
        // already normalized (masked), so cross-masking compares exactly
        // the shared bits.
        self.key.masked(&other.mask) == other.key.masked(&self.mask)
    }

    /// True if this entry falls inside the filter region of a non-strict
    /// delete/modify: every packet this entry matches also matches
    /// `(fkey, fmask)`.
    pub fn within_filter(&self, fkey: &FlowKey, fmask: &FieldMask) -> bool {
        self.mask.mask_union(fmask) == self.mask && self.key.masked(fmask) == *fkey
    }

    /// True if the entry outputs to `port` (for delete filters);
    /// `port_no::ANY` matches everything.
    pub fn outputs_to(&self, port: u32) -> bool {
        if port == crate::port_no::ANY {
            return true;
        }
        self.instructions.iter().any(|i| match i {
            Instruction::WriteActions(a) | Instruction::ApplyActions(a) => a
                .iter()
                .any(|x| matches!(x, crate::Action::Output { port: p, .. } if *p == port)),
            _ => false,
        })
    }

    /// True if the entry forwards to `group`; `group_no::ANY` matches all.
    pub fn outputs_to_group(&self, group: u32) -> bool {
        if group == crate::group_no::ANY {
            return true;
        }
        self.instructions.iter().any(|i| match i {
            Instruction::WriteActions(a) | Instruction::ApplyActions(a) => a
                .iter()
                .any(|x| matches!(x, crate::Action::Group(g) if *g == group)),
            _ => false,
        })
    }
}

/// A single flow table: entries ordered by priority (descending), FIFO
/// within equal priority.
#[derive(Debug)]
pub struct FlowTable {
    id: TableId,
    entries: Vec<FlowEntry>,
    capacity: usize,
    version: u64,
    lookups: u64,
    hits: u64,
    /// Sequence number of the next inserted entry.
    next_seq: u64,
    /// Tuple-space index over `entries`, updated by every mutation.
    index: TupleSpace,
}

impl FlowTable {
    /// An unbounded table.
    pub fn new(id: TableId) -> FlowTable {
        FlowTable::with_capacity(id, usize::MAX)
    }

    /// A table that refuses adds beyond `capacity` entries (models TCAM).
    pub fn with_capacity(id: TableId, capacity: usize) -> FlowTable {
        FlowTable {
            id,
            entries: Vec::new(),
            capacity,
            version: 0,
            lookups: 0,
            hits: 0,
            next_seq: 0,
            index: TupleSpace::default(),
        }
    }

    /// This table's id.
    pub fn id(&self) -> TableId {
        self.id
    }

    /// Number of installed entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if no entries are installed.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Monotonic version, bumped on every mutation (drives dataplane cache
    /// invalidation).
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Total lookups performed.
    pub fn lookups(&self) -> u64 {
        self.lookups
    }

    /// Lookups that matched an entry.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// All entries, highest priority first.
    pub fn entries(&self) -> &[FlowEntry] {
        &self.entries
    }

    /// Install an entry per OF `ADD` semantics.
    pub fn add(&mut self, mut entry: FlowEntry) -> Result<()> {
        let priority = entry.priority;
        if entry.flags & flow_flags::CHECK_OVERLAP != 0 {
            let band = &self.entries[self.band(priority)];
            if band.iter().any(|e| e.overlaps(&entry)) {
                return Err(Error::Overlap);
            }
        }
        // Identical match + priority: replace in place (counters reset).
        if let Some(pos) = self.find(&entry.key, &entry.mask, priority) {
            entry.seq = self.entries[pos].seq;
            self.entries[pos] = entry;
            self.version += 1;
            return Ok(());
        }
        if self.entries.len() >= self.capacity {
            return Err(Error::TableFull);
        }
        assert!(
            self.next_seq < tss::SEQ_LIMIT,
            "install sequence overflows the rank"
        );
        entry.seq = self.next_seq;
        self.next_seq += 1;
        self.index.insert(&entry.mask, &entry.key, entry.rank());
        // Insert after the last entry with priority >= new (stable order).
        let pos = self.band(priority).end;
        self.entries.insert(pos, entry);
        self.version += 1;
        Ok(())
    }

    /// Slice positions of the entries of `priority`.
    fn band(&self, priority: u16) -> Range<usize> {
        let start = self.entries.partition_point(|e| e.priority > priority);
        let end = start + self.entries[start..].partition_point(|e| e.priority == priority);
        start..end
    }

    /// Slice position of the entry exactly matching `(key, mask, priority)`.
    fn find(&self, key: &FlowKey, mask: &FieldMask, priority: u16) -> Option<usize> {
        self.index.find(&self.entries, mask, key, priority)
    }

    /// Modify instructions of matching entries; returns how many changed.
    pub fn modify(
        &mut self,
        match_: &Match,
        priority: u16,
        strict: bool,
        instructions: &[Instruction],
    ) -> usize {
        let (fkey, fmask) = match_.to_key_mask();
        let mut changed = 0;
        if strict {
            if let Some(pos) = self.find(&fkey, &fmask, priority) {
                self.entries[pos].instructions = instructions.to_vec();
                changed = 1;
            }
        } else {
            for e in &mut self.entries {
                if e.within_filter(&fkey, &fmask) {
                    e.instructions = instructions.to_vec();
                    changed += 1;
                }
            }
        }
        if changed > 0 {
            self.version += 1;
        }
        changed
    }

    /// Delete matching entries, honouring `out_port`/`out_group` filters.
    /// Returns the removed entries (with reason `Delete`) so the caller can
    /// emit `FLOW_REMOVED` for those that asked.
    pub fn delete(
        &mut self,
        match_: &Match,
        priority: u16,
        strict: bool,
        out_port: u32,
        out_group: u32,
    ) -> Vec<FlowEntry> {
        let (fkey, fmask) = match_.to_key_mask();
        let outputs = |e: &FlowEntry| e.outputs_to(out_port) && e.outputs_to_group(out_group);
        let removed: Vec<FlowEntry> = if strict {
            match self.find(&fkey, &fmask, priority) {
                Some(pos) if outputs(&self.entries[pos]) => vec![self.entries.remove(pos)],
                _ => Vec::new(),
            }
        } else {
            self.entries
                .extract_if(.., |e| e.within_filter(&fkey, &fmask) && outputs(e))
                .collect()
        };
        self.unindex(&removed);
        removed
    }

    /// Drop `removed` from the index; a non-empty removal bumps the
    /// version.
    fn unindex<'a>(&mut self, removed: impl IntoIterator<Item = &'a FlowEntry>) {
        let mut any = false;
        for e in removed {
            self.index.remove(&e.mask, &e.key, e.rank());
            any = true;
        }
        if any {
            self.version += 1;
        }
    }

    /// Highest-priority entry matching `pkt`, if any, by a linear scan.
    /// Counters are *not* bumped here; call [`FlowTable::hit`] with the
    /// returned index.
    pub fn lookup(&mut self, pkt: &FlowKey) -> Option<usize> {
        self.lookup_counting(pkt).0
    }

    /// Like [`FlowTable::lookup`] but also counts entries scanned up to
    /// the hit, for cost modelling.
    pub fn lookup_counting(&mut self, pkt: &FlowKey) -> (Option<usize>, usize) {
        self.lookups += 1;
        // Entries are priority-sorted, so the first match wins.
        match self.entries.iter().position(|e| e.matches(pkt)) {
            Some(i) => {
                self.hits += 1;
                (Some(i), i + 1)
            }
            None => (None, self.entries.len()),
        }
    }

    /// Look `pkt` up through the tuple-space index; returns `(entry
    /// index, hash probes made)`. Counts the lookup like
    /// [`FlowTable::lookup_counting`].
    ///
    /// Mask groups are probed by descending maximum priority (ties: the
    /// group whose first entry at that priority was installed first)
    /// until the best hit's priority reaches the next group's maximum.
    /// The entry found is the scan's winner, except among overlapping
    /// entries of one priority but different masks, where OpenFlow
    /// leaves the choice undefined and the index takes the one in the
    /// group probed first.
    pub fn lookup_indexed(&mut self, pkt: &FlowKey) -> (Option<usize>, u32) {
        self.lookups += 1;
        let (idx, probes) = self.index.lookup(&self.entries, pkt);
        if idx.is_some() {
            self.hits += 1;
        }
        (idx, probes)
    }

    /// Union of the masks of all entries.
    pub fn aggregate_mask(&self) -> FieldMask {
        self.index.aggregate_mask()
    }

    /// Record a hit on entry `idx`.
    pub fn hit(&mut self, idx: usize, bytes: u64, now_ns: u64) {
        let e = &mut self.entries[idx];
        e.packets += 1;
        e.bytes += bytes;
        e.last_used_ns = now_ns;
    }

    /// Entry accessor by index.
    pub fn entry(&self, idx: usize) -> &FlowEntry {
        &self.entries[idx]
    }

    /// Remove timed-out entries; returns them with their reasons.
    pub fn expire(&mut self, now_ns: u64) -> Vec<(FlowEntry, RemovedReason)> {
        let out: Vec<(FlowEntry, RemovedReason)> = self
            .entries
            .extract_if(.., |e| e.expiry(now_ns).is_some())
            .map(|e| {
                let reason = e.expiry(now_ns).expect("extracted as expired");
                (e, reason)
            })
            .collect();
        self.unindex(out.iter().map(|(e, _)| e));
        out
    }

    /// The table's tuple-space index.
    #[cfg(test)]
    pub(crate) fn index(&self) -> &TupleSpace {
        &self.index
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Action;
    use netpkt::{builder, MacAddr};
    use std::net::Ipv4Addr;

    fn udp_key(dst_port: u16) -> FlowKey {
        let f = builder::udp_packet(
            MacAddr::host(1),
            MacAddr::host(2),
            Ipv4Addr::new(10, 0, 0, 1),
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

    fn udp_match(port: u16) -> Match {
        Match::new().eth_type(0x0800).ip_proto(17).udp_dst(port)
    }

    #[test]
    fn priority_order_wins() {
        let mut t = FlowTable::new(TableId(0));
        t.add(entry(10, Match::any(), 1)).unwrap();
        t.add(entry(100, udp_match(53), 2)).unwrap();
        let idx = t.lookup(&udp_key(53)).unwrap();
        assert_eq!(t.entry(idx).priority, 100);
        let idx = t.lookup(&udp_key(80)).unwrap();
        assert_eq!(t.entry(idx).priority, 10);
        assert_eq!(t.lookups(), 2);
        assert_eq!(t.hits(), 2);
    }

    #[test]
    fn equal_priority_is_fifo() {
        let mut t = FlowTable::new(TableId(0));
        t.add(entry(50, udp_match(53), 1)).unwrap();
        t.add(entry(50, Match::new().eth_type(0x0800).ip_proto(17), 2))
            .unwrap();
        // Both match; the first-installed must win.
        let idx = t.lookup(&udp_key(53)).unwrap();
        assert!(t.entry(idx).outputs_to(1));
    }

    #[test]
    fn add_replaces_identical_match_priority() {
        let mut t = FlowTable::new(TableId(0));
        t.add(entry(5, udp_match(53), 1)).unwrap();
        t.add(entry(5, udp_match(53), 9)).unwrap();
        assert_eq!(t.len(), 1);
        let idx = t.lookup(&udp_key(53)).unwrap();
        assert!(t.entry(idx).outputs_to(9));
    }

    #[test]
    fn check_overlap_rejects() {
        let mut t = FlowTable::new(TableId(0));
        t.add(entry(5, udp_match(53), 1)).unwrap();
        // Overlapping at same priority (any UDP includes dst 53).
        let e = entry(5, Match::new().eth_type(0x0800).ip_proto(17), 2)
            .with_flags(flow_flags::CHECK_OVERLAP);
        assert_eq!(t.add(e).unwrap_err(), Error::Overlap);
        // Same match at different priority is fine.
        let e = entry(6, Match::new().eth_type(0x0800).ip_proto(17), 2)
            .with_flags(flow_flags::CHECK_OVERLAP);
        t.add(e).unwrap();
        // Disjoint matches at same priority are fine.
        let e = entry(5, udp_match(54), 3).with_flags(flow_flags::CHECK_OVERLAP);
        t.add(e).unwrap();
    }

    #[test]
    fn capacity_enforced() {
        let mut t = FlowTable::with_capacity(TableId(0), 2);
        t.add(entry(1, udp_match(1), 1)).unwrap();
        t.add(entry(1, udp_match(2), 1)).unwrap();
        assert_eq!(
            t.add(entry(1, udp_match(3), 1)).unwrap_err(),
            Error::TableFull
        );
        // Replacement still allowed at capacity.
        t.add(entry(1, udp_match(2), 9)).unwrap();
    }

    #[test]
    fn nonstrict_delete_uses_subset_semantics() {
        let mut t = FlowTable::new(TableId(0));
        t.add(entry(5, udp_match(53), 1)).unwrap();
        t.add(entry(5, udp_match(80), 1)).unwrap();
        t.add(entry(5, Match::new().eth_type(0x0806), 1)).unwrap();
        // Filter: all UDP — removes both UDP entries, leaves ARP.
        let removed = t.delete(
            &Match::new().eth_type(0x0800).ip_proto(17),
            0,
            false,
            crate::port_no::ANY,
            crate::group_no::ANY,
        );
        assert_eq!(removed.len(), 2);
        assert_eq!(t.len(), 1);
        // Empty filter removes everything.
        let removed = t.delete(
            &Match::any(),
            0,
            false,
            crate::port_no::ANY,
            crate::group_no::ANY,
        );
        assert_eq!(removed.len(), 1);
        assert!(t.is_empty());
    }

    #[test]
    fn strict_delete_needs_exact_match_and_priority() {
        let mut t = FlowTable::new(TableId(0));
        t.add(entry(5, udp_match(53), 1)).unwrap();
        let removed = t.delete(
            &udp_match(53),
            6,
            true,
            crate::port_no::ANY,
            crate::group_no::ANY,
        );
        assert!(removed.is_empty());
        let removed = t.delete(
            &udp_match(53),
            5,
            true,
            crate::port_no::ANY,
            crate::group_no::ANY,
        );
        assert_eq!(removed.len(), 1);
    }

    #[test]
    fn delete_out_port_filter() {
        let mut t = FlowTable::new(TableId(0));
        t.add(entry(5, udp_match(53), 1)).unwrap();
        t.add(entry(5, udp_match(80), 2)).unwrap();
        let removed = t.delete(&Match::any(), 0, false, 2, crate::group_no::ANY);
        assert_eq!(removed.len(), 1);
        assert!(removed[0].outputs_to(2));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn modify_rewrites_instructions_keeps_counters() {
        let mut t = FlowTable::new(TableId(0));
        t.add(entry(5, udp_match(53), 1)).unwrap();
        let idx = t.lookup(&udp_key(53)).unwrap();
        t.hit(idx, 100, 1);
        let n = t.modify(
            &udp_match(53),
            5,
            true,
            &Instruction::apply(vec![Action::output(7)]),
        );
        assert_eq!(n, 1);
        let idx = t.lookup(&udp_key(53)).unwrap();
        assert!(t.entry(idx).outputs_to(7));
        assert_eq!(t.entry(idx).packets, 1, "modify must not reset counters");
    }

    #[test]
    fn timeouts_expire() {
        let sec = 1_000_000_000u64;
        let mut t = FlowTable::new(TableId(0));
        t.add(entry(5, udp_match(53), 1).with_timeouts(0, 10))
            .unwrap();
        t.add(entry(5, udp_match(80), 1).with_timeouts(3, 0))
            .unwrap();
        assert!(t.expire(2 * sec).is_empty());
        // Keep the idle entry alive by hitting it at t=2s.
        let idx = t.lookup(&udp_key(80)).unwrap();
        t.hit(idx, 1, 2 * sec);
        let out = t.expire(4 * sec);
        assert!(out.is_empty(), "idle clock restarted at 2s");
        let out = t.expire(5 * sec);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].1, RemovedReason::IdleTimeout);
        let out = t.expire(10 * sec);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].1, RemovedReason::HardTimeout);
        assert!(t.is_empty());
    }

    #[test]
    fn version_bumps_on_mutation_only() {
        let mut t = FlowTable::new(TableId(0));
        let v0 = t.version();
        t.add(entry(5, udp_match(53), 1)).unwrap();
        let v1 = t.version();
        assert!(v1 > v0);
        t.lookup(&udp_key(53));
        assert_eq!(t.version(), v1, "lookups must not invalidate caches");
        t.delete(
            &Match::any(),
            0,
            false,
            crate::port_no::ANY,
            crate::group_no::ANY,
        );
        assert!(t.version() > v1);
    }

    #[test]
    fn table_miss_entry_catches_all() {
        let mut t = FlowTable::new(TableId(0));
        // Priority-0 any match = the OF 1.3 table-miss entry.
        t.add(FlowEntry::new(
            0,
            Match::any(),
            Instruction::apply(vec![Action::to_controller()]),
            0,
        ))
        .unwrap();
        assert!(t.lookup(&udp_key(1)).is_some());
        assert!(t.lookup(&FlowKey::default()).is_some());
    }
}
