//! Property tests for flow-table semantics: priority ordering, the
//! non-strict subset relation, overlap symmetry, and interleaved
//! mutations — checked against brute-force oracles.

use std::cmp::Reverse;
use std::collections::HashMap;

use proptest::prelude::*;

use netpkt::flowkey::FieldMask;
use netpkt::{builder, FlowKey, MacAddr};
use openflow::table::{flow_flags, FlowEntry, FlowTable, RemovedReason, TableId};
use openflow::{Action, Error, Instruction, Match};

/// A small universe of match shapes so collisions actually happen.
fn arb_rule_match() -> impl Strategy<Value = Match> {
    prop_oneof![
        Just(Match::any()),
        (0u16..8).prop_map(|p| Match::new().eth_type(0x0800).ip_proto(17).udp_dst(p)),
        (0u32..4).prop_map(|s| {
            Match::new().eth_type(0x0800).ipv4_src_masked(
                std::net::Ipv4Addr::from(0x0a00_0000 + (s << 8)),
                std::net::Ipv4Addr::new(255, 255, 255, 0),
            )
        }),
        Just(Match::new().eth_type(0x0806)),
        (1u32..5).prop_map(|p| Match::new().in_port(p)),
    ]
}

fn packet_key(in_port: u32, src_low: u32, dport: u16) -> FlowKey {
    let f = builder::udp_packet(
        MacAddr::host(src_low),
        MacAddr::host(99),
        std::net::Ipv4Addr::from(0x0a00_0000 + src_low),
        std::net::Ipv4Addr::new(10, 0, 0, 99),
        1000,
        dport,
        b"x",
    );
    FlowKey::extract(in_port, &f).unwrap()
}

/// One table operation of the interleaving oracle.
#[derive(Debug, Clone)]
enum Op {
    /// `ADD` (possibly replacing), with timeouts and `CHECK_OVERLAP`.
    Add {
        m: Match,
        prio: u16,
        out: u32,
        idle: u16,
        hard: u16,
        check_overlap: bool,
    },
    /// Strict or non-strict `MODIFY`.
    Modify {
        m: Match,
        prio: u16,
        strict: bool,
        out: u32,
    },
    /// Strict or non-strict `DELETE`, with an `out_port` filter.
    Delete {
        m: Match,
        prio: u16,
        strict: bool,
        out_port: u32,
    },
    /// Look a packet up and count a hit on the winner.
    Lookup { in_port: u32, src: u32, dport: u16 },
    /// Expire timed-out entries.
    Expire,
}

fn arb_add() -> impl Strategy<Value = Op> {
    (
        arb_rule_match(),
        0u16..4,
        1u32..4,
        0u16..3,
        0u16..4,
        any::<bool>(),
    )
        .prop_map(|(m, prio, out, idle, hard, check_overlap)| Op::Add {
            m,
            prio,
            out,
            idle,
            hard,
            check_overlap,
        })
}

fn arb_op() -> impl Strategy<Value = Op> {
    let out_port = prop_oneof![Just(openflow::port_no::ANY), 1u32..4];
    prop_oneof![
        // Adds are drawn twice as often as each other op, so tables grow.
        arb_add(),
        arb_add(),
        (arb_rule_match(), 0u16..4, any::<bool>(), 1u32..4).prop_map(|(m, prio, strict, out)| {
            Op::Modify {
                m,
                prio,
                strict,
                out,
            }
        }),
        (arb_rule_match(), 0u16..4, any::<bool>(), out_port).prop_map(
            |(m, prio, strict, out_port)| Op::Delete {
                m,
                prio,
                strict,
                out_port,
            }
        ),
        (1u32..5, 0u32..1024, 0u16..8).prop_map(|(in_port, src, dport)| Op::Lookup {
            in_port,
            src,
            dport
        }),
        Just(Op::Expire),
    ]
}

/// The model's entries: the table's contents in `entries()` order,
/// kept by brute force.
type Model = Vec<FlowEntry>;

/// The fields an `entries()` comparison looks at.
fn visible(e: &FlowEntry) -> impl PartialEq + std::fmt::Debug {
    (
        e.priority,
        e.match_.clone(),
        e.instructions.clone(),
        (e.idle_timeout, e.hard_timeout, e.flags),
        (e.packets, e.bytes, e.installed_ns, e.last_used_ns),
    )
}

fn same(a: &FlowEntry, m: &FieldMask, k: &FlowKey, prio: u16) -> bool {
    a.priority == prio && a.mask == *m && a.key == *k
}

/// Brute-force `ADD`.
fn model_add(model: &mut Model, e: FlowEntry) -> Result<(), Error> {
    if e.flags & flow_flags::CHECK_OVERLAP != 0
        && model
            .iter()
            .any(|o| o.priority == e.priority && o.overlaps(&e))
    {
        return Err(Error::Overlap);
    }
    if let Some(o) = model
        .iter_mut()
        .find(|o| same(o, &e.mask, &e.key, e.priority))
    {
        *o = e;
        return Ok(());
    }
    let pos = model
        .iter()
        .position(|o| o.priority < e.priority)
        .unwrap_or(model.len());
    model.insert(pos, e);
    Ok(())
}

/// Brute-force expiry at `now` (hard deadline first).
fn model_expired(e: &FlowEntry, now: u64) -> Option<RemovedReason> {
    let due = |from: u64, secs: u16| secs > 0 && now >= from + u64::from(secs) * 1_000_000_000;
    if due(e.installed_ns, e.hard_timeout) {
        Some(RemovedReason::HardTimeout)
    } else if due(e.last_used_ns, e.idle_timeout) {
        Some(RemovedReason::IdleTimeout)
    } else {
        None
    }
}

/// One mask group of [`fresh_tss_lookup`]'s index.
struct FreshGroup {
    mask: FieldMask,
    max_priority: u16,
    /// Masked key → (priority, slice index) of its first entry.
    first: HashMap<FlowKey, (u16, usize)>,
}

/// A tuple-space index built from scratch over `entries` — group by
/// mask in slice order, order groups by maximum priority, probe until
/// the best hit's priority reaches the next group's maximum — and one
/// lookup through it: `(entry index, probes)`.
fn fresh_tss_lookup(entries: &[FlowEntry], key: &FlowKey) -> (Option<usize>, u32) {
    let mut groups: Vec<FreshGroup> = Vec::new();
    for (idx, e) in entries.iter().enumerate() {
        let g = match groups.iter().position(|g| g.mask == e.mask) {
            Some(g) => g,
            None => {
                groups.push(FreshGroup {
                    mask: e.mask,
                    max_priority: 0,
                    first: HashMap::new(),
                });
                groups.len() - 1
            }
        };
        let g = &mut groups[g];
        g.max_priority = g.max_priority.max(e.priority);
        g.first.entry(e.key).or_insert((e.priority, idx));
    }
    groups.sort_by_key(|g| Reverse(g.max_priority));
    let mut best: Option<(u16, usize)> = None;
    let mut probes = 0;
    for g in &groups {
        if best.is_some_and(|(bp, _)| bp >= g.max_priority) {
            break;
        }
        probes += 1;
        if let Some(&(prio, idx)) = g.first.get(&key.masked(&g.mask)) {
            match best {
                Some((bp, bi)) if bp > prio || (bp == prio && bi < idx) => {}
                _ => best = Some((prio, idx)),
            }
        }
    }
    (best.map(|(_, idx)| idx), probes)
}

/// Packets looked up after every step: between them they match each
/// rule shape of [`arb_rule_match`].
const PROBES: [(u32, u32, u16); 4] = [(1, 5, 3), (2, 300, 0), (3, 700, 7), (4, 1000, 5)];

/// Look `key` up three ways and return the scan's hit: the scan must
/// find the model's first match, and the indexed lookup must find the
/// entry, with the probe count, of a from-scratch index. The two may
/// differ only among entries of the winning priority, where OpenFlow
/// leaves the choice open.
fn check_lookup(
    table: &mut FlowTable,
    model: &Model,
    key: &FlowKey,
) -> Result<Option<usize>, TestCaseError> {
    let (indexed, probes) = table.lookup_indexed(key);
    prop_assert_eq!((indexed, probes), fresh_tss_lookup(table.entries(), key));
    let scanned = table.lookup(key);
    let want = model.iter().position(|e| e.matches(key));
    prop_assert_eq!(scanned, want);
    prop_assert_eq!(
        indexed.map(|i| table.entry(i).priority),
        want.map(|i| model[i].priority)
    );
    Ok(scanned)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Random interleavings of add (with replace and `CHECK_OVERLAP`),
    /// strict and non-strict modify and delete (with `out_port`
    /// filters), lookups and expiry, checked after every step against
    /// a brute-force `Vec` model: the same `entries()` in the same
    /// order, the same scan winner, the same aggregate mask, and an
    /// indexed lookup that finds the entry, with the probe count, of a
    /// tuple-space index built from scratch.
    #[test]
    fn interleaved_ops_match_bruteforce_model(
        ops in proptest::collection::vec((arb_op(), 0u64..3), 1..60),
    ) {
        let mut table = FlowTable::new(TableId(0));
        let mut model: Model = Vec::new();
        let mut now = 0u64;
        for (op, advance_secs) in ops {
            now += advance_secs * 1_000_000_000;
            match op {
                Op::Add { m, prio, out, idle, hard, check_overlap } => {
                    let flags = if check_overlap { flow_flags::CHECK_OVERLAP } else { 0 };
                    let e = FlowEntry::new(prio, m, Instruction::apply(vec![Action::output(out)]), now)
                        .with_timeouts(idle, hard)
                        .with_flags(flags);
                    prop_assert_eq!(table.add(e.clone()), model_add(&mut model, e));
                }
                Op::Modify { m, prio, strict, out } => {
                    let insns = Instruction::apply(vec![Action::output(out)]);
                    let (k, mask) = m.to_key_mask();
                    let mut want = 0;
                    for e in &mut model {
                        let hit = if strict { same(e, &mask, &k, prio) } else { e.within_filter(&k, &mask) };
                        if hit {
                            e.instructions = insns.clone();
                            want += 1;
                        }
                    }
                    prop_assert_eq!(table.modify(&m, prio, strict, &insns), want);
                }
                Op::Delete { m, prio, strict, out_port } => {
                    let (k, mask) = m.to_key_mask();
                    let mut want = Vec::new();
                    model.retain(|e| {
                        let hit = if strict { same(e, &mask, &k, prio) } else { e.within_filter(&k, &mask) }
                            && e.outputs_to(out_port);
                        if hit {
                            want.push(visible(e));
                        }
                        !hit
                    });
                    let got = table.delete(&m, prio, strict, out_port, openflow::group_no::ANY);
                    prop_assert_eq!(got.iter().map(visible).collect::<Vec<_>>(), want);
                }
                Op::Lookup { in_port, src, dport } => {
                    let key = packet_key(in_port, src, dport);
                    if let Some(i) = check_lookup(&mut table, &model, &key)? {
                        table.hit(i, 64, now);
                        model[i].packets += 1;
                        model[i].bytes += 64;
                        model[i].last_used_ns = now;
                    }
                }
                Op::Expire => {
                    let mut want = Vec::new();
                    model.retain(|e| match model_expired(e, now) {
                        Some(r) => {
                            want.push((visible(e), r));
                            false
                        }
                        None => true,
                    });
                    let got = table.expire(now);
                    prop_assert_eq!(
                        got.iter().map(|(e, r)| (visible(e), *r)).collect::<Vec<_>>(),
                        want
                    );
                }
            }
            prop_assert_eq!(
                table.entries().iter().map(visible).collect::<Vec<_>>(),
                model.iter().map(visible).collect::<Vec<_>>()
            );
            let union = model.iter().fold(FieldMask::default(), |u, e| u.mask_union(&e.mask));
            prop_assert_eq!(table.aggregate_mask(), union);
            for (in_port, src, dport) in PROBES {
                check_lookup(&mut table, &model, &packet_key(in_port, src, dport))?;
            }
        }
    }

    /// `lookup` must return the first (highest-priority, FIFO within
    /// priority) matching entry — cross-checked against a brute-force
    /// scan of the unordered rule list.
    #[test]
    fn lookup_matches_bruteforce_oracle(
        rules in proptest::collection::vec((arb_rule_match(), 0u16..4), 1..15),
        probes in proptest::collection::vec((1u32..5, 0u32..1024, 0u16..8), 1..20),
    ) {
        let mut table = FlowTable::new(TableId(0));
        // Shadow list in insertion order for the oracle.
        let mut oracle: Vec<(u16, Match, usize)> = Vec::new();
        for (i, (m, prio)) in rules.iter().enumerate() {
            let e = FlowEntry::new(
                *prio,
                m.clone(),
                Instruction::apply(vec![Action::output(i as u32 + 1)]),
                0,
            );
            // `add` replaces identical (match, priority); mirror that.
            let (key, mask) = m.to_key_mask();
            oracle.retain(|(p, om, _)| {
                let (ok, omask) = om.to_key_mask();
                !(*p == *prio && ok == key && omask == mask)
            });
            table.add(e).unwrap();
            oracle.push((*prio, m.clone(), i + 1));
        }
        for (in_port, src, dport) in probes {
            let key = packet_key(in_port, src, dport);
            let got = table.lookup(&key).map(|idx| table.entry(idx).priority);
            // Oracle: max priority among matching; FIFO tie-break.
            let want = oracle
                .iter()
                .filter(|(_, m, _)| m.matches(&key))
                .map(|(p, _, _)| *p)
                .max();
            prop_assert_eq!(got, want, "priority winner mismatch for {:?}", key);
        }
    }

    /// Non-strict delete removes exactly the entries whose match region
    /// is contained in the filter region.
    #[test]
    fn nonstrict_delete_is_subset_semantics(
        rules in proptest::collection::vec((arb_rule_match(), 0u16..4), 1..12),
        filter in arb_rule_match(),
    ) {
        let mut table = FlowTable::new(TableId(0));
        for (i, (m, prio)) in rules.iter().enumerate() {
            let _ = table.add(FlowEntry::new(
                *prio,
                m.clone(),
                Instruction::apply(vec![Action::output(i as u32 + 1)]),
                0,
            ));
        }
        let before = table.len();
        let (fkey, fmask) = filter.to_key_mask();
        let should_go: usize = table
            .entries()
            .iter()
            .filter(|e| e.within_filter(&fkey, &fmask))
            .count();
        let removed = table.delete(
            &filter,
            0,
            false,
            openflow::port_no::ANY,
            openflow::group_no::ANY,
        );
        prop_assert_eq!(removed.len(), should_go);
        prop_assert_eq!(table.len(), before - should_go);
        // Survivors must not be within the filter.
        for e in table.entries() {
            prop_assert!(!e.within_filter(&fkey, &fmask));
        }
    }

    /// Overlap is symmetric, and a witness packet matching both entries
    /// implies overlap (soundness direction).
    #[test]
    fn overlap_symmetric_and_sound(
        m1 in arb_rule_match(),
        m2 in arb_rule_match(),
        probes in proptest::collection::vec((1u32..5, 0u32..64, 0u16..8), 0..20),
    ) {
        let e1 = FlowEntry::new(1, m1, Instruction::apply(vec![]), 0);
        let e2 = FlowEntry::new(1, m2, Instruction::apply(vec![]), 0);
        prop_assert_eq!(e1.overlaps(&e2), e2.overlaps(&e1), "overlap must be symmetric");
        for (in_port, src, dport) in probes {
            let key = packet_key(in_port, src, dport);
            if e1.matches(&key) && e2.matches(&key) {
                prop_assert!(e1.overlaps(&e2), "witness packet but overlaps() said no");
            }
        }
    }

    /// Timeout processing never removes a permanent entry and always
    /// removes one whose hard deadline has passed.
    #[test]
    fn expiry_boundaries(
        idle in 0u16..5,
        hard in 0u16..5,
        advance_secs in 0u64..10,
    ) {
        let mut table = FlowTable::new(TableId(0));
        table
            .add(
                FlowEntry::new(1, Match::any(), Instruction::apply(vec![]), 0)
                    .with_timeouts(idle, hard),
            )
            .unwrap();
        let now = advance_secs * 1_000_000_000;
        let removed = table.expire(now);
        let hard_due = hard > 0 && advance_secs >= u64::from(hard);
        let idle_due = idle > 0 && advance_secs >= u64::from(idle);
        prop_assert_eq!(removed.len() == 1, hard_due || idle_due);
        if hard == 0 && idle == 0 {
            prop_assert_eq!(table.len(), 1, "permanent entries never expire");
        }
    }
}
