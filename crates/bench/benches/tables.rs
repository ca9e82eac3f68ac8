//! Flow-table and cache microbenchmarks: the raw lookup structures under
//! the datapath (complements `datapath.rs`, which measures the composed
//! pipeline), and the cost of installing into a large table.

use criterion::{criterion_group, BenchmarkId, Criterion, Throughput};
use std::time::{Duration, Instant};

use bench::report;
use netpkt::{builder, FlowKey, MacAddr};
use openflow::table::{FlowEntry, FlowTable, TableId};
use openflow::{Action, Instruction, Match};
use softswitch::cache::{CachedPath, MegaflowCache, MicroflowCache};

fn key(src: u32, dst_port: u16) -> FlowKey {
    let f = builder::udp_packet(
        MacAddr::host(src),
        MacAddr::host(2),
        std::net::Ipv4Addr::from(0x0a00_0000 + src),
        std::net::Ipv4Addr::new(10, 0, 0, 2),
        1000,
        dst_port,
        b"x",
    );
    FlowKey::extract(1, &f).unwrap()
}

fn table_with(n: u32) -> FlowTable {
    let mut t = FlowTable::new(TableId(0));
    for i in 0..n {
        t.add(FlowEntry::new(
            10,
            Match::new()
                .eth_type(0x0800)
                .ip_proto(17)
                .udp_dst((i % 30000) as u16),
            Instruction::apply(vec![Action::output(2)]),
            0,
        ))
        .unwrap();
    }
    t
}

fn bench_linear_lookup(c: &mut Criterion) {
    let mut g = c.benchmark_group("flowtable_linear_lookup");
    g.throughput(Throughput::Elements(1));
    for n in [16u32, 256, 4096] {
        let mut t = table_with(n);
        let k = key(1, (n - 1) as u16); // worst case: last rule
        g.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| std::hint::black_box(t.lookup(&k)))
        });
    }
    g.finish();
}

fn bench_tss_lookup(c: &mut Criterion) {
    let mut g = c.benchmark_group("tss_lookup");
    g.throughput(Throughput::Elements(1));
    for n in [16u32, 256, 4096] {
        let mut t = table_with(n);
        let k = key(1, (n - 1) as u16);
        g.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| std::hint::black_box(t.lookup_indexed(&k)))
        });
    }
    g.finish();
}

/// Table sizes of the install benchmark.
const INSTALL_SIZES: [u32; 3] = [1024, 8192, 65536];

/// The `i`-th proactive host route, shaped like the ARP proxy's:
/// exact destination MAC at one priority.
fn route(i: u32) -> FlowEntry {
    FlowEntry::new(
        20,
        Match::new().eth_dst(MacAddr::host(i)),
        Instruction::apply(vec![Action::output(1 + i % 8)]),
        0,
    )
}

/// A table-miss entry plus `n` host routes.
fn routes_table(n: u32) -> FlowTable {
    let mut t = FlowTable::new(TableId(0));
    t.add(FlowEntry::new(
        0,
        Match::any(),
        Instruction::apply(vec![Action::to_controller()]),
        0,
    ))
    .unwrap();
    for i in 0..n {
        t.add(route(i)).unwrap();
    }
    t
}

/// One install of a fresh route into a table of N routes and the strict
/// delete that takes it out again, so every iteration sees N entries.
fn bench_install(c: &mut Criterion) {
    let mut g = c.benchmark_group("flowtable_install");
    g.throughput(Throughput::Elements(2));
    for n in INSTALL_SIZES {
        let mut t = routes_table(n);
        let fresh = route(n);
        let m = fresh.match_.clone();
        g.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| {
                t.add(fresh.clone()).unwrap();
                let gone = t.delete(
                    &m,
                    20,
                    true,
                    openflow::port_no::ANY,
                    openflow::group_no::ANY,
                );
                std::hint::black_box(gone);
            })
        });
    }
    g.finish();
}

/// Median ns per add of a fresh route into a table of `n` routes: each
/// sample times a batch of 64 adds, then (untimed) strict-deletes them
/// again, so every sample starts from the same `n` entries.
fn ns_per_add(n: u32) -> f64 {
    const BATCH: u32 = 64;
    let mut t = routes_table(n);
    let batch: Vec<FlowEntry> = (n..n + BATCH).map(route).collect();
    let mut samples: Vec<f64> = (0..201)
        .map(|_| {
            let adds = batch.clone();
            let t0 = Instant::now();
            for e in adds {
                t.add(e).unwrap();
            }
            let ns = t0.elapsed().as_nanos() as f64 / f64::from(BATCH);
            for e in &batch {
                let any = openflow::port_no::ANY;
                t.delete(&e.match_, 20, true, any, openflow::group_no::ANY);
            }
            ns
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

fn bench_caches(c: &mut Criterion) {
    let mut g = c.benchmark_group("caches");
    g.throughput(Throughput::Elements(1));
    let path = std::sync::Arc::new(CachedPath::new(
        vec![softswitch::actions::CAction::Output(2)],
        vec![(0, 0)],
        1,
    ));
    let mut micro = MicroflowCache::new(65536);
    for s in 0..1000u32 {
        micro.insert(key(s, 53), path.clone());
    }
    let k = key(500, 53);
    g.bench_function("microflow_hit", |b| {
        b.iter(|| std::hint::black_box(micro.lookup(&k, 1).is_some()))
    });

    let mut mega = MegaflowCache::new(8192);
    // 4 distinct masks, hit in the last one.
    for (i, field) in [0u8, 1, 2, 3].iter().enumerate() {
        let mut mask = FlowKey::empty_mask();
        match field {
            0 => mask.eth_type = u16::MAX,
            1 => mask.ipv4_dst = u32::MAX,
            2 => mask.udp_src = u16::MAX,
            _ => mask.udp_dst = u16::MAX,
        }
        let mut kk = key(i as u32 + 1, 53);
        kk.udp_dst = 9999; // keep earlier masks from matching the probe key
        mega.insert(&kk, mask, path.clone());
    }
    let mut probe = key(77, 53);
    probe.udp_dst = 9999;
    g.bench_function("megaflow_hit_4_masks", |b| {
        b.iter(|| std::hint::black_box(mega.lookup(&probe, 1).0.is_some()))
    });
    g.finish();
}

fn config() -> Criterion {
    Criterion::default()
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(1))
        .sample_size(30)
}

criterion_group! {
    name = benches;
    config = config();
    targets = bench_linear_lookup, bench_tss_lookup, bench_install, bench_caches
}

fn main() {
    benches();
    // Per-add install cost by table size into the trajectory file: with
    // sub-linear adds it stays flat across sizes.
    let mut rep = report::Report::new();
    for n in INSTALL_SIZES {
        let ns = ns_per_add(n);
        println!("flowtable_install/{n}: {ns:.1} ns/add");
        rep.record(
            &format!("tables/flowtable_install/{n}"),
            &[("ns_per_add", ns)],
        );
    }
    report::publish(&rep);
}
