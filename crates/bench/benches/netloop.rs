//! netloop — events/second of the netsim event loop on a fabric
//! workload.
//!
//! The workload is a scaled-down E3c: a 4-pod × 16-host fabric behind a
//! software spine with one learning controller, every host pinging its
//! partner in the next pod, then a second (converged, fast-path) round.
//! The event stream is deterministic, so events/second is comparable
//! across runs.
//!
//! Besides the criterion output, a single calibrated run is recorded to
//! `BENCH_netsim.json` so the performance trajectory is machine-readable
//! across PRs.

use criterion::{criterion_group, Criterion, Throughput};

use bench::report;
use controller::apps::LearningSwitch;
use controller::ControllerNode;
use harmless::fabric::{FabricSpec, Interconnect};
use harmless::instance::HarmlessSpec;
use netsim::host::Host;
use netsim::{Network, NodeId, SimTime};

const PODS: u16 = 4;
const HOSTS: u16 = 16;

/// Build the fabric, run both ping rounds, return total events processed.
fn fabric_ping_storm() -> u64 {
    let mut net = Network::new(5);
    let ctrl = net.add_node(ControllerNode::new(
        "ctrl",
        vec![Box::new(LearningSwitch::new())],
    ));
    let mut pod = HarmlessSpec::new(HOSTS).with_cores(8);
    pod.rx_queue = 1 << 16;
    let mut fx = FabricSpec::new(PODS, pod)
        .with_interconnect(Interconnect::SpineSoft)
        .build(&mut net)
        .expect("valid fabric spec");
    fx.configure_direct(&mut net);
    fx.connect_controller(&mut net, ctrl);
    let mut hosts: Vec<Vec<NodeId>> = Vec::new();
    for p in 0..usize::from(PODS) {
        hosts.push(
            (1..=HOSTS)
                .map(|i| fx.attach_host(&mut net, p, i).expect("free access port"))
                .collect(),
        );
    }
    net.run_until(SimTime::from_millis(100));
    for _round in 0..2 {
        for i in 1..=HOSTS {
            for (p, pod_hosts) in hosts.iter().enumerate() {
                let target = fx.host_ip((p + 1) % usize::from(PODS), i);
                let h = pod_hosts[usize::from(i) - 1];
                net.with_node_ctx::<Host, _>(h, move |h, ctx| {
                    h.ping(b"netloop", target);
                    h.flush(ctx);
                });
            }
            net.run_for(SimTime::from_micros(400));
        }
        net.run_for(SimTime::from_millis(500));
    }
    let replies: u64 = hosts
        .iter()
        .flatten()
        .map(|&h| net.node_ref::<Host>(h).echo_replies_received())
        .sum();
    assert_eq!(
        replies,
        2 * u64::from(PODS) * u64::from(HOSTS),
        "workload must fully converge"
    );
    net.events_processed()
}

fn bench_netloop(c: &mut Criterion) {
    // Run once to size the throughput denominator.
    let events = fabric_ping_storm();
    let mut g = c.benchmark_group("netloop");
    g.sample_size(10);
    g.throughput(Throughput::Elements(events));
    g.bench_function("single_queue", |b| b.iter(fabric_ping_storm));
    g.finish();
}

criterion_group!(benches, bench_netloop);

fn main() {
    benches();
    // One calibrated run into the machine-readable trajectory.
    let t0 = std::time::Instant::now();
    let events = fabric_ping_storm();
    let wall = t0.elapsed().as_secs_f64();
    let mut rep = report::Report::new();
    rep.record(
        &format!("netloop/fabric_{PODS}x{HOSTS}/single_queue"),
        &[
            ("events", events as f64),
            ("wall_s", wall),
            ("events_per_sec", events as f64 / wall),
        ],
    );
    report::publish(&rep);
}
