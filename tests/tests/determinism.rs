//! Determinism oracle on a full fabric workload (hosts, generators,
//! sinks, learning controller, spine).
//!
//! The contract under test: the simulator is a pure function of its
//! seed and inputs. Two runs with the same seed render byte-identical
//! observables — per-pod rollups, latency histograms, host reply
//! counts, arrival times and the event count — and the deterministic
//! counters are pinned exactly, so any change to event order, event
//! count or control-plane behaviour shows up here.

use controller::apps::LearningSwitch;
use controller::ControllerNode;
use harmless::fabric::{FabricSpec, Interconnect};
use harmless::instance::HarmlessSpec;
use netsim::host::Host;
use netsim::stats::Rollup;
use netsim::traffic::{FlowSpec, Generator, Pattern, Sink};
use netsim::{Network, NodeId, PortId, SimTime};

const PODS: u16 = 3;
const PORTS: u16 = 3; // ports 1..2 carry pinging hosts, port 3 gen/sink

/// Exactly pinned counters of one run.
#[derive(Debug, PartialEq, Eq)]
struct Counters {
    events: u64,
    delivered_frames: u64,
    packet_ins: u64,
}

/// Run the scenario and render every observable into one string:
/// per-pod `Rollup` stats, host reply counts, sink arrival times and
/// the event count; plus the counters pinned by
/// [`counters_are_pinned`].
fn observables() -> (String, Counters) {
    let mut net = Network::new(11);
    let ctrl = net.add_node(ControllerNode::new(
        "ctrl",
        vec![Box::new(LearningSwitch::new())],
    ));
    let mut fx = FabricSpec::new(PODS, HarmlessSpec::new(PORTS))
        .with_interconnect(Interconnect::SpineSoft)
        .build(&mut net)
        .expect("valid spec");
    fx.configure_direct(&mut net);
    fx.connect_controller(&mut net, ctrl);

    // Ports 1..2 of every pod: pinging hosts.
    let mut hosts: Vec<Vec<NodeId>> = Vec::new();
    for p in 0..usize::from(PODS) {
        hosts.push(
            (1..PORTS)
                .map(|i| fx.attach_host(&mut net, p, i).expect("free port"))
                .collect(),
        );
    }
    // Port 3: a stamped generator in pod 0 feeding a sink in pod 1 —
    // cross-pod measured traffic so the per-pod rollups have latency
    // histograms, not just counters.
    let g = net.add_node(Generator::new(
        "xpod-gen",
        PortId(0),
        Pattern::Cbr { pps: 20_000.0 },
        vec![{
            let mut f = FlowSpec::simple(1, 2, 128);
            f.src_mac = fx.host_mac(0, PORTS);
            f.dst_mac = fx.host_mac(1, PORTS);
            f.src_ip = fx.host_ip(0, PORTS);
            f.dst_ip = fx.host_ip(1, PORTS);
            f
        }],
        SimTime::from_millis(120),
        SimTime::from_millis(140),
    ));
    let s = net.add_node(Sink::new("xpod-sink"));
    fx.attach_node(&mut net, 0, PORTS, g).expect("free port");
    fx.attach_node(&mut net, 1, PORTS, s).expect("free port");

    net.run_until(SimTime::from_millis(100));
    // Every host pings its partner in the next pod, staggered.
    for i in 1..PORTS {
        for (p, pod_hosts) in hosts.iter().enumerate() {
            let target = fx.host_ip((p + 1) % usize::from(PODS), i);
            let h = pod_hosts[usize::from(i) - 1];
            net.with_node_ctx::<Host, _>(h, move |h, ctx| {
                h.ping(b"determinism", target);
                h.flush(ctx);
            });
        }
        net.run_for(SimTime::from_micros(300));
    }
    net.run_until(SimTime::from_millis(400));

    let mut out = String::new();
    for (p, pod_hosts) in hosts.iter().enumerate() {
        let mut roll = Rollup::new();
        for &h in pod_hosts {
            let host = net.node_ref::<Host>(h);
            roll.absorb(host.rx_frames(), 0, &netsim::Histogram::new());
            out.push_str(&format!(
                "pod{p} host n{}: replies={} answered={} rx={}\n",
                h.0,
                host.echo_replies_received(),
                host.echo_requests_answered(),
                host.rx_frames()
            ));
        }
        if p == 1 {
            net.node_ref::<Sink>(s).roll_into(&mut roll);
        }
        let lat = &roll.latency;
        out.push_str(&format!(
            "pod{p} rollup: frames={} bytes={} lat_count={} p50={} p99={} max={} mean={:.3}\n",
            roll.frames,
            roll.bytes,
            lat.count(),
            lat.p50(),
            lat.p99(),
            lat.max(),
            lat.mean()
        ));
    }
    let sink = net.node_ref::<Sink>(s);
    out.push_str(&format!(
        "sink: received={} unstamped={} rx_pps={:.3}\n",
        sink.received(),
        sink.unstamped(),
        sink.rx_pps()
    ));
    out.push_str(&format!(
        "ctrl: packet_ins={} flow_mods={}\n",
        net.node_ref::<ControllerNode>(ctrl).packet_ins(),
        net.node_ref::<ControllerNode>(ctrl).flow_mods_sent()
    ));
    out.push_str(&format!("events={}\n", net.events_processed()));
    let counters = Counters {
        events: net.events_processed(),
        delivered_frames: net.delivered_frames(),
        packet_ins: net.node_ref::<ControllerNode>(ctrl).packet_ins(),
    };
    (out, counters)
}

#[test]
fn same_seed_gives_identical_observables() {
    let (a, _) = observables();
    let (b, _) = observables();
    assert_eq!(a, b, "two runs with the same seed diverged");
    // The workload actually converged (this is not vacuous).
    assert!(a.contains("replies=1"), "hosts got replies:\n{a}");
    assert!(!a.contains("received=0"), "sink saw traffic:\n{a}");
}

/// The counters of the seed-11 run, recorded from the single-queue
/// engine. A change here means event order, event count or
/// control-plane behaviour changed: re-record only for an intended
/// behaviour change, and say so.
#[test]
fn counters_are_pinned() {
    let (_, c) = observables();
    assert_eq!(
        c,
        Counters {
            events: 35_825,
            delivered_frames: 11_918,
            packet_ins: 1_648,
        }
    );
}
