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

/// Pinned counters of the bulk-install scenario, plus an
/// order-sensitive digest of every software datapath's flow tables.
#[derive(Debug, PartialEq, Eq)]
struct InstallCounters {
    events: u64,
    flow_mods: u64,
    packet_ins: u64,
    tables_digest: u64,
}

/// FNV-1a over `bytes`, continuing from `h`.
fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Digest of every table of `dp`, in `entries()` order. Only the
/// OpenFlow-visible fields go in, so table bookkeeping can change
/// without moving it.
fn tables_digest(mut h: u64, dp: &softswitch::Datapath) -> u64 {
    for t in 0..dp.n_tables() {
        let table = dp.table(t).expect("table in range");
        h = fnv1a(h, &[t, 0xfe]);
        for e in table.entries() {
            let line = format!(
                "{} {:?} {:?} {:?} {:?} {} {} {} {} {} {} {} {}\n",
                e.priority,
                e.match_,
                e.key,
                e.mask,
                e.instructions,
                e.cookie,
                e.idle_timeout,
                e.hard_timeout,
                e.flags,
                e.packets,
                e.bytes,
                e.installed_ns,
                e.last_used_ns
            );
            h = fnv1a(h, line.as_bytes());
        }
    }
    h
}

/// An ArpProxy fabric (4 pods, soft spine): the handshake pushes every
/// host route to every datapath in bulk, a ping round runs, one host
/// migrates to another pod (its routes are deleted everywhere, then
/// re-installed for the new location), and a second ping round runs
/// with the migrant at its new port.
fn install_scenario() -> InstallCounters {
    use controller::apps::ArpProxy;
    use softswitch::SoftSwitchNode;
    const PODS: usize = 4;
    const PORTS: u16 = 8; // hosts on 1..=7; port 8 takes the migrant

    let mut net = Network::new(7);
    let ctrl = net.add_node(ControllerNode::new(
        "ctrl",
        vec![Box::new(ArpProxy::new()), Box::new(LearningSwitch::new())],
    ));
    let mut fx = FabricSpec::new(PODS as u16, HarmlessSpec::new(PORTS))
        .with_interconnect(Interconnect::SpineSoft)
        .with_arp_proxy(true)
        .build(&mut net)
        .expect("valid spec");
    fx.configure_direct(&mut net);
    fx.connect_controller(&mut net, ctrl);
    let mut hosts = Vec::new();
    for p in 0..PODS {
        for i in 1..PORTS {
            hosts.push(((p, i), fx.attach_host(&mut net, p, i).expect("free port")));
        }
    }
    net.run_until(SimTime::from_millis(100));

    let ping_round = |net: &mut Network, fx: &harmless::fabric::Fabric| {
        for &((p, i), h) in &hosts {
            let target = fx.host_ip((p + 1) % PODS, i);
            net.with_node_ctx::<Host, _>(h, move |h, ctx| {
                h.ping(b"install", target);
                h.flush(ctx);
            });
            net.run_for(SimTime::from_micros(50));
        }
    };
    ping_round(&mut net, &fx);
    net.run_until(SimTime::from_millis(400));
    // The migrant keeps its identity, so pings to (1, 1)'s address
    // follow it to pod 2.
    fx.migrate_host(&mut net, (1, 1), (2, PORTS))
        .expect("free target");
    net.run_until(SimTime::from_millis(450));
    ping_round(&mut net, &fx);
    net.run_until(SimTime::from_millis(900));

    let replies: u64 = hosts
        .iter()
        .map(|&(_, h)| net.node_ref::<Host>(h).echo_replies_received())
        .sum();
    assert_eq!(replies, 2 * hosts.len() as u64, "every ping answered");

    let mut switches: Vec<NodeId> = fx.pods().map(|p| p.ss2).collect();
    switches.extend(fx.spine().map(|s| s.node()));
    let mut digest = 0xcbf2_9ce4_8422_2325;
    for n in switches {
        digest = tables_digest(digest, net.node_ref::<SoftSwitchNode>(n).datapath());
    }
    let c = net.node_ref::<ControllerNode>(ctrl);
    InstallCounters {
        events: net.events_processed(),
        flow_mods: c.flow_mods_sent(),
        packet_ins: c.packet_ins(),
        tables_digest: digest,
    }
}

/// The bulk-install scenario's counters and table digest, recorded
/// before the flow table kept its own index: changes to table
/// bookkeeping must leave every entry, its order and its counters
/// where they were.
#[test]
fn install_scenario_is_pinned() {
    assert_eq!(install_scenario(), install_scenario(), "same seed diverged");
    assert_eq!(
        install_scenario(),
        InstallCounters {
            events: 3_185,
            flow_mods: 160,
            packet_ins: 28,
            tables_digest: 1_630_361_938_377_212_572,
        }
    );
}

/// Pinned counters of the hybrid scenario, plus a digest of every
/// sink's observables.
#[derive(Debug, PartialEq, Eq)]
struct HybridCounters {
    promotions: u64,
    demotions: u64,
    window_updates: u64,
    frames_modeled: u64,
    bytes_modeled: u64,
    events: u64,
    sinks_digest: u64,
}

/// An ArpProxy fabric (3 pods, soft spine) under the hybrid flow-level
/// engine: one CBR station pair per pod sends 6 host flows (two
/// destination ports shared by two flows each) to the next pod. Mid
/// epoch, between two `run_until` calls, a host migrates, which
/// rewrites routes on every datapath and demotes every converged bundle
/// on a live path; later, inside a call, pod 2's SS_2 power-cycles and
/// demotes the bundles through it. The bundles then re-promote and
/// retire.
fn hybrid_scenario() -> HybridCounters {
    use controller::apps::ArpProxy;
    use netsim::flowsim::FlowSim;
    const PODS: usize = 3;
    const PORTS: u16 = 4; // 1: generator, 2: sink, 3: host, 4: migration target

    let mut net = Network::new(23);
    let ctrl = net.add_node(ControllerNode::new(
        "ctrl",
        vec![Box::new(ArpProxy::new()), Box::new(LearningSwitch::new())],
    ));
    let mut fx = FabricSpec::new(PODS as u16, HarmlessSpec::new(PORTS))
        .with_interconnect(Interconnect::SpineSoft)
        .with_arp_proxy(true)
        .build(&mut net)
        .expect("valid spec");
    fx.configure_direct(&mut net);
    fx.connect_controller(&mut net, ctrl);
    fx.attach_host(&mut net, 0, 3).expect("free port");
    net.apply_faults(&netsim::FaultPlan::new().reset(SimTime::from_millis(452), fx.pod(2).ss2));

    let mut pairs = Vec::new();
    for p in 0..PODS {
        let (src, dst) = ((p, 1), ((p + 1) % PODS, 2));
        let flows = (0..6u16)
            .map(|i| {
                let mut f = FlowSpec::simple(1, 2, 128);
                f.src_mac = fx.host_mac(src.0, src.1);
                f.src_ip = fx.host_ip(src.0, src.1);
                f.dst_mac = fx.host_mac(dst.0, dst.1);
                f.dst_ip = fx.host_ip(dst.0, dst.1);
                f.src_port = 10_000 + i;
                f.dst_port = 20_000 + i % 4;
                f
            })
            .collect();
        let start = SimTime::from_millis(220) + SimTime::from_micros(11 * p as u64);
        let g = net.add_node(Generator::new(
            format!("gen{p}"),
            PortId(0),
            Pattern::Cbr {
                pps: 1_900.0 + 170.0 * p as f64,
            },
            flows,
            start,
            start + SimTime::from_millis(300),
        ));
        let s = net.add_node(Sink::new(format!("sink{p}")));
        fx.attach_station(&mut net, src.0, src.1, g)
            .expect("free src port");
        fx.attach_station(&mut net, dst.0, dst.1, s)
            .expect("free dst port");
        pairs.push((s, src, dst));
    }
    net.run_until(SimTime::from_millis(200));

    let mut fs = FlowSim::new(SimTime::from_millis(5));
    for &(_, src, dst) in &pairs {
        let spec = fx.flow_bundle(&net, src, dst);
        fs.add_bundle(&net, spec);
    }
    fs.run_until(&mut net, SimTime::from_millis(351));
    fx.migrate_host(&mut net, (0, 3), (1, 4))
        .expect("free target");
    fs.run_until(&mut net, SimTime::from_millis(700));
    assert!(fs.all_done(), "every bundle retires: {:?}", fs.stats());

    let mut digest = 0xcbf2_9ce4_8422_2325;
    for &(s, _, _) in &pairs {
        let sink = net.node_ref::<Sink>(s);
        let mut ports: Vec<(u16, u64)> = sink.by_dst_port().iter().map(|(&p, &n)| (p, n)).collect();
        ports.sort_unstable();
        let line = format!(
            "{} {} {} {ports:?}\n",
            sink.received(),
            sink.rx_bytes(),
            sink.latency().count()
        );
        digest = fnv1a(digest, line.as_bytes());
    }
    let st = fs.stats();
    HybridCounters {
        promotions: st.promotions,
        demotions: st.demotions,
        window_updates: st.window_updates,
        frames_modeled: st.frames_modeled,
        bytes_modeled: st.bytes_modeled,
        events: net.events_processed(),
        sinks_digest: digest,
    }
}

/// The hybrid scenario's engine counters and sink digest, recorded
/// while every window still credited the sinks' per-port shares
/// directly: how and when those shares are folded must not move a
/// single counter. The 351 ms stop is off the 5 ms grid, so it counts
/// no window update (154, not the 157 of a driver that ticked there).
#[test]
fn hybrid_scenario_is_pinned() {
    let c = hybrid_scenario();
    assert_eq!(c, hybrid_scenario(), "same seed diverged");
    assert_eq!(
        c,
        HybridCounters {
            promotions: 8,
            demotions: 5,
            window_updates: 154,
            frames_modeled: 1_610,
            bytes_modeled: 206_080,
            events: 6_229,
            sinks_digest: 5_311_766_725_861_238_153,
        }
    );
}
