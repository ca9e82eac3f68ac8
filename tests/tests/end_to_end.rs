//! Cross-crate integration tests: the full HARMLESS stack assembled from
//! public APIs, exercised end to end.

use controller::apps::{LearningSwitch, StaticForwarder};
use controller::ControllerNode;
use harmless::fabric::{FabricSpec, Interconnect};
use harmless::instance::{HarmlessSpec, Variant};
use harmless::manager::{HarmlessManager, ManagerConfig, ManagerPhase};
use legacy_switch::LegacySwitchNode;
use netsim::host::Host;
use netsim::traffic::{FlowSpec, Generator, Pattern, Sink};
use netsim::{LinkSpec, Network, PortId, SimTime};
use softswitch::SoftSwitchNode;

/// The paper's demo, end to end: full automated migration, then all
/// use-case-style traffic through the migrated switch.
#[test]
fn migrate_then_forward() {
    let mut net = Network::new(1001);
    let ctrl = net.add_node(ControllerNode::new(
        "ctrl",
        vec![Box::new(LearningSwitch::new())],
    ));
    let mut fx = FabricSpec::single(HarmlessSpec::new(8))
        .build(&mut net)
        .expect("valid single-pod spec");
    let mgr = fx
        .run_migration_wave(&mut net, &[0], ctrl)
        .expect("two-switch pod")[0];
    let hosts: Vec<_> = (1..=8)
        .map(|i| fx.attach_host(&mut net, 0, i).expect("free access port"))
        .collect();

    net.run_until(SimTime::from_secs(2));
    assert_eq!(
        *net.node_ref::<HarmlessManager>(mgr).phase(),
        ManagerPhase::Done,
        "migration must complete"
    );

    // All-pairs ping (sequentially, like an operator's smoke test).
    for (i, &host) in hosts.iter().enumerate() {
        let to = std::net::Ipv4Addr::new(10, 0, 0, ((i + 1) % hosts.len() + 1) as u8);
        net.with_node_ctx::<Host, _>(host, move |h, ctx| {
            h.ping(b"smoke", to);
            h.flush(ctx);
        });
        net.run_for(SimTime::from_millis(200));
    }
    for (i, &h) in hosts.iter().enumerate() {
        assert_eq!(
            net.node_ref::<Host>(h).echo_replies_received(),
            1,
            "host {} must reach its neighbour",
            i + 1
        );
    }
}

/// The controller sees SS_2 as an ordinary N-port switch: port numbers in
/// packet-ins match legacy access ports, and no VLAN tags ever leak into
/// controller-visible frames.
#[test]
fn transparency_port_numbering_and_no_tag_leak() {
    let mut net = Network::new(1002);
    let ctrl = net.add_node(ControllerNode::new(
        "ctrl",
        vec![Box::new(LearningSwitch::new())],
    ));
    let mut fx = FabricSpec::single(HarmlessSpec::new(4))
        .build(&mut net)
        .expect("valid single-pod spec");
    fx.configure_direct(&mut net);
    fx.connect_controller(&mut net, ctrl);
    let h3 = fx.attach_host(&mut net, 0, 3).expect("free access port");
    let _h4 = fx.attach_host(&mut net, 0, 4).expect("free access port");
    net.run_until(SimTime::from_millis(100));

    net.with_node_ctx::<Host, _>(h3, |h, ctx| {
        h.ping(b"transparent?", "10.0.0.4".parse().unwrap());
        h.flush(ctx);
    });
    net.run_until(SimTime::from_millis(400));

    // The learning app must have learned h3's MAC on *port 3* — the same
    // number as the legacy access port.
    let mut learned = None;
    net.with_node_ctx::<ControllerNode, _>(ctrl, |c, _| {
        if let Some(app) = c.app_mut::<LearningSwitch>() {
            learned = app.lookup(0x52, netpkt::MacAddr::host(3));
        }
    });
    assert_eq!(
        learned,
        Some(3),
        "controller-visible port = legacy access port"
    );
    assert_eq!(net.node_ref::<Host>(h3).echo_replies_received(), 1);
}

/// Migration against an uncooperative device rolls back and leaves the
/// dataplane functioning as a plain legacy switch.
#[test]
fn failed_migration_leaves_legacy_network_working() {
    let mut net = Network::new(1003);
    let ctrl = net.add_node(ControllerNode::new("ctrl", vec![]));
    let mut fx = FabricSpec::single(HarmlessSpec::new(4))
        .build(&mut net)
        .expect("valid single-pod spec");
    let mut cfg = ManagerConfig::for_instance(fx.pod(0), ctrl);
    cfg.fail_verify_at = Some(2);
    let mgr = net.add_node(HarmlessManager::new(cfg));
    let a = fx.attach_host(&mut net, 0, 1).expect("free access port");
    let b = fx.attach_host(&mut net, 0, 2).expect("free access port");
    net.run_until(SimTime::from_secs(2));
    assert!(matches!(
        net.node_ref::<HarmlessManager>(mgr).phase(),
        ManagerPhase::RolledBack(_)
    ));
    // Factory default = one flat VLAN: hosts still reach each other
    // through the (un-migrated) legacy switch.
    net.with_node_ctx::<Host, _>(a, |h, ctx| {
        h.ping(b"still works", "10.0.0.2".parse().unwrap());
        h.flush(ctx);
    });
    net.run_until(SimTime::from_secs(3));
    assert_eq!(net.node_ref::<Host>(a).echo_replies_received(), 1);
    let _ = b;
}

/// Sustained line-rate traffic through the whole stack loses nothing and
/// keeps latency bounded (the E1/E2 claims as a regression test).
#[test]
fn line_rate_no_loss_regression() {
    let mut net = Network::new(1004);
    let ctrl = net.add_node(ControllerNode::new(
        "ctrl",
        vec![Box::new(StaticForwarder::bidirectional(&[(1, 2)]))],
    ));
    let mut fx = FabricSpec::single(HarmlessSpec::new(2))
        .build(&mut net)
        .expect("valid single-pod spec");
    fx.configure_direct(&mut net);
    fx.connect_controller(&mut net, ctrl);
    // 80% of gigabit line rate, 512-byte frames, 100 ms.
    let pps = netsim::measure::line_rate_pps(1_000_000_000, 512) * 0.8;
    let g = net.add_node(Generator::new(
        "gen",
        PortId(0),
        Pattern::Cbr { pps },
        vec![FlowSpec::simple(1, 2, 512)],
        SimTime::from_millis(100),
        SimTime::from_millis(200),
    ));
    let s = net.add_node(Sink::new("sink"));
    fx.attach_node(&mut net, 0, 1, g).expect("free access port");
    fx.attach_node(&mut net, 0, 2, s).expect("free access port");
    net.run_until(SimTime::from_millis(500));
    let sent = net.node_ref::<Generator>(g).sent();
    let sink = net.node_ref::<Sink>(s);
    assert_eq!(sink.received(), sent, "no loss at 80% line rate");
    assert!(
        sink.latency().p99() < 100_000,
        "p99 {}ns under 100µs",
        sink.latency().p99()
    );
}

/// The merged-variant ablation forwards the same traffic with one fewer
/// software hop (E7's functional core).
#[test]
fn merged_variant_equivalence() {
    for variant in [Variant::TwoSwitch, Variant::Merged] {
        let mut net = Network::new(1005);
        let mut fx = FabricSpec::single(HarmlessSpec::new(2).with_variant(variant))
            .build(&mut net)
            .expect("the merged variant is allowed in single-pod fabrics");
        fx.configure_direct(&mut net);
        let hx = fx.pod(0);
        match variant {
            Variant::TwoSwitch => {
                let dp = net.node_mut::<SoftSwitchNode>(hx.ss2).datapath_mut();
                for (a, b) in [(1u32, 2u32), (2, 1)] {
                    dp.apply_flow_mod(
                        openflow::message::FlowMod::add(0)
                            .priority(10)
                            .match_(openflow::Match::new().in_port(a))
                            .apply(vec![openflow::Action::output(b)]),
                        0,
                    )
                    .unwrap();
                }
            }
            Variant::Merged => {
                let r12 = hx.merged_wiring_rule(1, 2);
                let r21 = hx.merged_wiring_rule(2, 1);
                let dp = net.node_mut::<SoftSwitchNode>(hx.ss2).datapath_mut();
                dp.apply_flow_mod(r12, 0).unwrap();
                dp.apply_flow_mod(r21, 0).unwrap();
            }
        }
        let a = fx.attach_host(&mut net, 0, 1).expect("free access port");
        let b = fx.attach_host(&mut net, 0, 2).expect("free access port");
        net.node_mut::<Host>(a)
            .ping(b"variant", "10.0.0.2".parse().unwrap());
        net.run_until(SimTime::from_millis(300));
        assert_eq!(
            net.node_ref::<Host>(a).echo_replies_received(),
            1,
            "variant {variant:?} must forward"
        );
        let _ = b;
    }
}

/// Multi-pod transparency: one controller over a 2-pod fabric sees each
/// pod as an ordinary switch with its own dpid, learns cross-pod MACs on
/// the uplink port, and sustains generator traffic between pods with no
/// loss.
#[test]
fn cross_pod_traffic_and_transparency() {
    let mut net = Network::new(1007);
    let ctrl = net.add_node(ControllerNode::new(
        "ctrl",
        vec![Box::new(LearningSwitch::new())],
    ));
    let mut fx = FabricSpec::new(2, HarmlessSpec::new(4))
        .with_interconnect(Interconnect::SpineSoft)
        .build(&mut net)
        .expect("valid fabric spec");
    fx.configure_direct(&mut net);
    fx.connect_controller(&mut net, ctrl);
    let a = fx.attach_host(&mut net, 0, 1).expect("free access port");
    let b = fx.attach_host(&mut net, 1, 2).expect("free access port");
    net.run_until(SimTime::from_millis(100));
    // Pods + the soft spine all completed the handshake.
    assert_eq!(net.node_ref::<ControllerNode>(ctrl).ready_switches(), 3);

    let b_ip = fx.host_ip(1, 2);
    net.with_node_ctx::<Host, _>(a, move |h, ctx| {
        h.ping(b"cross-pod", b_ip);
        h.flush(ctx);
    });
    net.run_until(SimTime::from_millis(500));
    assert_eq!(net.node_ref::<Host>(a).echo_replies_received(), 1);

    // Transparency per pod: pod 1's learning entry for host b is its
    // access port (2); pod 0 learned b's MAC behind its uplink port.
    let (dpid0, dpid1) = (fx.pod(0).spec.ss2_dpid, fx.pod(1).spec.ss2_dpid);
    assert_ne!(dpid0, dpid1, "pods must be distinct datapaths");
    let b_mac = fx.host_mac(1, 2);
    let uplink = fx.pod(0).uplink_port(1);
    let mut local = None;
    let mut remote = None;
    net.with_node_ctx::<ControllerNode, _>(ctrl, |c, _| {
        if let Some(app) = c.app_mut::<LearningSwitch>() {
            local = app.lookup(dpid1, b_mac);
            remote = app.lookup(dpid0, b_mac);
        }
    });
    assert_eq!(local, Some(2), "pod-local port numbering is preserved");
    assert_eq!(
        remote,
        Some(uplink),
        "cross-pod MACs live behind the uplink"
    );

    // Sustained generator traffic across the fabric, zero loss.
    let pps = 20_000.0;
    let flows = vec![netsim::traffic::FlowSpec {
        src_mac: fx.host_mac(0, 3),
        dst_mac: b_mac,
        src_ip: fx.host_ip(0, 3),
        dst_ip: b_ip,
        src_port: 7000,
        dst_port: 7001,
        frame_len: 256,
    }];
    let g = net.add_node(Generator::new(
        "gen",
        PortId(0),
        Pattern::Cbr { pps },
        flows,
        net.now() + SimTime::from_millis(100),
        net.now() + SimTime::from_millis(300),
    ));
    fx.attach_node(&mut net, 0, 3, g).expect("free access port");
    net.run_for(SimTime::from_millis(600));
    let sent = net.node_ref::<Generator>(g).sent();
    assert_eq!(sent, 4000, "20 kpps x 200 ms");
    let delivered = net
        .node_ref::<Host>(b)
        .mailbox()
        .iter()
        .filter(|d| d.dst_port == 7001)
        .count() as u64;
    assert_eq!(
        delivered, sent,
        "every generated frame must cross the fabric"
    );
}

/// The legacy switch keeps plain L2 semantics for unmanaged traffic: a
/// host on a port outside the HARMLESS port map still works via VLAN 1.
#[test]
fn legacy_switch_is_still_a_switch() {
    let mut net = Network::new(1006);
    let sw = net.add_node(LegacySwitchNode::new("sw", 8));
    let a = net.add_node(Host::new(
        "a",
        netpkt::MacAddr::host(1),
        "10.1.0.1".parse().unwrap(),
    ));
    let b = net.add_node(Host::new(
        "b",
        netpkt::MacAddr::host(2),
        "10.1.0.2".parse().unwrap(),
    ));
    net.connect(a, PortId(0), sw, PortId(7), LinkSpec::gigabit());
    net.connect(b, PortId(0), sw, PortId(8), LinkSpec::gigabit());
    net.node_mut::<Host>(a)
        .ping(b"plain l2", "10.1.0.2".parse().unwrap());
    net.run_until(SimTime::from_millis(100));
    assert_eq!(net.node_ref::<Host>(a).echo_replies_received(), 1);
}
