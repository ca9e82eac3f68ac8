//! Flow-level hybrid engine tests: packet ≡ flow equivalence on random
//! small fabrics, demotion-on-fault lifecycle, and same-seed
//! determinism for hybrid runs.
//!
//! The contract under test: promoting converged bundles out of the
//! packet engine and advancing them analytically must not change any
//! observable a converged run produces — delivered frame/byte counts,
//! per-destination-port breakdowns, latency sample counts — and the
//! promotion/demotion machinery itself must be deterministic.

use harmless::fabric::{Fabric, FabricSpec, Interconnect};
use harmless::instance::HarmlessSpec;
use netsim::flowsim::FlowSim;
use netsim::traffic::{FlowSpec, Generator, Pattern, Sink};
use netsim::{FaultPlan, Network, NodeId, PortId, SimTime};
use proptest::prelude::*;

/// Station ports start here; ports below carry nothing (the fabric
/// needs ≥ 2 access ports per pod for validation anyway).
const PORTS: u16 = 4;

/// `(generator, sink, src (pod, port), dst (pod, port))`.
type Pair = (NodeId, NodeId, (usize, u16), (usize, u16));

struct Rig {
    net: Network,
    fx: Fabric,
    pairs: Vec<Pair>,
}

/// An ARP-proxied (or L3-routed) fabric with one generator→sink station
/// pair per pod, each sending `flows_per_pair` staggered CBR host
/// flows to the station of the next pod (or across the same pod when
/// there is only one). Proactive routes are mandatory for flow-level
/// work: a flooding learning fabric never quiesces.
fn build_rig(seed: u64, n_pods: u16, l3: bool, flows_per_pair: u16, base_pps: f64) -> Rig {
    let mut net = Network::new(seed);
    let apps: Vec<Box<dyn controller::App>> = if l3 {
        vec![
            Box::new(controller::apps::ArpProxy::new()),
            Box::new(controller::apps::router::Router::new()),
        ]
    } else {
        vec![
            Box::new(controller::apps::ArpProxy::new()),
            Box::new(controller::apps::LearningSwitch::new()),
        ]
    };
    let ctrl = net.add_node(controller::ControllerNode::new("ctrl", apps));
    let mut spec = FabricSpec::new(n_pods, HarmlessSpec::new(PORTS))
        .with_interconnect(Interconnect::SpineSoft)
        .with_arp_proxy(true);
    if l3 {
        spec = spec.with_l3_routing();
    }
    let mut fx = spec.build(&mut net).expect("valid fabric spec");
    fx.configure_direct(&mut net);
    fx.connect_controller(&mut net, ctrl);

    let mut pairs = Vec::new();
    for p in 0..usize::from(n_pods) {
        let q = (p + 1) % usize::from(n_pods);
        let (src, dst) = ((p, PORTS - 1), (q, PORTS));
        let flows: Vec<FlowSpec> = (0..flows_per_pair)
            .map(|i| {
                let mut f = FlowSpec::simple(1, 2, 128);
                f.src_mac = fx.host_mac(src.0, src.1);
                f.src_ip = fx.host_ip(src.0, src.1);
                f.dst_ip = fx.host_ip(dst.0, dst.1);
                // Routed frames are addressed to the pod router; L2
                // frames straight to the sink's MAC.
                f.dst_mac = if l3 {
                    harmless::fabric::router_mac(src.0)
                } else {
                    fx.host_mac(dst.0, dst.1)
                };
                f.src_port = 10_000 + i;
                f.dst_port = 20_000 + i;
                f
            })
            .collect();
        // Staggered starts and slightly different rates so bundles do
        // not tick in lockstep; low rates keep service queues shallow
        // (modeled frames do not contend, so equivalence needs an
        // uncongested fabric).
        let g = net.add_node(Generator::new(
            format!("gen{p}"),
            PortId(0),
            Pattern::Cbr {
                pps: base_pps + 130.0 * p as f64,
            },
            flows,
            SimTime::from_millis(220) + SimTime::from_micros(7 * p as u64),
            SimTime::from_millis(420) + SimTime::from_micros(7 * p as u64),
        ));
        let s = net.add_node(Sink::new(format!("sink{q}")));
        fx.attach_station(&mut net, src.0, src.1, g)
            .expect("free src port");
        fx.attach_station(&mut net, dst.0, dst.1, s)
            .expect("free dst port");
        pairs.push((g, s, src, dst));
    }
    Rig { net, fx, pairs }
}

/// Warm up and register every pair as a bundle under the selected
/// engine.
fn start(rig: &mut Rig, hybrid: bool) -> FlowSim {
    rig.net.run_until(SimTime::from_millis(200));
    let window = SimTime::from_millis(5);
    let mut fs = if hybrid {
        FlowSim::new(window)
    } else {
        FlowSim::packet_level(window)
    };
    for &(_, _, src, dst) in &rig.pairs {
        let spec = rig.fx.flow_bundle(&rig.net, src, dst);
        fs.add_bundle(&rig.net, spec);
    }
    fs
}

/// Render the observables the equivalence contract covers.
fn observe(rig: &Rig) -> String {
    let mut out = String::new();
    for (i, &(g, s, _, _)) in rig.pairs.iter().enumerate() {
        let gen = rig.net.node_ref::<Generator>(g);
        let sink = rig.net.node_ref::<Sink>(s);
        let mut ports: Vec<(u16, u64)> = sink.by_dst_port().iter().map(|(&p, &n)| (p, n)).collect();
        ports.sort_unstable();
        out.push_str(&format!(
            "pair{i}: sent={} sent_bytes={} rx={} rx_bytes={} lat_count={} ports={ports:?}\n",
            gen.sent(),
            gen.sent_bytes(),
            sink.received(),
            sink.rx_bytes(),
            sink.latency().count(),
        ));
    }
    out
}

/// Warm up, register every pair as a bundle, drive to 500 ms, and
/// render the observables the equivalence contract covers, with the
/// engine and the network's event count.
fn run_and_observe(mut rig: Rig, hybrid: bool) -> (String, FlowSim, u64) {
    let mut fs = start(&mut rig, hybrid);
    fs.run_until(&mut rig.net, SimTime::from_millis(500));
    (observe(&rig), fs, rig.net.events_processed())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Packet ≡ flow equivalence: on a random 1–3-pod fabric (L2
    /// proxied or L3 routed), the hybrid engine must reproduce the
    /// packet engine's delivered counts, byte totals, per-port
    /// breakdowns and latency sample counts exactly — while actually
    /// promoting (and modeling most of the traffic, or the test is
    /// vacuous).
    #[test]
    fn hybrid_matches_packet_level(
        pods in 1u16..=3,
        l3 in any::<bool>(),
        seed in 0u64..1_000,
    ) {
        let flows = 4;
        let pps = 2_000.0;
        let (packet_obs, packet_fs, _) =
            run_and_observe(build_rig(seed, pods, l3, flows, pps), false);
        let (hybrid_obs, hybrid_fs, _) =
            run_and_observe(build_rig(seed, pods, l3, flows, pps), true);
        prop_assert_eq!(&hybrid_obs, &packet_obs, "observables diverge");
        prop_assert_eq!(packet_fs.stats().promotions, 0);
        prop_assert!(
            hybrid_fs.stats().promotions >= u64::from(pods),
            "every bundle should promote on a quiet fabric: {:?}",
            hybrid_fs.stats()
        );
        prop_assert!(hybrid_fs.all_done());
        prop_assert!(hybrid_fs.stats().frames_modeled > 0);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Split runs ≡ one run: driving the hybrid engine through several
    /// [`FlowSim::run_until`] calls that stop between window boundaries
    /// must end with the observables, engine counters and event count
    /// of one call: an off-grid stop is no extra tick. At every stop each
    /// sink's per-port shares must already add up to its received
    /// count — the engine owes no unfolded credit once a call returns.
    #[test]
    fn split_runs_match_one_run(
        pods in 1u16..=3,
        l3 in any::<bool>(),
        seed in 0u64..1_000,
        stops in prop::collection::vec(0u64..300_000, 2..7),
    ) {
        let (one_call, one_fs, one_events) =
            run_and_observe(build_rig(seed, pods, l3, 4, 2_000.0), true);
        let mut rig = build_rig(seed, pods, l3, 4, 2_000.0);
        let mut fs = start(&mut rig, true);
        let mut stops: Vec<SimTime> = stops
            .iter()
            // 200 ms + k µs, never on the 5 ms window grid.
            .map(|&us| SimTime::from_micros(200_000 + us + u64::from(us % 5_000 == 0)))
            .collect();
        stops.sort_unstable();
        stops.push(SimTime::from_millis(500));
        for &stop in &stops {
            fs.run_until(&mut rig.net, stop);
            for &(_, s, _, _) in &rig.pairs {
                let sink = rig.net.node_ref::<Sink>(s);
                let by_port: u64 = sink.by_dst_port().values().sum();
                prop_assert_eq!(by_port, sink.received(), "unfolded shares at {:?}", stop);
            }
        }
        prop_assert_eq!(observe(&rig), one_call, "split run diverged");
        prop_assert_eq!(fs.stats(), one_fs.stats(), "engine counters diverged");
        prop_assert_eq!(rig.net.events_processed(), one_events, "event count diverged");
        prop_assert!(fs.all_done() && one_fs.all_done());
        prop_assert!(fs.stats().promotions >= u64::from(pods));
    }
}

/// Demotion on fault: flap a path link mid-epoch. The bundle must be
/// promoted before the fault, demoted by it, re-promoted after repair,
/// and still retire; packet-level losses are bounded by the outage.
#[test]
fn fault_demotes_and_repromotes() {
    let mut rig = build_rig(77, 2, false, 4, 2_000.0);
    // Flap the spine↔pod1 uplink (the path of pair 0) for 40 ms in the
    // middle of the epoch.
    let uplink = PortId(PORTS + 1);
    let pod1_ss2 = rig.fx.pod(1).ss2;
    let plan = FaultPlan::new().link_flap(
        SimTime::from_millis(300),
        SimTime::from_millis(40),
        pod1_ss2,
        uplink,
    );
    rig.net.apply_faults(&plan);
    rig.net.run_until(SimTime::from_millis(200));

    let mut fs = FlowSim::new(SimTime::from_millis(5));
    let pair0 = (rig.pairs[0].2, rig.pairs[0].3);
    let spec = rig.fx.flow_bundle(&rig.net, pair0.0, pair0.1);
    let (g, s) = (rig.pairs[0].0, rig.pairs[0].1);
    let b = fs.add_bundle(&rig.net, spec);
    fs.run_until(&mut rig.net, SimTime::from_millis(290));
    assert!(
        fs.bundle_modeled(b),
        "bundle should be promoted before the fault: {:?}",
        fs.stats()
    );
    fs.run_until(&mut rig.net, SimTime::from_millis(600));
    let stats = *fs.stats();
    assert!(stats.demotions >= 1, "link flap must demote: {stats:?}");
    assert!(
        stats.promotions >= 2,
        "bundle must re-promote after repair: {stats:?}"
    );
    assert!(fs.all_done(), "bundle must retire: {stats:?}");
    let sent = rig.net.node_ref::<Generator>(g).sent();
    let rx = rig.net.node_ref::<Sink>(s).received();
    assert!(rx < sent, "a 40 ms outage must lose frames");
    // Outage bound: at 2000 pps a 40 ms hole plus the modeled in-flight
    // tail cannot cost more than ~100 frames.
    assert!(
        sent - rx < 150,
        "losses beyond the outage window: sent={sent} rx={rx}"
    );
}

/// Hybrid runs are deterministic: the driver slices at fixed window
/// multiples and mutates nodes only between slices, so two runs with
/// the same seed agree on promotion/demotion decisions and modeled
/// credits.
#[test]
fn hybrid_same_seed_determinism() {
    let observe = || -> (String, u64, u64) {
        let (obs, fs, _) = run_and_observe(build_rig(13, 3, false, 4, 2_000.0), true);
        (obs, fs.stats().promotions, fs.stats().frames_modeled)
    };
    assert_eq!(observe(), observe());
}
