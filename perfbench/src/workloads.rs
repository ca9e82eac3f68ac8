//! The four fabric workloads, driven through the public workspace APIs
//! (`FabricSpec` → `Fabric`, `Network`, `FlowSim`) on the single-queue
//! engine with one simulation thread.
//!
//! Why each workload exists:
//! - `install_16x512` loads the control-plane write path: the handshake
//!   pushes 8,192 proactive ARP-proxy flow-mods into each of 17
//!   datapaths, and applying them dominates its convergence.
//! - `flood_2x512` loads reactive convergence: ARP floods through the
//!   legacy bridges, SS_1/SS_2 and the spine, and the packet-in slow
//!   path into the learning app.
//! - `epoch_packet_16x512` loads the packet datapath and the event
//!   engine with a converged, idle control plane: cached-datapath,
//!   service-queue and dispatch changes show here, install and flood
//!   changes must not.
//! - `epoch_hybrid_64x4096` is the only workload that runs the
//!   flow-level engine's window arithmetic and residency probes, and
//!   measures memory and set-up at scale.
//!
//! Each workload takes its seed from the command line and passes it
//! only to `Network::new` and `TrafficMatrix::heavy_tailed`.

use crate::layers::{self, Counters, SwitchCounters};
use crate::trace::{self, Kind, Recorder, Timed};
use bytes::Bytes;
use controller::apps::{ArpProxy, LearningSwitch};
use controller::{App, ControllerNode};
use harmless::fabric::{Fabric, FabricSpec, Interconnect};
use harmless::instance::HarmlessSpec;
use netsim::host::Host;
use netsim::traffic::{FlowSpec, Generator, Pattern, Sink, TrafficMatrix};
use netsim::{FlowSim, Network, Node, NodeId, PortId, SimTime};
use softswitch::SoftSwitchNode;
use std::time::Instant;

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// E3c `--arp-proxy`: 16 pods × 512 hosts, proactive installs.
    Install16x512,
    /// E3c baseline: 2 pods × 512 hosts, reactive learning only.
    Flood2x512,
    /// Heavy-tailed epoch, 16 pods × 8 bundles × 64 flows, packet engine.
    EpochPacket16x512,
    /// Heavy-tailed epoch, 64 pods × 8 bundles × 512 flows, hybrid engine.
    EpochHybrid64x4096,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 4] = [
        Workload::Install16x512,
        Workload::Flood2x512,
        Workload::EpochPacket16x512,
        Workload::EpochHybrid64x4096,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Install16x512 => "install_16x512",
            Workload::Flood2x512 => "flood_2x512",
            Workload::EpochPacket16x512 => "epoch_packet_16x512",
            Workload::EpochHybrid64x4096 => "epoch_hybrid_64x4096",
        }
    }

    /// Look a workload up by name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The seed of the scenario this workload reproduces; its outputs
    /// are recorded in `expected.rs`.
    pub fn default_seed(self) -> u64 {
        match self {
            Workload::Install16x512 | Workload::Flood2x512 => 5,
            Workload::EpochPacket16x512 | Workload::EpochHybrid64x4096 => 31,
        }
    }

    fn spec(self) -> Spec {
        match self {
            Workload::Install16x512 => Spec::Ping(Ping {
                pods: 16,
                hosts_per_pod: 512,
                arp_proxy: true,
                rounds: 7,
            }),
            Workload::Flood2x512 => Spec::Ping(Ping {
                pods: 2,
                hosts_per_pod: 512,
                arp_proxy: false,
                rounds: 80,
            }),
            Workload::EpochPacket16x512 => Spec::Epoch(Epoch {
                pods: 16,
                bundles_per_pod: 8,
                flows_per_bundle: 64,
                hybrid: false,
            }),
            Workload::EpochHybrid64x4096 => Spec::Epoch(Epoch {
                pods: 64,
                bundles_per_pod: 8,
                flows_per_bundle: 512,
                hybrid: true,
            }),
        }
    }

    /// Build the network: everything from `Network::new` to just before
    /// the first `run_*` call. Traced when a recorder was started.
    pub fn setup(self, seed: u64) -> Prepared {
        match self.spec() {
            Spec::Ping(p) => Prepared::Ping(p.setup(seed)),
            Spec::Epoch(e) => Prepared::Epoch(e.setup(seed, self.default_seed())),
        }
    }

    /// Run one whole iteration: set up, converge, run the steady phase,
    /// check the simulated outputs.
    pub fn run(self, seed: u64) -> Iteration {
        let mut p = self.setup(seed);
        p.converge();
        p.steady()
    }
}

enum Spec {
    Ping(Ping),
    Epoch(Epoch),
}

/// A workload between its phases.
pub enum Prepared {
    /// A ping workload.
    Ping(PingRun),
    /// An epoch workload.
    Epoch(EpochRun),
}

impl Prepared {
    /// Wall times of the set-up steps.
    pub fn setup_times(&self) -> Setup {
        match self {
            Prepared::Ping(p) => p.setup,
            Prepared::Epoch(e) => e.setup,
        }
    }

    /// Run from simulated time 0 until the fabric has converged; wall
    /// time, s.
    pub fn converge(&mut self) -> f64 {
        match self {
            Prepared::Ping(p) => p.converge(),
            Prepared::Epoch(e) => e.converge(),
        }
    }

    /// Run the converged phase and check every output.
    pub fn steady(self) -> Iteration {
        match self {
            Prepared::Ping(p) => p.steady(),
            Prepared::Epoch(e) => e.steady(),
        }
    }
}

/// Wall times of the set-up steps, s.
#[derive(Debug, Clone, Copy, Default)]
pub struct Setup {
    /// `FabricSpec::build`.
    pub build_s: f64,
    /// `configure_direct` + `connect_controller`.
    pub configure_s: f64,
    /// Host or station creation and attach.
    pub attach_s: f64,
    /// `Network::new` to just before the first `run_*` call.
    pub total_s: f64,
}

/// Per-layer timings replayed after a traced iteration.
#[derive(Debug, Clone, Copy, Default)]
pub struct Replays {
    /// ns per 32-frame `process_batch_into` burst on pod 0's SS_2.
    pub batch32_ns: f64,
    /// ns per `FlowKey::extract` over frames captured at endpoints.
    pub parse_ns_per_frame: f64,
    /// ns per message of `decode_stream` over captured control bytes.
    pub decode_ns_per_msg: f64,
}

/// Everything one iteration measured and produced.
pub struct Iteration {
    /// Set-up step times.
    pub setup: Setup,
    /// Wall time from simulated time 0 until the fabric converged, s.
    pub converge_s: f64,
    /// Wall time of the converged phase, s.
    pub steady_s: f64,
    /// Simulated results gated exactly against the recorded values of
    /// the default seed.
    pub outputs: Vec<(&'static str, u64)>,
    /// Engine-internal counts: reported and diffed against the recorded
    /// values, never failing a run (an optimisation may lower them).
    pub internals: Vec<(&'static str, u64)>,
    /// Operations attempted (pings, or frames offered).
    pub attempted: u64,
    /// Operations that failed (unanswered pings, frames never received).
    pub failed: u64,
    /// Broken output invariants.
    pub violations: Vec<String>,
    /// Public counters read after the run.
    pub counters: Counters,
    /// The traced iteration's spans and replays.
    pub traced: Option<(Recorder, Replays)>,
}

impl Iteration {
    /// Wall time of the whole iteration, s.
    pub fn wall_s(&self) -> f64 {
        self.setup.total_s + self.converge_s + self.steady_s
    }

    /// The simulated outputs as the table printed on stdout; traced and
    /// untraced iterations of one seed must print identical tables.
    pub fn outputs_table(&self) -> String {
        self.outputs
            .iter()
            .chain(&self.internals)
            .map(|(k, v)| format!("  {k:<24} {v}\n"))
            .collect()
    }
}

/// Add `node`, wrapped in a [`Timed`] span recorder while tracing.
fn add<N: Node>(net: &mut Network, node: N, kind: Kind) -> NodeId {
    if trace::active() {
        net.add_node(Timed::new(node, kind))
    } else {
        net.add_node(node)
    }
}

/// Run `f` as a traced span of `kind` and return its wall time too.
fn timed<R>(kind: Kind, name: &'static str, f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let r = trace::scope(kind, name, f);
    (r, t.elapsed().as_secs_f64())
}

/// A `run_*` call into the event engine, traced as a span.
fn run(name: &'static str, f: impl FnOnce()) {
    trace::scope(Kind::Run, name, f)
}

/// The controller (ArpProxy when asked, then LearningSwitch) and the
/// software-spine fabric of the E3c and E8 scenarios, configured and
/// connected. Pods are fat — multi-core software switches, deep RX
/// rings — so flood bursts do not tail-drop. Returns the controller,
/// the fabric, and the build and configure times.
fn fabric(net: &mut Network, pods: u16, ports: u16, arp_proxy: bool) -> (NodeId, Fabric, f64, f64) {
    let mut apps: Vec<Box<dyn App>> = Vec::new();
    if arp_proxy {
        apps.push(Box::new(ArpProxy::new()));
    }
    apps.push(Box::new(LearningSwitch::new()));
    let ctrl = add(net, ControllerNode::new("ctrl", apps), Kind::Controller);
    let mut pod = HarmlessSpec::new(ports).with_cores(8);
    pod.rx_queue = 1 << 16;
    let (mut fx, build_s) = timed(Kind::Phase, "core.build", || {
        FabricSpec::new(pods, pod)
            .with_interconnect(Interconnect::SpineSoft)
            .with_arp_proxy(arp_proxy)
            .build(net)
            .expect("valid fabric spec")
    });
    let ((), configure_s) = timed(Kind::Phase, "core.configure", || {
        fx.configure_direct(net);
        fx.connect_controller(net, ctrl);
    });
    (ctrl, fx, build_s, configure_s)
}

/// Read the public counters of every layer.
fn counters(net: &Network, fx: &Fabric, ctrl: NodeId) -> Counters {
    let c = net.node_ref::<ControllerNode>(ctrl);
    Counters {
        switches: SwitchCounters::read(net, fx),
        legacy_floods: layers::legacy_floods(net, fx),
        ctrl_packet_ins: c.packet_ins(),
        ctrl_flow_mods: c.flow_mods_sent(),
        events: net.events_processed(),
        delivered_frames: net.delivered_frames(),
        ..Counters::default()
    }
}

/// Stop the recorder, if one runs, and replay the captured inputs:
/// `ss2_frames` through pod 0's converged SS_2, endpoint frames through
/// the parser, control bytes through the decoder.
fn finish_trace(
    net: &mut Network,
    fx: &Fabric,
    ss2_frames: &[(u32, Bytes)],
) -> Option<(Recorder, Replays)> {
    let rec = trace::finish()?;
    let now_ns = net.now().as_nanos();
    let dp = net.node_mut::<SoftSwitchNode>(fx.pod(0).ss2).datapath_mut();
    let replays = Replays {
        batch32_ns: layers::batch32_ns(dp, now_ns, ss2_frames),
        parse_ns_per_frame: layers::parse_ns_per_frame(&rec.frames),
        decode_ns_per_msg: layers::decode_ns_per_msg(&rec.ctrl_bytes),
    };
    Some((rec, replays))
}

/// E3c: every host pings its partner (same port) in the next pod, in
/// staggered steps; round 1 converges the fabric, rounds 2.. run on the
/// converged fabric and must stay off the control plane.
struct Ping {
    pods: u16,
    hosts_per_pod: u16,
    arp_proxy: bool,
    rounds: u32,
}

/// A ping workload's network between phases.
pub struct PingRun {
    spec: Ping,
    setup: Setup,
    net: Network,
    fx: Fabric,
    ctrl: NodeId,
    hosts: Vec<Vec<NodeId>>,
    converge_s: f64,
    round1_packet_ins: u64,
    round1_flow_mods: u64,
    violations: Vec<String>,
}

impl Ping {
    fn setup(self, seed: u64) -> PingRun {
        let Ping {
            pods,
            hosts_per_pod,
            arp_proxy,
            ..
        } = self;
        let mut setup = Setup::default();
        let ((net, fx, ctrl, hosts), total_s) = timed(Kind::Phase, "setup", || {
            let mut net = Network::new(seed);
            let (ctrl, mut fx, build_s, configure_s) =
                fabric(&mut net, pods, hosts_per_pod, arp_proxy);
            // Hosts are built here (not by `Fabric::attach_host`) so the
            // traced run can wrap them; `attach_station` registers the
            // same identity and proxy route as `attach_host` does.
            let (hosts, attach_s) = timed(Kind::Phase, "core.attach", || {
                (0..usize::from(pods))
                    .map(|p| {
                        (1..=hosts_per_pod)
                            .map(|i| {
                                let prefix = &fx.pod(p).spec.name_prefix;
                                let host = Host::new(
                                    format!("{prefix}h{i}"),
                                    fx.host_mac(p, i),
                                    fx.host_ip(p, i),
                                );
                                let h = add(&mut net, host, Kind::Endpoint);
                                fx.attach_station(&mut net, p, i, h)
                                    .expect("free access port");
                                h
                            })
                            .collect::<Vec<_>>()
                    })
                    .collect::<Vec<_>>()
            });
            setup = Setup {
                build_s,
                configure_s,
                attach_s,
                total_s: 0.0,
            };
            (net, fx, ctrl, hosts)
        });
        setup.total_s = total_s;
        PingRun {
            spec: self,
            setup,
            net,
            fx,
            ctrl,
            hosts,
            converge_s: 0.0,
            round1_packet_ins: 0,
            round1_flow_mods: 0,
            violations: Vec::new(),
        }
    }
}

impl PingRun {
    fn total_hosts(&self) -> u64 {
        u64::from(self.spec.pods) * u64::from(self.spec.hosts_per_pod)
    }

    fn replies(&self) -> u64 {
        self.hosts
            .iter()
            .flatten()
            .map(|&h| self.net.node_ref::<Host>(h).echo_replies_received())
            .sum()
    }

    fn packet_ins(&self) -> u64 {
        self.net.node_ref::<ControllerNode>(self.ctrl).packet_ins()
    }

    /// One all-hosts ping round.
    fn ping_round(&mut self) {
        let (pods, hosts_per_pod) = (self.spec.pods, self.spec.hosts_per_pod);
        // E3c's flood stagger: scale the step with fabric size so each
        // step's broadcasts stay within pod service capacity.
        let step = SimTime::from_micros((self.total_hosts() * 800 / 2048).max(400));
        for i in 1..=hosts_per_pod {
            for (p, pod_hosts) in self.hosts.iter().enumerate() {
                let target = self.fx.host_ip((p + 1) % usize::from(pods), i);
                self.net
                    .with_node_ctx::<Host, _>(pod_hosts[usize::from(i) - 1], |h, ctx| {
                        h.ping(b"fabric-scale", target);
                        h.flush(ctx);
                    });
            }
            run("run_for", || self.net.run_for(step));
        }
        run("run_for", || self.net.run_for(SimTime::from_millis(500)));
    }

    /// Handshakes, proactive installs and ping round 1.
    fn converge(&mut self) -> f64 {
        let (connected, converge_s) = timed(Kind::Phase, "converge", || {
            run("run_until", || {
                self.net.run_until(SimTime::from_millis(100))
            });
            let connected = self.fx.all_pods_connected(&self.net);
            self.ping_round();
            connected
        });
        if !connected {
            self.violations
                .push("not every pod connected to the controller by 100 ms".into());
        }
        let (replies, total) = (self.replies(), self.total_hosts());
        if replies != total {
            self.violations
                .push(format!("round 1: {replies} of {total} pings answered"));
        }
        self.round1_packet_ins = self.packet_ins();
        self.round1_flow_mods = self
            .net
            .node_ref::<ControllerNode>(self.ctrl)
            .flow_mods_sent();
        self.converge_s = converge_s;
        converge_s
    }

    /// Rounds 2..=rounds on the converged fabric.
    fn steady(mut self) -> Iteration {
        let total_hosts = self.total_hosts();
        let rounds = self.spec.rounds;
        let (per_round, steady_s) = timed(Kind::Phase, "steady", || {
            (2..=rounds)
                .map(|_| {
                    let before = self.replies();
                    self.ping_round();
                    self.replies() - before
                })
                .collect::<Vec<u64>>()
        });
        let mut violations = std::mem::take(&mut self.violations);
        for (r, got) in (2..).zip(&per_round) {
            if *got != total_hosts {
                violations.push(format!("round {r}: {got} of {total_hosts} pings answered"));
            }
        }
        let late_pi = self.packet_ins() - self.round1_packet_ins;
        if late_pi != 0 {
            violations.push(format!("{late_pi} packet-ins after convergence"));
        }
        let want = u64::from(rounds) * u64::from(self.spec.hosts_per_pod);
        for (p, pod_hosts) in self.hosts.iter().enumerate() {
            let got: u64 = pod_hosts
                .iter()
                .map(|&h| self.net.node_ref::<Host>(h).echo_replies_received())
                .sum();
            if got != want {
                violations.push(format!("pod {p}: {got} of {want} replies"));
            }
        }
        let proxied = if self.spec.arp_proxy {
            self.net
                .node_mut::<ControllerNode>(self.ctrl)
                .app_mut::<ArpProxy>()
                .map_or(0, |a| a.answered())
        } else {
            0
        };
        if self.spec.arp_proxy && proxied != total_hosts {
            violations.push(format!(
                "ARP proxy answered {proxied} who-has for {total_hosts} hosts"
            ));
        }

        let all_replies = self.replies();
        let answered: u64 = self
            .hosts
            .iter()
            .flatten()
            .map(|&h| self.net.node_ref::<Host>(h).echo_requests_answered())
            .sum();
        let attempted = u64::from(rounds) * total_hosts;
        let counters = counters(&self.net, &self.fx, self.ctrl);
        let internals = vec![
            ("events", counters.events),
            ("delivered_frames", counters.delivered_frames),
            ("delivered_bytes", self.net.delivered_bytes()),
            ("round1_packet_ins", self.round1_packet_ins),
            ("round1_flow_mods", self.round1_flow_mods),
            ("proxied_arp_answers", proxied),
            ("flow_entries", counters.switches.flow_entries),
            ("legacy_floods", counters.legacy_floods),
        ];
        // Pod 0's hosts' echo requests as they enter pod 0's SS_2:
        // untagged, on the SS_2 port of their access port.
        let fx = &self.fx;
        let ss2_frames: Vec<(u32, Bytes)> = (1..=self.spec.hosts_per_pod)
            .map(|i| {
                let frame = netpkt::builder::icmp_echo_request(
                    fx.host_mac(0, i),
                    fx.host_mac(1, i),
                    fx.host_ip(0, i),
                    fx.host_ip(1, i),
                    1,
                    1,
                    b"fabric-scale",
                );
                (u32::from(i), frame)
            })
            .collect();
        let traced = finish_trace(&mut self.net, &self.fx, &ss2_frames);
        Iteration {
            setup: self.setup,
            converge_s: self.converge_s,
            steady_s,
            outputs: vec![("echo_replies", all_replies), ("echo_answered", answered)],
            internals,
            attempted,
            failed: attempted.saturating_sub(all_replies),
            violations,
            counters,
            traced,
        }
    }
}

/// Traffic starts here; handshakes and proactive routes must be done.
const T0: SimTime = SimTime::from_millis(500);
/// The flow-level engine's aggregation window.
const WINDOW: SimTime = SimTime::from_millis(250);
/// The recorded scenario's traffic epoch, and the drain after it for
/// the packet-level tail.
const EPOCH: SimTime = SimTime::from_secs(150);
const DRAIN: SimTime = SimTime::from_secs(2);

/// E8: a heavy-tailed elephant/mice matrix of CBR station bundles over a
/// software-spine fabric with the ARP proxy on.
struct Epoch {
    pods: u16,
    bundles_per_pod: u16,
    flows_per_bundle: u32,
    hybrid: bool,
}

/// Source and sink of one demand, with their `(pod, port)`.
type Pair = (NodeId, NodeId, (usize, u16), (usize, u16));

/// An epoch workload's network between phases.
pub struct EpochRun {
    hybrid: bool,
    epoch: SimTime,
    setup: Setup,
    net: Network,
    fx: Fabric,
    ctrl: NodeId,
    pairs: Vec<Pair>,
    converge_s: f64,
    violations: Vec<String>,
}

impl Epoch {
    fn matrix(&self, seed: u64) -> TrafficMatrix {
        TrafficMatrix::heavy_tailed(seed, self.pods, self.bundles_per_pod, self.flows_per_bundle)
    }

    fn setup(self, seed: u64, default_seed: u64) -> EpochRun {
        let Epoch {
            pods,
            bundles_per_pod,
            hybrid,
            ..
        } = self;
        // The matrix is the workload's input, generated before set-up.
        // Its elephant count swings the offered load by a fifth from
        // seed to seed; the epoch stretches or shrinks so every seed
        // offers as many frames as the recorded seed's 150 s epoch, and
        // seeds vary which pods talk, at which rates and sizes, not how
        // much traffic the epoch carries.
        let matrix = self.matrix(seed);
        let scale = self.matrix(default_seed).total_pps() / matrix.total_pps();
        let epoch = SimTime::from_nanos((EPOCH.as_nanos() as f64 * scale).round() as u64);
        // Sources take ports 1..=bundles_per_pod of their pod, sinks the
        // ports above, one per inbound demand.
        let mut inbound = vec![0u16; usize::from(pods)];
        for d in matrix.demands() {
            inbound[usize::from(d.dst_pod)] += 1;
        }
        let n_ports = bundles_per_pod + inbound.iter().copied().max().unwrap_or(0);

        let mut setup = Setup::default();
        let ((net, fx, ctrl, pairs), total_s) = timed(Kind::Phase, "setup", || {
            let mut net = Network::new(seed);
            let (ctrl, mut fx, build_s, configure_s) = fabric(&mut net, pods, n_ports, true);
            let (pairs, attach_s) = timed(Kind::Phase, "core.attach", || {
                let mut next_src = vec![1u16; usize::from(pods)];
                let mut next_sink = vec![bundles_per_pod + 1; usize::from(pods)];
                let mut pairs: Vec<Pair> = Vec::new();
                for (b, d) in matrix.demands().iter().enumerate() {
                    let (sp, dp) = (usize::from(d.src_pod), usize::from(d.dst_pod));
                    let src = (sp, next_src[sp]);
                    next_src[sp] += 1;
                    let dst = (dp, next_sink[dp]);
                    next_sink[dp] += 1;
                    let flows: Vec<FlowSpec> = (0..d.n_flows)
                        .map(|i| {
                            let mut f = FlowSpec::simple(1, 2, d.frame_len);
                            f.src_mac = fx.host_mac(src.0, src.1);
                            f.src_ip = fx.host_ip(src.0, src.1);
                            f.dst_mac = fx.host_mac(dst.0, dst.1);
                            f.dst_ip = fx.host_ip(dst.0, dst.1);
                            f.src_port = 1_000 + (i % 30_000) as u16;
                            f.dst_port = 20_000 + (i % 30_000) as u16;
                            f
                        })
                        .collect();
                    // Staggered starts so bundles do not tick in lockstep.
                    let start = T0 + SimTime::from_micros(13 * b as u64);
                    let generator = Generator::new(
                        format!("gen{b}"),
                        PortId(0),
                        Pattern::Cbr { pps: d.pps },
                        flows,
                        start,
                        start + epoch,
                    );
                    let g = add(&mut net, generator, Kind::Endpoint);
                    let s = add(&mut net, Sink::new(format!("sink{b}")), Kind::Endpoint);
                    fx.attach_station(&mut net, src.0, src.1, g)
                        .expect("free source port");
                    fx.attach_station(&mut net, dst.0, dst.1, s)
                        .expect("free sink port");
                    pairs.push((g, s, src, dst));
                }
                pairs
            });
            setup = Setup {
                build_s,
                configure_s,
                attach_s,
                total_s: 0.0,
            };
            (net, fx, ctrl, pairs)
        });
        setup.total_s = total_s;
        EpochRun {
            hybrid,
            epoch,
            setup,
            net,
            fx,
            ctrl,
            pairs,
            converge_s: 0.0,
            violations: Vec::new(),
        }
    }
}

impl EpochRun {
    /// Handshakes and proactive station routes, up to T0.
    fn converge(&mut self) -> f64 {
        let (connected, converge_s) = timed(Kind::Phase, "converge", || {
            run("run_until", || self.net.run_until(T0));
            self.fx.all_pods_connected(&self.net)
        });
        if !connected {
            self.violations
                .push("not every pod connected to the controller by T0".into());
        }
        self.converge_s = converge_s;
        converge_s
    }

    /// The traffic epoch plus drain.
    fn steady(mut self) -> Iteration {
        let pod0_ss2 = self.fx.pod(0).ss2;
        let mut ss2_frames: Vec<(u32, Bytes)> = Vec::new();
        let ((stats, all_done), steady_s) = timed(Kind::Phase, "steady", || {
            let mut fs = if self.hybrid {
                FlowSim::new(WINDOW)
            } else {
                FlowSim::packet_level(WINDOW)
            };
            for &(_, _, src, dst) in &self.pairs {
                let spec = self.fx.flow_bundle(&self.net, src, dst);
                for hop in spec.hops.iter().filter(|h| h.node == pod0_ss2) {
                    if let Some(probe) = &hop.probe {
                        let port = u32::from(hop.in_port.0);
                        ss2_frames.extend(probe.iter().map(|f| (port, f.clone())));
                    }
                }
                fs.add_bundle(&self.net, spec);
            }
            let until = T0 + self.epoch + DRAIN;
            run("flowsim.run_until", || fs.run_until(&mut self.net, until));
            (*fs.stats(), fs.all_done())
        });
        let mut violations = std::mem::take(&mut self.violations);
        if !all_done {
            violations.push("the epoch did not retire every bundle".into());
        }

        let (mut sent, mut received, mut rx_bytes) = (0u64, 0u64, 0u64);
        for (b, &(g, s, _, _)) in self.pairs.iter().enumerate() {
            let g_sent = self.net.node_ref::<Generator>(g).sent();
            let sink = self.net.node_ref::<Sink>(s);
            if sink.received() != g_sent {
                violations.push(format!(
                    "bundle {b}: {} of {g_sent} frames received",
                    sink.received()
                ));
            }
            sent += g_sent;
            received += sink.received();
            rx_bytes += sink.rx_bytes();
        }
        let mut counters = counters(&self.net, &self.fx, self.ctrl);
        counters.flowsim = stats;
        counters.frames_sent = sent;
        let internals = vec![
            ("events", counters.events),
            ("delivered_frames", counters.delivered_frames),
            ("delivered_bytes", self.net.delivered_bytes()),
            ("flow_mods", counters.ctrl_flow_mods),
            ("packet_ins", counters.ctrl_packet_ins),
            ("promotions", stats.promotions),
            ("demotions", stats.demotions),
            ("window_updates", stats.window_updates),
            ("frames_modeled", stats.frames_modeled),
        ];
        let traced = finish_trace(&mut self.net, &self.fx, &ss2_frames);
        Iteration {
            setup: self.setup,
            converge_s: self.converge_s,
            steady_s,
            outputs: vec![
                ("frames_sent", sent),
                ("frames_received", received),
                ("rx_bytes", rx_bytes),
            ],
            internals,
            attempted: sent,
            failed: sent.saturating_sub(received),
            violations,
            counters,
            traced,
        }
    }
}
