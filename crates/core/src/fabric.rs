//! Declarative multi-pod fabric construction — HARMLESS at *network*
//! scale.
//!
//! The paper retrofits one legacy switch at a time; the interesting
//! hybrid-SDN questions (partial deployment, per-pod migration waves,
//! traffic crossing the SDN/legacy boundary) only appear when many such
//! retrofits compose into one network. A [`FabricSpec`] describes that
//! network declaratively:
//!
//! * **N pods**, each the classic HARMLESS unit built by
//!   [`HarmlessSpec`] — a legacy access switch, the translator SS_1 and
//!   the main OpenFlow switch SS_2;
//! * an **interconnect** joining the pods' SS_2 uplink ports: a
//!   [`Interconnect::Line`] chain, a software-switch spine
//!   ([`Interconnect::SpineSoft`]), or a plain legacy/COTS Ethernet
//!   spine ([`Interconnect::SpineLegacy`]);
//! * **hosts** attached per `(pod, access port)` with globally unique
//!   MAC/IP identities ([`Fabric::attach_host`]);
//! * **one controller** for the whole fabric
//!   ([`Fabric::connect_controller`]) — every SS_2 (and a soft spine) is
//!   a separate datapath of the same controller node, so dpid-keyed apps
//!   such as the learning switch converge across pods;
//! * **migration waves** ([`Fabric::run_migration_wave`]): one
//!   [`HarmlessManager`] per pod drives the SNMP/OpenFlow migration of a
//!   subset of pods while the rest stay legacy.
//!
//! The single-pod path is [`FabricSpec::single`], which builds exactly
//! the topology `HarmlessSpec::build` always built — the fabric layer is
//! a superset, not a replacement, of the paper's Fig. 1.
//!
//! ```
//! use harmless::fabric::{FabricSpec, Interconnect};
//! use harmless::instance::HarmlessSpec;
//! use netsim::host::Host;
//! use netsim::{Network, SimTime};
//!
//! let mut net = Network::new(7);
//! let ctrl = net.add_node(controller::ControllerNode::new(
//!     "ctrl",
//!     vec![Box::new(controller::apps::LearningSwitch::new())],
//! ));
//! // Two 2-port pods joined by a legacy spine.
//! let mut fx = FabricSpec::new(2, HarmlessSpec::new(2))
//!     .with_interconnect(Interconnect::SpineLegacy)
//!     .build(&mut net)
//!     .unwrap();
//! fx.configure_direct(&mut net);
//! fx.connect_controller(&mut net, ctrl);
//! let a = fx.attach_host(&mut net, 0, 1).unwrap();
//! let b = fx.attach_host(&mut net, 1, 1).unwrap();
//! net.run_until(SimTime::from_millis(100));
//! let b_ip = fx.host_ip(1, 1);
//! net.with_node_ctx::<Host, _>(a, |h, ctx| {
//!     h.ping(b"cross-pod", b_ip);
//!     h.flush(ctx);
//! });
//! net.run_until(SimTime::from_millis(500));
//! assert_eq!(net.node_ref::<Host>(a).echo_replies_received(), 1);
//! # let _ = b;
//! ```

use std::collections::BTreeMap;
use std::net::Ipv4Addr;
use std::rc::Rc;

use controller::apps::{ArpProxy, HostRoute, PrefixRoute, Router, RouterConfig};
use controller::desired::Shared;
use controller::{App, ControllerNode};
use legacy_switch::LegacySwitchNode;
use netpkt::vlan::{push_vlan, VlanTag};
use netpkt::MacAddr;
use netsim::flowsim::{FlowBundleSpec, FlowHop};
use netsim::host::Host;
use netsim::stats::Rollup;
use netsim::traffic::{Generator, Sink};
use netsim::{LinkSpec, Network, NodeId, PortId};
use openflow::NatDir;
use softswitch::{NatConfig, SoftSwitchNode};

use crate::instance::{HarmlessInstance, HarmlessSpec, Variant};
use crate::manager::{HarmlessManager, ManagerConfig, ManagerPhase};
use crate::portmap::{PortMap, PortMapError};
use crate::translator::patch_port;

/// Default datapath id of a software spine switch.
pub const SPINE_DPID: u64 = 0x5F;
/// Base datapath id of per-pod translator switches (`0x5100 + pod`).
pub const POD_SS1_DPID_BASE: u64 = 0x5100;
/// Base datapath id of per-pod main switches (`0x5200 + pod`).
pub const POD_SS2_DPID_BASE: u64 = 0x5200;
/// Pod count ceiling — the host addressing scheme spends one IPv4 octet
/// on the pod index and reserves `10.200.0.0/13` for service addresses
/// (VIPs and the like).
pub const MAX_PODS: u16 = 200;

/// MAC identity of the soft spine's routing stage in L3 mode.
pub const SPINE_ROUTER_MAC: MacAddr = MacAddr::host(0x4e00_ff00);
/// IPv4 identity of the soft spine's routing stage (service space) —
/// the source address of its ICMP time-exceeded replies.
pub const SPINE_ROUTER_IP: Ipv4Addr = Ipv4Addr::new(10, 200, 255, 254);
/// Skipping a missing [`ArpProxy`] would quietly restore the O(hosts²) flood.
const NO_ARP_PROXY: &str = "FabricSpec::arp_proxy is set, but the fabric controller \
                            has no ArpProxy app (chain one before the learning app)";
/// Skipping a missing [`Router`] would blackhole inter-pod traffic.
const NO_ROUTER: &str = "FabricSpec::l3_routing is set, but the fabric controller \
                         has no Router app (chain one after the ArpProxy)";

/// MAC of the upstream "internet" host a gateway pod NATs toward.
pub const INTERNET_MAC: MacAddr = MacAddr::host(0x4e01_0001);

/// MAC identity of pod `p`'s routing stage — the `eth_src` of every
/// frame it routes and the `eth_dst` next hops address it by. Disjoint
/// from the host MAC space ([`Fabric::host_mac`] third-lowest octet
/// caps at [`MAX_PODS`]).
pub fn router_mac(pod: usize) -> MacAddr {
    MacAddr::host(0x4e00_0000 + pod as u32)
}

/// IPv4 identity of pod `p`'s routing stage — the source address of
/// its ICMP time-exceeded replies. Lives in the pod's own `/16`, past
/// any address [`Fabric::host_ip`] can produce.
pub fn router_ip(pod: usize) -> Ipv4Addr {
    Ipv4Addr::new(10, pod as u8, 255, 254)
}

/// How the pods' SS_2 uplinks are joined.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Interconnect {
    /// No interconnect: a standalone pod (single-pod fabrics only).
    None,
    /// A chain: pod `i` ↔ pod `i+1`. Two uplink ports per pod; frames
    /// between distant pods transit the SS_2 of every pod in between.
    Line,
    /// Leaf–spine over a dedicated spine `SoftSwitchNode` — the spine is
    /// one more datapath of the fabric's controller (connect it with
    /// [`Fabric::connect_controller`] or [`Fabric::connect_spine`]).
    SpineSoft,
    /// Leaf–spine over a plain legacy/COTS Ethernet switch in factory
    /// configuration — a flat learning bridge, no controller needed.
    /// This is the cheapest interconnect the cost model allows.
    SpineLegacy,
}

/// Where a fabric meets the internet: one pod hosts the NAT gateway.
///
/// Egress traffic from every pod follows the default route to
/// `pod`, is source-NATted behind `external_ip`
/// ([`softswitch::NatTable`] on the gateway's SS_2), and leaves
/// through access port `port` — where [`Fabric::attach_internet`]
/// places the upstream host answering as `internet_ip`. Return
/// traffic addressed to `external_ip` is reverse-translated at the
/// gateway before routing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GatewaySpec {
    /// The pod whose SS_2 runs the NAT stage.
    pub pod: usize,
    /// Gateway-pod access port the upstream host occupies.
    pub port: u16,
    /// The NAT's public face — what egress flows are translated to.
    pub external_ip: Ipv4Addr,
    /// Address of the upstream host (what internal hosts dial).
    pub internet_ip: Ipv4Addr,
}

impl GatewaySpec {
    /// A gateway at `(pod, port)` with the default `198.18.0.0/24`
    /// (RFC 2544 benchmarking space) upstream addressing.
    pub fn new(pod: usize, port: u16) -> GatewaySpec {
        GatewaySpec {
            pod,
            port,
            external_ip: Ipv4Addr::new(198, 18, 0, 254),
            internet_ip: Ipv4Addr::new(198, 18, 0, 1),
        }
    }
}

/// Errors validating or using a [`FabricSpec`] / [`Fabric`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FabricError {
    /// A fabric needs at least one pod.
    NoPods,
    /// More pods than the addressing scheme supports.
    TooManyPods {
        /// The [`MAX_PODS`] ceiling.
        max: u16,
        /// What the spec asked for.
        got: u16,
    },
    /// A multi-pod fabric needs an interconnect other than
    /// [`Interconnect::None`].
    MissingInterconnect,
    /// The merged single-datapath variant has no clean uplink port space
    /// and cannot be manager-migrated; fabrics of more than one pod
    /// require [`Variant::TwoSwitch`] pods.
    MergedVariant,
    /// The pod spec pins an uplink count that disagrees with what the
    /// chosen interconnect wires (leave `HarmlessSpec::uplinks` at 0 to
    /// let the fabric pick).
    UplinkMismatch {
        /// Uplinks the interconnect needs per pod.
        expected: u16,
        /// Uplinks the pod spec pinned.
        got: u16,
    },
    /// Pod index out of range.
    NoSuchPod {
        /// The requested pod.
        pod: usize,
        /// How many pods the fabric has.
        n_pods: usize,
    },
    /// The port is not a managed access port of that pod.
    NotAnAccessPort {
        /// Pod index.
        pod: usize,
        /// Offending port.
        port: u16,
    },
    /// Something is already attached to that `(pod, port)`.
    DuplicateHostPort {
        /// Pod index.
        pod: usize,
        /// Offending port.
        port: u16,
    },
    /// Detach/migrate of a `(pod, port)` with no host attached.
    NothingAttached {
        /// Pod index.
        pod: usize,
        /// Offending port.
        port: u16,
    },
    /// The per-pod port map does not fit the VLAN budget.
    PortMap(PortMapError),
    /// Per-prefix routing needs the ARP proxy: something must answer
    /// who-has for hosts the first hop no longer floods toward.
    L3NeedsArpProxy,
    /// A NAT gateway only makes sense on a routed fabric.
    GatewayNeedsL3,
    /// [`Fabric::attach_internet`] on a spec without a gateway.
    NoGateway,
}

impl core::fmt::Display for FabricError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            FabricError::NoPods => write!(f, "a fabric needs at least one pod"),
            FabricError::TooManyPods { max, got } => {
                write!(f, "at most {max} pods are addressable, spec has {got}")
            }
            FabricError::MissingInterconnect => {
                write!(f, "a multi-pod fabric needs an interconnect")
            }
            FabricError::MergedVariant => {
                write!(f, "merged-variant pods cannot join a fabric interconnect")
            }
            FabricError::UplinkMismatch { expected, got } => {
                write!(
                    f,
                    "interconnect needs {expected} uplink(s) per pod, pod spec pins {got}"
                )
            }
            FabricError::NoSuchPod { pod, n_pods } => {
                write!(f, "pod {pod} out of range (fabric has {n_pods})")
            }
            FabricError::NotAnAccessPort { pod, port } => {
                write!(f, "port {port} is not an access port of pod {pod}")
            }
            FabricError::DuplicateHostPort { pod, port } => {
                write!(f, "pod {pod} port {port} already has a host attached")
            }
            FabricError::NothingAttached { pod, port } => {
                write!(f, "pod {pod} port {port} has no host attached")
            }
            FabricError::PortMap(e) => write!(f, "pod port map invalid: {e}"),
            FabricError::L3NeedsArpProxy => {
                write!(f, "l3_routing requires arp_proxy (who answers who-has?)")
            }
            FabricError::GatewayNeedsL3 => {
                write!(f, "a NAT gateway requires l3_routing")
            }
            FabricError::NoGateway => {
                write!(f, "attach_internet needs FabricSpec::gateway")
            }
        }
    }
}

impl std::error::Error for FabricError {}

impl From<PortMapError> for FabricError {
    fn from(e: PortMapError) -> Self {
        FabricError::PortMap(e)
    }
}

/// A declarative description of a multi-pod HARMLESS fabric.
#[derive(Debug, Clone)]
pub struct FabricSpec {
    /// Number of pods.
    pub n_pods: u16,
    /// Template for every pod (name prefixes and datapath ids are
    /// assigned per pod by the builder).
    pub pod: HarmlessSpec,
    /// How the pods are joined.
    pub interconnect: Interconnect,
    /// Link model of the inter-pod uplinks.
    pub uplink_link: LinkSpec,
    /// Datapath id of a [`Interconnect::SpineSoft`] spine.
    pub spine_dpid: u64,
    /// Contain round-1 ARP floods with a controller-side proxy: when
    /// set, the fabric registers every attached host's identity and
    /// location ([`Fabric::host_route`]) with the controller's
    /// [`ArpProxy`] app, which answers who-has punts at the pod edge and
    /// installs proactive `eth_dst` routes — O(hosts) round-1 packet-ins
    /// instead of O(hosts²). The controller passed to
    /// [`Fabric::connect_controller`] must then run an [`ArpProxy`] app
    /// (chained before any learning app).
    pub arp_proxy: bool,
    /// Route between pods instead of bridging them: the controller's
    /// [`Router`] app installs per-prefix rules (one `/16` per remote
    /// pod, `/32`s only for the *local* pod's hosts) so inter-pod rule
    /// state is O(pods), not O(hosts), per datapath. Requires
    /// [`FabricSpec::arp_proxy`] (the proxy still answers who-has with
    /// the target's real MAC; per-host `eth_dst` routes shrink to the
    /// home pod). The controller must chain a [`Router`] app; a
    /// learning app must *not* be chained — a router drops what it has
    /// no route for, it does not flood.
    pub l3_routing: bool,
    /// NAT'd internet egress through one gateway pod (implies nothing
    /// by itself — see [`GatewaySpec`]; requires `l3_routing`).
    pub gateway: Option<GatewaySpec>,
}

impl FabricSpec {
    /// A fabric of `n_pods` copies of `pod`, joined by a legacy spine
    /// (override with [`Self::with_interconnect`]).
    pub fn new(n_pods: u16, pod: HarmlessSpec) -> FabricSpec {
        FabricSpec {
            n_pods,
            pod,
            interconnect: if n_pods <= 1 {
                Interconnect::None
            } else {
                Interconnect::SpineLegacy
            },
            uplink_link: LinkSpec::ten_gigabit(),
            spine_dpid: SPINE_DPID,
            arp_proxy: false,
            l3_routing: false,
            gateway: None,
        }
    }

    /// The single-pod fabric: exactly the paper's Fig. 1, with the same
    /// node names, datapath ids and host addressing the standalone
    /// [`HarmlessSpec::build`] produces.
    pub fn single(pod: HarmlessSpec) -> FabricSpec {
        FabricSpec::new(1, pod)
    }

    /// Builder-style interconnect selection.
    pub fn with_interconnect(mut self, i: Interconnect) -> Self {
        self.interconnect = i;
        self
    }

    /// Builder-style ARP-proxy flood containment (see
    /// [`FabricSpec::arp_proxy`]).
    pub fn with_arp_proxy(mut self, on: bool) -> Self {
        self.arp_proxy = on;
        self
    }

    /// Builder-style per-prefix routing (see [`FabricSpec::l3_routing`]);
    /// also turns the ARP proxy on — routing depends on it.
    pub fn with_l3_routing(mut self) -> Self {
        self.l3_routing = true;
        self.arp_proxy = true;
        self
    }

    /// Builder-style NAT gateway (see [`GatewaySpec`]); implies
    /// [`FabricSpec::with_l3_routing`].
    pub fn with_gateway(mut self, gw: GatewaySpec) -> Self {
        self.gateway = Some(gw);
        self.with_l3_routing()
    }

    /// Uplink ports per pod the chosen interconnect wires.
    fn required_uplinks(&self) -> u16 {
        match self.interconnect {
            Interconnect::None => 0,
            Interconnect::Line => {
                if self.n_pods > 1 {
                    2
                } else {
                    0
                }
            }
            Interconnect::SpineSoft | Interconnect::SpineLegacy => 1,
        }
    }

    /// Check the spec without building anything.
    pub fn validate(&self) -> Result<(), FabricError> {
        if self.n_pods == 0 {
            return Err(FabricError::NoPods);
        }
        if self.n_pods > MAX_PODS {
            return Err(FabricError::TooManyPods {
                max: MAX_PODS,
                got: self.n_pods,
            });
        }
        if self.n_pods > 1 && self.interconnect == Interconnect::None {
            return Err(FabricError::MissingInterconnect);
        }
        if self.n_pods > 1 && self.pod.variant == Variant::Merged {
            return Err(FabricError::MergedVariant);
        }
        let required = self.required_uplinks();
        if self.pod.uplinks != 0 && self.pod.uplinks != required {
            return Err(FabricError::UplinkMismatch {
                expected: required,
                got: self.pod.uplinks,
            });
        }
        if self.l3_routing && !self.arp_proxy {
            return Err(FabricError::L3NeedsArpProxy);
        }
        if let Some(gw) = self.gateway {
            if !self.l3_routing {
                return Err(FabricError::GatewayNeedsL3);
            }
            if gw.pod >= usize::from(self.n_pods) {
                return Err(FabricError::NoSuchPod {
                    pod: gw.pod,
                    n_pods: usize::from(self.n_pods),
                });
            }
            if !(1..=self.pod.n_access_ports).contains(&gw.port) {
                return Err(FabricError::NotAnAccessPort {
                    pod: gw.pod,
                    port: gw.port,
                });
            }
        }
        PortMap::new(self.pod.vlan_base, self.pod.n_access_ports)?;
        Ok(())
    }

    /// Instantiate the fabric in `net`: build every pod, add the uplink
    /// ports, and wire the interconnect. Hosts, direct configuration,
    /// controller connections and migration waves are driven off the
    /// returned [`Fabric`].
    pub fn build(self, net: &mut Network) -> Result<Fabric, FabricError> {
        self.validate()?;
        let uplinks = if self.pod.uplinks != 0 {
            self.pod.uplinks
        } else {
            self.required_uplinks()
        };
        let multi = self.n_pods > 1;
        let mut pods = Vec::with_capacity(usize::from(self.n_pods));
        for p in 0..self.n_pods {
            let mut spec = self.pod.clone().with_uplinks(uplinks);
            if multi {
                // Per-pod identities; the single-pod fabric keeps the
                // classic names/dpids so it is a drop-in for the
                // standalone instance.
                spec = spec
                    .with_name_prefix(format!("{}pod{p}/", self.pod.name_prefix))
                    .with_dpids(
                        POD_SS1_DPID_BASE + u64::from(p),
                        POD_SS2_DPID_BASE + u64::from(p),
                    );
            }
            pods.push(spec.build(net));
        }
        let n = self.pod.n_access_ports;
        let spine = match self.interconnect {
            Interconnect::None => None,
            Interconnect::Line => {
                for p in 0..usize::from(self.n_pods) - 1 {
                    // Right uplink (n+1) of pod p to left uplink (n+2)
                    // of pod p+1.
                    net.connect(
                        pods[p].ss2,
                        PortId(n + 1),
                        pods[p + 1].ss2,
                        PortId(n + 2),
                        self.uplink_link,
                    );
                }
                None
            }
            Interconnect::SpineSoft => {
                let mut spine = self
                    .pod
                    .clone()
                    .with_name_prefix(String::new())
                    .soft_switch_node("spine", self.spine_dpid);
                for p in 1..=self.n_pods {
                    spine.add_port(u32::from(p), format!("pod{}", p - 1), 10_000_000);
                }
                let spine = net.add_node(spine);
                for (p, pod) in pods.iter().enumerate() {
                    net.connect(
                        spine,
                        PortId(p as u16 + 1),
                        pod.ss2,
                        PortId(n + 1),
                        self.uplink_link,
                    );
                }
                Some(Spine::Soft(spine))
            }
            Interconnect::SpineLegacy => {
                let spine = net.add_node(LegacySwitchNode::new("spine", self.n_pods));
                for (p, pod) in pods.iter().enumerate() {
                    net.connect(
                        spine,
                        PortId(p as u16 + 1),
                        pod.ss2,
                        PortId(n + 1),
                        self.uplink_link,
                    );
                }
                Some(Spine::Legacy(spine))
            }
        };
        Ok(Fabric {
            spec: self,
            pods,
            spine,
            attached: BTreeMap::new(),
            host_ports: std::collections::BTreeSet::new(),
            station_ports: std::collections::BTreeSet::new(),
            controller: None,
            backup_controller: None,
            hosts: None,
            routes: None,
            internet: None,
        })
    }
}

/// The fabric's interconnect switch, when it has one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Spine {
    /// A software-switch spine (one more datapath of the controller).
    Soft(NodeId),
    /// A legacy Ethernet spine (self-learning, controller-free).
    Legacy(NodeId),
}

impl Spine {
    /// The spine's simulator node.
    pub fn node(&self) -> NodeId {
        match self {
            Spine::Soft(n) | Spine::Legacy(n) => *n,
        }
    }
}

/// Per-datapath `(dpid, port)` pairs — the location half of a
/// [`HostRoute`] (output ports, or reflection-guard ports).
type DpidPorts = Vec<(u64, u32)>;

/// A built multi-pod HARMLESS fabric.
pub struct Fabric {
    /// The spec it was built from.
    pub spec: FabricSpec,
    pods: Vec<HarmlessInstance>,
    spine: Option<Spine>,
    attached: BTreeMap<(usize, u16), NodeId>,
    /// The subset of `attached` created by [`Fabric::attach_host`] —
    /// stations that actually carry the fabric-wide `(IP, MAC)` identity
    /// and therefore belong in the ARP-proxy host table (arbitrary
    /// [`Fabric::attach_node`] devices do not).
    host_ports: std::collections::BTreeSet<(usize, u16)>,
    /// Ports taken by [`Fabric::attach_station`] devices — these carry
    /// the *port's* fabric identity, and in L3 mode get a local `/32`
    /// route like hosts do.
    station_ports: std::collections::BTreeSet<(usize, u16)>,
    /// Set by [`Fabric::connect_controller`]; where ARP-proxy host
    /// routes are synced when [`FabricSpec::arp_proxy`] is on.
    controller: Option<NodeId>,
    /// Warm-standby controller set by
    /// [`Fabric::connect_backup_controller`]; switches dial it only
    /// after declaring the primary dead.
    backup_controller: Option<NodeId>,
    /// The controller's ARP-proxy host table (with
    /// [`FabricSpec::arp_proxy`]), shared with the backup.
    hosts: Option<Shared<HostRoute>>,
    /// The controller's router configs (with [`FabricSpec::l3_routing`]),
    /// shared with the backup.
    routes: Option<Shared<RouterConfig>>,
    /// The upstream host placed by [`Fabric::attach_internet`].
    internet: Option<NodeId>,
}

impl Fabric {
    /// Number of pods.
    pub fn n_pods(&self) -> usize {
        self.pods.len()
    }

    /// Handle of pod `i`.
    ///
    /// # Panics
    /// Panics if `i` is out of range.
    pub fn pod(&self, i: usize) -> &HarmlessInstance {
        &self.pods[i]
    }

    /// Iterate over all pods.
    pub fn pods(&self) -> impl Iterator<Item = &HarmlessInstance> {
        self.pods.iter()
    }

    /// The interconnect switch, if the fabric has one.
    pub fn spine(&self) -> Option<Spine> {
        self.spine
    }

    fn check_pod(&self, pod: usize) -> Result<&HarmlessInstance, FabricError> {
        self.pods.get(pod).ok_or(FabricError::NoSuchPod {
            pod,
            n_pods: self.pods.len(),
        })
    }

    fn check_access(&self, pod: usize, port: u16) -> Result<(), FabricError> {
        let px = self.check_pod(pod)?;
        if !(1..=px.spec.n_access_ports).contains(&port) {
            return Err(FabricError::NotAnAccessPort { pod, port });
        }
        Ok(())
    }

    /// Fabric-wide IPv4 address of the host on `(pod, port)`:
    /// `10.<pod>.<(port-1)/250>.<1+(port-1)%250>`. Pod 0 matches the
    /// classic single-instance `10.0.0.<port>` scheme for the first 250
    /// ports.
    ///
    /// # Panics
    /// Panics on a pod index or access port this fabric does not have —
    /// silently aliasing a neighbouring host's address would be worse.
    pub fn host_ip(&self, pod: usize, port: u16) -> Ipv4Addr {
        self.check_access(pod, port)
            .expect("host_ip of an existing (pod, access port)");
        let i = u32::from(port) - 1;
        Ipv4Addr::new(10, pod as u8, (i / 250) as u8, (1 + i % 250) as u8)
    }

    /// Fabric-wide MAC address of the host on `(pod, port)` — the pod
    /// index in the third-lowest octet keeps MACs unique across pods
    /// while pod 0 matches the classic `MacAddr::host(port)` scheme.
    ///
    /// # Panics
    /// Panics on a pod index or access port this fabric does not have.
    pub fn host_mac(&self, pod: usize, port: u16) -> netpkt::MacAddr {
        self.check_access(pod, port)
            .expect("host_mac of an existing (pod, access port)");
        netpkt::MacAddr::host((pod as u32) << 16 | u32::from(port))
    }

    /// Attach a host to access port `port` of pod `pod`, with the
    /// fabric-wide identity of [`Self::host_ip`] / [`Self::host_mac`].
    /// Duplicate `(pod, port)` attachments are rejected — each access
    /// port carries exactly one station. With [`FabricSpec::arp_proxy`]
    /// set and a controller connected, the host's identity and route are
    /// registered with the controller's [`ArpProxy`] app.
    pub fn attach_host(
        &mut self,
        net: &mut Network,
        pod: usize,
        port: u16,
    ) -> Result<NodeId, FabricError> {
        self.check_access(pod, port)?;
        if self.attached.contains_key(&(pod, port)) {
            return Err(FabricError::DuplicateHostPort { pod, port });
        }
        let px = &self.pods[pod];
        let h = net.add_node(Host::new(
            format!("{}h{port}", px.spec.name_prefix),
            self.host_mac(pod, port),
            self.host_ip(pod, port),
        ));
        self.attached.insert((pod, port), h);
        self.host_ports.insert((pod, port));
        self.pods[pod].attach_node(net, port, h);
        self.register_route(self.host_route(pod, port));
        self.sync_l3(net);
        Ok(h)
    }

    /// The fabric-wide [`HostRoute`] of the host on `(pod, port)`: its
    /// [`Self::host_ip`] / [`Self::host_mac`] identity plus, for every
    /// datapath the controller serves, the port that leads toward it —
    /// the pod's own access port at its home SS_2, the uplink
    /// (direction-aware for [`Interconnect::Line`]) everywhere else, and
    /// the pod-facing spine port on a [`Interconnect::SpineSoft`] spine.
    /// [`Interconnect::SpineLegacy`] routes additionally carry
    /// reflection guards: the legacy spine floods unknown destinations,
    /// and a flood copy arriving at a pod that does not host the MAC
    /// must be dropped, not bounced back out of the uplink it came in
    /// on.
    ///
    /// # Panics
    /// Panics on a pod index or access port this fabric does not have.
    pub fn host_route(&self, pod: usize, port: u16) -> HostRoute {
        self.check_access(pod, port)
            .expect("host_route of an existing (pod, access port)");
        let (ports, guards) = self.route_location(pod, port);
        HostRoute {
            ip: self.host_ip(pod, port),
            mac: self.host_mac(pod, port),
            ports,
            guards,
        }
    }

    /// The location half of a [`HostRoute`] for a station attached at
    /// `(pod, port)`: per-dpid output ports and reflection guards.
    /// Identity (IP/MAC) is the caller's business — a migrated host
    /// keeps the identity of its original attach point while its
    /// location follows it around the fabric.
    fn route_location(&self, pod: usize, port: u16) -> (DpidPorts, DpidPorts) {
        // Per-prefix routing shrinks per-host state to the home pod:
        // inter-pod delivery rides the Router app's /16 aggregates, so
        // the only eth_dst rule a host needs is its own access port
        // (pod-local L2 traffic short-circuits the routed pipeline
        // there). No uplink routes, no spine entry, no guards.
        if self.spec.l3_routing {
            let dpid = self.pods[pod].spec.ss2_dpid;
            return (vec![(dpid, u32::from(port))], Vec::new());
        }
        let n = self.spec.pod.n_access_ports;
        let uplink_right = u32::from(n + 1);
        let uplink_left = u32::from(n + 2);
        let mut ports = Vec::with_capacity(self.pods.len() + 1);
        let mut guards = Vec::new();
        for (p, px) in self.pods.iter().enumerate() {
            let dpid = px.spec.ss2_dpid;
            if p == pod {
                ports.push((dpid, u32::from(port)));
                continue;
            }
            match self.spec.interconnect {
                Interconnect::None => {} // single-pod fabrics never get here
                Interconnect::Line => {
                    // Toward higher pods out of the right uplink, lower
                    // pods out of the left; transit frames enter on one
                    // and leave on the other, so no reflection guard is
                    // needed.
                    let out = if pod > p { uplink_right } else { uplink_left };
                    ports.push((dpid, out));
                }
                Interconnect::SpineSoft => ports.push((dpid, uplink_right)),
                Interconnect::SpineLegacy => {
                    ports.push((dpid, uplink_right));
                    guards.push((dpid, uplink_right));
                }
            }
        }
        if let Some(Spine::Soft(_)) = self.spine {
            ports.push((self.spec.spine_dpid, pod as u32 + 1));
        }
        (ports, guards)
    }

    /// Register one route in the controller's [`ArpProxy`] host table
    /// (a no-op without the proxy or a controller).
    fn register_route(&self, route: HostRoute) {
        if let Some(hosts) = &self.hosts {
            hosts.borrow_mut().upsert(route);
        }
    }

    /// Run app `A`'s tick sync on every ready datapath of the controller
    /// now, instead of waiting for the next tick.
    fn sync_now<A: App>(&self, net: &mut Network) {
        let Some(ctrl) = self.controller else { return };
        net.with_node_ctx::<ControllerNode, _>(ctrl, |c, ctx| {
            c.for_each_switch(ctx, |apps, sw| {
                if let Some(a) = apps
                    .iter_mut()
                    .find_map(|a| a.as_any_mut().downcast_mut::<A>())
                {
                    a.on_tick(sw);
                }
            });
        });
    }

    /// Next hop from pod `p` toward pod `q`: the uplink out-port and
    /// the MAC the routed frame is re-addressed to. Hop-by-hop on a
    /// [`Interconnect::Line`] (each transited pod routes onward), via
    /// the spine's own routing stage on [`Interconnect::SpineSoft`],
    /// and straight to the target pod's router MAC across a flooding
    /// [`Interconnect::SpineLegacy`] (the bridge learns router MACs
    /// like any others; guard rules contain its flood copies).
    fn l3_next_hop(&self, p: usize, q: usize) -> (u32, MacAddr) {
        let n = self.spec.pod.n_access_ports;
        let uplink_right = u32::from(n + 1);
        let uplink_left = u32::from(n + 2);
        match self.spec.interconnect {
            Interconnect::None => {
                unreachable!("single-pod fabrics route no inter-pod traffic")
            }
            Interconnect::Line => {
                if q > p {
                    (uplink_right, router_mac(p + 1))
                } else {
                    (uplink_left, router_mac(p - 1))
                }
            }
            Interconnect::SpineSoft => (uplink_right, SPINE_ROUTER_MAC),
            Interconnect::SpineLegacy => (uplink_right, router_mac(q)),
        }
    }

    /// Pod `p`'s routing personality under the current topology and
    /// attachment state: one `/16` per remote pod, one `/32` per
    /// locally attached station, and — with a gateway — the default
    /// route (NAT'd at the gateway pod itself).
    fn l3_pod_config(&self, net: &Network, p: usize) -> RouterConfig {
        let mut routes = Vec::new();
        for q in 0..self.pods.len() {
            if q == p {
                continue;
            }
            let (out_port, next_hop) = self.l3_next_hop(p, q);
            routes.push(PrefixRoute {
                prefix: Ipv4Addr::new(10, q as u8, 0, 0),
                len: 16,
                out_port,
                next_hop,
                nat: None,
            });
        }
        // Local delivery: one /32 per identity attached to this pod.
        for ((_, port), ip, mac) in self.identities(net).filter(|&((hp, _), ..)| hp == p) {
            routes.push(PrefixRoute {
                prefix: ip,
                len: 32,
                out_port: u32::from(port),
                next_hop: mac,
                nat: None,
            });
        }
        // Exception routes: a migrated host keeps its original address,
        // so the `/16` aggregate of its home pod no longer covers it. A
        // fabric-wide `/32` punches through the aggregate (longest
        // prefix wins) and steers toward wherever it lives now.
        for (ip, _, hp) in self.l3_exceptions(net) {
            if hp == p {
                continue; // already a local /32 above
            }
            let (out_port, next_hop) = self.l3_next_hop(p, hp);
            routes.push(PrefixRoute {
                prefix: ip,
                len: 32,
                out_port,
                next_hop,
                nat: None,
            });
        }
        let mut nat_external = None;
        if let Some(gw) = self.spec.gateway {
            if gw.pod == p {
                routes.push(PrefixRoute {
                    prefix: Ipv4Addr::UNSPECIFIED,
                    len: 0,
                    out_port: u32::from(gw.port),
                    next_hop: INTERNET_MAC,
                    nat: Some(NatDir::Egress),
                });
                nat_external = Some(gw.external_ip);
            } else {
                let (out_port, next_hop) = self.l3_next_hop(p, gw.pod);
                routes.push(PrefixRoute {
                    prefix: Ipv4Addr::UNSPECIFIED,
                    len: 0,
                    out_port,
                    next_hop,
                    nat: None,
                });
            }
        }
        let uplink_guards = if self.spec.interconnect == Interconnect::SpineLegacy {
            vec![u32::from(self.spec.pod.n_access_ports + 1)]
        } else {
            Vec::new()
        };
        RouterConfig {
            dpid: self.pods[p].spec.ss2_dpid,
            mac: router_mac(p),
            routes,
            nat_external,
            uplink_guards,
        }
    }

    /// Hosts living outside their address's home `/16` (migration
    /// keeps IP and MAC), as `(ip, mac, current pod)` — each needs a
    /// fabric-wide `/32` exception route.
    fn l3_exceptions(&self, net: &Network) -> Vec<(Ipv4Addr, MacAddr, usize)> {
        self.host_ports
            .iter()
            .filter_map(|&(hp, hport)| {
                let hr = net.node_ref::<Host>(self.attached[&(hp, hport)]);
                (usize::from(hr.ip().octets()[1]) != hp).then(|| (hr.ip(), hr.mac(), hp))
            })
            .collect()
    }

    /// A soft spine's routing personality: one `/16` per pod out of
    /// its pod-facing port, plus `/32` exceptions for migrated hosts
    /// and the default route toward the gateway pod. The spine is a
    /// real routed hop (TTL decrement, ICMP time-exceeded under its
    /// own identity).
    fn l3_spine_config(&self, net: &Network) -> RouterConfig {
        let mut routes: Vec<PrefixRoute> = (0..self.pods.len())
            .map(|q| PrefixRoute {
                prefix: Ipv4Addr::new(10, q as u8, 0, 0),
                len: 16,
                out_port: q as u32 + 1,
                next_hop: router_mac(q),
                nat: None,
            })
            .collect();
        for (ip, _, hp) in self.l3_exceptions(net) {
            routes.push(PrefixRoute {
                prefix: ip,
                len: 32,
                out_port: hp as u32 + 1,
                next_hop: router_mac(hp),
                nat: None,
            });
        }
        if let Some(gw) = self.spec.gateway {
            routes.push(PrefixRoute {
                prefix: Ipv4Addr::UNSPECIFIED,
                len: 0,
                out_port: gw.pod as u32 + 1,
                next_hop: router_mac(gw.pod),
                nat: None,
            });
        }
        RouterConfig {
            dpid: self.spec.spine_dpid,
            mac: SPINE_ROUTER_MAC,
            routes,
            nat_external: None,
            uplink_guards: Vec::new(),
        }
    }

    /// Recompute every datapath's routing personality from the live
    /// attachment state, hand the configs to the controller's
    /// [`Router`] app, set the dataplane identities the rules depend
    /// on (router MAC/IP for ICMP errors, the gateway's NAT table),
    /// and flush to every ready datapath. Identical configs are
    /// no-ops end to end, so this is safe to call on every attach,
    /// detach and migrate.
    fn sync_l3(&self, net: &mut Network) {
        let Some(routes) = &self.routes else { return };
        let spine = matches!(self.spine, Some(Spine::Soft(_))).then(|| self.l3_spine_config(net));
        for c in (0..self.pods.len())
            .map(|p| self.l3_pod_config(net, p))
            .chain(spine)
        {
            routes.borrow_mut().upsert(c);
        }
        for (p, px) in self.pods.iter().enumerate() {
            let dp = net.node_mut::<SoftSwitchNode>(px.ss2).datapath_mut();
            if dp.router() != Some((router_ip(p), router_mac(p))) {
                dp.set_router(router_ip(p), router_mac(p));
            }
            if let Some(gw) = self.spec.gateway.filter(|g| g.pod == p) {
                if dp.nat().external_ip() != Some(gw.external_ip) {
                    dp.configure_nat(NatConfig::new(gw.external_ip));
                }
            }
        }
        if let Some(Spine::Soft(s)) = self.spine {
            let dp = net.node_mut::<SoftSwitchNode>(s).datapath_mut();
            if dp.router() != Some((SPINE_ROUTER_IP, SPINE_ROUTER_MAC)) {
                dp.set_router(SPINE_ROUTER_IP, SPINE_ROUTER_MAC);
            }
        }
        self.sync_now::<Router>(net);
    }

    /// Place the upstream "internet" host at the gateway's access
    /// port: a plain [`Host`] with the [`GatewaySpec::internet_ip`]
    /// identity, answering from behind nothing while the fabric's
    /// hosts answer from behind the NAT. With the ARP proxy on, the
    /// address is registered for who-has answering only — no
    /// `eth_dst` routes anywhere, reaching it is the default route's
    /// job.
    pub fn attach_internet(&mut self, net: &mut Network) -> Result<NodeId, FabricError> {
        let Some(gw) = self.spec.gateway else {
            return Err(FabricError::NoGateway);
        };
        let h = net.add_node(Host::new("internet", INTERNET_MAC, gw.internet_ip));
        self.attach_node(net, gw.pod, gw.port, h)?;
        self.internet = Some(h);
        if self.hosts.is_some() {
            self.register_route(HostRoute {
                ip: gw.internet_ip,
                mac: INTERNET_MAC,
                ports: Vec::new(),
                guards: Vec::new(),
            });
            self.sync_now::<ArpProxy>(net);
        }
        Ok(h)
    }

    /// Detach the station on `(pod, port)`: cut its access link (frames
    /// queued on it are blackholed, as on any cable pull) and free the
    /// port for a new attachment. For identity-carrying stations
    /// ([`Self::attach_host`], [`Self::attach_station`]) with the ARP
    /// proxy on, the entry is removed and its proactive routes are
    /// retracted fabric-wide right away — leaving them would blackhole
    /// every frame for that MAC at its old edge. Returns the detached
    /// node.
    pub fn detach_host(
        &mut self,
        net: &mut Network,
        pod: usize,
        port: u16,
    ) -> Result<NodeId, FabricError> {
        self.check_access(pod, port)?;
        let Some(&h) = self.attached.get(&(pod, port)) else {
            return Err(FabricError::NothingAttached { pod, port });
        };
        let identity = self.identity(net, (pod, port));
        self.attached.remove(&(pod, port));
        self.host_ports.remove(&(pod, port));
        self.station_ports.remove(&(pod, port));
        net.disconnect(h, PortId(0));
        if let (Some(hosts), Some((ip, _))) = (&self.hosts, identity) {
            hosts.borrow_mut().remove(ip);
            self.sync_now::<ArpProxy>(net);
        }
        self.sync_l3(net);
        Ok(h)
    }

    /// Move the host on `from` to the access port `to` — possibly in a
    /// different pod — keeping its `(IP, MAC)` identity (that is the
    /// whole point: a VM migrates, its addresses travel with it). The
    /// old access link is cut, the host re-attaches at `to`, and with
    /// the ARP proxy on its routes are *retracted and re-installed for
    /// the new location in one sync*, deletes first — without the
    /// retraction the stale `eth_dst` routes at the old pod would keep
    /// matching and silently blackhole all traffic to the moved host.
    ///
    /// Callable between `run_*` calls.
    pub fn migrate_host(
        &mut self,
        net: &mut Network,
        from: (usize, u16),
        to: (usize, u16),
    ) -> Result<NodeId, FabricError> {
        self.check_access(from.0, from.1)?;
        self.check_access(to.0, to.1)?;
        if self.attached.contains_key(&to) {
            return Err(FabricError::DuplicateHostPort {
                pod: to.0,
                port: to.1,
            });
        }
        if !self.host_ports.contains(&from) {
            return Err(FabricError::NothingAttached {
                pod: from.0,
                port: from.1,
            });
        }
        let h = self.attached.remove(&from).expect("host_ports ⊆ attached");
        self.host_ports.remove(&from);
        net.disconnect(h, PortId(0));
        self.attached.insert(to, h);
        self.host_ports.insert(to);
        self.pods[to.0].attach_node(net, to.1, h);
        if self.hosts.is_some() {
            let hr = net.node_ref::<Host>(h);
            let (ports, guards) = self.route_location(to.0, to.1);
            self.register_route(HostRoute {
                ip: hr.ip(),
                mac: hr.mac(),
                ports,
                guards,
            });
            self.sync_now::<ArpProxy>(net);
        }
        self.sync_l3(net);
        Ok(h)
    }

    /// Attach an arbitrary node (generator/sink) to `(pod, port)` on its
    /// port 0, with the same duplicate-port bookkeeping as
    /// [`Self::attach_host`].
    pub fn attach_node(
        &mut self,
        net: &mut Network,
        pod: usize,
        port: u16,
        node: NodeId,
    ) -> Result<(), FabricError> {
        self.check_access(pod, port)?;
        if self.attached.contains_key(&(pod, port)) {
            return Err(FabricError::DuplicateHostPort { pod, port });
        }
        self.attached.insert((pod, port), node);
        self.pods[pod].attach_node(net, port, node);
        Ok(())
    }

    /// Attach a measurement station (traffic generator or sink) at
    /// `(pod, port)` and, with the ARP proxy on, register the port's
    /// fabric identity ([`Self::host_ip`] / [`Self::host_mac`]) with the
    /// proxy. Sinks never transmit, so reactive learning alone would
    /// flood every frame destined to them fabric-wide forever; the
    /// proactive route keeps station traffic unicast. The station's
    /// flows should use the port's fabric identity as their addresses.
    pub fn attach_station(
        &mut self,
        net: &mut Network,
        pod: usize,
        port: u16,
        node: NodeId,
    ) -> Result<(), FabricError> {
        self.attach_node(net, pod, port, node)?;
        self.station_ports.insert((pod, port));
        self.register_route(self.host_route(pod, port));
        self.sync_l3(net);
        Ok(())
    }

    /// The node attached to `(pod, port)`, if any.
    pub fn attached_node(&self, pod: usize, port: u16) -> Option<NodeId> {
        self.attached.get(&(pod, port)).copied()
    }

    /// The promotable flow-level bundle of a station pair: the ordered
    /// hops frames traverse from the [`Generator`] at `src = (pod,
    /// port)` to the [`Sink`] at `dst`, cache-residency probes for
    /// every hop whose ingress frames are reconstructible, and one
    /// endpoint per link on the path — everything
    /// [`netsim::flowsim::FlowSim::add_bundle`] needs.
    ///
    /// Probes are the generator's [`Generator::probe_frame`] templates:
    /// VLAN-tagged with the source port's access VLAN at the source
    /// SS_1 (that is what the legacy switch puts on the trunk),
    /// untagged at the source SS_2. Past the source pod the frames stay
    /// byte-identical only without [`FabricSpec::with_l3_routing`] —
    /// per-hop L3 rewrites (MAC re-addressing, TTL) make downstream
    /// ingress frames non-reconstructible, so those hops carry no probe
    /// and are gated by their quiescence counters alone. Legacy
    /// switches never carry probes (no flow cache to probe).
    ///
    /// # Panics
    /// Panics if either end is not an existing access port with an
    /// attached node, if the generator at `src` is not a
    /// [`Generator`], or on a [`Variant::Merged`] pod — bundles assume
    /// the paper's two-switch data path.
    pub fn flow_bundle(
        &self,
        net: &Network,
        src: (usize, u16),
        dst: (usize, u16),
    ) -> FlowBundleSpec {
        let (sp, spt) = src;
        let (dp, dpt) = dst;
        let generator = self
            .attached_node(sp, spt)
            .expect("flow_bundle src has an attached generator");
        let sink = self
            .attached_node(dp, dpt)
            .expect("flow_bundle dst has an attached sink");
        let spod = &self.pods[sp];
        let dpod = &self.pods[dp];
        let src_ss1 = spod.ss1.expect("flow bundles need the two-switch variant");
        let dst_ss1 = dpod.ss1.expect("flow bundles need the two-switch variant");
        let gen = net.node_ref::<Generator>(generator);
        let untagged: std::sync::Arc<[_]> =
            (0..gen.flows().len()).map(|i| gen.probe_frame(i)).collect();
        let vlan_src = spod.map.vlan_of(spt).expect("access port has a VLAN");
        let vlan_dst = dpod.map.vlan_of(dpt).expect("access port has a VLAN");
        let tagged: std::sync::Arc<[_]> = untagged
            .iter()
            .map(|f| push_vlan(f, VlanTag::new(vlan_src)).expect("probe frames are well-formed"))
            .collect();
        // Downstream of the source pod, probes exist only while frames
        // stay byte-identical (no L3 rewrites).
        let downstream = || (!self.spec.l3_routing).then(|| untagged.clone());
        let n = self.spec.pod.n_access_ports;
        let t = self.spec.pod.n_trunks;
        let tr_src = 1 + (vlan_src % t);
        let tr_dst = 1 + (vlan_dst % t);
        let mut hops = vec![
            FlowHop {
                node: spod.legacy,
                in_port: PortId(spt),
                probe: None,
            },
            FlowHop {
                node: src_ss1,
                in_port: PortId(tr_src),
                probe: Some(tagged),
            },
            FlowHop {
                node: spod.ss2,
                in_port: PortId(spt),
                probe: Some(untagged.clone()),
            },
        ];
        let mut links = vec![
            (generator, PortId(0)),
            (spod.legacy, PortId(n + tr_src)),
            (spod.ss2, PortId(spt)),
        ];
        if sp != dp {
            match self.spec.interconnect {
                Interconnect::None => {
                    unreachable!("multi-pod fabrics always have an interconnect")
                }
                Interconnect::Line => {
                    // Transit pods route the frame onward; it arrives on
                    // the uplink facing the source side.
                    let arrive = if dp > sp {
                        PortId(n + 2)
                    } else {
                        PortId(n + 1)
                    };
                    let mut p = sp;
                    while p != dp {
                        p = if dp > sp { p + 1 } else { p - 1 };
                        hops.push(FlowHop {
                            node: self.pods[p].ss2,
                            in_port: arrive,
                            probe: downstream(),
                        });
                    }
                    for p in sp.min(dp)..sp.max(dp) {
                        links.push((self.pods[p].ss2, PortId(n + 1)));
                    }
                }
                Interconnect::SpineSoft | Interconnect::SpineLegacy => {
                    let spine = self.spine.expect("spine interconnects build a spine");
                    let probe = match spine {
                        Spine::Soft(_) => downstream(),
                        Spine::Legacy(_) => None,
                    };
                    hops.push(FlowHop {
                        node: spine.node(),
                        in_port: PortId(sp as u16 + 1),
                        probe,
                    });
                    hops.push(FlowHop {
                        node: dpod.ss2,
                        in_port: PortId(n + 1),
                        probe: downstream(),
                    });
                    links.push((spod.ss2, PortId(n + 1)));
                    links.push((dpod.ss2, PortId(n + 1)));
                }
            }
        }
        hops.push(FlowHop {
            node: dst_ss1,
            in_port: PortId(patch_port(dpt) as u16),
            probe: downstream(),
        });
        hops.push(FlowHop {
            node: dpod.legacy,
            in_port: PortId(n + tr_dst),
            probe: None,
        });
        links.push((dpod.ss2, PortId(dpt)));
        links.push((dpod.legacy, PortId(n + tr_dst)));
        links.push((sink, PortId(0)));
        FlowBundleSpec {
            generator,
            sink,
            hops,
            links,
        }
    }

    /// Aggregate measurement rollup of pod `pod`: every attached
    /// [`Sink`]'s frames, bytes and latency folded into one [`Rollup`].
    /// Flow-level engine counters are per-driver, not per-pod — fold
    /// them in with [`netsim::flowsim::HybridStats::roll_into`].
    pub fn pod_rollup(&self, net: &Network, pod: usize) -> Rollup {
        let mut r = Rollup::new();
        for (&(p, _port), &node) in &self.attached {
            if p == pod {
                if let Some(sink) = net.try_node_ref::<Sink>(node) {
                    sink.roll_into(&mut r);
                }
            }
        }
        r
    }

    /// Configure every pod through the direct (non-SNMP) path: legacy
    /// VLAN tagging plus translator rules. Experiments that are not
    /// about migration call this once instead of running managers.
    pub fn configure_direct(&self, net: &mut Network) {
        for pod in &self.pods {
            pod.configure_legacy_directly(net);
            pod.install_translator_rules(net);
        }
    }

    /// Register every pod's SS_2 — and a soft spine, if present — with
    /// the one fabric controller. Like
    /// [`HarmlessInstance::connect_controller`], call before the first
    /// `run_*` so the OpenFlow HELLOs go out on start; mid-run
    /// connections go through the manager's admin path instead.
    ///
    /// With [`FabricSpec::arp_proxy`] set, all hosts attached so far are
    /// registered with the controller's [`ArpProxy`] app (hosts attached
    /// afterwards register as they attach).
    pub fn connect_controller(&mut self, net: &mut Network, controller: NodeId) {
        for pod in &self.pods {
            pod.connect_controller(net, controller);
        }
        self.register_controller(net, controller);
    }

    /// Register `backup` as the warm-standby controller of every software
    /// switch (all SS_2s and a soft spine). A switch dials it only after
    /// declaring the primary dead; the backup then rebuilds each
    /// datapath's rules from the resulting re-handshakes. Build the
    /// backup [`ControllerNode`] with the same app chain as the primary
    /// (and a higher role generation): its [`ArpProxy`] and [`Router`]
    /// serve the primary's host table and router configs, so the rebuilt
    /// rule set matches the primary's. Panics, like
    /// [`Self::register_controller`], if the backup lacks one of them.
    pub fn connect_backup_controller(&mut self, net: &mut Network, backup: NodeId) {
        self.for_each_softswitch(net, |sw| sw.add_backup_controller(backup));
        self.backup_controller = Some(backup);
        self.share_desired_state(net, backup);
    }

    /// Point `ctrl`'s [`ArpProxy`] and [`Router`] at the fabric's host
    /// table and router configs (those the spec enables and a primary
    /// has registered).
    fn share_desired_state(&self, net: &mut Network, ctrl: NodeId) {
        let c = net.node_mut::<ControllerNode>(ctrl);
        if let Some(hosts) = &self.hosts {
            c.app_mut::<ArpProxy>()
                .expect(NO_ARP_PROXY)
                .share_hosts(Rc::clone(hosts));
        }
        if let Some(routes) = &self.routes {
            c.app_mut::<Router>()
                .expect(NO_ROUTER)
                .share_configs(Rc::clone(routes));
        }
    }

    /// Run `f` over every software switch of the fabric — each pod's SS_2
    /// and the soft spine, if present. Experiments use this to tune
    /// resilience knobs (fail mode, keepalive cadence, reconnect backoff)
    /// after the topology is built.
    pub fn for_each_softswitch(&self, net: &mut Network, mut f: impl FnMut(&mut SoftSwitchNode)) {
        for pod in &self.pods {
            f(net.node_mut::<SoftSwitchNode>(pod.ss2));
        }
        if let Some(Spine::Soft(spine)) = self.spine {
            f(net.node_mut::<SoftSwitchNode>(spine));
        }
    }

    /// Adopt `controller` as the fabric controller — spine hookup, ARP
    /// proxy bookkeeping, route registration — **without touching the
    /// pods**. Migration-wave scenarios use this: the pods join the
    /// controller later through their managers, and the routes
    /// registered here flow to each datapath when it eventually
    /// handshakes ([`ArpProxy`] replays its table on `on_switch_ready`).
    ///
    /// # Panics
    /// Panics if the controller runs no [`ArpProxy`] app while
    /// [`FabricSpec::arp_proxy`] is set, or no [`Router`] app while
    /// [`FabricSpec::l3_routing`] is set.
    pub fn register_controller(&mut self, net: &mut Network, controller: NodeId) {
        self.connect_spine(net, controller);
        self.controller = Some(controller);
        let c = net.node_mut::<ControllerNode>(controller);
        if self.spec.arp_proxy {
            let hosts = c.app_mut::<ArpProxy>().expect(NO_ARP_PROXY).hosts();
            self.hosts = Some(Rc::clone(hosts));
        }
        if self.spec.l3_routing {
            let routes = c.app_mut::<Router>().expect(NO_ROUTER).configs();
            self.routes = Some(Rc::clone(routes));
        }
        if let Some(backup) = self.backup_controller {
            self.share_desired_state(net, backup);
        }
        if self.hosts.is_some() {
            for route in self.proxy_routes(net) {
                self.register_route(route);
            }
        }
        self.sync_l3(net);
    }

    /// The fabric-wide identity of the station on `at`, if it carries
    /// one: from the attached node itself for [`Self::attach_host`]
    /// hosts (a migrated host keeps its original addresses), from the
    /// port for [`Self::attach_station`] stations (the identity they
    /// signed up for).
    fn identity(&self, net: &Network, at: (usize, u16)) -> Option<(Ipv4Addr, MacAddr)> {
        if self.host_ports.contains(&at) {
            let hr = net.node_ref::<Host>(self.attached[&at]);
            Some((hr.ip(), hr.mac()))
        } else if self.station_ports.contains(&at) {
            Some((self.host_ip(at.0, at.1), self.host_mac(at.0, at.1)))
        } else {
            None
        }
    }

    /// Every identity-carrying attachment with its identity: hosts,
    /// then stations, each in port order.
    fn identities<'a>(
        &'a self,
        net: &'a Network,
    ) -> impl Iterator<Item = ((usize, u16), Ipv4Addr, MacAddr)> + 'a {
        self.host_ports
            .iter()
            .chain(&self.station_ports)
            .filter_map(move |&at| self.identity(net, at).map(|(ip, mac)| (at, ip, mac)))
    }

    /// Proactive [`ArpProxy`] routes for every identity-carrying
    /// station attached so far, plus the internet gateway when
    /// configured.
    fn proxy_routes(&self, net: &Network) -> Vec<HostRoute> {
        let mut routes: Vec<HostRoute> = self
            .identities(net)
            .map(|((pod, port), ip, mac)| {
                let (ports, guards) = self.route_location(pod, port);
                HostRoute {
                    ip,
                    mac,
                    ports,
                    guards,
                }
            })
            .collect();
        if let (Some(gw), Some(_)) = (self.spec.gateway, self.internet) {
            routes.push(HostRoute {
                ip: gw.internet_ip,
                mac: INTERNET_MAC,
                ports: Vec::new(),
                guards: Vec::new(),
            });
        }
        routes
    }

    /// Register only a [`Spine::Soft`] spine with the controller (no-op
    /// for legacy spines). Migration-wave scenarios use this: pods join
    /// the controller through their managers, but the spine is server
    /// infrastructure that must be connected from the start.
    pub fn connect_spine(&self, net: &mut Network, controller: NodeId) {
        if let Some(Spine::Soft(spine)) = self.spine {
            net.node_mut::<SoftSwitchNode>(spine)
                .connect_controller(controller);
        }
    }

    /// True once every pod's SS_2 has a controller configured.
    pub fn all_pods_connected(&self, net: &Network) -> bool {
        self.pods.iter().all(|p| p.ss2_has_controller(net))
    }

    /// Launch one [`HarmlessManager`] per listed pod, migrating those
    /// pods to SDN control over the live management plane (SNMP
    /// configure + verify, translator install, controller hookup).
    /// Returns the manager nodes, in `pods` order; poll them with
    /// [`Self::wave_done`]. Callable mid-run — managers start with the
    /// next processed event, which is what makes staged migration waves
    /// possible.
    pub fn run_migration_wave(
        &self,
        net: &mut Network,
        pods: &[usize],
        controller: NodeId,
    ) -> Result<Vec<NodeId>, FabricError> {
        let mut managers = Vec::with_capacity(pods.len());
        for &p in pods {
            let pod = self.check_pod(p)?;
            if pod.ss1.is_none() {
                return Err(FabricError::MergedVariant);
            }
            let cfg = ManagerConfig::for_instance(pod, controller);
            managers.push(net.add_node(HarmlessManager::new(cfg)));
        }
        Ok(managers)
    }

    /// True once every manager of a wave reports [`ManagerPhase::Done`].
    pub fn wave_done(&self, net: &Network, managers: &[NodeId]) -> bool {
        managers
            .iter()
            .all(|&m| *net.node_ref::<HarmlessManager>(m).phase() == ManagerPhase::Done)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use controller::apps::LearningSwitch;
    use netsim::SimTime;
    use openflow::Match;

    fn learning_ctrl(net: &mut Network) -> NodeId {
        net.add_node(ControllerNode::new(
            "ctrl",
            vec![Box::new(LearningSwitch::new())],
        ))
    }

    #[test]
    fn validation_rejects_bad_specs() {
        let pod = HarmlessSpec::new(4);
        assert_eq!(
            FabricSpec::new(0, pod.clone()).validate(),
            Err(FabricError::NoPods)
        );
        assert!(matches!(
            FabricSpec::new(201, pod.clone()).validate(),
            Err(FabricError::TooManyPods { max: 200, got: 201 })
        ));
        assert_eq!(
            FabricSpec::new(2, pod.clone())
                .with_interconnect(Interconnect::None)
                .validate(),
            Err(FabricError::MissingInterconnect)
        );
        assert_eq!(
            FabricSpec::new(2, pod.clone().with_variant(Variant::Merged)).validate(),
            Err(FabricError::MergedVariant)
        );
        // Pinned uplink count disagreeing with the interconnect.
        assert_eq!(
            FabricSpec::new(2, pod.clone().with_uplinks(2))
                .with_interconnect(Interconnect::SpineLegacy)
                .validate(),
            Err(FabricError::UplinkMismatch {
                expected: 1,
                got: 2
            })
        );
        assert_eq!(
            FabricSpec::new(3, pod.clone().with_uplinks(1))
                .with_interconnect(Interconnect::Line)
                .validate(),
            Err(FabricError::UplinkMismatch {
                expected: 2,
                got: 1
            })
        );
        // VLAN budget propagates.
        let mut big = HarmlessSpec::new(4000);
        big.vlan_base = 100;
        assert_eq!(
            FabricSpec::single(big).validate(),
            Err(FabricError::PortMap(PortMapError::VlanSpaceExhausted))
        );
        // And a good spec passes.
        assert_eq!(FabricSpec::new(2, pod).validate(), Ok(()));
    }

    #[test]
    fn attach_host_rejects_bad_and_duplicate_ports() {
        let mut net = Network::new(1);
        let mut fx = FabricSpec::new(2, HarmlessSpec::new(2))
            .build(&mut net)
            .unwrap();
        assert!(matches!(
            fx.attach_host(&mut net, 5, 1),
            Err(FabricError::NoSuchPod { pod: 5, n_pods: 2 })
        ));
        assert_eq!(
            fx.attach_host(&mut net, 1, 3).unwrap_err(),
            FabricError::NotAnAccessPort { pod: 1, port: 3 }
        );
        fx.attach_host(&mut net, 1, 2).unwrap();
        assert_eq!(
            fx.attach_host(&mut net, 1, 2).unwrap_err(),
            FabricError::DuplicateHostPort { pod: 1, port: 2 }
        );
        // Same port on the *other* pod is fine.
        fx.attach_host(&mut net, 0, 2).unwrap();
    }

    #[test]
    fn host_identities_are_globally_unique() {
        let mut net = Network::new(1);
        let fx = FabricSpec::new(3, HarmlessSpec::new(300))
            .build(&mut net)
            .unwrap();
        // Pod 0 keeps the classic scheme.
        assert_eq!(fx.host_ip(0, 2), Ipv4Addr::new(10, 0, 0, 2));
        assert_eq!(fx.host_mac(0, 2), netpkt::MacAddr::host(2));
        // Other pods move to their own /16.
        assert_eq!(fx.host_ip(2, 1), Ipv4Addr::new(10, 2, 0, 1));
        assert_eq!(fx.host_ip(1, 251), Ipv4Addr::new(10, 1, 1, 1));
        let mut ips = std::collections::HashSet::new();
        let mut macs = std::collections::HashSet::new();
        for pod in 0..3usize {
            for port in 1..=4u16 {
                assert!(ips.insert(fx.host_ip(pod, port)));
                assert!(macs.insert(fx.host_mac(pod, port)));
            }
        }
    }

    #[test]
    #[should_panic(expected = "host_ip of an existing")]
    fn host_ip_rejects_addresses_outside_the_fabric() {
        let mut net = Network::new(1);
        let fx = FabricSpec::new(2, HarmlessSpec::new(4))
            .build(&mut net)
            .unwrap();
        let _ = fx.host_ip(2, 1); // no such pod
    }

    #[test]
    fn single_pod_fabric_matches_the_classic_instance() {
        let mut net = Network::new(42);
        let ctrl = learning_ctrl(&mut net);
        let mut fx = FabricSpec::single(HarmlessSpec::new(4))
            .build(&mut net)
            .unwrap();
        assert_eq!(fx.n_pods(), 1);
        assert!(fx.spine().is_none());
        // Classic dpid + no uplink ports.
        assert_eq!(fx.pod(0).spec.ss2_dpid, crate::instance::SS2_DPID);
        assert_eq!(fx.pod(0).spec.uplinks, 0);
        fx.configure_direct(&mut net);
        fx.connect_controller(&mut net, ctrl);
        assert!(fx.all_pods_connected(&net));
        let a = fx.attach_host(&mut net, 0, 1).unwrap();
        let _b = fx.attach_host(&mut net, 0, 2).unwrap();
        net.run_until(SimTime::from_millis(100));
        let ip = fx.host_ip(0, 2);
        net.with_node_ctx::<Host, _>(a, |h, ctx| {
            h.ping(b"single", ip);
            h.flush(ctx);
        });
        net.run_until(SimTime::from_millis(400));
        assert_eq!(net.node_ref::<Host>(a).echo_replies_received(), 1);
    }

    #[test]
    fn cross_pod_ping_over_every_interconnect() {
        for ic in [
            Interconnect::Line,
            Interconnect::SpineSoft,
            Interconnect::SpineLegacy,
        ] {
            let mut net = Network::new(77);
            let ctrl = learning_ctrl(&mut net);
            let mut fx = FabricSpec::new(3, HarmlessSpec::new(2))
                .with_interconnect(ic)
                .build(&mut net)
                .unwrap();
            fx.configure_direct(&mut net);
            fx.connect_controller(&mut net, ctrl);
            let a = fx.attach_host(&mut net, 0, 1).unwrap();
            let b = fx.attach_host(&mut net, 2, 1).unwrap();
            net.run_until(SimTime::from_millis(100));
            let ip = fx.host_ip(2, 1);
            net.with_node_ctx::<Host, _>(a, |h, ctx| {
                h.ping(b"cross-pod", ip);
                h.flush(ctx);
            });
            net.run_until(SimTime::from_millis(600));
            assert_eq!(
                net.node_ref::<Host>(a).echo_replies_received(),
                1,
                "{ic:?}: pod 0 must reach pod 2"
            );
            assert_eq!(net.node_ref::<Host>(b).echo_requests_answered(), 1);
            // The controller really serves several datapaths.
            let c = net.node_ref::<ControllerNode>(ctrl);
            assert!(c.packet_ins() > 0);
        }
    }

    #[test]
    fn faulted_fabric_is_deterministic() {
        use netsim::FaultPlan;
        // A 4-pod fabric under live cross-pod traffic with an uplink
        // flap, a softswitch power-cycle and a legacy reboot. Two runs
        // with the same seed must produce the same replies, the same
        // blackhole count and the same event total.
        let run = || -> (u64, u64, u64, u64) {
            let mut net = Network::new(21);
            let (ctrl, mut fx) = proxy_fabric(&mut net, 4);
            fx.connect_controller(&mut net, ctrl);
            let hosts: Vec<NodeId> = (0..4)
                .map(|p| fx.attach_host(&mut net, p, 1).unwrap())
                .collect();
            let uplink = PortId(fx.pod(1).uplink_port(1) as u16);
            let plan = FaultPlan::new()
                .link_flap(
                    SimTime::from_millis(200),
                    SimTime::from_millis(100),
                    fx.pod(1).ss2,
                    uplink,
                )
                .reset(SimTime::from_millis(350), fx.pod(2).ss2)
                .reset(SimTime::from_millis(400), fx.pod(3).legacy);
            net.apply_faults(&plan);
            net.run_until(SimTime::from_millis(100));
            // Ping rounds spanning the whole fault window.
            for _ in 0..6 {
                for (p, &h) in hosts.iter().enumerate() {
                    let target = fx.host_ip((p + 1) % 4, 1);
                    net.with_node_ctx::<Host, _>(h, move |h, ctx| {
                        h.ping(b"fault", target);
                        h.flush(ctx);
                    });
                }
                net.run_for(SimTime::from_millis(100));
            }
            net.run_until(SimTime::from_millis(1500));
            let replies: u64 = hosts
                .iter()
                .map(|&h| net.node_ref::<Host>(h).echo_replies_received())
                .sum();
            let resets = net.node_ref::<SoftSwitchNode>(fx.pod(2).ss2).resets()
                + net.node_ref::<LegacySwitchNode>(fx.pod(3).legacy).reboots();
            (
                replies,
                net.blackholed_frames(),
                net.events_processed(),
                resets,
            )
        };
        let baseline = run();
        assert_eq!(baseline.3, 2, "both scheduled resets fired");
        assert!(baseline.0 > 0, "traffic still flows around the faults");
        assert_eq!(run(), baseline);
    }

    #[test]
    fn backup_controller_takes_over_after_primary_crash() {
        use openflow::ControllerRole;
        // A warm-standby backup with the same app chain. Crash the
        // primary mid-run: every software switch must declare it dead,
        // fail over, and the backup must self-promote to master and
        // rebuild the exact fault-free rule set — bounded downtime,
        // zero stale rules, and the data plane keeps forwarding on its
        // proactive routes throughout the outage.
        let run = |crash: bool| {
            let mut net = Network::new(33);
            let apps = || -> Vec<Box<dyn controller::App>> {
                vec![Box::new(ArpProxy::new()), Box::new(LearningSwitch::new())]
            };
            let primary = net.add_node(
                ControllerNode::new("primary", apps()).with_role(ControllerRole::Master, 1),
            );
            let backup = net.add_node(
                ControllerNode::new("backup", apps()).with_role(ControllerRole::Slave, 2),
            );
            let mut fx = FabricSpec::new(2, HarmlessSpec::new(2))
                .with_interconnect(Interconnect::SpineSoft)
                .with_arp_proxy(true)
                .build(&mut net)
                .unwrap();
            fx.configure_direct(&mut net);
            fx.connect_controller(&mut net, primary);
            fx.connect_backup_controller(&mut net, backup);
            fx.for_each_softswitch(&mut net, |sw| {
                sw.set_keepalive(SimTime::from_millis(50), 2);
                sw.set_backoff(SimTime::from_millis(50), SimTime::from_millis(200));
            });
            let hosts: Vec<NodeId> = (0..2)
                .map(|p| fx.attach_host(&mut net, p, 1).unwrap())
                .collect();
            net.run_until(SimTime::from_millis(100));
            let round = |net: &mut Network| {
                for (p, &h) in hosts.iter().enumerate() {
                    let target = fx.host_ip((p + 1) % 2, 1);
                    net.with_node_ctx::<Host, _>(h, move |h, ctx| {
                        h.ping(b"failover", target);
                        h.flush(ctx);
                    });
                }
                net.run_for(SimTime::from_millis(100));
            };
            round(&mut net);
            round(&mut net);
            if crash {
                net.ctrl_down(primary);
                // Outage window: detection (2 × 50 ms of unanswered
                // probes), backoff, redial and re-handshake.
                net.run_for(SimTime::from_millis(400));
            }
            round(&mut net);
            round(&mut net);
            net.run_until(SimTime::from_millis(1500));
            let replies: u64 = hosts
                .iter()
                .map(|&h| net.node_ref::<Host>(h).echo_replies_received())
                .sum();
            // Canonical rule set of every software datapath: the
            // converged state must not depend on which controller
            // installed it.
            let switches = [fx.pod(0).ss2, fx.pod(1).ss2, fx.spine().unwrap().node()];
            let rules: Vec<Vec<String>> = switches
                .iter()
                .map(|&n| {
                    let mut v: Vec<String> = net
                        .node_ref::<SoftSwitchNode>(n)
                        .datapath()
                        .table(0)
                        .unwrap()
                        .entries()
                        .iter()
                        .map(|e| format!("{}|{:?}|{:?}", e.priority, e.match_, e.instructions))
                        .collect();
                    v.sort();
                    v
                })
                .collect();
            let mut failovers = 0u64;
            let mut all_up = true;
            let mut on_backup = true;
            fx.for_each_softswitch(&mut net, |sw| {
                failovers += sw.failovers();
                all_up &= sw.controller_link_up();
                on_backup &= sw.controller() == Some(backup);
            });
            let promoted = net.node_ref::<ControllerNode>(backup).promotions();
            let backup_role = net.node_ref::<ControllerNode>(backup).role();
            (
                replies,
                rules,
                failovers,
                all_up,
                on_backup,
                promoted,
                backup_role,
            )
        };
        let base = run(false);
        assert_eq!(base.0, 8, "fault-free: all pings answered");
        assert_eq!(base.2, 0, "fault-free: no failovers");
        assert_eq!(base.5, 0, "fault-free: the backup is never dialed");
        let crashed = run(true);
        assert_eq!(
            crashed.2, 3,
            "every software switch failed over exactly once"
        );
        assert!(crashed.3, "all control links re-established");
        assert!(crashed.4, "every switch now dials the backup");
        assert!(
            crashed.5 >= 1,
            "backup self-promoted on the first re-handshake"
        );
        assert_eq!(crashed.6, ControllerRole::Master);
        assert_eq!(
            crashed.0, base.0,
            "proactive routes keep the data plane forwarding through the outage"
        );
        assert_eq!(
            crashed.1, base.1,
            "rule sets converge to the fault-free state — no stale, no missing rules"
        );
    }

    /// Build a pods × hosts fabric (optionally with the ARP proxy),
    /// stagger one all-hosts cross-pod ping round, then a second
    /// (converged) round. Returns
    /// `(round-1 replies, round-1 packet-ins, round-2 packet-ins,
    ///   proxied answers, total hosts)`.
    fn ping_rounds(
        proxy: bool,
        interconnect: Interconnect,
        n_pods: u16,
        n_hosts: u16,
    ) -> (u64, u64, u64, u64, u64) {
        let mut net = Network::new(5);
        let apps: Vec<Box<dyn controller::App>> = if proxy {
            vec![Box::new(ArpProxy::new()), Box::new(LearningSwitch::new())]
        } else {
            vec![Box::new(LearningSwitch::new())]
        };
        let ctrl = net.add_node(ControllerNode::new("ctrl", apps));
        let mut fx = FabricSpec::new(n_pods, HarmlessSpec::new(n_hosts))
            .with_interconnect(interconnect)
            .with_arp_proxy(proxy)
            .build(&mut net)
            .unwrap();
        fx.configure_direct(&mut net);
        fx.connect_controller(&mut net, ctrl);
        let mut hosts: Vec<Vec<NodeId>> = Vec::new();
        for p in 0..usize::from(n_pods) {
            hosts.push(
                (1..=n_hosts)
                    .map(|i| fx.attach_host(&mut net, p, i).unwrap())
                    .collect(),
            );
        }
        net.run_until(SimTime::from_millis(100));
        let round = |net: &mut Network| {
            for i in 1..=n_hosts {
                for (p, pod_hosts) in hosts.iter().enumerate() {
                    let target = fx.host_ip((p + 1) % usize::from(n_pods), i);
                    let h = pod_hosts[usize::from(i) - 1];
                    net.with_node_ctx::<Host, _>(h, move |h, ctx| {
                        h.ping(b"proxy", target);
                        h.flush(ctx);
                    });
                }
                net.run_for(SimTime::from_micros(400));
            }
            net.run_for(SimTime::from_millis(400));
        };
        round(&mut net);
        let replies1: u64 = hosts
            .iter()
            .flatten()
            .map(|&h| net.node_ref::<Host>(h).echo_replies_received())
            .sum();
        let pi1 = net.node_ref::<ControllerNode>(ctrl).packet_ins();
        round(&mut net);
        let pi2 = net.node_ref::<ControllerNode>(ctrl).packet_ins() - pi1;
        let answered = if proxy {
            net.node_mut::<ControllerNode>(ctrl)
                .app_mut::<ArpProxy>()
                .unwrap()
                .answered()
        } else {
            0
        };
        let total = u64::from(n_pods) * u64::from(n_hosts);
        (replies1, pi1, pi2, answered, total)
    }

    #[test]
    fn arp_proxy_contains_round1_floods() {
        // Without the proxy: reactive learning, broadcast punts at every
        // datapath — packet-ins grow superlinearly with hosts.
        let (replies, pi1, pi2, _, total) = ping_rounds(false, Interconnect::SpineSoft, 3, 4);
        assert_eq!(replies, total);
        assert_eq!(pi2, 0);
        assert!(
            pi1 > total + 3,
            "reactive baseline floods: {pi1} packet-ins for {total} hosts"
        );
        // With the proxy: one ARP punt per host, answered at the pod
        // edge; proactive routes keep the unicast path silent.
        let (replies, pi1, pi2, answered, total) = ping_rounds(true, Interconnect::SpineSoft, 3, 4);
        assert_eq!(replies, total, "convergence is unchanged");
        assert_eq!(pi2, 0, "round 2 stays silent");
        assert!(
            pi1 <= total + 3,
            "round-1 packet-ins must be O(hosts): {pi1} > {total} + pods"
        );
        assert_eq!(answered, total, "every host's one ARP was proxied");
    }

    #[test]
    fn arp_proxy_guards_legacy_spine_reflections() {
        // A legacy spine floods unknown destinations; without the
        // reflection guards the proactive uplink routes would bounce
        // flood copies straight back and storm the fabric. The guarded
        // routes must converge with pod-edge-only punts.
        let (replies, pi1, pi2, answered, total) =
            ping_rounds(true, Interconnect::SpineLegacy, 3, 2);
        assert_eq!(replies, total);
        assert_eq!(pi2, 0);
        assert!(pi1 <= total + 3, "{pi1} packet-ins for {total} hosts");
        assert_eq!(answered, total);
    }

    #[test]
    fn host_routes_follow_the_interconnect() {
        let mut net = Network::new(1);
        let fx = FabricSpec::new(3, HarmlessSpec::new(4))
            .with_interconnect(Interconnect::SpineSoft)
            .build(&mut net)
            .unwrap();
        // Host (pod 1, port 2): home access port, uplinks elsewhere,
        // pod-facing port on the spine.
        let r = fx.host_route(1, 2);
        assert_eq!(r.ip, fx.host_ip(1, 2));
        assert_eq!(r.mac, fx.host_mac(1, 2));
        assert_eq!(
            r.ports,
            vec![
                (POD_SS2_DPID_BASE, 5),     // pod 0: uplink (4 access + 1)
                (POD_SS2_DPID_BASE + 1, 2), // home pod: access port
                (POD_SS2_DPID_BASE + 2, 5), // pod 2: uplink
                (SPINE_DPID, 2),            // spine: port pod+1
            ]
        );
        assert!(r.guards.is_empty(), "soft spines need no guards");

        // Line interconnect: direction-aware uplinks, no spine entry.
        let fx = FabricSpec::new(3, HarmlessSpec::new(4))
            .with_interconnect(Interconnect::Line)
            .build(&mut net)
            .unwrap();
        let r = fx.host_route(1, 3);
        assert_eq!(
            r.ports,
            vec![
                (POD_SS2_DPID_BASE, 5),     // pod 0 reaches pod 1 rightward
                (POD_SS2_DPID_BASE + 1, 3), // home
                (POD_SS2_DPID_BASE + 2, 6), // pod 2 reaches pod 1 leftward
            ]
        );

        // Legacy spine: uplink routes carry reflection guards.
        let fx = FabricSpec::new(2, HarmlessSpec::new(4))
            .with_interconnect(Interconnect::SpineLegacy)
            .build(&mut net)
            .unwrap();
        let r = fx.host_route(0, 1);
        assert_eq!(r.guards, vec![(POD_SS2_DPID_BASE + 1, 5)]);
    }

    #[test]
    #[should_panic(expected = "no ArpProxy app")]
    fn arp_proxy_flag_requires_the_app() {
        let mut net = Network::new(1);
        let ctrl = learning_ctrl(&mut net); // no ArpProxy in the chain
        let mut fx = FabricSpec::new(2, HarmlessSpec::new(2))
            .with_arp_proxy(true)
            .build(&mut net)
            .unwrap();
        fx.connect_controller(&mut net, ctrl);
        let _ = fx.attach_host(&mut net, 0, 1);
    }

    #[test]
    fn migrating_a_host_retracts_stale_routes_and_reroutes_traffic() {
        use controller::apps::arp_proxy::ROUTE_PRIORITY;
        use openflow::{Action, Instruction, Match};
        let mut net = Network::new(11);
        let (ctrl, mut fx) = proxy_fabric(&mut net, 3);
        fx.connect_controller(&mut net, ctrl);
        let a = fx.attach_host(&mut net, 0, 1).unwrap();
        let b = fx.attach_host(&mut net, 1, 1).unwrap();
        net.run_until(SimTime::from_millis(100));
        let b_ip = fx.host_ip(1, 1);
        let b_mac = fx.host_mac(1, 1);
        // Warm the path: proxied ARP, then pod 0 → spine → pod 1.
        net.with_node_ctx::<Host, _>(a, move |h, ctx| {
            h.ping(b"before", b_ip);
            h.flush(ctx);
        });
        net.run_until(SimTime::from_millis(400));
        assert_eq!(net.node_ref::<Host>(a).echo_replies_received(), 1);

        // Live-migrate b to pod 2, access port 2; its IP/MAC travel
        // with it. The proxy retracts the pod-1 routes and installs the
        // pod-2 ones in the same sync.
        fx.migrate_host(&mut net, (1, 1), (2, 2)).unwrap();
        net.run_until(SimTime::from_millis(450)); // control plane lands
        let blackholed_at_reconvergence = net.blackholed_frames();

        net.with_node_ctx::<Host, _>(a, move |h, ctx| {
            h.ping(b"after", b_ip);
            h.flush(ctx);
        });
        net.run_until(SimTime::from_millis(900));
        assert_eq!(
            net.node_ref::<Host>(a).echo_replies_received(),
            2,
            "ping must reach the migrated host without re-ARPing"
        );
        assert_eq!(net.node_ref::<Host>(b).echo_requests_answered(), 2);
        assert_eq!(
            net.blackholed_frames(),
            blackholed_at_reconvergence,
            "zero packets blackholed after reconvergence"
        );

        // Every datapath holds exactly one prio-20 route for b's MAC,
        // and it points at the *new* location — in particular the old
        // home pod now routes b out of its uplink, not access port 1.
        let uplink = 3u32; // 2 access ports + 1
        for (node, expected_out, what) in [
            (fx.pod(0).ss2, uplink, "pod 0 uplink"),
            (
                fx.pod(1).ss2,
                uplink,
                "old home: uplink, not the stale access port",
            ),
            (fx.pod(2).ss2, 2, "new home: access port 2"),
            (fx.spine().unwrap().node(), 3, "spine: pod-2-facing port"),
        ] {
            let dp = net.node_ref::<SoftSwitchNode>(node);
            let routes: Vec<_> = dp
                .datapath()
                .table(0)
                .unwrap()
                .entries()
                .iter()
                .filter(|e| e.priority == ROUTE_PRIORITY && e.match_ == Match::new().eth_dst(b_mac))
                .collect();
            assert_eq!(routes.len(), 1, "{what}: one live route, no stale ones");
            assert_eq!(
                routes[0].instructions,
                vec![Instruction::ApplyActions(vec![Action::output(
                    expected_out
                )])],
                "{what}"
            );
        }
    }

    #[test]
    fn detach_host_retracts_routes_and_frees_the_port() {
        let mut net = Network::new(4);
        let (ctrl, mut fx) = proxy_fabric(&mut net, 2);
        fx.connect_controller(&mut net, ctrl);
        let a = fx.attach_host(&mut net, 0, 1).unwrap();
        let _b = fx.attach_host(&mut net, 1, 1).unwrap();
        net.run_until(SimTime::from_millis(100));
        assert_eq!(
            fx.detach_host(&mut net, 1, 2).unwrap_err(),
            FabricError::NothingAttached { pod: 1, port: 2 }
        );
        fx.detach_host(&mut net, 1, 1).unwrap();
        assert_eq!(fx.attached_node(1, 1), None);
        // The proxy no longer answers for the detached IP...
        let gone = fx.host_ip(1, 1);
        assert_eq!(
            net.node_mut::<ControllerNode>(ctrl)
                .app_mut::<ArpProxy>()
                .unwrap()
                .lookup(gone),
            None
        );
        // ...pings toward it stall at ARP (the host queues them and
        // keeps retrying)...
        net.with_node_ctx::<Host, _>(a, move |h, ctx| {
            h.ping(b"ghost", gone);
            h.flush(ctx);
        });
        net.run_until(SimTime::from_millis(600));
        assert_eq!(net.node_ref::<Host>(a).echo_replies_received(), 0);
        // ...and the port takes a fresh attachment, which revives the
        // IP: the queued ping resolves and both pings go through.
        let b2 = fx.attach_host(&mut net, 1, 1).unwrap();
        net.run_until(SimTime::from_millis(700));
        net.with_node_ctx::<Host, _>(a, move |h, ctx| {
            h.ping(b"reborn", gone);
            h.flush(ctx);
        });
        net.run_until(SimTime::from_millis(1500));
        assert_eq!(net.node_ref::<Host>(a).echo_replies_received(), 2);
        assert_eq!(net.node_ref::<Host>(b2).echo_requests_answered(), 2);
    }

    /// An ARP-proxy fabric of `n_pods` two-port pods on a soft spine,
    /// configured, with its (not yet connected) controller.
    fn proxy_fabric(net: &mut Network, n_pods: u16) -> (NodeId, Fabric) {
        let ctrl = net.add_node(ControllerNode::new(
            "ctrl",
            vec![Box::new(ArpProxy::new()), Box::new(LearningSwitch::new())],
        ));
        let fx = FabricSpec::new(n_pods, HarmlessSpec::new(2))
            .with_interconnect(Interconnect::SpineSoft)
            .with_arp_proxy(true)
            .build(net)
            .unwrap();
        fx.configure_direct(net);
        (ctrl, fx)
    }

    /// Software datapaths holding a proactive route toward the station
    /// on `at`, and the proxy's answer for its IP.
    fn proxied(
        net: &mut Network,
        fx: &Fabric,
        ctrl: NodeId,
        at: (usize, u16),
    ) -> (usize, Option<MacAddr>) {
        use controller::apps::arp_proxy::ROUTE_PRIORITY;
        let route = Match::new().eth_dst(fx.host_mac(at.0, at.1));
        let mut switches: Vec<NodeId> = fx.pods().map(|p| p.ss2).collect();
        switches.extend(fx.spine().map(|s| s.node()));
        let routes_it = |&&n: &&NodeId| {
            let table = net.node_ref::<SoftSwitchNode>(n).datapath().table(0);
            let mut entries = table.unwrap().entries().iter();
            entries.any(|e| e.priority == ROUTE_PRIORITY && e.match_ == route)
        };
        let routing = switches.iter().filter(routes_it).count();
        let proxy = net.node_mut::<ControllerNode>(ctrl).app_mut::<ArpProxy>();
        (routing, proxy.unwrap().lookup(fx.host_ip(at.0, at.1)))
    }

    #[test]
    fn detaching_a_station_retracts_its_proxy_entry() {
        let mut net = Network::new(4);
        let (ctrl, mut fx) = proxy_fabric(&mut net, 2);
        fx.connect_controller(&mut net, ctrl);
        let sink = net.add_node(Sink::new("sink"));
        fx.attach_station(&mut net, 1, 1, sink).unwrap();
        net.run_until(SimTime::from_millis(100));
        let mac = fx.host_mac(1, 1);
        assert_eq!(proxied(&mut net, &fx, ctrl, (1, 1)), (3, Some(mac)));
        fx.detach_host(&mut net, 1, 1).unwrap();
        net.run_until(SimTime::from_millis(200));
        assert_eq!(
            proxied(&mut net, &fx, ctrl, (1, 1)),
            (0, None),
            "a detached station's IP stops resolving, its routes are retracted"
        );
    }

    #[test]
    fn station_attached_before_the_controller_resolves() {
        let mut net = Network::new(4);
        let (ctrl, mut fx) = proxy_fabric(&mut net, 2);
        let sink = net.add_node(Sink::new("sink"));
        fx.attach_station(&mut net, 1, 1, sink).unwrap();
        fx.connect_controller(&mut net, ctrl);
        net.run_until(SimTime::from_millis(100));
        assert_eq!(
            proxied(&mut net, &fx, ctrl, (1, 1)),
            (3, Some(fx.host_mac(1, 1))),
            "every datapath routes toward the early station"
        );
    }

    /// A controller for routed fabrics: proxy answers who-has, router
    /// installs the per-prefix pipeline. No learning app — a router
    /// drops what it has no route for.
    fn l3_ctrl(net: &mut Network) -> NodeId {
        net.add_node(ControllerNode::new(
            "ctrl",
            vec![Box::new(ArpProxy::new()), Box::new(Router::new())],
        ))
    }

    /// Build an l3 (or l2 baseline) fabric of `n_pods`×`n_hosts`, run
    /// an all-pairs ping round, and report
    /// `(replies, blackholed frames, net, fabric, hosts)`.
    fn all_pairs_pings(
        l3: bool,
        interconnect: Interconnect,
        n_pods: u16,
        n_hosts: u16,
    ) -> (u64, u64, Network, Fabric) {
        let mut net = Network::new(13);
        let ctrl = if l3 {
            l3_ctrl(&mut net)
        } else {
            net.add_node(ControllerNode::new(
                "ctrl",
                vec![Box::new(ArpProxy::new()), Box::new(LearningSwitch::new())],
            ))
        };
        let mut spec = FabricSpec::new(n_pods, HarmlessSpec::new(n_hosts))
            .with_interconnect(interconnect)
            .with_arp_proxy(true);
        if l3 {
            spec = spec.with_l3_routing();
        }
        let mut fx = spec.build(&mut net).unwrap();
        fx.configure_direct(&mut net);
        fx.connect_controller(&mut net, ctrl);
        let mut hosts = Vec::new();
        for p in 0..usize::from(n_pods) {
            for i in 1..=n_hosts {
                hosts.push(((p, i), fx.attach_host(&mut net, p, i).unwrap()));
            }
        }
        net.run_until(SimTime::from_millis(100));
        for &((sp, si), h) in &hosts {
            for &((dp, di), _) in &hosts {
                if (sp, si) == (dp, di) {
                    continue;
                }
                let target = fx.host_ip(dp, di);
                net.with_node_ctx::<Host, _>(h, move |h, ctx| {
                    h.ping(b"pairs", target);
                    h.flush(ctx);
                });
            }
            net.run_for(SimTime::from_millis(2));
        }
        net.run_for(SimTime::from_millis(900));
        let replies: u64 = hosts
            .iter()
            .map(|&(_, h)| net.node_ref::<Host>(h).echo_replies_received())
            .sum();
        (replies, net.blackholed_frames(), net, fx)
    }

    #[test]
    fn l3_routing_matches_the_l2_fabric_on_every_interconnect() {
        for ic in [
            Interconnect::Line,
            Interconnect::SpineSoft,
            Interconnect::SpineLegacy,
        ] {
            let (l2_replies, l2_bh, _, _) = all_pairs_pings(false, ic, 3, 2);
            let (l3_replies, l3_bh, net, fx) = all_pairs_pings(true, ic, 3, 2);
            // 6 hosts, 30 directed pairs: identical reply sets, nothing
            // blackholed in either fabric.
            assert_eq!(l2_replies, 30, "{ic:?}: l2 baseline must converge");
            assert_eq!(l3_replies, l2_replies, "{ic:?}: l3 ≡ l2");
            assert_eq!((l2_bh, l3_bh), (0, 0), "{ic:?}: zero blackholes");
            // And the routed fabric did it with per-prefix state: every
            // SS_2's route table holds 2 inter-pod /16s + 2 local /32s,
            // no per-host inter-pod rules.
            for p in 0..fx.n_pods() {
                let dp = net.node_ref::<SoftSwitchNode>(fx.pod(p).ss2);
                let routes = dp
                    .datapath()
                    .table(controller::apps::router::ROUTE_TABLE)
                    .unwrap();
                let aggregates = routes
                    .entries()
                    .iter()
                    .filter(|e| e.priority < controller::apps::router::ROUTE_PRIORITY_BASE + 32)
                    .count();
                assert_eq!(aggregates, 2, "{ic:?} pod {p}: one /16 per remote pod");
                assert_eq!(routes.entries().len(), 4, "{ic:?} pod {p}: plus local /32s");
            }
        }
    }

    #[test]
    fn sixteen_pod_fabric_routes_with_per_prefix_state() {
        // The scaling claim: inter-pod reachability on a 16-pod fabric
        // out of ≤ pods+1 aggregate rules per datapath, where per-host
        // routing would need hosts×pods rules.
        let mut net = Network::new(4);
        let ctrl = l3_ctrl(&mut net);
        let mut fx = FabricSpec::new(16, HarmlessSpec::new(2))
            .with_interconnect(Interconnect::SpineSoft)
            .with_gateway(GatewaySpec::new(0, 2))
            .build(&mut net)
            .unwrap();
        fx.configure_direct(&mut net);
        fx.connect_controller(&mut net, ctrl);
        let mut hosts = Vec::new();
        for p in 0..16 {
            hosts.push(fx.attach_host(&mut net, p, 1).unwrap());
        }
        fx.attach_internet(&mut net).unwrap();
        net.run_until(SimTime::from_millis(200));
        // Far corner to far corner, and out through the NAT.
        let far = fx.host_ip(15, 1);
        let inet = fx.spec.gateway.unwrap().internet_ip;
        net.with_node_ctx::<Host, _>(hosts[3], move |h, ctx| {
            h.ping(b"far", far);
            h.ping(b"out", inet);
            h.flush(ctx);
        });
        net.run_until(SimTime::from_millis(900));
        assert_eq!(net.node_ref::<Host>(hosts[3]).echo_replies_received(), 2);
        for p in 0..16 {
            let dp = net.node_ref::<SoftSwitchNode>(fx.pod(p).ss2);
            let routes = dp
                .datapath()
                .table(controller::apps::router::ROUTE_TABLE)
                .unwrap();
            let aggregates = routes
                .entries()
                .iter()
                .filter(|e| e.priority < controller::apps::router::ROUTE_PRIORITY_BASE + 32)
                .count();
            // 15 remote /16s + the default route.
            assert!(
                aggregates <= 16 + 1,
                "pod {p}: {aggregates} aggregate rules, want ≤ pods+1"
            );
            // Against the L2 alternative: 16 hosts + internet would put
            // 17 eth_dst rules on *every* datapath; here non-local state
            // is bounded by the pod count, local state by pod size.
            assert!(
                routes.entries().len() <= 16 + 1 + 2,
                "pod {p}: routing table must stay per-prefix"
            );
        }
    }

    #[test]
    fn nat_gateway_round_trips_and_offloads_to_the_caches() {
        let mut net = Network::new(8);
        let ctrl = l3_ctrl(&mut net);
        let mut fx = FabricSpec::new(2, HarmlessSpec::new(2))
            .with_interconnect(Interconnect::Line)
            .with_gateway(GatewaySpec::new(1, 2))
            .build(&mut net)
            .unwrap();
        fx.configure_direct(&mut net);
        fx.connect_controller(&mut net, ctrl);
        let a = fx.attach_host(&mut net, 0, 1).unwrap();
        let inet_node = fx.attach_internet(&mut net).unwrap();
        net.run_until(SimTime::from_millis(100));
        let inet = fx.spec.gateway.unwrap().internet_ip;
        net.with_node_ctx::<Host, _>(a, move |h, ctx| {
            h.ping(b"first", inet);
            h.flush(ctx);
        });
        net.run_until(SimTime::from_millis(500));
        assert_eq!(net.node_ref::<Host>(a).echo_replies_received(), 1);
        let gw_dp = net.node_ref::<SoftSwitchNode>(fx.pod(1).ss2).datapath();
        assert_eq!(gw_dp.nat().created(), 1, "one ICMP connection");
        assert_eq!(gw_dp.nat().live_conns(), 1);
        let warm_hits = gw_dp.micro_cache().hits() + gw_dp.mega_cache().hits();
        // Established connection: the next packets replay from the
        // caches — the offload-on-first-packet shape.
        net.with_node_ctx::<Host, _>(a, move |h, ctx| {
            h.ping(b"second", inet);
            h.flush(ctx);
        });
        net.run_until(SimTime::from_millis(900));
        assert_eq!(net.node_ref::<Host>(a).echo_replies_received(), 2);
        let gw_dp = net.node_ref::<SoftSwitchNode>(fx.pod(1).ss2).datapath();
        assert_eq!(gw_dp.nat().created(), 1, "no new connection state");
        assert!(
            gw_dp.micro_cache().hits() + gw_dp.mega_cache().hits() >= warm_hits + 2,
            "request and reply must both hit the caches on round 2"
        );
        assert_eq!(net.node_ref::<Host>(inet_node).echo_requests_answered(), 2);
        assert_eq!(net.blackholed_frames(), 0);
    }

    #[test]
    fn l3_migration_reconverges_with_zero_stale_routes() {
        let mut net = Network::new(19);
        let ctrl = l3_ctrl(&mut net);
        let mut fx = FabricSpec::new(3, HarmlessSpec::new(2))
            .with_interconnect(Interconnect::SpineSoft)
            .with_l3_routing()
            .build(&mut net)
            .unwrap();
        fx.configure_direct(&mut net);
        fx.connect_controller(&mut net, ctrl);
        let a = fx.attach_host(&mut net, 0, 1).unwrap();
        let b = fx.attach_host(&mut net, 1, 1).unwrap();
        net.run_until(SimTime::from_millis(100));
        let b_ip = fx.host_ip(1, 1);
        net.with_node_ctx::<Host, _>(a, move |h, ctx| {
            h.ping(b"before", b_ip);
            h.flush(ctx);
        });
        net.run_until(SimTime::from_millis(400));
        assert_eq!(net.node_ref::<Host>(a).echo_replies_received(), 1);

        // b moves to pod 2; its IP/MAC travel with it. The router
        // recomputes wholesale: pod 1 loses the /32, pod 2 gains it.
        fx.migrate_host(&mut net, (1, 1), (2, 2)).unwrap();
        net.run_until(SimTime::from_millis(500));
        let blackholed_at_reconvergence = net.blackholed_frames();
        net.with_node_ctx::<Host, _>(a, move |h, ctx| {
            h.ping(b"after", b_ip);
            h.flush(ctx);
        });
        net.run_until(SimTime::from_millis(1000));
        assert_eq!(net.node_ref::<Host>(a).echo_replies_received(), 2);
        assert_eq!(net.node_ref::<Host>(b).echo_requests_answered(), 2);
        assert_eq!(net.blackholed_frames(), blackholed_at_reconvergence);
        // Zero stale rules: b kept its 10.1.* address, so every pod
        // holds exactly one /32 exception for it — pods 0 and 1 steer
        // up toward pod 2, pod 2 delivers on the new access port. No
        // leftover rule points at the old port.
        let host_prio = controller::apps::router::ROUTE_PRIORITY_BASE + 32;
        let b_match = Match::new()
            .eth_type(netpkt::EtherType::IPV4.0)
            .ipv4_dst_masked(b_ip, Ipv4Addr::BROADCAST);
        let uplink = u32::from(fx.spec.pod.n_access_ports + 1);
        for (p, want_port) in [(0usize, uplink), (1, uplink), (2, 2)] {
            let dp = net.node_ref::<SoftSwitchNode>(fx.pod(p).ss2);
            let found: Vec<_> = dp
                .datapath()
                .table(controller::apps::router::ROUTE_TABLE)
                .unwrap()
                .entries()
                .iter()
                .filter(|e| e.priority == host_prio && e.match_ == b_match)
                .cloned()
                .collect();
            assert_eq!(found.len(), 1, "pod {p}: exactly one /32 for b");
            assert!(
                matches!(
                    found[0].instructions.first(),
                    Some(openflow::Instruction::ApplyActions(acts))
                        if matches!(acts.last(), Some(openflow::Action::Output { port, .. }) if *port == want_port)
                ),
                "pod {p}: /32 must steer out port {want_port}"
            );
        }
    }

    #[test]
    fn route_loops_die_by_ttl_not_by_meltdown() {
        use controller::apps::router::PrefixRoute;
        let mut net = Network::new(23);
        let ctrl = l3_ctrl(&mut net);
        let mut fx = FabricSpec::new(2, HarmlessSpec::new(2))
            .with_interconnect(Interconnect::Line)
            .with_l3_routing()
            .build(&mut net)
            .unwrap();
        fx.configure_direct(&mut net);
        fx.connect_controller(&mut net, ctrl);
        let a = fx.attach_host(&mut net, 0, 1).unwrap();
        net.run_until(SimTime::from_millis(100));
        // Sabotage: both pods claim 10.99.0.0/16 points at the other —
        // a classic transient routing loop, made permanent.
        let phantom = Ipv4Addr::new(10, 99, 0, 1);
        {
            let mut routes = fx.routes.as_ref().unwrap().borrow_mut();
            for (p, q) in [(0usize, 1usize), (1, 0)] {
                let dpid = fx.pod(p).spec.ss2_dpid;
                let mut cfg = routes.get(dpid).unwrap().clone();
                let (out_port, next_hop) = fx.l3_next_hop(p, q);
                cfg.routes.push(PrefixRoute {
                    prefix: Ipv4Addr::new(10, 99, 0, 0),
                    len: 16,
                    out_port,
                    next_hop,
                    nat: None,
                });
                routes.upsert(cfg);
            }
            // The proxy must answer who-has for the phantom or the ping
            // never leaves the host.
            fx.hosts.as_ref().unwrap().borrow_mut().upsert(HostRoute {
                ip: phantom,
                mac: netpkt::MacAddr::host(0xbeef),
                ports: Vec::new(),
                guards: Vec::new(),
            });
        }
        fx.sync_now::<Router>(&mut net);
        net.run_until(SimTime::from_millis(200));
        net.with_node_ctx::<Host, _>(a, move |h, ctx| {
            h.ping(b"looped", phantom);
            h.flush(ctx);
        });
        net.run_until(SimTime::from_millis(2000));
        let expiries: u64 = (0..2)
            .map(|p| {
                net.node_ref::<SoftSwitchNode>(fx.pod(p).ss2)
                    .datapath()
                    .ttl_expired_total()
            })
            .sum();
        assert_eq!(expiries, 1, "the looped frame dies exactly once, by TTL");
        assert_eq!(net.node_ref::<Host>(a).echo_replies_received(), 0);
        // Bounded damage: one TTL's worth of hops, not a meltdown. A
        // frame looping without TTL protection would cross links until
        // the horizon and swamp the event count.
        assert!(
            net.events_processed() < 100_000,
            "loop must be TTL-bounded: {} events",
            net.events_processed()
        );
    }

    #[test]
    fn l3_spec_validation_and_attach_internet_guards() {
        let pod = HarmlessSpec::new(2);
        let mut spec = FabricSpec::new(2, pod.clone());
        spec.l3_routing = true; // bypass the builder's auto-enable
        assert_eq!(spec.validate(), Err(FabricError::L3NeedsArpProxy));
        let mut spec = FabricSpec::new(2, pod.clone());
        spec.gateway = Some(GatewaySpec::new(0, 1));
        assert_eq!(spec.validate(), Err(FabricError::GatewayNeedsL3));
        assert!(matches!(
            FabricSpec::new(2, pod.clone())
                .with_gateway(GatewaySpec::new(7, 1))
                .validate(),
            Err(FabricError::NoSuchPod { pod: 7, .. })
        ));
        assert!(matches!(
            FabricSpec::new(2, pod.clone())
                .with_gateway(GatewaySpec::new(0, 9))
                .validate(),
            Err(FabricError::NotAnAccessPort { port: 9, .. })
        ));
        assert_eq!(
            FabricSpec::new(2, pod.clone())
                .with_gateway(GatewaySpec::new(1, 2))
                .validate(),
            Ok(())
        );
        // attach_internet needs a gateway in the spec.
        let mut net = Network::new(1);
        let mut fx = FabricSpec::new(2, pod).build(&mut net).unwrap();
        assert_eq!(
            fx.attach_internet(&mut net).unwrap_err(),
            FabricError::NoGateway
        );
    }

    #[test]
    fn migration_waves_bring_pods_under_sdn_one_at_a_time() {
        let mut net = Network::new(99);
        let ctrl = learning_ctrl(&mut net);
        let mut fx = FabricSpec::new(2, HarmlessSpec::new(4))
            .with_interconnect(Interconnect::SpineLegacy)
            .build(&mut net)
            .unwrap();
        let a = fx.attach_host(&mut net, 0, 1).unwrap();
        let b = fx.attach_host(&mut net, 1, 1).unwrap();

        // Wave 1: migrate pod 0 only.
        let w1 = fx.run_migration_wave(&mut net, &[0], ctrl).unwrap();
        net.run_until(SimTime::from_secs(2));
        assert!(fx.wave_done(&net, &w1));
        assert!(fx.pod(0).ss2_has_controller(&net));
        assert!(!fx.pod(1).ss2_has_controller(&net));

        // Pod 1 is still an unmigrated island: cross-pod traffic dies at
        // its unconfigured translator.
        let ip_b = fx.host_ip(1, 1);
        net.with_node_ctx::<Host, _>(a, move |h, ctx| {
            h.ping(b"too early", ip_b);
            h.flush(ctx);
        });
        net.run_until(SimTime::from_secs(3));
        assert_eq!(net.node_ref::<Host>(a).echo_replies_received(), 0);

        // Wave 2: migrate pod 1 mid-run, then pinging works — including
        // the queued "too early" ping, whose ARP now resolves.
        let w2 = fx.run_migration_wave(&mut net, &[1], ctrl).unwrap();
        net.run_until(SimTime::from_secs(6));
        assert!(fx.wave_done(&net, &w2));
        net.with_node_ctx::<Host, _>(a, move |h, ctx| {
            h.ping(b"post wave 2", ip_b);
            h.flush(ctx);
        });
        net.run_until(SimTime::from_secs(8));
        assert_eq!(net.node_ref::<Host>(a).echo_replies_received(), 2);
        assert_eq!(net.node_ref::<Host>(b).echo_requests_answered(), 2);
    }
}
