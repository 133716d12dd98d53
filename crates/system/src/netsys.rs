//! The full network-domain scenario: client ⇄ wire ⇄ NIC ⇄ Kite/Linux
//! driver domain (bridge + netback) ⇄ netfront ⇄ guest application.
//!
//! This is the paper's Figure 2 as an executable discrete-event system.
//! Real frames (Ethernet/IPv4/UDP/ICMP bytes with valid checksums) cross
//! every hop; virtual time advances through the cost models: NIC
//! serialization and interrupt moderation, event-channel delivery, the
//! driver domain's single vCPU running the cooperative pusher/soft_start
//! threads, and the guest's frontend work.
//!
//! Applications attach as message handlers: the system auto-handles ICMP
//! in each endpoint's host stack and hands UDP payloads (macro workloads
//! model their TCP streams as segmented messages — see DESIGN.md §7) to
//! the registered handler, which returns replies.

use std::collections::{HashMap, VecDeque};
use std::net::Ipv4Addr;

use kite_core::{BackendDevice, NetbackInstance, NetbackStats, NetworkApp};
use kite_devices::{LineRate, Nic, NicProfile, RxIrq};
use kite_frontends::Netfront;
use kite_health::TopRow;
use kite_linux::{linux_profile, ubuntu_boot};
use kite_net::ether::{tso_wire_cost, TSO_MSS};
use kite_net::{
    BridgePort, EtherType, EthernetFrame, Forward, IcmpMessage, IpProto, Ipv4Packet, MacAddr,
    UdpDatagram,
};
use kite_rumprun::{kite_boot, kite_profile, BootSequence, OsProfile};
use kite_sim::{Link, Nanos, OnlineStats, Pcg, TxOutcome};
use kite_trace::{EventKind, MetricsSnapshot, SampleKind, TimeSeriesSampler};
use kite_xen::xenbus::FEATURE_GSO_KEY;
use kite_xen::{DomainId, PciClass, PciDevice, ReqStage, SlotClass};

use crate::config::{GsoMode, SystemConfig};
use crate::harness::{DataPath, DriverDomain, Event};

/// Which OS runs the driver domain.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum BackendOs {
    /// Kite (rumprun unikernel).
    Kite,
    /// Ubuntu/Linux baseline.
    Linux,
}

impl BackendOs {
    /// The OS overhead profile.
    pub fn profile(self) -> OsProfile {
        match self {
            BackendOs::Kite => kite_profile(),
            BackendOs::Linux => linux_profile(),
        }
    }

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            BackendOs::Kite => "Kite",
            BackendOs::Linux => "Linux",
        }
    }

    /// The boot sequence a restarted driver domain goes through
    /// (Figure 4c: ≈7 s for Kite, ≈75 s for Ubuntu).
    pub fn boot(self) -> BootSequence {
        match self {
            BackendOs::Kite => kite_boot(),
            BackendOs::Linux => ubuntu_boot(),
        }
    }

    /// Both systems, for comparison sweeps.
    pub fn both() -> [BackendOs; 2] {
        [BackendOs::Linux, BackendOs::Kite]
    }
}

/// A UDP message delivered to an application handler.
#[derive(Clone, Debug)]
pub struct UdpMsg {
    /// Sender address.
    pub src_ip: Ipv4Addr,
    /// Sender port.
    pub src_port: u16,
    /// Destination port.
    pub dst_port: u16,
    /// Payload bytes.
    pub payload: Vec<u8>,
}

/// A reply an application handler wants transmitted.
#[derive(Clone, Debug)]
pub struct Reply {
    /// Destination address.
    pub dst_ip: Ipv4Addr,
    /// Destination port.
    pub dst_port: u16,
    /// Source port to stamp.
    pub src_port: u16,
    /// Payload bytes (chunked to MTU automatically).
    pub payload: Vec<u8>,
    /// Application compute cost charged before the reply leaves.
    pub cost: Nanos,
}

/// Application handler: reacts to one message with zero or more replies.
pub type UdpHandler = Box<dyn FnMut(Nanos, &UdpMsg) -> Vec<Reply>>;

/// Which endpoint an operation refers to.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Side {
    /// The DomU guest behind the driver domain.
    Guest,
    /// The external client machine.
    Client,
}

/// Events only the network data path schedules.
pub enum NetEvent {
    /// The server NIC's moderated receive interrupt.
    NicIrq,
    /// A frame lands on the server NIC from the wire.
    WireToServer(Vec<u8>),
    /// A frame lands on the client machine from the wire.
    WireToClient(Vec<u8>),
    /// A pre-scheduled application send.
    AppSend {
        /// Sending endpoint.
        side: Side,
        /// Destination address.
        dst_ip: Ipv4Addr,
        /// Destination port.
        dst_port: u16,
        /// Source port.
        src_port: u16,
        /// Payload bytes (at most one PV transfer unit).
        payload: Vec<u8>,
    },
    /// The client transmits a pre-built frame (ping).
    ClientTxFrame(Vec<u8>),
}

/// Largest message chunk crossing the PV path at once in
/// [`GsoMode::Legacy`].
///
/// Before segmentation offload was modeled explicitly, every scenario
/// assumed a multi-KB aggregate unit on the rings; page-sized chunks
/// stood in for TSO/GSO. Legacy mode keeps that abstraction (and its
/// exact byte streams) for historical comparability. `GsoMode::Off`
/// segments honestly to wire MTU; `GsoMode::On` moves real
/// [`GSO_UDP`]-sized super-frames over descriptor chains.
pub const MAX_UDP: usize = 4000;

/// Message chunk crossing the PV path per descriptor chain with GSO on:
/// 42 MSS-sized wire segments, the largest super-frame whose Ethernet
/// framing stays under the 64KB protocol cap.
pub const GSO_UDP: usize = TSO_MSS * 42;

/// Cap on frames queued in the guest stack awaiting Tx ring slots.
///
/// This models the sum of socket send buffers. Closed-loop (TCP-like)
/// workloads rely on it never dropping — real TCP would simply block the
/// writer — so it is sized generously; open-loop UDP floods lose packets
/// earlier, at the NIC queue and the netback Rx queue.
const GUEST_TXQ_CAP: usize = 1 << 20;

/// Guest (Ubuntu DomU) idle-wake cap: HVM halt exit + Linux scheduler
/// (identical in every scenario; calibrated against Figure 7's ping).
const GUEST_WAKE_CAP: Nanos = Nanos(190_000);
/// Guest idle-wake divisor.
const GUEST_WAKE_DIV: u64 = 24;

fn guest_idle_wake(idle: Nanos) -> Nanos {
    Nanos(idle.as_nanos() / GUEST_WAKE_DIV).min(GUEST_WAKE_CAP)
}

/// The ICMP echo sequence number carried by a raw frame, when it is one.
/// Request tracing keys ping requests on this: the request and its reply
/// share the sequence, so one `SlotClass::NetIcmp` entry follows the
/// whole round trip. Only called while tracing is enabled — decoding
/// allocates, and the disabled path must not.
fn icmp_echo_seq(frame: &[u8]) -> Option<u16> {
    let (_, ip) = decode_ipv4(frame)?;
    if ip.proto != IpProto::Icmp {
        return None;
    }
    match IcmpMessage::decode(&ip.payload)? {
        IcmpMessage::EchoRequest { seq, .. } | IcmpMessage::EchoReply { seq, .. } => Some(seq),
    }
}

/// Decodes an Ethernet frame carrying IPv4.
fn decode_ipv4(frame: &[u8]) -> Option<(EthernetFrame, Ipv4Packet)> {
    let eth = EthernetFrame::decode(frame)?;
    if eth.ethertype != EtherType::Ipv4 {
        return None;
    }
    let ip = Ipv4Packet::decode(&eth.payload)?;
    Some((eth, ip))
}

/// Measurement taps exposed to workloads.
#[derive(Default)]
pub struct NetMetrics {
    /// UDP payload bytes delivered to the client app.
    pub client_rx_bytes: u64,
    /// UDP datagrams delivered to the client app.
    pub client_rx_msgs: u64,
    /// UDP payload bytes delivered to the guest app.
    pub guest_rx_bytes: u64,
    /// UDP datagrams delivered to the guest app.
    pub guest_rx_msgs: u64,
    /// Datagrams dropped anywhere on the path.
    pub drops: u64,
    /// ICMP echo RTTs observed by the client.
    pub ping_rtts: OnlineStats,
}

/// Addresses used by the canonical scenario.
pub mod addrs {
    use std::net::Ipv4Addr;

    /// Gateway IP on the driver domain's physical IF.
    pub const GATEWAY: Ipv4Addr = Ipv4Addr::new(192, 168, 1, 50);
    /// The DomU guest.
    pub const GUEST: Ipv4Addr = Ipv4Addr::new(192, 168, 1, 100);
    /// The external client/load generator.
    pub const CLIENT: Ipv4Addr = Ipv4Addr::new(192, 168, 1, 10);
    /// Netmask.
    pub const NETMASK: Ipv4Addr = Ipv4Addr::new(255, 255, 255, 0);
}

/// The network data path: client ⇄ wire ⇄ NIC ⇄ bridge ⇄ netback ⇄
/// netfront ⇄ guest application.
pub struct NetPath {
    /// Seed-jittered driver-domain OS costs (parameterizes netback too).
    profile: OsProfile,
    gso_mode: GsoMode,
    wire: Option<LineRate>,
    /// Largest UDP chunk the guest/client stacks hand to one PV transfer
    /// (one ring slot, or one descriptor chain with GSO on).
    max_tx_unit: usize,
    nic: Nic,
    phys_mac: MacAddr,
    /// The driver domain's network application (bridge + interfaces).
    pub netapp: NetworkApp,
    vif_port: BridgePort,
    if_port: BridgePort,
    netfront: Option<Netfront>,
    nf_dropped_base: u64,
    guest_mac: MacAddr,
    client_mac: MacAddr,
    guest_txq: VecDeque<Vec<u8>>,
    guest_app: Option<UdpHandler>,
    client_link: Link,
    client_app: Option<UdpHandler>,
    icmp_sent: HashMap<u16, Nanos>,
    /// Measurement taps.
    pub metrics: NetMetrics,
}

/// The network scenario system: a [`DriverDomain`] running netback.
pub type NetSystem = DriverDomain<NetPath>;

/// The driver domain's physical interface (and the bridge port behind it).
const PHYS_IF: &str = "ixg0";

fn start_netapp(phys_mac: MacAddr) -> NetworkApp {
    NetworkApp::start(PHYS_IF, phys_mac, addrs::GATEWAY, addrs::NETMASK)
}

impl NetSystem {
    /// Builds the full scenario with the paper's domain layout and runs
    /// the xenbus connection handshake to `Connected` on both ends
    /// (single-queue legacy layout). Shorthand for
    /// `SystemConfig::new(os, seed).build_net()`.
    pub fn new(os: BackendOs, seed: u64) -> NetSystem {
        SystemConfig::new(os, seed).build_net()
    }

    /// Builds the scenario from a [`SystemConfig`]: the driver domain
    /// gets one vCPU per queue, the toolstack advertises
    /// `multi-queue-max-queues` on the backend, and the frontend
    /// negotiates that many ring pairs. One queue keeps the legacy flat
    /// xenstore layout (no multi-queue keys are ever written).
    pub(crate) fn from_config(cfg: &SystemConfig) -> NetSystem {
        let mut profile = cfg.os.profile();
        // Run-to-run noise: real machines vary a little between runs
        // (cache/NUMA placement, interrupt alignment). Perturb the OS
        // costs by a seed-derived ±0.4% so repeated runs with different
        // seeds report realistic relative standard deviations (Table 4).
        let mut jrng = Pcg::new(cfg.seed, 0x6a69747465725f31);
        profile.per_packet = jrng.jitter(profile.per_packet, 0.004);
        profile.wakeup_latency = jrng.jitter(profile.wakeup_latency, 0.004);
        profile.idle_wake_cap = jrng.jitter(profile.idle_wake_cap, 0.004);
        let phys_mac = MacAddr::local(0xee01);
        let netapp = start_netapp(phys_mac);
        let if_port = netapp.port_of(PHYS_IF).expect("attached at start");
        let dp = NetPath {
            profile: profile.clone(),
            gso_mode: cfg.gso_mode,
            wire: cfg.wire,
            max_tx_unit: match cfg.gso_mode {
                GsoMode::Legacy => MAX_UDP,
                GsoMode::Off => TSO_MSS,
                GsoMode::On => GSO_UDP,
            },
            nic: match cfg.wire {
                None => Nic::ten_gbe(),
                Some(rate) => Nic::with_profile(NicProfile::default().with_line_rate(rate)),
            },
            phys_mac,
            netapp,
            // Both ports are (re)learned at every bring-up.
            vif_port: if_port,
            if_port,
            netfront: None,
            nf_dropped_base: 0,
            guest_mac: MacAddr::local(0xaa01),
            client_mac: MacAddr::local(0xcc01),
            guest_txq: VecDeque::new(),
            guest_app: None,
            client_link: match cfg.wire {
                None => Link::ten_gbe(),
                Some(rate) => {
                    let mut l = Link::ten_gbe();
                    l.rate_bps = rate.bps();
                    l
                }
            },
            client_app: None,
            icmp_sent: HashMap::new(),
            metrics: NetMetrics::default(),
        };
        DriverDomain::build(cfg, dp, profile)
    }

    /// Switches the driver domain's network application to NAT linking
    /// (the paper's §3.1 alternative to bridging). Call before traffic.
    pub fn use_nat(&mut self) {
        self.dp.netapp.use_nat();
    }

    /// Installs the guest-side application handler.
    pub fn set_guest_app(&mut self, h: UdpHandler) {
        self.dp.guest_app = Some(h);
    }

    /// Installs the client-side application handler.
    pub fn set_client_app(&mut self, h: UdpHandler) {
        self.dp.client_app = Some(h);
    }

    /// Schedules a UDP send at `t`; payloads above one MTU are chunked.
    pub fn send_udp_at(
        &mut self,
        t: Nanos,
        side: Side,
        dst_ip: Ipv4Addr,
        dst_port: u16,
        src_port: u16,
        payload: Vec<u8>,
    ) {
        let unit = self.dp.max_tx_unit;
        let chunks: Vec<Vec<u8>> = if payload.len() <= unit {
            vec![payload]
        } else {
            payload.chunks(unit).map(|c| c.to_vec()).collect()
        };
        for chunk in chunks {
            self.schedule(
                t,
                NetEvent::AppSend {
                    side,
                    dst_ip,
                    dst_port,
                    src_port,
                    payload: chunk,
                },
            );
        }
    }

    /// Schedules an ICMP echo request from the client at `t` (ping).
    pub fn ping_at(&mut self, t: Nanos, seq: u16) {
        let req = IcmpMessage::EchoRequest {
            ident: 0x4b49,
            seq,
            payload: vec![0x2a; 56],
        };
        let ip = Ipv4Packet::new(addrs::CLIENT, addrs::GUEST, IpProto::Icmp, req.encode());
        let frame = EthernetFrame::new(
            self.dp.guest_mac,
            self.dp.client_mac,
            EtherType::Ipv4,
            ip.encode(),
        );
        self.dp.icmp_sent.insert(seq, t);
        // Injection point for request tracing: the sampler decides here
        // whether this ping's round trip is followed stage by stage. The
        // client machine is outside any domain; its stamps book to dom 0.
        self.hv.req.set_now(t);
        if let Some(r) = self.hv.req.admit(0) {
            self.hv.req.map(SlotClass::NetIcmp, seq as u64, r);
        }
        self.schedule(t, NetEvent::ClientTxFrame(frame.encode()));
    }

    /// The configured wire profile (`None` = the stock 10GbE device).
    pub fn wire(&self) -> Option<LineRate> {
        self.dp.wire
    }

    /// Whether the *connected* backend/frontend pair negotiated GSO
    /// chains (false while the backend is down).
    pub fn gso_negotiated(&self) -> bool {
        self.backend.device().is_some_and(|nb| nb.gso())
            && self.dp.netfront.as_ref().is_some_and(|nf| nf.gso())
    }

    /// Per-queue world→guest backlog depths on the connected netback.
    pub fn rx_queue_depths(&self) -> Vec<usize> {
        self.backend
            .device()
            .map_or_else(Vec::new, |nb| nb.rx_backlogs())
    }

    /// Collects the scenario's measurement taps, lifetime netback stats
    /// and recovery accounting into one named snapshot.
    pub fn metrics_snapshot(&self, scenario: impl Into<String>) -> MetricsSnapshot {
        let mut snap = MetricsSnapshot::new(scenario);
        snap.push_int("client_rx_bytes", "bytes", self.dp.metrics.client_rx_bytes);
        snap.push_int("client_rx_msgs", "count", self.dp.metrics.client_rx_msgs);
        snap.push_int("guest_rx_bytes", "bytes", self.dp.metrics.guest_rx_bytes);
        snap.push_int("guest_rx_msgs", "count", self.dp.metrics.guest_rx_msgs);
        snap.push_int("drops", "count", self.dp.metrics.drops);
        for (q, depth) in self.rx_queue_depths().into_iter().enumerate() {
            snap.push_int(format!("rx_queue_depth_q{q}"), "count", depth as u64);
        }
        self.backend_stats().append_metrics(&mut snap);
        self.recovery.append_metrics(&mut snap);
        snap
    }

    /// Netback statistics, summed across backend incarnations.
    pub fn netback_stats(&self) -> NetbackStats {
        self.backend_stats()
    }

    /// Frames the frontend dropped for ring exhaustion, summed across
    /// device incarnations.
    pub fn guest_tx_dropped(&self) -> u64 {
        self.dp.nf_dropped_base + self.dp.netfront.as_ref().map_or(0, |nf| nf.tx_dropped())
    }

    // ---- data path ----------------------------------------------------

    fn mac_of(&self, ip: Ipv4Addr) -> MacAddr {
        if ip == addrs::GUEST {
            self.dp.guest_mac
        } else if ip == addrs::CLIENT {
            self.dp.client_mac
        } else {
            // Gateway / unknown: the physical IF answers.
            self.dp
                .netapp
                .ifs
                .get(PHYS_IF)
                .map(|i| i.mac)
                .unwrap_or(MacAddr::BROADCAST)
        }
    }

    fn build_udp_frame(
        &mut self,
        src_ip: Ipv4Addr,
        src_mac: MacAddr,
        dst_ip: Ipv4Addr,
        dst_port: u16,
        src_port: u16,
        payload: Vec<u8>,
    ) -> Vec<u8> {
        let udp = UdpDatagram::new(src_port, dst_port, payload).encode(src_ip, dst_ip);
        let ip = Ipv4Packet::new(src_ip, dst_ip, IpProto::Udp, udp);
        EthernetFrame::new(self.mac_of(dst_ip), src_mac, EtherType::Ipv4, ip.encode()).encode()
    }

    /// Wire footprint of one frame: byte count to serialize and the
    /// number of MTU segments it becomes.
    ///
    /// `GsoMode::Legacy` keeps the historical abstraction — aggregates
    /// cross the wire as-is with one framing overhead — so pre-offload
    /// scenarios stay byte-identical. The explicit modes charge the
    /// honest TSO cost: a super-frame is segmented to MTU with
    /// replicated headers and per-segment framing.
    fn wire_cost(&self, frame_len: usize) -> (u64, u32) {
        match self.dp.gso_mode {
            GsoMode::Legacy => (frame_len as u64 + 24, 1),
            GsoMode::Off | GsoMode::On => tso_wire_cost(frame_len),
        }
    }

    /// Client machine puts a frame on the wire toward the server NIC.
    /// Super-frames go through the client NIC's TSO engine: the wire
    /// carries MTU segments (with replicated headers and per-segment
    /// framing overhead), so serialization charges the segmented byte
    /// count even though the simulation moves the aggregate.
    fn client_transmit(&mut self, now: Nanos, frame: Vec<u8>) {
        let (wire_len, _segs) = self.wire_cost(frame.len());
        let sent = self
            .dp
            .client_link
            .transmit_then(&mut self.queue, now, wire_len, |_| {
                Event::Data(NetEvent::WireToServer(frame))
            });
        if sent == TxOutcome::Dropped {
            self.dp.metrics.drops += 1;
        }
    }

    /// Queues a frame in the guest stack and pushes as much as fits into
    /// the Tx ring, notifying the backend when the protocol asks.
    fn guest_send_frame(&mut self, now: Nanos, frame: Vec<u8>) {
        if self.dp.guest_txq.len() >= GUEST_TXQ_CAP {
            self.dp.metrics.drops += 1;
            return;
        }
        self.dp.guest_txq.push_back(frame);
        self.drain_guest_txq(now);
    }

    fn drain_guest_txq(&mut self, now: Nanos) {
        if self.dp.netfront.is_none() {
            return; // backend down: frames wait for the replacement device
        }
        // `now` includes the guest's idle-wake latency, which the
        // per-event clock does not: re-aim the tracer so the RingSubmit
        // stamps inside `send` book at the drain time, after RxDeliver.
        self.hv.req.set_now(now);
        let mut notify: std::collections::BTreeSet<usize> = std::collections::BTreeSet::new();
        let mut cost = Nanos::ZERO;
        while let Some(frame) = self.dp.guest_txq.front() {
            let req = if self.hv.req.is_enabled() {
                icmp_echo_seq(frame)
                    .and_then(|seq| self.hv.req.lookup(SlotClass::NetIcmp, seq as u64))
            } else {
                None
            };
            let res = self
                .dp
                .netfront
                .as_mut()
                .expect("checked")
                .send(&mut self.hv, frame, req);
            match res {
                Ok((q, op)) => {
                    self.dp.guest_txq.pop_front();
                    if op.notify {
                        notify.insert(q);
                    }
                    cost += op.cost;
                }
                Err(_) => break, // ring full; retried on Tx completion
            }
        }
        if cost > Nanos::ZERO {
            self.guest_cpu_run(now, cost);
        }
        for q in notify {
            let port = self.dp.netfront.as_ref().expect("checked").port_of(q);
            // The channel dies with the backend domain: a notify raised
            // during an undetected-outage window is simply lost.
            if let Ok((n, send_cost)) = self.hv.evtchn_send(self.guest, port) {
                let done = self.guest_cpu_run(now, send_cost);
                self.sched_irq(done, n);
            }
        }
    }

    /// Hands a world->guest frame to netback's Rx queue; during an
    /// outage (or on queue overflow) the frame is dropped, as real
    /// traffic is while a driver domain reboots.
    fn deliver_to_guest(&mut self, frame: Vec<u8>) {
        match self.backend.device_mut() {
            Some(nb) => {
                if !nb.enqueue_to_guest(frame) {
                    self.dp.metrics.drops += 1;
                }
            }
            None => {
                self.dp.metrics.drops += 1;
                self.recovery.dropped_frames += 1;
            }
        }
    }

    /// Forwarding inside the driver domain for one frame arriving on
    /// `ingress`. Returns frames destined to the NIC wire.
    ///
    /// In [`kite_core::netapp::LinkMode::Bridge`] this is the learning
    /// bridge; in NAT mode the app routes at L3, rewriting addresses
    /// (with checksums re-encoded) in each direction.
    fn bridge_forward(&mut self, now: Nanos, ingress: BridgePort, frame: Vec<u8>) -> Vec<Vec<u8>> {
        if self.dp.netapp.mode == kite_core::netapp::LinkMode::Nat {
            if ingress == self.dp.vif_port {
                // Guest → world: SNAT to the gateway; non-NATable frames
                // (ICMP in this model) pass through unchanged.
                let out = self.dp.netapp.nat_outbound(&frame).unwrap_or(frame);
                return vec![out];
            }
            // World → gateway: reverse-translate or drop (unsolicited).
            match self.dp.netapp.nat_inbound(&frame, self.dp.guest_mac) {
                Some(inframe) => {
                    self.deliver_to_guest(inframe);
                }
                None => {
                    // ICMP and ARP still reach the guest (the gateway
                    // proxies them); unsolicited UDP is dropped.
                    let Some(eth) = EthernetFrame::decode(&frame) else {
                        return Vec::new();
                    };
                    let is_udp = Ipv4Packet::decode(&eth.payload)
                        .map(|ip| ip.proto == IpProto::Udp)
                        .unwrap_or(false);
                    if !is_udp {
                        self.deliver_to_guest(frame);
                    } else {
                        self.dp.metrics.drops += 1;
                    }
                }
            }
            return Vec::new();
        }
        let Some(eth) = EthernetFrame::decode(&frame) else {
            return Vec::new();
        };
        let decision = self.dp.netapp.bridge.input(ingress, eth.src, eth.dst, now);
        let mut to_wire = Vec::new();
        let ports: Vec<BridgePort> = match decision {
            Forward::Unicast(p) => vec![p],
            Forward::Flood(ps) => ps,
            Forward::Drop => Vec::new(),
        };
        for p in ports {
            if p == self.dp.if_port {
                to_wire.push(frame.clone());
            } else if p == self.dp.vif_port {
                self.deliver_to_guest(frame.clone());
            }
        }
        to_wire
    }

    /// Transmits frames out the physical NIC starting at `t`. A frame
    /// above wire MTU is a super-frame the NIC's TSO engine segments:
    /// serialization charges the full segmented byte count and the
    /// per-segment descriptor cost, but the frame crosses the simulated
    /// wire as one unit.
    fn nic_transmit(&mut self, t: Nanos, frames: Vec<Vec<u8>>) {
        for frame in frames {
            let (wire_len, segs) = self.wire_cost(frame.len());
            match self.dp.nic.transmit_segs(t, wire_len, segs) {
                TxOutcome::Sent { arrives, .. } => {
                    self.schedule(arrives, NetEvent::WireToClient(frame));
                }
                TxOutcome::Dropped => self.dp.metrics.drops += 1,
            }
        }
    }

    /// Runs the netback threads (pusher then soft_start) to exhaustion,
    /// starting at `now`; schedules all effects.
    ///
    /// Each queue's thread pair is pinned to its own driver vCPU, so
    /// with `n` queues on an n-vCPU driver domain the queues
    /// drain concurrently: wall-clock elapsed is the slowest queue, not
    /// the sum of all of them.
    fn run_netback(&mut self, now: Nanos) {
        if !self.backend.is_connected() || self.hung {
            return; // driver domain down (or livelocked: threads never run)
        }
        let nqueues = self.backend.device().expect("checked").queue_count();
        for q in 0..nqueues {
            // Pusher: guest -> bridge/world.
            let mut guest_frames = Vec::new();
            loop {
                let nb = self.backend.device_mut().expect("checked");
                let batch = nb.pusher_run(&mut self.hv, q, 128).expect("pusher");
                let evtchn = nb.port_of(q);
                guest_frames.extend(batch.frames);
                let done = self.driver_cpus.run_on(
                    q,
                    now,
                    batch.cost + self.dp.profile.wakeup_latency.min(Nanos::from_nanos(200)),
                );
                if batch.notify {
                    let (n, c) = self.hv.evtchn_send(self.driver, evtchn).expect("channel");
                    let done = self.driver_cpus.run_on(q, done, c);
                    self.sched_irq(done, n);
                }
                if !batch.more {
                    break;
                }
            }
            // Upper layer: push this queue's pusher output through the
            // bridge, then onto the wire once this queue's vCPU is free.
            let mut to_wire = Vec::new();
            for f in guest_frames {
                to_wire.extend(self.bridge_forward(now, self.dp.vif_port, f));
            }
            let t = self.driver_cpus.free_at(q).max(now);
            if self.hv.req.is_enabled() {
                let qid = (nqueues > 1).then_some(q as u16);
                for f in &to_wire {
                    if let Some(r) = icmp_echo_seq(f)
                        .and_then(|seq| self.hv.req.lookup(SlotClass::NetIcmp, seq as u64))
                    {
                        let dom = self.driver.0;
                        self.hv.req.stamp_at(r, ReqStage::NicTx, dom, qid, t);
                        let (_, segs) = self.wire_cost(f.len());
                        if segs > 1 {
                            self.hv.req.annotate_segs(r, ReqStage::NicTx, segs as u16);
                        }
                    }
                }
            }
            self.nic_transmit(t, to_wire);
        }

        // soft_start: queued world -> guest frames into the Rx rings.
        for q in 0..nqueues {
            loop {
                let nb = self.backend.device_mut().expect("checked");
                let batch = nb.soft_start_run(&mut self.hv, q, 128).expect("soft_start");
                let evtchn = nb.port_of(q);
                let done = self.driver_cpus.run_on(q, now, batch.cost);
                if batch.notify {
                    let (n, c) = self.hv.evtchn_send(self.driver, evtchn).expect("channel");
                    let done = self.driver_cpus.run_on(q, done, c);
                    self.sched_irq(done, n);
                }
                if batch.delivered == 0 {
                    break; // either no frames queued or no Rx buffers posted
                }
                if !batch.more {
                    break;
                }
            }
        }
    }

    /// The guest endpoint's host stack: handles one delivered frame.
    fn guest_stack_rx(&mut self, now: Nanos, frame: Vec<u8>) {
        let Some((eth, ip)) = decode_ipv4(&frame) else {
            return;
        };
        match ip.proto {
            IpProto::Icmp => {
                if let Some(msg) = IcmpMessage::decode(&ip.payload) {
                    if let IcmpMessage::EchoRequest { seq, .. } = msg {
                        if let Some(r) = self.hv.req.lookup(SlotClass::NetIcmp, seq as u64) {
                            let dom = self.guest.0;
                            self.hv.req.stamp_at(r, ReqStage::RxDeliver, dom, None, now);
                        }
                    }
                    if let Some(reply) = msg.reply() {
                        let rip =
                            Ipv4Packet::new(addrs::GUEST, ip.src, IpProto::Icmp, reply.encode());
                        let rframe = EthernetFrame::new(
                            eth.src,
                            self.dp.guest_mac,
                            EtherType::Ipv4,
                            rip.encode(),
                        );
                        // ICMP handled in-stack: tiny cost.
                        self.guest_cpu_run(now, Nanos::from_nanos(500));
                        self.guest_send_frame(now, rframe.encode());
                    }
                }
            }
            IpProto::Udp => self.app_rx(now, Side::Guest, &ip),
            _ => {}
        }
    }

    fn emit_replies(&mut self, now: Nanos, side: Side, replies: Vec<Reply>) {
        for r in replies {
            let ready = match side {
                Side::Guest => self.guest_cpu_run(now, r.cost),
                Side::Client => now + r.cost,
            };
            self.send_udp_at(ready, side, r.dst_ip, r.dst_port, r.src_port, r.payload);
        }
    }

    /// Hands one UDP datagram to `side`'s application (dropping it when
    /// the checksum fails) and sends the application's replies.
    fn app_rx(&mut self, now: Nanos, side: Side, ip: &Ipv4Packet) {
        let Some(udp) = UdpDatagram::decode(&ip.payload, ip.src, ip.dst) else {
            self.dp.metrics.drops += 1;
            return;
        };
        let m = &mut self.dp.metrics;
        let (bytes, msgs) = match side {
            Side::Guest => (&mut m.guest_rx_bytes, &mut m.guest_rx_msgs),
            Side::Client => (&mut m.client_rx_bytes, &mut m.client_rx_msgs),
        };
        *bytes += udp.payload.len() as u64;
        *msgs += 1;
        if self.recovery.record_first_byte(now) {
            let guest = self.guest.0;
            self.hv
                .trace
                .emit_with(guest, || EventKind::Milestone { what: "first_byte" });
        }
        let msg = UdpMsg {
            src_ip: ip.src,
            src_port: udp.src_port,
            dst_port: udp.dst_port,
            payload: udp.payload,
        };
        let slot = match side {
            Side::Guest => &mut self.dp.guest_app,
            Side::Client => &mut self.dp.client_app,
        };
        if let Some(mut app) = slot.take() {
            let replies = app(now, &msg);
            *slot = Some(app);
            self.emit_replies(now, side, replies);
        }
    }

    /// The client machine's host stack.
    fn client_stack_rx(&mut self, now: Nanos, frame: Vec<u8>) {
        let Some((_, ip)) = decode_ipv4(&frame) else {
            return;
        };
        match ip.proto {
            IpProto::Icmp => {
                if let Some(IcmpMessage::EchoReply { seq, .. }) = IcmpMessage::decode(&ip.payload) {
                    if let Some(t0) = self.dp.icmp_sent.remove(&seq) {
                        self.dp.metrics.ping_rtts.push_nanos(now - t0);
                        self.latency_hist.record(now - t0);
                    }
                    if let Some(r) = self.hv.req.take(SlotClass::NetIcmp, seq as u64) {
                        self.hv.req.finish_at(r, 0, now);
                    }
                }
            }
            IpProto::Udp => self.app_rx(now, Side::Client, &ip),
            _ => {}
        }
    }

    /// Dispatches one network data-path event.
    fn handle_data(&mut self, now: Nanos, ev: NetEvent) {
        match ev {
            NetEvent::AppSend {
                side,
                dst_ip,
                dst_port,
                src_port,
                payload,
            } => match side {
                Side::Client => {
                    let frame = self.build_udp_frame(
                        addrs::CLIENT,
                        self.dp.client_mac,
                        dst_ip,
                        dst_port,
                        src_port,
                        payload,
                    );
                    self.client_transmit(now, frame);
                }
                Side::Guest => {
                    let frame = self.build_udp_frame(
                        addrs::GUEST,
                        self.dp.guest_mac,
                        dst_ip,
                        dst_port,
                        src_port,
                        payload,
                    );
                    self.guest_send_frame(now, frame);
                }
            },
            NetEvent::ClientTxFrame(frame) => self.client_transmit(now, frame),
            NetEvent::WireToServer(frame) => match self.dp.nic.rx_enqueue(now, frame) {
                RxIrq::FireAt(t) => {
                    self.schedule(t, NetEvent::NicIrq);
                }
                RxIrq::AlreadyPending => {}
                RxIrq::Dropped => self.dp.metrics.drops += 1,
            },
            NetEvent::NicIrq => self.nic_irq(now),
            NetEvent::WireToClient(frame) => self.client_stack_rx(now, frame),
        }
    }

    /// The server NIC's receive interrupt in the driver domain.
    fn nic_irq(&mut self, now: Nanos) {
        if self.hung {
            // The livelocked driver never services the interrupt;
            // the NIC's receive ring overflows and the frames are
            // lost on the floor, exactly like hardware would.
            let lost = self.dp.nic.drain_rx(now, usize::MAX).len() as u64;
            self.dp.metrics.drops += lost;
            self.recovery.dropped_frames += lost;
            if let Some(fire) = self.dp.nic.rearm_irq(now) {
                self.schedule(fire, NetEvent::NicIrq);
            }
            return;
        }
        // NIC interrupt in the driver domain: short handler, then
        // the stack pushes frames through the bridge toward VIFs.
        // The physical NIC's irq is pinned to vCPU 0.
        let idle = now.saturating_sub(self.driver_cpus.free_at(0));
        let wake = self.dp.profile.idle_wake(idle);
        let handler_done = self
            .driver_cpus
            .run_on(0, now, wake + self.dp.profile.irq_overhead);
        let frames = self.dp.nic.drain_rx(now, 64);
        let mut per_frame = Nanos::ZERO;
        for f in &frames {
            per_frame += self.dp.profile.per_packet + Nanos(f.len() as u64 / 16);
        }
        let t = self.driver_cpus.run_on(0, handler_done, per_frame);
        let mut to_wire = Vec::new();
        for f in frames {
            if self.hv.req.is_enabled() {
                if let Some(r) = icmp_echo_seq(&f)
                    .and_then(|seq| self.hv.req.lookup(SlotClass::NetIcmp, seq as u64))
                {
                    let dom = self.driver.0;
                    self.hv.req.stamp(r, ReqStage::NicRx, dom, None);
                }
            }
            to_wire.extend(self.bridge_forward(now, self.dp.if_port, f));
        }
        self.nic_transmit(t, to_wire);
        // The VIF callback woke soft_start (and pusher work may be
        // pending): run the netback threads.
        self.run_netback(t);
        if let Some(fire) = self.dp.nic.rearm_irq(now) {
            self.schedule(fire, NetEvent::NicIrq);
        }
    }

    /// Netfront's event channel fired in the guest.
    fn netfront_irq(&mut self, now: Nanos) {
        if self.dp.netfront.is_none() {
            return; // stale interrupt for a retired device
        }
        let earliest = self.guest_last_end;
        let wake = guest_idle_wake(now.saturating_sub(earliest));
        // The guest vCPU wakes from halt first; everything the
        // interrupt triggers happens after that latency.
        let t = now + wake;
        let (op, notifyq) = self
            .dp
            .netfront
            .as_mut()
            .expect("checked")
            .on_irq(&mut self.hv)
            .expect("netfront irq");
        let mut done = self.guest_cpu_run(now, wake + op.cost + self.dp.profile.irq_overhead);
        for q in notifyq {
            let evtchn = self.dp.netfront.as_ref().expect("checked").port_of(q);
            // Tolerate a torn-down channel: the backend may
            // have died without the frontend knowing yet.
            if let Ok((n, c)) = self.hv.evtchn_send(self.guest, evtchn) {
                done = self.guest_cpu_run(done, c);
                self.sched_irq(done, n);
            }
        }
        while let Some(frame) = self.dp.netfront.as_mut().expect("checked").recv() {
            self.guest_stack_rx(t, frame);
        }
        // Tx completions may have freed ring slots.
        self.drain_guest_txq(t);
    }
}

impl DataPath for NetPath {
    type Backend = NetbackInstance;
    type Event = NetEvent;
    const KITE_DOMAIN: &'static str = "netbackend";

    fn pci_device() -> PciDevice {
        PciDevice {
            bdf: "03:00.0".parse().expect("static BDF"),
            class: PciClass::Network,
            name: "Intel 82599ES 10-Gigabit SFI/SFP+".into(),
        }
    }

    fn phase(ev: &NetEvent) -> kite_prof::Phase {
        use kite_prof::Phase;
        match ev {
            NetEvent::AppSend { .. } => Phase::DispatchAppSend,
            NetEvent::WireToServer(_) | NetEvent::WireToClient(_) | NetEvent::ClientTxFrame(_) => {
                Phase::DispatchWire
            }
            NetEvent::NicIrq => Phase::DispatchNicIrq,
        }
    }

    /// A fresh bridge with only the physical interface attached.
    fn start_apps(sys: &mut NetSystem) {
        sys.dp.netapp = start_netapp(sys.dp.phys_mac);
        sys.dp.if_port = sys.dp.netapp.port_of(PHYS_IF).expect("attached at start");
    }

    fn advertise(sys: &mut NetSystem) {
        if sys.dp.gso_mode == GsoMode::On {
            // The toolstack advertises segmentation offload under the
            // backend path; the frontend echoes it when willing. A
            // replacement backend re-advertises and the frontend
            // renegotiates from scratch, so offloads survive recovery.
            let be = sys.paths.backend();
            sys.hv
                .store
                .write(
                    DomainId::DOM0,
                    None,
                    &format!("{be}/{FEATURE_GSO_KEY}"),
                    "1",
                )
                .expect("advertise gso");
        }
    }

    fn connect_frontend(sys: &mut NetSystem) {
        let nf =
            Netfront::connect_with_queues(&mut sys.hv, &sys.paths, sys.dp.guest_mac, sys.nqueues)
                .expect("netfront");
        sys.dp.netfront = Some(nf);
    }

    fn backend_connected(sys: &mut NetSystem) {
        let nb = sys.backend.device().expect("connected");
        sys.dp.vif_port = sys.dp.netapp.add_vif(&nb.vif, sys.dp.guest_mac);
    }

    /// Replays harvested frames plus everything queued while down.
    fn resume(sys: &mut NetSystem, now: Nanos) {
        sys.drain_guest_txq(now);
    }

    /// World->guest frames parked in the dead backend are gone.
    fn backend_lost(sys: &mut NetSystem, nb: &NetbackInstance) {
        sys.recovery.dropped_frames += nb.rx_backlog() as u64;
        sys.dp.metrics.drops += nb.rx_backlog() as u64;
        sys.dp.netapp.remove_vif(&nb.vif);
    }

    /// Salvages netfront's unacknowledged Tx frames for replay.
    fn retire_frontend(sys: &mut NetSystem) {
        if let Some(mut nf) = sys.dp.netfront.take() {
            let unacked = nf.take_unacked(&sys.hv);
            sys.recovery.retried_ops += unacked.len() as u64;
            sys.dp.nf_dropped_base += nf.tx_dropped();
            for f in unacked.into_iter().rev() {
                sys.dp.guest_txq.push_front(f);
            }
        }
    }

    fn handle(sys: &mut NetSystem, now: Nanos, ev: NetEvent) {
        sys.handle_data(now, ev);
    }

    fn guest_irq(sys: &mut NetSystem, now: Nanos) {
        sys.netfront_irq(now);
    }

    fn run_backend(sys: &mut NetSystem, now: Nanos) {
        sys.run_netback(now);
    }

    fn driver_wake(sys: &NetSystem, idle: Nanos) -> Nanos {
        sys.dp.profile.idle_wake(idle)
    }

    /// Throughput and drop counters, the health gauge, then one Rx
    /// backlog gauge per queue.
    fn sample_columns(sampler: TimeSeriesSampler, nqueues: u32) -> TimeSeriesSampler {
        let mut sampler = sampler
            .with_column("client_rx_bytes", SampleKind::Counter)
            .with_column("guest_rx_bytes", SampleKind::Counter)
            .with_column("drops", SampleKind::Counter)
            .with_column("tx_packets", SampleKind::Counter)
            .with_column("rx_dropped", SampleKind::Counter)
            .with_column("health", SampleKind::Gauge);
        for q in 0..nqueues {
            sampler = sampler.with_column(&format!("rx_qdepth_q{q}"), SampleKind::Gauge);
        }
        sampler
    }

    fn sample_row(sys: &NetSystem, health: u64) -> Vec<u64> {
        let stats = sys.netback_stats();
        let mut raw = vec![
            sys.dp.metrics.client_rx_bytes,
            sys.dp.metrics.guest_rx_bytes,
            sys.dp.metrics.drops,
            stats.tx_packets,
            stats.rx_dropped,
            health,
        ];
        // Depths come back empty while the backend is down; pad so the
        // sample width stays fixed.
        let depths = sys.rx_queue_depths();
        for q in 0..sys.nqueues {
            raw.push(depths.get(q as usize).copied().unwrap_or(0) as u64);
        }
        raw
    }

    fn top_load(sys: &NetSystem, row: &mut TopRow, secs: f64) {
        let stats = sys.netback_stats();
        if secs > 0.0 {
            row.req_per_sec = (stats.tx_packets + stats.rx_packets) as f64 / secs;
            row.mbytes_per_sec = (stats.tx_bytes + stats.rx_bytes) as f64 / 1e6 / secs;
        }
        row.rx_dropped = stats.rx_dropped;
        row.gso_frames = stats.gso_tx_frames + stats.lro_rx_frames;
        row.rx_qdepth = sys.rx_queue_depths().iter().map(|&d| d as u64).collect();
    }
}
