//! The two network workloads: `net_rr` (per-packet path) and
//! `net_bulk` (per-byte path), both through one Kite netback with four
//! queues.

use std::cell::{Cell, RefCell};
use std::net::Ipv4Addr;
use std::rc::Rc;
use std::time::{Duration, Instant};

use kite_sim::Nanos;
use kite_system::{addrs, BackendOs, LineRate, NetSystem, Reply, Side, SystemConfig, UdpMsg};

use crate::gen::{self, Rng};
use crate::harness::{AppTimer, Errors, Outcome};

/// Netback queues (and driver-domain vCPUs) in both network workloads.
const QUEUES: u32 = 4;
/// Flows are distinct client source ports `CLIENT_PORT0..+FLOWS`.
const FLOWS: u64 = 64;
const CLIENT_PORT0: u16 = 40_000;
/// Guest-side port: the echo server (`net_rr`) or the bulk sink/source.
const GUEST_PORT: u16 = 7;
/// Payload bytes of the sequence header in front of every pattern.
const HDR: usize = 8;

/// `net_rr`: open-loop Poisson arrivals of 64 B echo requests.
const RR_RATE: f64 = 200_000.0;
const RR_VIRT: Nanos = Nanos::from_millis(100);
const RR_LEN: usize = 64;
const RR_WINDOW: Nanos = Nanos::from_millis(1);
/// Guest application cost per echo.
const ECHO_COST: Nanos = Nanos::from_micros(2);

/// `net_bulk`: paced 16 KiB datagrams in each direction.
const BULK_LEN: usize = 16 * 1024;
/// Gap between datagrams in one direction: 16 KiB per 8.192 µs is
/// 16 Gbps of payload each way.
const BULK_GAP: u64 = 8_192;
const BULK_VIRT: Nanos = Nanos::from_millis(50);
const BULK_WINDOW: Nanos = Nanos::from_micros(500);

/// Input traffic starts this long after the handshake completes.
const LEAD: Nanos = Nanos::from_micros(100);

fn config(seed: u64, bulk: bool, traced: bool) -> SystemConfig {
    let cfg = SystemConfig::new(BackendOs::Kite, seed)
        .queues(QUEUES)
        .profiling(traced);
    if bulk {
        cfg.gso(true).wire_profile(LineRate::Gbe25)
    } else {
        cfg
    }
}

/// One direction's send ledger: when each datagram was due, which flow
/// it rode, and what arrived. Payloads carry their sequence number in
/// an 8-byte header followed by a pattern keyed by `(key, seq)`, so
/// every arrival is checked byte for byte without storing payloads.
struct Ledger {
    name: &'static str,
    key: u64,
    len: usize,
    due: Vec<u64>,
    flow: Vec<u16>,
    seen: Vec<bool>,
    lat: Vec<u64>,
    bytes: u64,
    errors: Errors,
}

impl Ledger {
    fn new(name: &'static str, key: u64, len: usize) -> Ledger {
        Ledger {
            name,
            key,
            len,
            due: Vec::new(),
            flow: Vec::new(),
            seen: Vec::new(),
            lat: Vec::new(),
            bytes: 0,
            errors: Errors::default(),
        }
    }

    /// Records the next datagram, due at `t` on `flow`, and returns its
    /// payload.
    fn make(&mut self, t: u64, flow: u16) -> Vec<u8> {
        let seq = self.due.len() as u64;
        self.due.push(t);
        self.flow.push(flow);
        self.seen.push(false);
        let mut p = vec![0u8; self.len];
        p[..HDR].copy_from_slice(&seq.to_le_bytes());
        gen::fill(&mut p[HDR..], gen::mix(self.key ^ seq));
        p
    }

    /// Checks one arrival: a known, unseen sequence number, the ports
    /// of its own flow (`ports(flow) = (src, dst)`), and every byte.
    fn accept(&mut self, now: Nanos, msg: &UdpMsg, from: Ipv4Addr, ports: fn(u16) -> (u16, u16)) {
        let p = &msg.payload;
        if p.len() != self.len {
            self.errors.push(format!(
                "{}: datagram of {} bytes, sent {}",
                self.name,
                p.len(),
                self.len
            ));
            return;
        }
        let seq = u64::from_le_bytes(p[..HDR].try_into().expect("8-byte header"));
        let Some(i) = usize::try_from(seq).ok().filter(|&i| i < self.due.len()) else {
            self.errors
                .push(format!("{}: unknown sequence {seq}", self.name));
            return;
        };
        if std::mem::replace(&mut self.seen[i], true) {
            self.errors
                .push(format!("{}: sequence {seq} delivered twice", self.name));
            return;
        }
        let want = ports(self.flow[i]);
        if msg.src_ip != from || (msg.src_port, msg.dst_port) != want {
            self.errors.push(format!(
                "{}: sequence {seq} arrived from {}:{} at port {}, want {from}:{} at {}",
                self.name, msg.src_ip, msg.src_port, msg.dst_port, want.0, want.1
            ));
            return;
        }
        if !gen::matches(&p[HDR..], gen::mix(self.key ^ seq)) {
            self.errors
                .push(format!("{}: sequence {seq} payload corrupted", self.name));
            return;
        }
        self.lat.push(now.as_nanos() - self.due[i]);
        self.bytes += self.len as u64;
    }
}

fn client_port(flow: u16) -> u16 {
    CLIENT_PORT0 + flow
}

/// A request (or client→guest datagram) on `flow`: client port → guest.
fn up_ports(flow: u16) -> (u16, u16) {
    (client_port(flow), GUEST_PORT)
}

/// A reply (or guest→client datagram) on `flow`: guest → client port.
fn down_ports(flow: u16) -> (u16, u16) {
    (GUEST_PORT, client_port(flow))
}

/// One datagram the generator wants sent.
struct Send {
    at: Nanos,
    side: Side,
    flow: u16,
    payload: Vec<u8>,
}

/// Feeds open-loop load in virtual-time windows: each window's
/// datagrams (`sends_before(window end)`: those not yet generated that
/// fall due before the end) are generated (timed as generation, outside
/// `run`), handed
/// to `send_udp_at` and simulated through the window's end before the
/// next window is generated, so queued input never outgrows one window.
fn drive(
    sys: &mut NetSystem,
    start: Nanos,
    virt: Nanos,
    window: Nanos,
    out: &mut Outcome,
    mut sends_before: impl FnMut(Nanos) -> Vec<Send>,
) {
    let end = start + virt;
    let mut lo = start;
    let mut run = Duration::ZERO;
    let mut gen = Duration::ZERO;
    while lo < end {
        let hi = (lo + window).min(end);
        let t = Instant::now();
        let sends = sends_before(hi);
        let t1 = Instant::now();
        gen += t1 - t;
        for s in sends {
            let (dst_ip, (src_port, dst_port)) = match s.side {
                Side::Client => (addrs::GUEST, up_ports(s.flow)),
                Side::Guest => (addrs::CLIENT, down_ports(s.flow)),
            };
            sys.send_udp_at(s.at, s.side, dst_ip, dst_port, src_port, s.payload);
        }
        // Half-open windows: the next window's first send lies strictly
        // after everything this one simulated.
        sys.run_until(hi - Nanos::from_nanos(1));
        run += t1.elapsed();
        lo = hi;
    }
    let t = Instant::now();
    sys.run_to_quiescence();
    run += t.elapsed();
    out.run = run;
    out.inject = gen;
}

/// Virtual-clock results and layer counters common to both workloads.
fn finish(sys: &NetSystem, start: Nanos, out: &mut Outcome, ledgers: &mut [&mut Ledger]) {
    out.span = sys.now() - start;
    out.dd_cpu_pct = sys.driver_cpu_percent(sys.now());
    for l in ledgers.iter_mut() {
        // Lost, misrouted and corrupted datagrams fail.
        out.attempted += l.due.len() as u64;
        out.failed += (l.due.len() - l.lat.len()) as u64;
        out.payload_bytes += l.bytes;
        out.lat.append(&mut l.lat);
        out.errors.absorb(std::mem::take(&mut l.errors));
    }
    let nb = sys.netback_stats();
    out.layer("sim.events", sys.events_processed() as f64);
    out.layer(
        "netback.rejects",
        (nb.tx_errors
            + nb.gso_bad_size
            + nb.gso_truncated
            + nb.gso_seg_mismatch
            + nb.gso_unnegotiated) as f64,
    );
    out.layer("netback.rx_dropped", nb.rx_dropped as f64);
    out.layer("netback.lro_rx_frames", nb.lro_rx_frames as f64);
    out.layer(
        "netback.gso_segs_per_frame",
        crate::stats::ratio(nb.gso_tx_segs as f64, nb.gso_tx_frames as f64),
    );
    out.layer("netback.packets", (nb.tx_packets + nb.rx_packets) as f64);
    out.layer("grant.batches", nb.copy.batches as f64);
    out.layer("grant.ops", nb.copy.ops as f64);
    out.layer("grant.bytes", nb.copy.bytes as f64);
    out.layer("netfront.tx_dropped", sys.guest_tx_dropped() as f64);
    out.layer("guest.cpu_pct", sys.guest_cpu_percent(sys.now()));
}

/// `net_rr`: Poisson 64 B UDP echo over 64 flows into the guest.
pub fn run_rr(seed: u64, traced: bool) -> Outcome {
    let mut out = Outcome::default();
    let t = Instant::now();
    let mut sys = config(seed, false, traced).build_net();
    out.setup = t.elapsed();
    crate::harness::built(&mut out, traced);

    let app = AppTimer::new(traced);
    let guest_app = app.clone();
    // Request bytes the echo server accepted: the guest-bound half of
    // the goodput (the ledger counts the client-bound half).
    let served = Rc::new(Cell::new(0u64));
    let served_in = Rc::clone(&served);
    sys.set_guest_app(Box::new(move |_now, msg: &UdpMsg| {
        let _t = guest_app.span();
        served_in.set(served_in.get() + msg.payload.len() as u64);
        vec![Reply {
            dst_ip: msg.src_ip,
            dst_port: msg.src_port,
            src_port: msg.dst_port,
            payload: msg.payload.clone(),
            cost: ECHO_COST,
        }]
    }));
    let ledger = Rc::new(RefCell::new(Ledger::new(
        "net_rr echo",
        gen::mix(seed ^ 0x7272),
        RR_LEN,
    )));
    let rx = Rc::clone(&ledger);
    let client_app = app.clone();
    sys.set_client_app(Box::new(move |now, msg: &UdpMsg| {
        let _t = client_app.span();
        rx.borrow_mut().accept(now, msg, addrs::GUEST, down_ports);
        Vec::new()
    }));

    let start = sys.now() + LEAD;
    let mut rng = Rng::new(seed, 1);
    let mean_gap = 1e9 / RR_RATE;
    let mut next = start.as_nanos() + rng.exp_ns(mean_gap);
    drive(&mut sys, start, RR_VIRT, RR_WINDOW, &mut out, |hi| {
        let mut sends = Vec::new();
        let mut l = ledger.borrow_mut();
        while next < hi.as_nanos() {
            let flow = rng.below(FLOWS) as u16;
            sends.push(Send {
                at: Nanos::from_nanos(next),
                side: Side::Client,
                flow,
                payload: l.make(next, flow),
            });
            next += rng.exp_ns(mean_gap);
        }
        sends
    });
    out.app = app.total();
    let mut l = ledger.borrow_mut();
    finish(&sys, start, &mut out, &mut [&mut l]);
    out.payload_bytes += served.get();
    out
}

/// `net_bulk`: paced, bidirectional 16 KiB datagrams over 64 flows
/// with segmentation offload on a 25GbE wire.
pub fn run_bulk(seed: u64, traced: bool) -> Outcome {
    let mut out = Outcome::default();
    let t = Instant::now();
    let mut sys = config(seed, true, traced).build_net();
    out.setup = t.elapsed();
    crate::harness::built(&mut out, traced);
    if !sys.gso_negotiated() {
        out.errors.push("net_bulk: GSO was not negotiated".into());
    }

    let app = AppTimer::new(traced);
    let up = Rc::new(RefCell::new(Ledger::new(
        "net_bulk client->guest",
        gen::mix(seed ^ 0x7570),
        BULK_LEN,
    )));
    let down = Rc::new(RefCell::new(Ledger::new(
        "net_bulk guest->client",
        gen::mix(seed ^ 0x646f),
        BULK_LEN,
    )));
    let (rx_up, t_up) = (Rc::clone(&up), app.clone());
    sys.set_guest_app(Box::new(move |now, msg: &UdpMsg| {
        let _t = t_up.span();
        rx_up.borrow_mut().accept(now, msg, addrs::CLIENT, up_ports);
        Vec::new()
    }));
    let (rx_down, t_down) = (Rc::clone(&down), app.clone());
    sys.set_client_app(Box::new(move |now, msg: &UdpMsg| {
        let _t = t_down.span();
        rx_down
            .borrow_mut()
            .accept(now, msg, addrs::GUEST, down_ports);
        Vec::new()
    }));

    let start = sys.now() + LEAD;
    let mut rng = Rng::new(seed, 2);
    // Each direction is paced at BULK_GAP, half a gap apart, and both
    // visit the flows round robin from one seeded first flow, so every
    // flow (and so every queue) carries a fixed share of the load.
    let first = rng.below(FLOWS);
    let mut sent = [first, first];
    let mut next = [start.as_nanos(), start.as_nanos() + BULK_GAP / 2];
    drive(&mut sys, start, BULK_VIRT, BULK_WINDOW, &mut out, |hi| {
        let mut sends = Vec::new();
        for (dir, side) in [Side::Client, Side::Guest].into_iter().enumerate() {
            let mut l = if dir == 0 {
                up.borrow_mut()
            } else {
                down.borrow_mut()
            };
            while next[dir] < hi.as_nanos() {
                let flow = (sent[dir] % FLOWS) as u16;
                sent[dir] += 1;
                sends.push(Send {
                    at: Nanos::from_nanos(next[dir]),
                    side,
                    flow,
                    payload: l.make(next[dir], flow),
                });
                next[dir] += BULK_GAP;
            }
        }
        sends
    });
    out.app = app.total();
    let (mut u, mut d) = (up.borrow_mut(), down.borrow_mut());
    finish(&sys, start, &mut out, &mut [&mut u, &mut d]);
    out
}
