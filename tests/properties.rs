//! Property-based tests over the core data structures and protocols.
//!
//! Randomized cases are driven by the workspace's own deterministic
//! [`Pcg`] generator (no external property-testing dependency, which the
//! offline build cannot fetch): every test derives its cases from a fixed
//! seed, so failures replay bit-for-bit.

use kite::core::BlkbackTuning;
use kite::core::{provision_device, BackendDevice, BackendManager, NetbackInstance};
use kite::frontends::Netfront;
use kite::fs::{ExtentAllocator, Fs};
use kite::net::{
    ArpPacket, DhcpMessage, DhcpMessageType, EtherType, EthernetFrame, IcmpMessage, IpProto,
    Ipv4Packet, MacAddr, TcpSegment, UdpDatagram,
};
use kite::rumprun::kite_profile;
use kite::sim::{Nanos, Pcg};
use kite::system::{BackendOs, IoKind, IoOp};
use kite::xen::netif::{NetifRxRequest, NetifTxRequest, NetifTxResponse};
use kite::xen::ring::{BackRing, FrontRing, RingEntry};
use kite::xen::{
    CopyMode, DeviceKind, DevicePaths, DomainId, DomainKind, GrantRef, HypercallKind, Hypervisor,
    PageId, XenbusState, PAGE_SIZE,
};
use std::cell::RefCell;
use std::rc::Rc;

/// Toy ring entry.
#[derive(Clone, Debug, PartialEq, Eq)]
struct E(u64);
impl RingEntry for E {
    const SIZE: usize = 8;
    fn write_to(&self, buf: &mut [u8]) {
        buf.copy_from_slice(&self.0.to_le_bytes());
    }
    fn read_from(buf: &[u8]) -> Self {
        E(u64::from_le_bytes(buf[..8].try_into().unwrap()))
    }
}

fn random_bytes(rng: &mut Pcg, len: usize) -> Vec<u8> {
    let mut v = vec![0u8; len];
    rng.fill_bytes(&mut v);
    v
}

/// The shared-ring protocol never loses, duplicates or reorders entries
/// under arbitrary interleavings of produce/consume steps.
#[test]
fn ring_fifo_under_arbitrary_interleaving() {
    let mut rng = Pcg::new(0x41, 1);
    for _ in 0..100 {
        let nops = rng.index(299) + 1;
        let mut page = vec![0u8; 4096];
        let mut front: FrontRing<E, E> = FrontRing::init(&mut page);
        let mut back: BackRing<E, E> = BackRing::attach();
        let mut next = 0u64;
        let mut expect_req = 0u64;
        let mut expect_rsp = 0u64;
        let mut served = std::collections::VecDeque::new();
        for _ in 0..nops {
            match rng.index(4) {
                0 => {
                    if !front.full() {
                        front.push_request(&mut page, &E(next)).unwrap();
                        next += 1;
                        front.push_requests(&mut page);
                    }
                }
                1 => {
                    if let Some(r) = back.consume_request(&page).unwrap() {
                        assert_eq!(r.0, expect_req, "requests FIFO");
                        expect_req += 1;
                        served.push_back(r.0);
                    }
                }
                2 => {
                    if let Some(v) = served.front().copied() {
                        if back.free_responses() > 0 && back.push_response(&mut page, &E(v)).is_ok()
                        {
                            served.pop_front();
                            back.push_responses(&mut page);
                        }
                    }
                }
                _ => {
                    if let Some(r) = front.consume_response(&page).unwrap() {
                        assert_eq!(r.0, expect_rsp, "responses FIFO");
                        expect_rsp += 1;
                    }
                }
            }
        }
    }
}

/// Ethernet/IPv4/UDP stacking round-trips arbitrary payloads.
#[test]
fn packet_stack_roundtrip() {
    let mut rng = Pcg::seeded(0x9a11);
    for _ in 0..64 {
        let plen = rng.index(1400);
        let payload = random_bytes(&mut rng, plen);
        let sp = rng.range_u64(1, 65535) as u16;
        let dp = rng.range_u64(1, 65535) as u16;
        let src = "10.1.2.3".parse().unwrap();
        let dst = "10.4.5.6".parse().unwrap();
        let udp = UdpDatagram::new(sp, dp, payload.clone());
        let ip = Ipv4Packet::new(src, dst, IpProto::Udp, udp.encode(src, dst));
        let eth = EthernetFrame::new(
            MacAddr::local(1),
            MacAddr::local(2),
            EtherType::Ipv4,
            ip.encode(),
        );
        let bytes = eth.encode();

        let eth2 = EthernetFrame::decode(&bytes).unwrap();
        assert_eq!(eth2.ethertype, EtherType::Ipv4);
        let ip2 = Ipv4Packet::decode(&eth2.payload).unwrap();
        assert_eq!(ip2.src, src);
        let udp2 = UdpDatagram::decode(&ip2.payload, src, dst).unwrap();
        assert_eq!(udp2.payload, payload);
        assert_eq!((udp2.src_port, udp2.dst_port), (sp, dp));
    }
}

/// Any single-bit corruption in an IPv4 header is detected (exhaustive
/// over all 160 header bits — no sampling needed).
#[test]
fn ipv4_header_bitflip_detected() {
    for bit in 0..(20 * 8) {
        let ip = Ipv4Packet::new(
            "10.0.0.1".parse().unwrap(),
            "10.0.0.2".parse().unwrap(),
            IpProto::Tcp,
            vec![1, 2, 3],
        );
        let mut bytes = ip.encode();
        bytes[bit / 8] ^= 1 << (bit % 8);
        // Either the version check or the checksum must catch it.
        assert!(Ipv4Packet::decode(&bytes).is_none() || bit / 8 >= 20);
    }
}

/// TCP segments round-trip.
#[test]
fn tcp_roundtrip() {
    let mut rng = Pcg::seeded(0x7c9);
    for _ in 0..64 {
        let plen = rng.index(1000);
        let payload = random_bytes(&mut rng, plen);
        let src = "10.0.0.1".parse().unwrap();
        let dst = "10.0.0.2".parse().unwrap();
        let s = TcpSegment {
            src_port: 80,
            dst_port: 12345,
            seq: rng.next_u32(),
            ack: rng.next_u32(),
            flags: kite::net::tcp::flags::ACK,
            window: rng.next_u32() as u16,
            payload,
        };
        let bytes = s.encode(src, dst);
        assert_eq!(TcpSegment::decode(&bytes, src, dst), Some(s));
    }
}

/// ICMP echo round-trips.
#[test]
fn icmp_roundtrip() {
    let mut rng = Pcg::seeded(0x1c3);
    for _ in 0..64 {
        let m = IcmpMessage::EchoRequest {
            ident: rng.next_u32() as u16,
            seq: rng.next_u32() as u16,
            payload: {
                let plen = rng.index(256);
                random_bytes(&mut rng, plen)
            },
        };
        assert_eq!(IcmpMessage::decode(&m.encode()), Some(m));
    }
}

/// ARP round-trips.
#[test]
fn arp_roundtrip() {
    let mut rng = Pcg::seeded(0xa59);
    for _ in 0..64 {
        let a = rng.next_u32();
        let b = rng.next_u32();
        let p = ArpPacket::request(
            MacAddr::local(a),
            std::net::Ipv4Addr::from(a),
            std::net::Ipv4Addr::from(b),
        );
        assert_eq!(ArpPacket::decode(&p.encode()), Some(p));
    }
}

/// DHCP messages round-trip with arbitrary option combinations.
#[test]
fn dhcp_roundtrip() {
    let mut rng = Pcg::seeded(0xd4c7);
    for _ in 0..64 {
        let mut m = DhcpMessage::client(
            DhcpMessageType::Request,
            rng.next_u32(),
            MacAddr::local(rng.next_u32()),
        );
        m.requested_ip = rng
            .chance(0.5)
            .then(|| std::net::Ipv4Addr::from(rng.next_u32()));
        m.lease_secs = rng.chance(0.5).then(|| rng.next_u32());
        assert_eq!(DhcpMessage::decode(&m.encode()), Some(m));
    }
}

/// The extent allocator conserves blocks under arbitrary churn.
#[test]
fn allocator_conserves_blocks() {
    let mut rng = Pcg::seeded(0xa110c);
    for _ in 0..64 {
        let total = 2048;
        let mut a = ExtentAllocator::new(total);
        let mut held: Vec<Vec<kite::fs::Extent>> = Vec::new();
        for _ in 0..rng.index(199) + 1 {
            let free = rng.chance(0.5);
            let n = rng.range_u64(1, 40);
            if free && !held.is_empty() {
                for e in held.pop().unwrap() {
                    a.free_extent(e);
                }
            } else if let Some(e) = a.alloc(n) {
                assert_eq!(e.iter().map(|x| x.len).sum::<u64>(), n);
                held.push(e);
            }
            let held_total: u64 = held.iter().flatten().map(|e| e.len).sum();
            assert_eq!(a.free_blocks() + held_total, total);
        }
    }
}

/// Allocated extents never overlap.
#[test]
fn allocator_never_overlaps() {
    let mut rng = Pcg::seeded(0xa110d);
    for _ in 0..64 {
        let mut a = ExtentAllocator::new(4096);
        let mut used = std::collections::HashSet::new();
        for _ in 0..rng.index(59) + 1 {
            let n = rng.range_u64(1, 64);
            if let Some(extents) = a.alloc(n) {
                for e in extents {
                    for b in e.start..e.start + e.len {
                        assert!(used.insert(b), "block {} double-allocated", b);
                    }
                }
            }
        }
    }
}

/// FS write-then-read returns exactly the written range through the
/// device-I/O plans (byte accounting, cache on or off).
#[test]
fn fs_read_covers_written_range() {
    let mut rng = Pcg::seeded(0xf5);
    for _ in 0..32 {
        let mut fs = Fs::format(4096, 8);
        let ino = fs.create("f").unwrap();
        let mut size = 0u64;
        for _ in 0..rng.index(19) + 1 {
            let off = rng.range_u64(0, 64) * 512;
            let len = rng.index(16383) + 1;
            if fs.write(ino, off, len).is_ok() {
                size = size.max(off + len as u64);
            }
        }
        assert_eq!(fs.size(ino).unwrap(), size);
        if size > 0 {
            fs.drop_caches();
            let plan = fs.read(ino, 0, size as usize).unwrap();
            let covered: usize =
                plan.device_ios.iter().map(|io| io.bytes).sum::<usize>() + plan.cached_bytes;
            assert_eq!(covered, size as usize);
        }
    }
}

/// Grant copy moves exactly the requested bytes regardless of offsets.
#[test]
fn grant_copy_exact() {
    let mut rng = Pcg::seeded(0x9c0);
    for _ in 0..128 {
        let src_off = rng.index(4096);
        let dst_off = rng.index(4096);
        let len = rng.index(4096 - src_off.max(dst_off) + 1);
        let mut hv = Hypervisor::new();
        hv.create_domain("Domain-0", DomainKind::Dom0, 64, 1);
        let dd = hv.create_domain("dd", DomainKind::Driver, 64, 1);
        let gu = hv.create_domain("gu", DomainKind::Guest, 64, 1);
        let sp = hv.alloc_page(gu).unwrap();
        let dp = hv.alloc_page(dd).unwrap();
        for (i, b) in hv.mem.page_mut(sp).unwrap().iter_mut().enumerate() {
            *b = (i % 251) as u8;
        }
        let gref = hv.grant_access(gu, dd, sp, true).unwrap();
        hv.grant_copy(
            dd,
            kite::xen::CopySide::Grant {
                granter: gu,
                gref,
                offset: src_off,
            },
            kite::xen::CopySide::Local {
                page: dp,
                offset: dst_off,
            },
            len,
        )
        .unwrap();
        let dst = hv.mem.page(dp).unwrap();
        for i in 0..len {
            assert_eq!(dst[dst_off + i], ((src_off + i) % 251) as u8);
        }
        // Bytes outside the window stay zero.
        for (i, &b) in dst.iter().enumerate() {
            if i < dst_off || i >= dst_off + len {
                assert_eq!(b, 0);
            }
        }
    }
}

/// Xenstore transactions are serializable: a conflicting commit fails,
/// a retry applied after sees the latest value.
#[test]
fn xenstore_counter_increments_serially() {
    let mut rng = Pcg::seeded(0x5e1);
    for _ in 0..32 {
        let mut hv = Hypervisor::new();
        let d0 = hv.create_domain("Domain-0", DomainKind::Dom0, 64, 1);
        hv.store.write(d0, None, "/counter", "0").unwrap();
        let mut expected = 0u64;
        for _ in 0..rng.index(39) + 1 {
            let conflict = rng.chance(0.5);
            // The concurrent writer interferes only with the first
            // attempt; the retry then commits cleanly (as a real racing
            // writer eventually quiesces).
            let mut pending_conflict = conflict;
            loop {
                let tx = hv.store.tx_start(d0);
                let v: u64 = hv
                    .store
                    .read(d0, Some(tx), "/counter")
                    .unwrap()
                    .parse()
                    .unwrap();
                if pending_conflict {
                    hv.store
                        .write(d0, None, "/counter", &(v + 1).to_string())
                        .unwrap();
                    expected += 1;
                    pending_conflict = false;
                }
                hv.store
                    .write(d0, Some(tx), "/counter", &(v + 1).to_string())
                    .unwrap();
                match hv.store.tx_end(d0, tx, true) {
                    Ok(()) => {
                        expected += 1;
                        break;
                    }
                    Err(kite::xen::XenError::Again) => {
                        assert!(conflict, "spurious conflict");
                        continue;
                    }
                    Err(e) => panic!("unexpected {e}"),
                }
            }
            let v: u64 = hv
                .store
                .read(d0, None, "/counter")
                .unwrap()
                .parse()
                .unwrap();
            assert_eq!(v, expected);
        }
    }
}

/// The DES queue pops in nondecreasing time order for any schedule.
#[test]
fn event_queue_time_monotone() {
    let mut rng = Pcg::seeded(0xe4e);
    for _ in 0..64 {
        let n = rng.index(199) + 1;
        let times: Vec<u64> = (0..n).map(|_| rng.range_u64(0, 1_000_000)).collect();
        let mut q = kite::sim::EventQueue::new();
        for (i, t) in times.iter().enumerate() {
            q.schedule_at(Nanos(*t), i);
        }
        let mut last = Nanos::ZERO;
        let mut popped = 0;
        while let Some((t, _)) = q.pop() {
            assert!(t >= last);
            last = t;
            popped += 1;
        }
        assert_eq!(popped, times.len());
    }
}

// ---- batched grant-copy properties -------------------------------------

/// One netfront⇄netback pair assembled by hand (no scenario builder).
struct NetRig {
    hv: Hypervisor,
    dd: DomainId,
    nf: Netfront,
    nb: NetbackInstance,
}

fn net_rig(mode: CopyMode) -> NetRig {
    let mut hv = Hypervisor::new();
    hv.create_domain("Domain-0", DomainKind::Dom0, 8192, 4);
    let dd = hv.create_domain("netbackend", DomainKind::Driver, 1024, 1);
    let gu = hv.create_domain("guest", DomainKind::Guest, 5120, 22);
    let mut mgr = BackendManager::new(dd, DeviceKind::Vif);
    mgr.start(&mut hv).unwrap();
    let paths = DevicePaths::new(gu, dd, DeviceKind::Vif, 0);
    provision_device(&mut hv, &paths).unwrap();
    mgr.scan(&mut hv).unwrap();
    let nf = Netfront::connect(&mut hv, &paths, MacAddr::local(1)).unwrap();
    let ready = mgr.scan(&mut hv).unwrap();
    assert_eq!(ready.len(), 1);
    let mut nb = NetbackInstance::connect(&mut hv, &ready[0], kite_profile()).unwrap();
    nb.set_copy_mode(mode);
    NetRig { hv, dd, nf, nb }
}

#[derive(Clone, Debug)]
enum NetOp {
    /// Guest sends a frame of this length.
    Send(usize),
    /// The world queues a frame of this length for the guest.
    Enqueue(usize),
    /// Tx drain with this budget.
    Pusher(usize),
    /// Rx fill with this budget.
    SoftStart(usize),
    /// Guest reaps completions and reposts Rx buffers.
    GuestIrq,
}

/// Everything externally observable from one op, for equivalence checks.
#[derive(Debug, PartialEq, Eq)]
enum Observed {
    Sent(bool),
    Enqueued(bool),
    Tx {
        frames: Vec<Vec<u8>>,
        notify: bool,
        more: bool,
    },
    Rx {
        delivered: usize,
        notify: bool,
        more: bool,
    },
    Irq {
        received: Vec<Vec<u8>>,
    },
}

/// Applies one op sequence to a rig; returns the observation log plus the
/// accumulated virtual drain cost.
fn apply_net_ops(rig: &mut NetRig, ops: &[NetOp], payload_rng: &mut Pcg) -> (Vec<Observed>, Nanos) {
    let mut log = Vec::new();
    let mut drain_cost = Nanos::ZERO;
    for op in ops {
        match op {
            NetOp::Send(len) => {
                let frame = random_bytes(payload_rng, *len);
                let ok = rig.nf.send(&mut rig.hv, &frame, None).is_ok();
                log.push(Observed::Sent(ok));
            }
            NetOp::Enqueue(len) => {
                let frame = random_bytes(payload_rng, *len);
                log.push(Observed::Enqueued(rig.nb.enqueue_to_guest(frame)));
            }
            NetOp::Pusher(budget) => {
                let before = rig.hv.meter(rig.dd).count(HypercallKind::GntCopy);
                let batch = rig.nb.pusher_run(&mut rig.hv, 0, *budget).unwrap();
                let delta = rig.hv.meter(rig.dd).count(HypercallKind::GntCopy) - before;
                if rig.nb.copy_mode() == CopyMode::Batched {
                    assert!(delta <= 1, "one hypercall per Tx drain, saw {delta}");
                }
                drain_cost += batch.cost;
                log.push(Observed::Tx {
                    frames: batch.frames,
                    notify: batch.notify,
                    more: batch.more,
                });
            }
            NetOp::SoftStart(budget) => {
                let before = rig.hv.meter(rig.dd).count(HypercallKind::GntCopy);
                let batch = rig.nb.soft_start_run(&mut rig.hv, 0, *budget).unwrap();
                let delta = rig.hv.meter(rig.dd).count(HypercallKind::GntCopy) - before;
                if rig.nb.copy_mode() == CopyMode::Batched {
                    assert!(delta <= 1, "one hypercall per Rx fill, saw {delta}");
                }
                drain_cost += batch.cost;
                log.push(Observed::Rx {
                    delivered: batch.delivered,
                    notify: batch.notify,
                    more: batch.more,
                });
            }
            NetOp::GuestIrq => {
                rig.nf.on_irq(&mut rig.hv).unwrap();
                let mut received = Vec::new();
                while let Some(f) = rig.nf.recv() {
                    received.push(f);
                }
                log.push(Observed::Irq { received });
            }
        }
    }
    (log, drain_cost)
}

/// The batched drain is observably identical to the one-hypercall-per-op
/// path: same frames, same responses, same notify decisions, same
/// packet/byte/error stats — under random budgets, ring states and
/// workloads. Only the hypercall count (and hence cost) differs, and the
/// batched cost is never higher.
#[test]
fn netback_batched_matches_single_op() {
    for seed in 0..8u64 {
        let mut op_rng = Pcg::new(seed, 0xba7c4);
        let mut ops = Vec::new();
        for _ in 0..op_rng.index(120) + 30 {
            ops.push(match op_rng.index(8) {
                0..=2 => NetOp::Send(op_rng.index(1500) + 1),
                3 | 4 => NetOp::Enqueue(op_rng.index(1500) + 1),
                5 => NetOp::Pusher(op_rng.index(64) + 1),
                6 => NetOp::SoftStart(op_rng.index(64) + 1),
                _ => NetOp::GuestIrq,
            });
        }
        // Always drain at the end so both sides did real batch work.
        ops.push(NetOp::Pusher(256));
        ops.push(NetOp::SoftStart(256));
        ops.push(NetOp::GuestIrq);

        let mut batched = net_rig(CopyMode::Batched);
        let mut single = net_rig(CopyMode::SingleOp);
        let (log_b, cost_b) = apply_net_ops(&mut batched, &ops, &mut Pcg::new(seed, 0xf00d));
        let (log_s, cost_s) = apply_net_ops(&mut single, &ops, &mut Pcg::new(seed, 0xf00d));
        assert_eq!(log_b, log_s, "seed {seed}: observable behavior must match");

        let sb = batched.nb.stats();
        let ss = single.nb.stats();
        assert_eq!(
            (sb.tx_packets, sb.tx_bytes, sb.tx_errors),
            (ss.tx_packets, ss.tx_bytes, ss.tx_errors)
        );
        assert_eq!(
            (sb.rx_packets, sb.rx_bytes, sb.rx_dropped),
            (ss.rx_packets, ss.rx_bytes, ss.rx_dropped)
        );
        assert_eq!((sb.copy.ops, sb.copy.bytes), (ss.copy.ops, ss.copy.bytes));
        // The meter agrees with the driver's own accounting in both modes.
        assert_eq!(
            batched.hv.meter(batched.dd).count(HypercallKind::GntCopy),
            sb.copy.batches
        );
        assert_eq!(
            single.hv.meter(single.dd).count(HypercallKind::GntCopy),
            ss.copy.batches
        );
        // Batching strictly reduces hypercalls and never raises cost.
        assert!(sb.copy.batches <= ss.copy.batches);
        assert!(
            cost_b <= cost_s,
            "seed {seed}: batched {cost_b:?} vs {cost_s:?}"
        );
        if sb.copy.hypercalls_saved > 0 {
            assert!(cost_b < cost_s, "multi-op drains must be strictly cheaper");
        }
    }
}

/// A hand-rolled frontend whose rings the test controls directly — used
/// to feed netback requests a real netfront never produces.
struct RawFront {
    tx: FrontRing<NetifTxRequest, NetifTxResponse>,
    rx: FrontRing<NetifRxRequest, kite::xen::netif::NetifRxResponse>,
    tx_page: PageId,
    rx_page: PageId,
    buf_page: PageId,
    buf_gref: GrantRef,
}

fn raw_rig() -> (Hypervisor, DomainId, RawFront, NetbackInstance) {
    let mut hv = Hypervisor::new();
    hv.create_domain("Domain-0", DomainKind::Dom0, 8192, 4);
    let dd = hv.create_domain("netbackend", DomainKind::Driver, 1024, 1);
    let gu = hv.create_domain("guest", DomainKind::Guest, 5120, 22);
    let mut mgr = BackendManager::new(dd, DeviceKind::Vif);
    mgr.start(&mut hv).unwrap();
    let paths = DevicePaths::new(gu, dd, DeviceKind::Vif, 0);
    provision_device(&mut hv, &paths).unwrap();
    mgr.scan(&mut hv).unwrap();
    let tx_page = hv.alloc_page(gu).unwrap();
    let rx_page = hv.alloc_page(gu).unwrap();
    let tx = FrontRing::init(hv.mem.page_mut(tx_page).unwrap());
    let rx = FrontRing::init(hv.mem.page_mut(rx_page).unwrap());
    let tx_ref = hv.grant_access(gu, dd, tx_page, false).unwrap();
    let rx_ref = hv.grant_access(gu, dd, rx_page, false).unwrap();
    let buf_page = hv.alloc_page(gu).unwrap();
    let buf_gref = hv.grant_access(gu, dd, buf_page, false).unwrap();
    let (port, _) = hv.evtchn_alloc_unbound(gu, dd);
    let fe = paths.frontend();
    hv.store
        .write(
            gu,
            None,
            &format!("{fe}/tx-ring-ref"),
            &tx_ref.0.to_string(),
        )
        .unwrap();
    hv.store
        .write(
            gu,
            None,
            &format!("{fe}/rx-ring-ref"),
            &rx_ref.0.to_string(),
        )
        .unwrap();
    hv.store
        .write(
            gu,
            None,
            &format!("{fe}/event-channel"),
            &port.0.to_string(),
        )
        .unwrap();
    kite::xen::xenbus::switch_state(
        &mut hv.store,
        gu,
        &paths.frontend_state(),
        XenbusState::Initialised,
    )
    .unwrap();
    let ready = mgr.scan(&mut hv).unwrap();
    assert_eq!(ready.len(), 1);
    let nb = NetbackInstance::connect(&mut hv, &ready[0], kite_profile()).unwrap();
    let front = RawFront {
        tx,
        rx,
        tx_page,
        rx_page,
        buf_page,
        buf_gref,
    };
    (hv, dd, front, nb)
}

/// Malformed Tx requests — zero size, offset at/past the page end, spans
/// crossing the page — are rejected as errors without panicking (the
/// `PAGE_SIZE - offset` underflow) and without poisoning the rest of the
/// drain, which still completes in one hypercall.
#[test]
fn pusher_rejects_bad_geometry_without_underflow() {
    let (mut hv, dd, mut front, mut nb) = raw_rig();
    hv.mem.page_mut(front.buf_page).unwrap()[..64].copy_from_slice(&[7u8; 64]);
    let reqs = [
        // Valid: 64 bytes at offset 0.
        NetifTxRequest {
            gref: front.buf_gref,
            offset: 0,
            flags: 0,
            id: 0,
            size: 64,
        },
        // Zero-size.
        NetifTxRequest {
            gref: front.buf_gref,
            offset: 0,
            flags: 0,
            id: 1,
            size: 0,
        },
        // Offset beyond the page: 4096-5000 underflows a usize subtraction.
        NetifTxRequest {
            gref: front.buf_gref,
            offset: 5000,
            flags: 0,
            id: 2,
            size: 100,
        },
        // Offset exactly at the page end.
        NetifTxRequest {
            gref: front.buf_gref,
            offset: PAGE_SIZE as u16,
            flags: 0,
            id: 3,
            size: 1,
        },
        // Span crosses the page end.
        NetifTxRequest {
            gref: front.buf_gref,
            offset: 4000,
            flags: 0,
            id: 4,
            size: 200,
        },
        // Valid geometry, bad grant: fails in the copy, not validation.
        NetifTxRequest {
            gref: GrantRef(991_991),
            offset: 0,
            flags: 0,
            id: 5,
            size: 32,
        },
    ];
    for r in &reqs {
        let page = hv.mem.page_mut(front.tx_page).unwrap();
        front.tx.push_request(page, r).unwrap();
    }
    front
        .tx
        .push_requests(hv.mem.page_mut(front.tx_page).unwrap());

    let before = hv.meter(dd).count(HypercallKind::GntCopy);
    let batch = nb.pusher_run(&mut hv, 0, 16).unwrap();
    assert_eq!(batch.frames, vec![vec![7u8; 64]], "only the valid frame");
    assert_eq!(nb.stats().tx_errors, 5);
    assert_eq!(nb.stats().tx_packets, 1);
    assert_eq!(
        hv.meter(dd).count(HypercallKind::GntCopy) - before,
        1,
        "whole drain (valid + bad-grant ops) in one hypercall"
    );
    // Every request got a response, in ring order.
    let mut statuses = Vec::new();
    loop {
        let page = hv.mem.page(front.tx_page).unwrap();
        match front.tx.consume_response(page).unwrap() {
            Some(r) => statuses.push((r.id, r.status)),
            None => break,
        }
    }
    use kite::xen::netif::{NETIF_RSP_ERROR, NETIF_RSP_OKAY};
    assert_eq!(
        statuses,
        vec![
            (0, NETIF_RSP_OKAY),
            (1, NETIF_RSP_ERROR),
            (2, NETIF_RSP_ERROR),
            (3, NETIF_RSP_ERROR),
            (4, NETIF_RSP_ERROR),
            (5, NETIF_RSP_ERROR),
        ]
    );
}

/// A frame whose Rx copy fails (revoked/bogus grant) is dropped loudly:
/// counted in `rx_dropped`, answered with an error response, and the
/// backlog still drains — no silent loss, no stuck queue.
#[test]
fn soft_start_counts_dropped_frames() {
    let (mut hv, dd, mut front, mut nb) = raw_rig();
    assert!(nb.enqueue_to_guest(vec![1u8; 100]));
    assert!(nb.enqueue_to_guest(vec![2u8; 200]));
    assert!(nb.enqueue_to_guest(vec![3u8; 300]));
    let posts = [
        NetifRxRequest {
            id: 0,
            gref: GrantRef(881_881), // never granted: copy fails
        },
        NetifRxRequest {
            id: 1,
            gref: front.buf_gref,
        },
        NetifRxRequest {
            id: 2,
            gref: GrantRef(881_882),
        },
    ];
    for r in &posts {
        let page = hv.mem.page_mut(front.rx_page).unwrap();
        front.rx.push_request(page, r).unwrap();
    }
    front
        .rx
        .push_requests(hv.mem.page_mut(front.rx_page).unwrap());

    let before = hv.meter(dd).count(HypercallKind::GntCopy);
    let batch = nb.soft_start_run(&mut hv, 0, 16).unwrap();
    assert_eq!(batch.delivered, 1, "only the valid buffer");
    assert_eq!(nb.stats().rx_dropped, 2);
    assert_eq!(
        nb.rx_backlog(),
        0,
        "failed frames are consumed, not re-queued"
    );
    assert_eq!(hv.meter(dd).count(HypercallKind::GntCopy) - before, 1);
    // The good buffer holds frame #2's bytes (frames pair with posts in order).
    assert_eq!(
        &hv.mem.page(front.buf_page).unwrap()[..200],
        &[2u8; 200][..]
    );
}

/// The acceptance property stated in the issue: a multi-packet ring drain
/// issues exactly ONE grant-copy hypercall, in both directions.
#[test]
fn netback_drain_is_one_hypercall() {
    use kite::trace::EventKind;
    let mut rig = net_rig(CopyMode::Batched);
    rig.hv.trace.enable(1 << 12);
    for i in 0..20 {
        let frame = vec![i as u8; 100 + i * 7];
        rig.nf.send(&mut rig.hv, &frame, None).unwrap();
        rig.nb.enqueue_to_guest(frame);
    }
    let tx = rig.nb.pusher_run(&mut rig.hv, 0, 64).unwrap();
    assert_eq!(tx.frames.len(), 20);
    // Trace-level assertion: the whole 20-frame Tx drain was exactly ONE
    // gnttab_copy hypercall carrying all 20 ops, recorded as one drain.
    assert_eq!(rig.hv.trace.query().kind("gnttab_copy").count(), 1);
    let copy = rig.hv.trace.query().kind("gnttab_copy").first().unwrap();
    assert!(matches!(
        copy.kind,
        EventKind::GrantCopyBatch {
            ops: 20,
            ok_ops: 20,
            ..
        }
    ));
    let drain = rig.hv.trace.query().kind("ring_drain").first().unwrap();
    assert!(matches!(
        drain.kind,
        EventKind::RingDrain {
            queue: "netback_tx",
            consumed: 20,
            ..
        }
    ));

    let rx = rig.nb.soft_start_run(&mut rig.hv, 0, 64).unwrap();
    assert_eq!(rx.delivered, 20);
    assert_eq!(rig.hv.trace.query().kind("gnttab_copy").count(), 2);
    assert_eq!(
        rig.hv
            .trace
            .query()
            .kind("ring_drain")
            .filter(|e| matches!(
                e.kind,
                EventKind::RingDrain {
                    queue: "netback_rx",
                    ..
                }
            ))
            .count(),
        1
    );

    // An empty drain emits neither a copy hypercall nor a drain record.
    rig.nb.pusher_run(&mut rig.hv, 0, 64).unwrap();
    rig.nb.soft_start_run(&mut rig.hv, 0, 64).unwrap();
    assert_eq!(rig.hv.trace.query().kind("gnttab_copy").count(), 2);
    assert_eq!(rig.hv.trace.query().kind("ring_drain").count(), 2);

    let st = rig.nb.stats();
    assert_eq!(st.copy.batches, 2);
    assert_eq!(st.copy.ops, 40);
    assert_eq!(st.copy.hypercalls_saved, 38);
}

/// Blkback on the grant-copy data path: batched and single-op modes move
/// identical bytes with identical request accounting; batching strictly
/// reduces hypercalls and virtual time on a random mixed workload.
#[test]
fn blkback_batched_matches_single_op() {
    let tuning = BlkbackTuning {
        persistent_grants: false,
        persistent_cap: 0,
        ..BlkbackTuning::default()
    };
    let run = |mode: CopyMode, seed: u64| {
        let mut sys = kite::system::SystemConfig::new(BackendOs::Kite, seed)
            .tuning(tuning)
            .copy_mode(mode)
            .build_stor();
        let mut rng = Pcg::new(seed, 0xb1);
        type CompletionLog = Rc<RefCell<Vec<(u64, bool, Option<Vec<u8>>)>>>;
        let reads: CompletionLog = Rc::new(RefCell::new(Vec::new()));
        let sink = reads.clone();
        sys.set_handler(Box::new(move |_, done| {
            sink.borrow_mut()
                .push((done.tag, done.ok, done.data.clone()));
            Vec::new()
        }));
        let mut t = Nanos::from_micros(50);
        let mut extents: Vec<(u64, usize)> = Vec::new();
        for tag in 0..40u64 {
            let kind = match rng.index(10) {
                0 => IoKind::Flush,
                1..=6 => {
                    let sectors = rng.range_u64(1, 256);
                    let sector = rng.range_u64(0, 65_536) * 8;
                    let data = random_bytes(&mut rng, sectors as usize * 512);
                    extents.push((sector, data.len()));
                    IoKind::Write { sector, data }
                }
                _ => {
                    if let Some(&(sector, len)) = extents.last() {
                        IoKind::Read { sector, len }
                    } else {
                        IoKind::Flush
                    }
                }
            };
            sys.submit_at(t, IoOp { tag, kind });
            t += Nanos::from_micros(30);
        }
        sys.run_to_quiescence();
        // Completion *order* is timing-dependent (the two cost models
        // schedule differently); the data and outcomes must not be.
        let mut log = reads.borrow().clone();
        log.sort_by_key(|&(tag, _, _)| tag);
        (log, sys.blkback_stats(), sys.now())
    };
    for seed in 0..4u64 {
        let (log_b, st_b, now_b) = run(CopyMode::Batched, seed);
        let (log_s, st_s, now_s) = run(CopyMode::SingleOp, seed);
        assert_eq!(log_b, log_s, "seed {seed}: completions must match");
        assert_eq!(
            (
                st_b.requests,
                st_b.errors,
                st_b.read_bytes,
                st_b.write_bytes
            ),
            (
                st_s.requests,
                st_s.errors,
                st_s.read_bytes,
                st_s.write_bytes
            )
        );
        assert_eq!(
            (st_b.copy.ops, st_b.copy.bytes),
            (st_s.copy.ops, st_s.copy.bytes)
        );
        assert_eq!(st_b.grant_maps, 0, "copy path never maps data pages");
        assert!(
            st_b.copy.batches < st_s.copy.batches,
            "seed {seed}: batching must save hypercalls"
        );
        assert!(now_b < now_s, "seed {seed}: batched must finish sooner");
    }
}

/// Blkback issues one grant-copy hypercall per request's segment list
/// (plus one for the descriptor page of an indirect request).
#[test]
fn blkback_request_is_one_copy_batch() {
    let tuning = BlkbackTuning {
        persistent_grants: false,
        persistent_cap: 0,
        ..BlkbackTuning::default()
    };
    let mut sys = kite::system::SystemConfig::new(BackendOs::Kite, 3)
        .tuning(tuning)
        .build_stor();
    // 8 direct-sized writes: 16 KiB = 4 segments each, one batch apiece.
    let mut t = Nanos::from_micros(50);
    for i in 0..8u64 {
        sys.submit_at(
            t,
            IoOp {
                tag: i,
                kind: IoKind::Write {
                    sector: i * 64,
                    data: vec![0xab; 16 * 1024],
                },
            },
        );
        t += Nanos::from_micros(200);
    }
    sys.run_to_quiescence();
    let st = sys.blkback_stats();
    assert_eq!(st.requests, 8);
    assert_eq!(st.copy.batches, 8, "one hypercall per direct request");
    assert_eq!(st.copy.ops, 32);
    // One 128 KiB write: 32 segments via one indirect descriptor page —
    // one batch for the descriptor, one for the data.
    sys.submit_at(
        sys.now() + Nanos::from_micros(10),
        IoOp {
            tag: 100,
            kind: IoKind::Write {
                sector: 4096,
                data: vec![0xcd; 128 * 1024],
            },
        },
    );
    sys.run_to_quiescence();
    let st = sys.blkback_stats();
    assert_eq!(st.requests, 9);
    assert_eq!(st.copy.batches, 10, "descriptor batch + data batch");
    assert_eq!(st.copy.ops, 32 + 33);
    assert_eq!(st.errors, 0);
}

// ---- multi-queue properties --------------------------------------------

/// Toeplitz flow steering is a pure function of the flow tuple: stable
/// across calls, insensitive to payload bytes, always in range, and
/// pinned to the published RSS verification vector so the constant key
/// (and the hash itself) can never silently change.
#[test]
fn flow_steering_is_seed_stable_and_tuple_pure() {
    use kite::net::flow;
    // The Microsoft verification vector, pushed through real frame
    // encoding: src 66.9.149.187:2794 -> dst 161.142.100.80:1766.
    let src = "66.9.149.187".parse().unwrap();
    let dst = "161.142.100.80".parse().unwrap();
    let udp = UdpDatagram::new(2794, 1766, vec![0u8; 32]);
    let ip = Ipv4Packet::new(src, dst, IpProto::Udp, udp.encode(src, dst));
    let eth = EthernetFrame::new(
        MacAddr::local(2),
        MacAddr::local(1),
        EtherType::Ipv4,
        ip.encode(),
    );
    assert_eq!(flow::flow_hash(&eth.encode()), 0x51cc_c178);

    let mut rng = Pcg::seeded(0xf10e);
    for _ in 0..64 {
        let sp = rng.range_u64(1, 65535) as u16;
        let dp = rng.range_u64(1, 65535) as u16;
        let mk = |payload: Vec<u8>| {
            let src = "10.1.2.3".parse().unwrap();
            let dst = "10.4.5.6".parse().unwrap();
            let udp = UdpDatagram::new(sp, dp, payload);
            let ip = Ipv4Packet::new(src, dst, IpProto::Udp, udp.encode(src, dst));
            EthernetFrame::new(
                MacAddr::local(1),
                MacAddr::local(2),
                EtherType::Ipv4,
                ip.encode(),
            )
            .encode()
        };
        let a = mk(random_bytes(&mut rng, 200));
        let b = mk(random_bytes(&mut rng, 900));
        assert_eq!(flow::flow_hash(&a), flow::flow_hash(&a), "stable");
        assert_eq!(
            flow::flow_hash(&a),
            flow::flow_hash(&b),
            "hash is payload-independent"
        );
        assert_eq!(flow::steer(&a, 1), 0, "single queue takes everything");
        for n in [2u32, 4, 8] {
            let q = flow::steer(&a, n);
            assert!(q < n, "steer({n}) in range");
            assert_eq!(q, flow::steer(&b, n), "same flow, same queue");
        }
    }
}

/// Per-flow ordering survives multi-queue: for every queue count, each
/// flow's messages arrive at the client in submission order (flows hash
/// to one queue, and each queue is FIFO), with nothing dropped.
#[test]
fn per_flow_order_preserved_across_queue_counts() {
    use kite::system::addrs;
    const FLOWS: u64 = 8;
    const MSGS: u64 = 12;
    for queues in [1u32, 2, 4, 8] {
        let mut sys = kite::system::SystemConfig::new(BackendOs::Kite, 42)
            .queues(queues)
            .build_net();
        let seen: Rc<RefCell<Vec<(u16, u8)>>> = Rc::new(RefCell::new(Vec::new()));
        let s2 = seen.clone();
        sys.set_client_app(Box::new(move |_, msg| {
            s2.borrow_mut().push((msg.src_port, msg.payload[0]));
            Vec::new()
        }));
        for i in 0..FLOWS * MSGS {
            let flow = i % FLOWS;
            let seq = (i / FLOWS) as u8;
            sys.send_udp_at(
                Nanos::from_micros(100 + 150 * i),
                kite::system::Side::Guest,
                addrs::CLIENT,
                9999,
                3000 + flow as u16,
                vec![seq; 400],
            );
        }
        sys.run_to_quiescence();
        let seen = seen.borrow();
        assert_eq!(
            seen.len() as u64,
            FLOWS * MSGS,
            "{queues} queues: every message arrives"
        );
        for flow in 0..FLOWS {
            let port = 3000 + flow as u16;
            let seqs: Vec<u8> = seen
                .iter()
                .filter(|(p, _)| *p == port)
                .map(|&(_, s)| s)
                .collect();
            let want: Vec<u8> = (0..MSGS as u8).collect();
            assert_eq!(seqs, want, "{queues} queues: flow {flow} in order");
        }
    }
}
