//! Active health monitoring, end to end.
//!
//! The recovery tests in `tests/recovery.rs` use the oracle detector —
//! the fault injector tells the toolstack the instant a domain dies.
//! These tests flip both systems to [`DetectionMode::Watchdog`] and
//! prove the heartbeat/stall monitor *notices* failures on its own:
//! kills (heartbeats stop) and hangs (heartbeats continue but rings
//! stall) on both the net and the block path, with a detection latency
//! that is strictly positive, bounded by the probe schedule, and
//! deterministic per seed. The `kitetop` renderer rides the same
//! virtual-time guarantees, so its output must be byte-identical across
//! same-seed runs.

use std::cell::RefCell;
use std::rc::Rc;

use kite_health::{render_top, HealthState, MonitorConfig, SloConfig};
use kite_sim::Nanos;
use kite_system::{
    addrs, BackendOs, DetectionMode, IoKind, IoOp, NetSystem, Side, StorSystem, SystemConfig,
};
use kite_xen::FaultPlan;

const MSGS: u64 = 120;

/// A watchdog-mode net system with 30 s of steady guest→client UDP
/// traffic at 4 msg/s — fast enough that the tx ring always has pending
/// requests between two 500 ms probes, which the stall detector needs.
fn net_watchdog(os: BackendOs, seed: u64) -> (NetSystem, Rc<RefCell<u64>>) {
    let mut sys = NetSystem::new(os, seed);
    sys.enable_tracing(1 << 16);
    sys.enable_watchdog(MonitorConfig::default());
    let received: Rc<RefCell<u64>> = Rc::new(RefCell::new(0));
    let r2 = received.clone();
    sys.set_client_app(Box::new(move |_, _| {
        *r2.borrow_mut() += 1;
        Vec::new()
    }));
    for i in 0..MSGS {
        sys.send_udp_at(
            Nanos::from_millis(1 + 250 * i),
            Side::Guest,
            addrs::CLIENT,
            9999,
            1234,
            vec![i as u8; 1400],
        );
    }
    (sys, received)
}

/// The paper-facing guarantee: with no oracle, a killed driver domain is
/// still detected (via missed heartbeats), recovered, and no
/// acknowledged frame is lost — and the detection latency is positive
/// yet bounded by `probe_interval × (miss_threshold + 1)`.
#[test]
fn net_watchdog_detects_kill_within_bound() {
    for os in BackendOs::both() {
        let (mut sys, received) = net_watchdog(os, 42);
        let kill = Nanos::from_secs(2);
        sys.inject_faults(FaultPlan::seeded(7).with_kill_at(kill));
        sys.run_to_quiescence();
        assert!(sys.backend_alive(), "{}: backend back up", os.name());
        assert_eq!(sys.recovery.crashes, 1, "{}", os.name());
        assert_eq!(sys.recovery.hangs, 0, "{}", os.name());
        assert_eq!(sys.recovery.reconnects, 1, "{}", os.name());
        let got = *received.borrow();
        assert!(
            got >= MSGS - sys.guest_tx_dropped(),
            "{}: acked frames lost",
            os.name()
        );
        let span = sys
            .hv
            .trace
            .query()
            .span_between("kill", "detect")
            .expect("kill and detect milestones present");
        assert!(span > Nanos::ZERO, "{}: detection takes time", os.name());
        assert!(
            span <= MonitorConfig::default().detect_bound(),
            "{}: detection latency {span:?} exceeds the probe-schedule bound",
            os.name()
        );
        assert_eq!(
            sys.recovery.detect_latency(),
            Some(span),
            "{}: stats and trace must agree on the detection latency",
            os.name()
        );
    }
}

/// A hung (livelocked) driver domain keeps heartbeating, so only the
/// ring-stall heuristic can catch it: pending requests with a frozen
/// consumer watermark across consecutive probes.
#[test]
fn net_watchdog_detects_hang_via_ring_stall() {
    for os in BackendOs::both() {
        let (mut sys, received) = net_watchdog(os, 42);
        let hang = Nanos::from_secs(2);
        sys.inject_faults(FaultPlan::seeded(7).with_hang_at(hang));
        sys.run_to_quiescence();
        assert!(sys.backend_alive(), "{}: backend back up", os.name());
        assert_eq!(sys.recovery.hangs, 1, "{}", os.name());
        assert_eq!(sys.recovery.crashes, 0, "{}", os.name());
        assert_eq!(sys.recovery.reconnects, 1, "{}", os.name());
        let got = *received.borrow();
        assert!(
            got >= MSGS - sys.guest_tx_dropped(),
            "{}: acked frames lost",
            os.name()
        );
        assert!(
            sys.hv.trace.query().milestone("kill").is_none(),
            "{}: a hang is not a kill",
            os.name()
        );
        let span = sys
            .hv
            .trace
            .query()
            .span_between("hang", "detect")
            .expect("hang and detect milestones present");
        assert!(span > Nanos::ZERO, "{}", os.name());
        assert!(
            span <= MonitorConfig::default().detect_bound(),
            "{}: stall detection latency {span:?} out of bound",
            os.name()
        );
        assert_eq!(sys.recovery.detect_latency(), Some(span), "{}", os.name());
    }
}

/// Same contract on the block path: kills and hangs mid-write-stream are
/// detected by the watchdog, every submitted write still completes, and
/// nothing is left outstanding.
#[test]
fn stor_watchdog_detects_kill_and_hang() {
    for os in BackendOs::both() {
        for hang in [false, true] {
            let mut sys = StorSystem::new(os, 42);
            sys.enable_tracing(1 << 16);
            sys.enable_watchdog(MonitorConfig::default());
            const WRITES: u64 = 50;
            sys.set_handler(Box::new(|_, done| {
                assert!(done.ok, "write {} failed", done.tag);
                Vec::new()
            }));
            for i in 0..WRITES {
                sys.submit_at(
                    Nanos::from_millis(1 + 300 * i),
                    IoOp {
                        tag: i,
                        kind: IoKind::Write {
                            sector: 128 * i,
                            data: vec![(i + 1) as u8; 16 * 1024],
                        },
                    },
                );
            }
            let fault = Nanos::from_millis(2_000);
            let plan = if hang {
                FaultPlan::seeded(9).with_hang_at(fault)
            } else {
                FaultPlan::seeded(9).with_kill_at(fault)
            };
            sys.inject_faults(plan);
            sys.run_to_quiescence();
            let label = if hang { "hang" } else { "kill" };
            assert!(sys.backend_alive(), "{}/{label}", os.name());
            assert_eq!(sys.recovery.reconnects, 1, "{}/{label}", os.name());
            assert_eq!(
                (sys.recovery.crashes, sys.recovery.hangs),
                if hang { (0, 1) } else { (1, 0) },
                "{}/{label}",
                os.name()
            );
            assert_eq!(
                sys.metrics.ios,
                WRITES,
                "{}/{label}: all writes done",
                os.name()
            );
            assert_eq!(sys.outstanding(), 0, "{}/{label}", os.name());
            let span = sys
                .hv
                .trace
                .query()
                .span_between(label, "detect")
                .expect("fault and detect milestones present");
            assert!(span > Nanos::ZERO, "{}/{label}", os.name());
            assert!(
                span <= MonitorConfig::default().detect_bound(),
                "{}/{label}: detection latency {span:?} out of bound",
                os.name()
            );
            assert_eq!(
                sys.recovery.detect_latency(),
                Some(span),
                "{}/{label}",
                os.name()
            );
        }
    }
}

/// The oracle-vs-watchdog ablation contract: the oracle "detects" at the
/// kill instant (zero latency by construction), while the watchdog's
/// `detect` milestone must never coincide with the kill timestamp.
#[test]
fn oracle_detects_instantly_watchdog_never_does() {
    let run = |mode: DetectionMode| {
        let (mut sys, _received) = net_watchdog(BackendOs::Kite, 42);
        if mode == DetectionMode::Oracle {
            // `net_watchdog` enabled the watchdog; build the oracle run
            // from scratch instead so both modes share the workload.
            let fresh = NetSystem::new(BackendOs::Kite, 42);
            sys = fresh;
            sys.enable_tracing(1 << 16);
            for i in 0..MSGS {
                sys.send_udp_at(
                    Nanos::from_millis(1 + 250 * i),
                    Side::Guest,
                    addrs::CLIENT,
                    9999,
                    1234,
                    vec![i as u8; 1400],
                );
            }
        }
        sys.inject_faults(FaultPlan::seeded(7).with_kill_at(Nanos::from_secs(2)));
        sys.run_to_quiescence();
        (
            sys.hv.trace.query().span_between("kill", "detect"),
            sys.recovery.detect_latency(),
        )
    };
    let (oracle_span, oracle_lat) = run(DetectionMode::Oracle);
    assert_eq!(oracle_span, Some(Nanos::ZERO), "oracle detects for free");
    assert_eq!(oracle_lat, Some(Nanos::ZERO));
    let (wd_span, wd_lat) = run(DetectionMode::Watchdog);
    assert!(
        wd_span.unwrap() > Nanos::ZERO,
        "watchdog detect must trail the kill"
    );
    assert_eq!(wd_span, wd_lat);
}

/// Watchdog-driven recovery is part of the deterministic simulation:
/// same seed, same probes, same detection instant, same trajectory —
/// for kills and for hangs.
#[test]
fn watchdog_recovery_is_deterministic_same_seed() {
    for hang in [false, true] {
        let run = |seed: u64| {
            let (mut sys, received) = net_watchdog(BackendOs::Kite, seed);
            let fault = Nanos::from_secs(2);
            let plan = if hang {
                FaultPlan::seeded(3).with_hang_at(fault)
            } else {
                FaultPlan::seeded(3).with_kill_at(fault)
            };
            sys.inject_faults(plan);
            sys.run_to_quiescence();
            let got = *received.borrow();
            (
                sys.now().as_nanos(),
                sys.events_processed(),
                sys.recovery.detect_latency(),
                sys.recovery.downtime.as_nanos(),
                got,
            )
        };
        assert_eq!(run(555), run(555), "hang={hang}: same seed, same detection");
    }
}

/// `kitetop` renders from virtual-time state only: two same-seed runs
/// snapshotted at the same virtual instants produce byte-identical text.
#[test]
fn kitetop_output_is_byte_identical_same_seed() {
    let run = |seed: u64| {
        let (mut sys, _received) = net_watchdog(BackendOs::Kite, seed);
        sys.inject_faults(FaultPlan::seeded(11).with_kill_at(Nanos::from_secs(2)));
        let mut out = String::new();
        for stop in [Nanos::from_secs(1), Nanos::from_millis(3_200)] {
            sys.run_until(stop);
            out.push_str(&render_top(&sys.top_snapshot()));
        }
        sys.run_to_quiescence();
        out.push_str(&render_top(&sys.top_snapshot()));
        out
    };
    let a = run(909);
    let b = run(909);
    assert_eq!(a, b, "kitetop output must be byte-identical");
    // The three snapshots walk the health state machine.
    assert!(a.contains("healthy"), "steady state renders healthy");
    assert!(a.contains("suspect("), "mid-detection renders suspect(k)");
}

/// A breached latency SLO marks the backend suspect — observability
/// without triggering recovery (the backend is slow, not dead).
#[test]
fn slo_breach_marks_backend_suspect() {
    let mut sys = NetSystem::new(BackendOs::Kite, 42);
    sys.enable_tracing(1 << 16);
    sys.enable_watchdog(MonitorConfig::default());
    // Any measured RTT busts a 1 ns p99 budget.
    sys.set_slo(SloConfig {
        p99: Some(Nanos(1)),
        min_samples: 1,
        ..SloConfig::default()
    });
    for i in 0..8u64 {
        sys.ping_at(Nanos::from_millis(1 + 10 * i), i as u16);
    }
    // Past the first probe (500 ms): the monitor has seen the breach.
    sys.run_to_quiescence();
    assert_eq!(
        sys.health(),
        Some(HealthState::Suspect { missed: 0 }),
        "breached SLO must render the backend suspect"
    );
    assert!(
        sys.backend_alive(),
        "an SLO breach alone must not trigger recovery"
    );
    assert!(
        sys.hv.trace.query().kind("health").count() >= 1,
        "the suspect transition is traced"
    );
}

/// Only ONE of four netback queues wedges: the domain keeps
/// heartbeating and the other three queues keep consuming, so aggregate
/// ring progress looks healthy — per-queue stall probing is the only
/// detector that can catch it. The watchdog must still declare failure
/// within the probe-schedule bound, recover, and renegotiate all four
/// queues without losing an accepted frame.
#[test]
fn net_watchdog_detects_single_wedged_queue_via_ring_stall() {
    use kite::net::{flow, EtherType, EthernetFrame, IpProto, Ipv4Packet, MacAddr, UdpDatagram};
    let mut sys = SystemConfig::new(BackendOs::Kite, 42)
        .queues(4)
        .tracing(1 << 16)
        .watchdog(MonitorConfig::default())
        .build_net();
    let received: Rc<RefCell<u64>> = Rc::new(RefCell::new(0));
    let r2 = received.clone();
    sys.set_client_app(Box::new(move |_, _| {
        *r2.borrow_mut() += 1;
        Vec::new()
    }));
    const FLOWS: u64 = 8;
    for i in 0..MSGS {
        sys.send_udp_at(
            Nanos::from_millis(1 + 250 * i),
            Side::Guest,
            addrs::CLIENT,
            9999,
            3000 + (i % FLOWS) as u16,
            vec![i as u8; 1400],
        );
    }
    // Wedge exactly the queue flow 0 steers to, so the frozen ring is
    // guaranteed to keep receiving (and never consuming) requests.
    let udp = UdpDatagram::new(3000, 9999, vec![0u8; 8]);
    let ip = Ipv4Packet::new(
        addrs::GUEST,
        addrs::CLIENT,
        IpProto::Udp,
        udp.encode(addrs::GUEST, addrs::CLIENT),
    );
    let probe_frame = EthernetFrame::new(
        MacAddr::local(9),
        MacAddr::local(8),
        EtherType::Ipv4,
        ip.encode(),
    )
    .encode();
    let q = flow::steer(&probe_frame, 4) as usize;
    sys.wedge_queue_at(Nanos::from_secs(2), q);
    sys.run_to_quiescence();
    assert!(sys.backend_alive(), "backend back up");
    assert_eq!(sys.recovery.reconnects, 1);
    assert_eq!(sys.recovery.crashes, 0, "a wedge is not a kill");
    assert_eq!(sys.recovery.hangs, 0, "a wedge is not a full livelock");
    assert_eq!(sys.queue_count(), 4, "replacement renegotiated every queue");
    let got = *received.borrow();
    assert!(
        got >= MSGS - sys.guest_tx_dropped(),
        "{got} delivered — acked frames lost"
    );
    let span = sys
        .hv
        .trace
        .query()
        .span_between("wedge", "detect")
        .expect("wedge and detect milestones present");
    assert!(span > Nanos::ZERO, "detection takes time");
    assert!(
        span <= MonitorConfig::default().detect_bound(),
        "stall detection latency {span:?} out of bound"
    );
}
