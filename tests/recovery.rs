//! Driver-domain crash/restart recovery, end to end.
//!
//! These tests kill the driver domain mid-workload (via a seeded
//! [`FaultPlan`]), let the toolstack restart it through the OS boot
//! model, and assert the frontends reconnect and that no acknowledged
//! request is lost — the paper's core availability claim (§4.4: a
//! rumprun driver domain restarts in seconds, transparently to guests).

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

use kite_sim::Nanos;
use kite_system::{addrs, BackendOs, IoKind, IoOp, NetSystem, Side, StorSystem};
use kite_xen::FaultPlan;

/// Kill the driver domain mid-UDP-stream. Every frame the guest's send
/// path accepted (i.e. did not report as dropped) must reach the client
/// at least once — the unacknowledged tail is replayed through the
/// replacement device.
#[test]
fn net_driver_crash_mid_udp_stream_recovers_without_acked_loss() {
    let mut downtimes = Vec::new();
    for os in BackendOs::both() {
        let mut sys = NetSystem::new(os, 42);
        sys.enable_tracing(1 << 16);
        let received: Rc<RefCell<u64>> = Rc::new(RefCell::new(0));
        let r2 = received.clone();
        sys.set_client_app(Box::new(move |_, msg| {
            assert_eq!(msg.payload.len(), 1400);
            *r2.borrow_mut() += 1;
            Vec::new()
        }));
        const MSGS: u64 = 200;
        for i in 0..MSGS {
            // 100 s of steady traffic: spans the outage even for the
            // Linux driver domain's ~75 s boot.
            sys.send_udp_at(
                Nanos::from_millis(1 + 500 * i),
                Side::Guest,
                addrs::CLIENT,
                9999,
                1234,
                vec![i as u8; 1400],
            );
        }
        let kill = Nanos::from_secs(10);
        sys.inject_faults(FaultPlan::seeded(7).with_kill_at(kill));
        // The stream is underway, then the backend dies...
        sys.run_until(kill + Nanos::from_millis(1));
        assert!(
            !sys.backend_alive(),
            "{}: backend dead after kill",
            os.name()
        );
        assert_eq!(sys.recovery.crashes, 1);
        // ...and the replacement domain brings service back.
        sys.run_to_quiescence();
        assert!(sys.backend_alive(), "{}: backend back up", os.name());
        assert_eq!(sys.recovery.reconnects, 1, "{}", os.name());
        let got = *received.borrow();
        assert!(
            got >= MSGS - sys.guest_tx_dropped(),
            "{}: {} delivered of {} accepted — acked frames lost",
            os.name(),
            got,
            MSGS - sys.guest_tx_dropped()
        );
        let down = sys.recovery.downtime;
        assert!(down > Nanos::ZERO, "{}: outage has extent", os.name());
        let cfb = sys
            .recovery
            .crash_to_first_byte()
            .expect("traffic resumed after the crash");
        assert!(
            cfb >= down,
            "{}: first byte ({cfb:?}) can't precede reconnect ({down:?})",
            os.name()
        );
        // Trace-level recovery story: the milestones appear exactly once,
        // in causal order, and the outage window is silent — not a single
        // evtchn notify between the kill and the reconnect.
        assert_eq!(sys.hv.trace.dropped(), 0, "{}: ring overflow", os.name());
        let seq_of = |what: &str| {
            sys.hv
                .trace
                .query()
                .milestone(what)
                .unwrap_or_else(|| panic!("{}: milestone {what:?} missing", os.name()))
                .seq
        };
        let (m_kill, m_detect, m_reboot, m_reconnect, m_first) = (
            seq_of("kill"),
            seq_of("detect"),
            seq_of("reboot"),
            seq_of("reconnect"),
            seq_of("first_byte"),
        );
        assert!(
            m_kill < m_detect && m_detect < m_reboot && m_reboot < m_reconnect,
            "{}: recovery milestones out of order",
            os.name()
        );
        assert!(
            m_reconnect < m_first,
            "{}: first byte before reconnect",
            os.name()
        );
        assert_eq!(
            sys.hv
                .trace
                .query()
                .seq_between(m_kill, m_reconnect)
                .kind("notify")
                .count(),
            0,
            "{}: notifies during the outage",
            os.name()
        );
        let span = sys
            .hv
            .trace
            .query()
            .span_between("kill", "first_byte")
            .expect("span");
        assert_eq!(
            span,
            cfb,
            "{}: trace span must equal the stats cfb",
            os.name()
        );
        downtimes.push((os, down));
    }
    // Paper Fig 10: the unikernel driver domain recovers much faster.
    assert!(
        downtimes[1].1 < downtimes[0].1,
        "kite downtime {:?} < linux downtime {:?}",
        downtimes[1].1,
        downtimes[0].1
    );
}

/// Kill the driver domain mid-write-stream. Every write whose completion
/// the workload saw (`done.ok`) — and every write still queued or in
/// flight at the crash — must land on the disk: reads through the
/// replacement backend verify the bytes.
#[test]
fn stor_driver_crash_mid_write_stream_loses_no_acked_io() {
    for os in BackendOs::both() {
        let mut sys = StorSystem::new(os, 42);
        const WRITES: u64 = 50;
        const LEN: usize = 16 * 1024;
        let payload = |i: u64| vec![(i + 1) as u8; LEN];
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
                        data: payload(i),
                    },
                },
            );
        }
        // Kill 1 ms after write #6 submits: its ~2.8 ms device service
        // time guarantees the crash catches it in flight.
        let kill = Nanos::from_millis(1 + 300 * 6 + 1);
        sys.inject_faults(FaultPlan::seeded(9).with_kill_at(kill));
        sys.run_to_quiescence();
        assert!(sys.backend_alive(), "{}: backend back up", os.name());
        assert_eq!(sys.recovery.crashes, 1, "{}", os.name());
        assert_eq!(sys.recovery.reconnects, 1, "{}", os.name());
        assert!(
            sys.recovery.retried_ops > 0,
            "{}: the crash caught requests in flight",
            os.name()
        );
        assert_eq!(
            sys.metrics.ios,
            WRITES,
            "{}: every write completed",
            os.name()
        );
        assert_eq!(sys.outstanding(), 0, "{}", os.name());

        // Read everything back through the replacement backend.
        let reads: Rc<RefCell<HashMap<u64, Vec<u8>>>> = Rc::new(RefCell::new(HashMap::new()));
        let r2 = reads.clone();
        sys.set_handler(Box::new(move |_, done| {
            assert!(done.ok);
            if done.tag >= 1000 {
                r2.borrow_mut()
                    .insert(done.tag - 1000, done.data.clone().expect("read data"));
            }
            Vec::new()
        }));
        for i in 0..WRITES {
            sys.submit_at(
                sys.now() + Nanos::from_millis(1 + i),
                IoOp {
                    tag: 1000 + i,
                    kind: IoKind::Read {
                        sector: 128 * i,
                        len: LEN,
                    },
                },
            );
        }
        sys.run_to_quiescence();
        let reads = reads.borrow();
        for i in 0..WRITES {
            assert_eq!(
                reads.get(&i).map(Vec::as_slice),
                Some(payload(i).as_slice()),
                "{}: write {i} survived the crash",
                os.name()
            );
        }
    }
}

/// The crash/restart trajectory is part of the deterministic simulation:
/// the same seed replays the same recovery, byte for byte.
#[test]
fn recovery_is_deterministic_same_seed() {
    let run = |seed: u64| {
        let mut sys = NetSystem::new(BackendOs::Kite, seed);
        let received: Rc<RefCell<u64>> = Rc::new(RefCell::new(0));
        let r2 = received.clone();
        sys.set_client_app(Box::new(move |_, _| {
            *r2.borrow_mut() += 1;
            Vec::new()
        }));
        for i in 0..100u64 {
            sys.send_udp_at(
                Nanos::from_millis(1 + 200 * i),
                Side::Guest,
                addrs::CLIENT,
                9999,
                1234,
                vec![i as u8; 600],
            );
        }
        sys.inject_faults(FaultPlan::seeded(3).with_kill_at(Nanos::from_secs(5)));
        sys.run_to_quiescence();
        let got = *received.borrow();
        (
            sys.now().as_nanos(),
            sys.events_processed(),
            sys.recovery.downtime.as_nanos(),
            got,
        )
    };
    assert_eq!(run(555), run(555), "same seed, same recovery trajectory");
}

/// Two same-seed traced runs must export byte-identical Chrome-trace
/// JSON and byte-identical metrics JSON — virtual timestamps only, no
/// wall clock anywhere in the pipeline.
#[test]
fn trace_export_is_byte_identical_across_same_seed_runs() {
    let run = |seed: u64| {
        let mut sys = NetSystem::new(BackendOs::Kite, seed);
        sys.enable_tracing(1 << 16);
        for i in 0..50u64 {
            sys.send_udp_at(
                Nanos::from_millis(1 + 200 * i),
                Side::Guest,
                addrs::CLIENT,
                9999,
                1234,
                vec![i as u8; 600],
            );
        }
        sys.inject_faults(FaultPlan::seeded(3).with_kill_at(Nanos::from_secs(2)));
        sys.run_to_quiescence();
        assert_eq!(sys.hv.trace.dropped(), 0);
        let chrome = sys.hv.export_chrome_trace();
        let metrics = kite_trace::metrics::render_json(&[sys.metrics_snapshot("det")]);
        (chrome, metrics)
    };
    let (c1, m1) = run(909);
    let (c2, m2) = run(909);
    assert_eq!(c1, c2, "chrome export must be byte-identical");
    assert_eq!(m1, m2, "metrics export must be byte-identical");
    kite_trace::chrome::validate(&c1).expect("export validates");
}

/// Kill or hang a 4-queue driver domain mid-workload: the replacement
/// comes back with all four queues negotiated and connected, every
/// accepted frame still reaches the client at least once, and the
/// per-flow streams stay in order through the replay.
#[test]
fn multi_queue_driver_recovers_all_queues_without_acked_loss() {
    for hang in [false, true] {
        let mut sys = kite_system::SystemConfig::new(BackendOs::Kite, 42)
            .queues(4)
            .build_net();
        assert_eq!(sys.queue_count(), 4, "all queues negotiated at boot");
        let seen: Rc<RefCell<Vec<(u16, u8)>>> = Rc::new(RefCell::new(Vec::new()));
        let s2 = seen.clone();
        sys.set_client_app(Box::new(move |_, msg| {
            s2.borrow_mut().push((msg.src_port, msg.payload[0]));
            Vec::new()
        }));
        const FLOWS: u64 = 8;
        const MSGS: u64 = 96;
        for i in 0..MSGS {
            // ~24 s of traffic over 8 flows: spans the kite (~7 s) outage.
            sys.send_udp_at(
                Nanos::from_millis(1 + 250 * i),
                Side::Guest,
                addrs::CLIENT,
                9999,
                3000 + (i % FLOWS) as u16,
                vec![(i / FLOWS) as u8; 1000],
            );
        }
        let plan = FaultPlan::seeded(7);
        let at = Nanos::from_secs(2);
        sys.inject_faults(if hang {
            plan.with_hang_at(at)
        } else {
            plan.with_kill_at(at)
        });
        sys.run_to_quiescence();
        assert!(sys.backend_alive(), "hang={hang}: backend back up");
        assert_eq!(sys.recovery.reconnects, 1, "hang={hang}");
        assert_eq!(
            sys.queue_count(),
            4,
            "hang={hang}: replacement renegotiated every queue"
        );
        let seen = seen.borrow();
        assert!(
            seen.len() as u64 >= MSGS - sys.guest_tx_dropped(),
            "hang={hang}: {} delivered of {} accepted — acked frames lost",
            seen.len(),
            MSGS - sys.guest_tx_dropped()
        );
        // Replay may duplicate but never reorders within a flow.
        for flow in 0..FLOWS {
            let port = 3000 + flow as u16;
            let seqs: Vec<u8> = seen
                .iter()
                .filter(|(p, _)| *p == port)
                .map(|&(_, s)| s)
                .collect();
            let mut dedup = seqs.clone();
            dedup.dedup();
            let strictly_sorted = dedup.windows(2).all(|w| w[0] < w[1]);
            assert!(
                strictly_sorted,
                "hang={hang}: flow {flow} reordered: {seqs:?}"
            );
        }
    }
}
