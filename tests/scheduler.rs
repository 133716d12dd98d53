//! Scheduler-backend equivalence: the timer wheel must be **byte
//! identical** to the binary-heap oracle — same seed, same backend API,
//! same Chrome trace export and same rendered metrics, across
//! representative full-system runs. Determinism is the repo's
//! foundational invariant, so swapping the hot-path data structure is
//! only admissible with this proof.

use kite::sim::{EventQueue, Nanos, Pcg, SchedulerKind, TimerWheel};
use kite::system::{addrs, BackendOs, MonitorConfig, Reply, Side, SystemConfig};
use kite::xen::FaultPlan;

/// Full observable state of a finished net run: virtual end time, event
/// count, the Chrome trace bytes and the rendered metrics JSON.
type RunDigest = (u64, u64, String, String);

fn digest_of(sys: &kite::system::NetSystem, scenario: &str) -> RunDigest {
    let snap = sys.metrics_snapshot(scenario);
    (
        sys.now().as_nanos(),
        sys.events_processed(),
        sys.hv.export_chrome_trace(),
        kite::trace::metrics::render_json(&[snap]),
    )
}

/// The quickstart echo scenario (client → guest echo server → client)
/// produces byte-identical traces and metrics on both backends.
#[test]
fn echo_run_is_byte_identical_across_backends() {
    let run = |kind: SchedulerKind| {
        let mut sys = SystemConfig::new(BackendOs::Kite, 42)
            .scheduler(kind)
            .tracing(1 << 16)
            .build_net();
        assert_eq!(sys.scheduler_kind(), kind);
        sys.set_guest_app(Box::new(|_, msg| {
            vec![Reply {
                dst_ip: msg.src_ip,
                dst_port: msg.src_port,
                src_port: msg.dst_port,
                payload: msg.payload.clone(),
                cost: Nanos::from_micros(5),
            }]
        }));
        for f in 0..16u16 {
            sys.send_udp_at(
                Nanos::from_millis(1 + u64::from(f)),
                Side::Client,
                addrs::GUEST,
                7,
                40000 + f,
                vec![f as u8; 400],
            );
        }
        sys.run_to_quiescence();
        digest_of(&sys, "sched_equiv/echo")
    };
    assert_eq!(
        run(SchedulerKind::Heap),
        run(SchedulerKind::Wheel),
        "echo run must not depend on the scheduler backend"
    );
}

/// A 4-queue netback drain burst (64 Toeplitz-steered flows) produces
/// byte-identical traces and metrics on both backends.
#[test]
fn four_queue_drain_is_byte_identical_across_backends() {
    let run = |kind: SchedulerKind| {
        let mut sys = SystemConfig::new(BackendOs::Kite, 7)
            .queues(4)
            .scheduler(kind)
            .tracing(1 << 16)
            .build_net();
        for i in 0..512u64 {
            sys.send_udp_at(
                Nanos::from_micros(10 + 20 * (i / 64)),
                Side::Guest,
                addrs::CLIENT,
                9999,
                1200 + (i % 64) as u16,
                vec![i as u8; 1400],
            );
        }
        sys.run_to_quiescence();
        digest_of(&sys, "sched_equiv/drain4q")
    };
    assert_eq!(
        run(SchedulerKind::Heap),
        run(SchedulerKind::Wheel),
        "4-queue drain must not depend on the scheduler backend"
    );
}

/// A watchdog-detected driver-domain kill and recovery — the run with
/// the most scheduling variety (heartbeats, probes, boot model, queued
/// traffic replay) — produces byte-identical traces and metrics.
#[test]
fn kill_recovery_run_is_byte_identical_across_backends() {
    let run = |kind: SchedulerKind| {
        let mut sys = SystemConfig::new(BackendOs::Kite, 11)
            .scheduler(kind)
            .tracing(1 << 18)
            .watchdog(MonitorConfig::default())
            .build_net();
        for i in 0..120u64 {
            sys.send_udp_at(
                Nanos::from_millis(1 + 250 * i),
                Side::Guest,
                addrs::CLIENT,
                9999,
                1234,
                vec![i as u8; 1400],
            );
        }
        sys.inject_faults(FaultPlan::seeded(11).with_kill_at(Nanos::from_secs(2)));
        sys.run_to_quiescence();
        digest_of(&sys, "sched_equiv/recovery")
    };
    assert_eq!(
        run(SchedulerKind::Heap),
        run(SchedulerKind::Wheel),
        "kill/recovery must not depend on the scheduler backend"
    );
}

/// Property test: a random schedule/cancel/pop workload pops the exact
/// same (time, payload) sequence from both backends, and their exact
/// `len()` accounting agrees throughout.
#[test]
fn random_ops_pop_identically_on_both_backends() {
    let mut rng = Pcg::seeded(0x5eed);
    for case in 0..50 {
        let mut heap: EventQueue<u64> = EventQueue::new();
        let mut wheel: TimerWheel<u64> = TimerWheel::new();
        let mut live: Vec<(kite::sim::EventId, kite::sim::EventId)> = Vec::new();
        let nops = 200 + rng.index(800);
        for i in 0..nops {
            match rng.index(3) {
                0 => {
                    // Delays span sub-tick to multi-level distances.
                    let delay = Nanos::from_nanos(rng.range_u64(1, 40_000_000));
                    let payload = (case * 10_000 + i) as u64;
                    let h = heap.schedule_in(delay, payload);
                    let w = wheel.schedule_in(delay, payload);
                    live.push((h, w));
                }
                1 if !live.is_empty() => {
                    let k = rng.index(live.len());
                    let (h, w) = live.swap_remove(k);
                    assert_eq!(heap.cancel(h), wheel.cancel(w), "cancel verdicts agree");
                }
                _ => {
                    // Popped ids deliberately stay in `live`: a later
                    // cancel on them must return false on BOTH backends
                    // (generation tags make stale ids inert).
                    assert_eq!(heap.pop(), wheel.pop(), "pop sequences diverged");
                }
            }
            assert_eq!(heap.len(), wheel.len(), "exact len agrees");
        }
        // Drain both to the end: the tails must agree too.
        loop {
            let (h, w) = (heap.pop(), wheel.pop());
            assert_eq!(h, w, "tail pop sequences diverged");
            if h.is_none() {
                break;
            }
        }
    }
}
