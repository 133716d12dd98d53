//! Shared reporting for benches, examples and the `repro` binary.
//!
//! Every scenario result funnels through [`MetricsSnapshot`], so the
//! text a bench prints and the machine-readable JSON `repro --json`
//! writes come from the same values and cannot drift apart.

use std::io::Write as _;

use kite_net::ether::ETH_FRAME_MAX;
use kite_sim::{Nanos, SchedulerKind};
use kite_system::{
    addrs, render_top, BackendOs, DetectionMode, IoKind, IoOp, LineRate, MonitorConfig, NetSystem,
    Reply, Side, SystemConfig,
};
use kite_trace::metrics::{render_json, validate_json};
use kite_trace::MetricsSnapshot;
use kite_xen::{CopyMode, FaultPlan};

/// Prints snapshots in the shared text rendering.
pub fn print_snapshots(snaps: &[MetricsSnapshot]) {
    for s in snaps {
        print!("{}", s.render_text());
    }
}

/// Renders snapshots as the machine-readable results JSON, validates
/// the document, and writes it to `path`. Returns the row count.
pub fn write_json(path: &str, snaps: &[MetricsSnapshot]) -> std::io::Result<usize> {
    let doc = render_json(snaps);
    let rows =
        validate_json(&doc).map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?;
    let mut f = std::fs::File::create(path)?;
    f.write_all(doc.as_bytes())?;
    Ok(rows)
}

/// Virtual grant-copy cost of one 32-op drain, batched vs one hypercall
/// per op — the mechanisms micro-measurement behind the batching win.
pub fn grant_copy_snapshot() -> MetricsSnapshot {
    use kite_xen::{CopySide, DomainKind, GrantCopyOp, Hypervisor};
    let mut hv = Hypervisor::new();
    hv.create_domain("Domain-0", DomainKind::Dom0, 1024, 4);
    let dd = hv.create_domain("dd", DomainKind::Driver, 256, 1);
    let gu = hv.create_domain("guest", DomainKind::Guest, 256, 2);
    const NOPS: usize = 32;
    const LEN: usize = ETH_FRAME_MAX;
    let mut ops = Vec::with_capacity(NOPS);
    for _ in 0..NOPS {
        let src = hv.alloc_page(gu).expect("page");
        let dst = hv.alloc_page(dd).expect("page");
        let gref = hv.grant_access(gu, dd, src, true).expect("grant");
        ops.push(GrantCopyOp {
            src: CopySide::Grant {
                granter: gu,
                gref,
                offset: 0,
            },
            dst: CopySide::Local {
                page: dst,
                offset: 0,
            },
            len: LEN,
        });
    }
    let batched = hv.grant_copy_ops(dd, &ops, CopyMode::Batched).cost;
    let single = hv.grant_copy_ops(dd, &ops, CopyMode::SingleOp).cost;
    let mut snap = MetricsSnapshot::new("mechanisms/grant_copy");
    snap.push_int("ops", "count", NOPS as u64);
    snap.push_int("op_bytes", "bytes", LEN as u64);
    snap.push_int("batched_cost", "ns", batched.as_nanos());
    snap.push_int("single_op_cost", "ns", single.as_nanos());
    snap.push_int("batched_saves", "ns", (single - batched).as_nanos());
    snap.push_int("hypercalls_saved", "count", (NOPS - 1) as u64);
    snap.push_float("bytes_per_hypercall", "bytes", (NOPS * LEN) as f64);
    snap
}

/// One full crash/restart cycle: steady UDP stream, driver domain killed
/// at 2 s, service restored through the OS boot model. Returns the
/// system after quiescence (stats, trace and metrics still attached).
pub fn recovery_cycle(os: BackendOs, seed: u64) -> NetSystem {
    recovery_cycle_with(os, seed, DetectionMode::Oracle)
}

/// [`recovery_cycle`] with an explicit failure-detection mode. Watchdog
/// runs detect the kill through the heartbeat monitor, so their
/// `detect_latency` row reports a real (positive) detection cost; oracle
/// runs report zero by construction.
pub fn recovery_cycle_with(os: BackendOs, seed: u64, mode: DetectionMode) -> NetSystem {
    let mut sys = NetSystem::new(os, seed);
    if mode == DetectionMode::Watchdog {
        sys.enable_watchdog(MonitorConfig::default());
    }
    for i in 0..120u64 {
        // 30 s of traffic at 4 msg/s: spans the kite (~7 s) outage; the
        // queued tail drains after the Linux (~75 s) reboot too.
        sys.send_udp_at(
            Nanos::from_millis(1 + 250 * i),
            Side::Guest,
            addrs::CLIENT,
            9999,
            1234,
            vec![i as u8; 1400],
        );
    }
    sys.inject_faults(FaultPlan::seeded(seed).with_kill_at(Nanos::from_secs(2)));
    sys.run_to_quiescence();
    sys
}

/// The recovery-cycle result set of an already-run system, named
/// `mechanisms/recovery_<os>` (with a `_watchdog` suffix when the run
/// detected the fault through the heartbeat monitor).
pub fn recovery_snapshot_of(sys: &NetSystem) -> MetricsSnapshot {
    let suffix = match sys.detection_mode() {
        DetectionMode::Oracle => "",
        DetectionMode::Watchdog => "_watchdog",
    };
    sys.metrics_snapshot(format!(
        "mechanisms/recovery_{}{}",
        sys.os.name().to_lowercase(),
        suffix,
    ))
}

/// Runs a recovery cycle and snapshots it.
pub fn recovery_snapshot(os: BackendOs, seed: u64) -> MetricsSnapshot {
    recovery_snapshot_of(&recovery_cycle(os, seed))
}

/// Virtual elapsed time of the blkback data-path ablation (8 MiB of
/// 128 KiB sequential writes) for map/unmap vs batched vs single-op
/// grant copies, with persistent grants off so the data path is hot.
pub fn ablation_snapshot() -> MetricsSnapshot {
    use kite_core::BlkbackTuning;
    fn run(tuning: BlkbackTuning, mode: CopyMode) -> u64 {
        let mut sys = SystemConfig::new(BackendOs::Kite, 1)
            .tuning(tuning)
            .copy_mode(mode)
            .build_stor();
        const CHUNK: usize = 128 * 1024;
        let mut t = Nanos::from_micros(100);
        for i in 0..64u64 {
            sys.submit_at(
                t,
                IoOp {
                    tag: i,
                    kind: IoKind::Write {
                        sector: i * (CHUNK / 512) as u64,
                        data: vec![0x5a; CHUNK],
                    },
                },
            );
            t += Nanos::from_micros(40);
        }
        sys.run_to_quiescence();
        sys.now().as_nanos()
    }
    let no_persistent = BlkbackTuning {
        persistent_grants: false,
        persistent_cap: 0,
        ..BlkbackTuning::default()
    };
    let map_ns = run(
        BlkbackTuning {
            grant_copy: false,
            ..no_persistent
        },
        CopyMode::Batched,
    );
    let batched_ns = run(no_persistent, CopyMode::Batched);
    let single_ns = run(no_persistent, CopyMode::SingleOp);
    let mut snap = MetricsSnapshot::new("ablation/blkback_copy_path");
    snap.push_int("map_unmap", "ns", map_ns);
    snap.push_int("copy_batched", "ns", batched_ns);
    snap.push_int("copy_single_op", "ns", single_ns);
    snap.push_int("batched_saves", "ns", single_ns.saturating_sub(batched_ns));
    snap
}

/// Runs the netback queue-scaling workload: 64 distinct UDP flows
/// (Toeplitz-steered across the queues) bursting guest->client through
/// a driver domain with one vCPU per queue. Returns the finished system.
pub fn netback_queue_cycle(queues: u32, seed: u64) -> NetSystem {
    let mut sys = SystemConfig::new(BackendOs::Kite, seed)
        .queues(queues)
        .build_net();
    for i in 0..512u64 {
        // 64 flows, distinguished by source port, 8 messages each; the
        // burst arrives faster than one vCPU drains it, so the elapsed
        // time exposes the per-queue parallelism.
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
    sys
}

/// One `mechanisms/netback_queues_<n>` ablation row: virtual elapsed
/// time and throughput of [`netback_queue_cycle`].
pub fn netback_queue_snapshot(queues: u32, seed: u64) -> MetricsSnapshot {
    let sys = netback_queue_cycle(queues, seed);
    let elapsed = sys.now();
    let stats = sys.netback_stats();
    let mut snap = MetricsSnapshot::new(format!("mechanisms/netback_queues_{queues}"));
    snap.push_int("queues", "count", queues as u64);
    snap.push_int("tx_packets", "count", stats.tx_packets);
    snap.push_int("tx_bytes", "bytes", stats.tx_bytes);
    snap.push_int("elapsed", "ns", elapsed.as_nanos());
    snap.push_float(
        "throughput_mbps",
        "mbps",
        stats.tx_bytes as f64 * 8.0 / elapsed.as_secs_f64() / 1e6,
    );
    snap.push_int("drops", "count", sys.metrics.drops);
    snap
}

/// One `mechanisms/blkback_rings_<n>` ablation row: four independent
/// sequential write streams (64 × 8 KiB each, distinct disk regions)
/// interleaved round-robin through `n` blkback rings on an `n`-vCPU
/// driver domain.
///
/// The interleave is the point. Blkfront's ring picker is round-robin,
/// so with four rings each stream lands on its own ring — its own
/// driver vCPU and its own NVMe queue pair, whose sequential cursor
/// sees a pure sequential stream (requests merge into big runs, no
/// random penalties). With one ring every stream funnels through one
/// cursor and one vCPU: every command looks random to the device and
/// the per-request backend CPU work serializes. Two rings split the
/// CPU work but still interleave two streams per cursor. Hence the
/// `rings_4 > rings_2 > rings_1` throughput staircase asserted in
/// [`queue_scaling_snapshots`].
///
/// Pacing (2 µs) keeps rings and the blkfront page pool from
/// saturating, so the round-robin stream→ring affinity never slips.
///
/// The row runs a datacenter-class low-penalty flash profile (2 µs
/// random penalty, via [`SystemConfig::nvme_profile`]) rather than the
/// default consumer-drive profile: with a multi-millisecond penalty the
/// device swamps every CPU effect and one ring looks as good as two.
pub fn blkback_ring_snapshot(rings: u32, seed: u64) -> MetricsSnapshot {
    let mut sys = SystemConfig::new(BackendOs::Kite, seed)
        .queues(rings)
        .nvme_profile(
            kite_devices::NvmeProfile::default().with_random_penalty(Nanos::from_micros(2)),
        )
        .build_stor();
    const CHUNK: usize = 8 * 1024;
    const STREAMS: u64 = 4;
    const PER_STREAM: u64 = 64;
    // Streams live 512 MiB apart: far enough that no cursor ever
    // accidentally continues across streams.
    const REGION_SECTORS: u64 = 1 << 20;
    let mut t = Nanos::from_micros(100);
    for i in 0..(STREAMS * PER_STREAM) {
        let stream = i % STREAMS;
        let idx = i / STREAMS;
        sys.submit_at(
            t,
            IoOp {
                tag: i,
                kind: IoKind::Write {
                    sector: stream * REGION_SECTORS + idx * (CHUNK / 512) as u64,
                    data: vec![0x5a; CHUNK],
                },
            },
        );
        t += Nanos::from_micros(2);
    }
    sys.run_to_quiescence();
    let elapsed = sys.now();
    let stats = sys.blkback_stats();
    let mut snap = MetricsSnapshot::new(format!("mechanisms/blkback_rings_{rings}"));
    snap.push_int("rings", "count", rings as u64);
    snap.push_int("requests", "count", stats.requests);
    snap.push_int("write_bytes", "bytes", stats.write_bytes);
    snap.push_int("elapsed", "ns", elapsed.as_nanos());
    snap.push_float(
        "throughput_mbps",
        "mbps",
        stats.write_bytes as f64 * 8.0 / elapsed.as_secs_f64() / 1e6,
    );
    snap.push_int("nvme_seq_hits", "count", sys.nvme.seq_hits());
    snap.push_int(
        "nvme_random_penalties",
        "count",
        sys.nvme.random_penalties(),
    );
    snap
}

/// Wall-clock scheduler throughput on the fleet-drain microbench:
/// 128 Ki concurrent retransmit timers; each fired timer re-arms its
/// flow, and eight acked flows get their timers cancelled and re-armed
/// — the cancel-heavy churn a fleet of protocol state machines puts on
/// the scheduler (retransmit timers are overwhelmingly cancelled, not
/// fired). Delays spread 1 µs – 1 s so the wheel exercises several
/// levels. The event *counts* are deterministic (seeded Pcg); only the
/// `events_per_sec` rate is wall-clock and varies run to run, which is
/// why `scripts/verify.sh` filters these rows from its byte-determinism
/// diff and instead asserts wheel ≥ heap.
pub fn scheduler_throughput_snapshot(kind: SchedulerKind) -> MetricsSnapshot {
    use kite_sim::{EventId, EventSched, Pcg, Scheduler};
    const FLOWS: usize = 1 << 17;
    const WARMUP: u64 = 1 << 17;
    const POPS: u64 = 1 << 18;
    const ACKS_PER_EVENT: u32 = 8;
    let mut sched: EventSched<u32> = EventSched::new(kind);
    let mut rng = Pcg::seeded(0xf1ee7);
    let mut jitter = move || Nanos::from_nanos(1_000 + rng.index(999_999_001) as u64);
    let mut pending: Vec<Option<EventId>> = vec![None; FLOWS];
    for f in 0..FLOWS as u32 {
        let at = sched.now() + jitter();
        pending[f as usize] = Some(sched.schedule_at(at, f));
    }
    let mut vic_rng = Pcg::seeded(0xaced);
    let mut cancels = 0u64;
    let mut churn = |sched: &mut EventSched<u32>, pops: u64, cancels: &mut u64| {
        for _ in 0..pops {
            let (now, flow) = sched.pop().expect("fleet timers never drain dry");
            pending[flow as usize] = None;
            let id = sched.schedule_at(now + jitter(), flow);
            pending[flow as usize] = Some(id);
            for _ in 0..ACKS_PER_EVENT {
                let victim = vic_rng.index(FLOWS) as u32;
                if let Some(vid) = pending[victim as usize].take() {
                    if sched.cancel(vid) {
                        *cancels += 1;
                    }
                }
                let vid = sched.schedule_at(now + jitter(), victim);
                pending[victim as usize] = Some(vid);
            }
        }
    };
    // Warmup lets slab, bucket and heap capacities reach steady state so
    // the timed window measures scheduling, not allocator growth.
    churn(&mut sched, WARMUP, &mut cancels);
    cancels = 0;
    let start = std::time::Instant::now();
    churn(&mut sched, POPS, &mut cancels);
    let wall = start.elapsed();
    let name = match kind {
        SchedulerKind::Heap => "heap",
        SchedulerKind::Wheel => "wheel",
    };
    let mut snap = MetricsSnapshot::new(format!("mechanisms/sim_events_per_sec_{name}"));
    snap.push_int("flows", "count", FLOWS as u64);
    snap.push_int("events", "count", POPS);
    snap.push_int("cancels", "count", cancels);
    snap.push_int("pending_after", "count", sched.len() as u64);
    snap.push_float("events_per_sec", "rate", POPS as f64 / wall.as_secs_f64());
    snap.mark_wall();
    snap
}

/// Everything `repro prof` prints and exports: the per-phase self-time
/// table and collapsed stacks from a profiled 4-queue netback drain,
/// plus the deterministic time series the run's sampler recorded.
pub struct ProfRun {
    /// Top-down per-phase self-time table (wall clock; nondeterministic).
    pub table: String,
    /// Collapsed stacks, `kite;outer;inner self_ns` per line (wall
    /// clock; nondeterministic values, deterministic paths).
    pub collapsed: String,
    /// Sampler time series as CSV (virtual time; deterministic).
    pub series_csv: String,
    /// Sampler time series as JSON (virtual time; deterministic).
    pub series_json: String,
}

/// Runs the profiled 4-queue netback drain: the
/// [`netback_queue_cycle`] workload stretched over ~16 virtual ms with
/// the profiler and the 500 µs sampler enabled. The spans cover
/// scheduler push/pop, per-kind event dispatch, netback drains,
/// grant-copy batches and trace emission, so the collapsed output shows
/// the full dispatch → drain → copy nesting.
pub fn prof_run() -> ProfRun {
    kite_prof::reset();
    let mut sys = SystemConfig::new(BackendOs::Kite, 7)
        .queues(4)
        .profiling(true)
        .sampling(Nanos::from_micros(500), 256)
        .build_net();
    for i in 0..2048u64 {
        // 64 flows × 32 bursts, one burst every 500 µs: long enough for
        // the sampler to record a real series while the four queues
        // stay busy within each burst.
        sys.send_udp_at(
            Nanos::from_micros(10 + 500 * (i / 64)),
            Side::Guest,
            addrs::CLIENT,
            9999,
            1200 + (i % 64) as u16,
            vec![i as u8; 1400],
        );
    }
    sys.run_to_quiescence();
    let report = kite_prof::report();
    kite_prof::disable();
    kite_prof::reset();
    let sampler = sys.sampler().expect("sampling was enabled");
    ProfRun {
        table: report.render_table(),
        collapsed: report.render_collapsed(),
        series_csv: sampler.to_csv(),
        series_json: sampler.to_json(),
    }
}

/// The `mechanisms/prof_netback_queues_4` rows: per-phase self time and
/// call counts from a profiled [`netback_queue_cycle`] run. Self times
/// are wall clock, so the snapshot is marked `wall` and excluded from
/// byte-determinism diffs.
pub fn prof_phase_snapshot() -> MetricsSnapshot {
    kite_prof::reset();
    kite_prof::enable();
    let _sys = netback_queue_cycle(4, 7);
    let report = kite_prof::report();
    kite_prof::disable();
    kite_prof::reset();
    let mut snap = MetricsSnapshot::new("mechanisms/prof_netback_queues_4");
    for row in &report.rows {
        snap.push_int(format!("{}_self", row.phase.name()), "ns", row.self_ns);
        snap.push_int(format!("{}_calls", row.phase.name()), "count", row.calls);
    }
    snap.mark_wall();
    snap
}

/// One echo cycle for the overhead gate: the client fires 512 messages
/// at the guest, the guest application echoes each one back. Returns
/// the wall time of the event loop only (system construction excluded).
fn echo_cycle(profiled: bool) -> std::time::Duration {
    if profiled {
        kite_prof::enable();
    } else {
        kite_prof::disable();
    }
    kite_prof::reset();
    let mut sys = SystemConfig::new(BackendOs::Kite, 7).queues(4).build_net();
    sys.set_guest_app(Box::new(|_, msg| {
        vec![Reply {
            dst_ip: msg.src_ip,
            dst_port: msg.src_port,
            src_port: msg.dst_port,
            payload: msg.payload.clone(),
            cost: Nanos::from_micros(1),
        }]
    }));
    // Enough traffic that one cycle (~15 ms wall) spans several OS
    // scheduler quanta: per-cycle noise then averages out instead of
    // landing entirely on one side of a disabled/enabled pair.
    for i in 0..4096u64 {
        sys.send_udp_at(
            Nanos::from_micros(10 + 20 * (i / 64)),
            Side::Client,
            addrs::GUEST,
            7777,
            1200 + (i % 64) as u16,
            vec![i as u8; 1400],
        );
    }
    let start = std::time::Instant::now();
    sys.run_to_quiescence();
    let wall = start.elapsed();
    kite_prof::disable();
    kite_prof::reset();
    wall
}

/// The `mechanisms/prof_overhead` row: wall time of the echo scenario
/// with the profiler disabled vs enabled. Runs back-to-back
/// disabled/enabled pairs and reports the *median* paired overhead:
/// scheduling noise on a shared VM comes in multi-millisecond bursts
/// that can swallow several iterations, and the median discards those
/// outlier pairs without the systematic low bias a min would have.
/// `scripts/verify.sh` gates `overhead_percent < 10`.
pub fn prof_overhead_snapshot() -> MetricsSnapshot {
    let _warmup = echo_cycle(false);
    let _warmup = echo_cycle(true);
    let mut disabled = u64::MAX;
    let mut enabled = u64::MAX;
    let mut ratios = Vec::new();
    for _ in 0..15 {
        let d = echo_cycle(false).as_nanos() as u64;
        let e = echo_cycle(true).as_nanos() as u64;
        disabled = disabled.min(d);
        enabled = enabled.min(e);
        ratios.push(100.0 * (e as f64 - d as f64) / d as f64);
    }
    ratios.sort_by(|a, b| a.total_cmp(b));
    // A noisy disabled half can drive a pair's ratio negative; clamp —
    // the profiler cannot have negative cost.
    let overhead = ratios[ratios.len() / 2].max(0.0);
    let mut snap = MetricsSnapshot::new("mechanisms/prof_overhead");
    snap.push_int("disabled_ns", "ns", disabled);
    snap.push_int("enabled_ns", "ns", enabled);
    snap.push_float("overhead_percent", "percent", overhead);
    snap.mark_wall();
    snap
}

/// The queue-scaling ablation rows (`netback_queues_{1,2,4,8}` and
/// `blkback_rings_{1,2,4}`). Asserts the headline scaling claim: four
/// netback queues on a 4-vCPU driver domain beat the single queue.
pub fn queue_scaling_snapshots() -> Vec<MetricsSnapshot> {
    let mut snaps: Vec<MetricsSnapshot> = [1u32, 2, 4, 8]
        .iter()
        .map(|&q| netback_queue_snapshot(q, 7))
        .collect();
    let tput = tput_of;
    assert!(
        tput(&snaps[2]) > tput(&snaps[0]),
        "4 queues must out-drain 1 queue"
    );
    let base = snaps.len();
    snaps.extend([1u32, 2, 4].iter().map(|&r| blkback_ring_snapshot(r, 7)));
    let (r1, r2, r4) = (
        tput(&snaps[base]),
        tput(&snaps[base + 1]),
        tput(&snaps[base + 2]),
    );
    assert!(
        r4 > r2 && r2 > r1,
        "blkback rings must scale monotonically: rings_1={r1:.0} rings_2={r2:.0} rings_4={r4:.0} mbps"
    );
    snaps
}

/// Runs the segmentation-offload / wire-profile ablation workload:
/// guest→client bulk streaming of 64 flows through a driver domain with
/// one vCPU per queue, on an explicit [`LineRate`] wire. `msg_len`
/// picks the regime: super-frame-sized messages expose the per-packet
/// amortization GSO buys; MTU-sized ones keep the drain CPU-bound so
/// queue scaling shows. With `bidir` every flow also carries the
/// mirror-image client→guest stream, so each queue's vCPU pays both the
/// pusher and the soft_start path — the regime where the vCPU count,
/// not the wire, sets the slope.
pub fn netback_offload_cycle(
    gso: bool,
    wire: LineRate,
    queues: u32,
    msg_len: usize,
    msgs: u64,
    bidir: bool,
    seed: u64,
) -> NetSystem {
    let mut sys = SystemConfig::new(BackendOs::Kite, seed)
        .queues(queues)
        .gso(gso)
        .wire_profile(wire)
        .build_net();
    for i in 0..msgs {
        // 64 flows distinguished by source port, bursting faster than
        // one vCPU drains.
        let t = Nanos::from_micros(10 + 20 * (i / 64));
        let flow = 1200 + (i % 64) as u16;
        sys.send_udp_at(
            t,
            Side::Guest,
            addrs::CLIENT,
            9999,
            flow,
            vec![i as u8; msg_len],
        );
        if bidir {
            sys.send_udp_at(
                t,
                Side::Client,
                addrs::GUEST,
                flow,
                9999,
                vec![i as u8; msg_len],
            );
        }
    }
    sys.run_to_quiescence();
    sys
}

/// One offload-ablation row: goodput plus the chain counters that prove
/// (or disprove) that super-frames carried the bytes.
pub fn offload_snapshot(name: impl Into<String>, sys: &NetSystem) -> MetricsSnapshot {
    let elapsed = sys.now();
    let stats = sys.netback_stats();
    let mut snap = MetricsSnapshot::new(name);
    snap.push_int("queues", "count", sys.queue_count() as u64);
    snap.push_int("gso_negotiated", "bool", u64::from(sys.gso_negotiated()));
    snap.push_int(
        "wire_gbps",
        "gbps",
        sys.wire().map_or(10, |r| r.bps() / 1_000_000_000),
    );
    snap.push_int("tx_packets", "count", stats.tx_packets);
    snap.push_int("tx_bytes", "bytes", stats.tx_bytes);
    snap.push_int("rx_bytes", "bytes", stats.rx_bytes);
    snap.push_int("gso_tx_frames", "count", stats.gso_tx_frames);
    snap.push_int("gso_tx_segs", "count", stats.gso_tx_segs);
    snap.push_int("lro_rx_frames", "count", stats.lro_rx_frames);
    snap.push_int("elapsed", "ns", elapsed.as_nanos());
    snap.push_float(
        "throughput_mbps",
        "mbps",
        stats.tx_bytes as f64 * 8.0 / elapsed.as_secs_f64() / 1e6,
    );
    snap.push_int("drops", "count", sys.metrics.drops);
    snap
}

fn tput_of(s: &MetricsSnapshot) -> f64 {
    s.metrics
        .iter()
        .find(|m| m.name == "throughput_mbps")
        .map(|m| match m.value {
            kite_trace::metrics::MetricValue::Int(v) => v as f64,
            kite_trace::metrics::MetricValue::Float(v) => v,
        })
        .unwrap_or(0.0)
}

/// The segmentation-offload and wire-profile ablation rows
/// (`netback_gso_{off,on}`, `netback_wire_{10,25,100}g`,
/// `netback_wire_25g_queues_{4,8}`). Asserts the two headline claims in
/// the report layer — `verify.sh` re-checks both from the shipped JSON:
///
/// * GSO at a single queue at least doubles goodput (per-packet costs
///   amortize over ~42-segment super-frames);
/// * 8 netback queues on the 25GbE profile clear the 10GbE ceiling,
///   and beat 4 queues while doing it.
pub fn offload_snapshots() -> Vec<MetricsSnapshot> {
    // GSO pair: one queue, 100GbE so the wire is never the limiter, and
    // super-frame-sized messages so the off-run pays per-MTU-frame cost.
    let off = offload_snapshot(
        "mechanisms/netback_gso_off",
        &netback_offload_cycle(false, LineRate::Gbe100, 1, 48 * 1024, 256, false, 7),
    );
    let on = offload_snapshot(
        "mechanisms/netback_gso_on",
        &netback_offload_cycle(true, LineRate::Gbe100, 1, 48 * 1024, 256, false, 7),
    );
    assert!(
        tput_of(&on) >= 2.0 * tput_of(&off),
        "GSO must at least double single-queue goodput: off={:.0} on={:.0} mbps",
        tput_of(&off),
        tput_of(&on),
    );
    let mut snaps = vec![off, on];

    // Wire profiles: 8 queues, offload on, bulk — goodput rises with
    // the line rate because nothing else is the bottleneck.
    for (rate, label) in [
        (LineRate::Gbe10, "10g"),
        (LineRate::Gbe25, "25g"),
        (LineRate::Gbe100, "100g"),
    ] {
        snaps.push(offload_snapshot(
            format!("mechanisms/netback_wire_{label}"),
            &netback_offload_cycle(true, rate, 8, 48 * 1024, 256, false, 7),
        ));
    }

    // 25GbE queue scaling: bidirectional MTU-sized frames with offload
    // off keep every queue vCPU busy on both the pusher and soft_start
    // paths — CPU-bound, so the vCPU count, not the wire, sets the
    // slope, and 8 queues clear what used to be the 10GbE ceiling.
    let q4 = offload_snapshot(
        "mechanisms/netback_wire_25g_queues_4",
        &netback_offload_cycle(false, LineRate::Gbe25, 4, 1400, 512, true, 7),
    );
    let q8 = offload_snapshot(
        "mechanisms/netback_wire_25g_queues_8",
        &netback_offload_cycle(false, LineRate::Gbe25, 8, 1400, 512, true, 7),
    );
    assert!(
        tput_of(&q8) > tput_of(&q4),
        "8 queues must out-drain 4 on 25GbE: q4={:.0} q8={:.0} mbps",
        tput_of(&q4),
        tput_of(&q8),
    );
    assert!(
        tput_of(&q8) > 10_000.0,
        "8 queues on 25GbE must break the 10GbE ceiling: {:.0} mbps",
        tput_of(&q8),
    );
    snaps.push(q4);
    snaps.push(q8);
    snaps
}

/// The `latency/figure7_<os>` rows: mean and p50/p99/p99.9 (ms) of the
/// three Figure 7 workloads. Everything is virtual-time derived, so
/// the rows join `repro --json`'s byte-determinism surface.
pub fn latency_snapshots() -> Vec<MetricsSnapshot> {
    [BackendOs::Kite, BackendOs::Linux]
        .iter()
        .map(|&os| {
            let r = kite_workloads::latency::figure7(os, 11);
            let mut snap =
                MetricsSnapshot::new(format!("latency/figure7_{}", os.name().to_lowercase()));
            for (wl, w) in [
                ("ping", r.ping),
                ("netperf", r.netperf),
                ("memtier", r.memtier),
            ] {
                snap.push_float(format!("{wl}_mean_ms"), "ms", w.mean_ms);
                snap.push_float(format!("{wl}_p50_ms"), "ms", w.p50_ms);
                snap.push_float(format!("{wl}_p99_ms"), "ms", w.p99_ms);
                snap.push_float(format!("{wl}_p999_ms"), "ms", w.p999_ms);
            }
            snap
        })
        .collect()
}

/// The `repro --json` result set: mechanisms + recovery (oracle and
/// watchdog detection) + queue scaling + ablation.
pub fn standard_snapshots() -> Vec<MetricsSnapshot> {
    let mut snaps = vec![
        grant_copy_snapshot(),
        recovery_snapshot(BackendOs::Kite, 11),
        recovery_snapshot(BackendOs::Linux, 11),
        recovery_snapshot_of(&recovery_cycle_with(
            BackendOs::Kite,
            11,
            DetectionMode::Watchdog,
        )),
        recovery_snapshot_of(&recovery_cycle_with(
            BackendOs::Linux,
            11,
            DetectionMode::Watchdog,
        )),
    ];
    snaps.extend(queue_scaling_snapshots());
    snaps.extend(offload_snapshots());
    snaps.extend(latency_snapshots());
    snaps.push(ablation_snapshot());
    snaps.push(scheduler_throughput_snapshot(SchedulerKind::Heap));
    snaps.push(scheduler_throughput_snapshot(SchedulerKind::Wheel));
    snaps.push(prof_phase_snapshot());
    snaps.push(prof_overhead_snapshot());
    snaps
}

/// The `repro top` report: a deterministic watchdog scenario snapshotted
/// at fixed virtual times through a driver-domain crash — healthy
/// steady state, mid-detection (the monitor is suspicious), and after
/// recovery (replacement domain up, dead incarnation still listed).
///
/// Everything is virtual-time driven, so the same build produces
/// byte-identical output on every run; `scripts/verify.sh` diffs two
/// runs to prove it.
pub fn kitetop_report() -> String {
    let mut sys = NetSystem::new(BackendOs::Kite, 11);
    sys.enable_watchdog(MonitorConfig::default());
    // Trace every echo so the P99_US column has per-domain data by the
    // first snapshot; the pings all complete before the 2 s kill.
    sys.enable_req_tracing(1);
    for i in 0..16u16 {
        sys.ping_at(Nanos::from_millis(50 * (u64::from(i) + 1)), i);
    }
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
    let mut out = String::new();
    // Probes run every 500 ms and declare failure after 3 misses: 3.2 s
    // lands mid-detection, between the second and third missed probe.
    for stop in [Nanos::from_secs(1), Nanos::from_millis(3_200)] {
        sys.run_until(stop);
        out.push_str(&render_top(&sys.top_snapshot()));
        out.push('\n');
    }
    sys.run_to_quiescence();
    out.push_str(&render_top(&sys.top_snapshot()));
    out
}

/// Virtual nanoseconds as fractional microseconds for report text.
fn lat_us(n: Nanos) -> f64 {
    n.as_nanos() as f64 / 1e3
}

/// Renders one scenario's per-stage latency table and its two worst
/// request waterfalls from the run's request tracer.
///
/// Stage durations telescope (each inter-stamp gap books to the later
/// stamp's stage), so a waterfall's `+delta` column sums exactly to the
/// request's end-to-end latency, and the per-stage histograms partition
/// the END_TO_END distribution with no gaps or double counting.
fn lat_section(name: &str, req: &kite_trace::ReqTracer) -> String {
    use std::fmt::Write as _;

    use kite_trace::{ReqRecord, Stage};
    let mut out = String::new();
    let _ = writeln!(
        out,
        "== lat: {name} — {} sampled of {} injected, {} completed ==",
        req.sampled(),
        req.seen(),
        req.completed_len(),
    );
    let _ = writeln!(
        out,
        "{:<14} {:>7} {:>10} {:>10} {:>10}",
        "STAGE", "COUNT", "P50_US", "P99_US", "P999_US"
    );
    let row = |out: &mut String, label: &str, h: &kite_sim::Histogram| {
        let qs = h.quantiles(&[0.5, 0.99, 0.999]);
        let _ = writeln!(
            out,
            "{:<14} {:>7} {:>10.3} {:>10.3} {:>10.3}",
            label,
            h.count(),
            lat_us(qs[0]),
            lat_us(qs[1]),
            lat_us(qs[2]),
        );
    };
    for &stage in &Stage::ALL {
        if let Some(h) = req.stage_hist(stage) {
            if h.count() > 0 {
                row(&mut out, stage.name(), h);
            }
        }
    }
    if let Some(h) = req.e2e_hist() {
        row(&mut out, "END_TO_END", h);
    }
    // The two slowest sampled requests, stamp by stamp. Ties break by
    // id so the pick is deterministic.
    let mut worst: Vec<&ReqRecord> = req.completed().collect();
    worst.sort_by_key(|r| (std::cmp::Reverse(r.e2e()), r.id));
    for rec in worst.iter().take(2) {
        let _ = writeln!(
            out,
            "-- waterfall: req {} e2e {:.3} us --",
            rec.id,
            lat_us(rec.e2e()),
        );
        let t0 = rec.stamps.first().map_or(Nanos::ZERO, |s| s.at);
        let mut prev = t0;
        for s in &rec.stamps {
            let q = s.qid.map_or_else(|| "-".into(), |q| q.to_string());
            let _ = writeln!(
                out,
                "  +{:>9.3} us  {:<14} dom {:<2} q {:<2} (+{:.3} us)",
                lat_us(s.at.saturating_sub(t0)),
                s.stage.name(),
                s.dom,
                q,
                lat_us(s.at.saturating_sub(prev)),
            );
            prev = s.at;
        }
    }
    out
}

/// The `repro lat` report: per-stage latency waterfalls from end-to-end
/// request tracing on the two canonical scenarios — the network echo
/// path (256 pings through a Kite driver domain) and the 4-ring
/// storage path (the `blkback_rings_4` workload). Each scenario also
/// exports its flow-annotated Chrome trace and validates it (flow
/// begin/end pairing included) before reporting. Everything is
/// virtual-time derived: two runs print identical bytes.
pub fn lat_report() -> String {
    let mut out = String::new();

    // Network echo: every 4th of 256 pings carries a ReqId.
    let mut net = SystemConfig::new(BackendOs::Kite, 11)
        .tracing(1 << 16)
        .req_tracing(4)
        .build_net();
    for i in 0..256u16 {
        net.ping_at(Nanos::from_millis(1 + 2 * u64::from(i)), i);
    }
    net.run_to_quiescence();
    out.push_str(&lat_section("net_echo", &net.hv.req));
    let doc = net.hv.export_chrome_trace();
    let events = kite_trace::chrome::validate(&doc).expect("net echo trace must validate");
    out.push_str(&format!("flow validation: OK ({events} events)\n\n"));

    // 4-ring storage: the blkback_rings_4 workload (four interleaved
    // sequential write streams on a low-penalty flash profile), every
    // 3rd I/O sampled — 3 is coprime to the 4-way ring round-robin, so
    // the samples visit every ring instead of aliasing onto one.
    let mut stor = SystemConfig::new(BackendOs::Kite, 7)
        .queues(4)
        .nvme_profile(
            kite_devices::NvmeProfile::default().with_random_penalty(Nanos::from_micros(2)),
        )
        .tracing(1 << 16)
        .req_tracing(3)
        .build_stor();
    const CHUNK: usize = 8 * 1024;
    const STREAMS: u64 = 4;
    const PER_STREAM: u64 = 64;
    const REGION_SECTORS: u64 = 1 << 20;
    let mut t = Nanos::from_micros(100);
    for i in 0..(STREAMS * PER_STREAM) {
        let stream = i % STREAMS;
        let idx = i / STREAMS;
        stor.submit_at(
            t,
            IoOp {
                tag: i,
                kind: IoKind::Write {
                    sector: stream * REGION_SECTORS + idx * (CHUNK / 512) as u64,
                    data: vec![0x5a; CHUNK],
                },
            },
        );
        t += Nanos::from_micros(2);
    }
    stor.run_to_quiescence();
    out.push_str(&lat_section("storage_rings_4", &stor.hv.req));
    let doc = stor.hv.export_chrome_trace();
    let events = kite_trace::chrome::validate(&doc).expect("storage trace must validate");
    out.push_str(&format!("flow validation: OK ({events} events)\n"));
    out
}
