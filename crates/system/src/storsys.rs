//! The full storage-domain scenario: guest application ⇄ blkfront ⇄
//! Kite/Linux driver domain (blkback) ⇄ NVMe device.
//!
//! Workloads submit logical I/Os (any size); the system splits them into
//! ring requests bounded by the negotiated features (44 KiB direct or
//! 128 KiB with 32 indirect segments), applies ring backpressure, and
//! reports completions to a workload-installed handler that can keep each
//! simulated worker thread's loop going (closed-loop benchmarks).

use std::collections::{BTreeSet, HashMap, VecDeque};

use kite_core::{BackendDevice, BlkbackConfig, BlkbackInstance, BlkbackStats, BlockApp};
use kite_devices::{Device, NvmeController};
use kite_frontends::Blkfront;
use kite_health::TopRow;
use kite_sim::{Nanos, Pcg};
use kite_trace::{EventKind, MetricsSnapshot, SampleKind, TimeSeriesSampler};
use kite_xen::{PciClass, PciDevice, ReqId, ReqStage, SlotClass};

use crate::config::SystemConfig;
use crate::harness::{DataPath, DriverDomain};
use crate::netsys::BackendOs;

/// A logical I/O a workload submits.
#[derive(Clone, Debug)]
pub enum IoKind {
    /// Read `len` bytes at `sector`.
    Read {
        /// Starting 512-byte sector.
        sector: u64,
        /// Length in bytes (multiple of 512).
        len: usize,
    },
    /// Write bytes at `sector`.
    Write {
        /// Starting 512-byte sector.
        sector: u64,
        /// The data (length a multiple of 512).
        data: Vec<u8>,
    },
    /// Flush the disk cache.
    Flush,
}

/// A workload I/O with its tag.
#[derive(Clone, Debug)]
pub struct IoOp {
    /// Workload-chosen tag returned at completion.
    pub tag: u64,
    /// The operation.
    pub kind: IoKind,
}

/// A completed logical I/O.
#[derive(Debug)]
pub struct IoDone {
    /// The workload tag.
    pub tag: u64,
    /// All chunks succeeded.
    pub ok: bool,
    /// Assembled data for reads.
    pub data: Option<Vec<u8>>,
    /// When the logical I/O was submitted.
    pub submitted: Nanos,
}

/// Completion handler: observes a finished I/O, returns follow-up ops
/// (the closed-loop worker pattern).
pub type IoHandler = Box<dyn FnMut(Nanos, &IoDone) -> Vec<IoOp>>;

/// Events only the storage data path schedules.
pub enum StorEvent {
    // `epoch` guards against completions of a crashed backend incarnation
    // hitting a replacement that happens to reuse the same request id.
    /// Error response for a request that failed validation and never
    /// reached the device.
    BlkError {
        /// Ring request id.
        req_id: u64,
        /// Ring the request arrived on.
        ring: usize,
        /// Backend incarnation that produced the response.
        epoch: u64,
    },
    /// NVMe completion interrupt: a CQ entry on `ring`'s queue pair came
    /// due; the reap runs on the vCPU its MSI-X vector is steered to.
    NvmeCq {
        /// Ring whose queue pair completed.
        ring: usize,
        /// Backend incarnation that submitted the command.
        epoch: u64,
    },
    /// A logical I/O submission.
    Submit(IoOp),
}

#[derive(Debug)]
enum ChunkKind {
    Read { sector: u64, len: usize },
    Write { sector: u64, data: Vec<u8> },
    Flush,
}

#[derive(Debug)]
struct Chunk {
    tag: u64,
    order: usize,
    kind: ChunkKind,
}

struct TagState {
    remaining: usize,
    ok: bool,
    chunks: Vec<(usize, Vec<u8>)>, // (order, data) for reads
    want_data: bool,
    submitted: Nanos,
    /// Request-tracing sample following this logical I/O, when tagged.
    req: Option<ReqId>,
}

/// Storage metrics.
#[derive(Default)]
pub struct StorMetrics {
    /// Logical I/Os completed.
    pub ios: u64,
    /// Bytes read (logical).
    pub read_bytes: u64,
    /// Bytes written (logical).
    pub write_bytes: u64,
    /// Latency stats over logical I/Os.
    pub latency: kite_sim::OnlineStats,
}

/// The storage data path: guest application ⇄ blkfront ⇄ blkback ⇄ NVMe.
pub struct StorPath {
    /// The NVMe device (sparse real contents).
    pub nvme: NvmeController,
    /// Backend incarnation; bumped whenever one is abandoned.
    bb_epoch: u64,
    blkfront: Option<Blkfront>,
    // Negotiated per-request ceiling, kept so logical ops submitted
    // during an outage still chunk correctly.
    max_req_bytes: usize,
    /// The storage domain's status application (restarted with the
    /// domain; `None` only before the first bring-up).
    pub blockapp: Option<BlockApp>,
    // req_id -> in-flight chunk (kept whole so a crash can replay it)
    req_map: HashMap<u64, Chunk>,
    tags: HashMap<u64, TagState>,
    pendq: VecDeque<Chunk>,
    handler: Option<IoHandler>,
    /// Measurement taps.
    pub metrics: StorMetrics,
}

/// The storage scenario system: a [`DriverDomain`] running blkback.
pub type StorSystem = DriverDomain<StorPath>;

impl StorSystem {
    /// Builds the scenario: a 500 GB-class NVMe passed through to the
    /// driver domain, blkfront in the guest, handshake to `Connected`.
    /// Shorthand for `SystemConfig::new(os, seed).build_stor()`.
    pub fn new(os: BackendOs, seed: u64) -> StorSystem {
        SystemConfig::new(os, seed).build_stor()
    }

    /// Builds the scenario from a [`SystemConfig`]: blkback rings on a
    /// driver domain with one vCPU per ring (multi-queue ablations).
    pub(crate) fn from_config(cfg: &SystemConfig) -> StorSystem {
        let mut profile = cfg.os.profile();
        // Seed-derived run-to-run noise (see NetSystem::from_config).
        let mut jrng = Pcg::new(cfg.seed, 0x6a69747465725f32);
        profile.per_block_request = jrng.jitter(profile.per_block_request, 0.004);
        profile.idle_wake_cap = jrng.jitter(profile.idle_wake_cap, 0.004);
        // Scaled capacity: the data plane is sparse-real; 16 GiB of
        // addressable space is ample for the scaled workloads.
        let mut nvme = match &cfg.nvme_profile {
            Some(profile) => NvmeController::with_profile(16, profile.clone()),
            None => NvmeController::new(16),
        };
        if let Some(max) = cfg.nvme_max_io_queues {
            nvme = nvme.with_max_io_queues(max as usize);
        }
        // `profile` parameterizes blkback; the data path needs no copy.
        let bb_cfg = BlkbackConfig {
            profile,
            tuning: cfg.tuning,
            device_sectors: nvme.sectors,
        };
        let dp = StorPath {
            nvme,
            bb_epoch: 0,
            blkfront: None,
            max_req_bytes: 0,
            blockapp: None,
            req_map: HashMap::new(),
            tags: HashMap::new(),
            pendq: VecDeque::new(),
            handler: None,
            metrics: StorMetrics::default(),
        };
        DriverDomain::build(cfg, dp, bb_cfg)
    }

    /// Installs the completion handler.
    pub fn set_handler(&mut self, h: IoHandler) {
        self.dp.handler = Some(h);
    }

    /// Schedules a logical I/O submission at `t`.
    pub fn submit_at(&mut self, t: Nanos, op: IoOp) {
        self.schedule(t, StorEvent::Submit(op));
    }

    /// Outstanding logical I/Os.
    pub fn outstanding(&self) -> usize {
        self.dp.tags.len()
    }

    /// Blkback statistics, summed across backend incarnations.
    pub fn blkback_stats(&self) -> BlkbackStats {
        self.backend_stats()
    }

    /// Collects the scenario's measurement taps, lifetime blkback stats
    /// and recovery accounting into one named snapshot.
    pub fn metrics_snapshot(&self, scenario: impl Into<String>) -> MetricsSnapshot {
        let mut snap = MetricsSnapshot::new(scenario);
        snap.push_int("ios", "count", self.dp.metrics.ios);
        snap.push_int("logical_read_bytes", "bytes", self.dp.metrics.read_bytes);
        snap.push_int("logical_write_bytes", "bytes", self.dp.metrics.write_bytes);
        snap.push_float("mean_latency", "ns", self.dp.metrics.latency.mean());
        self.backend_stats().append_metrics(&mut snap);
        self.recovery.append_metrics(&mut snap);
        snap
    }

    // ---- data path ----------------------------------------------------

    fn notify_backend(&mut self, done: Nanos, q: usize) {
        let Some(port) = self.dp.blkfront.as_ref().map(|f| f.port_of(q)) else {
            return;
        };
        // The channel dies with the backend domain: a notify raised
        // during an undetected-outage window is simply lost.
        let Ok((n, c)) = self.hv.evtchn_send(self.guest, port) else {
            return;
        };
        let done = self.guest_cpu_run(done, c);
        self.sched_irq(done, n);
    }

    /// Splits a logical op into ring-sized chunks.
    fn chunks_of(&self, op: &IoOp) -> Vec<Chunk> {
        let max = self.dp.max_req_bytes;
        // Lengths round up to whole sectors; written data is zero-padded.
        let (sector, len, data) = match &op.kind {
            IoKind::Read { sector, len } => (*sector, len.div_ceil(512) * 512, None),
            IoKind::Write { sector, data } => {
                let mut data = data.clone();
                data.resize(data.len().div_ceil(512) * 512, 0);
                (*sector, data.len(), Some(data))
            }
            IoKind::Flush => {
                return vec![Chunk {
                    tag: op.tag,
                    order: 0,
                    kind: ChunkKind::Flush,
                }]
            }
        };
        (0..len)
            .step_by(max)
            .enumerate()
            .map(|(order, off)| {
                let n = (len - off).min(max);
                let sector = sector + (off / 512) as u64;
                let kind = match &data {
                    Some(data) => ChunkKind::Write {
                        sector,
                        data: data[off..off + n].to_vec(),
                    },
                    None => ChunkKind::Read { sector, len: n },
                };
                Chunk {
                    tag: op.tag,
                    order,
                    kind,
                }
            })
            .collect()
    }

    /// Registers a logical op (creating its completion state) and queues
    /// its chunks; as many as fit go straight into the ring.
    fn try_submit(&mut self, now: Nanos, op: IoOp, submitted: Nanos) {
        let want_data = matches!(op.kind, IoKind::Read { .. });
        if let IoKind::Write { data, .. } = &op.kind {
            self.dp.metrics.write_bytes += data.len() as u64;
        }
        let chunks = self.chunks_of(&op);
        // Injection point for request tracing: the sampler decides here
        // whether this logical I/O is followed stage by stage. The guest
        // application issues it, so the Inject stamp books to the guest.
        self.hv.req.set_now(submitted);
        let req = self.hv.req.admit(self.guest.0);
        self.dp.tags.insert(
            op.tag,
            TagState {
                remaining: chunks.len(),
                ok: true,
                chunks: Vec::new(),
                want_data,
                submitted,
                req,
            },
        );
        for c in chunks {
            self.dp.pendq.push_back(c);
        }
        self.drain_pendq(now);
    }

    /// Pushes parked chunks into the ring while space allows. During an
    /// outage the queue just accumulates; the reconnect drains it.
    fn drain_pendq(&mut self, now: Nanos) {
        if self.dp.blkfront.is_none() {
            return;
        }
        let mut notify: BTreeSet<usize> = BTreeSet::new();
        let mut cost = Nanos::ZERO;
        while let Some(c) = self.dp.pendq.front() {
            let bf = self.dp.blkfront.as_mut().expect("checked");
            let res = match &c.kind {
                ChunkKind::Read { sector, len } => bf.submit_read(&mut self.hv, *sector, *len),
                ChunkKind::Write { sector, data } => bf.submit_write(&mut self.hv, *sector, data),
                ChunkKind::Flush => bf.submit_flush(&mut self.hv),
            };
            match res {
                Ok((id, fo)) => {
                    let c = self.dp.pendq.pop_front().expect("peeked");
                    if let Some(r) = self.dp.tags.get(&c.tag).and_then(|ts| ts.req) {
                        // First chunk's ring entry defines the submit leg;
                        // later chunks only map so the backend can find
                        // the sample (first-touch keeps one stamp).
                        self.hv.req.map(SlotClass::BlkReq, id, r);
                        let bf = self.dp.blkfront.as_ref().expect("checked");
                        let qid =
                            (bf.queue_count() > 1).then(|| bf.ring_of(id).unwrap_or(0) as u16);
                        let dom = self.guest.0;
                        self.hv.req.stamp_at(r, ReqStage::RingSubmit, dom, qid, now);
                    }
                    if fo.notify {
                        let q = self
                            .blkfront
                            .as_ref()
                            .expect("checked")
                            .ring_of(id)
                            .unwrap_or(0);
                        notify.insert(q);
                    }
                    self.dp.req_map.insert(id, c);
                    cost += fo.cost;
                }
                Err(kite_xen::XenError::RingFull) => break,
                Err(e) => panic!("unexpected submit error: {e}"),
            }
        }
        if cost > Nanos::ZERO {
            self.guest_cpu_run(now, cost);
        }
        for q in notify {
            self.notify_backend(now, q);
        }
    }

    fn run_blkback(&mut self, now: Nanos) {
        if !self.backend.is_connected() || self.hung {
            return; // driver domain down (or livelocked: thread never runs)
        }
        // Each ring's request thread is pinned to its own driver vCPU, so
        // the rings drain concurrently.
        let nrings = self.backend.device().expect("checked").queue_count();
        for q in 0..nrings {
            loop {
                let bb = self.backend.device_mut().expect("checked");
                let batch = bb
                    .request_thread_run(&mut self.hv, &mut self.dp.nvme, q, now, 32)
                    .expect("request thread");
                self.driver_cpus.run_on(q, now, batch.cost);
                for f in batch.failures {
                    self.schedule(
                        f.respond_at,
                        StorEvent::BlkError {
                            req_id: f.req_id,
                            ring: q,
                            epoch: self.dp.bb_epoch,
                        },
                    );
                }
                for (ring, fire_at) in batch.cq_irqs {
                    self.schedule(
                        fire_at,
                        StorEvent::NvmeCq {
                            ring,
                            epoch: self.dp.bb_epoch,
                        },
                    );
                }
                if !batch.more {
                    break;
                }
            }
        }
    }

    /// Charges a completion callback's cost to `vcpu` and sends the
    /// frontend notification for every ring the callback flagged.
    fn finish_blk_completion(&mut self, now: Nanos, vcpu: usize, res: kite_core::BlkComplete) {
        let mut done = self.driver_cpus.run_on(vcpu, now, res.cost);
        let mut mask = res.notify_rings;
        while mask != 0 {
            let q = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            let evtchn = self.backend.device().expect("connected").port_of(q);
            let (n, c) = self.hv.evtchn_send(self.driver, evtchn).expect("channel");
            done = self.driver_cpus.run_on(vcpu, done, c);
            self.sched_irq(done, n);
        }
    }

    /// Dispatches one storage data-path event.
    fn handle_data(&mut self, now: Nanos, ev: StorEvent) {
        match ev {
            StorEvent::Submit(op) => self.try_submit(now, op, now),
            StorEvent::BlkError {
                req_id,
                ring,
                epoch,
            } => {
                if epoch != self.dp.bb_epoch || self.hung {
                    // Response of a crashed backend incarnation, or a
                    // livelocked completion callback that never runs.
                    return;
                }
                let Some(bb) = self.backend.device_mut() else {
                    return; // the request died with the driver domain
                };
                let res = bb.complete(&mut self.hv, req_id).expect("complete");
                self.finish_blk_completion(now, ring, res);
            }
            StorEvent::NvmeCq { ring, epoch } => {
                if epoch != self.dp.bb_epoch || self.hung {
                    // A CQ entry of a crashed/reset controller incarnation,
                    // or a livelocked interrupt handler that never runs.
                    return;
                }
                let Some(bb) = self.backend.device_mut() else {
                    return; // the submission died with the driver domain
                };
                // MSI-X steering: the completion interrupt lands on the
                // vCPU the ring's queue-pair vector was created with (the
                // ring's own vCPU, unless rings share a pair).
                let vcpu = bb
                    .qid_of(ring)
                    .and_then(|qid| self.dp.nvme.vector_of(qid))
                    .map_or(ring, |v| v.vcpu);
                let res = bb
                    .reap_completions(&mut self.hv, &mut self.dp.nvme, ring, now)
                    .expect("reap");
                if res.completed == 0 {
                    return; // an earlier interrupt already reaped the entry
                }
                self.finish_blk_completion(now, vcpu, res);
            }
        }
    }

    /// Blkfront's event channel fired in the guest: reap completions,
    /// assemble finished logical I/Os and run the workload's handler.
    fn blkfront_irq(&mut self, now: Nanos) {
        if self.dp.blkfront.is_none() {
            return; // stale interrupt for a retired device
        }
        let earliest = self.guest_last_end;
        // Guest wake-from-halt before completions are seen
        // (same model as the network guest; worker latency).
        let wake = Nanos(now.saturating_sub(earliest).as_nanos() / 10).min(Nanos(170_000));
        let now = now + wake;
        let op = self
            .dp
            .blkfront
            .as_mut()
            .expect("checked")
            .on_irq(&mut self.hv)
            .expect("blkfront irq");
        self.guest_cpu_run(now, wake + op.cost);
        let completions = self
            .dp
            .blkfront
            .as_mut()
            .expect("checked")
            .take_completions();
        let mut finished: Vec<IoDone> = Vec::new();
        for c in completions {
            let Some(chunk) = self.dp.req_map.remove(&c.id) else {
                continue;
            };
            let (tag, order) = (chunk.tag, chunk.order);
            let Some(ts) = self.dp.tags.get_mut(&tag) else {
                continue;
            };
            if let Some(r) = ts.req {
                // Guest sees the completion after wake-from-halt.
                let dom = self.guest.0;
                self.hv
                    .req
                    .stamp_at(r, ReqStage::IrqDeliver, dom, None, now);
            }
            ts.ok &= c.ok;
            if let Some(d) = c.data {
                if ts.want_data {
                    ts.chunks.push((order, d));
                }
            }
            ts.remaining -= 1;
            if ts.remaining == 0 {
                let mut ts = self.dp.tags.remove(&tag).expect("present");
                ts.chunks.sort_by_key(|&(o, _)| o);
                let data = if ts.want_data && ts.ok {
                    let mut buf = Vec::new();
                    for (_, d) in ts.chunks {
                        buf.extend_from_slice(&d);
                    }
                    Some(buf)
                } else {
                    None
                };
                if let Some(r) = ts.req {
                    self.hv.req.finish_at(r, self.guest.0, now);
                }
                let lat = now - ts.submitted;
                self.dp.metrics.ios += 1;
                self.dp.metrics.latency.push_nanos(lat);
                self.latency_hist.record(lat);
                if self.recovery.record_first_byte(now) {
                    let guest = self.guest.0;
                    self.hv
                        .trace
                        .emit_with(guest, || EventKind::Milestone { what: "first_byte" });
                }
                if let Some(d) = &data {
                    self.dp.metrics.read_bytes += d.len() as u64;
                }
                finished.push(IoDone {
                    tag,
                    ok: ts.ok,
                    data,
                    submitted: ts.submitted,
                });
            }
        }
        // Ring slots freed: drain parked ops first.
        self.drain_pendq(now);
        if let Some(mut h) = self.dp.handler.take() {
            for d in &finished {
                let next = h(now, d);
                for op in next {
                    self.try_submit(now, op, now);
                }
            }
            self.dp.handler = Some(h);
        }
    }
}

impl DataPath for StorPath {
    type Backend = BlkbackInstance;
    type Event = StorEvent;
    const KITE_DOMAIN: &'static str = "blkbackend";

    fn pci_device() -> PciDevice {
        PciDevice {
            bdf: "04:00.0".parse().expect("static BDF"),
            class: PciClass::Nvme,
            name: "Samsung 970 EVO Plus 500GB".into(),
        }
    }

    fn phase(ev: &StorEvent) -> kite_prof::Phase {
        use kite_prof::Phase;
        match ev {
            StorEvent::Submit(_) => Phase::DispatchBlkSubmit,
            StorEvent::NvmeCq { .. } | StorEvent::BlkError { .. } => Phase::DispatchBlkComplete,
        }
    }

    /// The status app probes the device and publishes its geometry.
    fn start_apps(sys: &mut StorSystem) {
        let sectors = sys.dp.nvme.sectors;
        let app = BlockApp::start(&mut sys.hv, sys.driver, sectors).expect("blockapp");
        sys.dp.blockapp = Some(app);
    }

    fn connect_frontend(sys: &mut StorSystem) {
        let bf =
            Blkfront::connect_with_queues(&mut sys.hv, &sys.paths, sys.nqueues).expect("blkfront");
        sys.dp.blkfront = Some(bf);
    }

    /// Blkfront reads the negotiated request geometry.
    fn backend_connected(sys: &mut StorSystem) {
        let bf = sys.dp.blkfront.as_mut().expect("just connected");
        bf.read_features(&mut sys.hv, &sys.paths).expect("features");
        sys.dp.max_req_bytes = bf.max_request_bytes();
    }

    /// Replays the parked chunks.
    fn resume(sys: &mut StorSystem, now: Nanos) {
        sys.drain_pendq(now);
    }

    /// Retires the incarnation so its stale completions can't touch the
    /// successor.
    fn backend_lost(sys: &mut StorSystem, _bb: &BlkbackInstance) {
        sys.dp.bb_epoch += 1;
    }

    /// Function-level reset before the NVMe is re-assigned to the
    /// replacement domain: the dead incarnation's queue pairs, cursors
    /// and unreaped CQ entries vanish; media contents survive. The new
    /// blkback recreates its queues lazily on first drain. Every
    /// unacknowledged chunk is parked for replay: reads are side-effect
    /// free and writes re-execute the same sectors, so the at-least-once
    /// replay loses no acknowledged request.
    fn retire_frontend(sys: &mut StorSystem) {
        sys.dp.nvme.reset();
        sys.dp.blkfront = None;
        let mut inflight: Vec<Chunk> = sys.dp.req_map.drain().map(|(_, c)| c).collect();
        inflight.sort_by_key(|c| (c.tag, c.order));
        sys.recovery.retried_ops += inflight.len() as u64;
        for c in inflight.into_iter().rev() {
            sys.dp.pendq.push_front(c);
        }
    }

    fn handle(sys: &mut StorSystem, now: Nanos, ev: StorEvent) {
        sys.handle_data(now, ev);
    }

    fn guest_irq(sys: &mut StorSystem, now: Nanos) {
        sys.blkfront_irq(now);
    }

    fn run_backend(sys: &mut StorSystem, now: Nanos) {
        sys.run_blkback(now);
    }

    /// The unjittered OS profile's wake model.
    fn driver_wake(sys: &StorSystem, idle: Nanos) -> Nanos {
        sys.os.profile().idle_wake(idle)
    }

    /// I/O counters, queue occupancy gauges and the health gauge.
    fn sample_columns(sampler: TimeSeriesSampler, _nqueues: u32) -> TimeSeriesSampler {
        sampler
            .with_column("ios", SampleKind::Counter)
            .with_column("read_bytes", SampleKind::Counter)
            .with_column("write_bytes", SampleKind::Counter)
            .with_column("requests", SampleKind::Counter)
            .with_column("in_flight", SampleKind::Gauge)
            .with_column("pendq", SampleKind::Gauge)
            .with_column("health", SampleKind::Gauge)
    }

    fn sample_row(sys: &StorSystem, health: u64) -> Vec<u64> {
        vec![
            sys.dp.metrics.ios,
            sys.dp.metrics.read_bytes,
            sys.dp.metrics.write_bytes,
            sys.blkback_stats().requests,
            sys.dp.req_map.len() as u64,
            sys.dp.pendq.len() as u64,
            health,
        ]
    }

    fn top_load(sys: &StorSystem, row: &mut TopRow, secs: f64) {
        let stats = sys.blkback_stats();
        if secs > 0.0 {
            row.req_per_sec = stats.requests as f64 / secs;
            row.mbytes_per_sec = (stats.read_bytes + stats.write_bytes) as f64 / 1e6 / secs;
        }
        if let Some(bb) = sys.backend.device() {
            row.rx_qdepth = bb
                .queue_progress(&sys.hv)
                .into_iter()
                .map(|(_, pending)| pending)
                .collect();
        }
    }
}
