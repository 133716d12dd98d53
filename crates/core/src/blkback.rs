//! The Kite blkback driver (§3.3, §4.4 of the paper).
//!
//! One instance serves one blkfront. The paper's three storage
//! optimizations are all implemented and individually switchable (for
//! the ablation benches):
//!
//! * **request batching** — consecutive-sector segments from one or more
//!   requests merge into fewer, larger device operations;
//! * **persistent grant references** — mappings of frequently reused guest
//!   pages are cached, avoiding the map/unmap hypercalls (and their TLB
//!   shootdowns) per request;
//! * **indirect segments** — requests carrying up to 32 segments (the
//!   Linux-compatible cap) via descriptor pages, lifting the 11-segment /
//!   44 KiB direct-request limit that starves NVMe devices.
//!
//! Threading follows the paper: the event handler wakes one request
//! thread; responses are pushed asynchronously from device-completion
//! callbacks so later requests are never blocked behind earlier ones.
//!
//! The device side is submit-then-reap over NVMe queue pairs: each ring
//! lazily creates one I/O SQ/CQ pair whose completion vector is steered
//! to the ring's own vCPU, posts its whole merged batch, rings the
//! doorbell once, and later reaps CQ entries in
//! [`BlkbackInstance::reap_completions`] when the system layer delivers
//! the completion interrupt. Each queue pair keeps its own sequential
//! cursor inside the controller, so rings never poison each other's
//! sequential detection.
//!
//! When the frontend negotiated `multi-queue-num-queues = n`, the
//! instance runs `n` independent rings, each with its own event channel,
//! request thread, persistent-grant cache and bounce pool (per-ring, as
//! in Linux `xen-blkback` — caches are never shared across rings, so no
//! cross-ring locking). Responses always return on the ring the request
//! arrived on.

use std::collections::HashMap;

use kite_devices::{NvmeCmd, NvmeController, NvmeOp, QueueId};
use kite_rumprun::OsProfile;
use kite_sim::Nanos;
use kite_trace::EventKind;
use kite_xen::blkif::{
    unpack_indirect_segments, BlkifRequest, BlkifResponse, BlkifSegment, BLKIF_OP_FLUSH_DISKCACHE,
    BLKIF_OP_READ, BLKIF_OP_WRITE, BLKIF_RSP_ERROR, BLKIF_RSP_OKAY, SECTOR_SIZE,
};
use kite_xen::ring::BackRing;
use kite_xen::xenbus::{MQ_MAX_QUEUES_KEY, MQ_NUM_QUEUES_KEY};
use kite_xen::{
    CopyMode, CopySide, DevicePaths, DomainId, GrantCopyOp, GrantRef, Hypervisor, MapHandle,
    PageId, Port, ReqId, ReqStage, Result, SlotClass, XenError, XenbusState, PAGE_SIZE,
};

use crate::lifecycle::{BackendDevice, BackendStats};
use crate::netback::DEFAULT_MAX_QUEUES;
use crate::stats::CopyStats;

/// The indirect-segment cap Kite advertises (Linux-compatible, §3.3).
pub const MAX_INDIRECT_SEGMENTS: usize = 32;

/// Optimization switches (all on by default; benches ablate them).
#[derive(Clone, Copy, Debug)]
pub struct BlkbackTuning {
    /// Merge consecutive-sector segments into larger device ops.
    pub batching: bool,
    /// Cache grant mappings across requests.
    pub persistent_grants: bool,
    /// Accept indirect-segment requests.
    pub indirect_segments: bool,
    /// Persistent-grant cache capacity (mappings), per ring.
    pub persistent_cap: usize,
    /// Move segment payloads with batched `GNTTABOP_copy` instead of
    /// map/memcpy/unmap. Only effective when `persistent_grants` is off:
    /// a negotiated persistent mapping is always cheaper than a copy, so
    /// (as in real blkback) the persistent data path wins when enabled.
    pub grant_copy: bool,
}

impl Default for BlkbackTuning {
    fn default() -> Self {
        BlkbackTuning {
            batching: true,
            persistent_grants: true,
            indirect_segments: true,
            persistent_cap: 1056,
            grant_copy: true,
        }
    }
}

/// Statistics of one blkback instance (summed across its rings).
#[derive(Clone, Copy, Debug, Default)]
pub struct BlkbackStats {
    /// Requests processed.
    pub requests: u64,
    /// Device operations issued (affected by batching).
    pub device_ops: u64,
    /// Bytes read from the device for the guest.
    pub read_bytes: u64,
    /// Bytes written to the device for the guest.
    pub write_bytes: u64,
    /// Persistent-grant cache hits.
    pub persistent_hits: u64,
    /// Grant map hypercalls issued.
    pub grant_maps: u64,
    /// Malformed or out-of-range requests rejected.
    pub errors: u64,
    /// Grant-copy hypercall accounting for the segment data paths.
    pub copy: CopyStats,
}

impl BlkbackStats {
    /// Mean bytes moved per grant-copy hypercall.
    pub fn bytes_per_hypercall(&self) -> f64 {
        self.copy.bytes_per_hypercall()
    }

    /// Appends the request counters and copy accounting to a snapshot.
    pub fn append_metrics(&self, snap: &mut kite_trace::MetricsSnapshot) {
        snap.push_int("requests", "count", self.requests);
        snap.push_int("device_ops", "count", self.device_ops);
        snap.push_int("read_bytes", "bytes", self.read_bytes);
        snap.push_int("write_bytes", "bytes", self.write_bytes);
        snap.push_int("persistent_hits", "count", self.persistent_hits);
        snap.push_int("grant_maps", "count", self.grant_maps);
        snap.push_int("errors", "count", self.errors);
        self.copy.append_metrics(snap, "copy_");
    }
}

impl BackendStats for BlkbackStats {
    fn merge(&mut self, other: &BlkbackStats) {
        self.requests += other.requests;
        self.device_ops += other.device_ops;
        self.read_bytes += other.read_bytes;
        self.write_bytes += other.write_bytes;
        self.persistent_hits += other.persistent_hits;
        self.grant_maps += other.grant_maps;
        self.errors += other.errors;
        self.copy.merge(&other.copy);
    }
}

/// A request that failed validation and never reached the device; the
/// system layer schedules its error response at `respond_at`.
#[derive(Clone, Copy, Debug)]
pub struct BlkFailure {
    /// The frontend's request id.
    pub req_id: u64,
    /// When the error response becomes deliverable.
    pub respond_at: Nanos,
}

/// Result of one request-thread batch.
#[derive(Debug, Default)]
pub struct BlkBatch {
    /// Requests rejected during validation — they bypass the device and
    /// complete through [`BlkbackInstance::complete`].
    pub failures: Vec<BlkFailure>,
    /// Completion interrupts to schedule: `(ring, fire_at)` per CQ entry
    /// the doorbell posted. The system layer delivers each by calling
    /// [`BlkbackInstance::reap_completions`] on the vCPU of the queue
    /// pair's MSI-X vector.
    pub cq_irqs: Vec<(usize, Nanos)>,
    /// vCPU cost of parsing, mapping and copying.
    pub cost: Nanos,
    /// More ring requests remain after the budget.
    pub more: bool,
}

/// Result of a completion callback or CQ reap.
#[derive(Debug, Default)]
pub struct BlkComplete {
    /// Bitmask of rings whose frontend must be notified (bit `q` →
    /// notify on [`BlkbackInstance::port_of`]`(q)`). A reap normally
    /// touches only its own ring; rings sharing a queue pair (controller
    /// cap exhausted) can fan out.
    pub notify_rings: u64,
    /// Requests completed by this call.
    pub completed: u32,
    /// vCPU cost of the callback (response pushes, unmaps).
    pub cost: Nanos,
}

struct InFlight {
    op: u8,
    /// Ring the request arrived on — its response returns there.
    ring: usize,
    unmap: Vec<MapHandle>,
    status: i16,
}

struct PersistentCache {
    map: HashMap<GrantRef, (MapHandle, PageId, u64)>,
    cap: usize,
    tick: u64,
}

impl PersistentCache {
    fn new(cap: usize) -> Self {
        PersistentCache {
            map: HashMap::new(),
            cap,
            tick: 0,
        }
    }

    fn get(&mut self, gref: GrantRef) -> Option<PageId> {
        self.tick += 1;
        let tick = self.tick;
        self.map.get_mut(&gref).map(|e| {
            e.2 = tick;
            e.1
        })
    }

    /// Inserts; returns an evicted mapping handle the caller must unmap.
    fn insert(&mut self, gref: GrantRef, handle: MapHandle, page: PageId) -> Option<MapHandle> {
        self.tick += 1;
        let mut evicted = None;
        if self.map.len() >= self.cap {
            if let Some((&old, _)) = self.map.iter().min_by_key(|&(_, &(_, _, t))| t) {
                evicted = self.map.remove(&old).map(|(h, _, _)| h);
            }
        }
        self.map.insert(gref, (handle, page, self.tick));
        evicted
    }
}

/// One ring of a blkback instance: the shared ring mapped from the
/// frontend, its event channel, and the ring-private persistent-grant
/// cache and bounce pool its request thread works through.
struct BbRing {
    evtchn: Port,
    ring: BackRing<BlkifRequest, BlkifResponse>,
    ring_page: PageId,
    _ring_map: MapHandle,
    persistent: PersistentCache,
    /// Lazily grown bounce pages staging grant-copy payloads.
    bounce: Vec<PageId>,
    /// The NVMe I/O queue pair this ring submits through, created on the
    /// first drain (connect has no device access). The completion vector
    /// is steered to this ring's vCPU.
    qid: Option<QueueId>,
    /// Fault-injection: a wedged ring's request thread never runs.
    wedged: bool,
}

/// One blkback instance.
pub struct BlkbackInstance {
    /// Driver domain running this backend.
    pub back: DomainId,
    /// Guest domain of the paired frontend.
    pub front: DomainId,
    /// Device index.
    pub index: u32,
    rings: Vec<BbRing>,
    tuning: BlkbackTuning,
    in_flight: HashMap<u64, InFlight>,
    /// NVMe command id → the frontend request ids a merged run carries.
    cids: HashMap<u64, Vec<u64>>,
    profile: OsProfile,
    stats: BlkbackStats,
    device_sectors: u64,
    copy_mode: CopyMode,
    // Drain-path scratch, recycled across calls so a warmed-up request
    // thread performs no bookkeeping allocations.
    scratch_runs: Vec<Run>,
    scratch_run_reqs: Vec<u64>,
    scratch_flushes: Vec<u64>,
    spare_cid_reqs: Vec<Vec<u64>>,
    /// Traced requests consumed in the current batch — `(frontend id,
    /// req)` pairs kept so merged-run submission can hand each sample to
    /// its NVMe command id. Empty whenever request tracing is off.
    scratch_req: Vec<(u64, ReqId)>,
}

/// A mergeable device run pending submission: contiguous same-op
/// requests batched into one NVMe operation. The owning request ids
/// live in a shared scratch buffer (`scratch_run_reqs`) starting at
/// `reqs_start` — runs are built append-only, so each run's ids are a
/// contiguous slice ending where the next run's begin.
struct Run {
    sector: u64,
    bytes: usize,
    op: u8,
    reqs_start: usize,
}

impl BlkbackInstance {
    /// Connects to a frontend: advertises device properties and features
    /// in xenstore, maps every negotiated ring, binds its event channels,
    /// switches the backend state to `Connected`.
    ///
    /// The ring count is the frontend's `multi-queue-num-queues` (1 when
    /// absent — the legacy flat layout), validated against this backend's
    /// own `multi-queue-max-queues` advertisement.
    pub fn connect(
        hv: &mut Hypervisor,
        paths: &DevicePaths,
        profile: OsProfile,
        tuning: BlkbackTuning,
        device_sectors: u64,
    ) -> Result<Self> {
        let back = paths.back;
        let front = paths.front;
        let be = paths.backend();
        // Advertise properties first (§4.4 initialization order).
        hv.store.write(
            back,
            None,
            &format!("{be}/sectors"),
            &device_sectors.to_string(),
        )?;
        hv.store.write(
            back,
            None,
            &format!("{be}/sector-size"),
            &SECTOR_SIZE.to_string(),
        )?;
        hv.store
            .write(back, None, &format!("{be}/feature-flush-cache"), "1")?;
        hv.store.write(
            back,
            None,
            &format!("{be}/feature-persistent"),
            if tuning.persistent_grants { "1" } else { "0" },
        )?;
        hv.store.write(
            back,
            None,
            &format!("{be}/feature-max-indirect-segments"),
            &if tuning.indirect_segments {
                MAX_INDIRECT_SEGMENTS.to_string()
            } else {
                "0".to_string()
            },
        )?;
        let fe = paths.frontend();
        let nrings = hv
            .store
            .read(back, None, &format!("{fe}/{MQ_NUM_QUEUES_KEY}"))
            .ok()
            .and_then(|v| v.parse::<u32>().ok())
            .unwrap_or(1)
            .max(1);
        let max = hv
            .store
            .read(back, None, &format!("{be}/{MQ_MAX_QUEUES_KEY}"))
            .ok()
            .and_then(|v| v.parse::<u32>().ok())
            .unwrap_or(DEFAULT_MAX_QUEUES);
        if nrings > max {
            return Err(XenError::Inval);
        }
        let mut rings = Vec::with_capacity(nrings as usize);
        for k in 0..nrings {
            let root = paths.frontend_queue_root(nrings, k);
            let ring_ref = GrantRef(
                hv.store
                    .read(back, None, &format!("{root}/ring-ref"))?
                    .parse()
                    .map_err(|_| XenError::Inval)?,
            );
            let remote_port = Port(
                hv.store
                    .read(back, None, &format!("{root}/event-channel"))?
                    .parse()
                    .map_err(|_| XenError::Inval)?,
            );
            let (ring_map, _) = hv.map_grant(back, front, ring_ref)?;
            let (evtchn, _) = hv.evtchn_bind(back, front, remote_port)?;
            rings.push(BbRing {
                evtchn,
                ring: BackRing::attach(),
                ring_page: ring_map.page,
                _ring_map: ring_map.handle,
                persistent: PersistentCache::new(tuning.persistent_cap),
                bounce: Vec::new(),
                qid: None,
                wedged: false,
            });
        }
        hv.switch_state(back, &paths.backend_state(), XenbusState::Connected)?;
        Ok(BlkbackInstance {
            back,
            front,
            index: paths.index,
            rings,
            tuning,
            in_flight: HashMap::new(),
            cids: HashMap::new(),
            profile,
            stats: BlkbackStats::default(),
            device_sectors,
            copy_mode: CopyMode::Batched,
            scratch_runs: Vec::new(),
            scratch_run_reqs: Vec::new(),
            scratch_flushes: Vec::new(),
            spare_cid_reqs: Vec::new(),
            scratch_req: Vec::new(),
        })
    }

    /// The NVMe queue pair ring `q` submits through, once its first
    /// drain has created it.
    pub fn qid_of(&self, q: usize) -> Option<QueueId> {
        self.rings[q].qid
    }

    /// Ensures ring `q` has an I/O queue pair, creating one with its
    /// completion vector steered to vCPU `q` (one ring ↔ one vCPU in the
    /// driver domain's `CpuPool`). If the controller's queue cap is
    /// already exhausted, the ring shares an existing pair round-robin —
    /// the same degradation blk-mq applies when a device offers fewer
    /// hardware queues than there are contexts.
    fn ensure_queue(&mut self, device: &mut NvmeController, q: usize) -> QueueId {
        if let Some(qid) = self.rings[q].qid {
            return qid;
        }
        let qid = device.create_io_queues(q).unwrap_or_else(|| {
            let shared: Vec<QueueId> = self.rings.iter().filter_map(|r| r.qid).collect();
            assert!(
                !shared.is_empty(),
                "NVMe controller has no I/O queue pair available for blkback"
            );
            shared[q % shared.len()]
        });
        self.rings[q].qid = Some(qid);
        qid
    }

    /// How grant copies are issued (batched vs. one hypercall per op).
    pub fn copy_mode(&self) -> CopyMode {
        self.copy_mode
    }

    /// Whether the grant-copy data path is active (copies are only used
    /// when persistent grants are not negotiated).
    fn use_copy(&self) -> bool {
        self.tuning.grant_copy && !self.tuning.persistent_grants
    }

    fn ensure_bounce(&mut self, hv: &mut Hypervisor, q: usize, n: usize) -> Result<()> {
        while self.rings[q].bounce.len() < n {
            let page = hv.alloc_page(self.back)?;
            self.rings[q].bounce.push(page);
        }
        Ok(())
    }

    /// The trace label for ring-drain events (`None` keeps single-ring
    /// exports byte-identical to the legacy layout).
    fn qid(&self, q: usize) -> Option<u16> {
        if self.rings.len() > 1 {
            Some(q as u16)
        } else {
            None
        }
    }

    /// Resolves a guest data page through ring `q`'s cache: persistent
    /// hit or a fresh map.
    ///
    /// Returns the page plus the handle to unmap at completion when the
    /// mapping is *not* persistent.
    fn resolve_page(
        &mut self,
        hv: &mut Hypervisor,
        q: usize,
        gref: GrantRef,
        cost: &mut Nanos,
    ) -> Result<(PageId, Option<MapHandle>)> {
        if self.tuning.persistent_grants {
            if let Some(page) = self.rings[q].persistent.get(gref) {
                self.stats.persistent_hits += 1;
                return Ok((page, None));
            }
        }
        let (mapping, c) = hv.map_grant(self.back, self.front, gref)?;
        self.stats.grant_maps += 1;
        *cost += c;
        if self.tuning.persistent_grants {
            if let Some(evicted) =
                self.rings[q]
                    .persistent
                    .insert(gref, mapping.handle, mapping.page)
            {
                *cost += hv.unmap_grant(self.back, evicted)?;
            }
            Ok((mapping.page, None))
        } else {
            Ok((mapping.page, Some(mapping.handle)))
        }
    }

    /// Extracts the effective segment list of a request, mapping indirect
    /// descriptor pages as needed.
    fn segments_of(
        &mut self,
        hv: &mut Hypervisor,
        q: usize,
        req: &BlkifRequest,
        cost: &mut Nanos,
    ) -> Result<Vec<BlkifSegment>> {
        match req {
            BlkifRequest::Direct { segments, .. } => Ok(segments.clone()),
            BlkifRequest::Indirect {
                nr_segments,
                indirect_grefs,
                ..
            } => {
                if !self.tuning.indirect_segments {
                    return Err(XenError::Inval);
                }
                let n = *nr_segments as usize;
                if n > MAX_INDIRECT_SEGMENTS {
                    return Err(XenError::Inval);
                }
                if self.use_copy() {
                    // Pull all descriptor pages with one batched copy
                    // instead of a map/unmap pair per page.
                    let per_frame = kite_xen::blkif::SEGS_PER_INDIRECT_FRAME;
                    let frames = n.div_ceil(per_frame).min(indirect_grefs.len());
                    self.ensure_bounce(hv, q, frames)?;
                    let ops: Vec<GrantCopyOp> = indirect_grefs[..frames]
                        .iter()
                        .enumerate()
                        .map(|(i, gref)| GrantCopyOp {
                            src: CopySide::Grant {
                                granter: self.front,
                                gref: *gref,
                                offset: 0,
                            },
                            dst: CopySide::Local {
                                page: self.rings[q].bounce[i],
                                offset: 0,
                            },
                            len: PAGE_SIZE,
                        })
                        .collect();
                    let result = hv.grant_copy_ops(self.back, &ops, self.copy_mode);
                    self.stats.copy.record(self.copy_mode, ops.len(), &result);
                    *cost += result.cost;
                    if !result.all_ok() {
                        return Err(XenError::BadGrant);
                    }
                    let mut segs = Vec::with_capacity(n);
                    let mut remaining = n;
                    for i in 0..frames {
                        let take = remaining.min(per_frame);
                        let bytes = hv.mem.page(self.rings[q].bounce[i])?;
                        segs.extend(unpack_indirect_segments(bytes, take));
                        remaining -= take;
                    }
                    return Ok(segs);
                }
                let mut segs = Vec::with_capacity(n);
                let mut remaining = n;
                for gref in indirect_grefs {
                    if remaining == 0 {
                        break;
                    }
                    let (page, unmap) = self.resolve_page(hv, q, *gref, cost)?;
                    let take = remaining.min(kite_xen::blkif::SEGS_PER_INDIRECT_FRAME);
                    let bytes = hv.mem.page(page)?;
                    segs.extend(unpack_indirect_segments(bytes, take));
                    remaining -= take;
                    if let Some(h) = unmap {
                        *cost += hv.unmap_grant(self.back, h)?;
                    }
                }
                Ok(segs)
            }
        }
    }

    /// The request thread body for ring `q`: drains up to `budget` ring
    /// requests, validates them, moves data and submits device
    /// operations.
    pub fn request_thread_run(
        &mut self,
        hv: &mut Hypervisor,
        device: &mut NvmeController,
        q: usize,
        now: Nanos,
        budget: usize,
    ) -> Result<BlkBatch> {
        let _prof = kite_prof::span(kite_prof::Phase::BlkbackSubmit);
        let mut batch = BlkBatch::default();
        if self.rings[q].wedged {
            return Ok(batch);
        }
        let mut runs = std::mem::take(&mut self.scratch_runs);
        let mut run_reqs = std::mem::take(&mut self.scratch_run_reqs);
        let mut flushes = std::mem::take(&mut self.scratch_flushes);

        for _ in 0..budget {
            let req = {
                let rq = &mut self.rings[q];
                let page = hv.mem.page(rq.ring_page)?;
                match rq.ring.consume_request(page)? {
                    Some(r) => r,
                    None => break,
                }
            };
            batch.cost += self.profile.per_block_request;
            self.stats.requests += 1;
            let id = req.id();
            let op = req.io_op();
            if let Some(r) = hv.req.take(SlotClass::BlkReq, id) {
                hv.req.stamp_at(
                    r,
                    ReqStage::BackendFetch,
                    self.back.0,
                    self.qid(q),
                    now + batch.cost,
                );
                self.scratch_req.push((id, r));
            }
            if op == BLKIF_OP_FLUSH_DISKCACHE {
                self.in_flight.insert(
                    id,
                    InFlight {
                        op,
                        ring: q,
                        unmap: Vec::new(),
                        status: BLKIF_RSP_OKAY,
                    },
                );
                flushes.push(id);
                continue;
            }
            if op != BLKIF_OP_READ && op != BLKIF_OP_WRITE {
                self.fail_request(id, op, q);
                batch.failures.push(BlkFailure {
                    req_id: id,
                    respond_at: now + batch.cost,
                });
                continue;
            }
            let segs = match self.segments_of(hv, q, &req, &mut batch.cost) {
                Ok(s) => s,
                Err(_) => {
                    self.fail_request(id, op, q);
                    batch.failures.push(BlkFailure {
                        req_id: id,
                        respond_at: now + batch.cost,
                    });
                    continue;
                }
            };
            let total_sectors: u64 = segs.iter().map(|s| s.sectors()).sum();
            if segs.iter().any(|s| s.is_empty() || s.last_sect > 7)
                || req.sector() + total_sectors > self.device_sectors
            {
                self.fail_request(id, op, q);
                batch.failures.push(BlkFailure {
                    req_id: id,
                    respond_at: now + batch.cost,
                });
                continue;
            }
            // Move data between guest pages and the (real) device bytes:
            // one batched grant copy per request's segment list, or the
            // legacy per-segment map/memcpy/unmap path.
            let mut unmap = Vec::new();
            let ok = if self.use_copy() {
                self.copy_request_data(hv, device, q, &segs, req.sector(), op, &mut batch.cost)?
            } else {
                self.map_request_data(
                    hv,
                    device,
                    q,
                    &segs,
                    req.sector(),
                    op,
                    &mut batch.cost,
                    &mut unmap,
                )?
            };
            if !ok {
                self.fail_request(id, op, q);
                batch.failures.push(BlkFailure {
                    req_id: id,
                    respond_at: now + batch.cost,
                });
                continue;
            }
            if self.use_copy() {
                if let Some(&(sid, r)) = self.scratch_req.last() {
                    if sid == id {
                        hv.req.stamp_at(
                            r,
                            ReqStage::GrantCopy,
                            self.back.0,
                            self.qid(q),
                            now + batch.cost,
                        );
                    }
                }
            }
            self.in_flight.insert(
                id,
                InFlight {
                    op,
                    ring: q,
                    unmap,
                    status: BLKIF_RSP_OKAY,
                },
            );
            // Merge into device runs (batching): a request whose start
            // sector continues the previous run of the same op joins it.
            let bytes = total_sectors as usize * SECTOR_SIZE;
            let start = req.sector();
            match runs.last_mut() {
                Some(r)
                    if self.tuning.batching
                        && r.op == op
                        && r.sector + (r.bytes / SECTOR_SIZE) as u64 == start =>
                {
                    r.bytes += bytes;
                }
                _ => runs.push(Run {
                    sector: start,
                    bytes,
                    op,
                    reqs_start: run_reqs.len(),
                }),
            }
            run_reqs.push(id);
        }

        // Post merged runs to this ring's NVMe queue pair, then ring the
        // doorbell once for the whole batch. The doorbell returns the CQ
        // entries it posted; the system layer turns them into completion
        // interrupts on the queue's MSI-X vCPU (submit-then-reap).
        let submit_at = now + batch.cost;
        if !runs.is_empty() || !flushes.is_empty() {
            let qid = self.ensure_queue(device, q);
            for (k, r) in runs.iter().enumerate() {
                let kind = if r.op == BLKIF_OP_READ {
                    NvmeOp::Read
                } else {
                    NvmeOp::Write
                };
                let cid = device.sq_push(
                    qid,
                    NvmeCmd {
                        op: kind,
                        sector: r.sector,
                        len_bytes: r.bytes,
                    },
                );
                self.stats.device_ops += 1;
                let reqs_end = runs.get(k + 1).map_or(run_reqs.len(), |n| n.reqs_start);
                let merged = &run_reqs[r.reqs_start..reqs_end];
                if let Some(&(_, tr)) = self.scratch_req.iter().find(|(id, _)| merged.contains(id))
                {
                    hv.req.map(SlotClass::NvmeCid, cid.0, tr);
                }
                let mut ids = self.spare_cid_reqs.pop().unwrap_or_default();
                ids.extend_from_slice(merged);
                self.cids.insert(cid.0, ids);
            }
            for &id in &flushes {
                let cid = device.sq_push(qid, NvmeCmd::flush());
                self.stats.device_ops += 1;
                if let Some(&(_, tr)) = self.scratch_req.iter().find(|(fid, _)| *fid == id) {
                    hv.req.map(SlotClass::NvmeCid, cid.0, tr);
                }
                let mut ids = self.spare_cid_reqs.pop().unwrap_or_default();
                ids.push(id);
                self.cids.insert(cid.0, ids);
            }
            for e in device.ring_doorbell(qid, submit_at) {
                batch.cq_irqs.push((q, e.completes_at));
            }
        }
        let consumed = (batch.failures.len() + run_reqs.len() + flushes.len()) as u32;
        let rq = &mut self.rings[q];
        let page = hv.mem.page_mut(rq.ring_page)?;
        batch.more = rq.ring.final_check_for_requests(page);
        if consumed > 0 {
            let delivered = runs.len() as u32;
            let qid = self.qid(q);
            hv.trace.emit_with(self.back.0, || EventKind::RingDrain {
                queue: "blkback_req",
                qid,
                consumed,
                delivered,
                notify: false,
            });
        }
        runs.clear();
        run_reqs.clear();
        flushes.clear();
        self.scratch_req.clear();
        self.scratch_runs = runs;
        self.scratch_run_reqs = run_reqs;
        self.scratch_flushes = flushes;
        Ok(batch)
    }

    /// Legacy data path: maps each segment's page (or hits ring `q`'s
    /// persistent cache) and memcpys between it and the device.
    #[allow(clippy::too_many_arguments)]
    fn map_request_data(
        &mut self,
        hv: &mut Hypervisor,
        device: &mut NvmeController,
        q: usize,
        segs: &[BlkifSegment],
        start_sector: u64,
        op: u8,
        cost: &mut Nanos,
        unmap: &mut Vec<MapHandle>,
    ) -> Result<bool> {
        let mut dev_sector = start_sector;
        for seg in segs {
            let mut c = Nanos::ZERO;
            match self.resolve_page(hv, q, seg.gref, &mut c) {
                Ok((page, h)) => {
                    *cost += c;
                    let off = seg.first_sect as usize * SECTOR_SIZE;
                    let len = seg.len();
                    if op == BLKIF_OP_WRITE {
                        let bytes = hv.mem.page(page)?[off..off + len].to_vec();
                        device.write_data(dev_sector, &bytes);
                        self.stats.write_bytes += len as u64;
                    } else {
                        let mut buf = vec![0u8; len];
                        device.read_data(dev_sector, &mut buf);
                        hv.mem.page_mut(page)?[off..off + len].copy_from_slice(&buf);
                        self.stats.read_bytes += len as u64;
                    }
                    if let Some(h) = h {
                        unmap.push(h);
                    }
                }
                Err(_) => return Ok(false),
            }
            dev_sector += seg.sectors();
        }
        Ok(true)
    }

    /// Grant-copy data path: the whole segment list moves with a single
    /// batched `GNTTABOP_copy` hypercall, staged through ring `q`'s
    /// bounce pages. Writes copy guest→bounce then feed the device;
    /// reads fill the bounce pages from the device then copy
    /// bounce→guest.
    #[allow(clippy::too_many_arguments)]
    fn copy_request_data(
        &mut self,
        hv: &mut Hypervisor,
        device: &mut NvmeController,
        q: usize,
        segs: &[BlkifSegment],
        start_sector: u64,
        op: u8,
        cost: &mut Nanos,
    ) -> Result<bool> {
        self.ensure_bounce(hv, q, segs.len())?;
        let ops: Vec<GrantCopyOp> = segs
            .iter()
            .enumerate()
            .map(|(i, seg)| {
                let guest = CopySide::Grant {
                    granter: self.front,
                    gref: seg.gref,
                    offset: seg.first_sect as usize * SECTOR_SIZE,
                };
                let local = CopySide::Local {
                    page: self.rings[q].bounce[i],
                    offset: 0,
                };
                let (src, dst) = if op == BLKIF_OP_WRITE {
                    (guest, local)
                } else {
                    (local, guest)
                };
                GrantCopyOp {
                    src,
                    dst,
                    len: seg.len(),
                }
            })
            .collect();
        if op == BLKIF_OP_WRITE {
            let result = hv.grant_copy_ops(self.back, &ops, self.copy_mode);
            self.stats.copy.record(self.copy_mode, ops.len(), &result);
            *cost += result.cost;
            if !result.all_ok() {
                return Ok(false);
            }
            let mut dev_sector = start_sector;
            for (i, seg) in segs.iter().enumerate() {
                let len = seg.len();
                let bytes = hv.mem.page(self.rings[q].bounce[i])?[..len].to_vec();
                device.write_data(dev_sector, &bytes);
                self.stats.write_bytes += len as u64;
                dev_sector += seg.sectors();
            }
        } else {
            let mut dev_sector = start_sector;
            for (i, seg) in segs.iter().enumerate() {
                let len = seg.len();
                let mut buf = vec![0u8; len];
                device.read_data(dev_sector, &mut buf);
                hv.mem.page_mut(self.rings[q].bounce[i])?[..len].copy_from_slice(&buf);
                dev_sector += seg.sectors();
            }
            let result = hv.grant_copy_ops(self.back, &ops, self.copy_mode);
            self.stats.copy.record(self.copy_mode, ops.len(), &result);
            *cost += result.cost;
            if !result.all_ok() {
                return Ok(false);
            }
            for seg in segs {
                self.stats.read_bytes += seg.len() as u64;
            }
        }
        Ok(true)
    }

    fn fail_request(&mut self, id: u64, op: u8, q: usize) {
        self.stats.errors += 1;
        self.in_flight.insert(
            id,
            InFlight {
                op,
                ring: q,
                unmap: Vec::new(),
                status: BLKIF_RSP_ERROR,
            },
        );
    }

    /// Completion callback for one request that never reached the device
    /// (validation failure): pushes the error response on the ring the
    /// request arrived on and reports which rings to notify.
    pub fn complete(&mut self, hv: &mut Hypervisor, req_id: u64) -> Result<BlkComplete> {
        let mut out = BlkComplete::default();
        self.complete_one(hv, req_id, &mut out)?;
        self.check_notify(hv, &mut out)?;
        Ok(out)
    }

    /// Pushes one request's response (completion bookkeeping shared by
    /// the reap and failure paths); notify checks are batched separately.
    fn complete_one(
        &mut self,
        hv: &mut Hypervisor,
        req_id: u64,
        out: &mut BlkComplete,
    ) -> Result<()> {
        let fl = self.in_flight.remove(&req_id).ok_or(XenError::Inval)?;
        for h in fl.unmap {
            out.cost += hv.unmap_grant(self.back, h)?;
        }
        let rq = &mut self.rings[fl.ring];
        let page = hv.mem.page_mut(rq.ring_page)?;
        rq.ring.push_response(
            page,
            &BlkifResponse {
                id: req_id,
                operation: fl.op,
                status: fl.status,
            },
        )?;
        out.notify_rings |= 1u64 << fl.ring;
        out.completed += 1;
        out.cost += self.profile.per_block_request / 2;
        Ok(())
    }

    /// Runs the ring notification protocol once per ring that received
    /// responses, replacing the touched bits with the rings whose
    /// frontend actually needs an event.
    fn check_notify(&mut self, hv: &mut Hypervisor, out: &mut BlkComplete) -> Result<()> {
        let touched = out.notify_rings;
        out.notify_rings = 0;
        for q in 0..self.rings.len() {
            if touched & (1u64 << q) == 0 {
                continue;
            }
            let rq = &mut self.rings[q];
            let page = hv.mem.page_mut(rq.ring_page)?;
            if rq.ring.push_responses(page) {
                out.notify_rings |= 1u64 << q;
            }
        }
        Ok(())
    }

    /// The completion-interrupt handler for ring `q`: reaps every CQ
    /// entry due at `now` from the ring's queue pair, unmaps
    /// non-persistent grants, pushes responses on the rings the requests
    /// arrived on, and reports which frontends to notify. Runs on the
    /// vCPU the queue pair's MSI-X vector is steered to.
    pub fn reap_completions(
        &mut self,
        hv: &mut Hypervisor,
        device: &mut NvmeController,
        q: usize,
        now: Nanos,
    ) -> Result<BlkComplete> {
        let _prof = kite_prof::span(kite_prof::Phase::BlkbackReap);
        let mut out = BlkComplete::default();
        let Some(qid) = self.rings[q].qid else {
            return Ok(out);
        };
        while let Some(entry) = device.cq_pop(qid, now) {
            if let Some(r) = hv.req.take(SlotClass::NvmeCid, entry.cid.0) {
                let rq = self.qid(q);
                hv.req
                    .stamp_at(r, ReqStage::NvmeSubmit, self.back.0, rq, entry.submitted_at);
                hv.req
                    .stamp_at(r, ReqStage::NvmeComplete, self.back.0, rq, now);
            }
            let mut ids = self.cids.remove(&entry.cid.0).ok_or(XenError::Inval)?;
            for &id in &ids {
                self.complete_one(hv, id, &mut out)?;
            }
            ids.clear();
            self.spare_cid_reqs.push(ids);
        }
        if out.completed > 0 {
            self.check_notify(hv, &mut out)?;
        }
        Ok(out)
    }

    /// Requests currently on the device.
    pub fn in_flight(&self) -> usize {
        self.in_flight.len()
    }

    /// Quiesces the instance ahead of teardown: announces `Closing` so the
    /// frontend stops submitting. Mappings stay live until
    /// [`BlkbackInstance::close`] so in-flight completions can finish.
    pub fn suspend(&mut self, hv: &mut Hypervisor) -> Result<()> {
        let paths = DevicePaths::new(self.front, self.back, kite_xen::DeviceKind::Vbd, self.index);
        hv.switch_state(self.back, &paths.backend_state(), XenbusState::Closing)
    }

    /// Tears the instance down: closes every ring's channel, releases
    /// every grant mapping (rings, persistent caches, any in-flight
    /// request pages), frees the bounce pools, and walks the backend
    /// state to `Closed`.
    pub fn close(self, hv: &mut Hypervisor) -> Result<()> {
        let paths = DevicePaths::new(self.front, self.back, kite_xen::DeviceKind::Vbd, self.index);
        for (_, fl) in self.in_flight {
            for h in fl.unmap {
                hv.unmap_grant(self.back, h)?;
            }
        }
        for rq in self.rings {
            let _ = hv.evtchn.close(self.back, rq.evtchn);
            for (_, (h, _, _)) in rq.persistent.map {
                hv.unmap_grant(self.back, h)?;
            }
            hv.unmap_grant(self.back, rq._ring_map)?;
            for page in rq.bounce {
                hv.free_page(self.back, page)?;
            }
        }
        hv.switch_state(self.back, &paths.backend_state(), XenbusState::Closing)?;
        hv.switch_state(self.back, &paths.backend_state(), XenbusState::Closed)?;
        Ok(())
    }
}

/// Everything a blkback needs besides its device pair: the OS profile,
/// the optimization switches and the backing device's size.
#[derive(Clone, Debug)]
pub struct BlkbackConfig {
    /// Driver-domain OS cost profile.
    pub profile: OsProfile,
    /// Optimization switches.
    pub tuning: BlkbackTuning,
    /// Size of the backing device in sectors.
    pub device_sectors: u64,
}

impl BackendDevice for BlkbackInstance {
    type Config = BlkbackConfig;
    type Stats = BlkbackStats;
    const KIND: kite_xen::DeviceKind = kite_xen::DeviceKind::Vbd;

    fn connect(hv: &mut Hypervisor, paths: &DevicePaths, cfg: &BlkbackConfig) -> Result<Self> {
        BlkbackInstance::connect(
            hv,
            paths,
            cfg.profile.clone(),
            cfg.tuning,
            cfg.device_sectors,
        )
    }

    fn device_paths(&self) -> DevicePaths {
        DevicePaths::new(self.front, self.back, kite_xen::DeviceKind::Vbd, self.index)
    }

    fn suspend(&mut self, hv: &mut Hypervisor) -> Result<()> {
        BlkbackInstance::suspend(self, hv)
    }

    fn close(self, hv: &mut Hypervisor) -> Result<()> {
        BlkbackInstance::close(self, hv)
    }

    fn stats(&self) -> BlkbackStats {
        self.stats
    }

    fn queue_count(&self) -> usize {
        self.rings.len()
    }

    fn port_of(&self, q: usize) -> Port {
        self.rings[q].evtchn
    }

    fn set_copy_mode(&mut self, mode: CopyMode) {
        self.copy_mode = mode;
    }

    fn set_queue_wedged(&mut self, q: usize, wedged: bool) {
        self.rings[q].wedged = wedged;
    }

    /// Ack the port and wake the ring's request thread.
    fn irq_handler_cost(&self) -> Nanos {
        self.profile.irq_overhead
    }

    /// `pending` counts submitted requests not yet consumed.
    fn queue_progress(&self, hv: &Hypervisor) -> Vec<(u64, u64)> {
        self.rings
            .iter()
            .map(|rq| {
                let pending = match hv.mem.page(rq.ring_page) {
                    Ok(page) => rq.ring.unconsumed_requests(page) as u64,
                    Err(_) => 0,
                };
                (rq.ring.req_cons() as u64, pending)
            })
            .collect()
    }
}
