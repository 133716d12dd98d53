//! The Kite netback driver (§3.2, §4.2 of the paper).
//!
//! One instance serves one netfront. The structure follows the paper:
//!
//! * **split layers** — the bottom layer speaks Xen (rings, grants, event
//!   channel), the upper layer speaks the network stack (VIF frames);
//! * **hypervisor copy** — packet payloads move between domains with
//!   `GNTTABOP_copy`, the fast path modern netfronts use;
//! * **threads, not work queues** — the event handler only *wakes* the
//!   [`pusher`](NetbackInstance::pusher_run) thread (Tx drain: guest →
//!   VIF) and the VIF callback only wakes the
//!   [`soft_start`](NetbackInstance::soft_start_run) thread (Rx fill:
//!   VIF → guest). Both process bounded batches and report whether more
//!   work remains, so they never monopolize the non-preemptive vCPU;
//! * **notification suppression** — responses are pushed with the
//!   `RING_PUSH_*_AND_CHECK_NOTIFY` discipline, so a busy ring costs a
//!   fraction of a hypercall per packet;
//! * **multi-queue** — when the frontend negotiated
//!   `multi-queue-num-queues = n`, the instance runs `n` independent
//!   queues, each with its own ring pair, event channel, bounce pool and
//!   pusher/soft_start pair (one per-queue thread set, Linux
//!   `xen-netback` style). Incoming bridge frames steer to a queue by
//!   flow hash ([`kite_net::flow`]), preserving per-flow ordering.

use std::collections::VecDeque;

use kite_rumprun::OsProfile;
use kite_sim::Nanos;
use kite_trace::EventKind;
use kite_xen::netif::{
    NetifExtraInfo, NetifRxRequest, NetifRxResponse, NetifTxRequest, NetifTxResponse,
    NETIF_MAX_GSO_FRAME, NETIF_MAX_TX_CHAIN, NETIF_RSP_ERROR, NETIF_RSP_NULL, NETIF_RSP_OKAY,
    NETRXF_DATA_VALIDATED, NETRXF_MORE_DATA, NETTXF_EXTRA_INFO, NETTXF_MORE_DATA,
    XEN_NETIF_EXTRA_TYPE_GSO,
};
use kite_xen::ring::BackRing;
use kite_xen::xenbus::{
    FEATURE_GSO_KEY, FEATURE_NO_CSUM_KEY, MQ_MAX_QUEUES_KEY, MQ_NUM_QUEUES_KEY,
};
use kite_xen::{
    CopyMode, CopySide, DevicePaths, DomainId, GrantCopyOp, GrantRef, Hypervisor, MapHandle,
    PageId, Port, ReqId, ReqStage, Result, SlotClass, XenError, XenbusState, PAGE_SIZE,
};

use crate::lifecycle::{BackendDevice, BackendStats};
use crate::stats::CopyStats;

/// Queues a backend accepts when the toolstack wrote no
/// `multi-queue-max-queues` advertisement for it.
pub const DEFAULT_MAX_QUEUES: u32 = 8;

/// Result of one pusher (Tx-drain) batch.
#[derive(Debug, Default)]
pub struct TxBatch {
    /// Frames copied out of the guest, ready for the VIF/bridge.
    pub frames: Vec<Vec<u8>>,
    /// vCPU cost of the batch (copies, ring work, per-packet OS cost).
    pub cost: Nanos,
    /// The frontend must be notified (responses pushed past its event).
    pub notify: bool,
    /// More requests remain (thread should re-queue instead of sleeping).
    pub more: bool,
}

/// Result of one soft_start (Rx-fill) batch.
#[derive(Debug, Default)]
pub struct RxBatch {
    /// Frames delivered into guest buffers.
    pub delivered: usize,
    /// vCPU cost of the batch.
    pub cost: Nanos,
    /// The frontend must be notified.
    pub notify: bool,
    /// Frames still queued (no Rx requests available or budget hit).
    pub more: bool,
}

/// Statistics of one netback instance (summed across its queues).
#[derive(Clone, Copy, Debug, Default)]
pub struct NetbackStats {
    /// Packets guest → world.
    pub tx_packets: u64,
    /// Bytes guest → world.
    pub tx_bytes: u64,
    /// Packets world → guest.
    pub rx_packets: u64,
    /// Bytes world → guest.
    pub rx_bytes: u64,
    /// Frames dropped because the guest posted no Rx buffers in time, or
    /// because the hypervisor copy into the guest buffer failed.
    pub rx_dropped: u64,
    /// Malformed Tx requests rejected.
    pub tx_errors: u64,
    /// GSO super-frames assembled from Tx descriptor chains.
    pub gso_tx_frames: u64,
    /// Wire segments those super-frames resolve to (what the NIC's TSO
    /// engine actually emits).
    pub gso_tx_segs: u64,
    /// World → guest super-frames delivered across multi-slot Rx chains
    /// (the LRO path).
    pub lro_rx_frames: u64,
    /// Chains rejected for a malformed GSO descriptor: zero MSS, zero
    /// or > 64 KiB total length, or an unknown extra-info type.
    pub gso_bad_size: u64,
    /// Chains rejected because the ring ended mid-chain: an extra-info
    /// or continuation slot was claimed but never published.
    pub gso_truncated: u64,
    /// Chains rejected because the claimed segment count, the fragment
    /// byte sum, or the slot count disagree with the descriptor.
    pub gso_seg_mismatch: u64,
    /// Chain flags seen on a ring whose pair never negotiated
    /// `feature-gso-tcpv4`.
    pub gso_unnegotiated: u64,
    /// Grant-copy hypercall accounting for the Tx/Rx drains.
    pub copy: CopyStats,
}

impl NetbackStats {
    /// Mean payload bytes moved per grant-copy hypercall.
    pub fn bytes_per_hypercall(&self) -> f64 {
        self.copy.bytes_per_hypercall()
    }

    /// Malformed-chain rejections, all causes.
    pub fn gso_errors(&self) -> u64 {
        self.gso_bad_size + self.gso_truncated + self.gso_seg_mismatch + self.gso_unnegotiated
    }

    /// Appends the Tx/Rx counters and copy accounting to a snapshot.
    pub fn append_metrics(&self, snap: &mut kite_trace::MetricsSnapshot) {
        snap.push_int("tx_packets", "count", self.tx_packets);
        snap.push_int("tx_bytes", "bytes", self.tx_bytes);
        snap.push_int("rx_packets", "count", self.rx_packets);
        snap.push_int("rx_bytes", "bytes", self.rx_bytes);
        snap.push_int("rx_dropped", "count", self.rx_dropped);
        snap.push_int("tx_errors", "count", self.tx_errors);
        snap.push_int("gso_tx_frames", "count", self.gso_tx_frames);
        snap.push_int("gso_tx_segs", "count", self.gso_tx_segs);
        snap.push_int("lro_rx_frames", "count", self.lro_rx_frames);
        snap.push_int("gso_bad_size", "count", self.gso_bad_size);
        snap.push_int("gso_truncated", "count", self.gso_truncated);
        snap.push_int("gso_seg_mismatch", "count", self.gso_seg_mismatch);
        snap.push_int("gso_unnegotiated", "count", self.gso_unnegotiated);
        self.copy.append_metrics(snap, "copy_");
    }
}

impl BackendStats for NetbackStats {
    fn merge(&mut self, other: &NetbackStats) {
        self.tx_packets += other.tx_packets;
        self.tx_bytes += other.tx_bytes;
        self.rx_packets += other.rx_packets;
        self.rx_bytes += other.rx_bytes;
        self.rx_dropped += other.rx_dropped;
        self.tx_errors += other.tx_errors;
        self.gso_tx_frames += other.gso_tx_frames;
        self.gso_tx_segs += other.gso_tx_segs;
        self.lro_rx_frames += other.lro_rx_frames;
        self.gso_bad_size += other.gso_bad_size;
        self.gso_truncated += other.gso_truncated;
        self.gso_seg_mismatch += other.gso_seg_mismatch;
        self.gso_unnegotiated += other.gso_unnegotiated;
        self.copy.merge(&other.copy);
    }
}

/// One queue of a netback instance: a Tx/Rx ring pair mapped from the
/// frontend, its event channel, the bounce-page pool its drains copy
/// through, and the world → guest frame queue awaiting Rx slots.
struct NbQueue {
    evtchn: Port,
    tx_ring: BackRing<NetifTxRequest, NetifTxResponse>,
    rx_ring: BackRing<NetifRxRequest, NetifRxResponse>,
    tx_page: PageId,
    rx_page: PageId,
    _tx_map: MapHandle,
    _rx_map: MapHandle,
    /// Per-queue frame buffers: one page per in-flight descriptor of a
    /// drain, so a whole ring batch moves in a single `GNTTABOP_copy`
    /// (the old design serialized every packet through one scratch page,
    /// forcing a hypercall per packet). Grown lazily to the drain budget.
    bounce: Vec<PageId>,
    to_guest: VecDeque<Vec<u8>>,
    /// Fault-injection: a wedged queue's pusher/soft_start threads never
    /// run (a stuck kthread), while the rest of the domain — heartbeats
    /// included — carries on. What per-queue stall detection must catch.
    wedged: bool,
}

/// What became of one consumed Tx ring slot (drives its response).
#[derive(Clone, Copy, Debug)]
enum TxDisp {
    /// A single-slot frame: the op at this index carries its payload.
    Single(usize),
    /// A fragment of the descriptor chain at this chain index.
    Frag(usize),
    /// Rejected by validation; answered `NETIF_RSP_ERROR`.
    Reject,
    /// An extra-info carrier slot; answered `NETIF_RSP_NULL`.
    Null,
}

/// One GSO descriptor chain walked out of the Tx ring.
#[derive(Clone, Copy, Debug)]
struct TxChain {
    /// Ops `[op_start, op_end)` hold the chain's fragments in order.
    op_start: usize,
    op_end: usize,
    /// Super-frame length claimed by the descriptor.
    total: usize,
    /// Wire segments the NIC's TSO engine will cut it into.
    segs: u32,
    /// Whether validation accepted the chain.
    valid: bool,
    /// Filled after the copy batch: valid and every fragment copied.
    ok: bool,
}

/// One netback instance (one per connected netfront).
pub struct NetbackInstance {
    /// Driver domain running this backend.
    pub back: DomainId,
    /// Guest domain of the paired frontend.
    pub front: DomainId,
    /// Device index within the guest.
    pub index: u32,
    /// The VIF name exposed to the bridge, e.g. `vif2.0`.
    pub vif: String,
    queues: Vec<NbQueue>,
    copy_mode: CopyMode,
    /// Per-queue cap for world → guest frames awaiting Rx slots.
    pub rx_queue_cap: usize,
    profile: OsProfile,
    gso: bool,
    csum_offload: bool,
    stats: NetbackStats,
    // Drain-path scratch, recycled across calls so a warmed-up drain
    // performs no bookkeeping allocations (frame payloads still
    // allocate — they leave the instance).
    scratch_tx: Vec<(u16, TxDisp)>,
    scratch_chains: Vec<TxChain>,
    scratch_rx: Vec<(u16, usize, u16)>,
    scratch_rxchain: Vec<(usize, usize, usize)>,
    scratch_ops: Vec<GrantCopyOp>,
    scratch_req: Vec<ReqId>,
}

fn connect_queue(hv: &mut Hypervisor, paths: &DevicePaths, root: &str) -> Result<NbQueue> {
    let back = paths.back;
    let front = paths.front;
    let tx_ref = GrantRef(
        hv.store
            .read(back, None, &format!("{root}/tx-ring-ref"))?
            .parse()
            .map_err(|_| XenError::Inval)?,
    );
    let rx_ref = GrantRef(
        hv.store
            .read(back, None, &format!("{root}/rx-ring-ref"))?
            .parse()
            .map_err(|_| XenError::Inval)?,
    );
    let remote_port = Port(
        hv.store
            .read(back, None, &format!("{root}/event-channel"))?
            .parse()
            .map_err(|_| XenError::Inval)?,
    );
    let (tx_map, _) = hv.map_grant(back, front, tx_ref)?;
    let (rx_map, _) = hv.map_grant(back, front, rx_ref)?;
    let (evtchn, _) = hv.evtchn_bind(back, front, remote_port)?;
    Ok(NbQueue {
        evtchn,
        tx_ring: BackRing::attach(),
        rx_ring: BackRing::attach(),
        tx_page: tx_map.page,
        rx_page: rx_map.page,
        _tx_map: tx_map.handle,
        _rx_map: rx_map.handle,
        bounce: Vec::new(),
        to_guest: VecDeque::new(),
        wedged: false,
    })
}

impl NetbackInstance {
    /// Connects to a frontend that has published its details: reads the
    /// negotiated queue count, maps every queue's rings, binds its event
    /// channels, writes `feature-rx-copy` and flips the backend state to
    /// `Connected`.
    ///
    /// The queue count is whatever the frontend wrote to
    /// `multi-queue-num-queues` (1 when absent — the legacy layout),
    /// validated against this backend's own `multi-queue-max-queues`
    /// advertisement (the toolstack writes it; absent means
    /// [`DEFAULT_MAX_QUEUES`]). A frontend asking for more than the
    /// backend advertised is refused with [`XenError::Inval`].
    pub fn connect(hv: &mut Hypervisor, paths: &DevicePaths, profile: OsProfile) -> Result<Self> {
        let back = paths.back;
        let front = paths.front;
        let fe = paths.frontend();
        let be = paths.backend();
        let nqueues = hv
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
        if nqueues > max {
            return Err(XenError::Inval);
        }
        // Offload negotiation: chains are legal only when the toolstack
        // advertised GSO under the backend path AND the frontend echoed
        // it. Checksum offload rides along unless the frontend vetoed
        // it with `feature-no-csum-offload` — either side staying
        // silent is a graceful fallback, never an error.
        let key_is_1 = |hv: &mut Hypervisor, path: &str| {
            hv.store
                .read(back, None, path)
                .map(|v| v == "1")
                .unwrap_or(false)
        };
        let gso = key_is_1(hv, &format!("{be}/{FEATURE_GSO_KEY}"))
            && key_is_1(hv, &format!("{fe}/{FEATURE_GSO_KEY}"));
        let csum_offload = gso && !key_is_1(hv, &format!("{fe}/{FEATURE_NO_CSUM_KEY}"));
        let mut queues = Vec::with_capacity(nqueues as usize);
        for k in 0..nqueues {
            let root = paths.frontend_queue_root(nqueues, k);
            queues.push(connect_queue(hv, paths, &root)?);
        }
        hv.store
            .write(back, None, &format!("{be}/feature-rx-copy"), "1")?;
        hv.switch_state(back, &paths.backend_state(), XenbusState::Connected)?;
        Ok(NetbackInstance {
            back,
            front,
            index: paths.index,
            vif: format!("vif{}.{}", front.0, paths.index),
            queues,
            copy_mode: CopyMode::Batched,
            rx_queue_cap: 512,
            profile,
            gso,
            csum_offload,
            stats: NetbackStats::default(),
            scratch_tx: Vec::new(),
            scratch_chains: Vec::new(),
            scratch_rx: Vec::new(),
            scratch_rxchain: Vec::new(),
            scratch_ops: Vec::new(),
            scratch_req: Vec::new(),
        })
    }

    /// Whether the pair negotiated GSO descriptor chains.
    pub fn gso(&self) -> bool {
        self.gso
    }

    /// Whether the pair negotiated checksum offload.
    pub fn csum_offload(&self) -> bool {
        self.csum_offload
    }

    /// How this instance issues its grant copies (batched by default).
    pub fn copy_mode(&self) -> CopyMode {
        self.copy_mode
    }

    /// The trace label for ring-drain events: per-queue tracks only make
    /// sense in a multi-queue layout, so single-queue instances keep the
    /// legacy anonymous label (and byte-identical trace exports).
    fn qid(&self, q: usize) -> Option<u16> {
        if self.queues.len() > 1 {
            Some(q as u16)
        } else {
            None
        }
    }

    /// Pops the next published Tx request of queue `q`, if any.
    fn consume_tx(&mut self, hv: &Hypervisor, q: usize) -> Result<Option<NetifTxRequest>> {
        let qu = &mut self.queues[q];
        let page = hv.mem.page(qu.tx_page)?;
        qu.tx_ring.consume_request(page)
    }

    /// Validates one data slot and, if sound, appends its grant-copy op
    /// (staged through the next bounce page). Returns whether the slot
    /// was accepted.
    fn push_tx_op(
        &mut self,
        hv: &mut Hypervisor,
        q: usize,
        req: &NetifTxRequest,
        ops: &mut Vec<GrantCopyOp>,
    ) -> Result<bool> {
        let size = req.size as usize;
        let offset = req.offset as usize;
        // Validate offset before any subtraction: a malicious frontend
        // may send offset > PAGE_SIZE, which would underflow
        // `PAGE_SIZE - offset`.
        if size == 0 || offset >= PAGE_SIZE || size > PAGE_SIZE - offset {
            return Ok(false);
        }
        while self.queues[q].bounce.len() < ops.len() + 1 {
            let page = hv.alloc_page(self.back)?;
            self.queues[q].bounce.push(page);
        }
        let dst = self.queues[q].bounce[ops.len()];
        ops.push(GrantCopyOp {
            src: CopySide::Grant {
                granter: self.front,
                gref: req.gref,
                offset,
            },
            dst: CopySide::Local {
                page: dst,
                offset: 0,
            },
            len: size,
        });
        Ok(true)
    }

    /// The **pusher** thread body for queue `q`: drains up to `budget`
    /// Tx ring slots and hypervisor-copies every payload out of the
    /// guest with **one** batched `GNTTABOP_copy` for the whole drain,
    /// directly into the queue's frame buffers.
    ///
    /// With GSO negotiated, a slot flagged `NETTXF_EXTRA_INFO` /
    /// `NETTXF_MORE_DATA` heads a descriptor chain: the extra-info slot
    /// carries the GSO descriptor and the fragments that follow are
    /// reassembled into one super-frame, charged **one** per-packet OS
    /// cost for the whole chain — the amortisation GSO exists for.
    /// Every consumed slot still gets exactly one response (extra-info
    /// slots get [`NETIF_RSP_NULL`]); malformed chains are answered
    /// with `NETIF_RSP_ERROR` on their data slots and land in a named
    /// error counter, never a panic and never a leaked grant.
    ///
    /// The drain is three phases: walk the ring building the op list
    /// (validating each request), issue the batch, then push responses in
    /// ring order from the per-op statuses.
    pub fn pusher_run(&mut self, hv: &mut Hypervisor, q: usize, budget: usize) -> Result<TxBatch> {
        let _prof = kite_prof::span(kite_prof::Phase::NetbackTxDrain);
        let mut batch = TxBatch::default();
        if self.queues[q].wedged {
            return Ok(batch);
        }
        // Consumed slots in ring order (each owes one response) and the
        // descriptor chains they form.
        let mut pending = std::mem::take(&mut self.scratch_tx);
        let mut chains = std::mem::take(&mut self.scratch_chains);
        let mut ops = std::mem::take(&mut self.scratch_ops);
        'drain: while pending.len() < budget {
            let head = match self.consume_tx(hv, q)? {
                Some(r) => r,
                None => break,
            };
            // A traced request rides its (head) ring slot into the drain.
            let key = (q as u64) << 32 | head.id as u64;
            if let Some(r) = hv.req.take(SlotClass::NetTx, key) {
                hv.req
                    .stamp(r, ReqStage::BackendFetch, self.back.0, self.qid(q));
                self.scratch_req.push(r);
            }
            let chained = head.flags & (NETTXF_EXTRA_INFO | NETTXF_MORE_DATA) != 0;
            if !chained {
                // Single-slot frame: the legacy path, byte-identical to
                // the pre-GSO drain.
                if self.push_tx_op(hv, q, &head, &mut ops)? {
                    pending.push((head.id, TxDisp::Single(ops.len() - 1)));
                } else {
                    self.stats.tx_errors += 1;
                    pending.push((head.id, TxDisp::Reject));
                }
                batch.cost += self.profile.per_packet;
                continue;
            }
            if !self.gso {
                // Chain flags on a pair that never negotiated GSO:
                // reject every slot of the chain (resyncing framing so
                // one bad guest cannot desynchronise the ring).
                self.stats.gso_unnegotiated += 1;
                let mut cur = head;
                loop {
                    pending.push((cur.id, TxDisp::Reject));
                    if cur.flags & NETTXF_EXTRA_INFO != 0 {
                        match self.consume_tx(hv, q)? {
                            Some(extra) => pending.push((extra.id, TxDisp::Reject)),
                            None => break,
                        }
                    }
                    if cur.flags & NETTXF_MORE_DATA == 0 {
                        break;
                    }
                    match self.consume_tx(hv, q)? {
                        Some(next) => cur = next,
                        None => break,
                    }
                }
                batch.cost += self.profile.per_packet;
                continue;
            }
            // GSO chain walk. Ring order: head data slot, extra-info
            // slot, then continuation fragments.
            let chain_idx = chains.len();
            let op_start = ops.len();
            let mut valid = true;
            pending.push((head.id, TxDisp::Frag(chain_idx)));
            let mut extra = None;
            if head.flags & NETTXF_EXTRA_INFO != 0 {
                match self.consume_tx(hv, q)? {
                    Some(slot) => {
                        pending.push((slot.id, TxDisp::Null));
                        extra = Some(NetifExtraInfo::from_tx_slot(&slot));
                    }
                    None => {
                        // Extra-info claimed but the ring ended: the
                        // guest published a torn chain.
                        self.stats.gso_truncated += 1;
                        let last = pending.len() - 1;
                        pending[last].1 = TxDisp::Reject;
                        batch.cost += self.profile.per_packet;
                        break 'drain;
                    }
                }
            }
            let mut total = 0usize;
            let mut nfrags = 0usize;
            let mut cur = head;
            loop {
                nfrags += 1;
                if nfrags <= NETIF_MAX_TX_CHAIN && valid {
                    if self.push_tx_op(hv, q, &cur, &mut ops)? {
                        total += cur.size as usize;
                    } else {
                        valid = false;
                    }
                } else {
                    valid = false;
                }
                if cur.flags & NETTXF_MORE_DATA == 0 {
                    break;
                }
                match self.consume_tx(hv, q)? {
                    Some(next) => {
                        pending.push((next.id, TxDisp::Frag(chain_idx)));
                        cur = next;
                    }
                    None => {
                        // Continuation claimed but the ring ended.
                        valid = false;
                        self.stats.gso_truncated += 1;
                        break;
                    }
                }
            }
            // Cross-check the descriptor against what the chain
            // actually carried (the SoK rule: every guest-parsed field
            // is validated with bounded failure accounting).
            let mut segs = 0u32;
            if valid {
                match extra {
                    None => {
                        // MORE_DATA without a GSO descriptor.
                        valid = false;
                        self.stats.gso_seg_mismatch += 1;
                    }
                    Some(e) => {
                        let tl = e.total_len as usize;
                        if e.kind != XEN_NETIF_EXTRA_TYPE_GSO
                            || e.gso_size == 0
                            || tl == 0
                            || tl > NETIF_MAX_GSO_FRAME
                        {
                            valid = false;
                            self.stats.gso_bad_size += 1;
                        } else if tl != total
                            || (e.total_len as u64).div_ceil(e.gso_size as u64) != e.gso_segs as u64
                        {
                            valid = false;
                            self.stats.gso_seg_mismatch += 1;
                        } else {
                            segs = e.gso_segs as u32;
                        }
                    }
                }
            } else if nfrags > NETIF_MAX_TX_CHAIN {
                self.stats.gso_seg_mismatch += 1;
            } else if extra.is_some() || cur.flags & NETTXF_MORE_DATA != 0 {
                // A fragment failed slot validation (frag rejections on
                // truncated chains were already counted above).
                self.stats.tx_errors += 1;
            }
            if !valid {
                // Drop the chain's staged copies: rejected descriptors
                // must not cost the backend grant-copy work.
                ops.truncate(op_start);
            }
            chains.push(TxChain {
                op_start,
                op_end: ops.len(),
                total,
                segs,
                valid,
                ok: false,
            });
            batch.cost += self.profile.per_packet;
        }

        // One hypercall for the whole drain (or per-op in legacy mode).
        let result = hv.grant_copy_ops(self.back, &ops, self.copy_mode);
        self.stats.copy.record(self.copy_mode, ops.len(), &result);
        batch.cost += result.cost;
        // Grant-copy stage: the batch completes one copy-cost after the
        // drain began (within-event time does not advance on its own).
        if !self.scratch_req.is_empty() {
            let done = hv.req.now() + result.cost;
            let qid = self.qid(q);
            for &r in &self.scratch_req {
                hv.req
                    .stamp_at(r, ReqStage::GrantCopy, self.back.0, qid, done);
            }
            self.scratch_req.clear();
        }

        for c in chains.iter_mut() {
            if !c.valid {
                continue;
            }
            c.ok = result.statuses[c.op_start..c.op_end]
                .iter()
                .all(|s| s.is_okay());
            if !c.ok {
                self.stats.tx_errors += 1;
            }
        }

        let mut emitted = 0usize; // chains whose super-frame was pushed
        for &(id, disp) in &pending {
            let status = match disp {
                TxDisp::Single(i) if result.statuses[i].is_okay() => {
                    let size = ops[i].len;
                    let frame = hv.mem.page(self.queues[q].bounce[i])?[..size].to_vec();
                    self.stats.tx_packets += 1;
                    self.stats.tx_bytes += size as u64;
                    batch.frames.push(frame);
                    NETIF_RSP_OKAY
                }
                TxDisp::Single(_) => {
                    self.stats.tx_errors += 1;
                    NETIF_RSP_ERROR
                }
                TxDisp::Frag(ci) if chains[ci].ok => {
                    // The chain's head slot assembles the super-frame;
                    // later fragments just acknowledge.
                    if ci >= emitted {
                        let c = chains[ci];
                        let mut frame = Vec::with_capacity(c.total);
                        for (op, &bounce) in ops[c.op_start..c.op_end]
                            .iter()
                            .zip(&self.queues[q].bounce[c.op_start..c.op_end])
                        {
                            frame.extend_from_slice(&hv.mem.page(bounce)?[..op.len]);
                        }
                        self.stats.tx_packets += 1;
                        self.stats.tx_bytes += c.total as u64;
                        self.stats.gso_tx_frames += 1;
                        self.stats.gso_tx_segs += c.segs as u64;
                        batch.frames.push(frame);
                        emitted = ci + 1;
                    }
                    NETIF_RSP_OKAY
                }
                TxDisp::Frag(_) => NETIF_RSP_ERROR,
                TxDisp::Reject => NETIF_RSP_ERROR,
                TxDisp::Null => NETIF_RSP_NULL,
            };
            let qu = &mut self.queues[q];
            let page = hv.mem.page_mut(qu.tx_page)?;
            qu.tx_ring
                .push_response(page, &NetifTxResponse { id, status })?;
        }
        let qu = &mut self.queues[q];
        let page = hv.mem.page_mut(qu.tx_page)?;
        batch.notify = qu.tx_ring.push_responses(page);
        batch.more = qu.tx_ring.final_check_for_requests(page);
        if !pending.is_empty() {
            let (consumed, delivered, notify) = (
                pending.len() as u32,
                batch.frames.len() as u32,
                batch.notify,
            );
            let qid = self.qid(q);
            hv.trace.emit_with(self.back.0, || EventKind::RingDrain {
                queue: "netback_tx",
                qid,
                consumed,
                delivered,
                notify,
            });
        }
        pending.clear();
        chains.clear();
        ops.clear();
        self.scratch_tx = pending;
        self.scratch_chains = chains;
        self.scratch_ops = ops;
        Ok(batch)
    }

    /// The upper layer received a frame from the VIF (bridge) destined for
    /// this instance's guest: the Rx steering point. The frame's flow
    /// hash picks the queue (RSS), so one flow's frames stay ordered on
    /// one queue. Returns `false` (and counts a drop) when that queue is
    /// full — backpressure toward the bridge.
    pub fn enqueue_to_guest(&mut self, frame: Vec<u8>) -> bool {
        let q = kite_net::flow::steer(&frame, self.queues.len() as u32) as usize;
        let qu = &mut self.queues[q];
        if qu.to_guest.len() >= self.rx_queue_cap {
            self.stats.rx_dropped += 1;
            return false;
        }
        qu.to_guest.push_back(frame);
        true
    }

    /// Frames waiting for Rx ring slots, all queues.
    pub fn rx_backlog(&self) -> usize {
        self.queues.iter().map(|qu| qu.to_guest.len()).sum()
    }

    /// Per-queue Rx backlog depths (world → guest frames awaiting slots).
    pub fn rx_backlogs(&self) -> Vec<usize> {
        self.queues.iter().map(|qu| qu.to_guest.len()).collect()
    }

    /// The **soft_start** thread body for queue `q`: pairs the queue's
    /// waiting frames with posted Rx requests, staging each frame in its
    /// own buffer page and hypervisor-copying the whole fill into guest
    /// buffers with one batched `GNTTABOP_copy`.
    ///
    /// A frame whose copy fails (bad or revoked Rx grant) is dropped
    /// explicitly: counted in `rx_dropped` and answered with an error
    /// response so the frontend reclaims the buffer.
    pub fn soft_start_run(
        &mut self,
        hv: &mut Hypervisor,
        q: usize,
        budget: usize,
    ) -> Result<RxBatch> {
        let _prof = kite_prof::span(kite_prof::Phase::NetbackRxDrain);
        let mut batch = RxBatch::default();
        if self.queues[q].wedged {
            batch.more = !self.queues[q].to_guest.is_empty();
            return Ok(batch);
        }
        // (response id, fragment length, response flags) per op, in
        // ring order, and the chain span each delivered frame occupies.
        let mut posted = std::mem::take(&mut self.scratch_rx);
        let mut rxchains = std::mem::take(&mut self.scratch_rxchain);
        let mut ops = std::mem::take(&mut self.scratch_ops);
        for _ in 0..budget {
            let Some(front_len) = self.queues[q].to_guest.front().map(Vec::len) else {
                break;
            };
            // With GSO negotiated a super-frame spans several posted
            // buffers; without it the legacy single-slot clamp applies.
            let nfrags = if self.gso {
                front_len.div_ceil(PAGE_SIZE).max(1)
            } else {
                1
            };
            let avail = {
                let qu = &self.queues[q];
                let page = hv.mem.page(qu.rx_page)?;
                qu.rx_ring.unconsumed_requests(page) as usize
            };
            if avail < nfrags {
                break; // never start a chain we cannot finish
            }
            let frame = self.queues[q]
                .to_guest
                .pop_front()
                .expect("checked non-empty");
            let total = if self.gso {
                frame.len()
            } else {
                frame.len().min(PAGE_SIZE)
            };
            let op_start = ops.len();
            let mut off = 0usize;
            for f in 0..nfrags {
                let req = {
                    let qu = &mut self.queues[q];
                    let page = hv.mem.page(qu.rx_page)?;
                    match qu.rx_ring.consume_request(page)? {
                        Some(r) => r,
                        None => break, // unreachable: avail checked
                    }
                };
                let len = (total - off).min(PAGE_SIZE);
                while self.queues[q].bounce.len() < ops.len() + 1 {
                    let page = hv.alloc_page(self.back)?;
                    self.queues[q].bounce.push(page);
                }
                let src = self.queues[q].bounce[ops.len()];
                hv.mem.page_mut(src)?[..len].copy_from_slice(&frame[off..off + len]);
                ops.push(GrantCopyOp {
                    src: CopySide::Local {
                        page: src,
                        offset: 0,
                    },
                    dst: CopySide::Grant {
                        granter: self.front,
                        gref: req.gref,
                        offset: 0,
                    },
                    len,
                });
                let mut flags = 0u16;
                if f + 1 < nfrags {
                    flags |= NETRXF_MORE_DATA;
                }
                if self.csum_offload {
                    flags |= NETRXF_DATA_VALIDATED;
                }
                posted.push((req.id, len, flags));
                off += len;
            }
            rxchains.push((op_start, ops.len(), total));
            // One per-packet OS cost per frame, however many slots it
            // spans — the receive-side (LRO) half of the amortisation.
            batch.cost += self.profile.per_packet;
        }

        let result = hv.grant_copy_ops(self.back, &ops, self.copy_mode);
        self.stats.copy.record(self.copy_mode, ops.len(), &result);
        batch.cost += result.cost;

        // A frame delivers only if every fragment copied; a failed
        // fragment drops the whole frame (the frontend discards the
        // poisoned chain when it sees the error response).
        for &(op_start, op_end, total) in &rxchains {
            let ok = result.statuses[op_start..op_end]
                .iter()
                .all(|s| s.is_okay());
            if ok {
                self.stats.rx_packets += 1;
                self.stats.rx_bytes += total as u64;
                if op_end - op_start > 1 {
                    self.stats.lro_rx_frames += 1;
                }
                batch.delivered += 1;
            } else {
                self.stats.rx_dropped += 1;
            }
        }

        for (i, &(id, len, flags)) in posted.iter().enumerate() {
            let status = if result.statuses[i].is_okay() {
                len as i16
            } else {
                NETIF_RSP_ERROR
            };
            let qu = &mut self.queues[q];
            let page = hv.mem.page_mut(qu.rx_page)?;
            qu.rx_ring.push_response(
                page,
                &NetifRxResponse {
                    id,
                    offset: 0,
                    flags,
                    status,
                },
            )?;
        }
        let qu = &mut self.queues[q];
        let page = hv.mem.page_mut(qu.rx_page)?;
        batch.notify = qu.rx_ring.push_responses(page);
        batch.more = !qu.to_guest.is_empty();
        if !posted.is_empty() {
            let (consumed, delivered, notify) =
                (posted.len() as u32, batch.delivered as u32, batch.notify);
            let qid = self.qid(q);
            hv.trace.emit_with(self.back.0, || EventKind::RingDrain {
                queue: "netback_rx",
                qid,
                consumed,
                delivered,
                notify,
            });
        }
        posted.clear();
        ops.clear();
        self.scratch_rx = posted;
        self.scratch_ops = ops;
        Ok(batch)
    }

    /// Quiesces the instance ahead of teardown: stops accepting new Rx
    /// frames and announces `Closing` so the frontend can unwind.
    /// Resources stay mapped until [`NetbackInstance::close`].
    pub fn suspend(&mut self, hv: &mut Hypervisor) -> Result<()> {
        self.rx_queue_cap = 0;
        let paths = DevicePaths::new(self.front, self.back, kite_xen::DeviceKind::Vif, self.index);
        hv.switch_state(self.back, &paths.backend_state(), XenbusState::Closing)
    }

    /// Tears the instance down: closes every queue's channel, unmaps its
    /// rings, frees the frame-buffer pools, marks the backend `Closed`.
    pub fn close(self, hv: &mut Hypervisor) -> Result<()> {
        let paths = DevicePaths::new(self.front, self.back, kite_xen::DeviceKind::Vif, self.index);
        for qu in self.queues {
            let _ = hv.evtchn.close(self.back, qu.evtchn);
            hv.unmap_grant(self.back, qu._tx_map)?;
            hv.unmap_grant(self.back, qu._rx_map)?;
            for page in qu.bounce {
                hv.free_page(self.back, page)?;
            }
        }
        hv.switch_state(self.back, &paths.backend_state(), XenbusState::Closing)?;
        hv.switch_state(self.back, &paths.backend_state(), XenbusState::Closed)?;
        Ok(())
    }
}

impl BackendDevice for NetbackInstance {
    type Config = OsProfile;
    type Stats = NetbackStats;
    const KIND: kite_xen::DeviceKind = kite_xen::DeviceKind::Vif;

    fn connect(hv: &mut Hypervisor, paths: &DevicePaths, cfg: &OsProfile) -> Result<Self> {
        NetbackInstance::connect(hv, paths, cfg.clone())
    }

    fn device_paths(&self) -> DevicePaths {
        DevicePaths::new(self.front, self.back, kite_xen::DeviceKind::Vif, self.index)
    }

    fn suspend(&mut self, hv: &mut Hypervisor) -> Result<()> {
        NetbackInstance::suspend(self, hv)
    }

    fn close(self, hv: &mut Hypervisor) -> Result<()> {
        NetbackInstance::close(self, hv)
    }

    fn stats(&self) -> NetbackStats {
        self.stats
    }

    fn queue_count(&self) -> usize {
        self.queues.len()
    }

    fn port_of(&self, q: usize) -> Port {
        self.queues[q].evtchn
    }

    fn set_copy_mode(&mut self, mode: CopyMode) {
        self.copy_mode = mode;
    }

    fn set_queue_wedged(&mut self, q: usize, wedged: bool) {
        self.queues[q].wedged = wedged;
    }

    fn irq_handler_cost(&self) -> Nanos {
        self.profile.irq_overhead
    }

    /// `consumed` spans both rings of a queue; `pending` is unconsumed Tx
    /// requests plus queued world → guest frames.
    fn queue_progress(&self, hv: &Hypervisor) -> Vec<(u64, u64)> {
        self.queues
            .iter()
            .map(|qu| {
                let consumed = qu.tx_ring.req_cons() as u64 + qu.rx_ring.req_cons() as u64;
                let tx_pending = match hv.mem.page(qu.tx_page) {
                    Ok(page) => qu.tx_ring.unconsumed_requests(page) as u64,
                    Err(_) => 0,
                };
                (consumed, tx_pending + qu.to_guest.len() as u64)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{provision_device, BackendManager};
    use kite_frontends::Netfront;
    use kite_net::MacAddr;
    use kite_rumprun::kite_profile;
    use kite_xen::ring::FrontRing;
    use kite_xen::{DeviceKind, DomainKind};

    fn machine() -> (Hypervisor, DevicePaths) {
        let mut hv = Hypervisor::new();
        hv.create_domain("Domain-0", DomainKind::Dom0, 8192, 4);
        let dd = hv.create_domain("netbackend", DomainKind::Driver, 1024, 1);
        let gu = hv.create_domain("guest", DomainKind::Guest, 5120, 22);
        let paths = DevicePaths::new(gu, dd, DeviceKind::Vif, 0);
        provision_device(&mut hv, &paths).unwrap();
        let mut mgr = BackendManager::new(dd, DeviceKind::Vif);
        mgr.start(&mut hv).unwrap();
        mgr.drain_events(&mut hv).unwrap();
        (hv, paths)
    }

    fn advertise_gso(hv: &mut Hypervisor, paths: &DevicePaths) {
        hv.store
            .write(
                DomainId::DOM0,
                None,
                &format!("{}/{FEATURE_GSO_KEY}", paths.backend()),
                "1",
            )
            .unwrap();
    }

    /// Full pair with a real netfront and explicit feature choices.
    fn pair(
        be_gso: bool,
        fe_gso: bool,
        veto_csum: bool,
    ) -> (Hypervisor, DevicePaths, Netfront, NetbackInstance) {
        let (mut hv, paths) = machine();
        if be_gso {
            advertise_gso(&mut hv, &paths);
        }
        let nf = Netfront::connect_with_features(
            &mut hv,
            &paths,
            MacAddr::local(1),
            1,
            fe_gso,
            veto_csum,
        )
        .unwrap();
        let nb = NetbackInstance::connect(&mut hv, &paths, kite_profile()).unwrap();
        (hv, paths, nf, nb)
    }

    #[test]
    fn offload_negotiation_requires_both_sides() {
        let (_, _, nf, nb) = pair(true, false, false);
        assert!(!nb.gso(), "frontend declined");
        assert!(!nf.gso());
        let (_, _, nf, nb) = pair(false, true, false);
        assert!(!nb.gso(), "backend never advertised");
        assert!(!nf.gso());
        let (_, _, nf, nb) = pair(true, true, false);
        assert!(nb.gso() && nb.csum_offload());
        assert!(nf.gso());
        let (_, _, _, nb) = pair(true, true, true);
        assert!(nb.gso(), "csum veto leaves GSO up");
        assert!(!nb.csum_offload());
    }

    #[test]
    fn tx_chain_reassembles_a_super_frame() {
        let (mut hv, _, mut nf, mut nb) = pair(true, true, false);
        let payload: Vec<u8> = (0..10_000u32).map(|i| (i * 7) as u8).collect();
        let (q, _) = nf.send(&mut hv, &payload, None).unwrap();
        let batch = nb.pusher_run(&mut hv, q, 128).unwrap();
        assert_eq!(batch.frames.len(), 1);
        assert_eq!(batch.frames[0], payload, "super-frame is byte-identical");
        let s = nb.stats();
        assert_eq!((s.tx_packets, s.gso_tx_frames), (1, 1));
        assert_eq!(s.gso_tx_segs, 10_000u64.div_ceil(1472), "MSS segments");
        assert_eq!(s.gso_errors(), 0);
        // Every slot (head + extra + 2 frags) was answered; the frontend
        // reaps them all and holds nothing in flight.
        nf.on_irq(&mut hv).unwrap();
        assert!(nf.take_unacked(&hv).is_empty());
    }

    #[test]
    fn rx_chain_spans_posted_buffers() {
        let (mut hv, _, mut nf, mut nb) = pair(true, true, false);
        let frame: Vec<u8> = (0..9_500u32).map(|i| (i ^ 0x5a) as u8).collect();
        assert!(nb.enqueue_to_guest(frame.clone()));
        let batch = nb.soft_start_run(&mut hv, 0, 64).unwrap();
        assert_eq!(batch.delivered, 1);
        assert_eq!(nb.stats().lro_rx_frames, 1);
        assert_eq!(nb.stats().rx_bytes, 9_500);
        nf.on_irq(&mut hv).unwrap();
        assert_eq!(nf.recv().unwrap(), frame, "reassembled across 3 buffers");
        assert!(nf.recv().is_none());
    }

    #[test]
    fn oversized_sends_fail_without_gso() {
        let (mut hv, _, mut nf, _) = pair(false, false, false);
        let big = vec![0u8; PAGE_SIZE + 1];
        assert_eq!(
            nf.send(&mut hv, &big, None).err(),
            Some(XenError::OutOfBounds)
        );
        assert_eq!(nf.max_tx_frame(), PAGE_SIZE);
    }

    // ---- adversarial chains: a hand-driven frontend ---------------------

    /// A bare Tx/Rx ring pair published like a netfront's, but driven by
    /// hand so tests can publish malformed descriptor chains no real
    /// frontend would.
    struct RawFront {
        tx: FrontRing<NetifTxRequest, NetifTxResponse>,
        tx_page: PageId,
        grefs: Vec<GrantRef>,
    }

    impl RawFront {
        fn push(&mut self, hv: &mut Hypervisor, req: &NetifTxRequest) {
            let page = hv.mem.page_mut(self.tx_page).unwrap();
            self.tx.push_request(page, req).unwrap();
        }

        fn publish(&mut self, hv: &mut Hypervisor) {
            let page = hv.mem.page_mut(self.tx_page).unwrap();
            self.tx.push_requests(page);
        }

        fn responses(&mut self, hv: &Hypervisor) -> Vec<NetifTxResponse> {
            let mut out = Vec::new();
            let page = hv.mem.page(self.tx_page).unwrap();
            while let Some(rsp) = self.tx.consume_response(page).unwrap() {
                out.push(rsp);
            }
            out
        }
    }

    fn raw_pair(gso: bool) -> (Hypervisor, DevicePaths, RawFront, NetbackInstance) {
        let (mut hv, paths) = machine();
        let (gu, dd) = (paths.front, paths.back);
        if gso {
            advertise_gso(&mut hv, &paths);
            hv.store
                .write(
                    gu,
                    None,
                    &format!("{}/{FEATURE_GSO_KEY}", paths.frontend()),
                    "1",
                )
                .unwrap();
        }
        let tx_page = hv.alloc_page(gu).unwrap();
        let rx_page = hv.alloc_page(gu).unwrap();
        let tx = FrontRing::init(hv.mem.page_mut(tx_page).unwrap());
        let _rx: FrontRing<NetifRxRequest, NetifRxResponse> =
            FrontRing::init(hv.mem.page_mut(rx_page).unwrap());
        let tx_ref = hv.grant_access(gu, dd, tx_page, false).unwrap();
        let rx_ref = hv.grant_access(gu, dd, rx_page, false).unwrap();
        let (port, _) = hv.evtchn_alloc_unbound(gu, dd);
        let root = paths.frontend_queue_root(1, 0);
        for (key, val) in [
            ("tx-ring-ref", tx_ref.0.to_string()),
            ("rx-ring-ref", rx_ref.0.to_string()),
            ("event-channel", port.0.to_string()),
        ] {
            hv.store
                .write(gu, None, &format!("{root}/{key}"), &val)
                .unwrap();
        }
        let mut grefs = Vec::new();
        for _ in 0..8 {
            let p = hv.alloc_page(gu).unwrap();
            grefs.push(hv.grant_access(gu, dd, p, true).unwrap());
        }
        let nb = NetbackInstance::connect(&mut hv, &paths, kite_profile()).unwrap();
        (hv, paths, RawFront { tx, tx_page, grefs }, nb)
    }

    fn data_slot(rf: &RawFront, id: u16, size: u16, flags: u16) -> NetifTxRequest {
        NetifTxRequest {
            gref: rf.grefs[id as usize],
            offset: 0,
            flags,
            id,
            size,
        }
    }

    #[test]
    fn chain_with_extra_claimed_but_ring_empty_errors_cleanly() {
        let (mut hv, _, mut rf, mut nb) = raw_pair(true);
        let maps_before = hv.grants.active_maps(nb.back);
        let head = data_slot(&rf, 0, 100, NETTXF_EXTRA_INFO | NETTXF_MORE_DATA);
        rf.push(&mut hv, &head);
        rf.publish(&mut hv);
        let batch = nb.pusher_run(&mut hv, 0, 128).unwrap();
        assert!(batch.frames.is_empty());
        assert_eq!(nb.stats().gso_truncated, 1);
        let rsps = rf.responses(&hv);
        assert_eq!(rsps.len(), 1, "the torn head still gets its response");
        assert_eq!(rsps[0].status, NETIF_RSP_ERROR);
        assert_eq!(hv.grants.active_maps(nb.back), maps_before, "no leaked map");
    }

    #[test]
    fn descriptor_size_bounds_are_enforced() {
        let (mut hv, _, mut rf, mut nb) = raw_pair(true);
        // total_len = 0.
        rf.push(&mut hv, &data_slot(&rf, 0, 100, NETTXF_EXTRA_INFO));
        let zero = NetifExtraInfo {
            kind: XEN_NETIF_EXTRA_TYPE_GSO,
            gso_size: 1472,
            gso_segs: 1,
            total_len: 0,
        };
        rf.push(&mut hv, &zero.to_tx_slot());
        // total_len > 64 KiB.
        rf.push(&mut hv, &data_slot(&rf, 1, 100, NETTXF_EXTRA_INFO));
        let huge = NetifExtraInfo {
            kind: XEN_NETIF_EXTRA_TYPE_GSO,
            gso_size: 1472,
            gso_segs: 48,
            total_len: (NETIF_MAX_GSO_FRAME + 1) as u32,
        };
        rf.push(&mut hv, &huge.to_tx_slot());
        rf.publish(&mut hv);
        let batch = nb.pusher_run(&mut hv, 0, 128).unwrap();
        assert!(batch.frames.is_empty());
        assert_eq!(nb.stats().gso_bad_size, 2);
        let rsps = rf.responses(&hv);
        assert_eq!(rsps.len(), 4, "one response per consumed slot");
        assert_eq!(rsps[0].status, NETIF_RSP_ERROR);
        assert_eq!(rsps[1].status, NETIF_RSP_NULL, "extra slot acked NULL");
        assert_eq!(rsps[2].status, NETIF_RSP_ERROR);
        assert_eq!(rsps[3].status, NETIF_RSP_NULL);
    }

    #[test]
    fn seg_and_slot_count_disagreements_are_rejected() {
        let (mut hv, _, mut rf, mut nb) = raw_pair(true);
        // Claimed gso_segs disagrees with ceil(total/mss).
        rf.push(&mut hv, &data_slot(&rf, 0, 100, NETTXF_EXTRA_INFO));
        let wrong_segs = NetifExtraInfo {
            kind: XEN_NETIF_EXTRA_TYPE_GSO,
            gso_size: 50,
            gso_segs: 7,
            total_len: 100,
        };
        rf.push(&mut hv, &wrong_segs.to_tx_slot());
        // Fragment byte sum disagrees with total_len.
        rf.push(
            &mut hv,
            &data_slot(&rf, 1, 100, NETTXF_EXTRA_INFO | NETTXF_MORE_DATA),
        );
        let wrong_total = NetifExtraInfo {
            kind: XEN_NETIF_EXTRA_TYPE_GSO,
            gso_size: 100,
            gso_segs: 2,
            total_len: 200,
        };
        rf.push(&mut hv, &wrong_total.to_tx_slot());
        rf.push(&mut hv, &data_slot(&rf, 2, 50, 0));
        rf.publish(&mut hv);
        let batch = nb.pusher_run(&mut hv, 0, 128).unwrap();
        assert!(batch.frames.is_empty());
        assert_eq!(nb.stats().gso_seg_mismatch, 2);
        let rsps = rf.responses(&hv);
        assert_eq!(rsps.len(), 5);
        let errors = rsps.iter().filter(|r| r.status == NETIF_RSP_ERROR).count();
        let nulls = rsps.iter().filter(|r| r.status == NETIF_RSP_NULL).count();
        assert_eq!((errors, nulls), (3, 2));
    }

    #[test]
    fn chains_on_an_unnegotiated_pair_are_rejected_and_resynced() {
        let (mut hv, _, mut rf, mut nb) = raw_pair(false);
        assert!(!nb.gso());
        rf.push(
            &mut hv,
            &data_slot(&rf, 0, 100, NETTXF_EXTRA_INFO | NETTXF_MORE_DATA),
        );
        let extra = NetifExtraInfo {
            kind: XEN_NETIF_EXTRA_TYPE_GSO,
            gso_size: 100,
            gso_segs: 2,
            total_len: 150,
        };
        rf.push(&mut hv, &extra.to_tx_slot());
        rf.push(&mut hv, &data_slot(&rf, 1, 50, 0));
        // A well-formed single frame after the chain: framing resynced.
        rf.push(&mut hv, &data_slot(&rf, 2, 60, 0));
        rf.publish(&mut hv);
        let batch = nb.pusher_run(&mut hv, 0, 128).unwrap();
        assert_eq!(nb.stats().gso_unnegotiated, 1);
        assert_eq!(batch.frames.len(), 1, "the single frame still flows");
        assert_eq!(batch.frames[0].len(), 60);
        let rsps = rf.responses(&hv);
        assert_eq!(rsps.len(), 4);
        assert_eq!(
            rsps.iter().filter(|r| r.status == NETIF_RSP_ERROR).count(),
            3,
            "every chain slot rejected"
        );
        assert_eq!(rsps[3].status, NETIF_RSP_OKAY);
    }

    #[test]
    fn guest_teardown_after_chain_errors_reclaims_every_grant() {
        let (mut hv, paths, mut rf, mut nb) = raw_pair(true);
        rf.push(
            &mut hv,
            &data_slot(&rf, 0, 100, NETTXF_EXTRA_INFO | NETTXF_MORE_DATA),
        );
        rf.publish(&mut hv);
        nb.pusher_run(&mut hv, 0, 128).unwrap();
        assert_eq!(nb.stats().gso_truncated, 1);
        // Backend closes cleanly, then the guest dies: Xen must be able
        // to reclaim every grant — nothing pinned by the failed chain.
        nb.close(&mut hv).unwrap();
        assert_eq!(hv.grants.active_maps(paths.back), 0);
        hv.destroy_domain(paths.front).unwrap();
        assert_eq!(hv.grants.live_grants(paths.front), 0);
    }
}
