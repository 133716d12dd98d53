//! Netfront: the guest-side PV network driver.
//!
//! Allocates the Tx/Rx shared rings and packet buffer pools, grants them to
//! the driver domain, publishes its details in xenstore and exchanges
//! frames with netback through the rings — the standard, unmodified guest
//! driver the paper's DomU runs (its whole point is that frontends need no
//! changes to talk to a Kite backend).
//!
//! Multi-queue works the way Linux `xen-netfront` does it: the backend
//! advertises `multi-queue-max-queues`, the frontend clamps its own
//! capacity against it, writes the negotiated `multi-queue-num-queues`,
//! and publishes one ring pair + event channel per queue under
//! `queue-<k>/` subpaths. A negotiated count of 1 keeps the legacy flat
//! key layout, so single-queue behavior is bit-for-bit unchanged. Tx
//! steering hashes the flow tuple ([`kite_net::flow`]), so one flow's
//! frames always ride one queue and per-flow ordering survives.

use std::collections::VecDeque;

use kite_net::MacAddr;
use kite_sim::Nanos;
use kite_xen::netif::{
    NetifExtraInfo, NetifRxRequest, NetifRxResponse, NetifTxRequest, NetifTxResponse,
    NETIF_MAX_GSO_FRAME, NETIF_RSP_NULL, NETRXF_DATA_VALIDATED, NETRXF_MORE_DATA,
    NETTXF_EXTRA_INFO, NETTXF_MORE_DATA, XEN_NETIF_EXTRA_TYPE_GSO,
};
use kite_xen::ring::FrontRing;
use kite_xen::xenbus::{
    negotiate_queues, switch_state, FEATURE_GSO_KEY, FEATURE_NO_CSUM_KEY, MQ_MAX_QUEUES_KEY,
    MQ_NUM_QUEUES_KEY,
};
use kite_xen::{
    DevicePaths, DomainId, GrantRef, Hypervisor, PageId, Port, ReqId, ReqStage, Result, SlotClass,
    XenError, XenbusState,
};

/// Number of packet buffer pages in each direction's pool, per queue.
const POOL: usize = 256;

struct BufPool {
    pages: Vec<PageId>,
    grefs: Vec<GrantRef>,
    free: Vec<u16>,
}

impl BufPool {
    fn alloc_id(&mut self) -> Option<u16> {
        self.free.pop()
    }
    fn release_id(&mut self, id: u16) {
        debug_assert!(!self.free.contains(&id));
        self.free.push(id);
    }
}

/// Outcome of a frontend operation that may require notifying the backend.
#[derive(Debug, Default)]
pub struct FrontOp {
    /// The backend must be notified via the event channel.
    pub notify: bool,
    /// Guest-side CPU cost of the operation.
    pub cost: Nanos,
}

/// One queue's worth of frontend state: a Tx/Rx ring pair, its event
/// channel, and the buffer pools feeding it.
struct NfQueue {
    evtchn: Port,
    tx: FrontRing<NetifTxRequest, NetifTxResponse>,
    rx: FrontRing<NetifRxRequest, NetifRxResponse>,
    tx_page: PageId,
    rx_page: PageId,
    tx_pool: BufPool,
    rx_pool: BufPool,
    // Tx requests pushed but not yet acknowledged: (buffer id, length,
    // first-slot-of-frame), oldest first. What a crashed backend leaves
    // unacknowledged; the first-markers let recovery reassemble GSO
    // chains back into whole frames.
    in_flight_tx: VecDeque<(u16, u16, bool)>,
    // Rx super-frame reassembly: fragments flagged `NETRXF_MORE_DATA`
    // accumulate here until the closing fragment arrives. A mid-chain
    // error poisons the chain and the whole partial frame is dropped.
    rx_partial: Vec<u8>,
    rx_poisoned: bool,
}

/// The netfront driver instance.
pub struct Netfront {
    /// Guest domain.
    pub guest: DomainId,
    /// Driver domain on the other end.
    pub backend: DomainId,
    /// Device index.
    pub index: u32,
    /// The interface MAC.
    pub mac: MacAddr,
    queues: Vec<NfQueue>,
    received: VecDeque<Vec<u8>>,
    tx_dropped: u64,
    gso: bool,
    csum_offload: bool,
}

fn make_pool(
    hv: &mut Hypervisor,
    owner: DomainId,
    peer: DomainId,
    readonly: bool,
) -> Result<BufPool> {
    let mut pages = Vec::with_capacity(POOL);
    let mut grefs = Vec::with_capacity(POOL);
    for _ in 0..POOL {
        let p = hv.alloc_page(owner)?;
        pages.push(p);
        grefs.push(hv.grant_access(owner, peer, p, readonly)?);
    }
    Ok(BufPool {
        pages,
        grefs,
        free: (0..POOL as u16).rev().collect(),
    })
}

fn make_queue(hv: &mut Hypervisor, paths: &DevicePaths, root: &str) -> Result<NfQueue> {
    let guest = paths.front;
    let backend = paths.back;
    let tx_page = hv.alloc_page(guest)?;
    let rx_page = hv.alloc_page(guest)?;
    let tx = {
        let p = hv.mem.page_mut(tx_page)?;
        FrontRing::init(p)
    };
    let rx = {
        let p = hv.mem.page_mut(rx_page)?;
        FrontRing::init(p)
    };
    let tx_ref = hv.grant_access(guest, backend, tx_page, false)?;
    let rx_ref = hv.grant_access(guest, backend, rx_page, false)?;
    // Tx payload pages are read-only to the backend; Rx pages must be
    // writable (the backend copies into them).
    let tx_pool = make_pool(hv, guest, backend, true)?;
    let rx_pool = make_pool(hv, guest, backend, false)?;
    let (port, _) = hv.evtchn_alloc_unbound(guest, backend);
    hv.store.write(
        guest,
        None,
        &format!("{root}/tx-ring-ref"),
        &tx_ref.0.to_string(),
    )?;
    hv.store.write(
        guest,
        None,
        &format!("{root}/rx-ring-ref"),
        &rx_ref.0.to_string(),
    )?;
    hv.store.write(
        guest,
        None,
        &format!("{root}/event-channel"),
        &port.0.to_string(),
    )?;
    Ok(NfQueue {
        evtchn: port,
        tx,
        rx,
        tx_page,
        rx_page,
        tx_pool,
        rx_pool,
        in_flight_tx: VecDeque::new(),
        rx_partial: Vec::new(),
        rx_poisoned: false,
    })
}

impl Netfront {
    /// Creates a legacy single-queue device: allocates rings and pools,
    /// grants them, binds the event channel, publishes frontend details
    /// and flips the state to `Initialised`. Also pre-posts the entire
    /// Rx buffer pool.
    pub fn connect(hv: &mut Hypervisor, paths: &DevicePaths, mac: MacAddr) -> Result<Netfront> {
        Netfront::connect_with_queues(hv, paths, mac, 1)
    }

    /// [`Netfront::connect`] with multi-queue negotiation: the frontend
    /// offers up to `max_queues`, clamps against the backend's
    /// `multi-queue-max-queues` advertisement, and builds one ring set
    /// per negotiated queue. A result of 1 (either side offering 1)
    /// falls back to the legacy flat single-ring layout.
    pub fn connect_with_queues(
        hv: &mut Hypervisor,
        paths: &DevicePaths,
        mac: MacAddr,
        max_queues: u32,
    ) -> Result<Netfront> {
        Netfront::connect_with_features(hv, paths, mac, max_queues, true, false)
    }

    /// [`Netfront::connect_with_queues`] with explicit offload choices.
    ///
    /// `want_gso` declines segmentation offload even when the backend
    /// advertises `feature-gso-tcpv4` (the frontend simply never echoes
    /// the key — graceful fallback, not an error). `veto_csum` writes
    /// `feature-no-csum-offload`, keeping full-cost checksumming on the
    /// guest even when GSO chains are negotiated.
    pub fn connect_with_features(
        hv: &mut Hypervisor,
        paths: &DevicePaths,
        mac: MacAddr,
        max_queues: u32,
        want_gso: bool,
        veto_csum: bool,
    ) -> Result<Netfront> {
        let guest = paths.front;
        let fe = paths.frontend();
        let back_max = hv
            .store
            .read(
                guest,
                None,
                &format!("{}/{}", paths.backend(), MQ_MAX_QUEUES_KEY),
            )
            .ok()
            .and_then(|v| v.parse::<u32>().ok())
            .unwrap_or(1);
        let nqueues = negotiate_queues(max_queues, back_max);
        if max_queues > 1 {
            hv.store.write(
                guest,
                None,
                &format!("{fe}/{MQ_MAX_QUEUES_KEY}"),
                &max_queues.to_string(),
            )?;
        }
        if nqueues > 1 {
            hv.store.write(
                guest,
                None,
                &format!("{fe}/{MQ_NUM_QUEUES_KEY}"),
                &nqueues.to_string(),
            )?;
        }
        // Offload negotiation: echo the backend's GSO advertisement only
        // if this frontend wants it. A backend that never advertised the
        // key (or a frontend that declines) leaves both sides in the
        // legacy single-slot protocol — no keys, no behavior change.
        let back_gso = hv
            .store
            .read(
                guest,
                None,
                &format!("{}/{}", paths.backend(), FEATURE_GSO_KEY),
            )
            .map(|v| v == "1")
            .unwrap_or(false);
        let gso = want_gso && back_gso;
        if gso {
            hv.store
                .write(guest, None, &format!("{fe}/{FEATURE_GSO_KEY}"), "1")?;
            if veto_csum {
                hv.store
                    .write(guest, None, &format!("{fe}/{FEATURE_NO_CSUM_KEY}"), "1")?;
            }
        }
        let mut queues = Vec::with_capacity(nqueues as usize);
        for k in 0..nqueues {
            let root = paths.frontend_queue_root(nqueues, k);
            queues.push(make_queue(hv, paths, &root)?);
        }
        hv.store
            .write(guest, None, &format!("{fe}/mac"), &mac.to_string())?;
        switch_state(
            &mut hv.store,
            guest,
            &paths.frontend_state(),
            XenbusState::Initialised,
        )?;
        let mut nf = Netfront {
            guest,
            backend: paths.back,
            index: paths.index,
            mac,
            queues,
            received: VecDeque::new(),
            tx_dropped: 0,
            gso,
            csum_offload: gso && !veto_csum,
        };
        nf.post_rx_buffers(hv)?;
        Ok(nf)
    }

    /// Number of negotiated queues.
    pub fn queue_count(&self) -> usize {
        self.queues.len()
    }

    /// Whether GSO descriptor chains were negotiated with the backend.
    pub fn gso(&self) -> bool {
        self.gso
    }

    /// Largest frame [`Netfront::send`] accepts: one page without GSO,
    /// a 64KB super-frame with it.
    pub fn max_tx_frame(&self) -> usize {
        if self.gso {
            NETIF_MAX_GSO_FRAME
        } else {
            kite_xen::PAGE_SIZE
        }
    }

    /// Queue `q`'s guest-local event-channel port.
    pub fn port_of(&self, q: usize) -> Port {
        self.queues[q].evtchn
    }

    /// Posts every free Rx buffer on every queue. Returns the queues
    /// whose backend end should be notified.
    pub fn post_rx_buffers(&mut self, hv: &mut Hypervisor) -> Result<Vec<usize>> {
        let mut notify = Vec::new();
        for (q, qu) in self.queues.iter_mut().enumerate() {
            let mut posted = false;
            while !qu.rx.full() {
                let id = match qu.rx_pool.alloc_id() {
                    Some(i) => i,
                    None => break,
                };
                let gref = qu.rx_pool.grefs[id as usize];
                let page = hv.mem.page_mut(qu.rx_page)?;
                qu.rx.push_request(page, &NetifRxRequest { id, gref })?;
                posted = true;
            }
            if posted {
                let page = hv.mem.page_mut(qu.rx_page)?;
                if qu.rx.push_requests(page) {
                    notify.push(q);
                }
            }
        }
        Ok(notify)
    }

    /// Sends one frame on the queue its flow steers to. Returns the
    /// queue index (whose [`Netfront::port_of`] port the caller notifies
    /// when `FrontOp::notify` is set). Fails with [`XenError::RingFull`]
    /// when the steered queue has no Tx slot or buffer free (UDP
    /// workloads count that as a drop).
    ///
    /// With GSO negotiated a frame larger than one page becomes a
    /// descriptor chain: a head slot flagged `NETTXF_EXTRA_INFO |
    /// NETTXF_MORE_DATA`, the GSO extra-info slot, then continuation
    /// fragments (`NETTXF_MORE_DATA` on all but the last). The chain is
    /// pushed atomically — if the ring or pool cannot hold every slot,
    /// nothing is pushed and the whole frame drops.
    ///
    /// A traced request (`req`) is mapped to the Tx ring slot it lands
    /// in and stamped [`ReqStage::RingSubmit`], so the backend's drain
    /// can pick the id back up from the slot.
    ///
    /// [`ReqStage::RingSubmit`]: kite_xen::ReqStage::RingSubmit
    pub fn send(
        &mut self,
        hv: &mut Hypervisor,
        frame: &[u8],
        req: Option<ReqId>,
    ) -> Result<(usize, FrontOp)> {
        if frame.len() > self.max_tx_frame() {
            return Err(XenError::OutOfBounds);
        }
        let q = kite_net::flow::steer(frame, self.queues.len() as u32) as usize;
        let multi = self.queues.len() > 1;
        let nfrags = frame.len().div_ceil(kite_xen::PAGE_SIZE).max(1);
        let chained = self.gso && nfrags > 1;
        // Data slots plus, for a chain, the extra-info slot.
        let slots = if chained { nfrags + 1 } else { nfrags };
        let qu = &mut self.queues[q];
        if (qu.tx.free_requests() as usize) < slots || qu.tx_pool.free.len() < nfrags {
            self.tx_dropped += 1;
            return Err(XenError::RingFull);
        }
        let mss = kite_net::ether::TSO_MSS;
        let mut head_id = 0u16;
        let mut off = 0usize;
        for f in 0..nfrags {
            let id = qu.tx_pool.alloc_id().expect("checked pool headroom");
            let len = (frame.len() - off).min(kite_xen::PAGE_SIZE);
            let buf = qu.tx_pool.pages[id as usize];
            hv.mem.page_mut(buf)?[..len].copy_from_slice(&frame[off..off + len]);
            let mut flags = 0u16;
            if chained {
                if f == 0 {
                    flags = NETTXF_EXTRA_INFO | NETTXF_MORE_DATA;
                } else if f + 1 < nfrags {
                    flags = NETTXF_MORE_DATA;
                }
            }
            let req_tx = NetifTxRequest {
                gref: qu.tx_pool.grefs[id as usize],
                offset: 0,
                flags,
                id,
                size: len as u16,
            };
            let page = hv.mem.page_mut(qu.tx_page)?;
            qu.tx.push_request(page, &req_tx)?;
            qu.in_flight_tx.push_back((id, len as u16, f == 0));
            if f == 0 {
                head_id = id;
                if chained {
                    // The extra-info slot rides immediately after the
                    // head, before any continuation fragment.
                    let extra = NetifExtraInfo {
                        kind: XEN_NETIF_EXTRA_TYPE_GSO,
                        gso_size: mss as u16,
                        gso_segs: frame.len().div_ceil(mss) as u16,
                        total_len: frame.len() as u32,
                    };
                    let page = hv.mem.page_mut(qu.tx_page)?;
                    qu.tx.push_request(page, &extra.to_tx_slot())?;
                }
            }
            off += len;
        }
        let page = hv.mem.page_mut(qu.tx_page)?;
        let notify = qu.tx.push_requests(page);
        if let Some(r) = req {
            let key = (q as u64) << 32 | head_id as u64;
            hv.req.map(SlotClass::NetTx, key, r);
            let qid = multi.then_some(q as u16);
            hv.req.stamp(r, ReqStage::RingSubmit, self.guest.0, qid);
        }
        // Guest-side cost: buffer copy + ring bookkeeping. With checksum
        // offload the guest skips the software csum pass, halving the
        // per-byte term.
        let per_byte = if self.csum_offload { 32 } else { 16 };
        Ok((
            q,
            FrontOp {
                notify,
                cost: Nanos::from_nanos(150 + frame.len() as u64 / per_byte),
            },
        ))
    }

    /// The guest's interrupt handler: reaps Tx completions (freeing
    /// buffers) and Rx deliveries (queueing frames for the stack) on
    /// every queue, then reposts Rx buffers. Returns the cost and the
    /// queues whose backend must be notified (for reposted buffers).
    pub fn on_irq(&mut self, hv: &mut Hypervisor) -> Result<(FrontOp, Vec<usize>)> {
        let mut cost = Nanos::ZERO;
        for qu in &mut self.queues {
            // Tx completions.
            loop {
                let rsp = {
                    let page = hv.mem.page(qu.tx_page)?;
                    qu.tx.consume_response(page)?
                };
                let Some(rsp) = rsp else { break };
                if rsp.status == NETIF_RSP_NULL {
                    // Extra-info slot acknowledgment: its id field held
                    // the descriptor kind, not a pool id — nothing to
                    // release.
                    continue;
                }
                qu.tx_pool.release_id(rsp.id);
                qu.in_flight_tx.retain(|&(i, _, _)| i != rsp.id);
                cost += Nanos::from_nanos(80);
            }
            {
                let page = hv.mem.page_mut(qu.tx_page)?;
                qu.tx.final_check_for_responses(page);
            }
            // Rx deliveries.
            loop {
                let rsp = {
                    let page = hv.mem.page(qu.rx_page)?;
                    qu.rx.consume_response(page)?
                };
                let Some(rsp) = rsp else { break };
                let more = rsp.flags & NETRXF_MORE_DATA != 0;
                if rsp.status > 0 {
                    let len = rsp.status as usize;
                    let buf = qu.rx_pool.pages[rsp.id as usize];
                    let data = &hv.mem.page(buf)?[rsp.offset as usize..rsp.offset as usize + len];
                    qu.rx_partial.extend_from_slice(data);
                    // The backend validated the checksum for us when it
                    // set `NETRXF_DATA_VALIDATED`; the guest's software
                    // pass is skipped and the per-byte cost halves.
                    let per_byte = if rsp.flags & NETRXF_DATA_VALIDATED != 0 {
                        32
                    } else {
                        16
                    };
                    cost += Nanos::from_nanos(120 + len as u64 / per_byte);
                } else {
                    // A failed fragment poisons the chain it belongs
                    // to: nothing already accumulated may be delivered.
                    qu.rx_poisoned = true;
                }
                if !more {
                    if !qu.rx_poisoned && !qu.rx_partial.is_empty() {
                        self.received.push_back(std::mem::take(&mut qu.rx_partial));
                    } else {
                        qu.rx_partial.clear();
                    }
                    qu.rx_poisoned = false;
                }
                qu.rx_pool.release_id(rsp.id);
            }
            {
                let page = hv.mem.page_mut(qu.rx_page)?;
                qu.rx.final_check_for_responses(page);
            }
        }
        let notify = self.post_rx_buffers(hv)?;
        Ok((
            FrontOp {
                notify: !notify.is_empty(),
                cost,
            },
            notify,
        ))
    }

    /// Takes the next received frame, if any.
    pub fn recv(&mut self) -> Option<Vec<u8>> {
        self.received.pop_front()
    }

    /// Frames dropped at send time for want of ring space.
    pub fn tx_dropped(&self) -> u64 {
        self.tx_dropped
    }

    /// Tx frames pushed to the rings but never acknowledged, queue by
    /// queue and oldest first within each — the payloads a crashed
    /// backend may or may not have moved. The guest's recovery path
    /// retransmits these through the replacement device (retrying an
    /// already-delivered frame is the UDP analog of an idempotent
    /// replay; TCP would dedup by sequence number).
    pub fn take_unacked(&mut self, hv: &Hypervisor) -> Vec<Vec<u8>> {
        let mut out = Vec::new();
        for qu in &mut self.queues {
            // First-markers delimit GSO chains: a head slot flushes the
            // frame accumulated so far, continuation slots append.
            let mut partial: Vec<u8> = Vec::new();
            while let Some((id, len, first)) = qu.in_flight_tx.pop_front() {
                if first && !partial.is_empty() {
                    out.push(std::mem::take(&mut partial));
                }
                let buf = qu.tx_pool.pages[id as usize];
                if let Ok(page) = hv.mem.page(buf) {
                    partial.extend_from_slice(&page[..len as usize]);
                }
            }
            if !partial.is_empty() {
                out.push(partial);
            }
        }
        out
    }
}
