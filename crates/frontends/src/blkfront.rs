//! Blkfront: the guest-side PV block driver.
//!
//! Builds direct or indirect requests according to the features the
//! backend advertised in xenstore, keeps a granted buffer-page pool
//! (persistent from the frontend's perspective), and reaps completions.
//!
//! With [`Blkfront::connect_with_queues`] the frontend negotiates up to
//! `n` hardware queues (rings): requests spread across rings round-robin
//! (block I/O carries no flow-ordering constraint), responses return on
//! the ring that carried the request.

use std::collections::HashMap;

use kite_sim::Nanos;
use kite_xen::blkif::{
    pack_indirect_segments, BlkifRequest, BlkifResponse, BlkifSegment,
    BLKIF_MAX_SEGMENTS_PER_REQUEST, BLKIF_OP_FLUSH_DISKCACHE, BLKIF_OP_READ, BLKIF_OP_WRITE,
    BLKIF_RSP_OKAY, SECTOR_SIZE,
};
use kite_xen::ring::FrontRing;
use kite_xen::xenbus::{negotiate_queues, switch_state, MQ_MAX_QUEUES_KEY, MQ_NUM_QUEUES_KEY};
use kite_xen::{
    DevicePaths, DomainId, GrantRef, Hypervisor, PageId, Port, Result, XenError, XenbusState,
};

use crate::netfront::FrontOp;

/// A completed block request as seen by the guest.
#[derive(Debug)]
pub struct BlkCompletion {
    /// Request id.
    pub id: u64,
    /// The operation that completed.
    pub op: u8,
    /// True on success.
    pub ok: bool,
    /// Read data (present for successful reads).
    pub data: Option<Vec<u8>>,
}

struct Pending {
    op: u8,
    ring: usize,                 // ring the request went out on
    pages: Vec<(PageId, usize)>, // page + byte length used
    indirect_idx: Option<usize>, // indirect descriptor page to recycle
}

/// One ring of the frontend: the shared ring page and its event channel.
struct BfRing {
    evtchn: Port,
    ring: FrontRing<BlkifRequest, BlkifResponse>,
    ring_page: PageId,
}

/// The blkfront driver instance.
pub struct Blkfront {
    /// Guest domain.
    pub guest: DomainId,
    /// Driver domain.
    pub backend: DomainId,
    /// Device capacity in sectors (read from the backend's advertisement).
    pub sectors: u64,
    /// Backend supports indirect segments up to this many.
    pub max_indirect: usize,
    rings: Vec<BfRing>,
    /// Round-robin cursor for spreading submissions across rings.
    rr: usize,
    pool_pages: Vec<PageId>,
    pool_grefs: Vec<GrantRef>,
    pool_free: Vec<usize>,
    indirect_pages: Vec<PageId>,
    indirect_grefs: Vec<GrantRef>,
    indirect_free: Vec<usize>,
    next_id: u64,
    pending: HashMap<u64, Pending>,
    completions: Vec<BlkCompletion>,
}

/// Buffer pool size in pages: enough for a full ring of indirect requests.
const POOL_PAGES: usize = 1024;

impl Blkfront {
    /// Connects with the legacy single-ring layout.
    pub fn connect(hv: &mut Hypervisor, paths: &DevicePaths) -> Result<Blkfront> {
        Blkfront::connect_with_queues(hv, paths, 1)
    }

    /// Connects, asking for up to `max_queues` rings: allocates each
    /// negotiated ring and the shared pools, publishes details, flips to
    /// `Initialised`.
    ///
    /// Queue negotiation reads the backend's `multi-queue-max-queues`
    /// advertisement (absent → 1) and clamps `max_queues` against it;
    /// with a single ring the flat legacy key layout is kept, so a
    /// `max_queues = 1` connect is indistinguishable from [`connect`].
    ///
    /// The backend writes its property keys when it connects; the system
    /// layer re-reads them via [`Blkfront::read_features`] once the
    /// backend reports `Connected`.
    ///
    /// [`connect`]: Blkfront::connect
    pub fn connect_with_queues(
        hv: &mut Hypervisor,
        paths: &DevicePaths,
        max_queues: u32,
    ) -> Result<Blkfront> {
        let guest = paths.front;
        let backend = paths.back;
        let fe = paths.frontend();
        let be = paths.backend();
        let back_max = hv
            .store
            .read(guest, None, &format!("{be}/{MQ_MAX_QUEUES_KEY}"))
            .ok()
            .and_then(|v| v.parse::<u32>().ok())
            .unwrap_or(1);
        let nrings = negotiate_queues(max_queues, back_max);
        if max_queues > 1 {
            hv.store.write(
                guest,
                None,
                &format!("{fe}/{MQ_MAX_QUEUES_KEY}"),
                &max_queues.to_string(),
            )?;
        }
        if nrings > 1 {
            hv.store.write(
                guest,
                None,
                &format!("{fe}/{MQ_NUM_QUEUES_KEY}"),
                &nrings.to_string(),
            )?;
        }
        let mut rings = Vec::with_capacity(nrings as usize);
        for k in 0..nrings {
            let root = paths.frontend_queue_root(nrings, k);
            let ring_page = hv.alloc_page(guest)?;
            let ring = {
                let p = hv.mem.page_mut(ring_page)?;
                FrontRing::init(p)
            };
            let ring_ref = hv.grant_access(guest, backend, ring_page, false)?;
            let (port, _) = hv.evtchn_alloc_unbound(guest, backend);
            hv.store.write(
                guest,
                None,
                &format!("{root}/ring-ref"),
                &ring_ref.0.to_string(),
            )?;
            hv.store.write(
                guest,
                None,
                &format!("{root}/event-channel"),
                &port.0.to_string(),
            )?;
            rings.push(BfRing {
                evtchn: port,
                ring,
                ring_page,
            });
        }
        let mut pool_pages = Vec::with_capacity(POOL_PAGES);
        let mut pool_grefs = Vec::with_capacity(POOL_PAGES);
        for _ in 0..POOL_PAGES {
            let p = hv.alloc_page(guest)?;
            pool_pages.push(p);
            pool_grefs.push(hv.grant_access(guest, backend, p, false)?);
        }
        // One indirect descriptor page per possible in-flight request.
        let mut indirect_pages = Vec::with_capacity(32);
        let mut indirect_grefs = Vec::with_capacity(32);
        for _ in 0..32 {
            let p = hv.alloc_page(guest)?;
            indirect_pages.push(p);
            indirect_grefs.push(hv.grant_access(guest, backend, p, true)?);
        }
        hv.store
            .write(guest, None, &format!("{fe}/protocol"), "x86_64-abi")?;
        hv.store
            .write(guest, None, &format!("{fe}/feature-persistent"), "1")?;
        switch_state(
            &mut hv.store,
            guest,
            &paths.frontend_state(),
            XenbusState::Initialised,
        )?;
        Ok(Blkfront {
            guest,
            backend,
            sectors: 0,
            max_indirect: 0,
            rings,
            rr: 0,
            pool_pages,
            pool_grefs,
            pool_free: (0..POOL_PAGES).rev().collect(),
            indirect_pages,
            indirect_grefs,
            indirect_free: (0..32).rev().collect(),
            next_id: 1,
            pending: HashMap::new(),
            completions: Vec::new(),
        })
    }

    /// Number of negotiated rings.
    pub fn queue_count(&self) -> usize {
        self.rings.len()
    }

    /// Ring `q`'s guest-local event-channel port.
    pub fn port_of(&self, q: usize) -> Port {
        self.rings[q].evtchn
    }

    /// The ring a still-outstanding request went out on.
    pub fn ring_of(&self, id: u64) -> Option<usize> {
        self.pending.get(&id).map(|p| p.ring)
    }

    /// Reads the backend's advertised properties (sectors, indirect cap).
    pub fn read_features(&mut self, hv: &mut Hypervisor, paths: &DevicePaths) -> Result<()> {
        let be = paths.backend();
        self.sectors = hv
            .store
            .read(self.guest, None, &format!("{be}/sectors"))?
            .parse()
            .map_err(|_| XenError::Inval)?;
        self.max_indirect = hv
            .store
            .read(
                self.guest,
                None,
                &format!("{be}/feature-max-indirect-segments"),
            )?
            .parse()
            .map_err(|_| XenError::Inval)?;
        Ok(())
    }

    /// Largest single request in bytes given negotiated features.
    pub fn max_request_bytes(&self) -> usize {
        let segs = if self.max_indirect > 0 {
            self.max_indirect
        } else {
            BLKIF_MAX_SEGMENTS_PER_REQUEST
        };
        segs * kite_xen::PAGE_SIZE
    }

    /// Picks the next ring round-robin, skipping full rings.
    fn pick_ring(&mut self) -> Result<usize> {
        let n = self.rings.len();
        for i in 0..n {
            let q = (self.rr + i) % n;
            if !self.rings[q].ring.full() {
                self.rr = (q + 1) % n;
                return Ok(q);
            }
        }
        Err(XenError::RingFull)
    }

    fn alloc_pages(&mut self, n: usize) -> Option<Vec<usize>> {
        if self.pool_free.len() < n {
            return None;
        }
        Some(
            (0..n)
                .map(|_| self.pool_free.pop().expect("len checked"))
                .collect(),
        )
    }

    fn build_segments(&self, idxs: &[usize], len: usize) -> Vec<BlkifSegment> {
        let mut segs = Vec::with_capacity(idxs.len());
        let mut remaining = len.div_ceil(SECTOR_SIZE);
        for &i in idxs {
            let sectors = remaining.min(8);
            segs.push(BlkifSegment {
                gref: self.pool_grefs[i],
                first_sect: 0,
                last_sect: (sectors - 1) as u8,
            });
            remaining -= sectors;
        }
        segs
    }

    /// Submits a read of `len` bytes at `sector`. Returns the request id.
    ///
    /// `len` must be a multiple of 512 and at most
    /// [`Blkfront::max_request_bytes`]; callers split larger I/O.
    pub fn submit_read(
        &mut self,
        hv: &mut Hypervisor,
        sector: u64,
        len: usize,
    ) -> Result<(u64, FrontOp)> {
        self.submit_io(hv, BLKIF_OP_READ, sector, len, None)
    }

    /// Submits a write of `data` at `sector` (`data.len()` a multiple of
    /// 512, at most [`Blkfront::max_request_bytes`]).
    pub fn submit_write(
        &mut self,
        hv: &mut Hypervisor,
        sector: u64,
        data: &[u8],
    ) -> Result<(u64, FrontOp)> {
        self.submit_io(hv, BLKIF_OP_WRITE, sector, data.len(), Some(data))
    }

    /// Submits a cache flush barrier.
    pub fn submit_flush(&mut self, hv: &mut Hypervisor) -> Result<(u64, FrontOp)> {
        let q = self.pick_ring()?;
        let id = self.next_id;
        self.next_id += 1;
        let req = BlkifRequest::Direct {
            operation: BLKIF_OP_FLUSH_DISKCACHE,
            handle: 0,
            id,
            sector_number: 0,
            segments: Vec::new(),
        };
        let rq = &mut self.rings[q];
        let page = hv.mem.page_mut(rq.ring_page)?;
        rq.ring.push_request(page, &req)?;
        let notify = rq.ring.push_requests(page);
        self.pending.insert(
            id,
            Pending {
                op: BLKIF_OP_FLUSH_DISKCACHE,
                ring: q,
                pages: Vec::new(),
                indirect_idx: None,
            },
        );
        Ok((
            id,
            FrontOp {
                notify,
                cost: Nanos::from_nanos(300),
            },
        ))
    }

    fn submit_io(
        &mut self,
        hv: &mut Hypervisor,
        op: u8,
        sector: u64,
        len: usize,
        data: Option<&[u8]>,
    ) -> Result<(u64, FrontOp)> {
        if len == 0 || !len.is_multiple_of(SECTOR_SIZE) || len > self.max_request_bytes() {
            return Err(XenError::Inval);
        }
        let q = self.pick_ring()?;
        let n_pages = len.div_ceil(kite_xen::PAGE_SIZE);
        let idxs = self.alloc_pages(n_pages).ok_or(XenError::RingFull)?;
        let mut cost = Nanos::from_nanos(400);
        // For writes, fill the buffer pages with real data.
        if let Some(data) = data {
            for (k, &i) in idxs.iter().enumerate() {
                let off = k * kite_xen::PAGE_SIZE;
                let n = (data.len() - off).min(kite_xen::PAGE_SIZE);
                hv.mem.page_mut(self.pool_pages[i])?[..n].copy_from_slice(&data[off..off + n]);
            }
            cost += Nanos::from_nanos(len as u64 / 16); // guest memcpy
        }
        let segs = self.build_segments(&idxs, len);
        let id = self.next_id;
        self.next_id += 1;
        let mut indirect_idx = None;
        let req = if segs.len() <= BLKIF_MAX_SEGMENTS_PER_REQUEST {
            BlkifRequest::Direct {
                operation: op,
                handle: 0,
                id,
                sector_number: sector,
                segments: segs,
            }
        } else {
            let rollback = |me: &mut Self, idxs: Vec<usize>| {
                for i in idxs {
                    me.pool_free.push(i);
                }
            };
            if self.max_indirect == 0 || segs.len() > self.max_indirect {
                rollback(self, idxs);
                return Err(XenError::Inval);
            }
            let Some(ind) = self.indirect_free.pop() else {
                rollback(self, idxs);
                return Err(XenError::RingFull);
            };
            indirect_idx = Some(ind);
            let page = hv.mem.page_mut(self.indirect_pages[ind])?;
            pack_indirect_segments(page, &segs);
            BlkifRequest::Indirect {
                indirect_op: op,
                handle: 0,
                id,
                sector_number: sector,
                nr_segments: segs.len() as u16,
                indirect_grefs: vec![self.indirect_grefs[ind]],
            }
        };
        let rq = &mut self.rings[q];
        let page = hv.mem.page_mut(rq.ring_page)?;
        rq.ring.push_request(page, &req)?;
        let notify = rq.ring.push_requests(page);
        self.pending.insert(
            id,
            Pending {
                op,
                ring: q,
                pages: idxs.iter().map(|&i| (self.pool_pages[i], 0)).collect(),
                indirect_idx,
            },
        );
        // Remember lengths for read extraction.
        if let Some(p) = self.pending.get_mut(&id) {
            let mut remaining = len;
            for entry in &mut p.pages {
                entry.1 = remaining.min(kite_xen::PAGE_SIZE);
                remaining -= entry.1;
            }
        }
        Ok((id, FrontOp { notify, cost }))
    }

    /// The guest's interrupt handler: reaps completions from every ring.
    pub fn on_irq(&mut self, hv: &mut Hypervisor) -> Result<FrontOp> {
        let mut cost = Nanos::ZERO;
        for q in 0..self.rings.len() {
            loop {
                let rsp = {
                    let rq = &mut self.rings[q];
                    let page = hv.mem.page(rq.ring_page)?;
                    rq.ring.consume_response(page)?
                };
                let Some(rsp) = rsp else { break };
                let Some(p) = self.pending.remove(&rsp.id) else {
                    continue;
                };
                let ok = rsp.status == BLKIF_RSP_OKAY;
                let data = if ok && p.op == BLKIF_OP_READ {
                    let mut buf = Vec::new();
                    for (page_id, n) in &p.pages {
                        buf.extend_from_slice(&hv.mem.page(*page_id)?[..*n]);
                    }
                    cost += Nanos::from_nanos(buf.len() as u64 / 16);
                    Some(buf)
                } else {
                    None
                };
                if let Some(ind) = p.indirect_idx {
                    self.indirect_free.push(ind);
                }
                // Return buffer pages to the pool.
                for (page_id, _) in &p.pages {
                    let i = self
                        .pool_pages
                        .iter()
                        .position(|&pp| pp == *page_id)
                        .expect("pool page");
                    self.pool_free.push(i);
                }
                self.completions.push(BlkCompletion {
                    id: rsp.id,
                    op: p.op,
                    ok,
                    data,
                });
                cost += Nanos::from_nanos(200);
            }
            let rq = &mut self.rings[q];
            let page = hv.mem.page_mut(rq.ring_page)?;
            rq.ring.final_check_for_responses(page);
        }
        Ok(FrontOp {
            notify: false,
            cost,
        })
    }

    /// Takes all completions reaped so far.
    pub fn take_completions(&mut self) -> Vec<BlkCompletion> {
        std::mem::take(&mut self.completions)
    }

    /// Requests submitted and not yet completed.
    pub fn outstanding(&self) -> usize {
        self.pending.len()
    }
}
