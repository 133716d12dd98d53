//! `blk_mixed`: closed-loop mixed reads and writes through four blkback
//! rings onto the NVMe model, checked against a shadow version map.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::{Duration, Instant};

use kite_devices::NvmeProfile;
use kite_sim::Nanos;
use kite_system::{BackendOs, IoDone, IoKind, IoOp, StorSystem, SystemConfig};
use kite_trace::Stage;

use crate::gen::{self, Rng};
use crate::harness::{AppTimer, Errors, Outcome};

const RINGS: u32 = 4;
const WORKERS: u64 = 16;
const BLOCK: usize = 4096;
const SECTORS_PER_BLOCK: u64 = (BLOCK / 512) as u64;
/// Each worker owns 2 MiB: the sparse NVMe store, and so host memory,
/// stays bounded however long the run.
const REGION_BLOCKS: u64 = 512;
/// A large write: 128 KiB, past the direct-segment limit, so it rides
/// indirect segments.
const BIG_BLOCKS: u64 = 32;
const OPS_PER_WORKER: u64 = 2000;
/// Every `REQ_SAMPLE`-th I/O carries a request-tracing id in traced
/// iterations; coprime to the ring count so samples visit every ring.
const REQ_SAMPLE: u64 = 13;
/// The stages whose per-request times the traced run reports.
pub const STAGES: [Stage; 6] = [
    Stage::RingSubmit,
    Stage::BackendFetch,
    Stage::NvmeSubmit,
    Stage::NvmeComplete,
    Stage::IrqDeliver,
    Stage::Complete,
];

fn config(seed: u64, traced: bool) -> SystemConfig {
    let cfg = SystemConfig::new(BackendOs::Kite, seed)
        .queues(RINGS)
        .nvme_profile(NvmeProfile::default().with_random_penalty(Nanos::from_micros(2)))
        .profiling(traced);
    if traced {
        cfg.req_tracing(REQ_SAMPLE)
    } else {
        cfg
    }
}

#[derive(Clone, Copy)]
enum Kind {
    Read,
    Write,
    BigWrite,
}

/// A worker deals its I/O kinds from this deck, reshuffled every
/// `DECK.len()` I/Os: 50% reads, 35% writes and 15% large writes, exactly
/// and for every seed, so the seed moves only the order and the blocks.
const DECK: [Kind; 20] = {
    use Kind::{BigWrite as B, Read as R, Write as W};
    [R, R, R, R, R, R, R, R, R, R, W, W, W, W, W, W, W, B, B, B]
};

/// One closed-loop client: its region, the version each of its blocks
/// last had written (0: never written, so it reads as zeros), and the
/// single I/O it has in flight.
struct Worker {
    rng: Rng,
    deck: [Kind; DECK.len()],
    versions: Vec<u32>,
    next_version: u32,
    issued: u64,
    inflight: Option<(Kind, u64, u32, u64)>,
}

struct Shared {
    key: u64,
    workers: Vec<Worker>,
    lat: Vec<u64>,
    bytes: u64,
    errors: Errors,
    /// Wall time spent generating write payloads inside the handler.
    gen: Duration,
}

/// The pattern key of worker `w`'s `block` at `version`.
fn block_key(key: u64, w: u64, block: u64, version: u32) -> u64 {
    gen::mix(key ^ (w << 52) ^ (block << 32) ^ u64::from(version))
}

impl Shared {
    /// Worker `w`'s next I/O, submitted at `now`.
    fn next_op(&mut self, w: u64, now: u64) -> Option<IoOp> {
        let key = self.key;
        let wk = &mut self.workers[w as usize];
        if wk.issued == OPS_PER_WORKER {
            return None;
        }
        let tag = (w << 32) | wk.issued;
        let card = (wk.issued % DECK.len() as u64) as usize;
        if card == 0 {
            wk.rng.shuffle(&mut wk.deck);
        }
        wk.issued += 1;
        let (kind, block, blocks) = match wk.deck[card] {
            Kind::Read => (Kind::Read, wk.rng.below(REGION_BLOCKS), 1),
            Kind::Write => (Kind::Write, wk.rng.below(REGION_BLOCKS), 1),
            Kind::BigWrite => (
                Kind::BigWrite,
                wk.rng.below(REGION_BLOCKS / BIG_BLOCKS) * BIG_BLOCKS,
                BIG_BLOCKS,
            ),
        };
        let sector = (w * REGION_BLOCKS + block) * SECTORS_PER_BLOCK;
        let version = match kind {
            Kind::Read => wk.versions[block as usize],
            Kind::Write | Kind::BigWrite => {
                wk.next_version += 1;
                wk.next_version
            }
        };
        wk.inflight = Some((kind, block, version, now));
        let kind = match kind {
            Kind::Read => IoKind::Read { sector, len: BLOCK },
            Kind::Write | Kind::BigWrite => {
                let t = Instant::now();
                let mut data = vec![0u8; BLOCK * blocks as usize];
                for (i, chunk) in data.chunks_exact_mut(BLOCK).enumerate() {
                    gen::fill(chunk, block_key(key, w, block + i as u64, version));
                }
                self.gen += t.elapsed();
                IoKind::Write { sector, data }
            }
        };
        Some(IoOp { tag, kind })
    }

    /// Checks a completion against the shadow map and advances it.
    /// Returns the completing worker, which then issues its next I/O.
    fn complete(&mut self, now: u64, done: &IoDone) -> Option<u64> {
        let w = done.tag >> 32;
        let Some(wk) = self.workers.get_mut(w as usize) else {
            self.errors
                .push(format!("blk_mixed: unknown tag {:#x}", done.tag));
            return None;
        };
        let Some((kind, block, version, submitted)) = wk.inflight.take() else {
            self.errors.push(format!(
                "blk_mixed: worker {w} completed with nothing in flight"
            ));
            return None;
        };
        if !done.ok {
            self.errors.push(format!(
                "blk_mixed: I/O {:#x} completed with ok=false",
                done.tag
            ));
            return Some(w);
        }
        match kind {
            Kind::Read => {
                let good = match &done.data {
                    Some(d) if d.len() == BLOCK && version == 0 => d.iter().all(|&b| b == 0),
                    Some(d) if d.len() == BLOCK => {
                        gen::matches(d, block_key(self.key, w, block, version))
                    }
                    _ => false,
                };
                if !good {
                    self.errors.push(format!(
                        "blk_mixed: worker {w} block {block} read does not hold version {version}"
                    ));
                    return Some(w);
                }
            }
            Kind::Write => self.workers[w as usize].versions[block as usize] = version,
            Kind::BigWrite => {
                let b = block as usize;
                self.workers[w as usize].versions[b..b + BIG_BLOCKS as usize].fill(version);
            }
        }
        self.bytes += match kind {
            Kind::Read | Kind::Write => BLOCK as u64,
            Kind::BigWrite => BLOCK as u64 * BIG_BLOCKS,
        };
        self.lat.push(now - submitted);
        Some(w)
    }
}

pub fn run(seed: u64, traced: bool) -> Outcome {
    let mut out = Outcome::default();
    let t = Instant::now();
    let mut sys = config(seed, traced).build_stor();
    out.setup = t.elapsed();
    crate::harness::built(&mut out, traced);

    let shared = Rc::new(RefCell::new(Shared {
        key: gen::mix(seed ^ 0x626c6b),
        workers: (0..WORKERS)
            .map(|w| Worker {
                rng: Rng::new(seed, 100 + w),
                deck: DECK,
                versions: vec![0; REGION_BLOCKS as usize],
                next_version: 0,
                issued: 0,
                inflight: None,
            })
            .collect(),
        lat: Vec::new(),
        bytes: 0,
        errors: Errors::default(),
        gen: Duration::ZERO,
    }));
    let app = AppTimer::new(traced);
    let (sh, timer) = (Rc::clone(&shared), app.clone());
    sys.set_handler(Box::new(move |now, done: &IoDone| {
        let _t = timer.span();
        let mut s = sh.borrow_mut();
        let now = now.as_nanos();
        s.complete(now, done)
            .and_then(|w| s.next_op(w, now))
            .into_iter()
            .collect()
    }));

    let start = sys.now() + Nanos::from_micros(100);
    let t = Instant::now();
    for w in 0..WORKERS {
        // Workers start 250 ns apart, in worker order.
        let at = start + Nanos::from_nanos(250 * w);
        let op = shared
            .borrow_mut()
            .next_op(w, at.as_nanos())
            .expect("every worker has work");
        sys.submit_at(at, op);
    }
    sys.run_to_quiescence();
    let wall = t.elapsed();

    let mut s = shared.borrow_mut();
    out.inject = s.gen;
    out.run = wall.saturating_sub(s.gen);
    out.app = app.total();
    out.attempted = WORKERS * OPS_PER_WORKER;
    out.failed = out.attempted - s.lat.len() as u64;
    for (w, wk) in s.workers.iter().enumerate() {
        if wk.issued != OPS_PER_WORKER || wk.inflight.is_some() {
            let msg = format!("blk_mixed: worker {w} stopped after {} I/Os", wk.issued);
            out.errors.push(msg);
        }
    }
    if sys.outstanding() != 0 {
        out.errors.push(format!(
            "blk_mixed: {} I/Os never completed",
            sys.outstanding()
        ));
    }
    out.payload_bytes = s.bytes;
    out.lat = std::mem::take(&mut s.lat);
    out.errors.absorb(std::mem::take(&mut s.errors));
    out.span = sys.now() - start;
    out.dd_cpu_pct = sys.driver_cpu_percent(sys.now());

    let bb = sys.blkback_stats();
    out.layer("sim.events", sys.events_processed() as f64);
    out.layer(
        "blkback.persistent_hit_ratio",
        crate::stats::ratio(
            bb.persistent_hits as f64,
            (bb.persistent_hits + bb.grant_maps) as f64,
        ),
    );
    out.layer("blkback.errors", bb.errors as f64);
    out.layer("nvme.random_penalties", sys.nvme.random_penalties() as f64);
    out.layer("grant.batches", bb.copy.batches as f64);
    out.layer("grant.ops", bb.copy.ops as f64);
    out.layer("grant.bytes", bb.copy.bytes as f64);
    if traced {
        out.stages = stage_samples(&sys);
    }
    out
}

/// Per-stage times taken exactly from the completed request records:
/// each gap between consecutive stamps belongs to the later stamp's
/// stage, so a request's stage times sum to its end-to-end latency.
fn stage_samples(sys: &StorSystem) -> Vec<Vec<u64>> {
    let mut per = vec![Vec::new(); STAGES.len()];
    for rec in sys.hv.req.completed() {
        for pair in rec.stamps.windows(2) {
            if let Some(i) = STAGES.iter().position(|&s| s == pair[1].stage) {
                per[i].push((pair[1].at - pair[0].at).as_nanos());
            }
        }
    }
    per
}
