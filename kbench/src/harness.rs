//! What one iteration of a workload reports, and the benchmark's own
//! wall-clock spans around its calls into the program.

use std::cell::Cell;
use std::rc::Rc;
use std::time::{Duration, Instant};

use kite_sim::Nanos;

/// Correctness failures, keeping the first few messages and a count.
#[derive(Default)]
pub struct Errors {
    pub count: u64,
    pub kept: Vec<String>,
}

impl Errors {
    const KEEP: usize = 5;

    pub fn push(&mut self, msg: String) {
        self.count += 1;
        if self.kept.len() < Self::KEEP {
            self.kept.push(msg);
        }
    }

    pub fn absorb(&mut self, other: Errors) {
        let unkept = other.count - other.kept.len() as u64;
        for m in other.kept {
            self.push(m);
        }
        self.count += unkept;
    }
}

/// Result of one iteration: a fresh system built, fed the seed's
/// inputs, and run to quiescence.
#[derive(Default)]
pub struct Outcome {
    /// Operations the workload attempted (echo requests, datagrams, I/Os).
    pub attempted: u64,
    /// Operations dropped, failed, or never answered.
    pub failed: u64,
    /// Application payload bytes accepted by the receiving side (net),
    /// or bytes of completed reads and writes (storage).
    pub payload_bytes: u64,
    /// Virtual time from the first input to quiescence.
    pub span: Nanos,
    /// Per-operation virtual latency samples, ns.
    pub lat: Vec<u64>,
    /// Driver-domain mean vCPU utilisation over the run.
    pub dd_cpu_pct: f64,
    /// Layer counters read through the public API (virtual clock,
    /// deterministic per seed).
    pub layers: Vec<(&'static str, f64)>,
    /// Per-stage virtual latency samples from request tracing, ns, in
    /// `blk::STAGES` order (empty when not traced).
    pub stages: Vec<Vec<u64>>,
    pub errors: Errors,
    /// Wall time of the build call.
    pub setup: Duration,
    /// Wall time of the reference kernel, timed after the build.
    pub reference: Duration,
    /// Wall time spent in the program from the first input to
    /// quiescence, payload generation excluded.
    pub run: Duration,
    /// Wall time the benchmark spent generating inputs.
    pub inject: Duration,
    /// Wall time inside the benchmark's application handlers (traced
    /// iterations only).
    pub app: Duration,
}

impl Outcome {
    pub fn layer(&mut self, name: &'static str, v: f64) {
        self.layers.push((name, v));
    }

    pub fn layer_value(&self, name: &str) -> f64 {
        self.layers
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |(_, v)| *v)
    }

    pub fn completed(&self) -> u64 {
        self.attempted - self.failed
    }

    /// Everything the virtual clock determines, for the check that
    /// repeated (and traced) iterations of one seed agree exactly.
    pub fn fingerprint(&self) -> (u64, u64, u64, u64, u64, u64) {
        let mut h = 0u64;
        for &x in &self.lat {
            h = crate::gen::mix(h ^ x);
        }
        (
            self.attempted,
            self.failed,
            self.payload_bytes,
            self.span.as_nanos(),
            h,
            self.dd_cpu_pct.to_bits(),
        )
    }
}

/// Accumulates wall time spent inside application handlers. Disabled
/// (no clock reads) outside traced iterations.
#[derive(Clone)]
pub struct AppTimer(Option<Rc<Cell<Duration>>>);

pub struct AppSpan<'a>(Option<(&'a Cell<Duration>, Instant)>);

impl AppTimer {
    pub fn new(on: bool) -> AppTimer {
        AppTimer(on.then(|| Rc::new(Cell::new(Duration::ZERO))))
    }

    pub fn span(&self) -> AppSpan<'_> {
        AppSpan(self.0.as_deref().map(|c| (c, Instant::now())))
    }

    pub fn total(&self) -> Duration {
        self.0.as_ref().map_or(Duration::ZERO, |c| c.get())
    }
}

impl Drop for AppSpan<'_> {
    fn drop(&mut self) {
        if let Some((c, t)) = self.0 {
            c.set(c.get() + t.elapsed());
        }
    }
}

/// Called between the build and the first input. Times the reference
/// kernel there, so the build before it does not follow the kernel's
/// allocations, and clears the profiler, so a traced iteration's phase
/// times cover exactly the window `Outcome::run` measures.
pub fn built(out: &mut Outcome, traced: bool) {
    out.reference = crate::reference::time();
    if traced {
        kite_prof::reset();
    }
}
