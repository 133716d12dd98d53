//! One builder for both systems: [`SystemConfig`].
//!
//! A single fluent description of a scenario — queue count, copy mode,
//! watchdog, tracing, scheduler, device tuning — that either
//! [`build_net`](SystemConfig::build_net) or
//! [`build_stor`](SystemConfig::build_stor) consumes.

use kite_core::BlkbackTuning;
use kite_devices::{LineRate, NvmeProfile};
use kite_health::{MonitorConfig, SloConfig};
use kite_sim::{Nanos, SchedulerKind};
use kite_xen::CopyMode;

use crate::netsys::{BackendOs, NetSystem};
use crate::storsys::StorSystem;

/// How the PV network path handles segmentation (network systems only).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum GsoMode {
    /// The pre-offload abstraction: the guest stack hands ~4KB chunks
    /// to the ring and no offload keys are negotiated. The default, and
    /// byte-identical to every scenario built before the GSO work.
    #[default]
    Legacy,
    /// Offload explicitly off: the guest segments to wire MTU in
    /// software, so every ring slot is one 1514-byte frame. The honest
    /// no-GSO baseline the ablation compares against.
    Off,
    /// Segmentation offload on: `feature-gso-tcpv4` is advertised and
    /// negotiated, the guest hands up to 64KB super-frames to a
    /// descriptor chain, and the NIC segments to wire MTU (TSO) on
    /// transmit / coalesces on receive (LRO).
    On,
}

/// Describes a full-system scenario; build it into a [`NetSystem`] or a
/// [`StorSystem`].
///
/// ```
/// use kite_system::{BackendOs, SystemConfig};
/// use kite_sim::SchedulerKind;
///
/// let sys = SystemConfig::new(BackendOs::Kite, 42)
///     .queues(4)
///     .scheduler(SchedulerKind::Heap)
///     .tracing(1 << 16)
///     .build_net();
/// assert_eq!(sys.queue_count(), 4);
/// ```
#[derive(Clone, Debug)]
pub struct SystemConfig {
    pub(crate) os: BackendOs,
    pub(crate) seed: u64,
    pub(crate) queues: u32,
    pub(crate) copy_mode: CopyMode,
    pub(crate) watchdog: Option<MonitorConfig>,
    pub(crate) slo: Option<SloConfig>,
    pub(crate) tracing: Option<usize>,
    pub(crate) req_tracing: Option<u64>,
    pub(crate) scheduler: SchedulerKind,
    pub(crate) tuning: BlkbackTuning,
    pub(crate) nvme_profile: Option<NvmeProfile>,
    pub(crate) nvme_max_io_queues: Option<u16>,
    pub(crate) profiling: bool,
    pub(crate) sampling: Option<(Nanos, usize)>,
    pub(crate) gso_mode: GsoMode,
    pub(crate) wire: Option<LineRate>,
}

impl SystemConfig {
    /// Starts a config with the two parameters every scenario needs: the
    /// driver-domain OS and the determinism seed. Everything else
    /// defaults to the paper's canonical single-queue setup.
    pub fn new(os: BackendOs, seed: u64) -> SystemConfig {
        SystemConfig {
            os,
            seed,
            queues: 1,
            copy_mode: CopyMode::default(),
            watchdog: None,
            slo: None,
            tracing: None,
            req_tracing: None,
            scheduler: SchedulerKind::default(),
            tuning: BlkbackTuning::default(),
            nvme_profile: None,
            nvme_max_io_queues: None,
            profiling: false,
            sampling: None,
            gso_mode: GsoMode::default(),
            wire: None,
        }
    }

    /// Number of device queues: `1` (the default, as is `0`) is the
    /// legacy single-queue layout, `n > 1` negotiates `n` ring pairs on
    /// an `n`-vCPU driver domain.
    pub fn queues(mut self, n: u32) -> SystemConfig {
        self.queues = n.max(1);
        self
    }

    /// Grant-copy strategy for the backend data path.
    pub fn copy_mode(mut self, mode: CopyMode) -> SystemConfig {
        self.copy_mode = mode;
        self
    }

    /// Enables the active watchdog (heartbeats + Dom0 probes) from time
    /// zero instead of the failure oracle.
    pub fn watchdog(mut self, cfg: MonitorConfig) -> SystemConfig {
        self.watchdog = Some(cfg);
        self
    }

    /// Sets the request-latency SLO the watchdog folds into its verdict.
    pub fn slo(mut self, cfg: SloConfig) -> SystemConfig {
        self.slo = Some(cfg);
        self
    }

    /// Enables structured tracing with an event-ring capacity of `cap`.
    pub fn tracing(mut self, cap: usize) -> SystemConfig {
        self.tracing = Some(cap);
        self
    }

    /// Enables per-request stage tracing: every `sample_every`-th
    /// injected request is tagged with a `ReqId` and followed through
    /// the stack (ring submit, backend fetch, grant copy, device
    /// residency, IRQ delivery), feeding per-stage latency histograms,
    /// the `repro lat` waterfalls and Perfetto flow arrows. Off by
    /// default; the disabled path allocates nothing.
    pub fn req_tracing(mut self, sample_every: u64) -> SystemConfig {
        self.req_tracing = Some(sample_every);
        self
    }

    /// Picks the scheduler backend (timer wheel by default; the binary
    /// heap is the equivalence oracle).
    pub fn scheduler(mut self, kind: SchedulerKind) -> SystemConfig {
        self.scheduler = kind;
        self
    }

    /// Blkback optimization switches (storage systems only).
    pub fn tuning(mut self, tuning: BlkbackTuning) -> SystemConfig {
        self.tuning = tuning;
        self
    }

    /// NVMe cost profile for the storage device (storage systems only).
    pub fn nvme_profile(mut self, profile: NvmeProfile) -> SystemConfig {
        self.nvme_profile = Some(profile);
        self
    }

    /// Caps the controller's I/O queue pairs (storage systems only).
    /// Rings beyond the cap share queues round-robin, like blk-mq
    /// mapping more contexts than hardware queues.
    pub fn nvme_max_io_queues(mut self, max: u16) -> SystemConfig {
        self.nvme_max_io_queues = Some(max);
        self
    }

    /// Segmentation offload for the network path: `gso(true)` negotiates
    /// `feature-gso-tcpv4` and moves 64KB super-frames over descriptor
    /// chains; `gso(false)` is the honest software-segmentation baseline
    /// (one MTU frame per ring slot). Scenarios that never call this keep
    /// [`GsoMode::Legacy`] — the pre-offload abstraction, byte-identical
    /// to historical runs.
    pub fn gso(mut self, on: bool) -> SystemConfig {
        self.gso_mode = if on { GsoMode::On } else { GsoMode::Off };
        self
    }

    /// Wire speed for the NIC and the client link (network systems
    /// only): 10/25/100GbE profiles that also scale interrupt moderation.
    /// Unset keeps the paper's stock 82599 10GbE device model.
    pub fn wire_profile(mut self, rate: LineRate) -> SystemConfig {
        self.wire = Some(rate);
        self
    }

    /// Turns on the wall-clock self-profiler (`kite-prof`) for the
    /// building thread. Spans opened by the scheduler, dispatch loop and
    /// backends start recording; `kite_prof::report()` reads the result.
    /// Wall-clock numbers are nondeterministic — keep them out of
    /// anything diffed byte-for-byte (see DESIGN.md §14).
    pub fn profiling(mut self, on: bool) -> SystemConfig {
        self.profiling = on;
        self
    }

    /// Enables the virtual-time metrics sampler: one snapshot every
    /// `every`, at most `capacity` samples retained (oldest evicted).
    /// Read the series back with `sys.sampler()`.
    pub fn sampling(mut self, every: Nanos, capacity: usize) -> SystemConfig {
        self.sampling = Some((every, capacity));
        self
    }

    /// Builds the network scenario (client ⇄ NIC ⇄ driver domain ⇄
    /// guest) with this configuration applied.
    pub fn build_net(self) -> NetSystem {
        let mut sys = NetSystem::from_config(&self);
        sys.configure(&self);
        sys
    }

    /// Builds the storage scenario (guest ⇄ blkfront ⇄ driver domain ⇄
    /// NVMe) with this configuration applied.
    pub fn build_stor(self) -> StorSystem {
        let mut sys = StorSystem::from_config(&self);
        sys.configure(&self);
        sys
    }
}
