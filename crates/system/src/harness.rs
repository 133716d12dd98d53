//! The driver-domain harness both scenarios run on: [`DriverDomain`].
//!
//! Kite's netback and blkback share one backend-invocation path (a
//! xenstore watch wakes the backend manager, which instantiates the
//! backend and walks the xenbus handshake), one driver-domain lifecycle
//! (boot, crash or livelock, detection, replacement boot, reconnect) and
//! one set of observability hooks. This module owns all of that once:
//!
//! * the [`Hypervisor`], the event loop and its scheduler, the driver
//!   domain's [`CpuPool`] and the guest's vCPUs;
//! * bring-up: domain creation, PCI passthrough, backend manager,
//!   provisioning, queue advertisement and the handshake to `Connected`
//!   — the same routine at first boot and after every restart;
//! * fault injection, the heartbeat/probe watchdog and crash recovery;
//! * tracing, request tracing, the sampler, the SLO and `kitetop`.
//!
//! What differs between the network and the storage domain — the data
//! path — plugs in through [`DataPath`], statically dispatched: the
//! backend driver behind [`BackendDevice`], the frontend, the device
//! model and the events only that data path schedules.

use std::ops::{Deref, DerefMut};

use kite_core::{
    provision_device, BackendDevice, BackendManager, BackendStats, DeviceLifecycle, RecoveryStats,
};
use kite_health::{
    slo, BreachAttribution, DetectionMode, HealthMonitor, HealthState, HeartbeatPublisher,
    MonitorConfig, ProgressSample, SloConfig, TopRow, TopSnapshot,
};
use kite_rumprun::BootSequence;
use kite_sim::{Cpu, CpuPool, EventSched, Histogram, Nanos, Pcg, Scheduler, SchedulerKind};
use kite_trace::{EventKind, TimeSeriesSampler, DEFAULT_REQ_CAPACITY};
use kite_xen::xenbus::MQ_MAX_QUEUES_KEY;
use kite_xen::{
    Bdf, CopyMode, DevicePaths, DomainId, DomainKind, DomainState, FaultPlan, Hypervisor,
    Notification, PciDevice, Port, XenbusState,
};

use crate::config::SystemConfig;
use crate::netsys::BackendOs;

/// Number of vCPUs of the guest (Ubuntu DomU) in every scenario.
const GUEST_VCPUS: u32 = 22;

/// An event on the harness's queue: the lifecycle and health events it
/// handles itself, plus the data path's own events it only schedules.
pub enum Event<E> {
    /// Event-channel notification arrives at a domain.
    Irq {
        /// Receiving domain.
        dom: DomainId,
        /// Receiving port.
        port: Port,
    },
    /// The driver domain dies (fault injection / `xl destroy`).
    DriverCrash,
    /// The driver domain livelocks: its data path stops making progress
    /// while the domain (and its heartbeat task) keeps running.
    DriverHang,
    /// One backend queue's thread wedges (stuck kthread): the domain and
    /// its other queues keep working, only this queue stops.
    QueueWedge(usize),
    /// The replacement driver domain finished booting.
    DriverRestarted,
    /// The driver domain's heartbeat task publishes its next beat.
    BeatTick,
    /// Dom0's health monitor runs its next probe.
    ProbeTick,
    /// The time-series sampler takes its next snapshot.
    SampleTick,
    /// An event of the data path.
    Data(E),
}

/// What a driver domain's data path plugs into the harness.
///
/// Every hook receives the whole [`DriverDomain`], so a data path reads
/// and schedules through the same state the harness keeps; the harness
/// calls the hooks at fixed points of bring-up, dispatch, recovery and
/// reporting.
pub trait DataPath: Sized {
    /// The backend driver the domain runs.
    type Backend: BackendDevice;
    /// Events only this data path schedules and handles.
    type Event;
    /// The driver domain's name under Kite (Linux runs `ubuntu-dd`).
    const KITE_DOMAIN: &'static str;

    /// The physical device passed through to the driver domain.
    fn pci_device() -> PciDevice;

    /// Profiling phase for dispatching `ev`.
    fn phase(ev: &Self::Event) -> kite_prof::Phase;

    /// Bring-up: starts the driver domain's applications, right after
    /// the device is assigned to the (new) domain.
    fn start_apps(sys: &mut DriverDomain<Self>);

    /// Bring-up: advertises offloads under the freshly provisioned
    /// backend path, before the frontend negotiates.
    fn advertise(_sys: &mut DriverDomain<Self>) {}

    /// Bring-up: connects the guest's frontend (publishes its rings).
    fn connect_frontend(sys: &mut DriverDomain<Self>);

    /// Bring-up: the backend just connected; finish both ends before the
    /// frontend switches to `Connected`.
    fn backend_connected(sys: &mut DriverDomain<Self>);

    /// Recovery: the replacement backend is connected; replay everything
    /// parked during the outage.
    fn resume(sys: &mut DriverDomain<Self>, now: Nanos);

    /// Recovery: a backend instance was abandoned (crash or detected
    /// livelock) — account for the work that died with it.
    fn backend_lost(sys: &mut DriverDomain<Self>, dev: &Self::Backend);

    /// Recovery: the toolstack detected the failure; retire the frontend
    /// and park its unacknowledged work for replay.
    fn retire_frontend(sys: &mut DriverDomain<Self>);

    /// Dispatches one data-path event.
    fn handle(sys: &mut DriverDomain<Self>, now: Nanos, ev: Self::Event);

    /// An event-channel interrupt reached the guest.
    fn guest_irq(sys: &mut DriverDomain<Self>, now: Nanos);

    /// Runs the backend's threads to exhaustion starting at `now`.
    fn run_backend(sys: &mut DriverDomain<Self>, now: Nanos);

    /// Extra dispatch latency of a driver vCPU idle for `idle`.
    fn driver_wake(sys: &DriverDomain<Self>, idle: Nanos) -> Nanos;

    /// Declares the sampler's columns, the harness's `health` gauge
    /// among them.
    fn sample_columns(sampler: TimeSeriesSampler, nqueues: u32) -> TimeSeriesSampler;

    /// One sample row in column order; `health` is the harness's gauge.
    fn sample_row(sys: &DriverDomain<Self>, health: u64) -> Vec<u64>;

    /// Fills the load columns of the driver domain's `kitetop` row over
    /// `secs` seconds of virtual time.
    fn top_load(sys: &DriverDomain<Self>, row: &mut TopRow, secs: f64);
}

/// Profiling phase for an event dispatch, by event kind.
fn phase_of<P: DataPath>(ev: &Event<P::Event>) -> kite_prof::Phase {
    use kite_prof::Phase;
    match ev {
        Event::Irq { .. } => Phase::DispatchIrq,
        Event::DriverCrash | Event::DriverHang | Event::QueueWedge(_) => Phase::DispatchFault,
        Event::DriverRestarted => Phase::DispatchRecovery,
        Event::BeatTick | Event::ProbeTick => Phase::DispatchHealthTick,
        Event::SampleTick => Phase::DispatchSample,
        Event::Data(ev) => P::phase(ev),
    }
}

/// One driver domain serving one guest device, with its data path `P`.
///
/// The data path's own state is reachable through `Deref` (e.g.
/// `sys.metrics`, `sys.nvme`).
pub struct DriverDomain<P: DataPath> {
    /// The simulated Xen machine.
    pub hv: Hypervisor,
    /// Which OS the driver domain runs.
    pub os: BackendOs,
    /// Crash/restart recovery accounting.
    pub recovery: RecoveryStats,
    /// Deterministic RNG stream (boot-time samples, workload jitter).
    pub rng: Pcg,
    pub(crate) queue: EventSched<Event<P::Event>>,
    pub(crate) driver: DomainId,
    pub(crate) guest: DomainId,
    /// Device queues: driver vCPUs, rings and event channels each.
    pub(crate) nqueues: u32,
    pub(crate) driver_cpus: CpuPool,
    guest_cpus: Vec<Cpu>,
    guest_rr: usize,
    pub(crate) guest_last_end: Nanos,
    pci_bdf: Bdf,
    mgr: BackendManager,
    pub(crate) paths: DevicePaths,
    pub(crate) backend: DeviceLifecycle<P::Backend>,
    stats_base: <P::Backend as BackendDevice>::Stats,
    copy_mode: CopyMode,
    boot: BootSequence,
    events_processed: u64,
    mode: DetectionMode,
    monitor: Option<HealthMonitor>,
    heartbeat: Option<HeartbeatPublisher>,
    /// The driver domain is livelocked: alive and beating, data path dead.
    pub(crate) hung: bool,
    /// At least one backend queue is wedged (partial failure injected).
    queue_wedged: bool,
    /// A detected outage is being recovered (detect → reconnect window).
    recovering: bool,
    /// Injected fault events still scheduled; keeps the watchdog ticking.
    pending_faults: u32,
    slo_cfg: SloConfig,
    pub(crate) latency_hist: Histogram,
    sampler: Option<TimeSeriesSampler>,
    /// Stage attribution of the most recent SLO p99 breach the watchdog
    /// observed (request tracing on), for `kitetop`/health reporting.
    last_breach: Option<BreachAttribution>,
    /// The data path's state.
    pub(crate) dp: P,
}

impl<P: DataPath> Deref for DriverDomain<P> {
    type Target = P;

    fn deref(&self) -> &P {
        &self.dp
    }
}

impl<P: DataPath> DerefMut for DriverDomain<P> {
    fn deref_mut(&mut self) -> &mut P {
        &mut self.dp
    }
}

/// Creates the driver domain for `os` with one vCPU per queue.
fn create_driver<P: DataPath>(hv: &mut Hypervisor, os: BackendOs, nqueues: u32) -> DomainId {
    let (name, mem) = match os {
        BackendOs::Kite => (P::KITE_DOMAIN, 1024),
        BackendOs::Linux => ("ubuntu-dd", 2048),
    };
    hv.create_domain(name, DomainKind::Driver, mem, nqueues)
}

impl<P: DataPath> DriverDomain<P> {
    /// Builds the machine — Dom0, the driver domain, the guest, the
    /// passthrough device — and brings the device pair up to
    /// `Connected` on both ends. `backend_cfg` parameterizes every
    /// backend incarnation.
    pub(crate) fn build(
        cfg: &SystemConfig,
        dp: P,
        backend_cfg: <P::Backend as BackendDevice>::Config,
    ) -> DriverDomain<P> {
        let (os, nqueues) = (cfg.os, cfg.queues);
        let mut hv = Hypervisor::new();
        hv.create_domain("Domain-0", DomainKind::Dom0, 8192, 4);
        let driver = create_driver::<P>(&mut hv, os, nqueues);
        let guest = hv.create_domain("guest", DomainKind::Guest, 5120, GUEST_VCPUS);
        let pci = P::pci_device();
        let pci_bdf = pci.bdf;
        hv.pci.add_device(pci);
        hv.pci.make_assignable(pci_bdf).expect("fresh device");
        let kind = <P::Backend as BackendDevice>::KIND;
        let paths = DevicePaths::new(guest, driver, kind, 0);
        let mut sys = DriverDomain {
            hv,
            os,
            recovery: RecoveryStats::default(),
            rng: Pcg::seeded(cfg.seed),
            queue: EventSched::new(cfg.scheduler),
            driver,
            guest,
            nqueues,
            driver_cpus: CpuPool::new(nqueues as usize),
            guest_cpus: (0..GUEST_VCPUS).map(|_| Cpu::new()).collect(),
            guest_rr: 0,
            guest_last_end: Nanos::ZERO,
            pci_bdf,
            mgr: BackendManager::new(driver, kind),
            backend: DeviceLifecycle::new(paths.clone(), backend_cfg),
            paths,
            stats_base: Default::default(),
            copy_mode: CopyMode::default(),
            boot: os.boot(),
            events_processed: 0,
            mode: DetectionMode::Oracle,
            monitor: None,
            heartbeat: None,
            hung: false,
            queue_wedged: false,
            recovering: false,
            pending_faults: 0,
            slo_cfg: SloConfig::default(),
            latency_hist: Histogram::default(),
            sampler: None,
            last_breach: None,
            dp,
        };
        sys.bring_up();
        sys
    }

    /// Applies the config's observability, watchdog and copy-mode
    /// settings to a freshly built system.
    pub(crate) fn configure(&mut self, cfg: &SystemConfig) {
        if let Some(cap) = cfg.tracing {
            self.enable_tracing(cap);
        }
        if let Some(n) = cfg.req_tracing {
            self.enable_req_tracing(n);
        }
        if cfg.copy_mode != CopyMode::default() {
            self.set_copy_mode(cfg.copy_mode);
        }
        if let Some(slo) = cfg.slo {
            self.set_slo(slo);
        }
        if let Some(mon) = cfg.watchdog {
            self.enable_watchdog(mon);
        }
        if cfg.profiling {
            kite_prof::enable();
        }
        if let Some((every, cap)) = cfg.sampling {
            self.enable_sampling(every, cap);
        }
    }

    /// Connects the device pair on the current driver domain: assigns
    /// the passthrough device, starts the backend manager, provisions
    /// the pair, advertises the queue budget, connects both ends and
    /// switches the frontend to `Connected`. The same routine runs at
    /// first boot and after every driver-domain restart.
    fn bring_up(&mut self) {
        let driver = self.driver;
        let kind = <P::Backend as BackendDevice>::KIND;
        self.hv
            .pci
            .assign(self.pci_bdf, driver)
            .expect("device in the assignable pool");
        P::start_apps(self);
        self.mgr = BackendManager::new(driver, kind);
        self.mgr.start(&mut self.hv).expect("watch");
        self.paths = DevicePaths::new(self.guest, driver, kind, 0);
        provision_device(&mut self.hv, &self.paths).expect("provision");
        if self.nqueues > 1 {
            // The toolstack advertises how many queues this backend
            // accepts; the frontend reads it and negotiates.
            let be = self.paths.backend();
            self.hv
                .store
                .write(
                    DomainId::DOM0,
                    None,
                    &format!("{be}/{MQ_MAX_QUEUES_KEY}"),
                    &self.nqueues.to_string(),
                )
                .expect("advertise queues");
        }
        P::advertise(self);
        self.mgr.drain_events(&mut self.hv).expect("scan");
        P::connect_frontend(self);
        let mut ready = self.mgr.drain_events(&mut self.hv).expect("events");
        assert_eq!(ready.len(), 1, "frontend discovered via watch event");
        let ready = ready.remove(0);
        if *self.backend.paths() != ready {
            // A replacement domain: the slot follows the pair to it.
            self.backend
                .retarget(&mut self.hv, ready)
                .expect("slot empty");
        }
        self.backend
            .connect(&mut self.hv)
            .expect("backend connect")
            .set_copy_mode(self.copy_mode);
        P::backend_connected(self);
        self.hv
            .switch_state(
                self.guest,
                &self.paths.frontend_state(),
                XenbusState::Connected,
            )
            .expect("frontend connect");
    }

    /// Current virtual time.
    pub fn now(&self) -> Nanos {
        self.queue.now()
    }

    /// Schedules a data-path event at `t`.
    pub(crate) fn schedule(&mut self, t: Nanos, ev: P::Event) {
        self.queue.schedule_at(t, Event::Data(ev));
    }

    /// Schedules a driver-domain crash at `t` (kill injection).
    pub fn crash_driver_at(&mut self, t: Nanos) {
        self.pending_faults += 1;
        self.queue.schedule_at(t, Event::DriverCrash);
    }

    /// Schedules a driver-domain livelock at `t` (hang injection).
    pub fn hang_driver_at(&mut self, t: Nanos) {
        self.pending_faults += 1;
        self.queue.schedule_at(t, Event::DriverHang);
    }

    /// Schedules a single-queue wedge at `t`: queue `q`'s backend thread
    /// stops running while the domain, its heartbeat, and every other
    /// queue stay healthy. Only per-queue stall detection catches this
    /// partial failure.
    pub fn wedge_queue_at(&mut self, t: Nanos, q: usize) {
        self.pending_faults += 1;
        self.queue.schedule_at(t, Event::QueueWedge(q));
    }

    /// Arms a fault plan: per-op fault rates go live on the hypervisor,
    /// and `kill_at` / `hang_at` times (if set) schedule the
    /// driver-domain crash or livelock.
    pub fn inject_faults(&mut self, mut plan: FaultPlan) {
        if let Some(t) = plan.take_kill() {
            self.crash_driver_at(t);
        }
        if let Some(t) = plan.take_hang() {
            self.hang_driver_at(t);
        }
        self.hv.faults = plan;
    }

    /// Switches failure detection from the oracle to the active watchdog:
    /// the driver domain starts publishing heartbeats and Dom0 starts
    /// probing them (plus ring progress and the SLO). Call before
    /// injecting faults so the first probe precedes the first fault.
    pub fn enable_watchdog(&mut self, cfg: MonitorConfig) {
        let now = self.queue.now();
        self.mode = DetectionMode::Watchdog;
        self.monitor = Some(HealthMonitor::new(DomainId::DOM0, self.driver, cfg, now));
        self.heartbeat = Some(HeartbeatPublisher::new(self.driver));
        self.queue
            .schedule_at(now + cfg.heartbeat_interval, Event::BeatTick);
        self.queue
            .schedule_at(now + cfg.probe_interval, Event::ProbeTick);
    }

    /// Starts the time-series sampler: every `every` of virtual time a
    /// `SampleTick` snapshots the data path's counters (as deltas) and
    /// gauges plus the watchdog health state into a bounded ring of
    /// `capacity` samples (oldest evicted first).
    ///
    /// The tick re-arms only while other events are still pending, so
    /// [`run_to_quiescence`](Self::run_to_quiescence) terminates: the
    /// sampler rides along with the workload instead of keeping the
    /// clock alive on its own.
    pub fn enable_sampling(&mut self, every: Nanos, capacity: usize) {
        let sampler = TimeSeriesSampler::new(every, capacity);
        self.sampler = Some(P::sample_columns(sampler, self.nqueues));
        let now = self.queue.now();
        self.queue.schedule_at(now + every, Event::SampleTick);
    }

    /// The time series recorded by [`enable_sampling`](Self::enable_sampling).
    pub fn sampler(&self) -> Option<&TimeSeriesSampler> {
        self.sampler.as_ref()
    }

    fn sample_now(&mut self, at: Nanos) {
        if self.sampler.is_none() {
            return;
        }
        let health = match self.health() {
            None | Some(HealthState::Healthy) => 0u64,
            Some(HealthState::Suspect { .. }) => 1,
            _ => 2,
        };
        let row = P::sample_row(self, health);
        if let Some(sampler) = self.sampler.as_mut() {
            sampler.record(at, &row);
        }
    }

    /// Sets the request-latency SLO the watchdog folds into its verdict.
    pub fn set_slo(&mut self, cfg: SloConfig) {
        self.slo_cfg = cfg;
    }

    /// The active failure-detection mode.
    pub fn detection_mode(&self) -> DetectionMode {
        self.mode
    }

    /// The health monitor's current verdict, when the watchdog is on.
    pub fn health(&self) -> Option<HealthState> {
        self.monitor.as_ref().map(|m| m.state())
    }

    /// Whether the backend is currently up and serving.
    pub fn backend_alive(&self) -> bool {
        self.backend.is_connected() && !self.hung
    }

    /// Queues on the currently connected backend (0 while it is down).
    pub fn queue_count(&self) -> usize {
        self.backend.device().map_or(0, |dev| dev.queue_count())
    }

    /// Runs the event loop until `deadline`.
    pub fn run_until(&mut self, deadline: Nanos) {
        while let Some(t) = self.queue.peek_time() {
            if t > deadline {
                break;
            }
            let (now, ev) = self.queue.pop().expect("peeked");
            self.events_processed += 1;
            self.handle(now, ev);
        }
    }

    /// Runs until no events remain.
    pub fn run_to_quiescence(&mut self) {
        while let Some((now, ev)) = self.queue.pop() {
            self.events_processed += 1;
            self.handle(now, ev);
        }
    }

    // ---- internals -----------------------------------------------------

    /// Schedules delivery of an event-channel notification raised at
    /// `done`: the one pattern every evtchn kick funnels through.
    pub(crate) fn sched_irq(&mut self, done: Nanos, n: Option<Notification>) {
        if let Some(n) = n {
            let delay = self.hv.irq_delay();
            self.queue.schedule_at(
                done + delay,
                Event::Irq {
                    dom: n.domain,
                    port: n.port,
                },
            );
        }
    }

    /// Charges `cost` of guest work starting at `now`: least-loaded
    /// dispatch over the DomU's vCPUs. Returns when the work finishes.
    pub(crate) fn guest_cpu_run(&mut self, now: Nanos, cost: Nanos) -> Nanos {
        let mut best = self.guest_rr % self.guest_cpus.len();
        let mut best_free = Nanos::MAX;
        for (i, c) in self.guest_cpus.iter().enumerate() {
            if c.free_at() < best_free {
                best_free = c.free_at();
                best = i;
            }
        }
        self.guest_rr += 1;
        let done = self.guest_cpus[best].run(now, cost);
        self.guest_last_end = self.guest_last_end.max(done);
        done
    }

    /// The driver domain dies mid-flight. No teardown code runs in it —
    /// Xen reclaims its grant mappings, ports and PCI devices, and the
    /// domain's heartbeat stops with it. Under the oracle, detection is
    /// immediate; under the watchdog, the frontend keeps talking to the
    /// dead backend until Dom0's monitor notices the silence.
    fn kill_driver(&mut self, now: Nanos) {
        if !self.backend.is_connected() || self.recovering {
            return; // already down
        }
        self.hung = false; // a dead domain no longer livelocks
        self.recovery.record_crash(now);
        let dead = self.driver.0;
        self.hv
            .trace
            .emit_with(dead, || EventKind::Milestone { what: "kill" });
        self.abandon_backend();
        self.hv
            .destroy_domain(self.driver)
            .expect("driver was alive");
        if self.mode == DetectionMode::Oracle {
            self.detect_failure(now);
        }
    }

    /// Abandons the connected backend (no teardown runs in a dead or
    /// livelocked domain), keeping its lifetime stats.
    fn abandon_backend(&mut self) {
        if let Some(dev) = self.backend.abandon(&mut self.hv) {
            P::backend_lost(self, &dev);
            self.stats_base.merge(&dev.stats());
        }
    }

    /// The driver domain livelocks (e.g. an interrupt storm or a spinning
    /// thread): the domain stays alive — and keeps publishing heartbeats
    /// — but the backend stops consuming requests. Only the watchdog's
    /// ring-progress detector can catch this; the oracle variant detects
    /// it immediately, for ablation.
    fn hang_driver(&mut self, now: Nanos) {
        if !self.backend.is_connected() || self.hung || self.recovering {
            return;
        }
        self.hung = true;
        self.recovery.record_hang(now);
        let dom = self.driver.0;
        self.hv
            .trace
            .emit_with(dom, || EventKind::Milestone { what: "hang" });
        if self.mode == DetectionMode::Oracle {
            self.detect_failure(now);
        }
    }

    /// Dom0's toolstack learns the backend failed (oracle: at the fault;
    /// watchdog: when the monitor's verdict turns `Failed`): it destroys
    /// the domain if it still runs (livelock), walks the xenbus states so
    /// the frontend sees the device disappear, harvests what the dead
    /// backend never acknowledged, and schedules the replacement boot.
    fn detect_failure(&mut self, now: Nanos) {
        if self.recovering {
            return; // recovery already underway
        }
        self.recovering = true;
        self.abandon_backend();
        if self.hv.domains.alive(self.driver) {
            let _ = self.hv.destroy_domain(self.driver);
        }
        self.hung = false;
        self.queue_wedged = false;
        let d0 = DomainId::DOM0;
        let bs = self.paths.backend_state();
        let _ = self.hv.switch_state(d0, &bs, XenbusState::Closing);
        let _ = self.hv.switch_state(d0, &bs, XenbusState::Closed);
        self.recovery.record_detect(now);
        self.hv
            .trace
            .emit_with(d0.0, || EventKind::Milestone { what: "detect" });
        // The frontend observes `Closed`, salvages its unacknowledged
        // work for replay and retires the device; `Closed` is what lets
        // the toolstack re-provision the pair back to `Initialising`.
        P::retire_frontend(self);
        let fs = self.paths.frontend_state();
        let _ = self.hv.switch_state(self.guest, &fs, XenbusState::Closing);
        let _ = self.hv.switch_state(self.guest, &fs, XenbusState::Closed);
        let boot = self.boot.sample(&mut self.rng);
        self.queue.schedule_at(now + boot, Event::DriverRestarted);
    }

    /// The replacement driver domain finished booting: fresh domain id
    /// (Xen never reuses them), device re-assigned, pair re-provisioned
    /// and both ends reconnected through the same lifecycle slot.
    /// Everything queued during the outage drains.
    fn driver_restarted(&mut self, now: Nanos) {
        let driver = create_driver::<P>(&mut self.hv, self.os, self.nqueues);
        self.driver = driver;
        self.hv
            .trace
            .emit_with(driver.0, || EventKind::Milestone { what: "reboot" });
        self.driver_cpus = CpuPool::new(self.nqueues as usize);
        self.bring_up();
        self.recovery.reconnects += 1;
        self.hv
            .trace
            .emit_with(driver.0, || EventKind::Milestone { what: "reconnect" });
        if let Some(t0) = self.recovery.last_crash_at {
            self.recovery.downtime += now - t0;
        }
        self.recovering = false;
        if self.mode == DetectionMode::Watchdog {
            // The replacement domain's heartbeat task beats as soon as it
            // boots, and the monitor re-aims at the new domain id.
            let mut hb = HeartbeatPublisher::new(driver);
            let _ = hb.beat(&mut self.hv);
            self.heartbeat = Some(hb);
            if let Some(mon) = self.monitor.as_mut() {
                mon.retarget(&mut self.hv, driver, now);
            }
        }
        P::resume(self, now);
    }

    /// An event-channel interrupt in the driver domain: the handler runs
    /// on the vCPU the owning queue is pinned to, then wakes the
    /// backend's threads.
    fn driver_irq(&mut self, now: Nanos, port: Port) {
        if self.hung {
            return; // a livelocked handler never runs
        }
        let Some(dev) = self.backend.device() else {
            return; // stale interrupt
        };
        let q = (0..dev.queue_count())
            .find(|&q| dev.port_of(q) == port)
            .unwrap_or(0);
        let cost = dev.irq_handler_cost();
        let idle = now.saturating_sub(self.driver_cpus.free_at(q));
        let wake = P::driver_wake(self, idle);
        let t = self.driver_cpus.run_on(q, now, wake + cost);
        P::run_backend(self, t);
    }

    fn handle(&mut self, now: Nanos, ev: Event<P::Event>) {
        let _prof = kite_prof::span(phase_of::<P>(&ev));
        self.hv.trace.set_now(now);
        self.hv.req.set_now(now);
        match ev {
            Event::Data(ev) => P::handle(self, now, ev),
            Event::Irq { dom, port } => {
                let _ = self.hv.evtchn.clear_pending(dom, port);
                if dom == self.driver {
                    self.driver_irq(now, port);
                } else if dom == self.guest {
                    P::guest_irq(self, now);
                }
            }
            Event::DriverCrash => {
                self.pending_faults = self.pending_faults.saturating_sub(1);
                self.kill_driver(now);
            }
            Event::DriverHang => {
                self.pending_faults = self.pending_faults.saturating_sub(1);
                self.hang_driver(now);
            }
            Event::QueueWedge(q) => {
                self.pending_faults = self.pending_faults.saturating_sub(1);
                if let Some(dev) = self.backend.device_mut() {
                    if q < dev.queue_count() {
                        dev.set_queue_wedged(q, true);
                        self.queue_wedged = true;
                        self.hv
                            .trace
                            .emit_with(self.driver.0, || EventKind::Milestone { what: "wedge" });
                    }
                }
            }
            Event::DriverRestarted => self.driver_restarted(now),
            Event::BeatTick => {
                // The heartbeat task runs inside the driver domain, so it
                // survives a livelock — but dies with the domain.
                if let Some(hb) = self.heartbeat.as_mut() {
                    let _ = hb.beat(&mut self.hv);
                }
                if self.watch_live() {
                    if let Some(mon) = self.monitor.as_ref() {
                        self.queue
                            .schedule_at(now + mon.config().heartbeat_interval, Event::BeatTick);
                    }
                }
            }
            Event::ProbeTick => {
                let Some(mut mon) = self.monitor.take() else {
                    return;
                };
                let samples: Vec<ProgressSample> = self
                    .backend
                    .device()
                    .map(|dev| {
                        dev.queue_progress(&self.hv)
                            .into_iter()
                            .map(|(consumed, pending)| ProgressSample { consumed, pending })
                            .collect()
                    })
                    .unwrap_or_default();
                let slo_report = slo::evaluate(&self.latency_hist, &self.slo_cfg);
                let slo_ok = !slo_report.breached;
                if slo_report.breached {
                    // Name the stage dominating the tail while it breaches
                    // (needs request tracing; None otherwise).
                    self.last_breach = slo::attribute(&self.hv.req);
                }
                let verdict = mon.probe_queues(&mut self.hv, now, &samples, slo_ok);
                let interval = mon.config().probe_interval;
                self.monitor = Some(mon);
                if verdict.is_failed() {
                    self.detect_failure(now);
                }
                if self.watch_live() {
                    self.queue.schedule_at(now + interval, Event::ProbeTick);
                }
            }
            Event::SampleTick => {
                self.sample_now(now);
                // Re-arm only while the workload is still producing
                // events, so quiescence is reachable.
                if let Some(every) = self.sampler.as_ref().map(|s| s.interval()) {
                    if !self.queue.is_empty() {
                        self.queue.schedule_at(now + every, Event::SampleTick);
                    }
                }
            }
        }
    }

    /// Whether the watchdog's ticks should keep rescheduling themselves.
    ///
    /// A real watchdog polls forever; here the ticks stay armed only
    /// while a fault can still need detecting (one is scheduled, the
    /// backend is hung/down, or recovery is in flight) so that
    /// [`run_to_quiescence`](Self::run_to_quiescence) terminates once the
    /// system settles into a healthy steady state.
    fn watch_live(&self) -> bool {
        self.mode == DetectionMode::Watchdog
            && (self.pending_faults > 0
                || self.hung
                || self.queue_wedged
                || self.recovering
                || !self.backend.is_connected())
    }

    // ---- measurement accessors ------------------------------------------

    /// Events processed (diagnostics).
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// The scheduler backend this system's event loop runs on.
    pub fn scheduler_kind(&self) -> SchedulerKind {
        self.queue.kind()
    }

    /// Turns on structured tracing with an event-ring capacity of `cap`.
    pub fn enable_tracing(&mut self, cap: usize) {
        self.hv.trace.enable(cap);
    }

    /// Turns on per-request stage tracing: every `sample_every`-th
    /// injected request is tagged with a [`kite_xen::ReqId`] and followed
    /// through the stack, feeding per-stage latency histograms, the
    /// `repro lat` waterfalls and Perfetto flow arrows.
    pub fn enable_req_tracing(&mut self, sample_every: u64) {
        self.hv.req.enable(sample_every, DEFAULT_REQ_CAPACITY);
    }

    /// Stage attribution of the most recent SLO breach the watchdog saw,
    /// when request tracing was on to supply per-stage histograms.
    pub fn last_breach(&self) -> Option<&BreachAttribution> {
        self.last_breach.as_ref()
    }

    /// The histogram of request latencies the SLO monitor evaluates
    /// (echo RTTs on the network path, logical I/Os on storage).
    pub fn latency_histogram(&self) -> &Histogram {
        &self.latency_hist
    }

    /// Driver-domain mean vCPU utilization over a window.
    pub fn driver_cpu_percent(&self, window: Nanos) -> f64 {
        self.driver_cpus.utilization_percent(window)
    }

    /// Guest mean vCPU utilization over a window (sysstat style).
    pub fn guest_cpu_percent(&self, window: Nanos) -> f64 {
        let sum: f64 = self
            .guest_cpus
            .iter()
            .map(|c| c.utilization_percent(window))
            .sum();
        sum / self.guest_cpus.len() as f64
    }

    /// Backend statistics, summed across backend incarnations.
    pub(crate) fn backend_stats(&self) -> <P::Backend as BackendDevice>::Stats {
        let mut s = self.stats_base;
        if let Some(dev) = self.backend.device() {
            s.merge(&dev.stats());
        }
        s
    }

    /// Switches the backend between batched and single-op grant copies;
    /// the choice survives backend restarts.
    pub fn set_copy_mode(&mut self, mode: CopyMode) {
        self.copy_mode = mode;
        if let Some(dev) = self.backend.device_mut() {
            dev.set_copy_mode(mode);
        }
    }

    /// The driver domain id.
    pub fn driver_domain(&self) -> DomainId {
        self.driver
    }

    /// Freezes a `kitetop` view of every domain (dead incarnations
    /// included) at the current virtual time.
    pub fn top_snapshot(&self) -> TopSnapshot {
        let at = self.queue.now();
        let secs = at.as_secs_f64();
        let mut rows: Vec<TopRow> = self
            .hv
            .domains
            .iter_all()
            .map(|d| {
                let is_driver = d.id == self.driver;
                let (health, beat_age) = match &self.monitor {
                    Some(m) if m.target() == d.id => {
                        let h = match m.state() {
                            HealthState::Suspect { missed } => format!("suspect({missed})"),
                            s => s.name().to_string(),
                        };
                        (h, Some(m.heartbeat_age(at)))
                    }
                    _ => ("-".to_string(), None),
                };
                let (ring_consumed, ring_pending) = match self.backend.device() {
                    Some(dev) if is_driver => dev.progress(&self.hv),
                    _ => (0, 0),
                };
                let mut row = TopRow {
                    dom: d.id.0,
                    name: d.name.clone(),
                    kind: match d.kind {
                        DomainKind::Dom0 => "dom0",
                        DomainKind::Driver => "driver",
                        DomainKind::Guest => "guest",
                    },
                    alive: d.state != DomainState::Dead,
                    health,
                    beat_age,
                    ring_pending,
                    ring_consumed,
                    grants: self.hv.grants.live_grants(d.id),
                    maps: self.hv.grants.active_maps(d.id),
                    evtchns: self.hv.evtchn.open_ports(d.id),
                    req_per_sec: 0.0,
                    mbytes_per_sec: 0.0,
                    rx_dropped: 0,
                    gso_frames: 0,
                    rx_qdepth: Vec::new(),
                    p99_us: self
                        .hv
                        .req
                        .dom_hist(d.id.0)
                        .filter(|h| h.count() > 0)
                        .map(|h| h.quantile(0.99).as_nanos() as f64 / 1000.0),
                };
                if is_driver {
                    P::top_load(self, &mut row, secs);
                }
                row
            })
            .collect();
        rows.sort_by_key(|r| r.dom);
        TopSnapshot { at, rows }
    }
}
