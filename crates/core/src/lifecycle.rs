//! The unified backend lifecycle API.
//!
//! Netback and blkback used to expose ad-hoc `connect`/`disconnect`
//! pairs; everything that managed them (the backend manager, the system
//! scenarios, the tests) re-implemented the same state walk by hand. This
//! module gives every backend driver one shape:
//!
//! * [`BackendDevice`] — the hooks a driver implements: `connect`,
//!   `suspend` and `close`, plus the per-queue accessors a driver-domain
//!   harness drives every backend through (ports, wedging, IRQ cost,
//!   ring progress, lifetime stats);
//! * [`DeviceLifecycle`] — the state driver that owns one device slot and
//!   performs the legal transitions (connect when the frontend published,
//!   orderly close, crash abandonment, reconnect after a driver-domain
//!   restart — possibly to a *different* backend domain);
//! * [`RecoveryStats`] — what a system scenario reports about outages:
//!   reconnects, downtime, retried and dropped work.

use kite_sim::Nanos;
use kite_trace::EventKind;
use kite_xen::xenbus::read_state;
use kite_xen::{
    CopyMode, DeviceKind, DevicePaths, Hypervisor, Port, Result, XenError, XenbusState,
};

/// Trace identity of a device slot: `<kind>/<frontend-domain>/<index>`.
fn device_label(kind: DeviceKind, paths: &DevicePaths) -> String {
    format!("{}/{}/{}", kind.as_str(), paths.front.0, paths.index)
}

/// Emits a [`EventKind::Lifecycle`] event for a slot transition,
/// attributed to the backend domain.
fn trace_transition(
    hv: &mut Hypervisor,
    kind: DeviceKind,
    paths: &DevicePaths,
    transition: &'static str,
) {
    let back = paths.back.0;
    hv.trace.emit_with(back, || EventKind::Lifecycle {
        device: device_label(kind, paths),
        transition,
    });
}

/// Lifetime counters a backend instance keeps. The system layer folds
/// each dead incarnation's counters into a running base so totals
/// survive driver-domain restarts.
pub trait BackendStats: Copy + Default {
    /// Folds another instance's counters into this one.
    fn merge(&mut self, other: &Self);
}

/// The lifecycle hooks every backend driver implements.
///
/// Every backend runs one or more queues (netback Tx/Rx pairs, blkback
/// rings), each with its own event channel and driver vCPU; the queue
/// accessors below are what a driver-domain harness needs to route
/// interrupts, inject per-queue faults and probe ring progress without
/// knowing which driver it hosts.
pub trait BackendDevice: Sized {
    /// Everything `connect` needs besides the device pair.
    type Config: Clone;
    /// Lifetime counters of one instance.
    type Stats: BackendStats;
    /// The xenstore device kind this driver serves.
    const KIND: DeviceKind;

    /// Connects to a frontend that has published its details and flips
    /// the backend state to `Connected`.
    fn connect(hv: &mut Hypervisor, paths: &DevicePaths, cfg: &Self::Config) -> Result<Self>;

    /// The device pair this instance serves.
    fn device_paths(&self) -> DevicePaths;

    /// Quiesces the device and announces `Closing`; resources stay held.
    fn suspend(&mut self, hv: &mut Hypervisor) -> Result<()>;

    /// Full teardown: releases every resource, walks the backend state to
    /// `Closed`.
    fn close(self, hv: &mut Hypervisor) -> Result<()>;

    /// Instance statistics.
    fn stats(&self) -> Self::Stats;

    /// Number of negotiated queues.
    fn queue_count(&self) -> usize;

    /// Queue `q`'s backend-local event-channel port.
    fn port_of(&self, q: usize) -> Port;

    /// Switches between batched and single-op grant copies (ablation).
    fn set_copy_mode(&mut self, mode: CopyMode);

    /// Wedges (or unwedges) queue `q`'s thread — the fault-injection
    /// hook behind the "one queue stuck, domain still beating" scenario.
    fn set_queue_wedged(&mut self, q: usize, wedged: bool);

    /// The cost of the event-channel interrupt handler itself: ack the
    /// port and wake the queue's thread. Nothing else happens in IRQ
    /// context — the paper's central latency argument.
    fn irq_handler_cost(&self) -> Nanos;

    /// Per-queue ring-progress watermarks: `(consumed, pending)` for
    /// each queue. `consumed` is the queue's lifetime consumer watermark
    /// — it only moves when the queue's thread actually runs, so a health
    /// monitor comparing successive samples can tell a livelocked queue
    /// from an idle one. `pending` counts work not yet picked up.
    fn queue_progress(&self, hv: &Hypervisor) -> Vec<(u64, u64)>;

    /// Ring-progress watermarks summed across queues.
    fn progress(&self, hv: &Hypervisor) -> (u64, u64) {
        self.queue_progress(hv)
            .into_iter()
            .fold((0, 0), |(c, p), (qc, qp)| (c + qc, p + qp))
    }
}

/// Drives one [`BackendDevice`] slot through its lifecycle.
pub struct DeviceLifecycle<D: BackendDevice> {
    paths: DevicePaths,
    cfg: D::Config,
    device: Option<D>,
    /// Successful connects performed over this slot's lifetime.
    pub connects: u64,
}

impl<D: BackendDevice> DeviceLifecycle<D> {
    /// Creates an empty (disconnected) slot for the device pair.
    pub fn new(paths: DevicePaths, cfg: D::Config) -> DeviceLifecycle<D> {
        DeviceLifecycle {
            paths,
            cfg,
            device: None,
            connects: 0,
        }
    }

    /// The device pair this slot serves.
    pub fn paths(&self) -> &DevicePaths {
        &self.paths
    }

    /// Points the slot at a new device pair — the driver-domain restart
    /// case, where the replacement backend has a fresh domain id. Only
    /// legal while disconnected.
    pub fn retarget(&mut self, hv: &mut Hypervisor, paths: DevicePaths) -> Result<()> {
        if self.device.is_some() {
            return Err(XenError::Inval);
        }
        self.paths = paths;
        trace_transition(hv, D::KIND, &self.paths, "retarget");
        Ok(())
    }

    /// The connected device, if any.
    pub fn device(&self) -> Option<&D> {
        self.device.as_ref()
    }

    /// The connected device, if any.
    pub fn device_mut(&mut self) -> Option<&mut D> {
        self.device.as_mut()
    }

    /// Whether a device is currently connected.
    pub fn is_connected(&self) -> bool {
        self.device.is_some()
    }

    /// The frontend's current xenbus state.
    pub fn frontend_state(&self, hv: &mut Hypervisor) -> XenbusState {
        read_state(&mut hv.store, self.paths.back, &self.paths.frontend_state())
    }

    /// Connects the slot. The frontend must have published its details
    /// (state `Initialised`); connecting an occupied slot is an error.
    pub fn connect(&mut self, hv: &mut Hypervisor) -> Result<&mut D> {
        if self.device.is_some() {
            return Err(XenError::Inval);
        }
        if self.frontend_state(hv) != XenbusState::Initialised {
            return Err(XenError::Again);
        }
        let d = D::connect(hv, &self.paths, &self.cfg)?;
        self.connects += 1;
        self.device = Some(d);
        trace_transition(hv, D::KIND, &self.paths, "connect");
        Ok(self.device.as_mut().expect("just set"))
    }

    /// Quiesces the connected device (`Closing` announced, still held).
    pub fn suspend(&mut self, hv: &mut Hypervisor) -> Result<()> {
        match self.device.as_mut() {
            Some(d) => {
                d.suspend(hv)?;
                trace_transition(hv, D::KIND, &self.paths, "suspend");
                Ok(())
            }
            None => Err(XenError::Inval),
        }
    }

    /// Orderly teardown of the connected device (no-op when empty).
    pub fn close(&mut self, hv: &mut Hypervisor) -> Result<()> {
        match self.device.take() {
            Some(d) => {
                d.close(hv)?;
                trace_transition(hv, D::KIND, &self.paths, "close");
                Ok(())
            }
            None => Ok(()),
        }
    }

    /// Crash path: the backend domain died, so no teardown hypercalls can
    /// be issued on its behalf — the slot just abandons the instance
    /// (Xen reclaims a dead domain's grants, maps and ports). Returns the
    /// abandoned instance so the caller can harvest final stats.
    pub fn abandon(&mut self, hv: &mut Hypervisor) -> Option<D> {
        let d = self.device.take();
        if d.is_some() {
            trace_transition(hv, D::KIND, &self.paths, "abandon");
        }
        d
    }
}

/// What a system scenario reports about backend outages and recovery.
#[derive(Clone, Copy, Debug, Default)]
pub struct RecoveryStats {
    /// Driver-domain crashes observed.
    pub crashes: u64,
    /// Driver-domain livelocks (hang faults) observed.
    pub hangs: u64,
    /// Successful frontend reconnects after a crash.
    pub reconnects: u64,
    /// Total time the backend was down (crash to reconnect).
    pub downtime: Nanos,
    /// Acknowledged-but-unfinished operations replayed after reconnect
    /// (unacked Tx frames, in-flight block requests).
    pub retried_ops: u64,
    /// Frames dropped while the backend was away (world -> guest traffic
    /// has nowhere to go during the outage).
    pub dropped_frames: u64,
    /// Virtual time of the most recent crash.
    pub last_crash_at: Option<Nanos>,
    /// Virtual time the most recent fault was *detected* — when the
    /// toolstack learned the backend was gone and started recovery. The
    /// oracle detector sets this at the fault timestamp; the watchdog
    /// sets it when the health monitor's verdict turns `Failed`.
    pub detect_at: Option<Nanos>,
    /// Virtual time the first payload moved end-to-end after the most
    /// recent crash.
    pub first_byte_at: Option<Nanos>,
}

impl RecoveryStats {
    /// Crash-to-first-byte recovery time of the most recent crash — the
    /// reproduction's analog of the paper's reboot-time table.
    pub fn crash_to_first_byte(&self) -> Option<Nanos> {
        Some(self.first_byte_at? - self.last_crash_at?)
    }

    /// Fault-to-detection latency of the most recent outage: zero for
    /// the oracle, up to `probe_interval × (miss_threshold + 1)` for the
    /// watchdog.
    pub fn detect_latency(&self) -> Option<Nanos> {
        Some(self.detect_at? - self.last_crash_at?)
    }

    /// Marks a crash at `now`, resetting the detection and first-byte
    /// markers.
    pub fn record_crash(&mut self, now: Nanos) {
        self.crashes += 1;
        self.last_crash_at = Some(now);
        self.detect_at = None;
        self.first_byte_at = None;
    }

    /// Marks a livelock at `now`. The hung domain still runs (and beats),
    /// so this is not a crash — but it starts an outage, so the detection
    /// and first-byte markers reset just like [`RecoveryStats::record_crash`].
    pub fn record_hang(&mut self, now: Nanos) {
        self.hangs += 1;
        self.last_crash_at = Some(now);
        self.detect_at = None;
        self.first_byte_at = None;
    }

    /// Marks the moment the most recent fault was detected.
    pub fn record_detect(&mut self, now: Nanos) {
        if self.last_crash_at.is_some() && self.detect_at.is_none() {
            self.detect_at = Some(now);
        }
    }

    /// Marks the first end-to-end payload after the most recent crash.
    ///
    /// Returns whether this call set the marker — the system layer emits
    /// its `first_byte` trace milestone exactly when it did.
    pub fn record_first_byte(&mut self, now: Nanos) -> bool {
        if self.last_crash_at.is_some() && self.first_byte_at.is_none() {
            self.first_byte_at = Some(now);
            return true;
        }
        false
    }

    /// Appends the recovery counters and timings to a snapshot.
    pub fn append_metrics(&self, snap: &mut kite_trace::MetricsSnapshot) {
        snap.push_int("crashes", "count", self.crashes);
        snap.push_int("hangs", "count", self.hangs);
        snap.push_int("reconnects", "count", self.reconnects);
        snap.push_int("downtime", "ns", self.downtime.as_nanos());
        snap.push_int("retried_ops", "count", self.retried_ops);
        snap.push_int("dropped_frames", "count", self.dropped_frames);
        if let Some(lat) = self.detect_latency() {
            snap.push_int("detect_latency", "ns", lat.as_nanos());
        }
        if let Some(cfb) = self.crash_to_first_byte() {
            snap.push_int("crash_to_first_byte", "ns", cfb.as_nanos());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{provision_device, BackendManager};
    use crate::netback::NetbackInstance;
    use kite_frontends::Netfront;
    use kite_net::MacAddr;
    use kite_rumprun::kite_profile;
    use kite_xen::{DomainId, DomainKind};

    fn machine() -> (Hypervisor, DomainId, DomainId) {
        let mut hv = Hypervisor::new();
        hv.create_domain("Domain-0", DomainKind::Dom0, 8192, 4);
        let dd = hv.create_domain("netbackend", DomainKind::Driver, 1024, 1);
        let gu = hv.create_domain("guest", DomainKind::Guest, 5120, 22);
        (hv, dd, gu)
    }

    #[test]
    fn lifecycle_connect_close_reconnect() {
        let (mut hv, dd, gu) = machine();
        let mut mgr = BackendManager::new(dd, DeviceKind::Vif);
        mgr.start(&mut hv).unwrap();
        let paths = DevicePaths::new(gu, dd, DeviceKind::Vif, 0);
        provision_device(&mut hv, &paths).unwrap();
        mgr.drain_events(&mut hv).unwrap();

        let mut lc: DeviceLifecycle<NetbackInstance> =
            DeviceLifecycle::new(paths.clone(), kite_profile());
        // Frontend has not published yet: connect must refuse, not panic.
        assert_eq!(lc.connect(&mut hv).err(), Some(XenError::Again));

        let _nf = Netfront::connect(&mut hv, &paths, MacAddr::local(1)).unwrap();
        assert_eq!(mgr.drain_events(&mut hv).unwrap(), vec![paths.clone()]);
        lc.connect(&mut hv).unwrap();
        assert!(lc.is_connected());
        assert_eq!(lc.device().unwrap().device_paths(), paths);
        // Double connect is rejected.
        assert_eq!(lc.connect(&mut hv).err(), Some(XenError::Inval));

        // Suspend announces Closing; close finishes the walk and frees
        // everything the backend mapped.
        lc.suspend(&mut hv).unwrap();
        assert_eq!(
            read_state(&mut hv.store, dd, &paths.backend_state()),
            XenbusState::Closing
        );
        lc.close(&mut hv).unwrap();
        assert!(!lc.is_connected());
        assert_eq!(hv.grants.active_maps(dd), 0);
        assert_eq!(
            read_state(&mut hv.store, dd, &paths.backend_state()),
            XenbusState::Closed
        );

        // Reconnect: the toolstack clears and re-provisions the pair, the
        // frontend republishes, and the same slot connects again.
        mgr.forget(&mut hv, gu, 0).unwrap();
        provision_device(&mut hv, &paths).unwrap();
        let _nf2 = Netfront::connect(&mut hv, &paths, MacAddr::local(1)).unwrap();
        mgr.drain_events(&mut hv).unwrap();
        lc.connect(&mut hv).unwrap();
        assert_eq!(lc.connects, 2);
    }

    #[test]
    fn abandon_gives_back_the_instance_without_teardown() {
        let (mut hv, dd, gu) = machine();
        let paths = DevicePaths::new(gu, dd, DeviceKind::Vif, 0);
        provision_device(&mut hv, &paths).unwrap();
        let mut mgr = BackendManager::new(dd, DeviceKind::Vif);
        mgr.start(&mut hv).unwrap();
        mgr.drain_events(&mut hv).unwrap();
        let _nf = Netfront::connect(&mut hv, &paths, MacAddr::local(1)).unwrap();
        let mut lc: DeviceLifecycle<NetbackInstance> =
            DeviceLifecycle::new(paths.clone(), kite_profile());
        lc.connect(&mut hv).unwrap();
        let maps = hv.grants.active_maps(dd);
        assert!(maps >= 2);
        let inst = lc.abandon(&mut hv).expect("was connected");
        // No hypercalls ran: mappings are still accounted to the (dead)
        // domain until Xen reclaims it.
        assert_eq!(hv.grants.active_maps(dd), maps);
        assert_eq!(inst.stats().tx_packets, 0);
        assert!(!lc.is_connected());
        // Retarget is now legal.
        let p2 = DevicePaths::new(gu, DomainId(9), DeviceKind::Vif, 0);
        lc.retarget(&mut hv, p2.clone()).unwrap();
        assert_eq!(lc.paths(), &p2);
    }

    #[test]
    fn recovery_stats_first_byte_arithmetic() {
        let mut rs = RecoveryStats::default();
        assert_eq!(rs.crash_to_first_byte(), None);
        assert!(!rs.record_first_byte(Nanos::from_millis(1)));
        assert_eq!(rs.first_byte_at, None, "no crash yet: nothing to mark");
        rs.record_crash(Nanos::from_millis(10));
        assert!(rs.record_first_byte(Nanos::from_millis(17)));
        assert!(!rs.record_first_byte(Nanos::from_millis(25)));
        assert_eq!(rs.crash_to_first_byte(), Some(Nanos::from_millis(7)));
        // A second crash resets the marker.
        rs.record_crash(Nanos::from_millis(40));
        assert_eq!(rs.crash_to_first_byte(), None);
        assert_eq!(rs.crashes, 2);
    }

    #[test]
    fn recovery_stats_detect_latency_arithmetic() {
        let mut rs = RecoveryStats::default();
        assert_eq!(rs.detect_latency(), None);
        rs.record_detect(Nanos::from_millis(1));
        assert_eq!(rs.detect_at, None, "no fault yet: nothing to detect");
        rs.record_crash(Nanos::from_millis(10));
        rs.record_detect(Nanos::from_millis(12));
        // Only the first detection after a fault counts.
        rs.record_detect(Nanos::from_millis(99));
        assert_eq!(rs.detect_latency(), Some(Nanos::from_millis(2)));
        // A new fault resets the marker; a hang counts separately.
        rs.record_hang(Nanos::from_millis(40));
        assert_eq!(rs.detect_latency(), None);
        assert_eq!(rs.crash_to_first_byte(), None);
        assert_eq!((rs.crashes, rs.hangs), (1, 1));
        rs.record_detect(Nanos::from_millis(41));
        assert_eq!(rs.detect_latency(), Some(Nanos::from_millis(1)));
    }
}
