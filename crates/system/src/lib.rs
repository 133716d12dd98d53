//! Full-system composition: the paper's testbed as a discrete-event
//! simulation.
//!
//! [`NetSystem`] wires client ⇄ wire ⇄ NIC ⇄ driver domain (bridge +
//! netback) ⇄ netfront ⇄ guest; [`StorSystem`] wires guest ⇄ blkfront ⇄
//! driver domain (blkback) ⇄ NVMe. Both are one [`DriverDomain`] harness
//! — Hypervisor, event loop, bring-up, fault/watchdog/recovery state
//! machine, tracing and `kitetop` — around their own data path
//! ([`NetPath`], [`StorPath`]). Both run under either the Kite or the
//! Linux [`BackendOs`] profile, which is how every Kite-vs-Linux figure
//! is produced.

mod config;
mod harness;
mod netsys;
mod storsys;

pub use config::{GsoMode, SystemConfig};
pub use harness::DriverDomain;
pub use kite_devices::LineRate;
pub use kite_sim::SchedulerKind;

pub use kite_health::{
    render_top, DetectionMode, HealthMonitor, HealthState, HeartbeatPublisher, MonitorConfig,
    SloConfig, TopRow, TopSnapshot,
};
pub use netsys::{
    addrs, BackendOs, NetMetrics, NetPath, NetSystem, Reply, Side, UdpHandler, UdpMsg, GSO_UDP,
    MAX_UDP,
};
pub use storsys::{IoDone, IoHandler, IoKind, IoOp, StorMetrics, StorPath, StorSystem};
