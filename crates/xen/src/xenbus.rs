//! Xenbus: the PV device connection state machine over xenstore.
//!
//! Each PV device has a *frontend area* under the guest's xenstore home and
//! a *backend area* under the driver domain's home. Both sides publish a
//! `state` node and watch the other side's; connection is a lock-step walk
//! through [`XenbusState`].

use crate::domain::DomainId;
use crate::error::{Result, XenError};
use crate::xenstore::Xenstore;

/// PV device connection states (`xenbus_state` ABI values).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[repr(u8)]
pub enum XenbusState {
    /// Initial/unknown.
    Unknown = 0,
    /// Device being set up by its toolstack.
    Initialising = 1,
    /// Backend waits for frontend details.
    InitWait = 2,
    /// Frontend published its details; waiting for backend connect.
    Initialised = 3,
    /// Both ends operational.
    Connected = 4,
    /// Shutdown requested.
    Closing = 5,
    /// Device closed.
    Closed = 6,
}

impl XenbusState {
    /// Parses an ABI value.
    pub fn from_value(v: u8) -> XenbusState {
        match v {
            1 => XenbusState::Initialising,
            2 => XenbusState::InitWait,
            3 => XenbusState::Initialised,
            4 => XenbusState::Connected,
            5 => XenbusState::Closing,
            6 => XenbusState::Closed,
            _ => XenbusState::Unknown,
        }
    }

    /// The ABI value.
    pub fn value(self) -> u8 {
        self as u8
    }

    /// Lower-case state name, as used in trace events and renderings.
    pub fn name(self) -> &'static str {
        match self {
            XenbusState::Unknown => "unknown",
            XenbusState::Initialising => "initialising",
            XenbusState::InitWait => "initwait",
            XenbusState::Initialised => "initialised",
            XenbusState::Connected => "connected",
            XenbusState::Closing => "closing",
            XenbusState::Closed => "closed",
        }
    }

    /// Whether `self -> next` is a legal transition.
    ///
    /// `Closing` may be entered from any live state (crash/unplug); a
    /// `Closed` device may be re-provisioned back to `Initialising`
    /// (driver-domain restart); all other transitions follow the connect
    /// handshake.
    pub fn can_transition_to(self, next: XenbusState) -> bool {
        use XenbusState::*;
        if next == Closing {
            return !matches!(self, Closed | Unknown);
        }
        matches!(
            (self, next),
            (Unknown, Initialising)
                | (Closed, Initialising)
                | (Initialising, InitWait)
                | (Initialising, Initialised)
                | (InitWait, Initialised)
                | (InitWait, Connected)
                | (Initialised, Connected)
                | (Closing, Closed)
        )
    }
}

/// Kind of a PV device, as named in xenstore paths.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DeviceKind {
    /// Virtual network interface (`vif`).
    Vif,
    /// Virtual block device (`vbd`).
    Vbd,
}

impl DeviceKind {
    /// The path component used in xenstore.
    pub fn as_str(self) -> &'static str {
        match self {
            DeviceKind::Vif => "vif",
            DeviceKind::Vbd => "vbd",
        }
    }
}

/// Frontend advertisement key: the most queues the frontend can drive.
pub const MQ_MAX_QUEUES_KEY: &str = "multi-queue-max-queues";

/// Negotiated queue-count key, written by the backend once it has
/// clamped the frontend's advertisement to its own capacity.
pub const MQ_NUM_QUEUES_KEY: &str = "multi-queue-num-queues";

/// The negotiated queue count: the smaller of the two sides' maxima,
/// never below 1. Either side offering 1 forces the legacy layout.
pub fn negotiate_queues(front_max: u32, back_max: u32) -> u32 {
    front_max.max(1).min(back_max.max(1))
}

/// Segmentation-offload advertisement key (`feature-gso-tcpv4`). The
/// toolstack writes `1` under the backend path when the backend can
/// segment super-frames; a willing frontend echoes `1` under its own
/// path. GSO descriptor chains are legal on the rings only when both
/// writes happened — either side staying silent falls back to
/// single-slot frames.
pub const FEATURE_GSO_KEY: &str = "feature-gso-tcpv4";

/// Checksum-offload veto key (`feature-no-csum-offload`). Offload is
/// implied by a GSO-capable pair; a frontend that insists on software
/// checksums writes `1` under its own path to decline.
pub const FEATURE_NO_CSUM_KEY: &str = "feature-no-csum-offload";

/// Path helpers for one frontend/backend device pair.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DevicePaths {
    /// Guest domain running the frontend.
    pub front: DomainId,
    /// Driver domain running the backend.
    pub back: DomainId,
    /// Device kind.
    pub kind: DeviceKind,
    /// Device index within the guest (0 for the first vif/vbd).
    pub index: u32,
}

impl DevicePaths {
    /// Creates path helpers for device `index` of `kind` between domains.
    pub fn new(front: DomainId, back: DomainId, kind: DeviceKind, index: u32) -> DevicePaths {
        DevicePaths {
            front,
            back,
            kind,
            index,
        }
    }

    /// The frontend area: `/local/domain/<front>/device/<kind>/<index>`.
    pub fn frontend(&self) -> String {
        format!(
            "/local/domain/{}/device/{}/{}",
            self.front.0,
            self.kind.as_str(),
            self.index
        )
    }

    /// The backend area:
    /// `/local/domain/<back>/backend/<kind>/<front>/<index>`.
    pub fn backend(&self) -> String {
        format!(
            "/local/domain/{}/backend/{}/{}/{}",
            self.back.0,
            self.kind.as_str(),
            self.front.0,
            self.index
        )
    }

    /// The backend watch root for discovering new frontends:
    /// `/local/domain/<back>/backend/<kind>`.
    pub fn backend_root(back: DomainId, kind: DeviceKind) -> String {
        format!("/local/domain/{}/backend/{}", back.0, kind.as_str())
    }

    /// Per-queue frontend subdirectory:
    /// `<frontend>/queue-<k>` (multi-queue layouts only).
    pub fn queue_frontend(&self, k: u32) -> String {
        format!("{}/queue-{}", self.frontend(), k)
    }

    /// Per-queue backend subdirectory:
    /// `<backend>/queue-<k>` (multi-queue layouts only).
    pub fn queue_backend(&self, k: u32) -> String {
        format!("{}/queue-{}", self.backend(), k)
    }

    /// The frontend directory holding queue `k`'s ring keys under an
    /// `nqueues`-queue layout: the flat legacy frontend area when the
    /// negotiated count is 1, the `queue-<k>/` subdirectory otherwise.
    /// Keeping the count-of-one case on the flat layout is what keeps a
    /// one-queue device byte-identical to the legacy protocol.
    pub fn frontend_queue_root(&self, nqueues: u32, k: u32) -> String {
        if nqueues <= 1 {
            self.frontend()
        } else {
            self.queue_frontend(k)
        }
    }

    /// Frontend `state` node path.
    pub fn frontend_state(&self) -> String {
        format!("{}/state", self.frontend())
    }

    /// Backend `state` node path.
    pub fn backend_state(&self) -> String {
        format!("{}/state", self.backend())
    }

    /// Parses a backend-area path back into its device coordinates.
    ///
    /// Accepts any path at or below a backend device directory; returns
    /// `None` for paths that do not identify a complete device.
    pub fn parse_backend_path(path: &str) -> Option<DevicePaths> {
        let segs: Vec<&str> = path.strip_prefix('/')?.split('/').collect();
        // local domain <back> backend <kind> <front> <index> ...
        if segs.len() < 7 || segs[0] != "local" || segs[1] != "domain" || segs[3] != "backend" {
            return None;
        }
        let back = DomainId(segs[2].parse().ok()?);
        let kind = match segs[4] {
            "vif" => DeviceKind::Vif,
            "vbd" => DeviceKind::Vbd,
            _ => return None,
        };
        let front = DomainId(segs[5].parse().ok()?);
        let index = segs[6].parse().ok()?;
        Some(DevicePaths::new(front, back, kind, index))
    }
}

/// Reads a device `state` node, treating absence as `Unknown`.
pub fn read_state(xs: &mut Xenstore, caller: DomainId, state_path: &str) -> XenbusState {
    match xs.read(caller, None, state_path) {
        Ok(v) => XenbusState::from_value(v.parse().unwrap_or(0)),
        Err(_) => XenbusState::Unknown,
    }
}

/// Writes a device `state` node, validating the transition.
pub fn switch_state(
    xs: &mut Xenstore,
    caller: DomainId,
    state_path: &str,
    next: XenbusState,
) -> Result<()> {
    let cur = read_state(xs, caller, state_path);
    if cur == next {
        return Ok(());
    }
    if !cur.can_transition_to(next) {
        return Err(XenError::Inval);
    }
    xs.write(caller, None, state_path, &next.value().to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn state_values_match_abi() {
        assert_eq!(XenbusState::Initialising.value(), 1);
        assert_eq!(XenbusState::Connected.value(), 4);
        assert_eq!(XenbusState::from_value(6), XenbusState::Closed);
        assert_eq!(XenbusState::from_value(99), XenbusState::Unknown);
    }

    #[test]
    fn handshake_transitions_legal() {
        use XenbusState::*;
        assert!(Unknown.can_transition_to(Initialising));
        assert!(Initialising.can_transition_to(InitWait));
        assert!(InitWait.can_transition_to(Initialised));
        assert!(Initialised.can_transition_to(Connected));
        assert!(Connected.can_transition_to(Closing));
        assert!(Closing.can_transition_to(Closed));
        // Re-provision after teardown (driver-domain restart).
        assert!(Closed.can_transition_to(Initialising));
        // Illegal jumps.
        assert!(!Unknown.can_transition_to(Connected));
        assert!(!Connected.can_transition_to(Initialising));
        assert!(!Closed.can_transition_to(Closing));
        assert!(!Closed.can_transition_to(Connected));
    }

    #[test]
    fn paths_follow_convention() {
        let p = DevicePaths::new(DomainId(2), DomainId(1), DeviceKind::Vif, 0);
        assert_eq!(p.frontend(), "/local/domain/2/device/vif/0");
        assert_eq!(p.backend(), "/local/domain/1/backend/vif/2/0");
        assert_eq!(p.backend_state(), "/local/domain/1/backend/vif/2/0/state");
        assert_eq!(
            DevicePaths::backend_root(DomainId(1), DeviceKind::Vbd),
            "/local/domain/1/backend/vbd"
        );
    }

    #[test]
    fn queue_paths_and_negotiation() {
        let p = DevicePaths::new(DomainId(2), DomainId(1), DeviceKind::Vif, 0);
        assert_eq!(p.queue_frontend(3), "/local/domain/2/device/vif/0/queue-3");
        assert_eq!(
            p.queue_backend(0),
            "/local/domain/1/backend/vif/2/0/queue-0"
        );
        // Negotiated count of 1 keeps the legacy flat layout.
        assert_eq!(p.frontend_queue_root(1, 0), p.frontend());
        assert_eq!(p.frontend_queue_root(4, 2), p.queue_frontend(2));
        assert_eq!(negotiate_queues(8, 4), 4);
        assert_eq!(negotiate_queues(2, 8), 2);
        assert_eq!(negotiate_queues(0, 4), 1, "zero offers clamp to one");
    }

    #[test]
    fn parse_backend_path_roundtrip() {
        let p = DevicePaths::new(DomainId(3), DomainId(1), DeviceKind::Vbd, 2);
        assert_eq!(
            DevicePaths::parse_backend_path(&p.backend_state()),
            Some(p.clone())
        );
        assert_eq!(DevicePaths::parse_backend_path(&p.backend()), Some(p));
        assert_eq!(
            DevicePaths::parse_backend_path("/local/domain/1/backend/vif"),
            None
        );
        assert_eq!(DevicePaths::parse_backend_path("/foo/bar"), None);
    }

    #[test]
    fn switch_state_enforces_machine() {
        let mut xs = Xenstore::new();
        let d0 = DomainId::DOM0;
        let path = "/local/domain/1/backend/vif/2/0/state";
        switch_state(&mut xs, d0, path, XenbusState::Initialising).unwrap();
        assert_eq!(read_state(&mut xs, d0, path), XenbusState::Initialising);
        switch_state(&mut xs, d0, path, XenbusState::InitWait).unwrap();
        // Cannot jump back.
        assert_eq!(
            switch_state(&mut xs, d0, path, XenbusState::Initialising),
            Err(XenError::Inval)
        );
        // Idempotent writes are fine.
        switch_state(&mut xs, d0, path, XenbusState::InitWait).unwrap();
        // Crash path: anything live may close.
        switch_state(&mut xs, d0, path, XenbusState::Closing).unwrap();
        switch_state(&mut xs, d0, path, XenbusState::Closed).unwrap();
    }
}
