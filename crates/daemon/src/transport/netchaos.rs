//! Seeded network-fault injection for the socket transport — the
//! wire-level mirror of [`crate::chaos`] (process faults),
//! `tm_core::measure::LoadFaultPlan` (data faults) and
//! `tm_collect::FaultPlan` (counter faults).
//!
//! A [`NetFaultPlan`] schedules transport failures at `(shard, tick)`
//! coordinates — the same generic [`FaultSchedule`] as chaos plans,
//! over the wire-fault taxonomy. Events are consume-once, exactly like
//! chaos events: the parent-side channel takes the event when it
//! dispatches the tick, injects the fault, and the recovery machinery
//! (reconnect, resend, restart) carries the run forward — a resent or
//! replayed tick never re-fires the fault, so every scheduled event
//! costs a bounded amount of recovery and the run always terminates.
//!
//! Injection is parent-side by design: the coordinator's channel
//! wrapper damages its own writes (drop, truncate, corrupt, duplicate,
//! delay, suppress) or the child process itself (`kill -9`), and the
//! production read/reconnect path — not test-only code — has to heal
//! the session. See `docs/ROBUSTNESS.md` for the full taxonomy.

use rand::rngs::StdRng;
use rand::Rng;

use crate::chaos::{FaultEvent, FaultKind, FaultSchedule, FaultState};

/// What the injected fault does to the shard's wire session.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetFaultKind {
    /// Close the connection right after writing the tick frame. The
    /// child reconnects; the parent resends the in-flight tick.
    DropConn,
    /// Black-hole the link: the tick frame is never written. Heals at
    /// the parent's probe deadline (forced re-establishment + resend),
    /// well inside the heartbeat deadline — no restart.
    BlackHole,
    /// Sleep a fraction of the heartbeat deadline before writing —
    /// exercises deadline tolerance without triggering anything.
    SlowLink,
    /// Flip bits in the written frame's payload. The child's checksum
    /// rejects it and drops the connection; reconnect + resend heal.
    CorruptFrame,
    /// Write only a prefix of the frame, then close. The child sees a
    /// mid-frame EOF; reconnect + resend heal.
    TruncateFrame,
    /// Write the tick frame twice. The child solves once and re-serves
    /// its cached result; the coordinator's accept-once logic absorbs
    /// the duplicate `TickDone`.
    DuplicateFrame,
    /// SIGKILL the worker process mid-session — the supervisor
    /// restarts it from the last checkpoint like any worker death.
    Kill9,
}

impl NetFaultKind {
    /// Stable snake-case name (config files, events, docs).
    pub fn name(self) -> &'static str {
        match self {
            NetFaultKind::DropConn => "drop",
            NetFaultKind::BlackHole => "blackhole",
            NetFaultKind::SlowLink => "slow",
            NetFaultKind::CorruptFrame => "corrupt",
            NetFaultKind::TruncateFrame => "truncate",
            NetFaultKind::DuplicateFrame => "duplicate",
            NetFaultKind::Kill9 => "kill9",
        }
    }

    /// Whether recovery goes through the reconnect + resend path
    /// (rather than a supervisor restart or nothing at all).
    pub fn reconnects(self) -> bool {
        matches!(
            self,
            NetFaultKind::DropConn
                | NetFaultKind::BlackHole
                | NetFaultKind::CorruptFrame
                | NetFaultKind::TruncateFrame
        )
    }
}

impl std::fmt::Display for NetFaultKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl FaultKind for NetFaultKind {
    const EVENT: &'static str = "net fault event";

    /// Reconnect-class faults are drawn most often; `kill9` sparingly
    /// (each costs a restart from the shared budget).
    fn draw(rng: &mut StdRng) -> Self {
        match rng.random_range(0..8u32) {
            0 => NetFaultKind::DropConn,
            1 => NetFaultKind::BlackHole,
            2 => NetFaultKind::CorruptFrame,
            3 => NetFaultKind::TruncateFrame,
            4 => NetFaultKind::DuplicateFrame,
            5 | 6 => NetFaultKind::SlowLink,
            _ => NetFaultKind::Kill9,
        }
    }

    /// Only `kill9` is recovered by a supervisor restart.
    fn restarts(self) -> bool {
        self == NetFaultKind::Kill9
    }
}

/// One scheduled network fault.
pub type NetFaultEvent = FaultEvent<NetFaultKind>;

/// A deterministic schedule of network faults.
pub type NetFaultPlan = FaultSchedule<NetFaultKind>;

/// The armed [`NetFaultPlan`] the per-shard channels consume at
/// dispatch.
pub type NetFaultState = FaultState<NetFaultKind>;

impl NetFaultPlan {
    /// Events whose recovery is a reconnect + resend.
    pub fn reconnect_events(&self) -> usize {
        self.events.iter().filter(|e| e.kind.reconnects()).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_fire_exactly_once() {
        let plan = NetFaultPlan::none()
            .with(0, 3, NetFaultKind::DropConn)
            .with(0, 3, NetFaultKind::Kill9);
        let state = NetFaultState::new(&plan);
        assert_eq!(state.take(1, 3), None);
        assert_eq!(state.take(0, 3), Some(NetFaultKind::DropConn));
        assert_eq!(state.take(0, 3), Some(NetFaultKind::Kill9));
        assert_eq!(state.take(0, 3), None, "both events spent");
        assert_eq!(state.unfired(), 0);
        assert_eq!(plan.restart_events(), 1);
        assert_eq!(plan.reconnect_events(), 1);
    }

    #[test]
    fn random_plans_are_deterministic_and_in_range() {
        let a = NetFaultPlan::random(5, 2, 40, 8);
        let b = NetFaultPlan::random(5, 2, 40, 8);
        assert_eq!(a.events, b.events);
        assert_eq!(a.events.len(), 8);
        assert!(a.validate(2).is_ok());
        assert!(a.events.iter().all(|e| e.shard < 2 && e.at_tick < 40));
        let err = NetFaultPlan::none()
            .with(9, 0, NetFaultKind::SlowLink)
            .validate(2)
            .unwrap_err();
        assert_eq!(err, "net fault event targets shard 9 of a 2-shard roster");
    }

    #[test]
    fn names_are_stable() {
        for (kind, name) in [
            (NetFaultKind::DropConn, "drop"),
            (NetFaultKind::BlackHole, "blackhole"),
            (NetFaultKind::SlowLink, "slow"),
            (NetFaultKind::CorruptFrame, "corrupt"),
            (NetFaultKind::TruncateFrame, "truncate"),
            (NetFaultKind::DuplicateFrame, "duplicate"),
            (NetFaultKind::Kill9, "kill9"),
        ] {
            assert_eq!(kind.to_string(), name);
        }
    }
}
