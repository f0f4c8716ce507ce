//! Seeded process-level fault injection — the execution-layer mirror
//! of `tm_core::measure::LoadFaultPlan` (data faults) and
//! `tm_collect::FaultPlan` (counter faults).
//!
//! A [`ChaosPlan`] schedules worker failures at specific `(shard,
//! tick)` coordinates. Each event fires **once**: a worker killed at
//! tick `k` is restarted by the coordinator and replays tick `k`
//! without re-triggering the event, so every scheduled failure costs
//! exactly one restart and the run always terminates.
//!
//! The schedule itself is generic: [`FaultSchedule`] and its armed,
//! consume-once [`FaultState`] carry any [`FaultKind`]. Process chaos
//! ([`ChaosPlan`]) and wire faults
//! ([`NetFaultPlan`](crate::transport::netchaos::NetFaultPlan)) are the
//! two instances.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::sync::Mutex;

/// What the injected failure does to the worker.
///
/// Serializable because the coordinator consumes events at dispatch
/// and ships the directive to the worker inside the tick message —
/// across a channel for the thread transport, across the wire for the
/// socket transport (see [`crate::transport`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ChaosKind {
    /// The worker thread panics mid-tick (the coordinator observes a
    /// channel disconnect).
    Kill,
    /// The worker stalls past the heartbeat deadline (the coordinator
    /// observes a liveness timeout and abandons the zombie thread).
    Hang,
    /// The worker is slowed but stays within its deadline — exercises
    /// deadline tolerance without triggering a restart.
    Delay,
}

/// A fault taxonomy a [`FaultSchedule`] can carry.
pub trait FaultKind: Copy + PartialEq + std::fmt::Debug {
    /// What one event is called in validation errors (names the plan
    /// that failed).
    const EVENT: &'static str;

    /// Draw one kind for [`FaultSchedule::random`].
    fn draw(rng: &mut StdRng) -> Self;

    /// Whether recovering from this fault costs a supervisor restart.
    fn restarts(self) -> bool;
}

impl FaultKind for ChaosKind {
    const EVENT: &'static str = "chaos event";

    /// Kills and hangs are drawn 2:1 over delays (delays don't exercise
    /// the restart path).
    fn draw(rng: &mut StdRng) -> Self {
        match rng.random_range(0..5u32) {
            0 | 1 => ChaosKind::Kill,
            2 | 3 => ChaosKind::Hang,
            _ => ChaosKind::Delay,
        }
    }

    fn restarts(self) -> bool {
        self != ChaosKind::Delay
    }
}

/// One scheduled fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultEvent<K> {
    /// Shard index (coordinator roster order).
    pub shard: usize,
    /// Feed-relative tick at whose dispatch the fault fires.
    pub at_tick: usize,
    /// Fault mode.
    pub kind: K,
}

/// A deterministic schedule of faults.
#[derive(Debug, Clone)]
pub struct FaultSchedule<K> {
    /// Scheduled events (order irrelevant; each fires once).
    pub events: Vec<FaultEvent<K>>,
}

impl<K> Default for FaultSchedule<K> {
    fn default() -> Self {
        FaultSchedule { events: Vec::new() }
    }
}

impl<K: FaultKind> FaultSchedule<K> {
    /// No injected faults.
    pub fn none() -> Self {
        Self::default()
    }

    /// Builder: add one event.
    pub fn with(mut self, shard: usize, at_tick: usize, kind: K) -> Self {
        self.events.push(FaultEvent {
            shard,
            at_tick,
            kind,
        });
        self
    }

    /// A random plan for property tests: `n_events` faults spread over
    /// `n_shards` shards and `ticks` feed ticks, deterministic under
    /// `seed`. Each event draws its shard, then its tick, then its kind
    /// ([`FaultKind::draw`]).
    pub fn random(seed: u64, n_shards: usize, ticks: usize, n_events: usize) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let events = (0..n_events)
            .map(|_| FaultEvent {
                shard: rng.random_range(0..n_shards.max(1)),
                at_tick: rng.random_range(0..ticks.max(1)),
                kind: K::draw(&mut rng),
            })
            .collect();
        FaultSchedule { events }
    }

    /// Restart-triggering events — the number of restarts a clean
    /// supervisor run must report.
    pub fn restart_events(&self) -> usize {
        self.events.iter().filter(|e| e.kind.restarts()).count()
    }

    /// Check shard indices against the roster size.
    pub fn validate(&self, n_shards: usize) -> std::result::Result<(), String> {
        match self.events.iter().find(|e| e.shard >= n_shards) {
            Some(e) => Err(format!(
                "{} targets shard {} of a {}-shard roster",
                K::EVENT,
                e.shard,
                n_shards
            )),
            None => Ok(()),
        }
    }
}

/// One scheduled worker failure.
pub type ChaosEvent = FaultEvent<ChaosKind>;

/// A deterministic schedule of process-level failures.
pub type ChaosPlan = FaultSchedule<ChaosKind>;

/// The armed [`ChaosPlan`] the coordinator consumes at dispatch.
pub type ChaosState = FaultState<ChaosKind>;

impl ChaosPlan {
    /// Builder: add a worker kill at `(shard, tick)`.
    pub fn with_kill(self, shard: usize, at_tick: usize) -> Self {
        self.with(shard, at_tick, ChaosKind::Kill)
    }

    /// Builder: add a worker hang at `(shard, tick)`.
    pub fn with_hang(self, shard: usize, at_tick: usize) -> Self {
        self.with(shard, at_tick, ChaosKind::Hang)
    }

    /// Builder: add a sub-deadline delay at `(shard, tick)`.
    pub fn with_delay(self, shard: usize, at_tick: usize) -> Self {
        self.with(shard, at_tick, ChaosKind::Delay)
    }
}

/// Shared consume-once state polled at each dispatch. One instance per
/// run, shared (through an `Arc`) by every replacement worker or shard
/// channel, so a replayed or resent tick never re-fires a spent event.
#[derive(Debug)]
pub struct FaultState<K> {
    events: Mutex<Vec<(FaultEvent<K>, bool)>>,
}

impl<K: FaultKind> FaultState<K> {
    /// Arm a plan.
    pub fn new(plan: &FaultSchedule<K>) -> Self {
        FaultState {
            events: Mutex::new(plan.events.iter().map(|&e| (e, false)).collect()),
        }
    }

    /// Consume the next unfired event for `(shard, tick)`, if any.
    /// Subsequent calls with the same coordinates (a restarted worker
    /// replaying the tick) find the event spent and proceed normally.
    pub fn take(&self, shard: usize, tick: usize) -> Option<K> {
        let mut events = self.events.lock().expect("fault state never poisoned");
        for (event, fired) in events.iter_mut() {
            if !*fired && event.shard == shard && event.at_tick == tick {
                *fired = true;
                return Some(event.kind);
            }
        }
        None
    }

    /// Events that never fired (a shard quarantined before reaching
    /// the tick, or a tick range ending early).
    pub fn unfired(&self) -> usize {
        self.events
            .lock()
            .expect("fault state never poisoned")
            .iter()
            .filter(|(_, fired)| !fired)
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::netchaos::{NetFaultKind, NetFaultPlan};

    #[test]
    fn events_fire_exactly_once() {
        let plan = ChaosPlan::none().with_kill(1, 5).with_hang(1, 5);
        let state = ChaosState::new(&plan);
        assert_eq!(state.take(0, 5), None);
        assert_eq!(state.take(1, 5), Some(ChaosKind::Kill));
        assert_eq!(state.take(1, 5), Some(ChaosKind::Hang));
        assert_eq!(state.take(1, 5), None, "both events spent");
        assert_eq!(state.unfired(), 0);
    }

    #[test]
    fn random_plans_match_their_pinned_draws() {
        // Seeded plans drive the matrix gates and the TOML configs: the
        // shard → tick → kind draw order must never change.
        use ChaosKind::{Delay, Hang, Kill};
        use NetFaultKind::{DropConn, DuplicateFrame, Kill9, SlowLink, TruncateFrame};
        fn ev<K>(shard: usize, at_tick: usize, kind: K) -> FaultEvent<K> {
            FaultEvent {
                shard,
                at_tick,
                kind,
            }
        }
        assert_eq!(
            ChaosPlan::random(9, 3, 20, 6).events,
            [
                ev(1, 8, Kill),
                ev(2, 1, Kill),
                ev(1, 4, Delay),
                ev(2, 19, Hang),
                ev(1, 5, Hang),
                ev(2, 11, Delay),
            ]
        );
        assert_eq!(
            NetFaultPlan::random(5, 2, 40, 8).events,
            [
                ev(0, 24, DropConn),
                ev(0, 21, SlowLink),
                ev(0, 2, Kill9),
                ev(1, 36, Kill9),
                ev(1, 17, DuplicateFrame),
                ev(1, 29, SlowLink),
                ev(0, 21, TruncateFrame),
                ev(0, 27, TruncateFrame),
            ]
        );
    }

    #[test]
    fn random_plans_are_deterministic_and_in_range() {
        let a = ChaosPlan::random(9, 3, 20, 6);
        let b = ChaosPlan::random(9, 3, 20, 6);
        assert_eq!(a.events, b.events);
        assert_eq!(a.events.len(), 6);
        assert!(a.validate(3).is_ok());
        assert!(a.events.iter().all(|e| e.shard < 3 && e.at_tick < 20));
        let err = ChaosPlan::none().with_kill(5, 0).validate(3).unwrap_err();
        assert_eq!(err, "chaos event targets shard 5 of a 3-shard roster");
    }
}
