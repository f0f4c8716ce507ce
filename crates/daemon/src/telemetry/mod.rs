//! Live observability for the supervised daemon: lock-light latency
//! histograms, monotonic counters, and an epoch-versioned published
//! view of the in-flight run.
//!
//! The subsystem is three layers, bottom up:
//!
//! * [`histogram`] — the measurement primitive: fixed-layout
//!   log-bucketed histograms (HDR style, ≤ 3.125% relative error),
//!   mergeable by addition, with a wait-free atomic writer face;
//! * [`aggregator`] — ownership and roster: one [`ShardRecorder`] per
//!   shard, kept by the coordinator across worker epochs, and a
//!   [`TelemetryHub`] that cuts consistent [`TelemetrySnapshot`]s
//!   without stalling the solve loop;
//! * [`live`] — the serving surface: the coordinator publishes a
//!   [`LiveView`] (latest per-shard estimates + health + telemetry)
//!   through the [`LiveBus`] after every lockstep round, and
//!   [`crate::protocol`] answers every verb from whichever view it is
//!   handed — mid-run and post-run answers are the same code path.
//!
//! See `docs/OBSERVABILITY.md` for the bucket layout, the recorder
//! overhead contract (≤ 2% on the day-length aggregate sweep, gated in
//! CI), and the `stats`/`whatif` protocol grammar.

pub mod aggregator;
pub mod histogram;
pub mod live;

pub use aggregator::{
    ShardRecorder, ShardTelemetry, TelemetryCounters, TelemetryHub, TelemetrySnapshot,
};
pub use histogram::{AtomicLogHistogram, HistogramSummary, LogHistogram};
pub use live::{LiveBus, LivePhase, LiveShard, LiveView};
