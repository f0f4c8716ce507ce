//! # tm-daemon
//!
//! Supervised sharded estimation runtime for the `backbone-tm`
//! reproduction of *Gunnar, Johansson, Telkamp (IMC 2004)*.
//!
//! The paper's operational setting is a continuously running
//! measurement system: a large backbone is carved into regions, each
//! polled and estimated around the clock, with partial failures the
//! norm rather than the exception (§5.1.2, §5.3). This crate is that
//! setting's execution layer. A coordinator shards per-region
//! topologies across supervised workers — in-process threads or, with
//! the socket transport, isolated `tm_shard_worker` child processes —
//! each running a warm [`tm_core::stream::StreamEngine`] fed from one
//! shared `tm_collect` SNMP simulation, and aggregates per-tick
//! estimates plus degradation health into a global view queryable over
//! a small line-delimited JSON protocol.
//!
//! * [`config`] — shard roster ([`ShardSpec`]) and supervision policy
//!   ([`DaemonConfig`]: heartbeat deadline, checkpoint cadence, restart
//!   budget, backoff), plus [`config::toml`], a validated declarative
//!   TOML front-end with field-level error paths;
//! * [`feed`] — one shared collection run over the concatenated shard
//!   meshes, fanned back out per shard and converted to interval loads;
//! * `worker` (private) — the one shard worker loop both transports
//!   run: heartbeats, chaos directives, tick solves, periodic serialized
//!   checkpoints of its warm state, and answers to duplicate deliveries
//!   from its last result;
//! * [`coordinator`] — lockstep dispatch, deadline detection,
//!   restart-with-backoff from the newest checkpoint with replay of the
//!   uncovered ticks, quarantine after the restart budget, clean drain,
//!   and every telemetry recording, booked on acceptance;
//! * [`transport`] — the pluggable coordinator↔worker seam, one message
//!   type ([`transport::wire::Frame`]) over either link: in-process
//!   threads on `mpsc` pairs (default), or process-per-shard sockets
//!   with the frames length-prefixed and checksummed
//!   ([`transport::wire`]), reconnect-with-backoff, in-flight resend,
//!   half-open probing, and seeded wire faults
//!   ([`transport::netchaos`]);
//! * [`chaos`] — a seeded [`ChaosPlan`] that kills, hangs, or delays
//!   workers at chosen `(shard, tick)` coordinates — the process-level
//!   mirror of the data-level `LoadFaultPlan` and collection-level
//!   `FaultPlan`;
//! * [`telemetry`] — lock-light log-bucketed latency histograms
//!   ([`telemetry::LogHistogram`]) and monotonic counters recorded per
//!   shard by the coordinator as the day streams, plus the
//!   epoch-versioned [`LiveView`] / [`LiveBus`] pair it publishes after
//!   every lockstep round;
//! * [`protocol`] — `status` / `health` / `estimate` / `stats` /
//!   `whatif` queries, one JSON line per request and response, with
//!   JSON/CSV/text estimate sinks. [`handle_line_view`] answers against
//!   any view and [`serve_live`] serves the newest view on a bus — the
//!   in-flight run's, or a finished run's [`DaemonReport::live_view`].
//!   Mid-run and post-run answers share one code path, so a mid-run
//!   answer for a completed tick is bit-identical to the post-run
//!   answer.
//!
//! ## Guarantees
//!
//! Under any chaos schedule within the restart budget, a run loses **no
//! intervals**: every restart resumes from a checkpoint and replays the
//! confirmed ticks the checkpoint does not cover, and the warm resume
//! is deterministic, so clean-tick estimates are bit-identical to a
//! single-process [`tm_core::stream::StreamEngine`] over the same feed
//! (see `tests/daemon_day.rs` and the chaos property test). Shards that
//! exhaust the budget are quarantined and *reported*, never silently
//! absorbed.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chaos;
pub mod config;
pub mod coordinator;
pub mod error;
pub mod feed;
pub mod protocol;
pub mod telemetry;
pub mod transport;
mod worker;

pub use chaos::{ChaosEvent, ChaosKind, ChaosPlan};
pub use config::{
    load_daemon_toml, parse_daemon_toml, DaemonConfig, DaemonTomlConfig, ShardSpec, SocketOptions,
    TransportConfig,
};
pub use coordinator::{Daemon, DaemonReport, FailureCause, RestartEvent, ShardReport, ShardState};
pub use error::{DaemonError, Result};
pub use feed::{build_feeds, ShardFeed};
pub use protocol::{handle_line_view, serve_live, serve_live_deadline};
pub use telemetry::{
    HistogramSummary, LiveBus, LivePhase, LiveShard, LiveView, LogHistogram, TelemetryCounters,
    TelemetrySnapshot,
};
pub use transport::netchaos::{NetFaultEvent, NetFaultKind, NetFaultPlan};
pub use transport::{TransportEvent, TransportEventKind};
