//! Pluggable shard transports: how the coordinator talks to its
//! workers.
//!
//! The supervision layer ([`crate::coordinator`]) is written against
//! one seam — a `WorkerChannel` spawned by a `ShardTransport` — and
//! speaks one message type across it, [`wire::Frame`]. Both
//! implementations run the same worker loop (`crate::worker`) on the
//! far side; only the link between the two ends differs:
//!
//! * `thread` — one worker thread per shard, an `mpsc` pair, frames
//!   moved unencoded. The default.
//! * [`socket`] — process isolation: each shard's worker is a
//!   `tm_shard_worker` child process, and the same frames travel
//!   length-prefixed and checksummed ([`wire`]) over localhost TCP.
//!   The channel hardens the wire path: connect/read deadlines,
//!   reconnect with exponential backoff, resend of the in-flight tick,
//!   and a probe that heals half-open sessions inside the heartbeat
//!   deadline.
//!
//! Everything above the seam — lockstep, heartbeat deadlines,
//! checkpoint/replay restarts, quarantine, telemetry, live serving —
//! is transport-agnostic, and the daemon's loss-free guarantee holds
//! identically: non-WCB estimates from a socket run are bit-identical
//! to the in-process engine (the wire format round-trips `f64`
//! exactly; the `net-matrix` CI gate pins this under seeded network
//! chaos). A transport records no telemetry: it surfaces wire incidents
//! as [`TransportEvent`]s, and the coordinator counts reconnects and
//! resends from those.
//!
//! [`netchaos`] schedules seeded wire faults (dropped connections,
//! black holes, slow links, corrupt/truncated/duplicated frames, and
//! `kill -9`) that the socket channel injects against itself at
//! dispatch — the same consume-once discipline as [`crate::chaos`].

pub mod netchaos;
pub mod socket;
pub(crate) mod thread;
pub mod wire;

use std::sync::Arc;
use std::time::Duration;

use crate::config::{DaemonConfig, ShardSpec, TransportConfig};
use crate::error::Result;
use crate::feed::ShardFeed;

use netchaos::{NetFaultKind, NetFaultState};
use wire::Frame;

/// One noteworthy wire-level incident, surfaced per shard in the
/// [`crate::ShardReport`], the live `health` verb, and (as counters)
/// the `stats` verb. The thread transport never produces any.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TransportEvent {
    /// Tick in flight (or most recently dispatched) when the incident
    /// happened.
    pub tick: usize,
    /// Worker epoch the incident happened in.
    pub epoch: usize,
    /// What happened.
    pub kind: TransportEventKind,
}

/// The transport incident taxonomy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TransportEventKind {
    /// An established connection was lost and a new one accepted.
    Reconnect {
        /// Why the previous connection ended (EOF, decode error,
        /// probe deadline, ...).
        cause: String,
    },
    /// The in-flight tick frame was resent on a fresh connection.
    Resend,
    /// A scheduled [`NetFaultKind`] was injected at dispatch.
    FaultInjected {
        /// The injected fault.
        kind: NetFaultKind,
    },
}

impl std::fmt::Display for TransportEventKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TransportEventKind::Reconnect { cause } => write!(f, "reconnect ({cause})"),
            TransportEventKind::Resend => write!(f, "resend"),
            TransportEventKind::FaultInjected { kind } => write!(f, "fault injected: {kind}"),
        }
    }
}

/// Why a receive came back empty.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ChannelError {
    /// Nothing arrived within the deadline (worker may be hung).
    Timeout,
    /// The worker is gone for good (thread exited / process died).
    Down,
}

/// The coordinator's handle to one worker epoch. Implementations must
/// be dumb pipes with liveness semantics: a dead worker surfaces as
/// [`ChannelError::Down`], a silent one as [`ChannelError::Timeout`],
/// and any successfully received message means the worker was alive to
/// send it.
pub(crate) trait WorkerChannel: Send {
    /// Dispatch one frame (`Tick` or `Drain`). `Err(())` means the
    /// worker is already gone (the coordinator treats it like a
    /// mid-tick death).
    fn send(&mut self, frame: Frame) -> std::result::Result<(), ()>;

    /// Receive the next frame, waiting at most `timeout`.
    fn recv_deadline(&mut self, timeout: Duration) -> std::result::Result<Frame, ChannelError>;

    /// Drain accumulated [`TransportEvent`]s (empty for the thread
    /// transport). The coordinator harvests these after every
    /// delivery and before abandoning an epoch.
    fn take_events(&mut self) -> Vec<TransportEvent>;

    /// Finish a *cleanly drained* worker: join the thread / reap the
    /// child, waiting at most `grace`. Never called on failed epochs —
    /// those are dropped, and `Drop` must clean up without blocking
    /// past a short kill-and-reap.
    fn finish(self: Box<Self>, grace: Duration);
}

/// Everything a transport needs to spawn one worker epoch.
pub(crate) struct SpawnSpec<'a> {
    /// Shard roster index.
    pub index: usize,
    /// Worker epoch being started (0 = initial spawn).
    pub epoch: usize,
    /// The shard's spec — the socket transport ships `spec.spec` +
    /// `spec.seed` so the child regenerates the dataset itself.
    pub shard: &'a ShardSpec,
    /// The shard's materialized feed — the thread transport builds the
    /// engine from `feed.dataset` without regenerating anything.
    pub feed: &'a ShardFeed,
    /// Daemon policy (methods, mode, cadences, deadlines).
    pub config: &'a DaemonConfig,
    /// Serialized checkpoint to restore before the first tick.
    pub checkpoint: Option<&'a str>,
}

/// A factory of [`WorkerChannel`]s — one per shard per epoch.
pub(crate) trait ShardTransport: Send + Sync {
    /// Spawn a worker epoch: build (or restore) the engine and return
    /// the live channel. Restore mismatches and unreachable workers
    /// surface as typed [`crate::DaemonError`]s, never panics.
    fn spawn(&self, spec: &SpawnSpec<'_>) -> Result<Box<dyn WorkerChannel>>;
}

/// Resolve the configured transport. The socket transport also arms
/// the run's [`NetFaultState`] here, shared across every shard channel.
pub(crate) fn make_transport(config: &DaemonConfig) -> Result<Box<dyn ShardTransport>> {
    match &config.transport {
        TransportConfig::Thread => Ok(Box::new(thread::ThreadTransport)),
        TransportConfig::Socket(options) => Ok(Box::new(socket::SocketTransport::new(
            options,
            Arc::new(NetFaultState::new(&config.net_chaos)),
        )?)),
    }
}
