//! Per-shard telemetry recorders and the aggregator that merges their
//! snapshots.
//!
//! Ownership mirrors the supervision design: one [`ShardRecorder`] per
//! shard, held by the coordinator across every worker epoch of that
//! shard — a restart replaces the worker but keeps the recorder, so
//! histograms span epochs. The [`TelemetryHub`] owns the
//! roster and can cut a [`TelemetrySnapshot`] at any instant without
//! stopping anyone: recorders are wait-free writers
//! ([`AtomicLogHistogram`]) and a snapshot is a read-only sweep.
//!
//! ## Who records what
//!
//! The coordinator records everything, from what it accepts off the
//! worker's link, identically for both transports:
//!
//! * **Latencies**: per-method solve wall time (from
//!   [`tm_core::stream::StreamTick::solve_ns`]) and dispatch → dequeue
//!   queue delay when the awaited tick's result is accepted, and
//!   checkpoint serialization cost (measured by the worker, shipped in
//!   the checkpoint frame) when the checkpoint is. An abandoned zombie
//!   epoch or a duplicated frame therefore never pollutes a histogram.
//!   Replayed ticks DO record — the histograms describe all real work
//!   the supervisor heard about, so the exact solve and queue-delay
//!   population per shard is `completed_ticks + Σ restart.replayed`
//!   (pinned for both transports in `tests/live_protocol.rs` and the
//!   `live-matrix`/`net-matrix` CI gates).
//! * **Facts**: ticks, degraded ticks, imputed/masked rows (each
//!   counted once, on first acceptance of a tick result — replays
//!   overwrite bit-identically and are not re-counted), restarts, and
//!   reconnects/resends (from the transport's events). The counters
//!   therefore reconcile *exactly* with the finished
//!   [`crate::DaemonReport`]'s aggregates; the `live-matrix` CI gate
//!   asserts this.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use super::histogram::{AtomicLogHistogram, LogHistogram};

/// Monotonic event counters for one shard (or, summed, a whole run).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TelemetryCounters {
    /// Tick results accepted (first acceptance only — replays after a
    /// restart overwrite bit-identically and are not re-counted).
    pub ticks: u64,
    /// Accepted ticks carrying a degradation report.
    pub degraded_ticks: u64,
    /// Stacked measurement rows bridged by imputation, summed over
    /// accepted ticks.
    pub imputed_rows: u64,
    /// Stacked measurement rows masked out, summed over accepted ticks.
    pub masked_rows: u64,
    /// Supervised restarts.
    pub restarts: u64,
    /// Checkpoints serialized (every attempt, including replays).
    pub checkpoints: u64,
    /// Wire-level reconnects the shard's transport performed (socket
    /// transport only; always 0 for the thread transport).
    pub reconnects: u64,
    /// In-flight tick frames resent after a reconnect (socket transport
    /// only).
    pub resent_frames: u64,
}

impl TelemetryCounters {
    /// Element-wise sum.
    pub fn add(&self, other: &TelemetryCounters) -> TelemetryCounters {
        TelemetryCounters {
            ticks: self.ticks + other.ticks,
            degraded_ticks: self.degraded_ticks + other.degraded_ticks,
            imputed_rows: self.imputed_rows + other.imputed_rows,
            masked_rows: self.masked_rows + other.masked_rows,
            restarts: self.restarts + other.restarts,
            checkpoints: self.checkpoints + other.checkpoints,
            reconnects: self.reconnects + other.reconnects,
            resent_frames: self.resent_frames + other.resent_frames,
        }
    }
}

/// One shard's live telemetry: latency histograms + event counters.
/// Wait-free to write, snapshot-able while written.
#[derive(Debug)]
pub struct ShardRecorder {
    name: String,
    labels: Vec<String>,
    solve: Vec<AtomicLogHistogram>,
    queue_delay: AtomicLogHistogram,
    checkpoint: AtomicLogHistogram,
    ticks: AtomicU64,
    degraded_ticks: AtomicU64,
    imputed_rows: AtomicU64,
    masked_rows: AtomicU64,
    restarts: AtomicU64,
    checkpoints: AtomicU64,
    reconnects: AtomicU64,
    resent_frames: AtomicU64,
}

impl ShardRecorder {
    /// A fresh recorder for one shard over a method roster.
    pub fn new(name: impl Into<String>, labels: &[String]) -> Self {
        ShardRecorder {
            name: name.into(),
            labels: labels.to_vec(),
            solve: labels.iter().map(|_| AtomicLogHistogram::new()).collect(),
            queue_delay: AtomicLogHistogram::new(),
            checkpoint: AtomicLogHistogram::new(),
            ticks: AtomicU64::new(0),
            degraded_ticks: AtomicU64::new(0),
            imputed_rows: AtomicU64::new(0),
            masked_rows: AtomicU64::new(0),
            restarts: AtomicU64::new(0),
            checkpoints: AtomicU64::new(0),
            reconnects: AtomicU64::new(0),
            resent_frames: AtomicU64::new(0),
        }
    }

    /// Shard name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Record one tick's per-method solve walls (slice in label order;
    /// shorter slices record what they have).
    pub fn record_solves(&self, solve_ns: &[u64]) {
        for (hist, &ns) in self.solve.iter().zip(solve_ns) {
            hist.record(ns);
        }
    }

    /// Record one dispatch→dequeue queue delay.
    pub fn record_queue_delay(&self, ns: u64) {
        self.queue_delay.record(ns);
    }

    /// Record one checkpoint serialization.
    pub fn record_checkpoint(&self, ns: u64) {
        self.checkpoint.record(ns);
        self.checkpoints.fetch_add(1, Ordering::Relaxed);
    }

    /// Count an accepted tick result (coordinator side, first
    /// acceptance only).
    pub fn count_tick(&self, degraded: bool, imputed_rows: u64, masked_rows: u64) {
        self.ticks.fetch_add(1, Ordering::Relaxed);
        if degraded {
            self.degraded_ticks.fetch_add(1, Ordering::Relaxed);
        }
        self.imputed_rows.fetch_add(imputed_rows, Ordering::Relaxed);
        self.masked_rows.fetch_add(masked_rows, Ordering::Relaxed);
    }

    /// Count a supervised restart (coordinator side).
    pub fn count_restart(&self) {
        self.restarts.fetch_add(1, Ordering::Relaxed);
    }

    /// Count a wire-level reconnect (socket transport).
    pub fn count_reconnect(&self) {
        self.reconnects.fetch_add(1, Ordering::Relaxed);
    }

    /// Count an in-flight tick frame resent after a reconnect (socket
    /// transport).
    pub fn count_resent(&self) {
        self.resent_frames.fetch_add(1, Ordering::Relaxed);
    }

    /// Cut a plain snapshot of this shard's telemetry.
    pub fn snapshot(&self) -> ShardTelemetry {
        ShardTelemetry {
            name: self.name.clone(),
            solve: self
                .labels
                .iter()
                .zip(&self.solve)
                .map(|(label, hist)| (label.clone(), hist.snapshot()))
                .collect(),
            queue_delay: self.queue_delay.snapshot(),
            checkpoint: self.checkpoint.snapshot(),
            counters: TelemetryCounters {
                ticks: self.ticks.load(Ordering::Relaxed),
                degraded_ticks: self.degraded_ticks.load(Ordering::Relaxed),
                imputed_rows: self.imputed_rows.load(Ordering::Relaxed),
                masked_rows: self.masked_rows.load(Ordering::Relaxed),
                restarts: self.restarts.load(Ordering::Relaxed),
                checkpoints: self.checkpoints.load(Ordering::Relaxed),
                reconnects: self.reconnects.load(Ordering::Relaxed),
                resent_frames: self.resent_frames.load(Ordering::Relaxed),
            },
        }
    }
}

/// One shard's telemetry at a point in time (plain data, mergeable).
#[derive(Debug, Clone)]
pub struct ShardTelemetry {
    /// Shard name.
    pub name: String,
    /// Per-method solve-wall histograms, `(label, histogram)` in the
    /// engine's label order.
    pub solve: Vec<(String, LogHistogram)>,
    /// Dispatch→dequeue queue delay.
    pub queue_delay: LogHistogram,
    /// Checkpoint serialization cost.
    pub checkpoint: LogHistogram,
    /// Event counters.
    pub counters: TelemetryCounters,
}

/// A frozen cut across every shard's recorder, plus derived global
/// merges. This is what [`crate::protocol`]'s `stats` verb serves and
/// what the finished [`crate::DaemonReport`] retains.
#[derive(Debug, Clone)]
pub struct TelemetrySnapshot {
    /// Method labels (every shard's solve histograms share this order).
    pub labels: Vec<String>,
    /// Per-shard telemetry, in roster order.
    pub shards: Vec<ShardTelemetry>,
}

impl TelemetrySnapshot {
    /// A snapshot with no shards (telemetry disabled / nothing run).
    pub fn empty() -> Self {
        TelemetrySnapshot {
            labels: Vec::new(),
            shards: Vec::new(),
        }
    }

    /// Look a shard's telemetry up by name.
    pub fn shard(&self, name: &str) -> Option<&ShardTelemetry> {
        self.shards.iter().find(|s| s.name == name)
    }

    /// Per-method solve histograms merged across all shards, in label
    /// order — the run-global latency picture.
    pub fn merged_solve(&self) -> Vec<(String, LogHistogram)> {
        self.labels
            .iter()
            .enumerate()
            .map(|(slot, label)| {
                let mut merged = LogHistogram::new();
                for shard in &self.shards {
                    if let Some((_, hist)) = shard.solve.get(slot) {
                        merged.merge(hist);
                    }
                }
                (label.clone(), merged)
            })
            .collect()
    }

    /// Counters summed across all shards.
    pub fn total_counters(&self) -> TelemetryCounters {
        self.shards
            .iter()
            .fold(TelemetryCounters::default(), |acc, s| acc.add(&s.counters))
    }
}

/// The roster of recorders for one run. The coordinator builds the hub,
/// records through each shard's `Arc<ShardRecorder>`, and cuts a
/// [`TelemetrySnapshot`] per lockstep round for the live view — never
/// blocking a writer.
#[derive(Debug)]
pub struct TelemetryHub {
    labels: Vec<String>,
    shards: Vec<Arc<ShardRecorder>>,
}

impl TelemetryHub {
    /// One recorder per shard name, all over the same method roster.
    pub fn new(shard_names: &[String], labels: &[String]) -> Self {
        TelemetryHub {
            labels: labels.to_vec(),
            shards: shard_names
                .iter()
                .map(|name| Arc::new(ShardRecorder::new(name.clone(), labels)))
                .collect(),
        }
    }

    /// The shard's shared recorder (by roster index).
    pub fn recorder(&self, shard: usize) -> Arc<ShardRecorder> {
        Arc::clone(&self.shards[shard])
    }

    /// Cut a snapshot across every shard.
    pub fn snapshot(&self) -> TelemetrySnapshot {
        TelemetrySnapshot {
            labels: self.labels.clone(),
            shards: self.shards.iter().map(|r| r.snapshot()).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn labels() -> Vec<String> {
        vec!["gravity".to_string(), "entropy(1e3)".to_string()]
    }

    #[test]
    fn hub_snapshot_reflects_recordings() {
        let hub = TelemetryHub::new(&["west".to_string(), "east".to_string()], &labels());
        let west = hub.recorder(0);
        west.record_solves(&[1_000, 2_000]);
        west.record_queue_delay(500);
        west.record_checkpoint(10_000);
        west.count_tick(true, 3, 1);
        west.count_restart();
        west.count_reconnect();
        west.count_reconnect();
        west.count_resent();
        let snap = hub.snapshot();
        let w = snap.shard("west").unwrap();
        assert_eq!(w.solve[0].1.count(), 1);
        assert_eq!(w.solve[0].1.max(), Some(1_000));
        assert_eq!(w.queue_delay.count(), 1);
        assert_eq!(w.checkpoint.count(), 1);
        assert_eq!(
            w.counters,
            TelemetryCounters {
                ticks: 1,
                degraded_ticks: 1,
                imputed_rows: 3,
                masked_rows: 1,
                restarts: 1,
                checkpoints: 1,
                reconnects: 2,
                resent_frames: 1,
            }
        );
        assert!(snap.shard("east").unwrap().solve[0].1.is_empty());
    }

    #[test]
    fn merged_solve_sums_across_shards() {
        let hub = TelemetryHub::new(&["a".to_string(), "b".to_string()], &labels());
        hub.recorder(0).record_solves(&[100, 200]);
        hub.recorder(1).record_solves(&[300, 400]);
        let merged = hub.snapshot().merged_solve();
        assert_eq!(merged[0].0, "gravity");
        assert_eq!(merged[0].1.count(), 2);
        assert_eq!(merged[0].1.max(), Some(300));
        assert_eq!(merged[1].1.max(), Some(400));
    }

    #[test]
    fn total_counters_sum() {
        let hub = TelemetryHub::new(&["a".to_string(), "b".to_string()], &labels());
        hub.recorder(0).count_tick(false, 0, 0);
        hub.recorder(1).count_tick(true, 2, 5);
        let totals = hub.snapshot().total_counters();
        assert_eq!(totals.ticks, 2);
        assert_eq!(totals.degraded_ticks, 1);
        assert_eq!(totals.imputed_rows, 2);
        assert_eq!(totals.masked_rows, 5);
    }
}
