//! The epoch-versioned live view: what the protocol serves while the
//! day is still streaming.
//!
//! After every lockstep round the coordinator assembles a [`LiveView`]
//! — latest per-shard results (shared as `Arc<StreamTick>`, so a
//! publish clones pointers, not estimates), supervision health, and a
//! [`TelemetrySnapshot`] — and publishes it through the [`LiveBus`].
//! The bus is a std-only rendition of an `ArcSwap`: a
//! `std::sync::Mutex<Arc<LiveView>>` plus a monotone epoch counter.
//! Readers take the lock only long enough to clone an `Arc` (no
//! allocation, no copying), so a protocol client polling every tick
//! never stalls the solve loop; writers publish at most once per
//! lockstep round.
//!
//! ## Guarantees
//!
//! * **Epoch monotonicity** — epochs are assigned under the same lock
//!   that stores the view, so any reader observing epoch `e` will never
//!   subsequently load an epoch `< e` (property-tested under
//!   concurrent readers in `tests/telemetry_props.rs`).
//! * **Answer stability** — a tick present in a published view is the
//!   coordinator-accepted result; replays after a restart overwrite
//!   bit-identically, so a live answer for a completed tick equals the
//!   post-run answer bit for bit (pinned by the `live-matrix` gate).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use tm_core::stream::{StreamMode, StreamTick};
use tm_traffic::EvalDataset;

use super::aggregator::TelemetrySnapshot;
use crate::coordinator::RestartEvent;
use crate::transport::TransportEvent;

/// A shard's phase as seen mid-run (the live superset of the terminal
/// [`crate::ShardState`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LivePhase {
    /// Still being driven through the day.
    Running,
    /// Every tick of the feed was processed.
    Completed,
    /// Restart budget exhausted at `at_tick`; no further ticks.
    Quarantined {
        /// Tick at which the final failure occurred.
        at_tick: usize,
    },
}

/// One shard inside a [`LiveView`].
#[derive(Debug, Clone)]
pub struct LiveShard {
    /// Shard name.
    pub name: String,
    /// Live phase.
    pub phase: LivePhase,
    /// Supervised restarts so far, in order.
    pub restarts: Vec<RestartEvent>,
    /// Tick of the newest retained checkpoint.
    pub last_checkpoint: Option<usize>,
    /// Whole polls lost by the shared collection run.
    pub lost_polls: usize,
    /// Per-tick accepted results (shared, cheap to republish). `None`
    /// for ticks not yet delivered or lost to quarantine.
    pub ticks: Vec<Option<Arc<StreamTick>>>,
    /// The shard's region dataset — routing + topology for `whatif`
    /// link-load projections (read-only; solver state is never shared).
    pub dataset: Arc<EvalDataset>,
    /// Wire-level incidents the shard's transport surfaced so far
    /// (reconnects, resends, injected faults). Always empty for the
    /// thread transport.
    pub transport_events: Vec<TransportEvent>,
}

impl LiveShard {
    /// Ticks with an accepted result.
    pub fn completed_ticks(&self) -> usize {
        self.ticks.iter().filter(|t| t.is_some()).count()
    }

    /// Accepted ticks carrying a degradation report.
    pub fn degraded_ticks(&self) -> usize {
        self.ticks
            .iter()
            .flatten()
            .filter(|t| t.degradation.is_some())
            .count()
    }

    /// The newest accepted tick index, if any.
    pub fn latest_tick(&self) -> Option<usize> {
        self.ticks.iter().rposition(|t| t.is_some())
    }
}

/// One consistent, immutable cut of the run: everything the protocol
/// needs to answer `status`/`health`/`estimate`/`stats`/`whatif`.
#[derive(Debug, Clone)]
pub struct LiveView {
    /// Publish sequence number (assigned by the [`LiveBus`]; 0 only for
    /// the pre-run placeholder).
    pub epoch: u64,
    /// Method labels, in every shard's estimate order.
    pub labels: Vec<String>,
    /// Feed length every shard is driven over.
    pub ticks: usize,
    /// Lockstep rounds fully delivered so far (= `ticks` once done).
    pub uptime_ticks: usize,
    /// Streaming mode of every shard engine.
    pub mode: StreamMode,
    /// Whether the run is still in flight.
    pub running: bool,
    /// Chaos events not (yet) fired.
    pub unfired_chaos: usize,
    /// Per-shard live state, in roster order.
    pub shards: Vec<LiveShard>,
    /// Telemetry cut taken at publish time.
    pub telemetry: TelemetrySnapshot,
}

impl LiveView {
    /// The placeholder served before the first round completes.
    pub fn initial() -> Self {
        LiveView {
            epoch: 0,
            labels: Vec::new(),
            ticks: 0,
            uptime_ticks: 0,
            mode: StreamMode::Warm,
            running: true,
            unfired_chaos: 0,
            shards: Vec::new(),
            telemetry: TelemetrySnapshot::empty(),
        }
    }

    /// Look a shard up by name.
    pub fn shard(&self, name: &str) -> Option<&LiveShard> {
        self.shards.iter().find(|s| s.name == name)
    }

    /// Restarts across all shards.
    pub fn total_restarts(&self) -> usize {
        self.shards.iter().map(|s| s.restarts.len()).sum()
    }
}

/// The publish/subscribe slot: swap-on-publish, clone-on-read.
#[derive(Debug)]
pub struct LiveBus {
    current: Mutex<Arc<LiveView>>,
    epoch: AtomicU64,
}

impl Default for LiveBus {
    fn default() -> Self {
        Self::new()
    }
}

impl LiveBus {
    /// A bus holding the pre-run placeholder at epoch 0.
    pub fn new() -> Self {
        LiveBus {
            current: Mutex::new(Arc::new(LiveView::initial())),
            epoch: AtomicU64::new(0),
        }
    }

    /// Publish a new view, assigning it the next epoch. Epoch
    /// assignment happens under the slot lock, so published epochs and
    /// stored views order identically — readers can never observe the
    /// epoch go backwards.
    pub fn publish(&self, mut view: LiveView) -> u64 {
        let mut slot = self.current.lock().expect("live view never poisoned");
        let epoch = self.epoch.fetch_add(1, Ordering::Relaxed) + 1;
        view.epoch = epoch;
        *slot = Arc::new(view);
        epoch
    }

    /// The latest published view (cheap: one lock, one `Arc` clone).
    pub fn load(&self) -> Arc<LiveView> {
        Arc::clone(&self.current.lock().expect("live view never poisoned"))
    }

    /// The latest published epoch without touching the view.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Relaxed)
    }

    /// Block until the epoch advances past `seen` (or the deadline
    /// elapses); returns the new view, or `None` on timeout. Polling
    /// with a small sleep is deliberate — the reader is a protocol
    /// client at human/tick cadence, not a hot loop.
    pub fn wait_past(&self, seen: u64, deadline: std::time::Duration) -> Option<Arc<LiveView>> {
        let start = std::time::Instant::now();
        loop {
            if self.epoch() > seen {
                return Some(self.load());
            }
            if start.elapsed() >= deadline {
                return None;
            }
            std::thread::sleep(std::time::Duration::from_micros(200));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn publish_bumps_epoch_and_swaps_view() {
        let bus = LiveBus::new();
        assert_eq!(bus.epoch(), 0);
        assert_eq!(bus.load().epoch, 0);
        let mut view = LiveView::initial();
        view.uptime_ticks = 3;
        let e = bus.publish(view);
        assert_eq!(e, 1);
        let got = bus.load();
        assert_eq!(got.epoch, 1);
        assert_eq!(got.uptime_ticks, 3);
    }

    #[test]
    fn wait_past_times_out_without_a_publish() {
        let bus = LiveBus::new();
        assert!(bus
            .wait_past(0, std::time::Duration::from_millis(5))
            .is_none());
        bus.publish(LiveView::initial());
        assert!(bus
            .wait_past(0, std::time::Duration::from_millis(100))
            .is_some());
    }
}
