//! The supervising coordinator: lockstep dispatch, liveness deadlines,
//! checkpoint/replay restarts, quarantine — and, since the telemetry
//! subsystem, live publication of the in-flight run.
//!
//! One [`Daemon`] owns a shard roster and a policy. [`Daemon::run`]
//! materializes every shard's feed (one shared collection run — see
//! [`crate::feed`]), spawns one supervised worker per shard, and
//! drives the day tick by tick:
//!
//! 1. **Dispatch** — every round is a scatter/gather. The tick's
//!    (possibly dirty) interval is first sent to *every* active shard,
//!    so the shards solve at the same time and a round costs the
//!    slowest shard's solve, not the sum. Then the shards are settled
//!    in roster order, each awaited under the heartbeat deadline. A
//!    later shard's deadline clock starts when the coordinator turns to
//!    it, so a hang there is detected at most one extra timeout late;
//!    its result, if it has one, is already waiting in its channel.
//! 2. **Failure** — a channel disconnect (worker death), a deadline
//!    miss (hang), or a hard engine error triggers a restart: the
//!    worker's epoch ends, a fresh engine is restored from the last
//!    checkpoint, every confirmed tick since that checkpoint is
//!    replayed from the retained feed, and the failed tick is
//!    re-delivered. Recovery is the one serial path: it runs inside the
//!    failed shard's settle step, one tick at a time, while the other
//!    shards' results wait. Chaos events are keyed by `(shard, tick)`
//!    and consume-once, so a replay never re-fires the failure that
//!    caused it, and the order in which shards consume them is
//!    immaterial.
//! 3. **Quarantine** — a shard that exhausts `max_restarts` is dropped
//!    from the roster; the rest of the day continues on the surviving
//!    shards and the loss is reported, never silently absorbed.
//! 4. **Drain** — at end of day every surviving worker is asked to
//!    drain and joined; hung zombies are abandoned (their epoch's
//!    channels are dead, so nothing they do can be observed).
//!
//! ## Live serving
//!
//! [`Daemon::run_live`] additionally publishes a [`LiveView`] through
//! a [`LiveBus`] after every lockstep round, once every shard has
//! settled (and once more, final, after the drain). Tick results are
//! held as `Arc<StreamTick>`, so a publish clones pointers, not
//! estimates, and [`crate::protocol`] can answer `status`/`health`/
//! `estimate`/`stats`/`whatif` from the in-flight run. Telemetry flows
//! through one [`ShardRecorder`] per shard, shared across that shard's
//! worker epochs: workers record latencies, the coordinator counts facts
//! (accepted ticks, degradations, restarts) — each fact once, on first
//! acceptance, so the counters reconcile exactly with the finished
//! [`DaemonReport`].

use std::sync::Arc;
use std::time::Duration;

use tm_core::stream::{StreamMode, StreamTick};
use tm_traffic::EvalDataset;

use crate::chaos::ChaosState;
use crate::config::{DaemonConfig, ShardSpec};
use crate::error::Result;
use crate::feed::{build_feeds, ShardFeed};
use crate::telemetry::{
    LiveBus, LivePhase, LiveShard, LiveView, ShardRecorder, TelemetryHub, TelemetrySnapshot,
};
use crate::transport::{
    make_transport, ChannelError, ShardTransport, SpawnSpec, TransportEvent, TransportEventKind,
    WorkerChannel,
};
use crate::worker::{FromWorker, ToWorker};

/// Why a worker epoch ended and a restart was attempted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FailureCause {
    /// The worker died mid-tick (channel disconnect — a panic, abort,
    /// or chaos kill).
    Panic,
    /// The worker missed its heartbeat deadline.
    Hang,
    /// The engine returned a hard error (reported by the worker before
    /// exiting).
    Engine(String),
}

impl std::fmt::Display for FailureCause {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FailureCause::Panic => write!(f, "panic"),
            FailureCause::Hang => write!(f, "hang"),
            FailureCause::Engine(m) => write!(f, "engine error: {m}"),
        }
    }
}

/// One supervised restart, as surfaced in the health output.
#[derive(Debug, Clone)]
pub struct RestartEvent {
    /// Tick whose delivery failed.
    pub tick: usize,
    /// Worker epoch that the restart *started* (epoch 0 is the initial
    /// spawn, so the first restart begins epoch 1).
    pub epoch: usize,
    /// What ended the previous epoch.
    pub cause: FailureCause,
    /// Checkpoint tick the replacement resumed from (`None` = cold
    /// replay from the start of the feed).
    pub from_checkpoint: Option<usize>,
    /// Confirmed ticks replayed to catch the replacement up.
    pub replayed: usize,
}

/// Terminal state of a shard after a run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShardState {
    /// Every tick of the feed was processed.
    Completed,
    /// The shard exhausted its restart budget at `at_tick`; later
    /// ticks were never attempted.
    Quarantined {
        /// Tick at which the final failure occurred.
        at_tick: usize,
    },
}

/// Everything the daemon knows about one shard after a run.
#[derive(Debug)]
pub struct ShardReport {
    /// Shard name.
    pub name: String,
    /// Terminal state.
    pub state: ShardState,
    /// Every supervised restart, in order.
    pub restarts: Vec<RestartEvent>,
    /// Tick of the last retained checkpoint, if any was taken.
    pub last_checkpoint: Option<usize>,
    /// Whole polls lost by the shared collection run (global
    /// diagnostic).
    pub lost_polls: usize,
    /// Per-tick results, indexed by feed tick. `None` only for ticks a
    /// quarantined shard never processed. Shared (`Arc`) with any
    /// live views published during the run.
    pub ticks: Vec<Option<Arc<StreamTick>>>,
    /// The shard's region dataset — kept so post-run `whatif` queries
    /// can project link loads through the shard's routing.
    pub dataset: Arc<EvalDataset>,
    /// Wire-level incidents the shard's transport surfaced (reconnects,
    /// resends, injected faults). Always empty for the thread
    /// transport.
    pub transport_events: Vec<TransportEvent>,
}

impl ShardReport {
    /// Wire-level reconnects the shard's transport performed.
    pub fn reconnects(&self) -> usize {
        self.transport_events
            .iter()
            .filter(|e| matches!(e.kind, TransportEventKind::Reconnect { .. }))
            .count()
    }

    /// Ticks that produced a result.
    pub fn completed_ticks(&self) -> usize {
        self.ticks.iter().filter(|t| t.is_some()).count()
    }

    /// Ticks lost to quarantine.
    pub fn lost_ticks(&self) -> usize {
        self.ticks.len() - self.completed_ticks()
    }

    /// Ticks that carried a degradation report.
    pub fn degraded_ticks(&self) -> usize {
        self.ticks
            .iter()
            .flatten()
            .filter(|t| t.degradation.is_some())
            .count()
    }
}

/// The daemon's global view of a finished run.
#[derive(Debug)]
pub struct DaemonReport {
    /// Method labels, in every shard's estimate order.
    pub labels: Vec<String>,
    /// Feed length every shard was driven over.
    pub ticks: usize,
    /// Streaming mode the shards ran in.
    pub mode: StreamMode,
    /// Per-shard reports, in roster order.
    pub shards: Vec<ShardReport>,
    /// Chaos events that never fired (e.g. scheduled past a
    /// quarantine).
    pub unfired_chaos: usize,
    /// Final telemetry cut: latency histograms + counters per shard.
    /// The counters reconcile exactly with this report's aggregates
    /// (same facts, counted once each).
    pub telemetry: TelemetrySnapshot,
}

impl DaemonReport {
    /// Look a shard up by name.
    pub fn shard(&self, name: &str) -> Option<&ShardReport> {
        self.shards.iter().find(|s| s.name == name)
    }

    /// Restarts across all shards.
    pub fn total_restarts(&self) -> usize {
        self.shards.iter().map(|s| s.restarts.len()).sum()
    }

    /// Whether every shard completed its whole feed.
    pub fn all_completed(&self) -> bool {
        self.shards.iter().all(|s| s.state == ShardState::Completed)
    }

    /// Rebuild the final [`LiveView`] of this run — the same structure
    /// the protocol serves mid-run, so post-run queries go through one
    /// code path and mid-run answers for completed ticks are
    /// bit-identical to post-run ones.
    pub fn live_view(&self) -> LiveView {
        LiveView {
            epoch: 0,
            labels: self.labels.clone(),
            ticks: self.ticks,
            uptime_ticks: self.ticks,
            mode: self.mode,
            running: false,
            unfired_chaos: self.unfired_chaos,
            shards: self
                .shards
                .iter()
                .map(|s| LiveShard {
                    name: s.name.clone(),
                    phase: match s.state {
                        ShardState::Completed => LivePhase::Completed,
                        ShardState::Quarantined { at_tick } => LivePhase::Quarantined { at_tick },
                    },
                    restarts: s.restarts.clone(),
                    last_checkpoint: s.last_checkpoint,
                    lost_polls: s.lost_polls,
                    ticks: s.ticks.clone(),
                    dataset: Arc::clone(&s.dataset),
                    transport_events: s.transport_events.clone(),
                })
                .collect(),
            telemetry: self.telemetry.clone(),
        }
    }
}

/// A configured daemon: shard roster + supervision policy.
#[derive(Debug, Clone)]
pub struct Daemon {
    shards: Vec<ShardSpec>,
    config: DaemonConfig,
}

/// Per-shard supervisor state while a run is in flight.
struct ShardRuntime {
    index: usize,
    feed: ShardFeed,
    handle: Option<Box<dyn WorkerChannel>>,
    epoch: usize,
    restarts: Vec<RestartEvent>,
    /// `(tick, serialized engine state)` of the newest checkpoint.
    checkpoint: Option<(usize, String)>,
    /// Confirmed ticks since the newest checkpoint, in delivery order —
    /// the replay schedule for the next restart.
    replay: Vec<usize>,
    ticks: Vec<Option<Arc<StreamTick>>>,
    quarantined_at: Option<usize>,
    /// Telemetry recorder shared with every worker epoch of this shard.
    recorder: Arc<ShardRecorder>,
    /// Wire incidents harvested from the shard's channels so far.
    transport_events: Vec<TransportEvent>,
}

impl Daemon {
    /// Validate and assemble a daemon.
    pub fn new(shards: Vec<ShardSpec>, config: DaemonConfig) -> Result<Self> {
        config.validate(&shards)?;
        Ok(Daemon { shards, config })
    }

    /// The shard roster.
    pub fn shards(&self) -> &[ShardSpec] {
        &self.shards
    }

    /// Run `ticks` of every shard's day under supervision and return
    /// the aggregated global view.
    pub fn run(&self, ticks: std::ops::Range<usize>) -> Result<DaemonReport> {
        self.run_inner(ticks, None)
    }

    /// [`Self::run`], additionally publishing a live view through `bus`
    /// after every lockstep round (and a final one after the drain) so
    /// [`crate::protocol`] can serve the run while it streams.
    pub fn run_live(&self, ticks: std::ops::Range<usize>, bus: &LiveBus) -> Result<DaemonReport> {
        self.run_inner(ticks, Some(bus))
    }

    fn run_inner(
        &self,
        ticks: std::ops::Range<usize>,
        live: Option<&LiveBus>,
    ) -> Result<DaemonReport> {
        let transport = make_transport(&self.config)?;
        self.run_on(transport.as_ref(), ticks, live)
    }

    fn run_on(
        &self,
        transport: &dyn ShardTransport,
        ticks: std::ops::Range<usize>,
        live: Option<&LiveBus>,
    ) -> Result<DaemonReport> {
        let n_ticks = ticks.len();
        let feeds = build_feeds(&self.shards, &self.config, ticks)?;
        let chaos = ChaosState::new(&self.config.chaos);

        // Labels come from the shared method roster (every shard's
        // engine is built from it, whichever side of a process boundary
        // it lives on), then the telemetry roster, then the workers.
        let labels: Vec<String> = self.config.methods.iter().map(|m| m.label()).collect();
        let shard_names: Vec<String> = self.shards.iter().map(|s| s.name.clone()).collect();
        let hub = TelemetryHub::new(&shard_names, &labels);

        let mut runtimes = Vec::with_capacity(feeds.len());
        for (index, feed) in feeds.into_iter().enumerate() {
            let recorder = hub.recorder(index);
            let handle = transport.spawn(&SpawnSpec {
                index,
                epoch: 0,
                shard: &self.shards[index],
                feed: &feed,
                config: &self.config,
                checkpoint: None,
                recorder: Arc::clone(&recorder),
            })?;
            runtimes.push(ShardRuntime {
                index,
                feed,
                handle: Some(handle),
                epoch: 0,
                restarts: Vec::new(),
                checkpoint: None,
                replay: Vec::new(),
                ticks: (0..n_ticks).map(|_| None).collect(),
                quarantined_at: None,
                recorder,
                transport_events: Vec::new(),
            });
        }

        for k in 0..n_ticks {
            // Scatter before gather: no shard is awaited until every
            // active shard holds tick k.
            let sent: Vec<_> = runtimes
                .iter_mut()
                .map(|rt| dispatch(rt, k, &chaos))
                .collect();
            for (rt, sent) in runtimes.iter_mut().zip(sent) {
                self.settle(rt, k, sent, &chaos, transport)?;
            }
            if let Some(bus) = live {
                bus.publish(self.build_view(
                    &runtimes,
                    &labels,
                    n_ticks,
                    k + 1,
                    chaos.unfired(),
                    true,
                    &hub,
                ));
            }
        }
        for rt in &mut runtimes {
            self.drain(rt);
        }
        if let Some(bus) = live {
            bus.publish(self.build_view(
                &runtimes,
                &labels,
                n_ticks,
                n_ticks,
                chaos.unfired(),
                false,
                &hub,
            ));
        }

        Ok(DaemonReport {
            labels,
            ticks: n_ticks,
            mode: self.config.mode,
            shards: self
                .shards
                .iter()
                .zip(runtimes)
                .map(|(spec, rt)| ShardReport {
                    name: spec.name.clone(),
                    state: match rt.quarantined_at {
                        Some(at_tick) => ShardState::Quarantined { at_tick },
                        None => ShardState::Completed,
                    },
                    restarts: rt.restarts,
                    last_checkpoint: rt.checkpoint.map(|(t, _)| t),
                    lost_polls: rt.feed.lost_polls,
                    ticks: rt.ticks,
                    dataset: Arc::clone(&rt.feed.dataset),
                    transport_events: rt.transport_events,
                })
                .collect(),
            unfired_chaos: chaos.unfired(),
            telemetry: hub.snapshot(),
        })
    }

    /// Assemble one live view from the in-flight runtimes. Cheap by
    /// construction: tick results are `Arc`-shared, telemetry is a
    /// wait-free snapshot.
    #[allow(clippy::too_many_arguments)]
    fn build_view(
        &self,
        runtimes: &[ShardRuntime],
        labels: &[String],
        n_ticks: usize,
        uptime_ticks: usize,
        unfired_chaos: usize,
        running: bool,
        hub: &TelemetryHub,
    ) -> LiveView {
        LiveView {
            epoch: 0, // assigned by the bus at publish
            labels: labels.to_vec(),
            ticks: n_ticks,
            uptime_ticks,
            mode: self.config.mode,
            running,
            unfired_chaos,
            shards: runtimes
                .iter()
                .zip(&self.shards)
                .map(|(rt, spec)| LiveShard {
                    name: spec.name.clone(),
                    phase: match rt.quarantined_at {
                        Some(at_tick) => LivePhase::Quarantined { at_tick },
                        None if running => LivePhase::Running,
                        None => LivePhase::Completed,
                    },
                    restarts: rt.restarts.clone(),
                    last_checkpoint: rt.checkpoint.as_ref().map(|(t, _)| *t),
                    lost_polls: rt.feed.lost_polls,
                    ticks: rt.ticks.clone(),
                    dataset: Arc::clone(&rt.feed.dataset),
                    transport_events: rt.transport_events.clone(),
                })
                .collect(),
            telemetry: hub.snapshot(),
        }
    }

    /// Deliver one tick to one shard, serially: dispatch, then settle.
    /// Restart replay uses this form.
    fn deliver(
        &self,
        rt: &mut ShardRuntime,
        tick: usize,
        chaos: &ChaosState,
        transport: &dyn ShardTransport,
    ) -> Result<()> {
        let sent = dispatch(rt, tick, chaos);
        self.settle(rt, tick, sent, chaos, transport)
    }

    /// Await a dispatched tick, restarting the shard's worker (and
    /// redispatching the tick) as many times as the budget allows.
    /// `sent` is the dispatch outcome. Returns with the tick recorded,
    /// or with the shard quarantined.
    fn settle(
        &self,
        rt: &mut ShardRuntime,
        tick: usize,
        mut sent: std::result::Result<(), FailureCause>,
        chaos: &ChaosState,
        transport: &dyn ShardTransport,
    ) -> Result<()> {
        loop {
            if rt.quarantined_at.is_some() {
                return Ok(());
            }
            let outcome = sent.and_then(|()| await_tick(rt, tick, self.config.heartbeat_timeout));
            if let Some(channel) = rt.handle.as_mut() {
                rt.transport_events.extend(channel.take_events());
            }
            let Err(cause) = outcome else {
                return Ok(());
            };
            if !self.restart(rt, tick, cause, chaos, transport)? {
                return Ok(()); // quarantined
            }
            sent = dispatch(rt, tick, chaos);
        }
    }

    /// End the current epoch, restore a replacement from the newest
    /// checkpoint, and replay every confirmed tick since. Returns
    /// `false` if the restart budget is exhausted (shard quarantined).
    fn restart(
        &self,
        rt: &mut ShardRuntime,
        failed_tick: usize,
        cause: FailureCause,
        chaos: &ChaosState,
        transport: &dyn ShardTransport,
    ) -> Result<bool> {
        // Abandon the epoch: dropping the channel detaches a zombie
        // (thread transport: both mpsc ends close; socket transport:
        // the child process is killed and reaped), so nothing it still
        // says is heard.
        rt.handle = None;
        rt.epoch += 1;
        rt.restarts.push(RestartEvent {
            tick: failed_tick,
            epoch: rt.epoch,
            cause,
            from_checkpoint: rt.checkpoint.as_ref().map(|(t, _)| *t),
            replayed: rt.replay.len(),
        });
        rt.recorder.count_restart();
        if rt.restarts.len() > self.config.max_restarts {
            rt.quarantined_at = Some(failed_tick);
            return Ok(false);
        }
        let exponent = (rt.restarts.len() as u32 - 1).min(10);
        std::thread::sleep(self.config.restart_backoff * 2u32.pow(exponent));

        rt.handle = Some(transport.spawn(&SpawnSpec {
            index: rt.index,
            epoch: rt.epoch,
            shard: &self.shards[rt.index],
            feed: &rt.feed,
            config: &self.config,
            checkpoint: rt.checkpoint.as_ref().map(|(_, json)| json.as_str()),
            recorder: Arc::clone(&rt.recorder),
        })?);
        // Replay the confirmed ticks the checkpoint doesn't cover.
        // Results overwrite the previous epoch's (the warm resume is
        // deterministic; see the bit-identity tests). A failure during
        // replay recurses into this method and is bounded by the same
        // restart budget.
        for replay_tick in std::mem::take(&mut rt.replay) {
            self.deliver(rt, replay_tick, chaos, transport)?;
        }
        Ok(true)
    }

    /// Ask a surviving worker to drain and finish it (join the thread /
    /// reap the child). Non-responsive workers are abandoned rather
    /// than waited on — dropping the channel cleans them up.
    fn drain(&self, rt: &mut ShardRuntime) {
        let Some(mut channel) = rt.handle.take() else {
            return;
        };
        if channel.send(ToWorker::Drain).is_err() {
            rt.transport_events.extend(channel.take_events());
            return;
        }
        loop {
            match channel.recv_deadline(self.config.heartbeat_timeout) {
                Ok(FromWorker::Drained) => {
                    rt.transport_events.extend(channel.take_events());
                    channel.finish(self.config.heartbeat_timeout);
                    return;
                }
                Ok(FromWorker::Checkpoint { tick, json }) => {
                    rt.checkpoint = Some((tick, json));
                }
                Ok(_) => {}
                Err(_) => {
                    rt.transport_events.extend(channel.take_events());
                    return;
                }
            }
        }
    }
}

/// Send one tick to a shard's worker. `Err` means the worker was
/// already gone at the dispatch; a quarantined shard is skipped.
fn dispatch(
    rt: &mut ShardRuntime,
    tick: usize,
    chaos: &ChaosState,
) -> std::result::Result<(), FailureCause> {
    if rt.quarantined_at.is_some() {
        return Ok(());
    }
    // Chaos is consumed at dispatch (consume-once), shipped inside the
    // tick message, and executed worker-side — identically across
    // transports, so a chaos schedule means the same thing to a thread
    // and to a child process.
    let msg = ToWorker::Tick {
        tick,
        loads: Box::new(rt.feed.dirty[tick].clone()),
        chaos: chaos.take(rt.index, tick),
        sent: std::time::Instant::now(),
    };
    let channel = rt.handle.as_mut().expect("active shard has a worker");
    channel.send(msg).map_err(|()| FailureCause::Panic)
}

/// Await one tick's completion under the heartbeat deadline. Records
/// the result (and any checkpoints) on the runtime; returns the failure
/// cause otherwise.
fn await_tick(
    rt: &mut ShardRuntime,
    tick: usize,
    timeout: Duration,
) -> std::result::Result<(), FailureCause> {
    let ShardRuntime {
        handle,
        ticks,
        replay,
        checkpoint,
        recorder,
        ..
    } = rt;
    let channel = handle.as_mut().expect("awaiting an active worker");
    loop {
        // Each receive restarts the deadline clock, so heartbeats (and
        // any queued messages from the previous tick) extend liveness.
        match channel.recv_deadline(timeout) {
            Ok(FromWorker::Heartbeat) => {}
            Ok(FromWorker::TickDone { tick: t, result }) => {
                // Count each fact once, on first acceptance: a replay
                // after a restart overwrites the slot bit-identically
                // and must not inflate the counters (they reconcile
                // exactly with the final report).
                if ticks[t].is_none() {
                    let (imputed, masked) = result
                        .degradation
                        .as_ref()
                        .map(|d| (d.imputed_rows.len() as u64, d.masked_rows.len() as u64))
                        .unwrap_or((0, 0));
                    recorder.count_tick(result.degradation.is_some(), imputed, masked);
                }
                ticks[t] = Some(Arc::from(result));
                // Schedule the tick for post-restart replay — once.
                // A duplicate delivery (the socket transport resends
                // the in-flight tick after a reconnect, and duplicated
                // frames arrive twice by design) must not double-book
                // the replay schedule, and a tick already covered by
                // the newest checkpoint must not re-enter it.
                let covered = checkpoint.as_ref().is_some_and(|(c, _)| t <= *c);
                if !covered && !replay.contains(&t) {
                    replay.push(t);
                }
                if t == tick {
                    return Ok(());
                }
            }
            Ok(FromWorker::Checkpoint { tick: t, json }) => {
                *checkpoint = Some((t, json));
                replay.retain(|&j| j > t);
            }
            Ok(FromWorker::Failed { message }) => {
                return Err(FailureCause::Engine(message));
            }
            Ok(FromWorker::Drained) => {}
            Err(ChannelError::Timeout) => return Err(FailureCause::Hang),
            Err(ChannelError::Down) => return Err(FailureCause::Panic),
        }
    }
}

#[cfg(test)]
mod tests {
    use std::collections::VecDeque;
    use std::sync::Mutex;

    use tm_core::checkpoint::EngineCheckpoint;
    use tm_core::stream::{StreamEngine, StreamTick};

    use super::*;
    use crate::chaos::{ChaosKind, ChaosPlan};

    /// A channel that replays a fixed script of worker messages — the
    /// coordinator-side lens for wire behaviors (duplicate delivery)
    /// that are awkward to schedule deterministically over real sockets.
    struct ScriptedChannel {
        script: VecDeque<FromWorker>,
    }

    impl WorkerChannel for ScriptedChannel {
        fn send(&mut self, _msg: ToWorker) -> std::result::Result<(), ()> {
            Ok(())
        }

        fn recv_deadline(
            &mut self,
            _timeout: Duration,
        ) -> std::result::Result<FromWorker, ChannelError> {
            self.script.pop_front().ok_or(ChannelError::Timeout)
        }

        fn take_events(&mut self) -> Vec<TransportEvent> {
            Vec::new()
        }

        fn finish(self: Box<Self>, _grace: Duration) {}
    }

    /// Satellite: duplicate `TickDone` delivery — by design the socket
    /// transport can deliver a tick result twice (a duplicated frame, or
    /// a post-reconnect resend answered from the worker's cache). The
    /// coordinator must accept the first, treat the second as a no-op:
    /// telemetry counted once, replay schedule booked once.
    #[test]
    fn duplicate_tick_done_is_accepted_once() {
        let shards = vec![ShardSpec::new("east", tm_traffic::DatasetSpec::tiny(), 11)];
        let config = DaemonConfig::new(vec!["gravity".parse().unwrap()]);
        let feeds = build_feeds(&shards, &config, 0..4).unwrap();
        let feed = feeds.into_iter().next().unwrap();

        // Real results for ticks 0 and 1, so duplicates are
        // bit-identical — exactly what a resend produces.
        let mut engine =
            StreamEngine::for_dataset(&feed.dataset, &config.methods, config.mode).unwrap();
        let results: Vec<StreamTick> = (0..2)
            .map(|k| engine.push_interval(feed.dirty[k].clone()).unwrap())
            .collect();

        let script: VecDeque<FromWorker> = [
            FromWorker::TickDone {
                tick: 0,
                result: Box::new(results[0].clone()),
            },
            // The duplicate arrives while tick 1 is in flight.
            FromWorker::TickDone {
                tick: 0,
                result: Box::new(results[0].clone()),
            },
            FromWorker::TickDone {
                tick: 1,
                result: Box::new(results[1].clone()),
            },
        ]
        .into_iter()
        .collect();

        let recorder = Arc::new(ShardRecorder::new("east", &["gravity".to_string()]));
        let mut rt = ShardRuntime {
            index: 0,
            feed,
            handle: Some(Box::new(ScriptedChannel { script })),
            epoch: 0,
            restarts: Vec::new(),
            checkpoint: None,
            replay: Vec::new(),
            ticks: (0..4).map(|_| None).collect(),
            quarantined_at: None,
            recorder: Arc::clone(&recorder),
            transport_events: Vec::new(),
        };

        let timeout = Duration::from_millis(100);
        await_tick(&mut rt, 0, timeout).expect("tick 0 accepted");
        assert_eq!(recorder.snapshot().counters.ticks, 1);
        await_tick(&mut rt, 1, timeout).expect("tick 1 accepted through the duplicate");

        assert_eq!(
            recorder.snapshot().counters.ticks,
            2,
            "each tick counted exactly once despite the duplicate"
        );
        assert_eq!(
            rt.replay,
            vec![0, 1],
            "replay schedule booked once per tick"
        );
        assert!(rt.ticks[0].is_some() && rt.ticks[1].is_some());

        // And a duplicate of a checkpoint-covered tick must not
        // re-enter the replay schedule either.
        rt.checkpoint = Some((1, String::from("unused")));
        rt.replay.clear();
        rt.handle = Some(Box::new(ScriptedChannel {
            script: [
                FromWorker::TickDone {
                    tick: 0,
                    result: Box::new(results[0].clone()),
                },
                FromWorker::TickDone {
                    tick: 2,
                    result: Box::new(results[1].clone()),
                },
            ]
            .into_iter()
            .collect(),
        }));
        await_tick(&mut rt, 2, timeout).expect("tick 2 accepted");
        assert_eq!(
            rt.replay,
            vec![2],
            "checkpoint-covered duplicate stays out of the replay schedule"
        );
    }

    /// One channel operation, as the coordinator issued it.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum Op {
        /// A `Tick` dispatch.
        Send {
            shard: usize,
            epoch: usize,
            tick: usize,
        },
        /// A `recv_deadline` call; `tick` is the channel's newest
        /// dispatched tick.
        Recv {
            shard: usize,
            epoch: usize,
            tick: usize,
        },
    }

    /// A transport of scripted channels that log every `send` and
    /// `recv_deadline`. Each channel owns an engine and answers a tick
    /// in line, at `send`, with the messages a thread worker would
    /// queue; a chaos directive scripts the failure instead (`Kill`: the
    /// channel goes down, `Hang`: it times out) once the queued
    /// messages are read.
    struct RecordingTransport {
        log: Arc<Mutex<Vec<Op>>>,
    }

    struct RecordingChannel {
        shard: usize,
        epoch: usize,
        engine: StreamEngine,
        checkpoint_every: usize,
        log: Arc<Mutex<Vec<Op>>>,
        last_tick: usize,
        script: VecDeque<FromWorker>,
        failure: Option<ChannelError>,
    }

    impl ShardTransport for RecordingTransport {
        fn spawn(&self, spec: &SpawnSpec<'_>) -> Result<Box<dyn WorkerChannel>> {
            let mut engine = StreamEngine::for_dataset(
                &spec.feed.dataset,
                &spec.config.methods,
                spec.config.mode,
            )?;
            if let Some(json) = spec.checkpoint {
                engine.restore(&EngineCheckpoint::from_json(json)?)?;
            }
            Ok(Box::new(RecordingChannel {
                shard: spec.index,
                epoch: spec.epoch,
                engine,
                checkpoint_every: spec.config.checkpoint_every,
                log: Arc::clone(&self.log),
                last_tick: 0,
                script: VecDeque::new(),
                failure: None,
            }))
        }
    }

    impl WorkerChannel for RecordingChannel {
        fn send(&mut self, msg: ToWorker) -> std::result::Result<(), ()> {
            let ToWorker::Tick {
                tick, loads, chaos, ..
            } = msg
            else {
                self.script.push_back(FromWorker::Drained);
                return Ok(());
            };
            self.log.lock().unwrap().push(Op::Send {
                shard: self.shard,
                epoch: self.epoch,
                tick,
            });
            self.last_tick = tick;
            self.script.push_back(FromWorker::Heartbeat);
            match chaos {
                Some(ChaosKind::Kill) => self.failure = Some(ChannelError::Down),
                Some(ChaosKind::Hang) => self.failure = Some(ChannelError::Timeout),
                Some(ChaosKind::Delay) | None => {
                    let result = self.engine.push_interval(*loads).expect("clean tick");
                    self.script.push_back(FromWorker::TickDone {
                        tick,
                        result: Box::new(result),
                    });
                    if (tick + 1) % self.checkpoint_every == 0 {
                        self.script.push_back(FromWorker::Checkpoint {
                            tick,
                            json: self.engine.checkpoint().to_json(),
                        });
                    }
                }
            }
            Ok(())
        }

        fn recv_deadline(
            &mut self,
            _timeout: Duration,
        ) -> std::result::Result<FromWorker, ChannelError> {
            self.log.lock().unwrap().push(Op::Recv {
                shard: self.shard,
                epoch: self.epoch,
                tick: self.last_tick,
            });
            match self.script.pop_front() {
                Some(msg) => Ok(msg),
                None => Err(self.failure.unwrap_or(ChannelError::Timeout)),
            }
        }

        fn take_events(&mut self) -> Vec<TransportEvent> {
            Vec::new()
        }

        fn finish(self: Box<Self>, _grace: Duration) {}
    }

    /// Run `ticks` of `shards` tiny shards over a recording transport.
    fn recorded_run(
        shards: usize,
        ticks: usize,
        chaos: ChaosPlan,
    ) -> (Daemon, DaemonReport, Vec<Op>) {
        let roster = (0..shards)
            .map(|s| {
                ShardSpec::new(
                    format!("s{s}"),
                    tm_traffic::DatasetSpec::tiny(),
                    40 + s as u64,
                )
            })
            .collect();
        let mut config = DaemonConfig::new(vec![
            "gravity".parse().unwrap(),
            "vardi:w=0.01,window=6".parse().unwrap(),
        ]);
        config.checkpoint_every = 2;
        config.restart_backoff = Duration::from_millis(1);
        config.chaos = chaos;
        let daemon = Daemon::new(roster, config).unwrap();
        let log = Arc::new(Mutex::new(Vec::new()));
        let transport = RecordingTransport {
            log: Arc::clone(&log),
        };
        let report = daemon.run_on(&transport, 0..ticks, None).unwrap();
        let ops = log.lock().unwrap().clone();
        (daemon, report, ops)
    }

    /// Every estimate equals an uninterrupted in-process engine's.
    fn assert_bit_identical(daemon: &Daemon, report: &DaemonReport) {
        let config = &daemon.config;
        let feeds = build_feeds(&daemon.shards, config, 0..report.ticks).unwrap();
        for (feed, shard) in feeds.iter().zip(&report.shards) {
            let mut engine =
                StreamEngine::for_dataset(&feed.dataset, &config.methods, config.mode).unwrap();
            for (k, loads) in feed.dirty.iter().enumerate() {
                let want = engine.push_interval(loads.clone()).unwrap();
                let got = shard.ticks[k].as_ref().expect("no lost tick");
                for (g, w) in got.estimates.iter().zip(&want.estimates) {
                    let (Some(Ok(g)), Some(Ok(w))) = (g, w) else {
                        assert!(
                            matches!((g, w), (None, None) | (Some(Err(_)), Some(Err(_)))),
                            "shard {} tick {k}: outcome shape differs",
                            shard.name
                        );
                        continue;
                    };
                    assert!(
                        g.demands
                            .iter()
                            .zip(&w.demands)
                            .all(|(a, b)| a.to_bits() == b.to_bits()),
                        "shard {} tick {k} differs from the in-process engine",
                        shard.name
                    );
                }
            }
        }
    }

    /// Position of the first `Recv` issued while `tick` was the newest
    /// dispatch of its channel.
    fn first_recv_of(ops: &[Op], tick: usize) -> usize {
        ops.iter()
            .position(|op| matches!(*op, Op::Recv { tick: t, .. } if t == tick))
            .expect("every round awaits")
    }

    /// Scatter before gather: in every round, every shard's tick is
    /// sent before the coordinator awaits any shard.
    #[test]
    fn every_shard_is_dispatched_before_any_is_awaited() {
        let (daemon, report, ops) = recorded_run(3, 6, ChaosPlan::none());
        assert!(report.all_completed());
        assert_eq!(report.total_restarts(), 0);
        for k in 0..6 {
            let sends: Vec<usize> = ops
                .iter()
                .enumerate()
                .filter(|(_, op)| matches!(**op, Op::Send { tick, .. } if tick == k))
                .map(|(i, _)| i)
                .collect();
            assert_eq!(sends.len(), 3, "tick {k} sent once to each shard");
            let first_recv = first_recv_of(&ops, k);
            assert!(
                sends.iter().all(|&i| i < first_recv),
                "tick {k}: a shard was awaited before every shard held the tick: {ops:?}"
            );
        }
        assert_bit_identical(&daemon, &report);
    }

    /// A kill or hang on shard 0 at tick k restarts shard 0 alone:
    /// shard 1's tick-k result, dispatched before the failure was
    /// seen, is kept, and every chaos event fires exactly once.
    #[test]
    fn a_failed_shard_restarts_alone_and_keeps_its_peers_results() {
        for (kind, cause) in [
            (ChaosKind::Kill, FailureCause::Panic),
            (ChaosKind::Hang, FailureCause::Hang),
        ] {
            let k = 3;
            let mut chaos = ChaosPlan::none().with_delay(1, k);
            chaos.events.push(crate::chaos::ChaosEvent {
                shard: 0,
                at_tick: k,
                kind,
            });
            let (daemon, report, ops) = recorded_run(2, 6, chaos);
            assert!(report.all_completed(), "{kind:?}");
            assert_eq!(report.unfired_chaos, 0, "{kind:?}: every event fired");

            let restarts = &report.shards[0].restarts;
            assert_eq!(restarts.len(), 1, "{kind:?}: the event fired once");
            assert_eq!(restarts[0].tick, k);
            assert_eq!(restarts[0].cause, cause);
            assert_eq!(restarts[0].from_checkpoint, Some(1));
            assert_eq!(restarts[0].replayed, 1, "tick 2 is replayed");
            assert!(report.shards[1].restarts.is_empty(), "{kind:?}");

            let sends_of = |shard: usize, tick: usize| -> Vec<usize> {
                ops.iter()
                    .filter_map(|op| match *op {
                        Op::Send {
                            shard: s,
                            epoch,
                            tick: t,
                        } if s == shard && t == tick => Some(epoch),
                        _ => None,
                    })
                    .collect()
            };
            assert_eq!(
                sends_of(1, k),
                vec![0],
                "{kind:?}: shard 1 solved tick k once"
            );
            assert_eq!(
                sends_of(0, k),
                vec![0, 1],
                "{kind:?}: shard 0 redelivered tick k"
            );
            assert_eq!(
                sends_of(0, k - 1),
                vec![0, 1],
                "{kind:?}: and replayed tick k-1"
            );

            // Shard 1 held tick k before shard 0's failure was seen.
            let shard1_sent = ops
                .iter()
                .position(|op| {
                    *op == Op::Send {
                        shard: 1,
                        epoch: 0,
                        tick: k,
                    }
                })
                .unwrap();
            let failure_seen = ops
                .iter()
                .position(|op| {
                    *op == Op::Send {
                        shard: 0,
                        epoch: 1,
                        tick: k - 1,
                    }
                })
                .unwrap();
            assert!(shard1_sent < first_recv_of(&ops, k) && first_recv_of(&ops, k) < failure_seen);
            assert_bit_identical(&daemon, &report);
        }
    }
}
