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
//! `estimate`/`stats`/`whatif` from the in-flight run. Mid-run views and
//! [`DaemonReport::live_view`] are cut by one builder from the same
//! [`ShardReport`]s, which each shard's runtime keeps current.
//!
//! ## Telemetry
//!
//! The coordinator is the one recording site, through one
//! [`ShardRecorder`] per shard that outlives the shard's worker epochs.
//! It books only what it accepts — latencies when the awaited tick's
//! result or a checkpoint arrives, facts once per tick, reconnects and
//! resends from the harvested [`TransportEvent`]s — so the rules are
//! the same on both transports, and zombies and duplicated frames book
//! nothing (see [`crate::telemetry::aggregator`]).

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
use crate::transport::wire::Frame;
use crate::transport::{
    make_transport, ChannelError, ShardTransport, SpawnSpec, TransportEvent, TransportEventKind,
    WorkerChannel,
};
use crate::worker::wall_clock_ns;

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
        assemble_view(
            &self.labels,
            self.ticks,
            self.ticks,
            self.mode,
            false,
            self.unfired_chaos,
            &self.shards,
            self.telemetry.clone(),
        )
    }
}

/// Cut a [`LiveView`] from shard reports: the one place a view is
/// assembled, mid-run from the runtimes' reports and post-run from the
/// finished [`DaemonReport`]. Cheap by construction: tick results are
/// `Arc`-shared. A shard that is not quarantined shows as running until
/// the run is over.
#[allow(clippy::too_many_arguments)]
fn assemble_view<'a>(
    labels: &[String],
    ticks: usize,
    uptime_ticks: usize,
    mode: StreamMode,
    running: bool,
    unfired_chaos: usize,
    shards: impl IntoIterator<Item = &'a ShardReport>,
    telemetry: TelemetrySnapshot,
) -> LiveView {
    LiveView {
        epoch: 0, // assigned by the bus at publish
        labels: labels.to_vec(),
        ticks,
        uptime_ticks,
        mode,
        running,
        unfired_chaos,
        shards: shards
            .into_iter()
            .map(|s| LiveShard {
                name: s.name.clone(),
                phase: match s.state {
                    ShardState::Quarantined { at_tick } => LivePhase::Quarantined { at_tick },
                    ShardState::Completed if running => LivePhase::Running,
                    ShardState::Completed => LivePhase::Completed,
                },
                restarts: s.restarts.clone(),
                last_checkpoint: s.last_checkpoint,
                lost_polls: s.lost_polls,
                ticks: s.ticks.clone(),
                dataset: Arc::clone(&s.dataset),
                transport_events: s.transport_events.clone(),
            })
            .collect(),
        telemetry,
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
    /// Serialized engine state of the newest checkpoint, taken after
    /// tick `report.last_checkpoint`.
    checkpoint: Option<String>,
    /// Confirmed ticks since the newest checkpoint, in delivery order —
    /// the replay schedule for the next restart.
    replay: Vec<usize>,
    /// The shard's telemetry recorder, kept across its epochs.
    recorder: Arc<ShardRecorder>,
    /// [`wall_clock_ns`] at the newest dispatch.
    dispatched_ns: u64,
    /// The newest heartbeat's dequeue stamp since that dispatch.
    dequeued_ns: u64,
    /// What the run reports for the shard, kept current as it goes:
    /// results, restarts, checkpoint tick, quarantine, wire incidents.
    report: ShardReport,
}

impl ShardRuntime {
    /// A shard's state at the start of a run, on its first epoch.
    fn new(
        index: usize,
        feed: ShardFeed,
        handle: Box<dyn WorkerChannel>,
        recorder: Arc<ShardRecorder>,
    ) -> Self {
        let report = ShardReport {
            name: feed.name.clone(),
            state: ShardState::Completed,
            restarts: Vec::new(),
            last_checkpoint: None,
            lost_polls: feed.lost_polls,
            ticks: vec![None; feed.len()],
            dataset: Arc::clone(&feed.dataset),
            transport_events: Vec::new(),
        };
        ShardRuntime {
            index,
            feed,
            handle: Some(handle),
            epoch: 0,
            checkpoint: None,
            replay: Vec::new(),
            recorder,
            dispatched_ns: 0,
            dequeued_ns: 0,
            report,
        }
    }

    fn quarantined(&self) -> bool {
        matches!(self.report.state, ShardState::Quarantined { .. })
    }

    /// Keep a checkpoint as the newest and book its serialization cost;
    /// the ticks it covers leave the replay schedule.
    fn accept_checkpoint(&mut self, tick: usize, json: String, ckpt_ns: u64) {
        self.recorder.record_checkpoint(ckpt_ns);
        self.report.last_checkpoint = Some(tick);
        self.checkpoint = Some(json);
        self.replay.retain(|&j| j > tick);
    }

    /// Collect the wire incidents of the shard's current channel,
    /// counting its reconnects and resends.
    fn harvest(&mut self) {
        let Some(channel) = self.handle.as_mut() else {
            return;
        };
        for event in channel.take_events() {
            match event.kind {
                TransportEventKind::Reconnect { .. } => self.recorder.count_reconnect(),
                TransportEventKind::Resend => self.recorder.count_resent(),
                TransportEventKind::FaultInjected { .. } => {}
            }
            self.report.transport_events.push(event);
        }
    }
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
            let handle = transport.spawn(&SpawnSpec {
                index,
                epoch: 0,
                shard: &self.shards[index],
                feed: &feed,
                config: &self.config,
                checkpoint: None,
            })?;
            runtimes.push(ShardRuntime::new(index, feed, handle, hub.recorder(index)));
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
                let reports = runtimes.iter().map(|rt| &rt.report);
                bus.publish(assemble_view(
                    &labels,
                    n_ticks,
                    k + 1,
                    self.config.mode,
                    true,
                    chaos.unfired(),
                    reports,
                    hub.snapshot(),
                ));
            }
        }
        for rt in &mut runtimes {
            self.drain(rt);
        }
        let report = DaemonReport {
            labels,
            ticks: n_ticks,
            mode: self.config.mode,
            shards: runtimes.into_iter().map(|rt| rt.report).collect(),
            unfired_chaos: chaos.unfired(),
            telemetry: hub.snapshot(),
        };
        if let Some(bus) = live {
            bus.publish(report.live_view());
        }
        Ok(report)
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
            if rt.quarantined() {
                return Ok(());
            }
            let outcome = sent.and_then(|()| await_tick(rt, tick, self.config.heartbeat_timeout));
            rt.harvest();
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
        let restarts = &mut rt.report.restarts;
        restarts.push(RestartEvent {
            tick: failed_tick,
            epoch: rt.epoch,
            cause,
            from_checkpoint: rt.report.last_checkpoint,
            replayed: rt.replay.len(),
        });
        rt.recorder.count_restart();
        if restarts.len() > self.config.max_restarts {
            rt.report.state = ShardState::Quarantined {
                at_tick: failed_tick,
            };
            return Ok(false);
        }
        let exponent = (restarts.len() as u32 - 1).min(10);
        std::thread::sleep(self.config.restart_backoff * 2u32.pow(exponent));

        rt.handle = Some(transport.spawn(&SpawnSpec {
            index: rt.index,
            epoch: rt.epoch,
            shard: &self.shards[rt.index],
            feed: &rt.feed,
            config: &self.config,
            checkpoint: rt.checkpoint.as_deref(),
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
        let Some(channel) = rt.handle.as_mut() else {
            return;
        };
        let drained = channel.send(Frame::Drain).is_ok()
            && loop {
                let channel = rt.handle.as_mut().expect("draining an active worker");
                match channel.recv_deadline(self.config.heartbeat_timeout) {
                    Ok(Frame::Drained) => break true,
                    Ok(Frame::Checkpoint {
                        tick,
                        json,
                        ckpt_ns,
                    }) => rt.accept_checkpoint(tick, json, ckpt_ns),
                    Ok(_) => {}
                    Err(_) => break false,
                }
            };
        rt.harvest();
        let channel = rt.handle.take().expect("draining an active worker");
        if drained {
            channel.finish(self.config.heartbeat_timeout);
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
    if rt.quarantined() {
        return Ok(());
    }
    // Chaos is consumed at dispatch (consume-once), shipped inside the
    // tick frame, and executed by the worker loop — identically across
    // transports, so a chaos schedule means the same thing to a thread
    // and to a child process.
    let frame = Frame::Tick {
        tick,
        chaos: chaos.take(rt.index, tick),
        loads: Box::new(rt.feed.dirty[tick].clone()),
    };
    rt.dispatched_ns = wall_clock_ns();
    rt.dequeued_ns = rt.dispatched_ns;
    let channel = rt.handle.as_mut().expect("active shard has a worker");
    channel.send(frame).map_err(|()| FailureCause::Panic)
}

/// Await one tick's completion under the heartbeat deadline. Records
/// the result (and any checkpoints) on the runtime, and books their
/// telemetry; returns the failure cause otherwise.
fn await_tick(
    rt: &mut ShardRuntime,
    tick: usize,
    timeout: Duration,
) -> std::result::Result<(), FailureCause> {
    loop {
        let channel = rt.handle.as_mut().expect("awaiting an active worker");
        // Each receive restarts the deadline clock, so heartbeats (and
        // any queued frames from the previous tick) extend liveness.
        match channel.recv_deadline(timeout) {
            // The newest stamp wins: a stale heartbeat (a duplicated
            // frame of the previous tick) precedes this tick's own.
            Ok(Frame::Heartbeat { dequeued_ns }) => rt.dequeued_ns = dequeued_ns,
            Ok(Frame::TickDone { tick: t, result }) => {
                let recorder = &rt.recorder;
                let Some(slot) = rt.report.ticks.get_mut(t) else {
                    let message = format!("worker answered tick {t}, outside the day");
                    return Err(FailureCause::Engine(message));
                };
                // Count each fact once, on first acceptance: a replay
                // after a restart overwrites the slot bit-identically
                // and must not inflate the counters (they reconcile
                // exactly with the final report).
                if slot.is_none() {
                    let (imputed, masked) = result
                        .degradation
                        .as_ref()
                        .map(|d| (d.imputed_rows.len() as u64, d.masked_rows.len() as u64))
                        .unwrap_or((0, 0));
                    recorder.count_tick(result.degradation.is_some(), imputed, masked);
                }
                // Latencies describe the work the awaited tick cost; a
                // duplicate of an earlier result arrives while a later
                // tick is awaited and is not booked.
                if t == tick {
                    recorder.record_queue_delay(rt.dequeued_ns.saturating_sub(rt.dispatched_ns));
                    recorder.record_solves(&result.solve_ns);
                }
                *slot = Some(Arc::from(result));
                // Schedule the tick for post-restart replay — once.
                // A duplicate delivery (the socket transport resends
                // the in-flight tick after a reconnect, and duplicated
                // frames arrive twice by design) must not double-book
                // the replay schedule, and a tick already covered by
                // the newest checkpoint must not re-enter it.
                let covered = rt.report.last_checkpoint.is_some_and(|c| t <= c);
                if !covered && !rt.replay.contains(&t) {
                    rt.replay.push(t);
                }
                if t == tick {
                    return Ok(());
                }
            }
            Ok(Frame::Checkpoint {
                tick: t,
                json,
                ckpt_ns,
            }) => rt.accept_checkpoint(t, json, ckpt_ns),
            Ok(Frame::Failed { message }) => {
                return Err(FailureCause::Engine(message));
            }
            Ok(_) => {}
            Err(ChannelError::Timeout) => return Err(FailureCause::Hang),
            Err(ChannelError::Down) => return Err(FailureCause::Panic),
        }
    }
}

#[cfg(test)]
mod tests {
    use std::collections::VecDeque;
    use std::sync::Mutex;

    use tm_core::stream::{StreamEngine, StreamTick};

    use super::*;
    use crate::chaos::{ChaosKind, ChaosPlan};
    use crate::transport::thread::ThreadTransport;

    /// A channel that replays a fixed script of worker messages — the
    /// coordinator-side lens for wire behaviors (duplicate delivery)
    /// that are awkward to schedule deterministically over real sockets.
    struct ScriptedChannel {
        script: VecDeque<Frame>,
    }

    impl WorkerChannel for ScriptedChannel {
        fn send(&mut self, _frame: Frame) -> std::result::Result<(), ()> {
            Ok(())
        }

        fn recv_deadline(
            &mut self,
            _timeout: Duration,
        ) -> std::result::Result<Frame, ChannelError> {
            self.script.pop_front().ok_or(ChannelError::Timeout)
        }

        fn take_events(&mut self) -> Vec<TransportEvent> {
            Vec::new()
        }

        fn finish(self: Box<Self>, _grace: Duration) {}
    }

    /// Satellite: duplicate `TickDone` delivery — by design the socket
    /// transport can deliver a tick result twice (a duplicated frame, or
    /// a post-reconnect resend answered from the worker's last result). The
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

        let script: VecDeque<Frame> = [
            Frame::TickDone {
                tick: 0,
                result: Box::new(results[0].clone()),
            },
            // The duplicate arrives while tick 1 is in flight.
            Frame::TickDone {
                tick: 0,
                result: Box::new(results[0].clone()),
            },
            Frame::TickDone {
                tick: 1,
                result: Box::new(results[1].clone()),
            },
        ]
        .into_iter()
        .collect();

        let recorder = Arc::new(ShardRecorder::new("east", &["gravity".to_string()]));
        let channel = Box::new(ScriptedChannel { script });
        let mut rt = ShardRuntime::new(0, feed, channel, Arc::clone(&recorder));

        let timeout = Duration::from_millis(100);
        await_tick(&mut rt, 0, timeout).expect("tick 0 accepted");
        assert_eq!(recorder.snapshot().counters.ticks, 1);
        await_tick(&mut rt, 1, timeout).expect("tick 1 accepted through the duplicate");

        assert_eq!(
            recorder.snapshot().counters.ticks,
            2,
            "each tick counted exactly once despite the duplicate"
        );
        let solve = &recorder.snapshot().solve[0].1;
        assert_eq!(solve.count(), 2, "each tick's solve booked once");
        assert_eq!(
            rt.replay,
            vec![0, 1],
            "replay schedule booked once per tick"
        );
        assert!(rt.report.ticks[0].is_some() && rt.report.ticks[1].is_some());

        // And a duplicate of a checkpoint-covered tick must not
        // re-enter the replay schedule either.
        rt.report.last_checkpoint = Some(1);
        rt.replay.clear();
        rt.handle = Some(Box::new(ScriptedChannel {
            script: [
                Frame::TickDone {
                    tick: 0,
                    result: Box::new(results[0].clone()),
                },
                Frame::TickDone {
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

    /// A result for a tick outside the day (a misbehaving worker: frames
    /// are checksummed, so not corruption) fails the epoch with a typed
    /// cause instead of panicking the coordinator.
    #[test]
    fn a_result_outside_the_day_fails_the_epoch() {
        let shards = vec![ShardSpec::new("east", tm_traffic::DatasetSpec::tiny(), 11)];
        let config = DaemonConfig::new(vec!["gravity".parse().unwrap()]);
        let feed = build_feeds(&shards, &config, 0..2).unwrap().remove(0);
        let mut engine =
            StreamEngine::for_dataset(&feed.dataset, &config.methods, config.mode).unwrap();
        let result = engine.push_interval(feed.dirty[0].clone()).unwrap();
        let script = [Frame::TickDone {
            tick: 2,
            result: Box::new(result),
        }];
        let channel = Box::new(ScriptedChannel {
            script: script.into_iter().collect(),
        });
        let recorder = Arc::new(ShardRecorder::new("east", &["gravity".to_string()]));
        let mut rt = ShardRuntime::new(0, feed, channel, recorder);
        let cause = await_tick(&mut rt, 0, Duration::from_millis(100)).unwrap_err();
        assert_eq!(
            cause,
            FailureCause::Engine("worker answered tick 2, outside the day".into())
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

    /// The thread transport, with every `send` and `recv_deadline` its
    /// channels see logged.
    struct RecordingTransport {
        log: Arc<Mutex<Vec<Op>>>,
    }

    struct RecordingChannel {
        shard: usize,
        epoch: usize,
        inner: Box<dyn WorkerChannel>,
        log: Arc<Mutex<Vec<Op>>>,
        last_tick: usize,
    }

    impl ShardTransport for RecordingTransport {
        fn spawn(&self, spec: &SpawnSpec<'_>) -> Result<Box<dyn WorkerChannel>> {
            Ok(Box::new(RecordingChannel {
                shard: spec.index,
                epoch: spec.epoch,
                inner: ThreadTransport.spawn(spec)?,
                log: Arc::clone(&self.log),
                last_tick: 0,
            }))
        }
    }

    impl WorkerChannel for RecordingChannel {
        fn send(&mut self, frame: Frame) -> std::result::Result<(), ()> {
            if let Frame::Tick { tick, .. } = frame {
                self.log.lock().unwrap().push(Op::Send {
                    shard: self.shard,
                    epoch: self.epoch,
                    tick,
                });
                self.last_tick = tick;
            }
            self.inner.send(frame)
        }

        fn recv_deadline(&mut self, timeout: Duration) -> std::result::Result<Frame, ChannelError> {
            self.log.lock().unwrap().push(Op::Recv {
                shard: self.shard,
                epoch: self.epoch,
                tick: self.last_tick,
            });
            self.inner.recv_deadline(timeout)
        }

        fn take_events(&mut self) -> Vec<TransportEvent> {
            self.inner.take_events()
        }

        fn finish(self: Box<Self>, grace: Duration) {
            self.inner.finish(grace)
        }
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
        config.heartbeat_timeout = Duration::from_millis(500);
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
