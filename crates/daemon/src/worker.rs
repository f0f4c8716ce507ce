//! The supervised worker: one thread, one shard, one warm engine.
//!
//! Workers are deliberately dumb. They own a [`StreamEngine`], receive
//! intervals one at a time, heartbeat before every solve, and report
//! each tick's result (plus periodic checkpoints of their warm state)
//! back to the coordinator. All policy — deadlines, restarts, backoff,
//! quarantine, replay — lives in [`crate::coordinator`].
//!
//! Channel lifetimes double as liveness signals: a worker that dies
//! mid-tick drops its sender, which the coordinator observes as a
//! disconnect; a worker that hangs simply stops sending, which the
//! coordinator observes as a heartbeat deadline miss. Each spawn gets a
//! fresh channel pair (an *epoch*), so a zombie from a previous epoch
//! can never confuse the supervisor — its sends land in a dropped
//! receiver.
//!
//! ## Telemetry
//!
//! Each epoch shares its shard's [`ShardRecorder`] (recorders outlive
//! epochs, so histograms span restarts). The worker records the three
//! latency families — dispatch→dequeue queue delay, per-method solve
//! wall time (from [`StreamTick::solve_ns`]), and checkpoint
//! serialization cost — but only *after* the corresponding send is
//! accepted by a live coordinator. A zombie (an abandoned hang, or a
//! stale epoch racing its own teardown) fails that send and records
//! nothing, so the histograms only ever describe work the supervisor
//! actually heard about.

use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use tm_core::stream::{StreamEngine, StreamTick};
use tm_traffic::IntervalLoads;

use crate::chaos::ChaosKind;
use crate::telemetry::ShardRecorder;

/// Clamp a duration into the histograms' nanosecond domain.
fn as_ns(elapsed: Duration) -> u64 {
    u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX)
}

/// Coordinator → worker.
pub(crate) enum ToWorker {
    /// Solve one interval.
    Tick {
        /// Feed-relative tick index.
        tick: usize,
        /// Interval loads (possibly dirty — the engine's quality ladder
        /// handles that).
        loads: Box<IntervalLoads>,
        /// Chaos directive the coordinator consumed at dispatch
        /// (consume-once, so a redelivery after the resulting restart
        /// carries `None`). Executed by the worker after its
        /// heartbeat, whichever side of a process boundary it's on.
        chaos: Option<ChaosKind>,
        /// Dispatch instant, for the queue-delay histogram (thread
        /// transport only — the socket child stamps its dequeue wall
        /// clock into its heartbeat, which the parent prices against
        /// its own dispatch stamp).
        sent: Instant,
    },
    /// Finish up and exit cleanly.
    Drain,
}

/// Worker → coordinator.
pub(crate) enum FromWorker {
    /// "Still alive, starting the dispatched tick" — resets the
    /// deadline clock.
    Heartbeat,
    /// One tick's estimates + degradation record.
    TickDone {
        tick: usize,
        result: Box<StreamTick>,
    },
    /// Serialized warm-state checkpoint taken *after* `tick`.
    Checkpoint { tick: usize, json: String },
    /// Hard engine error on the dispatched tick — the worker exits
    /// and the supervisor decides whether to restart it.
    Failed { message: String },
    /// Clean drain acknowledgement.
    Drained,
}

/// A live worker epoch: its channel pair plus the join handle. The
/// coordinator joins the handle only after a clean drain; hung zombies
/// are abandoned (their epoch's receiver is dropped, so nothing they
/// say is heard).
pub(crate) struct WorkerHandle {
    pub(crate) to: Sender<ToWorker>,
    pub(crate) from: Receiver<FromWorker>,
    pub(crate) join: JoinHandle<()>,
}

/// Per-worker runtime knobs, copied out of the daemon config.
#[derive(Clone)]
pub(crate) struct WorkerPolicy {
    /// Checkpoint cadence in ticks (0 = never).
    pub(crate) checkpoint_every: usize,
    /// Coordinator's liveness deadline — a chaos `Hang` sleeps well
    /// past this, a `Delay` stays well under it.
    pub(crate) heartbeat_timeout: Duration,
}

/// Spawn a new worker epoch over an already-built (or restored) engine.
pub(crate) fn spawn_worker(
    mut engine: StreamEngine,
    policy: WorkerPolicy,
    recorder: Arc<ShardRecorder>,
) -> WorkerHandle {
    let (to_tx, to_rx) = channel::<ToWorker>();
    let (from_tx, from_rx) = channel::<FromWorker>();
    let join = std::thread::spawn(move || {
        while let Ok(msg) = to_rx.recv() {
            match msg {
                ToWorker::Drain => {
                    let _ = from_tx.send(FromWorker::Drained);
                    return;
                }
                ToWorker::Tick {
                    tick,
                    loads,
                    chaos,
                    sent,
                } => {
                    let queue_ns = as_ns(sent.elapsed());
                    if from_tx.send(FromWorker::Heartbeat).is_err() {
                        return; // stale epoch: coordinator moved on
                    }
                    match chaos {
                        // Abrupt death mid-tick: drop the channels
                        // without a word, like a panic or an OOM kill
                        // would. The coordinator sees a disconnect.
                        Some(ChaosKind::Kill) => return,
                        // Stall past the liveness deadline. The
                        // coordinator declares the worker hung and
                        // abandons this thread; by the time the sleep
                        // ends, the epoch's receiver is gone and the
                        // send below fails, ending the zombie.
                        Some(ChaosKind::Hang) => std::thread::sleep(policy.heartbeat_timeout * 3),
                        // Slow but alive: well inside the deadline.
                        Some(ChaosKind::Delay) => std::thread::sleep(policy.heartbeat_timeout / 8),
                        None => {}
                    }
                    match engine.push_interval(*loads) {
                        Ok(result) => {
                            let solve_ns = result.solve_ns.clone();
                            let done = FromWorker::TickDone {
                                tick,
                                result: Box::new(result),
                            };
                            if from_tx.send(done).is_err() {
                                return; // zombie: record nothing
                            }
                            recorder.record_queue_delay(queue_ns);
                            recorder.record_solves(&solve_ns);
                            if policy.checkpoint_every > 0
                                && (tick + 1) % policy.checkpoint_every == 0
                            {
                                let started = Instant::now();
                                let json = engine.checkpoint().to_json();
                                let ckpt_ns = as_ns(started.elapsed());
                                if from_tx.send(FromWorker::Checkpoint { tick, json }).is_ok() {
                                    recorder.record_checkpoint(ckpt_ns);
                                }
                            }
                        }
                        Err(e) => {
                            let _ = from_tx.send(FromWorker::Failed {
                                message: e.to_string(),
                            });
                            return;
                        }
                    }
                }
            }
        }
        // Coordinator dropped the sender (e.g. after declaring this
        // worker hung): exit quietly.
    });
    WorkerHandle {
        to: to_tx,
        from: from_rx,
        join,
    }
}
