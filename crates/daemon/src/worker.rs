//! The shard worker: one engine, one link to the coordinator, one loop.
//!
//! Both transports run [`run`]: an in-process worker thread over an
//! `mpsc` pair, and a `tm_shard_worker` child process over a TCP
//! session that reconnects. Only the [`Link`] differs; the dialogue is
//! the same [`Frame`]s either way — `Tick` and `Drain` down;
//! `Heartbeat`, `TickDone`, `Checkpoint`, `Failed` and `Drained` up.
//!
//! Workers are deliberately dumb. They heartbeat before every solve,
//! execute the chaos directive the coordinator shipped with the tick,
//! report each tick's result, and checkpoint their warm state on a
//! fixed cadence. All policy — deadlines, restarts, backoff,
//! quarantine, replay — and all telemetry live in
//! [`crate::coordinator`], which books a tick's queue delay, solve
//! walls and checkpoint cost only when it accepts what the worker sent.
//!
//! Link lifetimes double as liveness signals: a worker that dies
//! mid-tick drops its link, which the coordinator observes as a
//! disconnect; a worker that hangs simply stops sending, which the
//! coordinator observes as a heartbeat deadline miss. Each spawn gets a
//! fresh link (an *epoch*), so a zombie from a previous epoch can never
//! confuse the supervisor — its sends fail and it exits.

use std::time::{Duration, Instant};

use tm_core::checkpoint::EngineCheckpoint;
use tm_core::stream::{StreamEngine, StreamMode, StreamTick};
use tm_core::Method;
use tm_traffic::EvalDataset;

use crate::chaos::ChaosKind;
use crate::error::Result;
use crate::transport::wire::Frame;

/// Exit status of a worker killed by a chaos `Kill` directive.
const KILLED: i32 = 101;

/// Clamp a duration into the histograms' nanosecond domain.
fn as_ns(elapsed: Duration) -> u64 {
    u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX)
}

/// Wall clock in ns since the Unix epoch. The worker stamps its tick
/// dequeue with it and the coordinator its dispatch, so the two can be
/// subtracted whichever side of a process boundary the worker is on
/// (both run on one host).
pub(crate) fn wall_clock_ns() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, as_ns)
}

/// Build a shard's engine over its dataset, restoring `checkpoint` if
/// given. A corrupt checkpoint fails JSON/version validation and a
/// roster/mode mismatch fails `restore` — both typed, never a panic.
pub(crate) fn build_engine(
    dataset: &EvalDataset,
    methods: &[Method],
    mode: StreamMode,
    checkpoint: Option<&str>,
) -> Result<StreamEngine> {
    let mut engine = StreamEngine::for_dataset(dataset, methods, mode)?;
    if let Some(json) = checkpoint {
        engine.restore(&EngineCheckpoint::from_json(json)?)?;
    }
    Ok(engine)
}

/// What became of a frame the worker sent.
pub(crate) enum Sent {
    /// On its way to the coordinator.
    Delivered,
    /// Lost with its connection, and a new connection is up: the
    /// coordinator resends the in-flight tick on it.
    Resumed,
    /// The coordinator is gone (a stale epoch, or a parent that exited).
    Gone,
}

/// The worker's end of one epoch's connection to the coordinator.
pub(crate) trait Link {
    /// The next frame from the coordinator; `None` once it is gone.
    fn recv(&mut self) -> Option<Frame>;

    /// Send one frame to the coordinator.
    fn send(&mut self, frame: Frame) -> Sent;
}

/// Serve one worker epoch over `link` until a drain, the coordinator's
/// departure, a chaos kill, or an engine error. Returns the exit status
/// a child process reports ([`KILLED`] after a chaos kill, else 0).
///
/// The last result is kept by tick, so a duplicate delivery (a resend
/// after a reconnect, or a duplicated frame) is answered from it: the
/// warm engine never solves an interval twice, which keeps its state in
/// step with the coordinator's tick sequence.
pub(crate) fn run(
    mut engine: StreamEngine,
    link: &mut impl Link,
    checkpoint_every: usize,
    heartbeat_timeout: Duration,
) -> i32 {
    let mut last: Option<(usize, StreamTick)> = None;
    while let Some(frame) = link.recv() {
        let (tick, chaos, loads) = match frame {
            Frame::Tick { tick, chaos, loads } => (tick, chaos, loads),
            Frame::Drain => {
                link.send(Frame::Drained);
                return 0;
            }
            _ => continue,
        };
        match link.send(Frame::Heartbeat {
            dequeued_ns: wall_clock_ns(),
        }) {
            Sent::Delivered => {}
            Sent::Resumed => continue, // the coordinator resends the tick
            Sent::Gone => return 0,
        }
        match chaos {
            // Abrupt death mid-tick, as a panic, an OOM kill or a crash
            // would be: the link drops without a word.
            Some(ChaosKind::Kill) => return KILLED,
            // Stall past the liveness deadline. The coordinator declares
            // the worker hung and abandons the epoch; by the time the
            // sleep ends nothing listens, and the next send ends the
            // zombie (a child process is killed before that).
            Some(ChaosKind::Hang) => std::thread::sleep(heartbeat_timeout * 3),
            // Slow but alive: well inside the deadline.
            Some(ChaosKind::Delay) => std::thread::sleep(heartbeat_timeout / 8),
            None => {}
        }
        let (result, fresh) = match last.take() {
            Some((done, result)) if done == tick => (result, false),
            _ => match engine.push_interval(*loads) {
                Ok(result) => (result, true),
                Err(e) => {
                    link.send(Frame::Failed {
                        message: e.to_string(),
                    });
                    return 0;
                }
            },
        };
        last = Some((tick, result.clone()));
        let done = Frame::TickDone {
            tick,
            result: Box::new(result),
        };
        if matches!(link.send(done), Sent::Gone) {
            return 0;
        }
        if fresh && checkpoint_every > 0 && (tick + 1) % checkpoint_every == 0 {
            let started = Instant::now();
            let json = engine.checkpoint().to_json();
            let ckpt_ns = as_ns(started.elapsed());
            link.send(Frame::Checkpoint {
                tick,
                json,
                ckpt_ns,
            });
        }
    }
    0
}
