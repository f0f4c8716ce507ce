//! Process isolation: one `tm_shard_worker` child per shard over
//! localhost TCP.
//!
//! ## Topology
//!
//! The coordinator side (`SocketTransport`) binds an ephemeral
//! listener per spawn, launches the child with `--connect ADDR --token
//! TOKEN`, and handshakes: the child sends `Hello`, the parent ships a
//! [`ConfigureBody`] (dataset spec + seed — the child regenerates the
//! dataset itself, the full series never crosses the wire), and the
//! child answers `Ready` once its engine is built and any checkpoint
//! restored. After that the child runs the shared worker loop
//! (`crate::worker`) over its session — the same lockstep dialogue the
//! thread transport speaks: `Tick` down; `Heartbeat`, `TickDone`,
//! `Checkpoint` up.
//!
//! ## Hardening
//!
//! Every wire hazard has a deterministic recovery with a bounded cost:
//!
//! * **Lost connection** (EOF, reset, decode error): the parent keeps
//!   its listener open; the child reconnects with exponential backoff
//!   and a `resume` hello, and the parent resends the in-flight tick.
//!   The worker loop keeps its last result by tick index, so a resent
//!   tick is answered from it — the warm engine never double-solves
//!   an interval, which is what keeps socket estimates bit-identical
//!   to the in-process engine.
//! * **Half-open session** (black hole): the parent probes — if no
//!   byte arrives for the in-flight tick within a fraction of the
//!   heartbeat deadline, it force-drops the connection and the
//!   reconnect + resend path heals it, well before the supervisor
//!   would burn a restart.
//! * **Corruption**: frame checksums turn flipped bits into typed
//!   decode errors on either end; the receiving side drops the
//!   connection and the same reconnect path recovers.
//! * **Process death** (crash, `kill -9`): the parent's reads fail and
//!   `try_wait` confirms the child is gone — surfaced as
//!   `ChannelError::Down`, which the supervisor treats exactly like
//!   a thread worker's death: restart from the last checkpoint.
//!
//! Seeded [`NetFaultKind`]s are injected parent-side at dispatch
//! (consume-once), so the production recovery paths above are what the
//! `net-matrix` CI gate exercises — no test-only healing code.

use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

use tm_core::stream::{StreamEngine, StreamMode};
use tm_traffic::EvalDataset;

use super::netchaos::{NetFaultKind, NetFaultState};
use super::wire::{self, ConfigureBody, Frame};
use super::{
    ChannelError, ShardTransport, SpawnSpec, TransportEvent, TransportEventKind, WorkerChannel,
};
use crate::config::SocketOptions;
use crate::error::{DaemonError, Result};
use crate::worker::{self, build_engine, Link, Sent};

/// Read-timeout slice on established connections — how often blocked
/// reads wake up to check deadlines.
const READ_SLICE: Duration = Duration::from_millis(20);

/// Poll cadence of the non-blocking accept loop.
const ACCEPT_SLICE: Duration = Duration::from_millis(2);

fn retryable(kind: std::io::ErrorKind) -> bool {
    matches!(
        kind,
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
    )
}

/// Locate the worker binary: explicit option, then the
/// `TM_SHARD_WORKER` environment variable, then a sibling of the
/// current executable.
fn resolve_worker_bin(options: &SocketOptions) -> Result<PathBuf> {
    let missing = |what: &str, path: &std::path::Path| {
        DaemonError::Transport(format!(
            "{what} points at `{}`, which is not a file",
            path.display()
        ))
    };
    if let Some(path) = &options.worker_bin {
        if path.is_file() {
            return Ok(path.clone());
        }
        return Err(missing("SocketOptions::worker_bin", path));
    }
    if let Ok(env_path) = std::env::var("TM_SHARD_WORKER") {
        let path = PathBuf::from(env_path);
        if path.is_file() {
            return Ok(path);
        }
        return Err(missing("TM_SHARD_WORKER", &path));
    }
    if let Some(sibling) = std::env::current_exe()
        .ok()
        .and_then(|exe| Some(exe.parent()?.join("tm_shard_worker")))
    {
        if sibling.is_file() {
            return Ok(sibling);
        }
    }
    Err(DaemonError::Transport(
        "cannot locate the `tm_shard_worker` binary: set SocketOptions::worker_bin, \
         the TM_SHARD_WORKER environment variable, or install it next to the daemon"
            .into(),
    ))
}

/// Factory for process-isolated workers.
pub(crate) struct SocketTransport {
    worker_bin: PathBuf,
    connect_timeout: Duration,
    faults: Arc<NetFaultState>,
}

impl SocketTransport {
    /// Resolve the worker binary and arm the run's fault schedule.
    pub(crate) fn new(options: &SocketOptions, faults: Arc<NetFaultState>) -> Result<Self> {
        Ok(SocketTransport {
            worker_bin: resolve_worker_bin(options)?,
            connect_timeout: options.connect_timeout,
            faults,
        })
    }
}

impl ShardTransport for SocketTransport {
    fn spawn(&self, spec: &SpawnSpec<'_>) -> Result<Box<dyn WorkerChannel>> {
        let infra = |m: String| DaemonError::Transport(format!("shard `{}`: {m}", spec.shard.name));
        let listener = TcpListener::bind(("127.0.0.1", 0))
            .map_err(|e| infra(format!("cannot bind worker listener: {e}")))?;
        listener
            .set_nonblocking(true)
            .map_err(|e| infra(format!("cannot configure listener: {e}")))?;
        let addr = listener
            .local_addr()
            .map_err(|e| infra(format!("listener has no address: {e}")))?;
        let token = format!("tm-{}-s{}-e{}", std::process::id(), spec.index, spec.epoch);
        let child = Command::new(&self.worker_bin)
            .arg("--connect")
            .arg(addr.to_string())
            .arg("--token")
            .arg(&token)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| infra(format!("cannot spawn `{}`: {e}", self.worker_bin.display())))?;
        let mut channel = SocketChannel {
            shard: spec.index,
            epoch: spec.epoch,
            name: spec.shard.name.clone(),
            listener,
            child,
            token,
            conn: None,
            buf: Vec::new(),
            pending: VecDeque::new(),
            inflight: None,
            events: Vec::new(),
            faults: Arc::clone(&self.faults),
            heartbeat_timeout: spec.config.heartbeat_timeout,
            last_tick: 0,
            blackhole: false,
            drop_cause: String::new(),
        };
        // On error the channel is dropped here, which kills and reaps
        // the half-started child.
        channel.handshake(spec, Instant::now() + self.connect_timeout)?;
        Ok(Box::new(channel))
    }
}

/// The tick currently awaiting its `TickDone`, kept encoded for resend.
struct Inflight {
    tick: usize,
    bytes: Vec<u8>,
    dispatched: Instant,
}

/// Parent-side channel to one worker process epoch.
struct SocketChannel {
    shard: usize,
    epoch: usize,
    name: String,
    listener: TcpListener,
    child: Child,
    token: String,
    conn: Option<TcpStream>,
    buf: Vec<u8>,
    pending: VecDeque<Frame>,
    inflight: Option<Inflight>,
    events: Vec<TransportEvent>,
    faults: Arc<NetFaultState>,
    heartbeat_timeout: Duration,
    last_tick: usize,
    /// An injected black hole is pending: the tick frame was never
    /// written and the session must be force-cycled at the probe
    /// deadline.
    blackhole: bool,
    drop_cause: String,
}

impl SocketChannel {
    /// Accept the child's first connection and run the configure
    /// handshake. Engine-build failures come back as typed `Failed`
    /// frames and surface as [`DaemonError::Transport`].
    fn handshake(&mut self, spec: &SpawnSpec<'_>, deadline: Instant) -> Result<()> {
        let name = self.name.clone();
        let err = move |m: String| DaemonError::Transport(format!("shard `{name}`: {m}"));
        let mut stream = self.accept_within(deadline).map_err(&err)?;
        let mut buf = Vec::new();
        match read_frame_deadline(&mut stream, &mut buf, deadline).map_err(&err)? {
            Frame::Hello { token, resume } => {
                if token != self.token {
                    return Err(err("handshake token mismatch".into()));
                }
                if resume {
                    return Err(err("fresh worker sent a resume hello".into()));
                }
            }
            other => return Err(err(format!("expected hello, got {other:?}"))),
        }
        let body = ConfigureBody {
            shard: self.shard,
            name: spec.shard.name.clone(),
            spec: spec.shard.spec.clone(),
            seed: spec.shard.seed,
            methods: spec.config.methods.clone(),
            warm: matches!(spec.config.mode, StreamMode::Warm),
            checkpoint_every: spec.config.checkpoint_every,
            heartbeat_timeout_ms: u64::try_from(spec.config.heartbeat_timeout.as_millis())
                .unwrap_or(u64::MAX),
            checkpoint: spec.checkpoint.map(str::to_string),
        };
        stream
            .write_all(&wire::encode(&Frame::Configure(Box::new(body))))
            .map_err(|e| err(format!("configure write failed: {e}")))?;
        loop {
            match read_frame_deadline(&mut stream, &mut buf, deadline).map_err(&err)? {
                Frame::Ready => break,
                Frame::Failed { message } => {
                    return Err(err(format!("worker failed to start: {message}")));
                }
                _ => {}
            }
        }
        self.buf = buf;
        self.conn = Some(stream);
        Ok(())
    }

    /// Accept one connection before `deadline`, configuring its socket
    /// options. Used only for the initial handshake — reconnects go
    /// through [`Self::reestablish`].
    fn accept_within(&mut self, deadline: Instant) -> std::result::Result<TcpStream, String> {
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => match configure_stream(&stream) {
                    Ok(()) => return Ok(stream),
                    Err(e) => return Err(format!("cannot configure connection: {e}")),
                },
                Err(e) if retryable(e.kind()) => {
                    if let Ok(Some(status)) = self.child.try_wait() {
                        return Err(format!("worker exited ({status}) before connecting"));
                    }
                    if Instant::now() >= deadline {
                        return Err("worker did not connect before the deadline".into());
                    }
                    std::thread::sleep(ACCEPT_SLICE);
                }
                Err(e) => return Err(format!("accept failed: {e}")),
            }
        }
    }

    /// Force-drop the current connection (the next receive will accept
    /// a fresh one and resend the in-flight tick).
    fn drop_conn(&mut self, cause: &str) {
        if self.conn.take().is_some() {
            self.drop_cause = cause.to_string();
        }
        self.buf.clear();
    }

    fn write_frame(&mut self, bytes: &[u8]) -> std::io::Result<()> {
        match self.conn.as_mut() {
            Some(conn) => conn.write_all(bytes),
            None => Err(std::io::ErrorKind::NotConnected.into()),
        }
    }

    /// How long a black-holed dispatch may sit before the session is
    /// force-cycled: well inside the heartbeat deadline, capped so big
    /// production deadlines don't stall recovery.
    fn probe_deadline(&self) -> Duration {
        (self.heartbeat_timeout / 8).clamp(Duration::from_millis(25), Duration::from_secs(1))
    }

    /// Wait for the child to reconnect, verify its resume hello, then
    /// resend the in-flight tick. Surfaces the incident as
    /// [`TransportEvent`]s.
    fn reestablish(&mut self, deadline: Instant) -> std::result::Result<(), ChannelError> {
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    if self.adopt(stream, deadline) {
                        return Ok(());
                    }
                    // Stray or malformed connection: keep waiting.
                }
                Err(e) if retryable(e.kind()) => {
                    if matches!(self.child.try_wait(), Ok(Some(_))) {
                        return Err(ChannelError::Down);
                    }
                    if Instant::now() >= deadline {
                        return Err(ChannelError::Timeout);
                    }
                    std::thread::sleep(ACCEPT_SLICE);
                }
                Err(_) => return Err(ChannelError::Down),
            }
        }
    }

    /// Token-check a reconnecting stream and adopt it as the live
    /// connection; resend the in-flight tick on it.
    fn adopt(&mut self, mut stream: TcpStream, deadline: Instant) -> bool {
        if configure_stream(&stream).is_err() {
            return false;
        }
        let mut buf = Vec::new();
        let hello_deadline = deadline.min(Instant::now() + Duration::from_secs(2));
        match read_frame_deadline(&mut stream, &mut buf, hello_deadline) {
            Ok(Frame::Hello { token, .. }) if token == self.token => {}
            _ => return false,
        }
        self.buf = buf;
        self.conn = Some(stream);
        let cause = if self.drop_cause.is_empty() {
            "connection lost".to_string()
        } else {
            std::mem::take(&mut self.drop_cause)
        };
        self.events.push(TransportEvent {
            tick: self.last_tick,
            epoch: self.epoch,
            kind: TransportEventKind::Reconnect { cause },
        });
        if let Some(inflight) = &self.inflight {
            let tick = inflight.tick;
            let bytes = inflight.bytes.clone();
            if self.write_frame(&bytes).is_ok() {
                self.events.push(TransportEvent {
                    tick,
                    epoch: self.epoch,
                    kind: TransportEventKind::Resend,
                });
            } else {
                self.drop_conn("write failed during resend");
            }
        }
        true
    }

    /// Decode every complete frame in the buffer into the pending
    /// queue. A `TickDone` for the in-flight tick retires it: nothing is
    /// left to resend.
    fn drain_frames(&mut self) {
        loop {
            match wire::decode(&self.buf) {
                Ok(Some((frame, used))) => {
                    self.buf.drain(..used);
                    if let Frame::TickDone { tick, .. } = &frame {
                        if self.inflight.as_ref().is_some_and(|i| i.tick == *tick) {
                            self.inflight = None;
                        }
                    }
                    self.pending.push_back(frame);
                }
                Ok(None) => break,
                Err(e) => {
                    self.drop_conn(&format!("frame decode failed: {e}"));
                    break;
                }
            }
        }
    }
}

impl WorkerChannel for SocketChannel {
    fn send(&mut self, frame: Frame) -> std::result::Result<(), ()> {
        let bytes = wire::encode(&frame);
        match frame {
            Frame::Tick { tick, .. } => {
                self.last_tick = tick;
                let dispatched = Instant::now();
                let fault = self.faults.take(self.shard, tick);
                if let Some(kind) = fault {
                    self.events.push(TransportEvent {
                        tick,
                        epoch: self.epoch,
                        kind: TransportEventKind::FaultInjected { kind },
                    });
                }
                let sent = match fault {
                    None => {
                        if self.write_frame(&bytes).is_err() {
                            // Transient wire failure, not a worker
                            // death: the reconnect path resends.
                            self.drop_conn("write failed");
                        }
                        Ok(())
                    }
                    Some(NetFaultKind::Kill9) => {
                        let _ = self.child.kill();
                        let _ = self.child.wait();
                        self.drop_conn("worker killed (SIGKILL)");
                        Err(())
                    }
                    Some(NetFaultKind::SlowLink) => {
                        std::thread::sleep(self.probe_deadline() / 2);
                        if self.write_frame(&bytes).is_err() {
                            self.drop_conn("write failed");
                        }
                        Ok(())
                    }
                    Some(NetFaultKind::DropConn) => {
                        let _ = self.write_frame(&bytes);
                        self.drop_conn("injected connection drop");
                        Ok(())
                    }
                    Some(NetFaultKind::TruncateFrame) => {
                        let half = bytes.len() / 2;
                        let _ = self.write_frame(&bytes[..half]);
                        self.drop_conn("injected mid-frame truncation");
                        Ok(())
                    }
                    Some(NetFaultKind::CorruptFrame) => {
                        let mut bad = bytes.clone();
                        if let Some(last) = bad.last_mut() {
                            *last ^= 0x55; // payload bit flip: the child's checksum rejects it
                        }
                        if self.write_frame(&bad).is_err() {
                            self.drop_conn("write failed");
                        }
                        Ok(())
                    }
                    Some(NetFaultKind::DuplicateFrame) => {
                        let twice = self
                            .write_frame(&bytes)
                            .and_then(|()| self.write_frame(&bytes));
                        if twice.is_err() {
                            self.drop_conn("write failed");
                        }
                        Ok(())
                    }
                    Some(NetFaultKind::BlackHole) => {
                        // Never written: the probe in recv_deadline
                        // force-cycles the session and resends.
                        self.blackhole = true;
                        Ok(())
                    }
                };
                // Kept encoded for a resend after a reconnect: the bytes
                // move here once every write above is done.
                self.inflight = Some(Inflight {
                    tick,
                    bytes,
                    dispatched,
                });
                sent
            }
            _ => {
                self.inflight = None;
                self.write_frame(&bytes).map_err(|_| ())
            }
        }
    }

    fn recv_deadline(&mut self, timeout: Duration) -> std::result::Result<Frame, ChannelError> {
        let deadline = Instant::now() + timeout;
        loop {
            if let Some(msg) = self.pending.pop_front() {
                return Ok(msg);
            }
            if self.blackhole {
                let probe_due = self
                    .inflight
                    .as_ref()
                    .is_none_or(|i| i.dispatched.elapsed() >= self.probe_deadline());
                if probe_due {
                    self.blackhole = false;
                    self.drop_conn("half-open probe deadline");
                } else {
                    // Partitioned: nothing can arrive until the probe.
                    if Instant::now() >= deadline {
                        return Err(ChannelError::Timeout);
                    }
                    std::thread::sleep(ACCEPT_SLICE);
                    continue;
                }
            }
            if self.conn.is_none() {
                self.reestablish(deadline)?;
                continue;
            }
            let Some(conn) = self.conn.as_mut() else {
                continue;
            };
            let mut tmp = [0u8; 16 * 1024];
            match conn.read(&mut tmp) {
                Ok(0) => self.drop_conn("eof"),
                Ok(n) => {
                    self.buf.extend_from_slice(&tmp[..n]);
                    self.drain_frames();
                }
                Err(e) if retryable(e.kind()) => {
                    if Instant::now() >= deadline {
                        return Err(ChannelError::Timeout);
                    }
                }
                Err(e) => {
                    let cause = format!("read failed: {e}");
                    self.drop_conn(&cause);
                }
            }
        }
    }

    fn take_events(&mut self) -> Vec<TransportEvent> {
        std::mem::take(&mut self.events)
    }

    fn finish(mut self: Box<Self>, grace: Duration) {
        let deadline = Instant::now() + grace;
        while !matches!(self.child.try_wait(), Ok(Some(_))) {
            if Instant::now() >= deadline {
                break; // Drop kills and reaps
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }
}

impl Drop for SocketChannel {
    fn drop(&mut self) {
        // Abandoned epochs (hangs, handshake failures) must not leak
        // processes: kill and reap, ignoring already-dead children.
        if !matches!(self.child.try_wait(), Ok(Some(_))) {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

fn configure_stream(stream: &TcpStream) -> std::io::Result<()> {
    stream.set_nonblocking(false)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(READ_SLICE))
}

/// Read one frame from `stream` before `deadline`, buffering partial
/// bytes in `buf`. Used for handshakes on both ends.
fn read_frame_deadline(
    stream: &mut TcpStream,
    buf: &mut Vec<u8>,
    deadline: Instant,
) -> std::result::Result<Frame, String> {
    loop {
        match wire::decode(buf) {
            Ok(Some((frame, used))) => {
                buf.drain(..used);
                return Ok(frame);
            }
            Ok(None) => {}
            Err(e) => return Err(format!("frame decode failed: {e}")),
        }
        let mut tmp = [0u8; 16 * 1024];
        match stream.read(&mut tmp) {
            Ok(0) => return Err("connection closed during handshake".into()),
            Ok(n) => buf.extend_from_slice(&tmp[..n]),
            Err(e) if retryable(e.kind()) => {
                if Instant::now() >= deadline {
                    return Err("handshake deadline exceeded".into());
                }
            }
            Err(e) => return Err(format!("handshake read failed: {e}")),
        }
    }
}

// ---------------------------------------------------------------------------
// Child side — the body of the `tm_shard_worker` binary.
// ---------------------------------------------------------------------------

/// Read-timeout slice on the child's connection.
const CHILD_READ_SLICE: Duration = Duration::from_millis(100);

/// The child's connection state.
struct ChildSession {
    addr: SocketAddr,
    token: String,
    conn: TcpStream,
    buf: Vec<u8>,
}

impl ChildSession {
    /// Connect and send the hello for a fresh or resumed session.
    fn establish(addr: &SocketAddr, token: &str, resume: bool) -> Option<TcpStream> {
        let mut stream = TcpStream::connect_timeout(addr, Duration::from_secs(5)).ok()?;
        stream.set_nodelay(true).ok()?;
        stream.set_read_timeout(Some(CHILD_READ_SLICE)).ok()?;
        stream
            .write_all(&wire::encode(&Frame::Hello {
                token: token.to_string(),
                resume,
            }))
            .ok()?;
        Some(stream)
    }

    /// Reconnect with exponential backoff. `false` means the parent is
    /// gone for good and the child should exit.
    fn reconnect(&mut self) -> bool {
        for attempt in 0..10u32 {
            std::thread::sleep(Duration::from_millis((5u64 << attempt.min(7)).min(500)));
            if let Some(stream) = Self::establish(&self.addr, &self.token, true) {
                self.conn = stream;
                self.buf.clear();
                return true;
            }
        }
        false
    }

    /// Read the next frame, blocking until one arrives. `Err` means
    /// the connection is unusable (EOF, reset, or corrupt bytes) and
    /// must be re-established.
    fn read_frame(&mut self) -> std::result::Result<Frame, ()> {
        loop {
            match wire::decode(&self.buf) {
                Ok(Some((frame, used))) => {
                    self.buf.drain(..used);
                    return Ok(frame);
                }
                Ok(None) => {}
                Err(_) => return Err(()), // checksum/framing: drop the connection
            }
            let mut tmp = [0u8; 16 * 1024];
            match self.conn.read(&mut tmp) {
                Ok(0) => return Err(()),
                Ok(n) => self.buf.extend_from_slice(&tmp[..n]),
                Err(e) if retryable(e.kind()) => {}
                Err(_) => return Err(()),
            }
        }
    }

    fn write(&mut self, frame: &Frame) -> std::io::Result<()> {
        self.conn.write_all(&wire::encode(frame))
    }
}

/// The child's link to the parent: every unusable connection, on read
/// or on write, is re-established with backoff before giving up.
impl Link for ChildSession {
    fn recv(&mut self) -> Option<Frame> {
        loop {
            match self.read_frame() {
                Ok(frame) => return Some(frame),
                Err(()) if self.reconnect() => {}
                Err(()) => return None, // parent is gone: exit quietly
            }
        }
    }

    fn send(&mut self, frame: Frame) -> Sent {
        if self.write(&frame).is_ok() {
            Sent::Delivered
        } else if self.reconnect() {
            Sent::Resumed
        } else {
            Sent::Gone
        }
    }
}

/// Build the shard engine from its wire configuration: regenerate the
/// dataset from spec + seed, then build the engine (restoring the
/// checkpoint if one was shipped). Every failure is a rendered message
/// for a typed `Failed` frame — never a panic.
fn engine_for(body: &ConfigureBody) -> std::result::Result<StreamEngine, String> {
    let dataset = EvalDataset::generate(body.spec.clone(), body.seed)
        .map_err(|e| format!("dataset generation failed: {e}"))?;
    let mode = if body.warm {
        StreamMode::Warm
    } else {
        StreamMode::Cold
    };
    build_engine(&dataset, &body.methods, mode, body.checkpoint.as_deref())
        .map_err(|e| format!("engine construction failed: {e}"))
}

/// Entry point of the `tm_shard_worker` binary: one shard worker
/// session over a parent-supplied address and token. Returns the
/// process exit code.
///
/// After the handshake the child runs the same worker loop as a thread
/// worker. Its one extra duty is wire resilience, which lives in its
/// link: it reconnects (with backoff and a `resume` hello) whenever its
/// connection dies.
pub fn worker_main(args: &[String]) -> i32 {
    let mut addr = None;
    let mut token = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--connect" => addr = it.next().and_then(|a| a.parse::<SocketAddr>().ok()),
            "--token" => token = it.next().cloned(),
            _ => {}
        }
    }
    let (Some(addr), Some(token)) = (addr, token) else {
        eprintln!("usage: tm_shard_worker --connect HOST:PORT --token TOKEN");
        return 2;
    };
    let Some(conn) = ChildSession::establish(&addr, &token, false) else {
        return 3;
    };
    let mut session = ChildSession {
        addr,
        token,
        conn,
        buf: Vec::new(),
    };
    let body = loop {
        match session.read_frame() {
            Ok(Frame::Configure(body)) => break *body,
            Ok(_) => {}
            Err(()) => return 3,
        }
    };
    // Capped so the chaos sleeps can never overflow `Duration`.
    let heartbeat = Duration::from_millis(body.heartbeat_timeout_ms.min(3_600_000));
    let engine = match engine_for(&body) {
        Ok(engine) => engine,
        Err(message) => {
            let _ = session.write(&Frame::Failed { message });
            return 4;
        }
    };
    if session.write(&Frame::Ready).is_err() {
        return 3;
    }
    worker::run(engine, &mut session, body.checkpoint_every, heartbeat)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worker_bin_resolution_errors_are_typed() {
        let options = SocketOptions {
            worker_bin: Some(PathBuf::from("/nonexistent/tm_shard_worker")),
            ..SocketOptions::default()
        };
        let err = resolve_worker_bin(&options).unwrap_err();
        assert!(matches!(err, DaemonError::Transport(_)));
        assert!(err.to_string().contains("not a file"));
    }

    #[test]
    fn worker_main_rejects_bad_args() {
        assert_eq!(worker_main(&[]), 2);
        assert_eq!(worker_main(&["--connect".into(), "nonsense".into()]), 2);
    }
}
