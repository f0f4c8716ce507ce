//! The protocol plane: `serve_live` on a localhost listener, driven by
//! one open-loop client on one TCP connection.
//!
//! The client sends the request pattern of the repository's own live
//! client, `experiments live-matrix` (`configs/live_matrix.toml`):
//! `status` and `stats` on every round, and for every 16th tick one
//! `estimate` per shard and method. It sends no `whatif`, as that client
//! does not. The requests go out at [`RATE_PER_S`], each on its due time
//! whatever happened to the ones before it. Latency runs from the due
//! time to the full response line, so a stall in the server also
//! charges the requests queued behind it; how late the generator itself
//! ran is kept apart as lag.

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use serde::Value;
use tm_daemon::{LiveBus, LiveView};

use crate::stats::{due_latency, ms, Schedule, Tally};

/// Requests per second of the open-loop client.
pub const RATE_PER_S: f64 = 200.0;

/// A query answered later than this after its due time has failed.
pub const DEADLINE: Duration = Duration::from_millis(500);

/// The verbs whose handlers the traced run prices on the day's final
/// view. The client sends the first three.
pub const VERBS: [&str; 4] = ["status", "stats", "estimate", "whatif"];

/// Ticks between the estimate samples of `experiments live-matrix`.
pub const SAMPLE_EVERY: usize = 16;

/// What one day's client saw.
#[derive(Debug, Default)]
pub struct QueryLog {
    pub latency_ms: Vec<f64>,
    pub lag_ms: Vec<f64>,
    pub tally: Tally,
    /// The first few queries that failed: not `"ok"`, or later than
    /// [`DEADLINE`].
    pub errors: Vec<String>,
}

impl QueryLog {
    pub fn extend(&mut self, other: QueryLog) {
        self.latency_ms.extend(other.latency_ms);
        self.lag_ms.extend(other.lag_ms);
        self.tally.add(other.tally);
        for e in other.errors {
            if self.errors.len() < 5 {
                self.errors.push(e);
            }
        }
    }
}

/// Where in a cycle of `len` requests the client starts: one
/// splitmix64 step of the seed.
pub fn start_offset(seed: u64, len: usize) -> usize {
    let mut z = (seed ^ 0x5155_4552_5931).wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    ((z ^ (z >> 31)) % len.max(1) as u64) as usize
}

/// One request of the client's cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Request {
    Status,
    Stats,
    Estimate { shard: usize, method: usize },
}

/// One cycle of `experiments live-matrix`'s requests over
/// [`SAMPLE_EVERY`] rounds: every round polls `status` and `stats`, and
/// the round that completes a sampled tick also asks every shard for
/// every method's estimate of it.
pub fn cycle(shards: usize, methods: usize) -> Vec<Request> {
    let mut out = Vec::new();
    for round in 0..SAMPLE_EVERY {
        out.push(Request::Status);
        out.push(Request::Stats);
        if round == 0 {
            for shard in 0..shards {
                for method in 0..methods {
                    out.push(Request::Estimate { shard, method });
                }
            }
        }
    }
    out
}

/// The request line for `request` against the current view. An
/// estimate addresses the newest completed tick that is a multiple of
/// [`SAMPLE_EVERY`] and at which the method has an estimate; before
/// there is one (a window still filling), `status` goes instead.
pub fn request_line(request: Request, view: &LiveView) -> String {
    let (shard, method) = match request {
        Request::Status => return r#"{"cmd":"status"}"#.to_string(),
        Request::Stats => return r#"{"cmd":"stats"}"#.to_string(),
        Request::Estimate { shard, method } => (shard, method),
    };
    let target = view.shards.get(shard).and_then(|s| {
        let label = view.labels.get(method)?;
        let newest = s.latest_tick()?;
        (0..=newest / SAMPLE_EVERY)
            .rev()
            .map(|i| i * SAMPLE_EVERY)
            .find(|&k| {
                s.ticks[k]
                    .as_ref()
                    .is_some_and(|t| matches!(t.estimates.get(method), Some(Some(Ok(_)))))
            })
            .map(|tick| (&s.name, tick, label))
    });
    match target {
        Some((shard, tick, method)) => {
            format!(r#"{{"cmd":"estimate","shard":"{shard}","tick":{tick},"method":"{method}"}}"#)
        }
        None => r#"{"cmd":"status"}"#.to_string(),
    }
}

/// Whether a response line is an `"ok":true` object.
pub fn answer_ok(line: &str) -> bool {
    serde_json::from_str::<Value>(line.trim())
        .ok()
        .is_some_and(|v| matches!(v.field("ok"), Ok(Value::Bool(true))))
}

/// Run `body` while `serve_live` answers from `bus` and the open-loop
/// client queries it. The client starts once the bus has published its
/// first view and stops when `body` returns; every request sent is
/// still answered and counted.
pub fn serve_while<R>(bus: &LiveBus, seed: u64, body: impl FnOnce() -> R) -> (R, QueryLog) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind a localhost port");
    let addr = listener.local_addr().expect("listener has an address");
    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let server = scope.spawn(move || tm_daemon::serve_live(bus, listener));
        let client = scope.spawn(|| client(bus, addr, seed, &stop));
        // Stop the client even if `body` panics, so the scope can join.
        struct StopOnDrop<'a>(&'a AtomicBool);
        impl Drop for StopOnDrop<'_> {
            fn drop(&mut self) {
                self.0.store(true, Ordering::SeqCst);
            }
        }
        let guard = StopOnDrop(&stop);
        let out = body();
        drop(guard);
        let log = client.join().expect("query client thread");
        server
            .join()
            .expect("protocol server thread")
            .expect("protocol server I/O");
        (out, log)
    })
}

struct Pending {
    due: Instant,
    sent: Instant,
}

fn client(bus: &LiveBus, addr: std::net::SocketAddr, seed: u64, stop: &AtomicBool) -> QueryLog {
    let stream = TcpStream::connect(addr).expect("connect to the protocol server");
    stream.set_nodelay(true).expect("set TCP_NODELAY");
    let mut reader = BufReader::new(stream.try_clone().expect("clone the client socket"));
    let mut writer = stream;
    let (tx, rx) = mpsc::channel::<Pending>();

    std::thread::scope(|scope| {
        let collector = scope.spawn(move || {
            let mut log = QueryLog::default();
            let mut line = String::new();
            for p in rx {
                line.clear();
                let read = reader.read_line(&mut line);
                let done = Instant::now();
                let ok = matches!(read, Ok(n) if n > 0) && answer_ok(&line);
                let latency = due_latency(p.due, done);
                log.tally.query(ok, latency, DEADLINE);
                log.latency_ms.push(ms(latency));
                log.lag_ms.push(ms(p.sent.saturating_duration_since(p.due)));
                if log.errors.len() < 5 {
                    if !ok {
                        log.errors.push(format!("answer not ok: {}", line.trim()));
                    } else if latency > DEADLINE {
                        log.errors.push(format!(
                            "answered {:.1} ms after its due time, past the {} ms deadline",
                            ms(latency),
                            DEADLINE.as_millis()
                        ));
                    }
                }
            }
            // The shutdown acknowledgement.
            line.clear();
            let _ = reader.read_line(&mut line);
            log
        });

        while bus.epoch() == 0 && !stop.load(Ordering::SeqCst) {
            std::thread::sleep(Duration::from_micros(200));
        }
        // The seed sets where in the cycle the client starts.
        let first = bus.load();
        let cycle = cycle(first.shards.len(), first.labels.len());
        let offset = start_offset(seed, cycle.len());
        let schedule = Schedule::new(Instant::now(), RATE_PER_S);
        let mut i = 0u64;
        while !stop.load(Ordering::SeqCst) {
            let due = schedule.due(i);
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
                continue;
            }
            let request = cycle[(offset + i as usize) % cycle.len()];
            let line = request_line(request, &bus.load());
            let sent = Instant::now();
            writer
                .write_all(format!("{line}\n").as_bytes())
                .expect("send a request");
            tx.send(Pending { due, sent }).expect("collector alive");
            i += 1;
        }
        drop(tx);
        writer
            .write_all(b"{\"cmd\":\"shutdown\"}\n")
            .expect("send shutdown");
        collector.join().expect("response collector thread")
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn answers_are_checked_for_ok_true() {
        assert!(answer_ok(r#"{"ok":true,"epoch":3}"#));
        assert!(!answer_ok(r#"{"ok":false,"error":"x"}"#));
        assert!(!answer_ok("not json"));
        assert!(!answer_ok(""));
    }

    #[test]
    fn the_cycle_is_the_live_matrix_pattern() {
        let c = cycle(2, 3);
        let count = |r: Request| c.iter().filter(|&&x| x == r).count();
        assert_eq!(count(Request::Status), SAMPLE_EVERY);
        assert_eq!(count(Request::Stats), SAMPLE_EVERY);
        assert_eq!(c.len(), 2 * SAMPLE_EVERY + 2 * 3);
        for shard in 0..2 {
            for method in 0..3 {
                assert_eq!(count(Request::Estimate { shard, method }), 1);
            }
        }
        // Every round opens with `status` then `stats`.
        assert_eq!(&c[..2], &[Request::Status, Request::Stats]);
    }

    #[test]
    fn an_estimate_with_nothing_to_address_sends_status() {
        let view = LiveView::initial();
        let line = request_line(
            Request::Estimate {
                shard: 0,
                method: 0,
            },
            &view,
        );
        assert_eq!(line, r#"{"cmd":"status"}"#);
        assert_eq!(request_line(Request::Stats, &view), r#"{"cmd":"stats"}"#);
        // The offset is fixed by the seed and lies inside the cycle.
        let len = cycle(1, 10).len();
        assert_eq!(start_offset(7, len), start_offset(7, len));
        assert!((0..100).all(|seed| start_offset(seed, len) < len));
    }
}
