//! The `europe-daemon-socket` workload: `Daemon::run_live` over a clean
//! day of two Europe shards, each a `tm_shard_worker` child process
//! (this binary, re-entered through `worker_main`), with the default
//! supervision policy, while the open-loop client queries `serve_live`.
//!
//! Tick latency is the gap between consecutive `LiveBus` epochs, seen
//! by a watcher thread. Throughput and tick latency are reported at the
//! reference speed of `common::speed_probe_ms`, probed between days.
//! Outputs are checked bit for bit against an in-process `StreamEngine`
//! fed the same `build_feeds` feed; that reference replay also prices the layers the daemon hides from the
//! outside (engine self time, checkpoint size, restore, wire frames).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use tm_core::checkpoint::EngineCheckpoint;
use tm_core::stream::{StreamEngine, StreamMode, StreamTick};
use tm_core::Method;
use tm_daemon::transport::wire::{self, Frame};
use tm_daemon::{
    build_feeds, Daemon, DaemonConfig, DaemonReport, LiveBus, ShardFeed, ShardSpec, SocketOptions,
    TransportConfig,
};
use tm_traffic::DatasetSpec;

use crate::common::{self, kind, problem, same_value};
use crate::inproc::DAY;
use crate::query::{self, QueryLog};
use crate::report::{Layers, Run};
use crate::stats::{median, ms, percentile, Tally};
use crate::trace::Trace;

pub const NAME: &str = "europe-daemon-socket";

const METHODS: [&str; 3] = ["gravity", "entropy:lambda=1e3", "vardi:w=0.01,window=50"];

/// Speed probes per thread before each untraced day.
const PROBES_PER_DAY: usize = 24;

/// Threads that probe at once. The day's rounds run on two children
/// and the coordinator, so the probes sample two cores, not one.
const PROBE_THREADS: usize = 2;

/// Time the speed probe between days, while the daemon is idle, on
/// `PROBE_THREADS` threads at once. Probing inside the day would take
/// a core from the children.
fn probe_between_days() -> Vec<f64> {
    std::thread::scope(|scope| {
        let threads: Vec<_> = (0..PROBE_THREADS)
            .map(|_| {
                scope.spawn(|| {
                    (0..PROBES_PER_DAY)
                        .map(|_| common::speed_probe_ms())
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        threads
            .into_iter()
            .flat_map(|t| t.join().expect("speed probe thread"))
            .collect()
    })
}

/// The in-process replay of one shard's feed.
struct Reference {
    feed: ShardFeed,
    ticks: Vec<StreamTick>,
    /// Engine time outside the solves, per tick.
    engine_ns: Vec<u64>,
    /// `(tick, json)` at the daemon's checkpoint cadence, kept only for
    /// the traced run, which prices them.
    checkpoints: Vec<(usize, String)>,
}

fn replay(feed: ShardFeed, config: &DaemonConfig, traced: bool) -> Reference {
    let mut engine = StreamEngine::for_dataset(&feed.dataset, &config.methods, config.mode)
        .expect("reference engine builds");
    let mut ticks = Vec::with_capacity(feed.len());
    let mut engine_ns = Vec::with_capacity(feed.len());
    let mut checkpoints = Vec::new();
    for (k, loads) in feed.dirty.iter().enumerate() {
        let start = Instant::now();
        let tick = engine
            .push_interval(loads.clone())
            .expect("reference tick solves");
        let wall = start.elapsed().as_nanos() as u64;
        engine_ns.push(wall.saturating_sub(tick.solve_ns.iter().sum()));
        ticks.push(tick);
        if traced && config.checkpoint_every > 0 && (k + 1) % config.checkpoint_every == 0 {
            checkpoints.push((k, engine.checkpoint().to_json()));
        }
    }
    Reference {
        feed,
        ticks,
        engine_ns,
        checkpoints,
    }
}

/// What the watcher saw of one `run_live` call.
struct Day {
    call: Instant,
    ret: Instant,
    /// `(when, uptime_ticks, running)` at every epoch change seen.
    seen: Vec<(Instant, usize, bool)>,
    report: DaemonReport,
    queries: QueryLog,
}

/// What an untraced day leaves for the end-to-end metrics.
struct Summary {
    wall_s: f64,
    setup_s: f64,
    tick_ms: Vec<f64>,
    rounds: usize,
    after_setup_s: f64,
    queries: QueryLog,
    rss_mb: f64,
    /// Speed probes taken just before the day.
    probe_ms: Vec<f64>,
}

impl Day {
    fn setup_s(&self) -> f64 {
        (self.seen[0].0 - self.call).as_secs_f64()
    }

    /// Epoch gaps of consecutive rounds, in ms.
    fn tick_ms(&self) -> Vec<f64> {
        self.seen
            .windows(2)
            .filter(|w| w[0].2 && w[1].2 && w[1].1 == w[0].1 + 1)
            .map(|w| ms(w[1].0 - w[0].0))
            .collect()
    }

    fn wall_s(&self) -> f64 {
        (self.ret - self.call).as_secs_f64()
    }
}

fn run_day(daemon: &Daemon, seed: u64) -> Day {
    let bus = LiveBus::new();
    let stop = AtomicBool::new(false);
    let ((call, ret, report, seen), queries) = query::serve_while(&bus, seed, || {
        std::thread::scope(|scope| {
            let watcher = scope.spawn(|| {
                let mut seen = Vec::with_capacity(DAY + 1);
                let mut last = 0;
                while !stop.load(Ordering::SeqCst) {
                    let epoch = bus.epoch();
                    if epoch != last {
                        let at = Instant::now();
                        let view = bus.load();
                        seen.push((at, view.uptime_ticks, view.running));
                        last = epoch;
                    } else {
                        std::thread::sleep(Duration::from_micros(200));
                    }
                }
                seen
            });
            let call = Instant::now();
            let report = daemon.run_live(0..DAY, &bus);
            let ret = Instant::now();
            stop.store(true, Ordering::SeqCst);
            let seen = watcher.join().expect("epoch watcher thread");
            (call, ret, report, seen)
        })
    });
    Day {
        call,
        ret,
        seen,
        report: report.expect("a clean daemon day runs"),
        queries,
    }
}

/// Check one day against the reference and count its operations.
fn check_day(
    day: &Day,
    methods: &[Method],
    refs: &[Reference],
    tally: &mut Tally,
    problems: &mut Vec<String>,
) -> Vec<f64> {
    let report = &day.report;
    if !report.all_completed() || report.total_restarts() > 0 {
        problem(
            problems,
            format!(
                "daemon day: all completed {}, {} restarts",
                report.all_completed(),
                report.total_restarts()
            ),
        );
    }
    if day.seen.is_empty() {
        problem(problems, "no LiveBus epoch was observed".into());
    }
    let kinds: Vec<&str> = methods.iter().map(kind).collect();
    let mut mre = vec![0.0; methods.len()];
    for (shard, r) in report.shards.iter().zip(refs) {
        for slot in &shard.ticks {
            tally.record(slot.is_some());
        }
        if shard.lost_ticks() > 0 {
            problem(
                problems,
                format!("shard {}: {} lost ticks", shard.name, shard.lost_ticks()),
            );
        }
        let ticks: Vec<&StreamTick> = shard.ticks.iter().flatten().map(|t| t.as_ref()).collect();
        common::check_estimates(methods, &ticks, tally, problems);
        for (got, want) in ticks.iter().zip(&r.ticks) {
            for ((k, g), w) in kinds.iter().zip(&got.estimates).zip(&want.estimates) {
                let same = match (g, w) {
                    (Some(Ok(a)), Some(Ok(b))) => {
                        a.demands.len() == b.demands.len()
                            && a.demands
                                .iter()
                                .zip(&b.demands)
                                .all(|(x, y)| same_value(k, *x, *y))
                    }
                    (None, None) => true,
                    _ => false,
                };
                if !same {
                    problem(
                        problems,
                        format!(
                            "shard {} tick {} {k}: differs from the in-process engine",
                            shard.name, got.interval
                        ),
                    );
                }
            }
        }
        let shard_mre = common::day_mre(&r.feed.dataset, methods, &ticks, |_| true);
        for (m, s) in mre.iter_mut().zip(shard_mre) {
            *m += s / refs.len() as f64;
        }
    }
    mre
}

/// Run whole daemon days for about `seconds`. `data_seed` sets the two
/// shards' datasets (`data_seed` and `data_seed + 1`), `seed` the
/// query schedule.
pub fn run(seed: u64, data_seed: u64, seconds: f64, traced: bool) -> Run {
    let methods = common::parse_methods(&METHODS);
    let kinds: Vec<&str> = methods.iter().map(kind).collect();
    let shards = vec![
        ShardSpec::new("europe-a", DatasetSpec::europe(), data_seed),
        ShardSpec::new("europe-b", DatasetSpec::europe(), data_seed.wrapping_add(1)),
    ];
    let worker_bin = std::env::current_exe().expect("the benchmark knows its own path");
    let config =
        DaemonConfig::new(methods.clone()).with_transport(TransportConfig::Socket(SocketOptions {
            worker_bin: Some(worker_bin),
            ..SocketOptions::default()
        }));
    let daemon = Daemon::new(shards.clone(), config.clone()).expect("valid daemon roster");
    let mut run = Run::new(NAME, seed);

    // The reference: the same feed through in-process engines.
    let collect_start = Instant::now();
    let feeds = build_feeds(&shards, &config, 0..DAY).expect("feeds build");
    let collect_ms = ms(collect_start.elapsed());
    let refs: Vec<Reference> = feeds
        .into_iter()
        .map(|f| replay(f, &config, traced))
        .collect();

    // One short unmeasured run first: the first `run_live` of a process
    // also pays for paging in the worker binary and the first sockets.
    let warm = daemon
        .run(0..2 * config.checkpoint_every)
        .expect("warm-up run");
    if !warm.all_completed() {
        problem(&mut run.problems, "warm-up run did not complete".into());
    }
    drop(warm);

    let budget = Duration::from_secs_f64(seconds);
    let started = Instant::now();
    let mut days: Vec<Summary> = Vec::new();
    let mut first_mre: Option<Vec<f64>> = None;
    loop {
        let elapsed = started.elapsed();
        let mean_day = if days.is_empty() {
            Duration::ZERO
        } else {
            elapsed / days.len() as u32
        };
        let trace_this = traced && !days.is_empty() && elapsed + 2 * mean_day > budget;
        let probe_ms = if trace_this {
            Vec::new()
        } else {
            probe_between_days()
        };
        // Each day's peak RSS covers that day only.
        if !common::reset_peak_rss() && days.is_empty() {
            run.note("could not reset VmHWM: peak_rss_mb includes the start-up".into());
        }
        let day = run_day(&daemon, seed);
        let rss_mb = common::peak_rss_mb();
        let mut tally = Tally::default();
        let mre = check_day(&day, &methods, &refs, &mut tally, &mut run.problems);
        run.tally.add(tally);
        run.tally.add(day.queries.tally);
        for e in &day.queries.errors {
            problem(&mut run.problems, format!("query failed: {e}"));
        }
        let first = first_mre.get_or_insert_with(|| mre.clone());
        common::check_mre(&kinds, &mre, first, None, &mut run.problems);
        if trace_this {
            if run.problems.is_empty() {
                let untraced = median(&days.iter().map(|d| d.wall_s).collect::<Vec<_>>());
                let every = config.checkpoint_every;
                let layers = layers(
                    &mut run, &day, &refs, &methods, every, &mre, collect_ms, untraced,
                );
                run.layers = Some(layers);
            }
            break;
        }
        days.push(Summary {
            wall_s: day.wall_s(),
            setup_s: day.setup_s(),
            tick_ms: day.tick_ms(),
            rounds: day.report.ticks - 1,
            after_setup_s: (day.ret - day.seen[0].0).as_secs_f64(),
            queries: day.queries,
            rss_mb,
            probe_ms,
        });
        if !traced && started.elapsed() + started.elapsed() / days.len() as u32 > budget {
            break;
        }
    }

    let walls: Vec<f64> = days.iter().map(|d| d.wall_s).collect();
    run.note(format!("run_live walls (s): {walls:?}"));
    let day_probes: Vec<f64> = days.iter().map(|d| median(&d.probe_ms)).collect();
    run.note(format!("speed probe before each day (ms): {day_probes:?}"));
    if !traced {
        let setup_s: Vec<f64> = days.iter().map(|d| d.setup_s).collect();
        let mut per_day = Vec::new();
        let mut queries = QueryLog::default();
        let mut rss_mb = Vec::new();
        let mut probe_ms = Vec::new();
        for d in days {
            per_day.push((d.rounds as f64 / d.after_setup_s, d.tick_ms));
            queries.extend(d.queries);
            rss_mb.push(d.rss_mb);
            probe_ms.extend(d.probe_ms);
        }
        let mre_mean = first_mre.map_or(f64::NAN, |m| m.iter().sum::<f64>() / m.len() as f64);
        let speed = median(&probe_ms) / common::PROBE_REFERENCE_MS;
        run.end_to_end(&setup_s, &per_day, &queries, mre_mean, &rss_mb, Some(speed));
    }
    run
}

/// Replica cost of encoding and decoding one frame: `(bytes, enc, dec)`.
fn frame_cost(frame: &Frame) -> (usize, u64, u64) {
    let start = Instant::now();
    let bytes = wire::encode(frame);
    let enc = start.elapsed().as_nanos() as u64;
    let start = Instant::now();
    let decoded = wire::decode(&bytes).expect("own frame decodes");
    let dec = start.elapsed().as_nanos() as u64;
    assert!(decoded.is_some(), "a whole frame decodes");
    (bytes.len(), enc, dec)
}

/// Build the traced day's spans and read the per-layer metrics off them.
#[allow(clippy::too_many_arguments)]
fn layers(
    run: &mut Run,
    day: &Day,
    refs: &[Reference],
    methods: &[Method],
    every: usize,
    mre: &[f64],
    collect_ms: f64,
    untraced_wall_s: f64,
) -> Layers {
    let report = &day.report;
    let mut tr = Trace::new(day.call);
    let root = tr.span("run_live", None, None, day.call, day.ret);

    // Replica costs of the run's own frames and checkpoints.
    let mut tick_frames = Vec::new(); // [shard][tick] -> (enc, dec)
    let mut done_frames = Vec::new();
    let (mut tick_bytes, mut done_bytes) = (Vec::new(), Vec::new());
    for (shard, r) in report.shards.iter().zip(refs) {
        let mut tf = Vec::with_capacity(DAY);
        let mut df = Vec::with_capacity(DAY);
        for (k, slot) in shard.ticks.iter().enumerate() {
            let tick = Frame::Tick {
                tick: k,
                chaos: None,
                loads: Box::new(r.feed.dirty[k].clone()),
            };
            let (b, e, d) = frame_cost(&tick);
            tick_bytes.push(b as f64);
            tf.push((e, d));
            let result: StreamTick = slot.as_deref().expect("checked: no lost ticks").clone();
            let done = Frame::TickDone {
                tick: k,
                result: Box::new(result),
            };
            let (b, e, d) = frame_cost(&done);
            done_bytes.push(b as f64);
            df.push((e, d));
        }
        tick_frames.push(tf);
        done_frames.push(df);
    }
    let mut ckpt_frames: Vec<Vec<(u64, u64)>> = Vec::new();
    let (mut ckpt_wire_bytes, mut ckpt_bytes) = (Vec::new(), Vec::new());
    let mut restore_ns = 0u64;
    for r in refs {
        let mut cf = Vec::new();
        for (k, json) in &r.checkpoints {
            ckpt_bytes.push(json.len() as f64);
            let (b, e, d) = frame_cost(&Frame::Checkpoint {
                tick: *k,
                json: json.clone(),
                ckpt_ns: 0,
            });
            ckpt_wire_bytes.push(b as f64);
            cf.push((e, d));
            let mut fresh = StreamEngine::for_dataset(&r.feed.dataset, methods, StreamMode::Warm)
                .expect("engine builds");
            let start = Instant::now();
            let ckpt = EngineCheckpoint::from_json(json).expect("own checkpoint parses");
            fresh.restore(&ckpt).expect("own checkpoint restores");
            restore_ns += start.elapsed().as_nanos() as u64;
        }
        ckpt_frames.push(cf);
    }
    let ckpt_mean_ns: Vec<u64> = report
        .telemetry
        .shards
        .iter()
        .map(|s| s.checkpoint.sum() / s.checkpoint.count().max(1))
        .collect();
    let probe = LiveBus::new();
    let publish_ns: Vec<f64> = (0..64)
        .map(|_| {
            let start = Instant::now();
            probe.publish(report.live_view());
            std::hint::black_box(probe.load());
            start.elapsed().as_nanos() as f64
        })
        .collect();
    let publish_ns = median(&publish_ns) as u64;

    // A worker checkpoints after it has answered a tick, while the
    // coordinator moves on: the cost lands in the next round (or the
    // drain), laid last, so what overlapped other work is what clips.
    let lay_checkpoint = |tr: &mut Trace, parent: usize, cursor: &mut u64, s: usize, t: usize| {
        if t > 0 && t.is_multiple_of(every) {
            tr.lay("checkpoint", Some(t - 1), parent, cursor, ckpt_mean_ns[s]);
            let (enc, dec) = ckpt_frames[s][t / every - 1];
            tr.lay("wire.encode", Some(t - 1), parent, cursor, enc);
            tr.lay("wire.decode", Some(t - 1), parent, cursor, dec);
        }
    };
    // Lay one tick's work, shard after shard, as the coordinator's
    // lockstep dispatch runs it.
    let lay_tick = |tr: &mut Trace, parent: usize, cursor: &mut u64, t: usize| {
        for (s, (shard, r)) in report.shards.iter().zip(refs).enumerate() {
            let (enc, dec) = tick_frames[s][t];
            tr.lay("wire.encode", Some(t), parent, cursor, enc);
            tr.lay("wire.decode", Some(t), parent, cursor, dec);
            tr.lay("engine", Some(t), parent, cursor, r.engine_ns[t]);
            let done = shard.ticks[t].as_deref().expect("checked: no lost ticks");
            for (m, &ns) in methods.iter().zip(&done.solve_ns) {
                tr.lay(&format!("solve.{}", kind(m)), Some(t), parent, cursor, ns);
            }
            let (enc, dec) = done_frames[s][t];
            tr.lay("wire.encode", Some(t), parent, cursor, enc);
            tr.lay("wire.decode", Some(t), parent, cursor, dec);
        }
        tr.lay("live", Some(t), parent, cursor, publish_ns);
        for s in 0..refs.len() {
            lay_checkpoint(tr, parent, cursor, s, t);
        }
    };

    {
        let (first_at, first_up, _) = day.seen[0];
        let spawn = tr.span("spawn", None, Some(root), day.call, first_at);
        let mut cursor = tr.start_of(spawn);
        tr.lay(
            "collect",
            None,
            spawn,
            &mut cursor,
            (collect_ms * 1e6) as u64,
        );
        for t in 0..first_up {
            lay_tick(&mut tr, spawn, &mut cursor, t);
        }
        let running: Vec<&(Instant, usize, bool)> = day.seen.iter().filter(|s| s.2).collect();
        for w in running.windows(2) {
            let (at, up, _) = *w[0];
            let (next_at, next_up, _) = *w[1];
            let single = (next_up == up + 1).then_some(up);
            let round = tr.span("round", single, Some(root), at, next_at);
            let mut cursor = tr.start_of(round);
            for t in up..next_up {
                lay_tick(&mut tr, round, &mut cursor, t);
            }
        }
        let last = running.last().map_or(first_at, |s| s.0);
        let drain = tr.span("drain", None, Some(root), last, day.ret);
        let mut cursor = tr.start_of(drain);
        for s in 0..refs.len() {
            lay_checkpoint(&mut tr, drain, &mut cursor, s, DAY);
        }
    }

    let mut layers = Layers::new(&tr);
    let own = tr.self_ns();
    let rounds: Vec<f64> = tr
        .spans()
        .iter()
        .zip(&own)
        .filter(|(s, _)| s.name == "round" && s.tick.is_some())
        .map(|(_, &ns)| ns as f64 / 1e6)
        .collect();
    layers.set(
        "transport.round_p95_ms",
        percentile(&rounds, 95.0).unwrap_or(f64::NAN),
    );
    let lost_polls = refs.first().map_or(0, |r| r.feed.lost_polls);
    let nodes: usize = refs.iter().map(|r| r.feed.dataset.topology.n_nodes()).sum();
    layers.set("collect.polls", ((DAY + 1) * nodes) as f64);
    layers.set("collect.lost_polls", lost_polls as f64);
    let all_ticks: Vec<Arc<StreamTick>> = report
        .shards
        .iter()
        .flat_map(|s| s.ticks.iter().flatten().cloned())
        .collect();
    layers.engine_counters(&all_ticks);
    layers.solve(methods, all_ticks.iter().map(|t| t.solve_ns.as_slice()));
    layers.mre(&methods.iter().map(kind).collect::<Vec<_>>(), mre);
    layers.set("checkpoint.bytes", median_or_zero(&ckpt_bytes));
    layers.set("restore.busy_ms", restore_ns as f64 / 1e6);
    layers.set("wire.tick_bytes", median_or_zero(&tick_bytes));
    layers.set("wire.done_bytes", median_or_zero(&done_bytes));
    layers.set("wire.checkpoint_bytes", median_or_zero(&ckpt_wire_bytes));
    layers.set("live.publish_us", publish_ns as f64 / 1e3);
    layers.protocol(&report.live_view(), &day.queries);
    if let Err(e) = layers.finish(&tr, untraced_wall_s) {
        problem(&mut run.problems, e);
    }
    run.write_trace(&tr);
    layers
}

fn median_or_zero(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        median(v)
    }
}
