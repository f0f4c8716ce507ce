//! Live serving end to end: a protocol client polling an in-flight run
//! gets answers that are bit-identical to the post-run answers, the new
//! `stats`/`whatif` verbs work, unknown verbs echo the menu, telemetry
//! counters reconcile with the final report, and a checked-in TOML
//! config drives the same runs.

use std::collections::HashSet;
use std::sync::Arc;
use std::time::Duration;

use serde::Value;
use tm_core::measure::{LoadFaultPlan, LoadOutage};
use tm_core::Method;
use tm_daemon::telemetry::LiveBus;
use tm_daemon::{
    handle_line_view, parse_daemon_toml, ChaosPlan, Daemon, DaemonConfig, ShardSpec, SocketOptions,
    TransportConfig,
};
use tm_traffic::DatasetSpec;

const TICKS: usize = 10;

fn methods() -> Vec<Method> {
    ["gravity", "entropy:lambda=1e3"]
        .iter()
        .map(|s| s.parse().expect("valid spec"))
        .collect()
}

fn config() -> DaemonConfig {
    let mut config = DaemonConfig::new(methods());
    config.heartbeat_timeout = Duration::from_millis(500);
    config.checkpoint_every = 4;
    config.restart_backoff = Duration::from_millis(5);
    config
}

fn shards() -> Vec<ShardSpec> {
    vec![
        ShardSpec::new("east", DatasetSpec::tiny(), 11),
        ShardSpec::new("west", DatasetSpec::tiny(), 12),
    ]
}

fn parse(line: &str) -> Value {
    serde_json::from_str(line).unwrap_or_else(|e| panic!("bad response `{line}`: {e}"))
}

fn f64_of(value: &Value, field: &str) -> f64 {
    match value.field(field) {
        Ok(Value::F64(x)) => *x,
        Ok(Value::I64(x)) => *x as f64,
        Ok(Value::U64(x)) => *x as f64,
        other => panic!("field `{field}`: {other:?}"),
    }
}

fn u64_of(value: &Value, field: &str) -> u64 {
    match value.field(field) {
        Ok(Value::U64(x)) => *x,
        Ok(Value::I64(x)) if *x >= 0 => *x as u64,
        other => panic!("field `{field}`: {other:?}"),
    }
}

#[test]
fn unknown_verbs_echo_the_verb_and_the_menu() {
    let daemon = Daemon::new(shards(), config()).unwrap();
    let report = daemon.run(0..2).unwrap();

    let response = handle_line_view(&report.live_view(), r#"{"cmd":"frobnicate"}"#);
    assert!(response.contains(r#""ok":false"#), "{response}");
    assert!(
        response.contains("unknown cmd `frobnicate`"),
        "must echo the offending verb: {response}"
    );
    for verb in [
        "status", "health", "estimate", "stats", "whatif", "shutdown",
    ] {
        assert!(
            response.contains(verb),
            "menu must list `{verb}`: {response}"
        );
    }
    // A request with no cmd at all gets the same menu.
    let response = handle_line_view(&report.live_view(), r#"{"shard":"east"}"#);
    assert!(
        response.contains("missing string field `cmd`"),
        "{response}"
    );
    assert!(response.contains("whatif"), "{response}");
}

/// The tentpole guarantee: poll the live bus while the day streams
/// (with chaos restarts in the mix), ask for every estimate as soon as
/// its tick is published, and compare each answer bit for bit with the
/// post-run answer to the identical request.
#[test]
fn mid_run_answers_are_bit_identical_to_post_run() {
    let chaos = ChaosPlan::none().with_kill(0, 5).with_hang(1, 3);
    let daemon = Daemon::new(shards(), config().with_chaos(chaos)).unwrap();
    let bus = Arc::new(LiveBus::new());
    let bus_for_run = Arc::clone(&bus);
    let runner = std::thread::spawn(move || daemon.run_live(0..TICKS, &bus_for_run));

    let labels: Vec<String> = methods().iter().map(|m| m.label()).collect();
    let mut seen_epoch = 0u64;
    let mut last_uptime = 0usize;
    let mut queried: HashSet<(String, usize)> = HashSet::new();
    // (request, live response) pairs captured mid-run.
    let mut recorded: Vec<(String, String)> = Vec::new();
    let mut polled_while_running = false;

    loop {
        let Some(view) = bus.wait_past(seen_epoch, Duration::from_secs(60)) else {
            panic!("bus stalled at epoch {seen_epoch}");
        };
        assert!(view.epoch > seen_epoch, "epoch must advance");
        assert!(view.uptime_ticks >= last_uptime, "uptime must not regress");
        seen_epoch = view.epoch;
        last_uptime = view.uptime_ticks;
        if view.running {
            polled_while_running = true;
            // A status answered mid-run reports streaming mode.
            let status = handle_line_view(&view, r#"{"cmd":"status"}"#);
            assert!(status.contains(r#""mode":"streaming-warm""#), "{status}");
        }
        for shard in &view.shards {
            for (tick, slot) in shard.ticks.iter().enumerate() {
                if slot.is_none() || !queried.insert((shard.name.clone(), tick)) {
                    continue;
                }
                for label in &labels {
                    let request = format!(
                        r#"{{"cmd":"estimate","shard":"{}","tick":{tick},"method":"{label}"}}"#,
                        shard.name
                    );
                    let response = handle_line_view(&view, &request);
                    assert!(response.contains(r#""ok":true"#), "{request} => {response}");
                    recorded.push((request, response));
                }
            }
        }
        // Stats must answer without error at any point in the run.
        let stats = handle_line_view(&view, r#"{"cmd":"stats"}"#);
        assert!(stats.contains(r#""ok":true"#), "{stats}");
        if !view.running {
            break;
        }
    }

    let report = runner.join().expect("runner").expect("run succeeds");
    assert!(report.all_completed());
    assert_eq!(report.total_restarts(), 2);
    assert!(polled_while_running, "the poller must overlap the run");
    assert_eq!(
        queried.len(),
        2 * TICKS,
        "every tick of both shards must have been answered live"
    );
    for (request, live) in &recorded {
        let post = handle_line_view(&report.live_view(), request);
        assert_eq!(live, &post, "mid-run answer diverged for {request}");
    }
}

#[test]
fn telemetry_counters_reconcile_with_the_final_report() {
    let fault = LoadFaultPlan {
        seed: 3,
        missing_probability: 0.0,
        outages: vec![LoadOutage {
            link: 2,
            from: 4,
            ticks: 2,
        }],
        corrupt: vec![],
    };
    let roster = vec![
        ShardSpec::new("east", DatasetSpec::tiny(), 11).with_fault_plan(fault),
        ShardSpec::new("west", DatasetSpec::tiny(), 12),
    ];
    let chaos = ChaosPlan::none().with_kill(0, 5).with_hang(1, 7);
    let daemon = Daemon::new(roster, config().with_chaos(chaos)).unwrap();
    let report = daemon.run(0..TICKS).unwrap();
    assert!(report.all_completed());

    // Counters are counted on first acceptance only, so despite the
    // replayed ticks after each restart they must reconcile EXACTLY
    // with the aggregates of the final report.
    let totals = report.telemetry.total_counters();
    let completed: usize = report.shards.iter().map(|s| s.completed_ticks()).sum();
    let degraded: usize = report.shards.iter().map(|s| s.degraded_ticks()).sum();
    let (mut imputed, mut masked) = (0u64, 0u64);
    for shard in &report.shards {
        for tick in shard.ticks.iter().flatten() {
            if let Some(d) = &tick.degradation {
                imputed += d.imputed_rows.len() as u64;
                masked += d.masked_rows.len() as u64;
            }
        }
    }
    assert_eq!(totals.ticks, completed as u64);
    assert_eq!(totals.degraded_ticks, degraded as u64);
    assert!(totals.degraded_ticks >= 2, "the outage must surface");
    assert_eq!(totals.imputed_rows, imputed);
    assert_eq!(totals.masked_rows, masked);
    assert_eq!(totals.restarts, report.total_restarts() as u64);
    assert!(
        totals.checkpoints >= 2,
        "checkpoint cadence 4 over 10 ticks"
    );

    // Histogram populations line up with real work heard by the
    // supervisor: every accepted tick plus every replayed tick records
    // one sample per method — abandoned zombie epochs record nothing,
    // so the population is exact, not a lower bound.
    for shard in &report.shards {
        let telemetry = report.telemetry.shard(&shard.name).expect("telemetry");
        let replayed: usize = shard.restarts.iter().map(|r| r.replayed).sum();
        let samples = (shard.completed_ticks() + replayed) as u64;
        for (label, hist) in &telemetry.solve {
            assert_eq!(hist.count(), samples, "shard {} method {label}", shard.name);
        }
        assert_eq!(telemetry.queue_delay.count(), samples);
    }

    // The stats verb serves the same numbers.
    let stats = parse(&handle_line_view(&report.live_view(), r#"{"cmd":"stats"}"#));
    let counters = stats.field("counters").expect("counters");
    assert_eq!(u64_of(counters, "ticks"), totals.ticks);
    assert_eq!(u64_of(counters, "restarts"), totals.restarts);
    assert_eq!(u64_of(counters, "checkpoints"), totals.checkpoints);
    let text = handle_line_view(&report.live_view(), r#"{"cmd":"stats","format":"text"}"#);
    assert!(text.contains("global solve walls"), "{text}");
    let filtered = handle_line_view(&report.live_view(), r#"{"cmd":"stats","shard":"nope"}"#);
    assert!(filtered.contains(r#""ok":false"#), "{filtered}");
}

#[test]
fn whatif_projects_link_loads_without_touching_state() {
    let daemon = Daemon::new(shards(), config()).unwrap();
    let report = daemon.run(0..6).unwrap();

    // Identity scenario: nothing changes.
    let id = parse(&handle_line_view(
        &report.live_view(),
        r#"{"cmd":"whatif","shard":"east","method":"gravity"}"#,
    ));
    assert_eq!(u64_of(&id, "tick"), 5, "defaults to the latest tick");
    assert_eq!(
        f64_of(&id, "total_mbps_before").to_bits(),
        f64_of(&id, "total_mbps_after").to_bits()
    );
    assert_eq!(
        f64_of(&id, "max_link_mbps_before").to_bits(),
        f64_of(&id, "max_link_mbps_after").to_bits()
    );
    assert_eq!(u64_of(&id, "overloaded_links"), 0);

    // Routing is linear: doubling demand doubles every link load.
    let doubled = parse(&handle_line_view(
        &report.live_view(),
        r#"{"cmd":"whatif","shard":"east","method":"gravity","tick":5,"scale":2.0}"#,
    ));
    let before = f64_of(&doubled, "max_link_mbps_before");
    let after = f64_of(&doubled, "max_link_mbps_after");
    assert!(
        (after - 2.0 * before).abs() <= 1e-9 * before.max(1.0),
        "{before} -> {after}"
    );

    // A targeted delta moves exactly the requested volume.
    let delta = parse(&handle_line_view(
        &report.live_view(),
        r#"{"cmd":"whatif","shard":"east","method":"gravity","deltas":[{"pair":0,"mbps":250.0}]}"#,
    ));
    let moved = f64_of(&delta, "total_mbps_after") - f64_of(&delta, "total_mbps_before");
    assert!((moved - 250.0).abs() < 1e-6, "moved {moved}");
    assert_eq!(u64_of(&delta, "deltas_applied"), 1);

    // Error paths name the offending piece.
    for (bad, needle) in [
        (r#"{"cmd":"whatif","method":"gravity"}"#, "shard"),
        (r#"{"cmd":"whatif","shard":"east"}"#, "method"),
        (
            r#"{"cmd":"whatif","shard":"east","method":"gravity","scale":-1.0}"#,
            "scale",
        ),
        (
            r#"{"cmd":"whatif","shard":"east","method":"gravity","deltas":[{"pair":99999,"mbps":1.0}]}"#,
            "out of range",
        ),
    ] {
        let response = handle_line_view(&report.live_view(), bad);
        assert!(response.contains(r#""ok":false"#), "{bad} => {response}");
        assert!(response.contains(needle), "{bad} => {response}");
    }
}

#[test]
fn whatif_rejects_non_finite_scenarios() {
    let daemon = Daemon::new(shards(), config()).unwrap();
    let report = daemon.run(0..2).unwrap();
    let view = report.live_view();
    let ask = |tail: &str| {
        handle_line_view(
            &view,
            &format!(r#"{{"cmd":"whatif","shard":"east","method":"gravity",{tail}}}"#),
        )
    };

    // `1e400` parses as an infinity: a typed error, not `"ok":true` with
    // null totals.
    for (tail, needle) in [
        (
            r#""deltas":[{"pair":0,"mbps":1e400}]"#,
            "`mbps` must be finite",
        ),
        (
            r#""deltas":[{"pair":0,"mbps":-1e400}]"#,
            "`mbps` must be finite",
        ),
        (
            r#""deltas":[{"pair":0,"mbps":1.7e308},{"pair":0,"mbps":1.7e308}]"#,
            "resulting demand is not finite",
        ),
        (r#""scale":1e308"#, "total demand is not finite"),
    ] {
        let response = ask(tail);
        assert!(response.contains(r#""ok":false"#), "{tail} => {response}");
        assert!(response.contains(needle), "{tail} => {response}");
    }

    // A large finite delta is still a scenario.
    let big = parse(&ask(r#""deltas":[{"pair":0,"mbps":1e300}]"#));
    assert_eq!(big.field("ok").unwrap(), &Value::Bool(true));
    assert!(f64_of(&big, "total_mbps_after").is_finite());
}

#[test]
fn status_reports_progress_uptime_and_mode() {
    let mut config = config();
    config.max_restarts = 0;
    let chaos = ChaosPlan::none().with_kill(0, 6);
    let daemon = Daemon::new(shards(), config.with_chaos(chaos)).unwrap();
    let report = daemon.run(0..TICKS).unwrap();

    let status = parse(&handle_line_view(
        &report.live_view(),
        r#"{"cmd":"status"}"#,
    ));
    assert_eq!(u64_of(&status, "uptime_ticks"), TICKS as u64);
    assert_eq!(
        status.field("mode").unwrap(),
        &Value::Str("finished-warm".into())
    );
    let shards_value = status.field("shards").unwrap().as_seq().unwrap();
    let east = &shards_value[0];
    let progress = east.field("progress").unwrap();
    assert_eq!(u64_of(progress, "done"), 6, "quarantined at tick 6");
    assert_eq!(u64_of(progress, "total"), TICKS as u64);
    let west = &shards_value[1];
    assert_eq!(
        u64_of(west.field("progress").unwrap(), "done"),
        TICKS as u64
    );
    // PR 7 fields survive for old parsers.
    for field in [
        "ticks",
        "labels",
        "total_restarts",
        "completed_ticks",
        "lost_ticks",
        "degraded_ticks",
    ] {
        let line = handle_line_view(&report.live_view(), r#"{"cmd":"status"}"#);
        assert!(line.contains(field), "missing `{field}`: {line}");
    }
    // An estimate for a quarantine-lost tick says so.
    let lost = handle_line_view(
        &report.live_view(),
        r#"{"cmd":"estimate","shard":"east","tick":8,"method":"gravity"}"#,
    );
    assert!(lost.contains("lost to quarantine"), "{lost}");
}

#[test]
fn toml_config_drives_the_same_run() {
    let text = r#"
[daemon]
methods = ["gravity", "entropy:lambda=1e3"]
ticks = 10
heartbeat_timeout_ms = 500
checkpoint_every = 4
restart_backoff_ms = 5

[[shard]]
name = "east"
topology = "tiny"
seed = 11

[[shard]]
name = "west"
topology = "tiny"
seed = 12

[[chaos]]
shard = 0
tick = 5
kind = "kill"
"#;
    let parsed = parse_daemon_toml(text).expect("config parses");
    assert_eq!(parsed.tick_range(), 0..10);
    let daemon = Daemon::new(parsed.shards, parsed.config).unwrap();
    let report = daemon.run(parsed.ticks.map(|t| 0..t).unwrap()).unwrap();
    assert!(report.all_completed());
    assert_eq!(report.total_restarts(), 1);

    // The declarative run answers queries exactly like the programmatic
    // one from `mid_run_answers_are_bit_identical_to_post_run`'s setup.
    let programmatic = Daemon::new(
        shards(),
        config().with_chaos(ChaosPlan::none().with_kill(0, 5)),
    )
    .unwrap()
    .run(0..10)
    .unwrap();
    for request in [
        r#"{"cmd":"estimate","shard":"east","tick":7,"method":"gravity"}"#,
        r#"{"cmd":"estimate","shard":"west","tick":3,"method":"entropy(1e3)"}"#,
    ] {
        assert_eq!(
            handle_line_view(&report.live_view(), request),
            handle_line_view(&programmatic.live_view(), request)
        );
    }
}

/// Satellite: a connected-but-silent client must not wedge the
/// single-threaded serve loop. The per-connection read deadline drops
/// it, and the next queued client gets served.
#[test]
fn silent_client_cannot_wedge_the_serve_loop() {
    use std::io::{BufRead, BufReader, Write};
    use std::net::{TcpListener, TcpStream};

    let daemon = Daemon::new(shards(), config()).unwrap();
    let report = daemon.run(0..2).unwrap();

    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let deadline = Duration::from_millis(200);
    let bus = LiveBus::new();
    bus.publish(report.live_view());
    let server =
        std::thread::spawn(move || tm_daemon::serve_live_deadline(&bus, listener, deadline));

    // First client connects and says nothing; it holds the accept loop
    // for at most one deadline.
    let silent = TcpStream::connect(addr).unwrap();

    // Second client queues behind it and must still get answers.
    let stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = stream;
    let mut line = String::new();

    let start = std::time::Instant::now();
    writeln!(writer, r#"{{"cmd":"status"}}"#).unwrap();
    reader.read_line(&mut line).unwrap();
    assert!(line.contains(r#""ok":true"#), "{line}");
    assert!(
        start.elapsed() < Duration::from_secs(5),
        "second client waited {:?} behind a silent one",
        start.elapsed()
    );

    line.clear();
    writeln!(writer, r#"{{"cmd":"shutdown"}}"#).unwrap();
    reader.read_line(&mut line).unwrap();
    assert!(line.contains(r#""bye":true"#), "{line}");
    drop(silent);
    server.join().unwrap().unwrap();
}

/// The same deadline protects the live server mid-run.
#[test]
fn live_serve_applies_the_read_deadline() {
    use std::io::{BufRead, BufReader, Write};
    use std::net::{TcpListener, TcpStream};

    let bus = Arc::new(LiveBus::new());
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let server_bus = Arc::clone(&bus);
    let deadline = Duration::from_millis(150);
    let server =
        std::thread::spawn(move || tm_daemon::serve_live_deadline(&server_bus, listener, deadline));

    let silent = TcpStream::connect(addr).unwrap();
    let stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = stream;
    let mut line = String::new();
    writeln!(writer, r#"{{"cmd":"status"}}"#).unwrap();
    reader.read_line(&mut line).unwrap();
    assert!(line.contains(r#""ok":true"#), "{line}");

    line.clear();
    writeln!(writer, r#"{{"cmd":"shutdown"}}"#).unwrap();
    reader.read_line(&mut line).unwrap();
    assert!(line.contains(r#""bye":true"#), "{line}");
    drop(silent);
    server.join().unwrap().unwrap();
}

/// Histogram populations are a property of the coordinator, not of the
/// transport: under kill + hang chaos, each shard's solve and
/// queue-delay histograms hold exactly `completed_ticks + Σ replayed`
/// samples over in-process threads and over child processes alike.
#[test]
fn histogram_populations_match_on_both_transports() {
    let socket = TransportConfig::Socket(SocketOptions {
        worker_bin: Some(env!("CARGO_BIN_EXE_tm_shard_worker").into()),
        connect_timeout: Duration::from_secs(30),
    });
    for transport in [TransportConfig::Thread, socket] {
        let chaos = ChaosPlan::none().with_kill(0, 5).with_hang(1, 7);
        let config = config().with_chaos(chaos).with_transport(transport.clone());
        let report = Daemon::new(shards(), config)
            .unwrap()
            .run(0..TICKS)
            .unwrap();
        assert!(report.all_completed(), "{transport:?}");
        assert_eq!(report.total_restarts(), 2, "{transport:?}");
        for shard in &report.shards {
            let telemetry = report.telemetry.shard(&shard.name).expect("telemetry");
            let replayed: usize = shard.restarts.iter().map(|r| r.replayed).sum();
            let samples = (shard.completed_ticks() + replayed) as u64;
            for (label, hist) in &telemetry.solve {
                assert_eq!(
                    hist.count(),
                    samples,
                    "{transport:?}: shard {} method {label}",
                    shard.name
                );
            }
            assert_eq!(
                telemetry.queue_delay.count(),
                samples,
                "{transport:?}: shard {} queue delay",
                shard.name
            );
        }
    }
}
