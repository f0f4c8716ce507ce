//! End-to-end daemon runs: sharded days under chaos, bit-identity of
//! clean-tick aggregates against the in-process engine, quarantine
//! semantics, and the query protocol over a finished run.

use std::time::Duration;

use tm_core::measure::{LoadFaultPlan, LoadOutage};
use tm_core::stream::{StreamEngine, StreamMode, StreamTick};
use tm_core::Method;
use tm_daemon::{
    build_feeds, handle_line_view, ChaosPlan, Daemon, DaemonConfig, DaemonReport, FailureCause,
    ShardFeed, ShardSpec, ShardState,
};
use tm_traffic::DatasetSpec;

/// Non-WCB methods: warm resume from a checkpoint is bit-identical for
/// these, so every daemon estimate must match the in-process engine
/// exactly (WCB's carried basis is deliberately not serialized; its
/// daemon story is exercised separately with a tolerance).
fn methods() -> Vec<Method> {
    ["gravity", "entropy:lambda=1e3", "vardi:w=0.01,window=6"]
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

/// Drive the same dirty feed through a single in-process engine — the
/// ground truth the daemon's aggregate must reproduce.
fn reference_ticks(feed: &ShardFeed, methods: &[Method]) -> Vec<StreamTick> {
    let mut engine =
        StreamEngine::for_dataset(&feed.dataset, methods, StreamMode::Warm).expect("engine");
    feed.dirty
        .iter()
        .map(|loads| engine.push_interval(loads.clone()).expect("tick"))
        .collect()
}

/// Assert a shard's daemon estimates are bit-identical to the
/// in-process reference on every tick.
fn assert_bit_identical(report: &DaemonReport, shard: &str, reference: &[StreamTick]) {
    let shard_report = report.shard(shard).expect("shard exists");
    assert_eq!(shard_report.ticks.len(), reference.len());
    for (k, (got, want)) in shard_report.ticks.iter().zip(reference).enumerate() {
        let got = got.as_ref().unwrap_or_else(|| panic!("tick {k} lost"));
        assert_eq!(got.estimates.len(), want.estimates.len());
        for (slot, (g, w)) in got.estimates.iter().zip(&want.estimates).enumerate() {
            match (g, w) {
                (Some(Ok(g)), Some(Ok(w))) => {
                    let same = g
                        .demands
                        .iter()
                        .zip(&w.demands)
                        .all(|(a, b)| a.to_bits() == b.to_bits());
                    assert!(
                        same,
                        "shard {shard} tick {k} slot {slot}: daemon != in-process engine"
                    );
                }
                (None, None) => {}
                (Some(Err(_)), Some(Err(_))) => {}
                _ => panic!("shard {shard} tick {k} slot {slot}: outcome shape differs"),
            }
        }
    }
}

#[test]
fn clean_sharded_day_matches_in_process_engines() {
    let daemon = Daemon::new(shards(), config()).unwrap();
    let report = daemon.run(0..10).unwrap();
    assert!(report.all_completed());
    assert_eq!(report.total_restarts(), 0);
    assert_eq!(report.labels.len(), 3);

    let feeds = build_feeds(&shards(), &config(), 0..10).unwrap();
    for feed in &feeds {
        assert_bit_identical(&report, &feed.name, &reference_ticks(feed, &methods()));
    }
}

#[test]
fn kill_and_hang_are_restarted_without_losing_intervals() {
    let chaos = ChaosPlan::none()
        .with_kill(0, 5)
        .with_hang(1, 3)
        .with_delay(0, 7);
    let daemon = Daemon::new(shards(), config().with_chaos(chaos)).unwrap();
    let report = daemon.run(0..10).unwrap();

    assert!(report.all_completed(), "no shard may be quarantined");
    assert_eq!(report.unfired_chaos, 0, "all scheduled events fired");
    assert_eq!(report.total_restarts(), 2, "delay must not restart");

    // Every restart is surfaced in the health data, with its mechanics.
    let east = &report.shard("east").unwrap().restarts;
    assert_eq!(east.len(), 1);
    assert_eq!(east[0].tick, 5);
    assert_eq!(east[0].epoch, 1);
    assert_eq!(east[0].cause, FailureCause::Panic);
    assert_eq!(
        east[0].from_checkpoint,
        Some(3),
        "kill at 5 resumes from the checkpoint taken after tick 3"
    );
    assert_eq!(east[0].replayed, 1, "tick 4 replayed from the feed");

    let west = &report.shard("west").unwrap().restarts;
    assert_eq!(west.len(), 1);
    assert_eq!(west[0].tick, 3);
    assert_eq!(west[0].cause, FailureCause::Hang);
    assert_eq!(
        west[0].from_checkpoint, None,
        "hang at 3 precedes the first checkpoint: cold replay"
    );
    assert_eq!(west[0].replayed, 3);

    // Restart or not, the aggregate is bit-identical to one process.
    let feeds = build_feeds(&shards(), &config(), 0..10).unwrap();
    for feed in &feeds {
        assert_bit_identical(&report, &feed.name, &reference_ticks(feed, &methods()));
    }
}

#[test]
fn data_faults_and_chaos_compose() {
    // One shard gets dirty data (an SNMP outage) *and* a worker kill:
    // the degradation ladder and the supervisor act independently.
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
    let chaos = ChaosPlan::none().with_kill(0, 5);
    let daemon = Daemon::new(roster.clone(), config().with_chaos(chaos)).unwrap();
    let report = daemon.run(0..10).unwrap();

    assert!(report.all_completed());
    assert_eq!(report.total_restarts(), 1);
    let east = report.shard("east").unwrap();
    assert!(
        east.degraded_ticks() >= 2,
        "outage ticks surface in the health data"
    );
    assert_eq!(report.shard("west").unwrap().degraded_ticks(), 0);

    let feeds = build_feeds(&roster, &config(), 0..10).unwrap();
    for feed in &feeds {
        assert_bit_identical(&report, &feed.name, &reference_ticks(feed, &methods()));
    }
}

#[test]
fn repeated_failures_quarantine_the_shard_and_spare_the_rest() {
    let mut config = config();
    config.max_restarts = 1;
    // Two kills on shard 0: the first consumes the budget, the second
    // quarantines. Shard 1 must finish untouched.
    let chaos = ChaosPlan::none().with_kill(0, 2).with_kill(0, 6);
    let daemon = Daemon::new(shards(), config.with_chaos(chaos)).unwrap();
    let report = daemon.run(0..10).unwrap();

    let east = report.shard("east").unwrap();
    assert_eq!(east.state, ShardState::Quarantined { at_tick: 6 });
    assert_eq!(east.restarts.len(), 2, "both failures recorded");
    assert_eq!(east.completed_ticks(), 6, "ticks 0..6 retained");
    assert_eq!(east.lost_ticks(), 4, "ticks 6..10 lost and reported");
    assert!(east.ticks[6..].iter().all(|t| t.is_none()));

    let west = report.shard("west").unwrap();
    assert_eq!(west.state, ShardState::Completed);
    assert_eq!(west.lost_ticks(), 0);
    assert!(!report.all_completed());
}

#[test]
fn protocol_answers_status_health_and_estimates() {
    let chaos = ChaosPlan::none().with_kill(0, 3);
    let daemon = Daemon::new(shards(), config().with_chaos(chaos)).unwrap();
    let report = daemon.run(0..8).unwrap();

    let status = handle_line_view(&report.live_view(), r#"{"cmd":"status"}"#);
    assert!(status.contains(r#""ok":true"#), "{status}");
    assert!(status.contains(r#""ticks":8"#), "{status}");
    assert!(status.contains(r#""total_restarts":1"#), "{status}");
    assert!(
        status.contains("east") && status.contains("west"),
        "{status}"
    );

    let health = handle_line_view(&report.live_view(), r#"{"cmd":"health","shard":"east"}"#);
    assert!(health.contains(r#""cause":"panic""#), "{health}");
    assert!(health.contains(r#""state":"completed""#), "{health}");

    let json = handle_line_view(
        &report.live_view(),
        r#"{"cmd":"estimate","shard":"west","tick":4,"method":"gravity"}"#,
    );
    assert!(json.contains(r#""demands":["#), "{json}");
    let csv = handle_line_view(
        &report.live_view(),
        r#"{"cmd":"estimate","shard":"west","tick":4,"method":"gravity","format":"csv"}"#,
    );
    assert!(csv.contains("pair,mbps"), "{csv}");
    let text = handle_line_view(
        &report.live_view(),
        r#"{"cmd":"estimate","shard":"west","tick":4,"method":"gravity","format":"text"}"#,
    );
    assert!(text.contains("Mbps total"), "{text}");

    for bad in [
        "not json at all",
        r#"{"cmd":"frobnicate"}"#,
        r#"{"cmd":"estimate","shard":"nope","tick":0,"method":"gravity"}"#,
        r#"{"cmd":"estimate","shard":"west","tick":999,"method":"gravity"}"#,
        r#"{"cmd":"estimate","shard":"west","tick":0,"method":"nope"}"#,
        r#"{"cmd":"health","shard":"nope"}"#,
    ] {
        let response = handle_line_view(&report.live_view(), bad);
        assert!(response.contains(r#""ok":false"#), "{bad} => {response}");
    }
}

#[test]
fn protocol_serves_over_tcp_until_shutdown() {
    use std::io::{BufRead, BufReader, Write};
    use std::net::{TcpListener, TcpStream};

    let daemon = Daemon::new(shards(), config()).unwrap();
    let report = daemon.run(0..4).unwrap();

    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let bus = tm_daemon::LiveBus::new();
    bus.publish(report.live_view());
    let server = std::thread::spawn(move || tm_daemon::serve_live(&bus, listener));

    let stream = TcpStream::connect(addr).unwrap();
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

    server.join().unwrap().unwrap();
}
