//! Process-per-shard socket transport, end to end: bit-identity with
//! the thread transport, loss-free recovery under every injected wire
//! fault, and the surfacing of reconnects/resends in reports, telemetry
//! and the query protocol.
//!
//! Every test pins the worker binary via `CARGO_BIN_EXE_tm_shard_worker`
//! (Cargo builds it alongside the integration tests), so no PATH or
//! environment setup is needed.

use std::time::Duration;

use tm_core::stream::{StreamEngine, StreamMode, StreamTick};
use tm_core::Method;
use tm_daemon::{
    build_feeds, handle_line_view, ChaosPlan, Daemon, DaemonConfig, DaemonReport, NetFaultKind,
    NetFaultPlan, ShardFeed, ShardSpec, SocketOptions, TransportConfig, TransportEventKind,
};
use tm_traffic::DatasetSpec;

fn worker_bin() -> std::path::PathBuf {
    std::path::PathBuf::from(env!("CARGO_BIN_EXE_tm_shard_worker"))
}

fn methods() -> Vec<Method> {
    ["gravity", "entropy:lambda=1e3", "vardi:w=0.01,window=6"]
        .iter()
        .map(|s| s.parse().expect("valid spec"))
        .collect()
}

fn socket_config() -> DaemonConfig {
    let mut config =
        DaemonConfig::new(methods()).with_transport(TransportConfig::Socket(SocketOptions {
            worker_bin: Some(worker_bin()),
            connect_timeout: Duration::from_secs(30),
        }));
    config.heartbeat_timeout = Duration::from_millis(2000);
    config.checkpoint_every = 4;
    config.restart_backoff = Duration::from_millis(5);
    config
}

fn thread_config() -> DaemonConfig {
    let mut config = DaemonConfig::new(methods());
    config.heartbeat_timeout = Duration::from_millis(2000);
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

fn reference_ticks(feed: &ShardFeed, methods: &[Method]) -> Vec<StreamTick> {
    let mut engine =
        StreamEngine::for_dataset(&feed.dataset, methods, StreamMode::Warm).expect("engine");
    feed.dirty
        .iter()
        .map(|loads| engine.push_interval(loads.clone()).expect("tick"))
        .collect()
}

fn assert_bit_identical(report: &DaemonReport, shard: &str, reference: &[StreamTick]) {
    let shard_report = report.shard(shard).expect("shard exists");
    assert_eq!(shard_report.ticks.len(), reference.len());
    for (k, (got, want)) in shard_report.ticks.iter().zip(reference).enumerate() {
        let got = got.as_ref().unwrap_or_else(|| panic!("tick {k} lost"));
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
                        "shard {shard} tick {k} slot {slot}: socket daemon != reference"
                    );
                }
                (None, None) | (Some(Err(_)), Some(Err(_))) => {}
                _ => panic!("shard {shard} tick {k} slot {slot}: outcome shape differs"),
            }
        }
    }
}

/// A clean day over child processes equals the same day over threads,
/// bit for bit — serialization through the wire must not perturb a
/// single mantissa.
#[test]
fn clean_socket_day_is_bit_identical_to_thread_day() {
    let socket = Daemon::new(shards(), socket_config()).unwrap();
    let report = socket.run(0..8).unwrap();
    assert!(report.all_completed());
    assert_eq!(report.total_restarts(), 0);
    for shard in &report.shards {
        assert!(
            shard.transport_events.is_empty(),
            "clean run has no wire incidents: {:?}",
            shard.transport_events
        );
    }

    let feeds = build_feeds(&shards(), &thread_config(), 0..8).unwrap();
    for feed in &feeds {
        assert_bit_identical(&report, &feed.name, &reference_ticks(feed, &methods()));
    }
}

/// The full wire-fault taxonomy on one run: connection drops, black
/// holes, slow links, corrupt/truncated frames, duplicate delivery and
/// a kill -9. Zero lost intervals, bit-identical aggregates, and every
/// recovery surfaced as typed events.
#[test]
fn network_chaos_loses_no_intervals_and_stays_bit_identical() {
    let net_chaos = NetFaultPlan::none()
        .with(0, 1, NetFaultKind::DropConn)
        .with(0, 3, NetFaultKind::CorruptFrame)
        .with(0, 5, NetFaultKind::Kill9)
        .with(1, 2, NetFaultKind::BlackHole)
        .with(1, 4, NetFaultKind::TruncateFrame)
        .with(1, 6, NetFaultKind::DuplicateFrame)
        .with(1, 7, NetFaultKind::SlowLink);
    let daemon = Daemon::new(shards(), socket_config().with_net_chaos(net_chaos.clone())).unwrap();
    let report = daemon.run(0..10).unwrap();

    assert!(report.all_completed(), "no shard may be quarantined");
    for shard in &report.shards {
        assert_eq!(shard.lost_ticks(), 0, "{}: zero lost intervals", shard.name);
    }

    // kill9 consumes a supervised restart; the reconnect-class faults
    // must recover without touching the restart budget.
    assert_eq!(report.total_restarts(), net_chaos.restart_events());
    let east = report.shard("east").unwrap();
    assert_eq!(east.restarts.len(), 1);
    assert_eq!(east.restarts[0].tick, 5);

    // Each reconnect-class fault surfaces as (at least) an injection
    // event plus a reconnect event; resends follow each reconnect.
    let east_reconnects = east.reconnects();
    let west = report.shard("west").unwrap();
    assert!(
        east_reconnects >= 2,
        "east saw drop + corrupt: {:?}",
        east.transport_events
    );
    assert!(
        west.reconnects() >= 2,
        "west saw blackhole + truncate: {:?}",
        west.transport_events
    );
    let injected: usize = report
        .shards
        .iter()
        .flat_map(|s| &s.transport_events)
        .filter(|e| matches!(e.kind, TransportEventKind::FaultInjected { .. }))
        .count();
    assert_eq!(injected, net_chaos.events.len(), "every fault fired");
    let resends: usize = report
        .shards
        .iter()
        .flat_map(|s| &s.transport_events)
        .filter(|e| matches!(e.kind, TransportEventKind::Resend))
        .count();
    assert!(resends >= 4, "each reconnect resends the in-flight tick");

    // Telemetry counters reconcile with the event stream.
    let counters = report.telemetry.total_counters();
    assert_eq!(
        counters.reconnects as usize,
        east_reconnects + west.reconnects()
    );
    assert_eq!(counters.resent_frames as usize, resends);
    assert_eq!(counters.ticks, 20, "10 ticks x 2 shards, counted once each");

    // And the recovered aggregates are still bit-identical.
    let feeds = build_feeds(&shards(), &thread_config(), 0..10).unwrap();
    for feed in &feeds {
        assert_bit_identical(&report, &feed.name, &reference_ticks(feed, &methods()));
    }
}

/// Process chaos (supervisor kills) and network chaos compose with the
/// socket transport: both budgets are respected, nothing is lost.
#[test]
fn process_and_network_chaos_compose_over_sockets() {
    let chaos = ChaosPlan::none().with_kill(0, 4).with_delay(1, 2);
    let net_chaos = NetFaultPlan::none()
        .with(0, 6, NetFaultKind::DropConn)
        .with(1, 5, NetFaultKind::DuplicateFrame);
    let daemon = Daemon::new(
        shards(),
        socket_config()
            .with_chaos(chaos)
            .with_net_chaos(net_chaos.clone()),
    )
    .unwrap();
    let report = daemon.run(0..8).unwrap();

    assert!(report.all_completed());
    assert_eq!(report.unfired_chaos, 0);
    assert_eq!(
        report.total_restarts(),
        1 + net_chaos.restart_events(),
        "one supervisor kill, no net-fault restarts"
    );
    for shard in &report.shards {
        assert_eq!(shard.lost_ticks(), 0);
    }
    let feeds = build_feeds(&shards(), &thread_config(), 0..8).unwrap();
    for feed in &feeds {
        assert_bit_identical(&report, &feed.name, &reference_ticks(feed, &methods()));
    }
}

/// The query protocol surfaces wire incidents: `health` lists typed
/// transport events, `stats` carries the reconnect/resend counters.
#[test]
fn protocol_surfaces_reconnects_and_resends() {
    let net_chaos = NetFaultPlan::none().with(0, 2, NetFaultKind::DropConn);
    let daemon = Daemon::new(shards(), socket_config().with_net_chaos(net_chaos)).unwrap();
    let report = daemon.run(0..5).unwrap();
    assert!(report.all_completed());

    let health = handle_line_view(&report.live_view(), r#"{"cmd":"health","shard":"east"}"#);
    assert!(health.contains(r#""transport_events":["#), "{health}");
    assert!(health.contains("fault injected: drop"), "{health}");
    assert!(health.contains("reconnect"), "{health}");

    let stats = handle_line_view(&report.live_view(), r#"{"cmd":"stats"}"#);
    assert!(stats.contains(r#""reconnects":1"#), "{stats}");
    assert!(stats.contains(r#""resent_frames":1"#), "{stats}");

    let text = handle_line_view(&report.live_view(), r#"{"cmd":"stats","format":"text"}"#);
    assert!(text.contains("reconnects="), "{text}");
}

/// A worker binary that does not exist must fail the spawn with a typed
/// transport error before any tick is dispatched — not hang, not panic.
#[test]
fn missing_worker_binary_is_a_typed_spawn_error() {
    let mut config = socket_config();
    config.transport = TransportConfig::Socket(SocketOptions {
        worker_bin: Some("/nonexistent/tm_shard_worker".into()),
        connect_timeout: Duration::from_secs(2),
    });
    let daemon = Daemon::new(shards(), config).unwrap();
    let err = daemon.run(0..2).expect_err("spawn must fail");
    let msg = err.to_string();
    assert!(msg.contains("transport failure"), "{msg}");
}
