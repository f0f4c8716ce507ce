//! A sharded day through the supervised estimation daemon, driven from
//! the checked-in `configs/daemon_day.toml`: three regional shards,
//! each with its own warm [`StreamEngine`] worker fed from one shared
//! SNMP collection run, one worker killed mid-day by the chaos harness.
//!
//! The run goes through `Daemon::run_live`, so while the day streams a
//! "client" thread polls the [`LiveBus`] and answers `status` and
//! `estimate` queries from the in-flight view — the same answers, bit
//! for bit, that the finished report gives afterwards. The final
//! protocol session then exercises the full verb set, including the
//! telemetry `stats` summaries and a `whatif` link-load projection.
//!
//! ```sh
//! cargo run --release --example daemon_day
//! cargo run --release --example daemon_day -- path/to/other.toml
//! ```

use std::sync::Arc;
use std::time::Duration;

use backbone_tm::daemon::telemetry::LiveBus;
use backbone_tm::daemon::{handle_line_view, load_daemon_toml, Daemon};

fn main() {
    let config_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "configs/daemon_day.toml".to_string());
    let parsed =
        load_daemon_toml(&config_path).unwrap_or_else(|e| panic!("cannot load {config_path}: {e}"));
    let range = parsed.tick_range();
    let ticks = range.end;
    println!(
        "daemon_day: {} ({} shards x {ticks} ticks, {} methods, {} chaos events)",
        config_path,
        parsed.shards.len(),
        parsed.config.methods.len(),
        parsed.config.chaos.events.len()
    );

    let daemon = Daemon::new(parsed.shards, parsed.config).expect("valid roster");
    let bus = Arc::new(LiveBus::new());

    // The live client: follow the bus while the coordinator streams,
    // printing a status line every few published rounds — exactly what
    // `serve_live` would answer a TCP client mid-run.
    let bus_for_client = Arc::clone(&bus);
    let client = std::thread::spawn(move || {
        let mut seen = 0u64;
        let mut live_answers = 0usize;
        loop {
            let Some(view) = bus_for_client.wait_past(seen, Duration::from_secs(60)) else {
                return live_answers;
            };
            seen = view.epoch;
            if view.uptime_ticks % 12 == 0 || !view.running {
                let status = handle_line_view(&view, r#"{"cmd":"status"}"#);
                println!("  [epoch {:>3}] < {}", view.epoch, truncate(&status, 120));
            }
            live_answers += 1;
            if !view.running {
                return live_answers;
            }
        }
    });

    let report = daemon.run_live(range, &bus).expect("supervised run");
    let live_answers = client.join().expect("client thread");
    assert!(report.all_completed(), "the kill must not lose intervals");

    println!("\nsupervision summary ({live_answers} live views consumed)");
    for shard in &report.shards {
        println!(
            "  {:<6} {:?}: {} ticks, {} degraded, {} restarts, last checkpoint {:?}",
            shard.name,
            shard.state,
            shard.completed_ticks(),
            shard.degraded_ticks(),
            shard.restarts.len(),
            shard.last_checkpoint,
        );
        for restart in &shard.restarts {
            println!(
                "         restart at tick {} (epoch {}): {}; resumed from {:?}, replayed {}",
                restart.tick,
                restart.epoch,
                restart.cause,
                restart.from_checkpoint,
                restart.replayed
            );
        }
    }

    println!("\nprotocol session (one JSON line per request/response)");
    let view = report.live_view();
    for request in [
        r#"{"cmd":"status"}"#.to_string(),
        r#"{"cmd":"health","shard":"south"}"#.to_string(),
        format!(
            r#"{{"cmd":"estimate","shard":"south","tick":{},"method":"gravity","format":"text"}}"#,
            ticks / 2
        ),
        r#"{"cmd":"stats","shard":"south"}"#.to_string(),
        r#"{"cmd":"whatif","shard":"south","method":"gravity","scale":1.3}"#.to_string(),
    ] {
        println!("  > {request}");
        let response = handle_line_view(&view, &request);
        println!("  < {}", truncate(&response, 160));
    }

    // The merged solve-wall histograms, as `stats format=text` shows
    // (the response is one JSON line; its `text` payload escapes
    // newlines, so split on the escape for display).
    println!();
    let text = handle_line_view(&view, r#"{"cmd":"stats","format":"text"}"#);
    if let Some(start) = text.find("global solve walls") {
        for line in text[start..].split("\\n").take(1 + report.labels.len()) {
            println!("  {line}");
        }
    }
}

fn truncate(s: &str, limit: usize) -> String {
    if s.len() <= limit {
        return s.to_string();
    }
    let mut end = limit;
    while !s.is_char_boundary(end) {
        end -= 1;
    }
    format!("{}…", &s[..end])
}
