//! The daemon's query protocol: one JSON object per line in, one JSON
//! object per line out.
//!
//! Grammar (see `docs/DAEMON.md` and `docs/OBSERVABILITY.md` for the
//! full reference):
//!
//! ```text
//! request  = status | health | estimate | stats | whatif | shutdown
//! status   = {"cmd":"status"}
//! health   = {"cmd":"health"} | {"cmd":"health","shard":NAME}
//! estimate = {"cmd":"estimate","shard":NAME,"tick":K,"method":LABEL
//!             [,"format":"json"|"csv"|"text"]}
//! stats    = {"cmd":"stats"[,"shard":NAME][,"format":"json"|"text"]}
//! whatif   = {"cmd":"whatif","shard":NAME,"method":LABEL[,"tick":K]
//!             [,"scale":S][,"deltas":[{"pair":P,"mbps":D},...]]}
//! shutdown = {"cmd":"shutdown"}            (serve loop only)
//! ```
//!
//! Every response is an object with an `"ok"` boolean; failures carry
//! an `"error"` string and never kill the connection.
//!
//! Every verb is answered against a [`LiveView`] — the epoch-versioned
//! cut the coordinator publishes after each lockstep round.
//! [`handle_line_view`] is the pure request→response function over a
//! view. A finished run answers from its final view,
//! [`crate::DaemonReport::live_view`], so mid-run and post-run answers
//! share one code path and are bit-identical for any completed tick.
//! [`serve_live`] wraps the handler in a blocking single-threaded TCP
//! accept loop over a [`LiveBus`] (the daemon's query load is one
//! operator, not a fleet); to serve a finished run, publish its final
//! view on a bus first.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpListener;

use serde::Value;
use tm_core::stream::StreamMode;

use crate::telemetry::{
    HistogramSummary, LiveBus, LivePhase, LiveShard, LiveView, ShardTelemetry, TelemetryCounters,
};

/// The verbs [`handle_line_view`] understands, quoted by unknown-verb
/// errors so a confused client learns the menu.
const SUPPORTED_CMDS: &str = "status, health, estimate, stats, whatif, shutdown";

/// Build a JSON object value.
fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Map(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// Shorthand for a string value.
fn s(text: impl Into<String>) -> Value {
    Value::Str(text.into())
}

/// Shorthand for an integer value.
fn n(value: usize) -> Value {
    Value::I64(value as i64)
}

/// Shorthand for a u64 counter value.
fn u(value: u64) -> Value {
    Value::U64(value)
}

fn error(message: impl Into<String>) -> Value {
    obj(vec![("ok", Value::Bool(false)), ("error", s(message))])
}

fn str_field<'a>(request: &'a Value, name: &str) -> Option<&'a str> {
    match request.field(name) {
        Ok(Value::Str(text)) => Some(text),
        _ => None,
    }
}

fn usize_field(request: &Value, name: &str) -> Option<usize> {
    match request.field(name) {
        Ok(Value::I64(i)) if *i >= 0 => Some(*i as usize),
        Ok(Value::U64(u)) => usize::try_from(*u).ok(),
        _ => None,
    }
}

fn f64_field(request: &Value, name: &str) -> Option<f64> {
    match request.field(name) {
        Ok(Value::F64(x)) => Some(*x),
        Ok(Value::I64(x)) => Some(*x as f64),
        Ok(Value::U64(x)) => Some(*x as f64),
        _ => None,
    }
}

fn phase_value(phase: &LivePhase) -> Value {
    match phase {
        LivePhase::Running => s("running"),
        LivePhase::Completed => s("completed"),
        LivePhase::Quarantined { at_tick } => s(format!("quarantined@{at_tick}")),
    }
}

fn mode_str(mode: StreamMode) -> &'static str {
    match mode {
        StreamMode::Cold => "cold",
        StreamMode::Warm => "warm",
    }
}

/// Answer one request line against a (live or final) view. Always
/// returns a single JSON line; malformed input yields an `"ok":false`
/// response rather than an error. A finished run answers through
/// `handle_line_view(&report.live_view(), line)`.
pub fn handle_line_view(view: &LiveView, line: &str) -> String {
    answer(view, line).0
}

/// Answer one request line from one parse: the response line, and
/// whether the request was `shutdown`.
fn answer(view: &LiveView, line: &str) -> (String, bool) {
    let (response, shutdown) = match serde_json::from_str::<Value>(line.trim()) {
        Err(e) => (error(format!("bad request: {e}")), false),
        Ok(request) => match str_field(&request, "cmd") {
            Some("shutdown") => (
                obj(vec![("ok", Value::Bool(true)), ("bye", Value::Bool(true))]),
                true,
            ),
            cmd => (respond(view, cmd, &request), false),
        },
    };
    let line = serde_json::to_string(&response).expect("response serialization is infallible");
    (line, shutdown)
}

fn respond(view: &LiveView, cmd: Option<&str>, request: &Value) -> Value {
    match cmd {
        Some("status") => status(view),
        Some("health") => health(view, str_field(request, "shard")),
        Some("estimate") => estimate(view, request),
        Some("stats") => stats(view, request),
        Some("whatif") => whatif(view, request),
        Some(other) => error(format!(
            "unknown cmd `{other}` (supported: {SUPPORTED_CMDS})"
        )),
        None => error(format!(
            "missing string field `cmd` (supported: {SUPPORTED_CMDS})"
        )),
    }
}

fn status(view: &LiveView) -> Value {
    let shards: Vec<Value> = view
        .shards
        .iter()
        .map(|shard| {
            obj(vec![
                ("name", s(&shard.name)),
                ("state", phase_value(&shard.phase)),
                ("completed_ticks", n(shard.completed_ticks())),
                ("lost_ticks", n(shard.ticks.len() - shard.completed_ticks())),
                ("degraded_ticks", n(shard.degraded_ticks())),
                ("restarts", n(shard.restarts.len())),
                (
                    "progress",
                    obj(vec![
                        ("done", n(shard.completed_ticks())),
                        ("total", n(shard.ticks.len())),
                    ]),
                ),
            ])
        })
        .collect();
    obj(vec![
        ("ok", Value::Bool(true)),
        ("ticks", n(view.ticks)),
        ("labels", Value::Seq(view.labels.iter().map(s).collect())),
        ("total_restarts", n(view.total_restarts())),
        ("shards", Value::Seq(shards)),
        ("uptime_ticks", n(view.uptime_ticks)),
        (
            "mode",
            s(if view.running {
                format!("streaming-{}", mode_str(view.mode))
            } else {
                format!("finished-{}", mode_str(view.mode))
            }),
        ),
        ("epoch", u(view.epoch)),
    ])
}

fn shard_health(shard: &LiveShard) -> Value {
    let restarts: Vec<Value> = shard
        .restarts
        .iter()
        .map(|r| {
            obj(vec![
                ("tick", n(r.tick)),
                ("epoch", n(r.epoch)),
                ("cause", s(r.cause.to_string())),
                ("from_checkpoint", r.from_checkpoint.map_or(Value::Null, n)),
                ("replayed", n(r.replayed)),
            ])
        })
        .collect();
    let degraded: Vec<Value> = shard
        .ticks
        .iter()
        .flatten()
        .filter_map(|t| t.degradation.as_ref())
        .map(|d| {
            obj(vec![
                ("tick", n(d.interval)),
                ("masked_rows", n(d.masked_rows.len())),
                ("imputed_rows", n(d.imputed_rows.len())),
                ("conservation_ok", Value::Bool(d.conservation_ok)),
            ])
        })
        .collect();
    let transport: Vec<Value> = shard
        .transport_events
        .iter()
        .map(|e| {
            obj(vec![
                ("tick", n(e.tick)),
                ("epoch", n(e.epoch)),
                ("event", s(e.kind.to_string())),
            ])
        })
        .collect();
    obj(vec![
        ("name", s(&shard.name)),
        ("state", phase_value(&shard.phase)),
        ("restarts", Value::Seq(restarts)),
        (
            "last_checkpoint",
            shard.last_checkpoint.map_or(Value::Null, n),
        ),
        ("lost_polls", n(shard.lost_polls)),
        ("degraded", Value::Seq(degraded)),
        ("transport_events", Value::Seq(transport)),
    ])
}

fn health(view: &LiveView, shard: Option<&str>) -> Value {
    match shard {
        Some(name) => match view.shard(name) {
            Some(found) => {
                let mut fields = vec![("ok".to_string(), Value::Bool(true))];
                if let Value::Map(inner) = shard_health(found) {
                    fields.extend(inner);
                }
                Value::Map(fields)
            }
            None => error(format!("unknown shard `{name}`")),
        },
        None => obj(vec![
            ("ok", Value::Bool(true)),
            ("total_restarts", n(view.total_restarts())),
            ("unfired_chaos", n(view.unfired_chaos)),
            (
                "shards",
                Value::Seq(view.shards.iter().map(shard_health).collect()),
            ),
        ]),
    }
}

fn estimate(view: &LiveView, request: &Value) -> Value {
    let Some(shard_name) = str_field(request, "shard") else {
        return error("estimate requires a string `shard`");
    };
    let Some(tick) = usize_field(request, "tick") else {
        return error("estimate requires a non-negative integer `tick`");
    };
    let Some(method) = str_field(request, "method") else {
        return error("estimate requires a string `method`");
    };
    let format = str_field(request, "format").unwrap_or("json");
    let Some(shard) = view.shard(shard_name) else {
        return error(format!("unknown shard `{shard_name}`"));
    };
    let Some(slot) = view.labels.iter().position(|l| l == method) else {
        return error(format!("unknown method `{method}`"));
    };
    if tick >= shard.ticks.len() {
        return error(format!(
            "tick {tick} out of range (day has {} ticks)",
            shard.ticks.len()
        ));
    }
    let Some(stream_tick) = &shard.ticks[tick] else {
        let verdict = if matches!(shard.phase, LivePhase::Running) {
            "not delivered yet"
        } else {
            "was lost to quarantine"
        };
        return error(format!("tick {tick} {verdict} on shard `{shard_name}`"));
    };
    let demands = match &stream_tick.estimates[slot] {
        Some(Ok(estimate)) => &estimate.demands,
        Some(Err(e)) => return error(format!("method `{method}` failed at tick {tick}: {e}")),
        None => {
            return error(format!(
                "method `{method}` produced no estimate at tick {tick}"
            ))
        }
    };
    let header = vec![
        ("ok", Value::Bool(true)),
        ("shard", s(shard_name)),
        ("tick", n(tick)),
        ("method", s(method)),
        ("pairs", n(demands.len())),
        ("total_mbps", Value::F64(demands.iter().sum::<f64>())),
    ];
    match format {
        "json" => {
            let mut fields = header;
            fields.push((
                "demands",
                Value::Seq(demands.iter().map(|&d| Value::F64(d)).collect()),
            ));
            obj(fields)
        }
        "csv" => {
            let mut csv = String::from("pair,mbps\n");
            for (p, d) in demands.iter().enumerate() {
                csv.push_str(&format!("{p},{d}\n"));
            }
            let mut fields = header;
            fields.push(("csv", s(csv)));
            obj(fields)
        }
        "text" => {
            let total: f64 = demands.iter().sum();
            let mut top: Vec<(usize, f64)> = demands.iter().copied().enumerate().collect();
            top.sort_by(|a, b| b.1.total_cmp(&a.1));
            let mut text = format!(
                "{method} @ shard {shard_name} tick {tick}: {} pairs, {total:.1} Mbps total\n",
                demands.len()
            );
            for (p, d) in top.into_iter().take(5) {
                text.push_str(&format!("  pair {p:>4}  {d:>12.2} Mbps\n"));
            }
            let mut fields = header;
            fields.push(("text", s(text)));
            obj(fields)
        }
        other => error(format!(
            "unknown format `{other}` (expected json, csv or text)"
        )),
    }
}

/// One histogram summary as a JSON object (durations in nanoseconds;
/// `max`/`mean` exact, quantiles within the bucket layout's ≤ 3.125%
/// relative error — see `docs/OBSERVABILITY.md`).
fn summary_value(summary: &HistogramSummary) -> Value {
    obj(vec![
        ("count", u(summary.count)),
        ("p50_ns", u(summary.p50_ns)),
        ("p90_ns", u(summary.p90_ns)),
        ("p99_ns", u(summary.p99_ns)),
        ("max_ns", u(summary.max_ns)),
        ("mean_ns", Value::F64(summary.mean_ns)),
    ])
}

fn counters_value(counters: &TelemetryCounters) -> Value {
    obj(vec![
        ("ticks", u(counters.ticks)),
        ("degraded_ticks", u(counters.degraded_ticks)),
        ("imputed_rows", u(counters.imputed_rows)),
        ("masked_rows", u(counters.masked_rows)),
        ("restarts", u(counters.restarts)),
        ("checkpoints", u(counters.checkpoints)),
        ("reconnects", u(counters.reconnects)),
        ("resent_frames", u(counters.resent_frames)),
    ])
}

fn shard_stats_value(shard: &ShardTelemetry) -> Value {
    let solve: Vec<Value> = shard
        .solve
        .iter()
        .map(|(label, hist)| {
            let mut fields = vec![("method".to_string(), s(label))];
            if let Value::Map(inner) = summary_value(&hist.summary()) {
                fields.extend(inner);
            }
            Value::Map(fields)
        })
        .collect();
    obj(vec![
        ("name", s(&shard.name)),
        ("counters", counters_value(&shard.counters)),
        ("queue_delay", summary_value(&shard.queue_delay.summary())),
        ("checkpoint", summary_value(&shard.checkpoint.summary())),
        ("solve", Value::Seq(solve)),
    ])
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

fn stats_text(view: &LiveView, shards: &[&ShardTelemetry]) -> String {
    let mut text = format!(
        "telemetry @ epoch {} ({}/{} rounds)\n",
        view.epoch, view.uptime_ticks, view.ticks
    );
    text.push_str("global solve walls:\n");
    for (label, hist) in view.telemetry.merged_solve() {
        let sm = hist.summary();
        text.push_str(&format!(
            "  {label:<22} n={:<6} p50 {:>9.3} ms  p90 {:>9.3} ms  p99 {:>9.3} ms  max {:>9.3} ms\n",
            sm.count,
            ms(sm.p50_ns),
            ms(sm.p90_ns),
            ms(sm.p99_ns),
            ms(sm.max_ns),
        ));
    }
    for shard in shards {
        let c = &shard.counters;
        text.push_str(&format!(
            "shard {}: ticks={} degraded={} imputed={} masked={} restarts={} checkpoints={} \
             reconnects={} resent={}\n",
            shard.name,
            c.ticks,
            c.degraded_ticks,
            c.imputed_rows,
            c.masked_rows,
            c.restarts,
            c.checkpoints,
            c.reconnects,
            c.resent_frames,
        ));
        let qd = shard.queue_delay.summary();
        let ck = shard.checkpoint.summary();
        text.push_str(&format!(
            "  queue delay: n={} p50 {:.3} ms p99 {:.3} ms max {:.3} ms\n",
            qd.count,
            ms(qd.p50_ns),
            ms(qd.p99_ns),
            ms(qd.max_ns)
        ));
        text.push_str(&format!(
            "  checkpoint:  n={} p50 {:.3} ms p99 {:.3} ms max {:.3} ms\n",
            ck.count,
            ms(ck.p50_ns),
            ms(ck.p99_ns),
            ms(ck.max_ns)
        ));
    }
    text
}

fn stats(view: &LiveView, request: &Value) -> Value {
    let shards: Vec<&ShardTelemetry> = match str_field(request, "shard") {
        Some(name) => match view.telemetry.shard(name) {
            Some(found) => vec![found],
            None => return error(format!("unknown shard `{name}`")),
        },
        None => view.telemetry.shards.iter().collect(),
    };
    let format = str_field(request, "format").unwrap_or("json");
    let header = vec![
        ("ok", Value::Bool(true)),
        ("epoch", u(view.epoch)),
        ("uptime_ticks", n(view.uptime_ticks)),
        ("counters", counters_value(&view.telemetry.total_counters())),
    ];
    match format {
        "json" => {
            let global: Vec<Value> = view
                .telemetry
                .merged_solve()
                .iter()
                .map(|(label, hist)| {
                    let mut fields = vec![("method".to_string(), s(label))];
                    if let Value::Map(inner) = summary_value(&hist.summary()) {
                        fields.extend(inner);
                    }
                    Value::Map(fields)
                })
                .collect();
            let mut fields = header;
            fields.push(("solve", Value::Seq(global)));
            fields.push((
                "shards",
                Value::Seq(shards.iter().map(|t| shard_stats_value(t)).collect()),
            ));
            obj(fields)
        }
        "text" => {
            let mut fields = header;
            fields.push(("text", s(stats_text(view, &shards))));
            obj(fields)
        }
        other => error(format!("unknown format `{other}` (expected json or text)")),
    }
}

/// `whatif`: project interior link loads under a modified demand vector
/// — a pure read over the shard's routing and one completed estimate;
/// no solver state is touched.
fn whatif(view: &LiveView, request: &Value) -> Value {
    let Some(shard_name) = str_field(request, "shard") else {
        return error("whatif requires a string `shard`");
    };
    let Some(method) = str_field(request, "method") else {
        return error("whatif requires a string `method`");
    };
    let Some(shard) = view.shard(shard_name) else {
        return error(format!("unknown shard `{shard_name}`"));
    };
    let Some(slot) = view.labels.iter().position(|l| l == method) else {
        return error(format!("unknown method `{method}`"));
    };
    let tick = match usize_field(request, "tick") {
        Some(t) => t,
        None => match shard.latest_tick() {
            Some(t) => t,
            None => return error(format!("shard `{shard_name}` has no completed tick yet")),
        },
    };
    if tick >= shard.ticks.len() {
        return error(format!(
            "tick {tick} out of range (day has {} ticks)",
            shard.ticks.len()
        ));
    }
    let Some(stream_tick) = &shard.ticks[tick] else {
        return error(format!("tick {tick} has no result on shard `{shard_name}`"));
    };
    let demands = match &stream_tick.estimates[slot] {
        Some(Ok(estimate)) => &estimate.demands,
        Some(Err(e)) => return error(format!("method `{method}` failed at tick {tick}: {e}")),
        None => {
            return error(format!(
                "method `{method}` produced no estimate at tick {tick}"
            ))
        }
    };
    let scale = f64_field(request, "scale").unwrap_or(1.0);
    if !scale.is_finite() || scale < 0.0 {
        return error("`scale` must be a finite non-negative number");
    }

    // Apply the scenario: uniform scaling, then per-pair deltas
    // (clamped at zero — demands are volumes, not balances).
    let mut scenario: Vec<f64> = demands.iter().map(|d| d * scale).collect();
    let mut deltas_applied = 0usize;
    if let Ok(deltas) = request.field("deltas") {
        let Some(items) = deltas.as_seq() else {
            return error("`deltas` must be an array of {pair, mbps} objects");
        };
        for item in items {
            let Some(pair) = usize_field(item, "pair") else {
                return error("each delta needs a non-negative integer `pair`");
            };
            let Some(mbps) = f64_field(item, "mbps") else {
                return error("each delta needs a numeric `mbps`");
            };
            // The JSON reader parses an out-of-range literal such as
            // `1e400` as an infinity.
            if !mbps.is_finite() {
                return error(format!("delta on pair {pair}: `mbps` must be finite"));
            }
            if pair >= scenario.len() {
                return error(format!(
                    "delta pair {pair} out of range ({} pairs)",
                    scenario.len()
                ));
            }
            let demand = scenario[pair] + mbps;
            if !demand.is_finite() {
                return error(format!(
                    "delta on pair {pair}: the resulting demand is not finite"
                ));
            }
            scenario[pair] = demand.max(0.0);
            deltas_applied += 1;
        }
    }
    // Finite demands can still overflow when scaled or summed.
    let total_after: f64 = scenario.iter().sum();
    if !total_after.is_finite() {
        return error("the scenario's total demand is not finite");
    }

    let routing = &shard.dataset.routing;
    let (before, after) = match (
        routing.interior_loads(demands),
        routing.interior_loads(&scenario),
    ) {
        (Ok(b), Ok(a)) => (b, a),
        (Err(e), _) | (_, Err(e)) => return error(format!("projection failed: {e}")),
    };
    let links = shard.dataset.topology.links();

    // Rank links by projected utilization (load where capacity is
    // unknown), report the top 5.
    let mut ranked: Vec<usize> = (0..after.len()).collect();
    let util = |loads: &[f64], l: usize| -> Option<f64> {
        links
            .get(l)
            .filter(|link| link.capacity_mbps > 0.0)
            .map(|link| loads[l] / link.capacity_mbps)
    };
    ranked.sort_by(|&a, &b| {
        let ka = util(&after, a).unwrap_or(after[a]);
        let kb = util(&after, b).unwrap_or(after[b]);
        kb.total_cmp(&ka)
    });
    let top: Vec<Value> = ranked
        .iter()
        .take(5)
        .map(|&l| {
            let mut fields = vec![
                ("link", n(l)),
                ("before_mbps", Value::F64(before[l])),
                ("after_mbps", Value::F64(after[l])),
            ];
            if let Some(link) = links.get(l) {
                fields.push(("capacity_mbps", Value::F64(link.capacity_mbps)));
            }
            if let Some(u) = util(&after, l) {
                fields.push(("util_after", Value::F64(u)));
            }
            obj(fields)
        })
        .collect();
    let max_util_after =
        (0..after.len())
            .filter_map(|l| util(&after, l))
            .fold(None::<f64>, |acc, u| match acc {
                Some(m) => Some(m.max(u)),
                None => Some(u),
            });
    let overloaded = (0..after.len())
        .filter(|&l| util(&after, l).is_some_and(|u| u > 1.0))
        .count();

    let mut fields = vec![
        ("ok", Value::Bool(true)),
        ("shard", s(shard_name)),
        ("method", s(method)),
        ("tick", n(tick)),
        ("scale", Value::F64(scale)),
        ("deltas_applied", n(deltas_applied)),
        ("pairs", n(scenario.len())),
        ("total_mbps_before", Value::F64(demands.iter().sum())),
        ("total_mbps_after", Value::F64(total_after)),
        (
            "max_link_mbps_before",
            Value::F64(before.iter().copied().fold(0.0, f64::max)),
        ),
        (
            "max_link_mbps_after",
            Value::F64(after.iter().copied().fold(0.0, f64::max)),
        ),
        ("links", n(after.len())),
        ("overloaded_links", n(overloaded)),
        ("top", Value::Seq(top)),
    ];
    if let Some(u) = max_util_after {
        fields.push(("max_util_after", Value::F64(u)));
    }
    obj(fields)
}

/// How long an accepted client may sit silent between request lines
/// before the serve loop drops it and moves on to the next connection.
/// One stuck (or merely connected-and-idle) client must never wedge the
/// single-threaded accept loop forever.
pub const CLIENT_READ_DEADLINE: std::time::Duration = std::time::Duration::from_secs(30);

/// Serve [`handle_line_view`] over a TCP listener, one client at a
/// time, until a client sends `{"cmd":"shutdown"}`: every request is
/// answered from the newest view published on `bus`, so answers advance
/// as the coordinator streams the day. Connection drops move on to the
/// next client; the listener itself erroring ends the loop. A client
/// that stays silent for [`CLIENT_READ_DEADLINE`] is dropped.
pub fn serve_live(bus: &LiveBus, listener: TcpListener) -> std::io::Result<()> {
    serve_live_deadline(bus, listener, CLIENT_READ_DEADLINE)
}

/// [`serve_live`] with an explicit per-connection read deadline.
pub fn serve_live_deadline(
    bus: &LiveBus,
    listener: TcpListener,
    read_deadline: std::time::Duration,
) -> std::io::Result<()> {
    for stream in listener.incoming() {
        let stream = stream?;
        // A read deadline, not a slice: `read_line` blocks until a full
        // line, the timeout, or EOF — whichever comes first. A silent
        // client therefore costs at most one deadline, then the loop
        // accepts the next connection.
        stream.set_read_timeout(Some(read_deadline.max(std::time::Duration::from_millis(1))))?;
        // Each answer leaves as one segment, at once: with Nagle's
        // algorithm on, a client's next request would wait on this
        // one's delayed ACK.
        stream.set_nodelay(true)?;
        let mut reader = BufReader::new(stream.try_clone()?);
        let mut writer = stream;
        let mut line = String::new();
        loop {
            line.clear();
            match reader.read_line(&mut line) {
                Ok(0) | Err(_) => break, // client went away or went silent
                Ok(_) => {}
            }
            if line.trim().is_empty() {
                continue;
            }
            let (mut response, shutdown) = answer(&bus.load(), &line);
            response.push('\n');
            if writer.write_all(response.as_bytes()).is_err() {
                break;
            }
            if shutdown {
                return Ok(());
            }
        }
    }
    Ok(())
}
