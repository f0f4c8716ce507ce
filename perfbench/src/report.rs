//! What a run reports: end-to-end metrics from untraced days, or the
//! per-layer metrics of a traced day, and the one-line JSON result.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use tm_core::stream::{DegradationAction, StreamTick};
use tm_core::Method;
use tm_daemon::LiveView;

use crate::common::{self, kind};
use crate::query::{QueryLog, VERBS};
use crate::stats::{median, percentile, percentile_allowed, valid_metric_name, Tally};
use crate::trace::Trace;

/// End-to-end metrics, in `BENCHMARK.json` order, with their units.
/// The query p95 is printed but not among them: while the server's
/// responses wait on Nagle (see the README), that tail follows the
/// client's own scheduling, and it varied by up to 37% between runs.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("ticks_per_s", "1/s"),
    ("tick_p50_ms", "ms"),
    ("tick_p95_ms", "ms"),
    ("query_p50_ms", "ms"),
    ("mre_mean", "1"),
    ("peak_rss_mb", "MB"),
];

/// Every per-layer metric with its unit, in `BENCHMARK.json` order.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = [
        ("calib.kernel_ms", "ms"),
        ("trace.wall_ms", "ms"),
        ("trace.overhead_pct", "%"),
        ("trace.clipped_ms", "ms"),
        ("trace.spans", "count"),
        ("unattributed_ms", "ms"),
        ("collect.busy_ms", "ms"),
        ("collect.polls", "count"),
        ("collect.lost_polls", "count"),
        ("engine.self_ms", "ms"),
        ("engine.degraded_ticks", "count"),
        ("engine.imputed_rows", "count"),
        ("engine.masked_rows", "count"),
        ("engine.fallbacks", "count"),
    ]
    .iter()
    .map(|&(n, u)| (n.to_string(), u))
    .collect();
    let kinds: Vec<&str> = Method::all_defaults().iter().map(kind).collect();
    for k in &kinds {
        out.push((format!("solve.{k}.busy_ms"), "ms"));
        out.push((format!("solve.{k}.p50_ms"), "ms"));
        out.push((format!("solve.{k}.p95_ms"), "ms"));
    }
    for k in &kinds {
        out.push((format!("mre.{k}"), "1"));
    }
    for (n, u) in [
        ("checkpoint.busy_ms", "ms"),
        ("checkpoint.bytes", "bytes"),
        ("restore.busy_ms", "ms"),
        ("wire.tick_bytes", "bytes"),
        ("wire.done_bytes", "bytes"),
        ("wire.checkpoint_bytes", "bytes"),
        ("wire.encode_ms", "ms"),
        ("wire.decode_ms", "ms"),
        ("transport.spawn_ms", "ms"),
        ("transport.wait_ms", "ms"),
        ("transport.round_p95_ms", "ms"),
        ("live.self_ms", "ms"),
        ("live.publish_us", "us"),
    ] {
        out.push((n.to_string(), u));
    }
    for v in VERBS {
        out.push((format!("protocol.{v}.p50_us"), "us"));
    }
    out.push(("client.lag_ms".to_string(), "ms"));
    out
}

/// Which metric a span's self time belongs to. Every span of a trace
/// maps to exactly one, so these metrics sum to the root's wall time.
fn self_time_metric(span: &str) -> String {
    match span {
        "day" | "run_live" => "unattributed_ms".into(),
        "engine" => "engine.self_ms".into(),
        "live" => "live.self_ms".into(),
        "collect" => "collect.busy_ms".into(),
        "checkpoint" => "checkpoint.busy_ms".into(),
        "wire.encode" => "wire.encode_ms".into(),
        "wire.decode" => "wire.decode_ms".into(),
        "spawn" => "transport.spawn_ms".into(),
        "round" | "drain" => "transport.wait_ms".into(),
        solve => format!("{solve}.busy_ms"),
    }
}

/// The per-layer metrics of one traced day. Layers a workload does
/// not have read 0.
pub struct Layers {
    values: BTreeMap<String, f64>,
}

impl Layers {
    pub fn new(trace: &Trace) -> Self {
        let mut values: BTreeMap<String, f64> =
            per_layer().into_iter().map(|(n, _)| (n, 0.0)).collect();
        for (span, own_ms) in trace.self_ms_by_name() {
            *values
                .get_mut(&self_time_metric(&span))
                .unwrap_or_else(|| panic!("span `{span}` maps to no metric")) += own_ms;
        }
        Layers { values }
    }

    pub fn set(&mut self, name: &str, value: f64) {
        let slot = self
            .values
            .get_mut(name)
            .unwrap_or_else(|| panic!("`{name}` is not a per-layer metric"));
        *slot = value;
    }

    pub fn get(&self, name: &str) -> f64 {
        self.values[name]
    }

    /// Degradation-ladder counters of the traced day.
    pub fn engine_counters(&mut self, ticks: &[Arc<StreamTick>]) {
        let degraded: Vec<_> = ticks
            .iter()
            .filter_map(|t| t.degradation.as_ref())
            .collect();
        self.set("engine.degraded_ticks", degraded.len() as f64);
        self.set(
            "engine.imputed_rows",
            degraded.iter().map(|d| d.imputed_rows.len()).sum::<usize>() as f64,
        );
        self.set(
            "engine.masked_rows",
            degraded.iter().map(|d| d.masked_rows.len()).sum::<usize>() as f64,
        );
        let fallbacks = degraded
            .iter()
            .flat_map(|d| &d.methods)
            .filter(|m| {
                matches!(
                    m.action,
                    DegradationAction::FallbackLastGood | DegradationAction::PanicCaught { .. }
                )
            })
            .count();
        self.set("engine.fallbacks", fallbacks as f64);
    }

    /// Per-method solve percentiles over every (shard, tick) sample.
    pub fn solve<'a>(&mut self, methods: &[Method], solve_ns: impl Iterator<Item = &'a [u64]>) {
        let mut samples: Vec<Vec<f64>> = vec![Vec::new(); methods.len()];
        for tick in solve_ns {
            for (s, &ns) in samples.iter_mut().zip(tick) {
                s.push(ns as f64 / 1e6);
            }
        }
        for (m, s) in methods.iter().zip(&samples) {
            let k = kind(m);
            self.set(
                &format!("solve.{k}.p50_ms"),
                percentile(s, 50.0).unwrap_or(f64::NAN),
            );
            self.set(
                &format!("solve.{k}.p95_ms"),
                percentile(s, 95.0).unwrap_or(f64::NAN),
            );
        }
    }

    pub fn mre(&mut self, kinds: &[&str], mre: &[f64]) {
        for (k, m) in kinds.iter().zip(mre) {
            self.set(&format!("mre.{k}"), *m);
        }
    }

    /// Per-verb handler cost on a captured view, and the client's lag.
    pub fn protocol(&mut self, view: &LiveView, queries: &QueryLog) {
        for (verb, line) in VERBS.iter().zip(verb_requests(view)) {
            let samples: Vec<f64> = (0..101)
                .map(|_| {
                    let start = Instant::now();
                    std::hint::black_box(tm_daemon::handle_line_view(view, &line));
                    start.elapsed().as_secs_f64() * 1e6
                })
                .collect();
            self.set(&format!("protocol.{verb}.p50_us"), median(&samples));
        }
        let lag = &queries.lag_ms;
        let p = if percentile_allowed(lag.len(), 95.0) {
            95.0
        } else {
            50.0
        };
        self.set("client.lag_ms", percentile(lag, p).unwrap_or(f64::NAN));
    }

    /// Close the books: wall, overhead against the untraced median, and
    /// the reconciliation of self times with the wall.
    pub fn finish(&mut self, trace: &Trace, untraced_wall_s: f64) -> Result<(), String> {
        let root = &trace.spans()[0];
        let wall_ms = (root.end_ns - root.start_ns) as f64 / 1e6;
        self.set("trace.wall_ms", wall_ms);
        self.set("trace.spans", trace.spans().len() as f64);
        self.set("trace.clipped_ms", trace.clipped_ns() as f64 / 1e6);
        self.set(
            "trace.overhead_pct",
            (wall_ms / (untraced_wall_s * 1e3) - 1.0) * 100.0,
        );
        let attributed: f64 = trace
            .self_ms_by_name()
            .keys()
            .map(|span| self_time_metric(span))
            .collect::<std::collections::BTreeSet<_>>()
            .iter()
            .map(|m| self.values[m])
            .sum();
        if (attributed - wall_ms).abs() > 1e-6 * wall_ms.max(1.0) {
            return Err(format!(
                "layer self times sum to {attributed} ms, not the traced wall {wall_ms} ms"
            ));
        }
        Ok(())
    }
}

/// One representative request per verb against a captured view.
fn verb_requests(view: &LiveView) -> Vec<String> {
    let target = view.shards.first().and_then(|shard| {
        let tick = shard.latest_tick()?;
        let done = shard.ticks[tick].as_ref()?;
        let slot = done
            .estimates
            .iter()
            .position(|e| matches!(e, Some(Ok(_))))?;
        Some((shard.name.clone(), tick, view.labels[slot].clone()))
    });
    let (shard, tick, method) = target.unwrap_or_default();
    vec![
        r#"{"cmd":"status"}"#.to_string(),
        r#"{"cmd":"stats"}"#.to_string(),
        format!(r#"{{"cmd":"estimate","shard":"{shard}","tick":{tick},"method":"{method}"}}"#),
        format!(
            r#"{{"cmd":"whatif","shard":"{shard}","method":"{method}","tick":{tick},"scale":1.1}}"#
        ),
    ]
}

/// Everything one invocation found.
pub struct Run {
    pub workload: String,
    pub seed: u64,
    pub tally: Tally,
    pub problems: Vec<String>,
    pub notes: Vec<String>,
    pub end_to_end: Vec<(&'static str, f64)>,
    pub layers: Option<Layers>,
    pub print_reference: bool,
}

impl Run {
    pub fn new(workload: &str, seed: u64) -> Self {
        Run {
            workload: workload.to_string(),
            seed,
            tally: Tally::default(),
            problems: Vec::new(),
            notes: Vec::new(),
            end_to_end: Vec::new(),
            layers: None,
            print_reference: std::env::var_os("PERFBENCH_PRINT_REFERENCE").is_some(),
        }
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Fill the end-to-end metrics from the untraced days, each given
    /// as its throughput and its tick latencies, and each day's peak
    /// RSS. Throughput, tick percentiles and peak RSS are medians over
    /// days, so one day slowed by something outside the program moves
    /// them less. With `speed` (the run's probe time over the reference
    /// probe time), throughput and tick latencies, which were measured
    /// alongside the probe, are reported at the reference speed, and the
    /// measured values become notes.
    #[allow(clippy::too_many_arguments)]
    pub fn end_to_end(
        &mut self,
        setup_s: &[f64],
        days: &[(f64, Vec<f64>)],
        queries: &QueryLog,
        mre_mean: f64,
        rss_mb: &[f64],
        speed: Option<f64>,
    ) {
        let mut pct = |name: &str, samples: &[f64], p: f64| match percentile(samples, p) {
            Ok(v) => v,
            Err(e) => {
                common::problem(&mut self.problems, format!("{name}: {e}"));
                f64::NAN
            }
        };
        let mut per_day = |name: &str, p: f64| {
            let v: Vec<f64> = days.iter().map(|(_, t)| pct(name, t, p)).collect();
            median(&v)
        };
        // The fastest set-up: its time switched between two levels for
        // minutes at a stretch, so a median followed the host's phase.
        let mut values = [
            setup_s.iter().copied().fold(f64::INFINITY, f64::min),
            median(&days.iter().map(|d| d.0).collect::<Vec<_>>()),
            per_day("tick_p50_ms", 50.0),
            per_day("tick_p95_ms", 95.0),
            pct("query_p50_ms", &queries.latency_ms, 50.0),
            mre_mean,
            median(rss_mb),
        ];
        let query_p95 = pct("query_p95_ms", &queries.latency_ms, 95.0);
        if let Some(speed) = speed {
            self.note(format!(
                "measured: ticks_per_s {}, tick_p50_ms {}, tick_p95_ms {}; \
                 speed probe {speed} x the reference",
                values[1], values[2], values[3]
            ));
            values[1] *= speed;
            values[2] /= speed;
            values[3] /= speed;
        }
        self.end_to_end = END_TO_END.iter().map(|&(n, _)| n).zip(values).collect();
        self.note(format!("query p95 {query_p95} ms (not a metric)"));
        self.note(format!(
            "samples: {} setups, {} days of {:?} ticks, {} queries",
            setup_s.len(),
            days.len(),
            days.iter().map(|d| d.1.len()).collect::<Vec<_>>(),
            queries.latency_ms.len()
        ));
    }

    /// Keep the spans of the traced day on disk, next to the benchmark.
    pub fn write_trace(&mut self, trace: &Trace) {
        let path = std::path::PathBuf::from(format!(
            "perfbench/out/trace-{}-{}.jsonl",
            self.workload, self.seed
        ));
        match trace.write_jsonl(&path) {
            Ok(()) => self.note(format!("spans written to {}", path.display())),
            Err(e) => self.note(format!("could not write spans to {}: {e}", path.display())),
        }
    }

    /// Print the human-readable lines, then the JSON result as the last
    /// line. Returns the process exit code.
    pub fn print(self, calib_kernel_ms: f64) -> i32 {
        let correct = self.problems.is_empty();
        println!("workload {} seed {}", self.workload, self.seed);
        for n in &self.notes {
            println!("  note: {n}");
        }
        println!(
            "  operations: {} attempted, {} failed (failed_ratio {})",
            self.tally.attempted,
            self.tally.failed,
            self.tally.failed_ratio()
        );
        println!("  calib.kernel_ms {calib_kernel_ms}");
        for p in &self.problems {
            println!("  CHECK FAILED: {p}");
        }
        let mut metrics: Vec<(String, f64, &str)> = Vec::new();
        if correct {
            match &self.layers {
                Some(layers) => {
                    for (name, unit) in per_layer() {
                        let v = if name == "calib.kernel_ms" {
                            calib_kernel_ms
                        } else {
                            layers.get(&name)
                        };
                        metrics.push((name, v, unit));
                    }
                }
                None => {
                    for ((name, v), (_, unit)) in self.end_to_end.iter().zip(END_TO_END) {
                        metrics.push((name.to_string(), *v, unit));
                    }
                }
            }
        }
        for (name, v, unit) in &metrics {
            assert!(valid_metric_name(name), "invalid metric name `{name}`");
            println!("  {name:<32} {v:>14.6} {unit}");
        }
        // A value JSON cannot carry (an absent layer's percentile) is 0.
        let body: Vec<String> = metrics
            .iter()
            .map(|(name, v, unit)| {
                let v = if v.is_finite() { *v } else { 0.0 };
                format!(r#""{name}": {{"value": {v:?}, "unit": "{unit}"}}"#)
            })
            .collect();
        println!(
            r#"{{"correct": {correct}, "attempted": {}, "failed": {}, "metrics": {{{}}}}}"#,
            self.tally.attempted.max(1),
            self.tally.failed,
            body.join(", ")
        );
        if correct {
            0
        } else {
            1
        }
    }
}
