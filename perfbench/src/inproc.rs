//! The in-process workloads: a warm `StreamEngine` pushed one tick at
//! a time (closed loop, one tick in flight), publishing a `LiveView`
//! after every tick while the open-loop client queries it.

use std::sync::Arc;
use std::time::{Duration, Instant};

use tm_core::measure::LoadFaultPlan;
use tm_core::stream::{StreamEngine, StreamMode, StreamTick};
use tm_core::Method;
use tm_daemon::telemetry::TelemetryHub;
use tm_daemon::{LiveBus, LivePhase, LiveShard, LiveView};
use tm_traffic::{DatasetSpec, EvalDataset, IntervalLoads};

use crate::common::{self, kind, problem};
use crate::query::{self, QueryLog};
use crate::report::{Layers, Run};
use crate::stats::{median, ms, Tally};
use crate::trace::Trace;

/// Ticks in one day of 5-minute intervals.
pub const DAY: usize = 288;

/// Unmeasured ticks before the first measured day.
const WARMUP_TICKS: usize = 24;

/// Ticks between speed probes in an untraced day.
const PROBE_EVERY: usize = 8;

/// Ticks between set-up samples in an untraced day. The set-up time
/// switched between two levels (about 5 and 8 ms on Europe) every few
/// seconds, so samples taken in blocks followed whichever level held
/// at that moment; samples spread over the days follow the run.
const SETUP_EVERY: usize = 16;

pub struct Workload {
    pub name: &'static str,
    pub spec: fn() -> DatasetSpec,
    pub methods: Vec<Method>,
    /// Apply `LoadFaultPlan::canonical` seeded by the workload seed.
    pub faulted: bool,
}

/// One measured day.
struct Day {
    /// Wall time of the tick loop, less the speed probes and set-up
    /// samples.
    loop_s: f64,
    probe_ms: Vec<f64>,
    setup_s: Vec<f64>,
    tick_ms: Vec<f64>,
    publish_us: Vec<f64>,
    ticks: Vec<Arc<StreamTick>>,
    tally: Tally,
    queries: QueryLog,
    final_view: Arc<LiveView>,
}

fn setup(w: &Workload, seed: u64) -> (Arc<EvalDataset>, StreamEngine, f64) {
    let start = Instant::now();
    let dataset = EvalDataset::generate((w.spec)(), seed).expect("benchmark dataset spec is valid");
    let engine =
        StreamEngine::for_dataset(&dataset, &w.methods, StreamMode::Warm).expect("engine builds");
    (Arc::new(dataset), engine, start.elapsed().as_secs_f64())
}

fn day_inputs(w: &Workload, dataset: &EvalDataset, plan: &LoadFaultPlan) -> Vec<IntervalLoads> {
    (0..DAY)
        .map(|k| {
            let mut loads = dataset.interval_loads(k).expect("tick within the day");
            if w.faulted {
                plan.apply(k, &mut loads.link_loads);
            }
            loads
        })
        .collect()
}

fn run_day(
    w: &Workload,
    seed: u64,
    data_seed: u64,
    dataset: &Arc<EvalDataset>,
    mut engine: StreamEngine,
    inputs: Vec<IntervalLoads>,
    trace: Option<&mut Trace>,
) -> Day {
    let labels = engine.labels();
    let hub = TelemetryHub::new(&[w.name.to_string()], &labels);
    let recorder = hub.recorder(0);
    let bus = LiveBus::new();
    let mut slots: Vec<Option<Arc<StreamTick>>> = vec![None; DAY];
    let mut tick_ms = Vec::with_capacity(DAY);
    let mut publish_us = Vec::with_capacity(DAY);
    let mut tally = Tally::default();
    let mut spans: Vec<(Instant, Instant, Instant, Vec<u64>)> = Vec::new();
    let mut probe_ms = Vec::new();
    let mut setup_s = Vec::new();
    let mut aside = Duration::ZERO;

    let ((loop_start, loop_end), queries) = query::serve_while(&bus, seed, || {
        let loop_start = Instant::now();
        for (k, loads) in inputs.into_iter().enumerate() {
            let t0 = Instant::now();
            let result = engine.push_interval(loads);
            let t1 = Instant::now();
            tally.record(result.is_ok());
            let Ok(tick) = result else { continue };
            tick_ms.push(ms(t1 - t0));
            recorder.record_queue_delay((t1 - t0).as_nanos() as u64);
            recorder.record_solves(&tick.solve_ns);
            let (imputed, masked) = tick.degradation.as_ref().map_or((0, 0), |d| {
                (d.imputed_rows.len() as u64, d.masked_rows.len() as u64)
            });
            recorder.count_tick(tick.degradation.is_some(), imputed, masked);
            let solve_ns = tick.solve_ns.clone();
            slots[k] = Some(Arc::new(tick));
            bus.publish(LiveView {
                epoch: 0,
                labels: labels.clone(),
                ticks: DAY,
                uptime_ticks: k + 1,
                mode: StreamMode::Warm,
                running: k + 1 < DAY,
                unfired_chaos: 0,
                shards: vec![LiveShard {
                    name: w.name.to_string(),
                    phase: if k + 1 < DAY {
                        LivePhase::Running
                    } else {
                        LivePhase::Completed
                    },
                    restarts: Vec::new(),
                    last_checkpoint: None,
                    lost_polls: 0,
                    ticks: slots.clone(),
                    dataset: Arc::clone(dataset),
                    transport_events: Vec::new(),
                }],
                telemetry: hub.snapshot(),
            });
            let t2 = Instant::now();
            publish_us.push((t2 - t1).as_secs_f64() * 1e6);
            if trace.is_some() {
                spans.push((t0, t1, t2, solve_ns));
            } else {
                if k % PROBE_EVERY == 0 {
                    probe_ms.push(common::speed_probe_ms());
                }
                if k % SETUP_EVERY == SETUP_EVERY / 2 {
                    setup_s.push(setup(w, data_seed).2);
                }
                aside += t2.elapsed();
            }
        }
        (loop_start, Instant::now())
    });

    if let Some(tr) = trace {
        let root = tr.span("day", None, None, loop_start, loop_end);
        for (k, (t0, t1, t2, solve_ns)) in spans.into_iter().enumerate() {
            let tick = tr.span("engine", Some(k), Some(root), t0, t1);
            let mut cursor = tr.start_of(tick);
            for (m, ns) in w.methods.iter().zip(solve_ns) {
                tr.lay(
                    &format!("solve.{}", kind(m)),
                    Some(k),
                    tick,
                    &mut cursor,
                    ns,
                );
            }
            tr.span("live", Some(k), Some(root), t1, t2);
        }
    }

    Day {
        loop_s: (loop_end - loop_start - aside).as_secs_f64(),
        probe_ms,
        setup_s,
        tick_ms,
        publish_us,
        ticks: slots.into_iter().flatten().collect(),
        tally,
        queries,
        final_view: bus.load(),
    }
}

/// Run the workload for about `seconds` of whole days (at least one)
/// and report its end-to-end metrics, or with `traced` the per-layer
/// metrics of one traced day after untraced ones. `data_seed` sets the
/// dataset and the fault plan, `seed` the query schedule.
pub fn run(w: &Workload, seed: u64, data_seed: u64, seconds: f64, traced: bool) -> Run {
    let kinds: Vec<&str> = w.methods.iter().map(kind).collect();
    let pinned = common::reference(w.name, data_seed);
    let mut run = Run::new(w.name, seed);
    if pinned.is_none() {
        run.note(format!(
            "no pinned reference MREs for dataset seed {data_seed}: checking determinism across days only"
        ));
    }

    let mut setup_s = Vec::new();
    // Unmeasured ticks first, so the first day does not pay alone for
    // cold caches and page faults.
    let (dataset, mut engine, _) = setup(w, data_seed);
    let plan = LoadFaultPlan::canonical(dataset.topology.n_links(), data_seed);
    for loads in day_inputs(w, &dataset, &plan)
        .into_iter()
        .take(WARMUP_TICKS)
    {
        std::hint::black_box(engine.push_interval(loads).ok());
    }
    drop((dataset, engine));

    let budget = Duration::from_secs_f64(seconds);
    let started = Instant::now();
    // Per measured day: loop wall, tick latencies, queries, peak RSS.
    let mut days: Vec<(f64, Vec<f64>, QueryLog, f64)> = Vec::new();
    let mut probe_ms = Vec::new();
    let mut first_mre: Option<Vec<f64>> = None;
    let mut trace = None;
    let mut traced_mre = Vec::new();
    loop {
        // A traced run measures untraced days while another untraced
        // and a traced day still fit, then one traced day.
        let last_day = traced
            && !days.is_empty()
            && started.elapsed() + 2 * (started.elapsed() / days.len() as u32) > budget;
        // Each day's peak RSS covers its own set-up and ticks only.
        if !common::reset_peak_rss() && days.is_empty() {
            run.note("could not reset VmHWM: peak_rss_mb includes the start-up".into());
        }
        let (dataset, engine, s) = setup(w, data_seed);
        setup_s.push(s);
        let plan = LoadFaultPlan::canonical(dataset.topology.n_links(), data_seed);
        let inputs = day_inputs(w, &dataset, &plan);
        let mut tr = last_day.then(|| Trace::new(Instant::now()));
        let day = run_day(w, seed, data_seed, &dataset, engine, inputs, tr.as_mut());

        let ticks: Vec<&StreamTick> = day.ticks.iter().map(|t| t.as_ref()).collect();
        let mut tally = day.tally;
        common::check_estimates(&w.methods, &ticks, &mut tally, &mut run.problems);
        run.tally.add(tally);
        run.tally.add(day.queries.tally);
        for e in &day.queries.errors {
            problem(&mut run.problems, format!("query failed: {e}"));
        }
        if ticks.len() != DAY {
            problem(
                &mut run.problems,
                format!("{} of {DAY} ticks completed", ticks.len()),
            );
        }
        let n_links = dataset.topology.n_links();
        let mre = common::day_mre(&dataset, &w.methods, &ticks, |k| {
            !w.faulted || !plan.affects_tick(k, n_links)
        });
        let first = first_mre.get_or_insert_with(|| mre.clone());
        common::check_mre(&kinds, &mre, first, pinned.as_ref(), &mut run.problems);
        if run.print_reference {
            print!(
                "{}",
                common::reference_lines(w.name, data_seed, &kinds, &mre)
            );
        }
        if let Some(tr) = tr {
            trace = Some((tr, day));
            traced_mre = mre;
            break;
        }
        probe_ms.extend(&day.probe_ms);
        setup_s.extend(&day.setup_s);
        days.push((day.loop_s, day.tick_ms, day.queries, common::peak_rss_mb()));

        // Another whole day only if it is predicted to end in budget.
        let mean_day = started.elapsed() / days.len() as u32;
        if !traced && started.elapsed() + mean_day > budget {
            break;
        }
    }

    let walls: Vec<f64> = days.iter().map(|d| d.0).collect();
    run.note(format!("day loop walls (s): {walls:?}"));
    let mut per_day = Vec::new();
    let mut queries = QueryLog::default();
    let mut rss_mb = Vec::new();
    for (wall, tick_ms, q, rss) in days {
        per_day.push((tick_ms.len() as f64 / wall, tick_ms));
        queries.extend(q);
        rss_mb.push(rss);
    }
    let mre_mean = first_mre
        .as_ref()
        .map_or(f64::NAN, |m| m.iter().sum::<f64>() / m.len() as f64);

    if let Some((tr, day)) = trace {
        let untraced = median(&walls);
        let mut layers = Layers::new(&tr);
        layers.engine_counters(&day.ticks);
        layers.solve(&w.methods, day.ticks.iter().map(|t| t.solve_ns.as_slice()));
        layers.mre(&kinds, &traced_mre);
        layers.set("live.publish_us", median(&day.publish_us));
        layers.protocol(&day.final_view, &day.queries);
        if let Err(e) = layers.finish(&tr, untraced) {
            problem(&mut run.problems, e);
        }
        run.write_trace(&tr);
        run.layers = Some(layers);
    } else {
        let speed = median(&probe_ms) / common::PROBE_REFERENCE_MS;
        run.end_to_end(&setup_s, &per_day, &queries, mre_mean, &rss_mb, Some(speed));
    }
    run
}
