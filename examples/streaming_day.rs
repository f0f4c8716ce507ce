//! The paper's headline workload as a stream: estimate a full day of
//! 5-minute intervals (288 ticks) with one warm-started engine and
//! print the per-interval error trajectory.
//!
//! The method comes from the registry via the first CLI argument; the
//! optional second argument selects the engine mode (`warm` carries
//! per-method state across ticks, `cold` re-solves every interval from
//! scratch).
//!
//! ```sh
//! cargo run --release --example streaming_day [method] [warm|cold]
//! cargo run --release --example streaming_day -- bayes:prior=1e3
//! cargo run --release --example streaming_day -- kruithof-full cold
//! ```

use backbone_tm::core::stream::dataset_stream;
use backbone_tm::prelude::*;

fn main() {
    let method: Method = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "entropy:lambda=1e3".to_string())
        .parse()
        .unwrap_or_else(|e| panic!("{e}"));
    let mode = match std::env::args().nth(2).as_deref() {
        None | Some("warm") => StreamMode::Warm,
        Some("cold") => StreamMode::Cold,
        Some(other) => panic!("unknown mode `{other}` (warm|cold)"),
    };

    let dataset = EvalDataset::generate(DatasetSpec::europe(), 42).expect("valid spec");
    let day = dataset.series.len();
    let methods = vec![method.clone()];
    let mut engine = StreamEngine::for_dataset(&dataset, &methods, mode).expect("engine builds");

    let started = std::time::Instant::now();
    let ticks = engine
        .run(dataset_stream(&dataset, 0..day).expect("range valid"))
        .expect("sweep runs");
    let wall = started.elapsed().as_secs_f64();

    // Per-interval MRE vs the interval's truth (window-mean truth for
    // the time-series methods).
    let window = method.window();
    let mres: Vec<Option<f64>> = ticks
        .iter()
        .map(|tick| {
            let est = match &tick.estimates[0] {
                Some(Ok(est)) => est,
                _ => return None,
            };
            let truth = match window {
                None => dataset
                    .demands_at(tick.interval)
                    .expect("in range")
                    .to_vec(),
                Some(w) => {
                    let len = w.min(tick.interval + 1);
                    dataset
                        .series
                        .window_mean(tick.interval + 1 - len, len)
                        .expect("in range")
                }
            };
            mean_relative_error(&truth, &est.demands, CoverageThreshold::Share(0.9)).ok()
        })
        .collect();

    // The wall clock varies from run to run: stderr, so stdout can be
    // diffed between runs.
    eprintln!(
        "{} over {} intervals ({:?} mode): {:.2} s wall, {:.2} ms/interval",
        method.label(),
        day,
        mode,
        wall,
        1e3 * wall / day as f64
    );

    // Hourly trajectory: mean MRE per 12-tick hour, with a coarse bar.
    println!("\n  hour   mean MRE   (day-long error trajectory, Europe network)");
    let per_hour = 12usize;
    for hour in 0..day.div_ceil(per_hour) {
        let chunk: Vec<f64> = mres[hour * per_hour..((hour + 1) * per_hour).min(day)]
            .iter()
            .filter_map(|m| *m)
            .collect();
        if chunk.is_empty() {
            continue;
        }
        let mean = chunk.iter().sum::<f64>() / chunk.len() as f64;
        let bar = "#".repeat(((mean * 100.0).round() as usize).min(60));
        println!("  {hour:>4}   {mean:>8.3}   {bar}");
    }

    let valid: Vec<f64> = mres.iter().filter_map(|m| *m).collect();
    let day_mean = valid.iter().sum::<f64>() / valid.len().max(1) as f64;
    let busy = dataset.busy_hour();
    let busy_mres: Vec<f64> = busy.clone().filter_map(|k| mres[k]).collect();
    let busy_mean = busy_mres.iter().sum::<f64>() / busy_mres.len().max(1) as f64;
    println!(
        "\n  day-mean MRE {day_mean:.3}, busy-period ({}..{}) mean MRE {busy_mean:.3}",
        busy.start, busy.end
    );
}
