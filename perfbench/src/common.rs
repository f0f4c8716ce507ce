//! Pieces every workload shares: method keys, day-mean MRE, output
//! checks, the pinned reference MREs and the calibration kernel.

use std::collections::BTreeMap;
use std::time::Instant;

use tm_core::prelude::{mean_relative_error, CoverageThreshold};
use tm_core::stream::StreamTick;
use tm_core::{Method, MethodConfig};
use tm_linalg::decomp::cholesky::Cholesky;
use tm_linalg::Mat;
use tm_traffic::EvalDataset;

use crate::stats::{median, Tally};

/// The registry kind name of a method: the key of its per-layer
/// metrics (labels such as `vardi(0.01,K=50)` are not valid names).
pub fn kind(method: &Method) -> &'static str {
    match method.config() {
        MethodConfig::Gravity { generalized: false } => "gravity",
        MethodConfig::Gravity { generalized: true } => "gravity-generalized",
        MethodConfig::KruithofMarginals { .. } => "kruithof-marginals",
        MethodConfig::KruithofFull { .. } => "kruithof-full",
        MethodConfig::Entropy { .. } => "entropy",
        MethodConfig::Bayes { .. } => "bayes",
        MethodConfig::Wcb { .. } => "wcb",
        MethodConfig::Fanout { .. } => "fanout",
        MethodConfig::Vardi { .. } => "vardi",
        MethodConfig::Cao { .. } => "cao",
    }
}

pub fn parse_methods(specs: &[&str]) -> Vec<Method> {
    specs
        .iter()
        .map(|s| s.parse().expect("benchmark method specs are valid"))
        .collect()
}

/// MRE with the paper's 90%-coverage rule.
pub fn paper_mre(truth: &[f64], estimate: &[f64]) -> f64 {
    mean_relative_error(truth, estimate, CoverageThreshold::Share(0.9))
        .expect("truth and estimate are aligned")
}

/// Day-mean MRE per method over the ticks `counted` admits: truth per
/// interval for snapshot methods, the window mean for windowed ones
/// (the `day288-*` rule of `experiments bench`).
pub fn day_mre(
    dataset: &EvalDataset,
    methods: &[Method],
    ticks: &[&StreamTick],
    counted: impl Fn(usize) -> bool,
) -> Vec<f64> {
    methods
        .iter()
        .enumerate()
        .map(|(i, method)| {
            let (mut sum, mut n) = (0.0, 0usize);
            for tick in ticks {
                if !counted(tick.interval) {
                    continue;
                }
                let Some(Ok(est)) = &tick.estimates[i] else {
                    continue;
                };
                let truth = match method.window() {
                    None => dataset
                        .demands_at(tick.interval)
                        .expect("tick within the day")
                        .to_vec(),
                    Some(w) => {
                        let len = w.min(tick.interval + 1);
                        dataset
                            .series
                            .window_mean(tick.interval + 1 - len, len)
                            .expect("window within the day")
                    }
                };
                sum += paper_mre(&truth, &est.demands);
                n += 1;
            }
            sum / n.max(1) as f64
        })
        .collect()
}

/// Count and check every estimate of a day's ticks, in tick order.
/// `Some(Err)` is a failure, and so is a missing estimate once the
/// method has produced one: the engine leaves a slot empty only while
/// a time-series window fills, or while a masked tick is held before
/// any estimate exists. A non-finite demand is a correctness problem.
pub fn check_estimates(
    methods: &[Method],
    ticks: &[&StreamTick],
    tally: &mut Tally,
    problems: &mut Vec<String>,
) {
    let mut produced = vec![false; methods.len()];
    for tick in ticks {
        for (i, method) in methods.iter().enumerate() {
            let filled = produced[i];
            let outcome = tick.estimates[i].as_ref().map(|r| r.is_ok());
            tally.estimate(outcome, filled);
            match &tick.estimates[i] {
                Some(Ok(est)) => {
                    produced[i] = true;
                    if let Some(bad) = est.demands.iter().find(|v| !v.is_finite()) {
                        problem(
                            problems,
                            format!(
                                "{} tick {}: non-finite demand {bad}",
                                method.label(),
                                tick.interval
                            ),
                        );
                    }
                }
                Some(Err(e)) => problem(
                    problems,
                    format!("{} tick {}: {e}", method.label(), tick.interval),
                ),
                None if filled => problem(
                    problems,
                    format!("{} tick {}: no estimate", method.label(), tick.interval),
                ),
                None => {}
            }
        }
    }
}

/// Record a correctness problem, keeping the list short.
pub fn problem(problems: &mut Vec<String>, message: String) {
    if problems.len() < 20 {
        problems.push(message);
    }
}

/// Documented agreement of WCB across a checkpoint or engine boundary
/// (`docs/DAEMON.md`: ~1e-7 relative); every other method must match
/// bit for bit.
pub fn same_value(kind: &str, a: f64, b: f64) -> bool {
    if kind == "wcb" {
        (a - b).abs() <= 1e-7 * a.abs().max(b.abs()).max(1.0)
    } else {
        a.to_bits() == b.to_bits()
    }
}

/// Pinned day-mean MREs: `workload seed kind bits` per line.
const REFERENCE: &str = include_str!("../reference.tsv");

/// The pinned MRE of every method of `workload` at `seed`, if pinned.
pub fn reference(workload: &str, seed: u64) -> Option<BTreeMap<String, f64>> {
    let table: BTreeMap<String, f64> = REFERENCE
        .lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
        .filter_map(|l| {
            let f: Vec<&str> = l.split_whitespace().collect();
            (f.len() == 4 && f[0] == workload && f[1].parse() == Ok(seed)).then(|| {
                let bits = u64::from_str_radix(f[3], 16).expect("reference bits are hex");
                (f[2].to_string(), f64::from_bits(bits))
            })
        })
        .collect();
    (!table.is_empty()).then_some(table)
}

/// Check a day's MREs against the first day of the run (determinism)
/// and against the pinned reference when the seed has one.
pub fn check_mre(
    kinds: &[&str],
    mre: &[f64],
    first_day: &[f64],
    pinned: Option<&BTreeMap<String, f64>>,
    problems: &mut Vec<String>,
) {
    for ((k, &got), &first) in kinds.iter().zip(mre).zip(first_day) {
        if !same_value(k, got, first) {
            problem(
                problems,
                format!("mre.{k}: {got:e} differs from the run's first day {first:e}"),
            );
        }
        if let Some(table) = pinned {
            match table.get(*k) {
                Some(&want) if same_value(k, got, want) => {}
                Some(&want) => problem(
                    problems,
                    format!("mre.{k}: {got:e} differs from the pinned reference {want:e}"),
                ),
                None => problem(problems, format!("mre.{k}: no pinned reference")),
            }
        }
    }
}

/// Reference lines for a day's MREs, in the format of `reference.tsv`.
pub fn reference_lines(workload: &str, seed: u64, kinds: &[&str], mre: &[f64]) -> String {
    kinds
        .iter()
        .zip(mre)
        .map(|(k, m)| format!("{workload}\t{seed}\t{k}\t{:016x}\n", m.to_bits()))
        .collect()
}

/// A fixed dense `tm_linalg` kernel: Gram matrix and Cholesky factor of
/// a deterministic 160x160 matrix, then one solve. Median of 15 runs,
/// in ms. It depends on nothing the workloads do, so it shows how fast
/// the machine was during the run.
pub fn calibration_kernel_ms() -> f64 {
    let n = 160;
    let a = Mat::from_fn(n, n, |i, j| {
        ((i * 31 + j * 17) % 97) as f64 / 97.0 + if i == j { 1.0 } else { 0.0 }
    });
    let b: Vec<f64> = (0..n).map(|i| (i % 7) as f64).collect();
    let samples: Vec<f64> = (0..15)
        .map(|_| {
            let start = Instant::now();
            let g = std::hint::black_box(&a).gram();
            let x = Cholesky::factor(&g)
                .expect("Gram of a diagonally dominant matrix is SPD")
                .solve(&b)
                .expect("sized right");
            std::hint::black_box(x);
            start.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    median(&samples)
}

/// The speed probe's time, in ms, that the workloads take as the
/// machine's reference speed.
pub const PROBE_REFERENCE_MS: f64 = 1.0;

/// The speed probe: a fixed 120x120 Gram product written out in plain
/// Rust, in ms. It calls no workspace code, so no change to the program
/// can move it. Its matrix sits in L2 like the Europe solves' working
/// sets, so it slows down with them when another tenant of the host
/// shares the core's caches; an integer-only loop does not.
pub fn speed_probe_ms() -> f64 {
    const N: usize = 120;
    let a: Vec<f64> = (0..N * N).map(|i| ((i * 31) % 97) as f64 / 97.0).collect();
    let mut g = vec![0.0; N * N];
    let start = Instant::now();
    for i in 0..N {
        for j in 0..N {
            let row = |r: usize| &std::hint::black_box(&a)[r * N..(r + 1) * N];
            g[i * N + j] = row(i).iter().zip(row(j)).map(|(x, y)| x * y).sum();
        }
    }
    std::hint::black_box(&g);
    start.elapsed().as_secs_f64() * 1e3
}

/// Reset this process's peak resident set size to its current size, so
/// `VmHWM` covers only what runs after. Returns whether the kernel
/// accepted the reset (Linux 4.0 and later).
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wcb_gets_the_documented_tolerance_only() {
        assert!(same_value("wcb", 1.0, 1.0 + 1e-9));
        assert!(!same_value("wcb", 1.0, 1.0 + 1e-6));
        assert!(!same_value("entropy", 1.0, 1.0 + 1e-15));
        assert!(same_value("entropy", 0.25, 0.25));
    }

    #[test]
    fn reference_lines_round_trip() {
        let lines = reference_lines("w", 9, &["entropy", "vardi"], &[0.125, 0.3]);
        assert!(lines.starts_with("w\t9\tentropy\t"));
        let parsed: Vec<f64> = lines
            .lines()
            .map(|l| {
                f64::from_bits(u64::from_str_radix(l.split('\t').nth(3).unwrap(), 16).unwrap())
            })
            .collect();
        assert_eq!(parsed, vec![0.125, 0.3]);
    }
}
