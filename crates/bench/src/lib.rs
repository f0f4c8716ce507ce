//! # tm-bench
//!
//! Benchmark and experiment harness for the `backbone-tm` reproduction
//! of *Gunnar, Johansson, Telkamp (IMC 2004)*.
//!
//! * `src/bin/experiments.rs` regenerates **every figure and table** of
//!   the paper's evaluation (Figs. 1–16, Tables 1–2) on the synthetic
//!   datasets, printing aligned text and writing CSV under `results/`.
//!   Run `cargo run --release -p tm-bench --bin experiments -- all`.
//!   Its `bench` mode is the one timing harness: every estimator at
//!   three topology scales, the full-day streaming sweeps, and the
//!   sparse-vs-dense ablations, written to `BENCH_PR<n>.json`.
//!
//! This library crate exposes the shared experiment plumbing so every
//! mode of the binary uses identical workloads.

#![forbid(unsafe_code)]

use std::ops::Range;

use tm_core::prelude::*;
use tm_traffic::{DatasetSpec, EvalDataset};

/// Canonical seed used by every experiment (the figures are
/// deterministic; change it to check robustness of the shapes).
pub const SEED: u64 = 42;

/// The two evaluation networks of the paper, generated in parallel.
pub fn networks() -> Vec<(&'static str, EvalDataset)> {
    let specs = [
        ("europe", DatasetSpec::europe()),
        ("america", DatasetSpec::america()),
    ];
    tm_par::par_map(&specs, |(name, spec)| {
        (
            *name,
            EvalDataset::generate(spec.clone(), SEED).expect("spec valid"),
        )
    })
}

/// The three benchmark scales: tiny (unit-test size), europe (132
/// unknowns) and america (600 unknowns), generated in parallel.
pub fn scales() -> Vec<(&'static str, EvalDataset)> {
    let specs = [
        ("tiny", DatasetSpec::tiny()),
        ("europe", DatasetSpec::europe()),
        ("america", DatasetSpec::america()),
    ];
    tm_par::par_map(&specs, |(name, spec)| {
        (
            *name,
            EvalDataset::generate(spec.clone(), SEED).expect("spec valid"),
        )
    })
}

/// One evaluation network (for cheap benches).
pub fn europe() -> EvalDataset {
    EvalDataset::generate(DatasetSpec::europe(), SEED).expect("spec valid")
}

/// The larger evaluation network.
pub fn america() -> EvalDataset {
    EvalDataset::generate(DatasetSpec::america(), SEED).expect("spec valid")
}

/// Busy-hour snapshot problem of a dataset.
pub fn snapshot(d: &EvalDataset) -> EstimationProblem {
    d.snapshot_problem(d.busy_hour().start)
}

/// Busy-hour window problem (time-series methods).
pub fn window(d: &EvalDataset, len: usize) -> EstimationProblem {
    let start = d.busy_hour().start;
    let len = len.min(d.series.len() - start);
    d.window_problem(start..start + len)
}

/// MRE with the paper's 90%-coverage rule.
pub fn paper_mre(truth: &[f64], estimate: &[f64]) -> f64 {
    mean_relative_error(truth, estimate, CoverageThreshold::Share(0.9)).expect("aligned")
}

/// Simple CSV writer for the figure outputs.
pub struct CsvOut {
    path: std::path::PathBuf,
    rows: Vec<String>,
}

impl CsvOut {
    /// Start a CSV with a header row. Files land in `results/`.
    pub fn new(name: &str, header: &str) -> Self {
        CsvOut {
            path: std::path::Path::new("results").join(format!("{name}.csv")),
            rows: vec![header.to_string()],
        }
    }

    /// Append a data row.
    pub fn row(&mut self, fields: &[String]) {
        self.rows.push(fields.join(","));
    }

    /// Write the file (creating `results/`).
    pub fn finish(self) -> std::io::Result<std::path::PathBuf> {
        if let Some(dir) = self.path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(&self.path, self.rows.join("\n") + "\n")?;
        Ok(self.path)
    }
}

/// Range helper: the busy hour of a dataset.
pub fn busy(d: &EvalDataset) -> Range<usize> {
    d.busy_hour()
}

/// Wall-clock timing, RSS proxies and representation-generic reference
/// solves for the perf-trajectory harness (`experiments -- bench`,
/// `benches/scaling.rs`).
pub mod perf {
    use tm_linalg::LinOp;
    use tm_opt::spg::{self, SpgOptions};

    /// Median wall time of `runs` invocations of `f`, in milliseconds.
    /// One untimed warm-up invocation precedes the samples.
    pub fn time_ms<R>(runs: usize, mut f: impl FnMut() -> R) -> f64 {
        std::hint::black_box(f());
        let mut samples: Vec<f64> = (0..runs.max(1))
            .map(|_| {
                let start = std::time::Instant::now();
                std::hint::black_box(f());
                start.elapsed().as_secs_f64() * 1e3
            })
            .collect();
        samples.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        samples[samples.len() / 2]
    }

    /// Peak resident set size in kB (`VmHWM` from `/proc/self/status`);
    /// `None` off Linux. A process-lifetime high-water mark — a proxy,
    /// not a per-phase measurement.
    pub fn peak_rss_kb() -> Option<u64> {
        let status = std::fs::read_to_string("/proc/self/status").ok()?;
        for line in status.lines() {
            if let Some(rest) = line.strip_prefix("VmHWM:") {
                return rest
                    .trim()
                    .trim_end_matches(" kB")
                    .trim()
                    .parse::<u64>()
                    .ok();
            }
        }
        None
    }

    /// The entropy (KL-regularized) solve of `tm_core::entropy`,
    /// expressed over any [`LinOp`] so the *same algorithm* can be timed
    /// on the sparse CSR measurement system and on its densified copy.
    /// This is the dense baseline the sparse engine's speedup is
    /// measured against; `tm_core` itself only runs the sparse path.
    pub fn entropy_solve<A: LinOp>(
        a: &A,
        t_norm: &[f64],
        prior_norm: &[f64],
        lambda: f64,
    ) -> Vec<f64> {
        const FLOOR: f64 = 1e-12;
        let q: Vec<f64> = prior_norm.iter().map(|&v| v.max(FLOOR)).collect();
        let inv_lambda = 1.0 / lambda;
        let mut buf_r = vec![0.0; a.rows()];
        let mut buf_g = vec![0.0; a.cols()];
        let result = spg::spg(
            |s: &[f64], grad: &mut [f64]| {
                a.matvec_into(s, &mut buf_r);
                for (i, ri) in buf_r.iter_mut().enumerate() {
                    *ri -= t_norm[i];
                }
                a.tr_matvec_into(&buf_r, &mut buf_g);
                let mut f = buf_r.iter().map(|r| r * r).sum::<f64>();
                for j in 0..s.len() {
                    let sj = s[j].max(FLOOR);
                    let ratio = sj / q[j];
                    f += inv_lambda * (sj * ratio.ln() - sj + q[j]);
                    grad[j] = 2.0 * buf_g[j] + inv_lambda * ratio.ln();
                }
                f
            },
            spg::project_floor(FLOOR),
            q.clone(),
            SpgOptions {
                max_iter: 4000,
                tol: 1e-9,
                ..Default::default()
            },
        )
        .expect("entropy objective finite");
        result.x
    }
}
