//! # tm-bench
//!
//! Benchmark and experiment harness for the `backbone-tm` reproduction
//! of *Gunnar, Johansson, Telkamp (IMC 2004)*.
//!
//! * `src/bin/experiments.rs` regenerates **every figure and table** of
//!   the paper's evaluation (Figs. 1–16, Tables 1–2) on the synthetic
//!   datasets, printing aligned text and writing CSV under `results/`.
//!   Run `cargo run --release -p tm-bench --bin experiments -- all`.
//!   Its standalone modes are the pipeline's acceptance gates
//!   (`overhead`, `fault-matrix`, `daemon-matrix`, `live-matrix`,
//!   `net-matrix`). Timing the pipeline is the job of the separate
//!   `perfbench` package.
//!
//! This library crate exposes the shared experiment plumbing so every
//! mode of the binary uses identical workloads.

#![forbid(unsafe_code)]

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

/// The European evaluation network.
pub fn europe() -> EvalDataset {
    EvalDataset::generate(DatasetSpec::europe(), SEED).expect("spec valid")
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
