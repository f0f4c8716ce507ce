//! Full estimator comparison on both evaluation networks — a compact
//! version of the paper's Table 2, driven end to end by the method
//! registry: one prepared [`MeasurementSystem`] per network serves
//! every method of [`Method::all_defaults`].
//!
//! ```sh
//! cargo run --release --example backbone_comparison
//! ```

use backbone_tm::linalg::Workspace;
use backbone_tm::prelude::*;

fn main() {
    for (name, spec) in [
        ("Europe", DatasetSpec::europe()),
        ("America", DatasetSpec::america()),
    ] {
        let dataset = EvalDataset::generate(spec, 42).expect("valid spec");
        let snap = dataset.snapshot_problem(dataset.busy_hour().start);
        let truth_snap = snap.true_demands().expect("truth").to_vec();
        let thr = CoverageThreshold::Share(0.9);
        let mre = |t: &[f64], e: &[f64]| mean_relative_error(t, e, thr).expect("aligned");

        println!(
            "== {name}: {} PoPs, {} links ==",
            dataset.topology.n_nodes(),
            dataset.topology.n_links()
        );

        // Prepare once: the busy-hour snapshot system serves the
        // snapshot methods directly and re-anchors onto the window
        // problems of the time-series methods, sharing its
        // matrix-derived caches.
        let snap_sys = MeasurementSystem::new(snap);
        let mut ws = Workspace::new();

        for method in Method::all_defaults() {
            let (estimate, truth) = match method.window() {
                None => {
                    let e = method
                        .build()
                        .estimate_system(&snap_sys, &mut ws)
                        .expect("snapshot method solvable");
                    (e, truth_snap.clone())
                }
                Some(k) => {
                    let start = dataset.busy_hour().start;
                    let len = k.min(dataset.series.len().saturating_sub(start));
                    if len < 2 {
                        println!("  {:<28} skipped (series too short)", method.label());
                        continue;
                    }
                    let wsys = snap_sys
                        .reanchor(dataset.window_problem(start..start + len))
                        .expect("one routing pattern");
                    let truth_w = wsys.problem().true_demands().expect("truth").to_vec();
                    let e = method
                        .build()
                        .estimate_system(&wsys, &mut ws)
                        .expect("window method solvable");
                    (e, truth_w)
                }
            };
            println!(
                "  {:<28} {:.3}",
                method.label(),
                mre(&truth, &estimate.demands)
            );
        }

        // The paper's best combination — Bayes with the WCB midpoint
        // prior — composes two registry methods by hand.
        let wcb_prior = Method::new(MethodConfig::Wcb)
            .build()
            .estimate_system(&snap_sys, &mut ws)
            .expect("LPs solvable");
        let bayes_wcb = BayesianEstimator::new(1e3)
            .with_prior(wcb_prior.demands)
            .estimate_system(&snap_sys, &mut ws)
            .expect("bayes+wcb");
        println!(
            "  {:<28} {:.3}",
            "bayes(1e3) w. WCB prior",
            mre(&truth_snap, &bayes_wcb.demands)
        );
    }
}
