//! Old-vs-new API equivalence: `estimate()` (throwaway per-call system)
//! and `estimate_system()` (one prepared, shared [`MeasurementSystem`])
//! must produce **bit-identical** demand vectors for every registry
//! method, at tiny and europe scales.
//!
//! This is the contract that makes the prepared-system redesign safe:
//! the cached Gram/transpose/GIS-plan/WCB-basis are the *same values*
//! the estimators used to re-derive per call, so sharing them cannot
//! move a single bit of any estimate.

use tm_core::prelude::*;
use tm_linalg::Workspace;
use tm_traffic::{DatasetSpec, EvalDataset};

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Every registry method with parameters sized so the suite stays fast
/// in debug builds (short windows, modest iteration caps; the *code
/// paths* are identical to the defaults).
fn specs() -> Vec<&'static str> {
    vec![
        "gravity",
        "gravity-generalized",
        "kruithof-marginals",
        "kruithof-full",
        "entropy:lambda=1e3",
        "bayes:prior=1e3",
        "wcb",
        "fanout:window=6",
        "vardi:w=0.01,window=6",
        "cao:c=1.6,w=0.01,outer=3,window=6",
    ]
}

fn check_scale(spec_name: &str, dataset_spec: DatasetSpec, seed: u64) {
    let d = EvalDataset::generate(dataset_spec, seed).expect("valid spec");
    let snap = d.snapshot_problem(d.busy_hour().start);
    let snap_sys = MeasurementSystem::prepare(&snap);
    let mut window_problems: Vec<(usize, EstimationProblem)> = Vec::new();
    let mut ws = Workspace::new();

    for spec in specs() {
        let method: Method = spec.parse().expect(spec);
        let est = method.build();
        let (old, new) = match method.window() {
            None => {
                let old = est.estimate(&snap).expect(spec);
                // Same prepared system reused across all snapshot
                // methods — caches warm after the first user.
                let new = est.estimate_system(&snap_sys, &mut ws).expect(spec);
                (old, new)
            }
            Some(k) => {
                if !window_problems.iter().any(|(len, _)| *len == k) {
                    let start = d.busy_hour().start;
                    window_problems.push((k, d.window_problem(start..start + k)));
                }
                let (_, wp) = window_problems
                    .iter()
                    .find(|(len, _)| *len == k)
                    .expect("just inserted");
                let old = est.estimate(wp).expect(spec);
                let wsys = MeasurementSystem::prepare(wp);
                // Warm the matrix-level caches through another method
                // first, then estimate on the shared system.
                let _ = wsys.gram();
                let new = est.estimate_system(&wsys, &mut ws).expect(spec);
                (old, new)
            }
        };
        assert_eq!(old.method, new.method, "{scale}: {spec}", scale = spec_name);
        assert_eq!(
            bits(&old.demands),
            bits(&new.demands),
            "{spec_name}: `{spec}` demands diverged between estimate() and estimate_system()"
        );
    }
}

#[test]
fn estimate_and_estimate_system_are_bit_identical_tiny() {
    check_scale("tiny", DatasetSpec::tiny(), 41);
}

#[test]
fn estimate_and_estimate_system_are_bit_identical_europe() {
    check_scale("europe", DatasetSpec::europe(), 41);
}

#[test]
fn shard_systems_match_throwaway_systems() {
    // The third sharing axis: a system re-anchored from one shared
    // anchor (shared matrix-derived caches, as each stream shard holds)
    // must also be bit-identical to per-problem estimation.
    let d = EvalDataset::generate(DatasetSpec::tiny(), 43).expect("valid spec");
    let anchor = MeasurementSystem::new(d.snapshot_problem(0));
    let mut ws = Workspace::new();
    for spec in ["entropy:lambda=1e3", "bayes:prior=1e3", "kruithof-full"] {
        let est: Box<dyn Estimator + Send + Sync> = spec.parse::<Method>().expect(spec).build();
        for k in [0usize, 3, 7] {
            let shared = anchor
                .reanchor(d.snapshot_problem(k))
                .expect("one routing pattern");
            let via_shared = est.estimate_system(&shared, &mut ws).expect(spec);
            let direct = est.estimate(&d.snapshot_problem(k)).expect(spec);
            assert_eq!(
                bits(&direct.demands),
                bits(&via_shared.demands),
                "{spec} snapshot {k}"
            );
        }
    }
}
