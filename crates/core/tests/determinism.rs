//! Parallel sweeps must be *bit-identical* to serial execution.
//!
//! The parallel helpers in `tm_par` and the parallelized estimators
//! (WCB's chunked LP sweep, fanout's per-interval accumulation) are
//! designed so that floating-point reduction order never depends on
//! scheduling. This test pins that contract by running the same
//! workloads with the worker pool forced to one thread and at full
//! width, comparing every output bit.
//!
//! Single `#[test]` on purpose: `TM_PAR_THREADS` is process-global, so
//! the serial and parallel phases must not interleave with other tests
//! in this binary.

use tm_core::fanout::FanoutEstimator;
use tm_core::prelude::*;
use tm_core::wcb::worst_case_bounds;
use tm_traffic::{DatasetSpec, EvalDataset};

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

#[test]
fn parallel_results_are_bit_identical_to_serial() {
    let d = EvalDataset::generate(DatasetSpec::europe(), 7).expect("valid spec");
    let p = d.snapshot_problem(d.busy_hour().start);
    let w = d.window_problem(d.busy_hour());
    let wcb: Vec<Method> = vec!["wcb".parse().expect("valid spec")];

    let run_all = || {
        let bounds = worst_case_bounds(&p).expect("ok");
        let fanout = FanoutEstimator::new().estimate(&w).expect("ok");
        // Warm engine: the carried basis is re-anchored per tick
        // (`WcbSolver::rebase`), which must be equally deterministic.
        let mut engine = StreamEngine::for_dataset(&d, &wcb, StreamMode::Warm).expect("engine");
        let ticks: Vec<Vec<u64>> = engine
            .run(dataset_stream(&d, 0..6).expect("in range"))
            .expect("ok")
            .into_iter()
            .map(|t| {
                let est = t.estimates.into_iter().next().flatten().expect("ready");
                bits(&est.expect("ok").demands)
            })
            .collect();
        (
            bits(&bounds.lower),
            bits(&bounds.upper),
            bits(&fanout.estimate.demands),
            ticks,
        )
    };

    std::env::set_var("TM_PAR_THREADS", "1");
    assert_eq!(tm_par::threads(), 1, "env override must force serial");
    let serial = run_all();

    std::env::set_var("TM_PAR_THREADS", "8");
    let parallel = run_all();
    std::env::remove_var("TM_PAR_THREADS");

    assert_eq!(serial.0, parallel.0, "wcb lower bounds diverged");
    assert_eq!(serial.1, parallel.1, "wcb upper bounds diverged");
    assert_eq!(serial.2, parallel.2, "fanout demands diverged");
    assert_eq!(serial.3, parallel.3, "warm wcb ticks diverged");
}
