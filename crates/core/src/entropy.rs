//! The entropy (KL-regularized) estimator of Zhang et al. (paper Eq. 6).
//!
//! ```text
//! minimize  ‖A·s − t‖²  +  (1/λ)·D(s ‖ s⁽ᵖ⁾)     over s ≥ 0
//! ```
//!
//! where `D` is the generalized Kullback–Leibler divergence and λ is the
//! regularization parameter of Fig. 13 (large λ ⇒ trust the link
//! measurements, small λ ⇒ stay near the prior). Solved by spectral
//! projected gradient in traffic-normalized units; the log-gradient of
//! the KL term keeps iterates strictly positive given a small floor.

use serde::{DeError, Deserialize, Serialize, Value};
use tm_linalg::{Mat, Workspace};
use tm_opt::newton::{self, NewtonOptions};
use tm_opt::spg::{self, SpgOptions};
use tm_opt::Convergence;

use crate::gravity::GravityModel;
use crate::problem::{Estimate, Estimator};
use crate::stream::{History, Tick, WarmMethod};
use crate::system::MeasurementSystem;
use crate::Result;

/// Relative floor (vs. total traffic) applied to iterates and prior
/// entries so the KL term stays differentiable.
const FLOOR: f64 = 1e-12;

/// Entropy-regularized estimator.
#[derive(Debug, Clone)]
pub struct EntropyEstimator {
    lambda: f64,
    prior: Option<Vec<f64>>,
}

impl EntropyEstimator {
    /// Create with the given regularization parameter λ (the x-axis of
    /// Fig. 13; values around 10³ work best on the evaluation networks).
    pub fn new(lambda: f64) -> Self {
        EntropyEstimator {
            lambda,
            prior: None,
        }
    }

    /// Supply an explicit prior (defaults to simple gravity).
    pub fn with_prior(mut self, prior: impl Into<Vec<f64>>) -> Self {
        self.prior = Some(prior.into());
        self
    }

    /// The regularization parameter.
    pub fn lambda(&self) -> f64 {
        self.lambda
    }

    /// The solve, with every vector-sized temporary drawn from (and
    /// returned to) the workspace pool — zero steady-state allocations
    /// besides the SPG iterates themselves.
    fn solve(
        &self,
        sys: &MeasurementSystem<'_>,
        ws: &mut Workspace,
        warm: Option<(&mut Option<EntropyWarmStart>, &mut Option<Mat>)>,
    ) -> Result<Estimate> {
        if !(self.lambda > 0.0) {
            return Err(crate::error::EstimationError::InvalidProblem(
                "entropy: lambda must be positive".into(),
            ));
        }
        let prior_raw = match &self.prior {
            Some(p) => {
                if p.len() != sys.n_pairs() {
                    return Err(crate::error::EstimationError::InvalidProblem(format!(
                        "prior has {} entries for {} pairs",
                        p.len(),
                        sys.n_pairs()
                    )));
                }
                p.clone()
            }
            None => GravityModel::simple().estimate_system(sys, ws)?.demands,
        };

        let a = sys.matrix();
        let t_raw = sys.measurements();
        let stot = sys.problem().total_traffic().max(f64::MIN_POSITIVE);

        // Normalized units: everything O(1).
        let mut t = ws.take(t_raw.len());
        for (d, &v) in t.iter_mut().zip(t_raw) {
            *d = v / stot;
        }
        let mut q = ws.take(prior_raw.len());
        for (d, &v) in q.iter_mut().zip(&prior_raw) {
            *d = (v / stot).max(FLOOR);
        }
        let inv_lambda = 1.0 / self.lambda;

        // Warm start: previous interval's solution (normalized to this
        // interval's traffic) and its final spectral step.
        let (warm, h_slot) = warm.unzip();
        let mut opts = spg_options();
        let x0 = match warm.as_deref() {
            Some(Some(state)) if state.demands.len() == q.len() => {
                opts.initial_step = state.step;
                let mut x0 = ws.take(q.len());
                for (d, &v) in x0.iter_mut().zip(&state.demands) {
                    *d = (v / stot).max(FLOOR);
                }
                x0
            }
            _ => q.clone(),
        };

        let mut buf_r = ws.take(a.rows());
        let mut buf_g = ws.take(a.cols());
        let mut value_grad = |s: &[f64], grad: &mut [f64]| {
            // residual r = A s − t
            a.matvec_into(s, &mut buf_r);
            for (i, ri) in buf_r.iter_mut().enumerate() {
                *ri -= t[i];
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
        };

        // Second-order paths. At moderate scale a projected Newton on
        // the dense Hessian `2AᵀA + (1/λ)·diag(1/s)` reaches the same
        // unique minimizer in a handful of Cholesky solves —
        // first-order methods pay hundreds of iterations for this
        // conditioning no matter how warm the start. The dense engine
        // is cubic in the pair count, so past `NEWTON_MAX_PAIRS` the
        // solve switches to the **dual** projected Newton instead: the
        // Hessian splitting `2AᵀA + D` is inverted through the `m×m`
        // Woodbury kernel `½I + A·D⁻¹·Aᵀ`, which is SPD for any row
        // count. Backbone systems are wide (rows < pairs), where that
        // kernel is also the small side. The dense warm path keeps its
        // `2AᵀA` base on the carry; the *small-system* cold path
        // stays SPG, bit-identical to `estimate_system`; the
        // large-system cold path (America scale) runs the dual Newton
        // with an SPG fallback on non-convergence.
        let mut x_solution: Option<Vec<f64>> = None;
        let mut final_step = 0.0;
        let mut conv: Option<Convergence> = None;
        if let Some(h_slot) = h_slot {
            if q.len() <= NEWTON_MAX_PAIRS {
                let h_base: &Mat = h_slot.get_or_insert_with(|| {
                    let mut h = sys.gram().to_dense();
                    h.scale(2.0);
                    h
                });
                let lo = vec![FLOOR; q.len()];
                let newton = newton::projected_newton(
                    &mut value_grad,
                    |x: &[f64], h: &mut Mat| {
                        h.clone_from(h_base);
                        for (j, &xj) in x.iter().enumerate() {
                            h.add_to(j, j, inv_lambda / xj.max(FLOOR));
                        }
                    },
                    &lo,
                    x0.clone(),
                    NewtonOptions {
                        tol: opts.tol,
                        // Refactor the reduced Hessian every few
                        // steps: the KL diagonal drifts slowly enough
                        // that a handful of cheap O(n²) metric steps
                        // per factorization wins over classic
                        // one-factor-per-step Newton (measured sweet
                        // spot on the Europe system).
                        refresh_every: 8,
                        ..Default::default()
                    },
                )?;
                conv = Some(newton.convergence());
                if newton.converged {
                    x_solution = Some(newton.x);
                }
            }
        }
        if x_solution.is_none() && q.len() > NEWTON_MAX_PAIRS && q.len() <= NEWTON_DUAL_MAX_PAIRS {
            let lo = vec![FLOOR; q.len()];
            // The KL diagonal drifts by orders of magnitude near the
            // floor, so stale-metric steps converge only linearly at
            // this scale — refresh the factorization every step; the
            // dual kernel makes it cheap.
            let newton = newton::projected_newton_dual(
                &mut value_grad,
                |x: &[f64], d: &mut [f64]| {
                    for (dj, &xj) in d.iter_mut().zip(x) {
                        *dj = inv_lambda / xj.max(FLOOR);
                    }
                },
                a,
                sys.transpose(),
                &lo,
                x0.clone(),
                NewtonOptions {
                    tol: opts.tol,
                    refresh_every: 1,
                    ..Default::default()
                },
            )?;
            conv = Some(newton.convergence());
            if newton.converged {
                x_solution = Some(newton.x);
            }
        }
        let result_x = match x_solution {
            Some(x) => x,
            None => {
                let result = spg::spg(&mut value_grad, spg::project_floor(FLOOR), x0, opts)?;
                conv = Some(result.convergence());
                final_step = result.step;
                result.x
            }
        };

        let mut demands = ws.take(result_x.len());
        for (d, &v) in demands.iter_mut().zip(&result_x) {
            *d = if v <= 2.0 * FLOOR { 0.0 } else { v * stot };
        }
        if let Some(state_slot) = warm {
            *state_slot = Some(EntropyWarmStart {
                demands: demands.clone(),
                step: final_step,
                last_convergence: conv,
            });
        }
        ws.give(t);
        ws.give(q);
        ws.give(buf_r);
        ws.give(buf_g);
        ws.give(result_x);
        Ok(Estimate {
            demands,
            method: self.name(),
        })
    }
}

/// SPG options of every entropy solve; their tolerance is also the
/// Newton engines' stopping tolerance.
fn spg_options() -> SpgOptions {
    SpgOptions {
        max_iter: 4000,
        tol: 1e-9,
        ..Default::default()
    }
}

/// Above this many OD pairs the dense Newton engine hands over to the
/// dual (Woodbury) one: the dense factorization is cubic in the pair
/// count and loses to the `m×m` kernel at America scale (600 pairs).
const NEWTON_MAX_PAIRS: usize = 256;

/// Above this many OD pairs the solve stays on SPG and never tries the
/// dual Newton engine, which assembles and factors its `m×m` kernel
/// every step. The largest backbone system, America, has 600 pairs.
const NEWTON_DUAL_MAX_PAIRS: usize = 2048;

/// Warm-start state carried across the intervals of a streaming sweep —
/// see `EntropyCarry`.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub(crate) struct EntropyWarmStart {
    /// Previous interval's demand estimate (raw Mbps units).
    demands: Vec<f64>,
    /// Final spectral step of the previous SPG run (0 after a Newton
    /// tick; the SPG fallback then re-derives its first step).
    step: f64,
    /// Convergence report of the engine that produced the last solve.
    last_convergence: Option<Convergence>,
}

impl Estimator for EntropyEstimator {
    fn estimate_system(&self, sys: &MeasurementSystem<'_>, ws: &mut Workspace) -> Result<Estimate> {
        self.solve(sys, ws, None)
    }

    fn name(&self) -> String {
        format!("entropy(lambda={:.0e})", self.lambda)
    }
}

/// Entropy in a warm stream: the previous solution and spectral step
/// carried from tick to tick. At moderate scale the warm solve switches
/// to a projected Newton on the dense Hessian (from the first tick on);
/// past the dense gate the dual-kernel Newton runs on cold and warm
/// paths alike, with SPG as the fallback. The objective is strictly
/// convex, so the minimizer does not depend on the solver or starting
/// point — warm results agree with the cold path up to solver
/// tolerance.
pub(crate) struct EntropyCarry {
    pub(crate) est: EntropyEstimator,
    pub(crate) warm: Option<EntropyWarmStart>,
    /// The dense Newton path's `2AᵀA` Hessian base: a function of the
    /// routing matrix alone, built on first use and kept across
    /// quarantines; a checkpoint does not carry it.
    pub(crate) h_base: Option<Mat>,
}

impl WarmMethod for EntropyCarry {
    fn solve(&mut self, tick: &mut Tick<'_>) -> Option<Result<Estimate>> {
        Some(tick.snapshot_system().and_then(|(sys, ws)| {
            self.est
                .solve(sys, ws, Some((&mut self.warm, &mut self.h_base)))
        }))
    }

    fn snapshot(&self) -> Option<&dyn Estimator> {
        Some(&self.est)
    }

    fn convergence(&self) -> Option<Convergence> {
        self.warm.as_ref()?.last_convergence
    }

    fn reset(&mut self) {
        self.warm = None;
    }

    fn checkpoint(&self) -> Value {
        Value::tagged("entropy", &[("warm", &self.warm)])
    }

    fn restore(&mut self, v: &Value, _: &History<'_>) -> std::result::Result<(), DeError> {
        v.expect_kind("entropy")?;
        self.warm = Deserialize::from_value(v.field("warm")?)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{mean_relative_error, CoverageThreshold};
    use crate::problem::{DatasetExt, EstimationProblem};
    use tm_traffic::{DatasetSpec, EvalDataset};

    fn dataset() -> EvalDataset {
        EvalDataset::generate(DatasetSpec::tiny(), 23).unwrap()
    }

    #[test]
    fn small_lambda_returns_prior() {
        let d = dataset();
        let p = d.snapshot_problem(d.busy_start);
        let prior = GravityModel::simple().estimate(&p).unwrap().demands;
        let est = EntropyEstimator::new(1e-9).estimate(&p).unwrap();
        for i in 0..prior.len() {
            assert!(
                (est.demands[i] - prior[i]).abs() < 0.02 * (prior[i] + 1.0),
                "pair {i}: {} vs prior {}",
                est.demands[i],
                prior[i]
            );
        }
    }

    #[test]
    fn large_lambda_fits_measurements() {
        let d = dataset();
        let p = d.snapshot_problem(d.busy_start);
        let est = EntropyEstimator::new(1e6).estimate(&p).unwrap();
        let a = p.measurement_matrix();
        let t = p.measurements();
        let at = a.matvec(&est.demands);
        let scale = t.iter().cloned().fold(0.0f64, f64::max);
        for i in 0..t.len() {
            assert!(
                (at[i] - t[i]).abs() < 2e-3 * scale,
                "row {i}: {} vs {}",
                at[i],
                t[i]
            );
        }
    }

    #[test]
    fn large_lambda_beats_prior_on_mre() {
        let d = EvalDataset::generate(DatasetSpec::europe(), 42).unwrap();
        let p = d.snapshot_problem(d.busy_start);
        let truth = p.true_demands().unwrap().to_vec();
        let prior = GravityModel::simple().estimate(&p).unwrap().demands;
        let est = EntropyEstimator::new(1e3).estimate(&p).unwrap();
        let mre_prior = mean_relative_error(&truth, &prior, CoverageThreshold::Share(0.9)).unwrap();
        let mre_est =
            mean_relative_error(&truth, &est.demands, CoverageThreshold::Share(0.9)).unwrap();
        assert!(
            mre_est < mre_prior,
            "entropy {mre_est:.3} should beat gravity {mre_prior:.3}"
        );
    }

    #[test]
    fn dual_newton_path_matches_spg_at_america_scale() {
        // 600 pairs is past the dense-Newton gate: the cold solve runs
        // the dual projected Newton on the wide America system.
        let d = EvalDataset::generate(DatasetSpec::america(), 42).unwrap();
        let p = d.snapshot_problem(d.busy_start);
        assert!(p.n_pairs() > 256, "america must exceed the dense gate");
        assert_reaches_spg_minimizer(&p);
    }

    #[test]
    fn dual_newton_path_matches_spg_on_a_tall_system() {
        // 17 nodes whose routing gives every pair its own link: 272
        // pairs (past the dense gate) and 272 + 2·17 = 306 rows, so the
        // dual kernel is larger than the primal Hessian. It must still
        // reach the minimizer.
        let pairs = tm_net::OdPairs::new(17);
        let n = pairs.count();
        let demands: Vec<f64> = (0..n).map(|p| 1.0 + ((p * 37) % 11) as f64).collect();
        let routing = tm_linalg::Csr::from_triplets(n, n, (0..n).map(|p| (p, p, 1.0))).unwrap();
        let mut ingress = vec![0.0; 17];
        let mut egress = vec![0.0; 17];
        for (p, src, dst) in pairs.iter() {
            ingress[src.0] += demands[p];
            egress[dst.0] += demands[p];
        }
        let p = EstimationProblem::new(routing, demands, ingress, egress).unwrap();
        assert!(p.n_pairs() > 256, "must exceed the dense gate");
        assert!(p.measurement_matrix().rows() >= p.n_pairs(), "must be tall");
        assert_reaches_spg_minimizer(&p);
    }

    /// Entropy (λ = 1e3) must reach the minimizer of a long SPG run on
    /// the identical normalized objective: at least as low an objective
    /// and the same traffic-weighted shape.
    fn assert_reaches_spg_minimizer(p: &EstimationProblem) {
        let est = EntropyEstimator::new(1e3).estimate(p).unwrap();

        let a = p.measurement_matrix();
        let stot = p.total_traffic();
        let t: Vec<f64> = p.measurements().iter().map(|v| v / stot).collect();
        let q: Vec<f64> = GravityModel::simple()
            .estimate(p)
            .unwrap()
            .demands
            .iter()
            .map(|v| (v / stot).max(FLOOR))
            .collect();
        let inv_lambda = 1e-3;
        let spg_res = tm_opt::spg::spg(
            |s: &[f64], grad: &mut [f64]| {
                let r = tm_linalg::vector::sub(&a.matvec(s), &t);
                let g = a.tr_matvec(&r);
                let mut f = r.iter().map(|v| v * v).sum::<f64>();
                for j in 0..s.len() {
                    let sj = s[j].max(FLOOR);
                    let ratio = sj / q[j];
                    f += inv_lambda * (sj * ratio.ln() - sj + q[j]);
                    grad[j] = 2.0 * g[j] + inv_lambda * ratio.ln();
                }
                f
            },
            tm_opt::spg::project_floor(FLOOR),
            q.clone(),
            tm_opt::spg::SpgOptions {
                max_iter: 40_000,
                tol: 1e-9,
                ..Default::default()
            },
        )
        .unwrap();
        // The objective is strictly convex with a unique minimizer; the
        // Newton solution must be at least as optimal as the (long)
        // SPG reference run — SPG's linear terminal rate is exactly why
        // the second-order path exists at this scale.
        let objective = |x: &[f64]| {
            let r = tm_linalg::vector::sub(&a.matvec(x), &t);
            let mut f = r.iter().map(|v| v * v).sum::<f64>();
            for j in 0..x.len() {
                let xj = x[j].max(FLOOR);
                f += inv_lambda * (xj * (xj / q[j]).ln() - xj + q[j]);
            }
            f
        };
        let newton_x: Vec<f64> = est.demands.iter().map(|v| (v / stot).max(FLOOR)).collect();
        let f_newton = objective(&newton_x);
        let f_spg = objective(&spg_res.x);
        assert!(
            f_newton <= f_spg + 1e-9 * f_spg.abs().max(1.0),
            "newton objective {f_newton} vs spg {f_spg}"
        );
        // And the two agree on the traffic-weighted shape.
        let scale = est.demands.iter().cloned().fold(0.0f64, f64::max);
        for j in 0..est.demands.len() {
            let want = spg_res.x[j] * stot;
            assert!(
                (est.demands[j] - want).abs() < 1e-3 * scale,
                "pair {j}: newton {} vs spg {}",
                est.demands[j],
                want
            );
        }
    }

    #[test]
    fn nonnegative_output() {
        let d = dataset();
        let p = d.snapshot_problem(0);
        let est = EntropyEstimator::new(100.0).estimate(&p).unwrap();
        assert!(est.demands.iter().all(|&v| v >= 0.0 && v.is_finite()));
    }

    #[test]
    fn validates_inputs() {
        let d = dataset();
        let p = d.snapshot_problem(0);
        assert!(EntropyEstimator::new(0.0).estimate(&p).is_err());
        assert!(EntropyEstimator::new(-1.0).estimate(&p).is_err());
        assert!(EntropyEstimator::new(1.0)
            .with_prior(vec![1.0])
            .estimate(&p)
            .is_err());
    }

    #[test]
    fn name_mentions_lambda() {
        assert!(EntropyEstimator::new(1000.0).name().contains("1e3"));
        assert_eq!(EntropyEstimator::new(1000.0).lambda(), 1000.0);
    }
}
