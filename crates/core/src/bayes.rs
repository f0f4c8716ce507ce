//! The Bayesian / MAP estimator (paper Eq. 7).
//!
//! With a Gaussian prior `s ∼ N(s⁽ᵖ⁾, σ²I)` and unit-variance white
//! measurement noise, the maximum a posteriori estimate solves
//!
//! ```text
//! minimize  ‖A·s − t‖²  +  (1/λ)·‖s − s⁽ᵖ⁾‖²     over s ≥ 0
//! ```
//!
//! (λ = σ² is the regularization parameter of Figs. 13 and 15). Solved
//! *exactly* by the dual-form active-set Tikhonov NNLS, which stays
//! stable for the large λ where the paper finds the best MREs.

use serde::{DeError, Deserialize, Serialize, Value};
use tm_linalg::Workspace;
use tm_opt::nnls;
use tm_opt::nnls::RidgeKernel;

use crate::gravity::GravityModel;
use crate::problem::{Estimate, Estimator};
use crate::stream::{History, Tick, WarmMethod};
use crate::system::MeasurementSystem;
use crate::Result;

/// Bayesian (regularized least squares) estimator.
#[derive(Debug, Clone)]
pub struct BayesianEstimator {
    lambda: f64,
    prior: Option<Vec<f64>>,
}

impl BayesianEstimator {
    /// Create with regularization parameter λ = σ².
    pub fn new(lambda: f64) -> Self {
        BayesianEstimator {
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

    /// The solve, with normalization temporaries drawn from (and
    /// returned to) the workspace pool. The measurement matrix and its
    /// transpose (the NNLS column view) come from the prepared system.
    fn solve(
        &self,
        sys: &MeasurementSystem<'_>,
        ws: &mut Workspace,
        warm: Option<&mut BayesWarmStart>,
    ) -> Result<Estimate> {
        if !(self.lambda > 0.0) {
            return Err(crate::error::EstimationError::InvalidProblem(
                "bayes: lambda must be positive".into(),
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
        let mut t = ws.take(t_raw.len());
        for (d, &v) in t.iter_mut().zip(t_raw) {
            *d = v / stot;
        }
        let mut prior = ws.take(prior_raw.len());
        for (d, &v) in prior.iter_mut().zip(&prior_raw) {
            *d = v / stot;
        }

        let mu = 1.0 / self.lambda;
        let sol = match warm {
            Some(state) => {
                nnls::ridge_nnls_kernel(a, sys.transpose(), &t, mu, &prior, 0, &mut state.kernel)?
            }
            None => nnls::ridge_nnls(a, sys.transpose(), &t, mu, &prior, 0, None)?,
        };
        let mut demands = ws.take(sol.x.len());
        for (d, &v) in demands.iter_mut().zip(&sol.x) {
            *d = v * stot;
        }
        ws.give(t);
        ws.give(prior);
        ws.give(sol.x);
        Ok(Estimate {
            demands,
            method: self.name(),
        })
    }
}

/// Warm-start state carried across the intervals of a streaming sweep —
/// see `BayesCarry`.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub(crate) struct BayesWarmStart {
    /// Cached factorized active-set kernel.
    kernel: Option<RidgeKernel>,
}

impl Estimator for BayesianEstimator {
    fn estimate_system(&self, sys: &MeasurementSystem<'_>, ws: &mut Workspace) -> Result<Estimate> {
        self.solve(sys, ws, None)
    }

    fn name(&self) -> String {
        format!("bayes(lambda={:.0e})", self.lambda)
    }
}

/// Bayes in a warm stream: the factorized dual-form kernel
/// `A_F·A_Fᵀ + μI` of the previous tick's active set is carried
/// ([`RidgeKernel`]); when the set has not moved — the common case
/// between consecutive intervals — one cached-Cholesky solve plus a KKT
/// check replaces the whole active-set loop. The objective is strictly
/// convex, so warm and cold solutions agree up to solver tolerance; the
/// first tick starts exactly like the cold path (and installs the
/// kernel).
pub(crate) struct BayesCarry {
    pub(crate) est: BayesianEstimator,
    pub(crate) warm: BayesWarmStart,
}

impl WarmMethod for BayesCarry {
    fn solve(&mut self, tick: &mut Tick<'_>) -> Option<Result<Estimate>> {
        Some(
            tick.snapshot_system()
                .and_then(|(sys, ws)| self.est.solve(sys, ws, Some(&mut self.warm))),
        )
    }

    fn snapshot(&self) -> Option<&dyn Estimator> {
        Some(&self.est)
    }

    fn reset(&mut self) {
        self.warm = BayesWarmStart::default();
    }

    fn checkpoint(&self) -> Value {
        Value::tagged("bayes", &[("warm", &self.warm)])
    }

    fn restore(&mut self, v: &Value, _: &History<'_>) -> std::result::Result<(), DeError> {
        v.expect_kind("bayes")?;
        self.warm = Deserialize::from_value(v.field("warm")?)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{mean_relative_error, CoverageThreshold};
    use crate::problem::DatasetExt;
    use tm_linalg::vector;
    use tm_traffic::{DatasetSpec, EvalDataset};

    fn dataset() -> EvalDataset {
        EvalDataset::generate(DatasetSpec::tiny(), 29).unwrap()
    }

    #[test]
    fn small_lambda_returns_prior() {
        let d = dataset();
        let p = d.snapshot_problem(d.busy_start);
        let prior = GravityModel::simple().estimate(&p).unwrap().demands;
        let est = BayesianEstimator::new(1e-9).estimate(&p).unwrap();
        for i in 0..prior.len() {
            assert!(
                (est.demands[i] - prior[i]).abs() < 1e-3 * (prior[i] + 1.0),
                "pair {i}"
            );
        }
    }

    #[test]
    fn large_lambda_fits_measurements() {
        let d = dataset();
        let p = d.snapshot_problem(d.busy_start);
        let est = BayesianEstimator::new(1e8).estimate(&p).unwrap();
        let a = p.measurement_matrix();
        let t = p.measurements();
        let at = a.matvec(&est.demands);
        let resid = vector::norm2(&vector::sub(&at, &t));
        let scale = vector::norm2(&t);
        assert!(resid < 1e-4 * scale, "relative residual {}", resid / scale);
    }

    #[test]
    fn solution_solves_the_stated_program() {
        // KKT check in normalized units against the tm-opt verifier.
        let d = dataset();
        let p = d.snapshot_problem(d.busy_start);
        let lambda = 10.0;
        let prior = GravityModel::simple().estimate(&p).unwrap().demands;
        let est = BayesianEstimator::new(lambda).estimate(&p).unwrap();
        let stot = p.total_traffic();
        let a = p.measurement_matrix().to_dense();
        let t: Vec<f64> = p.measurements().iter().map(|v| v / stot).collect();
        let prior_n: Vec<f64> = prior.iter().map(|v| v / stot).collect();
        let x: Vec<f64> = est.demands.iter().map(|v| v / stot).collect();
        let viol = nnls::kkt_violation(&a, &t, 1.0 / lambda, Some(&prior_n), &x);
        assert!(viol < 1e-6, "KKT violation {viol}");
    }

    #[test]
    fn large_lambda_beats_prior_on_mre() {
        let d = EvalDataset::generate(DatasetSpec::europe(), 42).unwrap();
        let p = d.snapshot_problem(d.busy_start);
        let truth = p.true_demands().unwrap().to_vec();
        let prior = GravityModel::simple().estimate(&p).unwrap().demands;
        let est = BayesianEstimator::new(1e3).estimate(&p).unwrap();
        let mre_prior = mean_relative_error(&truth, &prior, CoverageThreshold::Share(0.9)).unwrap();
        let mre_est =
            mean_relative_error(&truth, &est.demands, CoverageThreshold::Share(0.9)).unwrap();
        assert!(
            mre_est < mre_prior,
            "bayes {mre_est:.3} should beat gravity {mre_prior:.3}"
        );
    }

    #[test]
    fn validates_inputs() {
        let d = dataset();
        let p = d.snapshot_problem(0);
        assert!(BayesianEstimator::new(0.0).estimate(&p).is_err());
        assert!(BayesianEstimator::new(1.0)
            .with_prior(vec![1.0])
            .estimate(&p)
            .is_err());
    }

    #[test]
    fn nonnegative_output_and_name() {
        let d = dataset();
        let p = d.snapshot_problem(0);
        let est = BayesianEstimator::new(50.0).estimate(&p).unwrap();
        assert!(est.demands.iter().all(|&v| v >= 0.0 && v.is_finite()));
        assert!(BayesianEstimator::new(50.0).name().contains("bayes"));
        assert_eq!(BayesianEstimator::new(50.0).lambda(), 50.0);
    }
}
