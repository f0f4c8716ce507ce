//! Kruithof's projection method (paper §4.2.1).
//!
//! Kruithof (1937) adjusts a prior matrix to measured row/column totals;
//! Krupp (1979) showed the iteration minimizes the KL distance from the
//! prior and generalized it to arbitrary linear constraints. Both forms
//! are exposed:
//!
//! * [`KruithofEstimator::marginals`] — classic biproportional fit of the
//!   prior to the ingress/egress totals (no interior information);
//! * [`KruithofEstimator::full`] — generalized iterative scaling onto
//!   the complete measurement system `A·s = t`, i.e. the exact-constraint
//!   (`σ² → ∞`) limit of the entropy estimator of Eq. (6).

use serde::{DeError, Deserialize, Serialize, Value};
use tm_linalg::Mat;
use tm_opt::ipf::{self, IpfOptions};

use crate::gravity::GravityModel;
use crate::problem::{Estimate, Estimator};
use crate::stream::{History, Tick, WarmMethod};
use crate::system::MeasurementSystem;
use crate::Result;

/// Which constraint set the projection enforces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    Marginals,
    Full,
}

/// GIS over-relaxation factor used by the streaming warm path (the
/// safeguarded adaptive scheme in `tm_opt::ipf` halves it on any
/// violation growth, so convergence — to the same I-projection — is
/// preserved; ω = 3 cuts sweep counts ~3x on the backbone systems).
/// The cold path keeps ω = 1 and stays bit-identical to a plain
/// `estimate_system`.
const WARM_RELAXATION: f64 = 3.0;

/// Kruithof / iterative-scaling estimator.
#[derive(Debug, Clone)]
pub struct KruithofEstimator {
    mode: Mode,
    prior: Option<Vec<f64>>,
    opts: IpfOptions,
}

/// Warm-start state carried across the intervals of a streaming sweep —
/// see [`KruithofEstimator::estimate_system_warm`].
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct KruithofWarmStart {
    /// Per-pair scaling multipliers `s/prior` of the previous solution.
    multipliers: Vec<f64>,
}

impl KruithofEstimator {
    /// Project the prior onto the ingress/egress marginal totals.
    pub fn marginals() -> Self {
        KruithofEstimator {
            mode: Mode::Marginals,
            prior: None,
            opts: IpfOptions {
                max_iter: 5_000,
                tol: 1e-9,
                ..Default::default()
            },
        }
    }

    /// Project the prior onto the full measurement system `A·s = t`.
    ///
    /// The GIS fixed-point iteration runs Anderson-accelerated (depth
    /// 3, safeguarded — see [`IpfOptions::anderson_depth`]): the fixed
    /// point, the I-projection of the prior, is unchanged; only the
    /// sweep count collapses. This applies to the cold path too — the
    /// projection is solver-independent, so cold and warm streaming
    /// results agree as before.
    pub fn full() -> Self {
        KruithofEstimator {
            mode: Mode::Full,
            prior: None,
            opts: IpfOptions {
                max_iter: 50_000,
                tol: 1e-7,
                anderson_depth: 3,
                ..Default::default()
            },
        }
    }

    /// Use an explicit prior (defaults to the simple gravity estimate;
    /// note that the gravity estimate already matches the marginals, so
    /// pairing [`KruithofEstimator::marginals`] with the default prior is
    /// a fixed point — supply a different prior to see adjustment).
    pub fn with_prior(mut self, prior: impl Into<Vec<f64>>) -> Self {
        self.prior = Some(prior.into());
        self
    }

    /// Override iteration options.
    pub fn with_options(mut self, opts: IpfOptions) -> Self {
        self.opts = opts;
        self
    }

    /// The configured options.
    pub fn options(&self) -> IpfOptions {
        self.opts
    }

    /// [`Estimator::estimate_system`] with a warm-start handle carried
    /// across the intervals of a streaming sweep. For the **full**
    /// (GIS) mode the previous interval's scaling multipliers
    /// `s⁽ᵏ⁻¹⁾/prior⁽ᵏ⁻¹⁾` seed the iterate `prior⁽ᵏ⁾·mult`, which stays
    /// on the exponential manifold GIS projects within — the fixed
    /// point is unchanged, only the sweep count collapses when
    /// consecutive load vectors are close. The marginals (RAS) mode is
    /// already microseconds per interval and ignores the handle. With
    /// `warm = &mut None` the first call is exactly the cold path.
    pub fn estimate_system_warm(
        &self,
        sys: &MeasurementSystem<'_>,
        ws: &mut tm_linalg::Workspace,
        warm: &mut Option<KruithofWarmStart>,
    ) -> Result<Estimate> {
        if self.mode == Mode::Marginals {
            return self.estimate_system(sys, ws);
        }
        let prior = self.resolve_prior(sys)?;
        let a = sys.matrix();
        let t = sys.measurements();
        let plan = sys.gis_plan()?;
        let warm_iterate: Option<Vec<f64>> = match warm.as_ref() {
            Some(state) if state.multipliers.len() == prior.len() => Some(
                prior
                    .iter()
                    .zip(&state.multipliers)
                    .map(|(&q, &m)| q * m)
                    .collect(),
            ),
            _ => None,
        };
        let mut opts = self.opts;
        if opts.relaxation <= 1.0 {
            opts.relaxation = WARM_RELAXATION;
        }
        let res = ipf::gis(&prior, a, t, plan, opts, warm_iterate.as_deref())?;
        let multipliers = res
            .values
            .iter()
            .zip(&prior)
            .map(|(&s, &q)| if q > 0.0 { s / q } else { 0.0 })
            .collect();
        *warm = Some(KruithofWarmStart { multipliers });
        Ok(Estimate {
            demands: res.values,
            method: self.name(),
        })
    }

    fn resolve_prior(&self, sys: &MeasurementSystem<'_>) -> Result<Vec<f64>> {
        match &self.prior {
            Some(p) => {
                if p.len() != sys.n_pairs() {
                    return Err(crate::error::EstimationError::InvalidProblem(format!(
                        "prior has {} entries for {} pairs",
                        p.len(),
                        sys.n_pairs()
                    )));
                }
                Ok(p.clone())
            }
            None => Ok(GravityModel::simple()
                .estimate_system(sys, &mut tm_linalg::Workspace::new())?
                .demands),
        }
    }
}

impl Estimator for KruithofEstimator {
    fn estimate_system(
        &self,
        sys: &MeasurementSystem<'_>,
        _ws: &mut tm_linalg::Workspace,
    ) -> Result<Estimate> {
        let problem = sys.problem();
        let prior = self.resolve_prior(sys)?;
        let pairs = problem.pairs();
        let n = problem.n_nodes();

        let demands = match self.mode {
            Mode::Marginals => {
                // Arrange the prior as an N×N matrix with zero diagonal;
                // RAS to ingress (row) and egress (column) totals. The
                // measurement matrix is never touched.
                let mut prior_mat = Mat::zeros(n, n);
                for (p, src, dst) in pairs.iter() {
                    prior_mat.set(src.0, dst.0, prior[p]);
                }
                let res = ipf::ras(&prior_mat, problem.ingress(), problem.egress(), self.opts)?;
                let fitted = Mat::from_vec(n, n, res.values);
                let mut demands = vec![0.0; pairs.count()];
                for (p, src, dst) in pairs.iter() {
                    demands[p] = fitted.get(src.0, dst.0);
                }
                demands
            }
            Mode::Full => {
                let a = sys.matrix();
                let t = sys.measurements();
                let res = ipf::gis(&prior, a, t, sys.gis_plan()?, self.opts, None)?;
                res.values
            }
        };
        Ok(Estimate {
            demands,
            method: self.name(),
        })
    }

    fn name(&self) -> String {
        match self.mode {
            Mode::Marginals => "kruithof-marginals".into(),
            Mode::Full => "kruithof-full".into(),
        }
    }
}

/// Kruithof-full in a warm stream: the previous GIS multipliers carried
/// from tick to tick.
pub(crate) struct KruithofCarry {
    pub(crate) est: KruithofEstimator,
    pub(crate) warm: Option<KruithofWarmStart>,
}

impl WarmMethod for KruithofCarry {
    fn solve(&mut self, tick: &mut Tick<'_>) -> Option<Result<Estimate>> {
        Some(
            tick.snapshot_system()
                .and_then(|(sys, ws)| self.est.estimate_system_warm(sys, ws, &mut self.warm)),
        )
    }

    fn snapshot(&self) -> Option<&dyn Estimator> {
        Some(&self.est)
    }

    fn reset(&mut self) {
        self.warm = None;
    }

    fn checkpoint(&self) -> Value {
        Value::tagged("kruithof", &[("warm", &self.warm)])
    }

    fn restore(&mut self, v: &Value, _: &History<'_>) -> std::result::Result<(), DeError> {
        v.expect_kind("kruithof")?;
        self.warm = Deserialize::from_value(v.field("warm")?)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::{DatasetExt, EstimationProblem};
    use tm_traffic::{DatasetSpec, EvalDataset};

    fn problem() -> EstimationProblem {
        let d = EvalDataset::generate(DatasetSpec::tiny(), 31).unwrap();
        d.snapshot_problem(d.busy_start)
    }

    #[test]
    fn marginals_fit_ingress_egress() {
        let p = problem();
        // Uniform prior: the fit must still hit the marginals.
        let uniform = vec![1.0; p.n_pairs()];
        let est = KruithofEstimator::marginals()
            .with_prior(uniform)
            .estimate(&p)
            .unwrap();
        let pairs = p.pairs();
        let n = p.n_nodes();
        for node in 0..n {
            let row: f64 = pairs
                .from_source(tm_net::NodeId(node))
                .iter()
                .map(|&q| est.demands[q])
                .sum();
            let col: f64 = pairs
                .to_destination(tm_net::NodeId(node))
                .iter()
                .map(|&q| est.demands[q])
                .sum();
            assert!(
                (row - p.ingress()[node]).abs() < 1e-6 * (1.0 + p.ingress()[node]),
                "row {node}"
            );
            assert!(
                (col - p.egress()[node]).abs() < 1e-6 * (1.0 + p.egress()[node]),
                "col {node}"
            );
        }
    }

    #[test]
    fn marginals_projection_adjusts_gravity() {
        // The gravity estimate is NOT marginal-consistent (the zero
        // diagonal skews row/column sums — the paper notes "the model may
        // not even produce consistent estimates of the total traffic
        // exiting each node"). Kruithof's projection must repair that
        // while staying close to the prior.
        let p = problem();
        let gravity = GravityModel::simple().estimate(&p).unwrap();
        let est = KruithofEstimator::marginals().estimate(&p).unwrap();
        let pairs = p.pairs();
        // Adjusted estimate hits the marginals even though gravity does not.
        for node in 0..p.n_nodes() {
            let row: f64 = pairs
                .from_source(tm_net::NodeId(node))
                .iter()
                .map(|&q| est.demands[q])
                .sum();
            assert!(
                (row - p.ingress()[node]).abs() < 1e-6 * (1.0 + p.ingress()[node]),
                "row {node}"
            );
        }
        // Stays within a modest multiplicative band of the prior.
        for i in 0..p.n_pairs() {
            if gravity.demands[i] > 1.0 {
                let ratio = est.demands[i] / gravity.demands[i];
                assert!((0.2..5.0).contains(&ratio), "pair {i}: ratio {ratio}");
            }
        }
    }

    #[test]
    fn full_projection_satisfies_link_loads() {
        let p = problem();
        let est = KruithofEstimator::full().estimate(&p).unwrap();
        let a = p.measurement_matrix();
        let t = p.measurements();
        let at = a.matvec(&est.demands);
        let scale = t.iter().cloned().fold(0.0f64, f64::max);
        for i in 0..t.len() {
            assert!(
                (at[i] - t[i]).abs() < 1e-5 * scale,
                "row {i}: {} vs {}",
                at[i],
                t[i]
            );
        }
        assert!(est.demands.iter().all(|&v| v >= 0.0));
    }

    #[test]
    fn full_beats_gravity_on_mre() {
        // Interior information must help relative to gravity alone.
        use crate::metrics::{mean_relative_error, CoverageThreshold};
        let d = EvalDataset::generate(DatasetSpec::europe(), 9).unwrap();
        let p = d.snapshot_problem(d.busy_start);
        let truth = p.true_demands().unwrap().to_vec();
        let g = GravityModel::simple().estimate(&p).unwrap();
        let k = KruithofEstimator::full().estimate(&p).unwrap();
        let mre_g = mean_relative_error(&truth, &g.demands, CoverageThreshold::Share(0.9)).unwrap();
        let mre_k = mean_relative_error(&truth, &k.demands, CoverageThreshold::Share(0.9)).unwrap();
        assert!(
            mre_k < mre_g,
            "kruithof-full {mre_k:.3} should beat gravity {mre_g:.3}"
        );
    }

    #[test]
    fn prior_length_validated() {
        let p = problem();
        let est = KruithofEstimator::full().with_prior(vec![1.0]).estimate(&p);
        assert!(est.is_err());
    }

    #[test]
    fn names() {
        assert_eq!(KruithofEstimator::marginals().name(), "kruithof-marginals");
        assert_eq!(KruithofEstimator::full().name(), "kruithof-full");
    }
}
