//! Vardi's Poisson moment-matching method (paper §4.2.2).
//!
//! Under `s_p ∼ Poisson(λ_p)`, the link loads satisfy `E{t} = A·λ` and
//! `Cov{t} = A·diag(λ)·Aᵀ` — both *linear* in λ. Following the paper
//! (and Csiszár's argument for least squares over KL on possibly
//! negative sample moments), the estimate solves the nonnegative least
//! squares problem
//!
//! ```text
//! minimize  ‖A·λ − t̂‖²  +  σ⁻²·‖M·λ − vech(Σ̂)‖²     over λ ≥ 0
//! ```
//!
//! with `t̂, Σ̂` the sample mean/covariance over a `K`-interval window.
//! `σ⁻² ∈ [0, 1]` expresses faith in the Poisson assumption (Table 1
//! evaluates 0.01 and 1). The stacked system is sparse; SPG solves it.

use serde::{DeError, Deserialize, Serialize, Value};
use tm_linalg::{vector, Csr};
use tm_opt::nnls::{self, SsnState};
use tm_opt::spg::{self, SpgOptions};
use tm_opt::Convergence;

use crate::covariance::RollingMoments;
use crate::error::EstimationError;
use crate::problem::{Estimate, Estimator};
use crate::stream::{History, Tick, WarmMethod};
use crate::system::MeasurementSystem;
use crate::Result;

/// Vardi's method — a time-series [`Estimator`]: it consumes the
/// problem's measurement window and fails with
/// [`EstimationError::MissingTimeSeries`] on bare snapshots.
#[derive(Debug, Clone)]
pub struct VardiEstimator {
    /// Weight σ⁻² on the second-moment equations.
    moment_weight: f64,
    opts: SpgOptions,
}

impl VardiEstimator {
    /// Create with second-moment weight σ⁻² (Table 1 uses 0.01 and 1).
    pub fn new(moment_weight: f64) -> Self {
        VardiEstimator {
            moment_weight,
            opts: SpgOptions {
                max_iter: 3000,
                tol: 1e-8,
                ..Default::default()
            },
        }
    }

    /// Override solver options.
    pub fn with_options(mut self, opts: SpgOptions) -> Self {
        self.opts = opts;
        self
    }

    /// The configured σ⁻².
    pub fn moment_weight(&self) -> f64 {
        self.moment_weight
    }

    /// Estimate mean rates λ from a prepared system's time-series
    /// window, reusing its cached measurement matrix and second-moment
    /// system.
    pub fn estimate_prepared(&self, msys: &MeasurementSystem<'_>) -> Result<Estimate> {
        let problem = msys.problem();
        let ts = problem
            .time_series()
            .ok_or(EstimationError::MissingTimeSeries)?;
        let k = ts.len();
        if k < 2 {
            return Err(EstimationError::InvalidProblem(
                "vardi: need at least 2 intervals".into(),
            ));
        }
        // Assemble the per-interval measurement vectors.
        let mut series = Vec::with_capacity(k);
        for i in 0..k {
            series.push(msys.measurements_at(i)?);
        }
        let moments = msys.second_moments().sample_moments(&series)?;
        // Prefer the ingress totals when present (exact total traffic).
        let mean_ingress: f64 = ts
            .ingress
            .iter()
            .map(|v| v.iter().sum::<f64>())
            .sum::<f64>()
            / k as f64;
        self.estimate_from_moments(msys, &moments, mean_ingress)
    }

    /// Estimate mean rates λ directly from precomputed window moments —
    /// the cold path of [`VardiEstimator::estimate_prepared`], without
    /// the per-call series assembly and sample covariance.
    ///
    /// * `moments` must be aligned with the prepared system's
    ///   [`SecondMomentSystem`](crate::covariance::SecondMomentSystem).
    /// * `mean_ingress` is the mean per-interval total ingress traffic
    ///   over the window (pass `0.0` to fall back to the mean link
    ///   loads for normalization).
    pub fn estimate_from_moments(
        &self,
        msys: &MeasurementSystem<'_>,
        moments: &crate::covariance::SampleMoments,
        mean_ingress: f64,
    ) -> Result<Estimate> {
        self.solve(msys, moments, mean_ingress, None)
    }

    /// The moment solve; `warm` carries the previous interval's
    /// solution and spectral step, and caches the stacked `[A; √w·M]`
    /// system and its Gram — both constant across intervals.
    fn solve(
        &self,
        msys: &MeasurementSystem<'_>,
        moments: &crate::covariance::SampleMoments,
        mean_ingress: f64,
        warm: Option<(&mut VardiWarmStart, &mut VardiCache)>,
    ) -> Result<Estimate> {
        if self.moment_weight < 0.0 {
            return Err(EstimationError::InvalidProblem(
                "vardi: moment weight must be nonnegative".into(),
            ));
        }
        let problem = msys.problem();
        let a = msys.matrix();
        if moments.mean.len() != a.rows() {
            return Err(EstimationError::InvalidProblem(format!(
                "vardi: moments carry {} mean rows for {} measurement rows",
                moments.mean.len(),
                a.rows()
            )));
        }

        // Normalize: mean loads by total traffic, covariances by its square.
        let stot: f64 = {
            let total: f64 = moments.mean[..a.rows()]
                .iter()
                .take(problem.n_links())
                .sum::<f64>()
                .max(1.0);
            if mean_ingress > 0.0 {
                mean_ingress
            } else {
                total
            }
        };
        let t_hat: Vec<f64> = moments.mean.iter().map(|v| v / stot).collect();

        // The Poisson relation Cov{t} = M·λ is a statement about *counts*;
        // following the paper we apply it to the measured rates directly
        // (λ in Mbps), so in the 1/stot-scaled variables the second-moment
        // rows read M·λ̃ = vech(Σ̂)/stot. On real (non-Poissonian) traffic
        // whose variance grows like φ·λᶜ with c > 1, these equations demand
        // λ values orders of magnitude too large — exactly the failure mode
        // Table 1 reports at σ⁻² = 1.
        let cov_hat: Vec<f64> = moments.cov_vech.iter().map(|v| v / stot).collect();

        // Stack [A; √w·M] and [t̂; √w·vech Σ̂]. The stacked matrix depends
        // only on the routing pattern and σ⁻², so a streaming carry
        // caches it across intervals.
        let w = self.moment_weight.sqrt();
        let (mut warm, mut cache) = warm.unzip();
        let b = match cache.as_mut().and_then(|c| c.stacked.take()) {
            Some(b) => b,
            None => {
                let sys = msys.second_moments();
                let scaled_m = scale_csr(&sys.matrix, w);
                a.vstack(&scaled_m).map_err(EstimationError::Linalg)?
            }
        };
        if b.rows() != a.rows() + cov_hat.len() {
            return Err(EstimationError::InvalidProblem(format!(
                "vardi: moments carry {} covariance rows for a {}-row stacked system",
                cov_hat.len(),
                b.rows()
            )));
        }
        let mut rhs = t_hat;
        rhs.extend(cov_hat.iter().map(|v| v * w));

        let mut opts = self.opts;
        let x0 = match warm.as_deref() {
            Some(state) if state.demands.len() == a.cols() => {
                opts.initial_step = state.step;
                state.demands.iter().map(|&v| (v / stot).max(0.0)).collect()
            }
            _ => vec![1.0 / a.cols() as f64; a.cols()],
        };

        // Streaming second-order path: the stacked NNLS is solved by a
        // semismooth Newton on the (constant-per-stream) stacked Gram
        // `AᵀA + w·MᵀM`, factored against the measurement system's
        // cached symbolic analysis. The moment objective is a
        // rank-deficient least-squares problem whose optimal face is
        // not a single point, so a tiny proximal pull `μ‖x − x₀‖²`
        // toward the previous interval's solution both keeps the
        // reduced systems definite and selects the face point nearest
        // the previous one — the same face-diameter divergence class as
        // the SPG warm start it replaces (pinned at ≤ 2e-5 MRE in the
        // stream tests). The cold path below stays SPG, bit-identical
        // to a plain `estimate_system`.
        let mut x_solution: Option<Vec<f64>> = None;
        let mut final_step = 0.0;
        let mut spg_conv: Option<Convergence> = None;
        // The second-order tracker engages only once the window's
        // sample covariance drifts slowly (steady state) — while the
        // window fills, the rank-deficient objective's optimal face
        // moves fast and the SSN face point would wander measurably
        // away from the cold trajectory; those ticks keep the PR 4 SPG
        // warm path, whose divergence bound is pinned by the stream
        // tests. Same gate construction as the Cao tracker.
        let drift_ok = match warm.as_deref_mut() {
            Some(state) => {
                let ok = state.prev_cov.len() == cov_hat.len() && {
                    let num: f64 = cov_hat
                        .iter()
                        .zip(&state.prev_cov)
                        .map(|(a, b)| (a - b) * (a - b))
                        .sum::<f64>()
                        .sqrt();
                    let den: f64 = state
                        .prev_cov
                        .iter()
                        .map(|v| v * v)
                        .sum::<f64>()
                        .sqrt()
                        .max(1e-300);
                    num / den <= SSN_DRIFT_GATE
                };
                state.prev_cov = cov_hat.clone();
                ok
            }
            None => false,
        };
        if let (Some(state), Some(cache)) = (warm.as_deref_mut(), cache.as_deref_mut()) {
            if drift_ok && a.cols() <= SSN_MAX_PAIRS {
                x_solution = self.ssn_step(msys, state, &mut cache.gram, &b, &rhs, &x0);
            }
        }
        let result_x = match x_solution {
            Some(x) => x,
            None => {
                let mut buf_r = vec![0.0; b.rows()];
                let mut buf_g = vec![0.0; b.cols()];
                let result = spg::spg(
                    |x: &[f64], grad: &mut [f64]| {
                        b.matvec_into(x, &mut buf_r);
                        for (i, ri) in buf_r.iter_mut().enumerate() {
                            *ri -= rhs[i];
                        }
                        b.tr_matvec_into(&buf_r, &mut buf_g);
                        for j in 0..x.len() {
                            grad[j] = 2.0 * buf_g[j];
                        }
                        buf_r.iter().map(|r| r * r).sum::<f64>()
                    },
                    vector::project_nonneg,
                    x0,
                    opts,
                )?;
                spg_conv = Some(result.convergence());
                final_step = result.step;
                result.x
            }
        };

        let demands: Vec<f64> = result_x.iter().map(|&v| v * stot).collect();
        if let Some(cache) = cache {
            cache.stacked = Some(b);
        }
        if let Some(state) = warm {
            state.demands = demands.clone();
            state.step = final_step;
            // The SSN path records its own report inside `ssn_step`;
            // only overwrite it when the SPG stage actually ran.
            if let Some(c) = spg_conv {
                state.last_convergence = Some(c);
            }
        }
        Ok(Estimate {
            demands,
            method: format!("vardi(w={:.0e})", self.moment_weight),
        })
    }
}

/// Proximal weight of the streaming semismooth-Newton solve (normalized
/// units, where the stacked Gram's diagonal is O(1)): large enough to
/// keep every reduced system positive definite on the rank-deficient
/// optimal face, small enough that the face-point bias stays inside
/// the pinned warm-vs-cold divergence budget on the short-window
/// stream tests (a stronger anchor drags the warm trajectory's face
/// point measurably away from the cold one as the window fills).
const SSN_PROX_MU: f64 = 1e-8;

/// Relative per-tick covariance drift below which the streaming
/// semismooth-Newton tracker engages; a `K`-interval window drifts by
/// ~1/K per tick at steady state, so the paper's K = 50 windows sit
/// well under the gate while short filling windows stay on the SPG
/// stages.
const SSN_DRIFT_GATE: f64 = 0.1;

/// Above this many OD pairs the streaming solve keeps the SPG warm
/// path: the stacked-Gram kernel's factor fills toward dense at
/// backbone scale, and the optimal face churns enough per tick that
/// factor reuse rarely pays — the measured crossover on this substrate
/// sits between Europe (132 pairs, ~8x from the carried factor) and
/// America (600 pairs, parity at best). Same shape as the entropy
/// dense-Newton gate.
const SSN_MAX_PAIRS: usize = 256;

impl VardiEstimator {
    /// One streaming semismooth-Newton solve (kept out of the main
    /// solve so the cold path's hot loops stay compact). Returns `None`
    /// when the solver declines — the caller falls back to warm SPG.
    fn ssn_step(
        &self,
        msys: &MeasurementSystem<'_>,
        state: &mut VardiWarmStart,
        gram: &mut Option<Csr>,
        b: &Csr,
        rhs: &[f64],
        x0: &[f64],
    ) -> Option<Vec<f64>> {
        let kern = msys.moment_kernel();
        let gram = gram.get_or_insert_with(|| kern.weighted_gram(self.moment_weight));
        match nnls::ssn_nnls(
            b,
            rhs,
            SSN_PROX_MU,
            Some(x0),
            gram,
            &kern.sym,
            &mut state.ssn,
            true,
        ) {
            Ok(sol) => {
                state.last_convergence = Some(sol.convergence());
                Some(sol.x)
            }
            Err(_) => None,
        }
    }
}

/// Warm-start state carried across the intervals of a streaming sweep —
/// see `VardiCarry`.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub(crate) struct VardiWarmStart {
    /// Previous interval's demand estimate (raw Mbps units).
    demands: Vec<f64>,
    /// Final spectral step of the previous SPG run (`0` after a
    /// semismooth-Newton tick).
    step: f64,
    /// Carried semismooth-Newton active set + factor.
    ssn: SsnState,
    /// Previous tick's normalized covariance vector (the drift gate's
    /// reference).
    prev_cov: Vec<f64>,
    /// Convergence report of the engine that produced the last solve.
    last_convergence: Option<Convergence>,
}

impl Estimator for VardiEstimator {
    fn estimate_system(
        &self,
        sys: &MeasurementSystem<'_>,
        _ws: &mut tm_linalg::Workspace,
    ) -> Result<Estimate> {
        self.estimate_prepared(sys)
    }

    fn name(&self) -> String {
        format!("vardi(w={:.0e})", self.moment_weight)
    }
}

fn scale_csr(m: &Csr, factor: f64) -> Csr {
    let scale = vec![factor; m.cols()];
    // scale_cols multiplies columns; uniform factor = global scale.
    m.scale_cols(&scale).expect("dimensions match")
}

/// The streaming solve's matrix caches: the stacked system `[A; √w·M]`
/// and its weighted Gram `AᵀA + w·MᵀM`, whose factor is reused whenever
/// the active set holds. Both are functions of the routing matrix and
/// σ⁻² alone, built on first use and kept across quarantines; a
/// checkpoint does not carry them.
#[derive(Default)]
pub(crate) struct VardiCache {
    stacked: Option<Csr>,
    gram: Option<Csr>,
}

/// Vardi in a warm stream: rolling second moments of the window plus
/// the previous solution carried from tick to tick.
pub(crate) struct VardiCarry {
    pub(crate) est: VardiEstimator,
    pub(crate) warm: VardiWarmStart,
    pub(crate) cache: VardiCache,
    pub(crate) rolling: RollingMoments,
}

impl WarmMethod for VardiCarry {
    fn solve(&mut self, tick: &mut Tick<'_>) -> Option<Result<Estimate>> {
        self.rolling
            .push(tick.t.to_vec(), tick.current.ingress.iter().sum());
        if self.rolling.len() < 2 {
            return None;
        }
        Some(self.rolling.moments().and_then(|m| {
            let mean_ingress = self.rolling.mean_ingress();
            self.est.solve(
                tick.anchor,
                &m,
                mean_ingress,
                Some((&mut self.warm, &mut self.cache)),
            )
        }))
    }

    fn convergence(&self) -> Option<Convergence> {
        self.warm.last_convergence
    }

    fn reset(&mut self) {
        self.warm = VardiWarmStart::default();
    }

    fn checkpoint(&self) -> Value {
        Value::tagged(
            "vardi",
            &[
                ("warm", &self.warm),
                ("rolling", &self.rolling.checkpoint()),
            ],
        )
    }

    fn restore(&mut self, v: &Value, history: &History<'_>) -> std::result::Result<(), DeError> {
        v.expect_kind("vardi")?;
        self.warm = Deserialize::from_value(v.field("warm")?)?;
        self.rolling.restore(v.field("rolling")?, history)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{mean_relative_error, CoverageThreshold};
    use crate::problem::DatasetExt;
    use tm_traffic::{DatasetSpec, EvalDataset};

    #[test]
    fn recovers_poisson_traffic_with_long_window() {
        // On exactly-Poisson data with a long window the method must
        // identify the rates well (this is Vardi's identifiability result
        // and the premise of Fig. 12).
        use tm_traffic::series::poisson_series;
        let d = EvalDataset::generate(DatasetSpec::tiny(), 17).unwrap();
        let p = d.snapshot_problem(d.busy_start);
        // True rates: scaled-down busy demands (keep Poisson counts sane).
        let lambda: Vec<f64> = p
            .true_demands()
            .unwrap()
            .iter()
            .map(|v| (v / 2.0).max(0.5))
            .collect();
        let series = poisson_series(&lambda, 800, 5).unwrap();
        // Build a window problem with loads from the Poisson demands.
        let routing = p.routing().clone();
        let pairs = p.pairs();
        let n = p.n_nodes();
        let mut link_loads = Vec::new();
        let mut ingress = Vec::new();
        let mut egress = Vec::new();
        for s in &series.samples {
            link_loads.push(routing.matvec(s));
            let mut te = vec![0.0; n];
            let mut tx = vec![0.0; n];
            for (q, src, dst) in pairs.iter() {
                te[src.0] += s[q];
                tx[dst.0] += s[q];
            }
            ingress.push(te);
            egress.push(tx);
        }
        let problem = crate::problem::EstimationProblem::new(
            routing,
            link_loads[0].clone(),
            ingress[0].clone(),
            egress[0].clone(),
        )
        .unwrap()
        .with_time_series(crate::problem::TimeSeriesData {
            link_loads,
            ingress,
            egress,
        })
        .unwrap();

        let est = VardiEstimator::new(1.0).estimate(&problem).unwrap();
        let mre =
            mean_relative_error(&lambda, &est.demands, CoverageThreshold::Share(0.9)).unwrap();
        assert!(mre < 0.35, "MRE on ideal Poisson data: {mre}");
    }

    #[test]
    fn fails_gracefully_on_real_style_data_with_high_weight() {
        // Table 1's point: σ⁻² = 1 on non-Poisson data gives large MRE.
        // We only require it runs and produces finite output here; the
        // quantitative comparison lives in the experiments harness.
        let d = EvalDataset::generate(DatasetSpec::tiny(), 19).unwrap();
        let p = d.window_problem(d.busy_hour());
        let est = VardiEstimator::new(1.0).estimate(&p).unwrap();
        assert!(est.demands.iter().all(|&v| v >= 0.0 && v.is_finite()));
    }

    #[test]
    fn first_moment_only_mode() {
        // w = 0: pure mean matching; still produces a feasible estimate.
        let d = EvalDataset::generate(DatasetSpec::tiny(), 19).unwrap();
        let p = d.window_problem(d.busy_hour());
        let est = VardiEstimator::new(0.0).estimate(&p).unwrap();
        let a = p.measurement_matrix();
        // Mean loads approximately reproduced.
        let mut mean = vec![0.0; a.rows()];
        let ts = p.time_series().unwrap();
        for k in 0..ts.len() {
            let m = p.measurements_at(k).unwrap();
            for i in 0..m.len() {
                mean[i] += m[i] / ts.len() as f64;
            }
        }
        let fitted = a.matvec(&est.demands);
        let scale = mean.iter().cloned().fold(0.0f64, f64::max);
        let worst = fitted
            .iter()
            .zip(&mean)
            .map(|(f, m)| (f - m).abs())
            .fold(0.0f64, f64::max);
        assert!(worst < 0.02 * scale, "residual {worst} vs scale {scale}");
    }

    #[test]
    fn validates_inputs() {
        let d = EvalDataset::generate(DatasetSpec::tiny(), 19).unwrap();
        let snap = d.snapshot_problem(0);
        assert!(matches!(
            VardiEstimator::new(1.0).estimate(&snap),
            Err(EstimationError::MissingTimeSeries)
        ));
        assert!(VardiEstimator::new(-1.0)
            .estimate(&d.window_problem(d.busy_hour()))
            .is_err());
        let two = d.window_problem(0..1);
        assert!(VardiEstimator::new(1.0).estimate(&two).is_err());
        assert_eq!(VardiEstimator::new(0.5).moment_weight(), 0.5);
    }
}
