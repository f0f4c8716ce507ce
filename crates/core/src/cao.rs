//! Cao et al.'s generalized-linear-model method (extension).
//!
//! The paper lists this method (`s_p ∼ N(λ_p, φ·λ_p^c)`, Cao, Davis,
//! Vander Wiel & Yu 2000) as future work: "we have not implemented and
//! evaluated the approach by Cao et al. Clearly, a more complete
//! evaluation should include also this method." This module supplies it.
//!
//! With fixed scaling exponent `c`, moment matching gives
//! `E{t} = A·λ` and `Cov{t} = φ·A·diag(λᶜ)·Aᵀ`, nonlinear in λ. The
//! original paper uses a pseudo-EM iteration; we implement the same
//! fixed-point idea as an alternating scheme:
//!
//! 1. given `λ`, fit `φ` by least squares on the second-moment system;
//! 2. given `φ`, take a projected-gradient pass on the full (nonconvex)
//!    moment-matching objective.
//!
//! Each stage decreases the objective; the iteration stops when the
//! relative change stalls.

use serde::{DeError, Deserialize, Serialize, Value};
use tm_linalg::vector;
use tm_opt::nnls::{self, SsnOptions, SsnState};
use tm_opt::spg::{self, SpgOptions};
use tm_opt::Convergence;

use crate::covariance::RollingMoments;
use crate::error::EstimationError;
use crate::problem::{Estimate, EstimationProblem, Estimator};
use crate::stream::{History, Tick, WarmMethod};
use crate::system::MeasurementSystem;
use crate::Result;

/// Cao et al. GLM moment-matching estimator (time-series method).
#[derive(Debug, Clone)]
pub struct CaoEstimator {
    /// Scaling exponent `c` (2.0 in the original paper's LAN data;
    /// 1.5–1.6 in this paper's backbone fits).
    pub c: f64,
    /// Weight on the second-moment equations (same role as Vardi's σ⁻²).
    pub moment_weight: f64,
    /// Outer alternating iterations.
    pub outer_iters: usize,
}

impl CaoEstimator {
    /// Create with exponent `c` and moment weight.
    pub fn new(c: f64, moment_weight: f64) -> Self {
        CaoEstimator {
            c,
            moment_weight,
            outer_iters: 8,
        }
    }

    /// Estimate mean rates and the fitted φ (compatibility wrapper over
    /// [`CaoEstimator::estimate_prepared`]).
    pub fn estimate(&self, problem: &EstimationProblem) -> Result<CaoEstimate> {
        self.estimate_prepared(&MeasurementSystem::prepare(problem))
    }

    /// Estimate mean rates and the fitted φ from a prepared system's
    /// time-series window, reusing its cached measurement matrix and
    /// second-moment system.
    pub fn estimate_prepared(&self, msys: &MeasurementSystem<'_>) -> Result<CaoEstimate> {
        let problem = msys.problem();
        let ts = problem
            .time_series()
            .ok_or(EstimationError::MissingTimeSeries)?;
        if ts.len() < 2 {
            return Err(EstimationError::InvalidProblem(
                "cao: need at least 2 intervals".into(),
            ));
        }
        let mut series = Vec::with_capacity(ts.len());
        for i in 0..ts.len() {
            series.push(msys.measurements_at(i)?);
        }
        let moments = msys.second_moments().sample_moments(&series)?;
        let stot: f64 = ts
            .ingress
            .iter()
            .map(|v| v.iter().sum::<f64>())
            .sum::<f64>()
            / ts.len() as f64;
        self.estimate_from_moments(msys, &moments, stot, None)
    }

    /// Estimate directly from precomputed window moments — the
    /// incremental entry point a streaming engine feeds from its
    /// rolling accumulators. `mean_ingress` is the mean per-interval
    /// total ingress traffic over the window. `warm` (optional) carries
    /// the previous interval's rates, skipping the expensive
    /// first-moment initialization SPG. With `warm = None` this is
    /// exactly the cold path of [`CaoEstimator::estimate_prepared`].
    pub fn estimate_from_moments(
        &self,
        msys: &MeasurementSystem<'_>,
        moments: &crate::covariance::SampleMoments,
        mean_ingress: f64,
        warm: Option<&mut CaoWarmStart>,
    ) -> Result<CaoEstimate> {
        if !(self.c > 0.0) || self.moment_weight < 0.0 {
            return Err(EstimationError::InvalidProblem(
                "cao: need c > 0 and moment_weight >= 0".into(),
            ));
        }
        let a = msys.matrix();
        if moments.mean.len() != a.rows() {
            return Err(EstimationError::InvalidProblem(format!(
                "cao: moments carry {} mean rows for {} measurement rows",
                moments.mean.len(),
                a.rows()
            )));
        }
        let sys = msys.second_moments();
        if moments.cov_vech.len() != sys.matrix.rows() {
            return Err(EstimationError::InvalidProblem(format!(
                "cao: moments carry {} covariance rows for {}",
                moments.cov_vech.len(),
                sys.matrix.rows()
            )));
        }

        let stot = mean_ingress.max(f64::MIN_POSITIVE);
        let t_hat: Vec<f64> = moments.mean.iter().map(|v| v / stot).collect();
        let cov_hat: Vec<f64> = moments.cov_vech.iter().map(|v| v / (stot * stot)).collect();

        // Initialize from first moments only — or, on the streaming
        // path, from the previous interval's rates (the alternating
        // loop below re-fits φ first, so the initialization SPG is the
        // only work a warm start can skip entirely).
        let mut lambda = match warm.as_deref() {
            Some(state) if state.demands.len() == a.cols() => {
                state.demands.iter().map(|&v| (v / stot).max(0.0)).collect()
            }
            _ => {
                let mut buf_r = vec![0.0; a.rows()];
                let mut buf_g = vec![0.0; a.cols()];
                spg::spg(
                    |x: &[f64], grad: &mut [f64]| {
                        a.matvec_into(x, &mut buf_r);
                        for (i, ri) in buf_r.iter_mut().enumerate() {
                            *ri -= t_hat[i];
                        }
                        a.tr_matvec_into(&buf_r, &mut buf_g);
                        grad.copy_from_slice(&buf_g.iter().map(|g| 2.0 * g).collect::<Vec<_>>());
                        buf_r.iter().map(|r| r * r).sum::<f64>()
                    },
                    vector::project_nonneg,
                    vec![1.0 / a.cols() as f64; a.cols()],
                    SpgOptions {
                        max_iter: 1500,
                        tol: 1e-8,
                        ..Default::default()
                    },
                )?
                .x
            }
        };

        let w = self.moment_weight;
        let mut phi = 1.0;
        let mut warm = warm;
        // The Gauss–Newton tracker is only sound when the nonconvex
        // landscape itself is drifting slowly — the steady state of a
        // full, slowly moving window. While the window is still filling
        // (or after a load jump) the sample covariance moves by O(1)
        // between ticks, and GN would lock onto a different stationary
        // point than the cold path's fresh initialization; those ticks
        // keep the SPG stages (the PR 4 warm path). The gate compares
        // the normalized covariance vector against the previous tick's.
        let gn_enabled = match warm.as_deref_mut() {
            Some(state) => {
                let drift_ok = state.prev_cov.len() == cov_hat.len() && {
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
                    num / den <= CAO_GN_DRIFT
                };
                state.prev_cov = cov_hat.clone();
                drift_ok
            }
            None => false,
        };
        // One SSN failure (cycling / degenerate subproblem) disables
        // the tracker for the remaining outer iterations of this tick —
        // the failure mode repeats, and each attempt costs a fallback.
        let mut gn_ok = gn_enabled;
        let mut spg_conv: Option<Convergence> = None;
        for _ in 0..self.outer_iters {
            // Stage 1: φ by least squares: min_φ ‖φ·M·λᶜ − Σ̂‖².
            let lam_c: Vec<f64> = lambda.iter().map(|&v| v.powf(self.c)).collect();
            let mlc = sys.matrix.matvec(&lam_c);
            let denom: f64 = mlc.iter().map(|v| v * v).sum();
            if denom > 0.0 {
                phi = (mlc.iter().zip(&cov_hat).map(|(m, c)| m * c).sum::<f64>() / denom).max(0.0);
            }
            // Stage 2 (streaming): one Gauss–Newton step via the
            // semismooth-Newton NNLS. The second-moment residual
            // `φ·M·xᶜ − Σ̂` is linearized at λ (`d_j = φ·c·λ_j^{c−1}`),
            // giving the stacked linear subproblem
            // `min ‖Ax − t̂‖² + w‖M·diag(d)·x − b₂‖², x ≥ 0` whose Gram
            // `AᵀA + w·diag(d)·MᵀM·diag(d)` reuses the measurement
            // system's cached symbolic factorization (the pattern is
            // scaling-independent). A step is accepted only when it
            // decreases the *true* (nonconvex) objective; otherwise —
            // and on the cold path — the SPG pass below runs unchanged.
            let mut stage2_done = false;
            if let Some(state) = warm.as_deref_mut() {
                if gn_ok && w > 0.0 && phi > 0.0 {
                    match self.gauss_newton_step(
                        msys,
                        state,
                        &t_hat,
                        &cov_hat,
                        &mlc,
                        &mut lambda,
                        phi,
                        w,
                    )? {
                        GnOutcome::Stalled => gn_ok = false,
                        GnOutcome::Converged => break,
                        GnOutcome::Stepped => stage2_done = true,
                        GnOutcome::Rejected => {}
                    }
                }
            }
            if stage2_done {
                continue;
            }
            // Stage 2 (cold / fallback): SPG pass on the joint
            // objective with fixed φ.
            let c_exp = self.c;
            let mut buf_r1 = vec![0.0; a.rows()];
            let mut buf_r2 = vec![0.0; sys.matrix.rows()];
            let mut buf_g1 = vec![0.0; a.cols()];
            let mut buf_g2 = vec![0.0; a.cols()];
            let res = spg::spg(
                |x: &[f64], grad: &mut [f64]| {
                    a.matvec_into(x, &mut buf_r1);
                    for (i, ri) in buf_r1.iter_mut().enumerate() {
                        *ri -= t_hat[i];
                    }
                    let xc: Vec<f64> = x.iter().map(|&v| v.max(0.0).powf(c_exp)).collect();
                    sys.matrix.matvec_into(&xc, &mut buf_r2);
                    for (i, ri) in buf_r2.iter_mut().enumerate() {
                        *ri = phi * *ri - cov_hat[i];
                    }
                    a.tr_matvec_into(&buf_r1, &mut buf_g1);
                    sys.matrix.tr_matvec_into(&buf_r2, &mut buf_g2);
                    let mut f = buf_r1.iter().map(|r| r * r).sum::<f64>();
                    f += w * buf_r2.iter().map(|r| r * r).sum::<f64>();
                    for j in 0..x.len() {
                        let xj = x[j].max(1e-300);
                        let chain = phi * c_exp * xj.powf(c_exp - 1.0);
                        grad[j] = 2.0 * buf_g1[j] + w * 2.0 * buf_g2[j] * chain;
                    }
                    f
                },
                vector::project_nonneg,
                lambda.clone(),
                SpgOptions {
                    max_iter: 500,
                    tol: 1e-9,
                    ..Default::default()
                },
            )?;
            spg_conv = Some(res.convergence());
            let change: f64 = res
                .x
                .iter()
                .zip(&lambda)
                .map(|(a, b)| (a - b).abs())
                .fold(0.0, f64::max);
            lambda = res.x;
            if change < 1e-10 {
                break;
            }
        }

        let demands: Vec<f64> = lambda.iter().map(|&v| v * stot).collect();
        if let Some(state) = warm {
            state.demands = demands.clone();
            // The GN tracker records its own report inside
            // `gauss_newton_step`; only overwrite it when an SPG stage
            // actually ran this tick.
            if let Some(c) = spg_conv {
                state.last_convergence = Some(c);
            }
        }
        Ok(CaoEstimate {
            estimate: Estimate {
                demands,
                method: format!("cao(c={},w={:.0e})", self.c, self.moment_weight),
            },
            phi,
        })
    }
}

/// Outcome of one streaming Gauss–Newton stage.
enum GnOutcome {
    /// The SSN subproblem stalled — disable the tracker for this tick.
    Stalled,
    /// Step accepted and the iterate moved below the outer-loop
    /// convergence threshold.
    Converged,
    /// Step accepted.
    Stepped,
    /// Step rejected by the objective-decrease safeguard.
    Rejected,
}

impl CaoEstimator {
    /// One streaming Gauss–Newton step (kept out of the main solve so
    /// the cold path's hot loops stay compact): linearize the
    /// second-moment residual `φ·M·xᶜ − Σ̂` at λ (`d_j = φ·c·λ_j^{c−1}`)
    /// into the stacked subproblem
    /// `min ‖Ax − t̂‖² + w‖M·diag(d)·x − b₂‖², x ≥ 0`, solve it by the
    /// semismooth-Newton NNLS against the measurement system's cached
    /// symbolic factorization (the Gram pattern is
    /// scaling-independent), and accept the step only when it decreases
    /// the *true* (nonconvex) objective.
    #[allow(clippy::too_many_arguments)]
    fn gauss_newton_step(
        &self,
        msys: &MeasurementSystem<'_>,
        state: &mut CaoWarmStart,
        t_hat: &[f64],
        cov_hat: &[f64],
        mlc: &[f64],
        lambda: &mut Vec<f64>,
        phi: f64,
        w: f64,
    ) -> Result<GnOutcome> {
        let a = msys.matrix();
        let sys = msys.second_moments();
        let eval_obj = |x: &[f64]| -> f64 {
            let r1 = a.matvec(x);
            let xc: Vec<f64> = x.iter().map(|&v| v.max(0.0).powf(self.c)).collect();
            let r2 = sys.matrix.matvec(&xc);
            let mut f = 0.0;
            for (ri, ti) in r1.iter().zip(t_hat) {
                f += (ri - ti) * (ri - ti);
            }
            for (ri, ci) in r2.iter().zip(cov_hat) {
                let d = phi * ri - ci;
                f += w * d * d;
            }
            f
        };
        let d: Vec<f64> = lambda
            .iter()
            .map(|&v| phi * self.c * v.max(0.0).powf(self.c - 1.0))
            .collect();
        if !d.iter().all(|v| v.is_finite()) {
            return Ok(GnOutcome::Rejected);
        }
        let kern = msys.moment_kernel();
        let gw = kern.scaled_weighted_gram(w, &d);
        let sw = w.sqrt();
        let scaled_m = sys
            .matrix
            .scale_cols(&d)
            .map_err(EstimationError::Linalg)?
            .scale(sw);
        let bmat = a.vstack(&scaled_m).map_err(EstimationError::Linalg)?;
        // b₂ = Σ̂ − φ·M·λᶜ + M·(d∘λ).
        let dl: Vec<f64> = d
            .iter()
            .zip(lambda.iter())
            .map(|(dv, lv)| dv * lv)
            .collect();
        let mdl = sys.matrix.matvec(&dl);
        let mut rhs_full = t_hat.to_vec();
        rhs_full.extend(
            cov_hat
                .iter()
                .zip(mlc)
                .zip(&mdl)
                .map(|((cv, m1), m2)| sw * (cv - phi * m1 + m2)),
        );
        match nnls::ssn_nnls(
            &bmat,
            &rhs_full,
            GN_PROX_MU,
            Some(lambda),
            &gw,
            &kern.sym,
            &mut state.ssn,
            false,
            SsnOptions::default(),
        ) {
            Err(_) => Ok(GnOutcome::Stalled),
            Ok(sol) => {
                state.last_convergence = Some(sol.convergence());
                if eval_obj(&sol.x) <= eval_obj(lambda) {
                    let change: f64 = sol
                        .x
                        .iter()
                        .zip(lambda.iter())
                        .map(|(a, b)| (a - b).abs())
                        .fold(0.0, f64::max);
                    *lambda = sol.x;
                    if change < 1e-10 {
                        Ok(GnOutcome::Converged)
                    } else {
                        Ok(GnOutcome::Stepped)
                    }
                } else {
                    Ok(GnOutcome::Rejected)
                }
            }
        }
    }
}

/// Relative per-tick covariance drift below which the streaming
/// Gauss–Newton tracker engages (see the gate comment in
/// [`CaoEstimator::estimate_from_moments`]). A `K`-interval window
/// drifts by ~1/K per tick at steady state, so the paper's K = 50
/// windows sit well under the gate while short filling windows stay on
/// the SPG stages.
const CAO_GN_DRIFT: f64 = 0.1;

/// Proximal (Levenberg–Marquardt) weight of the Gauss–Newton
/// subproblems (normalized units): damps the step toward the
/// linearization point, which both keeps the rank-deficient reduced
/// systems positive definite and stops the semismooth-Newton active
/// set from cycling on the degenerate boundary. The outer loop's
/// objective-decrease safeguard bounds any bias.
const GN_PROX_MU: f64 = 1e-4;

/// Warm-start state carried across the intervals of a streaming sweep —
/// see [`CaoEstimator::estimate_from_moments`].
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct CaoWarmStart {
    /// Previous interval's demand estimate (raw Mbps units).
    demands: Vec<f64>,
    /// Carried semismooth-Newton active set for the Gauss–Newton
    /// subproblems.
    ssn: SsnState,
    /// Previous tick's normalized covariance vector (the GN drift
    /// gate's reference).
    prev_cov: Vec<f64>,
    /// Convergence report of the engine that produced the last solve.
    last_convergence: Option<Convergence>,
}

impl Estimator for CaoEstimator {
    fn estimate_system(
        &self,
        sys: &MeasurementSystem<'_>,
        _ws: &mut tm_linalg::Workspace,
    ) -> Result<Estimate> {
        Ok(self.estimate_prepared(sys)?.estimate)
    }

    fn name(&self) -> String {
        format!("cao(c={},w={:.0e})", self.c, self.moment_weight)
    }
}

/// Result of the Cao estimator.
#[derive(Debug, Clone)]
pub struct CaoEstimate {
    /// The demand estimate.
    pub estimate: Estimate,
    /// Fitted scaling constant φ (normalized units).
    pub phi: f64,
}

/// Cao in a warm stream: rolling second moments of the window plus the
/// previous rates carried from tick to tick.
pub(crate) struct CaoCarry {
    pub(crate) est: CaoEstimator,
    pub(crate) warm: CaoWarmStart,
    pub(crate) rolling: RollingMoments,
}

impl WarmMethod for CaoCarry {
    fn solve(&mut self, tick: &mut Tick<'_>) -> Option<Result<Estimate>> {
        self.rolling
            .push(tick.t.to_vec(), tick.current.ingress.iter().sum());
        if self.rolling.len() < 2 {
            return None;
        }
        Some(self.rolling.moments().and_then(|m| {
            let mean_ingress = self.rolling.mean_ingress();
            self.est
                .estimate_from_moments(tick.anchor, &m, mean_ingress, Some(&mut self.warm))
                .map(|e| e.estimate)
        }))
    }

    fn convergence(&self) -> Option<Convergence> {
        self.warm.last_convergence
    }

    fn reset(&mut self) {
        self.warm = CaoWarmStart::default();
    }

    fn checkpoint(&self) -> Value {
        Value::tagged(
            "cao",
            &[
                ("warm", &self.warm),
                ("rolling", &self.rolling.checkpoint()),
            ],
        )
    }

    fn restore(&mut self, v: &Value, history: &History<'_>) -> std::result::Result<(), DeError> {
        v.expect_kind("cao")?;
        self.warm = Deserialize::from_value(v.field("warm")?)?;
        self.rolling.restore(v.field("rolling")?, history)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::DatasetExt;
    use tm_traffic::{DatasetSpec, EvalDataset};

    #[test]
    fn runs_on_window_problem() {
        let d = EvalDataset::generate(DatasetSpec::tiny(), 67).unwrap();
        let p = d.window_problem(d.busy_hour());
        let res = CaoEstimator::new(1.6, 0.01).estimate(&p).unwrap();
        assert!(res
            .estimate
            .demands
            .iter()
            .all(|&v| v >= 0.0 && v.is_finite()));
        assert!(res.phi >= 0.0);
        assert!(res.estimate.method.contains("cao"));
    }

    #[test]
    fn reduces_to_first_moments_with_zero_weight() {
        let d = EvalDataset::generate(DatasetSpec::tiny(), 67).unwrap();
        let p = d.window_problem(d.busy_hour());
        let cao = CaoEstimator::new(1.0, 0.0).estimate(&p).unwrap();
        let a = p.measurement_matrix();
        // Mean loads approximately reproduced.
        let ts = p.time_series().unwrap();
        let mut mean = vec![0.0; a.rows()];
        for k in 0..ts.len() {
            let m = p.measurements_at(k).unwrap();
            for i in 0..m.len() {
                mean[i] += m[i] / ts.len() as f64;
            }
        }
        let fitted = a.matvec(&cao.estimate.demands);
        let scale = mean.iter().cloned().fold(0.0f64, f64::max);
        let worst = fitted
            .iter()
            .zip(&mean)
            .map(|(f, m)| (f - m).abs())
            .fold(0.0f64, f64::max);
        assert!(worst < 0.05 * scale, "residual {worst} vs {scale}");
    }

    #[test]
    fn poisson_special_case_close_to_vardi() {
        // c = 1, φ ≈ 1 is the Poisson case; on Poisson data Cao and Vardi
        // should produce similar estimates.
        use tm_traffic::series::poisson_series;
        let d = EvalDataset::generate(DatasetSpec::tiny(), 71).unwrap();
        let base = d.snapshot_problem(d.busy_start);
        let lambda: Vec<f64> = base
            .true_demands()
            .unwrap()
            .iter()
            .map(|v| (v / 2.0).max(0.5))
            .collect();
        let series = poisson_series(&lambda, 600, 5).unwrap();
        let routing = base.routing().clone();
        let pairs = base.pairs();
        let n = base.n_nodes();
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

        let cao = CaoEstimator::new(1.0, 1.0).estimate(&problem).unwrap();
        let vardi = crate::vardi::VardiEstimator::new(1.0)
            .estimate(&problem)
            .unwrap();
        // Correlated estimates (not identical: different solvers/weights).
        let corr = crate::metrics::spearman_rank_correlation(&cao.estimate.demands, &vardi.demands)
            .unwrap();
        assert!(corr > 0.8, "cao/vardi correlation {corr}");
        // φ is fitted in normalized units, where Poisson traffic has
        // Var{s̃} = λ̃/stot, i.e. φ_normalized = 1/stot with c = 1.
        let stot: f64 = lambda.iter().sum();
        let ratio = cao.phi * stot;
        assert!(
            (0.3..3.0).contains(&ratio),
            "phi·stot {ratio} (phi {})",
            cao.phi
        );
    }

    #[test]
    fn validates_inputs() {
        let d = EvalDataset::generate(DatasetSpec::tiny(), 67).unwrap();
        let snap = d.snapshot_problem(0);
        assert!(CaoEstimator::new(1.0, 1.0).estimate(&snap).is_err());
        let p = d.window_problem(d.busy_hour());
        assert!(CaoEstimator::new(0.0, 1.0).estimate(&p).is_err());
        assert!(CaoEstimator::new(1.0, -1.0).estimate(&p).is_err());
    }

    #[test]
    fn gauss_newton_tracker_engages_at_steady_state() {
        // Feed the same window moments twice through a warm handle: the
        // second call sees zero covariance drift, so the GN/SSN stage
        // engages. Its safeguard only accepts objective decreases, so
        // the tracked solution must score at least as well (on the
        // fixed-φ objective) as the cold solve it replaces — and stay
        // finite/nonnegative.
        let d = EvalDataset::generate(DatasetSpec::tiny(), 67).unwrap();
        let p = d.window_problem(d.busy_hour());
        let msys = MeasurementSystem::prepare(&p);
        let est = CaoEstimator::new(1.6, 0.01);
        let cold = est.estimate_prepared(&msys).unwrap();

        let ts = p.time_series().unwrap();
        let mut series = Vec::with_capacity(ts.len());
        for i in 0..ts.len() {
            series.push(msys.measurements_at(i).unwrap());
        }
        let moments = msys.second_moments().sample_moments(&series).unwrap();
        let stot: f64 = ts
            .ingress
            .iter()
            .map(|v| v.iter().sum::<f64>())
            .sum::<f64>()
            / ts.len() as f64;

        let mut warm = CaoWarmStart::default();
        // First warm call: gate closed (no previous covariance), runs
        // the SPG stages and installs the gate reference.
        let first = est
            .estimate_from_moments(&msys, &moments, stot, Some(&mut warm))
            .unwrap();
        // Second warm call: zero drift, GN engages from the carried
        // point.
        let tracked = est
            .estimate_from_moments(&msys, &moments, stot, Some(&mut warm))
            .unwrap();
        assert!(tracked
            .estimate
            .demands
            .iter()
            .all(|&v| v >= 0.0 && v.is_finite()));
        // Identical moments: the tracked solution must not drift away
        // from the stationary point the warm path had already reached.
        let scale = first
            .estimate
            .demands
            .iter()
            .cloned()
            .fold(f64::MIN_POSITIVE, f64::max);
        for (a, b) in tracked.estimate.demands.iter().zip(&first.estimate.demands) {
            assert!((a - b).abs() <= 0.05 * scale, "tracked {a} vs settled {b}");
        }
        // And it remains comparable to the cold estimate (nonconvex
        // objective: same quality class, not identity).
        use crate::metrics::{mean_relative_error, CoverageThreshold};
        let truth = p.true_demands().unwrap();
        let mre_cold =
            mean_relative_error(truth, &cold.estimate.demands, CoverageThreshold::Share(0.9))
                .unwrap();
        let mre_tracked = mean_relative_error(
            truth,
            &tracked.estimate.demands,
            CoverageThreshold::Share(0.9),
        )
        .unwrap();
        assert!(
            mre_tracked <= mre_cold + 0.05,
            "tracked MRE {mre_tracked} vs cold {mre_cold}"
        );
    }
}
