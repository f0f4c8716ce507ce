//! Iterative proportional fitting: Kruithof's projection method and its
//! generalization to arbitrary nonnegative linear constraints.
//!
//! Kruithof (1937) adjusts a prior traffic matrix to measured row/column
//! totals by alternating proportional scaling — the RAS algorithm. Krupp
//! (1979) showed that it minimizes the Kullback–Leibler distance from the
//! prior and extended it to general constraints `R·s = t`; the extension
//! implemented here is generalized iterative scaling (GIS), which the
//! paper uses as the exact-constraint limit of the entropy estimator.

use tm_linalg::{vector, Csr, Mat};

use crate::error::OptError;
use crate::Result;

/// Options shared by the IPF variants.
#[derive(Debug, Clone, Copy)]
pub struct IpfOptions {
    /// Maximum sweeps.
    pub max_iter: usize,
    /// Convergence tolerance on the maximum relative marginal violation.
    pub tol: f64,
    /// Over-relaxation factor ω applied to the GIS log-update
    /// (`1.0` = the classical, provably convergent iteration;
    /// bit-identical results). Values above one accelerate the damped
    /// exponential update — the iterates stay on the same exponential
    /// manifold, so the fixed point (the I-projection) is unchanged —
    /// with an adaptive safeguard: whenever a relaxed sweep *grows* the
    /// constraint violation, ω is halved toward one, so any setting
    /// converges. ω ≈ 3 cuts sweep counts ~3x on the backbone systems.
    /// Ignored by RAS.
    pub relaxation: f64,
    /// Anderson-acceleration depth for the GIS fixed-point iteration
    /// (`0` = off, bit-identical to the plain/relaxed update). The GIS
    /// sweep is a fixed-point map in the log-iterate `u = ln s`; with
    /// depth `m` the next iterate extrapolates through the last `m`
    /// (step, iterate) pairs by a tiny least-squares mix. Iterates stay
    /// on the prior's exponential manifold (every step is a span of
    /// `Rᵀ`-rows over `C`), so the fixed point — the I-projection — is
    /// unchanged. Safeguards: a non-finite or oversized extrapolation
    /// falls back to the plain ω-relaxed step for that sweep, and any
    /// violation growth clears the mixing history. Depth ~3 is the
    /// sweet spot; larger depths buy nothing on these systems. Ignored
    /// by RAS.
    pub anderson_depth: usize,
}

impl Default for IpfOptions {
    fn default() -> Self {
        IpfOptions {
            max_iter: 2000,
            tol: 1e-10,
            relaxation: 1.0,
            anderson_depth: 0,
        }
    }
}

/// Outcome of an IPF run.
#[derive(Debug, Clone)]
pub struct IpfResult {
    /// Fitted matrix (RAS) flattened row-major, or fitted vector (GIS).
    pub values: Vec<f64>,
    /// Sweeps used.
    pub iterations: usize,
    /// Final maximum relative constraint violation.
    pub violation: f64,
}

/// Kruithof/RAS biproportional fitting: find `X` minimizing
/// `D(X ‖ prior)` subject to given row and column sums.
///
/// Requirements: `prior ≥ 0`; a zero prior entry stays zero (KL support
/// condition); `Σ row_sums` must equal `Σ col_sums` to relative 1e-6
/// (traffic in equals traffic out).
pub fn ras(prior: &Mat, row_sums: &[f64], col_sums: &[f64], opts: IpfOptions) -> Result<IpfResult> {
    let (n, m) = prior.shape();
    if row_sums.len() != n || col_sums.len() != m {
        return Err(OptError::Invalid(format!(
            "ras: prior {n}x{m} vs sums {}/{}",
            row_sums.len(),
            col_sums.len()
        )));
    }
    if prior.data().iter().any(|&v| v < 0.0) {
        return Err(OptError::Invalid("ras: negative prior entry".into()));
    }
    if row_sums.iter().chain(col_sums).any(|&v| v < 0.0) {
        return Err(OptError::Invalid("ras: negative target sum".into()));
    }
    let rt: f64 = row_sums.iter().sum();
    let ct: f64 = col_sums.iter().sum();
    if (rt - ct).abs() > 1e-6 * rt.max(ct).max(1.0) {
        return Err(OptError::Invalid(format!(
            "ras: row total {rt} != column total {ct}"
        )));
    }

    let mut x = prior.clone();
    // Support check: a positive target with an all-zero prior row/column
    // can never be met.
    for i in 0..n {
        if row_sums[i] > 0.0 && x.row(i).iter().all(|&v| v == 0.0) {
            return Err(OptError::Infeasible {
                residual: row_sums[i],
            });
        }
    }
    for j in 0..m {
        if col_sums[j] > 0.0 && (0..n).all(|i| x.get(i, j) == 0.0) {
            return Err(OptError::Infeasible {
                residual: col_sums[j],
            });
        }
    }

    let scale = rt.max(1e-300);
    let mut violation = f64::INFINITY;
    for it in 0..opts.max_iter {
        // Row scaling.
        for i in 0..n {
            let s: f64 = x.row(i).iter().sum();
            if s > 0.0 {
                let f = row_sums[i] / s;
                for v in x.row_mut(i) {
                    *v *= f;
                }
            }
        }
        // Column scaling.
        for j in 0..m {
            let s: f64 = (0..n).map(|i| x.get(i, j)).sum();
            if s > 0.0 {
                let f = col_sums[j] / s;
                for i in 0..n {
                    let v = x.get(i, j) * f;
                    x.set(i, j, v);
                }
            }
        }
        // Violation: rows were disturbed by the column step.
        violation = 0.0;
        for i in 0..n {
            let s: f64 = x.row(i).iter().sum();
            violation = violation.max((s - row_sums[i]).abs());
        }
        violation /= scale;
        if violation <= opts.tol {
            return Ok(IpfResult {
                values: x.data().to_vec(),
                iterations: it + 1,
                violation,
            });
        }
    }
    Err(OptError::DidNotConverge {
        iterations: opts.max_iter,
        measure: violation,
    })
}

/// Precomputed row-activity state of one GIS system `(R, t)`: the list
/// of active constraint rows (`t_l > 0`), the demands forced to zero by
/// zero-load rows, and the scaling constant `C = max_p Σ_l r_lp` over
/// the active rows. Deriving it walks every row of `R`, so callers that
/// project many priors onto the *same* measurement system (the
/// prepare-once/estimate-many lifecycle of `tm_core`) build the plan
/// once and pass it to every [`gis`] call.
#[derive(Debug, Clone)]
pub struct GisPlan {
    /// Rows with `t_l > 0`, in row order.
    pub active_rows: Vec<usize>,
    /// Demand indices crossed (with positive coefficient) by a zero-load
    /// row; GIS pins them to zero.
    pub zeroed: Vec<usize>,
    /// `C = max_p Σ_l r_lp` over the active rows.
    pub scale_c: f64,
}

impl GisPlan {
    /// Derive the plan for `R·s = t`. Validates dimensions and target
    /// nonnegativity (the checks `gis` would otherwise perform).
    pub fn build(r: &Csr, t: &[f64]) -> Result<Self> {
        let (l, p) = (r.rows(), r.cols());
        if t.len() != l {
            return Err(OptError::Invalid(format!(
                "gis: R {l}x{p} vs t {}",
                t.len()
            )));
        }
        if t.iter().any(|&v| v < 0.0) {
            return Err(OptError::Invalid("gis: negative target".into()));
        }
        // Zero-load links kill their demands.
        let mut zero_mask = vec![false; p];
        let mut active_rows: Vec<usize> = Vec::new();
        for i in 0..l {
            if t[i] == 0.0 {
                let (idx, val) = r.row(i);
                for (k, &j) in idx.iter().enumerate() {
                    if val[k] > 0.0 {
                        zero_mask[j] = true;
                    }
                }
            } else {
                active_rows.push(i);
            }
        }
        // C = max column sum of R over active rows.
        let mut colsum = vec![0.0f64; p];
        for &i in &active_rows {
            let (idx, val) = r.row(i);
            for (k, &j) in idx.iter().enumerate() {
                colsum[j] += val[k];
            }
        }
        let scale_c = colsum.iter().cloned().fold(0.0f64, f64::max);
        let zeroed = (0..p).filter(|&j| zero_mask[j]).collect();
        Ok(GisPlan {
            active_rows,
            zeroed,
            scale_c,
        })
    }
}

/// Generalized iterative scaling: minimize `D(s ‖ prior)` subject to
/// `R·s = t`, `s ≥ 0`, for a nonnegative constraint matrix `R`.
///
/// Update rule: `s_p ← s_p · Π_l (t_l / (Rs)_l)^(r_lp / C)` with
/// `C = max_p Σ_l r_lp`. Rows with `t_l = 0` force every demand crossing
/// link `l` to zero and are eliminated up front. If the constraints are
/// inconsistent the method cannot converge; the iteration cap then
/// returns [`OptError::DidNotConverge`] carrying the best violation.
///
/// `plan` must come from [`GisPlan::build`] on the same `(R, t)`; the
/// target checks (length, nonnegativity) live there.
///
/// `warm` is an optional starting iterate. GIS converges to the
/// I-projection of its **starting iterate** onto
/// `{s ≥ 0 : R·s = t}` — the iterates stay on the exponential manifold
/// `{s⁰ ∘ exp(Rᵀν)}` of the starting point. Starting from the prior
/// yields the KL projection of the prior; starting from any other
/// point **on the prior's manifold** (`prior ∘ exp(Rᵀν)`) yields the
/// *same* projection, just in fewer sweeps. A previous interval's GIS
/// solution rebased onto the current prior by its multipliers
/// (`prior ∘ (s⁽ᵏ⁻¹⁾/prior⁽ᵏ⁻¹⁾)`) is exactly such a point — the
/// streaming warm start.
///
/// The caller is responsible for `warm` lying on the prior's manifold;
/// a warm iterate whose support does not cover the prior's (a zero
/// where the prior is positive outside the plan's zeroed set) cannot
/// be on it and is **ignored** — the solve falls back to the cold
/// start rather than silently converging to a different projection.
pub fn gis(
    prior: &[f64],
    r: &Csr,
    t: &[f64],
    plan: &GisPlan,
    opts: IpfOptions,
    warm: Option<&[f64]>,
) -> Result<IpfResult> {
    let (l, p) = (r.rows(), r.cols());
    if prior.len() != p || t.len() != l {
        return Err(OptError::Invalid(format!(
            "gis: R {l}x{p} vs prior {} and t {}",
            prior.len(),
            t.len()
        )));
    }
    if prior.iter().any(|&v| v < 0.0) {
        return Err(OptError::Invalid("gis: negative prior".into()));
    }
    if let Some(w) = warm {
        if w.len() != p {
            return Err(OptError::Invalid(format!(
                "gis: warm start has {} entries for {p} demands",
                w.len()
            )));
        }
    }

    // A warm iterate is usable only when its support covers the
    // prior's (outside the zeroed set): a pinned zero is off the
    // prior's manifold and would drag the limit with it.
    let warm = warm.filter(|w| {
        let mut zeroed = vec![false; p];
        for &j in &plan.zeroed {
            zeroed[j] = true;
        }
        prior
            .iter()
            .zip(w.iter())
            .enumerate()
            .all(|(j, (&q, &wv))| q <= 0.0 || zeroed[j] || wv > 0.0)
    });
    let mut s: Vec<f64> = match warm {
        None => prior.to_vec(),
        Some(w) => prior
            .iter()
            .zip(w)
            .map(|(&q, &wv)| if q > 0.0 { wv } else { 0.0 })
            .collect(),
    };
    for &j in &plan.zeroed {
        s[j] = 0.0;
    }
    let active_rows = &plan.active_rows;
    let c = plan.scale_c;
    if c == 0.0 {
        // No active constraints: the prior (with zeroed entries) is the
        // projection — regardless of any warm-start iterate.
        let mut values = prior.to_vec();
        for &j in &plan.zeroed {
            values[j] = 0.0;
        }
        return Ok(IpfResult {
            values,
            iterations: 0,
            violation: 0.0,
        });
    }

    let tscale = vector::norm_inf(t).max(1e-300);
    let mut violation = f64::INFINITY;
    let omega_cap = opts.relaxation.max(1.0);
    let mut omega = omega_cap;
    let mut prev_violation = f64::INFINITY;
    let mut calm_sweeps = 0usize;
    // Anderson mixing state: the support index list and the last
    // `depth` (log-iterate, step) pairs, all compacted to the support.
    let depth = opts.anderson_depth;
    let support: Vec<usize> = if depth > 0 {
        (0..p).filter(|&j| s[j] > 0.0).collect()
    } else {
        Vec::new()
    };
    let mut aa_hist: std::collections::VecDeque<(Vec<f64>, Vec<f64>)> =
        std::collections::VecDeque::with_capacity(depth);
    // Hot loop: the active-row index list is precomputed above and every
    // buffer is hoisted, so one sweep is two passes over the active rows
    // (marginals + violation, then the log-ratio transpose product) with
    // zero per-iteration allocation and no scan of inactive rows. The
    // accumulation order matches the former matvec/tr_matvec formulation
    // exactly — results are bit-identical.
    let mut rs = vec![0.0f64; active_rows.len()];
    let mut rt = vec![0.0f64; p];
    for it in 0..opts.max_iter {
        violation = 0.0;
        for (k, &i) in active_rows.iter().enumerate() {
            let (idx, val) = r.row(i);
            let mut acc = 0.0;
            for (&j, &v) in idx.iter().zip(val) {
                acc += v * s[j];
            }
            rs[k] = acc;
            violation = violation.max((acc - t[i]).abs());
        }
        violation /= tscale;
        if violation <= opts.tol {
            return Ok(IpfResult {
                values: s,
                iterations: it,
                violation,
            });
        }
        // Safeguarded over-relaxation: halve ω toward 1 whenever the
        // previous relaxed sweep grew the violation (ω = 1 recovers the
        // provably convergent classical update, so the decay guarantees
        // convergence for any starting ω); after 16 consecutive
        // non-growing sweeps, grow ω back toward the configured cap so
        // a transient early wobble does not forfeit the acceleration
        // for the rest of the run.
        if omega_cap > 1.0 {
            if violation > prev_violation {
                omega = (0.5 * omega).max(1.0);
                calm_sweeps = 0;
            } else {
                calm_sweeps += 1;
                if calm_sweeps >= 16 && omega < omega_cap {
                    omega = (2.0 * omega).min(omega_cap);
                    calm_sweeps = 0;
                }
            }
        }
        if depth > 0 && violation > prev_violation {
            // A grown violation means the recent extrapolations went
            // sour: restart the mixing from the plain iteration.
            aa_hist.clear();
        }
        prev_violation = violation;
        // s_p *= exp( Σ_l r_lp/C · log_ratio_l ) via transpose product.
        rt.fill(0.0);
        for (k, &i) in active_rows.iter().enumerate() {
            // Guard: a demand set can be entirely zero on an active link
            // only if the constraints are inconsistent.
            if !(rs[k] > 0.0) {
                return Err(OptError::Infeasible { residual: t[i] });
            }
            let log_ratio = (t[i] / rs[k]).ln();
            if log_ratio == 0.0 {
                continue;
            }
            let (idx, val) = r.row(i);
            for (&j, &v) in idx.iter().zip(val) {
                rt[j] += v * log_ratio;
            }
        }
        if depth == 0 {
            for j in 0..p {
                if s[j] > 0.0 {
                    s[j] *= (omega * rt[j] / c).exp();
                }
            }
        } else {
            // Anderson mixing on the log-iterate over the support:
            // u = ln s, step f = ω·(Rᵀ log-ratio)/C.
            let u: Vec<f64> = support.iter().map(|&j| s[j].ln()).collect();
            let f: Vec<f64> = support.iter().map(|&j| omega * rt[j] / c).collect();
            let mut u_new: Vec<f64> = u.iter().zip(&f).map(|(a, b)| a + b).collect();
            let d_hist = aa_hist.len();
            if d_hist > 0 {
                // Least-squares mix over the difference columns
                // ΔF_i = f − f_i, ΔU_i = u − u_i: minimize
                // ‖f − ΔF·γ‖ (tiny d×d normal equations), then
                // u⁺ = (u + f) − Σ γ_i (ΔU_i + ΔF_i).
                let mut df: Vec<Vec<f64>> = Vec::with_capacity(d_hist);
                let mut du: Vec<Vec<f64>> = Vec::with_capacity(d_hist);
                for (ui, fi) in &aa_hist {
                    df.push(f.iter().zip(fi).map(|(a, b)| a - b).collect());
                    du.push(u.iter().zip(ui).map(|(a, b)| a - b).collect());
                }
                let mut m = Mat::zeros(d_hist, d_hist);
                let mut rhs_g = vec![0.0; d_hist];
                for a in 0..d_hist {
                    for b in a..d_hist {
                        let v = vector::dot(&df[a], &df[b]);
                        m.set(a, b, v);
                        m.set(b, a, v);
                    }
                    rhs_g[a] = vector::dot(&df[a], &f);
                }
                if let Ok(gamma) = tm_linalg::decomp::lu::solve(&m, &rhs_g) {
                    let f_norm = vector::norm_inf(&f);
                    let mut cand: Vec<f64> = u_new.clone();
                    for (i, g) in gamma.iter().enumerate() {
                        for (cv, (dfv, duv)) in cand.iter_mut().zip(df[i].iter().zip(&du[i])) {
                            *cv -= g * (duv + dfv);
                        }
                    }
                    // Safeguard: accept only finite, moderately sized
                    // extrapolations (within 10x of the plain step).
                    let mut step_norm = 0.0f64;
                    let ok = cand.iter().zip(&u).all(|(c, uv)| {
                        let st = c - uv;
                        step_norm = step_norm.max(st.abs());
                        c.is_finite()
                    }) && step_norm <= 10.0 * f_norm.max(1e-300);
                    if ok {
                        u_new = cand;
                    }
                }
            }
            if aa_hist.len() == depth {
                aa_hist.pop_front();
            }
            aa_hist.push_back((u, f));
            for (&j, &uv) in support.iter().zip(&u_new) {
                s[j] = uv.exp();
            }
        }
    }
    Err(OptError::DidNotConverge {
        iterations: opts.max_iter,
        measure: violation,
    })
}

/// Generalized Kullback–Leibler divergence `D(x ‖ q) = Σ x log(x/q) − x + q`
/// with the conventions `0·log 0 = 0`; returns `+∞` if `x_i > 0` while
/// `q_i = 0`.
pub fn kl_divergence(x: &[f64], q: &[f64]) -> f64 {
    assert_eq!(x.len(), q.len(), "kl_divergence: length mismatch");
    let mut d = 0.0;
    for i in 0..x.len() {
        if x[i] == 0.0 {
            d += q[i];
        } else if q[i] == 0.0 {
            return f64::INFINITY;
        } else {
            d += x[i] * (x[i] / q[i]).ln() - x[i] + q[i];
        }
    }
    d
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A cold GIS solve with its plan built for the call.
    fn cold_gis(prior: &[f64], r: &Csr, t: &[f64], opts: IpfOptions) -> Result<IpfResult> {
        gis(prior, r, t, &GisPlan::build(r, t)?, opts, None)
    }

    #[test]
    fn ras_fits_marginals() {
        let prior = Mat::from_rows(&[vec![1.0, 1.0], vec![1.0, 1.0]]);
        let res = ras(&prior, &[3.0, 1.0], &[2.0, 2.0], IpfOptions::default()).unwrap();
        let x = Mat::from_vec(2, 2, res.values);
        for i in 0..2 {
            let s: f64 = x.row(i).iter().sum();
            assert!((s - [3.0, 1.0][i]).abs() < 1e-8);
        }
        for j in 0..2 {
            let s: f64 = (0..2).map(|i| x.get(i, j)).sum();
            assert!((s - 2.0).abs() < 1e-8);
        }
    }

    #[test]
    fn ras_preserves_zero_pattern() {
        let prior = Mat::from_rows(&[vec![0.0, 2.0], vec![3.0, 4.0]]);
        let res = ras(&prior, &[1.0, 3.0], &[2.0, 2.0], IpfOptions::default()).unwrap();
        let x = Mat::from_vec(2, 2, res.values);
        assert_eq!(x.get(0, 0), 0.0);
    }

    #[test]
    fn ras_rejects_mismatched_totals_and_negatives() {
        let prior = Mat::from_rows(&[vec![1.0, 1.0], vec![1.0, 1.0]]);
        assert!(ras(&prior, &[3.0, 1.0], &[1.0, 1.0], IpfOptions::default()).is_err());
        let neg = Mat::from_rows(&[vec![-1.0, 1.0], vec![1.0, 1.0]]);
        assert!(ras(&neg, &[1.0, 1.0], &[1.0, 1.0], IpfOptions::default()).is_err());
        assert!(ras(&prior, &[-1.0, 3.0], &[1.0, 1.0], IpfOptions::default()).is_err());
    }

    #[test]
    fn ras_detects_unsupportable_marginal() {
        let prior = Mat::from_rows(&[vec![0.0, 0.0], vec![1.0, 1.0]]);
        let res = ras(&prior, &[1.0, 1.0], &[1.0, 1.0], IpfOptions::default());
        assert!(matches!(res, Err(OptError::Infeasible { .. })));
    }

    #[test]
    fn gis_solves_row_column_problem_like_ras() {
        // Encode the same marginal problem as general constraints.
        // Variables: x00 x01 x10 x11. Rows: row sums then col sums.
        let r = Csr::from_triplets(
            4,
            4,
            vec![
                (0, 0, 1.0),
                (0, 1, 1.0),
                (1, 2, 1.0),
                (1, 3, 1.0),
                (2, 0, 1.0),
                (2, 2, 1.0),
                (3, 1, 1.0),
                (3, 3, 1.0),
            ],
        )
        .unwrap();
        let prior = vec![1.0, 1.0, 1.0, 1.0];
        let t = vec![3.0, 1.0, 2.0, 2.0];
        let res = cold_gis(
            &prior,
            &r,
            &t,
            IpfOptions {
                max_iter: 20_000,
                tol: 1e-10,
                ..Default::default()
            },
        )
        .unwrap();
        let rs = r.matvec(&res.values);
        for i in 0..4 {
            assert!(
                (rs[i] - t[i]).abs() < 1e-7,
                "row {i}: {} vs {}",
                rs[i],
                t[i]
            );
        }
        // Compare against RAS on the matrix form.
        let ras_res = ras(
            &Mat::from_rows(&[vec![1.0, 1.0], vec![1.0, 1.0]]),
            &[3.0, 1.0],
            &[2.0, 2.0],
            IpfOptions::default(),
        )
        .unwrap();
        for (a, b) in res.values.iter().zip(&ras_res.values) {
            assert!((a - b).abs() < 1e-5, "gis {a} vs ras {b}");
        }
    }

    #[test]
    fn gis_zero_link_load_zeroes_demands() {
        // One link carries demands 0 and 1; t = 0 forces both to zero.
        let r = Csr::from_triplets(2, 3, vec![(0, 0, 1.0), (0, 1, 1.0), (1, 2, 1.0)]).unwrap();
        let res = cold_gis(&[1.0, 1.0, 1.0], &r, &[0.0, 5.0], IpfOptions::default()).unwrap();
        assert_eq!(res.values[0], 0.0);
        assert_eq!(res.values[1], 0.0);
        assert!((res.values[2] - 5.0).abs() < 1e-8);
    }

    #[test]
    fn gis_minimizes_kl_against_alternatives() {
        // Underdetermined: x0 + x1 = 4 with prior (3, 1): the KL projection
        // is (3, 1) (prior already feasible).
        let r = Csr::from_triplets(1, 2, vec![(0, 0, 1.0), (0, 1, 1.0)]).unwrap();
        let res = cold_gis(&[3.0, 1.0], &r, &[4.0], IpfOptions::default()).unwrap();
        assert!((res.values[0] - 3.0).abs() < 1e-9);
        assert!((res.values[1] - 1.0).abs() < 1e-9);

        // Prior (1,1) with sum 4 scales to (2,2).
        let res2 = cold_gis(&[1.0, 1.0], &r, &[4.0], IpfOptions::default()).unwrap();
        assert!((res2.values[0] - 2.0).abs() < 1e-9);
        assert!((res2.values[1] - 2.0).abs() < 1e-9);
    }

    #[test]
    fn gis_inconsistent_does_not_converge() {
        // x0 = 1 and x0 = 2 simultaneously.
        let r = Csr::from_triplets(2, 1, vec![(0, 0, 1.0), (1, 0, 1.0)]).unwrap();
        let res = cold_gis(
            &[1.0],
            &r,
            &[1.0, 2.0],
            IpfOptions {
                max_iter: 200,
                tol: 1e-12,
                ..Default::default()
            },
        );
        assert!(matches!(res, Err(OptError::DidNotConverge { .. })));
    }

    #[test]
    fn gis_shape_validation() {
        let r = Csr::from_triplets(1, 2, vec![(0, 0, 1.0)]).unwrap();
        assert!(cold_gis(&[1.0], &r, &[1.0], IpfOptions::default()).is_err());
        assert!(cold_gis(&[1.0, 1.0], &r, &[1.0, 2.0], IpfOptions::default()).is_err());
        assert!(cold_gis(&[-1.0, 1.0], &r, &[1.0], IpfOptions::default()).is_err());
    }

    #[test]
    fn one_plan_serves_every_prior_bitwise() {
        let r = Csr::from_triplets(
            3,
            3,
            vec![
                (0, 0, 1.0),
                (0, 1, 1.0),
                (1, 1, 1.0),
                (1, 2, 1.0),
                (2, 0, 1.0),
            ],
        )
        .unwrap();
        let prior = vec![2.0, 1.0, 3.0];
        let t = vec![4.0, 3.0, 2.5];
        let plan = GisPlan::build(&r, &t).unwrap();
        assert_eq!(plan.active_rows, vec![0, 1, 2]);
        assert!(plan.zeroed.is_empty());
        // A plan built once for (R, t) serves several priors with the
        // same bits as a plan built afresh for each solve.
        for prior in [prior.clone(), vec![0.5, 4.0, 1.0]] {
            let shared = gis(&prior, &r, &t, &plan, IpfOptions::default(), None).unwrap();
            let fresh = cold_gis(&prior, &r, &t, IpfOptions::default()).unwrap();
            assert_eq!(shared.values, fresh.values);
            assert_eq!(shared.iterations, fresh.iterations);
        }

        // Zero-load rows land in the plan's zeroed list.
        let t0 = vec![0.0, 3.0, 2.5];
        let plan0 = GisPlan::build(&r, &t0).unwrap();
        assert_eq!(plan0.active_rows, vec![1, 2]);
        assert_eq!(plan0.zeroed, vec![0, 1]);

        // Plan building validates like gis.
        assert!(GisPlan::build(&r, &[1.0]).is_err());
        assert!(GisPlan::build(&r, &[1.0, -1.0, 1.0]).is_err());
    }

    #[test]
    fn gis_warm_start_converges_to_the_cold_projection() {
        // Warm iterates on the prior's exponential manifold must reach
        // the same KL projection, in (far) fewer sweeps.
        let r = Csr::from_triplets(
            3,
            4,
            vec![
                (0, 0, 1.0),
                (0, 1, 1.0),
                (1, 1, 1.0),
                (1, 2, 1.0),
                (2, 2, 1.0),
                (2, 3, 1.0),
            ],
        )
        .unwrap();
        let prior = vec![2.0, 1.0, 3.0, 0.5];
        let t1 = vec![4.0, 3.0, 2.5];
        let plan = GisPlan::build(&r, &t1).unwrap();
        let opts = IpfOptions {
            max_iter: 50_000,
            tol: 1e-10,
            ..Default::default()
        };
        let cold1 = gis(&prior, &r, &t1, &plan, opts, None).unwrap();
        // A drifted target: warm start from the previous solution.
        let t2 = vec![4.2, 3.1, 2.4];
        let plan2 = GisPlan::build(&r, &t2).unwrap();
        let cold2 = gis(&prior, &r, &t2, &plan2, opts, None).unwrap();
        let warm2 = gis(&prior, &r, &t2, &plan2, opts, Some(&cold1.values)).unwrap();
        for (w, c) in warm2.values.iter().zip(&cold2.values) {
            assert!(
                (w - c).abs() < 1e-6 * (1.0 + c.abs()),
                "warm {w} vs cold {c}"
            );
        }
        assert!(
            warm2.iterations <= cold2.iterations,
            "warm {} vs cold {} sweeps",
            warm2.iterations,
            cold2.iterations
        );
        // Warm-starting from the exact solution converges immediately.
        let again = gis(&prior, &r, &t2, &plan2, opts, Some(&warm2.values)).unwrap();
        assert!(again.iterations <= 2, "{} sweeps", again.iterations);
        // A zero warm entry where the prior is positive is off the
        // prior's manifold: the warm start must be ignored entirely
        // (bit-identical cold fallback), not floored into a different
        // projection.
        let mut pinned = cold1.values.clone();
        pinned[0] = 0.0;
        let fallback = gis(&prior, &r, &t2, &plan2, opts, Some(&pinned)).unwrap();
        assert_eq!(fallback.values, cold2.values);
        assert_eq!(fallback.iterations, cold2.iterations);
        // Validation: wrong warm length.
        assert!(gis(&prior, &r, &t2, &plan2, opts, Some(&[1.0])).is_err());
    }

    #[test]
    fn anderson_reaches_the_same_fixed_point() {
        // A moderately coupled system where plain GIS needs many
        // sweeps. The Anderson-accelerated run must land on the same
        // I-projection (the fixed point is pinned by the exponential
        // manifold argument) in no more sweeps.
        let r = Csr::from_triplets(
            4,
            6,
            vec![
                (0, 0, 1.0),
                (0, 1, 1.0),
                (0, 2, 1.0),
                (1, 2, 1.0),
                (1, 3, 1.0),
                (2, 3, 1.0),
                (2, 4, 1.0),
                (3, 4, 1.0),
                (3, 5, 1.0),
                (3, 0, 1.0),
            ],
        )
        .unwrap();
        let prior = vec![2.0, 1.0, 3.0, 0.5, 1.5, 2.5];
        let t = vec![4.0, 2.0, 3.0, 5.0];
        let plan = GisPlan::build(&r, &t).unwrap();
        let opts = IpfOptions {
            max_iter: 100_000,
            tol: 1e-11,
            ..Default::default()
        };
        let plain = gis(&prior, &r, &t, &plan, opts, None).unwrap();
        let aa = gis(
            &prior,
            &r,
            &t,
            &plan,
            IpfOptions {
                anderson_depth: 3,
                ..opts
            },
            None,
        )
        .unwrap();
        for (a, b) in aa.values.iter().zip(&plain.values) {
            assert!(
                (a - b).abs() < 1e-7 * (1.0 + b.abs()),
                "anderson {a} vs plain {b}"
            );
        }
        assert!(
            aa.iterations <= plain.iterations,
            "anderson {} vs plain {} sweeps",
            aa.iterations,
            plain.iterations
        );
        // Depth 0 is bit-identical to the plain path (fixed point AND
        // trajectory).
        let zero = gis(
            &prior,
            &r,
            &t,
            &plan,
            IpfOptions {
                anderson_depth: 0,
                ..opts
            },
            None,
        )
        .unwrap();
        assert_eq!(zero.values, plain.values);
        assert_eq!(zero.iterations, plain.iterations);
        // Anderson composes with over-relaxation and its safeguard.
        let both = gis(
            &prior,
            &r,
            &t,
            &plan,
            IpfOptions {
                anderson_depth: 3,
                relaxation: 3.0,
                ..opts
            },
            None,
        )
        .unwrap();
        for (a, b) in both.values.iter().zip(&plain.values) {
            assert!((a - b).abs() < 1e-7 * (1.0 + b.abs()));
        }
        // Zero-load rows (pinned demands) survive acceleration.
        let t0 = vec![0.0, 2.0, 3.0, 5.0];
        let plan0 = GisPlan::build(&r, &t0).unwrap();
        let aa0 = gis(
            &prior,
            &r,
            &t0,
            &plan0,
            IpfOptions {
                anderson_depth: 3,
                ..opts
            },
            None,
        )
        .unwrap();
        let plain0 = gis(&prior, &r, &t0, &plan0, opts, None).unwrap();
        assert_eq!(aa0.values[0], 0.0);
        assert_eq!(aa0.values[1], 0.0);
        assert_eq!(aa0.values[2], 0.0);
        for (a, b) in aa0.values.iter().zip(&plain0.values) {
            assert!((a - b).abs() < 1e-7 * (1.0 + b.abs()));
        }
    }

    #[test]
    fn kl_divergence_properties() {
        assert_eq!(kl_divergence(&[1.0, 2.0], &[1.0, 2.0]), 0.0);
        assert!(kl_divergence(&[1.0], &[2.0]) > 0.0);
        assert!(kl_divergence(&[1.0], &[0.0]).is_infinite());
        assert_eq!(kl_divergence(&[0.0], &[3.0]), 3.0);
    }
}
