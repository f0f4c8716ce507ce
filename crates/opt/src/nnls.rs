//! Non-negative least squares solvers.
//!
//! The engines the estimators run:
//!
//! * [`ridge_nnls`] / [`ridge_nnls_kernel`] — the Tikhonov NNLS of the
//!   Bayesian estimator `min ‖Rs−t‖² + μ‖s−s⁽ᵖ⁾‖², s ≥ 0` (paper Eq. 7)
//!   in dual (kernel) form; the second carries the factored kernel
//!   across calls.
//! * [`ssn_nnls`] — semismooth Newton on a sparse Gram system (the
//!   Vardi/Cao moment solves), with a private coordinate-descent
//!   fallback on the same sparse Gram.
//!
//! The reference implementations the tests hold those engines to; no
//! estimator calls them:
//!
//! * [`lawson_hanson`] — the classical active-set method. Exact (finite
//!   termination) on small dense problems.
//! * [`cd_nnls`] — cyclic coordinate descent on the dense Gram system
//!   with an optional Tikhonov term.

use serde::{DeError, Deserialize, Serialize, Value};
use tm_linalg::decomp::{qr, Cholesky, SparseCholFactor, SparseCholSymbolic};
use tm_linalg::{vector, Csr, LinOp, Mat, Workspace};

use crate::convergence::Convergence;
use crate::error::OptError;
use crate::Result;

/// Solution of an NNLS problem.
#[derive(Debug, Clone)]
pub struct NnlsSolution {
    /// The minimizer `x ≥ 0`.
    pub x: Vec<f64>,
    /// Residual norm `‖A·x − b‖₂`.
    pub residual_norm: f64,
    /// Outer iterations used.
    pub iterations: usize,
    /// Optimality measure achieved at exit (solver-specific: dual
    /// gradient norm, scaled coordinate delta, or KKT violation).
    /// Every `Ok` exit is at tolerance — budget exhaustion returns
    /// [`OptError::DidNotConverge`] — so this is always ≤ the
    /// requested tolerance; see [`NnlsSolution::convergence`].
    pub achieved_tol: f64,
}

impl NnlsSolution {
    /// Typed convergence status. NNLS solvers only return `Ok` at
    /// tolerance, so this always reports `converged: true`; budget
    /// exhaustion is the [`OptError::DidNotConverge`] error.
    pub fn convergence(&self) -> Convergence {
        Convergence::achieved(self.achieved_tol, self.iterations)
    }
}

/// Lawson–Hanson active-set NNLS: `min ‖A·x − b‖₂  s.t.  x ≥ 0`, to a
/// dual-feasibility tolerance of `1e-10` (scaled by `‖b‖∞`) on the
/// gradient `w = Aᵀ(b − Ax)`, within `3n + 10` inner iterations.
pub fn lawson_hanson(a: &Mat, b: &[f64]) -> Result<NnlsSolution> {
    let (m, n) = a.shape();
    if b.len() != m {
        return Err(OptError::Invalid(format!(
            "nnls: rhs {} vs rows {}",
            b.len(),
            m
        )));
    }
    let max_iter = 3 * n + 10;
    let scale = vector::norm_inf(b).max(1.0);
    let tol = 1e-10 * scale;

    let mut x = vec![0.0; n];
    let mut passive = vec![false; n];
    let mut iterations = 0usize;

    loop {
        // Gradient of ½‖Ax−b‖² is −Aᵀ(b−Ax); w = Aᵀ(b−Ax).
        let resid = vector::sub(b, &a.matvec(&x));
        let w = a.tr_matvec(&resid);

        // Most positive gradient among active (zero) variables.
        let mut best: Option<(usize, f64)> = None;
        for j in 0..n {
            if !passive[j] && w[j] > tol {
                match best {
                    Some((_, bw)) if bw >= w[j] => {}
                    _ => best = Some((j, w[j])),
                }
            }
        }
        let Some((enter, _)) = best else {
            let rn = vector::norm2(&resid);
            return Ok(NnlsSolution {
                x,
                residual_norm: rn,
                iterations,
                // Dual feasibility violation: only *positive* gradient
                // entries at the bound violate optimality.
                achieved_tol: w.iter().fold(0.0f64, |m, &v| m.max(v)),
            });
        };
        passive[enter] = true;

        // Inner loop: unconstrained LS on the passive set; clip as needed.
        loop {
            iterations += 1;
            if iterations > max_iter {
                return Err(OptError::DidNotConverge {
                    iterations,
                    measure: vector::norm_inf(&w),
                });
            }
            let pset: Vec<usize> = (0..n).filter(|&j| passive[j]).collect();
            let ap = a.select_cols(&pset);
            let z = match qr::lstsq(&ap, b) {
                Ok(z) => z,
                Err(_) => {
                    // Rank-deficient passive set: drop the entering column
                    // and accept the current iterate for this candidate.
                    passive[enter] = false;
                    break;
                }
            };
            if z.iter().all(|&v| v > 0.0) {
                for (k, &j) in pset.iter().enumerate() {
                    x[j] = z[k];
                }
                break;
            }
            // Step toward z until the first passive variable hits zero.
            let mut alpha = f64::INFINITY;
            for (k, &j) in pset.iter().enumerate() {
                if z[k] <= 0.0 {
                    let denom = x[j] - z[k];
                    if denom > 0.0 {
                        alpha = alpha.min(x[j] / denom);
                    }
                }
            }
            if !alpha.is_finite() {
                alpha = 0.0;
            }
            for (k, &j) in pset.iter().enumerate() {
                x[j] += alpha * (z[k] - x[j]);
            }
            for &j in &pset {
                if x[j] <= tol.max(1e-14) {
                    x[j] = 0.0;
                    passive[j] = false;
                }
            }
        }
    }
}

/// Coordinate-descent NNLS with optional Tikhonov regularization:
///
/// `min ½‖A·x − b‖² + ½μ‖x − x₀‖²  s.t.  x ≥ 0`
///
/// Works on the Gram system `G = AᵀA + μI`, `h = Aᵀb + μx₀`, so each
/// sweep costs `O(n²)` regardless of the number of rows. With `μ > 0`
/// the objective is strictly convex and the iteration converges to the
/// unique minimizer.
pub fn cd_nnls(
    a: &Mat,
    b: &[f64],
    mu: f64,
    x0: Option<&[f64]>,
    max_sweeps: usize,
    tol: f64,
) -> Result<NnlsSolution> {
    let (m, n) = a.shape();
    if b.len() != m {
        return Err(OptError::Invalid(format!(
            "cd_nnls: rhs {} vs rows {}",
            b.len(),
            m
        )));
    }
    if let Some(x0) = x0 {
        if x0.len() != n {
            return Err(OptError::Invalid(format!(
                "cd_nnls: x0 {} vs cols {}",
                x0.len(),
                n
            )));
        }
    }
    if mu < 0.0 {
        return Err(OptError::Invalid("cd_nnls: negative mu".into()));
    }

    let mut g = a.gram();
    for i in 0..n {
        g.add_to(i, i, mu);
    }
    let mut h = a.tr_matvec(b);
    if let Some(x0) = x0 {
        if mu > 0.0 {
            vector::axpy(mu, x0, &mut h);
        }
    }

    // Start from the projected prior (or zero).
    let mut x: Vec<f64> = match x0 {
        Some(x0) => x0.iter().map(|&v| v.max(0.0)).collect(),
        None => vec![0.0; n],
    };
    // grad = G·x − h, maintained incrementally.
    let mut grad = g.matvec(&x);
    for i in 0..n {
        grad[i] -= h[i];
    }

    let scale = vector::norm_inf(&h).max(1.0);
    let mut sweeps = 0usize;
    let achieved;
    loop {
        sweeps += 1;
        let mut max_delta = 0.0f64;
        for j in 0..n {
            let gjj = g.get(j, j);
            if gjj <= 0.0 {
                continue; // zero column: x_j has no effect; leave as is
            }
            let new = (x[j] - grad[j] / gjj).max(0.0);
            let delta = new - x[j];
            if delta != 0.0 {
                x[j] = new;
                // grad += delta * G[:, j]  (G symmetric: use row j)
                let grow = g.row(j);
                for i in 0..n {
                    grad[i] += delta * grow[i];
                }
                max_delta = max_delta.max(delta.abs() * gjj.sqrt());
            }
        }
        if max_delta <= tol * scale {
            achieved = max_delta / scale;
            break;
        }
        if sweeps >= max_sweeps {
            return Err(OptError::DidNotConverge {
                iterations: sweeps,
                measure: max_delta / scale,
            });
        }
    }
    let resid = vector::sub(&a.matvec(&x), b);
    Ok(NnlsSolution {
        residual_norm: vector::norm2(&resid),
        x,
        iterations: sweeps,
        achieved_tol: achieved,
    })
}

/// Sparse-Gram coordinate-descent NNLS:
///
/// `min ½‖A·x − b‖² + ½μ‖x − x₀‖²  s.t.  x ≥ 0`
///
/// The sparse-first sibling of [`cd_nnls`] and the fallback of
/// [`ssn_nnls`]: the Gram matrix `G = AᵀA` is computed sparse-to-sparse
/// ([`Csr::gram`]) and each coordinate update walks only the *stored*
/// entries of `G`'s row, so a full sweep costs O(nnz(G) + n) instead of
/// O(n²).
fn cd_nnls_sparse(
    a: &Csr,
    b: &[f64],
    mu: f64,
    x0: Option<&[f64]>,
    max_sweeps: usize,
    tol: f64,
) -> Result<NnlsSolution> {
    let (m, n) = (a.rows(), a.cols());
    if b.len() != m {
        return Err(OptError::Invalid(format!(
            "cd_nnls_sparse: rhs {} vs rows {}",
            b.len(),
            m
        )));
    }
    if let Some(x0) = x0 {
        if x0.len() != n {
            return Err(OptError::Invalid(format!(
                "cd_nnls_sparse: x0 {} vs cols {}",
                x0.len(),
                n
            )));
        }
    }
    if mu < 0.0 {
        return Err(OptError::Invalid("cd_nnls_sparse: negative mu".into()));
    }

    let g = a.gram();
    // Effective diagonal G_jj + μ.
    let diag: Vec<f64> = (0..n).map(|j| g.get(j, j) + mu).collect();
    let mut h = a.tr_matvec(b);
    if let Some(x0) = x0 {
        if mu > 0.0 {
            vector::axpy(mu, x0, &mut h);
        }
    }

    let mut x: Vec<f64> = match x0 {
        Some(x0) => x0.iter().map(|&v| v.max(0.0)).collect(),
        None => vec![0.0; n],
    };
    // grad = (G + μI)·x − h, maintained incrementally through sparse rows.
    let mut grad = g.matvec(&x);
    for j in 0..n {
        grad[j] += mu * x[j] - h[j];
    }

    let scale = vector::norm_inf(&h).max(1.0);
    let mut sweeps = 0usize;
    let achieved;
    loop {
        sweeps += 1;
        let mut max_delta = 0.0f64;
        for j in 0..n {
            let djj = diag[j];
            if djj <= 0.0 {
                continue; // zero column with μ = 0: x_j has no effect
            }
            let new = (x[j] - grad[j] / djj).max(0.0);
            let delta = new - x[j];
            if delta != 0.0 {
                x[j] = new;
                // grad += delta·(G[:,j] + μ·e_j); G symmetric ⇒ row j.
                let (idx, val) = g.row(j);
                for (&i, &v) in idx.iter().zip(val) {
                    grad[i] += delta * v;
                }
                grad[j] += delta * mu;
                max_delta = max_delta.max(delta.abs() * djj.sqrt());
            }
        }
        if max_delta <= tol * scale {
            achieved = max_delta / scale;
            break;
        }
        if sweeps >= max_sweeps {
            return Err(OptError::DidNotConverge {
                iterations: sweeps,
                measure: max_delta / scale,
            });
        }
    }
    let resid = vector::sub(&a.matvec(&x), b);
    Ok(NnlsSolution {
        residual_norm: vector::norm2(&resid),
        x,
        iterations: sweeps,
        achieved_tol: achieved,
    })
}

/// Tikhonov-regularized NNLS in *dual* (kernel) form:
///
/// `min ‖A·x − b‖² + μ‖x − x₀‖²  s.t.  x ≥ 0`,  `μ > 0`.
///
/// The unconstrained minimizer over a free set `F` is obtained from an
/// `m × m` system (`m` = number of rows) regardless of conditioning:
///
/// `x_F = x₀_F + A_Fᵀ (A_F A_Fᵀ + μI)⁻¹ (b − A_F x₀_F)`
///
/// which stays exact even for the tiny `μ` (large regularization
/// parameter λ = 1/μ) where coordinate descent crawls — precisely the
/// regime in which the paper reports the regularized estimators work
/// best (Fig. 13). Nonnegativity is enforced by an active-set loop:
/// negative entries are clamped to zero and dual-infeasible zeros are
/// released one at a time.
///
/// `at` is the precomputed transpose `Aᵀ` (the column view the
/// active-set loop walks); prepared measurement systems cache it once
/// and reuse it across intervals.
///
/// The active-set loop starts with *every* variable free and clamps its
/// way down when `seed` is `None`. `Some(x)` seeds the free set from the
/// support of a previous solution instead (`x[p] > 0` ⇒ free). Between
/// consecutive intervals of a slowly drifting load series the support
/// rarely changes, so the loop typically terminates after one or two
/// kernel solves instead of re-discovering the active set from scratch.
/// The objective is strictly convex (`μ > 0`), so the minimizer — and
/// therefore the returned solution, up to solver tolerance — does not
/// depend on the starting set.
pub fn ridge_nnls(
    a: &Csr,
    at: &Csr,
    b: &[f64],
    mu: f64,
    x0: &[f64],
    seed: Option<&[f64]>,
) -> Result<NnlsSolution> {
    let (m, n) = (a.rows(), a.cols());
    if b.len() != m || x0.len() != n {
        return Err(OptError::Invalid(format!(
            "ridge_nnls: A {m}x{n} vs b {} and x0 {}",
            b.len(),
            x0.len()
        )));
    }
    if at.rows() != n || at.cols() != m {
        return Err(OptError::Invalid(format!(
            "ridge_nnls: transpose is {}x{} for A {m}x{n}",
            at.rows(),
            at.cols()
        )));
    }
    if mu <= 0.0 {
        return Err(OptError::Invalid("ridge_nnls: mu must be positive".into()));
    }
    let scale = vector::norm_inf(b).max(vector::norm_inf(x0)).max(1.0);
    let tol = 1e-10 * scale;

    let mut free = match seed {
        None => vec![true; n],
        Some(w) => {
            if w.len() != n {
                return Err(OptError::Invalid(format!(
                    "ridge_nnls: warm start has {} entries for {n} columns",
                    w.len()
                )));
            }
            w.iter().map(|&v| v > 0.0).collect()
        }
    };
    let max_outer = 3 * n + 20;
    let mut x = vec![0.0; n];

    // M = A_F A_Fᵀ + μI is maintained *incrementally*: the first outer
    // iteration assembles it from all columns (O(Σ_p nnz_p²) sparse
    // outer products); later iterations only subtract clamped columns
    // and add released ones, so active-set changes cost O(changed
    // columns) instead of a full reassembly. Subtracting rank-one
    // terms leaves O(eps) cancellation residue, so once the cumulative
    // flip count reaches a full reassembly's worth of columns, M is
    // rebuilt from scratch — the drift can never outgrow μ.
    let mut mmat = Mat::zeros(m, m);
    for i in 0..m {
        mmat.set(i, i, mu);
    }
    let mut in_m = vec![false; n];
    let mut flips_since_rebuild = 0usize;
    // Scratch pool: the outer loop's per-iteration vectors are
    // recycled instead of reallocated.
    let mut ws = Workspace::new();
    let rank_one = |mmat: &mut Mat, p: usize, sign: f64| {
        let (idx, val) = at.row(p);
        for (k1, &i) in idx.iter().enumerate() {
            for (k2, &j) in idx.iter().enumerate() {
                mmat.add_to(i, j, sign * val[k1] * val[k2]);
            }
        }
    };

    for outer in 1..=max_outer {
        let pending: usize = (0..n).filter(|&p| free[p] != in_m[p]).count();
        let rebuilt = flips_since_rebuild + pending > n;
        if rebuilt {
            // Exact rebuild: same cost as one first-iteration assembly.
            mmat.scale(0.0);
            for i in 0..m {
                mmat.set(i, i, mu);
            }
            for p in 0..n {
                in_m[p] = false;
            }
        }
        // Sync M with the free set and rebuild r = b − A_F x0_F.
        let mut afx0 = ws.take(m);
        for p in 0..n {
            if free[p] != in_m[p] {
                rank_one(&mut mmat, p, if free[p] { 1.0 } else { -1.0 });
                in_m[p] = free[p];
                flips_since_rebuild += 1;
            }
            if free[p] {
                let (idx, val) = at.row(p);
                for (k1, &i) in idx.iter().enumerate() {
                    afx0[i] += val[k1] * x0[p];
                }
            }
        }
        if rebuilt {
            // Re-adds after a from-scratch rebuild are exact, not drift.
            flips_since_rebuild = 0;
        }
        let mut rhs = ws.take(m);
        for i in 0..m {
            rhs[i] = b[i] - afx0[i];
        }
        let y = Cholesky::factor(&mmat)?.solve(&rhs)?;
        ws.give(afx0);
        ws.give(rhs);

        // x_F = x0_F + A_Fᵀ y; x_Z = 0.
        let aty = a.tr_matvec(&y);
        let mut min_val = 0.0f64;
        let mut min_idx = usize::MAX;
        for p in 0..n {
            x[p] = if free[p] { x0[p] + aty[p] } else { 0.0 };
            if free[p] && x[p] < min_val {
                min_val = x[p];
                min_idx = p;
            }
        }

        if min_val < -tol {
            // Clamp all negative free variables in one step (FNNLS-style);
            // strict convexity guarantees finite termination because the
            // objective strictly decreases across distinct active sets.
            for p in 0..n {
                if free[p] && x[p] < -tol {
                    free[p] = false;
                    x[p] = 0.0;
                } else if free[p] && x[p] < 0.0 {
                    x[p] = 0.0;
                }
            }
            let _ = min_idx;
            continue;
        }
        for p in 0..n {
            if x[p] < 0.0 {
                x[p] = 0.0;
            }
        }

        // Dual feasibility of clamped variables:
        // g_p = a_pᵀ(Ax − b) + μ(x_p − x0_p) must be ≥ 0 when x_p = 0.
        let resid = vector::sub(&a.matvec(&x), b);
        let grad_ls = a.tr_matvec(&resid);
        let mut worst = -tol;
        let mut worst_p = usize::MAX;
        for p in 0..n {
            if !free[p] {
                let g = grad_ls[p] + mu * (x[p] - x0[p]);
                if g < worst {
                    worst = g;
                    worst_p = p;
                }
            }
        }
        if worst_p == usize::MAX {
            return Ok(NnlsSolution {
                residual_norm: vector::norm2(&resid),
                x,
                iterations: outer,
                // Dual-feasible exit: no clamped gradient below −tol.
                achieved_tol: (-worst).max(0.0),
            });
        }
        free[worst_p] = true;
    }
    Err(OptError::DidNotConverge {
        iterations: max_outer,
        measure: f64::NAN,
    })
}

/// Cached dual-form kernel of a ridge-NNLS active set: the free-set
/// indicator and the Cholesky factor of `M = A_F·A_Fᵀ + μI`. `M`
/// depends only on the matrix, μ and the free set — **not** on the
/// right-hand side or the prior — so consecutive intervals of a
/// slowly drifting load series, whose active sets rarely change, can
/// skip the per-call assembly and factorization entirely.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RidgeKernel {
    free: Vec<bool>,
    chol: Cholesky,
}

impl RidgeKernel {
    /// The cached free-set indicator.
    pub fn free(&self) -> &[bool] {
        &self.free
    }
}

/// [`ridge_nnls`] with a cached factorized kernel carried across
/// calls (the streaming fast path).
///
/// When `kernel` holds the factor of a previous call's final active
/// set, one kernel solve + a KKT check answers the new right-hand side
/// in `O(nnz + m²)` — no assembly, no factorization. Only when the
/// check fails (the active set moved) does the full active-set loop
/// run, after which the kernel is re-factored for the new set. The
/// objective is strictly convex, so the solution is the unique
/// minimizer regardless of which path produced it (up to the same
/// solver tolerance as [`ridge_nnls`]).
pub fn ridge_nnls_kernel(
    a: &Csr,
    at: &Csr,
    b: &[f64],
    mu: f64,
    x0: &[f64],
    kernel: &mut Option<RidgeKernel>,
) -> Result<NnlsSolution> {
    let (m, n) = (a.rows(), a.cols());
    // Remember the cached free set before the incremental attempt: a
    // declined repair discards the kernel, but its (partially moved)
    // set is still a far better slow-path seed than starting all-free.
    let warm_seed: Option<Vec<f64>> = kernel
        .as_ref()
        .filter(|k| k.free.len() == n)
        .map(|k| k.free.iter().map(|&f| if f { 1.0 } else { 0.0 }).collect());
    if let Some(k) = kernel.as_mut() {
        if k.free.len() == n {
            match ridge_kernel_incremental(a, at, b, mu, x0, k) {
                Ok(Some(sol)) => return Ok(sol),
                // The incremental path declined (too many active-set
                // moves) or a downdate lost definiteness: discard the
                // kernel and run the full loop below.
                Ok(None) | Err(_) => *kernel = None,
            }
        }
    }
    // Slow path: run the active-set loop from the remembered seed.
    let sol = ridge_nnls(a, at, b, mu, x0, warm_seed.as_deref())?;
    // Re-factor the kernel for the new support.
    let free: Vec<bool> = sol.x.iter().map(|&v| v > 0.0).collect();
    let mut mmat = Mat::zeros(m, m);
    for i in 0..m {
        mmat.set(i, i, mu);
    }
    for (p, &is_free) in free.iter().enumerate() {
        if !is_free {
            continue;
        }
        let (idx, val) = at.row(p);
        for (k1, &i) in idx.iter().enumerate() {
            for (k2, &j) in idx.iter().enumerate() {
                mmat.add_to(i, j, val[k1] * val[k2]);
            }
        }
    }
    *kernel = Cholesky::factor(&mmat)
        .ok()
        .map(|chol| RidgeKernel { free, chol });
    Ok(sol)
}

/// Cap on incremental active-set moves per call before declaring the
/// cached kernel stale and rebuilding from scratch (each move is an
/// `O(m²)` rank-one up/downdate — a handful per interval is the
/// expected regime, a flood means the set genuinely jumped).
const KERNEL_MAX_MOVES: usize = 24;

/// Solve against the cached kernel, repairing the active set by
/// rank-one Cholesky up/downdates as it drifts: clamp the worst primal
/// violator (downdate its column), release the worst dual violator
/// (update its column), re-solve — each move `O(m²)` instead of a full
/// `O(m³)` refactorization. Returns `Ok(None)` when the set moved more
/// than [`KERNEL_MAX_MOVES`] times; errors (e.g. a downdate losing
/// definiteness) leave the kernel unusable — the caller discards it.
fn ridge_kernel_incremental(
    a: &Csr,
    at: &Csr,
    b: &[f64],
    mu: f64,
    x0: &[f64],
    kernel: &mut RidgeKernel,
) -> Result<Option<NnlsSolution>> {
    let (m, n) = (a.rows(), a.cols());
    if b.len() != m || x0.len() != n {
        return Err(OptError::Invalid(format!(
            "ridge_nnls: A {m}x{n} vs b {} and x0 {}",
            b.len(),
            x0.len()
        )));
    }
    let scale = vector::norm_inf(b).max(vector::norm_inf(x0)).max(1.0);
    let tol = 1e-10 * scale;
    let dense_col = |p: usize| -> Vec<f64> {
        let mut v = vec![0.0; m];
        let (idx, val) = at.row(p);
        for (k1, &i) in idx.iter().enumerate() {
            v[i] = val[k1];
        }
        v
    };

    let mut moves = 0usize;
    loop {
        // rhs = b − A_F·x0_F.
        let mut rhs = b.to_vec();
        for (p, &is_free) in kernel.free.iter().enumerate() {
            if !is_free || x0[p] == 0.0 {
                continue;
            }
            let (idx, val) = at.row(p);
            for (k1, &i) in idx.iter().enumerate() {
                rhs[i] -= val[k1] * x0[p];
            }
        }
        let y = kernel.chol.solve(&rhs).map_err(OptError::Linalg)?;
        // x_F = x0_F + (Aᵀy)_F; x_Z = 0.
        let aty = a.tr_matvec(&y);
        let mut x = vec![0.0; n];
        let mut worst_primal = -tol;
        let mut clamp_p = usize::MAX;
        for (p, &is_free) in kernel.free.iter().enumerate() {
            if is_free {
                let v = x0[p] + aty[p];
                if v < worst_primal {
                    worst_primal = v;
                    clamp_p = p;
                }
                x[p] = v.max(0.0);
            }
        }
        if clamp_p != usize::MAX {
            moves += 1;
            if moves > KERNEL_MAX_MOVES {
                return Ok(None);
            }
            kernel.free[clamp_p] = false;
            kernel
                .chol
                .downdate(&dense_col(clamp_p))
                .map_err(OptError::Linalg)?;
            continue;
        }
        // Dual feasibility of the clamped variables.
        let resid = vector::sub(&a.matvec(&x), b);
        let grad_ls = a.tr_matvec(&resid);
        let mut worst_dual = -tol;
        let mut release_p = usize::MAX;
        for (p, &is_free) in kernel.free.iter().enumerate() {
            if !is_free {
                let g = grad_ls[p] + mu * (x[p] - x0[p]);
                if g < worst_dual {
                    worst_dual = g;
                    release_p = p;
                }
            }
        }
        if release_p != usize::MAX {
            moves += 1;
            if moves > KERNEL_MAX_MOVES {
                return Ok(None);
            }
            kernel.free[release_p] = true;
            kernel
                .chol
                .update(&dense_col(release_p))
                .map_err(OptError::Linalg)?;
            continue;
        }
        return Ok(Some(NnlsSolution {
            residual_norm: vector::norm2(&resid),
            x,
            iterations: moves,
            // Dual-feasible exit: no clamped gradient below −tol.
            achieved_tol: (-worst_dual).max(0.0),
        }));
    }
}

/// Cap on semismooth-Newton iterations in [`ssn_nnls`].
const SSN_MAX_ITER: usize = 40;

/// Relative KKT tolerance of [`ssn_nnls`] (scaled by `‖Aᵀb + μx₀‖∞`).
const SSN_TOL: f64 = 1e-9;

/// Warm-start state of [`ssn_nnls`] carried across the intervals of a
/// streaming sweep: the terminal active set, and the numeric sparse
/// Cholesky factor of the pinned system built for that set. When the
/// Gram matrix is constant across calls (the streaming second-moment
/// solves — only the right-hand side drifts) and the active set has
/// not moved, the next call skips the numeric refactorization entirely
/// and pays one triangular solve.
#[derive(Debug, Clone, Default)]
pub struct SsnState {
    free: Vec<bool>,
    /// Factor tagged with the free set it was built for.
    factor: Option<(Vec<bool>, SsnFactor)>,
}

/// The two factorization engines behind [`ssn_nnls`], chosen by the
/// fill of the cached symbolic analysis:
///
/// * **Sparse** — numeric refactorization against the shared symbolic
///   per active-set change; wins while `L` stays genuinely sparse.
/// * **Dense** — a dense Cholesky of the pinned system maintained by
///   **rank-one up/downdates per active-set move**: pinning/releasing
///   variable `j` is the symmetric rank-two modification
///   `∓(u·e_jᵀ + e_j·uᵀ)`, realized as one update plus one downdate of
///   the factor in `O(n²)` — far below a refactorization once the
///   factor's fill approaches dense (the backbone Gram kernels sit at
///   ~70% fill, where "sparse" refactorization is a dense
///   factorization in disguise).
#[derive(Debug, Clone)]
enum SsnFactor {
    Sparse(SparseCholFactor),
    Dense(Cholesky),
}

/// Fill share of the strictly-lower triangle above which [`ssn_nnls`]
/// switches from sparse refactorization to the dense up/downdated
/// factor.
const SSN_DENSE_FILL_SHARE: f64 = 0.35;

/// Cap on per-call active-set moves applied by up/downdates before a
/// full (lane-parallel) refactorization is cheaper.
const SSN_DENSE_MAX_MOVES: usize = 32;

impl SsnState {
    /// The carried free-set indicator (empty before the first solve).
    pub fn free(&self) -> &[bool] {
        &self.free
    }
}

/// Checkpoint form of [`SsnState`]: the free set always round-trips;
/// a **dense** factor is carried bit-exactly because it accumulates
/// rank-one up/downdate history that a refactorization would not
/// reproduce, while a **sparse** factor is deliberately dropped — the
/// next call numerically refactors against the shared symbolic
/// analysis, which is bit-deterministic for an unchanged Gram matrix,
/// so dropping it costs one refactorization and zero ULPs.
impl Serialize for SsnState {
    fn to_value(&self) -> Value {
        let (factor_free, factor_dense) = match &self.factor {
            Some((set, SsnFactor::Dense(chol))) => (set.to_value(), chol.to_value()),
            _ => (Value::Null, Value::Null),
        };
        Value::Map(vec![
            ("free".to_string(), self.free.to_value()),
            ("factor_free".to_string(), factor_free),
            ("factor_dense".to_string(), factor_dense),
        ])
    }
}

impl Deserialize for SsnState {
    fn from_value(v: &Value) -> std::result::Result<Self, DeError> {
        let free = Vec::<bool>::from_value(v.field("free")?)?;
        let factor_free = Option::<Vec<bool>>::from_value(v.field("factor_free")?)?;
        let factor_dense = Option::<Cholesky>::from_value(v.field("factor_dense")?)?;
        let factor = match (factor_free, factor_dense) {
            (Some(set), Some(chol)) => Some((set, SsnFactor::Dense(chol))),
            _ => None,
        };
        Ok(SsnState { free, factor })
    }
}

/// Semismooth-Newton NNLS on the Gram system:
///
/// `min ‖A·x − b‖² + μ‖x − x₀‖²  s.t.  x ≥ 0`
///
/// The Hintermüller–Ito–Kunisch primal active-set iteration: each step
/// predicts the active set from `x − ∇f(x)`, pins those variables and
/// solves the reduced normal equations `(G + μI)_FF · x_F = h_F` with a
/// **sparse Cholesky against one cached symbolic analysis** — the
/// reduced system is realized by *pinning rows* (active rows replaced
/// by identity) so every active set shares the same elimination
/// structure `sym`, analyzed once per measurement matrix. Converges
/// superlinearly (typically finitely) where first-order methods pay for
/// the Hessian conditioning at a linear rate; on stagnation (an
/// active-set cycle, an indefinite reduced system from a rank-deficient
/// `μ = 0` Gram) it falls back to coordinate descent on the sparse
/// Gram.
///
/// * `g` must be `AᵀA` (no `μ`), with every diagonal entry structurally
///   present, and `sym` must come from `SparseCholSymbolic::analyze(g)`
///   (same pattern).
/// * `state` carries the active set — and, when `gram_reusable` is
///   `true` (the caller guarantees `g`'s *values* are unchanged since
///   the factor in `state` was built), the numeric factor — across
///   calls.
#[allow(clippy::too_many_arguments)]
pub fn ssn_nnls(
    a: &Csr,
    b: &[f64],
    mu: f64,
    x0: Option<&[f64]>,
    g: &Csr,
    sym: &SparseCholSymbolic,
    state: &mut SsnState,
    gram_reusable: bool,
) -> Result<NnlsSolution> {
    let (m, n) = (a.rows(), a.cols());
    if b.len() != m {
        return Err(OptError::Invalid(format!(
            "ssn_nnls: rhs {} vs rows {m}",
            b.len()
        )));
    }
    if let Some(x0) = x0 {
        if x0.len() != n {
            return Err(OptError::Invalid(format!(
                "ssn_nnls: x0 {} vs cols {n}",
                x0.len()
            )));
        }
    }
    if mu < 0.0 {
        return Err(OptError::Invalid("ssn_nnls: negative mu".into()));
    }
    if g.rows() != n || g.cols() != n || sym.n() != n {
        return Err(OptError::Invalid(format!(
            "ssn_nnls: gram {}x{} / symbolic {} vs cols {n}",
            g.rows(),
            g.cols(),
            sym.n()
        )));
    }
    // h = Aᵀb + μx₀.
    let mut h = a.tr_matvec(b);
    if let Some(x0) = x0 {
        if mu > 0.0 {
            vector::axpy(mu, x0, &mut h);
        }
    }
    let scale = vector::norm_inf(&h).max(1.0);
    let tol = SSN_TOL * scale;

    // Initial set: the carried one, else the seed's support, else all
    // free.
    let mut free: Vec<bool> = if state.free.len() == n {
        state.free.clone()
    } else {
        match x0 {
            Some(x0) if x0.iter().any(|&v| v > 0.0) => x0.iter().map(|&v| v > 0.0).collect(),
            _ => vec![true; n],
        }
    };
    if free.iter().all(|&f| !f) {
        free = vec![true; n];
    }

    // The pinned numeric system for a free set: active rows/columns are
    // replaced by identity rows so the factorization structure — the
    // cached `sym` — never changes.
    let pinned = |free: &[bool]| -> Csr {
        g.mapped_values(|i, j, v| {
            if i == j {
                if free[i] {
                    v + mu
                } else {
                    1.0
                }
            } else if free[i] && free[j] {
                v
            } else {
                0.0
            }
        })
    };
    // Dense materialization of the same pinned system.
    let pinned_dense = |free: &[bool]| -> Mat {
        let mut mat = Mat::zeros(n, n);
        for i in 0..n {
            if free[i] {
                let (idx, val) = g.row(i);
                for (&c, &v) in idx.iter().zip(val) {
                    if free[c] {
                        mat.set(i, c, v);
                    }
                }
                mat.add_to(i, i, mu);
            } else {
                mat.set(i, i, 1.0);
            }
        }
        mat
    };
    // One active-set move on the dense factor: pin/release variable j
    // by the symmetric rank-two modification `∓(u·e_jᵀ + e_j·uᵀ)`
    // with `u_c = G_jc` over the currently free c and
    // `u_j = (G_jj + μ − 1)/2`, split into one rank-one update and one
    // rank-one downdate. O(n²) per move.
    let apply_move = |chol: &mut Cholesky, tag: &mut [bool], j: usize, make_free: bool| {
        let mut u = vec![0.0; n];
        let mut gjj = 0.0;
        let (idx, val) = g.row(j);
        for (&c, &v) in idx.iter().zip(val) {
            if c == j {
                gjj = v;
            } else if tag[c] {
                u[c] = v;
            }
        }
        u[j] = (gjj + mu - 1.0) / 2.0;
        let s = std::f64::consts::FRAC_1_SQRT_2;
        let mut plus = u.clone();
        plus[j] += 1.0;
        for v in plus.iter_mut() {
            *v *= s;
        }
        let mut minus = u;
        minus[j] -= 1.0;
        for v in minus.iter_mut() {
            *v *= s;
        }
        let r = if make_free {
            chol.update(&plus).and_then(|()| chol.downdate(&minus))
        } else {
            chol.update(&minus).and_then(|()| chol.downdate(&plus))
        };
        if r.is_ok() {
            tag[j] = make_free;
        }
        r
    };
    // Engine choice: past ~35% fill a "sparse" refactorization is a
    // dense factorization in disguise, while the dense factor pays
    // only O(n²) rank-one up/downdates per active-set move.
    let use_dense =
        sym.nnz_l() as f64 > SSN_DENSE_FILL_SHARE * (n * n.saturating_sub(1)) as f64 / 2.0;

    let mut seen: Vec<Vec<bool>> = Vec::new();
    let mut x = vec![0.0; n];
    let mut grad = vec![0.0; n];
    let mut rhs = vec![0.0; n];
    // A dense factor carried from a previous call is only valid when
    // the caller vouches for the Gram values; one built inside this
    // call is valid for the rest of it regardless.
    let mut factor_current = gram_reusable;
    for _it in 0..SSN_MAX_ITER {
        // Factor for the current set: reuse the carried one when the
        // set matches, repair the dense one by up/downdates when the
        // set moved a little, rebuild otherwise.
        let tag_matches = state.factor.as_ref().is_some_and(|(tag, _)| *tag == free);
        if !(factor_current && tag_matches) {
            let mut rebuilt = false;
            if use_dense && factor_current {
                if let Some((tag, SsnFactor::Dense(chol))) = state.factor.as_mut() {
                    let moves: Vec<usize> = (0..n).filter(|&j| tag[j] != free[j]).collect();
                    if moves.len() <= SSN_DENSE_MAX_MOVES {
                        let mut ok = true;
                        for &j in &moves {
                            if apply_move(chol, tag, j, free[j]).is_err() {
                                // Downdate lost definiteness: the
                                // factor is unusable — rebuild below.
                                ok = false;
                                break;
                            }
                        }
                        rebuilt = ok;
                    }
                }
            }
            if !rebuilt {
                let built = if use_dense {
                    Cholesky::factor_fast(&pinned_dense(&free)).map(SsnFactor::Dense)
                } else {
                    let mut factor = match state.factor.take() {
                        Some((_, SsnFactor::Sparse(f))) => f,
                        _ => SparseCholFactor::default(),
                    };
                    sym.refactor(&pinned(&free), &mut factor)
                        .map(|()| SsnFactor::Sparse(factor))
                };
                match built {
                    Ok(f) => {
                        state.factor = Some((free.clone(), f));
                        factor_current = true;
                    }
                    // Indefinite reduced system (rank-deficient μ = 0
                    // Gram): hand over to coordinate descent.
                    Err(_) => break,
                }
            }
        }
        let (_, factor) = state.factor.as_ref().expect("installed above");
        for j in 0..n {
            rhs[j] = if free[j] { h[j] } else { 0.0 };
        }
        match factor {
            SsnFactor::Sparse(f) => sym.solve_into(f, &rhs, &mut x).map_err(OptError::Linalg)?,
            SsnFactor::Dense(chol) => {
                x = chol.solve(&rhs).map_err(OptError::Linalg)?;
            }
        }

        // Gradient of the (unscaled) objective halves:
        // ∇ = (G + μI)·x − h.
        g.matvec_into(&x, &mut grad);
        for j in 0..n {
            grad[j] += mu * x[j] - h[j];
        }

        // KKT violation of the iterate. Entries within tolerance of
        // the bound — including the ±1-ulp residue the up/downdated
        // dense factor leaves on pinned variables — are judged *at*
        // the bound: both their primal overshoot and their dual
        // feasibility count (classifying a −1e-16 entry as "negative"
        // only would mask a dual-infeasible pin).
        let mut viol = 0.0f64;
        for j in 0..n {
            if x[j] > tol {
                viol = viol.max(grad[j].abs());
            } else {
                viol = viol.max(-x[j]).max((-grad[j]).max(0.0));
            }
        }
        if viol <= tol {
            // Pinned entries are exactly zero by construction (clear
            // the up/downdate path's rounding residue); free entries
            // within tolerance of the bound were *judged* as bound by
            // the KKT test above, so clamp them too — returning them
            // as tiny positives would re-classify them as free under a
            // stricter activity threshold.
            for (v, &fr) in x.iter_mut().zip(&free) {
                if !fr || *v <= tol {
                    *v = 0.0;
                }
            }
            state.free = free;
            let resid = vector::sub(&a.matvec(&x), b);
            return Ok(NnlsSolution {
                residual_norm: vector::norm2(&resid),
                x,
                iterations: seen.len() + 1,
                achieved_tol: viol,
            });
        }

        // HIK active-set prediction from the unclamped Newton iterate.
        let next: Vec<bool> = (0..n).map(|j| x[j] - grad[j] > 0.0).collect();
        if next == free || seen.contains(&next) {
            // No progress or a cycle: stagnation.
            break;
        }
        seen.push(std::mem::replace(&mut free, next));
    }

    // Safeguarded fallback: first-order coordinate descent on the
    // sparse Gram reaches the same minimizer (strictly convex for
    // μ > 0; for μ = 0 any KKT point of the convex problem). The
    // budget is deliberately modest: SSN stagnation usually means the
    // instance is degenerate enough that the caller's own first-order
    // fallback (with its problem-specific scaling) is the better tool,
    // so a hard instance should fail fast here rather than burn
    // hundreds of sweeps.
    state.factor = None;
    let sol = cd_nnls_sparse(a, b, mu, x0, 5_000, SSN_TOL)?;
    state.free = sol.x.iter().map(|&v| v > 0.0).collect();
    Ok(sol)
}

/// Verify the KKT conditions of an NNLS solution (for tests and debug
/// assertions): `x ≥ 0`, and the gradient `g = Aᵀ(Ax−b) + μ(x−x₀)`
/// satisfies `g_j ≥ −tol` with `g_j ≤ tol` wherever `x_j > act_tol`.
/// Accepts any [`LinOp`] (dense `Mat` or sparse `Csr`).
pub fn kkt_violation<A: LinOp>(a: &A, b: &[f64], mu: f64, x0: Option<&[f64]>, x: &[f64]) -> f64 {
    let r = vector::sub(&LinOp::matvec(a, x), b);
    let mut g = LinOp::tr_matvec(a, &r);
    if mu > 0.0 {
        for j in 0..x.len() {
            let base = x0.map_or(0.0, |v| v[j]);
            g[j] += mu * (x[j] - base);
        }
    }
    let mut viol = 0.0f64;
    for j in 0..x.len() {
        if x[j] < 0.0 {
            viol = viol.max(-x[j]);
        }
        if x[j] > 1e-10 {
            viol = viol.max(g[j].abs());
        } else {
            viol = viol.max((-g[j]).max(0.0));
        }
    }
    viol
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn cd_nnls_sparse_matches_dense_cd(
            data in proptest::collection::vec(-2.0f64..2.0, 30),
            b in proptest::collection::vec(-3.0f64..3.0, 6),
            prior in proptest::collection::vec(0.0f64..2.0, 5),
            mu in 0.1f64..3.0,
        ) {
            // Sparse-Gram CD and dense-Gram CD solve the same strictly
            // convex program: minimizers must agree to 1e-10.
            let a = Mat::from_vec(6, 5, data);
            let csr = Csr::from_dense(&a, 0.0);
            let dense = cd_nnls(&a, &b, mu, Some(&prior), 200_000, 1e-13).unwrap();
            let sparse = cd_nnls_sparse(&csr, &b, mu, Some(&prior), 200_000, 1e-13)
                .unwrap()
                .x;
            for j in 0..5 {
                prop_assert!(
                    (dense.x[j] - sparse[j]).abs() < 1e-10,
                    "j={}: dense {} vs sparse {}", j, dense.x[j], sparse[j]
                );
            }
            prop_assert!(kkt_violation(&csr, &b, mu, Some(&prior), &sparse) < 1e-8);
        }
    }

    #[test]
    fn unconstrained_optimum_inside_orthant() {
        // A = I: solution is just max(b, 0) = b when b >= 0.
        let a = Mat::identity(3);
        let b = [1.0, 2.0, 3.0];
        let s = lawson_hanson(&a, &b).unwrap();
        for i in 0..3 {
            assert!((s.x[i] - b[i]).abs() < 1e-10);
        }
        assert!(s.residual_norm < 1e-10);
    }

    #[test]
    fn clips_negative_components() {
        let a = Mat::identity(3);
        let b = [1.0, -2.0, 3.0];
        let s = lawson_hanson(&a, &b).unwrap();
        assert!((s.x[0] - 1.0).abs() < 1e-10);
        assert_eq!(s.x[1], 0.0);
        assert!((s.x[2] - 3.0).abs() < 1e-10);
    }

    #[test]
    fn lawson_hanson_satisfies_kkt() {
        let a = Mat::from_rows(&[
            vec![1.0, 2.0, 0.0],
            vec![0.0, 1.0, 3.0],
            vec![2.0, 0.0, 1.0],
            vec![1.0, 1.0, 1.0],
        ]);
        let b = [1.0, -4.0, 2.0, 0.5];
        let s = lawson_hanson(&a, &b).unwrap();
        assert!(kkt_violation(&a, &b, 0.0, None, &s.x) < 1e-8);
    }

    #[test]
    fn cd_matches_lawson_hanson_without_regularization() {
        let a = Mat::from_rows(&[
            vec![1.0, 2.0, 0.5],
            vec![0.0, 1.0, 3.0],
            vec![2.0, 0.0, 1.0],
            vec![1.0, 1.0, 1.0],
        ]);
        let b = [1.0, -4.0, 2.0, 0.5];
        let lh = lawson_hanson(&a, &b).unwrap();
        let cd = cd_nnls(&a, &b, 0.0, None, 10_000, 1e-12).unwrap();
        for j in 0..3 {
            assert!(
                (lh.x[j] - cd.x[j]).abs() < 1e-6,
                "j={j}: {} vs {}",
                lh.x[j],
                cd.x[j]
            );
        }
    }

    #[test]
    fn cd_with_tikhonov_pulls_toward_prior() {
        // Underdetermined: one equation x1 + x2 = 2. With prior (1.5, 0.5)
        // and large mu, the solution should stay near the prior.
        let a = Mat::from_rows(&[vec![1.0, 1.0]]);
        let b = [2.0];
        let prior = [1.5, 0.5];
        let s = cd_nnls(&a, &b, 100.0, Some(&prior), 10_000, 1e-12).unwrap();
        assert!((s.x[0] - 1.5).abs() < 0.02, "{:?}", s.x);
        assert!((s.x[1] - 0.5).abs() < 0.02, "{:?}", s.x);
        // KKT of the regularized problem
        assert!(kkt_violation(&a, &b, 100.0, Some(&prior), &s.x) < 1e-8);
    }

    #[test]
    fn cd_moderate_mu_balances_prior_and_measurement() {
        // With μ = 1 the optimum of (x1+x2−2)² + (x−prior)² is computable:
        // symmetric, so x1 = x2 = v with 2(2v−2) + 2(v−5)·... solve:
        // d/dv [ (2v−2)² + 2(v−5)² ] = 4(2v−2)·2/2... use calculus below.
        // f(v) = (2v−2)² + μ·2·(v−5)², f'(v) = 8(v−1)·... = 4(2v−2)·2? No:
        // f(v) = (2v−2)² + 2(v−5)² ⇒ f'(v) = 8(v−1)·... compute: 2(2v−2)·2 + 4(v−5)
        //       = 8v − 8 + 4v − 20 = 12v − 28 ⇒ v = 7/3.
        let a = Mat::from_rows(&[vec![1.0, 1.0]]);
        let b = [2.0];
        let prior = [5.0, 5.0];
        let s = cd_nnls(&a, &b, 1.0, Some(&prior), 100_000, 1e-13).unwrap();
        assert!((s.x[0] - 7.0 / 3.0).abs() < 1e-6, "{:?}", s.x);
        assert!((s.x[1] - 7.0 / 3.0).abs() < 1e-6, "{:?}", s.x);
    }

    #[test]
    fn cd_sparse_matches_cd_dense() {
        let a_dense = Mat::from_rows(&[
            vec![1.0, 2.0, 0.0, 0.5],
            vec![0.0, 1.0, 3.0, 0.0],
            vec![2.0, 0.0, 1.0, 0.0],
            vec![1.0, 1.0, 1.0, 1.0],
            vec![0.0, 0.0, 0.0, 2.0],
        ]);
        let a = Csr::from_dense(&a_dense, 0.0);
        let b = [1.0, -4.0, 2.0, 0.5, 1.0];
        let prior = [0.1, 0.2, 0.3, 0.4];
        let dense = cd_nnls(&a_dense, &b, 0.5, Some(&prior), 50_000, 1e-13).unwrap();
        let sparse = cd_nnls_sparse(&a, &b, 0.5, Some(&prior), 50_000, 1e-13).unwrap();
        for j in 0..4 {
            assert!(
                (dense.x[j] - sparse.x[j]).abs() < 1e-10,
                "j={j}: dense {} vs sparse {}",
                dense.x[j],
                sparse.x[j]
            );
        }
        assert!(kkt_violation(&a, &b, 0.5, Some(&prior), &sparse.x) < 1e-7);
    }

    #[test]
    fn cd_sparse_validates_and_handles_zero_column() {
        let a = Csr::from_dense(&Mat::from_rows(&[vec![1.0, 0.0], vec![2.0, 0.0]]), 0.0);
        let s = cd_nnls_sparse(&a, &[1.0, 2.0], 0.0, None, 1000, 1e-12).unwrap();
        assert!((s.x[0] - 1.0).abs() < 1e-9);
        assert_eq!(s.x[1], 0.0);
        assert!(cd_nnls_sparse(&a, &[1.0], 0.0, None, 10, 1e-6).is_err());
        assert!(cd_nnls_sparse(&a, &[1.0, 2.0], -1.0, None, 10, 1e-6).is_err());
        assert!(cd_nnls_sparse(&a, &[1.0, 2.0], 0.0, Some(&[1.0]), 10, 1e-6).is_err());
    }

    #[test]
    fn ridge_small_mu_fits_measurements_exactly() {
        // The dual-form solver handles the tiny-μ regime CD cannot.
        let a = Csr::from_triplets(1, 2, vec![(0, 0, 1.0), (0, 1, 1.0)]).unwrap();
        let b = [2.0];
        let prior = [5.0, 5.0];
        let s = ridge_nnls(&a, &a.transpose(), &b, 1e-8, &prior, None).unwrap();
        assert!((s.x[0] + s.x[1] - 2.0).abs() < 1e-6, "{:?}", s.x);
        // Among all feasible x, closest to the prior: symmetric split.
        assert!((s.x[0] - s.x[1]).abs() < 1e-6, "{:?}", s.x);
    }

    #[test]
    fn ridge_matches_cd_on_well_conditioned_problem() {
        let a_dense = Mat::from_rows(&[
            vec![1.0, 2.0, 0.5],
            vec![0.0, 1.0, 3.0],
            vec![2.0, 0.0, 1.0],
            vec![1.0, 1.0, 1.0],
        ]);
        let a = Csr::from_dense(&a_dense, 0.0);
        let b = [1.0, -4.0, 2.0, 0.5];
        let prior = [0.1, 0.2, 0.3];
        let cd = cd_nnls(&a_dense, &b, 0.5, Some(&prior), 50_000, 1e-13).unwrap();
        let ridge = ridge_nnls(&a, &a.transpose(), &b, 0.5, &prior, None).unwrap();
        for j in 0..3 {
            assert!(
                (cd.x[j] - ridge.x[j]).abs() < 1e-6,
                "j={j}: cd {} vs ridge {}",
                cd.x[j],
                ridge.x[j]
            );
        }
        assert!(kkt_violation(&a_dense, &b, 0.5, Some(&prior), &ridge.x) < 1e-7);
    }

    #[test]
    fn ridge_clamps_and_releases_correctly() {
        // Force a negative unconstrained solution: b pulls x0 negative.
        let a = Csr::from_dense(&Mat::identity(3), 0.0);
        let b = [1.0, -5.0, 2.0];
        let prior = [0.0, 0.0, 0.0];
        let s = ridge_nnls(&a, &a.transpose(), &b, 0.1, &prior, None).unwrap();
        assert!(s.x[0] > 0.0);
        assert_eq!(s.x[1], 0.0);
        assert!(s.x[2] > 0.0);
        let dense = Mat::identity(3);
        assert!(kkt_violation(&dense, &b, 0.1, Some(&prior), &s.x) < 1e-8);
    }

    #[test]
    fn ridge_validates_inputs() {
        let a = Csr::from_dense(&Mat::identity(2), 0.0);
        assert!(ridge_nnls(&a, &a.transpose(), &[1.0], 1.0, &[0.0, 0.0], None).is_err());
        assert!(ridge_nnls(&a, &a.transpose(), &[1.0, 1.0], 0.0, &[0.0, 0.0], None).is_err());
        assert!(ridge_nnls(&a, &a.transpose(), &[1.0, 1.0], 1.0, &[0.0], None).is_err());
    }

    #[test]
    fn ridge_warm_start_matches_cold_and_saves_iterations() {
        let a_dense = Mat::from_rows(&[
            vec![1.0, 2.0, 0.5, 0.0],
            vec![0.0, 1.0, 3.0, 1.0],
            vec![2.0, 0.0, 1.0, 0.5],
        ]);
        let a = Csr::from_dense(&a_dense, 0.0);
        let at = a.transpose();
        let prior = [0.2, 0.1, 0.0, 0.3];
        let b1 = [1.0, -4.0, 2.0];
        let cold1 = ridge_nnls(&a, &a.transpose(), &b1, 0.05, &prior, None).unwrap();
        // A drifted RHS: warm-start the free set from the previous
        // support; the strictly convex objective pins the answer.
        let b2 = [1.1, -3.8, 2.1];
        let cold2 = ridge_nnls(&a, &a.transpose(), &b2, 0.05, &prior, None).unwrap();
        let warm2 = ridge_nnls(&a, &at, &b2, 0.05, &prior, Some(&cold1.x)).unwrap();
        for j in 0..4 {
            assert!(
                (warm2.x[j] - cold2.x[j]).abs() < 1e-8,
                "j={j}: warm {} vs cold {}",
                warm2.x[j],
                cold2.x[j]
            );
        }
        assert!(
            warm2.iterations <= cold2.iterations,
            "warm {} vs cold {}",
            warm2.iterations,
            cold2.iterations
        );
        assert!(kkt_violation(&a_dense, &b2, 0.05, Some(&prior), &warm2.x) < 1e-7);
        // An all-zero warm support still reaches the optimum through
        // the dual release loop.
        let zero = [0.0; 4];
        let released = ridge_nnls(&a, &at, &b2, 0.05, &prior, Some(&zero)).unwrap();
        for j in 0..4 {
            assert!((released.x[j] - cold2.x[j]).abs() < 1e-8, "j={j}");
        }
        // Validation: wrong warm length.
        assert!(ridge_nnls(&a, &at, &b2, 0.05, &prior, Some(&[1.0])).is_err());
    }

    #[test]
    fn ridge_kernel_fast_path_matches_slow_path() {
        let a_dense = Mat::from_rows(&[
            vec![1.0, 2.0, 0.5, 0.0],
            vec![0.0, 1.0, 3.0, 1.0],
            vec![2.0, 0.0, 1.0, 0.5],
        ]);
        let a = Csr::from_dense(&a_dense, 0.0);
        let at = a.transpose();
        let prior = [0.2, 0.1, 0.0, 0.3];
        let mut kernel = None;
        // First call: slow path installs the kernel.
        let b1 = [1.0, -4.0, 2.0];
        let s1 = ridge_nnls_kernel(&a, &at, &b1, 0.05, &prior, &mut kernel).unwrap();
        assert!(kernel.is_some());
        assert!(s1.iterations > 0, "first call runs the active-set loop");
        // Drifted RHS with the same active set: fast path (0 outer
        // iterations) must reproduce the from-scratch solution.
        let b2 = [1.05, -3.9, 2.05];
        let s2 = ridge_nnls_kernel(&a, &at, &b2, 0.05, &prior, &mut kernel).unwrap();
        let cold2 = ridge_nnls(&a, &a.transpose(), &b2, 0.05, &prior, None).unwrap();
        for j in 0..4 {
            assert!(
                (s2.x[j] - cold2.x[j]).abs() < 1e-8,
                "j={j}: kernel {} vs cold {}",
                s2.x[j],
                cold2.x[j]
            );
        }
        assert_eq!(s2.iterations, 0, "same active set takes the fast path");
        assert!(kkt_violation(&a_dense, &b2, 0.05, Some(&prior), &s2.x) < 1e-7);
        // A RHS that flips the active set: the fast path must refuse and
        // the slow path must recover (and re-install the kernel).
        let b3 = [1.0, 4.0, 2.0];
        let s3 = ridge_nnls_kernel(&a, &at, &b3, 0.05, &prior, &mut kernel).unwrap();
        let cold3 = ridge_nnls(&a, &a.transpose(), &b3, 0.05, &prior, None).unwrap();
        for j in 0..4 {
            assert!((s3.x[j] - cold3.x[j]).abs() < 1e-8, "j={j}");
        }
        let k = kernel.as_ref().unwrap();
        assert_eq!(k.free().len(), 4);
        // Kernel reflects the latest support.
        for j in 0..4 {
            assert_eq!(k.free()[j], s3.x[j] > 0.0, "j={j}");
        }
    }

    fn ssn_setup(a_dense: &Mat) -> (Csr, Csr, SparseCholSymbolic) {
        let a = Csr::from_dense(a_dense, 0.0);
        let g = a.gram().plus_diag(0.0).unwrap();
        let sym = SparseCholSymbolic::analyze(&g).unwrap();
        (a, g, sym)
    }

    #[test]
    fn ssn_matches_cd_and_ridge_on_regularized_problem() {
        let a_dense = Mat::from_rows(&[
            vec![1.0, 2.0, 0.5, 0.0],
            vec![0.0, 1.0, 3.0, 1.0],
            vec![2.0, 0.0, 1.0, 0.5],
        ]);
        let (a, g, sym) = ssn_setup(&a_dense);
        let b = [1.0, -4.0, 2.0];
        let prior = [0.2, 0.1, 0.0, 0.3];
        let mut state = SsnState::default();
        let ssn = ssn_nnls(&a, &b, 0.05, Some(&prior), &g, &sym, &mut state, false).unwrap();
        let ridge = ridge_nnls(&a, &a.transpose(), &b, 0.05, &prior, None).unwrap();
        for j in 0..4 {
            assert!(
                (ssn.x[j] - ridge.x[j]).abs() < 1e-7,
                "j={j}: ssn {} vs ridge {}",
                ssn.x[j],
                ridge.x[j]
            );
        }
        assert!(kkt_violation(&a_dense, &b, 0.05, Some(&prior), &ssn.x) < 1e-7);
        // Terminal active set is carried.
        assert_eq!(state.free().len(), 4);
        for j in 0..4 {
            assert_eq!(state.free()[j], ssn.x[j] > 0.0, "j={j}");
        }
    }

    #[test]
    fn ssn_warm_set_and_factor_reuse_match_cold() {
        let a_dense = Mat::from_rows(&[
            vec![1.0, 2.0, 0.5, 0.0],
            vec![0.0, 1.0, 3.0, 1.0],
            vec![2.0, 0.0, 1.0, 0.5],
        ]);
        let (a, g, sym) = ssn_setup(&a_dense);
        let prior = [0.2, 0.1, 0.0, 0.3];
        let mut state = SsnState::default();
        let b1 = [1.0, -4.0, 2.0];
        let s1 = ssn_nnls(&a, &b1, 0.05, Some(&prior), &g, &sym, &mut state, true).unwrap();
        assert!(kkt_violation(&a_dense, &b1, 0.05, Some(&prior), &s1.x) < 1e-7);
        // A drifted RHS with the same Gram: the carried factor answers
        // (gram_reusable = true) and the result matches a cold solve.
        let b2 = [1.05, -3.9, 2.05];
        let s2 = ssn_nnls(&a, &b2, 0.05, Some(&prior), &g, &sym, &mut state, true).unwrap();
        let cold2 = ridge_nnls(&a, &a.transpose(), &b2, 0.05, &prior, None).unwrap();
        for j in 0..4 {
            assert!(
                (s2.x[j] - cold2.x[j]).abs() < 1e-7,
                "j={j}: warm {} vs cold {}",
                s2.x[j],
                cold2.x[j]
            );
        }
        assert_eq!(s2.iterations, 1, "unchanged set resolves in one step");
        // A sign-flipping RHS moves the active set; still correct.
        let b3 = [1.0, 4.0, 2.0];
        let s3 = ssn_nnls(&a, &b3, 0.05, Some(&prior), &g, &sym, &mut state, true).unwrap();
        let cold3 = ridge_nnls(&a, &a.transpose(), &b3, 0.05, &prior, None).unwrap();
        for j in 0..4 {
            assert!((s3.x[j] - cold3.x[j]).abs() < 1e-7, "j={j}");
        }
    }

    #[test]
    fn ssn_mu_zero_rank_deficient_falls_back_to_cd() {
        // Two identical columns: the free-set Gram is singular at μ = 0,
        // so the pinned factorization fails and the CD fallback must
        // deliver a KKT point.
        let a_dense = Mat::from_rows(&[vec![1.0, 1.0, 0.0], vec![0.0, 0.0, 1.0]]);
        let (a, g, sym) = ssn_setup(&a_dense);
        let b = [2.0, 3.0];
        let mut state = SsnState::default();
        let s = ssn_nnls(&a, &b, 0.0, None, &g, &sym, &mut state, false).unwrap();
        assert!(kkt_violation(&a_dense, &b, 0.0, None, &s.x) < 1e-7);
        assert!((s.x[0] + s.x[1] - 2.0).abs() < 1e-7);
        assert!((s.x[2] - 3.0).abs() < 1e-9);
    }

    #[test]
    fn ssn_dual_infeasible_pin_is_released_despite_residue() {
        // Regression: the dense up/downdated factor leaves ±1-ulp
        // residue on pinned entries; an early KKT check classified a
        // −1e-16 entry as "negative" only and skipped its dual test,
        // accepting a solution with a dual-infeasible pin (gradient
        // −0.31 at the bound on this instance).
        let trips = vec![
            (0, 0, 1.0),
            (0, 1, 1.0),
            (0, 2, 1.0),
            (0, 3, 1.0),
            (1, 3, 1.0),
            (2, 0, 1.0),
            (2, 4, 1.0),
            (4, 0, 3.0),
            (4, 1, 1.0),
            (4, 4, 1.0),
            (5, 0, 1.0),
            (5, 3, 1.0),
            (6, 4, 2.0),
        ];
        let a = Csr::from_triplets(7, 5, trips).unwrap();
        let b = [
            1.0842429066334027,
            0.5286309167537819,
            -2.4229486395259685,
            -1.117273068830002,
            0.35615816624949037,
            -2.4125095472356612,
            -1.0125066496605073,
        ];
        let mu = 0.22295795823473882;
        let prior = [
            1.463199545294095,
            1.2706998990537903,
            0.004106086421262312,
            1.2851862243307675,
            1.7930154912760081,
        ];
        let g = a.gram().plus_diag(0.0).unwrap();
        let sym = SparseCholSymbolic::analyze(&g).unwrap();
        let mut state = SsnState::default();
        let sol = ssn_nnls(&a, &b, mu, Some(&prior), &g, &sym, &mut state, false).unwrap();
        assert!(
            kkt_violation(&a, &b, mu, Some(&prior), &sol.x) < 1e-7,
            "kkt {}",
            kkt_violation(&a, &b, mu, Some(&prior), &sol.x)
        );
        assert!(sol.x[2] > 0.3, "variable 2 must be released: {:?}", sol.x);
    }

    #[test]
    fn ssn_validates_inputs() {
        let a_dense = Mat::identity(2);
        let (a, g, sym) = ssn_setup(&a_dense);
        let mut state = SsnState::default();
        assert!(ssn_nnls(&a, &[1.0], 0.1, None, &g, &sym, &mut state, false).is_err());
        assert!(ssn_nnls(&a, &[1.0, 1.0], -0.1, None, &g, &sym, &mut state, false).is_err());
        assert!(ssn_nnls(
            &a,
            &[1.0, 1.0],
            0.1,
            Some(&[1.0]),
            &g,
            &sym,
            &mut state,
            false
        )
        .is_err());
        let wrong_g = Csr::from_dense(&Mat::identity(3), 0.0);
        assert!(ssn_nnls(
            &a,
            &[1.0, 1.0],
            0.1,
            None,
            &wrong_g,
            &sym,
            &mut state,
            false
        )
        .is_err());
    }

    #[test]
    fn handles_zero_column() {
        let a = Mat::from_rows(&[vec![1.0, 0.0], vec![2.0, 0.0]]);
        let b = [1.0, 2.0];
        let s = cd_nnls(&a, &b, 0.0, None, 1000, 1e-12).unwrap();
        assert!((s.x[0] - 1.0).abs() < 1e-9);
        assert_eq!(s.x[1], 0.0);
    }

    #[test]
    fn rejects_bad_shapes() {
        let a = Mat::identity(2);
        assert!(lawson_hanson(&a, &[1.0]).is_err());
        assert!(cd_nnls(&a, &[1.0], 0.0, None, 10, 1e-6).is_err());
        assert!(cd_nnls(&a, &[1.0, 2.0], -1.0, None, 10, 1e-6).is_err());
        assert!(cd_nnls(&a, &[1.0, 2.0], 0.0, Some(&[1.0]), 10, 1e-6).is_err());
    }

    #[test]
    fn zero_rhs_gives_zero() {
        let a = Mat::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        let s = lawson_hanson(&a, &[0.0, 0.0]).unwrap();
        assert_eq!(s.x, vec![0.0, 0.0]);
        assert_eq!(s.iterations, 0);
    }
}
