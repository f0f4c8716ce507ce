//! Projected Newton for smooth strictly convex objectives over a lower
//! bound box `x ≥ lo`.
//!
//! First-order projected-gradient methods (SPG) converge linearly at a
//! rate set by the Hessian's conditioning — warm starts shave only the
//! *logarithm* of the starting distance, which is why a streaming
//! estimator that re-solves an almost-identical problem every interval
//! still pays hundreds of SPG iterations per tick. When the problem is
//! small enough to afford a dense Hessian factorization, a projected
//! Newton iteration removes the conditioning from the picture: a
//! handful of Cholesky solves reach the same unique minimizer to the
//! same tolerance.
//!
//! The active-set handling follows the classical two-set scheme
//! (Bertsekas): variables pinned at the bound with a nonnegative
//! gradient form the active set; the Newton step solves the reduced
//! system on the free set; a monotone Armijo backtracking line search
//! over the *projected* path globalizes the iteration.

use tm_linalg::decomp::Cholesky;
use tm_linalg::{vector, Csr, Mat};

use crate::error::OptError;
use crate::Result;

/// Armijo sufficient-decrease constant.
const GAMMA: f64 = 1e-4;

/// A variable within this distance of its bound (relative to the
/// iterate scale) with a pushing gradient is treated as active.
const ACTIVE_EPS: f64 = 1e-10;

/// [`projected_newton`] re-factorizes the reduced Hessian at most every
/// this many iterations while the free set is unchanged. This amortizes
/// the `O(n³)` factorization over several cheap `O(n²)` metric steps —
/// the iteration stays a globally convergent descent method in a fixed
/// positive definite metric, it just takes a few more (far cheaper)
/// steps. The factorization is always rebuilt when the free set
/// changes. Eight is the measured sweet spot on the Europe entropy
/// system, whose KL diagonal drifts slowly.
const REFRESH_EVERY: usize = 8;

/// Options for [`projected_newton`] and [`projected_newton_dual`].
#[derive(Debug, Clone, Copy)]
pub struct NewtonOptions {
    /// Maximum Newton iterations.
    pub max_iter: usize,
    /// Convergence tolerance on `‖P(x − ∇f) − x‖∞` (scaled; identical
    /// convention to `spg`, so the two solvers are interchangeable at
    /// equal accuracy).
    pub tol: f64,
}

impl Default for NewtonOptions {
    fn default() -> Self {
        NewtonOptions {
            max_iter: 50,
            tol: 1e-9,
        }
    }
}

/// Result of a projected-Newton run.
#[derive(Debug, Clone)]
pub struct NewtonResult {
    /// Final iterate.
    pub x: Vec<f64>,
    /// Objective value at `x`.
    pub objective: f64,
    /// Newton iterations performed.
    pub iterations: usize,
    /// Final projected-gradient norm.
    pub pg_norm: f64,
    /// Whether the tolerance was reached. On `false` the iterate is
    /// still feasible and the best found — callers typically fall back
    /// to a first-order method from it.
    pub converged: bool,
}

impl NewtonResult {
    /// Typed convergence status: the projected-gradient norm achieved
    /// and whether the tolerance was met before the budget ran out.
    pub fn convergence(&self) -> crate::Convergence {
        crate::Convergence {
            converged: self.converged,
            achieved_tol: self.pg_norm,
            iters: self.iterations,
        }
    }
}

/// Minimize `f` over `{x : x ≥ lo}` by projected Newton.
///
/// * `value_grad(x, grad)` must return `f(x)` and write `∇f(x)`.
/// * `hessian(x, h)` must write the dense Hessian `∇²f(x)` into `h`
///   (an `n×n` [`Mat`], pre-allocated by the solver). It must be
///   positive definite on the free subspace — guaranteed for strictly
///   convex objectives.
/// * `x0` is clamped to the feasible set before use.
///
/// Returns `Ok` with `converged = false` (rather than `Err`) when the
/// iteration budget runs out or a factorization/line search fails —
/// the caller decides whether to fall back to a slower method.
pub fn projected_newton<FG, FH>(
    mut value_grad: FG,
    mut hessian: FH,
    lo: &[f64],
    x0: Vec<f64>,
    opts: NewtonOptions,
) -> Result<NewtonResult>
where
    FG: FnMut(&[f64], &mut [f64]) -> f64,
    FH: FnMut(&[f64], &mut Mat),
{
    let n = x0.len();
    if lo.len() != n {
        return Err(OptError::Invalid(format!(
            "projected newton: lo has {} entries for {} variables",
            lo.len(),
            n
        )));
    }
    let mut x = x0;
    for (xi, &l) in x.iter_mut().zip(lo) {
        if *xi < l {
            *xi = l;
        }
    }
    let mut grad = vec![0.0; n];
    let mut f = value_grad(&x, &mut grad);
    if !f.is_finite() {
        return Err(OptError::Invalid(
            "projected newton: objective not finite at the initial point".into(),
        ));
    }
    let scale = 1.0 + vector::norm_inf(&x);
    let mut h = Mat::zeros(n, n);
    let mut xnew = vec![0.0; n];
    let mut gnew = vec![0.0; n];
    let mut pg_norm = f64::INFINITY;
    let mut cached: Option<(Vec<usize>, Cholesky)> = None;
    let mut its_since_factor = 0usize;
    let mut last_alpha = 1.0f64;

    let bail = |x: Vec<f64>, f: f64, it: usize, pg: f64| {
        Ok(NewtonResult {
            x,
            objective: f,
            iterations: it,
            pg_norm: pg,
            converged: false,
        })
    };

    for it in 0..opts.max_iter {
        // Projected-gradient stopping test (same convention as SPG).
        pg_norm = 0.0;
        for j in 0..n {
            let step = (x[j] - grad[j]).max(lo[j]);
            pg_norm = pg_norm.max((step - x[j]).abs());
        }
        if pg_norm <= opts.tol * scale {
            return Ok(NewtonResult {
                x,
                objective: f,
                iterations: it,
                pg_norm,
                converged: true,
            });
        }

        // Active set: pinned at the bound with the gradient pushing in.
        let free: Vec<usize> = (0..n)
            .filter(|&j| x[j] - lo[j] > ACTIVE_EPS * scale || grad[j] < 0.0)
            .collect();
        if free.is_empty() {
            // Every variable pinned with nonnegative gradient: the
            // stopping test above should have fired; treat as stalled.
            return bail(x, f, it, pg_norm);
        }

        // Reduced Newton system H_FF · d_F = −g_F, with the
        // factorization reused across iterations while the free set is
        // stable (see `REFRESH_EVERY`). A damped previous step
        // (α < 1) signals the cached metric has gone stale — e.g. a
        // barrier-like diagonal drifting by orders of magnitude near a
        // bound — so it also forces a refresh; this is what keeps the
        // terminal phase superlinear instead of crawling on an old
        // factor.
        let needs_factor = match &cached {
            Some((cached_free, _)) => {
                *cached_free != free || its_since_factor >= REFRESH_EVERY || last_alpha < 1.0
            }
            None => true,
        };
        if needs_factor {
            hessian(&x, &mut h);
            let nf = free.len();
            let mut hff = Mat::zeros(nf, nf);
            for (a, &ja) in free.iter().enumerate() {
                for (b, &jb) in free.iter().enumerate() {
                    hff.set(a, b, h.get(ja, jb));
                }
            }
            match Cholesky::factor(&hff) {
                Ok(c) => {
                    cached = Some((free.clone(), c));
                    its_since_factor = 0;
                }
                Err(_) => return bail(x, f, it, pg_norm),
            }
        }
        its_since_factor += 1;
        let rhs: Vec<f64> = free.iter().map(|&j| -grad[j]).collect();
        let d_f = match cached.as_ref().expect("installed above").1.solve(&rhs) {
            Ok(d) => d,
            Err(_) => return bail(x, f, it, pg_norm),
        };

        // Monotone Armijo backtracking along the projected path.
        let mut alpha = 1.0f64;
        let mut accepted = false;
        for _ in 0..40 {
            xnew.copy_from_slice(&x);
            for (a, &j) in free.iter().enumerate() {
                xnew[j] = (x[j] + alpha * d_f[a]).max(lo[j]);
            }
            let fnew = value_grad(&xnew, &mut gnew);
            // Directional decrease measured on the actually taken
            // (projected) step.
            let mut gdx = 0.0;
            for j in 0..n {
                gdx += grad[j] * (xnew[j] - x[j]);
            }
            if fnew.is_finite()
                && (gdx < 0.0 || pg_norm <= opts.tol * scale)
                && fnew <= f + GAMMA * gdx
            {
                x.copy_from_slice(&xnew);
                grad.copy_from_slice(&gnew);
                f = fnew;
                accepted = true;
                last_alpha = alpha;
                break;
            }
            alpha *= 0.5;
        }
        if !accepted {
            return bail(x, f, it, pg_norm);
        }
    }
    bail(x, f, opts.max_iter, pg_norm)
}

/// CG step budget per Newton system in [`projected_newton_dual`]
/// before the solve is declared stalled.
const PCG_MAX_STEPS: usize = 60;

/// PCG step count above which the cached kernel preconditioner is
/// considered stale and refactored against the current diagonal.
const PCG_REFRESH_STEPS: usize = 24;

/// Projected Newton for the Hessian splitting `H = 2AᵀA + D(x)` solved
/// in **dual (Woodbury) form**: when `A` has fewer rows `m` than
/// columns `n` — every backbone measurement system — the Gram `AᵀA` is
/// rank-deficient and its Cholesky fills toward dense, so factoring the
/// `n×n` reduced Hessian costs nearly `n³` no matter the ordering. The
/// matrix-inversion lemma moves the factorization to the `m×m` kernel
///
/// `K = ½I + A_F·D_F⁻¹·A_Fᵀ`,   `H_FF⁻¹·r = D_F⁻¹r − D_F⁻¹A_Fᵀ·K⁻¹·A_F·D_F⁻¹r`
///
/// assembled from sparse column outer products (the same pattern as the
/// ridge-NNLS dual kernel) and factored by the dense slice Cholesky —
/// `m³/6` flops instead of `~n³/6`. The active set enters by dropping
/// columns from the assembly; `D` is captured at factorization time, and
/// the factored kernel then preconditions PCG on the current Hessian
/// until the step count says it has gone stale (`PCG_REFRESH_STEPS`).
/// `K` is symmetric positive definite for any row count, so the same
/// engine also serves tall systems (`m ≥ n`), just without the size win.
///
/// * `diag(x, d)` must write the diagonal part `D(x)` (strictly
///   positive) into `d`.
/// * `a`/`at` are the quadratic part's matrix and its transpose (the
///   column view the kernel assembly walks).
/// * Active-set rule, Armijo projected line search, the damped-step
///   refresh trigger and soft-failure semantics match
///   [`projected_newton`].
pub fn projected_newton_dual<FG, FD>(
    mut value_grad: FG,
    mut diag: FD,
    a: &Csr,
    at: &Csr,
    lo: &[f64],
    x0: Vec<f64>,
    opts: NewtonOptions,
) -> Result<NewtonResult>
where
    FG: FnMut(&[f64], &mut [f64]) -> f64,
    FD: FnMut(&[f64], &mut [f64]),
{
    let n = x0.len();
    let m = a.rows();
    if lo.len() != n || a.cols() != n || at.rows() != n || at.cols() != m {
        return Err(OptError::Invalid(format!(
            "projected newton (dual): lo {} / A {}x{} / Aᵀ {}x{} for {} variables",
            lo.len(),
            a.rows(),
            a.cols(),
            at.rows(),
            at.cols(),
            n
        )));
    }
    let mut x = x0;
    for (xi, &l) in x.iter_mut().zip(lo) {
        if *xi < l {
            *xi = l;
        }
    }
    let mut grad = vec![0.0; n];
    let mut f = value_grad(&x, &mut grad);
    if !f.is_finite() {
        return Err(OptError::Invalid(
            "projected newton (dual): objective not finite at the initial point".into(),
        ));
    }
    let scale = 1.0 + vector::norm_inf(&x);
    let mut xnew = vec![0.0; n];
    let mut gnew = vec![0.0; n];
    let mut dvals = vec![0.0; n];
    let mut u = vec![0.0; n];
    let mut v = vec![0.0; m];
    let mut w = vec![0.0; n];
    let mut d = vec![0.0; n];
    // PCG state, overwritten before each solve reads it.
    let (mut r, mut z, mut p, mut hv) = (vec![0.0; n], vec![0.0; n], vec![0.0; n], vec![0.0; n]);
    let mut ybuf = vec![0.0; m];
    let mut kmat = Mat::zeros(m, m);
    let mut pg_norm = f64::INFINITY;
    // Cached: free set, the factored kernel, and the D snapshot the
    // kernel was assembled from (the consistent metric). The fixed
    // `REFRESH_EVERY` schedule of the dense engine is replaced here by
    // the adaptive PCG-step trigger below.
    let mut cached: Option<(Vec<bool>, Cholesky, Vec<f64>)> = None;
    let mut refactor_next = false;

    let bail = |x: Vec<f64>, f: f64, it: usize, pg: f64| {
        Ok(NewtonResult {
            x,
            objective: f,
            iterations: it,
            pg_norm: pg,
            converged: false,
        })
    };

    for it in 0..opts.max_iter {
        pg_norm = 0.0;
        for j in 0..n {
            let step = (x[j] - grad[j]).max(lo[j]);
            pg_norm = pg_norm.max((step - x[j]).abs());
        }
        if pg_norm <= opts.tol * scale {
            return Ok(NewtonResult {
                x,
                objective: f,
                iterations: it,
                pg_norm,
                converged: true,
            });
        }

        let free: Vec<bool> = (0..n)
            .map(|j| x[j] - lo[j] > ACTIVE_EPS * scale || grad[j] < 0.0)
            .collect();
        if free.iter().all(|&fr| !fr) {
            return bail(x, f, it, pg_norm);
        }

        // Current Hessian diagonal (the exact metric for this step).
        diag(&x, &mut dvals);
        if dvals.iter().zip(&free).any(|(&dv, &fr)| fr && !(dv > 0.0)) {
            return bail(x, f, it, pg_norm);
        }
        // (Re)factor the Woodbury kernel for the *current* D when none
        // is cached yet or the free set changed. Otherwise the cached
        // kernel — with its own D snapshot — keeps serving as a
        // preconditioner below, and refactoring happens adaptively only
        // when PCG reports the metric has drifted too far.
        let mut factor_now = refactor_next
            || match &cached {
                Some((cached_free, _, _)) => *cached_free != free,
                None => true,
            };
        let mut redone = false;
        loop {
            if factor_now {
                // K = ½I + Σ_{j free} (1/D_j)·a_j·a_jᵀ, lower triangle
                // only: all that `factor_fast` reads. The column indices
                // of a CSR row ascend, so `idx[..=k1]` are the entries
                // on or left of the diagonal in row `r1`.
                for i in 0..m {
                    let row = &mut kmat.row_mut(i)[..=i];
                    row.fill(0.0);
                    row[i] = 0.5;
                }
                for (j, &fr) in free.iter().enumerate() {
                    if !fr {
                        continue;
                    }
                    let inv = 1.0 / dvals[j];
                    let (idx, val) = at.row(j);
                    for (k1, &r1) in idx.iter().enumerate() {
                        let s = inv * val[k1];
                        let row = kmat.row_mut(r1);
                        for (&r2, &v2) in idx[..=k1].iter().zip(val) {
                            row[r2] += s * v2;
                        }
                    }
                }
                // Refactored kernels are throwaway preconditioners —
                // use the lane-parallel factorization (reassociated
                // rounding; the Newton iteration is self-correcting).
                match Cholesky::factor_fast(&kmat) {
                    Ok(c) => cached = Some((free.clone(), c, dvals.clone())),
                    Err(_) => return bail(x, f, it, pg_norm),
                }
                factor_now = false;
            }
            let (_, chol, dfac) = cached.as_ref().expect("installed above");
            // Solve H_FF·d_F = −g_F by preconditioned CG: the Hessian
            // applies in O(nnz) (two sparse matvecs + the diagonal),
            // the cached kernel preconditions via the two-solve
            // Woodbury identity. With a fresh factor PCG converges in
            // one step; as D drifts across iterations the step count
            // grows, and past `PCG_REFRESH_STEPS` it is cheaper to
            // refactor than to iterate — the adaptive replacement for
            // a fixed refresh schedule.
            let apply_h = |p: &[f64], out: &mut [f64], v: &mut [f64]| {
                a.matvec_into(p, v);
                a.tr_matvec_into(v, out);
                for j in 0..n {
                    out[j] = if free[j] {
                        2.0 * out[j] + dvals[j] * p[j]
                    } else {
                        0.0
                    };
                }
            };
            let precond = |r: &[f64],
                           z: &mut [f64],
                           u: &mut [f64],
                           v: &mut [f64],
                           w: &mut [f64],
                           y: &mut [f64]| {
                for j in 0..n {
                    u[j] = if free[j] { r[j] / dfac[j] } else { 0.0 };
                }
                a.matvec_into(u, v);
                if chol.solve_fast_into(v, y).is_err() {
                    return false;
                }
                a.tr_matvec_into(y, w);
                for j in 0..n {
                    z[j] = if free[j] { u[j] - w[j] / dfac[j] } else { 0.0 };
                }
                true
            };
            d.fill(0.0);
            for j in 0..n {
                r[j] = if free[j] { -grad[j] } else { 0.0 };
            }
            let rhs_norm = vector::norm2(&r).max(1e-300);
            if !precond(&r, &mut z, &mut u, &mut v, &mut w, &mut ybuf) {
                return bail(x, f, it, pg_norm);
            }
            p.copy_from_slice(&z);
            let mut rz = vector::dot(&r, &z);
            let mut pcg_ok = false;
            let mut steps = 0usize;
            for _ in 0..PCG_MAX_STEPS {
                steps += 1;
                apply_h(&p, &mut hv, &mut v);
                let php = vector::dot(&p, &hv);
                if !(php > 0.0) {
                    break;
                }
                let alpha_cg = rz / php;
                for j in 0..n {
                    d[j] += alpha_cg * p[j];
                    r[j] -= alpha_cg * hv[j];
                }
                if vector::norm2(&r) <= 1e-8 * rhs_norm {
                    pcg_ok = true;
                    break;
                }
                if !precond(&r, &mut z, &mut u, &mut v, &mut w, &mut ybuf) {
                    return bail(x, f, it, pg_norm);
                }
                let rz_new = vector::dot(&r, &z);
                let beta = rz_new / rz;
                rz = rz_new;
                for j in 0..n {
                    p[j] = z[j] + beta * p[j];
                }
            }
            if pcg_ok {
                // A converged PCG direction is valid regardless of how
                // stale the preconditioner was — keep it. But a laboring
                // solve predicts the next one will labor too: schedule a
                // refactorization for the next iteration instead of
                // re-solving this one.
                refactor_next = steps > PCG_REFRESH_STEPS;
                break;
            }
            if redone {
                // Even a fresh factor could not drive PCG to tolerance:
                // numerically stuck.
                return bail(x, f, it, pg_norm);
            }
            // PCG stalled on the stale preconditioner: refactor against
            // the current D and solve once more.
            factor_now = true;
            redone = true;
        }

        // Monotone Armijo backtracking along the projected path.
        let mut alpha = 1.0f64;
        let mut accepted = false;
        for _ in 0..40 {
            for j in 0..n {
                xnew[j] = (x[j] + alpha * d[j]).max(lo[j]);
            }
            let fnew = value_grad(&xnew, &mut gnew);
            let mut gdx = 0.0;
            for j in 0..n {
                gdx += grad[j] * (xnew[j] - x[j]);
            }
            if fnew.is_finite()
                && (gdx < 0.0 || pg_norm <= opts.tol * scale)
                && fnew <= f + GAMMA * gdx
            {
                x.copy_from_slice(&xnew);
                grad.copy_from_slice(&gnew);
                f = fnew;
                accepted = true;
                break;
            }
            alpha *= 0.5;
        }
        if !accepted {
            return bail(x, f, it, pg_norm);
        }
    }
    bail(x, f, opts.max_iter, pg_norm)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quadratic_interior_minimum() {
        // f(x) = ½(x−c)ᵀ diag(1,4) (x−c): Newton converges in one step.
        let c = [2.0, 3.0];
        let res = projected_newton(
            |x, g| {
                g[0] = x[0] - c[0];
                g[1] = 4.0 * (x[1] - c[1]);
                0.5 * (x[0] - c[0]).powi(2) + 2.0 * (x[1] - c[1]).powi(2)
            },
            |_x, h| {
                h.set(0, 0, 1.0);
                h.set(1, 1, 4.0);
                h.set(0, 1, 0.0);
                h.set(1, 0, 0.0);
            },
            &[0.0, 0.0],
            vec![0.5, 0.5],
            NewtonOptions::default(),
        )
        .unwrap();
        assert!(res.converged);
        assert!(res.iterations <= 3, "{} iterations", res.iterations);
        assert!((res.x[0] - 2.0).abs() < 1e-8);
        assert!((res.x[1] - 3.0).abs() < 1e-8);
    }

    #[test]
    fn bound_becomes_active() {
        // Minimum at (2, −3); x ≥ 0 pins the second coordinate.
        let res = projected_newton(
            |x, g| {
                g[0] = x[0] - 2.0;
                g[1] = x[1] + 3.0;
                0.5 * ((x[0] - 2.0).powi(2) + (x[1] + 3.0).powi(2))
            },
            |_x, h| {
                h.set(0, 0, 1.0);
                h.set(1, 1, 1.0);
                h.set(0, 1, 0.0);
                h.set(1, 0, 0.0);
            },
            &[0.0, 0.0],
            vec![1.0, 1.0],
            NewtonOptions::default(),
        )
        .unwrap();
        assert!(res.converged);
        assert!((res.x[0] - 2.0).abs() < 1e-8);
        assert_eq!(res.x[1], 0.0);
    }

    #[test]
    fn entropy_like_objective_matches_spg() {
        // min ‖Ax − t‖² + μ Σ (x ln(x/q) − x + q) over x ≥ floor: the
        // entropy estimator's shape. Newton and SPG must agree.
        use crate::spg::{self, SpgOptions};
        let a_rows: [&[f64]; 3] = [&[1.0, 1.0, 0.0], &[0.0, 1.0, 1.0], &[1.0, 0.0, 1.0]];
        let t = [2.0, 1.5, 1.8];
        let q = [0.9, 0.8, 0.7];
        let mu = 1e-2;
        let floor = 1e-12;
        let fg = |x: &[f64], g: &mut [f64]| {
            let mut f = 0.0;
            g.fill(0.0);
            for (row, &ti) in a_rows.iter().zip(&t) {
                let r: f64 = row.iter().zip(x).map(|(a, v)| a * v).sum::<f64>() - ti;
                f += r * r;
                for (j, &aj) in row.iter().enumerate() {
                    g[j] += 2.0 * r * aj;
                }
            }
            for j in 0..3 {
                let xj = x[j].max(floor);
                f += mu * (xj * (xj / q[j]).ln() - xj + q[j]);
                g[j] += mu * (xj / q[j]).ln();
            }
            f
        };
        let newton = projected_newton(
            fg,
            |x, h| {
                for i in 0..3 {
                    for j in 0..3 {
                        let mut v = 0.0;
                        for row in &a_rows {
                            v += 2.0 * row[i] * row[j];
                        }
                        h.set(i, j, v);
                    }
                }
                for j in 0..3 {
                    h.add_to(j, j, mu / x[j].max(floor));
                }
            },
            &[floor; 3],
            q.to_vec(),
            NewtonOptions {
                tol: 1e-10,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(newton.converged);
        let spg_res = spg::spg(
            fg,
            spg::project_floor(floor),
            q.to_vec(),
            SpgOptions {
                tol: 1e-11,
                max_iter: 50_000,
                ..Default::default()
            },
        )
        .unwrap();
        for j in 0..3 {
            assert!(
                (newton.x[j] - spg_res.x[j]).abs() < 1e-6,
                "j={j}: newton {} vs spg {}",
                newton.x[j],
                spg_res.x[j]
            );
        }
        assert!(newton.iterations < 20);
    }

    #[test]
    fn dual_newton_matches_dense_newton() {
        // Wide system (m = 2 rows < n = 3 cols): the dual engine's home
        // turf. Objective: ‖Ax − t‖² + Σ μ_j (x_j − c_j)² with Hessian
        // 2AᵀA + diag(2μ).
        let a_dense = Mat::from_rows(&[vec![1.0, 1.0, 0.0], vec![0.0, 1.0, 1.0]]);
        let a = Csr::from_dense(&a_dense, 0.0);
        let at = a.transpose();
        let t = [2.0, 1.5];
        let c = [0.2, 0.4, -0.5];
        let mu = [0.3, 0.2, 0.5];
        let fg = |x: &[f64], g: &mut [f64]| {
            let r = vector::sub(&a_dense.matvec(x), &t);
            let gr = a_dense.tr_matvec(&r);
            let mut f = vector::dot(&r, &r);
            for j in 0..3 {
                f += mu[j] * (x[j] - c[j]) * (x[j] - c[j]);
                g[j] = 2.0 * gr[j] + 2.0 * mu[j] * (x[j] - c[j]);
            }
            f
        };
        let dual = projected_newton_dual(
            fg,
            |_x: &[f64], d: &mut [f64]| {
                for j in 0..3 {
                    d[j] = 2.0 * mu[j];
                }
            },
            &a,
            &at,
            &[0.0; 3],
            vec![1.0, 1.0, 1.0],
            NewtonOptions {
                tol: 1e-11,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(dual.converged);
        let dense = projected_newton(
            fg,
            |_x, h| {
                let g2 = a_dense.gram();
                for i in 0..3 {
                    for j in 0..3 {
                        h.set(i, j, 2.0 * g2.get(i, j));
                    }
                    h.add_to(i, i, 2.0 * mu[i]);
                }
            },
            &[0.0; 3],
            vec![1.0, 1.0, 1.0],
            NewtonOptions {
                tol: 1e-11,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(dense.converged);
        for j in 0..3 {
            assert!(
                (dual.x[j] - dense.x[j]).abs() < 1e-8,
                "j={j}: dual {} vs dense {}",
                dual.x[j],
                dense.x[j]
            );
        }
        // The minimizer pins x₂ (its unconstrained optimum is pulled
        // negative by the prior): the bound handling must agree too.
        assert!(projected_newton_dual(
            |_x, _g| 0.0,
            |_x, _d| {},
            &a,
            &at,
            &[0.0; 2],
            vec![1.0, 2.0],
            NewtonOptions::default(),
        )
        .is_err());
    }

    #[test]
    fn validates_and_reports_failure_softly() {
        assert!(projected_newton(
            |_x, _g| 0.0,
            |_x, _h| {},
            &[0.0],
            vec![1.0, 2.0],
            NewtonOptions::default(),
        )
        .is_err());
        // Indefinite "Hessian" (zero matrix): factorization fails and
        // the solver reports non-convergence instead of erroring.
        let res = projected_newton(
            |x, g| {
                g[0] = x[0] - 1.0;
                0.5 * (x[0] - 1.0) * (x[0] - 1.0)
            },
            |_x, _h| {}, // leaves the Hessian at zero
            &[0.0],
            vec![5.0],
            NewtonOptions::default(),
        )
        .unwrap();
        assert!(!res.converged);
        assert!(res.x[0].is_finite());
    }
}
