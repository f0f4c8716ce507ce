//! Spectral projected gradient (SPG) for smooth convex objectives over
//! simple convex sets.
//!
//! This is the workhorse behind the entropy estimator (paper Eq. 6) and
//! the sparse Vardi moment-matching NNLS: both have cheap gradients and
//! trivially projectable feasible sets (the nonnegative orthant or a box)
//! but are too large for dense active-set methods.
//!
//! The implementation follows Birgin, Martínez & Raydan (2000):
//! Barzilai–Borwein spectral step lengths plus a nonmonotone Armijo line
//! search over the last `memory` objective values.

use tm_linalg::vector;

use crate::error::OptError;
use crate::Result;

/// Options for [`spg`].
#[derive(Debug, Clone, Copy)]
pub struct SpgOptions {
    /// Maximum outer iterations.
    pub max_iter: usize,
    /// Convergence tolerance on `‖P(x − ∇f) − x‖∞` (scaled).
    pub tol: f64,
    /// Nonmonotone memory length (1 = classical monotone Armijo).
    pub memory: usize,
    /// Armijo sufficient-decrease constant.
    pub gamma: f64,
    /// Spectral step clamping bounds.
    pub step_min: f64,
    /// Upper clamp for the spectral step.
    pub step_max: f64,
    /// Warm-start spectral step carried over from a previous, related
    /// solve (`0.0` = derive the first step from the projected gradient
    /// as usual). Streaming estimators re-solve almost-identical
    /// problems interval after interval; reusing the final
    /// Barzilai–Borwein step of the previous interval skips the
    /// conservative first-step heuristic.
    pub initial_step: f64,
}

impl Default for SpgOptions {
    fn default() -> Self {
        SpgOptions {
            max_iter: 2000,
            tol: 1e-8,
            memory: 10,
            gamma: 1e-4,
            step_min: 1e-12,
            step_max: 1e12,
            initial_step: 0.0,
        }
    }
}

/// Result of an SPG run.
#[derive(Debug, Clone)]
pub struct SpgResult {
    /// Final iterate.
    pub x: Vec<f64>,
    /// Objective value at `x`.
    pub objective: f64,
    /// Iterations performed.
    pub iterations: usize,
    /// Final projected-gradient norm (convergence measure).
    pub pg_norm: f64,
    /// Whether the tolerance was reached (`false` = budget exhausted;
    /// the iterate is still the best found).
    pub converged: bool,
    /// Final spectral (Barzilai–Borwein) step length. Feed it back via
    /// [`SpgOptions::initial_step`] to warm-start the next solve of a
    /// slowly drifting problem.
    pub step: f64,
}

impl SpgResult {
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

/// Minimize `f` over a convex set.
///
/// * `value_grad(x, grad)` must return `f(x)` and write `∇f(x)` into
///   `grad`.
/// * `project(x)` must project `x` onto the feasible set in place.
/// * `x0` is projected before use.
///
/// Unlike hard-failing solvers, SPG returns its best iterate even when
/// the iteration budget is exhausted (`converged = false`), because the
/// regularized estimators remain useful at loose tolerances. Errors are
/// reserved for non-finite objectives (diverging problem data).
pub fn spg<F, P>(mut value_grad: F, project: P, x0: Vec<f64>, opts: SpgOptions) -> Result<SpgResult>
where
    F: FnMut(&[f64], &mut [f64]) -> f64,
    P: Fn(&mut [f64]),
{
    let n = x0.len();
    let mut x = x0;
    project(&mut x);
    let mut grad = vec![0.0; n];
    let mut f = value_grad(&x, &mut grad);
    if !f.is_finite() {
        return Err(OptError::Invalid(
            "spg: objective not finite at the initial point".into(),
        ));
    }

    let mut history = std::collections::VecDeque::with_capacity(opts.memory.max(1));
    history.push_back(f);

    let mut step = if opts.initial_step > 0.0 {
        opts.initial_step.clamp(opts.step_min, opts.step_max)
    } else {
        // Initial spectral step: 1/‖pg‖∞ heuristic.
        let mut pg = x.clone();
        vector::axpy(-1.0, &grad, &mut pg);
        project(&mut pg);
        let mut d = pg;
        for i in 0..n {
            d[i] -= x[i];
        }
        let dn = vector::norm_inf(&d);
        if dn > 0.0 {
            (1.0 / dn).clamp(opts.step_min, opts.step_max)
        } else {
            1.0
        }
    };

    let scale = 1.0 + vector::norm_inf(&x);
    let mut pg_norm = f64::INFINITY;

    // All per-iteration scratch is hoisted: the loop below performs no
    // heap allocation, so iteration cost is pure arithmetic + the
    // caller's `value_grad`.
    let mut trial = vec![0.0; n];
    let mut d = vec![0.0; n];
    let mut xnew = vec![0.0; n];
    let mut gnew = vec![0.0; n];

    for it in 0..opts.max_iter {
        // Projected gradient (step 1) for the stopping test.
        trial.copy_from_slice(&x);
        vector::axpy(-1.0, &grad, &mut trial);
        project(&mut trial);
        pg_norm = 0.0f64;
        for i in 0..n {
            pg_norm = pg_norm.max((trial[i] - x[i]).abs());
        }
        if pg_norm <= opts.tol * scale {
            return Ok(SpgResult {
                x,
                objective: f,
                iterations: it,
                pg_norm,
                converged: true,
                step,
            });
        }

        // Trial direction with the spectral step.
        trial.copy_from_slice(&x);
        vector::axpy(-step, &grad, &mut trial);
        project(&mut trial);
        for i in 0..n {
            d[i] = trial[i] - x[i];
        }
        let gtd = vector::dot(&grad, &d);
        let fmax = history.iter().cloned().fold(f64::NEG_INFINITY, f64::max);

        // Nonmonotone Armijo backtracking along d.
        let mut lambda = 1.0;
        let mut fnew;
        let mut ls_ok = false;
        for _ in 0..60 {
            for i in 0..n {
                xnew[i] = x[i] + lambda * d[i];
            }
            fnew = value_grad(&xnew, &mut gnew);
            if fnew.is_finite() && fnew <= fmax + opts.gamma * lambda * gtd {
                // Accept; Barzilai–Borwein step from s = Δx, y = Δgrad
                // without materializing either vector.
                let mut sts = 0.0;
                let mut sty = 0.0;
                for i in 0..n {
                    let si = xnew[i] - x[i];
                    sts += si * si;
                    sty += si * (gnew[i] - grad[i]);
                }
                step = if sty > 0.0 {
                    (sts / sty).clamp(opts.step_min, opts.step_max)
                } else {
                    opts.step_max
                };
                x.copy_from_slice(&xnew);
                grad.copy_from_slice(&gnew);
                f = fnew;
                if history.len() == opts.memory.max(1) {
                    history.pop_front();
                }
                history.push_back(f);
                ls_ok = true;
                break;
            }
            lambda *= 0.5;
        }
        if !ls_ok {
            // Line search failure: direction is numerically flat; stop
            // with the current (feasible) iterate.
            return Ok(SpgResult {
                x,
                objective: f,
                iterations: it,
                pg_norm,
                converged: pg_norm <= opts.tol * scale,
                step,
            });
        }
    }

    Ok(SpgResult {
        x,
        objective: f,
        iterations: opts.max_iter,
        pg_norm,
        converged: false,
        step,
    })
}

/// Project onto the box `[lo_i, hi_i]` per coordinate.
pub fn project_box<'a>(lo: &'a [f64], hi: &'a [f64]) -> impl Fn(&mut [f64]) + 'a {
    move |x: &mut [f64]| {
        for i in 0..x.len() {
            x[i] = x[i].clamp(lo[i], hi[i]);
        }
    }
}

/// Project onto `{x ≥ floor}` with a per-coordinate floor.
pub fn project_floor(floor: f64) -> impl Fn(&mut [f64]) {
    move |x: &mut [f64]| {
        for v in x.iter_mut() {
            if *v < floor {
                *v = floor;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tm_linalg::Mat;

    #[test]
    fn quadratic_unconstrained_minimum_in_interior() {
        // f(x) = ½‖x − c‖², c > 0 ⇒ minimizer is c.
        let c = [1.0, 2.0, 3.0];
        let res = spg(
            |x, g| {
                let mut f = 0.0;
                for i in 0..3 {
                    g[i] = x[i] - c[i];
                    f += 0.5 * g[i] * g[i];
                }
                f
            },
            vector::project_nonneg,
            vec![0.0; 3],
            SpgOptions::default(),
        )
        .unwrap();
        assert!(res.converged);
        for i in 0..3 {
            assert!((res.x[i] - c[i]).abs() < 1e-6);
        }
    }

    #[test]
    fn quadratic_constrained_clips_at_boundary() {
        // Minimize ½(x+1)² over x ≥ 0 ⇒ x = 0.
        let res = spg(
            |x, g| {
                g[0] = x[0] + 1.0;
                0.5 * (x[0] + 1.0) * (x[0] + 1.0)
            },
            vector::project_nonneg,
            vec![5.0],
            SpgOptions::default(),
        )
        .unwrap();
        assert!(res.converged);
        assert!(res.x[0].abs() < 1e-8);
    }

    #[test]
    fn least_squares_matches_normal_equations() {
        let a = Mat::from_rows(&[vec![1.0, 0.5], vec![0.5, 2.0], vec![1.0, 1.0]]);
        let b = [1.0, 2.0, 1.5];
        let res = spg(
            |x, g| {
                let r = vector::sub(&a.matvec(x), &b);
                let gr = a.tr_matvec(&r);
                g.copy_from_slice(&gr);
                0.5 * vector::dot(&r, &r)
            },
            vector::project_nonneg,
            vec![0.0, 0.0],
            SpgOptions {
                tol: 1e-12,
                ..Default::default()
            },
        )
        .unwrap();
        let exact = tm_linalg::decomp::qr::lstsq(&a, &b).unwrap();
        // Interior solution: must match the unconstrained optimum.
        assert!(exact.iter().all(|&v| v > 0.0));
        for i in 0..2 {
            assert!(
                (res.x[i] - exact[i]).abs() < 1e-6,
                "{:?} vs {exact:?}",
                res.x
            );
        }
    }

    #[test]
    fn box_projection_respected() {
        let lo = [0.5, 0.5];
        let hi = [1.0, 1.0];
        let res = spg(
            |x, g| {
                // minimum at (2, -3), outside the box
                g[0] = x[0] - 2.0;
                g[1] = x[1] + 3.0;
                0.5 * ((x[0] - 2.0).powi(2) + (x[1] + 3.0).powi(2))
            },
            project_box(&lo, &hi),
            vec![0.7, 0.7],
            SpgOptions::default(),
        )
        .unwrap();
        assert!((res.x[0] - 1.0).abs() < 1e-8);
        assert!((res.x[1] - 0.5).abs() < 1e-8);
    }

    #[test]
    fn entropy_like_objective_with_floor() {
        // min x log(x/q) - x + q over x >= floor; optimum x = q.
        let q = 2.5;
        let res = spg(
            |x, g| {
                g[0] = (x[0] / q).ln();
                x[0] * (x[0] / q).ln() - x[0] + q
            },
            project_floor(1e-12),
            vec![1.0],
            SpgOptions::default(),
        )
        .unwrap();
        assert!((res.x[0] - q).abs() < 1e-5, "{}", res.x[0]);
    }

    #[test]
    fn reports_budget_exhaustion_without_error() {
        let res = spg(
            |x, g| {
                g[0] = x[0] - 1.0;
                0.5 * (x[0] - 1.0) * (x[0] - 1.0)
            },
            vector::project_nonneg,
            vec![100.0],
            SpgOptions {
                max_iter: 1,
                tol: 1e-16,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(!res.converged);
        assert!(res.x[0].is_finite());
    }

    #[test]
    fn warm_initial_step_is_used_and_final_step_returned() {
        // Quadratic with known curvature: the BB step converges to
        // 1/L = 1. Feeding it back must not change the minimizer and
        // must be accepted as the first trial step.
        let solve = |initial_step: f64| {
            spg(
                |x, g| {
                    g[0] = x[0] - 3.0;
                    g[1] = 2.0 * (x[1] - 1.0);
                    0.5 * (x[0] - 3.0).powi(2) + (x[1] - 1.0).powi(2)
                },
                vector::project_nonneg,
                vec![0.0, 0.0],
                SpgOptions {
                    initial_step,
                    ..Default::default()
                },
            )
            .unwrap()
        };
        let cold = solve(0.0);
        assert!(cold.converged);
        assert!(cold.step > 0.0 && cold.step.is_finite());
        let warm = solve(cold.step);
        assert!(warm.converged);
        for i in 0..2 {
            assert!((warm.x[i] - cold.x[i]).abs() < 1e-6);
        }
        assert!(warm.iterations <= cold.iterations);
    }

    #[test]
    fn rejects_non_finite_start() {
        let res = spg(
            |_x, g| {
                g[0] = f64::NAN;
                f64::NAN
            },
            vector::project_nonneg,
            vec![1.0],
            SpgOptions::default(),
        );
        assert!(res.is_err());
    }
}
