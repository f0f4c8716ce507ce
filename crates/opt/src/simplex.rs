//! Two-phase primal simplex for linear programs in standard form: the
//! dense full-tableau **reference implementation**. The worst-case
//! bounds run on the sparse [`crate::revised`] engine; the tests hold
//! that engine to this solver's optima.
//!
//! The paper's worst-case bounds (§4.3.1) require `2·P` linear programs
//! per network — `max s_p` and `min s_p` over `{s ≥ 0 : R s = t}` for
//! every OD pair `p`. All these LPs share one feasible region, so this
//! implementation separates the *feasibility* work (phase 1, performed
//! once) from the *optimization* work (phase 2, re-run per objective from
//! the current basis — a warm start that typically needs only a handful
//! of pivots).
//!
//! Implementation notes:
//! * dense full-tableau simplex with an explicit objective row,
//! * Dantzig pricing with an automatic switch to Bland's rule after a
//!   degeneracy streak (anti-cycling),
//! * redundant constraint rows are detected in phase 1 and removed,
//! * tolerances scale with the problem data.

use tm_linalg::{vector, Csr, Mat};

use crate::error::OptError;
use crate::Result;

/// A linear program in standard form: `optimize cᵀx  s.t.  A·x = b, x ≥ 0`.
#[derive(Debug, Clone)]
pub struct StandardLp {
    /// Constraint matrix (`m × n`).
    pub a: Mat,
    /// Right-hand side (`m`). May contain negative entries; rows are
    /// sign-flipped internally.
    pub b: Vec<f64>,
}

/// Outcome of one LP solve.
#[derive(Debug, Clone)]
pub struct LpSolution {
    /// Optimal point.
    pub x: Vec<f64>,
    /// Optimal objective value `cᵀx`.
    pub objective: f64,
    /// Simplex pivots spent on this objective.
    pub pivots: usize,
}

/// Re-usable simplex solver holding a feasible basis for one constraint
/// system `A·x = b, x ≥ 0`.
///
/// `Clone` is cheap relative to phase 1: parallel bound sweeps clone a
/// phase-1-complete solver per worker chunk and warm-start from it.
#[derive(Debug, Clone)]
pub struct SimplexSolver {
    /// Current tableau `B⁻¹·A` (`m_eff × n`).
    t: Mat,
    /// Current right-hand side `B⁻¹·b ≥ 0`.
    rhs: Vec<f64>,
    /// `basis[r]` = column basic in row `r`.
    basis: Vec<usize>,
    /// Number of structural variables.
    n: usize,
    /// Scaled numerical tolerance.
    tol: f64,
}

/// Pivot-budget multiplier (per objective) before declaring failure.
const PIVOT_BUDGET_FACTOR: usize = 200;

impl SimplexSolver {
    /// Run phase 1 on `lp`. Fails with [`OptError::Infeasible`] when the
    /// system has no nonnegative solution. Redundant equality rows are
    /// dropped silently (common for routing matrices, whose edge-link
    /// rows are sums of interior information).
    pub fn new(lp: &StandardLp) -> Result<Self> {
        let (m, n) = lp.a.shape();
        if lp.b.len() != m {
            return Err(OptError::Invalid(format!(
                "simplex: b has {} entries for {} rows",
                lp.b.len(),
                m
            )));
        }
        if m == 0 || n == 0 {
            return Err(OptError::Invalid("simplex: empty problem".into()));
        }
        let scale = lp.a.max_abs().max(vector::norm_inf(&lp.b)).max(1.0);

        // Extended tableau [A | I] with artificial columns; flip rows so
        // that b >= 0.
        let mut t = Mat::zeros(m, n + m);
        let mut rhs = vec![0.0; m];
        for i in 0..m {
            let flip = if lp.b[i] < 0.0 { -1.0 } else { 1.0 };
            for j in 0..n {
                t.set(i, j, flip * lp.a.get(i, j));
            }
            t.set(i, n + i, 1.0);
            rhs[i] = flip * lp.b[i];
        }
        Self::phase1(t, rhs, n, m, scale)
    }

    /// Phase 1 directly from a **sparse** constraint matrix: the
    /// extended tableau is filled from CSR rows (O(nnz) writes on top of
    /// the zero tableau), so the constraint system is never densified
    /// outside the tableau the simplex method itself requires.
    pub fn new_sparse(a: &Csr, b: &[f64]) -> Result<Self> {
        let (m, n) = (a.rows(), a.cols());
        if b.len() != m {
            return Err(OptError::Invalid(format!(
                "simplex: b has {} entries for {} rows",
                b.len(),
                m
            )));
        }
        if m == 0 || n == 0 {
            return Err(OptError::Invalid("simplex: empty problem".into()));
        }
        let a_max = a.data().iter().fold(0.0f64, |acc, &v| acc.max(v.abs()));
        let scale = a_max.max(vector::norm_inf(b)).max(1.0);

        let mut t = Mat::zeros(m, n + m);
        let mut rhs = vec![0.0; m];
        for i in 0..m {
            let flip = if b[i] < 0.0 { -1.0 } else { 1.0 };
            let (idx, val) = a.row(i);
            let trow = t.row_mut(i);
            for (k, &j) in idx.iter().enumerate() {
                trow[j] = flip * val[k];
            }
            trow[n + i] = 1.0;
            rhs[i] = flip * b[i];
        }
        Self::phase1(t, rhs, n, m, scale)
    }

    /// Shared phase-1 driver over a freshly built `[A | I]` tableau.
    fn phase1(t: Mat, rhs: Vec<f64>, n: usize, m: usize, scale: f64) -> Result<Self> {
        let tol = 1e-9 * scale;
        let basis: Vec<usize> = (n..n + m).collect();
        let mut solver = SimplexSolver {
            t,
            rhs,
            basis,
            n,
            tol,
        };

        // Phase 1 objective: minimize the sum of artificials.
        let mut c1 = vec![0.0; n + m];
        for j in n..n + m {
            c1[j] = 1.0;
        }
        let (obj, _) = solver.optimize(&c1, n + m)?;
        if obj > tol * (m as f64).sqrt().max(1.0) * 10.0 {
            return Err(OptError::Infeasible { residual: obj });
        }

        // Drive artificial variables out of the basis; drop redundant rows.
        let mut r = 0;
        while r < solver.basis.len() {
            if solver.basis[r] >= n {
                // Find a structural column to pivot in (any nonzero works:
                // rhs[r] is zero, so the pivot is degenerate and feasible).
                let mut best: Option<(usize, f64)> = None;
                for j in 0..n {
                    let v = solver.t.get(r, j).abs();
                    if v > solver.tol {
                        match best {
                            Some((_, bv)) if bv >= v => {}
                            _ => best = Some((j, v)),
                        }
                    }
                }
                match best {
                    Some((j, _)) => {
                        solver.pivot(r, j);
                        r += 1;
                    }
                    None => {
                        // Entire row is (numerically) zero over structural
                        // columns: redundant constraint.
                        solver.drop_row(r);
                    }
                }
            } else {
                r += 1;
            }
        }

        // Artificial columns are no longer needed.
        let keep: Vec<usize> = (0..n).collect();
        solver.t = solver.t.select_cols(&keep);
        Ok(solver)
    }

    /// Number of (non-redundant) constraint rows retained.
    pub fn active_rows(&self) -> usize {
        self.rhs.len()
    }

    /// Minimize `cᵀx` from the current feasible basis.
    pub fn minimize(&mut self, c: &[f64]) -> Result<LpSolution> {
        if c.len() != self.n {
            return Err(OptError::Invalid(format!(
                "simplex: objective has {} entries for {} variables",
                c.len(),
                self.n
            )));
        }
        let (obj, pivots) = self.optimize(c, self.n)?;
        Ok(LpSolution {
            x: self.extract(),
            objective: obj,
            pivots,
        })
    }

    /// Maximize `cᵀx` from the current feasible basis.
    pub fn maximize(&mut self, c: &[f64]) -> Result<LpSolution> {
        let neg: Vec<f64> = c.iter().map(|v| -v).collect();
        let mut sol = self.minimize(&neg)?;
        sol.objective = -sol.objective;
        Ok(sol)
    }

    /// Current basic solution.
    fn extract(&self) -> Vec<f64> {
        let mut x = vec![0.0; self.n];
        for (r, &j) in self.basis.iter().enumerate() {
            if j < self.n {
                x[j] = self.rhs[r];
            }
        }
        x
    }

    /// Primal simplex iterations minimizing `c` over the first
    /// `ncols` tableau columns. Returns `(objective, pivots)`.
    fn optimize(&mut self, c: &[f64], ncols: usize) -> Result<(f64, usize)> {
        let m = self.rhs.len();
        // Build the reduced-cost row: obj[j] = c_j − c_Bᵀ T[:,j].
        let mut obj = c[..ncols].to_vec();
        let mut objval = 0.0;
        for r in 0..m {
            let cb = c[self.basis[r]];
            if cb != 0.0 {
                let row = self.t.row(r);
                for j in 0..ncols {
                    obj[j] -= cb * row[j];
                }
                objval += cb * self.rhs[r];
            }
        }

        let budget = PIVOT_BUDGET_FACTOR * (m + ncols).max(16);
        let mut pivots = 0usize;
        let mut degenerate_streak = 0usize;

        loop {
            // Entering variable: Dantzig unless cycling risk, then Bland.
            let use_bland = degenerate_streak > 2 * (m + 8);
            let mut enter: Option<usize> = None;
            if use_bland {
                for (j, &oj) in obj.iter().enumerate() {
                    if oj < -self.tol {
                        enter = Some(j);
                        break;
                    }
                }
            } else {
                let mut best = -self.tol;
                for (j, &oj) in obj.iter().enumerate() {
                    if oj < best {
                        best = oj;
                        enter = Some(j);
                    }
                }
            }
            let Some(jin) = enter else {
                return Ok((objval, pivots));
            };

            // Ratio test: leaving row.
            let mut leave: Option<usize> = None;
            let mut best_ratio = f64::INFINITY;
            for r in 0..self.rhs.len() {
                let a = self.t.get(r, jin);
                if a > self.tol {
                    let ratio = self.rhs[r] / a;
                    let better = ratio < best_ratio - self.tol
                        || (ratio < best_ratio + self.tol
                            && leave.is_some_and(|l| self.basis[r] < self.basis[l]));
                    if better {
                        best_ratio = ratio;
                        leave = Some(r);
                    }
                }
            }
            let Some(rout) = leave else {
                return Err(OptError::Unbounded);
            };

            if best_ratio <= self.tol {
                degenerate_streak += 1;
            } else {
                degenerate_streak = 0;
            }

            // Pivot and update the objective row alongside.
            let delta = obj[jin];
            self.pivot(rout, jin);
            if delta != 0.0 {
                let prow = self.t.row(rout);
                for j in 0..ncols {
                    obj[j] -= delta * prow[j];
                }
                objval += delta * self.rhs[rout];
                obj[jin] = 0.0;
            }

            pivots += 1;
            if pivots > budget {
                return Err(OptError::DidNotConverge {
                    iterations: pivots,
                    measure: vector::norm_inf(&obj),
                });
            }
        }
    }

    /// Gauss–Jordan pivot on `(row, col)`: row is normalized, the column
    /// is eliminated from all other rows, and the basis is updated.
    fn pivot(&mut self, row: usize, col: usize) {
        let ncols = self.t.cols();
        let pivot = self.t.get(row, col);
        debug_assert!(pivot.abs() > 0.0, "pivot on zero element");
        let inv = 1.0 / pivot;
        for j in 0..ncols {
            let v = self.t.get(row, j) * inv;
            self.t.set(row, j, v);
        }
        self.rhs[row] *= inv;
        self.t.set(row, col, 1.0);

        for r in 0..self.rhs.len() {
            if r == row {
                continue;
            }
            let factor = self.t.get(r, col);
            if factor == 0.0 {
                continue;
            }
            for j in 0..ncols {
                let v = self.t.get(r, j) - factor * self.t.get(row, j);
                self.t.set(r, j, v);
            }
            self.t.set(r, col, 0.0);
            self.rhs[r] -= factor * self.rhs[row];
            if self.rhs[r] < 0.0 && self.rhs[r] > -self.tol {
                self.rhs[r] = 0.0;
            }
        }
        self.basis[row] = col;
    }

    /// Remove constraint row `r` (identified as redundant in phase 1).
    fn drop_row(&mut self, r: usize) {
        let m = self.rhs.len();
        let ncols = self.t.cols();
        let mut t = Mat::zeros(m - 1, ncols);
        let mut w = 0;
        for i in 0..m {
            if i != r {
                t.row_mut(w).copy_from_slice(self.t.row(i));
                w += 1;
            }
        }
        self.t = t;
        self.rhs.remove(r);
        self.basis.remove(r);
    }
}

/// One-shot convenience: solve `min/max cᵀx  s.t.  A·x = b, x ≥ 0`.
pub fn solve_lp(lp: &StandardLp, c: &[f64], maximize: bool) -> Result<LpSolution> {
    let mut solver = SimplexSolver::new(lp)?;
    if maximize {
        solver.maximize(c)
    } else {
        solver.minimize(c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn feasible(lp: &StandardLp, x: &[f64], tol: f64) -> bool {
        if x.iter().any(|&v| v < -tol) {
            return false;
        }
        let ax = lp.a.matvec(x);
        ax.iter()
            .zip(&lp.b)
            .all(|(&l, &r)| (l - r).abs() <= tol * (1.0 + r.abs()))
    }

    #[test]
    fn simple_bounded_lp() {
        // max x1 + x2 s.t. x1 + x2 + slack = 4 (i.e. x1 + x2 <= 4)
        let lp = StandardLp {
            a: Mat::from_rows(&[vec![1.0, 1.0, 1.0]]),
            b: vec![4.0],
        };
        let sol = solve_lp(&lp, &[1.0, 1.0, 0.0], true).unwrap();
        assert!((sol.objective - 4.0).abs() < 1e-9);
        assert!(feasible(&lp, &sol.x, 1e-9));
    }

    #[test]
    fn textbook_two_constraint_lp() {
        // max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18 (slacks s1..s3)
        // Optimal: x = 2, y = 6, obj = 36.
        let lp = StandardLp {
            a: Mat::from_rows(&[
                vec![1.0, 0.0, 1.0, 0.0, 0.0],
                vec![0.0, 2.0, 0.0, 1.0, 0.0],
                vec![3.0, 2.0, 0.0, 0.0, 1.0],
            ]),
            b: vec![4.0, 12.0, 18.0],
        };
        let sol = solve_lp(&lp, &[3.0, 5.0, 0.0, 0.0, 0.0], true).unwrap();
        assert!((sol.objective - 36.0).abs() < 1e-8, "obj {}", sol.objective);
        assert!((sol.x[0] - 2.0).abs() < 1e-8);
        assert!((sol.x[1] - 6.0).abs() < 1e-8);
    }

    #[test]
    fn detects_infeasible() {
        // x1 + x2 = -1 with x >= 0 is infeasible ... but b is flipped, so
        // use genuinely contradictory rows instead.
        let lp = StandardLp {
            a: Mat::from_rows(&[vec![1.0, 1.0], vec![1.0, 1.0]]),
            b: vec![1.0, 2.0],
        };
        assert!(matches!(
            SimplexSolver::new(&lp),
            Err(OptError::Infeasible { .. })
        ));
    }

    #[test]
    fn detects_unbounded() {
        // max x1 s.t. x1 - x2 = 0: ray (t, t).
        let lp = StandardLp {
            a: Mat::from_rows(&[vec![1.0, -1.0]]),
            b: vec![0.0],
        };
        let res = solve_lp(&lp, &[1.0, 0.0], true);
        assert!(matches!(res, Err(OptError::Unbounded)));
    }

    #[test]
    fn redundant_rows_are_dropped() {
        // Second row is twice the first: rank 1 system.
        let lp = StandardLp {
            a: Mat::from_rows(&[vec![1.0, 1.0], vec![2.0, 2.0]]),
            b: vec![3.0, 6.0],
        };
        let mut solver = SimplexSolver::new(&lp).unwrap();
        assert_eq!(solver.active_rows(), 1);
        let sol = solver.maximize(&[1.0, 0.0]).unwrap();
        assert!((sol.objective - 3.0).abs() < 1e-9);
    }

    #[test]
    fn negative_rhs_rows_are_flipped() {
        // -x1 - x2 = -4 is x1 + x2 = 4.
        let lp = StandardLp {
            a: Mat::from_rows(&[vec![-1.0, -1.0]]),
            b: vec![-4.0],
        };
        let sol = solve_lp(&lp, &[1.0, 0.0], true).unwrap();
        assert!((sol.objective - 4.0).abs() < 1e-9);
    }

    #[test]
    fn warm_start_multiple_objectives() {
        // Transportation-style system; solve max/min for each variable.
        let lp = StandardLp {
            a: Mat::from_rows(&[
                vec![1.0, 1.0, 0.0, 0.0],
                vec![0.0, 0.0, 1.0, 1.0],
                vec![1.0, 0.0, 1.0, 0.0],
            ]),
            b: vec![5.0, 7.0, 6.0],
        };
        let mut solver = SimplexSolver::new(&lp).unwrap();
        for p in 0..4 {
            let mut c = vec![0.0; 4];
            c[p] = 1.0;
            let hi = solver.maximize(&c).unwrap();
            let lo = solver.minimize(&c).unwrap();
            assert!(hi.objective >= lo.objective - 1e-9);
            assert!(feasible(&lp, &hi.x, 1e-8), "p={p} max infeasible");
            assert!(feasible(&lp, &lo.x, 1e-8), "p={p} min infeasible");
            assert!(lo.objective >= -1e-9, "variables are nonnegative");
        }
    }

    #[test]
    fn matches_brute_force_vertex_enumeration() {
        // Small random-ish LP: enumerate all basic feasible solutions.
        let a = Mat::from_rows(&[vec![2.0, 1.0, 1.0, 0.0, 3.0], vec![1.0, 3.0, 0.0, 1.0, 1.0]]);
        let b = vec![8.0, 9.0];
        let c = vec![1.0, 2.0, -1.0, 0.5, 1.5];
        let lp = StandardLp {
            a: a.clone(),
            b: b.clone(),
        };

        // Brute force over all column pairs.
        let n = 5;
        let mut best = f64::NEG_INFINITY;
        for j1 in 0..n {
            for j2 in (j1 + 1)..n {
                let sub = a.select_cols(&[j1, j2]);
                if let Ok(lu) = tm_linalg::decomp::Lu::factor(&sub) {
                    if let Ok(xb) = lu.solve(&b) {
                        if xb.iter().all(|&v| v >= -1e-9) {
                            let mut x = vec![0.0; n];
                            x[j1] = xb[0];
                            x[j2] = xb[1];
                            let obj = vector::dot(&c, &x);
                            best = best.max(obj);
                        }
                    }
                }
            }
        }
        let sol = solve_lp(&lp, &c, true).unwrap();
        assert!(
            (sol.objective - best).abs() < 1e-7,
            "simplex {} vs brute force {}",
            sol.objective,
            best
        );
    }

    #[test]
    fn degenerate_lp_terminates() {
        // Highly degenerate: multiple zero rhs rows.
        let lp = StandardLp {
            a: Mat::from_rows(&[
                vec![1.0, -1.0, 1.0, 0.0],
                vec![1.0, -1.0, 0.0, 1.0],
                vec![1.0, 1.0, 0.0, 0.0],
            ]),
            b: vec![0.0, 0.0, 2.0],
        };
        let sol = solve_lp(&lp, &[1.0, 0.0, 0.0, 0.0], true).unwrap();
        assert!(sol.objective <= 1.0 + 1e-8);
        assert!(feasible(&lp, &sol.x, 1e-8));
    }

    #[test]
    fn sparse_constructor_matches_dense() {
        let a = Mat::from_rows(&[
            vec![1.0, 1.0, 0.0, 0.0],
            vec![0.0, 0.0, 1.0, 1.0],
            vec![1.0, 0.0, 1.0, 0.0],
        ]);
        let b = vec![5.0, 7.0, 6.0];
        let lp = StandardLp {
            a: a.clone(),
            b: b.clone(),
        };
        let csr = Csr::from_dense(&a, 0.0);
        let mut dense = SimplexSolver::new(&lp).unwrap();
        let mut sparse = SimplexSolver::new_sparse(&csr, &b).unwrap();
        assert_eq!(dense.active_rows(), sparse.active_rows());
        for p in 0..4 {
            let mut c = vec![0.0; 4];
            c[p] = 1.0;
            let hi_d = dense.maximize(&c).unwrap();
            let hi_s = sparse.maximize(&c).unwrap();
            assert!(
                (hi_d.objective - hi_s.objective).abs() < 1e-9,
                "p={p}: dense {} vs sparse {}",
                hi_d.objective,
                hi_s.objective
            );
        }
        // Clone keeps an independent warm-started basis.
        let mut fork = sparse.clone();
        let sol = fork.maximize(&[1.0, 0.0, 0.0, 0.0]).unwrap();
        assert!(sol.objective.is_finite());
    }

    #[test]
    fn rejects_bad_inputs() {
        let lp = StandardLp {
            a: Mat::from_rows(&[vec![1.0, 1.0]]),
            b: vec![1.0, 2.0],
        };
        assert!(SimplexSolver::new(&lp).is_err());
        let lp2 = StandardLp {
            a: Mat::from_rows(&[vec![1.0, 1.0]]),
            b: vec![1.0],
        };
        let mut s = SimplexSolver::new(&lp2).unwrap();
        assert!(s.minimize(&[1.0]).is_err()); // wrong objective length
    }
}
