//! Bounded-variable revised simplex over CSR constraint columns with a
//! sparse LU basis.
//!
//! The engine solves `A·x = b, 0 ≤ x ≤ u`, where a column's upper bound
//! `uⱼ` may be `+∞` (no bound). The full-tableau solver in
//! [`crate::simplex`] carries a dense `m × n` tableau `B⁻¹A` and pays
//! `O(m·n)` per pivot even though the routing constraint matrix is ~1%
//! dense at backbone scale. The revised method keeps only what an
//! iteration actually needs:
//!
//! * the constraint matrix in CSR **and** CSC (its transpose) form,
//! * the current basis `B` as a [`tm_linalg::BasisLu`] — a sparse LU
//!   with partial pivoting, a Markowitz-style fill-reducing column
//!   order, and a product-form eta file for rank-one basis updates,
//! * which nonbasic columns sit at their upper bound (the rest sit at
//!   zero),
//! * the basic solution `x_B = B⁻¹·(b − Σ_{j at upper} uⱼ·Aⱼ)`,
//!   maintained incrementally.
//!
//! Per iteration: one BTRAN for the dual prices, a pricing pass over
//! CSC columns (Dantzig rule over a rotating partial-pricing window,
//! with Bland's rule as the anti-cycling fallback; a column at its upper
//! bound is eligible when its reduced cost is positive), one FTRAN of
//! the entering column, the ratio test on that FTRAN image, and an eta
//! update — `O(nnz)` instead of `O(m·n)`. The ratio test bounds the step
//! by the basics reaching zero, by the basics reaching their upper
//! bounds, and by the entering column's own range: when that range is
//! the shortest, the column **flips** to its other bound and the basis
//! (and its factorization) stays as it is. The factorization is rebuilt
//! when the eta chain grows past its threshold, when an eta pivot is
//! unstable, or after `m` consecutive updates (drift guard); `x_B` is
//! recomputed from scratch at every refactorization.
//!
//! Without finite bounds no column ever sits at its upper bound, and
//! every step is the one the plain `x ≥ 0` simplex takes, bit for bit.
//!
//! Phase 1 is the same sum-of-artificials program the tableau solver
//! runs, executed on the revised engine itself: the artificial identity
//! basis factors trivially, and artificial variables that remain basic
//! at level zero (redundant constraint rows) are pinned there — a
//! leaving-priority rule evicts them the moment any entering column
//! crosses their row, and they are never priced back in.
//!
//! `Clone` is cheap relative to a cold start (no dense tableau is
//! copied), so parallel bound sweeps clone a phase-1-complete solver
//! per worker chunk and warm-start it, exactly like the tableau path.

use tm_linalg::{vector, BasisLu, Csr};

use crate::error::OptError;
use crate::simplex::LpSolution;
use crate::Result;

/// Pivot-budget multiplier (per objective) before declaring failure —
/// matches the tableau solver. Bound flips count against it too.
const PIVOT_BUDGET_FACTOR: usize = 200;

/// Consecutive eta updates after which the basis is refactored even if
/// the eta chain is still short (numerical-drift guard on `x_B`).
const DRIFT_REFACTOR_PIVOTS: usize = 256;

/// Relative tolerance handed to the sparse LU factorization.
const LU_TOL: f64 = 1e-12;

/// Revised simplex solver holding a feasible basis for one constraint
/// system `A·x = b, 0 ≤ x ≤ u`.
#[derive(Debug, Clone)]
pub struct RevisedSimplex {
    /// Column (CSC) view of the constraint matrix — row `j` of `at` is
    /// column `j` of the row-sign-flipped `A` (flipped so that `b ≥ 0`).
    /// The row-major original is not kept: pricing, FTRAN loads and
    /// refactorization all walk columns.
    at: Csr,
    /// Flipped right-hand side (`≥ 0`).
    b: Vec<f64>,
    /// Row flip signs applied to the original system.
    flip: Vec<f64>,
    m: usize,
    n: usize,
    /// Upper bound per structural column (`f64::INFINITY`: none).
    upper: Vec<f64>,
    /// Nonbasic structural column `j` sits at its upper bound (at zero
    /// otherwise). Never set for a basic column.
    at_upper: Vec<bool>,
    /// `basis[i]` = column basic at position `i`; `>= n` is the
    /// artificial unit column `e_{basis[i]−n}`.
    basis: Vec<usize>,
    /// Structural column `j` currently basic?
    in_basis: Vec<bool>,
    /// Basic solution values by basis position.
    xb: Vec<f64>,
    /// Sparse LU of the basis plus the eta file.
    factor: BasisLu,
    /// Scaled numerical tolerance.
    tol: f64,
    /// Feasibility threshold (phase-1 residual, rebase checks).
    feas_tol: f64,
    /// Partial-pricing cursor (rotates deterministically).
    cursor: usize,
    /// Eta updates since the last refactorization.
    updates_since_refactor: usize,
    /// Refactorizations since construction (the trivial factorization
    /// of the artificial identity basis is not counted).
    refactors: usize,
    /// Bound flips since construction.
    flips: usize,
    // ---- solve scratch (allocation-free steady state) ----
    /// The basis columns gathered for a refactorization, flat
    /// (`col_ent[col_ptr[i]..col_ptr[i + 1]]` is position `i`).
    col_ptr: Vec<usize>,
    col_ent: Vec<(usize, f64)>,
    /// The right-hand side the basis solves for, `b − Σ uⱼ·Aⱼ` over the
    /// columns at their upper bound.
    rhs: Vec<f64>,
    y: Vec<f64>,
    w: Vec<f64>,
    col_buf: Vec<f64>,
    cb: Vec<f64>,
}

/// Objective of the current `optimize` run.
enum Phase<'c> {
    /// Minimize the sum of artificial variables.
    One,
    /// Minimize `cᵀx` over structural variables.
    Two(&'c [f64]),
}

impl<'c> Phase<'c> {
    #[inline]
    fn cost(&self, j: usize, n: usize) -> f64 {
        match self {
            Phase::One => {
                if j < n {
                    0.0
                } else {
                    1.0
                }
            }
            Phase::Two(c) => {
                if j < n {
                    c[j]
                } else {
                    0.0
                }
            }
        }
    }
}

/// `out = b − Σ uⱼ·Aⱼ` over the columns `j` at a finite upper bound.
fn shifted_rhs(at: &Csr, b: &[f64], upper: &[f64], at_upper: &[bool], out: &mut Vec<f64>) {
    out.clear();
    out.extend_from_slice(b);
    for (j, (&up, &u)) in at_upper.iter().zip(upper).enumerate() {
        if up && u.is_finite() {
            let (rows, vals) = at.row(j);
            for (&r, &v) in rows.iter().zip(vals) {
                out[r] -= u * v;
            }
        }
    }
}

impl RevisedSimplex {
    /// Build a solver for `A·x = b, 0 ≤ x ≤ u` and run phase 1 (the
    /// sum-of-artificials program, on the revised engine). `upper` gives
    /// one bound per column (`f64::INFINITY` for none); `None` means no
    /// column has one. Fails with [`OptError::Infeasible`] when the
    /// system has no solution within the bounds.
    pub fn new_sparse(a: &Csr, b: &[f64], upper: Option<&[f64]>) -> Result<Self> {
        let (m, n) = (a.rows(), a.cols());
        if b.len() != m {
            return Err(OptError::Invalid(format!(
                "revised simplex: b has {} entries for {} rows",
                b.len(),
                m
            )));
        }
        if m == 0 || n == 0 {
            return Err(OptError::Invalid("revised simplex: empty problem".into()));
        }
        let upper = match upper {
            None => vec![f64::INFINITY; n],
            Some(u) => {
                check_upper(u, n)?;
                u.to_vec()
            }
        };
        let a_max = a.data().iter().fold(0.0f64, |acc, &v| acc.max(v.abs()));
        let u_max = upper
            .iter()
            .filter(|u| u.is_finite())
            .fold(0.0f64, |acc, &u| acc.max(u));
        let scale = a_max.max(vector::norm_inf(b)).max(u_max).max(1.0);
        let tol = 1e-9 * scale;

        let flip: Vec<f64> = b
            .iter()
            .map(|&v| if v < 0.0 { -1.0 } else { 1.0 })
            .collect();
        let af = a.scale_rows(&flip).expect("flip length matches rows");
        let bf: Vec<f64> = b.iter().zip(&flip).map(|(&v, &s)| s * v).collect();
        let at = af.transpose();

        // Artificial identity basis: factors trivially, x_B = b.
        let basis: Vec<usize> = (n..n + m).collect();
        let col_ptr: Vec<usize> = (0..=m).collect();
        let col_ent: Vec<(usize, f64)> = (0..m).map(|i| (i, 1.0)).collect();
        let factor = BasisLu::factor(m, &col_ptr, &col_ent, LU_TOL).map_err(OptError::Linalg)?;

        let mut solver = RevisedSimplex {
            at,
            xb: bf.clone(),
            rhs: bf.clone(),
            b: bf,
            flip,
            m,
            n,
            upper,
            at_upper: vec![false; n],
            basis,
            in_basis: vec![false; n],
            factor,
            tol,
            feas_tol: tol * (m as f64).sqrt().max(1.0) * 10.0,
            cursor: 0,
            updates_since_refactor: 0,
            refactors: 0,
            flips: 0,
            col_ptr,
            col_ent,
            y: vec![0.0; m],
            w: vec![0.0; m],
            col_buf: vec![0.0; m],
            cb: vec![0.0; m],
        };

        let (obj, _) = solver.optimize(&Phase::One)?;
        if obj > solver.feas_tol {
            return Err(OptError::Infeasible { residual: obj });
        }
        // Residual artificials sit on redundant (or numerically
        // satisfied) rows: pin them at exactly zero.
        for i in 0..m {
            if solver.basis[i] >= n {
                solver.xb[i] = 0.0;
            }
        }
        Ok(solver)
    }

    /// Number of constraint rows carried (no rows are dropped: redundant
    /// rows keep a zero-level artificial pinned in the basis instead).
    pub fn active_rows(&self) -> usize {
        self.m
    }

    /// Number of structural variables.
    pub fn n_vars(&self) -> usize {
        self.n
    }

    /// Basis refactorizations performed since construction: phase 1,
    /// repairs and every objective solved since. A clone starts from
    /// its source's count.
    pub fn refactors(&self) -> usize {
        self.refactors
    }

    /// Bound flips since construction: ratio-test steps in which the
    /// entering column moved to its other bound instead of entering the
    /// basis. A clone starts from its source's count.
    pub fn bound_flips(&self) -> usize {
        self.flips
    }

    /// The flipped form of `b_new`, after checking its length and, when
    /// given, the new bounds. `None` when a sign differs from the
    /// original system's (the stored columns are flipped for those).
    fn flipped_rhs(&self, b_new: &[f64], upper: Option<&[f64]>) -> Result<Option<Vec<f64>>> {
        if b_new.len() != self.m {
            return Err(OptError::Invalid(format!(
                "rebase: b has {} entries for {} rows",
                b_new.len(),
                self.m
            )));
        }
        if let Some(u) = upper {
            check_upper(u, self.n)?;
        }
        let mut bf = Vec::with_capacity(self.m);
        for (i, &v) in b_new.iter().enumerate() {
            let f = self.flip[i] * v;
            if f < 0.0 {
                return Ok(None);
            }
            bf.push(f);
        }
        Ok(Some(bf))
    }

    /// Adopt new upper bounds. A nonbasic column at its old upper bound
    /// moves with it, or to zero when its new bound is infinite.
    fn set_upper(&mut self, upper: &[f64]) {
        self.upper.copy_from_slice(upper);
        for (up, &u) in self.at_upper.iter_mut().zip(upper) {
            *up &= u.is_finite();
        }
    }

    /// Re-anchor the solver on a new right-hand side with the **same**
    /// constraint matrix, keeping the current basis — the warm start
    /// used when a snapshot shard sweeps many measurement vectors over
    /// one routing pattern. `upper`, when given, replaces the column
    /// bounds too (nonbasic columns at an upper bound move with it).
    /// Returns `Ok(false)` (solver unchanged semantically, `x_B`
    /// restored) when the basis is not feasible for `b_new` or the sign
    /// pattern differs; the caller should then fall back to a fresh
    /// phase 1.
    pub fn rebase(&mut self, b_new: &[f64], upper: Option<&[f64]>) -> Result<bool> {
        let Some(bf) = self.flipped_rhs(b_new, upper)? else {
            return Ok(false);
        };
        let ub = upper.unwrap_or(&self.upper);
        shifted_rhs(&self.at, &bf, ub, &self.at_upper, &mut self.rhs);
        self.factor.ftran_into(&self.rhs, &mut self.w);
        // Feasible for the current basis? Artificial positions must stay
        // at (numerical) zero, structural ones within their bounds.
        for i in 0..self.m {
            let v = self.w[i];
            let j = self.basis[i];
            let bad = if j >= self.n {
                v.abs() > self.feas_tol
            } else {
                v < -self.feas_tol || v > ub[j] + self.feas_tol
            };
            if bad {
                return Ok(false);
            }
        }
        self.b = bf;
        if let Some(u) = upper {
            self.set_upper(u);
        }
        for i in 0..self.m {
            let j = self.basis[i];
            self.xb[i] = if j >= self.n {
                0.0
            } else {
                self.w[i].max(0.0).min(self.upper[j])
            };
        }
        Ok(true)
    }

    /// [`RevisedSimplex::rebase`] with a **dual-style repair pass**: when
    /// the carried basis is primal infeasible for `b_new` (and `upper`,
    /// when given), run up to `max_pivots` dual-simplex-style pivots
    /// (leaving row = worst violation — a basic below zero or above its
    /// upper bound, or an artificial off zero; entering column = the
    /// sign-compatible nonbasic column with the largest pivot magnitude,
    /// deterministic tie-break by index) to restore feasibility instead
    /// of immediately giving up. Between consecutive intervals of a
    /// slowly drifting load series the basis is usually a handful of
    /// pivots from feasibility, so this replaces a full fresh phase 1
    /// with `O(few)` pivots.
    ///
    /// Returns `Ok(true)` when the basis was re-anchored (plain or
    /// repaired). Returns `Ok(false)` when the sign pattern differs or
    /// the repair gave up — **the solver is then infeasible for the new
    /// system and must be re-anchored again or discarded** (unlike
    /// [`RevisedSimplex::rebase`], a failed repair has already moved the
    /// basis).
    pub fn rebase_repair(
        &mut self,
        b_new: &[f64],
        upper: Option<&[f64]>,
        max_pivots: usize,
    ) -> Result<bool> {
        if self.rebase(b_new, upper)? {
            return Ok(true);
        }
        // Sign-pattern mismatch cannot be repaired: the stored columns
        // are row-flipped for the original signs.
        let Some(bf) = self.flipped_rhs(b_new, upper)? else {
            return Ok(false);
        };
        // Adopt the new right-hand side and bounds and the (infeasible)
        // basic solution they imply; the loop below repairs it in place.
        self.b = bf;
        if let Some(u) = upper {
            self.set_upper(u);
        }
        shifted_rhs(
            &self.at,
            &self.b,
            &self.upper,
            &self.at_upper,
            &mut self.rhs,
        );
        self.factor.ftran_into(&self.rhs, &mut self.w);
        self.xb.copy_from_slice(&self.w);

        let m = self.m;
        let n = self.n;
        for _ in 0..max_pivots {
            // Leaving row: the worst violation. Structural basics must
            // lie in [0, u]; artificial basics must stay at (numerical)
            // zero.
            let mut rout = usize::MAX;
            let mut worst = self.feas_tol;
            for i in 0..m {
                let v = self.xb[i];
                let j = self.basis[i];
                let viol = if j >= n {
                    v.abs()
                } else {
                    (-v).max(v - self.upper[j])
                };
                if viol > worst {
                    worst = viol;
                    rout = i;
                }
            }
            if rout == usize::MAX {
                // Feasible: clamp residue exactly like a refactor would.
                for i in 0..m {
                    let j = self.basis[i];
                    if j >= n || self.xb[i] < 0.0 {
                        self.xb[i] = 0.0;
                    } else if self.xb[i] > self.upper[j] {
                        self.xb[i] = self.upper[j];
                    }
                }
                return Ok(true);
            }
            // Row rout of B⁻¹: ρ = Bᵀ⁻¹·e_r.
            self.cb.fill(0.0);
            self.cb[rout] = 1.0;
            self.factor.btran_into(&self.cb, &mut self.y);
            // Entering column: a sign-compatible pivot α_rj = ρ·A_j with
            // the largest magnitude (no objective is active here — any
            // sign-correct pivot restores this row, so pick the most
            // stable one; ties break toward the lowest index). The row
            // must fall when its basic is too high: a column at zero
            // rises, so it needs α > 0; a column at its upper bound
            // falls, so it needs α < 0.
            let jr = self.basis[rout];
            let too_high = self.xb[rout] > 0.0;
            let mut jin = usize::MAX;
            let mut best_mag = self.tol;
            for j in 0..n {
                if self.in_basis[j] {
                    continue;
                }
                let (rows, vals) = self.at.row(j);
                let mut alpha = 0.0;
                for (k, &r) in rows.iter().enumerate() {
                    alpha += self.y[r] * vals[k];
                }
                let ok = if too_high != self.at_upper[j] {
                    alpha > 0.0
                } else {
                    alpha < 0.0
                };
                if ok && alpha.abs() > best_mag {
                    best_mag = alpha.abs();
                    jin = j;
                }
            }
            if jin == usize::MAX {
                return Ok(false);
            }
            // FTRAN image of the entering column; use its row-r entry as
            // the pivot (consistent with the factorization the eta
            // update extends).
            self.ftran_entering(jin);
            let pivot = self.w[rout];
            let from_upper = self.at_upper[jin];
            if pivot.abs() <= self.tol
                || (too_high != from_upper && pivot < 0.0)
                || (too_high == from_upper && pivot > 0.0)
            {
                return Ok(false);
            }
            // Move the entering column by `delta` so that the leaving
            // basic lands on the bound it violates.
            let target = if jr < n && too_high {
                self.upper[jr]
            } else {
                0.0
            };
            let delta = (self.xb[rout] - target) / pivot;
            for i in 0..m {
                if i != rout {
                    let v = self.xb[i] - delta * self.w[i];
                    self.xb[i] = if v < 0.0 && v > -self.tol { 0.0 } else { v };
                }
            }
            self.xb[rout] = if from_upper {
                self.upper[jin] + delta
            } else {
                delta
            };
            if jr < n {
                self.in_basis[jr] = false;
                self.at_upper[jr] = too_high;
            }
            self.basis[rout] = jin;
            self.in_basis[jin] = true;
            self.at_upper[jin] = false;
            let needs_refactor = self.factor.should_refactor(rout, &self.w)
                || self.updates_since_refactor >= DRIFT_REFACTOR_PIVOTS;
            if needs_refactor || self.factor.push_eta(rout, &self.w).is_err() {
                // Do NOT pin artificials mid-repair: like phase 1, any
                // artificial still basic here carries the genuine
                // remaining infeasibility the loop is eliminating —
                // pinning it would hide the violation and let the
                // repair succeed on an infeasible basis.
                self.refactor(false)?;
            } else {
                self.updates_since_refactor += 1;
            }
        }
        Ok(false)
    }

    /// Minimize `cᵀx` from the current feasible basis.
    pub fn minimize(&mut self, c: &[f64]) -> Result<LpSolution> {
        if c.len() != self.n {
            return Err(OptError::Invalid(format!(
                "revised simplex: objective has {} entries for {} variables",
                c.len(),
                self.n
            )));
        }
        let (objective, pivots) = self.optimize(&Phase::Two(c))?;
        let mut x = vec![0.0; self.n];
        for (j, &up) in self.at_upper.iter().enumerate() {
            if up {
                x[j] = self.upper[j];
            }
        }
        for (i, &j) in self.basis.iter().enumerate() {
            if j < self.n {
                x[j] = self.xb[i];
            }
        }
        Ok(LpSolution {
            x,
            objective,
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

    /// Primal simplex iterations for the given phase. Returns
    /// `(objective, pivots)`; bound flips are not pivots.
    fn optimize(&mut self, phase: &Phase) -> Result<(f64, usize)> {
        let m = self.m;
        let n = self.n;
        let budget = PIVOT_BUDGET_FACTOR * (m + n).max(16);
        let mut pivots = 0usize;
        let mut steps = 0usize;
        let mut degenerate_streak = 0usize;

        loop {
            // Dual prices y = Bᵀ⁻¹·c_B.
            for i in 0..m {
                self.cb[i] = phase.cost(self.basis[i], n);
            }
            self.factor.btran_into(&self.cb, &mut self.y);

            // Entering variable: Dantzig over a rotating partial-pricing
            // window; Bland's rule (first eligible by index) once a
            // degeneracy streak signals cycling risk.
            let use_bland = degenerate_streak > 2 * (m + 8);
            let enter = if use_bland {
                self.price_bland(phase)
            } else {
                self.price_partial(phase)
            };
            let Some(jin) = enter else {
                let mut obj = 0.0;
                for i in 0..m {
                    obj += phase.cost(self.basis[i], n) * self.xb[i];
                }
                for j in 0..n {
                    if self.at_upper[j] {
                        obj += phase.cost(j, n) * self.upper[j];
                    }
                }
                return Ok((obj, pivots));
            };

            // FTRAN image of the entering column (into `self.w`). A
            // column at its upper bound enters by decreasing.
            self.ftran_entering(jin);
            let from_upper = self.at_upper[jin];

            // Ratio test. In phase 2, zero-level artificials must never
            // rise again: any artificial row crossed by the entering
            // column leaves first, at step length zero.
            let mut leave: Option<usize> = None;
            if matches!(phase, Phase::Two(_)) {
                let mut best_mag = self.tol;
                for i in 0..m {
                    if self.basis[i] >= n && self.w[i].abs() > best_mag {
                        best_mag = self.w[i].abs();
                        leave = Some(i);
                    }
                }
            }
            let forced_artificial = leave.is_some();
            let mut best_ratio = f64::INFINITY;
            let mut leaves_at_upper = false;
            if !forced_artificial {
                for i in 0..m {
                    // Rate at which basic i falls per unit step.
                    let wi = if from_upper { -self.w[i] } else { self.w[i] };
                    let (ratio, to_upper) = if wi > self.tol {
                        (self.xb[i] / wi, false)
                    } else if wi < -self.tol {
                        let j = self.basis[i];
                        if j >= n || self.upper[j] == f64::INFINITY {
                            continue;
                        }
                        (((self.upper[j] - self.xb[i]) / -wi).max(0.0), true)
                    } else {
                        continue;
                    };
                    let better = ratio < best_ratio - self.tol
                        || (ratio < best_ratio + self.tol
                            && leave.is_some_and(|l| self.basis[i] < self.basis[l]));
                    if better {
                        best_ratio = ratio;
                        leave = Some(i);
                        leaves_at_upper = to_upper;
                    }
                }
            }

            // The entering column's own range ends the step first: flip
            // it to its other bound, with no basis change.
            let range = self.upper[jin];
            if !forced_artificial && range.is_finite() && range <= best_ratio {
                let step = if from_upper { -range } else { range };
                for i in 0..m {
                    let v = self.xb[i] - step * self.w[i];
                    self.xb[i] = if v < 0.0 && v > -self.tol { 0.0 } else { v };
                }
                self.at_upper[jin] = !from_upper;
                self.flips += 1;
                if range <= self.tol {
                    degenerate_streak += 1;
                } else {
                    degenerate_streak = 0;
                }
                steps += 1;
                if steps > budget {
                    return Err(OptError::DidNotConverge {
                        iterations: steps,
                        measure: degenerate_streak as f64,
                    });
                }
                continue;
            }

            let Some(rout) = leave else {
                return Err(OptError::Unbounded);
            };
            let theta = if forced_artificial { 0.0 } else { best_ratio };
            if theta <= self.tol {
                degenerate_streak += 1;
            } else {
                degenerate_streak = 0;
            }

            // Update the basic solution: x_B ← x_B − θ·w (signed by the
            // entering direction), entering = its value after the step.
            if theta != 0.0 {
                let step = if from_upper { -theta } else { theta };
                for i in 0..m {
                    if i != rout {
                        let v = self.xb[i] - step * self.w[i];
                        self.xb[i] = if v < 0.0 && v > -self.tol { 0.0 } else { v };
                    }
                }
            }
            self.xb[rout] = if from_upper {
                self.upper[jin] - theta
            } else {
                theta
            };
            let jout = self.basis[rout];
            if jout < n {
                self.in_basis[jout] = false;
                self.at_upper[jout] = leaves_at_upper;
            }
            self.basis[rout] = jin;
            self.in_basis[jin] = true;
            self.at_upper[jin] = false;

            // Factorization update: eta push, or refactor on a long
            // chain / unstable eta pivot / accumulated drift.
            let needs_refactor = self.factor.should_refactor(rout, &self.w)
                || self.updates_since_refactor >= DRIFT_REFACTOR_PIVOTS;
            if needs_refactor || self.factor.push_eta(rout, &self.w).is_err() {
                self.refactor(matches!(phase, Phase::Two(_)))?;
            } else {
                self.updates_since_refactor += 1;
            }

            pivots += 1;
            steps += 1;
            if steps > budget {
                return Err(OptError::DidNotConverge {
                    iterations: steps,
                    measure: degenerate_streak as f64,
                });
            }
        }
    }

    /// FTRAN of structural column `jin` into `self.w`.
    fn ftran_entering(&mut self, jin: usize) {
        self.col_buf.fill(0.0);
        let (rows, vals) = self.at.row(jin);
        for (k, &r) in rows.iter().enumerate() {
            self.col_buf[r] = vals[k];
        }
        let mut w = std::mem::take(&mut self.w);
        self.factor.ftran_into(&self.col_buf, &mut w);
        self.w = w;
    }

    /// Reduced cost of structural column `j` under the current prices,
    /// signed so that a negative value means the column improves the
    /// objective from the bound it sits at (a column at its upper bound
    /// improves by decreasing).
    #[inline]
    fn reduced_cost(&self, j: usize, phase: &Phase) -> f64 {
        let (rows, vals) = self.at.row(j);
        let mut d = phase.cost(j, self.n);
        for (k, &r) in rows.iter().enumerate() {
            d -= self.y[r] * vals[k];
        }
        if self.at_upper[j] {
            -d
        } else {
            d
        }
    }

    /// Dantzig pricing over a rotating window (partial pricing): scan
    /// blocks of columns starting at the cursor, return the most
    /// negative reduced cost of the first block containing one.
    /// Deterministic: the cursor state is part of the solver (and is
    /// cloned with it).
    fn price_partial(&mut self, phase: &Phase) -> Option<usize> {
        let n = self.n;
        let window = (n / 8).max(32).min(n);
        let mut scanned = 0usize;
        let mut start = self.cursor % n;
        while scanned < n {
            let len = window.min(n - scanned);
            let mut best: Option<(usize, f64)> = None;
            for off in 0..len {
                let j = (start + off) % n;
                if self.in_basis[j] {
                    continue;
                }
                let d = self.reduced_cost(j, phase);
                if d < -self.tol {
                    match best {
                        Some((_, bd)) if bd <= d => {}
                        _ => best = Some((j, d)),
                    }
                }
            }
            start = (start + len) % n;
            scanned += len;
            if let Some((j, _)) = best {
                self.cursor = start;
                return Some(j);
            }
        }
        self.cursor = start;
        None
    }

    /// Bland's rule: the lowest-index column with a negative reduced
    /// cost (anti-cycling fallback).
    fn price_bland(&mut self, phase: &Phase) -> Option<usize> {
        (0..self.n).find(|&j| !self.in_basis[j] && self.reduced_cost(j, phase) < -self.tol)
    }

    /// Rebuild the sparse LU from the current basis columns and restore
    /// `x_B = B⁻¹·(b − Σ uⱼ·Aⱼ)` from scratch (drift correction).
    /// `pin_artificials` must be true only once phase 1 is complete:
    /// basic artificials are then mathematically zero and get clamped
    /// there, while during phase 1 they carry the genuine (positive)
    /// infeasibility.
    fn refactor(&mut self, pin_artificials: bool) -> Result<()> {
        self.col_ptr.clear();
        self.col_ent.clear();
        self.col_ptr.push(0);
        for &j in &self.basis {
            if j < self.n {
                let (rows, vals) = self.at.row(j);
                self.col_ent
                    .extend(rows.iter().copied().zip(vals.iter().copied()));
            } else {
                self.col_ent.push((j - self.n, 1.0));
            }
            self.col_ptr.push(self.col_ent.len());
        }
        self.factor
            .refactor(&self.col_ptr, &self.col_ent, LU_TOL)
            .map_err(OptError::Linalg)?;
        self.updates_since_refactor = 0;
        self.refactors += 1;
        shifted_rhs(
            &self.at,
            &self.b,
            &self.upper,
            &self.at_upper,
            &mut self.rhs,
        );
        let mut xb = std::mem::take(&mut self.xb);
        self.factor.ftran_into(&self.rhs, &mut xb);
        for (i, v) in xb.iter_mut().enumerate() {
            // Tiny numerical negatives (and overshoots of an upper
            // bound) are clamped; artificials are pinned at zero only in
            // phase 2 (see the doc above).
            let j = self.basis[i];
            if (pin_artificials && j >= self.n) || (*v < 0.0 && *v > -self.feas_tol) {
                *v = 0.0;
            } else if j < self.n && *v > self.upper[j] && *v < self.upper[j] + self.feas_tol {
                *v = self.upper[j];
            }
        }
        self.xb = xb;
        Ok(())
    }
}

/// Check a bound vector: one entry per column, each `≥ 0` (`+∞` allowed).
fn check_upper(upper: &[f64], n: usize) -> Result<()> {
    if upper.len() != n {
        return Err(OptError::Invalid(format!(
            "revised simplex: {} upper bounds for {} variables",
            upper.len(),
            n
        )));
    }
    if let Some(j) = upper.iter().position(|u| !(*u >= 0.0)) {
        return Err(OptError::Invalid(format!(
            "revised simplex: upper bound {} of column {j} is not >= 0",
            upper[j]
        )));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simplex::{SimplexSolver, StandardLp};
    use tm_linalg::Mat;

    fn csr(rows: &[Vec<f64>]) -> Csr {
        Csr::from_dense(&Mat::from_rows(rows), 0.0)
    }

    fn feasible(a: &Csr, b: &[f64], x: &[f64], tol: f64) -> bool {
        if x.iter().any(|&v| v < -tol) {
            return false;
        }
        let ax = a.matvec(x);
        ax.iter()
            .zip(b)
            .all(|(&l, &r)| (l - r).abs() <= tol * (1.0 + r.abs()))
    }

    #[test]
    fn simple_bounded_lp() {
        let a = csr(&[vec![1.0, 1.0, 1.0]]);
        let b = vec![4.0];
        let mut s = RevisedSimplex::new_sparse(&a, &b, None).unwrap();
        let sol = s.maximize(&[1.0, 1.0, 0.0]).unwrap();
        assert!((sol.objective - 4.0).abs() < 1e-9);
        assert!(feasible(&a, &b, &sol.x, 1e-9));
    }

    #[test]
    fn textbook_two_constraint_lp() {
        // max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18 (slacks s1..s3).
        let a = csr(&[
            vec![1.0, 0.0, 1.0, 0.0, 0.0],
            vec![0.0, 2.0, 0.0, 1.0, 0.0],
            vec![3.0, 2.0, 0.0, 0.0, 1.0],
        ]);
        let b = vec![4.0, 12.0, 18.0];
        let mut s = RevisedSimplex::new_sparse(&a, &b, None).unwrap();
        let sol = s.maximize(&[3.0, 5.0, 0.0, 0.0, 0.0]).unwrap();
        assert!((sol.objective - 36.0).abs() < 1e-8, "obj {}", sol.objective);
        assert!((sol.x[0] - 2.0).abs() < 1e-8);
        assert!((sol.x[1] - 6.0).abs() < 1e-8);
    }

    #[test]
    fn detects_infeasible_and_unbounded() {
        let a = csr(&[vec![1.0, 1.0], vec![1.0, 1.0]]);
        assert!(matches!(
            RevisedSimplex::new_sparse(&a, &[1.0, 2.0], None),
            Err(OptError::Infeasible { .. })
        ));
        let a = csr(&[vec![1.0, -1.0]]);
        let mut s = RevisedSimplex::new_sparse(&a, &[0.0], None).unwrap();
        assert!(matches!(s.maximize(&[1.0, 0.0]), Err(OptError::Unbounded)));
    }

    #[test]
    fn negative_rhs_rows_are_flipped() {
        let a = csr(&[vec![-1.0, -1.0]]);
        let mut s = RevisedSimplex::new_sparse(&a, &[-4.0], None).unwrap();
        let sol = s.maximize(&[1.0, 0.0]).unwrap();
        assert!((sol.objective - 4.0).abs() < 1e-9);
    }

    #[test]
    fn redundant_rows_keep_artificials_pinned() {
        // Second row is twice the first: rank 1. One artificial stays
        // basic at zero; objectives must still be exact.
        let a = csr(&[vec![1.0, 1.0], vec![2.0, 2.0]]);
        let b = vec![3.0, 6.0];
        let mut s = RevisedSimplex::new_sparse(&a, &b, None).unwrap();
        let hi = s.maximize(&[1.0, 0.0]).unwrap();
        assert!((hi.objective - 3.0).abs() < 1e-9);
        let lo = s.minimize(&[1.0, 0.0]).unwrap();
        assert!(lo.objective.abs() < 1e-9);
        assert!(feasible(&a, &b, &hi.x, 1e-8));
    }

    #[test]
    fn warm_start_multiple_objectives_matches_tableau() {
        let rows = [
            vec![1.0, 1.0, 0.0, 0.0],
            vec![0.0, 0.0, 1.0, 1.0],
            vec![1.0, 0.0, 1.0, 0.0],
        ];
        let a = csr(&rows);
        let b = vec![5.0, 7.0, 6.0];
        let lp = StandardLp {
            a: Mat::from_rows(&rows),
            b: b.clone(),
        };
        let mut dense = SimplexSolver::new(&lp).unwrap();
        let mut revised = RevisedSimplex::new_sparse(&a, &b, None).unwrap();
        for p in 0..4 {
            let mut c = vec![0.0; 4];
            c[p] = 1.0;
            let hi_d = dense.maximize(&c).unwrap();
            let hi_r = revised.maximize(&c).unwrap();
            assert!(
                (hi_d.objective - hi_r.objective).abs() < 1e-9,
                "p={p} max: tableau {} vs revised {}",
                hi_d.objective,
                hi_r.objective
            );
            let lo_d = dense.minimize(&c).unwrap();
            let lo_r = revised.minimize(&c).unwrap();
            assert!(
                (lo_d.objective - lo_r.objective).abs() < 1e-9,
                "p={p} min: tableau {} vs revised {}",
                lo_d.objective,
                lo_r.objective
            );
            assert!(feasible(&a, &b, &hi_r.x, 1e-8));
            assert!(feasible(&a, &b, &lo_r.x, 1e-8));
        }
    }

    #[test]
    fn degenerate_lp_terminates() {
        let a = csr(&[
            vec![1.0, -1.0, 1.0, 0.0],
            vec![1.0, -1.0, 0.0, 1.0],
            vec![1.0, 1.0, 0.0, 0.0],
        ]);
        let b = vec![0.0, 0.0, 2.0];
        let mut s = RevisedSimplex::new_sparse(&a, &b, None).unwrap();
        let sol = s.maximize(&[1.0, 0.0, 0.0, 0.0]).unwrap();
        assert!(sol.objective <= 1.0 + 1e-8);
        assert!(feasible(&a, &b, &sol.x, 1e-8));
    }

    #[test]
    fn highly_degenerate_cycling_candidate_terminates() {
        // Beale's classic cycling example (degenerate at the origin):
        // min -0.75x1 + 150x2 - 0.02x3 + 6x4 with two zero-RHS rows and
        // one bounding row. Dantzig pricing cycles on this LP without an
        // anti-cycling rule; the Bland fallback must terminate at -0.05.
        let a = csr(&[
            vec![0.25, -60.0, -0.04, 9.0, 1.0, 0.0, 0.0],
            vec![0.5, -90.0, -0.02, 3.0, 0.0, 1.0, 0.0],
            vec![0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0],
        ]);
        let b = vec![0.0, 0.0, 1.0];
        let c = vec![-0.75, 150.0, -0.02, 6.0, 0.0, 0.0, 0.0];
        let mut s = RevisedSimplex::new_sparse(&a, &b, None).unwrap();
        let sol = s.minimize(&c).unwrap();
        assert!(
            (sol.objective + 0.05).abs() < 1e-9,
            "objective {}",
            sol.objective
        );
        assert!(feasible(&a, &b, &sol.x, 1e-8));
    }

    #[test]
    fn long_sweeps_refactor_and_stay_accurate() {
        // Alternate between many objectives so the eta chain repeatedly
        // hits the refactorization threshold; answers must stay exact.
        let rows = [
            vec![1.0, 1.0, 1.0, 0.0, 0.0, 0.0],
            vec![0.0, 0.0, 0.0, 1.0, 1.0, 1.0],
            vec![1.0, 0.0, 0.0, 1.0, 0.0, 0.0],
            vec![0.0, 1.0, 0.0, 0.0, 1.0, 0.0],
        ];
        let a = csr(&rows);
        let b = vec![6.0, 9.0, 5.0, 4.0];
        let lp = StandardLp {
            a: Mat::from_rows(&rows),
            b: b.clone(),
        };
        let mut dense = SimplexSolver::new(&lp).unwrap();
        let mut revised = RevisedSimplex::new_sparse(&a, &b, None).unwrap();
        for round in 0..20 {
            for p in 0..6 {
                let mut c = vec![0.0; 6];
                c[p] = 1.0;
                c[(p + round) % 6] += 0.5;
                let d = dense.maximize(&c).unwrap();
                let r = revised.maximize(&c).unwrap();
                assert!(
                    (d.objective - r.objective).abs() < 1e-9,
                    "round {round} p={p}: {} vs {}",
                    d.objective,
                    r.objective
                );
            }
        }
    }

    #[test]
    fn rebase_keeps_basis_across_rhs_changes() {
        let a = csr(&[
            vec![1.0, 1.0, 0.0, 0.0],
            vec![0.0, 0.0, 1.0, 1.0],
            vec![1.0, 0.0, 1.0, 0.0],
        ]);
        let b1 = vec![5.0, 7.0, 6.0];
        let mut s = RevisedSimplex::new_sparse(&a, &b1, None).unwrap();
        let _ = s.maximize(&[1.0, 0.0, 0.0, 0.0]).unwrap();
        // Nearby RHS: same basis stays feasible.
        let b2 = vec![5.5, 7.5, 6.2];
        if s.rebase(&b2, None).unwrap() {
            let sol = s.maximize(&[1.0, 0.0, 0.0, 0.0]).unwrap();
            let mut fresh = RevisedSimplex::new_sparse(&a, &b2, None).unwrap();
            let expect = fresh.maximize(&[1.0, 0.0, 0.0, 0.0]).unwrap();
            assert!(
                (sol.objective - expect.objective).abs() < 1e-9,
                "rebased {} vs fresh {}",
                sol.objective,
                expect.objective
            );
        } else {
            panic!("nearby RHS should keep the basis feasible");
        }
        // Wrong length is an error; sign flip is a clean rejection.
        assert!(s.rebase(&[1.0], None).is_err());
        assert!(!s.rebase(&[-1.0, 7.0, 6.0], None).unwrap());
    }

    #[test]
    fn rebase_repair_restores_feasibility_with_dual_pivots() {
        // Transportation-style LP where shifting the RHS makes the
        // optimal vertex of the old RHS infeasible: plain rebase must
        // fail, the repair pass must recover, and the repaired bounds
        // must equal a fresh cold start.
        let a = csr(&[
            vec![1.0, 1.0, 0.0, 0.0],
            vec![0.0, 0.0, 1.0, 1.0],
            vec![1.0, 0.0, 1.0, 0.0],
        ]);
        let b1 = vec![5.0, 7.0, 6.0];
        let mut s = RevisedSimplex::new_sparse(&a, &b1, None).unwrap();
        // Drive the basis to a vertex: maximize x0.
        let _ = s.maximize(&[1.0, 0.0, 0.0, 0.0]).unwrap();
        // A RHS the optimal vertex is infeasible for (x0 = 5 > b3').
        let b2 = vec![5.0, 7.0, 3.0];
        let mut plain = s.clone();
        if !plain.rebase(&b2, None).unwrap() {
            // The interesting path: repair must succeed where plain
            // rebase failed.
            assert!(s.rebase_repair(&b2, None, 64).unwrap(), "repair succeeds");
        } else {
            // Basis happened to survive; repair must agree.
            assert!(s.rebase_repair(&b2, None, 64).unwrap());
        }
        for p in 0..4 {
            let mut c = vec![0.0; 4];
            c[p] = 1.0;
            let warm_hi = s.maximize(&c).unwrap();
            let mut fresh = RevisedSimplex::new_sparse(&a, &b2, None).unwrap();
            let cold_hi = fresh.maximize(&c).unwrap();
            assert!(
                (warm_hi.objective - cold_hi.objective).abs() < 1e-9,
                "p={p}: repaired {} vs fresh {}",
                warm_hi.objective,
                cold_hi.objective
            );
            assert!(feasible(&a, &b2, &warm_hi.x, 1e-8));
        }
    }

    #[test]
    fn rebase_repair_sweep_matches_cold_on_many_rhs() {
        // A drifting RHS sequence: every step re-anchors the carried
        // basis (repairing when needed) and must reproduce the cold
        // objectives exactly.
        let a = csr(&[
            vec![1.0, 1.0, 0.0, 0.0, 1.0],
            vec![0.0, 1.0, 1.0, 1.0, 0.0],
            vec![1.0, 0.0, 1.0, 0.0, 0.0],
            vec![0.0, 0.0, 0.0, 1.0, 1.0],
        ]);
        let base_b = [6.0, 9.0, 5.0, 4.0];
        let mut s = RevisedSimplex::new_sparse(&a, &base_b, None).unwrap();
        let _ = s.maximize(&[1.0, 0.0, 0.0, 1.0, 0.0]).unwrap();
        for step in 1..12 {
            let drift = |i: usize| 1.0 + 0.35 * (((step * 7 + i * 3) % 11) as f64 / 11.0 - 0.5);
            let b: Vec<f64> = base_b
                .iter()
                .enumerate()
                .map(|(i, &v)| v * drift(i))
                .collect();
            let solver = if s.rebase_repair(&b, None, 128).unwrap() {
                &mut s
            } else {
                s = RevisedSimplex::new_sparse(&a, &b, None).unwrap();
                &mut s
            };
            for p in 0..5 {
                let mut c = vec![0.0; 5];
                c[p] = 1.0;
                let warm = solver.maximize(&c).unwrap();
                let mut fresh = RevisedSimplex::new_sparse(&a, &b, None).unwrap();
                let cold = fresh.maximize(&c).unwrap();
                assert!(
                    (warm.objective - cold.objective).abs() < 1e-8,
                    "step {step} p={p}: {} vs {}",
                    warm.objective,
                    cold.objective
                );
            }
        }
    }

    #[test]
    fn rebase_repair_rejects_sign_flips_and_bad_lengths() {
        let a = csr(&[vec![1.0, 1.0]]);
        let mut s = RevisedSimplex::new_sparse(&a, &[1.0], None).unwrap();
        assert!(s.rebase_repair(&[1.0, 2.0], None, 16).is_err());
        assert!(!s.rebase_repair(&[-1.0], None, 16).unwrap());
        // Same-sign rebase still works after the rejected attempts.
        assert!(s.rebase_repair(&[2.0], None, 16).unwrap());
        let sol = s.maximize(&[1.0, 0.0]).unwrap();
        assert!((sol.objective - 2.0).abs() < 1e-9);
    }

    #[test]
    fn rejects_bad_inputs() {
        let a = csr(&[vec![1.0, 1.0]]);
        assert!(RevisedSimplex::new_sparse(&a, &[1.0, 2.0], None).is_err());
        assert!(RevisedSimplex::new_sparse(&Csr::zeros(0, 2), &[], None).is_err());
        let mut s = RevisedSimplex::new_sparse(&a, &[1.0], None).unwrap();
        assert!(s.minimize(&[1.0]).is_err());
        assert_eq!(s.n_vars(), 2);
    }

    #[test]
    fn clone_is_an_independent_warm_start() {
        let a = csr(&[
            vec![1.0, 1.0, 0.0, 0.0],
            vec![0.0, 0.0, 1.0, 1.0],
            vec![1.0, 0.0, 1.0, 0.0],
        ]);
        let b = vec![5.0, 7.0, 6.0];
        let base = RevisedSimplex::new_sparse(&a, &b, None).unwrap();
        let mut fork1 = base.clone();
        let mut fork2 = base.clone();
        let s1 = fork1.maximize(&[1.0, 0.0, 0.0, 0.0]).unwrap();
        let _ = fork2.minimize(&[0.0, 1.0, 0.0, 0.0]).unwrap();
        let s1_again = fork2.maximize(&[1.0, 0.0, 0.0, 0.0]).unwrap();
        assert!((s1.objective - s1_again.objective).abs() < 1e-9);
    }

    #[test]
    fn upper_bounds_flip_instead_of_pivoting() {
        // max x0 + x1 s.t. x0 + x1 + s = 10, x0 ≤ 3, x1 ≤ 4: both
        // columns run into their own bounds, so the optimum (7) is
        // reached by bound flips alone, with the slack basic at 3.
        let a = csr(&[vec![1.0, 1.0, 1.0]]);
        let up = [3.0, 4.0, f64::INFINITY];
        let mut s = RevisedSimplex::new_sparse(&a, &[10.0], Some(&up)).unwrap();
        let sol = s.maximize(&[1.0, 1.0, 0.0]).unwrap();
        assert!((sol.objective - 7.0).abs() < 1e-12, "{}", sol.objective);
        assert_eq!(sol.x, vec![3.0, 4.0, 3.0]);
        assert_eq!(s.bound_flips(), 2);
        // Back down: the columns leave their upper bounds again.
        let lo = s.minimize(&[1.0, 1.0, 0.0]).unwrap();
        assert!(lo.objective.abs() < 1e-12);
        assert!(feasible(&a, &[10.0], &lo.x, 1e-12));
    }

    #[test]
    fn upper_bounds_can_make_a_system_infeasible() {
        let a = csr(&[vec![1.0, 1.0]]);
        assert!(RevisedSimplex::new_sparse(&a, &[10.0], None).is_ok());
        assert!(matches!(
            RevisedSimplex::new_sparse(&a, &[10.0], Some(&[3.0, 4.0])),
            Err(OptError::Infeasible { .. })
        ));
        // A bounded basic caps an otherwise unbounded ray.
        let a = csr(&[vec![1.0, -1.0]]);
        let mut s = RevisedSimplex::new_sparse(&a, &[0.0], Some(&[f64::INFINITY, 5.0])).unwrap();
        let sol = s.maximize(&[1.0, 0.0]).unwrap();
        assert!((sol.objective - 5.0).abs() < 1e-12);
    }

    #[test]
    fn bad_upper_bounds_are_rejected() {
        let a = csr(&[vec![1.0, 1.0]]);
        for up in [vec![1.0], vec![1.0, -1.0], vec![f64::NAN, 1.0]] {
            assert!(matches!(
                RevisedSimplex::new_sparse(&a, &[1.0], Some(&up)),
                Err(OptError::Invalid(_))
            ));
        }
        let mut s = RevisedSimplex::new_sparse(&a, &[1.0], Some(&[2.0, 2.0])).unwrap();
        assert!(s.rebase(&[1.0], Some(&[2.0])).is_err());
        assert!(s.rebase_repair(&[1.0], Some(&[-2.0, 2.0]), 8).is_err());
    }

    #[test]
    fn rebase_moves_bounds_and_repair_restores_them() {
        // The WCB band in miniature: A·s + v = t + σ with 0 ≤ v ≤ 2σ.
        // Moving to a narrower band changes the right-hand side and the
        // bounds; the repaired basis must give a fresh solve's optima.
        let a = csr(&[
            vec![1.0, 1.0, 0.0, 1.0, 0.0, 0.0],
            vec![0.0, 1.0, 1.0, 0.0, 1.0, 0.0],
            vec![1.0, 0.0, 1.0, 0.0, 0.0, 1.0],
        ]);
        let t = [4.0, 6.0, 5.0];
        let band = |sigma: f64| {
            let b: Vec<f64> = t.iter().map(|v| v + sigma).collect();
            let mut up = vec![f64::INFINITY; 3];
            up.extend([2.0 * sigma; 3]);
            (b, up)
        };
        let (b0, u0) = band(2.0);
        let mut s = RevisedSimplex::new_sparse(&a, &b0, Some(&u0)).unwrap();
        let _ = s.maximize(&[1.0, 0.0, 0.0, 0.0, 0.0, 0.0]).unwrap();
        for sigma in [1.0, 0.25, 3.0, 0.5] {
            let (b, up) = band(sigma);
            assert!(s.rebase_repair(&b, Some(&up), 64).unwrap(), "sigma {sigma}");
            for p in 0..3 {
                let mut c = vec![0.0; 6];
                c[p] = 1.0;
                let mut fresh = RevisedSimplex::new_sparse(&a, &b, Some(&up)).unwrap();
                for maximize in [true, false] {
                    let (w, f) = if maximize {
                        (s.maximize(&c).unwrap(), fresh.maximize(&c).unwrap())
                    } else {
                        (s.minimize(&c).unwrap(), fresh.minimize(&c).unwrap())
                    };
                    assert!(
                        (w.objective - f.objective).abs() < 1e-9,
                        "sigma {sigma} p={p} max={maximize}: {} vs {}",
                        w.objective,
                        f.objective
                    );
                    assert!(feasible(&a, &b, &w.x, 1e-9));
                    assert!(w.x.iter().zip(&up).all(|(x, u)| *x <= u + 1e-9));
                }
            }
        }
    }
}
