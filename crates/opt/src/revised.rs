//! Revised simplex over CSR constraint columns with a sparse LU basis.
//!
//! The full-tableau solver in [`crate::simplex`] carries a dense
//! `m × n` tableau `B⁻¹A` and pays `O(m·n)` per pivot even though the
//! routing constraint matrix is ~1% dense at backbone scale. The
//! revised method keeps only what an iteration actually needs:
//!
//! * the constraint matrix in CSR **and** CSC (its transpose) form,
//! * the current basis `B` as a [`tm_linalg::BasisLu`] — a sparse LU
//!   with partial pivoting, a Markowitz-style fill-reducing column
//!   order, and a product-form eta file for rank-one basis updates,
//! * the basic solution `x_B`, maintained incrementally.
//!
//! Per iteration: one BTRAN for the dual prices, a pricing pass over
//! CSC columns (Dantzig rule over a rotating partial-pricing window,
//! with Bland's rule as the anti-cycling fallback), one FTRAN of the
//! entering column, the ratio test on that FTRAN image, and an eta
//! update — `O(nnz)` instead of `O(m·n)`. The factorization is rebuilt
//! when the eta chain grows past its threshold, when an eta pivot is
//! unstable, or after `m` consecutive updates (drift guard); `x_B` is
//! recomputed from scratch at every refactorization.
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
/// matches the tableau solver.
const PIVOT_BUDGET_FACTOR: usize = 200;

/// Consecutive eta updates after which the basis is refactored even if
/// the eta chain is still short (numerical-drift guard on `x_B`).
const DRIFT_REFACTOR_PIVOTS: usize = 256;

/// Relative tolerance handed to the sparse LU factorization.
const LU_TOL: f64 = 1e-12;

/// Revised simplex solver holding a feasible basis for one constraint
/// system `A·x = b, x ≥ 0`.
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
    // ---- solve scratch (allocation-free steady state) ----
    /// The basis columns gathered for a refactorization, flat
    /// (`col_ent[col_ptr[i]..col_ptr[i + 1]]` is position `i`).
    col_ptr: Vec<usize>,
    col_ent: Vec<(usize, f64)>,
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

impl RevisedSimplex {
    /// Build a solver for `A·x = b, x ≥ 0` and run phase 1 (the
    /// sum-of-artificials program, on the revised engine). Fails with
    /// [`OptError::Infeasible`] when the system has no nonnegative
    /// solution.
    pub fn new_sparse(a: &Csr, b: &[f64]) -> Result<Self> {
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
        let a_max = a.data().iter().fold(0.0f64, |acc, &v| acc.max(v.abs()));
        let scale = a_max.max(vector::norm_inf(b)).max(1.0);
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
            b: bf,
            flip,
            m,
            n,
            basis,
            in_basis: vec![false; n],
            factor,
            tol,
            feas_tol: tol * (m as f64).sqrt().max(1.0) * 10.0,
            cursor: 0,
            updates_since_refactor: 0,
            refactors: 0,
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

    /// Re-anchor the solver on a new right-hand side with the **same**
    /// constraint matrix, keeping the current basis — the warm start
    /// used when a snapshot shard sweeps many measurement vectors over
    /// one routing pattern. Returns `Ok(false)` (solver unchanged
    /// semantically, `x_B` restored) when the basis is not feasible for
    /// `b_new` or the sign pattern differs; the caller should then fall
    /// back to a fresh phase 1.
    pub fn rebase(&mut self, b_new: &[f64]) -> Result<bool> {
        if b_new.len() != self.m {
            return Err(OptError::Invalid(format!(
                "rebase: b has {} entries for {} rows",
                b_new.len(),
                self.m
            )));
        }
        let mut bf = Vec::with_capacity(self.m);
        for (i, &v) in b_new.iter().enumerate() {
            let f = self.flip[i] * v;
            if f < 0.0 {
                return Ok(false);
            }
            bf.push(f);
        }
        self.factor.ftran_into(&bf, &mut self.w);
        // Feasible for the current basis? Artificial positions must stay
        // at (numerical) zero, structural ones nonnegative.
        for i in 0..self.m {
            let v = self.w[i];
            if v < -self.feas_tol || (self.basis[i] >= self.n && v.abs() > self.feas_tol) {
                return Ok(false);
            }
        }
        self.b = bf;
        for i in 0..self.m {
            self.xb[i] = if self.basis[i] >= self.n {
                0.0
            } else {
                self.w[i].max(0.0)
            };
        }
        Ok(true)
    }

    /// [`RevisedSimplex::rebase`] with a **dual-style repair pass**: when
    /// the carried basis is primal infeasible for `b_new`, run up to
    /// `max_pivots` dual-simplex-style pivots (leaving row = worst
    /// violation, entering column = the sign-compatible nonbasic column
    /// with the largest pivot magnitude, deterministic tie-break by
    /// index) to restore feasibility instead of immediately giving up.
    /// Between consecutive intervals of a slowly drifting load series
    /// the basis is usually a handful of pivots from feasibility, so
    /// this replaces a full fresh phase 1 with `O(few)` pivots.
    ///
    /// Returns `Ok(true)` when the basis was re-anchored (plain or
    /// repaired). Returns `Ok(false)` when the sign pattern differs or
    /// the repair gave up — **the solver state is then stale and must be
    /// discarded** (unlike [`RevisedSimplex::rebase`], a failed repair
    /// has already moved the basis).
    pub fn rebase_repair(&mut self, b_new: &[f64], max_pivots: usize) -> Result<bool> {
        if self.rebase(b_new)? {
            return Ok(true);
        }
        // Sign-pattern mismatch cannot be repaired: the stored columns
        // are row-flipped for the original signs.
        let mut bf = Vec::with_capacity(self.m);
        for (i, &v) in b_new.iter().enumerate() {
            let f = self.flip[i] * v;
            if f < 0.0 {
                return Ok(false);
            }
            bf.push(f);
        }
        // Adopt the new right-hand side and the (infeasible) basic
        // solution it implies; the loop below repairs it in place.
        self.factor.ftran_into(&bf, &mut self.w);
        self.b = bf;
        self.xb.copy_from_slice(&self.w);

        let m = self.m;
        let n = self.n;
        for _ in 0..max_pivots {
            // Leaving row: the worst violation. Structural basics must be
            // ≥ 0; artificial basics must stay at (numerical) zero.
            let mut rout = usize::MAX;
            let mut worst = self.feas_tol;
            for i in 0..m {
                let v = self.xb[i];
                let viol = if self.basis[i] >= n { v.abs() } else { -v };
                if viol > worst {
                    worst = viol;
                    rout = i;
                }
            }
            if rout == usize::MAX {
                // Feasible: clamp residue exactly like a refactor would.
                for i in 0..m {
                    if self.basis[i] >= n || self.xb[i] < 0.0 {
                        self.xb[i] = if self.basis[i] >= n {
                            0.0
                        } else {
                            self.xb[i].max(0.0)
                        };
                    }
                }
                return Ok(true);
            }
            // Row rout of B⁻¹: ρ = Bᵀ⁻¹·e_r.
            self.cb.fill(0.0);
            self.cb[rout] = 1.0;
            self.factor.btran_into(&self.cb, &mut self.y);
            // Entering column: sign-compatible pivot α_rj = ρ·A_j with
            // the largest magnitude (no objective is active here — any
            // sign-correct pivot restores this row, so pick the most
            // stable one; ties break toward the lowest index).
            let need_positive = self.basis[rout] >= n && self.xb[rout] > 0.0;
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
                let ok = if need_positive {
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
            if pivot.abs() <= self.tol
                || (need_positive && pivot < 0.0)
                || (!need_positive && pivot > 0.0)
            {
                return Ok(false);
            }
            let theta = self.xb[rout] / pivot;
            for i in 0..m {
                if i != rout {
                    let v = self.xb[i] - theta * self.w[i];
                    self.xb[i] = if v < 0.0 && v > -self.tol { 0.0 } else { v };
                }
            }
            self.xb[rout] = theta;
            let jout = self.basis[rout];
            if jout < n {
                self.in_basis[jout] = false;
            }
            self.basis[rout] = jin;
            self.in_basis[jin] = true;
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
    /// `(objective, pivots)`.
    fn optimize(&mut self, phase: &Phase) -> Result<(f64, usize)> {
        let m = self.m;
        let n = self.n;
        let budget = PIVOT_BUDGET_FACTOR * (m + n).max(16);
        let mut pivots = 0usize;
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
                return Ok((obj, pivots));
            };

            // FTRAN image of the entering column (into `self.w`).
            self.ftran_entering(jin);

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
            if leave.is_none() {
                let mut best_ratio = f64::INFINITY;
                for i in 0..m {
                    let wi = self.w[i];
                    if wi > self.tol {
                        let ratio = self.xb[i] / wi;
                        let better = ratio < best_ratio - self.tol
                            || (ratio < best_ratio + self.tol
                                && leave.is_some_and(|l| self.basis[i] < self.basis[l]));
                        if better {
                            best_ratio = ratio;
                            leave = Some(i);
                        }
                    }
                }
            }
            let Some(rout) = leave else {
                return Err(OptError::Unbounded);
            };
            let theta = if forced_artificial {
                0.0
            } else {
                self.xb[rout] / self.w[rout]
            };
            if theta <= self.tol {
                degenerate_streak += 1;
            } else {
                degenerate_streak = 0;
            }

            // Update the basic solution: x_B ← x_B − θ·w, entering = θ.
            if theta != 0.0 {
                for i in 0..m {
                    if i != rout {
                        let v = self.xb[i] - theta * self.w[i];
                        self.xb[i] = if v < 0.0 && v > -self.tol { 0.0 } else { v };
                    }
                }
            }
            self.xb[rout] = theta;
            let jout = self.basis[rout];
            if jout < n {
                self.in_basis[jout] = false;
            }
            self.basis[rout] = jin;
            self.in_basis[jin] = true;

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
            if pivots > budget {
                return Err(OptError::DidNotConverge {
                    iterations: pivots,
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

    /// Reduced cost of structural column `j` under the current prices.
    #[inline]
    fn reduced_cost(&self, j: usize, phase: &Phase) -> f64 {
        let (rows, vals) = self.at.row(j);
        let mut d = phase.cost(j, self.n);
        for (k, &r) in rows.iter().enumerate() {
            d -= self.y[r] * vals[k];
        }
        d
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
    /// `x_B = B⁻¹·b` from scratch (drift correction). `pin_artificials`
    /// must be true only once phase 1 is complete: basic artificials are
    /// then mathematically zero and get clamped there, while during
    /// phase 1 they carry the genuine (positive) infeasibility.
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
        let mut xb = std::mem::take(&mut self.xb);
        self.factor.ftran_into(&self.b, &mut xb);
        for (i, v) in xb.iter_mut().enumerate() {
            // Tiny numerical negatives are clamped; artificials are
            // pinned at zero only in phase 2 (see the doc above).
            if (pin_artificials && self.basis[i] >= self.n) || (*v < 0.0 && *v > -self.feas_tol) {
                *v = 0.0;
            }
        }
        self.xb = xb;
        Ok(())
    }
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
        let mut s = RevisedSimplex::new_sparse(&a, &b).unwrap();
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
        let mut s = RevisedSimplex::new_sparse(&a, &b).unwrap();
        let sol = s.maximize(&[3.0, 5.0, 0.0, 0.0, 0.0]).unwrap();
        assert!((sol.objective - 36.0).abs() < 1e-8, "obj {}", sol.objective);
        assert!((sol.x[0] - 2.0).abs() < 1e-8);
        assert!((sol.x[1] - 6.0).abs() < 1e-8);
    }

    #[test]
    fn detects_infeasible_and_unbounded() {
        let a = csr(&[vec![1.0, 1.0], vec![1.0, 1.0]]);
        assert!(matches!(
            RevisedSimplex::new_sparse(&a, &[1.0, 2.0]),
            Err(OptError::Infeasible { .. })
        ));
        let a = csr(&[vec![1.0, -1.0]]);
        let mut s = RevisedSimplex::new_sparse(&a, &[0.0]).unwrap();
        assert!(matches!(s.maximize(&[1.0, 0.0]), Err(OptError::Unbounded)));
    }

    #[test]
    fn negative_rhs_rows_are_flipped() {
        let a = csr(&[vec![-1.0, -1.0]]);
        let mut s = RevisedSimplex::new_sparse(&a, &[-4.0]).unwrap();
        let sol = s.maximize(&[1.0, 0.0]).unwrap();
        assert!((sol.objective - 4.0).abs() < 1e-9);
    }

    #[test]
    fn redundant_rows_keep_artificials_pinned() {
        // Second row is twice the first: rank 1. One artificial stays
        // basic at zero; objectives must still be exact.
        let a = csr(&[vec![1.0, 1.0], vec![2.0, 2.0]]);
        let b = vec![3.0, 6.0];
        let mut s = RevisedSimplex::new_sparse(&a, &b).unwrap();
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
        let mut revised = RevisedSimplex::new_sparse(&a, &b).unwrap();
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
        let mut s = RevisedSimplex::new_sparse(&a, &b).unwrap();
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
        let mut s = RevisedSimplex::new_sparse(&a, &b).unwrap();
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
        let mut revised = RevisedSimplex::new_sparse(&a, &b).unwrap();
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
        let mut s = RevisedSimplex::new_sparse(&a, &b1).unwrap();
        let _ = s.maximize(&[1.0, 0.0, 0.0, 0.0]).unwrap();
        // Nearby RHS: same basis stays feasible.
        let b2 = vec![5.5, 7.5, 6.2];
        if s.rebase(&b2).unwrap() {
            let sol = s.maximize(&[1.0, 0.0, 0.0, 0.0]).unwrap();
            let mut fresh = RevisedSimplex::new_sparse(&a, &b2).unwrap();
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
        assert!(s.rebase(&[1.0]).is_err());
        assert!(!s.rebase(&[-1.0, 7.0, 6.0]).unwrap());
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
        let mut s = RevisedSimplex::new_sparse(&a, &b1).unwrap();
        // Drive the basis to a vertex: maximize x0.
        let _ = s.maximize(&[1.0, 0.0, 0.0, 0.0]).unwrap();
        // A RHS the optimal vertex is infeasible for (x0 = 5 > b3').
        let b2 = vec![5.0, 7.0, 3.0];
        let mut plain = s.clone();
        if !plain.rebase(&b2).unwrap() {
            // The interesting path: repair must succeed where plain
            // rebase failed.
            assert!(s.rebase_repair(&b2, 64).unwrap(), "repair succeeds");
        } else {
            // Basis happened to survive; repair must agree.
            assert!(s.rebase_repair(&b2, 64).unwrap());
        }
        for p in 0..4 {
            let mut c = vec![0.0; 4];
            c[p] = 1.0;
            let warm_hi = s.maximize(&c).unwrap();
            let mut fresh = RevisedSimplex::new_sparse(&a, &b2).unwrap();
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
        let mut s = RevisedSimplex::new_sparse(&a, &base_b).unwrap();
        let _ = s.maximize(&[1.0, 0.0, 0.0, 1.0, 0.0]).unwrap();
        for step in 1..12 {
            let drift = |i: usize| 1.0 + 0.35 * (((step * 7 + i * 3) % 11) as f64 / 11.0 - 0.5);
            let b: Vec<f64> = base_b
                .iter()
                .enumerate()
                .map(|(i, &v)| v * drift(i))
                .collect();
            let solver = if s.rebase_repair(&b, 128).unwrap() {
                &mut s
            } else {
                s = RevisedSimplex::new_sparse(&a, &b).unwrap();
                &mut s
            };
            for p in 0..5 {
                let mut c = vec![0.0; 5];
                c[p] = 1.0;
                let warm = solver.maximize(&c).unwrap();
                let mut fresh = RevisedSimplex::new_sparse(&a, &b).unwrap();
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
        let mut s = RevisedSimplex::new_sparse(&a, &[1.0]).unwrap();
        assert!(s.rebase_repair(&[1.0, 2.0], 16).is_err());
        assert!(!s.rebase_repair(&[-1.0], 16).unwrap());
        // Same-sign rebase still works after the rejected attempts.
        assert!(s.rebase_repair(&[2.0], 16).unwrap());
        let sol = s.maximize(&[1.0, 0.0]).unwrap();
        assert!((sol.objective - 2.0).abs() < 1e-9);
    }

    #[test]
    fn rejects_bad_inputs() {
        let a = csr(&[vec![1.0, 1.0]]);
        assert!(RevisedSimplex::new_sparse(&a, &[1.0, 2.0]).is_err());
        assert!(RevisedSimplex::new_sparse(&Csr::zeros(0, 2), &[]).is_err());
        let mut s = RevisedSimplex::new_sparse(&a, &[1.0]).unwrap();
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
        let base = RevisedSimplex::new_sparse(&a, &b).unwrap();
        let mut fork1 = base.clone();
        let mut fork2 = base.clone();
        let s1 = fork1.maximize(&[1.0, 0.0, 0.0, 0.0]).unwrap();
        let _ = fork2.minimize(&[0.0, 1.0, 0.0, 0.0]).unwrap();
        let s1_again = fork2.maximize(&[1.0, 0.0, 0.0, 0.0]).unwrap();
        assert!((s1.objective - s1_again.objective).abs() < 1e-9);
    }
}
