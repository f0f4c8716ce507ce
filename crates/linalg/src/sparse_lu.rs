//! Sparse LU factorization of simplex bases, with eta-file updates.
//!
//! The revised simplex method (`tm_opt::revised`) never forms `B⁻¹` or a
//! dense tableau: every iteration needs just two triangular solves with
//! the `m × m` basis matrix `B` —
//!
//! * **FTRAN**: `B·x = a_q` (the entering column in basis coordinates,
//!   used by the ratio test), and
//! * **BTRAN**: `Bᵀ·y = c_B` (the dual prices, used to compute reduced
//!   costs against the CSR constraint columns).
//!
//! [`SparseLu`] factors `B` from its sparse columns by left-looking
//! column elimination with partial (row) pivoting. Columns are eliminated
//! in a Markowitz-style fill-reducing order: ascending nonzero count,
//! ties by position — the cheap static approximation of Markowitz's
//! dynamic minimum-degree rule, which is effective on routing bases
//! because their columns are short 0/1 paths.
//!
//! [`BasisLu`] wraps the factorization with a **product-form eta file**:
//! replacing the basic column at position `r` by a column whose FTRAN
//! image is `w` multiplies `B` by an elementary matrix `E` (identity
//! except column `r = w`), so `B⁻¹` gains one `E⁻¹` factor instead of
//! being refactored. FTRAN applies the etas oldest→newest after the LU
//! solve; BTRAN applies them newest→oldest (transposed) before it. The
//! caller refactors when the chain grows past a threshold or an eta
//! pivot looks unstable — see [`BasisLu::should_refactor`].
//!
//! [`SparseLu::factor`] eliminates **by reach**: a column is updated
//! only by the earlier steps whose pivot rows it (or an earlier update)
//! touches, popped from a min-heap in ascending step order. That is the
//! same sequence of updates, in the same order, as scanning every
//! earlier step — so the factors are the same bits — but a short routing
//! column costs its reach instead of `O(k)` per step.
//!
//! Storage is flat throughout: `L`, `U` and the eta file are each one
//! `ptr` array plus one entry array, and the elimination scratch lives
//! in the factorization, so [`BasisLu::refactor`] and
//! [`BasisLu::push_eta`] allocate nothing once the buffers have grown,
//! and a clone copies a handful of buffers. Solves walk only stored
//! nonzeros plus an `O(m)` dense load/store, so a solve costs
//! `O(nnz(L) + nnz(U) + nnz(etas) + m)`.
//!
//! Basis columns are passed in the same flat form: column `i` is
//! `ent[ptr[i]..ptr[i + 1]]`, pairs `(row, value)` with rows in `0..m`
//! (repeated rows are summed).

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::error::LinalgError;
use crate::Result;

/// Sparse LU factors of an `m × m` basis matrix `B`, `B = L·U` up to the
/// row/column permutations recorded in `pivot_row` / `col_pos`.
#[derive(Debug, Clone, Default)]
pub struct SparseLu {
    m: usize,
    /// Sub-diagonal multipliers of `L` for step `k`:
    /// `l_ent[l_ptr[k]..l_ptr[k + 1]]`, keyed by **original row** (unit
    /// diagonal implicit).
    l_ptr: Vec<usize>,
    l_ent: Vec<(usize, f64)>,
    /// Super-diagonal entries of `U` for step `k`:
    /// `u_ent[u_ptr[k]..u_ptr[k + 1]]`, keyed by **earlier step** `s < k`
    /// (value `u_{s,k}`).
    u_ptr: Vec<usize>,
    u_ent: Vec<(usize, f64)>,
    /// Diagonal of `U` per step.
    u_diag: Vec<f64>,
    /// `pivot_row[k]` = original row chosen as pivot at step `k`.
    pivot_row: Vec<usize>,
    /// `col_pos[k]` = basis position (column of `B`) eliminated at `k`.
    col_pos: Vec<usize>,
    /// Elimination scratch, kept so a refactorization allocates nothing.
    work: FactorWork,
}

/// Scratch of one elimination, reused across refactorizations.
#[derive(Debug, Clone, Default)]
struct FactorWork {
    /// Column elimination order.
    order: Vec<usize>,
    /// `row_step[r]` = step at which row `r` became pivotal.
    row_step: Vec<usize>,
    /// Dense accumulator of the current column.
    acc: Vec<f64>,
    /// `mark[r] == k` while row `r` is in column `k`'s pattern.
    mark: Vec<usize>,
    /// Rows of the current column's pattern, in first-touch order.
    touched: Vec<usize>,
    /// Earlier steps the current column reaches, smallest first.
    reach: BinaryHeap<Reverse<usize>>,
}

impl SparseLu {
    /// Factor the basis whose column at position `i` is
    /// `ent[ptr[i]..ptr[i + 1]]` (see the [module docs](self)).
    ///
    /// Fails with [`LinalgError::Singular`] when no pivot above
    /// `tol · max|B|` exists at some step.
    pub fn factor(m: usize, ptr: &[usize], ent: &[(usize, f64)], tol: f64) -> Result<Self> {
        let mut lu = SparseLu::default();
        lu.refactor(m, ptr, ent, tol)?;
        Ok(lu)
    }

    /// [`SparseLu::factor`] into this factorization's buffers. On an
    /// error the factors are unusable until the next successful call.
    pub(crate) fn refactor(
        &mut self,
        m: usize,
        ptr: &[usize],
        ent: &[(usize, f64)],
        tol: f64,
    ) -> Result<()> {
        if ptr.len() != m + 1 || ptr[m] > ent.len() || ptr.windows(2).any(|w| w[0] > w[1]) {
            return Err(LinalgError::ShapeMismatch {
                context: format!(
                    "sparse LU: column pointers of length {} for dimension {m}",
                    ptr.len()
                ),
            });
        }
        let col = |i: usize| &ent[ptr[i]..ptr[i + 1]];
        let mut scale = 0.0f64;
        for &(_, v) in &ent[ptr[0]..ptr[m]] {
            scale = scale.max(v.abs());
        }
        let threshold = tol * scale.max(1.0);

        let SparseLu {
            m: dim,
            l_ptr,
            l_ent,
            u_ptr,
            u_ent,
            u_diag,
            pivot_row,
            col_pos,
            work,
        } = self;
        let FactorWork {
            order,
            row_step,
            acc,
            mark,
            touched,
            reach,
        } = work;
        *dim = m;
        l_ptr.clear();
        l_ptr.push(0);
        l_ent.clear();
        u_ptr.clear();
        u_ptr.push(0);
        u_ent.clear();
        u_diag.clear();
        pivot_row.clear();
        col_pos.clear();
        // Markowitz-style static fill-reducing order: shortest columns
        // first, ties by position (keys are unique, so the unstable sort
        // is deterministic).
        order.clear();
        order.extend(0..m);
        order.sort_unstable_by_key(|&i| (ptr[i + 1] - ptr[i], i));
        row_step.clear();
        row_step.resize(m, usize::MAX);
        mark.clear();
        mark.resize(m, usize::MAX);
        acc.resize(m, 0.0);

        for (k, &pos) in order.iter().enumerate() {
            // Scatter column `pos` of B; every pivotal row it touches
            // puts its step on the reach heap.
            touched.clear();
            reach.clear();
            for &(r, v) in col(pos) {
                if r >= m {
                    return Err(LinalgError::ShapeMismatch {
                        context: format!("sparse LU: row {r} out of bounds for dimension {m}"),
                    });
                }
                if mark[r] != k {
                    mark[r] = k;
                    acc[r] = 0.0;
                    touched.push(r);
                    if row_step[r] != usize::MAX {
                        reach.push(Reverse(row_step[r]));
                    }
                }
                acc[r] += v;
            }
            // Left-looking elimination over the reach, in step order.
            // Step `t`'s multipliers sit on rows that become pivotal
            // only after `t`, so every push is later than the pop and
            // the heap yields steps in ascending order.
            while let Some(Reverse(t)) = reach.pop() {
                let xp = acc[pivot_row[t]];
                if xp == 0.0 {
                    continue;
                }
                for &(r, lv) in &l_ent[l_ptr[t]..l_ptr[t + 1]] {
                    if mark[r] != k {
                        mark[r] = k;
                        acc[r] = 0.0;
                        touched.push(r);
                        if row_step[r] != usize::MAX {
                            reach.push(Reverse(row_step[r]));
                        }
                    }
                    acc[r] -= lv * xp;
                }
            }
            // Split into U entries (rows already pivotal) and pivot
            // candidates (rows not yet pivotal).
            let mut best: Option<(usize, f64)> = None;
            for &r in touched.iter() {
                let v = acc[r];
                if row_step[r] != usize::MAX {
                    if v != 0.0 {
                        u_ent.push((row_step[r], v));
                    }
                } else {
                    let mag = v.abs();
                    let better = match best {
                        Some((br, bm)) => mag > bm || (mag == bm && r < br),
                        None => true,
                    };
                    if better && mag > threshold {
                        best = Some((r, mag));
                    }
                }
            }
            let Some((prow, _)) = best else {
                return Err(LinalgError::Singular { pivot: k });
            };
            let diag = acc[prow];
            for &r in touched.iter() {
                if r != prow && row_step[r] == usize::MAX && acc[r] != 0.0 {
                    l_ent.push((r, acc[r] / diag));
                }
            }
            row_step[prow] = k;
            pivot_row.push(prow);
            col_pos.push(pos);
            u_diag.push(diag);
            u_ptr.push(u_ent.len());
            l_ptr.push(l_ent.len());
        }
        Ok(())
    }

    /// Basis dimension `m`.
    #[inline]
    pub fn dim(&self) -> usize {
        self.m
    }

    /// Stored nonzeros in `L` and `U` (fill diagnostic).
    pub fn nnz(&self) -> usize {
        self.l_ent.len() + self.u_ent.len() + self.m
    }

    /// `L` multipliers of step `k`.
    #[inline]
    fn l_col(&self, k: usize) -> &[(usize, f64)] {
        &self.l_ent[self.l_ptr[k]..self.l_ptr[k + 1]]
    }

    /// `U` entries of step `k`.
    #[inline]
    fn u_col(&self, k: usize) -> &[(usize, f64)] {
        &self.u_ent[self.u_ptr[k]..self.u_ptr[k + 1]]
    }

    /// FTRAN without etas: solve `B·x = b`. `b` is indexed by original
    /// row, `x` by basis position. `row_scratch` and `step_scratch` must
    /// have length `m`.
    fn solve_into(
        &self,
        rhs_by_row: &[f64],
        x_by_pos: &mut [f64],
        row_scratch: &mut [f64],
        step_scratch: &mut [f64],
    ) {
        let m = self.m;
        row_scratch[..m].copy_from_slice(rhs_by_row);
        // L̃·z = b, forward in elimination order.
        for k in 0..m {
            let z = row_scratch[self.pivot_row[k]];
            step_scratch[k] = z;
            if z != 0.0 {
                for &(r, lv) in self.l_col(k) {
                    row_scratch[r] -= lv * z;
                }
            }
        }
        // Ũ·x = z, backward.
        for k in (0..m).rev() {
            let xk = step_scratch[k] / self.u_diag[k];
            x_by_pos[self.col_pos[k]] = xk;
            if xk != 0.0 {
                for &(s, uv) in self.u_col(k) {
                    step_scratch[s] -= uv * xk;
                }
            }
        }
    }

    /// BTRAN without etas: solve `Bᵀ·y = c`. `c` is indexed by basis
    /// position, `y` by original row. `step_scratch` must have length `m`.
    fn solve_transposed_into(
        &self,
        c_by_pos: &[f64],
        y_by_row: &mut [f64],
        step_scratch: &mut [f64],
    ) {
        let m = self.m;
        // Ũᵀ·g = c, forward in elimination order.
        for k in 0..m {
            let mut g = c_by_pos[self.col_pos[k]];
            for &(s, uv) in self.u_col(k) {
                g -= uv * step_scratch[s];
            }
            step_scratch[k] = g / self.u_diag[k];
        }
        // L̃ᵀ·y = g, backward (rows in step `k`'s multipliers become
        // pivotal at steps > k, so their `y` entries are already final).
        for k in (0..m).rev() {
            let mut acc = step_scratch[k];
            for &(r, lv) in self.l_col(k) {
                acc -= lv * y_by_row[r];
            }
            y_by_row[self.pivot_row[k]] = acc;
        }
    }
}

/// The product-form eta file. Update `e` is `B_new = B_old·E` with
/// `E = I` except column `pos[e]`, which is `w = B_old⁻¹·a_entering`:
/// its pivot `w[pos[e]]` is `diag[e]` and its off-pivot entries
/// (basis-position indexed) are `ent[ptr[e]..ptr[e + 1]]`.
#[derive(Debug, Clone)]
struct EtaFile {
    pos: Vec<usize>,
    diag: Vec<f64>,
    ptr: Vec<usize>,
    ent: Vec<(usize, f64)>,
}

impl EtaFile {
    fn new() -> Self {
        EtaFile {
            pos: Vec::new(),
            diag: Vec::new(),
            ptr: vec![0],
            ent: Vec::new(),
        }
    }

    #[inline]
    fn len(&self) -> usize {
        self.pos.len()
    }

    fn clear(&mut self) {
        self.pos.clear();
        self.diag.clear();
        self.ptr.truncate(1);
        self.ent.clear();
    }

    /// Off-pivot entries of update `e`.
    #[inline]
    fn col(&self, e: usize) -> &[(usize, f64)] {
        &self.ent[self.ptr[e]..self.ptr[e + 1]]
    }
}

/// A factored simplex basis: [`SparseLu`] plus the eta file accumulated
/// since the last refactorization, with owned solve scratch so steady
/// state FTRAN/BTRAN allocate nothing.
#[derive(Debug, Clone)]
pub struct BasisLu {
    lu: SparseLu,
    etas: EtaFile,
    /// Eta-chain length that triggers refactorization.
    max_etas: usize,
    row_scratch: Vec<f64>,
    step_scratch: Vec<f64>,
    pos_scratch: Vec<f64>,
}

/// Relative eta-pivot magnitude below which the update is considered
/// unstable and a refactorization is requested instead.
const ETA_STABILITY: f64 = 1e-8;

impl BasisLu {
    /// Factor a basis from its flat sparse columns (see
    /// [`SparseLu::factor`]). The eta chain starts empty; it refactors
    /// after `max(16, m/4)` updates by default.
    pub fn factor(m: usize, ptr: &[usize], ent: &[(usize, f64)], tol: f64) -> Result<Self> {
        let lu = SparseLu::factor(m, ptr, ent, tol)?;
        Ok(BasisLu {
            lu,
            etas: EtaFile::new(),
            max_etas: (m / 4).max(16),
            row_scratch: vec![0.0; m],
            step_scratch: vec![0.0; m],
            pos_scratch: vec![0.0; m],
        })
    }

    /// Refactor the same-dimension basis from new columns, reusing every
    /// buffer, and empty the eta file. On an error the basis is unusable
    /// until the next successful refactorization.
    pub fn refactor(&mut self, ptr: &[usize], ent: &[(usize, f64)], tol: f64) -> Result<()> {
        self.etas.clear();
        self.lu.refactor(self.dim(), ptr, ent, tol)
    }

    /// Basis dimension `m`.
    #[inline]
    pub fn dim(&self) -> usize {
        self.lu.dim()
    }

    /// Updates applied since the last refactorization.
    #[inline]
    pub fn eta_len(&self) -> usize {
        self.etas.len()
    }

    /// Stored nonzeros across `L`, `U` and the eta file.
    pub fn nnz(&self) -> usize {
        self.lu.nnz() + self.etas.ent.len() + self.etas.len()
    }

    /// FTRAN: solve `B·x = b` through the LU factors and the eta file.
    /// `b` is indexed by original row, `x` by basis position.
    pub fn ftran_into(&mut self, rhs_by_row: &[f64], x_by_pos: &mut [f64]) {
        self.lu.solve_into(
            rhs_by_row,
            x_by_pos,
            &mut self.row_scratch,
            &mut self.step_scratch,
        );
        // Oldest → newest: B_k⁻¹ = E_k⁻¹·…·E_1⁻¹·B_0⁻¹.
        for e in 0..self.etas.len() {
            let pos = self.etas.pos[e];
            let xr = x_by_pos[pos] / self.etas.diag[e];
            if xr != 0.0 {
                for &(i, v) in self.etas.col(e) {
                    x_by_pos[i] -= v * xr;
                }
            }
            x_by_pos[pos] = xr;
        }
    }

    /// BTRAN: solve `Bᵀ·y = c` through the eta file and the LU factors.
    /// `c` is indexed by basis position, `y` by original row.
    pub fn btran_into(&mut self, c_by_pos: &[f64], y_by_row: &mut [f64]) {
        self.pos_scratch.copy_from_slice(c_by_pos);
        // Newest → oldest, transposed: B_kᵀ⁻¹ = B_0ᵀ⁻¹·E_1ᵀ⁻¹·…·E_kᵀ⁻¹.
        for e in (0..self.etas.len()).rev() {
            let pos = self.etas.pos[e];
            let mut s = self.pos_scratch[pos];
            for &(i, v) in self.etas.col(e) {
                s -= v * self.pos_scratch[i];
            }
            self.pos_scratch[pos] = s / self.etas.diag[e];
        }
        self.lu
            .solve_transposed_into(&self.pos_scratch, y_by_row, &mut self.step_scratch);
    }

    /// Record the basis change "position `pos` now holds the column whose
    /// FTRAN image is `w`" as an eta factor. Fails when the eta pivot
    /// `w[pos]` is (numerically) zero — the caller should refactor.
    pub fn push_eta(&mut self, pos: usize, w_by_pos: &[f64]) -> Result<()> {
        let diag = w_by_pos[pos];
        if diag == 0.0 {
            return Err(LinalgError::Singular { pivot: pos });
        }
        let etas = &mut self.etas;
        etas.ent.extend(
            w_by_pos
                .iter()
                .enumerate()
                .filter(|&(i, &v)| i != pos && v != 0.0)
                .map(|(i, &v)| (i, v)),
        );
        etas.ptr.push(etas.ent.len());
        etas.pos.push(pos);
        etas.diag.push(diag);
        Ok(())
    }

    /// True when the caller should refactor instead of (or after)
    /// pushing another eta: the chain is long, or the prospective eta
    /// pivot `w[pos]` is small relative to the largest entry of `w`
    /// (numerical-drift guard).
    pub fn should_refactor(&self, pos: usize, w_by_pos: &[f64]) -> bool {
        if self.etas.len() >= self.max_etas {
            return true;
        }
        let wmax = w_by_pos.iter().fold(0.0f64, |a, &v| a.max(v.abs()));
        w_by_pos[pos].abs() < ETA_STABILITY * wmax
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decomp::Lu;
    use crate::dense::Mat;

    /// Deterministic pseudo-random sparse columns of a nonsingular
    /// matrix: a permuted diagonal plus a few off-diagonal entries.
    fn random_basis(m: usize, seed: u64) -> Vec<Vec<(usize, f64)>> {
        let mut state = seed | 1;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as f64 / (u32::MAX as f64)
        };
        let mut cols = Vec::with_capacity(m);
        for j in 0..m {
            let mut col = vec![((j * 7 + 3) % m, 1.0 + next())];
            let extras = (next() * 3.0) as usize;
            for _ in 0..extras {
                let r = (next() * m as f64) as usize % m;
                col.push((r, next() - 0.5));
            }
            cols.push(col);
        }
        cols
    }

    /// Routing-like basis columns: a permuted diagonal entry plus up to
    /// five 0/1 path entries on random rows, dense enough that columns
    /// reach through chains of earlier elimination steps.
    fn path_basis(m: usize, seed: u64) -> Vec<Vec<(usize, f64)>> {
        let mut state = seed | 1;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as f64 / (u32::MAX as f64)
        };
        (0..m)
            .map(|j| {
                let mut col = vec![((j * 7 + 3) % m, 1.5 + next())];
                for _ in 0..(next() * 6.0) as usize {
                    col.push(((next() * m as f64) as usize % m, 1.0));
                }
                col
            })
            .collect()
    }

    /// Flat `(ptr, ent)` form of nested columns.
    fn flat(cols: &[Vec<(usize, f64)>]) -> (Vec<usize>, Vec<(usize, f64)>) {
        let mut ptr = vec![0];
        let mut ent = Vec::new();
        for col in cols {
            ent.extend_from_slice(col);
            ptr.push(ent.len());
        }
        (ptr, ent)
    }

    fn factor(m: usize, cols: &[Vec<(usize, f64)>]) -> Result<BasisLu> {
        let (ptr, ent) = flat(cols);
        BasisLu::factor(m, &ptr, &ent, 1e-12)
    }

    fn to_dense(m: usize, cols: &[Vec<(usize, f64)>]) -> Mat {
        let mut b = Mat::zeros(m, m);
        for (j, col) in cols.iter().enumerate() {
            for &(r, v) in col {
                b.set(r, j, b.get(r, j) + v);
            }
        }
        b
    }

    #[test]
    fn ftran_btran_match_dense_lu() {
        for seed in [3u64, 17, 99] {
            let m = 23;
            let cols = random_basis(m, seed);
            let bd = to_dense(m, &cols);
            let dense = Lu::factor(&bd).unwrap();
            let mut basis = factor(m, &cols).unwrap();

            let rhs: Vec<f64> = (0..m).map(|i| (i as f64 * 0.37).sin()).collect();
            let mut x = vec![0.0; m];
            basis.ftran_into(&rhs, &mut x);
            let xd = dense.solve(&rhs).unwrap();
            for i in 0..m {
                assert!((x[i] - xd[i]).abs() < 1e-9, "seed {seed} ftran[{i}]");
            }

            let mut y = vec![0.0; m];
            basis.btran_into(&rhs, &mut y);
            // Bᵀ y = c  ⇔  y solves the transposed dense system.
            let bt = bd.transpose();
            let yd = Lu::factor(&bt).unwrap().solve(&rhs).unwrap();
            for i in 0..m {
                assert!((y[i] - yd[i]).abs() < 1e-9, "seed {seed} btran[{i}]");
            }
        }
    }

    #[test]
    fn eta_update_matches_refactorization() {
        let m = 17;
        let mut cols = random_basis(m, 41);
        let mut basis = factor(m, &cols).unwrap();

        // Replace three columns through the eta file.
        for (step, &pos) in [2usize, 9, 13].iter().enumerate() {
            // Scaled old column plus a perturbation: its FTRAN image is
            // `scale·e_pos + 0.3·B⁻¹e_r`, so the eta pivot stays far
            // from zero and the update is well defined.
            let mut newcol = cols[pos].clone();
            for e in &mut newcol {
                e.1 *= 2.0 + step as f64;
            }
            newcol.push(((pos + 5) % m, 0.3));
            // FTRAN image of the entering column.
            let mut rhs = vec![0.0; m];
            for &(r, v) in &newcol {
                rhs[r] += v;
            }
            let mut w = vec![0.0; m];
            basis.ftran_into(&rhs, &mut w);
            basis.push_eta(pos, &w).unwrap();
            cols[pos] = newcol;
        }
        assert_eq!(basis.eta_len(), 3);

        let mut fresh = factor(m, &cols).unwrap();
        let rhs: Vec<f64> = (0..m).map(|i| 1.0 + (i % 5) as f64).collect();
        let (mut x1, mut x2) = (vec![0.0; m], vec![0.0; m]);
        basis.ftran_into(&rhs, &mut x1);
        fresh.ftran_into(&rhs, &mut x2);
        for i in 0..m {
            assert!(
                (x1[i] - x2[i]).abs() < 1e-9,
                "ftran[{i}] {} vs {}",
                x1[i],
                x2[i]
            );
        }
        let (mut y1, mut y2) = (vec![0.0; m], vec![0.0; m]);
        basis.btran_into(&rhs, &mut y1);
        fresh.btran_into(&rhs, &mut y2);
        for i in 0..m {
            assert!(
                (y1[i] - y2[i]).abs() < 1e-9,
                "btran[{i}] {} vs {}",
                y1[i],
                y2[i]
            );
        }
    }

    #[test]
    fn identity_basis_is_trivial() {
        let m = 6;
        let cols: Vec<Vec<(usize, f64)>> = (0..m).map(|i| vec![(i, 1.0)]).collect();
        let mut basis = factor(m, &cols).unwrap();
        let rhs = vec![3.0, -1.0, 0.0, 2.0, 5.0, -4.0];
        let mut x = vec![0.0; m];
        basis.ftran_into(&rhs, &mut x);
        assert_eq!(x, rhs);
        let mut y = vec![0.0; m];
        basis.btran_into(&rhs, &mut y);
        assert_eq!(y, rhs);
        assert_eq!(basis.nnz(), m);
    }

    #[test]
    fn detects_singular_basis() {
        // Two identical columns.
        let cols = vec![vec![(0, 1.0), (1, 2.0)], vec![(0, 1.0), (1, 2.0)]];
        assert!(matches!(
            factor(2, &cols),
            Err(LinalgError::Singular { .. })
        ));
    }

    #[test]
    fn rejects_bad_shapes() {
        assert!(factor(3, &[vec![(0, 1.0)]]).is_err());
        let cols = vec![vec![(5, 1.0)], vec![(1, 1.0)]];
        assert!(factor(2, &cols).is_err());
        // Column pointers must be monotone and inside the entries.
        assert!(SparseLu::factor(2, &[0, 2, 1], &[(0, 1.0), (1, 1.0)], 1e-12).is_err());
        assert!(SparseLu::factor(2, &[0, 1, 3], &[(0, 1.0), (1, 1.0)], 1e-12).is_err());
    }

    #[test]
    fn long_eta_chain_requests_refactor() {
        let m = 8;
        let cols: Vec<Vec<(usize, f64)>> = (0..m).map(|i| vec![(i, 1.0)]).collect();
        let mut basis = factor(m, &cols).unwrap();
        let w: Vec<f64> = (0..m).map(|i| 1.0 + i as f64 * 0.1).collect();
        for _ in 0..16 {
            basis.push_eta(0, &w).unwrap();
        }
        assert!(basis.should_refactor(0, &w));
        // Tiny pivot relative to the column also requests a refactor.
        let mut fresh = factor(m, &cols).unwrap();
        let mut bad = vec![1.0; m];
        bad[3] = 1e-12;
        assert!(fresh.should_refactor(3, &bad));
        bad[3] = 0.0;
        assert!(fresh.push_eta(3, &bad).is_err());
    }

    /// The `O(k)`-scan elimination with nested storage that the reach
    /// kernel replaced, kept as the bit-for-bit reference: every earlier
    /// step is visited for every column, and `L`, `U` and each eta are
    /// their own `Vec`s.
    mod reference {
        pub struct Lu {
            pub m: usize,
            pub l_cols: Vec<Vec<(usize, f64)>>,
            pub u_cols: Vec<Vec<(usize, f64)>>,
            pub u_diag: Vec<f64>,
            pub pivot_row: Vec<usize>,
            pub col_pos: Vec<usize>,
        }

        impl Lu {
            pub fn factor(m: usize, cols: &[Vec<(usize, f64)>], tol: f64) -> Lu {
                let scale = cols
                    .iter()
                    .flatten()
                    .fold(0.0f64, |a, &(_, v)| a.max(v.abs()));
                let threshold = tol * scale.max(1.0);
                let mut order: Vec<usize> = (0..m).collect();
                order.sort_by_key(|&i| (cols[i].len(), i));
                let mut lu = Lu {
                    m,
                    l_cols: Vec::new(),
                    u_cols: Vec::new(),
                    u_diag: Vec::new(),
                    pivot_row: Vec::new(),
                    col_pos: Vec::new(),
                };
                let mut row_step = vec![usize::MAX; m];
                let mut acc = vec![0.0f64; m];
                let mut mark = vec![usize::MAX; m];
                let mut touched: Vec<usize> = Vec::new();
                for (k, &pos) in order.iter().enumerate() {
                    touched.clear();
                    for &(r, v) in &cols[pos] {
                        if mark[r] != k {
                            mark[r] = k;
                            acc[r] = 0.0;
                            touched.push(r);
                        }
                        acc[r] += v;
                    }
                    for t in 0..k {
                        let p = lu.pivot_row[t];
                        if mark[p] != k {
                            continue;
                        }
                        let xp = acc[p];
                        if xp == 0.0 {
                            continue;
                        }
                        for &(r, lv) in &lu.l_cols[t] {
                            if mark[r] != k {
                                mark[r] = k;
                                acc[r] = 0.0;
                                touched.push(r);
                            }
                            acc[r] -= lv * xp;
                        }
                    }
                    let mut u_col = Vec::new();
                    let mut best: Option<(usize, f64)> = None;
                    for &r in &touched {
                        let v = acc[r];
                        if row_step[r] != usize::MAX {
                            if v != 0.0 {
                                u_col.push((row_step[r], v));
                            }
                        } else {
                            let mag = v.abs();
                            let better = match best {
                                Some((br, bm)) => mag > bm || (mag == bm && r < br),
                                None => true,
                            };
                            if better && mag > threshold {
                                best = Some((r, mag));
                            }
                        }
                    }
                    let (prow, _) = best.expect("reference basis is nonsingular");
                    let diag = acc[prow];
                    let mut l_col = Vec::new();
                    for &r in &touched {
                        if r != prow && row_step[r] == usize::MAX && acc[r] != 0.0 {
                            l_col.push((r, acc[r] / diag));
                        }
                    }
                    row_step[prow] = k;
                    lu.pivot_row.push(prow);
                    lu.col_pos.push(pos);
                    lu.u_diag.push(diag);
                    lu.u_cols.push(u_col);
                    lu.l_cols.push(l_col);
                }
                lu
            }
        }

        /// One eta of the reference file, in its own `Vec`.
        pub struct Eta {
            pos: usize,
            diag: f64,
            col: Vec<(usize, f64)>,
        }

        /// Reference basis: factors plus the eta file.
        pub struct Basis {
            pub lu: Lu,
            pub etas: Vec<Eta>,
        }

        impl Basis {
            pub fn ftran(&self, rhs: &[f64]) -> Vec<f64> {
                let lu = &self.lu;
                let mut row = rhs.to_vec();
                let mut step = vec![0.0; lu.m];
                let mut x = vec![0.0; lu.m];
                for k in 0..lu.m {
                    let z = row[lu.pivot_row[k]];
                    step[k] = z;
                    if z != 0.0 {
                        for &(r, lv) in &lu.l_cols[k] {
                            row[r] -= lv * z;
                        }
                    }
                }
                for k in (0..lu.m).rev() {
                    let xk = step[k] / lu.u_diag[k];
                    x[lu.col_pos[k]] = xk;
                    if xk != 0.0 {
                        for &(s, uv) in &lu.u_cols[k] {
                            step[s] -= uv * xk;
                        }
                    }
                }
                for eta in &self.etas {
                    let xr = x[eta.pos] / eta.diag;
                    if xr != 0.0 {
                        for &(i, v) in &eta.col {
                            x[i] -= v * xr;
                        }
                    }
                    x[eta.pos] = xr;
                }
                x
            }

            pub fn btran(&self, c: &[f64]) -> Vec<f64> {
                let lu = &self.lu;
                let mut c = c.to_vec();
                for eta in self.etas.iter().rev() {
                    let mut s = c[eta.pos];
                    for &(i, v) in &eta.col {
                        s -= v * c[i];
                    }
                    c[eta.pos] = s / eta.diag;
                }
                let mut step = vec![0.0; lu.m];
                let mut y = vec![0.0; lu.m];
                for k in 0..lu.m {
                    let mut g = c[lu.col_pos[k]];
                    for &(s, uv) in &lu.u_cols[k] {
                        g -= uv * step[s];
                    }
                    step[k] = g / lu.u_diag[k];
                }
                for k in (0..lu.m).rev() {
                    let mut acc = step[k];
                    for &(r, lv) in &lu.l_cols[k] {
                        acc -= lv * y[r];
                    }
                    y[lu.pivot_row[k]] = acc;
                }
                y
            }

            pub fn push_eta(&mut self, pos: usize, w: &[f64]) {
                let col = w
                    .iter()
                    .enumerate()
                    .filter(|&(i, &v)| i != pos && v != 0.0)
                    .map(|(i, &v)| (i, v))
                    .collect();
                self.etas.push(Eta {
                    pos,
                    diag: w[pos],
                    col,
                });
            }
        }
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    fn entry_bits(e: &[(usize, f64)]) -> Vec<(usize, u64)> {
        e.iter().map(|&(i, v)| (i, v.to_bits())).collect()
    }

    /// The reach kernel's factors, FTRAN and BTRAN against the reference.
    fn assert_same_bits(basis: &mut BasisLu, refb: &reference::Basis, what: &str) {
        let (lu, r) = (&basis.lu, &refb.lu);
        assert_eq!(lu.pivot_row, r.pivot_row, "{what}: pivot rows");
        assert_eq!(lu.col_pos, r.col_pos, "{what}: column order");
        assert_eq!(bits(&lu.u_diag), bits(&r.u_diag), "{what}: U diagonal");
        for k in 0..lu.dim() {
            assert_eq!(
                entry_bits(lu.l_col(k)),
                entry_bits(&r.l_cols[k]),
                "{what}: L step {k}"
            );
            assert_eq!(
                entry_bits(lu.u_col(k)),
                entry_bits(&r.u_cols[k]),
                "{what}: U step {k}"
            );
        }
        let m = lu.dim();
        for seed in 0..3 {
            let rhs: Vec<f64> = (0..m)
                .map(|i| ((i * 13 + seed * 7) as f64 * 0.37).sin())
                .collect();
            let mut x = vec![0.0; m];
            basis.ftran_into(&rhs, &mut x);
            assert_eq!(bits(&x), bits(&refb.ftran(&rhs)), "{what}: FTRAN {seed}");
            let mut y = vec![0.0; m];
            basis.btran_into(&rhs, &mut y);
            assert_eq!(bits(&y), bits(&refb.btran(&rhs)), "{what}: BTRAN {seed}");
        }
    }

    #[test]
    fn reach_kernel_matches_the_scan_reference_bit_for_bit() {
        type Gen = fn(usize, u64) -> Vec<Vec<(usize, f64)>>;
        let gens: [(&str, Gen); 2] = [("random", random_basis), ("path", path_basis)];
        for m in [23usize, 96, 192] {
            for (seed, (kind, gen)) in [5u64, 31, 77]
                .into_iter()
                .flat_map(|s| gens.map(|g| (s, g)))
            {
                let mut cols = gen(m, seed * 1000 + m as u64);
                let mut basis = factor(m, &cols).unwrap();
                let mut refb = reference::Basis {
                    lu: reference::Lu::factor(m, &cols, 1e-12),
                    etas: Vec::new(),
                };
                let tag = format!("{kind} m={m} seed={seed}");
                assert_same_bits(&mut basis, &refb, &format!("{tag} fresh"));

                // Replace a few columns through the eta file.
                for step in 0..6 {
                    let pos = (step * 37 + seed as usize) % m;
                    let mut newcol = cols[pos].clone();
                    for e in &mut newcol {
                        e.1 *= 1.5 + step as f64;
                    }
                    newcol.push(((pos + 11) % m, 0.25));
                    let mut rhs = vec![0.0; m];
                    for &(r, v) in &newcol {
                        rhs[r] += v;
                    }
                    let mut w = vec![0.0; m];
                    basis.ftran_into(&rhs, &mut w);
                    assert_eq!(bits(&w), bits(&refb.ftran(&rhs)), "{tag}: eta image {step}");
                    basis.push_eta(pos, &w).unwrap();
                    refb.push_eta(pos, &w);
                    cols[pos] = newcol;
                }
                assert_same_bits(&mut basis, &refb, &format!("{tag} after etas"));

                // Refactor in place (reused buffers) vs a fresh reference.
                let (ptr, ent) = flat(&cols);
                basis.refactor(&ptr, &ent, 1e-12).unwrap();
                assert_eq!(basis.eta_len(), 0);
                let refb = reference::Basis {
                    lu: reference::Lu::factor(m, &cols, 1e-12),
                    etas: Vec::new(),
                };
                assert_same_bits(&mut basis, &refb, &format!("{tag} refactored"));
            }
        }
    }
}
