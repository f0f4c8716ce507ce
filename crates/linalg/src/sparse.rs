//! Compressed sparse row (CSR) matrices.
//!
//! Routing matrices are extremely sparse 0/1 matrices (a demand crosses a
//! handful of links), and the Vardi second-moment system has `L(L+1)/2`
//! rows of which most are empty. CSR keeps both matvec directions cheap.

use crate::dense::Mat;
use crate::error::LinalgError;
use crate::Result;

/// Compressed sparse row matrix of `f64`.
#[derive(Debug, Clone, PartialEq)]
pub struct Csr {
    rows: usize,
    cols: usize,
    /// Row pointer array of length `rows + 1`.
    indptr: Vec<usize>,
    /// Column indices, sorted within each row.
    indices: Vec<usize>,
    /// Non-zero values aligned with `indices`.
    data: Vec<f64>,
}

impl Csr {
    /// Build from COO triplets `(row, col, value)`. Duplicate entries are
    /// summed; explicit zeros are dropped.
    ///
    /// Uses a counting-sort bucket pass by row — O(nnz + rows) instead of
    /// a global O(nnz log nnz) comparison sort. Routing matrices are
    /// assembled row-major already, so the within-row column sort is a
    /// near-no-op on the hot construction paths.
    pub fn from_triplets(
        rows: usize,
        cols: usize,
        triplets: impl IntoIterator<Item = (usize, usize, f64)>,
    ) -> Result<Self> {
        let iter = triplets.into_iter();
        let mut items: Vec<(usize, usize, f64)> = Vec::with_capacity(iter.size_hint().0);
        let mut counts = vec![0usize; rows + 1];
        for (r, c, v) in iter {
            if r >= rows || c >= cols {
                return Err(LinalgError::InvalidArgument(format!(
                    "triplet ({r},{c}) out of bounds for {rows}x{cols}"
                )));
            }
            counts[r + 1] += 1;
            items.push((r, c, v));
        }
        // Bucket offsets per row (prefix sums of the counts).
        for r in 0..rows {
            counts[r + 1] += counts[r];
        }
        let mut next = counts.clone();
        let nnz_in = items.len();
        let mut indices = vec![0usize; nnz_in];
        let mut data = vec![0.0f64; nnz_in];
        for &(r, c, v) in &items {
            let slot = next[r];
            indices[slot] = c;
            data[slot] = v;
            next[r] += 1;
        }
        // Sort each row's short slice by column; adjacent-sorted input
        // (the common case) makes this linear. The scratch pair buffer
        // is hoisted so the loop performs no per-row allocation.
        let mut scratch: Vec<(usize, f64)> = Vec::new();
        for r in 0..rows {
            let (lo, hi) = (counts[r], counts[r + 1]);
            if hi - lo > 1 && !indices[lo..hi].is_sorted() {
                scratch.clear();
                scratch.extend(
                    indices[lo..hi]
                        .iter()
                        .copied()
                        .zip(data[lo..hi].iter().copied()),
                );
                scratch.sort_unstable_by_key(|&(c, _)| c);
                for (k, &(c, v)) in scratch.iter().enumerate() {
                    indices[lo + k] = c;
                    data[lo + k] = v;
                }
            }
        }
        // Merge duplicates, drop zeros, and build the row pointer.
        let mut ptr = vec![0usize; rows + 1];
        let mut w = 0usize;
        for r in 0..rows {
            let (lo, hi) = (counts[r], counts[r + 1]);
            let mut k = lo;
            while k < hi {
                let col = indices[k];
                let mut acc = data[k];
                k += 1;
                while k < hi && indices[k] == col {
                    acc += data[k];
                    k += 1;
                }
                if acc != 0.0 {
                    indices[w] = col;
                    data[w] = acc;
                    w += 1;
                }
            }
            ptr[r + 1] = w;
        }
        indices.truncate(w);
        data.truncate(w);

        Ok(Csr {
            rows,
            cols,
            indptr: ptr,
            indices,
            data,
        })
    }

    /// Empty `rows × cols` matrix (no stored entries).
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Csr {
            rows,
            cols,
            indptr: vec![0; rows + 1],
            indices: Vec::new(),
            data: Vec::new(),
        }
    }

    /// Build from a dense matrix, dropping entries with `|v| <= tol`.
    ///
    /// Assembles the CSR arrays directly (one counting pass, one fill
    /// pass) — no intermediate triplet buffer, no sort.
    pub fn from_dense(m: &Mat, tol: f64) -> Self {
        let (rows, cols) = m.shape();
        let mut nnz = 0usize;
        for i in 0..rows {
            for &v in m.row(i) {
                if v.abs() > tol {
                    nnz += 1;
                }
            }
        }
        let mut indptr = Vec::with_capacity(rows + 1);
        let mut indices = Vec::with_capacity(nnz);
        let mut data = Vec::with_capacity(nnz);
        indptr.push(0);
        for i in 0..rows {
            for (j, &v) in m.row(i).iter().enumerate() {
                if v.abs() > tol {
                    indices.push(j);
                    data.push(v);
                }
            }
            indptr.push(indices.len());
        }
        Csr {
            rows,
            cols,
            indptr,
            indices,
            data,
        }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of stored non-zeros.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.data.len()
    }

    /// All stored values (CSR order). Useful for norms and scans that
    /// do not need positions.
    #[inline]
    pub fn data(&self) -> &[f64] {
        &self.data
    }

    /// Sparse row `i` as parallel slices `(column_indices, values)`.
    #[inline]
    pub fn row(&self, i: usize) -> (&[usize], &[f64]) {
        let lo = self.indptr[i];
        let hi = self.indptr[i + 1];
        (&self.indices[lo..hi], &self.data[lo..hi])
    }

    /// Entry `(i, j)` (binary search within the row).
    pub fn get(&self, i: usize, j: usize) -> f64 {
        let (idx, val) = self.row(i);
        match idx.binary_search(&j) {
            Ok(k) => val[k],
            Err(_) => 0.0,
        }
    }

    /// `y = A·x`.
    pub fn matvec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.cols, "csr matvec: dimension mismatch");
        let mut y = vec![0.0; self.rows];
        self.matvec_into(x, &mut y);
        y
    }

    /// `y = A·x` into a preallocated buffer.
    pub fn matvec_into(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.cols, "csr matvec: dimension mismatch");
        assert_eq!(y.len(), self.rows, "csr matvec: output mismatch");
        for i in 0..self.rows {
            let (idx, val) = self.row(i);
            let mut acc = 0.0;
            for (&j, &v) in idx.iter().zip(val) {
                acc += v * x[j];
            }
            y[i] = acc;
        }
    }

    /// `y = Aᵀ·x`.
    pub fn tr_matvec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.rows, "csr tr_matvec: dimension mismatch");
        let mut y = vec![0.0; self.cols];
        self.tr_matvec_into(x, &mut y);
        y
    }

    /// `y = Aᵀ·x` into a preallocated buffer (buffer is overwritten).
    pub fn tr_matvec_into(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.rows, "csr tr_matvec: dimension mismatch");
        assert_eq!(y.len(), self.cols, "csr tr_matvec: output mismatch");
        y.fill(0.0);
        for i in 0..self.rows {
            let xi = x[i];
            if xi == 0.0 {
                continue;
            }
            let (idx, val) = self.row(i);
            for (&j, &v) in idx.iter().zip(val) {
                y[j] += v * xi;
            }
        }
    }

    /// Dense copy.
    pub fn to_dense(&self) -> Mat {
        let mut m = Mat::zeros(self.rows, self.cols);
        for i in 0..self.rows {
            let (idx, val) = self.row(i);
            for (k, &j) in idx.iter().enumerate() {
                m.set(i, j, val[k]);
            }
        }
        m
    }

    /// Transpose as a new CSR matrix — this is also the CSC view of
    /// `self` (row `j` of the transpose lists column `j` of `self`).
    ///
    /// O(nnz + cols) counting transpose; rows of the output are sorted
    /// by construction because CSR rows are scanned in order.
    pub fn transpose(&self) -> Csr {
        let nnz = self.nnz();
        let mut indptr = vec![0usize; self.cols + 1];
        for &j in &self.indices {
            indptr[j + 1] += 1;
        }
        for j in 0..self.cols {
            indptr[j + 1] += indptr[j];
        }
        let mut next = indptr.clone();
        let mut indices = vec![0usize; nnz];
        let mut data = vec![0.0f64; nnz];
        for i in 0..self.rows {
            let (idx, val) = self.row(i);
            for (k, &j) in idx.iter().enumerate() {
                let slot = next[j];
                indices[slot] = i;
                data[slot] = val[k];
                next[j] += 1;
            }
        }
        Csr {
            rows: self.cols,
            cols: self.rows,
            indptr,
            indices,
            data,
        }
    }

    /// Vertical concatenation `[self; other]`.
    pub fn vstack(&self, other: &Csr) -> Result<Csr> {
        if self.cols != other.cols {
            return Err(LinalgError::ShapeMismatch {
                context: format!("csr vstack cols {} vs {}", self.cols, other.cols),
            });
        }
        let mut indptr = self.indptr.clone();
        let base = *indptr.last().expect("indptr nonempty");
        indptr.extend(other.indptr[1..].iter().map(|p| p + base));
        let mut indices = self.indices.clone();
        indices.extend_from_slice(&other.indices);
        let mut data = self.data.clone();
        data.extend_from_slice(&other.data);
        Ok(Csr {
            rows: self.rows + other.rows,
            cols: self.cols,
            indptr,
            indices,
            data,
        })
    }

    /// New matrix with column `j` scaled by `d[j]` (i.e. `A·diag(d)`).
    pub fn scale_cols(&self, d: &[f64]) -> Result<Csr> {
        if d.len() != self.cols {
            return Err(LinalgError::ShapeMismatch {
                context: format!("scale_cols: {} vs {}", d.len(), self.cols),
            });
        }
        let mut out = self.clone();
        for (k, &j) in out.indices.iter().enumerate() {
            out.data[k] *= d[j];
        }
        Ok(out)
    }

    /// New matrix containing only the given columns (renumbered in order).
    pub fn select_cols(&self, cols: &[usize]) -> Csr {
        let mut map = vec![usize::MAX; self.cols];
        for (new, &old) in cols.iter().enumerate() {
            map[old] = new;
        }
        let mut trip = Vec::new();
        for i in 0..self.rows {
            let (idx, val) = self.row(i);
            for (k, &j) in idx.iter().enumerate() {
                if map[j] != usize::MAX {
                    trip.push((i, map[j], val[k]));
                }
            }
        }
        Csr::from_triplets(self.rows, cols.len(), trip).expect("in-bounds by construction")
    }

    /// New matrix containing only the given rows, in the given order
    /// (the masked-measurement-system row subset). Row indices must be
    /// in range; duplicates are allowed and produce repeated rows.
    pub fn select_rows(&self, rows: &[usize]) -> Result<Csr> {
        let mut indptr = Vec::with_capacity(rows.len() + 1);
        indptr.push(0usize);
        let mut nnz = 0usize;
        for &r in rows {
            if r >= self.rows {
                return Err(LinalgError::ShapeMismatch {
                    context: format!("select_rows: row {r} out of {}", self.rows),
                });
            }
            nnz += self.indptr[r + 1] - self.indptr[r];
            indptr.push(nnz);
        }
        let mut indices = Vec::with_capacity(nnz);
        let mut data = Vec::with_capacity(nnz);
        for &r in rows {
            let (lo, hi) = (self.indptr[r], self.indptr[r + 1]);
            indices.extend_from_slice(&self.indices[lo..hi]);
            data.extend_from_slice(&self.data[lo..hi]);
        }
        Ok(Csr {
            rows: rows.len(),
            cols: self.cols,
            indptr,
            indices,
            data,
        })
    }

    /// New matrix with row `i` scaled by `d[i]` (i.e. `diag(d)·A`).
    pub fn scale_rows(&self, d: &[f64]) -> Result<Csr> {
        if d.len() != self.rows {
            return Err(LinalgError::ShapeMismatch {
                context: format!("scale_rows: {} vs {}", d.len(), self.rows),
            });
        }
        let mut out = self.clone();
        for i in 0..out.rows {
            let (lo, hi) = (out.indptr[i], out.indptr[i + 1]);
            for v in &mut out.data[lo..hi] {
                *v *= d[i];
            }
        }
        Ok(out)
    }

    /// Uniform scale `factor·A`.
    pub fn scale(&self, factor: f64) -> Csr {
        let mut out = self.clone();
        for v in &mut out.data {
            *v *= factor;
        }
        out
    }

    /// Sparse Gram product `G = AᵀA`, computed sparse-to-sparse.
    ///
    /// Row `j` of `G` merges the rows of `A` that touch column `j`
    /// through a dense accumulator with a touched-column list, so the
    /// cost is O(flops) = `Σ_j Σ_{r ∈ col j} nnz(row r)` — proportional
    /// to the true multiply work, never to `n²`. The output keeps only
    /// structurally present entries (symmetric pattern).
    pub fn gram(&self) -> Csr {
        let n = self.cols;
        let at = self.transpose();
        let mut indptr = Vec::with_capacity(n + 1);
        let mut indices: Vec<usize> = Vec::new();
        let mut data: Vec<f64> = Vec::new();
        indptr.push(0);
        // Dense accumulator workspace, reset via the touched list only;
        // `mark` is a generation counter so membership tests are O(1).
        let mut acc = vec![0.0f64; n];
        let mut mark = vec![usize::MAX; n];
        let mut touched: Vec<usize> = Vec::new();
        for j in 0..n {
            let (rows_j, vals_j) = at.row(j);
            for (k, &r) in rows_j.iter().enumerate() {
                let arj = vals_j[k];
                let (cols_r, vals_r) = self.row(r);
                for (m, &c) in cols_r.iter().enumerate() {
                    if mark[c] != j {
                        mark[c] = j;
                        acc[c] = 0.0;
                        touched.push(c);
                    }
                    acc[c] += arj * vals_r[m];
                }
            }
            touched.sort_unstable();
            for &c in &touched {
                let v = acc[c];
                if v != 0.0 {
                    indices.push(c);
                    data.push(v);
                }
            }
            touched.clear();
            indptr.push(indices.len());
        }
        Csr {
            rows: n,
            cols: n,
            indptr,
            indices,
            data,
        }
    }

    /// New matrix with the same sparsity pattern and values
    /// `f(i, j, v)` — O(nnz), no re-sorting (used to build matrices
    /// that share a precomputed pattern, e.g. `S·G·S` scalings).
    pub fn mapped_values(&self, mut f: impl FnMut(usize, usize, f64) -> f64) -> Csr {
        let mut out = self.clone();
        for i in 0..out.rows {
            let (lo, hi) = (out.indptr[i], out.indptr[i + 1]);
            for k in lo..hi {
                out.data[k] = f(i, out.indices[k], out.data[k]);
            }
        }
        out
    }

    /// Entry-wise sum `self + other` (pattern union). Entries that
    /// cancel to exactly zero are dropped, like [`Csr::from_triplets`].
    pub fn add(&self, other: &Csr) -> Result<Csr> {
        if self.rows != other.rows || self.cols != other.cols {
            return Err(LinalgError::ShapeMismatch {
                context: format!(
                    "csr add: {}x{} vs {}x{}",
                    self.rows, self.cols, other.rows, other.cols
                ),
            });
        }
        let mut indptr = Vec::with_capacity(self.rows + 1);
        let mut indices = Vec::with_capacity(self.nnz() + other.nnz());
        let mut data = Vec::with_capacity(self.nnz() + other.nnz());
        indptr.push(0);
        for i in 0..self.rows {
            // Merge the two sorted rows.
            let (ia, va) = self.row(i);
            let (ib, vb) = other.row(i);
            let (mut ka, mut kb) = (0usize, 0usize);
            while ka < ia.len() || kb < ib.len() {
                let (col, v) = match (ia.get(ka), ib.get(kb)) {
                    (Some(&ca), Some(&cb)) if ca == cb => {
                        let v = va[ka] + vb[kb];
                        ka += 1;
                        kb += 1;
                        (ca, v)
                    }
                    (Some(&ca), Some(&cb)) if ca < cb => {
                        ka += 1;
                        (ca, va[ka - 1])
                    }
                    (Some(_), Some(&cb)) => {
                        kb += 1;
                        (cb, vb[kb - 1])
                    }
                    (Some(&ca), None) => {
                        ka += 1;
                        (ca, va[ka - 1])
                    }
                    (None, Some(&cb)) => {
                        kb += 1;
                        (cb, vb[kb - 1])
                    }
                    (None, None) => unreachable!("loop condition"),
                };
                if v != 0.0 {
                    indices.push(col);
                    data.push(v);
                }
            }
            indptr.push(indices.len());
        }
        Ok(Csr {
            rows: self.rows,
            cols: self.cols,
            indptr,
            indices,
            data,
        })
    }

    /// Square matrix with `d` added to every diagonal entry. Missing
    /// diagonal entries are **inserted** even when `d == 0.0` — this is
    /// the pattern-padding step for symbolic factorizations, which need
    /// the diagonal structurally present.
    pub fn plus_diag(&self, d: f64) -> Result<Csr> {
        if self.rows != self.cols {
            return Err(LinalgError::ShapeMismatch {
                context: format!("plus_diag on non-square {}x{}", self.rows, self.cols),
            });
        }
        let mut indptr = Vec::with_capacity(self.rows + 1);
        let mut indices = Vec::with_capacity(self.nnz() + self.rows);
        let mut data = Vec::with_capacity(self.nnz() + self.rows);
        indptr.push(0);
        for i in 0..self.rows {
            let (idx, val) = self.row(i);
            let mut placed = false;
            for (k, &j) in idx.iter().enumerate() {
                if !placed && j >= i {
                    if j == i {
                        indices.push(i);
                        data.push(val[k] + d);
                        placed = true;
                        continue;
                    }
                    indices.push(i);
                    data.push(d);
                    placed = true;
                }
                indices.push(j);
                data.push(val[k]);
            }
            if !placed {
                indices.push(i);
                data.push(d);
            }
            indptr.push(indices.len());
        }
        Ok(Csr {
            rows: self.rows,
            cols: self.cols,
            indptr,
            indices,
            data,
        })
    }

    /// New matrix sharing this pattern with replacement values aligned
    /// to the stored (CSR) entry order — the zero-copy sibling of
    /// [`Csr::mapped_values`] for callers that precompute per-entry
    /// value arrays (e.g. the split `AᵀA` / `MᵀM` components of a
    /// weighted stacked Gram).
    pub fn with_data(&self, data: Vec<f64>) -> Result<Csr> {
        if data.len() != self.nnz() {
            return Err(LinalgError::ShapeMismatch {
                context: format!(
                    "with_data: {} values for {} entries",
                    data.len(),
                    self.nnz()
                ),
            });
        }
        Ok(Csr {
            rows: self.rows,
            cols: self.cols,
            indptr: self.indptr.clone(),
            indices: self.indices.clone(),
            data,
        })
    }

    /// Squared column norms `‖A·e_j‖²` for all `j`.
    pub fn col_sq_norms(&self) -> Vec<f64> {
        let mut n = vec![0.0; self.cols];
        for (k, &j) in self.indices.iter().enumerate() {
            n[j] += self.data[k] * self.data[k];
        }
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Csr {
        // [1 0 2]
        // [0 0 0]
        // [3 4 0]
        Csr::from_triplets(
            3,
            3,
            vec![(0, 0, 1.0), (0, 2, 2.0), (2, 0, 3.0), (2, 1, 4.0)],
        )
        .unwrap()
    }

    #[test]
    fn triplet_construction_sorts_and_merges() {
        let m = Csr::from_triplets(2, 2, vec![(1, 1, 2.0), (0, 0, 1.0), (1, 1, 3.0)]).unwrap();
        assert_eq!(m.nnz(), 2);
        assert_eq!(m.get(1, 1), 5.0);
        assert_eq!(m.get(0, 0), 1.0);
        assert_eq!(m.get(0, 1), 0.0);
    }

    #[test]
    fn triplets_drop_zeros_and_cancellations() {
        let m = Csr::from_triplets(2, 2, vec![(0, 0, 1.0), (0, 0, -1.0), (1, 0, 0.0)]).unwrap();
        assert_eq!(m.nnz(), 0);
        assert_eq!(m.get(0, 0), 0.0);
    }

    #[test]
    fn triplet_bounds_checked() {
        assert!(Csr::from_triplets(2, 2, vec![(2, 0, 1.0)]).is_err());
        assert!(Csr::from_triplets(2, 2, vec![(0, 2, 1.0)]).is_err());
    }

    #[test]
    fn matvec_both_directions() {
        let m = sample();
        assert_eq!(m.matvec(&[1.0, 1.0, 1.0]), vec![3.0, 0.0, 7.0]);
        assert_eq!(m.tr_matvec(&[1.0, 1.0, 1.0]), vec![4.0, 4.0, 2.0]);
        // consistency with dense
        let d = m.to_dense();
        assert_eq!(d.matvec(&[1.0, 2.0, 3.0]), m.matvec(&[1.0, 2.0, 3.0]));
        assert_eq!(d.tr_matvec(&[1.0, 2.0, 3.0]), m.tr_matvec(&[1.0, 2.0, 3.0]));
    }

    #[test]
    fn transpose_roundtrip() {
        let m = sample();
        let t = m.transpose();
        assert_eq!(t.get(0, 2), 3.0);
        assert_eq!(t.get(2, 0), 2.0);
        assert_eq!(t.transpose(), m);
    }

    #[test]
    fn dense_roundtrip() {
        let m = sample();
        let d = m.to_dense();
        let back = Csr::from_dense(&d, 0.0);
        assert_eq!(back, m);
    }

    #[test]
    fn vstack_concatenates() {
        let m = sample();
        let v = m.vstack(&m).unwrap();
        assert_eq!(v.rows(), 6);
        assert_eq!(v.get(5, 1), 4.0);
        assert_eq!(v.get(2, 1), 4.0);
        let wrong = Csr::zeros(1, 2);
        assert!(m.vstack(&wrong).is_err());
    }

    #[test]
    fn scale_and_select_cols() {
        let m = sample();
        let s = m.scale_cols(&[2.0, 10.0, 1.0]).unwrap();
        assert_eq!(s.get(2, 0), 6.0);
        assert_eq!(s.get(2, 1), 40.0);
        assert_eq!(s.get(0, 2), 2.0);
        let sel = m.select_cols(&[2, 0]);
        assert_eq!(sel.cols(), 2);
        assert_eq!(sel.get(0, 0), 2.0); // old col 2
        assert_eq!(sel.get(0, 1), 1.0); // old col 0
        assert_eq!(sel.get(2, 1), 3.0);
    }

    #[test]
    fn select_rows_subsets_and_validates() {
        let m = sample();
        let sel = m.select_rows(&[2, 0]).unwrap();
        assert_eq!(sel.rows(), 2);
        assert_eq!(sel.cols(), m.cols());
        for j in 0..m.cols() {
            assert_eq!(sel.get(0, j), m.get(2, j), "row 2 col {j}");
            assert_eq!(sel.get(1, j), m.get(0, j), "row 0 col {j}");
        }
        // Full identity mask reproduces the matrix.
        let all: Vec<usize> = (0..m.rows()).collect();
        assert_eq!(&m.select_rows(&all).unwrap(), &m);
        // Empty selection is a 0×n matrix; out-of-range errors.
        assert_eq!(m.select_rows(&[]).unwrap().rows(), 0);
        assert!(m.select_rows(&[99]).is_err());
    }

    #[test]
    fn col_sq_norms_match_dense() {
        let m = sample();
        let n = m.col_sq_norms();
        assert_eq!(n, vec![10.0, 16.0, 4.0]);
    }

    #[test]
    fn matvec_into_buffers() {
        let m = sample();
        let mut y = vec![9.0; 3];
        m.matvec_into(&[1.0, 1.0, 1.0], &mut y);
        assert_eq!(y, vec![3.0, 0.0, 7.0]);
        let mut z = vec![9.0; 3];
        m.tr_matvec_into(&[1.0, 0.0, 1.0], &mut z);
        assert_eq!(z, vec![4.0, 4.0, 2.0]);
    }

    #[test]
    fn gram_matches_dense_gram() {
        let m = sample();
        let g = m.gram();
        let gd = m.to_dense().gram();
        assert_eq!(g.rows(), 3);
        assert_eq!(g.cols(), 3);
        for i in 0..3 {
            for j in 0..3 {
                assert!(
                    (g.get(i, j) - gd.get(i, j)).abs() < 1e-12,
                    "({i},{j}): {} vs {}",
                    g.get(i, j),
                    gd.get(i, j)
                );
            }
        }
        // Column 1 shares no row with column 2 -> structural zero.
        assert_eq!(g.get(1, 2), 0.0);
        assert!(g.nnz() < 9, "gram output must stay sparse: {}", g.nnz());
    }

    #[test]
    fn scale_rows_matches_dense() {
        let m = sample();
        let d = [2.0, 10.0, -1.0];
        let s = m.scale_rows(&d).unwrap();
        for i in 0..3 {
            for j in 0..3 {
                assert_eq!(s.get(i, j), m.get(i, j) * d[i]);
            }
        }
        assert!(m.scale_rows(&[1.0]).is_err());
        let u = m.scale(0.5);
        assert_eq!(u.get(2, 1), 2.0);
    }

    #[test]
    fn counting_sort_handles_unsorted_duplicated_input() {
        // Reverse-ordered triplets with duplicates and cancellations.
        let m = Csr::from_triplets(
            3,
            4,
            vec![
                (2, 3, 1.0),
                (0, 2, 4.0),
                (2, 0, 2.0),
                (0, 2, -4.0),
                (1, 1, 7.0),
                (2, 3, 2.0),
                (0, 0, 5.0),
            ],
        )
        .unwrap();
        assert_eq!(m.nnz(), 4);
        assert_eq!(m.get(0, 0), 5.0);
        assert_eq!(m.get(0, 2), 0.0);
        assert_eq!(m.get(1, 1), 7.0);
        assert_eq!(m.get(2, 3), 3.0);
        assert_eq!(m.get(2, 0), 2.0);
        // Row slices must be column-sorted for binary-search `get`.
        let (idx, _) = m.row(2);
        assert!(idx.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn add_merges_patterns_and_drops_cancellations() {
        let m = sample();
        let other = Csr::from_triplets(
            3,
            3,
            vec![(0, 0, -1.0), (0, 1, 5.0), (1, 2, 2.0), (2, 1, 1.0)],
        )
        .unwrap();
        let s = m.add(&other).unwrap();
        assert_eq!(s.get(0, 0), 0.0); // 1 + (-1) cancels
        assert_eq!(s.get(0, 1), 5.0);
        assert_eq!(s.get(0, 2), 2.0);
        assert_eq!(s.get(1, 2), 2.0);
        assert_eq!(s.get(2, 1), 5.0);
        // Cancelled entry is structurally dropped.
        let (idx, _) = s.row(0);
        assert!(!idx.contains(&0));
        assert!(m.add(&Csr::zeros(2, 3)).is_err());
        // Matches the dense sum everywhere.
        for i in 0..3 {
            for j in 0..3 {
                assert_eq!(s.get(i, j), m.get(i, j) + other.get(i, j));
            }
        }
    }

    #[test]
    fn plus_diag_inserts_missing_diagonal() {
        let m = sample(); // (1,1) and (2,2) are structurally absent
        let p = m.plus_diag(0.0).unwrap();
        // Values unchanged...
        for i in 0..3 {
            for j in 0..3 {
                assert_eq!(p.get(i, j), m.get(i, j));
            }
        }
        // ...but every diagonal entry is now stored, rows still sorted.
        for i in 0..3 {
            let (idx, _) = p.row(i);
            assert!(idx.contains(&i), "row {i} missing diagonal");
            assert!(idx.windows(2).all(|w| w[0] < w[1]));
        }
        let q = m.plus_diag(2.5).unwrap();
        assert_eq!(q.get(0, 0), 3.5);
        assert_eq!(q.get(1, 1), 2.5);
        assert_eq!(q.get(2, 2), 2.5);
        assert!(Csr::zeros(2, 3).plus_diag(1.0).is_err());
    }

    #[test]
    fn with_data_replaces_values_in_storage_order() {
        let m = sample();
        let doubled: Vec<f64> = m.data().iter().map(|v| v * 2.0).collect();
        let d = m.with_data(doubled).unwrap();
        for i in 0..3 {
            for j in 0..3 {
                assert_eq!(d.get(i, j), 2.0 * m.get(i, j));
            }
        }
        assert!(m.with_data(vec![1.0]).is_err());
    }
}
