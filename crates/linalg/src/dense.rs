//! Dense row-major `f64` matrix.
//!
//! [`Mat`] is the workhorse for factorizations and for the moderately
//! sized systems in the estimators (≤ ~1000 × 600 in the paper's
//! networks). Storage is a single `Vec<f64>` in row-major order.

use serde::{Deserialize, Serialize};

use crate::error::LinalgError;
use crate::Result;

/// Dense row-major matrix of `f64`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Mat {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Mat {
    /// Create a `rows × cols` matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Mat {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Create a matrix from a closure over `(row, col)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for i in 0..rows {
            for j in 0..cols {
                data.push(f(i, j));
            }
        }
        Mat { rows, cols, data }
    }

    /// Create a matrix from nested row slices.
    ///
    /// # Panics
    /// Panics if the rows have inconsistent lengths.
    pub fn from_rows(rows: &[Vec<f64>]) -> Self {
        if rows.is_empty() {
            return Mat::zeros(0, 0);
        }
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            assert_eq!(r.len(), cols, "from_rows: ragged input");
            data.extend_from_slice(r);
        }
        Mat {
            rows: rows.len(),
            cols,
            data,
        }
    }

    /// Create a matrix that owns `data` in row-major order.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), rows * cols, "from_vec: wrong length");
        Mat { rows, cols, data }
    }

    /// `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Mat::zeros(n, n);
        for i in 0..n {
            m.set(i, i, 1.0);
        }
        m
    }

    /// Diagonal matrix from `d`.
    pub fn from_diag(d: &[f64]) -> Self {
        let mut m = Mat::zeros(d.len(), d.len());
        for (i, &v) in d.iter().enumerate() {
            m.set(i, i, v);
        }
        m
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

    /// Shape as `(rows, cols)`.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Entry `(i, j)`.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        debug_assert!(i < self.rows && j < self.cols);
        self.data[i * self.cols + j]
    }

    /// Set entry `(i, j)`.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, v: f64) {
        debug_assert!(i < self.rows && j < self.cols);
        self.data[i * self.cols + j] = v;
    }

    /// Add `v` to entry `(i, j)`.
    #[inline]
    pub fn add_to(&mut self, i: usize, j: usize, v: f64) {
        debug_assert!(i < self.rows && j < self.cols);
        self.data[i * self.cols + j] += v;
    }

    /// Immutable view of row `i`.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Mutable view of row `i`.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Copy of column `j`.
    pub fn col(&self, j: usize) -> Vec<f64> {
        (0..self.rows).map(|i| self.get(i, j)).collect()
    }

    /// Underlying row-major data.
    pub fn data(&self) -> &[f64] {
        &self.data
    }

    /// Swap rows `a` and `b`.
    pub fn swap_rows(&mut self, a: usize, b: usize) {
        if a == b {
            return;
        }
        let (a, b) = (a.min(b), a.max(b));
        let (head, tail) = self.data.split_at_mut(b * self.cols);
        head[a * self.cols..(a + 1) * self.cols].swap_with_slice(&mut tail[..self.cols]);
    }

    /// Matrix–vector product `y = A·x`.
    pub fn matvec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.cols, "matvec: dimension mismatch");
        let mut y = vec![0.0; self.rows];
        for i in 0..self.rows {
            y[i] = crate::vector::dot(self.row(i), x);
        }
        y
    }

    /// Transposed matrix–vector product `y = Aᵀ·x`.
    pub fn tr_matvec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.rows, "tr_matvec: dimension mismatch");
        let mut y = vec![0.0; self.cols];
        for i in 0..self.rows {
            let xi = x[i];
            if xi != 0.0 {
                for (j, &a) in self.row(i).iter().enumerate() {
                    y[j] += a * xi;
                }
            }
        }
        y
    }

    /// Matrix product `A·B`.
    pub fn matmul(&self, b: &Mat) -> Result<Mat> {
        if self.cols != b.rows {
            return Err(LinalgError::ShapeMismatch {
                context: format!("matmul {}x{} * {}x{}", self.rows, self.cols, b.rows, b.cols),
            });
        }
        let mut c = Mat::zeros(self.rows, b.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let aik = self.get(i, k);
                if aik == 0.0 {
                    continue;
                }
                let brow = b.row(k);
                let crow = c.row_mut(i);
                for (j, &bkj) in brow.iter().enumerate() {
                    crow[j] += aik * bkj;
                }
            }
        }
        Ok(c)
    }

    /// Transpose as a new matrix.
    pub fn transpose(&self) -> Mat {
        let mut t = Mat::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                t.set(j, i, self.get(i, j));
            }
        }
        t
    }

    /// Gram matrix `AᵀA` (symmetric `cols × cols`), computed exploiting
    /// symmetry.
    pub fn gram(&self) -> Mat {
        let n = self.cols;
        let mut g = Mat::zeros(n, n);
        for r in 0..self.rows {
            let row = self.row(r);
            for j in 0..n {
                let v = row[j];
                if v == 0.0 {
                    continue;
                }
                for k in j..n {
                    g.add_to(j, k, v * row[k]);
                }
            }
        }
        for j in 0..n {
            for k in 0..j {
                let v = g.get(k, j);
                g.set(j, k, v);
            }
        }
        g
    }

    /// `self ← self + a·B`.
    pub fn axpy_mat(&mut self, a: f64, b: &Mat) -> Result<()> {
        if self.shape() != b.shape() {
            return Err(LinalgError::ShapeMismatch {
                context: format!("axpy_mat {:?} vs {:?}", self.shape(), b.shape()),
            });
        }
        crate::vector::axpy(a, &b.data, &mut self.data);
        Ok(())
    }

    /// Scale all entries in place.
    pub fn scale(&mut self, a: f64) {
        crate::vector::scale(a, &mut self.data);
    }

    /// Vertical concatenation `[self; b]`.
    pub fn vstack(&self, b: &Mat) -> Result<Mat> {
        if self.cols != b.cols {
            return Err(LinalgError::ShapeMismatch {
                context: format!("vstack cols {} vs {}", self.cols, b.cols),
            });
        }
        let mut data = self.data.clone();
        data.extend_from_slice(&b.data);
        Ok(Mat {
            rows: self.rows + b.rows,
            cols: self.cols,
            data,
        })
    }

    /// Extract the sub-matrix of the given rows.
    pub fn select_rows(&self, rows: &[usize]) -> Mat {
        let mut m = Mat::zeros(rows.len(), self.cols);
        for (ri, &r) in rows.iter().enumerate() {
            m.row_mut(ri).copy_from_slice(self.row(r));
        }
        m
    }

    /// Extract the sub-matrix of the given columns.
    pub fn select_cols(&self, cols: &[usize]) -> Mat {
        let mut m = Mat::zeros(self.rows, cols.len());
        for i in 0..self.rows {
            for (cj, &c) in cols.iter().enumerate() {
                m.set(i, cj, self.get(i, c));
            }
        }
        m
    }

    /// Maximum absolute entry.
    pub fn max_abs(&self) -> f64 {
        crate::vector::norm_inf(&self.data)
    }

    /// True when all entries are finite.
    pub fn is_finite(&self) -> bool {
        self.data.iter().all(|v| v.is_finite())
    }
}

impl std::ops::Index<(usize, usize)> for Mat {
    type Output = f64;
    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        &self.data[i * self.cols + j]
    }
}

impl std::ops::IndexMut<(usize, usize)> for Mat {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        &mut self.data[i * self.cols + j]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Mat {
        Mat::from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]])
    }

    #[test]
    fn construction_and_access() {
        let m = sample();
        assert_eq!(m.shape(), (2, 3));
        assert_eq!(m.get(0, 1), 2.0);
        assert_eq!(m[(1, 2)], 6.0);
        assert_eq!(m.row(1), &[4.0, 5.0, 6.0]);
        assert_eq!(m.col(2), vec![3.0, 6.0]);
        let id = Mat::identity(3);
        assert_eq!(id.get(1, 1), 1.0);
        assert_eq!(id.get(0, 1), 0.0);
        let d = Mat::from_diag(&[2.0, 3.0]);
        assert_eq!(d.get(1, 1), 3.0);
        assert_eq!(d.get(1, 0), 0.0);
    }

    #[test]
    fn from_fn_matches_closure() {
        let m = Mat::from_fn(2, 2, |i, j| (i * 10 + j) as f64);
        assert_eq!(m.get(1, 0), 10.0);
        assert_eq!(m.get(1, 1), 11.0);
    }

    #[test]
    fn matvec_and_transpose() {
        let m = sample();
        assert_eq!(m.matvec(&[1.0, 1.0, 1.0]), vec![6.0, 15.0]);
        assert_eq!(m.tr_matvec(&[1.0, 1.0]), vec![5.0, 7.0, 9.0]);
        let t = m.transpose();
        assert_eq!(t.shape(), (3, 2));
        assert_eq!(t.get(2, 1), 6.0);
        // (Aᵀ)ᵀ = A
        assert_eq!(t.transpose(), m);
    }

    #[test]
    fn matmul_small() {
        let a = Mat::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        let b = Mat::from_rows(&[vec![5.0, 6.0], vec![7.0, 8.0]]);
        let c = a.matmul(&b).unwrap();
        assert_eq!(c.row(0), &[19.0, 22.0]);
        assert_eq!(c.row(1), &[43.0, 50.0]);
        assert!(a.matmul(&sample().transpose()).is_err());
    }

    #[test]
    fn gram_equals_at_a() {
        let a = sample();
        let g = a.gram();
        let expect = a.transpose().matmul(&a).unwrap();
        for i in 0..3 {
            for j in 0..3 {
                assert!((g.get(i, j) - expect.get(i, j)).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn swap_rows_works() {
        let mut m = sample();
        m.swap_rows(0, 1);
        assert_eq!(m.row(0), &[4.0, 5.0, 6.0]);
        assert_eq!(m.row(1), &[1.0, 2.0, 3.0]);
        m.swap_rows(1, 1); // no-op
        assert_eq!(m.row(1), &[1.0, 2.0, 3.0]);
    }

    #[test]
    fn stack_and_select() {
        let m = sample();
        let v = m.vstack(&m).unwrap();
        assert_eq!(v.shape(), (4, 3));
        assert_eq!(v.row(3), &[4.0, 5.0, 6.0]);
        let s = m.select_rows(&[1]);
        assert_eq!(s.shape(), (1, 3));
        assert_eq!(s.row(0), &[4.0, 5.0, 6.0]);
        let c = m.select_cols(&[2, 0]);
        assert_eq!(c.row(0), &[3.0, 1.0]);
        assert_eq!(c.row(1), &[6.0, 4.0]);
    }

    #[test]
    fn norms_and_scaling() {
        let mut m = Mat::from_rows(&[vec![3.0, 0.0], vec![0.0, 4.0]]);
        assert_eq!(m.max_abs(), 4.0);
        m.scale(2.0);
        assert_eq!(m.get(1, 1), 8.0);
        let other = Mat::identity(2);
        m.axpy_mat(1.0, &other).unwrap();
        assert_eq!(m.get(0, 0), 7.0);
        assert!(m.is_finite());
        m.set(0, 0, f64::NAN);
        assert!(!m.is_finite());
    }

    #[test]
    fn serde_roundtrip() {
        let m = sample();
        let json = serde_json::to_string(&m).unwrap();
        let back: Mat = serde_json::from_str(&json).unwrap();
        assert_eq!(m, back);
    }
}
