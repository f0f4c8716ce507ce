//! The [`LinOp`] abstraction: one interface over dense [`Mat`] and
//! sparse [`Csr`] operators.
//!
//! The solvers call `Mat` and `Csr` directly. `LinOp` serves code that
//! must accept either representation: `tm_opt::nnls::kkt_violation`
//! checks dense and sparse NNLS solutions through it.

use crate::dense::Mat;
use crate::sparse::Csr;

/// A linear operator `A : ℝⁿ → ℝᵐ` supporting forward and transposed
/// products into caller-provided buffers (no per-call allocation).
pub trait LinOp {
    /// Output dimension `m`.
    fn rows(&self) -> usize;
    /// Input dimension `n`.
    fn cols(&self) -> usize;
    /// Stored nonzeros (`m·n` for dense).
    fn nnz(&self) -> usize;
    /// `y = A·x` into a preallocated buffer.
    fn matvec_into(&self, x: &[f64], y: &mut [f64]);
    /// `y = Aᵀ·x` into a preallocated buffer.
    fn tr_matvec_into(&self, x: &[f64], y: &mut [f64]);

    /// `y = A·x`, allocating the output.
    fn matvec(&self, x: &[f64]) -> Vec<f64> {
        let mut y = vec![0.0; self.rows()];
        self.matvec_into(x, &mut y);
        y
    }

    /// `y = Aᵀ·x`, allocating the output.
    fn tr_matvec(&self, x: &[f64]) -> Vec<f64> {
        let mut y = vec![0.0; self.cols()];
        self.tr_matvec_into(x, &mut y);
        y
    }

    /// Fill factor `nnz / (m·n)` — 1.0 for dense operators.
    fn density(&self) -> f64 {
        let cells = (self.rows() * self.cols()) as f64;
        if cells == 0.0 {
            0.0
        } else {
            self.nnz() as f64 / cells
        }
    }
}

impl LinOp for Mat {
    fn rows(&self) -> usize {
        Mat::rows(self)
    }

    fn cols(&self) -> usize {
        Mat::cols(self)
    }

    fn nnz(&self) -> usize {
        Mat::rows(self) * Mat::cols(self)
    }

    fn matvec_into(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(y.len(), Mat::rows(self), "matvec_into: output mismatch");
        for i in 0..Mat::rows(self) {
            y[i] = crate::vector::dot(self.row(i), x);
        }
    }

    fn tr_matvec_into(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), Mat::rows(self), "tr_matvec_into: input mismatch");
        assert_eq!(y.len(), Mat::cols(self), "tr_matvec_into: output mismatch");
        y.fill(0.0);
        for i in 0..Mat::rows(self) {
            let xi = x[i];
            if xi != 0.0 {
                for (j, &a) in self.row(i).iter().enumerate() {
                    y[j] += a * xi;
                }
            }
        }
    }
}

impl LinOp for Csr {
    fn rows(&self) -> usize {
        Csr::rows(self)
    }

    fn cols(&self) -> usize {
        Csr::cols(self)
    }

    fn nnz(&self) -> usize {
        Csr::nnz(self)
    }

    fn matvec_into(&self, x: &[f64], y: &mut [f64]) {
        Csr::matvec_into(self, x, y)
    }

    fn tr_matvec_into(&self, x: &[f64], y: &mut [f64]) {
        Csr::tr_matvec_into(self, x, y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pair() -> (Mat, Csr) {
        let m = Mat::from_rows(&[
            vec![1.0, 0.0, 2.0],
            vec![0.0, 0.0, 0.0],
            vec![3.0, 4.0, 0.0],
            vec![0.0, -1.0, 5.0],
        ]);
        let c = Csr::from_dense(&m, 0.0);
        (m, c)
    }

    #[test]
    fn dense_and_sparse_agree_through_the_trait() {
        let (m, c) = pair();
        let x = [1.0, -2.0, 0.5];
        let t = [2.0, 0.0, -1.0, 1.5];
        let ops: [&dyn LinOp; 2] = [&m, &c];
        for op in ops {
            assert_eq!(op.rows(), 4);
            assert_eq!(op.cols(), 3);
            let y = op.matvec(&x);
            let z = op.tr_matvec(&t);
            for i in 0..4 {
                assert!((y[i] - m.matvec(&x)[i]).abs() < 1e-12);
            }
            for j in 0..3 {
                assert!((z[j] - m.tr_matvec(&t)[j]).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn nnz_and_density_reflect_representation() {
        let (m, c) = pair();
        assert_eq!(LinOp::nnz(&m), 12);
        assert_eq!(LinOp::nnz(&c), 6);
        assert!((LinOp::density(&m) - 1.0).abs() < 1e-12);
        assert!((LinOp::density(&c) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn into_buffers_do_not_allocate_output() {
        let (_, c) = pair();
        let mut y = vec![9.0; 4];
        LinOp::matvec_into(&c, &[1.0, 1.0, 1.0], &mut y);
        assert_eq!(y, vec![3.0, 0.0, 7.0, 4.0]);
    }
}
