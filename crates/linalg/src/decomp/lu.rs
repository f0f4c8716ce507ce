//! LU factorization with partial pivoting.
//!
//! Used for the KKT systems of equality-constrained QPs (fanout
//! estimation) and for generic square solves. The factorization stores
//! `L` and `U` packed in one matrix plus the pivot permutation.

use crate::dense::Mat;
use crate::error::LinalgError;
use crate::Result;

/// Packed LU factors of a square matrix `P·A = L·U`.
#[derive(Debug, Clone)]
pub struct Lu {
    lu: Mat,
    /// `piv[k]` = row swapped into position `k` at step `k`.
    piv: Vec<usize>,
}

impl Lu {
    /// Factor a square matrix. Fails with [`LinalgError::Singular`] when a
    /// pivot column is entirely below `tol` in magnitude.
    pub fn factor(a: &Mat) -> Result<Self> {
        Self::factor_with_tol(a, 1e-13)
    }

    /// Factor with an explicit singularity tolerance, relative to the
    /// largest absolute entry of `a`.
    pub fn factor_with_tol(a: &Mat, tol: f64) -> Result<Self> {
        if a.rows() != a.cols() {
            return Err(LinalgError::ShapeMismatch {
                context: format!("LU of non-square {}x{}", a.rows(), a.cols()),
            });
        }
        let n = a.rows();
        let mut lu = a.clone();
        let mut piv = Vec::with_capacity(n);
        let scale = a.max_abs().max(1.0);

        // The elimination inner loop runs on contiguous row slices (the
        // pivot row is staged into a scratch buffer once per step so the
        // target row can be borrowed mutably) — the updates are
        // elementwise `row_i[j] -= m · row_k[j]` in the same order as
        // the classic accessor loop, so results are bit-identical, but
        // the slice form drops the per-scalar bounds checks and
        // vectorizes.
        let mut pivot_row = vec![0.0f64; n];
        for k in 0..n {
            // Partial pivot: largest |entry| in column k at/below row k.
            let mut p = k;
            let mut best = lu.get(k, k).abs();
            for i in (k + 1)..n {
                let v = lu.get(i, k).abs();
                if v > best {
                    best = v;
                    p = i;
                }
            }
            if best <= tol * scale {
                return Err(LinalgError::Singular { pivot: k });
            }
            if p != k {
                lu.swap_rows(p, k);
            }
            piv.push(p);

            let pivot = lu.get(k, k);
            pivot_row[k + 1..n].copy_from_slice(&lu.row(k)[k + 1..n]);
            for i in (k + 1)..n {
                let m = lu.get(i, k) / pivot;
                lu.set(i, k, m);
                if m != 0.0 {
                    let row_i = &mut lu.row_mut(i)[k + 1..n];
                    for (v, &pk) in row_i.iter_mut().zip(&pivot_row[k + 1..n]) {
                        *v -= m * pk;
                    }
                }
            }
        }
        Ok(Lu { lu, piv })
    }

    /// Solve `A·x = b`.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>> {
        let n = self.lu.rows();
        if b.len() != n {
            return Err(LinalgError::ShapeMismatch {
                context: format!("LU solve: rhs {} vs n {}", b.len(), n),
            });
        }
        let mut x = b.to_vec();
        // Apply permutation.
        for (k, &p) in self.piv.iter().enumerate() {
            if p != k {
                x.swap(k, p);
            }
        }
        // Both substitutions walk contiguous row slices (same
        // accumulation order as the accessor loops — bit-identical).
        // Forward substitution (L has unit diagonal).
        for i in 1..n {
            let (head, tail) = x.split_at_mut(i);
            let mut acc = tail[0];
            for (&l, &xj) in self.lu.row(i)[..i].iter().zip(head.iter()) {
                acc -= l * xj;
            }
            tail[0] = acc;
        }
        // Back substitution.
        for i in (0..n).rev() {
            let (head, tail) = x.split_at_mut(i + 1);
            let mut acc = head[i];
            for (&u, &xj) in self.lu.row(i)[i + 1..n].iter().zip(tail.iter()) {
                acc -= u * xj;
            }
            head[i] = acc / self.lu.get(i, i);
        }
        Ok(x)
    }
}

/// Convenience: solve `A·x = b` for square `A` in one call.
pub fn solve(a: &Mat, b: &[f64]) -> Result<Vec<f64>> {
    Lu::factor(a)?.solve(b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vector::{norm2, sub};

    #[test]
    fn solves_small_system() {
        let a = Mat::from_rows(&[vec![2.0, 1.0], vec![1.0, 3.0]]);
        let x = solve(&a, &[5.0, 10.0]).unwrap();
        assert!((x[0] - 1.0).abs() < 1e-12);
        assert!((x[1] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn pivoting_handles_zero_leading_entry() {
        let a = Mat::from_rows(&[vec![0.0, 1.0], vec![1.0, 0.0]]);
        let x = solve(&a, &[2.0, 3.0]).unwrap();
        assert!((x[0] - 3.0).abs() < 1e-12);
        assert!((x[1] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn detects_singularity() {
        let a = Mat::from_rows(&[vec![1.0, 2.0], vec![2.0, 4.0]]);
        assert!(matches!(Lu::factor(&a), Err(LinalgError::Singular { .. })));
    }

    #[test]
    fn rejects_non_square() {
        let a = Mat::zeros(2, 3);
        assert!(matches!(
            Lu::factor(&a),
            Err(LinalgError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn residual_small_on_random_like_system() {
        // Deterministic pseudo-random matrix via a simple LCG.
        let n = 30;
        let mut state = 0x12345678u64;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f64) / (u32::MAX as f64) - 0.5
        };
        let a = Mat::from_fn(n, n, |i, j| next() + if i == j { 2.0 } else { 0.0 });
        let xtrue: Vec<f64> = (0..n).map(|i| (i as f64) / 7.0 - 1.5).collect();
        let b = a.matvec(&xtrue);
        let x = solve(&a, &b).unwrap();
        let err = norm2(&sub(&x, &xtrue)) / norm2(&xtrue);
        assert!(err < 1e-10, "relative error {err}");
    }

    #[test]
    fn solve_rejects_wrong_rhs_len() {
        let a = Mat::identity(3);
        let lu = Lu::factor(&a).unwrap();
        assert!(lu.solve(&[1.0, 2.0]).is_err());
    }
}
