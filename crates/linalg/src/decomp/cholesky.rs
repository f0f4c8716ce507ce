//! Cholesky factorization of symmetric positive definite matrices.
//!
//! Used for the Gram systems arising in coordinate-descent NNLS and in
//! the Bayesian (Tikhonov-regularized) estimator, where the regularizer
//! guarantees positive definiteness.

use serde::{Deserialize, Serialize};

use crate::dense::Mat;
use crate::error::LinalgError;
use crate::Result;

/// Dot product over eight independent accumulator lanes: reassociated
/// (not bit-identical to a sequential fold) but free of the serial
/// floating-point dependence, so it vectorizes. Shared by the `_fast`
/// factorization/solve kernels.
#[inline]
fn dot_lanes(a: &[f64], b: &[f64]) -> f64 {
    let mut acc = [0.0f64; 8];
    let ca = a.chunks_exact(8);
    let cb = b.chunks_exact(8);
    let (ra, rb) = (ca.remainder(), cb.remainder());
    for (xa, xb) in ca.zip(cb) {
        for l in 0..8 {
            acc[l] += xa[l] * xb[l];
        }
    }
    let mut s = ((acc[0] + acc[1]) + (acc[2] + acc[3])) + ((acc[4] + acc[5]) + (acc[6] + acc[7]));
    for (xa, xb) in ra.iter().zip(rb) {
        s += xa * xb;
    }
    s
}

/// Lower-triangular Cholesky factor `A = L·Lᵀ`.
///
/// Serializable so that streaming checkpoints can carry a factor's
/// exact bits across a process restart (finite `f64`s round-trip
/// bit-identically through the JSON shortest-representation form); a
/// deserialized factor is trusted as-is, like a [`Cholesky::clone`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Cholesky {
    l: Mat,
}

impl Cholesky {
    /// Factor a symmetric positive definite matrix. Only the lower
    /// triangle of `a` is read.
    pub fn factor(a: &Mat) -> Result<Self> {
        if a.rows() != a.cols() {
            return Err(LinalgError::ShapeMismatch {
                context: format!("Cholesky of non-square {}x{}", a.rows(), a.cols()),
            });
        }
        let n = a.rows();
        // Work on a flat buffer with contiguous row slices: the inner
        // dot products then vectorize instead of paying a
        // bounds-checked accessor per scalar (this factorization is the
        // per-iteration cost of the dense Newton and active-set-kernel
        // paths). The accumulation order matches the classic accessor
        // loop exactly — results are bit-identical.
        let mut ld = vec![0.0f64; n * n];
        for i in 0..n {
            for j in 0..=i {
                ld[i * n + j] = a.get(i, j);
            }
        }
        for j in 0..n {
            let (above, below) = ld.split_at_mut((j + 1) * n);
            let row_j = &mut above[j * n..j * n + j + 1];
            let mut d = row_j[j];
            for k in 0..j {
                d -= row_j[k] * row_j[k];
            }
            if d <= 0.0 || !d.is_finite() {
                return Err(LinalgError::NotPositiveDefinite { index: j });
            }
            let dj = d.sqrt();
            row_j[j] = dj;
            let row_j = &above[j * n..j * n + j];
            for i in (j + 1)..n {
                let row_i = &mut below[(i - j - 1) * n..(i - j - 1) * n + j + 1];
                let mut v = row_i[j];
                for k in 0..j {
                    v -= row_i[k] * row_j[k];
                }
                row_i[j] = v / dj;
            }
        }
        Ok(Cholesky {
            l: Mat::from_vec(n, n, ld),
        })
    }

    /// Factor with the inner dot products split over four independent
    /// accumulator lanes. The reassociation changes rounding at the
    /// 1-ulp level — results are **not** bit-identical to
    /// [`Cholesky::factor`] — but the lanes break the sequential
    /// floating-point dependence that keeps the strict-order kernel
    /// scalar, which roughly triples throughput on the kernel matrices
    /// the second-order solvers refactor every iteration. Use this for
    /// throughput-critical inner loops; keep [`Cholesky::factor`] where
    /// bit-stability across releases matters (e.g. the Bayes kernel).
    pub fn factor_fast(a: &Mat) -> Result<Self> {
        if a.rows() != a.cols() {
            return Err(LinalgError::ShapeMismatch {
                context: format!("Cholesky of non-square {}x{}", a.rows(), a.cols()),
            });
        }
        let n = a.rows();
        let mut ld = vec![0.0f64; n * n];
        for i in 0..n {
            for j in 0..=i {
                ld[i * n + j] = a.get(i, j);
            }
        }
        for j in 0..n {
            let (above, below) = ld.split_at_mut((j + 1) * n);
            let row_j = &mut above[j * n..j * n + j + 1];
            let d = row_j[j] - dot_lanes(&row_j[..j], &row_j[..j]);
            if d <= 0.0 || !d.is_finite() {
                return Err(LinalgError::NotPositiveDefinite { index: j });
            }
            let dj = d.sqrt();
            row_j[j] = dj;
            let row_j = &above[j * n..j * n + j];
            for i in (j + 1)..n {
                let row_i = &mut below[(i - j - 1) * n..(i - j - 1) * n + j + 1];
                row_i[j] = (row_i[j] - dot_lanes(&row_i[..j], row_j)) / dj;
            }
        }
        Ok(Cholesky {
            l: Mat::from_vec(n, n, ld),
        })
    }

    /// Solve `A·x = b` via the two triangular solves.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>> {
        let n = self.l.rows();
        if b.len() != n {
            return Err(LinalgError::ShapeMismatch {
                context: format!("Cholesky solve: rhs {} vs n {}", b.len(), n),
            });
        }
        let mut y = b.to_vec();
        // Forward: L·y = b
        for i in 0..n {
            let mut acc = y[i];
            for j in 0..i {
                acc -= self.l.get(i, j) * y[j];
            }
            y[i] = acc / self.l.get(i, i);
        }
        // Backward: Lᵀ·x = y
        for i in (0..n).rev() {
            let mut acc = y[i];
            for j in (i + 1)..n {
                acc -= self.l.get(j, i) * y[j];
            }
            y[i] = acc / self.l.get(i, i);
        }
        Ok(y)
    }

    /// Solve `A·x = b` with throughput-oriented kernels: the forward
    /// sweep uses lane-split row dots (reassociated — not bit-identical
    /// to [`Cholesky::solve`]), and the backward sweep runs as a
    /// column-sweep over **rows** (`z[..j] -= x_j·L_j[..j]`, a
    /// contiguous slice axpy) instead of gathering a strided column.
    /// Use on hot solve paths (e.g. a PCG preconditioner applied dozens
    /// of times per Newton step).
    pub fn solve_fast_into(&self, b: &[f64], out: &mut [f64]) -> Result<()> {
        let n = self.l.rows();
        if b.len() != n || out.len() != n {
            return Err(LinalgError::ShapeMismatch {
                context: format!(
                    "Cholesky solve: rhs {} / out {} vs n {}",
                    b.len(),
                    out.len(),
                    n
                ),
            });
        }
        out.copy_from_slice(b);
        // Forward: L·z = b (row dots).
        for i in 0..n {
            let row = self.l.row(i);
            out[i] = (out[i] - dot_lanes(&row[..i], &out[..i])) / row[i];
        }
        // Backward: Lᵀ·x = z as a column sweep expressed over rows.
        for j in (0..n).rev() {
            let row = self.l.row(j);
            let xj = out[j] / row[j];
            out[j] = xj;
            if xj != 0.0 {
                for (zk, &ljk) in out[..j].iter_mut().zip(&row[..j]) {
                    *zk -= ljk * xj;
                }
            }
        }
        Ok(())
    }

    /// Rank-one **update**: replace the factorization of `A` by that of
    /// `A + v·vᵀ` in `O(n²)`, without touching `A` itself. The classic
    /// Givens-based algorithm (Golub & Van Loan §12.5): always stable,
    /// since an update keeps the matrix positive definite.
    pub fn update(&mut self, v: &[f64]) -> Result<()> {
        let n = self.l.rows();
        if v.len() != n {
            return Err(LinalgError::ShapeMismatch {
                context: format!("Cholesky update: v {} vs n {}", v.len(), n),
            });
        }
        let mut w = v.to_vec();
        for j in 0..n {
            let ljj = self.l.get(j, j);
            let r = (ljj * ljj + w[j] * w[j]).sqrt();
            let c = r / ljj;
            let s = w[j] / ljj;
            self.l.set(j, j, r);
            for i in (j + 1)..n {
                let lij = (self.l.get(i, j) + s * w[i]) / c;
                w[i] = c * w[i] - s * lij;
                self.l.set(i, j, lij);
            }
        }
        Ok(())
    }

    /// Rank-one **downdate**: replace the factorization of `A` by that
    /// of `A − v·vᵀ` in `O(n²)` (hyperbolic rotations). Fails with
    /// [`LinalgError::NotPositiveDefinite`] when the result would not
    /// be positive definite (including near-singular cases where the
    /// downdate is numerically unsafe); the factor is then left in an
    /// unspecified state and must be rebuilt.
    pub fn downdate(&mut self, v: &[f64]) -> Result<()> {
        let n = self.l.rows();
        if v.len() != n {
            return Err(LinalgError::ShapeMismatch {
                context: format!("Cholesky downdate: v {} vs n {}", v.len(), n),
            });
        }
        let mut w = v.to_vec();
        for j in 0..n {
            let ljj = self.l.get(j, j);
            let d = ljj * ljj - w[j] * w[j];
            // Refuse unsafe downdates: the hyperbolic rotation blows up
            // as d → 0 even before definiteness is lost.
            if d <= 1e-12 * ljj * ljj || !d.is_finite() {
                return Err(LinalgError::NotPositiveDefinite { index: j });
            }
            let r = d.sqrt();
            let c = r / ljj;
            let s = w[j] / ljj;
            self.l.set(j, j, r);
            for i in (j + 1)..n {
                let lij = (self.l.get(i, j) - s * w[i]) / c;
                w[i] = c * w[i] - s * lij;
                self.l.set(i, j, lij);
            }
        }
        Ok(())
    }

    /// The lower-triangular factor.
    pub fn l(&self) -> &Mat {
        &self.l
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spd() -> Mat {
        Mat::from_rows(&[
            vec![4.0, 2.0, 0.6],
            vec![2.0, 5.0, 1.0],
            vec![0.6, 1.0, 3.0],
        ])
    }

    #[test]
    fn factor_reconstructs() {
        let a = spd();
        let ch = Cholesky::factor(&a).unwrap();
        let l = ch.l();
        let rec = l.matmul(&l.transpose()).unwrap();
        for i in 0..3 {
            for j in 0..3 {
                assert!((rec.get(i, j) - a.get(i, j)).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn solve_matches_direct() {
        let a = spd();
        let xtrue = vec![1.0, -2.0, 0.5];
        let b = a.matvec(&xtrue);
        let x = Cholesky::factor(&a).unwrap().solve(&b).unwrap();
        for i in 0..3 {
            assert!((x[i] - xtrue[i]).abs() < 1e-12);
        }
    }

    #[test]
    fn factor_fast_matches_factor_to_rounding() {
        // Lane-reassociated factorization: same factor up to 1-ulp
        // rounding noise, same definiteness verdicts.
        let n = 23;
        let mut state = 0xabcdefu64;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as f64 / u32::MAX as f64 - 0.5
        };
        let b = Mat::from_fn(n, n, |_, _| next());
        let mut a = b.gram();
        for i in 0..n {
            a.add_to(i, i, 0.5);
        }
        let slow = Cholesky::factor(&a).unwrap();
        let fast = Cholesky::factor_fast(&a).unwrap();
        for i in 0..n {
            for j in 0..=i {
                let (s, f) = (slow.l().get(i, j), fast.l().get(i, j));
                assert!(
                    (s - f).abs() <= 1e-12 * (1.0 + s.abs()),
                    "L[{i}][{j}]: {s} vs {f}"
                );
            }
        }
        // Same rejection behavior.
        let indef = Mat::from_rows(&[vec![1.0, 2.0], vec![2.0, 1.0]]);
        assert!(Cholesky::factor_fast(&indef).is_err());
        assert!(Cholesky::factor_fast(&Mat::zeros(2, 3)).is_err());
        // Solves agree to solver precision, through both solve kernels.
        let rhs: Vec<f64> = (0..n).map(|i| (i as f64).sin()).collect();
        let xs = slow.solve(&rhs).unwrap();
        let xf = fast.solve(&rhs).unwrap();
        let mut xff = vec![0.0; n];
        fast.solve_fast_into(&rhs, &mut xff).unwrap();
        for i in 0..n {
            assert!((xs[i] - xf[i]).abs() < 1e-10 * (1.0 + xs[i].abs()));
            assert!((xs[i] - xff[i]).abs() < 1e-10 * (1.0 + xs[i].abs()));
        }
        assert!(fast.solve_fast_into(&rhs, &mut [0.0; 2]).is_err());
        assert!(fast.solve_fast_into(&[1.0], &mut xff).is_err());
    }

    #[test]
    fn rejects_indefinite() {
        let a = Mat::from_rows(&[vec![1.0, 2.0], vec![2.0, 1.0]]); // eigenvalues 3, -1
        assert!(matches!(
            Cholesky::factor(&a),
            Err(LinalgError::NotPositiveDefinite { .. })
        ));
    }

    #[test]
    fn rejects_non_square_and_bad_rhs() {
        assert!(Cholesky::factor(&Mat::zeros(2, 3)).is_err());
        let ch = Cholesky::factor(&Mat::identity(2)).unwrap();
        assert!(ch.solve(&[1.0]).is_err());
    }

    #[test]
    fn rank_one_update_matches_refactorization() {
        let a = spd();
        let v = [0.7, -0.3, 1.1];
        let mut ch = Cholesky::factor(&a).unwrap();
        ch.update(&v).unwrap();
        let mut a2 = a.clone();
        for i in 0..3 {
            for j in 0..3 {
                a2.add_to(i, j, v[i] * v[j]);
            }
        }
        let fresh = Cholesky::factor(&a2).unwrap();
        for i in 0..3 {
            for j in 0..=i {
                assert!(
                    (ch.l().get(i, j) - fresh.l().get(i, j)).abs() < 1e-12,
                    "L[{i}][{j}]"
                );
            }
        }
        assert!(ch.update(&[1.0]).is_err());
    }

    #[test]
    fn rank_one_downdate_matches_refactorization() {
        let a = spd();
        let v = [0.4, 0.2, -0.5];
        let mut a2 = a.clone();
        for i in 0..3 {
            for j in 0..3 {
                a2.add_to(i, j, v[i] * v[j]);
            }
        }
        // Factor A + vvᵀ, downdate v: must recover the factor of A.
        let mut ch = Cholesky::factor(&a2).unwrap();
        ch.downdate(&v).unwrap();
        let fresh = Cholesky::factor(&a).unwrap();
        for i in 0..3 {
            for j in 0..=i {
                assert!(
                    (ch.l().get(i, j) - fresh.l().get(i, j)).abs() < 1e-11,
                    "L[{i}][{j}]: {} vs {}",
                    ch.l().get(i, j),
                    fresh.l().get(i, j)
                );
            }
        }
        // Solves agree after a chain of updates/downdates.
        let mut ch = Cholesky::factor(&a).unwrap();
        ch.update(&[1.0, 0.0, 0.5]).unwrap();
        ch.update(&v).unwrap();
        ch.downdate(&[1.0, 0.0, 0.5]).unwrap();
        let mut a3 = a.clone();
        for i in 0..3 {
            for j in 0..3 {
                a3.add_to(i, j, v[i] * v[j]);
            }
        }
        let x = ch.solve(&[1.0, 2.0, 3.0]).unwrap();
        let want = Cholesky::factor(&a3)
            .unwrap()
            .solve(&[1.0, 2.0, 3.0])
            .unwrap();
        for i in 0..3 {
            assert!((x[i] - want[i]).abs() < 1e-9, "{} vs {}", x[i], want[i]);
        }
        // Removing more than the matrix holds must fail cleanly.
        let mut ch = Cholesky::factor(&Mat::identity(2)).unwrap();
        assert!(ch.downdate(&[2.0, 0.0]).is_err());
        let mut ch = Cholesky::factor(&Mat::identity(2)).unwrap();
        assert!(ch.downdate(&[1.0]).is_err());
    }
}
