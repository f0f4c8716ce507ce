//! Cholesky factorization of symmetric positive definite matrices.
//!
//! Callers: the dual-Newton Woodbury kernel (`factor_fast`, applied in
//! PCG through `solve_fast_into`), the SSN dense factor (`factor_fast`),
//! the dense projected Newton and the ridge kernel (`factor` and
//! `solve`).
//!
//! The kernels are blocked so that several dot products share their
//! loads, yet every scalar goes through exactly the floating-point
//! operations of the one-dot-at-a-time loop: the blocking changes the
//! order in which scalars are computed, never how any one of them is.

use serde::{Deserialize, Serialize};

use crate::dense::Mat;
use crate::error::LinalgError;
use crate::Result;

/// Columns (rows, in the forward solve) processed as one group: the
/// chunk width of the eight-lane dot, so every member of group `c`
/// shares the full-chunk prefix `[..8c]`.
const GROUP: usize = 8;

/// Rows whose entries in a column group `factor_fast` finishes
/// together.
const ROWS: usize = 16;

/// The eight lanes of the `_fast` kernels' dot product, for `a[..8c]`
/// against the first `w ≤ 8` vectors of `b`, none shorter than `a`:
/// lane `l` of vector `q` accumulates `a[8k+l]·b_q[8k+l]` in ascending
/// chunk `k`, starting from `0.0`. Two vectors share each pass over
/// `a`; a pass past `w` repeats the last vector and is discarded.
///
/// Out of line, with the lane reduction left to [`group_dots`]: inlined
/// next to the reduction, the vectorizer packs across the vectors
/// instead of along the lanes and the kernel runs slower than one dot
/// at a time.
#[inline(never)]
fn group_lanes(a: &[f64], b: [&[f64]; GROUP], w: usize) -> [[f64; GROUP]; GROUP] {
    let (ca, rest) = a.as_chunks::<GROUP>();
    debug_assert!(rest.is_empty());
    let cb = b.map(|v| &v.as_chunks::<GROUP>().0[..ca.len()]);
    let mut out = [[0.0f64; GROUP]; GROUP];
    for h in (0..w).step_by(2) {
        let mut acc = [[0.0f64; GROUP]; 2];
        for (k, xa) in ca.iter().enumerate() {
            for (acc_q, cb_q) in acc.iter_mut().zip(&cb[h..h + 2]) {
                let xb = &cb_q[k];
                for l in 0..GROUP {
                    acc_q[l] += xa[l] * xb[l];
                }
            }
        }
        out[h..h + 2].copy_from_slice(&acc);
    }
    out
}

/// [`group_lanes`] reduced lane by lane in the fixed tree
/// `((0+1)+(2+3))+((4+5)+(6+7))`: each vector's dot with `a` over the
/// full chunks. Reassociated against a sequential fold, but the same
/// at every call.
#[inline(always)]
fn group_dots(a: &[f64], b: [&[f64]; GROUP], w: usize) -> [f64; GROUP] {
    group_lanes(a, b, w).map(|v| ((v[0] + v[1]) + (v[2] + v[3])) + ((v[4] + v[5]) + (v[6] + v[7])))
}

/// Finish a lane dot: fold the products past the last full chunk into
/// the reduced sum `s`, in ascending order.
#[inline(always)]
fn dot_tail(mut s: f64, a: &[f64], b: &[f64]) -> f64 {
    for (x, y) in a.iter().zip(b) {
        s += x * y;
    }
    s
}

/// `z -= x·l`, or nothing when `x` is zero: subtracting a zero product
/// could still flip a `-0.0` in `z`.
#[inline(always)]
fn sub_scaled(z: &mut [f64], l: &[f64], x: f64) {
    if x != 0.0 {
        for (zk, &lk) in z.iter_mut().zip(l) {
            *zk -= lk * x;
        }
    }
}

/// The full-chunk prefixes `[..j0]` of rows `j0..j0+w` of the `n × n`
/// buffer `ld`, padded to eight with the last.
fn group_prefixes(ld: &[f64], n: usize, j0: usize, w: usize) -> [&[f64]; GROUP] {
    std::array::from_fn(|q| {
        let j = j0 + q.min(w - 1);
        &ld[j * n..j * n + j0]
    })
}

/// The lower triangle of a square `a` as a flat row-major buffer (the
/// strict upper triangle zero): the workspace both factorizations
/// overwrite with `L`.
fn lower_triangle(a: &Mat) -> Result<(usize, Vec<f64>)> {
    if a.rows() != a.cols() {
        return Err(LinalgError::ShapeMismatch {
            context: format!("Cholesky of non-square {}x{}", a.rows(), a.cols()),
        });
    }
    let n = a.rows();
    let mut ld = vec![0.0f64; n * n];
    for (i, row) in ld.chunks_exact_mut(n.max(1)).take(n).enumerate() {
        row[..=i].copy_from_slice(&a.row(i)[..=i]);
    }
    Ok((n, ld))
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
    ///
    /// Strict order: every entry subtracts its products one at a time
    /// in ascending `k`. Four rows of a column run their independent
    /// chains side by side over the shared row of `L_j`, which hides
    /// the latency of each chain without reordering any of them.
    pub fn factor(a: &Mat) -> Result<Self> {
        let (n, mut ld) = lower_triangle(a)?;
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
            let mut quads = below.chunks_exact_mut(4 * n);
            for quad in &mut quads {
                let (r0, rest) = quad.split_at_mut(n);
                let (r1, rest) = rest.split_at_mut(n);
                let (r2, r3) = rest.split_at_mut(n);
                let mut v = [r0[j], r1[j], r2[j], r3[j]];
                let (p0, p1, p2, p3) = (&r0[..j], &r1[..j], &r2[..j], &r3[..j]);
                for k in 0..j {
                    let ljk = row_j[k];
                    v[0] -= p0[k] * ljk;
                    v[1] -= p1[k] * ljk;
                    v[2] -= p2[k] * ljk;
                    v[3] -= p3[k] * ljk;
                }
                r0[j] = v[0] / dj;
                r1[j] = v[1] / dj;
                r2[j] = v[2] / dj;
                r3[j] = v[3] / dj;
            }
            for row_i in quads.into_remainder().chunks_exact_mut(n) {
                let mut v = row_i[j];
                for (lik, ljk) in row_i[..j].iter().zip(row_j) {
                    v -= lik * ljk;
                }
                row_i[j] = v / dj;
            }
        }
        Ok(Cholesky {
            l: Mat::from_vec(n, n, ld),
        })
    }

    /// Factor with every inner dot product split over eight independent
    /// accumulator lanes. The reassociation changes rounding at the
    /// 1-ulp level — results are **not** bit-identical to
    /// [`Cholesky::factor`] — but the lanes break the sequential
    /// floating-point dependence that keeps the strict-order kernel
    /// scalar. The columns go in groups of eight that share one
    /// full-chunk prefix, so each row's prefix feeds two dots per pass
    /// over it. On a 334 × 334 kernel this takes about 1.5 ms against
    /// 1.95 ms for [`Cholesky::factor`] (2-vCPU VM, baseline x86-64
    /// build); at 132 × 132 the two are about even. Use it for
    /// throughput-critical inner loops; keep [`Cholesky::factor`] where
    /// the bits must agree with the strict-order reference.
    pub fn factor_fast(a: &Mat) -> Result<Self> {
        let (n, mut ld) = lower_triangle(a)?;
        for j0 in (0..n).step_by(GROUP) {
            let w = (n - j0).min(GROUP);
            // A block of rows at a time, from the group's diagonal down:
            // every row's prefix dots first, then each column across the
            // block, so the rows' short finishing chains run side by
            // side. Row j settles column j's diagonal before the rows
            // below it divide by it.
            for r0 in (j0..n).step_by(ROWS) {
                let r1 = (r0 + ROWS).min(n);
                let mut pre = [[0.0f64; GROUP]; ROWS];
                let cols = group_prefixes(&ld, n, j0, w);
                for (p, i) in pre.iter_mut().zip(r0..r1) {
                    *p = group_dots(&ld[i * n..i * n + j0], cols, w);
                }
                for j in j0..j0 + w {
                    for i in j.max(r0)..r1 {
                        let s = dot_tail(
                            pre[i - r0][j - j0],
                            &ld[i * n + j0..i * n + j],
                            &ld[j * n + j0..j * n + j],
                        );
                        let v = ld[i * n + j] - s;
                        ld[i * n + j] = if i > j {
                            v / ld[j * n + j]
                        } else if v <= 0.0 || !v.is_finite() {
                            return Err(LinalgError::NotPositiveDefinite { index: j });
                        } else {
                            v.sqrt()
                        };
                    }
                }
            }
        }
        Ok(Cholesky {
            l: Mat::from_vec(n, n, ld),
        })
    }

    /// Solve `A·x = b` via the two triangular solves, in strict order.
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
            let row = self.l.row(i);
            let mut acc = y[i];
            for (lij, yj) in row[..i].iter().zip(&y[..i]) {
                acc -= lij * yj;
            }
            y[i] = acc / row[i];
        }
        // Backward: Lᵀ·x = y. Ascending j gathers a strided column, so
        // no row slice serves here.
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
    /// to [`Cholesky::solve`]), eight rows at a time over their shared
    /// prefix of `z`; the backward sweep runs as a column sweep over
    /// **rows** (`z[..j] -= x_j·L_j[..j]`, a contiguous slice axpy),
    /// four columns fused into one pass, instead of gathering a strided
    /// column. Use on hot solve paths (e.g. a PCG preconditioner
    /// applied dozens of times per Newton step).
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
        for i0 in (0..n).step_by(GROUP) {
            let w = (n - i0).min(GROUP);
            let pre = group_dots(&out[..i0], group_prefixes(self.l.data(), n, i0, w), w);
            for (q, &s) in pre[..w].iter().enumerate() {
                let i = i0 + q;
                let row = self.l.row(i);
                out[i] = (out[i] - dot_tail(s, &row[i0..i], &out[i0..i])) / row[i];
            }
        }
        // Backward: Lᵀ·x = z as a column sweep expressed over rows. Each
        // z_k still takes its subtractions in descending j, and a zero
        // x_j still subtracts nothing.
        let mut j = n;
        while j >= 4 {
            let base = j - 4;
            let rows: [&[f64]; 4] = std::array::from_fn(|q| self.l.row(j - 1 - q));
            let mut x = [0.0f64; 4];
            for q in 0..4 {
                let jq = j - 1 - q;
                let xq = out[jq] / rows[q][jq];
                out[jq] = xq;
                x[q] = xq;
                sub_scaled(&mut out[base..jq], &rows[q][base..jq], xq);
            }
            if x.iter().all(|&xq| xq != 0.0) {
                let [r0, r1, r2, r3] = rows.map(|r| &r[..base]);
                for (k, zk) in out[..base].iter_mut().enumerate() {
                    let mut z = *zk;
                    z -= r0[k] * x[0];
                    z -= r1[k] * x[1];
                    z -= r2[k] * x[2];
                    z -= r3[k] * x[3];
                    *zk = z;
                }
            } else {
                for (row, &xq) in rows.iter().zip(&x) {
                    sub_scaled(&mut out[..base], row, xq);
                }
            }
            j = base;
        }
        for j in (0..j).rev() {
            let row = self.l.row(j);
            let xj = out[j] / row[j];
            out[j] = xj;
            sub_scaled(&mut out[..j], row, xj);
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

    /// The one-dot-at-a-time kernels the blocked ones replaced, kept
    /// as the bit-level reference for them.
    mod oracle {
        use super::*;

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
            let mut s =
                ((acc[0] + acc[1]) + (acc[2] + acc[3])) + ((acc[4] + acc[5]) + (acc[6] + acc[7]));
            for (xa, xb) in ra.iter().zip(rb) {
                s += xa * xb;
            }
            s
        }

        pub fn factor(a: &Mat) -> Result<Mat> {
            let n = a.rows();
            let mut l = Mat::zeros(n, n);
            for j in 0..n {
                let mut d = a.get(j, j);
                for k in 0..j {
                    d -= l.get(j, k) * l.get(j, k);
                }
                if d <= 0.0 || !d.is_finite() {
                    return Err(LinalgError::NotPositiveDefinite { index: j });
                }
                let dj = d.sqrt();
                l.set(j, j, dj);
                for i in (j + 1)..n {
                    let mut v = a.get(i, j);
                    for k in 0..j {
                        v -= l.get(i, k) * l.get(j, k);
                    }
                    l.set(i, j, v / dj);
                }
            }
            Ok(l)
        }

        pub fn factor_fast(a: &Mat) -> Result<Mat> {
            let n = a.rows();
            let mut l = Mat::zeros(n, n);
            for j in 0..n {
                let d = a.get(j, j) - dot_lanes(&l.row(j)[..j], &l.row(j)[..j]);
                if d <= 0.0 || !d.is_finite() {
                    return Err(LinalgError::NotPositiveDefinite { index: j });
                }
                let dj = d.sqrt();
                l.set(j, j, dj);
                for i in (j + 1)..n {
                    let v = (a.get(i, j) - dot_lanes(&l.row(i)[..j], &l.row(j)[..j])) / dj;
                    l.set(i, j, v);
                }
            }
            Ok(l)
        }

        pub fn solve(l: &Mat, b: &[f64]) -> Vec<f64> {
            let n = l.rows();
            let mut y = b.to_vec();
            for i in 0..n {
                let mut acc = y[i];
                for j in 0..i {
                    acc -= l.get(i, j) * y[j];
                }
                y[i] = acc / l.get(i, i);
            }
            for i in (0..n).rev() {
                let mut acc = y[i];
                for j in (i + 1)..n {
                    acc -= l.get(j, i) * y[j];
                }
                y[i] = acc / l.get(i, i);
            }
            y
        }

        pub fn solve_fast(l: &Mat, b: &[f64]) -> Vec<f64> {
            let n = l.rows();
            let mut out = b.to_vec();
            for i in 0..n {
                let row = l.row(i);
                out[i] = (out[i] - dot_lanes(&row[..i], &out[..i])) / row[i];
            }
            for j in (0..n).rev() {
                let row = l.row(j);
                let xj = out[j] / row[j];
                out[j] = xj;
                if xj != 0.0 {
                    for (zk, &ljk) in out[..j].iter_mut().zip(&row[..j]) {
                        *zk -= ljk * xj;
                    }
                }
            }
            out
        }
    }

    /// A small deterministic generator in [-0.5, 0.5).
    fn lcg(seed: u64) -> impl FnMut() -> f64 {
        let mut state = seed;
        move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as f64 / u32::MAX as f64 - 0.5
        }
    }

    /// Dense SPD: `BᵀB/n + ½I` for a random square `B`.
    fn random_spd(n: usize, seed: u64) -> Mat {
        let mut next = lcg(seed);
        let b = Mat::from_fn(n, n, |_, _| next());
        let mut a = b.gram();
        a.scale(1.0 / n as f64);
        for i in 0..n {
            a.add_to(i, i, 0.5);
        }
        a
    }

    /// The dual-Newton kernel's shape: `½I + Σ w·a·aᵀ` over sparse
    /// columns `a` of two to five entries, so many rows stay decoupled.
    fn kernel_shaped(n: usize, seed: u64) -> Mat {
        let mut next = lcg(seed);
        let mut a = Mat::identity(n);
        a.scale(0.5);
        for _ in 0..n / 2 {
            let nnz = 2 + ((next() + 0.5) * 4.0) as usize;
            let idx: Vec<usize> = (0..nnz)
                .map(|_| (((next() + 0.5) * n as f64) as usize).min(n - 1))
                .collect();
            let w = 1.0 / (0.1 + (next() + 0.5) * 50.0);
            for &r1 in &idx {
                for &r2 in &idx {
                    a.add_to(r1, r2, w);
                }
            }
        }
        a
    }

    /// Right-hand sides with exact zeros (both signs) next to nonzeros.
    fn rhs(n: usize, seed: u64) -> Vec<f64> {
        let mut next = lcg(seed);
        (0..n)
            .map(|i| match i % 5 {
                1 => 0.0,
                3 if i % 2 == 0 => -0.0,
                _ => next() * 10.0,
            })
            .collect()
    }

    /// Rows `(2t, 2t+1)` coupled by `−½` and decoupled from the rest.
    /// With [`pair_zeros`] as the right-hand side, the solves meet
    /// exact zeros of both signs, where skipping a zero `x_j` and
    /// subtracting `L_jk·x_j` differ in the sign bit.
    fn coupled_pairs(n: usize) -> Mat {
        let mut a = Mat::identity(n);
        for t in 0..n / 2 {
            a.set(2 * t + 1, 2 * t, -0.5);
            a.set(2 * t, 2 * t + 1, -0.5);
        }
        a
    }

    /// `[−0, +0]` on every third pair, positive elsewhere.
    fn pair_zeros(n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| match (i / 2 % 3, i % 2) {
                (0, 0) => -0.0,
                (0, _) => 0.0,
                _ => 1.0 + i as f64,
            })
            .collect()
    }

    fn same_bits(want: &[f64], got: &[f64], what: &str) {
        assert_eq!(want.len(), got.len(), "{what}: length");
        for (k, (w, g)) in want.iter().zip(got).enumerate() {
            assert_eq!(w.to_bits(), g.to_bits(), "{what}[{k}]: {w} vs {g}");
        }
    }

    #[test]
    fn blocked_kernels_match_the_one_dot_kernels_bit_for_bit() {
        let sizes = (1..=40).chain([63, 64, 65, 97, 334]);
        for n in sizes {
            for (shape, a) in [
                ("spd", random_spd(n, 17 + n as u64)),
                ("kernel", kernel_shaped(n, 91 + n as u64)),
                ("pairs", coupled_pairs(n)),
            ] {
                let what = format!("{shape} n={n}");
                let strict = Cholesky::factor(&a).unwrap();
                let fast = Cholesky::factor_fast(&a).unwrap();
                let strict_want = oracle::factor(&a).unwrap();
                let fast_want = oracle::factor_fast(&a).unwrap();
                same_bits(
                    strict_want.data(),
                    strict.l().data(),
                    &format!("factor {what}"),
                );
                same_bits(
                    fast_want.data(),
                    fast.l().data(),
                    &format!("factor_fast {what}"),
                );
                for b in [rhs(n, 3 + n as u64), rhs(n, 4 + n as u64), pair_zeros(n)] {
                    let want = oracle::solve(strict.l(), &b);
                    same_bits(&want, &strict.solve(&b).unwrap(), &format!("solve {what}"));
                    let want = oracle::solve_fast(fast.l(), &b);
                    let mut got = vec![f64::NAN; n];
                    fast.solve_fast_into(&b, &mut got).unwrap();
                    same_bits(&want, &got, &format!("solve_fast_into {what}"));
                }
                // Indefinite at a chosen pivot: both kernels stop at the
                // same index as their references.
                for p in [0, n / 3, n - 1] {
                    let mut bad = a.clone();
                    bad.set(p, p, -1.0);
                    let want = Err(LinalgError::NotPositiveDefinite { index: p });
                    assert_eq!(oracle::factor(&bad).map(|_| ()), want, "{what} p={p}");
                    assert_eq!(Cholesky::factor(&bad).map(|_| ()), want, "{what} p={p}");
                    assert_eq!(oracle::factor_fast(&bad).map(|_| ()), want, "{what} p={p}");
                    assert_eq!(
                        Cholesky::factor_fast(&bad).map(|_| ()),
                        want,
                        "{what} p={p}"
                    );
                }
                let mut nan = a.clone();
                nan.set(n - 1, n / 2, f64::NAN);
                let want = oracle::factor(&nan).map(|_| ());
                assert!(want.is_err(), "NaN {what}");
                assert_eq!(Cholesky::factor(&nan).map(|_| ()), want, "NaN {what}");
                let want = oracle::factor_fast(&nan).map(|_| ());
                assert_eq!(Cholesky::factor_fast(&nan).map(|_| ()), want, "NaN {what}");
            }
        }
    }

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
