//! Equality-constrained quadratic programming via the KKT system.
//!
//! The fanout estimator (paper §4.2.4) is the problem
//!
//! ```text
//! minimize   Σ_k ‖R·S[k]·α − t[k]‖²
//! subject to Σ_m α_nm = 1   for every source node n
//! ```
//!
//! which is `min ½αᵀHα − gᵀα  s.t.  C·α = d` with `H` assembled from the
//! per-interval Gram matrices. This module solves the generic problem by
//! factorizing the KKT matrix, with an optional projection step to handle
//! the nonnegativity of fanouts (clip-and-renormalize, as the paper's
//! formulation relies on the equality-constrained QP solution).

use tm_linalg::decomp::Lu;
use tm_linalg::{vector, Csr, Mat};

use crate::error::OptError;
use crate::Result;

/// Solution of an equality-constrained QP.
#[derive(Debug, Clone)]
pub struct EqQpSolution {
    /// Primal minimizer.
    pub x: Vec<f64>,
    /// Lagrange multipliers of `C·x = d`.
    pub multipliers: Vec<f64>,
    /// Constraint residual `‖C·x − d‖∞`.
    pub constraint_residual: f64,
}

/// Solve `min ½xᵀHx − gᵀx  s.t.  C·x = d`.
///
/// `H` must be symmetric positive semidefinite; `ridge` is added to its
/// diagonal to keep the KKT system nonsingular when `H` is singular on
/// the constraint null space (pass `0.0` when `H ≻ 0`).
pub fn solve_eq_qp(h: &Mat, g: &[f64], c: &Mat, d: &[f64], ridge: f64) -> Result<EqQpSolution> {
    let n = h.rows();
    if h.cols() != n {
        return Err(OptError::Invalid(format!(
            "qp: H must be square, got {}x{}",
            h.rows(),
            h.cols()
        )));
    }
    if g.len() != n || c.cols() != n || d.len() != c.rows() {
        return Err(OptError::Invalid(format!(
            "qp: inconsistent shapes H {}x{}, g {}, C {}x{}, d {}",
            h.rows(),
            h.cols(),
            g.len(),
            c.rows(),
            c.cols(),
            d.len()
        )));
    }
    let m = c.rows();

    // KKT system: [H + ρI, Cᵀ; C, 0]·[x; ν] = [g; d]
    let mut kkt = Mat::zeros(n + m, n + m);
    for i in 0..n {
        for j in 0..n {
            kkt.set(i, j, h.get(i, j));
        }
        kkt.add_to(i, i, ridge);
    }
    for r in 0..m {
        for j in 0..n {
            kkt.set(n + r, j, c.get(r, j));
            kkt.set(j, n + r, c.get(r, j));
        }
    }
    let mut rhs = vec![0.0; n + m];
    rhs[..n].copy_from_slice(g);
    rhs[n..].copy_from_slice(d);

    let lu = Lu::factor(&kkt)?;
    let sol = lu.solve(&rhs)?;
    let x = sol[..n].to_vec();
    let multipliers = sol[n..].to_vec();
    let cres = {
        let cx = c.matvec(&x);
        let diff = vector::sub(&cx, d);
        vector::norm_inf(&diff)
    };
    Ok(EqQpSolution {
        x,
        multipliers,
        constraint_residual: cres,
    })
}

/// Groups of indices whose entries must each sum to a constant (used by
/// the fanout estimator: one group per source node).
#[derive(Debug, Clone)]
pub struct SumConstraints {
    /// `groups[i]` lists the variable indices of group `i`.
    pub groups: Vec<Vec<usize>>,
    /// Required sum per group.
    pub sums: Vec<f64>,
}

impl SumConstraints {
    /// Build the dense constraint matrix `C` and rhs `d`.
    pub fn to_matrix(&self, n: usize) -> Result<(Mat, Vec<f64>)> {
        if self.groups.len() != self.sums.len() {
            return Err(OptError::Invalid(
                "sum constraints: group/sum length mismatch".into(),
            ));
        }
        let mut c = Mat::zeros(self.groups.len(), n);
        for (r, group) in self.groups.iter().enumerate() {
            for &j in group {
                if j >= n {
                    return Err(OptError::Invalid(format!(
                        "sum constraints: index {j} out of bounds for {n}"
                    )));
                }
                c.set(r, j, 1.0);
            }
        }
        Ok((c, self.sums.clone()))
    }
}

/// Solve the *group-sum* equality-constrained QP on a **sparse** Hessian:
///
/// `min ½xᵀ(H + ρI)x − gᵀx  s.t.  Σ_{j ∈ group_i} x_j = d_i`
///
/// by projected conjugate gradients on the constraint null space. The
/// groups must be pairwise disjoint (each variable in at most one
/// group), which makes the null-space projection a per-group mean
/// subtraction — O(n) per CG iteration on top of one sparse matvec.
/// This is the sparse-first path for the fanout estimator: no dense
/// `(n + m)²` KKT matrix is ever formed and each iteration costs
/// O(nnz(H)).
///
/// `H + ρI` must be positive definite on the constraint null space
/// (guaranteed for the fanout Hessian with any `ridge > 0`; with
/// `ridge = 0` it holds exactly when the window is identifiable). CG
/// runs at most `10n + 50` iterations.
pub fn solve_group_sum_qp_sparse(
    h: &Csr,
    g: &[f64],
    constraints: &SumConstraints,
    ridge: f64,
    tol: f64,
) -> Result<Vec<f64>> {
    let n = h.rows();
    if h.cols() != n {
        return Err(OptError::Invalid(format!(
            "group-sum qp: H must be square, got {}x{}",
            h.rows(),
            h.cols()
        )));
    }
    if g.len() != n || constraints.groups.len() != constraints.sums.len() {
        return Err(OptError::Invalid(
            "group-sum qp: inconsistent g/groups/sums lengths".into(),
        ));
    }
    // Disjointness check doubles as the bounds check.
    let mut owner = vec![usize::MAX; n];
    for (gi, group) in constraints.groups.iter().enumerate() {
        if group.is_empty() {
            return Err(OptError::Invalid(format!("group-sum qp: empty group {gi}")));
        }
        for &j in group {
            if j >= n {
                return Err(OptError::Invalid(format!(
                    "group-sum qp: index {j} out of bounds for {n}"
                )));
            }
            if owner[j] != usize::MAX {
                return Err(OptError::Invalid(format!(
                    "group-sum qp: variable {j} appears in groups {} and {gi}",
                    owner[j]
                )));
            }
            owner[j] = gi;
        }
    }

    // Feasible start: each group's target spread uniformly.
    let mut x = vec![0.0; n];
    for (gi, group) in constraints.groups.iter().enumerate() {
        let share = constraints.sums[gi] / group.len() as f64;
        for &j in group {
            x[j] = share;
        }
    }

    // Null-space projection: subtract the per-group mean.
    let project = |v: &mut [f64]| {
        for group in &constraints.groups {
            let mean: f64 = group.iter().map(|&j| v[j]).sum::<f64>() / group.len() as f64;
            for &j in group {
                v[j] -= mean;
            }
        }
    };
    // M·v = (H + ρI)·v.
    let mut mv = vec![0.0; n];
    let apply = |v: &[f64], out: &mut Vec<f64>| {
        h.matvec_into(v, out);
        if ridge != 0.0 {
            for (o, &vi) in out.iter_mut().zip(v) {
                *o += ridge * vi;
            }
        }
    };

    // CG on P·M·P d = P(g − M x0), x = x0 + d.
    apply(&x, &mut mv);
    let mut r: Vec<f64> = g.iter().zip(&mv).map(|(gi, mi)| gi - mi).collect();
    project(&mut r);
    let r0 = vector::norm2(&r);
    if r0 == 0.0 {
        return Ok(x);
    }
    let mut p = r.clone();
    let mut rr = r0 * r0;
    let budget = 10 * n + 50;
    for _ in 0..budget {
        apply(&p, &mut mv);
        project(&mut mv);
        let pap = vector::dot(&p, &mv);
        if pap <= 0.0 {
            // Singular on the null space (e.g. ridge = 0 and an
            // unidentifiable window): stop at the current feasible
            // iterate rather than dividing by ~0.
            return Ok(x);
        }
        let alpha = rr / pap;
        vector::axpy(alpha, &p, &mut x);
        vector::axpy(-alpha, &mv, &mut r);
        let rr_new = vector::dot(&r, &r);
        if rr_new.sqrt() <= tol * r0 {
            return Ok(x);
        }
        let beta = rr_new / rr;
        for i in 0..n {
            p[i] = r[i] + beta * p[i];
        }
        rr = rr_new;
    }
    Err(OptError::DidNotConverge {
        iterations: budget,
        measure: rr.sqrt() / r0,
    })
}

/// Clip negative entries to zero and rescale each group to its required
/// sum — the pragmatic post-processing step for fanout estimates, which
/// must be probability distributions per source.
pub fn clip_and_renormalize(x: &mut [f64], constraints: &SumConstraints) {
    for (gi, group) in constraints.groups.iter().enumerate() {
        let mut sum = 0.0;
        for &j in group {
            if x[j] < 0.0 {
                x[j] = 0.0;
            }
            sum += x[j];
        }
        let target = constraints.sums[gi];
        if sum > 0.0 && target > 0.0 {
            let scale = target / sum;
            for &j in group {
                x[j] *= scale;
            }
        } else if target > 0.0 {
            // Degenerate group: fall back to uniform.
            let uniform = target / group.len() as f64;
            for &j in group {
                x[j] = uniform;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn projects_onto_affine_constraint() {
        // min ½‖x − p‖² s.t. x1 + x2 = 1 is the projection of p onto the
        // simplex-affine set. For p = (0.8, 0.8): x = (0.5, 0.5) + ... =
        // p − ((Σp − 1)/2)·1 = (0.5 + 0.3, 0.5 + 0.3) − ... compute: Σp = 1.6,
        // correction 0.3 each ⇒ x = (0.5, 0.5).
        let h = Mat::identity(2);
        let g = [0.8, 0.8];
        let c = Mat::from_rows(&[vec![1.0, 1.0]]);
        let d = [1.0];
        let sol = solve_eq_qp(&h, &g, &c, &d, 0.0).unwrap();
        assert!((sol.x[0] - 0.5).abs() < 1e-10);
        assert!((sol.x[1] - 0.5).abs() < 1e-10);
        assert!(sol.constraint_residual < 1e-10);
    }

    #[test]
    fn kkt_stationarity_holds() {
        let h = Mat::from_rows(&[vec![3.0, 1.0], vec![1.0, 2.0]]);
        let g = [1.0, -1.0];
        let c = Mat::from_rows(&[vec![1.0, 2.0]]);
        let d = [3.0];
        let sol = solve_eq_qp(&h, &g, &c, &d, 0.0).unwrap();
        // Stationarity: H x − g + Cᵀ ν = 0.
        let hx = h.matvec(&sol.x);
        let ctv = c.tr_matvec(&sol.multipliers);
        for i in 0..2 {
            let station = hx[i] - g[i] + ctv[i];
            assert!(station.abs() < 1e-9, "stationarity {station}");
        }
    }

    #[test]
    fn ridge_rescues_singular_h() {
        // H singular (rank 1); without ridge the KKT may be singular.
        let h = Mat::from_rows(&[vec![1.0, 1.0], vec![1.0, 1.0]]);
        let g = [1.0, 1.0];
        let c = Mat::from_rows(&[vec![1.0, 0.0]]);
        let d = [2.0];
        let sol = solve_eq_qp(&h, &g, &c, &d, 1e-8).unwrap();
        assert!((sol.x[0] - 2.0).abs() < 1e-6);
        assert!(sol.constraint_residual < 1e-8);
    }

    #[test]
    fn rejects_inconsistent_shapes() {
        let h = Mat::identity(2);
        let c = Mat::from_rows(&[vec![1.0, 1.0]]);
        assert!(solve_eq_qp(&h, &[1.0], &c, &[1.0], 0.0).is_err());
        assert!(solve_eq_qp(&h, &[1.0, 2.0], &c, &[1.0, 2.0], 0.0).is_err());
        assert!(solve_eq_qp(&Mat::zeros(2, 3), &[1.0, 2.0], &c, &[1.0], 0.0).is_err());
    }

    #[test]
    fn sum_constraints_build_and_renormalize() {
        let sc = SumConstraints {
            groups: vec![vec![0, 1], vec![2, 3]],
            sums: vec![1.0, 1.0],
        };
        let (c, d) = sc.to_matrix(4).unwrap();
        assert_eq!(c.get(0, 0), 1.0);
        assert_eq!(c.get(0, 2), 0.0);
        assert_eq!(c.get(1, 3), 1.0);
        assert_eq!(d, vec![1.0, 1.0]);

        let mut x = vec![0.5, -0.1, 2.0, 2.0];
        clip_and_renormalize(&mut x, &sc);
        assert!((x[0] - 1.0).abs() < 1e-12);
        assert_eq!(x[1], 0.0);
        assert!((x[2] - 0.5).abs() < 1e-12);
        assert!((x[3] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn renormalize_handles_all_negative_group() {
        let sc = SumConstraints {
            groups: vec![vec![0, 1]],
            sums: vec![1.0],
        };
        let mut x = vec![-1.0, -2.0];
        clip_and_renormalize(&mut x, &sc);
        assert!((x[0] - 0.5).abs() < 1e-12);
        assert!((x[1] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn sparse_group_sum_qp_matches_dense_kkt() {
        // H = baseᵀbase + I (SPD), two disjoint groups summing to 1.
        let base = Mat::from_rows(&[
            vec![1.0, 0.5, 0.0, 2.0],
            vec![0.0, 1.0, 1.0, 0.0],
            vec![2.0, 0.0, 0.5, 1.0],
        ]);
        let mut h = base.gram();
        for i in 0..4 {
            h.add_to(i, i, 1.0);
        }
        let g = [1.0, -1.0, 0.5, 2.0];
        let sc = SumConstraints {
            groups: vec![vec![0, 1], vec![2, 3]],
            sums: vec![1.0, 1.0],
        };
        let (c, d) = sc.to_matrix(4).unwrap();
        let dense = solve_eq_qp(&h, &g, &c, &d, 0.0).unwrap();
        let h_sparse = Csr::from_dense(&h, 0.0);
        let sparse = solve_group_sum_qp_sparse(&h_sparse, &g, &sc, 0.0, 1e-14).unwrap();
        for j in 0..4 {
            assert!(
                (dense.x[j] - sparse[j]).abs() < 1e-9,
                "j={j}: dense {} vs sparse {}",
                dense.x[j],
                sparse[j]
            );
        }
        // Constraints hold exactly.
        assert!((sparse[0] + sparse[1] - 1.0).abs() < 1e-12);
        assert!((sparse[2] + sparse[3] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn sparse_group_sum_qp_validates() {
        let h = Csr::from_dense(&Mat::identity(3), 0.0);
        let sc_overlap = SumConstraints {
            groups: vec![vec![0, 1], vec![1, 2]],
            sums: vec![1.0, 1.0],
        };
        assert!(solve_group_sum_qp_sparse(&h, &[0.0; 3], &sc_overlap, 0.0, 1e-12).is_err());
        let sc_oob = SumConstraints {
            groups: vec![vec![7]],
            sums: vec![1.0],
        };
        assert!(solve_group_sum_qp_sparse(&h, &[0.0; 3], &sc_oob, 0.0, 1e-12).is_err());
        let sc_len = SumConstraints {
            groups: vec![vec![0]],
            sums: vec![],
        };
        assert!(solve_group_sum_qp_sparse(&h, &[0.0; 3], &sc_len, 0.0, 1e-12).is_err());
        let not_square = Csr::zeros(2, 3);
        let sc = SumConstraints {
            groups: vec![vec![0]],
            sums: vec![1.0],
        };
        assert!(solve_group_sum_qp_sparse(&not_square, &[0.0; 2], &sc, 0.0, 1e-12).is_err());
    }

    #[test]
    fn sum_constraints_bounds_checked() {
        let sc = SumConstraints {
            groups: vec![vec![9]],
            sums: vec![1.0],
        };
        assert!(sc.to_matrix(4).is_err());
        let sc2 = SumConstraints {
            groups: vec![vec![0]],
            sums: vec![],
        };
        assert!(sc2.to_matrix(4).is_err());
    }
}
