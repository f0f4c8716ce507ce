//! Property-based tests for the linear-algebra substrate.

use proptest::prelude::*;
use tm_linalg::decomp::{lu, qr, Cholesky, Lu};
use tm_linalg::stats;
use tm_linalg::vector;
use tm_linalg::{Csr, Mat};

/// Strategy: a small dense matrix with entries in [-10, 10].
fn mat_strategy(rows: usize, cols: usize) -> impl Strategy<Value = Mat> {
    proptest::collection::vec(-10.0f64..10.0, rows * cols)
        .prop_map(move |data| Mat::from_vec(rows, cols, data))
}

/// Strategy: sparse triplets in a fixed shape.
fn csr_strategy(rows: usize, cols: usize) -> impl Strategy<Value = Csr> {
    proptest::collection::vec((0..rows, 0..cols, -5.0f64..5.0), 0..40).prop_map(move |trip| {
        Csr::from_triplets(rows, cols, trip).expect("in-bounds by construction")
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn csr_matvec_matches_dense(m in csr_strategy(6, 7), x in proptest::collection::vec(-3.0f64..3.0, 7)) {
        let dense = m.to_dense();
        let ys = m.matvec(&x);
        let yd = dense.matvec(&x);
        for i in 0..6 {
            prop_assert!((ys[i] - yd[i]).abs() < 1e-9);
        }
    }

    #[test]
    fn csr_transpose_matvec_consistent(m in csr_strategy(5, 8), x in proptest::collection::vec(-3.0f64..3.0, 5)) {
        let t = m.transpose();
        let a = m.tr_matvec(&x);
        let b = t.matvec(&x);
        for j in 0..8 {
            prop_assert!((a[j] - b[j]).abs() < 1e-9);
        }
    }

    #[test]
    fn csr_dense_roundtrip(m in csr_strategy(4, 5)) {
        let back = Csr::from_dense(&m.to_dense(), 0.0);
        prop_assert_eq!(back, m);
    }

    #[test]
    fn lu_solves_diagonally_dominant(mut a in mat_strategy(6, 6), b in proptest::collection::vec(-5.0f64..5.0, 6)) {
        // Make strictly diagonally dominant so factorization succeeds.
        for i in 0..6 {
            let rowsum: f64 = a.row(i).iter().map(|v| v.abs()).sum();
            let v = a.get(i, i);
            a.set(i, i, v + rowsum + 1.0);
        }
        let lu = Lu::factor(&a).unwrap();
        let x = lu.solve(&b).unwrap();
        let r = vector::sub(&a.matvec(&x), &b);
        prop_assert!(vector::norm2(&r) < 1e-7, "residual {}", vector::norm2(&r));
    }

    #[test]
    fn cholesky_of_gram_reconstructs(a in mat_strategy(7, 4)) {
        // AᵀA + I is always SPD.
        let mut g = a.gram();
        for i in 0..4 {
            let v = g.get(i, i);
            g.set(i, i, v + 1.0);
        }
        let ch = Cholesky::factor(&g).unwrap();
        let l = ch.l();
        let rec = l.matmul(&l.transpose()).unwrap();
        for i in 0..4 {
            for j in 0..4 {
                prop_assert!((rec.get(i, j) - g.get(i, j)).abs() < 1e-8);
            }
        }
    }

    #[test]
    fn qr_least_squares_satisfies_normal_equations(a in mat_strategy(8, 3), b in proptest::collection::vec(-5.0f64..5.0, 8)) {
        // Regularize columns to avoid rank deficiency.
        let mut areg = a.clone();
        for j in 0..3 {
            let v = areg.get(j, j);
            areg.set(j, j, v + 5.0);
        }
        if let Ok(x) = qr::lstsq(&areg, &b) {
            let r = vector::sub(&areg.matvec(&x), &b);
            let g = areg.tr_matvec(&r);
            prop_assert!(vector::norm2(&g) < 1e-6, "gradient {}", vector::norm2(&g));
        }
    }

    #[test]
    fn solve_roundtrip_via_lu(mut a in mat_strategy(5, 5), xtrue in proptest::collection::vec(-4.0f64..4.0, 5)) {
        for i in 0..5 {
            let rowsum: f64 = a.row(i).iter().map(|v| v.abs()).sum();
            let v = a.get(i, i);
            a.set(i, i, v + rowsum + 1.0);
        }
        let b = a.matvec(&xtrue);
        let x = lu::solve(&a, &b).unwrap();
        prop_assert!(vector::norm2(&vector::sub(&x, &xtrue)) < 1e-6);
    }

    #[test]
    fn cumulative_share_monotone(x in proptest::collection::vec(0.0f64..100.0, 1..30)) {
        let c = stats::cumulative_share_by_rank(&x);
        prop_assert!(c.windows(2).all(|w| w[0] <= w[1] + 1e-12));
        let total: f64 = x.iter().sum();
        if total > 0.0 {
            prop_assert!((c.last().unwrap() - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn share_threshold_invariant(x in proptest::collection::vec(0.01f64..100.0, 1..30), share in 0.1f64..0.99) {
        let (thr, count) = stats::share_threshold(&x, share);
        let total: f64 = x.iter().sum();
        let included: f64 = x.iter().filter(|&&v| v > thr).sum();
        let n_included = x.iter().filter(|&&v| v > thr).count();
        prop_assert!(included >= share * total * (1.0 - 1e-9));
        prop_assert_eq!(n_included, count);
    }

    #[test]
    fn power_law_fit_recovers(phi in 0.1f64..5.0, c in 0.5f64..2.5) {
        let x: Vec<f64> = (1..40).map(|i| i as f64 * 0.3).collect();
        let y: Vec<f64> = x.iter().map(|&v| phi * v.powf(c)).collect();
        let f = stats::power_law_fit(&x, &y).unwrap();
        prop_assert!((f.phi - phi).abs() < 1e-6 * phi.max(1.0));
        prop_assert!((f.c - c).abs() < 1e-6);
    }

    #[test]
    fn vstack_preserves_rows(a in csr_strategy(3, 4), b in csr_strategy(5, 4), x in proptest::collection::vec(-2.0f64..2.0, 4)) {
        let v = a.vstack(&b).unwrap();
        let ya = a.matvec(&x);
        let yb = b.matvec(&x);
        let yv = v.matvec(&x);
        for i in 0..3 {
            prop_assert!((yv[i] - ya[i]).abs() < 1e-12);
        }
        for i in 0..5 {
            prop_assert!((yv[3 + i] - yb[i]).abs() < 1e-12);
        }
    }

    #[test]
    fn scale_cols_matches_dense(a in csr_strategy(4, 3), d in proptest::collection::vec(-2.0f64..2.0, 3)) {
        let s = a.scale_cols(&d).unwrap();
        let dense = a.to_dense();
        for i in 0..4 {
            for j in 0..3 {
                prop_assert!((s.get(i, j) - dense.get(i, j) * d[j]).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn scale_rows_matches_dense(a in csr_strategy(5, 4), d in proptest::collection::vec(-2.0f64..2.0, 5)) {
        let s = a.scale_rows(&d).unwrap();
        let dense = a.to_dense();
        for i in 0..5 {
            for j in 0..4 {
                prop_assert!((s.get(i, j) - dense.get(i, j) * d[i]).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn sparse_gram_matches_dense_gram(a in csr_strategy(6, 5)) {
        // AᵀA computed sparse-to-sparse must agree with the dense Gram
        // to 1e-10 (the sparse-first engine's correctness contract).
        let g = a.gram();
        let gd = a.to_dense().gram();
        prop_assert_eq!(g.rows(), 5);
        prop_assert_eq!(g.cols(), 5);
        for i in 0..5 {
            for j in 0..5 {
                prop_assert!(
                    (g.get(i, j) - gd.get(i, j)).abs() < 1e-10,
                    "({}, {}): sparse {} vs dense {}", i, j, g.get(i, j), gd.get(i, j)
                );
            }
        }
    }

    #[test]
    fn linop_dense_and_sparse_paths_agree(
        a in csr_strategy(6, 5),
        x in proptest::collection::vec(-3.0f64..3.0, 5),
        t in proptest::collection::vec(-3.0f64..3.0, 6),
    ) {
        // The LinOp abstraction must make Mat and Csr interchangeable.
        use tm_linalg::LinOp;
        let dense = a.to_dense();
        let ops: [&dyn LinOp; 2] = [&a, &dense];
        let y0 = ops[0].matvec(&x);
        let y1 = ops[1].matvec(&x);
        let z0 = ops[0].tr_matvec(&t);
        let z1 = ops[1].tr_matvec(&t);
        for i in 0..6 {
            prop_assert!((y0[i] - y1[i]).abs() < 1e-10);
        }
        for j in 0..5 {
            prop_assert!((z0[j] - z1[j]).abs() < 1e-10);
        }
    }

    #[test]
    fn mapped_values_preserves_pattern(a in csr_strategy(4, 4)) {
        let doubled = a.mapped_values(|_, _, v| 2.0 * v);
        prop_assert_eq!(doubled.nnz(), a.nnz());
        for i in 0..4 {
            for j in 0..4 {
                prop_assert!((doubled.get(i, j) - 2.0 * a.get(i, j)).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn sparse_cholesky_solve_matches_dense_cholesky(
        // Routing-like 0/1 measurement pattern: short sparse rows.
        pattern in proptest::collection::vec((0..12usize, 0..8usize), 6..40),
        boost in 0.05f64..2.0,
        b in proptest::collection::vec(-5.0f64..5.0, 8),
    ) {
        use tm_linalg::decomp::{Cholesky, SparseCholSymbolic};
        // G = AᵀA + boost·I over a random routing-like A (0/1 entries,
        // duplicates collapse), rank-boosted so it is SPD even when A
        // is column-deficient.
        let trips: Vec<(usize, usize, f64)> =
            pattern.into_iter().map(|(i, j)| (i, j, 1.0)).collect();
        let a = Csr::from_triplets(12, 8, trips).unwrap();
        let g = a.gram().plus_diag(boost).unwrap();
        let sym = SparseCholSymbolic::analyze(&g).unwrap();
        let f = sym.factor(&g).unwrap();
        let x = sym.solve(&f, &b).unwrap();
        let dense = Cholesky::factor(&g.to_dense()).unwrap();
        let want = dense.solve(&b).unwrap();
        for j in 0..8 {
            prop_assert!(
                (x[j] - want[j]).abs() < 1e-8 * (1.0 + want[j].abs()),
                "j={}: sparse {} vs dense {}", j, x[j], want[j]
            );
        }
        // Numeric refactorization against the same symbolic agrees too
        // (same pattern, scaled values).
        let g2 = g.mapped_values(|i, j, v| if i == j { 2.0 * v + 0.1 } else { 2.0 * v });
        let mut f2 = f.clone();
        sym.refactor(&g2, &mut f2).unwrap();
        let x2 = sym.solve(&f2, &b).unwrap();
        let want2 = Cholesky::factor(&g2.to_dense()).unwrap().solve(&b).unwrap();
        for j in 0..8 {
            prop_assert!((x2[j] - want2[j]).abs() < 1e-8 * (1.0 + want2[j].abs()));
        }
    }
}
