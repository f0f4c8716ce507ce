//! Property-based tests for the optimization solvers: KKT conditions on
//! random NNLS instances, simplex vs brute-force vertex enumeration,
//! iterative scaling constraint satisfaction, QP stationarity.

use proptest::prelude::*;
use tm_linalg::{vector, Csr, Mat};
use tm_opt::ipf::{gis, GisPlan, IpfOptions};
use tm_opt::nnls::{cd_nnls, kkt_violation, lawson_hanson, ridge_nnls};
use tm_opt::qp::solve_eq_qp;
use tm_opt::simplex::{solve_lp, StandardLp};

fn mat_strategy(rows: usize, cols: usize, lo: f64, hi: f64) -> impl Strategy<Value = Mat> {
    proptest::collection::vec(lo..hi, rows * cols)
        .prop_map(move |data| Mat::from_vec(rows, cols, data))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn lawson_hanson_kkt_on_random_instances(
        a in mat_strategy(6, 4, -3.0, 3.0),
        b in proptest::collection::vec(-4.0f64..4.0, 6),
    ) {
        if let Ok(sol) = lawson_hanson(&a, &b) {
            prop_assert!(sol.x.iter().all(|&v| v >= 0.0));
            prop_assert!(kkt_violation(&a, &b, 0.0, None, &sol.x) < 1e-6);
        }
    }

    #[test]
    fn cd_nnls_kkt_with_regularization(
        a in mat_strategy(5, 4, -2.0, 2.0),
        b in proptest::collection::vec(-3.0f64..3.0, 5),
        mu in 0.1f64..5.0,
    ) {
        let sol = cd_nnls(&a, &b, mu, None, 100_000, 1e-13).unwrap();
        prop_assert!(sol.x.iter().all(|&v| v >= 0.0));
        prop_assert!(kkt_violation(&a, &b, mu, None, &sol.x) < 1e-6);
    }

    #[test]
    fn ridge_nnls_kkt_and_agreement(
        a in mat_strategy(4, 6, -2.0, 2.0),
        b in proptest::collection::vec(-3.0f64..3.0, 4),
        prior in proptest::collection::vec(0.0f64..2.0, 6),
        mu in 0.05f64..2.0,
    ) {
        let csr = Csr::from_dense(&a, 0.0);
        let sol = ridge_nnls(&csr, &csr.transpose(), &b, mu, &prior, None).unwrap();
        prop_assert!(sol.x.iter().all(|&v| v >= 0.0));
        prop_assert!(
            kkt_violation(&a, &b, mu, Some(&prior), &sol.x) < 1e-6,
            "kkt violation {}",
            kkt_violation(&a, &b, mu, Some(&prior), &sol.x)
        );
    }

    #[test]
    fn simplex_matches_brute_force(
        a in mat_strategy(2, 5, 0.1, 3.0),
        strue in proptest::collection::vec(0.0f64..4.0, 5),
        c in proptest::collection::vec(-2.0f64..2.0, 5),
    ) {
        // Feasible by construction: b = A·strue with strue >= 0.
        let b = a.matvec(&strue);
        let lp = StandardLp { a: a.clone(), b: b.clone() };

        // Brute force: all 2-subsets of columns as candidate bases.
        let mut best = f64::NEG_INFINITY;
        for j1 in 0..5 {
            for j2 in (j1 + 1)..5 {
                let sub = a.select_cols(&[j1, j2]);
                if let Ok(lu) = tm_linalg::decomp::Lu::factor(&sub) {
                    if let Ok(xb) = lu.solve(&b) {
                        if xb.iter().all(|&v| v >= -1e-9) {
                            let obj = c[j1] * xb[0] + c[j2] * xb[1];
                            best = best.max(obj);
                        }
                    }
                }
            }
        }
        // Degenerate case: brute force may find nothing if every basis is
        // singular; simplex still must agree when brute force found one.
        if best > f64::NEG_INFINITY {
            match solve_lp(&lp, &c, true) {
                Ok(sol) => {
                    prop_assert!(
                        sol.objective >= best - 1e-6,
                        "simplex {} below brute force {}",
                        sol.objective,
                        best
                    );
                    // Feasibility of the simplex point.
                    let ax = lp.a.matvec(&sol.x);
                    for i in 0..2 {
                        prop_assert!((ax[i] - b[i]).abs() < 1e-6 * (1.0 + b[i].abs()));
                    }
                    prop_assert!(sol.x.iter().all(|&v| v >= -1e-9));
                }
                Err(tm_opt::OptError::Unbounded) => {
                    // Acceptable only if some column has all-positive cost
                    // direction; with a in (0.1,3) all columns have positive
                    // coefficients so the LP is always bounded.
                    prop_assert!(false, "bounded LP reported unbounded");
                }
                Err(e) => prop_assert!(false, "solver error {e}"),
            }
        }
    }

    #[test]
    fn worst_case_bounds_bracket_truth(
        a in mat_strategy(3, 6, 0.0, 1.0),
        strue in proptest::collection::vec(0.0f64..5.0, 6),
    ) {
        // The LP bounds of §4.3.1 must bracket the true demand.
        let b = a.matvec(&strue);
        let lp = StandardLp { a, b };
        if let Ok(mut solver) = tm_opt::simplex::SimplexSolver::new(&lp) {
            for p in 0..6 {
                let mut c = vec![0.0; 6];
                c[p] = 1.0;
                let hi = solver.maximize(&c);
                let lo = solver.minimize(&c);
                if let (Ok(hi), Ok(lo)) = (hi, lo) {
                    prop_assert!(
                        hi.objective >= strue[p] - 1e-6,
                        "upper bound {} below true {}",
                        hi.objective,
                        strue[p]
                    );
                    prop_assert!(
                        lo.objective <= strue[p] + 1e-6,
                        "lower bound {} above true {}",
                        lo.objective,
                        strue[p]
                    );
                }
            }
        }
    }

    #[test]
    fn gis_satisfies_feasible_constraints(
        strue in proptest::collection::vec(0.05f64..5.0, 6),
        prior in proptest::collection::vec(0.05f64..5.0, 6),
    ) {
        // Chain-routing style 0/1 matrix: each row covers a window.
        let mut trip = Vec::new();
        for i in 0..4 {
            for j in i..(i + 3).min(6) {
                trip.push((i, j, 1.0));
            }
        }
        let r = Csr::from_triplets(4, 6, trip).unwrap();
        let t = r.matvec(&strue);
        let plan = GisPlan::build(&r, &t).unwrap();
        let res = gis(&prior, &r, &t, &plan, IpfOptions { max_iter: 50_000, tol: 1e-9, ..Default::default() }, None).unwrap();
        let rs = r.matvec(&res.values);
        for i in 0..4 {
            prop_assert!((rs[i] - t[i]).abs() < 1e-6 * (1.0 + t[i]), "row {i}");
        }
        prop_assert!(res.values.iter().all(|&v| v >= 0.0));
    }

    #[test]
    fn eq_qp_stationarity_random(
        base in mat_strategy(4, 3, -2.0, 2.0),
        g in proptest::collection::vec(-3.0f64..3.0, 3),
        d in -2.0f64..2.0,
    ) {
        // H = baseᵀbase + I is SPD.
        let mut h = base.gram();
        for i in 0..3 {
            h.add_to(i, i, 1.0);
        }
        let c = Mat::from_rows(&[vec![1.0, 1.0, 1.0]]);
        let sol = solve_eq_qp(&h, &g, &c, &[d], 0.0).unwrap();
        // Constraint.
        let sum: f64 = sol.x.iter().sum();
        prop_assert!((sum - d).abs() < 1e-8);
        // Stationarity: Hx − g + Cᵀν = 0.
        let hx = h.matvec(&sol.x);
        let ctv = c.tr_matvec(&sol.multipliers);
        for i in 0..3 {
            prop_assert!((hx[i] - g[i] + ctv[i]).abs() < 1e-7);
        }
    }

    #[test]
    fn sparse_group_qp_matches_dense_kkt_solver(
        base in mat_strategy(5, 6, -2.0, 2.0),
        g in proptest::collection::vec(-3.0f64..3.0, 6),
        d1 in 0.5f64..2.0,
        d2 in 0.5f64..2.0,
    ) {
        // H = baseᵀbase + I is SPD; two disjoint groups of three.
        let mut h = base.gram();
        for i in 0..6 {
            h.add_to(i, i, 1.0);
        }
        let sc = tm_opt::qp::SumConstraints {
            groups: vec![vec![0, 1, 2], vec![3, 4, 5]],
            sums: vec![d1, d2],
        };
        let (c, d) = sc.to_matrix(6).unwrap();
        let dense = solve_eq_qp(&h, &g, &c, &d, 0.0).unwrap();
        let h_sparse = Csr::from_dense(&h, 0.0);
        let sparse =
            tm_opt::qp::solve_group_sum_qp_sparse(&h_sparse, &g, &sc, 0.0, 1e-14).unwrap();
        for j in 0..6 {
            prop_assert!(
                (dense.x[j] - sparse[j]).abs() < 1e-8,
                "j={}: dense {} vs sparse {}", j, dense.x[j], sparse[j]
            );
        }
    }

    #[test]
    fn sparse_simplex_agrees_with_dense_on_random_feasible_lps(
        a in mat_strategy(3, 6, 0.1, 3.0),
        strue in proptest::collection::vec(0.0f64..4.0, 6),
        c in proptest::collection::vec(-2.0f64..2.0, 6),
    ) {
        let b = a.matvec(&strue);
        let lp = StandardLp { a: a.clone(), b: b.clone() };
        let csr = Csr::from_dense(&a, 0.0);
        let dense = solve_lp(&lp, &c, true);
        let sparse = tm_opt::simplex::SimplexSolver::new_sparse(&csr, &b)
            .and_then(|mut s| s.maximize(&c));
        match (dense, sparse) {
            (Ok(ds), Ok(ss)) => prop_assert!(
                (ds.objective - ss.objective).abs() < 1e-7 * (1.0 + ds.objective.abs()),
                "dense {} vs sparse {}", ds.objective, ss.objective
            ),
            (Err(_), Err(_)) => {}
            (d, s) => prop_assert!(false, "solvers disagree: dense {:?} sparse {:?}",
                d.map(|v| v.objective), s.map(|v| v.objective)),
        }
    }

    #[test]
    fn revised_simplex_matches_tableau_on_random_feasible_lps(
        a in mat_strategy(4, 8, 0.0, 2.0),
        strue in proptest::collection::vec(0.0f64..4.0, 8),
        mask_bits in 0u64..256,
        c in proptest::collection::vec(-2.0f64..2.0, 8),
    ) {
        // Feasible by construction; masking entries of the feasible
        // point to zero produces degenerate vertices, so this also
        // exercises the anti-cycling (Bland) fallback paths.
        let s0: Vec<f64> = strue
            .iter()
            .enumerate()
            .map(|(i, &v)| if mask_bits & (1 << i) != 0 { v } else { 0.0 })
            .collect();
        let b = a.matvec(&s0);
        let csr = Csr::from_dense(&a, 0.0);
        let scale = b.iter().fold(1.0f64, |acc, &v| acc.max(v.abs()));
        let dense = tm_opt::simplex::SimplexSolver::new_sparse(&csr, &b);
        let revised = tm_opt::revised::RevisedSimplex::new_sparse(&csr, &b, None);
        match (dense, revised) {
            (Ok(mut ds), Ok(mut rs)) => {
                for maximize in [false, true] {
                    let d = if maximize { ds.maximize(&c) } else { ds.minimize(&c) };
                    let r = if maximize { rs.maximize(&c) } else { rs.minimize(&c) };
                    match (d, r) {
                        (Ok(d), Ok(r)) => prop_assert!(
                            (d.objective - r.objective).abs() <= 1e-9 * scale,
                            "max={maximize}: tableau {} vs revised {}",
                            d.objective,
                            r.objective
                        ),
                        (Err(tm_opt::OptError::Unbounded), Err(tm_opt::OptError::Unbounded)) => {}
                        (d, r) => prop_assert!(
                            false,
                            "solvers disagree (max={maximize}): tableau {:?} revised {:?}",
                            d.map(|v| v.objective),
                            r.map(|v| v.objective)
                        ),
                    }
                }
            }
            (Err(_), Err(_)) => {}
            (d, r) => prop_assert!(false, "phase 1 disagrees: {:?} vs {:?}", d.is_ok(), r.is_ok()),
        }
    }

    #[test]
    fn bounded_revised_simplex_matches_tableau_with_bound_rows(
        a in mat_strategy(3, 6, -2.0, 2.0),
        s0 in proptest::collection::vec(0.0f64..3.0, 6),
        b_free in proptest::collection::vec(-4.0f64..4.0, 3),
        ub in proptest::collection::vec(0.25f64..3.0, 6),
        bounded_bits in 0u64..64,
        feasible_by_construction in 0u8..2,
        c in proptest::collection::vec(-2.0f64..2.0, 6),
    ) {
        // The same LP twice: `0 ≤ x ≤ u` as implicit bounds on the
        // bounded-variable revised simplex, and as explicit rows
        // `x_j + s_j = u_j` on the dense tableau. Half the cases are
        // feasible by construction (a point inside the bounds), the rest
        // have a free right-hand side and may be infeasible.
        let n = 6usize;
        let upper: Vec<f64> = (0..n)
            .map(|j| if bounded_bits & (1 << j) != 0 { ub[j] } else { f64::INFINITY })
            .collect();
        let b = if feasible_by_construction == 1 {
            let x0: Vec<f64> = s0.iter().zip(&upper).map(|(&v, &u)| v.min(u)).collect();
            a.matvec(&x0)
        } else {
            b_free.clone()
        };
        let bounded: Vec<usize> = (0..n).filter(|&j| upper[j].is_finite()).collect();
        let rows = 3 + bounded.len();
        let cols = n + bounded.len();
        let mut dense_a = Mat::zeros(rows, cols);
        let mut dense_b = b.clone();
        for i in 0..3 {
            for j in 0..n {
                dense_a.set(i, j, a.get(i, j));
            }
        }
        for (k, &j) in bounded.iter().enumerate() {
            dense_a.set(3 + k, j, 1.0);
            dense_a.set(3 + k, n + k, 1.0);
            dense_b.push(upper[j]);
        }
        let mut dense_c = c.clone();
        dense_c.resize(cols, 0.0);
        let scale = dense_b.iter().fold(1.0f64, |acc, &v| acc.max(v.abs()));
        let csr = Csr::from_dense(&a, 0.0);
        let dense = tm_opt::simplex::SimplexSolver::new(&StandardLp { a: dense_a, b: dense_b });
        let revised = tm_opt::revised::RevisedSimplex::new_sparse(&csr, &b, Some(&upper));
        match (dense, revised) {
            (Ok(mut ds), Ok(mut rs)) => {
                for maximize in [false, true] {
                    let d = if maximize { ds.maximize(&dense_c) } else { ds.minimize(&dense_c) };
                    let r = if maximize { rs.maximize(&c) } else { rs.minimize(&c) };
                    match (d, r) {
                        (Ok(d), Ok(r)) => {
                            prop_assert!(
                                (d.objective - r.objective).abs() <= 1e-9 * scale,
                                "max={maximize}: tableau {} vs bounded {}",
                                d.objective,
                                r.objective
                            );
                            for j in 0..n {
                                prop_assert!(r.x[j] >= -1e-9 && r.x[j] <= upper[j] + 1e-9 * scale);
                            }
                        }
                        (Err(tm_opt::OptError::Unbounded), Err(tm_opt::OptError::Unbounded)) => {}
                        (d, r) => prop_assert!(
                            false,
                            "solvers disagree (max={maximize}): tableau {:?} bounded {:?}",
                            d.map(|v| v.objective),
                            r.map(|v| v.objective)
                        ),
                    }
                }
            }
            (Err(tm_opt::OptError::Infeasible { .. }), Err(tm_opt::OptError::Infeasible { .. })) => {}
            (d, r) => prop_assert!(
                false,
                "phase 1 disagrees: tableau {:?} bounded {:?}",
                d.map(|_| ()),
                r.map(|_| ())
            ),
        }
    }

    #[test]
    fn revised_simplex_matches_tableau_at_europe_scale(
        pattern_seed in 0u64..u64::MAX,
        strue in proptest::collection::vec(0.0f64..400.0, 132),
        objective_pair in 0usize..132,
    ) {
        // Europe-sized routing-like system: 132 unknowns, 0/1 interior
        // rows of 1–3 hops plus per-node ingress/egress edge rows — the
        // shape WCB feeds both engines in production.
        let n_nodes = 12usize;
        let n = 132usize;
        let links = 40usize;
        let mut state = pattern_seed | 1;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as f64 / (u32::MAX as f64)
        };
        let mut trips: Vec<(usize, usize, f64)> = Vec::new();
        for p in 0..n {
            let hops = 1 + (next() * 3.0) as usize;
            for _ in 0..hops {
                trips.push(((next() * links as f64) as usize % links, p, 1.0));
            }
            let src = p / (n_nodes - 1);
            let mut dst = p % (n_nodes - 1);
            if dst >= src {
                dst += 1;
            }
            trips.push((links + src, p, 1.0));
            trips.push((links + n_nodes + dst, p, 1.0));
        }
        let a = Csr::from_triplets(links + 2 * n_nodes, n, trips).unwrap();
        let b = a.matvec(&strue);
        let scale = b.iter().fold(1.0f64, |acc, &v| acc.max(v.abs()));

        let mut dense = tm_opt::simplex::SimplexSolver::new_sparse(&a, &b).unwrap();
        let mut revised = tm_opt::revised::RevisedSimplex::new_sparse(&a, &b, None).unwrap();
        let mut c = vec![0.0; n];
        c[objective_pair] = 1.0;
        let hi_d = dense.maximize(&c).unwrap();
        let hi_r = revised.maximize(&c).unwrap();
        prop_assert!(
            (hi_d.objective - hi_r.objective).abs() <= 1e-9 * scale,
            "max: tableau {} vs revised {}",
            hi_d.objective,
            hi_r.objective
        );
        let lo_d = dense.minimize(&c).unwrap();
        let lo_r = revised.minimize(&c).unwrap();
        prop_assert!(
            (lo_d.objective - lo_r.objective).abs() <= 1e-9 * scale,
            "min: tableau {} vs revised {}",
            lo_d.objective,
            lo_r.objective
        );
    }

    #[test]
    fn spg_nonneg_ls_matches_lawson_hanson(
        a in mat_strategy(5, 3, -2.0, 2.0),
        b in proptest::collection::vec(-3.0f64..3.0, 5),
    ) {
        let lh = lawson_hanson(&a, &b);
        let res = tm_opt::spg::spg(
            |x, grad| {
                let r = vector::sub(&a.matvec(x), &b);
                let g = a.tr_matvec(&r);
                grad.copy_from_slice(&g);
                0.5 * vector::dot(&r, &r)
            },
            vector::project_nonneg,
            vec![0.1; 3],
            tm_opt::spg::SpgOptions { max_iter: 5000, tol: 1e-10, ..Default::default() },
        ).unwrap();
        if let Ok(lh) = lh {
            let f_lh = {
                let r = vector::sub(&a.matvec(&lh.x), &b);
                0.5 * vector::dot(&r, &r)
            };
            prop_assert!(res.objective <= f_lh + 1e-5, "spg {} vs lh {}", res.objective, f_lh);
        }
    }

    #[test]
    fn ssn_nnls_matches_cd_kkt_on_degenerate_active_sets(
        // Routing-like 0/1 matrix (duplicate triplets collapse) —
        // repeated columns and zero-gradient boundaries make the
        // active set degenerate on purpose.
        pattern in proptest::collection::vec((0..7usize, 0..5usize), 4..24),
        b in proptest::collection::vec(-3.0f64..3.0, 7),
        mu in 1e-4f64..0.5,
        prior in proptest::collection::vec(0.0f64..2.0, 5),
    ) {
        use tm_linalg::decomp::SparseCholSymbolic;
        use tm_opt::nnls::{ssn_nnls, SsnState};
        let trips: Vec<(usize, usize, f64)> =
            pattern.into_iter().map(|(i, j)| (i, j, 1.0)).collect();
        let a = Csr::from_triplets(7, 5, trips).unwrap();
        let g = a.gram().plus_diag(0.0).unwrap();
        let sym = SparseCholSymbolic::analyze(&g).unwrap();
        let mut state = SsnState::default();
        let ssn = ssn_nnls(
            &a, &b, mu, Some(&prior), &g, &sym, &mut state, false,
        ).unwrap();
        let cd = cd_nnls(&a.to_dense(), &b, mu, Some(&prior), 200_000, 1e-12).unwrap();
        // Both must satisfy the same KKT system to solver tolerance...
        let scale = vector::norm_inf(&b).max(1.0);
        let v_ssn = kkt_violation(&a, &b, mu, Some(&prior), &ssn.x);
        let v_cd = kkt_violation(&a, &b, mu, Some(&prior), &cd.x);
        prop_assert!(v_ssn <= 1e-6 * scale, "ssn KKT violation {}", v_ssn);
        prop_assert!(v_cd <= 1e-6 * scale, "cd KKT violation {}", v_cd);
        // ...and μ > 0 makes the minimizer unique: the iterates agree.
        for j in 0..5 {
            prop_assert!(
                (ssn.x[j] - cd.x[j]).abs() <= 1e-5 * (1.0 + cd.x[j].abs()),
                "j={}: ssn {} vs cd {}", j, ssn.x[j], cd.x[j]
            );
        }
        // A second call warm-started from the terminal set reproduces
        // the same solution.
        let again = ssn_nnls(
            &a, &b, mu, Some(&prior), &g, &sym, &mut state, true,
        ).unwrap();
        for j in 0..5 {
            prop_assert!((again.x[j] - ssn.x[j]).abs() <= 1e-8 * (1.0 + ssn.x[j].abs()));
        }
    }
}
