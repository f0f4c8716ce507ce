//! Property-based tests for topology generation and routing.

use proptest::prelude::*;
use tm_net::generators::{self, BackboneSpec};
use tm_net::routing::{route_lsp_mesh, shortest_path, CspfConfig};
use tm_net::{NodeId, OdPairs};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn generated_backbones_are_valid(seed in 0u64..5000, n in 4usize..10) {
        let spec = BackboneSpec::tiny(n);
        let topo = generators::generate(&spec, seed).expect("valid spec");
        prop_assert_eq!(topo.n_nodes(), n);
        prop_assert_eq!(topo.n_links(), 2 * spec.duplex_edges);
        topo.validate().expect("generator output validates");
    }

    #[test]
    fn shortest_paths_are_locally_optimal(seed in 0u64..2000, n in 4usize..8) {
        // Triangle inequality on the path metric: d(s,t) <= d(s,m) + d(m,t).
        let topo = generators::generate(&BackboneSpec::tiny(n), seed).expect("valid");
        let cost = |a: usize, b: usize| -> f64 {
            if a == b {
                return 0.0;
            }
            let p = shortest_path(&topo, NodeId(a), NodeId(b), |_| true).expect("connected");
            p.links.iter().map(|&l| topo.link(l).expect("valid").metric).sum()
        };
        for s in 0..n.min(4) {
            for t in 0..n.min(4) {
                for m in 0..n.min(4) {
                    prop_assert!(cost(s, t) <= cost(s, m) + cost(m, t) + 1e-9,
                        "triangle violated: d({s},{t}) > d({s},{m}) + d({m},{t})");
                }
            }
        }
    }

    #[test]
    fn mesh_routing_matrix_is_consistent(seed in 0u64..2000, n in 4usize..8) {
        let topo = generators::generate(&BackboneSpec::tiny(n), seed).expect("valid");
        let pairs = OdPairs::new(n);
        let bw: Vec<f64> = (0..pairs.count()).map(|p| 1.0 + (p % 9) as f64).collect();
        let rm = route_lsp_mesh(&topo, &bw, CspfConfig::default()).expect("routable");

        // Column sums of the interior matrix equal path lengths.
        for (p, src, dst) in pairs.iter() {
            let path = rm.path(p).expect("in range");
            let col: f64 = (0..topo.n_links()).map(|l| rm.interior().get(l, p)).sum();
            prop_assert_eq!(col as usize, path.len());
            // Path endpoints match the pair.
            let first = topo.link(path.links[0]).expect("valid");
            let last = topo.link(*path.links.last().expect("nonempty")).expect("valid");
            prop_assert_eq!(first.src, src);
            prop_assert_eq!(last.dst, dst);
        }

        // Conservation: sum of ingress loads == sum of egress loads ==
        // total demand.
        let te = rm.ingress_loads(&bw).expect("dims");
        let tx = rm.egress_loads(&bw).expect("dims");
        let total: f64 = bw.iter().sum();
        prop_assert!((te.iter().sum::<f64>() - total).abs() < 1e-9 * total);
        prop_assert!((tx.iter().sum::<f64>() - total).abs() < 1e-9 * total);

        // Interior loads are nonnegative and bounded by the total.
        let loads = rm.interior_loads(&bw).expect("dims");
        prop_assert!(loads.iter().all(|&v| (0.0..=total * 1.0000001).contains(&v)));
    }

    #[test]
    fn cspf_respects_admission_when_feasible(seed in 0u64..500) {
        // With a generous subscription factor everything routes; with a
        // fallback disabled and zero subscription it must fail.
        let topo = generators::generate(&BackboneSpec::tiny(5), seed).expect("valid");
        let pairs = OdPairs::new(5);
        let bw = vec![1.0; pairs.count()];
        prop_assert!(route_lsp_mesh(&topo, &bw, CspfConfig::default()).is_ok());
        let strict = CspfConfig {
            subscription: 1e-9,
            fallback_unconstrained: false,
        };
        prop_assert!(route_lsp_mesh(&topo, &bw, strict).is_err());
    }
}
