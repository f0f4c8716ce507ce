//! Deterministic backbone topology generators.
//!
//! The paper's networks are proprietary; what matters for reproducing its
//! experiments is their *shape*: node count, directed link count, strong
//! connectivity, a mix of access and peering PoPs, and realistic
//! capacity/metric diversity. [`BackboneSpec::europe`] and
//! [`BackboneSpec::america`] match the published counts exactly
//! (12 PoPs / 72 directed links and 25 PoPs / 284 directed links).
//!
//! Construction: nodes are placed at random coordinates, connected in a
//! random-order ring (guaranteeing strong connectivity), and random
//! chords are added until the target link count is reached. IGP metrics
//! are Euclidean distances, which keeps equal-cost ties rare, as in a
//! real continental backbone.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::error::NetError;
use crate::topology::{NodeId, NodeRole, Topology};
use crate::Result;

/// Parameters of a generated backbone.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BackboneSpec {
    /// Topology name.
    pub name: String,
    /// Number of PoPs.
    pub n_pops: usize,
    /// Number of *duplex* inter-PoP adjacencies (directed links = 2×).
    pub duplex_edges: usize,
    /// Fraction of PoPs acting as peering points (the rest are access).
    pub peering_fraction: f64,
    /// Capacity choices in Mbps (picked per adjacency, deterministic in
    /// the seed). Defaults model OC-48 / OC-192 trunks.
    pub capacities_mbps: Vec<f64>,
}

impl BackboneSpec {
    /// The European subnetwork of the paper: 12 PoPs, 72 directed links.
    pub fn europe() -> Self {
        BackboneSpec {
            name: "europe".into(),
            n_pops: 12,
            duplex_edges: 36,
            peering_fraction: 0.25,
            capacities_mbps: vec![2_500.0, 10_000.0],
        }
    }

    /// The American subnetwork of the paper: 25 PoPs, 284 directed links.
    pub fn america() -> Self {
        BackboneSpec {
            name: "america".into(),
            n_pops: 25,
            duplex_edges: 142,
            peering_fraction: 0.2,
            capacities_mbps: vec![2_500.0, 10_000.0],
        }
    }

    /// A small topology for quick tests and examples.
    pub fn tiny(n_pops: usize) -> Self {
        BackboneSpec {
            name: format!("tiny{n_pops}"),
            n_pops,
            duplex_edges: n_pops + n_pops / 2,
            peering_fraction: 0.25,
            capacities_mbps: vec![1_000.0, 2_500.0],
        }
    }
}

/// Generate a backbone topology from a spec, deterministically in `seed`.
pub fn generate(spec: &BackboneSpec, seed: u64) -> Result<Topology> {
    let n = spec.n_pops;
    if n < 3 {
        return Err(NetError::InvalidTopology(
            "backbone needs at least 3 PoPs".into(),
        ));
    }
    let max_edges = n * (n - 1) / 2;
    if spec.duplex_edges < n || spec.duplex_edges > max_edges {
        return Err(NetError::InvalidTopology(format!(
            "duplex_edges {} outside [{n}, {max_edges}]",
            spec.duplex_edges
        )));
    }
    if spec.capacities_mbps.is_empty() {
        return Err(NetError::InvalidTopology("no capacity choices".into()));
    }

    let mut rng = StdRng::seed_from_u64(seed ^ 0x6265_6163_6b62_6f6e);
    let mut topo = Topology::new(spec.name.clone());

    // Coordinates in a 1000x1000 plane; metric = distance (min 1).
    let coords: Vec<(f64, f64)> = (0..n)
        .map(|_| (rng.random::<f64>() * 1000.0, rng.random::<f64>() * 1000.0))
        .collect();

    let n_peering = ((n as f64) * spec.peering_fraction).round() as usize;
    // Peering PoPs are a deterministic random subset.
    let mut ids: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = rng.random_range(0..=i);
        ids.swap(i, j);
    }
    let peering: std::collections::HashSet<usize> = ids[..n_peering].iter().copied().collect();

    for i in 0..n {
        let role = if peering.contains(&i) {
            NodeRole::Peering
        } else {
            NodeRole::Access
        };
        topo.add_node(format!("{}-pop{i:02}", spec.name), role);
    }

    let metric = |a: usize, b: usize| -> f64 {
        let dx = coords[a].0 - coords[b].0;
        let dy = coords[a].1 - coords[b].1;
        (dx * dx + dy * dy).sqrt().max(1.0)
    };
    let pick_capacity = |rng: &mut StdRng| -> f64 {
        spec.capacities_mbps[rng.random_range(0..spec.capacities_mbps.len())]
    };

    // Ring over a shuffled node order for connectivity.
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = rng.random_range(0..=i);
        order.swap(i, j);
    }
    let mut used = std::collections::HashSet::new();
    for i in 0..n {
        let a = order[i];
        let b = order[(i + 1) % n];
        let key = (a.min(b), a.max(b));
        used.insert(key);
        let cap = pick_capacity(&mut rng);
        topo.add_duplex(NodeId(a), NodeId(b), cap, metric(a, b))?;
    }

    // Random chords until the target edge count.
    let mut guard = 0usize;
    while used.len() < spec.duplex_edges {
        let a = rng.random_range(0..n);
        let b = rng.random_range(0..n);
        if a == b {
            continue;
        }
        let key = (a.min(b), a.max(b));
        if used.contains(&key) {
            guard += 1;
            if guard > 100_000 {
                return Err(NetError::InvalidTopology(
                    "chord sampling stalled (edge budget too dense)".into(),
                ));
            }
            continue;
        }
        used.insert(key);
        let cap = pick_capacity(&mut rng);
        topo.add_duplex(NodeId(a), NodeId(b), cap, metric(a, b))?;
    }

    topo.validate()?;
    Ok(topo)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn europe_matches_paper_counts() {
        let t = generate(&BackboneSpec::europe(), 1).unwrap();
        assert_eq!(t.n_nodes(), 12);
        assert_eq!(t.n_links(), 72);
        assert!(t.is_strongly_connected());
        // 132 OD pairs.
        assert_eq!(crate::matrix::OdPairs::new(t.n_nodes()).count(), 132);
    }

    #[test]
    fn america_matches_paper_counts() {
        let t = generate(&BackboneSpec::america(), 1).unwrap();
        assert_eq!(t.n_nodes(), 25);
        assert_eq!(t.n_links(), 284);
        assert!(t.is_strongly_connected());
        assert_eq!(crate::matrix::OdPairs::new(t.n_nodes()).count(), 600);
    }

    #[test]
    fn generation_is_deterministic() {
        let a = generate(&BackboneSpec::europe(), 7).unwrap();
        let b = generate(&BackboneSpec::europe(), 7).unwrap();
        assert_eq!(a, b);
        let c = generate(&BackboneSpec::europe(), 8).unwrap();
        assert_ne!(a, c, "different seeds should differ");
    }

    #[test]
    fn roles_are_mixed() {
        let t = generate(&BackboneSpec::europe(), 3).unwrap();
        let peering = t
            .nodes()
            .iter()
            .filter(|n| n.role == NodeRole::Peering)
            .count();
        assert_eq!(peering, 3, "25% of 12 PoPs");
        assert_eq!(t.demand_nodes().len(), 12, "PoPs all carry demands");
    }

    #[test]
    fn rejects_invalid_specs() {
        let mut s = BackboneSpec::europe();
        s.n_pops = 2;
        assert!(generate(&s, 1).is_err());
        let mut s = BackboneSpec::europe();
        s.duplex_edges = 5; // below n
        assert!(generate(&s, 1).is_err());
        let mut s = BackboneSpec::europe();
        s.duplex_edges = 67; // above n(n-1)/2 = 66
        assert!(generate(&s, 1).is_err());
        let mut s = BackboneSpec::europe();
        s.capacities_mbps.clear();
        assert!(generate(&s, 1).is_err());
    }

    #[test]
    fn capacities_come_from_choices() {
        let spec = BackboneSpec::europe();
        let t = generate(&spec, 5).unwrap();
        for l in t.links() {
            assert!(spec.capacities_mbps.contains(&l.capacity_mbps));
            assert!(l.metric >= 1.0);
        }
    }

    #[test]
    fn tiny_spec_generates() {
        let t = generate(&BackboneSpec::tiny(5), 2).unwrap();
        assert_eq!(t.n_nodes(), 5);
        assert!(t.is_strongly_connected());
    }

    #[test]
    fn dense_edge_budget_is_feasible() {
        // Request the complete graph: all pairs.
        let mut s = BackboneSpec::tiny(6);
        s.duplex_edges = 15;
        let t = generate(&s, 9).unwrap();
        assert_eq!(t.n_links(), 30);
    }
}
