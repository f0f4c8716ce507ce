//! OD-pair enumeration and the routing matrix of Eq. (1).
//!
//! With `N` nodes there are `P = N(N−1)` ordered pairs. The routing
//! matrix `R ∈ {0,1}^{L×P}` has `r_lp = 1` iff the demand of pair `p`
//! crosses link `l`. Besides the interior links, the paper's notation
//! uses the edge links `e(n)` (all traffic entering at node `n`) and
//! `x(m)` (all traffic leaving at `m`); those are available as extra row
//! blocks so estimators can choose which measurements to consume.

use tm_linalg::Csr;

use crate::error::NetError;
use crate::routing::Path;
use crate::topology::{NodeId, Topology};
use crate::Result;

/// Enumeration of ordered node pairs: `p = src·(N−1) + dst'` where
/// `dst' = dst` if `dst < src`, else `dst − 1`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OdPairs {
    n: usize,
}

impl OdPairs {
    /// Pair enumeration over `n` nodes.
    pub fn new(n: usize) -> Self {
        OdPairs { n }
    }

    /// Number of nodes.
    pub fn n_nodes(&self) -> usize {
        self.n
    }

    /// Number of ordered pairs `N(N−1)`.
    pub fn count(&self) -> usize {
        if self.n < 2 {
            0
        } else {
            self.n * (self.n - 1)
        }
    }

    /// Index of pair `(src, dst)`; `None` when `src == dst` or out of
    /// bounds.
    pub fn index(&self, src: NodeId, dst: NodeId) -> Option<usize> {
        if src == dst || src.0 >= self.n || dst.0 >= self.n {
            return None;
        }
        let d = if dst.0 < src.0 { dst.0 } else { dst.0 - 1 };
        Some(src.0 * (self.n - 1) + d)
    }

    /// The `(src, dst)` of pair `p`.
    ///
    /// # Panics
    /// Panics when `p >= count()`.
    pub fn pair(&self, p: usize) -> (NodeId, NodeId) {
        assert!(p < self.count(), "pair index {p} out of bounds");
        let src = p / (self.n - 1);
        let rem = p % (self.n - 1);
        let dst = if rem < src { rem } else { rem + 1 };
        (NodeId(src), NodeId(dst))
    }

    /// Iterate over all pair indices with their `(src, dst)`.
    pub fn iter(&self) -> impl Iterator<Item = (usize, NodeId, NodeId)> + '_ {
        (0..self.count()).map(move |p| {
            let (s, d) = self.pair(p);
            (p, s, d)
        })
    }

    /// Pair indices originating at `src`.
    pub fn from_source(&self, src: NodeId) -> Vec<usize> {
        (0..self.n)
            .filter(|&d| d != src.0)
            .filter_map(|d| self.index(src, NodeId(d)))
            .collect()
    }

    /// Pair indices terminating at `dst`.
    pub fn to_destination(&self, dst: NodeId) -> Vec<usize> {
        (0..self.n)
            .filter(|&s| s != dst.0)
            .filter_map(|s| self.index(NodeId(s), dst))
            .collect()
    }
}

/// The routing matrix plus the paths it was built from.
#[derive(Debug, Clone)]
pub struct RoutingMatrix {
    n_nodes: usize,
    n_links: usize,
    pairs: OdPairs,
    /// Interior-link rows (`L × P`).
    interior: Csr,
    /// Path per pair (same order as the pair enumeration).
    paths: Vec<Path>,
}

impl RoutingMatrix {
    /// Build from per-pair paths, validating that each path actually
    /// connects its pair's endpoints through consecutive links.
    pub fn from_paths(topo: &Topology, paths: Vec<Path>) -> Result<Self> {
        let pairs = OdPairs::new(topo.n_nodes());
        if paths.len() != pairs.count() {
            return Err(NetError::Dimension(format!(
                "{} paths for {} pairs",
                paths.len(),
                pairs.count()
            )));
        }
        let mut triplets = Vec::new();
        for (p, src, dst) in pairs.iter() {
            let path = &paths[p];
            if path.links.is_empty() {
                return Err(NetError::InvalidTopology(format!(
                    "pair {p} ({} -> {}) has an empty path",
                    src.0, dst.0
                )));
            }
            let mut cur = src;
            for &lid in &path.links {
                let link = topo.link(lid)?;
                if link.src != cur {
                    return Err(NetError::InvalidTopology(format!(
                        "pair {p}: link {} starts at {} but path is at {}",
                        lid.0, link.src.0, cur.0
                    )));
                }
                triplets.push((lid.0, p, 1.0));
                cur = link.dst;
            }
            if cur != dst {
                return Err(NetError::InvalidTopology(format!(
                    "pair {p}: path ends at {} instead of {}",
                    cur.0, dst.0
                )));
            }
        }
        let interior = Csr::from_triplets(topo.n_links(), pairs.count(), triplets)
            .map_err(|e| NetError::InvalidTopology(e.to_string()))?;
        Ok(RoutingMatrix {
            n_nodes: topo.n_nodes(),
            n_links: topo.n_links(),
            pairs,
            interior,
            paths,
        })
    }

    /// The pair enumeration.
    pub fn pairs(&self) -> &OdPairs {
        &self.pairs
    }

    /// Number of interior links (rows of [`Self::interior`]).
    pub fn n_links(&self) -> usize {
        self.n_links
    }

    /// Number of nodes.
    pub fn n_nodes(&self) -> usize {
        self.n_nodes
    }

    /// Interior-link routing matrix (`L × P`).
    pub fn interior(&self) -> &Csr {
        &self.interior
    }

    /// Path of pair `p`.
    pub fn path(&self, p: usize) -> Result<&Path> {
        self.paths
            .get(p)
            .ok_or_else(|| NetError::Dimension(format!("pair {p} out of bounds")))
    }

    /// Interior link loads `t = R·s`.
    pub fn interior_loads(&self, demands: &[f64]) -> Result<Vec<f64>> {
        self.check_demands(demands)?;
        Ok(self.interior.matvec(demands))
    }

    /// Ingress totals per node (`t_e(n) = Σ_m s_nm`).
    pub fn ingress_loads(&self, demands: &[f64]) -> Result<Vec<f64>> {
        self.check_demands(demands)?;
        let mut loads = vec![0.0; self.n_nodes];
        for (p, src, _) in self.pairs.iter() {
            loads[src.0] += demands[p];
        }
        Ok(loads)
    }

    /// Egress totals per node (`t_x(m) = Σ_n s_nm`).
    pub fn egress_loads(&self, demands: &[f64]) -> Result<Vec<f64>> {
        self.check_demands(demands)?;
        let mut loads = vec![0.0; self.n_nodes];
        for (p, _, dst) in self.pairs.iter() {
            loads[dst.0] += demands[p];
        }
        Ok(loads)
    }

    fn check_demands(&self, demands: &[f64]) -> Result<()> {
        if demands.len() != self.pairs.count() {
            return Err(NetError::Dimension(format!(
                "demand vector has {} entries for {} pairs",
                demands.len(),
                self.pairs.count()
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::routing::{route_lsp_mesh, CspfConfig};
    use crate::topology::NodeRole;

    fn line3() -> Topology {
        // A - B - C chain (duplex).
        let mut t = Topology::new("line");
        let a = t.add_node("A", NodeRole::Access);
        let b = t.add_node("B", NodeRole::Access);
        let c = t.add_node("C", NodeRole::Access);
        t.add_duplex(a, b, 1000.0, 1.0).unwrap();
        t.add_duplex(b, c, 1000.0, 1.0).unwrap();
        t
    }

    #[test]
    fn pair_enumeration_roundtrip() {
        let pairs = OdPairs::new(5);
        assert_eq!(pairs.count(), 20);
        for p in 0..20 {
            let (s, d) = pairs.pair(p);
            assert_ne!(s, d);
            assert_eq!(pairs.index(s, d), Some(p));
        }
        assert_eq!(pairs.index(NodeId(1), NodeId(1)), None);
        assert_eq!(pairs.index(NodeId(9), NodeId(1)), None);
        assert_eq!(OdPairs::new(1).count(), 0);
        assert_eq!(OdPairs::new(0).count(), 0);
    }

    #[test]
    fn paper_network_pair_counts() {
        // The paper's two networks: 12 PoPs -> 132 pairs; 25 -> 600.
        assert_eq!(OdPairs::new(12).count(), 132);
        assert_eq!(OdPairs::new(25).count(), 600);
    }

    #[test]
    fn from_source_and_to_destination() {
        let pairs = OdPairs::new(4);
        let from1 = pairs.from_source(NodeId(1));
        assert_eq!(from1.len(), 3);
        for &p in &from1 {
            assert_eq!(pairs.pair(p).0, NodeId(1));
        }
        let to2 = pairs.to_destination(NodeId(2));
        assert_eq!(to2.len(), 3);
        for &p in &to2 {
            assert_eq!(pairs.pair(p).1, NodeId(2));
        }
    }

    #[test]
    fn routing_matrix_reflects_paths() {
        let t = line3();
        let pairs = OdPairs::new(3);
        let rm = route_lsp_mesh(&t, &vec![1.0; pairs.count()], CspfConfig::default()).unwrap();
        // Demand A->C crosses both A->B and B->C links.
        let ac = pairs.index(NodeId(0), NodeId(2)).unwrap();
        assert_eq!(rm.path(ac).unwrap().len(), 2);
        let r = rm.interior();
        let col_sum: f64 = (0..t.n_links()).map(|l| r.get(l, ac)).sum();
        assert_eq!(col_sum, 2.0);
    }

    #[test]
    fn loads_are_consistent_with_matrix() {
        let t = line3();
        let pairs = OdPairs::new(3);
        let demands: Vec<f64> = (0..pairs.count()).map(|p| (p + 1) as f64).collect();
        let rm = route_lsp_mesh(&t, &demands, CspfConfig::default()).unwrap();

        let t_int = rm.interior_loads(&demands).unwrap();
        let via_matrix = rm.interior().matvec(&demands);
        assert_eq!(t_int, via_matrix);

        // Edge loads match row/column sums of the demand "matrix".
        let te = rm.ingress_loads(&demands).unwrap();
        let tx = rm.egress_loads(&demands).unwrap();
        let total: f64 = demands.iter().sum();
        assert!((te.iter().sum::<f64>() - total).abs() < 1e-12);
        assert!((tx.iter().sum::<f64>() - total).abs() < 1e-12);
    }

    #[test]
    fn from_paths_validates_chains() {
        let t = line3();
        let pairs = OdPairs::new(3);
        // Break one path: use an empty path.
        let good = route_lsp_mesh(&t, &vec![1.0; pairs.count()], CspfConfig::default()).unwrap();
        let mut paths: Vec<Path> = (0..pairs.count())
            .map(|p| good.path(p).unwrap().clone())
            .collect();
        paths[0] = Path { links: Vec::new() };
        assert!(RoutingMatrix::from_paths(&t, paths).is_err());

        // Wrong number of paths.
        assert!(RoutingMatrix::from_paths(&t, Vec::new()).is_err());

        // Path that does not end at the destination.
        let mut paths2: Vec<Path> = (0..pairs.count())
            .map(|p| good.path(p).unwrap().clone())
            .collect();
        let ab = pairs.index(NodeId(0), NodeId(1)).unwrap();
        let ac = pairs.index(NodeId(0), NodeId(2)).unwrap();
        paths2[ac] = paths2[ab].clone();
        assert!(RoutingMatrix::from_paths(&t, paths2).is_err());
    }

    #[test]
    fn demand_length_checked() {
        let t = line3();
        let pairs = OdPairs::new(3);
        let rm = route_lsp_mesh(&t, &vec![1.0; pairs.count()], CspfConfig::default()).unwrap();
        assert!(rm.interior_loads(&[1.0]).is_err());
        assert!(rm.ingress_loads(&[1.0]).is_err());
        assert!(rm.egress_loads(&[1.0]).is_err());
    }
}
