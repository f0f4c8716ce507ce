//! Shortest-path and constrained shortest-path (CSPF) routing.
//!
//! Global Crossing's backbone routes a full mesh of MPLS LSPs with CSPF:
//! each LSP requests a bandwidth, and its head-end computes the shortest
//! IGP path among those with enough *reservable* bandwidth remaining
//! (paper §5.1.1). The paper reproduces the routing with Cariden MATE;
//! we implement CSPF directly.
//!
//! Determinism: Dijkstra breaks ties by (metric, hop count, node id), so
//! a topology plus demand set always produces the same routing matrix.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use serde::{Deserialize, Serialize};

use crate::error::NetError;
use crate::matrix::{OdPairs, RoutingMatrix};
use crate::topology::{LinkId, NodeId, Topology};
use crate::Result;

/// A routed path: the link ids traversed from source to destination.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Path {
    /// Links in traversal order.
    pub links: Vec<LinkId>,
}

impl Path {
    /// Number of hops.
    pub fn len(&self) -> usize {
        self.links.len()
    }

    /// True when the path is empty (src == dst, never produced by the
    /// mesh router).
    pub fn is_empty(&self) -> bool {
        self.links.is_empty()
    }
}

/// CSPF configuration.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct CspfConfig {
    /// Fraction of link capacity available for reservation (RSVP
    /// subscription factor; 1.0 = the full capacity).
    pub subscription: f64,
    /// When `true`, an LSP that cannot find a feasible constrained path
    /// falls back to the unconstrained shortest path (overbooking),
    /// mirroring operational practice instead of failing the setup.
    pub fallback_unconstrained: bool,
}

impl Default for CspfConfig {
    fn default() -> Self {
        CspfConfig {
            subscription: 1.0,
            fallback_unconstrained: true,
        }
    }
}

/// Priority-queue entry ordered by (cost, hops, node) ascending.
#[derive(PartialEq)]
struct HeapItem {
    cost: f64,
    hops: usize,
    node: usize,
}

impl Eq for HeapItem {}

impl Ord for HeapItem {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert for min-heap behaviour.
        other
            .cost
            .partial_cmp(&self.cost)
            .unwrap_or(Ordering::Equal)
            .then_with(|| other.hops.cmp(&self.hops))
            .then_with(|| other.node.cmp(&self.node))
    }
}

impl PartialOrd for HeapItem {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Dijkstra shortest path from `src` to `dst` over links admitted by
/// `admit`. Ties are broken deterministically by hop count, then by the
/// predecessor link id.
pub fn shortest_path(
    topo: &Topology,
    src: NodeId,
    dst: NodeId,
    mut admit: impl FnMut(LinkId) -> bool,
) -> Result<Path> {
    let n = topo.n_nodes();
    if src.0 >= n {
        return Err(NetError::UnknownNode(src.0));
    }
    if dst.0 >= n {
        return Err(NetError::UnknownNode(dst.0));
    }
    if src == dst {
        return Ok(Path { links: Vec::new() });
    }

    let mut dist = vec![f64::INFINITY; n];
    let mut hops = vec![usize::MAX; n];
    let mut prev: Vec<Option<LinkId>> = vec![None; n];
    let mut done = vec![false; n];
    let mut heap = BinaryHeap::new();
    dist[src.0] = 0.0;
    hops[src.0] = 0;
    heap.push(HeapItem {
        cost: 0.0,
        hops: 0,
        node: src.0,
    });

    while let Some(HeapItem {
        cost,
        hops: h,
        node,
    }) = heap.pop()
    {
        if done[node] {
            continue;
        }
        done[node] = true;
        if node == dst.0 {
            break;
        }
        for &lid in topo.out_links(NodeId(node))? {
            if !admit(lid) {
                continue;
            }
            let link = topo.link(lid)?;
            let v = link.dst.0;
            if done[v] {
                continue;
            }
            let ncost = cost + link.metric;
            let nhops = h + 1;
            let better = ncost < dist[v] - 1e-12
                || ((ncost - dist[v]).abs() <= 1e-12
                    && (nhops < hops[v]
                        || (nhops == hops[v] && prev[v].is_some_and(|p| lid.0 < p.0))));
            if better {
                dist[v] = ncost;
                hops[v] = nhops;
                prev[v] = Some(lid);
                heap.push(HeapItem {
                    cost: ncost,
                    hops: nhops,
                    node: v,
                });
            }
        }
    }

    if prev[dst.0].is_none() {
        return Err(NetError::NoPath {
            src: src.0,
            dst: dst.0,
        });
    }
    // Reconstruct.
    let mut links = Vec::new();
    let mut cur = dst.0;
    while cur != src.0 {
        let lid = prev[cur].expect("predecessor chain is complete");
        links.push(lid);
        cur = topo.link(lid)?.src.0;
    }
    links.reverse();
    Ok(Path { links })
}

/// Route a full LSP mesh with CSPF and produce the routing matrix.
///
/// `bandwidth[p]` is the bandwidth request (Mbps) of the LSP for OD pair
/// `p` in [`OdPairs`] order. LSPs are admitted in descending bandwidth
/// order (deterministic tie-break by pair index), each on the shortest
/// path with sufficient reservable capacity; reservations accumulate.
pub fn route_lsp_mesh(
    topo: &Topology,
    bandwidth: &[f64],
    config: CspfConfig,
) -> Result<RoutingMatrix> {
    let pairs = OdPairs::new(topo.n_nodes());
    if bandwidth.len() != pairs.count() {
        return Err(NetError::Dimension(format!(
            "bandwidth vector has {} entries for {} OD pairs",
            bandwidth.len(),
            pairs.count()
        )));
    }
    if !(config.subscription > 0.0) {
        return Err(NetError::InvalidTopology(
            "subscription factor must be positive".into(),
        ));
    }

    // Setup order: descending bandwidth, then ascending pair id.
    let mut order: Vec<usize> = (0..pairs.count()).collect();
    order.sort_by(|&a, &b| {
        bandwidth[b]
            .partial_cmp(&bandwidth[a])
            .unwrap_or(Ordering::Equal)
            .then_with(|| a.cmp(&b))
    });

    let mut reserved = vec![0.0f64; topo.n_links()];
    let mut paths: Vec<Option<Path>> = vec![None; pairs.count()];
    for &p in &order {
        let (src, dst) = pairs.pair(p);
        let bw = bandwidth[p];
        let attempt = shortest_path(topo, src, dst, |lid| {
            let link = &topo.links()[lid.0];
            link.capacity_mbps * config.subscription - reserved[lid.0] >= bw
        });
        let path = match attempt {
            Ok(path) => path,
            Err(NetError::NoPath { .. }) if config.fallback_unconstrained => {
                shortest_path(topo, src, dst, |_| true)?
            }
            Err(e) => return Err(e),
        };
        for &lid in &path.links {
            reserved[lid.0] += bw;
        }
        paths[p] = Some(path);
    }

    let paths: Vec<Path> = paths
        .into_iter()
        .map(|p| p.expect("every pair routed"))
        .collect();
    RoutingMatrix::from_paths(topo, paths)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::NodeRole;

    /// Square with a diagonal: A-B-C-D ring plus A-C.
    fn square() -> Topology {
        let mut t = Topology::new("sq");
        let a = t.add_node("A", NodeRole::Access);
        let b = t.add_node("B", NodeRole::Access);
        let c = t.add_node("C", NodeRole::Access);
        let d = t.add_node("D", NodeRole::Access);
        t.add_duplex(a, b, 1000.0, 1.0).unwrap();
        t.add_duplex(b, c, 1000.0, 1.0).unwrap();
        t.add_duplex(c, d, 1000.0, 1.0).unwrap();
        t.add_duplex(d, a, 1000.0, 1.0).unwrap();
        t.add_duplex(a, c, 1000.0, 1.0).unwrap();
        t
    }

    #[test]
    fn shortest_path_direct_link() {
        let t = square();
        let p = shortest_path(&t, NodeId(0), NodeId(2), |_| true).unwrap();
        assert_eq!(p.len(), 1, "A-C diagonal should win");
        assert_eq!(t.link(p.links[0]).unwrap().dst, NodeId(2));
    }

    #[test]
    fn shortest_path_two_hops() {
        let t = square();
        let p = shortest_path(&t, NodeId(1), NodeId(3), |_| true).unwrap();
        assert_eq!(p.len(), 2);
        // Path validity: consecutive links chain from src to dst.
        assert_eq!(t.link(p.links[0]).unwrap().src, NodeId(1));
        assert_eq!(
            t.link(p.links[0]).unwrap().dst,
            t.link(p.links[1]).unwrap().src
        );
        assert_eq!(t.link(p.links[1]).unwrap().dst, NodeId(3));
    }

    #[test]
    fn shortest_path_same_node_is_empty() {
        let t = square();
        let p = shortest_path(&t, NodeId(0), NodeId(0), |_| true).unwrap();
        assert!(p.is_empty());
    }

    #[test]
    fn admit_filter_forces_detour() {
        let t = square();
        // Forbid the A->C diagonal (find its id first).
        let diag = t
            .links()
            .iter()
            .position(|l| l.src == NodeId(0) && l.dst == NodeId(2))
            .unwrap();
        let p = shortest_path(&t, NodeId(0), NodeId(2), |lid| lid.0 != diag).unwrap();
        assert_eq!(p.len(), 2);
    }

    #[test]
    fn no_path_is_detected() {
        let t = square();
        let res = shortest_path(&t, NodeId(0), NodeId(2), |_| false);
        assert!(matches!(res, Err(NetError::NoPath { .. })));
        assert!(shortest_path(&t, NodeId(9), NodeId(0), |_| true).is_err());
        assert!(shortest_path(&t, NodeId(0), NodeId(9), |_| true).is_err());
    }

    #[test]
    fn deterministic_tie_break() {
        // Two equal-cost 2-hop paths B->A->D and B->C->D in the ring
        // without the diagonal; the lower link id must win repeatedly.
        let mut t = Topology::new("ring");
        let ids: Vec<NodeId> = (0..4)
            .map(|i| t.add_node(format!("N{i}"), NodeRole::Access))
            .collect();
        t.add_duplex(ids[0], ids[1], 1000.0, 1.0).unwrap();
        t.add_duplex(ids[1], ids[2], 1000.0, 1.0).unwrap();
        t.add_duplex(ids[2], ids[3], 1000.0, 1.0).unwrap();
        t.add_duplex(ids[3], ids[0], 1000.0, 1.0).unwrap();
        let p1 = shortest_path(&t, ids[1], ids[3], |_| true).unwrap();
        for _ in 0..5 {
            let p2 = shortest_path(&t, ids[1], ids[3], |_| true).unwrap();
            assert_eq!(p1, p2);
        }
    }

    #[test]
    fn lsp_mesh_routes_every_pair() {
        let t = square();
        let pairs = OdPairs::new(4);
        let bw = vec![10.0; pairs.count()];
        let rm = route_lsp_mesh(&t, &bw, CspfConfig::default()).unwrap();
        assert_eq!(rm.pairs().count(), 12);
        // Every pair has a nonempty path.
        for p in 0..pairs.count() {
            assert!(!rm.path(p).unwrap().is_empty());
        }
    }

    #[test]
    fn cspf_respects_capacity() {
        // Two parallel routes between A and B: direct (small capacity) and
        // via C (large). Three LSPs of 60 each exceed the direct link's
        // 100: the third must take the detour.
        let mut t = Topology::new("cap");
        let a = t.add_node("A", NodeRole::Access);
        let b = t.add_node("B", NodeRole::Access);
        let c = t.add_node("C", NodeRole::Access);
        t.add_duplex(a, b, 100.0, 1.0).unwrap();
        t.add_duplex(a, c, 10_000.0, 1.0).unwrap();
        t.add_duplex(c, b, 10_000.0, 1.0).unwrap();

        // Only pair (A,B) has bandwidth; use three separate meshes to
        // emulate repeated setup — here instead exercise one mesh whose
        // A->B LSP (60) fits, then manually verify reservations via a
        // second larger LSP.
        let pairs = OdPairs::new(3);
        let mut bw = vec![0.000001; pairs.count()];
        let ab = pairs.index(NodeId(0), NodeId(1)).unwrap();
        bw[ab] = 60.0;
        let rm = route_lsp_mesh(&t, &bw, CspfConfig::default()).unwrap();
        assert_eq!(rm.path(ab).unwrap().len(), 1, "60 fits on the direct link");

        let mut bw2 = bw.clone();
        bw2[ab] = 150.0; // exceeds the 100 Mbps direct link
        let rm2 = route_lsp_mesh(&t, &bw2, CspfConfig::default()).unwrap();
        assert_eq!(rm2.path(ab).unwrap().len(), 2, "150 must detour via C");
    }

    #[test]
    fn cspf_fallback_when_nothing_fits() {
        let mut t = Topology::new("tiny");
        let a = t.add_node("A", NodeRole::Access);
        let b = t.add_node("B", NodeRole::Access);
        t.add_duplex(a, b, 10.0, 1.0).unwrap();
        let pairs = OdPairs::new(2);
        let mut bw = vec![0.0; pairs.count()];
        bw[pairs.index(a, b).unwrap()] = 100.0; // over capacity
                                                // With fallback: routes anyway.
        let rm = route_lsp_mesh(&t, &bw, CspfConfig::default()).unwrap();
        assert_eq!(rm.path(pairs.index(a, b).unwrap()).unwrap().len(), 1);
        // Without fallback: error.
        let res = route_lsp_mesh(
            &t,
            &bw,
            CspfConfig {
                fallback_unconstrained: false,
                ..Default::default()
            },
        );
        assert!(matches!(res, Err(NetError::NoPath { .. })));
    }

    #[test]
    fn mesh_rejects_wrong_bandwidth_length() {
        let t = square();
        assert!(route_lsp_mesh(&t, &[1.0; 3], CspfConfig::default()).is_err());
        assert!(route_lsp_mesh(
            &t,
            &[1.0; 12],
            CspfConfig {
                subscription: 0.0,
                ..Default::default()
            }
        )
        .is_err());
    }
}
