//! Network topology model: nodes, directed capacitated links, roles.
//!
//! A [`Topology`] is a directed multigraph. Nodes model PoPs (or routers,
//! before aggregation); links model unidirectional adjacencies with an
//! IGP metric and a capacity used by CSPF admission control.

use crate::error::NetError;
use crate::Result;

/// Index of a node within its topology.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub usize);

/// Index of a link within its topology.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LinkId(pub usize);

/// Role of an edge node, used by the generalized gravity model (peering
/// traffic behaves differently from access traffic, §4.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeRole {
    /// Customer access point: sources and sinks demand traffic.
    Access,
    /// Peering point with another network.
    Peering,
    /// Pure transit (no demand originates or terminates here). Present
    /// at router granularity; PoP-level nodes are never transit in the
    /// evaluation networks.
    Transit,
}

/// A node (PoP or router).
#[derive(Debug, Clone, PartialEq)]
pub struct Node {
    /// Human-readable name (city code, router name, ...).
    pub name: String,
    /// Node role.
    pub role: NodeRole,
}

/// A directed link.
#[derive(Debug, Clone, PartialEq)]
pub struct Link {
    /// Source node.
    pub src: NodeId,
    /// Destination node.
    pub dst: NodeId,
    /// Capacity in Mbps (used by CSPF admission control).
    pub capacity_mbps: f64,
    /// IGP metric (CSPF minimizes the metric sum along the path).
    pub metric: f64,
}

/// A directed multigraph of nodes and links.
#[derive(Debug, Clone, PartialEq)]
pub struct Topology {
    name: String,
    nodes: Vec<Node>,
    links: Vec<Link>,
    /// `out_links[n]` = link ids leaving node `n`, ascending.
    out_links: Vec<Vec<LinkId>>,
}

impl Topology {
    /// Create an empty topology with a name.
    pub fn new(name: impl Into<String>) -> Self {
        Topology {
            name: name.into(),
            nodes: Vec::new(),
            links: Vec::new(),
            out_links: Vec::new(),
        }
    }

    /// Topology name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Add a node; returns its id.
    pub fn add_node(&mut self, name: impl Into<String>, role: NodeRole) -> NodeId {
        let id = NodeId(self.nodes.len());
        self.nodes.push(Node {
            name: name.into(),
            role,
        });
        self.out_links.push(Vec::new());
        id
    }

    /// Add a directed link; returns its id.
    pub fn add_link(
        &mut self,
        src: NodeId,
        dst: NodeId,
        capacity_mbps: f64,
        metric: f64,
    ) -> Result<LinkId> {
        if src.0 >= self.nodes.len() {
            return Err(NetError::UnknownNode(src.0));
        }
        if dst.0 >= self.nodes.len() {
            return Err(NetError::UnknownNode(dst.0));
        }
        if src == dst {
            return Err(NetError::InvalidTopology(format!(
                "self-loop at node {}",
                src.0
            )));
        }
        if !(capacity_mbps > 0.0) || !(metric > 0.0) {
            return Err(NetError::InvalidTopology(format!(
                "link {} -> {} needs positive capacity and metric",
                src.0, dst.0
            )));
        }
        let id = LinkId(self.links.len());
        self.links.push(Link {
            src,
            dst,
            capacity_mbps,
            metric,
        });
        self.out_links[src.0].push(id);
        Ok(id)
    }

    /// Add a bidirectional adjacency (two directed links); returns both ids.
    pub fn add_duplex(
        &mut self,
        a: NodeId,
        b: NodeId,
        capacity_mbps: f64,
        metric: f64,
    ) -> Result<(LinkId, LinkId)> {
        let ab = self.add_link(a, b, capacity_mbps, metric)?;
        let ba = self.add_link(b, a, capacity_mbps, metric)?;
        Ok((ab, ba))
    }

    /// Number of nodes.
    pub fn n_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Number of directed links.
    pub fn n_links(&self) -> usize {
        self.links.len()
    }

    /// Node accessor.
    pub fn node(&self, id: NodeId) -> Result<&Node> {
        self.nodes.get(id.0).ok_or(NetError::UnknownNode(id.0))
    }

    /// Link accessor.
    pub fn link(&self, id: LinkId) -> Result<&Link> {
        self.links.get(id.0).ok_or(NetError::UnknownLink(id.0))
    }

    /// All nodes.
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// All links.
    pub fn links(&self) -> &[Link] {
        &self.links
    }

    /// Links leaving `n` in ascending id order.
    pub fn out_links(&self, n: NodeId) -> Result<&[LinkId]> {
        self.out_links
            .get(n.0)
            .map(Vec::as_slice)
            .ok_or(NetError::UnknownNode(n.0))
    }

    /// Ids of nodes that may originate/terminate demands (non-transit).
    pub fn demand_nodes(&self) -> Vec<NodeId> {
        (0..self.nodes.len())
            .filter(|&i| self.nodes[i].role != NodeRole::Transit)
            .map(NodeId)
            .collect()
    }

    /// Whether every node can reach every other node (directed).
    pub fn is_strongly_connected(&self) -> bool {
        let n = self.nodes.len();
        if n <= 1 {
            return true;
        }
        // BFS from node 0 forward and backward suffices for strong
        // connectivity of the whole graph only combined over all nodes;
        // for the symmetric topologies we generate, forward+backward from
        // one root is exact. We implement the general check: forward BFS
        // from every node would be O(n·(n+m)); n ≤ a few hundred here.
        for start in 0..n {
            let mut seen = vec![false; n];
            let mut queue = std::collections::VecDeque::new();
            seen[start] = true;
            queue.push_back(start);
            let mut count = 1;
            while let Some(u) = queue.pop_front() {
                for &lid in &self.out_links[u] {
                    let v = self.links[lid.0].dst.0;
                    if !seen[v] {
                        seen[v] = true;
                        count += 1;
                        queue.push_back(v);
                    }
                }
            }
            if count != n {
                return false;
            }
        }
        true
    }

    /// Validate structural invariants: ids consistent, no duplicate
    /// directed adjacency with identical endpoints *and* metric (parallel
    /// links are allowed if they differ in capacity or metric), strong
    /// connectivity.
    pub fn validate(&self) -> Result<()> {
        let mut seen = std::collections::HashSet::new();
        for (i, l) in self.links.iter().enumerate() {
            if l.src.0 >= self.nodes.len() {
                return Err(NetError::UnknownNode(l.src.0));
            }
            if l.dst.0 >= self.nodes.len() {
                return Err(NetError::UnknownNode(l.dst.0));
            }
            let key = (
                l.src.0,
                l.dst.0,
                l.metric.to_bits(),
                l.capacity_mbps.to_bits(),
            );
            if !seen.insert(key) {
                return Err(NetError::InvalidTopology(format!(
                    "duplicate link {i}: {} -> {}",
                    l.src.0, l.dst.0
                )));
            }
        }
        if !self.is_strongly_connected() {
            return Err(NetError::InvalidTopology(
                "topology is not strongly connected".into(),
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> Topology {
        let mut t = Topology::new("tri");
        let a = t.add_node("A", NodeRole::Access);
        let b = t.add_node("B", NodeRole::Access);
        let c = t.add_node("C", NodeRole::Peering);
        t.add_duplex(a, b, 1000.0, 1.0).unwrap();
        t.add_duplex(b, c, 1000.0, 1.0).unwrap();
        t.add_duplex(c, a, 1000.0, 1.0).unwrap();
        t
    }

    #[test]
    fn build_and_access() {
        let t = triangle();
        assert_eq!(t.n_nodes(), 3);
        assert_eq!(t.n_links(), 6);
        assert_eq!(t.node(NodeId(2)).unwrap().name, "C");
        assert_eq!(t.node(NodeId(2)).unwrap().role, NodeRole::Peering);
        assert_eq!(t.link(LinkId(0)).unwrap().src, NodeId(0));
        assert!(t.node(NodeId(9)).is_err());
        assert!(t.link(LinkId(9)).is_err());
        assert_eq!(t.out_links(NodeId(0)).unwrap().len(), 2);
    }

    #[test]
    fn rejects_bad_links() {
        let mut t = Topology::new("x");
        let a = t.add_node("A", NodeRole::Access);
        assert!(t.add_link(a, NodeId(5), 1.0, 1.0).is_err());
        assert!(t.add_link(NodeId(5), a, 1.0, 1.0).is_err());
        assert!(t.add_link(a, a, 1.0, 1.0).is_err());
        let b = t.add_node("B", NodeRole::Access);
        assert!(t.add_link(a, b, 0.0, 1.0).is_err());
        assert!(t.add_link(a, b, 1.0, 0.0).is_err());
        assert!(t.add_link(a, b, f64::NAN, 1.0).is_err());
    }

    #[test]
    fn validate_accepts_triangle() {
        triangle().validate().unwrap();
    }

    #[test]
    fn validate_rejects_duplicates() {
        let mut t = triangle();
        let (a, b) = (NodeId(0), NodeId(1));
        t.add_link(a, b, 1000.0, 1.0).unwrap(); // exact duplicate of link 0
        assert!(matches!(t.validate(), Err(NetError::InvalidTopology(_))));
    }

    #[test]
    fn parallel_links_with_distinct_capacity_allowed() {
        let mut t = triangle();
        let (a, b) = (NodeId(0), NodeId(1));
        t.add_link(a, b, 2500.0, 1.0).unwrap();
        t.validate().unwrap();
    }

    #[test]
    fn detects_disconnection() {
        let mut t = Topology::new("disc");
        let a = t.add_node("A", NodeRole::Access);
        let b = t.add_node("B", NodeRole::Access);
        // Only a -> b: not strongly connected.
        t.add_link(a, b, 100.0, 1.0).unwrap();
        assert!(!t.is_strongly_connected());
        assert!(t.validate().is_err());
        let single = Topology::new("empty");
        assert!(single.is_strongly_connected());
    }

    #[test]
    fn demand_nodes_exclude_transit() {
        let mut t = triangle();
        t.add_node("T", NodeRole::Transit);
        let d = t.demand_nodes();
        assert_eq!(d, vec![NodeId(0), NodeId(1), NodeId(2)]);
    }
}
