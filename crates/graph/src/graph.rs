//! Core graph representation.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Identifier of a node.
///
/// Node identities exist only at the simulator level; the agents of the
/// paper never observe them (the network is anonymous).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct NodeId(pub usize);

/// A local port number at some node; ports at a node of degree `d` are
/// exactly `0..d`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct PortId(pub usize);

/// Canonical identity of an undirected edge `{u, v}` with `u <= v`.
///
/// Because the graph is simple, the unordered node pair identifies the edge.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct EdgeId {
    /// Smaller endpoint.
    pub a: NodeId,
    /// Larger endpoint.
    pub b: NodeId,
}

impl EdgeId {
    /// Builds the canonical edge identity for endpoints in either order.
    pub fn new(u: NodeId, v: NodeId) -> Self {
        if u <= v {
            EdgeId { a: u, b: v }
        } else {
            EdgeId { a: v, b: u }
        }
    }

    /// The endpoint different from `n`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is not an endpoint of this edge.
    pub fn other(&self, n: NodeId) -> NodeId {
        if n == self.a {
            self.b
        } else if n == self.b {
            self.a
        } else {
            panic!("node {n:?} is not an endpoint of edge {self:?}");
        }
    }
}

impl fmt::Display for EdgeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{{}-{}}}", self.a.0, self.b.0)
    }
}

/// Result of traversing an edge: where the agent arrives and through which
/// port it entered — exactly the information the paper grants an agent.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Arrival {
    /// Node the agent arrives at.
    pub node: NodeId,
    /// Port at `node` through which the agent entered.
    pub entry_port: PortId,
}

/// A finite simple undirected connected graph with local port numbers.
///
/// Construct via [`crate::GraphBuilder`] or [`crate::generators`]; both
/// guarantee the structural invariants (simplicity, port consistency,
/// connectivity).
///
/// # Representation
///
/// The adjacency is stored in CSR (compressed sparse row) form: one flat
/// `(neighbor, back-port)` array with per-node offsets, so [`Graph::traverse`]
/// — the simulator's single hottest operation — is one bounds check and one
/// flat array read. In addition, every undirected edge is assigned a **dense
/// edge index** in `0..size()` at construction ([`Graph::edge_index_at`]),
/// which the simulator and coverage trackers use to replace hash maps keyed
/// by [`EdgeId`] with plain arrays.
///
/// Every stored id is a `u32` word: 8 bytes per port slot, 4 per slot's
/// edge index, 4 per node offset and 8 per edge, half of what `usize`
/// words take on a 64-bit target. The accessors widen back to
/// [`NodeId`]/[`PortId`]/`usize`; construction panics on a graph whose
/// ids do not fit in 32 bits rather than truncating them.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Graph {
    /// Flat adjacency: the entries of node `v` occupy
    /// `flat[offsets[v]..offsets[v + 1]]`, ordered by port; each entry is
    /// (neighbor reached via that port, port at the neighbor leading back).
    flat: Vec<(u32, u32)>,
    /// Per-node slice starts into `flat`; `offsets.len() == order + 1`.
    offsets: Vec<u32>,
    /// Dense edge index of the edge behind each `flat` slot (both directed
    /// slots of an undirected edge carry the same index).
    edge_index: Vec<u32>,
    /// Canonical endpoints `(a, b)`, `a < b`, per dense edge index. Index
    /// order equals the iteration order of [`Graph::edges`]: ascending
    /// smaller endpoint, then port order at that endpoint.
    edge_list: Vec<(u32, u32)>,
}

/// A node, port, slot or edge count as a stored CSR word.
///
/// # Panics
///
/// Panics if `x` does not fit in 32 bits.
pub(crate) fn word(x: usize) -> u32 {
    u32::try_from(x).expect("graph ids must fit in 32 bits")
}

/// A stored CSR word back as an index (lossless: `usize` is at least 32
/// bits on every supported target).
#[inline]
pub(crate) fn index(w: u32) -> usize {
    w as usize
}

impl Graph {
    /// Number of nodes (the paper calls this the *size* of the graph; we use
    /// the standard graph-theoretic *order* to keep [`Graph::size`] for edge
    /// count — conversions in the algorithm crates use `order`).
    pub fn order(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of edges (cached at construction; O(1)).
    pub fn size(&self) -> usize {
        self.edge_list.len()
    }

    /// Degree of node `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    #[inline]
    pub fn degree(&self, v: NodeId) -> usize {
        index(self.offsets[v.0 + 1] - self.offsets[v.0])
    }

    /// The CSR slot of `(v, p)`, bounds-checked against `v`'s degree (a
    /// raw `offsets[v] + p` could silently land in the next node's slice).
    #[inline]
    fn slot(&self, v: NodeId, p: PortId) -> usize {
        let start = index(self.offsets[v.0]);
        let end = index(self.offsets[v.0 + 1]);
        // Compare before adding: `start + p.0` could wrap for a huge port
        // in release builds and land inside another node's slice.
        assert!(
            p.0 < end - start,
            "port {} out of range at node {}",
            p.0,
            v.0
        );
        start + p.0
    }

    /// The stored `(neighbor, back port)` words of `v`, ordered by port.
    fn row(&self, v: NodeId) -> &[(u32, u32)] {
        &self.flat[index(self.offsets[v.0])..index(self.offsets[v.0 + 1])]
    }

    /// The adjacency entries of `v`, ordered by port: `(neighbor, port at
    /// the neighbor leading back to v)`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn neighbors(&self, v: NodeId) -> impl ExactSizeIterator<Item = (NodeId, PortId)> + '_ {
        self.row(v)
            .iter()
            .map(|&(u, q)| (NodeId(index(u)), PortId(index(q))))
    }

    /// The neighbor of `v` linked by the edge with port `p` at `v` — the
    /// paper's `succ(v, p)`.
    ///
    /// # Panics
    ///
    /// Panics if `v` or `p` is out of range.
    #[inline]
    pub fn succ(&self, v: NodeId, p: PortId) -> NodeId {
        NodeId(index(self.flat[self.slot(v, p)].0))
    }

    /// Traverses the edge with port `p` at `v`, returning the arrival node
    /// and entry port.
    ///
    /// # Panics
    ///
    /// Panics if `v` or `p` is out of range.
    #[inline]
    pub fn traverse(&self, v: NodeId, p: PortId) -> Arrival {
        self.arrival(self.slot(v, p))
    }

    /// The arrival through CSR slot `slot`.
    #[inline]
    fn arrival(&self, slot: usize) -> Arrival {
        let (node, entry_port) = self.flat[slot];
        Arrival {
            node: NodeId(index(node)),
            entry_port: PortId(index(entry_port)),
        }
    }

    /// [`Graph::traverse`] and [`Graph::edge_index_at`] from one CSR
    /// lookup: the arrival, and the dense index of the edge crossed.
    ///
    /// # Panics
    ///
    /// Panics if `v` or `p` is out of range.
    #[inline]
    pub fn traverse_indexed(&self, v: NodeId, p: PortId) -> (Arrival, usize) {
        let slot = self.slot(v, p);
        (self.arrival(slot), index(self.edge_index[slot]))
    }

    /// The canonical edge crossed when leaving `v` via port `p`.
    pub fn edge_at(&self, v: NodeId, p: PortId) -> EdgeId {
        self.edge_id(self.edge_index_at(v, p))
    }

    /// Dense index in `0..size()` of the edge behind port `p` at `v`. Both
    /// endpoints of an undirected edge map to the same index, and
    /// `edge_index_at` enumerates [`Graph::edges`] order — so the index can
    /// key plain arrays and bitsets (see [`crate::EdgeSet`]) where an
    /// `EdgeId`-keyed hash map would otherwise be needed.
    ///
    /// # Panics
    ///
    /// Panics if `v` or `p` is out of range.
    #[inline]
    pub fn edge_index_at(&self, v: NodeId, p: PortId) -> usize {
        index(self.edge_index[self.slot(v, p)])
    }

    /// The canonical [`EdgeId`] of dense edge index `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= size()`.
    #[inline]
    pub fn edge_id(&self, i: usize) -> EdgeId {
        let (a, b) = self.edge_list[i];
        EdgeId {
            a: NodeId(index(a)),
            b: NodeId(index(b)),
        }
    }

    /// Port at `v` whose edge leads to `u`, if `u` is adjacent to `v`.
    pub fn port_towards(&self, v: NodeId, u: NodeId) -> Option<PortId> {
        self.neighbors(v).position(|(n, _)| n == u).map(PortId)
    }

    /// Iterator over all node identifiers.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.order()).map(NodeId)
    }

    /// Iterator over all canonical edges, in dense-index order.
    pub fn edges(&self) -> impl Iterator<Item = EdgeId> + '_ {
        (0..self.size()).map(|i| self.edge_id(i))
    }

    /// Maximum degree over all nodes.
    pub fn max_degree(&self) -> usize {
        self.nodes().map(|v| self.degree(v)).max().unwrap_or(0)
    }

    /// Breadth-first distances from `start` (in edges); `usize::MAX` never
    /// appears because the graph is connected.
    pub fn bfs_distances(&self, start: NodeId) -> Vec<usize> {
        let mut dist = vec![usize::MAX; self.order()];
        let mut queue = std::collections::VecDeque::new();
        dist[start.0] = 0;
        queue.push_back(start);
        while let Some(v) = queue.pop_front() {
            for (u, _) in self.neighbors(v) {
                if dist[u.0] == usize::MAX {
                    dist[u.0] = dist[v.0] + 1;
                    queue.push_back(u);
                }
            }
        }
        dist
    }

    /// Graph diameter (longest shortest path).
    pub fn diameter(&self) -> usize {
        self.nodes()
            .map(|v| self.bfs_distances(v).into_iter().max().unwrap_or(0))
            .max()
            .unwrap_or(0)
    }

    /// Internal constructor used by the builder after validation: takes
    /// the CSR rows and assigns the dense edge indices, in ascending order
    /// of the smaller endpoint, then port order there.
    ///
    /// # Panics
    ///
    /// Panics if the edge count does not fit in 32 bits.
    pub(crate) fn from_csr(offsets: Vec<u32>, flat: Vec<(u32, u32)>) -> Self {
        let mut edge_index = vec![u32::MAX; flat.len()];
        let mut edge_list = Vec::with_capacity(flat.len() / 2);
        for v in 0..offsets.len() - 1 {
            let start = index(offsets[v]);
            for (slot, &(u, q)) in flat[start..index(offsets[v + 1])].iter().enumerate() {
                if index(u) > v {
                    let idx = word(edge_list.len());
                    edge_list.push((word(v), u));
                    edge_index[start + slot] = idx;
                    edge_index[index(offsets[index(u)] + q)] = idx;
                }
            }
        }
        debug_assert!(
            edge_index.iter().all(|&i| i != u32::MAX),
            "every port slot must belong to exactly one undirected edge"
        );
        Graph {
            flat,
            offsets,
            edge_index,
            edge_list,
        }
    }
}

/// Serialises in the pre-CSR wire shape `{"adj": [[[u, q], …], …]}` so the
/// representation change is invisible to anything consuming the JSON.
impl Serialize for Graph {
    fn serialize_json(&self, out: &mut String) {
        out.push_str("{\"adj\":[");
        for (i, v) in self.nodes().enumerate() {
            if i > 0 {
                out.push(',');
            }
            self.row(v).serialize_json(out);
        }
        out.push_str("]}");
    }
}

impl Deserialize for Graph {}

impl fmt::Display for Graph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "graph: {} nodes, {} edges", self.order(), self.size())?;
        for v in self.nodes() {
            write!(f, "  {}:", v.0)?;
            for (p, (u, q)) in self.neighbors(v).enumerate() {
                write!(f, " [{}]->{}:{}", p, u.0, q.0)?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn edge_id_is_canonical() {
        let e1 = EdgeId::new(NodeId(3), NodeId(1));
        let e2 = EdgeId::new(NodeId(1), NodeId(3));
        assert_eq!(e1, e2);
        assert_eq!(e1.a, NodeId(1));
        assert_eq!(e1.other(NodeId(1)), NodeId(3));
        assert_eq!(e1.other(NodeId(3)), NodeId(1));
    }

    #[test]
    #[should_panic(expected = "not an endpoint")]
    fn edge_other_panics_for_non_endpoint() {
        EdgeId::new(NodeId(0), NodeId(1)).other(NodeId(2));
    }

    #[test]
    fn ring_traverse_round_trip() {
        let g = generators::ring(5);
        for v in g.nodes() {
            for p in 0..g.degree(v) {
                let arr = g.traverse(v, PortId(p));
                // Going back through the entry port returns to v.
                let back = g.traverse(arr.node, arr.entry_port);
                assert_eq!(back.node, v);
                assert_eq!(back.entry_port, PortId(p));
            }
        }
    }

    #[test]
    fn order_size_degree_on_complete_graph() {
        let g = generators::complete(6);
        assert_eq!(g.order(), 6);
        assert_eq!(g.size(), 15);
        assert!(g.nodes().all(|v| g.degree(v) == 5));
        assert_eq!(g.max_degree(), 5);
    }

    #[test]
    fn port_towards_finds_neighbors_only() {
        let g = generators::path(4);
        assert!(g.port_towards(NodeId(0), NodeId(1)).is_some());
        assert_eq!(g.port_towards(NodeId(0), NodeId(3)), None);
    }

    #[test]
    fn bfs_and_diameter_on_path() {
        let g = generators::path(5);
        let d = g.bfs_distances(NodeId(0));
        assert_eq!(d, vec![0, 1, 2, 3, 4]);
        assert_eq!(g.diameter(), 4);
    }

    #[test]
    fn edges_iterator_yields_each_edge_once() {
        let g = generators::complete(5);
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(edges.len(), 10);
        let mut dedup = edges.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), 10);
    }

    #[test]
    fn display_contains_adjacency() {
        let g = generators::ring(3);
        let s = g.to_string();
        assert!(s.contains("3 nodes, 3 edges"));
    }

    #[test]
    fn edge_indices_are_dense_and_shared_by_both_endpoints() {
        for g in [
            generators::ring(7),
            generators::complete(6),
            generators::gnp_connected(12, 0.4, 3),
            generators::lollipop(5, 4),
        ] {
            let mut seen = vec![false; g.size()];
            for v in g.nodes() {
                for p in 0..g.degree(v) {
                    let idx = g.edge_index_at(v, PortId(p));
                    assert!(idx < g.size(), "index {idx} out of 0..{}", g.size());
                    seen[idx] = true;
                    // Both directed slots of the edge share the index.
                    let arr = g.traverse(v, PortId(p));
                    assert_eq!(idx, g.edge_index_at(arr.node, arr.entry_port));
                    assert_eq!(g.traverse_indexed(v, PortId(p)), (arr, idx));
                    // The index resolves back to the canonical EdgeId.
                    assert_eq!(g.edge_id(idx), EdgeId::new(v, arr.node));
                    assert_eq!(g.edge_at(v, PortId(p)), EdgeId::new(v, arr.node));
                }
            }
            assert!(seen.iter().all(|&s| s), "every dense index must be used");
        }
    }

    #[test]
    fn edge_index_order_matches_edges_iterator() {
        let g = generators::gnp_connected(10, 0.5, 8);
        let listed: Vec<_> = g.edges().collect();
        for (idx, e) in listed.iter().enumerate() {
            assert_eq!(g.edge_id(idx), *e);
            let p = g.port_towards(e.a, e.b).expect("endpoints are adjacent");
            assert_eq!(g.edge_index_at(e.a, p), idx);
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn traverse_rejects_out_of_range_port() {
        let g = generators::ring(4);
        g.traverse(NodeId(0), PortId(2));
    }

    #[test]
    fn csr_words_are_32_bit() {
        let g = generators::ring(4);
        assert_eq!(std::mem::size_of_val(&g.flat[0]), 8, "bytes per port slot");
        assert_eq!(
            std::mem::size_of_val(&g.edge_index[0]),
            4,
            "bytes per edge index"
        );
        assert_eq!(std::mem::size_of_val(&g.offsets[0]), 4, "bytes per offset");
        assert_eq!(std::mem::size_of_val(&g.edge_list[0]), 8, "bytes per edge");
    }

    #[test]
    #[should_panic(expected = "32 bits")]
    fn oversized_ids_panic_instead_of_truncating() {
        word(u32::MAX as usize + 1);
    }

    #[test]
    fn serde_shape_is_the_nested_adjacency() {
        let g = generators::path(3);
        let json = serde_json::to_string(&g).unwrap();
        // path(3): 0 -[0]- 1 -[1]- 2 with back-ports 0/0 and 1/0.
        assert_eq!(json, r#"{"adj":[[[1,0]],[[0,0],[2,0]],[[1,1]]]}"#);
        // And the emitted document is well-formed JSON.
        let doc = serde_json::from_str(&json).unwrap();
        assert_eq!(
            doc.get("adj").and_then(|v| v.as_array()).map(<[_]>::len),
            Some(3)
        );
    }
}
