//! Incremental construction of valid port-numbered graphs.
//!
//! [`GraphBuilder`] keeps one flat list of edges, each with the port it
//! holds at either end, and one degree count per node. Errors come from
//! two places:
//!
//! * [`GraphBuilder::edge`] refuses what one edge shows on its own, at
//!   once: an endpoint out of range ([`BuildError::NodeOutOfRange`]), then
//!   a self-loop ([`BuildError::SelfLoop`]). A refused edge leaves the
//!   builder as it was.
//! * [`GraphBuilder::build`] writes the CSR straight from the list, then
//!   refuses what only the whole graph shows, in this order: fewer than
//!   two nodes ([`BuildError::TooSmall`]), an edge added twice in either
//!   order ([`BuildError::DuplicateEdge`], endpoints ascending), and more
//!   than one component ([`BuildError::Disconnected`]). One breadth-first
//!   pass over the CSR finds both of the last two.

use crate::graph::{index, word};
use crate::{Graph, NodeId};
use std::fmt;

/// Error produced while building a graph.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BuildError {
    /// An edge `{u, u}` was requested; the model forbids self-loops.
    SelfLoop(NodeId),
    /// The edge `{u, v}`, `u < v`, was added twice, in either order; the
    /// model forbids multi-edges.
    DuplicateEdge(NodeId, NodeId),
    /// An endpoint refers to a node index `>= node_count`.
    NodeOutOfRange(NodeId),
    /// The final graph is not connected.
    Disconnected,
    /// The final graph has fewer than two nodes (rendezvous needs at least
    /// two distinct starting nodes).
    TooSmall,
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildError::SelfLoop(v) => write!(f, "self-loop at node {}", v.0),
            BuildError::DuplicateEdge(u, v) => {
                write!(f, "duplicate edge {{{}, {}}}", u.0, v.0)
            }
            BuildError::NodeOutOfRange(v) => write!(f, "node {} out of range", v.0),
            BuildError::Disconnected => write!(f, "graph is not connected"),
            BuildError::TooSmall => write!(f, "graph must have at least 2 nodes"),
        }
    }
}

impl std::error::Error for BuildError {}

/// Builder for [`Graph`].
///
/// Ports are assigned at each endpoint in the order edges are added (the
/// first edge touching `v` gets port `0` at `v`, and so on). Use
/// [`GraphBuilder::shuffle_ports`] to re-randomize the local numbering —
/// the algorithms must work for *every* port numbering, so tests exercise
/// random ones.
///
/// # Examples
///
/// ```
/// use rv_graph::{GraphBuilder, NodeId};
///
/// let mut b = GraphBuilder::new(3);
/// b.edge(0, 1).unwrap();
/// b.edge(1, 2).unwrap();
/// let g = b.build().unwrap();
/// assert_eq!(g.order(), 3);
/// ```
#[derive(Clone, Debug)]
pub struct GraphBuilder {
    /// Edges in insertion order.
    edges: Vec<Edge>,
    /// Per-node count of the edges added so far: the next free port.
    degree: Vec<u32>,
}

/// One undirected edge as added: its endpoints and the port it holds at
/// each, as stored CSR words.
#[derive(Clone, Copy, Debug)]
struct Edge {
    ends: [u32; 2],
    ports: [u32; 2],
}

impl GraphBuilder {
    /// Starts a graph with `n` isolated nodes.
    pub fn new(n: usize) -> Self {
        GraphBuilder {
            edges: Vec::new(),
            degree: vec![0; n],
        }
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.degree.len()
    }

    /// Adds the undirected edge `{u, v}`, assigning the next free port at
    /// each endpoint. Refuses an endpoint out of range, then a self-loop;
    /// a repeated edge is refused by [`GraphBuilder::build`].
    ///
    /// # Panics
    ///
    /// Panics if a port count no longer fits in 32 bits.
    pub fn edge(&mut self, u: usize, v: usize) -> Result<(), BuildError> {
        let n = self.degree.len();
        if u >= n {
            return Err(BuildError::NodeOutOfRange(NodeId(u)));
        }
        if v >= n {
            return Err(BuildError::NodeOutOfRange(NodeId(v)));
        }
        if u == v {
            return Err(BuildError::SelfLoop(NodeId(u)));
        }
        let ports = [self.degree[u], self.degree[v]];
        self.degree[u] = word(index(ports[0]) + 1);
        self.degree[v] = word(index(ports[1]) + 1);
        self.edges.push(Edge {
            ends: [word(u), word(v)],
            ports,
        });
        Ok(())
    }

    /// Returns `true` if the edge `{u, v}` has been added, in either
    /// order. A scan of every edge added so far: O(m).
    pub fn has_edge(&self, u: usize, v: usize) -> bool {
        self.edges.iter().any(|e| {
            let [a, b] = e.ends.map(index);
            (a, b) == (u, v) || (a, b) == (v, u)
        })
    }

    /// Randomly permutes the port numbers at every node, keeping the edge
    /// set intact, using the caller-supplied permutation source.
    ///
    /// `perm_for(degree)` must return a permutation of `0..degree`; it is
    /// asked once per node, in node order. This indirection keeps `rand`
    /// out of the public API surface.
    ///
    /// # Panics
    ///
    /// Panics if `perm_for` returns anything but a permutation.
    pub fn shuffle_ports(&mut self, mut perm_for: impl FnMut(usize) -> Vec<usize>) {
        let mut seen = Vec::new();
        let perms: Vec<Vec<usize>> = self
            .degree
            .iter()
            .map(|&d| {
                let d = index(d);
                let perm = perm_for(d);
                seen.clear();
                seen.resize(d, false);
                assert!(
                    perm.len() == d
                        && perm
                            .iter()
                            .all(|&p| p < d && !std::mem::replace(&mut seen[p], true)),
                    "perm_for must return a permutation of 0..degree"
                );
                perm
            })
            .collect();
        for e in &mut self.edges {
            for (end, port) in e.ends.iter().zip(&mut e.ports) {
                *port = word(perms[index(*end)][index(*port)]);
            }
        }
    }

    /// Finalizes the graph: writes the CSR from the edge list, then
    /// refuses fewer than two nodes, a repeated edge and a disconnected
    /// graph, in that order.
    pub fn build(self) -> Result<Graph, BuildError> {
        let n = self.degree.len();
        if n < 2 {
            return Err(BuildError::TooSmall);
        }
        let mut offsets = Vec::with_capacity(n + 1);
        let mut slots = 0;
        offsets.push(0);
        for &d in &self.degree {
            slots += index(d);
            offsets.push(word(slots));
        }
        let mut flat = vec![(0, 0); slots];
        for e in &self.edges {
            let [u, v] = e.ends;
            let [pu, pv] = e.ports;
            flat[index(offsets[index(u)] + pu)] = (v, pv);
            flat[index(offsets[index(v)] + pv)] = (u, pu);
        }
        check_simple_and_connected(&offsets, &flat)?;
        Ok(Graph::from_csr(offsets, flat))
    }
}

/// One pass over every row of the CSR `(offsets, flat)`, breadth-first
/// one component at a time: refuses a row that lists a neighbour twice,
/// then a second component.
///
/// One scratch array holds both halves of the search: `mark[u]` is `0`
/// until `u` is reached, then `v + 1` for the last row `v` to list `u`
/// (the start `s` of a component is marked `s + 1`, a mark that only row
/// `s` could match, and no row lists its own node); `queue` holds the
/// reached nodes in order, each once.
fn check_simple_and_connected(offsets: &[u32], flat: &[(u32, u32)]) -> Result<(), BuildError> {
    let n = offsets.len() - 1;
    let mut scratch = vec![0u32; 2 * n];
    let (mark, queue) = scratch.split_at_mut(n);
    let (mut head, mut tail) = (0, 0);
    let mut components = 0;
    for start in 0..n {
        if mark[start] != 0 {
            continue;
        }
        components += 1;
        mark[start] = word(start + 1);
        queue[tail] = word(start);
        tail += 1;
        while head < tail {
            let v = queue[head];
            head += 1;
            let row = &flat[index(offsets[index(v)])..index(offsets[index(v) + 1])];
            for &(u, _) in row {
                let seen = &mut mark[index(u)];
                if *seen == v + 1 {
                    let (a, b) = (v.min(u), v.max(u));
                    return Err(BuildError::DuplicateEdge(
                        NodeId(index(a)),
                        NodeId(index(b)),
                    ));
                }
                if *seen == 0 {
                    queue[tail] = u;
                    tail += 1;
                }
                *seen = v + 1;
            }
        }
    }
    if components > 1 {
        return Err(BuildError::Disconnected);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PortId;

    #[test]
    fn rejects_self_loop() {
        let mut b = GraphBuilder::new(2);
        assert_eq!(b.edge(0, 0), Err(BuildError::SelfLoop(NodeId(0))));
    }

    #[test]
    fn rejects_duplicate_edge_in_either_order() {
        for (u, v) in [(1, 2), (2, 1)] {
            let mut b = GraphBuilder::new(3);
            b.edge(0, 1).unwrap();
            b.edge(1, 2).unwrap();
            b.edge(u, v).unwrap();
            assert_eq!(
                b.build().unwrap_err(),
                BuildError::DuplicateEdge(NodeId(1), NodeId(2))
            );
        }
    }

    #[test]
    fn rejects_out_of_range() {
        let mut b = GraphBuilder::new(2);
        assert_eq!(b.edge(0, 5), Err(BuildError::NodeOutOfRange(NodeId(5))));
    }

    #[test]
    fn rejects_disconnected() {
        let mut b = GraphBuilder::new(4);
        b.edge(0, 1).unwrap();
        b.edge(2, 3).unwrap();
        assert_eq!(b.build().unwrap_err(), BuildError::Disconnected);
    }

    #[test]
    fn duplicates_are_reported_before_disconnection() {
        let mut b = GraphBuilder::new(5);
        for (u, v) in [(0, 1), (3, 4), (4, 3)] {
            b.edge(u, v).unwrap();
        }
        assert_eq!(
            b.build().unwrap_err(),
            BuildError::DuplicateEdge(NodeId(3), NodeId(4))
        );
    }

    #[test]
    fn rejects_too_small() {
        assert_eq!(
            GraphBuilder::new(1).build().unwrap_err(),
            BuildError::TooSmall
        );
        assert_eq!(
            GraphBuilder::new(0).build().unwrap_err(),
            BuildError::TooSmall
        );
    }

    #[test]
    fn ports_assigned_in_insertion_order() {
        let mut b = GraphBuilder::new(3);
        b.edge(0, 1).unwrap();
        b.edge(0, 2).unwrap();
        let g = b.build().unwrap();
        assert_eq!(g.succ(NodeId(0), PortId(0)), NodeId(1));
        assert_eq!(g.succ(NodeId(0), PortId(1)), NodeId(2));
    }

    #[test]
    fn shuffle_ports_preserves_edge_set_and_consistency() {
        let mut b = GraphBuilder::new(4);
        for (u, v) in [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)] {
            b.edge(u, v).unwrap();
        }
        // Reverse every port ordering.
        b.shuffle_ports(|d| (0..d).rev().collect());
        let g = b.build().unwrap();
        crate::validate(&g).unwrap();
        assert_eq!(g.size(), 5);
        assert!(g.port_towards(NodeId(0), NodeId(2)).is_some());
    }

    #[test]
    #[should_panic(expected = "permutation")]
    fn shuffle_ports_rejects_non_permutation() {
        let mut b = GraphBuilder::new(3);
        b.edge(0, 1).unwrap();
        b.edge(0, 2).unwrap();
        b.shuffle_ports(|d| vec![0; d]);
    }

    #[test]
    fn has_edge_sees_both_orders() {
        let mut b = GraphBuilder::new(3);
        b.edge(0, 1).unwrap();
        assert!(b.has_edge(0, 1));
        assert!(b.has_edge(1, 0));
        assert!(!b.has_edge(0, 2));
        assert!(!b.has_edge(7, 0));
    }
}
