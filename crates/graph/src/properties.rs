//! Structural graph properties used by the experiments and their analysis.
//!
//! The fence-trap analysis (`fence_trap_under_exact_lockstep` in
//! `rv_sim`'s rendezvous tests, and the `probe_trap` example of
//! `rv_bench`) hinges on bipartite parity and on how symmetric a graph's
//! port numbering is; the exploration bounds
//! depend on degree statistics. This module computes those properties.

use crate::{Graph, NodeId, PortId};

/// Degree statistics of a graph.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DegreeStats {
    /// Minimum degree.
    pub min: usize,
    /// Maximum degree.
    pub max: usize,
    /// Sum of degrees (twice the edge count).
    pub sum: usize,
}

/// Computes degree statistics.
pub fn degree_stats(g: &Graph) -> DegreeStats {
    let degs: Vec<usize> = g.nodes().map(|v| g.degree(v)).collect();
    DegreeStats {
        min: degs.iter().copied().min().unwrap_or(0),
        max: degs.iter().copied().max().unwrap_or(0),
        sum: degs.iter().sum(),
    }
}

/// Returns the bipartition classes `(even, odd)` if `g` is bipartite,
/// `None` otherwise.
///
/// Two lockstep agents starting in different classes of a bipartite graph
/// can never stand at the same node simultaneously — one ingredient of the
/// fence trap.
pub fn bipartition(g: &Graph) -> Option<(Vec<NodeId>, Vec<NodeId>)> {
    let mut color = vec![u8::MAX; g.order()];
    let mut queue = std::collections::VecDeque::new();
    color[0] = 0;
    queue.push_back(NodeId(0));
    while let Some(v) = queue.pop_front() {
        for p in 0..g.degree(v) {
            let u = g.succ(v, PortId(p));
            if color[u.0] == u8::MAX {
                color[u.0] = 1 - color[v.0];
                queue.push_back(u);
            } else if color[u.0] == color[v.0] {
                return None;
            }
        }
    }
    let even = g.nodes().filter(|v| color[v.0] == 0).collect();
    let odd = g.nodes().filter(|v| color[v.0] == 1).collect();
    Some((even, odd))
}

/// Length of a shortest cycle (girth); `None` for forests.
pub fn girth(g: &Graph) -> Option<usize> {
    let mut best: Option<usize> = None;
    for root in g.nodes() {
        // BFS from root; the first non-tree edge closes a shortest cycle
        // through root of length dist(u) + dist(v) + 1.
        let mut dist = vec![usize::MAX; g.order()];
        let mut parent = vec![usize::MAX; g.order()];
        let mut queue = std::collections::VecDeque::new();
        dist[root.0] = 0;
        queue.push_back(root);
        while let Some(v) = queue.pop_front() {
            for p in 0..g.degree(v) {
                let u = g.succ(v, PortId(p));
                if dist[u.0] == usize::MAX {
                    dist[u.0] = dist[v.0] + 1;
                    parent[u.0] = v.0;
                    queue.push_back(u);
                } else if parent[v.0] != u.0 && parent[u.0] != v.0 {
                    let cycle = dist[u.0] + dist[v.0] + 1;
                    best = Some(best.map_or(cycle, |b| b.min(cycle)));
                }
            }
        }
    }
    best
}

/// Checks whether the mapping `sigma` (a permutation of the nodes) is a
/// **port-preserving automorphism**: `succ(σv, p) = σ(succ(v, p))` for
/// every node and port. Lockstep walks from `v` and `σv` under such an
/// automorphism are translates of each other and can only meet where σ has
/// short orbits — the strong form of the fence trap.
pub fn is_port_automorphism(g: &Graph, sigma: &[usize]) -> bool {
    if sigma.len() != g.order() {
        return false;
    }
    let mut seen = vec![false; g.order()];
    for &s in sigma {
        if s >= g.order() || seen[s] {
            return false;
        }
        seen[s] = true;
    }
    for v in g.nodes() {
        let sv = NodeId(sigma[v.0]);
        if g.degree(v) != g.degree(sv) {
            return false;
        }
        for p in 0..g.degree(v) {
            let u = g.succ(v, PortId(p));
            if g.succ(sv, PortId(p)) != NodeId(sigma[u.0]) {
                return false;
            }
        }
    }
    true
}

/// Average shortest-path distance over all ordered pairs.
pub fn mean_distance(g: &Graph) -> f64 {
    let n = g.order();
    let mut total = 0usize;
    for v in g.nodes() {
        total += g.bfs_distances(v).iter().sum::<usize>();
    }
    total as f64 / (n * (n - 1)) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn degree_stats_on_star() {
        let s = degree_stats(&generators::star(6));
        assert_eq!(
            s,
            DegreeStats {
                min: 1,
                max: 5,
                sum: 10
            }
        );
    }

    #[test]
    fn even_rings_are_bipartite_odd_are_not() {
        assert!(bipartition(&generators::ring(6)).is_some());
        assert!(bipartition(&generators::ring(7)).is_none());
        let (even, odd) = bipartition(&generators::ring(6)).unwrap();
        assert_eq!(even.len(), 3);
        assert_eq!(odd.len(), 3);
    }

    #[test]
    fn hypercubes_and_trees_are_bipartite() {
        assert!(bipartition(&generators::hypercube(4)).is_some());
        assert!(bipartition(&generators::random_tree(10, 3)).is_some());
        assert!(bipartition(&generators::complete(4)).is_none());
    }

    #[test]
    fn girth_values() {
        assert_eq!(girth(&generators::ring(7)), Some(7));
        assert_eq!(girth(&generators::complete(5)), Some(3));
        assert_eq!(girth(&generators::random_tree(8, 1)), None);
        assert_eq!(girth(&generators::hypercube(3)), Some(4));
    }

    #[test]
    fn identity_is_always_a_port_automorphism() {
        let g = generators::gnp_connected(8, 0.4, 5);
        let id: Vec<usize> = (0..8).collect();
        assert!(is_port_automorphism(&g, &id));
    }

    #[test]
    fn rotation_is_not_a_port_automorphism_of_our_ring() {
        // Node 0 of the generated ring has flipped ports relative to the
        // others (insertion order), so rotation fails port preservation —
        // the very asymmetry that breaks lockstep traps on rings.
        let g = generators::ring(5);
        let rot: Vec<usize> = (0..5).map(|v| (v + 1) % 5).collect();
        assert!(!is_port_automorphism(&g, &rot));
    }

    #[test]
    fn non_permutations_are_rejected() {
        let g = generators::ring(4);
        assert!(!is_port_automorphism(&g, &[0, 0, 1, 2]));
        assert!(!is_port_automorphism(&g, &[0, 1, 2]));
        assert!(!is_port_automorphism(&g, &[0, 1, 2, 9]));
    }

    #[test]
    fn mean_distance_on_complete_graph_is_one() {
        assert!((mean_distance(&generators::complete(6)) - 1.0).abs() < 1e-12);
        assert!(mean_distance(&generators::path(5)) > 1.9);
    }
}
