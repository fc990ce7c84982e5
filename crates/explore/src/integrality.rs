//! Integrality checking and exhaustive universality verification.
//!
//! The paper calls a trajectory *integral* if its route covers all edges of
//! the graph. All synchronisation lemmas of §3 rely on `R(k, v)` being
//! integral whenever `k ≥ n`; since we substitute Reingold's construction
//! with seeded sequences (see [`crate::SeededUxs`]), this module provides
//! the verification machinery that keeps the substitution honest:
//!
//! * [`is_integral`] — checks one `(graph, k, start)` application;
//! * [`verify_universal`] — exhaustively enumerates *every* connected
//!   port-numbered graph up to a given order and checks integrality from
//!   every start node, i.e. literal universality of the sequence for that
//!   parameter.

use crate::provider::{ExplorationProvider, RWalker};
use rv_graph::{EdgeSet, Graph, GraphBuilder, NodeId};

/// Returns `true` if `R(k, start)` traverses every edge of `g`.
///
/// Streams the walk instead of materialising the trajectory, and stops at
/// the first step that completes the cover: an integral `R(k, v)` usually
/// covers the graph long before its `P(k)` steps run out.
///
/// # Panics
///
/// Panics if `start` is out of range for `g`.
pub fn is_integral<P: ExplorationProvider>(g: &Graph, provider: P, k: u64, start: NodeId) -> bool {
    assert!(start.0 < g.order(), "start node out of range");
    let mut walker = RWalker::new(provider, k);
    let mut covered = EdgeSet::new(g);
    let mut cur = start;
    let mut entry = None;
    while let Some(exit) = walker.next_exit(entry, g.degree(cur)) {
        let (arr, edge) = g.traverse_indexed(cur, exit);
        if covered.insert(edge) && covered.is_full() {
            return true;
        }
        cur = arr.node;
        entry = Some(arr.entry_port);
    }
    covered.is_full()
}

/// Outcome of an exhaustive universality check.
#[derive(Clone, Debug, Default)]
pub struct UniversalityReport {
    /// Number of `(graph, start node)` applications checked.
    pub checked: usize,
    /// Failing applications as `(graph, start)` pairs (empty = universal).
    pub failures: Vec<(Graph, NodeId)>,
}

impl UniversalityReport {
    /// `true` if every application was integral.
    pub fn is_universal(&self) -> bool {
        self.failures.is_empty()
    }
}

/// Exhaustively verifies that the provider's sequence for parameter `k` is
/// universal for **all** connected port-numbered graphs of order `2..=max_n`
/// from **every** start node.
///
/// Cost grows super-exponentially in `max_n`; intended for `max_n ≤ 4`
/// (a few thousand port graphs) in tests.
pub fn verify_universal<P: ExplorationProvider + Copy>(
    provider: P,
    k: u64,
    max_n: usize,
) -> UniversalityReport {
    let mut report = UniversalityReport::default();
    for n in 2..=max_n {
        for g in enumerate_port_graphs(n) {
            for start in g.nodes() {
                report.checked += 1;
                if !is_integral(&g, provider, k, start) {
                    report.failures.push((g.clone(), start));
                }
            }
        }
    }
    report
}

/// Enumerates every connected simple graph on exactly `n` labeled nodes,
/// under **every** local port numbering. This is the full space of networks
/// of order `n` in the paper's model.
///
/// # Panics
///
/// Panics if `n < 2` or `n > 5` (the count explodes beyond that).
pub fn enumerate_port_graphs(n: usize) -> Vec<Graph> {
    assert!(
        (2..=5).contains(&n),
        "enumeration is feasible for 2 <= n <= 5"
    );
    let pairs: Vec<(usize, usize)> = (0..n)
        .flat_map(|u| ((u + 1)..n).map(move |v| (u, v)))
        .collect();
    let mut out = Vec::new();
    for mask in 0u32..(1 << pairs.len()) {
        let edges: Vec<(usize, usize)> = pairs
            .iter()
            .enumerate()
            .filter(|(i, _)| mask >> i & 1 == 1)
            .map(|(_, &e)| e)
            .collect();
        if edges.len() < n - 1 {
            continue;
        }
        // Build base graph; skip disconnected ones.
        let mut b = GraphBuilder::new(n);
        for &(u, v) in &edges {
            b.edge(u, v).expect("pair enumeration yields simple edges");
        }
        let base = match b.build() {
            Ok(g) => g,
            Err(_) => continue,
        };
        // Enumerate all port numberings: product over nodes of permutations
        // of 0..deg(v).
        let degs: Vec<usize> = base.nodes().map(|v| base.degree(v)).collect();
        let perms_per_node: Vec<Vec<Vec<usize>>> = degs.iter().map(|&d| permutations(d)).collect();
        let mut indices = vec![0usize; n];
        loop {
            let mut b = GraphBuilder::new(n);
            for &(u, v) in &edges {
                b.edge(u, v).expect("simple edges");
            }
            // Apply the selected permutation at each node.
            {
                let mut node = 0;
                b.shuffle_ports(|_d| {
                    let p = perms_per_node[node][indices[node]].clone();
                    node += 1;
                    p
                });
            }
            out.push(b.build().expect("valid by construction"));
            // Advance the mixed-radix counter.
            let mut carry = true;
            for i in 0..n {
                if !carry {
                    break;
                }
                indices[i] += 1;
                if indices[i] == perms_per_node[i].len() {
                    indices[i] = 0;
                } else {
                    carry = false;
                }
            }
            if carry {
                break;
            }
        }
    }
    out
}

/// All permutations of `0..d` (d! of them; `d ≤ 4` in practice here).
fn permutations(d: usize) -> Vec<Vec<usize>> {
    if d == 0 {
        return vec![vec![]];
    }
    let mut out = Vec::new();
    let mut items: Vec<usize> = (0..d).collect();
    heap_permute(&mut items, d, &mut out);
    out
}

fn heap_permute(items: &mut Vec<usize>, k: usize, out: &mut Vec<Vec<usize>>) {
    if k == 1 {
        out.push(items.clone());
        return;
    }
    for i in 0..k {
        heap_permute(items, k - 1, out);
        if k.is_multiple_of(2) {
            items.swap(i, k - 1);
        } else {
            items.swap(0, k - 1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{SeededUxs, TableUxs};
    use rv_graph::generators;

    #[test]
    fn integral_on_ring_with_large_enough_k() {
        let g = generators::ring(6);
        assert!(is_integral(&g, SeededUxs::default(), 6, NodeId(0)));
    }

    #[test]
    fn short_sequence_is_not_integral_on_large_graph() {
        // One step cannot cover a 12-node ring's 12 edges.
        let t = TableUxs::new(vec![vec![1]]);
        let g = generators::ring(12);
        assert!(!is_integral(&g, &t, 1, NodeId(0)));
    }

    /// The materialised reference: whether the concrete trajectory
    /// `R(k, start)` crosses every edge of `g`.
    fn materialised_cover<P: ExplorationProvider>(
        g: &Graph,
        provider: P,
        k: u64,
        start: NodeId,
    ) -> bool {
        let t = crate::r_trajectory(g, provider, k, start);
        let mut covered = EdgeSet::new(g);
        for i in 0..t.len() {
            covered.insert(g.edge_index_at(t.nodes[i], t.exit_ports[i]));
        }
        covered.is_full()
    }

    /// The streamed check answers as the materialised trajectory does —
    /// on every port graph of order 2 to 4 from every start with k in
    /// 1..=6, and on the generated families at orders 6 to 24 — and both
    /// answers occur. The provider is the quadratic one the experiments
    /// check their graphs with.
    #[test]
    fn streamed_integrality_matches_the_materialised_cover() {
        let provider = SeededUxs::quadratic();
        let mut outcomes = [0usize; 2];
        let mut check = |g: &Graph, k: u64, start: NodeId| {
            let want = materialised_cover(g, provider, k, start);
            assert_eq!(
                is_integral(g, provider, k, start),
                want,
                "k={k} start={start:?} on {g:?}"
            );
            outcomes[want as usize] += 1;
        };
        for n in 2..=4 {
            for g in enumerate_port_graphs(n) {
                for start in g.nodes() {
                    for k in 1..=6 {
                        check(&g, k, start);
                    }
                }
            }
        }
        for family in rv_graph::GraphFamily::ALL {
            for n in 6..=24 {
                let g = family.generate(n, n as u64);
                let order = g.order() as u64;
                for k in [order / 4, order / 2, order] {
                    check(&g, k, NodeId(0));
                }
            }
        }
        assert!(outcomes[0] > 0 && outcomes[1] > 0, "{outcomes:?}");
    }

    #[test]
    fn enumeration_count_n2() {
        // On 2 nodes: the single connected graph has one edge, each endpoint
        // degree 1, one port numbering.
        let gs = enumerate_port_graphs(2);
        assert_eq!(gs.len(), 1);
    }

    #[test]
    fn enumeration_count_n3() {
        // Connected labeled graphs on 3 nodes: 3 paths + 1 triangle.
        // Port numberings: path has center degree 2 (2! = 2), triangle has
        // all degrees 2 (2!^3 = 8). Total 3*2 + 8 = 14.
        let gs = enumerate_port_graphs(3);
        assert_eq!(gs.len(), 14);
        for g in &gs {
            rv_graph::validate(g).unwrap();
        }
    }

    #[test]
    fn permutations_count() {
        assert_eq!(permutations(0).len(), 1);
        assert_eq!(permutations(3).len(), 6);
        assert_eq!(permutations(4).len(), 24);
    }

    #[test]
    fn default_uxs_universal_for_order_up_to_3() {
        let report = verify_universal(SeededUxs::default(), 3, 3);
        assert!(report.is_universal(), "failures: {}", report.failures.len());
        assert_eq!(report.checked, 2 + 14 * 3);
    }
}
