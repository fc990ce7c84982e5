//! Generators for the graph families used throughout the evaluation.
//!
//! Every generator returns a valid connected port-numbered [`Graph`]. The
//! seeded generators are deterministic in their seed so experiments are
//! reproducible.

use crate::{Graph, GraphBuilder};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// A cycle on `n >= 3` nodes.
///
/// # Panics
///
/// Panics if `n < 3`.
pub fn ring(n: usize) -> Graph {
    assert!(n >= 3, "ring needs at least 3 nodes");
    let mut b = GraphBuilder::new(n);
    for v in 0..n {
        b.edge(v, (v + 1) % n)
            .expect("generator edges are in-bounds and duplicate-free");
    }
    b.build()
        .expect("generator graphs are connected and well-formed by construction")
}

/// A simple path on `n >= 2` nodes.
///
/// # Panics
///
/// Panics if `n < 2`.
pub fn path(n: usize) -> Graph {
    assert!(n >= 2, "path needs at least 2 nodes");
    let mut b = GraphBuilder::new(n);
    for v in 0..n - 1 {
        b.edge(v, v + 1)
            .expect("generator edges are in-bounds and duplicate-free");
    }
    b.build()
        .expect("generator graphs are connected and well-formed by construction")
}

/// The complete graph on `n >= 2` nodes.
///
/// # Panics
///
/// Panics if `n < 2`.
pub fn complete(n: usize) -> Graph {
    assert!(n >= 2, "complete graph needs at least 2 nodes");
    let mut b = GraphBuilder::new(n);
    for u in 0..n {
        for v in u + 1..n {
            b.edge(u, v)
                .expect("generator edges are in-bounds and duplicate-free");
        }
    }
    b.build()
        .expect("generator graphs are connected and well-formed by construction")
}

/// A star: one hub adjacent to `n - 1` leaves.
///
/// # Panics
///
/// Panics if `n < 2`.
pub fn star(n: usize) -> Graph {
    assert!(n >= 2, "star needs at least 2 nodes");
    let mut b = GraphBuilder::new(n);
    for v in 1..n {
        b.edge(0, v)
            .expect("generator edges are in-bounds and duplicate-free");
    }
    b.build()
        .expect("generator graphs are connected and well-formed by construction")
}

/// A `w × h` grid (open boundaries).
///
/// # Panics
///
/// Panics if `w * h < 2` or either dimension is zero.
pub fn grid(w: usize, h: usize) -> Graph {
    assert!(
        w >= 1 && h >= 1 && w * h >= 2,
        "grid needs at least 2 nodes"
    );
    let id = |x: usize, y: usize| y * w + x;
    let mut b = GraphBuilder::new(w * h);
    for y in 0..h {
        for x in 0..w {
            if x + 1 < w {
                b.edge(id(x, y), id(x + 1, y))
                    .expect("generator edges are in-bounds and duplicate-free");
            }
            if y + 1 < h {
                b.edge(id(x, y), id(x, y + 1))
                    .expect("generator edges are in-bounds and duplicate-free");
            }
        }
    }
    b.build()
        .expect("generator graphs are connected and well-formed by construction")
}

/// A `w × h` torus (wrap-around grid); requires `w, h >= 3` so the graph
/// stays simple.
///
/// # Panics
///
/// Panics if `w < 3` or `h < 3`.
pub fn torus(w: usize, h: usize) -> Graph {
    assert!(w >= 3 && h >= 3, "torus needs both dimensions >= 3");
    let id = |x: usize, y: usize| y * w + x;
    let mut b = GraphBuilder::new(w * h);
    for y in 0..h {
        for x in 0..w {
            b.edge(id(x, y), id((x + 1) % w, y))
                .expect("generator edges are in-bounds and duplicate-free");
            b.edge(id(x, y), id(x, (y + 1) % h))
                .expect("generator edges are in-bounds and duplicate-free");
        }
    }
    b.build()
        .expect("generator graphs are connected and well-formed by construction")
}

/// The `d`-dimensional hypercube (`2^d` nodes), `d >= 1`.
///
/// # Panics
///
/// Panics if `d == 0` or `d > 20`.
pub fn hypercube(d: usize) -> Graph {
    assert!(
        (1..=20).contains(&d),
        "hypercube dimension must be in 1..=20"
    );
    let n = 1usize << d;
    let mut b = GraphBuilder::new(n);
    for v in 0..n {
        for bit in 0..d {
            let u = v ^ (1 << bit);
            if u > v {
                b.edge(v, u)
                    .expect("generator edges are in-bounds and duplicate-free");
            }
        }
    }
    b.build()
        .expect("generator graphs are connected and well-formed by construction")
}

/// A complete binary tree with `n >= 2` nodes (heap-shaped).
///
/// # Panics
///
/// Panics if `n < 2`.
pub fn binary_tree(n: usize) -> Graph {
    assert!(n >= 2, "binary tree needs at least 2 nodes");
    let mut b = GraphBuilder::new(n);
    for v in 1..n {
        b.edge(v, (v - 1) / 2)
            .expect("generator edges are in-bounds and duplicate-free");
    }
    b.build()
        .expect("generator graphs are connected and well-formed by construction")
}

/// The lollipop graph: a clique of `clique` nodes with a path of `tail`
/// extra nodes hanging off it. A classical hard case for exploration.
///
/// # Panics
///
/// Panics if `clique < 3` or `tail == 0`.
pub fn lollipop(clique: usize, tail: usize) -> Graph {
    assert!(clique >= 3, "lollipop clique must have >= 3 nodes");
    assert!(tail >= 1, "lollipop tail must have >= 1 node");
    let n = clique + tail;
    let mut b = GraphBuilder::new(n);
    for u in 0..clique {
        for v in u + 1..clique {
            b.edge(u, v)
                .expect("generator edges are in-bounds and duplicate-free");
        }
    }
    for t in 0..tail {
        let prev = if t == 0 { clique - 1 } else { clique + t - 1 };
        b.edge(prev, clique + t)
            .expect("generator edges are in-bounds and duplicate-free");
    }
    b.build()
        .expect("generator graphs are connected and well-formed by construction")
}

/// A uniformly random labelled tree on `n >= 2` nodes (random attachment),
/// deterministic in `seed`.
///
/// # Panics
///
/// Panics if `n < 2`.
pub fn random_tree(n: usize, seed: u64) -> Graph {
    assert!(n >= 2, "tree needs at least 2 nodes");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = GraphBuilder::new(n);
    for v in 1..n {
        let parent = rng.gen_range(0..v);
        b.edge(v, parent)
            .expect("generator edges are in-bounds and duplicate-free");
    }
    b.build()
        .expect("generator graphs are connected and well-formed by construction")
}

/// A connected Erdős–Rényi graph: starts from a random tree (guaranteeing
/// connectivity) and adds each remaining pair independently with
/// probability `p`. Deterministic in `seed`.
///
/// # Panics
///
/// Panics if `n < 2` or `p` is not in `[0, 1]`.
pub fn gnp_connected(n: usize, p: f64, seed: u64) -> Graph {
    assert!(n >= 2, "graph needs at least 2 nodes");
    assert!((0.0..=1.0).contains(&p), "probability must be in [0, 1]");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = GraphBuilder::new(n);
    // Random spanning tree via random parent attachment over a shuffled
    // order, so the tree shape is not biased toward low indices.
    // `in_tree[u * n + v]` marks the tree's pairs in both orders.
    let mut order: Vec<usize> = (0..n).collect();
    order.shuffle(&mut rng);
    let mut in_tree = vec![false; n * n];
    for i in 1..n {
        let j = rng.gen_range(0..i);
        let (u, v) = (order[i], order[j]);
        b.edge(u, v)
            .expect("generator edges are in-bounds and duplicate-free");
        in_tree[u * n + v] = true;
        in_tree[v * n + u] = true;
    }
    for u in 0..n {
        for v in u + 1..n {
            if !in_tree[u * n + v] && rng.gen_bool(p) {
                b.edge(u, v)
                    .expect("generator edges are in-bounds and duplicate-free");
            }
        }
    }
    b.build()
        .expect("generator graphs are connected and well-formed by construction")
}

/// A caterpillar: a spine path of `spine` nodes, each with `legs` pendant
/// leaves. Total order is `spine * (1 + legs)`.
///
/// # Panics
///
/// Panics if `spine < 2`.
pub fn caterpillar(spine: usize, legs: usize) -> Graph {
    assert!(spine >= 2, "caterpillar spine needs at least 2 nodes");
    let n = spine * (1 + legs);
    let mut b = GraphBuilder::new(n);
    for s in 0..spine - 1 {
        b.edge(s, s + 1)
            .expect("generator edges are in-bounds and duplicate-free");
    }
    for s in 0..spine {
        for l in 0..legs {
            b.edge(s, spine + s * legs + l)
                .expect("generator edges are in-bounds and duplicate-free");
        }
    }
    b.build()
        .expect("generator graphs are connected and well-formed by construction")
}

/// Applies a random port renumbering (deterministic in `seed`) to `g`,
/// preserving its edge set. The algorithms must be correct for every local
/// port numbering; experiments use this to avoid accidentally relying on the
/// generators' insertion order.
pub fn with_shuffled_ports(g: &Graph, seed: u64) -> Graph {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = GraphBuilder::new(g.order());
    for e in g.edges() {
        b.edge(e.a.0, e.b.0)
            .expect("generator edges are in-bounds and duplicate-free");
    }
    b.shuffle_ports(|d| {
        let mut perm: Vec<usize> = (0..d).collect();
        perm.shuffle(&mut rng);
        perm
    });
    b.build().expect("port shuffle preserves validity")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::validate;

    #[test]
    fn all_generators_produce_valid_graphs() {
        let graphs: Vec<(&str, Graph)> = vec![
            ("ring", ring(7)),
            ("path", path(6)),
            ("complete", complete(5)),
            ("star", star(8)),
            ("grid", grid(3, 4)),
            ("torus", torus(3, 4)),
            ("hypercube", hypercube(4)),
            ("binary_tree", binary_tree(11)),
            ("lollipop", lollipop(4, 3)),
            ("random_tree", random_tree(12, 42)),
            ("gnp", gnp_connected(12, 0.3, 42)),
            ("caterpillar", caterpillar(4, 2)),
        ];
        for (name, g) in graphs {
            validate(&g).unwrap_or_else(|e| panic!("{name}: {e}"));
        }
    }

    #[test]
    fn ring_is_2_regular() {
        let g = ring(9);
        assert!(g.nodes().all(|v| g.degree(v) == 2));
        assert_eq!(g.size(), 9);
    }

    #[test]
    fn path_has_two_leaves() {
        let g = path(7);
        let leaves = g.nodes().filter(|&v| g.degree(v) == 1).count();
        assert_eq!(leaves, 2);
        assert_eq!(g.size(), 6);
    }

    #[test]
    fn grid_edge_count() {
        let g = grid(4, 3);
        assert_eq!(g.size(), 3 * 3 + 4 * 2); // h*(w-1) + w*(h-1)
    }

    #[test]
    fn torus_is_4_regular() {
        let g = torus(4, 5);
        assert!(g.nodes().all(|v| g.degree(v) == 4));
        assert_eq!(g.size(), 2 * 20);
    }

    #[test]
    fn hypercube_is_d_regular() {
        let g = hypercube(4);
        assert_eq!(g.order(), 16);
        assert!(g.nodes().all(|v| g.degree(v) == 4));
        assert_eq!(g.diameter(), 4);
    }

    #[test]
    fn trees_have_n_minus_1_edges() {
        for (n, seed) in [(2, 0), (5, 1), (17, 2), (33, 3)] {
            let g = random_tree(n, seed);
            assert_eq!(g.size(), n - 1);
        }
        assert_eq!(binary_tree(10).size(), 9);
        assert_eq!(caterpillar(3, 2).size(), 8);
    }

    #[test]
    fn random_generators_are_seed_deterministic() {
        assert_eq!(random_tree(20, 7), random_tree(20, 7));
        assert_eq!(gnp_connected(15, 0.4, 9), gnp_connected(15, 0.4, 9));
        assert_ne!(random_tree(20, 7), random_tree(20, 8));
    }

    #[test]
    fn gnp_extremes() {
        // p = 0 gives a tree; p = 1 gives the complete graph.
        assert_eq!(gnp_connected(10, 0.0, 3).size(), 9);
        assert_eq!(gnp_connected(10, 1.0, 3).size(), 45);
    }

    #[test]
    fn lollipop_structure() {
        let g = lollipop(4, 3);
        assert_eq!(g.order(), 7);
        assert_eq!(g.size(), 6 + 3);
        // Tail end is a leaf.
        assert_eq!(g.degree(crate::NodeId(6)), 1);
    }

    #[test]
    fn shuffled_ports_keeps_edges() {
        let g = gnp_connected(12, 0.3, 5);
        let s = with_shuffled_ports(&g, 99);
        validate(&s).unwrap();
        let mut e1: Vec<_> = g.edges().collect();
        let mut e2: Vec<_> = s.edges().collect();
        e1.sort();
        e2.sort();
        assert_eq!(e1, e2);
    }

    #[test]
    #[should_panic(expected = "at least 3")]
    fn ring_too_small_panics() {
        ring(2);
    }
}
