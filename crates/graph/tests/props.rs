//! Property tests for graph generators and structural invariants.

use proptest::prelude::*;
use rv_graph::{generators, validate, GraphFamily, NodeId, PortId, PortLog};

/// A port drawn from a raw `u64`, a fifth of the time each: a one-byte
/// port (below 128), the one-byte/two-byte boundary (127 to 129), a
/// two- or three-byte port, an arbitrary large port, or `usize::MAX`.
fn port_of(raw: u64) -> PortId {
    let x = (raw / 5) as usize;
    PortId(match raw % 5 {
        0 => x % 128,
        1 => 127 + x % 3,
        2 => 128 + x % 40_000,
        3 => x,
        _ => usize::MAX,
    })
}

fn log_of(ports: &[PortId]) -> PortLog {
    let mut log = PortLog::new();
    for &p in ports {
        log.push(p);
    }
    log
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn random_trees_are_valid_and_acyclic(n in 2usize..40, seed in any::<u64>()) {
        let g = generators::random_tree(n, seed);
        validate(&g).unwrap();
        prop_assert_eq!(g.size(), n - 1);
    }

    #[test]
    fn gnp_is_valid_and_connected(n in 2usize..30, p in 0.0f64..1.0, seed in any::<u64>()) {
        let g = generators::gnp_connected(n, p, seed);
        validate(&g).unwrap();
        // A connected graph has at least n-1 edges.
        prop_assert!(g.size() >= n - 1);
    }

    #[test]
    fn traverse_is_an_involution(n in 2usize..30, p in 0.0f64..1.0, seed in any::<u64>()) {
        let g = generators::gnp_connected(n, p, seed);
        for v in g.nodes() {
            for port in 0..g.degree(v) {
                let arr = g.traverse(v, PortId(port));
                let back = g.traverse(arr.node, arr.entry_port);
                prop_assert_eq!(back.node, v);
                prop_assert_eq!(back.entry_port, PortId(port));
            }
        }
    }

    #[test]
    fn degree_sum_is_twice_edge_count(n in 2usize..30, p in 0.0f64..1.0, seed in any::<u64>()) {
        let g = generators::gnp_connected(n, p, seed);
        let degsum: usize = g.nodes().map(|v| g.degree(v)).sum();
        prop_assert_eq!(degsum, 2 * g.size());
    }

    #[test]
    fn port_shuffle_preserves_structure(n in 3usize..25, seed in any::<u64>(), shuf in any::<u64>()) {
        let g = generators::gnp_connected(n, 0.3, seed);
        let s = generators::with_shuffled_ports(&g, shuf);
        validate(&s).unwrap();
        let mut e1: Vec<_> = g.edges().collect();
        let mut e2: Vec<_> = s.edges().collect();
        e1.sort();
        e2.sort();
        prop_assert_eq!(e1, e2);
        for v in g.nodes() {
            prop_assert_eq!(g.degree(v), s.degree(v));
        }
    }

    #[test]
    fn families_generate_valid_graphs(fam_idx in 0usize..8, n in 4usize..30, seed in any::<u64>()) {
        let fam = GraphFamily::ALL[fam_idx];
        let g = fam.generate(n, seed);
        validate(&g).unwrap();
        prop_assert!(g.order() >= 2);
    }

    #[test]
    fn bfs_distances_satisfy_triangle_steps(n in 2usize..25, seed in any::<u64>()) {
        let g = generators::random_tree(n, seed);
        let d = g.bfs_distances(NodeId(0));
        // Adjacent nodes differ by at most 1 in BFS distance.
        for v in g.nodes() {
            for port in 0..g.degree(v) {
                let u = g.succ(v, PortId(port));
                prop_assert!(d[v.0].abs_diff(d[u.0]) <= 1);
            }
        }
    }

    #[test]
    fn port_log_push_pop_matches_a_vec(ops in proptest::collection::vec(any::<u64>(), 0..300)) {
        // A third of the ops pop, the rest push: the log drains to empty
        // and refills, so pops cross every encoding width.
        let mut log = PortLog::new();
        let mut model: Vec<PortId> = Vec::new();
        for &raw in &ops {
            if raw % 3 == 0 {
                prop_assert_eq!(log.pop(), model.pop());
            } else {
                let p = port_of(raw / 3);
                log.push(p);
                model.push(p);
            }
            prop_assert_eq!(log.len(), model.len());
            prop_assert_eq!(log.is_empty(), model.is_empty());
        }
        prop_assert_eq!(log.iter().collect::<Vec<_>>(), model.clone());
        prop_assert_eq!(format!("{log:?}"), format!("{model:?}"));
        while let Some(p) = model.pop() {
            prop_assert_eq!(log.pop(), Some(p));
        }
        prop_assert_eq!(log.pop(), None);
        prop_assert_eq!(log.byte_len(), 0);
    }

    #[test]
    fn port_log_iter_yields_push_order(raws in proptest::collection::vec(any::<u64>(), 0..200)) {
        let ports: Vec<PortId> = raws.iter().map(|&r| port_of(r)).collect();
        let log = log_of(&ports);
        prop_assert_eq!(log.iter().collect::<Vec<_>>(), ports.clone());
        // Walking by byte offset reads the same ports and ends at the end.
        let mut at = 0;
        for &p in &ports {
            let (got, next) = log.decode_at(at);
            prop_assert_eq!(got, p);
            prop_assert!(next > at);
            at = next;
        }
        prop_assert_eq!(at, log.byte_len());
        let mut cleared = log.clone();
        cleared.clear();
        prop_assert_eq!(cleared, PortLog::new());
    }

    #[test]
    fn port_log_eq_and_ord_follow_the_sequences(
        ra in proptest::collection::vec(any::<u64>(), 0..40),
        rb in proptest::collection::vec(any::<u64>(), 0..40),
        cut in any::<u64>(),
    ) {
        // `b` shares a prefix of `a` of random length, so comparisons
        // are decided at every depth, and sometimes not at all.
        let a: Vec<PortId> = ra.iter().map(|&r| port_of(r)).collect();
        let shared = (cut as usize) % (a.len() + 1);
        let b: Vec<PortId> = a[..shared]
            .iter()
            .copied()
            .chain(rb.iter().map(|&r| port_of(r)))
            .collect();
        // The same sequences with every port cut below 128 take the
        // one-byte path of the comparison.
        let narrow = |v: &[PortId]| v.iter().map(|p| PortId(p.0 % 128)).collect::<Vec<_>>();
        for (a, b) in [(a.clone(), b.clone()), (narrow(&a), narrow(&b))] {
            let (la, lb) = (log_of(&a), log_of(&b));
            prop_assert_eq!(la == lb, a == b);
            prop_assert_eq!(la.cmp(&lb), a.cmp(&b));
            prop_assert_eq!(lb.cmp(&la), b.cmp(&a));
            prop_assert_eq!(la.partial_cmp(&lb), a.partial_cmp(&b));
        }
    }

    #[test]
    fn port_log_takes_one_byte_per_port_below_128(raws in proptest::collection::vec(any::<u64>(), 0..200)) {
        let small: Vec<PortId> = raws.iter().map(|&r| PortId((r % 128) as usize)).collect();
        let log = log_of(&small);
        prop_assert_eq!(log.byte_len(), log.len());
        let wide: Vec<PortId> = raws.iter().map(|&r| port_of(r)).collect();
        let log = log_of(&wide);
        let one_byte = wide.iter().filter(|p| p.0 < 128).count();
        prop_assert_eq!(log.byte_len() == log.len(), one_byte == wide.len());
        prop_assert!(log.byte_len() <= 10 * log.len());
    }
}
