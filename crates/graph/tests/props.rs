//! Property tests for graph generators and structural invariants.

use proptest::prelude::*;
use rv_graph::{
    generators, validate, Arrival, Automorphisms, EdgeId, Graph, GraphBuilder, GraphFamily, NodeId,
    PortId, PortLog, MAX_GROUP,
};
use std::collections::BTreeSet;

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

/// The next value of a SplitMix64 stream.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A connected edge sequence on `n` nodes, in insertion order: a random
/// spanning tree (node `v` joins a random earlier node), then extra edges
/// drawn from `extra`, skipping self-loops and repeats.
fn edge_sequence(n: usize, extra: &[u64]) -> Vec<(usize, usize)> {
    let mut edges: Vec<(usize, usize)> = Vec::new();
    let has = |edges: &[(usize, usize)], u: usize, v: usize| {
        edges.iter().any(|&e| e == (u, v) || e == (v, u))
    };
    for (v, &raw) in (1..n).zip(extra.iter().cycle()) {
        edges.push((v, (raw % v as u64) as usize));
    }
    for &raw in extra {
        let (u, v) = ((raw % n as u64) as usize, ((raw >> 32) % n as u64) as usize);
        if u != v && !has(&edges, u, v) {
            edges.push((u, v));
        }
    }
    edges
}

/// The reference adjacency of an edge sequence: node `v`'s entries in the
/// order its edges were added, then renumbered so that insertion position
/// `i` at `v` becomes port `perms[v][i]`.
fn reference_adjacency(
    n: usize,
    edges: &[(usize, usize)],
    perms: &[Vec<usize>],
) -> Vec<Vec<(NodeId, PortId)>> {
    // incident[v][i]: the other endpoint of v's i-th edge and the
    // insertion position of that edge at the other endpoint.
    let mut incident: Vec<Vec<(usize, usize)>> = vec![Vec::new(); n];
    for &(u, v) in edges {
        let (iu, iv) = (incident[u].len(), incident[v].len());
        incident[u].push((v, iv));
        incident[v].push((u, iu));
    }
    let mut adj = vec![Vec::new(); n];
    for v in 0..n {
        let mut row = vec![(NodeId(0), PortId(0)); incident[v].len()];
        for (i, &(u, j)) in incident[v].iter().enumerate() {
            row[perms[v][i]] = (NodeId(u), PortId(perms[u][j]));
        }
        adj[v] = row;
    }
    adj
}

/// Breadth-first distances over a reference adjacency.
fn reference_bfs(adj: &[Vec<(NodeId, PortId)>], start: usize) -> Vec<usize> {
    let mut dist = vec![usize::MAX; adj.len()];
    let mut queue = std::collections::VecDeque::from([start]);
    dist[start] = 0;
    while let Some(v) = queue.pop_front() {
        for &(u, _) in &adj[v] {
            if dist[u.0] == usize::MAX {
                dist[u.0] = dist[v] + 1;
                queue.push_back(u.0);
            }
        }
    }
    dist
}

/// The JSON render of a reference adjacency: `{"adj": [[[u, q], …], …]}`.
fn reference_json(adj: &[Vec<(NodeId, PortId)>]) -> String {
    let rows: Vec<String> = adj
        .iter()
        .map(|row| {
            let entries: Vec<String> = row
                .iter()
                .map(|(u, q)| format!("[{},{}]", u.0, q.0))
                .collect();
            format!("[{}]", entries.join(","))
        })
        .collect();
    format!("{{\"adj\":[{}]}}", rows.join(","))
}

/// Every accessor of `g` against the reference adjacency `adj`.
fn assert_matches_reference(g: &Graph, adj: &[Vec<(NodeId, PortId)>]) {
    let n = adj.len();
    assert_eq!(g.order(), n);
    let slots: usize = adj.iter().map(Vec::len).sum();
    assert_eq!(g.size() * 2, slots);
    assert_eq!(g.max_degree(), adj.iter().map(Vec::len).max().unwrap_or(0));
    // Dense indices: ascending smaller endpoint, then port order there.
    let mut listed = Vec::new();
    for (v, row) in adj.iter().enumerate() {
        for &(u, _) in row {
            if u.0 > v {
                listed.push(EdgeId::new(NodeId(v), u));
            }
        }
    }
    assert_eq!(g.edges().collect::<Vec<_>>(), listed);
    for (i, &e) in listed.iter().enumerate() {
        assert_eq!(g.edge_id(i), e);
    }
    for (v, row) in adj.iter().enumerate() {
        let v = NodeId(v);
        assert_eq!(g.degree(v), row.len());
        assert_eq!(g.neighbors(v).len(), row.len());
        assert_eq!(g.neighbors(v).collect::<Vec<_>>(), *row);
        for (p, &(u, q)) in row.iter().enumerate() {
            let p = PortId(p);
            let arrival = Arrival {
                node: u,
                entry_port: q,
            };
            let e = EdgeId::new(v, u);
            let idx = listed.iter().position(|&l| l == e).expect("listed edge");
            assert_eq!(g.succ(v, p), u);
            assert_eq!(g.traverse(v, p), arrival);
            assert_eq!(g.traverse_indexed(v, p), (arrival, idx));
            assert_eq!(g.edge_index_at(v, p), idx);
            assert_eq!(g.edge_at(v, p), e);
        }
        for w in 0..n {
            let towards = row.iter().position(|&(u, _)| u.0 == w).map(PortId);
            assert_eq!(g.port_towards(v, NodeId(w)), towards);
        }
        assert_eq!(g.bfs_distances(v), reference_bfs(adj, v.0));
    }
    assert_eq!(serde_json::to_string(g).unwrap(), reference_json(adj));
}

/// FNV-1a over the JSON render of every family's graph at orders 4–24,
/// seeds 0, 1, 7 and 2013, one line per graph.
fn family_render_digest() -> (u64, usize) {
    let mut hash = 0xCBF2_9CE4_8422_2325u64;
    let mut bytes = 0;
    for fam in GraphFamily::ALL {
        for n in 4..=24 {
            for seed in [0, 1, 7, 2013] {
                let json = serde_json::to_string(&fam.generate(n, seed)).unwrap();
                for b in json.bytes().chain([b'\n']) {
                    hash = (hash ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3);
                }
                bytes += json.len() + 1;
            }
        }
    }
    (hash, bytes)
}

/// Captured from the `usize` CSR: a storage change must leave every
/// family's JSON byte-identical.
#[test]
fn family_renders_are_pinned() {
    assert_eq!(family_render_digest(), (0x819e_c775_eb41_26ec, 317_926));
}

/// FNV-1a over the permutations of every family's group at orders 4–24,
/// seeds 0, 1 and 7, then of `Automorphisms::torus` at four shapes, one
/// step per word, and the number of permutations. A family permutation
/// ends with a `0xffff` word; a torus permutation does not.
fn group_digest() -> (u64, usize) {
    let mut hash = 0xCBF2_9CE4_8422_2325u64;
    let mut perms = 0;
    let mut step = |w: u64| hash = (hash ^ w).wrapping_mul(0x0100_0000_01B3);
    for fam in GraphFamily::ALL {
        for n in 4..=24 {
            for seed in [0, 1, 7] {
                let g = fam.generate(n, seed);
                for p in fam.automorphisms(&g).iter() {
                    p.iter().for_each(|&v| step(u64::from(v)));
                    step(0xffff);
                    perms += 1;
                }
            }
        }
    }
    for (w, h) in [(3, 3), (3, 4), (4, 4), (5, 3)] {
        let g = generators::torus(w, h);
        for p in Automorphisms::torus(&g, w, h).iter() {
            p.iter().for_each(|&v| step(u64::from(v)));
            perms += 1;
        }
    }
    (hash, perms)
}

/// Captured from the quadratic closure: a faster closure must build the
/// same permutations in the same order.
#[test]
fn family_groups_are_pinned() {
    assert_eq!(group_digest(), (0x4fcf_b4ef_1699_66ce, 5_219));
}

/// The quadratic closure `Automorphisms::from_candidates` ran before it
/// closed the group from generators, kept verbatim as the oracle: the
/// group's permutations, identity first, then in lexicographic order.
fn reference_closure(g: &Graph, candidates: Vec<Vec<u32>>) -> Vec<Vec<u32>> {
    let order = g.order();
    let id = identity_perm(order);
    let mut set: BTreeSet<Vec<u32>> = BTreeSet::new();
    set.insert(id.clone());
    let mut frontier: Vec<Vec<u32>> = Vec::new();
    for cand in candidates {
        if is_automorphism(g, &cand) && set.insert(cand.clone()) {
            frontier.push(cand);
        }
    }
    while let Some(p) = frontier.pop() {
        let members: Vec<Vec<u32>> = set.iter().cloned().collect();
        for q in &members {
            for comp in [compose(&p, q), compose(q, &p)] {
                if set.insert(comp.clone()) {
                    if set.len() > MAX_GROUP {
                        return vec![identity_perm(order)];
                    }
                    frontier.push(comp);
                }
            }
        }
    }
    let mut perms: Vec<Vec<u32>> = Vec::with_capacity(set.len());
    perms.push(id.clone());
    perms.extend(set.into_iter().filter(|p| p != &id));
    perms
}

fn identity_perm(order: usize) -> Vec<u32> {
    (0..order).map(|v| v as u32).collect()
}

/// `p ∘ q`: applies `q` first, then `p`.
fn compose(p: &[u32], q: &[u32]) -> Vec<u32> {
    q.iter().map(|&v| p[v as usize]).collect()
}

/// The oracle's adjacency check: a permutation of the node set under
/// which every neighbour maps to a neighbour.
fn is_automorphism(g: &Graph, p: &[u32]) -> bool {
    let n = g.order();
    if p.len() != n {
        return false;
    }
    let mut seen = vec![false; n];
    for &img in p {
        let img = img as usize;
        if img >= n || seen[img] {
            return false;
        }
        seen[img] = true;
    }
    for v in 0..n {
        let sv = NodeId(p[v] as usize);
        if g.degree(NodeId(v)) != g.degree(sv) {
            return false;
        }
        for (u, _) in g.neighbors(NodeId(v)) {
            let su = NodeId(p[u.0] as usize);
            if g.port_towards(sv, su).is_none() {
                return false;
            }
        }
    }
    true
}

/// The graphs the oracle test draws from, each with its declared group.
fn oracle_graphs() -> Vec<(Graph, Automorphisms)> {
    let family = |fam: GraphFamily, g: Graph| {
        let a = fam.automorphisms(&g);
        (g, a)
    };
    let torus = |w: usize, h: usize| {
        let g = generators::torus(w, h);
        let a = Automorphisms::torus(&g, w, h);
        (g, a)
    };
    vec![
        family(GraphFamily::Ring, generators::ring(5)),
        family(GraphFamily::Ring, generators::ring(8)),
        family(GraphFamily::Path, generators::path(6)),
        family(GraphFamily::Grid, generators::grid(3, 4)),
        family(GraphFamily::Grid, generators::grid(3, 3)),
        family(GraphFamily::Hypercube, generators::hypercube(3)),
        family(GraphFamily::Hypercube, generators::hypercube(4)),
        family(GraphFamily::Complete, generators::complete(5)),
        family(GraphFamily::Complete, generators::complete(6)),
        torus(3, 3),
        torus(4, 3),
        torus(4, 4),
    ]
}

/// Up to seven candidates drawn from `state`: members of `group`, random
/// permutations (automorphisms of a clique, mostly not of anything
/// else), members with two images swapped, and repeats of earlier ones.
fn oracle_candidates(group: &Automorphisms, order: usize, state: &mut u64) -> Vec<Vec<u32>> {
    let mut cands: Vec<Vec<u32>> = Vec::new();
    for _ in 0..splitmix(state) % 8 {
        let pick = splitmix(state);
        let member = group.perm((pick >> 8) as usize % group.len()).to_vec();
        let cand = match pick % 4 {
            0 | 1 => member,
            2 => {
                let mut p = identity_perm(order);
                for i in (1..order).rev() {
                    p.swap(i, (splitmix(state) % (i as u64 + 1)) as usize);
                }
                p
            }
            _ => match cands.last() {
                Some(last) if pick % 8 == 3 => last.clone(),
                _ => {
                    let mut p = member;
                    p.swap(0, (pick >> 16) as usize % order);
                    p
                }
            },
        };
        cands.push(cand);
    }
    cands
}

fn closure(g: &Graph, candidates: Vec<Vec<u32>>) -> Vec<Vec<u32>> {
    Automorphisms::from_candidates(g, candidates)
        .iter()
        .map(<[u32]>::to_vec)
        .collect()
}

/// Adjacent transpositions generate the symmetric group: S₅ (120
/// elements) stays under `MAX_GROUP`, S₆ (720) falls back to the identity.
#[test]
fn symmetric_groups_match_the_oracle() {
    for (n, size) in [(5, 120), (6, 1)] {
        let g = generators::complete(n);
        let cands: Vec<Vec<u32>> = (0..n - 1)
            .map(|i| {
                let mut p = identity_perm(n);
                p.swap(i, i + 1);
                p
            })
            .collect();
        let got = closure(&g, cands.clone());
        assert_eq!(got.len(), size, "complete({n})");
        assert_eq!(got, reference_closure(&g, cands), "complete({n})");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn accessors_match_a_reference_adjacency(
        n in 2usize..20,
        extra in proptest::collection::vec(any::<u64>(), 1..40),
        shuffle in any::<u64>(),
    ) {
        let edges = edge_sequence(n, &extra);
        let mut b = GraphBuilder::new(n);
        for &(u, v) in &edges {
            b.edge(u, v).unwrap();
        }
        // Fisher–Yates permutations, one per node in node order, as
        // `shuffle_ports` asks for them; recorded for the reference.
        let mut state = shuffle;
        let mut perms = Vec::new();
        b.shuffle_ports(|d| {
            let mut perm: Vec<usize> = (0..d).collect();
            for i in (1..d).rev() {
                perm.swap(i, (splitmix(&mut state) % (i as u64 + 1)) as usize);
            }
            perms.push(perm.clone());
            perm
        });
        let g = b.build().unwrap();
        validate(&g).unwrap();
        assert_matches_reference(&g, &reference_adjacency(n, &edges, &perms));
    }

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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// On every oracle graph, the closure of a random candidate list is
    /// the oracle's permutation list, fallback to the identity included.
    #[test]
    fn closure_matches_the_quadratic_oracle(seed in any::<u64>()) {
        let mut state = seed;
        for (g, group) in oracle_graphs() {
            let cands = oracle_candidates(&group, g.order(), &mut state);
            prop_assert_eq!(closure(&g, cands.clone()), reference_closure(&g, cands));
        }
    }
}
