//! Property tests: the trajectory algebra's structural invariants hold on
//! random graphs, random start nodes and random parameters.

use proptest::prelude::*;
use rv_arith::Big;
use rv_explore::SeededUxs;
use rv_graph::{generators, NodeId};
use rv_trajectory::{Lengths, Spec, TrajectoryCursor};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Streamed length equals the closed-form length, for every combinator
    /// small enough to play, on random graphs — and closed combinators end
    /// where they started.
    #[test]
    fn cursor_agrees_with_length_algebra(
        n in 4usize..12,
        p in 0.2f64..0.8,
        gseed in any::<u64>(),
        start_sel in any::<u64>(),
        k in 1u64..4,
    ) {
        let g = generators::gnp_connected(n, p, gseed);
        let start = NodeId((start_sel % n as u64) as usize);
        let uxs = SeededUxs::default();
        let lengths = Lengths::new(uxs);
        for spec in [Spec::R(k), Spec::X(k), Spec::Q(k), Spec::Y(k), Spec::Z(k)] {
            let mut c = TrajectoryCursor::new(&g, uxs, start);
            c.push(spec);
            let mut steps = 0u64;
            let mut prev = start;
            while let Some(t) = c.next_traversal() {
                prop_assert_eq!(t.from, prev, "contiguity in {}", spec);
                prop_assert_eq!(g.traverse(t.from, t.exit).node, t.to);
                prev = t.to;
                steps += 1;
            }
            prop_assert_eq!(Big::from(steps), lengths.of(spec), "length of {}", spec);
            if spec.is_closed() {
                prop_assert_eq!(c.position(), start, "{} must close", spec);
            }
        }
    }

    /// A(k) closes too (deep nesting: A′ = Z-insertions over R, reversed).
    #[test]
    fn a_trajectory_closes_on_random_trees(n in 4usize..9, seed in any::<u64>()) {
        let g = generators::random_tree(n, seed);
        let uxs = SeededUxs::default();
        let mut c = TrajectoryCursor::new(&g, uxs, NodeId(0));
        c.push(Spec::A(1));
        let mut steps = 0u64;
        while c.next_traversal().is_some() { steps += 1; }
        prop_assert_eq!(Big::from(steps), Lengths::new(uxs).a(1));
        prop_assert_eq!(c.position(), NodeId(0));
    }

    /// The first and second halves of X(k) are exact walk-reverses of each
    /// other (the palindrome property that structural reversal relies on).
    #[test]
    fn x_halves_mirror(n in 4usize..12, gseed in any::<u64>(), k in 1u64..5) {
        let g = generators::gnp_connected(n, 0.4, gseed);
        let uxs = SeededUxs::default();
        let mut c = TrajectoryCursor::new(&g, uxs, NodeId(0));
        c.push(Spec::X(k));
        let mut walk = Vec::new();
        while let Some(t) = c.next_traversal() {
            walk.push(t);
        }
        let half = walk.len() / 2;
        prop_assert_eq!(half * 2, walk.len());
        for i in 0..half {
            let fwd = walk[i];
            let bwd = walk[walk.len() - 1 - i];
            prop_assert_eq!(fwd.from, bwd.to);
            prop_assert_eq!(fwd.to, bwd.from);
            prop_assert_eq!(fwd.exit, bwd.entry);
            prop_assert_eq!(fwd.entry, bwd.exit);
        }
    }

    /// Lengths are graph-independent: the same spec takes the same number
    /// of steps on any graph (the defining property of the combinators).
    #[test]
    fn lengths_are_graph_independent(
        seed_a in any::<u64>(),
        seed_b in any::<u64>(),
        k in 1u64..4,
    ) {
        let ga = generators::gnp_connected(6, 0.5, seed_a);
        let gb = generators::random_tree(9, seed_b);
        let uxs = SeededUxs::default();
        let count = |g: &rv_graph::Graph| {
            let mut c = TrajectoryCursor::new(g, uxs, NodeId(0));
            c.push(Spec::Y(k));
            let mut steps = 0u64;
            while c.next_traversal().is_some() { steps += 1; }
            steps
        };
        prop_assert_eq!(count(&ga), count(&gb));
    }

    /// A repeat's count is read when its first body ends, so forks taken
    /// just before and just after that point must carry the count (or the
    /// lack of one) across: the fork streams exactly like the original.
    #[test]
    fn repeat_forks_stream_identically_across_the_first_body_end(
        n in 4usize..10,
        gseed in any::<u64>(),
        use_k in any::<bool>(),
        offset in 0u64..40,
    ) {
        let g = generators::gnp_connected(n, 0.5, gseed);
        let uxs = SeededUxs::default();
        let lengths = Lengths::new(uxs);
        let (spec, body) = if use_k {
            (Spec::K(1), lengths.x(1))
        } else {
            (Spec::B(1), lengths.y(1))
        };
        let body = body.to_u128().unwrap() as u64;
        // Split points from 20 steps before the body's end to 20 after.
        let split = (body + offset).saturating_sub(20);
        let mut original = TrajectoryCursor::new(&g, uxs, NodeId(0));
        original.push(spec);
        for _ in 0..split {
            original.next_traversal().unwrap();
        }
        let mut fork = original.clone();
        for _ in 0..3 * body {
            prop_assert_eq!(
                original.next_traversal(),
                fork.next_traversal(),
                "{} fork at {} diverged", spec, split
            );
        }
    }

    /// `prime()` only moves frame expansion earlier: a fork of a primed
    /// cursor streams exactly like a cursor that was never primed.
    #[test]
    fn priming_before_a_fork_changes_nothing(
        n in 4usize..10,
        gseed in any::<u64>(),
        which in 0usize..4,
        split in 0u64..200,
    ) {
        let g = generators::gnp_connected(n, 0.5, gseed);
        let uxs = SeededUxs::default();
        let spec = [Spec::B(1), Spec::K(1), Spec::Y(2), Spec::A(1)][which];
        let mut plain = TrajectoryCursor::new(&g, uxs, NodeId(0));
        plain.push(spec);
        for _ in 0..split {
            plain.next_traversal().unwrap();
        }
        let mut primed = plain.clone();
        prop_assert!(primed.prime());
        let mut fork = primed.clone();
        for _ in 0..400 {
            let want = plain.next_traversal();
            prop_assert_eq!(fork.next_traversal(), want, "{} split {}", spec, split);
            prop_assert_eq!(primed.next_traversal(), want, "{} split {}", spec, split);
        }
    }

    /// `X` walks share one stacked replay log: an `X(1)` pushed anywhere
    /// inside an `X(k)` walk plays whole, and the outer walk still
    /// retraces its own entries — one contiguous walk of `|X(k)| + |X(1)|`
    /// traversals back to the start.
    #[test]
    fn x_pushed_inside_an_x_walk_keeps_the_log_stacked(
        n in 4usize..12,
        gseed in any::<u64>(),
        k in 1u64..4,
        split_sel in any::<u64>(),
    ) {
        let g = generators::gnp_connected(n, 0.4, gseed);
        let uxs = SeededUxs::default();
        let lengths = Lengths::new(uxs);
        let outer = lengths.x(k).to_u128().unwrap() as u64;
        let split = split_sel % outer;
        let mut c = TrajectoryCursor::new(&g, uxs, NodeId(0));
        c.push(Spec::X(k));
        let mut prev = NodeId(0);
        let mut step = |c: &mut TrajectoryCursor<'_, SeededUxs>| {
            let t = c.next_traversal();
            if let Some(t) = t {
                assert_eq!(t.from, prev, "contiguity");
                assert_eq!(g.traverse(t.from, t.exit).node, t.to);
                prev = t.to;
            }
            t.is_some()
        };
        for _ in 0..split {
            prop_assert!(step(&mut c));
        }
        c.push(Spec::X(1));
        while step(&mut c) {}
        prop_assert_eq!(Big::from(c.steps()), lengths.x(k) + lengths.x(1));
        prop_assert_eq!(c.position(), NodeId(0));
    }
}
