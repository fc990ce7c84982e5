//! End-to-end rendezvous: Algorithm RV-asynch-poly must meet under every
//! adversary in the suite, on every graph family (Theorem 3.1, empirically),
//! and the key structural lemma (Lemma 3.1) must hold.

use proptest::prelude::*;
use rv_core::Label;
use rv_explore::SeededUxs;
use rv_graph::{generators, GraphFamily, NodeId};
use rv_sim::adversary::AdversaryKind;
use rv_sim::{RunConfig, RunEnd, Runtime, RvBehavior, SpecBehavior};
use rv_trajectory::Spec;

fn uxs() -> SeededUxs {
    SeededUxs::quadratic()
}

fn run_rendezvous(
    g: &rv_graph::Graph,
    starts: (usize, usize),
    labels: (u64, u64),
    kind: AdversaryKind,
    seed: u64,
    cutoff: u64,
) -> rv_sim::RunOutcome {
    let agents = vec![
        RvBehavior::new(g, uxs(), NodeId(starts.0), Label::new(labels.0).unwrap()),
        RvBehavior::new(g, uxs(), NodeId(starts.1), Label::new(labels.1).unwrap()),
    ];
    let mut rt = Runtime::new(g, agents, RunConfig::rendezvous().with_cutoff(cutoff));
    let mut adv = kind.build(seed);
    rt.run(adv.as_mut())
}

#[test]
fn rendezvous_on_every_family_under_every_adversary() {
    // Round-robin is excluded here: exact-lockstep scheduling can trap both
    // agents in the fence Ω(1) (≈10¹⁹ repetitions of a 16-step loop) in
    // disjoint regions — see `fence_trap_under_exact_lockstep` below.
    let robust = [
        AdversaryKind::Random,
        AdversaryKind::LazyFirst,
        AdversaryKind::LazySecond,
        AdversaryKind::GreedyAvoid,
        AdversaryKind::EagerMeet,
    ];
    for fam in GraphFamily::ALL {
        let g = fam.generate(8, 42);
        let n = g.order();
        for kind in robust {
            let out = run_rendezvous(&g, (0, n / 2), (6, 9), kind, 1, 5_000_000);
            assert!(
                matches!(out.end, RunEnd::Meeting),
                "{fam}/{kind}: no meeting within {} traversals",
                out.total_traversals
            );
        }
    }
}

/// A reproduction finding worth pinning down: under *exact-lockstep*
/// round-robin scheduling on the hypercube, both agents reach the fence
/// Ω(1) — `X(1)` repeated ~10¹⁹ times — anchored at nodes whose 16-step
/// loops never interact, so no feasible horizon produces a meeting. The
/// guarantee of Theorem 3.1 only engages at pieces k ≥ n+l, i.e. within the
/// astronomical bound Π(n,m); this is the algorithm's galactic-constant
/// nature, not a bug (every other adversary meets in a handful of steps;
/// `rv_bench`'s `probe_trap` example searches for such trapped starts).
#[test]
fn fence_trap_under_exact_lockstep() {
    let g = generators::hypercube(3);
    let trapped = run_rendezvous(&g, (0, 4), (6, 9), AdversaryKind::RoundRobin, 1, 200_000);
    assert!(
        matches!(trapped.end, RunEnd::Cutoff),
        "the Ω(1) trap should persist"
    );
    // The same configuration under a fair *random* scheduler meets at once.
    let free = run_rendezvous(&g, (0, 4), (6, 9), AdversaryKind::Random, 1, 200_000);
    assert!(matches!(free.end, RunEnd::Meeting));
    // And round-robin itself is fine on the ring, where the X(1) loops of
    // the two agents overlap.
    let ring = generators::ring(8);
    let out = run_rendezvous(
        &ring,
        (0, 4),
        (6, 9),
        AdversaryKind::RoundRobin,
        1,
        5_000_000,
    );
    assert!(
        matches!(out.end, RunEnd::Meeting),
        "cost {}",
        out.total_traversals
    );
}

#[test]
fn lazy_adversary_is_beaten_by_the_active_agent_alone() {
    // Freeze agent 1: agent 0 must find the frozen agent by itself.
    let g = generators::ring(10);
    let out = run_rendezvous(&g, (0, 5), (3, 12), AdversaryKind::LazySecond, 0, 1_000_000);
    assert!(matches!(out.end, RunEnd::Meeting));
    assert_eq!(out.per_agent[1], 0, "the frozen agent never moved");
    assert!(out.per_agent[0] > 0);
}

#[test]
fn eager_adversary_meets_fast() {
    let g = generators::ring(16);
    let eager = run_rendezvous(&g, (0, 8), (2, 7), AdversaryKind::EagerMeet, 3, 1_000_000);
    let greedy = run_rendezvous(&g, (0, 8), (2, 7), AdversaryKind::GreedyAvoid, 3, 1_000_000);
    assert!(matches!(eager.end, RunEnd::Meeting));
    assert!(matches!(greedy.end, RunEnd::Meeting));
    assert!(
        eager.total_traversals <= greedy.total_traversals,
        "eager ({}) should not cost more than greedy-avoid ({})",
        eager.total_traversals,
        greedy.total_traversals
    );
}

#[test]
fn identical_starting_distance_different_labels_still_meet() {
    // Symmetric positions on an even ring: label difference is the only
    // symmetry breaker (the reason labels exist at all).
    let g = generators::ring(12);
    for kind in AdversaryKind::ALL {
        let out = run_rendezvous(&g, (0, 6), (21, 22), kind, 9, 5_000_000);
        assert!(matches!(out.end, RunEnd::Meeting), "{kind}");
    }
}

/// Lemma 3.1: if agent b keeps repeating X(m, v) while agent a follows one
/// entire X(m, u), the agents must meet — under any adversary.
#[test]
fn lemma_3_1_x_repetition_forces_meeting() {
    for (n, seed) in [(6usize, 1u64), (9, 2), (12, 3)] {
        let g = generators::gnp_connected(n, 0.4, seed);
        let m = n as u64; // X(m) is integral for m ≥ n
        for kind in AdversaryKind::ALL {
            let repeater = SpecBehavior::looping(&g, uxs(), NodeId(0), vec![], Spec::X(m));
            let walker = SpecBehavior::new(&g, uxs(), NodeId(n / 2), vec![Spec::X(m); 4]);
            let mut rt = Runtime::new(
                &g,
                vec![repeater, walker],
                RunConfig::rendezvous().with_cutoff(2_000_000),
            );
            let mut adv = kind.build(17);
            let out = rt.run(adv.as_mut());
            assert!(
                matches!(out.end, RunEnd::Meeting),
                "n={n} {kind}: Lemma 3.1 violated (cost {})",
                out.total_traversals
            );
        }
    }
}

/// Lemma 3.1 with Y instead of X (the lemma's closing remark).
#[test]
fn lemma_3_1_holds_for_y_trajectories() {
    let g = generators::ring(7);
    for kind in [AdversaryKind::GreedyAvoid, AdversaryKind::Random] {
        let repeater = SpecBehavior::looping(&g, uxs(), NodeId(0), vec![], Spec::Y(7));
        let walker = SpecBehavior::new(&g, uxs(), NodeId(3), vec![Spec::Y(7); 2]);
        let mut rt = Runtime::new(
            &g,
            vec![repeater, walker],
            RunConfig::rendezvous().with_cutoff(5_000_000),
        );
        let mut adv = kind.build(23);
        let out = rt.run(adv.as_mut());
        assert!(matches!(out.end, RunEnd::Meeting), "{kind}");
    }
}

/// The measured rendezvous cost never exceeds the theoretical bound
/// Π(n, min |L|) — vacuously far below it in practice, but the comparison
/// exercises the bound machinery end to end.
#[test]
fn measured_cost_is_below_pi_bound() {
    let g = generators::ring(6);
    let out = run_rendezvous(&g, (0, 3), (5, 9), AdversaryKind::GreedyAvoid, 5, 5_000_000);
    assert!(matches!(out.end, RunEnd::Meeting));
    let m = Label::new(5).unwrap().bit_length() as u64;
    let bound = rv_core::pi_bound(uxs(), g.order() as u64, m);
    assert!(rv_arith::Big::from(out.total_traversals) < bound);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random (graph, labels, starts, adversary seed): rendezvous always
    /// happens under the meeting-avoiding adversary.
    #[test]
    fn random_instances_always_meet(
        n in 4usize..12,
        gseed in any::<u64>(),
        l1 in 1u64..200,
        l2 in 1u64..200,
        aseed in any::<u64>(),
    ) {
        prop_assume!(l1 != l2);
        let g = generators::gnp_connected(n, 0.35, gseed);
        let out = run_rendezvous(
            &g,
            (0, n - 1),
            (l1, l2),
            AdversaryKind::GreedyAvoid,
            aseed,
            5_000_000,
        );
        prop_assert!(matches!(out.end, RunEnd::Meeting));
    }
}
