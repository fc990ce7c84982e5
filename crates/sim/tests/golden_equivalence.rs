//! Golden-equivalence suite for the CSR + dense-occupancy refactor.
//!
//! The constants below were captured from the pre-CSR seed implementation
//! (`HashMap<EdgeId, EdgeOcc>` occupancy over `Vec<Vec<…>>` adjacency);
//! the refactored runtime must be bit-for-bit identical in every observable
//! outcome: `RunEnd`, total/per-agent traversal counts, action counts, the
//! full meeting list, and the exact traversal streams of the cursor.
//!
//! To re-capture after an *intentional* semantic change, run
//! `cargo test -p rv_sim --test golden_equivalence -- --ignored --nocapture`
//! and paste the printed table over `GOLDEN`.

use proptest::prelude::*;
use rv_core::Label;
use rv_explore::SeededUxs;
use rv_graph::{GraphFamily, NodeId};
use rv_sim::adversary::{
    Adversary, AdversaryKind, EagerMeet, GreedyAvoid, Lazy, RandomAdversary, RoundRobin,
};
use rv_sim::{RunConfig, RunEnd, Runtime, RvBehavior};
use rv_trajectory::{Spec, TrajectoryCursor};

const CUTOFF: u64 = 4_000_000;

/// FNV-1a-style byte-stream mix (FNV-64 offset basis, 32-bit FNV prime —
/// not the standard 64-bit prime; do NOT "fix" the constant, the GOLDEN
/// values below were captured with exactly this function).
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x1_0000_01b3);
        }
    }
    fn write_usize(&mut self, x: usize) {
        self.write(&(x as u64).to_le_bytes());
    }
}

/// One rendezvous run under a fixed adversary, rendered as a stable
/// fingerprint line covering every observable field of the outcome.
fn run_fingerprint(
    fam: GraphFamily,
    n: usize,
    gseed: u64,
    kind: AdversaryKind,
    aseed: u64,
) -> String {
    let uxs = SeededUxs::quadratic();
    let g = fam.generate(n, gseed);
    let agents = vec![
        RvBehavior::new(&g, uxs, NodeId(0), Label::new(6).unwrap()),
        RvBehavior::new(&g, uxs, NodeId(g.order() / 2), Label::new(9).unwrap()),
    ];
    let mut rt = Runtime::new(&g, agents, RunConfig::rendezvous().with_cutoff(CUTOFF));
    let mut adv = kind.build(aseed);
    let out = rt.run(adv.as_mut());
    format!(
        "{:?} cost={} actions={} per={:?} meetings={:?}",
        out.end, out.total_traversals, out.actions, out.per_agent, out.meetings
    )
}

/// Streams `spec` for up to `steps` traversals and fingerprints the exact
/// (from, exit, to, entry) sequence plus the final position.
fn cursor_fingerprint(fam: GraphFamily, n: usize, gseed: u64, spec: Spec, steps: u64) -> u64 {
    let uxs = SeededUxs::quadratic();
    let g = fam.generate(n, gseed);
    let mut c = TrajectoryCursor::new(&g, uxs, NodeId(0));
    c.push(spec);
    let mut h = Fnv::new();
    for _ in 0..steps {
        match c.next_traversal() {
            None => break,
            Some(t) => {
                h.write_usize(t.from.0);
                h.write_usize(t.exit.0);
                h.write_usize(t.to.0);
                h.write_usize(t.entry.0);
            }
        }
    }
    h.write_usize(c.position().0);
    h.write(&c.steps().to_le_bytes());
    h.0
}

const RUN_CASES: [(GraphFamily, usize, u64, AdversaryKind, u64); 12] = [
    (GraphFamily::Ring, 12, 5, AdversaryKind::RoundRobin, 0),
    (GraphFamily::Ring, 12, 5, AdversaryKind::Random, 11),
    (GraphFamily::Ring, 12, 5, AdversaryKind::GreedyAvoid, 7),
    (GraphFamily::Ring, 12, 5, AdversaryKind::EagerMeet, 0),
    (GraphFamily::Gnp, 12, 5, AdversaryKind::RoundRobin, 0),
    (GraphFamily::Gnp, 12, 5, AdversaryKind::Random, 11),
    (GraphFamily::Gnp, 12, 5, AdversaryKind::GreedyAvoid, 7),
    (GraphFamily::Gnp, 12, 5, AdversaryKind::LazySecond, 0),
    (GraphFamily::Lollipop, 12, 5, AdversaryKind::RoundRobin, 0),
    (GraphFamily::Lollipop, 12, 5, AdversaryKind::Random, 11),
    (GraphFamily::Lollipop, 12, 5, AdversaryKind::GreedyAvoid, 7),
    (GraphFamily::Lollipop, 12, 5, AdversaryKind::LazyFirst, 0),
];

const CURSOR_CASES: [(GraphFamily, usize, u64, Spec, u64); 3] = [
    (GraphFamily::Ring, 12, 5, Spec::Y(3), 50_000),
    (GraphFamily::Gnp, 16, 9, Spec::B(8), 50_000),
    (GraphFamily::Lollipop, 12, 5, Spec::A(2), 50_000),
];

/// Captured from the seed implementation — see module docs.
const GOLDEN_RUNS: [&str; 12] = [
    "Meeting cost=54 actions=110 per=[27, 27] meetings=[Meeting { agents: [0, 1], place: Node(NodeId(9)), at_cost: 54, at_action: 110 }]",
    "Meeting cost=59 actions=122 per=[34, 25] meetings=[Meeting { agents: [0, 1], place: Edge(EdgeId { a: NodeId(7), b: NodeId(8) }), at_cost: 59, at_action: 122 }]",
    "Meeting cost=57 actions=118 per=[31, 26] meetings=[Meeting { agents: [0, 1], place: Edge(EdgeId { a: NodeId(8), b: NodeId(9) }), at_cost: 57, at_action: 118 }]",
    "Meeting cost=53 actions=110 per=[27, 26] meetings=[Meeting { agents: [0, 1], place: Edge(EdgeId { a: NodeId(8), b: NodeId(9) }), at_cost: 53, at_action: 110 }]",
    "Meeting cost=14 actions=30 per=[7, 7] meetings=[Meeting { agents: [0, 1], place: Node(NodeId(3)), at_cost: 14, at_action: 30 }]",
    "Meeting cost=47 actions=96 per=[26, 21] meetings=[Meeting { agents: [0, 1], place: Node(NodeId(11)), at_cost: 47, at_action: 96 }]",
    "Meeting cost=13 actions=30 per=[6, 7] meetings=[Meeting { agents: [0, 1], place: Edge(EdgeId { a: NodeId(3), b: NodeId(8) }), at_cost: 13, at_action: 30 }]",
    "Meeting cost=24 actions=49 per=[24, 0] meetings=[Meeting { agents: [0, 1], place: Node(NodeId(6)), at_cost: 24, at_action: 49 }]",
    "Meeting cost=2 actions=6 per=[1, 1] meetings=[Meeting { agents: [0, 1], place: Node(NodeId(5)), at_cost: 2, at_action: 6 }]",
    "Meeting cost=2 actions=6 per=[1, 1] meetings=[Meeting { agents: [0, 1], place: Node(NodeId(5)), at_cost: 2, at_action: 6 }]",
    "Meeting cost=28 actions=58 per=[17, 11] meetings=[Meeting { agents: [0, 1], place: Node(NodeId(2)), at_cost: 28, at_action: 58 }]",
    "Meeting cost=4 actions=9 per=[0, 4] meetings=[Meeting { agents: [0, 1], place: Node(NodeId(0)), at_cost: 4, at_action: 9 }]",
];

/// Captured from the seed implementation — see module docs.
const GOLDEN_CURSORS: [u64; 3] = [0x40c8887426cfba35, 0x6ceaa7ecb7a77d4e, 0x1668da4b08c4f477];

#[test]
fn run_outcomes_match_seed_implementation() {
    for (i, &(fam, n, gseed, kind, aseed)) in RUN_CASES.iter().enumerate() {
        let got = run_fingerprint(fam, n, gseed, kind, aseed);
        assert_eq!(
            got, GOLDEN_RUNS[i],
            "outcome drifted from the seed implementation: {fam} n={n} {kind} seed={aseed}"
        );
    }
}

#[test]
fn cursor_streams_match_seed_implementation() {
    for (i, &(fam, n, gseed, spec, steps)) in CURSOR_CASES.iter().enumerate() {
        let got = cursor_fingerprint(fam, n, gseed, spec, steps);
        assert_eq!(
            got, GOLDEN_CURSORS[i],
            "traversal stream drifted from the seed implementation: {fam} n={n} {spec}"
        );
    }
}

/// The exhaustive minimax search enumerates the same schedule tree before
/// and after the refactor (incremental deepening + parallel root fan-out
/// must not change the explored leaf set or the aggregate result).
fn minimax_fingerprint(max_actions: usize) -> String {
    let uxs = SeededUxs::quadratic();
    let g = rv_graph::generators::path(3);
    let res = rv_sim::minimax::exhaustive_worst_case(
        &g,
        || {
            vec![
                RvBehavior::new(&g, uxs, NodeId(0), Label::new(1).unwrap()),
                RvBehavior::new(&g, uxs, NodeId(2), Label::new(2).unwrap()),
            ]
        },
        max_actions,
    );
    format!(
        "max={:?} avoids={} schedules={}",
        res.max_meeting_cost, res.some_schedule_avoids, res.schedules_explored
    )
}

const MINIMAX_CASES: [usize; 3] = [6, 10, 12];

/// Captured from the seed implementation — see module docs.
const GOLDEN_MINIMAX: [&str; 3] = [
    "max=Some(2) avoids=true schedules=64",
    "max=Some(4) avoids=true schedules=724",
    "max=Some(4) avoids=true schedules=2236",
];

#[test]
fn minimax_results_match_seed_implementation() {
    for (i, &depth) in MINIMAX_CASES.iter().enumerate() {
        assert_eq!(
            minimax_fingerprint(depth),
            GOLDEN_MINIMAX[i],
            "minimax drifted from the seed implementation at depth {depth}"
        );
    }
}

/// Action count of golden run `i`, parsed from its fingerprint — used to
/// place the snapshot detour strictly mid-run.
fn golden_actions(i: usize) -> u64 {
    GOLDEN_RUNS[i]
        .split("actions=")
        .nth(1)
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|n| n.parse().ok())
        .expect("golden fingerprints carry actions=N")
}

/// Replays golden run case `i` with a snapshot/restore detour after
/// `split` adversary actions: steps the run manually (mirroring
/// `Runtime::run`) to the split point, freezes a [`rv_sim::RuntimeSnapshot`]
/// and forks the adversary, then finishes **both** continuations — the
/// original runtime with the original adversary, and a fresh
/// `Runtime::from_snapshot` with the forked adversary. Returns both final
/// fingerprints; snapshot fidelity means each is bit-identical to the
/// uninterrupted golden fingerprint (including the `GreedyAvoid` /
/// `RandomAdversary` RNG streams, which the fork must capture mid-stream).
fn detour_fingerprints(i: usize, split: u64) -> (String, String) {
    fn go<A: Adversary + Clone>(
        fam: GraphFamily,
        n: usize,
        gseed: u64,
        mut adv: A,
        split: u64,
    ) -> (String, String) {
        let uxs = SeededUxs::quadratic();
        let g = fam.generate(n, gseed);
        let config = RunConfig::rendezvous().with_cutoff(CUTOFF);
        let agents = vec![
            RvBehavior::new(&g, uxs, NodeId(0), Label::new(6).unwrap()),
            RvBehavior::new(&g, uxs, NodeId(g.order() / 2), Label::new(9).unwrap()),
        ];
        let mut rt = Runtime::new(&g, agents, config);
        // Manual prefix via `Runtime::step` — `run()`'s own loop body, so
        // the prefix is decision-for-decision identical by construction.
        let mut meetings = Vec::new();
        for _ in 0..split {
            let end = rt.step(&mut adv, &mut meetings);
            assert!(end.is_none(), "split is strictly mid-run (got {end:?})");
        }
        let snap = rt.snapshot();
        let mut forked_adv = adv.clone();
        let fingerprint = |rt: &mut Runtime<RvBehavior<SeededUxs>>, adv: &mut A| {
            let out = rt.run(adv);
            format!(
                "{:?} cost={} actions={} per={:?} meetings={:?}",
                out.end, out.total_traversals, out.actions, out.per_agent, out.meetings
            )
        };
        let continued = fingerprint(&mut rt, &mut adv);
        let mut restored = Runtime::from_snapshot(&g, &snap, config);
        let resumed = fingerprint(&mut restored, &mut forked_adv);
        (continued, resumed)
    }

    let (fam, n, gseed, kind, aseed) = RUN_CASES[i];
    match kind {
        AdversaryKind::RoundRobin => go(fam, n, gseed, RoundRobin::new(), split),
        AdversaryKind::Random => go(fam, n, gseed, RandomAdversary::new(aseed), split),
        AdversaryKind::LazyFirst => go(fam, n, gseed, Lazy::new(0), split),
        AdversaryKind::LazySecond => go(fam, n, gseed, Lazy::new(1), split),
        AdversaryKind::GreedyAvoid => go(fam, n, gseed, GreedyAvoid::new(aseed), split),
        AdversaryKind::EagerMeet => go(fam, n, gseed, EagerMeet::new(), split),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Snapshot fidelity against the golden suite: interrupting any golden
    /// run at any mid-run action with `restore(snapshot())` — continuing
    /// both the original and the restored copy — produces run fingerprints
    /// bit-identical to the uninterrupted golden run, adversary RNG
    /// streams included.
    #[test]
    fn snapshot_restore_detour_is_invisible(case in 0usize..12, salt in any::<u64>()) {
        // Interrupt strictly before the final (meeting) action.
        let split = salt % golden_actions(case).max(1);
        let (continued, resumed) = detour_fingerprints(case, split);
        prop_assert_eq!(continued.as_str(), GOLDEN_RUNS[case],
            "continuing past a snapshot diverged (case {}, split {})", case, split);
        prop_assert_eq!(resumed.as_str(), GOLDEN_RUNS[case],
            "restoring a snapshot diverged (case {}, split {})", case, split);
    }
}

/// Replays golden run case `i` under a stop policy instead of a plain
/// `run()` and returns the fingerprint.
fn policy_fingerprint(i: usize, policy: &mut dyn rv_sim::StopPolicy) -> String {
    let (fam, n, gseed, kind, aseed) = RUN_CASES[i];
    let uxs = SeededUxs::quadratic();
    let g = fam.generate(n, gseed);
    let agents = vec![
        RvBehavior::new(&g, uxs, NodeId(0), Label::new(6).unwrap()),
        RvBehavior::new(&g, uxs, NodeId(g.order() / 2), Label::new(9).unwrap()),
    ];
    let mut rt = Runtime::new(&g, agents, RunConfig::rendezvous().with_cutoff(CUTOFF));
    let mut adv = kind.build(aseed);
    let out = rt.run_with_policy(adv.as_mut(), policy);
    format!(
        "{:?} cost={} actions={} per={:?} meetings={:?}",
        out.end, out.total_traversals, out.actions, out.per_agent, out.meetings
    )
}

/// The stop-policy contract on converging runs: a detector may change
/// *when* a non-converging run stops, never *what* a converging run
/// computes. Every golden case converges, so running it under the
/// divergence detector must reproduce the golden fingerprint bit for bit,
/// adversary RNG streams included.
#[test]
fn detector_enabled_runs_match_golden_fingerprints() {
    for (i, golden) in GOLDEN_RUNS.iter().enumerate() {
        let mut detector = rv_sim::DivergenceDetector::default();
        assert_eq!(
            policy_fingerprint(i, &mut detector),
            *golden,
            "divergence detector changed converging case {i}"
        );
    }
}

/// The config budget is the backstop under a detector too: on a
/// cutoff-bound run, `run_with_policy` under the divergence detector
/// stops at exactly the same point as a plain `run()` with the same
/// `with_cutoff` — same end, traversal count, action count and meeting
/// log.
#[test]
fn policy_cutoff_matches_the_with_cutoff_shim() {
    let uxs = SeededUxs::quadratic();
    let g = GraphFamily::Ring.generate(12, 5);
    let make = || {
        vec![
            RvBehavior::new(&g, uxs, NodeId(0), Label::new(6).unwrap()),
            RvBehavior::new(&g, uxs, NodeId(6), Label::new(9).unwrap()),
        ]
    };
    for budget in [1u64, 7, 25, 40] {
        let config = RunConfig::rendezvous().with_cutoff(budget);
        let mut rt = Runtime::new(&g, make(), config);
        let plain = rt.run(&mut RoundRobin::new());
        let mut rt = Runtime::new(&g, make(), config);
        let mut policy = rv_sim::DivergenceDetector::default();
        let via_policy = rt.run_with_policy(&mut RoundRobin::new(), &mut policy);
        assert_eq!(plain.end, RunEnd::Cutoff, "budget {budget}");
        assert_eq!(plain.end, via_policy.end, "budget {budget}");
        assert_eq!(
            plain.total_traversals, via_policy.total_traversals,
            "budget {budget}"
        );
        assert_eq!(plain.actions, via_policy.actions, "budget {budget}");
        assert_eq!(plain.meetings, via_policy.meetings, "budget {budget}");
    }
}

/// The config budget wins a tie with a policy: a policy that would call
/// the run `Diverged` at exactly the budget must not relabel a run the
/// backstop has already exhausted. Detector ends mean "retired strictly
/// under the budget", which the matrix's `--check` relies on.
#[test]
fn config_budget_wins_a_tie_with_the_policy() {
    /// Fires `Diverged` once the budget is reached, checked every action.
    struct FiresAtBudget(u64);
    impl rv_sim::StopPolicy for FiresAtBudget {
        fn cadence(&self) -> u64 {
            1
        }
        fn check(&mut self, p: &rv_sim::Progress) -> Option<RunEnd> {
            (p.total_traversals >= self.0).then_some(RunEnd::Diverged)
        }
    }
    let uxs = SeededUxs::quadratic();
    let g = GraphFamily::Ring.generate(12, 5);
    for budget in [1u64, 7, 25, 40] {
        let agents = vec![
            RvBehavior::new(&g, uxs, NodeId(0), Label::new(6).unwrap()),
            RvBehavior::new(&g, uxs, NodeId(6), Label::new(9).unwrap()),
        ];
        let mut rt = Runtime::new(&g, agents, RunConfig::rendezvous().with_cutoff(budget));
        let out = rt.run_with_policy(&mut RoundRobin::new(), &mut FiresAtBudget(budget));
        assert_eq!(out.end, RunEnd::Cutoff, "budget {budget}");
        assert_eq!(out.total_traversals, budget, "budget {budget}");
    }
}

/// Prints the current fingerprints for re-capture (see module docs).
#[test]
#[ignore = "capture helper: prints fingerprints instead of asserting"]
fn capture_fingerprints() {
    for (i, &(fam, n, gseed, kind, aseed)) in RUN_CASES.iter().enumerate() {
        println!("RUN{i}\t{}", run_fingerprint(fam, n, gseed, kind, aseed));
    }
    for (i, &(fam, n, gseed, spec, steps)) in CURSOR_CASES.iter().enumerate() {
        println!(
            "CUR{i}\t{:#018x}",
            cursor_fingerprint(fam, n, gseed, spec, steps)
        );
    }
    for (i, &depth) in MINIMAX_CASES.iter().enumerate() {
        println!("MM{i}\t{}", minimax_fingerprint(depth));
    }
}
