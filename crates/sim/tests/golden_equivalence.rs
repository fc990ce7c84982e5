//! Golden-equivalence suite for the CSR + dense-occupancy refactor.
//!
//! The constants below were captured from the pre-CSR seed implementation
//! (`HashMap<EdgeId, EdgeOcc>` occupancy over `Vec<Vec<…>>` adjacency);
//! the refactored runtime must be bit-for-bit identical in every observable
//! outcome: `RunEnd`, total/per-agent traversal counts, action counts, the
//! full meeting list, and the exact traversal streams of the cursor.
//!
//! A run keeps a meeting tally, not a log. Two agents stopping at their
//! first meeting declare at most one, so the tally's last meeting is the
//! whole list, and [`outcome_line`] renders it as the list was captured.
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
use rv_sim::{RunConfig, RunEnd, RunOutcome, Runtime, RvBehavior};
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

/// A rendezvous outcome as a stable fingerprint line covering every
/// observable field; the meeting list is the tally's last meeting, if
/// any (see the module docs).
fn outcome_line(out: &RunOutcome) -> String {
    assert!(out.meetings.len() <= 1, "{} meetings", out.meetings.len());
    let meetings: Vec<_> = out.meetings.last().into_iter().collect();
    format!(
        "{:?} cost={} actions={} per={:?} meetings={meetings:?}",
        out.end, out.total_traversals, out.actions, out.per_agent
    )
}

/// The two agents of every golden run, on the case's graph `g`.
fn golden_agents(g: &rv_graph::Graph) -> Vec<RvBehavior<'_, SeededUxs>> {
    let uxs = SeededUxs::quadratic();
    vec![
        RvBehavior::new(g, uxs, NodeId(0), Label::new(6).unwrap()),
        RvBehavior::new(g, uxs, NodeId(g.order() / 2), Label::new(9).unwrap()),
    ]
}

/// One rendezvous run under a fixed adversary, rendered by
/// [`outcome_line`].
fn run_fingerprint(
    fam: GraphFamily,
    n: usize,
    gseed: u64,
    kind: AdversaryKind,
    aseed: u64,
) -> String {
    let g = fam.generate(n, gseed);
    let config = RunConfig::rendezvous().with_cutoff(CUTOFF);
    let mut rt = Runtime::new(&g, golden_agents(&g), config);
    let mut adv = kind.build(aseed);
    outcome_line(&rt.run(adv.as_mut()))
}

/// Streams up to `steps` traversals of `c` into `h`, one
/// (from, exit, to, entry) record each; stops early if `c` drains.
fn hash_stream(c: &mut TrajectoryCursor<'_, SeededUxs>, steps: u64, h: &mut Fnv) {
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
}

/// Streams `spec` for up to `steps` traversals and fingerprints the exact
/// (from, exit, to, entry) sequence plus the final position.
fn cursor_fingerprint(fam: GraphFamily, n: usize, gseed: u64, spec: Spec, steps: u64) -> u64 {
    let uxs = SeededUxs::quadratic();
    let g = fam.generate(n, gseed);
    let mut c = TrajectoryCursor::new(&g, uxs, NodeId(0));
    c.push(spec);
    let mut h = Fnv::new();
    hash_stream(&mut c, steps, &mut h);
    h.write_usize(c.position().0);
    h.write(&c.steps().to_le_bytes());
    h.0
}

/// Pushes specs into a walk already in flight: `outer`, `split` steps,
/// `X(1)`, 5 steps, `Q(2)`, then drains. Fingerprints the whole stream
/// like [`cursor_fingerprint`].
fn interrupted_fingerprint(fam: GraphFamily, n: usize, gseed: u64, outer: Spec, split: u64) -> u64 {
    let uxs = SeededUxs::quadratic();
    let g = fam.generate(n, gseed);
    let mut c = TrajectoryCursor::new(&g, uxs, NodeId(0));
    let mut h = Fnv::new();
    c.push(outer);
    hash_stream(&mut c, split, &mut h);
    c.push(Spec::X(1));
    hash_stream(&mut c, 5, &mut h);
    c.push(Spec::Q(2));
    hash_stream(&mut c, u64::MAX, &mut h);
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

/// The last three cross repeat-body boundaries within their 50k steps
/// (164 `Y(1)`s, 9 `Y(2)`s and 3,125 `X(1)`s under the quadratic
/// provider), so they cover each repeat's count, not just its first body.
const CURSOR_CASES: [(GraphFamily, usize, u64, Spec, u64); 6] = [
    (GraphFamily::Ring, 12, 5, Spec::Y(3), 50_000),
    (GraphFamily::Gnp, 16, 9, Spec::B(8), 50_000),
    (GraphFamily::Lollipop, 12, 5, Spec::A(2), 50_000),
    (GraphFamily::Ring, 12, 5, Spec::B(1), 50_000),
    (GraphFamily::Gnp, 16, 9, Spec::B(2), 50_000),
    (GraphFamily::Lollipop, 12, 5, Spec::K(1), 50_000),
];

/// Cases for [`interrupted_fingerprint`] under the quadratic provider:
/// `X(3)` split inside its forward half; `Y(2)` split right after the
/// first spine step of `Y′(2)` (one `Q(2)` of 80 traversals, then the
/// step); `A(1)` likewise after one `Z(1)` of 304 traversals.
const INTERRUPTED_CASES: [(GraphFamily, usize, u64, Spec, u64); 5] = [
    (GraphFamily::Ring, 12, 5, Spec::X(3), 7),
    (GraphFamily::Gnp, 16, 9, Spec::X(3), 7),
    (GraphFamily::Lollipop, 12, 5, Spec::X(3), 7),
    (GraphFamily::Gnp, 16, 9, Spec::Y(2), 81),
    (GraphFamily::Lollipop, 12, 5, Spec::A(1), 305),
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
const GOLDEN_CURSORS: [u64; 6] = [
    0x40c8887426cfba35,
    0x6ceaa7ecb7a77d4e,
    0x1668da4b08c4f477,
    0x698750a5e5047ce4,
    0x5c9bc67e9dde4e0e,
    0x998773acd7ba3864,
];

/// Captured from the materialising-sweep cursor (per-task `X` logs,
/// repeat counts evaluated at push) — see module docs.
const GOLDEN_INTERRUPTED: [u64; 5] = [
    0x7f69698b5931b055,
    0x5d6915ff61a06395,
    0x4ec9bc7388208755,
    0x62246e58d133866e,
    0xc5a9e1be282e5c9e,
];

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

#[test]
fn interrupted_cursor_streams_match_golden() {
    for (i, &(fam, n, gseed, outer, split)) in INTERRUPTED_CASES.iter().enumerate() {
        assert_eq!(
            interrupted_fingerprint(fam, n, gseed, outer, split),
            GOLDEN_INTERRUPTED[i],
            "{outer} interrupted at {split} by X(1)/Q(2) drifted: {fam} n={n}"
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

/// Action count of golden run `i`, parsed from its fingerprint: the
/// action that declares the run's first meeting, in either run mode
/// (the modes differ only in whether that meeting stops the run).
fn golden_actions(i: usize) -> u64 {
    GOLDEN_RUNS[i]
        .split("actions=")
        .nth(1)
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|n| n.parse().ok())
        .expect("golden fingerprints carry actions=N")
}

/// Runs golden run case `i` under `config` with a fork detour after
/// `split` adversary actions: steps the run manually (mirroring
/// `Runtime::run`) to the split point, takes a [`Runtime::fork`] and
/// clones the adversary, then finishes **both** continuations — the fork
/// with the cloned adversary first, then the original runtime with the
/// original adversary. Returns both outcomes and the meetings the tally
/// held at the split; fork fidelity means each outcome equals the
/// uninterrupted run's (including the `GreedyAvoid` / `RandomAdversary`
/// RNG streams, which the clone must capture mid-stream), and running
/// the fork first shows it shares no state with the original.
fn detour_outcomes(i: usize, config: RunConfig, split: u64) -> (RunOutcome, RunOutcome, usize) {
    fn go<A: Adversary + Clone>(
        i: usize,
        config: RunConfig,
        mut adv: A,
        split: u64,
    ) -> (RunOutcome, RunOutcome, usize) {
        let (fam, n, gseed, _, _) = RUN_CASES[i];
        let g = fam.generate(n, gseed);
        let mut rt = Runtime::new(&g, golden_agents(&g), config);
        // Manual prefix via `Runtime::step` — `run()`'s own loop body, so
        // the prefix is decision-for-decision identical by construction.
        let mut meetings = Vec::new();
        for _ in 0..split {
            let end = rt.step(&mut adv, &mut meetings);
            assert!(end.is_none(), "split is strictly mid-run (got {end:?})");
        }
        let at_split = rt.meetings().len();
        let mut fork = rt.fork();
        let mut forked_adv = adv.clone();
        let forked = fork.run(&mut forked_adv);
        let continued = rt.run(&mut adv);
        (continued, forked, at_split)
    }

    let (_, _, _, kind, aseed) = RUN_CASES[i];
    match kind {
        AdversaryKind::RoundRobin => go(i, config, RoundRobin::new(), split),
        AdversaryKind::Random => go(i, config, RandomAdversary::new(aseed), split),
        AdversaryKind::LazyFirst => go(i, config, Lazy::new(0), split),
        AdversaryKind::LazySecond => go(i, config, Lazy::new(1), split),
        AdversaryKind::GreedyAvoid => go(i, config, GreedyAvoid::new(aseed), split),
        AdversaryKind::EagerMeet => go(i, config, EagerMeet::new(), split),
    }
}

/// The traversal budget of the protocol-mode detours: about five times
/// the costliest golden case's first meeting (59 traversals). Every case
/// meets 7 to 47 times within it, so a split after the first meeting
/// mostly lands between later ones.
const PROTOCOL_CUTOFF: u64 = 300;

/// Golden run case `i` in protocol mode, where meetings do not stop the
/// run, uninterrupted up to [`PROTOCOL_CUTOFF`].
fn protocol_outcome(i: usize) -> RunOutcome {
    let (fam, n, gseed, kind, aseed) = RUN_CASES[i];
    let g = fam.generate(n, gseed);
    let config = RunConfig::protocol().with_cutoff(PROTOCOL_CUTOFF);
    let mut rt = Runtime::new(&g, golden_agents(&g), config);
    rt.run(kind.build(aseed).as_mut())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Fork fidelity against the golden suite: forking any golden run at
    /// any mid-run action — continuing both the fork and the original —
    /// produces run fingerprints bit-identical to the uninterrupted golden
    /// run, adversary RNG streams included.
    #[test]
    fn fork_detour_is_invisible(case in 0usize..12, salt in any::<u64>()) {
        // Interrupt strictly before the final (meeting) action.
        let split = salt % golden_actions(case).max(1);
        let config = RunConfig::rendezvous().with_cutoff(CUTOFF);
        let (continued, forked, _) = detour_outcomes(case, config, split);
        let (continued, forked) = (outcome_line(&continued), outcome_line(&forked));
        prop_assert_eq!(continued.as_str(), GOLDEN_RUNS[case],
            "continuing past a fork diverged (case {}, split {})", case, split);
        prop_assert_eq!(forked.as_str(), GOLDEN_RUNS[case],
            "running a fork diverged (case {}, split {})", case, split);
    }

    /// The same detour in protocol mode, split after the first meeting:
    /// a rendezvous run ends at its first meeting, so only here does the
    /// fork carry a non-empty meeting tally. Both continuations must
    /// reproduce the whole uninterrupted outcome, tally included.
    #[test]
    fn fork_detour_keeps_the_meeting_tally(case in 0usize..12, salt in any::<u64>()) {
        let reference = protocol_outcome(case);
        prop_assert_eq!(reference.end, RunEnd::Cutoff);
        prop_assert!(reference.meetings.len() >= 2, "case {} meets only once", case);
        let first = golden_actions(case);
        let split = first + salt % (reference.actions - first);
        let config = RunConfig::protocol().with_cutoff(PROTOCOL_CUTOFF);
        let (continued, forked, at_split) = detour_outcomes(case, config, split);
        prop_assert!(at_split >= 1, "split {} precedes the first meeting", split);
        prop_assert_eq!(&continued, &reference,
            "continuing past a fork diverged (case {}, split {})", case, split);
        prop_assert_eq!(&forked, &reference,
            "running a fork diverged (case {}, split {})", case, split);
    }
}

/// Replays golden run case `i` under a stop policy instead of a plain
/// `run()` and returns the fingerprint.
fn policy_fingerprint(i: usize, policy: &mut dyn rv_sim::StopPolicy) -> String {
    let (fam, n, gseed, kind, aseed) = RUN_CASES[i];
    let g = fam.generate(n, gseed);
    let config = RunConfig::rendezvous().with_cutoff(CUTOFF);
    let mut rt = Runtime::new(&g, golden_agents(&g), config);
    let mut adv = kind.build(aseed);
    outcome_line(&rt.run_with_policy(adv.as_mut(), policy))
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
    for (i, &(fam, n, gseed, outer, split)) in INTERRUPTED_CASES.iter().enumerate() {
        println!(
            "INT{i}\t{:#018x}",
            interrupted_fingerprint(fam, n, gseed, outer, split)
        );
    }
    for (i, &depth) in MINIMAX_CASES.iter().enumerate() {
        println!("MM{i}\t{}", minimax_fingerprint(depth));
    }
}
