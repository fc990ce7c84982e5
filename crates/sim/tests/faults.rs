//! End-to-end fault-injection suite (`rv_sim::fault` through `Runtime`).
//!
//! Two contracts are pinned here:
//!
//! * **Empty plans are free** — installing `FaultPlan::empty()` produces
//!   run fingerprints bit-identical to never touching the fault API, for
//!   every adversary in the suite (RNG streams included).
//! * **Faulted runs never hang** — crash-stop scenarios always terminate
//!   with a *classified* end (`AllCrashed`, `SurvivorsParked`, or a
//!   meeting forced on a crashed body), never a spin.

use rv_core::Label;
use rv_explore::SeededUxs;
use rv_graph::{generators, GraphFamily, NodeId};
use rv_sim::adversary::{AdversaryKind, RoundRobin};
use rv_sim::{CrashFault, FaultPlan, RunConfig, RunEnd, Runtime, RvBehavior, ScriptBehavior};

const CUTOFF: u64 = 4_000_000;

/// One rendezvous run with an optional fault plan, rendered as the same
/// fingerprint line as the golden-equivalence suite.
fn run_fingerprint(
    fam: GraphFamily,
    n: usize,
    gseed: u64,
    kind: AdversaryKind,
    aseed: u64,
    plan: Option<FaultPlan>,
) -> String {
    let uxs = SeededUxs::quadratic();
    let g = fam.generate(n, gseed);
    let agents = vec![
        RvBehavior::new(&g, uxs, NodeId(0), Label::new(6).unwrap()),
        RvBehavior::new(&g, uxs, NodeId(g.order() / 2), Label::new(9).unwrap()),
    ];
    let mut rt = Runtime::new(&g, agents, RunConfig::rendezvous().with_cutoff(CUTOFF));
    if let Some(plan) = plan {
        rt.set_fault_plan(plan);
    }
    let mut adv = kind.build(aseed);
    let out = rt.run(adv.as_mut());
    format!(
        "{:?} cost={} actions={} per={:?} meetings={:?}",
        out.end, out.total_traversals, out.actions, out.per_agent, out.meetings
    )
}

/// The golden-equivalence case list (same coverage: every adversary kind,
/// three graph families).
const CASES: [(GraphFamily, usize, u64, AdversaryKind, u64); 12] = [
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

/// The acceptance test for the fault layer's zero-cost claim:
/// installing the empty plan (which still constructs and consults a
/// `FaultClock` every step — the *stronger* form of the claim) changes no
/// observable bit of any run in the adversary suite.
#[test]
fn empty_plan_is_bit_identical_to_no_plan() {
    for &(fam, n, gseed, kind, aseed) in CASES.iter() {
        let bare = run_fingerprint(fam, n, gseed, kind, aseed, None);
        let empty = run_fingerprint(fam, n, gseed, kind, aseed, Some(FaultPlan::empty()));
        assert_eq!(
            bare, empty,
            "FaultPlan::empty() perturbed {fam} n={n} {kind} seed={aseed}"
        );
    }
}

/// Crashing every agent before the first decision classifies as
/// `AllCrashed` immediately — no action taken, no spin.
#[test]
fn all_agents_crashed_classifies_all_crashed() {
    let uxs = SeededUxs::quadratic();
    let g = generators::ring(6);
    let agents = vec![
        RvBehavior::new(&g, uxs, NodeId(0), Label::new(2).unwrap()),
        RvBehavior::new(&g, uxs, NodeId(3), Label::new(5).unwrap()),
    ];
    let mut rt = Runtime::new(&g, agents, RunConfig::rendezvous().with_cutoff(CUTOFF));
    rt.set_fault_plan(FaultPlan::new(vec![
        CrashFault {
            at_action: 0,
            agent: 0,
        },
        CrashFault {
            at_action: 0,
            agent: 1,
        },
    ]));
    let out = rt.run(&mut RoundRobin::new());
    assert_eq!(out.end, RunEnd::AllCrashed);
    assert_eq!(out.total_traversals, 0);
    assert_eq!(out.actions, 0);
    assert!(rt.crashed(0) && rt.crashed(1));
}

/// Crash-stop body semantics: a crashed agent stops acting but its body
/// still forces meetings — the survivor's rendezvous trajectory walks
/// into it and the run ends `Meeting`, with the crashed agent at zero
/// traversals.
#[test]
fn crashed_body_still_forces_rendezvous() {
    let uxs = SeededUxs::quadratic();
    let g = generators::ring(6);
    let agents = vec![
        RvBehavior::new(&g, uxs, NodeId(0), Label::new(2).unwrap()),
        RvBehavior::new(&g, uxs, NodeId(3), Label::new(5).unwrap()),
    ];
    let mut rt = Runtime::new(&g, agents, RunConfig::rendezvous().with_cutoff(CUTOFF));
    rt.set_fault_plan(FaultPlan::new(vec![CrashFault {
        at_action: 0,
        agent: 1,
    }]));
    let out = rt.run(&mut RoundRobin::new());
    assert_eq!(out.end, RunEnd::Meeting);
    assert_eq!(out.per_agent[1], 0, "crashed agents never traverse");
    let m = out
        .meetings
        .last()
        .expect("rendezvous ended with a meeting");
    assert_eq!(m.agents.iter().collect::<Vec<_>>(), vec![0, 1]);
    assert!(rt.crashed(1) && !rt.crashed(0));
}

/// A survivor that parks while a teammate is crashed (and out of reach)
/// classifies as `SurvivorsParked`, not `AllParked`.
#[test]
fn survivor_parking_classifies_survivors_parked() {
    let g = generators::path(3);
    // Agent 0 walks one edge (node 0 → node 1) and parks; agent 1 sleeps
    // at node 2 and is crashed before it can ever wake.
    let agents = vec![
        ScriptBehavior::new(NodeId(0), [0]),
        ScriptBehavior::new(NodeId(2), []),
    ];
    let mut rt = Runtime::new(&g, agents, RunConfig::protocol().with_cutoff(CUTOFF));
    rt.set_fault_plan(FaultPlan::new(vec![CrashFault {
        at_action: 0,
        agent: 1,
    }]));
    let out = rt.run(&mut RoundRobin::new());
    assert_eq!(out.end, RunEnd::SurvivorsParked);
    assert_eq!(out.per_agent, vec![1, 0]);
}

/// Seeded plans honour their profile bounds and at-most-one-crash-per-
/// agent canonicalisation when driven through a real runtime: the run
/// terminates classified under an aggressive seeded plan.
#[test]
fn seeded_plans_terminate_classified() {
    let uxs = SeededUxs::quadratic();
    let g = GraphFamily::Ring.generate(8, 3);
    for seed in 0..24u64 {
        let plan = FaultPlan::seeded(
            seed,
            &rv_sim::FaultProfile {
                horizon_actions: 200,
                agents: 2,
                crashes: 2,
            },
        );
        let agents = vec![
            RvBehavior::new(&g, uxs, NodeId(0), Label::new(6).unwrap()),
            RvBehavior::new(&g, uxs, NodeId(4), Label::new(9).unwrap()),
        ];
        let mut rt = Runtime::new(&g, agents, RunConfig::rendezvous().with_cutoff(100_000));
        rt.set_fault_plan(plan);
        let out = rt.run(&mut RoundRobin::new());
        assert!(
            matches!(
                out.end,
                RunEnd::Meeting | RunEnd::Cutoff | RunEnd::AllCrashed | RunEnd::SurvivorsParked
            ),
            "seed {seed} ended unclassified: {:?}",
            out.end
        );
    }
}

/// A fork composes with an installed plan: taken mid-run before a
/// crash is due, it carries the fault clock, so the fork and the original
/// both meet the crash at the same action and land on the uninterrupted
/// run's outcome.
#[test]
fn fork_replays_faults_deterministically() {
    let uxs = SeededUxs::quadratic();
    let g = generators::ring(6);
    let make = || {
        vec![
            RvBehavior::new(&g, uxs, NodeId(0), Label::new(2).unwrap()),
            RvBehavior::new(&g, uxs, NodeId(3), Label::new(5).unwrap()),
        ]
    };
    let plan = FaultPlan::new(vec![CrashFault {
        at_action: 7,
        agent: 1,
    }]);
    let mut rt = Runtime::new(&g, make(), RunConfig::rendezvous().with_cutoff(CUTOFF));
    rt.set_fault_plan(plan.clone());
    let baseline = rt.run(&mut RoundRobin::new());

    let mut rt = Runtime::new(&g, make(), RunConfig::rendezvous().with_cutoff(CUTOFF));
    rt.set_fault_plan(plan);
    let mut adversary = RoundRobin::new();
    let mut meetings = Vec::new();
    for _ in 0..4 {
        assert_eq!(rt.step(&mut adversary, &mut meetings), None);
    }
    let mut fork = rt.fork();
    let first = fork.run(&mut adversary.clone());
    let replay = rt.run(&mut adversary);
    assert!(
        fork.crashed(1) && rt.crashed(1),
        "the crash fires on both sides of the fork"
    );
    for out in [&first, &replay] {
        assert_eq!(out.end, baseline.end);
        assert_eq!(out.actions, baseline.actions);
        assert_eq!(out.total_traversals, baseline.total_traversals);
        assert_eq!(out.per_agent, baseline.per_agent);
    }
}
