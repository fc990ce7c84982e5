//! Protocol runs under crash-stop faults: Algorithm SGL must **never
//! hang** when teammates crash — every run ends classified (quiesced
//! among survivors, a detector verdict, or the cutoff backstop).
//!
//! The paper's model has no failures; crash-stop is the robustness
//! harness's addition (see `rv_sim::fault`), so these tests pin the
//! simulator contract, not a theorem: with a crashed teammate the
//! protocol may stall (the survivors keep searching for a label that
//! will never finish its sweep) but the run loop and the stop-policy
//! layer must convert that into a verdict, not a wedge.

use rv_core::Label;
use rv_explore::SeededUxs;
use rv_graph::{generators, NodeId};
use rv_protocols::{SglBehavior, SglConfig};
use rv_sim::adversary::AdversaryKind;
use rv_sim::{AdaptiveThreshold, CrashFault, FaultPlan, RunConfig, RunEnd, Runtime};

/// Traversal backstop: generous enough for a clean k=3 SGL run on
/// ring(8), tight enough that a wedged run fails the suite quickly.
const CUTOFF: u64 = 20_000_000;

fn run_crashed_sgl(victim: usize, at_action: u64, kind: AdversaryKind, seed: u64) -> RunEnd {
    let g = generators::ring(8);
    let labels = [5u64, 2, 11];
    let agents: Vec<_> = labels
        .iter()
        .enumerate()
        .map(|(i, &l)| {
            SglBehavior::new(
                &g,
                SeededUxs::quadratic(),
                NodeId(i * g.order() / labels.len()),
                Label::new(l).unwrap(),
                l * 10,
                SglConfig::default(),
            )
        })
        .collect();
    let mut rt = Runtime::new(&g, agents, RunConfig::protocol().with_cutoff(CUTOFF));
    rt.set_fault_plan(FaultPlan::new(vec![CrashFault {
        at_action,
        agent: victim,
    }]));
    let mut adv = kind.build(seed);
    // The scenario matrix's protocol detector, with a tighter stall
    // window so a stalled-by-crash run is classified in test time; the
    // config budget backstops it.
    let mut policy = AdaptiveThreshold::new(200_000, 4);
    let out = rt.run_with_policy(adv.as_mut(), &mut policy);
    assert!(
        rt.crashed(victim),
        "victim {victim} should be crashed by the end ({:?})",
        out.end
    );
    out.end
}

/// Crashing any team member — including the minimal-label agent, which
/// holds the SGL token role — at wake-up time or mid-protocol always
/// terminates with a classified end. (Which end depends on when the
/// crash lands relative to the survivors' sweeps; "not hanging, and
/// named" is the contract.)
#[test]
fn sgl_with_a_crashed_teammate_terminates_classified() {
    for victim in 0..3usize {
        for at_action in [0u64, 5_000, 200_000] {
            let end = run_crashed_sgl(victim, at_action, AdversaryKind::Random, 11);
            assert!(
                matches!(
                    end,
                    RunEnd::AllParked
                        | RunEnd::SurvivorsParked
                        | RunEnd::Stalled
                        | RunEnd::Diverged
                        | RunEnd::Cutoff
                ),
                "victim {victim} at {at_action}: unclassified end {end:?}"
            );
        }
    }
}

/// Crashing the whole team classifies `AllCrashed` without burning the
/// traversal budget.
#[test]
fn sgl_with_all_agents_crashed_ends_all_crashed() {
    let g = generators::ring(8);
    let labels = [5u64, 2, 11];
    let agents: Vec<_> = labels
        .iter()
        .enumerate()
        .map(|(i, &l)| {
            SglBehavior::new(
                &g,
                SeededUxs::quadratic(),
                NodeId(i * g.order() / labels.len()),
                Label::new(l).unwrap(),
                l * 10,
                SglConfig::default(),
            )
        })
        .collect();
    let mut rt = Runtime::new(&g, agents, RunConfig::protocol().with_cutoff(CUTOFF));
    rt.set_fault_plan(FaultPlan::new(
        (0..3)
            .map(|agent| CrashFault {
                at_action: 100,
                agent,
            })
            .collect(),
    ));
    let mut adv = AdversaryKind::Random.build(7);
    let out = rt.run(adv.as_mut());
    assert_eq!(out.end, RunEnd::AllCrashed);
    assert!(out.actions <= 101, "crashes land at the scheduled action");
}
