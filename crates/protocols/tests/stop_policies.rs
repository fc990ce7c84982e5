//! Stop policies over protocol (SGL) runs: certificate-enabled runs
//! retire the three former outlier cells as *certified quiescent* well
//! under budget, the certificate-free ablation shows what each cell costs
//! without it (the structural stall detector fires where a mid-edge
//! suspension exists, and honestly reads `Cutoff` where none does),
//! detector-enabled runs are bit-identical to plain runs on converging
//! cells, and the rendezvous-order cells are affordable.
//!
//! The three "outlier" cells (`tree8/lazy(1)/sgl-k3`,
//! `tree8/greedy-avoid/sgl-k3`, `gnp8/greedy-avoid/sgl-k4`) were long
//! suspected to be Phase-3 token-seek stalls; the dedicated trace
//! (`docs/STALL_TRACE.md`) refuted that — they are **Phase-1 ESST
//! blowups**: the adversary legally pins the token ghost at one position
//! forever (parked at a node in the lazy cell, suspended strictly inside
//! an edge in the greedy-avoid cells), so the explorer's last ESST phase
//! inflates ~12× past its nominal length. The suspended-token census
//! turns that pinning into a positive termination certificate.

use rv_core::Label;
use rv_explore::SeededUxs;
use rv_graph::{GraphFamily, NodeId};
use rv_protocols::{SglBehavior, SglConfig};
use rv_sim::adversary::AdversaryKind;
use rv_sim::{AdaptiveThreshold, RunConfig, RunEnd, RunOutcome, Runtime};

/// Matrix constants: graph seed, adversary seed, SGL labels.
const GRAPH_SEED: u64 = 5;
const ADVERSARY_SEED: u64 = 3;
const SGL_LABELS: [u64; 4] = [6, 9, 14, 21];

struct CellReport {
    out: RunOutcome,
    outputs: Vec<bool>,
    certified: Vec<bool>,
}

fn run_cell_with(
    family: GraphFamily,
    n: usize,
    k: usize,
    kind: AdversaryKind,
    cutoff: u64,
    policy: Option<&mut dyn rv_sim::StopPolicy>,
    config: SglConfig,
) -> CellReport {
    let uxs = SeededUxs::quadratic();
    let g = family.generate(n, GRAPH_SEED);
    let behaviors: Vec<_> = SGL_LABELS[..k]
        .iter()
        .enumerate()
        .map(|(i, &l)| {
            SglBehavior::new(
                &g,
                uxs,
                NodeId(i * g.order() / k),
                Label::new(l).unwrap(),
                l + 1000,
                config,
            )
        })
        .collect();
    let mut rt = Runtime::new(&g, behaviors, RunConfig::protocol().with_cutoff(cutoff));
    let mut adv = kind.build(ADVERSARY_SEED);
    let out = match policy {
        Some(p) => rt.run_with_policy(adv.as_mut(), p),
        None => rt.run(adv.as_mut()),
    };
    let outputs = (0..rt.agent_count())
        .map(|i| rt.behavior(i).output().is_some())
        .collect();
    let certified = (0..rt.agent_count())
        .map(|i| rt.behavior(i).certificate().is_some())
        .collect();
    CellReport {
        out,
        outputs,
        certified,
    }
}

fn run_cell(
    family: GraphFamily,
    n: usize,
    k: usize,
    kind: AdversaryKind,
    cutoff: u64,
    policy: Option<&mut dyn rv_sim::StopPolicy>,
) -> (RunOutcome, Vec<bool>) {
    let r = run_cell_with(family, n, k, kind, cutoff, policy, SglConfig::default());
    (r.out, r.outputs)
}

/// The certificate-free configuration used by the ablation legs.
fn nocert() -> SglConfig {
    SglConfig {
        suspension: None,
        ..SglConfig::default()
    }
}

/// With the suspended-token census on (the default), the three former
/// outlier cells end *certified quiescent* — `AllParked`, every agent
/// outputs, pairwise completeness holds — several-fold under the
/// 2.5M-traversal budget they used to burn to `Stalled`/`Cutoff`.
#[test]
fn outlier_cells_end_certified_quiescent_under_budget() {
    let outliers = [
        (GraphFamily::RandomTree, 3, AdversaryKind::LazySecond),
        (GraphFamily::RandomTree, 3, AdversaryKind::GreedyAvoid),
        (GraphFamily::Gnp, 4, AdversaryKind::GreedyAvoid),
    ];
    for (family, k, kind) in outliers {
        let r = run_cell_with(family, 8, k, kind, 2_500_000, None, SglConfig::default());
        assert_eq!(
            r.out.end,
            RunEnd::AllParked,
            "{family}(8)/{kind}/k{k} must quiesce"
        );
        assert!(
            r.out.total_traversals < 500_000,
            "{family}(8)/{kind}/k{k} must retire several-fold under budget (got {})",
            r.out.total_traversals
        );
        assert!(
            r.certified.iter().any(|&c| c),
            "{family}(8)/{kind}/k{k}: some explorer must hold a certificate"
        );
        assert!(
            r.outputs.iter().all(|&o| o),
            "{family}(8)/{kind}/k{k}: every agent must output"
        );
        assert!(
            (1..r.outputs.len()).all(|j| r.out.meetings.pair_met(0, j)),
            "{family}(8)/{kind}/k{k}: the minimal agent must have met every teammate"
        );
    }
}

/// The certificate-free ablation, under the structural stall detector:
/// the two cells whose token is suspended *strictly inside an edge* are
/// classified `Stalled` (the detector's hold conjunct is satisfied by a
/// genuine multi-million-action suspension), while the lazy cell — whose
/// token is merely parked at a node, with no agent mid-edge — honestly
/// burns the budget to `Cutoff` instead of being mislabelled.
#[test]
fn ablation_separates_suspension_stalls_from_slow_cells() {
    for (family, k, kind, held_floor) in [
        (
            GraphFamily::RandomTree,
            3,
            AdversaryKind::GreedyAvoid,
            2_000_000,
        ),
        (GraphFamily::Gnp, 4, AdversaryKind::GreedyAvoid, 2_000_000),
    ] {
        let mut policy = AdaptiveThreshold::default();
        let r = run_cell_with(family, 8, k, kind, 2_500_000, Some(&mut policy), nocert());
        assert_eq!(
            r.out.end,
            RunEnd::Stalled,
            "{family}(8)/{kind}/k{k}+nocert must be classified Stalled"
        );
        let report = policy
            .suspension()
            .expect("a Stalled verdict must carry its suspension evidence");
        assert!(
            report.held_actions >= held_floor,
            "{family}(8)/{kind}/k{k}+nocert: suspect held only {} actions",
            report.held_actions
        );
    }
    let mut policy = AdaptiveThreshold::default();
    let r = run_cell_with(
        GraphFamily::RandomTree,
        8,
        3,
        AdversaryKind::LazySecond,
        2_500_000,
        Some(&mut policy),
        nocert(),
    );
    assert_eq!(
        r.out.end,
        RunEnd::Cutoff,
        "tree(8)/lazy(1)/k3+nocert has no mid-edge suspension: must read Cutoff"
    );
}

/// On a converging cell the stall detector is invisible: same end, same
/// cost, same action count, same meeting log, same outputs as a plain
/// `run()` — including under the adversary the outliers stall under.
#[test]
fn adaptive_policy_is_invisible_on_converging_cells() {
    for (family, n, k, kind) in [
        (GraphFamily::Ring, 6, 2, AdversaryKind::GreedyAvoid),
        (GraphFamily::RandomTree, 8, 2, AdversaryKind::GreedyAvoid),
    ] {
        let (plain, plain_outputs) = run_cell(family, n, k, kind, 30_000_000, None);
        assert_eq!(plain.end, RunEnd::AllParked, "{family}({n})/{kind}");
        let mut policy = AdaptiveThreshold::default();
        let (detected, detected_outputs) =
            run_cell(family, n, k, kind, 30_000_000, Some(&mut policy));
        assert_eq!(plain.end, detected.end);
        assert_eq!(plain.total_traversals, detected.total_traversals);
        assert_eq!(plain.actions, detected.actions);
        assert_eq!(plain.meetings, detected.meetings);
        assert_eq!(plain_outputs, detected_outputs);
    }
}

/// A rendezvous-order protocol cell quiesces under the adaptive policy —
/// the affordability the large matrix sub-table rests on. (ring(16)
/// completes too, certified at ≈ 0.8M traversals where it used to need
/// ≈ 17.8M; the matrix covers it, this test keeps the suite's wall-clock
/// at the ring(12) scale.)
#[test]
fn order_12_cell_quiesces_under_the_adaptive_policy() {
    let mut policy = AdaptiveThreshold::default();
    let (out, outputs) = run_cell(
        GraphFamily::Ring,
        12,
        2,
        AdversaryKind::RoundRobin,
        50_000_000,
        Some(&mut policy),
    );
    assert_eq!(out.end, RunEnd::AllParked, "ring(12) must quiesce");
    assert!(outputs.iter().all(|&o| o), "every agent must output");
    // The post-hoc completeness check, via the meeting log's per-agent
    // views: the minimal agent (index 0, label 6) met every teammate.
    assert!(
        (1..outputs.len()).all(|j| out.meetings.pair_met(0, j)),
        "the minimal agent must have met every teammate"
    );
}
