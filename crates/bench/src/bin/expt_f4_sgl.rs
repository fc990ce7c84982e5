//! **Experiment F4** — Algorithm SGL and the four applications
//! (Theorem 4.1, measured).
//!
//! Sweeps team size k ∈ {2, 3, 4, 6} × several graph families and orders ×
//! adversaries, and for every run that quiesces verifies the full
//! postcondition:
//!
//! * every agent outputs the complete label set (and all values — gossip),
//! * derived team size / leader / renaming are consistent and correct,
//! * the post-hoc check behind the completion-threshold substitution
//!   (see the `rv_protocols` crate docs): when the minimal agent finished Phase 2, no traveller
//!   or dormant agent remained (verified here by the protocol having
//!   terminated with every agent outputting).
//!
//! Runs that hit the traversal cutoff are **reported distinctly** (a
//! `cutoff` entry in the table instead of a cost) rather than treated as
//! failures — a cutoff says "slow under this budget", not "the protocol is
//! stuck". The experiment exits nonzero only on *genuine* non-quiescence:
//! a run that parked every agent without delivering the postcondition
//! (wrong or missing outputs, inconsistent renaming).
//!
//! Reports total cost (all agents' traversals) vs n and k, with log-log
//! slopes. Paper claim: cost polynomial in n and in the smallest label's
//! length (the absolute values here reflect the simulator's quadratic
//! exploration sequences, not the paper's galactic worst case).

use rv_bench::{loglog_slope, median, print_table};
use rv_core::Label;
use rv_explore::SeededUxs;
use rv_graph::{GraphFamily, NodeId};
use rv_protocols::{solve, SglBehavior, SglConfig};
use rv_sim::adversary::AdversaryKind;
use rv_sim::{RunConfig, RunEnd, Runtime};

/// Traversal budget per run.
const CUTOFF: u64 = 80_000_000;

/// One SGL run's reportable result.
enum SglRun {
    /// Quiesced with the postcondition verified; carries the total cost.
    Quiesced(u64),
    /// Hit the traversal cutoff — slow under this budget, not failed.
    Cutoff,
}

fn main() {
    let uxs = SeededUxs::quadratic();
    let mut failures: Vec<String> = Vec::new();
    let mut cutoffs = 0usize;

    // Cost vs n at k = 2 and k = 4, per family.
    let ns = [5usize, 6, 8, 10];
    let mut rows = Vec::new();
    for fam in [GraphFamily::Ring, GraphFamily::RandomTree, GraphFamily::Gnp] {
        for k in [2usize, 4] {
            let mut curve = Vec::new();
            let mut censored = false;
            let mut row = vec![fam.to_string(), k.to_string()];
            for &n in &ns {
                let mut costs = Vec::new();
                let mut cut = 0usize;
                for seed in 0..3u64 {
                    match run_sgl(fam, n, k, AdversaryKind::Random, seed, uxs, &mut failures) {
                        SglRun::Quiesced(cost) => costs.push(cost),
                        SglRun::Cutoff => cut += 1,
                    }
                }
                cutoffs += cut;
                if costs.is_empty() {
                    censored = true;
                    row.push(format!("cutoff(>{CUTOFF})"));
                } else {
                    let med = median(&costs);
                    if cut == 0 {
                        // Only uncensored points enter the slope fit: a
                        // median over the surviving (cheap) seeds would
                        // bias the slope low — exactly the direction that
                        // hides super-polynomial growth.
                        curve.push((n as f64, med as f64));
                    } else {
                        censored = true;
                    }
                    row.push(if cut > 0 {
                        format!("{med}*") // asterisk: some seeds hit cutoff
                    } else {
                        med.to_string()
                    });
                }
            }
            row.push(if curve.len() < 2 {
                "n/a".to_string()
            } else if censored {
                // The fit skipped censored points; flag it.
                format!("{:.2}*", loglog_slope(&curve))
            } else {
                format!("{:.2}", loglog_slope(&curve))
            });
            rows.push(row);
        }
    }
    print_table(
        "F4a — SGL total cost vs n (random adversary, median of 3 seeds)",
        &["family", "k", "n=5", "n=6", "n=8", "n=10", "slope"],
        &rows,
    );

    // Cost vs team size on a fixed graph.
    let mut rows = Vec::new();
    for kind in [
        AdversaryKind::Random,
        AdversaryKind::EagerMeet,
        AdversaryKind::LazyFirst,
    ] {
        let mut row = vec![kind.to_string()];
        for k in [2usize, 3, 4, 6] {
            let mut costs = Vec::new();
            let mut cut = 0usize;
            for seed in 0..3u64 {
                match run_sgl(GraphFamily::Ring, 8, k, kind, seed, uxs, &mut failures) {
                    SglRun::Quiesced(cost) => costs.push(cost),
                    SglRun::Cutoff => cut += 1,
                }
            }
            cutoffs += cut;
            row.push(if costs.is_empty() {
                format!("cutoff(>{CUTOFF})")
            } else if cut > 0 {
                format!("{}*", median(&costs))
            } else {
                median(&costs).to_string()
            });
        }
        rows.push(row);
    }
    print_table(
        "F4b — SGL total cost vs team size k (ring(8))",
        &["adversary", "k=2", "k=3", "k=4", "k=6"],
        &rows,
    );
    if cutoffs > 0 {
        println!(
            "\n{cutoffs} run(s) hit the {CUTOFF}-traversal cutoff (reported as \
             `cutoff`/`*` above) — slow under this budget, not non-quiescent"
        );
    }
    if failures.is_empty() {
        println!(
            "\nevery quiesced run verified: all agents output the full label set, \
             gossip values correct,\nrenaming a bijection onto 1..k, leader = min \
             label, team size = k"
        );
    } else {
        eprintln!("\nGENUINE NON-QUIESCENCE — postcondition violations:");
        for f in &failures {
            eprintln!("  {f}");
        }
        std::process::exit(1);
    }
}

/// Runs one SGL instance until quiescence or cutoff. Quiesced runs have
/// Theorem 4.1's postcondition verified; any violation is recorded in
/// `failures` (genuine non-quiescence: the protocol parked without
/// delivering). Cutoff runs are reported as [`SglRun::Cutoff`].
fn run_sgl(
    fam: GraphFamily,
    n: usize,
    k: usize,
    kind: AdversaryKind,
    seed: u64,
    uxs: SeededUxs,
    failures: &mut Vec<String>,
) -> SglRun {
    let g = fam.generate(n, seed * 97 + 13);
    let labels: Vec<u64> = (0..k).map(|i| (seed + 2) * 3 + 7 * i as u64 + 1).collect();
    let agents: Vec<_> = labels
        .iter()
        .enumerate()
        .map(|(i, &l)| {
            SglBehavior::new(
                &g,
                uxs,
                NodeId(i * g.order() / k),
                Label::new(l).unwrap(),
                l + 1000,
                SglConfig::default(),
            )
        })
        .collect();
    let mut rt = Runtime::new(&g, agents, RunConfig::protocol().with_cutoff(CUTOFF));
    let mut adv = kind.build(seed);
    let out = rt.run(adv.as_mut());
    let instance = format!("{fam} n={n} k={k} {kind} seed={seed}");
    match out.end {
        RunEnd::Cutoff => return SglRun::Cutoff,
        RunEnd::AllParked => {}
        RunEnd::Meeting => unreachable!("protocol runs do not stop at meetings"),
        RunEnd::Diverged | RunEnd::Stalled => {
            unreachable!("plain run() never ends with a detector verdict")
        }
        RunEnd::AllCrashed | RunEnd::SurvivorsParked => {
            unreachable!("no fault plan is installed in this experiment")
        }
    }

    // Quiesced: verify the postcondition; violations are genuine
    // failures. The core (complete outputs, gossip values, minimal agent
    // met every teammate via the meeting-log views) is the shared
    // [`rv_bench::sgl_postcondition_violations`] — the same check behind
    // the scenario matrix's `complete` column — and the `solve`-derived
    // application consistency checks layer on top.
    let mut fail = |msg: String| failures.push(format!("{instance}: {msg}"));
    for msg in rv_bench::sgl_postcondition_violations(&rt, &labels, |l| l + 1000) {
        fail(msg);
    }
    let mut expected = labels.clone();
    expected.sort_unstable();
    let mut names = Vec::new();
    for i in 0..rt.agent_count() {
        let b = rt.behavior(i);
        let Some(set) = b.output() else { continue };
        let s = solve(b.label().value(), set);
        if s.team_size != k {
            fail(format!("agent {i} derived team size {}", s.team_size));
        }
        if s.leader != expected[0] {
            fail(format!("agent {i} elected leader {}", s.leader));
        }
        names.push(s.new_name);
    }
    names.sort_unstable();
    if names != (1..=k).collect::<Vec<_>>() {
        fail(format!("renaming not a bijection onto 1..{k}: {names:?}"));
    }
    SglRun::Quiesced(out.total_traversals)
}
