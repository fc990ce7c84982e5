//! `rendezvous_sweep`: two-agent RV-asynch-poly runs to the first meeting
//! under `DivergenceDetector`, as the scenario matrix runs them.
//!
//! The input set is the F1 grid (every graph family × orders 6–24 × four
//! adversaries × three label pairs × six repetitions), F2b's large-label
//! runs on `hypercube(2)` (labels up to 2^48 − 1), and the matrix's 18
//! `unscaled` ablation cells, which the detector retires as `Diverged`.
//! Graph and adversary seeds are fixed; the workload seed only orders the
//! runs, so the simulated cost is the same for every seed. A median run is a few dozen traversals, so agent
//! construction and `Runtime::new` dominate; SGL, ESST, minimax and the
//! store do no work here.

#![allow(clippy::disallowed_methods)] // Timing harness: wall-clock is the product here.

use crate::timed::{run_traced, Timed};
use crate::trace::{self, Counter, Span};
use crate::{stats, Ctx, Pass, RunRecord, Sig, Workload};
use rv_core::{Label, RvVariant};
use rv_explore::{is_integral, SeededUxs};
use rv_graph::{Graph, GraphFamily, NodeId};
use rv_sim::adversary::AdversaryKind;
use rv_sim::{DivergenceDetector, RunConfig, RunEnd, Runtime, RvBehavior};
use std::time::Instant;

/// Orders of the F1 grid.
const ORDERS: [usize; 6] = [6, 9, 12, 16, 20, 24];
/// Adversaries of the F1 grid.
const ADVERSARIES: [AdversaryKind; 4] = [
    AdversaryKind::Random,
    AdversaryKind::LazyFirst,
    AdversaryKind::GreedyAvoid,
    AdversaryKind::EagerMeet,
];
/// Label pairs of the F1 grid.
const LABEL_PAIRS: [(u64, u64); 3] = [(6, 9), (3, 200), (41, 40)];
/// Repetitions per grid point, each with its own graph and adversary seed.
const REPS: u64 = 6;
/// F2b's label exponents: the smaller label is `2^j − 1`.
const F2B_EXPONENTS: [u32; 5] = [1, 6, 12, 24, 48];
/// F2b's repetitions per label pair, each with its own adversary seed.
const F2B_REPS: u64 = 5;
/// The matrix's 18 `unscaled` cells the divergence detector retires
/// (graph seed 5, labels (6, 9), adversary seed 3).
const DIVERGING: [(GraphFamily, usize, AdversaryKind); 18] = [
    (GraphFamily::Ring, 8, AdversaryKind::LazySecond),
    (GraphFamily::Ring, 12, AdversaryKind::LazySecond),
    (GraphFamily::Ring, 12, AdversaryKind::GreedyAvoid),
    (GraphFamily::Ring, 16, AdversaryKind::RoundRobin),
    (GraphFamily::Ring, 16, AdversaryKind::LazySecond),
    (GraphFamily::Ring, 16, AdversaryKind::GreedyAvoid),
    (GraphFamily::Ring, 16, AdversaryKind::EagerMeet),
    (GraphFamily::Path, 8, AdversaryKind::LazySecond),
    (GraphFamily::Path, 12, AdversaryKind::LazySecond),
    (GraphFamily::Path, 12, AdversaryKind::GreedyAvoid),
    (GraphFamily::Path, 16, AdversaryKind::RoundRobin),
    (GraphFamily::Path, 16, AdversaryKind::LazySecond),
    (GraphFamily::Path, 16, AdversaryKind::GreedyAvoid),
    (GraphFamily::Path, 16, AdversaryKind::EagerMeet),
    (GraphFamily::RandomTree, 16, AdversaryKind::RoundRobin),
    (GraphFamily::RandomTree, 16, AdversaryKind::LazySecond),
    (GraphFamily::RandomTree, 16, AdversaryKind::GreedyAvoid),
    (GraphFamily::RandomTree, 16, AdversaryKind::EagerMeet),
];
/// The matrix's rendezvous traversal budget.
const CUTOFF: u64 = 100_000;
/// Derives every graph and adversary seed of the input set. It is fixed,
/// so the input set, and with it `cost_traversals`, is the same for every
/// workload seed; the workload seed only orders the runs.
const GRID_SEED: u64 = 0xF1;

/// One rendezvous run of the input set.
#[derive(Clone, Copy, Debug)]
struct RvRun {
    graph: usize,
    labels: (u64, u64),
    adversary: AdversaryKind,
    adversary_seed: u64,
    variant: RvVariant,
    expect: RunEnd,
}

/// The workload's inputs: the graphs and the runs, in seeded order.
pub struct Rendezvous {
    graphs: Vec<Graph>,
    runs: Vec<RvRun>,
}

fn generate(family: GraphFamily, n: usize, seed: u64) -> Graph {
    trace::span(Span::GraphGenerate, || family.generate(n, seed))
}

impl Workload for Rendezvous {
    fn setup(seed: u64, _ctx: &Ctx) -> Result<Self, String> {
        let uxs = SeededUxs::quadratic();
        let mut graphs = Vec::new();
        let mut runs = Vec::new();
        let paper = RvVariant::default();
        for family in GraphFamily::ALL {
            for n in ORDERS {
                for _ in 0..REPS {
                    let gseed = stats::mix(GRID_SEED, graphs.len() as u64);
                    let g = generate(family, n, gseed);
                    // The substitution contract: the exploration sequences
                    // must be integral on every generated graph.
                    if !is_integral(&g, uxs, g.order() as u64, NodeId(0)) {
                        return Err(format!(
                            "{family} n={n} (graph seed {gseed}): provider not integral"
                        ));
                    }
                    graphs.push(g);
                    for adversary in ADVERSARIES {
                        for labels in LABEL_PAIRS {
                            runs.push(RvRun {
                                graph: graphs.len() - 1,
                                labels,
                                adversary,
                                adversary_seed: stats::mix(!GRID_SEED, runs.len() as u64),
                                variant: paper,
                                expect: RunEnd::Meeting,
                            });
                        }
                    }
                }
            }
        }
        graphs.push(trace::span(Span::GraphGenerate, || {
            rv_graph::generators::hypercube(2)
        }));
        for j in F2B_EXPONENTS {
            for rep in 0..F2B_REPS {
                let small = (1u64 << j) - 1;
                runs.push(RvRun {
                    graph: graphs.len() - 1,
                    labels: (small, small + 1),
                    adversary: AdversaryKind::Random,
                    adversary_seed: stats::mix(GRID_SEED ^ 0xF2B, u64::from(j) * 16 + rep),
                    variant: paper,
                    expect: RunEnd::Meeting,
                });
            }
        }
        let unscaled = RvVariant {
            scaled_params: false,
            ..paper
        };
        for (family, n, adversary) in DIVERGING {
            graphs.push(generate(family, n, rv_bench::cells::GRAPH_SEED));
            runs.push(RvRun {
                graph: graphs.len() - 1,
                labels: rv_bench::cells::LABELS,
                adversary,
                adversary_seed: rv_bench::cells::ADVERSARY_SEED,
                variant: unscaled,
                expect: RunEnd::Diverged,
            });
        }
        stats::shuffle(&mut runs, seed);
        Ok(Rendezvous { graphs, runs })
    }

    fn pass(&mut self, traced: bool) -> Result<Pass, String> {
        let uxs = SeededUxs::quadratic();
        let start = Instant::now();
        let mut records = Vec::with_capacity(self.runs.len());
        for run in &self.runs {
            let g = &self.graphs[run.graph];
            let starts = [NodeId(0), NodeId(g.order() / 2)];
            let labels = [run.labels.0, run.labels.1];
            let make = |i: usize| {
                let label = Label::new(labels[i]).expect("benchmark labels are positive");
                RvBehavior::with_variant(g, uxs, starts[i], label, run.variant)
            };
            let config = RunConfig::rendezvous().with_cutoff(CUTOFF);
            let t = Instant::now();
            let out = if traced {
                let agents: Vec<_> = (0..2)
                    .map(|i| trace::span(Span::BehaviorNew, || Timed(make(i))))
                    .collect();
                let mut rt = trace::span(Span::RuntimeNew, || Runtime::new(g, agents, config));
                let mut adversary = Timed(run.adversary.build(run.adversary_seed));
                let mut policy = Timed(DivergenceDetector::default());
                let out = run_traced(&mut rt, config, &mut adversary, &mut policy);
                trace::add(Counter::Traversals, out.total_traversals);
                trace::add(Counter::Meetings, out.meetings.len() as u64);
                out
            } else {
                let agents = vec![make(0), make(1)];
                let mut rt = Runtime::new(g, agents, config);
                let mut adversary = run.adversary.build(run.adversary_seed);
                let mut policy = DivergenceDetector::default();
                rt.run_with_policy(adversary.as_mut(), &mut policy)
            };
            let ns = t.elapsed().as_nanos() as f64;
            records.push(RunRecord {
                ns,
                cost: out.total_traversals,
                sig: Sig::of(&out),
                ok: out.end == run.expect,
            });
        }
        Ok(Pass {
            wall_ns: start.elapsed().as_nanos() as f64,
            runs: records,
        })
    }
}
