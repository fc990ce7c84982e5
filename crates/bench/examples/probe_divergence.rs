//! Probe: piece-number growth across all rendezvous matrix cells.
//!
//! For every rendezvous cell of the scenario matrix, runs to the 100k
//! cutoff (or the first meeting) while tracking the agents' piece numbers,
//! and prints: end, cost, max piece reached, and — for cells that hit the
//! cutoff — the cost at which each piece number was first entered. Used to
//! calibrate the divergence detector's piece threshold.

use rv_bench::cells::{
    variants, ADVERSARIES, ADVERSARY_SEED, CUTOFF, FAMILIES, GRAPH_SEED, LABELS, SIZES,
};
use rv_core::Label;
use rv_explore::SeededUxs;
use rv_graph::NodeId;
use rv_sim::{RunConfig, RunEnd, Runtime, RvBehavior};

fn main() {
    let uxs = SeededUxs::quadratic();
    let mut max_converging_piece = 0u64;
    for (family, fname) in FAMILIES {
        for n in SIZES {
            for adversary in ADVERSARIES {
                for (vname, variant) in variants() {
                    let g = family.generate(n, GRAPH_SEED);
                    let agents = vec![
                        RvBehavior::with_variant(
                            &g,
                            uxs,
                            NodeId(0),
                            Label::new(LABELS.0).unwrap(),
                            variant,
                        ),
                        RvBehavior::with_variant(
                            &g,
                            uxs,
                            NodeId(g.order() / 2),
                            Label::new(LABELS.1).unwrap(),
                            variant,
                        ),
                    ];
                    let mut rt =
                        Runtime::new(&g, agents, RunConfig::rendezvous().with_cutoff(CUTOFF));
                    let mut adv = adversary.build(ADVERSARY_SEED);
                    let mut meetings = Vec::new();
                    let mut piece_entry_costs: Vec<(u64, u64)> = Vec::new(); // (piece, cost)
                    let mut last_piece = 0u64;
                    let end = loop {
                        if let Some(end) = rt.step(adv.as_mut(), &mut meetings) {
                            break end;
                        }
                        let p = rt.behavior(0).piece().max(rt.behavior(1).piece());
                        if p > last_piece {
                            piece_entry_costs.push((p, rt.total_traversals()));
                            last_piece = p;
                        }
                    };
                    let scenario = format!("{fname}{n}/{adversary}/{vname}");
                    if end == RunEnd::Cutoff {
                        println!(
                            "DIVERGED {scenario}: cost={} pieces={:?}",
                            rt.total_traversals(),
                            piece_entry_costs
                        );
                    } else {
                        max_converging_piece = max_converging_piece.max(last_piece);
                        println!(
                            "{end:?} {scenario}: cost={} max_piece={last_piece}",
                            rt.total_traversals()
                        );
                    }
                }
            }
        }
    }
    println!("\nmax piece over all converging cells: {max_converging_piece}");
}
