//! Probe: piece-number growth across all rendezvous matrix cells.
//!
//! For every rendezvous cell of the scenario matrix, runs to the 100k
//! cutoff (or the first meeting) while tracking the agents' piece numbers,
//! and prints: end, cost, max piece reached, and — for cells that hit the
//! cutoff — the cost at which each piece number was first entered. Used to
//! calibrate the divergence detector's piece threshold.

use rv_bench::cells::{cells, CellKind, CUTOFF};
use rv_sim::RunEnd;

fn main() {
    let mut max_converging_piece = 0u64;
    for spec in cells() {
        if !matches!(spec.kind, CellKind::Rendezvous { .. }) {
            continue;
        }
        let g = spec.graph();
        let mut run = spec.open_rendezvous(&g, CUTOFF);
        let mut piece_entry_costs: Vec<(u64, u64)> = Vec::new(); // (piece, cost)
        let mut last_piece = 0u64;
        let end = run.step_through(|rt| {
            let p = rt.behavior(0).piece().max(rt.behavior(1).piece());
            if p > last_piece {
                piece_entry_costs.push((p, rt.total_traversals()));
                last_piece = p;
            }
        });
        let (scenario, cost) = (spec.scenario_id(), run.rt.total_traversals());
        if end == RunEnd::Cutoff {
            println!("DIVERGED {scenario}: cost={cost} pieces={piece_entry_costs:?}");
        } else {
            max_converging_piece = max_converging_piece.max(last_piece);
            println!("{end:?} {scenario}: cost={cost} max_piece={last_piece}");
        }
    }
    println!("\nmax piece over all converging cells: {max_converging_piece}");
}
