//! `minimax_search`: the memoized, symmetry-quotiented worst-case search
//! in both of its real callers' configurations.
//!
//! The input set is the scenario matrix's five minimax cells, called the
//! way `scenario_matrix` calls them (one worker, the family's automorphism
//! group), and F5c's `exhaustive_worst_case(path(3), 12)`, called the way
//! `expt_f5_adversaries` calls it (default options: a pool sized to the
//! core count, identity group). The six searches are repeated
//! [`REPEATS`] times in seeded order for enough samples. This is the only
//! workload where the memo, the transposition table and apply/undo work,
//! and the only one a change to the default worker count shows on.

#![allow(clippy::disallowed_methods)] // Timing harness: wall-clock is the product here.

use crate::trace::{self, Counter, Span};
use crate::{stats, Ctx, Pass, RunRecord, Sig, Workload};
use rv_bench::cells::MINIMAX_CELLS;
use rv_core::Label;
use rv_explore::SeededUxs;
use rv_graph::{Automorphisms, Graph, GraphFamily, NodeId};
use rv_sim::{search_worst_case, RvBehavior, SearchOptions};
use std::time::Instant;

/// Times each search runs per pass.
pub const REPEATS: usize = 100;

/// One search of the input set and the result it must reproduce.
struct Search {
    graph: Graph,
    /// The family's verified group (`None`: identity, default options).
    group: Option<Automorphisms>,
    depth: usize,
    /// `(worst meeting cost, leaves)` — the matrix rows' `cost` and
    /// `traversals`, and F5c's printed result.
    expect: (u64, u64),
    /// `(tt_hits, tt_entries)` of the one-worker searches (deterministic).
    expect_tt: Option<(u64, u64)>,
}

/// Expected `(cost, leaves, tt_hits, tt_entries)` of the matrix's minimax
/// cells, in [`MINIMAX_CELLS`] order.
const MATRIX_ROWS: [(u64, u64, u64, u64); 5] = [
    (4, 724, 25, 38),
    (4, 2236, 36, 49),
    (2, 196, 15, 26),
    (2, 2836, 42, 53),
    (6, 11284, 63, 78),
];

/// The workload's inputs: six searches and the seeded call order.
pub struct Minimax {
    searches: Vec<Search>,
    order: Vec<usize>,
}

impl Workload for Minimax {
    fn setup(seed: u64, _ctx: &Ctx) -> Result<Self, String> {
        let mut searches = Vec::new();
        for ((family, _, n, depth), row) in MINIMAX_CELLS.into_iter().zip(MATRIX_ROWS) {
            // The matrix's raw generators: `GraphFamily::generate` floors
            // the order at 4, and path(3) sits below it.
            let graph = trace::span(Span::GraphGenerate, || match family {
                GraphFamily::Path => rv_graph::generators::path(n),
                _ => rv_graph::generators::ring(n),
            });
            let group = trace::span(Span::GraphAutomorphisms, || family.automorphisms(&graph));
            searches.push(Search {
                graph,
                group: Some(group),
                depth,
                expect: (row.0, row.1),
                expect_tt: Some((row.2, row.3)),
            });
        }
        searches.push(Search {
            graph: trace::span(Span::GraphGenerate, || rv_graph::generators::path(3)),
            group: None,
            depth: 12,
            expect: (4, 2236),
            expect_tt: None,
        });
        let mut order: Vec<usize> = (0..REPEATS * searches.len())
            .map(|i| i % searches.len())
            .collect();
        stats::shuffle(&mut order, seed);
        Ok(Minimax { searches, order })
    }

    fn pass(&mut self, traced: bool) -> Result<Pass, String> {
        let uxs = SeededUxs::quadratic();
        let start = Instant::now();
        let mut records = Vec::with_capacity(self.order.len());
        for &i in &self.order {
            let s = &self.searches[i];
            let g = &s.graph;
            let opts = match &s.group {
                Some(group) => SearchOptions {
                    workers: Some(1),
                    memo: true,
                    automorphisms: Some(group),
                },
                None => SearchOptions::default(),
            };
            let make = || {
                vec![
                    RvBehavior::new(g, uxs, NodeId(0), Label::new(1).expect("label 1")),
                    RvBehavior::new(g, uxs, NodeId(2), Label::new(2).expect("label 2")),
                ]
            };
            let t = Instant::now();
            let report = trace::span(Span::MinimaxSearch, || {
                search_worst_case(g, make, s.depth, &opts)
            });
            let ns = t.elapsed().as_nanos() as f64;
            let worst = report.worst.max_meeting_cost.unwrap_or(0);
            let leaves = report.worst.schedules_explored;
            let memo = report.memo.unwrap_or_default();
            if traced {
                let workers = opts
                    .workers
                    .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()));
                trace::add(Counter::MinimaxLeaves, leaves);
                trace::raise(Counter::MinimaxWorkers, workers as u64);
                trace::add(Counter::MemoProbes, memo.probes);
                trace::add(Counter::MemoHits, memo.hits);
                trace::add(Counter::MemoEntries, memo.entries);
            }
            let tt_ok = s
                .expect_tt
                .is_none_or(|tt| report.memo.is_some() && tt == (memo.hits, memo.entries));
            records.push(RunRecord {
                ns,
                cost: worst,
                sig: Sig {
                    end: "Searched".to_string(),
                    traversals: leaves,
                    actions: s.depth as u64,
                    meetings: worst,
                },
                ok: (worst, leaves) == s.expect && tt_ok,
            });
        }
        Ok(Pass {
            wall_ns: start.elapsed().as_nanos() as f64,
            runs: records,
        })
    }
}
