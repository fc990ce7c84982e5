//! `protocol_quiesce`: fault-free SGL cells of the scenario matrix run to
//! quiescence at full budget, under `AdaptiveThreshold` with the
//! suspended-token certificate armed — built exactly as `scenario_matrix`
//! builds them.
//!
//! The slice is stratified over the matrix's fault-free, certified
//! protocol table: one cell per (family, k) for the five families at
//! orders 5–8, and per k for the ring(12)/ring(16) large-order cells. The
//! adversary rotates through all four from stratum to stratum, and the
//! order through 5, 6 and 8 so that every family and every k meets each
//! order. Measured on two `--trials 1` sweeps, the slice's time by family,
//! k, adversary, order and certificate follows the table's within five
//! points (`perfbench/README.md` gives the shares). Protocol cells
//! are almost all of the matrix's time, and their cost per traversal
//! rises with k, so the O(k) layers (legal choices, meeting detection,
//! SGL info merges) do most of the work here. Certificates fire here and
//! nowhere else in the benchmark.
//!
//! A traced pass also replays its cells through a fresh `rv_store::Store`
//! the way `scenario_matrix --store` uses it: cold, then warm. That is
//! where the store's and `CellSpec::content_key`'s layer metrics come
//! from.

#![allow(clippy::disallowed_methods)] // Timing harness: wall-clock is the product here.

use crate::timed::{run_traced, Timed};
use crate::trace::{self, Counter, Span};
use crate::{Ctx, Pass, RunRecord, Sig, Workload};
use rv_bench::cells::{cells, CellKind, CellSpec, ADVERSARY_SEED, SGL_LABELS};
use rv_core::Label;
use rv_explore::SeededUxs;
use rv_graph::{Graph, NodeId};
use rv_protocols::{SglBehavior, SglConfig};
use rv_sim::{AdaptiveThreshold, RunConfig, RunEnd, RunOutcome, Runtime};
use rv_store::{Store, StoreKey, ENGINE_FINGERPRINT};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// The matrix cells of the slice, by scenario id.
pub const SLICE: [&str; 17] = [
    "ring5/round-robin/sgl-k2",
    "ring6/lazy(1)/sgl-k3",
    "ring8/greedy-avoid/sgl-k4",
    "path6/eager-meet/sgl-k2",
    "path8/round-robin/sgl-k3",
    "path5/lazy(1)/sgl-k4",
    "tree8/greedy-avoid/sgl-k2",
    "tree5/eager-meet/sgl-k3",
    "tree6/round-robin/sgl-k4",
    "gnp5/lazy(1)/sgl-k2",
    "gnp6/greedy-avoid/sgl-k3",
    "gnp8/eager-meet/sgl-k4",
    "lollipop6/round-robin/sgl-k2",
    "lollipop8/lazy(1)/sgl-k3",
    "lollipop5/greedy-avoid/sgl-k4",
    "ring16/eager-meet/sgl-k2",
    "ring12/round-robin/sgl-k3",
];

/// The workload's inputs: the slice's cells with their graphs, in the
/// matrix's order. The slice is fixed (its cells' graphs and adversary
/// seeds are the matrix's), so the seed is not used: reordering the cells
/// would only move the allocator's high-water mark.
pub struct Protocol {
    cells: Vec<(CellSpec, Graph)>,
    /// Where traced passes put their replay stores.
    scratch: PathBuf,
}

/// Creates `<base>/<prefix>-<i>` for the first `i` not taken.
fn fresh_dir(base: &Path, prefix: &str) -> Result<PathBuf, String> {
    std::fs::create_dir_all(base).map_err(|e| format!("create {}: {e}", base.display()))?;
    for i in 0.. {
        let dir = base.join(format!("{prefix}-{i}"));
        match std::fs::create_dir(&dir) {
            Ok(()) => return Ok(dir),
            Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => continue,
            Err(e) => return Err(format!("create {}: {e}", dir.display())),
        }
    }
    unreachable!("an unbounded range always yields a free name")
}

/// A cell's row as the replay stores it: the outcome fields the passes
/// compare, keyed by the cell's scenario id.
fn row(spec: &CellSpec, out: &RunOutcome) -> String {
    format!(
        "{{\"scenario\":\"{}\",\"end\":\"{:?}\",\"traversals\":{},\"actions\":{},\"meetings\":{}}}",
        spec.scenario_id(),
        out.end,
        out.total_traversals,
        out.actions,
        out.meetings.len()
    )
}

impl Protocol {
    /// Replays the pass's rows through a fresh store the way
    /// `scenario_matrix --store` uses it — cold: key, miss, append, for
    /// each cell in canonical order; warm: reopen, then key and hit — and
    /// reports whether every row was served back byte for byte.
    fn replay(&self, rows: &[String]) -> Result<bool, String> {
        let dir = fresh_dir(&self.scratch, "replay")?;
        let io = |e: std::io::Error| format!("replay store {}: {e}", dir.display());
        // Keyed as `scenario_matrix --trials 1` keys the full population.
        let key_of = |spec: &CellSpec| StoreKey {
            cell: trace::span(Span::ContentKey, || spec.content_key(1, spec.cutoff(false))),
            engine: ENGINE_FINGERPRINT,
        };
        let mut store = trace::span(Span::StoreOpen, || Store::open(&dir)).map_err(io)?;
        let mut segment = 0;
        for ((spec, _), line) in self.cells.iter().zip(rows) {
            let key = key_of(spec);
            if trace::span(Span::StoreGet, || store.get(key).is_some()) {
                trace::add(Counter::StoreHits, 1);
            }
            trace::span(Span::StoreAppend, || store.append(key, line.as_bytes())).map_err(io)?;
            // Each append rewrites the whole segment: it writes the
            // segment's new size.
            segment = std::fs::metadata(store.segment_path()).map_err(io)?.len();
            trace::add(Counter::StoreBytesWritten, segment);
        }
        drop(store);
        let store = trace::span(Span::StoreOpen, || Store::open(&dir)).map_err(io)?;
        let mut served = 0usize;
        for ((spec, _), line) in self.cells.iter().zip(rows) {
            let key = key_of(spec);
            if trace::span(Span::StoreGet, || store.get(key)) == Some(line.as_bytes()) {
                trace::add(Counter::StoreHits, 1);
                served += 1;
            }
        }
        trace::raise(Counter::StoreSegmentBytes, segment);
        drop(store);
        std::fs::remove_dir_all(&dir).map_err(|e| format!("remove {}: {e}", dir.display()))?;
        Ok(served == rows.len())
    }
}

/// Agent `i` of a cell's SGL team, as `scenario_matrix` builds it.
fn member<'g>(spec: &CellSpec, g: &'g Graph, k: usize, i: usize) -> SglBehavior<'g, SeededUxs> {
    let config = SglConfig {
        suspension: SglConfig::default().suspension.filter(|_| spec.certify()),
        ..SglConfig::default()
    };
    let l = SGL_LABELS[i];
    let label = Label::new(l).expect("SGL labels are positive");
    SglBehavior::new(
        g,
        SeededUxs::quadratic(),
        NodeId(i * g.order() / k),
        label,
        l + 1000,
        config,
    )
}

impl Workload for Protocol {
    fn setup(_seed: u64, ctx: &Ctx) -> Result<Self, String> {
        let slice: Vec<(CellSpec, Graph)> = cells()
            .into_iter()
            .filter(|c| SLICE.contains(&c.scenario_id().as_str()))
            .map(|c| {
                let g = trace::span(Span::GraphGenerate, || c.graph());
                (c, g)
            })
            .collect();
        if slice.len() != SLICE.len() {
            return Err(format!(
                "the matrix declares {} of the {} slice cells",
                slice.len(),
                SLICE.len()
            ));
        }
        Ok(Protocol {
            cells: slice,
            scratch: ctx.scratch.clone(),
        })
    }

    fn pass(&mut self, traced: bool) -> Result<Pass, String> {
        let start = Instant::now();
        let mut records = Vec::with_capacity(self.cells.len());
        let mut rows = Vec::new();
        for (spec, g) in &self.cells {
            let CellKind::Sgl { k, .. } = spec.kind else {
                return Err(format!("{} is not a protocol cell", spec.scenario_id()));
            };
            let config = RunConfig::protocol().with_cutoff(spec.cutoff(false));
            let t = Instant::now();
            let (out, ns, ok) = if traced {
                let agents: Vec<_> = (0..k)
                    .map(|i| trace::span(Span::BehaviorNew, || Timed(member(spec, g, k, i))))
                    .collect();
                let mut rt = trace::span(Span::RuntimeNew, || Runtime::new(g, agents, config));
                let mut adversary = Timed(spec.adversary.build(ADVERSARY_SEED));
                let mut policy = Timed(AdaptiveThreshold::default());
                let out = run_traced(&mut rt, config, &mut adversary, &mut policy);
                let ns = t.elapsed().as_nanos() as f64;
                trace::add(Counter::Traversals, out.total_traversals);
                trace::add(Counter::Meetings, out.meetings.len() as u64);
                rows.push(row(spec, &out));
                // The postcondition is checked on the untraced runs; a
                // traced run must reproduce their signature (see `Tally`).
                (out, ns, true)
            } else {
                let agents = (0..k).map(|i| member(spec, g, k, i)).collect();
                let mut rt = Runtime::new(g, agents, config);
                let mut adversary = spec.adversary.build(ADVERSARY_SEED);
                let mut policy = AdaptiveThreshold::default();
                let out = rt.run_with_policy(adversary.as_mut(), &mut policy);
                let ns = t.elapsed().as_nanos() as f64;
                let complete =
                    rv_bench::sgl_postcondition_violations(&rt, &SGL_LABELS[..k], |l| l + 1000)
                        .is_empty();
                (out, ns, complete)
            };
            records.push(RunRecord {
                ns,
                cost: out.total_traversals,
                sig: Sig::of(&out),
                ok: ok && out.end == RunEnd::AllParked,
            });
        }
        if traced && !self.replay(&rows)? {
            for r in &mut records {
                r.ok = false;
            }
        }
        Ok(Pass {
            wall_ns: start.elapsed().as_nanos() as f64,
            runs: records,
        })
    }
}
