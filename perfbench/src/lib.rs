#![forbid(unsafe_code)]
#![allow(clippy::disallowed_methods)] // Timing harness: wall-clock is the product here.
//! The repository's benchmark: three workloads over the simulator's public
//! API, end-to-end metrics from untraced passes, and a per-layer breakdown
//! from traced passes. See `perfbench/README.md` for the metric catalogue
//! and how to run it.
//!
//! A run sets its workload up once, then repeats the workload's fixed
//! input set — one *pass* — until the time budget is spent, checking every
//! run's output on every pass. Before each pass it times a batch of fresh
//! set-ups (`setup_s`).

pub mod host;
pub mod stats;
pub mod timed;
pub mod trace;
pub mod workloads;

use std::path::PathBuf;
use std::time::Instant;
use trace::{Counter, Span, Table};

/// The end-to-end metrics: `(name, unit, better, bound)`. Printed by every
/// untraced run, for every workload.
pub const END_TO_END: [(&str, &str, &str, f64); 7] = [
    ("setup_s", "s", "lower", 0.25),
    ("wall_s", "s", "lower", 0.25),
    ("run_p50_ms", "ms", "lower", 0.25),
    ("run_tail_ms", "ms", "lower", 0.25),
    ("cost_traversals", "count", "lower", 1e-6),
    ("ok_frac", "1", "higher", 1e-6),
    ("peak_rss_mib", "MiB", "lower", 0.1),
];

/// The per-layer metrics: `(name, unit, better)`. Printed by every traced
/// run; a layer a workload does not exercise reads 0.
pub const PER_LAYER: [(&str, &str, &str); 43] = [
    ("runtime.new.ns", "ns", "lower"),
    ("behavior.new.ns", "ns", "lower"),
    ("runtime.legal_choices.calls", "count", "lower"),
    ("runtime.legal_choices.ns", "ns", "lower"),
    ("runtime.legal_choices.choices_per_call", "count", "lower"),
    ("runtime.apply.self_ns", "ns", "lower"),
    ("runtime.meetings_per_ktraversal", "count", "lower"),
    ("runtime.ns_per_traversal", "ns", "lower"),
    ("behavior.next_port.calls", "count", "lower"),
    ("behavior.next_port.ns", "ns", "lower"),
    ("behavior.on_meeting.calls", "count", "lower"),
    ("behavior.on_meeting.ns", "ns", "lower"),
    ("behavior.on_meeting.peers", "count", "lower"),
    ("behavior.info.calls", "count", "lower"),
    ("behavior.info.ns", "ns", "lower"),
    ("behavior.progress.calls", "count", "lower"),
    ("behavior.progress.ns", "ns", "lower"),
    ("adversary.choose.calls", "count", "lower"),
    ("adversary.choose.ns", "ns", "lower"),
    ("stop.progress.calls", "count", "lower"),
    ("stop.progress.ns", "ns", "lower"),
    ("stop.check.ns", "ns", "lower"),
    ("minimax.search.ns", "ns", "lower"),
    ("minimax.leaves", "count", "lower"),
    ("minimax.workers", "count", "lower"),
    ("memo.probes", "count", "lower"),
    ("memo.hits", "count", "higher"),
    ("memo.hit_ratio", "1", "higher"),
    ("memo.entries", "count", "lower"),
    ("store.open.ns", "ns", "lower"),
    ("store.append.calls", "count", "lower"),
    ("store.append.bytes_written", "bytes", "lower"),
    ("store.append.ns", "ns", "lower"),
    ("store.get.calls", "count", "lower"),
    ("store.get.hits", "count", "higher"),
    ("store.get.ns", "ns", "lower"),
    ("store.segment_bytes", "bytes", "lower"),
    ("cells.content_key.calls", "count", "lower"),
    ("cells.content_key.ns", "ns", "lower"),
    ("graph.generate.ns", "ns", "lower"),
    ("graph.automorphisms.ns", "ns", "lower"),
    ("trace.overhead_frac", "1", "lower"),
    ("trace.unattributed_frac", "1", "lower"),
];

/// `trace.unattributed_frac` above this is flagged in the provenance
/// record: the layers no longer account for the wall time.
pub const UNATTRIBUTED_FLAG: f64 = 0.15;

/// Set-ups are timed in batches, one before each timed pass: a single
/// set-up of tens of microseconds is too short to time steadily. The first
/// set-up, which the passes run on, is not timed; it sizes the batch to as
/// many set-ups as take this long together (at least one). `setup_s` is
/// the median over batches of the scaled per-set-up time.
pub const SETUP_BATCH_S: f64 = 0.04;

/// Timed untraced passes every run makes at least (after the warm-up),
/// whatever its time budget: the repetitions each timing takes its fastest
/// of.
pub const MIN_PASSES: usize = 9;

/// Share of the previous pass's time the speed probe takes before the next
/// pass (at least one probe).
pub const PROBE_SHARE: f64 = 0.03;

/// What a run's outcome is compared on: a traced or repeated run must
/// reproduce the first untraced pass exactly.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Sig {
    /// How the run ended (`RunEnd` name, or `Searched`).
    pub end: String,
    /// Traversals at the end (leaves explored, for a search).
    pub traversals: u64,
    /// Adversary actions (the action horizon, for a search).
    pub actions: u64,
    /// Meetings declared (the worst-case cost, for a search).
    pub meetings: u64,
}

impl Sig {
    /// The signature of a finished runtime run.
    pub fn of(out: &rv_sim::RunOutcome) -> Sig {
        Sig {
            end: format!("{:?}", out.end),
            traversals: out.total_traversals,
            actions: out.actions,
            meetings: out.meetings.len() as u64,
        }
    }
}

/// One timed run (a rendezvous run, a cell, or a search).
#[derive(Clone, Debug)]
pub struct RunRecord {
    /// Host time of the run, nanoseconds.
    pub ns: f64,
    /// Simulated cost the run contributes to `cost_traversals`.
    pub cost: u64,
    /// Outcome signature.
    pub sig: Sig,
    /// Whether the run's output check passed.
    pub ok: bool,
}

/// One pass over a workload's fixed input set.
#[derive(Clone, Debug)]
pub struct Pass {
    /// Host time of the input set, from which `wall_s` takes the part
    /// outside the runs.
    pub wall_ns: f64,
    /// Every run of the pass, in the workload's (seeded) order.
    pub runs: Vec<RunRecord>,
}

/// Paths a workload may use.
#[derive(Clone, Debug)]
pub struct Ctx {
    /// Scratch directory private to this run (removed at the end).
    pub scratch: PathBuf,
}

/// A benchmark workload.
pub trait Workload: Sized {
    /// Builds the inputs from the seed (timed as `setup_s`).
    fn setup(seed: u64, ctx: &Ctx) -> Result<Self, String>;
    /// Runs the fixed input set once; `traced` selects the traced path.
    fn pass(&mut self, traced: bool) -> Result<Pass, String>;
}

/// Builds `batch` set-ups, keeping each alive until the batch's timing
/// ends, and returns the time per set-up in nanoseconds.
fn setup_batch<W: Workload>(seed: u64, ctx: &Ctx, batch: usize) -> Result<f64, String> {
    let t = Instant::now();
    let built = (0..batch)
        .map(|_| W::setup(seed, ctx))
        .collect::<Result<Vec<W>, String>>()?;
    let ns = t.elapsed().as_nanos() as f64 / batch as f64;
    drop(built);
    Ok(ns)
}

/// What a run measured: end-to-end metrics, and per-layer ones when traced.
#[derive(Clone, Debug)]
pub struct Measured {
    /// `(name, value, unit)` in [`END_TO_END`] or [`PER_LAYER`] order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Runs checked, over every pass.
    pub attempted: u64,
    /// Runs whose check failed.
    pub failed: u64,
    /// Extra provenance fields (pass counts, tail percentile, flags).
    pub notes: Vec<(&'static str, String)>,
    /// The traced span table, rendered as JSON (traced runs only).
    pub spans: Option<String>,
}

struct Tally {
    reference: Option<(Vec<Sig>, u64)>,
    attempted: u64,
    failed: u64,
}

impl Tally {
    /// Counts a pass's runs; each must pass its own check and reproduce
    /// the reference (first) pass's signatures and cost.
    fn fold(&mut self, pass: &Pass) {
        let sigs: Vec<Sig> = pass.runs.iter().map(|r| r.sig.clone()).collect();
        let cost: u64 = pass.runs.iter().map(|r| r.cost).sum();
        let (ref_sigs, ref_cost) = self.reference.get_or_insert_with(|| (sigs.clone(), cost));
        let cost_ok = *ref_cost == cost && ref_sigs.len() == sigs.len();
        for (i, run) in pass.runs.iter().enumerate() {
            self.attempted += 1;
            let same = cost_ok && ref_sigs[i] == run.sig;
            if !run.ok || !same {
                self.failed += 1;
            }
        }
    }
}

/// Runs workload `W` for `seconds` and returns its metrics.
pub fn measure<W: Workload>(
    seed: u64,
    seconds: f64,
    traced: bool,
    ctx: &Ctx,
) -> Result<Measured, String> {
    // The inputs the passes run on. This first set-up is not timed; its
    // time sizes the set-up batches.
    let t = Instant::now();
    let mut w = W::setup(seed, ctx)?;
    let batch = (SETUP_BATCH_S * 1e9 / (t.elapsed().as_nanos() as f64).max(1.0)).ceil() as usize;
    let batch = batch.max(1);
    let setup_table = if traced {
        trace::start();
        let built = W::setup(seed, ctx);
        let table = trace::finish();
        drop(built?);
        table
    } else {
        Table::default()
    };

    let mut tally = Tally {
        reference: None,
        attempted: 0,
        failed: 0,
    };
    // Warm-up: one untimed pass lets caches, the allocator's heap and lazy
    // set-up settle. Its outputs are checked and become the reference the
    // timed passes must reproduce; peak memory is read after it, before
    // the harness's own sample storage grows with the pass count.
    let warm_up = w.pass(false)?;
    tally.fold(&warm_up);
    let runs_per_pass = warm_up.runs.len();
    let peak_rss = host::peak_rss_mib("self");

    let mut probe_buf = vec![1u64; host::PROBE_WORDS];
    let mut probes = Vec::new();
    let start = Instant::now();
    let untraced_budget = if traced { seconds / 2.0 } else { seconds };
    let mut pass_ns = Vec::new();
    // Each run's times over the timed passes, in run order.
    let mut run_times: Vec<Vec<f64>> = vec![Vec::new(); runs_per_pass];
    // Each pass's time outside its runs (the loop around them).
    let mut rests = Vec::new();
    // Per-set-up time of the batch before each pass.
    let mut setup_ns = Vec::new();
    // Other tenants of a shared host slow it down by tens of percent (up to
    // twofold) for seconds to minutes at a time. The repetitions that ran
    // while the host was fast are the steadiest, so a run's time is its
    // fastest repetition over the passes, scaled to the reference host's
    // speed by the run's fastest speed probe: when the host was slow for the
    // whole run, the probe was slow too. A pass of a second or more seldom
    // runs fast from end to end, so `wall_s` adds up its parts each at its
    // fastest: the runs, and the rest of the pass. A set-up batch is scaled
    // by the probe right before it, and the batches' median is reported.
    let mut last_pass_ns = 0.0;
    while pass_ns.len() < MIN_PASSES || start.elapsed().as_secs_f64() < untraced_budget {
        let scale = host::PROBE_REF_NS / probe(&mut probes, &mut probe_buf, last_pass_ns);
        setup_ns.push(setup_batch::<W>(seed, ctx, batch)? * scale);
        let t = Instant::now();
        let pass = w.pass(false)?;
        last_pass_ns = t.elapsed().as_nanos() as f64;
        pass_ns.push(last_pass_ns * scale);
        tally.fold(&pass);
        rests.push(pass.wall_ns - pass.runs.iter().map(|r| r.ns).sum::<f64>());
        for (times, run) in run_times.iter_mut().zip(&pass.runs) {
            times.push(run.ns);
        }
    }
    let best_speed = host::PROBE_REF_NS / stats::min(&probes);
    let fastest = |times: &[f64]| stats::min(times) * best_speed;
    let cost = tally.reference.as_ref().map_or(0, |r| r.1);
    let samples: Vec<f64> = run_times.iter().map(|times| fastest(times)).collect();
    let wall_ns = fastest(&rests).max(0.0) + samples.iter().sum::<f64>();
    let tail_p = stats::tail_percentile(samples.len());
    let mut notes = vec![
        ("passes", pass_ns.len().to_string()),
        ("runs_per_pass", runs_per_pass.to_string()),
        ("run_samples", samples.len().to_string()),
        ("run_tail_percentile", tail_p.to_string()),
        ("setup_batch", batch.to_string()),
        ("probes", probes.len().to_string()),
        (
            "probe_median_ms",
            (stats::median(&probes) / 1e6).to_string(),
        ),
    ];
    if !traced {
        let values = [
            stats::median(&setup_ns) / 1e9,
            wall_ns / 1e9,
            stats::median(&samples) / 1e6,
            stats::percentile(&samples, tail_p) / 1e6,
            cost as f64,
            (tally.attempted - tally.failed) as f64 / tally.attempted.max(1) as f64,
            peak_rss.unwrap_or(0.0),
        ];
        let metrics = END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit, _, _), v)| (name, v, unit))
            .collect();
        return Ok(Measured {
            metrics,
            attempted: tally.attempted,
            failed: tally.failed,
            notes,
            spans: None,
        });
    }

    let mut table = Table::default();
    let mut traced_passes = 0u64;
    let mut traced_ns = Vec::new();
    while traced_passes == 0 || start.elapsed().as_secs_f64() < seconds {
        let scale = host::PROBE_REF_NS / probe(&mut probes, &mut probe_buf, last_pass_ns);
        trace::start();
        let pass = trace::span(Span::Pass, || w.pass(true));
        let session = trace::finish();
        let pass = pass?;
        tally.fold(&pass);
        last_pass_ns = session.span(Span::Pass).total_ns as f64;
        traced_ns.push(last_pass_ns * scale);
        table.absorb(&session);
        traced_passes += 1;
    }
    let layer = Layer {
        table: &table,
        setup: &setup_table,
        passes: traced_passes as f64,
        scale: host::PROBE_REF_NS / stats::median(&probes),
        untraced_pass_ns: stats::median(&pass_ns),
        traced_pass_ns: stats::median(&traced_ns),
        wall_ns,
    };
    let metrics: Vec<_> = PER_LAYER
        .iter()
        .map(|&(name, unit, _)| (name, layer.value(name), unit))
        .collect();
    let unattributed = layer.value("trace.unattributed_frac");
    notes.push(("traced_passes", traced_passes.to_string()));
    notes.push((
        "unattributed_over_limit",
        (unattributed > UNATTRIBUTED_FLAG).to_string(),
    ));
    Ok(Measured {
        metrics,
        attempted: tally.attempted,
        failed: tally.failed,
        notes,
        spans: Some(table.to_json()),
    })
}

/// Runs the host speed probe before a pass — at least once, and until the
/// probes took [`PROBE_SHARE`] of the previous pass's time — and returns
/// the fastest of these probes: the host's speed as the pass starts.
fn probe(probes: &mut Vec<f64>, buf: &mut [u64], last_pass_ns: f64) -> f64 {
    let mut spent = 0.0;
    let mut fastest = f64::INFINITY;
    while spent == 0.0 || spent < PROBE_SHARE * last_pass_ns {
        let ns = host::probe_ns(buf);
        probes.push(ns);
        spent += ns;
        fastest = fastest.min(ns);
    }
    fastest
}

/// Inputs of the per-layer metric formulas.
struct Layer<'a> {
    table: &'a Table,
    setup: &'a Table,
    passes: f64,
    /// Factor from this run's typical host speed to the reference host's.
    scale: f64,
    untraced_pass_ns: f64,
    traced_pass_ns: f64,
    wall_ns: f64,
}

impl Layer<'_> {
    fn calls(&self, s: Span) -> f64 {
        self.table.span(s).calls as f64 / self.passes
    }

    fn ns(&self, s: Span) -> f64 {
        self.table.span(s).self_ns as f64 * self.scale / self.passes
    }

    fn count(&self, c: Counter) -> f64 {
        self.table.counter(c) as f64 / self.passes
    }

    fn ratio(num: f64, den: f64) -> f64 {
        if den > 0.0 {
            num / den
        } else {
            0.0
        }
    }

    /// Per-pass value of the per-layer metric `name` (`ns` values are self
    /// times; counts are per pass of the fixed input set).
    fn value(&self, name: &str) -> f64 {
        let t = self.table;
        match name {
            "runtime.new.ns" => self.ns(Span::RuntimeNew),
            "behavior.new.ns" => self.ns(Span::BehaviorNew),
            "runtime.legal_choices.calls" => self.calls(Span::LegalChoices),
            "runtime.legal_choices.ns" => self.ns(Span::LegalChoices),
            "runtime.legal_choices.choices_per_call" => {
                Self::ratio(self.count(Counter::Choices), self.calls(Span::LegalChoices))
            }
            "runtime.apply.self_ns" => self.ns(Span::Apply),
            "runtime.meetings_per_ktraversal" => Self::ratio(
                1000.0 * self.count(Counter::Meetings),
                self.count(Counter::Traversals),
            ),
            "runtime.ns_per_traversal" => {
                Self::ratio(self.wall_ns, self.count(Counter::Traversals))
            }
            "behavior.next_port.calls" => self.calls(Span::NextPort),
            "behavior.next_port.ns" => self.ns(Span::NextPort),
            "behavior.on_meeting.calls" => self.calls(Span::OnMeeting),
            "behavior.on_meeting.ns" => self.ns(Span::OnMeeting),
            "behavior.on_meeting.peers" => self.count(Counter::Peers),
            "behavior.info.calls" => self.calls(Span::Info),
            "behavior.info.ns" => self.ns(Span::Info),
            "behavior.progress.calls" => self.calls(Span::BehaviorProgress),
            "behavior.progress.ns" => self.ns(Span::BehaviorProgress),
            "adversary.choose.calls" => self.calls(Span::Choose),
            "adversary.choose.ns" => self.ns(Span::Choose),
            "stop.progress.calls" => self.calls(Span::StopProgress),
            "stop.progress.ns" => self.ns(Span::StopProgress),
            "stop.check.ns" => self.ns(Span::StopCheck),
            "minimax.search.ns" => self.ns(Span::MinimaxSearch),
            "minimax.leaves" => self.count(Counter::MinimaxLeaves),
            "minimax.workers" => t.counter(Counter::MinimaxWorkers) as f64,
            "memo.probes" => self.count(Counter::MemoProbes),
            "memo.hits" => self.count(Counter::MemoHits),
            "memo.hit_ratio" => Self::ratio(
                self.count(Counter::MemoHits),
                self.count(Counter::MemoProbes),
            ),
            "memo.entries" => self.count(Counter::MemoEntries),
            "store.open.ns" => self.ns(Span::StoreOpen),
            "store.append.calls" => self.calls(Span::StoreAppend),
            "store.append.bytes_written" => self.count(Counter::StoreBytesWritten),
            "store.append.ns" => self.ns(Span::StoreAppend),
            "store.get.calls" => self.calls(Span::StoreGet),
            "store.get.hits" => self.count(Counter::StoreHits),
            "store.get.ns" => self.ns(Span::StoreGet),
            "store.segment_bytes" => t.counter(Counter::StoreSegmentBytes) as f64,
            "cells.content_key.calls" => self.calls(Span::ContentKey),
            "cells.content_key.ns" => self.ns(Span::ContentKey),
            "graph.generate.ns" => self.setup.span(Span::GraphGenerate).self_ns as f64 * self.scale,
            "graph.automorphisms.ns" => {
                self.setup.span(Span::GraphAutomorphisms).self_ns as f64 * self.scale
            }
            "trace.overhead_frac" => Self::ratio(self.traced_pass_ns, self.untraced_pass_ns) - 1.0,
            "trace.unattributed_frac" => {
                let pass = t.span(Span::Pass);
                Self::ratio(pass.self_ns as f64, pass.total_ns as f64)
            }
            other => panic!("no formula for per-layer metric {other}"),
        }
    }
}

/// Renders the result line: exactly `correct`, `attempted`, `failed` and
/// `metrics`, each metric as `{"value": …, "unit": …}`.
pub fn result_json(m: &Measured) -> String {
    let metrics: Vec<String> = m
        .metrics
        .iter()
        .map(|(name, v, unit)| {
            let v = if v.is_finite() { *v } else { 0.0 };
            format!("\"{name}\":{{\"value\":{v},\"unit\":\"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        m.failed == 0 && m.attempted > 0,
        m.attempted,
        m.failed,
        metrics.join(",")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_per_layer_metric_has_a_formula() {
        let empty = Table::default();
        let layer = Layer {
            table: &empty,
            setup: &empty,
            passes: 1.0,
            scale: 1.0,
            untraced_pass_ns: 1.0,
            traced_pass_ns: 1.0,
            wall_ns: 1.0,
        };
        for (name, _, _) in PER_LAYER {
            assert!(layer.value(name).is_finite(), "{name}");
        }
    }
}
