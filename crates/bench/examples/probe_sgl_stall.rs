//! Probe: protocol-cell progress traces — the instrument behind
//! `docs/STALL_TRACE.md` (every number there reproduces from here).
//!
//! Jobs, selected by argument:
//!
//! * `outliers` — trace the three slow protocol matrix cells
//!   (`tree8/lazy(1)/sgl-k3`, `tree8/greedy-avoid/sgl-k3`,
//!   `gnp8/greedy-avoid/sgl-k4`) to a 2.5M cutoff, printing each agent's
//!   state/phase/bag/ticks at exponentially spaced checkpoints. This is
//!   the trace that **refuted** the Phase-3 token-seek hypothesis: the
//!   cells are Phase-1 ESST blowups (final phase pinned by an
//!   adversarially suspended token).
//! * `deep [cutoff]` — `tree8/lazy(1)/sgl-k3` with a large budget,
//!   logging every phase/ESST-phase transition (shows the cell actually
//!   quiescing at ≈ 3.15M traversals).
//! * `windows` — over every converging protocol cell (orders 5, 6, 8),
//!   report the longest stretch of adversary actions during which the
//!   summed progress ticks did not advance (the stall detector's window
//!   must clear this with margin).
//! * `large <family> <n> <k> <adversary>` — run one cell at a rendezvous
//!   order (12/16) to quiescence with no cutoff, reporting cost, the
//!   longest tick silence, and wall time.

// Timing harness: wall-clock here is the product, not a determinism leak.
#![allow(clippy::disallowed_methods)]
use rv_bench::cells::{cells, CellKind, CellSpec, FAMILIES, PROTOCOL_CUTOFF, PROTOCOL_SIZES};
use rv_explore::SeededUxs;
use rv_protocols::SglBehavior;
use rv_sim::adversary::AdversaryKind;
use rv_sim::Runtime;
use std::time::Instant;

/// The fault-free SGL cell `fname<n>/adversary/sgl-k<k>`, declared in
/// the matrix or not.
fn cell(fname: &str, n: usize, k: usize, adversary: AdversaryKind) -> CellSpec {
    let &(family, fname) = FAMILIES
        .iter()
        .find(|&&(_, stem)| stem == fname)
        .unwrap_or_else(|| panic!("unknown family {fname}"));
    CellSpec {
        family,
        fname,
        n,
        adversary,
        kind: CellKind::Sgl {
            k,
            fault_seed: None,
            certify: true,
        },
    }
}

fn adversary(name: &str) -> AdversaryKind {
    match name {
        "round-robin" => AdversaryKind::RoundRobin,
        "lazy1" => AdversaryKind::LazySecond,
        "greedy-avoid" => AdversaryKind::GreedyAvoid,
        "eager-meet" => AdversaryKind::EagerMeet,
        other => panic!("unknown adversary {other}"),
    }
}

type SglRuntime<'g> = Runtime<'g, SglBehavior<'g, SeededUxs>>;

/// Each agent's state, phase, bag, output flag, ticks and ESST phase.
fn team_summary(rt: &SglRuntime<'_>) -> String {
    let agents: Vec<String> = (0..rt.agent_count())
        .map(|i| {
            let p = rt.behavior(i).quiescence_progress();
            format!(
                "a{i}[{:?} {:?} bag={} out={} ticks={} esst={:?}]",
                p.state, p.phase, p.bag_len, p.has_output, p.ticks, p.esst_phase
            )
        })
        .collect();
    agents.join(" ")
}

/// The longest stretch of adversary actions during which the team's
/// summed progress ticks did not advance, and the worst ratio of a
/// stretch of 100k actions or more to the actions before it.
#[derive(Default)]
struct Silence {
    last_sum: u64,
    since: u64,
    /// `(length, start)` of the longest silent stretch.
    longest: (u64, u64),
    worst_ratio: f64,
}

impl Silence {
    /// Called after each step: a tick advance closes the current stretch.
    fn observe(&mut self, rt: &SglRuntime<'_>) {
        let sum: u64 = (0..rt.agent_count())
            .map(|i| rt.behavior(i).quiescence_progress().ticks)
            .sum();
        if sum > self.last_sum {
            self.last_sum = sum;
            self.close(rt.actions());
            self.since = rt.actions();
        }
    }

    /// Ends the stretch that runs from the last advance to `actions`.
    fn close(&mut self, actions: u64) {
        let len = actions - self.since;
        if len > self.longest.0 {
            self.longest = (len, self.since);
        }
        if len >= 100_000 {
            self.worst_ratio = self.worst_ratio.max(len as f64 / self.since.max(1) as f64);
        }
    }
}

/// Total traversals, actions and meetings so far.
fn counters(rt: &SglRuntime<'_>) -> String {
    format!(
        "cost={} actions={} meetings={}",
        rt.total_traversals(),
        rt.actions(),
        rt.meetings().len()
    )
}

fn trace_outlier(spec: CellSpec) {
    let g = spec.graph();
    let mut run = spec.open_sgl(&g, PROTOCOL_CUTOFF);
    let mut next_report = 1000u64;
    println!("=== {} ===", spec.scenario_id());
    let end = run.step_through(|rt| {
        if rt.total_traversals() >= next_report {
            next_report *= 4;
            println!("  {} {}", counters(rt), team_summary(rt));
        }
    });
    println!(
        "  END {end:?} {} {}",
        counters(&run.rt),
        team_summary(&run.rt)
    );
}

fn silent_windows() {
    let mut worst = (0u64, String::new());
    for spec in cells() {
        let regular = matches!(
            spec.kind,
            CellKind::Sgl {
                fault_seed: None,
                certify: true,
                ..
            }
        ) && PROTOCOL_SIZES.contains(&spec.n);
        if !regular {
            continue;
        }
        let g = spec.graph();
        let mut run = spec.open_sgl(&g, PROTOCOL_CUTOFF);
        let mut silence = Silence::default();
        let end = run.step_through(|rt| silence.observe(rt));
        silence.close(run.rt.actions());
        let id = spec.scenario_id();
        println!(
            "{id}: end={end:?} cost={} actions={} longest_silent={} from={} ratio={:.2}",
            run.rt.total_traversals(),
            run.rt.actions(),
            silence.longest.0,
            silence.longest.1,
            silence.worst_ratio,
        );
        if format!("{end:?}") != "Cutoff" && silence.longest.0 > worst.0 {
            worst = (silence.longest.0, id);
        }
    }
    println!(
        "\nlongest silent window over converging cells: {} actions ({})",
        worst.0, worst.1
    );
}

fn large(spec: CellSpec) {
    let g = spec.graph();
    let mut run = spec.open_sgl(&g, u64::MAX);
    let mut silence = Silence::default();
    let start = Instant::now();
    let end = run.step_through(|rt| silence.observe(rt));
    silence.close(run.rt.actions());
    println!(
        "{}: end={end:?} {} longest_silent={} from={} wall={:?}",
        spec.scenario_id(),
        counters(&run.rt),
        silence.longest.0,
        silence.longest.1,
        start.elapsed()
    );
}

/// Runs one of the outlier cells with a large cutoff, tracing ESST phase
/// transitions (cost at which each new ESST phase was entered).
fn outlier_deep(spec: CellSpec, cutoff: u64) {
    let g = spec.graph();
    let mut run = spec.open_sgl(&g, cutoff);
    let mut last: Vec<(Option<rv_protocols::SglPhase>, Option<u64>)> =
        vec![(None, None); spec.agents()];
    let start = Instant::now();
    let end = run.step_through(|rt| {
        for (i, seen) in last.iter_mut().enumerate() {
            let p = rt.behavior(i).quiescence_progress();
            if (p.phase, p.esst_phase) != *seen {
                println!(
                    "  cost={} a{i}: {:?} esst={:?} -> {:?} esst={:?}",
                    rt.total_traversals(),
                    seen.0,
                    seen.1,
                    p.phase,
                    p.esst_phase
                );
                *seen = (p.phase, p.esst_phase);
            }
        }
    });
    println!(
        "END {end:?} cost={} actions={} wall={:?}",
        run.rt.total_traversals(),
        run.rt.actions(),
        start.elapsed()
    );
}

/// Runs one cell with certification disabled under the adaptive stall
/// detector — the ablation measurement: does the conjunctive detector
/// (silence window AND structural mid-edge hold) still classify the cell,
/// or does it burn the budget to `Cutoff`?
fn nocert(mut spec: CellSpec, cutoff: u64) {
    if let CellKind::Sgl { certify, .. } = &mut spec.kind {
        *certify = false;
    }
    let g = spec.graph();
    let mut run = spec.open_sgl(&g, cutoff);
    let start = Instant::now();
    let out = run.run();
    let suspect = run
        .policy
        .suspension()
        .map(|s| format!("a{} held {}", s.agent, s.held_actions))
        .unwrap_or_else(|| "none".into());
    println!(
        "{}: end={:?} cost={} actions={} suspect={suspect} wall={:?}",
        spec.scenario_id(),
        out.end,
        out.total_traversals,
        out.actions,
        start.elapsed()
    );
}

/// Samples each agent's *scheduler* position (at-node / inside-edge,
/// pending move, hold length) at fixed action intervals — locates the
/// token ghost during a pinned phase, i.e. whether the adversary parks it
/// at a node with an unscheduled `Start` or suspends it mid-crossing.
fn places(spec: CellSpec, cutoff: u64) {
    let g = spec.graph();
    let mut run = spec.open_sgl(&g, cutoff);
    let mut next = 0u64;
    println!("=== {} places ===", spec.scenario_id());
    let end = run.step_through(|rt| {
        if rt.actions() >= next {
            next = (next * 2).max(4096);
            let p = rt.progress();
            let summary: Vec<String> = (0..spec.agents())
                .map(|i| format!("a{i}@{:?}", rt.place(i)))
                .collect();
            println!(
                "  actions={} cost={} hold={}@a{} {}",
                rt.actions(),
                rt.total_traversals(),
                p.longest_hold_actions,
                p.longest_hold_agent,
                summary.join(" ")
            );
        }
    });
    println!(
        "END {end:?} cost={} actions={}",
        run.rt.total_traversals(),
        run.rt.actions()
    );
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    // `places`, `nocert` and `large` name their cell:
    // <family> <n> <k> <adversary> [cutoff].
    let named = || {
        let (n, k) = (args[3].parse().unwrap(), args[4].parse().unwrap());
        let cutoff = args.get(6).and_then(|s| s.parse().ok());
        (
            cell(&args[2], n, k, adversary(&args[5])),
            cutoff.unwrap_or(PROTOCOL_CUTOFF),
        )
    };
    let tree8_lazy = cell("tree", 8, 3, AdversaryKind::LazySecond);
    match args.get(1).map(String::as_str) {
        Some("outliers") => {
            trace_outlier(tree8_lazy);
            trace_outlier(cell("tree", 8, 3, AdversaryKind::GreedyAvoid));
            trace_outlier(cell("gnp", 8, 4, AdversaryKind::GreedyAvoid));
        }
        Some("deep") => {
            let cutoff = args.get(2).and_then(|s| s.parse().ok());
            outlier_deep(tree8_lazy, cutoff.unwrap_or(20_000_000));
        }
        Some("windows") => silent_windows(),
        Some("places") => {
            let (spec, cutoff) = named();
            places(spec, cutoff);
        }
        Some("nocert") => {
            let (spec, cutoff) = named();
            nocert(spec, cutoff);
        }
        Some("large") => large(named().0),
        _ => panic!("usage: probe_sgl_stall outliers|windows|large <n> <k> <adversary>"),
    }
}
