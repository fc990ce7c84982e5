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
use rv_bench::cells::{
    ADVERSARIES, ADVERSARY_SEED, FAMILIES, GRAPH_SEED, PROTOCOL_CUTOFF, PROTOCOL_SIZES, SGL_LABELS,
    TEAM_SIZES,
};
use rv_core::Label;
use rv_explore::SeededUxs;
use rv_graph::{GraphFamily, NodeId};
use rv_protocols::{SglBehavior, SglConfig};
use rv_sim::adversary::AdversaryKind;
use rv_sim::{RunConfig, Runtime};
use std::time::Instant;

fn behaviors<'g>(
    g: &'g rv_graph::Graph,
    k: usize,
    uxs: SeededUxs,
) -> Vec<SglBehavior<'g, SeededUxs>> {
    SGL_LABELS[..k]
        .iter()
        .enumerate()
        .map(|(i, &l)| {
            SglBehavior::new(
                g,
                uxs,
                NodeId(i * g.order() / k),
                Label::new(l).unwrap(),
                l + 1000,
                SglConfig::default(),
            )
        })
        .collect()
}

/// The matrix family whose scenario-id stem is `name`.
fn family(name: &str) -> GraphFamily {
    let found = FAMILIES.iter().find(|&&(_, stem)| stem == name);
    found.unwrap_or_else(|| panic!("unknown family {name}")).0
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

fn trace_outlier(fname: &str, k: usize, kind: AdversaryKind) {
    let uxs = SeededUxs::quadratic();
    let g = family(fname).generate(8, GRAPH_SEED);
    let mut rt = Runtime::new(
        &g,
        behaviors(&g, k, uxs),
        RunConfig::protocol().with_cutoff(PROTOCOL_CUTOFF),
    );
    let mut adv = kind.build(ADVERSARY_SEED);
    let mut meetings = Vec::new();
    let mut next_report = 1000u64;
    println!("=== {fname}8/{kind}/sgl-k{k} ===");
    let end = loop {
        if let Some(end) = rt.step(adv.as_mut(), &mut meetings) {
            break end;
        }
        if rt.total_traversals() >= next_report {
            next_report *= 4;
            let summary: Vec<String> = (0..rt.agent_count())
                .map(|i| {
                    let p = rt.behavior(i).quiescence_progress();
                    format!(
                        "a{i}[{:?} {:?} bag={} out={} ticks={} esst={:?}]",
                        p.state, p.phase, p.bag_len, p.has_output, p.ticks, p.esst_phase
                    )
                })
                .collect();
            println!(
                "  cost={} actions={} meetings={} {}",
                rt.total_traversals(),
                rt.actions(),
                rt.meetings().len(),
                summary.join(" ")
            );
        }
    };
    let summary: Vec<String> = (0..rt.agent_count())
        .map(|i| {
            let p = rt.behavior(i).quiescence_progress();
            format!(
                "a{i}[{:?} {:?} bag={} out={} ticks={} esst={:?}]",
                p.state, p.phase, p.bag_len, p.has_output, p.ticks, p.esst_phase
            )
        })
        .collect();
    println!(
        "  END {end:?} cost={} actions={} meetings={} {}",
        rt.total_traversals(),
        rt.actions(),
        rt.meetings().len(),
        summary.join(" ")
    );
}

fn silent_windows() {
    let uxs = SeededUxs::quadratic();
    let mut worst = (0u64, String::new());
    for (family, fname) in FAMILIES {
        for n in PROTOCOL_SIZES {
            for kind in ADVERSARIES {
                for k in TEAM_SIZES {
                    let g = family.generate(n, GRAPH_SEED);
                    let mut rt = Runtime::new(
                        &g,
                        behaviors(&g, k, uxs),
                        RunConfig::protocol().with_cutoff(PROTOCOL_CUTOFF),
                    );
                    let mut adv = kind.build(ADVERSARY_SEED);
                    let mut meetings = Vec::new();
                    let mut last_sum = 0u64;
                    let mut action_at_advance = 0u64;
                    let mut longest = (0u64, 0u64); // (length, start)
                    let mut worst_ratio = 0f64;
                    let end = loop {
                        if let Some(end) = rt.step(adv.as_mut(), &mut meetings) {
                            break end;
                        }
                        let sum: u64 = (0..rt.agent_count())
                            .map(|i| rt.behavior(i).quiescence_progress().ticks)
                            .sum();
                        if sum > last_sum {
                            last_sum = sum;
                            let len = rt.actions() - action_at_advance;
                            if len > longest.0 {
                                longest = (len, action_at_advance);
                            }
                            if len >= 100_000 {
                                worst_ratio =
                                    worst_ratio.max(len as f64 / action_at_advance.max(1) as f64);
                            }
                            action_at_advance = rt.actions();
                        }
                    };
                    let len = rt.actions() - action_at_advance;
                    if len > longest.0 {
                        longest = (len, action_at_advance);
                    }
                    if len >= 100_000 {
                        worst_ratio = worst_ratio.max(len as f64 / action_at_advance.max(1) as f64);
                    }
                    let id = format!("{fname}{n}/{kind}/sgl-k{k}");
                    println!(
                        "{id}: end={end:?} cost={} actions={} longest_silent={} from={} ratio={worst_ratio:.2}",
                        rt.total_traversals(),
                        rt.actions(),
                        longest.0,
                        longest.1,
                    );
                    if format!("{end:?}") != "Cutoff" && longest.0 > worst.0 {
                        worst = (longest.0, id);
                    }
                }
            }
        }
    }
    println!(
        "\nlongest silent window over converging cells: {} actions ({})",
        worst.0, worst.1
    );
}

fn large(fname: &str, n: usize, k: usize, kind: AdversaryKind) {
    let uxs = SeededUxs::quadratic();
    let g = family(fname).generate(n, GRAPH_SEED);
    let mut rt = Runtime::new(
        &g,
        behaviors(&g, k, uxs),
        RunConfig::protocol().with_cutoff(u64::MAX),
    );
    let mut adv = kind.build(ADVERSARY_SEED);
    let mut meetings = Vec::new();
    let mut last_sum = 0u64;
    let mut action_at_advance = 0u64;
    let mut longest = (0u64, 0u64);
    let start = Instant::now();
    let end = loop {
        if let Some(end) = rt.step(adv.as_mut(), &mut meetings) {
            break end;
        }
        let sum: u64 = (0..rt.agent_count())
            .map(|i| rt.behavior(i).quiescence_progress().ticks)
            .sum();
        if sum > last_sum {
            last_sum = sum;
            let len = rt.actions() - action_at_advance;
            if len > longest.0 {
                longest = (len, action_at_advance);
            }
            action_at_advance = rt.actions();
        }
    };
    let len = rt.actions() - action_at_advance;
    if len > longest.0 {
        longest = (len, action_at_advance);
    }
    println!(
        "{fname}{n}/{kind}/sgl-k{k}: end={end:?} cost={} actions={} meetings={} \
         longest_silent={} from={} wall={:?}",
        rt.total_traversals(),
        rt.actions(),
        rt.meetings().len(),
        longest.0,
        longest.1,
        start.elapsed()
    );
}

/// Runs one of the outlier cells with a large cutoff, tracing ESST phase
/// transitions (cost at which each new ESST phase was entered).
fn outlier_deep(fname: &str, k: usize, kind: AdversaryKind, cutoff: u64) {
    let uxs = SeededUxs::quadratic();
    let g = family(fname).generate(8, GRAPH_SEED);
    let mut rt = Runtime::new(
        &g,
        behaviors(&g, k, uxs),
        RunConfig::protocol().with_cutoff(cutoff),
    );
    let mut adv = kind.build(ADVERSARY_SEED);
    let mut meetings = Vec::new();
    let mut last: Vec<(Option<rv_protocols::SglPhase>, Option<u64>)> =
        vec![(None, None); rt.agent_count()];
    let start = Instant::now();
    let end = loop {
        if let Some(end) = rt.step(adv.as_mut(), &mut meetings) {
            break end;
        }
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
    };
    println!(
        "END {end:?} cost={} actions={} wall={:?}",
        rt.total_traversals(),
        rt.actions(),
        start.elapsed()
    );
}

/// Runs one cell with certification disabled under the adaptive stall
/// detector — the ablation measurement: does the conjunctive detector
/// (silence window AND structural mid-edge hold) still classify the cell,
/// or does it burn the budget to `Cutoff`?
fn nocert(fname: &str, n: usize, k: usize, kind: AdversaryKind, cutoff: u64) {
    let uxs = SeededUxs::quadratic();
    let g = family(fname).generate(n, GRAPH_SEED);
    let config = SglConfig {
        suspension: None,
        ..SglConfig::default()
    };
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
    let mut policy = rv_sim::AdaptiveThreshold::default();
    let start = Instant::now();
    let out = rt.run_with_policy(adv.as_mut(), &mut policy);
    let suspect = policy
        .suspension()
        .map(|s| format!("a{} held {}", s.agent, s.held_actions))
        .unwrap_or_else(|| "none".into());
    println!(
        "{fname}{n}/{kind}/sgl-k{k}+nocert: end={:?} cost={} actions={} suspect={suspect} wall={:?}",
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
fn places(fname: &str, n: usize, k: usize, kind: AdversaryKind, cutoff: u64) {
    let uxs = SeededUxs::quadratic();
    let g = family(fname).generate(n, GRAPH_SEED);
    let mut rt = Runtime::new(
        &g,
        behaviors(&g, k, uxs),
        RunConfig::protocol().with_cutoff(cutoff),
    );
    let mut adv = kind.build(ADVERSARY_SEED);
    let mut meetings = Vec::new();
    let mut next = 0u64;
    println!("=== {fname}{n}/{kind}/sgl-k{k} places ===");
    let end = loop {
        if let Some(end) = rt.step(adv.as_mut(), &mut meetings) {
            break end;
        }
        if rt.actions() >= next {
            next = (next * 2).max(4096);
            let p = rt.progress();
            let summary: Vec<String> = (0..rt.agent_count())
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
    };
    println!(
        "END {end:?} cost={} actions={}",
        rt.total_traversals(),
        rt.actions()
    );
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    match args.get(1).map(String::as_str) {
        Some("outliers") => {
            trace_outlier("tree", 3, AdversaryKind::LazySecond);
            trace_outlier("tree", 3, AdversaryKind::GreedyAvoid);
            trace_outlier("gnp", 4, AdversaryKind::GreedyAvoid);
        }
        Some("deep") => {
            let cutoff: u64 = args
                .get(2)
                .and_then(|s| s.parse().ok())
                .unwrap_or(20_000_000);
            outlier_deep("tree", 3, AdversaryKind::LazySecond, cutoff);
        }
        Some("windows") => silent_windows(),
        Some("places") => {
            let n: usize = args[3].parse().unwrap();
            let k: usize = args[4].parse().unwrap();
            let cutoff: u64 = args
                .get(6)
                .and_then(|s| s.parse().ok())
                .unwrap_or(PROTOCOL_CUTOFF);
            places(&args[2], n, k, adversary(&args[5]), cutoff);
        }
        Some("nocert") => {
            let n: usize = args[3].parse().unwrap();
            let k: usize = args[4].parse().unwrap();
            let cutoff: u64 = args
                .get(6)
                .and_then(|s| s.parse().ok())
                .unwrap_or(PROTOCOL_CUTOFF);
            nocert(&args[2], n, k, adversary(&args[5]), cutoff);
        }
        Some("large") => {
            let n: usize = args[3].parse().unwrap();
            let k: usize = args[4].parse().unwrap();
            large(&args[2], n, k, adversary(&args[5]));
        }
        _ => panic!("usage: probe_sgl_stall outliers|windows|large <n> <k> <adversary>"),
    }
}
