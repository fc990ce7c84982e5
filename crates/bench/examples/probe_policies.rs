//! Probe: end-to-end stop-policy verification over the matrix's critical
//! cells — the 18 divergent rendezvous cells under `DivergenceDetector`,
//! the 3 protocol outliers plus the worst converging cells under
//! `AdaptiveThreshold`, and the large-order ring cells.

// Timing harness: wall-clock here is the product, not a determinism leak.
#![allow(clippy::disallowed_methods)]
use rv_bench::cells::{
    variants, ADVERSARY_SEED, CUTOFF, FAMILIES, GRAPH_SEED, LABELS, LARGE_PROTOCOL_CUTOFF,
    PROTOCOL_CUTOFF, SGL_LABELS,
};
use rv_core::Label;
use rv_explore::SeededUxs;
use rv_graph::{GraphFamily, NodeId};
use rv_protocols::{SglBehavior, SglConfig};
use rv_sim::adversary::AdversaryKind;
use rv_sim::{AdaptiveThreshold, DivergenceDetector, RunConfig, Runtime, RvBehavior};
use std::time::Instant;

/// The matrix family whose scenario-id stem is `name`.
fn family(name: &str) -> GraphFamily {
    let found = FAMILIES.iter().find(|&&(_, stem)| stem == name);
    found.unwrap_or_else(|| panic!("unknown family {name}")).0
}

fn rendezvous(fname: &str, n: usize, kind: AdversaryKind, vname: &str) {
    let (_, variant) = variants()
        .into_iter()
        .find(|&(name, _)| name == vname)
        .unwrap_or_else(|| panic!("unknown variant {vname}"));
    let uxs = SeededUxs::quadratic();
    let g = family(fname).generate(n, GRAPH_SEED);
    let agents = vec![
        RvBehavior::with_variant(&g, uxs, NodeId(0), Label::new(LABELS.0).unwrap(), variant),
        RvBehavior::with_variant(
            &g,
            uxs,
            NodeId(g.order() / 2),
            Label::new(LABELS.1).unwrap(),
            variant,
        ),
    ];
    let mut rt = Runtime::new(&g, agents, RunConfig::rendezvous().with_cutoff(CUTOFF));
    let mut adv = kind.build(ADVERSARY_SEED);
    let mut policy = DivergenceDetector::default();
    let start = Instant::now();
    let out = rt.run_with_policy(adv.as_mut(), &mut policy);
    println!(
        "{fname}{n}/{kind}/{vname}: end={:?} cost={} wall={:?}",
        out.end,
        out.total_traversals,
        start.elapsed()
    );
}

fn protocol(fname: &str, n: usize, k: usize, kind: AdversaryKind, cutoff: u64) {
    let uxs = SeededUxs::quadratic();
    let g = family(fname).generate(n, GRAPH_SEED);
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
                SglConfig::default(),
            )
        })
        .collect();
    let mut rt = Runtime::new(&g, behaviors, RunConfig::protocol().with_cutoff(cutoff));
    let mut adv = kind.build(ADVERSARY_SEED);
    let mut policy = AdaptiveThreshold::default();
    let start = Instant::now();
    let out = rt.run_with_policy(adv.as_mut(), &mut policy);
    println!(
        "{fname}{n}/{kind}/sgl-k{k}: end={:?} cost={} actions={} wall={:?}",
        out.end,
        out.total_traversals,
        out.actions,
        start.elapsed()
    );
}

fn main() {
    println!("--- divergent rendezvous cells (expect Diverged well under 100k) ---");
    for (f, n, a) in [
        ("ring", 8, AdversaryKind::LazySecond),
        ("ring", 12, AdversaryKind::GreedyAvoid),
        ("ring", 16, AdversaryKind::RoundRobin),
        ("ring", 16, AdversaryKind::EagerMeet),
        ("path", 16, AdversaryKind::LazySecond),
        ("tree", 16, AdversaryKind::GreedyAvoid),
        ("tree", 16, AdversaryKind::EagerMeet),
    ] {
        rendezvous(f, n, a, "unscaled");
    }
    println!("--- converging rendezvous control (expect Meeting, unchanged) ---");
    rendezvous("ring", 12, AdversaryKind::GreedyAvoid, "paper");
    rendezvous("lollipop", 16, AdversaryKind::LazySecond, "paper");

    println!("--- protocol outliers (expect Stalled under 2.5M) ---");
    for (f, n, k, a) in [
        ("tree", 8, 3, AdversaryKind::LazySecond),
        ("tree", 8, 3, AdversaryKind::GreedyAvoid),
        ("gnp", 8, 4, AdversaryKind::GreedyAvoid),
    ] {
        protocol(f, n, k, a, PROTOCOL_CUTOFF);
    }

    println!("--- worst converging protocol cells (expect AllParked, unchanged) ---");
    for (f, n, k, a) in [
        ("tree", 8, 2, AdversaryKind::GreedyAvoid),
        ("lollipop", 8, 4, AdversaryKind::GreedyAvoid),
        ("lollipop", 8, 2, AdversaryKind::EagerMeet),
    ] {
        protocol(f, n, k, a, PROTOCOL_CUTOFF);
    }

    println!("--- large-order cells under the adaptive policy (expect AllParked) ---");
    for (f, n, k, a) in [
        ("ring", 12, 2, AdversaryKind::RoundRobin),
        ("ring", 12, 3, AdversaryKind::GreedyAvoid),
        ("ring", 16, 2, AdversaryKind::RoundRobin),
        ("ring", 16, 3, AdversaryKind::EagerMeet),
        ("ring", 16, 2, AdversaryKind::GreedyAvoid),
    ] {
        protocol(f, n, k, a, LARGE_PROTOCOL_CUTOFF);
    }
}
