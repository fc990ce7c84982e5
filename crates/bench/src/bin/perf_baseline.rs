//! **perf_baseline** — the committed performance trajectory of the
//! simulator hot path.
//!
//! Times eleven fixed scenarios that together cover every layer the
//! experiments exercise — end-to-end rendezvous runs under two adversaries,
//! raw trajectory-cursor streaming, the memoized symmetry-quotiented
//! minimax search (shallow reference depths and the depth-14 headline the
//! plain enumeration cannot reach), a protocol-mode SGL run with
//! search-style snapshot checkpoints, the detector-on divergent matrix
//! slice (the 18 rendezvous cells the divergence detector retires
//! early), the certified large-order SGL quiescence headline
//! (`sgl_quiesce/ring16`), and the ABBA-interleaved stalled-slice pair
//! that prices the adaptive stall detector's per-step cadence on a fixed
//! 2M-traversal prefix — with warmup and repeated trials, and writes the
//! median ns/op per scenario as JSON (default
//! `BENCH_baseline.json`, the repo-root perf baseline future PRs are
//! compared against).
//!
//! Usage:
//!
//! ```text
//! perf_baseline [--quick] [--out PATH]   # measure and write JSON
//! perf_baseline --check PATH             # validate an existing JSON file
//! ```
//!
//! `--quick` runs fewer trials (CI smoke); `--check` verifies that the file
//! parses and covers all expected scenarios (used by CI after `--quick`).

// Timing harness: wall-clock here is the product, not a determinism leak.
#![allow(clippy::disallowed_methods)]
use rv_core::Label;
use rv_explore::SeededUxs;
use rv_graph::{GraphFamily, NodeId};
use rv_sim::adversary::AdversaryKind;
use rv_sim::{search_worst_case, RunConfig, RunEnd, Runtime, RvBehavior, SearchOptions};
use rv_trajectory::{Spec, TrajectoryCursor};
use serde::Serialize;
use std::time::Instant;

/// The scenarios a baseline file must cover, in reporting order.
pub const SCENARIOS: [&str; 11] = [
    "f1_rendezvous/ring12/greedy-avoid",
    "f1_rendezvous/ring12/lazy-second",
    "cursor_stream/gnp16/B8",
    "minimax/path3/depth10",
    "minimax/ring4/depth8",
    "minimax/ring4/depth14",
    "sgl/ring8/k3",
    "matrix_slice/diverge18",
    "sgl_quiesce/ring16",
    "sgl_stalled_slice/policy-off",
    "sgl_stalled_slice/policy-on",
];

/// One measured scenario, serialised into the baseline JSON.
#[derive(Clone, Debug, Serialize)]
struct Record {
    /// Scenario id (see [`SCENARIOS`]).
    scenario: String,
    /// Median over trials of per-operation wall time, nanoseconds.
    /// Fractional so high-throughput scenarios (tens of ns per op) keep
    /// sub-nanosecond resolution instead of quantizing to whole ns.
    median_ns_per_op: f64,
    /// Timed trials taken (after one warmup trial).
    trials: usize,
    /// Operations timed per trial.
    ops_per_trial: u64,
    /// What one operation is.
    unit: String,
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if let Some(i) = args.iter().position(|a| a == "--check") {
        let path = args
            .get(i + 1)
            .unwrap_or_else(|| rv_bench::fail("--check requires a path argument"));
        check(path);
        return;
    }
    let quick = args.iter().any(|a| a == "--quick");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .map(|i| {
            args.get(i + 1)
                .unwrap_or_else(|| rv_bench::fail("--out requires a path argument"))
                .clone()
        })
        .unwrap_or_else(|| "BENCH_baseline.json".to_string());
    let trials = if quick { 3 } else { 15 };

    let mut records = vec![
        rendezvous_scenario(AdversaryKind::GreedyAvoid, SCENARIOS[0], trials),
        rendezvous_scenario(AdversaryKind::LazySecond, SCENARIOS[1], trials),
        cursor_scenario(trials),
        minimax_scenario(trials),
        minimax_ring_scenario(trials),
        minimax_deep_scenario(trials),
    ];
    records.push(sgl_protocol_scenario(trials));
    records.push(matrix_slice_scenario(trials));
    records.push(sgl_quiesce_scenario(trials));
    records.extend(sgl_stalled_slice_scenarios(trials));

    let json = serde_json::to_string(&records).expect("records serialise");
    rv_bench::write_atomic(&out_path, format!("{json}\n"))
        .unwrap_or_else(|e| rv_bench::fail(format!("cannot write {out_path}: {e}")));
    println!("\nwrote {} scenarios to {out_path}", records.len());
}

/// Times `reps` calls of `op` per trial — where one call of `op` performs
/// `ops_per_rep` logical operations — and reports the median per-operation
/// nanoseconds (fractional) over `trials` timed trials, after one untimed
/// warmup trial.
fn measure(
    scenario: &str,
    unit: &str,
    trials: usize,
    reps: u64,
    ops_per_rep: u64,
    mut op: impl FnMut(),
) -> Record {
    for _ in 0..reps {
        op(); // warmup
    }
    let ops_per_trial = reps * ops_per_rep;
    let mut samples = Vec::with_capacity(trials);
    for _ in 0..trials {
        let start = Instant::now();
        for _ in 0..reps {
            op();
        }
        samples.push(start.elapsed().as_nanos() as f64 / ops_per_trial.max(1) as f64);
    }
    samples.sort_by(|a, b| a.partial_cmp(b).expect("durations are finite"));
    let med = samples[samples.len() / 2];
    println!("{scenario}: median {med:.2} ns/{unit} ({trials} trials x {ops_per_trial} ops)");
    Record {
        scenario: scenario.to_string(),
        median_ns_per_op: med,
        trials,
        ops_per_trial,
        unit: unit.to_string(),
    }
}

/// End-to-end F1 rendezvous on ring(12), labels (6, 9) — mirrors the
/// `rendezvous` criterion bench so numbers line up across harnesses.
fn rendezvous_scenario(kind: AdversaryKind, scenario: &str, trials: usize) -> Record {
    let uxs = SeededUxs::quadratic();
    let g = GraphFamily::Ring.generate(12, 5);
    measure(scenario, "run", trials, 20, 1, || {
        let agents = vec![
            RvBehavior::new(&g, uxs, NodeId(0), Label::new(6).unwrap()),
            RvBehavior::new(&g, uxs, NodeId(g.order() / 2), Label::new(9).unwrap()),
        ];
        let mut rt = Runtime::new(&g, agents, RunConfig::rendezvous());
        let mut adv = kind.build(3);
        let out = rt.run(adv.as_mut());
        assert_eq!(out.end, RunEnd::Meeting, "{scenario} must rendezvous");
        std::hint::black_box(out.total_traversals);
    })
}

/// Raw cursor streaming throughput: ns per traversal over a deep `B(8)`
/// trajectory on a Gnp graph — the simulator's inner-loop cost.
fn cursor_scenario(trials: usize) -> Record {
    const STEPS: u64 = 100_000;
    let uxs = SeededUxs::quadratic();
    let g = GraphFamily::Gnp.generate(16, 9);
    measure(SCENARIOS[2], "traversal", trials, 1, STEPS, || {
        let mut cur = TrajectoryCursor::new(&g, uxs, NodeId(0));
        cur.push(Spec::B(8));
        for _ in 0..STEPS {
            std::hint::black_box(cur.next_traversal());
        }
    })
}

/// The two-agent behavior set every minimax scenario searches over:
/// labels (1, 2) starting at opposite ends of the graph.
fn minimax_agents<'g>(g: &'g rv_graph::Graph, uxs: SeededUxs) -> Vec<RvBehavior<'g, SeededUxs>> {
    vec![
        RvBehavior::new(g, uxs, NodeId(0), Label::new(1).unwrap()),
        RvBehavior::new(g, uxs, NodeId(2), Label::new(2).unwrap()),
    ]
}

/// Memoized worst-case search (the F5c calibration reference) on path(3)
/// with real RV agents, horizon 10 actions, quotienting fingerprints by
/// the path's reflection group. The golden leaf count (724, see
/// `crates/sim/tests/memo_equivalence.rs`) is asserted so the baseline
/// can never silently time a semantically different search.
fn minimax_scenario(trials: usize) -> Record {
    let uxs = SeededUxs::quadratic();
    let g = rv_graph::generators::path(3);
    let autos = GraphFamily::Path.automorphisms(&g);
    let opts = SearchOptions {
        automorphisms: Some(&autos),
        ..SearchOptions::default()
    };
    measure(SCENARIOS[3], "search", trials, 1, 1, || {
        let report = search_worst_case(&g, || minimax_agents(&g, uxs), 10, &opts);
        assert_eq!(report.worst.schedules_explored, 724, "golden leaf count");
        std::hint::black_box(report.worst.schedules_explored);
    })
}

/// Memoized worst-case search on ring(4), horizon 8 — a wider schedule
/// tree than `path3` (both agents stay mobile on a cycle), quotiented by
/// the ring's full dihedral group. Golden leaf count 196.
fn minimax_ring_scenario(trials: usize) -> Record {
    let uxs = SeededUxs::quadratic();
    let g = rv_graph::generators::ring(4);
    let autos = GraphFamily::Ring.automorphisms(&g);
    let opts = SearchOptions {
        automorphisms: Some(&autos),
        ..SearchOptions::default()
    };
    measure(SCENARIOS[4], "search", trials, 1, 1, || {
        let report = search_worst_case(&g, || minimax_agents(&g, uxs), 8, &opts);
        assert_eq!(report.worst.schedules_explored, 196, "golden leaf count");
        std::hint::black_box(report.worst.schedules_explored);
    })
}

/// Memoized search on ring(4) to horizon 14 — the depth plain enumeration
/// does not reach in interactive time (the unmemoized tree is hundreds of
/// times the depth-8 one; the transposition table collapses it to
/// milliseconds). Tracks the headline *capability* the table buys, not
/// just the speedup on trees the old search could already finish.
fn minimax_deep_scenario(trials: usize) -> Record {
    let uxs = SeededUxs::quadratic();
    let g = rv_graph::generators::ring(4);
    let autos = GraphFamily::Ring.automorphisms(&g);
    let opts = SearchOptions {
        automorphisms: Some(&autos),
        ..SearchOptions::default()
    };
    measure(SCENARIOS[5], "search", trials, 1, 1, || {
        let report = search_worst_case(&g, || minimax_agents(&g, uxs), 14, &opts);
        assert!(report.worst.schedules_explored > 0);
        std::hint::black_box(report.worst.schedules_explored);
    })
}

/// Protocol-mode SGL gossip on ring(8) with k = 3 agents under the fair
/// scheduler, checkpointing with [`Runtime::snapshot`] every 32 adversary
/// actions — the cadence a search over protocol schedules would use. The
/// run is a fixed-work prefix (cut off at 40k total traversals, well
/// before quiescence at ~1.3M) so the scenario times a deterministic
/// amount of protocol progress: the meeting log grows with gossip for the
/// whole prefix (meetings are exchanges, not terminals), so this scenario
/// prices both the per-run outcome handoff and repeated mid-run snapshots
/// of an ever-longer log.
fn sgl_protocol_scenario(trials: usize) -> Record {
    use rv_protocols::{SglBehavior, SglConfig};
    const SGL_CUTOFF: u64 = 40_000;
    let uxs = SeededUxs::quadratic();
    let g = GraphFamily::Ring.generate(8, 5);
    let labels: [u64; 3] = [6, 9, 14];
    measure(SCENARIOS[6], "run", trials, 5, 1, || {
        let agents: Vec<_> = labels
            .iter()
            .enumerate()
            .map(|(i, &l)| {
                SglBehavior::new(
                    &g,
                    uxs,
                    NodeId(i * g.order() / labels.len()),
                    Label::new(l).unwrap(),
                    l + 1000,
                    SglConfig::default(),
                )
            })
            .collect();
        let mut rt = Runtime::new(&g, agents, RunConfig::protocol().with_cutoff(SGL_CUTOFF));
        let mut adv = AdversaryKind::RoundRobin.build(3);
        let mut meetings = Vec::new();
        // `Runtime::step` is `run()`'s own loop body, driven manually so a
        // snapshot checkpoint can fire every 32 actions.
        while rt.step(adv.as_mut(), &mut meetings).is_none() {
            if rt.actions().is_multiple_of(32) {
                std::hint::black_box(rt.snapshot().actions());
            }
        }
        assert_eq!(rt.total_traversals(), SGL_CUTOFF, "fixed-work prefix");
        std::hint::black_box(rt.actions());
    })
}

/// The detector-on divergent matrix slice: the 18 rendezvous matrix
/// cells (all `unscaled`-ablation) whose piece number stagnates while
/// cost grows, each run to retirement under `DivergenceDetector`. Before
/// the stop-policy layer each of these burned the full 100k-traversal
/// matrix budget; the detector retires each at ≈ 5.1k, so this scenario
/// prices exactly what the matrix saves — plus the detector's own
/// progress-record overhead on the run loop.
fn matrix_slice_scenario(trials: usize) -> Record {
    use rv_core::RvVariant;
    use rv_sim::DivergenceDetector;
    // The 18 F6-divergence cells of the scenario matrix (family, order,
    // adversary), graph seed 5, labels (6, 9), adversary seed 3.
    let slice: [(GraphFamily, usize, AdversaryKind); 18] = [
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
    let unscaled = RvVariant {
        scaled_params: false,
        ..RvVariant::default()
    };
    let uxs = SeededUxs::quadratic();
    let graphs: Vec<_> = slice
        .iter()
        .map(|&(fam, n, _)| fam.generate(n, 5))
        .collect();
    measure(SCENARIOS[7], "run", trials, 2, 18, || {
        for (i, &(_, _, kind)) in slice.iter().enumerate() {
            let g = &graphs[i];
            let agents = vec![
                RvBehavior::with_variant(g, uxs, NodeId(0), Label::new(6).unwrap(), unscaled),
                RvBehavior::with_variant(
                    g,
                    uxs,
                    NodeId(g.order() / 2),
                    Label::new(9).unwrap(),
                    unscaled,
                ),
            ];
            let mut rt = Runtime::new(g, agents, RunConfig::rendezvous().with_cutoff(100_000));
            let mut adv = kind.build(3);
            let mut policy = DivergenceDetector::default();
            let out = rt.run_with_policy(adv.as_mut(), &mut policy);
            assert_eq!(out.end, RunEnd::Diverged, "slice cells must diverge");
            std::hint::black_box(out.total_traversals);
        }
    })
}

/// The certified large-order SGL quiescence headline: ring(16), k = 2,
/// `lazy(1)` — the adversary that pins the token ghost at a node forever.
/// Before the suspended-token certificate this cell needed ≈ 19.6M
/// traversals to quiesce naturally; the explorer's ESST now certifies the
/// pinned token and closes Phase 1 early, retiring the whole run at the
/// pinned cost below (a > 30× cut). The exact quiescence cost is asserted
/// in the timed body so the baseline can never silently time a
/// semantically different run.
fn sgl_quiesce_scenario(trials: usize) -> Record {
    use rv_protocols::{SglBehavior, SglConfig};
    use rv_sim::AdaptiveThreshold;
    const QUIESCE_COST: u64 = 645_705;
    let uxs = SeededUxs::quadratic();
    let g = GraphFamily::Ring.generate(16, 5);
    let labels: [u64; 2] = [6, 9];
    measure(SCENARIOS[8], "run", trials, 1, 1, || {
        let agents: Vec<_> = labels
            .iter()
            .enumerate()
            .map(|(i, &l)| {
                SglBehavior::new(
                    &g,
                    uxs,
                    NodeId(i * g.order() / labels.len()),
                    Label::new(l).unwrap(),
                    l + 1000,
                    SglConfig::default(),
                )
            })
            .collect();
        let mut rt = Runtime::new(&g, agents, RunConfig::protocol().with_cutoff(50_000_000));
        let mut adv = AdversaryKind::LazySecond.build(3);
        let mut policy = AdaptiveThreshold::default();
        let out = rt.run_with_policy(adv.as_mut(), &mut policy);
        assert_eq!(out.end, RunEnd::AllParked, "ring16/lazy(1) must quiesce");
        assert_eq!(
            out.total_traversals, QUIESCE_COST,
            "certified quiescence cost"
        );
        std::hint::black_box(out.actions);
    })
}

/// The stalled-slice pair: the same fixed 2M-traversal SGL prefix
/// (ring(16), k = 2, round-robin, suspension census disarmed so the run
/// cannot retire early) timed with the adaptive stall detector off and
/// on. The two scenarios differ only in the per-step `StopPolicy` work,
/// so their ratio prices the detector's cadence on a multi-million-
/// traversal run. Trials are **ABBA-interleaved** (off-on on even trials,
/// on-off on odd ones) so slow drift — thermal, frequency, cache — lands
/// symmetrically on both medians instead of biasing whichever ran last.
fn sgl_stalled_slice_scenarios(trials: usize) -> Vec<Record> {
    use rv_protocols::{SglBehavior, SglConfig};
    use rv_sim::AdaptiveThreshold;
    const PREFIX: u64 = 2_000_000;
    let uxs = SeededUxs::quadratic();
    let g = GraphFamily::Ring.generate(16, 5);
    let labels: [u64; 2] = [6, 9];
    let config = SglConfig {
        suspension: None,
        ..SglConfig::default()
    };
    let run = |with_policy: bool| {
        let agents: Vec<_> = labels
            .iter()
            .enumerate()
            .map(|(i, &l)| {
                SglBehavior::new(
                    &g,
                    uxs,
                    NodeId(i * g.order() / labels.len()),
                    Label::new(l).unwrap(),
                    l + 1000,
                    config,
                )
            })
            .collect();
        let mut rt = Runtime::new(&g, agents, RunConfig::protocol().with_cutoff(PREFIX));
        let mut adv = AdversaryKind::RoundRobin.build(3);
        let start = Instant::now();
        let out = if with_policy {
            let mut policy = AdaptiveThreshold::default();
            rt.run_with_policy(adv.as_mut(), &mut policy)
        } else {
            rt.run(adv.as_mut())
        };
        let elapsed = start.elapsed();
        assert_eq!(out.end, RunEnd::Cutoff, "the prefix must be fixed work");
        assert_eq!(out.total_traversals, PREFIX, "fixed-work prefix");
        std::hint::black_box(out.actions);
        elapsed.as_nanos() as f64
    };
    // Warmup both variants once, then interleave.
    run(false);
    run(true);
    let mut off = Vec::with_capacity(trials);
    let mut on = Vec::with_capacity(trials);
    for t in 0..trials {
        if t % 2 == 0 {
            off.push(run(false));
            on.push(run(true));
        } else {
            on.push(run(true));
            off.push(run(false));
        }
    }
    let median = |mut v: Vec<f64>| {
        v.sort_by(|a, b| a.partial_cmp(b).expect("durations are finite"));
        v[v.len() / 2]
    };
    let (m_off, m_on) = (median(off), median(on));
    println!(
        "{}: median {m_off:.2} ns/run ({trials} trials x 1 ops)",
        SCENARIOS[9]
    );
    println!(
        "{}: median {m_on:.2} ns/run ({trials} trials x 1 ops)",
        SCENARIOS[10]
    );
    vec![
        Record {
            scenario: SCENARIOS[9].to_string(),
            median_ns_per_op: m_off,
            trials,
            ops_per_trial: 1,
            unit: "run".to_string(),
        },
        Record {
            scenario: SCENARIOS[10].to_string(),
            median_ns_per_op: m_on,
            trials,
            ops_per_trial: 1,
            unit: "run".to_string(),
        },
    ]
}

/// `--check`: the CI smoke gate. Asserts the file parses as JSON and has a
/// positive `median_ns_per_op` for every expected scenario. Not a timing
/// gate — numbers are machine-dependent; coverage and well-formedness are
/// not.
fn check(path: &str) {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| rv_bench::fail(format!("cannot read baseline file {path}: {e}")));
    let doc = serde_json::from_str(&text)
        .unwrap_or_else(|e| panic!("baseline file {path} is not valid JSON: {e}"));
    let records = doc
        .as_array()
        .unwrap_or_else(|| panic!("baseline file {path} must be a JSON array"));
    for scenario in SCENARIOS {
        let rec = records
            .iter()
            .find(|r| r.get("scenario").and_then(|s| s.as_str()) == Some(scenario))
            .unwrap_or_else(|| panic!("baseline file {path} is missing scenario {scenario}"));
        let ns = rec
            .get("median_ns_per_op")
            .and_then(|v| v.as_f64())
            .unwrap_or_else(|| panic!("scenario {scenario} has no numeric median_ns_per_op"));
        assert!(ns > 0.0, "scenario {scenario} has zero timing");
    }
    println!("{path}: OK — {} scenarios covered", SCENARIOS.len());
}
