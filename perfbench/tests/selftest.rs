//! Self-tests of the benchmark: the traced path computes exactly what the
//! engine's own loop computes, the metric catalogue matches
//! `BENCHMARK.json`, and the benchmark's sources pass the repository's lint
//! gate.

use perfbench::timed::{run_traced, Timed};
use perfbench::{workloads, END_TO_END, PER_LAYER};
use rv_bench::cells::{cells, CellKind, CellSpec, ADVERSARY_SEED, LABELS, SGL_LABELS};
use rv_core::Label;
use rv_explore::SeededUxs;
use rv_graph::{Graph, NodeId};
use rv_protocols::{SglBehavior, SglConfig};
use rv_sim::{
    search_worst_case, AdaptiveThreshold, Behavior, DivergenceDetector, RunConfig, RunEnd,
    RunOutcome, Runtime, RvBehavior, SearchOptions, StopPolicy,
};
use std::path::Path;

fn cell(id: &str) -> CellSpec {
    cells()
        .into_iter()
        .find(|c| c.scenario_id() == id)
        .unwrap_or_else(|| panic!("{id} is a declared matrix cell"))
}

fn assert_same(plain: &RunOutcome, traced: &RunOutcome) {
    assert_eq!(plain.end, traced.end);
    assert_eq!(plain.total_traversals, traced.total_traversals);
    assert_eq!(plain.per_agent, traced.per_agent);
    assert_eq!(plain.actions, traced.actions);
    assert_eq!(plain.meetings, traced.meetings, "meeting logs differ");
}

/// Runs `spec` both ways — `Runtime::run_with_policy` on the real
/// behaviours, and the wrappers driven by `run_traced` inside a tracing
/// session — and returns both outcomes.
fn both_ways<B: Behavior, P: StopPolicy>(
    g: &Graph,
    spec: &CellSpec,
    make: impl Fn() -> Vec<B>,
    policy: impl Fn() -> P,
    config: RunConfig,
) -> (RunOutcome, RunOutcome) {
    let mut rt = Runtime::new(g, make(), config);
    let plain = rt.run_with_policy(spec.adversary.build(ADVERSARY_SEED).as_mut(), &mut policy());
    perfbench::trace::start();
    let wrapped: Vec<Timed<B>> = make().into_iter().map(Timed).collect();
    let mut rt = Runtime::new(g, wrapped, config);
    let traced = run_traced(
        &mut rt,
        config,
        &mut Timed(spec.adversary.build(ADVERSARY_SEED)),
        &mut Timed(policy()),
    );
    let table = perfbench::trace::finish();
    assert!(
        table.span(perfbench::trace::Span::Apply).calls > 0,
        "the traced loop records spans"
    );
    (plain, traced)
}

#[test]
fn traced_rendezvous_runs_are_bit_identical_to_run_with_policy() {
    let uxs = SeededUxs::quadratic();
    // One converging cell and one the divergence detector retires.
    for (id, end) in [
        ("ring12/greedy-avoid/paper", RunEnd::Meeting),
        ("ring8/lazy(1)/unscaled", RunEnd::Diverged),
    ] {
        let spec = cell(id);
        let CellKind::Rendezvous { variant, .. } = spec.kind else {
            panic!("{id} is a rendezvous cell")
        };
        let g = spec.graph();
        let make = || {
            let agent = |start, l| {
                let label = Label::new(l).expect("positive label");
                RvBehavior::with_variant(&g, uxs, start, label, variant)
            };
            vec![
                agent(NodeId(0), LABELS.0),
                agent(NodeId(g.order() / 2), LABELS.1),
            ]
        };
        let config = RunConfig::rendezvous().with_cutoff(spec.cutoff(false));
        let (plain, traced) = both_ways(&g, &spec, make, DivergenceDetector::default, config);
        assert_eq!(plain.end, end, "{id}");
        assert_same(&plain, &traced);
    }
}

#[test]
fn traced_protocol_runs_are_bit_identical_to_run_with_policy() {
    let spec = cell("ring5/eager-meet/sgl-k2");
    let CellKind::Sgl { k, .. } = spec.kind else {
        panic!("a protocol cell")
    };
    let g = spec.graph();
    let make = || {
        (0..k)
            .map(|i| {
                let l = SGL_LABELS[i];
                let label = Label::new(l).expect("positive label");
                let start = NodeId(i * g.order() / k);
                let uxs = SeededUxs::quadratic();
                SglBehavior::new(&g, uxs, start, label, l + 1000, SglConfig::default())
            })
            .collect::<Vec<_>>()
    };
    let config = RunConfig::protocol().with_cutoff(spec.cutoff(false));
    let (plain, traced) = both_ways(&g, &spec, make, AdaptiveThreshold::default, config);
    assert_eq!(plain.end, RunEnd::AllParked);
    assert_same(&plain, &traced);
}

#[test]
fn wrapped_behaviours_search_to_the_same_worst_case() {
    let uxs = SeededUxs::quadratic();
    let g = rv_graph::generators::path(3);
    let agents = || {
        vec![
            RvBehavior::new(&g, uxs, NodeId(0), Label::new(1).expect("label 1")),
            RvBehavior::new(&g, uxs, NodeId(2), Label::new(2).expect("label 2")),
        ]
    };
    let opts = SearchOptions {
        workers: Some(1),
        ..SearchOptions::default()
    };
    let plain = search_worst_case(&g, agents, 10, &opts);
    let wrapped = search_worst_case(&g, || agents().into_iter().map(Timed).collect(), 10, &opts);
    assert_eq!(plain.worst, wrapped.worst);
    assert_eq!(plain.memo, wrapped.memo, "the fork and look-ahead delegate");
    assert_eq!(plain.worst.schedules_explored, 724);
}

fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

fn valid_unit(unit: &str) -> bool {
    (1..=16).contains(&unit.len())
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

#[test]
fn metric_names_and_units_are_well_formed_and_unique() {
    let mut names: Vec<&str> = Vec::new();
    for (name, unit, better, bound) in END_TO_END {
        assert!(valid_name(name) && valid_unit(unit), "{name} [{unit}]");
        assert!(["lower", "higher"].contains(&better));
        assert!(bound > 0.0 && bound <= 0.25, "{name} bound {bound}");
        names.push(name);
    }
    for (name, unit, better) in PER_LAYER {
        assert!(valid_name(name) && valid_unit(unit), "{name} [{unit}]");
        assert!(["lower", "higher"].contains(&better));
        names.push(name);
    }
    let total = names.len();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), total, "metric names must be unique");
}

#[test]
fn benchmark_json_declares_exactly_what_the_benchmark_prints() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json sits at the repository root");
    let json = serde_json::from_str(&text).expect("BENCHMARK.json parses");
    let list = |key: &str| {
        json.get(key)
            .and_then(|v| v.as_array())
            .unwrap_or_else(|| panic!("{key} is a list"))
            .to_vec()
    };
    let field = |v: &serde_json::Value, k: &str| {
        v.get(k)
            .and_then(|x| x.as_str())
            .unwrap_or_else(|| panic!("{k} is a string"))
            .to_string()
    };
    let workloads: Vec<String> = list("workloads").iter().map(|w| field(w, "name")).collect();
    assert_eq!(workloads, workloads::NAMES.map(str::to_string));
    let e2e = list("end_to_end");
    assert_eq!(e2e.len(), END_TO_END.len());
    for (m, (name, unit, better, bound)) in e2e.iter().zip(END_TO_END) {
        assert_eq!(
            (field(m, "name"), field(m, "unit"), field(m, "better")),
            (name.to_string(), unit.to_string(), better.to_string())
        );
        assert_eq!(
            m.get("bound").and_then(|b| b.as_f64()),
            Some(bound),
            "{name}"
        );
    }
    let layers = list("per_layer");
    assert_eq!(layers.len(), PER_LAYER.len());
    for (m, (name, unit, better)) in layers.iter().zip(PER_LAYER) {
        assert_eq!(
            (field(m, "name"), field(m, "unit"), field(m, "better")),
            (name.to_string(), unit.to_string(), better.to_string())
        );
    }
}

#[test]
fn benchmark_sources_pass_the_repository_lint_gate() {
    // Scanned from the repository root, so the files are classified
    // exactly as the workspace gate (`workspace_lints_clean`) sees them.
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark sits under the repository root");
    let report = rv_lint::scan(root).expect("the repository scans");
    let ours: Vec<String> = report
        .findings
        .iter()
        .filter(|f| f.path.starts_with("perfbench/"))
        .map(ToString::to_string)
        .collect();
    assert!(ours.is_empty(), "lint findings:\n{}", ours.join("\n"));
}
