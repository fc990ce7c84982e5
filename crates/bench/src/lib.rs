#![forbid(unsafe_code)]
//! The evaluation of the reproduction: the scenario matrix and the
//! experiment binaries that regenerate the paper's tables and figures.
//!
//! * [`cells`] declares the scenario matrix as pure [`cells::CellSpec`]
//!   values and is the one recipe that turns a spec into a run: agents,
//!   run configuration, fault plan, adversary and stop policy. The
//!   `scenario_matrix` binary runs the declared cells into JSON-lines rows
//!   (`--only ID --trials 1` replays one cell), the probes under
//!   `examples/` open cells from it, and its content keys address the
//!   rows `rv_store` keeps.
//! * [`row`] is the row schema: the typed [`row::Row`] that renders each
//!   line, parses it back and carries `scenario_matrix --check`'s checks.
//! * The `expt_*` binaries each reproduce one table or figure, and their
//!   crate docs say what and how: T1 (the length recurrences), T2 (the
//!   bound `Π(n, m)`), F1 (cost vs graph order), F2 (cost vs labels), F3
//!   (ESST), F4 (SGL and its applications), F5 (adversary strength) and
//!   F6 (ablations). They build their own instances, which differ from
//!   the matrix cells by design.
//! * This module holds what they share: the SGL postcondition check,
//!   JSON-lines samples, table rendering and small statistics.

use serde::Serialize;

pub mod cells;
pub mod row;

// Atomic file replacement now lives in `rv_store` (the store's segment
// writes share it); re-exported so the experiment binaries keep their
// `rv_bench::write_atomic` spelling — and so the `api-atomic-output-write`
// lint has one blessed path to point at.
pub use rv_store::write_atomic;

/// One measured data point of an experiment, serialisable to JSON lines.
#[derive(Clone, Debug, Serialize)]
pub struct Sample {
    /// Experiment id (e.g. "F1").
    pub experiment: String,
    /// Graph family or scenario name.
    pub scenario: String,
    /// Graph order.
    pub n: usize,
    /// Adversary name (empty when not applicable).
    pub adversary: String,
    /// Free-form parameter column (label value, team size, …).
    pub param: u64,
    /// Measured cost (total edge traversals), `None` if the run was cut off.
    pub cost: Option<u64>,
}

/// Violations of Algorithm SGL's quiescence postcondition core, shared
/// by the scenario matrix's `complete` column and `expt_f4_sgl` so the
/// two cannot drift: every agent output exactly the full label set with
/// the right gossip values (`value_of(label)`), and the minimal agent
/// met every teammate — one bit test each in the runtime's who-met-whom
/// table ([`rv_sim::MeetingTally::pair_met`]). Returns one message per
/// violation (empty = postcondition holds). Callers layer their own
/// extras on top (expt F4 adds the `solve`-derived team-size / leader /
/// renaming consistency checks).
pub fn sgl_postcondition_violations<P: rv_explore::ExplorationProvider + Clone>(
    rt: &rv_sim::Runtime<rv_protocols::SglBehavior<P>>,
    labels: &[u64],
    value_of: impl Fn(u64) -> u64,
) -> Vec<String> {
    let mut out = Vec::new();
    let mut expected: Vec<u64> = labels.to_vec();
    expected.sort_unstable();
    for i in 0..rt.agent_count() {
        let Some(set) = rt.behavior(i).output() else {
            out.push(format!("agent {i} parked without an output"));
            continue;
        };
        if set.labels() != expected {
            out.push(format!(
                "agent {i} output the wrong label set {:?}",
                set.labels()
            ));
        }
        for (l, v) in set.iter() {
            if v != value_of(l) {
                out.push(format!("gossip value mismatch for label {l}"));
            }
        }
    }
    // The completion-threshold substitution's soundness condition
    // (see the `rv_protocols` crate docs): the minimal agent heard from everyone — directly
    // suffices, because its collection sweep visits every ghost.
    let min_idx = (0..rt.agent_count())
        .min_by_key(|&i| rt.behavior(i).label().value())
        .expect("at least two agents");
    let tally = rt.meetings();
    for j in 0..rt.agent_count() {
        if j != min_idx && !tally.pair_met(min_idx, j) {
            out.push(format!("the minimal agent never met agent {j}"));
        }
    }
    out
}

/// Prints a diagnostic to stderr and exits with a nonzero status — the
/// experiment binaries' failure path for I/O and usage errors (a clean
/// one-line message, not an `expect` backtrace).
pub fn fail(message: impl std::fmt::Display) -> ! {
    eprintln!("error: {message}");
    std::process::exit(2)
}

/// Renders a markdown-style table.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n## {title}\n");
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let line = |cells: &[String]| {
        let padded: Vec<String> = cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>w$}", c, w = widths[i]))
            .collect();
        println!("| {} |", padded.join(" | "));
    };
    line(&headers.iter().map(|s| s.to_string()).collect::<Vec<_>>());
    println!(
        "|{}|",
        widths
            .iter()
            .map(|w| "-".repeat(w + 2))
            .collect::<Vec<_>>()
            .join("|")
    );
    for row in rows {
        line(row);
    }
}

/// Least-squares slope of `log(y)` against `log(x)` — the empirical
/// polynomial degree of a cost curve. Ignores non-positive values.
pub fn loglog_slope(points: &[(f64, f64)]) -> f64 {
    let pts: Vec<(f64, f64)> = points
        .iter()
        .filter(|(x, y)| *x > 0.0 && *y > 0.0)
        .map(|(x, y)| (x.ln(), y.ln()))
        .collect();
    let n = pts.len() as f64;
    if pts.len() < 2 {
        return f64::NAN;
    }
    let sx: f64 = pts.iter().map(|p| p.0).sum();
    let sy: f64 = pts.iter().map(|p| p.1).sum();
    let sxx: f64 = pts.iter().map(|p| p.0 * p.0).sum();
    let sxy: f64 = pts.iter().map(|p| p.0 * p.1).sum();
    (n * sxy - sx * sy) / (n * sxx - sx * sx)
}

/// Median of a non-empty slice (clones and sorts).
pub fn median(xs: &[u64]) -> u64 {
    assert!(!xs.is_empty(), "median of empty slice");
    let mut v = xs.to_vec();
    v.sort_unstable();
    v[v.len() / 2]
}

/// Geometric mean of positive values.
pub fn geomean(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "geomean of empty slice");
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loglog_slope_recovers_power_laws() {
        let quad: Vec<(f64, f64)> = (1..20).map(|i| (i as f64, (i * i) as f64)).collect();
        assert!((loglog_slope(&quad) - 2.0).abs() < 1e-9);
        let cubic: Vec<(f64, f64)> = (1..20).map(|i| (i as f64, (i * i * i) as f64)).collect();
        assert!((loglog_slope(&cubic) - 3.0).abs() < 1e-9);
    }

    #[test]
    fn loglog_slope_detects_exponentials_as_superlinear_growth() {
        let exp: Vec<(f64, f64)> = (1..20).map(|i| (i as f64, (2f64).powi(i))).collect();
        assert!(loglog_slope(&exp) > 4.0);
    }

    #[test]
    fn median_and_geomean() {
        assert_eq!(median(&[5, 1, 9]), 5);
        assert_eq!(median(&[4]), 4);
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn samples_serialise_to_json_lines() {
        // The `--json` path of the experiment binaries depends on this
        // derive producing one self-contained JSON object per sample.
        let s = Sample {
            experiment: "F1".into(),
            scenario: "ring".into(),
            n: 12,
            adversary: "greedy-avoid".into(),
            param: 3,
            cost: Some(41),
        };
        assert_eq!(
            serde_json::to_string(&s).unwrap(),
            r#"{"experiment":"F1","scenario":"ring","n":12,"adversary":"greedy-avoid","param":3,"cost":41}"#
        );
        let cut = Sample { cost: None, ..s };
        assert!(serde_json::to_string(&cut)
            .unwrap()
            .ends_with(r#""cost":null}"#));
    }

    #[test]
    fn table_rendering_does_not_panic() {
        print_table(
            "demo",
            &["a", "b"],
            &[vec!["1".into(), "xx".into()], vec!["22".into(), "y".into()]],
        );
    }
}
