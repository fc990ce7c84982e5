//! `scenario_matrix --check`, made executable: every assertion the check
//! makes has a mutated real row here that the parse ([`Row::parse`]) or
//! the typed check ([`Row::check`], [`check_rows`]) rejects, with the
//! reason it must give.
//!
//! The real rows are `fixtures/rows.jsonl`: one full-budget row per
//! mode, end, fault and certificate shape, and one smoke `Cutoff` row.

use rv_bench::cells::{cells, CellSpec};
use rv_bench::row::{check_rows, Certificate, End, Faults, Mode, Policy, Row};

const FIXTURES: &str = include_str!("fixtures/rows.jsonl");

const MEETING: &str = "ring8/round-robin/paper";
const DIVERGED: &str = "ring16/round-robin/unscaled";
const QUIESCED: &str = "ring5/round-robin/sgl-k2";
const TWO_CERTS: &str = "ring6/eager-meet/sgl-k4";
const UNCERTIFIED: &str = "tree5/round-robin/sgl-k3";
const STALLED: &str = "gnp8/greedy-avoid/sgl-k4+nocert";
const CHAOS: &str = "ring6/round-robin/sgl-k3+f1";
const CHAOS_UNCERTIFIED: &str = "ring6/round-robin/sgl-k3+f3";
const MINIMAX: &str = "ring4/worst-case/memo-d14";
const CUTOFF: &str = "ring8/greedy-avoid/sgl-k4";

fn spec(id: &str) -> CellSpec {
    cells()
        .into_iter()
        .find(|c| c.scenario_id() == id)
        .unwrap_or_else(|| panic!("{id} is a declared cell"))
}

fn line(id: &str) -> &'static str {
    let prefix = format!("{{\"scenario\":\"{id}\",");
    FIXTURES
        .lines()
        .find(|l| l.starts_with(&prefix))
        .unwrap_or_else(|| panic!("{id} has a fixture row"))
}

/// The fixture line of `id` with `from` replaced by `to`.
fn edit(id: &str, from: &str, to: &str) -> String {
    let line = line(id);
    assert!(line.contains(from), "{id} has no {from:?}");
    line.replacen(from, to, 1)
}

/// The fixture row of `id`, changed by `change` and rendered.
fn mutate(id: &str, change: impl FnOnce(&mut Row)) -> String {
    let mut row = Row::parse(line(id)).expect("fixtures parse");
    change(&mut row);
    row.render()
}

/// Why `line` fails `--check`: its parse error, else its typed check
/// error against the cell its scenario id declares; empty if it passes.
fn rejection(line: &str) -> String {
    match Row::parse(line) {
        Err(e) => e.to_string(),
        Ok(row) => row.check(&spec(&row.scenario)).err().unwrap_or_default(),
    }
}

#[test]
fn the_fixture_rows_pass_the_check() {
    let ids = [
        MEETING,
        DIVERGED,
        QUIESCED,
        TWO_CERTS,
        UNCERTIFIED,
        STALLED,
        CHAOS,
        CHAOS_UNCERTIFIED,
        MINIMAX,
        CUTOFF,
    ];
    assert_eq!(FIXTURES.lines().count(), ids.len());
    for id in ids {
        assert_eq!(rejection(line(id)), "", "{id}");
    }
    let certs = |id| Row::parse(line(id)).unwrap().certificate.map(|c| c.0.len());
    assert_eq!(certs(QUIESCED), Some(1));
    assert_eq!(certs(TWO_CERTS), Some(2));
}

#[test]
fn each_check_assertion_rejects_its_mutated_row() {
    let cases: Vec<(&str, String, &str)> = vec![
        // What the parse rejects.
        (
            "not JSON",
            line(MEETING)[..40].to_string(),
            "not valid JSON",
        ),
        (
            "missing field",
            edit(MEETING, "\"trials\":1,", ""),
            "column trials",
        ),
        (
            "scenario not a string",
            edit(MEETING, "\"ring8/round-robin/paper\"", "8"),
            "column scenario",
        ),
        (
            "unknown mode",
            edit(MEETING, "\"rendezvous\"", "\"sprint\""),
            "column mode",
        ),
        (
            "unknown policy",
            edit(MEETING, "\"divergence\"", "\"patience\""),
            "column policy",
        ),
        (
            "unknown end",
            edit(MEETING, "\"Meeting\"", "\"Timeout\""),
            "column end",
        ),
        (
            "unknown faults",
            edit(MEETING, "\"none\"", "\"random\""),
            "column faults",
        ),
        (
            "malformed seed",
            edit(CHAOS, "seeded:1", "seeded:one"),
            "column faults",
        ),
        (
            "certificate not a string",
            edit(QUIESCED, "\"a0:phase18/s7977/sp60000\"", "7"),
            "column certificate",
        ),
        (
            "malformed certificate",
            edit(QUIESCED, "/sp60000", ""),
            "column certificate",
        ),
        (
            "empty certificate",
            edit(QUIESCED, "a0:phase18/s7977/sp60000", ""),
            "column certificate",
        ),
        (
            "agents not a count",
            edit(MEETING, "\"agents\":2", "\"agents\":-2"),
            "column agents",
        ),
        (
            "cutoff not a count",
            edit(MEETING, "\"cutoff\":100000", "\"cutoff\":\"100000\""),
            "column cutoff",
        ),
        (
            "traversals not a count",
            edit(MEETING, "\"traversals\":16", "\"traversals\":1.5"),
            "column traversals",
        ),
        (
            "timing not numeric",
            edit(
                MEETING,
                "\"median_ns_per_run\":",
                "\"median_ns_per_run\":\"x\",\"\":",
            ),
            "column median_ns_per_run",
        ),
        (
            "trials not a count",
            edit(MEETING, "\"trials\":1", "\"trials\":null"),
            "column trials",
        ),
        (
            "cost not a count",
            edit(MEETING, "\"cost\":16", "\"cost\":\"16\""),
            "column cost",
        ),
        (
            "tt_hits not a count",
            edit(MINIMAX, "\"tt_hits\":", "\"tt_hits\":true,\"x\":"),
            "column tt_hits",
        ),
        (
            "complete not a flag",
            edit(QUIESCED, "\"complete\":true", "\"complete\":1"),
            "column complete",
        ),
        (
            "not canonical",
            edit(MEETING, "\"n\":8,", "\"n\": 8,"),
            "canonical",
        ),
        // What the typed check rejects: the descriptive columns against
        // the declared cell (wrong policy, faults against the `+f<seed>`
        // suffix), then the outcome columns.
        (
            "wrong policy",
            mutate(MEETING, |r| r.policy = Policy::Adaptive),
            "descriptive",
        ),
        (
            "wrong mode",
            mutate(QUIESCED, |r| r.mode = Mode::Rendezvous),
            "descriptive",
        ),
        (
            "seed off its suffix",
            mutate(CHAOS, |r| r.faults = Faults::Seeded(2)),
            "descriptive",
        ),
        (
            "chaos seed on a clean cell",
            mutate(QUIESCED, |r| r.faults = Faults::Seeded(1)),
            "descriptive",
        ),
        (
            "chaos seed on a rendezvous cell",
            mutate(MEETING, |r| r.faults = Faults::Seeded(1)),
            "descriptive",
        ),
        (
            "chaos cell without its seed",
            mutate(CHAOS, |r| r.faults = Faults::None),
            "descriptive",
        ),
        (
            "wrong family",
            mutate(MEETING, |r| r.family = "path".into()),
            "descriptive",
        ),
        ("wrong order", mutate(MEETING, |r| r.n = 12), "descriptive"),
        (
            "wrong adversary",
            mutate(MEETING, |r| r.adversary = "lazy(1)".into()),
            "descriptive",
        ),
        (
            "wrong variant",
            mutate(MEETING, |r| r.variant = "unscaled".into()),
            "descriptive",
        ),
        (
            "wrong team size",
            mutate(QUIESCED, |r| r.agents = 3),
            "descriptive",
        ),
        (
            "fewer than two agents",
            mutate(MEETING, |r| r.agents = 1),
            "fewer than two agents",
        ),
        (
            "certified rendezvous row",
            mutate(MEETING, |r| r.certificate = certificate(QUIESCED)),
            "only protocol cells can certify",
        ),
        (
            "certified +nocert row",
            mutate(STALLED, |r| r.certificate = certificate(QUIESCED)),
            "+nocert",
        ),
        (
            "Searched off minimax",
            mutate(MEETING, |r| r.end = End::Searched),
            "Searched",
        ),
        (
            "minimax not Searched",
            mutate(MINIMAX, |r| r.end = End::Meeting),
            "Searched",
        ),
        (
            "protocol Meeting",
            mutate(QUIESCED, |r| (r.end, r.complete) = (End::Meeting, None)),
            "never stop at a meeting",
        ),
        (
            "protocol Diverged",
            mutate(STALLED, |r| r.end = End::Diverged),
            "only rendezvous cells can diverge",
        ),
        (
            "rendezvous Stalled",
            mutate(DIVERGED, |r| r.end = End::Stalled),
            "only protocol cells can stall",
        ),
        (
            "crash end without faults",
            mutate(QUIESCED, |r| {
                (r.end, r.complete) = (End::SurvivorsParked, None)
            }),
            "crash ends",
        ),
        (
            "all crashed without faults",
            mutate(UNCERTIFIED, |r| {
                (r.end, r.complete) = (End::AllCrashed, None)
            }),
            "crash ends",
        ),
        (
            "zero cutoff",
            mutate(MEETING, |r| r.cutoff = 0),
            "zero cutoff",
        ),
        (
            "past the cutoff",
            mutate(QUIESCED, |r| r.traversals = r.cutoff + 1),
            "ran past its cutoff",
        ),
        (
            "Cutoff short of the cutoff",
            mutate(CUTOFF, |r| r.traversals -= 1),
            "a Cutoff row stops exactly",
        ),
        (
            "Diverged at the budget",
            mutate(DIVERGED, |r| r.traversals = r.cutoff),
            "detector row",
        ),
        (
            "Stalled at the budget",
            mutate(STALLED, |r| r.traversals = r.cutoff),
            "detector row",
        ),
        (
            "zero timing",
            mutate(MEETING, |r| r.median_ns_per_run = 0.0),
            "zero timing",
        ),
        (
            "zero trials",
            mutate(MEETING, |r| r.trials = 0),
            "zero trials",
        ),
        (
            "Meeting without cost",
            mutate(MEETING, |r| r.cost = None),
            "cost",
        ),
        (
            "minimax without cost",
            mutate(MINIMAX, |r| r.cost = None),
            "cost",
        ),
        (
            "cost without a meeting",
            mutate(DIVERGED, |r| r.cost = Some(1)),
            "cost",
        ),
        (
            "tt_hits off minimax",
            mutate(MEETING, |r| r.tt_hits = Some(1)),
            "tt_hits",
        ),
        (
            "minimax without tt_entries",
            mutate(MINIMAX, |r| r.tt_entries = None),
            "tt_entries",
        ),
        (
            "incomplete quiesced row",
            mutate(QUIESCED, |r| r.complete = Some(false)),
            "completeness",
        ),
        (
            "quiesced row without complete",
            mutate(UNCERTIFIED, |r| r.complete = None),
            "completeness",
        ),
        (
            "complete on a chaos row",
            mutate(CHAOS, |r| r.complete = Some(true)),
            "complete off",
        ),
        (
            "complete on a Cutoff row",
            mutate(CUTOFF, |r| r.complete = Some(true)),
            "complete off",
        ),
    ];
    let mut failures = Vec::new();
    for (what, line, reason) in &cases {
        let got = rejection(line);
        if got.is_empty() || !got.contains(reason) {
            failures.push(format!("{what}: want {reason:?}, got {got:?}\n  {line}"));
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

fn certificate(id: &str) -> Option<Certificate> {
    Row::parse(line(id)).unwrap().certificate
}

/// A row for every declared cell that passes the check: a meeting, a
/// smoke `Cutoff` or a search, by mode.
fn population() -> Vec<Row> {
    let row = |spec: &CellSpec| {
        let cutoff = spec.cutoff(true);
        let row = match spec.mode() {
            Mode::Rendezvous => Row {
                cost: Some(1),
                traversals: 1,
                ..Row::new(spec, cutoff, 1, End::Meeting)
            },
            Mode::Protocol => Row {
                traversals: cutoff,
                ..Row::new(spec, cutoff, 1, End::Cutoff)
            },
            Mode::Minimax => Row {
                cost: Some(1),
                tt_hits: Some(0),
                tt_entries: Some(0),
                ..Row::new(spec, cutoff, 1, End::Searched)
            },
        };
        Row {
            median_ns_per_run: 1.0,
            ..row
        }
    };
    cells().iter().map(row).collect()
}

fn file(rows: &[Row]) -> String {
    rows.iter().map(|r| r.render() + "\n").collect()
}

#[test]
fn a_row_for_every_declared_cell_passes_and_is_counted() {
    let rows = check_rows("pop", &file(&population())).expect("the population passes");
    let count = |mode| rows.iter().filter(|r| r.mode == mode).count();
    assert_eq!(
        (rows.len(), count(Mode::Protocol), count(Mode::Minimax)),
        (454, 209, 5)
    );
}

#[test]
fn coverage_duplicate_and_foreign_rows_are_rejected() {
    let rows = population();
    let err = |rows: &[Row]| check_rows("pop", &file(rows)).expect_err("rejected");
    assert!(err(&rows[1..]).contains("pop covers 453 of 454 cells"));
    let duplicated = [&rows[..], &rows[..1]].concat();
    assert!(err(&duplicated).contains("pop:455 duplicate row ring8/round-robin/paper"));
    let mut foreign = rows.clone();
    foreign[0].scenario = "ring99/round-robin/paper".into();
    assert!(err(&foreign).contains("pop:1 row ring99/round-robin/paper is not a declared"));
    let mut broken = rows;
    broken[3].trials = 0;
    assert!(err(&broken).contains("pop:4 row ring8/round-robin/raw-label: zero trials"));
}
