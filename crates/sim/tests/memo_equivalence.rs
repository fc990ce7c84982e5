//! Golden memo-equivalence suite for the transposition-table search.
//!
//! The minimax contract is that [`rv_sim::search_worst_case`] returns a
//! **bit-identical** [`WorstCase`] — including the exact explored-leaf
//! count — for every configuration: memo on or off, identity or full
//! automorphism group. The constants below were captured from the plain
//! enumeration (memo off); every other configuration must reproduce them
//! exactly.
//!
//! To re-capture after an *intentional* semantic change, run
//! `cargo test -p rv_sim --test memo_equivalence -- --ignored --nocapture`
//! and paste the printed table over `GOLDEN`.

use rv_core::Label;
use rv_explore::SeededUxs;
use rv_graph::{generators, Graph, GraphFamily, NodeId};
use rv_sim::{search_worst_case, RvBehavior, SearchOptions};

struct Case {
    name: &'static str,
    family: GraphFamily,
    n: usize,
    depth: usize,
}

const CASES: [Case; 5] = [
    Case {
        name: "path3/d6",
        family: GraphFamily::Path,
        n: 3,
        depth: 6,
    },
    Case {
        name: "path3/d10",
        family: GraphFamily::Path,
        n: 3,
        depth: 10,
    },
    Case {
        name: "path3/d12",
        family: GraphFamily::Path,
        n: 3,
        depth: 12,
    },
    Case {
        name: "ring4/d8",
        family: GraphFamily::Ring,
        n: 4,
        depth: 8,
    },
    Case {
        name: "ring4/d12",
        family: GraphFamily::Ring,
        n: 4,
        depth: 12,
    },
];

/// `(max_meeting_cost, some_schedule_avoids, schedules_explored)` captured
/// from the unmemoized enumeration, one row per [`CASES`] entry.
const GOLDEN: [(Option<u64>, bool, u64); 5] = [
    (Some(2), true, 64),
    (Some(4), true, 724),
    (Some(4), true, 2236),
    (Some(2), true, 196),
    (Some(2), true, 2836),
];

fn graph_for(case: &Case) -> Graph {
    match case.family {
        GraphFamily::Path => generators::path(case.n),
        GraphFamily::Ring => generators::ring(case.n),
        _ => unreachable!("suite covers path and ring"),
    }
}

fn behaviors<'g>(g: &'g Graph, uxs: SeededUxs) -> Vec<RvBehavior<'g, SeededUxs>> {
    vec![
        RvBehavior::new(g, uxs, NodeId(0), Label::new(1).unwrap()),
        RvBehavior::new(g, uxs, NodeId(2), Label::new(2).unwrap()),
    ]
}

#[test]
fn memoized_search_is_bit_identical_to_golden_enumeration() {
    let uxs = SeededUxs::quadratic();
    for (case, golden) in CASES.iter().zip(GOLDEN) {
        let g = graph_for(case);
        let autos = case.family.automorphisms(&g);
        // memo {off, on} × group {identity, family}; every one must agree.
        for memo in [false, true] {
            for automorphisms in [None, Some(&autos)] {
                let report = search_worst_case(
                    &g,
                    || behaviors(&g, uxs),
                    case.depth,
                    &SearchOptions {
                        memo,
                        automorphisms,
                        ..SearchOptions::default()
                    },
                );
                let got = (
                    report.worst.max_meeting_cost,
                    report.worst.some_schedule_avoids,
                    report.worst.schedules_explored,
                );
                assert_eq!(
                    got,
                    golden,
                    "{}: memo={memo} autos={} diverged from golden",
                    case.name,
                    automorphisms.is_some(),
                );
                assert_eq!(
                    report.memo.is_some(),
                    memo,
                    "{}: table stats must be reported iff the table was on",
                    case.name
                );
            }
        }
    }
}

/// `(tt_hits, tt_entries)` of every [`CASES`] entry under
/// `SearchOptions::default()` — the identity group, so no symmetry folds
/// states together and every entry is one exact state class. Captured
/// before the fingerprint's mixing was last changed: a digest collision
/// would merge two classes and move these counts.
const IDENTITY_TT: [(u64, u64); 5] = [(6, 15), (25, 38), (36, 49), (14, 27), (42, 65)];

#[test]
fn identity_group_table_stats_are_pinned() {
    let uxs = SeededUxs::quadratic();
    for (case, tt) in CASES.iter().zip(IDENTITY_TT) {
        let g = graph_for(case);
        let stats = search_worst_case(
            &g,
            || behaviors(&g, uxs),
            case.depth,
            &SearchOptions::default(),
        )
        .memo
        .expect("memo is on by default");
        assert_eq!(
            (stats.hits, stats.entries),
            tt,
            "{}: identity-group table statistics drifted",
            case.name
        );
        assert_eq!(stats.probes, stats.hits + stats.entries, "{}", case.name);
    }
}

/// Memoized stats are deterministic: same probes/hits/entries on every
/// run.
#[test]
fn sequential_memo_stats_are_deterministic() {
    let uxs = SeededUxs::quadratic();
    let case = &CASES[3]; // ring4/d8
    let g = graph_for(case);
    let autos = case.family.automorphisms(&g);
    let run = || {
        search_worst_case(
            &g,
            || behaviors(&g, uxs),
            case.depth,
            &SearchOptions {
                automorphisms: Some(&autos),
                ..SearchOptions::default()
            },
        )
        .memo
        .expect("memo on")
    };
    let a = run();
    let b = run();
    assert_eq!((a.probes, a.hits, a.entries), (b.probes, b.hits, b.entries));
    assert!(a.hits > 0, "the ring collapses states; hits must occur");
}

/// A matrix minimax row's `(cost, traversals, tt_hits, tt_entries)`.
type MatrixRow = (u64, u64, u64, u64);

/// The scenario matrix's five minimax cells (`rv_bench::cells::MINIMAX_CELLS`)
/// and their rows: the search
/// under default options plus the family's group must reproduce them on
/// any host.
const MATRIX_ROWS: [(GraphFamily, usize, usize, MatrixRow); 5] = [
    (GraphFamily::Path, 3, 10, (4, 724, 25, 38)),
    (GraphFamily::Path, 3, 12, (4, 2236, 36, 49)),
    (GraphFamily::Ring, 4, 8, (2, 196, 15, 26)),
    (GraphFamily::Ring, 4, 12, (2, 2836, 42, 53)),
    (GraphFamily::Ring, 4, 14, (6, 11284, 63, 78)),
];

#[test]
fn default_options_reproduce_the_matrix_minimax_rows() {
    let uxs = SeededUxs::quadratic();
    for (family, n, depth, row) in MATRIX_ROWS {
        let case = Case {
            name: "matrix",
            family,
            n,
            depth,
        };
        let g = graph_for(&case);
        let autos = family.automorphisms(&g);
        let report = search_worst_case(
            &g,
            || behaviors(&g, uxs),
            depth,
            &SearchOptions {
                automorphisms: Some(&autos),
                ..SearchOptions::default()
            },
        );
        let stats = report.memo.expect("memo is on by default");
        let got = (
            report
                .worst
                .max_meeting_cost
                .expect("every matrix cell meets"),
            report.worst.schedules_explored,
            stats.hits,
            stats.entries,
        );
        assert_eq!(
            got, row,
            "{family:?}{n}/d{depth} drifted from its matrix row"
        );
    }
}

/// Prints the golden table for re-capture (see module docs).
#[test]
#[ignore = "re-capture helper, run with --ignored --nocapture"]
fn capture_golden() {
    let uxs = SeededUxs::quadratic();
    for case in &CASES {
        let g = graph_for(case);
        let worst = search_worst_case(
            &g,
            || behaviors(&g, uxs),
            case.depth,
            &SearchOptions {
                memo: false,
                ..SearchOptions::default()
            },
        )
        .worst;
        println!(
            "    ({:?}, {}, {}), // {}",
            worst.max_meeting_cost, worst.some_schedule_avoids, worst.schedules_explored, case.name
        );
    }
}
