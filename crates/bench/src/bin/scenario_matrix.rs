//! **scenario_matrix** — the scenario-diversity bench runner, incremental
//! end-to-end.
//!
//! Sweeps the declarative cell table of [`rv_bench::cells`] and emits
//! **one JSON row per cell** (JSON-lines). Speed is measured by the
//! `perfbench` benchmark; this runner measures *breadth*: how cost and
//! wall-clock behave across every combination — rendezvous, protocol,
//! seeded-fault chaos and minimax sub-tables sharing the family ×
//! adversary axes. Each cell runs under its stop policy, backstopped by
//! its traversal budget, and chaos cells under their seeded crash-stop
//! [`rv_sim::FaultPlan`]. Every row is a typed [`rv_bench::row::Row`], the
//! one schema that renders the lines, parses them back and checks them;
//! its docs say what each column holds.
//!
//! Usage:
//!
//! ```text
//! scenario_matrix [--smoke] [--trials N] [--out PATH] [--only SUBSTR]
//!                 [--store DIR] [--engine-fp HEX]
//! scenario_matrix --check PATH
//! scenario_matrix --diff A B     (A/B: row files or store directories)
//! ```
//!
//! **Incremental, durable sweeps** (`docs/STORE.md`, `docs/FAULTS.md`):
//! `--store DIR` serves every cell whose key `(content key, engine
//! fingerprint)` the store under `DIR` holds, verbatim, and runs and
//! appends every cold cell before moving on, so a fully-warm run writes a
//! byte-identical row file and a SIGKILL loses at most the cell in flight.
//! The engine fingerprint is baked in at build time
//! ([`rv_store::ENGINE_FINGERPRINT`]); `--engine-fp` overrides it (CI uses
//! the override to prove that a flip recomputes every cell).
//!
//! `--smoke` runs 1 trial per cell and caps protocol cells at a smaller
//! cutoff; `--only` restricts the sweep to cells whose scenario id
//! contains the substring. `--check` parses every line, checks each row
//! against the cell its scenario id declares, and requires the file to
//! cover exactly the declared matrix. `--diff A B` parses both row
//! sources as typed rows, refusing any line that is not a row's own
//! rendering, and compares them row by row with the wall-clock column
//! (`median_ns_per_run`) set aside; any other difference exits nonzero.
//! A directory argument is read as a store and materialised in declared
//! order under the invocation's `--smoke`/`--trials`/`--engine-fp` (a
//! store-served line must parse as its cell's row); `--only` filters both
//! kinds of source by scenario id.
//! Any other argument is an error.

// Timing harness: wall-clock here is the product, not a determinism leak.
#![allow(clippy::disallowed_methods)]
use rv_bench::cells::{cells, CellKind, CellSpec};
use rv_bench::row::{Certificate, End, Mode, Row};
use rv_sim::{RunEnd, RunOutcome};
use rv_store::{Store, StoreKey};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// The sweep configuration every mode shares: which cells, how they run,
/// and under which engine fingerprint their store keys live.
struct Sweep {
    smoke: bool,
    trials: usize,
    only: Option<String>,
    engine_fp: u64,
}

impl Sweep {
    /// Whether `--only` selects the cell with this scenario id.
    fn selects(&self, scenario: &str) -> bool {
        self.only.as_deref().is_none_or(|f| scenario.contains(f))
    }

    /// The selected cells in declared order, each with its cutoff and
    /// store key.
    fn cells(&self) -> impl Iterator<Item = (CellSpec, u64, StoreKey)> + '_ {
        cells()
            .into_iter()
            .filter(|spec| self.selects(&spec.scenario_id()))
            .map(|spec| {
                let cutoff = spec.cutoff(self.smoke);
                let key = StoreKey {
                    cell: spec.content_key(self.trials, cutoff),
                    engine: self.engine_fp,
                };
                (spec, cutoff, key)
            })
    }
}

/// The parsed command line: the sweep configuration plus the flags that
/// pick the mode and its files.
struct Args {
    sweep: Sweep,
    out: Option<String>,
    store: Option<PathBuf>,
    check: Option<String>,
    diff: Option<(String, String)>,
}

/// Walks the arguments once: a value-taking flag consumes its value, and
/// any argument that is not a known flag fails with its name (a typo must
/// not silently run the default configuration).
fn parse_args(mut argv: impl Iterator<Item = String>) -> Args {
    let (mut smoke, mut trials, mut only, mut engine_fp) = (false, None, None, None);
    let (mut out, mut store, mut check, mut diff) = (None, None, None, None);
    while let Some(flag) = argv.next() {
        let mut value = |what: &str| {
            argv.next()
                .unwrap_or_else(|| rv_bench::fail(format!("{flag} requires {what}")))
        };
        match flag.as_str() {
            "--smoke" => smoke = true,
            "--trials" => {
                let raw = value("a positive integer");
                trials = Some(
                    raw.parse::<usize>()
                        .ok()
                        .filter(|&t| t > 0)
                        .unwrap_or_else(|| rv_bench::fail("--trials requires a positive integer")),
                );
            }
            "--out" => out = Some(value("a path argument")),
            "--only" => only = Some(value("a substring argument")),
            "--store" => store = Some(PathBuf::from(value("a directory argument"))),
            "--engine-fp" => {
                let raw = value("a u64 argument");
                engine_fp = Some(parse_fp(&raw).unwrap_or_else(|| {
                    rv_bench::fail(format!(
                        "--engine-fp: {raw:?} is not a u64 (decimal or 0x-hex)"
                    ))
                }));
            }
            "--check" => check = Some(value("a path argument")),
            "--diff" => diff = Some((value("two path arguments"), value("two path arguments"))),
            _ => rv_bench::fail(format!("unknown argument {flag:?}")),
        }
    }
    let sweep = Sweep {
        smoke,
        trials: trials.unwrap_or(if smoke { 1 } else { 5 }),
        only,
        engine_fp: engine_fp.unwrap_or(rv_store::ENGINE_FINGERPRINT),
    };
    Args {
        sweep,
        out,
        store,
        check,
        diff,
    }
}

fn main() {
    let args = parse_args(std::env::args().skip(1));
    let sweep = args.sweep;
    if let Some(path) = args.check {
        return check(&path);
    }
    if let Some((a, b)) = args.diff {
        return diff(&a, &b, &sweep);
    }

    let out_path = args
        .out
        .unwrap_or_else(|| "MATRIX_baseline.jsonl".to_string());
    let mut store = args.store.map(|dir| {
        let s = Store::open(&dir).unwrap_or_else(|e| {
            rv_bench::fail(format!("cannot open store {}: {e}", dir.display()))
        });
        let report = s.open_report();
        if report.truncated_bytes > 0 {
            eprintln!(
                "note: store {}: dropped {} torn trailing byte(s); the affected cell(s) \
                     will be recomputed",
                dir.display(),
                report.truncated_bytes
            );
        }
        s
    });

    let trials = sweep.trials;
    let mut lines = String::new();
    let mut hits = 0usize;
    let mut executed = 0usize;
    for (spec, cutoff, key) in sweep.cells() {
        let scenario = spec.scenario_id();
        // A warm cell is served as its stored row *line*, verbatim —
        // re-measuring would only perturb the timing column; everything
        // else is deterministic and must come out identical anyway.
        if let Some((line, _)) = store.as_ref().and_then(|s| stored_row(s, key, &scenario)) {
            lines.push_str(line);
            lines.push('\n');
            hits += 1;
            continue;
        }
        let line = run_cell(&spec, trials, cutoff).render();
        lines.push_str(&line);
        lines.push('\n');
        executed += 1;
        if let Some(s) = store.as_mut() {
            // Durability before progress: the record is on disk (appended
            // in place; open heals a torn tail) before the sweep moves on,
            // so a SIGKILL between cells loses at most the cell in flight.
            s.append(key, line.as_bytes()).unwrap_or_else(|e| {
                rv_bench::fail(format!("cannot append {scenario} to the store: {e}"))
            });
        }
    }
    rv_bench::write_atomic(&out_path, &lines)
        .unwrap_or_else(|e| rv_bench::fail(format!("cannot write {out_path}: {e}")));
    let rows = hits + executed;
    if store.is_some() {
        println!(
            "wrote {rows} rows ({trials} trials per cell, {hits}/{rows} from store, \
             {executed} executed) to {out_path}"
        );
    } else {
        println!("wrote {rows} rows ({trials} trials per cell) to {out_path}");
    }
}

/// Parses an engine fingerprint: decimal, or hex with a `0x` prefix (the
/// store docs print fingerprints in hex).
fn parse_fp(raw: &str) -> Option<u64> {
    match raw.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => raw.parse().ok(),
    }
}

/// A cell's stored row line and the row it parses as, if the store holds
/// its key. The line must parse as a row of that cell: a store that
/// serves anything else fails loudly.
fn stored_row<'s>(store: &'s Store, key: StoreKey, scenario: &str) -> Option<(&'s str, Row)> {
    let line = std::str::from_utf8(store.get(key)?).ok();
    match line.map(|line| (line, Row::parse(line))) {
        Some((line, Ok(row))) if row.scenario == scenario => Some((line, row)),
        _ => rv_bench::fail(format!("store row for {scenario} is not that cell's row")),
    }
}

/// Loads one `--diff` source as rows, restricted to the cells `--only`
/// selects: a file is read as row lines (each must parse as a row, and is
/// filtered by its scenario id); a directory is opened as a store and
/// materialised in declared cell order under this invocation's
/// configuration (`--smoke`, `--trials`, `--engine-fp`), failing loudly
/// on any missing cell — a half-populated store must not diff clean.
fn load_rows(src: &str, sweep: &Sweep) -> Vec<Row> {
    if !Path::new(src).is_dir() {
        let text = std::fs::read_to_string(src)
            .unwrap_or_else(|e| rv_bench::fail(format!("cannot read {src}: {e}")));
        let parse = |(i, line): (usize, &str)| {
            Row::parse(line).unwrap_or_else(|e| {
                rv_bench::fail(format!("{src}:{} is not a matrix row: {e}", i + 1))
            })
        };
        let rows = text.lines().enumerate().map(parse);
        return rows.filter(|row| sweep.selects(&row.scenario)).collect();
    }
    let store = Store::open(src)
        .unwrap_or_else(|e| rv_bench::fail(format!("cannot open store {src}: {e}")));
    let (smoke, trials, engine_fp) = (sweep.smoke, sweep.trials, sweep.engine_fp);
    sweep
        .cells()
        .map(|(spec, _, key)| {
            let scenario = spec.scenario_id();
            let (_, row) = stored_row(&store, key, &scenario).unwrap_or_else(|| {
                rv_bench::fail(format!(
                    "store {src} has no row for {scenario} under this configuration \
                     (smoke={smoke}, trials={trials}, engine_fp={engine_fp:#018x})"
                ))
            });
            row
        })
        .collect()
}

/// What `--diff` compares of a row: every column but the wall-clock one.
fn untimed(row: &Row) -> Row {
    Row {
        median_ns_per_run: 0.0,
        ..row.clone()
    }
}

/// `--diff A B`: compares two row sources cell by cell, ignoring only the
/// wall-clock column. This is the chaos-recovery *and* store-identity
/// gate: a sweep rerun after a kill — or a fully store-served one — must reproduce
/// the reference table exactly, timing aside.
fn diff(a: &str, b: &str, sweep: &Sweep) {
    let la = load_rows(a, sweep);
    let lb = load_rows(b, sweep);
    let mut differences = 0usize;
    if la.len() != lb.len() {
        eprintln!("{a} has {} rows, {b} has {}", la.len(), lb.len());
        differences += 1;
    }
    for (i, (ra, rb)) in la.iter().zip(lb.iter()).enumerate() {
        if untimed(ra) != untimed(rb) {
            let (ra, rb) = (ra.render(), rb.render());
            eprintln!("row {} differs:\n  {a}: {ra}\n  {b}: {rb}", i + 1);
            differences += 1;
        }
    }
    if differences > 0 {
        rv_bench::fail(format!(
            "{a} and {b} differ in {differences} place(s) beyond timing"
        ));
    }
    println!("{a} and {b}: identical up to timing — {} rows", la.len());
}

/// Runs one cell `trials` times, opened from its spec (stop policy and,
/// for chaos cells, seeded fault plan included); reports the row of the
/// (deterministic) run with the median wall time.
fn run_cell(spec: &CellSpec, trials: usize, cutoff: u64) -> Row {
    let g = spec.graph();
    // The columns every run fills, on top of the spec's own.
    let ran = |out: &RunOutcome| Row {
        traversals: out.total_traversals,
        actions: out.actions,
        ..Row::new(spec, cutoff, trials, out.end.into())
    };
    let mut row = None;
    let mut samples = Vec::with_capacity(trials);
    for trial in 0..trials {
        let (elapsed, trial_row) = match spec.kind {
            CellKind::Rendezvous { .. } => {
                let mut run = spec.open_rendezvous(&g, cutoff);
                let (elapsed, out) = timed(|| run.run());
                let cost = (out.end == RunEnd::Meeting).then_some(out.total_traversals);
                (elapsed, Row { cost, ..ran(&out) })
            }
            CellKind::Sgl { fault_seed, .. } => {
                let mut run = spec.open_sgl(&g, cutoff);
                let (elapsed, out) = timed(|| run.run());
                // Stalled-cell diagnostic: name the starving agent and
                // the structural suspension evidence the verdict rests
                // on, once per cell (the run is deterministic across
                // trials).
                if trial == 0 && out.end == RunEnd::Stalled {
                    if let Some(report) = run.policy.starvation() {
                        eprintln!(
                            "note: {}: stalled — agent {} gained no traversals for {} actions \
                             (flat minimum {})",
                            spec.scenario_id(),
                            report.agent,
                            report.silent_actions,
                            report.traversals
                        );
                    }
                    if let Some(report) = run.policy.suspension() {
                        eprintln!(
                            "note: {}: suspension evidence — agent {} held its committed \
                             crossing for {} actions",
                            spec.scenario_id(),
                            report.agent,
                            report.held_actions
                        );
                    }
                }
                // The completeness postcondition only binds fault-free
                // quiescence: a crashed agent can neither output nor be
                // met, so the chaos tier reports `null` by construction.
                let complete = (out.end == RunEnd::AllParked && fault_seed.is_none())
                    .then(|| spec.sgl_complete(&run.rt));
                let certs: Vec<_> = (0..run.rt.agent_count())
                    .filter_map(|i| Some((i, run.rt.behavior(i).certificate()?)))
                    .collect();
                let certificate = (!certs.is_empty()).then_some(Certificate(certs));
                let row = Row {
                    complete,
                    certificate,
                    ..ran(&out)
                };
                (elapsed, row)
            }
            CellKind::Minimax { depth } => {
                let autos = spec.family.automorphisms(&g);
                let opts = spec.search_options(&autos);
                let (elapsed, report) = timed(|| {
                    rv_sim::search_worst_case(&g, || spec.rendezvous_pair(&g), depth, &opts)
                });
                let stats = report.memo.expect("memoized search reports table stats");
                let row = Row {
                    cost: report.worst.max_meeting_cost,
                    traversals: report.worst.schedules_explored,
                    actions: depth as u64,
                    tt_hits: Some(stats.hits),
                    tt_entries: Some(stats.entries),
                    ..Row::new(spec, cutoff, trials, End::Searched)
                };
                (elapsed, row)
            }
        };
        samples.push(elapsed.as_nanos() as f64);
        row = Some(trial_row);
    }
    samples.sort_by(|a, b| a.partial_cmp(b).expect("durations are finite"));
    Row {
        median_ns_per_run: samples[samples.len() / 2],
        ..row.expect("trials > 0")
    }
}

/// The wall time of `f` alone, and its result: the cell's setup stays
/// outside the window.
fn timed<T>(f: impl FnOnce() -> T) -> (Duration, T) {
    let start = Instant::now();
    let out = f();
    (start.elapsed(), out)
}

/// `--check`: the CI gate. Every line must parse as a row and pass its
/// cell's typed checks, and the file must cover exactly the declared
/// matrix ([`rv_bench::row::check_rows`]).
fn check(path: &str) {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| rv_bench::fail(format!("cannot read matrix file {path}: {e}")));
    let rows = rv_bench::row::check_rows(path, &text).unwrap_or_else(|e| rv_bench::fail(e));
    let count = |mode| rows.iter().filter(|r| r.mode == mode).count();
    println!(
        "{path}: OK — {} rows ({} protocol, {} minimax), all cells covered",
        rows.len(),
        count(Mode::Protocol),
        count(Mode::Minimax)
    );
}
