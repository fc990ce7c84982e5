//! **scenario_matrix** — the scenario-diversity bench runner, now
//! incremental end-to-end.
//!
//! Sweeps the declarative cell table of [`rv_bench::cells`] and emits
//! **one JSON row per cell** (JSON-lines, like the `expt_*` binaries).
//! Where `perf_baseline` tracks seven hand-picked hot-path scenarios over
//! time, this runner measures *breadth*: how cost and wall-clock behave
//! across every combination, so PRs can quantify scenario diversity
//! instead of overfitting to the baseline seven. The table itself — four
//! sub-tables sharing the family × adversary axes (rendezvous, protocol,
//! seeded-fault chaos, minimax) — lives in `rv_bench::cells`; this binary
//! is a *consumer*: it runs specs, renders rows, and keeps both fresh.
//!
//! Every cell runs under a **stop policy** (the `policy` column):
//! rendezvous cells under `DivergenceDetector` (piece-number stagnation →
//! `end == "Diverged"`), protocol cells under `AdaptiveThreshold`
//! (progress-tick silence → `end == "Stalled"`), both backstopped by the
//! per-cell traversal budget (`cutoff` column; `end == "Cutoff"` rows
//! stopped at exactly `cutoff`). Chaos-tier cells additionally run under
//! their seeded crash-stop [`rv_sim::FaultPlan`] (the `faults` column;
//! `end == "SurvivorsParked"` / `"AllCrashed"` appear only there).
//! Protocol rows that quiesce fault-free also carry the **post-hoc
//! completeness check** (`complete` column, DESIGN.md §4), and record any
//! **suspended-token certificate** their explorers closed Phase 1 on
//! (`certificate` column; the `+nocert` ablation cell runs with the
//! census disarmed and keeps the certificate-free behavior measured).
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
//! **Incremental sweeps** (`docs/STORE.md`): `--store DIR` opens the
//! content-addressed result store under `DIR` and makes the sweep
//! incremental — every cell whose key `(content key, engine fingerprint)`
//! is present is served *verbatim* from the store (zero execution), every
//! cold cell is run and appended. Because rows are emitted in the
//! declared [`rv_bench::cells::cells`] order whether served or computed,
//! a fully-warm run writes a byte-identical row file. The engine
//! fingerprint is baked in at build time ([`rv_store::ENGINE_FINGERPRINT`]);
//! `--engine-fp` overrides it (CI uses the override to prove that a
//! fingerprint flip recomputes every cell without rebuilding the engine).
//!
//! **Durable sweeps** (`docs/FAULTS.md`): the store is also what makes a
//! sweep survive SIGKILL. Each computed cell's record is appended
//! atomically before the sweep moves on, so a rerun against the same
//! `--store` serves every finished cell and runs only the rest — a kill
//! at any instant loses at most the cell in flight.
//!
//! `--smoke` runs 1 trial per cell and caps protocol cells at a smaller
//! cutoff; `--only` restricts the sweep to cells whose scenario id
//! contains the substring. `--check` verifies schema and coverage (CI
//! fails on any malformed or missing row). `--diff A B` compares two row
//! sources cell by cell **schema-aware**: each line is parsed, the
//! wall-clock column (`median_ns_per_run`, the one legitimately
//! nondeterministic field) is dropped *by name*, fields are compared
//! order-insensitively, and any remaining difference exits nonzero. A
//! directory argument is read as a store and materialised in declared
//! order under the invocation's `--smoke`/`--trials`/`--engine-fp`;
//! `--only` filters both kinds of source by scenario id. Any other
//! argument is an error.

// Timing harness: wall-clock here is the product, not a determinism leak.
#![allow(clippy::disallowed_methods)]
use rv_bench::cells::{cells, CellKind, CellSpec, ADVERSARY_SEED, LABELS, SGL_LABELS};
use rv_core::Label;
use rv_explore::SeededUxs;
use rv_graph::NodeId;
use rv_protocols::{SglBehavior, SglConfig};
use rv_sim::{AdaptiveThreshold, DivergenceDetector, RunConfig, RunEnd, Runtime, RvBehavior};
use rv_store::{Store, StoreKey};
use serde::Serialize;
use serde_json::Value;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// One measured cell, serialised as a JSON-lines row.
#[derive(Clone, Debug, Serialize)]
struct Row {
    /// Cell id, `family<n>/adversary/variant` (variant is `sgl-k<k>` for
    /// protocol cells — chaos cells append `+f<seed>` — and `memo-d<depth>`
    /// for minimax cells, whose adversary axis reads `worst-case`).
    scenario: String,
    /// `"rendezvous"` (stop at first meeting), `"protocol"` (run to
    /// quiescence), or `"minimax"` (memoized worst-case search).
    mode: String,
    /// Graph family name.
    family: String,
    /// Graph order requested.
    n: usize,
    /// Adversary name.
    adversary: String,
    /// Algorithm variant name (`sgl-k<k>` for protocol cells).
    variant: String,
    /// Number of agents in the cell (2, or the SGL team size).
    agents: usize,
    /// Stop policy the cell ran under (`divergence`, `adaptive`, or
    /// `exhaustive` for minimax cells; the cutoff backstop is always
    /// armed outside minimax).
    policy: String,
    /// How the run ended (`Meeting`, `AllParked`, `Cutoff`, `Diverged`,
    /// `Stalled`, `SurvivorsParked`, `AllCrashed`, or `Searched` for
    /// minimax cells).
    end: String,
    /// Meeting cost (total traversals at the first forced meeting);
    /// for minimax rows, the worst-case meeting cost over all schedules.
    /// `null` for any other non-`Meeting` end.
    cost: Option<u64>,
    /// Total completed traversals when the run ended — where a `Cutoff`
    /// row stopped (exactly `cutoff`), where a detector row was retired,
    /// or the cost to quiescence for `AllParked` rows. Minimax rows
    /// record the schedules (leaves) the search explored instead.
    traversals: u64,
    /// The traversal budget backstop this cell ran under; for minimax
    /// rows, the action horizon the search enumerates to.
    cutoff: u64,
    /// Adversary actions executed.
    actions: u64,
    /// Post-hoc completeness check for fault-free quiesced protocol rows:
    /// every agent output the complete label/value set and the minimal
    /// agent met every teammate (meeting-log views). `null` for every
    /// other row — including every chaos-tier row, where a crashed agent
    /// makes the postcondition vacuously unreachable.
    complete: Option<bool>,
    /// Fault plan of the cell: `"none"`, or `"seeded:<seed>"` for the
    /// chaos tier (the seed names the whole derived crash-stop plan).
    faults: String,
    /// Suspended-token certificate of a protocol row, when some agent's
    /// ESST closed on one: `"a<i>:phase<p>/s<sightings>/sp<span>"` per
    /// certified agent, comma-joined in agent order. `null` on every
    /// non-protocol row and on protocol rows that ran certificate-free
    /// (never sighted a pinned token long enough, or `+nocert`).
    certificate: Option<String>,
    /// Timed trials.
    trials: usize,
    /// Transposition-table hits of the memoized search; `null` off the
    /// minimax rows. Deterministic, so the column survives the `--diff`
    /// chaos gate.
    tt_hits: Option<u64>,
    /// Transposition-table entries published by the memoized search;
    /// `null` off the minimax rows.
    tt_entries: Option<u64>,
    /// Median wall time per run, nanoseconds. The one nondeterministic
    /// column: `--diff` drops it by name, and a store-served row replays
    /// the timing measured when the cell was actually computed.
    median_ns_per_run: f64,
}

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
    let Args {
        sweep,
        out,
        store,
        check: check_path,
        diff: diff_pair,
    } = parse_args(std::env::args().skip(1));
    if let Some(path) = check_path {
        check(&path);
        return;
    }
    if let Some((a, b)) = diff_pair {
        diff(&a, &b, &sweep);
        return;
    }

    let out_path = out.unwrap_or_else(|| "MATRIX_baseline.jsonl".to_string());
    let mut store = store.map(|dir| {
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
        if let Some(line) = store.as_ref().and_then(|s| stored_line(s, key, &scenario)) {
            lines.push_str(line);
            lines.push('\n');
            hits += 1;
            continue;
        }
        let row = run_cell(&spec, trials, cutoff);
        let line = serde_json::to_string(&row).expect("rows serialise");
        lines.push_str(&line);
        lines.push('\n');
        executed += 1;
        if let Some(s) = store.as_mut() {
            // Durability before progress: the record is on disk (atomic
            // whole-segment replace) before the sweep moves on, so a
            // SIGKILL between cells loses at most the cell in flight.
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

/// A cell's stored row line, if the store holds its key.
fn stored_line<'s>(store: &'s Store, key: StoreKey, scenario: &str) -> Option<&'s str> {
    store.get(key).map(|line| {
        std::str::from_utf8(line)
            .unwrap_or_else(|_| rv_bench::fail(format!("store row for {scenario} is not UTF-8")))
    })
}

/// Loads one `--diff` source as raw row lines, restricted to the cells
/// `--only` selects: a file is read as JSON lines; a directory is opened
/// as a store and materialised in declared cell order under this
/// invocation's configuration (`--smoke`, `--trials`, `--engine-fp`),
/// failing loudly on any missing cell — a half-populated store must not
/// diff clean.
fn load_rows(src: &str, sweep: &Sweep) -> Vec<String> {
    if !Path::new(src).is_dir() {
        let text = std::fs::read_to_string(src)
            .unwrap_or_else(|e| rv_bench::fail(format!("cannot read {src}: {e}")));
        return text
            .lines()
            .enumerate()
            .filter(|&(lineno, line)| {
                sweep.only.is_none() || {
                    let row: Value = serde_json::from_str(line).unwrap_or_else(|e| {
                        rv_bench::fail(format!("{src}:{} is not valid JSON: {e}", lineno + 1))
                    });
                    row.get("scenario")
                        .and_then(Value::as_str)
                        .is_some_and(|scenario| sweep.selects(scenario))
                }
            })
            .map(|(_, line)| line.to_string())
            .collect();
    }
    let store = Store::open(src)
        .unwrap_or_else(|e| rv_bench::fail(format!("cannot open store {src}: {e}")));
    let (smoke, trials, engine_fp) = (sweep.smoke, sweep.trials, sweep.engine_fp);
    sweep
        .cells()
        .map(|(spec, _, key)| {
            let scenario = spec.scenario_id();
            let line = stored_line(&store, key, &scenario).unwrap_or_else(|| {
                rv_bench::fail(format!(
                    "store {src} has no row for {scenario} under this configuration \
                     (smoke={smoke}, trials={trials}, engine_fp={engine_fp:#018x})"
                ))
            });
            line.to_string()
        })
        .collect()
}

/// The schema-aware comparable form of a row line: parsed, the wall-clock
/// column dropped **by field name**, and the remaining fields sorted by
/// key — so the comparison survives both a trailing-position move of the
/// timing column and any field reordering (the old suffix-strip broke on
/// either).
fn comparable(line: &str, src: &str, lineno: usize) -> Value {
    let v = serde_json::from_str(line)
        .unwrap_or_else(|e| rv_bench::fail(format!("{src}:{} is not valid JSON: {e}", lineno + 1)));
    match v {
        Value::Object(mut fields) => {
            fields.retain(|(k, _)| k != "median_ns_per_run");
            fields.sort_by(|a, b| a.0.cmp(&b.0));
            Value::Object(fields)
        }
        other => other,
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
        if comparable(ra, a, i) != comparable(rb, b, i) {
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

/// Outcome of one cell run: the pieces of [`Row`] that depend on the run.
struct CellOutcome {
    end: String,
    cost: Option<u64>,
    traversals: u64,
    actions: u64,
    complete: Option<bool>,
    /// `(tt_hits, tt_entries)` of a minimax cell's memoized search.
    tt: Option<(u64, u64)>,
    /// Rendered suspended-token certificates (protocol cells only).
    certificate: Option<String>,
}

/// Runs one cell `trials` times under its stop policy (and, for chaos
/// cells, its seeded fault plan); reports the outcome of the
/// (deterministic) run and the median wall time.
fn run_cell(spec: &CellSpec, trials: usize, cutoff: u64) -> Row {
    let g = spec.graph();
    let uxs = SeededUxs::quadratic();
    let mut outcome: Option<CellOutcome> = None;
    let mut samples = Vec::with_capacity(trials);
    for trial in 0..trials {
        let mut adv = spec.adversary.build(ADVERSARY_SEED);
        let (elapsed, out) = match spec.kind {
            CellKind::Rendezvous { variant, .. } => {
                let agents = vec![
                    RvBehavior::with_variant(
                        &g,
                        uxs,
                        NodeId(0),
                        Label::new(LABELS.0).unwrap(),
                        variant,
                    ),
                    RvBehavior::with_variant(
                        &g,
                        uxs,
                        NodeId(g.order() / 2),
                        Label::new(LABELS.1).unwrap(),
                        variant,
                    ),
                ];
                let config = RunConfig::rendezvous().with_cutoff(cutoff);
                let mut rt = Runtime::new(&g, agents, config);
                let mut policy = DivergenceDetector::default();
                let start = Instant::now();
                let out = rt.run_with_policy(adv.as_mut(), &mut policy);
                let elapsed = start.elapsed();
                (
                    elapsed,
                    CellOutcome {
                        end: format!("{:?}", out.end),
                        cost: (out.end == RunEnd::Meeting).then_some(out.total_traversals),
                        traversals: out.total_traversals,
                        actions: out.actions,
                        complete: None,
                        tt: None,
                        certificate: None,
                    },
                )
            }
            CellKind::Sgl {
                k,
                fault_seed,
                certify,
            } => {
                let sgl_config = SglConfig {
                    suspension: SglConfig::default().suspension.filter(|_| certify),
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
                            sgl_config,
                        )
                    })
                    .collect();
                let config = RunConfig::protocol().with_cutoff(cutoff);
                let mut rt = Runtime::new(&g, behaviors, config);
                if let Some(plan) = spec.fault_plan() {
                    rt.set_fault_plan(plan);
                }
                let mut policy = AdaptiveThreshold::default();
                let start = Instant::now();
                let out = rt.run_with_policy(adv.as_mut(), &mut policy);
                let elapsed = start.elapsed();
                // Stalled-cell diagnostic: name the starving agent and
                // the structural suspension evidence the verdict rests
                // on, once per cell (the run is deterministic across
                // trials).
                if trial == 0 && out.end == RunEnd::Stalled {
                    if let Some(report) = policy.starvation() {
                        eprintln!(
                            "note: {}: stalled — agent {} gained no traversals for {} actions \
                             (flat minimum {})",
                            spec.scenario_id(),
                            report.agent,
                            report.silent_actions,
                            report.traversals
                        );
                    }
                    if let Some(report) = policy.suspension() {
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
                    .then(|| sgl_complete(&rt, &SGL_LABELS[..k]));
                let certs: Vec<String> = (0..rt.agent_count())
                    .filter_map(|i| {
                        rt.behavior(i)
                            .certificate()
                            .map(|c| format!("a{i}:phase{}/s{}/sp{}", c.phase, c.sightings, c.span))
                    })
                    .collect();
                (
                    elapsed,
                    CellOutcome {
                        end: format!("{:?}", out.end),
                        cost: None,
                        traversals: out.total_traversals,
                        actions: out.actions,
                        complete,
                        tt: None,
                        certificate: (!certs.is_empty()).then(|| certs.join(",")),
                    },
                )
            }
            CellKind::Minimax { depth } => {
                let autos = spec.family.automorphisms(&g);
                let opts = rv_sim::SearchOptions {
                    automorphisms: Some(&autos),
                    ..rv_sim::SearchOptions::default()
                };
                let start = Instant::now();
                let report = rv_sim::search_worst_case(
                    &g,
                    || {
                        vec![
                            RvBehavior::new(&g, uxs, NodeId(0), Label::new(1).unwrap()),
                            RvBehavior::new(&g, uxs, NodeId(2), Label::new(2).unwrap()),
                        ]
                    },
                    depth,
                    &opts,
                );
                let elapsed = start.elapsed();
                let stats = report.memo.expect("memoized search reports table stats");
                (
                    elapsed,
                    CellOutcome {
                        end: "Searched".to_string(),
                        cost: report.worst.max_meeting_cost,
                        traversals: report.worst.schedules_explored,
                        actions: depth as u64,
                        complete: None,
                        tt: Some((stats.hits, stats.entries)),
                        certificate: None,
                    },
                )
            }
        };
        samples.push(elapsed.as_nanos() as f64);
        outcome = Some(out);
    }
    let out = outcome.expect("trials > 0");
    samples.sort_by(|a, b| a.partial_cmp(b).expect("durations are finite"));
    Row {
        scenario: spec.scenario_id(),
        mode: spec.mode().to_string(),
        family: spec.fname.to_string(),
        n: spec.n,
        adversary: spec.adversary_name(),
        variant: spec.variant_name(),
        agents: spec.agents(),
        policy: spec.policy().to_string(),
        end: out.end,
        cost: out.cost,
        traversals: out.traversals,
        cutoff,
        actions: out.actions,
        complete: out.complete,
        faults: spec.fault_label(),
        certificate: out.certificate,
        trials,
        tt_hits: out.tt.map(|t| t.0),
        tt_entries: out.tt.map(|t| t.1),
        median_ns_per_run: samples[samples.len() / 2],
    }
}

/// The post-hoc completeness check on a quiesced SGL runtime — the
/// shared [`rv_bench::sgl_postcondition_violations`] core (also behind
/// `expt_f4_sgl`'s verdicts) with this matrix's gossip-value convention.
fn sgl_complete(rt: &Runtime<SglBehavior<SeededUxs>>, labels: &[u64]) -> bool {
    rv_bench::sgl_postcondition_violations(rt, labels, |l| l + 1000).is_empty()
}

/// `--check`: the CI gate. Every line must parse as a JSON object with the
/// expected fields and sane values, and the file must cover exactly the
/// declared matrix (no missing, duplicate, or foreign rows).
fn check(path: &str) {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| rv_bench::fail(format!("cannot read matrix file {path}: {e}")));
    let expected: Vec<String> = cells().iter().map(|c| c.scenario_id()).collect();
    let mut seen: Vec<String> = Vec::new();
    let mut protocol_rows = 0usize;
    let mut minimax_rows = 0usize;
    for (lineno, line) in text.lines().enumerate() {
        let row = serde_json::from_str(line)
            .unwrap_or_else(|e| panic!("{path}:{} is not valid JSON: {e}", lineno + 1));
        let field = |key: &str| {
            row.get(key)
                .unwrap_or_else(|| panic!("{path}:{} is missing field {key}", lineno + 1))
                .clone()
        };
        let scenario = field("scenario")
            .as_str()
            .unwrap_or_else(|| panic!("{path}:{} scenario must be a string", lineno + 1))
            .to_string();
        assert!(
            expected.contains(&scenario),
            "{path}:{} row {scenario} is not a declared matrix cell",
            lineno + 1
        );
        assert!(
            !seen.contains(&scenario),
            "{path}:{} duplicate row {scenario}",
            lineno + 1
        );
        let mode = field("mode");
        let mode = mode
            .as_str()
            .unwrap_or_else(|| panic!("{path}:{} mode must be a string", lineno + 1));
        assert!(
            ["rendezvous", "protocol", "minimax"].contains(&mode),
            "{path}:{} unknown mode {mode:?}",
            lineno + 1
        );
        if mode == "protocol" {
            protocol_rows += 1;
        }
        if mode == "minimax" {
            minimax_rows += 1;
        }
        let policy = field("policy");
        let policy = policy
            .as_str()
            .unwrap_or_else(|| panic!("{path}:{} policy must be a string", lineno + 1));
        assert_eq!(
            policy,
            match mode {
                "protocol" => "adaptive",
                "minimax" => "exhaustive",
                _ => "divergence",
            },
            "{path}:{} wrong policy for mode {mode}",
            lineno + 1
        );
        // The faults column: `"none"`, or a seeded descriptor that must
        // agree with the scenario id's `+f<seed>` suffix — and only
        // protocol cells carry fault plans.
        let faults = field("faults");
        let faults = faults
            .as_str()
            .unwrap_or_else(|| panic!("{path}:{} faults must be a string", lineno + 1));
        if let Some(seed) = faults.strip_prefix("seeded:") {
            assert_eq!(
                mode,
                "protocol",
                "{path}:{} only protocol cells run the chaos tier",
                lineno + 1
            );
            assert!(
                scenario.ends_with(&format!("+f{seed}")),
                "{path}:{} faults {faults:?} does not match the scenario id",
                lineno + 1
            );
        } else {
            assert_eq!(
                faults,
                "none",
                "{path}:{} unknown faults descriptor {faults:?}",
                lineno + 1
            );
            assert!(
                !scenario.contains("+f"),
                "{path}:{} a chaos cell must declare its fault seed",
                lineno + 1
            );
        }
        let faulted = faults != "none";
        // The certificate column: a string on protocol rows where some
        // agent's ESST closed on a suspended-token certificate, `null`
        // everywhere else — and structurally impossible on the `+nocert`
        // ablation row, which runs with the census disarmed.
        let certificate = field("certificate");
        assert!(
            certificate.is_null() || certificate.as_str().is_some(),
            "{path}:{} certificate must be a string or null",
            lineno + 1
        );
        assert!(
            mode == "protocol" || certificate.is_null(),
            "{path}:{} only protocol cells can certify a suspended token",
            lineno + 1
        );
        if let Some(cert) = certificate.as_str() {
            assert!(
                cert.split(',').all(|c| {
                    c.starts_with('a')
                        && c.contains(":phase")
                        && c.contains("/s")
                        && c.contains("/sp")
                }),
                "{path}:{} malformed certificate descriptor {cert:?}",
                lineno + 1
            );
        }
        assert!(
            !scenario.ends_with("+nocert") || certificate.is_null(),
            "{path}:{} the ablation row runs certificate-free",
            lineno + 1
        );
        let end = field("end");
        let end = end
            .as_str()
            .unwrap_or_else(|| panic!("{path}:{} end must be a string", lineno + 1));
        assert!(
            [
                "Meeting",
                "AllParked",
                "Cutoff",
                "Diverged",
                "Stalled",
                "SurvivorsParked",
                "AllCrashed",
                "Searched"
            ]
            .contains(&end),
            "{path}:{} unknown end {end:?}",
            lineno + 1
        );
        // A minimax cell always finishes its enumeration — and only a
        // minimax cell can report `Searched`.
        assert_eq!(
            mode == "minimax",
            end == "Searched",
            "{path}:{} end Searched rides exactly on minimax rows",
            lineno + 1
        );
        assert!(
            mode != "protocol" || end != "Meeting",
            "{path}:{} protocol cells never stop at a meeting",
            lineno + 1
        );
        // Detector verdicts are mode-specific: piece-number divergence is
        // a rendezvous concept, progress-tick stalls a protocol one — and
        // crash outcomes can only appear where a fault plan was armed.
        assert!(
            mode == "rendezvous" || end != "Diverged",
            "{path}:{} only rendezvous cells can diverge",
            lineno + 1
        );
        assert!(
            mode == "protocol" || end != "Stalled",
            "{path}:{} only protocol cells can stall",
            lineno + 1
        );
        assert!(
            faulted || !["SurvivorsParked", "AllCrashed"].contains(&end),
            "{path}:{} crash ends require an armed fault plan",
            lineno + 1
        );
        let agents = field("agents").as_u64().unwrap_or(0);
        assert!(agents >= 2, "{path}:{} fewer than two agents", lineno + 1);
        // The cutoff column: every row records the budget backstop it ran
        // under and where it actually stopped; `Cutoff` rows stopped
        // exactly there, detector rows strictly before.
        let cutoff = field("cutoff")
            .as_u64()
            .unwrap_or_else(|| panic!("{path}:{} cutoff must be a count", lineno + 1));
        assert!(cutoff > 0, "{path}:{} zero cutoff", lineno + 1);
        let traversals = field("traversals")
            .as_u64()
            .unwrap_or_else(|| panic!("{path}:{} traversals must be a count", lineno + 1));
        // Minimax rows repurpose the column for explored schedules and
        // the cutoff for the action horizon, so the budget relation only
        // binds the run-based modes.
        assert!(
            mode == "minimax" || traversals <= cutoff,
            "{path}:{} ran past its cutoff",
            lineno + 1
        );
        assert!(
            end != "Cutoff" || traversals == cutoff,
            "{path}:{} a Cutoff row must stop exactly at the cutoff",
            lineno + 1
        );
        assert!(
            !["Diverged", "Stalled"].contains(&end) || traversals < cutoff,
            "{path}:{} a detector row must retire strictly under the budget",
            lineno + 1
        );
        let ns = field("median_ns_per_run")
            .as_f64()
            .unwrap_or_else(|| panic!("{path}:{} median_ns_per_run must be numeric", lineno + 1));
        assert!(ns > 0.0, "{path}:{} zero timing for {scenario}", lineno + 1);
        let trials = field("trials").as_u64().unwrap_or(0);
        assert!(trials > 0, "{path}:{} zero trials", lineno + 1);
        let cost = field("cost");
        assert!(
            cost.is_null() || cost.as_u64().is_some(),
            "{path}:{} cost must be a count or null",
            lineno + 1
        );
        assert_eq!(
            cost.is_null(),
            end != "Meeting" && mode != "minimax",
            "{path}:{} cost must be present iff the run met (or the search \
             found a forced worst-case meeting)",
            lineno + 1
        );
        // Table statistics ride exactly on the minimax rows.
        for key in ["tt_hits", "tt_entries"] {
            let v = field(key);
            if mode == "minimax" {
                assert!(
                    v.as_u64().is_some(),
                    "{path}:{} {key} must be a count on minimax rows",
                    lineno + 1
                );
            } else {
                assert!(
                    v.is_null(),
                    "{path}:{} {key} must be null off the minimax rows",
                    lineno + 1
                );
            }
        }
        // The completeness check rides exactly on fault-free quiesced
        // protocol rows — and must pass there (a quiesced-but-incomplete
        // run is a protocol bug, not a budget artifact). Chaos rows are
        // exempt by construction: a crashed agent cannot satisfy it.
        let complete = field("complete");
        if mode == "protocol" && end == "AllParked" && !faulted {
            assert_eq!(
                complete.as_bool(),
                Some(true),
                "{path}:{} quiesced protocol row failed its completeness check",
                lineno + 1
            );
        } else {
            assert!(
                complete.is_null(),
                "{path}:{} complete must be null off the fault-free quiesced \
                 protocol rows",
                lineno + 1
            );
        }
        seen.push(scenario);
    }
    assert_eq!(
        seen.len(),
        expected.len(),
        "{path} covers {} of {} matrix cells",
        seen.len(),
        expected.len()
    );
    println!(
        "{path}: OK — {} rows ({} protocol, {} minimax), all cells covered",
        seen.len(),
        protocol_rows,
        minimax_rows
    );
}
