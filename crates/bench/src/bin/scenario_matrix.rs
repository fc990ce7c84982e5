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
//!                 [--checkpoint DIR [--resume]]
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
//! **Durable sweeps** (`docs/FAULTS.md`): `--checkpoint DIR` is the same
//! store machinery pointed at a sweep-private directory, plus the legacy
//! observability surface: `DIR/meta.json` (the sweep configuration;
//! `--resume` refuses a mismatch) and `DIR/rows.jsonl` (the finished
//! prefix, rewritten atomically after every computed cell — what the
//! chaos gates poll). `--resume` serves already-stored cells and runs
//! only the missing ones; a SIGKILL at any instant loses at most the
//! cell in flight. `--store` and `--checkpoint` are mutually exclusive.
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
//! order under the invocation's `--smoke`/`--trials`/`--engine-fp`.

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

/// The sweep configuration echoed into a checkpoint's `meta.json`:
/// `--resume` refuses to splice rows measured under different settings
/// into one table. (The content keys would miss anyway — trials and
/// cutoff are part of the key — but a loud refusal beats a silent
/// full recompute that masks a typo.)
#[derive(Clone, Debug, PartialEq, Eq, Serialize)]
struct CheckpointMeta {
    smoke: bool,
    trials: usize,
    only: Option<String>,
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let trials = args
        .iter()
        .position(|a| a == "--trials")
        .map(|i| {
            args.get(i + 1)
                .and_then(|v| v.parse::<usize>().ok())
                .filter(|&t| t > 0)
                .unwrap_or_else(|| rv_bench::fail("--trials requires a positive integer"))
        })
        .unwrap_or(if smoke { 1 } else { 5 });
    let only = args.iter().position(|a| a == "--only").map(|i| {
        args.get(i + 1)
            .unwrap_or_else(|| rv_bench::fail("--only requires a substring argument"))
            .clone()
    });
    let engine_fp = args
        .iter()
        .position(|a| a == "--engine-fp")
        .map(|i| {
            let raw = args
                .get(i + 1)
                .unwrap_or_else(|| rv_bench::fail("--engine-fp requires a u64 argument"));
            parse_fp(raw).unwrap_or_else(|| {
                rv_bench::fail(format!(
                    "--engine-fp: {raw:?} is not a u64 (decimal or 0x-hex)"
                ))
            })
        })
        .unwrap_or(rv_store::ENGINE_FINGERPRINT);

    if let Some(i) = args.iter().position(|a| a == "--check") {
        let path = args
            .get(i + 1)
            .unwrap_or_else(|| rv_bench::fail("--check requires a path argument"));
        check(path);
        return;
    }
    if let Some(i) = args.iter().position(|a| a == "--diff") {
        let a = args
            .get(i + 1)
            .unwrap_or_else(|| rv_bench::fail("--diff requires two path arguments"));
        let b = args
            .get(i + 2)
            .unwrap_or_else(|| rv_bench::fail("--diff requires two path arguments"));
        diff(a, b, smoke, trials, only.as_deref(), engine_fp);
        return;
    }

    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .map(|i| {
            args.get(i + 1)
                .unwrap_or_else(|| rv_bench::fail("--out requires a path argument"))
                .clone()
        })
        .unwrap_or_else(|| "MATRIX_baseline.jsonl".to_string());
    let store_dir = args.iter().position(|a| a == "--store").map(|i| {
        PathBuf::from(
            args.get(i + 1)
                .unwrap_or_else(|| rv_bench::fail("--store requires a directory argument")),
        )
    });
    let checkpoint = args.iter().position(|a| a == "--checkpoint").map(|i| {
        PathBuf::from(
            args.get(i + 1)
                .unwrap_or_else(|| rv_bench::fail("--checkpoint requires a directory argument")),
        )
    });
    let resume = args.iter().any(|a| a == "--resume");
    if resume && checkpoint.is_none() {
        rv_bench::fail("--resume requires --checkpoint DIR");
    }
    if store_dir.is_some() && checkpoint.is_some() {
        rv_bench::fail(
            "--store and --checkpoint are mutually exclusive (a checkpoint *is* a \
             sweep-private store; point --store at a shared directory instead)",
        );
    }

    let meta = CheckpointMeta {
        smoke,
        trials,
        only: only.clone(),
    };
    if let Some(dir) = &checkpoint {
        if resume {
            refuse_meta_mismatch(dir, &meta);
        }
        std::fs::create_dir_all(dir).unwrap_or_else(|e| {
            rv_bench::fail(format!(
                "cannot create checkpoint directory {}: {e}",
                dir.display()
            ))
        });
        let meta_json = serde_json::to_string(&meta).expect("meta serialises");
        rv_bench::write_atomic(dir.join("meta.json"), format!("{meta_json}\n"))
            .unwrap_or_else(|e| rv_bench::fail(format!("cannot write checkpoint meta: {e}")));
    }

    // The store: shared (`--store`) or sweep-private (`--checkpoint`).
    // Warm serving is unconditional for a shared store; a checkpoint
    // serves only under `--resume` (a fresh checkpointed run recomputes,
    // exactly as the durable sweeps always did).
    let serve_warm = store_dir.is_some() || resume;
    let mut store = store_dir.as_ref().or(checkpoint.as_ref()).map(|dir| {
        let s = Store::open(dir).unwrap_or_else(|e| {
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

    let mut lines = String::new();
    let mut rows = 0usize;
    let mut hits = 0usize;
    let mut executed = 0usize;
    for spec in cells() {
        let scenario = spec.scenario_id();
        if let Some(filter) = &only {
            if !scenario.contains(filter.as_str()) {
                continue;
            }
        }
        let cutoff = spec.cutoff(smoke);
        let key = StoreKey {
            cell: spec.content_key(trials, cutoff),
            engine: engine_fp,
        };
        // A warm cell is served as its stored row *line*, verbatim —
        // re-measuring would only perturb the timing column; everything
        // else is deterministic and must come out identical anyway.
        if serve_warm {
            if let Some(line) = store.as_ref().and_then(|s| s.get(key)) {
                let line = std::str::from_utf8(line).unwrap_or_else(|_| {
                    rv_bench::fail(format!("store row for {scenario} is not UTF-8"))
                });
                lines.push_str(line);
                lines.push('\n');
                rows += 1;
                hits += 1;
                continue;
            }
        }
        let row = run_cell(&spec, trials, cutoff);
        let line = serde_json::to_string(&row).expect("rows serialise");
        lines.push_str(&line);
        lines.push('\n');
        rows += 1;
        executed += 1;
        if let Some(s) = store.as_mut() {
            // Durability before progress: the record is on disk (atomic
            // whole-segment replace) before the sweep moves on, so a
            // SIGKILL between cells loses at most the cell in flight.
            s.append(key, line.as_bytes()).unwrap_or_else(|e| {
                rv_bench::fail(format!("cannot append {scenario} to the store: {e}"))
            });
        }
        if let Some(dir) = &checkpoint {
            // Legacy observability surface: the finished prefix as plain
            // JSON lines, atomically rewritten per cell (the chaos gates
            // poll this file to time their SIGKILL).
            rv_bench::write_atomic(dir.join("rows.jsonl"), &lines).unwrap_or_else(|e| {
                rv_bench::fail(format!("cannot checkpoint rows to {}: {e}", dir.display()))
            });
        }
    }
    rv_bench::write_atomic(&out_path, &lines)
        .unwrap_or_else(|e| rv_bench::fail(format!("cannot write {out_path}: {e}")));
    if store_dir.is_some() {
        println!(
            "wrote {rows} rows ({trials} trials per cell, {hits}/{rows} from store, \
             {executed} executed) to {out_path}"
        );
    } else if resume {
        println!(
            "wrote {rows} rows ({trials} trials per cell, {hits} reused from checkpoint) \
             to {out_path}"
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

/// `--resume` guard: a checkpoint written under a different configuration
/// is refused, not silently spliced. A missing checkpoint is an empty one
/// (the sweep simply starts over).
fn refuse_meta_mismatch(dir: &Path, meta: &CheckpointMeta) {
    let meta_path = dir.join("meta.json");
    let text = match std::fs::read_to_string(&meta_path) {
        Ok(text) => text,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return,
        Err(e) => rv_bench::fail(format!("cannot read {}: {e}", meta_path.display())),
    };
    let v = serde_json::from_str(&text).unwrap_or_else(|e| {
        rv_bench::fail(format!("{} is not valid JSON: {e}", meta_path.display()))
    });
    let found = CheckpointMeta {
        smoke: v.get("smoke").and_then(|x| x.as_bool()).unwrap_or_else(|| {
            rv_bench::fail(format!("{} has no smoke flag", meta_path.display()))
        }),
        trials: v.get("trials").and_then(|x| x.as_u64()).unwrap_or_else(|| {
            rv_bench::fail(format!("{} has no trial count", meta_path.display()))
        }) as usize,
        only: v.get("only").filter(|x| !x.is_null()).map(|x| {
            x.as_str()
                .unwrap_or_else(|| {
                    rv_bench::fail(format!(
                        "{} only-filter must be a string",
                        meta_path.display()
                    ))
                })
                .to_string()
        }),
    };
    if &found != meta {
        rv_bench::fail(format!(
            "checkpoint {} was written by a different configuration \
             ({found:?}, this run is {meta:?}); refusing to splice",
            dir.display()
        ));
    }
}

/// Loads one `--diff` source as raw row lines: a file is read as JSON
/// lines; a directory is opened as a store and materialised in declared
/// cell order under this invocation's configuration (`--smoke`,
/// `--trials`, `--only`, `--engine-fp`), failing loudly on any missing
/// cell — a half-populated store must not diff clean.
fn load_rows(
    src: &str,
    smoke: bool,
    trials: usize,
    only: Option<&str>,
    engine_fp: u64,
) -> Vec<String> {
    if !Path::new(src).is_dir() {
        let text = std::fs::read_to_string(src)
            .unwrap_or_else(|e| rv_bench::fail(format!("cannot read {src}: {e}")));
        return text.lines().map(str::to_string).collect();
    }
    let store = Store::open(src)
        .unwrap_or_else(|e| rv_bench::fail(format!("cannot open store {src}: {e}")));
    let mut out = Vec::new();
    for spec in cells() {
        let scenario = spec.scenario_id();
        if let Some(filter) = only {
            if !scenario.contains(filter) {
                continue;
            }
        }
        let cutoff = spec.cutoff(smoke);
        let key = StoreKey {
            cell: spec.content_key(trials, cutoff),
            engine: engine_fp,
        };
        let line = store.get(key).unwrap_or_else(|| {
            rv_bench::fail(format!(
                "store {src} has no row for {scenario} under this configuration \
                 (smoke={smoke}, trials={trials}, engine_fp={engine_fp:#018x})"
            ))
        });
        out.push(
            std::str::from_utf8(line)
                .unwrap_or_else(|_| {
                    rv_bench::fail(format!("store row for {scenario} is not UTF-8"))
                })
                .to_string(),
        );
    }
    out
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
/// gate: a resumed sweep — or a fully store-served one — must reproduce
/// the reference table exactly, timing aside.
fn diff(a: &str, b: &str, smoke: bool, trials: usize, only: Option<&str>, engine_fp: u64) {
    let la = load_rows(a, smoke, trials, only, engine_fp);
    let lb = load_rows(b, smoke, trials, only, engine_fp);
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
