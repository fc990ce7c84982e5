//! The rule packs. Every rule is a named, individually suppressible check
//! over one file's token stream (see [`crate::lexer`]); scoping decisions
//! (which crates feed golden fingerprints, what counts as test code) live
//! here as data, next to the rules that consume them.
//!
//! | pack | rule ids |
//! |---|---|
//! | determinism | `det-hash-collections`, `det-wall-clock`, `det-thread-id` |
//! | panic-safety | `panic-bare-unwrap`, `panic-bare-macro`, `panic-catch-unwind-recovery` |
//! | concurrency | `atomics-ordering-comment`, `unsafe-needs-safety-comment`, `crate-forbids-unsafe` |
//! | api-misuse | `api-meetinglog-to-vec`, `api-atomic-output-write` |
//!
//! See `docs/LINTS.md` for the rationale and an example per rule.

use crate::lexer::{Lexed, TokKind, Token};
use crate::{Finding, SourceKind};

/// Crates whose runtime state feeds golden fingerprints: any
/// iteration-order or wall-clock dependence here shows up (eventually,
/// on some seed) as a broken golden hash. The facade (`src/lib.rs`,
/// re-exports only) is held to the same bar.
pub const FINGERPRINT_CRATES: &[&str] = &["sim", "protocols", "trajectory", "core", "explore"];

/// Crates where `.to_vec()` is banned in library sources: these own the
/// COW `MeetingLog` / ESST walk machinery whose whole point is not
/// materialising views.
pub const NO_TO_VEC_CRATES: &[&str] = &["sim", "protocols", "explore"];

/// Source tree whose binaries write results artifacts (row files, store
/// segments) that chaos gates SIGKILL mid-write: every output write there
/// must go through `rv_bench::write_atomic` (temp + rename), never a direct
/// in-place `fs::write` / `File::create`.
pub const ATOMIC_OUTPUT_PATH: &str = "crates/bench/src";

const ATOMIC_ORDERINGS: &[&str] = &["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"];

/// Per-file context handed to every rule.
pub struct FileCtx<'a> {
    /// Workspace-relative `/`-separated path — the *effective* path when a
    /// fixture header (`// lint-fixture: as=…`) overrides it.
    pub rel_path: &'a str,
    /// `crates/<dir>/…` directory name, if under `crates/`.
    pub crate_dir: Option<&'a str>,
    pub kind: SourceKind,
    /// True for `src/lib.rs` files (crate roots).
    pub is_crate_root: bool,
    pub lexed: &'a Lexed,
    /// Line ranges of `#[cfg(test)] mod … { … }` bodies.
    pub test_spans: &'a [(u32, u32)],
}

impl FileCtx<'_> {
    fn is_lib(&self) -> bool {
        self.kind == SourceKind::LibSrc
    }

    fn in_test_mod(&self, line: u32) -> bool {
        self.test_spans.iter().any(|&(a, b)| a <= line && line <= b)
    }

    /// Library code outside `#[cfg(test)]` — the scope of the determinism
    /// and panic-safety packs (tests/benches/examples are exempt).
    fn shipping_code(&self, line: u32) -> bool {
        self.is_lib() && !self.in_test_mod(line)
    }

    fn in_crate(&self, list: &[&str]) -> bool {
        match self.crate_dir {
            Some(d) => list.contains(&d),
            // Workspace-root `src/` (the facade) is in every scope.
            None => true,
        }
    }

    fn finding(&self, line: u32, rule: &'static str, message: String) -> Finding {
        Finding {
            path: self.rel_path.to_string(),
            line,
            rule,
            message,
        }
    }
}

/// Runs every rule against one file.
pub fn run_all(ctx: &FileCtx<'_>, out: &mut Vec<Finding>) {
    det_hash_collections(ctx, out);
    det_wall_clock(ctx, out);
    det_thread_id(ctx, out);
    panic_bare_unwrap(ctx, out);
    panic_bare_macro(ctx, out);
    panic_catch_unwind_recovery(ctx, out);
    atomics_ordering_comment(ctx, out);
    unsafe_needs_safety_comment(ctx, out);
    crate_forbids_unsafe(ctx, out);
    api_to_vec(ctx, out);
    api_atomic_output_write(ctx, out);
}

/// Every rule id this engine can emit (used by `--list-rules` and the
/// suppression-validity check).
pub const ALL_RULES: &[&str] = &[
    "det-hash-collections",
    "det-wall-clock",
    "det-thread-id",
    "panic-bare-unwrap",
    "panic-bare-macro",
    "panic-catch-unwind-recovery",
    "atomics-ordering-comment",
    "unsafe-needs-safety-comment",
    "crate-forbids-unsafe",
    "api-meetinglog-to-vec",
    "api-atomic-output-write",
];

// ---------------------------------------------------------------- determinism

/// `det-hash-collections`: no `HashMap`/`HashSet`/`RandomState`/
/// `DefaultHasher` in fingerprint-feeding library code. Iteration order of
/// the std hash collections is randomized per process (`RandomState`), so
/// any iteration — today's or one added in a refactor two years from now —
/// is a latent golden-fingerprint break. `BTreeMap`/`BTreeSet` cost one
/// log factor and are order-deterministic forever.
fn det_hash_collections(ctx: &FileCtx<'_>, out: &mut Vec<Finding>) {
    if !ctx.in_crate(FINGERPRINT_CRATES) {
        return;
    }
    for t in &ctx.lexed.tokens {
        if t.kind != TokKind::Ident || !ctx.shipping_code(t.line) {
            continue;
        }
        if matches!(
            t.text.as_str(),
            "HashMap" | "HashSet" | "RandomState" | "DefaultHasher"
        ) {
            out.push(ctx.finding(
                t.line,
                "det-hash-collections",
                format!(
                    "`{}` in a fingerprint-feeding crate: iteration order is \
                     process-random; use BTreeMap/BTreeSet (or prove non-iteration \
                     and allowlist with a justification)",
                    t.text
                ),
            ));
        }
    }
}

/// `det-wall-clock`: no `Instant`/`SystemTime` in library code anywhere
/// but the bench harness. Simulation time is action counts; wall-clock in
/// the core would make stop policies and traces machine-dependent.
fn det_wall_clock(ctx: &FileCtx<'_>, out: &mut Vec<Finding>) {
    for t in &ctx.lexed.tokens {
        if t.kind != TokKind::Ident || !ctx.shipping_code(t.line) {
            continue;
        }
        if t.text == "Instant" || t.text == "SystemTime" {
            out.push(ctx.finding(
                t.line,
                "det-wall-clock",
                format!(
                    "`{}` in simulator core: time must be action counts, never \
                     wall-clock (the bench harness is the sanctioned consumer)",
                    t.text
                ),
            ));
        }
    }
}

/// `det-thread-id`: `thread::current().id()`-derived logic is banned in
/// library code — results must be scheduler-independent.
fn det_thread_id(ctx: &FileCtx<'_>, out: &mut Vec<Finding>) {
    let toks = &ctx.lexed.tokens;
    for i in 0..toks.len() {
        if !ctx.shipping_code(toks[i].line) {
            continue;
        }
        // `current ( ) . id ( )`
        if toks[i].is_ident("current")
            && matches_punct_run(&toks[i + 1..], &['(', ')', '.'])
            && toks.get(i + 4).is_some_and(|t| t.is_ident("id"))
            && matches_punct_run(&toks[i + 5..], &['(', ')'])
        {
            out.push(
                ctx.finding(
                    toks[i].line,
                    "det-thread-id",
                    "thread-identity-dependent logic in library code: results \
                 must not depend on which thread runs what"
                        .to_string(),
                ),
            );
        }
    }
}

// --------------------------------------------------------------- panic-safety

/// `panic-bare-unwrap`: library code must state the invariant it relies on
/// — `expect(\"<invariant>\")` or fallible handling — never a bare
/// `unwrap()`. Tests, benches and examples are exempt.
fn panic_bare_unwrap(ctx: &FileCtx<'_>, out: &mut Vec<Finding>) {
    let toks = &ctx.lexed.tokens;
    for i in 0..toks.len() {
        if !ctx.shipping_code(toks[i].line) {
            continue;
        }
        if toks[i].is_punct('.')
            && toks.get(i + 1).is_some_and(|t| t.is_ident("unwrap"))
            && matches_punct_run(&toks[i + 2..], &['(', ')'])
        {
            out.push(
                ctx.finding(
                    toks[i + 1].line,
                    "panic-bare-unwrap",
                    "bare `unwrap()` in library code: use `expect(\"<invariant>\")` \
                 or return the error"
                        .to_string(),
                ),
            );
        }
    }
}

/// `panic-bare-macro`: `panic!()`/`unreachable!()` without a message (and
/// `todo!`/`unimplemented!` in any form) in library code. A panic with no
/// invariant text is as undiagnosable as a bare unwrap; `todo!` is
/// unfinished work shipping.
fn panic_bare_macro(ctx: &FileCtx<'_>, out: &mut Vec<Finding>) {
    let toks = &ctx.lexed.tokens;
    for i in 0..toks.len() {
        if !ctx.shipping_code(toks[i].line) || toks[i].kind != TokKind::Ident {
            continue;
        }
        let name = toks[i].text.as_str();
        let is_macro = toks.get(i + 1).is_some_and(|t| t.is_punct('!'));
        if !is_macro {
            continue;
        }
        let placeholder = matches!(name, "todo" | "unimplemented");
        let bare = matches!(name, "panic" | "unreachable")
            && matches_punct_run(&toks[i + 2..], &['(', ')']);
        if placeholder || bare {
            out.push(ctx.finding(
                toks[i].line,
                "panic-bare-macro",
                format!(
                    "`{name}!` without an invariant message in library code: \
                     state what was violated (or handle it)"
                ),
            ));
        }
    }
}

/// `panic-catch-unwind-recovery`: every `catch_unwind` boundary must
/// carry an adjacent `// recovery:` comment (same line or the block
/// directly above) stating what happens to the in-flight state — what is
/// discarded, what is restored, and where the payload goes if recovery
/// gives up. A panic boundary without that argument is how half-merged
/// results and wedged termination counters ship. No test exemption:
/// a test that swallows panics undocumented misleads just as much.
fn panic_catch_unwind_recovery(ctx: &FileCtx<'_>, out: &mut Vec<Finding>) {
    for t in &ctx.lexed.tokens {
        if t.is_ident("catch_unwind")
            && !ctx
                .lexed
                .adjacent_comment_text(t.line)
                .to_lowercase()
                .contains("recovery:")
        {
            out.push(
                ctx.finding(
                    t.line,
                    "panic-catch-unwind-recovery",
                    "`catch_unwind` without an adjacent `// recovery:` comment stating \
                 how partial state is discarded/restored and where a terminal \
                 panic propagates"
                        .to_string(),
                ),
            );
        }
    }
}

// ---------------------------------------------------------------- concurrency

/// `atomics-ordering-comment`: every `Ordering::{Relaxed,…,SeqCst}` use
/// must carry an adjacent `// ordering:` comment justifying the chosen
/// strength — same line or the comment block directly above. Memory
/// orderings are unreviewable without the author's argument.
fn atomics_ordering_comment(ctx: &FileCtx<'_>, out: &mut Vec<Finding>) {
    let toks = &ctx.lexed.tokens;
    for i in 0..toks.len() {
        if !toks[i].is_ident("Ordering")
            || !matches_punct_run(&toks[i + 1..], &[':', ':'])
            || !toks.get(i + 3).is_some_and(|t| {
                t.kind == TokKind::Ident && ATOMIC_ORDERINGS.contains(&t.text.as_str())
            })
        {
            continue;
        }
        let line = toks[i].line;
        let justification = ctx.lexed.adjacent_comment_text(line).to_lowercase();
        if !justification.contains("ordering:") {
            out.push(ctx.finding(
                line,
                "atomics-ordering-comment",
                format!(
                    "`Ordering::{}` without an adjacent `// ordering:` justification \
                     comment (same line or directly above)",
                    toks[i + 3].text
                ),
            ));
        }
    }
}

/// `unsafe-needs-safety-comment`: any `unsafe` keyword needs an adjacent
/// `// SAFETY:` comment. The workspace currently has zero unsafe blocks
/// and crate roots forbid them; this rule covers the day someone lifts a
/// forbid.
fn unsafe_needs_safety_comment(ctx: &FileCtx<'_>, out: &mut Vec<Finding>) {
    for t in &ctx.lexed.tokens {
        if t.is_ident("unsafe") && !ctx.lexed.adjacent_comment_text(t.line).contains("SAFETY:") {
            out.push(
                ctx.finding(
                    t.line,
                    "unsafe-needs-safety-comment",
                    "`unsafe` without an adjacent `// SAFETY:` comment stating the \
                 obligation being discharged"
                        .to_string(),
                ),
            );
        }
    }
}

/// `crate-forbids-unsafe`: every crate root must declare
/// `#![forbid(unsafe_code)]` — the workspace has no unsafe and forbidding
/// it at the root turns "keep it that way" into a compile error instead
/// of a review comment.
fn crate_forbids_unsafe(ctx: &FileCtx<'_>, out: &mut Vec<Finding>) {
    if !ctx.is_crate_root {
        return;
    }
    let toks = &ctx.lexed.tokens;
    let has = (0..toks.len()).any(|i| {
        toks[i].is_punct('#')
            && matches_punct_run(&toks[i + 1..], &['!', '['])
            && toks.get(i + 3).is_some_and(|t| t.is_ident("forbid"))
            && toks.get(i + 4).is_some_and(|t| t.is_punct('('))
            && toks.get(i + 5).is_some_and(|t| t.is_ident("unsafe_code"))
            && matches_punct_run(&toks[i + 6..], &[')', ']'])
    });
    if !has {
        out.push(ctx.finding(
            1,
            "crate-forbids-unsafe",
            "crate root does not declare `#![forbid(unsafe_code)]`".to_string(),
        ));
    }
}

// ----------------------------------------------------------------- api-misuse

/// `api-meetinglog-to-vec`: no `.to_vec()` in the crates owning the COW
/// `MeetingLog` and the ESST walk machinery. Their views exist precisely
/// so million-entry logs are never materialised; a `to_vec()` on one is an
/// O(run length) copy hiding in an O(1) API.
fn api_to_vec(ctx: &FileCtx<'_>, out: &mut Vec<Finding>) {
    if !ctx.in_crate(NO_TO_VEC_CRATES) {
        return;
    }
    let toks = &ctx.lexed.tokens;
    for i in 0..toks.len() {
        if !ctx.shipping_code(toks[i].line) {
            continue;
        }
        if toks[i].is_punct('.')
            && toks.get(i + 1).is_some_and(|t| t.is_ident("to_vec"))
            && matches_punct_run(&toks[i + 2..], &['(', ')'])
        {
            out.push(
                ctx.finding(
                    toks[i + 1].line,
                    "api-meetinglog-to-vec",
                    "`.to_vec()` in a COW-log crate: iterate the view or take \
                 ownership with an `into_…` accessor instead of materialising"
                        .to_string(),
                ),
            );
        }
    }
}

/// `api-atomic-output-write`: in the experiment-binary tree
/// (`crates/bench/src`), no direct `fs::write(…)` or `File::create(…)`.
/// The chaos gates SIGKILL these binaries mid-sweep, and a torn half-written
/// row file or store segment then poisons every later `--diff` or rerun
/// that reads it; writes must go through `rv_bench::write_atomic`
/// (same-directory temp + atomic rename), which makes every artifact
/// either the old complete bytes or the new ones.
/// The store's segment writer (`rv_store`) is the one place allowed to
/// manage its own file handles, and it lives outside this tree.
fn api_atomic_output_write(ctx: &FileCtx<'_>, out: &mut Vec<Finding>) {
    if !ctx.rel_path.starts_with(ATOMIC_OUTPUT_PATH) {
        return;
    }
    let toks = &ctx.lexed.tokens;
    for i in 0..toks.len() {
        if ctx.in_test_mod(toks[i].line) {
            continue;
        }
        let callee = if toks[i].is_ident("fs") {
            "write"
        } else if toks[i].is_ident("File") {
            "create"
        } else {
            continue;
        };
        if matches_punct_run(&toks[i + 1..], &[':', ':'])
            && toks.get(i + 3).is_some_and(|t| t.is_ident(callee))
            && toks.get(i + 4).is_some_and(|t| t.is_punct('('))
        {
            out.push(ctx.finding(
                toks[i].line,
                "api-atomic-output-write",
                format!(
                    "`{}::{callee}(…)` writes an output file in place: a SIGKILL \
                     mid-write leaves a torn artifact — use `rv_bench::write_atomic` \
                     (temp + rename) instead",
                    toks[i].text
                ),
            ));
        }
    }
}

/// True if `toks` starts with exactly the punctuation run `run`.
fn matches_punct_run(toks: &[Token], run: &[char]) -> bool {
    run.len() <= toks.len() && run.iter().zip(toks).all(|(&c, t)| t.is_punct(c))
}
