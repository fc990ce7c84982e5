//! End-to-end gates for the content-addressed cell store (`docs/STORE.md`),
//! against the real `scenario_matrix` binary:
//!
//! * a SIGKILL mid-sweep loses at most the cell in flight — the rerun
//!   serves every stored cell and matches an uninterrupted reference;
//! * a fully-warm run executes **zero** cells and writes a byte-identical
//!   row file;
//! * flipping the engine fingerprint orphans the whole population
//!   (everything recomputes), and the flipped population then serves warm
//!   under the same flip;
//! * `--diff` compares typed rows: real rows that differ only in timing
//!   diff clean, a value change does not, a field-reordered row is
//!   refused as non-canonical — and `--only` filters a row file the same
//!   way it filters a store;
//! * an unknown argument fails instead of running the default sweep.

// Chaos harness: polling and killing a child process is inherently
// wall-clock; the sweep under test stays deterministic.
#![allow(clippy::disallowed_methods)]

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

const BIN: &str = env!("CARGO_BIN_EXE_scenario_matrix");

fn tmp_root(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rv_store_chaos_{}_{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

fn run(args: &[&str], cwd: &Path) -> std::process::ExitStatus {
    Command::new(BIN)
        .args(args)
        .current_dir(cwd)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()
        .expect("scenario_matrix spawns")
}

/// Runs the binary and returns its stdout (asserting success).
fn run_stdout(args: &[&str], cwd: &Path) -> String {
    let out = Command::new(BIN)
        .args(args)
        .current_dir(cwd)
        .stderr(Stdio::null())
        .output()
        .expect("scenario_matrix spawns");
    assert!(out.status.success(), "scenario_matrix {args:?} failed");
    String::from_utf8(out.stdout).expect("stdout is UTF-8")
}

#[test]
fn sigkilled_store_sweep_reruns_to_the_identical_table() {
    let dir = tmp_root("kill");

    // The uninterrupted reference table.
    assert!(
        run(&["--smoke", "--only", "ring8", "--out", "ref.jsonl"], &dir).success(),
        "reference sweep failed"
    );

    // The victim: same slice against a fresh store — killed as soon as a
    // few records are durable.
    let mut child = Command::new(BIN)
        .args([
            "--smoke",
            "--only",
            "ring8",
            "--store",
            "st",
            "--out",
            "victim.jsonl",
        ])
        .current_dir(&dir)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("victim sweep spawns");
    let segment = dir.join("st/segment.log");
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        // Each cell appends one few-hundred-byte record; once the segment
        // holds a handful of them, some cells are durable and some are
        // still to come — the interesting window for the kill.
        let durable = std::fs::metadata(&segment).map(|m| m.len()).unwrap_or(0);
        if durable >= 1500 {
            break;
        }
        // A fast machine may finish the slice before we land the kill —
        // then the rerun below is a pure replay, which must also work.
        if child.try_wait().expect("try_wait").is_some() {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "sweep made no store progress within the deadline"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    child.kill().ok(); // SIGKILL; racing a normal exit is fine
    child.wait().expect("victim reaped");

    // Rerun against the same store: stored cells serve, missing cells
    // recompute, and the table matches the reference (timing aside).
    assert!(
        run(
            &[
                "--smoke",
                "--only",
                "ring8",
                "--store",
                "st",
                "--out",
                "rerun.jsonl",
            ],
            &dir
        )
        .success(),
        "store rerun failed"
    );
    assert!(
        run(&["--diff", "ref.jsonl", "rerun.jsonl"], &dir).success(),
        "store-served table differs from the uninterrupted reference"
    );

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn warm_store_run_executes_nothing_and_is_byte_identical() {
    let dir = tmp_root("warm");

    let cold = run_stdout(
        &[
            "--smoke",
            "--only",
            "ring8",
            "--store",
            "st",
            "--out",
            "cold.jsonl",
        ],
        &dir,
    );
    assert!(
        cold.contains("0/28 from store, 28 executed"),
        "cold run must execute every cell of the slice: {cold:?}"
    );
    let warm = run_stdout(
        &[
            "--smoke",
            "--only",
            "ring8",
            "--store",
            "st",
            "--out",
            "warm.jsonl",
        ],
        &dir,
    );
    assert!(
        warm.contains("28/28 from store, 0 executed"),
        "a fully-warm run must execute zero cells: {warm:?}"
    );
    let cold_rows = std::fs::read(dir.join("cold.jsonl")).expect("cold rows");
    let warm_rows = std::fs::read(dir.join("warm.jsonl")).expect("warm rows");
    assert_eq!(
        cold_rows, warm_rows,
        "a fully-warm run must write a byte-identical row file"
    );

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn engine_fingerprint_flip_orphans_the_stored_population() {
    let dir = tmp_root("flip");
    let slice = "ring8/round-robin"; // 4 variants + 3 team sizes: small and fast

    let cold = run_stdout(
        &[
            "--smoke", "--only", slice, "--store", "st", "--out", "a.jsonl",
        ],
        &dir,
    );
    assert!(cold.contains("0/7 from store, 7 executed"), "{cold:?}");

    // Same cells, same store, different engine fingerprint: every key
    // misses — a semantic engine change recomputes the world.
    let flipped = run_stdout(
        &[
            "--smoke",
            "--only",
            slice,
            "--store",
            "st",
            "--engine-fp",
            "0xdead",
            "--out",
            "b.jsonl",
        ],
        &dir,
    );
    assert!(
        flipped.contains("0/7 from store, 7 executed"),
        "a fingerprint flip must orphan every stored row: {flipped:?}"
    );

    // And the flipped population is itself stored: rerunning under the
    // same flip serves warm.
    let flipped_warm = run_stdout(
        &[
            "--smoke",
            "--only",
            slice,
            "--store",
            "st",
            "--engine-fp",
            "0xdead",
            "--out",
            "c.jsonl",
        ],
        &dir,
    );
    assert!(
        flipped_warm.contains("7/7 from store, 0 executed"),
        "the flipped population must serve warm under the same flip: {flipped_warm:?}"
    );
    // Both populations coexist: the original fingerprint still serves.
    let original_warm = run_stdout(
        &[
            "--smoke", "--only", slice, "--store", "st", "--out", "d.jsonl",
        ],
        &dir,
    );
    assert!(
        original_warm.contains("7/7 from store, 0 executed"),
        "the original population must survive the flip: {original_warm:?}"
    );

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn diff_is_schema_aware_not_positional() {
    let dir = tmp_root("diff");
    let fixtures = include_str!("fixtures/rows.jsonl");
    // Each real row with its wall-clock column replaced, and each row
    // with that column moved to the front.
    let timing = |line: &str| line.rfind(r#","median_ns_per_run":"#).expect("timed row");
    let retimed: String = fixtures
        .lines()
        .map(|line| format!("{},\"median_ns_per_run\":12345}}\n", &line[..timing(line)]))
        .collect();
    let reordered: String = fixtures
        .lines()
        .map(|line| {
            let (head, tail) = line.split_at(timing(line));
            let tail = tail.trim_start_matches(',').trim_end_matches('}');
            format!("{{{tail},{}}}\n", &head[1..])
        })
        .collect();
    std::fs::write(dir.join("a.jsonl"), fixtures).expect("write a");
    std::fs::write(dir.join("b.jsonl"), &retimed).expect("write b");
    assert!(
        run(&["--diff", "a.jsonl", "b.jsonl"], &dir).success(),
        "rows that differ only in timing must diff clean"
    );

    // A real value difference must still be caught.
    let changed = retimed.replacen(r#""traversals":5118"#, r#""traversals":5119"#, 1);
    assert_ne!(
        changed, retimed,
        "the diverging ring16 row must be a fixture"
    );
    std::fs::write(dir.join("c.jsonl"), changed).expect("write c");
    assert!(
        !run(&["--diff", "a.jsonl", "c.jsonl"], &dir).success(),
        "a non-timing value change must fail the diff"
    );

    // A field-reordered real row is not a row's own rendering: --diff
    // refuses it by file and line instead of comparing it.
    std::fs::write(dir.join("d.jsonl"), reordered).expect("write d");
    let out = Command::new(BIN)
        .args(["--diff", "a.jsonl", "d.jsonl"])
        .current_dir(&dir)
        .output()
        .expect("scenario_matrix spawns");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "a reordered row must fail the diff");
    assert!(
        stderr.contains("d.jsonl:1 is not a matrix row: not in the canonical row form"),
        "a reordered row must be refused as non-canonical: {stderr}"
    );

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn unknown_arguments_fail_and_write_no_rows() {
    let dir = tmp_root("args");
    // A misspelt flag and a flag the runner does not have are both
    // unknown arguments: the run must fail rather than sweep the default
    // configuration.
    for (bad, value) in [("--tirals", "3"), ("--checkpoint", "ck")] {
        let status = run(
            &[
                "--smoke",
                "--only",
                "ring8/round-robin/paper",
                bad,
                value,
                "--out",
                "y.jsonl",
            ],
            &dir,
        );
        assert!(!status.success(), "{bad} must be refused");
        assert!(
            !dir.join("y.jsonl").exists(),
            "a refused {bad} must write no row file"
        );
    }

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn diff_applies_only_to_row_files_as_to_stores() {
    let dir = tmp_root("only");
    let diff_paper_row = |file: &str| {
        let args = [
            "--smoke",
            "--only",
            "ring8/round-robin/paper",
            "--diff",
            file,
            "st",
        ];
        run(&args, &dir).success()
    };

    // A 7-row slice file and a store holding the same cells.
    assert!(
        run(
            &[
                "--smoke",
                "--only",
                "ring8/round-robin",
                "--store",
                "st",
                "--out",
                "slice.jsonl",
            ],
            &dir
        )
        .success(),
        "slice sweep failed"
    );
    assert!(
        diff_paper_row("slice.jsonl"),
        "--only must filter the row file like the store"
    );

    // A real value change inside the filtered slice still fails.
    let text = std::fs::read_to_string(dir.join("slice.jsonl")).expect("slice rows");
    let changed = text.replace(r#""variant":"paper""#, r#""variant":"changed""#);
    assert_ne!(changed, text, "the paper row must be in the slice");
    std::fs::write(dir.join("changed.jsonl"), changed).expect("write changed");
    assert!(
        !diff_paper_row("changed.jsonl"),
        "a value change inside the --only slice must fail the diff"
    );

    std::fs::remove_dir_all(&dir).ok();
}
