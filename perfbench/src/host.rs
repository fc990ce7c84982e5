//! Host and provenance record, host speed, and peak resident memory.

#![allow(clippy::disallowed_methods)] // Timing harness: wall-clock is the product here.

use std::path::Path;
use std::process::{Command, Stdio};

/// Peak resident set (`VmHWM`) of process `pid` — `"self"` for this
/// process — in MiB, read from `/proc`. `None` once the process is gone
/// or where `/proc` is unavailable.
pub fn peak_rss_mib(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Words in the speed probe's working set (4 MiB: past the private
/// caches, so the probe feels memory contention as the workloads do).
pub const PROBE_WORDS: usize = 1 << 19;

/// The speed probe's time on the reference host (a quiet two-vCPU Intel
/// Xeon virtual machine), nanoseconds.
pub const PROBE_REF_NS: f64 = 9.3e6;

/// Times one run of a fixed kernel — xorshift arithmetic and dependent
/// random read-modify-writes over `buf` — in nanoseconds. The benchmark
/// runs it before every pass; [`PROBE_REF_NS`] over its time is how fast
/// the host is running at that moment, which on a shared host changes by
/// tens of percent from one minute to the next.
pub fn probe_ns(buf: &mut [u64]) -> f64 {
    let t = std::time::Instant::now();
    let mut x = 0x1234_5678_9abc_def0u64;
    let mut acc = 0u64;
    for i in 0..3_000_000u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let j = (x % buf.len() as u64) as usize;
        acc = acc.wrapping_add(buf[j]);
        buf[j] = acc ^ i;
    }
    std::hint::black_box(acc);
    t.elapsed().as_nanos() as f64
}

fn first_line_of(cmd: &mut Command) -> Option<String> {
    let out = cmd.stderr(Stdio::null()).output().ok()?;
    if !out.status.success() {
        return None;
    }
    let text = String::from_utf8(out.stdout).ok()?;
    text.lines()
        .next()
        .map(str::trim)
        .filter(|l| !l.is_empty())
        .map(str::to_string)
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, m)| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// The git revision of `root`, when it is the top of a git checkout (the
/// search stops at `root`, so an enclosing repository never answers).
fn git_revision(root: &Path) -> String {
    let ceiling = root.parent().unwrap_or(root);
    first_line_of(
        Command::new("git")
            .args(["rev-parse", "HEAD"])
            .current_dir(root)
            .env("GIT_CEILING_DIRECTORIES", ceiling),
    )
    .unwrap_or_else(|| "none (not a git checkout)".to_string())
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The provenance record printed with every result: host (core count,
/// CPU model), toolchain and build profile, engine fingerprint and git
/// revision, and the run's own arguments. `extra` holds workload-specific
/// `(key, already-rendered JSON value)` pairs.
pub fn provenance(
    root: &Path,
    workload: &str,
    seed: u64,
    traced: bool,
    extra: &[(&str, String)],
) -> String {
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    let rustc = first_line_of(Command::new("rustc").arg("-V").current_dir(root))
        .unwrap_or_else(|| "unknown".to_string());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    let mut fields = vec![
        ("workload", json_str(workload)),
        ("seed", seed.to_string()),
        ("traced", traced.to_string()),
        ("available_parallelism", cores.to_string()),
        ("cpu_model", json_str(&cpu_model())),
        ("rustc", json_str(&rustc)),
        ("profile", json_str(profile)),
        (
            "engine_fingerprint",
            json_str(&format!("{:#018x}", rv_store::ENGINE_FINGERPRINT)),
        ),
        ("git_revision", json_str(&git_revision(root))),
    ];
    fields.extend(extra.iter().map(|(k, v)| (*k, v.clone())));
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("{}:{v}", json_str(k)))
        .collect();
    format!("{{{}}}", body.join(","))
}
