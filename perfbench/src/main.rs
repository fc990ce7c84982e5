#![forbid(unsafe_code)]
//! **perfbench** — the repository's benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints the provenance record (`provenance {…}`), the span table of a
//! traced run (`spans […]`), and as its last line one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
//! untraced, the per-layer metrics traced. Usually run as
//! `cargo run --release --manifest-path perfbench/Cargo.toml -- …` from
//! the repository root; see `perfbench/README.md`.

use perfbench::workloads::{self, minimax, protocol, rendezvous};
use perfbench::{host, measure, result_json, Ctx};
use std::path::{Path, PathBuf};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    traced: bool,
}

fn parse_args() -> Result<Args, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        let i = args
            .iter()
            .position(|a| a == flag)
            .ok_or(format!("missing {flag}"))?;
        args.get(i + 1)
            .map(String::as_str)
            .ok_or(format!("{flag} needs a value"))
    };
    let workload = value("--workload")?.to_string();
    if !workloads::NAMES.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?} (expected one of {})",
            workloads::NAMES.join(", ")
        ));
    }
    let seed = value("--seed")?
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = value("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".to_string());
    }
    let traced = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        traced,
    })
}

/// Cargo's target directory as cargo itself resolves it from here.
fn target_dir(root: &Path) -> Result<PathBuf, String> {
    match std::env::var_os("CARGO_TARGET_DIR") {
        Some(dir) => {
            let cwd = std::env::current_dir().map_err(|e| format!("current dir: {e}"))?;
            Ok(cwd.join(dir))
        }
        None => Ok(root.join("target")),
    }
}

fn run(args: &Args) -> Result<(), String> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .ok_or("the benchmark sits one level under the repository root")?
        .to_path_buf();
    let scratch = target_dir(&root)?.join("perfbench-scratch").join(format!(
        "{}-{}-{}",
        args.workload,
        args.seed,
        std::process::id()
    ));
    let ctx = Ctx {
        scratch: scratch.clone(),
    };
    let (seed, secs, traced) = (args.seed, args.seconds, args.traced);
    let measured = match args.workload.as_str() {
        "rendezvous_sweep" => measure::<rendezvous::Rendezvous>(seed, secs, traced, &ctx),
        "protocol_quiesce" => measure::<protocol::Protocol>(seed, secs, traced, &ctx),
        _ => measure::<minimax::Minimax>(seed, secs, traced, &ctx),
    };
    if scratch.exists() {
        std::fs::remove_dir_all(&scratch)
            .map_err(|e| format!("remove {}: {e}", scratch.display()))?;
    }
    let measured = measured?;
    println!(
        "provenance {}",
        host::provenance(&root, &args.workload, seed, traced, &measured.notes)
    );
    if let Some(spans) = &measured.spans {
        println!("spans {spans}");
    }
    for (name, value, unit) in &measured.metrics {
        eprintln!("{:<42} {value:>16.6} {unit}", name);
    }
    println!("{}", result_json(&measured));
    Ok(())
}

fn main() {
    let outcome = parse_args().and_then(|args| run(&args));
    if let Err(e) = outcome {
        eprintln!("perfbench: {e}");
        std::process::exit(2);
    }
}
