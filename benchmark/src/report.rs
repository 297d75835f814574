//! Result files: provenance plus every raw sample of a run, written under
//! `benchmark/results/` of the checkout the benchmark runs in.

use std::path::{Path, PathBuf};

/// Directory result files go to, relative to the checkout root.
pub const RESULTS_DIR: &str = "benchmark/results";

/// Where and on what the run happened.
pub fn provenance() -> serde_json::Value {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let rustc = std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string());
    serde_json::json!({
        "nproc": nproc,
        "rustc": rustc,
        "commit": commit(Path::new(".")),
        "benchmark": env!("CARGO_PKG_VERSION"),
        "unix_time_s": std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.as_secs()),
    })
}

/// The commit checked out at `root`, read from `.git` without running git;
/// `unknown` outside a git checkout.
fn commit(root: &Path) -> String {
    let git = root.join(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unknown".into();
    };
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(git.join(r))
            .map(|s| s.trim().to_string())
            .or_else(|_| {
                std::fs::read_to_string(git.join("packed-refs")).map(|p| {
                    p.lines()
                        .find(|l| l.ends_with(r))
                        .and_then(|l| l.split_whitespace().next())
                        .unwrap_or("unknown")
                        .to_string()
                })
            })
            .unwrap_or_else(|_| "unknown".into()),
        None => head.to_string(),
    }
}

/// Write `body` as `<stem>.json` (and the trace as `<stem>.trace.json`)
/// under [`RESULTS_DIR`]; returns the result file's path.
pub fn write(
    stem: &str,
    body: &serde_json::Value,
    trace: Option<&str>,
) -> std::io::Result<PathBuf> {
    let dir = Path::new(RESULTS_DIR);
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("{stem}.json"));
    let text = serde_json::to_string_pretty(body)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
    std::fs::write(&path, text)?;
    if let Some(t) = trace {
        std::fs::write(dir.join(format!("{stem}.trace.json")), t)?;
    }
    Ok(path)
}
