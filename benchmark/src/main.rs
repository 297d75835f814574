//! Command line of the commgraph workload benchmark.
//!
//! ```text
//! commgraph-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! commgraph-perfbench --compare <result dir A> <result dir B>
//! commgraph-perfbench --reference <name>     # print the oracle digests at the default seed
//! ```
//!
//! A run prints a summary, then as its last line one JSON object with the
//! keys `correct`, `attempted`, `failed` and `metrics`, and writes its full
//! record (provenance and every raw sample) under `benchmark/results/`. It
//! exits 1 when any output differs from its reference, 2 on bad usage.

use commgraph_perfbench::runner::{self, Workload};
use commgraph_perfbench::{compare, digest, report, DEFAULT_SEED};
use std::process::ExitCode;

fn usage(msg: &str) -> ExitCode {
    eprintln!("error: {msg}");
    eprintln!(
        "usage: commgraph-perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>\n       \
         commgraph-perfbench --compare <dir A> <dir B>\n       \
         commgraph-perfbench --reference <workload>",
        Workload::ALL.map(Workload::name).join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("--compare") => {
            let [_, a, b] = args.as_slice() else {
                return usage("--compare takes two result directories");
            };
            match compare::compare_dirs(a.as_ref(), b.as_ref()) {
                Ok(text) => {
                    print!("{text}");
                    ExitCode::SUCCESS
                }
                Err(e) => usage(&e),
            }
        }
        Some("--reference") => {
            let Some(w) = args.get(1).and_then(|n| Workload::parse(n)) else {
                return usage("--reference takes a workload name");
            };
            match w.generate(DEFAULT_SEED).and_then(|input| input.reference()) {
                Ok(digests) => {
                    print!("{}", digest::render(&digests));
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("error: {e}");
                    ExitCode::from(1)
                }
            }
        }
        Some("--memory-probe") => {
            let (Some(w), Some(seed)) = (
                args.get(1).and_then(|n| Workload::parse(n)),
                args.get(2).and_then(|s| s.parse::<u64>().ok()),
            ) else {
                return usage("--memory-probe takes a workload name and a seed");
            };
            match runner::first_pass_peak_mb(w, seed) {
                Ok(mb) => {
                    println!("{mb}");
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("error: {e}");
                    ExitCode::from(1)
                }
            }
        }
        _ => run(&args),
    }
}

/// Measure `peak_mem_mb` in a child process: a fresh heap whose allocator
/// hands freed memory back to the kernel at once (glibc: one arena, no
/// trim threshold, a fixed mmap threshold), running the generator and then one
/// pass, so the resident high-water mark reflects what the pass holds
/// rather than what the generator or earlier passes left in the heap. Other
/// allocators ignore these variables. The timing passes run in this
/// process with the allocator's defaults.
fn probe_memory(workload: Workload, seed: u64) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = std::process::Command::new(exe)
        .args(["--memory-probe", workload.name(), &seed.to_string()])
        .env("MALLOC_ARENA_MAX", "1")
        .env("MALLOC_TRIM_THRESHOLD_", "0")
        .env("MALLOC_MMAP_THRESHOLD_", "131072")
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start the memory probe: {e}"))?;
    if !out.status.success() {
        return Err(format!("memory probe failed: {}", out.status));
    }
    String::from_utf8_lossy(&out.stdout)
        .trim()
        .parse()
        .map_err(|e| format!("memory probe printed no number: {e}"))
}

fn run(args: &[String]) -> ExitCode {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else {
            return usage(&format!("{flag} needs a value"));
        };
        match flag.as_str() {
            "--workload" => match Workload::parse(value) {
                Some(w) => workload = Some(w),
                None => return usage(&format!("unknown workload {value:?}")),
            },
            "--seed" => match value.parse::<u64>() {
                Ok(s) => seed = Some(s),
                Err(_) => return usage(&format!("seed {value:?} is not a whole number")),
            },
            "--seconds" => match value.parse::<f64>() {
                Ok(s) if s > 0.0 && s.is_finite() => seconds = Some(s),
                _ => return usage(&format!("seconds {value:?} is not a positive number")),
            },
            "--trace" => match value.as_str() {
                "0" => trace = Some(false),
                "1" => trace = Some(true),
                _ => return usage(&format!("trace {value:?} is not 0 or 1")),
            },
            _ => return usage(&format!("unknown flag {flag:?}")),
        }
    }
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (workload, seed, seconds, trace)
    else {
        return usage("--workload, --seed, --seconds and --trace are all required");
    };

    let peak_mem_mb = if trace {
        None
    } else {
        match probe_memory(workload, seed) {
            Ok(mb) => Some(mb),
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::from(1);
            }
        }
    };
    let out = match runner::run(workload, seed, seconds, trace, peak_mem_mb) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(1);
        }
    };
    let mut record = out.record;
    if let serde_json::Value::Object(m) = &mut record {
        m.insert("provenance".into(), report::provenance());
    }
    let stem = format!(
        "{}-seed{seed}-trace{}-pid{}",
        workload.name(),
        u8::from(trace),
        std::process::id()
    );
    match report::write(&stem, &record, out.chrome_trace.as_deref()) {
        Ok(path) => println!("result file: {}", path.display()),
        Err(e) => eprintln!("warning: result file not written: {e}"),
    }
    for note in &out.notes {
        println!("{note}");
    }
    for (name, value, unit) in &out.metrics {
        println!("{name:<28} {value:>16.6} {unit}");
    }
    let metrics: serde_json::Map = out
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            (name.to_string(), serde_json::json!({ "value": value, "unit": unit }))
        })
        .collect();
    println!(
        "{}",
        serde_json::to_string(&serde_json::json!({
            "correct": out.correct,
            "attempted": out.attempted,
            "failed": out.failed,
            "metrics": metrics,
        }))
        .expect("result line serializes")
    );
    if out.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
