//! Process-level meters read from `/proc`: per-thread CPU time in
//! nanoseconds (`/proc/self/task/*/schedstat`), resident-set high-water
//! mark (`VmHWM`, reset through `/proc/self/clear_refs`), and thread count.
//!
//! CPU accounting has to survive threads that exit: an engine's workers
//! end inside `finish()`, and a thread's counters vanish with it. The
//! [`CpuMeter`] therefore remembers the last value it saw for every thread
//! id, and [`CpuMeter::watch`] samples every thread once a millisecond from
//! a helper thread while a call that ends threads runs. Whatever a thread
//! burns between its last sample and its exit (at most about a
//! millisecond) is not counted.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

/// Cumulative on-CPU nanoseconds of one thread, or `None` once it is gone.
fn thread_cpu_ns(tid: &str) -> Option<u64> {
    let text = std::fs::read_to_string(format!("/proc/self/task/{tid}/schedstat")).ok()?;
    text.split_whitespace().next()?.parse().ok()
}

/// Thread ids of this process.
fn thread_ids() -> Vec<String> {
    match std::fs::read_dir("/proc/self/task") {
        Ok(dir) => dir.filter_map(|e| e.ok()?.file_name().into_string().ok()).collect(),
        Err(_) => Vec::new(),
    }
}

/// Number of threads of this process right now.
pub fn thread_count() -> usize {
    thread_ids().len()
}

/// Id of the calling thread.
fn own_tid() -> Option<String> {
    let link = std::fs::read_link("/proc/thread-self").ok()?;
    link.file_name()?.to_str().map(str::to_string)
}

/// CPU time of the calling thread, in seconds.
pub fn own_cpu_s() -> f64 {
    std::fs::read_to_string("/proc/thread-self/schedstat")
        .ok()
        .and_then(|t| t.split_whitespace().next()?.parse::<u64>().ok())
        .map_or(0.0, |ns| ns as f64 * 1e-9)
}

/// Current CPU nanoseconds of every live thread except `skip`.
fn all_threads(skip: Option<&str>) -> Vec<(String, u64)> {
    thread_ids()
        .into_iter()
        .filter(|tid| Some(tid.as_str()) != skip)
        .filter_map(|tid| thread_cpu_ns(&tid).map(|ns| (tid, ns)))
        .collect()
}

/// Summed CPU time of every thread of the process, including threads that
/// have exited since the meter started (up to their last sample).
#[derive(Debug, Default)]
pub struct CpuMeter {
    /// Thread id → (value when first seen, last value seen).
    seen: BTreeMap<String, (u64, u64)>,
}

impl CpuMeter {
    /// A meter that counts from now: threads alive now start at their
    /// current value, threads born later at zero.
    pub fn start() -> CpuMeter {
        let seen = all_threads(None).into_iter().map(|(tid, ns)| (tid, (ns, ns))).collect();
        CpuMeter { seen }
    }

    fn absorb(&mut self, samples: impl IntoIterator<Item = (String, u64)>) {
        for (tid, ns) in samples {
            self.seen.entry(tid).and_modify(|e| e.1 = e.1.max(ns)).or_insert((0, ns));
        }
    }

    /// Read every live thread once and return the process total in seconds.
    pub fn sample(&mut self) -> f64 {
        self.absorb(all_threads(None));
        self.seen.values().map(|(first, last)| last - first).sum::<u64>() as f64 * 1e-9
    }

    /// Run `f` while a helper thread samples every thread each millisecond,
    /// so threads that `f` ends are counted up to their exit. The helper
    /// leaves itself out.
    pub fn watch<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let stop = AtomicBool::new(false);
        let (out, sampled) = std::thread::scope(|s| {
            let sampler = s.spawn(|| {
                let me = own_tid();
                let mut latest: BTreeMap<String, u64> = BTreeMap::new();
                while !stop.load(Ordering::Relaxed) {
                    for (tid, ns) in all_threads(me.as_deref()) {
                        let e = latest.entry(tid).or_insert(ns);
                        *e = (*e).max(ns);
                    }
                    std::thread::sleep(Duration::from_millis(1));
                }
                latest
            });
            let out = f();
            stop.store(true, Ordering::Relaxed);
            (out, sampler.join())
        });
        // A sampler that panicked only loses its samples: the exiting
        // threads' last millisecond-granular readings.
        if let Ok(latest) = sampled {
            self.absorb(latest);
        }
        out
    }
}

/// Resident set size and its high-water mark, in MiB.
pub fn rss_mb() -> (f64, f64) {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let field = |name: &str| {
        status
            .lines()
            .find(|l| l.starts_with(name))
            .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
            .map_or(0.0, |kb| kb / 1024.0)
    };
    (field("VmRSS:"), field("VmHWM:"))
}

/// Reset the resident high-water mark to the current RSS. Returns false
/// when the kernel refuses, in which case peak memory cannot be measured.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}
