//! The timed phase of one pass: closed-loop steps of program calls, with
//! wall time, CPU time, records offered and resident-memory growth measured
//! over the calls only.
//!
//! Wall time is the sum of step durations; the benchmark's own bookkeeping
//! between steps is excluded. CPU time is every thread's time over the
//! phase minus what the benchmark's thread spent between steps (the program
//! only runs on other threads between steps when they drain queued work,
//! and that work belongs to the calls).

use crate::measure::{own_cpu_s, reset_peak_rss, rss_mb, thread_count, CpuMeter};
use std::time::Instant;

/// Bookkeeping of one timed phase.
#[derive(Debug)]
pub struct Timed {
    meter: CpuMeter,
    wall_s: f64,
    gap_cpu_s: f64,
    last_end_cpu_s: f64,
    rss_before_mb: f64,
    mem_ok: bool,
    threads_peak: usize,
}

/// What one timed phase measured.
#[derive(Debug, Clone, Default)]
pub struct TimedOut {
    /// Summed wall seconds of the phase's steps.
    pub wall_s: f64,
    /// CPU seconds of every thread inside the steps.
    pub cpu_s: f64,
    /// Resident high-water mark above the RSS just before the phase, MiB.
    pub peak_mem_mb: f64,
    /// Most threads seen at a step boundary.
    pub threads_peak: usize,
}

impl Timed {
    /// Start the phase: reset the RSS high-water mark and the CPU meter.
    pub fn start() -> Timed {
        let mem_ok = reset_peak_rss();
        let (rss_before_mb, _) = rss_mb();
        Timed {
            meter: CpuMeter::start(),
            wall_s: 0.0,
            gap_cpu_s: 0.0,
            last_end_cpu_s: own_cpu_s(),
            rss_before_mb,
            mem_ok,
            threads_peak: thread_count(),
        }
    }

    /// Start a step whose calls the caller makes itself; pair with
    /// [`Timed::end`].
    pub fn begin(&mut self) -> Instant {
        self.gap_cpu_s += own_cpu_s() - self.last_end_cpu_s;
        Instant::now()
    }

    /// End the step that [`Timed::begin`] started at `start`.
    pub fn end(&mut self, start: Instant) -> Instant {
        let end = Instant::now();
        self.wall_s += (end - start).as_secs_f64();
        self.last_end_cpu_s = own_cpu_s();
        self.threads_peak = self.threads_peak.max(thread_count());
        end
    }

    /// One closed-loop step: run `f` and return its result with the step's
    /// start and end instants.
    pub fn step<T>(&mut self, f: impl FnOnce() -> T) -> (T, Instant, Instant) {
        let start = self.begin();
        let out = f();
        let end = self.end(start);
        (out, start, end)
    }

    /// A step whose calls end threads (an engine's `finish`): every thread
    /// is sampled while it runs so the exiting threads' CPU is kept.
    pub fn step_watched<T>(&mut self, f: impl FnOnce() -> T) -> (T, Instant, Instant) {
        let start = self.begin();
        let out = self.meter.watch(f);
        let end = self.end(start);
        (out, start, end)
    }

    /// End the phase.
    pub fn finish(mut self) -> TimedOut {
        self.gap_cpu_s += own_cpu_s() - self.last_end_cpu_s;
        let cpu_s = (self.meter.sample() - self.gap_cpu_s).max(0.0);
        let (_, hwm) = rss_mb();
        TimedOut {
            wall_s: self.wall_s,
            cpu_s,
            peak_mem_mb: if self.mem_ok { (hwm - self.rss_before_mb).max(0.0) } else { 0.0 },
            threads_peak: self.threads_peak,
        }
    }
}
