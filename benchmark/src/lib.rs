//! Workload benchmark for commgraph: named workloads driven through the
//! system's public functions, end-to-end metrics from untraced passes, and
//! a per-layer breakdown from traced passes. See `README.md` in this
//! directory for the workloads, the metric definitions and how to run one.

#![forbid(unsafe_code)]

pub mod compare;
pub mod digest;
pub mod gen;
pub mod kquery;
pub mod measure;
pub mod paas;
pub mod report;
pub mod runner;
pub mod tenants;
pub mod timed;
pub mod trace;

use digest::WindowDigest;
use std::collections::BTreeMap;

/// The seed the pinned reference digests were taken at.
pub const DEFAULT_SEED: u64 = 1;

/// Everything one pass over a workload produced and measured.
#[derive(Debug, Clone, Default)]
pub struct Pass {
    /// Seconds from construction until the system was ready for the timed
    /// phase, one sample per set-up repetition.
    pub setup_s: Vec<f64>,
    /// Records offered during the timed phase.
    pub records: u64,
    /// What the timed phase measured.
    pub timed: timed::TimedOut,
    /// Per-window latency in milliseconds, one sample per window.
    pub latencies_ms: Vec<f64>,
    /// Per-window output digests.
    pub digests: Vec<WindowDigest>,
    /// Operations attempted: ingest calls, window closes, finishes.
    pub attempted: u64,
    /// Operations that returned `Err`.
    pub failed: u64,
    /// Workload counters for the per-layer table (counts and ratios; the
    /// traced run adds the span times).
    pub counters: BTreeMap<&'static str, f64>,
}

/// Median of a sample (mean of the middle two for even sizes); 0 when empty.
pub fn median(xs: &[f64]) -> f64 {
    let mut v: Vec<f64> = xs.iter().copied().filter(|x| x.is_finite()).collect();
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The latency tail: the highest percentile (in whole percent) that leaves
/// at least ten samples above it, with its value by the nearest-rank rule.
/// Returns `(percentile, value)`; `None` with fewer than 11 samples.
pub fn tail(xs: &[f64]) -> Option<(u32, f64)> {
    let mut v: Vec<f64> = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 11 {
        return None;
    }
    // Nearest rank: the p-th percentile is v[ceil(p/100 · n) − 1]; it
    // leaves n − ceil(p/100 · n) samples above it.
    let p = (1..100u32).rev().find(|p| n - (*p as usize * n).div_ceil(100) >= 10)?;
    Some((p, v[(p as usize * n).div_ceil(100) - 1]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_leaves_ten_samples_above() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&xs), Some((90, 90.0)));
        let xs: Vec<f64> = (1..=40).map(f64::from).collect();
        assert_eq!(tail(&xs), Some((75, 30.0)));
        assert_eq!(tail(&xs[..10]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
