//! Compare two sets of result files (say, a parent commit and a change)
//! workload by workload and metric by metric.
//!
//! Runs pair up in seed order. A metric is `better` when the second set
//! wins at least nine tenths of the pairs (ties count for neither) and its
//! median differs from the first set's by more than the first set's
//! quartile spread; `worse` under the same rule the other way round;
//! `unresolved` otherwise.

use crate::median;
use crate::runner::END_TO_END;
use std::collections::BTreeMap;
use std::path::Path;

/// Quartiles by the same rule as Python's `statistics.quantiles(xs, n=4)`
/// (the "exclusive" method). Needs at least two samples.
pub fn quartiles(xs: &[f64]) -> Option<[f64; 3]> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        return None;
    }
    let m = n + 1;
    let mut out = [0.0; 3];
    for (i, q) in out.iter_mut().enumerate() {
        let i = i + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *q = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    Some(out)
}

/// Verdict on one metric of one workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The second set is better beyond noise.
    Better,
    /// The second set is worse beyond noise.
    Worse,
    /// Neither rule holds.
    Unresolved,
}

/// Apply the pair-win and quartile-spread rule. `a` and `b` are paired by
/// index; `lower_is_better` gives the metric's direction.
pub fn verdict(a: &[f64], b: &[f64], lower_is_better: bool) -> Verdict {
    let pairs = a.len().min(b.len());
    let Some([q1, _, q3]) = quartiles(a) else { return Verdict::Unresolved };
    if pairs == 0 {
        return Verdict::Unresolved;
    }
    let sign = if lower_is_better { -1.0 } else { 1.0 };
    let (mut b_wins, mut a_wins) = (0usize, 0usize);
    for (x, y) in a.iter().zip(b) {
        let d = sign * (y - x);
        if d > 0.0 {
            b_wins += 1;
        } else if d < 0.0 {
            a_wins += 1;
        }
    }
    let shift = sign * (median(b) - median(a));
    let spread = q3 - q1;
    if b_wins * 10 >= pairs * 9 && shift > spread {
        Verdict::Better
    } else if a_wins * 10 >= pairs * 9 && -shift > spread {
        Verdict::Worse
    } else {
        Verdict::Unresolved
    }
}

/// Per workload, each untraced run's seed and end-to-end metrics.
type Runs = BTreeMap<String, Vec<(u64, BTreeMap<String, f64>)>>;

/// Untraced result files of a directory, runs in seed order.
fn load(dir: &Path) -> Result<Runs, String> {
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut paths: Vec<_> = entries.filter_map(|e| e.ok().map(|e| e.path())).collect();
    paths.sort();
    let mut out = Runs::new();
    for path in paths {
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if !name.ends_with(".json") || name.ends_with(".trace.json") {
            continue;
        }
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let v: serde_json::Value =
            serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        if v.get("trace").and_then(serde_json::Value::as_bool) != Some(false) {
            continue;
        }
        let (Some(workload), Some(seed), Some(metrics)) = (
            v.get("workload").and_then(serde_json::Value::as_str),
            v.get("seed").and_then(serde_json::Value::as_u64),
            v.get("end_to_end").and_then(serde_json::Value::as_object),
        ) else {
            return Err(format!("{}: not a result file", path.display()));
        };
        let metrics = metrics.iter().filter_map(|(k, x)| Some((k.clone(), x.as_f64()?))).collect();
        out.entry(workload.to_string()).or_default().push((seed, metrics));
    }
    for runs in out.values_mut() {
        runs.sort_by_key(|(seed, _)| *seed);
    }
    Ok(out)
}

/// The comparison table of result directories `a` (base) and `b`.
pub fn compare_dirs(a: &Path, b: &Path) -> Result<String, String> {
    let (runs_a, runs_b) = (load(a)?, load(b)?);
    let mut text = format!(
        "{:<14} {:<24} {:>5} {:>14} {:>14} {:>14} {:>14} {:>14} {:>14}  verdict\n",
        "workload", "metric", "pairs", "A q1", "A median", "A q3", "B q1", "B median", "B q3"
    );
    for (workload, ra) in &runs_a {
        let Some(rb) = runs_b.get(workload) else { continue };
        for (metric, _, lower) in END_TO_END {
            let pick = |runs: &[(u64, BTreeMap<String, f64>)]| -> Vec<f64> {
                runs.iter().filter_map(|(_, m)| m.get(metric).copied()).collect()
            };
            let (xa, xb) = (pick(ra), pick(rb));
            let (Some(qa), Some(qb)) = (quartiles(&xa), quartiles(&xb)) else { continue };
            text.push_str(&format!(
                "{workload:<14} {metric:<24} {:>5} {:>14.6} {:>14.6} {:>14.6} {:>14.6} {:>14.6} {:>14.6}  {:?}\n",
                xa.len().min(xb.len()),
                qa[0],
                median(&xa),
                qa[2],
                qb[0],
                median(&xb),
                qb[2],
                verdict(&xa, &xb, lower)
            ));
        }
    }
    Ok(text)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some([0.75, 1.5, 2.25]));
    }

    #[test]
    fn verdict_needs_pair_wins_and_a_shift_beyond_the_spread() {
        let a: Vec<f64> = (0..10).map(|i| 100.0 + f64::from(i)).collect();
        let faster: Vec<f64> = a.iter().map(|x| x - 20.0).collect();
        assert_eq!(verdict(&a, &faster, true), Verdict::Better);
        assert_eq!(verdict(&a, &faster, false), Verdict::Worse);
        let close: Vec<f64> = a.iter().map(|x| x - 1.0).collect();
        assert_eq!(verdict(&a, &close, true), Verdict::Unresolved);
    }
}
