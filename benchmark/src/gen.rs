//! Input generation. Everything here runs before the timed phase, on the
//! benchmark's thread, and produces plain record batches; the program under
//! test only ever sees those batches.

use commgraph::cloudsim::Simulator;
use commgraph::flowlog::record::ConnSummary;
use std::collections::{BTreeMap, HashSet};
use std::net::Ipv4Addr;

/// One closed-loop step's input: the records one producer hands over in one
/// call.
pub type Batch = Vec<ConnSummary>;

/// Derive a component seed from the run seed: splitmix64 over the seed and
/// a per-component salt, so components never share a random stream.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The simulated cluster's own inventory: every internal (10/8) address.
pub fn monitored_of(sim: &Simulator) -> HashSet<Ipv4Addr> {
    sim.ground_truth().ip_roles.keys().copied().filter(|ip| ip.octets()[0] == 10).collect()
}

/// `n` consecutive simulated minutes, one batch each.
pub fn minutes(sim: &mut Simulator, n: u64) -> Vec<Batch> {
    (0..n).map(|_| sim.step()).collect()
}

/// Start of the window holding `ts`.
pub fn window_of(ts: u64, window_len: u64) -> u64 {
    ts - ts % window_len
}

/// For every window that holds a record, the index of the step whose batch
/// first carries a record at or past the window's end: the step that lets
/// a streaming consumer close the window. `None` for windows only the final
/// flush closes.
pub fn closing_steps(batches: &[Batch], window_len: u64) -> BTreeMap<u64, Option<usize>> {
    let mut windows: BTreeMap<u64, Option<usize>> = BTreeMap::new();
    let mut max_ts: Option<u64> = None;
    for (step, batch) in batches.iter().enumerate() {
        for r in batch {
            windows.entry(window_of(r.ts, window_len)).or_insert(None);
            max_ts = Some(max_ts.map_or(r.ts, |m| m.max(r.ts)));
        }
        if let Some(m) = max_ts {
            for (w, closing) in windows.iter_mut() {
                if closing.is_none() && w + window_len <= m {
                    *closing = Some(step);
                }
            }
        }
    }
    windows
}

/// Records grouped by window start.
pub fn by_window(batches: &[Batch], window_len: u64) -> BTreeMap<u64, Vec<ConnSummary>> {
    let mut out: BTreeMap<u64, Vec<ConnSummary>> = BTreeMap::new();
    for r in batches.iter().flatten() {
        out.entry(window_of(r.ts, window_len)).or_default().push(*r);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use commgraph::flowlog::record::FlowKey;

    fn rec(ts: u64) -> ConnSummary {
        ConnSummary {
            ts,
            key: FlowKey::tcp(Ipv4Addr::new(10, 0, 0, 1), 40_000, Ipv4Addr::new(10, 0, 0, 2), 443),
            pkts_sent: 1,
            pkts_rcvd: 1,
            bytes_sent: 10,
            bytes_rcvd: 10,
        }
    }

    #[test]
    fn closing_step_is_the_first_batch_past_the_window() {
        let batches = [vec![rec(0)], vec![rec(60)], vec![rec(120), rec(30)], vec![rec(130)]];
        let c = closing_steps(&batches, 120);
        assert_eq!(c.get(&0), Some(&Some(2)));
        assert_eq!(c.get(&120), Some(&None));
        assert_ne!(mix(1, 2), mix(2, 1));
    }
}
