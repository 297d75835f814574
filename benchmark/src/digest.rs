//! Per-window output digests and the check that compares them.
//!
//! A digest is a 64-bit FNV-1a hash over a canonical rendering of what a
//! window produced, so two runs agree exactly when their outputs do. The
//! rendering never includes wall-clock fields (`EngineStats::elapsed_secs`,
//! stage timings), only results.

use commgraph::graph::{CommGraph, EdgeStats, NodeId};

/// FNV-1a, 64-bit: deterministic across runs and platforms.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Absorb raw bytes.
    pub fn bytes(&mut self, data: &[u8]) -> &mut Self {
        for b in data {
            self.0 ^= u64::from(*b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self
    }

    /// Absorb an integer.
    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.bytes(&v.to_le_bytes())
    }

    /// Absorb a float by its exact bit pattern.
    pub fn f64(&mut self, v: f64) -> &mut Self {
        self.u64(v.to_bits())
    }

    /// Absorb a string (length-prefixed, so concatenations cannot collide).
    pub fn str(&mut self, s: &str) -> &mut Self {
        self.u64(s.len() as u64).bytes(s.as_bytes())
    }

    /// Absorb a graph's full shape: window, nodes, and every edge with its
    /// statistics, in the graph's own deterministic order.
    pub fn graph(&mut self, g: &CommGraph) -> &mut Self {
        self.u64(g.window_start()).u64(g.window_len()).u64(g.node_count() as u64);
        for (i, n) in g.nodes().iter().enumerate() {
            self.node(n);
            for (j, st) in g.neighbors(i as u32) {
                if i as u32 <= *j {
                    self.u64(u64::from(*j)).edge(st);
                }
            }
        }
        self
    }

    fn node(&mut self, n: &NodeId) -> &mut Self {
        match n {
            NodeId::Ip(ip) => self.u64(1).u64(u64::from(u32::from(*ip))),
            NodeId::IpPort(ip, port) => {
                self.u64(2).u64(u64::from(u32::from(*ip))).u64(u64::from(*port))
            }
            NodeId::Service(id) => self.u64(3).u64(u64::from(*id)),
            NodeId::Other => self.u64(4),
        }
    }

    fn edge(&mut self, st: &EdgeStats) -> &mut Self {
        self.u64(st.bytes_fwd).u64(st.bytes_rev).u64(st.pkts_fwd).u64(st.pkts_rev).u64(st.conns)
    }

    /// The hash so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// One window's digest, keyed by a label that names the window (and the
/// tenant, where there are several).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WindowDigest {
    /// `<tenant>/<window start>` or `<window start>`.
    pub key: String,
    /// The digest of everything the window produced.
    pub digest: u64,
}

/// Render digests as the text of a reference file: one `key digest` line
/// per window, digest in hex.
pub fn render(digests: &[WindowDigest]) -> String {
    digests.iter().map(|d| format!("{} {:016x}\n", d.key, d.digest)).collect()
}

/// Parse a reference file written by [`render`]; malformed lines are
/// errors, not skipped.
pub fn parse(text: &str) -> Result<Vec<WindowDigest>, String> {
    text.lines()
        .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
        .map(|l| {
            let (key, hex) =
                l.split_once(' ').ok_or_else(|| format!("reference line without digest: {l}"))?;
            let digest = u64::from_str_radix(hex.trim(), 16)
                .map_err(|e| format!("bad digest in reference line {l:?}: {e}"))?;
            Ok(WindowDigest { key: key.to_string(), digest })
        })
        .collect()
}

/// Windows of `got` that differ from `want`: a window missing on either
/// side counts, as does one whose digest differs.
pub fn mismatches(got: &[WindowDigest], want: &[WindowDigest]) -> Vec<String> {
    let mut bad = Vec::new();
    for w in want {
        match got.iter().find(|g| g.key == w.key) {
            Some(g) if g.digest == w.digest => {}
            Some(_) => bad.push(format!("{}: digest differs", w.key)),
            None => bad.push(format!("{}: window missing", w.key)),
        }
    }
    for g in got {
        if !want.iter().any(|w| w.key == g.key) {
            bad.push(format!("{}: unexpected window", g.key));
        }
    }
    bad
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_parse_round_trip_and_mismatch_detection() {
        let a = vec![
            WindowDigest { key: "t0/60".into(), digest: 7 },
            WindowDigest { key: "t0/120".into(), digest: 9 },
        ];
        assert_eq!(parse(&render(&a)).unwrap(), a);
        assert!(mismatches(&a, &a).is_empty());
        let mut b = a.clone();
        b[1].digest ^= 1;
        assert_eq!(mismatches(&b, &a), vec!["t0/120: digest differs".to_string()]);
        assert_eq!(mismatches(&a[..1], &a).len(), 1);
        assert!(parse("t0/60 zz").is_err());
    }
}
