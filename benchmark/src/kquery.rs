//! `kquery_graphs`: the paper's busiest cluster (KQuery, an all-to-all
//! shuffle clique) through one `StreamEngine` with one worker, 1-minute
//! windows and vantage dedup, then `finish()` and `collapse_default` on
//! every window. The load is ingest, aggregation and materialization only;
//! no roles, segments, PCA or telemetry run.
//!
//! Window latency: from the start of the ingest call that delivers the
//! window's first later record until `collapse_default` of that window
//! returns. The engine emits windows only at `finish()`, so early windows
//! wait for the whole stream.

use crate::digest::{Digest, WindowDigest};
use crate::gen::{self, Batch};
use crate::timed::Timed;
use crate::trace::Tracer;
use crate::Pass;
use commgraph::analytics::{EngineConfig, StreamEngine};
use commgraph::cloudsim::{ClusterPreset, Simulator};
use commgraph::graph::collapse::collapse_default;
use commgraph::graph::{CommGraph, Facet, GraphBuilder};
use std::collections::{BTreeMap, HashSet};
use std::net::Ipv4Addr;
use std::time::Instant;

/// Window length: one minute, the engine's finest cadence.
pub const WINDOW_LEN: u64 = 60;
/// Engine constructions per pass (each one is a `setup_s` sample).
const SETUP_REPS: usize = 31;

/// Size of the generated stream.
#[derive(Debug, Clone, Copy)]
pub struct Size {
    /// Topology scale of the KQuery preset.
    pub scale: f64,
    /// Simulated minutes (= windows).
    pub minutes: u64,
}

/// The size runs use.
pub const SIZE: Size = Size { scale: 0.2, minutes: 40 };

/// Generated input of one run.
#[derive(Debug)]
pub struct Input {
    /// Stream size.
    pub size: Size,
    /// One batch per simulated minute.
    pub batches: Vec<Batch>,
    /// The cluster's inventory (vantage dedup).
    pub monitored: HashSet<Ipv4Addr>,
    /// Window start → index of the batch that closes it.
    pub closing: BTreeMap<u64, Option<usize>>,
}

/// Generate the stream for `seed`.
pub fn generate(seed: u64, size: Size) -> Result<Input, String> {
    let preset = ClusterPreset::KQuery;
    let mut cfg = preset.default_sim_config();
    cfg.seed = gen::mix(seed, 0x4b51);
    let mut sim =
        Simulator::new(preset.topology_scaled(size.scale), cfg).map_err(|e| e.to_string())?;
    let monitored = gen::monitored_of(&sim);
    let batches = gen::minutes(&mut sim, size.minutes);
    let closing = gen::closing_steps(&batches, WINDOW_LEN);
    Ok(Input { size, batches, monitored, closing })
}

/// Workload parameters for the result file.
pub fn params(input: &Input) -> serde_json::Value {
    serde_json::json!({
        "preset": "KQuery",
        "scale": input.size.scale,
        "minutes": input.size.minutes,
        "window_len_s": WINDOW_LEN,
        "engine_workers": 1,
        "vantage_dedup": true,
        "records": input.batches.iter().map(Vec::len).sum::<usize>(),
    })
}

fn engine_config(input: &Input) -> EngineConfig {
    EngineConfig {
        workers: 1,
        facet: Facet::Ip,
        window_len: WINDOW_LEN,
        monitored: Some(input.monitored.clone()),
        ..EngineConfig::default()
    }
}

/// Digest of one window: the raw graph's size and the collapsed graph.
fn window_digest(raw: &CommGraph, collapsed: &CommGraph) -> WindowDigest {
    let d = *Digest::default()
        .u64(raw.node_count() as u64)
        .u64(raw.edge_count() as u64)
        .graph(collapsed);
    WindowDigest { key: raw.window_start().to_string(), digest: d.finish() }
}

fn stats_digest(records_in: u64, records_kept: u64, edge_entries: usize) -> WindowDigest {
    let d = *Digest::default().u64(records_in).u64(records_kept).u64(edge_entries as u64);
    WindowDigest { key: "engine-stats".into(), digest: d.finish() }
}

/// The reference from the oracle: one single-threaded `GraphBuilder` per
/// window over the same records, with the same dedup.
pub fn reference(input: &Input) -> Result<Vec<WindowDigest>, String> {
    let mut out = Vec::new();
    let (mut records_in, mut kept, mut edges) = (0u64, 0u64, 0usize);
    for (w, records) in gen::by_window(&input.batches, WINDOW_LEN) {
        let mut b =
            GraphBuilder::new(Facet::Ip, w, WINDOW_LEN).with_monitored(input.monitored.clone());
        b.add_all(&records);
        let (seen, k) = b.record_counts();
        records_in += seen;
        kept += k;
        let raw = b.finish();
        edges += raw.edge_count();
        out.push(window_digest(&raw, &collapse_default(&raw)));
    }
    out.push(stats_digest(records_in, kept, edges));
    Ok(out)
}

/// One pass: construct, ingest every minute, finish, collapse every window.
pub fn pass(input: &Input, tr: &mut Tracer) -> Pass {
    let mut p = Pass::default();
    // Set-up: construct the engine several times, keep the last one.
    let mut engine = None;
    for _ in 0..SETUP_REPS {
        let t0 = Instant::now();
        let e = StreamEngine::new(engine_config(input));
        p.setup_s.push(t0.elapsed().as_secs_f64());
        if let Some(Ok(old)) = engine.replace(e) {
            old.finish().ok();
        }
    }
    let Some(Ok(mut engine)) = engine else {
        p.attempted = 1;
        p.failed = 1;
        return p;
    };

    let mut timed = Timed::start();
    let phase = tr.begin("bench.timed", "");
    let mut step_start = Vec::with_capacity(input.batches.len());
    for (i, batch) in input.batches.iter().enumerate() {
        let id = i.to_string();
        let (res, start, _) = timed.step(|| tr.span("engine.ingest", &id, || engine.ingest(batch)));
        step_start.push(start);
        p.records += batch.len() as u64;
        p.attempted += 1;
        p.failed += u64::from(res.is_err());
    }
    let (res, finish_start, _) =
        timed.step_watched(|| tr.span("engine.finish", "", || engine.finish()));
    p.attempted += 1;
    let mut windows = Vec::new();
    let mut done = Vec::new();
    let stats = match res {
        Ok((graphs, stats)) => {
            for g in graphs {
                let id = g.window_start().to_string();
                let (c, _, end) =
                    timed.step(|| tr.span("graph.collapse", &id, || collapse_default(&g)));
                done.push((g.window_start(), end));
                windows.push((g, c));
            }
            Some(stats)
        }
        Err(_) => {
            p.failed += 1;
            None
        }
    };
    tr.end(phase);
    p.timed = timed.finish();

    for (w, end) in done {
        let start = match input.closing.get(&w).copied().flatten() {
            Some(step) => step_start[step],
            None => finish_start,
        };
        p.latencies_ms.push((end - start).as_secs_f64() * 1e3);
    }
    let mut edges = 0usize;
    for (raw, collapsed) in &windows {
        edges += raw.edge_count();
        p.attempted += 1;
        p.digests.push(window_digest(raw, collapsed));
    }
    if let Some(s) = stats {
        p.digests.push(stats_digest(s.records_in, s.records_kept, s.edge_entries));
        p.counters.insert("engine.edge_entries", s.edge_entries as f64);
        p.counters.insert("engine.kept_share", s.records_kept as f64 / s.records_in.max(1) as f64);
    }
    p.counters.insert("graph.edges_per_window", edges as f64 / windows.len().max(1) as f64);
    p.counters.insert("proc.threads_peak", p.timed.threads_peak as f64);
    p
}
