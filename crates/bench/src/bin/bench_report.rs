//! Performance + observability report for the workspace: kernel speedups,
//! a fully instrumented + traced pipeline run, a continuous-monitor run, a
//! timed static-analysis sweep, metrics-history + alerting and query-engine
//! overhead measurements, and a live self-scrape of the introspection server —
//! written to `BENCH_PR10.json`, with the run's span timeline exported to
//! `TRACE_PR10.json` (Chrome trace-event format; open it in Perfetto or
//! `about:tracing`).
//!
//! Sections:
//!
//! 1. **Kernels** — each analysis kernel timed on fixed-seed inputs. The
//!    two tile-parallel kernels (exact Jaccard, MinHash) run once under
//!    `Parallelism::serial()` and once under a multi-worker knob:
//!    `{n, serial_ms, parallel_ms, speedup}`. The single-threaded rest
//!    (SimRank, flat and hierarchical Louvain, the Jacobi eigensolver,
//!    the PCA sweep) report `{n, serial_ms}`.
//! 2. **Stages** — a simulated cluster is pushed through the instrumented
//!    pipeline (`StreamEngine` → `Pipeline` → `Workbench`) with a live
//!    `obs::Registry` and `obs::Tracer` (every stage nests under a
//!    `pipeline_run` root span), and the per-stage wall-time breakdown
//!    (ingest/build/similarity/cluster/policy/pca) is read back from the
//!    registry's `commgraph_stage_seconds` histograms, alongside the
//!    serialized `EngineStats`, the pipeline summary, and the full metrics
//!    snapshot.
//! 3. **Monitor** — a `SecurityMonitor` learns a baseline and enforces
//!    against a lateral-movement attack under a `monitor_run` root span,
//!    so the `commgraph_monitor_*` families carry real values.
//! 4. **Lintcheck** — one full workspace sweep of the static-analysis
//!    pass (see `crates/lintcheck`), timed and counted into the same
//!    registry via `commgraph_lint_sweep_seconds` and
//!    `commgraph_lint_findings_total{lint}`.
//! 5. **Tsdb/alert** — the run's registry is scraped into the in-memory
//!    TSDB and the default alert pack evaluated for a few hundred logical
//!    ticks, timing the per-tick scrape + evaluate overhead against its
//!    1 ms budget and reporting the store's memory footprint.
//! 6. **Query** — the expression engine is timed against the fully
//!    populated store: a dashboard pack of expressions parsed once and
//!    evaluated at a few hundred distinct ticks against a 1 ms/tick
//!    budget, with the scraper's recording rules and their synthetic
//!    series counted.
//! 7. **Serve** — an `obs::IntrospectionServer` boots on port 0 and the
//!    report scrapes its own `/metrics`, `/healthz`, `/query`,
//!    `/query_range`, `/alerts`, and `/slo` over real HTTP, verifying
//!    every canonical `obs::names` family appears in one scrape.
//! 8. **Faultsim** — the `cloudsim::net` delivery fabric: a clean-network
//!    run checked bit-identical to direct in-process ingest, each shipped
//!    fault script (crash/replay, delayed flush, duplicates, clock skew,
//!    partition, lossy jitter) run twice for a determinism verdict with
//!    its delivery/loss/dedup/lateness counters tabulated, and the raw
//!    tick throughput of the fabric.
//!
//! Usage: `cargo run --release -p commgraph-bench --bin bench_report`
//! Flags: `--n 500` (similarity/eigen dimension), `--workers 4`,
//! `--reps 3` (best-of-N timing), `--scale 0.3` (topology scale for the
//! stage run), `--minutes 30` (simulated span for the stage run).

use algos::jaccard::{jaccard_matrix_of_sets_with, MinHasher};
use algos::louvain::{hierarchical_louvain, louvain, HierarchicalConfig};
use algos::simrank::{simrank, SimRankConfig};
use algos::wgraph::WeightedGraph;
use algos::Parallelism;
use analytics::engine::{EngineConfig, StreamEngine};
use analytics::sharded::{ShardedConfig, ShardedEngine};
use benchkit::{arg_f64, arg_parsed, arg_u64, simulate};
use cloudsim::attack::{AttackKind, AttackScenario};
use cloudsim::{ClusterPreset, SimConfig, Simulator};
use commgraph::monitor::{MonitorConfig, MonitorEvent, SecurityMonitor};
use commgraph::pipeline::{Pipeline, PipelineConfig, WindowAnalyzer};
use commgraph::Workbench;
use commgraph_graph::builder::WindowedBuilder;
use commgraph_graph::{Facet, GraphBuilder};
use flowlog::record::{ConnSummary, FlowKey};
use linalg::eigen::eigen_symmetric;
use linalg::pca::pca_sweep;
use linalg::Matrix;
use serde_json::json;
use std::hint::black_box;
use std::io::{Read as _, Write as _};
use std::net::Ipv4Addr;
use std::sync::Arc;
use std::time::Instant;

/// Best-of-`reps` wall-clock milliseconds for `f`.
fn time_ms<T>(reps: u64, mut f: impl FnMut() -> T) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps.max(1) {
        let t0 = Instant::now();
        black_box(f());
        best = best.min(t0.elapsed().as_secs_f64() * 1e3);
    }
    best
}

/// Deterministic neighbor-set fixture: n sets of ~32 ids drawn from a
/// universe sized so replicas overlap heavily.
fn fixture_sets(n: usize) -> Vec<Vec<u32>> {
    let mut state = 0xC0FFEEu64;
    let mut next = || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        (state >> 33) as u32
    };
    (0..n)
        .map(|i| {
            let mut s: Vec<u32> = (0..32).map(|_| next() % (n as u32 * 4)).collect();
            // Every 4th set shares a common core, like same-role replicas.
            if i % 4 == 0 {
                s.extend(0..16u32);
            }
            s.sort_unstable();
            s.dedup();
            s
        })
        .collect()
}

/// Deterministic community-structured graph: a ring of 16-node cliques
/// joined by weak bridges, plus sparse pseudo-random long-range edges —
/// enough inter-community noise to keep Louvain sweeping for a few rounds.
fn fixture_community_graph(n: usize) -> WeightedGraph {
    const CLIQUE: usize = 16;
    let n = n.max(2 * CLIQUE) / CLIQUE * CLIQUE;
    let n_cliques = n / CLIQUE;
    let mut state = 0xD1CEu64;
    let mut next = || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        (state >> 33) as usize
    };
    let mut edges: Vec<(u32, u32, f64)> = Vec::new();
    for c in 0..n_cliques {
        let base = c * CLIQUE;
        for i in 0..CLIQUE {
            for j in (i + 1)..CLIQUE {
                edges.push(((base + i) as u32, (base + j) as u32, 1.0));
            }
        }
        let next_base = ((c + 1) % n_cliques) * CLIQUE;
        edges.push((base as u32, next_base as u32, 0.25));
    }
    for _ in 0..n {
        let (u, v) = (next() % n, next() % n);
        if u != v {
            edges.push((u as u32, v as u32, 0.05));
        }
    }
    WeightedGraph::from_edges(n, &edges)
}

/// Deterministic dense symmetric matrix with a generic spectrum.
fn fixture_symmetric(n: usize) -> Matrix {
    let mut state = 0x5EEDu64;
    let mut next = || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        (state >> 40) as f64 / 16_777_216.0
    };
    let mut m = Matrix::zeros(n, n);
    for i in 0..n {
        for j in i..n {
            let v = next();
            m[(i, j)] = v;
            m[(j, i)] = v;
        }
    }
    m
}

/// Time a full `lintcheck` sweep of the workspace — the static-analysis
/// pass is part of every CI run, so its runtime is a first-class budget
/// line next to the kernels. The per-lint finding counts and sweep wall
/// time land in `registry` under the canonical `commgraph_lint_*` names.
fn lintcheck_report(registry: &obs::Registry) -> serde_json::Value {
    let cwd = std::env::current_dir().expect("cwd readable");
    let Some(root) = lintcheck::walk::find_root_above(&cwd) else {
        return json!({"skipped": "no workspace root above the current directory"});
    };
    let cfg = lintcheck::Config::for_workspace(root.clone());
    let baseline = match std::fs::read_to_string(root.join("lintcheck.baseline")) {
        Ok(text) => lintcheck::baseline::Baseline::parse(&text),
        Err(_) => lintcheck::baseline::Baseline::default(),
    };
    let t0 = Instant::now();
    let report = lintcheck::run(&cfg, &baseline).expect("workspace tree is readable");
    let secs = t0.elapsed().as_secs_f64();

    registry
        .histogram(
            "commgraph_lint_sweep_seconds",
            "Wall-clock seconds for one full lintcheck workspace sweep.",
            &[],
        )
        .record(secs);
    registry
        .gauge(
            "commgraph_lint_callgraph_nodes",
            "Functions indexed by the latest lintcheck interprocedural sweep.",
            &[],
        )
        .set(report.callgraph_nodes as f64);
    registry
        .gauge(
            "commgraph_lint_callgraph_edges",
            "Call edges resolved by the latest lintcheck interprocedural sweep.",
            &[],
        )
        .set(report.callgraph_edges as f64);
    for lint in lintcheck::LintId::all() {
        let count =
            report.fresh.iter().chain(report.baselined.iter()).filter(|f| f.lint == lint).count();
        registry
            .counter(
                "commgraph_lint_findings_total",
                "Lint findings per lint id from the latest sweep (baselined + fresh).",
                &[("lint", lint.name())],
            )
            .add(count as u64);
    }

    println!(
        "lintcheck sweep               files {:<4} graph {}/{} findings {:<3} ({} baselined, {} fresh) in {:7.2} ms",
        report.files_scanned,
        report.callgraph_nodes,
        report.callgraph_edges,
        report.fresh.len() + report.baselined.len(),
        report.baselined.len(),
        report.fresh.len(),
        secs * 1e3
    );
    json!({
        "files_scanned": report.files_scanned,
        "callgraph_nodes": report.callgraph_nodes,
        "callgraph_edges": report.callgraph_edges,
        "findings_total": report.fresh.len() + report.baselined.len(),
        "baselined": report.baselined.len(),
        "fresh": report.fresh.len(),
        "sweep_ms": secs * 1e3,
    })
}

/// Feed a simulated lateral-movement attack through the continuous monitor
/// under a `monitor_run` root span, so every `commgraph_monitor_*` family
/// carries real values in the snapshot below.
fn monitor_report(o: &obs::Obs) -> serde_json::Value {
    let preset = ClusterPreset::MicroserviceBench;
    let topo = preset.topology_scaled(0.3);
    let breached = topo
        .ip_of(topo.role_named("frontend").expect("preset has a frontend").id, 0)
        .expect("slot 0 exists");
    let sim_cfg = SimConfig {
        attacks: vec![AttackScenario {
            kind: AttackKind::LateralMovement,
            // Starts after two 10-minute learning windows.
            start_min: 25,
            duration_min: 15,
            breached,
            intensity: 6,
        }],
        ..preset.default_sim_config()
    };
    let mut sim = Simulator::new(topo, sim_cfg).expect("sim config is valid");
    let monitored =
        sim.ground_truth().ip_roles.keys().copied().filter(|ip| ip.octets()[0] == 10).collect();
    let cfg = MonitorConfig {
        window_len: 600,
        learn_windows: 2,
        anomaly_k: 10,
        ..MonitorConfig::default()
    };
    let mut span = o.trace_root("monitor_run");
    let mut monitor = SecurityMonitor::with_obs(cfg, monitored, o.clone());
    let mut events = Vec::new();
    sim.run(45, |_, batch| events.extend(monitor.ingest(batch)));
    events.extend(monitor.flush());
    let windows = events.iter().filter(|e| matches!(e, MonitorEvent::WindowSummary { .. })).count();
    let violations: usize = events
        .iter()
        .filter_map(|e| match e {
            MonitorEvent::WindowSummary { violations, .. } => Some(*violations),
            _ => None,
        })
        .sum();
    if span.is_enabled() {
        span.attr("windows", &windows.to_string());
        span.attr("violations", &violations.to_string());
    }
    let secs = span.finish();
    println!(
        "monitor run                   windows {windows:<3} violations {violations:<5} in {:7.2} ms",
        secs * 1e3
    );
    json!({"enforced_windows": windows, "violations": violations, "events": events.len()})
}

/// Minimal HTTP/1.0 GET against the local introspection server; returns the
/// response body (panics on transport errors — this is a bench binary
/// scraping itself).
fn http_get(addr: std::net::SocketAddr, path: &str) -> String {
    let mut stream = std::net::TcpStream::connect(addr).expect("introspection server reachable");
    write!(stream, "GET {path} HTTP/1.0\r\nHost: localhost\r\n\r\n").expect("request written");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("response read");
    match response.split_once("\r\n\r\n") {
        Some((_, body)) => body.to_string(),
        None => String::new(),
    }
}

/// Boot the introspection server on port 0, scrape `/metrics`, `/healthz`,
/// and the metrics-history endpoints (`/query`, `/alerts`, `/slo`) over
/// real HTTP, and verify every canonical `obs::names` family appears in
/// the one scrape.
fn serve_report(
    registry: &Arc<obs::Registry>,
    tracer: &Arc<obs::Tracer>,
    store: &Arc<obs::Tsdb>,
    alerts: &Arc<obs::AlertEngine>,
) -> serde_json::Value {
    let server = obs::IntrospectionServer::new(registry.clone())
        .with_tracer(tracer.clone())
        .with_tsdb(store.clone())
        .with_alerts(alerts.clone())
        .start("127.0.0.1:0")
        .expect("bind an ephemeral port");
    let addr = server.addr();
    let healthz_ok = http_get(addr, "/healthz").trim() == "ok";
    let metrics = http_get(addr, "/metrics");
    let missing: Vec<&str> = obs::names::METRICS
        .iter()
        .map(|def| def.name)
        .filter(|name| !metrics.contains(&format!("# TYPE {name} ")))
        .collect();
    let trace_body = http_get(addr, "/trace");
    let trace_ok = trace_body.starts_with("{\"displayTimeUnit\"");
    let query_body = http_get(addr, "/query?expr=commgraph_tsdb_samples_total");
    let query_ok = query_body.starts_with("{\"expr\":\"") && query_body.contains("\"points\":[[");
    let range_path = "/query_range?expr=rate(commgraph_tsdb_samples_total%5B8%5D)&step=1";
    let range_body = http_get(addr, range_path);
    let query_range_ok = range_body.starts_with("{\"expr\":\"")
        && range_body.contains("\"points\":[[")
        && http_get(addr, range_path) == range_body;
    let alerts_ok = http_get(addr, "/alerts").contains("\"alerts\":[{");
    let slo_ok = http_get(addr, "/slo").contains("\"slos\":[{");
    server.shutdown();
    println!(
        "introspection scrape          {}/{} canonical families present, healthz {}, \
         query/alerts/slo {}",
        obs::names::METRICS.len() - missing.len(),
        obs::names::METRICS.len(),
        if healthz_ok { "ok" } else { "FAILED" },
        if query_ok && query_range_ok && alerts_ok && slo_ok { "ok" } else { "FAILED" },
    );
    json!({
        "addr": addr.to_string(),
        "healthz_ok": healthz_ok,
        "trace_endpoint_ok": trace_ok,
        "query_endpoint_ok": query_ok,
        "query_range_endpoint_ok": query_range_ok,
        "alerts_endpoint_ok": alerts_ok,
        "slo_endpoint_ok": slo_ok,
        "families_total": obs::names::METRICS.len(),
        "families_present": obs::names::METRICS.len() - missing.len(),
        "missing": missing,
    })
}

/// Time the per-tick metrics-history cost against the live registry: one
/// scrape of every family into the TSDB plus one evaluation of the default
/// alert pack, repeated for a few hundred logical ticks. The budget is
/// 1 ms per tick — window rolls are the tick source in production, so this
/// overhead rides every analyzed window.
fn tsdb_alert_report(
    scraper: &obs::Scraper,
    alerts: &obs::AlertEngine,
    start_tick: u64,
) -> serde_json::Value {
    const TICKS: u64 = 200;
    let store = scraper.store();
    let (mut scrape_s, mut eval_s, mut max_tick_s) = (0.0f64, 0.0f64, 0.0f64);
    for tick in start_tick + 1..=start_tick + TICKS {
        let t0 = Instant::now();
        scraper.scrape(tick);
        let t1 = Instant::now();
        alerts.evaluate(tick, store);
        let t2 = Instant::now();
        scrape_s += (t1 - t0).as_secs_f64();
        eval_s += (t2 - t1).as_secs_f64();
        max_tick_s = max_tick_s.max((t2 - t0).as_secs_f64());
    }
    let scrape_us = scrape_s / TICKS as f64 * 1e6;
    let eval_us = eval_s / TICKS as f64 * 1e6;
    let per_tick_ms = (scrape_s + eval_s) / TICKS as f64 * 1e3;
    let within_budget = per_tick_ms < 1.0;
    println!(
        "tsdb scrape + alert eval      scrape {scrape_us:7.1} µs  evaluate {eval_us:7.1} µs  \
         per tick {per_tick_ms:6.3} ms (budget 1 ms, {})  {} series, {} KiB",
        if within_budget { "ok" } else { "OVER" },
        store.series_count(),
        store.memory_bytes() / 1024,
    );
    json!({
        "ticks": TICKS,
        "rules": alerts.rule_count(),
        "scrape_us_mean": scrape_us,
        "evaluate_us_mean": eval_us,
        "per_tick_ms_mean": per_tick_ms,
        "per_tick_ms_max": max_tick_s * 1e3,
        "per_tick_budget_ms": 1.0,
        "within_budget": within_budget,
        "series": store.series_count(),
        "samples_appended": store.appended_samples(),
        "samples_evicted": store.evicted_samples(),
        "memory_bytes": store.memory_bytes(),
    })
}

/// Time the query engine against the fully populated store: parse a
/// dashboard pack of expressions once, then evaluate the whole pack at a
/// few hundred distinct ticks. Budget: 1 ms per tick for the pack —
/// dashboards poll on window rolls, so this cost rides every tick the
/// operator is watching. Also reports the recording rules installed on the
/// scraper and the synthetic series they produced.
fn query_report(scraper: &obs::Scraper, rule_names: &[&str]) -> serde_json::Value {
    const TICKS: u64 = 200;
    let store = scraper.store();
    let exprs = [
        "rate(commgraph_engine_records_in_total[8])",
        "histogram_quantile(0.99, commgraph_window_roll_lag_seconds{source=\"pipeline\"})",
        "sum by (subscription) (rate(commgraph_subscription_records_total[8]))",
        "commgraph_engine_dropped_records_total / clamp_min(commgraph_engine_records_in_total, 1)",
        "max_over_time(commgraph_tsdb_memory_bytes[8])",
    ];
    let t0 = Instant::now();
    let parsed: Vec<obs::Expr> =
        exprs.iter().map(|src| obs::query::parse(src).expect("bench expressions parse")).collect();
    let parse_us = t0.elapsed().as_secs_f64() / exprs.len() as f64 * 1e6;

    let last = store.last_tick();
    let from = last.saturating_sub(TICKS - 1).max(1);
    let (mut eval_s, mut max_tick_s, mut points) = (0.0f64, 0.0f64, 0usize);
    for tick in from..=last {
        let t0 = Instant::now();
        for expr in &parsed {
            if let obs::Value::Vector(samples) =
                obs::query::eval(store, expr, tick).expect("bench expressions evaluate")
            {
                points += samples.len();
            }
        }
        let dt = t0.elapsed().as_secs_f64();
        eval_s += dt;
        max_tick_s = max_tick_s.max(dt);
    }
    let ticks = last - from + 1;
    let per_tick_ms = eval_s / ticks as f64 * 1e3;
    let within_budget = per_tick_ms < 1.0;
    let rule_series: usize = rule_names.iter().map(|name| store.series(name, u64::MAX).len()).sum();
    println!(
        "query engine                  {} exprs, parse {parse_us:7.1} µs/expr, per tick \
         {per_tick_ms:6.3} ms over {ticks} ticks (budget 1 ms, {}); {} rules -> {} series",
        exprs.len(),
        if within_budget { "ok" } else { "OVER" },
        scraper.recording_rule_count(),
        rule_series,
    );
    json!({
        "expressions": exprs.len(),
        "ticks": ticks,
        "parse_us_mean": parse_us,
        "per_tick_ms_mean": per_tick_ms,
        "per_tick_ms_max": max_tick_s * 1e3,
        "per_tick_budget_ms": 1.0,
        "within_budget": within_budget,
        "vector_samples": points,
        "rules": scraper.recording_rule_count(),
        "rule_series_produced": rule_series,
    })
}

/// Run the instrumented pipeline end to end and report the per-stage
/// breakdown read back from the registry. Returns the JSON section plus the
/// run's Chrome trace-event timeline.
fn stage_report(workers: usize, scale: f64, minutes: u64) -> (serde_json::Value, String) {
    let registry = Arc::new(obs::Registry::new());
    // Adopt the registry process-wide so code without an `Obs` parameter —
    // the par scheduler, Louvain's sweep/move/level counters — lands in the
    // same metrics snapshot (first install wins; this is the only one).
    obs::install_global(registry.clone());
    let tracer = Arc::new(obs::Tracer::new(4096));
    let o = obs::Obs::new(registry.clone()).with_tracer(tracer.clone());
    let run = simulate(ClusterPreset::MicroserviceBench, scale, minutes);

    // Metrics history + alerting over the same registry: the incremental
    // analyzer below drives one scrape tick + one alert evaluation per
    // analyzed window, and the tsdb_alert section then times steady-state
    // ticks against the fully populated registry.
    let store = Arc::new(obs::Tsdb::new(obs::TsdbConfig::default()));
    let scraper = Arc::new(obs::Scraper::new(registry.clone(), store.clone()));
    // Recording rules ride every scrape from here on: the analyzer's
    // window-roll ticks, the tsdb_alert timing loop, and the query section
    // below all see their synthetic series (and the query families register
    // for the serve section's all-families check).
    scraper.add_recording_rules(vec![
        obs::RecordingRule::new(
            "engine:records:rate8",
            "rate(commgraph_engine_records_in_total[8])",
        )
        .expect("rule expression parses"),
        obs::RecordingRule::new(
            "subscription:records:rate8",
            "sum by (subscription) (rate(commgraph_subscription_records_total[8]))",
        )
        .expect("rule expression parses"),
    ]);
    let alerts = Arc::new(obs::AlertEngine::new(o.clone()));
    alerts.add_rules(
        obs::alert::query_pack(run.records.len() as f64).expect("pack expressions parse"),
    );
    // The freshness-SLO burn recording rules back the serve section's `/slo`.
    scraper.add_recording_rules(
        obs::alert::slo_rules(run.records.len() as f64).expect("slo expressions parse"),
    );

    // The per-run root span: every engine/pipeline/workbench stage below
    // nests under it on the timeline.
    let mut run_span = o.trace_root("pipeline_run");
    run_span.attr("scale", &scale.to_string());
    run_span.attr("minutes", &minutes.to_string());
    run_span.attr("records", &run.records.len().to_string());

    // Streaming aggregation: wall-clock throughput + dedup accounting.
    let mut engine = StreamEngine::new(EngineConfig {
        workers,
        monitored: Some(run.monitored.clone()),
        obs: o.clone(),
        ..Default::default()
    })
    .expect("valid engine config");
    for chunk in run.records.chunks(65_536) {
        engine.ingest(chunk).expect("engine accepts batches");
    }
    let (_graphs, stats) = engine.finish().expect("engine drains");

    // The sharded front door registers the per-subscription and per-shard
    // health families (records/watermark/roll-lag/residency) plus the
    // cardinality-cap overflow counter in the same registry.
    let mut front = ShardedEngine::new(ShardedConfig {
        obs: o.clone(),
        engine: EngineConfig { workers, ..Default::default() },
        ..Default::default()
    })
    .expect("valid sharded config");
    let half = run.records.len() / 2;
    front.ingest("tenant-a", &run.records[..half]).expect("front door accepts batches");
    front.ingest("tenant-b", &run.records[half..]).expect("front door accepts batches");
    front.finish().expect("front door drains");

    // Windowed pipeline: the `ingest` stage span.
    let mut p = Pipeline::new(PipelineConfig {
        monitored: Some(run.monitored.clone()),
        parallelism: Parallelism::new(workers),
        obs: o.clone(),
        ..Default::default()
    });
    for chunk in run.records.chunks(65_536) {
        p.ingest(chunk);
    }
    let out = p.finish().expect("windows are contiguous");

    // Per-window incremental analysis over the pipeline output, so the
    // incremental-maintenance families (`commgraph_window_dirty_nodes`,
    // `commgraph_incremental_savings_seconds`) carry real registrations in
    // the scrape below.
    let mut analyzer = WindowAnalyzer::new(run.monitored.clone(), true)
        .with_parallelism(Parallelism::new(workers))
        .with_obs(o.clone())
        .with_subscription("tenant-a")
        .with_telemetry(scraper.clone(), alerts.clone());
    analyzer.analyze_output(&out, &run.records).expect("ip-facet windows analyze");

    // Workbench: build/similarity/cluster/policy/pca stage spans.
    let mut wb = Workbench::new(run.records.clone(), run.monitored.clone())
        .with_parallelism(Parallelism::new(workers))
        .with_obs(o.clone());
    wb.policy();
    wb.pca_summary(&[1, 4, 16]).expect("byte matrix is square");
    run_span.finish();

    // Continuous monitor under its own root span.
    let monitor = monitor_report(&o);

    // Static-analysis sweep, timed into the same registry so its metrics
    // ride the snapshot below.
    let lint = lintcheck_report(&registry);

    // Per-tick metrics-history overhead against the fully populated
    // registry, continuing from the analyzer's window-roll ticks.
    let tsdb_alert = tsdb_alert_report(&scraper, &alerts, analyzer.tick());

    // Query-engine overhead against the same fully populated store.
    let query = query_report(&scraper, &["engine:records:rate8", "subscription:records:rate8"]);

    // Live self-scrape over HTTP.
    let serve = serve_report(&registry, &tracer, &store, &alerts);

    let mut stages = serde_json::Map::new();
    println!();
    for stage in obs::STAGES {
        let snap = registry.histogram(obs::STAGE_SECONDS, "", &[("stage", stage)]).snapshot();
        println!(
            "stage {stage:<12} count {:<3} total {:9.2} ms  p95 {:9.2} ms",
            snap.count,
            snap.sum * 1e3,
            snap.p95 * 1e3
        );
        stages.insert(
            stage.to_string(),
            json!({
                "count": snap.count,
                "total_ms": snap.sum * 1e3,
                "p50_ms": snap.p50 * 1e3,
                "p95_ms": snap.p95 * 1e3,
                "p99_ms": snap.p99 * 1e3,
                "max_ms": snap.max * 1e3,
            }),
        );
    }

    let dump = tracer.dump();
    println!(
        "flight recorder               {} span(s) retained, {} dropped (capacity {})",
        dump.spans.len(),
        dump.dropped,
        dump.capacity
    );
    let section = json!({
        "scale": scale,
        "minutes": minutes,
        "records": run.records.len(),
        "stages": serde_json::Value::Object(stages),
        "monitor": monitor,
        "lintcheck": lint,
        "tsdb_alert": tsdb_alert,
        "query": query,
        "serve": serve,
        "trace": {
            "spans_retained": dump.spans.len(),
            "spans_dropped": dump.dropped,
            "capacity": dump.capacity,
        },
        "engine": {
            "stats": serde_json::to_value(&stats).expect("EngineStats serializes"),
            // Wall-clock machine rate (obs::rate::per_second semantics).
            "records_per_sec": stats.records_per_sec(),
        },
        // Per-occupied-minute mean (obs::rate::per_bucket semantics) —
        // intentionally a different number than records_per_sec above.
        "pipeline": serde_json::to_value(out.summary()).expect("summary serializes"),
        "metrics": serde_json::from_str::<serde_json::Value>(&obs::export::json_snapshot(
            &registry
        ))
        .expect("obs snapshot is valid JSON"),
    });
    (section, obs::trace::chrome_trace_json(&dump))
}

/// One window of the slowly-churning steady-state workload: `roles` roles ×
/// `replicas` replicas, each replica talking to every replica of the next
/// role with constant volume. Warm windows (`w > 0`) add a handful of extra
/// conversations whose volume depends on `w`, so only those endpoints dirty
/// between consecutive windows.
fn churn_window(roles: usize, replicas: usize, w: u64) -> Vec<ConnSummary> {
    let ip = |r: usize, i: usize| Ipv4Addr::new(10, (r / 200) as u8, (r % 200) as u8, i as u8 + 1);
    let base = w * 3600;
    let mut recs = Vec::new();
    for r in 0..roles {
        for i in 0..replicas {
            for j in 0..replicas {
                let bytes = 10_000 + (i * replicas + j) as u64;
                recs.push(ConnSummary {
                    ts: base + ((i * 31 + j * 7) as u64 % 3600),
                    key: FlowKey::tcp(
                        ip(r, i),
                        40_000 + j as u16,
                        ip((r + 1) % roles, j),
                        8_000 + r as u16,
                    ),
                    pkts_sent: 4,
                    pkts_rcvd: 2,
                    bytes_sent: bytes,
                    bytes_rcvd: bytes / 4,
                });
            }
        }
    }
    if w > 0 {
        // Steady churn: four conversations whose volume drifts per window.
        for k in 0..4usize {
            let r = (k * 7) % roles;
            recs.push(ConnSummary {
                ts: base + 1_800,
                key: FlowKey::tcp(
                    ip(r, 0),
                    41_000 + k as u16,
                    ip((r + 1) % roles, 1),
                    8_000 + r as u16,
                ),
                pkts_sent: 2,
                pkts_rcvd: 1,
                bytes_sent: 5_000 * w + k as u64,
                bytes_rcvd: 1_000 * w,
            });
        }
    }
    recs
}

/// Full-rebuild vs incremental per-window maintenance on the steady-state
/// churn workload, plus the sharded multi-subscription front door at 1/2/4
/// shards. The headline number is `speedup_warm`: mean warm-window
/// (build + similarity + cluster + policy) time of the full rebuild divided
/// by the incremental path's.
fn incremental_report() -> serde_json::Value {
    const ROLES: usize = 150;
    const REPLICAS: usize = 10;
    const WINDOWS: u64 = 6;
    // Both paths run under identical serial dispatch: the roll comparison
    // isolates algorithmic work (scored pairs, sweeps, policy pairs), while
    // scheduler scaling is measured by the kernels section above. Threaded
    // dispatch would charge both paths the same spawn overhead per tiny
    // refinement subgraph and drown the signal on small hosts.
    let par = Parallelism::serial();
    let windows: Vec<Vec<ConnSummary>> =
        (0..WINDOWS).map(|w| churn_window(ROLES, REPLICAS, w)).collect();
    let monitored: std::collections::HashSet<Ipv4Addr> =
        windows[0].iter().flat_map(|r| [r.key.local_ip, r.key.remote_ip]).collect();

    // Full rebuild: every window builds its graph and re-learns roles,
    // segmentation, and policy from scratch.
    let full_reg = Arc::new(obs::Registry::new());
    let mut full = WindowAnalyzer::new(monitored.clone(), false)
        .with_parallelism(par)
        .with_obs(obs::Obs::new(full_reg.clone()));
    let mut full_ms = Vec::new();
    for (w, recs) in windows.iter().enumerate() {
        let t0 = Instant::now();
        let mut b = GraphBuilder::new(Facet::Ip, w as u64 * 3600, 3600);
        b.add_all(recs);
        let g = b.finish();
        full.analyze(&g, g.nodes(), recs).expect("ip-facet window analyzes");
        full_ms.push(t0.elapsed().as_secs_f64() * 1e3);
    }

    // Incremental: the streaming loop as deployed — feed each window's
    // records into one dirty-tracked builder, drain whatever window the
    // arrivals just closed, and analyze it reusing the previous window's
    // similarity rows, partition seed, and carried policy rules. Window k's
    // entry times the iteration that analyzed it: one window's worth of
    // record ingest, the close+diff of window k, and its analysis — so every
    // warm entry is one full steady-state roll, and every cold cost (the
    // all-dirty first diff, sketch population) lands in entry 0.
    let incr_reg = Arc::new(obs::Registry::new());
    let mut incr = WindowAnalyzer::new(monitored.clone(), true)
        .with_parallelism(par)
        .with_obs(obs::Obs::new(incr_reg.clone()));
    let mut builder = WindowedBuilder::new(Facet::Ip, 3600).with_dirty_tracking();
    let mut incr_ms: Vec<f64> = Vec::new();
    let mut dirty_sizes = Vec::new();
    // Records arrive in strict window order, so each pass drains at most
    // one closed window; the final finish() drains the last.
    let mut passes: Vec<Option<&[ConnSummary]>> = windows.iter().map(|w| Some(&w[..])).collect();
    passes.push(None);
    for recs in passes {
        let t0 = Instant::now();
        let drained = match recs {
            Some(recs) => {
                builder.add_all(recs);
                builder.drain_finished_with_dirty()
            }
            None => std::mem::replace(
                &mut builder,
                WindowedBuilder::new(Facet::Ip, 3600).with_dirty_tracking(),
            )
            .finish_with_dirty(),
        };
        let analyzed = !drained.is_empty();
        for (g, dirty) in &drained {
            dirty_sizes.push(dirty.len());
            let i = (g.window_start() / 3600) as usize;
            incr.analyze(g, dirty, &windows[i]).expect("ip-facet window analyzes");
        }
        let dt = t0.elapsed().as_secs_f64() * 1e3;
        // Each entry accumulates passes up to and including the one that
        // analyzed its window, so the first pass (closes nothing) folds
        // into entry 0 and cold costs stay out of the warm mean.
        match incr_ms.last_mut() {
            Some(last) => *last += dt,
            None => incr_ms.push(dt),
        }
        if analyzed {
            incr_ms.push(0.0);
        }
    }
    // The trailing 0.0 placeholder never received a pass.
    incr_ms.truncate(WINDOWS as usize);
    let ingest_ms: f64 = incr_ms.iter().sum();

    // Steady state = warm windows only (window 0 is cold in both modes).
    let warm_mean = |v: &[f64]| v[1..].iter().sum::<f64>() / (v.len() - 1) as f64;
    let full_warm = warm_mean(&full_ms);
    let incr_warm = warm_mean(&incr_ms);
    let speedup = full_warm / incr_warm;
    for stage in ["similarity", "cluster", "policy"] {
        let f = full_reg.histogram(obs::STAGE_SECONDS, "", &[("stage", stage)]).snapshot();
        let i = incr_reg.histogram(obs::STAGE_SECONDS, "", &[("stage", stage)]).snapshot();
        println!(
            "  stage {stage:<12} full {:9.2} ms  incremental {:9.2} ms",
            f.sum * 1e3,
            i.sum * 1e3
        );
    }
    println!(
        "incremental window roll       full {full_warm:9.2} ms  incremental {incr_warm:9.2} ms  \
         speedup {speedup:5.2}x (warm-window mean, {} nodes, dirty {:?})",
        ROLES * REPLICAS,
        &dirty_sizes[1..],
    );

    // Sharded multi-subscription ingest: the same stream for each of six
    // subscriptions, pushed through the front door at 1/2/4 shards.
    let all_records: Vec<ConnSummary> = windows.iter().flatten().copied().collect();
    let subs: Vec<String> = (0..6).map(|s| format!("sub-{s}")).collect();
    let mut sharded = Vec::new();
    for shards in [1usize, 2, 4] {
        let mut front = ShardedEngine::new(ShardedConfig {
            shards,
            engine: EngineConfig { workers: 2, ..Default::default() },
            ..Default::default()
        })
        .expect("valid sharded config");
        let t0 = Instant::now();
        for chunk in all_records.chunks(4_096) {
            for sub in &subs {
                front.ingest(sub, chunk).expect("front door accepts batches");
            }
        }
        let (reports, stats) = front.finish().expect("front door drains");
        let secs = t0.elapsed().as_secs_f64();
        let rps = obs::rate::per_second(stats.records_in, secs);
        println!(
            "sharded ingest                shards {shards}  subscriptions {:<2} {:>9.0} records/s  in {:7.2} ms",
            reports.len(),
            rps,
            secs * 1e3,
        );
        sharded.push(json!({
            "shards": shards,
            "subscriptions": reports.len(),
            "records_in": stats.records_in,
            "edge_entries": stats.edge_entries,
            "per_shard_subscriptions": stats.per_shard_subscriptions,
            "ingest_ms": secs * 1e3,
            "records_per_sec": rps,
        }));
    }

    json!({
        "workload": {
            "roles": ROLES,
            "replicas": REPLICAS,
            "nodes": ROLES * REPLICAS,
            "windows": WINDOWS,
            "records_per_window": windows[0].len(),
            "dirty_nodes_per_warm_window": dirty_sizes[1..].to_vec(),
        },
        "full": {"per_window_ms": full_ms, "warm_mean_ms": full_warm},
        "incremental": {
            "per_window_ms": incr_ms,
            "warm_mean_ms": incr_warm,
            "streaming_ingest_ms": ingest_ms,
        },
        "speedup_warm": speedup,
        "sharded": sharded,
    })
}

/// Section 7: the fault simulator — clean-run bit-identity against direct
/// ingest, a per-fault-script outcome table (delivery, loss, dedup, and
/// lateness counters, each run twice for a determinism verdict), and raw
/// tick throughput of the delivery fabric.
fn faultsim_report() -> serde_json::Value {
    use cloudsim::net::{scripts, Delivery, FaultScript, NetConfig, NetSim};

    /// Wall-clock-free identity of a finished front door: per subscription,
    /// the engine counters plus each window's node/edge/byte shape.
    type Digest = Vec<(String, u64, u64, usize, Vec<(u64, usize, u64, u64)>)>;
    fn digest(front: ShardedEngine) -> Digest {
        let (reports, _) = front.finish().expect("front door drains");
        reports
            .into_iter()
            .map(|r| {
                let windows = r
                    .graphs
                    .iter()
                    .map(|g| {
                        let (mut edges, mut bytes) = (0u64, 0u64);
                        for i in 0..g.node_count() as u32 {
                            for (j, st) in g.neighbors(i) {
                                if i <= *j {
                                    edges += 1;
                                    bytes += st.bytes();
                                }
                            }
                        }
                        (g.window_start(), g.node_count(), edges, bytes)
                    })
                    .collect();
                (
                    r.subscription,
                    r.stats.records_in,
                    r.stats.records_kept,
                    r.stats.edge_entries,
                    windows,
                )
            })
            .collect()
    }
    let front = || ShardedEngine::new(ShardedConfig::default()).expect("valid sharded config");

    // Bit-identity: a simulated workload routed through a clean network must
    // finish identical to handing the same batches straight to the engine.
    let preset = ClusterPreset::MicroserviceBench;
    let minutes = 8;
    let simulator = || {
        Simulator::new(preset.topology_scaled(0.2), preset.default_sim_config())
            .expect("valid preset")
    };
    let mut direct = front();
    simulator().run(minutes, |_, batch| {
        direct.ingest("tenant-a", batch).expect("front door accepts batches");
    });
    let mut batches: Vec<Vec<ConnSummary>> = Vec::new();
    simulator().run(minutes, |_, batch| batches.push(batch.to_vec()));
    let mut net = NetSim::new(NetConfig::clean(), FaultScript::new()).expect("valid net config");
    let mut routed = front();
    for batch in &batches {
        net.offer(batch);
        net.step(|d| {
            routed
                .ingest_sequenced("tenant-a", &d.source.to_string(), d.seq, &d.records)
                .expect("seam ingest");
        });
    }
    net.drain(|d| {
        routed
            .ingest_sequenced("tenant-a", &d.source.to_string(), d.seq, &d.records)
            .expect("seam ingest");
    });
    let clean_bit_identical = digest(routed) == digest(direct);

    // Per-script outcome table over a fixed two-host workload, one window
    // per six ticks; every scenario runs twice for a determinism verdict.
    const TICKS: u64 = 12;
    let host = |d: u8| std::net::Ipv4Addr::new(10, 0, 0, d);
    let batch = |t: u64| -> Vec<ConnSummary> {
        (1u8..=2)
            .map(|h| ConnSummary {
                ts: t * 600,
                key: FlowKey::tcp(host(h), 40_000 + t as u16, host(99), 443),
                pkts_sent: 3,
                pkts_rcvd: 2,
                bytes_sent: 1_200,
                bytes_rcvd: 300,
            })
            .collect()
    };
    let run_script = |name: &str, cfg: NetConfig, script: FaultScript| {
        let exec = || {
            let registry = std::sync::Arc::new(obs::Registry::new());
            let o = obs::Obs::new(registry.clone());
            let mut pipeline = Pipeline::new(PipelineConfig { obs: o, ..Default::default() });
            let mut net = NetSim::new(cfg.clone(), script.clone()).expect("valid net config");
            let mut fr = front();
            let mut dedup_dropped = 0u64;
            let mut sink = |fr: &mut ShardedEngine, p: &mut Pipeline, d: &Delivery| {
                let fresh = fr
                    .ingest_sequenced("tenant-a", &d.source.to_string(), d.seq, &d.records)
                    .expect("seam ingest");
                if fresh {
                    p.ingest(&d.records);
                } else {
                    dedup_dropped += d.records.len() as u64;
                }
            };
            for t in 0..TICKS {
                net.offer(&batch(t));
                net.step(|d| sink(&mut fr, &mut pipeline, d));
            }
            net.drain(|d| sink(&mut fr, &mut pipeline, d));
            let late = registry.counter("commgraph_pipeline_late_records_total", "", &[]).get();
            let dropped_late =
                registry.counter("commgraph_pipeline_dropped_late_records_total", "", &[]).get();
            (net.stats().clone(), dedup_dropped, late, dropped_late, digest(fr))
        };
        let first = exec();
        let deterministic = exec() == first;
        let (stats, dedup_dropped, late, dropped_late, _) = first;
        println!(
            "faultsim {name:<14} delivered {:>4}  net-dropped {:>3}  agent-lost {:>3}  \
             dedup-dropped {:>3}  late {:>2}  dropped-late {:>2}  deterministic {deterministic}",
            stats.delivered_records,
            stats.dropped_records,
            stats.lost_at_agent_records,
            dedup_dropped,
            late,
            dropped_late,
        );
        json!({
            "name": name,
            "offered_records": stats.offered_records,
            "delivered_records": stats.delivered_records,
            "dropped_records": stats.dropped_records,
            "lost_at_agent_records": stats.lost_at_agent_records,
            "duplicated_packets": stats.duplicated_packets,
            "replayed_packets": stats.replayed_packets,
            "reordered_packets": stats.reordered_packets,
            "dedup_dropped_records": dedup_dropped,
            "late_records": late,
            "dropped_late_records": dropped_late,
            "deterministic": deterministic,
        })
    };
    let table = vec![
        run_script("clean", NetConfig::clean(), FaultScript::new()),
        run_script(
            "crash_lose",
            NetConfig { flush_every: 2, ..NetConfig::clean() },
            scripts::crash_lose(host(1), 2),
        ),
        run_script(
            "crash_replay",
            NetConfig { flush_every: 2, ..NetConfig::clean() },
            scripts::crash_replay(host(1), 2),
        ),
        run_script(
            "delayed_flush",
            NetConfig::clean(),
            FaultScript::parse("at 3 delay 10.0.0.1 for 3").expect("valid script"),
        ),
        run_script(
            "duplicate",
            NetConfig { duplicate_rate: 1.0, ..NetConfig::clean() },
            FaultScript::new(),
        ),
        run_script(
            "clock_skew",
            NetConfig::clean(),
            FaultScript::parse("at 6 skew 10.0.0.1 -3600").expect("valid script"),
        ),
        run_script(
            "partition",
            NetConfig::clean(),
            FaultScript::parse("at 1 partition 10.0.0.1,10.0.0.2 for 4").expect("valid script"),
        ),
        run_script(
            "lossy_jitter",
            NetConfig {
                latency_ticks: (0, 3),
                drop_rate: 0.2,
                duplicate_rate: 0.2,
                ..NetConfig::default()
            },
            FaultScript::new(),
        ),
    ];

    // Raw fabric throughput: agents + jitter + delivery, no analytics.
    let bench_ticks = 20_000u64;
    let cfg = NetConfig { latency_ticks: (0, 3), ..NetConfig::default() };
    let mut net = NetSim::new(cfg, FaultScript::new()).expect("valid net config");
    let mut delivered = 0u64;
    let t0 = Instant::now();
    for t in 0..bench_ticks {
        net.offer(&batch(t));
        net.step(|d| delivered += d.records.len() as u64);
    }
    net.drain(|d| delivered += d.records.len() as u64);
    let secs = t0.elapsed().as_secs_f64();
    let ticks_per_sec = obs::rate::per_second(net.stats().ticks, secs);
    println!(
        "faultsim fabric               {bench_ticks} ticks, {delivered} records in {:7.2} ms \
         ({ticks_per_sec:>9.0} ticks/s)",
        secs * 1e3,
    );

    json!({
        "clean_bit_identical": clean_bit_identical,
        "ticks": net.stats().ticks,
        "ticks_per_sec": ticks_per_sec,
        "scripts": table,
    })
}

/// One kernel-table row; `parallel_ms` only for the tile-parallel kernels.
fn kernel_row(
    report: &mut serde_json::Map,
    name: &str,
    dim: usize,
    serial_ms: f64,
    parallel_ms: Option<f64>,
) {
    let row = match parallel_ms {
        Some(parallel_ms) => {
            let speedup = serial_ms / parallel_ms;
            println!("{name:<28} n={dim:<5} serial {serial_ms:9.2} ms  parallel {parallel_ms:9.2} ms  speedup {speedup:5.2}x");
            json!({"n": dim, "serial_ms": serial_ms, "parallel_ms": parallel_ms, "speedup": speedup})
        }
        None => {
            println!("{name:<28} n={dim:<5} serial {serial_ms:9.2} ms");
            json!({"n": dim, "serial_ms": serial_ms})
        }
    };
    report.insert(name.to_string(), row);
}

fn main() {
    let n: usize = arg_parsed("n", 500);
    let workers: usize = arg_parsed("workers", 4);
    let reps = arg_u64("reps", 3);
    let scale = arg_f64("scale", 0.3);
    let minutes = arg_u64("minutes", 30);
    let cores = std::thread::available_parallelism().map(|c| c.get()).unwrap_or(1);
    let serial = Parallelism::serial();
    let parallel = Parallelism::new(workers);

    let mut report = serde_json::Map::new();
    let sets = fixture_sets(n);
    kernel_row(
        &mut report,
        "jaccard_matrix_of_sets",
        n,
        time_ms(reps, || jaccard_matrix_of_sets_with(&sets, serial)),
        Some(time_ms(reps, || jaccard_matrix_of_sets_with(&sets, parallel))),
    );

    let mh = MinHasher::new(128, 7);
    kernel_row(
        &mut report,
        "minhash_similarity",
        n,
        time_ms(reps, || mh.similarity_matrix_of_sets_with(&sets, serial)),
        Some(time_ms(reps, || mh.similarity_matrix_of_sets_with(&sets, parallel))),
    );

    // SimRank is O(n³) per iteration — a smaller graph keeps the run short.
    let sr_n = (n / 3).max(16);
    let edges: Vec<(u32, u32, f64)> = (0..sr_n as u32)
        .flat_map(|u| (1..4u32).map(move |k| (u, (u + k * 7) % sr_n as u32, 1.0 + (u % 5) as f64)))
        .filter(|&(u, v, _)| u != v)
        .collect();
    let g = WeightedGraph::from_edges(sr_n, &edges);
    let cfg = SimRankConfig::default();
    kernel_row(&mut report, "simrank", sr_n, time_ms(reps, || simrank(&g, cfg)), None);

    // Louvain clusters a larger graph than SimRank scores — the sweep is
    // near-linear in edges — so scale the fixture up for a stable timing.
    let cg = fixture_community_graph(n * 4);
    let cg_n = cg.node_count();
    kernel_row(&mut report, "louvain", cg_n, time_ms(reps, || louvain(&cg)), None);
    let hier = HierarchicalConfig::default();
    kernel_row(
        &mut report,
        "hierarchical_louvain",
        cg_n,
        time_ms(reps, || hierarchical_louvain(&cg, hier)),
        None,
    );

    let m = fixture_symmetric(n);
    kernel_row(
        &mut report,
        "eigen_symmetric",
        n,
        time_ms(reps, || eigen_symmetric(&m, 1e-8).expect("symmetric")),
        None,
    );

    // PCA at a smaller dimension: the sweep re-runs the eigensolve.
    let pca_n = (n / 2).max(32);
    let mp = fixture_symmetric(pca_n);
    let ks = [1, 4, 16, 64];
    kernel_row(
        &mut report,
        "pca_sweep",
        pca_n,
        time_ms(reps, || pca_sweep(&mp, &ks).expect("square")),
        None,
    );

    let incremental = incremental_report();
    let faultsim = faultsim_report();
    let (pipeline, trace_json) = stage_report(workers, scale, minutes);

    let out = json!({
        "cores": cores,
        "workers": workers,
        "reps": reps,
        "kernels": serde_json::Value::Object(report),
        "incremental": incremental,
        "faultsim": faultsim,
        "pipeline_run": pipeline,
    });
    let path = "BENCH_PR10.json";
    std::fs::write(path, serde_json::to_string_pretty(&out).expect("serializable"))
        .expect("write report");
    let trace_path = "TRACE_PR10.json";
    std::fs::write(trace_path, trace_json).expect("write trace");
    println!(
        "\nwrote {path} and {trace_path} (host has {cores} core(s); speedups need \
         multi-core hardware; open {trace_path} in Perfetto)"
    );
}
