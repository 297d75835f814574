//! `paas_monitor` and `paas_rebuild`: the deployed security loop over one
//! K8s PaaS subscription with diurnal load, a replica scale-out and a
//! lateral-movement attack after learning. Each simulated minute's batch
//! goes to `SecurityMonitor::ingest` and to a dirty-tracked
//! `WindowedBuilder`; every window the builder drains goes to a
//! `WindowAnalyzer` with telemetry attached (a `Scraper` with recording rules
//! and the `query_pack` alert engine). No analytics engine runs.
//! `paas_monitor` runs the analyzer incrementally (the deployed default),
//! `paas_rebuild` rebuilds every window (its `incremental: false` mode).
//!
//! Set-up is construction until the ingest call that emits `BaselineReady`
//! returns: the learning windows plus the baseline fit. The timed phase is
//! every later step. Window latency: from the start of the step that
//! delivers the window's first later record (or of the flush) until the
//! analyzer returns that window's result, which also ends its alert tick;
//! the monitor's verdict on the window comes earlier in the same step.
//!
//! `SecurityMonitor::ingest` and `WindowAnalyzer::analyze` each span several
//! layers, so the traced pass does not call them. It runs the monitor's
//! algorithm from the layers' own public functions (`GraphBuilder`,
//! `collapse_default`, `ViolationDetector`, `PatternModel`, `diff`,
//! `Workbench`), drives the analyzer without telemetry and scrapes and
//! evaluates alerts itself, and reads the analyzer's and workbench's
//! `commgraph_stage_seconds` histograms to split their time by stage. Its
//! outputs are checked against the same reference as the deployed loop.
//!
//! The reference takes each window's roles, segments and rules from the
//! full-rebuild algorithm written out over `algos::roles` and `segment`,
//! which the incremental analyzer is documented to match bit for bit. On
//! this workload it does not from the first warm window on, so
//! `paas_monitor` fails its check until the program is fixed.

use crate::digest::{Digest, WindowDigest};
use crate::gen::{self, Batch};
use crate::timed::Timed;
use crate::trace::{Open, Tracer};
use crate::Pass;
use commgraph::algos::roles::{infer_roles_with, SegmentationMethod};
use commgraph::anomaly::PatternModel;
use commgraph::cloudsim::attack::{AttackKind, AttackScenario};
use commgraph::cloudsim::churn::ChurnPlan;
use commgraph::cloudsim::{ClusterPreset, Simulator};
use commgraph::flowlog::record::ConnSummary;
use commgraph::graph::collapse::collapse_default;
use commgraph::graph::diff::{diff, dirty_nodes};
use commgraph::graph::{CommGraph, Facet, GraphBuilder, NodeId, WindowedBuilder};
use commgraph::linalg::Parallelism;
use commgraph::monitor::{MonitorConfig, MonitorEvent, SecurityMonitor};
use commgraph::obs::alert::query_pack;
use commgraph::obs::{
    AlertEngine, Obs, RecordingRule, Registry, Scraper, Transition, Tsdb, TsdbConfig,
};
use commgraph::pipeline::{WindowAnalysis, WindowAnalyzer};
use commgraph::segment::{SegmentPolicy, Segmentation, ViolationDetector};
use commgraph::Workbench;
use std::collections::{BTreeMap, HashSet};
use std::net::Ipv4Addr;
use std::sync::Arc;
use std::time::Instant;

/// Window length: 10 minutes.
pub const WINDOW_LEN: u64 = 600;
/// Windows the monitor learns from before enforcing.
pub const LEARN_WINDOWS: usize = 3;
/// `SecurityMonitor`'s default cap on violation events per window.
const MAX_VIOLATION_EVENTS: usize = 64;
/// `WindowAnalyzer`'s defaults: similarity floor and port-scoped rules.
const MIN_SCORE: f64 = 0.1;
const PORT_SCOPED: bool = true;

/// Size of the generated stream.
#[derive(Debug, Clone, Copy)]
pub struct Size {
    /// Topology scale of the K8s PaaS preset.
    pub scale: f64,
    /// Windows after learning (the timed phase).
    pub enforce_windows: u64,
    /// Whether the analyzer maintains windows incrementally or rebuilds
    /// each one.
    pub incremental: bool,
}

/// The size `paas_monitor` runs use.
pub const SIZE: Size = Size { scale: 0.4, enforce_windows: 9, incremental: true };
/// The size `paas_rebuild` runs use.
pub const SIZE_REBUILD: Size = Size { incremental: false, ..SIZE };

/// Generated input of one run.
#[derive(Debug)]
pub struct Input {
    /// Stream size.
    pub size: Size,
    /// One batch per simulated minute.
    pub batches: Vec<Batch>,
    /// The cluster's inventory.
    pub monitored: HashSet<Ipv4Addr>,
    /// Records of each window (what the analyzer learns policies from).
    pub windows: BTreeMap<u64, Vec<ConnSummary>>,
    /// Mean records per window, for sizing the alert pack's burn rates.
    pub records_per_window: f64,
}

/// Generate the stream for `seed`.
pub fn generate(seed: u64, size: Size) -> Result<Input, String> {
    let preset = ClusterPreset::K8sPaas;
    let topo = preset.topology_scaled(size.scale);
    let role = |name: &str| {
        topo.role_named(name).map(|r| r.id).ok_or_else(|| format!("preset has no role {name}"))
    };
    let (web, breach) = (role("tenant2-web")?, role("tenant1-web")?);
    let learn_min = LEARN_WINDOWS as u64 * WINDOW_LEN / 60;
    let mut cfg = preset.default_sim_config();
    cfg.seed = gen::mix(seed, 0x9aa5);
    cfg.churn = ChurnPlan::none().with(learn_min + 25, web, 4);
    cfg.attacks = vec![AttackScenario {
        kind: AttackKind::LateralMovement,
        start_min: learn_min + 45,
        duration_min: 20,
        breached: topo.ip_of(breach, 0).map_err(|e| e.to_string())?,
        intensity: 6,
    }];
    let mut sim = Simulator::new(topo, cfg).map_err(|e| e.to_string())?;
    let monitored = gen::monitored_of(&sim);
    let minutes = (LEARN_WINDOWS as u64 + size.enforce_windows) * WINDOW_LEN / 60;
    let batches = gen::minutes(&mut sim, minutes);
    let windows = gen::by_window(&batches, WINDOW_LEN);
    let records: usize = windows.values().map(Vec::len).sum();
    let records_per_window = records as f64 / windows.len().max(1) as f64;
    Ok(Input { size, batches, monitored, windows, records_per_window })
}

/// Workload parameters for the result file.
pub fn params(input: &Input) -> serde_json::Value {
    serde_json::json!({
        "preset": "K8s PaaS",
        "scale": input.size.scale,
        "window_len_s": WINDOW_LEN,
        "learn_windows": LEARN_WINDOWS,
        "enforce_windows": input.size.enforce_windows,
        "analyzer": if input.size.incremental { "incremental" } else { "full rebuild" },
        "load": "diurnal (preset default)",
        "churn": "tenant2-web +4 replicas 25 min after learning",
        "attack": "lateral movement from tenant1-web/0, 45-65 min after learning",
        "records": input.windows.values().map(Vec::len).sum::<usize>(),
        "records_per_window": input.records_per_window,
    })
}

fn monitor_config() -> MonitorConfig {
    MonitorConfig {
        window_len: WINDOW_LEN,
        learn_windows: LEARN_WINDOWS,
        ..MonitorConfig::default()
    }
}

/// The analyzer's telemetry: registry, TSDB, scraper with recording rules,
/// and the query-pack alert engine.
struct Telemetry {
    registry: Arc<Registry>,
    obs: Obs,
    store: Arc<Tsdb>,
    scraper: Arc<Scraper>,
    alerts: Arc<AlertEngine>,
}

fn telemetry(input: &Input) -> Result<Telemetry, String> {
    let registry = Arc::new(Registry::new());
    let obs = Obs::new(registry.clone());
    let store = Arc::new(Tsdb::new(TsdbConfig::default()));
    let scraper = Arc::new(Scraper::new(registry.clone(), store.clone()));
    scraper.add_recording_rule(
        RecordingRule::new(
            "analyzer:savings:delta1",
            "delta(commgraph_incremental_savings_seconds{field=\"count\"}[1])",
        )
        .map_err(|e| e.to_string())?,
    );
    scraper.add_recording_rule(
        RecordingRule::new("tsdb:samples:delta1", "delta(commgraph_tsdb_samples_total[1])")
            .map_err(|e| e.to_string())?,
    );
    let alerts = Arc::new(AlertEngine::new(obs.clone()));
    alerts.add_rules(query_pack(input.records_per_window).map_err(|e| e.to_string())?);
    Ok(Telemetry { registry, obs, store, scraper, alerts })
}

fn analyzer(input: &Input, tel: &Telemetry) -> WindowAnalyzer {
    WindowAnalyzer::new(input.monitored.clone(), input.size.incremental)
        .with_min_score(MIN_SCORE)
        .with_obs(tel.obs.clone())
}

fn window_records(input: &Input, start: u64) -> &[ConnSummary] {
    input.windows.get(&start).map_or(&[][..], Vec::as_slice)
}

fn analysis_digest(a: &WindowAnalysis) -> u64 {
    let mut d = Digest::default();
    d.u64(a.window_start).u64(a.roles.n_roles as u64).f64(a.roles.clustering_modularity);
    for l in &a.roles.labels {
        d.u64(*l as u64);
    }
    d.u64(a.segmentation.len() as u64).u64(a.policy.rule_count() as u64);
    d.finish()
}

fn graph_digest(g: &CommGraph, dirty: &[NodeId]) -> u64 {
    Digest::default().graph(g).u64(dirty.len() as u64).finish()
}

/// What one pass produced, before it is folded into digests.
#[derive(Debug, Default)]
struct Outputs {
    /// Window start → (graph digest, analysis digest, analyzer tick).
    windows: BTreeMap<u64, (u64, u64, u64)>,
    /// Every monitor event, in order.
    events: Vec<MonitorEvent>,
    /// Every alert transition, in order.
    transitions: Vec<Transition>,
    /// Sum of dirty-set sizes and of node counts over analyzed windows.
    dirty_nodes: (usize, usize),
    /// Sum of raw edge counts over analyzed windows.
    edges: usize,
}

impl Outputs {
    fn window(&mut self, g: &CommGraph, dirty: &[NodeId], a: &WindowAnalysis, tick: u64) {
        self.windows.insert(g.window_start(), (graph_digest(g, dirty), analysis_digest(a), tick));
        self.dirty_nodes.0 += dirty.len();
        self.dirty_nodes.1 += g.node_count();
        self.edges += g.edge_count();
    }

    /// The digests: one per analyzed window (graph, analysis, its alert
    /// tick's transitions), one per monitor verdict, one for the baseline.
    fn digests(&self) -> Vec<WindowDigest> {
        let mut by_tick: BTreeMap<u64, Digest> = BTreeMap::new();
        for t in &self.transitions {
            by_tick
                .entry(t.tick)
                .or_default()
                .str(&t.rule)
                .str(t.from.as_str())
                .str(t.to.as_str())
                .f64(t.value.unwrap_or(f64::NAN));
        }
        let mut out: Vec<WindowDigest> = self
            .windows
            .iter()
            .map(|(start, (graph, analysis, tick))| {
                let alerts = by_tick.get(tick).map_or(0, Digest::finish);
                let d = *Digest::default().u64(*graph).u64(*analysis).u64(alerts);
                WindowDigest { key: format!("w/{start}"), digest: d.finish() }
            })
            .collect();
        let mut summary: Option<(u64, Digest)> = None;
        for e in &self.events {
            match e {
                MonitorEvent::BaselineReady {
                    windows,
                    segments,
                    allow_rules,
                    anomaly_threshold,
                } => {
                    let d = *Digest::default()
                        .u64(*windows as u64)
                        .u64(*segments as u64)
                        .u64(*allow_rules as u64)
                        .f64(*anomaly_threshold);
                    out.push(WindowDigest { key: "baseline".into(), digest: d.finish() });
                }
                MonitorEvent::WindowSummary {
                    window_start,
                    records,
                    violations,
                    anomaly_score,
                    anomalous,
                    new_edges,
                    gone_edges,
                } => {
                    if let Some((start, d)) = summary.take() {
                        out.push(WindowDigest { key: format!("m/{start}"), digest: d.finish() });
                    }
                    let mut d = Digest::default();
                    d.u64(*records as u64)
                        .u64(*violations as u64)
                        .f64(*anomaly_score)
                        .u64(u64::from(*anomalous))
                        .u64(*new_edges as u64)
                        .u64(*gone_edges as u64);
                    summary = Some((*window_start, d));
                }
                MonitorEvent::PolicyViolation(v) => {
                    if let Some((_, d)) = summary.as_mut() {
                        d.str(&format!("{v:?}"));
                    }
                }
            }
        }
        if let Some((start, d)) = summary {
            out.push(WindowDigest { key: format!("m/{start}"), digest: d.finish() });
        }
        out
    }

    fn violations(&self) -> usize {
        self.events
            .iter()
            .map(|e| match e {
                MonitorEvent::WindowSummary { violations, .. } => *violations,
                _ => 0,
            })
            .sum()
    }
}

fn finish_pass(p: &mut Pass, out: &Outputs, tel: &Telemetry) {
    p.digests = out.digests();
    p.counters
        .insert("graph.dirty_share", out.dirty_nodes.0 as f64 / out.dirty_nodes.1.max(1) as f64);
    p.counters.insert("graph.edges_per_window", out.edges as f64 / out.windows.len().max(1) as f64);
    p.counters.insert("segment.violations", out.violations() as f64);
    p.counters.insert("obs.tsdb_series", tel.store.series_count() as f64);
    p.counters.insert("obs.tsdb_bytes", tel.store.memory_bytes() as f64);
    p.counters.insert("proc.threads_peak", p.timed.threads_peak as f64);
}

/// One pass over the deployed loop, or with `decomposed_loop` over the loop
/// the traced run uses (traced or not, as `tr` says).
pub fn pass(input: &Input, tr: &mut Tracer, decomposed_loop: bool) -> Pass {
    let t0 = Instant::now();
    let Ok(tel) = telemetry(input) else {
        return Pass { attempted: 1, failed: 1, ..Pass::default() };
    };
    if decomposed_loop {
        decomposed(input, tel, t0, tr, true).0
    } else {
        product(input, tel, t0)
    }
}

/// The deployed loop: `SecurityMonitor` + `WindowedBuilder` +
/// `WindowAnalyzer` with telemetry.
fn product(input: &Input, tel: Telemetry, t0: Instant) -> Pass {
    let mut p = Pass::default();
    let mut out = Outputs::default();
    let mut monitor = SecurityMonitor::new(monitor_config(), input.monitored.clone());
    let mut builder = Some(
        WindowedBuilder::new(Facet::Ip, WINDOW_LEN)
            .with_monitored(input.monitored.clone())
            .with_dirty_tracking(),
    );
    let mut analyzer =
        analyzer(input, &tel).with_telemetry(tel.scraper.clone(), tel.alerts.clone());
    let mut timed: Option<Timed> = None;

    // One step: monitor, builder, analyzer. `batch: None` is the flush.
    // Returns the instant the monitor call returned if it emitted the
    // baseline, and each analyzed window with the instant its result was in.
    let mut step = |batch: Option<&Batch>,
                    out: &mut Outputs,
                    p: &mut Pass|
     -> (Option<Instant>, Vec<Instant>) {
        p.attempted += 1;
        let events = match batch {
            Some(b) => monitor.ingest(b),
            None => monitor.flush(),
        };
        let baseline = events
            .iter()
            .any(|e| matches!(e, MonitorEvent::BaselineReady { .. }))
            .then(Instant::now);
        out.events.extend(events);
        let drained = match (batch, builder.as_mut()) {
            (Some(b), Some(wb)) => {
                wb.add_all(b);
                wb.drain_finished_with_dirty()
            }
            (None, Some(_)) => {
                builder.take().map(WindowedBuilder::finish_with_dirty).unwrap_or_default()
            }
            (_, None) => Vec::new(),
        };
        let mut done = Vec::new();
        for (g, dirty) in drained {
            p.attempted += 1;
            match analyzer.analyze(&g, &dirty, window_records(input, g.window_start())) {
                Ok(a) => out.window(&g, &dirty, &a, analyzer.tick()),
                Err(_) => p.failed += 1,
            }
            done.push(Instant::now());
        }
        (baseline, done)
    };

    let steps = input.batches.iter().map(Some).chain(std::iter::once(None));
    for batch in steps {
        match timed.as_mut() {
            Some(t) => {
                let ((_, done), start, _) = t.step(|| step(batch, &mut out, &mut p));
                p.records += batch.map_or(0, |b| b.len() as u64);
                p.latencies_ms.extend(done.iter().map(|d| (*d - start).as_secs_f64() * 1e3));
            }
            None => {
                if let (Some(ready), _) = step(batch, &mut out, &mut p) {
                    p.setup_s = vec![(ready - t0).as_secs_f64()];
                    timed = Some(Timed::start());
                }
            }
        }
    }
    match timed {
        Some(t) => p.timed = t.finish(),
        // The baseline never became ready: the run has no timed phase.
        None => p.failed += 1,
    }
    out.transitions = tel.alerts.history();
    finish_pass(&mut p, &out, &tel);
    p
}

/// Sums of the `commgraph_stage_seconds` histograms of `stages`.
fn stage_sums(registry: &Registry, stages: &[&str]) -> Vec<f64> {
    stages
        .iter()
        .map(|s| registry.histogram(commgraph::obs::STAGE_SECONDS, "", &[("stage", s)]).sum())
        .collect()
}

/// The monitor's learned state.
struct Baseline {
    segmentation: Segmentation,
    policy: SegmentPolicy,
    model: PatternModel,
    threshold: f64,
    previous: Option<CommGraph>,
}

/// `SecurityMonitor`'s algorithm written out over the layers' public
/// functions, each call in its own span.
struct ShadowMonitor<'a> {
    cfg: MonitorConfig,
    monitored: &'a HashSet<Ipv4Addr>,
    current: Option<u64>,
    records: Vec<ConnSummary>,
    learned: Vec<ConnSummary>,
    windows_done: usize,
    baseline: Option<Baseline>,
    /// Private registry the workbench's stage spans land in.
    stages: Arc<Registry>,
    failed: u64,
}

impl<'a> ShadowMonitor<'a> {
    fn new(monitored: &'a HashSet<Ipv4Addr>) -> Self {
        ShadowMonitor {
            cfg: monitor_config(),
            monitored,
            current: None,
            records: Vec::new(),
            learned: Vec::new(),
            windows_done: 0,
            baseline: None,
            stages: Arc::new(Registry::new()),
            failed: 0,
        }
    }

    fn ingest(&mut self, batch: &[ConnSummary], tr: &mut Tracer) -> Vec<MonitorEvent> {
        let open = tr.begin("monitor.ingest", "");
        let mut events = Vec::new();
        for r in batch {
            let w = gen::window_of(r.ts, self.cfg.window_len);
            match self.current {
                None => self.current = Some(w),
                Some(cur) if cur != w => {
                    self.close(cur, tr, &mut events);
                    self.current = Some(w);
                }
                _ => {}
            }
            self.records.push(*r);
        }
        tr.end(open);
        events
    }

    fn flush(&mut self, tr: &mut Tracer) -> Vec<MonitorEvent> {
        let mut events = Vec::new();
        if let Some(w) = self.current.take() {
            self.close(w, tr, &mut events);
        }
        events
    }

    fn graph_of(&self, w: u64, records: &[ConnSummary], tr: &mut Tracer, id: &str) -> CommGraph {
        let raw = tr.span("graph.build", id, || {
            let mut b = GraphBuilder::new(Facet::Ip, w, self.cfg.window_len)
                .with_monitored(self.monitored.clone());
            b.add_all(records);
            b.finish()
        });
        tr.span("graph.collapse", id, || collapse_default(&raw))
    }

    fn close(&mut self, w: u64, tr: &mut Tracer, events: &mut Vec<MonitorEvent>) {
        let records = std::mem::take(&mut self.records);
        let id = w.to_string();
        if self.baseline.is_none() {
            self.learned.extend_from_slice(&records);
            self.windows_done += 1;
            if self.windows_done >= self.cfg.learn_windows {
                let open = tr.begin("monitor.baseline", &id);
                match self.build_baseline(tr) {
                    Some(b) => {
                        events.push(MonitorEvent::BaselineReady {
                            windows: self.windows_done,
                            segments: b.segmentation.len(),
                            allow_rules: b.policy.rule_count(),
                            anomaly_threshold: b.threshold,
                        });
                        self.baseline = Some(b);
                    }
                    None => self.failed += 1,
                }
                tr.end(open);
            }
            return;
        }
        let open = tr.begin("monitor.close", &id);
        let graph = self.graph_of(w, &records, tr, &id);
        let Some(b) = self.baseline.as_mut() else { return };
        let violations = tr.span("segment.violation_check", &id, || {
            let mut det = ViolationDetector::new(b.segmentation.clone(), b.policy.clone());
            det.check_all(&records)
        });
        let score = tr.span("pca.score", &id, || {
            b.model.score(&graph).map(|s| s.score).unwrap_or(f64::INFINITY)
        });
        let (new_edges, gone_edges) = match &b.previous {
            Some(prev) => tr.span("graph.diff", &id, || {
                let d = diff(prev, &graph, self.cfg.change_ratio);
                (d.added_edges.len(), d.removed_edges.len())
            }),
            None => (0, 0),
        };
        b.previous = Some(graph);
        events.push(MonitorEvent::WindowSummary {
            window_start: w,
            records: records.len(),
            violations: violations.len(),
            anomaly_score: score,
            anomalous: score > b.threshold,
            new_edges,
            gone_edges,
        });
        events.extend(
            violations.into_iter().take(MAX_VIOLATION_EVENTS).map(MonitorEvent::PolicyViolation),
        );
        tr.end(open);
    }

    fn build_baseline(&mut self, tr: &mut Tracer) -> Option<Baseline> {
        let records = std::mem::take(&mut self.learned);
        let stages = ["build", "similarity", "cluster", "policy"];
        let before = stage_sums(&self.stages, &stages);
        let wb_open = tr.begin("monitor.workbench", "");
        let mut wb = Workbench::new(records.clone(), self.monitored.clone())
            .with_obs(Obs::new(self.stages.clone()));
        let segmentation = wb.segmentation().clone();
        let policy = wb.policy().clone();
        tr.end(wb_open);
        let after = stage_sums(&self.stages, &stages);
        let spent: Vec<f64> = after.iter().zip(&before).map(|(a, b)| a - b).collect();
        tr.place(
            wb_open,
            &[
                ("graph.build", spent[0]),
                ("roles.similarity", spent[1]),
                ("roles.cluster", spent[2]),
                ("segment.policy", spent[3]),
            ],
        );

        let mut starts: Vec<u64> =
            records.iter().map(|r| gen::window_of(r.ts, self.cfg.window_len)).collect();
        starts.sort_unstable();
        starts.dedup();
        let mut graphs = Vec::with_capacity(starts.len());
        for w in starts {
            let recs: Vec<ConnSummary> = records
                .iter()
                .filter(|r| gen::window_of(r.ts, self.cfg.window_len) == w)
                .copied()
                .collect();
            graphs.push(self.graph_of(w, &recs, tr, &w.to_string()));
        }
        let first = graphs.first()?;
        let model = tr.span("pca.fit", "", || PatternModel::fit(first, self.cfg.anomaly_k)).ok()?;
        let threshold = tr
            .span("pca.score", "", || {
                model.calibrate_threshold(&graphs[1..], self.cfg.anomaly_margin)
            })
            .ok()?;
        Some(Baseline { segmentation, policy, model, threshold, previous: None })
    }
}

/// The traced loop: the shadow monitor, the same builder, the analyzer
/// without telemetry, and the benchmark scraping and evaluating alerts at
/// the tick the analyzer would. With `timed_run` false the pass only produces
/// outputs (the reference's use).
fn decomposed(
    input: &Input,
    tel: Telemetry,
    t0: Instant,
    tr: &mut Tracer,
    timed_run: bool,
) -> (Pass, Outputs) {
    let mut p = Pass::default();
    let mut out = Outputs::default();
    let mut monitor = ShadowMonitor::new(&input.monitored);
    let mut builder = Some(
        WindowedBuilder::new(Facet::Ip, WINDOW_LEN)
            .with_monitored(input.monitored.clone())
            .with_dirty_tracking(),
    );
    let mut analyzer = analyzer(input, &tel);
    let mut tick = 0u64;
    let stages = ["similarity", "cluster", "policy"];
    let mut seen_stages: Option<Vec<f64>> = None;
    let mut timed: Option<Timed> = None;
    let setup = tr.begin("bench.setup", "");
    let mut phase: Option<Open> = None;

    let steps = input.batches.iter().map(Some).chain(std::iter::once(None));
    for (i, batch) in steps.enumerate() {
        let step_open = tr.begin("bench.step", &i.to_string());
        let start = match timed.as_mut() {
            Some(t) => t.begin(),
            None => Instant::now(),
        };
        p.attempted += 1;
        let events = match batch {
            Some(b) => monitor.ingest(b, tr),
            None => {
                let open = tr.begin("monitor.ingest", "flush");
                let e = monitor.flush(tr);
                tr.end(open);
                e
            }
        };
        let ready = events.iter().any(|e| matches!(e, MonitorEvent::BaselineReady { .. }));
        let ready_at = Instant::now();
        out.events.extend(events);
        let drained = tr.span("graph.build", &i.to_string(), || match (batch, builder.as_mut()) {
            (Some(b), Some(wb)) => {
                wb.add_all(b);
                wb.drain_finished_with_dirty()
            }
            (None, Some(_)) => {
                builder.take().map(WindowedBuilder::finish_with_dirty).unwrap_or_default()
            }
            (_, None) => Vec::new(),
        });
        for (g, dirty) in drained {
            let id = g.window_start().to_string();
            p.attempted += 1;
            let open = tr.begin("analyzer.analyze", &id);
            let res = analyzer.analyze(&g, &dirty, window_records(input, g.window_start()));
            tr.end(open);
            let now = stage_sums(&tel.registry, &stages);
            let before =
                seen_stages.replace(now.clone()).unwrap_or_else(|| vec![0.0; stages.len()]);
            tr.place(
                open,
                &[
                    ("roles.similarity", now[0] - before[0]),
                    ("roles.cluster", now[1] - before[1]),
                    ("segment.policy", now[2] - before[2]),
                ],
            );
            tick += 1;
            tr.span("obs.scrape", &id, || tel.scraper.scrape(tick));
            tr.span("obs.alert_eval", &id, || tel.alerts.evaluate(tick, &tel.store));
            match res {
                Ok(a) => out.window(&g, &dirty, &a, tick),
                Err(_) => p.failed += 1,
            }
            if timed.is_some() {
                p.latencies_ms.push(start.elapsed().as_secs_f64() * 1e3);
            }
        }
        tr.end(step_open);
        if let Some(t) = timed.as_mut() {
            t.end(start);
            p.records += batch.map_or(0, |b| b.len() as u64);
        } else if ready {
            p.setup_s = vec![(ready_at - t0).as_secs_f64()];
            tr.end(setup);
            if timed_run {
                timed = Some(Timed::start());
            }
            phase = Some(tr.begin("bench.timed", ""));
        }
    }
    if let Some(ph) = phase {
        tr.end(ph);
    }
    p.failed += monitor.failed;
    if let Some(t) = timed {
        p.timed = t.finish();
    } else if timed_run {
        p.failed += 1;
    }
    out.transitions = tel.alerts.history();
    finish_pass(&mut p, &out, &tel);
    (p, out)
}

/// The full-rebuild analysis of one window over the layers' public
/// functions: Jaccard + Louvain roles, the segmentation they induce, and the
/// port-scoped rules learned from the window's records.
fn rebuild_digest(input: &Input, g: &CommGraph, records: &[ConnSummary]) -> Result<u64, String> {
    let method = SegmentationMethod::JaccardLouvain { min_score: MIN_SCORE };
    let roles = infer_roles_with(g, &method, Parallelism::default());
    let segmentation = Segmentation::from_inference(g, &roles, |ip| input.monitored.contains(&ip))
        .map_err(|e| e.to_string())?;
    let policy = SegmentPolicy::learn(records, &segmentation, PORT_SCOPED);
    Ok(analysis_digest(&WindowAnalysis {
        window_start: g.window_start(),
        roles,
        segmentation,
        policy,
    }))
}

/// The reference from the oracles: monitor verdicts, baseline and alert
/// transitions from the decomposed loop, graphs from one `GraphBuilder` per
/// window, dirty sets from `graph::diff::dirty_nodes`, and each window's
/// roles, segments and rules from the full rebuild.
pub fn reference(input: &Input) -> Result<Vec<WindowDigest>, String> {
    let (_, mut out) =
        decomposed(input, telemetry(input)?, Instant::now(), &mut Tracer::new(false), false);
    let mut prev: Option<CommGraph> = None;
    for (w, records) in &input.windows {
        let mut b =
            GraphBuilder::new(Facet::Ip, *w, WINDOW_LEN).with_monitored(input.monitored.clone());
        b.add_all(records);
        let g = b.finish();
        let dirty = match &prev {
            Some(p) => dirty_nodes(p, &g),
            None => g.nodes().to_vec(),
        };
        if let Some(entry) = out.windows.get_mut(w) {
            entry.0 = graph_digest(&g, &dirty);
            entry.1 = rebuild_digest(input, &g, records)?;
        }
        prev = Some(g);
    }
    Ok(out.digests())
}
