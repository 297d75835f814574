//! One run of one workload: generate the input, derive the reference from
//! the oracles, drive passes until the time budget is spent, check every
//! pass's output, and fold the samples into metrics.

use crate::digest::{self, WindowDigest};
use crate::trace::Tracer;
use crate::{kquery, median, paas, tail, tenants, Pass, DEFAULT_SEED};
use std::collections::BTreeMap;
use std::time::Instant;

/// The named workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Analysis-heavy security loop over one K8s PaaS subscription, with
    /// the incremental analyzer.
    PaasMonitor,
    /// The same loop with the full-rebuild analyzer.
    PaasRebuild,
    /// Ingest + materialization of the KQuery shuffle clique.
    KqueryGraphs,
    /// Many small tenants over a faulty delivery fabric.
    TenantFaults,
}

impl Workload {
    /// Every workload, in the order the benchmark lists them.
    pub const ALL: [Workload; 4] = [
        Workload::PaasMonitor,
        Workload::PaasRebuild,
        Workload::KqueryGraphs,
        Workload::TenantFaults,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaasMonitor => "paas_monitor",
            Workload::PaasRebuild => "paas_rebuild",
            Workload::KqueryGraphs => "kquery_graphs",
            Workload::TenantFaults => "tenant_faults",
        }
    }

    /// Look a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The digests pinned for [`DEFAULT_SEED`].
    pub fn pinned(self) -> &'static str {
        match self {
            Workload::PaasMonitor => include_str!("../reference/paas_monitor.txt"),
            Workload::PaasRebuild => include_str!("../reference/paas_rebuild.txt"),
            Workload::KqueryGraphs => include_str!("../reference/kquery_graphs.txt"),
            Workload::TenantFaults => include_str!("../reference/tenant_faults.txt"),
        }
    }
}

/// End-to-end metrics: name, unit, whether lower is better.
pub const END_TO_END: [(&str, &str, bool); 7] = [
    ("records_per_s", "1/s", false),
    ("records_per_cpu_s", "1/s", false),
    ("window_latency_ms_p50", "ms", true),
    ("window_latency_ms_tail", "ms", true),
    ("setup_s", "s", true),
    ("peak_mem_mb", "MiB", true),
    ("ok_ops_share", "1", false),
];

/// Per-layer metrics of the traced run: name and unit (`BENCHMARK.json`
/// gives each one's direction). Names ending in `_s` are inclusive span
/// seconds per pass.
pub const PER_LAYER: [(&str, &str); 30] = [
    ("engine.ingest_s", "s"),
    ("engine.finish_s", "s"),
    ("engine.edge_entries", "count"),
    ("engine.kept_share", "1"),
    ("front.ingest_s", "s"),
    ("front.onboard_s", "s"),
    ("front.finish_s", "s"),
    ("front.redelivery_drop_share", "1"),
    ("proc.threads_peak", "count"),
    ("graph.build_s", "s"),
    ("graph.collapse_s", "s"),
    ("graph.diff_s", "s"),
    ("graph.dirty_share", "1"),
    ("graph.edges_per_window", "count"),
    ("roles.similarity_s", "s"),
    ("roles.cluster_s", "s"),
    ("segment.policy_s", "s"),
    ("segment.violation_check_s", "s"),
    ("segment.violations", "count"),
    ("pca.fit_s", "s"),
    ("pca.score_s", "s"),
    ("monitor.close_s", "s"),
    ("monitor.baseline_s", "s"),
    ("analyzer.analyze_s", "s"),
    ("obs.scrape_s", "s"),
    ("obs.alert_eval_s", "s"),
    ("obs.tsdb_series", "count"),
    ("obs.tsdb_bytes", "B"),
    ("trace.overhead_share", "1"),
    ("trace.unattributed_share", "1"),
];

/// Fewest passes a run makes, traced or not, whatever the budget.
const MIN_PASSES: usize = 3;
/// Wall-clock cap on a run's passes, so a run ends well inside three
/// minutes even on a slow host.
const MAX_PASS_WALL_S: f64 = 110.0;

/// What a run produced: the result line's fields plus the full record for
/// the result file.
#[derive(Debug)]
pub struct Outcome {
    /// Every output matched its reference.
    pub correct: bool,
    /// Operations attempted over all passes.
    pub attempted: u64,
    /// Operations that failed (returned `Err` or produced a wrong output).
    pub failed: u64,
    /// Metric name → (value, unit).
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Lines for the human-readable summary.
    pub notes: Vec<String>,
    /// The result file's body.
    pub record: serde_json::Value,
    /// Chrome-trace JSON of the traced passes.
    pub chrome_trace: Option<String>,
}

/// Drive passes until `budget_s` of timed wall time is spent (and at least
/// [`MIN_PASSES`]).
fn drive(input: &dyn Input, tracer: &mut Tracer, decomposed: bool, budget_s: f64) -> Vec<Pass> {
    let started = Instant::now();
    let mut passes: Vec<Pass> = Vec::new();
    let mut timed_s = 0.0;
    while passes.len() < MIN_PASSES
        || (timed_s < budget_s && started.elapsed().as_secs_f64() < MAX_PASS_WALL_S)
    {
        let outer = tracer.begin("bench.pass", &passes.len().to_string());
        let p = input.pass(tracer, decomposed);
        tracer.end(outer);
        timed_s += p.timed.wall_s;
        passes.push(p);
    }
    passes
}

/// Check every pass's digests against the references; returns failed
/// operations (program errors plus wrong windows) and the first mismatches.
fn check(label: &str, passes: &[Pass], references: &[&[WindowDigest]]) -> (u64, u64, Vec<String>) {
    let (mut attempted, mut failed, mut notes) = (0u64, 0u64, Vec::new());
    for (i, p) in passes.iter().enumerate() {
        let mut bad: Vec<String> = Vec::new();
        for reference in references {
            for m in digest::mismatches(&p.digests, reference) {
                if !bad.contains(&m) {
                    bad.push(m);
                }
            }
        }
        attempted += p.attempted;
        failed += p.failed + bad.len() as u64;
        for m in bad {
            if notes.len() < 20 {
                notes.push(format!("{label} pass {i}: {m}"));
            }
        }
    }
    (attempted, failed, notes)
}

fn pass_record(p: &Pass) -> serde_json::Value {
    serde_json::json!({
        "setup_s": p.setup_s.clone(),
        "records": p.records,
        "wall_s": p.timed.wall_s,
        "cpu_s": p.timed.cpu_s,
        "peak_mem_mb_in_process": p.timed.peak_mem_mb,
        "threads_peak": p.timed.threads_peak,
        "latencies_ms": p.latencies_ms.clone(),
        "attempted": p.attempted,
        "failed": p.failed,
        "counters": p.counters.iter().map(|(k, v)| (k.to_string(), serde_json::json!(v))).collect::<serde_json::Map>(),
    })
}

/// A generated workload input and what a run does with it.
pub trait Input {
    /// Workload parameters for the result file.
    fn params(&self) -> serde_json::Value;
    /// One pass over the input. With `decomposed` the pass drives the loop
    /// the traced run uses, where the workload's traced run has a loop of
    /// its own (`paas`); both halves of a traced run drive it, so the
    /// traced passes are compared with untraced ones of the same calls.
    fn pass(&self, tr: &mut Tracer, decomposed: bool) -> Pass;
    /// Reference digests from the oracles.
    fn reference(&self) -> Result<Vec<WindowDigest>, String>;
}

impl Input for paas::Input {
    fn params(&self) -> serde_json::Value {
        paas::params(self)
    }
    fn pass(&self, tr: &mut Tracer, decomposed: bool) -> Pass {
        paas::pass(self, tr, decomposed)
    }
    fn reference(&self) -> Result<Vec<WindowDigest>, String> {
        paas::reference(self)
    }
}

macro_rules! impl_input {
    ($m:ident) => {
        impl Input for $m::Input {
            fn params(&self) -> serde_json::Value {
                $m::params(self)
            }
            fn pass(&self, tr: &mut Tracer, _decomposed: bool) -> Pass {
                $m::pass(self, tr)
            }
            fn reference(&self) -> Result<Vec<WindowDigest>, String> {
                $m::reference(self)
            }
        }
    };
}
impl_input!(kquery);
impl_input!(tenants);

impl Workload {
    /// Generate the workload's input at `seed`, at the size runs use.
    pub fn generate(self, seed: u64) -> Result<Box<dyn Input>, String> {
        Ok(match self {
            Workload::PaasMonitor => Box::new(paas::generate(seed, paas::SIZE)?),
            Workload::PaasRebuild => Box::new(paas::generate(seed, paas::SIZE_REBUILD)?),
            Workload::KqueryGraphs => Box::new(kquery::generate(seed, kquery::SIZE)?),
            Workload::TenantFaults => Box::new(tenants::generate(seed, tenants::SIZE)?),
        })
    }
}

/// Generate `workload`'s input at `seed`, run one untraced pass, and
/// return its timed phase's resident high-water mark above the RSS before
/// it, in MiB.
pub fn first_pass_peak_mb(workload: Workload, seed: u64) -> Result<f64, String> {
    Ok(workload.generate(seed)?.pass(&mut Tracer::new(false), false).timed.peak_mem_mb)
}

/// Run `workload` at `seed` for `seconds` of timed work; `trace` selects
/// the traced run (per-layer metrics) over the plain one (end-to-end).
/// `peak_mem_mb` is measured by [`first_pass_peak_mb`] in a process of its
/// own and passed in. The reference is derived after the passes, so its
/// work does not share the passes' heap or caches.
pub fn run(
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    peak_mem_mb: Option<f64>,
) -> Result<Outcome, String> {
    let gen_start = Instant::now();
    let input = workload.generate(seed)?;
    let params = input.params();
    let prepare_s = gen_start.elapsed().as_secs_f64();

    let budget = if trace { seconds / 2.0 } else { seconds };
    let plain = drive(&*input, &mut Tracer::new(false), trace, budget);
    let mut tracer = Tracer::new(true);
    let traced = trace.then(|| drive(&*input, &mut tracer, true, budget));

    let reference = input.reference()?;
    let pinned = if seed == DEFAULT_SEED {
        Some(digest::parse(workload.pinned()).map_err(|e| format!("pinned reference: {e}"))?)
    } else {
        None
    };
    let mut references: Vec<&[WindowDigest]> = vec![&reference];
    if let Some(p) = &pinned {
        references.push(p);
    }
    let (mut attempted, mut failed, mut mismatches) = check("plain", &plain, &references);
    if let Some(t) = &traced {
        let (a, f, m) = check("traced", t, &references);
        attempted += a;
        failed += f;
        mismatches.extend(m);
    }
    let correct = failed == 0;

    let mut notes = Vec::new();
    let mut metrics: Vec<(&'static str, f64, &'static str)> = Vec::new();
    let ps = &plain;
    let records = ps.iter().map(|p| p.records as f64).sum::<f64>();
    let latencies: Vec<f64> = ps.iter().flat_map(|p| p.latencies_ms.iter().copied()).collect();
    let (tail_p, tail_v) =
        tail(&latencies).unwrap_or((100, latencies.iter().copied().fold(0.0, f64::max)));
    let e2e: BTreeMap<&str, f64> = [
        ("records_per_s", records / ps.iter().map(|p| p.timed.wall_s).sum::<f64>().max(1e-12)),
        ("records_per_cpu_s", records / ps.iter().map(|p| p.timed.cpu_s).sum::<f64>().max(1e-12)),
        ("window_latency_ms_p50", median(&latencies)),
        ("window_latency_ms_tail", tail_v),
        ("setup_s", median(&ps.iter().flat_map(|p| p.setup_s.iter().copied()).collect::<Vec<_>>())),
        ("peak_mem_mb", peak_mem_mb.unwrap_or(0.0)),
        ("ok_ops_share", (attempted - failed.min(attempted)) as f64 / attempted.max(1) as f64),
    ]
    .into_iter()
    .collect();
    notes.push(format!(
        "window_latency_ms_tail is p{tail_p} over {} windows ({} passes)",
        latencies.len(),
        ps.len()
    ));

    let mut layers_record = serde_json::Value::Null;
    let mut chrome_trace = None;
    let mut per_layer: BTreeMap<&str, f64> = BTreeMap::new();
    if let Some(t) = &traced {
        let n = t.len().max(1) as f64;
        let by_name = tracer.by_name();
        for (name, _) in PER_LAYER {
            let value = if let Some(span) = name.strip_suffix("_s") {
                by_name.get(span).map_or(0.0, |(incl, _, _)| incl / n)
            } else {
                median(&t.iter().filter_map(|p| p.counters.get(name).copied()).collect::<Vec<_>>())
            };
            per_layer.insert(name, value);
        }
        let plain_wall = median(&ps.iter().map(|p| p.timed.wall_s).collect::<Vec<_>>());
        let traced_wall = median(&t.iter().map(|p| p.timed.wall_s).collect::<Vec<_>>());
        per_layer.insert("trace.overhead_share", traced_wall / plain_wall.max(1e-12) - 1.0);
        let (timed_s, attributed_s) = tracer.timed_attribution();
        per_layer.insert("trace.unattributed_share", 1.0 - attributed_s / timed_s.max(1e-12));
        let table: serde_json::Map = tracer
            .by_layer()
            .into_iter()
            .map(|(layer, (own, count))| {
                notes
                    .push(format!("layer {layer:<24} self {:>9.4} s/pass  spans {count}", own / n));
                (
                    layer.to_string(),
                    serde_json::json!({ "self_s_per_pass": own / n, "spans": count }),
                )
            })
            .collect();
        let spans: serde_json::Map = by_name
            .iter()
            .map(|(name, (incl, own, count))| {
                (
                    name.to_string(),
                    serde_json::json!({ "inclusive_s_per_pass": incl / n, "self_s_per_pass": own / n, "count": count }),
                )
            })
            .collect();
        layers_record = serde_json::json!({
            "passes": t.len(),
            "timed_s": timed_s,
            "attributed_s": attributed_s,
            "by_layer": table,
            "by_span": spans,
            "raw_passes": t.iter().map(pass_record).collect::<Vec<_>>(),
        });
        match tracer.chrome_json() {
            Ok(t) => chrome_trace = Some(t),
            Err(e) => notes.push(format!("chrome trace not written: {e}")),
        }
    }

    if trace {
        for (name, unit) in PER_LAYER {
            metrics.push((name, per_layer.get(name).copied().unwrap_or(0.0), unit));
        }
    } else {
        for (name, unit, _) in END_TO_END {
            metrics.push((name, e2e[name], unit));
        }
    }
    for m in &mismatches {
        notes.push(format!("MISMATCH {m}"));
    }

    let record = serde_json::json!({
        "workload": workload.name(),
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "params": params,
        "prepare_s": prepare_s,
        "reference": {
            "windows": reference.len(),
            "pinned_checked": pinned.is_some(),
            "mismatches": mismatches,
        },
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "end_to_end": e2e.iter().map(|(k, v)| (k.to_string(), serde_json::json!(v))).collect::<serde_json::Map>(),
        "window_latency_tail": { "percentile": tail_p, "samples": latencies.len() },
        "peak_mem_mb_in_process_median": median(&ps.iter().map(|p| p.timed.peak_mem_mb).collect::<Vec<_>>()),
        "per_layer": per_layer.iter().map(|(k, v)| (k.to_string(), serde_json::json!(v))).collect::<serde_json::Map>(),
        "passes": ps.iter().map(pass_record).collect::<Vec<_>>(),
        "layers": layers_record,
    });
    Ok(Outcome { correct, attempted, failed, metrics, notes, record, chrome_trace })
}
