//! `tenant_faults`: more tenants than cores, each its own small cluster and
//! seed, whose host agents flush through a faulty delivery fabric
//! (`cloudsim::net`: latency jitter, loss, duplication, and a crash with
//! replay, a partition and a clock skew). The fabric belongs to the
//! generator: its deliveries are computed up front, then replayed into
//! `ShardedEngine::ingest_sequenced`, one fabric tick per closed-loop step.
//! Each step also scrapes the registry into the TSDB and evaluates the
//! alert pack once; `finish()` ends the pass.
//!
//! Window latency: from the start of the ingest call that delivers the
//! tenant's first fresh record past the window's end until `finish()`
//! returns (the front door emits windows only then).

use crate::digest::{Digest, WindowDigest};
use crate::gen::{self, Batch};
use crate::timed::Timed;
use crate::trace::Tracer;
use crate::Pass;
use commgraph::analytics::{EngineConfig, ShardedConfig, ShardedEngine};
use commgraph::cloudsim::net::{CrashMode, FaultEvent, FaultScript, NetConfig, NetSim};
use commgraph::cloudsim::{ClusterPreset, Simulator};
use commgraph::flowlog::record::ConnSummary;
use commgraph::graph::{Facet, GraphBuilder};
use commgraph::obs::alert::query_pack;
use commgraph::obs::{AlertEngine, Obs, RecordingRule, Registry, Scraper, Tsdb, TsdbConfig};
use std::collections::{BTreeMap, BTreeSet, HashSet};
use std::net::Ipv4Addr;
use std::sync::Arc;
use std::time::Instant;

/// Window length of every tenant's engine: one minute, so every tick
/// closes windows and the retained per-window state is the memory driver.
pub const WINDOW_LEN: u64 = 60;
/// Shard slots of the front door.
const SHARDS: usize = 2;
/// Front-door constructions (with onboarding) per pass (each one is a
/// `setup_s` sample).
const SETUP_REPS: usize = 9;
/// Fabric ticks stepped after the last offered minute before draining.
const TAIL_TICKS: u64 = 4;

/// Size of the generated fleet.
#[derive(Debug, Clone, Copy)]
pub struct Size {
    /// Tenants; even ones run µserviceBench, odd ones a small K8s PaaS.
    pub tenants: usize,
    /// Topology scale of the µserviceBench tenants.
    pub microservice_scale: f64,
    /// Topology scale of the K8s PaaS tenants.
    pub paas_scale: f64,
    /// Simulated minutes (= fabric ticks with offers).
    pub minutes: u64,
    /// Jitter, loss, duplication and the fault script; `false` gives the
    /// ideal fabric (tests compare it with direct ingest).
    pub faults: bool,
}

/// The size runs use.
pub const SIZE: Size =
    Size { tenants: 4, microservice_scale: 1.0, paas_scale: 0.5, minutes: 40, faults: true };

/// One delivered packet, already addressed to its subscription.
#[derive(Debug, Clone)]
pub struct Packet {
    /// Tenant index.
    pub tenant: usize,
    /// Reporting agent.
    pub source: String,
    /// The agent's flush sequence number.
    pub seq: u64,
    /// Records carried.
    pub records: Vec<ConnSummary>,
    /// First arrival of this `(tenant, source, seq)`; re-deliveries are not.
    pub fresh: bool,
}

/// Generated input of one run.
#[derive(Debug)]
pub struct Input {
    /// Fleet size.
    pub size: Size,
    /// Subscription id of each tenant.
    pub names: Vec<String>,
    /// Deliveries per fabric tick.
    pub ticks: Vec<Vec<Packet>>,
    /// Union of the tenants' inventories (the provider's vantage set).
    pub monitored: HashSet<Ipv4Addr>,
    /// (tenant, window start) → (tick, packet index) of the delivery that
    /// closes it.
    pub closing: BTreeMap<(usize, u64), Option<(usize, usize)>>,
    /// Expected records per tick, for sizing the alert pack's burn rates.
    pub records_per_tick: f64,
}

/// A crash with replay, a partition and a clock skew, on hosts picked from
/// the tenant's own reporting agents.
fn fault_script(hosts: &[Ipv4Addr]) -> FaultScript {
    let pick = |i: usize| hosts[i % hosts.len()];
    FaultScript::new()
        .at(5, FaultEvent::Crash { host: pick(0), down_ticks: 3, mode: CrashMode::ReplayLastFlush })
        .at(11, FaultEvent::Partition { hosts: vec![pick(1), pick(2)], heal_after_ticks: 4 })
        .at(17, FaultEvent::SkewClock { host: pick(3), skew_secs: 45 })
        .at(23, FaultEvent::DelayFlush { host: pick(4), ticks: 3 })
}

/// Tenant `t`'s simulator and its inventory.
pub fn tenant_simulator(
    seed: u64,
    t: usize,
    size: Size,
) -> Result<(Simulator, HashSet<Ipv4Addr>), String> {
    let (preset, scale) = if t.is_multiple_of(2) {
        (ClusterPreset::MicroserviceBench, size.microservice_scale)
    } else {
        (ClusterPreset::K8sPaas, size.paas_scale)
    };
    let mut cfg = preset.default_sim_config();
    cfg.seed = gen::mix(seed, 0x7e00 + t as u64);
    let sim = Simulator::new(preset.topology_scaled(scale), cfg).map_err(|e| e.to_string())?;
    let inventory = gen::monitored_of(&sim);
    Ok((sim, inventory))
}

/// Generate the fleet's deliveries for `seed`.
pub fn generate(seed: u64, size: Size) -> Result<Input, String> {
    let mut sims = Vec::new();
    let mut nets = Vec::new();
    let mut monitored = HashSet::new();
    let mut names = Vec::new();
    for t in 0..size.tenants {
        let (sim, inventory) = tenant_simulator(seed, t, size)?;
        let mut hosts: Vec<Ipv4Addr> = inventory.iter().copied().collect();
        hosts.sort_unstable();
        monitored.extend(inventory);
        let net = if size.faults {
            let cfg = NetConfig {
                seed: gen::mix(seed, 0x4e00 + t as u64),
                latency_ticks: (0, 2),
                drop_rate: 0.002,
                duplicate_rate: 0.02,
                flush_every: 1,
            };
            NetSim::new(cfg, fault_script(&hosts))
        } else {
            NetSim::new(NetConfig::clean(), FaultScript::new())
        };
        nets.push(net.map_err(|e| e.to_string())?);
        sims.push(sim);
        names.push(format!("tenant-{t:02}"));
    }

    let mut ticks: Vec<Vec<Packet>> = Vec::new();
    let mut seen: BTreeSet<(usize, String, u64)> = BTreeSet::new();
    let mut offered = 0usize;
    let total_ticks = size.minutes + TAIL_TICKS;
    for tick in 0..=total_ticks {
        let mut packets = Vec::new();
        for (t, (sim, net)) in sims.iter_mut().zip(nets.iter_mut()).enumerate() {
            let mut push = |d: &commgraph::cloudsim::net::Delivery| {
                let source = d.source.to_string();
                let fresh = seen.insert((t, source.clone(), d.seq));
                packets.push(Packet {
                    tenant: t,
                    source,
                    seq: d.seq,
                    records: d.records.clone(),
                    fresh,
                });
            };
            if tick < size.minutes {
                let batch: Batch = sim.step();
                offered += batch.len();
                net.offer(&batch);
            }
            if tick < total_ticks {
                net.step(&mut push);
            } else {
                net.drain(&mut push);
            }
        }
        ticks.push(packets);
    }

    let mut closing: BTreeMap<(usize, u64), Option<(usize, usize)>> = BTreeMap::new();
    let mut max_ts: BTreeMap<usize, u64> = BTreeMap::new();
    for (ti, packets) in ticks.iter().enumerate() {
        for (pi, p) in packets.iter().enumerate().filter(|(_, p)| p.fresh) {
            for r in &p.records {
                closing.entry((p.tenant, gen::window_of(r.ts, WINDOW_LEN))).or_insert(None);
                let m = max_ts.entry(p.tenant).or_insert(r.ts);
                *m = (*m).max(r.ts);
            }
            let m = max_ts.get(&p.tenant).copied().unwrap_or(0);
            for ((_, w), c) in closing.range_mut((p.tenant, 0)..=(p.tenant, u64::MAX)) {
                if c.is_none() && w + WINDOW_LEN <= m {
                    *c = Some((ti, pi));
                }
            }
        }
    }
    let records_per_tick = offered as f64 / size.minutes.max(1) as f64;
    Ok(Input { size, names, ticks, monitored, closing, records_per_tick })
}

/// Workload parameters for the result file.
pub fn params(input: &Input) -> serde_json::Value {
    let packets: usize = input.ticks.iter().map(Vec::len).sum();
    let delivered: usize = input.ticks.iter().flatten().map(|p| p.records.len()).sum();
    let fresh: usize =
        input.ticks.iter().flatten().filter(|p| p.fresh).map(|p| p.records.len()).sum();
    serde_json::json!({
        "tenants": input.size.tenants,
        "presets": "even tenants uServiceBench, odd tenants K8s PaaS",
        "microservice_scale": input.size.microservice_scale,
        "paas_scale": input.size.paas_scale,
        "minutes": input.size.minutes,
        "window_len_s": WINDOW_LEN,
        "shards": SHARDS,
        "engine_workers": 1,
        "fabric": if input.size.faults {
            "latency 0-2 ticks, drop 0.2%, duplicate 2%, crash+replay, partition, skew, delayed flush"
        } else {
            "clean"
        },
        "ticks": input.ticks.len(),
        "packets": packets,
        "records_delivered": delivered,
        "records_fresh": fresh,
    })
}

/// The system under test for one pass: front door, registry, TSDB,
/// scraper and alert engine.
struct System {
    front: ShardedEngine,
    scraper: Scraper,
    alerts: AlertEngine,
    store: Arc<Tsdb>,
}

fn build(input: &Input, shards: usize) -> Result<System, String> {
    let registry = Arc::new(Registry::new());
    let obs = Obs::new(registry.clone());
    let mut front = ShardedEngine::new(ShardedConfig {
        shards,
        engine: EngineConfig {
            workers: 1,
            facet: Facet::Ip,
            window_len: WINDOW_LEN,
            monitored: Some(input.monitored.clone()),
            obs: obs.clone(),
            ..EngineConfig::default()
        },
        obs: obs.clone(),
        ..ShardedConfig::default()
    })
    .map_err(|e| e.to_string())?;
    for name in &input.names {
        front.ingest(name, &[]).map_err(|e| e.to_string())?;
    }
    let store = Arc::new(Tsdb::new(TsdbConfig::default()));
    let scraper = Scraper::new(registry, store.clone());
    scraper.add_recording_rule(
        RecordingRule::new(
            "fleet:records:delta1",
            "sum(delta(commgraph_subscription_records_total[1]))",
        )
        .map_err(|e| e.to_string())?,
    );
    scraper.add_recording_rule(
        RecordingRule::new(
            "fleet:dedup_dropped:delta1",
            "sum(delta(commgraph_subscription_dedup_dropped_records_total[1]))",
        )
        .map_err(|e| e.to_string())?,
    );
    let alerts = AlertEngine::new(obs);
    alerts.add_rules(query_pack(input.records_per_tick).map_err(|e| e.to_string())?);
    Ok(System { front, scraper, alerts, store })
}

fn alerts_digest(alerts: &AlertEngine) -> WindowDigest {
    let mut d = Digest::default();
    for t in alerts.history() {
        d.u64(t.tick).str(&t.rule).str(t.from.as_str()).str(t.to.as_str());
        d.f64(t.value.unwrap_or(f64::NAN));
    }
    WindowDigest { key: "alerts".into(), digest: d.finish() }
}

fn stats_digest(name: &str, records_in: u64, kept: u64, edge_entries: usize) -> WindowDigest {
    let d = *Digest::default().u64(records_in).u64(kept).u64(edge_entries as u64);
    WindowDigest { key: format!("{name}/stats"), digest: d.finish() }
}

/// The reference from the oracles: per tenant, a `GraphBuilder` per window
/// over the first arrival of every packet (exactly-once delivery), and the
/// alert transitions of a one-shard front door fed the same packets.
pub fn reference(input: &Input) -> Result<Vec<WindowDigest>, String> {
    let mut out = Vec::new();
    for (t, name) in input.names.iter().enumerate() {
        let records: Vec<ConnSummary> = input
            .ticks
            .iter()
            .flatten()
            .filter(|p| p.tenant == t && p.fresh)
            .flat_map(|p| p.records.iter().copied())
            .collect();
        let (mut records_in, mut kept, mut edges) = (0u64, 0u64, 0usize);
        for (w, recs) in gen::by_window(&[records], WINDOW_LEN) {
            let mut b =
                GraphBuilder::new(Facet::Ip, w, WINDOW_LEN).with_monitored(input.monitored.clone());
            b.add_all(&recs);
            let (seen, k) = b.record_counts();
            records_in += seen;
            kept += k;
            let g = b.finish();
            edges += g.edge_count();
            out.push(WindowDigest {
                key: format!("{name}/{w}"),
                digest: Digest::default().graph(&g).finish(),
            });
        }
        out.push(stats_digest(name, records_in, kept, edges));
    }
    let mut one = build(input, 1)?;
    for (i, packets) in input.ticks.iter().enumerate() {
        for p in packets {
            one.front
                .ingest_sequenced(&input.names[p.tenant], &p.source, p.seq, &p.records)
                .map_err(|e| e.to_string())?;
        }
        one.scraper.scrape(i as u64 + 1);
        one.alerts.evaluate(i as u64 + 1, &one.store);
    }
    one.front.finish().map_err(|e| e.to_string())?;
    out.push(alerts_digest(&one.alerts));
    Ok(out)
}

/// One pass: construct and onboard, replay every tick, finish.
pub fn pass(input: &Input, tr: &mut Tracer) -> Pass {
    let mut p = Pass::default();
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut system = None;
    for _ in 0..SETUP_REPS {
        let open = tr.begin("front.onboard", "");
        let t0 = Instant::now();
        let s = build(input, SHARDS);
        setups.push(t0.elapsed().as_secs_f64());
        tr.end(open);
        if let Some(Ok(old)) = system.replace(s) {
            old.front.finish().ok();
        }
    }
    p.setup_s = setups;
    let Some(Ok(mut sys)) = system else {
        p.attempted = 1;
        p.failed = 1;
        return p;
    };

    let mut timed = Timed::start();
    let phase = tr.begin("bench.timed", "");
    let mut call_start: Vec<Vec<Instant>> = Vec::with_capacity(input.ticks.len());
    let (mut delivered, mut dropped) = (0u64, 0u64);
    for (i, packets) in input.ticks.iter().enumerate() {
        let tick = i as u64 + 1;
        let id = tick.to_string();
        let ((starts, results), _, _) = timed.step(|| {
            let step = tr.begin("bench.step", &id);
            let mut starts = Vec::with_capacity(packets.len());
            let mut results = Vec::with_capacity(packets.len());
            for pk in packets {
                starts.push(Instant::now());
                let name = &input.names[pk.tenant];
                results.push(tr.span("front.ingest", name, || {
                    sys.front.ingest_sequenced(name, &pk.source, pk.seq, &pk.records)
                }));
            }
            tr.span("obs.scrape", &id, || sys.scraper.scrape(tick));
            tr.span("obs.alert_eval", &id, || sys.alerts.evaluate(tick, &sys.store));
            tr.end(step);
            (starts, results)
        });
        call_start.push(starts);
        for (pk, r) in packets.iter().zip(results) {
            p.attempted += 1;
            p.records += pk.records.len() as u64;
            delivered += pk.records.len() as u64;
            match r {
                Ok(true) => {}
                Ok(false) => dropped += pk.records.len() as u64,
                Err(_) => p.failed += 1,
            }
        }
    }
    let tsdb_series = sys.store.series_count();
    let tsdb_bytes = sys.store.memory_bytes();
    let alerts = alerts_digest(&sys.alerts);
    let (res, finish_start, finish_end) =
        timed.step_watched(|| tr.span("front.finish", "", || sys.front.finish()));
    tr.end(phase);
    p.timed = timed.finish();
    p.attempted += 1;

    let (mut edges, mut windows) = (0usize, 0usize);
    match res {
        Ok((reports, _)) => {
            for r in &reports {
                let Some(tenant) = input.names.iter().position(|n| *n == r.subscription) else {
                    p.failed += 1;
                    continue;
                };
                for g in &r.graphs {
                    p.attempted += 1;
                    edges += g.edge_count();
                    windows += 1;
                    let start =
                        match input.closing.get(&(tenant, g.window_start())).copied().flatten() {
                            Some((ti, pi)) => call_start[ti][pi],
                            None => finish_start,
                        };
                    p.latencies_ms.push((finish_end - start).as_secs_f64() * 1e3);
                    p.digests.push(WindowDigest {
                        key: format!("{}/{}", r.subscription, g.window_start()),
                        digest: Digest::default().graph(g).finish(),
                    });
                }
                let s = &r.stats;
                p.digests.push(stats_digest(
                    &r.subscription,
                    s.records_in,
                    s.records_kept,
                    s.edge_entries,
                ));
            }
        }
        Err(_) => p.failed += 1,
    }
    p.digests.push(alerts);
    p.counters.insert("front.redelivery_drop_share", dropped as f64 / delivered.max(1) as f64);
    p.counters.insert("proc.threads_peak", p.timed.threads_peak as f64);
    p.counters.insert("graph.edges_per_window", edges as f64 / windows.max(1) as f64);
    p.counters.insert("obs.tsdb_series", tsdb_series as f64);
    p.counters.insert("obs.tsdb_bytes", tsdb_bytes as f64);
    p
}
