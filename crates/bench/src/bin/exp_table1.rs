//! Experiment T1 — regenerate Table 1: cluster scale and graph sizes.
//!
//! For each of the four reference clusters, simulate one hour of telemetry
//! and report: monitored IPs, IP-graph size after the paper's 0.1% heavy-
//! hitter collapse, IP-port-graph size (exact when small, HyperLogLog-
//! estimated when materializing would need gigabytes), and records/minute.
//!
//! Usage: `exp_table1 [--scale S] [--minutes M] [--skip-kquery true]`
//! Full scale + 60 minutes reproduces the paper's setting; the KQuery row
//! streams ~2M records/min, so give it a few minutes of wall clock.

use benchkit::{arg_f64, arg_parsed, arg_u64, fmt_count, simulate_streaming, write_artifact};
use cloudsim::ClusterPreset;
use commgraph_graph::cardinality::GraphCardinality;
use commgraph_graph::collapse::{NicLocalSurvivors, PAPER_THRESHOLD};
use commgraph_graph::{Facet, GraphBuilder};
use serde_json::json;

struct Row {
    cluster: &'static str,
    monitored: usize,
    ip_nodes: usize,
    ip_edges: usize,
    ipport_nodes: f64,
    ipport_edges: f64,
    ipport_exact: bool,
    records_per_min: f64,
}

fn main() {
    let scale = arg_f64("scale", 1.0);
    let minutes = arg_u64("minutes", 60);
    let skip_kquery = arg_parsed::<bool>("skip-kquery", false);

    let mut rows = Vec::new();
    let mut artifacts = Vec::new();
    for preset in ClusterPreset::all() {
        if preset == ClusterPreset::KQuery && skip_kquery {
            continue;
        }
        eprintln!("[table1] simulating {} at scale {scale} for {minutes} min …", preset.name());
        // Stream the records: KQuery at full scale is ~140M records/hour.
        let mut ip_builder = GraphBuilder::new(Facet::Ip, 0, minutes * 60);
        let mut ipport_exact: Option<GraphBuilder> = if preset_is_small(preset) {
            Some(GraphBuilder::new(Facet::IpPort, 0, minutes * 60))
        } else {
            None
        };
        let mut ipport_hll = GraphCardinality::new(Facet::IpPort);
        // The 0.1% heavy-hitter rule, applied per reporting NIC at the
        // telemetry's one-minute cadence (see DESIGN.md): a remote IP is
        // kept if it reached the threshold share of any single VM's minute
        // of bytes, packets, or connections.
        let mut survivors = NicLocalSurvivors::new(Facet::Ip, PAPER_THRESHOLD);
        let mut records = 0u64;
        let (truth, monitored) = simulate_streaming(preset, scale, minutes, |_, batch| {
            records += batch.len() as u64;
            survivors.add_interval(batch);
            for r in batch {
                ip_builder.add(r);
                ipport_hll.add(r);
                if let Some(b) = ipport_exact.as_mut() {
                    b.add(r);
                }
            }
        });
        let _ = truth;

        // Note: the builder here deliberately skips vantage dedup — Table 1
        // counts collected records and graph extents as the provider sees
        // them; dedup only affects traffic *counters*, not node/edge sets.
        // Monitored resources are always kept: the provider knows the
        // subscription inventory and never folds its own VMs into OTHER.
        let raw_ip = ip_builder.finish();
        let collapsed = commgraph_graph::collapse::collapse(&raw_ip, 1.0, |n| {
            survivors.is_survivor(n) || n.ip().map(|ip| monitored.contains(&ip)).unwrap_or(false)
        });
        let (ipn, ipe, exact) = match ipport_exact {
            Some(b) => {
                let g = b.finish();
                (g.node_count() as f64, g.edge_count() as f64, true)
            }
            None => (ipport_hll.node_estimate(), ipport_hll.edge_estimate(), false),
        };
        rows.push(Row {
            cluster: preset.name(),
            monitored: monitored.len(),
            ip_nodes: collapsed.node_count(),
            ip_edges: collapsed.edge_count(),
            ipport_nodes: ipn,
            ipport_edges: ipe,
            ipport_exact: exact,
            records_per_min: records as f64 / minutes as f64,
        });
        artifacts.push(json!({
            "cluster": preset.name(),
            "scale": scale,
            "minutes": minutes,
            "monitored_ips": monitored.len(),
            "paper_monitored_ips": preset.paper_monitored_ips(),
            "ip_graph": {"nodes": collapsed.node_count(), "edges": collapsed.edge_count(),
                          "nodes_uncollapsed": raw_ip.node_count(),
                          "edges_uncollapsed": raw_ip.edge_count()},
            "ipport_graph": {"nodes": ipn, "edges": ipe, "exact": exact},
            "records_per_min": records as f64 / minutes as f64,
            "paper_records_per_min": preset.paper_records_per_min(),
        }));
    }

    println!("\nTable 1 — cluster scale and communication-graph sizes");
    println!(
        "{:<16} {:>10} {:>22} {:>24} {:>14}",
        "Cluster", "#IPs mon.", "IP graph nodes(edges)", "IP-port nodes(edges)", "#Records/min"
    );
    for r in &rows {
        let tilde = if r.ipport_exact { "" } else { "~" };
        println!(
            "{:<16} {:>10} {:>22} {:>24} {:>14}",
            r.cluster,
            r.monitored,
            format!("{} ({})", fmt_count(r.ip_nodes as f64), fmt_count(r.ip_edges as f64)),
            format!("{tilde}{} ({tilde}{})", fmt_count(r.ipport_nodes), fmt_count(r.ipport_edges)),
            fmt_count(r.records_per_min),
        );
    }
    println!("\npaper: Portal 4 / 4K(5K) / 13K(13K) / 332 ; uSvc 16 / 33(268) / 0.2M(1M) / 48K");
    println!(
        "       K8s 390 / 541(12K) / 1.3M(3M) / 68K ; KQuery 1400 / 6K(1.3M) / 12M(79M) / 2.3M"
    );

    let path = write_artifact(
        "table1",
        "table1.json",
        &serde_json::to_string_pretty(&artifacts).expect("serializable"),
    );
    eprintln!("[table1] artifact: {}", path.display());
}

fn preset_is_small(p: ClusterPreset) -> bool {
    matches!(p, ClusterPreset::Portal | ClusterPreset::MicroserviceBench)
}
