//! The benchmark's output check, re-derived on a second seed from the
//! existing oracles at small sizes, and shown to catch a perturbed output.
//! Run with `cargo test --release` from this directory; the pinned-reference
//! test generates the full default-seed inputs.

use commgraph::flowlog::record::ConnSummary;
use commgraph::graph::{Facet, GraphBuilder};
use commgraph_perfbench::digest::{self, Digest, WindowDigest};
use commgraph_perfbench::runner::Workload;
use commgraph_perfbench::trace::Tracer;
use commgraph_perfbench::{gen, kquery, paas, tenants, DEFAULT_SEED};

const SEED: u64 = 2;

fn assert_matches(label: &str, got: &[WindowDigest], want: &[WindowDigest]) {
    let bad = digest::mismatches(got, want);
    assert!(bad.is_empty(), "{label}: {bad:?}");
    assert!(!want.is_empty(), "{label}: empty reference");
}

#[test]
fn stream_engine_matches_the_graph_builder_oracle() {
    let input = kquery::generate(SEED, kquery::Size { scale: 0.05, minutes: 6 }).unwrap();
    let reference = kquery::reference(&input).unwrap();
    let pass = kquery::pass(&input, &mut Tracer::new(false));
    assert_eq!(pass.failed, 0);
    assert_matches("untraced", &pass.digests, &reference);
    let traced = kquery::pass(&input, &mut Tracer::new(true));
    assert_matches("traced", &traced.digests, &reference);
    // One digest per window plus the engine's stats.
    assert_eq!(reference.len(), 6 + 1);
}

const SMALL_FLEET: tenants::Size = tenants::Size {
    tenants: 3,
    microservice_scale: 0.3,
    paas_scale: 0.1,
    minutes: 12,
    faults: true,
};

#[test]
fn sharded_front_door_matches_exactly_once_and_one_shard_oracles() {
    let input = tenants::generate(SEED, SMALL_FLEET).unwrap();
    let dropped: usize =
        input.ticks.iter().flatten().filter(|p| !p.fresh).map(|p| p.records.len()).sum();
    assert!(dropped > 0, "the faulty fabric re-delivers packets");
    let reference = tenants::reference(&input).unwrap();
    let pass = tenants::pass(&input, &mut Tracer::new(false));
    assert_eq!(pass.failed, 0);
    assert_matches("untraced", &pass.digests, &reference);
    assert!(pass.counters["front.redelivery_drop_share"] > 0.0);
    let traced = tenants::pass(&input, &mut Tracer::new(true));
    assert_matches("traced", &traced.digests, &reference);
}

#[test]
fn clean_fabric_equals_direct_ingest() {
    let size = tenants::Size { faults: false, ..SMALL_FLEET };
    let input = tenants::generate(SEED, size).unwrap();
    assert!(input.ticks.iter().flatten().all(|p| p.fresh), "a clean fabric never re-delivers");
    let pass = tenants::pass(&input, &mut Tracer::new(false));
    // Direct ingest: every tenant's simulator output, straight into one
    // builder per window.
    let mut direct = Vec::new();
    for t in 0..size.tenants {
        let (mut sim, _) = tenants::tenant_simulator(SEED, t, size).unwrap();
        let records: Vec<ConnSummary> = gen::minutes(&mut sim, size.minutes).concat();
        for (w, recs) in gen::by_window(&[records], tenants::WINDOW_LEN) {
            let mut b = GraphBuilder::new(Facet::Ip, w, tenants::WINDOW_LEN)
                .with_monitored(input.monitored.clone());
            b.add_all(&recs);
            direct.push(WindowDigest {
                key: format!("{}/{w}", input.names[t]),
                digest: Digest::default().graph(&b.finish()).finish(),
            });
        }
    }
    let windows: Vec<WindowDigest> = pass
        .digests
        .iter()
        .filter(|d| d.key.contains('/') && !d.key.ends_with("/stats"))
        .cloned()
        .collect();
    assert_matches("clean fabric", &windows, &direct);
}

const SMALL_PAAS: paas::Size = paas::Size { scale: 0.2, enforce_windows: 3, incremental: false };

#[test]
fn decomposed_monitor_and_analyzer_match_the_deployed_loop() {
    let input = paas::generate(SEED, SMALL_PAAS).unwrap();
    let reference = paas::reference(&input).unwrap();
    let product = paas::pass(&input, &mut Tracer::new(false), false);
    assert_eq!(product.failed, 0);
    assert!(reference.iter().any(|d| d.key == "baseline"));
    assert!(reference.iter().any(|d| d.key.starts_with("m/")));
    assert_matches("deployed loop", &product.digests, &reference);
    let untraced = paas::pass(&input, &mut Tracer::new(false), true);
    assert_matches("decomposed loop, untraced", &untraced.digests, &reference);
    let mut tr = Tracer::new(true);
    let traced = paas::pass(&input, &mut tr, true);
    assert_matches("decomposed loop, traced", &traced.digests, &reference);
    let spans = tr.by_name();
    for name in ["pca.fit", "pca.score", "graph.build", "roles.similarity", "obs.scrape"] {
        assert!(spans.contains_key(name), "traced pass records {name}");
    }
}

/// The incremental analyzer is documented to match the full-rebuild oracle
/// bit for bit (roles, segments, rules). On this workload it does not: this
/// test fails until the program is fixed, and so does every `paas_monitor`
/// run.
#[test]
fn incremental_analyzer_matches_the_full_rebuild_oracle() {
    let input = paas::generate(SEED, paas::Size { incremental: true, ..SMALL_PAAS }).unwrap();
    let reference = paas::reference(&input).unwrap();
    let product = paas::pass(&input, &mut Tracer::new(false), false);
    assert_eq!(product.failed, 0);
    assert_matches("incremental analyzer", &product.digests, &reference);
}

#[test]
fn a_perturbed_output_fails_the_check() {
    let input = kquery::generate(SEED, kquery::Size { scale: 0.05, minutes: 3 }).unwrap();
    let reference = kquery::reference(&input).unwrap();
    let pass = kquery::pass(&input, &mut Tracer::new(false));
    assert_matches("unperturbed", &pass.digests, &reference);

    // A wrong window, a missing window and an extra window all count.
    let mut wrong = pass.digests.clone();
    wrong[1].digest ^= 1;
    assert_eq!(digest::mismatches(&wrong, &reference).len(), 1);
    assert_eq!(digest::mismatches(&pass.digests[1..], &reference).len(), 1);
    let mut extra = pass.digests.clone();
    extra.push(WindowDigest { key: "999".into(), digest: 0 });
    assert_eq!(digest::mismatches(&extra, &reference).len(), 1);

    // The digest sees a one-byte change in one record's volume.
    let mut records: Vec<ConnSummary> = input.batches[0].clone();
    let digest_of = |records: &[ConnSummary]| {
        let mut b = GraphBuilder::new(Facet::Ip, 0, kquery::WINDOW_LEN);
        b.add_all(records);
        Digest::default().graph(&b.finish()).finish()
    };
    let before = digest_of(&records);
    records[0].bytes_sent += 1;
    assert_ne!(digest_of(&records), before);
}

#[test]
fn pinned_references_match_the_oracles_at_the_default_seed() {
    for w in Workload::ALL {
        let pinned = digest::parse(w.pinned()).expect("pinned reference parses");
        let derived = w.generate(DEFAULT_SEED).unwrap().reference().unwrap();
        assert_matches(w.name(), &derived, &pinned);
    }
}
