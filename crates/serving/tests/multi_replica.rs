//! Multi-replica serving: determinism, per-replica accounting,
//! replica scaling, pipelining gain, and plan-cache persistence.

#![allow(clippy::unwrap_used)]

use flashoverlap::SystemSpec;
use serving::{
    serve, serve_exporting, serve_scaling, ArrivalProcess, CacheSnapshot, RouterPolicy,
    ServeConfig, ServeReport,
};
use workloads::{MixEntry, ServeMix};

/// An overloaded-for-one-replica config: ~3.4x the single-replica
/// service capacity, so four replicas absorb it and one cannot.
fn overload_config() -> ServeConfig {
    let mut config = ServeConfig::new(SystemSpec::rtx4090(2));
    config.process = ArrivalProcess::Poisson { rate_rps: 2400.0 };
    config.requests = 240;
    config.replicas = 4;
    config.router = RouterPolicy::ShapeAffinity;
    config.seed = 7;
    config
}

#[test]
fn golden_multi_replica_serve_is_byte_identical() {
    let mut config = overload_config();
    config.requests = 100;
    let a = serve(&config).unwrap();
    let b = serve(&config).unwrap();
    assert_eq!(
        a.to_json().to_json(),
        b.to_json().to_json(),
        "same seed must produce a byte-identical multi-replica report"
    );
}

#[test]
fn per_replica_accounting_sums_to_totals() {
    let config = overload_config();
    let report = serve(&config).unwrap();
    assert_eq!(report.replicas, 4);
    report.check().unwrap();

    for b in &report.batch_records {
        assert!(b.replica < report.replicas, "batch on unknown replica");
        assert!(!b.routing.is_empty());
        assert!(b.chain_len >= 1);
    }
    // Work actually spread: no replica ran everything.
    assert!(
        report
            .replica_stats
            .iter()
            .all(|r| r.batches < report.batches),
        "one replica absorbed every batch"
    );
}

#[test]
fn four_replicas_scale_goodput_and_pipelining_cuts_p95() {
    let scaling = serve_scaling(&overload_config()).unwrap();
    let factor = scaling.goodput_scaling().expect("single arm has goodput");
    assert!(
        factor >= 3.0,
        "4 replicas must deliver >= 3x single-replica goodput, got {factor:.2}x"
    );
    let (pipelined_p95, serial_p95) = scaling.pipelining_p95().expect("both arms completed");
    assert!(
        pipelined_p95 < serial_p95,
        "pipelined p95 {pipelined_p95} must beat serial-chain p95 {serial_p95}"
    );
    // Both findings are reported in the comparison JSON.
    let json = scaling.to_json().to_json();
    assert!(json.contains("\"goodput_scaling\""));
    assert!(json.contains("\"pipelined_p95_ns\""));
    assert!(json.contains("\"serial_p95_ns\""));
}

/// A repeat-heavy mix: two fixed-size request classes, so the run sees
/// only a handful of distinct GEMM shapes over and over.
fn repeat_heavy_mix() -> ServeMix {
    ServeMix::new(vec![
        MixEntry {
            model: workloads::models::LLAMA3_8B,
            weight: 3,
            min_tokens: 1024,
            max_tokens: 1024,
        },
        MixEntry {
            model: workloads::models::DEEPSEEK_MOE_EXPERT,
            weight: 1,
            min_tokens: 256,
            max_tokens: 256,
        },
    ])
}

/// The shape-affinity and round-robin reports for one config.
fn affinity_and_round_robin(mut config: ServeConfig) -> (ServeReport, ServeReport) {
    config.router = RouterPolicy::ShapeAffinity;
    let affinity = serve(&config).unwrap();
    assert_eq!((affinity.replicas, affinity.router), (4, "shape-affinity"));
    config.router = RouterPolicy::RoundRobin;
    (affinity, serve(&config).unwrap())
}

#[test]
fn shape_affinity_beats_round_robin_on_cache_hit_rate() {
    let mut config = overload_config();
    config.mix = repeat_heavy_mix();
    let (affinity, round_robin) = affinity_and_round_robin(config);
    assert!(
        affinity.cache.hit_rate() > round_robin.cache.hit_rate(),
        "shape affinity {:.3} must beat round-robin {:.3} on cache hit rate",
        affinity.cache.hit_rate(),
        round_robin.cache.hit_rate()
    );
    // Affinity tunes each shape once; round-robin re-tunes per replica.
    assert!(affinity.cache.misses < round_robin.cache.misses);

    // The default mix, as `serve --requests 120 --rate 2400 --seed 7
    // --replicas 4` runs it: affinity must not lose.
    let mut config = overload_config();
    config.requests = 120;
    let (affinity, round_robin) = affinity_and_round_robin(config);
    assert!(
        affinity.cache.hit_rate() >= round_robin.cache.hit_rate(),
        "default mix: shape affinity {:.3} lost to round-robin {:.3}",
        affinity.cache.hit_rate(),
        round_robin.cache.hit_rate()
    );
}

#[test]
fn plan_cache_snapshot_round_trips_and_preloads_warm() {
    let mut config = overload_config();
    config.mix = repeat_heavy_mix();
    config.requests = 80;
    let (cold, snapshot) = serve_exporting(&config).unwrap();
    assert!(!snapshot.entries.is_empty(), "run must export tuned plans");

    let reparsed = CacheSnapshot::from_json(&snapshot.to_json()).unwrap();
    assert_eq!(reparsed, snapshot, "snapshot JSON must round-trip");

    let mut warm_config = config.clone();
    warm_config.preload = Some(snapshot);
    let warm = serve(&warm_config).unwrap();
    assert!(warm.cache.preloaded > 0, "replicas must start preloaded");
    assert_eq!(
        warm.cache.misses, 0,
        "a warm-started repeat-heavy run must never tune online"
    );
    assert_eq!(
        warm.completed, cold.completed,
        "warm start must not change accounting"
    );
}
