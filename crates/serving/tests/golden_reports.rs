//! Golden serve reports: FNV-1a digests of the rendered report JSON and
//! of the exported plan-cache snapshot for multi-replica, chaos,
//! multi-node, churn and preload configurations.
//!
//! The other multi-replica tests compare two runs of the same build;
//! these pin the bytes themselves, so a refactor of the serve loop that
//! changes any routing decision, accounting order or f64 sum fails here.
//! A deliberate change to the report regenerates the digests (the
//! failure message prints the new values).

#![allow(clippy::unwrap_used)]

use flashoverlap::SystemSpec;
use serving::{
    serve_exporting, ArrivalProcess, BatchConfig, CacheSnapshot, RouterPolicy, ServeConfig,
    ServeReport,
};
use workloads::{models, MixEntry, ServeMix};

/// FNV-1a, 64-bit.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Four replicas of a two-rank group, loaded enough that chains form and
/// every router has real choices to make.
fn four_replicas(router: RouterPolicy) -> ServeConfig {
    let mut config = ServeConfig::new(SystemSpec::rtx4090(2));
    config.process = ArrivalProcess::Poisson { rate_rps: 2400.0 };
    config.requests = 160;
    config.replicas = 4;
    config.router = router;
    config.seed = 7;
    config
}

/// `serve --chaos --replicas 4 --wedge-replica 2 --rate 12000`: the
/// third replica wedges on its first chain and its queue is re-routed.
fn wedged_chaos() -> ServeConfig {
    let mut config = four_replicas(RouterPolicy::RoundRobin);
    config.chaos = true;
    config.wedge_replica = Some(2);
    config.process = ArrivalProcess::Poisson { rate_rps: 12_000.0 };
    config.requests = 200;
    config
}

/// Two nodes, two replicas each, behind the locality router.
fn two_nodes() -> ServeConfig {
    let mut config = four_replicas(RouterPolicy::Locality);
    config.system = SystemSpec::rtx4090(2).with_nodes(2);
    config.nodes = 2;
    config.seed = 11;
    config
}

/// Three model families, a 16-token bucket and 4-plan caches: plans are
/// evicted and re-tuned or adopted throughout the run.
fn churn() -> ServeConfig {
    let mut config = four_replicas(RouterPolicy::RoundRobin);
    config.requests = 300;
    config.cache_capacity = 4;
    config.batch = BatchConfig {
        token_bucket: 16,
        ..BatchConfig::default()
    };
    config.mix = ServeMix::new(vec![
        MixEntry {
            model: models::LLAMA3_8B,
            weight: 2,
            min_tokens: 64,
            max_tokens: 4096,
        },
        MixEntry {
            model: models::LLAMA2_70B,
            weight: 1,
            min_tokens: 64,
            max_tokens: 2048,
        },
        MixEntry {
            model: models::DEEPSEEK_MOE_EXPERT,
            weight: 1,
            min_tokens: 16,
            max_tokens: 1024,
        },
    ]);
    config.seed = 5;
    config
}

/// The round-robin config restarted from the plans its own run exported.
fn preloaded(snapshot: CacheSnapshot) -> ServeConfig {
    let mut config = four_replicas(RouterPolicy::RoundRobin);
    config.seed = 9;
    config.preload = Some(snapshot);
    config
}

/// `(report digest, snapshot digest)` of one exporting serve run, its
/// report and its snapshot.
fn digests(config: &ServeConfig) -> ((u64, u64), ServeReport, CacheSnapshot) {
    let (report, snapshot) = serve_exporting(config).unwrap();
    let digest = fnv1a(report.to_json().to_json_pretty().as_bytes());
    (
        (digest, fnv1a(snapshot.to_json().as_bytes())),
        report,
        snapshot,
    )
}

#[test]
fn serve_reports_and_snapshots_match_their_golden_digests() {
    let (round_robin, _, snapshot) = digests(&four_replicas(RouterPolicy::RoundRobin));
    let (wedged, wedged_report, _) = digests(&wedged_chaos());
    let (churned, churn_report, _) = digests(&churn());
    let (warm, warm_report, _) = digests(&preloaded(snapshot));
    // Each config still reaches the path it is here to pin.
    assert!(wedged_report.replicas_quarantined > 0 && wedged_report.batches_rerouted > 0);
    assert!(churn_report.cache.evictions > 0, "{:?}", churn_report.cache);
    assert!(warm_report.cache.preloaded > 0, "{:?}", warm_report.cache);
    let got = [
        ("round-robin", round_robin),
        (
            "least-loaded",
            digests(&four_replicas(RouterPolicy::LeastLoaded)).0,
        ),
        (
            "shape-affinity",
            digests(&four_replicas(RouterPolicy::ShapeAffinity)).0,
        ),
        (
            "locality",
            digests(&four_replicas(RouterPolicy::Locality)).0,
        ),
        ("wedged-chaos", wedged),
        ("two-nodes", digests(&two_nodes()).0),
        ("churn", churned),
        ("preloaded", warm),
    ];
    let expected: [(&str, (u64, u64)); 8] = [
        ("round-robin", (0x05a751f70a4279ed, 0x7a5a14113316c246)),
        ("least-loaded", (0x06e8e157b46bc6c2, 0x7a5a14113316c246)),
        ("shape-affinity", (0x6ca69f985ffa529b, 0x7a5a14113316c246)),
        ("locality", (0x28f376d8ea703746, 0x7a5a14113316c246)),
        ("wedged-chaos", (0x6bdac7abc6afe266, 0x4c23cb5038667d1a)),
        ("two-nodes", (0xe6019150d325fce5, 0xcd2987a275a1c9f1)),
        ("churn", (0x7d528a7ecb4f7d7b, 0x863b4564d0a274c9)),
        ("preloaded", (0x60639e01f19e31bc, 0x4c23cb5038667d1a)),
    ];
    let rendered: Vec<String> = got
        .iter()
        .map(|(name, (r, s))| format!("(\"{name}\", (0x{r:016x}, 0x{s:016x})),"))
        .collect();
    assert_eq!(got, expected, "digests now:\n{}", rendered.join("\n"));
}
