//! Chaos serving campaign: chains keep forming under fault injection, a
//! deterministically wedged replica is quarantined and its queue
//! re-routed (never a run abort), zero-batch replicas report zeroed
//! stats without breaking the sum-to-total identities, and every seeded
//! chaos run replays byte-identically.

#![allow(clippy::unwrap_used)]

use flashoverlap::SystemSpec;
use proptest::prelude::*;
use serving::{serve, ArrivalProcess, ServeConfig};

fn chaos_config(seed: u64, requests: usize) -> ServeConfig {
    let mut config = ServeConfig::new(SystemSpec::rtx4090(2));
    config.seed = seed;
    config.requests = requests;
    config.chaos = true;
    config
}

/// The reproducible wedge scenario, `serve --chaos --replicas 4
/// --wedge-replica 2 --rate 12000 --requests 200 --seed 7`: four
/// replicas, the third forced to wedge on its first chaos chain,
/// arrivals fast enough that its queue holds batches worth re-routing
/// at quarantine time.
fn wedge_config() -> ServeConfig {
    let mut config = chaos_config(7, 200);
    config.replicas = 4;
    config.wedge_replica = Some(2);
    config.process = ArrivalProcess::Poisson { rate_rps: 12_000.0 };
    config
}

#[test]
fn chains_still_form_under_chaos() {
    // Overload one replica so the queue depth at dispatch time exceeds
    // one batch: chaos chains must pipeline exactly like healthy ones
    // (no execute-alone fallback).
    let mut config = chaos_config(7, 80);
    config.process = ArrivalProcess::Poisson { rate_rps: 2400.0 };
    let report = serve(&config).unwrap();
    assert!(report.chaos);
    report.check().unwrap();
    let longest = report
        .batch_records
        .iter()
        .map(|b| b.chain_len)
        .max()
        .unwrap_or(0);
    assert!(
        longest >= 2,
        "chaos batches must chain when the queue backs up, longest {longest}"
    );
}

#[test]
fn wedged_replica_is_quarantined_and_its_queue_rerouted() {
    let config = wedge_config();
    let report = serve(&config).expect("a wedged replica must not abort the run");

    assert!(report.chaos);
    assert_eq!(report.wedge_replica, Some(2));
    // Sum identities hold with a quarantined replica in the mix.
    report.check().unwrap();

    // The wedged replica ends the run quarantined, and at least one
    // healthy replica survives to absorb its queue.
    let wedged = report.replica_stats.get(2).unwrap();
    assert!(wedged.quarantined, "replica 2 was forced to wedge");
    assert!(report.replicas_quarantined >= 1);
    assert!(
        (report.replicas_quarantined as usize) < report.replicas,
        "the last healthy replica is never pulled from service"
    );

    // Its queued batches moved rather than died: re-routes happened and
    // every re-routed batch ran on a non-quarantined-at-dispatch
    // replica (the wedged one never executes a re-routed batch).
    assert!(
        report.batches_rerouted > 0,
        "quarantine at 12k rps must strand batches worth re-routing"
    );
    let rerouted: Vec<_> = report
        .batch_records
        .iter()
        .filter(|b| b.routing == "re-routed")
        .collect();
    // `batches_rerouted` counts hops: a batch whose second home is also
    // quarantined re-routes again, so records ≤ hops.
    assert!(!rerouted.is_empty());
    assert!(rerouted.len() as u64 <= report.batches_rerouted);
    for b in &rerouted {
        assert_ne!(b.replica, 2, "re-routed batch landed on the wedged replica");
    }
}

#[test]
fn wedge_scenario_replays_byte_identically() {
    let config = wedge_config();
    let a = serve(&config).unwrap();
    let b = serve(&config).unwrap();
    assert_eq!(a, b);
    assert_eq!(
        a.to_json().to_json_pretty(),
        b.to_json().to_json_pretty(),
        "quarantine and re-routing must be deterministic per seed"
    );
}

#[test]
fn zero_batch_replicas_report_zeroed_stats_and_identities_hold() {
    // Three requests across six replicas: at least three replicas never
    // execute a batch and must report all-zero stats without breaking
    // the sum-to-total identities.
    let mut config = ServeConfig::new(SystemSpec::rtx4090(2));
    config.seed = 11;
    config.requests = 3;
    config.replicas = 6;
    let report = serve(&config).unwrap();

    assert_eq!(report.replica_stats.len(), 6);
    let idle: Vec<_> = report
        .replica_stats
        .iter()
        .filter(|r| r.batches == 0)
        .collect();
    assert!(
        idle.len() >= 3,
        "3 requests cannot occupy more than 3 of 6 replicas"
    );
    for r in &idle {
        assert_eq!(
            r.requests, 0,
            "replica {} has requests but no batches",
            r.id
        );
        assert_eq!(r.tokens, 0);
        assert_eq!(r.busy_ns, 0);
        assert_eq!(r.chains, 0);
        assert_eq!(r.utilization, 0.0);
        assert!(!r.quarantined);
    }
    report.check().unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Any seeded chaos serve over 1-3 replicas terminates with full
    /// accounting and replays byte-identically — random fault plans,
    /// recovery, quarantine, and re-routing are all deterministic
    /// functions of the seed.
    #[test]
    fn seeded_chaos_serves_terminate_and_replay(
        seed in any::<u64>(),
        replicas in 1usize..=3,
    ) {
        let mut config = chaos_config(seed, 40);
        config.replicas = replicas;
        let a = serve(&config).expect("chaos serve terminates");
        prop_assert_eq!(a.offered, 40);
        prop_assert_eq!(a.check(), Ok(()));
        prop_assert!(
            (a.replicas_quarantined as usize) < replicas.max(2),
            "quarantine must never empty the replica set"
        );

        let b = serve(&config).expect("chaos serve replays");
        prop_assert_eq!(
            a.to_json().to_json_pretty(),
            b.to_json().to_json_pretty(),
            "chaos serving must be byte-deterministic per seed"
        );
    }
}
