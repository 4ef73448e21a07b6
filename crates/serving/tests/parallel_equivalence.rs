//! Parallel ≡ serial equivalence: the worker-thread replica engines
//! must reproduce the serial engine's `ServeReport` byte-for-byte for
//! any thread count — including chaos runs with a deterministically
//! wedged replica, where quarantine/re-route ordering is the hard part.

#![allow(clippy::unwrap_used)]

use flashoverlap::SystemSpec;
use proptest::prelude::*;
use serving::{serve, validate_parallel, ArrivalProcess, ExecMode, RouterPolicy, ServeConfig};

fn base_config(seed: u64, requests: usize) -> ServeConfig {
    let mut config = ServeConfig::new(SystemSpec::rtx4090(2));
    config.seed = seed;
    config.requests = requests;
    config
}

fn render(config: &ServeConfig) -> String {
    let report = serve(config).expect("serve terminates");
    report.check().unwrap();
    report.to_json().to_json_pretty()
}

/// Byte-compare a config under serial vs parallel execution.
fn assert_equivalent(config: &ServeConfig, threads: usize) {
    let serial = render(&ServeConfig {
        exec: ExecMode::Serial,
        ..config.clone()
    });
    let parallel = render(&ServeConfig {
        exec: ExecMode::Parallel(threads),
        ..config.clone()
    });
    assert_eq!(
        serial, parallel,
        "parallel({threads}) diverged from serial for seed {}",
        config.seed
    );
}

#[test]
fn four_replicas_match_across_thread_counts() {
    // More threads than replicas, fewer threads than replicas, and the
    // degenerate one-thread pool must all be byte-identical.
    let mut config = base_config(7, 60);
    config.replicas = 4;
    config.process = ArrivalProcess::Poisson { rate_rps: 2400.0 };
    for threads in [1, 2, 4, 7] {
        assert_equivalent(&config, threads);
    }
    // `bench --requests 200 --rate 400 --gpus 8 --replicas 4 --seed 7`,
    // at an even and an odd thread count (engines share threads).
    let mut config = base_config(7, 200);
    config.system = SystemSpec::rtx4090(8);
    config.replicas = 4;
    config.process = ArrivalProcess::Poisson { rate_rps: 400.0 };
    for threads in [3, 4] {
        assert_equivalent(&config, threads);
    }
}

#[test]
fn load_aware_router_matches_under_threading() {
    // Least-loaded routing reads replica drain times, exercising the
    // force-before-loads synchronization point.
    let mut config = base_config(11, 60);
    config.replicas = 3;
    config.router = RouterPolicy::LeastLoaded;
    config.process = ArrivalProcess::Poisson { rate_rps: 2400.0 };
    assert_equivalent(&config, 3);
}

#[test]
fn wedged_chaos_run_matches_under_threading() {
    // The wedge scenario `serve_chaos.rs` gates on (200 requests):
    // chaos fault plans, a deterministic wedge on replica 2, quarantine,
    // and re-routing — the eager-force path must land every decision at
    // the serial engine's instant.
    let mut config = base_config(7, 200);
    config.replicas = 4;
    config.chaos = true;
    config.wedge_replica = Some(2);
    config.process = ArrivalProcess::Poisson { rate_rps: 12_000.0 };
    assert_equivalent(&config, 4);
}

#[test]
fn validate_parallel_reports_a_match() {
    let mut config = base_config(5, 40);
    config.replicas = 2;
    let (report, matched) = validate_parallel(&config, 2).unwrap();
    assert!(matched, "validation mode must diff the engines as equal");
    assert_eq!(report.offered, 40);
    report.check().unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Random (replicas, threads, seed, arrival process, chaos/wedge):
    /// the parallel engines must be byte-identical to serial every
    /// time. Chaos runs wedge a random replica so the quarantine →
    /// re-route ordering is exercised under threading.
    #[test]
    fn parallel_serve_is_byte_identical_to_serial(
        seed in any::<u64>(),
        replicas in 1usize..=4,
        threads in 1usize..=6,
        bursty in any::<bool>(),
        chaos in any::<bool>(),
    ) {
        let mut config = base_config(seed, 40);
        config.replicas = replicas;
        config.process = if bursty {
            ArrivalProcess::Bursty {
                base_rps: 1200.0,
                burst_rps: 9600.0,
                mean_phase_ms: 5.0,
            }
        } else {
            ArrivalProcess::Poisson { rate_rps: 2400.0 }
        };
        if chaos {
            config.chaos = true;
            config.wedge_replica = Some(seed as usize % replicas);
        }

        config.exec = ExecMode::Serial;
        let serial = serve(&config).expect("serial serve terminates");
        config.exec = ExecMode::Parallel(threads);
        let parallel = serve(&config).expect("parallel serve terminates");
        prop_assert_eq!(serial.check(), Ok(()));
        prop_assert_eq!(
            serial.to_json().to_json_pretty(),
            parallel.to_json().to_json_pretty(),
            "parallel engines diverged from serial"
        );
    }
}
