//! End-to-end serving tests: golden determinism, chaos accounting, and
//! tuned-vs-baseline sanity.

use flashoverlap::SystemSpec;
use serving::{serve, serve_comparison, ArrivalProcess, Disposition, ServeConfig};

fn config(seed: u64, requests: usize) -> ServeConfig {
    let mut cfg = ServeConfig::new(SystemSpec::rtx4090(2));
    cfg.seed = seed;
    cfg.requests = requests;
    cfg
}

#[test]
fn same_seed_gives_bit_identical_report_json() {
    let cfg = config(42, 80);
    let a = serve(&cfg).expect("serve run");
    let b = serve(&cfg).expect("serve rerun");
    assert_eq!(a, b, "reports must be structurally identical");
    assert_eq!(
        a.to_json().to_json_pretty(),
        b.to_json().to_json_pretty(),
        "serialized reports must be byte-identical"
    );
}

#[test]
fn different_seeds_give_different_reports() {
    let a = serve(&config(1, 60)).expect("serve seed 1");
    let b = serve(&config(2, 60)).expect("serve seed 2");
    assert_ne!(
        a.to_json().to_json_pretty(),
        b.to_json().to_json_pretty(),
        "different seeds must produce different traces"
    );
}

#[test]
fn every_request_is_accounted_and_the_cache_warms() {
    let cfg = config(7, 100);
    let report = serve(&cfg).expect("serve run");
    assert_eq!(report.offered, 100);
    report.check().unwrap();
    // Records are in id order and every completed one has a latency.
    for (i, r) in report.records.iter().enumerate() {
        assert_eq!(r.id, i as u64);
        assert_eq!(r.latency_ns.is_some(), r.disposition != Disposition::Shed);
    }
    // Token-bucket quantization must drive shape reuse.
    assert!(
        report.cache.hit_rate() > 0.0,
        "expected plan-cache hits under shape reuse, stats {:?}",
        report.cache
    );
    assert!(report.batches > 0);
    assert!(report.distinct_shapes <= report.cache.misses);
    assert!(report.latency.is_some());
}

#[test]
fn attribution_waits_and_drift_are_internally_consistent() {
    let cfg = config(11, 90);
    let report = serve(&cfg).expect("serve run");

    // Serve-level critical path tiles the makespan exactly.
    report.check().unwrap();

    // Per-batch clips sum to the batch's execution window, and close ≤
    // dispatch for every batch.
    for b in &report.batch_records {
        let attr = b.attribution.as_ref().expect("executed batch attribution");
        assert_eq!(
            attr.sum(),
            b.exec_ns,
            "batch {} attribution must tile its exec window",
            b.id
        );
        assert!(
            b.close_ns <= b.start_ns,
            "batch {} closed after it started",
            b.id
        );
        assert!(
            b.queue_wait_ns <= b.start_ns - b.close_ns,
            "batch {}: queue wait {} exceeds close→start span",
            b.id,
            b.queue_wait_ns
        );
    }

    // Wait decomposition: form + queue ≤ total latency for every
    // completed request, and shed requests carry no waits.
    for r in &report.records {
        match r.disposition {
            Disposition::Shed => {
                assert!(r.form_wait_ns.is_none() && r.queue_wait_ns.is_none());
            }
            _ => {
                let form = r.form_wait_ns.expect("completed request form wait");
                let queue = r.queue_wait_ns.expect("completed request queue wait");
                let latency = r.latency_ns.expect("completed request latency");
                assert!(
                    form + queue <= latency,
                    "request {}: form {} + queue {} > latency {}",
                    r.id,
                    form,
                    queue,
                    latency
                );
            }
        }
    }
    assert!(report.form_wait.is_some() && report.queue_wait.is_some());

    // Drift rows exist (plans predict group completions) and are
    // finite, ordered, and backed by samples.
    assert!(!report.drift.is_empty(), "expected drift rows");
    let mut prev_key = None;
    for d in &report.drift {
        assert!(d.samples > 0);
        assert!(d.mean_predicted_ns.is_finite() && d.mean_measured_ns.is_finite());
        assert!(d.drift().is_finite());
        let key = (d.m, d.n, d.k, d.group);
        if let Some(p) = prev_key {
            assert!(key > p, "drift rows must be strictly ordered");
        }
        prev_key = Some(key);
    }
}

#[test]
fn bursty_overload_sheds_and_still_accounts_everyone() {
    let mut cfg = config(13, 150);
    cfg.process = ArrivalProcess::Bursty {
        base_rps: 1000.0,
        burst_rps: 500_000.0,
        mean_phase_ms: 2.0,
    };
    cfg.queue_capacity = 8;
    let report = serve(&cfg).expect("serve run");
    report.check().unwrap();
    assert!(
        report.shed > 0,
        "a 500k-rps burst against an 8-deep queue must shed"
    );
    assert!(report.shed_rate > 0.0);
}

#[test]
fn chaos_serve_terminates_with_full_accounting() {
    let mut cfg = config(21, 50);
    cfg.chaos = true;
    let report = serve(&cfg).expect("chaos serve must terminate");
    assert!(report.chaos);
    report.check().unwrap();
    // With 1-3 faults armed per batch, at least one batch should need
    // recovery or degrade across 50 requests; all outcomes must be
    // legal labels either way.
    for b in &report.batch_records {
        assert!(
            ["clean", "recovered", "degraded"].contains(&b.outcome),
            "unexpected outcome {}",
            b.outcome
        );
    }
    assert!(
        report.recovered + report.degraded > 0,
        "fault plans should perturb at least one batch"
    );
}

#[test]
fn comparison_runs_both_arms_on_identical_traffic() {
    let cfg = config(5, 60);
    let cmp = serve_comparison(&cfg).expect("comparison run");
    assert!(cmp.tuned.tuned && !cmp.baseline.tuned);
    assert_eq!(cmp.tuned.offered, cmp.baseline.offered);
    // Identical traffic: same arrival trace feeds both arms.
    let arrivals_t: Vec<u64> = cmp.tuned.records.iter().map(|r| r.arrival_ns).collect();
    let arrivals_b: Vec<u64> = cmp.baseline.records.iter().map(|r| r.arrival_ns).collect();
    assert_eq!(arrivals_t, arrivals_b);
    // The baseline never tunes; the tuned arm always does on a miss.
    assert_eq!(cmp.baseline.cache.tune_evaluated, 0);
    assert!(cmp.tuned.cache.tune_evaluated > 0);
    let (p50, _p95, mean) = cmp.speedups().expect("both arms completed requests");
    // The prefill-heavy default mix reaches multi-wave batches where
    // tuned overlap beats non-overlap; queueing noise on a small run
    // can dilute p50 but the mean must come out ahead.
    assert!(
        mean > 1.0,
        "tuned serving should beat non-overlap, mean {mean}"
    );
    assert!(p50 > 0.9, "p50 {p50}");
}
