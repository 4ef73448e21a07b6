//! Cross-crate property tests: invariants that must hold for arbitrary
//! shapes, partitions, and seeds across the whole stack.

use flashoverlap::runtime::CommPattern;
use flashoverlap::{
    nonoverlap_latency, theoretical_latency, FunctionalInputs, LatencyPredictor, OverlapPlan,
    RunReport, SequenceOptions, SystemSpec, WavePartition,
};
use gpu_sim::gemm::{GemmConfig, GemmDims};
use proptest::prelude::*;
use tensor::{allclose, gemm};

fn arb_dims() -> impl Strategy<Value = GemmDims> {
    // Multiples that satisfy every primitive's divisibility constraints
    // for up to 8 ranks.
    (1u32..=8, 1u32..=8, 1u32..=8).prop_map(|(m, n, k)| GemmDims::new(m * 512, n * 512, k * 512))
}

fn run(plan: &OverlapPlan) -> RunReport {
    plan.execute_with(&SequenceOptions::new())
        .expect("run")
        .reports
        .remove(0)
}

fn waves_for(dims: GemmDims, system: &SystemSpec) -> u32 {
    GemmConfig::choose(dims, &system.arch)
        .grid(dims)
        .num_tiles()
        .div_ceil(system.compute_sms())
}

fn arb_partition(waves: u32, seed: u64) -> WavePartition {
    // Deterministic pseudo-random composition of `waves`.
    let mut rng = sim::DetRng::new(seed);
    let mut sizes = Vec::new();
    let mut left = waves;
    while left > 0 {
        let take = rng.range_inclusive(1, left as u64) as u32;
        sizes.push(take);
        left -= take;
    }
    WavePartition::new(sizes)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The simulated overlapped latency never beats the perfect-overlap
    /// theoretical bound and never exceeds 110% of non-overlap plus the
    /// worst-case fragmentation (sanity envelope).
    #[test]
    fn latency_within_theory_envelope(dims in arb_dims(), seed in 0u64..1000) {
        let system = SystemSpec::rtx4090(4).with_seed(seed);
        let waves = waves_for(dims, &system);
        let partition = arb_partition(waves, seed ^ 0xABCD);
        let plan = OverlapPlan::new(dims, CommPattern::AllReduce, system.clone(), partition)
            .expect("plan");
        let latency = run(&plan).latency;
        let theory = theoretical_latency(dims, collectives::Primitive::AllReduce, &system);
        prop_assert!(latency >= theory, "beat the theoretical bound: {latency} < {theory}");
    }

    /// The tuned plan never loses more than a whisker to non-overlap
    /// (the single-group fallback is always a candidate).
    #[test]
    fn tuned_plan_never_catastrophic(dims in arb_dims(), seed in 0u64..100) {
        let system = SystemSpec::rtx4090(4).with_seed(seed);
        let plan = OverlapPlan::tuned(dims, CommPattern::AllReduce, system.clone())
            .expect("plan");
        let tuned = run(&plan).latency.as_nanos() as f64;
        let base = nonoverlap_latency(dims, collectives::Primitive::AllReduce, &system)
            .as_nanos() as f64;
        // Allow noise plus small modelling slack.
        prop_assert!(tuned <= base * 1.12, "tuned {tuned} vs base {base}");
    }

    /// Functional outputs are partition- and seed-independent.
    #[test]
    fn numerics_independent_of_partition(seed in 0u64..50) {
        let dims = GemmDims::new(512, 512, 64);
        let system = SystemSpec::rtx4090(2).with_seed(seed);
        let waves = waves_for(dims, &system);
        let inputs = FunctionalInputs::random(dims, 2, 1234);
        let expected = gemm(&inputs.a[0], &inputs.b[0]).add(&gemm(&inputs.a[1], &inputs.b[1]));
        let partition = arb_partition(waves, seed);
        let plan = OverlapPlan::new(dims, CommPattern::AllReduce, system, partition)
            .expect("plan");
        let result = plan
            .execute_with(&SequenceOptions::new().functional(std::slice::from_ref(&inputs)))
            .expect("run");
        let outputs = &result.outputs.expect("functional outputs")[0];
        prop_assert!(allclose(&outputs[0], &expected, 2e-2));
        prop_assert!(allclose(&outputs[1], &expected, 2e-2));
    }

    /// The predictor is a true lower-bound-ish estimate: never more than
    /// a few percent above the measured latency, and usually below it.
    #[test]
    fn predictor_tracks_measurement(dims in arb_dims(), seed in 0u64..50) {
        let system = SystemSpec::rtx4090(4).with_seed(seed);
        let predictor = LatencyPredictor::build(
            dims,
            collectives::Primitive::AllReduce,
            &system,
        );
        let waves = predictor.profile().total_waves;
        let partition = arb_partition(waves, seed ^ 0x77);
        let predicted = predictor.predict(&partition).as_nanos() as f64;
        let plan = OverlapPlan::new(dims, CommPattern::AllReduce, system, partition)
            .expect("plan");
        let actual = run(&plan).latency.as_nanos() as f64;
        let rel = (actual - predicted) / actual;
        prop_assert!(rel > -0.05, "prediction {predicted} far above actual {actual}");
        prop_assert!(rel < 0.25, "prediction {predicted} far below actual {actual}");
    }

    /// Same seed, same everything: the whole stack is deterministic.
    #[test]
    fn determinism(dims in arb_dims(), seed in 0u64..50) {
        let system = SystemSpec::rtx4090(2).with_seed(seed);
        let a = run(&OverlapPlan::tuned(dims, CommPattern::AllReduce, system.clone())
            .expect("plan a"));
        let b = run(&OverlapPlan::tuned(dims, CommPattern::AllReduce, system)
            .expect("plan b"));
        prop_assert_eq!(a.latency.as_nanos(), b.latency.as_nanos());
        prop_assert_eq!(a.gemm_done.as_nanos(), b.gemm_done.as_nanos());
    }
}
