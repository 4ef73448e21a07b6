//! Cross-crate property tests: invariants that must hold for arbitrary
//! shapes, partitions, and seeds across the whole stack.

use flashoverlap::runtime::CommPattern;
use flashoverlap::{
    nonoverlap_latency, theoretical_latency, FunctionalInputs, LatencyPredictor, OverlapPlan,
    RunReport, SequenceOptions, SystemSpec, WavePartition,
};
use gpu_sim::gemm::GemmDims;
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
        let waves = system.planned_waves(dims);
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
        let waves = system.planned_waves(dims);
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

    /// One wave count per shape: the plan's schedule, the system's
    /// planned waves and the offline profile agree for every pattern,
    /// SM budget and topology, so the predictor always scores the plan's
    /// own partition.
    #[test]
    fn planned_waves_match_the_plan_and_the_profile(
        dims in (1u32..=16, 1u32..=32, 1u32..=64)
            .prop_map(|(m, n, k)| GemmDims::new(m * 256, n * 64, k * 64)),
        sm_count in 4u32..=132,
        comm_sms in 0u32..=132,
        nodes in 1usize..=2,
        pattern_id in 0usize..4,
    ) {
        let mut system = SystemSpec::rtx4090(4).with_comm_sms(comm_sms).with_nodes(nodes);
        system.arch.sm_count = sm_count;
        let mut rng = sim::DetRng::new(u64::from(dims.m ^ dims.n));
        let pattern = match pattern_id {
            0 => CommPattern::AllReduce,
            1 => CommPattern::ReduceScatter,
            2 => CommPattern::AllGather,
            _ => CommPattern::AllToAll {
                routing: (0..4)
                    .map(|_| (0..dims.m).map(|_| rng.next_below(4) as usize).collect())
                    .collect(),
            },
        };
        let waves = system.planned_waves(dims);
        let profile = LatencyPredictor::build(dims, pattern.primitive(), &system);
        let plan = OverlapPlan::new(dims, pattern, system, WavePartition::single(waves))
            .expect("the planned waves cover the plan's schedule");
        prop_assert_eq!(plan.total_waves(), waves);
        prop_assert_eq!(profile.profile().total_waves, waves);
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
