//! Property test: a plan served from the cache is bit-exact with a
//! cold tune of the same shape — caching changes cost, never results.

use flashoverlap::{CommPattern, OverlapPlan, SystemSpec};
use gpu_sim::gemm::GemmDims;
use proptest::prelude::*;
use serving::PlanCache;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn cache_hit_is_bit_exact_with_cold_tune(
        m in prop::sample::select(vec![64u32, 128, 256, 384, 512]),
        shape in prop::sample::select(vec![(2048u32, 704u32), (4096, 7168), (2048, 1408)]),
        seed in 0u64..4,
    ) {
        let (n, k) = shape;
        let dims = GemmDims::new(m, n, k);
        let system = SystemSpec::rtx4090(2).with_seed(seed);
        let mut cache = PlanCache::new(4);

        // Warm the cache, then hit it.
        let (_, first_hit) = cache
            .get_or_tune(dims, &CommPattern::AllReduce, &system)
            .expect("miss path builds a plan");
        prop_assert!(!first_hit);
        let (cached, second_hit) = cache
            .get_or_tune(dims, &CommPattern::AllReduce, &system)
            .expect("hit path returns the cached plan");
        prop_assert!(second_hit);

        // Cold-tune the same shape outside the cache.
        let cold = OverlapPlan::tuned(dims, CommPattern::AllReduce, system)
            .expect("cold tune");

        prop_assert_eq!(
            cached.partition.clone(),
            cold.partition.clone(),
            "cached partition must match a cold tune"
        );
        let opts = flashoverlap::SequenceOptions::new();
        let warm_report = cached
            .execute_with(&opts)
            .expect("cached plan executes")
            .reports
            .remove(0);
        let cold_report = cold
            .execute_with(&opts)
            .expect("cold plan executes")
            .reports
            .remove(0);
        prop_assert_eq!(warm_report.latency, cold_report.latency);
        prop_assert_eq!(warm_report.gemm_done, cold_report.gemm_done);
        prop_assert_eq!(warm_report.group_comm_done, cold_report.group_comm_done);
    }
}
