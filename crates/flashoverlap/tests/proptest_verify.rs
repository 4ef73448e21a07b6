//! Property-based agreement between the static verifier and SimSan.
//!
//! `planverify` proves schedules safe from plan data alone; SimSan
//! checks the one execution the simulator produces. The two layers must
//! agree wherever both can see:
//!
//! 1. every well-formed plan — random shape, random partition — is
//!    clean under **both** layers (no static false positives on
//!    schedules the runtime executes race-free);
//! 2. every randomly-targeted wait mutation is caught by **both**
//!    layers on an observable fixture (no static false negatives the
//!    sanitizer would have caught, and vice versa);
//! 3. chained models agree with the sequence executor: random chain
//!    lengths verify clean, and a dropped rearm at any reused segment
//!    is flagged statically.

mod common;

use common::{grouped_plan, mini_system, run_sanitized};
use flashoverlap::runtime::CommPattern;
use flashoverlap::{model_of_chain, OverlapPlan};
use gpu_sim::gemm::GemmDims;
use planverify::{verify, Mutation};
use proptest::prelude::*;
use proptest::sample::select;

/// A plan for `m x 512 x 64` split into `groups` wave groups, on the
/// miniature system whose planned waves equal its runtime waves — both
/// layers can observe every signal edge.
fn plan_with(m: u32, groups: u32) -> OverlapPlan {
    let dims = GemmDims::new(m, 512, 64);
    grouped_plan(&mini_system(2, 0), dims, CommPattern::AllReduce, groups)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Random well-formed plans are clean under both layers.
    #[test]
    fn clean_plans_pass_both_layers(
        m in select(vec![256u32, 384, 512]),
        groups in 1..5u32,
    ) {
        let plan = plan_with(m, groups);
        let report = plan.verify();
        prop_assert!(report.is_clean(), "static violations: {:?}", report.violations);
        let s = run_sanitized(&plan, None);
        prop_assert!(s.is_clean(), "{}", s.summary());
        prop_assert!(s.accesses_checked() > 0, "monitor saw no accesses");
    }

    /// Any single wait mutation — random rank, random group, both
    /// kinds — is caught by the static verifier AND by SimSan on the
    /// observable two-group fixture.
    #[test]
    fn wait_mutations_are_caught_by_both_layers(
        m in select(vec![384u32, 640, 896]),
        rank in 0..2usize,
        group in 0..2usize,
        raise in any::<bool>(),
    ) {
        let plan = plan_with(m, 2);
        prop_assert_eq!(plan.partition.num_groups(), 2);

        let mutation = if raise {
            Mutation::RaiseThreshold { rank, group }
        } else {
            Mutation::DropWait { rank, group }
        };
        let mut model = model_of_chain(&[&plan]);
        model.apply(&mutation, 0).expect("the mutation targets the plan");
        let report = verify(&model);
        prop_assert!(!report.is_clean(), "planverify missed {mutation:?}");

        let s = run_sanitized(&plan, Some(mutation));
        prop_assert!(
            !s.is_clean(),
            "SimSan missed {mutation:?} the static layer caught"
        );
    }

    /// Chained (sequence) models of random length and mixed shapes
    /// verify clean, and dropping the rearm at any reused segment is
    /// flagged statically with the segment named.
    #[test]
    fn chains_verify_clean_and_rearm_drops_are_flagged(
        len in 3..6usize,
        ms in proptest::collection::vec(select(vec![256u32, 384, 512]), 6),
        seg_raw in 0..8usize,
    ) {
        let plans: Vec<OverlapPlan> = ms
            .iter()
            .take(len)
            .map(|&m| plan_with(m, 2))
            .collect();
        let refs: Vec<&OverlapPlan> = plans.iter().collect();
        let mut model = model_of_chain(&refs);
        let report = verify(&model);
        prop_assert!(report.is_clean(), "static violations: {:?}", report.violations);

        // Rearm edges exist from the first table reuse onwards.
        let segment = 2 + seg_raw % (len - 2);
        model
            .apply(&Mutation::DropRearm, segment)
            .expect("the segment is in the chain");
        let report = verify(&model);
        prop_assert!(!report.is_clean(), "planverify missed a dropped rearm");
        prop_assert!(
            report
                .violations
                .iter()
                .any(|v| v.label() == "stale-rearm"),
            "expected a stale-rearm violation: {:?}",
            report.violations
        );
    }
}
