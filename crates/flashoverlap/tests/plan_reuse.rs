//! Plan reuse is stateless.
//!
//! A cached plan derives its launch data once — the GEMM issue order,
//! its same-group runs, the epilogue writers and the latency predictor —
//! and every launch shares it. These tests pin that sharing down for
//! every communication pattern: the cached data equals what a fresh
//! derivation gives, and running one plan many times (alone or as every
//! segment of a chain) is indistinguishable from running fresh,
//! identical plans.

#![allow(clippy::unwrap_used)]

use std::rc::Rc;

use flashoverlap::runtime::CommPattern;
use flashoverlap::{
    execute_sequence, FunctionalInputs, LatencyPredictor, OverlapPlan, SequenceOptions,
    SequenceOutcome, SystemSpec,
};
use gpu_sim::gemm::{group_runs, GemmDims};
use gpu_sim::swizzle::Swizzle;

const RANKS: usize = 2;

fn small_system() -> SystemSpec {
    let mut spec = SystemSpec::rtx4090(RANKS);
    spec.arch.sm_count = 8;
    spec.comm_sms = 2;
    spec
}

fn dims() -> GemmDims {
    GemmDims::new(256, 256, 32)
}

fn patterns() -> Vec<CommPattern> {
    let rows = dims().m as usize;
    vec![
        CommPattern::AllReduce,
        CommPattern::ReduceScatter,
        CommPattern::AllToAll {
            routing: (0..RANKS)
                .map(|rank| (0..rows).map(|row| (row * 7 + rank) % RANKS).collect())
                .collect(),
        },
        CommPattern::AllGather,
    ]
}

/// A freshly built plan identical to `plan` (same shape, pattern,
/// system and partition), sharing no derived data with it.
fn rebuild(plan: &OverlapPlan) -> OverlapPlan {
    OverlapPlan::new(
        plan.dims,
        plan.pattern().clone(),
        plan.system.clone(),
        plan.partition.clone(),
    )
    .unwrap()
}

/// A traced functional run of `plans` as one chain.
fn run(plans: &[&OverlapPlan], inputs: &[FunctionalInputs]) -> SequenceOutcome {
    execute_sequence(plans, &SequenceOptions::new().trace().functional(inputs)).unwrap()
}

fn assert_same_run(got: &SequenceOutcome, want: &SequenceOutcome, what: &str) {
    assert_eq!(got.total, want.total, "{what}: total");
    assert_eq!(got.reports, want.reports, "{what}: reports");
    assert_eq!(got.spans, want.spans, "{what}: spans");
    assert!(got.outputs == want.outputs, "{what}: outputs differ");
}

#[test]
fn cached_launch_data_equals_a_fresh_derivation() {
    for pattern in patterns() {
        let plan = OverlapPlan::tuned(dims(), pattern.clone(), small_system()).unwrap();
        let name = format!("{:?}", pattern.primitive());
        if matches!(pattern, CommPattern::AllToAll { .. }) {
            assert_eq!(plan.config.swizzle, Swizzle::StripRows { height: 1 });
        }
        let grid = plan.config.grid(plan.dims);
        assert_eq!(
            **plan.issue_order(),
            *plan.config.swizzle.issue_order(&grid),
            "{name}: issue order"
        );
        assert_eq!(
            **plan.group_runs(),
            *group_runs(plan.issue_order(), &plan.layout().group_of_tile),
            "{name}: group runs"
        );
    }
}

#[test]
fn one_plan_run_repeatedly_matches_fresh_plans() {
    for pattern in patterns() {
        let plan = OverlapPlan::tuned(dims(), pattern.clone(), small_system()).unwrap();
        let name = format!("{:?}", pattern.primitive());
        let inputs = [FunctionalInputs::random(plan.dims, RANKS, 11)];

        let fresh = rebuild(&plan);
        let want = run(&[&fresh], &inputs);
        for i in 0..3 {
            let got = run(&[&plan], &inputs);
            assert_same_run(&got, &want, &format!("{name} run {i}"));
        }
        // No launch keeps the plan's shared data alive after its run.
        assert_eq!(Rc::strong_count(plan.issue_order()), 1, "{name}");
        assert_eq!(Rc::strong_count(plan.group_runs()), 1, "{name}");

        let chain_inputs = [
            FunctionalInputs::random(plan.dims, RANKS, 12),
            FunctionalInputs::random(plan.dims, RANKS, 13),
            FunctionalInputs::random(plan.dims, RANKS, 14),
        ];
        let (q, r) = (rebuild(&plan), rebuild(&plan));
        let shared = run(&[&plan, &plan, &plan], &chain_inputs);
        let distinct = run(&[&fresh, &q, &r], &chain_inputs);
        assert_same_run(&shared, &distinct, &format!("{name} chain"));
    }
}

#[test]
fn memoized_predictions_equal_a_fresh_predictor() {
    for pattern in patterns() {
        let plan = OverlapPlan::tuned(dims(), pattern.clone(), small_system()).unwrap();
        let name = format!("{:?}", pattern.primitive());
        let predictor = LatencyPredictor::build(plan.dims, plan.primitive(), &plan.system);
        let latency = predictor.predict(&plan.partition);
        let completions = predictor.predict_group_completions(&plan.partition);
        // Twice: the first call builds the predictor, the second reuses it.
        for _ in 0..2 {
            assert_eq!(plan.expected_latency(), latency, "{name}");
            assert_eq!(plan.predicted_group_completions(), completions, "{name}");
        }
    }
}
