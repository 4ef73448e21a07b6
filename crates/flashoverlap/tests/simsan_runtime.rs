//! End-to-end sanitizer checks of the overlap runtime.
//!
//! Two complementary properties pin down the signaling protocol:
//!
//! 1. every well-formed plan — any pattern, any partition — executes with
//!    **zero** SimSan findings (the counter/event/rendezvous edges order
//!    every modelled access), and
//! 2. deleting any single signal edge from a valid plan produces at least
//!    one finding of the matching class (the sanitizer has no blind spot
//!    a mutation can hide in).

mod common;

use common::{grouped_plan, mini_system, run_sanitized, sanitized};
use flashoverlap::runtime::CommPattern;
use flashoverlap::{execute_sequence, OverlapPlan, SequenceOptions, SystemSpec};
use gpu_sim::gemm::GemmDims;
use planverify::Mutation;
use proptest::prelude::*;
use proptest::sample::select;
use simsan::Finding;

/// A 384x512x64 plan on the 2-GPU miniature system whose planned waves
/// equal its runtime waves (see [`mini_system`]), in `groups` groups.
fn plan(pattern: CommPattern, groups: u32) -> OverlapPlan {
    grouped_plan(
        &mini_system(2, 0),
        GemmDims::new(384, 512, 64),
        pattern,
        groups,
    )
}

fn round_robin_routing(rows: usize, n: usize) -> Vec<Vec<usize>> {
    (0..n)
        .map(|r| (0..rows).map(|t| (t + r) % n).collect())
        .collect()
}

#[test]
fn all_reduce_plan_is_race_free_under_simsan() {
    let p = plan(CommPattern::AllReduce, 2);
    let s = run_sanitized(&p, None);
    assert!(s.is_clean(), "{}", s.summary());
    assert!(s.accesses_checked() > 0, "monitor saw no accesses");
}

#[test]
fn tuned_plan_is_race_free_under_simsan() {
    // The tuner's predictive-search output (tuner.rs partitions, full-size
    // system) must be as clean as hand-built per-wave partitions.
    let dims = GemmDims::new(2048, 4096, 4096);
    let p = OverlapPlan::tuned(dims, CommPattern::AllReduce, SystemSpec::rtx4090(2))
        .expect("tuned plan");
    let s = run_sanitized(&p, None);
    assert!(s.is_clean(), "{}", s.summary());
    assert!(s.accesses_checked() > 0, "monitor saw no accesses");
}

#[test]
fn dropped_wait_is_flagged_as_use_before_signal() {
    let p = plan(CommPattern::AllReduce, 2);
    let s = run_sanitized(&p, Some(Mutation::DropWait { rank: 0, group: 0 }));
    let reports = s.reports();
    assert!(
        reports
            .iter()
            .any(|f| matches!(f, Finding::UseBeforeSignal { .. })),
        "dropped wait not flagged: {reports:?}"
    );
}

#[test]
fn raised_threshold_is_flagged_as_lost_signal_and_deadlock() {
    let p = plan(CommPattern::AllReduce, 2);
    let s = run_sanitized(&p, Some(Mutation::RaiseThreshold { rank: 1, group: 1 }));
    let reports = s.reports();
    assert!(
        reports
            .iter()
            .any(|f| matches!(f, Finding::LostSignal { group: 1, .. })),
        "starved wait not flagged: {reports:?}"
    );
    assert!(
        reports
            .iter()
            .any(|f| matches!(f, Finding::Deadlock { .. })),
        "wedged streams not flagged: {reports:?}"
    );
}

#[test]
fn every_single_wait_deletion_is_caught() {
    // Exhaustive over the edge set of one plan: deleting any (rank, group)
    // wait must produce a finding — the mutation coverage matrix.
    let p = plan(CommPattern::AllReduce, 3);
    let n = p.system.n_gpus;
    for rank in 0..n {
        for group in 0..p.partition.num_groups() {
            let s = run_sanitized(&p, Some(Mutation::DropWait { rank, group }));
            assert!(
                !s.is_clean(),
                "DropWait {{ rank: {rank}, group: {group} }} went undetected"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Any pattern and any partition granularity: a faithful plan runs
    /// clean; the same plan with one dropped signal edge does not.
    #[test]
    fn plans_are_clean_and_mutations_are_caught(
        pattern_id in select(vec![0usize, 1, 2, 3]),
        groups in 1u32..5,
        rank in 0usize..2,
    ) {
        let pattern = match pattern_id {
            0 => CommPattern::AllReduce,
            1 => CommPattern::ReduceScatter,
            2 => CommPattern::AllGather,
            _ => CommPattern::AllToAll { routing: round_robin_routing(384, 2) },
        };
        let p = plan(pattern, groups);
        let clean = run_sanitized(&p, None);
        prop_assert!(clean.is_clean(), "{}", clean.summary());

        // Mutate a group that actually communicates (All-to-All groups can
        // be zero-payload, where no wait exists to drop).
        let target = p.wait_thresholds().iter().position(Option::is_some);
        if let Some(group) = target {
            let mutated = run_sanitized(&p, Some(Mutation::DropWait { rank, group }));
            prop_assert!(
                !mutated.is_clean(),
                "DropWait {{ rank: {}, group: {} }} went undetected",
                rank,
                group
            );
            let starved = run_sanitized(
                &p,
                Some(Mutation::RaiseThreshold { rank, group }),
            );
            prop_assert!(
                starved.reports().iter().any(|f| matches!(f, Finding::LostSignal { .. })),
                "RaiseThreshold {{ rank: {}, group: {} }} went undetected",
                rank,
                group
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Multi-layer and steady-state paths (counting-table reuse).
//
// Pipelines and iterated (steady-state) executions allocate
// counting tables once and ping-pong between two sets, resetting a set
// before reuse. The sanitizer must treat each reset as an epoch boundary:
// clean runs stay clean (no stale-label false positives), and a signal
// edge deleted *after* resets started is still caught (no stale-label
// false negatives). A dropped wait in the last layer of this pipeline
// and in the last of four per-wave batches is driven in
// `conformance_matrix.rs::wait_seams_are_caught_on_every_path`.
// ---------------------------------------------------------------------------

#[test]
fn multi_layer_pipeline_is_race_free_under_simsan() {
    use flashoverlap::pipeline::LayerSpec;
    use gpu_sim::elementwise::ElementwiseOp;
    use std::rc::Rc;

    let rms = |cols: usize| ElementwiseOp::RmsNorm {
        weight: Rc::new(vec![1.0; cols]),
        eps: 1e-6,
    };
    let layer = |dims, epilogue| LayerSpec {
        dims,
        pattern: CommPattern::AllReduce,
        epilogue,
    };
    // Three layers so layer 2 reuses (and resets) layer 0's table set.
    let pipeline = flashoverlap::Pipeline::tuned(
        mini_system(2, 0),
        vec![
            layer(GemmDims::new(384, 512, 64), Some(rms(512))),
            layer(GemmDims::new(384, 256, 512), Some(rms(256))),
            layer(GemmDims::new(384, 128, 256), None),
        ],
    )
    .expect("valid pipeline");
    let sanitizer = sanitized(SequenceOptions::new(), None, |o| pipeline.execute_with(o));
    assert!(sanitizer.is_clean(), "{}", sanitizer.summary());
    assert!(sanitizer.accesses_checked() > 0, "monitor saw no accesses");
}

#[test]
fn steady_state_iterations_are_race_free_under_simsan() {
    let p = plan(CommPattern::AllReduce, 2);
    // Back-to-back iterations: five copies of the plan in one sequence.
    let sanitizer = sanitized(SequenceOptions::new(), None, |o| {
        execute_sequence(&[&p; 5], o)
    });
    assert!(sanitizer.is_clean(), "{}", sanitizer.summary());
    assert!(sanitizer.accesses_checked() > 0, "monitor saw no accesses");
}

#[test]
fn final_iteration_mutation_is_caught_after_reuse() {
    // A two-group plan, where the conformance matrix chains per-wave
    // ones: a corruption in the final iteration, on a reset table set, is
    // still caught.
    let p = plan(CommPattern::AllReduce, 2);
    let iterations = [&p; 4];
    let run = |mutation| {
        sanitized(SequenceOptions::new(), Some((3, mutation)), |o| {
            execute_sequence(&iterations, o)
        })
    };
    let sanitizer = run(Mutation::DropWait { rank: 0, group: 0 });
    assert!(
        !sanitizer.is_clean(),
        "final-iteration dropped wait went undetected: {}",
        sanitizer.summary()
    );

    // A starved wait in the final iteration is a lost signal, exactly as
    // in the single-shot path.
    let reports = run(Mutation::RaiseThreshold { rank: 1, group: 1 }).reports();
    assert!(
        reports
            .iter()
            .any(|f| matches!(f, Finding::LostSignal { .. })),
        "starved final-iteration wait not flagged: {reports:?}"
    );
}
