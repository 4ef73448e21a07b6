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

use flashoverlap::runtime::CommPattern;
use flashoverlap::{
    execute_sequence, Instrumentation, OverlapPlan, SequenceOptions, SystemSpec, WavePartition,
};
use gpu_sim::gemm::GemmDims;
use planverify::Mutation;
use proptest::prelude::*;
use proptest::sample::select;
use simsan::{Finding, Sanitizer};

/// A tiny system whose *planned* waves equal its *runtime* waves.
///
/// With `comm_sms = 0` the planner's capacity (`sm_count - comm_sms`)
/// matches what the simulated GEMM actually gets, so wave (and therefore
/// group) boundaries fall on real temporal boundaries of the execution.
/// That matters for mutation coverage: a vector-clock sanitizer reports
/// races of the *observed* execution, and a dropped signal edge is only
/// observable if some tile of its group is written after the previous
/// group's signal. When planned and runtime waves diverge (the planner
/// reserves SMs that no communication is using yet), whole groups can
/// collapse into one runtime wave where the earlier group's signal
/// already orders everything — a true negative, not a blind spot.
fn small_system(n: usize) -> SystemSpec {
    let mut spec = SystemSpec::rtx4090(n);
    spec.arch.sm_count = 8;
    spec.comm_sms = 0;
    spec
}

/// The wave count the runtime will plan for `dims` under `pattern`
/// (mirrors `OverlapPlan::new`, including the All-to-All rasterization
/// override).
fn wave_count(dims: GemmDims, pattern: &CommPattern, system: &SystemSpec) -> u32 {
    let mut config = gpu_sim::gemm::GemmConfig::choose(dims, &system.arch);
    if matches!(pattern, CommPattern::AllToAll { .. }) {
        config.swizzle = gpu_sim::swizzle::Swizzle::StripRows { height: 1 };
    }
    let grid = config.grid(dims);
    let issue = config.swizzle.issue_order(&grid);
    gpu_sim::wave::WaveSchedule::new(&issue, system.compute_sms()).num_waves()
}

fn plan(pattern: CommPattern, groups: u32) -> OverlapPlan {
    let n = 2;
    let dims = GemmDims::new(384, 512, 64);
    let system = small_system(n);
    let waves = wave_count(dims, &pattern, &system);
    let partition = if groups >= waves {
        WavePartition::per_wave(waves)
    } else {
        // `groups - 1` equal groups plus one catch-all tail.
        let base = waves / groups;
        let mut sizes = vec![base; groups as usize];
        let used = base * (groups - 1);
        sizes[groups as usize - 1] = waves - used;
        WavePartition::new(sizes)
    };
    OverlapPlan::new(dims, pattern, system, partition).expect("valid plan")
}

fn run_sanitized(plan: &OverlapPlan, mutation: Option<Mutation>) -> Sanitizer {
    let sanitizer = Sanitizer::new();
    let instr = Instrumentation {
        monitor: Some(sanitizer.monitor()),
        probe: Some(sanitizer.probe()),
        mutation: mutation.map(|m| (0, m)),
    };
    plan.execute_with(&SequenceOptions::new().instrument(&instr))
        .expect("simulation runs");
    sanitizer
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
        let target = (0..p.partition.num_groups())
            .find(|&g| p.group_payload_elems()[g] > 0);
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
// false negatives).
// ---------------------------------------------------------------------------

fn three_layer_pipeline() -> flashoverlap::Pipeline {
    use flashoverlap::pipeline::LayerSpec;
    use gpu_sim::elementwise::ElementwiseOp;
    use std::rc::Rc;

    let rms = |cols: usize| ElementwiseOp::RmsNorm {
        weight: Rc::new(vec![1.0; cols]),
        eps: 1e-6,
    };
    // Three layers so layer 2 reuses (and resets) layer 0's table set.
    flashoverlap::Pipeline::tuned(
        small_system(2),
        vec![
            LayerSpec {
                dims: GemmDims::new(384, 512, 64),
                pattern: CommPattern::AllReduce,
                epilogue: Some(rms(512)),
            },
            LayerSpec {
                dims: GemmDims::new(384, 256, 512),
                pattern: CommPattern::AllReduce,
                epilogue: Some(rms(256)),
            },
            LayerSpec {
                dims: GemmDims::new(384, 128, 256),
                pattern: CommPattern::AllReduce,
                epilogue: None,
            },
        ],
    )
    .expect("valid pipeline")
}

#[test]
fn multi_layer_pipeline_is_race_free_under_simsan() {
    let pipeline = three_layer_pipeline();
    let sanitizer = Sanitizer::new();
    let instr = Instrumentation {
        monitor: Some(sanitizer.monitor()),
        probe: Some(sanitizer.probe()),
        mutation: None,
    };
    pipeline
        .execute_with(&SequenceOptions::new().instrument(&instr))
        .expect("pipeline runs");
    assert!(sanitizer.is_clean(), "{}", sanitizer.summary());
    assert!(sanitizer.accesses_checked() > 0, "monitor saw no accesses");
}

#[test]
fn late_layer_mutation_is_caught_through_table_reuse() {
    // Layer 2 runs on a reset table set; a wait dropped there must still
    // surface even though the same (device, table, group) slots carried
    // legitimate layer-0 signals before the reset.
    let pipeline = three_layer_pipeline();
    let sanitizer = Sanitizer::new();
    let instr = Instrumentation {
        monitor: Some(sanitizer.monitor()),
        probe: Some(sanitizer.probe()),
        mutation: Some((2, Mutation::DropWait { rank: 0, group: 0 })),
    };
    pipeline
        .execute_with(&SequenceOptions::new().instrument(&instr))
        .expect("pipeline runs");
    assert!(
        !sanitizer.is_clean(),
        "layer-2 dropped wait went undetected: {}",
        sanitizer.summary()
    );
}

#[test]
fn steady_state_iterations_are_race_free_under_simsan() {
    let p = plan(CommPattern::AllReduce, 2);
    let sanitizer = Sanitizer::new();
    let instr = Instrumentation {
        monitor: Some(sanitizer.monitor()),
        probe: Some(sanitizer.probe()),
        mutation: None,
    };
    // Back-to-back iterations: five copies of the plan in one sequence.
    execute_sequence(&[&p; 5], &SequenceOptions::new().instrument(&instr)).expect("iterations run");
    assert!(sanitizer.is_clean(), "{}", sanitizer.summary());
    assert!(sanitizer.accesses_checked() > 0, "monitor saw no accesses");
}

#[test]
fn final_iteration_mutation_is_caught_after_reuse() {
    let p = plan(CommPattern::AllReduce, 2);
    let sanitizer = Sanitizer::new();
    let instr = Instrumentation {
        monitor: Some(sanitizer.monitor()),
        probe: Some(sanitizer.probe()),
        mutation: Some((3, Mutation::DropWait { rank: 0, group: 0 })),
    };
    let iterations = [&p; 4];
    execute_sequence(&iterations, &SequenceOptions::new().instrument(&instr))
        .expect("iterations run");
    assert!(
        !sanitizer.is_clean(),
        "final-iteration dropped wait went undetected: {}",
        sanitizer.summary()
    );

    // A starved wait in the final iteration is a lost signal + deadlock,
    // exactly as in the single-shot path.
    let sanitizer = Sanitizer::new();
    let instr = Instrumentation {
        monitor: Some(sanitizer.monitor()),
        probe: Some(sanitizer.probe()),
        mutation: Some((3, Mutation::RaiseThreshold { rank: 1, group: 1 })),
    };
    execute_sequence(&iterations, &SequenceOptions::new().instrument(&instr))
        .expect("iterations run");
    let reports = sanitizer.reports();
    assert!(
        reports
            .iter()
            .any(|f| matches!(f, Finding::LostSignal { .. })),
        "starved final-iteration wait not flagged: {reports:?}"
    );
}
