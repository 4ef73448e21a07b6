//! Sanitizer checks of cross-batch pipelined sequences.
//!
//! The serving layer chains batches through
//! [`flashoverlap::execute_sequence`], ping-ponging two counting-table
//! sets so batch *k+1*'s GEMM waves overlap batch *k*'s tail
//! collectives. Table reuse is only safe because the executor inserts
//! a reset/ready edge pair before rearming a table set. These tests pin
//! that pipelined cross-batch schedules — homogeneous and mixed-shape —
//! run with **zero** SimSan findings, and that a corruption in the last
//! batch is not masked by earlier batches' edges. Skipping a batch's
//! rearm (`Mutation::DropRearm`) is driven in `conformance_matrix.rs`.

use flashoverlap::runtime::CommPattern;
use flashoverlap::{
    execute_sequence, Instrumentation, OverlapPlan, SequenceOptions, SystemSpec, WavePartition,
};
use gpu_sim::gemm::GemmDims;
use planverify::Mutation;
use simsan::Sanitizer;

/// A tiny system whose planned waves equal its runtime waves (see
/// `simsan_runtime.rs` for why that matters for mutation coverage).
fn small_system() -> SystemSpec {
    let mut spec = SystemSpec::rtx4090(2);
    spec.arch.sm_count = 8;
    spec.comm_sms = 0;
    spec
}

fn plan_on(system: SystemSpec, dims: GemmDims) -> OverlapPlan {
    let probe = OverlapPlan::new(
        dims,
        CommPattern::AllReduce,
        system.clone(),
        WavePartition::new(vec![1]),
    );
    let waves = match probe {
        Ok(p) => p.total_waves(),
        Err(flashoverlap::FlashOverlapError::PartitionMismatch { schedule_waves, .. }) => {
            schedule_waves
        }
        Err(e) => panic!("probe failed: {e}"),
    };
    OverlapPlan::new(
        dims,
        CommPattern::AllReduce,
        system,
        WavePartition::per_wave(waves),
    )
    .expect("valid plan")
}

fn plan_for(m: u32) -> OverlapPlan {
    plan_on(small_system(), GemmDims::new(m, 512, 64))
}

fn sanitized_sequence(
    plans: &[&OverlapPlan],
    options: SequenceOptions<'_>,
    mutation: Option<(usize, Mutation)>,
) -> Sanitizer {
    let sanitizer = Sanitizer::new();
    let instr = Instrumentation {
        monitor: Some(sanitizer.monitor()),
        probe: Some(sanitizer.probe()),
        mutation,
    };
    let options = options.instrument(&instr);
    execute_sequence(plans, &options).expect("sequence runs");
    sanitizer
}

#[test]
fn pipelined_cross_batch_sequence_is_race_free() {
    let plans = [plan_for(384), plan_for(256), plan_for(384), plan_for(512)];
    let refs: Vec<&OverlapPlan> = plans.iter().collect();
    let sanitizer = sanitized_sequence(&refs, SequenceOptions::new(), None);
    assert!(sanitizer.is_clean(), "{}", sanitizer.summary());
    assert!(sanitizer.accesses_checked() > 0, "monitor saw no accesses");
}

#[test]
fn serial_cross_batch_sequence_is_race_free() {
    let plans = [plan_for(384), plan_for(256), plan_for(384)];
    let refs: Vec<&OverlapPlan> = plans.iter().collect();
    let sanitizer = sanitized_sequence(&refs, SequenceOptions::new().serial(), None);
    assert!(sanitizer.is_clean(), "{}", sanitizer.summary());
}

#[test]
fn final_batch_mutation_is_caught_through_table_reuse() {
    // A protocol corruption in the *last* batch of a chain must not be
    // masked by the happens-before edges of earlier batches.
    let plans = [plan_for(384), plan_for(384), plan_for(384), plan_for(384)];
    let refs: Vec<&OverlapPlan> = plans.iter().collect();
    let sanitizer = sanitized_sequence(
        &refs,
        SequenceOptions::new(),
        Some((3, Mutation::DropWait { rank: 0, group: 0 })),
    );
    assert!(
        !sanitizer.is_clean(),
        "final-batch dropped wait went undetected: {}",
        sanitizer.summary()
    );
}
