//! Sanitizer checks of cross-batch pipelined sequences.
//!
//! The serving layer chains batches through
//! [`flashoverlap::execute_sequence`], ping-ponging two counting-table
//! sets so batch *k+1*'s GEMM waves overlap batch *k*'s tail
//! collectives. Table reuse is only safe because the executor inserts
//! a reset/ready edge pair before rearming a table set; these tests pin
//! both directions:
//!
//! 1. pipelined cross-batch schedules — homogeneous and mixed-shape —
//!    run with **zero** SimSan findings, and
//! 2. deliberately skipping one batch's table rearm (the
//!    wait-previous-comm → reset → ready edges that keep a batch's
//!    collectives off stale counts) is flagged, so the sanitizer would
//!    catch a regression in the rearm protocol itself.

use flashoverlap::runtime::CommPattern;
use flashoverlap::{
    execute_sequence, Instrumentation, OverlapPlan, SequenceOptions, SignalMutation, SystemSpec,
    WavePartition,
};
use gpu_sim::gemm::GemmDims;
use simsan::{Finding, Sanitizer};

/// A tiny system whose planned waves equal its runtime waves (see
/// `simsan_runtime.rs` for why that matters for mutation coverage).
fn small_system() -> SystemSpec {
    let mut spec = SystemSpec::rtx4090(2);
    spec.arch.sm_count = 8;
    spec.comm_sms = 0;
    spec
}

/// An NVLink pair with few SMs: collectives are cheap relative to the
/// GEMM, so a communication stream that is not gated on fresh signals
/// overtakes the producer instead of trailing behind signals that (by
/// luck of timing) already fired.
fn nvlink_system() -> SystemSpec {
    let mut spec = SystemSpec::a800(2);
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

/// A compute-bound plan on the NVLink pair: a deep reduction (large
/// `k`) makes each GEMM wave far slower than shipping its payload.
fn plan_compute_bound(m: u32) -> OverlapPlan {
    plan_on(nvlink_system(), GemmDims::new(m, 512, 4096))
}

fn sanitized_sequence(
    plans: &[&OverlapPlan],
    options: SequenceOptions<'_>,
    mutation: Option<SignalMutation>,
) -> Sanitizer {
    let sanitizer = Sanitizer::new();
    let instr = Instrumentation {
        monitor: Some(sanitizer.monitor()),
        probe: Some(sanitizer.probe()),
        mutation,
    };
    // A seeded mutation targets the last batch, after counting-table
    // reuse reached steady state.
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
fn dropped_cross_batch_edge_is_caught() {
    // Batch 2 is the first reuse of table set 0 (parity ping-pong).
    // Skipping its rearm leaves batch 0's saturated counts in place, so
    // batch 2's waits are satisfied by stale signals and its
    // collectives read tiles its GEMM has not produced — exactly the
    // hazard the rearm protocol exists to prevent. The plan must be
    // compute-bound for the hazard to be observable: only then does the
    // ungated communication stream outrun the GEMM instead of trailing
    // behind signals that (by luck of timing) already fired.
    let plans = [
        plan_compute_bound(384),
        plan_compute_bound(384),
        plan_compute_bound(384),
    ];
    let refs: Vec<&OverlapPlan> = plans.iter().collect();
    // Control: the identical compute-bound schedule with the rearm in
    // place is clean, so any finding below is the dropped edge's doing.
    let control = sanitized_sequence(&refs, SequenceOptions::new(), None);
    assert!(control.is_clean(), "{}", control.summary());
    let sanitizer =
        sanitized_sequence(&refs, SequenceOptions::new().drop_cross_batch_edge(2), None);
    assert!(
        !sanitizer.is_clean(),
        "dropped cross-batch rearm went undetected"
    );
    let reports = sanitizer.reports();
    assert!(
        reports
            .iter()
            .any(|f| matches!(f, Finding::UseBeforeSignal { .. })),
        "expected a use-before-signal on the reused table set: {reports:?}"
    );
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
        Some(SignalMutation::DropWait { rank: 0, group: 0 }),
    );
    assert!(
        !sanitizer.is_clean(),
        "final-batch dropped wait went undetected: {}",
        sanitizer.summary()
    );
}
