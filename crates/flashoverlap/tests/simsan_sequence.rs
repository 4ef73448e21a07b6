//! Sanitizer checks of cross-batch pipelined sequences.
//!
//! The serving layer chains batches through
//! [`flashoverlap::execute_sequence`], ping-ponging two counting-table
//! sets so batch *k+1*'s GEMM waves overlap batch *k*'s tail
//! collectives. Table reuse is only safe because the executor inserts
//! a reset/ready edge pair before rearming a table set. These tests pin
//! that pipelined cross-batch schedules — homogeneous and mixed-shape —
//! run with **zero** SimSan findings. A corruption in the last batch
//! (`Mutation::DropWait`) and a skipped rearm (`Mutation::DropRearm`) are
//! driven in `conformance_matrix.rs`.

mod common;

use common::{mini_system, per_wave_plan, sanitized};
use flashoverlap::{execute_sequence, OverlapPlan, SequenceOptions};
use gpu_sim::gemm::GemmDims;
use simsan::Sanitizer;

/// A per-wave `m x 512 x 64` plan on the 2-GPU miniature system whose
/// planned waves equal its runtime waves.
fn plan_for(m: u32) -> OverlapPlan {
    per_wave_plan(&mini_system(2, 0), GemmDims::new(m, 512, 64))
}

fn sanitized_sequence(plans: &[OverlapPlan], options: SequenceOptions<'_>) -> Sanitizer {
    let refs: Vec<&OverlapPlan> = plans.iter().collect();
    sanitized(options, None, |o| execute_sequence(&refs, o))
}

#[test]
fn pipelined_cross_batch_sequence_is_race_free() {
    let plans = [plan_for(384), plan_for(256), plan_for(384), plan_for(512)];
    let sanitizer = sanitized_sequence(&plans, SequenceOptions::new());
    assert!(sanitizer.is_clean(), "{}", sanitizer.summary());
    assert!(sanitizer.accesses_checked() > 0, "monitor saw no accesses");
}

#[test]
fn serial_cross_batch_sequence_is_race_free() {
    let plans = [plan_for(384), plan_for(256), plan_for(384)];
    let sanitizer = sanitized_sequence(&plans, SequenceOptions::new().serial());
    assert!(sanitizer.is_clean(), "{}", sanitizer.summary());
}
