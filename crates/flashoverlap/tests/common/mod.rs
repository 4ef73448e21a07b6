//! Fixtures shared by the integration tests: a miniature system, plans
//! split into wave groups on it, and runs under SimSan.

// Each test binary compiles its own copy and uses only part of it.
#![allow(dead_code)]

use flashoverlap::runtime::CommPattern;
use flashoverlap::{
    FlashOverlapError, Instrumentation, OverlapPlan, SequenceOptions, SequenceOutcome, SystemSpec,
    WavePartition,
};
use gpu_sim::gemm::GemmDims;
use planverify::Mutation;
use simsan::Sanitizer;

/// An `n`-GPU RTX 4090 system shrunk to 8 SMs, `comm_sms` of them held
/// by each in-flight collective.
///
/// With `comm_sms = 0` the planned waves equal the runtime waves: the
/// planner's capacity (`sm_count - comm_sms`) is what the simulated GEMM
/// actually gets, so group boundaries fall on real temporal boundaries of
/// the execution. Mutation coverage needs that: a vector-clock sanitizer
/// reports races of the *observed* execution, and a dropped signal edge
/// is only observable if some tile of its group is written after the
/// previous group's signal. When the planner reserves SMs no
/// communication is using yet, whole groups can collapse into one
/// runtime wave whose earlier signal already orders everything — a true
/// negative, not a blind spot. `comm_sms = 2` is the resilience
/// calibration: the watchdog's default deadline multiplier separates
/// clean runs from wedged ones on it.
pub fn mini_system(n: usize, comm_sms: u32) -> SystemSpec {
    let mut spec = SystemSpec::rtx4090(n);
    spec.arch.sm_count = 8;
    spec.comm_sms = comm_sms;
    spec
}

/// A plan of `dims` under `pattern` on `system` with its planned waves
/// split into `groups` groups: one per wave when `groups` covers them,
/// otherwise `groups - 1` equal groups and a catch-all tail.
pub fn grouped_plan(
    system: &SystemSpec,
    dims: GemmDims,
    pattern: CommPattern,
    groups: u32,
) -> OverlapPlan {
    let waves = system.planned_waves(dims);
    let partition = if groups >= waves {
        WavePartition::per_wave(waves)
    } else {
        let base = waves / groups;
        let mut sizes = vec![base; groups as usize - 1];
        sizes.push(waves - base * (groups - 1));
        WavePartition::new(sizes)
    };
    OverlapPlan::new(dims, pattern, system.clone(), partition).expect("valid plan")
}

/// A per-wave AllReduce plan of `dims` on `system`: one signal group per
/// wave.
pub fn per_wave_plan(system: &SystemSpec, dims: GemmDims) -> OverlapPlan {
    grouped_plan(system, dims, CommPattern::AllReduce, u32::MAX)
}

/// Runs a chain through `run` under SimSan, with `options` and seeded
/// with `mutation` at its segment.
pub fn sanitized(
    options: SequenceOptions<'_>,
    mutation: Option<(usize, Mutation)>,
    run: impl FnOnce(&SequenceOptions<'_>) -> Result<SequenceOutcome, FlashOverlapError>,
) -> Sanitizer {
    let sanitizer = Sanitizer::new();
    let instr = Instrumentation {
        monitor: Some(sanitizer.monitor()),
        probe: Some(sanitizer.probe()),
        mutation,
    };
    run(&options.instrument(&instr)).expect("chain runs");
    sanitizer
}

/// Runs `plan` once under SimSan, seeded with `mutation`.
pub fn run_sanitized(plan: &OverlapPlan, mutation: Option<Mutation>) -> Sanitizer {
    sanitized(
        SequenceOptions::new(),
        mutation.map(|m| (0, m)),
        |options| plan.execute_with(options),
    )
}
