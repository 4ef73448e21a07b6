//! Drives the coverage-guided mutation conformance matrix end to end.
//!
//! `planverify::conformance_matrix()` classifies every registered
//! mutation kind crossed with every execute path. These tests make the
//! registry honest in both directions:
//!
//! 1. the **static arm** of every cell is re-proved: `CaughtStatic`
//!    cells produce violations from plan data alone, and every other
//!    cell stays statically clean (the clock-free model really is blind
//!    where the registry says it is);
//! 2. the **dynamic arm** is driven through the seam
//!    [`flashoverlap::runtime_seam`] names — `SignalMutation` under
//!    SimSan, `FaultPlan` under the resilient watchdog, and the
//!    sequence executor's dropped cross-batch edge — so `Caught`
//!    coverage claims are backed by a real detection; and
//! 3. every registered **caveat** is exercised as a concrete schedule:
//!    the observability condition holds (the dynamic layer misses or
//!    no-ops) while the static verdict is unchanged.

use flashoverlap::resilience::{FaultPlan, WatchdogConfig};
use flashoverlap::runtime::CommPattern;
use flashoverlap::{
    execute_sequence, model_of_chain, model_of_plan, runtime_seam, Instrumentation, OverlapPlan,
    ResilientOutcome, RuntimeSeam, SequenceOptions, SignalMutation, SystemSpec, WavePartition,
};
use gpu_sim::gemm::GemmDims;
use gpu_sim::RuntimeEventKind;
use planverify::{
    caveats, conformance_matrix, verify, DynamicCoverage, ExecPath, Expectation, Mutation,
    MutationKind,
};
use simsan::{Finding, Sanitizer};

// ---------------------------------------------------------------------------
// Shared fixtures (same observability rationale as simsan_runtime.rs /
// simsan_sequence.rs: comm_sms = 0 keeps planned waves == runtime waves,
// so dropped edges stay dynamically visible).
// ---------------------------------------------------------------------------

fn small_system() -> SystemSpec {
    let mut spec = SystemSpec::rtx4090(2);
    spec.arch.sm_count = 8;
    spec.comm_sms = 0;
    spec
}

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

/// An observable plan with at least two wave groups.
fn observable_plan() -> OverlapPlan {
    let p = plan_on(small_system(), GemmDims::new(384, 512, 64));
    assert!(p.partition.num_groups() >= 2, "fixture needs >= 2 groups");
    p
}

/// A compute-bound plan (deep reduction on an NVLink pair): each GEMM
/// wave is far slower than shipping its payload, so stale-count windows
/// stay open long enough for the dynamic layer to observe.
fn compute_bound_plan() -> OverlapPlan {
    plan_on(nvlink_system(), GemmDims::new(384, 512, 4096))
}

/// The representative mutation the static arm applies per kind — same
/// targets the CLI `verify` subcommand uses.
fn sample_mutation(kind: MutationKind) -> Mutation {
    match kind {
        MutationKind::DropWait => Mutation::DropWait { rank: 0, group: 0 },
        MutationKind::RaiseThreshold => Mutation::RaiseThreshold { rank: 0, group: 0 },
        MutationKind::DropIncrements => Mutation::DropIncrements {
            rank: 0,
            group: 0,
            count: 1,
        },
        MutationKind::DelayIncrements => Mutation::DelayIncrements {
            rank: 0,
            group: 0,
            count: 1,
        },
        MutationKind::ReorderIncrements => Mutation::ReorderIncrements { rank: 0 },
        MutationKind::DropRearm => Mutation::DropRearm,
    }
}

fn run_sanitized(plan: &OverlapPlan, mutation: Option<SignalMutation>) -> Sanitizer {
    let sanitizer = Sanitizer::new();
    let instr = Instrumentation {
        monitor: Some(sanitizer.monitor()),
        probe: Some(sanitizer.probe()),
        mutation,
    };
    plan.execute_with(&SequenceOptions::new().instrument(&instr))
        .expect("simulation runs");
    sanitizer
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

/// Unwraps the `SignalMutation` seam the registry maps a cell to.
fn signal_seam(mutation: &Mutation, path: ExecPath) -> SignalMutation {
    match runtime_seam(mutation, path) {
        RuntimeSeam::Signal(m) => m,
        other => panic!("expected a signal seam for {mutation:?} on {path}, got {other:?}"),
    }
}

// ---------------------------------------------------------------------------
// 1. Static arm: every cell's verdict re-proved from plan data alone.
// ---------------------------------------------------------------------------

#[test]
fn static_arm_conforms_in_every_cell() {
    let plan = observable_plan();
    let chain: Vec<&OverlapPlan> = std::iter::repeat_n(&plan, 4).collect();
    for cell in conformance_matrix() {
        let mut model = match cell.path {
            ExecPath::Single => model_of_plan(&plan),
            ExecPath::Pipeline => model_of_chain(&chain, "layer"),
            ExecPath::Sequence => model_of_chain(&chain, "batch"),
        };
        assert!(
            verify(&model).is_clean(),
            "unmutated {} model must verify clean",
            cell.path
        );
        // Rearm edges only exist from the first table reuse (segment 2).
        let segment = match cell.mutation {
            MutationKind::DropRearm => 2.min(model.segments.len() - 1),
            _ => 0,
        };
        model.apply(&sample_mutation(cell.mutation), segment);
        let report = verify(&model);
        match cell.expected {
            Expectation::CaughtStatic => assert!(
                !report.is_clean(),
                "cell ({}, {}) expected caught-static but verified clean",
                cell.mutation,
                cell.path
            ),
            Expectation::CaughtDynamic(_)
            | Expectation::Benign(_)
            | Expectation::NotApplicable(_) => assert!(
                report.is_clean(),
                "cell ({}, {}) must stay statically clean, got: {:?}",
                cell.mutation,
                cell.path,
                report.violations
            ),
        }
    }
}

// ---------------------------------------------------------------------------
// 2. Dynamic arm: the seam each `Caught` cell names really detects.
// ---------------------------------------------------------------------------

#[test]
fn signal_seams_are_caught_on_every_path() {
    // DropWait: conditional on observability, and the comm_sms = 0
    // fixtures satisfy the condition — SimSan must flag all three paths.
    let plan = observable_plan();
    let drop_wait = signal_seam(&Mutation::DropWait { rank: 0, group: 0 }, ExecPath::Single);
    let s = run_sanitized(&plan, Some(drop_wait));
    assert!(
        s.reports()
            .iter()
            .any(|f| matches!(f, Finding::UseBeforeSignal { .. })),
        "single-shot dropped wait went undetected: {}",
        s.summary()
    );

    // RaiseThreshold: unconditionally caught — lost signal + deadlock.
    let raise = signal_seam(
        &Mutation::RaiseThreshold { rank: 1, group: 1 },
        ExecPath::Single,
    );
    let s = run_sanitized(&plan, Some(raise));
    let reports = s.reports();
    assert!(
        reports
            .iter()
            .any(|f| matches!(f, Finding::LostSignal { .. })),
        "starved wait not flagged: {reports:?}"
    );
    assert!(
        reports
            .iter()
            .any(|f| matches!(f, Finding::Deadlock { .. })),
        "wedged streams not flagged: {reports:?}"
    );

    // Sequence path: the mutation lands in the last batch (first-reuse
    // territory for the ping-ponged tables).
    let plans = [
        observable_plan(),
        observable_plan(),
        observable_plan(),
        observable_plan(),
    ];
    let refs: Vec<&OverlapPlan> = plans.iter().collect();
    let drop_wait = signal_seam(
        &Mutation::DropWait { rank: 0, group: 0 },
        ExecPath::Sequence,
    );
    let s = sanitized_sequence(&refs, SequenceOptions::new(), Some(drop_wait));
    assert!(
        !s.is_clean(),
        "sequence dropped wait went undetected: {}",
        s.summary()
    );
    let raise = signal_seam(
        &Mutation::RaiseThreshold { rank: 1, group: 1 },
        ExecPath::Sequence,
    );
    let s = sanitized_sequence(&refs, SequenceOptions::new(), Some(raise));
    assert!(
        s.reports()
            .iter()
            .any(|f| matches!(f, Finding::LostSignal { .. })),
        "sequence raised threshold went undetected: {}",
        s.summary()
    );

    // Pipeline path: mutate the layer that reuses (and resets) the first
    // table set.
    let pipeline = three_layer_pipeline();
    for mutation in [
        signal_seam(
            &Mutation::DropWait { rank: 0, group: 0 },
            ExecPath::Pipeline,
        ),
        signal_seam(
            &Mutation::RaiseThreshold { rank: 0, group: 0 },
            ExecPath::Pipeline,
        ),
    ] {
        let sanitizer = Sanitizer::new();
        let instr = Instrumentation {
            monitor: Some(sanitizer.monitor()),
            probe: Some(sanitizer.probe()),
            mutation: Some(mutation),
        };
        pipeline
            .execute_with(&SequenceOptions::new().instrument(&instr))
            .expect("pipeline runs");
        assert!(
            !sanitizer.is_clean(),
            "pipeline {mutation:?} went undetected: {}",
            sanitizer.summary()
        );
    }
}

fn three_layer_pipeline() -> flashoverlap::Pipeline {
    use flashoverlap::pipeline::LayerSpec;
    use gpu_sim::elementwise::ElementwiseOp;
    use std::rc::Rc;

    let rms = |cols: usize| ElementwiseOp::RmsNorm {
        weight: Rc::new(vec![1.0; cols]),
        eps: 1e-6,
    };
    flashoverlap::Pipeline::tuned(
        small_system(),
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
fn fault_seams_escalate_the_watchdog_single_shot() {
    // Same shape as the resilience unit tests: 256x256x64 across 2 GPUs,
    // watchdog at its default deadline multiplier.
    let dims = GemmDims::new(256, 256, 64);
    let mut system = SystemSpec::rtx4090(2);
    system.arch.sm_count = 8;
    system.comm_sms = 2;
    let config = gpu_sim::gemm::GemmConfig::choose(dims, &system.arch);
    let waves = config.grid(dims).num_tiles().div_ceil(system.compute_sms());
    let plan = OverlapPlan::new(
        dims,
        CommPattern::AllReduce,
        system,
        WavePartition::per_wave(waves),
    )
    .expect("valid plan");

    // DropIncrements x Single: the registry maps it to a dropped
    // counting-table increment; the watchdog must leave `Clean`.
    let fault = match runtime_seam(
        &Mutation::DropIncrements {
            rank: 0,
            group: 1,
            count: 1,
        },
        ExecPath::Single,
    ) {
        RuntimeSeam::Fault(f) => f,
        other => panic!("expected a fault seam, got {other:?}"),
    };
    let result = plan
        .execute_with(
            &SequenceOptions::new()
                .resilient(&[FaultPlan::single(fault)], &WatchdogConfig::default()),
        )
        .expect("resilient run terminates");
    assert!(
        !matches!(result.outcomes[0], ResilientOutcome::Clean),
        "dropped increment must escalate, got {:?}",
        result.outcomes
    );
    assert!(
        !result.events_of(RuntimeEventKind::WatchdogFired).is_empty(),
        "the watchdog must fire on a starved group"
    );

    // DelayIncrements x Single: the watchdog observes the delay exactly
    // when it pushes the run past the deadline. The seam's fixed delay
    // is small against this plan's absolute latency, so tighten the
    // deadline multiplier until it sits between the clean run and the
    // delayed one (calibrated: 1.05 fires on both, 1.2 on neither; the
    // simulator is deterministic, so the margin is stable).
    let fault = match runtime_seam(
        &Mutation::DelayIncrements {
            rank: 0,
            group: 1,
            count: 1,
        },
        ExecPath::Single,
    ) {
        RuntimeSeam::Fault(f) => f,
        other => panic!("expected a fault seam, got {other:?}"),
    };
    let tight = WatchdogConfig {
        deadline_multiplier: 1.1,
        ..WatchdogConfig::default()
    };
    let clean = plan
        .execute_with(&SequenceOptions::new().resilient(&[FaultPlan::default()], &tight))
        .expect("clean run terminates");
    assert!(
        clean.events_of(RuntimeEventKind::WatchdogFired).is_empty(),
        "control: the tightened deadline must not fire without the fault"
    );
    let result = plan
        .execute_with(&SequenceOptions::new().resilient(&[FaultPlan::single(fault)], &tight))
        .expect("resilient run terminates");
    assert!(
        !result.events_of(RuntimeEventKind::FaultInjected).is_empty(),
        "the delay fault must take effect"
    );
    assert!(
        !result.events_of(RuntimeEventKind::WatchdogFired).is_empty(),
        "the watchdog must observe a delay past its deadline"
    );
}

/// The resilience-calibrated fixture (same shape as the single-shot
/// fault-seam test): per-wave 256x256x64 across 2 GPUs, multi-group.
fn calibrated_plan() -> OverlapPlan {
    let dims = GemmDims::new(256, 256, 64);
    let mut system = SystemSpec::rtx4090(2);
    system.arch.sm_count = 8;
    system.comm_sms = 2;
    let config = gpu_sim::gemm::GemmConfig::choose(dims, &system.arch);
    let waves = config.grid(dims).num_tiles().div_ceil(system.compute_sms());
    OverlapPlan::new(
        dims,
        CommPattern::AllReduce,
        system,
        WavePartition::per_wave(waves),
    )
    .expect("valid plan")
}

fn chain_fault(mutation: &Mutation, path: ExecPath) -> flashoverlap::Fault {
    match runtime_seam(mutation, path) {
        RuntimeSeam::Fault(f) => f,
        other => panic!("expected a fault seam for {mutation:?} on {path}, got {other:?}"),
    }
}

#[test]
fn fault_seams_escalate_the_chain_watchdog_on_the_sequence_path() {
    // DropIncrements x Sequence: the per-segment FaultPlan arms the
    // dropped increment at the last batch — steady-state inherited-table
    // territory — and the chain watchdog must break the wedge.
    let plan = calibrated_plan();
    assert!(
        plan.group_tile_counts().len() >= 2,
        "need a completed group"
    );
    let plans: Vec<&OverlapPlan> = std::iter::repeat_n(&plan, 4).collect();
    let fault = chain_fault(
        &Mutation::DropIncrements {
            rank: 0,
            group: 1,
            count: 1,
        },
        ExecPath::Sequence,
    );
    let mut faults = vec![FaultPlan::none(); 4];
    faults[3] = FaultPlan::single(fault);
    let outcome = execute_sequence(
        &plans,
        &SequenceOptions::new().resilient(&faults, &WatchdogConfig::default()),
    )
    .expect("resilient sequence terminates");
    assert!(
        !matches!(outcome.outcomes[3], ResilientOutcome::Clean),
        "dropped increment in batch 3 must escalate, got {:?}",
        outcome.outcomes
    );
    assert!(
        outcome
            .events
            .iter()
            .any(|e| e.kind == RuntimeEventKind::WatchdogFired),
        "the chain watchdog must fire on the starved segment"
    );

    // DelayIncrements x Sequence: per-segment deadlines are calibrated
    // from each batch's predictor-derived budget; tighten the multiplier
    // until it separates the clean chain from the delayed one.
    let tight = WatchdogConfig {
        deadline_multiplier: 1.1,
        ..WatchdogConfig::default()
    };
    let none = vec![FaultPlan::none(); 4];
    let clean = execute_sequence(&plans, &SequenceOptions::new().resilient(&none, &tight))
        .expect("clean chain terminates");
    assert!(
        !clean
            .events
            .iter()
            .any(|e| e.kind == RuntimeEventKind::WatchdogFired),
        "control: the tightened deadline must not fire without the fault"
    );
    // The delay is armed at batch 0: its deadline is anchored at chain
    // start with exactly that segment's budget (the same calibration as
    // the single-shot test), whereas deeper segments re-base the
    // deadline on frontier advances and the pipelining slack would
    // absorb a 200us shift.
    let fault = chain_fault(
        &Mutation::DelayIncrements {
            rank: 0,
            group: 1,
            count: 1,
        },
        ExecPath::Sequence,
    );
    let mut faults = vec![FaultPlan::none(); 4];
    faults[0] = FaultPlan::single(fault);
    let delayed = execute_sequence(&plans, &SequenceOptions::new().resilient(&faults, &tight))
        .expect("delayed chain terminates");
    assert!(
        delayed
            .events
            .iter()
            .any(|e| e.kind == RuntimeEventKind::FaultInjected),
        "the delay fault must take effect"
    );
    assert!(
        delayed
            .events
            .iter()
            .any(|e| e.kind == RuntimeEventKind::WatchdogFired),
        "the chain watchdog must observe a delay past the per-segment deadline"
    );
}

#[test]
fn fault_seams_escalate_the_chain_watchdog_on_the_pipeline_path() {
    use gpu_sim::elementwise::ElementwiseOp;
    use std::rc::Rc;

    // Chainable per-wave layers on the calibrated system (the tuned
    // pipeline collapses to one group per layer, which cannot exercise
    // the tail rung).
    let mut system = SystemSpec::rtx4090(2);
    system.arch.sm_count = 8;
    system.comm_sms = 2;
    let rms = |cols: usize| ElementwiseOp::RmsNorm {
        weight: Rc::new(vec![1.0; cols]),
        eps: 1e-6,
    };
    let per_wave = |dims: GemmDims| {
        let config = gpu_sim::gemm::GemmConfig::choose(dims, &system.arch);
        let waves = config.grid(dims).num_tiles().div_ceil(system.compute_sms());
        OverlapPlan::new(
            dims,
            CommPattern::AllReduce,
            system.clone(),
            WavePartition::per_wave(waves),
        )
        .expect("valid plan")
    };
    let plans = vec![
        per_wave(GemmDims::new(1024, 128, 64)),
        per_wave(GemmDims::new(1024, 64, 128)),
        per_wave(GemmDims::new(1024, 128, 64)),
    ];
    let last_group = plans[1].group_tile_counts().len() - 1;
    assert!(last_group >= 1, "fixture needs a multi-group wedged layer");
    let pipeline = flashoverlap::Pipeline::with_plans(
        system.clone(),
        plans,
        vec![Some(rms(128)), Some(rms(64)), None],
    )
    .expect("valid pipeline");

    // DropIncrements x Pipeline: wedge layer 1, recover via tail rung.
    let fault = chain_fault(
        &Mutation::DropIncrements {
            rank: 0,
            group: last_group,
            count: 64,
        },
        ExecPath::Pipeline,
    );
    let mut faults = vec![FaultPlan::none(); 3];
    faults[1] = FaultPlan::single(fault);
    let outcome = pipeline
        .execute_with(&SequenceOptions::new().resilient(&faults, &WatchdogConfig::default()))
        .expect("resilient pipeline terminates");
    assert!(
        !matches!(outcome.outcomes[1], ResilientOutcome::Clean),
        "dropped increment in layer 1 must escalate, got {:?}",
        outcome.outcomes
    );
    assert!(
        outcome
            .events
            .iter()
            .any(|e| e.kind == RuntimeEventKind::WatchdogFired),
        "the chain watchdog must fire on the starved layer"
    );

    // DelayIncrements x Pipeline under the tightened per-segment
    // deadline: clean control stays silent, the delayed layer fires.
    let tight = WatchdogConfig {
        deadline_multiplier: 1.1,
        ..WatchdogConfig::default()
    };
    let none = vec![FaultPlan::none(); 3];
    let clean = pipeline
        .execute_with(&SequenceOptions::new().resilient(&none, &tight))
        .expect("clean pipeline terminates");
    assert!(
        !clean
            .events
            .iter()
            .any(|e| e.kind == RuntimeEventKind::WatchdogFired),
        "control: the tightened deadline must not fire without the fault"
    );
    let fault = chain_fault(
        &Mutation::DelayIncrements {
            rank: 0,
            group: last_group,
            count: 1,
        },
        ExecPath::Pipeline,
    );
    let mut faults = vec![FaultPlan::none(); 3];
    faults[1] = FaultPlan::single(fault);
    let delayed = pipeline
        .execute_with(&SequenceOptions::new().resilient(&faults, &tight))
        .expect("delayed pipeline terminates");
    assert!(
        delayed
            .events
            .iter()
            .any(|e| e.kind == RuntimeEventKind::FaultInjected),
        "the delay fault must take effect"
    );
    assert!(
        delayed
            .events
            .iter()
            .any(|e| e.kind == RuntimeEventKind::WatchdogFired),
        "the chain watchdog must observe a delay past the per-segment deadline"
    );
}

#[test]
fn no_fault_reachable_cell_is_left_not_applicable() {
    // The acceptance bar for the chain-recovery work: every cell whose
    // seam is a runtime fault must claim dynamic coverage — zero
    // `NotApplicable` verdicts remain on fault-reachable paths.
    for cell in conformance_matrix() {
        let mutation = sample_mutation(cell.mutation);
        if let RuntimeSeam::Fault(_) = runtime_seam(&mutation, cell.path) {
            assert!(
                !matches!(cell.expected, Expectation::NotApplicable(_)),
                "cell ({}, {}) is fault-reachable but marked not-applicable",
                cell.mutation,
                cell.path
            );
            assert!(
                matches!(cell.dynamic, DynamicCoverage::Caught(_)),
                "cell ({}, {}) is fault-reachable but claims dynamic coverage {:?}",
                cell.mutation,
                cell.path,
                cell.dynamic.label()
            );
        }
    }
}

#[test]
fn sequence_edge_seam_is_caught_when_compute_bound() {
    assert!(matches!(
        runtime_seam(&Mutation::DropRearm, ExecPath::Sequence),
        RuntimeSeam::SequenceEdge
    ));
    let plans = [
        compute_bound_plan(),
        compute_bound_plan(),
        compute_bound_plan(),
    ];
    let refs: Vec<&OverlapPlan> = plans.iter().collect();
    // Control: identical schedule with the rearm in place is clean.
    let control = sanitized_sequence(&refs, SequenceOptions::new(), None);
    assert!(control.is_clean(), "{}", control.summary());
    let s = sanitized_sequence(&refs, SequenceOptions::new().drop_cross_batch_edge(2), None);
    assert!(
        s.reports()
            .iter()
            .any(|f| matches!(f, Finding::UseBeforeSignal { .. })),
        "dropped cross-batch rearm went undetected: {}",
        s.summary()
    );
}

/// A three-layer pipeline of compute-bound per-wave layers: layer 2, the
/// first to reuse a counting table, runs a deep reduction, so its GEMM
/// is still writing when the comm stream reaches its waits.
fn compute_bound_pipeline() -> flashoverlap::Pipeline {
    use gpu_sim::elementwise::ElementwiseOp;
    use std::rc::Rc;

    let rms = |cols: usize| ElementwiseOp::RmsNorm {
        weight: Rc::new(vec![1.0; cols]),
        eps: 1e-6,
    };
    flashoverlap::Pipeline::with_plans(
        nvlink_system(),
        vec![
            plan_on(nvlink_system(), GemmDims::new(384, 4096, 64)),
            plan_on(nvlink_system(), GemmDims::new(384, 512, 4096)),
            plan_on(nvlink_system(), GemmDims::new(384, 512, 512)),
        ],
        vec![Some(rms(4096)), Some(rms(512)), None],
    )
    .expect("valid pipeline")
}

#[test]
fn pipeline_edge_seam_is_caught_when_compute_bound() {
    assert!(matches!(
        runtime_seam(&Mutation::DropRearm, ExecPath::Pipeline),
        RuntimeSeam::SequenceEdge
    ));
    let pipeline = compute_bound_pipeline();
    let run = |options: SequenceOptions<'_>| {
        let sanitizer = Sanitizer::new();
        let instr = Instrumentation {
            monitor: Some(sanitizer.monitor()),
            probe: Some(sanitizer.probe()),
            mutation: None,
        };
        pipeline
            .execute_with(&options.instrument(&instr))
            .expect("pipeline runs");
        sanitizer
    };
    // Control: the same chain with its rearm in place is clean.
    let control = run(SequenceOptions::new());
    assert!(control.is_clean(), "{}", control.summary());
    // Dropping layer 2's rearm lets layer 0's stale counts release its
    // collectives before its tiles are signaled.
    let s = run(SequenceOptions::new().drop_cross_batch_edge(2));
    assert!(
        s.reports()
            .iter()
            .any(|f| matches!(f, Finding::UseBeforeSignal { .. })),
        "dropped pipeline rearm went undetected: {}",
        s.summary()
    );
    // planverify flags the same missing reset from plan data.
    let plans: Vec<&OverlapPlan> = pipeline.plans().iter().collect();
    let mut model = model_of_chain(&plans, "layer");
    model.apply(&Mutation::DropRearm, 2);
    assert!(
        verify(&model).count_of("stale-rearm") > 0,
        "planverify must flag the dropped pipeline rearm"
    );
}

// ---------------------------------------------------------------------------
// 3. Caveats: each registered observability condition, as a schedule.
// ---------------------------------------------------------------------------

#[test]
fn sequence_edge_caveat_static_catches_what_a_fast_batch_hides() {
    // Comm-bound batches (shallow reduction, PCIe pair): batch 2's GEMM
    // finishes long before the communication stream reaches its stale
    // counts, so the dropped rearm closes no window SimSan can see.
    let plans = [
        plan_on(small_system(), GemmDims::new(384, 512, 64)),
        plan_on(small_system(), GemmDims::new(384, 512, 64)),
        plan_on(small_system(), GemmDims::new(384, 512, 64)),
    ];
    let refs: Vec<&OverlapPlan> = plans.iter().collect();
    let s = sanitized_sequence(&refs, SequenceOptions::new().drop_cross_batch_edge(2), None);
    assert!(
        s.is_clean(),
        "expected the comm-bound schedule to mask the dropped edge (caveat \
         sequence-edge-observability), but SimSan flagged it: {}",
        s.summary()
    );

    // planverify flags the missing reset unconditionally.
    let mut model = model_of_chain(&refs, "batch");
    model.apply(&Mutation::DropRearm, 2);
    let report = verify(&model);
    assert!(
        report.violations.iter().any(|v| v.label() == "stale-rearm"),
        "planverify must flag the dropped rearm regardless of timing: {:?}",
        report.violations
    );
}

#[test]
fn wave_collapse_caveat_static_catches_what_the_collapsed_run_hides() {
    // The planner reserves comm_sms SMs the simulated GEMM still gets
    // (no collective is resident yet), so both planned waves collapse
    // into one runtime wave and the dropped last-group wait opens no
    // observable use-before-signal window.
    let dims = GemmDims::new(384, 512, 64);
    let mut system = SystemSpec::rtx4090(2);
    system.arch.sm_count = 12;
    system.comm_sms = 4;
    let plan = plan_on(system, dims);
    assert!(
        plan.partition.num_groups() >= 2,
        "fixture needs >= 2 planned groups"
    );
    let last = plan.partition.num_groups() - 1;
    let s = run_sanitized(
        &plan,
        Some(SignalMutation::DropWait {
            rank: 0,
            group: last,
        }),
    );
    assert!(
        s.is_clean(),
        "expected the collapsed run to mask the dropped wait (caveat wave-collapse), but \
         SimSan flagged it: {}",
        s.summary()
    );
    assert!(s.accesses_checked() > 0, "monitor saw no accesses");

    // planverify works from plan data, not runtime timing: still caught.
    let mut model = model_of_plan(&plan);
    model.apply(
        &Mutation::DropWait {
            rank: 0,
            group: last,
        },
        0,
    );
    assert!(
        !verify(&model).is_clean(),
        "planverify must catch the dropped wait from plan data alone"
    );
}

#[test]
fn zero_payload_group_caveat_is_a_no_op_for_both_layers() {
    // A zero-payload group schedules neither wait nor collective, which
    // is exactly a `GroupModel` with `wait: None` and no reads. Real
    // token plans cannot produce one (self-routed rows keep every
    // group's total positive), so the caveat is pinned at model level.
    let plan = observable_plan();
    let mut model = model_of_plan(&plan);
    for seg in &mut model.segments {
        for rank in 0..seg.ranks.len() {
            if let Some(g) = seg.groups_mut(rank).iter_mut().find(|g| g.group == 1) {
                g.wait = None;
                g.increments = 0;
                g.reads = 0..0;
            }
        }
        for writer in &mut seg.writers {
            for tile in writer.tiles.iter_mut().filter(|tw| tw.group == 1) {
                tile.intervals = 0..0;
            }
        }
    }
    assert!(
        verify(&model).is_clean(),
        "a zero-payload group must not trip the verifier"
    );
    // Wait mutations aimed at the payload-free group are structural
    // no-ops for the static checker too.
    for mutation in [
        Mutation::DropWait { rank: 0, group: 1 },
        Mutation::RaiseThreshold { rank: 0, group: 1 },
    ] {
        let mut mutated = model.clone();
        mutated.apply(&mutation, 0);
        assert!(
            verify(&mutated).is_clean(),
            "{mutation:?} on a zero-payload group must stay a no-op"
        );
    }
}

// ---------------------------------------------------------------------------
// 4. Benign cells and registry coverage.
// ---------------------------------------------------------------------------

#[test]
fn benign_reorder_cells_stay_clean_both_ways() {
    let plan = observable_plan();
    for path in ExecPath::ALL {
        // Statically: the totals-only model is invariant under
        // permutation (already asserted cell-wise above); dynamically:
        // the registry maps the cell to no seam at all, with a reason.
        match runtime_seam(&Mutation::ReorderIncrements { rank: 0 }, path) {
            RuntimeSeam::Nothing(reason) => {
                assert!(!reason.is_empty(), "benign cell must say why");
            }
            other => panic!("reorder on {path} must map to no seam, got {other:?}"),
        }
    }
    // The simulator's own issue order is one of the permutations the
    // model proves equivalent: the unmutated run is clean.
    let s = run_sanitized(&plan, None);
    assert!(s.is_clean(), "{}", s.summary());
}

#[test]
fn registry_covers_every_historical_mutation_mechanism() {
    // The matrix must collectively reach all three pre-registry
    // mechanisms — SimSan's SignalMutation, the FaultPlan increment
    // arms, and the sequence executor's dropped cross-batch edge — so
    // nothing the old ad-hoc tests could express is lost.
    let mut signal_drop_wait = false;
    let mut signal_raise = false;
    let mut fault_dropped = false;
    let mut fault_delayed = false;
    let mut sequence_edge = false;
    for cell in conformance_matrix() {
        let mutation = match cell.mutation {
            MutationKind::DropWait => Mutation::DropWait { rank: 0, group: 0 },
            MutationKind::RaiseThreshold => Mutation::RaiseThreshold { rank: 0, group: 0 },
            MutationKind::DropIncrements => Mutation::DropIncrements {
                rank: 0,
                group: 0,
                count: 1,
            },
            MutationKind::DelayIncrements => Mutation::DelayIncrements {
                rank: 0,
                group: 0,
                count: 1,
            },
            MutationKind::ReorderIncrements => Mutation::ReorderIncrements { rank: 0 },
            MutationKind::DropRearm => Mutation::DropRearm,
        };
        match runtime_seam(&mutation, cell.path) {
            RuntimeSeam::Signal(SignalMutation::DropWait { .. }) => signal_drop_wait = true,
            RuntimeSeam::Signal(SignalMutation::RaiseThreshold { .. }) => signal_raise = true,
            RuntimeSeam::Fault(flashoverlap::Fault::DroppedIncrement { .. }) => {
                fault_dropped = true;
            }
            RuntimeSeam::Fault(flashoverlap::Fault::DelayedIncrement { .. }) => {
                fault_delayed = true;
            }
            RuntimeSeam::SequenceEdge => sequence_edge = true,
            _ => {}
        }
        // Conditional coverage must point at a registered caveat.
        if let DynamicCoverage::Conditional(id) = cell.dynamic {
            assert!(
                caveats().iter().any(|c| c.id == id),
                "cell ({}, {}) references unregistered caveat {id}",
                cell.mutation,
                cell.path
            );
        }
    }
    assert!(signal_drop_wait, "SignalMutation::DropWait unreachable");
    assert!(signal_raise, "SignalMutation::RaiseThreshold unreachable");
    assert!(fault_dropped, "Fault::DroppedIncrement unreachable");
    assert!(fault_delayed, "Fault::DelayedIncrement unreachable");
    assert!(sequence_edge, "dropped cross-batch edge unreachable");
}
