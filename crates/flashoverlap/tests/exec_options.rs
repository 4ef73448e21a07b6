//! Builder-equivalence coverage for the one option builder,
//! [`SequenceOptions`], on every execute entry point: a single
//! [`OverlapPlan`], a [`Pipeline`] and [`execute_sequence`].
//!
//! These tests pin the builder's composition rules: each mode
//! combination must produce the same report whether the options are
//! chained in one order or another, trace/instrument toggles must not
//! perturb timing, equivalent functional/resilient configurations must
//! agree with their timing-only counterparts, and the chain executor's
//! option rules hold on a single plan as on a chain.

#![allow(clippy::unwrap_used)]

use std::rc::Rc;

use flashoverlap::runtime::CommPattern;
use flashoverlap::{
    execute_sequence, FaultPlan, FlashOverlapError, FunctionalInputs, Instrumentation, LayerSpec,
    OverlapPlan, Pipeline, SequenceOptions, SequenceOutcome, SystemSpec, WatchdogConfig,
};
use gpu_sim::elementwise::ElementwiseOp;
use gpu_sim::gemm::GemmDims;
use planverify::Mutation;
use tensor::Matrix;

fn small_system() -> SystemSpec {
    let mut spec = SystemSpec::rtx4090(2);
    spec.arch.sm_count = 8;
    spec.comm_sms = 2;
    spec
}

fn plan() -> OverlapPlan {
    OverlapPlan::tuned(
        GemmDims::new(256, 256, 64),
        CommPattern::AllReduce,
        small_system(),
    )
    .unwrap()
}

/// `plan` with a fused `op` epilogue: a one-layer pipeline.
fn fused(op: ElementwiseOp) -> Pipeline {
    let plan = plan();
    Pipeline::with_plans(plan.system.clone(), vec![plan], vec![Some(op)]).unwrap()
}

#[test]
fn observation_options_do_not_perturb_timing() {
    // Attaching instrumentation and/or span tracing is observation
    // only: every combination must report the identical schedule.
    let plan = plan();
    let baseline = plan.execute_with(&SequenceOptions::new()).unwrap();
    let instr = Instrumentation::default();

    let traced = plan.execute_with(&SequenceOptions::new().trace()).unwrap();
    assert_eq!(traced.reports, baseline.reports);
    assert!(!traced.spans.is_empty(), "trace() records spans");
    assert!(
        baseline.spans.is_empty(),
        "spans stay empty unless requested"
    );

    let instrumented = plan
        .execute_with(&SequenceOptions::new().instrument(&instr))
        .unwrap();
    assert_eq!(instrumented.reports, baseline.reports);

    let both = plan
        .execute_with(&SequenceOptions::new().instrument(&instr).trace())
        .unwrap();
    assert_eq!(both.reports, baseline.reports);
    assert_eq!(both.spans, traced.spans);
}

#[test]
fn builder_order_is_immaterial() {
    // The builder only fills fields; chaining order must not matter.
    let layer = fused(ElementwiseOp::Relu);
    let inputs = [FunctionalInputs::random(layer.plans()[0].dims, 2, 42)];
    let a = layer
        .execute_with(&SequenceOptions::new().functional(&inputs).trace())
        .unwrap();
    let b = layer
        .execute_with(&SequenceOptions::new().trace().functional(&inputs))
        .unwrap();
    assert_eq!(a.reports, b.reports);
    assert_eq!(a.outputs, b.outputs);
    assert_eq!(a.spans, b.spans);
}

#[test]
fn functional_and_epilogue_modes_compose() {
    let plan = plan();
    let inputs = [FunctionalInputs::random(plan.dims, 2, 42)];

    let functional = plan
        .execute_with(&SequenceOptions::new().functional(&inputs))
        .unwrap();
    let outputs = &functional.outputs.as_ref().unwrap()[0];
    assert_eq!(outputs.len(), 2, "one logical output per rank");

    // The fused epilogue applies the op to the functional output: Relu
    // of the plain output must equal the fused run's output.
    let layer = fused(ElementwiseOp::Relu);
    let fused = layer
        .execute_with(&SequenceOptions::new().functional(&inputs))
        .unwrap();
    let fused_outputs = &fused.outputs.as_ref().unwrap()[0];
    for (plain, fused) in outputs.iter().zip(fused_outputs) {
        let expected: Vec<f32> = plain.as_slice().iter().map(|&v| v.max(0.0)).collect();
        assert_eq!(fused.as_slice(), &expected[..]);
    }

    // Epilogue-only runs stay timing-only (no outputs) but still pay
    // the fused kernel, so their report is self-consistent.
    let epilogue_only = layer.execute_with(&SequenceOptions::new()).unwrap();
    assert!(epilogue_only.outputs.is_none());
    assert_eq!(epilogue_only.reports, fused.reports);
}

#[test]
fn iteration_mode_reports_steady_state() {
    // Back-to-back iterations are `n` copies of the plan in one
    // sequence; the steady state is the total over `n`.
    let plan = plan();
    let iterations = [&plan; 3];
    let instr = Instrumentation::default();
    let steady = execute_sequence(&iterations, &SequenceOptions::new())
        .unwrap()
        .total
        / 3;
    let instrumented = execute_sequence(&iterations, &SequenceOptions::new().instrument(&instr))
        .unwrap()
        .total
        / 3;
    assert_eq!(steady, instrumented);
    // Steady-state per-iteration latency never exceeds a cold single
    // run (pipelining can only help).
    let single = plan.execute_with(&SequenceOptions::new()).unwrap();
    assert!(steady <= single.reports[0].latency);
}

#[test]
fn resilient_mode_composes_with_functional_and_trace() {
    let plan = plan();
    let faults = [FaultPlan::random(9, 2, plan.partition.num_groups())];
    let watchdog = WatchdogConfig::default();
    let inputs = [FunctionalInputs::random(plan.dims, 2, 43)];

    let timing = plan
        .execute_with(&SequenceOptions::new().resilient(&faults, &watchdog))
        .unwrap();
    let functional = plan
        .execute_with(
            &SequenceOptions::new()
                .functional(&inputs)
                .resilient(&faults, &watchdog),
        )
        .unwrap();
    // The fault plan and watchdog policy are deterministic, so the
    // timing-only and data-carrying runs reach the same outcome with
    // the same injected-fault count.
    assert_eq!(timing.outcomes, functional.outcomes);
    assert_eq!(timing.faults_armed, functional.faults_armed);
    assert!(functional.outputs.is_some());

    let traced = plan
        .execute_with(&SequenceOptions::new().resilient(&faults, &watchdog).trace())
        .unwrap();
    assert_eq!(traced.outcomes, timing.outcomes);
    assert!(!traced.spans.is_empty(), "resilient trace records spans");
}

#[test]
fn invalid_mode_combinations_are_rejected() {
    // The chain executor's rules apply to a single plan exactly as to a
    // chain: they are refused, never silently dropped.
    let plan = plan();
    let rejected = |options: &SequenceOptions| {
        matches!(
            plan.execute_with(options),
            Err(FlashOverlapError::BadInputs { .. })
        )
    };
    // Resilient runs inject faults only through their fault plans.
    let faults = [FaultPlan::none()];
    let watchdog = WatchdogConfig::default();
    let instr = Instrumentation {
        mutation: Some((0, Mutation::DropWait { rank: 0, group: 0 })),
        ..Instrumentation::default()
    };
    assert!(rejected(
        &SequenceOptions::new()
            .resilient(&faults, &watchdog)
            .instrument(&instr)
    ));
    // One fault plan per segment.
    let two = [FaultPlan::none(), FaultPlan::none()];
    assert!(rejected(&SequenceOptions::new().resilient(&two, &watchdog)));
}

fn pipeline() -> Pipeline {
    Pipeline::tuned(
        small_system(),
        vec![
            LayerSpec {
                dims: GemmDims::new(256, 128, 64),
                pattern: CommPattern::AllReduce,
                epilogue: Some(ElementwiseOp::RmsNorm {
                    weight: Rc::new(vec![1.0; 128]),
                    eps: 1e-6,
                }),
            },
            LayerSpec {
                dims: GemmDims::new(256, 64, 128),
                pattern: CommPattern::AllReduce,
                epilogue: None,
            },
        ],
    )
    .unwrap()
}

#[test]
fn pipeline_options_mirror_plan_options() {
    let pipeline = pipeline();
    let baseline = pipeline.execute_with(&SequenceOptions::new()).unwrap();

    let instr = Instrumentation::default();
    let instrumented = pipeline
        .execute_with(&SequenceOptions::new().instrument(&instr))
        .unwrap();
    assert_eq!(instrumented.reports, baseline.reports);

    // Layer 1 reads layer 0's epilogue output: its `a` stays empty.
    let mut rng = sim::DetRng::new(5);
    let inputs = [
        FunctionalInputs {
            a: (0..2).map(|_| Matrix::random(256, 64, &mut rng)).collect(),
            b: (0..2).map(|_| Matrix::random(64, 128, &mut rng)).collect(),
        },
        FunctionalInputs {
            a: Vec::new(),
            b: (0..2).map(|_| Matrix::random(128, 64, &mut rng)).collect(),
        },
    ];
    let functional = pipeline
        .execute_with(&SequenceOptions::new().functional(&inputs))
        .unwrap();
    assert_eq!(functional.reports, baseline.reports);
    assert_eq!(
        functional
            .outputs
            .as_ref()
            .and_then(|o| o.last())
            .map(Vec::len),
        Some(2),
        "one final-layer output per rank"
    );
}

#[test]
fn off_target_and_increment_mutations_are_rejected_on_every_entry_point() {
    // A mutation the runtime cannot apply must fail, not run clean: a
    // clean run would read like a missed detection. The increment kinds
    // are faults, armed through `SequenceOptions::resilient`.
    let plan = plan();
    let pipeline = pipeline();
    type Run<'a> = &'a dyn Fn(&SequenceOptions) -> Result<SequenceOutcome, FlashOverlapError>;
    let entries: [(&str, Run); 3] = [
        ("execute_with", &|o| plan.execute_with(o)),
        ("execute_sequence", &|o| {
            execute_sequence(&[&plan, &plan], o)
        }),
        ("Pipeline::execute_with", &|o| pipeline.execute_with(o)),
    ];
    let refused = [
        (2, Mutation::DropRearm),
        (0, Mutation::DropWait { rank: 2, group: 0 }),
        (0, Mutation::RaiseThreshold { rank: 0, group: 99 }),
        (
            0,
            Mutation::DropIncrements {
                rank: 0,
                group: 0,
                count: 1,
            },
        ),
    ];
    for (entry, run) in entries {
        for mutation in refused {
            let instr = Instrumentation {
                mutation: Some(mutation),
                ..Instrumentation::default()
            };
            let result = run(&SequenceOptions::new().instrument(&instr));
            assert!(
                matches!(result, Err(FlashOverlapError::BadInputs { .. })),
                "{entry} ran {mutation:?}: {result:?}"
            );
        }
    }
}
