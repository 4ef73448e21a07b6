//! Drives the mutation conformance matrix end to end.
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
//!    [`flashoverlap::runtime_seam`] names — the registry mutation itself
//!    under SimSan, or a `FaultPlan` under the resilient watchdog — so
//!    `Caught` coverage claims are backed by a real detection. The
//!    `chain` column runs on both chained entry points: a batch chain
//!    (`execute_sequence`) and a layer pipeline (`Pipeline`, whose
//!    layers carry fused epilogues); and
//! 3. every registered **caveat** is exercised as a concrete schedule:
//!    the observability condition holds (the dynamic layer misses or
//!    no-ops) while the static verdict is unchanged.

mod common;

use common::{mini_system, per_wave_plan, run_sanitized, sanitized};
use flashoverlap::resilience::{FaultPlan, WatchdogConfig};
use flashoverlap::runtime::CommPattern;
use flashoverlap::{
    execute_sequence, model_of_chain, runtime_seam, Fault, OverlapPlan, Pipeline, ResilientOutcome,
    RuntimeSeam, SequenceOptions, SequenceOutcome, SystemSpec,
};
use gpu_sim::elementwise::ElementwiseOp;
use gpu_sim::gemm::GemmDims;
use gpu_sim::RuntimeEventKind;
use planverify::{
    conformance_matrix, verify, DynamicCoverage, ExecPath, Expectation, Mutation, MutationKind,
};
use simsan::{Finding, Sanitizer};
use std::rc::Rc;

// ---------------------------------------------------------------------------
// Fixtures. The comm_sms = 0 systems keep planned waves == runtime waves,
// so dropped edges stay dynamically visible (see `common::mini_system`).
// ---------------------------------------------------------------------------

/// The 2-GPU miniature system on an A800 NVLink pair.
fn nvlink_system() -> SystemSpec {
    let mut spec = SystemSpec::a800(2);
    spec.arch.sm_count = 8;
    spec.comm_sms = 0;
    spec
}

/// An observable plan with at least two wave groups.
fn observable_plan() -> OverlapPlan {
    let p = per_wave_plan(&mini_system(2, 0), GemmDims::new(384, 512, 64));
    assert!(p.partition.num_groups() >= 2, "fixture needs >= 2 groups");
    p
}

/// A compute-bound plan (deep reduction on an NVLink pair): each GEMM
/// wave is far slower than shipping its payload, so stale-count windows
/// stay open long enough for the dynamic layer to observe.
fn compute_bound_plan() -> OverlapPlan {
    per_wave_plan(&nvlink_system(), GemmDims::new(384, 512, 4096))
}

/// The resilience-calibrated fixture (same shape as the resilience unit
/// tests): per-wave 256x256x64 across 2 GPUs, multi-group.
fn calibrated_plan() -> OverlapPlan {
    per_wave_plan(&mini_system(2, 2), GemmDims::new(256, 256, 64))
}

fn rms(cols: usize) -> Option<ElementwiseOp> {
    Some(ElementwiseOp::RmsNorm {
        weight: Rc::new(vec![1.0; cols]),
        eps: 1e-6,
    })
}

/// A layer pipeline of per-wave plans on `system`, every layer but the
/// last carrying a fused RMSNorm epilogue.
fn pipeline_on(system: SystemSpec, dims: &[GemmDims]) -> Pipeline {
    let plans: Vec<OverlapPlan> = dims.iter().map(|&d| per_wave_plan(&system, d)).collect();
    let epilogues = dims
        .iter()
        .enumerate()
        .map(|(i, d)| {
            if i + 1 < dims.len() {
                rms(d.n as usize)
            } else {
                None
            }
        })
        .collect();
    Pipeline::with_plans(system, plans, epilogues).expect("valid pipeline")
}

/// The two chained entry points the `chain` column covers.
enum Chain {
    /// `execute_sequence` batches.
    Batches(Vec<OverlapPlan>),
    /// `Pipeline::execute_with` layers.
    Layers(Box<Pipeline>),
}

impl Chain {
    fn name(&self) -> &'static str {
        match self {
            Chain::Batches(_) => "batch chain",
            Chain::Layers(_) => "layer pipeline",
        }
    }

    fn plans(&self) -> Vec<&OverlapPlan> {
        match self {
            Chain::Batches(plans) => plans.iter().collect(),
            Chain::Layers(pipeline) => pipeline.plans().iter().collect(),
        }
    }

    fn run(&self, options: &SequenceOptions) -> SequenceOutcome {
        match self {
            Chain::Batches(_) => execute_sequence(&self.plans(), options),
            Chain::Layers(pipeline) => pipeline.execute_with(options),
        }
        .expect("chain runs")
    }

    /// Runs the chain under SimSan, seeded with `mutation` at its
    /// segment.
    fn sanitized(&self, mutation: Option<(usize, Mutation)>) -> Sanitizer {
        sanitized(SequenceOptions::new(), mutation, |o| Ok(self.run(o)))
    }
}

/// A batch chain of `n` plans built by `plan`.
fn batches(n: usize, plan: fn() -> OverlapPlan) -> Chain {
    Chain::Batches(std::iter::repeat_with(plan).take(n).collect())
}

/// Unwraps the fault seam the registry maps a cell to.
fn fault_seam(mutation: &Mutation, path: ExecPath) -> Fault {
    match runtime_seam(mutation, path) {
        RuntimeSeam::Fault(f) => f,
        other => panic!("expected a fault seam for {mutation:?} on {path}, got {other:?}"),
    }
}

fn fired(outcome: &SequenceOutcome, kind: RuntimeEventKind) -> bool {
    !outcome.events_of(kind).is_empty()
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
            ExecPath::Single => model_of_chain(&[&plan]),
            ExecPath::Chain => model_of_chain(&chain),
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
        model
            .apply(&cell.mutation.sample(), segment)
            .expect("the sample targets the model");
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
fn wait_seams_are_caught_on_every_path() {
    for path in ExecPath::ALL {
        for kind in [MutationKind::DropWait, MutationKind::RaiseThreshold] {
            assert_eq!(runtime_seam(&kind.sample(), path), RuntimeSeam::Instrument);
        }
    }
    // DropWait: conditional on observability, and the comm_sms = 0
    // fixtures satisfy the condition — SimSan must flag every path.
    let plan = observable_plan();
    let s = run_sanitized(&plan, Some(Mutation::DropWait { rank: 0, group: 0 }));
    assert!(
        s.reports()
            .iter()
            .any(|f| matches!(f, Finding::UseBeforeSignal { .. })),
        "single-shot dropped wait went undetected: {}",
        s.summary()
    );

    // RaiseThreshold: unconditionally caught — lost signal + deadlock.
    let s = run_sanitized(&plan, Some(Mutation::RaiseThreshold { rank: 1, group: 1 }));
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

    // Chains: the mutation lands in the last segment, after the first
    // table set was reused (and reset).
    let chains = [
        batches(4, observable_plan),
        Chain::Layers(Box::new(
            Pipeline::tuned(
                mini_system(2, 0),
                vec![
                    layer(GemmDims::new(384, 512, 64), rms(512)),
                    layer(GemmDims::new(384, 256, 512), rms(256)),
                    layer(GemmDims::new(384, 128, 256), None),
                ],
            )
            .expect("valid pipeline"),
        )),
    ];
    for chain in &chains {
        let last = chain.plans().len() - 1;
        let s = chain.sanitized(Some((last, Mutation::DropWait { rank: 0, group: 0 })));
        assert!(
            !s.is_clean(),
            "{} dropped wait went undetected: {}",
            chain.name(),
            s.summary()
        );
        let s = chain.sanitized(Some((last, Mutation::RaiseThreshold { rank: 0, group: 0 })));
        assert!(
            s.reports()
                .iter()
                .any(|f| matches!(f, Finding::LostSignal { .. })),
            "{} raised threshold went undetected: {}",
            chain.name(),
            s.summary()
        );
    }
}

fn layer(dims: GemmDims, epilogue: Option<ElementwiseOp>) -> flashoverlap::LayerSpec {
    flashoverlap::LayerSpec {
        dims,
        pattern: CommPattern::AllReduce,
        epilogue,
    }
}

#[test]
fn fault_seams_escalate_the_watchdog_single_shot() {
    let plan = calibrated_plan();

    // DropIncrements x Single: the registry maps it to a dropped
    // counting-table increment; the watchdog must leave `Clean`.
    let fault = fault_seam(
        &Mutation::DropIncrements {
            rank: 0,
            group: 1,
            count: 1,
        },
        ExecPath::Single,
    );
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
        fired(&result, RuntimeEventKind::WatchdogFired),
        "the watchdog must fire on a starved group"
    );

    // DelayIncrements x Single: the watchdog observes the delay exactly
    // when it pushes the run past the deadline. The seam's fixed delay
    // is small against this plan's absolute latency, so tighten the
    // deadline multiplier until it sits between the clean run and the
    // delayed one (calibrated: 1.05 fires on both, 1.2 on neither; the
    // simulator is deterministic, so the margin is stable).
    let fault = fault_seam(
        &Mutation::DelayIncrements {
            rank: 0,
            group: 1,
            count: 1,
        },
        ExecPath::Single,
    );
    let tight = WatchdogConfig {
        deadline_multiplier: 1.1,
        ..WatchdogConfig::default()
    };
    let clean = plan
        .execute_with(&SequenceOptions::new().resilient(&[FaultPlan::default()], &tight))
        .expect("clean run terminates");
    assert!(
        !fired(&clean, RuntimeEventKind::WatchdogFired),
        "control: the tightened deadline must not fire without the fault"
    );
    let result = plan
        .execute_with(&SequenceOptions::new().resilient(&[FaultPlan::single(fault)], &tight))
        .expect("resilient run terminates");
    assert!(
        fired(&result, RuntimeEventKind::FaultInjected),
        "the delay fault must take effect"
    );
    assert!(
        fired(&result, RuntimeEventKind::WatchdogFired),
        "the watchdog must observe a delay past its deadline"
    );
}

#[test]
fn fault_seams_escalate_the_chain_watchdog() {
    // Per chain: where the dropped increments wedge a segment (segment,
    // group, count) and where the delay lands (segment, group). The
    // batch chain arms its drop at the last batch — steady-state
    // inherited-table territory — and its delay at batch 0, whose
    // deadline is anchored at chain start with exactly that segment's
    // budget; deeper batches re-base the deadline on frontier advances
    // and the pipelining slack would absorb the 200us shift. The
    // pipeline wedges and delays its middle layer's last group (the tuned
    // pipeline collapses to one group per layer, which cannot exercise
    // the tail rung, so its layers are per-wave).
    let layers = pipeline_on(
        mini_system(2, 2),
        &[
            GemmDims::new(1024, 128, 64),
            GemmDims::new(1024, 64, 128),
            GemmDims::new(1024, 128, 64),
        ],
    );
    let last_group = layers.plans()[1].group_tile_counts().len() - 1;
    assert!(last_group >= 1, "fixture needs a multi-group wedged layer");
    assert!(calibrated_plan().group_tile_counts().len() >= 2);
    let cases = [
        (batches(4, calibrated_plan), (3, 1, 1), (0, 1)),
        (
            Chain::Layers(Box::new(layers)),
            (1, last_group, 64),
            (1, last_group),
        ),
    ];
    let tight = WatchdogConfig {
        deadline_multiplier: 1.1,
        ..WatchdogConfig::default()
    };
    for (chain, (drop_at, group, count), (delay_at, delay_group)) in cases {
        let name = chain.name();
        let segments = chain.plans().len();
        let armed_at = |at: usize, mutation: Mutation| {
            let mut faults = vec![FaultPlan::none(); segments];
            faults[at] = FaultPlan::single(fault_seam(&mutation, ExecPath::Chain));
            faults
        };

        // DropIncrements x Chain: the per-segment FaultPlan arms the
        // dropped increments and the chain watchdog must break the wedge.
        let rank = 0;
        let faults = armed_at(drop_at, Mutation::DropIncrements { rank, group, count });
        let outcome =
            chain.run(&SequenceOptions::new().resilient(&faults, &WatchdogConfig::default()));
        assert!(
            !matches!(outcome.outcomes[drop_at], ResilientOutcome::Clean),
            "{name}: dropped increment in segment {drop_at} must escalate, got {:?}",
            outcome.outcomes
        );
        assert!(
            fired(&outcome, RuntimeEventKind::WatchdogFired),
            "{name}: the chain watchdog must fire on the starved segment"
        );

        // DelayIncrements x Chain: per-segment deadlines come from each
        // segment's predictor-derived budget; the tightened multiplier
        // separates the clean chain from the delayed one.
        let none = vec![FaultPlan::none(); segments];
        let clean = chain.run(&SequenceOptions::new().resilient(&none, &tight));
        assert!(
            !fired(&clean, RuntimeEventKind::WatchdogFired),
            "{name}: control: the tightened deadline must not fire without the fault"
        );
        let group = delay_group;
        let faults = armed_at(
            delay_at,
            Mutation::DelayIncrements {
                rank,
                group,
                count: 1,
            },
        );
        let delayed = chain.run(&SequenceOptions::new().resilient(&faults, &tight));
        assert!(
            fired(&delayed, RuntimeEventKind::FaultInjected),
            "{name}: the delay fault must take effect"
        );
        assert!(
            fired(&delayed, RuntimeEventKind::WatchdogFired),
            "{name}: the chain watchdog must observe a delay past the per-segment deadline"
        );
    }
}

#[test]
fn no_fault_reachable_cell_is_left_not_applicable() {
    // The acceptance bar for the chain-recovery work: every cell whose
    // seam is a runtime fault must claim dynamic coverage — zero
    // `NotApplicable` verdicts remain on fault-reachable paths.
    for cell in conformance_matrix() {
        if let RuntimeSeam::Fault(_) = runtime_seam(&cell.mutation.sample(), cell.path) {
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
fn rearm_seam_is_caught_when_compute_bound() {
    assert_eq!(
        runtime_seam(&Mutation::DropRearm, ExecPath::Chain),
        RuntimeSeam::Instrument
    );
    // Segment 2 is the first to reuse a counting table, and runs a deep
    // reduction in both chains, so its GEMM is still writing when the
    // comm stream reaches its waits.
    let chains = [
        batches(3, compute_bound_plan),
        Chain::Layers(Box::new(pipeline_on(
            nvlink_system(),
            &[
                GemmDims::new(384, 4096, 64),
                GemmDims::new(384, 512, 4096),
                GemmDims::new(384, 512, 512),
            ],
        ))),
    ];
    for chain in &chains {
        // Control: the same chain with its rearm in place is clean.
        let control = chain.sanitized(None);
        assert!(
            control.is_clean(),
            "{}: {}",
            chain.name(),
            control.summary()
        );
        // Dropping segment 2's rearm lets segment 0's stale counts
        // release its collectives before its tiles are signaled.
        let s = chain.sanitized(Some((2, Mutation::DropRearm)));
        assert!(
            s.reports()
                .iter()
                .any(|f| matches!(f, Finding::UseBeforeSignal { .. })),
            "{}: dropped rearm went undetected: {}",
            chain.name(),
            s.summary()
        );
        // planverify flags the same missing reset from plan data.
        let mut model = model_of_chain(&chain.plans());
        model
            .apply(&Mutation::DropRearm, 2)
            .expect("segment 2 exists");
        assert!(
            verify(&model).count_of("stale-rearm") > 0,
            "{}: planverify must flag the dropped rearm",
            chain.name()
        );
    }
}

// ---------------------------------------------------------------------------
// 3. Caveats: each registered observability condition, as a schedule.
// ---------------------------------------------------------------------------

#[test]
fn sequence_edge_caveat_static_catches_what_a_fast_batch_hides() {
    // Comm-bound batches (shallow reduction, PCIe pair): batch 2's GEMM
    // finishes long before the communication stream reaches its stale
    // counts, so the dropped rearm closes no window SimSan can see.
    let chain = batches(3, observable_plan);
    let s = chain.sanitized(Some((2, Mutation::DropRearm)));
    assert!(
        s.is_clean(),
        "expected the comm-bound schedule to mask the dropped edge (caveat \
         sequence-edge-observability), but SimSan flagged it: {}",
        s.summary()
    );

    // planverify flags the missing reset unconditionally.
    let mut model = model_of_chain(&chain.plans());
    model
        .apply(&Mutation::DropRearm, 2)
        .expect("segment 2 exists");
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
    let plan = per_wave_plan(&system, dims);
    assert!(
        plan.partition.num_groups() >= 2,
        "fixture needs >= 2 planned groups"
    );
    let last = plan.partition.num_groups() - 1;
    let s = run_sanitized(
        &plan,
        Some(Mutation::DropWait {
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
    let mut model = model_of_chain(&[&plan]);
    model
        .apply(
            &Mutation::DropWait {
                rank: 0,
                group: last,
            },
            0,
        )
        .expect("the plan has this group");
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
    let mut model = model_of_chain(&[&plan]);
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
        mutated.apply(&mutation, 0).expect("the plan has group 1");
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
fn every_runtime_seam_is_reachable_from_the_registry() {
    // Nothing the runtime can inject is left outside the matrix.
    let seams: Vec<RuntimeSeam> = conformance_matrix()
        .iter()
        .map(|cell| runtime_seam(&cell.mutation.sample(), cell.path))
        .collect();
    let reaches = |pred: fn(&RuntimeSeam) -> bool| seams.iter().any(pred);
    assert!(reaches(|s| *s == RuntimeSeam::Instrument));
    assert!(reaches(|s| matches!(
        s,
        RuntimeSeam::Fault(Fault::DroppedIncrement { .. })
    )));
    assert!(reaches(|s| matches!(
        s,
        RuntimeSeam::Fault(Fault::DelayedIncrement { .. })
    )));
    assert!(reaches(|s| matches!(s, RuntimeSeam::Nothing(_))));
}
