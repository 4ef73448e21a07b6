//! Cross-batch pipelined overlap: executing a sequence of plans on one
//! replica's stream pair so batch `k + 1`'s GEMM waves are scheduled
//! while batch `k`'s tail collectives drain.
//!
//! A serving replica closes batches one after another; running them in
//! separate simulations (or with a full barrier between them) leaves the
//! GEMM-tail/collective-tail overlap window on the table. [`execute_sequence`]
//! lowers the batches to one chain segment each (see the chain executor
//! in `chain.rs`): the compute stream is in order, so batch `k + 1`'s
//! GEMM starts right after batch `k`'s GEMM retires — while batch `k`'s
//! tail collectives still drain on the communication stream — and the
//! ping-ponged counting tables are rearmed with cross-batch
//! happens-before edges SimSan verifies like any other signal edge.
//!
//! [`SequenceOptions::serial`] switches to the non-pipelined reference
//! schedule (a full barrier between batches), and
//! [`SequenceOptions::drop_cross_batch_edge`] deliberately skips one
//! batch's table rearm — the mutation self-test a correct sanitizer
//! must flag as use-before-signal.
//!
//! [`SequenceOptions`] and [`SequenceOutcome`] are the options and
//! results of every execution, not only of sequences: a single
//! [`OverlapPlan`] is a one-segment chain and a [`crate::Pipeline`] is a
//! chain whose segments carry the layers' fused epilogues.

use gpu_sim::RuntimeEvent;
use sim::SimDuration;
use tensor::Matrix;

use crate::chain::{execute_chain, execute_chain_in};
use crate::error::FlashOverlapError;
use crate::resilience::{FaultPlan, ResilientOutcome, WatchdogConfig};
use crate::runtime::{FunctionalInputs, Instrumentation, OverlapPlan, RunReport};
use crate::world::ChainWorld;

/// Options for every execution: [`execute_sequence`],
/// [`OverlapPlan::execute_with`] (a one-segment chain) and
/// [`crate::Pipeline::execute_with`] (one segment per layer). Default
/// options run a pipelined, timing-only chain.
#[derive(Debug, Default)]
pub struct SequenceOptions<'a> {
    pub(crate) serial: bool,
    pub(crate) instrument: Option<&'a Instrumentation>,
    pub(crate) trace: bool,
    pub(crate) functional: Option<&'a [FunctionalInputs]>,
    pub(crate) drop_cross_batch_edge: Option<usize>,
    pub(crate) resilient: Option<(&'a [FaultPlan], &'a WatchdogConfig)>,
}

impl<'a> SequenceOptions<'a> {
    /// Pipelined, timing-only options.
    pub fn new() -> Self {
        SequenceOptions::default()
    }

    /// Full barrier between segments: segment `k + 1`'s GEMM waits for
    /// segment `k`'s collectives to drain. The reference schedule —
    /// functionally bit-identical to the pipelined one, only slower.
    pub fn serial(mut self) -> Self {
        self.serial = true;
        self
    }

    /// Attaches observation hooks. A seeded
    /// [`crate::runtime::SignalMutation`] applies to the last segment
    /// (after counting-table reuse reached steady state), and an
    /// instrumented run
    /// skips the quiescence check: a wedge the mutation causes is left
    /// for the attached probe to report at drain time, not an error.
    pub fn instrument(mut self, instr: &'a Instrumentation) -> Self {
        self.instrument = Some(instr);
        self
    }

    /// Records per-stream operation spans into
    /// [`SequenceOutcome::spans`].
    pub fn trace(mut self) -> Self {
        self.trace = true;
        self
    }

    /// Functional mode: `inputs[i]` feeds segment `i`; per-segment
    /// outputs land in [`SequenceOutcome::outputs`]. A segment fed by
    /// its predecessor's fused epilogue (a pipeline layer after the
    /// first) reads only `inputs[i].b`; its `a` may be empty.
    pub fn functional(mut self, inputs: &'a [FunctionalInputs]) -> Self {
        self.functional = Some(inputs);
        self
    }

    /// Deliberately skips segment `segment`'s counting-table rearm (the
    /// wait-previous-comm → reset → ready edges on table reuse). The
    /// table then still holds the saturated counts of the segment that
    /// used it two slots earlier, so this segment's waits are satisfied
    /// by *stale* signals and its collectives read tiles the GEMM has
    /// not yet produced: the cross-batch use-before-signal bug class a
    /// correct sanitizer must flag. Only meaningful for `segment >= 2`
    /// (the first reuse of a table set); otherwise a no-op.
    pub fn drop_cross_batch_edge(mut self, segment: usize) -> Self {
        self.drop_cross_batch_edge = Some(segment);
        self
    }

    /// Runs the whole chain under the chain watchdog with deterministic
    /// fault injection: `faults[i]` arms at segment `i`'s position in
    /// the stream order (the table-quarantine rule disarms whatever
    /// budget the previous same-parity segment left on the inherited
    /// table), and a wedge at segment `k` is broken by the escalation
    /// ladder without poisoning the double-buffered tables segment
    /// `k + 1` inherits. One [`ResilientOutcome`] per segment lands in
    /// [`SequenceOutcome::outcomes`]. Incompatible with probe/mutation
    /// instrumentation and [`SequenceOptions::drop_cross_batch_edge`].
    pub fn resilient(mut self, faults: &'a [FaultPlan], watchdog: &'a WatchdogConfig) -> Self {
        self.resilient = Some((faults, watchdog));
        self
    }
}

/// Results of every execution (see [`SequenceOptions`]); a single plan
/// reports one segment.
#[derive(Debug, Clone)]
pub struct SequenceOutcome {
    /// Launch of segment 0 to the last segment's completion.
    pub total: SimDuration,
    /// Per-segment reports. Times are absolute simulation times,
    /// monotone in segment order (segment `i`'s `latency` is its
    /// completion time).
    pub reports: Vec<RunReport>,
    /// Recorded per-stream spans when tracing was requested.
    pub spans: Vec<gpu_sim::OpSpan>,
    /// Per-segment per-rank logical outputs in functional mode: the
    /// fused epilogue's output when the segment has one, otherwise the
    /// remapped receive data.
    pub outputs: Option<Vec<Vec<Matrix>>>,
    /// Per-segment termination outcome. All `Clean` on non-resilient
    /// runs; under [`SequenceOptions::resilient`], segment `k` wedging
    /// ends it `Recovered`/`Degraded` while later segments report how
    /// they rode out the recovery.
    pub outcomes: Vec<ResilientOutcome>,
    /// Fault/recovery timeline of a resilient run (empty otherwise).
    pub events: Vec<RuntimeEvent>,
    /// Total faults armed across all segments of a resilient run.
    pub faults_armed: usize,
}

impl SequenceOutcome {
    /// Events of one kind from the resilient event log.
    pub fn events_of(&self, kind: gpu_sim::RuntimeEventKind) -> Vec<&RuntimeEvent> {
        self.events.iter().filter(|e| e.kind == kind).collect()
    }
}

/// Executes `plans` back to back on one simulated cluster — batch `i`
/// is plan `i` — reusing two ping-ponged counting-table sets across
/// batches. All plans must target systems with the same rank count (a
/// serving replica executes its chain on one TP group).
///
/// # Errors
///
/// Returns [`FlashOverlapError::BadInputs`] on an empty sequence,
/// mismatched rank counts, malformed functional inputs or invalid
/// option combinations; [`FlashOverlapError::Deadlock`] when an
/// uninstrumented schedule wedges; and [`FlashOverlapError::Simulation`]
/// on engine failure.
pub fn execute_sequence(
    plans: &[&OverlapPlan],
    options: &SequenceOptions,
) -> Result<SequenceOutcome, FlashOverlapError> {
    execute_chain(plans, &[], options)
}

/// [`execute_sequence`] in a reused [`ChainWorld`]: the world is reset
/// to exactly the state a fresh run starts from, so the outcome is
/// identical to `execute_sequence`'s, and it is cleared again when the
/// sequence ends (also on error). A serving replica runs every chain in
/// one world instead of building a cluster per chain; hand the outcome's
/// spans back with [`ChainWorld::recycle_spans`] once read.
///
/// # Errors
///
/// As [`execute_sequence`].
pub fn execute_sequence_in(
    world: &mut ChainWorld,
    plans: &[&OverlapPlan],
    options: &SequenceOptions,
) -> Result<SequenceOutcome, FlashOverlapError> {
    execute_chain_in(world, plans, &[], options)
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::indexing_slicing)]
mod tests {
    use super::*;
    use crate::partition::WavePartition;
    use crate::runtime::CommPattern;
    use crate::system::SystemSpec;
    use gpu_sim::gemm::{GemmConfig, GemmDims};
    use tensor::allclose;

    fn small_system(n: usize) -> SystemSpec {
        let mut spec = SystemSpec::rtx4090(n);
        spec.arch.sm_count = 8;
        spec.comm_sms = 2;
        spec
    }

    fn plan_for(dims: GemmDims, system: &SystemSpec) -> OverlapPlan {
        let config = GemmConfig::choose(dims, &system.arch);
        let waves = config.grid(dims).num_tiles().div_ceil(system.compute_sms());
        OverlapPlan::new(
            dims,
            CommPattern::AllReduce,
            system.clone(),
            WavePartition::per_wave(waves),
        )
        .unwrap()
    }

    fn reduced_reference(inputs: &FunctionalInputs) -> Matrix {
        let mut acc = tensor::gemm(&inputs.a[0], &inputs.b[0]);
        for r in 1..inputs.a.len() {
            acc = acc.add(&tensor::gemm(&inputs.a[r], &inputs.b[r]));
        }
        acc
    }

    #[test]
    fn pipelined_beats_serial_and_stays_bit_exact() {
        let system = small_system(2);
        let dims = [
            GemmDims::new(256, 256, 64),
            GemmDims::new(384, 256, 64),
            GemmDims::new(256, 256, 64),
            GemmDims::new(512, 256, 64),
        ];
        let plans: Vec<OverlapPlan> = dims.iter().map(|&d| plan_for(d, &system)).collect();
        let refs: Vec<&OverlapPlan> = plans.iter().collect();
        let inputs: Vec<FunctionalInputs> = dims
            .iter()
            .enumerate()
            .map(|(i, &d)| FunctionalInputs::random(d, 2, 100 + i as u64))
            .collect();
        let pipelined =
            execute_sequence(&refs, &SequenceOptions::new().functional(&inputs)).unwrap();
        let serial =
            execute_sequence(&refs, &SequenceOptions::new().serial().functional(&inputs)).unwrap();
        assert!(
            pipelined.total < serial.total,
            "pipelined {} not faster than serial {}",
            pipelined.total,
            serial.total
        );
        let pipe_out = pipelined.outputs.unwrap();
        let serial_out = serial.outputs.unwrap();
        for (b, inp) in inputs.iter().enumerate() {
            let expected = reduced_reference(inp);
            for d in 0..2 {
                assert_eq!(
                    pipe_out[b][d].as_slice(),
                    serial_out[b][d].as_slice(),
                    "batch {b} rank {d}: pipelined and serial must be bit-exact"
                );
                assert!(allclose(&pipe_out[b][d], &expected, 1e-2), "batch {b}");
            }
        }
        assert_eq!(pipelined.reports.len(), 4);
        for pair in pipelined.reports.windows(2) {
            assert!(
                pair[0].latency <= pair[1].latency,
                "batches complete in order"
            );
        }
    }

    #[test]
    fn resilient_fault_free_chain_is_clean_and_bit_exact() {
        use crate::resilience::{FaultPlan, WatchdogConfig};
        let system = small_system(2);
        let dims = [
            GemmDims::new(256, 256, 64),
            GemmDims::new(384, 256, 64),
            GemmDims::new(256, 256, 64),
        ];
        let plans: Vec<OverlapPlan> = dims.iter().map(|&d| plan_for(d, &system)).collect();
        let refs: Vec<&OverlapPlan> = plans.iter().collect();
        let inputs: Vec<FunctionalInputs> = dims
            .iter()
            .enumerate()
            .map(|(i, &d)| FunctionalInputs::random(d, 2, 300 + i as u64))
            .collect();
        let faults = vec![FaultPlan::none(); plans.len()];
        let watchdog = WatchdogConfig::default();
        let resilient = execute_sequence(
            &refs,
            &SequenceOptions::new()
                .functional(&inputs)
                .resilient(&faults, &watchdog),
        )
        .unwrap();
        let plain = execute_sequence(&refs, &SequenceOptions::new().functional(&inputs)).unwrap();
        assert_eq!(resilient.outcomes.len(), 3);
        assert!(
            resilient.outcomes.iter().all(|o| o.label() == "clean"),
            "{:?}",
            resilient.outcomes
        );
        assert_eq!(resilient.faults_armed, 0);
        assert_eq!(
            resilient.total, plain.total,
            "fault-free watchdog is timing-neutral"
        );
        let res_out = resilient.outputs.unwrap();
        let plain_out = plain.outputs.unwrap();
        for b in 0..3 {
            for d in 0..2 {
                assert_eq!(res_out[b][d].as_slice(), plain_out[b][d].as_slice());
            }
        }
    }

    #[test]
    fn wedged_batch_recovers_without_poisoning_inheritors() {
        use crate::resilience::{Fault, FaultPlan, ResilientOutcome, WatchdogConfig};
        let system = small_system(2);
        let dims = [
            GemmDims::new(256, 256, 64),
            GemmDims::new(512, 256, 64),
            GemmDims::new(256, 256, 64),
            GemmDims::new(384, 256, 64),
        ];
        let plans: Vec<OverlapPlan> = dims.iter().map(|&d| plan_for(d, &system)).collect();
        let refs: Vec<&OverlapPlan> = plans.iter().collect();
        let inputs: Vec<FunctionalInputs> = dims
            .iter()
            .enumerate()
            .map(|(i, &d)| FunctionalInputs::random(d, 2, 400 + i as u64))
            .collect();
        // Drop more increments than batch 1's last group can spare: its
        // wait starves and the watchdog must break the wedge. Batch 1's
        // dims partition into multiple groups and only the last is
        // starved, so earlier groups complete and the ladder takes the
        // tail rung (a single-group batch could only go bulk/degraded) —
        // batch 1 sits mid-chain, so batch 3 inherits its parity-1 table.
        let last_group = plans[1].group_tile_counts().len() - 1;
        assert!(last_group >= 1, "test needs a multi-group wedged batch");
        let mut faults = vec![FaultPlan::none(); plans.len()];
        faults[1] = FaultPlan::single(Fault::DroppedIncrement {
            rank: 0,
            group: last_group,
            count: 64,
        });
        let watchdog = WatchdogConfig::default();
        let outcome = execute_sequence(
            &refs,
            &SequenceOptions::new()
                .functional(&inputs)
                .resilient(&faults, &watchdog),
        )
        .unwrap();
        assert_eq!(outcome.faults_armed, 1);
        assert!(
            matches!(outcome.outcomes[1], ResilientOutcome::Recovered { .. }),
            "wedged batch must recover: {:?}",
            outcome.outcomes
        );
        for (b, o) in outcome.outcomes.iter().enumerate() {
            assert_ne!(o.label(), "degraded", "batch {b}: {o:?}");
        }
        // The hard invariant: recovery must not poison downstream
        // parity — every batch's outputs match the fault-free run
        // tile for tile.
        let fault_free =
            execute_sequence(&refs, &SequenceOptions::new().functional(&inputs)).unwrap();
        let wedged_out = outcome.outputs.unwrap();
        let clean_out = fault_free.outputs.unwrap();
        for b in 0..4 {
            for d in 0..2 {
                assert_eq!(
                    wedged_out[b][d].as_slice(),
                    clean_out[b][d].as_slice(),
                    "batch {b} rank {d} diverged after recovery"
                );
            }
        }
        // The recovery timeline names the wedge and the re-issued work.
        assert!(outcome
            .events
            .iter()
            .any(|e| e.detail.to_string().contains("segment 1 wedge detected")));
        assert!(outcome.events.iter().any(|e| e
            .detail
            .to_string()
            .contains("re-issued as tail collective")));
    }

    #[test]
    fn batch_losing_its_first_signal_degrades_with_no_recovered_groups() {
        use crate::resilience::{Fault, FaultPlan, ResilientOutcome, WatchdogConfig};
        let system = small_system(2);
        let dims = [
            GemmDims::new(256, 256, 64),
            GemmDims::new(512, 256, 64),
            GemmDims::new(256, 256, 64),
        ];
        let plans: Vec<OverlapPlan> = dims.iter().map(|&d| plan_for(d, &system)).collect();
        let refs: Vec<&OverlapPlan> = plans.iter().collect();
        let inputs: Vec<FunctionalInputs> = dims
            .iter()
            .enumerate()
            .map(|(i, &d)| FunctionalInputs::random(d, 2, 500 + i as u64))
            .collect();
        // Batch 1's group 0 never signals: no group completes before the
        // wedge, so the ladder goes straight to the bulk fallback. The
        // bulk re-issue then completes every group, but none of them
        // completed before the overlap was abandoned.
        let mut faults = vec![FaultPlan::none(); plans.len()];
        faults[1] = FaultPlan::single(Fault::DroppedIncrement {
            rank: 0,
            group: 0,
            count: 64,
        });
        let watchdog = WatchdogConfig::default();
        let outcome = execute_sequence(
            &refs,
            &SequenceOptions::new()
                .functional(&inputs)
                .resilient(&faults, &watchdog),
        )
        .unwrap();
        match &outcome.outcomes[1] {
            ResilientOutcome::Degraded {
                cause,
                recovered_groups,
            } => {
                let cause = cause.to_string();
                assert!(cause.starts_with("overlap abandoned: deadlock"), "{cause}");
                assert!(cause.contains("group 0"), "cause names the wedge: {cause}");
                assert!(recovered_groups.is_empty(), "{recovered_groups:?}");
            }
            other => panic!("expected degraded fallback, got {other:?}"),
        }
        let clean = execute_sequence(&refs, &SequenceOptions::new().functional(&inputs)).unwrap();
        let (wedged_out, clean_out) = (outcome.outputs.unwrap(), clean.outputs.unwrap());
        for b in 0..3 {
            for d in 0..2 {
                assert_eq!(wedged_out[b][d].as_slice(), clean_out[b][d].as_slice());
            }
        }
    }

    #[test]
    fn resilient_rejects_edge_drop_and_mismatched_fault_plans() {
        use crate::resilience::{FaultPlan, WatchdogConfig};
        let system = small_system(2);
        let plan = plan_for(GemmDims::new(256, 256, 64), &system);
        let watchdog = WatchdogConfig::default();
        let faults = vec![FaultPlan::none()];
        assert!(matches!(
            execute_sequence(
                &[&plan],
                &SequenceOptions::new()
                    .resilient(&faults, &watchdog)
                    .drop_cross_batch_edge(2)
            ),
            Err(FlashOverlapError::BadInputs { .. })
        ));
        let two = vec![FaultPlan::none(); 2];
        assert!(matches!(
            execute_sequence(&[&plan], &SequenceOptions::new().resilient(&two, &watchdog)),
            Err(FlashOverlapError::BadInputs { .. })
        ));
    }

    #[test]
    fn empty_sequence_is_rejected() {
        assert!(matches!(
            execute_sequence(&[], &SequenceOptions::new()),
            Err(FlashOverlapError::BadInputs { .. })
        ));
    }

    #[test]
    fn mismatched_input_count_is_rejected() {
        let system = small_system(2);
        let plan = plan_for(GemmDims::new(256, 256, 64), &system);
        let inputs = vec![FunctionalInputs::random(GemmDims::new(256, 256, 64), 2, 1); 2];
        assert!(matches!(
            execute_sequence(&[&plan], &SequenceOptions::new().functional(&inputs)),
            Err(FlashOverlapError::BadInputs { .. })
        ));
    }
}
