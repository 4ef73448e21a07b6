//! Multi-layer overlapped pipelines (extension).
//!
//! The paper evaluates single operators; real deployments chain them:
//! every transformer layer runs GEMM + collective (+ norm/activation)
//! twice, feeding the next layer. A [`Pipeline`] executes a sequence of
//! tuned [`OverlapPlan`]s in *one* simulation — each layer's GEMM is
//! enqueued behind the previous layer's fused epilogue on the same
//! compute stream, so launch behaviour, SM contention, and signaling all
//! compose exactly as they would on a device, and in functional mode
//! real activations flow layer to layer.

use gpu_sim::elementwise::ElementwiseOp;
use gpu_sim::gemm::GemmDims;
use gpu_sim::RuntimeEvent;
use sim::SimDuration;
use tensor::Matrix;

use crate::chain::{execute_chain, Chain};
use crate::error::FlashOverlapError;
use crate::resilience::{FaultPlan, ResilientOutcome, WatchdogConfig};
use crate::runtime::{CommPattern, FunctionalInputs, OverlapPlan, RunReport};
use crate::system::SystemSpec;
use crate::tuner::predictive_search;

/// One pipeline stage: a communicated GEMM plus the element-wise
/// epilogue that feeds the next stage.
#[derive(Debug)]
pub struct LayerSpec {
    /// Local GEMM dimensions of this layer.
    pub dims: GemmDims,
    /// Communication pattern after the GEMM.
    pub pattern: CommPattern,
    /// Fused post-communication epilogue. Required for every layer except
    /// the last (the next layer consumes its logical output).
    pub epilogue: Option<ElementwiseOp>,
}

/// A tuned multi-layer pipeline.
///
/// # Examples
///
/// ```
/// use flashoverlap::pipeline::{LayerSpec, Pipeline};
/// use flashoverlap::runtime::CommPattern;
/// use flashoverlap::SystemSpec;
/// use gpu_sim::elementwise::ElementwiseOp;
/// use gpu_sim::gemm::GemmDims;
/// use std::rc::Rc;
///
/// let dims = GemmDims::new(2048, 2048, 2048);
/// let rms = ElementwiseOp::RmsNorm { weight: Rc::new(vec![1.0; 2048]), eps: 1e-6 };
/// let pipeline = Pipeline::tuned(
///     SystemSpec::rtx4090(4),
///     vec![
///         LayerSpec { dims, pattern: CommPattern::AllReduce, epilogue: Some(rms) },
///         LayerSpec { dims, pattern: CommPattern::AllReduce, epilogue: None },
///     ],
/// )?;
/// let outcome = pipeline.execute_with(&flashoverlap::PipelineExecOptions::new())?;
/// assert_eq!(outcome.report.layers.len(), 2);
/// # Ok::<(), flashoverlap::FlashOverlapError>(())
/// ```
#[derive(Debug)]
pub struct Pipeline {
    /// Target system.
    pub system: SystemSpec,
    plans: Vec<OverlapPlan>,
    epilogues: Vec<Option<ElementwiseOp>>,
}

/// Timing results of a pipeline execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PipelineReport {
    /// End-to-end simulated time.
    pub total: SimDuration,
    /// Per-layer operator reports (latencies are absolute simulation
    /// times, monotone across layers).
    pub layers: Vec<RunReport>,
}

/// Options for [`Pipeline::execute_with`] — the pipeline mirror of
/// [`crate::runtime::ExecOptions`]. Default options run the whole
/// pipeline in timing mode.
#[derive(Debug, Default)]
pub struct PipelineExecOptions<'a> {
    instrument: Option<&'a crate::runtime::Instrumentation>,
    mutate_layer: usize,
    functional: Option<(&'a [Matrix], &'a [Vec<Matrix>])>,
    resilient: Option<(&'a [FaultPlan], &'a WatchdogConfig)>,
}

impl<'a> PipelineExecOptions<'a> {
    /// Plain timing-mode options.
    pub fn new() -> Self {
        PipelineExecOptions::default()
    }

    /// Attaches observation hooks — the sanitizer entry point for the
    /// multi-layer path. A seeded [`crate::runtime::SignalMutation`]
    /// applies to the layer selected by
    /// [`PipelineExecOptions::mutate_layer`], and a wedge it causes is
    /// left for the attached probe to report at drain time, not an
    /// error.
    pub fn instrument(mut self, instr: &'a crate::runtime::Instrumentation) -> Self {
        self.instrument = Some(instr);
        self
    }

    /// Selects the layer a seeded mutation applies to (default: 0).
    pub fn mutate_layer(mut self, layer: usize) -> Self {
        self.mutate_layer = layer;
        self
    }

    /// Functional mode: layer 0 consumes `first_a`; every later layer
    /// consumes the previous layer's fused epilogue output;
    /// `weights[l]` is layer `l`'s per-rank `K x N` operand set.
    pub fn functional(mut self, first_a: &'a [Matrix], weights: &'a [Vec<Matrix>]) -> Self {
        self.functional = Some((first_a, weights));
        self
    }

    /// Runs the pipeline under the chain watchdog with deterministic
    /// fault injection: `faults[l]` arms at layer `l`'s position in the
    /// stream order (the table-quarantine rule disarms whatever budget
    /// the previous same-parity layer left on the inherited table), and
    /// a wedge at layer `k` is broken by the escalation ladder without
    /// poisoning the double-buffered tables layer `k + 1` inherits. One
    /// [`ResilientOutcome`] per layer lands in
    /// [`PipelineExecOutcome::outcomes`]. Incompatible with
    /// probe/mutation instrumentation.
    pub fn resilient(mut self, faults: &'a [FaultPlan], watchdog: &'a WatchdogConfig) -> Self {
        self.resilient = Some((faults, watchdog));
        self
    }
}

/// Unified results of [`Pipeline::execute_with`].
#[derive(Debug, Clone)]
pub struct PipelineExecOutcome {
    /// Per-layer timing.
    pub report: PipelineReport,
    /// Per-rank logical outputs of the final layer (functional mode
    /// only).
    pub outputs: Option<Vec<Matrix>>,
    /// Per-layer termination outcome. All `Clean` on non-resilient runs;
    /// under [`PipelineExecOptions::resilient`], layer `k` wedging ends
    /// it `Recovered`/`Degraded` while later layers report how they rode
    /// out the recovery.
    pub outcomes: Vec<ResilientOutcome>,
    /// Fault/recovery timeline of a resilient run (empty otherwise).
    pub events: Vec<RuntimeEvent>,
    /// Total faults armed across all layers of a resilient run.
    pub faults_armed: usize,
}

impl Pipeline {
    /// Builds a pipeline, tuning every layer's wave partition with the
    /// predictive search.
    ///
    /// # Errors
    ///
    /// Returns [`FlashOverlapError::BadInputs`] if a non-final layer lacks
    /// an epilogue or consecutive layers' shapes do not chain
    /// (`layer l` logical output must be the `M x K` activation of
    /// `layer l+1` on every rank), and propagates plan-construction
    /// errors.
    pub fn tuned(system: SystemSpec, layers: Vec<LayerSpec>) -> Result<Self, FlashOverlapError> {
        let mut plans = Vec::with_capacity(layers.len());
        let mut epilogues = Vec::with_capacity(layers.len());
        for layer in layers {
            let outcome = predictive_search(layer.dims, layer.pattern.primitive(), &system);
            plans.push(OverlapPlan::new(
                layer.dims,
                layer.pattern,
                system.clone(),
                outcome.partition,
            )?);
            epilogues.push(layer.epilogue);
        }
        Pipeline::with_plans(system, plans, epilogues)
    }

    /// Builds a pipeline from pre-tuned plans — one per layer, with
    /// `epilogues[l]` the fused epilogue feeding layer `l + 1` — without
    /// re-running the partition search. Use this to pin explicit wave
    /// partitions (e.g. a per-wave partition per layer) instead of the
    /// predictive tuner's choice.
    ///
    /// # Errors
    ///
    /// Returns [`FlashOverlapError::BadInputs`] under the same chaining
    /// rules as [`Pipeline::tuned`], on a plan/epilogue count mismatch,
    /// or when a plan targets a different rank count than `system`.
    pub fn with_plans(
        system: SystemSpec,
        plans: Vec<OverlapPlan>,
        epilogues: Vec<Option<ElementwiseOp>>,
    ) -> Result<Self, FlashOverlapError> {
        if plans.is_empty() {
            return Err(FlashOverlapError::BadInputs {
                reason: "pipeline needs at least one layer".into(),
            });
        }
        if epilogues.len() != plans.len() {
            return Err(FlashOverlapError::BadInputs {
                reason: format!(
                    "{} epilogue slots for {} layers",
                    epilogues.len(),
                    plans.len()
                ),
            });
        }
        for (i, plan) in plans.iter().enumerate() {
            if plan.system.n_gpus != system.n_gpus {
                return Err(FlashOverlapError::BadInputs {
                    reason: format!(
                        "layer {i} targets {} ranks but the pipeline runs on {}",
                        plan.system.n_gpus, system.n_gpus
                    ),
                });
            }
            if i > 0 {
                let prev_plan = &plans[i - 1];
                let (rows, cols) = prev_plan.logical_shape(0);
                if matches!(prev_plan.pattern(), CommPattern::AllToAll { .. }) {
                    return Err(FlashOverlapError::BadInputs {
                        reason: "cannot chain after All-to-All: per-rank row counts vary".into(),
                    });
                }
                if rows != plan.dims.m as usize || cols != plan.dims.k as usize {
                    return Err(FlashOverlapError::BadInputs {
                        reason: format!(
                            "layer {i} expects {}x{} activations but the previous layer \
                             produces {rows}x{cols}",
                            plan.dims.m, plan.dims.k
                        ),
                    });
                }
                if epilogues[i - 1].is_none() {
                    return Err(FlashOverlapError::BadInputs {
                        reason: format!("layer {} needs an epilogue to feed layer {i}", i - 1),
                    });
                }
            }
            if let Some(op) = &epilogues[i] {
                plan.validate_epilogue(op)?;
            }
        }
        Ok(Pipeline {
            system,
            plans,
            epilogues,
        })
    }

    /// Number of layers.
    pub fn num_layers(&self) -> usize {
        self.plans.len()
    }

    /// The tuned per-layer plans.
    pub fn plans(&self) -> &[OverlapPlan] {
        &self.plans
    }

    /// Runs the whole pipeline with the given options — the single
    /// execute entry point, mirroring [`OverlapPlan::execute_with`].
    /// Each layer is one segment of a chain whose data edge feeds the
    /// layer's fused epilogue output to the next layer's GEMM. Default
    /// options give plain timing mode; combine
    /// [`PipelineExecOptions::instrument`] and
    /// [`PipelineExecOptions::functional`] freely.
    ///
    /// # Errors
    ///
    /// Returns [`FlashOverlapError::BadInputs`] on an out-of-range
    /// mutation layer or malformed functional inputs, and
    /// [`FlashOverlapError::Simulation`] on engine failure.
    pub fn execute_with(
        &self,
        options: &PipelineExecOptions,
    ) -> Result<PipelineExecOutcome, FlashOverlapError> {
        if options.mutate_layer >= self.plans.len() {
            return Err(FlashOverlapError::BadInputs {
                reason: format!(
                    "mutation targets layer {} of a {}-layer pipeline",
                    options.mutate_layer,
                    self.plans.len()
                ),
            });
        }
        let inputs: Option<Vec<FunctionalInputs>> = match options.functional {
            Some((first_a, weights)) => {
                if weights.len() != self.plans.len() {
                    return Err(FlashOverlapError::BadInputs {
                        reason: format!(
                            "{} weight sets for {} layers",
                            weights.len(),
                            self.plans.len()
                        ),
                    });
                }
                let n = self.system.n_gpus;
                Some(
                    self.plans
                        .iter()
                        .zip(weights)
                        .enumerate()
                        .map(|(l, (plan, b))| FunctionalInputs {
                            a: if l == 0 {
                                first_a.to_vec()
                            } else {
                                // Placeholder with the right shape; the
                                // chain reads activations from the previous
                                // layer's epilogue buffer.
                                vec![Matrix::zeros(plan.dims.m as usize, plan.dims.k as usize); n]
                            },
                            b: b.clone(),
                        })
                        .collect(),
                )
            }
            None => None,
        };
        let plans: Vec<&OverlapPlan> = self.plans.iter().collect();
        let mut chain = execute_chain(&Chain {
            plans: &plans,
            epilogues: self.epilogues.iter().map(Option::as_ref).collect(),
            inputs: inputs.as_deref(),
            instrument: options.instrument,
            mutate_segment: options.mutate_layer,
            resilient: options.resilient,
            ..Chain::default()
        })?;
        Ok(PipelineExecOutcome {
            report: PipelineReport {
                total: chain.total,
                layers: chain.reports,
            },
            outputs: chain.outputs.as_mut().and_then(Vec::pop),
            outcomes: chain.outcomes,
            events: chain.events,
            faults_armed: chain.faults_armed,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::rc::Rc;
    use tensor::{allclose, gemm, rmsnorm};

    fn small_system(n: usize) -> SystemSpec {
        let mut spec = SystemSpec::rtx4090(n);
        spec.arch.sm_count = 8;
        spec.comm_sms = 2;
        spec
    }

    fn rms_op(cols: usize) -> ElementwiseOp {
        ElementwiseOp::RmsNorm {
            weight: Rc::new(vec![1.0; cols]),
            eps: 1e-6,
        }
    }

    #[test]
    fn two_layer_pipeline_matches_reference_numerics() {
        // Layer 1: (256x128x64) + AllReduce + RMSNorm; layer 2 consumes
        // the normalized activations: (256x64x128) + AllReduce.
        let system = small_system(2);
        let l1 = GemmDims::new(256, 128, 64);
        let l2 = GemmDims::new(256, 64, 128);
        let pipeline = Pipeline::tuned(
            system,
            vec![
                LayerSpec {
                    dims: l1,
                    pattern: CommPattern::AllReduce,
                    epilogue: Some(rms_op(128)),
                },
                LayerSpec {
                    dims: l2,
                    pattern: CommPattern::AllReduce,
                    epilogue: None,
                },
            ],
        )
        .unwrap();

        let mut rng = sim::DetRng::new(8);
        let first_a: Vec<Matrix> = (0..2).map(|_| Matrix::random(256, 64, &mut rng)).collect();
        let weights: Vec<Vec<Matrix>> = vec![
            (0..2).map(|_| Matrix::random(64, 128, &mut rng)).collect(),
            (0..2).map(|_| Matrix::random(128, 64, &mut rng)).collect(),
        ];
        let result = pipeline
            .execute_with(&PipelineExecOptions::new().functional(&first_a, &weights))
            .unwrap();

        // Reference: layer 1 reduce + rmsnorm, then layer 2 reduce.
        let h1 = gemm(&first_a[0], &weights[0][0]).add(&gemm(&first_a[1], &weights[0][1]));
        let act = rmsnorm(&h1, &vec![1.0; 128], 1e-6);
        let h2 = gemm(&act, &weights[1][0]).add(&gemm(&act, &weights[1][1]));
        for (d, out) in result
            .outputs
            .as_deref()
            .unwrap_or_default()
            .iter()
            .enumerate()
        {
            assert!(allclose(out, &h2, 5e-2), "rank {d}");
        }
        assert_eq!(result.report.layers.len(), 2);
        assert!(result.report.total >= result.report.layers[1].latency);
    }

    #[test]
    fn pipeline_timing_is_monotone_across_layers() {
        let system = SystemSpec::rtx4090(4);
        let dims = GemmDims::new(2048, 2048, 2048);
        let pipeline = Pipeline::tuned(
            system,
            vec![
                LayerSpec {
                    dims,
                    pattern: CommPattern::AllReduce,
                    epilogue: Some(rms_op(2048)),
                },
                LayerSpec {
                    dims,
                    pattern: CommPattern::AllReduce,
                    epilogue: Some(rms_op(2048)),
                },
                LayerSpec {
                    dims,
                    pattern: CommPattern::AllReduce,
                    epilogue: None,
                },
            ],
        )
        .unwrap();
        let report = pipeline
            .execute_with(&PipelineExecOptions::new())
            .unwrap()
            .report;
        assert_eq!(report.layers.len(), 3);
        for pair in report.layers.windows(2) {
            assert!(pair[0].latency < pair[1].latency, "layers run in order");
        }
        assert!(report.total >= report.layers[2].latency);
    }

    #[test]
    fn shape_mismatch_is_rejected() {
        let system = small_system(2);
        let err = Pipeline::tuned(
            system,
            vec![
                LayerSpec {
                    dims: GemmDims::new(256, 128, 64),
                    pattern: CommPattern::AllReduce,
                    epilogue: Some(rms_op(128)),
                },
                LayerSpec {
                    dims: GemmDims::new(256, 64, 999),
                    pattern: CommPattern::AllReduce,
                    epilogue: None,
                },
            ],
        )
        .map(|_| ())
        .unwrap_err();
        assert!(matches!(err, FlashOverlapError::BadInputs { .. }));
    }

    #[test]
    fn missing_intermediate_epilogue_is_rejected() {
        let system = small_system(2);
        let err = Pipeline::tuned(
            system,
            vec![
                LayerSpec {
                    dims: GemmDims::new(256, 128, 64),
                    pattern: CommPattern::AllReduce,
                    epilogue: None,
                },
                LayerSpec {
                    dims: GemmDims::new(256, 64, 128),
                    pattern: CommPattern::AllReduce,
                    epilogue: None,
                },
            ],
        )
        .map(|_| ())
        .unwrap_err();
        assert!(matches!(err, FlashOverlapError::BadInputs { .. }));
    }

    fn per_wave_plan(dims: GemmDims, system: &SystemSpec) -> OverlapPlan {
        let config = gpu_sim::gemm::GemmConfig::choose(dims, &system.arch);
        let waves = config.grid(dims).num_tiles().div_ceil(system.compute_sms());
        OverlapPlan::new(
            dims,
            CommPattern::AllReduce,
            system.clone(),
            crate::WavePartition::per_wave(waves),
        )
        .unwrap()
    }

    fn three_layer_resilient_fixture(
        system: &SystemSpec,
    ) -> (Pipeline, Vec<Matrix>, Vec<Vec<Matrix>>) {
        let dims = [
            GemmDims::new(1024, 128, 64),
            GemmDims::new(1024, 64, 128),
            GemmDims::new(1024, 128, 64),
        ];
        let plans: Vec<OverlapPlan> = dims.iter().map(|&d| per_wave_plan(d, system)).collect();
        let pipeline = Pipeline::with_plans(
            system.clone(),
            plans,
            vec![Some(rms_op(128)), Some(rms_op(64)), None],
        )
        .unwrap();
        let mut rng = sim::DetRng::new(17);
        let first_a: Vec<Matrix> = (0..2).map(|_| Matrix::random(1024, 64, &mut rng)).collect();
        let weights: Vec<Vec<Matrix>> = dims
            .iter()
            .map(|d| {
                (0..2)
                    .map(|_| Matrix::random(d.k as usize, d.n as usize, &mut rng))
                    .collect()
            })
            .collect();
        (pipeline, first_a, weights)
    }

    #[test]
    fn resilient_fault_free_pipeline_is_clean_and_bit_exact() {
        use crate::resilience::{FaultPlan, WatchdogConfig};
        let system = small_system(2);
        let (pipeline, first_a, weights) = three_layer_resilient_fixture(&system);
        let faults = vec![FaultPlan::none(); 3];
        let watchdog = WatchdogConfig::default();
        let resilient = pipeline
            .execute_with(
                &PipelineExecOptions::new()
                    .functional(&first_a, &weights)
                    .resilient(&faults, &watchdog),
            )
            .unwrap();
        let plain = pipeline
            .execute_with(&PipelineExecOptions::new().functional(&first_a, &weights))
            .unwrap();
        assert_eq!(resilient.outcomes.len(), 3);
        assert!(
            resilient.outcomes.iter().all(|o| o.label() == "clean"),
            "{:?}",
            resilient.outcomes
        );
        assert_eq!(resilient.faults_armed, 0);
        assert_eq!(
            resilient.report.total, plain.report.total,
            "fault-free watchdog is timing-neutral"
        );
        let res_out = resilient.outputs.unwrap();
        let plain_out = plain.outputs.unwrap();
        for d in 0..2 {
            assert_eq!(res_out[d].as_slice(), plain_out[d].as_slice());
        }
    }

    #[test]
    fn wedged_layer_recovers_and_downstream_layers_stay_bit_exact() {
        use crate::resilience::{Fault, FaultPlan, ResilientOutcome, WatchdogConfig};
        let system = small_system(2);
        let (pipeline, first_a, weights) = three_layer_resilient_fixture(&system);
        // Starve layer 1's last group: its wait wedges mid-pipeline, the
        // watchdog breaks the wedge via the tail rung (earlier groups
        // complete), and layer 2 — whose activations flow through the
        // recovered collective — must still match the fault-free run.
        let last_group = pipeline.plans()[1].group_tile_counts().len() - 1;
        assert!(last_group >= 1, "test needs a multi-group wedged layer");
        let mut faults = vec![FaultPlan::none(); 3];
        faults[1] = FaultPlan::single(Fault::DroppedIncrement {
            rank: 0,
            group: last_group,
            count: 64,
        });
        let watchdog = WatchdogConfig::default();
        let outcome = pipeline
            .execute_with(
                &PipelineExecOptions::new()
                    .functional(&first_a, &weights)
                    .resilient(&faults, &watchdog),
            )
            .unwrap();
        assert_eq!(outcome.faults_armed, 1);
        assert!(
            matches!(outcome.outcomes[1], ResilientOutcome::Recovered { .. }),
            "wedged layer must recover: {:?}",
            outcome.outcomes
        );
        for (l, o) in outcome.outcomes.iter().enumerate() {
            assert_ne!(o.label(), "degraded", "layer {l}: {o:?}");
        }
        let fault_free = pipeline
            .execute_with(&PipelineExecOptions::new().functional(&first_a, &weights))
            .unwrap();
        let wedged_out = outcome.outputs.unwrap();
        let clean_out = fault_free.outputs.unwrap();
        for d in 0..2 {
            assert_eq!(
                wedged_out[d].as_slice(),
                clean_out[d].as_slice(),
                "rank {d} diverged after mid-pipeline recovery"
            );
        }
        assert!(outcome
            .events
            .iter()
            .any(|e| e.detail.contains("segment 1 wedge detected")));
        assert!(outcome
            .events
            .iter()
            .any(|e| e.detail.contains("re-issued as tail collective")));
    }

    #[test]
    fn resilient_rejects_mutations_and_mismatched_fault_plans() {
        use crate::resilience::{FaultPlan, WatchdogConfig};
        let system = small_system(2);
        let (pipeline, _, _) = three_layer_resilient_fixture(&system);
        let watchdog = WatchdogConfig::default();
        let two = vec![FaultPlan::none(); 2];
        assert!(matches!(
            pipeline.execute_with(&PipelineExecOptions::new().resilient(&two, &watchdog)),
            Err(FlashOverlapError::BadInputs { .. })
        ));
        let three = vec![FaultPlan::none(); 3];
        let instr = crate::runtime::Instrumentation {
            mutation: Some(crate::runtime::SignalMutation::DropWait { rank: 0, group: 0 }),
            ..Default::default()
        };
        assert!(matches!(
            pipeline.execute_with(
                &PipelineExecOptions::new()
                    .resilient(&three, &watchdog)
                    .instrument(&instr)
            ),
            Err(FlashOverlapError::BadInputs { .. })
        ));
    }

    #[test]
    fn empty_pipeline_is_rejected() {
        assert!(matches!(
            Pipeline::tuned(small_system(2), vec![]).map(|_| ()),
            Err(FlashOverlapError::BadInputs { .. })
        ));
    }
}
