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

use crate::chain::execute_chain;
use crate::error::FlashOverlapError;
use crate::runtime::{CommPattern, OverlapPlan};
use crate::sequence::{SequenceOptions, SequenceOutcome};
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
/// let outcome = pipeline.execute_with(&flashoverlap::SequenceOptions::new())?;
/// assert_eq!(outcome.reports.len(), 2);
/// # Ok::<(), flashoverlap::FlashOverlapError>(())
/// ```
#[derive(Debug)]
pub struct Pipeline {
    /// Target system.
    pub system: SystemSpec,
    plans: Vec<OverlapPlan>,
    epilogues: Vec<Option<ElementwiseOp>>,
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

    /// The tuned per-layer plans.
    pub fn plans(&self) -> &[OverlapPlan] {
        &self.plans
    }

    /// Runs the whole pipeline as one chain — one segment per layer,
    /// each layer's fused epilogue output feeding the next layer's GEMM
    /// — with the modes selected in `options` (see [`SequenceOptions`]).
    /// In functional mode `inputs[0].a` holds the first layer's
    /// activations and `inputs[l].b` layer `l`'s weights; later layers'
    /// `a` may be empty.
    ///
    /// # Errors
    ///
    /// Returns [`FlashOverlapError::BadInputs`] on an out-of-range
    /// mutation segment, malformed functional inputs or invalid option
    /// combinations, and [`FlashOverlapError::Simulation`] on engine
    /// failure.
    pub fn execute_with(
        &self,
        options: &SequenceOptions,
    ) -> Result<SequenceOutcome, FlashOverlapError> {
        let plans: Vec<&OverlapPlan> = self.plans.iter().collect();
        execute_chain(&plans, &self.epilogues, options)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::FunctionalInputs;
    use std::rc::Rc;
    use tensor::{allclose, gemm, rmsnorm, Matrix};

    fn small_system(n: usize) -> SystemSpec {
        let mut spec = SystemSpec::rtx4090(n);
        spec.arch.sm_count = 8;
        spec.comm_sms = 2;
        spec
    }

    /// Per-layer functional inputs: layer 0 reads `first_a`; later
    /// layers read their predecessor's epilogue output, so their `a` is
    /// empty.
    fn layer_inputs(first_a: &[Matrix], weights: &[Vec<Matrix>]) -> Vec<FunctionalInputs> {
        weights
            .iter()
            .enumerate()
            .map(|(l, b)| FunctionalInputs {
                a: if l == 0 { first_a.to_vec() } else { Vec::new() },
                b: b.clone(),
            })
            .collect()
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
        let inputs = layer_inputs(&first_a, &weights);
        let result = pipeline
            .execute_with(&SequenceOptions::new().functional(&inputs))
            .unwrap();

        // Reference: layer 1 reduce + rmsnorm, then layer 2 reduce.
        let h1 = gemm(&first_a[0], &weights[0][0]).add(&gemm(&first_a[1], &weights[0][1]));
        let act = rmsnorm(&h1, &vec![1.0; 128], 1e-6);
        let h2 = gemm(&act, &weights[1][0]).add(&gemm(&act, &weights[1][1]));
        let outputs = result.outputs.as_ref().unwrap();
        for (d, out) in outputs[1].iter().enumerate() {
            assert!(allclose(out, &h2, 5e-2), "rank {d}");
        }
        assert_eq!(result.reports.len(), 2);
        assert!(result.total >= result.reports[1].latency);
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
        let outcome = pipeline.execute_with(&SequenceOptions::new()).unwrap();
        assert_eq!(outcome.reports.len(), 3);
        for pair in outcome.reports.windows(2) {
            assert!(pair[0].latency < pair[1].latency, "layers run in order");
        }
        assert!(outcome.total >= outcome.reports[2].latency);
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

    fn three_layer_resilient_fixture(system: &SystemSpec) -> (Pipeline, Vec<FunctionalInputs>) {
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
        (pipeline, layer_inputs(&first_a, &weights))
    }

    #[test]
    fn resilient_fault_free_pipeline_is_clean_and_bit_exact() {
        use crate::resilience::{FaultPlan, WatchdogConfig};
        let system = small_system(2);
        let (pipeline, inputs) = three_layer_resilient_fixture(&system);
        let faults = vec![FaultPlan::none(); 3];
        let watchdog = WatchdogConfig::default();
        let resilient = pipeline
            .execute_with(
                &SequenceOptions::new()
                    .functional(&inputs)
                    .resilient(&faults, &watchdog),
            )
            .unwrap();
        let plain = pipeline
            .execute_with(&SequenceOptions::new().functional(&inputs))
            .unwrap();
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
        for d in 0..2 {
            assert_eq!(res_out[2][d].as_slice(), plain_out[2][d].as_slice());
        }
    }

    #[test]
    fn wedged_layer_recovers_and_downstream_layers_stay_bit_exact() {
        use crate::resilience::{Fault, FaultPlan, ResilientOutcome, WatchdogConfig};
        let system = small_system(2);
        let (pipeline, inputs) = three_layer_resilient_fixture(&system);
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
                &SequenceOptions::new()
                    .functional(&inputs)
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
            .execute_with(&SequenceOptions::new().functional(&inputs))
            .unwrap();
        let wedged_out = outcome.outputs.unwrap();
        let clean_out = fault_free.outputs.unwrap();
        for d in 0..2 {
            assert_eq!(
                wedged_out[2][d].as_slice(),
                clean_out[2][d].as_slice(),
                "rank {d} diverged after mid-pipeline recovery"
            );
        }
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
    fn wedged_single_layer_with_epilogue_recovers_bit_exact() {
        // A one-layer pipeline is a single plan with a fused epilogue:
        // a wedge before the epilogue must be broken, re-record the
        // epilogue gate, and leave the normalized output bit-exact.
        use crate::resilience::{Fault, FaultPlan, ResilientOutcome, WatchdogConfig};
        let system = small_system(2);
        let dims = GemmDims::new(1024, 128, 64);
        let plan = per_wave_plan(dims, &system);
        let last_group = plan.group_tile_counts().len() - 1;
        assert!(last_group >= 1, "test needs a multi-group plan");
        let pipeline = Pipeline::with_plans(system, vec![plan], vec![Some(rms_op(128))]).unwrap();
        let inputs = vec![FunctionalInputs::random(dims, 2, 23)];
        let faults = vec![FaultPlan::single(Fault::DroppedIncrement {
            rank: 0,
            group: last_group,
            count: 64,
        })];
        let watchdog = WatchdogConfig::default();
        let wedged = pipeline
            .execute_with(
                &SequenceOptions::new()
                    .functional(&inputs)
                    .resilient(&faults, &watchdog),
            )
            .unwrap();
        assert!(
            matches!(wedged.outcomes[0], ResilientOutcome::Recovered { .. }),
            "{:?}",
            wedged.outcomes
        );
        assert!(wedged.reports[0].epilogue_done.is_some(), "epilogue ran");
        let clean = pipeline
            .execute_with(&SequenceOptions::new().functional(&inputs))
            .unwrap();
        let (wedged_out, clean_out) = (wedged.outputs.unwrap(), clean.outputs.unwrap());
        for d in 0..2 {
            assert_eq!(wedged_out[0][d].as_slice(), clean_out[0][d].as_slice());
        }
    }

    #[test]
    fn activations_are_checked_only_where_a_layer_reads_them() {
        let system = small_system(2);
        let (pipeline, mut inputs) = three_layer_resilient_fixture(&system);
        // Later layers read their predecessor's epilogue: `a` is unused.
        inputs[1].a = vec![Matrix::zeros(1, 1); 2];
        assert!(pipeline
            .execute_with(&SequenceOptions::new().functional(&inputs))
            .is_ok());
        // The first layer reads `a`: an empty set is malformed.
        inputs[0].a.clear();
        assert!(matches!(
            pipeline.execute_with(&SequenceOptions::new().functional(&inputs)),
            Err(FlashOverlapError::BadInputs { .. })
        ));
    }

    #[test]
    fn resilient_rejects_mutations_and_mismatched_fault_plans() {
        use crate::resilience::{FaultPlan, WatchdogConfig};
        let system = small_system(2);
        let (pipeline, _) = three_layer_resilient_fixture(&system);
        let watchdog = WatchdogConfig::default();
        let two = vec![FaultPlan::none(); 2];
        assert!(matches!(
            pipeline.execute_with(&SequenceOptions::new().resilient(&two, &watchdog)),
            Err(FlashOverlapError::BadInputs { .. })
        ));
        let three = vec![FaultPlan::none(); 3];
        let instr = crate::runtime::Instrumentation {
            mutation: Some(crate::runtime::SignalMutation::DropWait { rank: 0, group: 0 }),
            ..Default::default()
        };
        assert!(matches!(
            pipeline.execute_with(
                &SequenceOptions::new()
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
