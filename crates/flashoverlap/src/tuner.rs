//! Partition tuning: predictive search (§4.1.4) and the exhaustive
//! oracle used to evaluate it (§4.1.1, §6.4).

use collectives::Primitive;
use gpu_sim::gemm::GemmDims;
use sim::SimDuration;

use crate::error::FlashOverlapError;
use crate::partition::{all_partitions, for_each_candidate, WavePartition, EXHAUSTIVE_WAVE_LIMIT};
use crate::predictor::LatencyPredictor;
use crate::runtime::{CommPattern, OverlapPlan};
use crate::sequence::SequenceOptions;
use crate::system::SystemSpec;

/// First-group size bound `S_1` used for evaluation (§4.1.4).
pub const DEFAULT_S1: u32 = 2;

/// Last-group size bound `S_P` used for evaluation (§4.1.4).
pub const DEFAULT_SP: u32 = 4;

/// Result of a tuning pass.
#[derive(Debug, Clone)]
pub struct TuneOutcome {
    /// The chosen partition.
    pub partition: WavePartition,
    /// Its predicted (or, for the exhaustive oracle, measured) latency.
    pub latency: SimDuration,
    /// Number of candidates examined.
    pub evaluated: usize,
}

/// Predictive search: scores the pruned candidate set with the Alg. 1
/// predictor and returns the argmin — no online execution at all.
pub fn predictive_search(dims: GemmDims, primitive: Primitive, system: &SystemSpec) -> TuneOutcome {
    predictive_search_with(dims, primitive, system, DEFAULT_S1, DEFAULT_SP)
}

/// Predictive search with explicit pruning bounds `S_1` / `S_P`
/// (§4.1.4's design-space constraints; the ablation bench sweeps them).
pub fn predictive_search_with(
    dims: GemmDims,
    primitive: Primitive,
    system: &SystemSpec,
    s1_max: u32,
    sp_max: u32,
) -> TuneOutcome {
    search(
        &LatencyPredictor::build(dims, primitive, system),
        s1_max,
        sp_max,
    )
}

/// Scores the pruned candidate set over one offline profile and returns
/// the argmin; the first candidate wins ties. Candidates are scored as
/// they are enumerated, so only the winner's sizes are ever copied out.
fn search(predictor: &LatencyPredictor, s1_max: u32, sp_max: u32) -> TuneOutcome {
    let waves = predictor.profile().total_waves;
    let mut best: Option<SimDuration> = None;
    let mut best_sizes = Vec::new();
    let mut evaluated = 0;
    for_each_candidate(waves, s1_max, sp_max, |sizes| {
        evaluated += 1;
        let predicted = predictor.predict_sizes(sizes);
        if best.is_none_or(|b| predicted < b) {
            best = Some(predicted);
            best_sizes.clear();
            best_sizes.extend_from_slice(sizes);
        }
    });
    TuneOutcome {
        partition: WavePartition::new(best_sizes),
        latency: best.expect("candidate set is never empty"),
        evaluated,
    }
}

/// Tunes and builds the plan for `(dims, pattern, system)` from one
/// offline profile: predictive search scores it, and the plan keeps it
/// as the predictor behind [`OverlapPlan::expected_latency`] and
/// [`OverlapPlan::predicted_group_completions`]. Returns the plan, not
/// yet statically checked, and the number of candidates evaluated. This
/// is the plan-cache miss path, shared by [`OverlapPlan::tuned`].
///
/// # Errors
///
/// Propagates plan construction errors.
pub fn tune_plan(
    dims: GemmDims,
    pattern: CommPattern,
    system: SystemSpec,
) -> Result<(OverlapPlan, usize), FlashOverlapError> {
    system.check_group()?;
    let predictor = LatencyPredictor::build(dims, pattern.primitive(), &system);
    let outcome = search(&predictor, DEFAULT_S1, DEFAULT_SP);
    let plan = OverlapPlan::build(dims, pattern, system, outcome.partition, Some(predictor))?;
    Ok((plan, outcome.evaluated))
}

/// The exhaustive oracle: *executes* every partition of the full
/// `2^(T-1)` design space in the simulator and returns the true optimum.
/// Only used by the evaluation (the paper's "online profiling" baseline);
/// limited to small wave counts.
///
/// # Errors
///
/// Returns [`FlashOverlapError::IncompatibleShape`] if the wave count
/// exceeds [`EXHAUSTIVE_WAVE_LIMIT`], or any plan/execution error.
pub fn exhaustive_search(
    dims: GemmDims,
    pattern: &CommPattern,
    system: &SystemSpec,
) -> Result<TuneOutcome, FlashOverlapError> {
    system.check_group()?;
    let waves = system.planned_waves(dims);
    if waves > EXHAUSTIVE_WAVE_LIMIT {
        return Err(FlashOverlapError::IncompatibleShape {
            reason: format!(
                "exhaustive search over {waves} waves exceeds the {EXHAUSTIVE_WAVE_LIMIT}-wave limit"
            ),
        });
    }
    let candidates = all_partitions(waves);
    let evaluated = candidates.len();
    let mut best: Option<(SimDuration, WavePartition)> = None;
    for partition in candidates {
        let plan = OverlapPlan::new(dims, pattern.clone(), system.clone(), partition.clone())?;
        // Prove the candidate's signal/wait schedule safe before spending
        // a simulated execution on it.
        plan.check_static()?;
        let latency = plan.execute_with(&SequenceOptions::new())?.reports[0].latency;
        if best.as_ref().is_none_or(|(b, _)| latency < *b) {
            best = Some((latency, partition));
        }
    }
    let (latency, partition) = best.expect("at least one partition exists");
    Ok(TuneOutcome {
        partition,
        latency,
        evaluated,
    })
}

/// Measures one partition's true (simulated) latency.
///
/// # Errors
///
/// Propagates plan construction and simulation errors.
pub fn measure_partition(
    dims: GemmDims,
    pattern: &CommPattern,
    system: &SystemSpec,
    partition: WavePartition,
) -> Result<SimDuration, FlashOverlapError> {
    let plan = OverlapPlan::new(dims, pattern.clone(), system.clone(), partition)?;
    plan.check_static()?;
    Ok(plan.execute_with(&SequenceOptions::new())?.reports[0].latency)
}

impl OverlapPlan {
    /// Builds a plan with the partition chosen by predictive search — the
    /// end-to-end "just make it fast" entry point.
    ///
    /// # Errors
    ///
    /// Propagates plan construction errors.
    pub fn tuned(
        dims: GemmDims,
        pattern: CommPattern,
        system: SystemSpec,
    ) -> Result<OverlapPlan, FlashOverlapError> {
        let (plan, _) = tune_plan(dims, pattern, system)?;
        // The searched partition is only scored analytically; prove its
        // signal/wait schedule safe before handing it out for execution.
        plan.check_static()?;
        Ok(plan)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn predictive_search_returns_valid_partition() {
        let dims = GemmDims::new(4096, 8192, 4096);
        let system = SystemSpec::rtx4090(4);
        let outcome = predictive_search(dims, Primitive::AllReduce, &system);
        assert!(outcome.evaluated > 1);
        let plan = OverlapPlan::new(
            dims,
            CommPattern::AllReduce,
            system,
            outcome.partition.clone(),
        )
        .unwrap();
        assert_eq!(plan.partition.total_waves(), plan.total_waves());
    }

    #[test]
    fn a_tuned_plan_keeps_the_profile_its_search_built() {
        // One offline profile per miss: the plan comes back with the
        // search's predictor, so its predictions need no second build,
        // and they equal a plan built afresh on the same partition.
        let system = SystemSpec::rtx4090(4);
        let routing = vec![(0..2048).map(|r| r % 4).collect(); 4];
        for (dims, pattern) in [
            (GemmDims::new(2048, 4096, 3584), CommPattern::AllReduce),
            (GemmDims::new(4096, 8192, 8192), CommPattern::ReduceScatter),
            (
                GemmDims::new(2048, 4096, 2048),
                CommPattern::AllToAll { routing },
            ),
        ] {
            let (searched, evaluated) = tune_plan(dims, pattern.clone(), system.clone()).unwrap();
            let tuned = OverlapPlan::tuned(dims, pattern.clone(), system.clone()).unwrap();
            let outcome = predictive_search(dims, pattern.primitive(), &system);
            assert_eq!(evaluated, outcome.evaluated);
            let fresh =
                OverlapPlan::new(dims, pattern, system.clone(), outcome.partition.clone()).unwrap();
            assert!(!fresh.predictor_is_built());
            for plan in [&searched, &tuned] {
                assert!(plan.predictor_is_built(), "{dims:?}");
                assert_eq!(plan.partition, outcome.partition);
                assert_eq!(plan.expected_latency(), fresh.expected_latency());
                assert_eq!(
                    plan.predicted_group_completions(),
                    fresh.predicted_group_completions()
                );
            }
        }
    }

    #[test]
    fn one_gpu_search_and_theory_price_no_communication() {
        let dims = GemmDims::new(256, 256, 256);
        for system in [SystemSpec::rtx4090(1), SystemSpec::a800(1)] {
            let config = gpu_sim::gemm::GemmConfig::choose(dims, &system.arch);
            let (_, gemm) =
                gpu_sim::gemm::gemm_estimate(dims, &config, system.arch.sm_count, &system.arch);
            for primitive in [
                Primitive::AllReduce,
                Primitive::ReduceScatter,
                Primitive::AllGather,
                Primitive::AllToAll,
            ] {
                let case = format!("{primitive} on {}", system.arch.name);
                assert_eq!(
                    crate::theory::nonoverlap_latency(dims, primitive, &system),
                    gemm,
                    "{case}"
                );
                for outcome in [
                    predictive_search(dims, primitive, &system),
                    predictive_search_with(dims, primitive, &system, 1, 1),
                ] {
                    assert!(outcome.evaluated >= 1, "{case}");
                    assert!(outcome.latency > SimDuration::ZERO, "{case}");
                }
            }
        }
    }

    #[test]
    fn one_gpu_plans_are_rejected_before_tuning() {
        let dims = GemmDims::new(256, 256, 256);
        let system = SystemSpec::rtx4090(1);
        let tuned = OverlapPlan::tuned(dims, CommPattern::AllReduce, system.clone());
        let explicit = OverlapPlan::new(
            dims,
            CommPattern::AllReduce,
            system,
            WavePartition::new(vec![1]),
        );
        for result in [tuned, explicit] {
            assert!(matches!(
                result,
                Err(FlashOverlapError::IncompatibleShape { .. })
            ));
        }
    }

    #[test]
    fn tuned_plan_beats_serial_on_balanced_shape() {
        let dims = GemmDims::new(8192, 8192, 16384);
        let system = SystemSpec::rtx4090(4);
        let tuned = OverlapPlan::tuned(dims, CommPattern::AllReduce, system.clone()).unwrap();
        let tuned_latency = tuned.execute_with(&SequenceOptions::new()).unwrap().reports[0].latency;
        let serial = measure_partition(
            dims,
            &CommPattern::AllReduce,
            &system,
            WavePartition::single(tuned.total_waves()),
        )
        .unwrap();
        assert!(
            tuned_latency < serial,
            "tuned {tuned_latency} vs serial {serial}"
        );
    }

    #[test]
    fn exhaustive_search_finds_at_least_predictive_quality() {
        // A small shape keeps the wave count within the exhaustive limit.
        let dims = GemmDims::new(2048, 4096, 2048);
        let system = SystemSpec::rtx4090(4);
        let exhaustive = exhaustive_search(dims, &CommPattern::AllReduce, &system).unwrap();
        let predicted = predictive_search(dims, Primitive::AllReduce, &system);
        let predicted_actual = measure_partition(
            dims,
            &CommPattern::AllReduce,
            &system,
            predicted.partition.clone(),
        )
        .unwrap();
        assert!(exhaustive.latency <= predicted_actual);
        // Sec. 6.4: the searched partition achieves > 99% of optimal; give
        // the simulator a little slack.
        let ratio = exhaustive.latency.as_nanos() as f64 / predicted_actual.as_nanos() as f64;
        assert!(ratio > 0.95, "searched partition only {ratio} of optimal");
    }

    #[test]
    fn tighter_pruning_examines_fewer_candidates() {
        let dims = GemmDims::new(2048, 8192, 4096);
        let system = SystemSpec::rtx4090(4);
        let tight = predictive_search_with(dims, Primitive::AllReduce, &system, 1, 1);
        let default =
            predictive_search_with(dims, Primitive::AllReduce, &system, DEFAULT_S1, DEFAULT_SP);
        assert!(tight.evaluated < default.evaluated);
        // The default bounds can only improve (or match) the tighter set's
        // predicted optimum.
        assert!(default.latency <= tight.latency);
    }

    #[test]
    fn cross_node_topology_tunes_a_different_plan() {
        // The predictor charges node-spanning groups at inter-tier cost,
        // so on at least one shape the argmin partition must move when
        // the same 8 GPUs split across two nodes.
        let shapes = [
            GemmDims::new(4096, 8192, 4096),
            GemmDims::new(8192, 8192, 8192),
            GemmDims::new(2048, 16384, 4096),
            GemmDims::new(4096, 4096, 2048),
        ];
        let flat = SystemSpec::a800(8);
        let tiered = SystemSpec::a800(8).with_nodes(2);
        let mut diverged = false;
        for dims in shapes {
            let f = predictive_search(dims, Primitive::AllReduce, &flat);
            let t = predictive_search(dims, Primitive::AllReduce, &tiered);
            // Both searches must still produce executable partitions.
            assert_eq!(f.partition.total_waves(), t.partition.total_waves());
            if f.partition != t.partition {
                diverged = true;
            }
        }
        assert!(
            diverged,
            "splitting the group across nodes never changed the tuned plan"
        );
    }

    #[test]
    fn exhaustive_search_rejects_large_wave_counts() {
        let dims = GemmDims::new(16384, 16384, 1024);
        let system = SystemSpec::rtx4090(4);
        let err = exhaustive_search(dims, &CommPattern::AllReduce, &system).unwrap_err();
        assert!(matches!(err, FlashOverlapError::IncompatibleShape { .. }));
    }
}
