//! Chain-level chaos campaign: random pipeline and sequence chains under
//! seeded random fault plans must always terminate with a per-segment
//! verdict in {Clean, Recovered, Degraded}, replay bit-exactly for the
//! same seed, and deliver outputs identical to the fault-free run —
//! recovery re-issues collectives over complete tiles, so even a
//! degraded segment never ships corrupt numerics.

mod common;

use common::{mini_system, per_wave_plan};
use flashoverlap::pipeline::Pipeline;
use flashoverlap::resilience::{FaultPlan, WatchdogConfig};
use flashoverlap::runtime::FunctionalInputs;
use flashoverlap::{execute_sequence, OverlapPlan, SequenceOptions, SystemSpec};
use gpu_sim::elementwise::ElementwiseOp;
use gpu_sim::gemm::GemmDims;
use proptest::prelude::*;
use std::rc::Rc;
use tensor::Matrix;

/// Per-segment fault seed, decorrelated the same way the serving layer
/// salts per-batch seeds.
fn salt(seed: u64, segment: usize) -> u64 {
    seed ^ (segment as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

fn rms_op(cols: usize) -> ElementwiseOp {
    ElementwiseOp::RmsNorm {
        weight: Rc::new(vec![1.0; cols]),
        eps: 1e-6,
    }
}

/// The three-layer chainable pipeline used across the resilience suite:
/// each layer's logical output is the next layer's activation shape.
fn chaos_pipeline(system: &SystemSpec) -> (Pipeline, Vec<FunctionalInputs>) {
    let dims = [
        GemmDims::new(1024, 128, 64),
        GemmDims::new(1024, 64, 128),
        GemmDims::new(1024, 128, 64),
    ];
    let plans: Vec<OverlapPlan> = dims.iter().map(|&d| per_wave_plan(system, d)).collect();
    let pipeline = Pipeline::with_plans(
        system.clone(),
        plans,
        vec![Some(rms_op(128)), Some(rms_op(64)), None],
    )
    .expect("chainable layers");
    let mut rng = sim::DetRng::new(17);
    let first_a: Vec<Matrix> = (0..2).map(|_| Matrix::random(1024, 64, &mut rng)).collect();
    // Layer 0 reads `first_a`; later layers read the previous layer's
    // epilogue output and take only their weights.
    let inputs = dims
        .iter()
        .enumerate()
        .map(|(l, d)| FunctionalInputs {
            a: if l == 0 { first_a.clone() } else { Vec::new() },
            b: (0..2)
                .map(|_| Matrix::random(d.k as usize, d.n as usize, &mut rng))
                .collect(),
        })
        .collect();
    (pipeline, inputs)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// A random batch chain under per-batch random fault plans
    /// terminates with every batch's verdict accounted for, and the
    /// functional outputs of every batch — wedged or not — match the
    /// fault-free chain tile for tile.
    #[test]
    fn seeded_chaos_chains_terminate_accountably(
        batches in 2usize..=4,
        m in prop::sample::select(vec![256u32, 384, 512]),
        seed in any::<u64>(),
    ) {
        let system = mini_system(2, 2);
        let plans: Vec<OverlapPlan> = (0..batches)
            // Alternate shapes so the chain crosses plan boundaries.
            .map(|i| {
                let dims = GemmDims::new(if i % 2 == 0 { m } else { 256 }, 256, 64);
                per_wave_plan(&system, dims)
            })
            .collect();
        let refs: Vec<&OverlapPlan> = plans.iter().collect();
        let inputs: Vec<FunctionalInputs> = plans
            .iter()
            .enumerate()
            .map(|(i, p)| FunctionalInputs::random(p.dims, 2, salt(seed, i) ^ 0x9e37))
            .collect();
        let reference = execute_sequence(&refs, &SequenceOptions::new().functional(&inputs))
            .expect("fault-free chain");
        let reference_outputs = reference.outputs.unwrap_or_default();

        let faults: Vec<FaultPlan> = plans
            .iter()
            .enumerate()
            .map(|(i, p)| FaultPlan::random(salt(seed, i), 2, p.partition.num_groups()))
            .collect();
        prop_assert!(faults.iter().all(|f| !f.is_empty()));
        let watchdog = WatchdogConfig::default();
        let run = execute_sequence(
            &refs,
            &SequenceOptions::new()
                .functional(&inputs)
                .resilient(&faults, &watchdog),
        )
        .expect("chaos chain terminates");

        prop_assert_eq!(run.outcomes.len(), batches, "one verdict per batch");
        for (b, outcome) in run.outcomes.iter().enumerate() {
            prop_assert!(
                matches!(outcome.label(), "clean" | "recovered" | "degraded"),
                "batch {} verdict unaccounted: {:?}",
                b,
                outcome
            );
        }
        prop_assert!(run.faults_armed >= 1, "random plans must arm something");
        let run_outputs = run.outputs.unwrap_or_default();
        prop_assert_eq!(run_outputs.len(), reference_outputs.len());
        for (b, (got, want)) in run_outputs.iter().zip(reference_outputs.iter()).enumerate() {
            prop_assert_eq!(got.len(), want.len());
            for (d, (g, w)) in got.iter().zip(want.iter()).enumerate() {
                prop_assert!(
                    g.as_slice() == w.as_slice(),
                    "batch {} rank {} diverged from the fault-free chain ({:?})",
                    b,
                    d,
                    run.outcomes.get(b)
                );
            }
        }
    }

    /// The same seed replays the same chain bit-exactly: verdicts,
    /// event timeline, and end-to-end latency all match.
    #[test]
    fn chaos_chains_replay_bit_exact(seed in any::<u64>()) {
        let system = mini_system(2, 2);
        let plans: Vec<OverlapPlan> = (0..3)
            .map(|_| per_wave_plan(&system, GemmDims::new(256, 256, 64)))
            .collect();
        let refs: Vec<&OverlapPlan> = plans.iter().collect();
        let faults: Vec<FaultPlan> = plans
            .iter()
            .enumerate()
            .map(|(i, p)| FaultPlan::random(salt(seed, i), 2, p.partition.num_groups()))
            .collect();
        let watchdog = WatchdogConfig::default();
        let opts = SequenceOptions::new().resilient(&faults, &watchdog);
        let a = execute_sequence(&refs, &opts).expect("first replay");
        let b = execute_sequence(&refs, &opts).expect("second replay");
        prop_assert_eq!(&a.outcomes, &b.outcomes);
        prop_assert_eq!(a.total, b.total);
        prop_assert_eq!(a.events.len(), b.events.len());
        prop_assert_eq!(a.faults_armed, b.faults_armed);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// A multi-layer pipeline under per-layer random fault plans
    /// terminates accountably, replays bit-exactly, and its final-layer
    /// activations match the fault-free pipeline even when an inner
    /// layer wedged and recovered.
    #[test]
    fn seeded_chaos_pipelines_terminate_accountably(seed in any::<u64>()) {
        let system = mini_system(2, 2);
        let (pipeline, inputs) = chaos_pipeline(&system);
        let reference = pipeline
            .execute_with(&SequenceOptions::new().functional(&inputs))
            .expect("fault-free pipeline");
        let reference_outputs = reference.outputs.and_then(|mut o| o.pop()).unwrap_or_default();

        let faults: Vec<FaultPlan> = pipeline
            .plans()
            .iter()
            .enumerate()
            .map(|(l, p)| FaultPlan::random(salt(seed, l), 2, p.partition.num_groups()))
            .collect();
        let watchdog = WatchdogConfig::default();
        let opts = SequenceOptions::new()
            .functional(&inputs)
            .resilient(&faults, &watchdog);
        let run = pipeline.execute_with(&opts).expect("chaos pipeline terminates");

        prop_assert_eq!(run.outcomes.len(), pipeline.plans().len());
        for (l, outcome) in run.outcomes.iter().enumerate() {
            prop_assert!(
                matches!(outcome.label(), "clean" | "recovered" | "degraded"),
                "layer {} verdict unaccounted: {:?}",
                l,
                outcome
            );
        }
        prop_assert!(run.faults_armed >= 1, "random plans must arm something");
        let run_outputs = run.outputs.clone().and_then(|mut o| o.pop()).unwrap_or_default();
        prop_assert_eq!(run_outputs.len(), reference_outputs.len());
        for (d, (g, w)) in run_outputs.iter().zip(reference_outputs.iter()).enumerate() {
            prop_assert!(
                g.as_slice() == w.as_slice(),
                "rank {} final activations diverged ({:?})",
                d,
                run.outcomes
            );
        }

        let replay = pipeline.execute_with(&opts).expect("replay terminates");
        prop_assert_eq!(&replay.outcomes, &run.outcomes);
        prop_assert_eq!(replay.events.len(), run.events.len());
    }
}
