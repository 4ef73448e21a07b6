//! Property-based fault campaign: for arbitrary problem shapes and
//! deterministic random fault plans, a resilient run must terminate and
//! deliver either bit-exact outputs or a structured `Degraded` verdict
//! with a non-empty cause — never a hang, never silent corruption.

use flashoverlap::resilience::{FaultPlan, ResilientOutcome, WatchdogConfig};
use flashoverlap::runtime::{CommPattern, FunctionalInputs};
use flashoverlap::{OverlapPlan, SequenceOptions, SystemSpec, WavePartition};
use gpu_sim::gemm::{GemmConfig, GemmDims};
use proptest::prelude::*;

fn plan_for(m: u32, n: u32, k: u32, gpus: usize) -> OverlapPlan {
    let dims = GemmDims::new(m, n, k);
    let mut system = SystemSpec::rtx4090(gpus);
    system.arch.sm_count = 8;
    system.comm_sms = 2;
    let config = GemmConfig::choose(dims, &system.arch);
    let waves = config.grid(dims).num_tiles().div_ceil(system.compute_sms());
    OverlapPlan::new(
        dims,
        CommPattern::AllReduce,
        system,
        WavePartition::per_wave(waves),
    )
    .expect("valid plan")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every seeded fault plan terminates with an accounted-for verdict:
    /// `Clean`/`Recovered` runs are bit-exact against the fault-free
    /// functional reference, and `Degraded` runs name their cause.
    #[test]
    fn seeded_fault_campaigns_terminate_accountably(
        m in prop::sample::select(vec![128u32, 256, 384]),
        n in prop::sample::select(vec![128u32, 256]),
        gpus in prop::sample::select(vec![2usize, 3]),
        seed in any::<u64>(),
    ) {
        let plan = plan_for(m, n, 64, gpus);
        let num_groups = plan.partition.num_groups();
        let inputs = [FunctionalInputs::random(plan.dims, gpus, seed ^ 0x9e37)];
        let reference = plan
            .execute_with(&SequenceOptions::new().functional(&inputs))
            .expect("reference run");
        let reference_outputs = reference.outputs.and_then(|mut o| o.pop()).unwrap_or_default();
        let faults = [FaultPlan::random(seed, gpus, num_groups)];
        prop_assert!(!faults[0].is_empty());

        let run = plan
            .execute_with(
                &SequenceOptions::new()
                    .functional(&inputs)
                    .resilient(&faults, &WatchdogConfig::default()),
            )
            .expect("resilient run terminates");

        let run_outputs = run.outputs.clone().and_then(|mut o| o.pop()).unwrap_or_default();
        let bit_exact = run_outputs.len() == reference_outputs.len()
            && run_outputs
                .iter()
                .zip(reference_outputs.iter())
                .all(|(a, b)| a.as_slice() == b.as_slice());
        match &run.outcomes[0] {
            ResilientOutcome::Clean => prop_assert!(bit_exact, "clean run must be bit-exact"),
            ResilientOutcome::Recovered { tail_groups, .. } => {
                prop_assert!(bit_exact, "recovered run must be bit-exact");
                prop_assert!(!tail_groups.is_empty(), "recovery must name its groups");
            }
            ResilientOutcome::Degraded { cause, .. } => {
                prop_assert!(!cause.to_string().is_empty(), "degraded verdict must carry a cause");
                prop_assert!(bit_exact, "degraded fallback still reads complete tiles");
            }
        }
    }

    /// The same seed always yields the same verdict and latency — fault
    /// campaigns are replayable.
    #[test]
    fn fault_campaigns_are_replayable(seed in any::<u64>()) {
        let plan = plan_for(256, 256, 64, 2);
        let faults = [FaultPlan::random(seed, 2, plan.partition.num_groups())];
        let watchdog = WatchdogConfig::default();
        let options = SequenceOptions::new().resilient(&faults, &watchdog);
        let a = plan.execute_with(&options).expect("first run");
        let b = plan.execute_with(&options).expect("second run");
        prop_assert_eq!(&a.outcomes, &b.outcomes);
        prop_assert_eq!(a.reports[0].latency, b.reports[0].latency);
        prop_assert_eq!(a.events.len(), b.events.len());
    }
}
