//! One simulation world, many chains.
//!
//! A [`ChainWorld`] is reset between chains instead of rebuilt. These
//! tests run random sequences of chains through one world and compare
//! every outcome with [`execute_sequence`] in a fresh world: the totals,
//! reports, spans, resilient outcomes, fault timelines and telemetry
//! records must be identical, whatever the previous chain left behind
//! (a wedge, a starved wait, leftover armed faults, an error, another
//! system), and no chain may keep a plan's shared data alive.

#![allow(clippy::unwrap_used)]

use std::rc::Rc;

use flashoverlap::resilience::{Fault, FaultPlan, WatchdogConfig};
use flashoverlap::runtime::CommPattern;
use flashoverlap::{
    execute_sequence, execute_sequence_in, ChainWorld, Instrumentation, OverlapPlan,
    SequenceOptions, SequenceOutcome, SystemSpec,
};
use gpu_sim::gemm::GemmDims;
use planverify::Mutation;
use proptest::prelude::*;
use sim::DetRng;
use telemetry::Telemetry;

const PATTERNS: usize = 4;
const SHAPES: [GemmDims; 2] = [GemmDims::new(256, 256, 32), GemmDims::new(384, 256, 32)];

fn small_system(ranks: usize) -> SystemSpec {
    let mut spec = SystemSpec::rtx4090(ranks);
    spec.arch.sm_count = 8;
    spec.comm_sms = 2;
    spec
}

/// Systems that differ in what building a cluster reads: the seed, and
/// the rank count and node map.
fn systems() -> Vec<SystemSpec> {
    vec![
        small_system(2),
        small_system(2).with_seed(99),
        small_system(4).with_nodes(2),
    ]
}

fn pattern(kind: usize, rows: usize, ranks: usize) -> CommPattern {
    match kind {
        0 => CommPattern::AllReduce,
        1 => CommPattern::ReduceScatter,
        2 => CommPattern::AllToAll {
            routing: (0..ranks)
                .map(|rank| (0..rows).map(|row| (row * 7 + rank) % ranks).collect())
                .collect(),
        },
        _ => CommPattern::AllGather,
    }
}

/// Tuned plans for every system × pattern × shape, built once.
struct Catalog {
    /// `plans[system][pattern * SHAPES.len() + shape]`.
    plans: Vec<Vec<OverlapPlan>>,
}

impl Catalog {
    fn build() -> Self {
        let plans = systems()
            .into_iter()
            .map(|system| {
                (0..PATTERNS)
                    .flat_map(|p| SHAPES.iter().map(move |&dims| (p, dims)))
                    .map(|(p, dims)| {
                        let pattern = pattern(p, dims.m as usize, system.n_gpus);
                        OverlapPlan::tuned(dims, pattern, system.clone()).unwrap()
                    })
                    .collect()
            })
            .collect();
        Catalog { plans }
    }

    fn plan(&self, system: usize, pattern: usize, shape: usize) -> &OverlapPlan {
        &self.plans[system][pattern * SHAPES.len() + shape]
    }

    /// Strong counts of every plan's shared launch data.
    fn rc_counts(&self) -> Vec<(usize, usize)> {
        self.plans
            .iter()
            .flatten()
            .map(|p| {
                (
                    Rc::strong_count(p.issue_order()),
                    Rc::strong_count(p.group_runs()),
                )
            })
            .collect()
    }
}

/// One chain of a sequence, drawn from a seed.
#[derive(Debug)]
struct ChainSpec {
    system: usize,
    /// `(pattern, shape)` per segment.
    segments: Vec<(usize, usize)>,
    serial: bool,
    trace: bool,
    telemetry: bool,
    /// Fault seed of a resilient chain.
    resilient: Option<u64>,
    /// Replace segment 0's faults with an unrecoverable dropped-increment
    /// wedge (resilient chains only).
    wedge: bool,
    /// Starve the last segment's group-0 wait (instrumented chains only).
    mutation: bool,
    /// Hand the chain one fault plan too few, so it returns `Err`.
    fail: bool,
}

impl ChainSpec {
    fn draw(seed: u64, fail: bool) -> Self {
        let mut rng = DetRng::new(seed);
        let mut coin = |n: u64| rng.next_below(n) as usize;
        let system = coin(3);
        let len = 1 + coin(4);
        let segments = (0..len).map(|_| (coin(PATTERNS as u64), coin(2))).collect();
        let serial = coin(2) == 0;
        let trace = coin(2) == 0;
        let telemetry = coin(2) == 0;
        let resilient = (fail || coin(3) == 0).then_some(seed.rotate_left(17));
        let wedge = resilient.is_some() && coin(2) == 0;
        let mutation = telemetry && resilient.is_none() && coin(3) == 0;
        ChainSpec {
            system,
            segments,
            serial,
            trace,
            telemetry,
            resilient,
            wedge,
            mutation,
            fail,
        }
    }

    /// Runs the chain in `world`, or in a fresh world when `None`;
    /// returns the outcome (errors as text) and the telemetry record.
    fn run(
        &self,
        catalog: &Catalog,
        world: Option<&mut ChainWorld>,
    ) -> (Result<SequenceOutcome, String>, Option<String>) {
        let plans: Vec<&OverlapPlan> = self
            .segments
            .iter()
            .map(|&(p, s)| catalog.plan(self.system, p, s))
            .collect();
        let mut faults: Vec<FaultPlan> = match self.resilient {
            Some(seed) => plans
                .iter()
                .enumerate()
                .map(|(i, plan)| {
                    if i == 0 && self.wedge {
                        FaultPlan::single(Fault::DroppedIncrement {
                            rank: 0,
                            group: 0,
                            count: u32::MAX,
                        })
                    } else {
                        FaultPlan::random(
                            seed ^ i as u64,
                            plan.system.n_gpus,
                            plan.partition.num_groups(),
                        )
                    }
                })
                .collect(),
            None => Vec::new(),
        };
        if self.fail {
            faults.pop();
        }
        let watchdog = WatchdogConfig::default();
        let telemetry = self.telemetry.then(Telemetry::new);
        // Resilient chains take monitors, not probes or mutations.
        let instr = telemetry.as_ref().map(|t| match self.resilient {
            Some(_) => Instrumentation {
                monitor: Some(t.monitor()),
                probe: None,
                mutation: None,
            },
            None => Instrumentation {
                mutation: self.mutation.then_some((
                    self.segments.len() - 1,
                    Mutation::RaiseThreshold { rank: 0, group: 0 },
                )),
                ..t.instrumentation()
            },
        });
        let mut options = SequenceOptions::new();
        if self.serial {
            options = options.serial();
        }
        if self.trace {
            options = options.trace();
        }
        if let Some(instr) = &instr {
            options = options.instrument(instr);
        }
        if self.resilient.is_some() {
            options = options.resilient(&faults, &watchdog);
        }
        let outcome = match world {
            Some(world) => execute_sequence_in(world, &plans, &options),
            None => execute_sequence(&plans, &options),
        };
        drop(instr);
        let record = telemetry.map(|t| format!("{:?}", t.take_record()));
        (outcome.map_err(|e| e.to_string()), record)
    }
}

fn same_outcome(
    got: &Result<SequenceOutcome, String>,
    want: &Result<SequenceOutcome, String>,
) -> TestCaseResult {
    match (got, want) {
        (Ok(got), Ok(want)) => {
            prop_assert_eq!(got.total, want.total);
            prop_assert_eq!(&got.reports, &want.reports);
            prop_assert_eq!(&got.spans, &want.spans);
            prop_assert_eq!(&got.outcomes, &want.outcomes);
            prop_assert_eq!(&got.events, &want.events);
            prop_assert_eq!(got.faults_armed, want.faults_armed);
        }
        (Err(got), Err(want)) => prop_assert_eq!(got, want),
        _ => prop_assert!(false, "one world failed where the other did not"),
    }
    Ok(())
}

#[test]
fn chains_in_one_world_match_fresh_worlds() {
    let catalog = Catalog::build();
    let before = catalog.rc_counts();
    let chains = prop::collection::vec(any::<u64>(), 2..7);
    let fail_at = 0usize..8;
    let config = ProptestConfig::with_cases(64);
    proptest::test_runner::run(&config, "chains_in_one_world_match_fresh_worlds", |rng| {
        let seeds = chains.generate(rng);
        let fail_at = fail_at.generate(rng);
        let mut world = ChainWorld::new();
        for (i, &seed) in seeds.iter().enumerate() {
            let spec = ChainSpec::draw(seed, i == fail_at);
            let (got, got_record) = spec.run(&catalog, Some(&mut world));
            let (want, want_record) = spec.run(&catalog, None);
            same_outcome(&got, &want)
                .map_err(|e| TestCaseError::fail(format!("chain {i} {spec:?}: {e:?}")))?;
            prop_assert_eq!(got_record, want_record, "chain {} {:?}: record", i, spec);
            if let Ok(outcome) = got {
                world.recycle_spans(outcome.spans);
            }
        }
        prop_assert_eq!(
            catalog.rc_counts(),
            before.clone(),
            "a chain kept plan data alive"
        );
        Ok(())
    });
}

#[test]
fn a_world_rebuilds_for_another_system_and_resets_otherwise() {
    let catalog = Catalog::build();
    let mut world = ChainWorld::new();
    // Seed change, rank and node change, then back: every chain matches
    // its fresh run.
    for system in [0, 1, 2, 0, 0] {
        let plan = catalog.plan(system, 0, 1);
        let options = SequenceOptions::new().trace();
        let got = execute_sequence_in(&mut world, &[plan, plan], &options).unwrap();
        let want = execute_sequence(&[plan, plan], &options).unwrap();
        assert_eq!(got.total, want.total, "system {system}");
        assert_eq!(got.spans, want.spans, "system {system}");
        world.recycle_spans(got.spans);
    }
}

/// A warm world reruns a chain identically and allocates no more: three
/// runs of one pipelined, traced, telemetry-instrumented 4-segment chain
/// through one world give identical outcomes, spans and records, and
/// after the first run the event heap, the stream queues and the op
/// slabs the chain uses keep their capacity: not dropped, not grown.
#[test]
fn warm_world_reruns_a_chain_without_growing() {
    let system = small_system(4);
    let plans: Vec<OverlapPlan> = [256, 384, 256, 384]
        .into_iter()
        .map(|rows| {
            let dims = GemmDims::new(rows, 256, 32);
            OverlapPlan::tuned(dims, CommPattern::AllReduce, system.clone()).unwrap()
        })
        .collect();
    let plans: Vec<&OverlapPlan> = plans.iter().collect();
    let mut world = ChainWorld::new();
    // One run: its outcome, telemetry record and the world's buffer
    // capacities after it.
    let run = |world: &mut ChainWorld| {
        let telemetry = Telemetry::new();
        let instr = telemetry.instrumentation();
        let options = SequenceOptions::new().trace().instrument(&instr);
        let outcome = execute_sequence_in(world, &plans, &options).unwrap();
        drop(instr);
        let record = format!("{:?}", telemetry.take_record());
        world.recycle_spans(outcome.spans.clone());
        (outcome, record, world.retained_capacities())
    };
    let used = [
        "event heap",
        "stream queues",
        "gemm slab",
        "collective slab",
        "comm scopes",
        "participants",
        "stamps",
    ];
    let (want, want_record, want_capacity) = run(&mut world);
    assert!(!want.spans.is_empty() && !want_record.is_empty());
    for (name, cap) in &want_capacity {
        assert!(!used.contains(name) || *cap > 0, "{name} dropped");
    }
    for i in 1..3 {
        let (outcome, record, capacity) = run(&mut world);
        same_outcome(&Ok(outcome), &Ok(want.clone())).unwrap();
        assert_eq!(record, want_record, "run {i}: record");
        assert_eq!(
            capacity, want_capacity,
            "run {i}: the world's buffers changed"
        );
    }
}
