//! Criterion microbenchmarks of the library hot paths.
//!
//! These benchmark the *reproduction's own* machinery (mapping-table
//! construction, predictor evaluation, predictive search, simulated runs)
//! — the costs that determine whether real-time tuning (§4.1.2) is
//! feasible. The figure/table reproductions live in `src/bin/`.
//!
//! `cargo bench -p bench --bench microbench -- <filter>` runs only the
//! benchmarks whose name contains `<filter>` (e.g. `runtime/`).

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use std::hint::black_box;

use collectives::Primitive;
use flashoverlap::partition::candidate_partitions;
use flashoverlap::runtime::CommPattern;
use flashoverlap::{
    execute_sequence_in, predictive_search, ChainWorld, Fault, FaultPlan, LatencyPredictor,
    OverlapPlan, SystemSpec, WatchdogConfig, WavePartition,
};
use gpu_sim::gemm::{GemmConfig, GemmDims};
use gpu_sim::swizzle::Swizzle;
use gpu_sim::tile::{TileGrid, TileShape};
use gpu_sim::wave::WaveSchedule;
use serving::{PlanCache, RouterPolicy, ServeConfig};
use sim::{Event, Sim, SimDuration};
use telemetry::{ChainIndex, Telemetry, TelemetryRecord};
use workloads::models;

/// The event engine's own cost: a one-variant event that bumps a
/// counter, so the heap and dispatch are all that is measured.
struct Bump;

impl Event for Bump {
    type World = u64;
    fn fire(self, world: &mut u64, _sim: &mut Sim<Bump>) {
        *world += 1;
    }
}

fn bench_event_engine(c: &mut Criterion) {
    c.bench_function("sim/10k_events", |b| {
        b.iter_batched(
            || {
                let mut sim: Sim<Bump> = Sim::new();
                for i in 0..10_000u64 {
                    sim.schedule_at(sim::SimTime::from_nanos(i * 7 % 5000), Bump);
                }
                sim
            },
            |mut sim| {
                let mut world = 0u64;
                sim.run(&mut world).expect("run");
                black_box(world)
            },
            BatchSize::SmallInput,
        )
    });
}

fn bench_mapping_build(c: &mut Criterion) {
    let grid = TileGrid::new(4096, 8192, TileShape::new(256, 128));
    let order = Swizzle::Strip { width: 4 }.issue_order(&grid);
    let schedule = WaveSchedule::new(&order, 112);
    let partition = WavePartition::new(vec![2; (schedule.num_waves() / 2) as usize]);
    c.bench_function("mapping/tile_build_1024_tiles", |b| {
        b.iter(|| {
            black_box(flashoverlap::mapping::TileMapping::build(
                grid,
                black_box(&schedule),
                black_box(&partition),
            ))
        })
    });
}

fn bench_predictor(c: &mut Criterion) {
    let system = SystemSpec::rtx4090(4);
    let dims = GemmDims::new(4096, 8192, 8192);
    let predictor = LatencyPredictor::build(dims, Primitive::AllReduce, &system);
    let waves = predictor.profile().total_waves;
    let partition = WavePartition::new(vec![2; (waves / 2) as usize + (waves % 2) as usize])
        .sizes()
        .to_vec();
    // Rebuild a covering partition (last group absorbs the remainder).
    let mut sizes = partition;
    let covered: u32 = sizes.iter().sum();
    if covered > waves {
        let last = sizes.len() - 1;
        sizes[last] -= covered - waves;
    }
    let partition = WavePartition::new(sizes);
    c.bench_function("predictor/predict_one_partition", |b| {
        b.iter(|| black_box(predictor.predict(black_box(&partition))))
    });
    c.bench_function("predictor/offline_profile_build", |b| {
        b.iter(|| {
            black_box(LatencyPredictor::build(
                black_box(dims),
                Primitive::AllReduce,
                &system,
            ))
        })
    });
}

fn bench_search(c: &mut Criterion) {
    let system = SystemSpec::rtx4090(4);
    let dims = GemmDims::new(4096, 8192, 8192);
    c.bench_function("tuner/predictive_search_t10", |b| {
        b.iter(|| {
            black_box(predictive_search(
                black_box(dims),
                Primitive::AllReduce,
                &system,
            ))
        })
    });
    c.bench_function("tuner/candidate_enumeration_t12", |b| {
        b.iter(|| black_box(candidate_partitions(black_box(12), 2, 4)))
    });
}

/// What a serve replica pays per plan-cache miss: a fresh `PlanCache`
/// tunes, builds and statically verifies a plan for each of twelve
/// churn-mix shapes (the three churn models at four padded token counts,
/// tensor-parallel over 4 GPUs), and reads each plan's predicted group
/// completions as the chain leader's drift sample does.
fn bench_plan_cache_miss(c: &mut Criterion) {
    let system = SystemSpec::rtx4090(4);
    let shapes: Vec<GemmDims> = [
        models::LLAMA3_8B,
        models::LLAMA2_70B,
        models::DEEPSEEK_MOE_EXPERT,
    ]
    .into_iter()
    .flat_map(|model| {
        [64, 256, 1024, 2048]
            .into_iter()
            .map(move |tokens| GemmDims::new(tokens, model.hidden, model.intermediate / 4))
    })
    .collect();
    c.bench_function("tuner/plan_cache_miss", |b| {
        b.iter(|| {
            let mut cache = PlanCache::new(shapes.len());
            for &dims in &shapes {
                let (plan, hit) = cache
                    .get_or_tune(black_box(dims), &CommPattern::AllReduce, &system)
                    .expect("plan");
                debug_assert!(!hit);
                black_box(plan.predicted_group_completions());
            }
            black_box(cache.stats())
        })
    });
}

/// [`bench_plan_cache_miss`] on churn's own shapes: token counts padded
/// to the 16-token bucket rather than 64-token multiples, so most grids
/// end in partial edge tiles and most tuned plans are a single group.
fn bench_plan_cache_miss_churn(c: &mut Criterion) {
    let system = SystemSpec::rtx4090(4);
    let shapes: Vec<GemmDims> = [
        (models::LLAMA3_8B, [208, 720, 1520, 3008]),
        (models::LLAMA2_70B, [144, 496, 1008, 2000]),
        (models::DEEPSEEK_MOE_EXPERT, [48, 272, 592, 1008]),
    ]
    .into_iter()
    .flat_map(|(model, tokens)| {
        tokens
            .into_iter()
            .map(move |t: u32| GemmDims::new(t, model.hidden, model.intermediate / 4))
    })
    .collect();
    c.bench_function("tuner/plan_cache_miss_churn", |b| {
        b.iter(|| {
            let mut cache = PlanCache::new(shapes.len());
            for &dims in &shapes {
                let (plan, hit) = cache
                    .get_or_tune(black_box(dims), &CommPattern::AllReduce, &system)
                    .expect("plan");
                debug_assert!(!hit);
                black_box(plan.predicted_group_completions());
            }
            black_box(cache.stats())
        })
    });
}

fn bench_simulated_run(c: &mut Criterion) {
    let system = SystemSpec::rtx4090(4);
    let dims = GemmDims::new(4096, 8192, 8192);
    let config = GemmConfig::choose(dims, &system.arch);
    let waves = config.grid(dims).num_tiles().div_ceil(system.compute_sms());
    let plan = OverlapPlan::new(
        dims,
        CommPattern::AllReduce,
        system.clone(),
        WavePartition::new(vec![2; (waves / 2) as usize]),
    )
    .expect("plan");
    c.bench_function("runtime/execute_overlap_plan", |b| {
        b.iter(|| {
            black_box(
                plan.execute_with(&flashoverlap::SequenceOptions::new())
                    .expect("execute"),
            )
        })
    });
    c.bench_function("baseline/nonoverlap_run", |b| {
        b.iter(|| {
            black_box(
                baselines::run_nonoverlap(dims, &CommPattern::AllReduce, &system)
                    .expect("nonoverlap"),
            )
        })
    });
}

/// The per-chain cost serving pays: one traced, telemetry-monitored
/// execution of a serve-shaped plan (a 2048-token Llama-3-8B batch,
/// tensor-parallel over 4 GPUs, tuned AllReduce plan), recycling one
/// record's buffers across runs as the replica engine does — first in a
/// fresh simulation world per run, then (`execute_serve_chain_reused`)
/// through one reused [`ChainWorld`] that also recycles the span buffer,
/// as a replica engine runs its chains.
fn bench_serve_instrumented(c: &mut Criterion) {
    let system = SystemSpec::rtx4090(4);
    let dims = GemmDims::new(2048, 4096, 14336 / 4);
    let partition = predictive_search(dims, Primitive::AllReduce, &system).partition;
    let plan = OverlapPlan::new(dims, CommPattern::AllReduce, system, partition).expect("plan");
    let mut scratch = TelemetryRecord::default();
    c.bench_function("runtime/execute_serve_instrumented", |b| {
        b.iter(|| {
            let telemetry = Telemetry::recycling(std::mem::take(&mut scratch));
            let instr = telemetry.instrumentation();
            let options = flashoverlap::SequenceOptions::new()
                .trace()
                .instrument(&instr);
            let outcome = plan.execute_with(&options).expect("execute");
            scratch = telemetry.take_record();
            black_box((outcome.total, scratch.increments.len()))
        })
    });
    let mut world = ChainWorld::new();
    c.bench_function("runtime/execute_serve_chain_reused", |b| {
        b.iter(|| {
            let telemetry = Telemetry::recycling(std::mem::take(&mut scratch));
            let instr = telemetry.instrumentation();
            let options = flashoverlap::SequenceOptions::new()
                .trace()
                .instrument(&instr);
            let outcome = execute_sequence_in(&mut world, &[&plan], &options).expect("execute");
            scratch = telemetry.take_record();
            let total = outcome.total;
            world.recycle_spans(outcome.spans);
            black_box((total, scratch.increments.len()))
        })
    });
}

/// One whole serve call at `serve_steady`'s shape: 500 Poisson requests
/// at 500 rps of the default mix over four 4-GPU RTX 4090 replicas
/// behind shape affinity, serial engine. Plan tuning, chain execution,
/// telemetry, attribution and accounting all count.
fn bench_serve_steady(c: &mut Criterion) {
    let mut config = ServeConfig::new(SystemSpec::rtx4090(4));
    config.replicas = 4;
    config.requests = 500;
    config.seed = 3;
    config.router = RouterPolicy::ShapeAffinity;
    c.bench_function("serving/serve_steady_500", |b| {
        b.iter(|| serving::serve(black_box(&config)).expect("serve").completed)
    });
}

/// A 4-batch pipelined chain of serve-shaped plans (Llama-3-8B MLP
/// batches tensor-parallel over 4 GPUs, tuned AllReduce plans), the shape
/// of the overloaded serve loop's chains.
fn serve_mix_chain() -> Vec<OverlapPlan> {
    let system = SystemSpec::rtx4090(4);
    [4096, 2048, 3072, 1024]
        .into_iter()
        .map(|tokens| {
            let dims = GemmDims::new(tokens, 4096, 14336 / 4);
            OverlapPlan::tuned(dims, CommPattern::AllReduce, system.clone()).expect("plan")
        })
        .collect()
}

/// The serve-mix chain run the way a replica engine runs its chains:
/// through one reused [`ChainWorld`], telemetry-instrumented and traced,
/// recycling the record's and the span buffer's allocations.
fn bench_pipelined_chain_reused(c: &mut Criterion) {
    let plans = serve_mix_chain();
    let plan_refs: Vec<&OverlapPlan> = plans.iter().collect();
    let mut scratch = TelemetryRecord::default();
    let mut world = ChainWorld::new();
    c.bench_function("runtime/execute_pipelined_chain_reused", |b| {
        b.iter(|| {
            let telemetry = Telemetry::recycling(std::mem::take(&mut scratch));
            let instr = telemetry.instrumentation();
            let options = flashoverlap::SequenceOptions::new()
                .trace()
                .instrument(&instr);
            let outcome = execute_sequence_in(&mut world, &plan_refs, &options).expect("chain");
            scratch = telemetry.take_record();
            let total = outcome.total;
            world.recycle_spans(outcome.spans);
            black_box((total, scratch.increments.len()))
        })
    });
}

/// A 4-segment resilient chain of miniature per-wave plans, run the way
/// a chaos serve replica runs its chains (one reused world, monitor-only
/// telemetry, traced): segment 0 arms a delayed-signal budget that
/// segment 2 quarantines, segment 1 loses a signal and recovers through
/// a tail re-issue, segment 2 stalls on the link, segment 3 starves and
/// degrades to bulk collectives.
fn bench_resilient_chain_reused(c: &mut Criterion) {
    let plan = |m| {
        let dims = GemmDims::new(m, 256, 64);
        let mut system = SystemSpec::rtx4090(2);
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
        .expect("plan")
    };
    let plans = [plan(384), plan(256), plan(384), plan(256)];
    let plan_refs: Vec<&OverlapPlan> = plans.iter().collect();
    let faults = [
        FaultPlan::single(Fault::DelayedIncrement {
            rank: 0,
            group: 0,
            count: 1000,
            delay: SimDuration::from_micros(20),
        }),
        FaultPlan::single(Fault::DroppedIncrement {
            rank: 1,
            group: 1,
            count: 1,
        }),
        FaultPlan::single(Fault::LinkStall {
            stall: SimDuration::from_micros(50),
            count: 2,
        }),
        FaultPlan::single(Fault::DroppedIncrement {
            rank: 0,
            group: 0,
            count: u32::MAX,
        }),
    ];
    let watchdog = WatchdogConfig::default();
    let mut scratch = TelemetryRecord::default();
    let mut world = ChainWorld::new();
    c.bench_function("runtime/execute_resilient_chain_reused", |b| {
        b.iter(|| {
            let telemetry = Telemetry::recycling(std::mem::take(&mut scratch));
            let instr = flashoverlap::Instrumentation {
                monitor: Some(telemetry.monitor()),
                probe: None,
                mutation: None,
            };
            let options = flashoverlap::SequenceOptions::new()
                .trace()
                .instrument(&instr)
                .resilient(&faults, &watchdog);
            let outcome = execute_sequence_in(&mut world, &plan_refs, &options).expect("chain");
            drop(instr);
            scratch = telemetry.take_record();
            let total = outcome.total;
            world.recycle_spans(outcome.spans);
            black_box((total, outcome.outcomes.len(), scratch.runtime_events.len()))
        })
    });
}

/// The per-chain telemetry cost serving pays after a chain runs, the way
/// a replica engine pays it: one reused [`ChainIndex`] re-indexes the
/// serve-mix chain's record and spans, folds the signal-latency samples
/// and attributes the critical path.
fn bench_summarize_chain(c: &mut Criterion) {
    let plans = serve_mix_chain();
    let plan_refs: Vec<&OverlapPlan> = plans.iter().collect();
    let telemetry = Telemetry::new();
    let instr = flashoverlap::Instrumentation {
        monitor: Some(telemetry.monitor()),
        probe: None,
        mutation: None,
    };
    let options = flashoverlap::SequenceOptions::new()
        .trace()
        .instrument(&instr);
    let outcome = flashoverlap::execute_sequence(&plan_refs, &options).expect("chain");
    let record = telemetry.take_record();
    let total_ns = outcome.total.as_nanos();
    let mut index = ChainIndex::new();
    c.bench_function("telemetry/summarize_pipelined_chain", |b| {
        b.iter(|| {
            index.rebuild(black_box(&record), &outcome.spans);
            let signal = index.signal_sum();
            let attribution = index.attribute(total_ns);
            black_box((signal, attribution))
        })
    });
}

fn bench_collective_cost(c: &mut Criterion) {
    let fabric = interconnect::FabricSpec::rtx4090_pcie();
    c.bench_function("collectives/cost_model_eval", |b| {
        b.iter(|| {
            let mut acc = SimDuration::ZERO;
            for bytes in [1u64 << 20, 1 << 24, 1 << 28] {
                acc += collectives::collective_duration(
                    Primitive::AllReduce,
                    black_box(bytes),
                    4,
                    &fabric,
                );
            }
            black_box(acc)
        })
    });
}

fn bench_token_mapping(c: &mut Criterion) {
    let grid = TileGrid::new(8192, 2048, TileShape::new(256, 128));
    let order = Swizzle::StripRows { height: 1 }.issue_order(&grid);
    let schedule = WaveSchedule::new(&order, 112);
    let partition = WavePartition::new(vec![1; schedule.num_waves() as usize]);
    let routing = workloads::balanced_routing(8192, 8, 3);
    c.bench_function("mapping/token_build_8192_tokens_8_ranks", |b| {
        b.iter(|| {
            black_box(
                flashoverlap::mapping::TokenMapping::build(
                    grid,
                    black_box(&schedule),
                    black_box(&partition),
                    black_box(&routing),
                )
                .expect("token mapping"),
            )
        })
    });
}

fn bench_pipeline(c: &mut Criterion) {
    use flashoverlap::pipeline::{LayerSpec, Pipeline};
    use gpu_sim::elementwise::ElementwiseOp;
    use std::rc::Rc;
    let system = SystemSpec::rtx4090(4);
    let dims = GemmDims::new(2048, 2048, 2048);
    let rms = ElementwiseOp::RmsNorm {
        weight: Rc::new(vec![1.0; 2048]),
        eps: 1e-6,
    };
    let pipeline = Pipeline::tuned(
        system,
        vec![
            LayerSpec {
                dims,
                pattern: CommPattern::AllReduce,
                epilogue: Some(rms.clone()),
            },
            LayerSpec {
                dims,
                pattern: CommPattern::AllReduce,
                epilogue: Some(rms),
            },
        ],
    )
    .expect("pipeline");
    c.bench_function("pipeline/two_layer_execute", |b| {
        b.iter(|| {
            black_box(
                pipeline
                    .execute_with(&flashoverlap::SequenceOptions::new())
                    .expect("run"),
            )
        })
    });
}

/// The static check a plan-cache miss pays before a plan is served:
/// lowering into a schedule model plus the region proof, on the
/// serve-shaped AllReduce plan (whole-tile writer shared by all four
/// ranks) and a ReduceScatter plan (per-destination subtile writer).
fn bench_check_static(c: &mut Criterion) {
    let system = SystemSpec::rtx4090(4);
    let dims = GemmDims::new(2048, 4096, 14336 / 4);
    let all_reduce =
        OverlapPlan::tuned(dims, CommPattern::AllReduce, system.clone()).expect("plan");
    c.bench_function("planverify/check_static_serve_shape", |b| {
        b.iter(|| black_box(&all_reduce).check_static().expect("clean"))
    });
    let reduce_scatter =
        OverlapPlan::tuned(dims, CommPattern::ReduceScatter, system).expect("plan");
    c.bench_function("planverify/check_static_reduce_scatter", |b| {
        b.iter(|| black_box(&reduce_scatter).check_static().expect("clean"))
    });
}

fn config() -> Criterion {
    Criterion::default()
        .sample_size(20)
        .measurement_time(std::time::Duration::from_secs(2))
        .warm_up_time(std::time::Duration::from_millis(500))
}

criterion_group! {
    name = benches;
    config = config();
    targets = bench_event_engine, bench_mapping_build, bench_token_mapping,
              bench_predictor, bench_search, bench_plan_cache_miss,
              bench_plan_cache_miss_churn, bench_simulated_run,
              bench_serve_instrumented, bench_pipelined_chain_reused,
              bench_resilient_chain_reused, bench_serve_steady,
              bench_summarize_chain,
              bench_collective_cost,
              bench_pipeline, bench_check_static
}
criterion_main!(benches);
