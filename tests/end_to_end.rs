//! End-to-end integration tests: the full FlashOverlap pipeline — GEMM
//! with fused reorder epilogue, counting-table signaling, group-wise
//! collectives, and post-communication remap — verified numerically
//! against the plain oracle on the real (paper) system specs.

use flashoverlap::runtime::CommPattern;
use flashoverlap::{FunctionalInputs, OverlapPlan, SequenceOptions, SystemSpec, WavePartition};
use gpu_sim::gemm::GemmDims;
use tensor::{allclose, gemm, rmsnorm, Matrix};

/// Per-rank logical outputs of a functional single-plan run.
fn run_functional(plan: &OverlapPlan, inputs: &FunctionalInputs) -> Vec<Matrix> {
    plan.execute_with(&SequenceOptions::new().functional(std::slice::from_ref(inputs)))
        .expect("functional execution")
        .outputs
        .and_then(|mut o| o.pop())
        .expect("functional outputs")
}

fn reduced_reference(inputs: &FunctionalInputs) -> Matrix {
    let mut acc = gemm(&inputs.a[0], &inputs.b[0]);
    for r in 1..inputs.a.len() {
        acc = acc.add(&gemm(&inputs.a[r], &inputs.b[r]));
    }
    acc
}

#[test]
fn all_reduce_pipeline_on_rtx4090_system() {
    let dims = GemmDims::new(1024, 1024, 128);
    let system = SystemSpec::rtx4090(4);
    let plan = OverlapPlan::tuned(dims, CommPattern::AllReduce, system).unwrap();
    let inputs = FunctionalInputs::random(dims, 4, 11);
    let outputs = run_functional(&plan, &inputs);
    let expected = reduced_reference(&inputs);
    for (rank, out) in outputs.iter().enumerate() {
        assert!(allclose(out, &expected, 2e-2), "rank {rank}");
    }
}

#[test]
fn all_reduce_pipeline_on_a800_system() {
    let dims = GemmDims::new(768, 1280, 96);
    let system = SystemSpec::a800(2);
    let plan = OverlapPlan::tuned(dims, CommPattern::AllReduce, system).unwrap();
    let inputs = FunctionalInputs::random(dims, 2, 12);
    let outputs = run_functional(&plan, &inputs);
    let expected = reduced_reference(&inputs);
    assert!(allclose(&outputs[0], &expected, 2e-2));
    assert!(allclose(&outputs[1], &expected, 2e-2));
}

#[test]
fn reduce_scatter_pipeline_delivers_interleaved_rows() {
    let dims = GemmDims::new(1024, 768, 64);
    let system = SystemSpec::rtx4090(4);
    let plan = OverlapPlan::tuned(dims, CommPattern::ReduceScatter, system).unwrap();
    let inputs = FunctionalInputs::random(dims, 4, 13);
    let outputs = run_functional(&plan, &inputs);
    let expected = reduced_reference(&inputs);
    for (rank, out) in outputs.iter().enumerate() {
        assert_eq!(out.rows(), 256, "each rank holds M/n rows");
        for i in 0..out.rows() {
            let global = rank + i * 4;
            for c in 0..out.cols() {
                let diff = (out[(i, c)] - expected[(global, c)]).abs();
                assert!(diff < 2e-2, "rank {rank} local row {i} col {c}");
            }
        }
    }
}

#[test]
fn all_to_all_pipeline_routes_every_token() {
    let dims = GemmDims::new(512, 256, 64);
    let system = SystemSpec::rtx4090(4);
    let routing = workloads::balanced_routing(512, 4, 21);
    let plan = OverlapPlan::tuned(
        dims,
        CommPattern::AllToAll {
            routing: routing.clone(),
        },
        system,
    )
    .unwrap();
    let inputs = FunctionalInputs::random(dims, 4, 14);
    let per_rank: Vec<Matrix> = (0..4).map(|r| gemm(&inputs.a[r], &inputs.b[r])).collect();
    let outputs = run_functional(&plan, &inputs);
    let mapping = plan.token_mapping().unwrap();
    let mut total_tokens = 0;
    for (dest, out) in outputs.iter().enumerate() {
        total_tokens += out.rows();
        for (i, &(src, row)) in mapping.recv_expected[dest].iter().enumerate() {
            for c in 0..out.cols() {
                let diff = (out[(i, c)] - per_rank[src][(row as usize, c)]).abs();
                assert!(diff < 2e-2, "dest {dest} token {i} col {c}");
            }
        }
    }
    assert_eq!(total_tokens, 4 * 512, "every token delivered exactly once");
}

#[test]
fn fused_rmsnorm_remap_restores_logical_order() {
    // Exercise the Fig. 6 path inside the simulator: after the overlapped
    // AllReduce, an RMSNorm kernel with the element gather fused must
    // produce rmsnorm(reference) directly from the packed buffer.
    use gpu_sim::arch::RemapGranularity;
    use gpu_sim::elementwise::{ElementwiseKernel, ElementwiseOp, Gather};
    use gpu_sim::stream::enqueue;
    use gpu_sim::ClusterSim;
    use std::rc::Rc;

    let dims = GemmDims::new(512, 512, 64);
    let system = SystemSpec::rtx4090(2);
    let plan = OverlapPlan::tuned(dims, CommPattern::AllReduce, system.clone()).unwrap();
    let inputs = FunctionalInputs::random(dims, 2, 31);
    let outputs = run_functional(&plan, &inputs);
    let expected = reduced_reference(&inputs);

    // Re-pack the verified output through the mapping and run the fused
    // kernel on a fresh device.
    let mapping = plan.tile_mapping().unwrap();
    let mut packed = vec![0.0f32; mapping.total_elems];
    for r in 0..dims.m {
        for c in 0..dims.n {
            packed[mapping.packed_index(r, c)] = outputs[0][(r as usize, c as usize)];
        }
    }
    let gather = Rc::new(mapping.element_gather());
    let weight: Vec<f32> = (0..dims.n).map(|i| 1.0 + (i % 7) as f32 * 0.1).collect();

    let mut world = gpu_sim::Cluster::new(1, system.arch.clone(), true, 1);
    let mut sim: ClusterSim = sim::Sim::new();
    let dev = &mut world.devices[0];
    let input = dev.mem.alloc_init(&packed);
    let output = dev.mem.alloc((dims.m * dims.n) as usize);
    let stream = dev.create_stream();
    enqueue(
        &mut world,
        &mut sim,
        0,
        stream,
        gpu_sim::Op::Elementwise(ElementwiseKernel {
            input,
            output,
            rows: dims.m as usize,
            cols: dims.n as usize,
            op: ElementwiseOp::RmsNorm {
                weight: Rc::new(weight.clone()),
                eps: 1e-6,
            },
            gather: Gather::Elements(gather),
            remap_cost: Some(RemapGranularity::Tile),
        }),
    );
    sim.run(&mut world).unwrap();
    let fused = Matrix::from_vec(
        dims.m as usize,
        dims.n as usize,
        world.devices[0].mem.snapshot(output),
    );
    let reference = rmsnorm(&expected, &weight, 1e-6);
    assert!(allclose(&fused, &reference, 2e-2));
}

#[test]
fn every_partition_of_a_shape_gives_identical_numerics() {
    // 2048x2048 with 256x128 tiles is 128 tiles = 2 contended waves on
    // the 4090; K stays small so the functional oracle is cheap.
    let dims = GemmDims::new(2048, 2048, 32);
    let system = SystemSpec::rtx4090(2);
    let waves = system.planned_waves(dims);
    assert!(waves >= 2, "need multiple waves (got {waves})");
    let inputs = FunctionalInputs::random(dims, 2, 99);
    let expected = reduced_reference(&inputs);
    for partition in flashoverlap::partition::all_partitions(waves.min(4)) {
        // Pad to the full wave count if truncated.
        let mut sizes = partition.sizes().to_vec();
        let covered: u32 = sizes.iter().sum();
        if covered < waves {
            sizes.push(waves - covered);
        }
        let plan = OverlapPlan::new(
            dims,
            CommPattern::AllReduce,
            system.clone(),
            WavePartition::new(sizes),
        )
        .unwrap();
        let outputs = run_functional(&plan, &inputs);
        assert!(
            allclose(&outputs[0], &expected, 2e-2),
            "partition {} changed numerics",
            plan.partition
        );
    }
}

#[test]
fn all_gather_pipeline_on_real_system() {
    let dims = GemmDims::new(512, 256, 64);
    let system = SystemSpec::rtx4090(4);
    let plan = OverlapPlan::tuned(dims, CommPattern::AllGather, system).unwrap();
    let inputs = FunctionalInputs::random(dims, 4, 51);
    let shards: Vec<Matrix> = (0..4).map(|r| gemm(&inputs.a[r], &inputs.b[r])).collect();
    let outputs = run_functional(&plan, &inputs);
    for (rank, out) in outputs.iter().enumerate() {
        assert_eq!((out.rows(), out.cols()), (512, 1024));
        for r in 0..512usize {
            for c in 0..1024usize {
                let diff = (out[(r, c)] - shards[c / 256][(r, c % 256)]).abs();
                assert!(diff < 1e-2, "rank {rank} ({r},{c})");
            }
        }
    }
}

#[test]
fn pipeline_composes_layers_on_real_system() {
    use flashoverlap::pipeline::{LayerSpec, Pipeline};
    use gpu_sim::elementwise::ElementwiseOp;
    use std::rc::Rc;

    let system = SystemSpec::a800(2);
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
    .unwrap();
    let outcome = pipeline.execute_with(&SequenceOptions::new()).unwrap();
    assert_eq!(outcome.reports.len(), 2);
    assert!(outcome.reports[0].latency < outcome.reports[1].latency);
    assert!(outcome.total >= outcome.reports[1].epilogue_done.unwrap());
}

#[test]
fn timing_and_functional_modes_agree_on_latency() {
    let dims = GemmDims::new(1024, 1024, 128);
    let system = SystemSpec::rtx4090(2);
    let plan = OverlapPlan::tuned(dims, CommPattern::AllReduce, system).unwrap();
    let timing = plan.execute_with(&SequenceOptions::new()).unwrap();
    let inputs = [FunctionalInputs::random(dims, 2, 5)];
    let functional = plan
        .execute_with(&SequenceOptions::new().functional(&inputs))
        .unwrap();
    assert_eq!(
        timing.reports[0].latency.as_nanos(),
        functional.reports[0].latency.as_nanos(),
        "data must never affect time"
    );
}
