//! Extension — end-to-end multi-layer pipeline.
//!
//! The paper's evaluation is operator-level; this extension measures
//! what the per-operator speedups compose to over a whole transformer
//! block executed as one simulation: attention out-projection
//! (GEMM+AllReduce+RMSNorm) followed by the MLP down-projection
//! (GEMM+AllReduce+RMSNorm), repeated over several layers, on both
//! platforms — FlashOverlap layers vs. sequential (single-group) layers.

use std::rc::Rc;

use flashoverlap::pipeline::{LayerSpec, Pipeline};
use flashoverlap::runtime::CommPattern;
use flashoverlap::{OverlapPlan, SequenceOptions, SystemSpec, WavePartition};
use gpu_sim::elementwise::ElementwiseOp;
use gpu_sim::gemm::GemmDims;
use workloads::models::{tp_layer_shapes, LLAMA2_70B};

fn rms(cols: usize) -> ElementwiseOp {
    ElementwiseOp::RmsNorm {
        weight: Rc::new(vec![1.0; cols]),
        eps: 1e-6,
    }
}

fn block_layers(tokens: u32, tp: u32) -> Vec<LayerSpec> {
    let shapes = tp_layer_shapes(LLAMA2_70B, tokens, tp);
    let mut layers = Vec::new();
    for _ in 0..4 {
        // 4 transformer blocks, 2 communicated GEMMs each. For chaining,
        // keep M x N == next M x K: out-proj produces (tokens, hidden);
        // the down-proj consumes (tokens, inter/tp)... we model the block
        // boundary with the out-proj shape only (attention and MLP first
        // matmuls are local and not communicated), alternating the two
        // communicated shapes via an adapter epilogue is out of scope, so
        // the chain uses the out-proj shape whose output feeds the next
        // block's out-proj through hidden-sized activations.
        let d = shapes[0];
        let chained = GemmDims::new(d.m, d.n, d.n);
        layers.push(LayerSpec {
            dims: chained,
            pattern: CommPattern::AllReduce,
            epilogue: Some(rms(chained.n as usize)),
        });
    }
    layers
}

fn serial_pipeline(system: &SystemSpec, layers: &[LayerSpec]) -> u64 {
    // Same layers, each forced to the single-group (no-overlap) partition.
    let mut total = 0u64;
    for layer in layers {
        let plan = OverlapPlan::new(
            layer.dims,
            layer.pattern.clone(),
            system.clone(),
            WavePartition::single(system.planned_waves(layer.dims)),
        )
        .expect("plan");
        // A single layer with its fused epilogue is a one-layer pipeline.
        let single = Pipeline::with_plans(system.clone(), vec![plan], vec![layer.epilogue.clone()])
            .expect("layer");
        let outcome = single.execute_with(&SequenceOptions::new()).expect("run");
        total += outcome.reports[0]
            .epilogue_done
            .expect("epilogue")
            .as_nanos();
    }
    total
}

fn main() {
    println!("Extension: end-to-end 4-block pipeline (GEMM+AllReduce+RMSNorm each)");
    for (system, tp) in [(SystemSpec::rtx4090(4), 4u32), (SystemSpec::a800(4), 4u32)] {
        println!("\n{} x{} :", system.arch.name, system.n_gpus);
        for tokens in [2048u32, 8192] {
            let layers = block_layers(tokens, tp);
            let serial_ns = serial_pipeline(&system, &layers);
            let pipeline = Pipeline::tuned(system.clone(), layers).expect("pipeline");
            let report = pipeline.execute_with(&SequenceOptions::new()).expect("run");
            println!(
                "  {tokens:>5} tokens: overlapped {:.3} ms vs sequential {:.3} ms  ({:.3}x end to end)",
                report.total.as_millis_f64(),
                serial_ns as f64 / 1e6,
                serial_ns as f64 / report.total.as_nanos() as f64
            );
        }
    }
}
