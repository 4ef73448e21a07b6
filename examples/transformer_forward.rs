//! A multi-layer transformer forward pass as one overlapped pipeline.
//!
//! ```text
//! cargo run --release --example transformer_forward
//! ```
//!
//! Chains several GEMM+AllReduce+RMSNorm layers in a single simulation
//! using [`flashoverlap::pipeline::Pipeline`]: each layer's wave
//! partition is tuned independently, activations flow layer to layer on
//! the device, and the end-to-end numerics are verified against the
//! plain layer-by-layer reference.

use std::rc::Rc;

use flashoverlap::pipeline::{LayerSpec, Pipeline};
use flashoverlap::runtime::CommPattern;
use flashoverlap::{FunctionalInputs, SequenceOptions, SystemSpec};
use gpu_sim::elementwise::ElementwiseOp;
use gpu_sim::gemm::GemmDims;
use sim::DetRng;
use tensor::{allclose, gemm, rmsnorm, Matrix};

fn main() {
    let n_gpus = 2;
    let layers = 3;
    let (tokens, hidden) = (256u32, 128u32);
    let dims = GemmDims::new(tokens, hidden, hidden);

    // Small architecture so the functional verification stays fast while
    // still exercising multiple waves per layer.
    let mut system = SystemSpec::rtx4090(n_gpus);
    system.arch.sm_count = 8;
    system.comm_sms = 2;

    let weight_gain: Vec<f32> = (0..hidden).map(|i| 1.0 + (i % 3) as f32 * 0.1).collect();
    let rms = || ElementwiseOp::RmsNorm {
        weight: Rc::new(weight_gain.clone()),
        eps: 1e-6,
    };

    let pipeline = Pipeline::tuned(
        system,
        (0..layers)
            .map(|_| LayerSpec {
                dims,
                pattern: CommPattern::AllReduce,
                epilogue: Some(rms()),
            })
            .collect(),
    )
    .expect("pipeline");
    println!("{layers}-layer pipeline on {n_gpus} GPUs, {tokens} tokens x {hidden} hidden");
    for (l, plan) in pipeline.plans().iter().enumerate() {
        println!("  layer {l}: tuned partition {}", plan.partition);
    }

    // Deterministic inputs and per-layer, per-rank weight shards.
    let mut rng = DetRng::new(2024);
    let first_a: Vec<Matrix> = (0..n_gpus)
        .map(|_| Matrix::random(tokens as usize, hidden as usize, &mut rng))
        .collect();
    let weights: Vec<Vec<Matrix>> = (0..layers)
        .map(|_| {
            (0..n_gpus)
                .map(|_| Matrix::random(hidden as usize, hidden as usize, &mut rng))
                .collect()
        })
        .collect();

    // Layer 0 reads `first_a`; every later layer reads the previous
    // layer's fused epilogue output, so it needs only its weights.
    let inputs: Vec<FunctionalInputs> = weights
        .iter()
        .enumerate()
        .map(|(l, b)| FunctionalInputs {
            a: if l == 0 { first_a.clone() } else { Vec::new() },
            b: b.clone(),
        })
        .collect();
    let out = pipeline
        .execute_with(&SequenceOptions::new().functional(&inputs))
        .expect("functional run");
    let outputs = out
        .outputs
        .as_ref()
        .and_then(|o| o.last())
        .expect("functional outputs");
    println!(
        "end-to-end simulated time: {} ({} layers overlapped back to back)",
        out.total, layers
    );

    // Reference forward pass on the host.
    let mut acts: Vec<Matrix> = first_a.clone();
    for w in &weights {
        let mut h = gemm(&acts[0], &w[0]);
        for r in 1..n_gpus {
            h = h.add(&gemm(&acts[r], &w[r]));
        }
        let normalized = rmsnorm(&h, &weight_gain, 1e-6);
        acts = vec![normalized; n_gpus];
    }
    for (d, out) in outputs.iter().enumerate() {
        assert!(
            allclose(out, &acts[0], 5e-2),
            "rank {d}: pipeline output diverges from reference"
        );
    }
    println!("functional check: {layers}-layer pipeline matches the host reference");
}
