//! Quickstart: overlap a tensor-parallel GEMM+AllReduce on 4 simulated
//! RTX 4090s.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```
//!
//! The three calls below are the whole public workflow:
//! 1. describe the system and the local GEMM,
//! 2. let the predictive search pick a wave partition (`OverlapPlan::tuned`),
//! 3. execute — in timing mode for latency, or functionally to get
//!    verified numerics.

use flashoverlap::runtime::CommPattern;
use flashoverlap::{FunctionalInputs, OverlapPlan, SequenceOptions, SystemSpec};
use gpu_sim::gemm::GemmDims;
use tensor::{allclose, gemm};

fn main() {
    // A tensor-parallel projection: each of 4 GPUs computes its K-shard
    // of a 4096 x 8192 output, then AllReduce sums the partials.
    let system = SystemSpec::rtx4090(4);
    let dims = GemmDims::new(4096, 8192, 16384);

    // Tune: offline profile + Alg. 1 predictive search, no online runs.
    let plan = OverlapPlan::tuned(dims, CommPattern::AllReduce, system.clone())
        .expect("plan construction");
    println!(
        "tuned wave partition: {} over {} waves (tile {}x{})",
        plan.partition,
        plan.total_waves(),
        plan.config.tile.m,
        plan.config.tile.n
    );

    // Measure the overlapped operator.
    let report = plan
        .execute_with(&SequenceOptions::new())
        .expect("simulation")
        .reports
        .remove(0);
    let baseline =
        baselines::run_nonoverlap(dims, &CommPattern::AllReduce, &system).expect("baseline");
    println!("FlashOverlap : {}", report.latency);
    println!("non-overlap  : {baseline}");
    println!(
        "speedup      : {:.3}x",
        baseline.as_nanos() as f64 / report.latency.as_nanos() as f64
    );

    // Verify numerics end to end on a small functional instance: the
    // reordered, group-wise-communicated result must equal the plain
    // sum of per-rank GEMMs.
    let small = GemmDims::new(512, 512, 256);
    let plan = OverlapPlan::tuned(small, CommPattern::AllReduce, SystemSpec::rtx4090(4))
        .expect("small plan");
    let inputs = FunctionalInputs::random(small, 4, 7);
    let result = plan
        .execute_with(&SequenceOptions::new().functional(std::slice::from_ref(&inputs)))
        .expect("functional run");
    let outputs = &result.outputs.expect("functional outputs")[0];
    let mut expected = gemm(&inputs.a[0], &inputs.b[0]);
    for r in 1..4 {
        expected = expected.add(&gemm(&inputs.a[r], &inputs.b[r]));
    }
    assert!(
        allclose(&outputs[0], &expected, 1e-2),
        "overlapped result must match the reference"
    );
    println!("functional check: overlapped AllReduce output matches the reference");
}
