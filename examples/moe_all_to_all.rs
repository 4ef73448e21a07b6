//! Expert-parallel MoE layer: GEMM+All-to-All with dynamic token routing.
//!
//! ```text
//! cargo run --release --example moe_all_to_all
//! ```
//!
//! After each rank's expert GEMM, tokens must return to their source
//! GPUs (§2.3). The token-level reordering parks every finished token in
//! a per-destination memory pool, and each wave group ships its pools
//! with one All-to-All(v). This example runs balanced and skewed routing
//! (the "inherent workload imbalance" of expert parallelism), verifies
//! token delivery functionally, and reports latencies.

use flashoverlap::runtime::CommPattern;
use flashoverlap::{FunctionalInputs, OverlapPlan, SequenceOptions, SystemSpec};
use gpu_sim::gemm::GemmDims;
use tensor::gemm;
use workloads::routing::{balanced_routing, load_histogram, skewed_routing};

fn main() {
    let n_gpus = 4;
    let system = SystemSpec::rtx4090(n_gpus);
    let dims = GemmDims::new(8192, 2048, 4096);
    println!(
        "MoE expert layer on {n_gpus} x {}: {} tokens/rank, hidden {}\n",
        system.arch.name, dims.m, dims.n
    );

    for (label, routing) in [
        (
            "balanced routing",
            balanced_routing(dims.m as usize, n_gpus, 42),
        ),
        (
            "skewed routing (40% of traffic to rank 0)",
            skewed_routing(dims.m as usize, n_gpus, 0.4, 42),
        ),
    ] {
        let hist = load_histogram(&routing[0], n_gpus);
        println!("== {label} ==");
        println!("   rank-0 token histogram: {hist:?}");
        let pattern = CommPattern::AllToAll {
            routing: routing.clone(),
        };
        let base = baselines::run_nonoverlap(dims, &pattern, &system).expect("baseline");
        let plan = OverlapPlan::tuned(dims, pattern, system.clone()).expect("plan");
        let report = plan
            .execute_with(&SequenceOptions::new())
            .expect("run")
            .reports
            .remove(0);
        println!(
            "   partition {} | non-overlap {base} | FlashOverlap {} ({:.3}x)\n",
            plan.partition,
            report.latency,
            base.as_nanos() as f64 / report.latency.as_nanos() as f64
        );
    }

    // Functional check on a small instance: every token arrives at its
    // destination with the right expert output.
    let small = GemmDims::new(256, 128, 64);
    let routing = balanced_routing(256, n_gpus, 7);
    let plan = OverlapPlan::tuned(
        small,
        CommPattern::AllToAll {
            routing: routing.clone(),
        },
        SystemSpec::rtx4090(n_gpus),
    )
    .expect("small plan");
    let inputs = FunctionalInputs::random(small, n_gpus, 3);
    let result = plan
        .execute_with(&SequenceOptions::new().functional(std::slice::from_ref(&inputs)))
        .expect("functional");
    let outputs = &result.outputs.expect("functional outputs")[0];
    let expert_out: Vec<_> = (0..n_gpus)
        .map(|r| gemm(&inputs.a[r], &inputs.b[r]))
        .collect();
    let mapping = plan.token_mapping().expect("token mapping");
    for (dest, out) in outputs.iter().enumerate() {
        for (i, &(src, row)) in mapping.recv_expected[dest].iter().enumerate() {
            for c in 0..small.n as usize {
                let got = out[(i, c)];
                let want = expert_out[src][(row as usize, c)];
                assert!(
                    (got - want).abs() < 1e-2,
                    "token mismatch at dest {dest}, row {i}"
                );
            }
        }
    }
    println!("functional check: every routed token arrived with correct expert output");
}
