//! Ablation — communication agnosticism across collective algorithms.
//!
//! FlashOverlap never touches the communication implementation, so
//! swapping the library's algorithm (Ring vs Direct vs NCCL-style Auto
//! switching) requires zero changes to the overlap layer; the tuner just
//! re-profiles the bandwidth curve and re-plans (§2.2's agnosticism
//! claim, made executable). Auto also shows how grouping interacts with
//! size-based algorithm switching: smaller groups fall into the
//! Direct-favored regime.

use baselines::{measure, Method};
use bench::speedup;
use collectives::Algorithm;
use flashoverlap::runtime::CommPattern;
use flashoverlap::{OverlapPlan, SystemSpec};
use gpu_sim::gemm::GemmDims;

fn main() {
    println!("Ablation: collective algorithm (GEMM+AllReduce, tuned per algorithm)");
    for (name, base_system, dims) in [
        (
            "A800 x8, medium shape",
            SystemSpec::a800(8),
            GemmDims::new(2048, 4096, 8192),
        ),
        (
            "RTX4090 x4, balanced shape",
            SystemSpec::rtx4090(4),
            GemmDims::new(4096, 8192, 16384),
        ),
    ] {
        println!("\n{name} ({}x{}x{}):", dims.m, dims.n, dims.k);
        let mut rows = Vec::new();
        for algorithm in [Algorithm::Ring, Algorithm::Direct, Algorithm::Auto] {
            let system = base_system.clone().with_algorithm(algorithm);
            let base = measure(Method::NonOverlap, dims, &CommPattern::AllReduce, &system)
                .expect("baseline");
            let plan =
                OverlapPlan::tuned(dims, CommPattern::AllReduce, system.clone()).expect("plan");
            let fo = plan
                .execute_with(&flashoverlap::SequenceOptions::new())
                .expect("run")
                .reports[0]
                .latency;
            rows.push(vec![
                algorithm.to_string(),
                plan.partition.to_string(),
                format!("{base}"),
                format!("{fo}"),
                format!("{:.3}x", speedup(base.as_nanos(), fo.as_nanos())),
            ]);
        }
        println!(
            "{}",
            bench::render_table(
                &[
                    "algorithm",
                    "tuned partition",
                    "non-overlap",
                    "FlashOverlap",
                    "speedup"
                ],
                &rows
            )
        );
    }
    println!(
        "The overlap layer is identical in every row — only the\n\
         communication library's algorithm (and hence its sampled\n\
         bandwidth curve) changed, and the tuner adapted the partition."
    );
}
