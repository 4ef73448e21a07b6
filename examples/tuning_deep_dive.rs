//! Inside the tuner: the wave-partition design space and the predictor.
//!
//! ```text
//! cargo run --release --example tuning_deep_dive
//! ```
//!
//! For one GEMM shape this example enumerates the pruned candidate
//! partitions (§4.1.4), scores each with the Alg. 1 latency predictor,
//! *measures* each in the simulator, and prints the ranking — making the
//! prediction-vs-reality trend of Fig. 11 visible for a single workload.

use collectives::Primitive;
use flashoverlap::partition::candidate_partitions;
use flashoverlap::runtime::CommPattern;
use flashoverlap::{LatencyPredictor, OverlapPlan, SystemSpec, WavePartition};
use gpu_sim::gemm::GemmDims;

fn main() {
    let system = SystemSpec::rtx4090(4);
    let dims = GemmDims::new(2048, 8192, 8192);
    let predictor = LatencyPredictor::build(dims, Primitive::AllReduce, &system);
    let waves = predictor.profile().total_waves;
    println!(
        "shape {}x{}x{} on 4x{}: {} tiles, T = {waves} waves",
        dims.m,
        dims.n,
        dims.k,
        system.arch.name,
        predictor.profile().total_tiles
    );
    println!(
        "full design space: 2^(T-1) = {} partitions; pruned candidates (S1<=2, SP<=4):",
        1u64 << (waves - 1)
    );

    let candidates = candidate_partitions(waves, 2, 4);
    let mut scored: Vec<(WavePartition, u64, u64)> = candidates
        .into_iter()
        .map(|p| {
            let predicted = predictor.predict(&p).as_nanos();
            let actual = OverlapPlan::new(dims, CommPattern::AllReduce, system.clone(), p.clone())
                .expect("plan")
                .execute_with(&flashoverlap::SequenceOptions::new())
                .expect("run")
                .reports[0]
                .latency
                .as_nanos();
            (p, predicted, actual)
        })
        .collect();
    scored.sort_by_key(|&(_, predicted, _)| predicted);

    println!("\ntop candidates by predicted latency (all measured for comparison):");
    for (p, predicted, actual) in scored.iter().take(10) {
        println!(
            "  {p:<16} predicted {:>9.3} ms   measured {:>9.3} ms   err {:+.2}%",
            *predicted as f64 / 1e6,
            *actual as f64 / 1e6,
            (*actual as f64 - *predicted as f64) / *actual as f64 * 100.0
        );
    }

    let best_predicted = &scored[0];
    let best_actual = scored
        .iter()
        .min_by_key(|&&(_, _, actual)| actual)
        .expect("non-empty");
    println!(
        "\npredictive search picks {} ; true optimum is {} ({:.2}% apart)",
        best_predicted.0,
        best_actual.0,
        (best_predicted.2 as f64 / best_actual.2 as f64 - 1.0) * 100.0
    );
    let per_wave = scored
        .iter()
        .find(|(p, _, _)| *p == WavePartition::per_wave(waves));
    let single = scored
        .iter()
        .find(|(p, _, _)| *p == WavePartition::single(waves));
    if let (Some(pw), Some(sg)) = (per_wave, single) {
        println!(
            "reference points: per-wave {} -> {:.3} ms; no-overlap {} -> {:.3} ms",
            pw.0,
            pw.2 as f64 / 1e6,
            sg.0,
            sg.2 as f64 / 1e6
        );
    }
}
