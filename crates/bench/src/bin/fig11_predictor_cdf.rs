//! Fig. 11 — cumulative distribution of the predictor's error ratio.
//!
//! §6.4: the prediction error ratio `|actual - predicted| / actual` is
//! measured over >250 combinations of GEMM sizes, grouping partitions,
//! and parallelism settings per GPU type. The paper reports ~3.4% average
//! error on both platforms, with prediction and measurement following the
//! same trend across partitions.

use bench::{parallel_map, system_for};
use collectives::Primitive;
use flashoverlap::partition::candidate_partitions;
use flashoverlap::runtime::CommPattern;
use flashoverlap::{LatencyPredictor, OverlapPlan, WavePartition};
use gpu_sim::gemm::GemmDims;
use sim::{Cdf, DetRng};
use workloads::GpuKind;

fn main() {
    println!("Fig. 11 reproduction: CDF of prediction error ratio");
    for gpu in [GpuKind::Rtx4090, GpuKind::A800] {
        // Build the combination set: shapes x parallelism x sampled
        // partitions.
        let shapes = [
            GemmDims::new(2048, 4096, 2048),
            GemmDims::new(2048, 8192, 4096),
            GemmDims::new(4096, 4096, 8192),
            GemmDims::new(4096, 8192, 4096),
            GemmDims::new(4096, 8192, 16384),
            GemmDims::new(8192, 4096, 2048),
            GemmDims::new(8192, 8192, 8192),
        ];
        let mut combos: Vec<(GemmDims, usize, WavePartition)> = Vec::new();
        let mut rng = DetRng::new(0xF16);
        for &dims in &shapes {
            for &tp in &[2usize, 4, 8] {
                let system = system_for(gpu, tp);
                let predictor = LatencyPredictor::build(dims, Primitive::AllReduce, &system);
                let waves = predictor.profile().total_waves;
                let candidates = candidate_partitions(waves, 2, 4);
                // Sample up to 7 partitions per (shape, tp).
                for _ in 0..7 {
                    combos.push((dims, tp, rng.choose(&candidates).clone()));
                }
            }
        }
        println!(
            "\n{gpu}: {} (shape, parallelism, partition) combinations",
            combos.len()
        );

        let errors = parallel_map(combos, |(dims, tp, partition)| {
            let system = system_for(gpu, *tp);
            let predictor = LatencyPredictor::build(*dims, Primitive::AllReduce, &system);
            let predicted = predictor.predict(partition);
            let plan = OverlapPlan::new(*dims, CommPattern::AllReduce, system, partition.clone())
                .expect("plan");
            let actual = plan
                .execute_with(&flashoverlap::SequenceOptions::new())
                .expect("execute")
                .reports[0]
                .latency;
            let err = (actual.as_nanos() as f64 - predicted.as_nanos() as f64).abs()
                / actual.as_nanos() as f64;
            let under = predicted <= actual;
            (err, under)
        });

        let mut cdf: Cdf = errors.iter().map(|&(e, _)| e).collect();
        let under_frac = errors.iter().filter(|&&(_, u)| u).count() as f64 / errors.len() as f64;
        println!(
            "average error ratio: {:.2}%  (paper: ~3.4%)",
            100.0 * cdf.mean()
        );
        println!(
            "predicted <= actual in {:.0}% of cases (paper: actual is 'always slightly higher')",
            100.0 * under_frac
        );
        println!("CDF:");
        let mut rows = Vec::new();
        for q in [0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 1.0] {
            let v = cdf.quantile(q).expect("non-empty");
            rows.push(vec![
                format!("p{:02.0}", q * 100.0),
                format!("{:.2}%", v * 100.0),
                bench::bar(v, 0.15, 40),
            ]);
        }
        println!(
            "{}",
            bench::render_table(&["quantile", "error ratio", ""], &rows)
        );
    }
}
