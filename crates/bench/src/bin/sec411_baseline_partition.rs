//! §4.1.1 — why tuning the wave partition is necessary.
//!
//! The paper's motivating measurement: across >50 GEMM shapes with
//! AllReduce on four RTX 4090 GPUs, the most fine-grained partition (one
//! wave per group) is the exhaustive-search optimum in only ~4% of
//! shapes, and using it costs 17.34% performance on average.

use bench::parallel_map;
use flashoverlap::runtime::CommPattern;
use flashoverlap::{exhaustive_search, measure_partition, SystemSpec, WavePartition};
use gpu_sim::gemm::GemmDims;

fn shapes() -> Vec<GemmDims> {
    // >50 shapes whose wave counts stay within the exhaustive-search
    // limit (T <= 14 on 112 compute SMs means <= 1568 tiles).
    let mut out = Vec::new();
    for m in [2048u32, 4096] {
        for n in [4096u32, 6144, 8192, 12288, 16384] {
            for k in [1024u32, 2048, 4096, 6144, 8192, 12288] {
                let dims = GemmDims::new(m, n, k);
                let tiles = (m.div_ceil(256) * n.div_ceil(128)) as u64;
                // Multi-wave shapes (T in 4..=13), as in the paper's
                // serving-scale workloads; single-wave toys would inflate
                // the fragmentation penalty.
                if (400..=1400).contains(&tiles) {
                    out.push(dims);
                }
            }
        }
    }
    out
}

fn main() {
    let system = SystemSpec::rtx4090(4);
    let pattern = CommPattern::AllReduce;
    let shapes = shapes();
    println!("Sec. 4.1.1 reproduction: per-wave baseline partition vs exhaustive optimum");
    println!(
        "{} GEMM shapes, AllReduce on 4x RTX4090 (paper: >50 shapes)\n",
        shapes.len()
    );

    let rows = parallel_map(shapes, |&dims| {
        let waves = system.planned_waves(dims);
        let optimum = exhaustive_search(dims, &pattern, &system).expect("exhaustive");
        let baseline = measure_partition(dims, &pattern, &system, WavePartition::per_wave(waves))
            .expect("baseline partition");
        let degradation = baseline.as_nanos() as f64 / optimum.latency.as_nanos() as f64 - 1.0;
        let baseline_is_optimal = optimum.partition == WavePartition::per_wave(waves);
        (
            dims,
            waves,
            degradation,
            baseline_is_optimal,
            optimum.partition,
        )
    });

    let optimal_count = rows.iter().filter(|r| r.3).count();
    let avg_degradation: f64 = rows.iter().map(|r| r.2).sum::<f64>() / rows.len() as f64;
    let mut table = Vec::new();
    for (dims, waves, degradation, opt, partition) in rows.iter().take(12) {
        table.push(vec![
            format!("{}x{}x{}", dims.m, dims.n, dims.k),
            waves.to_string(),
            format!("{:.1}%", degradation * 100.0),
            if *opt {
                "yes".into()
            } else {
                format!("no ({partition})")
            },
        ]);
    }
    println!(
        "{}",
        bench::render_table(
            &["shape", "T", "per-wave penalty", "per-wave optimal?"],
            &table
        )
    );
    println!("... ({} shapes total)\n", rows.len());
    println!(
        "per-wave partition is optimal in {:.1}% of shapes (paper: ~4%)",
        100.0 * optimal_count as f64 / rows.len() as f64
    );
    println!(
        "average degradation from using it: {:.2}% (paper: 17.34%)",
        100.0 * avg_degradation
    );
}
