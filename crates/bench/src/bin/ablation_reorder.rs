//! Ablation — what reordering buys (§3.3).
//!
//! Without the pre-communication reordering, a group's finished tiles sit
//! at incontiguous addresses: each maximal run of address-consecutive
//! tiles needs its own NCCL call. This ablation takes tuned FlashOverlap
//! plans and compares the communication cost of (a) one call per group
//! over the packed region (with reordering) against (b) one call per
//! contiguous tile run (without reordering — charitably assuming each run
//! could be sent as one call at all), using the same fabric cost model.

use collectives::{collective_duration, Primitive, BYTES_PER_ELEM};
use flashoverlap::runtime::CommPattern;
use flashoverlap::{OverlapPlan, SystemSpec};
use gpu_sim::gemm::GemmDims;
use sim::SimDuration;

fn main() {
    println!("Ablation: reordering vs segmented (no-reorder) communication");
    println!("(GEMM+AllReduce, tuned wave partitions)\n");
    let mut rows = Vec::new();
    for (system, dims) in [
        (SystemSpec::rtx4090(4), GemmDims::new(4096, 8192, 8192)),
        (SystemSpec::rtx4090(4), GemmDims::new(8192, 8192, 4096)),
        (SystemSpec::rtx4090(8), GemmDims::new(4096, 8192, 8192)),
        (SystemSpec::a800(4), GemmDims::new(2048, 8192, 8192)),
    ] {
        let plan = OverlapPlan::tuned(dims, CommPattern::AllReduce, system.clone()).expect("plan");
        let mapping = plan.tile_mapping().expect("AllReduce uses tile mapping");
        let grid = *mapping.grid();
        let n = system.n_gpus;

        let mut reordered = SimDuration::ZERO;
        let mut segmented = SimDuration::ZERO;
        let mut total_segments = 0usize;
        for g in 0..mapping.layout.num_groups() {
            let (_, count) = mapping.group_regions[g];
            reordered += collective_duration(
                Primitive::AllReduce,
                count as u64 * BYTES_PER_ELEM,
                n,
                system.fabric(),
            );
            // Without reordering: maximal runs of address-consecutive
            // tiles, each one call.
            let mut tiles: Vec<u32> = mapping.layout.group_tiles(g).collect();
            tiles.sort_unstable();
            let mut run_start = 0usize;
            for i in 1..=tiles.len() {
                if i == tiles.len() || tiles[i] != tiles[i - 1] + 1 {
                    let run_elems: u64 = tiles[run_start..i]
                        .iter()
                        .map(|&t| grid.tile_elems(t))
                        .sum();
                    segmented += collective_duration(
                        Primitive::AllReduce,
                        run_elems * BYTES_PER_ELEM,
                        n,
                        system.fabric(),
                    );
                    total_segments += 1;
                    run_start = i;
                }
            }
        }
        rows.push(vec![
            format!("{} x{}", system.fabric().name, n),
            format!("{}x{}x{}", dims.m, dims.n, dims.k),
            plan.partition.to_string(),
            format!("{reordered}"),
            format!("{segmented} ({total_segments} calls)"),
            format!(
                "{:.2}x",
                segmented.as_nanos() as f64 / reordered.as_nanos() as f64
            ),
        ]);
    }
    println!(
        "{}",
        bench::render_table(
            &[
                "system",
                "shape",
                "partition",
                "comm (reordered)",
                "comm (segmented)",
                "penalty"
            ],
            &rows
        )
    );
    println!(
        "Reordering turns each group into one contiguous call; without it,\n\
         swizzled completion order fragments every group into many small\n\
         calls on the bandwidth cliff (Fig. 8) — the contiguity argument\n\
         of Sec. 3.3.1."
    );
}
