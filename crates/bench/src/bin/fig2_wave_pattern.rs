//! Fig. 2 — the wave pattern in GEMM execution.
//!
//! Reproduces the experiment of §2.1.1: a GEMM with M=2048, N=K=8192 on
//! an RTX 4090 (512 tiles of 256x128 on 128 SMs = 4 waves). The tile
//! trace shows (a) completion times clustering into distinct waves and
//! (b) the completion order disagreeing with the address (tile-index)
//! order because of block swizzling.

use gpu_sim::arch::GpuArch;
use gpu_sim::gemm::{GemmConfig, GemmDims, GemmKernel};
use gpu_sim::stream::{enqueue, Op};
use gpu_sim::{Cluster, ClusterSim};
use sim::Sim;

fn main() {
    let arch = GpuArch::rtx4090();
    let dims = GemmDims::new(2048, 8192, 8192);
    let config = GemmConfig::choose(dims, &arch);
    let grid = config.grid(dims);
    println!("Fig. 2 reproduction: wave pattern in GEMM execution");
    println!(
        "GEMM M={} N={} K={} | tile {}x{} -> {} tiles on {} SMs",
        dims.m,
        dims.n,
        dims.k,
        config.tile.m,
        config.tile.n,
        grid.num_tiles(),
        arch.sm_count
    );

    let mut world = Cluster::new(1, arch.clone(), false, 42);
    world.enable_tile_trace();
    let mut sim: ClusterSim = Sim::new();
    let dev = &mut world.devices[0];
    let a = dev.mem.alloc(1);
    let b = dev.mem.alloc(1);
    let out = dev.mem.alloc(1);
    let stream = dev.create_stream();
    let kernel = GemmKernel::with_config(a, b, out, dims, config);
    enqueue(&mut world, &mut sim, 0, stream, Op::Gemm(kernel));
    sim.run(&mut world).expect("simulation");

    let trace = world.tile_trace.as_ref().expect("trace enabled");
    let mut waves: Vec<(u32, f64, f64, u32, u32)> = Vec::new();
    let mut per_wave: std::collections::BTreeMap<u32, Vec<(f64, u32)>> = Default::default();
    for (t, rec) in trace {
        per_wave
            .entry(rec.wave)
            .or_default()
            .push((t.as_micros_f64(), rec.tile));
    }
    for (wave, entries) in &per_wave {
        let lo = entries.iter().map(|e| e.0).fold(f64::INFINITY, f64::min);
        let hi = entries
            .iter()
            .map(|e| e.0)
            .fold(f64::NEG_INFINITY, f64::max);
        let min_tile = entries.iter().map(|e| e.1).min().unwrap_or(0);
        let max_tile = entries.iter().map(|e| e.1).max().unwrap_or(0);
        waves.push((*wave, lo, hi, min_tile, max_tile));
    }

    println!("\n(a) completion time per wave ({} waves):", waves.len());
    println!(
        "{}",
        bench::render_table(
            &[
                "wave",
                "tiles",
                "first done (us)",
                "last done (us)",
                "span / wave gap"
            ],
            &waves
                .iter()
                .map(|&(w, lo, hi, _, _)| {
                    let gap = if (w as usize) + 1 < waves.len() {
                        waves[w as usize + 1].1 - lo
                    } else {
                        hi - lo
                    };
                    vec![
                        w.to_string(),
                        per_wave[&w].len().to_string(),
                        format!("{lo:.1}"),
                        format!("{hi:.1}"),
                        format!("{:.1}%", 100.0 * (hi - lo) / gap.max(1e-9)),
                    ]
                })
                .collect::<Vec<_>>()
        )
    );

    // (b) completion order vs address order: sample a few early tiles.
    let mut by_time: Vec<(f64, u32)> = trace
        .iter()
        .map(|(t, r)| (t.as_micros_f64(), r.tile))
        .collect();
    by_time.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
    let first: Vec<u32> = by_time.iter().take(16).map(|&(_, t)| t).collect();
    println!("(b) first 16 tiles by completion (address-order indices):");
    println!("    {first:?}");
    let contiguous = first.windows(2).all(|w| w[1] == w[0] + 1);
    println!(
        "    address-contiguous: {} (swizzling scatters early tiles, Sec. 3.3.2)",
        contiguous
    );

    // Paper claim: tiles of a wave complete within ~5% of the wave
    // duration.
    let wave_gap = waves[1].1 - waves[0].1;
    let span = waves[0].2 - waves[0].1;
    println!(
        "\nwave-0 completion span = {:.2}% of wave duration (paper: ~5%)",
        100.0 * span / wave_gap
    );
}
