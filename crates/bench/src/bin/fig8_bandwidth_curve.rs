//! Fig. 8 — inter-GPU effective bandwidth vs data size.
//!
//! Samples the simulated collectives (exactly the offline stage of
//! §4.2.1) on both platforms and prints the effective bus bandwidth as a
//! function of the per-rank payload, showing the sharp degradation below
//! the saturation threshold that motivates reordering and grouping.

use collectives::{collective_duration, Primitive};
use flashoverlap::SystemSpec;
use interconnect::log_spaced_sizes;

fn busbw_gbps(prim: Primitive, bytes: u64, n: usize, system: &SystemSpec) -> f64 {
    let dur = collective_duration(prim, bytes, n, system.fabric()).as_secs_f64();
    // Bus bandwidth convention (NCCL tests): algorithmic traffic
    // 2(n-1)/n * S for AllReduce, normalized by time.
    let traffic = match prim {
        Primitive::AllReduce => 2.0 * (n as f64 - 1.0) / n as f64 * bytes as f64,
        _ => (n as f64 - 1.0) / n as f64 * bytes as f64,
    };
    traffic / dur / 1e9
}

fn main() {
    println!("Fig. 8 reproduction: effective bandwidth vs data size");
    let sizes = log_spaced_sizes(64 << 10, 1 << 30, 16);
    for (name, system, n) in [
        ("RTX4090 PCIe (4 GPUs)", SystemSpec::rtx4090(4), 4usize),
        ("A800 NVLink (4 GPUs)", SystemSpec::a800(4), 4usize),
    ] {
        println!("\n{name} — AllReduce bus bandwidth:");
        let peak = busbw_gbps(Primitive::AllReduce, 4 << 30, n, &system);
        let mut rows = Vec::new();
        for &s in &sizes {
            let bw = busbw_gbps(Primitive::AllReduce, s, n, &system);
            rows.push(vec![
                format!("{:.2} MiB", s as f64 / (1 << 20) as f64),
                format!("{bw:.2}"),
                bench::bar(bw, peak, 40),
            ]);
        }
        println!(
            "{}",
            bench::render_table(&["size", "busbw GB/s", ""], &rows)
        );
        // The borderline the red spots mark: where bandwidth halves.
        let half = sizes
            .iter()
            .find(|&&s| busbw_gbps(Primitive::AllReduce, s, n, &system) > peak / 2.0)
            .copied()
            .unwrap_or(0);
        println!(
            "half-of-peak threshold near {:.2} MiB; peak ~{peak:.1} GB/s",
            half as f64 / (1 << 20) as f64
        );
    }

    // Fragmentation cost: splitting a 64 MiB payload into k calls.
    println!("\nFragmentation penalty (64 MiB AllReduce on 4x RTX4090):");
    let system = SystemSpec::rtx4090(4);
    let whole = collective_duration(Primitive::AllReduce, 64 << 20, 4, system.fabric());
    let mut rows = Vec::new();
    for k in [1u64, 2, 4, 8, 16, 32] {
        let split = collective_duration(Primitive::AllReduce, (64 << 20) / k, 4, system.fabric());
        let total = split * k;
        rows.push(vec![
            format!("{k} calls"),
            format!("{:.3} ms", total.as_millis_f64()),
            format!("{:.2}x", total.as_nanos() as f64 / whole.as_nanos() as f64),
        ]);
    }
    println!(
        "{}",
        bench::render_table(&["segmentation", "total time", "vs 1 call"], &rows)
    );
}
