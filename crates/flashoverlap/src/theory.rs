//! Theoretical perfect-overlap bound and the non-overlap reference
//! (§6.3).
//!
//! Assuming perfect overlap, the total latency is bounded below by
//!
//! - `T_gemm + T_comm(last wave)` when computation dominates (the final
//!   wave's data can only be communicated after the GEMM ends), or
//! - `T_gemm(first wave) + T_comm(total)` when communication dominates
//!   (communication cannot start before any data exists and then runs
//!   back-to-back).
//!
//! Both use the *uncontended* GEMM duration and one unfragmented
//! communication call — ignoring SM contention, per-call overheads of
//! segmentation, signaling latency, and rendezvous skew, which is exactly
//! why measured FlashOverlap reaches only 69-98% of this bound.

use collectives::{tiered_duration, Primitive, BYTES_PER_ELEM};
use gpu_sim::gemm::{gemm_estimate, GemmConfig, GemmDims};
use sim::SimDuration;

use crate::system::SystemSpec;

/// The non-overlapped reference latency: full GEMM (all SMs) followed by
/// one collective over the whole output.
pub fn nonoverlap_latency(
    dims: GemmDims,
    primitive: Primitive,
    system: &SystemSpec,
) -> SimDuration {
    let config = GemmConfig::choose(dims, &system.arch);
    let (_, gemm) = gemm_estimate(dims, &config, system.arch.sm_count, &system.arch);
    gemm + collective(primitive, dims.out_elems() * BYTES_PER_ELEM, system)
}

/// The perfect-overlap lower bound on the operator latency.
pub fn theoretical_latency(
    dims: GemmDims,
    primitive: Primitive,
    system: &SystemSpec,
) -> SimDuration {
    let config = GemmConfig::choose(dims, &system.arch);
    let grid = config.grid(dims);
    let (waves, gemm) = gemm_estimate(dims, &config, system.arch.sm_count, &system.arch);
    let total_bytes = dims.out_elems() * BYTES_PER_ELEM;
    let comm_total = collective(primitive, total_bytes, system);
    if gemm >= comm_total {
        // Compute-bound: only the last wave's communication peeks out.
        let full_waves_tiles = (waves - 1) * system.arch.sm_count;
        let last_wave_tiles = grid.num_tiles().saturating_sub(full_waves_tiles).max(1);
        let last_wave_bytes = last_wave_tiles as u64 * config.tile.elems() * BYTES_PER_ELEM;
        gemm + collective(primitive, last_wave_bytes.min(total_bytes), system)
    } else {
        // Communication-bound: only the first wave's computation peeks
        // out.
        let first_wave = SimDuration::from_nanos(gemm.as_nanos() / waves as u64);
        first_wave + comm_total
    }
}

/// One unfragmented collective of `bytes` per rank, priced by the tiered
/// model the runtime and the predictor charge.
fn collective(primitive: Primitive, bytes: u64, system: &SystemSpec) -> SimDuration {
    tiered_duration(primitive, bytes, &system.topology, system.algorithm)
}

/// The theoretical best-case speedup over the non-overlap reference.
pub fn theoretical_speedup(dims: GemmDims, primitive: Primitive, system: &SystemSpec) -> f64 {
    let base = nonoverlap_latency(dims, primitive, system).as_nanos() as f64;
    let theory = theoretical_latency(dims, primitive, system).as_nanos() as f64;
    base / theory
}

#[cfg(test)]
mod tests {
    use super::*;
    use collectives::collective_duration_with;

    #[test]
    fn theory_is_never_slower_than_nonoverlap() {
        for (m, n, k) in [
            (2048u32, 4096u32, 1024u32),
            (8192, 8192, 8192),
            (1024, 1024, 16384),
            (16384, 16384, 4096),
        ] {
            let dims = GemmDims::new(m, n, k);
            for system in [SystemSpec::rtx4090(4), SystemSpec::a800(2)] {
                let t = theoretical_latency(dims, Primitive::AllReduce, &system);
                let b = nonoverlap_latency(dims, Primitive::AllReduce, &system);
                assert!(t <= b, "theory {t} > baseline {b} for {m}x{n}x{k}");
            }
        }
    }

    #[test]
    fn theory_bounded_by_max_of_parts() {
        // Perfect overlap cannot beat max(gemm, comm).
        let dims = GemmDims::new(4096, 8192, 4096);
        let system = SystemSpec::rtx4090(4);
        let config = GemmConfig::choose(dims, &system.arch);
        let (_, gemm) = gemm_estimate(dims, &config, system.arch.sm_count, &system.arch);
        let comm = collective_duration_with(
            Primitive::AllReduce,
            dims.out_elems() * BYTES_PER_ELEM,
            4,
            system.fabric(),
            system.algorithm,
        );
        let t = theoretical_latency(dims, Primitive::AllReduce, &system);
        assert!(t >= gemm.max(comm));
    }

    #[test]
    fn speedup_peaks_when_parts_are_balanced() {
        // Sweep K: the best theoretical speedup appears where computation
        // and communication latencies are close (Sec. 6.3).
        let system = SystemSpec::rtx4090(4);
        let speedups: Vec<f64> = [256u32, 1024, 4096, 16384]
            .iter()
            .map(|&k| {
                theoretical_speedup(GemmDims::new(4096, 8192, k), Primitive::AllReduce, &system)
            })
            .collect();
        let max = speedups.iter().cloned().fold(f64::MIN, f64::max);
        // The extremes (tiny K: comm dominates; huge K: comp dominates)
        // must not be the peak.
        assert!(speedups[0] < max || speedups[3] < max);
        assert!(max < 2.0, "perfect overlap of two phases is at most 2x");
        assert!(max > 1.3, "balanced shapes should show clear headroom");
    }

    #[test]
    fn compute_bound_shapes_add_only_a_tail() {
        let dims = GemmDims::new(1024, 1024, 16384);
        let system = SystemSpec::a800(2);
        let config = GemmConfig::choose(dims, &system.arch);
        let (_, gemm) = gemm_estimate(dims, &config, system.arch.sm_count, &system.arch);
        let t = theoretical_latency(dims, Primitive::AllReduce, &system);
        // Tail communication is small relative to the GEMM itself.
        assert!(t < gemm.mul_f64(1.25));
    }
}
