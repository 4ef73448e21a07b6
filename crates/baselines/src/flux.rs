//! A FLUX-like fusion baseline (§2.4.2, §6.1.3).
//!
//! FLUX fuses communication into the GEMM kernel at tile granularity via
//! peer-to-peer remote writes. The fusion achieves near-perfect
//! tile-level overlap, but at two costs the paper highlights:
//!
//! - the GEMM is *not* interference-free: the fused kernel's tiling is
//!   constrained and its epilogue performs remote writes, inflating the
//!   compute time by a few percent (`GEMM_INTERFERENCE`);
//! - the fine-grained remote writes do not reach the bandwidth of bulk
//!   collectives — modelled by evaluating the wire cost at an effective
//!   message size of a handful of tiles rather than the whole buffer.
//!
//! The model composes these analytically: the fused kernel finishes when
//! both the inflated compute and the fine-grained communication streams
//! drain, plus the first tile's latency to prime the pipeline.

use collectives::{Primitive, BYTES_PER_ELEM};
use flashoverlap::{FlashOverlapError, SystemSpec};
use gpu_sim::gemm::{gemm_estimate, tile_duration, GemmConfig, GemmDims};
use sim::SimDuration;

/// Compute-time inflation of the fused GEMM relative to the unfused
/// optimum (constrained tiling + remote-write epilogue).
pub const GEMM_INTERFERENCE: f64 = 1.10;

/// Number of tiles aggregated per remote-write burst (FLUX pipelines
/// several tiles per transaction).
const TILES_PER_BURST: u64 = 8;

/// Runs the FLUX-like fusion model and returns its latency.
///
/// Supports the tensor-parallel primitives FLUX implements (AllReduce,
/// ReduceScatter).
///
/// # Errors
///
/// Returns [`FlashOverlapError::IncompatibleShape`] on fabrics without
/// peer-to-peer access or unsupported primitives.
pub fn run_flux(
    dims: GemmDims,
    primitive: Primitive,
    system: &SystemSpec,
) -> Result<SimDuration, FlashOverlapError> {
    if !system.peer_to_peer() {
        return Err(FlashOverlapError::IncompatibleShape {
            reason: "FLUX requires peer-to-peer access".into(),
        });
    }
    if !matches!(primitive, Primitive::AllReduce | Primitive::ReduceScatter) {
        return Err(FlashOverlapError::IncompatibleShape {
            reason: format!("FLUX does not implement {primitive}"),
        });
    }
    let config = GemmConfig::choose(dims, &system.arch);
    let (_, gemm) = gemm_estimate(dims, &config, system.arch.sm_count, &system.arch);
    let compute = gemm.mul_f64(GEMM_INTERFERENCE);

    // Wire cost of moving the ring traffic in tile-burst-sized remote
    // writes: per-rank traffic is 2(n-1)/n * S for AllReduce and
    // (n-1)/n * S for ReduceScatter, at burst-granularity bandwidth.
    let n = system.n_gpus as u64;
    let total_bytes = dims.out_elems() * BYTES_PER_ELEM;
    let traffic = match primitive {
        Primitive::AllReduce => 2 * (n - 1) * total_bytes / n,
        _ => (n - 1) * total_bytes / n,
    };
    let burst_bytes = config.tile.elems() * BYTES_PER_ELEM * TILES_PER_BURST;
    let eff_bw = system.fabric().p2p.effective_gbps(burst_bytes).max(1e-3);
    let comm = SimDuration::from_secs_f64(traffic as f64 / (eff_bw * 1e9));

    // Pipeline priming: nothing communicates before the first tile exists.
    let prime = tile_duration(dims.k, config.tile, &system.arch);
    Ok(compute.max(comm) + prime + system.arch.kernel_launch())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decomposition::run_nonoverlap;
    use flashoverlap::runtime::CommPattern;

    #[test]
    fn refuses_pcie_and_all_to_all() {
        let dims = GemmDims::new(4096, 4096, 4096);
        assert!(run_flux(dims, Primitive::AllReduce, &SystemSpec::rtx4090(4)).is_err());
        assert!(run_flux(dims, Primitive::AllToAll, &SystemSpec::a800(2)).is_err());
    }

    #[test]
    fn flux_beats_nonoverlap_when_comm_matters() {
        let dims = GemmDims::new(8192, 8192, 2048);
        let system = SystemSpec::a800(4);
        let base = run_nonoverlap(dims, &CommPattern::AllReduce, &system).unwrap();
        let flux = run_flux(dims, Primitive::AllReduce, &system).unwrap();
        assert!(flux < base, "flux {flux} vs base {base}");
    }

    #[test]
    fn flux_can_lose_on_compute_bound_shapes() {
        // With negligible communication, the 10% GEMM interference makes
        // fusion a net loss — the "performance deterioration" FlashOverlap
        // avoids (Sec. 6.2).
        let dims = GemmDims::new(2048, 2048, 16384);
        let system = SystemSpec::a800(2);
        let base = run_nonoverlap(dims, &CommPattern::AllReduce, &system).unwrap();
        let flux = run_flux(dims, Primitive::AllReduce, &system).unwrap();
        assert!(flux > base, "flux {flux} should lose to base {base}");
    }

    #[test]
    fn reduce_scatter_moves_half_the_traffic() {
        let dims = GemmDims::new(8192, 8192, 512);
        let system = SystemSpec::a800(4);
        let ar = run_flux(dims, Primitive::AllReduce, &system).unwrap();
        let rs = run_flux(dims, Primitive::ReduceScatter, &system).unwrap();
        assert!(rs < ar);
    }
}
