//! GPU architecture specifications.

use sim::SimDuration;

/// The remap granularities an element-wise kernel can fuse (§3.3, Table 4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RemapGranularity {
    /// Whole output tiles are gathered (AllReduce reordering).
    Tile,
    /// Row-interleaved sub-tiles are gathered (ReduceScatter reordering).
    Subtile,
    /// Individual token rows are gathered (All-to-All reordering).
    Token,
}

/// A GPU architecture model.
///
/// Only first-order properties matter for the paper's mechanism: how many
/// tiles execute concurrently (one per SM), how long one tile's main loop
/// takes, how big kernel-launch and signal-poll latencies are, and how much
/// a fused remap degrades an element-wise kernel. The two presets are
/// calibrated to the evaluation platforms.
#[derive(Debug, Clone, PartialEq)]
pub struct GpuArch {
    /// Marketing name, e.g. "RTX4090".
    pub name: &'static str,
    /// Number of streaming multiprocessors; one GEMM tile runs per SM, so
    /// this is the wave width (§2.1.1).
    pub sm_count: u32,
    /// Peak fp16 Tensor-Core throughput in TFLOPS.
    pub fp16_tflops: f64,
    /// Sustained fraction of peak a well-tuned GEMM reaches at large K.
    pub gemm_eff_max: f64,
    /// K value at which GEMM efficiency reaches half of `gemm_eff_max`
    /// (prologue/epilogue amortization along the main loop).
    pub gemm_k_half: f64,
    /// Kernel launch latency in nanoseconds.
    pub kernel_launch_ns: u64,
    /// Device-memory bandwidth in GB/s (element-wise kernel speed).
    pub mem_gbps: f64,
    /// Polling quantum of the signaling kernel in nanoseconds: a counter
    /// that reaches its threshold is observed up to this much later.
    pub signal_poll_ns: u64,
    /// Effective contiguous-run gap cost (bytes) of the remap gather
    /// model; see [`GpuArch::remap_penalty`].
    pub remap_gap_bytes: f64,
    /// Architecture-specific cost scale of irregular gathers.
    pub remap_irregularity: f64,
    /// Tile-size efficiency half-point in elements: a tile of `e`
    /// elements sustains `e / (e + tile_eff_half)` of the large-tile
    /// throughput (small tiles reuse operands poorly).
    pub tile_eff_half: f64,
    /// Per-tile completion jitter as a fraction of the wave duration
    /// (tiles of a wave complete "typically within 5% of the wave
    /// duration", §3.2.3).
    pub wave_jitter_frac: f64,
}

impl GpuArch {
    /// NVIDIA RTX 4090 (Ada, consumer): 128 SMs, ~165 TFLOPS fp16.
    pub fn rtx4090() -> Self {
        GpuArch {
            name: "RTX4090",
            sm_count: 128,
            fp16_tflops: 165.0,
            gemm_eff_max: 0.72,
            gemm_k_half: 384.0,
            kernel_launch_ns: 4_000,
            mem_gbps: 1_008.0,
            signal_poll_ns: 1_500,
            remap_gap_bytes: 1_024.0,
            remap_irregularity: 0.085,
            tile_eff_half: 4_096.0,
            wave_jitter_frac: 0.05,
        }
    }

    /// NVIDIA A800 (Ampere, data-center): 108 SMs, ~312 TFLOPS fp16.
    pub fn a800() -> Self {
        GpuArch {
            name: "A800",
            sm_count: 108,
            fp16_tflops: 312.0,
            gemm_eff_max: 0.78,
            gemm_k_half: 512.0,
            kernel_launch_ns: 3_000,
            mem_gbps: 2_039.0,
            signal_poll_ns: 1_200,
            remap_gap_bytes: 1_024.0,
            remap_irregularity: 0.16,
            tile_eff_half: 4_096.0,
            wave_jitter_frac: 0.05,
        }
    }

    /// Effective GEMM flop throughput (fraction of peak) at accumulation
    /// depth `k`: short main loops amortize prologue/epilogue poorly.
    pub fn gemm_efficiency(&self, k: u32) -> f64 {
        let k = k as f64;
        self.gemm_eff_max * k / (k + self.gemm_k_half)
    }

    /// Sustained per-SM flop rate (flops/sec) at accumulation depth `k`.
    pub fn per_sm_flops(&self, k: u32) -> f64 {
        self.fp16_tflops * 1e12 * self.gemm_efficiency(k) / self.sm_count as f64
    }

    /// Kernel launch latency as a duration.
    pub fn kernel_launch(&self) -> SimDuration {
        SimDuration::from_nanos(self.kernel_launch_ns)
    }

    /// Fractional latency increase a fused remap adds to an element-wise
    /// kernel at a given granularity (reproduces the Table 4 overhead
    /// band).
    ///
    /// Model: the gather breaks the kernel's streaming access into
    /// contiguous runs of `run_bytes`; each run boundary costs an
    /// architecture-specific re-activation overhead, giving a penalty of
    /// `irregularity * gap / (gap + run)`.
    pub fn remap_penalty(&self, granularity: RemapGranularity) -> f64 {
        let run_bytes = match granularity {
            RemapGranularity::Tile => 2_048.0,
            RemapGranularity::Subtile => 512.0,
            RemapGranularity::Token => 256.0,
        };
        self.remap_irregularity * self.remap_gap_bytes / (self.remap_gap_bytes + run_bytes)
    }

    /// Time for an element-wise kernel that reads and writes `bytes_moved`
    /// total, with an optional fused remap.
    pub fn elementwise_time(
        &self,
        bytes_moved: u64,
        remap: Option<RemapGranularity>,
    ) -> SimDuration {
        let base_secs = bytes_moved as f64 / (self.mem_gbps * 1e9);
        let penalty = remap.map_or(0.0, |g| self.remap_penalty(g));
        self.kernel_launch() + SimDuration::from_secs_f64(base_secs * (1.0 + penalty))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_are_sane() {
        let r = GpuArch::rtx4090();
        let a = GpuArch::a800();
        assert_eq!(r.sm_count, 128);
        assert_eq!(a.sm_count, 108);
        assert!(a.fp16_tflops > r.fp16_tflops);
        assert!(a.mem_gbps > r.mem_gbps);
    }

    #[test]
    fn gemm_efficiency_increases_with_k() {
        let arch = GpuArch::rtx4090();
        let e1 = arch.gemm_efficiency(512);
        let e2 = arch.gemm_efficiency(4096);
        let e3 = arch.gemm_efficiency(16384);
        assert!(e1 < e2 && e2 < e3);
        assert!(e3 < arch.gemm_eff_max);
        assert!(e3 > 0.9 * arch.gemm_eff_max);
    }

    #[test]
    fn remap_penalty_band_matches_table4() {
        // Table 4 reports 3%-13.4% across granularities and GPUs; the
        // model must land in that band, with finer granularity costing
        // more on a given architecture.
        for arch in [GpuArch::rtx4090(), GpuArch::a800()] {
            let tile = arch.remap_penalty(RemapGranularity::Tile);
            let subtile = arch.remap_penalty(RemapGranularity::Subtile);
            let token = arch.remap_penalty(RemapGranularity::Token);
            assert!(tile < subtile && subtile < token, "{}", arch.name);
            assert!(tile > 0.02, "{}: tile {tile}", arch.name);
            assert!(token < 0.14, "{}: token {token}", arch.name);
        }
    }

    #[test]
    fn elementwise_time_scales_with_bytes() {
        let arch = GpuArch::a800();
        let t1 = arch.elementwise_time(1 << 20, None);
        let t2 = arch.elementwise_time(1 << 24, None);
        assert!(t2 > t1);
        let remapped = arch.elementwise_time(1 << 24, Some(RemapGranularity::Token));
        assert!(remapped > t2);
    }

    #[test]
    fn per_sm_flops_positive_and_below_peak_share() {
        let arch = GpuArch::rtx4090();
        let f = arch.per_sm_flops(8192);
        assert!(f > 0.0);
        assert!(f < arch.fp16_tflops * 1e12 / arch.sm_count as f64);
    }
}
