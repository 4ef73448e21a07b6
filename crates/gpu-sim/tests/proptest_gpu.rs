//! Property-based tests for the GPU substrate.

use gpu_sim::arch::GpuArch;
use gpu_sim::gemm::{gemm_estimate, GemmConfig, GemmDims};
use gpu_sim::swizzle::Swizzle;
use gpu_sim::tile::{TileGrid, TileShape};
use gpu_sim::wave::WaveSchedule;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Every swizzle produces a permutation of the tile indices.
    #[test]
    fn swizzle_is_permutation(m in 1u32..40, n in 1u32..40, tm in 1u32..8, tn in 1u32..8,
                              width in 1u32..6, identity in any::<bool>()) {
        let grid = TileGrid::new(m * 16, n * 16, TileShape::new(tm * 16, tn * 16));
        let swizzle = if identity { Swizzle::Identity } else { Swizzle::Strip { width } };
        let order = swizzle.issue_order(&grid);
        prop_assert_eq!(order.len() as u32, grid.num_tiles());
        let mut seen = vec![false; order.len()];
        for &t in &order {
            prop_assert!(!seen[t as usize]);
            seen[t as usize] = true;
        }
    }

    /// Wave schedules partition the issue order exactly, and wave_of_tile
    /// is consistent with membership.
    #[test]
    fn wave_schedule_partitions(tiles in 1u32..2000, conc in 1u32..256) {
        let order: Vec<u32> = (0..tiles).collect();
        let ws = WaveSchedule::new(&order, conc);
        let total: usize = ws.waves().map(<[u32]>::len).sum();
        prop_assert_eq!(total as u32, tiles);
        prop_assert_eq!(ws.num_waves(), tiles.div_ceil(conc));
        let wave_of = ws.wave_of_tile();
        for w in 0..ws.num_waves() {
            for &t in ws.wave(w) {
                prop_assert_eq!(wave_of[t as usize], w);
            }
        }
        // All non-tail waves are full.
        for w in 0..ws.num_waves().saturating_sub(1) {
            prop_assert_eq!(ws.wave(w).len() as u32, conc);
        }
    }

    /// Tile grids cover the matrix exactly: tile element counts sum to M*N.
    #[test]
    fn grid_tiles_cover_matrix(m in 1u32..3000, n in 1u32..3000) {
        let grid = TileGrid::new(m, n, TileShape::new(128, 128));
        let total: u64 = (0..grid.num_tiles()).map(|t| grid.tile_elems(t)).sum();
        prop_assert_eq!(total, m as u64 * n as u64);
    }

    /// The static GEMM estimate is monotone: fewer SMs never make it
    /// faster, deeper K never makes it cheaper.
    #[test]
    fn gemm_estimate_monotone(m in 1u32..64, n in 1u32..64, k in 1u32..64, sms in 8u32..128) {
        let arch = GpuArch::rtx4090();
        let dims = GemmDims::new(m * 64, n * 64, k * 64);
        let config = GemmConfig::choose(dims, &arch);
        let (_, full) = gemm_estimate(dims, &config, 128, &arch);
        let (_, reduced) = gemm_estimate(dims, &config, sms, &arch);
        prop_assert!(reduced >= full);
        let deeper = GemmDims::new(dims.m, dims.n, dims.k + 64);
        let (_, deeper_dur) = gemm_estimate(deeper, &config, 128, &arch);
        prop_assert!(deeper_dur > full);
    }

    /// Chosen configurations tile the problem with at least one tile and
    /// never more waves than tiles.
    #[test]
    fn chosen_config_is_sane(m in 1u32..200, n in 1u32..200, k in 1u32..64) {
        let arch = GpuArch::a800();
        let dims = GemmDims::new(m * 32, n * 32, k * 128);
        let config = GemmConfig::choose(dims, &arch);
        let grid = config.grid(dims);
        prop_assert!(grid.num_tiles() >= 1);
        let (waves, dur) = gemm_estimate(dims, &config, arch.sm_count, &arch);
        prop_assert!(waves >= 1);
        prop_assert!(waves <= grid.num_tiles());
        prop_assert!(dur.as_nanos() > 0);
    }
}
