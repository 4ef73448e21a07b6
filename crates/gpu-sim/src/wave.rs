//! Wave structure of tiled GEMM execution.
//!
//! A *wave* is the set of tiles executing concurrently (§2.1.1): with one
//! tile per SM, the `i`-th wave is the `i`-th chunk of the issue order of
//! width `sm_count`. The wave schedule here is the *planned* (static)
//! schedule used for building mapping tables and predicting latency; the
//! runtime in [`crate::gemm`] re-derives actual wave widths dynamically
//! when communication kernels steal SMs.
//!
//! Mapping-table construction walks these schedules per tile, so unchecked
//! indexing is opted out in favour of explicit bounds handling with the
//! invariants written down at each access.
#![warn(clippy::indexing_slicing)]

use std::rc::Rc;

/// The planned assignment of tiles to waves: the issue order, cut into
/// chunks of the wave width. Waves are slices of the shared order, not
/// copies of it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WaveSchedule {
    issue: Rc<[u32]>,
    width: usize,
    wave_of_tile: Vec<u32>,
}

impl WaveSchedule {
    /// Chops a tile issue order into waves of `concurrency` tiles.
    ///
    /// # Panics
    ///
    /// Panics like [`WaveSchedule::over`].
    pub fn new(issue_order: &[u32], concurrency: u32) -> Self {
        Self::over(Rc::from(issue_order), concurrency)
    }

    /// [`WaveSchedule::new`] over an issue order the caller shares (a
    /// plan's GEMM launches carry the same `Rc`), without copying it.
    ///
    /// # Panics
    ///
    /// Panics if `concurrency` is zero, `issue_order` is empty, or the
    /// order names a tile index `>= issue_order.len()` (valid orders are
    /// permutations of `0..len`, as produced by
    /// [`crate::swizzle::Swizzle::issue_order`]).
    pub fn over(issue_order: Rc<[u32]>, concurrency: u32) -> Self {
        assert!(concurrency > 0, "concurrency must be positive");
        assert!(!issue_order.is_empty(), "empty issue order");
        let width = (concurrency as usize).min(issue_order.len());
        let mut wave_of_tile = vec![0u32; issue_order.len()];
        for (w, chunk) in issue_order.chunks(width).enumerate() {
            for &t in chunk {
                // In bounds for permutations (t < len); a malformed
                // order is a caller bug surfaced here.
                let slot = wave_of_tile
                    .get_mut(t as usize)
                    .expect("issue order names a tile outside 0..len");
                *slot = w as u32;
            }
        }
        WaveSchedule {
            issue: issue_order,
            width,
            wave_of_tile,
        }
    }

    /// The issue order the waves are cut from.
    pub fn issue_order(&self) -> &Rc<[u32]> {
        &self.issue
    }

    /// Number of waves `T`.
    pub fn num_waves(&self) -> u32 {
        self.issue.len().div_ceil(self.width) as u32
    }

    /// Tiles of wave `w`, in issue order.
    ///
    /// # Panics
    ///
    /// Panics if `w` is out of range.
    pub fn wave(&self, w: u32) -> &[u32] {
        self.waves().nth(w as usize).expect("wave out of range")
    }

    /// All waves, in issue order.
    pub fn waves(&self) -> std::slice::Chunks<'_, u32> {
        self.issue.chunks(self.width)
    }

    /// The wave that tile `t` (address-order index) belongs to.
    ///
    /// # Panics
    ///
    /// Panics if `t` is out of range.
    pub fn wave_of(&self, t: u32) -> u32 {
        self.wave_of_tile
            .get(t as usize)
            .copied()
            .expect("tile out of range")
    }

    /// Total number of tiles.
    pub fn num_tiles(&self) -> u32 {
        self.wave_of_tile.len() as u32
    }

    /// Full-wave width (tiles per non-tail wave).
    pub fn wave_width(&self) -> u32 {
        self.width as u32
    }
}

/// Number of waves needed for `tiles` tiles at `concurrency` tiles/wave.
///
/// # Panics
///
/// Panics if `concurrency` is zero.
pub fn wave_count(tiles: u32, concurrency: u32) -> u32 {
    assert!(concurrency > 0, "concurrency must be positive");
    tiles.div_ceil(concurrency)
}

#[cfg(test)]
#[allow(clippy::indexing_slicing)]
mod tests {
    use super::*;
    use crate::swizzle::Swizzle;
    use crate::tile::{TileGrid, TileShape};

    #[test]
    fn exact_multiple_of_concurrency() {
        let order: Vec<u32> = (0..12).collect();
        let ws = WaveSchedule::new(&order, 4);
        assert_eq!(ws.num_waves(), 3);
        assert_eq!(ws.wave(0), &[0, 1, 2, 3]);
        assert_eq!(ws.wave(2), &[8, 9, 10, 11]);
        assert_eq!(ws.wave_width(), 4);
    }

    #[test]
    fn tail_wave_is_partial() {
        let order: Vec<u32> = (0..10).collect();
        let ws = WaveSchedule::new(&order, 4);
        assert_eq!(ws.num_waves(), 3);
        assert_eq!(ws.wave(2).len(), 2);
    }

    #[test]
    fn wave_of_inverts_waves() {
        let grid = TileGrid::new(256, 512, TileShape::new(64, 64));
        let order = Swizzle::Strip { width: 2 }.issue_order(&grid);
        let ws = WaveSchedule::new(&order, 7);
        for w in 0..ws.num_waves() {
            for &t in ws.wave(w) {
                assert_eq!(ws.wave_of(t), w);
            }
        }
    }

    #[test]
    fn waves_partition_all_tiles() {
        let order: Vec<u32> = (0..37).rev().collect();
        let ws = WaveSchedule::new(&order, 8);
        let total: usize = ws.waves().map(<[u32]>::len).sum();
        assert_eq!(total, 37);
        assert_eq!(ws.num_tiles(), 37);
    }

    #[test]
    fn a_shared_order_is_not_copied() {
        let order: Rc<[u32]> = (0..10).rev().collect();
        let ws = WaveSchedule::over(Rc::clone(&order), 4);
        assert!(Rc::ptr_eq(ws.issue_order(), &order));
        assert_eq!(ws, WaveSchedule::new(&order, 4));
        let waves: Vec<&[u32]> = ws.waves().collect();
        assert_eq!(waves, [&[9, 8, 7, 6][..], &[5, 4, 3, 2], &[1, 0]]);
    }

    #[test]
    fn a_wide_wave_holds_every_tile() {
        let ws = WaveSchedule::new(&[2, 0, 1], 8);
        assert_eq!((ws.num_waves(), ws.wave_width()), (1, 3));
        assert_eq!(ws.wave(0), &[2, 0, 1]);
    }

    #[test]
    fn paper_example_four_waves() {
        // Sec. 2.1.1: 512 tiles / 128 SMs = 4 waves.
        assert_eq!(wave_count(512, 128), 4);
        // Sec. 4.1.2: 1024 tiles on 128 SMs gives 8 waves.
        assert_eq!(wave_count(1024, 128), 8);
    }

    #[test]
    fn wave_count_rounds_up() {
        assert_eq!(wave_count(129, 128), 2);
        assert_eq!(wave_count(1, 128), 1);
    }
}
