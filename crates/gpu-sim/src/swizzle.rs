//! Block swizzling: the threadblock rasterization order.
//!
//! GEMM kernels do not issue output tiles in address (row-major) order:
//! CUTLASS-style swizzling issues them in strips to improve L2 locality
//! (§3.3.2, Fig. 5). Swizzling is why early-finished tiles are
//! address-incontiguous and why FlashOverlap needs reordering at all.

use crate::tile::TileGrid;

/// A threadblock rasterization order over a [`TileGrid`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Swizzle {
    /// Tiles issue in address (row-major) order — no swizzling.
    Identity,
    /// CUTLASS-style strip swizzling: the grid is cut into vertical strips
    /// of `width` tile columns; within a strip, tiles issue column-major
    /// (down the strip first), so consecutively issued tiles sit in the
    /// same columns block but different rows — address-incontiguous.
    Strip {
        /// Strip width in tiles (the swizzle size; Fig. 5 uses 2).
        width: u32,
    },
    /// Row-strip rasterization (CUTLASS "raster along M"): the grid is
    /// cut into horizontal strips of `height` tile rows; within a strip,
    /// tiles issue row-major across each column block. Row bands complete
    /// progressively (strip by strip), which All-to-All token pools need,
    /// while keeping better operand reuse than a plain row-major sweep.
    StripRows {
        /// Strip height in tiles.
        height: u32,
    },
}

impl Swizzle {
    /// Returns the tile issue order: `order[i]` is the address-order tile
    /// index of the `i`-th issued tile. The result is a permutation of
    /// `0..grid.num_tiles()`.
    ///
    /// # Panics
    ///
    /// Panics if a strip width of zero is configured.
    pub fn issue_order(&self, grid: &TileGrid) -> Vec<u32> {
        let mut order = vec![0; grid.num_tiles() as usize];
        self.fill_issue_order(grid, &mut order);
        order
    }

    /// Writes [`Swizzle::issue_order`] into `out`, so callers that keep
    /// the order elsewhere (a shared `Rc<[u32]>`) build it in place.
    ///
    /// # Panics
    ///
    /// Panics if `out` does not hold exactly one slot per tile, or if a
    /// strip width of zero is configured.
    pub fn fill_issue_order(&self, grid: &TileGrid, out: &mut [u32]) {
        assert_eq!(
            out.len(),
            grid.num_tiles() as usize,
            "issue order needs one slot per tile"
        );
        let mut slots = out.iter_mut();
        let mut issue = |t: u32| *slots.next().expect("one slot per tile") = t;
        match *self {
            Swizzle::Identity => (0..grid.num_tiles()).for_each(issue),
            Swizzle::Strip { width } => {
                assert!(width > 0, "strip width must be positive");
                let mut strip_start = 0;
                while strip_start < grid.tiles_n() {
                    let strip_end = (strip_start + width).min(grid.tiles_n());
                    for row in 0..grid.tiles_m() {
                        for col in strip_start..strip_end {
                            issue(grid.tile_at(row, col));
                        }
                    }
                    strip_start = strip_end;
                }
            }
            Swizzle::StripRows { height } => {
                assert!(height > 0, "strip height must be positive");
                let mut strip_start = 0;
                while strip_start < grid.tiles_m() {
                    let strip_end = (strip_start + height).min(grid.tiles_m());
                    for col in 0..grid.tiles_n() {
                        for row in strip_start..strip_end {
                            issue(grid.tile_at(row, col));
                        }
                    }
                    strip_start = strip_end;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tile::TileShape;

    fn grid(tm: u32, tn: u32) -> TileGrid {
        TileGrid::new(tm * 16, tn * 16, TileShape::new(16, 16))
    }

    fn assert_permutation(order: &[u32], n: u32) {
        let mut seen = vec![false; n as usize];
        for &t in order {
            assert!(!seen[t as usize], "tile {t} issued twice");
            seen[t as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "some tile never issued");
    }

    #[test]
    fn identity_is_address_order() {
        let g = grid(3, 4);
        assert_eq!(
            Swizzle::Identity.issue_order(&g),
            (0..12).collect::<Vec<u32>>()
        );
    }

    #[test]
    fn strip_matches_fig5_pattern() {
        // Fig. 5: 2x4 tile grid, swizzle width 2. Issue order walks strip 0
        // (cols 0-1) down the rows, then strip 1 (cols 2-3).
        let g = grid(2, 4);
        let order = Swizzle::Strip { width: 2 }.issue_order(&g);
        assert_eq!(order, vec![0, 1, 4, 5, 2, 3, 6, 7]);
    }

    #[test]
    fn strip_is_permutation_even_when_ragged() {
        for (tm, tn, w) in [(3, 5, 2), (4, 4, 3), (1, 7, 4), (6, 1, 2), (5, 9, 16)] {
            let g = grid(tm, tn);
            let order = Swizzle::Strip { width: w }.issue_order(&g);
            assert_permutation(&order, g.num_tiles());
        }
    }

    #[test]
    fn strip_width_one_is_column_major() {
        let g = grid(2, 3);
        let order = Swizzle::Strip { width: 1 }.issue_order(&g);
        assert_eq!(order, vec![0, 3, 1, 4, 2, 5]);
    }

    #[test]
    fn wide_strip_degenerates_to_identity() {
        let g = grid(3, 4);
        let order = Swizzle::Strip { width: 4 }.issue_order(&g);
        assert_eq!(order, Swizzle::Identity.issue_order(&g));
    }

    #[test]
    fn strip_rows_completes_bands_progressively() {
        // With row strips of height 1, every tile of band b issues before
        // any tile of band b+1 — the All-to-All-friendly property.
        let g = grid(4, 6);
        let order = Swizzle::StripRows { height: 1 }.issue_order(&g);
        assert_permutation(&order, g.num_tiles());
        let mut last_band_finish = Vec::new();
        for band in 0..4u32 {
            let max_pos = order
                .iter()
                .position(|&t| t / 6 == band && t % 6 == 5)
                .unwrap();
            last_band_finish.push(max_pos);
        }
        for pair in last_band_finish.windows(2) {
            assert!(pair[0] < pair[1], "bands must complete in order");
        }
    }

    #[test]
    fn strip_rows_is_permutation_when_ragged() {
        for (tm, tn, h) in [(3, 5, 2), (7, 2, 3), (1, 4, 2), (5, 5, 16)] {
            let g = grid(tm, tn);
            let order = Swizzle::StripRows { height: h }.issue_order(&g);
            assert_permutation(&order, g.num_tiles());
        }
    }

    #[test]
    fn swizzled_early_tiles_are_address_incontiguous() {
        // The motivating fact from Sec. 3.3.2: with swizzling, the first
        // concurrently executing tiles are not contiguous in addresses.
        let g = grid(4, 8);
        let order = Swizzle::Strip { width: 2 }.issue_order(&g);
        let first_wave: Vec<u32> = order[..4].to_vec();
        let contiguous = first_wave.windows(2).all(|w| w[1] == w[0] + 1);
        assert!(
            !contiguous,
            "expected incontiguous early tiles: {first_wave:?}"
        );
    }
}
