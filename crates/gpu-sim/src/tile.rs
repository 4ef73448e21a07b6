//! Output-tile geometry for tiled GEMM.

/// The shape of one output tile (threadblock tile) in a GEMM.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TileShape {
    /// Tile rows (along M).
    pub m: u32,
    /// Tile columns (along N).
    pub n: u32,
}

impl TileShape {
    /// Creates a tile shape.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub const fn new(m: u32, n: u32) -> Self {
        assert!(m > 0 && n > 0, "tile dimensions must be positive");
        TileShape { m, n }
    }

    /// Elements in a full tile.
    pub const fn elems(&self) -> u64 {
        self.m as u64 * self.n as u64
    }
}

/// The partition of an `M x N` output matrix into tiles.
///
/// Tiles are identified by their *address-order* index: row-major over the
/// `(tiles_m, tiles_n)` grid, i.e. tile `t` covers rows
/// `(t / tiles_n) * tile.m ..` and columns `(t % tiles_n) * tile.n ..`.
/// Edge tiles may be partial when the matrix dimensions are not multiples
/// of the tile shape.
///
/// # Examples
///
/// ```
/// use gpu_sim::{TileGrid, TileShape};
///
/// let grid = TileGrid::new(256, 384, TileShape::new(128, 128));
/// assert_eq!((grid.tiles_m(), grid.tiles_n()), (2, 3));
/// assert_eq!(grid.num_tiles(), 6);
/// assert_eq!(grid.rows_of(4), 128..256);
/// assert_eq!(grid.cols_of(4), 128..256);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TileGrid {
    m: u32,
    n: u32,
    tile: TileShape,
    tiles_m: u32,
    tiles_n: u32,
}

impl TileGrid {
    /// Partitions an `m x n` output into tiles of shape `tile`.
    ///
    /// # Panics
    ///
    /// Panics if `m` or `n` is zero.
    pub fn new(m: u32, n: u32, tile: TileShape) -> Self {
        assert!(m > 0 && n > 0, "matrix dimensions must be positive");
        TileGrid {
            m,
            n,
            tile,
            tiles_m: m.div_ceil(tile.m),
            tiles_n: n.div_ceil(tile.n),
        }
    }

    /// Output rows (M).
    pub fn m(&self) -> u32 {
        self.m
    }

    /// Output columns (N).
    pub fn n(&self) -> u32 {
        self.n
    }

    /// The tile shape.
    pub fn tile(&self) -> TileShape {
        self.tile
    }

    /// Tiles along M.
    pub fn tiles_m(&self) -> u32 {
        self.tiles_m
    }

    /// Tiles along N.
    pub fn tiles_n(&self) -> u32 {
        self.tiles_n
    }

    /// Total number of tiles.
    pub fn num_tiles(&self) -> u32 {
        self.tiles_m * self.tiles_n
    }

    /// Grid row of tile `t`.
    ///
    /// # Panics
    ///
    /// Panics if `t` is out of range.
    pub fn tile_row(&self, t: u32) -> u32 {
        assert!(t < self.num_tiles(), "tile {t} out of range");
        t / self.tiles_n
    }

    /// Grid column of tile `t`.
    ///
    /// # Panics
    ///
    /// Panics if `t` is out of range.
    pub fn tile_col(&self, t: u32) -> u32 {
        assert!(t < self.num_tiles(), "tile {t} out of range");
        t % self.tiles_n
    }

    /// Tile index at grid position `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if the position is out of range.
    pub fn tile_at(&self, row: u32, col: u32) -> u32 {
        assert!(
            row < self.tiles_m && col < self.tiles_n,
            "tile position ({row}, {col}) out of range"
        );
        row * self.tiles_n + col
    }

    /// The matrix-row range tile `t` covers (clipped at the matrix edge).
    pub fn rows_of(&self, t: u32) -> std::ops::Range<u32> {
        let r0 = self.tile_row(t) * self.tile.m;
        r0..(r0 + self.tile.m).min(self.m)
    }

    /// The matrix-column range tile `t` covers (clipped at the edge).
    pub fn cols_of(&self, t: u32) -> std::ops::Range<u32> {
        let c0 = self.tile_col(t) * self.tile.n;
        c0..(c0 + self.tile.n).min(self.n)
    }

    /// Actual element count of tile `t` (smaller for edge tiles).
    ///
    /// # Panics
    ///
    /// Panics if `t` is out of range.
    pub fn tile_elems(&self, t: u32) -> u64 {
        assert!(t < self.num_tiles(), "tile {t} out of range");
        // One division: mapping builders size every tile with this.
        let row = t / self.tiles_n;
        let col = t - row * self.tiles_n;
        let rows = self.tile.m.min(self.m - row * self.tile.m);
        let cols = self.tile.n.min(self.n - col * self.tile.n);
        rows as u64 * cols as u64
    }

    /// [`TileGrid::tile_elems`] of every tile, in address order, sized
    /// from the grid's interior and edge extents: only the last row and
    /// column of tiles can be partial, so no tile needs a division.
    pub fn tile_elems_in_order(&self) -> impl Iterator<Item = u64> {
        let (tile, tiles_m, tiles_n) = (self.tile, self.tiles_m, self.tiles_n);
        let edge_rows = self.m - (tiles_m - 1) * tile.m;
        let edge_cols = self.n - (tiles_n - 1) * tile.n;
        (0..tiles_m).flat_map(move |row| {
            let rows = u64::from(if row + 1 < tiles_m { tile.m } else { edge_rows });
            (0..tiles_n).map(move |col| {
                rows * u64::from(if col + 1 < tiles_n { tile.n } else { edge_cols })
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_partition() {
        let g = TileGrid::new(512, 1024, TileShape::new(128, 256));
        assert_eq!(g.tiles_m(), 4);
        assert_eq!(g.tiles_n(), 4);
        assert_eq!(g.num_tiles(), 16);
        for t in 0..16 {
            assert_eq!(g.tile_elems(t), 128 * 256);
        }
    }

    #[test]
    fn ragged_partition_clips_edges() {
        let g = TileGrid::new(300, 200, TileShape::new(128, 128));
        assert_eq!(g.tiles_m(), 3);
        assert_eq!(g.tiles_n(), 2);
        // Bottom-right tile covers 44 rows x 72 cols.
        let last = g.num_tiles() - 1;
        assert_eq!(g.rows_of(last), 256..300);
        assert_eq!(g.cols_of(last), 128..200);
        assert_eq!(g.tile_elems(last), 44 * 72);
    }

    #[test]
    fn total_elems_equal_matrix_elems() {
        let g = TileGrid::new(300, 200, TileShape::new(128, 128));
        let total: u64 = (0..g.num_tiles()).map(|t| g.tile_elems(t)).sum();
        assert_eq!(total, 300 * 200);
    }

    #[test]
    fn index_roundtrip() {
        let g = TileGrid::new(512, 512, TileShape::new(128, 128));
        for t in 0..g.num_tiles() {
            assert_eq!(g.tile_at(g.tile_row(t), g.tile_col(t)), t);
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn tile_row_out_of_range_panics() {
        let g = TileGrid::new(128, 128, TileShape::new(128, 128));
        let _ = g.tile_row(1);
    }

    #[test]
    fn tile_elems_matches_the_row_and_column_ranges() {
        for (m, n, tm, tn) in [(300, 200, 128, 128), (512, 1024, 128, 256), (7, 33, 4, 8)] {
            let g = TileGrid::new(m, n, TileShape::new(tm, tn));
            for t in 0..g.num_tiles() {
                let (rows, cols) = (g.rows_of(t), g.cols_of(t));
                let expected = (rows.end - rows.start) as u64 * (cols.end - cols.start) as u64;
                assert_eq!(g.tile_elems(t), expected, "{m}x{n} tile {t}");
            }
        }
    }

    #[test]
    fn tile_elems_in_order_matches_tile_elems() {
        for (m, n, tm, tn) in [
            (300, 200, 128, 128),
            (512, 1024, 128, 256),
            (7, 33, 4, 8),
            (64, 64, 128, 128),
            (16, 4096, 128, 256),
        ] {
            let g = TileGrid::new(m, n, TileShape::new(tm, tn));
            let expected: Vec<u64> = (0..g.num_tiles()).map(|t| g.tile_elems(t)).collect();
            let sized: Vec<u64> = g.tile_elems_in_order().collect();
            assert_eq!(sized, expected, "{m}x{n} in {tm}x{tn} tiles");
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn tile_elems_out_of_range_panics() {
        let g = TileGrid::new(128, 128, TileShape::new(128, 128));
        let _ = g.tile_elems(1);
    }

    #[test]
    fn single_tile_grid() {
        let g = TileGrid::new(64, 64, TileShape::new(128, 128));
        assert_eq!(g.num_tiles(), 1);
        assert_eq!(g.tile_elems(0), 64 * 64);
    }
}
