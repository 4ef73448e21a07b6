//! Subtile-level reordering for ReduceScatter (§3.3.4).
//!
//! ReduceScatter slices the reduced result across ranks, so complete rows
//! must land on one rank. Each tile is split by rows into `n` interleaved
//! subtiles — subtile `k` holds the tile rows whose *global* row index is
//! `≡ k (mod n)` — and the packed send buffer arranges every group as
//! `[dest 0 block | dest 1 block | ... | dest n-1 block]`. A single
//! ReduceScatter call per group then delivers rank `k` exactly the rows
//! `row % n == k`, reduced.

use gpu_sim::tile::TileGrid;
use gpu_sim::wave::WaveSchedule;

use crate::error::FlashOverlapError;
use crate::mapping::GroupLayout;
use crate::partition::WavePartition;

/// The subtile-level mapping for an `n`-rank ReduceScatter.
#[derive(Debug, Clone)]
pub struct SubtileMapping {
    /// Shared wave-group structure.
    pub layout: GroupLayout,
    /// Rank count.
    pub n_ranks: usize,
    /// Per-group `(element offset, element count)` regions in the packed
    /// send buffer.
    pub send_group_regions: Vec<(usize, usize)>,
    /// `[tile][dest]` element offset of the tile's dest-subtile in the
    /// packed send buffer.
    pub subtile_send_offset: Vec<Vec<usize>>,
    /// Per-tile element offset of the tile's own-rank subtile in the
    /// packed *receive* buffer (identical on every rank by symmetry).
    pub recv_subtile_offset: Vec<usize>,
    /// Per-group element offsets in the receive buffer.
    pub recv_group_offset: Vec<usize>,
    /// Total packed send elements (`== M * N`).
    pub total_send_elems: usize,
    /// Received elements per rank (`== M * N / n`).
    pub recv_elems: usize,
    grid: TileGrid,
}

impl SubtileMapping {
    /// Builds the mapping.
    ///
    /// # Errors
    ///
    /// Returns [`FlashOverlapError::IncompatibleShape`] unless the tile
    /// height and every tile's actual row count are divisible by
    /// `n_ranks` (so subtiles are equal and global row parity survives
    /// tiling).
    pub fn build(
        grid: TileGrid,
        schedule: &WaveSchedule,
        partition: &WavePartition,
        n_ranks: usize,
    ) -> Result<Self, FlashOverlapError> {
        if n_ranks < 2 {
            return Err(FlashOverlapError::IncompatibleShape {
                reason: "ReduceScatter needs at least 2 ranks".into(),
            });
        }
        let n = n_ranks as u32;
        if !grid.tile().m.is_multiple_of(n) {
            return Err(FlashOverlapError::IncompatibleShape {
                reason: format!(
                    "tile height {} not divisible by {} ranks",
                    grid.tile().m,
                    n_ranks
                ),
            });
        }
        for t in 0..grid.num_tiles() {
            let rows = grid.rows_of(t);
            if !(rows.end - rows.start).is_multiple_of(n) {
                return Err(FlashOverlapError::IncompatibleShape {
                    reason: format!(
                        "tile {} has {} rows, not divisible by {} ranks (M = {})",
                        t,
                        rows.end - rows.start,
                        n_ranks,
                        grid.m()
                    ),
                });
            }
        }

        let layout = GroupLayout::new(schedule, partition);
        let num_tiles = grid.num_tiles() as usize;
        let subtile_elems = |t: u32| (grid.tile_elems(t) / n_ranks as u64) as usize;

        let mut subtile_send_offset = vec![vec![0usize; n_ranks]; num_tiles];
        let mut recv_subtile_offset = vec![0usize; num_tiles];
        let mut send_group_regions = Vec::with_capacity(layout.num_groups());
        let mut recv_group_offset = Vec::with_capacity(layout.num_groups());
        let mut send_acc = 0usize;
        let mut recv_acc = 0usize;
        for g in 0..layout.num_groups() {
            let tiles: Vec<u32> = layout.group_tiles(g).collect();
            let block: usize = tiles.iter().map(|&t| subtile_elems(t)).sum();
            let group_start = send_acc;
            recv_group_offset.push(recv_acc);
            for dest in 0..n_ranks {
                let mut within = 0usize;
                for &t in &tiles {
                    let offset = group_start + dest * block + within;
                    // Index proofs: group_tiles yields tiles of the grid
                    // (t < num_tiles, the outer Vec length), and dest
                    // ranges over 0..n_ranks (the inner Vec length).
                    *subtile_send_offset
                        .get_mut(t as usize)
                        .expect("group_tiles yields in-grid tiles")
                        .get_mut(dest)
                        .expect("dest ranges over n_ranks") = offset;
                    if dest == 0 {
                        // Receive layout mirrors one dest block per group.
                        *recv_subtile_offset
                            .get_mut(t as usize)
                            .expect("group_tiles yields in-grid tiles") = recv_acc + within;
                    }
                    within += subtile_elems(t);
                }
            }
            send_acc += block * n_ranks;
            recv_acc += block;
            send_group_regions.push((group_start, block * n_ranks));
        }

        Ok(SubtileMapping {
            layout,
            n_ranks,
            send_group_regions,
            subtile_send_offset,
            recv_subtile_offset,
            recv_group_offset,
            total_send_elems: send_acc,
            recv_elems: recv_acc,
            grid,
        })
    }

    /// The tile grid the mapping is built for.
    pub fn grid(&self) -> &TileGrid {
        &self.grid
    }

    /// Packed *send*-buffer index of logical element `(r, c)` (rank-
    /// independent: all ranks pack identically).
    ///
    /// # Panics
    ///
    /// Panics if `(r, c)` is out of bounds.
    pub fn packed_send_index(&self, r: u32, c: u32) -> usize {
        assert!(
            r < self.grid.m() && c < self.grid.n(),
            "({r},{c}) out of bounds"
        );
        let t = self
            .grid
            .tile_at(r / self.grid.tile().m, c / self.grid.tile().n);
        let rows = self.grid.rows_of(t);
        let cols = self.grid.cols_of(t);
        let width = (cols.end - cols.start) as usize;
        let dest = (r as usize) % self.n_ranks;
        // Rows of this tile with the same parity, below r.
        let row_in_subtile = ((r - rows.start) / self.n_ranks as u32) as usize;
        // Index proofs: tile_at returns an in-grid tile (table length is
        // num_tiles), and dest = r % n_ranks < n_ranks (inner length).
        *self
            .subtile_send_offset
            .get(t as usize)
            .expect("tile_at returns an in-grid tile")
            .get(dest)
            .expect("r % n_ranks is < n_ranks")
            + row_in_subtile * width
            + (c - cols.start) as usize
    }

    /// Packed *receive*-buffer index (on rank `k`) of the element at
    /// global row `r` (`r % n == k`), column `c`.
    ///
    /// # Panics
    ///
    /// Panics if `(r, c)` is out of bounds.
    pub fn packed_recv_index(&self, r: u32, c: u32) -> usize {
        assert!(
            r < self.grid.m() && c < self.grid.n(),
            "({r},{c}) out of bounds"
        );
        let t = self
            .grid
            .tile_at(r / self.grid.tile().m, c / self.grid.tile().n);
        let rows = self.grid.rows_of(t);
        let cols = self.grid.cols_of(t);
        let width = (cols.end - cols.start) as usize;
        let row_in_subtile = ((r - rows.start) / self.n_ranks as u32) as usize;
        // Index proof: tile_at returns an in-grid tile; the table holds
        // one entry per tile.
        *self
            .recv_subtile_offset
            .get(t as usize)
            .expect("tile_at returns an in-grid tile")
            + row_in_subtile * width
            + (c - cols.start) as usize
    }

    /// The post-communication element gather for rank `k`: restores the
    /// rank's logical output (rows `r % n == k`, ascending, each full
    /// width) from the received packed buffer.
    ///
    /// # Panics
    ///
    /// Panics if `k >= n_ranks` or `M` is not divisible by the rank count.
    pub fn recv_gather(&self, k: usize) -> Vec<u32> {
        assert!(k < self.n_ranks, "rank {k} out of range");
        assert_eq!(
            self.grid.m() as usize % self.n_ranks,
            0,
            "M must divide rank count for a rectangular per-rank output"
        );
        let local_rows = self.grid.m() as usize / self.n_ranks;
        let n = self.grid.n();
        let mut map = Vec::with_capacity(local_rows * n as usize);
        for i in 0..local_rows {
            let r = (k + i * self.n_ranks) as u32;
            for c in 0..n {
                map.push(self.packed_recv_index(r, c) as u32);
            }
        }
        map
    }
}

#[cfg(test)]
#[allow(clippy::indexing_slicing)]
mod tests {
    use super::*;
    use gpu_sim::swizzle::Swizzle;
    use gpu_sim::tile::TileShape;

    fn build(m: u32, n_cols: u32, ranks: usize, sizes: Vec<u32>) -> SubtileMapping {
        let grid = TileGrid::new(m, n_cols, TileShape::new(16, 16));
        let order = Swizzle::Strip { width: 2 }.issue_order(&grid);
        let schedule = WaveSchedule::new(&order, 3);
        let partition = if sizes.is_empty() {
            WavePartition::single(schedule.num_waves())
        } else {
            WavePartition::new(sizes)
        };
        SubtileMapping::build(grid, &schedule, &partition, ranks).unwrap()
    }

    #[test]
    fn send_index_is_a_bijection() {
        let m = build(32, 48, 4, vec![]);
        let mut seen = vec![false; m.total_send_elems];
        for r in 0..32 {
            for c in 0..48 {
                let i = m.packed_send_index(r, c);
                assert!(!seen[i], "send index {i} hit twice");
                seen[i] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn group_regions_are_contiguous_and_divisible() {
        let m = build(64, 32, 2, vec![2, 1]);
        let mut expected = 0;
        for &(start, count) in &m.send_group_regions {
            assert_eq!(start, expected);
            assert_eq!(count % m.n_ranks, 0, "region must split across ranks");
            expected += count;
        }
        assert_eq!(expected, m.total_send_elems);
    }

    #[test]
    fn dest_chunks_hold_matching_row_parity() {
        // Every element in dest block k of any group must come from a
        // global row with r % n == k: this is the ReduceScatter
        // correctness condition of Sec. 3.3.3.
        let m = build(32, 32, 4, vec![1, 1]);
        for r in 0..32u32 {
            for c in 0..32u32 {
                let idx = m.packed_send_index(r, c);
                // Find the group and dest block that contains idx.
                let g = m
                    .send_group_regions
                    .iter()
                    .position(|&(s, cnt)| idx >= s && idx < s + cnt)
                    .expect("index in some group");
                let (start, count) = m.send_group_regions[g];
                let block = count / m.n_ranks;
                let dest = (idx - start) / block;
                assert_eq!(dest, r as usize % m.n_ranks, "row {r} col {c}");
            }
        }
    }

    #[test]
    fn recv_gather_restores_rank_rows() {
        let m = build(32, 16, 2, vec![]);
        for k in 0..2usize {
            // Fill a fake receive buffer with the value each slot should
            // carry (global row * 1000 + col), using packed_recv_index
            // over rank k's rows; the gather must read them in logical
            // order.
            let mut recv = vec![-1.0f32; m.recv_elems];
            // Rank k holds the global rows r with r % 2 == k.
            for r in (k as u32..32).step_by(2) {
                for c in 0..16u32 {
                    recv[m.packed_recv_index(r, c)] = (r * 1000 + c) as f32;
                }
            }
            let gather = m.recv_gather(k);
            assert_eq!(gather.len(), 16 * 16);
            for (i, &src) in gather.iter().enumerate() {
                let local_row = i / 16;
                let col = i % 16;
                let global_row = k + local_row * 2;
                assert_eq!(recv[src as usize] as u32, (global_row * 1000 + col) as u32);
            }
        }
    }

    #[test]
    fn indivisible_tile_height_is_rejected() {
        let grid = TileGrid::new(32, 32, TileShape::new(6, 16));
        let order = Swizzle::Identity.issue_order(&grid);
        let schedule = WaveSchedule::new(&order, 4);
        let partition = WavePartition::single(schedule.num_waves());
        let err = SubtileMapping::build(grid, &schedule, &partition, 4).unwrap_err();
        assert!(matches!(err, FlashOverlapError::IncompatibleShape { .. }));
    }

    #[test]
    fn ragged_m_with_bad_edge_tile_is_rejected() {
        // Tile height 16 divides 8 ranks, but M = 36 leaves a 4-row edge
        // tile and 4 rows cannot split across 8 ranks.
        let grid = TileGrid::new(36, 32, TileShape::new(16, 16));
        let order = Swizzle::Identity.issue_order(&grid);
        let schedule = WaveSchedule::new(&order, 4);
        let partition = WavePartition::single(schedule.num_waves());
        let err = SubtileMapping::build(grid, &schedule, &partition, 8).unwrap_err();
        assert!(matches!(err, FlashOverlapError::IncompatibleShape { .. }));
    }

    #[test]
    fn recv_elems_is_per_rank_share() {
        let m = build(64, 48, 4, vec![2, 2]);
        assert_eq!(m.recv_elems, 64 * 48 / 4);
        assert_eq!(m.total_send_elems, 64 * 48);
    }
}
