//! Tile-level reordering for AllReduce (§3.3.4).
//!
//! AllReduce only requires a tile order that is *consistent across ranks*;
//! the order itself may differ from the matrix layout. All ranks derive
//! the same mapping from the same (deterministic) wave schedule, so the
//! reordered buffers are element-wise aligned and summing them is correct.

use std::cell::OnceCell;

use gpu_sim::tile::TileGrid;
use gpu_sim::wave::WaveSchedule;

use crate::mapping::GroupLayout;
use crate::partition::WavePartition;

/// The tile-level mapping table: the group layout, per-group contiguous
/// regions, and the per-tile slot tables.
///
/// Only writes through the mapping read the slot tables: functional
/// epilogues, access-monitored launches and the output gathers. A plan
/// that is only timed never does, so the tables are built on first such
/// use ([`TileMapping::slots`]) and the static verifier's footprints
/// compute the slot offsets as a transient, leaving timed plans without
/// them.
#[derive(Debug, Clone)]
pub struct TileMapping {
    /// Shared wave-group structure.
    pub layout: GroupLayout,
    /// Per-group `(element offset, element count)` regions in the packed
    /// buffer — the arguments of each group's collective call.
    pub group_regions: Vec<(usize, usize)>,
    /// Total packed elements (`== M * N`).
    pub total_elems: usize,
    grid: TileGrid,
    slots: OnceCell<TileSlots>,
}

/// Where each tile lands in the packed buffer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TileSlots {
    /// Packed slot index per address-order tile.
    pub slot_of_tile: Vec<u32>,
    /// Element offset of each packed slot (slot sizes vary at matrix
    /// edges).
    pub slot_offset: Vec<usize>,
}

impl TileSlots {
    /// The slot tables of `layout`'s packed order over `grid`.
    fn build(grid: &TileGrid, layout: &GroupLayout) -> Self {
        let mut slot_of_tile = vec![0u32; layout.reorder_order.len()];
        for (slot, &t) in (0u32..).zip(&layout.reorder_order) {
            // Index proof: the packed order is a permutation of the
            // grid's tiles, so t < num_tiles.
            *slot_of_tile
                .get_mut(t as usize)
                .expect("the packed order names in-grid tiles") = slot;
        }
        TileSlots {
            slot_of_tile,
            slot_offset: slot_offsets(grid, layout),
        }
    }
}

/// The element offset of each slot of `layout`'s packed order over
/// `grid`: the running total of the packed tiles' sizes.
pub(crate) fn slot_offsets(grid: &TileGrid, layout: &GroupLayout) -> Vec<usize> {
    let mut acc = 0usize;
    layout
        .reorder_order
        .iter()
        .map(|&t| {
            let offset = acc;
            acc += grid.tile_elems(t) as usize;
            offset
        })
        .collect()
}

impl TileMapping {
    /// Builds the mapping from the planned schedule and partition.
    ///
    /// # Panics
    ///
    /// Panics if the partition does not cover the schedule.
    pub fn build(grid: TileGrid, schedule: &WaveSchedule, partition: &WavePartition) -> Self {
        let layout = GroupLayout::new(schedule, partition);
        // Group regions: consecutive slot runs, so consecutive element
        // ranges. Each group's element count first, then its offset.
        let mut group_regions = vec![(0usize, 0usize); layout.num_groups()];
        for (elems, &g) in grid.tile_elems_in_order().zip(&layout.group_of_tile) {
            // Index proof: group_of_tile values come from the partition's
            // groups (< num_groups).
            group_regions
                .get_mut(g as usize)
                .expect("group ids are < num_groups")
                .1 += elems as usize;
        }
        let mut acc = 0usize;
        for (start, elems) in &mut group_regions {
            *start = acc;
            acc += *elems;
        }
        TileMapping {
            layout,
            group_regions,
            total_elems: acc,
            grid,
            slots: OnceCell::new(),
        }
    }

    /// The tile grid the mapping is built for.
    pub fn grid(&self) -> &TileGrid {
        &self.grid
    }

    /// The slot tables, built on first use and kept for the mapping's
    /// lifetime.
    pub fn slots(&self) -> &TileSlots {
        self.slots
            .get_or_init(|| TileSlots::build(&self.grid, &self.layout))
    }

    /// Whether [`TileMapping::slots`] has built the slot tables yet.
    pub(crate) fn slots_built(&self) -> bool {
        self.slots.get().is_some()
    }

    /// Element offset of tile `t`'s block in the packed buffer.
    ///
    /// # Panics
    ///
    /// Panics if `t` is not a tile of the grid.
    pub fn tile_base(&self, t: u32) -> usize {
        // Index proof: slot_of_tile values are enumeration indices of
        // reorder_order, hence < num_tiles == slot_offset.len().
        let slots = self.slots();
        let slot = *slots
            .slot_of_tile
            .get(t as usize)
            .expect("tile out of range");
        *slots
            .slot_offset
            .get(slot as usize)
            .expect("slots enumerate the packed order")
    }

    /// Packed-buffer index of logical element `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics if `(r, c)` is out of the matrix bounds.
    pub fn packed_index(&self, r: u32, c: u32) -> usize {
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
        self.tile_base(t) + (r - rows.start) as usize * width + (c - cols.start) as usize
    }

    /// Received elements per rank when each group is AllGathered across
    /// `n_ranks` (every rank ends up with all ranks' packed regions).
    pub fn all_gather_recv_elems(&self, n_ranks: usize) -> usize {
        self.total_elems * n_ranks
    }

    /// Receive-buffer region of group `g` under AllGather: each group's
    /// region expands by the rank count, preserving group order.
    ///
    /// # Panics
    ///
    /// Panics if `g` is out of range.
    pub fn all_gather_recv_region(&self, g: usize, n_ranks: usize) -> (usize, usize) {
        let (offset, count) = *self.group_regions.get(g).expect("group out of range");
        (offset * n_ranks, count * n_ranks)
    }

    /// The post-communication element gather for AllGather: restores the
    /// logical `(M, N * n)` column-concatenated matrix from the received
    /// buffer, whose layout is `[group][source rank][packed region]`.
    pub fn all_gather_gather(&self, n_ranks: usize) -> Vec<u32> {
        let (m, n_local) = (self.grid.m(), self.grid.n());
        let mut map = Vec::with_capacity((m * n_local) as usize * n_ranks);
        for r in 0..m {
            for c in 0..n_local * n_ranks as u32 {
                let src = (c / n_local) as usize;
                let local_col = c % n_local;
                let p = self.packed_index(r, local_col);
                let tile = self
                    .grid
                    .tile_at(r / self.grid.tile().m, local_col / self.grid.tile().n);
                // Index proofs: tile_at returns a tile of the grid
                // (< num_tiles), and group_of_tile values come from
                // group_of_wave (< num_groups == group_regions.len()).
                let g = *self
                    .layout
                    .group_of_tile
                    .get(tile as usize)
                    .expect("tile_at returns an in-grid tile") as usize;
                let (off, count) = *self
                    .group_regions
                    .get(g)
                    .expect("group ids are < num_groups");
                let recv_idx = n_ranks * off + src * count + (p - off);
                map.push(recv_idx as u32);
            }
        }
        map
    }

    /// The post-communication element gather: `out[i] = packed[map[i]]`
    /// restores row-major order. This is what gets fused into the next
    /// element-wise kernel (Fig. 6).
    pub fn element_gather(&self) -> Vec<u32> {
        let (m, n) = (self.grid.m(), self.grid.n());
        let mut map = Vec::with_capacity((m * n) as usize);
        for r in 0..m {
            for c in 0..n {
                map.push(self.packed_index(r, c) as u32);
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

    fn build(m: u32, n: u32, tile: u32, width: u32, conc: u32, sizes: Vec<u32>) -> TileMapping {
        let grid = TileGrid::new(m, n, TileShape::new(tile, tile));
        let order = Swizzle::Strip { width }.issue_order(&grid);
        let schedule = WaveSchedule::new(&order, conc);
        let partition = if sizes.is_empty() {
            WavePartition::single(schedule.num_waves())
        } else {
            WavePartition::new(sizes)
        };
        TileMapping::build(grid, &schedule, &partition)
    }

    #[test]
    fn slots_are_a_permutation_and_offsets_monotone() {
        let m = build(64, 128, 16, 2, 3, vec![]);
        let mut slots = m.slots().slot_of_tile.clone();
        slots.sort_unstable();
        assert_eq!(slots, (0..m.grid().num_tiles()).collect::<Vec<_>>());
        for pair in m.slots().slot_offset.windows(2) {
            assert!(pair[0] < pair[1]);
        }
        assert_eq!(m.total_elems, 64 * 128);
    }

    #[test]
    fn group_regions_tile_the_buffer() {
        let m = build(64, 128, 16, 2, 8, vec![2, 1, 1]);
        let mut expected_start = 0;
        for &(start, count) in &m.group_regions {
            assert_eq!(start, expected_start);
            expected_start += count;
        }
        assert_eq!(expected_start, m.total_elems);
    }

    #[test]
    fn packed_index_is_a_bijection() {
        let m = build(48, 80, 16, 3, 2, vec![]);
        let mut seen = vec![false; m.total_elems];
        for r in 0..48 {
            for c in 0..80 {
                let i = m.packed_index(r, c);
                assert!(!seen[i], "packed index {i} hit twice");
                seen[i] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn element_gather_inverts_packing() {
        let m = build(32, 64, 16, 2, 2, vec![1, 1, 1, 1]);
        // Fill a packed buffer via packed_index from a known logical
        // matrix; gathering must restore it.
        let mut packed = vec![0.0f32; m.total_elems];
        for r in 0..32u32 {
            for c in 0..64u32 {
                packed[m.packed_index(r, c)] = (r * 64 + c) as f32;
            }
        }
        let gather = m.element_gather();
        for (i, &src) in gather.iter().enumerate() {
            assert_eq!(packed[src as usize] as usize, i);
        }
    }

    #[test]
    fn ragged_edges_pack_densely() {
        let m = build(40, 72, 16, 2, 3, vec![]);
        assert_eq!(m.total_elems, 40 * 72);
        let mut seen = vec![false; m.total_elems];
        for r in 0..40 {
            for c in 0..72 {
                seen[m.packed_index(r, c)] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn all_gather_gather_is_a_bijection_into_recv_layout() {
        let m = build(48, 32, 16, 2, 3, vec![1, 1]);
        let n_ranks = 3;
        let gather = m.all_gather_gather(n_ranks);
        assert_eq!(gather.len(), 48 * 32 * n_ranks);
        let mut seen = vec![false; m.all_gather_recv_elems(n_ranks)];
        for &i in &gather {
            assert!(!seen[i as usize], "recv index {i} hit twice");
            seen[i as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn all_gather_recv_regions_tile_the_recv_buffer() {
        let m = build(48, 32, 16, 2, 3, vec![1, 1]);
        let mut expected = 0;
        for g in 0..m.layout.num_groups() {
            let (start, count) = m.all_gather_recv_region(g, 4);
            assert_eq!(start, expected);
            expected += count;
        }
        assert_eq!(expected, m.all_gather_recv_elems(4));
    }

    #[test]
    fn group_region_contains_its_tiles() {
        let m = build(64, 64, 16, 2, 4, vec![1, 2, 1]);
        for g in 0..m.layout.num_groups() {
            let (start, count) = m.group_regions[g];
            for t in m.layout.group_tiles(g).collect::<Vec<_>>() {
                let base = m.tile_base(t);
                assert!(
                    base >= start && base < start + count,
                    "tile {t} outside group {g} region"
                );
            }
        }
    }
}
