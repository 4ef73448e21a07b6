//! Execution-order-aware reordering (§3.3).
//!
//! Contiguous addresses are essential for communication bandwidth, but the
//! swizzled tile execution order is address-incontiguous. FlashOverlap
//! therefore packs finished tiles into a *reordered* buffer whose layout
//! follows the wave schedule — so every group's data is one contiguous
//! region a single NCCL call can send — and un-permutes after
//! communication by fusing a gather into the next element-wise kernel.
//!
//! Each primitive constrains the legal reorderings differently (§3.3.3):
//!
//! - [`tile_map::TileMapping`] (AllReduce): whole tiles reorder freely as
//!   long as all ranks agree.
//! - [`subtile_map::SubtileMapping`] (ReduceScatter): tiles split into
//!   per-destination row-interleaved subtiles so each rank's chunk holds
//!   complete rows.
//! - [`token_map::TokenMapping`] (All-to-All): rows (tokens) route to
//!   per-destination memory pools.
//!
//! The mapping builders run once per plan but their tables are read on
//! every epilogue write and remap, so unchecked indexing is opted out
//! across the module; each site carries its index proof in the `expect`
//! message.
#![warn(clippy::indexing_slicing)]

pub mod subtile_map;
pub mod tile_map;
pub mod token_map;

pub use subtile_map::SubtileMapping;
pub use tile_map::TileMapping;
pub use token_map::TokenMapping;

use std::rc::Rc;

use gpu_sim::gemm::GroupRun;
use gpu_sim::wave::WaveSchedule;

use crate::partition::WavePartition;

/// The wave-group structure shared by every mapping: which group each tile
/// belongs to, the packed (reordered) tile order, and per-group tile
/// counts (the counting-table thresholds of §3.2.4).
#[derive(Debug, Clone)]
pub struct GroupLayout {
    /// Group id per address-order tile index.
    pub group_of_tile: Vec<u32>,
    /// Tiles in packed order: waves ascending, tile index ascending within
    /// each wave (§3.3.4: `W_i` is sorted ascendingly).
    pub reorder_order: Vec<u32>,
    /// Tiles per group — the signaling thresholds.
    pub group_tile_counts: Vec<u32>,
}

impl GroupLayout {
    /// Derives the group layout from a planned wave schedule and a
    /// partition.
    ///
    /// # Panics
    ///
    /// Panics if the partition does not cover the schedule's waves; use
    /// [`WavePartition::check_covers`] first for a recoverable error.
    pub fn new(schedule: &WaveSchedule, partition: &WavePartition) -> Self {
        let mut packer = Packer::new(schedule, partition);
        (0..schedule.num_tiles()).for_each(|t| {
            packer.place(t);
        });
        packer.finish()
    }

    /// The maximal same-group runs of the issue order the layout was
    /// built from — what [`gpu_sim::gemm::group_runs`] derives by
    /// scanning the order tile by tile, read off the group tile counts
    /// instead: groups are consecutive waves, waves are consecutive
    /// chunks of the issue order, and a folded group's tiles join the
    /// next signaling group, so every group that keeps tiles is one run.
    pub(crate) fn issue_runs(&self) -> Rc<[GroupRun]> {
        let runs = self.group_tile_counts.iter().filter(|&&c| c > 0).count();
        let mut signaling = self
            .group_tile_counts
            .iter()
            .zip(0u32..)
            .filter(|&(&count, _)| count > 0);
        let mut end = 0u32;
        // Exact size: the `Rc` is the runs' only allocation.
        (0..runs)
            .map(|_| {
                let (&count, group) = signaling.next().expect("counted above");
                end += count;
                GroupRun { end, group }
            })
            .collect()
    }

    /// Counts the tiles of every `silent` group (one that schedules no
    /// wait) into the next group that waits, so that wait also
    /// guarantees them. Folded groups keep their slot but signal nothing.
    /// Merged groups are consecutive wave ranges, so
    /// [`GroupLayout::group_tiles`] stays a contiguous slice of the
    /// packed order. A trailing silent group has no later wait and stays
    /// as it is.
    pub(crate) fn fold_silent_groups(&mut self, silent: impl Fn(usize) -> bool) {
        let mut target: Vec<u32> = (0..self.num_groups() as u32).collect();
        let mut next: Option<u32> = None;
        for (g, slot) in target.iter_mut().enumerate().rev() {
            if !silent(g) {
                next = Some(g as u32);
            } else if let Some(t) = next {
                *slot = t;
            }
        }
        self.group_tile_counts.iter_mut().for_each(|c| *c = 0);
        for group in &mut self.group_of_tile {
            // Index proofs: group ids are < num_groups, the length of
            // both `target` and `group_tile_counts`.
            *group = *target
                .get(*group as usize)
                .expect("group ids are < num_groups");
            *self
                .group_tile_counts
                .get_mut(*group as usize)
                .expect("group ids are < num_groups") += 1;
        }
    }

    /// Number of groups.
    pub fn num_groups(&self) -> usize {
        self.group_tile_counts.len()
    }

    /// Tiles (packed order) of group `g`.
    ///
    /// # Panics
    ///
    /// Panics if `g >= num_groups()`.
    pub fn group_tiles(&self, g: usize) -> impl Iterator<Item = u32> + '_ {
        // Index proofs: g is bounds-checked by the first get; the prefix
        // sums of group_tile_counts total reorder_order.len() (every tile
        // is packed exactly once), so [start, end) is within the packed
        // order.
        let start: u32 = self
            .group_tile_counts
            .get(..g)
            .expect("group out of range")
            .iter()
            .sum();
        let end = start
            + self
                .group_tile_counts
                .get(g)
                .copied()
                .expect("group out of range");
        self.reorder_order
            .get(start as usize..end as usize)
            .expect("group tile counts sum to the packed tile count")
            .iter()
            .copied()
    }
}

/// Builds a [`GroupLayout`] one tile at a time: every tile of the
/// schedule, in ascending id, takes the next free slot of its wave's
/// packed range — a counting pass, so each wave's tiles land already
/// sorted, with no per-wave sort. A mapping builder drives the pass and
/// extends it with its own per-tile tables.
pub(crate) struct Packer<'s> {
    schedule: &'s WaveSchedule,
    /// Per wave: its group, and the packed slot its next tile takes.
    waves: Vec<(u32, usize)>,
    group_of_tile: Vec<u32>,
    reorder_order: Vec<u32>,
    group_tile_counts: Vec<u32>,
}

impl<'s> Packer<'s> {
    /// A packer for `schedule` grouped by `partition`.
    ///
    /// # Panics
    ///
    /// Panics if the partition does not cover the schedule's waves.
    pub(crate) fn new(schedule: &'s WaveSchedule, partition: &WavePartition) -> Self {
        assert_eq!(
            partition.total_waves(),
            schedule.num_waves(),
            "partition/schedule wave mismatch"
        );
        // A wave's first slot is the prefix sum of the wave widths; a
        // group's tile count is its waves' total.
        let mut waves = Vec::with_capacity(schedule.num_waves() as usize);
        let mut group_tile_counts = Vec::with_capacity(partition.num_groups());
        let mut widths = schedule.waves().map(<[u32]>::len);
        let mut packed = 0usize;
        for (g, &size) in partition.sizes().iter().enumerate() {
            let mut count = 0u32;
            for width in widths.by_ref().take(size as usize) {
                waves.push((g as u32, packed));
                packed += width;
                count += width as u32;
            }
            group_tile_counts.push(count);
        }
        let num_tiles = schedule.num_tiles() as usize;
        Packer {
            schedule,
            waves,
            group_of_tile: vec![0; num_tiles],
            reorder_order: vec![0; num_tiles],
            group_tile_counts,
        }
    }

    /// Packs tile `t` and returns its slot. Tiles must come in ascending
    /// id, each once.
    pub(crate) fn place(&mut self, t: u32) -> usize {
        // Index proofs: `new` pins the partition to the schedule's
        // waves, so every wave has a group and a slot cursor; each
        // wave's cursor starts at its prefix sum and advances once per
        // tile of the wave (WaveSchedule invariant), so it stays below
        // num_tiles; t is a tile of the schedule.
        let (group, slot) = self
            .waves
            .get_mut(self.schedule.wave_of(t) as usize)
            .expect("the partition covers every wave");
        let placed = *slot;
        *slot += 1;
        *self
            .reorder_order
            .get_mut(placed)
            .expect("a wave's slots stay within its packed range") = t;
        *self
            .group_of_tile
            .get_mut(t as usize)
            .expect("t is a tile of the schedule") = *group;
        placed
    }

    /// The layout, once every tile is placed.
    pub(crate) fn finish(self) -> GroupLayout {
        GroupLayout {
            group_of_tile: self.group_of_tile,
            reorder_order: self.reorder_order,
            group_tile_counts: self.group_tile_counts,
        }
    }
}

#[cfg(test)]
#[allow(clippy::indexing_slicing)]
mod tests {
    use super::*;
    use gpu_sim::swizzle::Swizzle;
    use gpu_sim::tile::{TileGrid, TileShape};
    use proptest::prelude::*;

    fn schedule() -> WaveSchedule {
        // 2x4 grid of tiles, swizzle width 2, 2 tiles per wave => 4 waves
        // (the Fig. 5 setup).
        let grid = TileGrid::new(32, 64, TileShape::new(16, 16));
        let order = Swizzle::Strip { width: 2 }.issue_order(&grid);
        WaveSchedule::new(&order, 2)
    }

    #[test]
    fn groups_count_their_tiles() {
        let s = schedule();
        let p = WavePartition::new(vec![1, 2, 1]);
        let layout = GroupLayout::new(&s, &p);
        assert_eq!(layout.group_tile_counts, vec![2, 4, 2]);
        assert_eq!(layout.num_groups(), 3);
    }

    #[test]
    fn reorder_order_sorts_within_wave() {
        let s = schedule();
        // Issue order: 0,1,4,5,2,3,6,7 with waves of 2 => waves are
        // {0,1},{4,5},{2,3},{6,7}; all already sorted.
        let p = WavePartition::per_wave(4);
        let layout = GroupLayout::new(&s, &p);
        assert_eq!(layout.reorder_order, vec![0, 1, 4, 5, 2, 3, 6, 7]);
    }

    #[test]
    fn reorder_order_is_permutation() {
        let grid = TileGrid::new(48, 80, TileShape::new(16, 16));
        let order = Swizzle::Strip { width: 3 }.issue_order(&grid);
        let s = WaveSchedule::new(&order, 5);
        let p = WavePartition::single(s.num_waves());
        let layout = GroupLayout::new(&s, &p);
        let mut sorted = layout.reorder_order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..grid.num_tiles()).collect::<Vec<_>>());
    }

    #[test]
    fn group_of_tile_matches_wave_group() {
        let s = schedule();
        let p = WavePartition::new(vec![2, 2]);
        let layout = GroupLayout::new(&s, &p);
        for t in 0..s.num_tiles() {
            let expected = p.group_of_wave(s.wave_of(t)) as u32;
            assert_eq!(layout.group_of_tile[t as usize], expected);
        }
    }

    /// The per-wave copy-and-sort construction the counting pass
    /// replaced, kept as the oracle.
    fn sorted_waves_layout(schedule: &WaveSchedule, partition: &WavePartition) -> GroupLayout {
        let mut group_of_tile = vec![0u32; schedule.num_tiles() as usize];
        let mut reorder_order = Vec::new();
        let mut group_tile_counts = vec![0u32; partition.num_groups()];
        for w in 0..schedule.num_waves() {
            let g = partition.group_of_wave(w);
            let mut wave_tiles = schedule.wave(w).to_vec();
            wave_tiles.sort_unstable();
            for &t in &wave_tiles {
                group_of_tile[t as usize] = g as u32;
                group_tile_counts[g] += 1;
            }
            reorder_order.extend(wave_tiles);
        }
        GroupLayout {
            group_of_tile,
            reorder_order,
            group_tile_counts,
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Random tile orders, wave widths and partitions: the
        /// counting pass equals the copy-and-sort reference.
        #[test]
        fn layout_equals_the_per_wave_sort(
            seed in any::<u64>(),
            tiles in 1u32..300,
            concurrency in 1u32..40,
        ) {
            let mut rng = sim::DetRng::new(seed);
            let mut order: Vec<u32> = (0..tiles).collect();
            rng.shuffle(&mut order);
            let schedule = WaveSchedule::new(&order, concurrency);
            let mut sizes = Vec::new();
            let mut left = schedule.num_waves();
            while left > 0 {
                let size = rng.range_inclusive(1, u64::from(left)) as u32;
                sizes.push(size);
                left -= size;
            }
            let partition = WavePartition::new(sizes);
            let layout = GroupLayout::new(&schedule, &partition);
            let expected = sorted_waves_layout(&schedule, &partition);
            prop_assert_eq!(&layout.group_of_tile, &expected.group_of_tile);
            prop_assert_eq!(&layout.reorder_order, &expected.reorder_order);
            prop_assert_eq!(&layout.group_tile_counts, &expected.group_tile_counts);
        }
    }

    #[test]
    fn group_tiles_iterates_packed_order() {
        let s = schedule();
        let p = WavePartition::new(vec![1, 2, 1]);
        let layout = GroupLayout::new(&s, &p);
        let g1: Vec<u32> = layout.group_tiles(1).collect();
        assert_eq!(g1, vec![4, 5, 2, 3]);
    }
}
