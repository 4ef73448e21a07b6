//! Property-based tests of the reordering mappings: for arbitrary
//! shapes, swizzles, concurrencies, and partitions, the packing must be
//! a bijection with contiguous per-group regions — the invariants the
//! §3.3 correctness arguments rest on.

use flashoverlap::mapping::{SubtileMapping, TileMapping, TokenMapping};
use flashoverlap::partition::WavePartition;
use gpu_sim::swizzle::Swizzle;
use gpu_sim::tile::{TileGrid, TileShape};
use gpu_sim::wave::WaveSchedule;
use proptest::prelude::*;
use sim::DetRng;

/// A random-but-valid (grid, schedule, partition) triple.
fn scenario(
    tiles_m: u32,
    tiles_n: u32,
    tile: u32,
    width: u32,
    conc: u32,
    part_seed: u64,
) -> (TileGrid, WaveSchedule, WavePartition) {
    let grid = TileGrid::new(tiles_m * tile, tiles_n * tile, TileShape::new(tile, tile));
    let order = Swizzle::Strip { width }.issue_order(&grid);
    let schedule = WaveSchedule::new(&order, conc);
    let mut rng = DetRng::new(part_seed);
    let mut sizes = Vec::new();
    let mut left = schedule.num_waves();
    while left > 0 {
        let take = rng.range_inclusive(1, left as u64) as u32;
        sizes.push(take);
        left -= take;
    }
    (grid, schedule, WavePartition::new(sizes))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Tile mapping: packed_index is a bijection and group regions
    /// partition the buffer contiguously.
    #[test]
    fn tile_mapping_invariants(tm in 1u32..10, tn in 1u32..10, width in 1u32..5,
                               conc in 1u32..20, seed in any::<u64>()) {
        let (grid, schedule, partition) = scenario(tm, tn, 16, width, conc, seed);
        let mapping = TileMapping::build(grid, &schedule, &partition);
        let mut seen = vec![false; mapping.total_elems];
        for r in 0..grid.m() {
            for c in 0..grid.n() {
                let i = mapping.packed_index(r, c);
                prop_assert!(!seen[i]);
                seen[i] = true;
            }
        }
        prop_assert!(seen.iter().all(|&s| s));
        let mut acc = 0usize;
        for &(start, count) in &mapping.group_regions {
            prop_assert_eq!(start, acc);
            acc += count;
        }
        prop_assert_eq!(acc, mapping.total_elems);
    }

    /// Subtile mapping: the send packing is a bijection, every group
    /// region splits evenly across ranks, and each element lands in the
    /// destination block matching its row residue.
    #[test]
    fn subtile_mapping_invariants(tm in 1u32..8, tn in 1u32..8, width in 1u32..4,
                                  conc in 1u32..16, seed in any::<u64>(),
                                  ranks in prop::sample::select(vec![2usize, 4, 8])) {
        let (grid, schedule, partition) = scenario(tm, tn, 16, width, conc, seed);
        prop_assume!((16 % ranks) == 0);
        let mapping = SubtileMapping::build(grid, &schedule, &partition, ranks).unwrap();
        let mut seen = vec![false; mapping.total_send_elems];
        for r in 0..grid.m() {
            for c in 0..grid.n() {
                let i = mapping.packed_send_index(r, c);
                prop_assert!(!seen[i]);
                seen[i] = true;
                // Destination block check.
                let g = mapping
                    .send_group_regions
                    .iter()
                    .position(|&(s, cnt)| i >= s && i < s + cnt)
                    .expect("inside some group");
                let (start, count) = mapping.send_group_regions[g];
                prop_assert_eq!(count % ranks, 0);
                let dest = (i - start) / (count / ranks);
                prop_assert_eq!(dest, r as usize % ranks);
            }
        }
        prop_assert!(seen.iter().all(|&s| s));
    }

    /// Token mapping: all tokens pack exactly once on the send side,
    /// plans conserve tokens, and the receive gather is a permutation of
    /// received rows sorted by (source, row).
    #[test]
    fn token_mapping_invariants(bands in 1u32..10, tn in 1u32..6, conc in 1u32..12,
                                seed in any::<u64>(),
                                ranks in prop::sample::select(vec![2usize, 3, 4])) {
        let grid = TileGrid::new(bands * 16, tn * 16, TileShape::new(16, 16));
        let order = Swizzle::Strip { width: 2 }.issue_order(&grid);
        let schedule = WaveSchedule::new(&order, conc);
        let mut rng = DetRng::new(seed);
        let mut sizes = Vec::new();
        let mut left = schedule.num_waves();
        while left > 0 {
            let take = rng.range_inclusive(1, left as u64) as u32;
            sizes.push(take);
            left -= take;
        }
        let partition = WavePartition::new(sizes);
        let m = grid.m() as usize;
        let routing: Vec<Vec<usize>> = (0..ranks)
            .map(|_| (0..m).map(|_| rng.next_below(ranks as u64) as usize).collect())
            .collect();
        let mapping = TokenMapping::build(grid, &schedule, &partition, &routing).unwrap();

        // Send side: every token offset distinct, row-sized strides.
        for src in 0..ranks {
            let mut offsets = mapping.token_offset[src].clone();
            offsets.sort_unstable();
            let expected: Vec<usize> = (0..m).map(|i| i * grid.n() as usize).collect();
            prop_assert_eq!(offsets, expected);
        }
        // Conservation: sent == routed == received.
        let total_recv: usize = mapping.recv_elems.iter().sum();
        prop_assert_eq!(total_recv, ranks * m * grid.n() as usize);
        // Receive gathers are sorted permutations.
        for dest in 0..ranks {
            let expected_rows = mapping.recv_elems[dest] / grid.n() as usize;
            prop_assert_eq!(mapping.recv_row_gather[dest].len(), expected_rows);
            let mut packed = mapping.recv_row_gather[dest].to_vec();
            packed.sort_unstable();
            prop_assert_eq!(packed, (0..expected_rows as u32).collect::<Vec<_>>());
            for pair in mapping.recv_expected[dest].windows(2) {
                prop_assert!(pair[0] < pair[1]);
            }
        }
    }

    /// AllGather mapping: the receive gather is a bijection onto the
    /// n-times-larger receive buffer for any rank count.
    #[test]
    fn all_gather_mapping_invariants(tm in 1u32..6, tn in 1u32..6, conc in 1u32..10,
                                     seed in any::<u64>(),
                                     ranks in prop::sample::select(vec![2usize, 3, 4, 8])) {
        let (grid, schedule, partition) = scenario(tm, tn, 16, 2, conc, seed);
        let mapping = TileMapping::build(grid, &schedule, &partition);
        let gather = mapping.all_gather_gather(ranks);
        prop_assert_eq!(gather.len(), mapping.total_elems * ranks);
        let mut seen = vec![false; mapping.all_gather_recv_elems(ranks)];
        for &i in &gather {
            prop_assert!(!seen[i as usize]);
            seen[i as usize] = true;
        }
        prop_assert!(seen.iter().all(|&s| s));
    }
}
