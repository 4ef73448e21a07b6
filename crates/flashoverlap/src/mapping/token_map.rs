//! Token-level reordering for All-to-All (§3.3.4).
//!
//! In expert parallelism each output row (token) has a fixed destination
//! GPU, so tiles cannot be reordered freely. Instead, each rank's packed
//! send buffer is organized as per-destination *memory pools*, segmented
//! by group: a token's full row is parked in pool `(group, dest)` where
//! `group` is the wave group in which the token's row band (all tiles
//! covering that row) finishes. When a group signals, one All-to-All(v)
//! moves every pool segment of that group to its destination.

use std::rc::Rc;

use collectives::A2aPlan;
use gpu_sim::tile::TileGrid;
use gpu_sim::wave::WaveSchedule;

use crate::error::FlashOverlapError;
use crate::mapping::GroupLayout;
use crate::partition::WavePartition;

/// The token-level mapping for an `n`-rank All-to-All after a GEMM.
#[derive(Debug, Clone)]
pub struct TokenMapping {
    /// Shared wave-group structure (drives the counting table exactly as
    /// for the other primitives).
    pub layout: GroupLayout,
    /// Rank count.
    pub n_ranks: usize,
    /// Group in which each row's band completes.
    pub group_of_row: Vec<u32>,
    /// `[rank][row]` element offset of the row's `N`-wide slot in that
    /// rank's packed send pool.
    pub token_offset: Vec<Vec<usize>>,
    /// Send pool size in elements (`== M * N`, every token exactly once).
    pub send_pool_elems: usize,
    /// One All-to-All(v) plan per group, shared with every launch's
    /// collective.
    pub group_plans: Vec<Rc<A2aPlan>>,
    /// Received elements per rank.
    pub recv_elems: Vec<usize>,
    /// `[rank][logical_row] -> packed received row index`; logical order
    /// is (source rank ascending, original row ascending) — the order the
    /// post-communication remap restores. Shared with the remap's row
    /// gather.
    pub recv_row_gather: Vec<Rc<Vec<u32>>>,
    /// `[rank][logical_row] -> (source rank, original row)` for
    /// verification.
    pub recv_expected: Vec<Vec<(usize, u32)>>,
    grid: TileGrid,
}

impl TokenMapping {
    /// Builds the mapping from per-rank token routing tables
    /// (`routing[rank][row] = destination rank`).
    ///
    /// # Errors
    ///
    /// Returns [`FlashOverlapError::BadInputs`] if the routing tables do
    /// not match the rank count / row count or name an invalid
    /// destination.
    pub fn build(
        grid: TileGrid,
        schedule: &WaveSchedule,
        partition: &WavePartition,
        routing: &[Vec<usize>],
    ) -> Result<Self, FlashOverlapError> {
        let n_ranks = routing.len();
        if n_ranks < 2 {
            return Err(FlashOverlapError::BadInputs {
                reason: "All-to-All needs at least 2 ranks".into(),
            });
        }
        let m = grid.m() as usize;
        let n_cols = grid.n() as usize;
        for (r, table) in routing.iter().enumerate() {
            if table.len() != m {
                return Err(FlashOverlapError::BadInputs {
                    reason: format!(
                        "routing table of rank {r} has {} entries, expected {m}",
                        table.len()
                    ),
                });
            }
            if let Some(&bad) = table.iter().find(|&&d| d >= n_ranks) {
                return Err(FlashOverlapError::BadInputs {
                    reason: format!("rank {r} routes to nonexistent rank {bad}"),
                });
            }
        }

        let mut layout = GroupLayout::new(schedule, partition);
        let num_groups = layout.num_groups();

        // A row's band completes when the slowest tile covering it
        // completes; waves execute in order, so that is the max wave over
        // the band's tiles.
        let tile_m = grid.tile().m;
        let wave_of_tile = schedule.wave_of_tile();
        let group_of_row: Vec<u32> = (0..grid.m())
            .map(|r| {
                let band = r / tile_m;
                let band_wave = (0..grid.tiles_n())
                    .map(|col| {
                        // Index proof: tile_at returns an in-grid tile,
                        // and the table covers every tile of the grid.
                        *wave_of_tile
                            .get(grid.tile_at(band, col) as usize)
                            .expect("tile_at returns an in-grid tile")
                    })
                    .max()
                    .expect("grid has at least one column");
                partition.group_of_wave(band_wave) as u32
            })
            .collect();

        // Pools: pools[src][g][d] = rows ascending.
        let mut pools: Vec<Vec<Vec<Vec<u32>>>> =
            vec![vec![vec![Vec::new(); n_ranks]; num_groups]; n_ranks];
        for (src, table) in routing.iter().enumerate() {
            for (row, &dest) in table.iter().enumerate() {
                // Index proofs: every table has exactly m entries
                // (validated above) and group_of_row has one entry per
                // row; src enumerates routing (< n_ranks), g comes from
                // group_of_wave (< num_groups), and dest was validated
                // < n_ranks above.
                let g = *group_of_row
                    .get(row)
                    .expect("tables have one entry per row") as usize;
                pools
                    .get_mut(src)
                    .expect("src enumerates the n_ranks tables")
                    .get_mut(g)
                    .expect("group ids are < num_groups")
                    .get_mut(dest)
                    .expect("destinations validated < n_ranks")
                    .push(row as u32);
            }
        }

        // Send pool layout per rank: (group asc, dest asc, rows asc), one
        // N-wide slot per token.
        let mut token_offset = vec![vec![0usize; m]; n_ranks];
        let mut send_off = vec![vec![vec![0usize; n_ranks]; n_ranks]; num_groups];
        for src in 0..n_ranks {
            let mut acc = 0usize;
            for g in 0..num_groups {
                for dest in 0..n_ranks {
                    // Index proofs: g / src / dest range over exactly the
                    // dimensions send_off and pools were allocated with,
                    // and pool rows were pushed from 0..m above.
                    *send_off
                        .get_mut(g)
                        .expect("g ranges over num_groups")
                        .get_mut(src)
                        .expect("src ranges over n_ranks")
                        .get_mut(dest)
                        .expect("dest ranges over n_ranks") = acc;
                    let pool = pools
                        .get(src)
                        .expect("src ranges over n_ranks")
                        .get(g)
                        .expect("g ranges over num_groups")
                        .get(dest)
                        .expect("dest ranges over n_ranks");
                    for &row in pool {
                        *token_offset
                            .get_mut(src)
                            .expect("src ranges over n_ranks")
                            .get_mut(row as usize)
                            .expect("pool rows are < m") = acc;
                        acc += n_cols;
                    }
                }
            }
            debug_assert_eq!(acc, m * n_cols, "every token packed exactly once");
        }

        // Receive layout per rank: (group asc, src asc, rows in segment
        // order); build plans, gathers, and expectations together.
        let mut recv_elems = vec![0usize; n_ranks];
        let mut recv_off = vec![vec![vec![0usize; n_ranks]; n_ranks]; num_groups];
        let mut received: Vec<Vec<(usize, u32)>> = vec![Vec::new(); n_ranks];
        for dest in 0..n_ranks {
            let mut acc = 0usize;
            for g in 0..num_groups {
                for src in 0..n_ranks {
                    // Index proofs: identical allocation dimensions as the
                    // send-side loop above.
                    *recv_off
                        .get_mut(g)
                        .expect("g ranges over num_groups")
                        .get_mut(dest)
                        .expect("dest ranges over n_ranks")
                        .get_mut(src)
                        .expect("src ranges over n_ranks") = acc;
                    let pool = pools
                        .get(src)
                        .expect("src ranges over n_ranks")
                        .get(g)
                        .expect("g ranges over num_groups")
                        .get(dest)
                        .expect("dest ranges over n_ranks");
                    for &row in pool {
                        received
                            .get_mut(dest)
                            .expect("dest ranges over n_ranks")
                            .push((src, row));
                        acc += n_cols;
                    }
                }
            }
            *recv_elems.get_mut(dest).expect("dest ranges over n_ranks") = acc;
        }

        let group_plans: Vec<Rc<A2aPlan>> = (0..num_groups)
            .map(|g| {
                let len: Vec<Vec<usize>> = (0..n_ranks)
                    .map(|src| {
                        (0..n_ranks)
                            .map(|dest| {
                                // Index proof: same allocation dimensions
                                // as every pools access above.
                                pools
                                    .get(src)
                                    .expect("src ranges over n_ranks")
                                    .get(g)
                                    .expect("g ranges over num_groups")
                                    .get(dest)
                                    .expect("dest ranges over n_ranks")
                                    .len()
                                    * n_cols
                            })
                            .collect()
                    })
                    .collect();
                Rc::new(A2aPlan {
                    send_off: send_off.get(g).expect("g ranges over num_groups").clone(),
                    len,
                    recv_off: recv_off.get(g).expect("g ranges over num_groups").clone(),
                })
            })
            .collect();

        // A group that completes no row band sends nothing and schedules
        // no wait, yet its tiles land in later groups' pools: without a
        // wait covering them, the next group could read a row whose
        // earlier tiles are still in flight.
        layout.fold_silent_groups(|g| {
            group_plans
                .get(g)
                .is_some_and(|p| p.len.iter().flatten().all(|&l| l == 0))
        });

        // Logical order on the receive side: (src asc, original row asc).
        let mut recv_row_gather = Vec::with_capacity(n_ranks);
        let mut recv_expected = Vec::with_capacity(n_ranks);
        for received_rows in &received {
            let mut indexed: Vec<(usize, (usize, u32))> =
                received_rows.iter().copied().enumerate().collect();
            indexed.sort_by_key(|&(_, key)| key);
            recv_row_gather.push(Rc::new(
                indexed
                    .iter()
                    .map(|&(packed_row, _)| packed_row as u32)
                    .collect(),
            ));
            recv_expected.push(indexed.into_iter().map(|(_, key)| key).collect());
        }

        Ok(TokenMapping {
            layout,
            n_ranks,
            group_of_row,
            token_offset,
            send_pool_elems: m * n_cols,
            group_plans,
            recv_elems,
            recv_row_gather,
            recv_expected,
            grid,
        })
    }

    /// The tile grid the mapping is built for.
    pub fn grid(&self) -> &TileGrid {
        &self.grid
    }

    /// Bytes each rank sends in group `g` (for cost inspection).
    ///
    /// # Panics
    ///
    /// Panics if `g` or `src` is out of range.
    pub fn group_send_elems(&self, g: usize, src: usize) -> usize {
        self.group_plans
            .get(g)
            .expect("group out of range")
            .len
            .get(src)
            .expect("rank out of range")
            .iter()
            .sum()
    }
}

#[cfg(test)]
#[allow(clippy::indexing_slicing)]
mod tests {
    use super::*;
    use gpu_sim::swizzle::Swizzle;
    use gpu_sim::tile::TileShape;
    use sim::DetRng;

    fn build(
        m: u32,
        n_cols: u32,
        ranks: usize,
        conc: u32,
        sizes: Vec<u32>,
        seed: u64,
    ) -> TokenMapping {
        let grid = TileGrid::new(m, n_cols, TileShape::new(16, 16));
        let order = Swizzle::Strip { width: 2 }.issue_order(&grid);
        let schedule = WaveSchedule::new(&order, conc);
        let partition = if sizes.is_empty() {
            WavePartition::single(schedule.num_waves())
        } else {
            WavePartition::new(sizes)
        };
        let mut rng = DetRng::new(seed);
        let routing: Vec<Vec<usize>> = (0..ranks)
            .map(|_| {
                (0..m)
                    .map(|_| rng.next_below(ranks as u64) as usize)
                    .collect()
            })
            .collect();
        TokenMapping::build(grid, &schedule, &partition, &routing).unwrap()
    }

    #[test]
    fn every_token_packed_exactly_once() {
        let tm = build(48, 32, 4, 3, vec![], 1);
        for src in 0..4 {
            let mut offsets: Vec<usize> = tm.token_offset[src].clone();
            offsets.sort_unstable();
            let expected: Vec<usize> = (0..48).map(|i| i * 32).collect();
            assert_eq!(offsets, expected, "rank {src}");
        }
        assert_eq!(tm.send_pool_elems, 48 * 32);
    }

    #[test]
    fn plans_conserve_tokens() {
        let tm = build(64, 16, 2, 1, vec![2, 2], 7);
        // Total sent over all groups == M rows per rank.
        for src in 0..2 {
            let total: usize = (0..tm.group_plans.len())
                .map(|g| tm.group_send_elems(g, src))
                .sum();
            assert_eq!(total, 64 * 16);
        }
        // Received totals match recv_elems.
        for dest in 0..2 {
            let total: usize = tm
                .group_plans
                .iter()
                .map(|p| (0..2).map(|s| p.len[s][dest]).sum::<usize>())
                .sum();
            assert_eq!(total, tm.recv_elems[dest]);
        }
    }

    #[test]
    fn recv_gather_is_sorted_by_source_then_row() {
        let tm = build(48, 16, 3, 2, vec![1, 1], 3);
        for dest in 0..3 {
            let exp = &tm.recv_expected[dest];
            for pair in exp.windows(2) {
                assert!(pair[0] < pair[1], "logical order must be sorted");
            }
            assert_eq!(tm.recv_row_gather[dest].len(), exp.len());
        }
    }

    #[test]
    fn group_of_row_uses_band_max_wave() {
        let grid = TileGrid::new(32, 64, TileShape::new(16, 16));
        let order = Swizzle::Strip { width: 2 }.issue_order(&grid);
        // 2 tiles per wave: band 0's four tiles are in waves 0, 1 (cols
        // 0-1 in wave 0, cols 2-3 via later strip).
        let schedule = WaveSchedule::new(&order, 2);
        let partition = WavePartition::per_wave(schedule.num_waves());
        let routing = vec![vec![0usize; 32], vec![0usize; 32]];
        let tm = TokenMapping::build(grid, &schedule, &partition, &routing).unwrap();
        let wave_of = schedule.wave_of_tile();
        for row in 0..32u32 {
            let band = row / 16;
            let max_wave = (0..4)
                .map(|col| wave_of[grid.tile_at(band, col) as usize])
                .max()
                .unwrap();
            assert_eq!(tm.group_of_row[row as usize], max_wave);
        }
    }

    #[test]
    fn pool_segments_are_contiguous_in_send_pool() {
        let tm = build(64, 16, 2, 1, vec![2, 2], 11);
        for g in 0..tm.group_plans.len() {
            let plan = &tm.group_plans[g];
            for src in 0..2 {
                for dest in 0..2 {
                    let len = plan.len[src][dest];
                    if len == 0 {
                        continue;
                    }
                    let start = plan.send_off[src][dest];
                    // All token offsets of the segment lie in
                    // [start, start + len).
                    let rows: Vec<usize> = (0..64)
                        .filter(|&r| {
                            tm.group_of_row[r] as usize == g
                                && tm.token_offset[src][r] >= start
                                && tm.token_offset[src][r] < start + len
                        })
                        .collect();
                    assert_eq!(rows.len() * 16, len, "segment ({g},{src},{dest})");
                }
            }
        }
    }

    #[test]
    fn bad_routing_is_rejected() {
        let grid = TileGrid::new(16, 16, TileShape::new(16, 16));
        let order = Swizzle::Identity.issue_order(&grid);
        let schedule = WaveSchedule::new(&order, 4);
        let partition = WavePartition::single(1);
        // Wrong length.
        let err = TokenMapping::build(grid, &schedule, &partition, &[vec![0; 8], vec![0; 16]])
            .unwrap_err();
        assert!(matches!(err, FlashOverlapError::BadInputs { .. }));
        // Destination out of range.
        let err = TokenMapping::build(grid, &schedule, &partition, &[vec![0; 16], vec![5; 16]])
            .unwrap_err();
        assert!(matches!(err, FlashOverlapError::BadInputs { .. }));
    }

    #[test]
    fn imbalanced_routing_skews_pools() {
        // All tokens of rank 0 go to rank 1: pools reflect the imbalance.
        let grid = TileGrid::new(32, 16, TileShape::new(16, 16));
        let order = Swizzle::Identity.issue_order(&grid);
        let schedule = WaveSchedule::new(&order, 2);
        let partition = WavePartition::single(schedule.num_waves());
        let routing = vec![vec![1usize; 32], vec![1usize; 32]];
        let tm = TokenMapping::build(grid, &schedule, &partition, &routing).unwrap();
        assert_eq!(tm.recv_elems[0], 0);
        assert_eq!(tm.recv_elems[1], 2 * 32 * 16);
    }
}
