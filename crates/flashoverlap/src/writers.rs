//! Pre-communication reordering fused into the GEMM epilogue (§3.3.5).
//!
//! Each writer implements [`gpu_sim::gemm::EpilogueWriter`]: when a tile's
//! main loop finishes, its output block is written directly to the packed
//! (reordered) position instead of the matrix position — no extra kernel,
//! no main-loop change, and (since the mapping table is tiny) essentially
//! no extra memory traffic.

use std::ops::Range;
use std::rc::Rc;

use gpu_sim::gemm::{EpilogueWriter, FootprintSink};
use gpu_sim::tile::TileGrid;
use tensor::Matrix;

use crate::mapping::tile_map::slot_offsets;
use crate::mapping::{SubtileMapping, TileMapping, TokenMapping};

/// Packs whole tiles in wave order (AllReduce reordering).
#[derive(Debug, Clone)]
pub struct PackedTileWriter {
    /// The tile mapping (shared with the runtime).
    pub mapping: Rc<TileMapping>,
}

impl EpilogueWriter for PackedTileWriter {
    fn write_tile(&self, grid: &TileGrid, t: u32, block: &Matrix, out: &mut [f32]) {
        debug_assert_eq!(grid.num_tiles(), self.mapping.grid().num_tiles());
        let base = self.mapping.tile_base(t);
        let width = block.cols();
        for r in 0..block.rows() {
            let dst = base + r * width;
            out[dst..dst + width].copy_from_slice(block.row(r));
        }
    }

    fn out_len(&self, _grid: &TileGrid) -> usize {
        self.mapping.total_elems
    }

    fn write_spans(&self, grid: &TileGrid, t: u32, spans: &mut Vec<Range<usize>>) {
        // Whole tiles pack contiguously at their reordered base.
        let base = self.mapping.tile_base(t);
        let rows = grid.rows_of(t);
        let cols = grid.cols_of(t);
        let elems = (rows.end - rows.start) as usize * (cols.end - cols.start) as usize;
        spans.push(base..base + elems);
    }

    fn footprints(&self, grid: &TileGrid, tiles: &[u32], sink: &mut dyn FootprintSink) {
        // A tile fills its packed slot: from its offset to the next
        // slot's. The static verifier passes the whole packed order and
        // gets transient offsets, so a timed plan never keeps the slot
        // tables.
        let m = &*self.mapping;
        debug_assert_eq!(grid, m.grid());
        if tiles == m.layout.reorder_order.as_slice() {
            // The whole packed order: slot `i` is `tiles[i]`'s.
            let offsets = slot_offsets(grid, &m.layout);
            sink.slots(tiles, &offsets, m.total_elems);
            return;
        }
        let slots = m.slots();
        for &t in tiles {
            let slot = slots.slot_of_tile[t as usize] as usize;
            let end = slots
                .slot_offset
                .get(slot + 1)
                .copied()
                .unwrap_or(m.total_elems);
            sink.span(slots.slot_offset[slot]..end);
            sink.end_tile(t);
        }
    }
}

/// Packs row-interleaved subtiles per destination rank (ReduceScatter
/// reordering).
#[derive(Debug, Clone)]
pub struct SubtilePackedWriter {
    /// The subtile mapping (shared with the runtime).
    pub mapping: Rc<SubtileMapping>,
}

impl EpilogueWriter for SubtilePackedWriter {
    fn write_tile(&self, grid: &TileGrid, t: u32, block: &Matrix, out: &mut [f32]) {
        let rows = grid.rows_of(t);
        let width = block.cols();
        let n = self.mapping.n_ranks;
        for (br, r) in rows.enumerate() {
            let dest = r as usize % n;
            let row_in_subtile = br / n;
            // Global and local row parities agree because the rank count
            // divides the tile height (validated at build time), so every
            // tile starts on a rank-0 row.
            debug_assert_eq!(br % n, dest);
            let dst = self.mapping.subtile_send_offset[t as usize][dest] + row_in_subtile * width;
            out[dst..dst + width].copy_from_slice(block.row(br));
        }
    }

    fn out_len(&self, _grid: &TileGrid) -> usize {
        self.mapping.total_send_elems
    }

    fn write_spans(&self, grid: &TileGrid, t: u32, spans: &mut Vec<Range<usize>>) {
        // Each destination's rows land back to back in its subtile slot,
        // so the tile writes one contiguous span per destination.
        let subtile = grid.tile_elems(t) as usize / self.mapping.n_ranks;
        spans.extend(
            self.mapping.subtile_send_offset[t as usize]
                .iter()
                .map(|&dst| dst..dst + subtile),
        );
    }
}

/// Scatters each tile's row segments into the per-destination token pools
/// (All-to-All reordering). One writer per rank, since routing differs.
#[derive(Debug, Clone)]
pub struct TokenPoolWriter {
    /// The token mapping (shared with the runtime).
    pub mapping: Rc<TokenMapping>,
    /// The rank whose pools this writer fills.
    pub rank: usize,
}

impl EpilogueWriter for TokenPoolWriter {
    fn write_tile(&self, grid: &TileGrid, t: u32, block: &Matrix, out: &mut [f32]) {
        let rows = grid.rows_of(t);
        let cols = grid.cols_of(t);
        let width = block.cols();
        let offsets = &self.mapping.token_offset[self.rank];
        for (br, r) in rows.enumerate() {
            let dst = offsets[r as usize] + cols.start as usize;
            out[dst..dst + width].copy_from_slice(block.row(br));
        }
    }

    fn out_len(&self, _grid: &TileGrid) -> usize {
        self.mapping.send_pool_elems
    }

    fn write_spans(&self, grid: &TileGrid, t: u32, spans: &mut Vec<Range<usize>>) {
        let rows = grid.rows_of(t);
        let cols = grid.cols_of(t);
        let width = (cols.end - cols.start) as usize;
        let offsets = &self.mapping.token_offset[self.rank];
        spans.extend(rows.map(|r| {
            let dst = offsets[r as usize] + cols.start as usize;
            dst..dst + width
        }));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::WavePartition;
    use gpu_sim::swizzle::Swizzle;
    use gpu_sim::tile::TileShape;
    use gpu_sim::wave::WaveSchedule;
    use sim::DetRng;

    fn grid_and_schedule(m: u32, n: u32) -> (TileGrid, WaveSchedule) {
        let grid = TileGrid::new(m, n, TileShape::new(16, 16));
        let order = Swizzle::Strip { width: 2 }.issue_order(&grid);
        let schedule = WaveSchedule::new(&order, 3);
        (grid, schedule)
    }

    fn write_all(writer: &dyn EpilogueWriter, grid: &TileGrid, src: &Matrix) -> Vec<f32> {
        let mut out = vec![f32::NAN; writer.out_len(grid)];
        for t in 0..grid.num_tiles() {
            let rows = grid.rows_of(t);
            let cols = grid.cols_of(t);
            let block = src.submatrix(
                rows.start as usize,
                cols.start as usize,
                (rows.end - rows.start) as usize,
                (cols.end - cols.start) as usize,
            );
            writer.write_tile(grid, t, &block, &mut out);
        }
        out
    }

    #[test]
    fn packed_tile_writer_agrees_with_packed_index() {
        let (grid, schedule) = grid_and_schedule(48, 64);
        let partition = WavePartition::single(schedule.num_waves());
        let mapping = Rc::new(TileMapping::build(grid, &schedule, &partition));
        let mut rng = DetRng::new(1);
        let src = Matrix::random(48, 64, &mut rng);
        let out = write_all(
            &PackedTileWriter {
                mapping: mapping.clone(),
            },
            &grid,
            &src,
        );
        for r in 0..48u32 {
            for c in 0..64u32 {
                assert_eq!(
                    out[mapping.packed_index(r, c)],
                    src[(r as usize, c as usize)],
                    "({r},{c})"
                );
            }
        }
        assert!(
            out.iter().all(|x| !x.is_nan()),
            "packed buffer fully written"
        );
    }

    #[test]
    fn subtile_writer_agrees_with_send_index() {
        let (grid, schedule) = grid_and_schedule(64, 32);
        let partition = WavePartition::new(vec![1; schedule.num_waves() as usize]);
        let mapping = Rc::new(SubtileMapping::build(grid, &schedule, &partition, 4).unwrap());
        let mut rng = DetRng::new(2);
        let src = Matrix::random(64, 32, &mut rng);
        let out = write_all(
            &SubtilePackedWriter {
                mapping: mapping.clone(),
            },
            &grid,
            &src,
        );
        for r in 0..64u32 {
            for c in 0..32u32 {
                assert_eq!(
                    out[mapping.packed_send_index(r, c)],
                    src[(r as usize, c as usize)],
                    "({r},{c})"
                );
            }
        }
        assert!(out.iter().all(|x| !x.is_nan()));
    }

    #[test]
    fn write_spans_cover_exactly_the_written_elements() {
        // For every writer kind and every tile, the monitor-facing spans
        // must name exactly the elements write_tile touches.
        let (grid, schedule) = grid_and_schedule(64, 32);
        let tile_partition = WavePartition::single(schedule.num_waves());
        let sub_partition = WavePartition::new(vec![1; schedule.num_waves() as usize]);
        let mut rng = DetRng::new(4);
        let routing: Vec<Vec<usize>> = (0..2)
            .map(|_| (0..64).map(|_| rng.next_below(2) as usize).collect())
            .collect();
        let writers: Vec<Box<dyn EpilogueWriter>> = vec![
            Box::new(PackedTileWriter {
                mapping: Rc::new(TileMapping::build(grid, &schedule, &tile_partition)),
            }),
            Box::new(SubtilePackedWriter {
                mapping: Rc::new(
                    SubtileMapping::build(grid, &schedule, &sub_partition, 4).unwrap(),
                ),
            }),
            Box::new(TokenPoolWriter {
                mapping: Rc::new(
                    TokenMapping::build(grid, &schedule, &tile_partition, &routing).unwrap(),
                ),
                rank: 0,
            }),
        ];
        let src = Matrix::random(64, 32, &mut rng);
        for writer in &writers {
            for t in 0..grid.num_tiles() {
                let rows = grid.rows_of(t);
                let cols = grid.cols_of(t);
                let block = src.submatrix(
                    rows.start as usize,
                    cols.start as usize,
                    (rows.end - rows.start) as usize,
                    (cols.end - cols.start) as usize,
                );
                let mut out = vec![f32::NAN; writer.out_len(&grid)];
                writer.write_tile(&grid, t, &block, &mut out);
                let written: Vec<usize> = out
                    .iter()
                    .enumerate()
                    .filter(|(_, x)| !x.is_nan())
                    .map(|(i, _)| i)
                    .collect();
                // An empty span already in the buffer: write_spans must
                // append after it, not clear it.
                let earlier = 0..0;
                let mut spans = vec![earlier.clone()];
                writer.write_spans(&grid, t, &mut spans);
                assert_eq!(spans.first(), Some(&earlier), "spans append, never clear");
                let mut spanned: Vec<usize> = spans.into_iter().flatten().collect();
                spanned.sort_unstable();
                assert_eq!(written, spanned, "tile {t}");
            }
        }
    }

    /// Every span a sink receives, and after each tile the tile and the
    /// span count so far.
    #[derive(Debug, Default, PartialEq)]
    struct Collected {
        spans: Vec<Range<usize>>,
        ends: Vec<(u32, usize)>,
    }

    impl FootprintSink for Collected {
        fn span(&mut self, span: Range<usize>) {
            self.spans.push(span);
        }

        fn end_tile(&mut self, tile: u32) {
            self.ends.push((tile, self.spans.len()));
        }
    }

    #[test]
    fn batch_footprints_equal_per_tile_write_spans() {
        // Every writer kind, on a ragged grid, for tile lists in packed,
        // address and shuffled order: the one-call footprints hand the
        // sink the spans and tile ends a write_spans loop would.
        for (m, n, seed) in [(64, 32, 5), (40, 72, 6), (48, 80, 7)] {
            let (grid, schedule) = grid_and_schedule(m, n);
            let mut rng = DetRng::new(seed);
            let partition = WavePartition::new(vec![1; schedule.num_waves() as usize]);
            let routing: Vec<Vec<usize>> = (0..2)
                .map(|_| (0..m).map(|_| rng.next_below(2) as usize).collect())
                .collect();
            let tiles = Rc::new(TileMapping::build(grid, &schedule, &partition));
            let mut writers: Vec<Box<dyn EpilogueWriter>> = vec![
                Box::new(gpu_sim::gemm::AddressOrderWriter),
                Box::new(PackedTileWriter {
                    mapping: tiles.clone(),
                }),
                Box::new(TokenPoolWriter {
                    mapping: Rc::new(
                        TokenMapping::build(grid, &schedule, &partition, &routing).unwrap(),
                    ),
                    rank: 1,
                }),
            ];
            if m % 16 == 0 {
                writers.push(Box::new(SubtilePackedWriter {
                    mapping: Rc::new(
                        SubtileMapping::build(grid, &schedule, &partition, 4).unwrap(),
                    ),
                }));
            }
            let mut shuffled: Vec<u32> = (0..grid.num_tiles()).collect();
            rng.shuffle(&mut shuffled);
            let orders = [
                tiles.layout.reorder_order.clone(),
                (0..grid.num_tiles()).collect(),
                shuffled,
                Vec::new(),
            ];
            for writer in &writers {
                for order in &orders {
                    let mut footprints = Collected::default();
                    writer.footprints(&grid, order, &mut footprints);
                    let mut expected = Collected::default();
                    for &t in order {
                        writer.write_spans(&grid, t, &mut expected.spans);
                        expected.ends.push((t, expected.spans.len()));
                    }
                    assert_eq!(footprints, expected, "{m}x{n}");
                }
            }
        }
    }

    #[test]
    fn token_writer_fills_each_row_slot() {
        let (grid, schedule) = grid_and_schedule(32, 48);
        let partition = WavePartition::single(schedule.num_waves());
        let mut rng = DetRng::new(3);
        let routing: Vec<Vec<usize>> = (0..2)
            .map(|_| (0..32).map(|_| rng.next_below(2) as usize).collect())
            .collect();
        let mapping = Rc::new(TokenMapping::build(grid, &schedule, &partition, &routing).unwrap());
        let src = Matrix::random(32, 48, &mut rng);
        let out = write_all(
            &TokenPoolWriter {
                mapping: mapping.clone(),
                rank: 1,
            },
            &grid,
            &src,
        );
        for row in 0..32usize {
            let base = mapping.token_offset[1][row];
            for c in 0..48usize {
                assert_eq!(out[base + c], src[(row, c)], "row {row} col {c}");
            }
        }
        assert!(out.iter().all(|x| !x.is_nan()));
    }
}
