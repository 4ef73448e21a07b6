//! Differential test of the plan-cache miss path against a naive build.
//!
//! A miss tunes, builds and verifies a plan in one allocation-light
//! pass: candidates scored as they are enumerated over an on-demand
//! latency curve, waves as slices of the shared issue order, one
//! packing pass sized from the grid's edge extents, group runs read off
//! the layout, and a verifier model whose symmetric ranks share one
//! contract range. The reference below builds
//! every one of those artifacts the straightforward way — the full
//! candidate list scored over an eagerly sampled curve, copied and
//! sorted waves, per-tile sizes, a tile-by-tile run scan, per-rank
//! contracts — and the two must agree on random shapes (partial edge
//! tiles and 16-token padding included), for AllReduce, ReduceScatter
//! and AllGather on one-node and two-node systems.

use std::ops::Range;

use gpu_sim::gemm::{group_runs, FootprintSink, GemmConfig, GemmDims, GroupRun};
use gpu_sim::tile::TileGrid;
use planverify::{Interval, Mutation, ScheduleModel, Segment, VerifyReport, Writer};
use proptest::prelude::*;
use sim::{DetRng, SimDuration};

use crate::partition::candidate_partitions;
use crate::predictor::{tabled_walk, OfflineProfile};
use crate::runtime::{CommPattern, OverlapPlan};
use crate::system::SystemSpec;
use crate::tuner::{tune_plan, DEFAULT_S1, DEFAULT_SP};
use crate::verify::model_of_chain;
use crate::WavePartition;

/// Everything a miss produces, built naively.
#[derive(Debug, PartialEq)]
struct Reference {
    partition: WavePartition,
    evaluated: usize,
    issue: Vec<u32>,
    runs: Vec<GroupRun>,
    counts: Vec<u32>,
    /// Per group: the wait threshold and the send region, identical on
    /// every rank for these patterns.
    waits: Vec<Option<u32>>,
    regions: Vec<(usize, usize)>,
    /// Per tile in packed order: the tile, its group and its spans.
    footprints: Vec<(u32, usize, Vec<Range<usize>>)>,
    completions: Vec<SimDuration>,
}

fn reference(dims: GemmDims, pattern: &CommPattern, system: &SystemSpec) -> Reference {
    // Search: every candidate, listed first, then scored.
    let profile = OfflineProfile::build(dims, pattern.primitive(), system);
    let candidates = candidate_partitions(profile.total_waves, DEFAULT_S1, DEFAULT_SP);
    let mut best: Option<(SimDuration, &WavePartition)> = None;
    for candidate in &candidates {
        let (time, completions) = tabled_walk(&profile, candidate.sizes());
        let comm = completions.last().copied().unwrap_or(0.0);
        let predicted = SimDuration::from_nanos(comm.max(time) as u64);
        if best.is_none_or(|(b, _)| predicted < b) {
            best = Some((predicted, candidate));
        }
    }
    let partition = best.expect("at least one candidate").1.clone();
    let completions = tabled_walk(&profile, partition.sizes())
        .1
        .into_iter()
        .map(|ns| SimDuration::from_nanos(ns as u64))
        .collect();

    // Build: copied waves, each sorted into the packed order.
    let config = GemmConfig::choose(dims, &system.arch);
    let grid = config.grid(dims);
    let issue = config.swizzle.issue_order(&grid);
    let waves: Vec<Vec<u32>> = issue
        .chunks(system.compute_sms() as usize)
        .map(<[u32]>::to_vec)
        .collect();
    assert_eq!(waves.len() as u32, partition.total_waves());
    let mut group_of_tile = vec![0u32; grid.num_tiles() as usize];
    let mut packed = Vec::new();
    let mut counts = vec![0u32; partition.num_groups()];
    for (w, wave) in waves.iter().enumerate() {
        let g = partition.group_of_wave(w as u32);
        let mut tiles = wave.clone();
        tiles.sort_unstable();
        for &t in &tiles {
            group_of_tile[t as usize] = g as u32;
            counts[g] += 1;
            packed.push((t, g));
        }
    }
    let runs = group_runs(&issue, &group_of_tile).to_vec();

    // Mapping: per-tile sizes by division, then group regions.
    let n = system.n_gpus;
    let subtiles = matches!(pattern, CommPattern::ReduceScatter);
    let mut footprints = Vec::new();
    let mut regions = Vec::new();
    let mut offset = 0usize;
    let mut start = 0usize;
    for (g, &count) in counts.iter().enumerate() {
        let tiles = &packed[start..start + count as usize];
        start += count as usize;
        let elems = |t: u32| grid.tile_elems(t) as usize;
        let block: usize = tiles.iter().map(|&(t, _)| elems(t)).sum();
        regions.push((offset, block));
        let mut within = 0usize;
        for &(t, _) in tiles {
            let spans = if subtiles {
                // Row-interleaved subtiles: one block per destination.
                let sub = elems(t) / n;
                let spans = (0..n)
                    .map(|dest| {
                        let s = offset + dest * (block / n) + within;
                        s..s + sub
                    })
                    .collect();
                within += sub;
                spans
            } else {
                let s = offset + within;
                within += elems(t);
                std::iter::once(s..s + elems(t)).collect()
            };
            footprints.push((t, g, spans));
        }
        offset += block;
    }
    Reference {
        partition,
        evaluated: candidates.len(),
        issue,
        runs,
        waits: counts.iter().map(|&c| Some(c)).collect(),
        counts,
        regions,
        footprints,
        completions,
    }
}

/// A writer's footprints, tile by tile.
#[derive(Default)]
struct Collected {
    tiles: Vec<(u32, Vec<Range<usize>>)>,
    open: Vec<Range<usize>>,
}

impl FootprintSink for Collected {
    fn span(&mut self, span: Range<usize>) {
        self.open.push(span);
    }

    fn end_tile(&mut self, tile: u32) {
        self.tiles.push((tile, std::mem::take(&mut self.open)));
    }
}

/// What the miss path built, in the reference's terms, for `rank`.
fn observed(plan: &OverlapPlan, evaluated: usize, rank: usize) -> Reference {
    let layout = plan.layout();
    let grid: TileGrid = plan.config.grid(plan.dims);
    let mut collected = Collected::default();
    plan.writer_for(rank)
        .footprints(&grid, &layout.reorder_order, &mut collected);
    let counts = plan.group_tile_counts().to_vec();
    Reference {
        partition: plan.partition.clone(),
        evaluated,
        issue: plan.issue_order().to_vec(),
        runs: plan.group_runs().to_vec(),
        waits: plan.wait_thresholds(),
        regions: (0..counts.len())
            .map(|g| plan.group_send_region(g, rank).expect("every group sends"))
            .collect(),
        counts,
        footprints: collected
            .tiles
            .into_iter()
            .map(|(t, spans)| (t, layout.group_of_tile[t as usize] as usize, spans))
            .collect(),
        completions: plan.predicted_group_completions().to_vec(),
    }
}

/// The reference's verifier model: every rank with its own copy of the
/// contracts, and the writer from the reference footprints.
fn reference_model(r: &Reference, plan: &OverlapPlan) -> ScheduleModel {
    let mut segment = Segment::new("plan", 0, false);
    let mut writer = Writer::default();
    for (tile, group, spans) in &r.footprints {
        writer.push_tile(
            *tile,
            *group,
            spans
                .iter()
                .map(|s| Interval::new(s.start, s.end - s.start)),
        );
    }
    segment.writers.push(writer);
    for rank in 0..plan.system.n_gpus {
        let start = segment.groups.len();
        for (g, (&count, &(offset, len))) in r.counts.iter().zip(&r.regions).enumerate() {
            segment.push_group(g, Some(count), count, [Interval::new(offset, len)]);
        }
        segment.push_rank(rank, 0, start..segment.groups.len());
    }
    let node_of = if plan.system.topology.spans_nodes() {
        plan.system.topology.node_map()
    } else {
        Vec::new()
    };
    ScheduleModel {
        n_ranks: plan.system.n_gpus,
        node_of,
        segments: vec![segment],
    }
}

fn assert_reports_equal(a: &VerifyReport, b: &VerifyReport, what: &str) {
    assert_eq!(a.violations, b.violations, "{what}");
    assert_eq!(a.stats, b.stats, "{what}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn a_miss_matches_the_naive_build(
        seed in any::<u64>(),
        padded in any::<bool>(),
        m in 1u32..3000,
        n in 1u32..5000,
        k in 1u32..12000,
        pattern in prop::sample::select(vec![0usize, 1, 2]),
        system in prop::sample::select(vec![0usize, 1, 2, 3]),
    ) {
        let system = match system {
            0 => SystemSpec::rtx4090(4),
            1 => SystemSpec::rtx4090(4).with_nodes(2),
            2 => SystemSpec::a800(8),
            _ => SystemSpec::a800(8).with_nodes(2),
        };
        let pattern = [CommPattern::AllReduce, CommPattern::ReduceScatter, CommPattern::AllGather]
            [pattern]
            .clone();
        // Serving pads tokens to 16; ReduceScatter needs every tile's
        // rows to split across the ranks, which 16-row padding gives.
        let m = if padded || matches!(pattern, CommPattern::ReduceScatter) {
            m.div_ceil(16) * 16
        } else {
            m
        };
        let dims = GemmDims::new(m, n, k);
        let expected = reference(dims, &pattern, &system);
        let (plan, evaluated) = tune_plan(dims, pattern.clone(), system.clone()).unwrap();
        for rank in 0..system.n_gpus {
            prop_assert_eq!(&observed(&plan, evaluated, rank), &expected, "rank {}", rank);
        }

        // The full verify report, clean and under one random mutation,
        // against the reference's per-rank model.
        let mut model = model_of_chain(&[&plan]);
        let mut naive = reference_model(&expected, &plan);
        assert_reports_equal(&plan.verify(), &planverify::verify(&naive), "clean");
        prop_assert!(plan.check_static().is_ok());
        let mut rng = DetRng::new(seed);
        let rank = rng.next_below(system.n_gpus as u64) as usize;
        let group = rng.next_below(expected.counts.len() as u64) as usize;
        let mutation = match rng.next_below(3) {
            0 => Mutation::DropWait { rank, group },
            1 => Mutation::RaiseThreshold { rank, group },
            _ => Mutation::DropIncrements { rank, group, count: 1 },
        };
        model.apply(&mutation, 0).unwrap();
        naive.apply(&mutation, 0).unwrap();
        let mutated = planverify::verify(&model);
        prop_assert!(!mutated.is_clean(), "{:?} went unflagged", mutation);
        assert_reports_equal(&mutated, &planverify::verify(&naive), "mutated");
    }
}
