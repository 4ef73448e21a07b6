//! Differential test of the region checker against a per-tile oracle.
//!
//! [`planverify::verify`] proves race freedom and coverage over each
//! writer's merged same-group runs and names tiles only on the failing
//! path. The oracle below is the straightforward per-tile checker: for
//! every read it scans every tile of the rank's writer. Both must return
//! the same violations in the same order and the same stats, on random
//! models (cross-group, overlapping and empty intervals, coverage holes,
//! multi-segment stale and rearm chains, reports past
//! [`VIOLATION_CAP`]), on models whose writers are all in address order
//! (the checker's one-pass path, naming tiles lazily on failing reads),
//! and on registry-mutated ones. Some random segments let every rank
//! share one contract range, as symmetric plans lower.

use std::collections::HashMap;

use planverify::check::VIOLATION_CAP;
use planverify::{
    verify, Interval, Mutation, RankModel, ScheduleModel, Segment, VerifyReport, VerifyStats,
    Violation, Writer,
};
use proptest::prelude::*;

// ---------------------------------------------------------------------------
// The per-tile oracle.
// ---------------------------------------------------------------------------

fn oracle(model: &ScheduleModel) -> VerifyReport {
    let mut violations = Vec::new();
    let mut stats = VerifyStats {
        segments: model.segments.len(),
        ..VerifyStats::default()
    };
    let mut residual: HashMap<(usize, usize), Vec<u32>> = HashMap::new();
    if !model.node_of.is_empty() {
        let nodes = model.node_of.iter().max().map_or(0, |m| m + 1);
        for (si, seg) in model.segments.iter().enumerate() {
            let mut present = vec![false; nodes];
            for rm in &seg.ranks {
                if let Some(&node) = model.node_of.get(rm.rank) {
                    present[node] = true;
                }
            }
            stats.node_checks += nodes;
            for (node, covered) in present.iter().enumerate() {
                if !covered {
                    violations.push(Violation::MissingNodeLeader {
                        segment: si,
                        node,
                        nodes,
                    });
                }
            }
        }
    }
    let empty = Writer::default();
    for (si, seg) in model.segments.iter().enumerate() {
        for rm in &seg.ranks {
            let slot = residual.entry((seg.table, rm.rank)).or_default();
            if seg.rearmed {
                slot.clear();
            }
            let writer = seg.writers.get(rm.writer).unwrap_or(&empty);
            oracle_rank(si, seg, rm, writer, slot, &mut violations, &mut stats);
            for gm in seg.groups_of(rm) {
                if slot.len() <= gm.group {
                    slot.resize(gm.group + 1, 0);
                }
                slot[gm.group] += gm.increments;
            }
        }
    }
    if violations.len() > VIOLATION_CAP {
        violations.truncate(VIOLATION_CAP);
        stats.truncated = true;
    }
    VerifyReport { violations, stats }
}

fn oracle_rank(
    si: usize,
    seg: &Segment,
    rm: &RankModel,
    writer: &Writer,
    stale_counts: &[u32],
    violations: &mut Vec<Violation>,
    stats: &mut VerifyStats,
) {
    stats.tiles += writer.tiles.len();
    let mut guaranteed: Vec<bool> = Vec::new();
    let mut blocked = false;
    for gm in seg.groups_of(rm) {
        let reads = seg.reads_of(gm);
        let stale = stale_counts.get(gm.group).copied().unwrap_or(0);
        let mut wait_flagged = false;
        if let Some(threshold) = gm.wait {
            stats.waits += 1;
            if threshold > stale + gm.increments {
                violations.push(Violation::UnreachableThreshold {
                    segment: si,
                    rank: rm.rank,
                    table: seg.table,
                    group: gm.group,
                    threshold,
                    available: stale + gm.increments,
                });
                blocked = true;
            } else if stale > 0 && !reads.is_empty() {
                violations.push(Violation::StaleRearm {
                    segment: si,
                    rank: rm.rank,
                    table: seg.table,
                    group: gm.group,
                    stale,
                });
                wait_flagged = true;
            } else if threshold < gm.increments && !reads.is_empty() {
                violations.push(Violation::EarlyRelease {
                    segment: si,
                    rank: rm.rank,
                    group: gm.group,
                    threshold,
                    scheduled: gm.increments,
                });
                wait_flagged = true;
            } else if threshold >= gm.increments && stale == 0 {
                if guaranteed.len() <= gm.group {
                    guaranteed.resize(gm.group + 1, false);
                }
                guaranteed[gm.group] = true;
            }
        }
        if blocked || wait_flagged {
            continue;
        }
        for read in reads {
            if read.len == 0 {
                continue;
            }
            stats.reads += 1;
            let mut covering: Vec<(usize, usize)> = Vec::new();
            // Tiles in address order, whatever order the writer holds.
            let mut tiles: Vec<_> = writer.tiles.iter().collect();
            tiles.sort_by_key(|tw| tw.tile);
            for tw in tiles {
                let mut touches = false;
                for iv in writer.intervals_of(tw) {
                    if iv.overlaps(read) {
                        touches = true;
                        covering.push((iv.start.max(read.start), iv.end().min(read.end())));
                    }
                }
                let safe =
                    tw.group <= gm.group && guaranteed.get(tw.group).copied().unwrap_or(false);
                if touches && !safe {
                    violations.push(Violation::TileRace {
                        segment: si,
                        rank: rm.rank,
                        group: gm.group,
                        tile: tw.tile,
                        tile_group: tw.group,
                    });
                }
            }
            covering.sort_unstable();
            let mut cursor = read.start;
            let mut gap: Option<(usize, usize)> = None;
            for (s, e) in covering {
                if s > cursor {
                    gap = Some((cursor, s - cursor));
                    break;
                }
                cursor = cursor.max(e);
            }
            if gap.is_none() && cursor < read.end() {
                gap = Some((cursor, read.end() - cursor));
            }
            if let Some((start, len)) = gap {
                violations.push(Violation::UncoveredRead {
                    segment: si,
                    rank: rm.rank,
                    group: gm.group,
                    start,
                    len,
                });
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Random models.
// ---------------------------------------------------------------------------

/// SplitMix64: the generator behind every random model, seeded per case.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn chance(&mut self, percent: usize) -> bool {
        self.below(100) < percent
    }
}

/// A packed, reordered-looking writer: `groups` contiguous group regions
/// of `tile_len`-element tiles, then perturbed with cross-group
/// scribbles, overlaps, empty intervals and dropped tiles.
fn random_writer(rng: &mut Rng, groups: usize, tiles_per_group: usize, tile_len: usize) -> Writer {
    let mut writer = Writer::default();
    let tiles = groups * tiles_per_group;
    let span = tiles * tile_len;
    // Address-order tiles land at a shuffled packed slot, like the
    // reordering's wave-order packing. The writer holds them in packed
    // order (as the lowering does) or in address order.
    let mut slots: Vec<usize> = (0..tiles).collect();
    for i in (1..slots.len()).rev() {
        slots.swap(i, rng.below(i + 1));
    }
    let mut order: Vec<usize> = (0..tiles).collect();
    if rng.chance(50) {
        order.sort_by_key(|&t| slots[t]);
    }
    for tile in order {
        let slot = slots[tile];
        let group = slot / tiles_per_group;
        let base = slot * tile_len;
        let mut intervals = Vec::new();
        if rng.chance(5) {
            // A hole: this tile writes nothing.
        } else if rng.chance(30) {
            // Sub-tile pieces (subtile rows, token rows), possibly gappy.
            let pieces = 1 + rng.below(3);
            let piece = tile_len.div_ceil(pieces);
            for p in 0..pieces {
                let start = base + p * piece;
                let len = piece.min(base + tile_len - start.min(base + tile_len));
                if !rng.chance(10) {
                    intervals.push(Interval::new(start, len));
                }
            }
        } else {
            intervals.push(Interval::new(base, tile_len));
        }
        if rng.chance(8) {
            // Cross-group or overlapping scribble anywhere in the buffer.
            intervals.push(Interval::new(rng.below(span + 4), rng.below(tile_len * 2)));
        }
        if rng.chance(5) {
            intervals.push(Interval::new(rng.below(span + 1), 0));
        }
        let group = if rng.chance(3) {
            rng.below(groups + 1)
        } else {
            group
        };
        writer.push_tile(tile as u32, group, intervals);
    }
    writer
}

/// A writer whose non-empty intervals come in `(start, tile)` order, as
/// the plan lowering emits them: tiles in packed order, each writing
/// its slot whole or as ascending sub-tile pieces. It may still leave
/// holes, name a tile's group wrongly, or read empty, so reads against
/// it fail in every way without scribbles putting it out of order.
fn in_order_writer(
    rng: &mut Rng,
    groups: usize,
    tiles_per_group: usize,
    tile_len: usize,
) -> Writer {
    let tiles = groups * tiles_per_group;
    let mut tile_of_slot: Vec<usize> = (0..tiles).collect();
    for i in (1..tile_of_slot.len()).rev() {
        tile_of_slot.swap(i, rng.below(i + 1));
    }
    let mut writer = Writer::default();
    for (slot, &tile) in tile_of_slot.iter().enumerate() {
        let base = slot * tile_len;
        let mut intervals = Vec::new();
        if rng.chance(5) {
            // A hole: this tile writes nothing.
        } else if rng.chance(30) {
            let pieces = 1 + rng.below(3);
            let piece = tile_len.div_ceil(pieces);
            for p in 0..pieces {
                let start = (base + p * piece).min(base + tile_len);
                let len = piece.min(base + tile_len - start);
                if !rng.chance(10) {
                    intervals.push(Interval::new(start, len));
                }
            }
        } else {
            intervals.push(Interval::new(base, tile_len));
        }
        if rng.chance(5) {
            intervals.push(Interval::new(base + tile_len, 0));
        }
        let group = if rng.chance(3) {
            rng.below(groups + 1)
        } else {
            slot / tiles_per_group
        };
        writer.push_tile(tile as u32, group, intervals);
    }
    writer
}

/// Whether `writer`'s non-empty intervals come in `(start, tile)` order.
fn is_in_order(writer: &Writer) -> bool {
    let keys: Vec<(usize, u32)> = writer
        .tiles
        .iter()
        .flat_map(|tw| {
            writer
                .intervals_of(tw)
                .iter()
                .filter(|iv| iv.len > 0)
                .map(move |iv| (iv.start, tw.tile))
        })
        .collect();
    keys.windows(2).all(|pair| pair[0] <= pair[1])
}

type MakeWriter = fn(&mut Rng, usize, usize, usize) -> Writer;

fn random_read(rng: &mut Rng, group: usize, tiles_per_group: usize, tile_len: usize) -> Interval {
    let region = tiles_per_group * tile_len;
    let start = group * region;
    match rng.below(10) {
        // Mostly the group's own region, as lowered plans read.
        0..=5 => Interval::new(start, region),
        6 => Interval::new(start + rng.below(region), rng.below(region + 1)),
        7 => Interval::new(rng.below(start + region + 1), rng.below(2 * region + 1)),
        8 => Interval::new(start, 0),
        _ => Interval::new(start + region / 2, region),
    }
}

fn random_segment(rng: &mut Rng, index: usize, n_ranks: usize, writer: MakeWriter) -> Segment {
    let groups = 1 + rng.below(4);
    let tiles_per_group = 1 + rng.below(5);
    let tile_len = 1 + rng.below(8);
    let n_writers = if rng.chance(50) { 1 } else { n_ranks };
    let table = if rng.chance(85) {
        index % 2
    } else {
        rng.below(2)
    };
    let rearmed = if rng.chance(85) {
        index >= 2
    } else {
        rng.chance(50)
    };
    let mut segment = Segment::new(format!("batch {index}"), table, rearmed);
    segment.writers = (0..n_writers)
        .map(|_| writer(rng, groups, tiles_per_group, tile_len))
        .collect();
    // Ranks with one writer may share one contract range, as symmetric
    // plans lower.
    let shared = n_writers == 1 && rng.chance(30);
    for rank in 0..n_ranks {
        if shared && rank > 0 {
            segment.push_rank(rank, 0, 0..groups);
            continue;
        }
        let start = segment.groups.len();
        for g in 0..groups {
            let increments = tiles_per_group as u32;
            let wait = match rng.below(12) {
                0 => None,
                1 => Some(increments.saturating_sub(1)),
                2 => Some(increments + 1),
                _ => Some(increments),
            };
            let reads: Vec<Interval> = (0..rng.below(3))
                .map(|_| random_read(rng, g, tiles_per_group, tile_len))
                .collect();
            let increments = if rng.chance(5) { 0 } else { increments };
            segment.push_group(g, wait, increments, reads);
        }
        let writer = if n_writers == 1 { 0 } else { rank };
        segment.push_rank(rank, writer, start..segment.groups.len());
    }
    segment
}

fn random_model(seed: u64) -> ScheduleModel {
    model_with(seed, random_writer)
}

/// A random model whose writers are all in address order.
fn in_order_model(seed: u64) -> ScheduleModel {
    model_with(seed, in_order_writer)
}

fn model_with(seed: u64, writer: MakeWriter) -> ScheduleModel {
    let mut rng = Rng(seed);
    let n_ranks = 1 + rng.below(3);
    let segments = (0..1 + rng.below(4))
        .map(|i| random_segment(&mut rng, i, n_ranks, writer))
        .collect();
    let node_of = match rng.below(4) {
        0 => (0..n_ranks).map(|r| r % 2).collect(),
        1 => (0..n_ranks + 1).map(|r| r % 2).collect(),
        _ => Vec::new(),
    };
    ScheduleModel {
        n_ranks,
        node_of,
        segments,
    }
}

fn random_mutation(rng: &mut Rng, model: &ScheduleModel) -> (Mutation, usize) {
    let segment = rng.below(model.segments.len());
    let seg = &model.segments[segment];
    let rank = rng.below(seg.ranks.len());
    let groups = seg.groups_of(&seg.ranks[rank]);
    let group = groups[rng.below(groups.len())].group;
    let count = 1 + rng.below(3) as u32;
    let mutation = match rng.below(6) {
        0 => Mutation::DropWait { rank, group },
        1 => Mutation::RaiseThreshold { rank, group },
        2 => Mutation::DropIncrements { rank, group, count },
        3 => Mutation::DelayIncrements { rank, group, count },
        4 => Mutation::ReorderIncrements { rank },
        _ => Mutation::DropRearm,
    };
    (mutation, segment)
}

fn assert_agree(seed: u64, model: &ScheduleModel) -> Result<(), TestCaseError> {
    let region = verify(model);
    let tile = oracle(model);
    prop_assert_eq!(
        &region.violations,
        &tile.violations,
        "seed {seed}:\n region: {:?}\n oracle: {:?}",
        region.violations,
        tile.violations
    );
    prop_assert_eq!(
        region.stats,
        tile.stats,
        "seed {seed}: region {:?} vs oracle {:?}",
        region.stats,
        tile.stats
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Random models: the region proof and the per-tile scan agree.
    #[test]
    fn region_checker_matches_the_per_tile_oracle(seed in any::<u64>()) {
        assert_agree(seed, &random_model(seed))?;
    }

    /// In-order writers, which the checker merges in one pass and names
    /// tiles of only on a failing read: the same agreement.
    #[test]
    fn region_checker_matches_the_oracle_on_in_order_writers(seed in any::<u64>()) {
        let mut model = in_order_model(seed);
        for seg in &model.segments {
            for writer in &seg.writers {
                prop_assert!(is_in_order(writer), "seed {seed}: writer out of order");
            }
        }
        assert_agree(seed, &model)?;
        let mut rng = Rng(seed ^ 0x0D0E);
        let (mutation, segment) = random_mutation(&mut rng, &model);
        model.apply(&mutation, segment).expect("the mutation targets the model");
        assert_agree(seed, &model)?;
    }

    /// Registry-mutated models: one to three mutations on a random
    /// model, then the same agreement.
    #[test]
    fn region_checker_matches_the_oracle_on_mutated_models(seed in any::<u64>()) {
        let mut model = random_model(seed);
        let mut rng = Rng(seed ^ 0x5EED);
        for _ in 0..1 + rng.below(3) {
            let (mutation, segment) = random_mutation(&mut rng, &model);
            model.apply(&mutation, segment).expect("the mutation targets the model");
        }
        assert_agree(seed, &model)?;
    }
}

#[test]
fn region_checker_matches_the_oracle_past_the_violation_cap() {
    // Waitless groups race every tile they read: enough tiles, ranks and
    // segments to overflow the cap, plus scribbles and holes so the
    // truncated prefix mixes races with coverage gaps.
    for seed in 0..16u64 {
        let mut rng = Rng(seed);
        let mut model = random_model(seed);
        for seg in &mut model.segments {
            let groups = seg.groups_of(&seg.ranks[0]).len();
            seg.writers = (0..seg.writers.len())
                .map(|_| random_writer(&mut rng, groups, 40, 4))
                .collect();
            for gi in 0..seg.groups.len() {
                let read = random_read(&mut rng, seg.groups[gi].group, 40, 4);
                let reads = seg.push_reads([read]);
                let gm = &mut seg.groups[gi];
                gm.wait = None;
                gm.increments = 40;
                gm.reads = reads;
            }
        }
        let region = verify(&model);
        let tile = oracle(&model);
        assert_eq!(region.violations, tile.violations, "seed {seed}");
        assert_eq!(region.stats, tile.stats, "seed {seed}");
    }
    // At least one fixture really is truncated.
    let mut model = random_model(1);
    let mut writer = Writer::default();
    for t in 0..VIOLATION_CAP + 40 {
        writer.push_tile(t as u32, 0, [Interval::new(t * 2, 2)]);
    }
    model.segments.truncate(1);
    model.node_of.clear();
    let seg = &mut model.segments[0];
    seg.writers = vec![writer];
    let start = seg.groups.len();
    seg.push_group(0, None, 0, [Interval::new(0, (VIOLATION_CAP + 40) * 2)]);
    for rm in &mut seg.ranks {
        rm.writer = 0;
        rm.groups = start..start + 1;
    }
    let region = verify(&model);
    assert!(region.stats.truncated);
    assert_eq!(region.violations, oracle(&model).violations);
}

#[test]
fn the_random_models_exercise_every_violation_class() {
    // Guard against a generator that silently stops reaching a class:
    // the differential tests above would then prove nothing about it.
    for model in [random_model as fn(u64) -> ScheduleModel, in_order_model] {
        assert_every_class_reached(model);
    }
}

fn assert_every_class_reached(model: fn(u64) -> ScheduleModel) {
    let mut seen: HashMap<&'static str, usize> = HashMap::new();
    let mut clean = 0;
    for seed in 0..512u64 {
        let report = verify(&model(seed));
        clean += usize::from(report.is_clean());
        for v in &report.violations {
            *seen.entry(v.label()).or_default() += 1;
        }
    }
    for label in [
        "unreachable-threshold",
        "early-release",
        "stale-rearm",
        "tile-race",
        "missing-node-leader",
        "uncovered-read",
    ] {
        assert!(
            seen.contains_key(label),
            "no random model reached {label}: {seen:?}"
        );
    }
    assert!(clean > 0, "no random model verified clean");
}
