//! The three static checks over a [`ScheduleModel`].
//!
//! [`verify`] walks the segments in execution order, carrying the
//! residual (un-reset) counting-table state across table reuses, and
//! reports every violation it can prove from the plan data alone:
//!
//! - **Threshold feasibility / deadlock**: a wait whose threshold exceeds
//!   the increments that can ever land on its table slot blocks that
//!   rank's comm stream forever — and, through the collective rendezvous,
//!   every other rank's. Reported with the exact blocked
//!   `(rank, table, group, threshold)`, like the runtime's `StuckWait`.
//! - **Rearm integrity**: a segment that reuses a counting table without
//!   the rearm chain leaves stale counts behind; any stale count lets the
//!   new wait release before this segment's tiles are written.
//! - **Races and coverage, a region proof with failures named per
//!   tile**: each group's collective reads only element intervals whose
//!   writing tiles are *guaranteed complete* at release — the tile's
//!   group must be at or before the read's group on the serial comm
//!   stream, with a fully-counted wait. Reads of never-written elements
//!   are reported as coverage gaps.
//!
//! The race and coverage proof runs per region, not per tile. Each
//! distinct writer's non-empty intervals are merged into runs: maximal
//! stretches of one group whose union is contiguous. A writer whose
//! intervals already come in address order, as the plan lowering emits
//! them, is merged in one pass; any other is sorted first.
//! Because the reordering packs each wave group's tiles into one
//! contiguous region (§3.3), a clean plan has about one run per group,
//! and a read is answered by a binary search plus a scan of the runs it
//! intersects — `O((T + R) log T)` for `T` tiles and `R` reads instead of
//! `O(T · R)`. A run is racy exactly when one of its tiles is (all share
//! its group), and the runs' union is the tiles' union, so the region
//! proof is exact. Only when a read fails are its racing runs mapped
//! back to their tiles, so [`Violation::TileRace`] lists name the same
//! tiles, in the same address order, a per-tile scan would.

use std::cell::OnceCell;
use std::collections::HashMap;
use std::fmt;
use std::ops::Range;

use crate::model::{Interval, RankModel, ScheduleModel, Segment, Writer};
use crate::shadow::ranges_overlap;

/// Upper bound on reported violations: one corrupt wait can implicate
/// every tile of its group, so reporting is truncated (deterministically,
/// in walk order) once the report is unambiguous.
pub const VIOLATION_CAP: usize = 256;

/// One statically proven schedule defect.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Violation {
    /// A wait threshold no scheduled increment total can reach: the comm
    /// stream blocks forever at this wait (and all ranks block at the
    /// group's collective rendezvous).
    UnreachableThreshold {
        /// Segment index.
        segment: usize,
        /// Blocked rank.
        rank: usize,
        /// Counting-table set the wait consults.
        table: usize,
        /// Blocked group.
        group: usize,
        /// The unreachable threshold.
        threshold: u32,
        /// Increments that can ever land on the slot (stale + scheduled).
        available: u32,
    },
    /// A wait threshold below the group's scheduled increments: the
    /// collective can be released while up to `scheduled - threshold`
    /// of the group's tiles are still unwritten.
    EarlyRelease {
        /// Segment index.
        segment: usize,
        /// Rank.
        rank: usize,
        /// Group.
        group: usize,
        /// The under-full threshold.
        threshold: u32,
        /// Increments (tiles) actually scheduled for the group.
        scheduled: u32,
    },
    /// A segment reuses a counting table without the rearm chain: stale
    /// counts from the previous user can satisfy this wait before any of
    /// the segment's tiles are written.
    StaleRearm {
        /// Segment index.
        segment: usize,
        /// Rank.
        rank: usize,
        /// Reused table set.
        table: usize,
        /// Group whose wait the stale counts can release early.
        group: usize,
        /// Stale increments left on the slot.
        stale: u32,
    },
    /// A tile whose write footprint intersects a collective read without
    /// being guaranteed complete when the read's wait releases.
    TileRace {
        /// Segment index.
        segment: usize,
        /// Rank.
        rank: usize,
        /// Group whose collective read races.
        group: usize,
        /// The racing tile (address order).
        tile: u32,
        /// The racing tile's wave group.
        tile_group: usize,
    },
    /// A hierarchical (multi-node) segment with no rank on `node`: the
    /// leader phase of every node-spanning collective rendezvouses with
    /// that node's leader, so the whole segment's comm streams block.
    MissingNodeLeader {
        /// Segment index.
        segment: usize,
        /// The node with no participating rank.
        node: usize,
        /// Nodes the topology declares.
        nodes: usize,
    },
    /// A collective read interval no scheduled tile write covers.
    UncoveredRead {
        /// Segment index.
        segment: usize,
        /// Rank.
        rank: usize,
        /// Group.
        group: usize,
        /// First uncovered element.
        start: usize,
        /// Uncovered element count.
        len: usize,
    },
}

impl Violation {
    /// Stable kebab-case class label (report keys, CI assertions).
    pub fn label(&self) -> &'static str {
        match self {
            Violation::UnreachableThreshold { .. } => "unreachable-threshold",
            Violation::EarlyRelease { .. } => "early-release",
            Violation::StaleRearm { .. } => "stale-rearm",
            Violation::TileRace { .. } => "tile-race",
            Violation::MissingNodeLeader { .. } => "missing-node-leader",
            Violation::UncoveredRead { .. } => "uncovered-read",
        }
    }
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::UnreachableThreshold {
                segment,
                rank,
                table,
                group,
                threshold,
                available,
            } => write!(
                f,
                "segment {segment}: rank {rank} blocks forever on table {table} group {group} \
                 (threshold {threshold}, only {available} increments can ever arrive); all ranks \
                 deadlock at the group's collective rendezvous"
            ),
            Violation::EarlyRelease {
                segment,
                rank,
                group,
                threshold,
                scheduled,
            } => write!(
                f,
                "segment {segment}: rank {rank} group {group} waits for only {threshold} of \
                 {scheduled} scheduled increments — the collective can read unwritten tiles"
            ),
            Violation::StaleRearm {
                segment,
                rank,
                table,
                group,
                stale,
            } => write!(
                f,
                "segment {segment}: rank {rank} reuses table {table} without the rearm chain; \
                 {stale} stale increments can release group {group}'s wait before any tile of \
                 this segment is written"
            ),
            Violation::TileRace {
                segment,
                rank,
                group,
                tile,
                tile_group,
            } => write!(
                f,
                "segment {segment}: rank {rank} group {group}'s collective reads tile {tile} \
                 (group {tile_group}) without a completed-signal guarantee"
            ),
            Violation::MissingNodeLeader {
                segment,
                node,
                nodes,
            } => write!(
                f,
                "segment {segment}: node {node} of {nodes} fields no rank; every node-spanning \
                 collective waits on its leader and the segment's comm streams block"
            ),
            Violation::UncoveredRead {
                segment,
                rank,
                group,
                start,
                len,
            } => write!(
                f,
                "segment {segment}: rank {rank} group {group} reads {len} elements at offset \
                 {start} that no scheduled tile write covers"
            ),
        }
    }
}

/// What the verifier examined — evidence the report covered the model.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct VerifyStats {
    /// Segments walked.
    pub segments: usize,
    /// Counter waits checked for feasibility.
    pub waits: usize,
    /// Tile write footprints examined.
    pub tiles: usize,
    /// Collective read intervals checked for races and coverage.
    pub reads: usize,
    /// Node-coverage checks run (segments × nodes on hierarchical
    /// models; zero single-node).
    pub node_checks: usize,
    /// Whether reporting hit [`VIOLATION_CAP`].
    pub truncated: bool,
}

/// Result of [`verify`]: the proven violations (empty for a safe
/// schedule) and the coverage stats.
#[derive(Debug, Clone)]
pub struct VerifyReport {
    /// Proven violations in deterministic walk order (segment, rank,
    /// group).
    pub violations: Vec<Violation>,
    /// Coverage evidence.
    pub stats: VerifyStats,
}

impl VerifyReport {
    /// Whether the schedule is statically safe.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// Violations of one class.
    pub fn count_of(&self, label: &str) -> usize {
        self.violations
            .iter()
            .filter(|v| v.label() == label)
            .count()
    }
}

/// Verifies a schedule model. Deterministic: identical models yield
/// identical reports.
pub fn verify(model: &ScheduleModel) -> VerifyReport {
    let mut violations = Vec::new();
    let mut stats = VerifyStats {
        segments: model.segments.len(),
        ..VerifyStats::default()
    };
    // Residual per-(table, rank) slot counts left by earlier segments:
    // waits never consume counts, only the rearm chain's reset clears
    // them. Only segments with a successor deposit.
    let mut residual: HashMap<(usize, usize), Vec<u32>> = HashMap::new();
    // Node-coverage pass (hierarchical models only): every node must
    // field at least one rank in every segment, or the leader phase of
    // each node-spanning collective rendezvouses with nobody.
    if !model.node_of.is_empty() {
        let nodes = model.node_of.iter().max().map_or(0, |m| m + 1);
        for (si, seg) in model.segments.iter().enumerate() {
            let mut present = vec![false; nodes];
            for rm in &seg.ranks {
                if let Some(&node) = model.node_of.get(rm.rank) {
                    if let Some(p) = present.get_mut(node) {
                        *p = true;
                    }
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
    let empty = Regions::default();
    let mut guaranteed = Vec::new();
    for (si, seg) in model.segments.iter().enumerate() {
        // One region index per distinct writer, shared by every rank
        // that names it.
        let regions: Vec<Regions> = seg.writers.iter().map(Regions::of).collect();
        for rm in &seg.ranks {
            let key = (seg.table, rm.rank);
            if seg.rearmed {
                residual.remove(&key);
            }
            let stale = residual.get(&key).map_or(&[][..], Vec::as_slice);
            let written = regions.get(rm.writer).unwrap_or(&empty);
            stats.tiles += written.tiles;
            check_rank(
                si,
                seg,
                rm,
                written,
                stale,
                &mut guaranteed,
                &mut violations,
                &mut stats,
            );
            if si + 1 < model.segments.len() {
                // Deposit this segment's increments for the table's next
                // user.
                let slot = residual.entry(key).or_default();
                for gm in seg.groups_of(rm) {
                    if slot.len() <= gm.group {
                        slot.resize(gm.group + 1, 0);
                    }
                    if let Some(c) = slot.get_mut(gm.group) {
                        *c += gm.increments;
                    }
                }
            }
        }
    }
    if violations.len() > VIOLATION_CAP {
        violations.truncate(VIOLATION_CAP);
        stats.truncated = true;
    }
    VerifyReport { violations, stats }
}

/// One non-empty tile interval, tagged with its tile and group.
#[derive(Debug, Clone, Copy)]
struct Piece {
    start: usize,
    end: usize,
    tile: u32,
    group: usize,
}

/// A maximal stretch of address-sorted pieces of one group whose union
/// is contiguous: `[start, end)`.
#[derive(Debug, Clone)]
struct Run {
    start: usize,
    end: usize,
    /// The largest end among this run and every run before it: monotone
    /// even when runs overlap, so binary search finds the first run that
    /// can reach a read.
    reach: usize,
    group: usize,
    pieces: Range<usize>,
}

/// One writer's footprint as group runs sorted by start — the region
/// view every read is proven against.
#[derive(Debug, Default)]
struct Regions<'w> {
    /// Tiles in the writer, written or not.
    tiles: usize,
    /// The writer, when its pieces already come in `(start, tile)`
    /// order: the piece list is then built only if a failing read must
    /// name its tiles.
    in_order: Option<&'w Writer>,
    /// Non-empty intervals sorted by `(start, tile)`; `Run::pieces`
    /// indexes them.
    pieces: OnceCell<Vec<Piece>>,
    runs: Vec<Run>,
}

/// The non-empty intervals of `writer`, tile by tile in arena order.
fn pieces_of(writer: &Writer) -> impl Iterator<Item = Piece> + '_ {
    writer.tiles.iter().flat_map(move |tw| {
        writer
            .intervals_of(tw)
            .iter()
            .filter(|iv| iv.len > 0)
            .map(move |iv| Piece {
                start: iv.start,
                end: iv.end(),
                tile: tw.tile,
                group: tw.group,
            })
    })
}

/// Merges pieces sorted by `(start, tile)` into same-group runs. `None`
/// as soon as a piece comes out of that order.
fn merge_runs(pieces: impl Iterator<Item = Piece>) -> Option<Vec<Run>> {
    let mut runs: Vec<Run> = Vec::new();
    let mut last_key = (0, 0);
    for (i, p) in pieces.enumerate() {
        if (p.start, p.tile) < last_key {
            return None;
        }
        last_key = (p.start, p.tile);
        match runs.last_mut() {
            Some(run) if run.group == p.group && p.start <= run.end => {
                run.end = run.end.max(p.end);
                run.pieces.end = i + 1;
            }
            _ => runs.push(Run {
                start: p.start,
                end: p.end,
                reach: 0,
                group: p.group,
                pieces: i..i + 1,
            }),
        }
    }
    Some(runs)
}

impl<'w> Regions<'w> {
    /// One merging pass when the writer's pieces are already in address
    /// order (the lowering packs tiles that way); otherwise the pieces
    /// are collected and sorted first.
    fn of(writer: &'w Writer) -> Regions<'w> {
        let (in_order, pieces, mut runs) = match merge_runs(pieces_of(writer)) {
            Some(runs) => (Some(writer), OnceCell::new(), runs),
            None => {
                let mut pieces = Vec::with_capacity(writer.intervals.len());
                pieces.extend(pieces_of(writer));
                pieces.sort_unstable_by_key(|p| (p.start, p.tile));
                #[expect(
                    clippy::expect_used,
                    reason = "merge_runs fails only on unsorted pieces, and these were just sorted"
                )]
                let runs = merge_runs(pieces.iter().copied()).expect("the pieces are sorted");
                (None, OnceCell::from(pieces), runs)
            }
        };
        let mut reach = 0;
        for run in &mut runs {
            reach = reach.max(run.end);
            run.reach = reach;
        }
        Regions {
            tiles: writer.tiles.len(),
            in_order,
            pieces,
            runs,
        }
    }

    /// The sorted piece list, built on first use for an in-order writer.
    fn pieces(&self) -> &[Piece] {
        self.pieces.get_or_init(|| {
            let mut pieces = Vec::new();
            if let Some(writer) = self.in_order {
                pieces.reserve(writer.intervals.len());
                pieces.extend(pieces_of(writer));
            }
            pieces
        })
    }

    /// The runs intersecting `read`, in start order.
    fn overlapping(&self, read: &Interval) -> impl Iterator<Item = &Run> {
        let first = self.runs.partition_point(|run| run.reach <= read.start);
        let (start, end) = (read.start, read.end());
        self.runs
            .get(first..)
            .unwrap_or(&[])
            .iter()
            .take_while(move |run| run.start < end)
            .filter(move |run| run.end > start)
    }

    /// The `(tile, group)` of every piece of `run` that intersects
    /// `read`.
    fn tiles_touching<'a>(
        &'a self,
        run: &Run,
        read: &'a Interval,
    ) -> impl Iterator<Item = (u32, usize)> + 'a {
        self.pieces()
            .get(run.pieces.clone())
            .unwrap_or(&[])
            .iter()
            .filter(move |p| ranges_overlap(p.start, p.end, read.start, read.end()))
            .map(|p| (p.tile, p.group))
    }
}

#[allow(clippy::too_many_arguments)]
fn check_rank(
    si: usize,
    seg: &Segment,
    rm: &RankModel,
    regions: &Regions,
    stale_counts: &[u32],
    guaranteed: &mut Vec<bool>,
    violations: &mut Vec<Violation>,
    stats: &mut VerifyStats,
) {
    // Groups whose waits guarantee, at release, that every one of their
    // scheduled tiles has been written (full threshold, clean slot). The
    // buffer is the caller's, reused rank after rank.
    guaranteed.clear();
    let mark = |v: &mut Vec<bool>, g: usize, val: bool| {
        if v.len() <= g {
            v.resize(g + 1, false);
        }
        if let Some(s) = v.get_mut(g) {
            *s = val;
        }
    };
    // Once one wait is unreachable, the serial comm stream never reaches
    // later groups: their reads cannot race because they never execute.
    let mut blocked = false;
    for gm in seg.groups_of(rm) {
        let reads = seg.reads_of(gm);
        let stale = stale_counts.get(gm.group).copied().unwrap_or(0);
        // A wait-level violation is the root cause; the race pass would
        // only re-report its symptoms, so it is skipped for the group
        // once one is recorded.
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
                mark(guaranteed, gm.group, true);
            }
        }
        if blocked || wait_flagged {
            continue;
        }
        // A run is safe when its group is guaranteed complete at this
        // release: at or before this group on the serial comm stream,
        // with a fully-counted wait.
        let safe = |g: usize| g <= gm.group && guaranteed.get(g).copied().unwrap_or(false);
        for read in reads {
            if read.len == 0 {
                continue;
            }
            stats.reads += 1;
            // One pass over the intersecting runs proves both properties:
            // every run is safe (race freedom) and the runs leave no hole
            // in the read (coverage; the first gap is reported).
            let mut racy = false;
            let mut cursor = read.start;
            let mut gap: Option<(usize, usize)> = None;
            for run in regions.overlapping(read) {
                racy |= !safe(run.group);
                let s = run.start.max(read.start);
                if gap.is_none() && s > cursor {
                    gap = Some((cursor, s - cursor));
                }
                cursor = cursor.max(run.end.min(read.end()));
            }
            if gap.is_none() && cursor < read.end() {
                gap = Some((cursor, read.end() - cursor));
            }
            if racy {
                // Failing path only: name every racing tile once, in
                // address (tile id) order.
                let mut tiles: Vec<(u32, usize)> = regions
                    .overlapping(read)
                    .filter(|run| !safe(run.group))
                    .flat_map(|run| regions.tiles_touching(run, read))
                    .collect();
                tiles.sort_unstable();
                tiles.dedup();
                for (tile, tile_group) in tiles {
                    violations.push(Violation::TileRace {
                        segment: si,
                        rank: rm.rank,
                        group: gm.group,
                        tile,
                        tile_group,
                    });
                }
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

#[cfg(test)]
#[allow(clippy::indexing_slicing)]
mod tests {
    use super::*;
    use crate::model::{Interval, ScheduleModel, Segment, Writer};
    use crate::mutation::Mutation;

    /// Two groups, two tiles each, one rank; group regions [0, 32) and
    /// [32, 64).
    fn model(segments: usize, rearm_from_second: bool) -> ScheduleModel {
        let mk_segment = |i: usize| {
            let mut segment =
                Segment::new(format!("batch {i}"), i % 2, i >= 2 && rearm_from_second);
            let mut writer = Writer::default();
            for t in 0..4 {
                writer.push_tile(t, t as usize / 2, [Interval::new(t as usize * 16, 16)]);
            }
            segment.writers.push(writer);
            for g in 0..2 {
                segment.push_group(g, Some(2), 2, [Interval::new(g * 32, 32)]);
            }
            segment.push_rank(0, 0, 0..2);
            segment
        };
        ScheduleModel {
            n_ranks: 1,
            node_of: Vec::new(),
            segments: (0..segments).map(mk_segment).collect(),
        }
    }

    #[test]
    fn clean_single_segment_verifies() {
        let report = verify(&model(1, true));
        assert!(report.is_clean(), "{:?}", report.violations);
        assert_eq!(report.stats.waits, 2);
        assert_eq!(report.stats.reads, 2);
        assert_eq!(report.stats.tiles, 4);
    }

    #[test]
    fn clean_rearmed_chain_verifies() {
        let report = verify(&model(4, true));
        assert!(report.is_clean(), "{:?}", report.violations);
        assert_eq!(report.stats.segments, 4);
    }

    #[test]
    fn dropped_wait_races_every_tile_of_the_group() {
        let mut m = model(1, true);
        m.apply(&Mutation::DropWait { rank: 0, group: 1 }, 0)
            .unwrap();
        let report = verify(&m);
        assert_eq!(report.count_of("tile-race"), 2, "{:?}", report.violations);
        assert!(report
            .violations
            .iter()
            .all(|v| matches!(v, Violation::TileRace { group: 1, .. })));
    }

    #[test]
    fn raised_threshold_is_an_unreachable_deadlock() {
        let mut m = model(1, true);
        m.apply(&Mutation::RaiseThreshold { rank: 0, group: 0 }, 0)
            .unwrap();
        let report = verify(&m);
        assert_eq!(report.count_of("unreachable-threshold"), 1);
        assert!(
            report.count_of("tile-race") == 0,
            "groups behind the blocked wait never execute: {:?}",
            report.violations
        );
        match &report.violations[0] {
            Violation::UnreachableThreshold {
                rank,
                group,
                available,
                ..
            } => {
                assert_eq!((*rank, *group, *available), (0, 0, 2));
            }
            v => panic!("wrong class: {v:?}"),
        }
    }

    #[test]
    fn dropped_increments_make_the_threshold_unreachable() {
        let mut m = model(1, true);
        m.apply(
            &Mutation::DropIncrements {
                rank: 0,
                group: 1,
                count: 1,
            },
            0,
        )
        .unwrap();
        let report = verify(&m);
        assert_eq!(report.count_of("unreachable-threshold"), 1);
    }

    #[test]
    fn lowered_threshold_is_an_early_release() {
        let mut m = model(1, true);
        m.segments[0].groups_mut(0)[1].wait = Some(1);
        let report = verify(&m);
        assert_eq!(report.count_of("early-release"), 1);
    }

    #[test]
    fn missing_rearm_is_flagged_on_table_reuse() {
        let mut m = model(3, true);
        m.apply(&Mutation::DropRearm, 2).unwrap();
        let report = verify(&m);
        // Batch 2 reuses batch 0's table without a reset: both groups'
        // waits can release on stale counts.
        assert_eq!(report.count_of("stale-rearm"), 2, "{:?}", report.violations);
        assert!(report.violations.iter().all(|v| matches!(
            v,
            Violation::StaleRearm {
                segment: 2,
                table: 0,
                stale: 2,
                ..
            }
        )));
    }

    #[test]
    fn first_use_of_each_table_needs_no_rearm() {
        // Segments 0 and 1 have rearmed == false but touch fresh tables.
        let report = verify(&model(2, true));
        assert!(report.is_clean(), "{:?}", report.violations);
    }

    #[test]
    fn cross_group_write_into_a_read_region_races() {
        let mut m = model(1, true);
        // Tile 3 (group 1) also scribbles into group 0's region.
        let mut writer = Writer::default();
        for t in 0..4 {
            let mut intervals = vec![Interval::new(t as usize * 16, 16)];
            if t == 3 {
                intervals.push(Interval::new(8, 4));
            }
            writer.push_tile(t, t as usize / 2, intervals);
        }
        m.segments[0].writers[0] = writer;
        let report = verify(&m);
        assert!(report.violations.iter().any(|v| matches!(
            v,
            Violation::TileRace {
                group: 0,
                tile: 3,
                tile_group: 1,
                ..
            }
        )));
    }

    #[test]
    fn uncovered_read_is_reported_with_the_gap() {
        let mut m = model(1, true);
        // Group 1's second tile never writes its half.
        m.segments[0].writers[0].tiles[3].intervals = 0..0;
        let report = verify(&m);
        assert!(report.violations.iter().any(|v| matches!(
            v,
            Violation::UncoveredRead {
                group: 1,
                start: 48,
                len: 16,
                ..
            }
        )));
    }

    #[test]
    fn zero_payload_group_skips_wait_and_reads() {
        let mut m = model(1, true);
        m.segments[0].groups_mut(0)[1].wait = None;
        m.segments[0].groups_mut(0)[1].reads = 0..0;
        // Tiles of a zero-payload group still increment the counter; with
        // no wait and no reads there is nothing to violate.
        let report = verify(&m);
        assert!(report.is_clean(), "{:?}", report.violations);
    }

    /// The single-rank model spread over a two-node map: rank 0 on node
    /// 0 and a phantom second node with no ranks unless `covered`.
    fn hierarchical_model(covered: bool) -> ScheduleModel {
        let mut m = model(1, true);
        m.node_of = if covered {
            vec![0] // one node, one rank: trivially covered
        } else {
            vec![0, 1] // declares rank 1 on node 1, but no segment fields it
        };
        m.n_ranks = m.node_of.len();
        m
    }

    #[test]
    fn covered_hierarchical_model_verifies() {
        let report = verify(&hierarchical_model(true));
        assert!(report.is_clean(), "{:?}", report.violations);
        assert_eq!(report.stats.node_checks, 1);
    }

    #[test]
    fn node_without_ranks_is_a_missing_leader() {
        let report = verify(&hierarchical_model(false));
        assert_eq!(
            report.count_of("missing-node-leader"),
            1,
            "{:?}",
            report.violations
        );
        assert!(report.violations.iter().any(|v| matches!(
            v,
            Violation::MissingNodeLeader {
                segment: 0,
                node: 1,
                nodes: 2,
            }
        )));
        assert_eq!(report.stats.node_checks, 2);
    }

    #[test]
    fn single_node_models_skip_the_node_pass() {
        let report = verify(&model(1, true));
        assert_eq!(report.stats.node_checks, 0);
    }

    /// `model(1, true)` over `ranks` ranks that all share rank 0's
    /// writer and contract range.
    fn symmetric_model(ranks: usize) -> ScheduleModel {
        let mut m = model(1, true);
        m.n_ranks = ranks;
        for rank in 1..ranks {
            m.segments[0].push_rank(rank, 0, 0..2);
        }
        m
    }

    #[test]
    fn ranks_sharing_a_contract_get_one_verdict_each() {
        // A dropped wait on a contract every rank shares races on every
        // rank, reported once per rank under its own id, with the
        // stats of four separate checks.
        let mut m = symmetric_model(4);
        m.segments[0].groups[1].wait = None;
        let report = verify(&m);
        let ranks: Vec<usize> = report
            .violations
            .iter()
            .map(|v| match v {
                Violation::TileRace { rank, tile, .. } => rank * 10 + *tile as usize,
                v => panic!("wrong class: {v:?}"),
            })
            .collect();
        assert_eq!(ranks, [2, 3, 12, 13, 22, 23, 32, 33]);
        assert_eq!(report.stats.tiles, 16);
        assert_eq!(report.stats.waits, 4);
        assert_eq!(report.stats.reads, 8);
    }

    #[test]
    fn a_shared_contract_equals_per_rank_copies() {
        // The same model with every rank's contracts copied out (no
        // sharing) verifies identically, clean or mutated, across a
        // rearmed chain with stale slots.
        for mutation in [
            None,
            Some(Mutation::DropWait { rank: 2, group: 0 }),
            Some(Mutation::RaiseThreshold { rank: 0, group: 1 }),
            Some(Mutation::DropRearm),
        ] {
            let mut shared = model(4, true);
            shared.n_ranks = 3;
            for seg in &mut shared.segments {
                for rank in 1..3 {
                    seg.push_rank(rank, 0, 0..2);
                }
            }
            let mut copied = shared.clone();
            for seg in &mut copied.segments {
                for rank in 0..3 {
                    let _ = seg.groups_mut(rank);
                }
            }
            assert!(copied.segments[0].ranks[1].groups != copied.segments[0].ranks[2].groups);
            if let Some(mutation) = mutation {
                shared.apply(&mutation, 2).unwrap();
                copied.apply(&mutation, 2).unwrap();
            }
            let (a, b) = (verify(&shared), verify(&copied));
            assert_eq!(a.violations, b.violations, "{mutation:?}");
            assert_eq!(a.stats, b.stats, "{mutation:?}");
        }
    }

    #[test]
    fn reporting_truncates_deterministically() {
        let mut m = model(1, true);
        // One huge group with hundreds of tiles and no wait.
        let mut writer = Writer::default();
        for t in 0..VIOLATION_CAP as u32 + 50 {
            writer.push_tile(t, 0, [Interval::new(t as usize * 4, 4)]);
        }
        let total = writer.tiles.len() * 4;
        let seg = &mut m.segments[0];
        seg.writers[0] = writer;
        let start = seg.groups.len();
        seg.push_group(
            0,
            None,
            VIOLATION_CAP as u32 + 50,
            [Interval::new(0, total)],
        );
        seg.ranks[0].groups = start..seg.groups.len();
        let a = verify(&m);
        let b = verify(&m);
        assert!(a.stats.truncated);
        assert_eq!(a.violations.len(), VIOLATION_CAP);
        assert_eq!(a.violations, b.violations);
    }
}
