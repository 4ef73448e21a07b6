//! The symbolic schedule model the checks run over.
//!
//! A [`ScheduleModel`] is the signal/wait/event dependency structure of an
//! overlapped execution, lowered straight from plan data: per rank and
//! per wave group, the wait threshold guarding the group's collective,
//! the counting-table increments scheduled for it, the element intervals
//! the collective reads, and the per-tile write footprints of the
//! reordered GEMM epilogue. Footprints live once per distinct epilogue
//! [`Writer`] in a flat interval arena, and each rank names its writer:
//! whole-tile and subtile mappings write identically on every rank, so
//! one writer serves them all. Chained executions (`Pipeline` layers,
//! `execute_sequence` batches) become one [`Segment`] each, carrying the
//! counting-table set they use (ping-pong parity) and whether the rearm
//! chain — wait on the previous user's comm-done, reset, ready-event —
//! is present.
//!
//! The model is *order-free and clock-free on purpose*: it tracks
//! increment totals, never issue order or timing. That makes two of the
//! registry's mutations benign by construction ([`Mutation::
//! ReorderIncrements`] permutes what the model does not represent;
//! [`Mutation::DelayIncrements`] shifts a clock the model does not have)
//! — which is exactly the claim the conformance matrix documents.

use std::borrow::Cow;
use std::ops::Range;

use crate::mutation::{Mutation, OffTarget};
use crate::shadow;

/// A half-open element interval `[start, start + len)` in a rank's packed
/// send buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interval {
    /// First element.
    pub start: usize,
    /// Element count.
    pub len: usize,
}

impl Interval {
    /// Creates an interval.
    pub fn new(start: usize, len: usize) -> Self {
        Interval { start, len }
    }

    /// One past the last element.
    pub fn end(&self) -> usize {
        self.start + self.len
    }

    /// Whether the intervals intersect (empty intervals intersect
    /// nothing).
    pub fn overlaps(&self, other: &Interval) -> bool {
        shadow::ranges_overlap(self.start, self.end(), other.start, other.end())
    }
}

/// The packed-buffer write footprint of one reordered GEMM tile: its
/// wave group and its intervals, a range into the owning [`Writer`]'s
/// arena.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TileWrite {
    /// Address-order tile index (unique within its writer).
    pub tile: u32,
    /// The wave group whose counting-table slot this tile increments.
    pub group: usize,
    /// The tile's element intervals in [`Writer::intervals`] (one for
    /// whole-tile mappings, one per destination subtile or token row
    /// otherwise).
    pub intervals: Range<usize>,
}

/// The write footprints of every tile of one GEMM epilogue, flat: one
/// [`TileWrite`] per tile and one shared interval arena. Tiles may come
/// in any order; the lowering pushes them in packed order, so the arena
/// follows the buffer and the checker merges it without sorting. Ranks
/// whose epilogues write identically share one writer.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Writer {
    /// Per-tile footprints.
    pub tiles: Vec<TileWrite>,
    /// The interval arena every tile's range points into.
    pub intervals: Vec<Interval>,
}

impl Writer {
    /// Appends tile `tile`, writing `intervals` on behalf of `group`.
    pub fn push_tile(
        &mut self,
        tile: u32,
        group: usize,
        intervals: impl IntoIterator<Item = Interval>,
    ) {
        let start = self.intervals.len();
        self.intervals.extend(intervals);
        self.tiles.push(TileWrite {
            tile,
            group,
            intervals: start..self.intervals.len(),
        });
    }

    /// The intervals of `tile` (empty for an out-of-range tile or
    /// range).
    pub fn intervals_of(&self, tile: &TileWrite) -> &[Interval] {
        self.intervals.get(tile.intervals.clone()).unwrap_or(&[])
    }
}

/// One wave group's signaling contract on one rank.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GroupModel {
    /// Group id (ascending within a rank — comm-stream issue order).
    pub group: usize,
    /// The `WaitCounter` threshold guarding this group's collective, or
    /// `None` when no wait is scheduled (zero-payload groups schedule
    /// neither wait nor collective).
    pub wait: Option<u32>,
    /// Counting-table increments scheduled for this group in this
    /// segment (one per tile of the group).
    pub increments: u32,
    /// Element intervals the group's collective reads from the packed
    /// buffer once the wait releases: a range into [`Segment::reads`].
    pub reads: Range<usize>,
}

/// One rank's schedule within a segment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RankModel {
    /// Rank (device) id.
    pub rank: usize,
    /// Index of this rank's GEMM epilogue in [`Segment::writers`]. An
    /// index with no writer behind it models an epilogue that writes
    /// nothing.
    pub writer: usize,
    /// Per-group contracts, ascending by group id: a range into
    /// [`Segment::groups`]. Ranks whose contracts are equal by
    /// construction share one range.
    pub groups: Range<usize>,
}

/// One chained execution unit — the whole plan for a single-shot
/// execution, a layer of a `Pipeline`, or a batch of `execute_sequence`.
///
/// Contracts and reads live in two flat arenas per segment, like a
/// writer's intervals: ranks name ranges of [`Segment::groups`], and
/// groups name ranges of [`Segment::reads`].
#[derive(Debug, Clone)]
pub struct Segment {
    /// Human-readable position ("plan", or "segment 2" in a chain).
    pub label: Cow<'static, str>,
    /// Counting-table set the segment signals through (ping-pong parity
    /// for chains; always 0 single-shot).
    pub table: usize,
    /// Whether the rearm chain (wait on the table's previous user →
    /// `ResetCounter` → ready-event → comm-stream wait) is present. Only
    /// meaningful when the table was used by an earlier segment.
    pub rearmed: bool,
    /// The segment's distinct GEMM epilogue writers: one when every rank
    /// writes the same footprint, one per rank otherwise.
    pub writers: Vec<Writer>,
    /// Per-rank schedules.
    pub ranks: Vec<RankModel>,
    /// The group-contract arena every [`RankModel::groups`] points into.
    pub groups: Vec<GroupModel>,
    /// The read-interval arena every [`GroupModel::reads`] points into.
    pub reads: Vec<Interval>,
}

impl Segment {
    /// An empty segment: no writers, ranks, contracts or reads.
    pub fn new(label: impl Into<Cow<'static, str>>, table: usize, rearmed: bool) -> Segment {
        Segment {
            label: label.into(),
            table,
            rearmed,
            writers: Vec::new(),
            ranks: Vec::new(),
            groups: Vec::new(),
            reads: Vec::new(),
        }
    }

    /// Appends one group contract reading `reads` to the arena. A rank
    /// takes the contracts pushed for it with [`Segment::push_rank`].
    pub fn push_group(
        &mut self,
        group: usize,
        wait: Option<u32>,
        increments: u32,
        reads: impl IntoIterator<Item = Interval>,
    ) {
        let reads = self.push_reads(reads);
        self.groups.push(GroupModel {
            group,
            wait,
            increments,
            reads,
        });
    }

    /// Appends `reads` to the read arena and returns their range.
    pub fn push_reads(&mut self, reads: impl IntoIterator<Item = Interval>) -> Range<usize> {
        let start = self.reads.len();
        self.reads.extend(reads);
        start..self.reads.len()
    }

    /// Adds `rank`, whose epilogue is writer `writer` and whose
    /// contracts are `groups` of the arena.
    pub fn push_rank(&mut self, rank: usize, writer: usize, groups: Range<usize>) {
        self.ranks.push(RankModel {
            rank,
            writer,
            groups,
        });
    }

    /// The contracts of `rank` (empty for an out-of-range range).
    pub fn groups_of(&self, rank: &RankModel) -> &[GroupModel] {
        self.groups.get(rank.groups.clone()).unwrap_or(&[])
    }

    /// The reads of `group` (empty for an out-of-range range).
    pub fn reads_of(&self, group: &GroupModel) -> &[Interval] {
        self.reads.get(group.reads.clone()).unwrap_or(&[])
    }

    /// The contracts of the rank at index `rank`, for editing (empty for
    /// a missing rank). A range another rank shares is copied to the end
    /// of the arena first, so the edit stays with this rank.
    pub fn groups_mut(&mut self, rank: usize) -> &mut [GroupModel] {
        let Some(mut range) = self.ranks.get(rank).map(|r| r.groups.clone()) else {
            return &mut [];
        };
        let shared = self.ranks.iter().enumerate().any(|(i, other)| {
            i != rank && other.groups.start < range.end && range.start < other.groups.end
        });
        if shared {
            let start = self.groups.len();
            self.groups.extend_from_within(range);
            range = start..self.groups.len();
            if let Some(owner) = self.ranks.get_mut(rank) {
                owner.groups = range.clone();
            }
        }
        self.groups.get_mut(range).unwrap_or(&mut [])
    }
}

/// The full symbolic model of one (possibly chained) overlapped
/// execution.
#[derive(Debug, Clone)]
pub struct ScheduleModel {
    /// Participating ranks.
    pub n_ranks: usize,
    /// Node of each rank on a hierarchical (multi-node) schedule; empty
    /// for single-node models. When non-empty, the verifier additionally
    /// proves node coverage: every node must field at least one rank per
    /// segment, because the hierarchical collective's leader phase
    /// rendezvouses across nodes — a node with no ranks wedges every
    /// node-spanning collective of the segment.
    pub node_of: Vec<usize>,
    /// Segments in execution order.
    pub segments: Vec<Segment>,
}

impl ScheduleModel {
    /// Checks that `mutation`'s target exists: `segment`, and in it the
    /// rank and group the mutation names.
    ///
    /// # Errors
    ///
    /// [`OffTarget`] when any of them is missing.
    pub fn check_target(&self, mutation: &Mutation, segment: usize) -> Result<(), OffTarget> {
        let (rank, group) = match *mutation {
            Mutation::DropWait { rank, group }
            | Mutation::RaiseThreshold { rank, group }
            | Mutation::DropIncrements { rank, group, .. }
            | Mutation::DelayIncrements { rank, group, .. } => (Some(rank), Some(group)),
            Mutation::ReorderIncrements { rank } => (Some(rank), None),
            Mutation::DropRearm => (None, None),
        };
        let found = self.segments.get(segment).is_some_and(|seg| {
            rank.is_none_or(|rank| {
                seg.ranks.get(rank).is_some_and(|rm| {
                    group.is_none_or(|group| seg.groups_of(rm).iter().any(|g| g.group == group))
                })
            })
        });
        if found {
            Ok(())
        } else {
            Err(OffTarget {
                mutation: *mutation,
                segment,
            })
        }
    }

    /// Applies a registry mutation to `segment`, as the runtime applies
    /// the same pair to the executed schedule.
    ///
    /// [`Mutation::DelayIncrements`] and [`Mutation::ReorderIncrements`]
    /// are no-ops by construction — the model carries neither a clock nor
    /// an issue order — which is the machine-checked form of their
    /// "documented benign" verdicts.
    ///
    /// # Errors
    ///
    /// [`OffTarget`] when the targeted segment, rank or group does not
    /// exist; the model is then unchanged.
    pub fn apply(&mut self, mutation: &Mutation, segment: usize) -> Result<(), OffTarget> {
        self.check_target(mutation, segment)?;
        let Some(seg) = self.segments.get_mut(segment) else {
            return Ok(());
        };
        match *mutation {
            Mutation::DropWait { rank, group } | Mutation::RaiseThreshold { rank, group } => {
                for gm in seg.groups_mut(rank).iter_mut().filter(|g| g.group == group) {
                    gm.wait = mutation.wait(rank, group, gm.wait);
                }
            }
            Mutation::DropIncrements { rank, group, count } => {
                for gm in seg.groups_mut(rank).iter_mut().filter(|g| g.group == group) {
                    gm.increments = gm.increments.saturating_sub(count);
                }
            }
            // Timing-only: the model has no clock, so a delayed increment
            // changes nothing it represents.
            Mutation::DelayIncrements { .. } => {}
            // Order-only: the model tracks increment totals, never issue
            // order, so any permutation is definitionally invisible.
            Mutation::ReorderIncrements { .. } => {}
            Mutation::DropRearm => {
                seg.rearmed = false;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
#[allow(clippy::indexing_slicing)]
mod tests {
    use super::*;
    use crate::mutation::RAISE_DELTA;

    /// A minimal clean two-group, one-rank, one-segment model.
    pub(crate) fn tiny_model() -> ScheduleModel {
        let mut segment = Segment::new("plan", 0, false);
        let mut writer = Writer::default();
        writer.push_tile(0, 0, [Interval::new(0, 16)]);
        writer.push_tile(1, 1, [Interval::new(16, 16)]);
        segment.writers.push(writer);
        segment.push_group(0, Some(1), 1, [Interval::new(0, 16)]);
        segment.push_group(1, Some(1), 1, [Interval::new(16, 16)]);
        segment.push_rank(0, 0, 0..2);
        ScheduleModel {
            n_ranks: 1,
            node_of: Vec::new(),
            segments: vec![segment],
        }
    }

    #[test]
    fn apply_drop_wait_clears_the_threshold() {
        let mut m = tiny_model();
        m.apply(&Mutation::DropWait { rank: 0, group: 1 }, 0)
            .unwrap();
        let seg = &m.segments[0];
        let groups = seg.groups_of(&seg.ranks[0]);
        assert_eq!(groups[1].wait, None);
        assert_eq!(groups[0].wait, Some(1), "other group intact");
    }

    #[test]
    fn apply_raise_threshold_inflates_like_the_runtime() {
        let mut m = tiny_model();
        m.apply(&Mutation::RaiseThreshold { rank: 0, group: 0 }, 0)
            .unwrap();
        let seg = &m.segments[0];
        assert_eq!(seg.groups_of(&seg.ranks[0])[0].wait, Some(1 + RAISE_DELTA));
    }

    #[test]
    fn timing_and_order_mutations_are_noops_by_construction() {
        let clean = tiny_model();
        let mut delayed = tiny_model();
        delayed
            .apply(
                &Mutation::DelayIncrements {
                    rank: 0,
                    group: 0,
                    count: 1,
                },
                0,
            )
            .unwrap();
        let mut reordered = tiny_model();
        reordered
            .apply(&Mutation::ReorderIncrements { rank: 0 }, 0)
            .unwrap();
        // Structural equality via the debug form: the model derives no
        // PartialEq on purpose (it would tempt float-style comparisons on
        // future fields), but the mutation contract is "unchanged".
        assert_eq!(format!("{clean:?}"), format!("{delayed:?}"));
        assert_eq!(format!("{clean:?}"), format!("{reordered:?}"));
    }

    #[test]
    fn a_mutation_of_a_shared_contract_stays_with_its_rank() {
        // Two ranks share one contract range; raising rank 1's threshold
        // copies the range for rank 1 and leaves rank 0 as it was.
        let mut m = tiny_model();
        m.n_ranks = 2;
        m.segments[0].push_rank(1, 0, 0..2);
        m.apply(&Mutation::RaiseThreshold { rank: 1, group: 1 }, 0)
            .unwrap();
        let seg = &m.segments[0];
        let waits = |rank: usize| -> Vec<Option<u32>> {
            seg.groups_of(&seg.ranks[rank])
                .iter()
                .map(|g| g.wait)
                .collect()
        };
        assert_eq!(waits(0), [Some(1), Some(1)]);
        assert_eq!(waits(1), [Some(1), Some(1 + RAISE_DELTA)]);
        assert_eq!(seg.ranks[0].groups, 0..2);
        assert_eq!(seg.ranks[1].groups, 2..4);
        // Reads stay shared: the copy names the same arena ranges.
        assert_eq!(seg.groups[3].reads, seg.groups[1].reads);
    }

    #[test]
    fn off_target_mutations_are_refused_and_change_nothing() {
        let mut m = tiny_model();
        let before = format!("{m:?}");
        for (mutation, segment) in [
            (Mutation::DropRearm, 1),
            (Mutation::ReorderIncrements { rank: 1 }, 0),
            (Mutation::DropWait { rank: 0, group: 2 }, 0),
        ] {
            assert_eq!(
                m.apply(&mutation, segment),
                Err(OffTarget { mutation, segment })
            );
        }
        assert_eq!(format!("{m:?}"), before);
    }

    #[test]
    fn drop_rearm_clears_the_segment_flag() {
        let mut m = tiny_model();
        m.segments[0].rearmed = true;
        m.apply(&Mutation::DropRearm, 0).unwrap();
        assert!(!m.segments[0].rearmed);
    }
}
