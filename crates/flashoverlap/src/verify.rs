//! The static-verification seam: lowering plans into
//! [`planverify::ScheduleModel`]s, plus the map from each registry
//! mutation to the way the runtime drives it.
//!
//! Everything the verifier checks is a property of plan data — the wave
//! partition, the reordering mapping, the counting-table thresholds —
//! so the lowering never touches the simulator: per distinct epilogue
//! writer (one shared by all ranks, or one per rank for token pools) it
//! emits the tile write footprints straight from the plan's
//! [`EpilogueWriter`](gpu_sim::gemm::EpilogueWriter)
//! spans, and per rank and wave group the wait threshold (the group's
//! tile count), the scheduled increments, and the packed-buffer region
//! the group's collective reads. Every execution lowers as the chain it
//! runs as, one segment per plan, carrying the ping-pong counting-table
//! parity and the presence of the rearm chain exactly as the chain
//! executor enqueues them; a single plan is a one-segment chain.
//!
//! [`runtime_seam`] is the other half of the conformance story. The
//! runtime takes a registry [`Mutation`] itself: the wait and rearm
//! kinds through [`SequenceOptions::instrument`], as the same
//! segment-and-mutation pair [`ScheduleModel::apply`] takes; the
//! increment kinds as a [`Fault`] through
//! [`SequenceOptions::resilient`]. Every path takes the same options;
//! the path only fixes the chain's shape.
//!
//! [`SequenceOptions::instrument`]: crate::SequenceOptions::instrument
//! [`SequenceOptions::resilient`]: crate::SequenceOptions::resilient

use std::borrow::Cow;
use std::ops::Range;

use gpu_sim::gemm::FootprintSink;
use planverify::{
    ExecPath, Interval, Mutation, ScheduleModel, Segment, TileWrite, VerifyReport, Violation,
    Writer,
};
use sim::SimDuration;

use crate::error::FlashOverlapError;
use crate::pipeline::Pipeline;
use crate::resilience::Fault;
use crate::runtime::OverlapPlan;

/// The rank→node map lowered into the model — empty for single-node
/// systems, so the verifier's node-coverage pass only runs on schedules
/// that actually rendezvous across nodes.
fn node_map_of(plan: &OverlapPlan) -> Vec<usize> {
    if plan.system.topology.spans_nodes() {
        plan.system.topology.node_map()
    } else {
        Vec::new()
    }
}

/// Lowers an execution — a single plan, `Pipeline` layers or
/// `execute_sequence` batches — into one segment per plan, with the
/// chain executor's table ping-pong (parity `i % 2`) and rearm chains
/// (present from the first table reuse, segment 2, onward). A lone plan
/// is the segment "plan"; chained ones are "segment {i}".
pub fn model_of_chain(plans: &[&OverlapPlan]) -> ScheduleModel {
    let n_ranks = plans.first().map_or(0, |p| p.system.n_gpus);
    let label = |i: usize| -> Cow<'static, str> {
        if plans.len() == 1 {
            "plan".into()
        } else {
            format!("segment {i}").into()
        }
    };
    ScheduleModel {
        n_ranks,
        node_of: plans.first().map_or_else(Vec::new, |p| node_map_of(p)),
        segments: plans
            .iter()
            .enumerate()
            .map(|(i, p)| segment_of(p, label(i), i % 2, i >= 2))
            .collect(),
    }
}

/// Lowers one plan's segment. Ranks that pack identically share writer
/// 0, and since every non-token mapping also gives each group the same
/// send region on every rank, those ranks share one contract range too.
fn segment_of(
    plan: &OverlapPlan,
    label: Cow<'static, str>,
    table: usize,
    rearmed: bool,
) -> Segment {
    let n = plan.system.n_gpus;
    let per_rank = plan.writes_per_rank();
    let mut segment = Segment::new(label, table, rearmed);
    segment.writers = (0..if per_rank { n } else { 1 })
        .map(|rank| writer_of(plan, rank))
        .collect();
    let mut shared: Option<Range<usize>> = None;
    for rank in 0..n {
        let contracts = match &shared {
            Some(contracts) => contracts.clone(),
            None => push_contracts(plan, rank, &mut segment),
        };
        if !per_rank {
            shared = Some(contracts.clone());
        }
        segment.push_rank(rank, if per_rank { rank } else { 0 }, contracts);
    }
    segment
}

/// Pushes `rank`'s per-group contracts — the wait threshold (the group's
/// tile count), the scheduled increments and the packed region the
/// group's collective reads — and returns their range.
fn push_contracts(plan: &OverlapPlan, rank: usize, segment: &mut Segment) -> Range<usize> {
    let start = segment.groups.len();
    for (g, &count) in plan.group_tile_counts().iter().enumerate() {
        let region = plan.group_send_region(g, rank);
        segment.push_group(
            g,
            // A group with no collective schedules no wait either.
            region.map(|_| count),
            count,
            region
                .filter(|&(_, len)| len > 0)
                .map(|(start, len)| Interval::new(start, len)),
        );
    }
    start..segment.groups.len()
}

/// Lowers `rank`'s epilogue write footprints into one flat writer,
/// tiles in packed order so the arena follows the buffer. The epilogue
/// hands every footprint straight to the writer being built.
fn writer_of(plan: &OverlapPlan, rank: usize) -> Writer {
    let grid = plan.config.grid(plan.dims);
    let layout = plan.layout();
    let order = &layout.reorder_order;
    let mut lowering = Lowering {
        writer: Writer {
            tiles: Vec::with_capacity(order.len()),
            intervals: Vec::with_capacity(order.len()),
        },
        group_of_tile: &layout.group_of_tile,
        start: 0,
    };
    plan.writer_for(rank)
        .footprints(&grid, order, &mut lowering);
    lowering.writer
}

/// The [`FootprintSink`] the lowering builds a [`Writer`] with: spans
/// become the arena's intervals, and each finished tile takes the
/// intervals since the previous one, tagged with its group.
struct Lowering<'a> {
    writer: Writer,
    group_of_tile: &'a [u32],
    /// Arena index of the current tile's first interval.
    start: usize,
}

impl FootprintSink for Lowering<'_> {
    fn span(&mut self, span: Range<usize>) {
        self.writer
            .intervals
            .push(Interval::new(span.start, span.end - span.start));
    }

    fn end_tile(&mut self, tile: u32) {
        let end = self.writer.intervals.len();
        self.writer.tiles.push(TileWrite {
            tile,
            group: self.group_of_tile.get(tile as usize).copied().unwrap_or(0) as usize,
            intervals: self.start..end,
        });
        self.start = end;
    }

    fn slots(&mut self, tiles: &[u32], offsets: &[usize], end: usize) {
        // One interval per tile, appended in bulk.
        let first = self.writer.intervals.len();
        let ends = offsets.iter().skip(1).chain(std::iter::once(&end));
        self.writer.intervals.extend(
            offsets
                .iter()
                .zip(ends)
                .map(|(&start, &end)| Interval::new(start, end - start)),
        );
        let group_of_tile = self.group_of_tile;
        self.writer
            .tiles
            .extend(tiles.iter().zip(first..).map(|(&tile, i)| TileWrite {
                tile,
                group: group_of_tile.get(tile as usize).copied().unwrap_or(0) as usize,
                intervals: i..i + 1,
            }));
        self.start = self.writer.intervals.len();
    }
}

impl OverlapPlan {
    /// Statically verifies this plan's signal/wait schedule: threshold
    /// feasibility, deadlock freedom, and tile-granular race/coverage.
    pub fn verify(&self) -> VerifyReport {
        planverify::verify(&model_of_chain(&[self]))
    }

    /// [`OverlapPlan::verify`] as a gate: `Err` on the first violation,
    /// naming the shape, group, and threshold.
    ///
    /// # Errors
    ///
    /// [`FlashOverlapError::BadInputs`] describing the first proven
    /// violation.
    pub fn check_static(&self) -> Result<(), FlashOverlapError> {
        let report = self.verify();
        if report.is_clean() {
            return Ok(());
        }
        reject_if_invalid(&report, &plan_context(self))
    }

    /// Per-group wait thresholds as the runtime enqueues them: the
    /// group's tile count, or `None` for groups that schedule no wait
    /// (zero communicated payload). Persisted with plan-cache snapshots
    /// so preloading can cross-check the rebuilt schedule.
    pub fn wait_thresholds(&self) -> Vec<Option<u32>> {
        self.group_tile_counts()
            .iter()
            .enumerate()
            .map(|(g, &c)| self.group_send_region(g, 0).map(|_| c))
            .collect()
    }
}

impl Pipeline {
    /// Statically verifies the whole layer chain, including the
    /// counting-table ping-pong and rearm edges the chain executor
    /// enqueues.
    pub fn verify(&self) -> VerifyReport {
        let plans: Vec<&OverlapPlan> = self.plans().iter().collect();
        planverify::verify(&model_of_chain(&plans))
    }
}

fn plan_context(plan: &OverlapPlan) -> String {
    format!(
        "{}x{}x{} {:?}",
        plan.dims.m,
        plan.dims.n,
        plan.dims.k,
        plan.primitive()
    )
}

/// Gates a verify report with a caller-supplied context string (shape,
/// cache key, file name) — the serving cache and CLI use this to reject
/// corrupt plans with a message naming where they came from.
///
/// # Errors
///
/// [`FlashOverlapError::BadInputs`] describing the first violation.
pub fn reject_if_invalid(report: &VerifyReport, context: &str) -> Result<(), FlashOverlapError> {
    match report.violations.first() {
        None => Ok(()),
        Some(v) => Err(FlashOverlapError::BadInputs {
            reason: format!("statically invalid schedule for {context}: {v}"),
        }),
    }
}

/// Renders one violation compactly for logs/JSON (`label: detail`).
pub fn violation_line(v: &Violation) -> String {
    format!("{}: {v}", v.label())
}

/// How the runtime drives a registry mutation on an execute path, or
/// why nothing does.
#[derive(Debug, Clone, PartialEq)]
pub enum RuntimeSeam {
    /// Drive via `SequenceOptions::instrument`, with the mutation and
    /// its segment as [`crate::Instrumentation::mutation`].
    Instrument,
    /// Drive via `SequenceOptions::resilient` with this fault in the
    /// targeted segment's [`crate::FaultPlan`].
    Fault(Fault),
    /// Nothing to drive: the mutation is benign or meaningless here.
    Nothing(&'static str),
}

/// Signal delay used when lowering [`Mutation::DelayIncrements`] to a
/// [`Fault::DelayedIncrement`]: long enough to stretch any overlap
/// window, short enough to stay under watchdog deadlines in self-tests
/// that want a recovered run.
pub const SEAM_DELAY: SimDuration = SimDuration::from_micros(200);

/// Maps a registry mutation on an execute path to the runtime seam that
/// drives it (the dynamic half of the conformance matrix).
pub fn runtime_seam(mutation: &Mutation, path: ExecPath) -> RuntimeSeam {
    match (*mutation, path) {
        (Mutation::DropWait { .. } | Mutation::RaiseThreshold { .. }, _)
        | (Mutation::DropRearm, ExecPath::Chain) => RuntimeSeam::Instrument,
        (Mutation::DropIncrements { rank, group, count }, _) => {
            // Every path via `SequenceOptions::resilient`, one
            // FaultPlan per chain segment.
            RuntimeSeam::Fault(Fault::DroppedIncrement { rank, group, count })
        }
        (Mutation::DelayIncrements { rank, group, count }, _) => {
            RuntimeSeam::Fault(Fault::DelayedIncrement {
                rank,
                group,
                count,
                delay: SEAM_DELAY,
            })
        }
        (Mutation::ReorderIncrements { .. }, _) => RuntimeSeam::Nothing(
            "increments commute; the simulator's issue order is already one \
                                  of the permutations the totals-only model proves equivalent",
        ),
        (Mutation::DropRearm, ExecPath::Single) => {
            RuntimeSeam::Nothing("single-shot executions never reuse a counting table")
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::runtime::CommPattern;
    use crate::system::SystemSpec;
    use gpu_sim::gemm::GemmDims;

    fn plan(pattern: CommPattern) -> OverlapPlan {
        let dims = GemmDims::new(512, 1024, 512);
        let system = SystemSpec::rtx4090(2);
        OverlapPlan::tuned(dims, pattern, system).unwrap()
    }

    #[test]
    fn tuned_plans_verify_clean_for_every_pattern() {
        for pattern in [
            CommPattern::AllReduce,
            CommPattern::ReduceScatter,
            CommPattern::AllGather,
        ] {
            let p = plan(pattern);
            let report = p.verify();
            assert!(report.is_clean(), "{:?}: {:?}", p, report.violations);
            assert!(report.stats.waits > 0, "model must contain real waits");
            assert!(report.stats.reads > 0);
            p.check_static().unwrap();
        }
    }

    #[test]
    fn multi_node_plan_lowers_its_node_map_and_verifies_clean() {
        let dims = GemmDims::new(512, 1024, 512);
        let system = SystemSpec::rtx4090(4).with_nodes(2);
        let p = OverlapPlan::tuned(dims, CommPattern::AllReduce, system).unwrap();
        let model = model_of_chain(&[&p]);
        assert_eq!(model.node_of, vec![0, 0, 1, 1]);
        let report = p.verify();
        assert!(report.is_clean(), "{:?}", report.violations);
        assert!(
            report.stats.node_checks >= 2,
            "node-coverage pass must run on hierarchical models"
        );
        // Single-node plans lower an empty map: the pass is skipped.
        let flat = plan(CommPattern::AllReduce);
        assert!(model_of_chain(&[&flat]).node_of.is_empty());
        assert_eq!(flat.verify().stats.node_checks, 0);
    }

    #[test]
    fn all_to_all_plan_verifies_clean_including_zero_payload_groups() {
        let dims = GemmDims::new(256, 512, 256);
        let system = SystemSpec::rtx4090(2);
        // Route every token to rank 0: rank-1-bound groups carry zero
        // payload on some (src, dest) pairs.
        let routing = vec![vec![0usize; 256], vec![0usize; 256]];
        let p = OverlapPlan::tuned(dims, CommPattern::AllToAll { routing }, system).unwrap();
        let report = p.verify();
        assert!(report.is_clean(), "{:?}", report.violations);
    }

    /// An All-to-All pattern where rank `r` sends token `i` to
    /// `(7i + 3r) mod tp`: every rank routes differently.
    fn routed_differently(tp: usize, tokens: usize) -> CommPattern {
        CommPattern::AllToAll {
            routing: (0..tp)
                .map(|r| (0..tokens).map(|i| (i * 7 + r * 3) % tp).collect())
                .collect(),
        }
    }

    #[test]
    fn token_plans_lower_a_writer_per_rank_and_the_rest_share_one() {
        let dims = GemmDims::new(2048, 4096, 3584);
        for tp in [2, 4] {
            let system = SystemSpec::rtx4090(tp);
            let a2a =
                OverlapPlan::tuned(dims, routed_differently(tp, 2048), system.clone()).unwrap();
            let model = model_of_chain(&[&a2a]);
            let seg = &model.segments[0];
            assert_eq!(
                seg.writers.len(),
                tp,
                "token pools follow each rank's routing"
            );
            let named: Vec<usize> = seg.ranks.iter().map(|r| r.writer).collect();
            assert_eq!(named, (0..tp).collect::<Vec<_>>());
            assert!(
                seg.writers.windows(2).all(|w| w[0] != w[1]),
                "ranks route differently, so their footprints must differ"
            );
            for pattern in [
                CommPattern::AllReduce,
                CommPattern::ReduceScatter,
                CommPattern::AllGather,
            ] {
                let p = OverlapPlan::tuned(dims, pattern, system.clone()).unwrap();
                let model = model_of_chain(&[&p]);
                let seg = &model.segments[0];
                assert_eq!(seg.writers.len(), 1, "{:?}", p.primitive());
                assert!(seg.ranks.iter().all(|r| r.writer == 0));
                assert_eq!(
                    seg.writers[0].tiles.len(),
                    p.config.grid(dims).num_tiles() as usize
                );
            }
        }
    }

    #[test]
    fn verify_stats_are_pinned_per_pattern_tp_and_node_count() {
        // (tp, nodes, pattern, tiles, reads, waits, node_checks) as the
        // per-tile lowering counted them: `tiles` sums over ranks, shared
        // writer or not.
        let expected = [
            (2, 1, "allreduce", 512, 4, 4, 0),
            (2, 1, "reducescatter", 512, 4, 4, 0),
            (2, 1, "allgather", 512, 4, 4, 0),
            (2, 1, "alltoall", 512, 4, 4, 0),
            (2, 2, "allreduce", 512, 4, 4, 2),
            (2, 2, "reducescatter", 512, 4, 4, 2),
            (2, 2, "allgather", 512, 4, 4, 2),
            (2, 2, "alltoall", 512, 4, 4, 2),
            (4, 1, "allreduce", 1024, 4, 4, 0),
            (4, 1, "reducescatter", 1024, 8, 8, 0),
            (4, 1, "allgather", 1024, 8, 8, 0),
            (4, 1, "alltoall", 1024, 8, 8, 0),
            (4, 2, "allreduce", 1024, 8, 8, 2),
            (4, 2, "reducescatter", 1024, 8, 8, 2),
            (4, 2, "allgather", 1024, 8, 8, 2),
            (4, 2, "alltoall", 1024, 8, 8, 2),
        ];
        let dims = GemmDims::new(2048, 4096, 3584);
        for (tp, nodes, name, tiles, reads, waits, node_checks) in expected {
            let pattern = match name {
                "allreduce" => CommPattern::AllReduce,
                "reducescatter" => CommPattern::ReduceScatter,
                "allgather" => CommPattern::AllGather,
                _ => routed_differently(tp, 2048),
            };
            let mut system = SystemSpec::rtx4090(tp);
            if nodes > 1 {
                system = system.with_nodes(nodes);
            }
            let report = OverlapPlan::tuned(dims, pattern, system).unwrap().verify();
            assert!(
                report.is_clean(),
                "{name} tp {tp} nodes {nodes}: {:?}",
                report.violations
            );
            let s = report.stats;
            assert_eq!(
                (s.tiles, s.reads, s.waits, s.node_checks),
                (tiles, reads, waits, node_checks),
                "{name} at TP {tp} on {nodes} node(s)"
            );
        }
    }

    #[test]
    fn mutated_model_fails_statically_with_named_target() {
        let p = plan(CommPattern::AllReduce);
        let mut model = model_of_chain(&[&p]);
        model
            .apply(&Mutation::RaiseThreshold { rank: 1, group: 0 }, 0)
            .unwrap();
        let report = planverify::verify(&model);
        assert_eq!(report.count_of("unreachable-threshold"), 1);
        let err = reject_if_invalid(&report, "test-plan").unwrap_err();
        let text = err.to_string();
        assert!(text.contains("test-plan"), "{text}");
        assert!(text.contains("rank 1"), "{text}");
        assert!(text.contains("group 0"), "{text}");
    }

    #[test]
    fn chain_model_ping_pongs_tables_and_rearms_from_segment_two() {
        let p = plan(CommPattern::AllReduce);
        let plans = [&p, &p, &p, &p];
        let model = model_of_chain(&plans);
        let meta: Vec<(usize, bool)> = model
            .segments
            .iter()
            .map(|s| (s.table, s.rearmed))
            .collect();
        assert_eq!(meta, vec![(0, false), (1, false), (0, true), (1, true)]);
        assert!(planverify::verify(&model).is_clean());
        // Dropping batch 2's rearm is the statically visible stale-table
        // hazard the sequence mutation self-test exercises dynamically.
        let mut mutated = model;
        mutated.apply(&Mutation::DropRearm, 2).unwrap();
        let report = planverify::verify(&mutated);
        assert!(
            report.count_of("stale-rearm") > 0,
            "{:?}",
            report.violations
        );
    }

    #[test]
    fn wait_thresholds_match_group_tile_counts() {
        let p = plan(CommPattern::AllReduce);
        let thresholds = p.wait_thresholds();
        assert_eq!(thresholds.len(), p.group_tile_counts().len());
        for (t, &c) in thresholds.iter().zip(p.group_tile_counts()) {
            assert_eq!(*t, Some(c));
        }
    }

    #[test]
    fn every_matrix_cell_resolves_to_a_seam() {
        // The registry is the single enumeration: every (kind, path) cell
        // must map to a concrete runtime seam or an explicit reason.
        for cell in planverify::conformance_matrix() {
            let seam = runtime_seam(&cell.mutation.sample(), cell.path);
            match cell.dynamic.label() {
                "caught" | "conditional" => assert!(
                    matches!(seam, RuntimeSeam::Instrument | RuntimeSeam::Fault(_)),
                    "({}, {}) claims dynamic coverage but has seam {seam:?}",
                    cell.mutation,
                    cell.path
                ),
                _ => assert!(
                    matches!(seam, RuntimeSeam::Nothing(_)),
                    "({}, {}) claims no dynamic coverage but has seam {seam:?}",
                    cell.mutation,
                    cell.path
                ),
            }
        }
    }
}
