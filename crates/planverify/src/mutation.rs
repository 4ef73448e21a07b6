//! The mutation registry and the protocol-conformance matrix.
//!
//! Every schedule corruption the suite can express is a [`Mutation`]. The
//! static model applies it with [`crate::model::ScheduleModel::apply`],
//! and the runtime takes the same segment-and-mutation pair: the wait and
//! rearm kinds through its instrumentation, the increment kinds as faults
//! under the resilient runtime. Every execute path is an [`ExecPath`], and
//! [`conformance_matrix`] classifies each `(mutation, path)` cell as
//! caught-static, caught-dynamic, documented-benign or not-applicable,
//! with the dynamic-observability caveats as machine-checked [`Caveat`]
//! entries.

use std::fmt;

/// The threshold inflation [`Mutation::RaiseThreshold`] applies: far
/// beyond any group's tile count, so the raised wait is unreachable.
pub const RAISE_DELTA: u32 = 1_000_000;

/// One schedule corruption, parameterized with its target rank and group;
/// the segment it hits is given alongside. The registry stays
/// simulator-free: `flashoverlap::verify::runtime_seam` names how the
/// runtime drives each one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mutation {
    /// Delete the `WaitCounter` guarding `(rank, group)` — the collective
    /// launches ungated.
    DropWait {
        /// Target rank.
        rank: usize,
        /// Target group.
        group: usize,
    },
    /// Inflate the wait threshold by [`RAISE_DELTA`], beyond any
    /// reachable count.
    RaiseThreshold {
        /// Target rank.
        rank: usize,
        /// Target group.
        group: usize,
    },
    /// Swallow `count` of the group's counting-table increments (runtime
    /// seam: `Fault::DroppedIncrement` under the resilient runtime).
    DropIncrements {
        /// Target rank.
        rank: usize,
        /// Target group.
        group: usize,
        /// Increments swallowed.
        count: u32,
    },
    /// Delay `count` of the group's increments without losing them
    /// (runtime seam: `Fault::DelayedIncrement`).
    DelayIncrements {
        /// Target rank.
        rank: usize,
        /// Target group.
        group: usize,
        /// Increments delayed.
        count: u32,
    },
    /// Permute the order the rank's epilogue issues its increments in.
    /// No runtime seam exists (the simulator issues increments in tile
    /// completion order) — the registry documents *why* none is needed:
    /// the totals-only model proves any order equivalent.
    ReorderIncrements {
        /// Target rank.
        rank: usize,
    },
    /// Delete a chained segment's rearm edges (wait on the table's
    /// previous user → `ResetCounter` → ready-event).
    DropRearm,
}

impl Mutation {
    /// This mutation's registry kind.
    pub fn kind(&self) -> MutationKind {
        match self {
            Mutation::DropWait { .. } => MutationKind::DropWait,
            Mutation::RaiseThreshold { .. } => MutationKind::RaiseThreshold,
            Mutation::DropIncrements { .. } => MutationKind::DropIncrements,
            Mutation::DelayIncrements { .. } => MutationKind::DelayIncrements,
            Mutation::ReorderIncrements { .. } => MutationKind::ReorderIncrements,
            Mutation::DropRearm => MutationKind::DropRearm,
        }
    }

    /// The wait guarding `(rank, group)` once this mutation applies,
    /// given the scheduled `wait`: [`Mutation::DropWait`] deletes it,
    /// [`Mutation::RaiseThreshold`] raises it by [`RAISE_DELTA`], and
    /// every other mutation or target leaves it as it is.
    pub fn wait(&self, rank: usize, group: usize, wait: Option<u32>) -> Option<u32> {
        match *self {
            Mutation::DropWait { rank: r, group: g } if (r, g) == (rank, group) => None,
            Mutation::RaiseThreshold { rank: r, group: g } if (r, g) == (rank, group) => {
                wait.map(|t| t + RAISE_DELTA)
            }
            _ => wait,
        }
    }
}

/// A mutation aimed at a segment, rank or group the schedule does not
/// have. Applied anyway it would change nothing, and a clean run would
/// read like a missed detection, so the model and the runtime refuse it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OffTarget {
    /// The refused mutation.
    pub mutation: Mutation,
    /// The segment it aimed at.
    pub segment: usize,
}

impl fmt::Display for OffTarget {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let OffTarget { mutation, segment } = self;
        write!(
            f,
            "mutation target {mutation:?} at segment {segment} is outside the plan"
        )
    }
}

impl std::error::Error for OffTarget {}

/// The registry of mutation kinds (target-free).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MutationKind {
    /// Delete a wait.
    DropWait,
    /// Inflate a wait threshold.
    RaiseThreshold,
    /// Swallow increments.
    DropIncrements,
    /// Delay increments.
    DelayIncrements,
    /// Permute increment order.
    ReorderIncrements,
    /// Delete a rearm chain.
    DropRearm,
}

impl MutationKind {
    /// Every registered mutation kind.
    pub const ALL: [MutationKind; 6] = [
        MutationKind::DropWait,
        MutationKind::RaiseThreshold,
        MutationKind::DropIncrements,
        MutationKind::DelayIncrements,
        MutationKind::ReorderIncrements,
        MutationKind::DropRearm,
    ];

    /// A mutation of this kind aimed at rank 0, group 0 (count 1 for the
    /// increment kinds): a slot every real plan has, so one sample per
    /// kind drives each matrix cell.
    pub fn sample(&self) -> Mutation {
        let (rank, group, count) = (0, 0, 1);
        match self {
            MutationKind::DropWait => Mutation::DropWait { rank, group },
            MutationKind::RaiseThreshold => Mutation::RaiseThreshold { rank, group },
            MutationKind::DropIncrements => Mutation::DropIncrements { rank, group, count },
            MutationKind::DelayIncrements => Mutation::DelayIncrements { rank, group, count },
            MutationKind::ReorderIncrements => Mutation::ReorderIncrements { rank },
            MutationKind::DropRearm => Mutation::DropRearm,
        }
    }

    /// Stable kebab-case label (report keys, CI assertions).
    pub fn label(&self) -> &'static str {
        match self {
            MutationKind::DropWait => "drop-wait",
            MutationKind::RaiseThreshold => "raise-threshold",
            MutationKind::DropIncrements => "drop-increments",
            MutationKind::DelayIncrements => "delay-increments",
            MutationKind::ReorderIncrements => "reorder-increments",
            MutationKind::DropRearm => "drop-rearm",
        }
    }
}

impl fmt::Display for MutationKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// The shapes an execution can take. Every entry point lowers to one
/// chain executor, so only the chain's length tells the paths apart.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ExecPath {
    /// One segment (`OverlapPlan::execute_with`): no counting table is
    /// reused.
    Single,
    /// Two or more segments (`execute_sequence` batches, `Pipeline`
    /// layers): tables ping-pong by segment parity and are rearmed from
    /// segment 2 on. A layer's fused epilogue changes no verdict.
    Chain,
}

impl ExecPath {
    /// Every execute path.
    pub const ALL: [ExecPath; 2] = [ExecPath::Single, ExecPath::Chain];

    /// Stable label.
    pub fn label(&self) -> &'static str {
        match self {
            ExecPath::Single => "single",
            ExecPath::Chain => "chain",
        }
    }
}

impl fmt::Display for ExecPath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// The primary verdict of a conformance cell — the strongest guarantee
/// the suite makes about the `(mutation, path)` pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expectation {
    /// `planverify` proves the mutated schedule unsafe from plan data
    /// alone, before execution.
    CaughtStatic,
    /// Static analysis is provably blind to it (the model is clock-free),
    /// but a dynamic detector (SimSan or the watchdog) reports it at run
    /// time; the reason names the detector.
    CaughtDynamic(&'static str),
    /// The mutation provably cannot corrupt results; the reason is the
    /// machine-checked argument.
    Benign(&'static str),
    /// The mutation has no meaning on this path; the reason says why.
    NotApplicable(&'static str),
}

impl Expectation {
    /// Stable verdict label.
    pub fn label(&self) -> &'static str {
        match self {
            Expectation::CaughtStatic => "caught-static",
            Expectation::CaughtDynamic(_) => "caught-dynamic",
            Expectation::Benign(_) => "benign",
            Expectation::NotApplicable(_) => "not-applicable",
        }
    }

    /// The reason attached to non-caught-static verdicts.
    pub fn reason(&self) -> Option<&'static str> {
        match self {
            Expectation::CaughtStatic => None,
            Expectation::CaughtDynamic(r)
            | Expectation::Benign(r)
            | Expectation::NotApplicable(r) => Some(r),
        }
    }
}

/// How the *dynamic* layer (SimSan, the watchdog) sees the cell —
/// secondary evidence alongside the primary [`Expectation`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DynamicCoverage {
    /// A runtime seam exists and the dynamic detector always reports it.
    Caught(&'static str),
    /// A runtime seam exists but detection needs an observability
    /// condition; the id names the registered [`Caveat`].
    Conditional(&'static str),
    /// No runtime seam reaches this path; the reason says why.
    None(&'static str),
    /// The mutation is benign, so there is nothing to detect.
    Benign,
}

impl DynamicCoverage {
    /// Stable label.
    pub fn label(&self) -> &'static str {
        match self {
            DynamicCoverage::Caught(_) => "caught",
            DynamicCoverage::Conditional(_) => "conditional",
            DynamicCoverage::None(_) => "none",
            DynamicCoverage::Benign => "benign",
        }
    }

    /// The caveat id, for conditional coverage.
    pub fn caveat(&self) -> Option<&'static str> {
        match self {
            DynamicCoverage::Conditional(id) => Some(id),
            _ => None,
        }
    }
}

/// One cell of the conformance matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MatrixCell {
    /// The mutation kind.
    pub mutation: MutationKind,
    /// The execute path.
    pub path: ExecPath,
    /// Primary verdict.
    pub expected: Expectation,
    /// Secondary dynamic-layer evidence.
    pub dynamic: DynamicCoverage,
}

/// A machine-checked dynamic-observability caveat: a condition under
/// which the dynamic checker is a *true negative* while the static
/// verifier still catches the mutation. Each entry is exercised by a
/// conformance test of the same id.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Caveat {
    /// Stable id, referenced by [`DynamicCoverage::Conditional`] cells
    /// and by the test that exercises it.
    pub id: &'static str,
    /// What the condition is and why static analysis is unaffected.
    pub summary: &'static str,
}

/// The registered caveats.
pub fn caveats() -> &'static [Caveat] {
    &[
        Caveat {
            id: "wave-collapse",
            summary: "with comm_sms > 0 a small schedule's planned waves can collapse into one \
                      runtime wave, closing the use-before-signal window a dropped wait would \
                      open — SimSan's miss is a true negative; planverify catches the dropped \
                      wait from plan data regardless",
        },
        Caveat {
            id: "zero-payload-group",
            summary: "a group with no communicated payload schedules neither wait nor \
                      collective, so wait mutations aimed at it are no-ops for both the static \
                      and the dynamic checker",
        },
        Caveat {
            id: "sequence-edge-observability",
            summary: "a dropped cross-batch rearm edge is dynamically observable only when the \
                      producing batch is compute-bound enough to leave the stale-count window \
                      open; planverify flags the missing reset unconditionally",
        },
    ]
}

/// The full conformance matrix: every registered mutation kind crossed
/// with every execute path, classified. Exhaustive by construction —
/// iteration over [`MutationKind::ALL`] × [`ExecPath::ALL`].
pub fn conformance_matrix() -> Vec<MatrixCell> {
    let mut cells = Vec::with_capacity(MutationKind::ALL.len() * ExecPath::ALL.len());
    for kind in MutationKind::ALL {
        for path in ExecPath::ALL {
            cells.push(MatrixCell {
                mutation: kind,
                path,
                expected: expected(kind, path),
                dynamic: dynamic(kind, path),
            });
        }
    }
    cells
}

fn expected(kind: MutationKind, path: ExecPath) -> Expectation {
    match (kind, path) {
        (MutationKind::DropWait | MutationKind::RaiseThreshold, _) => Expectation::CaughtStatic,
        (MutationKind::DropIncrements, _) => Expectation::CaughtStatic,
        (MutationKind::DelayIncrements, _) => Expectation::CaughtDynamic(
            "the model is clock-free — a delay changes no counting-table total; the watchdog \
             catches the starved group (or chain segment) past its predictor-derived deadline \
             and recovers via tail collectives",
        ),
        (MutationKind::ReorderIncrements, _) => Expectation::Benign(
            "increments are commutative and a wait observes only the running total, never the \
             order — the totals-only model makes any permutation a structural no-op",
        ),
        (MutationKind::DropRearm, ExecPath::Single) => Expectation::NotApplicable(
            "a single-shot execution never reuses a counting table, so there is no rearm chain \
             to drop",
        ),
        (MutationKind::DropRearm, _) => Expectation::CaughtStatic,
    }
}

fn dynamic(kind: MutationKind, path: ExecPath) -> DynamicCoverage {
    match (kind, path) {
        (MutationKind::DropWait, _) => DynamicCoverage::Conditional("wave-collapse"),
        (MutationKind::RaiseThreshold, _) => {
            DynamicCoverage::Caught("SimSan reports lost-signal + deadlock at drain time")
        }
        (MutationKind::DropIncrements, _) => DynamicCoverage::Caught(
            "the resilient runtime's watchdog escalates (outcome leaves Clean); on chained \
             paths the per-segment FaultPlan arms it and the chain watchdog breaks the wedge",
        ),
        (MutationKind::DelayIncrements, _) => DynamicCoverage::Caught(
            "the watchdog fires once the delay exceeds the per-segment deadline and recovers \
             the group",
        ),
        (MutationKind::ReorderIncrements, _) => DynamicCoverage::Benign,
        (MutationKind::DropRearm, ExecPath::Chain) => {
            DynamicCoverage::Conditional("sequence-edge-observability")
        }
        (MutationKind::DropRearm, ExecPath::Single) => {
            DynamicCoverage::None("no rearm chain exists single-shot")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrix_is_exhaustive_and_unique() {
        let cells = conformance_matrix();
        assert_eq!(cells.len(), MutationKind::ALL.len() * ExecPath::ALL.len());
        for kind in MutationKind::ALL {
            for path in ExecPath::ALL {
                assert_eq!(
                    cells
                        .iter()
                        .filter(|c| c.mutation == kind && c.path == path)
                        .count(),
                    1,
                    "cell ({kind}, {path}) must appear exactly once"
                );
            }
        }
    }

    #[test]
    fn every_conditional_cell_names_a_registered_caveat() {
        let ids: Vec<&str> = caveats().iter().map(|c| c.id).collect();
        for cell in conformance_matrix() {
            if let Some(id) = cell.dynamic.caveat() {
                assert!(
                    ids.contains(&id),
                    "cell ({}, {}) references unregistered caveat {id}",
                    cell.mutation,
                    cell.path
                );
            }
        }
    }

    #[test]
    fn every_caveat_is_referenced_or_standalone_documented() {
        // zero-payload-group is exercised by a dedicated conformance test
        // rather than a matrix cell; the other caveats must be reachable
        // from the matrix so they cannot go stale.
        let referenced: Vec<&str> = conformance_matrix()
            .iter()
            .filter_map(|c| c.dynamic.caveat())
            .collect();
        for caveat in caveats() {
            if caveat.id == "zero-payload-group" {
                continue;
            }
            assert!(
                referenced.contains(&caveat.id),
                "caveat {} is registered but unreferenced",
                caveat.id
            );
        }
    }

    #[test]
    fn verdict_classes_are_all_exercised() {
        let labels: std::collections::BTreeSet<&str> = conformance_matrix()
            .iter()
            .map(|c| c.expected.label())
            .collect();
        assert_eq!(
            labels,
            [
                "benign",
                "caught-dynamic",
                "caught-static",
                "not-applicable"
            ]
            .into(),
            "every verdict class, and no other, labels some cell"
        );
    }

    #[test]
    fn matrix_and_caveat_counts_are_pinned() {
        // The shape the `verify` command reports: 6 mutation kinds x 2
        // paths, 7 proven statically, 3 documented caveats.
        let cells = conformance_matrix();
        assert_eq!(cells.len(), 12);
        let caught_static = cells
            .iter()
            .filter(|c| c.expected == Expectation::CaughtStatic)
            .count();
        assert_eq!(caught_static, 7);
        assert_eq!(caveats().len(), 3);
    }

    #[test]
    fn every_sample_has_its_kind() {
        for kind in MutationKind::ALL {
            assert_eq!(kind.sample().kind(), kind);
        }
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(MutationKind::DropWait.label(), "drop-wait");
        assert_eq!(ExecPath::Chain.label(), "chain");
        assert_eq!(Expectation::CaughtStatic.label(), "caught-static");
        assert_eq!(Expectation::Benign("x").reason(), Some("x"));
    }
}
