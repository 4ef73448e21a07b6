//! Static verification of FlashOverlap signal/wait schedules.
//!
//! The paper's mechanism (§3.2.4/§3.3) gates each wave group's collective
//! on a counting-table threshold that the reordered GEMM epilogue
//! increments tile by tile. Whether such a schedule preserves the
//! dependences of the unfused program is a property of the *plan data*,
//! not of any particular simulated interleaving — so this crate checks it
//! symbolically, before a single simulated cycle runs:
//!
//! 1. **Threshold feasibility** ([`check`]): every wait threshold is
//!    exactly reachable from the increments scheduled on its counting
//!    table — an unreachable threshold is a guaranteed deadlock (reported
//!    with the blocked `(rank, table, group, threshold)` like the
//!    runtime's `StuckWait`), and an under-full threshold releases the
//!    collective before every contributing tile landed.
//! 2. **Deadlock freedom**: the wait graph (counter waits, the serial
//!    per-rank comm stream, collective rendezvous, and the cross-segment
//!    rearm edges `wait prev-user → reset → ready-event`) is acyclic by
//!    construction for linear chains, so the deadlock class reduces to
//!    unreachable thresholds plus *missing rearm edges* — a reused table
//!    whose stale counts satisfy the next user's wait early.
//! 3. **Race freedom and coverage, a region proof with failures named
//!    per tile**: the collective reads each wait guards are checked
//!    against the reordered GEMM writes at the mapping's true
//!    granularity (whole slots, per-destination subtiles, per-token row
//!    slices). The proof runs over each writer's merged same-group runs —
//!    the contiguous group regions the reordering produces — and only a
//!    failing read is mapped back to the tiles that race.
//!
//! The [`shadow`] module is the conflict predicate shared with SimSan's
//! dynamic checker, and [`mutation`] is the unified registry behind the
//! protocol-conformance matrix (every mutation × every execute path is
//! caught statically, caught dynamically, or documented benign).
//!
//! The crate is deliberately free of simulator and runtime dependencies:
//! `flashoverlap` lowers its plans into a [`model::ScheduleModel`] and
//! every other consumer (tuner, serving cache, CLI) verifies through
//! that seam.

#![warn(missing_docs)]
#![warn(clippy::indexing_slicing)]
#![cfg_attr(not(test), warn(clippy::expect_used))]

pub mod check;
pub mod model;
pub mod mutation;
pub mod shadow;

pub use check::{verify, VerifyReport, VerifyStats, Violation};
pub use model::{GroupModel, Interval, RankModel, ScheduleModel, Segment, TileWrite, Writer};
pub use mutation::{
    caveats, conformance_matrix, Caveat, DynamicCoverage, ExecPath, Expectation, MatrixCell,
    Mutation, MutationKind, OffTarget, RAISE_DELTA,
};
pub use shadow::{may_conflict, ranges_overlap};
