//! Continuous-batching serving layer over the FlashOverlap runtime.
//!
//! The paper evaluates FlashOverlap operator-by-operator; this crate
//! closes the loop to the setting that motivates online tuning in the
//! first place: an inference server whose GEMM shapes churn with the
//! traffic. It is the simulated stand-in for a vLLM/Triton-style
//! serving engine (see DESIGN.md's substitution table), built from
//! five deterministic pieces:
//!
//! - [`traffic`] — seeded open-loop arrival traces (Poisson or bursty)
//!   over a weighted model mix ([`workloads::ServeMix`]);
//! - [`batch`] — continuous batching with a token budget, a max-wait
//!   deadline, and token-bucket shape quantization;
//! - [`cache`] — a bounded LRU of tuned [`OverlapPlan`]s keyed by
//!   `(shape, primitive, system fingerprint)`, one per replica, running
//!   the paper's predictive search (§4.1.4) online on each miss that no
//!   sibling replica's cache can serve, with snapshot export/preload for
//!   warm restarts;
//! - [`router`] — batch routing across N independent replica groups
//!   (round-robin, least-loaded, shape-affinity — which steers each
//!   bucketed shape to a home replica to keep its plan cache hot — or
//!   locality, which on multi-node deployments prefers replicas on the
//!   batch's home node and spills across nodes only under overload,
//!   with the inter-node migration penalty accounted);
//! - [`server`] — the admission/routing/execution loop over virtual
//!   time, with bounded-queue shedding, cross-batch pipelined chains
//!   (batch `k+1`'s GEMM overlaps batch `k`'s tail collectives via
//!   [`flashoverlap::execute_sequence`]), optional per-batch fault
//!   injection through the resilient runtime, and full per-request,
//!   per-replica accounting into a [`report::ServeReport`].
//!
//! Everything is seeded: the same [`server::ServeConfig`] produces a
//! bit-identical report, JSON included.
//!
//! [`OverlapPlan`]: flashoverlap::OverlapPlan

#![warn(missing_docs)]
#![cfg_attr(not(test), warn(clippy::expect_used))]

pub mod batch;
pub mod cache;
mod engine;
pub mod report;
pub mod router;
pub mod server;
pub mod trace;
pub mod traffic;

pub use batch::{form_batch, Batch, BatchConfig};
pub use cache::{system_fingerprint, CacheSnapshot, CacheStats, PlanCache, PlanEntry, PlanKey};
pub use report::{
    BatchRecord, ComparisonReport, Disposition, DriftRow, NodeStats, ReplicaStats, RequestRecord,
    ScalingReport, ServeReport,
};
pub use router::{home_node, ReplicaLoad, RouteDecision, Router, RouterPolicy};
pub use server::{
    serve, serve_baseline, serve_comparison, serve_exporting, serve_scaling, ExecMode, ServeConfig,
};
pub use trace::{serve_trace, serve_trace_string};
pub use traffic::{generate, ArrivalProcess, Request};
