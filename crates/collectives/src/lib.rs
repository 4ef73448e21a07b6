//! NCCL-equivalent collective communication for the simulated cluster.
//!
//! FlashOverlap's communication-agnostic design (§2.2, §5) only needs three
//! things from its communication library: opaque collective calls that can
//! be enqueued on a stream, latency that follows a size-dependent
//! effective-bandwidth curve, and a constant SM footprint per communicator.
//! This crate provides exactly that over [`gpu_sim::Cluster`]: ring-cost
//! AllReduce / ReduceScatter / AllGather, All-to-All(v), and one-sided
//! point-to-point copies — all moving real data in functional mode so the
//! reordering correctness arguments of §3.3.3 can be *tested*, not assumed.

#![warn(missing_docs)]

pub mod comm;
pub mod cost;
pub mod hierarchical;
pub mod p2p;

pub use comm::{A2aPlan, CollectiveSpec, CommScope, Communicator, Region};
pub use cost::{all_to_all_duration, collective_duration_with, Algorithm};
pub use cost::{collective_duration, Primitive, BYTES_PER_ELEM};
pub use gpu_sim::collective::CollectiveRole;
pub use hierarchical::{
    flat_tiered_duration, inter_bytes_flat, inter_bytes_hierarchical, tiered_duration,
};
pub use p2p::p2p_copy;
