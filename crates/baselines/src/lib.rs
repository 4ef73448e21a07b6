//! Baseline implementations the paper compares against (§6.1.3).
//!
//! Every simulated baseline runs one chunked program: open the
//! communicator and apply launch skew, open per-rank streams and
//! buffers, then for each row chunk run its GEMM, record an event, make
//! the communication stream wait on it, and run the chunk's
//! communication. The baselines in [`decomposition`] vary only its three
//! inputs:
//!
//! | baseline | chunks | stream pairs per rank | chunk communication |
//! |---|---|---|---|
//! | NonOverlap | 1 | one | the collective |
//! | VanillaDecomposition | tuned over [`decomposition::CHUNK_CANDIDATES`] | one | the collective |
//! | Async-TP (peer-to-peer only) | one per rank | one | a ring of peer-to-peer copies |
//! | micro-batch (§2.4.3) | tuned over 2 and 4 | one per chunk | the collective |
//!
//! NonOverlap is the normalization baseline of every Fig. 9 plot. [`flux`]
//! is analytic: a FLUX-like fusion model — tile-level overlap inside one
//! kernel, paying a GEMM interference penalty and requiring peer-to-peer
//! access. [`method`] dispatches over the methods Fig. 9 compares.
//!
//! All baselines run on FlashOverlap's simulated machine: the program
//! runs through the chain executor's [`flashoverlap::ChainWorld::run`] on
//! the plan's [`flashoverlap::SystemSpec::communicator`], with the same
//! GEMM timing model and per-call overheads.

#![warn(missing_docs)]
#![warn(clippy::indexing_slicing)]
#![cfg_attr(not(test), warn(clippy::expect_used))]

pub mod decomposition;
pub mod flux;
pub mod method;
mod program;

pub use decomposition::{
    run_async_tp, run_decomposition, run_decomposition_tuned, run_microbatch, run_microbatch_tuned,
    run_nonoverlap,
};
pub use flux::run_flux;
pub use method::{measure, measure_traced, Method, MethodProfile};
