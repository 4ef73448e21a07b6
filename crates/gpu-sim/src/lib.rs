//! Simulated multi-GPU substrate.
//!
//! This crate plays the role CUDA + CUTLASS play for the real FlashOverlap:
//! it provides devices with streaming multiprocessors, device memory,
//! CUDA-like streams and events, a tiled GEMM kernel whose tiles execute in
//! waves (with block swizzling and per-tile completion jitter), counting
//! tables the GEMM epilogue can signal through, and element-wise kernels
//! that can fuse a remapping gather. Timing is modelled; data movement is
//! real (`f32` buffers) when a cluster runs in functional mode, so
//! correctness can be verified end to end against the `tensor` oracle.
//!
//! Layering: this crate is pure *mechanism*. Policy — which tiles form a
//! group, what order tiles are packed in, when to call a collective — lives
//! in the `flashoverlap` crate, exactly as the paper layers its runtime on
//! top of stock CUDA machinery.

#![warn(missing_docs)]

pub mod arch;
pub mod cluster;
pub mod collective;
pub mod counter;
pub mod device;
pub mod elementwise;
pub mod gemm;
pub mod memory;
pub mod monitor;
pub mod stream;
pub mod swizzle;
pub mod tile;
pub mod wave;

pub use arch::GpuArch;
pub use cluster::{
    Cluster, CommFault, FaultArming, OpSpan, SpanMeta, StuckWait, TileCompletion, Wedge,
    WedgedStream,
};
pub use collective::{CollectiveCall, CollectiveOp, CollectiveRole, P2pOp};
pub use counter::IncrementFault;
pub use device::{Device, DeviceId};
pub use memory::BufferId;
pub use monitor::{
    Access, AccessKind, AccessScope, ClusterMonitor, Diagnosis, Fault, LinkTransfer, RuntimeDetail,
    RuntimeEvent, RuntimeEventKind,
};
pub use stream::{Completion, Event, GpuEventId, Op, StreamId};
pub use tile::{TileGrid, TileShape};
pub use wave::WaveSchedule;

/// The simulator type specialized to a GPU cluster world and its events.
pub type ClusterSim = sim::Sim<Event>;
