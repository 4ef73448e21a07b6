//! Inter-GPU fabric models.
//!
//! The paper's reordering and grouping decisions are driven entirely by one
//! empirical fact about real interconnects (Fig. 8): *effective* bandwidth
//! collapses when transfers are small or fragmented, and saturates for
//! large contiguous blocks. This crate models that fact analytically
//! ([`BandwidthModel`]), supports the paper's offline sampling +
//! interpolation step ([`SampledCurve`]), and provides topology presets
//! calibrated to the two evaluation platforms (pairwise-NVLink A800 server
//! and PCIe-across-NUMA RTX 4090 server).

#![warn(missing_docs)]

pub mod bandwidth;
pub mod topology;

pub use bandwidth::{log_spaced_sizes, BandwidthModel, LogSpacing, SampledCurve};
pub use topology::{FabricSpec, LinkKind};
