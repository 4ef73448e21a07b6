//! Telemetry for simulated runs: Perfetto traces, signal-latency and
//! link-utilization metrics, and overlap-efficiency profiling.
//!
//! Plays the role Nsight Systems / CUPTI play for the real FlashOverlap
//! (see DESIGN.md's substitution table): a [`record::Telemetry`] session
//! attaches to the cluster as a [`gpu_sim::ClusterMonitor`] and to the
//! engine as a [`sim::EngineProbe`], recording the full causal record of
//! a run — per-stream operation spans with metadata, counting-table
//! increments and released waits, rendezvous points, per-link transfer
//! intervals, and SM-occupancy changes. From that record it derives:
//!
//! - per-(rank, group) **signal latency** (last increment → wait
//!   released → collective launch), the cost of §4's signaling design;
//! - per-link **bandwidth utilization** against the fabric's peak;
//! - per-stream **busy fractions** and per-device **SM occupancy**;
//! - **overlap efficiency** — where the measured latency lands between
//!   the non-overlap reference and the perfect-overlap bound of §6.3.
//!
//! Every join those analyses make — the signal latency above, the
//! critical-path [`attribution`], the Perfetto flow arrows — is answered
//! by one [`index::ChainIndex`], rebuilt per chain by linear counting
//! sorts into buffers it keeps; a caller analysing many chains (a serve
//! replica) keeps one index and re-indexes each chain without
//! allocating.
//!
//! Two exporters: [`perfetto`] writes Chrome trace-event JSON covering
//! all devices (with signal-flow arrows and counter tracks), and
//! [`profile::MetricsReport`] serializes the derived metrics. JSON is
//! produced and parsed by the vendored [`json`] module (the build
//! environment has no registry access for `serde_json`).

#![warn(missing_docs)]

pub mod attribution;
pub mod index;
pub mod json;
pub mod metrics;
#[cfg(test)]
mod oracle;
pub mod perfetto;
pub mod profile;
pub mod record;

pub use attribution::{
    attribute, attribute_makespan, Attribution, AttributionTotals, Category, Segment,
};
pub use index::ChainIndex;
pub use metrics::{
    link_stats, occupancy_stats, overlap_efficiency, percentile, percentiles, signal_summary,
    stream_stats, LinkPeaks, LinkStats, OccupancyStats, Percentiles, SignalSample, SignalSummary,
    StreamStats,
};
pub use profile::{profile, MethodMetrics, MethodRun, MetricsReport, Profile, Workload};
pub use record::{Telemetry, TelemetryRecord};
