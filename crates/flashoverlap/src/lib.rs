//! FlashOverlap: a lightweight design for overlapping communication and
//! computation (paper reproduction core).
//!
//! The three properties the paper identifies (Table 1) map onto this crate
//! as follows:
//!
//! - **Tile-wise overlapping** — tiles are bundled into waves and waves
//!   into tunable groups ([`partition`]); a counting table signals each
//!   group's completion ([`gpu_sim::counter`], driven from the GEMM
//!   epilogue) so its communication starts while later waves still
//!   compute.
//! - **Interference-free computation** — the GEMM main loop is untouched:
//!   the runtime ([`runtime`]) only installs an epilogue writer that packs
//!   tiles to contiguous addresses ([`mapping`], [`writers`]) and bumps the
//!   counting table.
//! - **Communication agnosticism** — communication is plain collective
//!   calls on a second stream ([`collectives`]); any primitive with a
//!   region API works.
//!
//! Tuning: the wave-partition design space (§3.4) is searched with a
//! latency predictor built from offline profiles (§4, Alg. 1) in
//! [`predictor`] and [`tuner`]; [`theory`] computes the perfect-overlap
//! upper bound of §6.3.
//!
//! Verification: [`verify`] lowers plans and chained executions into
//! [`planverify`] schedule models, proving threshold feasibility,
//! deadlock freedom, and tile-granular race freedom from plan data
//! alone — before a single simulated cycle runs.

#![warn(missing_docs)]

mod chain;
pub mod error;
pub mod mapping;
#[cfg(test)]
mod miss_oracle;
pub mod notation;
pub mod partition;
pub mod pipeline;
pub mod predictor;
pub mod resilience;
pub mod runtime;
pub mod sequence;
pub mod system;
pub mod theory;
pub mod tuner;
pub mod verify;
mod world;
pub mod writers;

pub use error::{ChainPosition, FlashOverlapError};
pub use partition::WavePartition;
pub use pipeline::{LayerSpec, Pipeline};
pub use predictor::{LatencyPredictor, OfflineProfile};
pub use resilience::{
    run_chaos, CampaignResult, ChaosConfig, ChaosReport, DegradeCause, Fault, FaultPlan,
    ResilientOutcome, WatchdogConfig,
};
pub use runtime::{CommPattern, FunctionalInputs, Instrumentation, OverlapPlan, RunReport};
pub use sequence::{execute_sequence, execute_sequence_in, SequenceOptions, SequenceOutcome};
pub use system::SystemSpec;
pub use theory::{nonoverlap_latency, theoretical_latency, theoretical_speedup};
pub use tuner::{
    exhaustive_search, measure_partition, predictive_search, predictive_search_with, tune_plan,
    TuneOutcome,
};
pub use verify::{model_of_chain, reject_if_invalid, runtime_seam, RuntimeSeam};
pub use world::ChainWorld;
