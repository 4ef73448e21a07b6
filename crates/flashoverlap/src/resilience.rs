//! Fault injection and the watchdog/degraded-mode runtime (robustness
//! layer).
//!
//! The real FlashOverlap inherits NCCL's failure model: a lost signal
//! (e.g. a dropped epilogue atomic), a stalled or underdelivering link,
//! or a straggler rank turns the tightly-coupled overlap schedule into a
//! distributed hang. NCCL answers with a watchdog thread and
//! `ncclCommAbort`; this module reproduces that ladder over the
//! simulated runtime:
//!
//! 1. **Injection** — a deterministic, seeded [`FaultPlan`] arms faults
//!    at the existing seams: counting-table increments can be dropped or
//!    delayed ([`gpu_sim::counter::CounterTable::arm_fault`]), links can
//!    degrade or stall ([`gpu_sim::CommFault`],
//!    [`interconnect::FabricSpec::degraded`]), and ranks can lose SMs or
//!    start late.
//! 2. **Watchdog** — resilient execution
//!    ([`crate::SequenceOptions::resilient`], one fault plan per chain
//!    segment, for a single plan, a pipeline or a sequence) runs
//!    through the one chain executor, which derives each segment's deadline from the
//!    latency predictor's expected time times
//!    [`WatchdogConfig::deadline_multiplier`] and steps the simulation
//!    against it. On expiry it escalates: deadline extensions while work
//!    is still flowing, then a *tail recovery* (abort the starved
//!    communicator state, re-issue the missing groups as tail
//!    collectives once the GEMM retired), or a *bulk degraded fallback*
//!    when no group completed. Every execution terminates with either a
//!    bit-exact result or a structured [`ResilientOutcome::Degraded`]
//!    report — never a hang.
//! 3. **Campaigns** — [`run_chaos`] executes seeded fault campaigns and
//!    compares each functional output against the fault-free reference.
//!
//! Diagnostics are data until read. The fault vocabulary ([`Fault`])
//! lives with the simulator's runtime-event log, whose records
//! ([`gpu_sim::RuntimeDetail`]) hold the armed fault, the tile or the
//! segment rather than a sentence; a wedge is the
//! [`FlashOverlapError::Deadlock`] value itself, with structured
//! per-stream records, shared by reference count between the watchdog's
//! event and the [`DegradeCause`] it leads to. Text is written only by
//! `Display`, so serving, which reads only [`ResilientOutcome::label`],
//! formats nothing.
//!
//! A key semantic choice mirrors the real failure mode: a dropped
//! increment loses only the *signal* — the epilogue's tile write is
//! unaffected, exactly as when a real epilogue's signaling atomic is
//! lost. Recovery collectives are issued only after the GEMM retired, so
//! they read complete data and degraded-mode results stay bit-exact.
//!
//! Like the other fault hot paths (`gpu_sim::counter`), this module opts
//! in to the indexing lint: fault arming and recovery must not panic on
//! an out-of-range rank or group.
#![warn(clippy::indexing_slicing)]

use std::fmt;
use std::sync::Arc;

use gpu_sim::gemm::GemmDims;
use sim::{DetRng, SimDuration};

use crate::error::FlashOverlapError;
use crate::runtime::{CommPattern, FunctionalInputs, OverlapPlan};
use crate::sequence::SequenceOptions;
use crate::system::SystemSpec;

/// One injected fault. The vocabulary lives with the simulator's
/// runtime-event log, which names the faults it arms; ranks and groups
/// refer to the plan the fault runs against, and [`FaultPlan::validate`]
/// rejects out-of-range targets before anything is armed.
pub use gpu_sim::Fault;

/// A deterministic set of faults injected into one execution. Seeded
/// construction ([`FaultPlan::random`]) uses only [`sim::DetRng`] — no
/// wall-clock — so campaigns replay exactly.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    /// The faults, applied in order.
    pub faults: Vec<Fault>,
}

impl FaultPlan {
    /// The empty plan (a fault-free resilient run).
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// A plan with a single fault.
    pub fn single(fault: Fault) -> Self {
        FaultPlan {
            faults: vec![fault],
        }
    }

    /// Draws a deterministic random plan of one to three faults for a
    /// system of `n_ranks` ranks and a partition of `num_groups` groups.
    pub fn random(seed: u64, n_ranks: usize, num_groups: usize) -> Self {
        let mut rng = DetRng::new(seed);
        let n_faults = 1 + rng.next_below(3) as usize;
        let mut faults = Vec::with_capacity(n_faults);
        let rank = |rng: &mut DetRng| rng.next_below(n_ranks.max(1) as u64) as usize;
        let group = |rng: &mut DetRng| rng.next_below(num_groups.max(1) as u64) as usize;
        for _ in 0..n_faults {
            faults.push(match rng.next_below(6) {
                0 => Fault::DroppedIncrement {
                    rank: rank(&mut rng),
                    group: group(&mut rng),
                    count: 1 + rng.next_below(3) as u32,
                },
                1 => Fault::DelayedIncrement {
                    rank: rank(&mut rng),
                    group: group(&mut rng),
                    count: 1 + rng.next_below(3) as u32,
                    delay: SimDuration::from_micros(20 + rng.next_below(200)),
                },
                2 => Fault::LinkDegradation {
                    slowdown: rng.uniform(1.5, 6.0),
                },
                3 => Fault::LinkStall {
                    stall: SimDuration::from_micros(50 + rng.next_below(500)),
                    count: 1 + rng.next_below(4) as u32,
                },
                4 => Fault::StragglerSms {
                    rank: rank(&mut rng),
                    sms: 1 + rng.next_below(4) as u32,
                },
                _ => Fault::SlowRank {
                    rank: rank(&mut rng),
                    delay: SimDuration::from_micros(10 + rng.next_below(300)),
                },
            });
        }
        FaultPlan { faults }
    }

    /// Whether the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// Checks every fault's rank/group against the target plan before
    /// anything is armed.
    ///
    /// # Errors
    ///
    /// Returns [`FlashOverlapError::BadInputs`] naming the out-of-range
    /// fault.
    pub fn validate(&self, n_ranks: usize, num_groups: usize) -> Result<(), FlashOverlapError> {
        for fault in &self.faults {
            let (rank, group) = match *fault {
                Fault::DroppedIncrement { rank, group, .. }
                | Fault::DelayedIncrement { rank, group, .. } => (Some(rank), Some(group)),
                Fault::StragglerSms { rank, .. } | Fault::SlowRank { rank, .. } => {
                    (Some(rank), None)
                }
                Fault::LinkDegradation { .. }
                | Fault::InterLinkDegradation { .. }
                | Fault::LinkStall { .. } => (None, None),
            };
            if let Some(r) = rank {
                if r >= n_ranks {
                    return Err(FlashOverlapError::BadInputs {
                        reason: format!("fault targets rank {r} of {n_ranks}: {fault}"),
                    });
                }
            }
            if let Some(g) = group {
                if g >= num_groups {
                    return Err(FlashOverlapError::BadInputs {
                        reason: format!("fault targets group {g} of {num_groups}: {fault}"),
                    });
                }
            }
        }
        Ok(())
    }
}

/// Watchdog escalation policy for resilient executions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WatchdogConfig {
    /// The deadline is the predictor's expected latency times this
    /// multiplier (values below 1 are clamped up). NCCL's
    /// `NCCL_TIMEOUT`-style knob, expressed relative to the expected
    /// time instead of absolute seconds.
    pub deadline_multiplier: f64,
    /// Deadline extensions granted while the simulation still makes
    /// progress before the run is marked degraded.
    pub max_retries: u32,
}

impl Default for WatchdogConfig {
    fn default() -> Self {
        WatchdogConfig {
            deadline_multiplier: 4.0,
            max_retries: 2,
        }
    }
}

/// How a resilient execution terminated.
#[derive(Debug, Clone, PartialEq)]
pub enum ResilientOutcome {
    /// No intervention was needed (deadline extensions may still have
    /// been granted; see the event log).
    Clean,
    /// The watchdog broke at least one wedge and the tail recovery
    /// completed every remaining group — the result is still bit-exact.
    Recovered {
        /// Deadline extensions granted along the way.
        retries: u32,
        /// Groups re-issued as tail collectives.
        tail_groups: Vec<usize>,
    },
    /// The overlap plan was abandoned: the remaining output completed
    /// (when possible) via bulk non-overlapped collectives.
    Degraded {
        /// Why the run degraded.
        cause: DegradeCause,
        /// Groups that completed before the plan was abandoned, via
        /// overlap or tail recovery.
        recovered_groups: Vec<usize>,
    },
}

/// Why a chain segment degraded. A wedge diagnosis is kept as the
/// error value the watchdog built, shared with its wedge-detected event;
/// the sentence is written only when the cause is formatted.
#[derive(Debug, Clone, PartialEq)]
pub enum DegradeCause {
    /// The watchdog hit its round limit with the segment still open.
    WatchdogGaveUp {
        /// Rounds driven.
        rounds: u32,
    },
    /// Streams drained while the segment was incomplete, with no wedge
    /// to diagnose.
    Stalled,
    /// The segment wedged again after its recovery.
    RecoveryWedged(Arc<FlashOverlapError>),
    /// The segment wedged before its GEMM retired, so its groups could
    /// not be re-issued safely.
    WedgedBeforeGemmRetired(Arc<FlashOverlapError>),
    /// No group had completed when the segment wedged, so its overlap was
    /// abandoned for bulk collectives.
    OverlapAbandoned(Arc<FlashOverlapError>),
    /// The segment was still slow after every deadline extension.
    DeadlineExceeded {
        /// Extensions granted.
        extensions: u32,
    },
    /// The chain ended before the segment completed.
    Terminated,
}

impl fmt::Display for DegradeCause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DegradeCause::WatchdogGaveUp { rounds } => {
                write!(f, "chain watchdog gave up after {rounds} rounds")
            }
            DegradeCause::Stalled => f.write_str("chain stalled without a diagnosable wedge"),
            DegradeCause::RecoveryWedged(error) => write!(f, "recovery wedged: {error}"),
            DegradeCause::WedgedBeforeGemmRetired(error) => {
                write!(f, "wedged before GEMM retirement: {error}")
            }
            DegradeCause::OverlapAbandoned(error) => write!(f, "overlap abandoned: {error}"),
            DegradeCause::DeadlineExceeded { extensions } => {
                write!(
                    f,
                    "watchdog deadline exceeded after {extensions} extensions"
                )
            }
            DegradeCause::Terminated => {
                f.write_str("chain terminated before this segment completed")
            }
        }
    }
}

impl ResilientOutcome {
    /// Whether the run needed no intervention.
    pub fn is_clean(&self) -> bool {
        matches!(self, ResilientOutcome::Clean)
    }

    /// Whether the run abandoned the overlap plan.
    pub fn is_degraded(&self) -> bool {
        matches!(self, ResilientOutcome::Degraded { .. })
    }

    /// Short label for reports (`clean` / `recovered` / `degraded`).
    pub fn label(&self) -> &'static str {
        match self {
            ResilientOutcome::Clean => "clean",
            ResilientOutcome::Recovered { .. } => "recovered",
            ResilientOutcome::Degraded { .. } => "degraded",
        }
    }
}

/// Configuration of a seeded chaos campaign run.
#[derive(Debug, Clone)]
pub struct ChaosConfig {
    /// Base seed; campaign `i` draws its fault plan from `seed + i` and
    /// its inputs from `seed`.
    pub seed: u64,
    /// Number of fault campaigns to run.
    pub campaigns: usize,
    /// Per-rank GEMM dimensions. Functional GEMMs run on the host, so
    /// campaign defaults stay small.
    pub dims: GemmDims,
    /// Simulated ranks.
    pub gpus: usize,
}

impl ChaosConfig {
    /// SM count of the miniature campaign system (small keeps runs fast
    /// while still producing multi-wave, multi-group plans).
    pub const SM_COUNT: u32 = 8;
    /// SMs the campaign system reserves for communication kernels.
    pub const COMM_SMS: u32 = 2;
}

impl Default for ChaosConfig {
    fn default() -> Self {
        ChaosConfig {
            seed: 7,
            campaigns: 20,
            dims: GemmDims::new(384, 512, 64),
            gpus: 2,
        }
    }
}

/// One campaign's result.
#[derive(Debug, Clone)]
pub struct CampaignResult {
    /// The fault-plan seed of this campaign.
    pub seed: u64,
    /// Number of faults armed.
    pub faults: usize,
    /// How the run terminated.
    pub outcome: ResilientOutcome,
    /// Whether every rank's output matched the fault-free reference
    /// bit for bit.
    pub bit_exact: bool,
    /// Operator latency of the run, nanoseconds.
    pub latency_ns: u64,
    /// Recovery-timeline events recorded (faults armed and fired,
    /// watchdog firings, recoveries).
    pub events: usize,
}

/// Aggregate results of a chaos campaign sweep.
#[derive(Debug, Clone)]
pub struct ChaosReport {
    /// The configuration the sweep ran with.
    pub config: ChaosConfig,
    /// Latency of the fault-free reference run, nanoseconds.
    pub reference_latency_ns: u64,
    /// Per-campaign results, in seed order.
    pub results: Vec<CampaignResult>,
}

impl ChaosReport {
    /// Campaigns that ended with a bit-exact result.
    pub fn bit_exact(&self) -> usize {
        self.results.iter().filter(|r| r.bit_exact).count()
    }

    /// Campaigns that completed the overlap plan untouched.
    pub fn clean(&self) -> usize {
        self.results.iter().filter(|r| r.outcome.is_clean()).count()
    }

    /// Campaigns that needed tail recovery.
    pub fn recovered(&self) -> usize {
        self.results
            .iter()
            .filter(|r| matches!(r.outcome, ResilientOutcome::Recovered { .. }))
            .count()
    }

    /// Campaigns that abandoned the overlap plan.
    pub fn degraded(&self) -> usize {
        self.results
            .iter()
            .filter(|r| r.outcome.is_degraded())
            .count()
    }

    /// Campaigns that are neither bit-exact nor flagged degraded (a
    /// degraded outcome always carries its [`DegradeCause`]) — the
    /// invariant violations. Must be zero.
    pub fn violations(&self) -> usize {
        self.results
            .iter()
            .filter(|r| !r.bit_exact && !r.outcome.is_degraded())
            .count()
    }
}

/// Runs a seeded chaos campaign sweep: builds a miniature multi-wave
/// plan, computes the fault-free functional reference once, then runs
/// `campaigns` seeded fault plans through the watchdog runtime and
/// checks every output against the reference bit for bit.
///
/// Every campaign terminates — a wedge is broken by the watchdog, never
/// reported as a hang. A campaign whose execution nevertheless errors
/// (engine budget, invalid fault target) surfaces as `Err`.
///
/// # Errors
///
/// Returns an error if the plan cannot be built or a campaign's
/// execution fails outright.
pub fn run_chaos(config: &ChaosConfig) -> Result<ChaosReport, FlashOverlapError> {
    if config.campaigns == 0 {
        return Err(FlashOverlapError::BadInputs {
            reason: "need at least one campaign".into(),
        });
    }
    let mut system = SystemSpec::rtx4090(config.gpus);
    system.arch.sm_count = ChaosConfig::SM_COUNT;
    system.comm_sms = ChaosConfig::COMM_SMS;
    // Per-wave grouping maximizes the number of signal waits — the widest
    // fault surface a partition can offer.
    let partition = crate::partition::WavePartition::per_wave(system.planned_waves(config.dims));
    let plan = OverlapPlan::new(config.dims, CommPattern::AllReduce, system, partition)?;
    let num_groups = plan.group_tile_counts().len();

    let inputs = FunctionalInputs::random(config.dims, config.gpus, config.seed);
    let inputs = [inputs];
    let mut reference = plan.execute_with(&SequenceOptions::new().functional(&inputs))?;
    let reference_outputs = reference
        .outputs
        .and_then(|mut o| o.pop())
        .unwrap_or_default();

    let mut results = Vec::with_capacity(config.campaigns);
    for i in 0..config.campaigns {
        let seed = config.seed + i as u64;
        let faults = FaultPlan::random(seed, config.gpus, num_groups);
        let mut run = plan.execute_with(
            &SequenceOptions::new()
                .functional(&inputs)
                .resilient(std::slice::from_ref(&faults), &WatchdogConfig::default()),
        )?;
        let run_outputs = run.outputs.and_then(|mut o| o.pop()).unwrap_or_default();
        let bit_exact = run_outputs.len() == reference_outputs.len()
            && run_outputs
                .iter()
                .zip(&reference_outputs)
                .all(|(a, b)| a.as_slice() == b.as_slice());
        results.push(CampaignResult {
            seed,
            faults: faults.faults.len(),
            outcome: run.outcomes.swap_remove(0),
            bit_exact,
            latency_ns: run.reports.swap_remove(0).latency.as_nanos(),
            events: run.events.len(),
        });
    }
    Ok(ChaosReport {
        config: config.clone(),
        reference_latency_ns: reference.reports.swap_remove(0).latency.as_nanos(),
        results,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chaos_sweep_terminates_with_zero_violations() {
        let config = ChaosConfig {
            campaigns: 6,
            dims: GemmDims::new(256, 256, 64),
            ..ChaosConfig::default()
        };
        let report = run_chaos(&config).unwrap();
        assert_eq!(report.results.len(), 6);
        assert_eq!(report.violations(), 0, "{:?}", report.results);
        assert!(report.results.iter().all(|r| r.faults >= 1));
        assert!(report.reference_latency_ns > 0);
    }

    #[test]
    fn random_plans_are_deterministic_and_in_range() {
        let a = FaultPlan::random(42, 4, 6);
        let b = FaultPlan::random(42, 4, 6);
        assert_eq!(a, b, "same seed, same plan");
        assert!(!a.is_empty() && a.faults.len() <= 3);
        a.validate(4, 6)
            .expect("random plans target valid ranks/groups");
        let c = FaultPlan::random(43, 4, 6);
        assert_ne!(a, c, "different seeds diverge");
    }

    #[test]
    fn validate_rejects_out_of_range_targets() {
        let plan = FaultPlan::single(Fault::DroppedIncrement {
            rank: 9,
            group: 0,
            count: 1,
        });
        assert!(plan.validate(2, 4).is_err());
        let plan = FaultPlan::single(Fault::DroppedIncrement {
            rank: 0,
            group: 9,
            count: 1,
        });
        assert!(plan.validate(2, 4).is_err());
        assert!(FaultPlan::none().validate(0, 0).is_ok());
    }

    #[test]
    fn fault_display_names_the_seam() {
        let text = Fault::DroppedIncrement {
            rank: 1,
            group: 3,
            count: 2,
        }
        .to_string();
        assert!(
            text.contains("rank 1") && text.contains("group 3"),
            "{text}"
        );
    }
}
