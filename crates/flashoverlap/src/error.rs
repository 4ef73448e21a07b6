//! Error types of the FlashOverlap library.

use std::error::Error;
use std::fmt;

/// Where in a pipelined/sequenced chain a starved wait sits: the chain
/// segment (layer or batch index), the counting-table parity the segment
/// inherited under double-buffered table reuse, and the table id itself.
/// A wedge that names its chain position names the rearm edge it starved
/// — which prior segment's comm-done the reset was waiting behind.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChainPosition {
    /// Chain segment (layer or batch index) whose wait starved.
    pub segment: usize,
    /// Table parity the segment inherited (`segment % 2` under
    /// double-buffering).
    pub parity: usize,
    /// The inherited counting-table id the starved wait watches.
    pub table: usize,
}

impl fmt::Display for ChainPosition {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "chain segment {} (parity {}, inherited table {})",
            self.segment, self.parity, self.table
        )
    }
}

/// Errors surfaced by plan construction, tuning, and execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FlashOverlapError {
    /// A wave partition's group sizes do not sum to the schedule's wave
    /// count.
    PartitionMismatch {
        /// Waves the partition accounts for.
        partition_waves: u32,
        /// Waves the schedule actually has.
        schedule_waves: u32,
    },
    /// The problem shape is incompatible with the primitive's reordering
    /// constraints (e.g. ReduceScatter needs every tile's rows divisible
    /// by the rank count).
    IncompatibleShape {
        /// Human-readable constraint description.
        reason: String,
    },
    /// The simulation engine failed (runaway event loop).
    Simulation(String),
    /// The event queue drained but streams never did: at least one rank
    /// is wedged. `waits` carries the precise signal-starvation context —
    /// blocked rank, counter group, reached count, unmet threshold — when
    /// the wedge is a starved signal wait (the lost-signal bug class);
    /// `streams` has one record per wedged stream either way.
    Deadlock {
        /// One record per wedged stream (device, stream, op in flight,
        /// queued depth, the starved wait parked on it).
        streams: Vec<gpu_sim::WedgedStream>,
        /// Every starved signal wait, with its counter context.
        waits: Vec<gpu_sim::StuckWait>,
        /// Chain positions of the starved waits (one per wait that maps
        /// to an incomplete chain segment; a single-shot run is segment
        /// 0 of a one-segment chain).
        chain: Vec<ChainPosition>,
    },
    /// Functional inputs are inconsistent with the plan (wrong matrix
    /// shapes, wrong rank count, missing routing).
    BadInputs {
        /// Human-readable description.
        reason: String,
    },
}

impl fmt::Display for FlashOverlapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FlashOverlapError::PartitionMismatch {
                partition_waves,
                schedule_waves,
            } => write!(
                f,
                "wave partition covers {partition_waves} waves but the schedule has {schedule_waves}"
            ),
            FlashOverlapError::IncompatibleShape { reason } => {
                write!(f, "incompatible shape: {reason}")
            }
            FlashOverlapError::Simulation(msg) => write!(f, "simulation failed: {msg}"),
            FlashOverlapError::Deadlock {
                streams,
                waits,
                chain,
            } => {
                f.write_str("deadlock: streams never drained — ")?;
                for (i, stream) in streams.iter().enumerate() {
                    if i > 0 {
                        f.write_str("; ")?;
                    }
                    write!(f, "{stream}")?;
                }
                for wait in waits {
                    write!(f, "; {wait}")?;
                }
                for pos in chain {
                    write!(f, "; {pos}")?;
                }
                Ok(())
            }
            FlashOverlapError::BadInputs { reason } => write!(f, "bad inputs: {reason}"),
        }
    }
}

impl Error for FlashOverlapError {}

impl From<sim::SimError> for FlashOverlapError {
    fn from(e: sim::SimError) -> Self {
        FlashOverlapError::Simulation(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = FlashOverlapError::PartitionMismatch {
            partition_waves: 5,
            schedule_waves: 8,
        };
        let text = e.to_string();
        assert!(text.contains('5') && text.contains('8'));

        let e = FlashOverlapError::IncompatibleShape {
            reason: "rows not divisible".into(),
        };
        assert!(e.to_string().contains("rows not divisible"));
    }

    #[test]
    fn deadlock_names_the_starved_wait() {
        let e = FlashOverlapError::Deadlock {
            streams: vec![gpu_sim::WedgedStream {
                device: 1,
                stream: 1,
                in_flight: true,
                queued: 2,
                op: "wait-counter",
                wait: None,
            }],
            waits: vec![gpu_sim::StuckWait {
                device: 1,
                stream: 1,
                table: 0,
                group: 3,
                count: 5,
                threshold: 8,
            }],
            chain: Vec::new(),
        };
        let text = e.to_string();
        assert!(text.contains("rank 1"), "{text}");
        assert!(text.contains("group 3"), "{text}");
        assert!(text.contains("count 5 < threshold 8"), "{text}");
    }

    #[test]
    fn deadlock_names_the_chain_position() {
        let e = FlashOverlapError::Deadlock {
            streams: vec![gpu_sim::WedgedStream {
                device: 0,
                stream: 1,
                in_flight: false,
                queued: 1,
                op: "wait-counter",
                wait: None,
            }],
            waits: vec![gpu_sim::StuckWait {
                device: 0,
                stream: 1,
                table: 4,
                group: 0,
                count: 1,
                threshold: 6,
            }],
            chain: vec![ChainPosition {
                segment: 3,
                parity: 1,
                table: 4,
            }],
        };
        let text = e.to_string();
        assert!(text.contains("chain segment 3"), "{text}");
        assert!(text.contains("parity 1"), "{text}");
        assert!(text.contains("inherited table 4"), "{text}");
    }

    #[test]
    fn sim_error_converts() {
        let e: FlashOverlapError = sim::SimError::EventBudgetExhausted { processed: 3 }.into();
        assert!(matches!(e, FlashOverlapError::Simulation(_)));
    }
}
