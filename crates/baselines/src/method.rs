//! A unified dispatcher over all evaluated methods, for the benchmark
//! harness.

use flashoverlap::runtime::{CommPattern, Instrumentation};
use flashoverlap::{FlashOverlapError, OverlapPlan, SequenceOptions, SystemSpec};
use gpu_sim::gemm::GemmDims;
use gpu_sim::OpSpan;
use sim::SimDuration;

use crate::async_tp::{run_async_tp, run_async_tp_traced};
use crate::decomposition::{run_decomposition_tuned, run_decomposition_tuned_traced};
use crate::flux::run_flux;
use crate::nonoverlap::{run_nonoverlap, run_nonoverlap_traced};

/// The methods compared in Fig. 9.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Method {
    /// Sequential GEMM then collective.
    NonOverlap,
    /// Row-chunked cuBLAS + NCCL pipeline.
    VanillaDecomposition,
    /// Ring-pipelined peer-copy decomposition (NVLink only).
    AsyncTp,
    /// Tile-fused kernel (NVLink only).
    Flux,
    /// The paper's system, with predictive-search tuning.
    FlashOverlap,
}

impl Method {
    /// All methods, in the plotting order of Fig. 9.
    pub const ALL: [Method; 5] = [
        Method::NonOverlap,
        Method::Flux,
        Method::AsyncTp,
        Method::VanillaDecomposition,
        Method::FlashOverlap,
    ];

    /// Whether this method can run on the given system / primitive at
    /// all (FLUX and Async-TP need peer-to-peer; neither does
    /// All-to-All).
    pub fn applicable(&self, pattern: &CommPattern, system: &SystemSpec) -> bool {
        match self {
            Method::NonOverlap | Method::VanillaDecomposition | Method::FlashOverlap => true,
            Method::AsyncTp | Method::Flux => {
                system.fabric.peer_to_peer
                    && !matches!(
                        pattern,
                        CommPattern::AllToAll { .. } | CommPattern::AllGather
                    )
            }
        }
    }
}

impl std::fmt::Display for Method {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            Method::NonOverlap => "Non-overlap",
            Method::VanillaDecomposition => "VanillaDecomposition",
            Method::AsyncTp => "Async-TP",
            Method::Flux => "FLUX",
            Method::FlashOverlap => "FlashOverlap",
        };
        f.write_str(name)
    }
}

/// Measures one method's operator latency on one workload.
///
/// # Errors
///
/// Propagates infeasibility (e.g. a peer-to-peer method on PCIe) and
/// simulation failures.
pub fn measure(
    method: Method,
    dims: GemmDims,
    pattern: &CommPattern,
    system: &SystemSpec,
) -> Result<SimDuration, FlashOverlapError> {
    match method {
        Method::NonOverlap => run_nonoverlap(dims, pattern, system),
        Method::VanillaDecomposition => run_decomposition_tuned(dims, pattern, system),
        Method::AsyncTp => run_async_tp(dims, pattern, system),
        Method::Flux => run_flux(dims, pattern.primitive(), system),
        Method::FlashOverlap => {
            let plan = OverlapPlan::tuned(dims, pattern.clone(), system.clone())?;
            Ok(plan.execute_with(&SequenceOptions::new())?.reports[0].latency)
        }
    }
}

/// One method's profiled run: latency plus, for simulation-backed
/// methods, the per-stream operation spans of the run.
#[derive(Debug, Clone)]
pub struct MethodProfile {
    /// Operator latency (same number [`measure`] returns).
    pub latency: SimDuration,
    /// Per-stream operation spans; `None` for methods modelled purely
    /// analytically (FLUX), which never run the simulator.
    pub spans: Option<Vec<OpSpan>>,
}

/// [`measure`] with observation hooks attached and per-stream operation
/// spans recorded.
///
/// FLUX is an analytic model — it yields latency only (no spans, and the
/// hooks never fire). Every other method runs the simulator with
/// `instr`'s monitor/probe installed.
///
/// # Errors
///
/// Same as [`measure`].
pub fn measure_traced(
    method: Method,
    dims: GemmDims,
    pattern: &CommPattern,
    system: &SystemSpec,
    instr: &Instrumentation,
) -> Result<MethodProfile, FlashOverlapError> {
    match method {
        Method::NonOverlap => {
            let (latency, spans) = run_nonoverlap_traced(dims, pattern, system, instr)?;
            Ok(MethodProfile {
                latency,
                spans: Some(spans),
            })
        }
        Method::VanillaDecomposition => {
            let (latency, spans) = run_decomposition_tuned_traced(dims, pattern, system, instr)?;
            Ok(MethodProfile {
                latency,
                spans: Some(spans),
            })
        }
        Method::AsyncTp => {
            let (latency, spans) = run_async_tp_traced(dims, pattern, system, instr)?;
            Ok(MethodProfile {
                latency,
                spans: Some(spans),
            })
        }
        Method::Flux => Ok(MethodProfile {
            latency: run_flux(dims, pattern.primitive(), system)?,
            spans: None,
        }),
        Method::FlashOverlap => {
            let plan = OverlapPlan::tuned(dims, pattern.clone(), system.clone())?;
            let out = plan.execute_with(&SequenceOptions::new().instrument(instr).trace())?;
            Ok(MethodProfile {
                latency: out.reports[0].latency,
                spans: Some(out.spans),
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn applicability_matrix_matches_paper() {
        let pcie = SystemSpec::rtx4090(4);
        let nvlink = SystemSpec::a800(4);
        let ar = CommPattern::AllReduce;
        let a2a = CommPattern::AllToAll {
            routing: vec![vec![0; 4]; 4],
        };
        assert!(Method::FlashOverlap.applicable(&ar, &pcie));
        assert!(Method::VanillaDecomposition.applicable(&ar, &pcie));
        assert!(!Method::Flux.applicable(&ar, &pcie), "FLUX needs P2P");
        assert!(!Method::AsyncTp.applicable(&ar, &pcie));
        assert!(Method::Flux.applicable(&ar, &nvlink));
        assert!(!Method::Flux.applicable(&a2a, &nvlink));
    }

    #[test]
    fn all_applicable_methods_measure_on_nvlink() {
        let dims = GemmDims::new(2048, 4096, 4096);
        let system = SystemSpec::a800(2);
        let pattern = CommPattern::AllReduce;
        for method in Method::ALL {
            if method.applicable(&pattern, &system) {
                let latency = measure(method, dims, &pattern, &system).unwrap();
                assert!(latency > SimDuration::ZERO, "{method}");
            }
        }
    }

    #[test]
    fn flash_overlap_wins_on_the_paper_sweet_spot() {
        // A balanced 4x4090 AllReduce shape: FlashOverlap must beat the
        // non-overlap baseline and the decomposition baseline.
        let dims = GemmDims::new(4096, 8192, 16384);
        let system = SystemSpec::rtx4090(4);
        let pattern = CommPattern::AllReduce;
        let base = measure(Method::NonOverlap, dims, &pattern, &system).unwrap();
        let dec = measure(Method::VanillaDecomposition, dims, &pattern, &system).unwrap();
        let fo = measure(Method::FlashOverlap, dims, &pattern, &system).unwrap();
        assert!(fo < base, "FlashOverlap {fo} vs non-overlap {base}");
        assert!(fo < dec, "FlashOverlap {fo} vs decomposition {dec}");
    }
}
