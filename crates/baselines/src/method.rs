//! A unified dispatcher over all evaluated methods, for the benchmark
//! harness.

use flashoverlap::runtime::{CommPattern, Instrumentation};
use flashoverlap::{ChainWorld, FlashOverlapError, OverlapPlan, SequenceOptions, SystemSpec};
use gpu_sim::gemm::GemmDims;
use gpu_sim::OpSpan;
use sim::SimDuration;

use crate::decomposition::{self, run_async_tp, run_decomposition_tuned, run_nonoverlap};
use crate::flux::run_flux;
use crate::program::Chunked;

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
        let tensor_parallel =
            matches!(pattern, CommPattern::AllReduce | CommPattern::ReduceScatter);
        match self {
            Method::NonOverlap | Method::VanillaDecomposition | Method::FlashOverlap => true,
            Method::AsyncTp | Method::Flux => system.peer_to_peer() && tensor_parallel,
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
            let out = plan.execute_with(&SequenceOptions::new())?;
            Ok(out.reports.first().map_or(out.total, |r| r.latency))
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
/// `instr`'s monitor/probe installed. VanillaDecomposition tunes its chunk
/// count with plain runs first, so the hooks observe exactly one run of
/// the configuration a practitioner would deploy.
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
    let run = |program: Chunked| {
        let traced = program.run(&mut ChainWorld::new(), instr, true);
        traced.map(|(latency, spans)| (latency, Some(spans)))
    };
    let (latency, spans) = match method {
        Method::NonOverlap => run(decomposition::nonoverlap(dims, pattern, system)?)?,
        Method::VanillaDecomposition => {
            let (chunks, _) = decomposition::tuned_decomposition(dims, pattern, system)?;
            run(decomposition::decomposition(dims, pattern, system, chunks)?)?
        }
        Method::AsyncTp => run(decomposition::async_tp(dims, pattern, system)?)?,
        Method::Flux => (run_flux(dims, pattern.primitive(), system)?, None),
        Method::FlashOverlap => {
            let plan = OverlapPlan::tuned(dims, pattern.clone(), system.clone())?;
            let out = plan.execute_with(&SequenceOptions::new().instrument(instr).trace())?;
            let latency = out.reports.first().map_or(out.total, |r| r.latency);
            (latency, Some(out.spans))
        }
    };
    Ok(MethodProfile { latency, spans })
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
    fn peer_to_peer_methods_refuse_the_inter_node_tier() {
        // NVLink inside each node, HDR InfiniBand between them.
        let dims = GemmDims::new(4096, 8192, 4096);
        let (flat, two_tier) = (SystemSpec::a800(8), SystemSpec::a800(8).with_nodes(2));
        for pattern in [CommPattern::AllReduce, CommPattern::ReduceScatter] {
            for method in [Method::AsyncTp, Method::Flux] {
                assert!(method.applicable(&pattern, &flat), "{method} on one node");
                assert!(!method.applicable(&pattern, &two_tier), "{method} on two");
                let refused = measure(method, dims, &pattern, &two_tier);
                assert!(
                    matches!(refused, Err(FlashOverlapError::IncompatibleShape { .. })),
                    "{method}: {refused:?}"
                );
            }
        }
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
    fn one_gpu_systems_get_errors_not_panics() {
        let dims = GemmDims::new(256, 256, 256);
        let incompatible =
            |r: &Result<_, _>| matches!(r, Err(FlashOverlapError::IncompatibleShape { .. }));
        for system in [SystemSpec::rtx4090(1), SystemSpec::a800(1)] {
            let routing = vec![vec![0; 256]];
            for pattern in [
                CommPattern::AllReduce,
                CommPattern::ReduceScatter,
                CommPattern::AllGather,
                CommPattern::AllToAll { routing },
            ] {
                let case = format!("{pattern:?} on {}", system.arch.name);
                for method in Method::ALL {
                    let plain = measure(method, dims, &pattern, &system);
                    let traced =
                        measure_traced(method, dims, &pattern, &system, &Default::default());
                    // FLUX is analytic: it may price a one-GPU run.
                    if method != Method::Flux {
                        assert!(incompatible(&plain), "{method}, {case}: {plain:?}");
                        assert!(traced.is_err(), "{method}, {case}");
                    }
                }
                let micro = crate::run_microbatch_tuned(dims, &pattern, &system);
                assert!(incompatible(&micro), "micro-batch, {case}: {micro:?}");
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
