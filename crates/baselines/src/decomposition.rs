//! The decomposition-style baselines (§6.1.3, §2.4.3): NonOverlap,
//! VanillaDecomposition, Async-TP and micro-batch, each the crate's one
//! chunked program with its own chunk count, stream layout and chunk
//! communication (see the crate docs).

use flashoverlap::runtime::CommPattern;
use flashoverlap::{ChainWorld, FlashOverlapError, SystemSpec};
use gpu_sim::gemm::GemmDims;
use sim::SimDuration;

use crate::program::{fastest, ChunkComm, Chunked};

/// Chunk counts tried by [`run_decomposition_tuned`].
pub const CHUNK_CANDIDATES: [u32; 4] = [2, 4, 6, 8];

/// NonOverlap: the program at one chunk, so the collective waits for the
/// whole GEMM (cuBLAS then NCCL, synchronized by an event).
pub(crate) fn nonoverlap<'a>(
    dims: GemmDims,
    pattern: &'a CommPattern,
    system: &'a SystemSpec,
) -> Result<Chunked<'a>, FlashOverlapError> {
    Chunked::new(dims, system, 1, ChunkComm::Collective(pattern))
}

/// VanillaDecomposition at `chunks` chunks on one stream pair per rank:
/// chunk `i`'s collective overlaps chunk `i+1`'s GEMM. It needs neither
/// kernel fusion nor peer-to-peer access, but fragments the GEMM
/// (wave-quantization waste per chunk, §1) and cannot overlap at tile
/// granularity.
pub(crate) fn decomposition<'a>(
    dims: GemmDims,
    pattern: &'a CommPattern,
    system: &'a SystemSpec,
    chunks: u32,
) -> Result<Chunked<'a>, FlashOverlapError> {
    Chunked::new(dims, system, chunks, ChunkComm::Collective(pattern))?.whole_row_scatter()
}

/// VanillaDecomposition at the fastest chunk count in
/// [`CHUNK_CANDIDATES`] (a small grid search, as a practitioner would
/// tune it), with that count's latency.
pub(crate) fn tuned_decomposition(
    dims: GemmDims,
    pattern: &CommPattern,
    system: &SystemSpec,
) -> Result<(u32, SimDuration), FlashOverlapError> {
    let program = |chunks| decomposition(dims, pattern, system, chunks);
    fastest(&CHUNK_CANDIDATES, program)
}

/// Async-TP (PyTorch's async tensor parallelism): one chunk per rank,
/// moved by direct NVLink peer copies instead of collective calls. It
/// avoids NCCL launch overheads but needs "an NVLink connection between
/// all GPU pairs", so it refuses the PCIe server; All-to-All and
/// AllGather are out of its scope.
pub(crate) fn async_tp<'a>(
    dims: GemmDims,
    pattern: &CommPattern,
    system: &'a SystemSpec,
) -> Result<Chunked<'a>, FlashOverlapError> {
    let gather_back = match pattern {
        CommPattern::AllReduce => true,
        CommPattern::ReduceScatter => false,
        CommPattern::AllToAll { .. } | CommPattern::AllGather => {
            return Err(FlashOverlapError::IncompatibleShape {
                reason: "Async-TP implements only AllReduce and ReduceScatter here".into(),
            });
        }
    };
    let ring = ChunkComm::PeerRing { gather_back };
    Chunked::new(dims, system, system.n_gpus as u32, ring)
}

/// Runs NonOverlap — `GEMM; collective`, sequentially — and returns the
/// simulated latency.
///
/// # Errors
///
/// Returns [`FlashOverlapError::IncompatibleShape`] on fewer than two
/// GPUs or a ReduceScatter output that does not divide across the ranks,
/// [`FlashOverlapError::BadInputs`] on malformed All-to-All routing, and
/// propagates simulation failures.
pub fn run_nonoverlap(
    dims: GemmDims,
    pattern: &CommPattern,
    system: &SystemSpec,
) -> Result<SimDuration, FlashOverlapError> {
    nonoverlap(dims, pattern, system)?.latency(&mut ChainWorld::new())
}

/// Runs VanillaDecomposition with `chunks` row chunks and returns the
/// simulated latency.
///
/// # Errors
///
/// As [`run_nonoverlap`], and [`FlashOverlapError::IncompatibleShape`]
/// if `M` does not split into `chunks` chunks whose rows a ReduceScatter
/// can divide across the ranks.
pub fn run_decomposition(
    dims: GemmDims,
    pattern: &CommPattern,
    system: &SystemSpec,
    chunks: u32,
) -> Result<SimDuration, FlashOverlapError> {
    decomposition(dims, pattern, system, chunks)?.latency(&mut ChainWorld::new())
}

/// Runs VanillaDecomposition at every chunk count in
/// [`CHUNK_CANDIDATES`] and returns the best latency.
///
/// # Errors
///
/// Returns the first candidate's error if *no* candidate is feasible.
pub fn run_decomposition_tuned(
    dims: GemmDims,
    pattern: &CommPattern,
    system: &SystemSpec,
) -> Result<SimDuration, FlashOverlapError> {
    tuned_decomposition(dims, pattern, system).map(|(_, latency)| latency)
}

/// Runs the Async-TP-like peer-copy pipeline (AllReduce as a
/// ReduceScatter leg plus a gather back, or ReduceScatter alone) and
/// returns the simulated latency.
///
/// # Errors
///
/// Returns [`FlashOverlapError::IncompatibleShape`] on a fabric without
/// peer-to-peer access, on fewer than two GPUs, on All-to-All or
/// AllGather, or on `M` not splitting into one chunk per rank.
pub fn run_async_tp(
    dims: GemmDims,
    pattern: &CommPattern,
    system: &SystemSpec,
) -> Result<SimDuration, FlashOverlapError> {
    async_tp(dims, pattern, system)?.latency(&mut ChainWorld::new())
}

/// Runs micro-batch co-execution — the multi-dataflow family (Wang et
/// al., DeepSeek-V3, Lancet, FasterMoE) the paper surveys but does not
/// evaluate — on AllReduce or ReduceScatter and returns the makespan:
/// `micro_batches` chunks, each on its own stream pair, whose GEMMs
/// contend for SMs whenever their waves overlap.
///
/// # Errors
///
/// As [`run_decomposition`], and [`FlashOverlapError::IncompatibleShape`]
/// on All-to-All or AllGather.
pub fn run_microbatch(
    dims: GemmDims,
    pattern: &CommPattern,
    system: &SystemSpec,
    micro_batches: u32,
) -> Result<SimDuration, FlashOverlapError> {
    let program = decomposition(dims, pattern, system, micro_batches)?.own_streams()?;
    program.latency(&mut ChainWorld::new())
}

/// Best micro-batch makespan over 2 and 4 micro-batches (as a
/// practitioner would tune).
///
/// # Errors
///
/// Returns the first candidate's error if no candidate is feasible.
pub fn run_microbatch_tuned(
    dims: GemmDims,
    pattern: &CommPattern,
    system: &SystemSpec,
) -> Result<SimDuration, FlashOverlapError> {
    let program =
        |micro_batches| decomposition(dims, pattern, system, micro_batches)?.own_streams();
    fastest(&[2, 4], program).map(|(_, latency)| latency)
}

#[cfg(test)]
mod tests {
    use super::*;
    use collectives::{collective_duration, Primitive, BYTES_PER_ELEM};
    use flashoverlap::{OverlapPlan, WavePartition};
    use gpu_sim::gemm::{gemm_estimate, GemmConfig};

    /// Noise bound: measured latencies sit within the model plus the
    /// evaluation noise fractions.
    fn within_noise(measured: sim::SimDuration, expected: sim::SimDuration) -> bool {
        let m = measured.as_nanos() as f64;
        let e = expected.as_nanos() as f64;
        m >= e * 0.999 && m <= e * 1.08
    }

    #[test]
    fn latency_is_gemm_plus_comm() {
        let dims = GemmDims::new(4096, 8192, 4096);
        let system = SystemSpec::rtx4090(4);
        let measured = run_nonoverlap(dims, &CommPattern::AllReduce, &system).unwrap();
        let config = GemmConfig::choose(dims, &system.arch);
        let (_, gemm) = gemm_estimate(dims, &config, system.arch.sm_count, &system.arch);
        let comm = collective_duration(
            Primitive::AllReduce,
            dims.out_elems() * BYTES_PER_ELEM,
            4,
            system.fabric(),
        );
        let expected = gemm + comm;
        assert!(
            within_noise(measured, expected),
            "measured {measured} vs expected {expected}"
        );
    }

    #[test]
    fn matches_analytic_nonoverlap_model() {
        let dims = GemmDims::new(2048, 4096, 8192);
        let systems = [
            SystemSpec::a800(2),
            SystemSpec::a800(8).with_nodes(2),
            SystemSpec::rtx4090(4).with_nodes(2),
        ];
        for system in systems {
            let case = format!("{} x{}", system.arch.name, system.n_gpus);
            let measured = run_nonoverlap(dims, &CommPattern::AllReduce, &system).unwrap();
            let analytic = flashoverlap::nonoverlap_latency(dims, Primitive::AllReduce, &system);
            assert!(
                within_noise(measured, analytic),
                "{case}: measured {measured} vs analytic {analytic}"
            );
            if system.topology.spans_nodes() {
                // The closed form prices the machine the plan runs on: a
                // one-group plan, which overlaps nothing, is no faster
                // and only noise slower.
                let waves = system.planned_waves(dims);
                let single = WavePartition::single(waves);
                let plan = OverlapPlan::new(dims, CommPattern::AllReduce, system, single).unwrap();
                let simulated = plan.execute_with(&Default::default()).unwrap().total;
                let bounded = analytic <= simulated && within_noise(simulated, analytic);
                assert!(
                    bounded,
                    "{case}: analytic {analytic} vs one group {simulated}"
                );
            }
        }
    }

    #[test]
    fn reduce_scatter_is_cheaper_than_all_reduce() {
        let dims = GemmDims::new(4096, 4096, 4096);
        let system = SystemSpec::rtx4090(4);
        let ar = run_nonoverlap(dims, &CommPattern::AllReduce, &system).unwrap();
        let rs = run_nonoverlap(dims, &CommPattern::ReduceScatter, &system).unwrap();
        assert!(rs < ar);
    }

    #[test]
    fn all_to_all_runs_with_balanced_routing() {
        let dims = GemmDims::new(1024, 4096, 2048);
        let system = SystemSpec::rtx4090(4);
        let routing: Vec<Vec<usize>> = (0..4).map(|_| (0..1024).map(|r| r % 4).collect()).collect();
        let latency = run_nonoverlap(dims, &CommPattern::AllToAll { routing }, &system).unwrap();
        assert!(latency > SimDuration::ZERO);
    }

    #[test]
    fn bad_routing_is_rejected() {
        let dims = GemmDims::new(64, 64, 64);
        let system = SystemSpec::rtx4090(2);
        let routing = vec![vec![0usize; 64], vec![9usize; 64]];
        assert!(matches!(
            run_nonoverlap(dims, &CommPattern::AllToAll { routing }, &system),
            Err(FlashOverlapError::BadInputs { .. })
        ));
    }

    #[test]
    fn decomposition_beats_nonoverlap_on_balanced_shapes() {
        let dims = GemmDims::new(4096, 8192, 16384);
        let system = SystemSpec::rtx4090(4);
        let base = run_nonoverlap(dims, &CommPattern::AllReduce, &system).unwrap();
        let dec = run_decomposition_tuned(dims, &CommPattern::AllReduce, &system).unwrap();
        assert!(dec < base, "decomposition {dec} vs non-overlap {base}");
    }

    #[test]
    fn too_many_chunks_fragment_and_slow_down() {
        // Chunking into tiny GEMMs wastes wave quantization: with M = 512
        // rows on a 128-SM machine, 8 chunks of 64 rows leave most SMs
        // idle every chunk.
        let dims = GemmDims::new(512, 8192, 8192);
        let system = SystemSpec::rtx4090(4);
        let few = run_decomposition(dims, &CommPattern::AllReduce, &system, 2).unwrap();
        let many = run_decomposition(dims, &CommPattern::AllReduce, &system, 8).unwrap();
        assert!(many > few, "8 chunks {many} should be slower than 2 {few}");
    }

    #[test]
    fn indivisible_chunking_is_rejected() {
        let dims = GemmDims::new(1000, 4096, 4096);
        let system = SystemSpec::rtx4090(2);
        assert!(matches!(
            run_decomposition(dims, &CommPattern::AllReduce, &system, 3),
            Err(FlashOverlapError::IncompatibleShape { .. })
        ));
    }

    #[test]
    fn tuned_picks_a_feasible_candidate() {
        let dims = GemmDims::new(4096, 4096, 4096);
        let system = SystemSpec::a800(2);
        let tuned = run_decomposition_tuned(dims, &CommPattern::AllReduce, &system).unwrap();
        for &c in &CHUNK_CANDIDATES {
            if let Ok(l) = run_decomposition(dims, &CommPattern::AllReduce, &system, c) {
                assert!(tuned <= l);
            }
        }
    }

    #[test]
    fn reduce_scatter_decomposition_runs() {
        let dims = GemmDims::new(4096, 4096, 8192);
        let system = SystemSpec::rtx4090(4);
        let latency = run_decomposition(dims, &CommPattern::ReduceScatter, &system, 4).unwrap();
        assert!(latency > SimDuration::ZERO);
    }

    #[test]
    fn all_to_all_decomposition_runs() {
        let dims = GemmDims::new(2048, 4096, 4096);
        let system = SystemSpec::rtx4090(4);
        let routing: Vec<Vec<usize>> = (0..4)
            .map(|_| (0..2048).map(|r| (r * 7) % 4).collect())
            .collect();
        let latency =
            run_decomposition(dims, &CommPattern::AllToAll { routing }, &system, 4).unwrap();
        assert!(latency > SimDuration::ZERO);
    }

    #[test]
    fn refuses_pcie_fabric() {
        let dims = GemmDims::new(4096, 4096, 4096);
        let system = SystemSpec::rtx4090(4);
        assert!(matches!(
            run_async_tp(dims, &CommPattern::AllReduce, &system),
            Err(FlashOverlapError::IncompatibleShape { .. })
        ));
    }

    #[test]
    fn refuses_all_to_all() {
        let dims = GemmDims::new(4096, 4096, 4096);
        let system = SystemSpec::a800(2);
        let routing = vec![vec![0usize; 4096]; 2];
        assert!(matches!(
            run_async_tp(dims, &CommPattern::AllToAll { routing }, &system),
            Err(FlashOverlapError::IncompatibleShape { .. })
        ));
    }

    #[test]
    fn overlaps_on_nvlink_balanced_shapes() {
        let dims = GemmDims::new(8192, 8192, 2048);
        let system = SystemSpec::a800(4);
        let base = run_nonoverlap(dims, &CommPattern::AllReduce, &system).unwrap();
        let async_tp = run_async_tp(dims, &CommPattern::AllReduce, &system).unwrap();
        assert!(async_tp < base, "async-tp {async_tp} vs base {base}");
    }

    #[test]
    fn reduce_scatter_leg_is_cheaper_than_full_allreduce() {
        // Communication-heavy shape so the broadcast leg is exposed.
        let dims = GemmDims::new(8192, 8192, 512);
        let system = SystemSpec::a800(2);
        let ar = run_async_tp(dims, &CommPattern::AllReduce, &system).unwrap();
        let rs = run_async_tp(dims, &CommPattern::ReduceScatter, &system).unwrap();
        assert!(rs < ar);
    }

    #[test]
    fn microbatching_overlaps_dataflows() {
        let dims = GemmDims::new(4096, 8192, 16384);
        let system = SystemSpec::rtx4090(4);
        let base = run_nonoverlap(dims, &CommPattern::AllReduce, &system).unwrap();
        let mb = run_microbatch_tuned(dims, &CommPattern::AllReduce, &system).unwrap();
        assert!(mb < base, "micro-batching {mb} vs sequential {base}");
    }

    #[test]
    fn single_microbatch_equals_nonoverlap_roughly() {
        let dims = GemmDims::new(4096, 4096, 4096);
        let system = SystemSpec::rtx4090(2);
        let one = run_microbatch(dims, &CommPattern::AllReduce, &system, 1).unwrap();
        let base = run_nonoverlap(dims, &CommPattern::AllReduce, &system).unwrap();
        let ratio = one.as_nanos() as f64 / base.as_nanos() as f64;
        assert!((0.95..1.1).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn rejects_all_to_all_and_indivisible_shapes() {
        let system = SystemSpec::rtx4090(2);
        let routing = vec![vec![0usize; 4096]; 2];
        assert!(run_microbatch(
            GemmDims::new(4096, 4096, 4096),
            &CommPattern::AllToAll { routing },
            &system,
            2
        )
        .is_err());
        assert!(run_microbatch(
            GemmDims::new(1000, 4096, 4096),
            &CommPattern::AllReduce,
            &system,
            3
        )
        .is_err());
    }

    #[test]
    fn reduce_scatter_microbatching_runs() {
        let dims = GemmDims::new(4096, 4096, 8192);
        let system = SystemSpec::rtx4090(4);
        let latency = run_microbatch(dims, &CommPattern::ReduceScatter, &system, 2).unwrap();
        assert!(latency > SimDuration::ZERO);
    }
}
