//! VanillaDecomposition: row-chunked cuBLAS + NCCL pipelining (§6.1.3).
//!
//! The output is decomposed into `C` row chunks. Chunk `i`'s GEMM runs on
//! the compute stream; once it finishes (event), its collective runs on
//! the communication stream, overlapping chunk `i+1`'s GEMM. This is the
//! strongest baseline that, like FlashOverlap, needs neither kernel
//! fusion nor peer-to-peer access — but it fragments the GEMM (wave
//! quantization waste per chunk, §1) and cannot overlap at tile
//! granularity.

use std::rc::Rc;

use collectives::{A2aPlan, CollectiveSpec, Communicator, Region};
use flashoverlap::runtime::{CommPattern, Instrumentation};
use flashoverlap::{FlashOverlapError, SystemSpec};
use gpu_sim::gemm::{AddressOrderWriter, GemmConfig, GemmDims, GemmKernel};
use gpu_sim::stream::{enqueue, RecordEvent, WaitEvent};
use gpu_sim::{ClusterSim, OpSpan};
use sim::{Sim, SimDuration, SimTime};

/// Chunk counts tried by [`run_decomposition_tuned`].
pub const CHUNK_CANDIDATES: [u32; 4] = [2, 4, 6, 8];

/// Runs the decomposition baseline with `chunks` row chunks and returns
/// the simulated latency.
///
/// # Errors
///
/// Returns [`FlashOverlapError::IncompatibleShape`] if `M` does not split
/// into `chunks` equal chunks compatible with the primitive, and
/// propagates simulation failures.
pub fn run_decomposition(
    dims: GemmDims,
    pattern: &CommPattern,
    system: &SystemSpec,
    chunks: u32,
) -> Result<SimDuration, FlashOverlapError> {
    run_decomposition_traced(dims, pattern, system, chunks, &Instrumentation::default())
        .map(|(l, _)| l)
}

/// [`run_decomposition`] with observation hooks attached and per-stream
/// operation spans recorded — the profiling entry point.
///
/// # Errors
///
/// Same as [`run_decomposition`].
pub fn run_decomposition_traced(
    dims: GemmDims,
    pattern: &CommPattern,
    system: &SystemSpec,
    chunks: u32,
    instr: &Instrumentation,
) -> Result<(SimDuration, Vec<OpSpan>), FlashOverlapError> {
    let n = system.n_gpus;
    if chunks == 0 || !dims.m.is_multiple_of(chunks) {
        return Err(FlashOverlapError::IncompatibleShape {
            reason: format!("M = {} does not split into {chunks} chunks", dims.m),
        });
    }
    let chunk_rows = dims.m / chunks;
    if matches!(pattern, CommPattern::ReduceScatter) && !(chunk_rows as usize).is_multiple_of(n) {
        return Err(FlashOverlapError::IncompatibleShape {
            reason: format!("chunk rows {chunk_rows} do not divide {n} ranks"),
        });
    }

    let mut world = system.build_cluster(false);
    world.enable_op_spans();
    if let Some(monitor) = &instr.monitor {
        world.set_monitor(Rc::clone(monitor));
    }
    let mut sim: ClusterSim = Sim::new();
    if let Some(probe) = &instr.probe {
        sim.set_probe(Rc::clone(probe));
    }
    let comm = Communicator::with_algorithm(
        (0..n).collect(),
        system.fabric.clone(),
        system.comm_sms,
        system.algorithm,
    );
    let chunk_dims = GemmDims::new(chunk_rows, dims.n, dims.k);
    // Each chunk GEMM is configured for its own (smaller) shape, exactly
    // as separate cuBLAS calls would be.
    let config = GemmConfig::choose(chunk_dims, &system.arch);
    let issue = config.issue_order(chunk_dims);
    let chunk_elems = (chunk_rows * dims.n) as usize;

    let mut compute = Vec::with_capacity(n);
    let mut comm_streams = Vec::with_capacity(n);
    let mut a_bufs = Vec::with_capacity(n);
    let mut b_bufs = Vec::with_capacity(n);
    let mut out_bufs = Vec::with_capacity(n);
    let mut recv_bufs = Vec::with_capacity(n);
    let recv_len = match pattern {
        CommPattern::AllGather => dims.out_elems() as usize * n,
        _ => dims.out_elems() as usize,
    };
    for d in 0..n {
        let dev = &mut world.devices[d];
        compute.push(dev.create_stream());
        comm_streams.push(dev.create_stream());
        a_bufs.push(dev.mem.alloc((chunk_rows * dims.k) as usize));
        b_bufs.push(dev.mem.alloc((dims.k * dims.n) as usize));
        out_bufs.push(dev.mem.alloc(dims.out_elems() as usize));
        recv_bufs.push(dev.mem.alloc(recv_len));
    }

    for c in 0..chunks {
        // Per-chunk completion events (one per rank).
        let mut events = Vec::with_capacity(n);
        for d in 0..n {
            events.push(world.devices[d].create_event());
        }
        let chunk_off = (c * chunk_rows * dims.n) as usize;
        for d in 0..n {
            let kernel = GemmKernel {
                a: a_bufs[d],
                b: b_bufs[d],
                out: out_bufs[d],
                dims: chunk_dims,
                config,
                issue: Rc::clone(&issue),
                writer: Rc::new(AddressOrderWriter),
                counter: None,
            };
            enqueue(&mut world, &mut sim, d, compute[d], Box::new(kernel));
            enqueue(
                &mut world,
                &mut sim,
                d,
                compute[d],
                Box::new(RecordEvent(events[d])),
            );
        }
        let spec = match pattern {
            CommPattern::AllReduce => CollectiveSpec::AllReduce {
                regions: (0..n)
                    .map(|d| Region::new(out_bufs[d], chunk_off, chunk_elems))
                    .collect(),
            },
            CommPattern::ReduceScatter => CollectiveSpec::ReduceScatter {
                send: (0..n)
                    .map(|d| Region::new(out_bufs[d], chunk_off, chunk_elems))
                    .collect(),
                recv: (0..n)
                    .map(|d| Region::new(recv_bufs[d], chunk_off / n, chunk_elems / n))
                    .collect(),
            },
            CommPattern::AllToAll { routing } => {
                let plan = chunk_a2a_plan(dims, routing, n, c * chunk_rows, chunk_rows)?;
                CollectiveSpec::AllToAllV {
                    send: out_bufs.clone(),
                    recv: recv_bufs.clone(),
                    plan: Rc::new(plan),
                }
            }
            CommPattern::AllGather => CollectiveSpec::AllGather {
                send: (0..n)
                    .map(|d| Region::new(out_bufs[d], chunk_off, chunk_elems))
                    .collect(),
                recv: (0..n)
                    .map(|d| Region::new(recv_bufs[d], chunk_off * n, chunk_elems * n))
                    .collect(),
            },
        };
        for (d, kernel) in comm.kernels(spec).into_iter().enumerate() {
            enqueue(
                &mut world,
                &mut sim,
                d,
                comm_streams[d],
                Box::new(WaitEvent(events[d])),
            );
            enqueue(&mut world, &mut sim, d, comm_streams[d], Box::new(kernel));
        }
    }
    let end = sim.run(&mut world)?;
    let spans = world.op_spans.take().unwrap_or_default();
    Ok((end - SimTime::ZERO, spans))
}

/// Runs the decomposition baseline at every chunk count in
/// [`CHUNK_CANDIDATES`] that divides the shape, returning the best
/// latency (a small grid search, as a practitioner would tune it).
///
/// # Errors
///
/// Returns the first error if *no* candidate is feasible.
pub fn run_decomposition_tuned(
    dims: GemmDims,
    pattern: &CommPattern,
    system: &SystemSpec,
) -> Result<SimDuration, FlashOverlapError> {
    let mut best: Option<SimDuration> = None;
    let mut first_err = None;
    for &chunks in &CHUNK_CANDIDATES {
        match run_decomposition(dims, pattern, system, chunks) {
            Ok(latency) => {
                if best.is_none_or(|b| latency < b) {
                    best = Some(latency);
                }
            }
            Err(e) => {
                if first_err.is_none() {
                    first_err = Some(e);
                }
            }
        }
    }
    best.ok_or_else(|| {
        first_err.unwrap_or(FlashOverlapError::IncompatibleShape {
            reason: "no feasible chunk count".into(),
        })
    })
}

/// Tunes the chunk count with plain (unobserved) runs, then re-runs the
/// winner with observation hooks attached, so the recorded telemetry
/// covers exactly one run of the configuration a practitioner would
/// deploy.
///
/// # Errors
///
/// Returns the first error if *no* candidate is feasible.
pub fn run_decomposition_tuned_traced(
    dims: GemmDims,
    pattern: &CommPattern,
    system: &SystemSpec,
    instr: &Instrumentation,
) -> Result<(SimDuration, Vec<OpSpan>), FlashOverlapError> {
    let mut best: Option<(u32, SimDuration)> = None;
    let mut first_err = None;
    for &chunks in &CHUNK_CANDIDATES {
        match run_decomposition(dims, pattern, system, chunks) {
            Ok(latency) => {
                if best.is_none_or(|(_, b)| latency < b) {
                    best = Some((chunks, latency));
                }
            }
            Err(e) => {
                if first_err.is_none() {
                    first_err = Some(e);
                }
            }
        }
    }
    let Some((chunks, _)) = best else {
        return Err(first_err.unwrap_or(FlashOverlapError::IncompatibleShape {
            reason: "no feasible chunk count".into(),
        }));
    };
    run_decomposition_traced(dims, pattern, system, chunks, instr)
}

/// All-to-All plan for the rows `[row0, row0 + rows)` of a chunk.
fn chunk_a2a_plan(
    dims: GemmDims,
    routing: &[Vec<usize>],
    n: usize,
    row0: u32,
    rows: u32,
) -> Result<A2aPlan, FlashOverlapError> {
    if routing.len() != n {
        return Err(FlashOverlapError::BadInputs {
            reason: format!("{} routing tables for {} ranks", routing.len(), n),
        });
    }
    let n_cols = dims.n as usize;
    let range = row0 as usize..(row0 + rows) as usize;
    let mut send_off = vec![vec![0usize; n]; n];
    let mut len = vec![vec![0usize; n]; n];
    for (src, table) in routing.iter().enumerate() {
        if table.len() != dims.m as usize || table.iter().any(|&d| d >= n) {
            return Err(FlashOverlapError::BadInputs {
                reason: format!("bad routing table for rank {src}"),
            });
        }
        let mut acc = range.start * n_cols;
        for dest in 0..n {
            send_off[src][dest] = acc;
            let count = table[range.clone()].iter().filter(|&&d| d == dest).count();
            len[src][dest] = count * n_cols;
            acc += count * n_cols;
        }
    }
    let mut recv_off = vec![vec![0usize; n]; n];
    for dest in 0..n {
        let mut acc = range.start * n_cols;
        for src in 0..n {
            recv_off[dest][src] = acc;
            acc += len[src][dest];
        }
    }
    Ok(A2aPlan {
        send_off,
        len,
        recv_off,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nonoverlap::run_nonoverlap;

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
}
