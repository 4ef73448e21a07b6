//! An Async-TP-like baseline: ring-pipelined decomposition over
//! peer-to-peer copies (PyTorch's async tensor parallelism, §6.1.3).
//!
//! Async-TP decomposes the GEMM into `n` (rank count) chunks and moves
//! partial results with direct NVLink peer copies instead of collective
//! calls, avoiding NCCL launch overheads but requiring "an NVLink
//! connection between all GPU pairs" — so, like the real system, this
//! baseline refuses to run on the PCIe server.

use std::rc::Rc;

use collectives::P2pCopy;
use flashoverlap::runtime::{CommPattern, Instrumentation};
use flashoverlap::{FlashOverlapError, SystemSpec};
use gpu_sim::gemm::{AddressOrderWriter, GemmConfig, GemmDims, GemmKernel};
use gpu_sim::stream::{enqueue, RecordEvent, WaitEvent};
use gpu_sim::{ClusterSim, OpSpan};
use sim::{Sim, SimDuration, SimTime};

/// SMs a peer-copy kernel occupies (copy engines + a small SM footprint).
const P2P_SM_FOOTPRINT: u32 = 8;

/// Runs the Async-TP-like pipeline and returns the simulated latency.
///
/// Supports AllReduce (as ReduceScatter + AllGather over peer copies) and
/// ReduceScatter. All-to-All is out of scope for Async-TP, as in the real
/// implementation.
///
/// # Errors
///
/// Returns [`FlashOverlapError::IncompatibleShape`] on a fabric without
/// peer-to-peer access, on unsupported patterns, or on indivisible
/// shapes.
pub fn run_async_tp(
    dims: GemmDims,
    pattern: &CommPattern,
    system: &SystemSpec,
) -> Result<SimDuration, FlashOverlapError> {
    run_async_tp_traced(dims, pattern, system, &Instrumentation::default()).map(|(l, _)| l)
}

/// [`run_async_tp`] with observation hooks attached and per-stream
/// operation spans recorded — the profiling entry point.
///
/// # Errors
///
/// Same as [`run_async_tp`].
pub fn run_async_tp_traced(
    dims: GemmDims,
    pattern: &CommPattern,
    system: &SystemSpec,
    instr: &Instrumentation,
) -> Result<(SimDuration, Vec<OpSpan>), FlashOverlapError> {
    if !system.fabric.peer_to_peer {
        return Err(FlashOverlapError::IncompatibleShape {
            reason: "Async-TP requires peer-to-peer (NVLink) access between all GPU pairs".into(),
        });
    }
    let n = system.n_gpus;
    let chunks = n as u32;
    if !dims.m.is_multiple_of(chunks) {
        return Err(FlashOverlapError::IncompatibleShape {
            reason: format!("M = {} does not split into {chunks} ring chunks", dims.m),
        });
    }
    // Each rank's chunk result is scattered to its owner (ReduceScatter
    // leg); AllReduce additionally gathers the reduced chunks back.
    let gather_back = match pattern {
        CommPattern::AllReduce => true,
        CommPattern::ReduceScatter => false,
        CommPattern::AllToAll { .. } | CommPattern::AllGather => {
            return Err(FlashOverlapError::IncompatibleShape {
                reason: "Async-TP implements only AllReduce and ReduceScatter here".into(),
            });
        }
    };

    let chunk_rows = dims.m / chunks;
    let chunk_dims = GemmDims::new(chunk_rows, dims.n, dims.k);
    let config = GemmConfig::choose(chunk_dims, &system.arch);
    let issue = config.issue_order(chunk_dims);
    let chunk_elems = (chunk_rows * dims.n) as usize;

    let mut world = system.build_cluster(false);
    world.enable_op_spans();
    if let Some(monitor) = &instr.monitor {
        world.set_monitor(Rc::clone(monitor));
    }
    let mut sim: ClusterSim = Sim::new();
    if let Some(probe) = &instr.probe {
        sim.set_probe(Rc::clone(probe));
    }
    let mut compute = Vec::with_capacity(n);
    let mut comm_streams = Vec::with_capacity(n);
    let mut out_bufs = Vec::with_capacity(n);
    let mut stage_bufs = Vec::with_capacity(n);
    let mut a_bufs = Vec::with_capacity(n);
    let mut b_bufs = Vec::with_capacity(n);
    for d in 0..n {
        let dev = &mut world.devices[d];
        compute.push(dev.create_stream());
        comm_streams.push(dev.create_stream());
        a_bufs.push(dev.mem.alloc((chunk_rows * dims.k) as usize));
        b_bufs.push(dev.mem.alloc((dims.k * dims.n) as usize));
        out_bufs.push(dev.mem.alloc(dims.out_elems() as usize));
        stage_bufs.push(dev.mem.alloc(dims.out_elems() as usize));
    }

    for c in 0..chunks {
        let mut events = Vec::with_capacity(n);
        for d in 0..n {
            events.push(world.devices[d].create_event());
        }
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
        // Each rank pushes its partial chunk to the chunk's owner; the
        // per-direction NVLink links run these puts in parallel, so the
        // chunk's communication occupies the comm stream for one
        // chunk-sized copy (plus the reduced-chunk broadcast for
        // AllReduce).
        let chunk_off = (c * chunk_rows * dims.n) as usize;
        let owner = c as usize % n;
        for d in 0..n {
            enqueue(
                &mut world,
                &mut sim,
                d,
                comm_streams[d],
                Box::new(WaitEvent(events[d])),
            );
            if d != owner {
                enqueue(
                    &mut world,
                    &mut sim,
                    d,
                    comm_streams[d],
                    Box::new(P2pCopy {
                        fabric: system.fabric.clone(),
                        src_buf: out_bufs[d],
                        src_off: chunk_off,
                        dst_dev: owner,
                        dst_buf: stage_bufs[owner],
                        dst_off: chunk_off,
                        count: chunk_elems,
                        sm_footprint: P2P_SM_FOOTPRINT,
                    }),
                );
            }
            if gather_back && d == owner {
                // Owner broadcasts the reduced chunk to every peer.
                for peer in 0..n {
                    if peer == owner {
                        continue;
                    }
                    enqueue(
                        &mut world,
                        &mut sim,
                        d,
                        comm_streams[d],
                        Box::new(P2pCopy {
                            fabric: system.fabric.clone(),
                            src_buf: out_bufs[d],
                            src_off: chunk_off,
                            dst_dev: peer,
                            dst_buf: out_bufs[peer],
                            dst_off: chunk_off,
                            count: chunk_elems,
                            sm_footprint: P2P_SM_FOOTPRINT,
                        }),
                    );
                }
            }
        }
    }
    let end = sim.run(&mut world)?;
    let spans = world.op_spans.take().unwrap_or_default();
    Ok((end - SimTime::ZERO, spans))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nonoverlap::run_nonoverlap;

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
}
