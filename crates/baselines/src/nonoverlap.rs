//! The non-overlap baseline: GEMM, then one collective, sequentially.

use std::rc::Rc;

use collectives::{A2aPlan, CollectiveSpec, Communicator, Region};
use flashoverlap::runtime::{CommPattern, Instrumentation};
use flashoverlap::{FlashOverlapError, SystemSpec};
use gpu_sim::gemm::{GemmConfig, GemmDims, GemmKernel};
use gpu_sim::stream::{enqueue, Op};
use gpu_sim::{ClusterSim, OpSpan};
use sim::{Sim, SimDuration, SimTime};

/// Runs `GEMM; AllReduce/ReduceScatter/AllToAll` sequentially (cuBLAS then
/// NCCL, synchronized by an event) and returns the simulated latency.
///
/// # Errors
///
/// Propagates simulation failures and malformed All-to-All routing.
pub fn run_nonoverlap(
    dims: GemmDims,
    pattern: &CommPattern,
    system: &SystemSpec,
) -> Result<SimDuration, FlashOverlapError> {
    run_nonoverlap_traced(dims, pattern, system, &Instrumentation::default()).map(|(l, _)| l)
}

/// [`run_nonoverlap`] with observation hooks attached and per-stream
/// operation spans recorded — the profiling entry point.
///
/// # Errors
///
/// Propagates simulation failures and malformed All-to-All routing.
pub fn run_nonoverlap_traced(
    dims: GemmDims,
    pattern: &CommPattern,
    system: &SystemSpec,
    instr: &Instrumentation,
) -> Result<(SimDuration, Vec<OpSpan>), FlashOverlapError> {
    let n = system.n_gpus;
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
    )
    .open(&mut world);
    let config = GemmConfig::choose(dims, &system.arch);
    let issue = config.issue_order(dims);

    let out_elems = dims.out_elems() as usize;
    let recv_len = match pattern {
        CommPattern::AllGather => out_elems * n,
        _ => out_elems,
    };
    let mut out_bufs = Vec::with_capacity(n);
    let mut recv_bufs = Vec::with_capacity(n);
    let mut compute = Vec::with_capacity(n);
    let mut comm_streams = Vec::with_capacity(n);
    let mut events = Vec::with_capacity(n);
    for d in 0..n {
        let dev = &mut world.devices[d];
        compute.push(dev.create_stream());
        comm_streams.push(dev.create_stream());
        events.push(dev.create_event());
    }
    // Host-process launch skew, matching the overlapped runtime's model.
    if system.launch_skew_ns > 0 {
        for d in 0..n {
            let delay = sim::SimDuration::from_nanos(
                world.devices[d]
                    .rng
                    .uniform(0.0, system.launch_skew_ns as f64) as u64,
            );
            enqueue(&mut world, &mut sim, d, compute[d], Op::Delay(delay));
            enqueue(&mut world, &mut sim, d, comm_streams[d], Op::Delay(delay));
        }
    }
    for d in 0..n {
        let dev = &mut world.devices[d];
        let a = dev.mem.alloc((dims.m * dims.k) as usize);
        let b = dev.mem.alloc((dims.k * dims.n) as usize);
        let out = dev.mem.alloc(out_elems);
        out_bufs.push(out);
        recv_bufs.push(dev.mem.alloc(recv_len.max(1)));
        let kernel = GemmKernel {
            a,
            b,
            out,
            dims,
            config,
            issue: Rc::clone(&issue),
            writer: Rc::new(gpu_sim::gemm::AddressOrderWriter),
            counter: None,
        };
        enqueue(&mut world, &mut sim, d, compute[d], Op::Gemm(kernel));
        enqueue(
            &mut world,
            &mut sim,
            d,
            compute[d],
            Op::RecordEvent(events[d]),
        );
    }

    let spec = match pattern {
        CommPattern::AllReduce => CollectiveSpec::AllReduce {
            regions: (0..n)
                .map(|d| Region::new(out_bufs[d], 0, out_elems))
                .collect(),
        },
        CommPattern::ReduceScatter => {
            if !out_elems.is_multiple_of(n) {
                return Err(FlashOverlapError::IncompatibleShape {
                    reason: format!("output of {out_elems} elements does not divide {n} ranks"),
                });
            }
            CollectiveSpec::ReduceScatter {
                send: (0..n)
                    .map(|d| Region::new(out_bufs[d], 0, out_elems))
                    .collect(),
                recv: (0..n)
                    .map(|d| Region::new(recv_bufs[d], 0, out_elems / n))
                    .collect(),
            }
        }
        CommPattern::AllToAll { routing } => {
            let plan = single_shot_a2a_plan(dims, routing, n)?;
            CollectiveSpec::AllToAllV {
                send: out_bufs.clone(),
                recv: recv_bufs.clone(),
                plan: Rc::new(plan),
            }
        }
        CommPattern::AllGather => CollectiveSpec::AllGather {
            send: (0..n)
                .map(|d| Region::new(out_bufs[d], 0, out_elems))
                .collect(),
            recv: (0..n)
                .map(|d| Region::new(recv_bufs[d], 0, out_elems * n))
                .collect(),
        },
    };
    for (d, kernel) in comm.ops(spec).enumerate() {
        enqueue(
            &mut world,
            &mut sim,
            d,
            comm_streams[d],
            Op::WaitEvent(events[d]),
        );
        enqueue(&mut world, &mut sim, d, comm_streams[d], kernel);
    }
    let end = sim.run(&mut world)?;
    let spans = world.op_spans.take().unwrap_or_default();
    Ok((end - SimTime::ZERO, spans))
}

/// Builds a one-shot All-to-All plan over natural row order: rank `s`
/// sends row `r` (as one `N`-wide segment) to `routing[s][r]`.
///
/// In the non-overlap baseline the MoE stack's existing permute kernel is
/// assumed fused into the epilogue, matching what FlashOverlap gets for
/// free — only communication structure differs.
///
/// # Errors
///
/// Returns [`FlashOverlapError::BadInputs`] on malformed routing.
fn single_shot_a2a_plan(
    dims: GemmDims,
    routing: &[Vec<usize>],
    n: usize,
) -> Result<A2aPlan, FlashOverlapError> {
    if routing.len() != n {
        return Err(FlashOverlapError::BadInputs {
            reason: format!("{} routing tables for {} ranks", routing.len(), n),
        });
    }
    let m = dims.m as usize;
    let n_cols = dims.n as usize;
    for (r, table) in routing.iter().enumerate() {
        if table.len() != m || table.iter().any(|&d| d >= n) {
            return Err(FlashOverlapError::BadInputs {
                reason: format!("bad routing table for rank {r}"),
            });
        }
    }
    // Sends must be contiguous per destination, so the baseline also packs
    // by destination (dest-major, row-ascending) — its send offsets refer
    // to that packed layout.
    let mut send_off = vec![vec![0usize; n]; n];
    let mut len = vec![vec![0usize; n]; n];
    for (src, table) in routing.iter().enumerate() {
        let mut acc = 0usize;
        for dest in 0..n {
            send_off[src][dest] = acc;
            let rows = table.iter().filter(|&&d| d == dest).count();
            len[src][dest] = rows * n_cols;
            acc += rows * n_cols;
        }
    }
    let mut recv_off = vec![vec![0usize; n]; n];
    for dest in 0..n {
        let mut acc = 0usize;
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
    use collectives::{collective_duration, Primitive, BYTES_PER_ELEM};
    use gpu_sim::gemm::gemm_estimate;

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
            &system.fabric,
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
        let system = SystemSpec::a800(2);
        let measured = run_nonoverlap(dims, &CommPattern::AllReduce, &system).unwrap();
        let analytic = flashoverlap::nonoverlap_latency(dims, Primitive::AllReduce, &system);
        assert!(
            within_noise(measured, analytic),
            "measured {measured} vs analytic {analytic}"
        );
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
}
