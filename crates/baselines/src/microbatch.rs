//! Micro-batch co-execution: the multi-dataflow scheduling family
//! (§2.4.3).
//!
//! Instead of overlapping *within* one operator, this family splits the
//! batch into micro-batches and overlaps micro-batch `i`'s communication
//! with micro-batch `i+1`'s computation — two independent dataflows on
//! separate stream pairs. The paper surveys this approach (Wang et al.,
//! DeepSeek-V3, Lancet, FasterMoE) but does not evaluate it; this
//! implementation makes the comparison concrete. Its structural costs:
//! each micro-batch GEMM is smaller (wave-quantization waste, §1) and the
//! two compute streams contend for SMs whenever their waves overlap.

use std::rc::Rc;

use collectives::{CollectiveSpec, Communicator, Region};
use flashoverlap::runtime::CommPattern;
use flashoverlap::{FlashOverlapError, SystemSpec};
use gpu_sim::gemm::{AddressOrderWriter, GemmConfig, GemmDims, GemmKernel};
use gpu_sim::stream::{enqueue, Op};
use gpu_sim::ClusterSim;
use sim::{Sim, SimDuration, SimTime};

/// Runs `micro_batches` independent GEMM+collective dataflows (one stream
/// pair each) and returns the makespan.
///
/// Supports AllReduce and ReduceScatter (the patterns the surveyed
/// systems target).
///
/// # Errors
///
/// Returns [`FlashOverlapError::IncompatibleShape`] on indivisible
/// shapes or unsupported patterns.
pub fn run_microbatch(
    dims: GemmDims,
    pattern: &CommPattern,
    system: &SystemSpec,
    micro_batches: u32,
) -> Result<SimDuration, FlashOverlapError> {
    let n = system.n_gpus;
    if micro_batches == 0 || !dims.m.is_multiple_of(micro_batches) {
        return Err(FlashOverlapError::IncompatibleShape {
            reason: format!(
                "M = {} does not split into {micro_batches} micro-batches",
                dims.m
            ),
        });
    }
    if matches!(
        pattern,
        CommPattern::AllToAll { .. } | CommPattern::AllGather
    ) {
        return Err(FlashOverlapError::IncompatibleShape {
            reason: "micro-batch baseline implements AllReduce and ReduceScatter".into(),
        });
    }
    let mb_rows = dims.m / micro_batches;
    if matches!(pattern, CommPattern::ReduceScatter) && !(mb_rows as usize).is_multiple_of(n) {
        return Err(FlashOverlapError::IncompatibleShape {
            reason: format!("micro-batch rows {mb_rows} do not divide {n} ranks"),
        });
    }

    let mut world = system.build_cluster(false);
    let mut sim: ClusterSim = Sim::new();
    let comm = Communicator::with_algorithm(
        (0..n).collect(),
        system.fabric.clone(),
        system.comm_sms,
        system.algorithm,
    )
    .open(&mut world);
    let mb_dims = GemmDims::new(mb_rows, dims.n, dims.k);
    let config = GemmConfig::choose(mb_dims, &system.arch);
    let issue = config.issue_order(mb_dims);
    let mb_elems = (mb_rows * dims.n) as usize;

    // One compute + one comm stream per (device, micro-batch): the
    // dataflows are fully independent and the SM ledger arbitrates.
    for mb in 0..micro_batches {
        let mut events = Vec::with_capacity(n);
        let mut out_bufs = Vec::with_capacity(n);
        let mut recv_bufs = Vec::with_capacity(n);
        let mut comm_streams = Vec::with_capacity(n);
        for d in 0..n {
            let dev = &mut world.devices[d];
            let compute = dev.create_stream();
            comm_streams.push(dev.create_stream());
            events.push(dev.create_event());
            let a = dev.mem.alloc((mb_rows * dims.k) as usize);
            let b = dev.mem.alloc((dims.k * dims.n) as usize);
            let out = dev.mem.alloc(mb_elems);
            out_bufs.push(out);
            recv_bufs.push(dev.mem.alloc(mb_elems));
            let kernel = GemmKernel {
                a,
                b,
                out,
                dims: mb_dims,
                config,
                issue: Rc::clone(&issue),
                writer: Rc::new(AddressOrderWriter),
                counter: None,
            };
            enqueue(&mut world, &mut sim, d, compute, Op::Gemm(kernel));
            enqueue(&mut world, &mut sim, d, compute, Op::RecordEvent(events[d]));
        }
        let spec = match pattern {
            CommPattern::AllReduce => CollectiveSpec::AllReduce {
                regions: (0..n)
                    .map(|d| Region::new(out_bufs[d], 0, mb_elems))
                    .collect(),
            },
            CommPattern::ReduceScatter => CollectiveSpec::ReduceScatter {
                send: (0..n)
                    .map(|d| Region::new(out_bufs[d], 0, mb_elems))
                    .collect(),
                recv: (0..n)
                    .map(|d| Region::new(recv_bufs[d], 0, mb_elems / n))
                    .collect(),
            },
            _ => unreachable!("validated above"),
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
        let _ = mb;
    }
    let end = sim.run(&mut world)?;
    world.check_quiescent().map_err(|wedge| {
        let stuck: Vec<String> = wedge.streams.iter().map(ToString::to_string).collect();
        FlashOverlapError::Simulation(format!("deadlock: {}", stuck.join("; ")))
    })?;
    Ok(end - SimTime::ZERO)
}

/// Best makespan over micro-batch counts {2, 4} (as a practitioner would
/// tune).
///
/// # Errors
///
/// Returns the first error if no candidate is feasible.
pub fn run_microbatch_tuned(
    dims: GemmDims,
    pattern: &CommPattern,
    system: &SystemSpec,
) -> Result<SimDuration, FlashOverlapError> {
    let mut best: Option<SimDuration> = None;
    let mut first_err = None;
    for mb in [2u32, 4] {
        match run_microbatch(dims, pattern, system, mb) {
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
            reason: "no feasible micro-batch count".into(),
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nonoverlap::run_nonoverlap;

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
