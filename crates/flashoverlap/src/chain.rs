//! The chain executor: the one place that builds counting-table sets,
//! enqueues program segments and drives the simulator.
//!
//! Every execution is a chain of segments on one per-rank
//! compute/communication stream pair, configured by one
//! [`SequenceOptions`] and reported by one [`SequenceOutcome`]. A single
//! [`OverlapPlan::execute_with`] run is a one-segment chain, a
//! [`crate::pipeline::Pipeline`] is one segment per layer carrying the
//! layer's fused epilogue, and [`crate::sequence::execute_sequence`] is
//! one segment per batch. The chain shape supplies what differs:
//!
//! - **Table ping-pong.** Counting tables are allocated once, sized for
//!   the widest segment, and ping-ponged between two sets by segment
//!   parity. Every reuse enqueues the rearm edges
//!   (wait-previous-comm-done → reset → ready → comm-wait), so a
//!   segment's waits never see its predecessor's saturated counts.
//! - **Data edge.** A segment whose predecessor has a fused epilogue
//!   reads its activations from that epilogue's output (pipelines).
//! - **Serial barrier.** [`SequenceOptions::serial`] holds each
//!   segment's GEMM until the previous segment's collectives drained
//!   (the non-pipelined reference schedule).
//!
//! The option rules live here, once, for every chain shape: a mutation
//! must be a wait or rearm kind aimed at an existing segment, rank and
//! group, and resilient execution takes no probes and no mutations
//! (faults are its corruption vocabulary).
//!
//! Under [`SequenceOptions::resilient`] the chain runs under the
//! watchdog with one [`FaultPlan`] per segment, and two rules keep the
//! ping-pong sound:
//!
//! - **Table quarantine.** Before a segment's first increment can land,
//!   a compute-stream arming op disarms whatever fault budget the
//!   previous same-parity segment left on the inherited table
//!   ([`gpu_sim::CounterTable::disarm_faults`]) and only then arms the
//!   segment's own faults. A fault armed for segment `k` can therefore
//!   never leak into segment `k + 2`.
//! - **Recovery completes the rearm protocol.** Breaking a wedge at
//!   frontier segment `k` aborts the starved communication state, re-
//!   issues `k`'s incomplete groups as tail/bulk collectives (safe: the
//!   GEMM main loop retired, so packed buffers are complete), re-records
//!   `k`'s comm-side events *with the same event ids* so parked compute
//!   streams wake into their rearm edges, and re-enqueues every later
//!   segment's communication program behind its rearm-ready gate — so
//!   downstream parity stays sound and the chain stays bit-exact.
//!
//! The watchdog deadline is calibrated per segment: each segment gets a
//! predictor-derived budget, and the frontier advancing into a new
//! segment re-bases the deadline without consuming a retry.
#![warn(clippy::indexing_slicing)]

use std::sync::Arc;

use collectives::CollectiveRole;
use gpu_sim::elementwise::ElementwiseOp;
use gpu_sim::memory::BufferId;
use gpu_sim::stream::{abort_counter_waits, enqueue, Op};
use gpu_sim::{
    Cluster, ClusterSim, Diagnosis, FaultArming, GpuEventId, RuntimeDetail, RuntimeEvent,
    StuckWait, Wedge,
};
use planverify::Mutation;
use sim::{SimDuration, SimTime};

use crate::error::{ChainPosition, FlashOverlapError};
use crate::resilience::{DegradeCause, Fault, FaultPlan, ResilientOutcome, WatchdogConfig};
use crate::runtime::{Instrumentation, OverlapPlan, ProgramHandles, StreamCtx};
use crate::sequence::{SequenceOptions, SequenceOutcome};
use crate::verify::model_of_chain;
use crate::world::ChainWorld;

/// Executes the chain `plans` in one simulation in `chain_world`, and
/// reports per segment. Segment `i` runs `plans[i]` followed by the
/// fused epilogue `epilogues[i]` (missing entries mean none); a segment
/// after an epilogue consumes its output as activations. The world is
/// readied for the first plan's system — the state a fresh one would
/// have — before the chain, and cleared after it, on success and on
/// error alike.
///
/// # Errors
///
/// Returns [`FlashOverlapError::BadInputs`] on an empty chain, mismatched
/// rank counts, malformed functional inputs, an increment-kind or
/// off-target mutation, or fault plans that do not fit their segments (or
/// come with probes or mutations); [`FlashOverlapError::Deadlock`]
/// when an uninstrumented, non-resilient schedule wedges; and
/// [`FlashOverlapError::Simulation`] on engine failure.
pub(crate) fn execute_chain(
    chain_world: &mut ChainWorld,
    plans: &[&OverlapPlan],
    epilogues: &[Option<ElementwiseOp>],
    options: &SequenceOptions,
) -> Result<SequenceOutcome, FlashOverlapError> {
    let Some(first) = plans.first() else {
        return Err(FlashOverlapError::BadInputs {
            reason: "a chain needs at least one segment".into(),
        });
    };
    let n = first.system.n_gpus;
    for (i, plan) in plans.iter().enumerate() {
        if plan.system.n_gpus != n {
            return Err(FlashOverlapError::BadInputs {
                reason: format!(
                    "segment {i} targets {} ranks but the chain runs on {n}",
                    plan.system.n_gpus
                ),
            });
        }
    }
    if let Some(inputs) = options.functional {
        if inputs.len() != plans.len() {
            return Err(FlashOverlapError::BadInputs {
                reason: format!("{} input sets for {} segments", inputs.len(), plans.len()),
            });
        }
        for (i, (plan, inp)) in plans.iter().zip(inputs).enumerate() {
            let fed = i > 0 && epilogues.get(i - 1).is_some_and(Option::is_some);
            plan.check_inputs(inp, !fed)?;
        }
    }
    let default_instr = Instrumentation::default();
    let instr = options.instrument.unwrap_or(&default_instr);
    if let Some((segment, mutation)) = instr.mutation {
        // The increment kinds are faults: the resilient runtime arms them.
        let (Mutation::DropWait { .. } | Mutation::RaiseThreshold { .. } | Mutation::DropRearm) =
            mutation
        else {
            return Err(FlashOverlapError::BadInputs {
                reason: format!(
                    "{} is an increment fault: arm it through SequenceOptions::resilient",
                    mutation.kind()
                ),
            });
        };
        model_of_chain(plans).check_target(&mutation, segment)?;
    }
    if let Some((faults, _)) = options.resilient {
        validate_chain_faults(plans, faults)?;
        if instr.probe.is_some() || instr.mutation.is_some() {
            return Err(FlashOverlapError::BadInputs {
                reason: "resilient execution injects faults through FaultPlan, \
                         not probes or mutations"
                    .into(),
            });
        }
    }

    let functional = options.functional.is_some();
    let body = |world: &mut Cluster, sim: &mut ClusterSim| {
        // Cluster-level faults (degraded links, stalls, stragglers)
        // exist before the chain starts, whichever segment's plan
        // armed them. The fault/recovery timeline is the cluster's
        // runtime log: arming ops append from inside the simulation,
        // the watchdog from outside.
        let faults_armed = match options.resilient {
            Some((faults, _)) => arm_cluster_faults(world, sim, faults),
            None => 0,
        };
        let streams = StreamCtx::create(world);
        let segments = enqueue_chain(world, sim, plans, epilogues, options, &streams);
        let (end, outcomes) = if let Some((_, watchdog)) = options.resilient {
            drive_chain(world, sim, plans, &segments, &streams, watchdog)?
        } else {
            let end = sim.run(world)?;
            let instrumented =
                instr.monitor.is_some() || instr.probe.is_some() || instr.mutation.is_some();
            if !instrumented {
                check_quiescent_chain(world, &segments)?;
            }
            (end, vec![ResilientOutcome::Clean; plans.len()])
        };
        let outputs = options.functional.map(|_| {
            plans
                .iter()
                .zip(&segments)
                .map(|(plan, seg)| plan.extract_outputs(world, &seg.handles))
                .collect()
        });
        Ok(SequenceOutcome {
            total: end - SimTime::ZERO,
            reports: segments
                .iter()
                .map(|s| s.handles.probes.report(world))
                .collect(),
            spans: Vec::new(),
            outputs,
            outcomes,
            events: world.runtime_log.drain(..).collect(),
            faults_armed,
        })
    };
    let (outcome, spans) =
        chain_world.run(&first.system, functional, options.trace, instr, body)?;
    Ok(SequenceOutcome { spans, ..outcome })
}

/// Enqueues every segment of the chain: rearm edges on table reuse, the
/// serial barrier, the segment's faults, its program, and its comm-done
/// events.
fn enqueue_chain(
    world: &mut Cluster,
    sim: &mut ClusterSim,
    plans: &[&OverlapPlan],
    epilogues: &[Option<ElementwiseOp>],
    options: &SequenceOptions,
    streams: &StreamCtx,
) -> Vec<ChainSegment> {
    let max_groups = plans
        .iter()
        .map(|p| p.group_tile_counts().len())
        .max()
        .unwrap_or(0);
    // Two table sets sized for the widest segment: a reset clears every
    // slot, so a narrower segment simply leaves the tail slots untouched.
    let table_sets: [Vec<usize>; 2] = std::array::from_fn(|_| {
        world
            .devices
            .iter_mut()
            .map(|dev| dev.create_counter(max_groups))
            .collect()
    });
    let seeded = options.instrument.and_then(|instr| instr.mutation);
    let mut activations: Option<Vec<BufferId>> = None;
    let mut segments: Vec<ChainSegment> = Vec::with_capacity(plans.len());
    for (i, plan) in plans.iter().enumerate() {
        let parity = i % 2;
        let Some(tables) = table_sets.get(parity) else {
            continue;
        };
        let mutation = seeded.filter(|&(at, _)| at == i).map(|(_, m)| m);
        // Reuse: reset each rank's table on the compute stream, ordered
        // after the previous user's comm stream drained its waits, and
        // hold the comm stream until the reset lands. Without this rearm
        // the table still holds the previous user's saturated counts, so
        // this segment's wait is satisfied the moment the comm stream
        // reaches it and the collective reads tiles the GEMM has not
        // signaled — exactly what `Mutation::DropRearm` injects for the
        // sanitizer self-test.
        let prev_user = i.checked_sub(2).and_then(|j| segments.get(j));
        let ready = match prev_user {
            Some(prev) if mutation != Some(Mutation::DropRearm) => {
                Some(rearm(world, sim, streams, &prev.comm_done, tables))
            }
            _ => None,
        };
        if let Some(prev) = segments.last().filter(|_| options.serial) {
            // Full barrier: no GEMM wave of segment `i` may issue until
            // segment `i - 1`'s collectives drained.
            for (d, (&ev, &compute)) in prev.comm_done.iter().zip(&streams.compute).enumerate() {
                enqueue(world, sim, d, compute, Op::WaitEvent(ev));
            }
        }
        if let Some(fp) = options.resilient.and_then(|(faults, _)| faults.get(i)) {
            // Between the rearm (reset) and the program: the arming op
            // quarantines leftover budget on the inherited table, then
            // arms this segment's own faults.
            enqueue_segment_faults(world, sim, streams, i, fp, tables);
        }
        let handles = plan.enqueue_program_on(
            world,
            sim,
            options.functional.and_then(|inp| inp.get(i)),
            epilogues.get(i).and_then(Option::as_ref),
            streams,
            activations.as_deref(),
            mutation,
            tables,
        );
        // Nothing waits on the last segment's comm-done; it is recorded
        // only under the watchdog, whose recovery re-records every
        // segment's comm-side events.
        let comm_done = if i + 1 < plans.len() || options.resilient.is_some() {
            record_per_rank(world, sim, &streams.comm)
        } else {
            Vec::new()
        };
        activations = handles.epilogue_bufs.iter().copied().collect();
        segments.push(ChainSegment::new(plan, handles, parity, ready, comm_done));
    }
    segments
}

/// The rearm edges of one table reuse; returns the per-rank
/// rearm-ready events the comm streams now wait on.
fn rearm(
    world: &mut Cluster,
    sim: &mut ClusterSim,
    streams: &StreamCtx,
    prev_done: &[GpuEventId],
    tables: &[usize],
) -> Vec<GpuEventId> {
    let readies: Vec<GpuEventId> = world.devices.iter_mut().map(|d| d.create_event()).collect();
    let per_rank = streams
        .compute
        .iter()
        .zip(&streams.comm)
        .zip(prev_done.iter().zip(tables))
        .zip(&readies);
    for (d, (((&compute, &comm), (&prev, &table)), &ready)) in per_rank.enumerate() {
        enqueue(world, sim, d, compute, Op::WaitEvent(prev));
        enqueue(world, sim, d, compute, Op::ResetCounter { table });
        enqueue(world, sim, d, compute, Op::RecordEvent(ready));
        enqueue(world, sim, d, comm, Op::WaitEvent(ready));
    }
    readies
}

/// Creates one event per rank and records it on that rank's stream.
fn record_per_rank(
    world: &mut Cluster,
    sim: &mut ClusterSim,
    streams: &[gpu_sim::stream::StreamId],
) -> Vec<GpuEventId> {
    let events: Vec<GpuEventId> = world.devices.iter_mut().map(|d| d.create_event()).collect();
    for (d, (&ev, &stream)) in events.iter().zip(streams).enumerate() {
        enqueue(world, sim, d, stream, Op::RecordEvent(ev));
    }
    events
}

/// One chain segment (a pipeline layer or a sequenced batch) with the
/// retained handles recovery needs: the comm-side event ids to re-record
/// and the rearm gate to respect when re-enqueuing downstream.
struct ChainSegment {
    handles: ProgramHandles,
    /// Table parity the segment inherited (`segment % 2`).
    parity: usize,
    /// Per-rank rearm-ready events of this segment's own table rearm
    /// (`None` for the first two segments, which get fresh tables).
    ready: Option<Vec<GpuEventId>>,
    /// Per-rank end-of-segment comm-done events (the cross-batch /
    /// cross-layer edges later segments wait on).
    comm_done: Vec<GpuEventId>,
    /// Which groups owe a collective (zero-payload groups excluded).
    expected: Vec<bool>,
}

impl ChainSegment {
    fn new(
        plan: &OverlapPlan,
        handles: ProgramHandles,
        parity: usize,
        ready: Option<Vec<GpuEventId>>,
        comm_done: Vec<GpuEventId>,
    ) -> Self {
        let expected = (0..plan.group_tile_counts().len())
            .map(|g| plan.group_send_region(g, 0).is_some())
            .collect();
        ChainSegment {
            handles,
            parity,
            ready,
            comm_done,
            expected,
        }
    }
}

/// Whether every owed collective of the segment completed (and its GEMM
/// retired). Rank 0 carries the probes; collectives are rendezvous, so
/// rank 0 completing implies every rank completed.
fn segment_complete(world: &Cluster, seg: &ChainSegment) -> bool {
    let probes = &seg.handles.probes;
    probes.gemm_done(world).is_some()
        && probes
            .group_done(world)
            .zip(&seg.expected)
            .all(|(done, &exp)| !exp || done.is_some())
}

/// Groups of the segment whose collectives completed (overlap or
/// recovery).
fn completed_groups(world: &Cluster, seg: &ChainSegment) -> Vec<usize> {
    seg.handles
        .probes
        .group_done(world)
        .enumerate()
        .filter_map(|(g, t)| t.map(|_| g))
        .collect()
}

/// The first incomplete segment — where the watchdog aims its deadline.
fn frontier(world: &Cluster, segments: &[ChainSegment]) -> Option<usize> {
    segments.iter().position(|s| !segment_complete(world, s))
}

/// The last probed completion time across the chain — the chain's end,
/// independent of where `run_until` happened to park the clock.
fn chain_end(world: &Cluster, segments: &[ChainSegment]) -> SimTime {
    let mut end = SimTime::ZERO;
    for seg in segments {
        let probes = &seg.handles.probes;
        if let Some(t) = probes.gemm_done(world) {
            end = end.max(t);
        }
        for t in probes.group_done(world).flatten() {
            end = end.max(t);
        }
        if let Some(t) = probes.epilogue_done(world) {
            end = end.max(t);
        }
    }
    end
}

/// Maps starved waits onto chain positions: the starved rearm edge is
/// named by the first incomplete segment watching that counter table.
fn chain_positions(
    world: &Cluster,
    waits: &[StuckWait],
    segments: &[ChainSegment],
) -> Vec<ChainPosition> {
    let mut out: Vec<ChainPosition> = Vec::new();
    for w in waits {
        let found = segments.iter().enumerate().find(|(_, s)| {
            s.handles.tables.get(w.device).copied() == Some(w.table) && !segment_complete(world, s)
        });
        if let Some((segment, seg)) = found {
            let pos = ChainPosition {
                segment,
                parity: seg.parity,
                table: w.table,
            };
            if !out.contains(&pos) {
                out.push(pos);
            }
        }
    }
    out
}

/// Turns a drained-but-wedged simulation into a
/// [`FlashOverlapError::Deadlock`] carrying the counter context of every
/// starved wait and its chain position (segment, parity, inherited
/// table) — which rearm edge it starved.
fn check_quiescent_chain(
    world: &Cluster,
    segments: &[ChainSegment],
) -> Result<(), FlashOverlapError> {
    world.check_quiescent().map_err(|Wedge { streams, waits }| {
        let chain = chain_positions(world, &waits, segments);
        FlashOverlapError::Deadlock {
            streams,
            waits,
            chain,
        }
    })
}

/// Validates one fault plan per chain segment against its plan's shape.
fn validate_chain_faults(
    plans: &[&OverlapPlan],
    faults: &[FaultPlan],
) -> Result<(), FlashOverlapError> {
    if faults.len() != plans.len() {
        return Err(FlashOverlapError::BadInputs {
            reason: format!(
                "{} fault plans for {} chain segments (one per segment required)",
                faults.len(),
                plans.len()
            ),
        });
    }
    for (plan, fp) in plans.iter().zip(faults) {
        fp.validate(plan.system.n_gpus, plan.group_tile_counts().len())?;
    }
    Ok(())
}

/// Arms the cluster-level (time-global) faults of every segment before
/// the program starts: link degradation/stalls and straggler SMs exist
/// for the whole chain. Returns the total number of faults armed across
/// all segments (including the per-segment ones armed later).
fn arm_cluster_faults(world: &mut Cluster, sim: &ClusterSim, faults: &[FaultPlan]) -> usize {
    let mut armed = 0;
    for (segment, fp) in faults.iter().enumerate() {
        for fault in &fp.faults {
            armed += 1;
            match *fault {
                Fault::LinkDegradation { slowdown } => {
                    let prior = world.comm_fault.slowdown.max(1.0);
                    world.comm_fault.slowdown = prior * slowdown.max(1.0);
                }
                Fault::InterLinkDegradation { slowdown } => {
                    let prior = world.comm_fault.inter_slowdown.max(1.0);
                    world.comm_fault.inter_slowdown = prior * slowdown.max(1.0);
                }
                Fault::LinkStall { stall, count } => {
                    world.comm_fault.stall = world.comm_fault.stall.max(stall);
                    world.comm_fault.stall_count += count;
                }
                Fault::StragglerSms { rank, sms } => {
                    world
                        .devices
                        .get_mut(rank)
                        .expect("validate_chain_faults proved the rank")
                        .occupy_comm_sms(sms);
                }
                // Slow ranks and counter faults arm at their segment's
                // position in the stream order (below).
                Fault::SlowRank { .. }
                | Fault::DroppedIncrement { .. }
                | Fault::DelayedIncrement { .. } => continue,
            }
            world.log_runtime_event(RuntimeEvent {
                at: sim.now(),
                device: fault_device(fault),
                group: None,
                detail: RuntimeDetail::FaultArmed {
                    segment,
                    fault: *fault,
                },
            });
        }
    }
    armed
}

/// The rank a fault targets (the lead rank for cluster-wide faults).
fn fault_device(fault: &Fault) -> gpu_sim::DeviceId {
    match *fault {
        Fault::DroppedIncrement { rank, .. }
        | Fault::DelayedIncrement { rank, .. }
        | Fault::StragglerSms { rank, .. }
        | Fault::SlowRank { rank, .. } => rank,
        Fault::LinkDegradation { .. }
        | Fault::InterLinkDegradation { .. }
        | Fault::LinkStall { .. } => 0,
    }
}

/// Enqueues segment `segment`'s stream-positioned faults. Must be called
/// after the segment's table-rearm block and before its program is
/// enqueued, so the arming op lands between the inherited table's reset
/// and the segment's first increment.
///
/// Slow-rank faults become `Delay` ops at the segment's launch position.
/// Counter faults arm from a per-rank *compute-stream* [`Op::ArmFaults`]
/// — each rank's compute stream passes its own rearm independently
/// (launch skew), so arming from rank 0 could race another rank's reset.
/// The op first applies the table-quarantine rule: any fault budget the
/// previous same-parity segment left armed is disarmed before this
/// segment's faults go in.
fn enqueue_segment_faults(
    world: &mut Cluster,
    sim: &mut ClusterSim,
    streams: &StreamCtx,
    segment: usize,
    faults: &FaultPlan,
    table_set: &[usize],
) {
    for fault in &faults.faults {
        if let Fault::SlowRank { rank, delay } = *fault {
            let (Some(&compute), Some(&comm)) = (streams.compute.get(rank), streams.comm.get(rank))
            else {
                continue;
            };
            for stream in [compute, comm] {
                enqueue(world, sim, rank, stream, Op::Delay(delay));
            }
            world.log_runtime_event(RuntimeEvent {
                at: sim.now(),
                device: rank,
                group: None,
                detail: RuntimeDetail::FaultArmed {
                    segment,
                    fault: *fault,
                },
            });
        }
    }
    let n = streams.compute.len();
    for d in 0..n {
        let rank_faults: Vec<Fault> = faults
            .faults
            .iter()
            .filter(|f| {
                matches!(**f, Fault::DroppedIncrement { rank, .. }
                    | Fault::DelayedIncrement { rank, .. } if rank == d)
            })
            .copied()
            .collect();
        // Fresh tables (segments 0 and 1) hold no leftover budget; skip
        // the op entirely when there is also nothing to arm.
        if segment < 2 && rank_faults.is_empty() {
            continue;
        }
        let (Some(&table), Some(&compute)) = (table_set.get(d), streams.compute.get(d)) else {
            continue;
        };
        let arming = FaultArming {
            table,
            segment,
            faults: rank_faults,
        };
        enqueue(world, sim, d, compute, Op::ArmFaults(arming));
    }
}

/// Per-segment watchdog bookkeeping.
#[derive(Default)]
struct SegState {
    /// Deadline extensions granted while this segment was the frontier.
    retries: u32,
    /// Wedges broken at this segment (a second wedge degrades it).
    wedges: u32,
    /// Groups re-issued as tail/bulk collectives for this segment.
    tail: Vec<usize>,
    /// Whether the segment's comm program was re-enqueued behind an
    /// upstream recovery.
    reissued: bool,
    /// Why the segment degraded, and the groups that had completed when
    /// it was first marked degraded.
    degraded: Option<(DegradeCause, Vec<usize>)>,
}

impl SegState {
    /// Marks the segment degraded; the first cause wins, and the groups
    /// completed at that moment are snapshotted — later recovery
    /// re-issues do not count as completed before abandonment.
    fn degrade(&mut self, world: &Cluster, seg: Option<&ChainSegment>, cause: DegradeCause) {
        if self.degraded.is_none() {
            let completed = seg.map(|s| completed_groups(world, s)).unwrap_or_default();
            self.degraded = Some((cause, completed));
        }
    }
}

/// Drives an already-enqueued chain to termination under the chain
/// watchdog: per-segment predictor-derived deadlines, wedge
/// discrimination (drained queue + starved waits vs slow progress), and
/// the escalation ladder — extensions, tail recovery at the frontier
/// segment with downstream re-enqueue, bulk fallback / degraded marking.
/// Every chain terminates with one accountable outcome per segment;
/// returns the chain's end with those outcomes.
///
/// # Errors
///
/// Returns [`FlashOverlapError::Simulation`] on engine failure only —
/// wedges never escape as errors.
fn drive_chain(
    world: &mut Cluster,
    sim: &mut ClusterSim,
    plans: &[&OverlapPlan],
    segments: &[ChainSegment],
    streams: &StreamCtx,
    watchdog: &WatchdogConfig,
) -> Result<(SimTime, Vec<ResilientOutcome>), FlashOverlapError> {
    // Per-segment budget: the predictor's expected latency times the
    // configured multiplier, plus the launch-skew window.
    let budget_of = |f: usize| {
        plans.get(f).map_or(SimDuration::ZERO, |p| {
            p.expected_latency()
                .mul_f64(watchdog.deadline_multiplier.max(1.0))
                + SimDuration::from_nanos(p.system.launch_skew_ns.max(1))
        })
    };
    let mut state: Vec<SegState> = segments.iter().map(|_| SegState::default()).collect();
    let mut deadline = SimTime::ZERO + budget_of(0);
    let mut deadline_frontier = 0usize;
    // Safety net far above any reachable escalation count.
    let max_rounds = (segments.len() as u32).saturating_mul(watchdog.max_retries + 4) + 8;
    let mut rounds = 0u32;

    loop {
        rounds += 1;
        if rounds > max_rounds {
            if let Some(f) = frontier(world, segments) {
                if let Some(slot) = state.get_mut(f) {
                    slot.degrade(
                        world,
                        segments.get(f),
                        DegradeCause::WatchdogGaveUp { rounds },
                    );
                }
            }
            break;
        }
        sim.run_until(world, deadline)?;
        if sim.pending() == 0 {
            let Some(f) = frontier(world, segments) else {
                break; // Every segment completed; streams drained.
            };
            let seg = segments.get(f);
            // True wedge: the event queue drained with segment `f`'s
            // collectives still owed.
            let error = match check_quiescent_chain(world, segments) {
                Err(e) => Arc::new(e),
                Ok(()) => {
                    // Streams drained yet a segment is incomplete —
                    // unreachable for well-formed chains; terminate
                    // accountably instead of spinning.
                    if let Some(slot) = state.get_mut(f) {
                        slot.degrade(world, seg, DegradeCause::Stalled);
                    }
                    break;
                }
            };
            let gemm_retired = seg.is_some_and(|s| s.handles.probes.gemm_done(world).is_some());
            if let Some(slot) = state.get_mut(f) {
                slot.wedges += 1;
                if slot.wedges > 1 {
                    // Even recovery wedged (recovery collectives wait on
                    // nothing but already-recorded state, so this should
                    // be unreachable). Give up without hanging.
                    slot.degrade(world, seg, DegradeCause::RecoveryWedged(error));
                    break;
                }
                if !gemm_retired {
                    // Re-issuing collectives before the GEMM retired
                    // would read incomplete tiles; defensively degrade.
                    let cause = DegradeCause::WedgedBeforeGemmRetired(error);
                    slot.degrade(world, seg, cause);
                    break;
                }
            }
            world.log_runtime_event(RuntimeEvent {
                at: sim.now(),
                device: 0,
                group: None,
                detail: RuntimeDetail::WedgeDetected {
                    segment: f,
                    diagnosis: Diagnosis(Arc::clone(&error) as _),
                },
            });
            recover_chain(world, sim, plans, segments, f, &error, streams, &mut state);
            deadline_frontier = f;
            deadline = sim.now() + budget_of(f);
        } else {
            // Deadline passed with events still flowing: slow, not
            // stuck. Re-base when the frontier advanced (per-segment
            // calibration); otherwise extend within budget, then mark
            // the frontier segment degraded but keep driving — an
            // in-flight collective cannot be abandoned without
            // double-applying its data.
            let f = frontier(world, segments).unwrap_or(segments.len().saturating_sub(1));
            let pending = sim.pending();
            if f != deadline_frontier {
                deadline_frontier = f;
            } else if let Some(slot) = state.get_mut(f) {
                let event = if slot.retries < watchdog.max_retries {
                    slot.retries += 1;
                    Some(RuntimeEvent {
                        at: sim.now(),
                        device: 0,
                        group: None,
                        detail: RuntimeDetail::Extension {
                            segment: f,
                            pending,
                            retry: slot.retries,
                            max: watchdog.max_retries,
                        },
                    })
                } else if slot.degraded.is_none() {
                    let cause = DegradeCause::DeadlineExceeded {
                        extensions: watchdog.max_retries,
                    };
                    slot.degrade(world, segments.get(f), cause);
                    Some(RuntimeEvent {
                        at: sim.now(),
                        device: 0,
                        group: None,
                        detail: RuntimeDetail::DegradedFallback { segment: f },
                    })
                } else {
                    None
                };
                if let Some(event) = event {
                    world.log_runtime_event(event);
                }
            }
            deadline = sim.now() + budget_of(f);
        }
    }

    // `run_until` parks the clock on the deadline even when the queue
    // drained earlier, so the chain's end is the last probed completion
    // time — keeping fault-free resilient runs timing-identical to
    // plain execution.
    let outcomes = segments
        .iter()
        .zip(state)
        .map(|(seg, st)| {
            if let Some((cause, recovered_groups)) = st.degraded {
                ResilientOutcome::Degraded {
                    cause,
                    recovered_groups,
                }
            } else if !segment_complete(world, seg) {
                ResilientOutcome::Degraded {
                    cause: DegradeCause::Terminated,
                    recovered_groups: completed_groups(world, seg),
                }
            } else if !st.tail.is_empty() || st.reissued {
                ResilientOutcome::Recovered {
                    retries: st.retries,
                    tail_groups: st.tail,
                }
            } else {
                ResilientOutcome::Clean
            }
        })
        .collect();
    Ok((chain_end(world, segments), outcomes))
}

/// Breaks a wedge at frontier segment `f`: aborts the starved
/// communication state, re-issues `f`'s incomplete groups (tail when the
/// overlap partially succeeded, bulk otherwise — which degrades `f`
/// with the wedge diagnostic `error` as its cause), re-records `f`'s
/// comm-side events with the same ids so parked compute streams wake
/// into their rearm edges, then re-enqueues every later segment's
/// communication program behind its rearm-ready gate. This completes the
/// rearm protocol for the whole chain: downstream parity stays sound.
#[allow(clippy::too_many_arguments)]
fn recover_chain(
    world: &mut Cluster,
    sim: &mut ClusterSim,
    plans: &[&OverlapPlan],
    segments: &[ChainSegment],
    f: usize,
    error: &Arc<FlashOverlapError>,
    streams: &StreamCtx,
    state: &mut [SegState],
) {
    let n = streams.comm.len();
    // 1. Drop queued communication work of segments >= f (stale waits
    //    and collectives about to be re-issued; queued kernels have no
    //    completion token yet, so this is safe). The comm streams are
    //    serial, so nothing of a segment > f ever started.
    for (d, &stream) in streams.comm.iter().enumerate() {
        world.abort_stream_queue(d, stream);
    }
    // 2. Release ranks parked inside communicator rendezvous without
    //    moving data (the `ncclCommAbort` analog). Only the frontier can
    //    hold a partial rendezvous; later segments are safe no-ops.
    for seg in segments.iter().skip(f) {
        seg.handles.comm.abort_pending(world, sim);
    }
    // 3. Revoke starved signal waits on the frontier's inherited tables.
    //    Later segments' waits were still queued (serial streams) and
    //    died with the queue in step 1.
    if let Some(seg) = segments.get(f) {
        for d in 0..n {
            if let Some(&table) = seg.handles.tables.get(d) {
                abort_counter_waits(world, sim, d, table);
            }
        }
    }
    // 4. Re-issue the frontier's incomplete groups. No compute-side gate:
    //    the frontier GEMM already retired (checked by the caller), and
    //    gating on a new compute-stream event would deadlock against
    //    compute streams parked on this segment's comm-done. Tail while
    //    part of the overlap survived; bulk (degrading the segment) when
    //    it produced nothing.
    if let (Some(seg), Some(plan), Some(slot)) = (segments.get(f), plans.get(f), state.get_mut(f)) {
        let role = if completed_groups(world, seg).is_empty() {
            let cause = DegradeCause::OverlapAbandoned(Arc::clone(error));
            slot.degrade(world, Some(seg), cause);
            CollectiveRole::Bulk
        } else {
            CollectiveRole::Tail
        };
        let issued = reissue_groups(world, sim, plan, seg, streams, f, role, true);
        slot.tail.extend(issued);
        rerecord_segment_events(world, sim, streams, seg);
    }
    // 5. Re-enqueue each later segment's comm program behind its
    //    rearm-ready gate, so the wait-prev-comm-done → reset → ready
    //    protocol is completed, never bypassed: segment f+1's gate is
    //    already recorded; f+2's parks until its compute-side rearm
    //    (woken by the events re-recorded above) records it.
    for j in (f + 1)..segments.len() {
        let (Some(seg), Some(plan)) = (segments.get(j), plans.get(j)) else {
            continue;
        };
        if let Some(ready) = &seg.ready {
            for (d, &ev) in ready.iter().enumerate() {
                let Some(&stream) = streams.comm.get(d) else {
                    continue;
                };
                enqueue(world, sim, d, stream, Op::WaitEvent(ev));
            }
        }
        let issued = reissue_groups(
            world,
            sim,
            plan,
            seg,
            streams,
            j,
            CollectiveRole::Tail,
            false,
        );
        rerecord_segment_events(world, sim, streams, seg);
        if let Some(slot) = state.get_mut(j) {
            slot.reissued = true;
            slot.tail = issued;
        }
        world.log_runtime_event(RuntimeEvent {
            at: sim.now(),
            device: 0,
            group: None,
            detail: RuntimeDetail::CommReenqueued {
                segment: j,
                behind: f,
            },
        });
    }
}

/// Re-issues every incomplete group of a segment on the comm streams.
/// `ungated` (the frontier) issues collectives directly — its GEMM
/// retired, the packed buffers are complete. Gated re-issue (downstream
/// segments) restores the original signal discipline: a per-rank
/// `WaitCounter` at the group's unmutated threshold precedes each
/// collective, so re-enqueued communication still waits for the tiles
/// the (still-running) compute side signals.
#[allow(clippy::too_many_arguments)]
fn reissue_groups(
    world: &mut Cluster,
    sim: &mut ClusterSim,
    plan: &OverlapPlan,
    seg: &ChainSegment,
    streams: &StreamCtx,
    segment: usize,
    role: CollectiveRole,
    ungated: bool,
) -> Vec<usize> {
    let completed: Vec<bool> = seg
        .handles
        .probes
        .group_done(world)
        .map(|t| t.is_some())
        .collect();
    let thresholds = plan.group_tile_counts();
    let tail = matches!(role, CollectiveRole::Tail);
    let mut issued = Vec::new();
    for (g, done) in completed.iter().enumerate() {
        if *done {
            continue;
        }
        let Some(spec) = plan.group_spec(g, &seg.handles.packed_bufs, &seg.handles.recv_bufs)
        else {
            continue; // Zero-payload group: nothing was ever owed.
        };
        if !ungated {
            for (d, &stream) in streams.comm.iter().enumerate() {
                let (Some(&table), Some(&threshold)) =
                    (seg.handles.tables.get(d), thresholds.get(g))
                else {
                    continue;
                };
                let wait = Op::WaitCounter {
                    table,
                    group: g,
                    threshold,
                };
                enqueue(world, sim, d, stream, wait);
            }
        }
        let ops = seg.handles.comm.ops_with_role(spec, Some(g), role);
        for (d, op) in ops.enumerate() {
            let Some(&stream) = streams.comm.get(d) else {
                continue;
            };
            enqueue(world, sim, d, stream, op);
            if d == 0 {
                let stamp = Op::Stamp(seg.handles.probes.group_slot(g));
                enqueue(world, sim, 0, stream, stamp);
            }
        }
        if ungated {
            world.log_runtime_event(RuntimeEvent {
                at: sim.now(),
                device: 0,
                group: Some(g),
                detail: RuntimeDetail::GroupReissued {
                    segment,
                    group: g,
                    tail,
                },
            });
        }
        issued.push(g);
    }
    issued
}

/// Re-records a segment's comm-side events with their original ids —
/// epilogue gates first, comm-done last, enqueued after the re-issued
/// collectives so they record in the original order. Re-recording the
/// same `GpuEventId` wakes every compute-stream waiter parked on it
/// (rearm edges, serial barriers, epilogue gates), which is what lets
/// the rest of the chain resume.
fn rerecord_segment_events(
    world: &mut Cluster,
    sim: &mut ClusterSim,
    streams: &StreamCtx,
    seg: &ChainSegment,
) {
    for (d, &gate) in seg.handles.epilogue_gates.iter().enumerate() {
        let Some(&stream) = streams.comm.get(d) else {
            continue;
        };
        enqueue(world, sim, d, stream, Op::RecordEvent(gate));
    }
    for (d, &ev) in seg.comm_done.iter().enumerate() {
        let Some(&stream) = streams.comm.get(d) else {
            continue;
        };
        enqueue(world, sim, d, stream, Op::RecordEvent(ev));
    }
}
