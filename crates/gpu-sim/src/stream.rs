//! CUDA-like streams, events, and the closed sets of stream ops and
//! simulator events.
//!
//! A stream executes its enqueued [`Op`]s strictly in order, one at a
//! time. An op receives a [`Completion`] token at launch and fires it
//! exactly once when its work (as modelled in simulated time) is done; the
//! stream then advances to the next op. Cross-stream ordering uses
//! [`Op::RecordEvent`]/[`Op::WaitEvent`] pairs, mirroring `cudaEventRecord`
//! / `cudaStreamWaitEvent` — the mechanism FlashOverlap's two-stream
//! runtime (§5) is built on.
//!
//! The runtime needs only a few fixed primitives (GEMM waves whose
//! epilogue bumps a counting table, a signaling kernel that waits on it,
//! the collective it releases), so both sets are closed enums: ops are
//! stored by value in the stream queues, and every simulator event is an
//! [`Event`] of a few words whose larger state — a GEMM's wave cursor, a
//! collective's rendezvous — lives in slabs the [`Cluster`] owns and
//! resets with their capacity kept. A warm world enqueues and runs a
//! chain without allocating an op or an event.

use std::collections::VecDeque;

use sim::{SimDuration, SimTime};

use crate::cluster::{Cluster, FaultArming, SpanMeta};
use crate::collective::{CollectiveOp, CollectiveRole, P2pOp};
use crate::device::DeviceId;
use crate::elementwise::ElementwiseKernel;
use crate::gemm::GemmKernel;
use crate::ClusterSim;

/// Identifies a stream on a device.
pub type StreamId = usize;

/// Identifies a recordable event on a device.
pub type GpuEventId = usize;

/// A stream operation: the closed set of things a stream can run.
#[derive(Debug)]
pub enum Op {
    /// A tiled GEMM kernel.
    Gemm(GemmKernel),
    /// An element-wise kernel, optionally gathering through a remap.
    Elementwise(ElementwiseKernel),
    /// The signaling kernel (§5): blocks the stream until a
    /// counting-table slot reaches its threshold, modelling the polling
    /// quantum of the real spin-waiting kernel.
    WaitCounter {
        /// Counting table index on the device.
        table: usize,
        /// Group slot to watch.
        group: usize,
        /// Count to wait for (the group's tile count).
        threshold: u32,
    },
    /// Records an event: all prior work on the stream is done when it
    /// fires, releasing any [`Op::WaitEvent`] waiters.
    RecordEvent(GpuEventId),
    /// Blocks the stream until the event has been recorded (on this
    /// device).
    WaitEvent(GpuEventId),
    /// Resets a counting table for reuse (zero duration): every group
    /// count returns to zero (steady-state double buffering). The caller
    /// must order the reset after the previous user's waits through an
    /// event edge; resetting under a parked waiter panics.
    ResetCounter {
        /// Counting table index on the device.
        table: usize,
    },
    /// Occupies the stream for a fixed duration (launch skew, slow
    /// ranks, tests).
    Delay(SimDuration),
    /// Writes the clock into a stamp slot of the cluster (zero
    /// duration): how a runtime learns when the work ahead of it on the
    /// stream finished. See [`Cluster::new_stamps`].
    Stamp(usize),
    /// Arms counter faults on a table of the device (zero duration).
    ArmFaults(FaultArming),
    /// One rank's half of a collective call.
    Collective(CollectiveOp),
    /// A one-sided peer-to-peer copy.
    P2p(P2pOp),
}

impl Op {
    /// Op name for traces and errors.
    pub fn name(&self) -> &'static str {
        match self {
            Op::Gemm(_) => "gemm",
            Op::Elementwise(_) => "elementwise",
            Op::WaitCounter { .. } => "wait_counter",
            Op::RecordEvent(_) => "record_event",
            Op::WaitEvent(_) => "wait_event",
            Op::ResetCounter { .. } => "reset_counter",
            Op::Delay(_) => "delay",
            Op::Stamp(_) | Op::ArmFaults(_) => "callback",
            Op::Collective(op) => match op.role {
                CollectiveRole::Overlap => "collective",
                CollectiveRole::Tail => "tail-collective",
                CollectiveRole::Bulk => "bulk-collective",
            },
            Op::P2p(_) => "p2p_copy",
        }
    }

    /// Structured metadata recorded on the op's [`OpSpan`]
    /// (bytes/group for collectives, tiles/waves for GEMMs); control ops
    /// record [`SpanMeta::None`].
    ///
    /// [`OpSpan`]: crate::cluster::OpSpan
    pub fn span_meta(&self) -> SpanMeta {
        match self {
            // The realized (contended) wave count is unknown at launch;
            // the retire path overwrites `waves` with the runtime value.
            Op::Gemm(kernel) => SpanMeta::Gemm {
                tiles: kernel.config.grid(kernel.dims).num_tiles(),
                waves: 0,
            },
            Op::Collective(op) => SpanMeta::Collective {
                bytes: op.call.payload_bytes(),
                group: op.group,
            },
            Op::P2p(op) => SpanMeta::Collective {
                bytes: op.bytes,
                group: None,
            },
            _ => SpanMeta::None,
        }
    }

    /// Starts the op; `completion` is fired when it is done.
    fn launch(self, completion: Completion, world: &mut Cluster, sim: &mut ClusterSim) {
        let (device, stream) = (completion.device, completion.stream);
        match self {
            Op::Gemm(kernel) => crate::gemm::launch(kernel, completion, world, sim),
            Op::Elementwise(kernel) => {
                crate::elementwise::launch(kernel, completion, world, sim);
            }
            Op::WaitCounter {
                table,
                group,
                threshold,
            } => {
                let dev = &mut world.devices[device];
                let poll = dev.signal_poll_delay();
                // `None`: parked; the incrementing wave will wake it (the
                // wake path adds the polling delay).
                if let Some(completion) = dev.counters[table].register(group, threshold, completion)
                {
                    // Already satisfied; still pay one polling quantum.
                    if let Some(monitor) = world.monitor.as_deref() {
                        monitor.on_counter_satisfied(
                            sim.now(),
                            device,
                            stream,
                            table,
                            group,
                            threshold,
                        );
                    }
                    sim.schedule_in(poll, Event::Complete(completion));
                }
            }
            Op::RecordEvent(ev) => {
                let event = &mut world.devices[device].events[ev];
                event.recorded = Some(sim.now());
                let waiters = std::mem::take(&mut event.waiters);
                if let Some(monitor) = world.monitor.as_deref() {
                    monitor.on_event_record(sim.now(), device, stream, ev);
                    // Parked waiters synchronize now, at record time.
                    for waiter in &waiters {
                        monitor.on_event_wait(sim.now(), waiter.device, waiter.stream, ev);
                    }
                }
                for waiter in waiters {
                    // Wake on a fresh event so each waiter's stream
                    // advances after the current call stack unwinds.
                    sim.schedule_now(Event::Complete(waiter));
                }
                completion.finish(world, sim);
            }
            Op::WaitEvent(ev) => {
                let event = &mut world.devices[device].events[ev];
                if event.recorded.is_some() {
                    if let Some(monitor) = world.monitor.as_deref() {
                        monitor.on_event_wait(sim.now(), device, stream, ev);
                    }
                    completion.finish(world, sim);
                } else {
                    event.waiters.push(completion);
                }
            }
            Op::ResetCounter { table } => {
                world.devices[device].counters[table].reset();
                if let Some(monitor) = world.monitor.as_deref() {
                    monitor.on_counter_reset(sim.now(), device, stream, table);
                }
                completion.finish(world, sim);
            }
            Op::Delay(d) => sim.schedule_in(d, Event::Complete(completion)),
            Op::Stamp(slot) => {
                world.stamps[slot] = Some(sim.now());
                completion.finish(world, sim);
            }
            Op::ArmFaults(arming) => {
                world.arm_faults(arming, device, sim.now());
                completion.finish(world, sim);
            }
            Op::Collective(op) => crate::collective::launch(op, completion, world, sim),
            Op::P2p(op) => crate::collective::launch_p2p(op, completion, world, sim),
        }
    }
}

/// A simulator event: the closed set of things that happen in a
/// [`Cluster`]. Each carries a few words; larger state lives in the
/// cluster's slabs, indexed by the `usize` slots.
#[derive(Debug)]
pub enum Event {
    /// A stream op finishes: its stream advances.
    Complete(Completion),
    /// A GEMM (slot of the cluster's GEMM slab) issues its next wave.
    WaveStart(usize),
    /// A GEMM's wave of `count` tiles retires.
    #[allow(missing_docs)]
    WaveFinish { run: usize, count: usize },
    /// A delayed epilogue increment of one tile lands on `(device,
    /// table)`'s `group` slot, signaled from the GEMM's `stream`.
    #[allow(missing_docs)]
    DelayedIncrement {
        device: u32,
        stream: u32,
        table: u32,
        group: u32,
    },
    /// An element-wise kernel (slot of the cluster's slab) finishes.
    ElementwiseDone(usize),
    /// A rendezvoused collective (slot of the cluster's slab) finishes on
    /// every rank.
    CollectiveFinish(usize),
    /// A peer copy (slot of the cluster's slab) lands.
    P2pFinish(usize),
}

impl sim::Event for Event {
    type World = Cluster;

    fn fire(self, world: &mut Cluster, sim: &mut ClusterSim) {
        match self {
            Event::Complete(completion) => completion.finish(world, sim),
            Event::WaveStart(run) => crate::gemm::start_wave(run, world, sim),
            Event::WaveFinish { run, count } => crate::gemm::finish_wave(run, count, world, sim),
            Event::DelayedIncrement {
                device,
                stream,
                table,
                group,
            } => {
                let (device, table, group) = (device as usize, table as usize, group as usize);
                if let Some(monitor) = world.monitor.as_deref() {
                    monitor.on_counter_increment(
                        sim.now(),
                        device,
                        stream as usize,
                        table,
                        group,
                        1,
                    );
                }
                increment_counter(world, device, table, group, 1);
                wake_counter_waiters(world, sim, device, table);
            }
            Event::ElementwiseDone(slot) => crate::elementwise::finish(slot, world, sim),
            Event::CollectiveFinish(slot) => crate::collective::finish(slot, world, sim),
            Event::P2pFinish(slot) => crate::collective::finish_p2p(slot, world, sim),
        }
    }
}

/// A one-shot token that marks a stream operation finished.
///
/// Dropping a `Completion` without firing it would wedge its stream
/// forever; the type is deliberately not `Clone` so an op can finish at
/// most once.
#[derive(Debug)]
pub struct Completion {
    device: DeviceId,
    stream: StreamId,
}

impl Completion {
    /// Creates a detached token for unit tests of waiter plumbing.
    #[cfg(test)]
    pub(crate) fn for_test(device: DeviceId, stream: StreamId) -> Self {
        Completion { device, stream }
    }

    /// The device this token belongs to.
    pub fn device(&self) -> DeviceId {
        self.device
    }

    /// The stream this token belongs to.
    pub fn stream(&self) -> StreamId {
        self.stream
    }

    /// Marks the operation complete and advances its stream.
    pub fn finish(self, world: &mut Cluster, sim: &mut ClusterSim) {
        let stream = &mut world.devices[self.device].streams[self.stream];
        debug_assert!(stream.busy, "completion fired on an idle stream");
        stream.busy = false;
        if let Some((name, meta, start)) = stream.current.take() {
            if let Some(spans) = world.op_spans.as_mut() {
                spans.push(crate::cluster::OpSpan {
                    device: self.device,
                    stream: self.stream,
                    name,
                    meta,
                    start,
                    end: sim.now(),
                });
            }
        }
        advance_stream(world, sim, self.device, self.stream);
    }
}

/// An in-order queue of ops on one device.
#[derive(Debug, Default)]
pub struct Stream {
    pub(crate) queue: VecDeque<Op>,
    pub(crate) busy: bool,
    /// Name, metadata, and start time of the in-flight op (span recording
    /// only).
    pub(crate) current: Option<(&'static str, SpanMeta, SimTime)>,
}

impl Stream {
    /// Drops every queued op unrun and marks the stream idle, keeping
    /// the queue's allocation.
    pub(crate) fn clear(&mut self) {
        let Stream {
            queue,
            busy,
            current,
        } = self;
        queue.clear();
        *busy = false;
        *current = None;
    }
}

/// A recordable synchronization event (cudaEvent analogue).
#[derive(Debug, Default)]
pub struct GpuEvent {
    pub(crate) recorded: Option<SimTime>,
    pub(crate) waiters: Vec<Completion>,
}

/// Enqueues `op` on `(device, stream)` and starts it if the stream is
/// idle.
///
/// # Panics
///
/// Panics if the device or stream does not exist.
pub fn enqueue(
    world: &mut Cluster,
    sim: &mut ClusterSim,
    device: DeviceId,
    stream: StreamId,
    op: Op,
) {
    world.devices[device].streams[stream].queue.push_back(op);
    advance_stream(world, sim, device, stream);
}

/// Starts the next queued op if the stream is idle.
pub(crate) fn advance_stream(
    world: &mut Cluster,
    sim: &mut ClusterSim,
    device: DeviceId,
    stream: StreamId,
) {
    let st = &mut world.devices[device].streams[stream];
    if st.busy {
        return;
    }
    let Some(op) = st.queue.pop_front() else {
        return;
    };
    st.busy = true;
    if world.op_spans.is_some() {
        world.devices[device].streams[stream].current =
            Some((op.name(), op.span_meta(), sim.now()));
    }
    op.launch(Completion { device, stream }, world, sim);
}

/// Revokes every signal wait parked on `(device, table)` and finishes
/// their completions immediately, unblocking the streams that were
/// starving on lost signals. The counts themselves are untouched — this
/// releases the *waiters*, not the signals. Recovery runtimes call this
/// after clearing the stream queues so the released streams go idle
/// instead of advancing into stale work. Returns the number of waits
/// revoked.
///
/// # Panics
///
/// Panics if the device or table does not exist.
pub fn abort_counter_waits(
    world: &mut Cluster,
    sim: &mut ClusterSim,
    device: DeviceId,
    table: usize,
) -> usize {
    let waiters = world.devices[device].counters[table].take_parked();
    let revoked = waiters.len();
    for waiter in waiters {
        sim.schedule_now(Event::Complete(waiter.completion));
    }
    revoked
}

/// Increments `(device, table)`'s `group` slot by `by` and queues the
/// waiters it releases in the cluster's release buffer, for
/// [`wake_counter_waiters`] to wake.
pub(crate) fn increment_counter(
    world: &mut Cluster,
    device: DeviceId,
    table: usize,
    group: usize,
    by: u32,
) {
    world.devices[device].counters[table].increment(group, by, &mut world.released);
}

/// Wakes the waiters queued in the cluster's release buffer by
/// [`increment_counter`], in release order: each parked signaling kernel
/// observes the counter after its polling delay. The buffer is drained
/// and keeps its allocation.
pub(crate) fn wake_counter_waiters(
    world: &mut Cluster,
    sim: &mut ClusterSim,
    device: DeviceId,
    table: usize,
) {
    let mut released = std::mem::take(&mut world.released);
    for waiter in released.drain(..) {
        if let Some(monitor) = world.monitor.as_deref() {
            // The parked wait synchronizes now, at the releasing increment.
            monitor.on_counter_satisfied(
                sim.now(),
                device,
                waiter.completion.stream(),
                table,
                waiter.group,
                waiter.threshold,
            );
        }
        let poll = world.devices[device].signal_poll_delay();
        sim.schedule_in(poll, Event::Complete(waiter.completion));
    }
    world.released = released;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arch::GpuArch;
    use crate::cluster::Cluster;
    use sim::Sim;

    fn one_device() -> (Cluster, ClusterSim) {
        let cluster = Cluster::new(1, GpuArch::rtx4090(), false, 1);
        (cluster, Sim::new())
    }

    #[test]
    fn stream_runs_kernels_in_order() {
        let (mut world, mut sim) = one_device();
        let s = world.devices[0].create_stream();
        enqueue(
            &mut world,
            &mut sim,
            0,
            s,
            Op::Delay(SimDuration::from_nanos(100)),
        );
        enqueue(
            &mut world,
            &mut sim,
            0,
            s,
            Op::Delay(SimDuration::from_nanos(50)),
        );
        let end = sim.run(&mut world).unwrap();
        assert_eq!(end.as_nanos(), 150);
    }

    #[test]
    fn two_streams_run_concurrently() {
        let (mut world, mut sim) = one_device();
        let s0 = world.devices[0].create_stream();
        let s1 = world.devices[0].create_stream();
        enqueue(
            &mut world,
            &mut sim,
            0,
            s0,
            Op::Delay(SimDuration::from_nanos(100)),
        );
        enqueue(
            &mut world,
            &mut sim,
            0,
            s1,
            Op::Delay(SimDuration::from_nanos(100)),
        );
        let end = sim.run(&mut world).unwrap();
        assert_eq!(end.as_nanos(), 100, "streams should overlap");
    }

    #[test]
    fn record_wait_event_orders_across_streams() {
        let (mut world, mut sim) = one_device();
        let s0 = world.devices[0].create_stream();
        let s1 = world.devices[0].create_stream();
        let ev = world.devices[0].create_event();
        enqueue(
            &mut world,
            &mut sim,
            0,
            s0,
            Op::Delay(SimDuration::from_nanos(100)),
        );
        enqueue(&mut world, &mut sim, 0, s0, Op::RecordEvent(ev));
        enqueue(&mut world, &mut sim, 0, s1, Op::WaitEvent(ev));
        enqueue(
            &mut world,
            &mut sim,
            0,
            s1,
            Op::Delay(SimDuration::from_nanos(30)),
        );
        let end = sim.run(&mut world).unwrap();
        assert_eq!(end.as_nanos(), 130);
    }

    #[test]
    fn wait_on_already_recorded_event_does_not_block() {
        let (mut world, mut sim) = one_device();
        let s0 = world.devices[0].create_stream();
        let s1 = world.devices[0].create_stream();
        let ev = world.devices[0].create_event();
        enqueue(&mut world, &mut sim, 0, s0, Op::RecordEvent(ev));
        sim.run(&mut world).unwrap();
        enqueue(&mut world, &mut sim, 0, s1, Op::WaitEvent(ev));
        enqueue(
            &mut world,
            &mut sim,
            0,
            s1,
            Op::Delay(SimDuration::from_nanos(10)),
        );
        let end = sim.run(&mut world).unwrap();
        assert_eq!(end.as_nanos(), 10);
    }

    #[test]
    fn wait_counter_blocks_until_threshold() {
        let (mut world, mut sim) = one_device();
        let s0 = world.devices[0].create_stream();
        let s1 = world.devices[0].create_stream();
        let table = world.devices[0].create_counter(1);
        // Stream 1 waits for the counter; an increment lands at t = 500.
        enqueue(
            &mut world,
            &mut sim,
            0,
            s1,
            Op::WaitCounter {
                table,
                group: 0,
                threshold: 1,
            },
        );
        let increment = Event::DelayedIncrement {
            device: 0,
            stream: s0 as u32,
            table: table as u32,
            group: 0,
        };
        sim.schedule_at(SimTime::from_nanos(500), increment);
        let end = sim.run(&mut world).unwrap();
        assert!(
            end.as_nanos() >= 500,
            "waiter released before increment: {end:?}"
        );
        assert!(
            end.as_nanos() <= 500 + world.devices[0].arch.signal_poll_ns,
            "poll delay too large: {end:?}"
        );
    }

    #[test]
    fn op_spans_record_start_and_end() {
        let (mut world, mut sim) = one_device();
        world.enable_op_spans();
        let s = world.devices[0].create_stream();
        enqueue(
            &mut world,
            &mut sim,
            0,
            s,
            Op::Delay(SimDuration::from_nanos(40)),
        );
        enqueue(
            &mut world,
            &mut sim,
            0,
            s,
            Op::Delay(SimDuration::from_nanos(60)),
        );
        sim.run(&mut world).unwrap();
        let spans = world.op_spans.as_ref().unwrap();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].name, "delay");
        assert_eq!(spans[0].start.as_nanos(), 0);
        assert_eq!(spans[0].end.as_nanos(), 40);
        assert_eq!(spans[1].start.as_nanos(), 40);
        assert_eq!(spans[1].end.as_nanos(), 100);
    }

    #[test]
    fn stamp_observes_time() {
        let (mut world, mut sim) = one_device();
        let s = world.devices[0].create_stream();
        let slot = world.new_stamps(1);
        enqueue(
            &mut world,
            &mut sim,
            0,
            s,
            Op::Delay(SimDuration::from_nanos(77)),
        );
        enqueue(&mut world, &mut sim, 0, s, Op::Stamp(slot));
        assert_eq!(world.stamp(slot), None);
        sim.run(&mut world).unwrap();
        assert_eq!(world.stamp(slot), Some(SimTime::from_nanos(77)));
    }
}
