//! CUDA-like streams, events, and the kernel launch protocol.
//!
//! A stream executes its enqueued kernels strictly in order, one at a time.
//! A kernel receives a [`Completion`] token at launch and must fire it
//! exactly once when its work (as modelled in simulated time) is done; the
//! stream then advances to the next kernel. Cross-stream ordering uses
//! [`RecordEvent`]/[`WaitEvent`] pairs, mirroring `cudaEventRecord` /
//! `cudaStreamWaitEvent` — the mechanism FlashOverlap's two-stream runtime
//! (§5) is built on.

use std::collections::VecDeque;

use sim::{SimDuration, SimTime};

use crate::cluster::{Cluster, SpanMeta};
use crate::device::DeviceId;
use crate::ClusterSim;

/// Identifies a stream on a device.
pub type StreamId = usize;

/// Identifies a recordable event on a device.
pub type GpuEventId = usize;

/// A stream operation: anything launchable on a stream.
///
/// Implementations model their duration by scheduling simulator events and
/// must eventually call [`Completion::finish`] exactly once.
pub trait Kernel {
    /// Starts the operation. `ctx.completion` must be fired when done.
    fn launch(self: Box<Self>, ctx: LaunchCtx, world: &mut Cluster, sim: &mut ClusterSim);

    /// Human-readable kernel name for traces and errors.
    fn name(&self) -> &'static str {
        "kernel"
    }

    /// Structured metadata recorded on the kernel's [`OpSpan`]
    /// (bytes/group for collectives, tiles/waves for GEMMs). Control ops
    /// keep the default [`SpanMeta::None`].
    ///
    /// [`OpSpan`]: crate::cluster::OpSpan
    fn span_meta(&self) -> SpanMeta {
        SpanMeta::None
    }
}

/// Launch context handed to a kernel.
#[derive(Debug)]
pub struct LaunchCtx {
    /// Device the kernel launched on.
    pub device: DeviceId,
    /// Stream the kernel occupies.
    pub stream: StreamId,
    /// Completion token; firing it frees the stream.
    pub completion: Completion,
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
    pub(crate) fn new(device: DeviceId, stream: StreamId) -> Self {
        Completion { device, stream }
    }

    /// Creates a detached token for unit tests of waiter plumbing.
    pub fn for_test(device: DeviceId, stream: StreamId) -> Self {
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

/// An in-order queue of kernels on one device.
#[derive(Default)]
pub struct Stream {
    pub(crate) queue: VecDeque<Box<dyn Kernel>>,
    pub(crate) busy: bool,
    /// Name, metadata, and start time of the in-flight op (span recording
    /// only).
    pub(crate) current: Option<(&'static str, SpanMeta, SimTime)>,
}

impl Stream {
    /// Drops every queued kernel unrun and marks the stream idle,
    /// keeping the queue's allocation.
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

impl std::fmt::Debug for Stream {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Stream")
            .field("queued", &self.queue.len())
            .field("busy", &self.busy)
            .finish()
    }
}

/// A recordable synchronization event (cudaEvent analogue).
#[derive(Debug, Default)]
pub struct GpuEvent {
    pub(crate) recorded: Option<SimTime>,
    pub(crate) waiters: Vec<Completion>,
}

/// Enqueues `kernel` on `(device, stream)` and starts it if the stream is
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
    kernel: Box<dyn Kernel>,
) {
    world.devices[device].streams[stream]
        .queue
        .push_back(kernel);
    advance_stream(world, sim, device, stream);
}

/// Starts the next queued kernel if the stream is idle.
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
    let Some(kernel) = st.queue.pop_front() else {
        return;
    };
    st.busy = true;
    if world.op_spans.is_some() {
        world.devices[device].streams[stream].current =
            Some((kernel.name(), kernel.span_meta(), sim.now()));
    }
    let ctx = LaunchCtx {
        device,
        stream,
        completion: Completion::new(device, stream),
    };
    kernel.launch(ctx, world, sim);
}

/// A kernel that occupies its stream for a fixed duration (tests, and
/// simple cost-model kernels).
#[derive(Debug, Clone, Copy)]
pub struct Delay(pub SimDuration);

impl Kernel for Delay {
    fn launch(self: Box<Self>, ctx: LaunchCtx, _world: &mut Cluster, sim: &mut ClusterSim) {
        sim.schedule_in(self.0, move |w, s| ctx.completion.finish(w, s));
    }

    fn name(&self) -> &'static str {
        "delay"
    }
}

/// Records an event on the stream: all prior work on the stream is done
/// when it fires, releasing any [`WaitEvent`] waiters.
#[derive(Debug, Clone, Copy)]
pub struct RecordEvent(pub GpuEventId);

impl Kernel for RecordEvent {
    fn launch(self: Box<Self>, ctx: LaunchCtx, world: &mut Cluster, sim: &mut ClusterSim) {
        let ev = &mut world.devices[ctx.device].events[self.0];
        ev.recorded = Some(sim.now());
        let waiters = std::mem::take(&mut ev.waiters);
        if let Some(monitor) = world.monitor.as_deref() {
            monitor.on_event_record(sim.now(), ctx.device, ctx.stream, self.0);
            // Parked waiters synchronize now, at record time.
            for completion in &waiters {
                monitor.on_event_wait(sim.now(), completion.device(), completion.stream(), self.0);
            }
        }
        for completion in waiters {
            // Wake on a fresh event so each waiter's stream advances after
            // the current call stack unwinds.
            sim.schedule_now(move |w, s| completion.finish(w, s));
        }
        ctx.completion.finish(world, sim);
    }

    fn name(&self) -> &'static str {
        "record_event"
    }
}

/// Blocks the stream until the event has been recorded (on this device).
#[derive(Debug, Clone, Copy)]
pub struct WaitEvent(pub GpuEventId);

impl Kernel for WaitEvent {
    fn launch(self: Box<Self>, ctx: LaunchCtx, world: &mut Cluster, sim: &mut ClusterSim) {
        let ev = &mut world.devices[ctx.device].events[self.0];
        if ev.recorded.is_some() {
            if let Some(monitor) = world.monitor.as_deref() {
                monitor.on_event_wait(sim.now(), ctx.device, ctx.stream, self.0);
            }
            ctx.completion.finish(world, sim);
        } else {
            ev.waiters.push(ctx.completion);
        }
    }

    fn name(&self) -> &'static str {
        "wait_event"
    }
}

/// The signaling kernel (§5): blocks the stream until a counting-table slot
/// reaches its threshold, modelling the polling quantum of the real
/// spin-waiting kernel.
#[derive(Debug, Clone, Copy)]
pub struct WaitCounter {
    /// Counting table index on the device.
    pub table: usize,
    /// Group slot to watch.
    pub group: usize,
    /// Count to wait for (the group's tile count).
    pub threshold: u32,
}

impl Kernel for WaitCounter {
    fn launch(self: Box<Self>, ctx: LaunchCtx, world: &mut Cluster, sim: &mut ClusterSim) {
        let device = ctx.device;
        let dev = &mut world.devices[device];
        let poll = dev.signal_poll_delay();
        match dev.counters[self.table].register(self.group, self.threshold, ctx.completion) {
            Some(completion) => {
                // Already satisfied; still pay one polling quantum.
                if let Some(monitor) = world.monitor.as_deref() {
                    monitor.on_counter_satisfied(
                        sim.now(),
                        device,
                        completion.stream(),
                        self.table,
                        self.group,
                        self.threshold,
                    );
                }
                sim.schedule_in(poll, move |w, s| completion.finish(w, s));
            }
            None => {
                // Parked; the incrementing wave will wake it (the wake path
                // adds the polling delay).
            }
        }
    }

    fn name(&self) -> &'static str {
        "wait_counter"
    }
}

/// The closure type a [`Callback`] stream op runs.
pub type CallbackFn = Box<dyn FnOnce(&mut Cluster, &mut ClusterSim)>;

/// Runs an arbitrary closure as a zero-duration stream op (timestamping,
/// test hooks).
pub struct Callback(pub CallbackFn);

impl std::fmt::Debug for Callback {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("Callback(..)")
    }
}

impl Kernel for Callback {
    fn launch(self: Box<Self>, ctx: LaunchCtx, world: &mut Cluster, sim: &mut ClusterSim) {
        (self.0)(world, sim);
        ctx.completion.finish(world, sim);
    }

    fn name(&self) -> &'static str {
        "callback"
    }
}

/// Resets a counting table for reuse as a zero-duration stream op: every
/// group count returns to zero (steady-state double buffering — a serving
/// loop allocates tables once and ping-pongs between two sets instead of
/// allocating per iteration). The caller must order the reset after the
/// previous user's waits through an event edge; resetting under a parked
/// waiter panics.
#[derive(Debug, Clone, Copy)]
pub struct ResetCounter {
    /// Counting table index on the device.
    pub table: usize,
}

impl Kernel for ResetCounter {
    fn launch(self: Box<Self>, ctx: LaunchCtx, world: &mut Cluster, sim: &mut ClusterSim) {
        world.devices[ctx.device].counters[self.table].reset();
        if let Some(monitor) = world.monitor.as_deref() {
            monitor.on_counter_reset(sim.now(), ctx.device, ctx.stream, self.table);
        }
        ctx.completion.finish(world, sim);
    }

    fn name(&self) -> &'static str {
        "reset_counter"
    }
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
        let completion = waiter.completion;
        sim.schedule_now(move |w, s| completion.finish(w, s));
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
        let completion = waiter.completion;
        sim.schedule_in(poll, move |w, s| completion.finish(w, s));
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
            Box::new(Delay(SimDuration::from_nanos(100))),
        );
        enqueue(
            &mut world,
            &mut sim,
            0,
            s,
            Box::new(Delay(SimDuration::from_nanos(50))),
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
            Box::new(Delay(SimDuration::from_nanos(100))),
        );
        enqueue(
            &mut world,
            &mut sim,
            0,
            s1,
            Box::new(Delay(SimDuration::from_nanos(100))),
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
            Box::new(Delay(SimDuration::from_nanos(100))),
        );
        enqueue(&mut world, &mut sim, 0, s0, Box::new(RecordEvent(ev)));
        enqueue(&mut world, &mut sim, 0, s1, Box::new(WaitEvent(ev)));
        enqueue(
            &mut world,
            &mut sim,
            0,
            s1,
            Box::new(Delay(SimDuration::from_nanos(30))),
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
        enqueue(&mut world, &mut sim, 0, s0, Box::new(RecordEvent(ev)));
        sim.run(&mut world).unwrap();
        enqueue(&mut world, &mut sim, 0, s1, Box::new(WaitEvent(ev)));
        enqueue(
            &mut world,
            &mut sim,
            0,
            s1,
            Box::new(Delay(SimDuration::from_nanos(10))),
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
        // Stream 1 waits for the counter; stream 0 bumps it at t = 500.
        enqueue(
            &mut world,
            &mut sim,
            0,
            s1,
            Box::new(WaitCounter {
                table,
                group: 0,
                threshold: 4,
            }),
        );
        enqueue(
            &mut world,
            &mut sim,
            0,
            s0,
            Box::new(Delay(SimDuration::from_nanos(500))),
        );
        enqueue(
            &mut world,
            &mut sim,
            0,
            s0,
            Box::new(Callback(Box::new(move |w, s| {
                increment_counter(w, 0, table, 0, 4);
                wake_counter_waiters(w, s, 0, table);
            }))),
        );
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
            Box::new(Delay(SimDuration::from_nanos(40))),
        );
        enqueue(
            &mut world,
            &mut sim,
            0,
            s,
            Box::new(Delay(SimDuration::from_nanos(60))),
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
    fn callback_observes_time() {
        let (mut world, mut sim) = one_device();
        let s = world.devices[0].create_stream();
        enqueue(
            &mut world,
            &mut sim,
            0,
            s,
            Box::new(Delay(SimDuration::from_nanos(77))),
        );
        let seen = std::rc::Rc::new(std::cell::Cell::new(0u64));
        let seen2 = seen.clone();
        enqueue(
            &mut world,
            &mut sim,
            0,
            s,
            Box::new(Callback(Box::new(move |_, s| {
                seen2.set(s.now().as_nanos());
            }))),
        );
        sim.run(&mut world).unwrap();
        assert_eq!(seen.get(), 77);
    }
}
