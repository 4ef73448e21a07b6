//! The multi-GPU world.

use std::rc::Rc;

use sim::{DetRng, SimTime, Trace};

use crate::arch::GpuArch;
use crate::collective::{InFlight, P2pOp, Scope};
use crate::counter::IncrementFault;
use crate::device::{Device, DeviceId};
use crate::elementwise::ElementwiseKernel;
use crate::gemm::GemmRun;
use crate::monitor::{ClusterMonitor, Fault, RuntimeDetail, RuntimeEvent, RuntimeEventKind};
use crate::stream::Completion;

/// Storage for the state of in-flight ops, indexed by the slots
/// [`crate::stream::Event`]s carry; freed slots are reused and clearing
/// keeps the allocations.
pub(crate) struct Slab<T> {
    slots: Vec<Option<T>>,
    free: Vec<usize>,
}

impl<T> Default for Slab<T> {
    fn default() -> Self {
        Slab {
            slots: Vec::new(),
            free: Vec::new(),
        }
    }
}

impl<T> Slab<T> {
    /// Stores `value` and returns its slot.
    pub(crate) fn insert(&mut self, value: T) -> usize {
        match self.free.pop() {
            Some(slot) => {
                self.slots[slot] = Some(value);
                slot
            }
            None => {
                self.slots.push(Some(value));
                self.slots.len() - 1
            }
        }
    }

    /// Removes and returns the value in `slot`, freeing the slot; every
    /// event takes its state once.
    pub(crate) fn take(&mut self, slot: usize) -> T {
        let value = self.slots[slot].take().expect("slab slot taken twice");
        self.free.push(slot);
        value
    }

    pub(crate) fn clear(&mut self) {
        self.slots.clear();
        self.free.clear();
    }

    pub(crate) fn capacity(&self) -> usize {
        self.slots.capacity()
    }
}

/// Counter faults an [`crate::stream::Op::ArmFaults`] arms on one
/// counting table of its device. The op first disarms whatever fault
/// budget the table still holds (quarantine), then arms `faults`,
/// logging each step as a runtime event of chain segment `segment`.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultArming {
    /// Counting table index on the op's device.
    pub table: usize,
    /// The chain segment the faults belong to.
    pub segment: usize,
    /// The faults to arm. Only counter faults
    /// ([`Fault::DroppedIncrement`], [`Fault::DelayedIncrement`]) arm on a
    /// table; any other kind is ignored.
    pub faults: Vec<Fault>,
}

/// One tile's completion record (Fig. 2 raw data).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TileCompletion {
    /// Device the tile ran on.
    pub device: DeviceId,
    /// Address-order tile index.
    pub tile: u32,
    /// Runtime wave the tile completed in.
    pub wave: u32,
}

/// Structured metadata an op attaches to its [`OpSpan`] at the source
/// (via [`crate::stream::Op::span_meta`]), so trace exporters never
/// reverse-engineer op names.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SpanMeta {
    /// No metadata (control ops, delays, callbacks).
    #[default]
    None,
    /// A GEMM kernel: its grid's tile and wave totals.
    Gemm {
        /// Total output tiles in the grid.
        tiles: u32,
        /// Contended wave count of the grid.
        waves: u32,
    },
    /// A collective (or peer copy): bytes it moves per rank, and the
    /// signal group it serves when launched by the overlap runtime.
    Collective {
        /// Per-rank payload bytes.
        bytes: u64,
        /// Signal group index, if the collective is group-tagged.
        group: Option<usize>,
    },
}

/// One completed stream operation, for timeline rendering.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpSpan {
    /// Device the op ran on.
    pub device: DeviceId,
    /// Stream the op occupied.
    pub stream: usize,
    /// Op name (from [`crate::stream::Op::name`]).
    pub name: &'static str,
    /// Source-attached kernel metadata.
    pub meta: SpanMeta,
    /// When the op started occupying the stream.
    pub start: sim::SimTime,
    /// When it completed.
    pub end: sim::SimTime,
}

/// Positive execution-time noise: every kernel draws a multiplicative
/// factor in `[1, 1 + frac)`, modelling clock/DVFS variance and other
/// non-idealities of real hardware. Zero (the default) gives exactly
/// reproducible analytic timing; the evaluation systems enable it so
/// measured latencies sit slightly above model predictions, as on real
/// machines.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NoiseSpec {
    /// Noise fraction for compute kernels.
    pub gemm_frac: f64,
    /// Noise fraction for communication operations.
    pub comm_frac: f64,
}

/// Injected communication-fabric misbehaviour, consumed by collective
/// kernels at rendezvous: a persistent bandwidth-degradation multiplier
/// and a budget of transient stalls (each stall delays one collective).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CommFault {
    /// Multiplier (≥ 1) applied to every collective's duration — models a
    /// persistently underdelivering link. Values below 1 are clamped up.
    pub slowdown: f64,
    /// Extra delay added to the next `stall_count` collectives (transient
    /// link stalls: retransmits, congestion bursts).
    pub stall: sim::SimDuration,
    /// How many upcoming collectives the stall still applies to.
    pub stall_count: u32,
    /// Extra multiplier (≥ 1) applied only to collectives whose
    /// communicator spans nodes — a degraded *inter-node* link. Composes
    /// with `slowdown`; single-node collectives never feel it.
    pub inter_slowdown: f64,
}

impl CommFault {
    /// Consumes one stall application, if any remain.
    pub fn take_stall(&mut self) -> Option<sim::SimDuration> {
        if self.stall_count == 0 || self.stall.as_nanos() == 0 {
            return None;
        }
        self.stall_count -= 1;
        Some(self.stall)
    }

    /// The effective duration multiplier (clamped to ≥ 1).
    pub fn slowdown_factor(&self) -> f64 {
        self.slowdown.max(1.0)
    }

    /// The extra multiplier for node-spanning collectives (clamped to
    /// ≥ 1).
    pub fn inter_slowdown_factor(&self) -> f64 {
        self.inter_slowdown.max(1.0)
    }
}

/// One blocked signal wait, with the full counter context: which rank is
/// stuck, on which table slot, and how far the count is from the unmet
/// threshold. Produced by [`Cluster::stuck_waits`] for deadlock
/// diagnostics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StuckWait {
    /// The blocked rank (device id).
    pub device: DeviceId,
    /// The stream whose signal wait is parked.
    pub stream: usize,
    /// Counting-table index on the device.
    pub table: usize,
    /// The starved group slot.
    pub group: usize,
    /// The count the slot actually reached.
    pub count: u32,
    /// The threshold the wait needs (never met).
    pub threshold: u32,
}

impl std::fmt::Display for StuckWait {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "rank {} stream {} blocked on counter table {} group {}: count {} < threshold {}",
            self.device, self.stream, self.table, self.group, self.count, self.threshold
        )
    }
}

/// One stream that still held work when the event queue drained.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WedgedStream {
    /// The stream's device.
    pub device: DeviceId,
    /// The stream.
    pub stream: usize,
    /// Whether an op was in flight on it.
    pub in_flight: bool,
    /// Ops still queued behind it.
    pub queued: usize,
    /// Name of the op in flight (`"queued work"` when none had started).
    pub op: &'static str,
    /// The starved signal wait parked on this stream, if the wedge is
    /// one (the first such wait when there are several).
    pub wait: Option<StuckWait>,
}

impl std::fmt::Display for WedgedStream {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "device {} stream {}: {} in flight, {} queued ({})",
            self.device,
            self.stream,
            u32::from(self.in_flight),
            self.queued,
            self.op
        )?;
        if let Some(wait) = &self.wait {
            write!(f, " — {wait}")?;
        }
        Ok(())
    }
}

/// Why a drained simulation is not quiescent: every stream that still
/// holds work, and every signal wait still parked (in
/// [`Cluster::stuck_waits`] order).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Wedge {
    /// The wedged streams, by device then stream.
    pub streams: Vec<WedgedStream>,
    /// The starved signal waits.
    pub waits: Vec<StuckWait>,
}

/// The simulation world: a homogeneous multi-GPU server.
///
/// `Cluster` is the world of [`crate::stream::Event`]; every kernel and
/// collective in the reproduction executes as events against it.
pub struct Cluster {
    /// The devices, indexed by rank.
    pub devices: Vec<Device>,
    /// Whether buffers carry real data (functional mode) or only lengths
    /// (timing mode).
    pub functional: bool,
    /// Optional per-tile completion trace (enable for Fig. 2).
    pub tile_trace: Option<Trace<TileCompletion>>,
    /// Execution-time noise (off by default).
    pub noise: NoiseSpec,
    /// Optional per-stream operation spans (enable for timeline
    /// rendering).
    pub op_spans: Option<Vec<OpSpan>>,
    /// Optional access/synchronization observer (see [`ClusterMonitor`]).
    pub monitor: Option<Rc<dyn ClusterMonitor>>,
    /// Injected communication-fabric faults (none by default).
    pub comm_fault: CommFault,
    /// Device → node placement map (all zeros for a single-node box).
    /// Filled in by the topology-aware cluster builders; gpu-sim itself
    /// never interprets it, but telemetry and serving read it to label
    /// devices and place replicas.
    pub node_of: Vec<usize>,
    /// Waiters released by counter increments and not yet woken: the
    /// epilogue appends to it and `wake_counter_waiters` drains it, so the
    /// signal path reuses one buffer.
    pub(crate) released: Vec<crate::counter::Waiter>,
    /// In-flight GEMMs (wave cursor, buffers, completion).
    pub(crate) gemms: Slab<GemmRun>,
    /// In-flight element-wise kernels.
    pub(crate) elementwise: Slab<(ElementwiseKernel, Completion)>,
    /// Rendezvoused collectives waiting for their finish event.
    pub(crate) collectives: Slab<InFlight>,
    /// In-flight peer copies.
    pub(crate) p2p: Slab<(P2pOp, Completion)>,
    /// Communicator rendezvous and serialization scopes; the first
    /// `scopes_open` are in use, the rest keep their allocations.
    pub(crate) scopes: Vec<Scope>,
    pub(crate) scopes_open: usize,
    /// Rendezvous participants of the call completing now (reused).
    pub(crate) participants: Vec<(DeviceId, usize)>,
    /// Times written by [`crate::stream::Op::Stamp`] ops.
    pub(crate) stamps: Vec<Option<SimTime>>,
    /// The runtime-event log the fault armings append to; runtimes add
    /// their own entries with [`Cluster::log_runtime_event`].
    pub runtime_log: Vec<RuntimeEvent>,
}

impl std::fmt::Debug for Cluster {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Cluster")
            .field("devices", &self.devices.len())
            .field("functional", &self.functional)
            .field("noise", &self.noise)
            .field("monitor", &self.monitor.is_some())
            .finish()
    }
}

impl Cluster {
    /// Creates a cluster of `n` identical devices.
    ///
    /// Per-device randomness is forked deterministically from `seed`, so
    /// equal seeds give bit-identical simulations.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn new(n: usize, arch: GpuArch, functional: bool, seed: u64) -> Self {
        assert!(n > 0, "cluster needs at least one device");
        // `reset` forks each device's RNG from `seed`.
        let devices = (0..n)
            .map(|id| Device::new(id, arch.clone(), functional, DetRng::new(seed)))
            .collect();
        let mut cluster = Cluster {
            devices,
            functional,
            tile_trace: None,
            noise: NoiseSpec::default(),
            op_spans: None,
            monitor: None,
            comm_fault: CommFault::default(),
            node_of: vec![0; n],
            released: Vec::new(),
            gemms: Slab::default(),
            elementwise: Slab::default(),
            collectives: Slab::default(),
            p2p: Slab::default(),
            scopes: Vec::new(),
            scopes_open: 0,
            participants: Vec::new(),
            stamps: Vec::new(),
            runtime_log: Vec::new(),
        };
        cluster.reset(functional, seed);
        cluster
    }

    /// Returns the cluster to the run state [`Cluster::new`] gives for
    /// `seed`: device RNGs re-forked from it, no buffer, stream, event or
    /// counting table on any device (ids restart at 0), empty SM
    /// ledgers, no comm fault, no monitor and no trace or span
    /// recording; no in-flight op state, open communicator scope, stamp
    /// or logged runtime event. Queued ops and parked waits
    /// are dropped unrun. What the cluster was built with stays: its
    /// devices and their architecture, the noise spec and the node map.
    /// Allocations are kept for reuse. Every field is named here, so a
    /// new field does not compile until its reset is decided.
    pub fn reset(&mut self, functional: bool, seed: u64) {
        let Cluster {
            devices,
            functional: mode,
            tile_trace,
            noise: _,
            op_spans,
            monitor,
            comm_fault,
            node_of: _,
            released,
            gemms,
            elementwise,
            collectives,
            p2p,
            scopes,
            scopes_open,
            participants,
            stamps,
            runtime_log,
        } = self;
        let root = DetRng::new(seed);
        for (id, device) in devices.iter_mut().enumerate() {
            device.reset(functional, root.fork(id as u64 + 1));
        }
        *mode = functional;
        *tile_trace = None;
        *op_spans = None;
        *monitor = None;
        *comm_fault = CommFault::default();
        released.clear();
        gemms.clear();
        elementwise.clear();
        collectives.clear();
        p2p.clear();
        for scope in scopes.iter_mut() {
            scope.clear();
        }
        *scopes_open = 0;
        participants.clear();
        stamps.clear();
        runtime_log.clear();
    }

    /// The capacity of each buffer the cluster keeps across resets, by
    /// name, so tests can check that a warm world neither drops nor
    /// grows them.
    pub fn retained_capacities(&self) -> [(&'static str, usize); 9] {
        let streams = self
            .devices
            .iter()
            .flat_map(|d| d.streams.iter().chain(&d.spare_streams));
        [
            ("stream queues", streams.map(|s| s.queue.capacity()).sum()),
            ("gemm slab", self.gemms.capacity()),
            ("elementwise slab", self.elementwise.capacity()),
            ("collective slab", self.collectives.capacity()),
            ("p2p slab", self.p2p.capacity()),
            ("comm scopes", self.scopes.capacity()),
            ("participants", self.participants.capacity()),
            ("stamps", self.stamps.capacity()),
            ("runtime log", self.runtime_log.capacity()),
        ]
    }

    /// Allocates `n` consecutive stamp slots, all unset, and returns the
    /// first; an [`crate::stream::Op::Stamp`] sets one to its launch
    /// time.
    pub fn new_stamps(&mut self, n: usize) -> usize {
        let first = self.stamps.len();
        self.stamps.resize(first + n, None);
        first
    }

    /// The time stamp slot `slot` was set, if it was.
    ///
    /// # Panics
    ///
    /// Panics if the slot was never allocated.
    pub fn stamp(&self, slot: usize) -> Option<SimTime> {
        self.stamps[slot]
    }

    /// Applies `arming` on `device` at `now`.
    pub(crate) fn arm_faults(&mut self, arming: FaultArming, device: DeviceId, now: SimTime) {
        let FaultArming {
            table,
            segment,
            faults,
        } = arming;
        let cleared = self.devices[device].counter_mut(table).disarm_faults();
        if cleared > 0 {
            self.log_runtime_event(RuntimeEvent {
                at: now,
                device,
                kind: RuntimeEventKind::FaultQuarantined,
                group: None,
                detail: RuntimeDetail::FaultQuarantined {
                    segment,
                    cleared,
                    table,
                },
            });
        }
        for fault in faults {
            let (group, kind, count) = match fault {
                Fault::DroppedIncrement { group, count, .. } => {
                    (group, IncrementFault::Dropped, count)
                }
                Fault::DelayedIncrement {
                    group,
                    count,
                    delay,
                    ..
                } => (group, IncrementFault::Delayed(delay), count),
                _ => continue,
            };
            self.devices[device]
                .counter_mut(table)
                .arm_fault(group, kind, count);
            self.log_runtime_event(RuntimeEvent {
                at: now,
                device,
                kind: RuntimeEventKind::FaultInjected,
                group: Some(group),
                detail: RuntimeDetail::FaultArmed { segment, fault },
            });
        }
    }

    /// Reports `event` to the monitor, if one is attached, and appends it
    /// to [`Cluster::runtime_log`].
    pub fn log_runtime_event(&mut self, event: RuntimeEvent) {
        self.notify_runtime_event(&event);
        self.runtime_log.push(event);
    }

    /// Records the device → node placement (one entry per device).
    ///
    /// # Panics
    ///
    /// Panics if the map's length differs from the device count.
    pub fn set_node_map(&mut self, node_of: Vec<usize>) {
        assert_eq!(
            node_of.len(),
            self.devices.len(),
            "node map needs one entry per device"
        );
        self.node_of = node_of;
    }

    /// Attaches an access/synchronization observer.
    pub fn set_monitor(&mut self, monitor: Rc<dyn ClusterMonitor>) {
        self.monitor = Some(monitor);
    }

    /// Number of devices.
    pub fn num_devices(&self) -> usize {
        self.devices.len()
    }

    /// Immutable access to a device.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn device(&self, id: DeviceId) -> &Device {
        &self.devices[id]
    }

    /// Turns on per-tile completion tracing.
    pub fn enable_tile_trace(&mut self) {
        self.tile_trace = Some(Trace::new());
    }

    /// Turns on per-stream operation span recording.
    pub fn enable_op_spans(&mut self) {
        self.op_spans = Some(Vec::new());
    }

    /// Reports `device`'s SM-occupancy totals to the monitor, if one is
    /// attached. Kernels call this right after an `occupy_*`/`release_*`
    /// edge so telemetry sees every occupancy change.
    pub fn notify_sm_occupancy(&self, at: sim::SimTime, device: DeviceId) {
        if let Some(monitor) = &self.monitor {
            let dev = &self.devices[device];
            monitor.on_sm_occupancy(at, device, dev.compute_sms(), dev.comm_sms());
        }
    }

    /// Every signal wait still parked on a counting table, with its full
    /// counter context (blocked rank, group, reached count, unmet
    /// threshold). After the event queue drains, each entry is a wait
    /// whose threshold can never be met — the precise cause behind a
    /// wedged stream that [`Cluster::check_quiescent`] reports.
    pub fn stuck_waits(&self) -> Vec<StuckWait> {
        let mut waits = Vec::new();
        for device in &self.devices {
            for (table, counters) in device.counter_tables() {
                for waiter in counters.parked_waiters() {
                    waits.push(StuckWait {
                        device: waiter.completion.device(),
                        stream: waiter.completion.stream(),
                        table,
                        group: waiter.group,
                        count: counters.count(waiter.group),
                        threshold: waiter.threshold,
                    });
                }
            }
        }
        waits
    }

    /// Checks that every stream has drained: no in-flight or queued
    /// operations remain.
    ///
    /// A simulation whose event queue empties while streams still hold
    /// work is *deadlocked* — typically a collective some rank never
    /// reached, or a counter threshold that can never be met. Call this
    /// after `sim.run` to turn silent hangs into diagnosable errors.
    ///
    /// # Errors
    ///
    /// Returns the [`Wedge`]: one record per wedged stream, naming the
    /// in-flight op and, when the wedge is a starved signal wait, the
    /// blocked rank, counter group, reached count, and unmet threshold;
    /// and every parked wait. The waits are gathered only when some
    /// stream is wedged.
    pub fn check_quiescent(&self) -> Result<(), Wedge> {
        fn wedged(s: &crate::stream::Stream) -> bool {
            s.busy || !s.queue.is_empty()
        }
        if !self.devices.iter().any(|d| d.streams.iter().any(wedged)) {
            return Ok(());
        }
        let waits = self.stuck_waits();
        let mut streams = Vec::new();
        for device in &self.devices {
            for (sid, stream) in device.streams.iter().enumerate() {
                if wedged(stream) {
                    streams.push(WedgedStream {
                        device: device.id,
                        stream: sid,
                        in_flight: stream.busy,
                        queued: stream.queue.len(),
                        op: stream.current.map_or("queued work", |(name, _, _)| name),
                        wait: waits
                            .iter()
                            .find(|w| w.device == device.id && w.stream == sid)
                            .copied(),
                    });
                }
            }
        }
        Err(Wedge { streams, waits })
    }

    /// Drops every not-yet-launched kernel queued on `(device, stream)`
    /// and returns how many were discarded. The NCCL `commAbort` analog
    /// for the watchdog: queued kernels have no completion token yet, so
    /// discarding them is safe; an *in-flight* op is untouched.
    ///
    /// # Panics
    ///
    /// Panics if the device or stream does not exist.
    pub fn abort_stream_queue(&mut self, device: DeviceId, stream: usize) -> usize {
        let queue = &mut self.devices[device].streams[stream].queue;
        let dropped = queue.len();
        queue.clear();
        dropped
    }

    /// Reports a fault/recovery occurrence to the monitor, if one is
    /// attached (see [`crate::monitor::RuntimeEvent`]).
    pub fn notify_runtime_event(&self, event: &crate::monitor::RuntimeEvent) {
        if let Some(monitor) = &self.monitor {
            monitor.on_runtime_event(event);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn devices_get_distinct_rngs() {
        let mut c = Cluster::new(2, GpuArch::a800(), false, 7);
        let a = c.devices[0].rng.next_u64();
        let b = c.devices[1].rng.next_u64();
        assert_ne!(a, b);
    }

    #[test]
    fn same_seed_same_cluster_randomness() {
        let mut c1 = Cluster::new(2, GpuArch::a800(), false, 7);
        let mut c2 = Cluster::new(2, GpuArch::a800(), false, 7);
        assert_eq!(c1.devices[1].rng.next_u64(), c2.devices[1].rng.next_u64());
    }

    #[test]
    fn reset_matches_a_fresh_cluster() {
        use crate::stream::{enqueue, Op};
        let mut c = Cluster::new(2, GpuArch::a800(), false, 7);
        let mut sim: crate::ClusterSim = sim::Sim::new();
        c.enable_op_spans();
        c.enable_tile_trace();
        c.comm_fault.stall_count = 3;
        c.devices[0].occupy_comm_sms(20);
        let s = c.devices[1].create_stream();
        let table = c.devices[1].create_counter(1);
        c.devices[1].mem.alloc(4);
        enqueue(
            &mut c,
            &mut sim,
            1,
            s,
            Op::WaitCounter {
                table,
                group: 0,
                threshold: 1,
            },
        );
        c.devices[0].rng.next_u64();
        c.reset(true, 7);
        let mut fresh = Cluster::new(2, GpuArch::a800(), true, 7);
        assert!(c.functional);
        assert!(c.op_spans.is_none() && c.tile_trace.is_none() && c.monitor.is_none());
        assert_eq!(c.comm_fault, CommFault::default());
        assert!(c.stuck_waits().is_empty(), "parked waits are dropped");
        for (d, f) in c.devices.iter_mut().zip(&mut fresh.devices) {
            assert_eq!(d.rng.next_u64(), f.rng.next_u64(), "rng re-forked");
            assert_eq!(d.comm_sms(), 0);
            assert_eq!(d.mem.num_buffers(), 0);
            assert_eq!(d.create_stream(), 0);
            assert_eq!(d.create_counter(1), 0);
        }
        c.reset(false, 8);
        let mut other = Cluster::new(2, GpuArch::a800(), false, 8);
        assert_eq!(c.devices[1].rng.next_u64(), other.devices[1].rng.next_u64());
    }

    #[test]
    fn trace_disabled_by_default() {
        let mut c = Cluster::new(1, GpuArch::rtx4090(), false, 1);
        assert!(c.tile_trace.is_none());
        c.enable_tile_trace();
        assert!(c.tile_trace.is_some());
    }

    #[test]
    #[should_panic(expected = "at least one device")]
    fn empty_cluster_panics() {
        let _ = Cluster::new(0, GpuArch::rtx4090(), false, 1);
    }

    #[test]
    fn stuck_wait_diagnostic_names_rank_group_count_threshold() {
        use crate::stream::{enqueue, Op};
        let mut c = Cluster::new(2, GpuArch::rtx4090(), false, 1);
        let mut sim: crate::ClusterSim = sim::Sim::new();
        let s = c.devices[1].create_stream();
        let table = c.devices[1].create_counter(3);
        crate::stream::increment_counter(&mut c, 1, table, 2, 4);
        enqueue(
            &mut c,
            &mut sim,
            1,
            s,
            Op::WaitCounter {
                table,
                group: 2,
                threshold: 9,
            },
        );
        sim.run(&mut c).unwrap();
        let waits = c.stuck_waits();
        assert_eq!(
            waits,
            vec![StuckWait {
                device: 1,
                stream: s,
                table,
                group: 2,
                count: 4,
                threshold: 9,
            }]
        );
        let wedge = c.check_quiescent().unwrap_err();
        assert_eq!(wedge.waits, waits, "the wedge carries the same waits");
        let stuck: Vec<String> = wedge.streams.iter().map(ToString::to_string).collect();
        assert_eq!(stuck.len(), 1);
        assert!(
            stuck[0].contains("rank 1")
                && stuck[0].contains("group 2")
                && stuck[0].contains("count 4")
                && stuck[0].contains("threshold 9"),
            "diagnostic missing counter context: {stuck:?}"
        );
    }

    #[test]
    fn abort_stream_queue_discards_queued_work_only() {
        use crate::stream::{enqueue, Op};
        let mut c = Cluster::new(1, GpuArch::rtx4090(), false, 1);
        let mut sim: crate::ClusterSim = sim::Sim::new();
        let s = c.devices[0].create_stream();
        let ev = c.devices[0].create_event();
        enqueue(&mut c, &mut sim, 0, s, Op::WaitEvent(ev));
        enqueue(
            &mut c,
            &mut sim,
            0,
            s,
            Op::Delay(sim::SimDuration::from_nanos(5)),
        );
        sim.run(&mut c).unwrap();
        // The wait is in flight (wedged); only the delay is queued.
        assert_eq!(c.abort_stream_queue(0, s), 1);
        assert!(c.check_quiescent().is_err(), "in-flight op untouched");
    }

    #[test]
    fn comm_fault_stall_budget_is_consumed() {
        let mut fault = CommFault {
            slowdown: 0.5,
            stall: sim::SimDuration::from_nanos(100),
            stall_count: 2,
            inter_slowdown: 0.0,
        };
        assert_eq!(fault.slowdown_factor(), 1.0, "slowdown clamps to >= 1");
        assert_eq!(fault.inter_slowdown_factor(), 1.0, "inter clamps to >= 1");
        assert!(fault.take_stall().is_some());
        assert!(fault.take_stall().is_some());
        assert!(fault.take_stall().is_none());
    }

    #[test]
    fn quiescence_detects_wedged_streams() {
        use crate::stream::{enqueue, Op};
        let mut c = Cluster::new(1, GpuArch::rtx4090(), false, 1);
        let mut sim: crate::ClusterSim = sim::Sim::new();
        let s = c.devices[0].create_stream();
        let ev = c.devices[0].create_event();
        assert!(c.check_quiescent().is_ok());
        // Wait on an event nobody ever records: the queue drains with the
        // stream wedged.
        enqueue(&mut c, &mut sim, 0, s, Op::WaitEvent(ev));
        sim.run(&mut c).unwrap();
        let wedge = c.check_quiescent().unwrap_err();
        let stuck: Vec<String> = wedge.streams.iter().map(ToString::to_string).collect();
        assert_eq!(stuck.len(), 1);
        assert!(stuck[0].contains("device 0 stream 0"), "{stuck:?}");
    }
}
