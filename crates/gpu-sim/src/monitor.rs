//! Observation hooks for dynamic analysis tools.
//!
//! A [`ClusterMonitor`] attached to a [`Cluster`](crate::cluster::Cluster)
//! sees every modelled memory access and every synchronization edge the
//! simulated program creates: GEMM epilogue tile writes, counting-table
//! increments and satisfied signal waits (§3.2.4/§5), event record/wait
//! pairs, collective send/recv accesses, and collective rendezvous points.
//! The `simsan` crate builds its vector-clock happens-before checker on
//! these callbacks; the hooks themselves are policy-free.
//!
//! Two hooks keep an attached monitor cheap on the epilogue hot path. A
//! monitor that ignores memory accesses says so through
//! [`ClusterMonitor::observes_accesses`], and emitters then skip building
//! ranges and [`Access`] values altogether. The GEMM epilogue reports a
//! wave's same-group tile increments in one
//! [`ClusterMonitor::on_counter_increments`] call; its default replays them
//! as unit [`ClusterMonitor::on_counter_increment`] calls, so a monitor
//! that does not override it (SimSan) sees exactly one callback per tile.
//! The telemetry recorder overrides it and keeps the whole run as one
//! `by: tiles` row.
//!
//! All callbacks take `&self`: monitors keep interior-mutable state and are
//! shared through `Rc`, like the event probes of [`sim::EngineProbe`].

use std::ops::Range;

use sim::SimTime;

use crate::device::DeviceId;
use crate::memory::BufferId;
use crate::stream::{GpuEventId, StreamId};

/// Whether an access reads or writes the buffer range.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// The range is read.
    Read,
    /// The range is written.
    Write,
}

/// What part of the modelled program produced an access. Used by
/// sanitizers to classify findings (a tile write racing a collective send
/// is a use-before-signal; everything else is a generic data race).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessScope {
    /// GEMM epilogue writing a finished tile (possibly reordered).
    TileWrite,
    /// A collective reading its local send regions on arrival.
    CollectiveSend,
    /// A collective writing its local recv regions on completion.
    CollectiveRecv,
    /// An element-wise kernel reading (possibly remap-gathering) its input.
    RemapRead,
    /// An element-wise kernel writing its output.
    ElementwiseWrite,
}

/// One modelled memory access. Buffers are per-device, so `(device,
/// buffer)` identifies the storage and `(device, stream)` identifies the
/// logical thread that touched it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Access {
    /// Device owning the buffer (and issuing the access).
    pub device: DeviceId,
    /// Stream the accessing operation runs on.
    pub stream: StreamId,
    /// The buffer.
    pub buffer: BufferId,
    /// Element range within the buffer.
    pub range: Range<usize>,
    /// Read or write.
    pub kind: AccessKind,
    /// Producing operation class.
    pub scope: AccessScope,
    /// Address-order tile index, when the access belongs to one tile.
    pub tile: Option<u32>,
}

/// One modelled bulk transfer over an inter-GPU link. Collectives emit one
/// interval per (src, dst) link they keep busy, so telemetry can derive
/// per-link bandwidth-utilization timelines (Fig. 8-style curves).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkTransfer {
    /// Device the bytes leave.
    pub src: DeviceId,
    /// Device the bytes arrive at.
    pub dst: DeviceId,
    /// Bytes moved over this link during the interval.
    pub bytes: u64,
    /// Transfer start (simulated time).
    pub start: SimTime,
    /// Transfer end (simulated time).
    pub end: SimTime,
}

/// The class of a fault-injection or watchdog-recovery occurrence, so
/// traces can distinguish the injected cause from the runtime's response.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RuntimeEventKind {
    /// A fault fired: an injected misbehaviour took effect (dropped or
    /// delayed increment, link stall/degradation, straggler SMs, slow
    /// rank).
    FaultInjected,
    /// A watchdog deadline expired and the runtime escalated.
    WatchdogFired,
    /// Leftover armed fault budget was disarmed before a counting table
    /// was handed to the next same-parity chain segment (the
    /// table-quarantine rule: a fault armed for segment `k` must not
    /// leak into segment `k + 2`).
    FaultQuarantined,
    /// A starved group was recovered through the tail-collective path.
    TailRecovery,
    /// The overlap plan was abandoned; remaining output completed via
    /// bulk non-overlapped collectives.
    DegradedFallback,
}

/// One fault or recovery occurrence, reported by the fault-injection
/// seams and the watchdog so telemetry can place instant events on the
/// trace timeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RuntimeEvent {
    /// When the event took effect (simulated time).
    pub at: SimTime,
    /// The device the event concerns.
    pub device: DeviceId,
    /// Fault or recovery class.
    pub kind: RuntimeEventKind,
    /// The counter group concerned, when the event targets one.
    pub group: Option<usize>,
    /// Human-readable description (cause, parameters).
    pub detail: String,
}

/// Observer of simulated memory accesses and synchronization edges.
///
/// Default implementations ignore everything, so monitors override only
/// the callbacks they need. Callbacks fire *at the simulated time the
/// modelled effect takes place* (e.g. a parked signal wait is reported
/// when the increment releases it, not when it was enqueued); `at` carries
/// that time so monitors need no access to the engine clock.
pub trait ClusterMonitor {
    /// Whether this monitor consumes [`ClusterMonitor::on_access`].
    /// Emitters check it before building access ranges, so a monitor
    /// that returns `false` never pays for them.
    fn observes_accesses(&self) -> bool {
        true
    }

    /// A buffer range was read or written.
    fn on_access(&self, _access: &Access) {}

    /// A counting-table slot was incremented (GEMM epilogue, §3.2.4).
    fn on_counter_increment(
        &self,
        _at: SimTime,
        _device: DeviceId,
        _stream: StreamId,
        _table: usize,
        _group: usize,
        _by: u32,
    ) {
    }

    /// `tiles` finished tiles of one wave each incremented `group` by one,
    /// at the same instant and in one uninterrupted run. The default
    /// reports them as `tiles` unit [`ClusterMonitor::on_counter_increment`]
    /// calls.
    fn on_counter_increments(
        &self,
        at: SimTime,
        device: DeviceId,
        stream: StreamId,
        table: usize,
        group: usize,
        tiles: u32,
    ) {
        for _ in 0..tiles {
            self.on_counter_increment(at, device, stream, table, group, 1);
        }
    }

    /// A signal wait on a counting-table slot was satisfied.
    fn on_counter_satisfied(
        &self,
        _at: SimTime,
        _device: DeviceId,
        _stream: StreamId,
        _table: usize,
        _group: usize,
        _threshold: u32,
    ) {
    }

    /// An event was recorded on a stream.
    fn on_event_record(
        &self,
        _at: SimTime,
        _device: DeviceId,
        _stream: StreamId,
        _event: GpuEventId,
    ) {
    }

    /// A stream's wait on a recorded event was satisfied.
    fn on_event_wait(
        &self,
        _at: SimTime,
        _device: DeviceId,
        _stream: StreamId,
        _event: GpuEventId,
    ) {
    }

    /// All ranks of a collective arrived; the listed `(device, stream)`
    /// threads synchronize with each other at this point.
    fn on_rendezvous(&self, _at: SimTime, _participants: &[(DeviceId, StreamId)]) {}

    /// A collective (or peer copy) occupies an inter-GPU link for the
    /// reported interval. Fired when the transfer is scheduled, which may
    /// be before `transfer.end` arrives on the simulated clock.
    fn on_link_transfer(&self, _transfer: &LinkTransfer) {}

    /// A device's SM allocation changed: `compute_sms` and `comm_sms` are
    /// the occupancy totals *after* the change took effect at `at`.
    fn on_sm_occupancy(&self, _at: SimTime, _device: DeviceId, _compute_sms: u32, _comm_sms: u32) {}

    /// A fault was injected or the watchdog performed a recovery action.
    fn on_runtime_event(&self, _event: &RuntimeEvent) {}

    /// A counting table was reset for reuse (steady-state double
    /// buffering): all slot counts returned to zero, starting a new epoch
    /// for every `(table, group)` label on `device`.
    fn on_counter_reset(&self, _at: SimTime, _device: DeviceId, _stream: StreamId, _table: usize) {}
}
