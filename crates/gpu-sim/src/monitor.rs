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
//! Fault-injection and watchdog occurrences arrive as [`RuntimeEvent`]s
//! whose [`RuntimeDetail`] is data, not text: the seam that fires records
//! the numbers (the armed [`Fault`], the tile, the stall, the segment),
//! and the sentence is formatted only when something displays the detail
//! (a trace exporter, a report). Recording one is a copy; a wedge
//! diagnosis travels as a shared [`Diagnosis`] handle. So a resilient run
//! whose log nobody reads builds no strings.
//!
//! All callbacks take `&self`: monitors keep interior-mutable state and are
//! shared through `Rc`, like the event probes of [`sim::EngineProbe`].

use std::error::Error;
use std::fmt;
use std::ops::Range;
use std::sync::Arc;

use sim::{SimDuration, SimTime};

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

/// One injected fault: the fault vocabulary of a resilient run. Ranks
/// and groups refer to the plan the fault runs against; the runtime
/// validates them before anything is armed. Counter faults arm on the
/// target rank's counting table ([`crate::counter::CounterTable::arm_fault`]),
/// link faults on the cluster's [`crate::CommFault`], SM and launch faults
/// on the rank's device and streams.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Fault {
    /// `count` of `rank`'s counting-table increments for `group` are
    /// dropped: the signal is lost but the tile data is written — the
    /// lost-signal bug class that wedges the group's wait.
    DroppedIncrement {
        /// Rank whose increments are dropped.
        rank: usize,
        /// Target wave group.
        group: usize,
        /// How many increments to drop.
        count: u32,
    },
    /// `count` of `rank`'s increments for `group` land `delay` late
    /// (slow signal propagation; stretches the overlap, never wedges it).
    DelayedIncrement {
        /// Rank whose increments are delayed.
        rank: usize,
        /// Target wave group.
        group: usize,
        /// How many increments to delay.
        count: u32,
        /// Signal delay.
        delay: SimDuration,
    },
    /// Every collective call runs `slowdown` times longer — a
    /// persistently underdelivering link (values below 1 are clamped up).
    LinkDegradation {
        /// Duration multiplier applied at every rendezvous.
        slowdown: f64,
    },
    /// Collectives that *cross a node boundary* run `slowdown` times
    /// longer; single-node collectives are untouched — a congested or
    /// flapping inter-node (InfiniBand-tier) link. On a single-node
    /// topology this fault is armed but never felt.
    InterLinkDegradation {
        /// Duration multiplier applied only at node-spanning rendezvous.
        slowdown: f64,
    },
    /// The next `count` collective calls stall for `stall` before
    /// starting (transient link congestion or retransmit bursts).
    LinkStall {
        /// Extra delay per affected call.
        stall: SimDuration,
        /// How many calls the stall applies to.
        count: u32,
    },
    /// `rank` permanently loses `sms` SMs to a rogue persistent kernel,
    /// shrinking its wave width — the straggler-SM class.
    StragglerSms {
        /// The straggling rank.
        rank: usize,
        /// SMs lost for the whole run.
        sms: u32,
    },
    /// `rank`'s entire program starts `delay` late (straggler rank /
    /// host-process hiccup, beyond the modelled launch skew).
    SlowRank {
        /// The late rank.
        rank: usize,
        /// Extra launch delay on both of the rank's streams.
        delay: SimDuration,
    },
}

impl fmt::Display for Fault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Fault::DroppedIncrement { rank, group, count } => {
                write!(f, "drop {count} increments of group {group} on rank {rank}")
            }
            Fault::DelayedIncrement {
                rank,
                group,
                count,
                delay,
            } => write!(
                f,
                "delay {count} increments of group {group} on rank {rank} by {delay}"
            ),
            Fault::LinkDegradation { slowdown } => {
                write!(f, "degrade links: {slowdown:.2}x slower collectives")
            }
            Fault::InterLinkDegradation { slowdown } => {
                write!(
                    f,
                    "degrade inter-node links: {slowdown:.2}x slower node-spanning collectives"
                )
            }
            Fault::LinkStall { stall, count } => {
                write!(f, "stall next {count} collective calls by {stall}")
            }
            Fault::StragglerSms { rank, sms } => {
                write!(f, "rank {rank} loses {sms} SMs for the whole run")
            }
            Fault::SlowRank { rank, delay } => {
                write!(f, "rank {rank} launches {delay} late")
            }
        }
    }
}

/// What a [`RuntimeEvent`] says happened, as data. Emitters record the
/// numbers; the sentence is written only when something formats the
/// detail (`Display`), so a run whose log nobody reads never builds one.
#[derive(Debug, Clone, PartialEq)]
pub enum RuntimeDetail {
    /// A fault was armed for a chain segment.
    FaultArmed {
        /// The chain segment the fault belongs to.
        segment: usize,
        /// The fault.
        fault: Fault,
    },
    /// Leftover fault budget was disarmed before a segment reused an
    /// inherited counting table.
    FaultQuarantined {
        /// The segment that inherited the table.
        segment: usize,
        /// Armed faults cleared.
        cleared: usize,
        /// The inherited table.
        table: usize,
    },
    /// An armed fault dropped one tile's counter increment.
    IncrementDropped {
        /// Address-order tile whose signal was lost.
        tile: u32,
    },
    /// An armed fault delayed one tile's counter increment.
    IncrementDelayed {
        /// Address-order tile whose signal lands late.
        tile: u32,
        /// How late.
        by: SimDuration,
    },
    /// An injected link stall delayed one collective call.
    LinkStall {
        /// The stall.
        stall: SimDuration,
        /// The stalled call's id.
        call: u64,
    },
    /// The watchdog found a segment wedged: the event queue drained with
    /// its collectives still owed.
    WedgeDetected {
        /// The frontier segment.
        segment: usize,
        /// The runtime's diagnosis of the wedge.
        diagnosis: Diagnosis,
    },
    /// A deadline passed while work was still flowing; the watchdog
    /// granted extension `retry` of `max`.
    Extension {
        /// The frontier segment.
        segment: usize,
        /// Simulator events still pending.
        pending: usize,
        /// This extension's number (1-based).
        retry: u32,
        /// Extensions allowed per segment.
        max: u32,
    },
    /// A segment ran out of extensions and was marked degraded.
    DegradedFallback {
        /// The degraded segment.
        segment: usize,
    },
    /// A later segment's communication program was re-enqueued behind an
    /// upstream recovery.
    CommReenqueued {
        /// The re-enqueued segment.
        segment: usize,
        /// The recovered frontier segment.
        behind: usize,
    },
    /// A starved group was re-issued as a recovery collective.
    GroupReissued {
        /// The segment whose group was re-issued.
        segment: usize,
        /// The group.
        group: usize,
        /// Re-issued as a tail collective (`false`: as a bulk one).
        tail: bool,
    },
}

impl fmt::Display for RuntimeDetail {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RuntimeDetail::FaultArmed { segment, fault } => {
                write!(f, "segment {segment}: armed: {fault}")
            }
            RuntimeDetail::FaultQuarantined {
                segment,
                cleared,
                table,
            } => write!(
                f,
                "segment {segment}: quarantined {cleared} leftover armed fault(s) \
                 on inherited table {table}"
            ),
            RuntimeDetail::IncrementDropped { tile } => {
                write!(f, "dropped counter increment (tile {tile})")
            }
            RuntimeDetail::IncrementDelayed { tile, by } => {
                write!(f, "delayed counter increment by {by:?} (tile {tile})")
            }
            RuntimeDetail::LinkStall { stall, call } => {
                write!(f, "link stall of {stall:?} before collective call {call}")
            }
            RuntimeDetail::WedgeDetected { segment, diagnosis } => {
                write!(f, "segment {segment} wedge detected: {diagnosis}")
            }
            RuntimeDetail::Extension {
                segment,
                pending,
                retry,
                max,
            } => write!(
                f,
                "segment {segment}: deadline passed with {pending} events in flight; \
                 extension {retry}/{max}"
            ),
            RuntimeDetail::DegradedFallback { segment } => write!(
                f,
                "segment {segment} marked degraded; completing without abandoning \
                 in-flight work"
            ),
            RuntimeDetail::CommReenqueued { segment, behind } => write!(
                f,
                "segment {segment}: comm program re-enqueued behind segment {behind} recovery"
            ),
            RuntimeDetail::GroupReissued {
                segment,
                group,
                tail,
            } => {
                let what = if *tail { "tail" } else { "bulk" };
                write!(
                    f,
                    "segment {segment}: group {group} re-issued as {what} collective"
                )
            }
        }
    }
}

/// A higher layer's diagnosis of a wedge, kept as the error value it
/// is and shared by reference count with whatever else reports it.
/// Opaque here, so two diagnoses are equal when they say the same thing.
#[derive(Debug, Clone)]
pub struct Diagnosis(pub Arc<dyn Error + Send + Sync>);

impl PartialEq for Diagnosis {
    fn eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.0, &other.0) || self.0.to_string() == other.0.to_string()
    }
}

impl fmt::Display for Diagnosis {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.0.fmt(f)
    }
}

/// One fault or recovery occurrence, reported by the fault-injection
/// seams and the watchdog so telemetry can place instant events on the
/// trace timeline.
#[derive(Debug, Clone, PartialEq)]
pub struct RuntimeEvent {
    /// When the event took effect (simulated time).
    pub at: SimTime,
    /// The device the event concerns.
    pub device: DeviceId,
    /// Fault or recovery class.
    pub kind: RuntimeEventKind,
    /// The counter group concerned, when the event targets one.
    pub group: Option<usize>,
    /// What happened (cause, parameters); formats to the event's
    /// description.
    pub detail: RuntimeDetail,
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
