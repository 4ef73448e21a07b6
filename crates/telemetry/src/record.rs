//! The telemetry recorder: a [`ClusterMonitor`] + engine probe pair that
//! captures the full causal record of a simulated run — counting-table
//! increments, released waits, rendezvous points, per-link transfer
//! intervals, and SM-occupancy changes — for the metrics and exporters
//! in this crate to derive from.

use std::cell::RefCell;
use std::ops::Range;
use std::rc::Rc;

use flashoverlap::runtime::Instrumentation;
use gpu_sim::monitor::{ClusterMonitor, LinkTransfer};
use gpu_sim::stream::GpuEventId;
use gpu_sim::{Cluster, DeviceId, StreamId};
use sim::{EngineProbe, SimTime};

/// One counting-table increment, as the simulator reported it: a whole
/// same-group run of a wave's tiles lands as one row, a delayed tile as
/// its own `by = 1` row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IncrementEvent {
    /// When the increment landed.
    pub at: SimTime,
    /// Device owning the counting table.
    pub device: DeviceId,
    /// Stream of the incrementing kernel.
    pub stream: StreamId,
    /// Counting table index.
    pub table: usize,
    /// Wave group slot.
    pub group: usize,
    /// Tiles landed in this group run (the increment amount).
    pub by: u32,
}

/// One signal wait crossing its threshold (the moment a blocked
/// communication stream is released).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WaitSatisfied {
    /// When the wait was released.
    pub at: SimTime,
    /// Device of the waiting stream.
    pub device: DeviceId,
    /// The waiting stream (the communication stream).
    pub stream: StreamId,
    /// Counting table index.
    pub table: usize,
    /// Wave group slot.
    pub group: usize,
    /// The threshold that was met.
    pub threshold: u32,
}

/// A collective rendezvous: the instant the last participant arrived.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RendezvousEvent {
    /// When the last participant arrived.
    pub at: SimTime,
    /// Where the participating (device, stream) pairs sit in the record's
    /// participant arena (read them with
    /// [`TelemetryRecord::participants`]).
    pub participants: Range<usize>,
}

/// A point sample of one device's SM allocation (totals *after* the
/// change that triggered the sample).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OccupancySample {
    /// Sample time.
    pub at: SimTime,
    /// Sampled device.
    pub device: DeviceId,
    /// SMs held by compute kernels.
    pub compute_sms: u32,
    /// SMs held by communication kernels.
    pub comm_sms: u32,
}

/// Everything the recorder captured from one run, in arrival order.
#[derive(Debug, Default, Clone)]
pub struct TelemetryRecord {
    /// Counting-table increments.
    pub increments: Vec<IncrementEvent>,
    /// Released signal waits.
    pub satisfied: Vec<WaitSatisfied>,
    /// Collective rendezvous points.
    pub rendezvous: Vec<RendezvousEvent>,
    /// Every rendezvous' participants, back to back: one arena instead
    /// of a list per collective.
    pub rendezvous_participants: Vec<(DeviceId, StreamId)>,
    /// Per-link transfer intervals (`end` may lie in the future of the
    /// emission time: transfers are recorded when scheduled).
    pub transfers: Vec<LinkTransfer>,
    /// SM-occupancy samples.
    pub occupancy: Vec<OccupancySample>,
    /// GPU event records/waits, kept for completeness: `(at, device,
    /// stream, event, is_wait)`.
    pub gpu_events: Vec<(SimTime, DeviceId, StreamId, GpuEventId, bool)>,
    /// Fault-injection and watchdog-recovery occurrences, in arrival
    /// order (the recovery timeline of a resilient run).
    pub runtime_events: Vec<gpu_sim::RuntimeEvent>,
    /// When the engine last drained its queue (end of run).
    pub drained_at: Option<SimTime>,
}

impl TelemetryRecord {
    /// Clears every buffer while keeping the allocations, so a serving
    /// loop can recycle one record's capacity across chains instead of
    /// re-growing the per-event vectors from zero each time.
    pub fn clear(&mut self) {
        let TelemetryRecord {
            increments,
            satisfied,
            rendezvous,
            rendezvous_participants,
            transfers,
            occupancy,
            gpu_events,
            runtime_events,
            drained_at,
        } = self;
        increments.clear();
        satisfied.clear();
        rendezvous.clear();
        rendezvous_participants.clear();
        transfers.clear();
        occupancy.clear();
        gpu_events.clear();
        runtime_events.clear();
        *drained_at = None;
    }

    /// The participating (device, stream) pairs of `event`, one of this
    /// record's rendezvous.
    ///
    /// # Panics
    ///
    /// Panics if `event` is not from this record.
    pub fn participants(&self, event: &RendezvousEvent) -> &[(DeviceId, StreamId)] {
        &self.rendezvous_participants[event.participants.clone()]
    }
}

#[derive(Default)]
struct Inner {
    state: RefCell<TelemetryRecord>,
}

impl ClusterMonitor for Inner {
    fn observes_accesses(&self) -> bool {
        false
    }

    fn on_counter_increment(
        &self,
        at: SimTime,
        device: DeviceId,
        stream: StreamId,
        table: usize,
        group: usize,
        by: u32,
    ) {
        self.state.borrow_mut().increments.push(IncrementEvent {
            at,
            device,
            stream,
            table,
            group,
            by,
        });
    }

    fn on_counter_satisfied(
        &self,
        at: SimTime,
        device: DeviceId,
        stream: StreamId,
        table: usize,
        group: usize,
        threshold: u32,
    ) {
        self.state.borrow_mut().satisfied.push(WaitSatisfied {
            at,
            device,
            stream,
            table,
            group,
            threshold,
        });
    }

    fn on_event_record(&self, at: SimTime, device: DeviceId, stream: StreamId, event: GpuEventId) {
        self.state
            .borrow_mut()
            .gpu_events
            .push((at, device, stream, event, false));
    }

    fn on_event_wait(&self, at: SimTime, device: DeviceId, stream: StreamId, event: GpuEventId) {
        self.state
            .borrow_mut()
            .gpu_events
            .push((at, device, stream, event, true));
    }

    fn on_rendezvous(&self, at: SimTime, participants: &[(DeviceId, StreamId)]) {
        let mut state = self.state.borrow_mut();
        let start = state.rendezvous_participants.len();
        state
            .rendezvous_participants
            .extend_from_slice(participants);
        let end = state.rendezvous_participants.len();
        state.rendezvous.push(RendezvousEvent {
            at,
            participants: start..end,
        });
    }

    fn on_link_transfer(&self, transfer: &LinkTransfer) {
        self.state.borrow_mut().transfers.push(*transfer);
    }

    fn on_sm_occupancy(&self, at: SimTime, device: DeviceId, compute_sms: u32, comm_sms: u32) {
        self.state.borrow_mut().occupancy.push(OccupancySample {
            at,
            device,
            compute_sms,
            comm_sms,
        });
    }

    fn on_runtime_event(&self, event: &gpu_sim::RuntimeEvent) {
        // Structured, so the clone copies numbers (and at most bumps a
        // wedge diagnosis' reference count); nothing is formatted.
        self.state.borrow_mut().runtime_events.push(event.clone());
    }
}

impl EngineProbe<Cluster> for Inner {
    fn on_drain(&self, now: SimTime, _world: &mut Cluster) {
        self.state.borrow_mut().drained_at = Some(now);
    }
}

/// A telemetry recording session. Attach [`Telemetry::monitor`] to the
/// cluster and [`Telemetry::probe`] to the engine (or pass
/// [`Telemetry::instrumentation`] to an instrumented entry point), run,
/// then harvest with [`Telemetry::take_record`].
pub struct Telemetry {
    inner: Rc<Inner>,
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let state = self.inner.state.borrow();
        f.debug_struct("Telemetry")
            .field("increments", &state.increments.len())
            .field("satisfied", &state.satisfied.len())
            .field("transfers", &state.transfers.len())
            .finish_non_exhaustive()
    }
}

impl Default for Telemetry {
    fn default() -> Self {
        Telemetry::new()
    }
}

impl Telemetry {
    /// A fresh, empty recording session.
    pub fn new() -> Self {
        Telemetry {
            inner: Rc::new(Inner::default()),
        }
    }

    /// A recording session that reuses `scratch`'s buffer capacity (its
    /// contents are cleared). Pair with [`Telemetry::take_record`] to
    /// ping-pong one allocation through a long run of short sessions —
    /// the replica-engine hot path attaches a recorder per chain.
    pub fn recycling(mut scratch: TelemetryRecord) -> Self {
        scratch.clear();
        Telemetry {
            inner: Rc::new(Inner {
                state: RefCell::new(scratch),
            }),
        }
    }

    /// The cluster-side observer.
    pub fn monitor(&self) -> Rc<dyn ClusterMonitor> {
        Rc::clone(&self.inner) as Rc<dyn ClusterMonitor>
    }

    /// The engine-side probe (records the drain time).
    pub fn probe(&self) -> Rc<dyn EngineProbe<Cluster>> {
        Rc::clone(&self.inner) as Rc<dyn EngineProbe<Cluster>>
    }

    /// Both hooks bundled for the instrumented runtime entry points (no
    /// signal mutation).
    pub fn instrumentation(&self) -> Instrumentation {
        Instrumentation {
            monitor: Some(self.monitor()),
            probe: Some(self.probe()),
            mutation: None,
        }
    }

    /// Drains and returns everything recorded so far, resetting the
    /// session.
    pub fn take_record(&self) -> TelemetryRecord {
        self.inner.state.take()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_group_run_records_one_bulk_row_that_traces_as_unit_steps() {
        let (bulk, unit) = (Telemetry::new(), Telemetry::new());
        let at = SimTime::from_nanos(250);
        bulk.monitor().on_counter_increment(at, 1, 2, 3, 4, 5);
        for _ in 0..5 {
            unit.monitor().on_counter_increment(at, 1, 2, 3, 4, 1);
        }
        let (bulk, unit) = (bulk.take_record(), unit.take_record());
        let row = IncrementEvent {
            at,
            device: 1,
            stream: 2,
            table: 3,
            group: 4,
            by: 5,
        };
        assert_eq!(bulk.increments, vec![row], "one row per run");
        assert_eq!(
            crate::perfetto::trace(&[], Some(&bulk)),
            crate::perfetto::trace(&[], Some(&unit)),
            "the counter track steps once per tile"
        );
    }

    #[test]
    fn rendezvous_participants_share_one_arena() {
        let telemetry = Telemetry::new();
        let monitor = telemetry.monitor();
        monitor.on_rendezvous(SimTime::from_nanos(5), &[(0, 1), (1, 1)]);
        monitor.on_rendezvous(SimTime::from_nanos(9), &[]);
        monitor.on_rendezvous(SimTime::from_nanos(9), &[(2, 0), (3, 0), (1, 2)]);
        let mut record = telemetry.take_record();
        assert_eq!(record.rendezvous.len(), 3);
        let lists: Vec<&[(DeviceId, StreamId)]> = record
            .rendezvous
            .iter()
            .map(|r| record.participants(r))
            .collect();
        assert_eq!(
            lists,
            [&[(0, 1), (1, 1)][..], &[], &[(2, 0), (3, 0), (1, 2)]]
        );
        assert_eq!(record.rendezvous_participants.len(), 5);
        record.clear();
        assert!(record.rendezvous.is_empty() && record.rendezvous_participants.is_empty());
        assert!(
            record.rendezvous_participants.capacity() >= 5,
            "clear keeps the arena"
        );
    }
}
