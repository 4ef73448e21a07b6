//! SimSan — a happens-before sanitizer for the simulated GPU.
//!
//! FlashOverlap's whole correctness story rests on one invariant: a
//! collective may read a packed tile range only after the GEMM epilogue's
//! counting-table signal (§3.2.4) ordered every write to that range before
//! the read. SimSan checks that invariant dynamically, the way
//! ThreadSanitizer or `compute-sanitizer --tool racecheck` would on real
//! hardware, but against the *modelled* accesses of the discrete-event
//! simulation.
//!
//! It attaches to a run through two hooks:
//!
//! - a [`ClusterMonitor`] (via [`Sanitizer::monitor`]) receiving every
//!   modelled memory access and synchronization edge, and
//! - an [`EngineProbe`] (via [`Sanitizer::probe`]) whose drain callback
//!   fires once the event queue empties, for end-of-run liveness checks.
//!
//! Internally it is a vector-clock happens-before checker. Each
//! `(device, stream)` pair is one logical thread. Synchronization edges
//! map onto release/acquire pairs:
//!
//! | simulated mechanism                | release point          | acquire point            |
//! |------------------------------------|------------------------|--------------------------|
//! | counting-table signal (§3.2.4)     | each slot increment    | wait-threshold satisfied |
//! | CUDA event                         | `RecordEvent`          | `WaitEvent` satisfied    |
//! | collective rendezvous              | all-arrived (join all) | same                     |
//!
//! Findings come in four kinds (see [`Finding`]): generic data races,
//! use-before-signal races (a collective send overlapping an unordered
//! tile write — the bug class the signaling design exists to prevent),
//! lost signals (a wait whose threshold the drained run never reached),
//! and deadlocks (streams that never drained).
//!
//! The checker is exact for the simulator's sequential execution: accesses
//! arrive in simulated-time order, so only the "does the old access
//! happen-before the new one" direction needs testing, with the
//! FastTrack-style epoch comparison `old.clock[old.tid] <= now[old.tid]`.
//!
//! Conflict footprints are tile-granular via the predicate shared with the
//! static verifier ([`planverify::shadow::may_conflict`]): two accesses
//! attributed to the same reordered GEMM tile conflict even when their
//! modelled element ranges are disjoint, because the epilogue stores the
//! whole tile slot as one burst — pure range intersection provably misses
//! that partial-overlap case.

use std::cell::RefCell;
use std::collections::HashMap;
use std::fmt;
use std::ops::Range;
use std::rc::Rc;

use gpu_sim::cluster::Cluster;
use gpu_sim::device::DeviceId;
use gpu_sim::memory::BufferId;
use gpu_sim::monitor::{Access, AccessKind, AccessScope, ClusterMonitor};
use gpu_sim::stream::{GpuEventId, StreamId};
use sim::{EngineProbe, SimTime};

/// Hard cap on stored findings; a single seeded bug can race every tile of
/// a group, and 64 reports diagnose it as well as 4096 would.
const FINDING_CAP: usize = 64;

/// A vector clock, indexed by thread id. Missing trailing components are
/// implicitly zero.
type VClock = Vec<u32>;

fn join(into: &mut VClock, from: &VClock) {
    if into.len() < from.len() {
        into.resize(from.len(), 0);
    }
    for (a, &b) in into.iter_mut().zip(from) {
        *a = (*a).max(b);
    }
}

fn epoch(clock: &VClock, tid: usize) -> u32 {
    clock.get(tid).copied().unwrap_or(0)
}

/// One side of a reported race.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RaceAccess {
    /// Stream the access ran on.
    pub stream: StreamId,
    /// Element range touched.
    pub range: Range<usize>,
    /// Read or write.
    pub kind: AccessKind,
    /// Producing operation class.
    pub scope: AccessScope,
}

/// One defect SimSan found.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Finding {
    /// Two unordered accesses to overlapping ranges of one buffer, at
    /// least one of them a write.
    DataRace {
        /// Device owning the buffer.
        device: DeviceId,
        /// The buffer.
        buffer: BufferId,
        /// The earlier access (simulated-time order).
        first: RaceAccess,
        /// The later access.
        second: RaceAccess,
    },
    /// A collective read a tile range with no counter edge ordering the
    /// epilogue's write before it — the missing-signal overlap bug the
    /// counting-table design exists to prevent.
    UseBeforeSignal {
        /// Device owning the packed buffer.
        device: DeviceId,
        /// The packed buffer.
        buffer: BufferId,
        /// Address-order tile index of the unordered write, when known.
        tile: Option<u32>,
        /// The tile write's element range.
        write: Range<usize>,
        /// The collective send's element range.
        read: Range<usize>,
    },
    /// A signal wait whose threshold the drained run never reached: the
    /// signal was lost (or never sent) and the waiter starved.
    LostSignal {
        /// Device owning the counting table.
        device: DeviceId,
        /// Stream of the starved waiter.
        stream: StreamId,
        /// Counting-table index.
        table: usize,
        /// Group slot waited on.
        group: usize,
        /// The threshold waited for.
        threshold: u32,
        /// The count actually reached by the end of the run.
        observed: u32,
    },
    /// A stream that never drained (one quiescence-check line).
    Deadlock {
        /// Human-readable description of the wedged stream.
        detail: String,
    },
}

impl Finding {
    /// Short kind name, for summaries.
    pub fn kind(&self) -> &'static str {
        match self {
            Finding::DataRace { .. } => "data-race",
            Finding::UseBeforeSignal { .. } => "use-before-signal",
            Finding::LostSignal { .. } => "lost-signal",
            Finding::Deadlock { .. } => "deadlock",
        }
    }
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Finding::DataRace {
                device,
                buffer,
                first,
                second,
            } => write!(
                f,
                "data race on device {device} buffer {buffer}: {:?} {:?} of {:?} on stream {} \
                 is unordered with {:?} {:?} of {:?} on stream {}",
                first.scope,
                first.kind,
                first.range,
                first.stream,
                second.scope,
                second.kind,
                second.range,
                second.stream,
            ),
            Finding::UseBeforeSignal {
                device,
                buffer,
                tile,
                write,
                read,
            } => {
                write!(
                    f,
                    "use before signal on device {device} buffer {buffer}: collective reads \
                     {read:?} with no counter edge ordering the epilogue write {write:?}"
                )?;
                if let Some(t) = tile {
                    write!(f, " (tile {t})")?;
                }
                Ok(())
            }
            Finding::LostSignal {
                device,
                stream,
                table,
                group,
                threshold,
                observed,
            } => write!(
                f,
                "lost signal on device {device} stream {stream}: wait on table {table} group \
                 {group} needs {threshold} but the run ended at {observed}"
            ),
            Finding::Deadlock { detail } => write!(f, "deadlock: {detail}"),
        }
    }
}

/// One remembered access against which later accesses are checked.
#[derive(Debug)]
struct Record {
    tid: usize,
    clock: Rc<VClock>,
    range: Range<usize>,
    kind: AccessKind,
    scope: AccessScope,
    tile: Option<u32>,
}

#[derive(Debug, Default)]
struct State {
    /// `(device, stream)` -> dense thread id.
    threads: HashMap<(DeviceId, StreamId), usize>,
    clocks: Vec<VClock>,
    /// Cached immutable snapshot of each clock, invalidated on mutation;
    /// access records share snapshots instead of cloning per access.
    snapshots: Vec<Option<Rc<VClock>>>,
    /// Release label of each recorded CUDA event.
    event_labels: HashMap<(DeviceId, GpuEventId), VClock>,
    /// Release label of each `(device, table, group)` counter slot,
    /// accumulated over its increments.
    counter_labels: HashMap<(DeviceId, usize, usize), VClock>,
    records: HashMap<(DeviceId, BufferId), Vec<Record>>,
    findings: Vec<Finding>,
    suppressed: usize,
    accesses_checked: u64,
}

impl State {
    fn tid(&mut self, device: DeviceId, stream: StreamId) -> usize {
        if let Some(&t) = self.threads.get(&(device, stream)) {
            return t;
        }
        let t = self.clocks.len();
        self.threads.insert((device, stream), t);
        let mut clock = vec![0; t + 1];
        clock[t] = 1;
        self.clocks.push(clock);
        self.snapshots.push(None);
        t
    }

    fn snapshot(&mut self, tid: usize) -> Rc<VClock> {
        if let Some(s) = &self.snapshots[tid] {
            return Rc::clone(s);
        }
        let s = Rc::new(self.clocks[tid].clone());
        self.snapshots[tid] = Some(Rc::clone(&s));
        s
    }

    /// Release: fold the thread's clock into `label`, then advance the
    /// thread's own epoch so later accesses are *not* covered by it.
    fn release_into(&mut self, tid: usize, label: VClockKey) {
        let clock = self.clocks[tid].clone();
        let slot = match label {
            VClockKey::Event(k) => self.event_labels.entry(k).or_default(),
            VClockKey::Counter(k) => self.counter_labels.entry(k).or_default(),
        };
        join(slot, &clock);
        self.clocks[tid][tid] += 1;
        self.snapshots[tid] = None;
    }

    /// Acquire: fold `label` into the thread's clock. A missing label is a
    /// no-op (e.g. a zero-threshold wait satisfied with no increments —
    /// nothing to order against).
    fn acquire_from(&mut self, tid: usize, label: VClockKey) {
        let slot = match label {
            VClockKey::Event(k) => self.event_labels.get(&k),
            VClockKey::Counter(k) => self.counter_labels.get(&k),
        };
        if let Some(label) = slot.cloned() {
            join(&mut self.clocks[tid], &label);
            self.snapshots[tid] = None;
        }
    }

    fn rendezvous(&mut self, participants: &[(DeviceId, StreamId)]) {
        let tids: Vec<usize> = participants.iter().map(|&(d, s)| self.tid(d, s)).collect();
        let mut joined = VClock::new();
        for &t in &tids {
            join(&mut joined, &self.clocks[t]);
        }
        for &t in &tids {
            let mut clock = joined.clone();
            clock[t] += 1;
            self.clocks[t] = clock;
            self.snapshots[t] = None;
        }
    }

    fn check_access(&mut self, a: &Access) {
        let tid = self.tid(a.device, a.stream);
        let snap = self.snapshot(tid);
        self.accesses_checked += 1;
        let mut found = Vec::new();
        let records = self.records.entry((a.device, a.buffer)).or_default();
        for r in records.iter() {
            // Same thread: ordered by the stream's program order.
            if r.tid == tid {
                continue;
            }
            // Conflict needs an overlap and at least one write.
            if r.kind == AccessKind::Read && a.kind == AccessKind::Read {
                continue;
            }
            // Footprint test at tile granularity (shared with the static
            // verifier): same-tile accesses conflict even when their
            // modelled sub-ranges are disjoint, because the epilogue
            // stores the whole tile slot as one burst — the sub-ranges
            // under-approximate the store's true footprint.
            if !planverify::shadow::may_conflict(
                r.tile,
                r.range.start,
                r.range.end,
                a.tile,
                a.range.start,
                a.range.end,
            ) {
                continue;
            }
            // Happens-before (epoch test): the old access is covered by the
            // new thread's clock iff its component at the old thread made
            // it across some release/acquire chain.
            if epoch(&r.clock, r.tid) <= epoch(&snap, r.tid) {
                continue;
            }
            found.push(classify(a, r));
        }
        records.push(Record {
            tid,
            clock: snap,
            range: a.range.clone(),
            kind: a.kind,
            scope: a.scope,
            tile: a.tile,
        });
        for f in found {
            self.report(f);
        }
    }

    fn report(&mut self, finding: Finding) {
        if self.findings.len() < FINDING_CAP {
            self.findings.push(finding);
        } else {
            self.suppressed += 1;
        }
    }
}

enum VClockKey {
    Event((DeviceId, GpuEventId)),
    Counter((DeviceId, usize, usize)),
}

/// A tile write racing a collective send is the signature of a dropped or
/// late signal; everything else is a generic data race.
fn classify(new: &Access, old: &Record) -> Finding {
    let pair = (old.scope, old.kind, new.scope, new.kind);
    match pair {
        (
            AccessScope::TileWrite,
            AccessKind::Write,
            AccessScope::CollectiveSend,
            AccessKind::Read,
        ) => Finding::UseBeforeSignal {
            device: new.device,
            buffer: new.buffer,
            tile: old.tile,
            write: old.range.clone(),
            read: new.range.clone(),
        },
        (
            AccessScope::CollectiveSend,
            AccessKind::Read,
            AccessScope::TileWrite,
            AccessKind::Write,
        ) => Finding::UseBeforeSignal {
            device: new.device,
            buffer: new.buffer,
            tile: new.tile,
            write: new.range.clone(),
            read: old.range.clone(),
        },
        _ => Finding::DataRace {
            device: new.device,
            buffer: new.buffer,
            first: RaceAccess {
                stream: old_stream_of(old),
                range: old.range.clone(),
                kind: old.kind,
                scope: old.scope,
            },
            second: RaceAccess {
                stream: new.stream,
                range: new.range.clone(),
                kind: new.kind,
                scope: new.scope,
            },
        },
    }
}

/// Records store thread ids, not streams; reverse-mapping them for the
/// report would need the thread table, so findings carry the tid as the
/// "stream" field of the first access. Thread ids are assigned in first-
/// touch order, which matches stream creation order in every program the
/// runtime builds, so the number is still the right diagnostic handle.
fn old_stream_of(old: &Record) -> StreamId {
    old.tid
}

#[derive(Debug, Default)]
struct Inner {
    state: RefCell<State>,
}

impl ClusterMonitor for Inner {
    fn on_access(&self, access: &Access) {
        self.state.borrow_mut().check_access(access);
    }

    fn on_counter_increment(
        &self,
        _at: SimTime,
        device: DeviceId,
        stream: StreamId,
        table: usize,
        group: usize,
        _by: u32,
    ) {
        let mut st = self.state.borrow_mut();
        let tid = st.tid(device, stream);
        st.release_into(tid, VClockKey::Counter((device, table, group)));
    }

    fn on_counter_satisfied(
        &self,
        _at: SimTime,
        device: DeviceId,
        stream: StreamId,
        table: usize,
        group: usize,
        _threshold: u32,
    ) {
        let mut st = self.state.borrow_mut();
        let tid = st.tid(device, stream);
        st.acquire_from(tid, VClockKey::Counter((device, table, group)));
    }

    fn on_event_record(&self, _at: SimTime, device: DeviceId, stream: StreamId, event: GpuEventId) {
        let mut st = self.state.borrow_mut();
        let tid = st.tid(device, stream);
        st.release_into(tid, VClockKey::Event((device, event)));
    }

    fn on_event_wait(&self, _at: SimTime, device: DeviceId, stream: StreamId, event: GpuEventId) {
        let mut st = self.state.borrow_mut();
        let tid = st.tid(device, stream);
        st.acquire_from(tid, VClockKey::Event((device, event)));
    }

    fn on_rendezvous(&self, _at: SimTime, participants: &[(DeviceId, StreamId)]) {
        self.state.borrow_mut().rendezvous(participants);
    }

    fn on_counter_reset(&self, _at: SimTime, device: DeviceId, _stream: StreamId, table: usize) {
        // Epoch boundary: a reset slot's accumulated release label
        // describes signals a previous layer/iteration consumed. A wait of
        // the new epoch must be ordered only by the new epoch's
        // increments, so the stale labels are dropped — otherwise an
        // acquire against a reused slot would inherit edges no surviving
        // signal justifies.
        self.state
            .borrow_mut()
            .counter_labels
            .retain(|&(d, t, _), _| d != device || t != table);
    }
}

impl EngineProbe<Cluster> for Inner {
    fn on_drain(&self, _now: SimTime, world: &mut Cluster) {
        let mut st = self.state.borrow_mut();
        for dev in &world.devices {
            for (table, t) in dev.counter_tables() {
                for w in t.parked_waiters() {
                    st.report(Finding::LostSignal {
                        device: dev.id,
                        stream: w.completion.stream(),
                        table,
                        group: w.group,
                        threshold: w.threshold,
                        observed: t.count(w.group),
                    });
                }
            }
        }
        if let Err(wedge) = world.check_quiescent() {
            for stream in wedge.streams {
                st.report(Finding::Deadlock {
                    detail: stream.to_string(),
                });
            }
        }
    }
}

/// The sanitizer. Create one per simulated run, attach both hooks before
/// the run, inspect [`Sanitizer::reports`] after it:
///
/// ```
/// use gpu_sim::{Cluster, ClusterSim};
/// use gpu_sim::arch::GpuArch;
/// use simsan::Sanitizer;
///
/// let sanitizer = Sanitizer::new();
/// let mut world = Cluster::new(2, GpuArch::rtx4090(), false, 1);
/// world.set_monitor(sanitizer.monitor());
/// let mut sim: ClusterSim = sim::Sim::new();
/// sim.set_probe(sanitizer.probe());
/// // ... enqueue a program, sim.run(&mut world) ...
/// assert!(sanitizer.is_clean());
/// ```
#[derive(Debug, Default)]
pub struct Sanitizer {
    inner: Rc<Inner>,
}

impl Sanitizer {
    /// Creates a fresh sanitizer with no findings.
    pub fn new() -> Self {
        Self::default()
    }

    /// The access/synchronization observer to attach with
    /// [`Cluster::set_monitor`].
    pub fn monitor(&self) -> Rc<dyn ClusterMonitor> {
        Rc::clone(&self.inner) as Rc<dyn ClusterMonitor>
    }

    /// The engine probe to attach with [`sim::Sim::set_probe`]; its drain
    /// callback performs the end-of-run lost-signal and deadlock checks.
    pub fn probe(&self) -> Rc<dyn EngineProbe<Cluster>> {
        Rc::clone(&self.inner) as Rc<dyn EngineProbe<Cluster>>
    }

    /// All findings so far, in detection order (capped; see
    /// [`Sanitizer::suppressed`]).
    pub fn reports(&self) -> Vec<Finding> {
        self.inner.state.borrow().findings.clone()
    }

    /// Whether no finding was recorded.
    pub fn is_clean(&self) -> bool {
        let st = self.inner.state.borrow();
        st.findings.is_empty() && st.suppressed == 0
    }

    /// Findings dropped beyond the storage cap.
    pub fn suppressed(&self) -> usize {
        self.inner.state.borrow().suppressed
    }

    /// Number of modelled accesses checked.
    pub fn accesses_checked(&self) -> u64 {
        self.inner.state.borrow().accesses_checked
    }

    /// One-line human-readable result, e.g. for CLI output.
    pub fn summary(&self) -> String {
        let st = self.inner.state.borrow();
        if st.findings.is_empty() && st.suppressed == 0 {
            return format!("simsan: clean ({} accesses checked)", st.accesses_checked);
        }
        let mut counts: HashMap<&'static str, usize> = HashMap::new();
        for f in &st.findings {
            *counts.entry(f.kind()).or_default() += 1;
        }
        let mut parts: Vec<String> = counts
            .into_iter()
            .map(|(k, c)| format!("{c} {k}"))
            .collect();
        parts.sort();
        let mut line = format!(
            "simsan: {} finding(s) [{}] over {} accesses",
            st.findings.len() + st.suppressed,
            parts.join(", "),
            st.accesses_checked,
        );
        if st.suppressed > 0 {
            line.push_str(&format!(" ({} suppressed)", st.suppressed));
        }
        line
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn access(
        device: DeviceId,
        stream: StreamId,
        buffer: BufferId,
        range: Range<usize>,
        kind: AccessKind,
        scope: AccessScope,
        tile: Option<u32>,
    ) -> Access {
        Access {
            device,
            stream,
            buffer,
            range,
            kind,
            scope,
            tile,
        }
    }

    #[test]
    fn unordered_write_then_read_is_a_race() {
        let s = Sanitizer::new();
        let m = s.monitor();
        m.on_access(&access(
            0,
            0,
            7,
            0..64,
            AccessKind::Write,
            AccessScope::ElementwiseWrite,
            None,
        ));
        m.on_access(&access(
            0,
            1,
            7,
            32..96,
            AccessKind::Read,
            AccessScope::RemapRead,
            None,
        ));
        let reports = s.reports();
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].kind(), "data-race");
    }

    #[test]
    fn tile_write_vs_collective_send_classifies_as_use_before_signal() {
        let s = Sanitizer::new();
        let m = s.monitor();
        m.on_access(&access(
            0,
            0,
            3,
            0..128,
            AccessKind::Write,
            AccessScope::TileWrite,
            Some(5),
        ));
        m.on_access(&access(
            0,
            1,
            3,
            0..128,
            AccessKind::Read,
            AccessScope::CollectiveSend,
            None,
        ));
        let reports = s.reports();
        assert_eq!(reports.len(), 1);
        match &reports[0] {
            Finding::UseBeforeSignal {
                tile, write, read, ..
            } => {
                assert_eq!(*tile, Some(5));
                assert_eq!(*write, 0..128);
                assert_eq!(*read, 0..128);
            }
            other => panic!("expected UseBeforeSignal, got {other:?}"),
        }
        // The reverse order (send first, tile write later — the shape a
        // dropped wait actually produces) classifies the same way.
        let s = Sanitizer::new();
        let m = s.monitor();
        m.on_access(&access(
            0,
            1,
            3,
            0..128,
            AccessKind::Read,
            AccessScope::CollectiveSend,
            None,
        ));
        m.on_access(&access(
            0,
            0,
            3,
            0..128,
            AccessKind::Write,
            AccessScope::TileWrite,
            Some(9),
        ));
        assert_eq!(s.reports()[0].kind(), "use-before-signal");
    }

    #[test]
    fn counter_edge_orders_write_before_read() {
        let s = Sanitizer::new();
        let m = s.monitor();
        m.on_access(&access(
            0,
            0,
            3,
            0..128,
            AccessKind::Write,
            AccessScope::TileWrite,
            Some(0),
        ));
        m.on_counter_increment(SimTime::ZERO, 0, 0, 0, 0, 1);
        m.on_counter_satisfied(SimTime::ZERO, 0, 1, 0, 0, 1);
        m.on_access(&access(
            0,
            1,
            3,
            0..128,
            AccessKind::Read,
            AccessScope::CollectiveSend,
            None,
        ));
        assert!(s.is_clean(), "{:?}", s.reports());
    }

    #[test]
    fn writes_after_the_increment_still_race() {
        let s = Sanitizer::new();
        let m = s.monitor();
        m.on_counter_increment(SimTime::ZERO, 0, 0, 0, 0, 1);
        m.on_counter_satisfied(SimTime::ZERO, 0, 1, 0, 0, 1);
        // This write happens after the release, so the acquire does not
        // cover it.
        m.on_access(&access(
            0,
            0,
            3,
            0..128,
            AccessKind::Write,
            AccessScope::TileWrite,
            Some(1),
        ));
        m.on_access(&access(
            0,
            1,
            3,
            0..128,
            AccessKind::Read,
            AccessScope::CollectiveSend,
            None,
        ));
        assert_eq!(s.reports().len(), 1);
    }

    #[test]
    fn event_edge_orders_streams() {
        let s = Sanitizer::new();
        let m = s.monitor();
        m.on_access(&access(
            0,
            0,
            1,
            0..8,
            AccessKind::Write,
            AccessScope::CollectiveRecv,
            None,
        ));
        m.on_event_record(SimTime::ZERO, 0, 0, 0);
        m.on_event_wait(SimTime::ZERO, 0, 1, 0);
        m.on_access(&access(
            0,
            1,
            1,
            0..8,
            AccessKind::Read,
            AccessScope::RemapRead,
            None,
        ));
        assert!(s.is_clean(), "{:?}", s.reports());
    }

    #[test]
    fn rendezvous_joins_all_participants() {
        let s = Sanitizer::new();
        let m = s.monitor();
        // Rank 0's comm stream writes, both ranks rendezvous, rank 1's
        // comm stream (same device-0 buffer would be odd — use the write
        // on device 0 read later by device 0's *other* stream, ordered
        // only through the rendezvous).
        m.on_access(&access(
            0,
            0,
            2,
            0..4,
            AccessKind::Write,
            AccessScope::ElementwiseWrite,
            None,
        ));
        m.on_rendezvous(SimTime::ZERO, &[(0, 0), (0, 1)]);
        m.on_access(&access(
            0,
            1,
            2,
            0..4,
            AccessKind::Read,
            AccessScope::RemapRead,
            None,
        ));
        assert!(s.is_clean(), "{:?}", s.reports());
    }

    #[test]
    fn per_device_buffers_never_alias() {
        let s = Sanitizer::new();
        let m = s.monitor();
        m.on_access(&access(
            0,
            0,
            5,
            0..64,
            AccessKind::Write,
            AccessScope::TileWrite,
            Some(0),
        ));
        m.on_access(&access(
            1,
            0,
            5,
            0..64,
            AccessKind::Write,
            AccessScope::TileWrite,
            Some(0),
        ));
        assert!(s.is_clean());
    }

    #[test]
    fn disjoint_ranges_do_not_conflict() {
        let s = Sanitizer::new();
        let m = s.monitor();
        m.on_access(&access(
            0,
            0,
            5,
            0..64,
            AccessKind::Write,
            AccessScope::TileWrite,
            Some(0),
        ));
        m.on_access(&access(
            0,
            1,
            5,
            64..128,
            AccessKind::Read,
            AccessScope::CollectiveSend,
            None,
        ));
        assert!(s.is_clean());
    }

    #[test]
    fn same_tile_partial_overlap_race_is_caught_by_the_tile_shadow() {
        // Regression for ROADMAP carried item b: two unordered accesses to
        // *different sub-ranges of the same tile*. The epilogue stores
        // tile 4's slot as one burst, so the collective send genuinely
        // overlaps the write — but the modelled ranges are disjoint, and
        // the old range-intersection skip would have dropped the pair:
        let (w, r) = (32..64usize, 0..32usize);
        assert!(
            w.start >= r.end || r.start >= w.end,
            "the ranges must be disjoint for this test to prove anything"
        );
        let s = Sanitizer::new();
        let m = s.monitor();
        m.on_access(&access(
            0,
            0,
            3,
            w,
            AccessKind::Write,
            AccessScope::TileWrite,
            Some(4),
        ));
        m.on_access(&access(
            0,
            1,
            3,
            r,
            AccessKind::Read,
            AccessScope::CollectiveSend,
            Some(4),
        ));
        let reports = s.reports();
        assert_eq!(reports.len(), 1, "{reports:?}");
        assert_eq!(reports[0].kind(), "use-before-signal");
        // Different tiles with the same disjoint ranges stay clean: the
        // predicate sharpens on tile identity, it does not widen.
        let s = Sanitizer::new();
        let m = s.monitor();
        m.on_access(&access(
            0,
            0,
            3,
            32..64,
            AccessKind::Write,
            AccessScope::TileWrite,
            Some(4),
        ));
        m.on_access(&access(
            0,
            1,
            3,
            0..32,
            AccessKind::Read,
            AccessScope::CollectiveSend,
            Some(5),
        ));
        assert!(s.is_clean(), "{:?}", s.reports());
    }

    #[test]
    fn findings_are_capped() {
        let s = Sanitizer::new();
        let m = s.monitor();
        m.on_access(&access(
            0,
            0,
            5,
            0..10_000,
            AccessKind::Write,
            AccessScope::TileWrite,
            None,
        ));
        for i in 0..(FINDING_CAP + 10) {
            m.on_access(&access(
                0,
                1,
                5,
                i..i + 1,
                AccessKind::Read,
                AccessScope::CollectiveSend,
                None,
            ));
        }
        assert_eq!(s.reports().len(), FINDING_CAP);
        assert_eq!(s.suppressed(), 10);
        assert!(!s.is_clean());
        assert!(s.summary().contains("suppressed"), "{}", s.summary());
    }

    #[test]
    fn reset_reused_slot_does_not_leak_stale_edges() {
        let s = Sanitizer::new();
        let m = s.monitor();
        // Epoch 1: a tile write released into the slot's label (via a later
        // increment of the same table, which folds the write's clock in).
        m.on_access(&access(
            0,
            0,
            3,
            0..128,
            AccessKind::Write,
            AccessScope::TileWrite,
            Some(0),
        ));
        m.on_counter_increment(SimTime::ZERO, 0, 0, 0, 1, 1);
        // The table is reset for reuse: accumulated labels must not survive
        // the epoch boundary.
        m.on_counter_reset(SimTime::ZERO, 0, 0, 0);
        // Epoch 2: a wait satisfied against the reused slot acquires
        // nothing, so the collective read still races the unsignalled
        // write.
        m.on_counter_satisfied(SimTime::ZERO, 0, 1, 0, 1, 1);
        m.on_access(&access(
            0,
            1,
            3,
            0..128,
            AccessKind::Read,
            AccessScope::CollectiveSend,
            None,
        ));
        assert_eq!(s.reports().len(), 1, "{:?}", s.reports());
        assert_eq!(s.reports()[0].kind(), "use-before-signal");
    }

    #[test]
    fn drain_reports_lost_signal_and_deadlock() {
        use gpu_sim::arch::GpuArch;
        use gpu_sim::stream::{enqueue, Op};
        use gpu_sim::ClusterSim;

        let s = Sanitizer::new();
        let mut world = Cluster::new(1, GpuArch::rtx4090(), false, 1);
        world.set_monitor(s.monitor());
        let mut sim: ClusterSim = sim::Sim::new();
        sim.set_probe(s.probe());
        let stream = world.devices[0].create_stream();
        let table = world.devices[0].create_counter(1);
        // A wait nobody ever signals: the queue drains with the waiter
        // parked and the stream wedged.
        enqueue(
            &mut world,
            &mut sim,
            0,
            stream,
            Op::WaitCounter {
                table,
                group: 0,
                threshold: 3,
            },
        );
        sim.run(&mut world).unwrap();
        let kinds: Vec<&str> = s.reports().iter().map(Finding::kind).collect();
        assert!(kinds.contains(&"lost-signal"), "{kinds:?}");
        assert!(kinds.contains(&"deadlock"), "{kinds:?}");
        match &s.reports()[0] {
            Finding::LostSignal {
                threshold,
                observed,
                ..
            } => {
                assert_eq!(*threshold, 3);
                assert_eq!(*observed, 0);
            }
            other => panic!("expected LostSignal first, got {other:?}"),
        }
    }

    #[test]
    fn summary_reads_clean_on_a_clean_run() {
        let s = Sanitizer::new();
        let m = s.monitor();
        m.on_access(&access(
            0,
            0,
            1,
            0..4,
            AccessKind::Write,
            AccessScope::TileWrite,
            None,
        ));
        assert!(s.summary().starts_with("simsan: clean"));
        assert_eq!(s.accesses_checked(), 1);
    }

    #[test]
    fn findings_render_human_readable() {
        let f = Finding::LostSignal {
            device: 1,
            stream: 2,
            table: 0,
            group: 3,
            threshold: 16,
            observed: 12,
        };
        let text = f.to_string();
        assert!(text.contains("device 1"), "{text}");
        assert!(text.contains("needs 16"), "{text}");
    }
}
