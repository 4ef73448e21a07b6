//! One linear index over a chain's spans and causal record.
//!
//! Every join the chain analyses make is answered here: the signal
//! latency (wait → releasing increment → group collective), the
//! critical-path walk (stream predecessors, wait → release, event wait →
//! event record) and the Perfetto flow arrows. [`ChainIndex::rebuild`]
//! distributes each row kind over buckets by its join key in one linear
//! pass (the placement step of a counting sort, each bucket a buffer the
//! index keeps), so a serve replica that owns one index re-indexes every
//! chain without allocating once its buffers are warm:
//!
//! - spans by (device, stream), each stream in (end, start) order;
//! - released waits and event waits by (device, stream), by time;
//! - event records by (device, event id), by time;
//! - increments by (device, table, group), by time;
//! - group-tagged collectives by (device, stream, group), by start.
//!
//! A table keeps its key layout from one chain to the next, so chains on
//! one system take the single pass; a key outside the layout lays the
//! table out afresh. The recorder and the span log append in
//! simulated-time order, so a bucket fills in order and is only checked
//! as it fills. A bucket out of order (a hand-built record) is
//! stable-sorted, so rows at one instant keep record order: every lookup
//! below is a binary search inside one bucket whose tie-breaks are those
//! of a full scan taking the last of the latest rows. Ids too sparse for
//! a dense layout (again, hand-built) are numbered by rank instead.

use std::cell::RefCell;

use gpu_sim::{DeviceId, GpuEventId, OpSpan, SpanMeta, StreamId};
use sim::SimTime;

use crate::attribution::{Attribution, Segment};
use crate::metrics::SignalSample;
use crate::record::{IncrementEvent, TelemetryRecord, WaitSatisfied};

/// The most buckets a dense layout may have for `rows` rows: past it, a
/// table numbers its keys by rank instead.
fn dense_limit(rows: usize) -> usize {
    rows.saturating_mul(4).saturating_add(1024)
}

/// The most buckets a kept layout may have for `rows` rows: past it, the
/// table is laid out afresh, so per-bucket work stays in step with the
/// rows.
fn snug_limit(rows: usize) -> usize {
    rows.saturating_mul(2).saturating_add(16)
}

/// Rows bucketed by an `N`-part key, each bucket a kept buffer holding
/// its rows in fill order.
#[derive(Debug)]
struct Table<const N: usize, T> {
    /// The buckets: the first `used` are the layout's, the rest spares
    /// that keep their capacity for a wider layout.
    buckets: Vec<Vec<T>>,
    used: usize,
    /// One past the largest id in each key part: the dense layout's shape.
    bound: [usize; N],
    /// The distinct keys, sorted, when too sparse for the dense layout;
    /// a key's bucket is then its rank. Empty in the dense layout.
    ranked: Vec<[usize; N]>,
}

impl<const N: usize, T> Default for Table<N, T> {
    fn default() -> Self {
        Table {
            buckets: Vec::new(),
            used: 0,
            bound: [0; N],
            ranked: Vec::new(),
        }
    }
}

impl<const N: usize, T: Copy> Table<N, T> {
    /// Re-buckets `rows()` by key, each bucket in `order`, ties in the
    /// order `rows()` yields them. `rows()` must yield the same rows each
    /// time: it is walked once when the keys fit the layout the last fill
    /// left (the next chain on the same system), three or four times when
    /// the table is laid out afresh.
    fn fill<I, O: Ord>(&mut self, rows: impl Fn() -> I, order: impl Fn(&T) -> O)
    where
        I: Iterator<Item = ([usize; N], T)>,
    {
        let sorted = match self.distribute(&rows, &order, snug_limit) {
            Some(sorted) => sorted,
            None => {
                self.lay_out(&rows);
                // Every key has a bucket now, in a layout within the limit.
                self.distribute(&rows, &order, dense_limit).unwrap_or(false)
            }
        };
        // Each row was checked against the one before it in its bucket. If
        // one came earlier, the buckets are stable-sorted, so rows at one
        // instant keep the order they came in.
        if !sorted {
            for bucket in self.used_buckets_mut() {
                bucket.sort_by_key(&order);
            }
        }
    }

    /// Appends each row to its key's bucket under the current layout and
    /// returns whether every bucket stayed in `order`. `None` if a key has
    /// no bucket in the layout, or a dense layout has more buckets than
    /// `limit` allows the rows.
    fn distribute<I, O: Ord>(
        &mut self,
        rows: &impl Fn() -> I,
        order: &impl Fn(&T) -> O,
        limit: fn(usize) -> usize,
    ) -> Option<bool>
    where
        I: Iterator<Item = ([usize; N], T)>,
    {
        let dense = self.ranked.is_empty();
        self.used = if dense {
            self.bound.iter().product()
        } else {
            self.ranked.len()
        };
        if self.buckets.len() < self.used {
            self.buckets.resize_with(self.used, Vec::new);
        }
        for bucket in self.used_buckets_mut() {
            bucket.clear();
        }
        let (mut n, mut sorted) = (0usize, true);
        for (key, row) in rows() {
            let s = self.slot(key)?;
            let bucket = &mut self.buckets[s];
            if let Some(last) = bucket.last() {
                sorted &= order(last) <= order(&row);
            }
            bucket.push(row);
            n += 1;
        }
        (!dense || self.used <= limit(n)).then_some(sorted)
    }

    /// Lays the table out for `rows()`' keys: dense under the wider of the
    /// last bound and theirs when that stays snug, else dense under
    /// theirs when small enough for the rows, else (ids too sparse) by
    /// rank.
    fn lay_out<I>(&mut self, rows: &impl Fn() -> I)
    where
        I: Iterator<Item = ([usize; N], T)>,
    {
        let (mut fresh, mut n) = ([0; N], 0usize);
        for (key, _) in rows() {
            for (b, k) in fresh.iter_mut().zip(&key) {
                *b = (*b).max(k.saturating_add(1));
            }
            n += 1;
        }
        let mut wide = self.bound;
        for (w, f) in wide.iter_mut().zip(&fresh) {
            *w = (*w).max(*f);
        }
        let slots =
            |bound: &[usize; N]| bound.iter().try_fold(1usize, |acc, &b| acc.checked_mul(b));
        self.ranked.clear();
        if slots(&wide).is_some_and(|s| s <= snug_limit(n)) {
            self.bound = wide;
        } else if slots(&fresh).is_some_and(|s| s <= dense_limit(n)) {
            self.bound = fresh;
        } else {
            self.bound = [0; N];
            self.ranked.extend(rows().map(|(key, _)| key));
            self.ranked.sort_unstable();
            self.ranked.dedup();
        }
    }

    fn used_buckets(&self) -> &[Vec<T>] {
        &self.buckets[..self.used]
    }

    fn used_buckets_mut(&mut self) -> &mut [Vec<T>] {
        &mut self.buckets[..self.used]
    }

    /// The bucket of `key` in the current layout, if it has one.
    fn slot(&self, key: [usize; N]) -> Option<usize> {
        if !self.ranked.is_empty() {
            return self.ranked.binary_search(&key).ok();
        }
        let mut slot = 0;
        for (&k, &b) in key.iter().zip(&self.bound) {
            if k >= b {
                return None;
            }
            slot = slot * b + k;
        }
        Some(slot)
    }

    /// `key`'s rows (empty if none has it).
    fn bucket(&self, key: [usize; N]) -> &[T] {
        self.slot(key)
            .and_then(|s| self.used_buckets().get(s))
            .map_or(&[], Vec::as_slice)
    }
}

/// The last of `rows` (sorted by `at`) at or before `hi`, if it is at or
/// after `lo`: the latest row in `[lo, hi]`, and of rows at that instant
/// the last.
fn latest_within<T>(rows: &[T], at: impl Fn(&T) -> SimTime, lo: u64, hi: u64) -> Option<&T> {
    let upto = rows.partition_point(|r| at(r).as_nanos() <= hi);
    rows[..upto].last().filter(|r| at(r).as_nanos() >= lo)
}

thread_local! {
    /// The index behind the one-off analyses ([`crate::signal_summary`],
    /// [`crate::attribute_makespan`], the Perfetto flow arrows), kept per
    /// thread so that a caller analysing chain after chain through them
    /// reuses its buffers too.
    static SHARED: RefCell<ChainIndex> = RefCell::new(ChainIndex::new());
}

/// Runs `f` on this thread's shared index, or on a fresh one if a caller
/// up the stack holds it.
fn with_shared<R>(f: impl FnOnce(&mut ChainIndex) -> R) -> R {
    SHARED.with(|shared| match shared.try_borrow_mut() {
        Ok(mut index) => f(&mut index),
        Err(_) => f(&mut ChainIndex::new()),
    })
}

/// Runs `f` on an index of `record` and `spans`.
pub(crate) fn with_chain_index<R>(
    record: &TelemetryRecord,
    spans: &[OpSpan],
    f: impl FnOnce(&mut ChainIndex) -> R,
) -> R {
    with_shared(|index| {
        index.rebuild(record, spans);
        f(index)
    })
}

/// Runs `f` on an index of `record` and `spans` that answers only the
/// signal joins ([`ChainIndex::signal_samples`],
/// [`ChainIndex::releasing_increment`], [`ChainIndex::collective_after`]).
pub(crate) fn with_signal_index<R>(
    record: &TelemetryRecord,
    spans: &[OpSpan],
    f: impl FnOnce(&ChainIndex) -> R,
) -> R {
    with_shared(|index| {
        index.index_signals(record, spans);
        f(index)
    })
}

/// Where a walked node sits: its stream's bucket and its position there.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct NodeAt {
    stream: usize,
    pos: usize,
}

/// A span reduced to nanosecond bounds for the attribution walk.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Node {
    pub(crate) device: DeviceId,
    pub(crate) stream: StreamId,
    pub(crate) name: &'static str,
    pub(crate) start: u64,
    pub(crate) end: u64,
    /// Position among the walked spans: the last tie-break everywhere.
    pub(crate) idx: usize,
    /// The earliest start of this node and every later node on its
    /// stream.
    pub(crate) min_start: u64,
}

/// The joins of one chain's analyses, rebuilt per chain into kept
/// buffers (see the [module docs](self)).
#[derive(Debug, Default)]
pub struct ChainIndex {
    /// The record's released waits in record order: the signal samples'
    /// order.
    satisfied: Vec<WaitSatisfied>,
    /// Increments by (device, table, group), by time.
    increments: Table<3, IncrementEvent>,
    /// Group-tagged collective starts by (device, stream, group).
    collectives: Table<3, SimTime>,
    /// Walked spans (positive length, no callbacks) by (device, stream),
    /// by (end, start).
    nodes: Table<2, Node>,
    /// Released waits by (device, stream), by time.
    waits: Table<2, WaitSatisfied>,
    /// Event waits `(at, event)` by (device, stream), by time.
    event_waits: Table<2, (SimTime, GpuEventId)>,
    /// Event records `(at, stream)` by (device, event id), by time.
    event_records: Table<2, (SimTime, StreamId)>,
    /// The attribution walk's segments, latest first.
    segments: Vec<Segment>,
}

impl ChainIndex {
    /// An empty index; its buffers grow on the first rebuild.
    pub fn new() -> Self {
        ChainIndex::default()
    }

    /// Re-indexes the index for one chain's `record` and `spans`.
    pub fn rebuild(&mut self, record: &TelemetryRecord, spans: &[OpSpan]) {
        self.index_signals(record, spans);
        // Zero-length ops (callbacks, counter resets, immediate event
        // records) occupy no stream time and only stall the walk; the
        // record-event edges they represent are joined through
        // `record.gpu_events` instead.
        self.nodes.fill(
            || {
                spans
                    .iter()
                    .filter(|s| s.end > s.start && s.name != "callback")
                    .enumerate()
                    .map(|(idx, s)| {
                        let node = Node {
                            device: s.device,
                            stream: s.stream,
                            name: s.name,
                            start: s.start.as_nanos(),
                            end: s.end.as_nanos(),
                            idx,
                            min_start: 0,
                        };
                        ([s.device, s.stream], node)
                    })
            },
            |n| (n.end, n.start),
        );
        for stream in self.nodes.used_buckets_mut() {
            let mut min_start = u64::MAX;
            for n in stream.iter_mut().rev() {
                min_start = min_start.min(n.start);
                n.min_start = min_start;
            }
        }
        self.waits.fill(
            || record.satisfied.iter().map(|w| ([w.device, w.stream], *w)),
            |w| w.at,
        );
        let events = &record.gpu_events;
        self.event_waits.fill(
            || {
                events
                    .iter()
                    .filter(|e| e.4)
                    .map(|&(at, device, stream, event, _)| ([device, stream], (at, event)))
            },
            |&(at, _)| at,
        );
        self.event_records.fill(
            || {
                events
                    .iter()
                    .filter(|e| !e.4)
                    .map(|&(at, device, stream, event, _)| ([device, event], (at, stream)))
            },
            |&(at, _)| at,
        );
    }

    fn index_signals(&mut self, record: &TelemetryRecord, spans: &[OpSpan]) {
        self.satisfied.clear();
        self.satisfied.extend_from_slice(&record.satisfied);
        self.increments.fill(
            || {
                record
                    .increments
                    .iter()
                    .map(|inc| ([inc.device, inc.table, inc.group], *inc))
            },
            |inc| inc.at,
        );
        self.collectives.fill(
            || {
                spans.iter().filter_map(|s| match s.meta {
                    SpanMeta::Collective {
                        group: Some(group), ..
                    } => Some(([s.device, s.stream, group], s.start)),
                    _ => None,
                })
            },
            |&start| start,
        );
    }

    /// The increment that released `wait`: the latest row on the wait's
    /// `(device, table, group)` slot at or before the release, and of
    /// rows at that same instant the last in record order.
    pub fn releasing_increment(&self, wait: &WaitSatisfied) -> Option<&IncrementEvent> {
        let slot = self
            .increments
            .bucket([wait.device, wait.table, wait.group]);
        slot[..slot.partition_point(|inc| inc.at <= wait.at)].last()
    }

    /// The earliest start of `wait`'s group collective on the waiting
    /// stream at or after the release.
    pub fn collective_after(&self, wait: &WaitSatisfied) -> Option<SimTime> {
        let starts = self
            .collectives
            .bucket([wait.device, wait.stream, wait.group]);
        starts
            .get(starts.partition_point(|&s| s < wait.at))
            .copied()
    }

    /// One signal-latency sample per released wait, in record order:
    /// releasing increment → release → group collective launch, each leg
    /// 0 when its join finds nothing.
    pub fn signal_samples(&self) -> impl Iterator<Item = SignalSample> + '_ {
        self.satisfied.iter().map(|ws| {
            let increment_to_release_ns = self
                .releasing_increment(ws)
                .map_or(0, |inc| (ws.at - inc.at).as_nanos());
            let release_to_collective_ns = self
                .collective_after(ws)
                .map_or(0, |start| (start - ws.at).as_nanos());
            SignalSample {
                device: ws.device,
                group: ws.group,
                increment_to_release_ns,
                release_to_collective_ns,
                total_ns: increment_to_release_ns + release_to_collective_ns,
            }
        })
    }

    /// The samples' summed `total_ns` and their count, the sum as the f64
    /// `mean_total_ns * samples` of [`crate::signal_summary`]: `(0.0, 0)`
    /// without samples. Folded with no sample list and no sort; bit-equal
    /// to the summary's product while the integer sum stays below 2^53,
    /// where every partial f64 sum of the samples is exact.
    pub fn signal_sum(&self) -> (f64, u64) {
        let (sum, count) = self.signal_samples().fold((0u64, 0u64), |(sum, count), s| {
            (sum + s.total_ns, count + 1)
        });
        if count == 0 {
            return (0.0, 0);
        }
        let n = count as f64;
        (sum as f64 / n * n, count)
    }

    /// Attributes the indexed chain against `makespan_ns` (see
    /// [`crate::attribution::attribute_makespan`]). Allocates only the
    /// returned segments, once the index is warm.
    pub fn attribute(&mut self, makespan_ns: u64) -> Attribution {
        let mut segments = std::mem::take(&mut self.segments);
        let attribution = crate::attribution::walk(self, &mut segments, makespan_ns);
        self.segments = segments;
        attribution
    }

    /// The walked node at `at`.
    pub(crate) fn node(&self, at: NodeAt) -> Node {
        self.nodes.buckets[at.stream][at.pos]
    }

    /// How many nodes the walk can visit.
    pub(crate) fn node_count(&self) -> usize {
        self.nodes.used_buckets().iter().map(Vec::len).sum()
    }

    /// The node the walk starts from: the latest to end at or before
    /// `cursor`, ties to the lowest device, then the greatest (start,
    /// idx). Each stream's candidate is its last node ending by then.
    pub(crate) fn last_ending(&self, cursor: u64) -> Option<NodeAt> {
        let streams = self.nodes.used_buckets();
        streams
            .iter()
            .enumerate()
            .filter_map(|(stream, nodes)| {
                let upto = nodes.partition_point(|n| n.end <= cursor);
                upto.checked_sub(1).map(|pos| NodeAt { stream, pos })
            })
            .max_by_key(|at| {
                let n = &streams[at.stream][at.pos];
                (n.end, std::cmp::Reverse(n.device), n.start, n.idx)
            })
    }

    /// Stream `(device, stream)`'s bucket and nodes.
    fn stream(&self, device: DeviceId, stream: StreamId) -> (usize, &[Node]) {
        let slot = self.nodes.slot([device, stream]);
        let nodes = slot.and_then(|s| self.nodes.used_buckets().get(s));
        (slot.unwrap_or(0), nodes.map_or(&[], Vec::as_slice))
    }

    /// Latest node on `(device, stream)` fully before the cursor: the
    /// greatest (end, start, idx) with end <= cursor (and so start <
    /// cursor, since every node has end > start).
    pub(crate) fn pred(&self, device: DeviceId, stream: StreamId, cursor: u64) -> Option<NodeAt> {
        let (slot, nodes) = self.stream(device, stream);
        let first = nodes.partition_point(|n| n.end <= cursor);
        first.checked_sub(1).map(|pos| NodeAt { stream: slot, pos })
    }

    /// Node on `(device, stream)` containing `t` (greatest (start, idx)
    /// with start <= t < end), else the latest before it. The scan
    /// forward from the first node ending after `t` stops once
    /// `min_start` passes `t`: no later node can contain it.
    pub(crate) fn containing(&self, device: DeviceId, stream: StreamId, t: u64) -> Option<NodeAt> {
        let (slot, nodes) = self.stream(device, stream);
        let first = nodes.partition_point(|n| n.end <= t);
        let pos = nodes[first..]
            .iter()
            .enumerate()
            .take_while(|(_, n)| n.min_start <= t)
            .filter(|(_, n)| n.start <= t)
            .max_by_key(|(_, n)| (n.start, n.idx))
            .map(|(k, _)| first + k)
            .or_else(|| first.checked_sub(1))?;
        Some(NodeAt { stream: slot, pos })
    }

    /// The latest wait released on `node`'s stream inside
    /// `[node.start, cursor]`.
    pub(crate) fn release_within(&self, node: &Node, cursor: u64) -> Option<&WaitSatisfied> {
        let waits = self.waits.bucket([node.device, node.stream]);
        latest_within(waits, |w| w.at, node.start, cursor)
    }

    /// The latest event wait `(at, event)` on `node`'s stream inside
    /// `[node.start, cursor]`.
    pub(crate) fn event_wait_within(
        &self,
        node: &Node,
        cursor: u64,
    ) -> Option<(SimTime, GpuEventId)> {
        let waits = self.event_waits.bucket([node.device, node.stream]);
        latest_within(waits, |&(at, _)| at, node.start, cursor).copied()
    }

    /// The latest record `(at, stream)` of `device`'s `event` at or
    /// before `at`. Event ids are per device, so another rank's record
    /// of the same id never matches.
    pub(crate) fn event_record(
        &self,
        device: DeviceId,
        event: GpuEventId,
        at: SimTime,
    ) -> Option<(SimTime, StreamId)> {
        let records = self.event_records.bucket([device, event]);
        records[..records.partition_point(|&(rat, _)| rat <= at)]
            .last()
            .copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn inc(at: u64, stream: StreamId, group: usize) -> IncrementEvent {
        IncrementEvent {
            at: SimTime::from_nanos(at),
            device: 0,
            stream,
            table: 0,
            group,
            by: 1,
        }
    }

    fn wait(at: u64, group: usize) -> WaitSatisfied {
        WaitSatisfied {
            at: SimTime::from_nanos(at),
            device: 0,
            stream: 9,
            table: 0,
            group,
            threshold: 1,
        }
    }

    #[test]
    fn releasing_increment_takes_the_latest_row_on_the_slot() {
        let record = TelemetryRecord {
            // Out of time order; rows 1 and 3 tie at 200 on group 0.
            increments: vec![
                inc(300, 0, 0),
                inc(200, 1, 0),
                inc(100, 0, 1),
                inc(200, 2, 0),
            ],
            ..TelemetryRecord::default()
        };
        let mut index = ChainIndex::new();
        index.rebuild(&record, &[]);
        assert_eq!(
            index.releasing_increment(&wait(250, 0)),
            Some(&record.increments[3])
        );
        assert_eq!(
            index.releasing_increment(&wait(300, 0)),
            Some(&record.increments[0])
        );
        assert_eq!(index.releasing_increment(&wait(150, 0)), None);
        assert_eq!(
            index.releasing_increment(&wait(999, 1)),
            Some(&record.increments[2])
        );
        assert_eq!(index.releasing_increment(&wait(999, 2)), None);
    }

    #[test]
    fn sparse_ids_are_ranked_not_laid_out_densely() {
        let far = usize::MAX - 1;
        let record = TelemetryRecord {
            increments: vec![
                IncrementEvent {
                    device: far,
                    ..inc(100, 0, far)
                },
                inc(50, 0, 3),
            ],
            ..TelemetryRecord::default()
        };
        let mut index = ChainIndex::new();
        index.rebuild(&record, &[]);
        assert_eq!(index.increments.ranked.len(), 2);
        let far_wait = WaitSatisfied {
            device: far,
            ..wait(100, far)
        };
        assert_eq!(
            index.releasing_increment(&far_wait),
            Some(&record.increments[0])
        );
        assert_eq!(
            index.releasing_increment(&wait(60, 3)),
            Some(&record.increments[1])
        );
        assert_eq!(index.releasing_increment(&wait(60, 4)), None);
    }

    #[test]
    fn a_rebuild_forgets_the_previous_chain() {
        let mut index = ChainIndex::new();
        let first = TelemetryRecord {
            increments: vec![inc(10, 0, 5)],
            satisfied: vec![wait(20, 5)],
            ..TelemetryRecord::default()
        };
        index.rebuild(&first, &[]);
        assert_eq!(index.signal_samples().count(), 1);
        index.rebuild(&TelemetryRecord::default(), &[]);
        assert_eq!(index.signal_samples().count(), 0);
        assert_eq!(index.releasing_increment(&wait(20, 5)), None);
    }
}
