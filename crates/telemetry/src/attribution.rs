//! Critical-path latency attribution: buckets every nanosecond of a
//! run's makespan into exclusive categories.
//!
//! The attribution walks the happens-before graph *backwards* from the
//! last-finishing operation. At every step the walker sits at a cursor
//! time on some (device, stream) and asks "what was the run waiting on
//! just before this instant?":
//!
//! - an ordinary kernel span charges its own category ([`Category`] is
//!   derived from the span name) and hands the cursor to the previous
//!   op on the same stream;
//! - a `wait_counter` span charges [`Category::SignalWait`] only for
//!   the time after the *releasing increment* (joined through the
//!   [`crate::record::IncrementEvent`] → [`crate::record::WaitSatisfied`]
//!   edge), then hops to the
//!   incrementing stream — the compute stream that actually gated
//!   progress;
//! - a `wait_event` span hops through the recorded GPU event to the
//!   recording stream; any residue (poll quantum, rearm chain) charges
//!   [`Category::RearmStall`];
//! - gaps with no predecessor charge [`Category::Idle`].
//!
//! Every lookup the walk makes is a binary search in one bucket of the
//! chain's [`ChainIndex`].
//!
//! Because consecutive emissions tile `[0, makespan]` without overlap,
//! the per-category totals sum *exactly* to the makespan — the
//! sum-to-makespan identity CI asserts ([`Attribution::identity_holds`]).

use gpu_sim::{DeviceId, OpSpan, StreamId};
use sim::SimTime;

use crate::index::{with_chain_index, ChainIndex, Node};
use crate::json::Value;
use crate::record::TelemetryRecord;

/// Exclusive time categories of the critical path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Category {
    /// GEMM waves and other compute kernels.
    GemmCompute,
    /// Overlapped collective / peer-copy transfer time.
    CollectiveTransfer,
    /// Communication stream blocked on a counting-table threshold
    /// (includes the signal poll quantum).
    SignalWait,
    /// Inter-stream event waits and counter rearm chains between
    /// batches of a pipelined sequence.
    RearmStall,
    /// Plan search / tuning time (zero in simulated time: the tuner is
    /// analytic; serving reports tune *counts* alongside).
    Tuner,
    /// Fault recovery: watchdog-relaunched tail and bulk collectives.
    Recovery,
    /// A formed batch sat queued behind a busy replica.
    QueueWait,
    /// Nothing runnable (launch skew, drained queue, trailing gap).
    Idle,
}

impl Category {
    /// Every category, in report order.
    pub const ALL: [Category; 8] = [
        Category::GemmCompute,
        Category::CollectiveTransfer,
        Category::SignalWait,
        Category::RearmStall,
        Category::Tuner,
        Category::Recovery,
        Category::QueueWait,
        Category::Idle,
    ];

    /// Human-readable label (Perfetto slice names, summaries).
    pub fn label(self) -> &'static str {
        match self {
            Category::GemmCompute => "gemm-compute",
            Category::CollectiveTransfer => "collective-transfer",
            Category::SignalWait => "signal-wait",
            Category::RearmStall => "rearm-stall",
            Category::Tuner => "tuner",
            Category::Recovery => "recovery",
            Category::QueueWait => "queue-wait",
            Category::Idle => "idle",
        }
    }

    /// JSON object key.
    pub fn key(self) -> &'static str {
        match self {
            Category::GemmCompute => "gemm_compute",
            Category::CollectiveTransfer => "collective_transfer",
            Category::SignalWait => "signal_wait",
            Category::RearmStall => "rearm_stall",
            Category::Tuner => "tuner",
            Category::Recovery => "recovery",
            Category::QueueWait => "queue_wait",
            Category::Idle => "idle",
        }
    }

    /// JSON object key of the category's nanosecond total
    /// (`"<key>_ns"`).
    pub fn ns_key(self) -> &'static str {
        match self {
            Category::GemmCompute => "gemm_compute_ns",
            Category::CollectiveTransfer => "collective_transfer_ns",
            Category::SignalWait => "signal_wait_ns",
            Category::RearmStall => "rearm_stall_ns",
            Category::Tuner => "tuner_ns",
            Category::Recovery => "recovery_ns",
            Category::QueueWait => "queue_wait_ns",
            Category::Idle => "idle_ns",
        }
    }

    fn index(self) -> usize {
        match self {
            Category::GemmCompute => 0,
            Category::CollectiveTransfer => 1,
            Category::SignalWait => 2,
            Category::RearmStall => 3,
            Category::Tuner => 4,
            Category::Recovery => 5,
            Category::QueueWait => 6,
            Category::Idle => 7,
        }
    }

    /// The category an op span charges when it sits on the critical
    /// path, from its kernel name.
    pub fn of_span(name: &str) -> Category {
        match name {
            "gemm" | "elementwise" | "kernel" => Category::GemmCompute,
            "collective" | "p2p_copy" => Category::CollectiveTransfer,
            "tail-collective" | "bulk-collective" => Category::Recovery,
            "wait_counter" => Category::SignalWait,
            "wait_event" | "record_event" | "reset_counter" => Category::RearmStall,
            _ => Category::Idle,
        }
    }
}

/// One contiguous critical-path interval charged to a single category.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Segment {
    /// Interval start (ns since run start).
    pub start_ns: u64,
    /// Interval end (exclusive, ns since run start).
    pub end_ns: u64,
    /// What the interval is charged to.
    pub category: Category,
    /// Device the critical path ran on (`None` for gaps).
    pub device: Option<DeviceId>,
    /// Stream the critical path ran on (`None` for gaps).
    pub stream: Option<StreamId>,
    /// Kernel name of the charged op (empty for gaps).
    pub op: &'static str,
}

impl Segment {
    /// Interval length in nanoseconds.
    pub fn len_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Per-category nanosecond totals. Summable across batches/chains.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct AttributionTotals {
    ns: [u64; Category::ALL.len()],
}

impl AttributionTotals {
    /// Charges `ns` nanoseconds to `category`.
    pub fn add(&mut self, category: Category, ns: u64) {
        self.ns[category.index()] += ns;
    }

    /// Accumulates another totals vector into this one.
    pub fn merge(&mut self, other: &AttributionTotals) {
        for (a, b) in self.ns.iter_mut().zip(other.ns.iter()) {
            *a += b;
        }
    }

    /// Nanoseconds charged to `category`.
    pub fn get(&self, category: Category) -> u64 {
        self.ns[category.index()]
    }

    /// Total nanoseconds across every category.
    pub fn sum(&self) -> u64 {
        self.ns.iter().sum()
    }

    /// `{"<category>_ns": u64, ...}` in [`Category::ALL`] order.
    pub fn to_json(&self) -> Value {
        Value::Obj(
            Category::ALL
                .iter()
                .map(|c| (c.ns_key().into(), Value::num(self.get(*c) as f64)))
                .collect(),
        )
    }

    /// `{"<category>": share, ...}` of `makespan_ns`, each in `[0, 1]`
    /// (all zero when the makespan is zero).
    pub fn shares_json(&self, makespan_ns: u64) -> Value {
        Value::Obj(
            Category::ALL
                .iter()
                .map(|c| {
                    let share = if makespan_ns == 0 {
                        0.0
                    } else {
                        self.get(*c) as f64 / makespan_ns as f64
                    };
                    (c.key().into(), Value::num(share))
                })
                .collect(),
        )
    }
}

/// The critical path of one run, tiled into exclusive [`Segment`]s.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Attribution {
    /// End-to-end makespan being attributed (ns).
    pub makespan_ns: u64,
    /// Chronological critical-path segments; consecutive segments abut
    /// and together tile `[0, makespan_ns]`.
    pub segments: Vec<Segment>,
    /// Per-category totals over the segments.
    pub totals: AttributionTotals,
}

impl Attribution {
    /// Nanoseconds charged to `category`.
    pub fn total_ns(&self, category: Category) -> u64 {
        self.totals.get(category)
    }

    /// Fraction of the makespan charged to `category`.
    pub fn share(&self, category: Category) -> f64 {
        if self.makespan_ns == 0 {
            0.0
        } else {
            self.total_ns(category) as f64 / self.makespan_ns as f64
        }
    }

    /// The sum-to-makespan identity: category totals account for every
    /// nanosecond of the makespan, exactly.
    pub fn identity_holds(&self) -> bool {
        self.totals.sum() == self.makespan_ns
    }

    /// Clips the segments to the window `[lo_ns, hi_ns)` and returns
    /// the totals of the intersection — the per-batch attribution of a
    /// chain whose batch occupied that window. The clipped totals sum
    /// to `hi_ns - lo_ns` whenever the window lies inside the makespan.
    pub fn clip_window(&self, lo_ns: u64, hi_ns: u64) -> AttributionTotals {
        let mut totals = AttributionTotals::default();
        for seg in &self.segments {
            let lo = seg.start_ns.max(lo_ns);
            let hi = seg.end_ns.min(hi_ns);
            if hi > lo {
                totals.add(seg.category, hi - lo);
            }
        }
        totals
    }

    /// Full JSON form: makespan, identity, totals, shares, and the
    /// chronological critical-path segments.
    pub fn to_json(&self) -> Value {
        Value::obj(vec![
            ("makespan_ns", Value::num(self.makespan_ns as f64)),
            ("identity_holds", Value::Bool(self.identity_holds())),
            ("categories", self.totals.to_json()),
            ("shares", self.totals.shares_json(self.makespan_ns)),
            (
                "critical_path",
                Value::Arr(
                    self.segments
                        .iter()
                        .map(|s| {
                            Value::obj(vec![
                                ("start_ns", Value::num(s.start_ns as f64)),
                                ("end_ns", Value::num(s.end_ns as f64)),
                                ("category", Value::str(s.category.label())),
                                (
                                    "device",
                                    s.device.map_or(Value::Null, |d| Value::num(d as f64)),
                                ),
                                (
                                    "stream",
                                    s.stream.map_or(Value::Null, |s| Value::num(s as f64)),
                                ),
                                ("op", Value::str(s.op)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// One-line human summary: `category share%` pairs for the
    /// non-empty categories.
    pub fn summary(&self) -> String {
        let mut parts = Vec::new();
        for c in Category::ALL {
            let ns = self.total_ns(c);
            if ns > 0 {
                parts.push(format!("{} {:.1}%", c.label(), self.share(c) * 100.0));
            }
        }
        if parts.is_empty() {
            "empty".to_owned()
        } else {
            parts.join(", ")
        }
    }
}

fn ns(t: SimTime) -> u64 {
    t.as_nanos()
}

/// Attributes a run whose makespan is the last span end.
pub fn attribute(spans: &[OpSpan], record: &TelemetryRecord) -> Attribution {
    let makespan = spans.iter().map(|s| ns(s.end)).max().unwrap_or(0);
    attribute_makespan(spans, record, makespan)
}

/// Attributes a run against an explicit makespan (e.g. a chain's total
/// latency when the caller pads the timeline); time past the last span
/// charges [`Category::Idle`]. Runs on this thread's shared
/// [`ChainIndex`]; a caller analysing chains as it simulates them keeps
/// its own and calls [`ChainIndex::attribute`].
pub fn attribute_makespan(
    spans: &[OpSpan],
    record: &TelemetryRecord,
    makespan_ns: u64,
) -> Attribution {
    with_chain_index(record, spans, |index| index.attribute(makespan_ns))
}

/// The backward walk over an indexed chain. `segments` is scratch: the
/// walk emits latest first into it, and the returned [`Attribution`]
/// copies them out in one exact-size allocation.
pub(crate) fn walk(
    index: &ChainIndex,
    segments: &mut Vec<Segment>,
    makespan_ns: u64,
) -> Attribution {
    let node_count = index.node_count();
    segments.clear();
    let mut totals = AttributionTotals::default();
    let push = |segments: &mut Vec<Segment>,
                totals: &mut AttributionTotals,
                start: u64,
                end: u64,
                category: Category,
                node: Option<&Node>| {
        if end > start {
            totals.add(category, end - start);
            segments.push(Segment {
                start_ns: start,
                end_ns: end,
                category,
                device: node.map(|n| n.device),
                stream: node.map(|n| n.stream),
                op: node.map_or("", |n| n.name),
            });
        }
    };

    let mut cursor = makespan_ns;
    // Start from the globally last-finishing op at or before the makespan.
    let mut cur = index.last_ending(cursor);

    let guard = node_count * 4 + 16;
    // Hops at one instant can cycle on a hand-built record (two waits,
    // each released by an increment on the other's stream). The walk's
    // state is (cursor, node), so more steps without the cursor moving
    // than there are nodes means it has.
    let (mut stalled, mut last_cursor) = (0, cursor);
    while cursor > 0 {
        let Some(at) = cur else {
            push(segments, &mut totals, 0, cursor, Category::Idle, None);
            break;
        };
        stalled = if cursor < last_cursor { 0 } else { stalled + 1 };
        last_cursor = cursor;
        if segments.len() > guard || stalled > node_count {
            push(segments, &mut totals, 0, cursor, Category::Idle, None);
            break;
        }
        let node = index.node(at);
        if node.end < cursor {
            push(
                segments,
                &mut totals,
                node.end,
                cursor,
                Category::Idle,
                None,
            );
            cursor = node.end;
        }
        match node.name {
            "wait_counter" => {
                // Join the wait to its releasing increment: the latest
                // WaitSatisfied on this stream inside the span, then the
                // latest increment on that (device, table, group) at or
                // before the release.
                let inc = index
                    .release_within(&node, cursor)
                    .and_then(|rel| index.releasing_increment(rel));
                match inc {
                    Some(inc) if ns(inc.at) >= node.start => {
                        // Parked wait: the stream stalled from the
                        // releasing increment to the (polled) release.
                        let hop = ns(inc.at).min(cursor);
                        push(
                            segments,
                            &mut totals,
                            hop,
                            cursor,
                            Category::SignalWait,
                            Some(&node),
                        );
                        cursor = hop;
                        cur = index.containing(inc.device, inc.stream, cursor);
                    }
                    _ => {
                        // Pre-satisfied at registration (or no record):
                        // only the poll quantum is on the path.
                        push(
                            segments,
                            &mut totals,
                            node.start,
                            cursor,
                            Category::SignalWait,
                            Some(&node),
                        );
                        cursor = node.start;
                        cur = index.pred(node.device, node.stream, cursor);
                    }
                }
            }
            "wait_event" => {
                // Join through the GPU event to the recording stream.
                let rec = index
                    .event_wait_within(&node, cursor)
                    .and_then(|(wat, event)| index.event_record(node.device, event, wat));
                match rec {
                    Some((rat, rs)) if ns(rat) <= cursor => {
                        // The recording stream gated progress; anything
                        // after the record is rearm machinery.
                        let hop = ns(rat);
                        push(
                            segments,
                            &mut totals,
                            hop,
                            cursor,
                            Category::RearmStall,
                            Some(&node),
                        );
                        cursor = hop;
                        cur = index.containing(node.device, rs, cursor);
                    }
                    _ => {
                        push(
                            segments,
                            &mut totals,
                            node.start,
                            cursor,
                            Category::RearmStall,
                            Some(&node),
                        );
                        cursor = node.start;
                        cur = index.pred(node.device, node.stream, cursor);
                    }
                }
            }
            _ => {
                let start = node.start.min(cursor);
                push(
                    segments,
                    &mut totals,
                    start,
                    cursor,
                    Category::of_span(node.name),
                    Some(&node),
                );
                cursor = start;
                cur = index.pred(node.device, node.stream, cursor);
            }
        }
    }

    Attribution {
        makespan_ns,
        segments: segments.iter().rev().copied().collect(),
        totals,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{IncrementEvent, WaitSatisfied};
    use gpu_sim::cluster::SpanMeta;

    fn span(
        device: DeviceId,
        stream: StreamId,
        name: &'static str,
        start: u64,
        end: u64,
    ) -> OpSpan {
        OpSpan {
            device,
            stream,
            name,
            meta: SpanMeta::None,
            start: SimTime::from_nanos(start),
            end: SimTime::from_nanos(end),
        }
    }

    fn inc(device: DeviceId, stream: StreamId, group: usize, at: u64) -> IncrementEvent {
        IncrementEvent {
            at: SimTime::from_nanos(at),
            device,
            stream,
            table: 0,
            group,
            by: 1,
        }
    }

    fn sat(device: DeviceId, stream: StreamId, group: usize, at: u64) -> WaitSatisfied {
        WaitSatisfied {
            at: SimTime::from_nanos(at),
            device,
            stream,
            table: 0,
            group,
            threshold: 1,
        }
    }

    #[test]
    fn ns_keys_are_the_keys_with_an_ns_suffix() {
        for c in Category::ALL {
            assert_eq!(c.ns_key(), format!("{}_ns", c.key()));
        }
    }

    #[test]
    fn empty_run_is_all_idle() {
        let a = attribute_makespan(&[], &TelemetryRecord::default(), 100);
        assert_eq!(a.total_ns(Category::Idle), 100);
        assert!(a.identity_holds());
        let b = attribute(&[], &TelemetryRecord::default());
        assert_eq!(b.makespan_ns, 0);
        assert!(b.identity_holds());
    }

    #[test]
    fn single_group_overlap_decomposes() {
        // Compute stream 0: gemm [0, 100]; epilogue increments group 0
        // at 100. Comm stream 1: wait parked [0, 102] (2 ns poll), then
        // the collective [102, 142].
        let spans = vec![
            span(0, 0, "gemm", 0, 100),
            span(0, 1, "wait_counter", 0, 102),
            span(0, 1, "collective", 102, 142),
        ];
        let record = TelemetryRecord {
            increments: vec![inc(0, 0, 0, 100)],
            satisfied: vec![sat(0, 1, 0, 100)],
            ..TelemetryRecord::default()
        };
        let a = attribute(&spans, &record);
        assert_eq!(a.makespan_ns, 142);
        assert!(a.identity_holds(), "{a:?}");
        assert_eq!(a.total_ns(Category::GemmCompute), 100);
        assert_eq!(a.total_ns(Category::SignalWait), 2);
        assert_eq!(a.total_ns(Category::CollectiveTransfer), 40);
        assert_eq!(a.total_ns(Category::Idle), 0);
        // Chronological and abutting.
        assert_eq!(a.segments[0].category, Category::GemmCompute);
        assert_eq!(a.segments.last().unwrap().end_ns, 142);
        for w in a.segments.windows(2) {
            assert_eq!(w[0].end_ns, w[1].start_ns);
        }
    }

    #[test]
    fn comm_bound_tail_charges_signal_wait_per_group() {
        // Two groups: group 0 releases at 50, group 1 at 100; each
        // collective takes 60 ns, so the second wait parks on the busy
        // comm stream history, not the increment. Collective 1 starts
        // only when both its signal (100) and the stream (first
        // collective until 112) allow.
        let spans = vec![
            span(0, 0, "gemm", 0, 100),
            span(0, 1, "wait_counter", 0, 52),
            span(0, 1, "collective", 52, 112),
            span(0, 1, "wait_counter", 112, 114),
            span(0, 1, "collective", 114, 174),
        ];
        let record = TelemetryRecord {
            increments: vec![inc(0, 0, 0, 50), inc(0, 0, 1, 100)],
            satisfied: vec![sat(0, 1, 0, 50), sat(0, 1, 1, 112)],
            ..TelemetryRecord::default()
        };
        let a = attribute(&spans, &record);
        assert!(a.identity_holds(), "{a:?}");
        // Backward: collective [114,174] <- wait released while parked?
        // The wait's releasing increment (group 1 @ 100) is before the
        // wait span start (112), so it is pre-satisfied: only the poll
        // quantum [112,114] charges signal-wait, then the first
        // collective, its wait, and the gemm prefix.
        assert_eq!(a.total_ns(Category::CollectiveTransfer), 120);
        assert_eq!(a.total_ns(Category::SignalWait), 4);
        assert_eq!(a.total_ns(Category::GemmCompute), 50);
        assert_eq!(a.makespan_ns, 174);
    }

    #[test]
    fn parked_wait_hops_to_compute_stream() {
        // The wait parks until the increment at 90; the critical path
        // must route through the gemm, not the idle comm stream.
        let spans = vec![
            span(0, 0, "gemm", 10, 90),
            span(0, 1, "wait_counter", 0, 92),
            span(0, 1, "collective", 92, 100),
        ];
        let record = TelemetryRecord {
            increments: vec![inc(0, 0, 0, 90)],
            satisfied: vec![sat(0, 1, 0, 90)],
            ..TelemetryRecord::default()
        };
        let a = attribute(&spans, &record);
        assert!(a.identity_holds(), "{a:?}");
        assert_eq!(a.total_ns(Category::SignalWait), 2);
        assert_eq!(a.total_ns(Category::GemmCompute), 80);
        assert_eq!(a.total_ns(Category::CollectiveTransfer), 8);
        // Launch-skew gap before the gemm is idle.
        assert_eq!(a.total_ns(Category::Idle), 10);
        assert_eq!(a.segments[0].category, Category::Idle);
    }

    #[test]
    fn waits_releasing_each_other_at_one_instant_terminate() {
        // A hand-built record no simulator run produces: each wait is
        // released at 50 by an increment on the other wait's stream, so
        // the hops cycle between them without moving the cursor. The walk
        // gives up on the stall and charges the rest as idle.
        let spans = vec![
            span(0, 1, "wait_counter", 0, 50),
            span(0, 0, "wait_counter", 40, 60),
        ];
        let record = TelemetryRecord {
            increments: vec![inc(0, 0, 0, 50), inc(0, 1, 1, 50)],
            satisfied: vec![sat(0, 1, 0, 50), sat(0, 0, 1, 50)],
            ..TelemetryRecord::default()
        };
        let a = attribute(&spans, &record);
        assert!(a.identity_holds(), "{a:?}");
        assert_eq!(a.total_ns(Category::SignalWait), 10);
        assert_eq!(a.total_ns(Category::Idle), 50);
    }

    #[test]
    fn recovery_collectives_charge_recovery() {
        let spans = vec![
            span(0, 0, "gemm", 0, 50),
            span(0, 0, "tail-collective", 50, 80),
        ];
        let a = attribute(&spans, &TelemetryRecord::default());
        assert!(a.identity_holds());
        assert_eq!(a.total_ns(Category::Recovery), 30);
        assert_eq!(a.total_ns(Category::GemmCompute), 50);
    }

    #[test]
    fn explicit_makespan_pads_with_idle() {
        let spans = vec![span(0, 0, "gemm", 0, 40)];
        let a = attribute_makespan(&spans, &TelemetryRecord::default(), 100);
        assert!(a.identity_holds());
        assert_eq!(a.total_ns(Category::GemmCompute), 40);
        assert_eq!(a.total_ns(Category::Idle), 60);
        assert_eq!(a.segments.last().unwrap().category, Category::Idle);
    }

    #[test]
    fn wait_event_hops_to_recording_stream() {
        // Rearm edge: compute stream records event 7 at 60; comm stream
        // waits [50, 60] for it, then runs the next collective.
        let spans = vec![
            span(0, 0, "gemm", 0, 60),
            span(0, 1, "wait_event", 50, 60),
            span(0, 1, "collective", 60, 90),
        ];
        let record = TelemetryRecord {
            gpu_events: vec![
                (SimTime::from_nanos(60), 0, 0, 7, false),
                (SimTime::from_nanos(60), 0, 1, 7, true),
            ],
            ..TelemetryRecord::default()
        };
        let a = attribute(&spans, &record);
        assert!(a.identity_holds(), "{a:?}");
        // The record lands exactly at the wait end: zero rearm residue,
        // path continues through the recording (compute) stream.
        assert_eq!(a.total_ns(Category::GemmCompute), 60);
        assert_eq!(a.total_ns(Category::CollectiveTransfer), 30);
        assert_eq!(a.total_ns(Category::RearmStall), 0);
    }

    #[test]
    fn wait_event_join_stays_on_the_waiting_device() {
        // Event ids are per device: ranks 0 and 1 both record their own
        // event 7 at 60, and rank 0's comm stream waits on it. Rank 1's
        // record is the last row at that instant, but the join keys
        // records by (device, event), so the walk hops to rank 0's own
        // compute stream.
        let spans = vec![
            span(0, 0, "gemm", 0, 60),
            span(1, 0, "gemm", 0, 60),
            span(0, 1, "wait_event", 50, 60),
            span(0, 1, "collective", 60, 90),
        ];
        let record = TelemetryRecord {
            gpu_events: vec![
                (SimTime::from_nanos(60), 0, 0, 7, false),
                (SimTime::from_nanos(60), 1, 0, 7, false),
                (SimTime::from_nanos(60), 0, 1, 7, true),
            ],
            ..TelemetryRecord::default()
        };
        let a = attribute(&spans, &record);
        assert!(a.identity_holds(), "{a:?}");
        assert_eq!(a.total_ns(Category::GemmCompute), 60);
        let gemm = a.segments[0];
        assert_eq!((gemm.op, gemm.stream), ("gemm", Some(0)));
        assert_eq!(gemm.device, Some(0), "hops to the waiting rank's record");
    }

    #[test]
    fn clip_window_partitions_chain_totals() {
        let spans = vec![
            span(0, 0, "gemm", 0, 100),
            span(0, 1, "wait_counter", 0, 102),
            span(0, 1, "collective", 102, 142),
        ];
        let record = TelemetryRecord {
            increments: vec![inc(0, 0, 0, 100)],
            satisfied: vec![sat(0, 1, 0, 100)],
            ..TelemetryRecord::default()
        };
        let a = attribute(&spans, &record);
        let head = a.clip_window(0, 101);
        let tail = a.clip_window(101, 142);
        assert_eq!(head.sum(), 101);
        assert_eq!(tail.sum(), 41);
        let mut merged = head;
        merged.merge(&tail);
        assert_eq!(merged.sum(), a.makespan_ns);
        assert_eq!(merged.get(Category::GemmCompute), 100);
    }

    #[test]
    fn shares_and_json_shape() {
        let spans = vec![span(0, 0, "gemm", 0, 50)];
        let a = attribute_makespan(&spans, &TelemetryRecord::default(), 100);
        assert!((a.share(Category::GemmCompute) - 0.5).abs() < 1e-12);
        let json = a.to_json();
        assert_eq!(json.get("makespan_ns").and_then(Value::as_f64), Some(100.0));
        assert_eq!(
            json.get("identity_holds").and_then(Value::as_bool),
            Some(true)
        );
        let cats = json.get("categories").unwrap();
        assert_eq!(
            cats.get("gemm_compute_ns").and_then(Value::as_f64),
            Some(50.0)
        );
        let shares = json.get("shares").unwrap();
        for c in Category::ALL {
            let v = shares.get(c.key()).and_then(Value::as_f64).unwrap();
            assert!((0.0..=1.0).contains(&v));
        }
        assert_eq!(
            json.get("critical_path")
                .and_then(Value::as_arr)
                .map(|a| a.len()),
            Some(2)
        );
        assert!(a.summary().contains("gemm-compute"));
    }
}
