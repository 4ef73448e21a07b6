//! Differential test of the chain analyses against their pre-index
//! joins.
//!
//! [`crate::index::ChainIndex`] answers every join of the signal-latency
//! summary and the critical-path attribution by a binary search inside
//! one counting-sorted bucket. The reference below is how those joins
//! were made before: a time-sorted copy of the increments walked back per
//! wait, collective starts comparison-sorted by `(device, stream, group,
//! start)`, the walked spans comparison-sorted by `(device, stream, end,
//! start, idx)`, and a linear scan of the record's released waits and
//! GPU events for every wait span the walk visits. The two must agree —
//! the same segments and totals, a bit-equal signal sum — on chains
//! shaped like the four perfbench serve workloads', on random resilient
//! chains, and on hand-built records out of time order (the index's
//! stable-sort fallback).

use std::borrow::Cow;

use gpu_sim::{DeviceId, OpSpan, SpanMeta, StreamId};
use sim::SimTime;

use crate::attribution::{Attribution, AttributionTotals, Category, Segment};
use crate::metrics::{SignalSample, SignalSummary};
use crate::record::{IncrementEvent, TelemetryRecord, WaitSatisfied};

/// A record's increment rows in time order, answering "which increment
/// released this wait" by a binary search and a short walk back.
#[derive(Debug)]
struct IncrementIndex<'a> {
    /// The rows sorted by time, ties in record order. The recorder
    /// appends in simulated-time order, so this borrows the record; a
    /// hand-built record out of time order is sorted into a copy.
    by_time: Cow<'a, [IncrementEvent]>,
}

impl<'a> IncrementIndex<'a> {
    /// Indexes `record`'s increments (in any order).
    fn new(record: &'a TelemetryRecord) -> Self {
        let mut by_time = Cow::Borrowed(record.increments.as_slice());
        if !by_time.is_sorted_by_key(|inc| inc.at) {
            // Stable: rows at one instant keep record order.
            by_time.to_mut().sort_by_key(|inc| inc.at);
        }
        IncrementIndex { by_time }
    }

    /// The increment that released `wait`: the latest row on the wait's
    /// `(device, table, group)` slot at or before the release, and of
    /// rows at that same instant the last in record order.
    fn releasing_increment(&self, wait: &WaitSatisfied) -> Option<&IncrementEvent> {
        let upto = self.by_time.partition_point(|inc| inc.at <= wait.at);
        // Walk back from the release to the slot's latest row: the
        // releasing increment usually lands just before its release.
        self.by_time[..upto].iter().rev().find(|inc| {
            inc.device == wait.device && inc.table == wait.table && inc.group == wait.group
        })
    }
}

/// Group-tagged collective launches sorted by `(device, stream, group,
/// start)`: answers "when did the released group's collective start" by
/// binary search.
#[derive(Debug)]
struct CollectiveStarts(Vec<(DeviceId, StreamId, usize, SimTime)>);

impl CollectiveStarts {
    fn new(spans: &[OpSpan]) -> Self {
        let mut starts = Vec::with_capacity(spans.len());
        starts.extend(spans.iter().filter_map(|s| match s.meta {
            SpanMeta::Collective {
                group: Some(group), ..
            } => Some((s.device, s.stream, group, s.start)),
            _ => None,
        }));
        starts.sort_unstable();
        CollectiveStarts(starts)
    }

    /// The earliest start of `wait`'s group collective on the waiting
    /// stream at or after the release.
    fn after(&self, wait: &WaitSatisfied) -> Option<SimTime> {
        let key = (wait.device, wait.stream, wait.group, wait.at);
        let first = self.0.partition_point(|&entry| entry < key);
        let &(device, stream, group, start) = self.0.get(first)?;
        ((device, stream, group) == (wait.device, wait.stream, wait.group)).then_some(start)
    }
}

/// Joins released waits to their releasing increments and the launched
/// collectives. Returns `None` if the run had no signal waits (baselines
/// synchronize with events, not counters).
fn signal_summary(record: &TelemetryRecord, spans: &[OpSpan]) -> Option<SignalSummary> {
    if record.satisfied.is_empty() {
        return None;
    }
    let increments = IncrementIndex::new(record);
    let collectives = CollectiveStarts::new(spans);
    let mut samples: Vec<SignalSample> = record
        .satisfied
        .iter()
        .map(|ws| {
            let increment_to_release_ns = increments
                .releasing_increment(ws)
                .map_or(0, |inc| (ws.at - inc.at).as_nanos());
            let release_to_collective_ns = collectives
                .after(ws)
                .map_or(0, |start| (start - ws.at).as_nanos());
            SignalSample {
                device: ws.device,
                group: ws.group,
                increment_to_release_ns,
                release_to_collective_ns,
                total_ns: increment_to_release_ns + release_to_collective_ns,
            }
        })
        .collect();
    samples.sort_by_key(|s| (s.device, s.group));
    let n = samples.len() as f64;
    Some(SignalSummary {
        mean_total_ns: samples.iter().map(|s| s.total_ns as f64).sum::<f64>() / n,
        min_total_ns: samples.iter().map(|s| s.total_ns).min().unwrap_or(0),
        max_total_ns: samples.iter().map(|s| s.total_ns).max().unwrap_or(0),
        mean_release_to_collective_ns: samples
            .iter()
            .map(|s| s.release_to_collective_ns as f64)
            .sum::<f64>()
            / n,
        samples,
    })
}

/// A span reduced to nanosecond bounds for the walk.
#[derive(Debug, Clone, Copy)]
struct Node {
    device: DeviceId,
    stream: StreamId,
    name: &'static str,
    start: u64,
    end: u64,
    /// Position among the walked spans: the last tie-break everywhere.
    idx: usize,
    /// The earliest start of this node and every node after it in
    /// `(device, stream, end, start, idx)` order.
    min_start: u64,
}

fn ns(t: SimTime) -> u64 {
    t.as_nanos()
}

/// Attributes a run against an explicit makespan (e.g. a chain's total
/// latency when the caller pads the timeline); time past the last span
/// charges [`Category::Idle`].
fn attribute_makespan(spans: &[OpSpan], record: &TelemetryRecord, makespan_ns: u64) -> Attribution {
    // Zero-length ops (callbacks, counter resets, immediate event
    // records) occupy no stream time and only stall the walk; the
    // record-event edges they represent are joined through
    // `record.gpu_events` instead.
    let mut nodes = Vec::with_capacity(spans.len());
    nodes.extend(
        spans
            .iter()
            .filter(|s| s.end > s.start && s.name != "callback")
            .enumerate()
            .map(|(idx, s)| Node {
                device: s.device,
                stream: s.stream,
                name: s.name,
                start: ns(s.start),
                end: ns(s.end),
                idx,
                min_start: 0,
            }),
    );
    // One sort by (device, stream, end, start, idx) answers both stream
    // lookups below: `pred` is a binary search, `containing` a short
    // forward scan from it that stops once `min_start` passes the
    // instant (no later node can contain it).
    nodes.sort_unstable_by_key(|n| (n.device, n.stream, n.end, n.start, n.idx));
    let mut min_start = u64::MAX;
    for n in nodes.iter_mut().rev() {
        min_start = min_start.min(n.start);
        n.min_start = min_start;
    }

    let mut segments: Vec<Segment> = Vec::new();
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

    // Position of the first node on (device, stream) ending after `t`.
    let first_after = |device: DeviceId, stream: StreamId, t: u64| -> usize {
        nodes.partition_point(|n| (n.device, n.stream, n.end) <= (device, stream, t))
    };
    // Latest node on (device, stream) fully before the cursor: the
    // greatest (end, start, idx) with end <= cursor (and so start <
    // cursor, since every node has end > start).
    let before = |device: DeviceId, stream: StreamId, k: usize| -> Option<usize> {
        let k = k.checked_sub(1)?;
        let n = nodes.get(k)?;
        (n.device == device && n.stream == stream).then_some(k)
    };
    let pred = |device: DeviceId, stream: StreamId, cursor: u64| -> Option<usize> {
        before(device, stream, first_after(device, stream, cursor))
    };
    // Node on (device, stream) containing `t` (greatest (start, idx)
    // with start <= t < end), else the latest before it.
    let containing = |device: DeviceId, stream: StreamId, t: u64| -> Option<usize> {
        let first = first_after(device, stream, t);
        nodes
            .iter()
            .enumerate()
            .skip(first)
            .take_while(|(_, n)| n.min_start <= t && n.device == device && n.stream == stream)
            .filter(|(_, n)| n.start <= t)
            .max_by_key(|(_, n)| (n.start, n.idx))
            .map(|(k, _)| k)
            .or_else(|| before(device, stream, first))
    };
    let increments = IncrementIndex::new(record);

    let mut cursor = makespan_ns;
    // Start from the globally last-finishing op at or before the makespan.
    let mut cur = nodes
        .iter()
        .enumerate()
        .filter(|(_, n)| n.end <= cursor && n.start < cursor)
        .max_by_key(|(_, n)| (n.end, std::cmp::Reverse(n.device), n.start, n.idx))
        .map(|(i, _)| i);

    let guard = nodes.len() * 4 + 16;
    // Hops at one instant can cycle on a hand-built record (two waits,
    // each released by an increment on the other's stream). The walk's
    // state is (cursor, node), so more steps without the cursor moving
    // than there are nodes means it has.
    let (mut stalled, mut last_cursor) = (0, cursor);
    while cursor > 0 {
        let Some(idx) = cur else {
            push(&mut segments, &mut totals, 0, cursor, Category::Idle, None);
            break;
        };
        stalled = if cursor < last_cursor { 0 } else { stalled + 1 };
        last_cursor = cursor;
        if segments.len() > guard || stalled > nodes.len() {
            push(&mut segments, &mut totals, 0, cursor, Category::Idle, None);
            break;
        }
        let node = nodes[idx];
        if node.end < cursor {
            push(
                &mut segments,
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
                let release = record
                    .satisfied
                    .iter()
                    .filter(|w| {
                        w.device == node.device
                            && w.stream == node.stream
                            && ns(w.at) >= node.start
                            && ns(w.at) <= cursor
                    })
                    .max_by_key(|w| w.at);
                let inc = release.and_then(|rel| increments.releasing_increment(rel));
                match inc {
                    Some(inc) if ns(inc.at) >= node.start => {
                        // Parked wait: the stream stalled from the
                        // releasing increment to the (polled) release.
                        let hop = ns(inc.at).min(cursor);
                        push(
                            &mut segments,
                            &mut totals,
                            hop,
                            cursor,
                            Category::SignalWait,
                            Some(&node),
                        );
                        cursor = hop;
                        cur = containing(inc.device, inc.stream, cursor);
                    }
                    _ => {
                        // Pre-satisfied at registration (or no record):
                        // only the poll quantum is on the path.
                        push(
                            &mut segments,
                            &mut totals,
                            node.start,
                            cursor,
                            Category::SignalWait,
                            Some(&node),
                        );
                        cursor = node.start;
                        cur = pred(node.device, node.stream, cursor);
                    }
                }
            }
            "wait_event" => {
                // Join through the GPU event to the recording stream.
                let wait = record
                    .gpu_events
                    .iter()
                    .filter(|(at, d, s, _, is_wait)| {
                        *is_wait
                            && *d == node.device
                            && *s == node.stream
                            && ns(*at) >= node.start
                            && ns(*at) <= cursor
                    })
                    .max_by_key(|(at, _, _, _, _)| *at);
                let rec = wait.and_then(|(wat, wd, _, ev, _)| {
                    record
                        .gpu_events
                        .iter()
                        .filter(|(at, d, _, e, is_wait)| {
                            !*is_wait && d == wd && e == ev && at <= wat
                        })
                        .max_by_key(|(at, _, _, _, _)| *at)
                });
                match rec {
                    Some((rat, rd, rs, _, _)) if ns(*rat) <= cursor => {
                        // The recording stream gated progress; anything
                        // after the record is rearm machinery.
                        let hop = ns(*rat);
                        push(
                            &mut segments,
                            &mut totals,
                            hop,
                            cursor,
                            Category::RearmStall,
                            Some(&node),
                        );
                        cursor = hop;
                        cur = containing(*rd, *rs, cursor);
                    }
                    _ => {
                        push(
                            &mut segments,
                            &mut totals,
                            node.start,
                            cursor,
                            Category::RearmStall,
                            Some(&node),
                        );
                        cursor = node.start;
                        cur = pred(node.device, node.stream, cursor);
                    }
                }
            }
            _ => {
                let start = node.start.min(cursor);
                push(
                    &mut segments,
                    &mut totals,
                    start,
                    cursor,
                    Category::of_span(node.name),
                    Some(&node),
                );
                cursor = start;
                cur = pred(node.device, node.stream, cursor);
            }
        }
    }

    segments.reverse();
    Attribution {
        makespan_ns,
        segments,
        totals,
    }
}

#[allow(clippy::unwrap_used)]
mod tests {
    use flashoverlap::resilience::{FaultPlan, WatchdogConfig};
    use flashoverlap::runtime::CommPattern;
    use flashoverlap::{
        execute_sequence_in, ChainWorld, Instrumentation, OverlapPlan, SequenceOptions, SystemSpec,
        WavePartition,
    };
    use gpu_sim::gemm::GemmDims;
    use proptest::prelude::*;
    use sim::DetRng;
    use workloads::{models, quantize_tokens, MixEntry, ServeMix};

    use super::*;
    use crate::index::ChainIndex;
    use crate::record::Telemetry;

    /// Checks the index against the reference on one chain: the signal
    /// sum serve accumulates (bit for bit), the full signal summary, and
    /// the attribution. Returns the signal sample count.
    fn check(
        index: &mut ChainIndex,
        record: &TelemetryRecord,
        spans: &[OpSpan],
        makespan_ns: u64,
    ) -> u64 {
        index.rebuild(record, spans);
        let reference = signal_summary(record, spans);
        let (sum, samples) = index.signal_sum();
        let (ref_sum, ref_samples) = reference.as_ref().map_or((0.0, 0), |sig| {
            let n = sig.samples.len();
            (sig.mean_total_ns * n as f64, n as u64)
        });
        assert_eq!((sum.to_bits(), samples), (ref_sum.to_bits(), ref_samples));
        assert_eq!(crate::metrics::signal_summary(record, spans), reference);
        let attribution = index.attribute(makespan_ns);
        assert_eq!(
            attribution,
            attribute_makespan(spans, record, makespan_ns),
            "segments and totals"
        );
        assert!(attribution.identity_holds());
        samples
    }

    /// Runs `plans` as one traced chain in `world` under a monitor-only
    /// recorder (resilient under `faults` when given), as a serve replica
    /// does, and checks its analyses. `None` if the chain failed.
    fn run_and_check(
        world: &mut ChainWorld,
        index: &mut ChainIndex,
        plans: &[&OverlapPlan],
        faults: Option<&[FaultPlan]>,
        pipelined: bool,
    ) -> Option<u64> {
        let telemetry = Telemetry::new();
        let instr = Instrumentation {
            monitor: Some(telemetry.monitor()),
            probe: None,
            mutation: None,
        };
        let watchdog = WatchdogConfig::default();
        let mut options = SequenceOptions::new().trace().instrument(&instr);
        if let Some(faults) = faults {
            options = options.resilient(faults, &watchdog);
        }
        if !pipelined {
            options = options.serial();
        }
        let outcome = execute_sequence_in(world, plans, &options).ok()?;
        let record = telemetry.take_record();
        Some(check(
            index,
            &record,
            &outcome.spans,
            outcome.total.as_nanos(),
        ))
    }

    /// The churn workload's three-model mix.
    fn churn_mix() -> ServeMix {
        let entry = |model, weight, min_tokens, max_tokens| MixEntry {
            model,
            weight,
            min_tokens,
            max_tokens,
        };
        ServeMix::new(vec![
            entry(models::LLAMA3_8B, 2, 64, 4096),
            entry(models::LLAMA2_70B, 1, 64, 2048),
            entry(models::DEEPSEEK_MOE_EXPERT, 1, 16, 1024),
        ])
    }

    /// Chains built the way the perfbench serve workloads build theirs:
    /// a 4-rank RTX 4090 tensor-parallel group, batches of up to 2048
    /// tokens drawn from the workload's mix and quantized to its bucket,
    /// each mapped to the down-projection GEMM and tuned, then run as
    /// pipelined chains of up to the workload's length (resilient under
    /// seeded random faults for chaos).
    #[test]
    fn serve_workload_chains_match_the_reference() {
        // (name, mix, token bucket, longest chain, chaos)
        let workloads = [
            ("serve_steady", ServeMix::default_mix(), 256, 2, false),
            ("serve_churn", churn_mix(), 16, 2, false),
            ("serve_overload", ServeMix::default_mix(), 256, 4, false),
            ("serve_chaos", ServeMix::default_mix(), 256, 2, true),
        ];
        let system = SystemSpec::rtx4090(4);
        let mut tuned: Vec<(GemmDims, OverlapPlan)> = Vec::new();
        let mut world = ChainWorld::new();
        let mut index = ChainIndex::new();
        for (w, (name, mix, bucket, longest, chaos)) in workloads.into_iter().enumerate() {
            let mut rng = DetRng::new(0x5eed + w as u64);
            let (mut chains, mut samples) = (0, 0);
            for _ in 0..200 {
                let len = 1 + rng.next_below(longest) as usize;
                let mut dims = Vec::with_capacity(len);
                for _ in 0..len {
                    let (model, tokens) = mix.sample(&mut rng);
                    let m = quantize_tokens(tokens.min(2048), bucket);
                    dims.push(GemmDims::new(m, model.hidden, model.intermediate / 4));
                }
                for &d in &dims {
                    if !tuned.iter().any(|(t, _)| *t == d) {
                        let plan = OverlapPlan::tuned(d, CommPattern::AllReduce, system.clone())
                            .expect("tuned plan");
                        tuned.push((d, plan));
                    }
                }
                let plans: Vec<&OverlapPlan> = dims
                    .iter()
                    .filter_map(|d| tuned.iter().find(|(t, _)| t == d).map(|(_, p)| p))
                    .collect();
                let faults: Vec<FaultPlan> = plans
                    .iter()
                    .map(|p| FaultPlan::random(rng.next_u64(), 4, p.partition.num_groups()))
                    .collect();
                let faults = chaos.then_some(faults.as_slice());
                if let Some(n) = run_and_check(&mut world, &mut index, &plans, faults, true) {
                    chains += 1;
                    samples += n;
                }
            }
            assert!(chains > 0 && samples > 0, "{name}: {chains} chains");
        }
    }

    /// A per-wave AllReduce plan on a miniature 2-rank system.
    fn small_plan(m: u32) -> OverlapPlan {
        let dims = GemmDims::new(m, 256, 64);
        let mut system = SystemSpec::rtx4090(2);
        system.arch.sm_count = 8;
        system.comm_sms = 2;
        let waves = system.planned_waves(dims);
        OverlapPlan::new(
            dims,
            CommPattern::AllReduce,
            system,
            WavePartition::per_wave(waves),
        )
        .expect("valid plan")
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Resilient chains of one to four segments under seeded random
        /// faults (dropped and delayed signals, link faults, stragglers,
        /// slow ranks), pipelined or serial.
        #[test]
        fn random_resilient_chains_match_the_reference(
            rows in prop::collection::vec(1u32..4, 1..5),
            seed in any::<u64>(),
            pipelined in any::<bool>(),
        ) {
            let plans: Vec<OverlapPlan> = rows.iter().map(|&r| small_plan(128 * r)).collect();
            let plan_refs: Vec<&OverlapPlan> = plans.iter().collect();
            let faults: Vec<FaultPlan> = plans
                .iter()
                .enumerate()
                .map(|(i, p)| FaultPlan::random(seed ^ i as u64, 2, p.partition.num_groups()))
                .collect();
            let mut world = ChainWorld::new();
            let mut index = ChainIndex::new();
            run_and_check(&mut world, &mut index, &plan_refs, Some(&faults), pipelined);
        }
    }

    /// Span names the attribution walk treats differently.
    const SPAN_NAMES: [&str; 6] = [
        "gemm",
        "collective",
        "wait_counter",
        "wait_event",
        "callback",
        "tail-collective",
    ];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2048))]

        /// Hand-built rows in arbitrary order — spans out of end order on
        /// a stream, increments, waits and events out of time order, ties
        /// on a 10 ns grid — take the index's stable-sort fallback and
        /// still agree with the reference, against the last span end or a
        /// padded makespan.
        #[test]
        fn out_of_order_records_match_the_reference(
            spans in prop::collection::vec(
                (0usize..2, 0usize..2, 0usize..SPAN_NAMES.len(), 0u64..12, 0u64..6, 0usize..4),
                0..24,
            ),
            increments in prop::collection::vec(
                (0u64..18, 0usize..2, 0usize..2, 0usize..3, 1u32..4),
                0..16,
            ),
            satisfied in prop::collection::vec(
                (0u64..18, 0usize..2, 0usize..2, 0usize..3),
                0..12,
            ),
            gpu_events in prop::collection::vec(
                (0u64..18, 0usize..2, 0usize..2, 0usize..3, any::<bool>()),
                0..12,
            ),
            pad in 0u64..100,
        ) {
            let t = |x: u64| SimTime::from_nanos(x * 10);
            let spans: Vec<OpSpan> = spans
                .iter()
                .map(|&(device, stream, name, start, len, group)| OpSpan {
                    device,
                    stream,
                    name: SPAN_NAMES[name],
                    // Group 3 stands for an untagged collective.
                    meta: if SPAN_NAMES[name] == "collective" {
                        SpanMeta::Collective { bytes: 0, group: (group < 3).then_some(group) }
                    } else {
                        SpanMeta::None
                    },
                    start: t(start),
                    end: t(start + len),
                })
                .collect();
            let record = TelemetryRecord {
                increments: increments
                    .iter()
                    .map(|&(at, device, stream, group, by)| IncrementEvent {
                        at: t(at),
                        device,
                        stream,
                        table: 0,
                        group,
                        by,
                    })
                    .collect(),
                satisfied: satisfied
                    .iter()
                    .map(|&(at, device, stream, group)| WaitSatisfied {
                        at: t(at),
                        device,
                        stream,
                        table: 0,
                        group,
                        threshold: 1,
                    })
                    .collect(),
                gpu_events: gpu_events
                    .iter()
                    .map(|&(at, device, stream, event, is_wait)| (t(at), device, stream, event, is_wait))
                    .collect(),
                ..TelemetryRecord::default()
            };
            let last_end = spans.iter().map(|s| s.end.as_nanos()).max().unwrap_or(0);
            let mut index = ChainIndex::new();
            check(&mut index, &record, &spans, last_end);
            check(&mut index, &record, &spans, last_end + pad * 10);
        }
    }
}
