//! Property-based tests for the telemetry metrics and the vendored JSON
//! codec.

use gpu_sim::{DeviceId, OpSpan, SpanMeta, StreamId};
use proptest::prelude::*;
use sim::{SimDuration, SimTime};
use telemetry::json::{self, Value};
use telemetry::metrics::{SignalSample, SignalSummary};
use telemetry::record::{IncrementEvent, WaitSatisfied};
use telemetry::{
    attribute_makespan, overlap_efficiency, signal_summary, Attribution, AttributionTotals,
    Category, Segment, TelemetryRecord,
};

/// Characters the string generator draws from — ASCII, the JSON escape
/// set, control characters, and multi-byte UTF-8 (incl. non-BMP).
const PALETTE: [char; 14] = [
    'a', 'Z', '0', ' ', '"', '\\', '\n', '\t', '\r', '\u{1}', '\u{1f}', 'µ', '→', '😀',
];

/// A finite number from a word: integral or fractional, either sign.
fn finite_number(w: u64) -> f64 {
    let x = (w as f64 / u64::MAX as f64 - 0.5) * 2e12;
    if w & 16 != 0 {
        x.trunc()
    } else {
        x
    }
}

/// A number from a word covering every branch of the number format:
/// integral below and above 9e15, fractions, negatives, `-0.0`, NaN and
/// the infinities.
fn any_number(w: u64) -> f64 {
    match (w >> 5) % 8 {
        0 => -0.0,
        1 => [f64::NAN, f64::INFINITY, f64::NEG_INFINITY][(w >> 8) as usize % 3],
        2 => 9e15 - 1.0 - (w >> 12) as f64,
        3 => (9e15 + (w >> 12) as f64 * 2.0) * if w & 64 != 0 { -1.0 } else { 1.0 },
        4 => f64::from_bits(w ^ 0x4000_0000_0000_0000).max(-1e300),
        _ => finite_number(w),
    }
}

/// Deterministically interprets a word stream as a JSON document of
/// bounded depth, covering every [`Value`] variant, its numbers drawn by
/// `number`.
fn build_value(words: &mut std::slice::Iter<'_, u64>, depth: u32, number: fn(u64) -> f64) -> Value {
    let w = *words.next().unwrap_or(&0);
    let variants = if depth == 0 { 4 } else { 6 };
    match w % variants {
        0 => Value::Null,
        1 => Value::Bool(w & 8 != 0),
        2 => Value::Num(number(w)),
        3 => Value::Str(
            (0..w % 9)
                .map(|i| PALETTE[((w >> (4 * i)) % PALETTE.len() as u64) as usize])
                .collect(),
        ),
        4 => Value::Arr(
            (0..w % 5)
                .map(|_| build_value(words, depth - 1, number))
                .collect(),
        ),
        _ => Value::Obj(
            (0..w % 5)
                .map(|i| {
                    let key = PALETTE[(w >> (8 + i)) as usize % PALETTE.len()];
                    (
                        format!("k{i}{key}").into(),
                        build_value(words, depth - 1, number),
                    )
                })
                .collect(),
        ),
    }
}

/// The recursive tree serializer `Value` rendered through before the
/// streaming writer: the byte-for-byte oracle the writer is checked
/// against. `indent` is `Some(2)` for pretty output.
fn oracle_write(v: &Value, out: &mut String, indent: Option<usize>, depth: usize) {
    use std::fmt::Write as _;
    fn newline(out: &mut String, indent: Option<usize>, depth: usize) {
        if let Some(width) = indent {
            out.push('\n');
            for _ in 0..width * depth {
                out.push(' ');
            }
        }
    }
    fn write_str(out: &mut String, s: &str) {
        out.push('"');
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => {
                    let _ = write!(out, "\\u{:04x}", c as u32);
                }
                c => out.push(c),
            }
        }
        out.push('"');
    }
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Num(n) => {
            let n = *n;
            if !n.is_finite() {
                out.push_str("null");
            } else if n == n.trunc() && n.abs() < 9e15 {
                let _ = write!(out, "{}", n as i64);
            } else {
                let _ = write!(out, "{n}");
            }
        }
        Value::Str(s) => write_str(out, s),
        Value::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline(out, indent, depth + 1);
                oracle_write(item, out, indent, depth + 1);
            }
            if !items.is_empty() {
                newline(out, indent, depth);
            }
            out.push(']');
        }
        Value::Obj(pairs) => {
            out.push('{');
            for (i, (k, v)) in pairs.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline(out, indent, depth + 1);
                write_str(out, k);
                out.push(':');
                if indent.is_some() {
                    out.push(' ');
                }
                oracle_write(v, out, indent, depth + 1);
            }
            if !pairs.is_empty() {
                newline(out, indent, depth);
            }
            out.push('}');
        }
    }
}

/// The reference join for [`signal_summary`]: for every released wait, a
/// full scan for the latest increment on its slot and the earliest
/// group-tagged collective after it (O(S x I)).
fn naive_signal_summary(record: &TelemetryRecord, spans: &[OpSpan]) -> Option<SignalSummary> {
    let mut samples = Vec::new();
    for ws in &record.satisfied {
        let last_increment = record
            .increments
            .iter()
            .filter(|inc| {
                inc.device == ws.device
                    && inc.table == ws.table
                    && inc.group == ws.group
                    && inc.at <= ws.at
            })
            .map(|inc| inc.at)
            .max();
        let collective_start = spans
            .iter()
            .filter(|s| {
                s.device == ws.device
                    && s.stream == ws.stream
                    && s.start >= ws.at
                    && matches!(s.meta, SpanMeta::Collective { group: Some(g), .. } if g == ws.group)
            })
            .map(|s| s.start)
            .min();
        let increment_to_release_ns = last_increment.map_or(0, |inc| (ws.at - inc).as_nanos());
        let release_to_collective_ns =
            collective_start.map_or(0, |start| (start - ws.at).as_nanos());
        samples.push(SignalSample {
            device: ws.device,
            group: ws.group,
            increment_to_release_ns,
            release_to_collective_ns,
            total_ns: increment_to_release_ns + release_to_collective_ns,
        });
    }
    if samples.is_empty() {
        return None;
    }
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

/// Span names the attribution walk treats differently.
const SPAN_NAMES: [&str; 6] = [
    "gemm",
    "collective",
    "wait_counter",
    "wait_event",
    "callback",
    "tail-collective",
];

/// A span reduced to nanosecond bounds for the naive walk.
#[derive(Debug, Clone, Copy)]
struct Node {
    device: DeviceId,
    stream: StreamId,
    name: &'static str,
    start: u64,
    end: u64,
}

fn ns(t: SimTime) -> u64 {
    t.as_nanos()
}

/// The reference walk for [`attribute_makespan`]: the same backward
/// critical-path walk, answering every stream lookup and every
/// wait → increment join by a full scan of the nodes or the record.
fn naive_attribute_makespan(
    spans: &[OpSpan],
    record: &TelemetryRecord,
    makespan_ns: u64,
) -> Attribution {
    // Zero-length ops (callbacks, counter resets, immediate event
    // records) occupy no stream time and only stall the walk; the
    // record-event edges they represent are joined through
    // `record.gpu_events` instead.
    let nodes: Vec<Node> = spans
        .iter()
        .filter(|s| s.end > s.start && s.name != "callback")
        .map(|s| Node {
            device: s.device,
            stream: s.stream,
            name: s.name,
            start: ns(s.start),
            end: ns(s.end),
        })
        .collect();

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

    // Latest node on (device, stream) fully before the cursor.
    let pred = |device: DeviceId, stream: StreamId, cursor: u64| -> Option<usize> {
        nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| {
                n.device == device && n.stream == stream && n.end <= cursor && n.start < cursor
            })
            .max_by_key(|(i, n)| (n.end, n.start, *i))
            .map(|(i, _)| i)
    };
    // Node on (device, stream) containing `t`, else the latest before it.
    let containing = |device: DeviceId, stream: StreamId, t: u64| -> Option<usize> {
        nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| n.device == device && n.stream == stream && n.start <= t && t < n.end)
            .max_by_key(|(i, n)| (n.start, *i))
            .map(|(i, _)| i)
            .or_else(|| pred(device, stream, t))
    };

    let mut cursor = makespan_ns;
    // Start from the globally last-finishing op at or before the makespan.
    let mut cur = nodes
        .iter()
        .enumerate()
        .filter(|(_, n)| n.end <= cursor && n.start < cursor)
        .max_by_key(|(i, n)| (n.end, std::cmp::Reverse(n.device), n.start, *i))
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
                let inc = release.and_then(|rel| {
                    record
                        .increments
                        .iter()
                        .filter(|i| {
                            i.device == rel.device
                                && i.table == rel.table
                                && i.group == rel.group
                                && i.at <= rel.at
                        })
                        .max_by_key(|i| i.at)
                });
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Serialize → parse is the identity on any JSON document, for both
    /// the compact and the pretty writer.
    #[test]
    fn json_round_trips(words in prop::collection::vec(any::<u64>(), 1..64)) {
        let v = build_value(&mut words.iter(), 3, finite_number);
        let compact = json::parse(&v.to_json());
        prop_assert_eq!(compact.as_ref(), Ok(&v));
        let pretty = json::parse(&v.to_json_pretty());
        prop_assert_eq!(pretty.as_ref(), Ok(&v));
    }

    /// The streaming writer writes exactly the bytes of the tree
    /// serializer it replaced, compact and pretty, into a `String` and
    /// into an `io::Write` sink.
    #[test]
    fn writer_matches_the_tree_oracle(words in prop::collection::vec(any::<u64>(), 1..96)) {
        let v = build_value(&mut words.iter(), 4, any_number);
        // Nested deeper than the writer's precomputed indentation too.
        let nest = (words[0] % 24) as usize;
        let v = (0..nest).fold(v, |v, i| {
            if i % 2 == 0 {
                Value::Arr(vec![Value::Null, v])
            } else {
                Value::Obj(vec![("k".into(), v), ("\"".into(), Value::Bool(true))])
            }
        });
        let mut compact = String::new();
        oracle_write(&v, &mut compact, None, 0);
        let mut pretty = String::new();
        oracle_write(&v, &mut pretty, Some(2), 0);
        pretty.push('\n');
        prop_assert_eq!(&v.to_json(), &compact);
        prop_assert_eq!(&v.to_json_pretty(), &pretty);
        let mut streamed = Vec::new();
        json::Document(&v).write_pretty(&mut streamed).unwrap();
        prop_assert_eq!(streamed, pretty.into_bytes());
    }

    /// Overlap efficiency is always in [0, 1] whenever it is defined,
    /// regardless of where the measured latency lands relative to the
    /// reference and the bound.
    #[test]
    fn overlap_efficiency_stays_in_unit_interval(
        measured in 0u64..2_000_000,
        base in 0u64..2_000_000,
        theory in 0u64..2_000_000,
    ) {
        let eff = overlap_efficiency(
            SimDuration::from_nanos(measured),
            SimDuration::from_nanos(base),
            SimDuration::from_nanos(theory),
        );
        match eff {
            Some(e) => {
                prop_assert!((0.0..=1.0).contains(&e), "eff {}", e);
                prop_assert!(base > theory);
            }
            None => prop_assert!(base <= theory),
        }
    }

    /// Efficiency is monotone: a faster measured latency never scores
    /// lower, hitting the bound scores a perfect 1, and matching the
    /// non-overlap reference scores 0.
    #[test]
    fn overlap_efficiency_is_monotone(
        theory_ns in 1u64..1_000_000,
        headroom in 1u64..1_000_000,
        a in 0u64..1_000_000,
        b in 0u64..1_000_000,
    ) {
        let base = SimDuration::from_nanos(theory_ns + headroom);
        let theory = SimDuration::from_nanos(theory_ns);
        let (fast, slow) = (a.min(b), a.max(b));
        let eff = |m: u64| {
            overlap_efficiency(SimDuration::from_nanos(m), base, theory)
                .expect("base > theory")
        };
        prop_assert!(eff(theory_ns + fast) >= eff(theory_ns + slow));
        prop_assert!((eff(theory_ns) - 1.0).abs() < 1e-12);
        prop_assert!(eff(theory_ns + headroom).abs() < 1e-12);
    }

    /// The indexed signal join equals the naive full-scan join on any
    /// record: bulk group-run rows (`by > 1`) as well as unit rows, with
    /// increments in time order (as the recorder appends them) or out of
    /// it (hand-built records).
    #[test]
    fn signal_summary_matches_naive_join(
        increments in prop::collection::vec(
            (0u64..40, 0usize..2, 0usize..2, 0usize..3, 1u32..5),
            0..40,
        ),
        satisfied in prop::collection::vec(
            (0u64..40, 0usize..2, 0usize..2, 0usize..2, 0usize..3),
            0..12,
        ),
        spans in prop::collection::vec((0usize..2, 0usize..2, 0u64..50, 0usize..4), 0..8),
        time_ordered in any::<bool>(),
    ) {
        let mut increments: Vec<IncrementEvent> = increments
            .iter()
            .map(|&(at, device, table, group, by)| IncrementEvent {
                at: SimTime::from_nanos(at),
                device,
                stream: 0,
                table,
                group,
                by,
            })
            .collect();
        if time_ordered {
            increments.sort_by_key(|inc| inc.at);
        }
        let satisfied = satisfied
            .iter()
            .map(|&(at, device, stream, table, group)| WaitSatisfied {
                at: SimTime::from_nanos(at),
                device,
                stream,
                table,
                group,
                threshold: 1,
            })
            .collect();
        let record = TelemetryRecord {
            increments,
            satisfied,
            ..TelemetryRecord::default()
        };
        let spans: Vec<OpSpan> = spans
            .iter()
            .map(|&(device, stream, start, group)| OpSpan {
                device,
                stream,
                name: "collective",
                // Group 3 stands for an untagged collective.
                meta: SpanMeta::Collective { bytes: 0, group: (group < 3).then_some(group) },
                start: SimTime::from_nanos(start),
                end: SimTime::from_nanos(start + 10),
            })
            .collect();
        prop_assert_eq!(
            signal_summary(&record, &spans),
            naive_signal_summary(&record, &spans)
        );
    }
}

proptest! {
    // Tie-breaks bite only when a hop lands exactly on a span edge, so
    // this property needs many more cases than the others.
    #![proptest_config(ProptestConfig::with_cases(4096))]

    /// The indexed attribution walk equals the naive full-scan walk,
    /// segment for segment, on random spans (overlapping and tied on one
    /// stream included) and random records, against the last span end or
    /// a padded makespan.
    #[test]
    fn attribution_matches_naive_walk(
        spans in prop::collection::vec(
            (0usize..2, 0usize..2, 0usize..SPAN_NAMES.len(), 0u64..12, 0u64..6),
            0..24,
        ),
        increments in prop::collection::vec(
            (0u64..18, 0usize..2, 0usize..2, 0usize..3, 1u32..4),
            0..16,
        ),
        satisfied in prop::collection::vec((0u64..18, 0usize..2, 0usize..2, 0usize..3), 0..12),
        gpu_events in prop::collection::vec(
            (0u64..18, 0usize..2, 0usize..2, 0usize..3, any::<bool>()),
            0..12,
        ),
        pad in 0u64..100,
        padded in any::<bool>(),
    ) {
        // A 10 ns grid makes ties in start, end and instant common.
        let t = |x: u64| SimTime::from_nanos(x * 10);
        let spans: Vec<OpSpan> = spans
            .iter()
            .map(|&(device, stream, name, start, len)| OpSpan {
                device,
                stream,
                name: SPAN_NAMES[name],
                meta: SpanMeta::None,
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
        let makespan = last_end + if padded { pad * 10 } else { 0 };
        let fast = attribute_makespan(&spans, &record, makespan);
        prop_assert!(fast.identity_holds());
        prop_assert_eq!(fast, naive_attribute_makespan(&spans, &record, makespan));
    }
}
