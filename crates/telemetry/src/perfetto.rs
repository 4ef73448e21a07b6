//! Perfetto / Chrome trace-event exporter.
//!
//! Emits a `{"traceEvents": [...]}` document loadable in
//! [ui.perfetto.dev](https://ui.perfetto.dev) or `chrome://tracing`:
//!
//! - one *process* per simulated device, one *thread* per stream
//!   (metadata events name both);
//! - a duration (`ph: "X"`) slice per operation span, with the span's
//!   metadata (tiles/waves for GEMMs, bytes/group for collectives) in
//!   `args`;
//! - a flow (`ph: "s"` → `ph: "f"`) per released signal wait, drawn from
//!   the releasing counting-table increment on the compute stream to the
//!   group's collective launch on the communication stream;
//! - counter (`ph: "C"`) tracks for counting-table state, per-link
//!   bandwidth, and SM occupancy.
//!
//! Timestamps are microseconds (the trace-event format's unit).

use gpu_sim::{OpSpan, RuntimeEventKind, SpanMeta};
use sim::SimTime;

use crate::attribution::Attribution;
use crate::index::with_signal_index;
use crate::json::Value;
use crate::record::TelemetryRecord;

fn us(t: SimTime) -> f64 {
    (t - SimTime::ZERO).as_nanos() as f64 / 1e3
}

/// The fields every trace event starts with — `name`, `ph`, `pid`,
/// `tid` and `ts` (microseconds), in that order — for the caller to
/// extend with `cat`, `id`, `args` and the like before wrapping it in
/// [`Value::obj`].
pub fn event(ph: &str, name: &str, pid: usize, tid: usize, ts: f64) -> Vec<(&'static str, Value)> {
    vec![
        ("name", Value::str(name)),
        ("ph", Value::str(ph)),
        ("pid", Value::num(pid as f64)),
        ("tid", Value::num(tid as f64)),
        ("ts", Value::num(ts)),
    ]
}

/// Builds the trace document for `spans`, enriched with flow events and
/// counter tracks when a causal `record` is available (plain
/// span-timeline traces pass `None`).
pub fn trace(spans: &[OpSpan], record: Option<&TelemetryRecord>) -> Value {
    let mut events: Vec<Value> = Vec::new();

    // Process/thread naming metadata. Streams referenced only by counter
    // events still get rows via their devices' spans.
    let mut devices: Vec<usize> = spans.iter().map(|s| s.device).collect();
    devices.sort_unstable();
    devices.dedup();
    for &d in &devices {
        let mut e = event("M", "process_name", d, 0, 0.0);
        e.push((
            "args",
            Value::obj(vec![("name", Value::str(format!("device {d}")))]),
        ));
        events.push(Value::obj(e));
    }
    let mut streams: Vec<(usize, usize)> = spans.iter().map(|s| (s.device, s.stream)).collect();
    streams.sort_unstable();
    streams.dedup();
    for &(d, s) in &streams {
        let mut e = event("M", "thread_name", d, s, 0.0);
        e.push((
            "args",
            Value::obj(vec![("name", Value::str(format!("stream {s}")))]),
        ));
        events.push(Value::obj(e));
    }

    // Duration slices. Zero-length host-probe callbacks are noise.
    for span in spans.iter().filter(|s| s.name != "callback") {
        let mut e = event("X", span.name, span.device, span.stream, us(span.start));
        e.push((
            "dur",
            Value::num((span.end - span.start).as_nanos() as f64 / 1e3),
        ));
        match span.meta {
            SpanMeta::None => {}
            SpanMeta::Gemm { tiles, waves } => {
                e.push((
                    "args",
                    Value::obj(vec![
                        ("tiles", Value::num(tiles as f64)),
                        ("waves", Value::num(waves as f64)),
                    ]),
                ));
            }
            SpanMeta::Collective { bytes, group } => {
                e.push((
                    "args",
                    Value::obj(vec![
                        ("bytes", Value::num(bytes as f64)),
                        ("group", group.map_or(Value::Null, |g| Value::num(g as f64))),
                    ]),
                ));
            }
        }
        events.push(Value::obj(e));
    }

    if let Some(record) = record {
        flow_events(record, spans, &mut events);
        counter_events(record, &mut events);
        instant_events(record, &mut events);
    }

    Value::obj(vec![
        ("traceEvents", Value::Arr(events)),
        ("displayTimeUnit", Value::str("ns")),
    ])
}

/// Serializes the trace document compactly.
pub fn trace_string(spans: &[OpSpan], record: Option<&TelemetryRecord>) -> String {
    trace(spans, record).to_json()
}

/// Builds the trace document with a highlighted **critical path** track
/// appended: a synthetic process (one pid past the last device) whose
/// single thread carries one `ph: "X"` slice per attribution segment,
/// named by category, so the exclusive latency breakdown reads directly
/// off the timeline above the per-stream rows it was derived from.
pub fn trace_with_attribution(
    spans: &[OpSpan],
    record: Option<&TelemetryRecord>,
    attribution: &Attribution,
) -> Value {
    let doc = trace(spans, record);
    let pid = spans.iter().map(|s| s.device + 1).max().unwrap_or(1);
    let mut extra: Vec<Value> = Vec::new();
    let mut name_proc = event("M", "process_name", pid, 0, 0.0);
    name_proc.push((
        "args",
        Value::obj(vec![("name", Value::str("critical path"))]),
    ));
    extra.push(Value::obj(name_proc));
    let mut name_thread = event("M", "thread_name", pid, 0, 0.0);
    name_thread.push((
        "args",
        Value::obj(vec![("name", Value::str("attribution"))]),
    ));
    extra.push(Value::obj(name_thread));
    for seg in &attribution.segments {
        let mut e = event("X", seg.category.label(), pid, 0, seg.start_ns as f64 / 1e3);
        e.push(("dur", Value::num(seg.len_ns() as f64 / 1e3)));
        e.push(("cat", Value::str("critical-path")));
        e.push((
            "args",
            Value::obj(vec![
                ("op", Value::str(seg.op)),
                (
                    "device",
                    seg.device.map_or(Value::Null, |d| Value::num(d as f64)),
                ),
                (
                    "stream",
                    seg.stream.map_or(Value::Null, |s| Value::num(s as f64)),
                ),
            ]),
        ));
        extra.push(Value::obj(e));
    }
    // Splice the extra events into the document's event array.
    match doc {
        Value::Obj(mut pairs) => {
            for (k, v) in &mut pairs {
                if k == "traceEvents" {
                    if let Value::Arr(events) = v {
                        events.append(&mut extra);
                    }
                }
            }
            Value::Obj(pairs)
        }
        other => other,
    }
}

/// One flow arrow per released signal wait: from the counting-table
/// increment that crossed the threshold (inside the GEMM slice on the
/// compute stream) to the group's collective slice on the communication
/// stream.
fn flow_events(record: &TelemetryRecord, spans: &[OpSpan], events: &mut Vec<Value>) {
    with_signal_index(record, spans, |index| {
        for (i, ws) in record.satisfied.iter().enumerate() {
            let Some(inc) = index.releasing_increment(ws) else {
                continue;
            };
            let Some(start) = index.collective_after(ws) else {
                continue;
            };
            let id = (i + 1) as f64;
            let mut s = event("s", "signal", inc.device, inc.stream, us(inc.at));
            s.push(("cat", Value::str("signal")));
            s.push(("id", Value::num(id)));
            events.push(Value::obj(s));
            let mut f = event("f", "signal", ws.device, ws.stream, us(start));
            f.push(("cat", Value::str("signal")));
            f.push(("id", Value::num(id)));
            // Bind to the enclosing (collective) slice that begins here.
            f.push(("bp", Value::str("e")));
            events.push(Value::obj(f));
        }
    });
}

/// Instant markers (`ph: "i"`, process scope) for fault-injection and
/// watchdog-recovery occurrences — the recovery timeline of a resilient
/// run, placed on the affected device's track.
fn instant_events(record: &TelemetryRecord, events: &mut Vec<Value>) {
    for ev in &record.runtime_events {
        let name = match ev.detail.kind() {
            RuntimeEventKind::FaultInjected => "fault-injected",
            RuntimeEventKind::WatchdogFired => "watchdog-fired",
            RuntimeEventKind::FaultQuarantined => "fault-quarantined",
            RuntimeEventKind::TailRecovery => "tail-recovery",
            RuntimeEventKind::DegradedFallback => "degraded-fallback",
        };
        let mut e = event("i", name, ev.device, 0, us(ev.at));
        e.push(("s", Value::str("p")));
        e.push(("cat", Value::str("resilience")));
        e.push((
            "args",
            Value::obj(vec![
                ("detail", Value::str(ev.detail.to_string())),
                (
                    "group",
                    ev.group.map_or(Value::Null, |g| Value::num(g as f64)),
                ),
            ]),
        ));
        events.push(Value::obj(e));
    }
}

/// Counter tracks: counting-table running totals, per-link achieved
/// bandwidth, and SM occupancy.
fn counter_events(record: &TelemetryRecord, events: &mut Vec<Value>) {
    // Counting tables: one track per (device, table, group), stepping
    // once per landed tile to the running total (a group run's row of
    // `by` tiles draws `by` steps at one instant).
    let mut totals: Vec<((usize, usize, usize), u64)> = Vec::new();
    for inc in &record.increments {
        let key = (inc.device, inc.table, inc.group);
        let slot = totals
            .iter()
            .position(|(k, _)| *k == key)
            .unwrap_or_else(|| {
                totals.push((key, 0));
                totals.len() - 1
            });
        let name = format!("counter t{} g{}", inc.table, inc.group);
        for _ in 0..inc.by {
            totals[slot].1 += 1;
            let mut e = event("C", &name, inc.device, 0, us(inc.at));
            e.push((
                "args",
                Value::obj(vec![("count", Value::num(totals[slot].1 as f64))]),
            ));
            events.push(Value::obj(e));
        }
    }

    // Link bandwidth: per directed link, sum the rates of transfers
    // active at each interval edge (bytes/ns == GB/s).
    let mut links: Vec<(usize, usize)> = record.transfers.iter().map(|t| (t.src, t.dst)).collect();
    links.sort_unstable();
    links.dedup();
    for (src, dst) in links {
        let mut edges: Vec<(u64, f64)> = Vec::new();
        for t in record
            .transfers
            .iter()
            .filter(|t| t.src == src && t.dst == dst)
        {
            let dur_ns = (t.end - t.start).as_nanos();
            if dur_ns == 0 {
                continue;
            }
            let rate = t.bytes as f64 / dur_ns as f64;
            edges.push(((t.start - SimTime::ZERO).as_nanos(), rate));
            edges.push(((t.end - SimTime::ZERO).as_nanos(), -rate));
        }
        edges.sort_by(|a, b| {
            a.0.cmp(&b.0)
                .then(a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal))
        });
        let name = format!("link d{src}->d{dst} GB/s");
        let mut active = 0.0f64;
        let mut i = 0;
        while i < edges.len() {
            let at = edges.get(i).map(|&(at, _)| at).unwrap_or(0);
            // Coalesce simultaneous edges into one sample.
            while let Some(&(t, delta)) = edges.get(i) {
                if t != at {
                    break;
                }
                active += delta;
                i += 1;
            }
            let mut e = event("C", &name, src, 0, at as f64 / 1e3);
            e.push((
                "args",
                Value::obj(vec![("gbps", Value::num(active.max(0.0)))]),
            ));
            events.push(Value::obj(e));
        }
    }

    // SM occupancy: both series in every sample.
    for s in &record.occupancy {
        let mut e = event("C", "sm occupancy", s.device, 0, us(s.at));
        e.push((
            "args",
            Value::obj(vec![
                ("compute", Value::num(s.compute_sms as f64)),
                ("comm", Value::num(s.comm_sms as f64)),
            ]),
        ));
        events.push(Value::obj(e));
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::indexing_slicing)]
mod tests {
    use super::*;
    use crate::json;
    use crate::record::{IncrementEvent, WaitSatisfied};

    fn t(ns: u64) -> SimTime {
        SimTime::from_nanos(ns)
    }

    fn sample_spans() -> Vec<OpSpan> {
        vec![
            OpSpan {
                device: 0,
                stream: 0,
                name: "gemm",
                meta: SpanMeta::Gemm { tiles: 8, waves: 2 },
                start: t(0),
                end: t(1_000),
            },
            OpSpan {
                device: 0,
                stream: 1,
                name: "collective",
                meta: SpanMeta::Collective {
                    bytes: 4096,
                    group: Some(0),
                },
                start: t(600),
                end: t(2_000),
            },
            OpSpan {
                device: 0,
                stream: 0,
                name: "callback",
                meta: SpanMeta::None,
                start: t(1_000),
                end: t(1_000),
            },
        ]
    }

    fn sample_record() -> TelemetryRecord {
        let mut record = TelemetryRecord::default();
        record.increments.push(IncrementEvent {
            at: t(400),
            device: 0,
            stream: 0,
            table: 0,
            group: 0,
            by: 1,
        });
        record.satisfied.push(WaitSatisfied {
            at: t(500),
            device: 0,
            stream: 1,
            table: 0,
            group: 0,
            threshold: 1,
        });
        record
    }

    #[test]
    fn trace_parses_and_names_processes() {
        let text = trace_string(&sample_spans(), None);
        let doc = json::parse(&text).unwrap();
        let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
        assert!(events.iter().any(|e| {
            e.get("ph").and_then(Value::as_str) == Some("M")
                && e.get("args")
                    .and_then(|a| a.get("name"))
                    .and_then(Value::as_str)
                    == Some("device 0")
        }));
        // Callback probes are filtered; the two real spans remain.
        let slices: Vec<_> = events
            .iter()
            .filter(|e| e.get("ph").and_then(Value::as_str) == Some("X"))
            .collect();
        assert_eq!(slices.len(), 2);
        assert_eq!(
            slices[0]
                .get("args")
                .unwrap()
                .get("tiles")
                .unwrap()
                .as_f64(),
            Some(8.0)
        );
    }

    #[test]
    fn flows_connect_increment_to_collective() {
        let doc = trace(&sample_spans(), Some(&sample_record()));
        let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
        let starts: Vec<_> = events
            .iter()
            .filter(|e| e.get("ph").and_then(Value::as_str) == Some("s"))
            .collect();
        let ends: Vec<_> = events
            .iter()
            .filter(|e| e.get("ph").and_then(Value::as_str) == Some("f"))
            .collect();
        assert_eq!((starts.len(), ends.len()), (1, 1));
        assert_eq!(starts[0].get("ts").unwrap().as_f64(), Some(0.4));
        assert_eq!(ends[0].get("ts").unwrap().as_f64(), Some(0.6));
        assert_eq!(starts[0].get("id"), ends[0].get("id"));
        // The flow start must sit inside an emitted slice on its track.
        let (pid, tid, ts) = (
            starts[0].get("pid").unwrap().as_f64().unwrap(),
            starts[0].get("tid").unwrap().as_f64().unwrap(),
            starts[0].get("ts").unwrap().as_f64().unwrap(),
        );
        assert!(events.iter().any(|e| {
            e.get("ph").and_then(Value::as_str) == Some("X")
                && e.get("pid").unwrap().as_f64() == Some(pid)
                && e.get("tid").unwrap().as_f64() == Some(tid)
                && e.get("ts").unwrap().as_f64().unwrap() <= ts
                && e.get("ts").unwrap().as_f64().unwrap() + e.get("dur").unwrap().as_f64().unwrap()
                    >= ts
        }));
    }

    #[test]
    fn attribution_track_rides_above_device_rows() {
        let spans = sample_spans();
        let record = sample_record();
        let attribution = crate::attribution::attribute(&spans, &record);
        let doc = trace_with_attribution(&spans, Some(&record), &attribution);
        let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
        // The synthetic process sits past the last device and is named.
        assert!(events.iter().any(|e| {
            e.get("ph").and_then(Value::as_str) == Some("M")
                && e.get("pid").and_then(Value::as_f64) == Some(1.0)
                && e.get("args")
                    .and_then(|a| a.get("name"))
                    .and_then(Value::as_str)
                    == Some("critical path")
        }));
        // One slice per segment, named by category, tiling the makespan.
        let slices: Vec<_> = events
            .iter()
            .filter(|e| {
                e.get("ph").and_then(Value::as_str) == Some("X")
                    && e.get("cat").and_then(Value::as_str) == Some("critical-path")
            })
            .collect();
        assert_eq!(slices.len(), attribution.segments.len());
        let total_us: f64 = slices
            .iter()
            .map(|e| e.get("dur").and_then(Value::as_f64).unwrap())
            .sum();
        assert!((total_us - attribution.makespan_ns as f64 / 1e3).abs() < 1e-9);
        // The fixture has no wait span, so the path is the collective
        // plus the leading idle gap.
        assert!(slices
            .iter()
            .any(|e| e.get("name").and_then(Value::as_str) == Some("collective-transfer")));
    }

    #[test]
    fn counter_tracks_step_to_running_totals() {
        let mut record = sample_record();
        record.increments.push(IncrementEvent {
            at: t(450),
            device: 0,
            stream: 0,
            table: 0,
            group: 0,
            by: 1,
        });
        let doc = trace(&sample_spans(), Some(&record));
        let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
        let counts: Vec<f64> = events
            .iter()
            .filter(|e| {
                e.get("ph").and_then(Value::as_str) == Some("C")
                    && e.get("name").and_then(Value::as_str) == Some("counter t0 g0")
            })
            .map(|e| {
                e.get("args")
                    .unwrap()
                    .get("count")
                    .unwrap()
                    .as_f64()
                    .unwrap()
            })
            .collect();
        assert_eq!(counts, vec![1.0, 2.0]);
    }
}
