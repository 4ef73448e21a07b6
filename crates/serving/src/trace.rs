//! Request-lifecycle Perfetto exporter for serve runs.
//!
//! Renders a [`ServeReport`] as a `{"traceEvents": [...]}` document
//! loadable in [ui.perfetto.dev](https://ui.perfetto.dev):
//!
//! - process 0 (`serving`) carries one async span (`ph: "b"` → `"e"`)
//!   per completed request, from arrival to completion, plus a
//!   queue-depth counter track stepping at every arrival (+1) and batch
//!   close (−1) — admission backpressure at a glance;
//! - one process per replica with a duration (`ph: "X"`) slice per
//!   executed batch, carrying its routing decision, outcome, and
//!   queue wait in `args`;
//! - a flow arrow (`ph: "s"` → `"f"`) per request from its batch-close
//!   instant on the serving track into the batch slice that executed
//!   it, so a slow request traces visually to the replica and batch
//!   that served it.
//!
//! Timestamps are microseconds (the trace-event format's unit). The
//! export is deterministic: events are emitted in fixed id order.

use telemetry::json::Value;
use telemetry::perfetto::event;

use crate::report::{BatchRecord, ServeReport};

fn named_meta(kind: &str, pid: usize, tid: usize, name: &str) -> Value {
    let mut e = event("M", kind, pid, tid, 0.0);
    e.push(("args", Value::obj(vec![("name", Value::str(name))])));
    Value::obj(e)
}

/// Builds the request-lifecycle trace document for a serve run.
pub fn serve_trace(report: &ServeReport) -> Value {
    let mut events: Vec<Value> = Vec::new();

    events.push(named_meta("process_name", 0, 0, "serving"));
    events.push(named_meta("thread_name", 0, 0, "requests"));
    for r in &report.replica_stats {
        let pid = r.id + 1;
        events.push(named_meta(
            "process_name",
            pid,
            0,
            &format!("replica {}", r.id),
        ));
        events.push(named_meta("thread_name", pid, 0, "batches"));
    }

    // Async request spans: arrival → completion on the serving track.
    for r in &report.records {
        let Some(latency) = r.latency_ns else {
            continue;
        };
        let id = (r.id + 1) as f64;
        let mut b = event("b", r.model, 0, 0, r.arrival_ns as f64 / 1e3);
        b.push(("cat", Value::str("request")));
        b.push(("id", Value::num(id)));
        b.push((
            "args",
            Value::obj(vec![
                ("tokens", Value::num(f64::from(r.tokens))),
                ("disposition", Value::str(r.disposition.label())),
                (
                    "batch",
                    r.batch.map_or(Value::Null, |b| Value::num(b as f64)),
                ),
            ]),
        ));
        events.push(Value::obj(b));
        let mut e = event("e", r.model, 0, 0, (r.arrival_ns + latency) as f64 / 1e3);
        e.push(("cat", Value::str("request")));
        e.push(("id", Value::num(id)));
        events.push(Value::obj(e));
    }

    // Batch slices on their replicas' tracks.
    for b in &report.batch_records {
        events.push(batch_slice(b));
    }

    // Flow arrows: batch close on the serving track → the executing
    // batch slice. One arrow per request keeps slow requests traceable
    // to the replica that served them.
    for r in &report.records {
        let (Some(form_wait), Some(batch_id)) = (r.form_wait_ns, r.batch) else {
            continue;
        };
        let Some(batch) = report.batch_records.iter().find(|b| b.id == batch_id) else {
            continue;
        };
        let id = (r.id + 1) as f64;
        let close_us = (r.arrival_ns + form_wait) as f64 / 1e3;
        let mut s = event("s", "dispatch", 0, 0, close_us);
        s.push(("cat", Value::str("dispatch")));
        s.push(("id", Value::num(id)));
        events.push(Value::obj(s));
        let mut f = event(
            "f",
            "dispatch",
            batch.replica + 1,
            0,
            batch.start_ns as f64 / 1e3,
        );
        f.push(("cat", Value::str("dispatch")));
        f.push(("id", Value::num(id)));
        f.push(("bp", Value::str("e")));
        events.push(Value::obj(f));
    }

    // Queue-depth counter: +1 at each admitted arrival, −1 when the
    // request's batch closes. Edges are sorted, then coalesced so every
    // emitted sample is the exact depth after that instant.
    let mut edges: Vec<(u64, i64)> = Vec::new();
    for r in &report.records {
        if let Some(form_wait) = r.form_wait_ns {
            edges.push((r.arrival_ns, 1));
            edges.push((r.arrival_ns + form_wait, -1));
        }
    }
    edges.sort_unstable();
    let mut depth = 0i64;
    let mut i = 0;
    while i < edges.len() {
        let at = edges[i].0;
        while let Some(&(t, delta)) = edges.get(i) {
            if t != at {
                break;
            }
            depth += delta;
            i += 1;
        }
        let mut e = event("C", "queue depth", 0, 0, at as f64 / 1e3);
        e.push((
            "args",
            Value::obj(vec![("requests", Value::num(depth.max(0) as f64))]),
        ));
        events.push(Value::obj(e));
    }

    Value::obj(vec![
        ("traceEvents", Value::Arr(events)),
        ("displayTimeUnit", Value::str("ns")),
    ])
}

fn batch_slice(b: &BatchRecord) -> Value {
    let mut e = event(
        "X",
        &format!("batch {}", b.id),
        b.replica + 1,
        0,
        b.start_ns as f64 / 1e3,
    );
    e.push(("dur", Value::num(b.exec_ns as f64 / 1e3)));
    e.push(("cat", Value::str("batch")));
    e.push((
        "args",
        Value::obj(vec![
            ("model", Value::str(b.model)),
            ("requests", Value::num(b.requests as f64)),
            ("tokens", Value::num(f64::from(b.tokens))),
            ("padded_tokens", Value::num(f64::from(b.padded_tokens))),
            ("outcome", Value::str(b.outcome)),
            ("routing", Value::str(b.routing)),
            ("cache_hit", Value::Bool(b.cache_hit)),
            ("chain_len", Value::num(b.chain_len as f64)),
            ("queue_wait_ns", Value::num(b.queue_wait_ns as f64)),
        ]),
    ));
    Value::obj(e)
}

/// Serializes the serve trace compactly.
pub fn serve_trace_string(report: &ServeReport) -> String {
    serve_trace(report).to_json()
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::indexing_slicing)]
mod tests {
    use super::*;
    use flashoverlap::SystemSpec;

    use crate::server::{serve, ServeConfig};

    #[test]
    fn serve_trace_links_requests_to_batches_and_balances_the_queue() {
        let mut cfg = ServeConfig::new(SystemSpec::rtx4090(2));
        cfg.requests = 40;
        cfg.seed = 3;
        let report = serve(&cfg).unwrap();
        let doc = serve_trace(&report);
        let events = doc.get("traceEvents").unwrap().as_arr().unwrap();

        let count = |ph: &str| {
            events
                .iter()
                .filter(|e| e.get("ph").and_then(Value::as_str) == Some(ph))
                .count()
        };
        let completed = report
            .records
            .iter()
            .filter(|r| r.latency_ns.is_some())
            .count();
        // One async begin/end pair per completed request.
        assert_eq!(count("b"), completed);
        assert_eq!(count("e"), completed);
        // One slice per batch; one flow pair per completed request.
        assert_eq!(count("X"), report.batch_records.len());
        assert_eq!(count("s"), completed);
        assert_eq!(count("f"), completed);

        // Every flow lands on a replica pid with a slice starting there.
        for f in events
            .iter()
            .filter(|e| e.get("ph").and_then(Value::as_str) == Some("f"))
        {
            let pid = f.get("pid").unwrap().as_f64().unwrap();
            let ts = f.get("ts").unwrap().as_f64().unwrap();
            assert!(events.iter().any(|e| {
                e.get("ph").and_then(Value::as_str) == Some("X")
                    && e.get("pid").unwrap().as_f64() == Some(pid)
                    && e.get("ts").unwrap().as_f64() == Some(ts)
            }));
        }

        // The queue-depth counter returns to zero at the end.
        let depths: Vec<f64> = events
            .iter()
            .filter(|e| e.get("ph").and_then(Value::as_str) == Some("C"))
            .map(|e| {
                e.get("args")
                    .unwrap()
                    .get("requests")
                    .unwrap()
                    .as_f64()
                    .unwrap()
            })
            .collect();
        assert!(!depths.is_empty());
        assert!(depths.iter().any(|&d| d > 0.0), "queue must fill");
        assert_eq!(*depths.last().unwrap(), 0.0, "queue must drain");
    }
}
