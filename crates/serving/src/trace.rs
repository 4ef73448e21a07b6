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

use std::fmt;

use telemetry::json::{Document, JsonWriter, Sink, WriteJson};

use crate::report::{BatchRecord, ServeReport};

/// The request-lifecycle trace of one serve run, written straight from
/// its report (see [`serve_trace`]).
#[derive(Debug)]
pub struct ServeTrace<'a> {
    report: &'a ServeReport,
    /// Index into `report.batch_records` of each batch id's first row
    /// (`usize::MAX` for a batch that never executed), so each flow
    /// arrow finds its batch slice without a scan.
    batch_index: Vec<usize>,
    /// The queue-depth counter's samples: `(instant, depth after it)`,
    /// one per distinct instant, in time order.
    depths: Vec<(u64, i64)>,
}

/// The request-lifecycle trace document of a serve run, ready to render
/// or stream.
pub fn serve_trace(report: &ServeReport) -> Document<ServeTrace<'_>> {
    let batches = report.batch_records.iter().map(|b| b.id as usize + 1);
    let mut batch_index = vec![usize::MAX; batches.max().unwrap_or(0)];
    for (i, b) in report.batch_records.iter().enumerate().rev() {
        if let Some(slot) = batch_index.get_mut(b.id as usize) {
            *slot = i;
        }
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
    let mut depths = Vec::new();
    let mut depth = 0i64;
    for (i, &(at, delta)) in edges.iter().enumerate() {
        depth += delta;
        if edges.get(i + 1).is_none_or(|&(next, _)| next != at) {
            depths.push((at, depth));
        }
    }
    Document(ServeTrace {
        report,
        batch_index,
        depths,
    })
}

/// Writes the members every trace event starts with — `name`, `ph`,
/// `pid`, `tid` and `ts` (microseconds), in that order — into an open
/// event object.
fn event<W: Sink>(w: &mut JsonWriter<W>, ph: &str, name: &str, pid: usize, ts: f64) {
    w.key("name").str(name);
    w.key("ph").str(ph);
    w.key("pid").num(pid as f64);
    w.key("tid").num(0.0);
    w.key("ts").num(ts);
}

fn named_meta<W: Sink>(w: &mut JsonWriter<W>, kind: &str, pid: usize, name: &str) {
    w.obj(|w| {
        event(w, "M", kind, pid, 0.0);
        w.key("args").obj(|w| {
            w.key("name").str(name);
        });
    });
}

impl WriteJson for ServeTrace<'_> {
    fn write_json<W: Sink>(&self, w: &mut JsonWriter<W>) {
        let report = self.report;
        w.obj(|w| {
            w.key("traceEvents").arr(|w| {
                named_meta(w, "process_name", 0, "serving");
                named_meta(w, "thread_name", 0, "requests");
                let mut label = String::new();
                for r in &report.replica_stats {
                    let pid = r.id + 1;
                    label.clear();
                    let _ = fmt::Write::write_fmt(&mut label, format_args!("replica {}", r.id));
                    named_meta(w, "process_name", pid, &label);
                    named_meta(w, "thread_name", pid, "batches");
                }

                // Async request spans: arrival → completion on the
                // serving track.
                for r in &report.records {
                    let Some(latency) = r.latency_ns else {
                        continue;
                    };
                    let id = (r.id + 1) as f64;
                    w.obj(|w| {
                        event(w, "b", r.model, 0, r.arrival_ns as f64 / 1e3);
                        w.key("cat").str("request");
                        w.key("id").num(id);
                        w.key("args").obj(|w| {
                            w.key("tokens").num(f64::from(r.tokens));
                            w.key("disposition").str(r.disposition.label());
                            w.key("batch").opt_num(r.batch.map(|b| b as f64));
                        });
                    });
                    w.obj(|w| {
                        event(w, "e", r.model, 0, (r.arrival_ns + latency) as f64 / 1e3);
                        w.key("cat").str("request");
                        w.key("id").num(id);
                    });
                }

                // Batch slices on their replicas' tracks.
                for b in &report.batch_records {
                    batch_slice(w, b, &mut label);
                }

                // Flow arrows: batch close on the serving track → the
                // executing batch slice. One arrow per request keeps slow
                // requests traceable to the replica that served them.
                for r in &report.records {
                    let (Some(form_wait), Some(batch_id)) = (r.form_wait_ns, r.batch) else {
                        continue;
                    };
                    let Some(batch) = self
                        .batch_index
                        .get(batch_id as usize)
                        .and_then(|&i| report.batch_records.get(i))
                    else {
                        continue;
                    };
                    let id = (r.id + 1) as f64;
                    let close_us = (r.arrival_ns + form_wait) as f64 / 1e3;
                    w.obj(|w| {
                        event(w, "s", "dispatch", 0, close_us);
                        w.key("cat").str("dispatch");
                        w.key("id").num(id);
                    });
                    w.obj(|w| {
                        let start_us = batch.start_ns as f64 / 1e3;
                        event(w, "f", "dispatch", batch.replica + 1, start_us);
                        w.key("cat").str("dispatch");
                        w.key("id").num(id);
                        w.key("bp").str("e");
                    });
                }

                for &(at, depth) in &self.depths {
                    w.obj(|w| {
                        event(w, "C", "queue depth", 0, at as f64 / 1e3);
                        w.key("args").obj(|w| {
                            w.key("requests").num(depth.max(0) as f64);
                        });
                    });
                }
            });
            w.key("displayTimeUnit").str("ns");
        });
    }
}

/// Writes a batch's duration slice; `label` is a buffer for its name.
fn batch_slice<W: Sink>(w: &mut JsonWriter<W>, b: &BatchRecord, label: &mut String) {
    label.clear();
    let _ = fmt::Write::write_fmt(label, format_args!("batch {}", b.id));
    w.obj(|w| {
        event(w, "X", label, b.replica + 1, b.start_ns as f64 / 1e3);
        w.key("dur").num(b.exec_ns as f64 / 1e3);
        w.key("cat").str("batch");
        w.key("args").obj(|w| {
            w.key("model").str(b.model);
            w.key("requests").num(b.requests as f64);
            w.key("tokens").num(f64::from(b.tokens));
            w.key("padded_tokens").num(f64::from(b.padded_tokens));
            w.key("outcome").str(b.outcome);
            w.key("routing").str(b.routing);
            w.key("cache_hit").bool(b.cache_hit);
            w.key("chain_len").num(b.chain_len as f64);
            w.key("queue_wait_ns").num(b.queue_wait_ns as f64);
        });
    });
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::indexing_slicing)]
mod tests {
    use super::*;
    use flashoverlap::SystemSpec;
    use telemetry::json::{self, Value};

    use crate::server::{serve, ServeConfig};

    #[test]
    fn serve_trace_links_requests_to_batches_and_balances_the_queue() {
        let mut cfg = ServeConfig::new(SystemSpec::rtx4090(2));
        cfg.requests = 40;
        cfg.seed = 3;
        let report = serve(&cfg).unwrap();
        let doc = json::parse(&serve_trace(&report).to_json()).unwrap();
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
