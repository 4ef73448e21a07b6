//! End-to-end profiling tests: run the full method sweep on a fixed
//! workload and validate the derived report and exported trace.

use flashoverlap::runtime::CommPattern;
use flashoverlap::SystemSpec;
use gpu_sim::gemm::GemmDims;
use telemetry::json::{self, Value};
use telemetry::perfetto;
use telemetry::profile::profile;
use telemetry::record::IncrementEvent;
use telemetry::TelemetryRecord;

fn nvlink_profile() -> telemetry::Profile {
    let dims = GemmDims::new(2048, 4096, 4096);
    let system = SystemSpec::a800(2);
    profile(dims, &CommPattern::AllReduce, &system).expect("profile run")
}

#[test]
fn report_covers_every_method_with_unit_interval_efficiency() {
    let p = nvlink_profile();
    assert_eq!(p.report.methods.len(), 5);
    // On NVLink AllReduce every method applies; every one must yield a
    // latency and an overlap efficiency inside [0, 1].
    for m in &p.report.methods {
        assert!(m.applicable, "{} inapplicable on NVLink AllReduce", m.name);
        assert_eq!(m.error, None, "{} failed", m.name);
        let eff = m
            .overlap_efficiency
            .unwrap_or_else(|| panic!("{} has no efficiency", m.name));
        assert!((0.0..=1.0).contains(&eff), "{}: eff {eff}", m.name);
        assert!(m.latency_us.unwrap_or(0.0) > 0.0, "{}", m.name);
    }
    // The non-overlap reference defines efficiency zero.
    let base = &p.report.methods[0];
    assert_eq!(base.name, "Non-overlap");
    assert_eq!(base.overlap_efficiency, Some(0.0));
    // FlashOverlap must actually overlap on this balanced shape.
    let fo = p.report.methods.last().expect("methods non-empty");
    assert_eq!(fo.name, "FlashOverlap");
    assert!(fo.overlap_efficiency.expect("eff") > 0.0);
}

#[test]
fn per_stream_spans_never_overlap() {
    let p = nvlink_profile();
    let mut checked_runs = 0;
    for run in &p.methods {
        let Some(spans) = &run.spans else { continue };
        checked_runs += 1;
        let mut keys: Vec<(usize, usize)> = spans.iter().map(|s| (s.device, s.stream)).collect();
        keys.sort_unstable();
        keys.dedup();
        for (device, stream) in keys {
            let mut stream_spans: Vec<_> = spans
                .iter()
                .filter(|s| s.device == device && s.stream == stream)
                .collect();
            stream_spans.sort_by_key(|s| s.start);
            for pair in stream_spans.windows(2) {
                assert!(
                    pair[1].start >= pair[0].end,
                    "{}: overlap on dev {device} stream {stream}: {:?} vs {:?}",
                    run.method,
                    pair[0],
                    pair[1]
                );
            }
        }
    }
    assert!(checked_runs >= 4, "expected spans from every simulated run");
}

#[test]
fn signal_links_and_occupancy_are_derived() {
    let p = nvlink_profile();
    let signal = p.report.signal_latency.as_ref().expect("signal stats");
    // One sample per (rank, signaled group).
    assert!(signal.samples.len() >= 2);
    assert!(signal.samples.iter().all(|s| s.total_ns > 0));
    assert!(signal.max_total_ns >= signal.min_total_ns);
    // The ring on 2 ranks drives both directed links.
    assert_eq!(p.report.links.len(), 2);
    for l in &p.report.links {
        assert!(l.bytes > 0 && l.busy_ns > 0);
        let u = l.utilization.expect("peak bandwidth known");
        assert!(u > 0.0 && u <= 1.5, "utilization {u}");
    }
    assert_eq!(p.report.occupancy.len(), 2);
    for o in &p.report.occupancy {
        assert!(o.peak_compute_sms > 0);
        assert!(o.peak_comm_sms > 0, "collectives must occupy comm SMs");
        assert!(o.mean_compute_sms > 0.0);
    }
    assert!(!p.report.streams.is_empty());
    assert!(p.report.streams.iter().any(|s| s.busy_frac > 0.1));
}

#[test]
fn trace_has_all_devices_flows_and_counters() {
    let p = nvlink_profile();
    let text = p.trace_string().expect("flashoverlap trace");
    let doc = json::parse(&text).expect("trace must be valid JSON");
    let events = doc
        .get("traceEvents")
        .and_then(Value::as_arr)
        .expect("traceEvents array");

    let ph = |e: &Value| e.get("ph").and_then(Value::as_str).map(str::to_owned);
    // Spans for every device.
    for d in 0..2 {
        assert!(
            events.iter().any(|e| ph(e).as_deref() == Some("X")
                && e.get("pid").and_then(Value::as_f64) == Some(d as f64)),
            "no slices for device {d}"
        );
    }
    // At least one flow per signaled group, and every flow endpoint must
    // land inside (or at the start of) an existing slice on its track.
    let groups = p
        .report
        .signal_latency
        .as_ref()
        .map_or(0, |s| s.samples.len());
    let flows: Vec<&Value> = events
        .iter()
        .filter(|e| matches!(ph(e).as_deref(), Some("s" | "f")))
        .collect();
    assert!(
        flows.len() >= 2 * groups.min(1) && !flows.is_empty(),
        "expected flow events, got {}",
        flows.len()
    );
    let starts = flows
        .iter()
        .filter(|e| ph(e).as_deref() == Some("s"))
        .count();
    assert!(starts >= groups, "{starts} flow starts for {groups} groups");
    for flow in &flows {
        let pid = flow.get("pid").and_then(Value::as_f64).expect("pid");
        let tid = flow.get("tid").and_then(Value::as_f64).expect("tid");
        let ts = flow.get("ts").and_then(Value::as_f64).expect("ts");
        let enclosed = events.iter().any(|e| {
            ph(e).as_deref() == Some("X")
                && e.get("pid").and_then(Value::as_f64) == Some(pid)
                && e.get("tid").and_then(Value::as_f64) == Some(tid)
                && e.get("ts").and_then(Value::as_f64).expect("slice ts") <= ts + 1e-9
                && e.get("ts").and_then(Value::as_f64).expect("slice ts")
                    + e.get("dur").and_then(Value::as_f64).expect("slice dur")
                    >= ts - 1e-9
        });
        assert!(
            enclosed,
            "flow at ts {ts} references no slice on ({pid},{tid})"
        );
    }
    // Counter tracks for counting-table state and SM occupancy.
    assert!(events.iter().any(|e| ph(e).as_deref() == Some("C")
        && e.get("name")
            .and_then(Value::as_str)
            .is_some_and(|n| n.starts_with("counter t"))));
    assert!(events.iter().any(|e| ph(e).as_deref() == Some("C")
        && e.get("name").and_then(Value::as_str) == Some("sm occupancy")));
    assert!(events.iter().any(|e| ph(e).as_deref() == Some("C")
        && e.get("name")
            .and_then(Value::as_str)
            .is_some_and(|n| n.starts_with("link d"))));
}

/// The record keeps a wave's same-group run as one `by: k` increment row,
/// but the trace must not show it: splitting every bulk row of a real
/// FlashOverlap run into `k` unit rows writes byte-identical trace JSON
/// (counter steps, flow arrows and the attribution track alike).
#[test]
fn bulk_increment_rows_trace_like_unit_rows() {
    let p = nvlink_profile();
    let run = p.flashoverlap_run().expect("FlashOverlap ran");
    let spans = run.spans.as_ref().expect("spans");
    let bulk = run.record.as_ref().expect("record");
    assert!(
        bulk.increments.iter().any(|inc| inc.by > 1),
        "a real run lands whole group runs in one row"
    );
    let mut unit = bulk.clone();
    unit.increments = bulk
        .increments
        .iter()
        .flat_map(|inc| std::iter::repeat_n(IncrementEvent { by: 1, ..*inc }, inc.by as usize))
        .collect();
    let trace = |record: &TelemetryRecord| {
        let attribution = telemetry::attribute(spans, record);
        perfetto::trace_with_attribution(spans, Some(record), &attribution).to_json()
    };
    assert_eq!(trace(bulk), trace(&unit));
    assert_eq!(
        perfetto::trace_string(spans, Some(bulk)),
        perfetto::trace_string(spans, Some(&unit))
    );
}

/// The golden fixed-seed report: two independent profiling sessions of
/// the same AllReduce config must serialize to byte-identical JSON (the
/// simulator is deterministic), pinning the report schema and values.
#[test]
fn metrics_report_is_deterministic_golden() {
    let a = nvlink_profile().report.to_json().to_json_pretty();
    let b = nvlink_profile().report.to_json().to_json_pretty();
    assert_eq!(a, b);
    // Schema spot checks against the parsed golden document.
    let doc = json::parse(&a).expect("report JSON");
    for key in [
        "workload",
        "nonoverlap_us",
        "theory_us",
        "methods",
        "signal_latency",
        "links",
        "streams",
        "occupancy",
    ] {
        assert!(doc.get(key).is_some(), "missing {key}");
    }
    assert_eq!(
        doc.get("workload")
            .and_then(|w| w.get("pattern"))
            .and_then(Value::as_str),
        Some("AllReduce")
    );
    assert_eq!(
        doc.get("methods")
            .and_then(Value::as_arr)
            .map(<[Value]>::len),
        Some(5)
    );
}

#[test]
fn pcie_profile_marks_p2p_methods_inapplicable() {
    let dims = GemmDims::new(1024, 2048, 2048);
    let system = SystemSpec::rtx4090(2);
    let p = profile(dims, &CommPattern::AllReduce, &system).expect("profile");
    let by_name = |name: &str| {
        p.report
            .methods
            .iter()
            .find(|m| m.name == name)
            .unwrap_or_else(|| panic!("{name} missing"))
            .clone()
    };
    assert!(!by_name("FLUX").applicable);
    assert!(!by_name("Async-TP").applicable);
    assert_eq!(by_name("FLUX").latency_us, None);
    assert!(by_name("FlashOverlap").applicable);
    // Inapplicable methods still appear in the serialized report.
    let doc = json::parse(&p.report.to_json().to_json()).expect("json");
    assert_eq!(
        doc.get("methods")
            .and_then(Value::as_arr)
            .map(<[Value]>::len),
        Some(5)
    );
}
