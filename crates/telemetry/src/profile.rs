//! The overlap profiler: runs every evaluated method on one workload
//! with the telemetry recorder attached and derives a machine-readable
//! [`MetricsReport`] plus Perfetto traces.

use baselines::{measure_traced, Method};
use flashoverlap::runtime::CommPattern;
use flashoverlap::{nonoverlap_latency, theoretical_latency, FlashOverlapError, SystemSpec};
use gpu_sim::gemm::GemmDims;
use gpu_sim::OpSpan;
use sim::SimDuration;

use crate::json::Value;
use crate::metrics::{
    link_stats, occupancy_stats, overlap_efficiency, signal_summary, stream_stats, LinkPeaks,
    LinkStats, OccupancyStats, SignalSummary, StreamStats,
};
use crate::perfetto;
use crate::record::{Telemetry, TelemetryRecord};

/// One method's profiled run.
#[derive(Debug)]
pub struct MethodRun {
    /// Which method.
    pub method: Method,
    /// Whether the method can run on this pattern/system at all.
    pub applicable: bool,
    /// Measured latency (when the run succeeded).
    pub latency: Option<SimDuration>,
    /// Per-stream operation spans (`None` for analytic methods).
    pub spans: Option<Vec<OpSpan>>,
    /// Causal record (`None` for analytic methods).
    pub record: Option<TelemetryRecord>,
    /// The failure, if the method was applicable but refused the shape.
    pub error: Option<String>,
}

/// A full profiling session over every method in [`Method::ALL`].
#[derive(Debug)]
pub struct Profile {
    /// Per-method runs, in [`Method::ALL`] order.
    pub methods: Vec<MethodRun>,
    /// The non-overlap reference latency (measured when possible,
    /// analytic otherwise).
    pub base: SimDuration,
    /// The perfect-overlap lower bound.
    pub theory: SimDuration,
    /// The derived report.
    pub report: MetricsReport,
}

impl Profile {
    /// The FlashOverlap run (always present in [`Method::ALL`]).
    pub fn flashoverlap_run(&self) -> Option<&MethodRun> {
        self.methods
            .iter()
            .find(|r| r.method == Method::FlashOverlap)
    }

    /// The Perfetto trace of the FlashOverlap run — spans for every
    /// device, signal-flow arrows, and counter tracks. `None` only if
    /// the FlashOverlap run itself failed.
    pub fn trace_string(&self) -> Option<String> {
        let run = self.flashoverlap_run()?;
        let spans = run.spans.as_ref()?;
        Some(perfetto::trace_string(spans, run.record.as_ref()))
    }
}

/// Profiles one workload across all methods.
///
/// Infeasibility of an individual baseline (peer-to-peer method on PCIe,
/// indivisible shape) is *data*, not an error: it lands in that method's
/// [`MethodRun::error`] / `applicable` fields. Only a failure of the
/// non-overlap reference itself is fatal.
///
/// # Errors
///
/// Propagates simulation-engine failures of the reference run.
pub fn profile(
    dims: GemmDims,
    pattern: &CommPattern,
    system: &SystemSpec,
) -> Result<Profile, FlashOverlapError> {
    let theory = theoretical_latency(dims, pattern.primitive(), system);
    let mut methods = Vec::with_capacity(Method::ALL.len());
    for method in Method::ALL {
        if !method.applicable(pattern, system) {
            methods.push(MethodRun {
                method,
                applicable: false,
                latency: None,
                spans: None,
                record: None,
                error: None,
            });
            continue;
        }
        let telemetry = Telemetry::new();
        match measure_traced(method, dims, pattern, system, &telemetry.instrumentation()) {
            Ok(run) => methods.push(MethodRun {
                method,
                applicable: true,
                latency: Some(run.latency),
                record: run.spans.is_some().then(|| telemetry.take_record()),
                spans: run.spans,
                error: None,
            }),
            Err(e) => methods.push(MethodRun {
                method,
                applicable: true,
                latency: None,
                spans: None,
                record: None,
                error: Some(e.to_string()),
            }),
        }
    }
    let base = methods
        .iter()
        .find(|r| r.method == Method::NonOverlap)
        .and_then(|r| r.latency)
        .unwrap_or_else(|| nonoverlap_latency(dims, pattern.primitive(), system));
    let report = build_report(dims, pattern, system, &methods, base, theory);
    Ok(Profile {
        methods,
        base,
        theory,
        report,
    })
}

/// Workload identification for a report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Workload {
    /// GEMM rows.
    pub m: u32,
    /// GEMM columns.
    pub n: u32,
    /// GEMM reduction depth.
    pub k: u32,
    /// Rank count.
    pub n_gpus: usize,
    /// Collective primitive name.
    pub pattern: String,
    /// Fabric name.
    pub fabric: String,
}

/// One method's row in the report.
#[derive(Debug, Clone, PartialEq)]
pub struct MethodMetrics {
    /// Method display name.
    pub name: String,
    /// Whether the method applies to this pattern/system.
    pub applicable: bool,
    /// Measured latency in microseconds.
    pub latency_us: Option<f64>,
    /// Speedup over the non-overlap reference.
    pub speedup: Option<f64>,
    /// Overlap efficiency in `[0, 1]` (see
    /// [`crate::metrics::overlap_efficiency`]). `None` when undefined
    /// *or* when the run is degenerate.
    pub overlap_efficiency: Option<f64>,
    /// The measured run was degenerate (zero-duration span data), so
    /// speedup/efficiency ratios would be meaningless and are withheld.
    pub degenerate: bool,
    /// Why the method failed, when applicable but infeasible.
    pub error: Option<String>,
}

/// The machine-readable profiling report (`--metrics-out`).
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsReport {
    /// What was profiled.
    pub workload: Workload,
    /// Non-overlap reference latency (µs).
    pub nonoverlap_us: f64,
    /// Perfect-overlap bound (µs).
    pub theory_us: f64,
    /// Per-method rows, in [`Method::ALL`] order.
    pub methods: Vec<MethodMetrics>,
    /// Signal-latency statistics of the FlashOverlap run.
    pub signal_latency: Option<SignalSummary>,
    /// Per-link utilization of the FlashOverlap run.
    pub links: Vec<LinkStats>,
    /// Per-stream busy fractions of the FlashOverlap run.
    pub streams: Vec<StreamStats>,
    /// Per-device SM occupancy of the FlashOverlap run.
    pub occupancy: Vec<OccupancyStats>,
}

fn build_report(
    dims: GemmDims,
    pattern: &CommPattern,
    system: &SystemSpec,
    methods: &[MethodRun],
    base: SimDuration,
    theory: SimDuration,
) -> MetricsReport {
    let method_rows = methods
        .iter()
        .map(|run| {
            let latency_us = run.latency.map(|l| l.as_nanos() as f64 / 1e3);
            // A zero-duration measurement (degenerate span data) would
            // divide to an infinite speedup and clamp to a perfect
            // efficiency; flag it and withhold both ratios instead.
            let degenerate = run.latency.is_some_and(|l| l.is_zero());
            let sound = run.latency.filter(|l| !l.is_zero());
            MethodMetrics {
                name: run.method.to_string(),
                applicable: run.applicable,
                latency_us,
                speedup: sound.map(|l| base.as_nanos() as f64 / l.as_nanos() as f64),
                overlap_efficiency: sound.and_then(|l| overlap_efficiency(l, base, theory)),
                degenerate,
                error: run.error.clone(),
            }
        })
        .collect();
    let flash = methods.iter().find(|r| r.method == Method::FlashOverlap);
    let (signal, links, streams, occupancy) = match flash {
        Some(run) => {
            let record = run.record.clone().unwrap_or_default();
            let spans: &[OpSpan] = run.spans.as_deref().unwrap_or(&[]);
            let run_ns = spans
                .iter()
                .map(|s| (s.end - sim::SimTime::ZERO).as_nanos())
                .max()
                .unwrap_or(0);
            (
                signal_summary(&record, spans),
                // Per-tier denominators: intra-node links are scored
                // against the intra fabric, node-crossing links against
                // the inter fabric (identical on single-node systems).
                link_stats(
                    &record,
                    &LinkPeaks::two_tier(
                        system.topology.node_map(),
                        Some(system.topology.intra.p2p.peak_gbps),
                        Some(system.topology.inter.p2p.peak_gbps),
                    ),
                ),
                stream_stats(spans, run_ns),
                occupancy_stats(&record, spans, run_ns),
            )
        }
        None => (None, Vec::new(), Vec::new(), Vec::new()),
    };
    MetricsReport {
        workload: Workload {
            m: dims.m,
            n: dims.n,
            k: dims.k,
            n_gpus: system.n_gpus,
            pattern: format!("{:?}", pattern.primitive()),
            fabric: system.fabric().name.to_owned(),
        },
        nonoverlap_us: base.as_nanos() as f64 / 1e3,
        theory_us: theory.as_nanos() as f64 / 1e3,
        methods: method_rows,
        signal_latency: signal,
        links,
        streams,
        occupancy,
    }
}

fn opt_num(v: Option<f64>) -> Value {
    v.map_or(Value::Null, Value::num)
}

impl MetricsReport {
    /// Serializes the report as a JSON document.
    pub fn to_json(&self) -> Value {
        Value::obj(vec![
            (
                "workload",
                Value::obj(vec![
                    ("m", Value::num(self.workload.m as f64)),
                    ("n", Value::num(self.workload.n as f64)),
                    ("k", Value::num(self.workload.k as f64)),
                    ("n_gpus", Value::num(self.workload.n_gpus as f64)),
                    ("pattern", Value::str(&self.workload.pattern)),
                    ("fabric", Value::str(&self.workload.fabric)),
                ]),
            ),
            ("nonoverlap_us", Value::num(self.nonoverlap_us)),
            ("theory_us", Value::num(self.theory_us)),
            (
                "methods",
                Value::Arr(
                    self.methods
                        .iter()
                        .map(|m| {
                            Value::obj(vec![
                                ("name", Value::str(&m.name)),
                                ("applicable", Value::Bool(m.applicable)),
                                ("latency_us", opt_num(m.latency_us)),
                                ("speedup", opt_num(m.speedup)),
                                ("overlap_efficiency", opt_num(m.overlap_efficiency)),
                                ("degenerate", Value::Bool(m.degenerate)),
                                ("error", m.error.as_ref().map_or(Value::Null, Value::str)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "signal_latency",
                self.signal_latency.as_ref().map_or(Value::Null, |s| {
                    let totals: Vec<u64> = s.samples.iter().map(|g| g.total_ns).collect();
                    let pct = crate::metrics::percentiles(&totals);
                    let pnum = |f: fn(&crate::metrics::Percentiles) -> u64| {
                        pct.as_ref()
                            .map_or(Value::Null, |p| Value::num(f(p) as f64))
                    };
                    Value::obj(vec![
                        ("samples", Value::num(s.samples.len() as f64)),
                        ("mean_total_ns", Value::num(s.mean_total_ns)),
                        ("min_total_ns", Value::num(s.min_total_ns as f64)),
                        ("max_total_ns", Value::num(s.max_total_ns as f64)),
                        ("p50_total_ns", pnum(|p| p.p50)),
                        ("p95_total_ns", pnum(|p| p.p95)),
                        ("p99_total_ns", pnum(|p| p.p99)),
                        (
                            "mean_release_to_collective_ns",
                            Value::num(s.mean_release_to_collective_ns),
                        ),
                        (
                            "per_group",
                            Value::Arr(
                                s.samples
                                    .iter()
                                    .map(|g| {
                                        Value::obj(vec![
                                            ("device", Value::num(g.device as f64)),
                                            ("group", Value::num(g.group as f64)),
                                            (
                                                "increment_to_release_ns",
                                                Value::num(g.increment_to_release_ns as f64),
                                            ),
                                            (
                                                "release_to_collective_ns",
                                                Value::num(g.release_to_collective_ns as f64),
                                            ),
                                            ("total_ns", Value::num(g.total_ns as f64)),
                                        ])
                                    })
                                    .collect(),
                            ),
                        ),
                    ])
                }),
            ),
            (
                "links",
                Value::Arr(
                    self.links
                        .iter()
                        .map(|l| {
                            Value::obj(vec![
                                ("src", Value::num(l.src as f64)),
                                ("dst", Value::num(l.dst as f64)),
                                ("tier", Value::str(l.tier)),
                                ("bytes", Value::num(l.bytes as f64)),
                                ("busy_ns", Value::num(l.busy_ns as f64)),
                                ("achieved_gbps", Value::num(l.achieved_gbps)),
                                ("utilization", opt_num(l.utilization)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "streams",
                Value::Arr(
                    self.streams
                        .iter()
                        .map(|s| {
                            Value::obj(vec![
                                ("device", Value::num(s.device as f64)),
                                ("stream", Value::num(s.stream as f64)),
                                ("busy_ns", Value::num(s.busy_ns as f64)),
                                ("wait_ns", Value::num(s.wait_ns as f64)),
                                ("busy_frac", Value::num(s.busy_frac)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "occupancy",
                Value::Arr(
                    self.occupancy
                        .iter()
                        .map(|o| {
                            Value::obj(vec![
                                ("device", Value::num(o.device as f64)),
                                ("mean_compute_sms", Value::num(o.mean_compute_sms)),
                                ("mean_comm_sms", Value::num(o.mean_comm_sms)),
                                ("peak_compute_sms", Value::num(o.peak_compute_sms as f64)),
                                ("peak_comm_sms", Value::num(o.peak_comm_sms as f64)),
                                ("gemm_idle_ns", Value::num(o.gemm_idle_ns as f64)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// Renders the human-readable summary table.
    pub fn summary(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "workload: {}x{}x{} {} on {}x {}\n",
            self.workload.m,
            self.workload.n,
            self.workload.k,
            self.workload.pattern,
            self.workload.n_gpus,
            self.workload.fabric
        ));
        out.push_str(&format!(
            "non-overlap {:.1} us | perfect-overlap bound {:.1} us\n\n",
            self.nonoverlap_us, self.theory_us
        ));
        out.push_str(&format!(
            "{:<22} {:>12} {:>9} {:>12}\n",
            "method", "latency(us)", "speedup", "overlap-eff"
        ));
        for m in &self.methods {
            if !m.applicable {
                out.push_str(&format!("{:<22} {:>12}\n", m.name, "n/a"));
                continue;
            }
            if let Some(err) = &m.error {
                out.push_str(&format!("{:<22} failed: {err}\n", m.name));
                continue;
            }
            if m.degenerate {
                out.push_str(&format!(
                    "{:<22} {:>12.1} {:>9} {:>12}\n",
                    m.name,
                    m.latency_us.unwrap_or(f64::NAN),
                    "-",
                    "degenerate",
                ));
                continue;
            }
            out.push_str(&format!(
                "{:<22} {:>12.1} {:>8.2}x {:>12}\n",
                m.name,
                m.latency_us.unwrap_or(f64::NAN),
                m.speedup.unwrap_or(f64::NAN),
                m.overlap_efficiency
                    .map_or_else(|| "-".to_owned(), |e| format!("{e:.2}")),
            ));
        }
        if let Some(s) = &self.signal_latency {
            let totals: Vec<u64> = s.samples.iter().map(|g| g.total_ns).collect();
            let pct = crate::metrics::percentiles(&totals);
            out.push_str(&format!(
                "\nsignal latency ({} samples): mean {:.2} us, min {:.2} us, max {:.2} us\n",
                s.samples.len(),
                s.mean_total_ns / 1e3,
                s.min_total_ns as f64 / 1e3,
                s.max_total_ns as f64 / 1e3,
            ));
            if let Some(p) = pct {
                out.push_str(&format!(
                    "signal latency tail: p50 {:.2} us, p95 {:.2} us, p99 {:.2} us\n",
                    p.p50 as f64 / 1e3,
                    p.p95 as f64 / 1e3,
                    p.p99 as f64 / 1e3,
                ));
            }
        }
        for l in &self.links {
            out.push_str(&format!(
                "link d{}->d{} [{}]: {:.1} MB, busy {:.1} us, {:.1} GB/s{}\n",
                l.src,
                l.dst,
                l.tier,
                l.bytes as f64 / 1e6,
                l.busy_ns as f64 / 1e3,
                l.achieved_gbps,
                l.utilization
                    .map_or(String::new(), |u| format!(" ({:.0}% of peak)", u * 100.0)),
            ));
        }
        for o in &self.occupancy {
            out.push_str(&format!(
                "device {}: mean {:.1} compute / {:.1} comm SMs, gemm idle {:.1} us\n",
                o.device,
                o.mean_compute_sms,
                o.mean_comm_sms,
                o.gemm_idle_ns as f64 / 1e3,
            ));
        }
        out
    }
}
