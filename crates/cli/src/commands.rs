//! Command execution for the `flashoverlap` binary.

use std::fs::File;
use std::io::{self, BufWriter, Write as _};

use baselines::{measure, Method};
use bench::{pattern_for, render_timeline, system_for};
use flashoverlap::{
    model_of_chain, nonoverlap_latency, predictive_search, run_chaos, runtime_seam,
    theoretical_latency, ChaosConfig, ChaosReport, Instrumentation, LatencyPredictor, OverlapPlan,
    ResilientOutcome, RunReport, RuntimeSeam, SequenceOptions,
};
use gpu_sim::gemm::GemmDims;
use planverify::{caveats, conformance_matrix, ExecPath, MutationKind, VerifyReport};
use simsan::Sanitizer;
use telemetry::json::{Document, JsonWriter, Sink, Value, WriteJson};

use flashoverlap::runtime::CommPattern;

use crate::args::{Cli, CliError, Command, PlanCommand, ServeArrival};

/// Writes one artifact and returns the stdout line announcing it.
fn write_artifact(what: &str, path: &str, contents: impl AsRef<[u8]>) -> Result<String, CliError> {
    std::fs::write(path, contents)
        .map_err(|e| CliError::runtime(format!("writing {path}: {e}")))?;
    Ok(format!("{what} written to {path}\n"))
}

/// Streams one artifact into a new file through a buffer and returns the
/// stdout line announcing it.
fn stream_artifact(
    what: &str,
    path: &str,
    write: impl FnOnce(&mut BufWriter<File>) -> io::Result<()>,
) -> Result<String, CliError> {
    File::create(path)
        .and_then(|file| {
            let mut out = BufWriter::new(file);
            write(&mut out)?;
            out.flush()
        })
        .map_err(|e| CliError::runtime(format!("writing {path}: {e}")))?;
    Ok(format!("{what} written to {path}\n"))
}

/// Profiles every method on the workload and writes the metrics report
/// (and, for the `profile` command, the Perfetto trace). Returns the
/// human-readable summary.
fn profiled_report(
    cli: &Cli,
    dims: GemmDims,
    pattern: &CommPattern,
    system: &flashoverlap::SystemSpec,
) -> Result<String, CliError> {
    let profile = telemetry::profile(dims, pattern, system)
        .map_err(|e| CliError::runtime(format!("profiling failed: {e}")))?;
    let mut out = profile.report.summary();
    if let (Command::Plan(PlanCommand::Profile), Some(path)) = (cli.command, &cli.trace_out) {
        let trace = profile.trace_string().ok_or_else(|| {
            CliError::runtime("FlashOverlap run failed; no trace to write".to_owned())
        })?;
        out.push_str(&write_artifact("perfetto trace", path, trace)?);
    }
    if let Some(path) = &cli.metrics_out {
        let json = profile.report.to_json().to_json_pretty();
        out.push_str(&write_artifact("metrics", path, json)?);
    }
    Ok(out)
}

/// Executes `plan` under the SimSan sanitizer (optionally with the CLI's
/// seeded wait mutation) and renders the findings. The runtime refuses a
/// mutation aimed outside the plan.
fn sanitized_run(cli: &Cli, plan: &OverlapPlan) -> Result<(RunReport, String), CliError> {
    let sanitizer = Sanitizer::new();
    let instr = Instrumentation {
        monitor: Some(sanitizer.monitor()),
        probe: Some(sanitizer.probe()),
        mutation: cli.mutation.map(|m| (0, m)),
    };
    let report = plan
        .execute_with(&SequenceOptions::new().instrument(&instr))
        .map_err(|e| CliError::runtime(format!("simulation failed: {e}")))?
        .reports
        .remove(0);
    let mut text = String::new();
    if let Some(mutation) = cli.mutation {
        text.push_str(&format!("mutation : {mutation:?}\n"));
    }
    text.push_str(&format!("sanitizer: {}\n", sanitizer.summary()));
    for finding in sanitizer.reports() {
        text.push_str(&format!("  - {finding}\n"));
    }
    Ok((report, text))
}

/// Renders a chaos sweep as JSON for `--metrics-out`.
fn chaos_json(report: &ChaosReport) -> Value {
    let results = report
        .results
        .iter()
        .map(|r| {
            let cause = match &r.outcome {
                ResilientOutcome::Degraded { cause, .. } => Value::str(cause.to_string()),
                _ => Value::Null,
            };
            Value::obj(vec![
                ("seed", Value::num(r.seed as f64)),
                ("faults", Value::num(r.faults as f64)),
                ("outcome", Value::str(r.outcome.label())),
                ("cause", cause),
                ("bit_exact", Value::Bool(r.bit_exact)),
                ("latency_ns", Value::num(r.latency_ns as f64)),
                ("events", Value::num(r.events as f64)),
            ])
        })
        .collect();
    Value::obj(vec![
        ("seed", Value::num(report.config.seed as f64)),
        ("campaigns", Value::num(report.results.len() as f64)),
        ("gpus", Value::num(report.config.gpus as f64)),
        (
            "reference_latency_ns",
            Value::num(report.reference_latency_ns as f64),
        ),
        ("clean", Value::num(report.clean() as f64)),
        ("recovered", Value::num(report.recovered() as f64)),
        ("degraded", Value::num(report.degraded() as f64)),
        ("bit_exact", Value::num(report.bit_exact() as f64)),
        ("violations", Value::num(report.violations() as f64)),
        ("hangs", Value::num(0.0)),
        ("results", Value::Arr(results)),
    ])
}

/// Runs the `chaos` command: a seeded fault-campaign sweep with a
/// violation gate.
fn execute_chaos(cli: &Cli) -> Result<String, CliError> {
    let config = ChaosConfig {
        seed: cli.seed,
        campaigns: cli.campaigns,
        dims: GemmDims::new(cli.m, cli.n, cli.k),
        gpus: cli.gpus,
    };
    let report =
        run_chaos(&config).map_err(|e| CliError::runtime(format!("chaos sweep failed: {e}")))?;
    let mut out = String::new();
    out.push_str(&format!(
        "chaos    : {} campaigns, base seed {}, GEMM {}x{}x{} + allreduce on {} ranks\n",
        report.results.len(),
        config.seed,
        cli.m,
        cli.n,
        cli.k,
        config.gpus,
    ));
    out.push_str(&format!(
        "reference: {} ns fault-free\n",
        report.reference_latency_ns
    ));
    out.push_str(&format!(
        "verdicts : {} clean, {} recovered, {} degraded; {}/{} bit-exact\n",
        report.clean(),
        report.recovered(),
        report.degraded(),
        report.bit_exact(),
        report.results.len(),
    ));
    for r in &report.results {
        if let ResilientOutcome::Degraded { cause, .. } = &r.outcome {
            out.push_str(&format!("  seed {}: degraded ({cause})\n", r.seed));
        }
    }
    out.push_str(&format!(
        "hangs    : 0 (every campaign terminated under the watchdog)\n\
         violations: {}\n",
        report.violations()
    ));
    if let Some(path) = &cli.metrics_out {
        let json = chaos_json(&report).to_json_pretty();
        out.push_str(&write_artifact("metrics", path, json)?);
    }
    if report.violations() > 0 {
        return Err(CliError::runtime(format!(
            "{} campaign(s) violated the bit-exact-or-degraded invariant:\n{out}",
            report.violations()
        )));
    }
    Ok(out)
}

/// Builds the [`serving::ServeConfig`] shared by the `serve` and
/// `bench` commands from the CLI flags.
fn serve_config(cli: &Cli) -> Result<serving::ServeConfig, CliError> {
    let mut system = system_for(cli.platform, cli.gpus).with_algorithm(cli.algorithm);
    if cli.nodes > 1 {
        // Multi-node: split every TP group across the nodes (so its
        // collectives run hierarchically over the two-tier fabric) and
        // arm the server's node placement / migration accounting.
        if !cli.gpus.is_multiple_of(cli.nodes) {
            return Err(CliError::usage(format!(
                "--nodes {} must divide --gpus {} evenly",
                cli.nodes, cli.gpus
            )));
        }
        if !cli.replicas.is_multiple_of(cli.nodes) {
            return Err(CliError::usage(format!(
                "--nodes {} must divide --replicas {} evenly",
                cli.nodes, cli.replicas
            )));
        }
        system = system.with_nodes(cli.nodes);
    }
    let mut config = serving::ServeConfig {
        seed: cli.seed,
        requests: cli.requests,
        slo_ns: (cli.slo_ms * 1e6).round() as u64,
        chaos: cli.serve_chaos,
        replicas: cli.replicas,
        nodes: cli.nodes,
        wedge_replica: cli.wedge_replica,
        router: cli.router,
        pipelined: !cli.no_pipeline,
        process: match cli.arrival {
            ServeArrival::Poisson => serving::ArrivalProcess::Poisson { rate_rps: cli.rate },
            // Bursty keeps the requested mean: half-rate calm phases
            // alternating with 8x-rate bursts, 5 ms mean phase length.
            ServeArrival::Bursty => serving::ArrivalProcess::Bursty {
                base_rps: cli.rate * 0.5,
                burst_rps: cli.rate * 8.0,
                mean_phase_ms: 5.0,
            },
        },
        ..serving::ServeConfig::new(system)
    };
    if let Some(path) = &cli.plan_cache_in {
        let text = std::fs::read_to_string(path)
            .map_err(|e| CliError::runtime(format!("reading {path}: {e}")))?;
        let snapshot = serving::CacheSnapshot::from_json(&text)
            .map_err(|e| CliError::runtime(format!("parsing {path}: {e}")))?;
        config.preload = Some(snapshot);
    }
    Ok(config)
}

/// Fails the command when a serve report breaks an accounting identity
/// (see [`serving::ServeReport::check`]).
fn check_accounting(report: &serving::ServeReport) -> Result<(), CliError> {
    report
        .check()
        .map_err(|e| CliError::runtime(format!("serve accounting violated: {e}")))
}

/// Runs the `serve` command: a seeded continuous-batching trace through
/// the tuned-plan cache across one or more replicas, with optional
/// chaos, baseline, scaling, and plan-cache persistence arms.
fn execute_serve(cli: &Cli) -> Result<String, CliError> {
    let config = serve_config(cli)?;
    // The scaling/baseline arms trace their primary (multi/tuned)
    // report; request flows in the other arms carry the same ids.
    if cli.scaling {
        let scaling = serving::serve_scaling(&config)
            .map_err(|e| CliError::runtime(format!("serve scaling failed: {e}")))?;
        for report in [&scaling.multi, &scaling.single, &scaling.unpipelined] {
            check_accounting(report)?;
        }
        let out = scaling.summary();
        serve_artifacts(cli, &config, out, &scaling.multi, None, scaling.to_json())
    } else if cli.baseline {
        let cmp = serving::serve_comparison(&config)
            .map_err(|e| CliError::runtime(format!("serve comparison failed: {e}")))?;
        check_accounting(&cmp.tuned)?;
        check_accounting(&cmp.baseline)?;
        serve_artifacts(cli, &config, cmp.summary(), &cmp.tuned, None, cmp.to_json())
    } else {
        let (report, snapshot) = serving::serve_exporting(&config)
            .map_err(|e| CliError::runtime(format!("serve failed: {e}")))?;
        check_accounting(&report)?;
        let out = report.summary();
        serve_artifacts(cli, &config, out, &report, Some(snapshot), report.to_json())
    }
}

/// Writes a serve run's requested artifacts — the request-lifecycle
/// trace of `traced`, the plan-cache snapshot (`exported`, or one from
/// an extra run) and the `metrics` document — and appends their
/// announcements to `out`.
fn serve_artifacts<T: WriteJson>(
    cli: &Cli,
    config: &serving::ServeConfig,
    mut out: String,
    traced: &serving::ServeReport,
    exported: Option<serving::CacheSnapshot>,
    metrics: Document<T>,
) -> Result<String, CliError> {
    if let Some(path) = &cli.trace_out {
        let trace = serving::serve_trace(traced);
        let what = "request-lifecycle trace";
        out.push_str(&stream_artifact(what, path, |f| trace.write_compact(f))?);
    }
    if let Some(path) = &cli.plan_cache_out {
        // The scaling/baseline arms consume their reports internally; an
        // extra export run is deterministic and reuses the same config.
        let snapshot = match exported {
            Some(s) => s,
            None => {
                serving::serve_exporting(config)
                    .map_err(|e| CliError::runtime(format!("serve failed: {e}")))?
                    .1
            }
        };
        let doc = Document(&snapshot);
        out.push_str(&stream_artifact("plan cache", path, |f| {
            doc.write_pretty(f)
        })?);
    }
    if let Some(path) = &cli.metrics_out {
        out.push_str(&stream_artifact("metrics", path, |f| {
            metrics.write_pretty(f)
        })?);
    }
    Ok(out)
}

/// Executes `plan` instrumented and traced, returning the spans, the
/// causal telemetry record, the critical-path attribution, and the run
/// report.
fn attributed_run(
    plan: &OverlapPlan,
) -> Result<
    (
        Vec<gpu_sim::OpSpan>,
        telemetry::TelemetryRecord,
        telemetry::Attribution,
        RunReport,
    ),
    CliError,
> {
    let telemetry = telemetry::Telemetry::new();
    let instr = telemetry.instrumentation();
    let mut out = plan
        .execute_with(&SequenceOptions::new().instrument(&instr).trace())
        .map_err(|e| CliError::runtime(format!("simulation failed: {e}")))?;
    let record = telemetry.take_record();
    let attribution = telemetry::attribute(&out.spans, &record);
    Ok((out.spans, record, attribution, out.reports.remove(0)))
}

/// The `workload` object of the verify and analyze reports.
fn workload_json(cli: &Cli, system: &flashoverlap::SystemSpec) -> Value {
    Value::obj(vec![
        ("m", Value::num(f64::from(cli.m))),
        ("n", Value::num(f64::from(cli.n))),
        ("k", Value::num(f64::from(cli.k))),
        ("primitive", Value::str(cli.primitive.to_string())),
        ("gpus", Value::num(cli.gpus as f64)),
        ("platform", Value::str(system.arch.name)),
    ])
}

/// The `analyze` document: the workload, both arms, and the
/// signal-wait the tuned plan saves.
struct AnalyzeDoc<'a> {
    workload: Value,
    /// `(partition, run, attribution)` of the tuned and per-wave arms.
    arms: [(
        &'a flashoverlap::WavePartition,
        &'a RunReport,
        &'a telemetry::Attribution,
    ); 2],
    signal_wait_saved_ns: f64,
}

impl WriteJson for AnalyzeDoc<'_> {
    fn write_json<W: Sink>(&self, w: &mut JsonWriter<W>) {
        w.obj(|w| {
            w.key("kind").str("flashoverlap-analyze");
            w.key("workload").json(&self.workload);
            for (key, (partition, report, attribution)) in
                ["tuned", "per_wave"].iter().zip(&self.arms)
            {
                w.key(key).obj(|w| {
                    w.key("partition").str(&partition.to_string());
                    w.key("latency_ns").num(report.latency.as_nanos() as f64);
                    w.key("attribution").json(attribution);
                });
            }
            w.key("signal_wait_saved_ns").num(self.signal_wait_saved_ns);
        });
    }
}

/// Runs the `analyze` command: attributes the tuned (or `--partition`)
/// plan's critical path and compares it against the naive per-wave
/// signaling baseline (§4.1.1) on the same workload — the tuner's win
/// read directly off the signal-wait category.
fn execute_analyze(
    cli: &Cli,
    plan: &OverlapPlan,
    pattern: &CommPattern,
    system: &flashoverlap::SystemSpec,
) -> Result<String, CliError> {
    use telemetry::Category;

    let dims = GemmDims::new(cli.m, cli.n, cli.k);
    let (spans, record, tuned_attr, tuned_report) = attributed_run(plan)?;
    let per_wave = flashoverlap::WavePartition::per_wave(plan.total_waves());
    let baseline = OverlapPlan::new(dims, pattern.clone(), system.clone(), per_wave.clone())
        .map_err(|e| CliError::runtime(format!("per-wave baseline construction failed: {e}")))?;
    let (_, _, base_attr, base_report) = attributed_run(&baseline)?;

    let tuned_wait = tuned_attr.totals.get(Category::SignalWait);
    let base_wait = base_attr.totals.get(Category::SignalWait);
    let doc = Document(AnalyzeDoc {
        workload: workload_json(cli, system),
        arms: [
            (&plan.partition, &tuned_report, &tuned_attr),
            (&per_wave, &base_report, &base_attr),
        ],
        signal_wait_saved_ns: base_wait as f64 - tuned_wait as f64,
    });

    let mut out = String::new();
    out.push_str(&format!(
        "tuned    : partition {}, latency {} — {}\n",
        plan.partition,
        tuned_report.latency,
        tuned_attr.summary(),
    ));
    out.push_str(&format!(
        "per-wave : partition {per_wave}, latency {} — {}\n",
        base_report.latency,
        base_attr.summary(),
    ));
    out.push_str(&format!(
        "signal-wait on the critical path: tuned {tuned_wait} ns vs per-wave {base_wait} ns\n",
    ));
    let identity = tuned_attr.identity_holds() && base_attr.identity_holds();
    out.push_str(&format!(
        "identity : {}\n",
        if identity {
            "both attributions sum exactly to their makespans"
        } else {
            "VIOLATED — attribution does not tile the makespan"
        },
    ));
    if let Some(path) = &cli.trace_out {
        let trace = telemetry::perfetto::trace_with_attribution(&spans, Some(&record), &tuned_attr);
        let what = "perfetto trace with critical-path track";
        out.push_str(&write_artifact(what, path, trace.to_json())?);
    }
    if let Some(path) = &cli.metrics_out {
        out.push_str(&stream_artifact("metrics", path, |f| doc.write_pretty(f))?);
    }
    if !identity {
        return Err(CliError::runtime(format!(
            "attribution identity violated:\n{out}"
        )));
    }
    Ok(out)
}

/// The `bench` document: a serve run's virtual-time metrics only.
struct BenchDoc<'a>(&'a serving::ServeReport);

impl WriteJson for BenchDoc<'_> {
    fn write_json<W: Sink>(&self, w: &mut JsonWriter<W>) {
        let report = self.0;
        w.obj(|w| {
            w.key("kind").str("flashoverlap-bench-serve");
            w.key("seed").num(report.seed as f64);
            w.key("requests").num(report.offered as f64);
            w.key("gpus").num(report.gpus as f64);
            w.key("platform").str(report.platform);
            w.key("replicas").num(report.replicas as f64);
            w.key("chaos").bool(report.chaos);
            w.key("makespan_ns").num(report.makespan_ns as f64);
            w.key("throughput").obj(|w| {
                w.key("goodput_rps").num(report.goodput_rps);
                w.key("offered_rps").num(report.offered_rps);
                w.key("shed_rate").num(report.shed_rate);
            });
            w.key("latency");
            match &report.latency {
                Some(p) => w.obj(|w| {
                    w.key("p50_ns").num(p.p50 as f64);
                    w.key("p95_ns").num(p.p95 as f64);
                    w.key("p99_ns").num(p.p99 as f64);
                    w.key("mean_ns").num(report.mean_latency_ns);
                }),
                None => w.null(),
            };
            serving::report::write_scheduling(w, &report.form_wait, &report.queue_wait);
            w.key("attribution")
                .obj(|w| report.attribution.write_breakdown(w, report.makespan_ns));
            w.key("signaling").obj(|w| {
                w.key("mean_signal_ns").num(report.mean_signal_ns);
                w.key("samples").num(report.signal_samples as f64);
            });
            w.key("batches").num(report.batches as f64);
            w.key("drift_rows").num(report.drift.len() as f64);
        });
    }
}

/// Runs the `bench` command: the serve regression benchmark. The JSON
/// artifact carries only virtual-time metrics (byte-stable for a fixed
/// seed — ci.sh byte-compares a fresh run with the committed
/// `BENCH_serve.json`); host wall-clock goes to stdout only.
fn execute_bench(cli: &Cli) -> Result<String, CliError> {
    let config = serve_config(cli)?;
    // Instant is the host's monotonic clock, so the delta is immune to
    // wall-time adjustments mid-run.
    let started = std::time::Instant::now();
    let report = serving::serve(&config)
        .map_err(|e| CliError::runtime(format!("bench serve failed: {e}")))?;
    let wall = started.elapsed();
    check_accounting(&report)?;

    let path = cli.metrics_out.as_deref().unwrap_or("BENCH_serve.json");
    let doc = Document(BenchDoc(&report));
    let written = stream_artifact("bench report", path, |f| doc.write_pretty(f))?;

    // Host-side figures stay out of the artifact: they vary run to run
    // and would break the byte-compare gate.
    let mut out = String::new();
    out.push_str(&format!(
        "bench    : {} requests, seed {}, {} x{} ({} replicas{})\n",
        report.offered,
        report.seed,
        report.platform,
        report.gpus,
        report.replicas,
        if report.chaos { ", chaos" } else { "" },
    ));
    out.push_str(&format!(
        "virtual  : makespan {:.2} ms, goodput {:.0} rps{}\n",
        report.makespan_ns as f64 / 1e6,
        report.goodput_rps,
        report.latency.as_ref().map_or(String::new(), |p| format!(
            ", p95 {:.1} us",
            p.p95 as f64 / 1e3
        )),
    ));
    if report.makespan_ns > 0 {
        let share = |c| report.attribution.get(c) as f64 / report.makespan_ns as f64 * 100.0;
        out.push_str(&format!(
            "critical : gemm {:.1}%, transfer {:.1}%, signal-wait {:.1}%, queue-wait {:.1}%, idle {:.1}%\n",
            share(telemetry::Category::GemmCompute),
            share(telemetry::Category::CollectiveTransfer),
            share(telemetry::Category::SignalWait),
            share(telemetry::Category::QueueWait),
            share(telemetry::Category::Idle),
        ));
    }
    out.push_str(&format!(
        "host     : {:.3} s wall-clock (monotonic)\n",
        wall.as_secs_f64()
    ));
    out.push_str(&written);
    Ok(out)
}

/// Renders a verify report's violations as a JSON array of lines.
fn violations_json(report: &VerifyReport) -> Value {
    Value::Arr(
        report
            .violations
            .iter()
            .map(|v| Value::str(flashoverlap::verify::violation_line(v)))
            .collect(),
    )
}

/// Renders a verify report's coverage stats.
fn stats_json(report: &VerifyReport) -> Value {
    Value::obj(vec![
        ("segments", Value::num(report.stats.segments as f64)),
        ("waits", Value::num(report.stats.waits as f64)),
        ("tiles", Value::num(report.stats.tiles as f64)),
        ("reads", Value::num(report.stats.reads as f64)),
        ("truncated", Value::Bool(report.stats.truncated)),
    ])
}

/// Runs the `verify` command body against the constructed plan: the
/// static proof, the per-method signaling inventory, the conformance
/// matrix with its static arm re-proven per cell, and the quantized
/// serve-mix sweep. Any violation or nonconforming cell is an error.
fn execute_verify(
    cli: &Cli,
    plan: &OverlapPlan,
    pattern: &CommPattern,
    system: &flashoverlap::SystemSpec,
) -> Result<String, CliError> {
    let report = plan.verify();
    let thresholds = plan.wait_thresholds();

    // Every comparison method with its signaling surface: FlashOverlap
    // carries the proven wait schedule; the baselines overlap (or don't)
    // without signal/wait gating, so there is nothing to verify — they
    // are structurally wait-free, not merely unchecked.
    let mut methods = Vec::new();
    for method in Method::ALL {
        let signaling = method == Method::FlashOverlap;
        let waits: Vec<Value> = if signaling {
            thresholds
                .iter()
                .enumerate()
                .map(|(g, t)| {
                    Value::obj(vec![
                        ("group", Value::num(g as f64)),
                        (
                            "threshold",
                            t.map_or(Value::Null, |v| Value::num(f64::from(v))),
                        ),
                    ])
                })
                .collect()
        } else {
            Vec::new()
        };
        methods.push(Value::obj(vec![
            ("method", Value::str(method.to_string())),
            (
                "applicable",
                Value::Bool(method.applicable(pattern, system)),
            ),
            ("signaling", Value::Bool(signaling)),
            ("waits", Value::Arr(waits)),
            (
                "violations",
                if signaling {
                    violations_json(&report)
                } else {
                    Value::Arr(Vec::new())
                },
            ),
            ("clean", Value::Bool(!signaling || report.is_clean())),
        ]));
    }

    // The conformance matrix, static arm re-proven per cell: single-shot
    // cells mutate the plan's own model; chained cells a four-segment
    // ping-pong chain. The rearm mutation targets the chain's segment 2 —
    // the first table reuse, where the rearm chain exists to drop.
    let chain: Vec<&OverlapPlan> = vec![plan; 4];
    let mut cells = Vec::new();
    let mut nonconforming: Vec<String> = Vec::new();
    let mut verdicts: std::collections::BTreeMap<&str, usize> = std::collections::BTreeMap::new();
    for cell in conformance_matrix() {
        let mutation = cell.mutation.sample();
        let (mut model, segment) = match (cell.path, cell.mutation) {
            (ExecPath::Single, _) => (model_of_chain(&[plan]), 0),
            (ExecPath::Chain, MutationKind::DropRearm) => (model_of_chain(&chain), 2),
            (ExecPath::Chain, _) => (model_of_chain(&chain), 0),
        };
        model
            .apply(&mutation, segment)
            .map_err(|e| CliError::runtime(format!("conformance cell: {e}")))?;
        let mutated = planverify::verify(&model);
        let observed = mutated.violations.first().map_or("clean", |v| v.label());
        let conforms = match cell.expected {
            planverify::Expectation::CaughtStatic => !mutated.is_clean(),
            // Dynamic-only, benign, and n/a cells must stay statically
            // clean — a violation here would mean the matrix under-claims
            // the verifier (or the model over-claims the mutation).
            _ => mutated.is_clean(),
        };
        if !conforms {
            nonconforming.push(format!("({}, {})", cell.mutation, cell.path));
        }
        *verdicts.entry(cell.expected.label()).or_default() += 1;
        let seam = match runtime_seam(&mutation, cell.path) {
            RuntimeSeam::Instrument => "instrument",
            RuntimeSeam::Fault(_) => "fault-injection",
            RuntimeSeam::Nothing(_) => "none",
        };
        cells.push(Value::obj(vec![
            ("mutation", Value::str(cell.mutation.label())),
            ("path", Value::str(cell.path.label())),
            ("expected", Value::str(cell.expected.label())),
            (
                "reason",
                cell.expected.reason().map_or(Value::Null, Value::str),
            ),
            ("dynamic", Value::str(cell.dynamic.label())),
            (
                "caveat",
                cell.dynamic.caveat().map_or(Value::Null, Value::str),
            ),
            ("seam", Value::str(seam)),
            ("static_observed", Value::str(observed)),
            ("conforms", Value::Bool(conforms)),
        ]));
    }

    // Quantized serve-mix sweep: the token-bucketed TP down-projection
    // shapes the serving layer actually tunes, at this TP degree. Each
    // entry's bucket endpoints bound the padded-M range a batch can take.
    let bucket = serving::BatchConfig::default().token_bucket;
    let tp = cli.gpus as u32;
    let mut seen = std::collections::BTreeSet::new();
    let mut mix_entries = Vec::new();
    let mut mix_count = 0usize;
    let mut mix_clean = true;
    for entry in workloads::ServeMix::default_mix().entries() {
        if entry.model.intermediate % tp != 0 {
            // This TP degree cannot shard the model; the server would
            // reject it at startup too.
            continue;
        }
        for tokens in [entry.min_tokens, entry.max_tokens] {
            let m = workloads::quantize_tokens(tokens, bucket);
            if !seen.insert((entry.model.name, m)) {
                continue;
            }
            let k = entry.model.intermediate / tp;
            let dims = GemmDims::new(m, entry.model.hidden, k);
            let mix_plan = OverlapPlan::tuned(dims, CommPattern::AllReduce, system.clone())
                .map_err(|e| {
                    CliError::runtime(format!(
                        "serve-mix plan {m}x{}x{k} failed verification: {e}",
                        entry.model.hidden
                    ))
                })?;
            let mix_report = mix_plan.verify();
            mix_clean &= mix_report.is_clean();
            mix_count += 1;
            mix_entries.push(Value::obj(vec![
                ("model", Value::str(entry.model.name)),
                ("m", Value::num(f64::from(m))),
                ("n", Value::num(f64::from(entry.model.hidden))),
                ("k", Value::num(f64::from(k))),
                (
                    "groups",
                    Value::num(mix_plan.group_tile_counts().len() as f64),
                ),
                ("clean", Value::Bool(mix_report.is_clean())),
                ("violations", violations_json(&mix_report)),
            ]));
        }
    }

    let doc = Value::obj(vec![
        ("kind", Value::str("flashoverlap-verify")),
        ("workload", workload_json(cli, system)),
        (
            "plan",
            Value::obj(vec![
                ("partition", Value::str(plan.partition.to_string())),
                ("waves", Value::num(f64::from(plan.total_waves()))),
                ("groups", Value::num(plan.group_tile_counts().len() as f64)),
            ]),
        ),
        (
            "static",
            Value::obj(vec![
                ("clean", Value::Bool(report.is_clean())),
                ("violations", violations_json(&report)),
                ("stats", stats_json(&report)),
            ]),
        ),
        ("methods", Value::Arr(methods)),
        ("matrix", Value::Arr(cells)),
        (
            "caveats",
            Value::Arr(
                caveats()
                    .iter()
                    .map(|c| {
                        Value::obj(vec![
                            ("id", Value::str(c.id)),
                            ("summary", Value::str(c.summary)),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("serve_mix", Value::Arr(mix_entries)),
    ]);

    let mut out = String::new();
    out.push_str(&format!(
        "static   : {} — {} waits, {} tile footprints, {} reads proven\n",
        if report.is_clean() {
            "clean"
        } else {
            "VIOLATIONS"
        },
        report.stats.waits,
        report.stats.tiles,
        report.stats.reads,
    ));
    for v in &report.violations {
        out.push_str(&format!("  - {v}\n"));
    }
    let scheduled = thresholds.iter().filter(|t| t.is_some()).count();
    out.push_str(&format!(
        "methods  : FlashOverlap schedules {scheduled} wait(s); {} baselines are structurally wait-free\n",
        Method::ALL.len() - 1,
    ));
    let count = |label: &str| verdicts.get(label).copied().unwrap_or(0);
    out.push_str(&format!(
        "matrix   : {} cells — {} caught-static, {} caught-dynamic, {} benign, {} n/a; {}\n",
        conformance_matrix().len(),
        count("caught-static"),
        count("caught-dynamic"),
        count("benign"),
        count("not-applicable"),
        if nonconforming.is_empty() {
            "static arm conforms in every cell".to_string()
        } else {
            format!("NONCONFORMING: {}", nonconforming.join(", "))
        },
    ));
    out.push_str(&format!(
        "caveats  : {} dynamic-observability caveats documented\n",
        caveats().len(),
    ));
    out.push_str(&format!(
        "serve mix: {} quantized shapes at TP {} — {}\n",
        mix_count,
        cli.gpus,
        if mix_clean { "all clean" } else { "VIOLATIONS" },
    ));
    if let Some(path) = &cli.metrics_out {
        out.push_str(&write_artifact("metrics", path, doc.to_json_pretty())?);
    }
    if !report.is_clean() || !nonconforming.is_empty() || !mix_clean {
        return Err(CliError::runtime(format!("verification failed:\n{out}")));
    }
    Ok(out)
}

/// Executes the parsed command, returning the report text.
///
/// # Errors
///
/// Returns [`CliError`] on infeasible workloads or simulation failures.
pub fn execute(cli: &Cli) -> Result<String, CliError> {
    match cli.command {
        Command::Plan(command) => execute_plan(cli, command),
        // Chaos builds its own miniature campaign system.
        Command::Chaos => execute_chaos(cli),
        // Serve draws its GEMM shapes from the traffic mix, not -m/-n/-k.
        Command::Serve => execute_serve(cli),
        // Bench is a serve run with a byte-stable artifact.
        Command::Bench => execute_bench(cli),
    }
}

/// Builds the plan `-m/-n/-k` ask for and runs `command` on it.
fn execute_plan(cli: &Cli, command: PlanCommand) -> Result<String, CliError> {
    let dims = GemmDims::new(cli.m, cli.n, cli.k);
    let system = system_for(cli.platform, cli.gpus).with_algorithm(cli.algorithm);
    let pattern = pattern_for(cli.primitive, dims, cli.gpus, cli.seed);
    let plan = match &cli.partition {
        Some(partition) => {
            OverlapPlan::new(dims, pattern.clone(), system.clone(), partition.clone())
        }
        None => OverlapPlan::tuned(dims, pattern.clone(), system.clone()),
    }
    .map_err(|e| CliError::runtime(format!("plan construction failed: {e}")))?;

    let mut out = String::new();
    out.push_str(&format!(
        "workload : GEMM {}x{}x{} + {} on {} x {}\n",
        cli.m, cli.n, cli.k, cli.primitive, cli.gpus, system.arch.name
    ));
    out.push_str(&format!(
        "plan     : tile {}x{}, {} waves, partition {}\n",
        plan.config.tile.m,
        plan.config.tile.n,
        plan.total_waves(),
        plan.partition
    ));

    match command {
        PlanCommand::Tune => {
            let outcome = predictive_search(dims, cli.primitive, &system);
            let predictor = LatencyPredictor::build(dims, cli.primitive, &system);
            out.push_str(&format!(
                "tuned    : partition {} ({} candidates scored)\n",
                outcome.partition, outcome.evaluated
            ));
            out.push_str(&format!(
                "predicted: {} overlapped vs {} serial ({:.3}x)\n",
                outcome.latency,
                predictor.predict_serial(),
                predictor.predict_serial().as_nanos() as f64 / outcome.latency.as_nanos() as f64
            ));
        }
        PlanCommand::Run => {
            let (report, sanitizer_text) = if cli.sanitize {
                sanitized_run(cli, &plan)?
            } else {
                let mut run = plan
                    .execute_with(&SequenceOptions::new())
                    .map_err(|e| CliError::runtime(format!("simulation failed: {e}")))?;
                (run.reports.remove(0), String::new())
            };
            let base = nonoverlap_latency(dims, cli.primitive, &system);
            let theory = theoretical_latency(dims, cli.primitive, &system);
            out.push_str(&format!("latency  : {}\n", report.latency));
            out.push_str(&format!("gemm done: {}\n", report.gemm_done));
            for (g, done) in report.group_comm_done.iter().enumerate() {
                out.push_str(&format!("  group {g}: comm done at {done}\n"));
            }
            out.push_str(&format!(
                "vs serial: {:.3}x (non-overlap model {base}); theory bound {theory}\n",
                base.as_nanos() as f64 / report.latency.as_nanos() as f64
            ));
            out.push_str(&sanitizer_text);
            if cli.metrics_out.is_some() {
                out.push_str(&profiled_report(cli, dims, &pattern, &system)?);
            }
        }
        PlanCommand::Compare => {
            let base = measure(Method::NonOverlap, dims, &pattern, &system)
                .map_err(|e| CliError::runtime(format!("baseline failed: {e}")))?;
            out.push_str("method comparison (speedup over non-overlap):\n");
            for method in Method::ALL {
                if !method.applicable(&pattern, &system) {
                    out.push_str(&format!("  {method:<22} n/a (requires P2P)\n"));
                    continue;
                }
                let latency = measure(method, dims, &pattern, &system)
                    .map_err(|e| CliError::runtime(format!("{method} failed: {e}")))?;
                out.push_str(&format!(
                    "  {method:<22} {latency:>12}  {:.3}x\n",
                    base.as_nanos() as f64 / latency.as_nanos() as f64
                ));
            }
            if cli.metrics_out.is_some() {
                out.push_str(&profiled_report(cli, dims, &pattern, &system)?);
            }
        }
        PlanCommand::Timeline => {
            let mut out_traced = plan
                .execute_with(&SequenceOptions::new().trace())
                .map_err(|e| CliError::runtime(format!("simulation failed: {e}")))?;
            let (report, spans) = (out_traced.reports.remove(0), out_traced.spans);
            // The ASCII view shows rank 0 (all ranks render identically),
            // but the exported trace covers every device.
            let rank0: Vec<gpu_sim::OpSpan> = spans
                .iter()
                .filter(|s| s.device == 0 && s.name != "callback")
                .copied()
                .collect();
            out.push_str(&format!("latency  : {}\n", report.latency));
            out.push_str(&render_timeline(&rank0, 100));
            if let Some(path) = &cli.trace_out {
                let trace = telemetry::perfetto::trace_string(&spans, None);
                out.push_str(&write_artifact("perfetto trace", path, trace)?);
            }
            if cli.sanitize {
                // The timeline above shows the *faithful* schedule; the
                // sanitizer pass replays it (with the seeded mutation, if
                // any) and appends its verdict.
                let (_, text) = sanitized_run(cli, &plan)?;
                out.push_str(&text);
            }
        }
        PlanCommand::Profile => out.push_str(&profiled_report(cli, dims, &pattern, &system)?),
        PlanCommand::Verify => out.push_str(&execute_verify(cli, &plan, &pattern, &system)?),
        PlanCommand::Analyze => out.push_str(&execute_analyze(cli, &plan, &pattern, &system)?),
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn tune_reports_partition_and_prediction() {
        let out = crate::run(&argv("tune -m 2048 -n 4096 -k 8192")).unwrap();
        assert!(out.contains("tuned"));
        assert!(out.contains("predicted"));
        assert!(out.contains("candidates scored"));
    }

    #[test]
    fn run_reports_latency_and_groups() {
        let out = crate::run(&argv("run -m 2048 -n 4096 -k 8192 --gpus 2")).unwrap();
        assert!(out.contains("latency"));
        assert!(out.contains("group 0"));
        assert!(out.contains("vs serial"));
    }

    #[test]
    fn zero_dimension_is_a_usage_error() {
        for flag in ["-m 0 -n 64 -k 64", "-m 64 -n 0 -k 64", "-m 64 -n 64 -k 0"] {
            let err = crate::run(&argv(&format!("run {flag}"))).unwrap_err();
            assert!(err.show_usage, "{flag}: {}", err.message);
            assert!(err.message.contains("must be positive"), "{}", err.message);
        }
    }

    #[test]
    fn one_element_gemm_runs_and_verifies() {
        let run = crate::run(&argv("run -m 1 -n 1 -k 1")).unwrap();
        assert!(run.contains("latency"), "{run}");
        crate::run(&argv("verify -m 1 -n 1 -k 1")).unwrap();
    }

    #[test]
    fn run_accepts_explicit_partition() {
        // 2048x4096 -> 256 tiles -> 3 contended waves on the 4090.
        let out = crate::run(&argv("run -m 2048 -n 4096 -k 4096 --partition 1,2")).unwrap();
        assert!(out.contains("partition (1,2)"));
    }

    #[test]
    fn compare_lists_every_method() {
        let out = crate::run(&argv("compare -m 2048 -n 4096 -k 4096 --gpus 2")).unwrap();
        assert!(out.contains("Non-overlap"));
        assert!(out.contains("FlashOverlap"));
        assert!(out.contains("n/a (requires P2P)"), "PCIe hides FLUX");
        let a800 = crate::run(&argv(
            "compare -m 2048 -n 4096 -k 4096 --gpus 2 --platform a800",
        ))
        .unwrap();
        assert!(a800.contains("FLUX"));
        assert!(!a800.contains("n/a"));
    }

    #[test]
    fn timeline_renders_streams() {
        let out = crate::run(&argv("timeline -m 2048 -n 4096 -k 4096")).unwrap();
        assert!(out.contains("dev0 s0"));
        assert!(out.contains("dev0 s1"));
        assert!(out.contains('G'), "gemm glyph present");
        assert!(out.contains('C'), "collective glyph present");
    }

    #[test]
    fn bad_partition_surfaces_as_runtime_error() {
        let err = crate::run(&argv(
            "run -m 2048 -n 4096 -k 4096 --partition 1,1,1,1,1,1,1",
        ))
        .unwrap_err();
        assert!(!err.show_usage);
        assert!(err.message.contains("plan construction failed"));
    }

    #[test]
    fn run_with_sanitize_reports_clean() {
        let out = crate::run(&argv("run -m 2048 -n 4096 -k 4096 --gpus 2 --sanitize")).unwrap();
        assert!(out.contains("simsan: clean"), "{out}");
        assert!(out.contains("vs serial"), "sanitize keeps the run report");
    }

    #[test]
    fn timeline_with_dropped_signal_flags_use_before_signal() {
        // Group 0's wait guards the very first collective send, so dropping
        // it is detectable at any scale.
        let out = crate::run(&argv(
            "timeline -m 2048 -n 4096 -k 4096 --gpus 2 --drop-signal 0,0",
        ))
        .unwrap();
        assert!(out.contains("dev0 s0"), "timeline still renders");
        assert!(out.contains("mutation : DropWait"), "{out}");
        assert!(out.contains("use before signal"), "{out}");
    }

    #[test]
    fn out_of_range_mutation_is_rejected() {
        let err = crate::run(&argv(
            "run -m 2048 -n 4096 -k 4096 --gpus 2 --drop-signal 0,9",
        ))
        .unwrap_err();
        assert!(err.message.contains("outside the plan"), "{}", err.message);
    }

    #[test]
    fn run_with_starved_signal_flags_lost_signal() {
        let out = crate::run(&argv(
            "run -m 2048 -n 4096 -k 4096 --gpus 2 --starve-signal 0,0",
        ))
        .unwrap();
        assert!(out.contains("lost signal"), "{out}");
        assert!(out.contains("deadlock"), "{out}");
    }

    /// A fresh path in the per-test temp area.
    fn temp_path(name: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("flashoverlap-cli-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn serve_reports_and_writes_deterministic_metrics() {
        let metrics_a = temp_path("serve-a.json");
        let metrics_b = temp_path("serve-b.json");
        for (flags, offered) in [
            ("--requests 40 --seed 3", 40),
            ("--chaos --requests 120 --seed 7", 120),
        ] {
            let cmd =
                |path: &std::path::Path| format!("serve {flags} --metrics-out {}", path.display());
            let out = crate::run(&argv(&cmd(&metrics_a))).unwrap();
            assert!(out.contains(&format!("serve: {offered} offered")), "{out}");
            assert!(out.contains("plan cache hit rate"));
            assert!(out.contains("goodput"));
            crate::run(&argv(&cmd(&metrics_b))).unwrap();
            let a = std::fs::read_to_string(&metrics_a).unwrap();
            let b = std::fs::read_to_string(&metrics_b).unwrap();
            assert_eq!(a, b, "{flags}: same seed must write byte-identical metrics");
            let json = telemetry::json::parse(&a).unwrap();
            assert_eq!(
                json.get("kind").and_then(|v| v.as_str()),
                Some("flashoverlap-serve")
            );
            let hit_rate = json
                .get("plan_cache")
                .and_then(|c| c.get("hit_rate"))
                .and_then(|v| v.as_f64())
                .unwrap();
            assert!(
                hit_rate > 0.0,
                "{flags}: token buckets must drive plan reuse"
            );
        }
    }

    #[test]
    fn serve_across_nodes_reports_migration_and_replays() {
        let metrics_a = temp_path("serve-nodes-a.json");
        let metrics_b = temp_path("serve-nodes-b.json");
        let cmd = |path: &std::path::Path| {
            format!(
                "serve --requests 60 --rate 2400 --seed 11 --nodes 2 --replicas 4 \
                 --router locality --metrics-out {}",
                path.display()
            )
        };
        let out = crate::run(&argv(&cmd(&metrics_a))).unwrap();
        assert!(out.contains("2 nodes:"), "{out}");
        assert!(out.contains("node 0:"), "{out}");
        assert!(out.contains("node 1:"), "{out}");
        assert!(out.contains("locality router"), "{out}");
        crate::run(&argv(&cmd(&metrics_b))).unwrap();
        let a = std::fs::read_to_string(&metrics_a).unwrap();
        let b = std::fs::read_to_string(&metrics_b).unwrap();
        assert_eq!(a, b, "same seed must write byte-identical node metrics");
        let json = telemetry::json::parse(&a).unwrap();
        assert_eq!(json.get("nodes").and_then(|v| v.as_f64()), Some(2.0));
        let per_node = json.get("per_node").and_then(|v| v.as_arr()).unwrap();
        assert_eq!(per_node.len(), 2);
    }

    #[test]
    fn serve_rejects_indivisible_node_counts() {
        let err = crate::run(&argv("serve --nodes 3 --replicas 3 --gpus 4")).unwrap_err();
        assert!(err.message.contains("divide --gpus"), "{}", err.message);
        let err = crate::run(&argv("serve --nodes 2 --replicas 3 --gpus 4")).unwrap_err();
        assert!(err.message.contains("divide --replicas"), "{}", err.message);
    }

    #[test]
    fn serve_baseline_reports_speedup() {
        let out = crate::run(&argv("serve --requests 30 --seed 5 --baseline")).unwrap();
        assert!(out.contains("tuned arm:"));
        assert!(out.contains("baseline (non-overlap) arm:"));
        assert!(out.contains("speedup tuned vs baseline"));
    }

    #[test]
    fn serve_chaos_accounts_every_request() {
        let out = crate::run(&argv("serve --requests 30 --seed 11 --chaos")).unwrap();
        assert!(out.contains("with chaos"));
        assert!(out.contains("completed"));
    }

    #[test]
    fn serve_scaling_reports_replica_and_pipelining_gains() {
        let metrics = temp_path("serve-scaling.json");
        let out = crate::run(&argv(&format!(
            "serve --requests 120 --rate 2400 --seed 7 --replicas 4 \
             --router shape-affinity --scaling --metrics-out {}",
            metrics.display()
        )))
        .unwrap();
        assert!(out.contains("multi-replica arm (4 replicas):"), "{out}");
        assert!(out.contains("goodput scaling 1 -> 4 replicas:"), "{out}");
        assert!(out.contains("p95 pipelined"), "{out}");
        let json = telemetry::json::parse(&std::fs::read_to_string(&metrics).unwrap()).unwrap();
        assert_eq!(
            json.get("kind").and_then(|v| v.as_str()),
            Some("flashoverlap-serve-scaling")
        );
        let scaling = json
            .get("goodput_scaling")
            .and_then(|v| v.as_f64())
            .unwrap();
        assert!(scaling >= 3.0, "4 replicas must scale >= 3x, got {scaling}");
        let pipelining = json.get("pipelining").unwrap();
        let p95 = pipelining
            .get("pipelined_p95_ns")
            .and_then(|v| v.as_f64())
            .unwrap();
        let serial = pipelining
            .get("serial_p95_ns")
            .and_then(|v| v.as_f64())
            .unwrap();
        assert!(p95 < serial, "pipelined p95 {p95} vs serial {serial}");
    }

    #[test]
    fn serve_plan_cache_round_trips_through_files() {
        let cache = temp_path("serve-plan-cache.json");
        let out = crate::run(&argv(&format!(
            "serve --requests 40 --seed 3 --plan-cache-out {}",
            cache.display()
        )))
        .unwrap();
        assert!(out.contains("plan cache written to"), "{out}");
        let doc = telemetry::json::parse(&std::fs::read_to_string(&cache).unwrap()).unwrap();
        assert_eq!(
            doc.get("kind").and_then(|v| v.as_str()),
            Some("flashoverlap-plan-cache")
        );
        // Warm start from the snapshot: same accounting, zero misses.
        let warm = crate::run(&argv(&format!(
            "serve --requests 40 --seed 3 --plan-cache-in {}",
            cache.display()
        )))
        .unwrap();
        assert!(warm.contains("serve: 40 offered"), "{warm}");
        assert!(warm.contains("hit rate 100.0%"), "{warm}");
    }

    #[test]
    fn serve_rejects_mismatched_plan_cache() {
        let cache = temp_path("serve-plan-cache-4090.json");
        crate::run(&argv(&format!(
            "serve --requests 20 --seed 3 --plan-cache-out {}",
            cache.display()
        )))
        .unwrap();
        // Same snapshot against a different platform: fingerprint error.
        let err = crate::run(&argv(&format!(
            "serve --requests 20 --seed 3 --platform a800 --plan-cache-in {}",
            cache.display()
        )))
        .unwrap_err();
        assert!(err.message.contains("tuned for system"), "{}", err.message);
    }

    #[test]
    fn malformed_plan_cache_snapshots_are_typed_errors() {
        let entry = |fields: &str| {
            format!(
                r#"{{"kind": "flashoverlap-plan-cache", "system_fp": "0", "entries": [{{{fields}}}]}}"#
            )
        };
        let probes = [
            (
                "empty-groups",
                entry(r#""m": 256, "n": 2048, "k": 704, "primitive": "AllReduce", "groups": []"#),
                "entry 0: bad inputs: partition needs at least one group",
            ),
            (
                "zero-m",
                entry(r#""m": 0, "n": 2048, "k": 704, "primitive": "AllReduce", "groups": [1]"#),
                "entry 0: GEMM dimensions must be positive",
            ),
            (
                "deep",
                "[".repeat(200_000),
                "nesting deeper than 128 levels at byte 129",
            ),
            ("empty", String::new(), "unexpected end of input at byte 0"),
        ];
        for (name, text, expected) in probes {
            let path = temp_path(&format!("snapshot-{name}.json"));
            std::fs::write(&path, text).unwrap();
            let err = crate::run(&argv(&format!(
                "serve --requests 4 --plan-cache-in {}",
                path.display()
            )))
            .unwrap_err();
            assert!(!err.show_usage, "{name}: {}", err.message);
            assert_eq!(
                err.message,
                format!("parsing {}: {expected}", path.display()),
                "{name}"
            );
        }
    }

    #[test]
    fn profile_emits_summary_trace_and_metrics() {
        use telemetry::json::Value;
        let trace = temp_path("profile-trace.json");
        let metrics = temp_path("profile-metrics.json");
        for dims in ["-m 2048 -n 4096 -k 4096", "-m 1024 -n 2048 -k 2048"] {
            let out = crate::run(&argv(&format!(
                "profile {dims} --gpus 2 --platform a800 --trace-out {} --metrics-out {}",
                trace.display(),
                metrics.display()
            )))
            .unwrap();
            assert!(out.contains("overlap-eff"), "{out}");
            assert!(out.contains("FlashOverlap"), "{out}");
            assert!(out.contains("signal latency"), "{out}");
            assert!(out.contains("link d0->d1"), "{out}");
            // Both artifacts must be valid JSON with the expected shape.
            let trace_doc =
                telemetry::json::parse(&std::fs::read_to_string(&trace).unwrap()).unwrap();
            let events = trace_doc.get("traceEvents").unwrap().as_arr().unwrap();
            let has_phase = |ph: &str| {
                events
                    .iter()
                    .any(|e| e.get("ph").and_then(Value::as_str) == Some(ph))
            };
            let devices: std::collections::BTreeSet<i64> = events
                .iter()
                .filter(|e| e.get("ph").and_then(Value::as_str) == Some("X"))
                .filter_map(|e| e.get("pid").and_then(Value::as_f64))
                .map(|p| p as i64)
                .collect();
            assert_eq!(
                devices.into_iter().collect::<Vec<_>>(),
                vec![0, 1],
                "{dims}"
            );
            assert!(has_phase("s"), "{dims}: missing signal flow events");
            assert!(has_phase("C"), "{dims}: missing counter tracks");
            let metrics_doc =
                telemetry::json::parse(&std::fs::read_to_string(&metrics).unwrap()).unwrap();
            let methods = metrics_doc.get("methods").unwrap().as_arr().unwrap();
            assert_eq!(methods.len(), 5, "{dims}");
            for m in methods {
                let eff = m.get("overlap_efficiency").unwrap();
                assert!(
                    eff.as_f64()
                        .map_or(*eff == Value::Null, |e| (0.0..=1.0).contains(&e)),
                    "{dims}: overlap efficiency {eff:?}"
                );
            }
            let samples = metrics_doc
                .get("signal_latency")
                .and_then(|s| s.get("samples"))
                .and_then(Value::as_f64)
                .unwrap();
            assert!(samples > 0.0, "{dims}: no signal-latency samples");
            let links = metrics_doc.get("links").unwrap().as_arr().unwrap();
            assert!(!links.is_empty(), "{dims}: no link stats");
        }
    }

    #[test]
    fn run_and_compare_accept_metrics_out() {
        let metrics = temp_path("run-metrics.json");
        let out = crate::run(&argv(&format!(
            "run -m 2048 -n 4096 -k 4096 --gpus 2 --metrics-out {}",
            metrics.display()
        )))
        .unwrap();
        assert!(out.contains("metrics written to"), "{out}");
        let doc = telemetry::json::parse(&std::fs::read_to_string(&metrics).unwrap()).unwrap();
        assert!(doc.get("signal_latency").is_some());
        let metrics = temp_path("compare-metrics.json");
        let out = crate::run(&argv(&format!(
            "compare -m 2048 -n 4096 -k 4096 --gpus 2 --metrics-out {}",
            metrics.display()
        )))
        .unwrap();
        assert!(out.contains("metrics written to"), "{out}");
    }

    #[test]
    fn timeline_trace_covers_every_device() {
        // Regression: the exported trace used to keep only rank 0's spans.
        let trace = temp_path("timeline-trace.json");
        let out = crate::run(&argv(&format!(
            "timeline -m 2048 -n 4096 -k 4096 --gpus 2 --trace-out {}",
            trace.display()
        )))
        .unwrap();
        assert!(out.contains("perfetto trace written to"), "{out}");
        let doc = telemetry::json::parse(&std::fs::read_to_string(&trace).unwrap()).unwrap();
        let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
        let devices: std::collections::BTreeSet<i64> = events
            .iter()
            .filter(|e| e.get("ph").and_then(telemetry::json::Value::as_str) == Some("X"))
            .filter_map(|e| e.get("pid").and_then(telemetry::json::Value::as_f64))
            .map(|p| p as i64)
            .collect();
        assert_eq!(devices.into_iter().collect::<Vec<_>>(), vec![0, 1]);
    }

    #[test]
    fn chaos_sweep_reports_verdicts_and_metrics() {
        use telemetry::json::Value;
        let metrics = temp_path("chaos-metrics.json");
        let out = crate::run(&argv(&format!(
            "chaos --seed 7 --campaigns 20 --metrics-out {}",
            metrics.display()
        )))
        .unwrap();
        assert!(
            out.contains("chaos    : 20 campaigns, base seed 7"),
            "{out}"
        );
        assert!(out.contains("verdicts"), "{out}");
        assert!(out.contains("hangs    : 0"), "{out}");
        assert!(out.contains("violations: 0"), "{out}");
        let doc = telemetry::json::parse(&std::fs::read_to_string(&metrics).unwrap()).unwrap();
        assert_eq!(doc.get("campaigns").and_then(Value::as_f64), Some(20.0));
        assert_eq!(doc.get("hangs").and_then(Value::as_f64), Some(0.0));
        assert_eq!(doc.get("violations").and_then(Value::as_f64), Some(0.0));
        let results = doc.get("results").unwrap().as_arr().unwrap();
        assert_eq!(results.len(), 20, "one entry per campaign");
        let outcome = |r: &Value| {
            r.get("outcome")
                .and_then(Value::as_str)
                .unwrap()
                .to_string()
        };
        for r in results {
            let faults = r.get("faults").and_then(Value::as_f64).unwrap();
            assert!(faults >= 1.0, "every campaign injects a fault: {r:?}");
            let bit_exact = r.get("bit_exact").and_then(Value::as_bool).unwrap();
            let cause = r.get("cause").and_then(Value::as_str).unwrap_or("");
            assert!(
                bit_exact || (outcome(r) == "degraded" && !cause.is_empty()),
                "bit-exact or degraded with a cause: {r:?}"
            );
        }
        assert!(
            results.iter().any(|r| outcome(r) == "recovered"),
            "the sweep must exercise the tail-recovery path"
        );
    }

    #[test]
    fn verify_reports_clean_and_writes_deterministic_metrics() {
        let metrics_a = temp_path("verify-a.json");
        let metrics_b = temp_path("verify-b.json");
        let cmd = |path: &std::path::Path| {
            format!(
                "verify -m 2048 -n 4096 -k 4096 --gpus 2 --metrics-out {}",
                path.display()
            )
        };
        let out = crate::run(&argv(&cmd(&metrics_a))).unwrap();
        assert!(out.contains("static   : clean"), "{out}");
        assert!(out.contains("conforms in every cell"), "{out}");
        assert!(out.contains("serve mix:"), "{out}");
        assert!(out.contains("all clean"), "{out}");
        crate::run(&argv(&cmd(&metrics_b))).unwrap();
        let a = std::fs::read_to_string(&metrics_a).unwrap();
        let b = std::fs::read_to_string(&metrics_b).unwrap();
        assert_eq!(a, b, "verify must write byte-identical reports");
        let doc = telemetry::json::parse(&a).unwrap();
        assert_eq!(
            doc.get("kind").and_then(|v| v.as_str()),
            Some("flashoverlap-verify")
        );
        assert_eq!(
            doc.get("static")
                .and_then(|s| s.get("clean"))
                .and_then(telemetry::json::Value::as_bool),
            Some(true)
        );
        let matrix = doc.get("matrix").unwrap().as_arr().unwrap();
        assert_eq!(matrix.len(), 12, "6 mutations x 2 paths");
        assert!(
            matrix
                .iter()
                .all(|c| c.get("conforms").and_then(telemetry::json::Value::as_bool) == Some(true)),
            "every cell's static arm must conform"
        );
        let caught_static = matrix
            .iter()
            .filter(|c| c.get("expected").and_then(|v| v.as_str()) == Some("caught-static"))
            .count();
        assert_eq!(caught_static, 7);
        assert_eq!(doc.get("caveats").unwrap().as_arr().unwrap().len(), 3);
        assert_eq!(doc.get("methods").unwrap().as_arr().unwrap().len(), 5);
        let mix = doc.get("serve_mix").unwrap().as_arr().unwrap();
        assert!(!mix.is_empty(), "default mix yields verifiable shapes");
        assert!(mix
            .iter()
            .all(|e| e.get("clean").and_then(telemetry::json::Value::as_bool) == Some(true)));
    }

    #[test]
    fn verify_rejects_a_statically_invalid_partition() {
        // A partition summing short of the wave count fails construction;
        // verify surfaces that before any simulation could run.
        let err = crate::run(&argv(
            "verify -m 2048 -n 4096 -k 4096 --partition 1,1,1,1,1,1,1",
        ))
        .unwrap_err();
        assert!(!err.show_usage);
        assert!(
            err.message.contains("plan construction failed"),
            "{}",
            err.message
        );
    }

    #[test]
    fn all_to_all_compare_runs() {
        let out = crate::run(&argv(
            "compare -m 2048 -n 2048 -k 2048 --primitive a2a --gpus 4",
        ))
        .unwrap();
        assert!(out.contains("FlashOverlap"));
    }

    #[test]
    fn analyze_attributes_less_signal_wait_than_per_wave() {
        let metrics_a = temp_path("analyze-a.json");
        let metrics_b = temp_path("analyze-b.json");
        let trace = temp_path("analyze-trace.json");
        let cmd = |path: &std::path::Path| {
            format!(
                "analyze -m 2048 -n 4096 -k 4096 --gpus 2 --platform a800 --metrics-out {}",
                path.display()
            )
        };
        let out = crate::run(&argv(&format!(
            "{} --trace-out {}",
            cmd(&metrics_a),
            trace.display()
        )))
        .unwrap();
        assert!(out.contains("tuned"), "{out}");
        assert!(out.contains("per-wave"), "{out}");
        assert!(
            out.contains("both attributions sum exactly to their makespans"),
            "{out}"
        );
        crate::run(&argv(&cmd(&metrics_b))).unwrap();
        let a = std::fs::read_to_string(&metrics_a).unwrap();
        let b = std::fs::read_to_string(&metrics_b).unwrap();
        assert_eq!(a, b, "analyze must write byte-identical metrics");

        let doc = telemetry::json::parse(&a).unwrap();
        assert_eq!(
            doc.get("kind").and_then(|v| v.as_str()),
            Some("flashoverlap-analyze")
        );
        let wait = |arm: &str| {
            doc.get(arm)
                .and_then(|v| v.get("attribution"))
                .and_then(|v| v.get("categories"))
                .and_then(|v| v.get("signal_wait_ns"))
                .and_then(telemetry::json::Value::as_f64)
                .unwrap()
        };
        // The paper's tuning win, read directly off the critical path:
        // the tuned partition spends strictly less time blocked on
        // signals than naive per-wave signaling on the same workload.
        assert!(
            wait("tuned") < wait("per_wave"),
            "tuned signal-wait {} must beat per-wave {}",
            wait("tuned"),
            wait("per_wave")
        );
        assert!(
            doc.get("signal_wait_saved_ns")
                .and_then(telemetry::json::Value::as_f64)
                .unwrap()
                > 0.0
        );
        // The highlighted trace carries a critical-path track beyond the
        // per-device ones.
        let trace_doc = telemetry::json::parse(&std::fs::read_to_string(&trace).unwrap()).unwrap();
        let events = trace_doc.get("traceEvents").unwrap().as_arr().unwrap();
        assert!(
            events.iter().any(|e| {
                e.get("ph").and_then(telemetry::json::Value::as_str) == Some("M")
                    && e.get("args")
                        .and_then(|a| a.get("name"))
                        .and_then(telemetry::json::Value::as_str)
                        == Some("critical path")
            }),
            "trace must carry the critical-path track"
        );
    }

    #[test]
    fn bench_writes_byte_stable_artifact_with_exact_attribution() {
        // The pinned scenario, a smaller one, and four 8-GPU replicas.
        for args in [
            "--requests 60 --seed 7",
            "--requests 120 --seed 7",
            "--requests 200 --rate 400 --gpus 8 --replicas 4 --seed 7",
        ] {
            bench_artifact_is_byte_stable_with_exact_attribution(args);
        }
    }

    fn bench_artifact_is_byte_stable_with_exact_attribution(args: &str) {
        let bench_a = temp_path("bench-a.json");
        let bench_b = temp_path("bench-b.json");
        let cmd = |path: &std::path::Path| format!("bench {args} --metrics-out {}", path.display());
        let out = crate::run(&argv(&cmd(&bench_a))).unwrap();
        assert!(out.contains("wall-clock"), "{out}");
        assert!(out.contains("bench report written to"), "{out}");
        crate::run(&argv(&cmd(&bench_b))).unwrap();
        let a = std::fs::read_to_string(&bench_a).unwrap();
        let b = std::fs::read_to_string(&bench_b).unwrap();
        assert_eq!(
            a, b,
            "same seed must produce a byte-identical bench artifact"
        );

        let doc = telemetry::json::parse(&a).unwrap();
        assert_eq!(
            doc.get("kind").and_then(|v| v.as_str()),
            Some("flashoverlap-bench-serve")
        );
        assert_eq!(
            doc.get("attribution")
                .and_then(|v| v.get("identity_holds"))
                .and_then(telemetry::json::Value::as_bool),
            Some(true),
            "serve attribution must tile the makespan exactly"
        );
        // Category nanoseconds sum to the makespan.
        let attribution = doc.get("attribution").unwrap();
        let makespan = attribution
            .get("makespan_ns")
            .and_then(telemetry::json::Value::as_f64)
            .unwrap();
        let categories = attribution.get("categories").unwrap();
        let total: f64 = telemetry::Category::ALL
            .iter()
            .map(|c| {
                categories
                    .get(&format!("{}_ns", c.key()))
                    .and_then(telemetry::json::Value::as_f64)
                    .unwrap()
            })
            .sum();
        assert_eq!(total, makespan);
        let drift_rows = doc.get("drift_rows").and_then(|v| v.as_f64()).unwrap();
        assert!(drift_rows > 0.0, "predictor-drift table must be populated");
    }
}
