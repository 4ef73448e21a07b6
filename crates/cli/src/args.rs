//! Argument parsing for the `flashoverlap` binary.

use std::error::Error;
use std::fmt;

use collectives::{Algorithm, Primitive};
use flashoverlap::{SignalMutation, WavePartition};
use serving::RouterPolicy;
use workloads::GpuKind;

/// A CLI error: message plus whether usage help should follow.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CliError {
    /// Human-readable message.
    pub message: String,
    /// Whether the caller should print usage after the message.
    pub show_usage: bool,
}

impl CliError {
    /// A usage error (the caller prints the help text after it).
    pub fn usage(message: impl Into<String>) -> Self {
        CliError {
            message: message.into(),
            show_usage: true,
        }
    }

    /// A runtime (non-usage) error.
    pub fn runtime(message: impl Into<String>) -> Self {
        CliError {
            message: message.into(),
            show_usage: false,
        }
    }
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

impl Error for CliError {}

/// The selected subcommand: one that builds a plan from `-m/-n/-k`
/// first, or one that draws its own workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Command {
    /// A command on one tuned (or `--partition`ed) plan.
    Plan(PlanCommand),
    /// Run a seeded fault-injection campaign sweep through the watchdog
    /// runtime and verify every verdict against the fault-free reference.
    Chaos,
    /// Serve a seeded request trace through the continuous-batching
    /// scheduler with the tuned-plan cache and print the SLO report.
    Serve,
    /// Run the serve regression benchmark and write `BENCH_serve.json`
    /// (virtual-time metrics only, byte-stable for a fixed seed).
    Bench,
}

/// A command on one plan built from `-m/-n/-k` (see [`Command::Plan`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanCommand {
    /// Tune the wave partition and print it with the predicted latency.
    Tune,
    /// Simulate one overlapped run and print the report.
    Run,
    /// Measure every applicable method and print the speedup table.
    Compare,
    /// Render the per-stream ASCII timeline of one run.
    Timeline,
    /// Profile every method with telemetry attached: Perfetto trace,
    /// signal-latency / link-utilization metrics, overlap efficiency.
    Profile,
    /// Statically verify the plan's signal/wait schedule and print the
    /// mutation conformance matrix, without running the simulator.
    Verify,
    /// Attribute every nanosecond of one run's critical path to an
    /// exclusive category (compute, transfer, signal-wait, ...) and
    /// compare the tuned plan against the naive per-wave baseline.
    Analyze,
}

/// Arrival process selector for the `serve` command (rates attach in
/// the command layer).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeArrival {
    /// Poisson arrivals at `--rate`.
    Poisson,
    /// Calm/burst modulated arrivals around `--rate`.
    Bursty,
}

/// Raw argv tokens mid-parse; flag groups pull their values from it.
type ArgIter<'a> = std::iter::Peekable<std::slice::Iter<'a, String>>;

/// Pulls the path value following a flag, or errors with usage.
fn parse_path(flag: &str, value: Option<&String>) -> Result<String, CliError> {
    Ok(value
        .ok_or_else(|| CliError::usage(format!("missing value for {flag}")))?
        .clone())
}

/// Artifact output paths shared across commands. The flags used to be
/// parsed by per-command copy-paste; this group owns them once and
/// every command reads the same fields.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct OutputArgs {
    /// `--trace-out`: Perfetto/Chrome trace (timeline, profile, serve,
    /// analyze).
    pub trace_out: Option<String>,
    /// `--metrics-out`: machine-readable metrics report JSON.
    pub metrics_out: Option<String>,
}

impl OutputArgs {
    /// Consumes `flag` (and its value) if it belongs to this group;
    /// returns whether it did.
    fn accept(&mut self, flag: &str, it: &mut ArgIter<'_>) -> Result<bool, CliError> {
        match flag {
            "--trace-out" => self.trace_out = Some(parse_path(flag, it.next())?),
            "--metrics-out" => self.metrics_out = Some(parse_path(flag, it.next())?),
            _ => return Ok(false),
        }
        Ok(true)
    }
}

/// Tuned-plan-cache snapshot persistence (`serve`/`bench`).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PlanCacheArgs {
    /// `--plan-cache-in`: snapshot preloaded into every replica.
    pub load: Option<String>,
    /// `--plan-cache-out`: snapshot written after serving.
    pub save: Option<String>,
}

impl PlanCacheArgs {
    /// Consumes `flag` (and its value) if it belongs to this group;
    /// returns whether it did.
    fn accept(&mut self, flag: &str, it: &mut ArgIter<'_>) -> Result<bool, CliError> {
        match flag {
            "--plan-cache-in" => self.load = Some(parse_path(flag, it.next())?),
            "--plan-cache-out" => self.save = Some(parse_path(flag, it.next())?),
            _ => return Ok(false),
        }
        Ok(true)
    }
}

/// Parsed command-line options.
#[derive(Debug, Clone)]
pub struct Cli {
    /// Subcommand.
    pub command: Command,
    /// GEMM M.
    pub m: u32,
    /// GEMM N.
    pub n: u32,
    /// GEMM K.
    pub k: u32,
    /// Communication primitive.
    pub primitive: Primitive,
    /// GPU count.
    pub gpus: usize,
    /// Platform.
    pub platform: GpuKind,
    /// Explicit wave partition (otherwise tuned).
    pub partition: Option<WavePartition>,
    /// Routing seed for All-to-All workloads.
    pub seed: u64,
    /// Collective algorithm.
    pub algorithm: Algorithm,
    /// Artifact output paths (`--trace-out`, `--metrics-out`).
    pub output: OutputArgs,
    /// Run under the SimSan happens-before sanitizer (run/timeline).
    pub sanitize: bool,
    /// Seeded signal mutation for sanitizer self-tests (implies
    /// `--sanitize`).
    pub mutation: Option<SignalMutation>,
    /// Number of fault campaigns for the `chaos` command.
    pub campaigns: usize,
    /// Number of requests for the `serve` command.
    pub requests: usize,
    /// Arrival process for the `serve` command.
    pub arrival: ServeArrival,
    /// Mean arrival rate in requests per second (`serve`).
    pub rate: f64,
    /// Latency SLO in milliseconds (`serve`).
    pub slo_ms: f64,
    /// Arm per-batch fault injection during `serve`.
    pub serve_chaos: bool,
    /// Also serve the untuned non-overlap baseline and report speedups
    /// (`serve`).
    pub baseline: bool,
    /// Number of independent TP replica groups (`serve`).
    pub replicas: usize,
    /// Nodes the replicas are placed across; > 1 splits every TP group
    /// over a two-tier topology and arms inter-node migration
    /// accounting (`serve`).
    pub nodes: usize,
    /// Force this replica's first chaos chain to wedge so the
    /// quarantine → re-route path is reproducible (`serve`; requires
    /// `--chaos`).
    pub wedge_replica: Option<usize>,
    /// Routing policy assigning closed batches to replicas (`serve`).
    pub router: RouterPolicy,
    /// Disable cross-batch pipelining: full barrier between chained
    /// batches on a replica (`serve --no-pipeline`).
    pub no_pipeline: bool,
    /// Also serve the single-replica and unpipelined arms and report
    /// the scaling comparison (`serve --scaling`).
    pub scaling: bool,
    /// Tuned-plan-cache snapshot persistence (`serve`).
    pub plan_cache: PlanCacheArgs,
}

/// The usage text printed on `--help` or parse errors.
pub const USAGE: &str = "\
usage: flashoverlap <tune|run|compare|timeline|profile|verify|analyze|chaos|
                     serve|bench> [options]

options:
  -m, -n, -k <int>        GEMM dimensions (required except for chaos,
                          which defaults to its 384x512x64 campaign shape)
  --primitive <name>      allreduce | reducescatter | alltoall | allgather
                          (default: allreduce)
  --gpus <int>            parallel group size (default: 4)
  --platform <name>       rtx4090 | a800 (default: rtx4090)
  --partition <a,b,c>     explicit wave partition (default: tuned)
  --seed <int>            routing seed for alltoall (default: 7)
  --algorithm <name>      ring | direct | auto (default: ring)
  --trace-out <path>      timeline/profile: also write a Perfetto
                          (Chrome trace-event) JSON covering all devices
  --metrics-out <path>    run/compare/profile: also write the metrics
                          report JSON (signal latency, link utilization,
                          overlap efficiency)
  --sanitize              run/timeline: attach the SimSan happens-before
                          sanitizer and report races, lost signals, and
                          deadlocks after the run
  --drop-signal <r,g>     run/timeline: mutate the program to skip rank r's
                          signal wait for group g (sanitizer self-test;
                          implies --sanitize)
  --starve-signal <r,g>   run/timeline: mutate rank r's group-g wait to an
                          unreachable threshold (implies --sanitize)
  --campaigns <int>       chaos: number of seeded fault campaigns
                          (default: 20); campaign i draws faults from
                          seed + i
  --requests <int>        serve: requests to offer (default: 200)
  --arrival <name>        serve: poisson | bursty (default: poisson)
  --rate <float>          serve: mean arrival rate in requests per second
                          (default: 500); bursty alternates calm/burst
                          phases around this mean
  --slo-ms <float>        serve: latency SLO in milliseconds (default: 20)
  --chaos                 serve: arm a deterministic per-batch fault plan
                          and execute through the resilient runtime
  --baseline              serve: also serve the identical trace with
                          untuned non-overlap plans and report speedups
  --replicas <int>        serve: independent TP replica groups, each with
                          its own cluster and plan cache (default: 1)
  --nodes <int>           serve: place replicas across this many nodes
                          (replica r lives on node r mod nodes) over a
                          two-tier NVLink/HDR-IB topology; batches routed
                          off their home node pay an accounted inter-node
                          migration penalty (default: 1; requires
                          gpus and replicas divisible by nodes)
  --wedge-replica <int>   serve: force this replica's first chaos chain to
                          wedge unrecoverably; the replica is quarantined
                          and its queued batches re-route deterministically
                          (requires --chaos)
  --router <name>         serve: round-robin | least-loaded |
                          shape-affinity | locality (default: round-robin;
                          locality prefers same-node replicas and spills
                          across nodes only past a slack threshold)
  --no-pipeline           serve: full barrier between a replica's chained
                          batches instead of cross-batch pipelining
  --scaling               serve: also serve the single-replica and
                          unpipelined arms and report goodput scaling and
                          the pipelining p95 gain
  --plan-cache-out <path> serve: write the tuned-plan-cache snapshot
                          (keyed by the system fingerprint) after serving
  --plan-cache-in <path>  serve: preload every replica's plan cache from a
                          snapshot; a fingerprint mismatch is an error
  -h, --help              this text

verify proves the tuned (or --partition) plan's signal/wait schedule
safe from plan data alone — threshold feasibility, deadlock freedom,
tile-granular race/coverage — then re-proves the static arm of every
mutation-x-path conformance cell and checks each quantized serve-mix
shape; --metrics-out writes the machine-readable report. any violation
or nonconforming cell exits nonzero.

chaos verdicts: every campaign must end bit-exact (clean or recovered via
tail collectives) or degraded with a named cause; anything else counts as
a violation and fails the sweep.

serve accounting: every offered request terminates as clean, recovered,
degraded (chaos), or shed at admission; the report carries p50/p95/p99
latency, goodput, shed rate, plan-cache hit rate, batch-form/queue wait
percentiles, critical-path attribution, and predictor drift. serve
defaults to --gpus 2 and ignores -m/-n/-k (shapes come from the traffic
mix); --trace-out writes the request-lifecycle Perfetto trace.

analyze runs the tuned plan and the naive per-wave signaling baseline
(§4.1.1) on the same shape, walks each run's happens-before graph
backward from the last completion, and buckets every nanosecond of the
critical path into exclusive categories (gemm-compute,
collective-transfer, signal-wait, rearm-stall, recovery, idle) that sum
exactly to the makespan; --metrics-out writes the comparison JSON and
--trace-out writes the tuned run's Perfetto trace with the critical
path highlighted as its own track.

bench serves a seeded trace like serve and writes BENCH_serve.json
(default; override with --metrics-out): virtual-time metrics only —
throughput, latency percentiles, wait percentiles, attribution shares —
so the file is byte-identical for a fixed seed, while host wall-clock
(a monotonic-clock delta) goes to stdout only.
";

fn parse_u32(flag: &str, value: Option<&String>) -> Result<u32, CliError> {
    value
        .ok_or_else(|| CliError::usage(format!("missing value for {flag}")))?
        .parse()
        .map_err(|_| CliError::usage(format!("invalid integer for {flag}")))
}

/// A GEMM dimension: a positive integer.
fn parse_dim(flag: &str, value: Option<&String>) -> Result<u32, CliError> {
    match parse_u32(flag, value)? {
        0 => Err(CliError::usage(format!("{flag} must be positive"))),
        v => Ok(v),
    }
}

fn parse_u64(flag: &str, value: Option<&String>) -> Result<u64, CliError> {
    value
        .ok_or_else(|| CliError::usage(format!("missing value for {flag}")))?
        .parse()
        .map_err(|_| CliError::usage(format!("invalid integer for {flag}")))
}

fn parse_f64(flag: &str, value: Option<&String>) -> Result<f64, CliError> {
    let v: f64 = value
        .ok_or_else(|| CliError::usage(format!("missing value for {flag}")))?
        .parse()
        .map_err(|_| CliError::usage(format!("invalid number for {flag}")))?;
    if !v.is_finite() || v <= 0.0 {
        return Err(CliError::usage(format!("{flag} must be positive")));
    }
    Ok(v)
}

/// Parses a `rank,group` pair for the signal-mutation flags.
fn parse_rank_group(flag: &str, value: Option<&String>) -> Result<(usize, usize), CliError> {
    let v = value.ok_or_else(|| CliError::usage(format!("missing value for {flag}")))?;
    let parts: Vec<&str> = v.split(',').map(str::trim).collect();
    let [rank, group] = parts.as_slice() else {
        return Err(CliError::usage(format!("{flag} expects RANK,GROUP")));
    };
    let rank = rank
        .parse()
        .map_err(|_| CliError::usage(format!("invalid rank for {flag}")))?;
    let group = group
        .parse()
        .map_err(|_| CliError::usage(format!("invalid group for {flag}")))?;
    Ok((rank, group))
}

impl Cli {
    /// Parses `argv` (excluding the program name).
    ///
    /// # Errors
    ///
    /// Returns [`CliError`] with usage on malformed input.
    pub fn parse(argv: &[String]) -> Result<Cli, CliError> {
        let mut it = argv.iter().peekable();
        let command = match it.next().map(String::as_str) {
            Some("tune") => Command::Plan(PlanCommand::Tune),
            Some("run") => Command::Plan(PlanCommand::Run),
            Some("compare") => Command::Plan(PlanCommand::Compare),
            Some("timeline") => Command::Plan(PlanCommand::Timeline),
            Some("profile") => Command::Plan(PlanCommand::Profile),
            Some("chaos") => Command::Chaos,
            Some("serve") => Command::Serve,
            Some("verify") => Command::Plan(PlanCommand::Verify),
            Some("analyze") => Command::Plan(PlanCommand::Analyze),
            Some("bench") => Command::Bench,
            Some("-h") | Some("--help") | None => {
                return Err(CliError::usage("".to_string()));
            }
            Some(other) => {
                return Err(CliError::usage(format!("unknown command: {other}")));
            }
        };
        let mut m = None;
        let mut n = None;
        let mut k = None;
        let mut primitive = Primitive::AllReduce;
        // Chaos sweeps default to the miniature two-rank campaign system
        // (matching `ChaosConfig::default`) so 50-campaign runs stay fast;
        // serve does the same so hundred-request traces stay fast.
        let mut gpus = if matches!(command, Command::Plan(_)) {
            4
        } else {
            2
        };
        let mut platform = GpuKind::Rtx4090;
        let mut partition = None;
        let mut seed = 7u64;
        let mut algorithm = Algorithm::Ring;
        let mut output = OutputArgs::default();
        let mut sanitize = false;
        let mut mutation = None;
        let mut campaigns = 20usize;
        let mut requests = 200usize;
        let mut arrival = ServeArrival::Poisson;
        let mut rate = 500.0f64;
        let mut slo_ms = 20.0f64;
        let mut serve_chaos = false;
        let mut baseline = false;
        let mut replicas = 1usize;
        let mut nodes = 1usize;
        let mut wedge_replica = None;
        let mut router = RouterPolicy::RoundRobin;
        let mut no_pipeline = false;
        let mut scaling = false;
        let mut plan_cache = PlanCacheArgs::default();
        while let Some(flag) = it.next() {
            // Shared flag groups first (the hand-rolled equivalent of a
            // flattened sub-struct); singleton flags fall through.
            if output.accept(flag, &mut it)? || plan_cache.accept(flag, &mut it)? {
                continue;
            }
            match flag.as_str() {
                "-m" => m = Some(parse_dim("-m", it.next())?),
                "-n" => n = Some(parse_dim("-n", it.next())?),
                "-k" => k = Some(parse_dim("-k", it.next())?),
                "--gpus" => gpus = parse_u32("--gpus", it.next())? as usize,
                "--seed" => seed = parse_u64("--seed", it.next())?,
                "--primitive" => {
                    let v = it
                        .next()
                        .ok_or_else(|| CliError::usage("missing value for --primitive"))?;
                    primitive = match v.to_lowercase().as_str() {
                        "allreduce" | "ar" => Primitive::AllReduce,
                        "reducescatter" | "rs" => Primitive::ReduceScatter,
                        "alltoall" | "a2a" => Primitive::AllToAll,
                        "allgather" | "ag" => Primitive::AllGather,
                        other => {
                            return Err(CliError::usage(format!("unknown primitive: {other}")));
                        }
                    };
                }
                "--platform" => {
                    let v = it
                        .next()
                        .ok_or_else(|| CliError::usage("missing value for --platform"))?;
                    platform = match v.to_lowercase().as_str() {
                        "rtx4090" | "4090" => GpuKind::Rtx4090,
                        "a800" => GpuKind::A800,
                        other => {
                            return Err(CliError::usage(format!("unknown platform: {other}")));
                        }
                    };
                }
                "--partition" => {
                    let v = it
                        .next()
                        .ok_or_else(|| CliError::usage("missing value for --partition"))?;
                    let sizes: Result<Vec<u32>, _> =
                        v.split(',').map(|p| p.trim().parse::<u32>()).collect();
                    let sizes = sizes
                        .map_err(|_| CliError::usage("partition must be comma-separated ints"))?;
                    if sizes.is_empty() || sizes.contains(&0) {
                        return Err(CliError::usage("partition sizes must be positive"));
                    }
                    partition = Some(WavePartition::new(sizes));
                }
                "--algorithm" => {
                    let v = it
                        .next()
                        .ok_or_else(|| CliError::usage("missing value for --algorithm"))?;
                    algorithm = match v.to_lowercase().as_str() {
                        "ring" => Algorithm::Ring,
                        "direct" => Algorithm::Direct,
                        "auto" => Algorithm::Auto,
                        other => {
                            return Err(CliError::usage(format!("unknown algorithm: {other}")));
                        }
                    };
                }
                "--sanitize" => sanitize = true,
                "--campaigns" => {
                    campaigns = parse_u32("--campaigns", it.next())? as usize;
                    if campaigns == 0 {
                        return Err(CliError::usage("--campaigns must be at least 1"));
                    }
                }
                "--requests" => {
                    requests = parse_u32("--requests", it.next())? as usize;
                    if requests == 0 {
                        return Err(CliError::usage("--requests must be at least 1"));
                    }
                }
                "--arrival" => {
                    let v = it
                        .next()
                        .ok_or_else(|| CliError::usage("missing value for --arrival"))?;
                    arrival = match v.to_lowercase().as_str() {
                        "poisson" => ServeArrival::Poisson,
                        "bursty" => ServeArrival::Bursty,
                        other => {
                            return Err(CliError::usage(format!("unknown arrival: {other}")));
                        }
                    };
                }
                "--rate" => rate = parse_f64("--rate", it.next())?,
                "--slo-ms" => slo_ms = parse_f64("--slo-ms", it.next())?,
                "--chaos" => serve_chaos = true,
                "--baseline" => baseline = true,
                "--replicas" => {
                    replicas = parse_u32("--replicas", it.next())? as usize;
                    if replicas == 0 {
                        return Err(CliError::usage("--replicas must be at least 1"));
                    }
                }
                "--nodes" => {
                    nodes = parse_u32("--nodes", it.next())? as usize;
                    if nodes == 0 {
                        return Err(CliError::usage("--nodes must be at least 1"));
                    }
                }
                "--wedge-replica" => {
                    wedge_replica = Some(parse_u32("--wedge-replica", it.next())? as usize);
                }
                "--router" => {
                    let v = it
                        .next()
                        .ok_or_else(|| CliError::usage("missing value for --router"))?;
                    router = RouterPolicy::parse(&v.to_lowercase()).ok_or_else(|| {
                        CliError::usage(format!(
                            "unknown router: {v} (expected round-robin, least-loaded, \
                             shape-affinity, or locality)"
                        ))
                    })?;
                }
                "--no-pipeline" => no_pipeline = true,
                "--scaling" => scaling = true,
                "--drop-signal" => {
                    let (rank, group) = parse_rank_group("--drop-signal", it.next())?;
                    mutation = Some(SignalMutation::DropWait { rank, group });
                    sanitize = true;
                }
                "--starve-signal" => {
                    let (rank, group) = parse_rank_group("--starve-signal", it.next())?;
                    mutation = Some(SignalMutation::RaiseThreshold { rank, group });
                    sanitize = true;
                }
                "-h" | "--help" => return Err(CliError::usage("".to_string())),
                other => return Err(CliError::usage(format!("unknown flag: {other}"))),
            }
        }
        // Plan commands need explicit dimensions. Chaos has a sensible
        // built-in workload (the default campaign shape) and serve draws
        // shapes from the traffic mix.
        let (m, n, k) = if matches!(command, Command::Plan(_)) {
            let (Some(m), Some(n), Some(k)) = (m, n, k) else {
                return Err(CliError::usage("-m, -n, and -k are required"));
            };
            (m, n, k)
        } else {
            (m.unwrap_or(384), n.unwrap_or(512), k.unwrap_or(64))
        };
        if gpus < 2 {
            return Err(CliError::usage("--gpus must be at least 2"));
        }
        Ok(Cli {
            command,
            m,
            n,
            k,
            primitive,
            gpus,
            platform,
            partition,
            seed,
            algorithm,
            output,
            sanitize,
            mutation,
            campaigns,
            requests,
            arrival,
            rate,
            slo_ms,
            serve_chaos,
            baseline,
            replicas,
            nodes,
            wedge_replica,
            router,
            no_pipeline,
            scaling,
            plan_cache,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn parses_full_command_line() {
        let cli = Cli::parse(&argv(
            "run -m 4096 -n 8192 -k 2048 --primitive rs --gpus 8 --platform a800 \
             --partition 1,2,3 --seed 42",
        ))
        .unwrap();
        assert_eq!(cli.command, Command::Plan(PlanCommand::Run));
        assert_eq!((cli.m, cli.n, cli.k), (4096, 8192, 2048));
        assert_eq!(cli.primitive, Primitive::ReduceScatter);
        assert_eq!(cli.gpus, 8);
        assert_eq!(cli.platform, GpuKind::A800);
        assert_eq!(cli.partition.unwrap().sizes(), &[1, 2, 3]);
        assert_eq!(cli.seed, 42);
    }

    #[test]
    fn defaults_apply() {
        let cli = Cli::parse(&argv("tune -m 1024 -n 1024 -k 1024")).unwrap();
        assert_eq!(cli.primitive, Primitive::AllReduce);
        assert_eq!(cli.gpus, 4);
        assert_eq!(cli.platform, GpuKind::Rtx4090);
        assert!(cli.partition.is_none());
    }

    #[test]
    fn missing_dims_is_usage_error() {
        let err = Cli::parse(&argv("tune -m 1024 -n 1024")).unwrap_err();
        assert!(err.show_usage);
        assert!(err.message.contains("required"));
    }

    #[test]
    fn unknown_command_and_flag_are_rejected() {
        assert!(Cli::parse(&argv("frobnicate")).unwrap_err().show_usage);
        assert!(
            Cli::parse(&argv("run -m 1 -n 1 -k 1 --bogus 3"))
                .unwrap_err()
                .show_usage
        );
        // Removed with the threaded engine pool: a flag like any other
        // unknown one.
        let err = Cli::parse(&argv("serve --replicas 4 --parallel 4")).unwrap_err();
        assert!(err.show_usage);
        assert_eq!(err.message, "unknown flag: --parallel");
    }

    #[test]
    fn primitive_aliases() {
        for (alias, expected) in [
            ("ar", Primitive::AllReduce),
            ("a2a", Primitive::AllToAll),
            ("ag", Primitive::AllGather),
        ] {
            let cli =
                Cli::parse(&argv(&format!("run -m 64 -n 64 -k 64 --primitive {alias}"))).unwrap();
            assert_eq!(cli.primitive, expected);
        }
    }

    #[test]
    fn zero_partition_size_rejected() {
        let err = Cli::parse(&argv("run -m 64 -n 64 -k 64 --partition 1,0,2")).unwrap_err();
        assert!(err.message.contains("positive"));
    }

    #[test]
    fn algorithm_and_trace_flags_parse() {
        let cli = Cli::parse(&argv(
            "timeline -m 64 -n 64 -k 64 --algorithm auto --trace-out /tmp/t.json",
        ))
        .unwrap();
        assert_eq!(cli.algorithm, Algorithm::Auto);
        assert_eq!(cli.output.trace_out.as_deref(), Some("/tmp/t.json"));
        assert!(
            Cli::parse(&argv("run -m 1 -n 1 -k 1 --algorithm bogus"))
                .unwrap_err()
                .show_usage
        );
    }

    #[test]
    fn profile_command_and_metrics_out_parse() {
        let cli = Cli::parse(&argv(
            "profile -m 4096 -n 4096 -k 4096 --trace-out t.json --metrics-out m.json",
        ))
        .unwrap();
        assert_eq!(cli.command, Command::Plan(PlanCommand::Profile));
        assert_eq!(cli.output.trace_out.as_deref(), Some("t.json"));
        assert_eq!(cli.output.metrics_out.as_deref(), Some("m.json"));
        let cli = Cli::parse(&argv("run -m 64 -n 64 -k 64 --metrics-out m.json")).unwrap();
        assert_eq!(cli.output.metrics_out.as_deref(), Some("m.json"));
        assert!(
            Cli::parse(&argv("profile -m 1 -n 1 -k 1 --metrics-out"))
                .unwrap_err()
                .show_usage
        );
    }

    #[test]
    fn sanitizer_flags_parse() {
        let cli = Cli::parse(&argv("run -m 64 -n 64 -k 64 --sanitize")).unwrap();
        assert!(cli.sanitize);
        assert!(cli.mutation.is_none());
        let cli = Cli::parse(&argv("timeline -m 64 -n 64 -k 64 --drop-signal 1,2")).unwrap();
        assert!(cli.sanitize, "--drop-signal implies --sanitize");
        assert_eq!(
            cli.mutation,
            Some(SignalMutation::DropWait { rank: 1, group: 2 })
        );
        let cli = Cli::parse(&argv("run -m 64 -n 64 -k 64 --starve-signal 0,1")).unwrap();
        assert_eq!(
            cli.mutation,
            Some(SignalMutation::RaiseThreshold { rank: 0, group: 1 })
        );
        assert!(
            Cli::parse(&argv("run -m 1 -n 1 -k 1 --drop-signal nope"))
                .unwrap_err()
                .show_usage
        );
        assert!(
            Cli::parse(&argv("run -m 1 -n 1 -k 1 --drop-signal 1,2,3"))
                .unwrap_err()
                .show_usage
        );
    }

    #[test]
    fn chaos_defaults_and_flags_parse() {
        let cli = Cli::parse(&argv("chaos --seed 7 --campaigns 50")).unwrap();
        assert_eq!(cli.command, Command::Chaos);
        assert_eq!((cli.m, cli.n, cli.k), (384, 512, 64), "campaign shape");
        assert_eq!(cli.gpus, 2, "chaos defaults to the two-rank system");
        assert_eq!(cli.campaigns, 50);
        assert_eq!(cli.seed, 7);
        let cli = Cli::parse(&argv("chaos -m 256 -n 256 -k 64 --gpus 3")).unwrap();
        assert_eq!((cli.m, cli.n, cli.k), (256, 256, 64));
        assert_eq!(cli.gpus, 3);
        assert_eq!(cli.campaigns, 20);
        assert!(
            Cli::parse(&argv("chaos --campaigns 0"))
                .unwrap_err()
                .show_usage
        );
    }

    #[test]
    fn serve_defaults_and_flags_parse() {
        let cli = Cli::parse(&argv("serve")).unwrap();
        assert_eq!(cli.command, Command::Serve);
        assert_eq!(cli.requests, 200);
        assert_eq!(cli.arrival, ServeArrival::Poisson);
        assert_eq!(cli.gpus, 2, "serve defaults to the two-rank system");
        assert!((cli.rate - 500.0).abs() < 1e-9);
        assert!((cli.slo_ms - 20.0).abs() < 1e-9);
        assert!(!cli.serve_chaos && !cli.baseline);
        let cli = Cli::parse(&argv(
            "serve --requests 50 --arrival bursty --rate 800 --slo-ms 2.5 \
             --seed 9 --chaos --baseline --gpus 4 --metrics-out s.json",
        ))
        .unwrap();
        assert_eq!(cli.requests, 50);
        assert_eq!(cli.arrival, ServeArrival::Bursty);
        assert!((cli.rate - 800.0).abs() < 1e-9);
        assert!((cli.slo_ms - 2.5).abs() < 1e-9);
        assert_eq!(cli.seed, 9);
        assert!(cli.serve_chaos && cli.baseline);
        assert_eq!(cli.gpus, 4);
        assert_eq!(cli.output.metrics_out.as_deref(), Some("s.json"));
    }

    #[test]
    fn serve_replica_flags_parse() {
        let cli = Cli::parse(&argv("serve")).unwrap();
        assert_eq!(cli.replicas, 1);
        assert_eq!(cli.router, RouterPolicy::RoundRobin);
        assert!(!cli.no_pipeline && !cli.scaling);
        assert!(cli.plan_cache.load.is_none() && cli.plan_cache.save.is_none());
        let cli = Cli::parse(&argv(
            "serve --replicas 4 --router shape-affinity --no-pipeline --scaling \
             --plan-cache-out cache.json --plan-cache-in warm.json",
        ))
        .unwrap();
        assert_eq!(cli.replicas, 4);
        assert_eq!(cli.router, RouterPolicy::ShapeAffinity);
        assert!(cli.no_pipeline && cli.scaling);
        assert_eq!(cli.plan_cache.save.as_deref(), Some("cache.json"));
        assert_eq!(cli.plan_cache.load.as_deref(), Some("warm.json"));
        let cli = Cli::parse(&argv("serve --router least-loaded")).unwrap();
        assert_eq!(cli.router, RouterPolicy::LeastLoaded);
        assert_eq!(cli.nodes, 1);
        let cli = Cli::parse(&argv("serve --nodes 2 --replicas 4 --router locality")).unwrap();
        assert_eq!(cli.nodes, 2);
        assert_eq!(cli.router, RouterPolicy::Locality);
        assert!(Cli::parse(&argv("serve --nodes 0")).unwrap_err().show_usage);
        let cli = Cli::parse(&argv("serve --chaos --replicas 4 --wedge-replica 2")).unwrap();
        assert_eq!(cli.wedge_replica, Some(2));
        assert_eq!(Cli::parse(&argv("serve")).unwrap().wedge_replica, None);
        assert!(
            Cli::parse(&argv("serve --replicas 0"))
                .unwrap_err()
                .show_usage
        );
        let err = Cli::parse(&argv("serve --router hash")).unwrap_err();
        assert!(err.show_usage);
        assert!(err.message.contains("shape-affinity"));
    }

    #[test]
    fn seed_accepts_full_u64_range() {
        let cli = Cli::parse(&argv("serve --seed 18446744073709551615")).unwrap();
        assert_eq!(cli.seed, u64::MAX);
    }

    #[test]
    fn serve_rejects_bad_values() {
        assert!(
            Cli::parse(&argv("serve --requests 0"))
                .unwrap_err()
                .show_usage
        );
        assert!(
            Cli::parse(&argv("serve --arrival sometimes"))
                .unwrap_err()
                .show_usage
        );
        assert!(Cli::parse(&argv("serve --rate -3")).unwrap_err().show_usage);
        assert!(
            Cli::parse(&argv("serve --slo-ms 0"))
                .unwrap_err()
                .show_usage
        );
    }

    #[test]
    fn verify_command_parses() {
        let cli = Cli::parse(&argv("verify -m 512 -n 1024 -k 512 --gpus 2")).unwrap();
        assert_eq!(cli.command, Command::Plan(PlanCommand::Verify));
        assert_eq!((cli.m, cli.n, cli.k), (512, 1024, 512));
        assert_eq!(cli.gpus, 2);
        // Verify checks a concrete plan; the shape is required like run's.
        assert!(Cli::parse(&argv("verify")).unwrap_err().show_usage);
    }

    #[test]
    fn analyze_command_parses() {
        let cli = Cli::parse(&argv(
            "analyze -m 2048 -n 4096 -k 4096 --gpus 2 --platform a800 \
             --metrics-out a.json --trace-out t.json",
        ))
        .unwrap();
        assert_eq!(cli.command, Command::Plan(PlanCommand::Analyze));
        assert_eq!((cli.m, cli.n, cli.k), (2048, 4096, 4096));
        assert_eq!(cli.gpus, 2);
        assert_eq!(cli.output.metrics_out.as_deref(), Some("a.json"));
        assert_eq!(cli.output.trace_out.as_deref(), Some("t.json"));
        // Analyze attributes a concrete run; the shape is required.
        assert!(Cli::parse(&argv("analyze")).unwrap_err().show_usage);
    }

    #[test]
    fn bench_command_parses_with_serve_defaults() {
        let cli = Cli::parse(&argv("bench --requests 120 --seed 7")).unwrap();
        assert_eq!(cli.command, Command::Bench);
        assert_eq!(cli.requests, 120);
        assert_eq!(cli.seed, 7);
        assert_eq!(cli.gpus, 2, "bench defaults to the two-rank system");
        assert!(
            cli.output.metrics_out.is_none(),
            "default path resolves later"
        );
    }

    #[test]
    fn help_requests_usage() {
        assert!(Cli::parse(&argv("--help")).unwrap_err().show_usage);
        assert!(Cli::parse(&[]).unwrap_err().show_usage);
    }
}
