//! Serve-run accounting: per-request dispositions, SLO statistics, and
//! the JSON report.
//!
//! Every request that enters the generator leaves exactly one
//! [`RequestRecord`] — completed (clean / recovered / degraded under
//! chaos) or shed at admission. The aggregate [`ServeReport`] carries
//! latency percentiles (via [`telemetry::metrics::percentiles`]),
//! goodput, shed rate, plan-cache counters, and signaling cost, and
//! serializes through the vendored `telemetry::json` module so `--seed`
//! determinism is checkable byte-for-byte on the JSON output.

use flashoverlap::ResilientOutcome;
use telemetry::attribution::{AttributionTotals, Category};
use telemetry::json::Value;
use telemetry::Percentiles;

use crate::cache::CacheStats;

/// How a request left the system.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Disposition {
    /// Completed with no recovery intervention.
    Clean,
    /// Completed after watchdog-driven recovery (bit-exact result).
    Recovered,
    /// Completed via the degraded non-overlap fallback.
    Degraded,
    /// Rejected at admission (queue full).
    Shed,
}

impl Disposition {
    /// Stable label used in JSON and summaries.
    pub fn label(&self) -> &'static str {
        match self {
            Disposition::Clean => "clean",
            Disposition::Recovered => "recovered",
            Disposition::Degraded => "degraded",
            Disposition::Shed => "shed",
        }
    }
}

impl From<&ResilientOutcome> for Disposition {
    /// How a batch's requests left the system, by its chain segment's
    /// outcome.
    fn from(outcome: &ResilientOutcome) -> Self {
        match outcome {
            ResilientOutcome::Clean => Disposition::Clean,
            ResilientOutcome::Recovered { .. } => Disposition::Recovered,
            ResilientOutcome::Degraded { .. } => Disposition::Degraded,
        }
    }
}

/// Final accounting for one request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RequestRecord {
    /// Request id (arrival order).
    pub id: u64,
    /// Model name.
    pub model: &'static str,
    /// Token count.
    pub tokens: u32,
    /// Arrival time.
    pub arrival_ns: u64,
    /// How the request left the system.
    pub disposition: Disposition,
    /// Batch that executed it (`None` when shed at admission; a request
    /// shed because its batch found no healthy replica keeps its batch
    /// id).
    pub batch: Option<u64>,
    /// Enqueue→complete latency (`None` when shed).
    pub latency_ns: Option<u64>,
    /// Arrival→batch-close wait — the batch-forming share of the
    /// latency (`None` when shed).
    pub form_wait_ns: Option<u64>,
    /// Batch-close→dispatch wait — time the closed batch sat queued
    /// behind the replica's earlier work (`None` when shed).
    pub queue_wait_ns: Option<u64>,
}

/// Accounting for one executed batch.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchRecord {
    /// Batch id (dispatch order).
    pub id: u64,
    /// Model the batch ran.
    pub model: &'static str,
    /// Member request count.
    pub requests: u64,
    /// Raw token total.
    pub tokens: u32,
    /// Padded `M` actually executed.
    pub padded_tokens: u32,
    /// Dispatch time.
    pub start_ns: u64,
    /// Executed operator latency. In a pipelined chain this is the
    /// batch's incremental completion delta, so per-replica sums stay
    /// additive even when batches overlap.
    pub exec_ns: u64,
    /// Whether the plan lookup hit the cache.
    pub cache_hit: bool,
    /// Resilient outcome label ("clean" outside chaos mode).
    pub outcome: &'static str,
    /// Replica that executed the batch.
    pub replica: usize,
    /// Node the executing replica lives on (0 on single-node
    /// deployments).
    pub node: usize,
    /// Inter-node migration charged before execution — non-zero only
    /// when the batch ran off its home node on a multi-node deployment.
    pub migration_ns: u64,
    /// Router decision label ("round-robin", "least-loaded",
    /// "affinity-hit", "affinity-new").
    pub routing: &'static str,
    /// Batches executed in the same chain as this one (1 = alone).
    pub chain_len: u64,
    /// When the batch closed and was routed.
    pub close_ns: u64,
    /// Close→dispatch wait behind the replica's earlier chains.
    pub queue_wait_ns: u64,
    /// Critical-path attribution of this batch's execution window,
    /// clipped from its chain's attribution; totals sum to `exec_ns`.
    pub attribution: Option<AttributionTotals>,
}

/// Per-replica accounting over a serve run. Sums across replicas equal
/// the run totals ([`ServeReport::check`] checks this invariant).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReplicaStats {
    /// Replica index.
    pub id: usize,
    /// Node the replica is placed on (replica id modulo the node
    /// count; 0 on single-node deployments).
    pub node: usize,
    /// Batches this replica executed.
    pub batches: u64,
    /// Requests completed on this replica.
    pub requests: u64,
    /// Unpadded tokens executed.
    pub tokens: u64,
    /// Virtual time the replica spent executing chains.
    pub busy_ns: u64,
    /// Chains dispatched (a chain is 1..=chain batches pipelined
    /// back-to-back through one simulation).
    pub chains: u64,
    /// `busy_ns` over the run makespan.
    pub utilization: f64,
    /// Whether the replica ended the run quarantined (a chaos chain
    /// came back degraded, or the serve loop blamed it for a stall);
    /// its queued batches were re-routed or shed.
    pub quarantined: bool,
    /// This replica's plan-cache counters.
    pub cache: CacheStats,
}

/// Per-node rollup of replica accounting on a multi-node deployment.
/// Each row sums the node's replicas; summing the rows reproduces the
/// run totals, so requests/tokens/busy time roll up node → replica →
/// total exactly ([`ServeReport::check`] checks this identity).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct NodeStats {
    /// Node index.
    pub node: usize,
    /// Replicas placed on the node.
    pub replicas: u64,
    /// Batches the node's replicas executed.
    pub batches: u64,
    /// Requests completed on the node.
    pub requests: u64,
    /// Unpadded tokens executed on the node.
    pub tokens: u64,
    /// Virtual time the node's replicas spent executing chains
    /// (including inter-node migration they absorbed).
    pub busy_ns: u64,
}

/// Measured-vs-predicted collective-completion drift for one
/// `(GEMM shape, wave group)` pair, aggregated over a serve run — the
/// signal an online autotuner needs to decide when a cached plan has
/// gone stale.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DriftRow {
    /// GEMM rows.
    pub m: u32,
    /// GEMM columns.
    pub n: u32,
    /// GEMM reduction depth.
    pub k: u32,
    /// Wave-group index within the plan.
    pub group: usize,
    /// Executions sampled (chain-leading and chaos batches, where the
    /// measured completion is not skewed by pipelining).
    pub samples: u64,
    /// Mean [`LatencyPredictor`](flashoverlap::LatencyPredictor)
    /// completion prediction.
    pub mean_predicted_ns: f64,
    /// Mean measured completion.
    pub mean_measured_ns: f64,
}

impl DriftRow {
    /// Relative drift: `(measured − predicted) / predicted` (zero when
    /// the prediction is zero). Positive means the fabric/occupancy ran
    /// slower than the model.
    pub fn drift(&self) -> f64 {
        if self.mean_predicted_ns > 0.0 {
            (self.mean_measured_ns - self.mean_predicted_ns) / self.mean_predicted_ns
        } else {
            0.0
        }
    }
}

/// Aggregate report of one serve run.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeReport {
    /// Seed the run was generated from.
    pub seed: u64,
    /// Arrival-process label.
    pub arrival: &'static str,
    /// Requests offered.
    pub offered: u64,
    /// GPUs in the serving group.
    pub gpus: usize,
    /// GPU platform name.
    pub platform: &'static str,
    /// Latency SLO.
    pub slo_ns: u64,
    /// Whether fault injection was armed.
    pub chaos: bool,
    /// Whether plans were tuned (false = non-overlap baseline arm).
    pub tuned: bool,
    /// Replica groups serving the traffic.
    pub replicas: usize,
    /// Nodes the replicas are placed across (1 = single-node).
    pub nodes: usize,
    /// Router policy label.
    pub router: &'static str,
    /// Whether chains executed with cross-batch pipelining (false =
    /// serial barrier between consecutive batches).
    pub pipelined: bool,
    /// Replica forced to wedge deterministically (`--wedge-replica`).
    pub wedge_replica: Option<usize>,
    /// Replicas quarantined during the run (wedged under chaos or
    /// blamed for a serve-loop stall).
    pub replicas_quarantined: u64,
    /// Batches re-routed off a quarantined replica's dispatch queue to
    /// a healthy one.
    pub batches_rerouted: u64,
    /// Requests shed because their batch had no healthy replica left
    /// (counted inside `shed` as well).
    pub quarantine_shed: u64,
    /// Batches executed off their home node (0 on single-node runs).
    pub cross_node_batches: u64,
    /// Total inter-node migration time charged to cross-node batches.
    pub migration_ns: u64,
    /// Inter-node bytes the hierarchical collective schedule moved for
    /// the run's tensor-parallel AllReduces (0 on single-node runs).
    pub inter_bytes_hierarchical: u64,
    /// Inter-node bytes the flat rank-order ring would have moved for
    /// the same AllReduces — the baseline hierarchical scheduling is
    /// measured against (0 on single-node runs).
    pub inter_bytes_flat: u64,
    /// Virtual time from first arrival epoch to last completion.
    pub makespan_ns: u64,
    /// Requests completed (any disposition but shed).
    pub completed: u64,
    /// Requests shed at admission.
    pub shed: u64,
    /// Completed cleanly.
    pub clean: u64,
    /// Completed after recovery.
    pub recovered: u64,
    /// Completed degraded.
    pub degraded: u64,
    /// Completed within the SLO, not degraded.
    pub slo_met: u64,
    /// Latency percentiles over completed requests.
    pub latency: Option<Percentiles>,
    /// Mean completed-request latency.
    pub mean_latency_ns: f64,
    /// Worst completed-request latency.
    pub max_latency_ns: u64,
    /// SLO-met requests per virtual second.
    pub goodput_rps: f64,
    /// Offered arrival rate over the trace span.
    pub offered_rps: f64,
    /// Shed fraction of offered requests.
    pub shed_rate: f64,
    /// Batches executed.
    pub batches: u64,
    /// Mean requests per batch.
    pub mean_batch_requests: f64,
    /// Mean (unpadded) tokens per batch.
    pub mean_batch_tokens: f64,
    /// Distinct GEMM shapes executed.
    pub distinct_shapes: u64,
    /// Plan-cache counters, summed over replicas.
    pub cache: CacheStats,
    /// Per-replica accounting, id order.
    pub replica_stats: Vec<ReplicaStats>,
    /// Per-node rollup of `replica_stats`, node order.
    pub node_stats: Vec<NodeStats>,
    /// Mean signal latency across batch executions (signaling cost of
    /// §4, aggregated over the run).
    pub mean_signal_ns: f64,
    /// Signal-latency samples behind the mean.
    pub signal_samples: u64,
    /// Batch-forming wait percentiles (arrival → batch close) over
    /// completed requests.
    pub form_wait: Option<Percentiles>,
    /// Dispatch-queue wait percentiles (batch close → execution start)
    /// over completed requests.
    pub queue_wait: Option<Percentiles>,
    /// Critical-path attribution of the bottleneck replica's timeline:
    /// per-category totals that sum exactly to `makespan_ns` (tuner
    /// time is zero by construction — plan search is analytic and costs
    /// no virtual time; `cache.tune_evaluated` counts the searches).
    pub attribution: AttributionTotals,
    /// Per-(shape, group) measured-vs-predicted drift rows, shape-major
    /// order.
    pub drift: Vec<DriftRow>,
    /// Per-request accounting, id order.
    pub records: Vec<RequestRecord>,
    /// Per-batch accounting, dispatch order.
    pub batch_records: Vec<BatchRecord>,
}

impl ServeReport {
    /// Checks the report's accounting identities — the one place they
    /// are stated:
    ///
    /// - every offered request is completed or shed, every completed one
    ///   is clean, recovered or degraded, and has a per-request row;
    /// - every executed batch took exactly one plan-cache lookup and has
    ///   a per-batch row;
    /// - the per-replica and per-node rows sum to the run totals
    ///   (quarantined replicas included), and every replica's
    ///   utilization lies in `[0, 1]`;
    /// - the attribution categories sum exactly to the makespan (so the
    ///   shares sum to 1);
    /// - every percentile triple is ordered `p50 <= p95 <= p99`.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated identity.
    pub fn check(&self) -> Result<(), String> {
        let equal = |what: &str, got: u64, want: u64| {
            if got == want {
                Ok(())
            } else {
                Err(format!("{what}: {got} != {want}"))
            }
        };
        equal(
            "completed + shed vs offered",
            self.completed + self.shed,
            self.offered,
        )?;
        equal(
            "clean + recovered + degraded vs completed",
            self.clean + self.recovered + self.degraded,
            self.completed,
        )?;
        equal(
            "per-request rows vs offered",
            self.records.len() as u64,
            self.offered,
        )?;
        equal(
            "cache hits + misses vs executed batches",
            self.cache.hits + self.cache.misses,
            self.batches,
        )?;
        equal(
            "per-batch rows vs executed batches",
            self.batch_records.len() as u64,
            self.batches,
        )?;

        let replicas = &self.replica_stats;
        let replica_sum = |f: fn(&ReplicaStats) -> u64| replicas.iter().map(f).sum::<u64>();
        equal(
            "replica rows vs replicas",
            replicas.len() as u64,
            self.replicas as u64,
        )?;
        equal(
            "per-replica batches",
            replica_sum(|r| r.batches),
            self.batches,
        )?;
        equal(
            "per-replica requests",
            replica_sum(|r| r.requests),
            self.completed,
        )?;
        equal(
            "per-replica cache hits",
            replica_sum(|r| r.cache.hits),
            self.cache.hits,
        )?;
        equal(
            "per-replica cache misses",
            replica_sum(|r| r.cache.misses),
            self.cache.misses,
        )?;
        equal(
            "quarantined replica rows",
            replica_sum(|r| u64::from(r.quarantined)),
            self.replicas_quarantined,
        )?;
        if let Some(r) = replicas
            .iter()
            .find(|r| !(0.0..=1.0).contains(&r.utilization))
        {
            return Err(format!(
                "replica {} utilization {} outside [0, 1]",
                r.id, r.utilization
            ));
        }
        let node_sum = |f: fn(&NodeStats) -> u64| self.node_stats.iter().map(f).sum::<u64>();
        equal(
            "per-node replicas",
            node_sum(|n| n.replicas),
            self.replicas as u64,
        )?;
        equal("per-node batches", node_sum(|n| n.batches), self.batches)?;
        equal(
            "per-node requests",
            node_sum(|n| n.requests),
            self.completed,
        )?;
        equal(
            "per-node tokens",
            node_sum(|n| n.tokens),
            replica_sum(|r| r.tokens),
        )?;
        equal(
            "per-node busy time",
            node_sum(|n| n.busy_ns),
            replica_sum(|r| r.busy_ns),
        )?;

        equal(
            "attribution categories vs makespan",
            self.attribution.sum(),
            self.makespan_ns,
        )?;
        for (what, p) in [
            ("latency", &self.latency),
            ("form wait", &self.form_wait),
            ("queue wait", &self.queue_wait),
        ] {
            if let Some(p) = p {
                if !(p.p50 <= p.p95 && p.p95 <= p.p99) {
                    return Err(format!(
                        "{what} percentiles out of order: p50 {} p95 {} p99 {}",
                        p.p50, p.p95, p.p99
                    ));
                }
            }
        }
        Ok(())
    }

    /// Serializes to the vendored JSON model. Deterministic: field
    /// order is fixed and no map iteration is involved.
    pub fn to_json(&self) -> Value {
        let latency = match &self.latency {
            Some(p) => Value::obj(vec![
                ("p50_ns", Value::num(p.p50 as f64)),
                ("p95_ns", Value::num(p.p95 as f64)),
                ("p99_ns", Value::num(p.p99 as f64)),
                ("mean_ns", Value::num(self.mean_latency_ns)),
                ("max_ns", Value::num(self.max_latency_ns as f64)),
            ]),
            None => Value::Null,
        };
        Value::obj(vec![
            ("kind", Value::str("flashoverlap-serve")),
            ("seed", Value::num(self.seed as f64)),
            ("arrival", Value::str(self.arrival)),
            ("offered", Value::num(self.offered as f64)),
            ("gpus", Value::num(self.gpus as f64)),
            ("platform", Value::str(self.platform)),
            ("slo_ms", Value::num(self.slo_ns as f64 / 1e6)),
            ("chaos", Value::Bool(self.chaos)),
            ("tuned", Value::Bool(self.tuned)),
            ("replicas", Value::num(self.replicas as f64)),
            ("nodes", Value::num(self.nodes as f64)),
            ("router", Value::str(self.router)),
            ("pipelined", Value::Bool(self.pipelined)),
            (
                "wedge_replica",
                self.wedge_replica
                    .map_or(Value::Null, |r| Value::num(r as f64)),
            ),
            ("makespan_ns", Value::num(self.makespan_ns as f64)),
            (
                "requests",
                Value::obj(vec![
                    ("completed", Value::num(self.completed as f64)),
                    ("shed", Value::num(self.shed as f64)),
                    ("clean", Value::num(self.clean as f64)),
                    ("recovered", Value::num(self.recovered as f64)),
                    ("degraded", Value::num(self.degraded as f64)),
                    ("slo_met", Value::num(self.slo_met as f64)),
                ]),
            ),
            ("latency", latency),
            (
                "throughput",
                Value::obj(vec![
                    ("goodput_rps", Value::num(self.goodput_rps)),
                    ("offered_rps", Value::num(self.offered_rps)),
                    ("shed_rate", Value::num(self.shed_rate)),
                ]),
            ),
            (
                "batches",
                Value::obj(vec![
                    ("executed", Value::num(self.batches as f64)),
                    ("mean_requests", Value::num(self.mean_batch_requests)),
                    ("mean_tokens", Value::num(self.mean_batch_tokens)),
                    ("distinct_shapes", Value::num(self.distinct_shapes as f64)),
                ]),
            ),
            (
                "plan_cache",
                Value::obj(vec![
                    ("hits", Value::num(self.cache.hits as f64)),
                    ("misses", Value::num(self.cache.misses as f64)),
                    ("evictions", Value::num(self.cache.evictions as f64)),
                    ("hit_rate", Value::num(self.cache.hit_rate())),
                    (
                        "tune_evaluated",
                        Value::num(self.cache.tune_evaluated as f64),
                    ),
                    ("preloaded", Value::num(self.cache.preloaded as f64)),
                ]),
            ),
            (
                "resilience",
                Value::obj(vec![
                    (
                        "replicas_quarantined",
                        Value::num(self.replicas_quarantined as f64),
                    ),
                    ("batches_rerouted", Value::num(self.batches_rerouted as f64)),
                    ("quarantine_shed", Value::num(self.quarantine_shed as f64)),
                    ("recovered", Value::num(self.recovered as f64)),
                    ("degraded", Value::num(self.degraded as f64)),
                ]),
            ),
            (
                "cross_node",
                Value::obj(vec![
                    ("batches", Value::num(self.cross_node_batches as f64)),
                    ("migration_ns", Value::num(self.migration_ns as f64)),
                    (
                        "inter_bytes",
                        Value::obj(vec![
                            (
                                "hierarchical",
                                Value::num(self.inter_bytes_hierarchical as f64),
                            ),
                            ("flat_baseline", Value::num(self.inter_bytes_flat as f64)),
                        ]),
                    ),
                ]),
            ),
            (
                "per_replica",
                Value::Arr(self.replica_stats.iter().map(replica_json).collect()),
            ),
            (
                "per_node",
                Value::Arr(self.node_stats.iter().map(node_json).collect()),
            ),
            (
                "signaling",
                Value::obj(vec![
                    ("mean_signal_ns", Value::num(self.mean_signal_ns)),
                    ("samples", Value::num(self.signal_samples as f64)),
                ]),
            ),
            (
                "scheduling",
                Value::obj(vec![
                    ("form_wait", wait_json(&self.form_wait)),
                    ("queue_wait", wait_json(&self.queue_wait)),
                ]),
            ),
            (
                "attribution",
                Value::obj(vec![
                    ("makespan_ns", Value::num(self.makespan_ns as f64)),
                    (
                        "identity_holds",
                        Value::Bool(self.attribution.sum() == self.makespan_ns),
                    ),
                    ("categories", self.attribution.to_json()),
                    ("shares", self.attribution.shares_json(self.makespan_ns)),
                ]),
            ),
            (
                "predictor_drift",
                Value::Arr(self.drift.iter().map(drift_json).collect()),
            ),
            (
                "per_request",
                Value::Arr(self.records.iter().map(request_json).collect()),
            ),
            (
                "per_batch",
                Value::Arr(self.batch_records.iter().map(batch_json).collect()),
            ),
        ])
    }

    /// Short human-readable summary.
    pub fn summary(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "serve: {} offered over {:.2} ms virtual ({} {}, seed {})\n",
            self.offered,
            self.makespan_ns as f64 / 1e6,
            self.arrival,
            if self.chaos {
                "with chaos"
            } else {
                "fault-free"
            },
            self.seed,
        ));
        out.push_str(&format!(
            "  {} replica(s), {} router, {}\n",
            self.replicas,
            self.router,
            if self.pipelined {
                "cross-batch pipelining"
            } else {
                "serial chains"
            },
        ));
        if self.nodes > 1 {
            out.push_str(&format!(
                "  {} nodes: {} cross-node batch(es), {:.1} us total inter-node migration\n",
                self.nodes,
                self.cross_node_batches,
                self.migration_ns as f64 / 1e3,
            ));
            out.push_str(&format!(
                "  collectives: {:.1} MB inter-node (hierarchical) vs {:.1} MB flat ring\n",
                self.inter_bytes_hierarchical as f64 / 1e6,
                self.inter_bytes_flat as f64 / 1e6,
            ));
            for n in &self.node_stats {
                out.push_str(&format!(
                    "  node {}: {} replica(s), {} batches, {} requests, busy {:.2} ms\n",
                    n.node,
                    n.replicas,
                    n.batches,
                    n.requests,
                    n.busy_ns as f64 / 1e6,
                ));
            }
        }
        out.push_str(&format!(
            "  completed {} (clean {}, recovered {}, degraded {}), shed {} ({:.1}%)\n",
            self.completed,
            self.clean,
            self.recovered,
            self.degraded,
            self.shed,
            self.shed_rate * 100.0,
        ));
        if let Some(p) = &self.latency {
            out.push_str(&format!(
                "  latency p50/p95/p99: {:.1}/{:.1}/{:.1} us (slo {:.1} ms met by {})\n",
                p.p50 as f64 / 1e3,
                p.p95 as f64 / 1e3,
                p.p99 as f64 / 1e3,
                self.slo_ns as f64 / 1e6,
                self.slo_met,
            ));
        }
        out.push_str(&format!(
            "  goodput {:.0} rps of {:.0} rps offered\n",
            self.goodput_rps, self.offered_rps,
        ));
        out.push_str(&format!(
            "  {} batches, {} shapes, plan cache hit rate {:.1}% ({} hits / {} misses, {} evictions)\n",
            self.batches,
            self.distinct_shapes,
            self.cache.hit_rate() * 100.0,
            self.cache.hits,
            self.cache.misses,
            self.cache.evictions,
        ));
        if self.replicas_quarantined > 0 || self.batches_rerouted > 0 {
            out.push_str(&format!(
                "  quarantine: {} replica(s) quarantined, {} batch(es) re-routed, {} request(s) shed with no healthy replica\n",
                self.replicas_quarantined, self.batches_rerouted, self.quarantine_shed,
            ));
        }
        for r in &self.replica_stats {
            out.push_str(&format!(
                "  replica {}: {} batches in {} chains, {} requests, {:.1}% utilized, cache hit rate {:.1}%{}\n",
                r.id,
                r.batches,
                r.chains,
                r.requests,
                r.utilization * 100.0,
                r.cache.hit_rate() * 100.0,
                if r.quarantined { " [quarantined]" } else { "" },
            ));
        }
        if let (Some(f), Some(q)) = (&self.form_wait, &self.queue_wait) {
            out.push_str(&format!(
                "  batch-form wait p50/p95/p99: {:.1}/{:.1}/{:.1} us; queue wait p50/p95/p99: {:.1}/{:.1}/{:.1} us\n",
                f.p50 as f64 / 1e3,
                f.p95 as f64 / 1e3,
                f.p99 as f64 / 1e3,
                q.p50 as f64 / 1e3,
                q.p95 as f64 / 1e3,
                q.p99 as f64 / 1e3,
            ));
        }
        if self.makespan_ns > 0 {
            out.push_str("  critical path:");
            for category in Category::ALL {
                let ns = self.attribution.get(category);
                if ns > 0 {
                    out.push_str(&format!(
                        " {} {:.1}%",
                        category.label(),
                        ns as f64 / self.makespan_ns as f64 * 100.0,
                    ));
                }
            }
            out.push('\n');
        }
        let worst = self.drift.iter().max_by(|a, b| {
            a.drift()
                .abs()
                .partial_cmp(&b.drift().abs())
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        if let Some(worst) = worst {
            out.push_str(&format!(
                "  predictor drift: {} rows, worst {:+.1}% at {}x{}x{} group {}\n",
                self.drift.len(),
                worst.drift() * 100.0,
                worst.m,
                worst.n,
                worst.k,
                worst.group,
            ));
        }
        out
    }
}

/// A wait distribution as `{"p50_ns", "p95_ns", "p99_ns"}`, or `null`
/// when nothing waited.
pub fn wait_json(p: &Option<Percentiles>) -> Value {
    match p {
        Some(p) => Value::obj(vec![
            ("p50_ns", Value::num(p.p50 as f64)),
            ("p95_ns", Value::num(p.p95 as f64)),
            ("p99_ns", Value::num(p.p99 as f64)),
        ]),
        None => Value::Null,
    }
}

fn drift_json(d: &DriftRow) -> Value {
    Value::obj(vec![
        ("m", Value::num(f64::from(d.m))),
        ("n", Value::num(f64::from(d.n))),
        ("k", Value::num(f64::from(d.k))),
        ("group", Value::num(d.group as f64)),
        ("samples", Value::num(d.samples as f64)),
        ("mean_predicted_ns", Value::num(d.mean_predicted_ns)),
        ("mean_measured_ns", Value::num(d.mean_measured_ns)),
        ("drift", Value::num(d.drift())),
    ])
}

fn request_json(r: &RequestRecord) -> Value {
    Value::obj(vec![
        ("id", Value::num(r.id as f64)),
        ("model", Value::str(r.model)),
        ("tokens", Value::num(f64::from(r.tokens))),
        ("arrival_ns", Value::num(r.arrival_ns as f64)),
        ("disposition", Value::str(r.disposition.label())),
        (
            "batch",
            r.batch.map_or(Value::Null, |b| Value::num(b as f64)),
        ),
        (
            "latency_ns",
            r.latency_ns.map_or(Value::Null, |l| Value::num(l as f64)),
        ),
        (
            "form_wait_ns",
            r.form_wait_ns.map_or(Value::Null, |w| Value::num(w as f64)),
        ),
        (
            "queue_wait_ns",
            r.queue_wait_ns
                .map_or(Value::Null, |w| Value::num(w as f64)),
        ),
    ])
}

fn batch_json(b: &BatchRecord) -> Value {
    Value::obj(vec![
        ("id", Value::num(b.id as f64)),
        ("model", Value::str(b.model)),
        ("requests", Value::num(b.requests as f64)),
        ("tokens", Value::num(f64::from(b.tokens))),
        ("padded_tokens", Value::num(f64::from(b.padded_tokens))),
        ("start_ns", Value::num(b.start_ns as f64)),
        ("exec_ns", Value::num(b.exec_ns as f64)),
        ("cache_hit", Value::Bool(b.cache_hit)),
        ("outcome", Value::str(b.outcome)),
        ("replica", Value::num(b.replica as f64)),
        ("node", Value::num(b.node as f64)),
        ("migration_ns", Value::num(b.migration_ns as f64)),
        ("routing", Value::str(b.routing)),
        ("chain_len", Value::num(b.chain_len as f64)),
        ("close_ns", Value::num(b.close_ns as f64)),
        ("queue_wait_ns", Value::num(b.queue_wait_ns as f64)),
        (
            "attribution",
            b.attribution
                .as_ref()
                .map_or(Value::Null, AttributionTotals::to_json),
        ),
    ])
}

fn node_json(n: &NodeStats) -> Value {
    Value::obj(vec![
        ("node", Value::num(n.node as f64)),
        ("replicas", Value::num(n.replicas as f64)),
        ("batches", Value::num(n.batches as f64)),
        ("requests", Value::num(n.requests as f64)),
        ("tokens", Value::num(n.tokens as f64)),
        ("busy_ns", Value::num(n.busy_ns as f64)),
    ])
}

fn replica_json(r: &ReplicaStats) -> Value {
    Value::obj(vec![
        ("id", Value::num(r.id as f64)),
        ("node", Value::num(r.node as f64)),
        ("batches", Value::num(r.batches as f64)),
        ("requests", Value::num(r.requests as f64)),
        ("tokens", Value::num(r.tokens as f64)),
        ("busy_ns", Value::num(r.busy_ns as f64)),
        ("chains", Value::num(r.chains as f64)),
        ("utilization", Value::num(r.utilization)),
        ("quarantined", Value::Bool(r.quarantined)),
        (
            "cache",
            Value::obj(vec![
                ("hits", Value::num(r.cache.hits as f64)),
                ("misses", Value::num(r.cache.misses as f64)),
                ("evictions", Value::num(r.cache.evictions as f64)),
                ("hit_rate", Value::num(r.cache.hit_rate())),
                ("preloaded", Value::num(r.cache.preloaded as f64)),
            ]),
        ),
    ])
}

/// Tuned-vs-baseline comparison: the same seeded traffic served twice,
/// once with predictive-search plans and once with single-group
/// non-overlap plans.
#[derive(Debug, Clone, PartialEq)]
pub struct ComparisonReport {
    /// The tuned arm.
    pub tuned: ServeReport,
    /// The non-overlap baseline arm.
    pub baseline: ServeReport,
}

impl ComparisonReport {
    /// Speedup of tuned over baseline at p50 / p95 / mean latency
    /// (`None` when either arm completed nothing).
    pub fn speedups(&self) -> Option<(f64, f64, f64)> {
        let t = self.tuned.latency.as_ref()?;
        let b = self.baseline.latency.as_ref()?;
        if t.p50 == 0 || t.p95 == 0 || self.tuned.mean_latency_ns == 0.0 {
            return None;
        }
        Some((
            b.p50 as f64 / t.p50 as f64,
            b.p95 as f64 / t.p95 as f64,
            self.baseline.mean_latency_ns / self.tuned.mean_latency_ns,
        ))
    }

    /// Serializes both arms plus the speedup summary.
    pub fn to_json(&self) -> Value {
        let speedup = match self.speedups() {
            Some((p50, p95, mean)) => Value::obj(vec![
                ("p50", Value::num(p50)),
                ("p95", Value::num(p95)),
                ("mean", Value::num(mean)),
            ]),
            None => Value::Null,
        };
        Value::obj(vec![
            ("kind", Value::str("flashoverlap-serve-comparison")),
            ("speedup", speedup),
            ("tuned", self.tuned.to_json()),
            ("baseline", self.baseline.to_json()),
        ])
    }

    /// Human-readable summary of both arms.
    pub fn summary(&self) -> String {
        let mut out = String::from("tuned arm:\n");
        out.push_str(&self.tuned.summary());
        out.push_str("baseline (non-overlap) arm:\n");
        out.push_str(&self.baseline.summary());
        if let Some((p50, p95, mean)) = self.speedups() {
            out.push_str(&format!(
                "speedup tuned vs baseline: p50 {p50:.3}x, p95 {p95:.3}x, mean {mean:.3}x\n"
            ));
        }
        out
    }
}

/// Replica-scaling comparison: the same seeded traffic served through
/// the multi-replica configuration, a single replica, and the
/// multi-replica configuration with cross-batch pipelining disabled.
#[derive(Debug, Clone, PartialEq)]
pub struct ScalingReport {
    /// The configured multi-replica, pipelined arm.
    pub multi: ServeReport,
    /// One replica, same everything else.
    pub single: ServeReport,
    /// Multi-replica with serial (barriered) chains.
    pub unpipelined: ServeReport,
}

impl ScalingReport {
    /// Goodput of the multi-replica arm over the single-replica arm
    /// (`None` when the single arm's goodput is zero).
    pub fn goodput_scaling(&self) -> Option<f64> {
        if self.single.goodput_rps > 0.0 {
            Some(self.multi.goodput_rps / self.single.goodput_rps)
        } else {
            None
        }
    }

    /// p95 of the pipelined vs. the serial multi-replica arm (`None`
    /// when either arm completed nothing).
    pub fn pipelining_p95(&self) -> Option<(u64, u64)> {
        Some((
            self.multi.latency.as_ref()?.p95,
            self.unpipelined.latency.as_ref()?.p95,
        ))
    }

    /// Serializes all three arms plus the scaling summary.
    pub fn to_json(&self) -> Value {
        let pipelining = match self.pipelining_p95() {
            Some((pipelined, serial)) => Value::obj(vec![
                ("pipelined_p95_ns", Value::num(pipelined as f64)),
                ("serial_p95_ns", Value::num(serial as f64)),
                (
                    "p95_speedup",
                    if pipelined > 0 {
                        Value::num(serial as f64 / pipelined as f64)
                    } else {
                        Value::Null
                    },
                ),
            ]),
            None => Value::Null,
        };
        Value::obj(vec![
            ("kind", Value::str("flashoverlap-serve-scaling")),
            (
                "goodput_scaling",
                self.goodput_scaling().map_or(Value::Null, Value::num),
            ),
            ("pipelining", pipelining),
            ("multi", self.multi.to_json()),
            ("single", self.single.to_json()),
            ("unpipelined", self.unpipelined.to_json()),
        ])
    }

    /// Human-readable summary of all three arms.
    pub fn summary(&self) -> String {
        let mut out = format!("multi-replica arm ({} replicas):\n", self.multi.replicas);
        out.push_str(&self.multi.summary());
        out.push_str("single-replica arm:\n");
        out.push_str(&self.single.summary());
        out.push_str("serial-chain arm:\n");
        out.push_str(&self.unpipelined.summary());
        if let Some(scaling) = self.goodput_scaling() {
            out.push_str(&format!(
                "goodput scaling {} -> {} replicas: {scaling:.2}x\n",
                self.single.replicas, self.multi.replicas
            ));
        }
        if let Some((pipelined, serial)) = self.pipelining_p95() {
            out.push_str(&format!(
                "p95 pipelined {:.1} us vs serial chains {:.1} us\n",
                pipelined as f64 / 1e3,
                serial as f64 / 1e3,
            ));
        }
        out
    }
}
