//! Serve-run accounting: per-request dispositions, SLO statistics, and
//! the JSON report.
//!
//! Every request that enters the generator leaves exactly one
//! [`RequestRecord`] — completed (clean / recovered / degraded under
//! chaos) or shed at admission. The aggregate [`ServeReport`] carries
//! latency percentiles (via [`telemetry::metrics::percentiles`]),
//! goodput, shed rate, plan-cache counters, and signaling cost, and
//! writes itself straight into the vendored `telemetry::json` writer so
//! `--seed` determinism is checkable byte-for-byte on the JSON output.

use flashoverlap::ResilientOutcome;
use telemetry::attribution::{AttributionTotals, Category};

use telemetry::json::{Document, JsonWriter, Sink, WriteJson};
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

    /// The JSON report, ready to render or stream. Deterministic:
    /// field order is fixed and no map iteration is involved.
    pub fn to_json(&self) -> Document<&Self> {
        Document(self)
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

impl WriteJson for ServeReport {
    fn write_json<W: Sink>(&self, w: &mut JsonWriter<W>) {
        w.obj(|w| {
            w.key("kind").str("flashoverlap-serve");
            w.key("seed").num(self.seed as f64);
            w.key("arrival").str(self.arrival);
            w.key("offered").num(self.offered as f64);
            w.key("gpus").num(self.gpus as f64);
            w.key("platform").str(self.platform);
            w.key("slo_ms").num(self.slo_ns as f64 / 1e6);
            w.key("chaos").bool(self.chaos);
            w.key("tuned").bool(self.tuned);
            w.key("replicas").num(self.replicas as f64);
            w.key("nodes").num(self.nodes as f64);
            w.key("router").str(self.router);
            w.key("pipelined").bool(self.pipelined);
            w.key("wedge_replica")
                .opt_num(self.wedge_replica.map(|r| r as f64));
            w.key("makespan_ns").num(self.makespan_ns as f64);
            w.key("requests").obj(|w| {
                w.key("completed").num(self.completed as f64);
                w.key("shed").num(self.shed as f64);
                w.key("clean").num(self.clean as f64);
                w.key("recovered").num(self.recovered as f64);
                w.key("degraded").num(self.degraded as f64);
                w.key("slo_met").num(self.slo_met as f64);
            });
            w.key("latency");
            match &self.latency {
                Some(p) => w.obj(|w| {
                    w.key("p50_ns").num(p.p50 as f64);
                    w.key("p95_ns").num(p.p95 as f64);
                    w.key("p99_ns").num(p.p99 as f64);
                    w.key("mean_ns").num(self.mean_latency_ns);
                    w.key("max_ns").num(self.max_latency_ns as f64);
                }),
                None => w.null(),
            };
            w.key("throughput").obj(|w| {
                w.key("goodput_rps").num(self.goodput_rps);
                w.key("offered_rps").num(self.offered_rps);
                w.key("shed_rate").num(self.shed_rate);
            });
            w.key("batches").obj(|w| {
                w.key("executed").num(self.batches as f64);
                w.key("mean_requests").num(self.mean_batch_requests);
                w.key("mean_tokens").num(self.mean_batch_tokens);
                w.key("distinct_shapes").num(self.distinct_shapes as f64);
            });
            w.key("plan_cache").obj(|w| {
                w.key("hits").num(self.cache.hits as f64);
                w.key("misses").num(self.cache.misses as f64);
                w.key("evictions").num(self.cache.evictions as f64);
                w.key("hit_rate").num(self.cache.hit_rate());
                w.key("tune_evaluated")
                    .num(self.cache.tune_evaluated as f64);
                w.key("preloaded").num(self.cache.preloaded as f64);
            });
            w.key("resilience").obj(|w| {
                w.key("replicas_quarantined")
                    .num(self.replicas_quarantined as f64);
                w.key("batches_rerouted").num(self.batches_rerouted as f64);
                w.key("quarantine_shed").num(self.quarantine_shed as f64);
                w.key("recovered").num(self.recovered as f64);
                w.key("degraded").num(self.degraded as f64);
            });
            w.key("cross_node").obj(|w| {
                w.key("batches").num(self.cross_node_batches as f64);
                w.key("migration_ns").num(self.migration_ns as f64);
                w.key("inter_bytes").obj(|w| {
                    w.key("hierarchical")
                        .num(self.inter_bytes_hierarchical as f64);
                    w.key("flat_baseline").num(self.inter_bytes_flat as f64);
                });
            });
            w.key("per_replica").arr(|w| {
                for r in &self.replica_stats {
                    write_replica(w, r);
                }
            });
            w.key("per_node").arr(|w| {
                for n in &self.node_stats {
                    write_node(w, n);
                }
            });
            w.key("signaling").obj(|w| {
                w.key("mean_signal_ns").num(self.mean_signal_ns);
                w.key("samples").num(self.signal_samples as f64);
            });
            write_scheduling(w, &self.form_wait, &self.queue_wait);
            w.key("attribution")
                .obj(|w| self.attribution.write_breakdown(w, self.makespan_ns));
            w.key("predictor_drift").arr(|w| {
                for d in &self.drift {
                    write_drift(w, d);
                }
            });
            w.key("per_request").arr(|w| {
                for r in &self.records {
                    write_request(w, r);
                }
            });
            w.key("per_batch").arr(|w| {
                for b in &self.batch_records {
                    write_batch(w, b);
                }
            });
        });
    }
}

/// Writes the `scheduling` member: the batch-forming and dispatch-queue
/// wait distributions, each `{"p50_ns", "p95_ns", "p99_ns"}` or `null`
/// when nothing waited.
pub fn write_scheduling<W: Sink>(
    w: &mut JsonWriter<W>,
    form_wait: &Option<Percentiles>,
    queue_wait: &Option<Percentiles>,
) {
    w.key("scheduling").obj(|w| {
        for (key, p) in [("form_wait", form_wait), ("queue_wait", queue_wait)] {
            w.key(key);
            match p {
                Some(p) => w.obj(|w| {
                    w.key("p50_ns").num(p.p50 as f64);
                    w.key("p95_ns").num(p.p95 as f64);
                    w.key("p99_ns").num(p.p99 as f64);
                }),
                None => w.null(),
            };
        }
    });
}

fn write_drift<W: Sink>(w: &mut JsonWriter<W>, d: &DriftRow) {
    w.obj(|w| {
        w.key("m").num(f64::from(d.m));
        w.key("n").num(f64::from(d.n));
        w.key("k").num(f64::from(d.k));
        w.key("group").num(d.group as f64);
        w.key("samples").num(d.samples as f64);
        w.key("mean_predicted_ns").num(d.mean_predicted_ns);
        w.key("mean_measured_ns").num(d.mean_measured_ns);
        w.key("drift").num(d.drift());
    });
}

fn write_request<W: Sink>(w: &mut JsonWriter<W>, r: &RequestRecord) {
    w.obj(|w| {
        w.key("id").num(r.id as f64);
        w.key("model").str(r.model);
        w.key("tokens").num(f64::from(r.tokens));
        w.key("arrival_ns").num(r.arrival_ns as f64);
        w.key("disposition").str(r.disposition.label());
        w.key("batch").opt_num(r.batch.map(|b| b as f64));
        w.key("latency_ns").opt_num(r.latency_ns.map(|l| l as f64));
        w.key("form_wait_ns")
            .opt_num(r.form_wait_ns.map(|x| x as f64));
        w.key("queue_wait_ns")
            .opt_num(r.queue_wait_ns.map(|x| x as f64));
    });
}

fn write_batch<W: Sink>(w: &mut JsonWriter<W>, b: &BatchRecord) {
    w.obj(|w| {
        w.key("id").num(b.id as f64);
        w.key("model").str(b.model);
        w.key("requests").num(b.requests as f64);
        w.key("tokens").num(f64::from(b.tokens));
        w.key("padded_tokens").num(f64::from(b.padded_tokens));
        w.key("start_ns").num(b.start_ns as f64);
        w.key("exec_ns").num(b.exec_ns as f64);
        w.key("cache_hit").bool(b.cache_hit);
        w.key("outcome").str(b.outcome);
        w.key("replica").num(b.replica as f64);
        w.key("node").num(b.node as f64);
        w.key("migration_ns").num(b.migration_ns as f64);
        w.key("routing").str(b.routing);
        w.key("chain_len").num(b.chain_len as f64);
        w.key("close_ns").num(b.close_ns as f64);
        w.key("queue_wait_ns").num(b.queue_wait_ns as f64);
        w.key("attribution");
        match &b.attribution {
            Some(a) => w.json(a),
            None => w.null(),
        };
    });
}

fn write_node<W: Sink>(w: &mut JsonWriter<W>, n: &NodeStats) {
    w.obj(|w| {
        w.key("node").num(n.node as f64);
        w.key("replicas").num(n.replicas as f64);
        w.key("batches").num(n.batches as f64);
        w.key("requests").num(n.requests as f64);
        w.key("tokens").num(n.tokens as f64);
        w.key("busy_ns").num(n.busy_ns as f64);
    });
}

fn write_replica<W: Sink>(w: &mut JsonWriter<W>, r: &ReplicaStats) {
    w.obj(|w| {
        w.key("id").num(r.id as f64);
        w.key("node").num(r.node as f64);
        w.key("batches").num(r.batches as f64);
        w.key("requests").num(r.requests as f64);
        w.key("tokens").num(r.tokens as f64);
        w.key("busy_ns").num(r.busy_ns as f64);
        w.key("chains").num(r.chains as f64);
        w.key("utilization").num(r.utilization);
        w.key("quarantined").bool(r.quarantined);
        w.key("cache").obj(|w| {
            w.key("hits").num(r.cache.hits as f64);
            w.key("misses").num(r.cache.misses as f64);
            w.key("evictions").num(r.cache.evictions as f64);
            w.key("hit_rate").num(r.cache.hit_rate());
            w.key("preloaded").num(r.cache.preloaded as f64);
        });
    });
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

    /// The JSON document of both arms plus the speedup summary.
    pub fn to_json(&self) -> Document<&Self> {
        Document(self)
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

    /// The JSON document of all three arms plus the scaling summary.
    pub fn to_json(&self) -> Document<&Self> {
        Document(self)
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

impl WriteJson for ComparisonReport {
    fn write_json<W: Sink>(&self, w: &mut JsonWriter<W>) {
        w.obj(|w| {
            w.key("kind").str("flashoverlap-serve-comparison");
            w.key("speedup");
            match self.speedups() {
                Some((p50, p95, mean)) => w.obj(|w| {
                    w.key("p50").num(p50);
                    w.key("p95").num(p95);
                    w.key("mean").num(mean);
                }),
                None => w.null(),
            };
            w.key("tuned").json(&self.tuned);
            w.key("baseline").json(&self.baseline);
        });
    }
}

impl WriteJson for ScalingReport {
    fn write_json<W: Sink>(&self, w: &mut JsonWriter<W>) {
        w.obj(|w| {
            w.key("kind").str("flashoverlap-serve-scaling");
            w.key("goodput_scaling").opt_num(self.goodput_scaling());
            w.key("pipelining");
            match self.pipelining_p95() {
                Some((pipelined, serial)) => w.obj(|w| {
                    w.key("pipelined_p95_ns").num(pipelined as f64);
                    w.key("serial_p95_ns").num(serial as f64);
                    w.key("p95_speedup")
                        .opt_num((pipelined > 0).then(|| serial as f64 / pipelined as f64));
                }),
                None => w.null(),
            };
            w.key("multi").json(&self.multi);
            w.key("single").json(&self.single);
            w.key("unpipelined").json(&self.unpipelined);
        });
    }
}
