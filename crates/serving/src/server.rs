//! The serving loop: admission control, continuous batching, replica
//! routing, and pipelined plan-cache execution over virtual time.
//!
//! The loop is a discrete-event scheduler one level above the cluster
//! simulator: requests arrive on a seeded trace ([`crate::traffic`]),
//! wait in a bounded FIFO (overflow is shed — classic admission
//! control), close into batches under a token-budget/max-wait policy
//! ([`crate::batch`]), and are routed ([`crate::router`]) to one of
//! [`ServeConfig::replicas`] independent tensor-parallel groups, each
//! run by an engine that owns the replica's
//! [`PlanCache`](crate::cache::PlanCache), telemetry wiring, and chain
//! executor. An idle replica drains its dispatch queue in
//! *chains* of up to [`ServeConfig::chain`] batches executed through
//! one simulation ([`flashoverlap::execute_sequence`]): with
//! [`ServeConfig::pipelined`] set, batch *k+1*'s GEMM waves run while
//! batch *k*'s tail collectives drain, double-buffered counting tables
//! carrying the cross-batch happens-before edges. Executed chain
//! latency advances the replica's virtual timeline, so queueing delay
//! emerges from the interaction of the arrival rate and the simulated
//! operator throughput — backpressure is real, not modelled. The loop
//! runs each chain, on the calling thread, when it dispatches it, so
//! every scheduling decision reads exact replica state.
//!
//! With [`ServeConfig::chaos`] set, chains still form and still
//! pipeline: each batch carries its own deterministic per-batch
//! [`FaultPlan`](flashoverlap::FaultPlan) into a resilient
//! [`flashoverlap::execute_sequence`] (the chain watchdog recovers
//! wedged segments without poisoning the counting tables downstream
//! batches inherit), and the batch's resilient outcome (clean /
//! recovered / degraded) is stamped onto its member requests — chaos
//! under load, with every request accounted for. A chain that comes
//! back degraded marks its replica *wedged*: the replica is
//! quarantined, its queued batches are deterministically re-routed to
//! healthy replicas (or shed, with full accounting, when none remain),
//! and the run completes instead of aborting.

use std::collections::VecDeque;

use flashoverlap::{FlashOverlapError, SystemSpec};
use telemetry::attribution::{AttributionTotals, Category};
use telemetry::percentiles;
use workloads::ServeMix;

use crate::batch::{form_batch, BatchConfig};
use crate::cache::{primitive_label, system_fingerprint, CacheSnapshot, CacheStats, PlanEntry};
use crate::engine::{build_engines, run_chain, EngineFinal, PendingBatch};
use crate::report::{
    BatchRecord, ComparisonReport, Disposition, DriftRow, NodeStats, ReplicaStats, RequestRecord,
    ScalingReport, ServeReport,
};
use crate::router::{home_node, ReplicaLoad, Router, RouterPolicy};
use crate::traffic::{generate, ArrivalProcess, Request};

/// How the serve loop runs its replica engines. Both variants run every
/// engine on the calling thread; nothing reads the choice. The type stays
/// only because the benchmark package sets it, and leaves with the
/// benchmark change that ROADMAP item 1 names.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecMode {
    /// Every engine runs on the calling thread.
    Serial,
    /// Every engine runs on the calling thread; the thread count is
    /// ignored.
    Parallel(usize),
}

/// Everything a serve run needs. Construct with [`ServeConfig::new`]
/// and override fields as needed.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Target system (one tensor-parallel replica group; every replica
    /// is identical).
    pub system: SystemSpec,
    /// Traffic mix.
    pub mix: ServeMix,
    /// Arrival process.
    pub process: ArrivalProcess,
    /// Number of requests to offer.
    pub requests: usize,
    /// Seed for the traffic trace and per-batch fault plans.
    pub seed: u64,
    /// Batch-former policy.
    pub batch: BatchConfig,
    /// Admission queue bound; arrivals beyond it are shed.
    pub queue_capacity: usize,
    /// Per-replica plan-cache capacity.
    pub cache_capacity: usize,
    /// Latency SLO.
    pub slo_ns: u64,
    /// Arm per-batch fault injection (resilient execution).
    pub chaos: bool,
    /// Independent replica groups behind the router.
    pub replicas: usize,
    /// Nodes the replicas are spread across (replica `r` lives on node
    /// `r % nodes`). Batches routed off their home node pay an
    /// inter-node migration penalty over
    /// [`SystemSpec::topology`](flashoverlap::SystemSpec)'s inter
    /// fabric. 1 = the single-node deployment every prior config ran.
    pub nodes: usize,
    /// Batch-routing policy.
    pub router: RouterPolicy,
    /// Execute replica chains with cross-batch pipelining (false
    /// inserts a serial barrier between consecutive batches).
    pub pipelined: bool,
    /// Most batches an idle replica chains into one simulation.
    pub chain: usize,
    /// Force this replica's first chaos chain to wedge deterministically
    /// (an unrecoverable dropped-signal fault on its leading batch), so
    /// the quarantine → re-route path is reproducible under a fixed
    /// seed. Requires [`ServeConfig::chaos`].
    pub wedge_replica: Option<usize>,
    /// Tuned plans to seed every replica's cache with before the run.
    /// The snapshot's fingerprint must match [`ServeConfig::system`].
    pub preload: Option<CacheSnapshot>,
    /// Ignored: both [`ExecMode`]s run every engine on the calling
    /// thread.
    pub exec: ExecMode,
}

impl ServeConfig {
    /// Defaults: 200 requests of the default mix at 500 rps Poisson
    /// (≈70% utilization of a two-rank 4090 group under the default
    /// prefill-heavy mix), 20 ms SLO, 64-deep queue, 32-plan cache,
    /// one replica, round-robin router, pipelined 4-batch chains, no
    /// chaos, serial execution.
    pub fn new(system: SystemSpec) -> Self {
        ServeConfig {
            system,
            mix: ServeMix::default_mix(),
            process: ArrivalProcess::Poisson { rate_rps: 500.0 },
            requests: 200,
            seed: 0,
            batch: BatchConfig::default(),
            queue_capacity: 64,
            cache_capacity: 32,
            slo_ns: 20_000_000,
            chaos: false,
            replicas: 1,
            nodes: 1,
            router: RouterPolicy::RoundRobin,
            pipelined: true,
            chain: 4,
            wedge_replica: None,
            preload: None,
            exec: ExecMode::Serial,
        }
    }

    /// Validates shape divisibility (every mix model's intermediate
    /// size must split across the TP group), replica/chain bounds, and
    /// preload fingerprint compatibility.
    fn validate(&self) -> Result<(), FlashOverlapError> {
        let tp = self.system.n_gpus as u32;
        for entry in self.mix.entries() {
            if tp == 0 || entry.model.intermediate % tp != 0 {
                return Err(FlashOverlapError::IncompatibleShape {
                    reason: format!(
                        "{}: intermediate {} not divisible by tp {}",
                        entry.model.name, entry.model.intermediate, tp
                    ),
                });
            }
        }
        if self.replicas == 0 {
            return Err(FlashOverlapError::BadInputs {
                reason: "need at least one replica".into(),
            });
        }
        if self.chain == 0 {
            return Err(FlashOverlapError::BadInputs {
                reason: "chain length must be at least 1".into(),
            });
        }
        if self.nodes == 0 {
            return Err(FlashOverlapError::BadInputs {
                reason: "need at least one node".into(),
            });
        }
        if self.nodes > self.replicas {
            return Err(FlashOverlapError::BadInputs {
                reason: format!(
                    "--nodes {} exceeds --replicas {}; every node needs at least one replica",
                    self.nodes, self.replicas
                ),
            });
        }
        if let Some(w) = self.wedge_replica {
            if w >= self.replicas {
                return Err(FlashOverlapError::BadInputs {
                    reason: format!(
                        "--wedge-replica {w} targets a replica that does not exist \
                         ({} configured)",
                        self.replicas
                    ),
                });
            }
            if !self.chaos {
                return Err(FlashOverlapError::BadInputs {
                    reason: "--wedge-replica injects a fault plan and requires --chaos".into(),
                });
            }
        }
        if let Some(snapshot) = &self.preload {
            let fp = system_fingerprint(&self.system);
            if snapshot.system_fp != fp {
                return Err(FlashOverlapError::BadInputs {
                    reason: format!(
                        "plan-cache snapshot was tuned for system {:016x} but this run \
                         targets {fp:016x}; re-tune instead of loading stale plans",
                        snapshot.system_fp
                    ),
                });
            }
        }
        Ok(())
    }
}

/// Per-batch fault-plan seed: decorrelated from the traffic seed and
/// from neighbouring batches (splitmix-style odd multiplier).
pub(crate) fn fault_seed(seed: u64, batch_id: u64) -> u64 {
    seed ^ (batch_id.wrapping_add(1)).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Inter-node migration penalty for executing `dims` on `node`: pulling
/// the batch's activation tensor (`m × k` elements) over the inter-node
/// fabric when the chosen replica sits off the batch's home node. Zero
/// on single-node deployments and for home-node placements, so every
/// `nodes == 1` run is byte-identical to the pre-topology simulator.
fn migration_penalty_ns(config: &ServeConfig, dims: gpu_sim::gemm::GemmDims, node: usize) -> u64 {
    if config.nodes <= 1 || node == home_node(dims, config.nodes) {
        return 0;
    }
    let bytes = u64::from(dims.m) * u64::from(dims.k) * collectives::BYTES_PER_ELEM;
    config
        .system
        .topology
        .inter
        .p2p
        .transfer_time(bytes)
        .as_nanos()
}

/// The replica a convergence failure should blame: the one with the
/// most undrained batches (ties to the lowest id, so the answer is
/// deterministic). `None` when nothing is queued anywhere.
fn wedged_replica(pending_batches: &[usize]) -> Option<usize> {
    pending_batches
        .iter()
        .enumerate()
        .filter(|(_, &n)| n > 0)
        .max_by_key(|(i, &n)| (n, usize::MAX - i))
        .map(|(i, _)| i)
}

/// Sheds every member request of a batch that found no healthy replica,
/// keeping the accounting identities intact (the requests count toward
/// `shed`, and the batch id survives on their records).
fn shed_pending(p: &PendingBatch, acct: &mut Accounting) {
    for r in &p.batch.requests {
        acct.place(RequestRecord {
            id: r.id,
            model: r.model.name,
            tokens: r.tokens,
            arrival_ns: r.arrival_ns,
            disposition: Disposition::Shed,
            batch: Some(p.batch.id),
            latency_ns: None,
            form_wait_ns: Some(p.close_ns.saturating_sub(r.arrival_ns)),
            queue_wait_ns: None,
        });
    }
    acct.quarantine_shed += p.batch.requests.len() as u64;
}

/// Pulls replica `idx` from service: marks it quarantined, drains its
/// dispatch queue, and deterministically re-routes each queued batch to
/// a healthy replica (or sheds it, fully accounted, when none remain).
/// The caller guarantees another healthy replica exists — the last
/// replica in service is never quarantined.
fn quarantine_replica(
    slots: &mut [ReplicaSlot],
    idx: usize,
    reason: &'static str,
    router: &mut Router,
    config: &ServeConfig,
    now_ns: u64,
    acct: &mut Accounting,
) {
    let tp = config.system.n_gpus as u32;
    let Some(slot) = slots.get_mut(idx) else {
        return;
    };
    if slot.quarantined.is_some() {
        return;
    }
    slot.quarantined = Some(reason);
    let orphans: Vec<PendingBatch> = slot.pending.drain(..).collect();
    for p in orphans {
        let eligible: Vec<bool> = slots.iter().map(|s| s.quarantined.is_none()).collect();
        let loads: Vec<ReplicaLoad> = slots
            .iter()
            .enumerate()
            .map(|(i, s)| ReplicaLoad {
                queued_tokens: s.queued_tokens(),
                busy_ns: s.free_ns.saturating_sub(now_ns),
                node: i % config.nodes,
            })
            .collect();
        let dims = p.batch.gemm_dims(tp);
        match router.route_among(dims, &loads, &eligible) {
            Some(decision) => {
                // The new placement may cross a node boundary the old
                // one did not (or vice versa): re-derive the penalty.
                let migration_ns =
                    migration_penalty_ns(config, dims, decision.replica % config.nodes);
                if let Some(target) = slots.get_mut(decision.replica) {
                    target.pending.push_back(PendingBatch {
                        routing: "re-routed",
                        migration_ns,
                        ..p
                    });
                    acct.batches_rerouted += 1;
                } else {
                    shed_pending(&p, acct);
                }
            }
            None => shed_pending(&p, acct),
        }
    }
}

/// Runs the serving loop to completion and returns the report. Fully
/// deterministic in the config: same config, bit-identical report.
pub fn serve(config: &ServeConfig) -> Result<ServeReport, FlashOverlapError> {
    Ok(serve_run(config, RunOptions::new(true, false))?.report)
}

/// [`serve`], additionally returning the merged tuned-plan snapshot
/// from every replica's cache — the `--plan-cache-out` payload.
pub fn serve_exporting(
    config: &ServeConfig,
) -> Result<(ServeReport, CacheSnapshot), FlashOverlapError> {
    let run = serve_run(config, RunOptions::new(true, true))?;
    Ok((run.report, run.snapshot))
}

/// Runs the same loop with untuned single-group (non-overlap) plans —
/// the baseline arm of [`serve_comparison`].
pub fn serve_baseline(config: &ServeConfig) -> Result<ServeReport, FlashOverlapError> {
    Ok(serve_run(config, RunOptions::new(false, false))?.report)
}

/// Serves the identical seeded traffic through both the tuned and the
/// non-overlap baseline arms.
pub fn serve_comparison(config: &ServeConfig) -> Result<ComparisonReport, FlashOverlapError> {
    Ok(ComparisonReport {
        tuned: serve(config)?,
        baseline: serve_baseline(config)?,
    })
}

/// Serves the identical seeded traffic through the configured
/// multi-replica arm, a single replica, and the multi-replica arm with
/// pipelining disabled — the replica-scaling evaluation.
pub fn serve_scaling(config: &ServeConfig) -> Result<ScalingReport, FlashOverlapError> {
    let multi = serve(config)?;
    let single = serve(&ServeConfig {
        replicas: 1,
        ..config.clone()
    })?;
    let unpipelined = serve(&ServeConfig {
        pipelined: false,
        ..config.clone()
    })?;
    Ok(ScalingReport {
        multi,
        single,
        unpipelined,
    })
}

/// The serve loop's side of one replica: its dispatch queue, drain time
/// and service state. The replica's engine runs its chains.
struct ReplicaSlot {
    /// Closed batches routed here, waiting for the replica to go idle.
    pending: VecDeque<PendingBatch>,
    /// Virtual time the replica's last chain drains (<= now means idle).
    free_ns: u64,
    /// Set when the replica is pulled from service: a chaos chain came
    /// back degraded (wedged under fault injection) or the serve loop
    /// blamed it for a stall. A quarantined replica receives no new
    /// batches and never dispatches again.
    quarantined: Option<&'static str>,
}

impl ReplicaSlot {
    fn new() -> Self {
        ReplicaSlot {
            pending: VecDeque::new(),
            free_ns: 0,
            quarantined: None,
        }
    }

    fn queued_tokens(&self) -> u64 {
        self.pending
            .iter()
            .map(|p| u64::from(p.batch.padded_tokens))
            .sum()
    }
}

/// A replica's end-of-run state: the loop's slot joined with the
/// engine's totals.
struct ReplicaView {
    free_ns: u64,
    quarantined: Option<&'static str>,
    fin: EngineFinal,
}

/// Drift accumulator key: `(m, n, k, group)`.
type DriftKey = (u32, u32, u32, usize);
/// Drift accumulator cell: `(samples, predicted_sum, measured_sum)`.
type DriftCell = (u64, f64, f64);

/// Mutable accounting threaded through chain execution.
#[derive(Default)]
pub(crate) struct Accounting {
    /// Request records, each in the slot of its id. Ids are the dense
    /// arrival indices `0..n`, so the records come out in id order
    /// without a sort.
    records: Vec<Option<RequestRecord>>,
    /// Records placed so far.
    placed: usize,
    pub(crate) batch_records: Vec<BatchRecord>,
    pub(crate) signal_weighted_sum: f64,
    pub(crate) signal_samples: u64,
    /// Batches moved off a quarantined replica's dispatch queue.
    batches_rerouted: u64,
    /// Requests shed because their batch had no healthy replica left.
    quarantine_shed: u64,
    /// Batches executed off their home node (multi-node deployments).
    pub(crate) cross_node_batches: u64,
    /// Total inter-node migration charged to cross-node batches.
    pub(crate) migration_ns: u64,
    /// Inter-node bytes the hierarchical schedule moved for the run's
    /// tensor-parallel AllReduces (multi-node deployments).
    pub(crate) inter_bytes_hierarchical: u64,
    /// Inter-node bytes the flat rank-order ring would have moved for
    /// the same AllReduces.
    pub(crate) inter_bytes_flat: u64,
    /// Drift accumulator; BTreeMap so the report rows come out in
    /// deterministic shape-major order.
    drift: std::collections::BTreeMap<DriftKey, DriftCell>,
}

impl Accounting {
    /// An empty ledger for `requests` arrivals.
    pub(crate) fn new(requests: usize) -> Self {
        Accounting {
            records: std::iter::repeat_with(|| None).take(requests).collect(),
            ..Accounting::default()
        }
    }

    /// Files `record` in its id's slot.
    pub(crate) fn place(&mut self, record: RequestRecord) {
        let slot = usize::try_from(record.id)
            .ok()
            .and_then(|id| self.records.get_mut(id));
        debug_assert!(
            slot.as_ref().is_some_and(|s| s.is_none()),
            "request {} is not a fresh arrival id",
            record.id
        );
        if let Some(slot) = slot {
            *slot = Some(record);
            self.placed += 1;
        }
    }

    /// Folds one batch's measured group completions against the plan's
    /// [`LatencyPredictor`](flashoverlap::LatencyPredictor) predictions.
    pub(crate) fn absorb_drift(
        &mut self,
        dims: gpu_sim::gemm::GemmDims,
        predicted: &[sim::SimDuration],
        measured: &[sim::SimDuration],
    ) {
        if predicted.len() != measured.len() {
            return;
        }
        for (group, (p, m)) in predicted.iter().zip(measured).enumerate() {
            let cell = self
                .drift
                .entry((dims.m, dims.n, dims.k, group))
                .or_insert((0, 0.0, 0.0));
            cell.0 += 1;
            cell.1 += p.as_nanos() as f64;
            cell.2 += m.as_nanos() as f64;
        }
    }
}

/// What one run of the serve loop produced.
pub(crate) struct ServeRun {
    pub(crate) report: ServeReport,
    /// The merged tuned-plan snapshot of every replica's cache; no
    /// entries unless the run exports them.
    pub(crate) snapshot: CacheSnapshot,
    /// Chains the engines replayed from their chain memos.
    #[cfg_attr(
        not(test),
        expect(dead_code, reason = "only the chain-memo tests read it")
    )]
    pub(crate) memo_hits: u64,
    /// Plans the engines tuned themselves rather than adopting them from
    /// a sibling replica.
    #[cfg_attr(
        not(test),
        expect(dead_code, reason = "only the adoption tests read it")
    )]
    pub(crate) tunes: u64,
}

/// How one run of the serve loop is set up.
#[derive(Debug, Clone, Copy)]
pub(crate) struct RunOptions {
    /// Tuned plans, or the untuned baseline's.
    pub(crate) tuned: bool,
    /// Export the engines' tuned plans into [`ServeRun::snapshot`].
    pub(crate) export: bool,
    /// The engines' chain memos. Never changes the report; only the
    /// memo's tests turn it off.
    pub(crate) memo: bool,
    /// Plan-cache misses adopt sibling replicas' plans. Never changes the
    /// report; only the adoption tests turn it off.
    pub(crate) adopt: bool,
}

impl RunOptions {
    /// A run with the memo and adoption on.
    pub(crate) fn new(tuned: bool, export: bool) -> Self {
        RunOptions {
            tuned,
            export,
            memo: true,
            adopt: true,
        }
    }
}

/// The serve loop.
pub(crate) fn serve_run(
    config: &ServeConfig,
    opts: RunOptions,
) -> Result<ServeRun, FlashOverlapError> {
    config.validate()?;
    let tp = config.system.n_gpus as u32;
    let arrivals = generate(&config.mix, config.process, config.requests, config.seed);
    let offered_span_ns = arrivals.last().map_or(0, |r| r.arrival_ns);

    let mut engines = build_engines(config, opts.tuned, opts.memo)?;
    let mut slots: Vec<ReplicaSlot> = (0..config.replicas).map(|_| ReplicaSlot::new()).collect();
    let mut router = Router::new(config.router);

    let mut queue: Vec<Request> = Vec::new();
    let mut next_arrival = 0usize;
    let mut now_ns = 0u64;
    let mut batch_id = 0u64;
    let mut acct = Accounting::new(arrivals.len());
    let mut shapes = std::collections::HashSet::new();
    // The chain being dispatched, in a buffer reused across chains.
    let mut chain: Vec<PendingBatch> = Vec::new();

    // Loop guard: each iteration either admits, dispatches, or advances
    // the clock to a strictly later event, so this bound is generous.
    let max_iterations = 20 * arrivals.len() + 100;
    let mut iterations = 0usize;

    loop {
        iterations += 1;
        if iterations > max_iterations {
            let pending: Vec<usize> = slots.iter().map(|s| s.pending.len()).collect();
            // Survive the wedge when possible: quarantine the blamed
            // replica and re-route its queue instead of aborting. Each
            // replica can be quarantined at most once and the last
            // healthy replica is never pulled, so the retries are
            // bounded by the replica count.
            if let Some(r) = wedged_replica(&pending) {
                let healthy = slots.iter().filter(|x| x.quarantined.is_none()).count();
                if healthy > 1 && slots.get(r).is_some_and(|x| x.quarantined.is_none()) {
                    quarantine_replica(
                        &mut slots,
                        r,
                        "serve loop stalled on this replica",
                        &mut router,
                        config,
                        now_ns,
                        &mut acct,
                    );
                    iterations = 0;
                    continue;
                }
            }
            let blame = match wedged_replica(&pending) {
                Some(r) => format!(
                    "; replica {r} is wedged with {} undrained batch(es)",
                    pending.get(r).copied().unwrap_or(0)
                ),
                None => String::new(),
            };
            return Err(FlashOverlapError::Simulation(format!(
                "serve loop failed to converge after {max_iterations} iterations \
                 ({} requests unresolved{blame})",
                arrivals.len() - acct.placed
            )));
        }

        // Admission: everything that has arrived by `now` either joins
        // the bounded queue or is shed.
        while let Some(r) = arrivals.get(next_arrival) {
            if r.arrival_ns > now_ns {
                break;
            }
            if queue.len() >= config.queue_capacity {
                acct.place(RequestRecord {
                    id: r.id,
                    model: r.model.name,
                    tokens: r.tokens,
                    arrival_ns: r.arrival_ns,
                    disposition: Disposition::Shed,
                    batch: None,
                    latency_ns: None,
                    form_wait_ns: None,
                    queue_wait_ns: None,
                });
            } else {
                queue.push(*r);
            }
            next_arrival += 1;
        }

        // Batch closing: form every batch that is ready at `now` and
        // route it to a replica's dispatch queue.
        while let Some(head) = queue.first() {
            let head_deadline = head.arrival_ns.saturating_add(config.batch.max_wait_ns);
            let run_tokens: u32 = queue
                .iter()
                .take_while(|r| r.model == head.model)
                .map(|r| r.tokens)
                .sum();
            let ready = run_tokens >= config.batch.max_batch_tokens
                || now_ns >= head_deadline
                || next_arrival >= arrivals.len();
            if !ready {
                break;
            }
            let Some(batch) = form_batch(&mut queue, &config.batch, batch_id) else {
                break;
            };
            batch_id += 1;
            let dims = batch.gemm_dims(tp);
            shapes.insert(dims);
            let eligible: Vec<bool> = slots.iter().map(|s| s.quarantined.is_none()).collect();
            let loads: Vec<ReplicaLoad> = slots
                .iter()
                .enumerate()
                .map(|(i, s)| ReplicaLoad {
                    queued_tokens: s.queued_tokens(),
                    busy_ns: s.free_ns.saturating_sub(now_ns),
                    node: i % config.nodes,
                })
                .collect();
            match router.route_among(dims, &loads, &eligible) {
                Some(decision) => {
                    let migration_ns =
                        migration_penalty_ns(config, dims, decision.replica % config.nodes);
                    if let Some(slot) = slots.get_mut(decision.replica) {
                        slot.pending.push_back(PendingBatch {
                            batch,
                            routing: decision.reason,
                            close_ns: now_ns,
                            migration_ns,
                        });
                    }
                }
                // No healthy replica left (unreachable while the
                // last-replica-in-service rule holds; kept as the
                // accounted fallback).
                None => shed_pending(
                    &PendingBatch {
                        batch,
                        routing: "no-healthy-replica",
                        close_ns: now_ns,
                        migration_ns: 0,
                    },
                    &mut acct,
                ),
            }
        }

        // Dispatch: every idle, in-service replica drains up to `chain`
        // pending batches as one (pipelined) simulation starting now —
        // chains form under chaos too; each batch just carries its own
        // fault plan into the resilient sequence.
        for idx in 0..slots.len() {
            let Some(slot) = slots.get_mut(idx) else {
                continue;
            };
            if slot.quarantined.is_some() || slot.pending.is_empty() || slot.free_ns > now_ns {
                continue;
            }
            let take = slot.pending.len().min(config.chain);
            chain.clear();
            chain.extend(slot.pending.drain(..take));
            let done = run_chain(&mut engines, idx, opts.adopt, now_ns, &chain, &mut acct)?;
            slot.free_ns = done.free_ns;
            // A degraded chain marks the replica wedged. Quarantine it
            // and re-route its queue — unless it is the last replica in
            // service, which keeps limping rather than shedding all
            // remaining traffic.
            let healthy = slots.iter().filter(|s| s.quarantined.is_none()).count();
            if done.degraded && healthy > 1 {
                quarantine_replica(
                    &mut slots,
                    idx,
                    "wedged: chaos chain came back degraded",
                    &mut router,
                    config,
                    now_ns,
                    &mut acct,
                );
            }
        }

        // Termination: every request admitted, batched, and executed.
        if next_arrival >= arrivals.len()
            && queue.is_empty()
            && slots.iter().all(|s| s.pending.is_empty())
        {
            break;
        }

        // Advance the clock to the next event: an arrival, the head
        // request's batching deadline, or a busy replica with queued
        // work going idle.
        let mut next_event = arrivals.get(next_arrival).map(|r| r.arrival_ns);
        if let Some(head) = queue.first() {
            let deadline = head.arrival_ns.saturating_add(config.batch.max_wait_ns);
            next_event = Some(next_event.map_or(deadline, |t| t.min(deadline)));
        }
        for slot in &slots {
            if !slot.pending.is_empty() {
                next_event = Some(next_event.map_or(slot.free_ns, |t| t.min(slot.free_ns)));
            }
        }
        match next_event {
            Some(t) => now_ns = now_ns.max(t),
            None => {
                debug_assert!(false, "no next event yet not terminated");
                break;
            }
        }
    }

    let mut views: Vec<ReplicaView> = slots
        .iter()
        .zip(engines)
        .map(|(slot, engine)| ReplicaView {
            free_ns: slot.free_ns,
            quarantined: slot.quarantined,
            fin: engine.finish(opts.export),
        })
        .collect();

    debug_assert_eq!(acct.placed, arrivals.len(), "every request accounted for");
    let makespan_ns = views.iter().map(|r| r.free_ns).max().unwrap_or(0);

    // Engines export entries only when asked, so a run that does not
    // export merges nothing.
    let mut entries: Vec<PlanEntry> = views
        .iter_mut()
        .flat_map(|r| std::mem::take(&mut r.fin.entries))
        .collect();
    entries.sort_by_key(|e| (e.dims.m, e.dims.n, e.dims.k, primitive_label(e.primitive)));
    entries.dedup_by_key(|e| (e.dims, e.primitive));
    let snapshot = CacheSnapshot {
        system_fp: system_fingerprint(&config.system),
        entries,
    };

    let report = build_report(
        config,
        opts.tuned,
        makespan_ns,
        offered_span_ns,
        acct,
        shapes.len() as u64,
        &views,
    );
    Ok(ServeRun {
        report,
        snapshot,
        memo_hits: views.iter().map(|r| r.fin.memo_hits).sum(),
        tunes: views.iter().map(|r| r.fin.tunes).sum(),
    })
}

/// Serve-level critical-path attribution: the bottleneck replica's
/// timeline (its last chain ends at the makespan) is its executed
/// chains plus the gaps between them. Chain windows carry their own
/// attribution; a gap is charged [`Category::QueueWait`] where requests
/// were in the system still forming batches (the union of per-request
/// `[arrival, arrival + form_wait]` intervals) and [`Category::Idle`]
/// where the system was truly empty. Totals sum to `makespan_ns`.
fn serve_attribution(
    makespan_ns: u64,
    replicas: &[ReplicaView],
    records: &[RequestRecord],
) -> AttributionTotals {
    let mut totals = AttributionTotals::default();
    // Bottleneck replica: max free_ns, ties to the lowest id.
    let Some(bottleneck) = replicas
        .iter()
        .enumerate()
        .max_by_key(|(i, r)| (r.free_ns, usize::MAX - i))
        .map(|(_, r)| r)
    else {
        totals.add(Category::Idle, makespan_ns);
        return totals;
    };

    // Merged union of batch-forming intervals across all requests.
    let mut forming: Vec<(u64, u64)> = records
        .iter()
        .filter_map(|r| r.form_wait_ns.map(|w| (r.arrival_ns, r.arrival_ns + w)))
        .filter(|(lo, hi)| hi > lo)
        .collect();
    forming.sort_unstable();
    let mut merged: Vec<(u64, u64)> = Vec::new();
    for (lo, hi) in forming {
        match merged.last_mut() {
            Some((_, last_hi)) if lo <= *last_hi => *last_hi = (*last_hi).max(hi),
            _ => merged.push((lo, hi)),
        }
    }
    let mut forming = FormingCover::new(&merged);
    let mut charge_gap = |totals: &mut AttributionTotals, lo: u64, hi: u64| {
        if hi <= lo {
            return;
        }
        let queue_wait = forming.overlap(lo, hi);
        totals.add(Category::QueueWait, queue_wait);
        totals.add(Category::Idle, (hi - lo) - queue_wait);
    };

    let mut chains = bottleneck.fin.chain_log.clone();
    chains.sort_unstable_by_key(|&(start, _, _)| start);
    let mut cursor = 0u64;
    for (start, total, chain_totals) in &chains {
        charge_gap(&mut totals, cursor, *start);
        totals.merge(chain_totals);
        cursor = start + total;
    }
    charge_gap(&mut totals, cursor, makespan_ns);
    totals
}

/// How much of each idle gap the merged batch-forming intervals cover,
/// for gaps asked in start order. The bottleneck's gaps arrive that way:
/// each opens where the latest-starting chain before it ends, at or
/// after the previous gap's close. So one cursor over the sorted,
/// disjoint intervals answers every gap, in O(gaps + intervals) total.
struct FormingCover<'a> {
    merged: &'a [(u64, u64)],
    /// The first interval that can still meet a later gap.
    next: usize,
}

impl<'a> FormingCover<'a> {
    fn new(merged: &'a [(u64, u64)]) -> Self {
        FormingCover { merged, next: 0 }
    }

    /// The length of `[lo, hi)` covered by the intervals. `lo` must be at
    /// or after the previous call's `hi`.
    fn overlap(&mut self, lo: u64, hi: u64) -> u64 {
        let rest = self.merged.get(self.next..).unwrap_or(&[]);
        self.next += rest.iter().take_while(|&&(_, ihi)| ihi <= lo).count();
        self.merged
            .get(self.next..)
            .unwrap_or(&[])
            .iter()
            .take_while(|&&(ilo, _)| ilo < hi)
            .map(|&(ilo, ihi)| ihi.min(hi).saturating_sub(ilo.max(lo)))
            .sum()
    }
}

fn build_report(
    config: &ServeConfig,
    tuned: bool,
    makespan_ns: u64,
    offered_span_ns: u64,
    acct: Accounting,
    distinct_shapes: u64,
    replicas: &[ReplicaView],
) -> ServeReport {
    let Accounting {
        records,
        placed: _,
        batch_records,
        signal_weighted_sum,
        signal_samples,
        batches_rerouted,
        quarantine_shed,
        cross_node_batches,
        migration_ns,
        inter_bytes_hierarchical,
        inter_bytes_flat,
        drift,
    } = acct;
    // Every slot is filled once the run converged. `filter_map` (unlike
    // `flatten`) collects in place, into the slots' own buffer.
    #[expect(
        clippy::filter_map_identity,
        reason = "filter_map collects in place; flatten copies into a new buffer"
    )]
    let records: Vec<RequestRecord> = records.into_iter().filter_map(|r| r).collect();
    let attribution = serve_attribution(makespan_ns, replicas, &records);
    let form_waits: Vec<u64> = records.iter().filter_map(|r| r.form_wait_ns).collect();
    let queue_waits: Vec<u64> = records.iter().filter_map(|r| r.queue_wait_ns).collect();
    let drift_rows: Vec<DriftRow> = drift
        .into_iter()
        .map(|((m, n, k, group), (samples, pred, meas))| DriftRow {
            m,
            n,
            k,
            group,
            samples,
            mean_predicted_ns: pred / samples as f64,
            mean_measured_ns: meas / samples as f64,
        })
        .collect();
    let offered = records.len() as u64;
    let shed = records
        .iter()
        .filter(|r| r.disposition == Disposition::Shed)
        .count() as u64;
    let completed = offered - shed;
    let count = |d: Disposition| records.iter().filter(|r| r.disposition == d).count() as u64;
    // The merged per-request completion stream across every replica:
    // percentiles are order statistics of the run, not averages of
    // per-replica summaries (a hot replica must drag the run's p95).
    let latencies: Vec<u64> = records.iter().filter_map(|r| r.latency_ns).collect();
    let slo_met = records
        .iter()
        .filter(|r| {
            r.disposition != Disposition::Shed
                && r.disposition != Disposition::Degraded
                && r.latency_ns.is_some_and(|l| l <= config.slo_ns)
        })
        .count() as u64;
    let makespan_s = makespan_ns as f64 / 1e9;
    let offered_span_s = offered_span_ns as f64 / 1e9;
    let total_batch_requests: u64 = batch_records.iter().map(|b| b.requests).sum();
    let total_batch_tokens: u64 = batch_records.iter().map(|b| u64::from(b.tokens)).sum();
    let n_batches = batch_records.len() as u64;
    let cache = replicas.iter().fold(CacheStats::default(), |sum, r| {
        sum.merge(&r.fin.cache_stats)
    });
    let replica_stats: Vec<ReplicaStats> = replicas
        .iter()
        .enumerate()
        .map(|(id, r)| ReplicaStats {
            id,
            node: id % config.nodes,
            batches: r.fin.batches,
            requests: r.fin.requests,
            tokens: r.fin.tokens,
            busy_ns: r.fin.busy_ns,
            chains: r.fin.chains,
            utilization: if makespan_ns > 0 {
                r.fin.busy_ns as f64 / makespan_ns as f64
            } else {
                0.0
            },
            quarantined: r.quarantined.is_some(),
            cache: r.fin.cache_stats,
        })
        .collect();
    // Node rollup: fold replica rows into their node; summing the node
    // rows reproduces the run totals (node → replica → total identity).
    let mut node_stats: Vec<NodeStats> = (0..config.nodes)
        .map(|node| NodeStats {
            node,
            ..NodeStats::default()
        })
        .collect();
    for r in &replica_stats {
        if let Some(n) = node_stats.get_mut(r.node) {
            n.replicas += 1;
            n.batches += r.batches;
            n.requests += r.requests;
            n.tokens += r.tokens;
            n.busy_ns += r.busy_ns;
        }
    }

    ServeReport {
        seed: config.seed,
        arrival: config.process.label(),
        offered,
        gpus: config.system.n_gpus,
        platform: config.system.arch.name,
        slo_ns: config.slo_ns,
        chaos: config.chaos,
        tuned,
        replicas: config.replicas,
        nodes: config.nodes,
        router: config.router.label(),
        pipelined: config.pipelined,
        wedge_replica: config.wedge_replica,
        replicas_quarantined: replicas.iter().filter(|r| r.quarantined.is_some()).count() as u64,
        batches_rerouted,
        quarantine_shed,
        cross_node_batches,
        migration_ns,
        inter_bytes_hierarchical,
        inter_bytes_flat,
        makespan_ns,
        completed,
        shed,
        clean: count(Disposition::Clean),
        recovered: count(Disposition::Recovered),
        degraded: count(Disposition::Degraded),
        slo_met,
        latency: percentiles(&latencies),
        mean_latency_ns: if latencies.is_empty() {
            0.0
        } else {
            latencies.iter().sum::<u64>() as f64 / latencies.len() as f64
        },
        max_latency_ns: latencies.iter().copied().max().unwrap_or(0),
        goodput_rps: if makespan_s > 0.0 {
            slo_met as f64 / makespan_s
        } else {
            0.0
        },
        offered_rps: if offered_span_s > 0.0 {
            offered as f64 / offered_span_s
        } else {
            0.0
        },
        shed_rate: if offered > 0 {
            shed as f64 / offered as f64
        } else {
            0.0
        },
        batches: n_batches,
        mean_batch_requests: if n_batches > 0 {
            total_batch_requests as f64 / n_batches as f64
        } else {
            0.0
        },
        mean_batch_tokens: if n_batches > 0 {
            total_batch_tokens as f64 / n_batches as f64
        } else {
            0.0
        },
        distinct_shapes,
        cache,
        replica_stats,
        node_stats,
        mean_signal_ns: if signal_samples > 0 {
            signal_weighted_sum / signal_samples as f64
        } else {
            0.0
        },
        signal_samples,
        form_wait: percentiles(&form_waits),
        queue_wait: percentiles(&queue_waits),
        attribution,
        drift: drift_rows,
        records,
        batch_records,
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Random gaps in start order and random sorted, disjoint
        /// intervals: the cursor charges each gap exactly what scanning
        /// every interval for every gap charges.
        #[test]
        fn forming_cover_equals_the_double_loop(seed in any::<u64>()) {
            let mut rng = sim::DetRng::new(seed);
            let mut merged = Vec::new();
            let mut at = 0u64;
            for _ in 0..rng.next_below(12) {
                let lo = at + rng.next_below(20);
                let hi = lo + 1 + rng.next_below(20);
                merged.push((lo, hi));
                at = hi + rng.next_below(3);
            }
            let mut gaps = Vec::new();
            let mut at = 0u64;
            for _ in 0..rng.next_below(12) {
                let lo = at + rng.next_below(15);
                let hi = lo + rng.next_below(25);
                gaps.push((lo, hi));
                at = hi;
            }
            let mut cover = FormingCover::new(&merged);
            for &(lo, hi) in &gaps {
                let expected: u64 = merged
                    .iter()
                    .map(|&(ilo, ihi)| ihi.min(hi).saturating_sub(ilo.max(lo)))
                    .sum();
                prop_assert_eq!(cover.overlap(lo, hi), expected, "gap {}..{} of {:?}", lo, hi, merged);
            }
        }
    }

    #[test]
    fn wedged_replica_blames_the_deepest_queue_tie_lowest_id() {
        assert_eq!(wedged_replica(&[0, 3, 1, 3]), Some(1));
        assert_eq!(wedged_replica(&[2]), Some(0));
        assert_eq!(wedged_replica(&[0, 0]), None);
        assert_eq!(wedged_replica(&[]), None);
    }

    #[test]
    fn zero_replicas_is_rejected() {
        let mut config = ServeConfig::new(SystemSpec::rtx4090(2));
        config.replicas = 0;
        assert!(matches!(
            serve(&config),
            Err(FlashOverlapError::BadInputs { .. })
        ));
    }

    #[test]
    fn mismatched_snapshot_fingerprint_is_rejected() {
        let mut config = ServeConfig::new(SystemSpec::rtx4090(2));
        config.preload = Some(CacheSnapshot {
            system_fp: 0xdead_beef,
            entries: Vec::new(),
        });
        let err = serve(&config).unwrap_err();
        let msg = format!("{err}");
        assert!(
            msg.contains("00000000deadbeef"),
            "error must name the stale fingerprint: {msg}"
        );
    }
}
