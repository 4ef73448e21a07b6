//! The serving loop: admission control, continuous batching, replica
//! routing, and pipelined plan-cache execution over virtual time.
//!
//! The loop is a discrete-event scheduler one level above the cluster
//! simulator: requests arrive on a seeded trace ([`crate::traffic`]),
//! wait in a bounded FIFO (overflow is shed — classic admission
//! control), close into batches under a token-budget/max-wait policy
//! ([`crate::batch`]), and are routed ([`crate::router`]) to one of
//! [`ServeConfig::replicas`] independent tensor-parallel groups, each
//! sealed behind a [`crate::engine::ReplicaEngine`] that owns the
//! replica's [`PlanCache`](crate::cache::PlanCache), telemetry wiring,
//! and chain executor. An idle replica drains its dispatch queue in
//! *chains* of up to [`ServeConfig::chain`] batches executed through
//! one simulation ([`flashoverlap::execute_sequence`]): with
//! [`ServeConfig::pipelined`] set, batch *k+1*'s GEMM waves run while
//! batch *k*'s tail collectives drain, double-buffered counting tables
//! carrying the cross-batch happens-before edges. Executed chain
//! latency advances the replica's virtual timeline, so queueing delay
//! emerges from the interaction of the arrival rate and the simulated
//! operator throughput — backpressure is real, not modelled.
//!
//! With [`ServeConfig::exec`] set to [`ExecMode::Parallel`], worker
//! threads run the engines' chains and the loop forces an outstanding
//! chain's reply only at the points where a scheduling decision reads
//! its result (dispatch eligibility, clock advance, load-aware
//! routing). Every chain carries a dispatch sequence number and its
//! accounting effects are merged in sequence order, so the report is
//! byte-identical to [`ExecMode::Serial`] for any thread count — the
//! gpucachesim-style deterministic-parallel contract. See DESIGN.md's
//! "Parallel simulation" section for the determinism argument.
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
//! and the run completes instead of aborting. Chaos dispatches are
//! forced eagerly — the quarantine/re-route decision must land at the
//! exact virtual instant the serial engine would make it.

use std::collections::VecDeque;

use flashoverlap::{FlashOverlapError, SystemSpec};
use telemetry::attribution::{AttributionTotals, Category};
use telemetry::percentiles;
use workloads::ServeMix;

use crate::batch::{form_batch, BatchConfig};
use crate::cache::{primitive_label, system_fingerprint, CacheSnapshot, CacheStats, PlanEntry};
use crate::engine::{
    ChainEffects, EngineCommand, EngineFinal, EnginePool, EngineReply, PendingBatch, ReplicaEngine,
};
use crate::report::{
    BatchRecord, ComparisonReport, Disposition, DriftRow, NodeStats, ReplicaStats, RequestRecord,
    ScalingReport, ServeReport,
};
use crate::router::{home_node, ReplicaLoad, Router, RouterPolicy};
use crate::traffic::{generate, ArrivalProcess, Request};

/// How the serve loop runs its replica engines.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecMode {
    /// Every engine executes inline on the serve-loop thread — the
    /// reference engine.
    Serial,
    /// Engines run on up to this many threads, the serve-loop thread
    /// included (clamped to the replica count, so `Parallel(0)` and
    /// `Parallel(1)` start no worker thread). The loop thread runs any
    /// command it needs that no worker has started. Byte-identical to
    /// [`ExecMode::Serial`] for any thread count.
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
    /// Replica-engine execution mode. [`ExecMode::Parallel`] runs the
    /// engines on worker threads with a sequence-numbered deterministic
    /// merge — same config, bit-identical report, any thread count.
    /// Virtual-time results never depend on this knob; only wall-clock
    /// does.
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
        acct.records.push(RequestRecord {
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
/// replica in service is never quarantined — and that no chain is in
/// flight anywhere if the router reads loads (chaos dispatches are
/// forced eagerly; the stall path forces everything first).
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
/// deterministic in the config: same config, bit-identical report —
/// including [`ServeConfig::exec`] thread counts, which only change
/// wall-clock.
pub fn serve(config: &ServeConfig) -> Result<ServeReport, FlashOverlapError> {
    Ok(serve_run(config, true, true, false)?.report)
}

/// [`serve`], additionally returning the merged tuned-plan snapshot
/// from every replica's cache — the `--plan-cache-out` payload.
pub fn serve_exporting(
    config: &ServeConfig,
) -> Result<(ServeReport, CacheSnapshot), FlashOverlapError> {
    let run = serve_run(config, true, true, true)?;
    Ok((run.report, run.snapshot))
}

/// Runs the same loop with untuned single-group (non-overlap) plans —
/// the baseline arm of [`serve_comparison`].
pub fn serve_baseline(config: &ServeConfig) -> Result<ServeReport, FlashOverlapError> {
    Ok(serve_run(config, false, true, false)?.report)
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

/// Runs the serial and parallel engines over the same config and diffs
/// the rendered reports byte-for-byte — the validation mode from the
/// gpucachesim playbook. Returns the serial report plus whether the
/// parallel run (on `threads` worker threads) reproduced it exactly.
pub fn validate_parallel(
    config: &ServeConfig,
    threads: usize,
) -> Result<(ServeReport, bool), FlashOverlapError> {
    let serial = serve(&ServeConfig {
        exec: ExecMode::Serial,
        ..config.clone()
    })?;
    let parallel = serve(&ServeConfig {
        exec: ExecMode::Parallel(threads),
        ..config.clone()
    })?;
    let matched = serial.to_json().to_json_pretty() == parallel.to_json().to_json_pretty();
    Ok((serial, matched))
}

/// The serve loop's mirror of one replica. The dispatch queue stays
/// loop-side — routing reads queue depth synchronously — while all
/// execution state lives behind the sealed engine. `free_ns` is the
/// *last known* drain time: stale while a chain is in flight, and
/// refreshed by [`force_chain`] exactly at the scheduling points that
/// read it.
struct ReplicaSlot {
    /// Closed batches routed here, waiting for the replica to go idle.
    pending: VecDeque<PendingBatch>,
    /// Virtual time the last known chain drains (<= now means idle).
    free_ns: u64,
    /// Whether an `ExecuteChain` reply is still outstanding.
    in_flight: bool,
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
            in_flight: false,
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

/// Blocks on replica `idx`'s outstanding chain reply (no-op when none
/// is outstanding), folding the result into the mirror and the
/// sequence-ordered effect merge. Returns the chain's degraded flag.
/// Execution errors land in `failures` instead of propagating, so the
/// caller can drain every engine and then surface the lowest-sequence
/// error — the one the serial engine would have hit first.
fn force_chain(
    engines: &[ReplicaEngine],
    slots: &mut [ReplicaSlot],
    completed: &mut Vec<(u64, ChainEffects)>,
    failures: &mut Vec<(u64, FlashOverlapError)>,
    idx: usize,
) -> bool {
    let Some(slot) = slots.get_mut(idx) else {
        return false;
    };
    if !slot.in_flight {
        return false;
    }
    slot.in_flight = false;
    let Some(engine) = engines.get(idx) else {
        return false;
    };
    match engine.recv() {
        EngineReply::Chain { seq, result } => match result {
            Ok(res) => {
                slot.free_ns = res.free_ns;
                completed.push((seq, res.effects));
                res.degraded
            }
            Err(e) => {
                failures.push((seq, e));
                false
            }
        },
        EngineReply::Final { .. } => {
            unreachable!("finalize reply received while a chain was outstanding")
        }
    }
}

/// Forces every outstanding chain. Lazily forced chains are always
/// clean (only chaos chains degrade, and chaos dispatches are forced
/// eagerly at dispatch time), so the degraded flag is asserted away.
fn force_all(
    engines: &[ReplicaEngine],
    slots: &mut [ReplicaSlot],
    completed: &mut Vec<(u64, ChainEffects)>,
    failures: &mut Vec<(u64, FlashOverlapError)>,
) {
    for idx in 0..slots.len() {
        let degraded = force_chain(engines, slots, completed, failures, idx);
        debug_assert!(!degraded, "lazily forced chain came back degraded");
    }
}

/// Drains every outstanding chain and takes the lowest-sequence failure
/// — the error the serial engine would have returned first. `None` when
/// every chain so far succeeded.
fn first_failure(
    engines: &[ReplicaEngine],
    slots: &mut [ReplicaSlot],
    completed: &mut Vec<(u64, ChainEffects)>,
    failures: &mut Vec<(u64, FlashOverlapError)>,
) -> Option<FlashOverlapError> {
    if failures.is_empty() {
        return None;
    }
    force_all(engines, slots, completed, failures);
    failures.sort_by_key(|&(seq, _)| seq);
    failures.drain(..).next().map(|(_, e)| e)
}

/// A replica's end-of-run state: the loop-side mirror joined with the
/// engine's finalize reply.
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
struct Accounting {
    records: Vec<RequestRecord>,
    batch_records: Vec<BatchRecord>,
    signal_weighted_sum: f64,
    signal_samples: u64,
    /// Batches moved off a quarantined replica's dispatch queue.
    batches_rerouted: u64,
    /// Requests shed because their batch had no healthy replica left.
    quarantine_shed: u64,
    /// Batches executed off their home node (multi-node deployments).
    cross_node_batches: u64,
    /// Total inter-node migration charged to cross-node batches.
    migration_ns: u64,
    /// Inter-node bytes the hierarchical schedule moved for the run's
    /// tensor-parallel AllReduces (multi-node deployments).
    inter_bytes_hierarchical: u64,
    /// Inter-node bytes the flat rank-order ring would have moved for
    /// the same AllReduces.
    inter_bytes_flat: u64,
    /// Drift accumulator; BTreeMap so the report rows come out in
    /// deterministic shape-major order.
    drift: std::collections::BTreeMap<DriftKey, DriftCell>,
}

impl Accounting {
    /// Applies one executed chain's effects. Callers apply chains in
    /// dispatch-sequence order: the f64 accumulation order and the
    /// batch-record order are part of the byte-identical report
    /// contract.
    fn absorb_chain(&mut self, eff: ChainEffects) {
        let ChainEffects {
            records,
            batch_records,
            signal_weighted_sum,
            signal_samples,
            cross_node_batches,
            migration_ns,
            inter_bytes_hierarchical,
            inter_bytes_flat,
            drift,
        } = eff;
        self.records.extend(records);
        self.batch_records.extend(batch_records);
        self.signal_weighted_sum += signal_weighted_sum;
        self.signal_samples += signal_samples;
        self.cross_node_batches += cross_node_batches;
        self.migration_ns += migration_ns;
        self.inter_bytes_hierarchical += inter_bytes_hierarchical;
        self.inter_bytes_flat += inter_bytes_flat;
        if let Some((dims, predicted, measured)) = drift {
            self.absorb_drift(dims, &predicted, &measured);
        }
    }

    /// Folds one batch's measured group completions against the plan's
    /// [`LatencyPredictor`](flashoverlap::LatencyPredictor) predictions.
    fn absorb_drift(
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
}

/// The serve loop. `tuned` picks tuned or baseline plans; `memo` turns
/// the engines' chain memos on, which never changes the report; `export`
/// has the engines export their tuned plans into [`ServeRun::snapshot`].
pub(crate) fn serve_run(
    config: &ServeConfig,
    tuned: bool,
    memo: bool,
    export: bool,
) -> Result<ServeRun, FlashOverlapError> {
    config.validate()?;
    let tp = config.system.n_gpus as u32;
    let arrivals = generate(&config.mix, config.process, config.requests, config.seed);
    let offered_span_ns = arrivals.last().map_or(0, |r| r.arrival_ns);

    let pool = EnginePool::build(config, tuned, memo)?;
    let mut slots: Vec<ReplicaSlot> = (0..config.replicas).map(|_| ReplicaSlot::new()).collect();
    let mut router = Router::new(config.router);

    let mut queue: Vec<Request> = Vec::new();
    let mut next_arrival = 0usize;
    let mut now_ns = 0u64;
    let mut batch_id = 0u64;
    // Global dispatch sequence: assigned at ExecuteChain send time,
    // echoed on the reply, and the order chain effects merge in.
    let mut next_seq = 0u64;
    let mut acct = Accounting {
        records: Vec::with_capacity(arrivals.len()),
        ..Accounting::default()
    };
    let mut completed: Vec<(u64, ChainEffects)> = Vec::new();
    let mut failures: Vec<(u64, FlashOverlapError)> = Vec::new();
    let mut shapes = std::collections::HashSet::new();

    // Loop guard: each iteration either admits, dispatches, or advances
    // the clock to a strictly later event, so this bound is generous.
    let max_iterations = 20 * arrivals.len() + 100;
    let mut iterations = 0usize;

    loop {
        iterations += 1;
        if iterations > max_iterations {
            // Drain in-flight chains so the accounting below matches
            // what the serial engine had executed by this point.
            force_all(&pool.engines, &mut slots, &mut completed, &mut failures);
            if let Some(err) =
                first_failure(&pool.engines, &mut slots, &mut completed, &mut failures)
            {
                return Err(err);
            }
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
            // Fold executed chains in so the unresolved-request count
            // matches the serial engine's.
            completed.sort_by_key(|&(seq, _)| seq);
            for (_, eff) in completed.drain(..) {
                acct.absorb_chain(eff);
            }
            return Err(FlashOverlapError::Simulation(format!(
                "serve loop failed to converge after {max_iterations} iterations \
                 ({} requests unresolved{blame})",
                arrivals.len() - acct.records.len()
            )));
        }

        // Admission: everything that has arrived by `now` either joins
        // the bounded queue or is shed.
        while let Some(r) = arrivals.get(next_arrival) {
            if r.arrival_ns > now_ns {
                break;
            }
            if queue.len() >= config.queue_capacity {
                acct.records.push(RequestRecord {
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
            // A load-aware router compares busy times, so outstanding
            // chains must land before the snapshot. Round-robin is
            // load-blind and keeps routing while chains are in flight —
            // the free-running fast path.
            if config.router.reads_loads() {
                force_all(&pool.engines, &mut slots, &mut completed, &mut failures);
                if let Some(err) =
                    first_failure(&pool.engines, &mut slots, &mut completed, &mut failures)
                {
                    return Err(err);
                }
            }
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
            if slots
                .get(idx)
                .is_none_or(|s| s.quarantined.is_some() || s.pending.is_empty())
            {
                continue;
            }
            // The dispatch decision reads this replica's drain time, so
            // an outstanding chain must land first. (Under chaos every
            // dispatch is forced eagerly below, so nothing is ever
            // outstanding here.)
            if slots.get(idx).is_some_and(|s| s.in_flight) {
                let degraded = force_chain(
                    &pool.engines,
                    &mut slots,
                    &mut completed,
                    &mut failures,
                    idx,
                );
                debug_assert!(!degraded, "lazily forced chain came back degraded");
                if let Some(err) =
                    first_failure(&pool.engines, &mut slots, &mut completed, &mut failures)
                {
                    return Err(err);
                }
            }
            if slots.get(idx).is_none_or(|s| s.free_ns > now_ns) {
                continue;
            }
            let chain: Vec<PendingBatch> = match slots.get_mut(idx) {
                Some(slot) => {
                    let take = slot.pending.len().min(config.chain);
                    slot.pending.drain(..take).collect()
                }
                None => continue,
            };
            if let Some(engine) = pool.engines.get(idx) {
                engine.send(EngineCommand::ExecuteChain {
                    seq: next_seq,
                    start_ns: now_ns,
                    chain,
                });
            }
            next_seq += 1;
            if let Some(slot) = slots.get_mut(idx) {
                slot.in_flight = true;
            }
            // Chaos chains are forced eagerly: the degrade → quarantine
            // → re-route decision must happen at the exact virtual
            // instant the serial engine makes it, before any later
            // routing or dispatch can observe different state.
            let degraded = if config.chaos {
                let d = force_chain(
                    &pool.engines,
                    &mut slots,
                    &mut completed,
                    &mut failures,
                    idx,
                );
                if let Some(err) =
                    first_failure(&pool.engines, &mut slots, &mut completed, &mut failures)
                {
                    return Err(err);
                }
                d
            } else {
                false
            };
            // A degraded chain marks the replica wedged. Quarantine it
            // and re-route its queue — unless it is the last replica in
            // service, which keeps limping rather than shedding all
            // remaining traffic.
            let healthy = slots.iter().filter(|s| s.quarantined.is_none()).count();
            if degraded && healthy > 1 {
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
        // In-flight chains don't block termination — their effects are
        // already determined; the post-loop drain collects them.
        if next_arrival >= arrivals.len()
            && queue.is_empty()
            && slots.iter().all(|s| s.pending.is_empty())
        {
            break;
        }

        // Advance the clock to the next event: an arrival, the head
        // request's batching deadline, or a busy replica with queued
        // work going idle. A replica's drain time only matters when it
        // still has queued work, so only those chains are forced — a
        // replica executing with an empty queue keeps running
        // concurrently with the loop.
        for idx in 0..slots.len() {
            if slots
                .get(idx)
                .is_some_and(|s| !s.pending.is_empty() && s.in_flight)
            {
                let degraded = force_chain(
                    &pool.engines,
                    &mut slots,
                    &mut completed,
                    &mut failures,
                    idx,
                );
                debug_assert!(!degraded, "lazily forced chain came back degraded");
                if let Some(err) =
                    first_failure(&pool.engines, &mut slots, &mut completed, &mut failures)
                {
                    return Err(err);
                }
            }
        }
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

    // Drain every outstanding chain — the makespan needs final drain
    // times — then surface any execution error the lazy schedule had
    // not yet observed.
    force_all(&pool.engines, &mut slots, &mut completed, &mut failures);
    if let Some(err) = first_failure(&pool.engines, &mut slots, &mut completed, &mut failures) {
        return Err(err);
    }

    // Finalize every engine. Commands are FIFO per engine and all
    // chains are drained, so the next reply on each channel is the
    // finalize result.
    for engine in &pool.engines {
        engine.send(EngineCommand::Finalize {
            seq: next_seq,
            export,
        });
        next_seq += 1;
    }
    let mut views: Vec<ReplicaView> = Vec::with_capacity(slots.len());
    for (slot, engine) in slots.iter().zip(&pool.engines) {
        match engine.recv() {
            EngineReply::Final { result, .. } => views.push(ReplicaView {
                free_ns: slot.free_ns,
                quarantined: slot.quarantined,
                fin: result?,
            }),
            EngineReply::Chain { .. } => {
                unreachable!("chain reply after every chain was drained")
            }
        }
    }

    // The deterministic merge: apply every chain's accounting effects
    // in dispatch-sequence order — exactly the order the serial engine
    // produced them in, whatever thread computed them.
    completed.sort_by_key(|&(seq, _)| seq);
    for (_, eff) in completed.drain(..) {
        acct.absorb_chain(eff);
    }

    acct.records.sort_by_key(|r| r.id);
    debug_assert_eq!(
        acct.records.len(),
        arrivals.len(),
        "every request accounted for"
    );
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
        tuned,
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

    #[test]
    fn parallel_mode_rejects_bad_configs_like_serial() {
        let mut config = ServeConfig::new(SystemSpec::rtx4090(2));
        config.replicas = 0;
        config.exec = ExecMode::Parallel(4);
        assert!(matches!(
            serve(&config),
            Err(FlashOverlapError::BadInputs { .. })
        ));
    }
}
