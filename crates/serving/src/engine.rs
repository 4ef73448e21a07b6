//! The sealed per-replica execution engine.
//!
//! A [`ReplicaEngine`] owns everything one replica group needs to run a
//! chain of batches — the simulation world (one [`ChainWorld`], reset
//! for every chain by [`flashoverlap::execute_sequence_in`]), the
//! tuned-plan [`PlanCache`], the telemetry monitor wiring and the chain
//! analyses' [`ChainIndex`], and the chain assembly (per-batch fault
//! plans, sequence options, pipelining). The
//! serve loop never touches any of that state directly: it talks to the
//! engine exclusively through typed [`EngineCommand`] /
//! [`EngineReply`] messages carrying deterministic sequence numbers,
//! which makes the thread boundary auditable: commands and replies are
//! plain data, and a worker moves between threads only as a whole,
//! between two of its commands.
//!
//! Determinism argument (the reason `--parallel N` is byte-identical to
//! serial for every `N`): a chain's result is a pure function of the
//! engine's command history — the per-replica command stream is FIFO,
//! replies are matched per replica, and the loop applies every chain's
//! accounting effects in global dispatch-sequence order (see
//! [`ChainEffects`]), so no wall-clock interleaving can reorder
//! anything observable. Virtual time lives in the commands
//! (`start_ns`) and replies (`free_ns`); threads only decide *when*
//! the answer is computed, never *what* it is.

use std::collections::VecDeque;
use std::rc::{Rc, Weak};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;

use flashoverlap::{
    execute_sequence_in, ChainWorld, CommPattern, Fault, FaultPlan, FlashOverlapError,
    Instrumentation, OverlapPlan, SequenceOptions, WatchdogConfig,
};
use sim::SimDuration;
use telemetry::attribution::{Attribution, AttributionTotals, Category};
use telemetry::{ChainIndex, Telemetry, TelemetryRecord};

use crate::batch::Batch;
use crate::cache::{system_fingerprint, CacheStats, PlanCache, PlanEntry, PlanKey};
use crate::report::{BatchRecord, Disposition, RequestRecord};
use crate::server::{fault_seed, ExecMode, ServeConfig};

/// A closed batch sitting in a replica's dispatch queue (and, once
/// dispatched, travelling to the engine inside a chain command).
#[derive(Debug, Clone)]
pub struct PendingBatch {
    /// The closed batch.
    pub batch: Batch,
    /// Routing label stamped onto the batch record.
    pub routing: &'static str,
    /// When the batch closed and was routed — the start of its
    /// dispatch-queue wait.
    pub close_ns: u64,
    /// Inter-node migration charged before execution (computed at
    /// routing time; zero for home-node or single-node placements).
    pub migration_ns: u64,
}

/// A command sent from the serve loop to one replica engine. Sequence
/// numbers are assigned by the loop in global dispatch order and echoed
/// on the reply, pinning the deterministic merge.
#[derive(Debug)]
pub enum EngineCommand {
    /// Execute `chain` as one (pipelined) simulation starting at
    /// `start_ns` virtual time.
    ExecuteChain {
        /// Global dispatch sequence number.
        seq: u64,
        /// Virtual time the chain launches.
        start_ns: u64,
        /// The batches, in dispatch-queue order.
        chain: Vec<PendingBatch>,
    },
    /// Flush the engine: return lifetime stats, the chain log, and, when
    /// `export` is set, the cache snapshot entries. Terminal — sent
    /// exactly once.
    Finalize {
        /// Global sequence number (after every chain's).
        seq: u64,
        /// Whether to export the cache's tuned plans.
        export: bool,
    },
}

/// A reply from a replica engine, matched to its command by `seq`.
#[derive(Debug)]
pub enum EngineReply {
    /// Result of an [`EngineCommand::ExecuteChain`].
    Chain {
        /// Echo of the command's sequence number.
        seq: u64,
        /// The chain's timing and accounting effects, or the execution
        /// error.
        result: Result<ChainResult, FlashOverlapError>,
    },
    /// Result of an [`EngineCommand::Finalize`].
    Final {
        /// Echo of the command's sequence number.
        seq: u64,
        /// The engine's lifetime totals, or the construction error that
        /// prevented the engine from ever serving.
        result: Result<EngineFinal, FlashOverlapError>,
    },
}

/// What one executed chain did: the new replica-idle time plus every
/// accounting side effect, packaged so the loop can apply effects in
/// global dispatch-sequence order regardless of which thread finished
/// first.
#[derive(Debug)]
pub struct ChainResult {
    /// Virtual time the chain drains (the replica's next idle instant).
    pub free_ns: u64,
    /// Whether any batch in the chain came back degraded (the caller's
    /// quarantine signal; only possible under chaos).
    pub degraded: bool,
    /// The chain's accounting effects.
    pub effects: ChainEffects,
}

/// The accounting side effects of one executed chain, replayed into the
/// run's [`Accounting`](crate::server) strictly in dispatch-sequence
/// order — f64 accumulation order and batch-record order are part of
/// the byte-identical report contract.
#[derive(Debug, Default)]
pub struct ChainEffects {
    /// Per-request completion records.
    pub(crate) records: Vec<RequestRecord>,
    /// Per-batch execution records, in chain order.
    pub(crate) batch_records: Vec<BatchRecord>,
    /// Signal-latency weighted sum delta (`mean * samples`).
    pub(crate) signal_weighted_sum: f64,
    /// Signal sample count delta.
    pub(crate) signal_samples: u64,
    /// Batches executed off their home node.
    pub(crate) cross_node_batches: u64,
    /// Inter-node migration charged to those batches.
    pub(crate) migration_ns: u64,
    /// Inter-node bytes the hierarchical schedule moved.
    pub(crate) inter_bytes_hierarchical: u64,
    /// Inter-node bytes the flat ring would have moved.
    pub(crate) inter_bytes_flat: u64,
    /// Predictor-drift sample from the chain-leading batch:
    /// `(dims, predicted, measured)` group completions.
    #[allow(clippy::type_complexity)]
    pub(crate) drift: Option<(
        gpu_sim::gemm::GemmDims,
        Vec<sim::SimDuration>,
        Vec<sim::SimDuration>,
    )>,
}

/// The engine's lifetime totals, returned by
/// [`EngineCommand::Finalize`]: everything the report builder needs
/// from inside the sealed boundary.
#[derive(Debug)]
pub struct EngineFinal {
    /// Batches executed.
    pub(crate) batches: u64,
    /// Requests completed.
    pub(crate) requests: u64,
    /// Tokens processed (pre-padding).
    pub(crate) tokens: u64,
    /// Chains executed.
    pub(crate) chains: u64,
    /// Virtual busy time (migration + execution).
    pub(crate) busy_ns: u64,
    /// Executed chains as `(start_ns, total_ns, attribution)`.
    pub(crate) chain_log: Vec<(u64, u64, AttributionTotals)>,
    /// Plan-cache hit/miss/eviction counters.
    pub(crate) cache_stats: CacheStats,
    /// Exported tuned-plan entries (the `--plan-cache-out` payload);
    /// empty unless the finalize asked for them.
    pub(crate) entries: Vec<PlanEntry>,
    /// Chains replayed from the engine's chain memo instead of simulated.
    pub(crate) memo_hits: u64,
}

/// The worker behind one [`ReplicaEngine`]: owns the plan cache and the
/// simulation world its chains run in. Its `Rc`-based plan cache (and
/// the world's op and event types) make it `!Send`; the pool moves
/// it between threads only inside a [`MovableWorker`].
struct EngineWorker {
    config: ServeConfig,
    replica_idx: usize,
    tp: u32,
    /// [`system_fingerprint`] of `config.system`, computed once: the
    /// worker's system never changes, so every plan-cache key shares it.
    system_fp: u64,
    cache: PlanCache,
    memo: ChainMemo,
    batches: u64,
    requests: u64,
    tokens: u64,
    chains: u64,
    busy_ns: u64,
    chain_log: Vec<(u64, u64, AttributionTotals)>,
    /// Recycled telemetry buffers: each chain's recorder takes this
    /// record's capacity and hands it back after harvest, so the
    /// per-event vectors stop re-growing from zero on every chain.
    scratch: TelemetryRecord,
    /// The chain analyses' index, rebuilt for each simulated chain into
    /// the buffers the last one grew.
    index: ChainIndex,
    /// The simulation world every chain of this replica runs in: built
    /// once, reset per chain, holding only allocations between chains.
    world: ChainWorld,
}

/// The virtual-time result of simulating one chain: everything the
/// accounting reads after the simulation. It depends on nothing but the
/// chain's plans (see [`ChainMemo`]).
struct ChainRun {
    /// Per-segment completion, ns after launch.
    completions: Vec<u64>,
    /// Per-segment outcome labels.
    outcomes: Vec<&'static str>,
    /// Launch to the last segment's completion.
    total_ns: u64,
    /// Signal-latency delta, `(mean_total_ns * samples, samples)`, as the
    /// f64 the accounting adds.
    signal: (f64, u64),
    /// Critical-path attribution of the whole chain; per-batch shares are
    /// clipped out of it.
    attribution: Attribution,
    /// The leading segment's measured group completions (drift sample).
    leader_group_done: Option<Vec<SimDuration>>,
}

/// A replica's memo of simulated chains, keyed by the identity of the
/// chain's cached plans.
///
/// Sound because every chain starts from the same state: the world is
/// reset to exactly what [`SystemSpec::build_cluster`] gives, with the
/// same device RNG forks, and the worker's system, pipelining and
/// instrumentation never change. So a non-chaos chain's [`ChainRun`] is
/// a pure function of its plans, and a repeated plan sequence replays
/// its stored run instead of simulating again. Chaos chains draw fault
/// plans per batch id and always execute; errors are never stored.
///
/// Keys hold [`Weak`] plans: the memo never keeps an evicted plan alive,
/// and a live `Weak` pins its allocation, so a pointer match is the same
/// plan — never a re-tuned replacement under the same [`PlanKey`].
/// Entries whose plans died are dropped. Bounded by the plan-cache
/// capacity, least recently used out first (unique ticks).
///
/// [`SystemSpec::build_cluster`]: flashoverlap::SystemSpec::build_cluster
/// [`PlanKey`]: crate::cache::PlanKey
struct ChainMemo {
    entries: Vec<MemoEntry>,
    /// Most entries held; 0 turns the memo off.
    capacity: usize,
    tick: u64,
    /// Chains replayed from an entry.
    hits: u64,
}

struct MemoEntry {
    plans: Vec<Weak<OverlapPlan>>,
    run: ChainRun,
    last_used: u64,
}

impl ChainMemo {
    fn new(capacity: usize) -> Self {
        ChainMemo {
            entries: Vec::new(),
            capacity,
            tick: 0,
            hits: 0,
        }
    }

    /// The stored run for `plans`, or `simulate`'s fresh run, stored
    /// first. An error is returned and not stored.
    fn run_or_simulate(
        &mut self,
        plans: &[(Rc<OverlapPlan>, bool)],
        simulate: impl FnOnce() -> Result<ChainRun, FlashOverlapError>,
    ) -> Result<&ChainRun, FlashOverlapError> {
        self.tick += 1;
        self.entries
            .retain(|e| e.plans.iter().all(|w| w.strong_count() > 0));
        let found = self.entries.iter().position(|e| {
            e.plans.len() == plans.len()
                && e.plans
                    .iter()
                    .zip(plans)
                    .all(|(w, (p, _))| w.upgrade().is_some_and(|w| Rc::ptr_eq(&w, p)))
        });
        let idx = match found {
            Some(idx) => {
                self.hits += 1;
                self.entries[idx].last_used = self.tick;
                idx
            }
            None => {
                let entry = MemoEntry {
                    plans: plans.iter().map(|(p, _)| Rc::downgrade(p)).collect(),
                    run: simulate()?,
                    last_used: self.tick,
                };
                if self.entries.len() >= self.capacity {
                    let lru = self.entries.iter().enumerate();
                    if let Some((lru, _)) = lru.min_by_key(|(_, e)| e.last_used) {
                        self.entries.swap_remove(lru);
                    }
                }
                self.entries.push(entry);
                self.entries.len() - 1
            }
        };
        Ok(&self.entries[idx].run)
    }
}

impl EngineWorker {
    fn new(
        config: ServeConfig,
        tuned: bool,
        replica_idx: usize,
        memo: bool,
    ) -> Result<Self, FlashOverlapError> {
        let mut cache = if tuned {
            PlanCache::new(config.cache_capacity)
        } else {
            PlanCache::new_untuned(config.cache_capacity)
        };
        if let Some(snapshot) = &config.preload {
            // Fingerprint compatibility was validated up front.
            cache.preload(&config.system, &snapshot.entries)?;
        }
        let tp = config.system.n_gpus as u32;
        let memo_capacity = if memo {
            config.cache_capacity.max(1)
        } else {
            0
        };
        Ok(EngineWorker {
            replica_idx,
            tp,
            system_fp: system_fingerprint(&config.system),
            cache,
            memo: ChainMemo::new(memo_capacity),
            config,
            batches: 0,
            requests: 0,
            tokens: 0,
            chains: 0,
            busy_ns: 0,
            chain_log: Vec::new(),
            scratch: TelemetryRecord::default(),
            index: ChainIndex::new(),
            world: ChainWorld::new(),
        })
    }

    fn handle(&mut self, cmd: EngineCommand) -> EngineReply {
        match cmd {
            EngineCommand::ExecuteChain {
                seq,
                start_ns,
                chain,
            } => EngineReply::Chain {
                seq,
                result: self.execute_chain(start_ns, chain),
            },
            EngineCommand::Finalize { seq, export } => EngineReply::Final {
                seq,
                result: Ok(self.finalize(export)),
            },
        }
    }

    /// Executes one chain of batches starting at `start_ns`: resolves its
    /// plans, takes its [`ChainRun`] from the memo or simulates it, and
    /// accounts it. The virtual-time math is identical to the pre-engine
    /// serve loop's inline `run_chain` — byte-compatibility of the report
    /// depends on it.
    fn execute_chain(
        &mut self,
        start_ns: u64,
        chain: Vec<PendingBatch>,
    ) -> Result<ChainResult, FlashOverlapError> {
        // Split the borrow: the cache and memo are mutated while the
        // config is read, and the lifetime counters bump batch by batch.
        let EngineWorker {
            config,
            replica_idx,
            tp,
            system_fp,
            cache,
            memo,
            batches,
            requests,
            tokens,
            chains,
            busy_ns,
            chain_log,
            scratch,
            index,
            world,
        } = self;
        let config: &ServeConfig = config;
        let replica_idx = *replica_idx;
        let tp = *tp;

        let pattern = CommPattern::AllReduce;
        let mut plans: Vec<(Rc<OverlapPlan>, bool)> = Vec::with_capacity(chain.len());
        for p in &chain {
            let key = PlanKey {
                dims: p.batch.gemm_dims(tp),
                primitive: pattern.primitive(),
                system_fp: *system_fp,
            };
            plans.push(cache.get_or_tune_keyed(key, &pattern, &config.system)?);
        }
        let mut simulate =
            || simulate_chain(config, replica_idx, &chain, &plans, scratch, index, world);
        let fresh;
        let run = if config.chaos || memo.capacity == 0 {
            fresh = simulate()?;
            &fresh
        } else {
            memo.run_or_simulate(&plans, simulate)?
        };

        let mut effects = ChainEffects {
            signal_weighted_sum: run.signal.0,
            signal_samples: run.signal.1,
            ..ChainEffects::default()
        };
        // Predictor drift: sample only the chain-leading batch — later
        // pipelined batches' measured completions include comm-stream
        // queueing behind the previous batch's tail and would bias the
        // comparison.
        if let ([leader, ..], [(plan, _), ..], Some(measured)) =
            (chain.as_slice(), plans.as_slice(), &run.leader_group_done)
        {
            if let Some(predicted) = plan.predicted_group_completions() {
                effects.drift = Some((
                    leader.batch.gemm_dims(tp),
                    predicted.to_vec(),
                    measured.clone(),
                ));
            }
        }

        let chain_len = chain.len() as u64;
        // Total inter-node migration for the chain, charged up front: the
        // chain cannot launch until every member batch's activations have
        // crossed the inter-node fabric. Zero on single-node runs, so the
        // pre-topology timeline is reproduced exactly.
        let mig_ns: u64 = chain.iter().map(|p| p.migration_ns).sum();
        let mut prev_done = 0u64;
        for ((pending, (_, cache_hit)), (done_ns, &outcome)) in chain
            .iter()
            .zip(&plans)
            .zip(run.completions.iter().zip(&run.outcomes))
        {
            let batch = &pending.batch;
            let end_ns = start_ns.saturating_add(mig_ns).saturating_add(*done_ns);
            // Recovery can complete a wedged batch *after* its successor
            // (the tail re-issue runs while downstream comm drains), so the
            // accounting window is clamped monotone; request latencies keep
            // the true completion time.
            let window_end = (*done_ns).max(prev_done);
            let disposition = Disposition::from_outcome_label(outcome);
            let queue_wait = start_ns.saturating_sub(pending.close_ns);
            for r in &batch.requests {
                effects.records.push(RequestRecord {
                    id: r.id,
                    model: r.model.name,
                    tokens: r.tokens,
                    arrival_ns: r.arrival_ns,
                    disposition,
                    batch: Some(batch.id),
                    latency_ns: Some(end_ns - r.arrival_ns),
                    form_wait_ns: Some(pending.close_ns.saturating_sub(r.arrival_ns)),
                    queue_wait_ns: Some(queue_wait),
                });
            }
            if pending.migration_ns > 0 {
                effects.cross_node_batches += 1;
                effects.migration_ns += pending.migration_ns;
            }
            if config.nodes > 1 {
                // Byte accounting for the batch's tensor-parallel AllReduce
                // (full reduced M x N output): what the hierarchical schedule
                // actually crossed nodes with vs. what the flat ring would
                // have.
                let dims = batch.gemm_dims(tp);
                let payload = u64::from(dims.m) * u64::from(dims.n) * collectives::BYTES_PER_ELEM;
                let topo = &config.system.topology;
                effects.inter_bytes_hierarchical += collectives::inter_bytes_hierarchical(
                    collectives::Primitive::AllReduce,
                    payload,
                    topo,
                );
                effects.inter_bytes_flat +=
                    collectives::inter_bytes_flat(collectives::Primitive::AllReduce, payload, topo);
            }
            effects.batch_records.push(BatchRecord {
                id: batch.id,
                model: batch.model.name,
                requests: batch.requests.len() as u64,
                tokens: batch.tokens,
                padded_tokens: batch.padded_tokens,
                start_ns: start_ns.saturating_add(mig_ns).saturating_add(prev_done),
                exec_ns: window_end - prev_done,
                cache_hit: *cache_hit,
                outcome,
                replica: replica_idx,
                node: replica_idx % config.nodes,
                migration_ns: pending.migration_ns,
                routing: pending.routing,
                chain_len,
                close_ns: pending.close_ns,
                queue_wait_ns: queue_wait,
                attribution: Some(run.attribution.clip_window(prev_done, window_end)),
            });
            *batches += 1;
            *requests += batch.requests.len() as u64;
            *tokens += u64::from(batch.tokens);
            prev_done = window_end;
        }
        *busy_ns += mig_ns + run.total_ns;
        *chains += 1;
        // The chain window spans migration + execution; migration is
        // inter-node traffic, so it lands in the collective-transfer
        // category and the serve-level attribution identity still holds.
        let mut chain_totals = run.attribution.totals;
        chain_totals.add(Category::CollectiveTransfer, mig_ns);
        chain_log.push((start_ns, mig_ns.saturating_add(run.total_ns), chain_totals));
        Ok(ChainResult {
            free_ns: start_ns.saturating_add(mig_ns).saturating_add(run.total_ns),
            degraded: run.outcomes.contains(&"degraded"),
            effects,
        })
    }

    fn finalize(&mut self, export: bool) -> EngineFinal {
        EngineFinal {
            batches: self.batches,
            requests: self.requests,
            tokens: self.tokens,
            chains: self.chains,
            busy_ns: self.busy_ns,
            chain_log: std::mem::take(&mut self.chain_log),
            cache_stats: self.cache.stats(),
            entries: if export {
                self.cache.export_entries(self.system_fp)
            } else {
                Vec::new()
            },
            memo_hits: self.memo.hits,
        }
    }
}

/// Simulates one chain in the replica's world and reduces the outcome
/// to its [`ChainRun`].
fn simulate_chain(
    config: &ServeConfig,
    replica_idx: usize,
    chain: &[PendingBatch],
    plans: &[(Rc<OverlapPlan>, bool)],
    scratch: &mut TelemetryRecord,
    index: &mut ChainIndex,
    world: &mut ChainWorld,
) -> Result<ChainRun, FlashOverlapError> {
    let telemetry = Telemetry::recycling(std::mem::take(scratch));
    // Per-batch deterministic fault plans. The wedge-replica override
    // replaces the leading batch's draw with an unrecoverable
    // dropped-signal wedge (group 0 starves, so no group completes and
    // recovery can only abandon the overlap — deterministically
    // degraded).
    let chaos_faults: Vec<FaultPlan> = if config.chaos {
        chain
            .iter()
            .zip(plans)
            .enumerate()
            .map(|(i, (p, (plan, _)))| {
                if i == 0 && config.wedge_replica == Some(replica_idx) {
                    FaultPlan::single(Fault::DroppedIncrement {
                        rank: 0,
                        group: 0,
                        count: u32::MAX,
                    })
                } else {
                    FaultPlan::random(
                        fault_seed(config.seed, p.batch.id),
                        config.system.n_gpus,
                        plan.partition.num_groups(),
                    )
                }
            })
            .collect()
    } else {
        Vec::new()
    };
    let watchdog = WatchdogConfig::default();
    // Monitor only: the analyses read the record and the spans, nothing
    // the engine probe records (and resilient sequences reject probes).
    // Tail/bulk recovery collectives land in the `recovery` attribution
    // category.
    let instr = Instrumentation {
        monitor: Some(telemetry.monitor()),
        probe: None,
        mutation: None,
    };
    let mut options = SequenceOptions::new().trace().instrument(&instr);
    if config.chaos {
        options = options.resilient(&chaos_faults, &watchdog);
    }
    if !config.pipelined {
        options = options.serial();
    }
    let plan_refs: Vec<&OverlapPlan> = plans.iter().map(|(p, _)| p.as_ref()).collect();
    let outcome = execute_sequence_in(world, &plan_refs, &options)?;
    let completions = outcome
        .reports
        .iter()
        .map(|r| r.latency.as_nanos())
        .collect();
    let outcomes = outcome.outcomes.iter().map(|o| o.label()).collect();
    let total_ns = outcome.total.as_nanos();
    let spans = outcome.spans;
    let leader_group_done = outcome
        .reports
        .into_iter()
        .next()
        .map(|r| r.group_comm_done);
    let record = telemetry.take_record();
    index.rebuild(&record, &spans);
    let signal = index.signal_sum();
    let attribution = index.attribute(total_ns);
    // Done reading the record and the spans — hand their buffers back for
    // the next chain (recycling clears them on reuse).
    *scratch = record;
    world.recycle_spans(spans);
    Ok(ChainRun {
        completions,
        outcomes,
        total_ns,
        signal,
        attribution,
        leader_group_done,
    })
}

/// The loop-facing handle to one sealed replica engine.
///
/// `send` queues a command and never blocks; `recv` returns the
/// engine's next reply. Whichever thread reaches a queued command first
/// runs it: a pool thread that picked it up, or the serve loop itself,
/// which runs a command no pool thread has started rather than wait for
/// one to wake. Either way the observable protocol is identical:
/// per-replica FIFO commands, per-replica replies, sequence numbers
/// pinning the global merge order.
pub struct ReplicaEngine {
    pool: Arc<Shared>,
    engine: usize,
}

impl std::fmt::Debug for ReplicaEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ReplicaEngine(#{})", self.engine)
    }
}

/// State shared by the serve loop and the pool threads.
struct Shared {
    state: Mutex<PoolState>,
    /// Pool threads started; with none, nobody waits on the condvars.
    pool_threads: usize,
    /// Signalled when a command becomes runnable or the pool closes.
    work: Condvar,
    /// Signalled when a pool thread finishes (or panics in) a command.
    done: Condvar,
}

struct PoolState {
    slots: Vec<EngineSlot>,
    /// Engines with queued commands and no thread running one of them,
    /// oldest first.
    runnable: VecDeque<usize>,
    closed: bool,
}

struct EngineSlot {
    /// The worker; `None` while a pool thread runs one of its commands.
    worker: Option<MovableWorker>,
    commands: VecDeque<EngineCommand>,
    replies: VecDeque<EngineReply>,
    /// A pool thread's panic while running this engine, re-raised on the
    /// serve-loop thread by the next `recv`.
    panicked: Option<Box<dyn std::any::Any + Send>>,
}

/// An [`EngineWorker`] moved between the serve loop and the pool
/// threads as a whole.
struct MovableWorker(EngineWorker);

// SAFETY: of `EngineWorker`'s fields, `config` (`ServeConfig`), the
// counters, `chain_log`, `scratch` (`TelemetryRecord`) and `index`
// (`ChainIndex`: plain rows, `&'static str` op names and segments
// between chains) are `Send`;
// `cache` is not, only because it holds `Rc<OverlapPlan>`s, and the plans
// hold `Rc` mappings; `memo` is not, only because it holds `Weak`s to
// those same plans (and their communicators). Every `Rc` and `Weak`
// pointing into those allocations is owned by the worker itself (the
// cache and the memo): `execute_chain` drops the clones it makes before
// it returns, replies carry plain data (see
// `assert_boundary_types_are_send`), workers are built from a cloned
// config and share no plan, and nothing in the simulator keeps
// thread-local or global handles. `world` (`ChainWorld`) is not `Send`
// only for what its cluster and engine hold while a chain runs: queued
// ops and events, the op slabs' in-flight states (GEMM runs with the
// plan's issue order, writer and group runs; element-wise kernels;
// collective calls with their communicator) and the telemetry monitor's
// `Rc`. Between chains it holds none of them — `execute_sequence_in`
// clears it on every exit, and `Cluster::reset` empties every slab,
// communicator scope, stamp and log — only plain allocations. So moving
// a `MovableWorker` moves every handle to its allocations together, and
// the pool's mutex orders the moves, so no two threads ever touch one
// reference count.
unsafe impl Send for MovableWorker {}

impl Shared {
    #[cfg_attr(
        not(test),
        expect(clippy::expect_used, reason = "pool is deleted by ROADMAP item 1")
    )]
    fn lock(&self) -> MutexGuard<'_, PoolState> {
        // The lock is never held while a command runs, so a panic cannot
        // poison it.
        self.state.lock().expect("engine pool lock poisoned")
    }

    /// Wakes a pool thread for a newly runnable engine.
    fn wake_one(&self) {
        if self.pool_threads > 0 {
            self.work.notify_one();
        }
    }
}

impl PoolState {
    /// Takes engine `idx`'s worker and its oldest command if no thread is
    /// running it, and drops it from the runnable list.
    fn take_command(&mut self, idx: usize) -> Option<(MovableWorker, EngineCommand)> {
        let slot = self.slots.get_mut(idx)?;
        if slot.commands.is_empty() {
            return None;
        }
        let worker = slot.worker.take()?;
        let cmd = slot.commands.pop_front()?;
        self.runnable.retain(|&i| i != idx);
        Some((worker, cmd))
    }

    /// Returns engine `idx`'s worker with the reply to the command it
    /// took, and makes the engine runnable again if more commands wait.
    /// Returns whether it did.
    fn put_back(&mut self, idx: usize, worker: MovableWorker, reply: EngineReply) -> bool {
        let Some(slot) = self.slots.get_mut(idx) else {
            return false;
        };
        slot.worker = Some(worker);
        slot.replies.push_back(reply);
        let more = !slot.commands.is_empty();
        if more {
            self.runnable.push_back(idx);
        }
        more
    }
}

impl ReplicaEngine {
    /// Submits a command to the engine. Never blocks.
    pub fn send(&self, cmd: EngineCommand) {
        let mut state = self.pool.lock();
        let Some(slot) = state.slots.get_mut(self.engine) else {
            return;
        };
        slot.commands.push_back(cmd);
        if slot.worker.is_some() && slot.commands.len() == 1 {
            state.runnable.push_back(self.engine);
            drop(state);
            self.pool.wake_one();
        }
    }

    /// Receives the next reply, running the engine's oldest command on
    /// this thread when no pool thread has started it, and otherwise
    /// blocking until the thread running it finishes. Replies come back
    /// in command order (per-replica FIFO).
    ///
    /// # Panics
    ///
    /// Re-raises a panic a pool thread hit while running this engine,
    /// and panics when no command is outstanding.
    #[cfg_attr(
        not(test),
        expect(clippy::expect_used, reason = "pool is deleted by ROADMAP item 1")
    )]
    pub fn recv(&self) -> EngineReply {
        let mut state = self.pool.lock();
        loop {
            let Some(slot) = state.slots.get_mut(self.engine) else {
                panic!("engine {} is not in its pool", self.engine);
            };
            if let Some(reply) = slot.replies.pop_front() {
                return reply;
            }
            if let Some(payload) = slot.panicked.take() {
                drop(state);
                std::panic::resume_unwind(payload);
            }
            assert!(
                slot.worker.is_none() || !slot.commands.is_empty(),
                "replica engine recv without a pending command"
            );
            if let Some((mut worker, cmd)) = state.take_command(self.engine) {
                drop(state);
                let reply = worker.0.handle(cmd);
                state = self.pool.lock();
                if state.put_back(self.engine, worker, reply) {
                    self.pool.wake_one();
                }
            } else {
                state = self
                    .pool
                    .done
                    .wait(state)
                    .expect("engine pool lock poisoned");
            }
        }
    }
}

/// All replica engines of one serve run, plus the pool threads that run
/// their commands in parallel mode. Dropping the pool closes it and
/// joins the threads.
pub struct EnginePool {
    /// One engine per replica, indexed like the replicas.
    pub engines: Vec<ReplicaEngine>,
    shared: Arc<Shared>,
    threads: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for EnginePool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EnginePool")
            .field("engines", &self.engines.len())
            .field("threads", &self.threads.len())
            .finish()
    }
}

impl EnginePool {
    /// Builds the engines for `config.replicas` replicas.
    ///
    /// Serial mode starts no thread: every command runs on the serve-loop
    /// thread when the loop receives its reply. Parallel mode also starts
    /// `min(threads, replicas) - 1` pool threads, so the loop thread is
    /// one of `min(threads, replicas)`; any of them runs any engine's
    /// next command, one command per engine at a time.
    ///
    /// # Errors
    ///
    /// Returns any worker construction error (e.g. a malformed preload
    /// snapshot).
    pub fn new(config: &ServeConfig, tuned: bool) -> Result<EnginePool, FlashOverlapError> {
        EnginePool::build(config, tuned, true)
    }

    /// [`EnginePool::new`], with each engine's chain memo on or off. The
    /// memo never changes a result, so only the memo's own tests turn it
    /// off.
    pub(crate) fn build(
        config: &ServeConfig,
        tuned: bool,
        memo: bool,
    ) -> Result<EnginePool, FlashOverlapError> {
        let slots = (0..config.replicas)
            .map(|idx| {
                Ok(EngineSlot {
                    worker: Some(MovableWorker(EngineWorker::new(
                        config.clone(),
                        tuned,
                        idx,
                        memo,
                    )?)),
                    commands: VecDeque::new(),
                    replies: VecDeque::new(),
                    panicked: None,
                })
            })
            .collect::<Result<Vec<_>, FlashOverlapError>>()?;
        let pool_threads = match config.exec {
            ExecMode::Serial => 0,
            ExecMode::Parallel(threads) => threads.clamp(1, config.replicas.max(1)) - 1,
        };
        let shared = Arc::new(Shared {
            state: Mutex::new(PoolState {
                slots,
                runnable: VecDeque::new(),
                closed: false,
            }),
            pool_threads,
            work: Condvar::new(),
            done: Condvar::new(),
        });
        let threads = (0..pool_threads)
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || pool_thread(&shared))
            })
            .collect();
        let engines = (0..config.replicas)
            .map(|engine| ReplicaEngine {
                pool: Arc::clone(&shared),
                engine,
            })
            .collect();
        Ok(EnginePool {
            engines,
            shared,
            threads,
        })
    }
}

impl Drop for EnginePool {
    fn drop(&mut self) {
        self.shared.lock().closed = true;
        self.shared.work.notify_all();
        for handle in self.threads.drain(..) {
            let _ = handle.join();
        }
    }
}

/// Pool-thread main: run the oldest runnable engine's next command
/// until the pool closes.
#[cfg_attr(
    not(test),
    expect(clippy::expect_used, reason = "pool is deleted by ROADMAP item 1")
)]
fn pool_thread(shared: &Shared) {
    let mut state = shared.lock();
    loop {
        if state.closed {
            return;
        }
        let taken = state
            .runnable
            .front()
            .copied()
            .and_then(|idx| Some((idx, state.take_command(idx)?)));
        let Some((idx, (mut worker, cmd))) = taken else {
            state = shared.work.wait(state).expect("engine pool lock poisoned");
            continue;
        };
        drop(state);
        let result =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| worker.0.handle(cmd)));
        state = shared.lock();
        match result {
            // An engine runnable again is this thread's to pick up on its
            // next turn.
            Ok(reply) => {
                state.put_back(idx, worker, reply);
            }
            Err(payload) => {
                if let Some(slot) = state.slots.get_mut(idx) {
                    slot.panicked = Some(payload);
                }
            }
        }
        shared.done.notify_all();
    }
}

// Everything that crosses the thread boundary must be Send; the worker
// itself (Rc-based plan cache) is not, and crosses only as a
// `MovableWorker`.
#[allow(dead_code)]
fn assert_boundary_types_are_send() {
    fn is_send<T: Send>() {}
    is_send::<ServeConfig>();
    is_send::<EngineCommand>();
    is_send::<EngineReply>();
    is_send::<ChainEffects>();
    is_send::<EngineFinal>();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::Batch;
    use crate::cache::CacheSnapshot;
    use crate::router::RouterPolicy;
    use crate::server::serve_run;
    use crate::traffic::ArrivalProcess;
    use flashoverlap::SystemSpec;

    /// Serves `config` with and without the chain memo, asserts the
    /// rendered reports and plan snapshots are byte-equal, and returns
    /// the memo's hits.
    fn memo_hits_without_changing_the_report(config: &ServeConfig, tuned: bool) -> u64 {
        let with = serve_run(config, tuned, true, false).expect("serves with the memo");
        let without = serve_run(config, tuned, false, false).expect("serves without the memo");
        assert_eq!(without.memo_hits, 0, "the memo was off");
        assert_eq!(
            with.report.to_json().to_json_pretty(),
            without.report.to_json().to_json_pretty(),
            "the chain memo changed the report"
        );
        assert_eq!(with.snapshot, without.snapshot);
        with.memo_hits
    }

    /// Four replicas behind shape affinity, loaded enough that chains
    /// form and shapes repeat per replica.
    fn affinity_config() -> ServeConfig {
        let mut config = ServeConfig::new(SystemSpec::rtx4090(2));
        config.process = ArrivalProcess::Poisson { rate_rps: 2400.0 };
        config.requests = 160;
        config.replicas = 4;
        config.router = RouterPolicy::ShapeAffinity;
        config.seed = 7;
        config
    }

    #[test]
    fn chain_memo_replays_repeated_chains_byte_identically() {
        let affinity = affinity_config();
        assert!(
            memo_hits_without_changing_the_report(&affinity, true) > 0,
            "repeated affinity chains must hit the memo"
        );
        let parallel = ServeConfig {
            exec: ExecMode::Parallel(2),
            ..affinity.clone()
        };
        memo_hits_without_changing_the_report(&parallel, true);
        let serial_rr = ServeConfig {
            router: RouterPolicy::RoundRobin,
            pipelined: false,
            replicas: 2,
            seed: 5,
            ..affinity.clone()
        };
        memo_hits_without_changing_the_report(&serial_rr, true);
        let mut two_node = ServeConfig::new(SystemSpec::rtx4090(2).with_nodes(2));
        two_node.process = ArrivalProcess::Poisson { rate_rps: 2400.0 };
        two_node.requests = 160;
        two_node.replicas = 4;
        two_node.nodes = 2;
        two_node.router = RouterPolicy::Locality;
        two_node.seed = 11;
        memo_hits_without_changing_the_report(&two_node, true);
        // The untuned baseline cache.
        memo_hits_without_changing_the_report(&ServeConfig::new(SystemSpec::rtx4090(2)), false);
    }

    #[test]
    fn chaos_chains_bypass_the_chain_memo() {
        let mut config = affinity_config();
        config.chaos = true;
        config.wedge_replica = Some(2);
        config.process = ArrivalProcess::Poisson { rate_rps: 12_000.0 };
        config.requests = 120;
        assert_eq!(memo_hits_without_changing_the_report(&config, true), 0);
    }

    /// A preloaded plan and its re-tuned replacement share a `PlanKey`
    /// but not a partition; at capacity 2 the preload is evicted and
    /// re-tuned, and a chain under the new plan must not replay the old
    /// plan's run.
    #[test]
    fn chain_memo_tells_a_retuned_plan_from_its_evicted_preload() {
        let mut config = ServeConfig::new(SystemSpec::rtx4090(2));
        config.requests = 200;
        config.seed = 3;
        let tuned = serve_run(&config, true, true, true)
            .expect("serves")
            .snapshot;
        let entries: Vec<PlanEntry> = tuned
            .entries
            .into_iter()
            .filter_map(|mut e| {
                // Any other partition of the same waves.
                e.groups = match e.groups.as_slice() {
                    [a, b, rest @ ..] => [&[a + b], rest].concat(),
                    [n] if *n > 1 => vec![1, n - 1],
                    _ => return None,
                };
                e.thresholds = None;
                Some(e)
            })
            .collect();
        assert!(!entries.is_empty());
        for capacity in [1, 2] {
            let mut trap = config.clone();
            trap.cache_capacity = capacity;
            trap.preload = Some(CacheSnapshot {
                system_fp: system_fingerprint(&trap.system),
                entries: entries.clone(),
            });
            let run = serve_run(&trap, true, true, false).expect("serves");
            let stats = run.report.cache;
            assert!(stats.preloaded > 0 && stats.evictions > 0, "{stats:?}");
            memo_hits_without_changing_the_report(&trap, true);
        }
    }

    #[test]
    fn chain_memo_keeps_no_evicted_plan_alive() {
        let mut config = ServeConfig::new(SystemSpec::rtx4090(2));
        config.cache_capacity = 1;
        let mut worker = EngineWorker::new(config, true, 0, true).expect("worker builds");
        let mut held: Vec<Weak<OverlapPlan>> = Vec::new();
        for (id, tokens) in [512u32, 1024, 512, 1024, 512].into_iter().enumerate() {
            let pending = PendingBatch {
                batch: Batch {
                    id: id as u64,
                    model: workloads::models::LLAMA3_8B,
                    requests: Vec::new(),
                    tokens,
                    padded_tokens: tokens,
                },
                routing: "test",
                close_ns: 0,
                migration_ns: 0,
            };
            worker.execute_chain(0, vec![pending]).expect("chain runs");
            assert!(worker.memo.entries.len() <= 1, "memo exceeds capacity");
            held.extend(worker.memo.entries.iter().flat_map(|e| e.plans.clone()));
        }
        let (last, evicted) = held.split_last().expect("plans held");
        assert_eq!(last.strong_count(), 1, "only the cache holds the live plan");
        assert!(
            evicted.iter().all(|w| w.upgrade().is_none()),
            "an evicted plan is still alive"
        );
        assert_eq!(worker.cache.stats().evictions, 4);
        assert_eq!(worker.memo.hits, 0, "every re-tuned plan is a new key");
    }

    /// Two queued chains and a finalize per engine come back in command
    /// order whether the loop or a pool thread runs them. (An empty chain
    /// is an execution error, which is all this protocol test needs.)
    #[test]
    fn replies_come_back_in_command_order_on_any_thread() {
        for exec in [ExecMode::Serial, ExecMode::Parallel(3)] {
            let mut config = ServeConfig::new(SystemSpec::rtx4090(2));
            config.replicas = 4;
            config.exec = exec;
            let pool = EnginePool::new(&config, true).expect("engines build");
            for engine in &pool.engines {
                for seq in 0..2 {
                    engine.send(EngineCommand::ExecuteChain {
                        seq,
                        start_ns: 0,
                        chain: Vec::new(),
                    });
                }
                engine.send(EngineCommand::Finalize {
                    seq: 2,
                    export: true,
                });
            }
            for engine in pool.engines.iter().rev() {
                for want in 0..2 {
                    match engine.recv() {
                        EngineReply::Chain { seq, result } => {
                            assert_eq!(seq, want, "{exec:?}");
                            assert!(result.is_err(), "{exec:?}: empty chain must fail");
                        }
                        EngineReply::Final { .. } => panic!("{exec:?}: finalize overtook a chain"),
                    }
                }
                match engine.recv() {
                    EngineReply::Final { seq, result } => {
                        assert_eq!(seq, 2, "{exec:?}");
                        assert_eq!(result.expect("finalize succeeds").chains, 0, "{exec:?}");
                    }
                    EngineReply::Chain { seq, .. } => panic!("{exec:?}: extra chain reply {seq}"),
                }
            }
        }
    }
}
