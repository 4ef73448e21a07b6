//! One serve replica, and the run-wide memo of simulated chains.
//!
//! A [`Replica`] is everything the serve loop knows about one
//! tensor-parallel replica group: its dispatch queue, the virtual time its
//! last chain drains, its report row ([`ReplicaStats`], whose counters are
//! bumped as chains run and whose `quarantined` flag takes it out of
//! service), its chain log, and what its chains run on — the tuned-plan
//! [`PlanCache`], the simulation world (one [`ChainWorld`], reset for
//! every chain by [`flashoverlap::execute_sequence_in`]), the recycled
//! telemetry buffers and the chain analyses' [`ChainIndex`]. The serve
//! loop keeps one `Vec<Replica>` and runs each chain, on the calling
//! thread, when it dispatches it ([`Replica::execute_chain`]), so every
//! chain's accounting lands in dispatch order.
//!
//! Two things outlive a replica's chains and are shared by every replica
//! of a run: a replica's plan-cache miss takes the plan the run's
//! [`PlanStore`] holds for the key, so the run tunes each shape once,
//! whichever replica forms it and however often the replicas' caches
//! evict it; and a chain whose plans any replica has run before replays
//! the run's [`ChainMemo`] instead of simulating again.

use std::collections::hash_map::Entry;
use std::collections::{HashMap, VecDeque};
use std::rc::{Rc, Weak};

use flashoverlap::{
    execute_sequence_in, ChainWorld, CommPattern, Fault, FaultPlan, FlashOverlapError,
    Instrumentation, OverlapPlan, SequenceOptions, WatchdogConfig,
};
use sim::SimDuration;
use telemetry::attribution::{Attribution, AttributionTotals, Category};
use telemetry::{ChainIndex, Telemetry, TelemetryRecord};

use crate::batch::Batch;
use crate::cache::{system_fingerprint, CacheStats, PlanCache, PlanKey, PlanStore};
use crate::report::{BatchRecord, Disposition, ReplicaStats, RequestRecord};
use crate::server::{fault_seed, Accounting, ServeConfig};

/// A closed batch sitting in a replica's dispatch queue.
#[derive(Debug, Clone)]
pub(crate) struct PendingBatch {
    /// The closed batch.
    pub(crate) batch: Batch,
    /// Routing label stamped onto the batch record.
    pub(crate) routing: &'static str,
    /// When the batch closed and was routed — the start of its
    /// dispatch-queue wait.
    pub(crate) close_ns: u64,
    /// Inter-node migration charged before execution (computed at
    /// routing time; zero for home-node or single-node placements).
    pub(crate) migration_ns: u64,
}

/// A replica's dispatch queue: closed batches waiting for the replica to
/// go idle, with their padded-token total kept as batches come and go,
/// so the router reads a replica's load without scanning its backlog.
/// Every change goes through these methods, so the total cannot drift.
#[derive(Debug, Default)]
pub(crate) struct DispatchQueue {
    batches: VecDeque<PendingBatch>,
    /// Sum of `batches`' padded tokens.
    padded_tokens: u64,
}

impl DispatchQueue {
    /// Appends a closed batch.
    pub(crate) fn push_back(&mut self, p: PendingBatch) {
        self.padded_tokens += u64::from(p.batch.padded_tokens);
        self.batches.push_back(p);
    }

    /// Moves the first `n` batches (all, if fewer wait) onto `into`.
    pub(crate) fn drain_front_into(&mut self, n: usize, into: &mut Vec<PendingBatch>) {
        let n = n.min(self.batches.len());
        for p in self.batches.drain(..n) {
            self.padded_tokens -= u64::from(p.batch.padded_tokens);
            into.push(p);
        }
    }

    /// Empties the queue, returning its batches in order.
    pub(crate) fn take_all(&mut self) -> VecDeque<PendingBatch> {
        self.padded_tokens = 0;
        std::mem::take(&mut self.batches)
    }

    /// Padded tokens waiting.
    pub(crate) fn queued_tokens(&self) -> u64 {
        self.padded_tokens
    }

    /// Batches waiting.
    pub(crate) fn len(&self) -> usize {
        self.batches.len()
    }

    /// Whether no batch waits.
    pub(crate) fn is_empty(&self) -> bool {
        self.batches.is_empty()
    }
}

/// One replica group of a serve run. The run's [`PlanStore`] and
/// [`ChainMemo`] are shared by every replica, so they are not held here:
/// [`Replica::execute_chain`] borrows them for each chain.
pub(crate) struct Replica {
    /// Closed batches routed here, waiting for the replica to go idle.
    pub(crate) pending: DispatchQueue,
    /// Virtual time the replica's last chain drains (<= now means idle).
    pub(crate) free_ns: u64,
    /// The replica's report row. Each chain bumps its `batches`,
    /// `requests`, `tokens`, `busy_ns` and `chains`. `quarantined` is set
    /// when the replica is pulled from service (a chaos chain came back
    /// degraded, or the serve loop blamed it for a stall): it then
    /// receives no new batches and never dispatches again. `utilization`
    /// and `cache` stay unset here: the report fills them in on its copy
    /// of the row at the end of the run.
    pub(crate) stats: ReplicaStats,
    /// Executed chains as `(start_ns, total_ns, attribution)`, in start
    /// order: a chain dispatches only once the previous one has drained.
    pub(crate) chain_log: Vec<(u64, u64, AttributionTotals)>,
    /// [`system_fingerprint`] of the run's system, computed once: it
    /// never changes, so every plan-cache key shares it.
    pub(crate) system_fp: u64,
    /// The replica's tuned plans.
    pub(crate) cache: PlanCache,
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
    /// Per-segment dispositions.
    outcomes: Vec<Disposition>,
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

/// A serve run's memo of simulated chains, keyed by the identity of the
/// chain's plans, shared by every replica of the run.
///
/// Sound because every chain starts from the same state: each replica
/// builds its world from the run's one system and resets it to exactly
/// what [`SystemSpec::build_cluster`] gives, with the same device RNG
/// forks, for every chain, and the run's pipelining and instrumentation
/// never change. So a non-chaos chain's [`ChainRun`] is a pure function
/// of its plans, whichever replica runs it, and a repeated plan sequence
/// replays its stored run instead of simulating again. The replica's id
/// is read only by chaos chains, which draw fault plans per batch id and
/// always execute; errors are never stored.
///
/// The key is the chain's plan addresses ([`ChainKey`]); the entry keeps
/// the plans as [`Weak`]s. The memo never keeps a plan alive itself, and
/// a live `Weak` pins its allocation, so while an entry exists no other
/// plan can take its plans' addresses: an address match is the same
/// plan — never a re-tuned replacement under the same [`PlanKey`]. A
/// plan from the run's [`PlanStore`] (or a shared preload) has one
/// identity in every replica and across evictions, so a chain one
/// replica simulated replays on another. An entry whose plans died can
/// never match again and ages out.
///
/// Bounded by a fixed entry count, least recently used out first
/// (unique ticks). A hit is a hash lookup (two on a full memo) and never
/// scans the entries; only a miss on a full memo scans them for the
/// oldest, next to the simulation it pays.
///
/// [`SystemSpec::build_cluster`]: flashoverlap::SystemSpec::build_cluster
pub(crate) struct ChainMemo {
    entries: HashMap<ChainKey, MemoEntry>,
    /// Most entries held; 0 turns the memo off.
    capacity: usize,
    tick: u64,
    /// Chains replayed from an entry.
    hits: u64,
}

/// The addresses of a chain's plans in chain order, unused slots 0.
type ChainKey = [usize; ServeConfig::CHAIN];

struct MemoEntry {
    /// The key's plans, each pinning its address while the entry lives.
    #[cfg_attr(
        not(test),
        expect(dead_code, reason = "held to pin the addresses; only tests read it")
    )]
    plans: [Weak<OverlapPlan>; ServeConfig::CHAIN],
    run: ChainRun,
    last_used: u64,
}

impl ChainMemo {
    /// The serve memo's bound. Distinct chains per serve call, counted
    /// from the reports of perfbench's first six calls at seeds 3 and
    /// 17: steady 87–210 of 3000 requests, churn 348–376 of 1500 (444 of
    /// 4000 at seed 3), overload 147–167 of 750, nearly every chain. An
    /// entry is a 265 B hash slot plus its run's segments, about 0.6 KiB
    /// for churn's chains and 1.2 KiB for overload's 4-batch ones, so a
    /// full memo stays under 2 MiB. An entry whose plans died also pins
    /// their 1.5 KiB `Rc` allocations until it ages out; with the store
    /// on, only evicted preloads die during a run.
    pub(crate) const CAPACITY: usize = 1024;

    /// An empty memo of at most `capacity` entries (0: off).
    pub(crate) fn new(capacity: usize) -> Self {
        ChainMemo {
            entries: HashMap::new(),
            capacity,
            tick: 0,
            hits: 0,
        }
    }

    /// Chains replayed from an entry instead of simulated.
    pub(crate) fn hits(&self) -> u64 {
        self.hits
    }

    /// The key of a chain of `plans`: their addresses in chain order.
    /// `None` when the memo is off or the chain is longer than
    /// [`ServeConfig::CHAIN`]; such a chain always simulates.
    fn key(&self, plans: &[(Rc<OverlapPlan>, bool)]) -> Option<ChainKey> {
        let mut key = [0; ServeConfig::CHAIN];
        if self.capacity == 0 || plans.len() > key.len() {
            return None;
        }
        for (slot, (plan, _)) in key.iter_mut().zip(plans) {
            *slot = Rc::as_ptr(plan) as usize;
        }
        Some(key)
    }

    /// The stored run for `key`, the key of `plans`, or `simulate`'s
    /// fresh run, stored first. An error is returned and not stored.
    fn run_or_simulate(
        &mut self,
        key: ChainKey,
        plans: &[(Rc<OverlapPlan>, bool)],
        simulate: impl FnOnce() -> Result<ChainRun, FlashOverlapError>,
    ) -> Result<&ChainRun, FlashOverlapError> {
        self.tick += 1;
        if self.entries.len() >= self.capacity && !self.entries.contains_key(&key) {
            let lru = self.entries.iter().min_by_key(|(_, e)| e.last_used);
            if let Some(lru) = lru.map(|(k, _)| *k) {
                self.entries.remove(&lru);
            }
        }
        let entry = match self.entries.entry(key) {
            Entry::Occupied(entry) => {
                self.hits += 1;
                entry.into_mut()
            }
            Entry::Vacant(slot) => slot.insert(MemoEntry {
                plans: std::array::from_fn(|i| {
                    plans
                        .get(i)
                        .map_or_else(Weak::new, |(p, _)| Rc::downgrade(p))
                }),
                run: simulate()?,
                last_used: self.tick,
            }),
        };
        entry.last_used = self.tick;
        #[cfg(test)]
        let entry = {
            self.check_pins();
            self.entries.get(&key).expect("the entry was just used")
        };
        Ok(&entry.run)
    }

    /// Checks that every entry pins the addresses its key names: slot
    /// `i` of its plans points at the key's address `i`, the key's used
    /// slots come first, and its unused slots are 0 with no plan.
    #[cfg(test)]
    fn check_pins(&self) {
        for (key, entry) in &self.entries {
            let used = key.iter().take_while(|&&a| a != 0).count();
            for (i, (&address, plan)) in key.iter().zip(&entry.plans).enumerate() {
                if i < used {
                    assert_eq!(
                        plan.as_ptr() as usize,
                        address,
                        "memo entry slot {i} does not pin its key's plan"
                    );
                } else {
                    assert_eq!(address, 0, "memo key slot {i} is used after an unused one");
                    assert!(
                        Weak::ptr_eq(plan, &Weak::new()),
                        "memo entry slot {i} holds a plan its key does not name"
                    );
                }
            }
        }
    }
}

/// Builds the replicas of `config`. A `--plan-cache-in` snapshot is
/// built and verified once, into the first cache; every replica starts
/// from a copy of that cache, sharing its plans and counting the same
/// preloads.
///
/// # Errors
///
/// Returns the preload's error (e.g. a malformed snapshot entry).
pub(crate) fn build_replicas(
    config: &ServeConfig,
    tuned: bool,
) -> Result<Vec<Replica>, FlashOverlapError> {
    let mut cache = if tuned {
        PlanCache::new(config.cache_capacity)
    } else {
        PlanCache::new_untuned(config.cache_capacity)
    };
    if let Some(snapshot) = &config.preload {
        // Fingerprint compatibility was validated up front.
        cache.preload(&config.system, &snapshot.entries)?;
    }
    let system_fp = system_fingerprint(&config.system);
    Ok((0..config.replicas)
        .map(|id| Replica {
            pending: DispatchQueue::default(),
            free_ns: 0,
            stats: ReplicaStats {
                id,
                node: id % config.nodes,
                batches: 0,
                requests: 0,
                tokens: 0,
                busy_ns: 0,
                chains: 0,
                utilization: 0.0,
                quarantined: false,
                cache: CacheStats::default(),
            },
            chain_log: Vec::new(),
            system_fp,
            cache: cache.clone(),
            scratch: TelemetryRecord::default(),
            index: ChainIndex::new(),
            world: ChainWorld::new(),
        })
        .collect())
}

impl Replica {
    /// Runs `chain` from `start_ns`, accounts it into `acct` and sets
    /// `free_ns` to when it drains: resolves the chain's plans (a miss
    /// takes `store`'s plan, tuning into it only when it has none), takes
    /// its [`ChainRun`] from `memo` or simulates it, and accounts it.
    /// Returns whether any batch in the chain came back degraded (the
    /// caller's quarantine signal; only possible under chaos).
    ///
    /// The store never changes the report: tuning is a pure function of
    /// the key, so a stored plan equals the one the miss would have
    /// tuned, and the miss is counted exactly as before (see
    /// [`PlanCache`]).
    pub(crate) fn execute_chain(
        &mut self,
        config: &ServeConfig,
        store: &mut PlanStore,
        memo: &mut ChainMemo,
        start_ns: u64,
        chain: &[PendingBatch],
        acct: &mut Accounting,
    ) -> Result<bool, FlashOverlapError> {
        // Split the borrow: the cache is mutated while the world is lent
        // to the simulation, and the report row bumps batch by batch.
        let Replica {
            pending: _,
            free_ns,
            stats,
            chain_log,
            system_fp,
            cache,
            scratch,
            index,
            world,
        } = self;
        let replica_idx = stats.id;
        let tp = config.system.n_gpus as u32;

        let pattern = CommPattern::AllReduce;
        let mut plans: Vec<(Rc<OverlapPlan>, bool)> = Vec::with_capacity(chain.len());
        for p in chain {
            let key = PlanKey {
                dims: p.batch.gemm_dims(tp),
                primitive: pattern.primitive(),
                system_fp: *system_fp,
            };
            plans.push(cache.get_or_fetch(key, &pattern, &config.system, store)?);
        }
        let mut simulate =
            || simulate_chain(config, replica_idx, chain, &plans, scratch, index, world);
        let fresh;
        // Chaos chains draw their faults per batch id: never memoized.
        let key = if config.chaos { None } else { memo.key(&plans) };
        let run = match key {
            Some(key) => memo.run_or_simulate(key, &plans, simulate)?,
            None => {
                fresh = simulate()?;
                &fresh
            }
        };

        acct.signal_weighted_sum += run.signal.0;
        acct.signal_samples += run.signal.1;
        // Predictor drift: sample only the chain-leading batch — later
        // pipelined batches' measured completions include comm-stream
        // queueing behind the previous batch's tail and would bias the
        // comparison.
        if let ([leader, ..], [(plan, _), ..], Some(measured)) =
            (chain, plans.as_slice(), &run.leader_group_done)
        {
            let predicted = plan.predicted_group_completions();
            acct.absorb_drift(leader.batch.gemm_dims(tp), predicted, measured);
        }

        let chain_len = chain.len() as u64;
        // Total inter-node migration for the chain, charged up front: the
        // chain cannot launch until every member batch's activations have
        // crossed the inter-node fabric. Zero on single-node runs, so the
        // pre-topology timeline is reproduced exactly.
        let mig_ns: u64 = chain.iter().map(|p| p.migration_ns).sum();
        let mut prev_done = 0u64;
        for ((pending, (_, cache_hit)), (done_ns, &disposition)) in chain
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
            let queue_wait = start_ns.saturating_sub(pending.close_ns);
            for r in &batch.requests {
                acct.place(RequestRecord {
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
                acct.cross_node_batches += 1;
                acct.migration_ns += pending.migration_ns;
            }
            if config.nodes > 1 {
                // Byte accounting for the batch's tensor-parallel AllReduce
                // (full reduced M x N output): what the hierarchical schedule
                // actually crossed nodes with vs. what the flat ring would
                // have.
                let dims = batch.gemm_dims(tp);
                let payload = u64::from(dims.m) * u64::from(dims.n) * collectives::BYTES_PER_ELEM;
                let topo = &config.system.topology;
                acct.inter_bytes_hierarchical += collectives::inter_bytes_hierarchical(
                    collectives::Primitive::AllReduce,
                    payload,
                    topo,
                );
                acct.inter_bytes_flat +=
                    collectives::inter_bytes_flat(collectives::Primitive::AllReduce, payload, topo);
            }
            acct.batch_records.push(BatchRecord {
                id: batch.id,
                model: batch.model.name,
                requests: batch.requests.len() as u64,
                tokens: batch.tokens,
                padded_tokens: batch.padded_tokens,
                start_ns: start_ns.saturating_add(mig_ns).saturating_add(prev_done),
                exec_ns: window_end - prev_done,
                cache_hit: *cache_hit,
                outcome: disposition.label(),
                replica: replica_idx,
                node: stats.node,
                migration_ns: pending.migration_ns,
                routing: pending.routing,
                chain_len,
                close_ns: pending.close_ns,
                queue_wait_ns: queue_wait,
                attribution: Some(run.attribution.clip_window(prev_done, window_end)),
            });
            stats.batches += 1;
            stats.requests += batch.requests.len() as u64;
            stats.tokens += u64::from(batch.tokens);
            prev_done = window_end;
        }
        stats.busy_ns += mig_ns + run.total_ns;
        stats.chains += 1;
        // The chain window spans migration + execution; migration is
        // inter-node traffic, so it lands in the collective-transfer
        // category and the serve-level attribution identity still holds.
        let mut chain_totals = run.attribution.totals;
        chain_totals.add(Category::CollectiveTransfer, mig_ns);
        chain_log.push((start_ns, mig_ns.saturating_add(run.total_ns), chain_totals));
        *free_ns = start_ns.saturating_add(mig_ns).saturating_add(run.total_ns);
        Ok(run.outcomes.contains(&Disposition::Degraded))
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
    let outcomes = outcome.outcomes.iter().map(Disposition::from).collect();
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

#[cfg(test)]
#[allow(clippy::indexing_slicing)]
mod tests {
    use super::*;
    use crate::batch::{Batch, BatchConfig};
    use crate::cache::{CacheSnapshot, PlanEntry};
    use crate::router::RouterPolicy;
    use crate::server::{serve_run, RunOptions, ServeRun};
    use crate::traffic::ArrivalProcess;
    use flashoverlap::SystemSpec;
    use workloads::{models, MixEntry, ServeMix};

    /// Serves `config` with and without the chain memo, asserts the
    /// rendered reports and plan snapshots are byte-equal, and returns
    /// the memo's hits.
    fn memo_hits_without_changing_the_report(config: &ServeConfig, tuned: bool) -> u64 {
        let opts = RunOptions::new(tuned, true);
        let with = serve_run(config, opts).expect("serves with the memo");
        let without = serve_run(
            config,
            RunOptions {
                memo: false,
                ..opts
            },
        )
        .expect("serves without the memo");
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

    /// Four replicas on two nodes behind the locality router.
    fn two_node_config() -> ServeConfig {
        let mut config = ServeConfig::new(SystemSpec::rtx4090(2).with_nodes(2));
        config.process = ArrivalProcess::Poisson { rate_rps: 2400.0 };
        config.requests = 160;
        config.replicas = 4;
        config.nodes = 2;
        config.router = RouterPolicy::Locality;
        config.seed = 11;
        config
    }

    #[test]
    fn chain_memo_replays_repeated_chains_byte_identically() {
        let affinity = affinity_config();
        assert!(
            memo_hits_without_changing_the_report(&affinity, true) > 0,
            "repeated affinity chains must hit the memo"
        );
        let serial_rr = ServeConfig {
            router: RouterPolicy::RoundRobin,
            pipelined: false,
            replicas: 2,
            seed: 5,
            ..affinity.clone()
        };
        memo_hits_without_changing_the_report(&serial_rr, true);
        memo_hits_without_changing_the_report(&two_node_config(), true);
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

    /// The plans `config` tunes, each with its waves split into another
    /// partition than the tuned one: a snapshot whose preloads a re-tune
    /// replaces with different plans under the same keys.
    fn other_partitions(config: &ServeConfig) -> Vec<PlanEntry> {
        let tuned = serve_run(config, RunOptions::new(true, true))
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
        entries
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
        let entries = other_partitions(&config);
        for capacity in [1, 2] {
            let mut trap = config.clone();
            trap.cache_capacity = capacity;
            trap.preload = Some(CacheSnapshot {
                system_fp: system_fingerprint(&trap.system),
                entries: entries.clone(),
            });
            let run = serve_run(&trap, RunOptions::new(true, false)).expect("serves");
            let stats = run.report.cache;
            assert!(stats.preloaded > 0 && stats.evictions > 0, "{stats:?}");
            memo_hits_without_changing_the_report(&trap, true);
        }
    }

    /// A one-batch chain of `tokens` Llama-3 8B tokens, closed at 0.
    fn single(id: u64, tokens: u32) -> PendingBatch {
        PendingBatch {
            batch: Batch {
                id,
                model: models::LLAMA3_8B,
                requests: Vec::new(),
                tokens,
                padded_tokens: tokens,
            },
            routing: "test",
            close_ns: 0,
            migration_ns: 0,
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// Random pushes, dispatch drains and quarantine re-routes across
        /// three queues: after every step each queue's running total is
        /// what summing its batches gives.
        #[test]
        fn dispatch_queue_totals_match_the_scan(seed in proptest::prelude::any::<u64>()) {
            let mut rng = sim::DetRng::new(seed);
            let mut queues: [DispatchQueue; 3] = Default::default();
            let mut chain = Vec::new();
            for id in 0..rng.next_below(200) {
                let q = rng.next_below(3) as usize;
                match rng.next_below(4) {
                    0 | 1 => queues[q].push_back(single(id, 1 + rng.next_below(4096) as u32)),
                    2 => {
                        chain.clear();
                        let n = rng.next_below(ServeConfig::CHAIN as u64 + 2) as usize;
                        queues[q].drain_front_into(n, &mut chain);
                    }
                    _ => {
                        for (i, p) in queues[q].take_all().into_iter().enumerate() {
                            queues[(q + 1 + i % 2) % 3].push_back(p);
                        }
                    }
                }
                for queue in &queues {
                    let scan: u64 = queue
                        .batches
                        .iter()
                        .map(|p| u64::from(p.batch.padded_tokens))
                        .sum();
                    proptest::prop_assert_eq!(queue.queued_tokens(), scan);
                }
            }
        }
    }

    /// The memo holds its plans only weakly, and the store holds every
    /// plan the run tuned: a shape the cache evicted and misses again
    /// gets the store's plan back, and its chain replays the memo's run,
    /// byte-identical to a fresh simulation. Store-held plans never die
    /// during a run, so the LRU bound is what limits the memo: a memo
    /// built smaller than the bound never holds more than it allows.
    #[test]
    fn chain_memo_replays_the_stores_plan_for_a_re_missed_shape() {
        let mut config = ServeConfig::new(SystemSpec::rtx4090(2));
        config.cache_capacity = 1;
        let build = || build_replicas(&config, true).expect("replica builds");
        let (mut replicas, mut fresh, mut tight) = (build(), build(), build());
        let mut memo = ChainMemo::new(ChainMemo::CAPACITY);
        // A one-entry memo: alternating shapes evict each other's entry.
        let mut tight_memo = ChainMemo::new(1);
        let (mut store, mut tight_store) = (PlanStore::new(true), PlanStore::new(true));
        let (mut acct, mut fresh_acct) = (Accounting::new(0), Accounting::new(0));
        let mut tight_acct = Accounting::new(0);
        let mut first: Vec<(u32, Rc<OverlapPlan>)> = Vec::new();
        for (id, tokens) in [512u32, 1024, 512, 1024, 512].into_iter().enumerate() {
            let pending = single(id as u64, tokens);
            let chain = std::slice::from_ref(&pending);
            replicas[0]
                .execute_chain(&config, &mut store, &mut memo, 0, chain, &mut acct)
                .expect("chain runs");
            fresh[0]
                .execute_chain(
                    &config,
                    &mut PlanStore::new(false),
                    &mut ChainMemo::new(0),
                    0,
                    chain,
                    &mut fresh_acct,
                )
                .expect("chain runs");
            tight[0]
                .execute_chain(
                    &config,
                    &mut tight_store,
                    &mut tight_memo,
                    0,
                    chain,
                    &mut tight_acct,
                )
                .expect("chain runs");
            for memo in [&memo, &tight_memo] {
                assert!(memo.entries.len() <= memo.capacity, "memo exceeds capacity");
            }
            let dims = pending.batch.gemm_dims(2);
            let plan = store
                .plans()
                .find(|p| p.dims == dims)
                .expect("the store holds every tuned plan");
            match first.iter().find(|(t, _)| *t == tokens) {
                Some((_, earlier)) => assert!(Rc::ptr_eq(earlier, plan), "a re-miss re-tuned"),
                None => first.push((tokens, Rc::clone(plan))),
            }
        }
        assert_eq!(replicas[0].cache.stats().evictions, 4);
        assert_eq!((store.tunes(), memo.hits()), (2, 3));
        assert_eq!(acct.batch_records, fresh_acct.batch_records);
        assert_eq!(replicas[0].chain_log, fresh[0].chain_log);
        assert_eq!((tight_store.tunes(), tight_memo.hits()), (2, 0));
        assert_eq!(tight_acct.batch_records, fresh_acct.batch_records);

        // Only the cache, the store and this test hold the plans strongly.
        let held: Vec<Weak<OverlapPlan>> = memo
            .entries
            .values()
            .flat_map(|e| e.plans.iter().filter(|w| w.strong_count() > 0).cloned())
            .collect();
        assert_eq!(held.len(), 2);
        drop((first, store));
        replicas[0].cache = PlanCache::new(1);
        assert!(
            held.iter().all(|w| w.upgrade().is_none()),
            "the memo kept a plan alive"
        );
    }

    /// The memo is the run's, not a replica's: a chain replica 0
    /// simulated replays when replica 1 runs the same plans, and both
    /// account exactly what a memo-less, store-less run does.
    #[test]
    fn chain_memo_replays_one_replicas_chain_on_another() {
        let mut config = ServeConfig::new(SystemSpec::rtx4090(2));
        config.replicas = 2;
        let build = || build_replicas(&config, true).expect("replicas build");
        let (mut replicas, mut fresh) = (build(), build());
        let mut store = PlanStore::new(true);
        let mut memo = ChainMemo::new(ChainMemo::CAPACITY);
        let (mut acct, mut fresh_acct) = (Accounting::new(0), Accounting::new(0));
        let chains = [
            [single(0, 512), single(1, 1024)],
            [single(2, 512), single(3, 1024)],
        ];
        for (idx, chain) in chains.iter().enumerate() {
            let start_ns = 1000 * idx as u64;
            replicas[idx]
                .execute_chain(&config, &mut store, &mut memo, start_ns, chain, &mut acct)
                .expect("chain runs");
            assert_eq!(memo.hits(), idx as u64, "replica {idx}");
            fresh[idx]
                .execute_chain(
                    &config,
                    &mut PlanStore::new(false),
                    &mut ChainMemo::new(0),
                    start_ns,
                    chain,
                    &mut fresh_acct,
                )
                .expect("chain runs");
        }
        assert_eq!((store.tunes(), memo.entries.len()), (2, 1));
        assert_eq!(replicas[1].cache.stats().misses, 2);
        assert_eq!(acct.batch_records, fresh_acct.batch_records);
        for (replica, fresh) in replicas.iter().zip(&fresh) {
            assert_eq!(replica.chain_log, fresh.chain_log);
        }
    }

    /// Serves `config` with the plan store keeping its plans and without,
    /// asserts the rendered reports and plan snapshots are byte-equal, and
    /// returns the run with the store. Without it, every miss tunes.
    fn storing_without_changing_the_report(config: &ServeConfig, tuned: bool) -> ServeRun {
        let opts = RunOptions::new(tuned, true);
        let with = serve_run(config, opts).expect("serves with the store");
        let without = serve_run(
            config,
            RunOptions {
                store: false,
                ..opts
            },
        )
        .expect("serves without the store");
        assert_eq!(without.store.tunes(), without.report.cache.misses);
        assert_eq!(
            with.report.to_json().to_json_pretty(),
            without.report.to_json().to_json_pretty(),
            "the plan store changed the report"
        );
        assert_eq!(with.snapshot, without.snapshot);
        with
    }

    #[test]
    fn four_replicas_tune_each_shape_once() {
        let mut config = affinity_config();
        config.router = RouterPolicy::LeastLoaded;
        let run = storing_without_changing_the_report(&config, true);
        let report = &run.report;
        assert_eq!(report.cache.evictions, 0);
        assert_eq!(run.store.tunes(), report.distinct_shapes);
        assert!(
            report.cache.misses > report.distinct_shapes,
            "replicas must miss on each other's shapes: {:?}",
            report.cache
        );
    }

    /// Three models, a fine token bucket and small caches, so plans are
    /// evicted and missed again.
    fn small_churn_config() -> ServeConfig {
        let mut churn = affinity_config();
        churn.router = RouterPolicy::RoundRobin;
        churn.requests = 300;
        churn.cache_capacity = 4;
        churn.batch = BatchConfig {
            token_bucket: 16,
            ..BatchConfig::default()
        };
        churn.mix = ServeMix::new(vec![
            MixEntry {
                model: models::LLAMA3_8B,
                weight: 2,
                min_tokens: 64,
                max_tokens: 4096,
            },
            MixEntry {
                model: models::LLAMA2_70B,
                weight: 1,
                min_tokens: 64,
                max_tokens: 2048,
            },
        ]);
        churn
    }

    #[test]
    fn the_plan_store_never_changes_the_report() {
        for router in [
            RouterPolicy::RoundRobin,
            RouterPolicy::LeastLoaded,
            RouterPolicy::ShapeAffinity,
        ] {
            let config = ServeConfig {
                router,
                ..affinity_config()
            };
            storing_without_changing_the_report(&config, true);
        }
        // The fourth router, on two nodes.
        storing_without_changing_the_report(&two_node_config(), true);
        // The untuned baseline cache.
        storing_without_changing_the_report(&affinity_config(), false);

        // Chaos, with replica 2 wedged and its queue re-routed.
        let mut chaos = affinity_config();
        chaos.chaos = true;
        chaos.wedge_replica = Some(2);
        chaos.process = ArrivalProcess::Poisson { rate_rps: 12_000.0 };
        chaos.requests = 200;
        let run = storing_without_changing_the_report(&chaos, true);
        assert!(run.report.replicas_quarantined > 0);

        let run = storing_without_changing_the_report(&small_churn_config(), true);
        let cache = run.report.cache;
        assert!(cache.evictions > 0, "{cache:?}");
        assert_eq!(run.store.tunes(), run.report.distinct_shapes, "{cache:?}");
        assert!(run.store.tunes() < cache.misses, "{cache:?}");
    }

    /// Preloaded plans are shared by every replica but never stored: a
    /// replica that evicted one tunes its key, while a sibling may still
    /// hold the preload under it.
    #[test]
    fn preloads_are_built_once_and_never_stored() {
        let mut config = affinity_config();
        config.router = RouterPolicy::RoundRobin;
        let snapshot = serve_run(&config, RunOptions::new(true, true))
            .expect("serves")
            .snapshot;
        let mut warm = config.clone();
        warm.preload = Some(snapshot);
        let run = storing_without_changing_the_report(&warm, true);
        let cache = run.report.cache;
        assert_eq!(cache.misses, 0, "{cache:?}");
        assert_eq!(run.store.plans().count(), 0);
        let per_replica = run.snapshot.entries.len().min(warm.cache_capacity);
        assert_eq!(cache.preloaded, 4 * per_replica as u64);

        // Four plans per cache: replicas evict preloads while siblings
        // still hold them under the keys they miss.
        let mut trap = config.clone();
        trap.cache_capacity = 4;
        trap.preload = Some(CacheSnapshot {
            system_fp: system_fingerprint(&trap.system),
            entries: other_partitions(&config),
        });
        let run = storing_without_changing_the_report(&trap, true);
        let cache = run.report.cache;
        assert!(cache.preloaded > 0 && cache.evictions > 0, "{cache:?}");
        assert_eq!(run.store.tunes(), run.store.plans().count() as u64);
    }

    /// The churn benchmark's serve call: four replicas of a 4-GPU system,
    /// three models over wide token ranges in 16-token buckets, 8-plan
    /// caches and round-robin routing.
    fn churn_config(requests: usize) -> ServeConfig {
        let mut config = ServeConfig::new(SystemSpec::rtx4090(4));
        config.replicas = 4;
        config.requests = requests;
        config.seed = 3;
        config.mix = ServeMix::new(vec![
            MixEntry {
                model: models::LLAMA3_8B,
                weight: 2,
                min_tokens: 64,
                max_tokens: 4096,
            },
            MixEntry {
                model: models::LLAMA2_70B,
                weight: 1,
                min_tokens: 64,
                max_tokens: 2048,
            },
            MixEntry {
                model: models::DEEPSEEK_MOE_EXPERT,
                weight: 1,
                min_tokens: 16,
                max_tokens: 1024,
            },
        ]);
        config.process = ArrivalProcess::Poisson { rate_rps: 500.0 };
        config.batch = BatchConfig {
            token_bucket: 16,
            ..BatchConfig::default()
        };
        config.cache_capacity = 8;
        config.router = RouterPolicy::RoundRobin;
        config
    }

    #[test]
    fn churn_tunes_each_shape_once_and_keeps_no_functional_table() {
        for requests in [1500, 4000] {
            let run =
                serve_run(&churn_config(requests), RunOptions::new(true, false)).expect("serves");
            let report = &run.report;
            assert_eq!(
                run.store.tunes(),
                report.distinct_shapes,
                "{requests} requests"
            );
            assert!(
                report.cache.misses > report.distinct_shapes,
                "{:?}",
                report.cache
            );
            assert_eq!(run.store.plans().count() as u64, report.distinct_shapes);
            assert!(
                run.store.plans().all(|p| !p.holds_functional_tables()),
                "a timed plan built a slot table or gather map"
            );
        }
    }

    /// The distinct plan sequences of a report's chains. A chain's
    /// batch records are consecutive, `chain_len` of them; with the
    /// store and no preload, one (model, padded tokens) shape is one plan.
    fn distinct_chains(report: &crate::report::ServeReport) -> (u64, usize) {
        let mut sequences = std::collections::HashSet::new();
        let mut records = report.batch_records.as_slice();
        let mut chains = 0;
        while let [head, ..] = records {
            let (chain, rest) = records.split_at(head.chain_len as usize);
            sequences.insert(
                chain
                    .iter()
                    .map(|b| (b.model, b.padded_tokens))
                    .collect::<Vec<_>>(),
            );
            chains += 1;
            records = rest;
        }
        (chains, sequences.len())
    }

    /// One memo for the whole run: churn simulates each distinct plan
    /// sequence once, however the round-robin router spreads it over the
    /// replicas, and replays every repeat, byte-identically.
    #[test]
    fn churn_simulates_each_distinct_chain_once() {
        for requests in [1500, 4000] {
            let config = churn_config(requests);
            let run = serve_run(&config, RunOptions::new(true, true)).expect("serves");
            let (chains, distinct) = distinct_chains(&run.report);
            let replica_chains: u64 = run.report.replica_stats.iter().map(|r| r.chains).sum();
            assert_eq!(chains, replica_chains, "{requests} requests");
            assert_eq!(
                chains - run.memo_hits,
                distinct as u64,
                "{requests} requests"
            );
            assert_eq!(
                memo_hits_without_changing_the_report(&config, true),
                run.memo_hits
            );
        }
    }
}
