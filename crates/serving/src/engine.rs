//! The per-replica execution engine.
//!
//! A [`ReplicaEngine`] owns everything one replica group needs to run a
//! chain of batches — the simulation world (one [`ChainWorld`], reset
//! for every chain by [`flashoverlap::execute_sequence_in`]), the
//! tuned-plan [`PlanCache`], the chain memo, the telemetry wiring and
//! the chain analyses' [`ChainIndex`], and the chain assembly (per-batch
//! fault plans, sequence options, pipelining). The serve loop owns one
//! engine per replica and runs each chain, on the calling thread, when it
//! dispatches it ([`run_chain`]), so every chain's accounting lands in
//! dispatch order.
//!
//! A replica's plan-cache miss first adopts the plan a sibling replica
//! tuned for the same key, so while some replica still holds a shape's
//! plan, the run tunes that shape once.

use std::rc::{Rc, Weak};

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

/// What one executed chain tells the serve loop's scheduler.
#[derive(Debug)]
pub(crate) struct ChainResult {
    /// Virtual time the chain drains (the replica's next idle instant).
    pub(crate) free_ns: u64,
    /// Whether any batch in the chain came back degraded (the caller's
    /// quarantine signal; only possible under chaos).
    pub(crate) degraded: bool,
}

/// An engine's lifetime totals, returned by [`ReplicaEngine::finish`]:
/// everything the report builder needs from it.
#[derive(Debug)]
pub(crate) struct EngineFinal {
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
    /// empty unless the finish asked for them.
    pub(crate) entries: Vec<PlanEntry>,
    /// Chains replayed from the engine's chain memo instead of simulated.
    pub(crate) memo_hits: u64,
    /// Plans the engine's cache tuned (or built untuned) itself instead
    /// of adopting them from a sibling.
    pub(crate) tunes: u64,
}

/// One replica's engine: its plan cache, chain memo and the simulation
/// world its chains run in, plus its lifetime counters.
pub(crate) struct ReplicaEngine<'a> {
    config: &'a ServeConfig,
    replica_idx: usize,
    tp: u32,
    /// [`system_fingerprint`] of `config.system`, computed once: the
    /// engine's system never changes, so every plan-cache key shares it.
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
/// same device RNG forks, and the engine's system, pipelining and
/// instrumentation never change. So a non-chaos chain's [`ChainRun`] is
/// a pure function of its plans, and a repeated plan sequence replays
/// its stored run instead of simulating again. Chaos chains draw fault
/// plans per batch id and always execute; errors are never stored.
///
/// Keys hold [`Weak`] plans: the memo never keeps an evicted plan alive,
/// and a live `Weak` pins its allocation, so a pointer match is the same
/// plan — never a re-tuned replacement under the same [`PlanKey`].
/// Entries whose plans died are dropped. A plan adopted from a sibling
/// replica has one identity across the replicas that hold it: a sibling
/// may keep it alive after this replica evicts it, and a later miss here
/// may adopt it again. A match is then still the same plan, so a replay
/// is still exact. Bounded by the plan-cache capacity, least recently
/// used out first (unique ticks).
///
/// [`SystemSpec::build_cluster`]: flashoverlap::SystemSpec::build_cluster
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

/// Builds one engine per replica of `config`, each with its chain memo on
/// or off (the memo never changes a result, so only its own tests turn it
/// off). A `--plan-cache-in` snapshot is built and verified once, into the
/// first cache; every replica starts from a copy of that cache, sharing
/// its plans and counting the same preloads.
///
/// # Errors
///
/// Returns the preload's error (e.g. a malformed snapshot entry).
pub(crate) fn build_engines(
    config: &ServeConfig,
    tuned: bool,
    memo: bool,
) -> Result<Vec<ReplicaEngine<'_>>, FlashOverlapError> {
    let mut cache = if tuned {
        PlanCache::new(config.cache_capacity)
    } else {
        PlanCache::new_untuned(config.cache_capacity)
    };
    if let Some(snapshot) = &config.preload {
        // Fingerprint compatibility was validated up front.
        cache.preload(&config.system, &snapshot.entries)?;
    }
    let memo_capacity = if memo {
        config.cache_capacity.max(1)
    } else {
        0
    };
    let system_fp = system_fingerprint(&config.system);
    Ok((0..config.replicas)
        .map(|replica_idx| ReplicaEngine {
            config,
            replica_idx,
            tp: config.system.n_gpus as u32,
            system_fp,
            cache: cache.clone(),
            memo: ChainMemo::new(memo_capacity),
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
        .collect())
}

/// Runs `chain` on engine `idx` from `start_ns` and accounts it into
/// `acct`. With `adopt` set, a plan-cache miss first takes the plan one of
/// the other engines' caches tuned for the same key (the lowest replica
/// id holding one wins), and tunes only when none does.
///
/// Adoption never changes the report: tuning is a pure function of the
/// key, so an adopted plan equals the one the miss would have tuned, and
/// the miss is counted exactly as before (see [`PlanCache`]).
pub(crate) fn run_chain(
    engines: &mut [ReplicaEngine<'_>],
    idx: usize,
    adopt: bool,
    start_ns: u64,
    chain: &[PendingBatch],
    acct: &mut Accounting,
) -> Result<ChainResult, FlashOverlapError> {
    let Some((before, [engine, after @ ..])) = engines.split_at_mut_checked(idx) else {
        return Err(FlashOverlapError::BadInputs {
            reason: format!("no replica engine {idx}"),
        });
    };
    let siblings: [&[ReplicaEngine<'_>]; 2] = if adopt { [before, after] } else { [&[], &[]] };
    engine.execute_chain(start_ns, chain, siblings, acct)
}

impl<'a> ReplicaEngine<'a> {
    /// Executes one chain of batches starting at `start_ns`: resolves its
    /// plans (adopting misses from `siblings`' caches), takes its
    /// [`ChainRun`] from the memo or simulates it, and accounts it.
    fn execute_chain(
        &mut self,
        start_ns: u64,
        chain: &[PendingBatch],
        siblings: [&[ReplicaEngine<'a>]; 2],
        acct: &mut Accounting,
    ) -> Result<ChainResult, FlashOverlapError> {
        // Split the borrow: the cache and memo are mutated while the
        // config is read, and the lifetime counters bump batch by batch.
        let ReplicaEngine {
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
        for p in chain {
            let key = PlanKey {
                dims: p.batch.gemm_dims(tp),
                primitive: pattern.primitive(),
                system_fp: *system_fp,
            };
            let siblings = siblings.iter().flat_map(|s| s.iter()).map(|e| &e.cache);
            plans.push(cache.get_or_adopt(key, &pattern, &config.system, siblings)?);
        }
        let mut simulate =
            || simulate_chain(config, replica_idx, chain, &plans, scratch, index, world);
        let fresh;
        let run = if config.chaos || memo.capacity == 0 {
            fresh = simulate()?;
            &fresh
        } else {
            memo.run_or_simulate(&plans, simulate)?
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
            if let Some(predicted) = plan.predicted_group_completions() {
                acct.absorb_drift(leader.batch.gemm_dims(tp), predicted, measured);
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
        })
    }

    /// The engine's lifetime totals, with its cache's tuned plans when
    /// `export` is set.
    pub(crate) fn finish(self, export: bool) -> EngineFinal {
        EngineFinal {
            batches: self.batches,
            requests: self.requests,
            tokens: self.tokens,
            chains: self.chains,
            busy_ns: self.busy_ns,
            cache_stats: self.cache.stats(),
            entries: if export {
                self.cache.export_entries(self.system_fp)
            } else {
                Vec::new()
            },
            memo_hits: self.memo.hits,
            tunes: self.cache.tunes(),
            chain_log: self.chain_log,
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::{Batch, BatchConfig};
    use crate::cache::CacheSnapshot;
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

    #[test]
    fn chain_memo_keeps_no_evicted_plan_alive() {
        let mut config = ServeConfig::new(SystemSpec::rtx4090(2));
        config.cache_capacity = 1;
        let mut engines = build_engines(&config, true, true).expect("engine builds");
        let mut acct = Accounting::new(0);
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
            run_chain(&mut engines, 0, true, 0, &[pending], &mut acct).expect("chain runs");
            let memo = &engines[0].memo;
            assert!(memo.entries.len() <= 1, "memo exceeds capacity");
            held.extend(memo.entries.iter().flat_map(|e| e.plans.clone()));
        }
        let (last, evicted) = held.split_last().expect("plans held");
        assert_eq!(last.strong_count(), 1, "only the cache holds the live plan");
        assert!(
            evicted.iter().all(|w| w.upgrade().is_none()),
            "an evicted plan is still alive"
        );
        assert_eq!(engines[0].cache.stats().evictions, 4);
        assert_eq!(engines[0].memo.hits, 0, "every re-tuned plan is a new key");
    }

    /// Serves `config` with and without sibling plan adoption, asserts the
    /// rendered reports and plan snapshots are byte-equal, and returns
    /// the run with adoption. Without it, every miss tunes.
    fn adopting_without_changing_the_report(config: &ServeConfig, tuned: bool) -> ServeRun {
        let opts = RunOptions::new(tuned, true);
        let with = serve_run(config, opts).expect("serves with adoption");
        let without = serve_run(
            config,
            RunOptions {
                adopt: false,
                ..opts
            },
        )
        .expect("serves without adoption");
        assert_eq!(without.tunes, without.report.cache.misses);
        assert_eq!(
            with.report.to_json().to_json_pretty(),
            without.report.to_json().to_json_pretty(),
            "sibling adoption changed the report"
        );
        assert_eq!(with.snapshot, without.snapshot);
        with
    }

    #[test]
    fn four_replicas_tune_each_shape_once() {
        let mut config = affinity_config();
        config.router = RouterPolicy::LeastLoaded;
        let run = adopting_without_changing_the_report(&config, true);
        let report = &run.report;
        assert_eq!(report.cache.evictions, 0);
        assert_eq!(run.tunes, report.distinct_shapes);
        assert!(
            report.cache.misses > report.distinct_shapes,
            "replicas must miss on each other's shapes: {:?}",
            report.cache
        );
    }

    #[test]
    fn sibling_adoption_never_changes_the_report() {
        for router in [
            RouterPolicy::RoundRobin,
            RouterPolicy::LeastLoaded,
            RouterPolicy::ShapeAffinity,
        ] {
            let config = ServeConfig {
                router,
                ..affinity_config()
            };
            adopting_without_changing_the_report(&config, true);
        }
        adopting_without_changing_the_report(&two_node_config(), true);
        // The untuned baseline cache.
        adopting_without_changing_the_report(&affinity_config(), false);

        // Chaos, with replica 2 wedged and its queue re-routed.
        let mut chaos = affinity_config();
        chaos.chaos = true;
        chaos.wedge_replica = Some(2);
        chaos.process = ArrivalProcess::Poisson { rate_rps: 12_000.0 };
        chaos.requests = 200;
        let run = adopting_without_changing_the_report(&chaos, true);
        assert!(run.report.replicas_quarantined > 0);

        // Churn: three models, a fine token bucket and small caches, so
        // plans are evicted while siblings still hold them.
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
        let run = adopting_without_changing_the_report(&churn, true);
        assert!(run.report.cache.evictions > 0, "{:?}", run.report.cache);
        assert!(
            run.tunes < run.report.cache.misses,
            "{:?}",
            run.report.cache
        );
    }

    /// Preloaded plans are shared by every replica but never adopted: a
    /// replica that evicted one re-tunes its key, while a sibling may
    /// still hold the preload under it.
    #[test]
    fn preloads_are_built_once_and_never_adopted() {
        let mut config = affinity_config();
        config.router = RouterPolicy::RoundRobin;
        let snapshot = serve_run(&config, RunOptions::new(true, true))
            .expect("serves")
            .snapshot;
        let mut warm = config.clone();
        warm.preload = Some(snapshot);
        let run = adopting_without_changing_the_report(&warm, true);
        let cache = run.report.cache;
        assert_eq!(cache.misses, 0, "{cache:?}");
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
        let run = adopting_without_changing_the_report(&trap, true);
        let cache = run.report.cache;
        assert!(cache.preloaded > 0 && cache.evictions > 0, "{cache:?}");
    }
}
