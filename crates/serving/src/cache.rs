//! Tuned-plan cache: amortizing predictive search across a serve run.
//!
//! The paper's tuning cost argument (§4.1.4) is that predictive search
//! is cheap enough to run *online*: when a serving batch produces a GEMM
//! shape the runtime has not seen, the scheduler tunes a partition for
//! it analytically (no execution) and caches the resulting
//! [`OverlapPlan`]. Subsequent batches with the same shape on the same
//! system reuse the plan — the common case once token-bucket
//! quantization bounds the distinct shapes in flight.
//!
//! The cache is keyed by `(GemmDims, Primitive, system fingerprint)`
//! and bounded with LRU eviction. Recency is a monotonic tick (no wall
//! clock), and ticks are unique, so eviction order is deterministic
//! regardless of `HashMap` iteration order.
//!
//! Each serve replica has its own cache. Tuning is a pure function of the
//! key, so a replica's miss first adopts the plan a sibling replica's
//! cache tuned for the same key, and tunes only when no sibling holds one.
//! The counters stay per replica: an adopted plan is still a miss here.

use std::collections::HashMap;
use std::rc::Rc;

use collectives::Primitive;
use flashoverlap::{
    tune_plan, CommPattern, FlashOverlapError, OverlapPlan, SystemSpec, WavePartition,
};
use gpu_sim::gemm::{GemmConfig, GemmDims};

/// Cache key: the GEMM shape, the collective primitive, and a
/// fingerprint of the system the plan was tuned for. A plan tuned for
/// one fabric/SM budget is wrong for another, so the fingerprint keeps
/// heterogeneous systems from aliasing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PlanKey {
    /// GEMM problem shape.
    pub dims: GemmDims,
    /// Collective primitive overlapped with the GEMM.
    pub primitive: Primitive,
    /// [`system_fingerprint`] of the target system.
    pub system_fp: u64,
}

/// FNV-1a over the plan-relevant fields of a [`SystemSpec`]. Two specs
/// with equal fingerprints tune to the same partition: the hash covers
/// everything `predictive_search` and plan construction read (arch,
/// fabric, group size, SM budget, algorithm, seed, launch skew).
pub fn system_fingerprint(system: &SystemSpec) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(PRIME);
        }
    };
    eat(system.arch.name.as_bytes());
    eat(&system.arch.sm_count.to_le_bytes());
    eat(system.fabric.name.as_bytes());
    eat(&(system.n_gpus as u64).to_le_bytes());
    // Topology layout: a plan tuned for a single node is wrong for a
    // node-spanning group even when every other knob matches.
    eat(&(system.topology.nodes as u64).to_le_bytes());
    eat(&(system.topology.gpus_per_node as u64).to_le_bytes());
    eat(system.topology.inter.name.as_bytes());
    eat(&system.comm_sms.to_le_bytes());
    eat(&system.seed.to_le_bytes());
    eat(&[match system.algorithm {
        collectives::Algorithm::Ring => 0u8,
        collectives::Algorithm::Direct => 1,
        collectives::Algorithm::Auto => 2,
    }]);
    eat(&system.launch_skew_ns.to_le_bytes());
    h
}

/// Hit/miss/eviction counters for a serve run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that missed this cache; each plan was tuned here or
    /// adopted from a sibling replica's cache.
    pub misses: u64,
    /// Plans evicted to stay within capacity.
    pub evictions: u64,
    /// Partitions predictive search evaluated for this cache's misses,
    /// tuned here or adopted from a sibling (which adds the count its own
    /// tuning would have): the online tuning work the cache amortizes.
    pub tune_evaluated: u64,
    /// Plans seeded from a persisted snapshot before the run.
    pub preloaded: u64,
}

impl CacheStats {
    /// Element-wise sum — used to aggregate per-replica caches into the
    /// run totals.
    pub fn merge(&self, other: &CacheStats) -> CacheStats {
        CacheStats {
            hits: self.hits + other.hits,
            misses: self.misses + other.misses,
            evictions: self.evictions + other.evictions,
            tune_evaluated: self.tune_evaluated + other.tune_evaluated,
            preloaded: self.preloaded + other.preloaded,
        }
    }
}

impl CacheStats {
    /// Hit fraction over all lookups (0 when the cache is cold).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

#[derive(Clone)]
struct Entry {
    plan: Rc<OverlapPlan>,
    last_used: u64,
    /// Partitions the search evaluated to build `plan` on a miss (0 for
    /// an untuned plan). `None` for a preloaded plan, which a sibling must
    /// not adopt: its snapshot partition need not be the one a miss tunes.
    tune_evaluated: Option<u64>,
}

/// Bounded LRU cache of tuned [`OverlapPlan`]s. A clone shares the
/// plans.
// Debug by hand: `OverlapPlan` itself is not Debug.
#[derive(Clone)]
pub struct PlanCache {
    entries: HashMap<PlanKey, Entry>,
    capacity: usize,
    tick: u64,
    stats: CacheStats,
    /// When false, misses build the non-overlap baseline partition
    /// (single group) instead of tuning — the serve-vs-baseline
    /// comparison runs the identical loop with only this bit flipped.
    tuned: bool,
    /// Plans this cache tuned (or built untuned) itself on a miss.
    tunes: u64,
}

impl std::fmt::Debug for PlanCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PlanCache")
            .field("len", &self.entries.len())
            .field("capacity", &self.capacity)
            .field("tick", &self.tick)
            .field("stats", &self.stats)
            .field("tuned", &self.tuned)
            .field("tunes", &self.tunes)
            .finish()
    }
}

impl PlanCache {
    /// An empty cache holding at most `capacity` plans (at least 1).
    pub fn new(capacity: usize) -> Self {
        PlanCache {
            entries: HashMap::new(),
            capacity: capacity.max(1),
            tick: 0,
            stats: CacheStats::default(),
            tuned: true,
            tunes: 0,
        }
    }

    /// An empty cache whose misses build untuned single-group
    /// (non-overlap) plans — the baseline arm of a comparison run.
    pub fn new_untuned(capacity: usize) -> Self {
        PlanCache {
            tuned: false,
            ..PlanCache::new(capacity)
        }
    }

    /// Counters so far.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Plans this cache tuned (or built untuned) itself, not adopted.
    pub(crate) fn tunes(&self) -> u64 {
        self.tunes
    }

    /// Plans currently resident.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Looks up the plan for `(dims, pattern, system)`, tuning and
    /// constructing it on a miss. Returns the plan and whether the
    /// lookup hit.
    pub fn get_or_tune(
        &mut self,
        dims: GemmDims,
        pattern: &CommPattern,
        system: &SystemSpec,
    ) -> Result<(Rc<OverlapPlan>, bool), FlashOverlapError> {
        let key = PlanKey {
            dims,
            primitive: pattern.primitive(),
            system_fp: system_fingerprint(system),
        };
        self.get_or_adopt(key, pattern, system, [])
    }

    /// [`PlanCache::get_or_tune`] under a key the caller already built
    /// (callers whose system never changes fingerprint it once), except
    /// that a miss first adopts the plan the first of `siblings` holding
    /// one tuned for `key`, and tunes only when none does. The miss is
    /// counted either way, and adds the adopted plan's search count to
    /// `tune_evaluated`. Preloaded plans are never adopted.
    ///
    /// `key.primitive` must be `pattern.primitive()`, `key.system_fp`
    /// must be [`system_fingerprint`]`(system)`, and `siblings` must be
    /// tuned (or untuned) like this cache.
    pub(crate) fn get_or_adopt<'s>(
        &mut self,
        key: PlanKey,
        pattern: &CommPattern,
        system: &SystemSpec,
        siblings: impl IntoIterator<Item = &'s PlanCache>,
    ) -> Result<(Rc<OverlapPlan>, bool), FlashOverlapError> {
        debug_assert_eq!(key.primitive, pattern.primitive());
        self.tick += 1;
        if let Some(entry) = self.entries.get_mut(&key) {
            entry.last_used = self.tick;
            self.stats.hits += 1;
            return Ok((Rc::clone(&entry.plan), true));
        }
        self.stats.misses += 1;
        let adopted = siblings.into_iter().find_map(|s| {
            let entry = s.entries.get(&key)?;
            Some((Rc::clone(&entry.plan), entry.tune_evaluated?))
        });
        let (plan, evaluated) = match adopted {
            Some(adopted) => adopted,
            None => {
                let (plan, evaluated) = self.build(key.dims, pattern, system)?;
                self.tunes += 1;
                (Rc::new(plan), evaluated)
            }
        };
        self.stats.tune_evaluated += evaluated;
        if self.entries.len() >= self.capacity {
            self.evict_lru();
        }
        self.entries.insert(
            key,
            Entry {
                plan: Rc::clone(&plan),
                last_used: self.tick,
                tune_evaluated: Some(evaluated),
            },
        );
        Ok((plan, false))
    }

    /// Tunes (or, untuned, builds) and statically checks the plan for
    /// `dims`, returning it with the partitions the search evaluated.
    fn build(
        &self,
        dims: GemmDims,
        pattern: &CommPattern,
        system: &SystemSpec,
    ) -> Result<(OverlapPlan, u64), FlashOverlapError> {
        let (plan, evaluated) = if self.tuned {
            // One offline profile serves the search and the plan's
            // predictor.
            let (plan, evaluated) = tune_plan(dims, pattern.clone(), system.clone())?;
            (plan, evaluated as u64)
        } else {
            // Non-overlap baseline: one group spanning every wave of the
            // schedule the plan will choose for this shape.
            let config = GemmConfig::choose(dims, &system.arch);
            let waves = config.grid(dims).num_tiles().div_ceil(system.compute_sms());
            let partition = WavePartition::single(waves.max(1));
            let plan = OverlapPlan::new(dims, pattern.clone(), system.clone(), partition)?;
            (plan, 0)
        };
        // Never cache a schedule the static verifier cannot prove safe:
        // a corrupt plan served from the cache would poison every batch
        // that hits the same shape.
        plan.check_static()?;
        Ok((plan, evaluated))
    }

    /// Removes the least-recently-used entry. Ticks are unique, so the
    /// minimum is unique and eviction is deterministic even though
    /// `HashMap` iteration order is not.
    fn evict_lru(&mut self) {
        if let Some(key) = self
            .entries
            .iter()
            .min_by_key(|(_, e)| e.last_used)
            .map(|(k, _)| *k)
        {
            self.entries.remove(&key);
            self.stats.evictions += 1;
        }
    }

    /// Exports the resident tuned partitions for `system_fp`, sorted by
    /// `(m, n, k, primitive)` so the output is deterministic regardless
    /// of map iteration order. `AllToAll` plans are skipped: their
    /// routing tables are run-specific and cannot be rebuilt from a
    /// snapshot (serving traffic never produces them).
    pub fn export_entries(&self, system_fp: u64) -> Vec<PlanEntry> {
        let mut entries: Vec<PlanEntry> = self
            .entries
            .iter()
            .filter(|(k, _)| k.system_fp == system_fp && k.primitive != Primitive::AllToAll)
            .map(|(k, e)| PlanEntry {
                dims: k.dims,
                primitive: k.primitive,
                groups: e.plan.partition.sizes().to_vec(),
                thresholds: Some(e.plan.group_tile_counts().to_vec()),
            })
            .collect();
        entries.sort_by_key(|e| (e.dims.m, e.dims.n, e.dims.k, primitive_label(e.primitive)));
        entries
    }

    /// Seeds the cache from persisted entries without counting misses
    /// or running the tuner. Returns the number of plans loaded.
    ///
    /// # Errors
    ///
    /// Propagates plan-construction errors (a snapshot whose partition
    /// does not cover the shape's wave schedule on this system).
    pub fn preload(
        &mut self,
        system: &SystemSpec,
        entries: &[PlanEntry],
    ) -> Result<usize, FlashOverlapError> {
        let system_fp = system_fingerprint(system);
        let mut loaded = 0usize;
        for entry in entries {
            let key = PlanKey {
                dims: entry.dims,
                primitive: entry.primitive,
                system_fp,
            };
            if self.entries.contains_key(&key) || self.entries.len() >= self.capacity {
                continue;
            }
            let pattern =
                pattern_of(entry.primitive).ok_or_else(|| FlashOverlapError::BadInputs {
                    reason: "AllToAll plans cannot be preloaded (routing is run-specific)".into(),
                })?;
            let plan = OverlapPlan::new(
                entry.dims,
                pattern,
                system.clone(),
                WavePartition::try_new(entry.groups.clone())?,
            )?;
            let context = format!(
                "snapshot entry {}x{}x{} {}",
                entry.dims.m,
                entry.dims.n,
                entry.dims.k,
                primitive_label(entry.primitive)
            );
            // Cross-check persisted thresholds against the rebuilt
            // schedule: any divergence means the snapshot does not
            // describe the plan this system would execute.
            if let Some(thresholds) = &entry.thresholds {
                let rebuilt = plan.group_tile_counts();
                if thresholds.len() != rebuilt.len() {
                    return Err(FlashOverlapError::BadInputs {
                        reason: format!(
                            "{context}: snapshot has {} wait thresholds but the rebuilt plan \
                             schedules {} groups",
                            thresholds.len(),
                            rebuilt.len()
                        ),
                    });
                }
                for (g, (&snap, &built)) in thresholds.iter().zip(rebuilt).enumerate() {
                    if snap != built {
                        return Err(FlashOverlapError::BadInputs {
                            reason: format!(
                                "{context}: group {g} wait threshold {snap} does not match the \
                                 rebuilt plan's {built} scheduled increments"
                            ),
                        });
                    }
                }
            }
            // Full static verification before the plan can serve traffic.
            flashoverlap::reject_if_invalid(&plan.verify(), &context)?;
            let plan = Rc::new(plan);
            self.tick += 1;
            self.entries.insert(
                key,
                Entry {
                    plan,
                    last_used: self.tick,
                    tune_evaluated: None,
                },
            );
            self.stats.preloaded += 1;
            loaded += 1;
        }
        Ok(loaded)
    }
}

/// One persisted tuned plan: the shape, the primitive, and the tuned
/// wave partition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanEntry {
    /// GEMM problem shape.
    pub dims: GemmDims,
    /// Collective primitive the plan overlaps.
    pub primitive: Primitive,
    /// Tuned partition group sizes.
    pub groups: Vec<u32>,
    /// Per-group wait thresholds as the exporting plan scheduled them
    /// (the group tile counts). `None` for snapshots written before the
    /// field existed; when present, [`PlanCache::preload`] cross-checks
    /// them against the rebuilt plan and rejects any mismatch — a
    /// corrupted snapshot fails at load time with the shape, group, and
    /// threshold named, not at first execution.
    pub thresholds: Option<Vec<u32>>,
}

/// A serialized plan cache: the fingerprint of the system the plans
/// were tuned for, plus the tuned partitions. Loading a snapshot onto
/// a system with a different fingerprint is rejected — a partition
/// tuned for one fabric/SM budget is wrong for another.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheSnapshot {
    /// [`system_fingerprint`] of the tuning system.
    pub system_fp: u64,
    /// Tuned plans, sorted by `(m, n, k, primitive)`.
    pub entries: Vec<PlanEntry>,
}

pub(crate) fn primitive_label(p: Primitive) -> &'static str {
    match p {
        Primitive::AllReduce => "AllReduce",
        Primitive::ReduceScatter => "ReduceScatter",
        Primitive::AllGather => "AllGather",
        Primitive::AllToAll => "AllToAll",
    }
}

fn parse_primitive(s: &str) -> Option<Primitive> {
    match s {
        "AllReduce" => Some(Primitive::AllReduce),
        "ReduceScatter" => Some(Primitive::ReduceScatter),
        "AllGather" => Some(Primitive::AllGather),
        "AllToAll" => Some(Primitive::AllToAll),
        _ => None,
    }
}

/// The reconstructible [`CommPattern`] for a primitive (`None` for
/// `AllToAll`, whose routing tables are not persisted).
fn pattern_of(p: Primitive) -> Option<CommPattern> {
    match p {
        Primitive::AllReduce => Some(CommPattern::AllReduce),
        Primitive::ReduceScatter => Some(CommPattern::ReduceScatter),
        Primitive::AllGather => Some(CommPattern::AllGather),
        Primitive::AllToAll => None,
    }
}

impl CacheSnapshot {
    /// Serializes to the `flashoverlap-plan-cache` JSON document. The
    /// fingerprint is hex-encoded: the JSON layer stores numbers as
    /// `f64`, which cannot hold a full `u64` exactly.
    pub fn to_json(&self) -> String {
        use telemetry::json::Value;
        Value::obj(vec![
            ("kind", Value::str("flashoverlap-plan-cache")),
            ("system_fp", Value::str(format!("{:016x}", self.system_fp))),
            (
                "entries",
                Value::Arr(
                    self.entries
                        .iter()
                        .map(|e| {
                            let mut fields = vec![
                                ("m", Value::num(f64::from(e.dims.m))),
                                ("n", Value::num(f64::from(e.dims.n))),
                                ("k", Value::num(f64::from(e.dims.k))),
                                ("primitive", Value::str(primitive_label(e.primitive))),
                                (
                                    "groups",
                                    Value::Arr(
                                        e.groups
                                            .iter()
                                            .map(|&g| Value::num(f64::from(g)))
                                            .collect(),
                                    ),
                                ),
                            ];
                            if let Some(thresholds) = &e.thresholds {
                                fields.push((
                                    "thresholds",
                                    Value::Arr(
                                        thresholds
                                            .iter()
                                            .map(|&t| Value::num(f64::from(t)))
                                            .collect(),
                                    ),
                                ));
                            }
                            Value::obj(fields)
                        })
                        .collect(),
                ),
            ),
        ])
        .to_json_pretty()
    }

    /// Parses a document produced by [`CacheSnapshot::to_json`].
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed field.
    pub fn from_json(text: &str) -> Result<CacheSnapshot, String> {
        let doc = telemetry::json::parse(text)?;
        let kind = doc.get("kind").and_then(|v| v.as_str()).unwrap_or("");
        if kind != "flashoverlap-plan-cache" {
            return Err(format!("not a plan-cache snapshot (kind = {kind:?})"));
        }
        let fp_hex = doc
            .get("system_fp")
            .and_then(|v| v.as_str())
            .ok_or("missing system_fp")?;
        let system_fp = u64::from_str_radix(fp_hex, 16)
            .map_err(|e| format!("bad system_fp {fp_hex:?}: {e}"))?;
        let raw_entries = doc
            .get("entries")
            .and_then(|v| v.as_arr())
            .ok_or("missing entries array")?;
        let mut entries = Vec::with_capacity(raw_entries.len());
        for (i, raw) in raw_entries.iter().enumerate() {
            let field = |name: &str| -> Result<u32, String> {
                raw.get(name)
                    .and_then(|v| v.as_f64())
                    .filter(|&f| f.fract() == 0.0 && f >= 0.0 && f <= f64::from(u32::MAX))
                    .map(|f| f as u32)
                    .ok_or_else(|| format!("entry {i}: bad field {name:?}"))
            };
            let primitive = raw
                .get("primitive")
                .and_then(|v| v.as_str())
                .and_then(parse_primitive)
                .ok_or_else(|| format!("entry {i}: bad primitive"))?;
            let groups = raw
                .get("groups")
                .and_then(|v| v.as_arr())
                .ok_or_else(|| format!("entry {i}: missing groups"))?
                .iter()
                .map(|g| {
                    g.as_f64()
                        .filter(|&f| f.fract() == 0.0 && f >= 0.0 && f <= f64::from(u32::MAX))
                        .map(|f| f as u32)
                        .ok_or_else(|| format!("entry {i}: bad group size"))
                })
                .collect::<Result<Vec<u32>, String>>()?;
            let partition =
                WavePartition::try_new(groups).map_err(|e| format!("entry {i}: {e}"))?;
            let dims = GemmDims::try_new(field("m")?, field("n")?, field("k")?)
                .ok_or_else(|| format!("entry {i}: GEMM dimensions must be positive"))?;
            // Optional (absent in pre-verification snapshots): per-group
            // wait thresholds, cross-checked against the rebuilt plan at
            // preload time.
            let thresholds = match raw.get("thresholds").and_then(|v| v.as_arr()) {
                None => None,
                Some(arr) => Some(
                    arr.iter()
                        .map(|t| {
                            t.as_f64()
                                .filter(|&f| {
                                    f.fract() == 0.0 && f >= 0.0 && f <= f64::from(u32::MAX)
                                })
                                .map(|f| f as u32)
                                .ok_or_else(|| format!("entry {i}: bad threshold"))
                        })
                        .collect::<Result<Vec<u32>, String>>()?,
                ),
            };
            entries.push(PlanEntry {
                dims,
                primitive,
                groups: partition.sizes().to_vec(),
                thresholds,
            });
        }
        Ok(CacheSnapshot { system_fp, entries })
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use flashoverlap::predictive_search;

    fn system() -> SystemSpec {
        SystemSpec::rtx4090(2)
    }

    #[test]
    fn second_lookup_hits_and_reuses_the_plan() {
        let mut cache = PlanCache::new(8);
        let dims = GemmDims::new(256, 2048, 704);
        let sys = system();
        let (a, hit_a) = cache
            .get_or_tune(dims, &CommPattern::AllReduce, &sys)
            .unwrap();
        let (b, hit_b) = cache
            .get_or_tune(dims, &CommPattern::AllReduce, &sys)
            .unwrap();
        assert!(!hit_a && hit_b);
        assert!(Rc::ptr_eq(&a, &b), "hit must return the cached plan");
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.evictions), (1, 1, 0));
        assert!(stats.tune_evaluated > 0, "miss must run predictive search");
        assert!((cache.stats().hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn keyed_lookup_shares_entries_with_get_or_tune() {
        let mut cache = PlanCache::new(8);
        let dims = GemmDims::new(256, 2048, 704);
        let sys = system();
        let (a, _) = cache
            .get_or_tune(dims, &CommPattern::AllReduce, &sys)
            .unwrap();
        let key = PlanKey {
            dims,
            primitive: Primitive::AllReduce,
            system_fp: system_fingerprint(&sys),
        };
        let (b, hit) = cache
            .get_or_adopt(key, &CommPattern::AllReduce, &sys, [])
            .unwrap();
        assert!(hit && Rc::ptr_eq(&a, &b));
    }

    #[test]
    fn a_miss_tunes_with_one_profile_and_predicts_like_a_fresh_plan() {
        // The miss goes through `tune_plan`, which hands the search's
        // predictor to the plan; its predictions and search count must
        // equal a separate search and a plan built afresh from it.
        let sys = system();
        for dims in [
            GemmDims::new(256, 2048, 704),
            GemmDims::new(2048, 4096, 3584),
        ] {
            let mut cache = PlanCache::new(8);
            let (plan, _) = cache
                .get_or_tune(dims, &CommPattern::AllReduce, &sys)
                .unwrap();
            let outcome = predictive_search(dims, Primitive::AllReduce, &sys);
            assert_eq!(cache.stats().tune_evaluated, outcome.evaluated as u64);
            let fresh =
                OverlapPlan::new(dims, CommPattern::AllReduce, sys.clone(), outcome.partition)
                    .unwrap();
            assert_eq!(plan.partition, fresh.partition);
            assert_eq!(plan.expected_latency(), fresh.expected_latency());
            assert_eq!(
                plan.predicted_group_completions(),
                fresh.predicted_group_completions()
            );
        }
    }

    #[test]
    fn lru_evicts_the_stalest_shape() {
        let mut cache = PlanCache::new(2);
        let sys = system();
        let d1 = GemmDims::new(128, 2048, 704);
        let d2 = GemmDims::new(256, 2048, 704);
        let d3 = GemmDims::new(384, 2048, 704);
        cache
            .get_or_tune(d1, &CommPattern::AllReduce, &sys)
            .unwrap();
        cache
            .get_or_tune(d2, &CommPattern::AllReduce, &sys)
            .unwrap();
        // Touch d1 so d2 is the LRU, then overflow with d3.
        cache
            .get_or_tune(d1, &CommPattern::AllReduce, &sys)
            .unwrap();
        cache
            .get_or_tune(d3, &CommPattern::AllReduce, &sys)
            .unwrap();
        assert_eq!(cache.stats().evictions, 1);
        assert_eq!(cache.len(), 2);
        let (_, d1_hit) = cache
            .get_or_tune(d1, &CommPattern::AllReduce, &sys)
            .unwrap();
        assert!(d1_hit, "recently used entry must survive eviction");
        let (_, d2_hit) = cache
            .get_or_tune(d2, &CommPattern::AllReduce, &sys)
            .unwrap();
        assert!(!d2_hit, "LRU entry must have been evicted");
    }

    #[test]
    fn fingerprint_separates_systems() {
        let a = SystemSpec::rtx4090(2);
        let b = SystemSpec::rtx4090(4);
        let c = SystemSpec::a800(2);
        assert_ne!(system_fingerprint(&a), system_fingerprint(&b));
        assert_ne!(system_fingerprint(&a), system_fingerprint(&c));
        // Node layout changes the fingerprint: multi-node plans must not
        // alias single-node ones.
        let flat = SystemSpec::a800(8);
        let tiered = SystemSpec::a800(8).with_nodes(2);
        assert_ne!(system_fingerprint(&flat), system_fingerprint(&tiered));
        assert_eq!(
            system_fingerprint(&a),
            system_fingerprint(&SystemSpec::rtx4090(2))
        );
    }

    #[test]
    fn snapshot_round_trips_thresholds_through_json() {
        let mut cache = PlanCache::new(4);
        let sys = system();
        let dims = GemmDims::new(256, 2048, 704);
        cache
            .get_or_tune(dims, &CommPattern::AllReduce, &sys)
            .unwrap();
        let fp = system_fingerprint(&sys);
        let snapshot = CacheSnapshot {
            system_fp: fp,
            entries: cache.export_entries(fp),
        };
        let entry = &snapshot.entries[0];
        assert!(
            entry.thresholds.is_some(),
            "exports persist the wait thresholds"
        );
        let parsed = CacheSnapshot::from_json(&snapshot.to_json()).unwrap();
        assert_eq!(parsed, snapshot);
        // A fresh cache accepts the snapshot (thresholds cross-check
        // against the rebuilt plan) ...
        let mut fresh = PlanCache::new(4);
        assert_eq!(fresh.preload(&sys, &parsed.entries).unwrap(), 1);
        // ... and entries without thresholds (older snapshots) still load.
        let mut legacy_entries = parsed.entries.clone();
        legacy_entries[0].thresholds = None;
        let mut legacy = PlanCache::new(4);
        assert_eq!(legacy.preload(&sys, &legacy_entries).unwrap(), 1);
    }

    #[test]
    fn snapshot_rejects_empty_partitions_and_zero_dimensions() {
        let doc = |entry: &str| {
            format!(
                r#"{{"kind": "flashoverlap-plan-cache", "system_fp": "1", "entries": [{entry}]}}"#
            )
        };
        let err = CacheSnapshot::from_json(&doc(
            r#"{"m": 256, "n": 2048, "k": 704, "primitive": "AllReduce", "groups": []}"#,
        ))
        .unwrap_err();
        assert_eq!(
            err,
            "entry 0: bad inputs: partition needs at least one group"
        );
        let err = CacheSnapshot::from_json(&doc(
            r#"{"m": 256, "n": 2048, "k": 704, "primitive": "AllReduce", "groups": [1, 0]}"#,
        ))
        .unwrap_err();
        assert_eq!(err, "entry 0: bad inputs: group sizes must be positive");
        let err = CacheSnapshot::from_json(&doc(
            r#"{"m": 0, "n": 2048, "k": 704, "primitive": "AllReduce", "groups": [1]}"#,
        ))
        .unwrap_err();
        assert_eq!(err, "entry 0: GEMM dimensions must be positive");
        // Programmatic entries reach the same rule at preload time.
        let entry = PlanEntry {
            dims: GemmDims::new(256, 2048, 704),
            primitive: Primitive::AllReduce,
            groups: Vec::new(),
            thresholds: None,
        };
        assert!(matches!(
            PlanCache::new(4).preload(&system(), &[entry]),
            Err(FlashOverlapError::BadInputs { .. })
        ));
    }

    #[test]
    fn preload_rejects_threshold_mismatch_naming_shape_and_group() {
        let mut cache = PlanCache::new(4);
        let sys = system();
        let dims = GemmDims::new(256, 2048, 704);
        cache
            .get_or_tune(dims, &CommPattern::AllReduce, &sys)
            .unwrap();
        let fp = system_fingerprint(&sys);
        let mut entries = cache.export_entries(fp);
        // Corrupt one persisted threshold (DropIncrements-shaped damage).
        let thresholds = entries[0].thresholds.as_mut().unwrap();
        thresholds[0] += 7;
        let bad = thresholds[0];
        let mut fresh = PlanCache::new(4);
        let err = fresh.preload(&sys, &entries).unwrap_err();
        let text = err.to_string();
        assert!(text.contains("256x2048x704"), "{text}");
        assert!(text.contains("group 0"), "{text}");
        assert!(text.contains(&format!("threshold {bad}")), "{text}");
        // Wrong group count is also caught at load time.
        let mut truncated = cache.export_entries(fp);
        truncated[0].thresholds.as_mut().unwrap().pop();
        let err = fresh.preload(&sys, &truncated).unwrap_err();
        assert!(err.to_string().contains("thresholds"), "{err}");
    }

    #[test]
    fn a_miss_adopts_a_siblings_tuned_plan_but_never_its_preload() {
        let sys = system();
        let fp = system_fingerprint(&sys);
        let dims = GemmDims::new(2048, 4096, 3584);
        let key = PlanKey {
            dims,
            primitive: Primitive::AllReduce,
            system_fp: fp,
        };
        let pattern = CommPattern::AllReduce;
        let mut tuner = PlanCache::new(4);
        let (tuned, _) = tuner.get_or_tune(dims, &pattern, &sys).unwrap();
        let tuner_stats = tuner.stats();
        let mut adopter = PlanCache::new(4);
        let (adopted, hit) = adopter.get_or_adopt(key, &pattern, &sys, [&tuner]).unwrap();
        assert!(!hit && Rc::ptr_eq(&tuned, &adopted));
        assert_eq!(adopter.stats(), tuner_stats, "the same logical miss");
        assert_eq!(tuner.stats(), tuner_stats, "the sibling is only read");
        assert_eq!((tuner.tunes(), adopter.tunes()), (1, 0));

        // A preload of another partition is not what a miss tunes.
        let mut entries = tuner.export_entries(fp);
        entries[0].groups = match entries[0].groups.as_slice() {
            [a, b, rest @ ..] => [&[a + b], rest].concat(),
            [n] => vec![1, n - 1],
            [] => unreachable!("a plan has a group"),
        };
        entries[0].thresholds = None;
        let mut preloaded = PlanCache::new(4);
        assert_eq!(preloaded.preload(&sys, &entries).unwrap(), 1);
        let mut fresh = PlanCache::new(4);
        let (plan, _) = fresh
            .get_or_adopt(key, &pattern, &sys, [&preloaded])
            .unwrap();
        assert_eq!(plan.partition, tuned.partition);
        assert_eq!(fresh.tunes(), 1);
    }

    #[test]
    fn untuned_cache_builds_single_group_plans() {
        let mut cache = PlanCache::new_untuned(4);
        let dims = GemmDims::new(256, 2048, 704);
        let (plan, _) = cache
            .get_or_tune(dims, &CommPattern::AllReduce, &system())
            .unwrap();
        assert_eq!(plan.partition.num_groups(), 1, "baseline is non-overlap");
        assert_eq!(cache.stats().tune_evaluated, 0, "baseline never tunes");
    }
}
