//! The latency predictor and offline profiling stage (§4, Alg. 1).
//!
//! Tuning must be real-time (§4.1.2), so candidate partitions are scored
//! by a cost model instead of online profiling. The model needs two
//! offline artifacts per (shape, primitive, system):
//!
//! 1. the GEMM configuration and its duration under the SM count left
//!    after the communication kernel takes its share (Alg. 1 line 3), and
//! 2. the sampled `(data size, latency)` curve of the communication
//!    primitive (Fig. 8), interpolated at query time.
//!
//! Prediction then walks the groups, accumulating computation linearly
//! (the GEMM is never interrupted) and communication as
//! `acc_comm = max(acc_comp, acc_comm) + comm(group)` — each group's
//! collective starts only after its waves computed *and* the previous
//! collective drained the stream.

use collectives::{tiered_duration, Primitive, BYTES_PER_ELEM};
use gpu_sim::gemm::{gemm_estimate, GemmConfig, GemmDims};
use interconnect::{log_spaced_sizes, SampledCurve};
use sim::SimDuration;

use crate::partition::WavePartition;
use crate::system::SystemSpec;

/// The offline-profiled inputs of the predictor.
#[derive(Debug, Clone)]
pub struct OfflineProfile {
    /// Problem shape.
    pub dims: GemmDims,
    /// Primitive being overlapped.
    pub primitive: Primitive,
    /// GEMM configuration (the CUTLASS-profiler step).
    pub config: GemmConfig,
    /// Planned wave count with communication SMs subtracted.
    pub total_waves: u32,
    /// GEMM duration under contention-adjusted SMs.
    pub gemm_duration: SimDuration,
    /// Sampled communication latency curve.
    pub curve: SampledCurve,
    /// Tiles per full wave under communication contention.
    pub wave_width: u32,
    /// Tiles per full wave with every SM available (before the first
    /// collective launches).
    pub full_wave_width: u32,
    /// Total tiles.
    pub total_tiles: u32,
    /// Elements per full tile.
    pub tile_elems: u64,
}

impl OfflineProfile {
    /// Number of curve sample points (dense enough for <1% interpolation
    /// error on the saturating fabric models).
    pub const CURVE_POINTS: usize = 48;

    /// Runs the offline stage for one (shape, primitive, system) triple.
    pub fn build(dims: GemmDims, primitive: Primitive, system: &SystemSpec) -> Self {
        let config = GemmConfig::choose(dims, &system.arch);
        let grid = config.grid(dims);
        let sms = system.compute_sms();
        let (total_waves, gemm_duration) = gemm_estimate(dims, &config, sms, &system.arch);

        // Sample the communication latency curve over the range a group
        // can span: one tile up to the whole output. Charging goes through
        // the tiered cost model, so on a multi-node topology the curve
        // reflects the hierarchical schedule (inter-tier bandwidth on the
        // leader phase) and `predictive_search` tunes node-spanning groups
        // differently from single-node ones.
        // A one-element output still spans a two-point curve.
        let max_bytes = (dims.out_elems() * BYTES_PER_ELEM).max(2 * BYTES_PER_ELEM);
        let min_bytes = (config.tile.elems() * BYTES_PER_ELEM)
            .min(max_bytes / 2)
            .max(2);
        let sizes = log_spaced_sizes(min_bytes, max_bytes, Self::CURVE_POINTS);
        let curve = SampledCurve::from_points(
            sizes
                .into_iter()
                .map(|bytes| {
                    (
                        bytes,
                        tiered_duration(primitive, bytes, &system.topology, system.algorithm),
                    )
                })
                .collect(),
        );

        OfflineProfile {
            dims,
            primitive,
            config,
            total_waves,
            gemm_duration,
            curve,
            wave_width: sms,
            full_wave_width: system.arch.sm_count,
            total_tiles: grid.num_tiles(),
            tile_elems: config.tile.elems(),
        }
    }

    /// Tiles in wave `w` (tail waves are partial).
    pub fn wave_tiles(&self, w: u32) -> u32 {
        let done = w * self.wave_width;
        self.wave_width.min(self.total_tiles.saturating_sub(done))
    }

    /// Approximate communicated bytes of a group of waves `[start, end)`.
    pub fn group_bytes(&self, start: u32, end: u32) -> u64 {
        let tiles: u64 = (start..end).map(|w| self.wave_tiles(w) as u64).sum();
        tiles * self.tile_elems * BYTES_PER_ELEM
    }
}

/// Imbalance safety margin applied to predicted All-to-All group
/// latencies (see [`LatencyPredictor::predict`]).
pub const ALL_TO_ALL_IMBALANCE_MARGIN: f64 = 1.12;

/// The Alg. 1 latency predictor over a fixed offline profile.
///
/// # Examples
///
/// ```
/// use collectives::Primitive;
/// use flashoverlap::{LatencyPredictor, SystemSpec, WavePartition};
/// use gpu_sim::gemm::GemmDims;
///
/// let system = SystemSpec::rtx4090(4);
/// let predictor = LatencyPredictor::build(
///     GemmDims::new(4096, 8192, 8192),
///     Primitive::AllReduce,
///     &system,
/// );
/// let waves = predictor.profile().total_waves;
/// let overlapped = predictor.predict(&WavePartition::per_wave(waves));
/// let serial = predictor.predict_serial();
/// assert!(overlapped < serial, "overlap must be predicted to help here");
/// ```
#[derive(Debug, Clone)]
pub struct LatencyPredictor {
    profile: OfflineProfile,
}

impl LatencyPredictor {
    /// Wraps an offline profile.
    pub fn new(profile: OfflineProfile) -> Self {
        LatencyPredictor { profile }
    }

    /// Builds profile and predictor in one step.
    pub fn build(dims: GemmDims, primitive: Primitive, system: &SystemSpec) -> Self {
        Self::new(OfflineProfile::build(dims, primitive, system))
    }

    /// The underlying profile.
    pub fn profile(&self) -> &OfflineProfile {
        &self.profile
    }

    /// Predicts the overlapped operator latency of a wave partition.
    ///
    /// # Panics
    ///
    /// Panics if the partition does not cover the profiled wave count.
    pub fn predict(&self, partition: &WavePartition) -> SimDuration {
        let mut comm_done = 0.0f64;
        let time = self.walk(partition, |done| comm_done = done);
        SimDuration::from_nanos(comm_done.max(time) as u64)
    }

    /// Predicts when each group's collective completes (absolute, from
    /// GEMM launch) — the per-wait deadlines the watchdog runtime derives
    /// its escalation timers from. The last entry equals
    /// [`LatencyPredictor::predict`] when communication is the tail.
    ///
    /// # Panics
    ///
    /// Panics if the partition does not cover the profiled wave count.
    pub fn predict_group_completions(&self, partition: &WavePartition) -> Vec<SimDuration> {
        let mut completions = Vec::with_capacity(partition.num_groups());
        self.walk(partition, |done| {
            completions.push(SimDuration::from_nanos(done as u64));
        });
        completions
    }

    /// Walks the GEMM wave by wave, calling `on_group` with each group's
    /// collective completion time as it is scheduled, and returns when
    /// the GEMM finishes. Allocates nothing: each group's threshold and
    /// payload are derived when the walk reaches it.
    fn walk(&self, partition: &WavePartition, mut on_group: impl FnMut(f64)) -> f64 {
        assert_eq!(
            partition.total_waves(),
            self.profile.total_waves,
            "partition does not match profiled wave count"
        );
        let per_wave_ns =
            self.profile.gemm_duration.as_nanos() as f64 / self.profile.total_waves as f64;
        // The next group's cumulative signaling threshold (tiles) and
        // payload (ns), advanced by a running wave cursor.
        let mut groups = partition.sizes().iter();
        let mut group_start = 0u32;
        let mut acc_tiles = 0u64;
        let mut next_group = |size: u32| {
            let range = group_start..group_start + size;
            group_start = range.end;
            let tiles: u64 = range.map(|w| self.profile.wave_tiles(w) as u64).sum();
            acc_tiles += tiles;
            let bytes = tiles * self.profile.tile_elems * BYTES_PER_ELEM;
            let mut comm = self.profile.curve.interpolate(bytes).as_nanos() as f64;
            if self.profile.primitive == Primitive::AllToAll {
                // Dynamic routing makes per-group All-to-All traffic
                // uneven across ranks, and the slowest rank bounds the
                // exchange (Sec. 2.3: "inherent workload imbalance").
                // The curve models balanced traffic, so scoring adds a
                // margin to avoid over-fragmenting.
                comm *= ALL_TO_ALL_IMBALANCE_MARGIN;
            }
            (acc_tiles, comm)
        };
        let mut pending = groups.next().map(|&size| next_group(size));

        // Walk the GEMM wave by wave, exactly like the runtime: each wave
        // takes one tile-time; its width is the full SM count unless a
        // collective is in flight when it starts (communication SMs are
        // held only while a collective runs — a refinement of Alg. 1
        // line 3, which assumes contention for the whole GEMM).
        let total_tiles = self.profile.total_tiles as u64;
        let mut time = 0.0f64;
        let mut tiles_done = 0u64;
        // The communication stream is busy over [comm_busy_from,
        // comm_free): calls serialize, and a new busy period opens when a
        // group signals after the previous calls drained.
        let mut comm_busy_from = f64::INFINITY;
        let mut comm_free = 0.0f64;
        while tiles_done < total_tiles {
            // A wave dispatches the moment the previous one retires —
            // before a just-signalled collective can grab its SMs — so it
            // contends only with collectives already in flight at that
            // instant.
            let width = if comm_busy_from < time && time < comm_free {
                self.profile.wave_width
            } else {
                self.profile.full_wave_width
            };
            tiles_done += width as u64;
            time += per_wave_ns;
            while let Some((threshold, payload)) = pending {
                if tiles_done < threshold {
                    break;
                }
                if comm_free <= time {
                    comm_busy_from = time;
                    comm_free = time + payload;
                } else {
                    comm_free += payload;
                }
                on_group(comm_free);
                pending = groups.next().map(|&size| next_group(size));
            }
        }
        debug_assert!(pending.is_none(), "every group signalled");
        time
    }

    /// Predicted latency of the non-overlapped execution (single group).
    pub fn predict_serial(&self) -> SimDuration {
        self.predict(&WavePartition::single(self.profile.total_waves))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn predictor() -> LatencyPredictor {
        // K chosen so computation and communication are roughly balanced
        // on the 4-GPU PCIe system (the regime overlap targets).
        LatencyPredictor::build(
            GemmDims::new(4096, 8192, 16384),
            Primitive::AllReduce,
            &SystemSpec::rtx4090(4),
        )
    }

    #[test]
    fn profile_matches_paper_wave_example() {
        // Sec. 4.1.2: M=4096, N=8192 with 256x128 tiles gives 1024 tiles.
        let p = predictor();
        assert_eq!(p.profile().total_tiles, 1024);
        // With 128-16 = 112 compute SMs, 1024 tiles take 10 waves.
        assert_eq!(p.profile().total_waves, 1024u32.div_ceil(112));
    }

    #[test]
    fn group_bytes_sum_to_output_bytes() {
        let p = predictor();
        let profile = p.profile();
        let total = profile.group_bytes(0, profile.total_waves);
        assert_eq!(
            total,
            4096 * 8192 * BYTES_PER_ELEM,
            "all waves together communicate the whole output"
        );
    }

    #[test]
    fn wave_tiles_has_partial_tail() {
        let p = predictor();
        let profile = p.profile();
        let t = profile.total_waves;
        assert_eq!(profile.wave_tiles(0), profile.wave_width);
        let tail = profile.wave_tiles(t - 1);
        assert!(tail > 0 && tail <= profile.wave_width);
        let sum: u32 = (0..t).map(|w| profile.wave_tiles(w)).sum();
        assert_eq!(sum, profile.total_tiles);
    }

    #[test]
    fn overlap_prediction_beats_serial_for_balanced_shapes() {
        let p = predictor();
        let t = p.profile().total_waves;
        let serial = p.predict_serial();
        let grouped = p.predict(&WavePartition::new(vec![2; t as usize / 2]));
        assert!(grouped < serial, "grouped {grouped} vs serial {serial}");
    }

    #[test]
    fn per_wave_partition_pays_fragmentation() {
        // On PCIe the per-wave baseline partition fragments communication
        // enough that a coarser grouping wins (Sec. 4.1.1). Use a
        // communication-leaning K so per-group transfers sit on the
        // bandwidth cliff.
        let p = LatencyPredictor::build(
            GemmDims::new(4096, 8192, 6144),
            Primitive::AllReduce,
            &SystemSpec::rtx4090(4),
        );
        let t = p.profile().total_waves;
        let per_wave = p.predict(&WavePartition::per_wave(t));
        let mut best_grouped = per_wave;
        for size in [2u32, 3] {
            let mut sizes = vec![size; (t / size) as usize];
            let covered: u32 = sizes.iter().sum();
            if covered < t {
                sizes.push(t - covered);
            }
            best_grouped = best_grouped.min(p.predict(&WavePartition::new(sizes)));
        }
        assert!(best_grouped < per_wave);
    }

    #[test]
    fn prediction_is_at_least_computation() {
        let p = predictor();
        let t = p.profile().total_waves;
        for partition in [
            WavePartition::single(t),
            WavePartition::per_wave(t),
            WavePartition::new(vec![1, t - 1]),
        ] {
            assert!(p.predict(&partition) > p.profile().gemm_duration);
        }
    }

    #[test]
    fn group_completions_are_monotone_and_end_at_prediction() {
        let p = predictor();
        let t = p.profile().total_waves;
        let partition = WavePartition::new(vec![2; t as usize / 2]);
        let completions = p.predict_group_completions(&partition);
        assert_eq!(completions.len(), partition.num_groups());
        for pair in completions.windows(2) {
            assert!(pair[0] <= pair[1], "completions must not go backwards");
        }
        assert_eq!(*completions.last().unwrap(), p.predict(&partition));
    }

    /// The walk before it went allocation-free: thresholds and payloads
    /// for every group up front, then the wave loop. Kept as the oracle.
    fn walk_with_tables(p: &OfflineProfile, partition: &WavePartition) -> (f64, Vec<f64>) {
        let per_wave_ns = p.gemm_duration.as_nanos() as f64 / p.total_waves as f64;
        let mut thresholds = Vec::new();
        let mut payloads = Vec::new();
        let mut acc_tiles = 0u64;
        for g in 0..partition.num_groups() {
            let range = partition.wave_range(g);
            acc_tiles += range.clone().map(|w| p.wave_tiles(w) as u64).sum::<u64>();
            thresholds.push(acc_tiles);
            let mut comm = p
                .curve
                .interpolate(p.group_bytes(range.start, range.end))
                .as_nanos() as f64;
            if p.primitive == Primitive::AllToAll {
                comm *= ALL_TO_ALL_IMBALANCE_MARGIN;
            }
            payloads.push(comm);
        }
        let (mut time, mut tiles_done) = (0.0f64, 0u64);
        let (mut comm_busy_from, mut comm_free) = (f64::INFINITY, 0.0f64);
        let mut completions = Vec::new();
        while tiles_done < p.total_tiles as u64 {
            let width = if comm_busy_from < time && time < comm_free {
                p.wave_width
            } else {
                p.full_wave_width
            };
            tiles_done += width as u64;
            time += per_wave_ns;
            while completions.len() < thresholds.len()
                && tiles_done >= thresholds[completions.len()]
            {
                let payload = payloads[completions.len()];
                if comm_free <= time {
                    comm_busy_from = time;
                    comm_free = time + payload;
                } else {
                    comm_free += payload;
                }
                completions.push(comm_free);
            }
        }
        (time, completions)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Random shapes, both topology tiers, every primitive and random
        /// partitions: the allocation-free walk is bit-equal to the
        /// tabled one, and so are `predict` and
        /// `predict_group_completions`.
        #[test]
        fn walk_is_bit_equal_to_the_tabled_walk(
            seed in any::<u64>(),
            m in 1u32..6000,
            n in 1u32..9000,
            k in 1u32..20000,
            system in prop::sample::select(vec![0usize, 1, 2]),
            primitive in prop::sample::select(vec![
                Primitive::AllReduce,
                Primitive::ReduceScatter,
                Primitive::AllToAll,
                Primitive::AllGather,
            ]),
        ) {
            let system = match system {
                0 => SystemSpec::rtx4090(4),
                1 => SystemSpec::a800(8),
                _ => SystemSpec::a800(8).with_nodes(2),
            };
            let p = LatencyPredictor::build(GemmDims::new(m, n, k), primitive, &system);
            let waves = p.profile().total_waves;
            let mut rng = sim::DetRng::new(seed);
            let mut candidates = vec![WavePartition::single(waves), WavePartition::per_wave(waves)];
            for _ in 0..4 {
                let mut sizes = Vec::new();
                let mut left = waves;
                while left > 0 {
                    let size = rng.range_inclusive(1, u64::from(left.min(6))) as u32;
                    sizes.push(size);
                    left -= size;
                }
                candidates.push(WavePartition::new(sizes));
            }
            for partition in &candidates {
                let (time, completions) = walk_with_tables(p.profile(), partition);
                let mut walked = Vec::new();
                let walked_time = p.walk(partition, |done| walked.push(done));
                prop_assert_eq!(walked_time.to_bits(), time.to_bits());
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                prop_assert_eq!(bits(&walked), bits(&completions));
                let comm_done = completions.last().copied().unwrap_or(0.0);
                prop_assert_eq!(
                    p.predict(partition),
                    SimDuration::from_nanos(comm_done.max(time) as u64)
                );
                let expected: Vec<SimDuration> = completions
                    .iter()
                    .map(|&ns| SimDuration::from_nanos(ns as u64))
                    .collect();
                prop_assert_eq!(p.predict_group_completions(partition), expected);
            }
        }
    }

    #[test]
    #[should_panic(expected = "does not match")]
    fn wrong_wave_count_panics() {
        let p = predictor();
        let _ = p.predict(&WavePartition::new(vec![1, 1]));
    }
}
