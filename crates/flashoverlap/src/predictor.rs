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

use std::cell::Cell;

use collectives::{tiered_duration, Algorithm, Primitive, BYTES_PER_ELEM};
use gpu_sim::gemm::{gemm_estimate, GemmConfig, GemmDims};
use interconnect::{LogSpacing, SampledCurve};
use sim::SimDuration;
use topology::Topology;

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
    pub curve: CommCurve,
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
        let curve = CommCurve {
            spacing: LogSpacing::new(min_bytes, max_bytes, Self::CURVE_POINTS),
            primitive,
            topology: system.topology.clone(),
            algorithm: system.algorithm,
            sizes: std::array::from_fn(|_| Cell::new(UNSAMPLED)),
            nanos: std::array::from_fn(|_| Cell::new(UNSAMPLED)),
        };

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

/// Marks a [`CommCurve`] size or duration not computed yet.
const UNSAMPLED: u64 = u64::MAX;

/// The offline stage's communication latency curve (Fig. 8): the
/// primitive's duration sampled at [`OfflineProfile::CURVE_POINTS`]
/// log-spaced sizes and interpolated in between.
///
/// A point is sampled the first time an interpolation needs it: a
/// search touches a handful of group sizes, so it samples a handful of
/// points, not the whole grid. Every interpolation equals the one over
/// the fully sampled curve ([`CommCurve::sampled`]).
#[derive(Debug, Clone)]
pub struct CommCurve {
    spacing: LogSpacing,
    primitive: Primitive,
    topology: Topology,
    algorithm: Algorithm,
    /// Size `i` of the spacing, once computed.
    sizes: [Cell<u64>; OfflineProfile::CURVE_POINTS],
    /// Duration in nanoseconds at size `i`, once sampled.
    nanos: [Cell<u64>; OfflineProfile::CURVE_POINTS],
}

impl CommCurve {
    /// Size `i` of the sampling grid.
    fn size(&self, i: usize) -> u64 {
        let cell = &self.sizes[i];
        if cell.get() == UNSAMPLED {
            cell.set(self.spacing.size(i));
        }
        cell.get()
    }

    /// Duration in nanoseconds at size `i`.
    fn nanos(&self, i: usize) -> u64 {
        let cell = &self.nanos[i];
        if cell.get() == UNSAMPLED {
            let bytes = self.size(i);
            cell.set(
                tiered_duration(self.primitive, bytes, &self.topology, self.algorithm).as_nanos(),
            );
        }
        cell.get()
    }

    /// Interpolated duration for a transfer of `bytes`: exactly
    /// [`SampledCurve::interpolate`] over [`CommCurve::sampled`].
    pub fn interpolate(&self, bytes: u64) -> SimDuration {
        let n = self.spacing.count();
        let last = n - 1;
        // Sizes never decrease, so the sizes at most `bytes` are a
        // prefix of length `p`.
        let (mut lo, mut hi) = (0, n);
        while lo < hi {
            let mid = (lo + hi) / 2;
            if self.size(mid) <= bytes {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        let p = lo;
        // The segment of the deduplicated curve around `bytes`, clamped
        // to the first or last one beyond the sampled range.
        let (i0, i1) = if p == 0 {
            let first = self.size(0);
            match (1..n).find(|&i| self.size(i) != first) {
                Some(i1) => (0, i1),
                None => return SimDuration::from_nanos(self.nanos(0)),
            }
        } else if p == n {
            let top = self.size(last);
            match (0..last).rev().find(|&i| self.size(i) != top) {
                Some(i0) => (i0, last),
                None => return SimDuration::from_nanos(self.nanos(0)),
            }
        } else {
            (p - 1, p)
        };
        let (x0, y0) = (self.size(i0), self.nanos(i0));
        let (x1, y1) = (self.size(i1), self.nanos(i1));
        let t = (bytes as f64 - x0 as f64) / (x1 as f64 - x0 as f64);
        let ns = y0 as f64 + t * (y1 as f64 - y0 as f64);
        SimDuration::from_secs_f64((ns / 1e9).max(0.0))
    }

    /// The fully sampled curve: every point of the grid.
    pub fn sampled(&self) -> SampledCurve {
        SampledCurve::from_points(
            (0..self.spacing.count())
                .map(|i| (self.size(i), SimDuration::from_nanos(self.nanos(i))))
                .collect(),
        )
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
        self.predict_sizes(partition.sizes())
    }

    /// [`LatencyPredictor::predict`] of the partition with group sizes
    /// `sizes`, for a search that scores candidates without building
    /// each one's [`WavePartition`].
    pub(crate) fn predict_sizes(&self, sizes: &[u32]) -> SimDuration {
        let mut comm_done = 0.0f64;
        let time = self.walk(sizes, |done| comm_done = done);
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
        self.walk(partition.sizes(), |done| {
            completions.push(SimDuration::from_nanos(done as u64));
        });
        completions
    }

    /// Tiles in waves `0..waves`: every wave but a partial tail is full.
    fn tiles_through(&self, waves: u32) -> u64 {
        (u64::from(waves) * u64::from(self.profile.wave_width))
            .min(u64::from(self.profile.total_tiles))
    }

    /// The collective duration (ns) of the group of waves
    /// `start..start + size`.
    fn group_payload(&self, start: u32, size: u32) -> f64 {
        let tiles = self.tiles_through(start + size) - self.tiles_through(start);
        let bytes = tiles * self.profile.tile_elems * BYTES_PER_ELEM;
        let comm = self.profile.curve.interpolate(bytes).as_nanos() as f64;
        if self.profile.primitive == Primitive::AllToAll {
            // Dynamic routing makes per-group All-to-All traffic
            // uneven across ranks, and the slowest rank bounds the
            // exchange (Sec. 2.3: "inherent workload imbalance").
            // The curve models balanced traffic, so scoring adds a
            // margin to avoid over-fragmenting.
            comm * ALL_TO_ALL_IMBALANCE_MARGIN
        } else {
            comm
        }
    }

    /// Walks the GEMM wave by wave, calling `on_group` with each group's
    /// collective completion time as it is scheduled, and returns when
    /// the GEMM finishes. Allocates nothing: each group's threshold and
    /// payload are derived when the walk reaches it.
    fn walk(&self, sizes: &[u32], mut on_group: impl FnMut(f64)) -> f64 {
        assert_eq!(
            sizes.iter().sum::<u32>(),
            self.profile.total_waves,
            "partition does not match profiled wave count"
        );
        let per_wave_ns =
            self.profile.gemm_duration.as_nanos() as f64 / self.profile.total_waves as f64;
        // The next group's cumulative signaling threshold (tiles) and
        // payload (ns), advanced by a running wave cursor.
        let mut groups = sizes.iter();
        let mut group_start = 0u32;
        let mut next_group = |size: u32| {
            let start = group_start;
            group_start += size;
            (
                self.tiles_through(group_start),
                self.group_payload(start, size),
            )
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

/// The predictor walk the plain way, kept as the oracle: thresholds
/// and payloads of every group up front, summed wave by wave and
/// interpolated on the fully sampled curve, then the wave loop. Returns
/// when the GEMM finishes and each group's collective completion.
#[cfg(test)]
pub(crate) fn tabled_walk(p: &OfflineProfile, sizes: &[u32]) -> (f64, Vec<f64>) {
    let curve = p.curve.sampled();
    let per_wave_ns = p.gemm_duration.as_nanos() as f64 / p.total_waves as f64;
    let mut thresholds = Vec::new();
    let mut payloads = Vec::new();
    let (mut start, mut acc_tiles) = (0u32, 0u64);
    for &size in sizes {
        let tiles: u64 = (start..start + size)
            .map(|w| u64::from(p.wave_tiles(w)))
            .sum();
        acc_tiles += tiles;
        thresholds.push(acc_tiles);
        let mut comm = curve
            .interpolate(p.group_bytes(start, start + size))
            .as_nanos() as f64;
        if p.primitive == Primitive::AllToAll {
            comm *= ALL_TO_ALL_IMBALANCE_MARGIN;
        }
        payloads.push(comm);
        start += size;
    }
    let (mut time, mut tiles_done) = (0.0f64, 0u64);
    let (mut comm_busy_from, mut comm_free) = (f64::INFINITY, 0.0f64);
    let mut completions = Vec::new();
    while tiles_done < u64::from(p.total_tiles) {
        let width = if comm_busy_from < time && time < comm_free {
            p.wave_width
        } else {
            p.full_wave_width
        };
        tiles_done += u64::from(width);
        time += per_wave_ns;
        while let Some(&threshold) = thresholds.get(completions.len()) {
            if tiles_done < threshold {
                break;
            }
            let payload = payloads.get(completions.len()).copied().unwrap_or(0.0);
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

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Random shapes, both topology tiers, every primitive and random
        /// partitions: the allocation-free walk over the on-demand curve
        /// is bit-equal to the tabled one over the fully sampled curve,
        /// and so are `predict` and `predict_group_completions`.
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
                let (time, completions) = tabled_walk(p.profile(), partition.sizes());
                let mut walked = Vec::new();
                let walked_time = p.walk(partition.sizes(), |done| walked.push(done));
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

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Random shapes on every topology tier and primitive, queried
        /// below, inside and beyond the sampled range in random order:
        /// the on-demand curve interpolates exactly like the eagerly
        /// sampled one the offline stage used to build.
        #[test]
        fn on_demand_curve_equals_the_eagerly_sampled_curve(
            seed in any::<u64>(),
            m in 1u32..6000,
            n in 1u32..9000,
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
            let dims = GemmDims::new(m, n, 1024);
            let profile = OfflineProfile::build(dims, primitive, &system);
            let max_bytes = (dims.out_elems() * BYTES_PER_ELEM).max(2 * BYTES_PER_ELEM);
            let min_bytes = (profile.config.tile.elems() * BYTES_PER_ELEM)
                .min(max_bytes / 2)
                .max(2);
            let eager = SampledCurve::from_points(
                interconnect::log_spaced_sizes(min_bytes, max_bytes, OfflineProfile::CURVE_POINTS)
                    .into_iter()
                    .map(|b| (b, tiered_duration(primitive, b, &system.topology, system.algorithm)))
                    .collect(),
            );
            let mut rng = sim::DetRng::new(seed);
            for _ in 0..24 {
                let bytes = match rng.next_below(4) {
                    0 => rng.next_below(min_bytes + 1),
                    1 => max_bytes + rng.next_below(max_bytes),
                    _ => min_bytes + rng.next_below(max_bytes - min_bytes + 1),
                };
                prop_assert_eq!(profile.curve.interpolate(bytes), eager.interpolate(bytes), "{} bytes", bytes);
            }
            let sampled: Vec<_> = profile.curve.sampled().points().collect();
            prop_assert_eq!(sampled, eager.points().collect::<Vec<_>>());
        }
    }

    #[test]
    fn a_search_samples_only_the_points_it_reaches() {
        let p = predictor();
        let waves = p.profile().total_waves;
        let _ = p.predict(&WavePartition::per_wave(waves));
        let sampled = p
            .profile()
            .curve
            .nanos
            .iter()
            .filter(|c| c.get() != UNSAMPLED)
            .count();
        assert!(
            (2..OfflineProfile::CURVE_POINTS / 2).contains(&sampled),
            "{sampled} of {} points sampled",
            OfflineProfile::CURVE_POINTS
        );
    }

    #[test]
    #[should_panic(expected = "does not match")]
    fn wrong_wave_count_panics() {
        let p = predictor();
        let _ = p.predict(&WavePartition::new(vec![1, 1]));
    }
}
