//! Size-dependent effective bandwidth.

use sim::SimDuration;

/// An analytic effective-bandwidth model for one transfer direction.
///
/// Effective bandwidth follows the saturating curve
/// `bw(s) = peak * s / (s + s_half)`, which is the classic alpha-beta
/// (latency + bandwidth) cost model rewritten as a bandwidth curve: the
/// transfer time `s / bw(s) = s_half/peak + s/peak` is affine in the size
/// `s`. `s_half` is the message size at which half the peak bandwidth is
/// reached — the "cliff" in Fig. 8 sits below it.
///
/// # Examples
///
/// ```
/// use interconnect::BandwidthModel;
///
/// let link = BandwidthModel::new(12.0, 4 << 20, 20_000);
/// // Large transfers approach peak bandwidth...
/// assert!(link.effective_gbps(1 << 30) > 11.9);
/// // ...small transfers collapse far below it.
/// assert!(link.effective_gbps(64 << 10) < 0.5);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BandwidthModel {
    /// Saturated bandwidth in GB/s (1 GB = 1e9 bytes).
    pub peak_gbps: f64,
    /// Message size in bytes at which effective bandwidth is half of peak.
    pub s_half_bytes: f64,
    /// Fixed per-call overhead in nanoseconds (API call, kernel launch,
    /// protocol setup) added to every transfer.
    pub call_overhead_ns: u64,
}

impl BandwidthModel {
    /// Creates a model from peak GB/s, half-saturation size, and per-call
    /// overhead.
    ///
    /// # Panics
    ///
    /// Panics if `peak_gbps` or `s_half_bytes` is not positive.
    pub fn new(peak_gbps: f64, s_half_bytes: u64, call_overhead_ns: u64) -> Self {
        assert!(peak_gbps > 0.0, "peak bandwidth must be positive");
        assert!(s_half_bytes > 0, "half-saturation size must be positive");
        BandwidthModel {
            peak_gbps,
            s_half_bytes: s_half_bytes as f64,
            call_overhead_ns,
        }
    }

    /// Effective bandwidth in GB/s for a transfer of `bytes`.
    pub fn effective_gbps(&self, bytes: u64) -> f64 {
        if bytes == 0 {
            return 0.0;
        }
        let s = bytes as f64;
        self.peak_gbps * s / (s + self.s_half_bytes)
    }

    /// Pure wire time (no call overhead) for a transfer of `bytes`.
    pub fn wire_time(&self, bytes: u64) -> SimDuration {
        if bytes == 0 {
            return SimDuration::ZERO;
        }
        let secs = (bytes as f64 + self.s_half_bytes) / (self.peak_gbps * 1e9);
        SimDuration::from_secs_f64(secs)
    }

    /// Total time including the per-call overhead.
    pub fn transfer_time(&self, bytes: u64) -> SimDuration {
        SimDuration::from_nanos(self.call_overhead_ns) + self.wire_time(bytes)
    }
}

/// A piecewise-linear effective-bandwidth curve built from sampled
/// `(size, duration)` measurements.
///
/// This reproduces the paper's offline stage (§4.2.1): "the bandwidth curve
/// is sampled with multiple dense points, \[and\] given a data size, the
/// effective bandwidth can be accurately estimated through interpolation of
/// sampled points". FlashOverlap samples the *simulated* collectives the
/// same way the authors sampled their real machines, then interpolates in
/// duration space.
#[derive(Debug, Clone, Default)]
pub struct SampledCurve {
    /// `(bytes, duration_ns)` points, strictly increasing in bytes.
    points: Vec<(u64, u64)>,
}

impl SampledCurve {
    /// Creates an empty curve.
    pub fn new() -> Self {
        SampledCurve { points: Vec::new() }
    }

    /// Builds a curve from measurement points, sorting and deduplicating by
    /// size.
    pub fn from_points(mut points: Vec<(u64, SimDuration)>) -> Self {
        points.sort_by_key(|&(bytes, _)| bytes);
        points.dedup_by_key(|&mut (bytes, _)| bytes);
        SampledCurve {
            points: points.into_iter().map(|(b, d)| (b, d.as_nanos())).collect(),
        }
    }

    /// Number of sample points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Returns true if the curve has no samples.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Interpolated duration for a transfer of `bytes` (linear between the
    /// surrounding samples, linear extrapolation beyond the extremes).
    ///
    /// # Panics
    ///
    /// Panics if the curve is empty.
    pub fn interpolate(&self, bytes: u64) -> SimDuration {
        assert!(!self.points.is_empty(), "interpolating an empty curve");
        if self.points.len() == 1 {
            return SimDuration::from_nanos(self.points[0].1);
        }
        // Pick the surrounding segment, clamping to the first/last segment
        // for out-of-range sizes (linear extrapolation).
        let idx = self
            .points
            .partition_point(|&(b, _)| b <= bytes)
            .clamp(1, self.points.len() - 1);
        let (x0, y0) = self.points[idx - 1];
        let (x1, y1) = self.points[idx];
        let t = (bytes as f64 - x0 as f64) / (x1 as f64 - x0 as f64);
        let ns = y0 as f64 + t * (y1 as f64 - y0 as f64);
        SimDuration::from_secs_f64((ns / 1e9).max(0.0))
    }

    /// Interpolated effective bandwidth in GB/s at `bytes`.
    ///
    /// # Panics
    ///
    /// Panics if the curve is empty.
    pub fn effective_gbps(&self, bytes: u64) -> f64 {
        let d = self.interpolate(bytes);
        if d.is_zero() {
            return 0.0;
        }
        bytes as f64 / d.as_secs_f64() / 1e9
    }

    /// The sampled points as `(bytes, duration)` pairs.
    pub fn points(&self) -> impl Iterator<Item = (u64, SimDuration)> + '_ {
        self.points
            .iter()
            .map(|&(b, ns)| (b, SimDuration::from_nanos(ns)))
    }
}

/// Returns `count` log-spaced sizes between `min_bytes` and `max_bytes`
/// inclusive — the sampling grid for the offline stage.
///
/// # Panics
///
/// Panics if `count < 2` or the range is empty/inverted.
pub fn log_spaced_sizes(min_bytes: u64, max_bytes: u64, count: usize) -> Vec<u64> {
    let spacing = LogSpacing::new(min_bytes, max_bytes, count);
    let mut sizes: Vec<u64> = (0..count).map(|i| spacing.size(i)).collect();
    sizes.dedup();
    sizes
}

/// The sampling grid of [`log_spaced_sizes`] before deduplication, one
/// size at a time: a curve that samples on demand computes only the
/// sizes its queries reach.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LogSpacing {
    lo: f64,
    hi: f64,
    count: usize,
}

impl LogSpacing {
    /// `count` sizes from `min_bytes` to `max_bytes`.
    ///
    /// # Panics
    ///
    /// Panics if `count < 2` or the range is empty or starts at zero.
    pub fn new(min_bytes: u64, max_bytes: u64, count: usize) -> Self {
        assert!(count >= 2, "need at least two sample sizes");
        assert!(
            0 < min_bytes && min_bytes < max_bytes,
            "invalid size range {min_bytes}..{max_bytes}"
        );
        LogSpacing {
            lo: (min_bytes as f64).ln(),
            hi: (max_bytes as f64).ln(),
            count,
        }
    }

    /// Number of sizes.
    pub fn count(&self) -> usize {
        self.count
    }

    /// Size `i`, rounded to whole bytes (non-decreasing in `i`; rounding
    /// may repeat a size on a narrow range).
    pub fn size(&self, i: usize) -> u64 {
        let t = i as f64 / (self.count - 1) as f64;
        (self.lo + t * (self.hi - self.lo)).exp().round() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn effective_bandwidth_saturates() {
        let m = BandwidthModel::new(10.0, 1 << 20, 0);
        assert!(m.effective_gbps(1 << 30) > 9.98);
        let half = m.effective_gbps(1 << 20);
        assert!((half - 5.0).abs() < 1e-9, "half-size bandwidth {half}");
        assert_eq!(m.effective_gbps(0), 0.0);
    }

    #[test]
    fn transfer_time_is_affine_in_size() {
        let m = BandwidthModel::new(10.0, 1 << 20, 5_000);
        let t1 = m.transfer_time(10 << 20).as_nanos() as f64;
        let t2 = m.transfer_time(20 << 20).as_nanos() as f64;
        let t3 = m.transfer_time(30 << 20).as_nanos() as f64;
        let d1 = t2 - t1;
        let d2 = t3 - t2;
        assert!(
            (d1 - d2).abs() / d1 < 1e-6,
            "slope not constant: {d1} vs {d2}"
        );
    }

    #[test]
    fn zero_byte_transfer_costs_only_overhead() {
        let m = BandwidthModel::new(10.0, 1 << 20, 7_000);
        assert_eq!(m.transfer_time(0), SimDuration::from_nanos(7_000));
    }

    #[test]
    fn segmentation_is_slower_than_one_call() {
        // Two calls of S/2 must cost more than one call of S: this is the
        // fragmentation penalty that motivates reordering (Sec. 3.3.1).
        let m = BandwidthModel::new(12.0, 4 << 20, 20_000);
        let s = 64 << 20;
        let whole = m.transfer_time(s);
        let split = m.transfer_time(s / 2) + m.transfer_time(s / 2);
        assert!(split > whole);
    }

    #[test]
    fn sampled_curve_interpolates_between_points() {
        let curve = SampledCurve::from_points(vec![
            (100, SimDuration::from_nanos(1_000)),
            (200, SimDuration::from_nanos(2_000)),
        ]);
        assert_eq!(curve.interpolate(150).as_nanos(), 1_500);
        assert_eq!(curve.interpolate(100).as_nanos(), 1_000);
        assert_eq!(curve.interpolate(200).as_nanos(), 2_000);
    }

    #[test]
    fn sampled_curve_extrapolates_linearly() {
        let curve = SampledCurve::from_points(vec![
            (100, SimDuration::from_nanos(1_000)),
            (200, SimDuration::from_nanos(2_000)),
        ]);
        assert_eq!(curve.interpolate(300).as_nanos(), 3_000);
        assert_eq!(curve.interpolate(50).as_nanos(), 500);
    }

    #[test]
    fn sampled_curve_tracks_model_closely() {
        let m = BandwidthModel::new(12.0, 4 << 20, 20_000);
        let sizes = log_spaced_sizes(64 << 10, 1 << 30, 64);
        let curve =
            SampledCurve::from_points(sizes.iter().map(|&s| (s, m.transfer_time(s))).collect());
        for &probe in &[100 << 10, 3 << 20, 50 << 20, 700 << 20] {
            let truth = m.transfer_time(probe).as_nanos() as f64;
            let est = curve.interpolate(probe).as_nanos() as f64;
            let err = (est - truth).abs() / truth;
            assert!(err < 0.05, "probe {probe}: err {err}");
        }
    }

    #[test]
    fn single_point_curve_is_constant() {
        let curve = SampledCurve::from_points(vec![(100, SimDuration::from_nanos(42))]);
        assert_eq!(curve.interpolate(1).as_nanos(), 42);
        assert_eq!(curve.interpolate(10_000).as_nanos(), 42);
    }

    #[test]
    #[should_panic(expected = "empty curve")]
    fn empty_curve_interpolation_panics() {
        SampledCurve::new().interpolate(1);
    }

    #[test]
    fn log_spaced_sizes_are_monotone_and_bounded() {
        let sizes = log_spaced_sizes(1 << 10, 1 << 30, 32);
        assert_eq!(*sizes.first().unwrap(), 1 << 10);
        assert_eq!(*sizes.last().unwrap(), 1 << 30);
        for pair in sizes.windows(2) {
            assert!(pair[0] < pair[1]);
        }
    }

    #[test]
    fn effective_gbps_from_curve() {
        let m = BandwidthModel::new(10.0, 1 << 20, 0);
        let sizes = log_spaced_sizes(1 << 10, 1 << 30, 128);
        let curve =
            SampledCurve::from_points(sizes.iter().map(|&s| (s, m.transfer_time(s))).collect());
        let est = curve.effective_gbps(1 << 25);
        let truth = m.effective_gbps(1 << 25);
        assert!((est - truth).abs() / truth < 0.05);
    }
}
