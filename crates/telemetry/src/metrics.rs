//! Derived metrics: signal latency, link utilization, stream busy
//! fractions, SM occupancy, and overlap efficiency.
//!
//! All derivations are pure functions over the causal record
//! ([`TelemetryRecord`]) and the per-stream operation spans, so they can
//! be unit-tested on synthetic inputs.

use std::borrow::Cow;

use gpu_sim::{DeviceId, OpSpan, SpanMeta, StreamId};
use sim::{SimDuration, SimTime};

use crate::record::TelemetryRecord;

/// One group's measured signaling path on one rank: last counting-table
/// increment → wait released → collective kernel launched.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SignalSample {
    /// Rank observing the signal.
    pub device: DeviceId,
    /// Wave group.
    pub group: usize,
    /// Nanoseconds from the releasing increment to the wait crossing its
    /// threshold (the counting-table poll delay).
    pub increment_to_release_ns: u64,
    /// Nanoseconds from the released wait to the group's collective
    /// starting on the communication stream.
    pub release_to_collective_ns: u64,
    /// Full signal latency (sum of the two legs).
    pub total_ns: u64,
}

/// Aggregate signal-latency statistics over every (rank, group) sample.
#[derive(Debug, Clone, PartialEq)]
pub struct SignalSummary {
    /// The per-(rank, group) samples, rank-major.
    pub samples: Vec<SignalSample>,
    /// Mean of `total_ns`.
    pub mean_total_ns: f64,
    /// Minimum `total_ns`.
    pub min_total_ns: u64,
    /// Maximum `total_ns`.
    pub max_total_ns: u64,
    /// Mean of the wait-release → collective-launch leg.
    pub mean_release_to_collective_ns: f64,
}

/// Joins released waits to their releasing increments and the launched
/// collectives. Returns `None` if the run had no signal waits (baselines
/// synchronize with events, not counters).
pub fn signal_summary(record: &TelemetryRecord, spans: &[OpSpan]) -> Option<SignalSummary> {
    // The recorder appends increments in simulated-time order; a
    // hand-built record may not, and is sorted into a copy first.
    let mut increments = Cow::Borrowed(record.increments.as_slice());
    if !increments.is_sorted_by_key(|inc| inc.at) {
        increments.to_mut().sort_by_key(|inc| inc.at);
    }
    let mut samples = Vec::with_capacity(record.satisfied.len());
    for ws in &record.satisfied {
        // The releasing increment is the latest one on the wait's slot at
        // or before the release.
        let upto = increments.partition_point(|inc| inc.at <= ws.at);
        let last_increment = increments[..upto]
            .iter()
            .rev()
            .find(|inc| inc.device == ws.device && inc.table == ws.table && inc.group == ws.group)
            .map(|inc| inc.at);
        let collective_start = spans
            .iter()
            .filter(|s| {
                s.device == ws.device
                    && s.stream == ws.stream
                    && s.start >= ws.at
                    && matches!(s.meta, SpanMeta::Collective { group: Some(g), .. } if g == ws.group)
            })
            .map(|s| s.start)
            .min();
        let increment_to_release_ns = last_increment.map_or(0, |inc| (ws.at - inc).as_nanos());
        let release_to_collective_ns =
            collective_start.map_or(0, |start| (start - ws.at).as_nanos());
        samples.push(SignalSample {
            device: ws.device,
            group: ws.group,
            increment_to_release_ns,
            release_to_collective_ns,
            total_ns: increment_to_release_ns + release_to_collective_ns,
        });
    }
    if samples.is_empty() {
        return None;
    }
    samples.sort_by_key(|s| (s.device, s.group));
    let n = samples.len() as f64;
    Some(SignalSummary {
        mean_total_ns: samples.iter().map(|s| s.total_ns as f64).sum::<f64>() / n,
        min_total_ns: samples.iter().map(|s| s.total_ns).min().unwrap_or(0),
        max_total_ns: samples.iter().map(|s| s.total_ns).max().unwrap_or(0),
        mean_release_to_collective_ns: samples
            .iter()
            .map(|s| s.release_to_collective_ns as f64)
            .sum::<f64>()
            / n,
        samples,
    })
}

/// One directed link's aggregate traffic.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkStats {
    /// Source device.
    pub src: DeviceId,
    /// Destination device.
    pub dst: DeviceId,
    /// Fabric tier the link crosses ("intra" within a node, "inter"
    /// across nodes; always "intra" on a single-node fabric).
    pub tier: &'static str,
    /// Total bytes carried.
    pub bytes: u64,
    /// Time the link carried at least one transfer (interval union).
    pub busy_ns: u64,
    /// Achieved bandwidth while busy, in GB/s (bytes per busy
    /// nanosecond).
    pub achieved_gbps: f64,
    /// `achieved_gbps` over *this link's* peak bandwidth, when known —
    /// the intra- or inter-node peak depending on the tier the link
    /// crosses, so a saturated IB link is not scored against NVLink
    /// wire speed. Ring collectives drive each link below wire speed
    /// (call overheads, protocol factor), so this sits below 1.
    pub utilization: Option<f64>,
}

/// Per-tier peak bandwidths: the utilization denominators of
/// [`link_stats`], resolved per link from a device → node map.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LinkPeaks {
    /// Node of each device id; empty means a single-node fabric
    /// (every link is intra-tier). Devices beyond the map's length
    /// are treated as node 0.
    pub node_of: Vec<usize>,
    /// Peak GB/s between devices on the same node.
    pub intra_gbps: Option<f64>,
    /// Peak GB/s between devices on different nodes.
    pub inter_gbps: Option<f64>,
}

impl LinkPeaks {
    /// A uniform single-tier fabric: one peak for every link.
    pub fn uniform(peak_gbps: Option<f64>) -> Self {
        LinkPeaks {
            node_of: Vec::new(),
            intra_gbps: peak_gbps,
            inter_gbps: peak_gbps,
        }
    }

    /// A two-tier fabric over an explicit device → node map.
    pub fn two_tier(node_of: Vec<usize>, intra_gbps: Option<f64>, inter_gbps: Option<f64>) -> Self {
        LinkPeaks {
            node_of,
            intra_gbps,
            inter_gbps,
        }
    }

    fn node(&self, device: DeviceId) -> usize {
        self.node_of.get(device).copied().unwrap_or(0)
    }

    /// The tier label of the `src` → `dst` link.
    pub fn tier(&self, src: DeviceId, dst: DeviceId) -> &'static str {
        if self.node(src) == self.node(dst) {
            "intra"
        } else {
            "inter"
        }
    }

    /// The peak bandwidth of the `src` → `dst` link, when known.
    pub fn peak(&self, src: DeviceId, dst: DeviceId) -> Option<f64> {
        if self.node(src) == self.node(dst) {
            self.intra_gbps
        } else {
            self.inter_gbps
        }
    }
}

/// Aggregates per-link transfer intervals into per-link utilization.
/// Each link's utilization denominator is *its own* tier's peak from
/// `peaks` — an inter-node link is scored against the inter-node
/// fabric, not a uniform cluster-wide number.
pub fn link_stats(record: &TelemetryRecord, peaks: &LinkPeaks) -> Vec<LinkStats> {
    let mut pairs: Vec<(DeviceId, DeviceId)> =
        record.transfers.iter().map(|t| (t.src, t.dst)).collect();
    pairs.sort_unstable();
    pairs.dedup();
    pairs
        .into_iter()
        .map(|(src, dst)| {
            let mut intervals: Vec<(SimTime, SimTime)> = record
                .transfers
                .iter()
                .filter(|t| t.src == src && t.dst == dst)
                .map(|t| (t.start, t.end))
                .collect();
            let bytes: u64 = record
                .transfers
                .iter()
                .filter(|t| t.src == src && t.dst == dst)
                .map(|t| t.bytes)
                .sum();
            intervals.sort_unstable();
            let mut busy_ns = 0u64;
            let mut cursor: Option<SimTime> = None;
            for (start, end) in intervals {
                let from = cursor.map_or(start, |c| c.max(start));
                if end > from {
                    busy_ns += (end - from).as_nanos();
                }
                cursor = Some(cursor.map_or(end, |c| c.max(end)));
            }
            let achieved_gbps = if busy_ns > 0 {
                bytes as f64 / busy_ns as f64
            } else {
                0.0
            };
            LinkStats {
                src,
                dst,
                tier: peaks.tier(src, dst),
                bytes,
                busy_ns,
                achieved_gbps,
                utilization: peaks
                    .peak(src, dst)
                    .filter(|&p| p > 0.0)
                    .map(|p| achieved_gbps / p),
            }
        })
        .collect()
}

/// One stream's activity over a run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamStats {
    /// Device.
    pub device: DeviceId,
    /// Stream.
    pub stream: StreamId,
    /// Time covered by kernels doing work (spans minus signal/event
    /// waits and probe callbacks).
    pub busy_ns: u64,
    /// Time spent blocked in `wait_counter` / `wait_event` kernels.
    pub wait_ns: u64,
    /// `busy_ns` over the run's end time.
    pub busy_frac: f64,
}

/// Per-(device, stream) busy/wait accounting over `spans`. `run_ns` is
/// the run's total duration (denominator of `busy_frac`).
pub fn stream_stats(spans: &[OpSpan], run_ns: u64) -> Vec<StreamStats> {
    let mut keys: Vec<(DeviceId, StreamId)> = spans.iter().map(|s| (s.device, s.stream)).collect();
    keys.sort_unstable();
    keys.dedup();
    keys.into_iter()
        .map(|(device, stream)| {
            let mut busy_ns = 0u64;
            let mut wait_ns = 0u64;
            for s in spans
                .iter()
                .filter(|s| s.device == device && s.stream == stream)
            {
                let ns = (s.end - s.start).as_nanos();
                match s.name {
                    "callback" => {}
                    "wait_counter" | "wait_event" => wait_ns += ns,
                    _ => busy_ns += ns,
                }
            }
            StreamStats {
                device,
                stream,
                busy_ns,
                wait_ns,
                busy_frac: if run_ns > 0 {
                    busy_ns as f64 / run_ns as f64
                } else {
                    0.0
                },
            }
        })
        .collect()
}

/// One device's SM-allocation profile over a run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OccupancyStats {
    /// Device.
    pub device: DeviceId,
    /// Time-weighted mean SMs held by compute kernels.
    pub mean_compute_sms: f64,
    /// Time-weighted mean SMs held by communication kernels.
    pub mean_comm_sms: f64,
    /// Peak compute SM allocation.
    pub peak_compute_sms: u32,
    /// Peak communication SM allocation.
    pub peak_comm_sms: u32,
    /// Time inside the device's GEMM span(s) with *zero* compute SMs
    /// occupied — wave-boundary / signal-stall idle on the compute side.
    pub gemm_idle_ns: u64,
}

/// Integrates the step function of each device's occupancy samples over
/// `[0, run_ns]`.
pub fn occupancy_stats(
    record: &TelemetryRecord,
    spans: &[OpSpan],
    run_ns: u64,
) -> Vec<OccupancyStats> {
    let mut devices: Vec<DeviceId> = record.occupancy.iter().map(|s| s.device).collect();
    devices.sort_unstable();
    devices.dedup();
    devices
        .into_iter()
        .map(|device| {
            let mut samples: Vec<(u64, u32, u32)> = record
                .occupancy
                .iter()
                .filter(|s| s.device == device)
                .map(|s| ((s.at - SimTime::ZERO).as_nanos(), s.compute_sms, s.comm_sms))
                .collect();
            samples.sort_by_key(|&(at, _, _)| at);
            // Step-function integral: occupancy is 0 before the first
            // sample and holds each sample's value until the next.
            let mut compute_area = 0f64;
            let mut comm_area = 0f64;
            let mut peak_compute = 0u32;
            let mut peak_comm = 0u32;
            let gemm_intervals: Vec<(u64, u64)> = spans
                .iter()
                .filter(|s| s.device == device && s.name == "gemm")
                .map(|s| {
                    (
                        (s.start - SimTime::ZERO).as_nanos(),
                        (s.end - SimTime::ZERO).as_nanos(),
                    )
                })
                .collect();
            let mut gemm_busy_ns = 0u64;
            for (i, &(at, compute, comm)) in samples.iter().enumerate() {
                let until = samples.get(i + 1).map_or(run_ns, |&(next, _, _)| next);
                let dt = until.saturating_sub(at);
                compute_area += compute as f64 * dt as f64;
                comm_area += comm as f64 * dt as f64;
                peak_compute = peak_compute.max(compute);
                peak_comm = peak_comm.max(comm);
                if compute > 0 {
                    // Overlap of [at, until) with the GEMM spans.
                    for &(g0, g1) in &gemm_intervals {
                        let lo = at.max(g0);
                        let hi = until.min(g1);
                        gemm_busy_ns += hi.saturating_sub(lo);
                    }
                }
            }
            let gemm_total_ns: u64 = gemm_intervals.iter().map(|&(a, b)| b - a).sum();
            OccupancyStats {
                device,
                mean_compute_sms: if run_ns > 0 {
                    compute_area / run_ns as f64
                } else {
                    0.0
                },
                mean_comm_sms: if run_ns > 0 {
                    comm_area / run_ns as f64
                } else {
                    0.0
                },
                peak_compute_sms: peak_compute,
                peak_comm_sms: peak_comm,
                gemm_idle_ns: gemm_total_ns.saturating_sub(gemm_busy_ns),
            }
        })
        .collect()
}

/// Tail-latency percentiles over a set of span durations, in
/// nanoseconds. Produced by [`percentiles`]; consumed by the serving
/// layer's SLO accounting (`serving::ServeReport`) and usable over any
/// span population (request latencies, signal latencies, link busy
/// intervals).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Percentiles {
    /// Median (50th percentile).
    pub p50: u64,
    /// 95th percentile.
    pub p95: u64,
    /// 99th percentile.
    pub p99: u64,
}

/// Nearest-rank percentile of `sorted` (ascending): the smallest sample
/// whose cumulative rank reaches `q * n`. Returns `None` on an empty
/// slice. `q` is clamped to `[0, 1]`.
pub fn percentile(sorted: &[u64], q: f64) -> Option<u64> {
    if sorted.is_empty() {
        return None;
    }
    let n = sorted.len();
    // Nearest-rank: rank = ceil(q * n), 1-based; clamp keeps the index
    // in range for q = 0 and q = 1.
    let rank = (q.clamp(0.0, 1.0) * n as f64).ceil() as usize;
    sorted.get(rank.max(1) - 1).copied()
}

/// p50/p95/p99 over `samples` (any order; sorted internally). Returns
/// `None` when there are no samples — an empty population has no tail.
pub fn percentiles(samples: &[u64]) -> Option<Percentiles> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    Some(Percentiles {
        p50: percentile(&sorted, 0.50)?,
        p95: percentile(&sorted, 0.95)?,
        p99: percentile(&sorted, 0.99)?,
    })
}

/// Overlap efficiency of a measured latency against the non-overlap
/// reference and the perfect-overlap bound (§6.3):
/// `(base − measured) / (base − theory)`, clamped to `[0, 1]`.
///
/// Returns `None` when the bound leaves no room to overlap
/// (`base <= theory`), where the ratio is undefined.
pub fn overlap_efficiency(
    measured: SimDuration,
    base: SimDuration,
    theory: SimDuration,
) -> Option<f64> {
    let base_ns = base.as_nanos() as f64;
    let theory_ns = theory.as_nanos() as f64;
    let measured_ns = measured.as_nanos() as f64;
    let room = base_ns - theory_ns;
    if room <= 0.0 {
        return None;
    }
    Some(((base_ns - measured_ns) / room).clamp(0.0, 1.0))
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::indexing_slicing)]
mod tests {
    use super::*;
    use crate::record::{IncrementEvent, WaitSatisfied};
    use gpu_sim::monitor::LinkTransfer;

    fn t(ns: u64) -> SimTime {
        SimTime::from_nanos(ns)
    }

    #[test]
    fn efficiency_clamps_to_unit_interval() {
        let d = SimDuration::from_nanos;
        assert_eq!(overlap_efficiency(d(100), d(100), d(50)), Some(0.0));
        assert_eq!(overlap_efficiency(d(50), d(100), d(50)), Some(1.0));
        assert_eq!(overlap_efficiency(d(75), d(100), d(50)), Some(0.5));
        // Faster than theory still reports 1, slower than base reports 0.
        assert_eq!(overlap_efficiency(d(10), d(100), d(50)), Some(1.0));
        assert_eq!(overlap_efficiency(d(200), d(100), d(50)), Some(0.0));
        // No room to overlap.
        assert_eq!(overlap_efficiency(d(100), d(50), d(50)), None);
    }

    #[test]
    fn signal_samples_join_increments_waits_and_collectives() {
        let mut record = TelemetryRecord::default();
        record.increments.push(IncrementEvent {
            at: t(100),
            device: 0,
            stream: 0,
            table: 0,
            group: 0,
            by: 1,
        });
        record.increments.push(IncrementEvent {
            at: t(200),
            device: 0,
            stream: 0,
            table: 0,
            group: 0,
            by: 1,
        });
        record.satisfied.push(WaitSatisfied {
            at: t(250),
            device: 0,
            stream: 1,
            table: 0,
            group: 0,
            threshold: 2,
        });
        let spans = vec![OpSpan {
            device: 0,
            stream: 1,
            name: "collective",
            meta: SpanMeta::Collective {
                bytes: 64,
                group: Some(0),
            },
            start: t(300),
            end: t(900),
        }];
        let summary = signal_summary(&record, &spans).unwrap();
        assert_eq!(summary.samples.len(), 1);
        let s = summary.samples[0];
        assert_eq!(s.increment_to_release_ns, 50, "joins the *last* increment");
        assert_eq!(s.release_to_collective_ns, 50);
        assert_eq!(s.total_ns, 100);
        assert_eq!(summary.max_total_ns, 100);
    }

    #[test]
    fn no_waits_means_no_signal_summary() {
        assert!(signal_summary(&TelemetryRecord::default(), &[]).is_none());
    }

    #[test]
    fn percentiles_use_nearest_rank() {
        // 1..=100: nearest-rank pXX of a 100-sample population is
        // exactly the XXth value.
        let samples: Vec<u64> = (1..=100).collect();
        let p = percentiles(&samples).unwrap();
        assert_eq!((p.p50, p.p95, p.p99), (50, 95, 99));
        // Order must not matter.
        let mut reversed = samples.clone();
        reversed.reverse();
        assert_eq!(percentiles(&reversed).unwrap(), p);
    }

    #[test]
    fn percentiles_of_small_populations() {
        assert!(percentiles(&[]).is_none());
        let p = percentiles(&[42]).unwrap();
        assert_eq!((p.p50, p.p95, p.p99), (42, 42, 42));
        // Two samples: p50 is the first (rank ceil(0.5*2)=1), the tail
        // percentiles take the second.
        let p = percentiles(&[10, 20]).unwrap();
        assert_eq!((p.p50, p.p95, p.p99), (10, 20, 20));
    }

    #[test]
    fn percentile_clamps_q() {
        let sorted = [1u64, 2, 3];
        assert_eq!(percentile(&sorted, -1.0), Some(1));
        assert_eq!(percentile(&sorted, 0.0), Some(1));
        assert_eq!(percentile(&sorted, 1.0), Some(3));
        assert_eq!(percentile(&sorted, 2.0), Some(3));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn percentiles_of_all_equal_samples_collapse() {
        // A constant population has a flat distribution: every
        // percentile, including the extremes, is that constant.
        let samples = [7u64; 16];
        let p = percentiles(&samples).unwrap();
        assert_eq!((p.p50, p.p95, p.p99), (7, 7, 7));
        assert_eq!(percentile(&samples, 0.0), Some(7));
        assert_eq!(percentile(&samples, 1.0), Some(7));
    }

    #[test]
    fn percentile_nearest_rank_at_quantile_boundaries() {
        // Four samples: the rank boundary sits exactly on a sample at
        // q = k/4. Nearest-rank must pick that sample at the boundary
        // and step to the next one just past it (no interpolation
        // between samples).
        let sorted = [10u64, 20, 30, 40];
        assert_eq!(percentile(&sorted, 0.25), Some(10));
        assert_eq!(percentile(&sorted, 0.25 + 1e-9), Some(20));
        assert_eq!(percentile(&sorted, 0.50), Some(20));
        assert_eq!(percentile(&sorted, 0.50 + 1e-9), Some(30));
        assert_eq!(percentile(&sorted, 0.75), Some(30));
        assert_eq!(percentile(&sorted, 0.75 + 1e-9), Some(40));
        // An infinitesimal q still lands on the first sample, and the
        // top boundary stays clamped to the last.
        assert_eq!(percentile(&sorted, 1e-12), Some(10));
        assert_eq!(percentile(&sorted, 1.0 - 1e-12), Some(40));
    }

    #[test]
    fn efficiency_degenerate_measurements_stay_in_bounds() {
        // Zero-duration measurements clamp to a perfect 1.0 (callers
        // that know the span data is degenerate withhold the value; see
        // `profile::MethodMetrics::degenerate`), and a zero-room bound
        // is undefined.
        let z = SimDuration::ZERO;
        let base = SimDuration::from_micros(10);
        let theory = SimDuration::from_micros(4);
        assert_eq!(overlap_efficiency(z, base, theory), Some(1.0));
        assert_eq!(overlap_efficiency(z, z, z), None);
    }

    #[test]
    fn link_stats_union_overlapping_intervals() {
        let mut record = TelemetryRecord::default();
        for (start, end, bytes) in [(0u64, 100u64, 100u64), (50, 150, 100), (300, 400, 50)] {
            record.transfers.push(LinkTransfer {
                src: 0,
                dst: 1,
                bytes,
                start: t(start),
                end: t(end),
            });
        }
        let stats = link_stats(&record, &LinkPeaks::uniform(Some(2.0)));
        assert_eq!(stats.len(), 1);
        assert_eq!(stats[0].bytes, 250);
        assert_eq!(stats[0].busy_ns, 250, "overlap counted once");
        assert!((stats[0].achieved_gbps - 1.0).abs() < 1e-12);
        assert!((stats[0].utilization.unwrap() - 0.5).abs() < 1e-12);
        assert_eq!(stats[0].tier, "intra", "uniform fabric is all intra");
    }

    #[test]
    fn link_stats_score_each_tier_against_its_own_peak() {
        let mut record = TelemetryRecord::default();
        // d0->d1 stays on node 0; d1->d2 crosses to node 1. Both carry
        // 100 bytes over 100 ns: 1 GB/s achieved.
        for (src, dst) in [(0, 1), (1, 2)] {
            record.transfers.push(LinkTransfer {
                src,
                dst,
                bytes: 100,
                start: t(0),
                end: t(100),
            });
        }
        let peaks = LinkPeaks::two_tier(vec![0, 0, 1, 1], Some(4.0), Some(2.0));
        let stats = link_stats(&record, &peaks);
        assert_eq!(stats.len(), 2);
        let intra = stats.iter().find(|l| (l.src, l.dst) == (0, 1)).unwrap();
        let inter = stats.iter().find(|l| (l.src, l.dst) == (1, 2)).unwrap();
        assert_eq!((intra.tier, inter.tier), ("intra", "inter"));
        // Same achieved bandwidth, different denominators: the inter
        // link is twice as utilized relative to its slower fabric.
        assert!((intra.utilization.unwrap() - 0.25).abs() < 1e-12);
        assert!((inter.utilization.unwrap() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn stream_stats_split_busy_and_wait() {
        let spans = vec![
            OpSpan {
                device: 0,
                stream: 0,
                name: "gemm",
                meta: SpanMeta::None,
                start: t(0),
                end: t(600),
            },
            OpSpan {
                device: 0,
                stream: 1,
                name: "wait_counter",
                meta: SpanMeta::None,
                start: t(0),
                end: t(400),
            },
            OpSpan {
                device: 0,
                stream: 1,
                name: "collective",
                meta: SpanMeta::None,
                start: t(400),
                end: t(1000),
            },
        ];
        let stats = stream_stats(&spans, 1000);
        assert_eq!(stats.len(), 2);
        assert_eq!((stats[0].busy_ns, stats[0].wait_ns), (600, 0));
        assert_eq!((stats[1].busy_ns, stats[1].wait_ns), (600, 400));
        assert!((stats[1].busy_frac - 0.6).abs() < 1e-12);
    }
}
