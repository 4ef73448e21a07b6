//! Analytic latency of collective operations.
//!
//! The ring algorithm (§2.2) moves `2(n-1)/n * S` bytes per rank for
//! AllReduce and `(n-1)/n * S` for ReduceScatter / AllGather, in steps of
//! `S/n`-sized chunks; each step's wire time comes from the fabric's
//! effective-bandwidth model, which is where the small-message cliff of
//! Fig. 8 enters. Fragmenting a logical transfer into several calls
//! therefore pays both extra per-call overhead and worse per-step
//! bandwidth — the degradation FlashOverlap's grouping exists to avoid.

use interconnect::{FabricSpec, LinkKind};
use sim::SimDuration;

/// Bytes per element on the wire. The evaluated workloads are fp16
/// (buffers hold `f32` for numerics, but timing models half precision).
pub const BYTES_PER_ELEM: u64 = 2;

/// The collective communication primitives of §2.3.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Primitive {
    /// Reduce across ranks, result everywhere (TP forward, DP gradients).
    AllReduce,
    /// Reduce across ranks, result scattered (TP training, FSDP backward).
    ReduceScatter,
    /// Concatenate contributions everywhere.
    AllGather,
    /// Personalized exchange (MoE expert parallelism).
    AllToAll,
}

impl Primitive {
    /// All primitives, for sweeps.
    pub const ALL: [Primitive; 4] = [
        Primitive::AllReduce,
        Primitive::ReduceScatter,
        Primitive::AllGather,
        Primitive::AllToAll,
    ];
}

impl std::fmt::Display for Primitive {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            Primitive::AllReduce => "AllReduce",
            Primitive::ReduceScatter => "ReduceScatter",
            Primitive::AllGather => "AllGather",
            Primitive::AllToAll => "AllToAll",
        };
        f.write_str(name)
    }
}

/// The collective algorithm (NCCL switches between comparable families
/// by message size; the paper's design is agnostic to the choice).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Algorithm {
    /// Chunked ring (bandwidth-optimal for large payloads).
    #[default]
    Ring,
    /// Direct exchange: full-payload peer transfers (latency-optimal for
    /// small payloads; parallel over NVLink pairs, serialized on a PCIe
    /// port).
    Direct,
    /// Pick whichever of Ring/Direct the cost model predicts faster, per
    /// call — NCCL's size-based tuning.
    Auto,
}

impl std::fmt::Display for Algorithm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Algorithm::Ring => "Ring",
            Algorithm::Direct => "Direct",
            Algorithm::Auto => "Auto",
        })
    }
}

/// Latency of one collective call under a specific algorithm.
///
/// A group of fewer than two ranks has no peer to exchange with, so the
/// call costs nothing. This is the cost model's one rule for degenerate
/// groups: a one-GPU system prices its collectives through here.
pub fn collective_duration_with(
    prim: Primitive,
    bytes: u64,
    n: usize,
    fabric: &FabricSpec,
    algorithm: Algorithm,
) -> SimDuration {
    if n < 2 {
        return SimDuration::ZERO;
    }
    match algorithm {
        Algorithm::Ring => ring_duration(prim, bytes, n, fabric),
        Algorithm::Direct => direct_duration(prim, bytes, n, fabric),
        Algorithm::Auto => {
            ring_duration(prim, bytes, n, fabric).min(direct_duration(prim, bytes, n, fabric))
        }
    }
}

/// Direct-exchange latency: each rank moves whole payloads to its peers
/// (reduce phases double the traffic for AllReduce).
fn direct_duration(prim: Primitive, bytes: u64, n: usize, fabric: &FabricSpec) -> SimDuration {
    let overhead = SimDuration::from_nanos(fabric.p2p.call_overhead_ns);
    let phases: u64 = match prim {
        Primitive::AllReduce => 2,
        Primitive::ReduceScatter | Primitive::AllGather => 1,
        Primitive::AllToAll => {
            return all_to_all_duration(&vec![bytes / n as u64; n], n, fabric);
        }
    };
    let per_phase = match fabric.kind {
        // Pairwise NVLink moves the peer transfers in parallel.
        LinkKind::NvLink => fabric.p2p.wire_time(bytes),
        // One PCIe egress port / IB NIC serializes them.
        LinkKind::Pcie | LinkKind::InfiniBand => fabric.p2p.wire_time(bytes) * (n as u64 - 1),
    };
    overhead + per_phase * phases
}

/// Latency of one ring collective call over `bytes` of per-rank payload
/// on `n` ranks (zero below two ranks, see [`collective_duration_with`]).
pub fn collective_duration(
    prim: Primitive,
    bytes: u64,
    n: usize,
    fabric: &FabricSpec,
) -> SimDuration {
    collective_duration_with(prim, bytes, n, fabric, Algorithm::Ring)
}

/// Ring latency on `n >= 2` ranks.
fn ring_duration(prim: Primitive, bytes: u64, n: usize, fabric: &FabricSpec) -> SimDuration {
    let steps = match prim {
        Primitive::AllReduce => 2 * (n as u64 - 1),
        Primitive::ReduceScatter | Primitive::AllGather => n as u64 - 1,
        Primitive::AllToAll => {
            return all_to_all_duration(&vec![bytes / n as u64; n], n, fabric);
        }
    };
    let chunk = bytes / n as u64;
    let overhead = SimDuration::from_nanos(fabric.p2p.call_overhead_ns);
    overhead + fabric.p2p.wire_time(chunk) * steps
}

/// Latency of an All-to-All where this rank sends `per_dest_bytes[d]` to
/// each destination (the self-slot is ignored).
///
/// On PCIe the egress port serializes the messages; on NVLink the pairwise
/// links run in parallel and the longest message dominates. `n` caps the
/// message count at the `n - 1` peers (at least one message is charged).
pub fn all_to_all_duration(per_dest_bytes: &[u64], n: usize, fabric: &FabricSpec) -> SimDuration {
    let overhead = SimDuration::from_nanos(fabric.p2p.call_overhead_ns);
    let messages = per_dest_bytes.len().min(n.saturating_sub(1)).max(1);
    match fabric.kind {
        LinkKind::Pcie | LinkKind::InfiniBand => {
            let wire: SimDuration = per_dest_bytes
                .iter()
                .take(messages)
                .map(|&b| fabric.p2p.wire_time(b))
                .sum();
            overhead + wire
        }
        LinkKind::NvLink => {
            let wire = per_dest_bytes
                .iter()
                .take(messages)
                .map(|&b| fabric.p2p.wire_time(b))
                .fold(SimDuration::ZERO, SimDuration::max);
            overhead + wire
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allreduce_costs_twice_reduce_scatter_wire_time() {
        let fabric = FabricSpec::rtx4090_pcie();
        let bytes = 256 << 20;
        let ar = collective_duration(Primitive::AllReduce, bytes, 4, &fabric);
        let rs = collective_duration(Primitive::ReduceScatter, bytes, 4, &fabric);
        let overhead = SimDuration::from_nanos(fabric.p2p.call_overhead_ns);
        let ar_wire = (ar - overhead).as_nanos() as f64;
        let rs_wire = (rs - overhead).as_nanos() as f64;
        assert!((ar_wire / rs_wire - 2.0).abs() < 1e-9);
    }

    #[test]
    fn more_ranks_move_more_data() {
        let fabric = FabricSpec::a800_nvlink();
        let bytes = 128 << 20;
        let t2 = collective_duration(Primitive::AllReduce, bytes, 2, &fabric);
        let t4 = collective_duration(Primitive::AllReduce, bytes, 4, &fabric);
        let t8 = collective_duration(Primitive::AllReduce, bytes, 8, &fabric);
        assert!(t2 < t4 && t4 < t8);
        // But per-rank traffic saturates at 2S: t8 < 2 * t2 wire-wise.
        assert!(t8.as_nanos() < 2 * t2.as_nanos());
    }

    #[test]
    fn splitting_a_call_is_slower() {
        // Two half-size AllReduce calls cost more than one full call:
        // the fragmentation penalty that motivates grouping (Sec. 4.1.1).
        let fabric = FabricSpec::rtx4090_pcie();
        let bytes = 64 << 20;
        let whole = collective_duration(Primitive::AllReduce, bytes, 4, &fabric);
        let half = collective_duration(Primitive::AllReduce, bytes / 2, 4, &fabric);
        assert!(half * 2 > whole);
    }

    #[test]
    fn all_to_all_parallel_on_nvlink_serial_on_pcie() {
        let nv = FabricSpec::a800_nvlink();
        let pcie = FabricSpec::rtx4090_pcie().with_peak_gbps(nv.p2p.peak_gbps);
        let per_dest = vec![16 << 20; 3];
        let t_nv = all_to_all_duration(&per_dest, 4, &nv);
        let t_pcie = all_to_all_duration(&per_dest, 4, &pcie);
        assert!(
            t_pcie.as_nanos() > 2 * t_nv.as_nanos(),
            "PCIe should serialize: {t_pcie:?} vs {t_nv:?}"
        );
    }

    #[test]
    fn zero_bytes_costs_overhead_only() {
        let fabric = FabricSpec::rtx4090_pcie();
        let t = collective_duration(Primitive::AllReduce, 0, 2, &fabric);
        assert_eq!(t, SimDuration::from_nanos(fabric.p2p.call_overhead_ns));
    }

    #[test]
    fn fewer_than_two_ranks_cost_nothing() {
        for fabric in [FabricSpec::rtx4090_pcie(), FabricSpec::a800_nvlink()] {
            for prim in [
                Primitive::AllReduce,
                Primitive::ReduceScatter,
                Primitive::AllGather,
                Primitive::AllToAll,
            ] {
                for algorithm in [Algorithm::Ring, Algorithm::Direct, Algorithm::Auto] {
                    for n in [0, 1] {
                        let t = collective_duration_with(prim, 1024, n, &fabric, algorithm);
                        assert_eq!(t, SimDuration::ZERO, "{prim} {algorithm} on {n} ranks");
                    }
                }
            }
        }
    }

    #[test]
    fn direct_beats_ring_for_small_messages_on_nvlink() {
        // The crossover that motivates NCCL's size-based algorithm
        // switching: Direct avoids 2(n-1) chunk-setup penalties.
        let fabric = FabricSpec::a800_nvlink();
        let small = 64 << 10;
        let large = 256 << 20;
        let ring_small =
            collective_duration_with(Primitive::AllReduce, small, 8, &fabric, Algorithm::Ring);
        let direct_small =
            collective_duration_with(Primitive::AllReduce, small, 8, &fabric, Algorithm::Direct);
        assert!(direct_small < ring_small);
        let ring_large =
            collective_duration_with(Primitive::AllReduce, large, 8, &fabric, Algorithm::Ring);
        let direct_large =
            collective_duration_with(Primitive::AllReduce, large, 8, &fabric, Algorithm::Direct);
        assert!(ring_large < direct_large);
    }

    #[test]
    fn auto_is_pointwise_minimum() {
        let fabric = FabricSpec::a800_nvlink();
        for bytes in [32u64 << 10, 1 << 20, 64 << 20, 1 << 30] {
            let ring =
                collective_duration_with(Primitive::AllReduce, bytes, 4, &fabric, Algorithm::Ring);
            let direct = collective_duration_with(
                Primitive::AllReduce,
                bytes,
                4,
                &fabric,
                Algorithm::Direct,
            );
            let auto =
                collective_duration_with(Primitive::AllReduce, bytes, 4, &fabric, Algorithm::Auto);
            assert_eq!(auto, ring.min(direct));
        }
    }

    #[test]
    fn primitive_display_names() {
        assert_eq!(Primitive::AllReduce.to_string(), "AllReduce");
        assert_eq!(Primitive::AllToAll.to_string(), "AllToAll");
    }
}
