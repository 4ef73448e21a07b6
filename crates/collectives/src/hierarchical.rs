//! Hierarchical (two-level) collective cost and byte accounting over a
//! two-tier [`Topology`].
//!
//! On a multi-node topology the flat rank-order ring is bottlenecked by
//! its slowest edge: every ring step includes at least one inter-node
//! hop, so the whole collective runs at inter-fabric speed *and* pushes
//! the full ring traffic across every node boundary. The hierarchical
//! schedule (NCCL's tree/hierarchical algorithm family) avoids both:
//! reduce-scatter inside each node over the fast tier, run the collective
//! across node leaders over the slow tier, then all-gather back inside
//! each node. Only the leader ring crosses nodes, so inter-node traffic
//! drops from `nodes · f·S·(n-1)/n` to `nodes · f·S·(nodes-1)/nodes`
//! (`f` = 2 for AllReduce, 1 for ReduceScatter/AllGather) — strictly
//! less whenever a node holds more than one GPU.
//!
//! Single-node topologies take the flat path unchanged, bit-identical to
//! the pre-topology cost model. All-to-All has no hierarchical shortcut
//! (every personalized segment must reach its destination) and is
//! modelled flat at inter-fabric speed.

use sim::SimDuration;
use topology::{LinkTier, Topology};

use crate::cost::{collective_duration_with, Algorithm, Primitive};

/// Per-link byte multiplier of the ring schedule: AllReduce moves both a
/// reduce-scatter and an all-gather worth of traffic.
fn ring_factor(prim: Primitive) -> u64 {
    match prim {
        Primitive::AllReduce => 2,
        _ => 1,
    }
}

/// Duration of one collective over `bytes` of per-rank payload on the
/// full topology, using the hierarchical schedule when it spans nodes.
///
/// This is the single cost function the runtime, the latency predictor,
/// and the tuner all charge, so plans tuned offline match what the
/// simulated collectives take at runtime.
pub fn tiered_duration(
    prim: Primitive,
    bytes: u64,
    topo: &Topology,
    algorithm: Algorithm,
) -> SimDuration {
    if !topo.spans_nodes() {
        return collective_duration_with(prim, bytes, topo.n_gpus(), &topo.intra, algorithm);
    }
    let g = topo.gpus_per_node;
    let nodes = topo.nodes;
    let intra = |p: Primitive| collective_duration_with(p, bytes, g, &topo.intra, algorithm);
    let inter = |p: Primitive| collective_duration_with(p, bytes, nodes, &topo.inter, algorithm);
    match prim {
        // No hierarchical shortcut: every personalized segment crosses to
        // its destination, so the exchange runs at inter-fabric speed.
        Primitive::AllToAll => flat_tiered_duration(prim, bytes, topo, algorithm),
        Primitive::AllReduce if g >= 2 => {
            intra(Primitive::ReduceScatter)
                + inter(Primitive::AllReduce)
                + intra(Primitive::AllGather)
        }
        Primitive::AllReduce => inter(Primitive::AllReduce),
        Primitive::ReduceScatter if g >= 2 => {
            intra(Primitive::ReduceScatter) + inter(Primitive::ReduceScatter)
        }
        Primitive::ReduceScatter => inter(Primitive::ReduceScatter),
        Primitive::AllGather if g >= 2 => inter(Primitive::AllGather) + intra(Primitive::AllGather),
        Primitive::AllGather => inter(Primitive::AllGather),
    }
}

/// Duration of the *flat* rank-order ring on the same topology: every
/// step carries an inter-node hop, so the ring runs at inter-fabric
/// speed. The baseline hierarchical scheduling is measured against.
pub fn flat_tiered_duration(
    prim: Primitive,
    bytes: u64,
    topo: &Topology,
    algorithm: Algorithm,
) -> SimDuration {
    let fabric = if topo.spans_nodes() {
        &topo.inter
    } else {
        &topo.intra
    };
    collective_duration_with(prim, bytes, topo.n_gpus(), fabric, algorithm)
}

/// Per-link byte loads of the hierarchical schedule as `(src, dst,
/// bytes)` triples over global rank ids: the intra-node rings of the
/// reduce-scatter/all-gather phases plus the inter-node leader ring.
/// Single-node topologies produce the flat ring.
pub fn ring_loads(prim: Primitive, bytes: u64, topo: &Topology) -> Vec<(usize, usize, u64)> {
    let n = topo.n_gpus();
    if n < 2 {
        return Vec::new();
    }
    let f = ring_factor(prim);
    if !topo.spans_nodes() {
        let per_link = f * bytes * (n as u64 - 1) / n as u64;
        if per_link == 0 {
            return Vec::new();
        }
        return (0..n).map(|src| (src, (src + 1) % n, per_link)).collect();
    }
    let g = topo.gpus_per_node;
    let nodes = topo.nodes;
    let mut loads = Vec::new();
    // Intra-node rings: the reduce-scatter in (and, for AllReduce, the
    // all-gather back out) of each node's aggregate.
    if g >= 2 {
        let per_link = f * bytes * (g as u64 - 1) / g as u64;
        if per_link > 0 {
            for node in 0..nodes {
                let base = node * g;
                for i in 0..g {
                    loads.push((base + i, base + (i + 1) % g, per_link));
                }
            }
        }
    }
    // Inter-node leader ring carrying each node's aggregate payload.
    let per_link = f * bytes * (nodes as u64 - 1) / nodes as u64;
    if per_link > 0 {
        for node in 0..nodes {
            loads.push((node * g, ((node + 1) % nodes) * g, per_link));
        }
    }
    loads
}

/// Per-link loads of the flat rank-order ring on the same topology (the
/// baseline the hierarchical schedule is compared against).
pub fn flat_ring_loads(prim: Primitive, bytes: u64, topo: &Topology) -> Vec<(usize, usize, u64)> {
    let n = topo.n_gpus();
    if n < 2 {
        return Vec::new();
    }
    let per_link = ring_factor(prim) * bytes * (n as u64 - 1) / n as u64;
    if per_link == 0 {
        return Vec::new();
    }
    (0..n).map(|src| (src, (src + 1) % n, per_link)).collect()
}

/// Sums the bytes of `loads` whose edge crosses a node boundary.
fn inter_bytes_of(loads: &[(usize, usize, u64)], topo: &Topology) -> u64 {
    loads
        .iter()
        .filter(|&&(src, dst, _)| topo.tier(src, dst) == LinkTier::Inter)
        .map(|&(_, _, b)| b)
        .sum()
}

/// Total inter-node bytes the hierarchical schedule moves: the leader
/// ring's traffic, `nodes · f·S·(nodes-1)/nodes`. Zero on one node.
pub fn inter_bytes_hierarchical(prim: Primitive, bytes: u64, topo: &Topology) -> u64 {
    inter_bytes_of(&ring_loads(prim, bytes, topo), topo)
}

/// Total inter-node bytes the flat ring moves: one crossing per node,
/// each carrying the full per-link ring traffic — `nodes · f·S·(n-1)/n`.
/// Zero on one node.
pub fn inter_bytes_flat(prim: Primitive, bytes: u64, topo: &Topology) -> u64 {
    inter_bytes_of(&flat_ring_loads(prim, bytes, topo), topo)
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    fn topo() -> Topology {
        Topology::a800_hdr(2, 4)
    }

    #[test]
    fn single_node_is_bit_identical_to_flat() {
        use interconnect::FabricSpec;
        let t = Topology::single_node(FabricSpec::a800_nvlink(), 8);
        for prim in Primitive::ALL {
            let tiered = tiered_duration(prim, 1 << 20, &t, Algorithm::Ring);
            let flat = collective_duration_with(prim, 1 << 20, 8, &t.intra, Algorithm::Ring);
            assert_eq!(tiered, flat, "{prim}");
        }
        assert_eq!(inter_bytes_flat(Primitive::AllReduce, 1 << 20, &t), 0);
        assert_eq!(
            inter_bytes_hierarchical(Primitive::AllReduce, 1 << 20, &t),
            0
        );
    }

    #[test]
    fn hierarchical_moves_strictly_fewer_inter_bytes() {
        let t = topo();
        let s = 16 << 20;
        for prim in [
            Primitive::AllReduce,
            Primitive::ReduceScatter,
            Primitive::AllGather,
        ] {
            let flat = inter_bytes_flat(prim, s, &t);
            let hier = inter_bytes_hierarchical(prim, s, &t);
            assert!(hier < flat, "{prim}: hier {hier} vs flat {flat}");
        }
        // 2 nodes x 4 GPUs, AllReduce: flat crosses 2 · 2S·7/8 = 3.5S,
        // hierarchical crosses 2S.
        let s = 8u64 << 20;
        assert_eq!(
            inter_bytes_flat(Primitive::AllReduce, s, &t),
            2 * (2 * s * 7 / 8)
        );
        assert_eq!(inter_bytes_hierarchical(Primitive::AllReduce, s, &t), 2 * s);
    }

    #[test]
    fn hierarchical_is_faster_than_flat_on_two_tiers() {
        let t = topo();
        for bytes in [1u64 << 20, 16 << 20, 256 << 20] {
            let hier = tiered_duration(Primitive::AllReduce, bytes, &t, Algorithm::Ring);
            let flat = flat_tiered_duration(Primitive::AllReduce, bytes, &t, Algorithm::Ring);
            assert!(
                hier < flat,
                "{bytes} bytes: hierarchical {hier:?} vs flat {flat:?}"
            );
        }
    }

    #[test]
    fn one_gpu_per_node_skips_intra_phases() {
        let t = Topology::a800_hdr(4, 1);
        let hier = tiered_duration(Primitive::AllReduce, 4 << 20, &t, Algorithm::Ring);
        let inter_only =
            collective_duration_with(Primitive::AllReduce, 4 << 20, 4, &t.inter, Algorithm::Ring);
        assert_eq!(hier, inter_only);
        // The ring loads are exactly the leader (= every rank) ring.
        let loads = ring_loads(Primitive::AllReduce, 4 << 20, &t);
        assert_eq!(loads.len(), 4);
        assert!(loads.iter().all(|&(s, d, _)| !t.same_node(s, d)));
    }

    #[test]
    fn ring_loads_cover_both_tiers() {
        let t = topo();
        let loads = ring_loads(Primitive::AllReduce, 8 << 20, &t);
        // 2 nodes x 4 intra edges + 2 leader edges.
        assert_eq!(loads.len(), 10);
        let inter: Vec<_> = loads
            .iter()
            .filter(|&&(s, d, _)| !t.same_node(s, d))
            .collect();
        assert_eq!(inter.len(), 2);
        assert_eq!(*inter[0], (0, 4, 8 << 20));
        assert_eq!(*inter[1], (4, 0, 8 << 20));
    }

    #[test]
    fn all_to_all_has_no_hierarchical_shortcut() {
        let t = topo();
        let hier = tiered_duration(Primitive::AllToAll, 8 << 20, &t, Algorithm::Ring);
        let flat = flat_tiered_duration(Primitive::AllToAll, 8 << 20, &t, Algorithm::Ring);
        assert_eq!(hier, flat);
    }

    #[test]
    fn zero_payload_moves_nothing() {
        let t = topo();
        assert!(ring_loads(Primitive::AllReduce, 0, &t).is_empty());
        assert_eq!(inter_bytes_flat(Primitive::AllGather, 0, &t), 0);
    }
}
