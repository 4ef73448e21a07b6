//! Two-tier cluster topology: nodes × GPUs-per-node with distinct link
//! classes per tier.
//!
//! The single-node simulator models one box of N GPUs on a uniform
//! fabric. Scaling past one box introduces the defining asymmetry of real
//! clusters: intra-node links (NVLink-class) and inter-node links
//! (IB/PCIe-class) differ by an order of magnitude in bandwidth and
//! per-call overhead. [`Topology`] captures that as a rank → node map
//! plus one [`FabricSpec`] per tier, and answers the only questions the
//! rest of the system asks: *which node is this rank on*, *which fabric
//! does this pair of ranks cross*, and *does this rank set span nodes at
//! all*. Collective cost models, the latency predictor, the serving
//! router, and telemetry all consume those answers; none of them
//! re-derive placement.
//!
//! Ranks are laid out node-major: ranks `[k·g, (k+1)·g)` live on node
//! `k` for `g` GPUs per node. Rank `k·g` is node `k`'s *leader*, the
//! endpoint of the inter-node ring in hierarchical collectives.

#![warn(missing_docs)]

use interconnect::FabricSpec;

/// Which tier of the two-tier fabric a link belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LinkTier {
    /// Both endpoints share a node (fast tier).
    Intra,
    /// The endpoints sit on different nodes (slow tier).
    Inter,
}

impl LinkTier {
    /// Stable label used in reports and telemetry ("intra" / "inter").
    pub fn label(&self) -> &'static str {
        match self {
            LinkTier::Intra => "intra",
            LinkTier::Inter => "inter",
        }
    }
}

/// A two-tier cluster topology: `nodes` nodes of `gpus_per_node` GPUs
/// each, with one fabric class per tier.
///
/// A single-node topology (`nodes == 1`) is the degenerate case every
/// pre-existing code path ran on: all links are intra-tier and the inter
/// fabric is never consulted, so costs are bit-identical to the flat
/// model.
#[derive(Debug, Clone)]
pub struct Topology {
    /// Human-readable topology name.
    pub name: &'static str,
    /// Number of nodes.
    pub nodes: usize,
    /// GPUs per node (homogeneous).
    pub gpus_per_node: usize,
    /// Fabric between GPUs of the same node.
    pub intra: FabricSpec,
    /// Fabric between GPUs of different nodes.
    pub inter: FabricSpec,
}

impl Topology {
    /// A single-node topology over `fabric` — the degenerate case that
    /// reproduces the flat model exactly. The inter tier is set to the
    /// same fabric but is never crossed.
    ///
    /// # Panics
    ///
    /// Panics if `gpus` is zero.
    pub fn single_node(fabric: FabricSpec, gpus: usize) -> Self {
        Topology::two_tier(1, gpus, fabric.clone(), fabric)
    }

    /// A `nodes` × `gpus_per_node` topology with explicit per-tier
    /// fabrics.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn two_tier(
        nodes: usize,
        gpus_per_node: usize,
        intra: FabricSpec,
        inter: FabricSpec,
    ) -> Self {
        assert!(nodes >= 1, "topology needs at least one node");
        assert!(
            gpus_per_node >= 1,
            "topology needs at least one GPU per node"
        );
        Topology {
            name: if nodes > 1 { "two-tier" } else { "single-node" },
            nodes,
            gpus_per_node,
            intra,
            inter,
        }
    }

    /// The evaluation-cluster preset: NVLink inside each node, HDR
    /// InfiniBand between nodes.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn a800_hdr(nodes: usize, gpus_per_node: usize) -> Self {
        let mut t = Topology::two_tier(
            nodes,
            gpus_per_node,
            FabricSpec::a800_nvlink(),
            FabricSpec::hdr_infiniband(),
        );
        t.name = "A800xHDR";
        t
    }

    /// Total GPU count.
    pub fn n_gpus(&self) -> usize {
        self.nodes * self.gpus_per_node
    }

    /// Whether the topology has more than one node at all.
    pub fn spans_nodes(&self) -> bool {
        self.nodes > 1
    }

    /// The node rank `rank` lives on (node-major layout).
    ///
    /// # Panics
    ///
    /// Panics if `rank` is out of range.
    pub fn node_of(&self, rank: usize) -> usize {
        assert!(rank < self.n_gpus(), "rank {rank} out of range");
        rank / self.gpus_per_node
    }

    /// Whether two ranks share a node.
    ///
    /// # Panics
    ///
    /// Panics if either rank is out of range.
    pub fn same_node(&self, a: usize, b: usize) -> bool {
        self.node_of(a) == self.node_of(b)
    }

    /// The tier the `a` → `b` link belongs to.
    ///
    /// # Panics
    ///
    /// Panics if either rank is out of range.
    pub fn tier(&self, a: usize, b: usize) -> LinkTier {
        if self.same_node(a, b) {
            LinkTier::Intra
        } else {
            LinkTier::Inter
        }
    }

    /// The fabric the `a` → `b` link runs over.
    ///
    /// # Panics
    ///
    /// Panics if either rank is out of range.
    pub fn link(&self, a: usize, b: usize) -> &FabricSpec {
        match self.tier(a, b) {
            LinkTier::Intra => &self.intra,
            LinkTier::Inter => &self.inter,
        }
    }

    /// The rank → node map, indexable by device id.
    pub fn node_map(&self) -> Vec<usize> {
        (0..self.n_gpus()).map(|r| self.node_of(r)).collect()
    }

    /// Each node's leader rank (the first rank on the node), the
    /// endpoints of the inter-node ring in hierarchical collectives.
    pub fn leaders(&self) -> Vec<usize> {
        (0..self.nodes).map(|k| k * self.gpus_per_node).collect()
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn single_node_never_spans() {
        let t = Topology::single_node(FabricSpec::a800_nvlink(), 8);
        assert_eq!(t.n_gpus(), 8);
        assert!(!t.spans_nodes());
        assert_eq!(t.node_map(), vec![0; 8]);
        assert_eq!(t.leaders(), vec![0]);
    }

    #[test]
    fn node_major_layout_and_leaders() {
        let t = Topology::a800_hdr(2, 4);
        assert_eq!(t.n_gpus(), 8);
        assert!(t.spans_nodes());
        assert_eq!(t.node_map(), vec![0, 0, 0, 0, 1, 1, 1, 1]);
        assert_eq!(t.leaders(), vec![0, 4]);
    }

    #[test]
    fn tier_and_link_follow_the_node_map() {
        let t = Topology::a800_hdr(2, 4);
        assert_eq!(t.tier(0, 3), LinkTier::Intra);
        assert_eq!(t.tier(3, 4), LinkTier::Inter);
        assert_eq!(t.link(0, 3).name, "A800-NVLink");
        assert_eq!(t.link(3, 4).name, "HDR-IB");
    }

    #[test]
    fn tier_labels_are_stable() {
        assert_eq!(LinkTier::Intra.label(), "intra");
        assert_eq!(LinkTier::Inter.label(), "inter");
    }

    #[test]
    #[should_panic(expected = "at least one node")]
    fn zero_nodes_panics() {
        let _ = Topology::two_tier(
            0,
            4,
            FabricSpec::a800_nvlink(),
            FabricSpec::hdr_infiniband(),
        );
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_rank_panics() {
        let t = Topology::a800_hdr(2, 2);
        let _ = t.node_of(4);
    }
}
