//! System specifications: which GPUs, how many, over what fabric.

use collectives::{Algorithm, Communicator};
use gpu_sim::arch::GpuArch;
use gpu_sim::cluster::Cluster;
use gpu_sim::gemm::{GemmConfig, GemmDims};
use interconnect::FabricSpec;
use topology::Topology;

use crate::error::FlashOverlapError;

/// A complete description of the simulated multi-GPU server an overlap
/// plan targets.
#[derive(Debug, Clone)]
pub struct SystemSpec {
    /// GPU architecture of every device.
    pub arch: GpuArch,
    /// How the GPUs are laid out across nodes. Single-node by default;
    /// [`SystemSpec::with_nodes`] splits the group across nodes with an
    /// InfiniBand-class inter tier, which switches collectives to the
    /// hierarchical schedule and makes the predictor charge node-spanning
    /// groups at inter-tier cost.
    pub topology: Topology,
    /// Number of GPUs participating (the parallel group size).
    pub n_gpus: usize,
    /// Constant SM footprint of one in-flight collective (§4.2.1:
    /// "a communication primitive across given GPUs occupies a constant SM
    /// number using NCCL").
    pub comm_sms: u32,
    /// Simulation seed (jitter, polling phase).
    pub seed: u64,
    /// Collective algorithm the communication library schedules with
    /// (the overlap design is agnostic to it; Ring matches the paper's
    /// NCCL setup).
    pub algorithm: Algorithm,
    /// Maximum per-rank launch skew in nanoseconds: each rank starts its
    /// work a uniformly random delay in `[0, launch_skew_ns)` late,
    /// modelling host-process jitter in multi-process serving. Zero (the
    /// default) matches the paper's single-process measurement setup.
    pub launch_skew_ns: u64,
}

impl SystemSpec {
    /// The RTX 4090 server: PCIe across NUMA, no peer-to-peer.
    pub fn rtx4090(n_gpus: usize) -> Self {
        SystemSpec {
            arch: GpuArch::rtx4090(),
            topology: Topology::single_node(FabricSpec::rtx4090_pcie(), n_gpus.max(1)),
            n_gpus,
            comm_sms: 16,
            seed: 0x5eed,
            algorithm: Algorithm::Ring,
            launch_skew_ns: 0,
        }
    }

    /// The A800 server: pairwise NVLink, peer-to-peer capable.
    pub fn a800(n_gpus: usize) -> Self {
        SystemSpec {
            arch: GpuArch::a800(),
            topology: Topology::single_node(FabricSpec::a800_nvlink(), n_gpus.max(1)),
            n_gpus,
            comm_sms: 20,
            seed: 0x5eed,
            algorithm: Algorithm::Ring,
            launch_skew_ns: 0,
        }
    }

    /// Returns a copy with a different seed (repeat-measurement sweeps).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Returns a copy with a different collective SM footprint (ablation).
    pub fn with_comm_sms(mut self, comm_sms: u32) -> Self {
        self.comm_sms = comm_sms;
        self
    }

    /// Returns a copy using a different collective algorithm (ablation;
    /// the overlap layer is unchanged).
    pub fn with_algorithm(mut self, algorithm: Algorithm) -> Self {
        self.algorithm = algorithm;
        self
    }

    /// Returns a copy with per-rank launch skew (robustness studies).
    pub fn with_launch_skew_ns(mut self, launch_skew_ns: u64) -> Self {
        self.launch_skew_ns = launch_skew_ns;
        self
    }

    /// Returns a copy laid out on an explicit two-tier topology.
    ///
    /// # Panics
    ///
    /// Panics if the topology's GPU count differs from `n_gpus`.
    pub fn with_topology(mut self, topology: Topology) -> Self {
        assert_eq!(
            topology.n_gpus(),
            self.n_gpus,
            "topology covers {} GPUs but the system has {}",
            topology.n_gpus(),
            self.n_gpus
        );
        self.topology = topology;
        self
    }

    /// Returns a copy with the GPUs split evenly across `nodes` nodes:
    /// the existing fabric becomes the intra-node tier and nodes connect
    /// over HDR InfiniBand. `nodes == 1` is the identity.
    ///
    /// # Panics
    ///
    /// Panics if `nodes` is zero or does not divide the GPU count.
    pub fn with_nodes(self, nodes: usize) -> Self {
        assert!(nodes >= 1, "need at least one node");
        assert_eq!(
            self.n_gpus % nodes,
            0,
            "{} GPUs do not split evenly across {nodes} nodes",
            self.n_gpus
        );
        if nodes == 1 {
            return self;
        }
        let topology = Topology::two_tier(
            nodes,
            self.n_gpus / nodes,
            self.fabric().clone(),
            FabricSpec::hdr_infiniband(),
        );
        self.with_topology(topology)
    }

    /// The fabric inside a node: [`SystemSpec::topology`]'s intra tier.
    pub fn fabric(&self) -> &FabricSpec {
        &self.topology.intra
    }

    /// Whether every GPU pair's link, across nodes too, has peer-to-peer
    /// access (what Async-TP and FLUX need).
    pub fn peer_to_peer(&self) -> bool {
        let (topology, n) = (&self.topology, self.topology.n_gpus());
        (0..n).all(|a| (0..n).all(|b| topology.link(a, b).peer_to_peer))
    }

    /// The communicator over all ranks of the topology that the overlap
    /// plan and every simulated baseline run their collectives on.
    ///
    /// # Errors
    ///
    /// As [`SystemSpec::check_group`].
    pub fn communicator(&self) -> Result<Communicator, FlashOverlapError> {
        self.check_group()?;
        let (ranks, topology) = ((0..self.n_gpus).collect(), self.topology.clone());
        Ok(Communicator::with_topology(
            ranks,
            topology,
            self.comm_sms,
            self.algorithm,
        ))
    }

    /// Draws one rank's launch skew from its device RNG: uniform in
    /// `[0, launch_skew_ns)`, or `None`, without a draw, when it is off.
    pub fn launch_skew(&self, dev: &mut gpu_sim::Device) -> Option<sim::SimDuration> {
        let max = self.launch_skew_ns as f64;
        (max > 0.0).then(|| sim::SimDuration::from_nanos(dev.rng.uniform(0.0, max) as u64))
    }

    /// Checks that the system has the two or more GPUs every collective
    /// spans.
    ///
    /// # Errors
    ///
    /// Returns [`FlashOverlapError::IncompatibleShape`] on fewer than two
    /// GPUs.
    pub fn check_group(&self) -> Result<(), FlashOverlapError> {
        if self.n_gpus < 2 {
            return Err(FlashOverlapError::IncompatibleShape {
                reason: format!("a collective needs two or more GPUs, not {}", self.n_gpus),
            });
        }
        Ok(())
    }

    /// SMs left to the GEMM while communication is in flight (Alg. 1
    /// line 3).
    pub fn compute_sms(&self) -> u32 {
        self.arch
            .sm_count
            .saturating_sub(self.comm_sms)
            .max(gpu_sim::device::Device::min_compute_sms(self.arch.sm_count))
    }

    /// The planned wave count `T` of `dims` on this system: the tiles of
    /// [`GemmConfig::choose`]'s configuration at [`SystemSpec::compute_sms`]
    /// tiles per wave. Every plan, offline profile and partition space of
    /// the shape spans this many waves; a pattern's swizzle override only
    /// reorders the tiles.
    pub fn planned_waves(&self, dims: GemmDims) -> u32 {
        let tiles = GemmConfig::choose(dims, &self.arch).grid(dims).num_tiles();
        gpu_sim::wave::wave_count(tiles, self.compute_sms())
    }

    /// Realistic execution noise of the evaluation systems: kernels and
    /// collectives run up to a few percent slower than the analytic
    /// model, never faster ("the actual latency is always slightly
    /// higher than the predicted", §6.4).
    pub const GEMM_NOISE_FRAC: f64 = 0.03;
    /// Communication noise fraction (see [`SystemSpec::GEMM_NOISE_FRAC`]).
    pub const COMM_NOISE_FRAC: f64 = 0.06;

    /// Builds a fresh cluster for one simulation run (with the
    /// evaluation-grade execution noise enabled).
    pub fn build_cluster(&self, functional: bool) -> Cluster {
        let mut cluster = Cluster::new(self.n_gpus, self.arch.clone(), functional, self.seed);
        cluster.noise = gpu_sim::cluster::NoiseSpec {
            gemm_frac: Self::GEMM_NOISE_FRAC,
            comm_frac: Self::COMM_NOISE_FRAC,
        };
        cluster.set_node_map(self.topology.node_map());
        cluster
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_expose_paper_platforms() {
        let r = SystemSpec::rtx4090(4);
        assert_eq!(r.n_gpus, 4);
        assert!(!r.fabric().peer_to_peer);
        let a = SystemSpec::a800(2);
        assert!(a.fabric().peer_to_peer);
    }

    #[test]
    fn compute_sms_subtracts_footprint() {
        let spec = SystemSpec::rtx4090(4);
        assert_eq!(spec.compute_sms(), 128 - 16);
        let spec = spec.with_comm_sms(127);
        assert_eq!(
            spec.compute_sms(),
            gpu_sim::device::Device::min_compute_sms(128)
        );
    }

    #[test]
    fn build_cluster_matches_spec() {
        let spec = SystemSpec::a800(3).with_seed(9);
        let cluster = spec.build_cluster(true);
        assert_eq!(cluster.num_devices(), 3);
        assert!(cluster.functional);
        assert_eq!(cluster.devices[0].arch.name, "A800");
        assert_eq!(cluster.node_of, vec![0, 0, 0]);
    }

    #[test]
    fn with_nodes_splits_the_group_and_places_devices() {
        let spec = SystemSpec::a800(8).with_nodes(2);
        assert_eq!(spec.topology.nodes, 2);
        assert_eq!(spec.topology.gpus_per_node, 4);
        assert_eq!(spec.topology.inter.name, "HDR-IB");
        let cluster = spec.build_cluster(false);
        assert_eq!(cluster.node_of, vec![0, 0, 0, 0, 1, 1, 1, 1]);
        // nodes == 1 is the identity.
        let single = SystemSpec::a800(8).with_nodes(1);
        assert!(!single.topology.spans_nodes());
    }

    #[test]
    #[should_panic(expected = "do not split evenly")]
    fn uneven_node_split_panics() {
        let _ = SystemSpec::a800(6).with_nodes(4);
    }
}
