//! Communicators and collective calls.
//!
//! The data/shape/cost semantics of each collective kind live in their own
//! private submodules (`all_reduce`, `reduce_scatter`, `all_gather`,
//! `all_to_all`); [`CollectiveSpec`] is a thin dispatcher over them. A
//! [`Communicator`] turns a spec into per-rank stream ops; the
//! kind-independent machinery they run on — rendezvous, serialization,
//! SM occupancy, monitor emission — is [`gpu_sim::collective`].

mod all_gather;
mod all_reduce;
mod all_to_all;
mod reduce_scatter;

use std::cell::Cell;
use std::ops::Range;
use std::rc::Rc;

use gpu_sim::cluster::Cluster;
use gpu_sim::collective::{CollectiveCall, CollectiveOp, CollectiveRole};
use gpu_sim::device::DeviceId;
use gpu_sim::memory::BufferId;
use gpu_sim::stream::Op;
use gpu_sim::ClusterSim;
use interconnect::FabricSpec;
use sim::SimDuration;
use topology::Topology;

use crate::cost::{Algorithm, Primitive, BYTES_PER_ELEM};
use crate::hierarchical;

/// A contiguous region of one buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Region {
    /// The buffer.
    pub buf: BufferId,
    /// Start element offset.
    pub offset: usize,
    /// Element count.
    pub count: usize,
}

impl Region {
    /// Creates a region.
    pub const fn new(buf: BufferId, offset: usize, count: usize) -> Self {
        Region { buf, offset, count }
    }
}

/// An All-to-All(v) exchange plan: `len[s][d]` elements move from offset
/// `send_off[s][d]` of source `s`'s send buffer to offset `recv_off[d][s]`
/// of destination `d`'s recv buffer. Self-segments (`s == d`) are copied
/// locally and cost no wire time.
#[derive(Debug, Clone, Default)]
pub struct A2aPlan {
    /// Per-source, per-destination send offsets.
    pub send_off: Vec<Vec<usize>>,
    /// Per-source, per-destination element counts.
    pub len: Vec<Vec<usize>>,
    /// Per-destination, per-source receive offsets.
    pub recv_off: Vec<Vec<usize>>,
}

/// One collective operation, described for all ranks at once (the SPMD
/// callsite view).
#[derive(Debug, Clone)]
pub enum CollectiveSpec {
    /// In-place AllReduce over one equal-size region per rank.
    AllReduce {
        /// Per-rank region (element counts must match).
        regions: Vec<Region>,
    },
    /// ReduceScatter: each rank contributes `send` (count divisible by the
    /// rank count) and receives its reduced chunk into `recv`.
    ReduceScatter {
        /// Per-rank send regions (`count == n * recv.count`).
        send: Vec<Region>,
        /// Per-rank receive regions.
        recv: Vec<Region>,
    },
    /// AllGather: each rank contributes `send` and receives the
    /// rank-ordered concatenation into `recv`.
    AllGather {
        /// Per-rank send regions.
        send: Vec<Region>,
        /// Per-rank receive regions (`count == n * send.count`).
        recv: Vec<Region>,
    },
    /// Personalized exchange following an [`A2aPlan`].
    AllToAllV {
        /// Per-rank send buffers.
        send: Vec<BufferId>,
        /// Per-rank receive buffers.
        recv: Vec<BufferId>,
        /// The exchange plan.
        plan: Rc<A2aPlan>,
    },
}

impl CollectiveSpec {
    /// The primitive this spec instantiates.
    pub fn primitive(&self) -> Primitive {
        match self {
            CollectiveSpec::AllReduce { .. } => Primitive::AllReduce,
            CollectiveSpec::ReduceScatter { .. } => Primitive::ReduceScatter,
            CollectiveSpec::AllGather { .. } => Primitive::AllGather,
            CollectiveSpec::AllToAllV { .. } => Primitive::AllToAll,
        }
    }

    /// Per-rank payload bytes (the `S` of the ring cost formulas).
    pub fn payload_bytes(&self) -> u64 {
        match self {
            CollectiveSpec::AllReduce { regions } => all_reduce::payload_bytes(regions),
            CollectiveSpec::ReduceScatter { send, .. } => reduce_scatter::payload_bytes(send),
            CollectiveSpec::AllGather { recv, .. } => all_gather::payload_bytes(recv),
            CollectiveSpec::AllToAllV { plan, .. } => all_to_all::payload_bytes(plan),
        }
    }

    fn duration(&self, topo: &Topology, n: usize, algorithm: Algorithm) -> SimDuration {
        match self {
            // Personalized exchanges run at the speed of the slowest tier
            // they cross; there is no hierarchical shortcut.
            CollectiveSpec::AllToAllV { plan, .. } => {
                let fabric = if topo.spans_nodes() {
                    &topo.inter
                } else {
                    &topo.intra
                };
                all_to_all::duration(plan, n, fabric)
            }
            _ => hierarchical::tiered_duration(
                self.primitive(),
                self.payload_bytes(),
                topo,
                algorithm,
            ),
        }
    }

    fn validate(&self, n: usize) {
        match self {
            CollectiveSpec::AllReduce { regions } => all_reduce::validate(regions, n),
            CollectiveSpec::ReduceScatter { send, recv } => {
                reduce_scatter::validate(send, recv, n);
            }
            CollectiveSpec::AllGather { send, recv } => all_gather::validate(send, recv, n),
            CollectiveSpec::AllToAllV { send, recv, plan } => {
                all_to_all::validate(send, recv, plan, n);
            }
        }
    }

    /// Applies the data semantics against the cluster (functional mode).
    /// On a multi-node topology AllReduce reduces hierarchically —
    /// per-node partial sums first, then across nodes — matching the
    /// dataflow of the hierarchical schedule.
    fn apply_data(&self, world: &mut Cluster, ranks: &[DeviceId], topo: &Topology) {
        match self {
            CollectiveSpec::AllReduce { regions } if topo.spans_nodes() => {
                all_reduce::apply_data_hierarchical(world, ranks, regions, &topo.node_map());
            }
            CollectiveSpec::AllReduce { regions } => {
                all_reduce::apply_data(world, ranks, regions);
            }
            CollectiveSpec::ReduceScatter { send, recv } => {
                reduce_scatter::apply_data(world, ranks, send, recv);
            }
            CollectiveSpec::AllGather { send, recv } => {
                all_gather::apply_data(world, ranks, send, recv);
            }
            CollectiveSpec::AllToAllV { send, recv, plan } => {
                all_to_all::apply_data(world, ranks, send, recv, plan);
            }
        }
    }

    /// The local buffer ranges rank `rank` contributes — read from the
    /// moment the rank's collective kernel arrives.
    pub fn send_ranges(&self, rank: usize) -> Vec<(BufferId, Range<usize>)> {
        match self {
            CollectiveSpec::AllReduce { regions } => all_reduce::send_ranges(regions, rank),
            CollectiveSpec::ReduceScatter { send, .. } => reduce_scatter::send_ranges(send, rank),
            CollectiveSpec::AllGather { send, .. } => all_gather::send_ranges(send, rank),
            CollectiveSpec::AllToAllV { send, plan, .. } => {
                all_to_all::send_ranges(send, plan, rank)
            }
        }
    }

    /// Per-link byte loads of the exchange as `(src_rank, dst_rank,
    /// bytes)` triples, for link-utilization telemetry.
    ///
    /// Ring collectives are modelled over the ring schedule (rank `i` →
    /// rank `i + 1 mod n`), the bandwidth-optimal default: AllReduce moves
    /// `2 S (n-1)/n` bytes per link, ReduceScatter/AllGather `S (n-1)/n`.
    /// All-to-All reads its explicit plan, skipping self-segments.
    pub fn link_loads(&self, n: usize) -> Vec<(usize, usize, u64)> {
        if n < 2 {
            return Vec::new();
        }
        match self {
            CollectiveSpec::AllToAllV { plan, .. } => {
                let mut loads = Vec::new();
                for (src, row) in plan.len.iter().enumerate() {
                    for (dst, &len) in row.iter().enumerate() {
                        if src != dst && len > 0 {
                            loads.push((src, dst, len as u64 * BYTES_PER_ELEM));
                        }
                    }
                }
                loads
            }
            _ => {
                let s = self.payload_bytes();
                let per_link = match self.primitive() {
                    Primitive::AllReduce => 2 * s * (n as u64 - 1) / n as u64,
                    _ => s * (n as u64 - 1) / n as u64,
                };
                if per_link == 0 {
                    return Vec::new();
                }
                (0..n).map(|src| (src, (src + 1) % n, per_link)).collect()
            }
        }
    }

    /// Like [`CollectiveSpec::link_loads`], but scheduled over a two-tier
    /// topology: ring collectives route over the hierarchical schedule
    /// (intra-node rings + the inter-node leader ring) when the topology
    /// spans nodes; All-to-All keeps its explicit pairwise plan.
    pub fn link_loads_tiered(&self, topo: &Topology) -> Vec<(usize, usize, u64)> {
        match self {
            CollectiveSpec::AllToAllV { .. } => self.link_loads(topo.n_gpus()),
            _ => hierarchical::ring_loads(self.primitive(), self.payload_bytes(), topo),
        }
    }

    /// The local buffer ranges rank `rank` receives — written when the
    /// collective completes.
    pub fn recv_ranges(&self, rank: usize) -> Vec<(BufferId, Range<usize>)> {
        match self {
            CollectiveSpec::AllReduce { regions } => all_reduce::recv_ranges(regions, rank),
            CollectiveSpec::ReduceScatter { recv, .. } => reduce_scatter::recv_ranges(recv, rank),
            CollectiveSpec::AllGather { recv, .. } => all_gather::recv_ranges(recv, rank),
            CollectiveSpec::AllToAllV { recv, plan, .. } => {
                all_to_all::recv_ranges(recv, plan, rank)
            }
        }
    }
}

struct CommInner {
    ranks: Vec<DeviceId>,
    /// The communicator's own rank space mapped onto nodes and tiers;
    /// single-node for every pre-topology constructor. `topology.intra`
    /// doubles as the flat fabric.
    topology: Topology,
    sm_footprint: u32,
    algorithm: Algorithm,
}

/// A communicator over a fixed set of device ranks, mirroring
/// `ncclComm_t`'s configuration: it knows its fabric, occupies a constant
/// number of SMs per in-flight collective (§4.2.1), and prices calls. It
/// holds no run state and is cheap to clone, so it is built once (per
/// plan, per baseline run) and [opened](Communicator::open) on the world
/// each run uses.
///
/// # Examples
///
/// ```
/// use collectives::{CollectiveSpec, Communicator, Region};
/// use gpu_sim::{Cluster, GpuArch};
/// use interconnect::FabricSpec;
///
/// let comm = Communicator::new(vec![0, 1], FabricSpec::a800_nvlink(), 20);
/// let spec = CollectiveSpec::AllReduce {
///     regions: vec![Region::new(0, 0, 1 << 20), Region::new(0, 0, 1 << 20)],
/// };
/// // Cost model query (no simulation needed):
/// assert!(comm.duration_of(&spec).as_nanos() > 0);
/// // Per-rank ops to enqueue on each rank's stream:
/// let mut world = Cluster::new(2, GpuArch::a800(), false, 1);
/// assert_eq!(comm.open(&mut world).ops(spec).count(), 2);
/// ```
#[derive(Clone)]
pub struct Communicator {
    inner: Rc<CommInner>,
}

impl Communicator {
    /// Creates a single-node Ring communicator over `ranks` on `fabric`,
    /// each in-flight collective holding `sm_footprint` SMs on every rank.
    ///
    /// # Panics
    ///
    /// Panics if fewer than two ranks are given or ranks repeat.
    pub fn new(ranks: Vec<DeviceId>, fabric: FabricSpec, sm_footprint: u32) -> Self {
        let topology = Topology::single_node(fabric, ranks.len().max(1));
        Self::with_topology(ranks, topology, sm_footprint, Algorithm::Ring)
    }

    /// Creates a communicator whose ranks are laid out on a two-tier
    /// topology. `topology` describes the communicator's *own* rank
    /// space: communicator rank `i` sits on `topology.node_of(i)`, so it
    /// must cover exactly `ranks.len()` GPUs. Collectives schedule
    /// hierarchically (and charge inter-tier costs) whenever the
    /// topology spans nodes.
    ///
    /// # Panics
    ///
    /// Panics like [`Communicator::new`], or if the topology size does
    /// not match the rank count.
    pub fn with_topology(
        ranks: Vec<DeviceId>,
        topology: Topology,
        sm_footprint: u32,
        algorithm: Algorithm,
    ) -> Self {
        assert!(ranks.len() >= 2, "communicator needs at least two ranks");
        assert_eq!(
            topology.n_gpus(),
            ranks.len(),
            "topology covers {} GPUs but the communicator has {} ranks",
            topology.n_gpus(),
            ranks.len()
        );
        // A pairwise scan: rank counts are GPU counts, and it needs no
        // sorted copy.
        assert!(
            ranks
                .iter()
                .enumerate()
                .all(|(i, rank)| !ranks[..i].contains(rank)),
            "duplicate ranks in communicator"
        );
        Communicator {
            inner: Rc::new(CommInner {
                ranks,
                topology,
                sm_footprint,
                algorithm,
            }),
        }
    }

    /// The algorithm this communicator schedules collectives with.
    pub fn algorithm(&self) -> Algorithm {
        self.inner.algorithm
    }

    /// Number of ranks.
    pub fn size(&self) -> usize {
        self.inner.ranks.len()
    }

    /// The device ids, by rank.
    pub fn ranks(&self) -> &[DeviceId] {
        &self.inner.ranks
    }

    /// The fabric this communicator runs over (the intra-node tier on a
    /// multi-node topology).
    pub fn fabric(&self) -> &FabricSpec {
        &self.inner.topology.intra
    }

    /// The topology the communicator's ranks are laid out on.
    pub fn topology(&self) -> &Topology {
        &self.inner.topology
    }

    /// The constant SM footprint per in-flight collective.
    pub fn sm_footprint(&self) -> u32 {
        self.inner.sm_footprint
    }

    /// Opens an instance of the communicator on `world`
    /// (`ncclCommInitRank`): its calls rendezvous among themselves and
    /// serialize behind each other, as on one NCCL communicator, and
    /// never with another instance's.
    pub fn open(&self, world: &mut Cluster) -> CommScope {
        CommScope {
            comm: self.clone(),
            scope: world.open_comm_scope(),
            next_call: Cell::new(0),
        }
    }

    /// Predicted duration of `spec` on this communicator (used by cost
    /// models; the runtime uses the same function, so this is exact up to
    /// rendezvous skew).
    pub fn duration_of(&self, spec: &CollectiveSpec) -> SimDuration {
        spec.duration(&self.inner.topology, self.size(), self.inner.algorithm)
    }
}

impl std::fmt::Debug for Communicator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Communicator")
            .field("ranks", &self.inner.ranks)
            .field("fabric", &self.inner.topology.intra.name)
            .field("nodes", &self.inner.topology.nodes)
            .field("sm_footprint", &self.inner.sm_footprint)
            .finish()
    }
}

/// A [`Communicator`] opened on a cluster: it numbers its calls and
/// builds their per-rank ops.
#[derive(Debug)]
pub struct CommScope {
    comm: Communicator,
    scope: usize,
    next_call: Cell<u64>,
}

impl CommScope {
    /// The per-rank ops of one collective call, in rank order. Each must
    /// be enqueued on its own rank's stream; the collective completes on
    /// all ranks simultaneously once every rank has reached it.
    ///
    /// # Panics
    ///
    /// Panics if the spec is inconsistent with the communicator size.
    pub fn ops(&self, spec: CollectiveSpec) -> impl Iterator<Item = Op> {
        self.ops_with_role(spec, None, CollectiveRole::Overlap)
    }

    /// Like [`CommScope::ops`], but tags every op with the signal group
    /// it serves, so span metadata and trace flow events can tie the
    /// collective back to its counting-table slot, and with a
    /// [`CollectiveRole`] so recovery collectives are distinguishable in
    /// traces ("tail-collective" / "bulk-collective" spans).
    ///
    /// # Panics
    ///
    /// Panics if the spec is inconsistent with the communicator size.
    pub fn ops_with_role(
        &self,
        spec: CollectiveSpec,
        group: Option<usize>,
        role: CollectiveRole,
    ) -> impl Iterator<Item = Op> {
        spec.validate(self.comm.size());
        let id = self.next_call.get();
        self.next_call.set(id + 1);
        let scope = self.scope;
        let call: Rc<dyn CollectiveCall> = Rc::new(Call {
            comm: self.comm.clone(),
            spec,
        });
        (0..self.comm.size()).map(move |rank| {
            Op::Collective(CollectiveOp {
                call: Rc::clone(&call),
                scope,
                id,
                rank,
                group,
                role,
            })
        })
    }

    /// Aborts every pending (not yet fully rendezvoused) call of this
    /// instance: the arrived ranks release their SMs and their stream
    /// completions fire without any data moving — the `ncclCommAbort`
    /// analog the watchdog escalates through when a peer rank can never
    /// arrive. Returns the number of aborted calls. In-flight collectives
    /// (already rendezvoused and transferring) complete normally.
    pub fn abort_pending(&self, world: &mut Cluster, sim: &mut ClusterSim) -> usize {
        world.abort_comm_scope(sim, self.scope)
    }
}

/// One call: a spec on a communicator.
#[derive(Debug)]
struct Call {
    comm: Communicator,
    spec: CollectiveSpec,
}

impl CollectiveCall for Call {
    fn ranks(&self) -> &[DeviceId] {
        self.comm.ranks()
    }

    fn sm_footprint(&self) -> u32 {
        self.comm.sm_footprint()
    }

    fn crosses_nodes(&self) -> bool {
        self.comm.topology().spans_nodes()
    }

    fn duration(&self) -> SimDuration {
        self.comm.duration_of(&self.spec)
    }

    fn payload_bytes(&self) -> u64 {
        self.spec.payload_bytes()
    }

    fn send_ranges(&self, rank: usize) -> Vec<(BufferId, Range<usize>)> {
        self.spec.send_ranges(rank)
    }

    fn recv_ranges(&self, rank: usize) -> Vec<(BufferId, Range<usize>)> {
        self.spec.recv_ranges(rank)
    }

    fn link_loads(&self) -> Vec<(usize, usize, u64)> {
        self.spec.link_loads_tiered(self.comm.topology())
    }

    fn apply_data(&self, world: &mut Cluster) {
        self.spec
            .apply_data(world, self.comm.ranks(), self.comm.topology());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::collective_duration;
    use crate::BYTES_PER_ELEM;
    use gpu_sim::arch::GpuArch;
    use gpu_sim::stream::enqueue;
    use sim::Sim;

    fn cluster(n: usize) -> (Cluster, ClusterSim) {
        (Cluster::new(n, GpuArch::rtx4090(), true, 11), Sim::new())
    }

    fn comm(world: &Cluster) -> Communicator {
        Communicator::new(
            (0..world.num_devices()).collect(),
            FabricSpec::rtx4090_pcie(),
            16,
        )
    }

    fn streams(world: &mut Cluster) -> Vec<usize> {
        (0..world.num_devices())
            .map(|d| world.devices[d].create_stream())
            .collect()
    }

    #[test]
    fn allreduce_sums_across_ranks() {
        let (mut world, mut sim) = cluster(4);
        let comm = comm(&world);
        let streams = streams(&mut world);
        let mut regions = Vec::new();
        for d in 0..4 {
            let data: Vec<f32> = (0..8).map(|i| (d * 8 + i) as f32).collect();
            let buf = world.devices[d].mem.alloc_init(&data);
            regions.push(Region::new(buf, 0, 8));
        }
        for (d, kernel) in comm
            .open(&mut world)
            .ops(CollectiveSpec::AllReduce {
                regions: regions.clone(),
            })
            .enumerate()
        {
            enqueue(&mut world, &mut sim, d, streams[d], kernel);
        }
        sim.run(&mut world).unwrap();
        for (d, region) in regions.iter().enumerate() {
            let data = world.devices[d].mem.snapshot(region.buf);
            for (i, &x) in data.iter().enumerate() {
                let expected: f32 = (0..4).map(|r| (r * 8 + i) as f32).sum();
                assert_eq!(x, expected, "rank {d} elem {i}");
            }
        }
    }

    #[test]
    fn reduce_scatter_scatters_reduced_chunks() {
        let (mut world, mut sim) = cluster(2);
        let comm = comm(&world);
        let streams = streams(&mut world);
        let mut send = Vec::new();
        let mut recv = Vec::new();
        for d in 0..2 {
            let data: Vec<f32> = (0..8).map(|i| (d as f32 + 1.0) * i as f32).collect();
            let sbuf = world.devices[d].mem.alloc_init(&data);
            let rbuf = world.devices[d].mem.alloc(4);
            send.push(Region::new(sbuf, 0, 8));
            recv.push(Region::new(rbuf, 0, 4));
        }
        for (d, kernel) in comm
            .open(&mut world)
            .ops(CollectiveSpec::ReduceScatter {
                send,
                recv: recv.clone(),
            })
            .enumerate()
        {
            enqueue(&mut world, &mut sim, d, streams[d], kernel);
        }
        sim.run(&mut world).unwrap();
        // Reduced buffer is 3*i; rank 0 gets elements 0..4, rank 1 gets 4..8.
        assert_eq!(
            world.devices[0].mem.snapshot(recv[0].buf),
            vec![0.0, 3.0, 6.0, 9.0]
        );
        assert_eq!(
            world.devices[1].mem.snapshot(recv[1].buf),
            vec![12.0, 15.0, 18.0, 21.0]
        );
    }

    #[test]
    fn all_gather_concatenates_in_rank_order() {
        let (mut world, mut sim) = cluster(2);
        let comm = comm(&world);
        let streams = streams(&mut world);
        let mut send = Vec::new();
        let mut recv = Vec::new();
        for d in 0..2 {
            let sbuf = world.devices[d].mem.alloc_init(&[d as f32; 3]);
            let rbuf = world.devices[d].mem.alloc(6);
            send.push(Region::new(sbuf, 0, 3));
            recv.push(Region::new(rbuf, 0, 6));
        }
        for (d, kernel) in comm
            .open(&mut world)
            .ops(CollectiveSpec::AllGather {
                send,
                recv: recv.clone(),
            })
            .enumerate()
        {
            enqueue(&mut world, &mut sim, d, streams[d], kernel);
        }
        sim.run(&mut world).unwrap();
        for (d, region) in recv.iter().enumerate() {
            assert_eq!(
                world.devices[d].mem.snapshot(region.buf),
                vec![0.0, 0.0, 0.0, 1.0, 1.0, 1.0]
            );
        }
    }

    #[test]
    fn all_to_all_routes_segments() {
        let (mut world, mut sim) = cluster(2);
        let comm = comm(&world);
        let streams = streams(&mut world);
        // Rank 0 sends [10, 11] to itself and [12] to rank 1;
        // rank 1 sends [20] to rank 0 and [21, 22] to itself.
        let s0 = world.devices[0].mem.alloc_init(&[10.0, 11.0, 12.0]);
        let s1 = world.devices[1].mem.alloc_init(&[20.0, 21.0, 22.0]);
        let r0 = world.devices[0].mem.alloc(3);
        let r1 = world.devices[1].mem.alloc(3);
        let plan = Rc::new(A2aPlan {
            send_off: vec![vec![0, 2], vec![0, 1]],
            len: vec![vec![2, 1], vec![1, 2]],
            recv_off: vec![vec![0, 2], vec![0, 1]],
        });
        let spec = CollectiveSpec::AllToAllV {
            send: vec![s0, s1],
            recv: vec![r0, r1],
            plan,
        };
        for (d, kernel) in comm.open(&mut world).ops(spec).enumerate() {
            enqueue(&mut world, &mut sim, d, streams[d], kernel);
        }
        sim.run(&mut world).unwrap();
        assert_eq!(world.devices[0].mem.snapshot(r0), vec![10.0, 11.0, 20.0]);
        assert_eq!(world.devices[1].mem.snapshot(r1), vec![12.0, 21.0, 22.0]);
    }

    #[test]
    fn collective_waits_for_slowest_rank() {
        let (mut world, mut sim) = cluster(2);
        let comm = comm(&world);
        let streams = streams(&mut world);
        let mut regions = Vec::new();
        for d in 0..2 {
            let buf = world.devices[d].mem.alloc(16);
            regions.push(Region::new(buf, 0, 16));
        }
        let spec = CollectiveSpec::AllReduce {
            regions: regions.clone(),
        };
        let expected_comm = comm.duration_of(&spec);
        let mut ops = comm.open(&mut world).ops(spec);
        let k0 = ops.next().unwrap();
        let k1 = ops.next().unwrap();
        // Rank 1 is delayed by 1 ms before reaching the collective.
        enqueue(&mut world, &mut sim, 0, streams[0], k0);
        enqueue(
            &mut world,
            &mut sim,
            1,
            streams[1],
            Op::Delay(SimDuration::from_millis(1)),
        );
        enqueue(&mut world, &mut sim, 1, streams[1], k1);
        let end = sim.run(&mut world).unwrap();
        let expected = SimDuration::from_millis(1) + expected_comm;
        assert_eq!(end.as_nanos(), expected.as_nanos());
    }

    #[test]
    fn collective_occupies_sms_while_in_flight() {
        let (mut world, mut sim) = cluster(2);
        let comm = comm(&world);
        let streams = streams(&mut world);
        let mut regions = Vec::new();
        for d in 0..2 {
            let buf = world.devices[d].mem.alloc(1 << 20);
            regions.push(Region::new(buf, 0, 1 << 20));
        }
        let kernels = comm
            .open(&mut world)
            .ops(CollectiveSpec::AllReduce { regions });
        for (d, kernel) in kernels.enumerate() {
            enqueue(&mut world, &mut sim, d, streams[d], kernel);
        }
        // Mid-flight, both devices hold the footprint.
        sim.run_until(&mut world, sim::SimTime::from_nanos(100_000))
            .unwrap();
        assert_eq!(world.devices[0].comm_sms(), 16);
        assert_eq!(world.devices[1].comm_sms(), 16);
        sim.run(&mut world).unwrap();
        assert_eq!(world.devices[0].comm_sms(), 0);
        assert_eq!(world.devices[1].comm_sms(), 0);
    }

    #[test]
    fn collectives_on_one_communicator_serialize() {
        // Two concurrent AllReduces on separate streams but the same
        // communicator must take the sum of their durations, not the max:
        // they share the fabric rings (NCCL semantics).
        let (mut world, mut sim) = cluster(2);
        let comm = comm(&world);
        let mut all_regions = Vec::new();
        for _ in 0..2 {
            let mut regions = Vec::new();
            for d in 0..2 {
                let buf = world.devices[d].mem.alloc(1 << 20);
                regions.push(Region::new(buf, 0, 1 << 20));
            }
            all_regions.push(regions);
        }
        let spec0 = CollectiveSpec::AllReduce {
            regions: all_regions[0].clone(),
        };
        let one = comm.duration_of(&spec0);
        let comm = comm.open(&mut world);
        for regions in all_regions {
            let spec = CollectiveSpec::AllReduce { regions };
            for (d, kernel) in comm.ops(spec).enumerate() {
                let stream = world.devices[d].create_stream();
                enqueue(&mut world, &mut sim, d, stream, kernel);
            }
        }
        let end = sim.run(&mut world).unwrap();
        let total = end.as_nanos() as f64;
        assert!(
            total >= 1.9 * one.as_nanos() as f64,
            "collectives overlapped on one communicator: {total} vs {one}"
        );
    }

    #[test]
    fn independent_communicators_run_concurrently() {
        // Two disjoint 2-rank communicators in a 4-GPU box do not share
        // rings and overlap fully.
        let (mut world, mut sim) = cluster(4);
        let mut durations = Vec::new();
        for pair in [[0usize, 1], [2, 3]] {
            let comm = Communicator::new(pair.to_vec(), FabricSpec::rtx4090_pcie(), 16);
            let mut regions = Vec::new();
            for &d in &pair {
                let buf = world.devices[d].mem.alloc(1 << 20);
                regions.push(Region::new(buf, 0, 1 << 20));
            }
            let spec = CollectiveSpec::AllReduce { regions };
            durations.push(comm.duration_of(&spec));
            for (r, kernel) in comm.open(&mut world).ops(spec).enumerate() {
                let stream = world.devices[pair[r]].create_stream();
                enqueue(&mut world, &mut sim, pair[r], stream, kernel);
            }
        }
        let end = sim.run(&mut world).unwrap();
        let max = durations.iter().map(|d| d.as_nanos()).max().unwrap() as f64;
        assert!(
            (end.as_nanos() as f64) < 1.2 * max,
            "disjoint communicators should overlap: {end:?}"
        );
    }

    #[test]
    fn comm_fault_slows_and_stalls_collectives() {
        let run = |slowdown: f64, stall_ns: u64| -> u64 {
            let (mut world, mut sim) = cluster(2);
            world.comm_fault = gpu_sim::CommFault {
                slowdown,
                stall: SimDuration::from_nanos(stall_ns),
                stall_count: u32::from(stall_ns > 0),
                inter_slowdown: 0.0,
            };
            let comm = comm(&world);
            let streams = streams(&mut world);
            let mut regions = Vec::new();
            for d in 0..2 {
                let buf = world.devices[d].mem.alloc(1 << 20);
                regions.push(Region::new(buf, 0, 1 << 20));
            }
            let spec = CollectiveSpec::AllReduce { regions };
            for (d, kernel) in comm.open(&mut world).ops(spec).enumerate() {
                enqueue(&mut world, &mut sim, d, streams[d], kernel);
            }
            sim.run(&mut world).unwrap().as_nanos()
        };
        let clean = run(1.0, 0);
        let slowed = run(3.0, 0);
        let stalled = run(1.0, 500_000);
        assert!(
            slowed as f64 >= 2.9 * clean as f64,
            "degraded link should stretch the collective: {slowed} vs {clean}"
        );
        assert_eq!(stalled, clean + 500_000, "stall adds a fixed delay");
    }

    #[test]
    fn abort_pending_releases_arrived_ranks() {
        let (mut world, mut sim) = cluster(2);
        let comm = comm(&world);
        let streams = streams(&mut world);
        let mut regions = Vec::new();
        for d in 0..2 {
            let buf = world.devices[d].mem.alloc(16);
            regions.push(Region::new(buf, 0, 16));
        }
        let comm = comm.open(&mut world);
        // Only rank 0's op is ever enqueued: rank 1 never arrives, so the
        // call parks forever (the hang the watchdog must break).
        let k0 = comm
            .ops(CollectiveSpec::AllReduce { regions })
            .next()
            .unwrap();
        enqueue(&mut world, &mut sim, 0, streams[0], k0);
        sim.run(&mut world).unwrap();
        assert!(world.check_quiescent().is_err(), "rank 0 is wedged");
        assert_eq!(world.devices[0].comm_sms(), 16);
        assert_eq!(comm.abort_pending(&mut world, &mut sim), 1);
        sim.run(&mut world).unwrap();
        assert!(world.check_quiescent().is_ok(), "abort unwedges the rank");
        assert_eq!(world.devices[0].comm_sms(), 0);
        assert_eq!(comm.abort_pending(&mut world, &mut sim), 0);
    }

    #[test]
    fn recovery_roles_rename_spans() {
        let (mut world, mut sim) = cluster(2);
        world.enable_op_spans();
        let comm = comm(&world);
        let streams = streams(&mut world);
        let mut regions = Vec::new();
        for d in 0..2 {
            let buf = world.devices[d].mem.alloc(16);
            regions.push(Region::new(buf, 0, 16));
        }
        let kernels = comm.open(&mut world).ops_with_role(
            CollectiveSpec::AllReduce { regions },
            Some(3),
            CollectiveRole::Tail,
        );
        for (d, kernel) in kernels.enumerate() {
            enqueue(&mut world, &mut sim, d, streams[d], kernel);
        }
        sim.run(&mut world).unwrap();
        let spans = world.op_spans.as_ref().unwrap();
        assert!(
            spans.iter().all(|s| s.name == "tail-collective"),
            "{spans:?}"
        );
    }

    #[test]
    fn duration_of_matches_cost_model() {
        let (world, _) = cluster(4);
        let comm = comm(&world);
        let regions: Vec<Region> = (0..4).map(|_| Region::new(0, 0, 1 << 20)).collect();
        let spec = CollectiveSpec::AllReduce { regions };
        let expected = collective_duration(
            Primitive::AllReduce,
            (1u64 << 20) * BYTES_PER_ELEM,
            4,
            comm.fabric(),
        );
        assert_eq!(comm.duration_of(&spec), expected);
    }

    #[test]
    #[should_panic(expected = "equal counts")]
    fn mismatched_allreduce_counts_panic() {
        let (mut world, _) = cluster(2);
        let comm = comm(&world);
        let _ = comm.open(&mut world).ops(CollectiveSpec::AllReduce {
            regions: vec![Region::new(0, 0, 4), Region::new(0, 0, 8)],
        });
    }

    #[test]
    #[should_panic(expected = "at least two ranks")]
    fn single_rank_communicator_panics() {
        let _ = Communicator::new(vec![0], FabricSpec::rtx4090_pcie(), 16);
    }

    #[test]
    #[should_panic(expected = "duplicate ranks")]
    fn duplicate_ranks_panic() {
        let _ = Communicator::new(vec![2, 0, 2], FabricSpec::rtx4090_pcie(), 16);
    }

    #[test]
    fn unordered_distinct_ranks_are_accepted() {
        let comm = Communicator::new(vec![2, 0, 1], FabricSpec::rtx4090_pcie(), 16);
        assert_eq!(comm.ranks(), &[2, 0, 1]);
    }

    fn two_node_comm(world: &Cluster) -> Communicator {
        Communicator::with_topology(
            (0..world.num_devices()).collect(),
            Topology::a800_hdr(2, world.num_devices() / 2),
            16,
            Algorithm::Ring,
        )
    }

    #[test]
    fn multi_node_communicator_charges_hierarchical_duration() {
        let (world, _) = cluster(4);
        let comm = two_node_comm(&world);
        let regions: Vec<Region> = (0..4).map(|_| Region::new(0, 0, 1 << 20)).collect();
        let spec = CollectiveSpec::AllReduce { regions };
        let expected = crate::hierarchical::tiered_duration(
            Primitive::AllReduce,
            (1u64 << 20) * BYTES_PER_ELEM,
            comm.topology(),
            Algorithm::Ring,
        );
        assert_eq!(comm.duration_of(&spec), expected);
        // Hierarchical beats the flat ring at inter-node speed.
        let flat = crate::hierarchical::flat_tiered_duration(
            Primitive::AllReduce,
            (1u64 << 20) * BYTES_PER_ELEM,
            comm.topology(),
            Algorithm::Ring,
        );
        assert!(comm.duration_of(&spec) < flat);
    }

    #[test]
    fn multi_node_allreduce_still_sums_across_ranks() {
        let (mut world, mut sim) = cluster(4);
        let comm = two_node_comm(&world);
        let streams = streams(&mut world);
        let mut regions = Vec::new();
        for d in 0..4 {
            // Integer-valued payloads: hierarchical association is
            // bit-exact with the flat sum.
            let data: Vec<f32> = (0..8).map(|i| (d * 8 + i) as f32).collect();
            let buf = world.devices[d].mem.alloc_init(&data);
            regions.push(Region::new(buf, 0, 8));
        }
        for (d, kernel) in comm
            .open(&mut world)
            .ops(CollectiveSpec::AllReduce {
                regions: regions.clone(),
            })
            .enumerate()
        {
            enqueue(&mut world, &mut sim, d, streams[d], kernel);
        }
        sim.run(&mut world).unwrap();
        for (d, region) in regions.iter().enumerate() {
            let data = world.devices[d].mem.snapshot(region.buf);
            for (i, &x) in data.iter().enumerate() {
                let expected: f32 = (0..4).map(|r| (r * 8 + i) as f32).sum();
                assert_eq!(x, expected, "rank {d} elem {i}");
            }
        }
    }

    #[test]
    fn inter_fault_spares_single_node_collectives() {
        let run = |nodes: usize, inter_slowdown: f64| -> u64 {
            let (mut world, mut sim) = cluster(4);
            world.comm_fault.inter_slowdown = inter_slowdown;
            let comm = if nodes > 1 {
                two_node_comm(&world)
            } else {
                Communicator::new((0..4).collect(), FabricSpec::a800_nvlink(), 16)
            };
            let streams = streams(&mut world);
            let mut regions = Vec::new();
            for d in 0..4 {
                let buf = world.devices[d].mem.alloc(1 << 20);
                regions.push(Region::new(buf, 0, 1 << 20));
            }
            let spec = CollectiveSpec::AllReduce { regions };
            for (d, kernel) in comm.open(&mut world).ops(spec).enumerate() {
                enqueue(&mut world, &mut sim, d, streams[d], kernel);
            }
            sim.run(&mut world).unwrap().as_nanos()
        };
        // A degraded inter-node link leaves single-node collectives
        // untouched but stretches node-spanning ones.
        assert_eq!(run(1, 4.0), run(1, 1.0));
        let spanned_clean = run(2, 1.0);
        let spanned_faulted = run(2, 4.0);
        assert!(
            spanned_faulted as f64 >= 3.9 * spanned_clean as f64,
            "inter fault should stretch node-spanning collectives: \
             {spanned_faulted} vs {spanned_clean}"
        );
    }

    #[test]
    fn tiered_link_loads_route_over_the_leader_ring() {
        let (world, _) = cluster(4);
        let comm = two_node_comm(&world);
        let regions: Vec<Region> = (0..4).map(|_| Region::new(0, 0, 1 << 20)).collect();
        let spec = CollectiveSpec::AllReduce { regions };
        let loads = spec.link_loads_tiered(comm.topology());
        let topo = comm.topology();
        let inter: u64 = loads
            .iter()
            .filter(|&&(s, d, _)| !topo.same_node(s, d))
            .map(|&(_, _, b)| b)
            .sum();
        let flat: u64 = spec
            .link_loads(4)
            .iter()
            .filter(|&&(s, d, _)| !topo.same_node(s, d))
            .map(|&(_, _, b)| b)
            .sum();
        assert!(inter > 0 && inter < flat, "inter {inter} vs flat {flat}");
    }
}
