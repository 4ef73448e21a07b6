//! Property-based tests of the collective library: data semantics for
//! arbitrary sizes/offsets/rank counts, and cost-model monotonicity.

use collectives::{
    collective_duration, inter_bytes_flat, inter_bytes_hierarchical, A2aPlan, Algorithm,
    CollectiveSpec, Communicator, Primitive, Region,
};
use gpu_sim::arch::GpuArch;
use gpu_sim::stream::enqueue;
use gpu_sim::{Cluster, ClusterSim};
use interconnect::FabricSpec;
use proptest::prelude::*;
use sim::{DetRng, Sim};
use std::rc::Rc;
use topology::Topology;

fn run_collective(
    n: usize,
    seed: u64,
    spec_of: impl FnMut(&mut Cluster) -> CollectiveSpec,
) -> Cluster {
    run_collective_on(
        Topology::single_node(FabricSpec::rtx4090_pcie(), n),
        seed,
        spec_of,
    )
}

/// Runs one collective over an explicit topology — the hierarchical
/// schedule and dataflow whenever it spans nodes — and returns the
/// cluster for buffer inspection.
fn run_collective_on(
    topo: Topology,
    seed: u64,
    mut spec_of: impl FnMut(&mut Cluster) -> CollectiveSpec,
) -> Cluster {
    let n = topo.n_gpus();
    let mut world = Cluster::new(n, GpuArch::rtx4090(), true, seed);
    let mut sim: ClusterSim = Sim::new();
    let comm = Communicator::with_topology((0..n).collect(), topo, 16, Algorithm::Ring);
    let streams: Vec<usize> = (0..n).map(|d| world.devices[d].create_stream()).collect();
    let spec = spec_of(&mut world);
    for (d, op) in comm.open(&mut world).ops(spec).enumerate() {
        enqueue(&mut world, &mut sim, d, streams[d], op);
    }
    sim.run(&mut world).expect("collective run");
    world
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// AllReduce computes the element-wise sum regardless of size, offset,
    /// and rank count.
    #[test]
    fn allreduce_is_elementwise_sum(n in 2usize..6, count in 1usize..64,
                                    offset in 0usize..16, seed in any::<u64>()) {
        let mut sources: Vec<Vec<f32>> = Vec::new();
        let world = run_collective(n, seed, |world| {
            let mut rng = DetRng::new(seed ^ 1);
            let mut regions = Vec::new();
            sources.clear();
            for d in 0..n {
                let data: Vec<f32> =
                    (0..offset + count).map(|_| rng.uniform(-4.0, 4.0) as f32).collect();
                let buf = world.devices[d].mem.alloc_init(&data);
                sources.push(data);
                regions.push(Region::new(buf, offset, count));
            }
            CollectiveSpec::AllReduce { regions }
        });
        for d in 0..n {
            let out = world.devices[d].mem.snapshot(0); // send buffer is id 0 per device
            for i in 0..count {
                let expected: f32 = sources.iter().map(|s| s[offset + i]).sum();
                prop_assert!((out[offset + i] - expected).abs() < 1e-4);
            }
            // Prefix (outside the region) is untouched.
            for i in 0..offset {
                prop_assert_eq!(out[i], sources[d][i]);
            }
        }
    }

    /// ReduceScatter chunks equal the AllReduce result sliced per rank.
    #[test]
    fn reduce_scatter_matches_sliced_sum(n in 2usize..6, chunk in 1usize..32,
                                         seed in any::<u64>()) {
        let count = chunk * n;
        let mut sources: Vec<Vec<f32>> = Vec::new();
        let world = run_collective(n, seed, |world| {
            let mut rng = DetRng::new(seed ^ 2);
            let mut send = Vec::new();
            let mut recv = Vec::new();
            sources.clear();
            for d in 0..n {
                let data: Vec<f32> = (0..count).map(|_| rng.uniform(-4.0, 4.0) as f32).collect();
                let sbuf = world.devices[d].mem.alloc_init(&data);
                let rbuf = world.devices[d].mem.alloc(chunk);
                sources.push(data);
                send.push(Region::new(sbuf, 0, count));
                recv.push(Region::new(rbuf, 0, chunk));
            }
            CollectiveSpec::ReduceScatter { send, recv }
        });
        for d in 0..n {
            // recv buffer is the second allocation (id 1) on each device.
            let out = world.devices[d].mem.snapshot(1);
            for i in 0..chunk {
                let expected: f32 = sources.iter().map(|s| s[d * chunk + i]).sum();
                prop_assert!((out[i] - expected).abs() < 1e-4);
            }
        }
    }

    /// A random All-to-All(v) plan delivers every segment unchanged.
    #[test]
    fn all_to_all_delivers_segments(n in 2usize..5, per_pair in 1usize..8,
                                    seed in any::<u64>()) {
        let seg = per_pair;
        let total = seg * n;
        let mut sources: Vec<Vec<f32>> = Vec::new();
        let world = run_collective(n, seed, |world| {
            let mut rng = DetRng::new(seed ^ 3);
            let mut send = Vec::new();
            let mut recv = Vec::new();
            sources.clear();
            for d in 0..n {
                let data: Vec<f32> = (0..total).map(|_| rng.uniform(-4.0, 4.0) as f32).collect();
                send.push(world.devices[d].mem.alloc_init(&data));
                recv.push(world.devices[d].mem.alloc(total));
                sources.push(data);
            }
            let send_off: Vec<Vec<usize>> =
                (0..n).map(|_| (0..n).map(|j| j * seg).collect()).collect();
            let len: Vec<Vec<usize>> = vec![vec![seg; n]; n];
            let recv_off: Vec<Vec<usize>> =
                (0..n).map(|_| (0..n).map(|s| s * seg).collect()).collect();
            CollectiveSpec::AllToAllV {
                send,
                recv,
                plan: Rc::new(A2aPlan { send_off, len, recv_off }),
            }
        });
        for dest in 0..n {
            // recv buffer is the second allocation (id 1) on each device.
            let out = world.devices[dest].mem.snapshot(1);
            for src in 0..n {
                for i in 0..seg {
                    prop_assert_eq!(out[src * seg + i], sources[src][dest * seg + i]);
                }
            }
        }
    }

    /// The cost model is monotone in payload size for every primitive and
    /// rank count.
    #[test]
    fn cost_monotone_in_bytes(n in 2usize..9, base in 1u64..1_000_000) {
        let fabric = FabricSpec::rtx4090_pcie();
        for prim in Primitive::ALL {
            let small = collective_duration(prim, base * n as u64, n, &fabric);
            let large = collective_duration(prim, base * n as u64 * 4, n, &fabric);
            prop_assert!(large >= small, "{prim} on {n} ranks");
        }
    }

    /// The hierarchical AllReduce (reduce-scatter in-node, all-reduce
    /// across leaders, all-gather back) is bit-exact with the flat ring
    /// on integer-valued tensors: integers this small sum exactly in
    /// f32, so any reassociation the schedule performs must be
    /// invisible.
    #[test]
    fn hierarchical_allreduce_is_bit_exact_with_flat(
        nodes in 2usize..4, g in 1usize..4, count in 1usize..48,
        offset in 0usize..8, seed in any::<u64>(),
    ) {
        let n = nodes * g;
        let mut sources: Vec<Vec<f32>> = Vec::new();
        let spec_of = |sources: &mut Vec<Vec<f32>>, world: &mut Cluster| {
            let mut rng = DetRng::new(seed ^ 5);
            let mut regions = Vec::new();
            sources.clear();
            for d in 0..n {
                let data: Vec<f32> = (0..offset + count)
                    .map(|_| (rng.uniform(-8.0, 8.0) as f32).round())
                    .collect();
                let buf = world.devices[d].mem.alloc_init(&data);
                sources.push(data);
                regions.push(Region::new(buf, offset, count));
            }
            CollectiveSpec::AllReduce { regions }
        };
        let hier = run_collective_on(Topology::a800_hdr(nodes, g), seed, |w| {
            spec_of(&mut sources, w)
        });
        let flat = run_collective_on(
            Topology::single_node(FabricSpec::a800_nvlink(), n),
            seed,
            |w| spec_of(&mut sources, w),
        );
        for d in 0..n {
            let h = hier.devices[d].mem.snapshot(0);
            let f = flat.devices[d].mem.snapshot(0);
            prop_assert_eq!(&h, &f, "rank {} diverged between schedules", d);
            for i in 0..count {
                let expected: f32 = sources.iter().map(|s| s[offset + i]).sum();
                prop_assert_eq!(h[offset + i].to_bits(), expected.to_bits());
            }
        }
    }

    /// The hierarchical schedule never crosses node boundaries with more
    /// bytes than the flat ring, for every sampled (nodes, gpus/node,
    /// payload) — and strictly fewer once nodes hold more than one GPU
    /// and the payload is at least one element per rank.
    #[test]
    fn hierarchical_never_exceeds_flat_inter_bytes(
        nodes in 1usize..5, g in 1usize..5, bytes in 0u64..(64 << 20),
    ) {
        prop_assume!(nodes * g >= 2);
        let topo = Topology::a800_hdr(nodes, g);
        for prim in [Primitive::AllReduce, Primitive::ReduceScatter, Primitive::AllGather] {
            let flat = inter_bytes_flat(prim, bytes, &topo);
            let hier = inter_bytes_hierarchical(prim, bytes, &topo);
            prop_assert!(hier <= flat, "{prim}: hier {} > flat {}", hier, flat);
            if nodes >= 2 && g >= 2 && bytes >= (nodes * g) as u64 {
                prop_assert!(hier < flat, "{prim}: hier {} not < flat {}", hier, flat);
            }
            if nodes == 1 {
                prop_assert_eq!(hier, 0);
                prop_assert_eq!(flat, 0);
            }
        }
    }
}
