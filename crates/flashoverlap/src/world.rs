//! The reusable simulation world a chain runs in.
//!
//! FlashOverlap sets its counting tables, buffers and signaling
//! thresholds up once and resets them on every iteration (§3.2.4, §5);
//! only the GEMM waves and the collectives run per call. A
//! [`ChainWorld`] does the same for the simulator: the cluster, the
//! event engine and the span buffer are built once and reset for every
//! chain, keeping their allocations.

use gpu_sim::{Cluster, ClusterSim, OpSpan};

use crate::system::SystemSpec;

/// A cluster, an event engine and a span buffer that successive chains
/// reuse (see [`crate::sequence::execute_sequence_in`]).
///
/// **Reset contract.** A chain starts from exactly the state
/// [`SystemSpec::build_cluster`] and [`sim::Sim::new`] give for its
/// first plan's system: device RNGs forked from `system.seed`; stream,
/// event, counting-table and buffer ids starting at 0; empty SM ledgers
/// and no comm fault; the engine at t = 0 with sequence 0, nothing
/// processed and an empty queue. The world is rebuilt when that system
/// differs from the one it was built for in anything `build_cluster`
/// reads (rank count, architecture, seed or node map), and reset
/// otherwise.
///
/// **Between chains** the world holds nothing of the previous chain —
/// no queued event or kernel, no parked wait, no monitor and no probe —
/// only allocations: stream queues, counting-table slots, buffer
/// tables, the event heap and the span buffer. So a finished chain
/// leaves its plans' `Rc` counts where they were, and a chain that
/// failed leaves the next one identical to a fresh run.
#[derive(Debug, Default)]
pub struct ChainWorld {
    /// The cluster and the seed it was built for; `None` before the
    /// first chain.
    cluster: Option<(Cluster, u64)>,
    sim: ClusterSim,
    /// The span buffer the next traced chain records into (empty).
    spans: Vec<OpSpan>,
}

impl ChainWorld {
    /// An empty world; the first chain builds its cluster.
    pub fn new() -> Self {
        ChainWorld::default()
    }

    /// Readies the world for a chain on `system` — rebuilding the cluster
    /// if it was built for another system, resetting it when only the
    /// functional mode changes — and hands out the cluster and engine.
    /// A traced chain records into the recycled span buffer.
    pub(crate) fn prepare(
        &mut self,
        system: &SystemSpec,
        functional: bool,
        trace: bool,
    ) -> (&mut Cluster, &mut ClusterSim) {
        let ChainWorld {
            cluster,
            sim,
            spans,
        } = self;
        let reusable = cluster
            .as_ref()
            .is_some_and(|(built, seed)| *seed == system.seed && built_for(built, system));
        if !reusable {
            *cluster = None;
        }
        let (cluster, seed) =
            cluster.get_or_insert_with(|| (system.build_cluster(functional), system.seed));
        if cluster.functional != functional {
            cluster.reset(functional, *seed);
        }
        if trace {
            cluster.op_spans = Some(std::mem::take(spans));
        }
        (cluster, sim)
    }

    /// Drops everything a chain left in the world — queued events and
    /// kernels, parked waits, buffers, the monitor and the probe — and
    /// returns the cluster and engine to their reset state.
    pub(crate) fn clear(&mut self) {
        if let Some((cluster, seed)) = &mut self.cluster {
            let functional = cluster.functional;
            cluster.reset(functional, *seed);
        }
        self.sim.reset();
    }

    /// The capacity of each buffer the world keeps between chains, by
    /// name — the event heap, the span buffer and the cluster's queues
    /// and slabs ([`Cluster::retained_capacities`]) — so a test can check
    /// that warm chains neither drop nor grow them.
    pub fn retained_capacities(&self) -> Vec<(&'static str, usize)> {
        let mut capacities = vec![
            ("event heap", self.sim.capacity()),
            ("spans", self.spans.capacity()),
        ];
        if let Some((cluster, _)) = &self.cluster {
            capacities.extend(cluster.retained_capacities());
        }
        capacities
    }

    /// Hands a chain's [`crate::SequenceOutcome::spans`] back once read,
    /// so the next traced chain records into its allocation.
    pub fn recycle_spans(&mut self, mut spans: Vec<OpSpan>) {
        if spans.capacity() > self.spans.capacity() {
            spans.clear();
            self.spans = spans;
        }
    }
}

/// Whether `cluster` has the devices and node map
/// [`SystemSpec::build_cluster`] would give `system` (the seed is
/// checked by the caller).
fn built_for(cluster: &Cluster, system: &SystemSpec) -> bool {
    let topology = &system.topology;
    cluster.devices.len() == system.n_gpus
        && cluster.devices.iter().all(|d| d.arch == system.arch)
        && cluster
            .node_of
            .iter()
            .copied()
            .eq((0..topology.n_gpus()).map(|r| topology.node_of(r)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prepare_gives_what_build_cluster_gives() {
        let flat = SystemSpec::rtx4090(4);
        let systems = [
            flat.clone(),
            flat.clone().with_nodes(2),
            flat.clone().with_seed(3),
            SystemSpec::a800(4),
            SystemSpec::rtx4090(2),
            flat.clone(),
            // Reused (reset, not rebuilt), with the functional mode flipped.
            flat,
        ];
        let mut world = ChainWorld::new();
        for (i, system) in systems.iter().enumerate() {
            let functional = i % 2 == 1;
            let (cluster, sim) = world.prepare(system, functional, false);
            let mut want = system.build_cluster(functional);
            assert_eq!(cluster.node_of, want.node_of, "system {i}");
            assert_eq!(cluster.noise, want.noise, "system {i}");
            assert_eq!(cluster.functional, functional, "system {i}");
            assert_eq!(cluster.devices.len(), want.devices.len(), "system {i}");
            for (got, want) in cluster.devices.iter_mut().zip(&mut want.devices) {
                assert_eq!(got.arch, want.arch, "system {i}");
                assert_eq!(got.mem.functional(), functional, "system {i}");
                assert_eq!(got.rng.next_u64(), want.rng.next_u64(), "system {i}");
                assert_eq!(got.create_stream(), 0, "system {i}");
            }
            assert_eq!((sim.now(), sim.pending()), (sim::SimTime::ZERO, 0));
            world.clear();
        }
    }
}
