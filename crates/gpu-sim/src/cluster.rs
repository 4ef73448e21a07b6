//! The multi-GPU world.

use std::rc::Rc;

use sim::{DetRng, Trace};

use crate::arch::GpuArch;
use crate::device::{Device, DeviceId};
use crate::monitor::ClusterMonitor;

/// One tile's completion record (Fig. 2 raw data).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TileCompletion {
    /// Device the tile ran on.
    pub device: DeviceId,
    /// Address-order tile index.
    pub tile: u32,
    /// Runtime wave the tile completed in.
    pub wave: u32,
}

/// Structured metadata a kernel attaches to its [`OpSpan`] at the source
/// (via [`crate::stream::Kernel::span_meta`]), so trace exporters never
/// reverse-engineer kernel names.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SpanMeta {
    /// No metadata (control ops, delays, callbacks).
    #[default]
    None,
    /// A GEMM kernel: its grid's tile and wave totals.
    Gemm {
        /// Total output tiles in the grid.
        tiles: u32,
        /// Contended wave count of the grid.
        waves: u32,
    },
    /// A collective (or peer copy): bytes it moves per rank, and the
    /// signal group it serves when launched by the overlap runtime.
    Collective {
        /// Per-rank payload bytes.
        bytes: u64,
        /// Signal group index, if the collective is group-tagged.
        group: Option<usize>,
    },
}

/// One completed stream operation, for timeline rendering.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpSpan {
    /// Device the op ran on.
    pub device: DeviceId,
    /// Stream the op occupied.
    pub stream: usize,
    /// Kernel name (from [`crate::stream::Kernel::name`]).
    pub name: &'static str,
    /// Source-attached kernel metadata.
    pub meta: SpanMeta,
    /// When the op started occupying the stream.
    pub start: sim::SimTime,
    /// When it completed.
    pub end: sim::SimTime,
}

/// Positive execution-time noise: every kernel draws a multiplicative
/// factor in `[1, 1 + frac)`, modelling clock/DVFS variance and other
/// non-idealities of real hardware. Zero (the default) gives exactly
/// reproducible analytic timing; the evaluation systems enable it so
/// measured latencies sit slightly above model predictions, as on real
/// machines.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NoiseSpec {
    /// Noise fraction for compute kernels.
    pub gemm_frac: f64,
    /// Noise fraction for communication operations.
    pub comm_frac: f64,
}

/// Injected communication-fabric misbehaviour, consumed by collective
/// kernels at rendezvous: a persistent bandwidth-degradation multiplier
/// and a budget of transient stalls (each stall delays one collective).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CommFault {
    /// Multiplier (≥ 1) applied to every collective's duration — models a
    /// persistently underdelivering link. Values below 1 are clamped up.
    pub slowdown: f64,
    /// Extra delay added to the next `stall_count` collectives (transient
    /// link stalls: retransmits, congestion bursts).
    pub stall: sim::SimDuration,
    /// How many upcoming collectives the stall still applies to.
    pub stall_count: u32,
    /// Extra multiplier (≥ 1) applied only to collectives whose
    /// communicator spans nodes — a degraded *inter-node* link. Composes
    /// with `slowdown`; single-node collectives never feel it.
    pub inter_slowdown: f64,
}

impl CommFault {
    /// Consumes one stall application, if any remain.
    pub fn take_stall(&mut self) -> Option<sim::SimDuration> {
        if self.stall_count == 0 || self.stall.as_nanos() == 0 {
            return None;
        }
        self.stall_count -= 1;
        Some(self.stall)
    }

    /// The effective duration multiplier (clamped to ≥ 1).
    pub fn slowdown_factor(&self) -> f64 {
        self.slowdown.max(1.0)
    }

    /// The extra multiplier for node-spanning collectives (clamped to
    /// ≥ 1).
    pub fn inter_slowdown_factor(&self) -> f64 {
        self.inter_slowdown.max(1.0)
    }
}

/// One blocked signal wait, with the full counter context: which rank is
/// stuck, on which table slot, and how far the count is from the unmet
/// threshold. Produced by [`Cluster::stuck_waits`] for deadlock
/// diagnostics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StuckWait {
    /// The blocked rank (device id).
    pub device: DeviceId,
    /// The stream whose signal wait is parked.
    pub stream: usize,
    /// Counting-table index on the device.
    pub table: usize,
    /// The starved group slot.
    pub group: usize,
    /// The count the slot actually reached.
    pub count: u32,
    /// The threshold the wait needs (never met).
    pub threshold: u32,
}

impl std::fmt::Display for StuckWait {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "rank {} stream {} blocked on counter table {} group {}: count {} < threshold {}",
            self.device, self.stream, self.table, self.group, self.count, self.threshold
        )
    }
}

/// The simulation world: a homogeneous multi-GPU server.
///
/// `Cluster` is the `W` type of [`sim::Sim`]; every kernel and collective
/// in the reproduction executes as events against it.
pub struct Cluster {
    /// The devices, indexed by rank.
    pub devices: Vec<Device>,
    /// Whether buffers carry real data (functional mode) or only lengths
    /// (timing mode).
    pub functional: bool,
    /// Optional per-tile completion trace (enable for Fig. 2).
    pub tile_trace: Option<Trace<TileCompletion>>,
    /// Execution-time noise (off by default).
    pub noise: NoiseSpec,
    /// Optional per-stream operation spans (enable for timeline
    /// rendering).
    pub op_spans: Option<Vec<OpSpan>>,
    /// Optional access/synchronization observer (see [`ClusterMonitor`]).
    pub monitor: Option<Rc<dyn ClusterMonitor>>,
    /// Injected communication-fabric faults (none by default).
    pub comm_fault: CommFault,
    /// Device → node placement map (all zeros for a single-node box).
    /// Filled in by the topology-aware cluster builders; gpu-sim itself
    /// never interprets it, but telemetry and serving read it to label
    /// devices and place replicas.
    pub node_of: Vec<usize>,
    /// Waiters released by counter increments and not yet woken: the
    /// epilogue appends to it and `wake_counter_waiters` drains it, so the
    /// signal path reuses one buffer.
    pub(crate) released: Vec<crate::counter::Waiter>,
}

impl std::fmt::Debug for Cluster {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Cluster")
            .field("devices", &self.devices.len())
            .field("functional", &self.functional)
            .field("noise", &self.noise)
            .field("monitor", &self.monitor.is_some())
            .finish()
    }
}

impl Cluster {
    /// Creates a cluster of `n` identical devices.
    ///
    /// Per-device randomness is forked deterministically from `seed`, so
    /// equal seeds give bit-identical simulations.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn new(n: usize, arch: GpuArch, functional: bool, seed: u64) -> Self {
        assert!(n > 0, "cluster needs at least one device");
        // `reset` forks each device's RNG from `seed`.
        let devices = (0..n)
            .map(|id| Device::new(id, arch.clone(), functional, DetRng::new(seed)))
            .collect();
        let mut cluster = Cluster {
            devices,
            functional,
            tile_trace: None,
            noise: NoiseSpec::default(),
            op_spans: None,
            monitor: None,
            comm_fault: CommFault::default(),
            node_of: vec![0; n],
            released: Vec::new(),
        };
        cluster.reset(functional, seed);
        cluster
    }

    /// Returns the cluster to the run state [`Cluster::new`] gives for
    /// `seed`: device RNGs re-forked from it, no buffer, stream, event or
    /// counting table on any device (ids restart at 0), empty SM
    /// ledgers, no comm fault, no monitor and no trace or span
    /// recording. Queued kernels and parked waits are dropped unrun. What
    /// the cluster was built with stays: its devices and their
    /// architecture, the noise spec and the node map. Allocations are
    /// kept for reuse. Every field is named here, so a new field does not
    /// compile until its reset is decided.
    pub fn reset(&mut self, functional: bool, seed: u64) {
        let Cluster {
            devices,
            functional: mode,
            tile_trace,
            noise: _,
            op_spans,
            monitor,
            comm_fault,
            node_of: _,
            released,
        } = self;
        let root = DetRng::new(seed);
        for (id, device) in devices.iter_mut().enumerate() {
            device.reset(functional, root.fork(id as u64 + 1));
        }
        *mode = functional;
        *tile_trace = None;
        *op_spans = None;
        *monitor = None;
        *comm_fault = CommFault::default();
        released.clear();
    }

    /// Records the device → node placement (one entry per device).
    ///
    /// # Panics
    ///
    /// Panics if the map's length differs from the device count.
    pub fn set_node_map(&mut self, node_of: Vec<usize>) {
        assert_eq!(
            node_of.len(),
            self.devices.len(),
            "node map needs one entry per device"
        );
        self.node_of = node_of;
    }

    /// Attaches an access/synchronization observer.
    pub fn set_monitor(&mut self, monitor: Rc<dyn ClusterMonitor>) {
        self.monitor = Some(monitor);
    }

    /// Number of devices.
    pub fn num_devices(&self) -> usize {
        self.devices.len()
    }

    /// Immutable access to a device.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn device(&self, id: DeviceId) -> &Device {
        &self.devices[id]
    }

    /// Turns on per-tile completion tracing.
    pub fn enable_tile_trace(&mut self) {
        self.tile_trace = Some(Trace::new());
    }

    /// Turns on per-stream operation span recording.
    pub fn enable_op_spans(&mut self) {
        self.op_spans = Some(Vec::new());
    }

    /// Reports `device`'s SM-occupancy totals to the monitor, if one is
    /// attached. Kernels call this right after an `occupy_*`/`release_*`
    /// edge so telemetry sees every occupancy change.
    pub fn notify_sm_occupancy(&self, at: sim::SimTime, device: DeviceId) {
        if let Some(monitor) = &self.monitor {
            let dev = &self.devices[device];
            monitor.on_sm_occupancy(at, device, dev.compute_sms(), dev.comm_sms());
        }
    }

    /// Every signal wait still parked on a counting table, with its full
    /// counter context (blocked rank, group, reached count, unmet
    /// threshold). After the event queue drains, each entry is a wait
    /// whose threshold can never be met — the precise cause behind a
    /// wedged stream that [`Cluster::check_quiescent`] reports.
    pub fn stuck_waits(&self) -> Vec<StuckWait> {
        let mut waits = Vec::new();
        for device in &self.devices {
            for (table, counters) in device.counter_tables() {
                for waiter in counters.parked_waiters() {
                    waits.push(StuckWait {
                        device: waiter.completion.device(),
                        stream: waiter.completion.stream(),
                        table,
                        group: waiter.group,
                        count: counters.count(waiter.group),
                        threshold: waiter.threshold,
                    });
                }
            }
        }
        waits
    }

    /// Checks that every stream has drained: no in-flight or queued
    /// operations remain.
    ///
    /// A simulation whose event queue empties while streams still hold
    /// work is *deadlocked* — typically a collective some rank never
    /// reached, or a counter threshold that can never be met. Call this
    /// after `sim.run` to turn silent hangs into diagnosable errors.
    ///
    /// # Errors
    ///
    /// Returns one line per wedged stream, naming the in-flight op — and,
    /// when the wedge is a starved signal wait, the blocked rank, counter
    /// group, reached count, and unmet threshold.
    pub fn check_quiescent(&self) -> Result<(), Vec<String>> {
        let stuck_waits = self.stuck_waits();
        let mut stuck = Vec::new();
        for device in &self.devices {
            for (sid, stream) in device.streams.iter().enumerate() {
                if stream.busy || !stream.queue.is_empty() {
                    let what = stream
                        .current
                        .map(|(name, _, _)| name)
                        .unwrap_or("queued work");
                    let mut line = format!(
                        "device {} stream {sid}: {} in flight, {} queued ({what})",
                        device.id,
                        u32::from(stream.busy),
                        stream.queue.len(),
                    );
                    if let Some(wait) = stuck_waits
                        .iter()
                        .find(|w| w.device == device.id && w.stream == sid)
                    {
                        line = format!("{line} — {wait}");
                    }
                    stuck.push(line);
                }
            }
        }
        if stuck.is_empty() {
            Ok(())
        } else {
            Err(stuck)
        }
    }

    /// Drops every not-yet-launched kernel queued on `(device, stream)`
    /// and returns how many were discarded. The NCCL `commAbort` analog
    /// for the watchdog: queued kernels have no completion token yet, so
    /// discarding them is safe; an *in-flight* op is untouched.
    ///
    /// # Panics
    ///
    /// Panics if the device or stream does not exist.
    pub fn abort_stream_queue(&mut self, device: DeviceId, stream: usize) -> usize {
        let queue = &mut self.devices[device].streams[stream].queue;
        let dropped = queue.len();
        queue.clear();
        dropped
    }

    /// Reports a fault/recovery occurrence to the monitor, if one is
    /// attached (see [`crate::monitor::RuntimeEvent`]).
    pub fn notify_runtime_event(&self, event: &crate::monitor::RuntimeEvent) {
        if let Some(monitor) = &self.monitor {
            monitor.on_runtime_event(event);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn devices_get_distinct_rngs() {
        let mut c = Cluster::new(2, GpuArch::a800(), false, 7);
        let a = c.devices[0].rng.next_u64();
        let b = c.devices[1].rng.next_u64();
        assert_ne!(a, b);
    }

    #[test]
    fn same_seed_same_cluster_randomness() {
        let mut c1 = Cluster::new(2, GpuArch::a800(), false, 7);
        let mut c2 = Cluster::new(2, GpuArch::a800(), false, 7);
        assert_eq!(c1.devices[1].rng.next_u64(), c2.devices[1].rng.next_u64());
    }

    #[test]
    fn reset_matches_a_fresh_cluster() {
        use crate::stream::{enqueue, WaitCounter};
        let mut c = Cluster::new(2, GpuArch::a800(), false, 7);
        let mut sim: crate::ClusterSim = sim::Sim::new();
        c.enable_op_spans();
        c.enable_tile_trace();
        c.comm_fault.stall_count = 3;
        c.devices[0].occupy_comm_sms(20);
        let s = c.devices[1].create_stream();
        let table = c.devices[1].create_counter(1);
        c.devices[1].mem.alloc(4);
        enqueue(
            &mut c,
            &mut sim,
            1,
            s,
            Box::new(WaitCounter {
                table,
                group: 0,
                threshold: 1,
            }),
        );
        c.devices[0].rng.next_u64();
        c.reset(true, 7);
        let mut fresh = Cluster::new(2, GpuArch::a800(), true, 7);
        assert!(c.functional);
        assert!(c.op_spans.is_none() && c.tile_trace.is_none() && c.monitor.is_none());
        assert_eq!(c.comm_fault, CommFault::default());
        assert!(c.stuck_waits().is_empty(), "parked waits are dropped");
        for (d, f) in c.devices.iter_mut().zip(&mut fresh.devices) {
            assert_eq!(d.rng.next_u64(), f.rng.next_u64(), "rng re-forked");
            assert_eq!(d.comm_sms(), 0);
            assert_eq!(d.mem.num_buffers(), 0);
            assert_eq!(d.create_stream(), 0);
            assert_eq!(d.create_counter(1), 0);
        }
        c.reset(false, 8);
        let mut other = Cluster::new(2, GpuArch::a800(), false, 8);
        assert_eq!(c.devices[1].rng.next_u64(), other.devices[1].rng.next_u64());
    }

    #[test]
    fn trace_disabled_by_default() {
        let mut c = Cluster::new(1, GpuArch::rtx4090(), false, 1);
        assert!(c.tile_trace.is_none());
        c.enable_tile_trace();
        assert!(c.tile_trace.is_some());
    }

    #[test]
    #[should_panic(expected = "at least one device")]
    fn empty_cluster_panics() {
        let _ = Cluster::new(0, GpuArch::rtx4090(), false, 1);
    }

    #[test]
    fn stuck_wait_diagnostic_names_rank_group_count_threshold() {
        use crate::stream::{enqueue, WaitCounter};
        let mut c = Cluster::new(2, GpuArch::rtx4090(), false, 1);
        let mut sim: crate::ClusterSim = sim::Sim::new();
        let s = c.devices[1].create_stream();
        let table = c.devices[1].create_counter(3);
        crate::stream::increment_counter(&mut c, 1, table, 2, 4);
        enqueue(
            &mut c,
            &mut sim,
            1,
            s,
            Box::new(WaitCounter {
                table,
                group: 2,
                threshold: 9,
            }),
        );
        sim.run(&mut c).unwrap();
        let waits = c.stuck_waits();
        assert_eq!(
            waits,
            vec![StuckWait {
                device: 1,
                stream: s,
                table,
                group: 2,
                count: 4,
                threshold: 9,
            }]
        );
        let stuck = c.check_quiescent().unwrap_err();
        assert_eq!(stuck.len(), 1);
        assert!(
            stuck[0].contains("rank 1")
                && stuck[0].contains("group 2")
                && stuck[0].contains("count 4")
                && stuck[0].contains("threshold 9"),
            "diagnostic missing counter context: {stuck:?}"
        );
    }

    #[test]
    fn abort_stream_queue_discards_queued_work_only() {
        use crate::stream::{enqueue, Delay, WaitEvent};
        let mut c = Cluster::new(1, GpuArch::rtx4090(), false, 1);
        let mut sim: crate::ClusterSim = sim::Sim::new();
        let s = c.devices[0].create_stream();
        let ev = c.devices[0].create_event();
        enqueue(&mut c, &mut sim, 0, s, Box::new(WaitEvent(ev)));
        enqueue(
            &mut c,
            &mut sim,
            0,
            s,
            Box::new(Delay(sim::SimDuration::from_nanos(5))),
        );
        sim.run(&mut c).unwrap();
        // The wait is in flight (wedged); only the delay is queued.
        assert_eq!(c.abort_stream_queue(0, s), 1);
        assert!(c.check_quiescent().is_err(), "in-flight op untouched");
    }

    #[test]
    fn comm_fault_stall_budget_is_consumed() {
        let mut fault = CommFault {
            slowdown: 0.5,
            stall: sim::SimDuration::from_nanos(100),
            stall_count: 2,
            inter_slowdown: 0.0,
        };
        assert_eq!(fault.slowdown_factor(), 1.0, "slowdown clamps to >= 1");
        assert_eq!(fault.inter_slowdown_factor(), 1.0, "inter clamps to >= 1");
        assert!(fault.take_stall().is_some());
        assert!(fault.take_stall().is_some());
        assert!(fault.take_stall().is_none());
    }

    #[test]
    fn quiescence_detects_wedged_streams() {
        use crate::stream::{enqueue, WaitEvent};
        let mut c = Cluster::new(1, GpuArch::rtx4090(), false, 1);
        let mut sim: crate::ClusterSim = sim::Sim::new();
        let s = c.devices[0].create_stream();
        let ev = c.devices[0].create_event();
        assert!(c.check_quiescent().is_ok());
        // Wait on an event nobody ever records: the queue drains with the
        // stream wedged.
        enqueue(&mut c, &mut sim, 0, s, Box::new(WaitEvent(ev)));
        sim.run(&mut c).unwrap();
        let stuck = c.check_quiescent().unwrap_err();
        assert_eq!(stuck.len(), 1);
        assert!(stuck[0].contains("device 0 stream 0"), "{stuck:?}");
    }
}
