//! Collective and peer-copy stream ops: the kind-independent mechanism.
//!
//! Each rank of a collective call enqueues its half, a [`CollectiveOp`].
//! The halves rendezvous in a communicator scope of the cluster
//! ([`Cluster::open_comm_scope`], one `ncclComm_t` instance); the call
//! starts when the last rank arrives, serializes behind the scope's
//! earlier calls, holds SMs on every rank from arrival to completion
//! (§4.2.1) and finishes on all ranks at once. What a call moves and
//! costs is the communication library's business, behind
//! [`CollectiveCall`].

use std::ops::Range;
use std::rc::Rc;

use sim::{SimDuration, SimTime};

use crate::cluster::Cluster;
use crate::device::DeviceId;
use crate::memory::BufferId;
use crate::monitor::{Access, AccessKind, AccessScope, LinkTransfer, RuntimeEvent};
use crate::stream::{Completion, Event};
use crate::ClusterSim;

/// One collective call as the communication library describes it: who
/// takes part, what each rank reads and receives, and what the call
/// costs. Built once per call and shared by its ranks' ops.
pub trait CollectiveCall: std::fmt::Debug {
    /// The device of each rank.
    fn ranks(&self) -> &[DeviceId];
    /// SMs each rank holds while the call is in flight.
    fn sm_footprint(&self) -> u32;
    /// Whether the call crosses nodes, so inter-node link faults apply.
    fn crosses_nodes(&self) -> bool;
    /// The noise-free wire time of the call.
    fn duration(&self) -> SimDuration;
    /// Per-rank payload bytes (span metadata).
    fn payload_bytes(&self) -> u64;
    /// The buffer ranges `rank` contributes, read from its arrival on.
    fn send_ranges(&self, rank: usize) -> Vec<(BufferId, Range<usize>)>;
    /// The buffer ranges `rank` receives, written at completion.
    fn recv_ranges(&self, rank: usize) -> Vec<(BufferId, Range<usize>)>;
    /// Per-link byte loads as `(src rank, dst rank, bytes)`.
    fn link_loads(&self) -> Vec<(usize, usize, u64)>;
    /// Moves the data between the ranks (functional mode).
    fn apply_data(&self, world: &mut Cluster);
}

/// Why a collective was issued: as part of the planned overlap schedule,
/// or by the watchdog's recovery ladder. The role only changes the span
/// name, so traces show recovery collectives distinctly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CollectiveRole {
    /// A planned, signal-gated overlap collective.
    #[default]
    Overlap,
    /// A tail collective re-issued by the watchdog for a starved group.
    Tail,
    /// A bulk non-overlapped collective issued in degraded mode.
    Bulk,
}

/// One rank's half of a collective call.
#[derive(Debug)]
pub struct CollectiveOp {
    /// What the call moves, shared by its ranks' ops.
    pub call: Rc<dyn CollectiveCall>,
    /// The communicator scope the call rendezvous and serializes in.
    pub scope: usize,
    /// The call's number within its scope; every rank's op carries it.
    pub id: u64,
    /// This op's rank.
    pub rank: usize,
    /// Signal group the collective serves (overlap runtime only).
    pub group: Option<usize>,
    /// Planned-overlap vs. recovery issue reason (span naming).
    pub role: CollectiveRole,
}

/// A one-sided copy of `count` elements from the launching device's
/// buffer into a peer's buffer (peer-to-peer put semantics: the
/// destination does not participate).
#[derive(Debug, Clone, Copy)]
pub struct P2pOp {
    /// Source buffer (on the launching device).
    pub src_buf: BufferId,
    /// Source element offset.
    pub src_off: usize,
    /// Destination device.
    pub dst_dev: DeviceId,
    /// Destination buffer.
    pub dst_buf: BufferId,
    /// Destination element offset.
    pub dst_off: usize,
    /// Element count.
    pub count: usize,
    /// SMs held on the source device while the copy is in flight.
    pub sm_footprint: u32,
    /// Bytes on the wire.
    pub bytes: u64,
    /// Noise-free transfer time.
    pub duration: SimDuration,
}

/// One communicator instance's state: its pending rendezvous and when
/// its in-flight work drains. Calls of one scope serialize, as on one
/// NCCL communicator, even when issued from different streams: they
/// share the same rings.
#[derive(Default)]
pub(crate) struct Scope {
    busy_until: Option<SimTime>,
    pending: Vec<Rendezvous>,
}

impl Scope {
    pub(crate) fn clear(&mut self) {
        self.busy_until = None;
        self.pending.clear();
    }
}

/// A call some but not all ranks have reached.
struct Rendezvous {
    id: u64,
    sm_footprint: u32,
    completions: Vec<Option<Completion>>,
    arrived: usize,
}

/// A rendezvoused call waiting for its finish event.
pub(crate) struct InFlight {
    call: Rc<dyn CollectiveCall>,
    completions: Vec<Option<Completion>>,
}

impl Cluster {
    /// Opens a fresh communicator scope and returns its index for
    /// [`CollectiveOp::scope`]: nothing pending, nothing in flight.
    pub fn open_comm_scope(&mut self) -> usize {
        let scope = self.scopes_open;
        if scope == self.scopes.len() {
            self.scopes.push(Scope::default());
        }
        self.scopes_open += 1;
        scope
    }

    /// Aborts every call of `scope` that not every rank has reached: the
    /// arrived ranks release their SMs and their stream completions fire
    /// without any data moving — the `ncclCommAbort` analog the watchdog
    /// escalates through when a peer rank can never arrive. Returns the
    /// number of aborted calls. Rendezvoused calls complete normally.
    ///
    /// # Panics
    ///
    /// Panics if the scope was never opened.
    pub fn abort_comm_scope(&mut self, sim: &mut ClusterSim, scope: usize) -> usize {
        let pending = std::mem::take(&mut self.scopes[scope].pending);
        let aborted = pending.len();
        for call in pending {
            for completion in call.completions.into_iter().flatten() {
                let device = completion.device();
                self.devices[device].release_comm_sms(call.sm_footprint);
                self.notify_sm_occupancy(sim.now(), device);
                sim.schedule_now(Event::Complete(completion));
            }
        }
        aborted
    }
}

/// Starts `op`: the rank takes its SMs and waits in the rendezvous; the
/// last rank to arrive starts the call.
pub(crate) fn launch(
    op: CollectiveOp,
    completion: Completion,
    world: &mut Cluster,
    sim: &mut ClusterSim,
) {
    let call = &*op.call;
    let n = call.ranks().len();
    let device = completion.device();
    assert_eq!(
        call.ranks()[op.rank],
        device,
        "collective kernel launched on the wrong device"
    );
    // The NCCL kernel occupies its SMs from local launch: it spins
    // waiting for peers, contending with compute the whole time.
    world.devices[device].occupy_comm_sms(call.sm_footprint());
    world.notify_sm_occupancy(sim.now(), device);

    // This rank's contribution is read from arrival on; report it now
    // so a send region still being produced shows up as a race.
    if let Some(monitor) = world.monitor.as_deref().filter(|m| m.observes_accesses()) {
        for (buffer, range) in call.send_ranges(op.rank) {
            monitor.on_access(&Access {
                device,
                stream: completion.stream(),
                buffer,
                range,
                kind: AccessKind::Read,
                scope: AccessScope::CollectiveSend,
                tile: None,
            });
        }
    }

    let pending = &mut world.scopes[op.scope].pending;
    let at = match pending.iter().position(|r| r.id == op.id) {
        Some(at) => at,
        None => {
            pending.push(Rendezvous {
                id: op.id,
                sm_footprint: call.sm_footprint(),
                completions: (0..n).map(|_| None).collect(),
                arrived: 0,
            });
            pending.len() - 1
        }
    };
    let rendezvous = &mut pending[at];
    assert!(
        rendezvous.completions[op.rank].is_none(),
        "rank {} reached collective call {} twice",
        op.rank,
        op.id
    );
    rendezvous.completions[op.rank] = Some(completion);
    rendezvous.arrived += 1;
    if rendezvous.arrived < n {
        return;
    }
    let completions = pending.remove(at).completions;
    // All ranks synchronize with each other at the rendezvous.
    if let Some(monitor) = world.monitor.as_deref() {
        let mut participants = std::mem::take(&mut world.participants);
        participants.clear();
        participants.extend(
            completions
                .iter()
                .flatten()
                .map(|c| (c.device(), c.stream())),
        );
        monitor.on_rendezvous(sim.now(), &participants);
        world.participants = participants;
    }
    // Positive per-call noise models protocol and congestion
    // non-idealities on real fabrics.
    let lead = call.ranks()[0];
    let noise = 1.0
        + world.devices[lead]
            .rng
            .uniform(0.0, world.noise.comm_frac.max(0.0));
    // Injected fabric faults: a persistent bandwidth-degradation
    // multiplier, plus a transient per-collective stall while the stall
    // budget lasts. Inter-tier degradation only bites when the call
    // actually crosses nodes.
    let mut slowdown = world.comm_fault.slowdown_factor();
    if call.crosses_nodes() {
        slowdown *= world.comm_fault.inter_slowdown_factor();
    }
    let stall = world.comm_fault.take_stall().unwrap_or(SimDuration::ZERO);
    if stall.as_nanos() > 0 {
        world.notify_runtime_event(&RuntimeEvent {
            at: sim.now(),
            device: lead,
            kind: crate::monitor::RuntimeEventKind::FaultInjected,
            group: op.group,
            detail: crate::monitor::RuntimeDetail::LinkStall { stall, call: op.id },
        });
    }
    let duration = call.duration().mul_f64(noise * slowdown) + stall;
    // Serialize behind earlier calls of the scope: they share the same
    // fabric rings.
    let scope = &mut world.scopes[op.scope];
    let start = scope.busy_until.map_or(sim.now(), |t| t.max(sim.now()));
    let finish_at = start + duration;
    scope.busy_until = Some(finish_at);
    // The wire is busy for the whole [start, finish_at) window; report
    // each link's share for utilization timelines.
    if let Some(monitor) = world.monitor.as_deref() {
        let ranks = call.ranks();
        for (src, dst, bytes) in call.link_loads() {
            monitor.on_link_transfer(&LinkTransfer {
                src: ranks[src],
                dst: ranks[dst],
                bytes,
                start,
                end: finish_at,
            });
        }
    }
    let slot = world.collectives.insert(InFlight {
        call: op.call,
        completions,
    });
    sim.schedule_at(finish_at, Event::CollectiveFinish(slot));
}

/// Finishes the call in slab slot `slot` on every rank: the received
/// ranges land, the data moves, and each rank releases its SMs.
pub(crate) fn finish(slot: usize, world: &mut Cluster, sim: &mut ClusterSim) {
    let InFlight { call, completions } = world.collectives.take(slot);
    if let Some(monitor) = world.monitor.as_deref().filter(|m| m.observes_accesses()) {
        for (rank, completion) in completions.iter().enumerate() {
            let Some(completion) = completion else {
                continue;
            };
            for (buffer, range) in call.recv_ranges(rank) {
                monitor.on_access(&Access {
                    device: completion.device(),
                    stream: completion.stream(),
                    buffer,
                    range,
                    kind: AccessKind::Write,
                    scope: AccessScope::CollectiveRecv,
                    tile: None,
                });
            }
        }
    }
    if world.functional {
        call.apply_data(world);
    }
    let footprint = call.sm_footprint();
    for (rank, completion) in completions.into_iter().enumerate() {
        let device = call.ranks()[rank];
        world.devices[device].release_comm_sms(footprint);
        world.notify_sm_occupancy(sim.now(), device);
        let completion = completion.expect("all ranks arrived");
        sim.schedule_now(Event::Complete(completion));
    }
}

/// Starts a peer copy on its source device.
pub(crate) fn launch_p2p(
    op: P2pOp,
    completion: Completion,
    world: &mut Cluster,
    sim: &mut ClusterSim,
) {
    let src_dev = completion.device();
    world.devices[src_dev].occupy_comm_sms(op.sm_footprint);
    world.notify_sm_occupancy(sim.now(), src_dev);
    let noise = 1.0
        + world.devices[src_dev]
            .rng
            .uniform(0.0, world.noise.comm_frac.max(0.0));
    let duration = op.duration.mul_f64(noise);
    if let Some(monitor) = world.monitor.as_deref() {
        monitor.on_link_transfer(&LinkTransfer {
            src: src_dev,
            dst: op.dst_dev,
            bytes: op.bytes,
            start: sim.now(),
            end: sim.now() + duration,
        });
    }
    let slot = world.p2p.insert((op, completion));
    sim.schedule_in(duration, Event::P2pFinish(slot));
}

/// Lands the peer copy in slab slot `slot`.
pub(crate) fn finish_p2p(slot: usize, world: &mut Cluster, sim: &mut ClusterSim) {
    let (op, completion) = world.p2p.take(slot);
    let src_dev = completion.device();
    if world.functional {
        let payload: Vec<f32> = {
            let data = world.devices[src_dev].mem.data(op.src_buf);
            data[op.src_off..op.src_off + op.count].to_vec()
        };
        let data = world.devices[op.dst_dev].mem.data_mut(op.dst_buf);
        data[op.dst_off..op.dst_off + op.count].copy_from_slice(&payload);
    }
    world.devices[src_dev].release_comm_sms(op.sm_footprint);
    world.notify_sm_occupancy(sim.now(), src_dev);
    completion.finish(world, sim);
}
