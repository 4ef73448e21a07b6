//! The FlashOverlap runtime (§3.1, §5).
//!
//! One simulated run executes, per rank:
//!
//! - a single GEMM kernel on the *compute stream*, with the
//!   pre-communication reordering packed into its epilogue and a counting
//!   table hook;
//! - per wave group, a signaling kernel ([`gpu_sim::Op::WaitCounter`])
//!   followed by one collective call on the *communication stream*.
//!
//! The GEMM main loop is never interrupted; communication of group `G_i`
//! starts as soon as the counting table shows all of `G_i`'s tiles
//! finished, while later waves keep computing. The collective is a plain
//! library call over the group's contiguous packed region — exactly the
//! NCCL-call structure of the real system.
//!
//! This module builds plans and enqueues one plan's program; running it
//! is the chain executor's job (`chain.rs`). [`OverlapPlan::execute_with`]
//! lowers to a one-segment chain. A steady-state measurement is
//! `n` copies of the plan in [`crate::execute_sequence`], total over `n`.
#![warn(clippy::indexing_slicing)]

use std::cell::OnceCell;
use std::rc::Rc;

use collectives::{CollectiveRole, CollectiveSpec, CommScope, Communicator, Primitive, Region};
use gpu_sim::arch::RemapGranularity;
use gpu_sim::elementwise::{gather_logical, ElementwiseKernel, ElementwiseOp, Gather};
use gpu_sim::gemm::{CounterHook, EpilogueWriter, GemmConfig, GemmDims, GemmKernel, GroupRun};
use gpu_sim::memory::BufferId;
use gpu_sim::monitor::ClusterMonitor;
use gpu_sim::stream::{enqueue, Op, StreamId};
use gpu_sim::wave::WaveSchedule;
use gpu_sim::{Cluster, ClusterSim};
use planverify::Mutation;
use sim::{EngineProbe, SimDuration, SimTime};
use tensor::Matrix;

use crate::chain::execute_chain;
use crate::error::FlashOverlapError;
use crate::mapping::{GroupLayout, SubtileMapping, TileMapping, TokenMapping};
use crate::partition::WavePartition;
use crate::predictor::LatencyPredictor;
use crate::sequence::{SequenceOptions, SequenceOutcome};
use crate::system::SystemSpec;
use crate::world::ChainWorld;
use crate::writers::{PackedTileWriter, SubtilePackedWriter, TokenPoolWriter};

/// The communication pattern following the GEMM.
#[derive(Debug, Clone)]
pub enum CommPattern {
    /// Tensor-parallel AllReduce of partial GEMM results.
    AllReduce,
    /// ReduceScatter of partial GEMM results (TP training / FSDP).
    ReduceScatter,
    /// Expert-parallel All-to-All with per-rank token routing
    /// (`routing[rank][row] = destination rank`).
    AllToAll {
        /// Token routing tables.
        routing: Vec<Vec<usize>>,
    },
    /// Column-parallel AllGather: each rank's local `M x N` output is
    /// one column shard; every rank ends up with the `M x (N * n)`
    /// concatenation.
    AllGather,
}

impl CommPattern {
    /// The collective primitive this pattern uses.
    pub fn primitive(&self) -> Primitive {
        match self {
            CommPattern::AllReduce => Primitive::AllReduce,
            CommPattern::ReduceScatter => Primitive::ReduceScatter,
            CommPattern::AllToAll { .. } => Primitive::AllToAll,
            CommPattern::AllGather => Primitive::AllGather,
        }
    }
}

enum PlanMapping {
    Tile(Rc<TileMapping>),
    Subtile(Rc<SubtileMapping>),
    Token(Rc<TokenMapping>),
    /// AllGather shares the tile-level packing; only the communication
    /// call and the post-remap differ.
    Gather(Rc<TileMapping>),
}

impl PlanMapping {
    fn layout(&self) -> &GroupLayout {
        match self {
            PlanMapping::Tile(m) | PlanMapping::Gather(m) => &m.layout,
            PlanMapping::Subtile(m) => &m.layout,
            PlanMapping::Token(m) => &m.layout,
        }
    }

    /// The epilogue writers: one shared by every rank unless the mapping
    /// packs per rank (token pools follow each rank's routing).
    fn writers(&self, n_ranks: usize) -> Writers {
        Writers::Shared(match self {
            PlanMapping::Tile(m) | PlanMapping::Gather(m) => {
                Rc::new(PackedTileWriter { mapping: m.clone() })
            }
            PlanMapping::Subtile(m) => Rc::new(SubtilePackedWriter { mapping: m.clone() }),
            PlanMapping::Token(m) => {
                return Writers::PerRank(
                    (0..n_ranks)
                        .map(|rank| {
                            Rc::new(TokenPoolWriter {
                                mapping: m.clone(),
                                rank,
                            }) as Rc<dyn EpilogueWriter>
                        })
                        .collect(),
                )
            }
        })
    }
}

/// A plan's epilogue writers.
enum Writers {
    /// One writer every rank packs with.
    Shared(Rc<dyn EpilogueWriter>),
    /// One writer per rank.
    PerRank(Vec<Rc<dyn EpilogueWriter>>),
}

/// A fully resolved overlap execution plan: shape, system, GEMM
/// configuration, wave partition, and reordering mapping.
///
/// Everything a launch reads that depends only on the plan — the GEMM
/// issue order, its same-group runs, the per-rank epilogue writers and
/// the latency predictor behind [`OverlapPlan::expected_latency`] and
/// [`OverlapPlan::predicted_group_completions`] — is derived once, in
/// [`OverlapPlan::new`] (the predictor and its predictions on first use,
/// unless the search that tuned the plan hands its predictor over),
/// and shared by `Rc` with every launch. A plan is therefore never
/// mutated after `new`: changing a public field would leave those
/// derived fields stale. Build a new plan instead.
///
/// # Examples
///
/// ```
/// use flashoverlap::{OverlapPlan, SequenceOptions, SystemSpec};
/// use flashoverlap::runtime::CommPattern;
/// use gpu_sim::gemm::GemmDims;
///
/// // Tune and run a tensor-parallel GEMM+AllReduce on 4 simulated 4090s.
/// let system = SystemSpec::rtx4090(4);
/// let dims = GemmDims::new(4096, 8192, 8192);
/// let plan = OverlapPlan::tuned(dims, CommPattern::AllReduce, system)?;
/// let outcome = plan.execute_with(&SequenceOptions::new())?;
/// let report = &outcome.reports[0];
/// assert!(report.gemm_done <= report.latency);
/// # Ok::<(), flashoverlap::FlashOverlapError>(())
/// ```
pub struct OverlapPlan {
    /// Target system.
    pub system: SystemSpec,
    /// Per-rank local GEMM dimensions.
    pub dims: GemmDims,
    /// GEMM kernel configuration (CUTLASS-profiler stand-in output).
    pub config: GemmConfig,
    /// Planned wave schedule (with communication SMs subtracted, Alg. 1
    /// line 3).
    pub schedule: WaveSchedule,
    /// The wave partition into groups.
    pub partition: WavePartition,
    pattern: CommPattern,
    mapping: PlanMapping,
    /// The maximal same-group runs of the issue order, shared by every
    /// counter hook.
    group_runs: Rc<[GroupRun]>,
    /// The epilogue writers (one shared writer unless the mapping packs
    /// per rank).
    writers: Writers,
    /// The communicator every launch opens on its world.
    comm: Communicator,
    /// The watchdog and drift predictor, built on first use.
    predictor: OnceCell<LatencyPredictor>,
    /// The predictor's per-group completions (serve drift), computed on
    /// first use.
    predicted_completions: OnceCell<Vec<SimDuration>>,
    /// The fused remap's gather per rank, built on the first functional
    /// launch or output extraction (see [`OverlapPlan::epilogue_gather`]).
    gathers: OnceCell<Vec<Gather>>,
}

impl std::fmt::Debug for OverlapPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OverlapPlan")
            .field("dims", &self.dims)
            .field("config", &self.config)
            .field("partition", &self.partition)
            .field("pattern", &self.pattern)
            .finish_non_exhaustive()
    }
}

/// Timing results of one simulated run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunReport {
    /// GEMM launch to final completion (GEMM and all communication): the
    /// operator latency compared against baselines.
    pub latency: SimDuration,
    /// When the GEMM kernel itself finished.
    pub gemm_done: SimDuration,
    /// Completion time of each group's collective (zero for skipped
    /// zero-payload groups).
    pub group_comm_done: Vec<SimDuration>,
    /// Completion of the fused post-communication epilogue kernel, when
    /// one was requested (`None` otherwise). This is the end-to-end time
    /// including the remap of Fig. 6.
    pub epilogue_done: Option<SimDuration>,
}

/// Observation hooks and fault injection for an instrumented run (see
/// [`SequenceOptions::instrument`]). The `simsan` crate provides
/// monitor/probe implementations; this crate stays policy-free.
#[derive(Default)]
pub struct Instrumentation {
    /// Access/synchronization observer to attach to the cluster.
    pub monitor: Option<Rc<dyn ClusterMonitor>>,
    /// Engine probe to attach to the simulation (drain callbacks).
    pub probe: Option<Rc<dyn EngineProbe<Cluster>>>,
    /// Optional seeded signal-protocol corruption and the chain segment
    /// it hits: a wait or rearm kind (increment kinds are faults).
    pub mutation: Option<(usize, Mutation)>,
}

impl std::fmt::Debug for Instrumentation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Instrumentation")
            .field("monitor", &self.monitor.is_some())
            .field("probe", &self.probe.is_some())
            .field("mutation", &self.mutation)
            .finish()
    }
}

/// Per-rank input operands for a functional run.
#[derive(Debug, Clone)]
pub struct FunctionalInputs {
    /// Per-rank `M x K` activations.
    pub a: Vec<Matrix>,
    /// Per-rank `K x N` weights.
    pub b: Vec<Matrix>,
}

impl FunctionalInputs {
    /// Generates deterministic random inputs for a problem.
    pub fn random(dims: GemmDims, n_ranks: usize, seed: u64) -> Self {
        let mut rng = sim::DetRng::new(seed);
        let a = (0..n_ranks)
            .map(|_| Matrix::random(dims.m as usize, dims.k as usize, &mut rng))
            .collect();
        let b = (0..n_ranks)
            .map(|_| Matrix::random(dims.k as usize, dims.n as usize, &mut rng))
            .collect();
        FunctionalInputs { a, b }
    }
}

impl OverlapPlan {
    /// Builds a plan for `dims` with an explicit wave partition.
    ///
    /// # Errors
    ///
    /// Returns an error if the system has fewer than two GPUs, the
    /// partition does not cover the planned wave count or the shape
    /// violates the pattern's reordering constraints.
    pub fn new(
        dims: GemmDims,
        pattern: CommPattern,
        system: SystemSpec,
        partition: WavePartition,
    ) -> Result<Self, FlashOverlapError> {
        Self::build(dims, pattern, system, partition, None)
    }

    /// [`OverlapPlan::new`], keeping `predictor` when a search already
    /// built it for this shape, primitive and system, instead of
    /// building it again on first use.
    pub(crate) fn build(
        dims: GemmDims,
        pattern: CommPattern,
        system: SystemSpec,
        partition: WavePartition,
        predictor: Option<LatencyPredictor>,
    ) -> Result<Self, FlashOverlapError> {
        debug_assert!(
            predictor.as_ref().is_none_or(
                |p| p.profile().dims == dims && p.profile().primitive == pattern.primitive()
            ),
            "the predictor was built for another shape or primitive"
        );
        let comm = system.communicator()?;
        let mut config = GemmConfig::choose(dims, &system.arch);
        if matches!(pattern, CommPattern::AllToAll { .. }) {
            // Token pools fill when a row *band* completes (every tile
            // covering the row). Column-strip swizzling finishes each band
            // only in its last strip — near the end of the GEMM — which
            // would serialize all All-to-All traffic behind the
            // computation. Rasterizing along rows completes bands
            // progressively; the real system co-selects the rasterization
            // with the comm pattern in its profiler step.
            config.swizzle = gpu_sim::swizzle::Swizzle::StripRows { height: 1 };
        }
        let grid = config.grid(dims);
        // The schedule's waves are slices of the order every launch
        // carries.
        let schedule = WaveSchedule::over(config.issue_order(dims), system.compute_sms());
        partition.check_covers(schedule.num_waves())?;
        let mapping = match &pattern {
            CommPattern::AllReduce => {
                PlanMapping::Tile(Rc::new(TileMapping::build(grid, &schedule, &partition)))
            }
            CommPattern::ReduceScatter => {
                if !(dims.m as usize).is_multiple_of(system.n_gpus) {
                    return Err(FlashOverlapError::IncompatibleShape {
                        reason: format!(
                            "ReduceScatter output rows {} must divide across {} ranks",
                            dims.m, system.n_gpus
                        ),
                    });
                }
                PlanMapping::Subtile(Rc::new(SubtileMapping::build(
                    grid,
                    &schedule,
                    &partition,
                    system.n_gpus,
                )?))
            }
            CommPattern::AllToAll { routing } => {
                if routing.len() != system.n_gpus {
                    return Err(FlashOverlapError::BadInputs {
                        reason: format!(
                            "{} routing tables for {} ranks",
                            routing.len(),
                            system.n_gpus
                        ),
                    });
                }
                PlanMapping::Token(Rc::new(TokenMapping::build(
                    grid, &schedule, &partition, routing,
                )?))
            }
            CommPattern::AllGather => {
                PlanMapping::Gather(Rc::new(TileMapping::build(grid, &schedule, &partition)))
            }
        };
        let group_runs = mapping.layout().issue_runs();
        let writers = mapping.writers(system.n_gpus);
        Ok(OverlapPlan {
            system,
            dims,
            config,
            schedule,
            partition,
            pattern,
            mapping,
            group_runs,
            writers,
            comm,
            predictor: predictor.map_or_else(OnceCell::new, OnceCell::from),
            predicted_completions: OnceCell::new(),
            gathers: OnceCell::new(),
        })
    }

    /// The GEMM tile issue order every launch of this plan uses
    /// (`config.issue_order(dims)`, derived once in [`OverlapPlan::new`]).
    pub fn issue_order(&self) -> &Rc<[u32]> {
        self.schedule.issue_order()
    }

    /// The maximal same-group runs of the issue order under the
    /// layout's tile→group map, which every launch's counter hook shares
    /// (derived once in [`OverlapPlan::new`]).
    pub fn group_runs(&self) -> &Rc<[GroupRun]> {
        &self.group_runs
    }

    /// The number of planned waves `T`.
    pub fn total_waves(&self) -> u32 {
        self.schedule.num_waves()
    }

    /// The communication primitive.
    pub fn primitive(&self) -> Primitive {
        self.pattern.primitive()
    }

    /// The communication pattern.
    pub fn pattern(&self) -> &CommPattern {
        &self.pattern
    }

    /// Per-group tile counts (the signaling thresholds).
    pub fn group_tile_counts(&self) -> &[u32] {
        &self.layout().group_tile_counts
    }

    /// Executes the plan as a one-segment chain with the modes selected
    /// in `options` — timing, instrumented, traced, functional or
    /// resilient (see [`SequenceOptions`]). A fused epilogue is a
    /// one-layer [`crate::Pipeline`].
    ///
    /// # Errors
    ///
    /// Returns [`FlashOverlapError::BadInputs`] on malformed inputs,
    /// invalid option combinations or out-of-range fault targets;
    /// [`FlashOverlapError::Deadlock`] when an uninstrumented schedule
    /// wedges; and [`FlashOverlapError::Simulation`] on engine failure.
    pub fn execute_with(
        &self,
        options: &SequenceOptions,
    ) -> Result<SequenceOutcome, FlashOverlapError> {
        execute_chain(&mut ChainWorld::new(), &[self], &[], options)
    }

    /// Validates an epilogue operator against this plan's logical output
    /// shape.
    ///
    /// # Errors
    ///
    /// Returns [`FlashOverlapError::BadInputs`] on parameter-length
    /// mismatch.
    pub fn validate_epilogue(&self, op: &ElementwiseOp) -> Result<(), FlashOverlapError> {
        let (_, cols) = self.logical_shape(0);
        let len = match op {
            ElementwiseOp::BiasAdd(bias) => bias.len(),
            ElementwiseOp::RmsNorm { weight, .. } => weight.len(),
            _ => cols,
        };
        if len != cols {
            return Err(FlashOverlapError::BadInputs {
                reason: format!("epilogue parameter length {len} != N = {cols}"),
            });
        }
        Ok(())
    }

    /// Logical output shape of rank `d` after the post-communication
    /// remap.
    pub fn logical_shape(&self, d: usize) -> (usize, usize) {
        let (m, n) = (self.dims.m as usize, self.dims.n as usize);
        let ranks = self.system.n_gpus;
        match &self.mapping {
            PlanMapping::Tile(_) => (m, n),
            PlanMapping::Subtile(_) => (m / ranks, n),
            PlanMapping::Token(map) => (map.recv_row_gather.get(d).map_or(0, |rows| rows.len()), n),
            PlanMapping::Gather(_) => (m, n * ranks),
        }
    }

    /// The remap granularity of this plan's post-communication gather.
    pub fn remap_granularity(&self) -> RemapGranularity {
        match &self.mapping {
            PlanMapping::Tile(_) | PlanMapping::Gather(_) => RemapGranularity::Tile,
            PlanMapping::Subtile(_) => RemapGranularity::Subtile,
            PlanMapping::Token(_) => RemapGranularity::Token,
        }
    }

    /// Validates functional inputs against this plan's shapes. The `A`
    /// operands are checked only when the segment `reads_a` (a segment
    /// fed by its predecessor's epilogue ignores them).
    pub(crate) fn check_inputs(
        &self,
        inputs: &FunctionalInputs,
        reads_a: bool,
    ) -> Result<(), FlashOverlapError> {
        let n = self.system.n_gpus;
        if (reads_a && inputs.a.len() != n) || inputs.b.len() != n {
            return Err(FlashOverlapError::BadInputs {
                reason: format!(
                    "expected {n} A and B operands, got {} and {}",
                    inputs.a.len(),
                    inputs.b.len()
                ),
            });
        }
        let a_shape = (self.dims.m as usize, self.dims.k as usize);
        let b_shape = (self.dims.k as usize, self.dims.n as usize);
        for (r, b) in inputs.b.iter().enumerate() {
            let a = inputs.a.get(r).filter(|_| reads_a);
            if a.is_some_and(|a| (a.rows(), a.cols()) != a_shape) {
                return Err(FlashOverlapError::BadInputs {
                    reason: format!("rank {r} A operand is not {}x{}", self.dims.m, self.dims.k),
                });
            }
            if (b.rows(), b.cols()) != b_shape {
                return Err(FlashOverlapError::BadInputs {
                    reason: format!("rank {r} B operand is not {}x{}", self.dims.k, self.dims.n),
                });
            }
        }
        Ok(())
    }

    /// Enqueues the overlap program on caller-provided streams and
    /// counting tables, optionally reading activations from existing
    /// per-rank buffers instead of allocating them (how pipelines chain
    /// layers). The caller owns the tables: it reset them and guarantees
    /// they have at least one slot per group.
    #[expect(
        clippy::too_many_arguments,
        reason = "per-segment plumbing of the chain executor"
    )]
    pub(crate) fn enqueue_program_on(
        &self,
        world: &mut Cluster,
        sim: &mut ClusterSim,
        inputs: Option<&FunctionalInputs>,
        epilogue: Option<&ElementwiseOp>,
        streams: &StreamCtx,
        a_override: Option<&[BufferId]>,
        mutation: Option<Mutation>,
        tables: &[usize],
    ) -> ProgramHandles {
        let comm = self.comm.open(world);
        let grid = self.config.grid(self.dims);

        let mut lanes = Vec::with_capacity(world.devices.len());
        let ranks = world.devices.iter_mut().zip(tables);
        for (d, ((dev, &table), (&compute, &comm_stream))) in ranks
            .zip(streams.compute.iter().zip(&streams.comm))
            .enumerate()
        {
            let (a_in, b_in) = match inputs {
                Some(inp) => (inp.a.get(d), inp.b.get(d)),
                None => (None, None),
            };
            let a = match (a_override.and_then(|bufs| bufs.get(d)), a_in) {
                (Some(&buf), _) => buf,
                (None, Some(a)) => dev.mem.alloc_init(a.as_slice()),
                (None, None) => dev.mem.alloc((self.dims.m * self.dims.k) as usize),
            };
            let b = match b_in {
                Some(b) => dev.mem.alloc_init(b.as_slice()),
                None => dev.mem.alloc((self.dims.k * self.dims.n) as usize),
            };
            let packed = dev.mem.alloc(self.writer_for(d).out_len(&grid));
            let recv = match &self.mapping {
                // AllReduce is in place: the packed buffer doubles as recv.
                PlanMapping::Tile(_) => packed,
                PlanMapping::Subtile(map) => dev.mem.alloc(map.recv_elems),
                PlanMapping::Token(map) => dev
                    .mem
                    .alloc(map.recv_elems.get(d).map_or(1, |&e| e.max(1))),
                PlanMapping::Gather(map) => {
                    dev.mem.alloc(map.all_gather_recv_elems(self.system.n_gpus))
                }
            };
            lanes.push(Lane {
                a,
                b,
                packed,
                recv,
                table,
                compute,
                comm: comm_stream,
            });
        }

        let probes = Probes::new(world, self.group_tile_counts().len());

        // Host-process launch skew: each rank's whole program starts a
        // random delay late (both its streams — the host thread submits
        // everything).
        for (d, lane) in lanes.iter().enumerate() {
            let Some(dev) = world.devices.get_mut(d) else {
                continue;
            };
            if let Some(delay) = self.system.launch_skew(dev) {
                enqueue(world, sim, d, lane.compute, Op::Delay(delay));
                enqueue(world, sim, d, lane.comm, Op::Delay(delay));
            }
        }

        // Compute stream: the single GEMM kernel plus a completion probe.
        for (d, lane) in lanes.iter().enumerate() {
            let kernel = GemmKernel {
                a: lane.a,
                b: lane.b,
                out: lane.packed,
                dims: self.dims,
                config: self.config,
                issue: Rc::clone(self.issue_order()),
                writer: self.writer_for(d),
                counter: Some(CounterHook::new(lane.table, Rc::clone(&self.group_runs))),
            };
            enqueue(world, sim, d, lane.compute, Op::Gemm(kernel));
            if d == 0 {
                enqueue(world, sim, 0, lane.compute, Op::Stamp(probes.gemm_slot()));
            }
        }

        // Communication stream: per group, a signaling kernel then the
        // collective call.
        let packed_bufs: Vec<BufferId> = lanes.iter().map(|lane| lane.packed).collect();
        let recv_bufs: Vec<BufferId> = lanes.iter().map(|lane| lane.recv).collect();
        for (g, &count) in self.group_tile_counts().iter().enumerate() {
            let Some(spec) = self.group_spec(g, &packed_bufs, &recv_bufs) else {
                // Zero-payload group (possible for All-to-All): nothing to
                // wait for or send.
                continue;
            };
            let ops = comm.ops_with_role(spec, Some(g), CollectiveRole::Overlap);
            for ((d, op), lane) in ops.enumerate().zip(&lanes) {
                // A seeded mutation may drop or corrupt this rank's wait
                // (sanitizer self-tests); `None` skips the wait entirely.
                let wait = Some(count);
                if let Some(threshold) = mutation.map_or(wait, |m| m.wait(d, g, wait)) {
                    let wait = Op::WaitCounter {
                        table: lane.table,
                        group: g,
                        threshold,
                    };
                    enqueue(world, sim, d, lane.comm, wait);
                }
                enqueue(world, sim, d, lane.comm, op);
                if d == 0 {
                    enqueue(world, sim, 0, lane.comm, Op::Stamp(probes.group_slot(g)));
                }
            }
        }

        // Fused post-communication epilogue (Fig. 6): wait for the comm
        // stream to drain, then run the element-wise kernel with the
        // remap gathered in.
        let mut epilogue_bufs: Vec<Option<BufferId>> = vec![None; lanes.len()];
        let mut epilogue_gates = Vec::new();
        if let Some(op) = epilogue {
            let granularity = self.remap_granularity();
            for ((d, lane), slot) in lanes.iter().enumerate().zip(&mut epilogue_bufs) {
                let (rows, cols) = self.logical_shape(d);
                let Some(dev) = world.devices.get_mut(d) else {
                    continue;
                };
                let (comm_done, output) = (dev.create_event(), dev.mem.alloc(rows * cols));
                epilogue_gates.push(comm_done);
                *slot = Some(output);
                enqueue(world, sim, d, lane.comm, Op::RecordEvent(comm_done));
                enqueue(world, sim, d, lane.compute, Op::WaitEvent(comm_done));
                if rows == 0 {
                    // Nothing received (possible for All-to-All): the
                    // logical buffer stays empty.
                    continue;
                }
                let gather = if world.functional {
                    self.epilogue_gather(d)
                } else {
                    Gather::None
                };
                let kernel = ElementwiseKernel {
                    input: lane.recv,
                    output,
                    rows,
                    cols,
                    op: op.clone(),
                    gather,
                    remap_cost: Some(granularity),
                };
                enqueue(world, sim, d, lane.compute, Op::Elementwise(kernel));
                if d == 0 {
                    let stamp = Op::Stamp(probes.epilogue_slot());
                    enqueue(world, sim, 0, lane.compute, stamp);
                }
            }
        }

        ProgramHandles {
            probes,
            packed_bufs,
            recv_bufs,
            epilogue_bufs,
            epilogue_gates,
            comm,
            tables: lanes.iter().map(|lane| lane.table).collect(),
        }
    }

    /// The gather pattern of the fused remap for rank `d` (functional
    /// mode only — timing mode needs just the granularity). Built for
    /// every rank on first use and kept for the plan's lifetime: tile and
    /// AllGather packing is the same on every rank, so their ranks share
    /// one map, and an All-to-All rank's row map is the mapping's own.
    fn epilogue_gather(&self, d: usize) -> Gather {
        let gathers = self.gathers.get_or_init(|| {
            let n = self.system.n_gpus;
            match &self.mapping {
                PlanMapping::Tile(m) => vec![Gather::Elements(Rc::new(m.element_gather())); n],
                PlanMapping::Gather(m) => {
                    vec![Gather::Elements(Rc::new(m.all_gather_gather(n))); n]
                }
                PlanMapping::Subtile(m) => (0..n)
                    .map(|d| Gather::Elements(Rc::new(m.recv_gather(d))))
                    .collect(),
                PlanMapping::Token(m) => m
                    .recv_row_gather
                    .iter()
                    .cloned()
                    .map(Gather::Rows)
                    .collect(),
            }
        });
        gathers.get(d).cloned().unwrap_or(Gather::None)
    }

    /// Whether the plan holds any table only functional or
    /// access-monitored launches read: the tile slot tables or the
    /// remap's gather maps. A plan that is only timed never builds them.
    pub fn holds_functional_tables(&self) -> bool {
        let slots = match &self.mapping {
            PlanMapping::Tile(m) | PlanMapping::Gather(m) => m.slots_built(),
            PlanMapping::Subtile(_) | PlanMapping::Token(_) => false,
        };
        slots || self.gathers.get().is_some()
    }

    pub(crate) fn writer_for(&self, rank: usize) -> Rc<dyn EpilogueWriter> {
        match &self.writers {
            Writers::Shared(writer) => Rc::clone(writer),
            Writers::PerRank(writers) => Rc::clone(writers.get(rank).expect("one writer per rank")),
        }
    }

    /// Whether ranks' epilogues write different footprints: token pools
    /// follow each rank's routing, every other mapping packs identically
    /// on every rank.
    pub(crate) fn writes_per_rank(&self) -> bool {
        matches!(self.writers, Writers::PerRank(_))
    }

    /// The wave-group layout: groups, per-group tile counts and the
    /// tile→group map.
    pub fn layout(&self) -> &GroupLayout {
        self.mapping.layout()
    }

    /// The collective group `g` schedules over the per-rank `packed` and
    /// `recv` buffers: every rank sends its
    /// [`OverlapPlan::group_send_region`], and a group without one owes no
    /// collective.
    pub(crate) fn group_spec(
        &self,
        g: usize,
        packed: &[BufferId],
        recv: &[BufferId],
    ) -> Option<CollectiveSpec> {
        let (_, count) = self.group_send_region(g, 0)?;
        let send = || {
            let regions = packed.iter().enumerate().map(|(d, &buf)| {
                let (offset, count) = self.group_send_region(g, d)?;
                Some(Region::new(buf, offset, count))
            });
            regions.collect::<Option<Vec<_>>>()
        };
        let recv_at = |offset, count| -> Vec<Region> {
            recv.iter()
                .map(|&buf| Region::new(buf, offset, count))
                .collect()
        };
        let n = self.system.n_gpus;
        Some(match &self.mapping {
            PlanMapping::Tile(_) => CollectiveSpec::AllReduce { regions: send()? },
            PlanMapping::Subtile(m) => CollectiveSpec::ReduceScatter {
                send: send()?,
                recv: recv_at(*m.recv_group_offset.get(g)?, count / n),
            },
            PlanMapping::Token(m) => CollectiveSpec::AllToAllV {
                send: packed.to_vec(),
                recv: recv.to_vec(),
                plan: Rc::clone(m.group_plans.get(g)?),
            },
            PlanMapping::Gather(m) => {
                let (recv_off, recv_count) = m.all_gather_recv_region(g, n);
                debug_assert_eq!(recv_count, count * n);
                CollectiveSpec::AllGather {
                    send: send()?,
                    recv: recv_at(recv_off, recv_count),
                }
            }
        })
    }

    /// The contiguous packed-buffer region `rank`'s collective for group
    /// `g` reads, as `(offset, elems)`, or `None` when the group owes no
    /// collective at all (zero total payload — possible for All-to-All).
    /// The one definition of both: [`OverlapPlan::group_spec`] sends these
    /// regions, and the static verifier models them as the group's read
    /// set.
    pub(crate) fn group_send_region(&self, g: usize, rank: usize) -> Option<(usize, usize)> {
        match &self.mapping {
            PlanMapping::Tile(m) | PlanMapping::Gather(m) => m.group_regions.get(g).copied(),
            PlanMapping::Subtile(m) => m.send_group_regions.get(g).copied(),
            PlanMapping::Token(m) => {
                let plan = m.group_plans.get(g)?;
                if plan.len.iter().flatten().all(|&len| len == 0) {
                    return None;
                }
                // The pool packs (group asc, dest asc): dest 0's offset is
                // the group's block start even when dest 0 sends nothing.
                let start = *plan.send_off.get(rank)?.first()?;
                Some((start, m.group_send_elems(g, rank)))
            }
        }
    }

    /// Per-rank logical outputs of a finished program: the fused
    /// epilogue's buffers when it has one (the remap happened in the
    /// kernel), otherwise the receive data through the same gather.
    pub(crate) fn extract_outputs(&self, world: &Cluster, handles: &ProgramHandles) -> Vec<Matrix> {
        let buffers = handles.epilogue_bufs.iter().zip(&handles.recv_bufs);
        world
            .devices
            .iter()
            .zip(buffers)
            .enumerate()
            .map(|(d, (dev, (&fused, &recv)))| {
                let (rows, cols) = self.logical_shape(d);
                match fused {
                    Some(buf) => Matrix::from_vec(rows, cols, dev.mem.snapshot(buf)),
                    None => {
                        gather_logical(dev.mem.data(recv), rows, cols, &self.epilogue_gather(d))
                    }
                }
            })
            .collect()
    }

    /// The token mapping, when the pattern is All-to-All (verification
    /// helpers need `recv_expected`).
    pub fn token_mapping(&self) -> Option<&TokenMapping> {
        match &self.mapping {
            PlanMapping::Token(m) => Some(m),
            _ => None,
        }
    }

    /// The tile mapping, when the pattern is AllReduce.
    pub fn tile_mapping(&self) -> Option<&TileMapping> {
        match &self.mapping {
            PlanMapping::Tile(m) => Some(m),
            _ => None,
        }
    }
}

/// Watchdog calibration (see [`crate::resilience`] for the fault and
/// outcome vocabulary).
impl OverlapPlan {
    /// The predictor's expected operator latency for this plan — the
    /// base the watchdog deadline is derived from.
    pub fn expected_latency(&self) -> SimDuration {
        self.predictor().predict(&self.partition)
    }

    /// The predictor's expected per-group collective completion times
    /// (absolute, from GEMM launch) — the baseline that measured
    /// [`RunReport::group_comm_done`] values are compared against for
    /// measured-vs-predicted drift reporting. Computed on first use and
    /// kept for the plan's lifetime.
    pub fn predicted_group_completions(&self) -> &[SimDuration] {
        self.predicted_completions
            .get_or_init(|| self.predictor().predict_group_completions(&self.partition))
    }

    /// The latency predictor for this plan's shape, primitive and
    /// system, built on first use (or handed over by the search that
    /// tuned the plan) and kept for the plan's lifetime.
    fn predictor(&self) -> &LatencyPredictor {
        self.predictor
            .get_or_init(|| LatencyPredictor::build(self.dims, self.primitive(), &self.system))
    }

    /// Whether the predictor exists yet, so tests can tell a handed-over
    /// predictor from one built on first use.
    #[cfg(test)]
    pub(crate) fn predictor_is_built(&self) -> bool {
        self.predictor.get().is_some()
    }
}

/// Per-rank compute/communication stream pair a program runs on.
pub(crate) struct StreamCtx {
    pub(crate) compute: Vec<StreamId>,
    pub(crate) comm: Vec<StreamId>,
}

/// One rank's operands, buffers, counting table and streams in a program.
struct Lane {
    a: BufferId,
    b: BufferId,
    packed: BufferId,
    recv: BufferId,
    table: usize,
    compute: StreamId,
    comm: StreamId,
}

impl StreamCtx {
    /// One compute and one communication stream on every device.
    pub(crate) fn create(world: &mut Cluster) -> Self {
        let (compute, comm) = world
            .devices
            .iter_mut()
            .map(|dev| (dev.create_stream(), dev.create_stream()))
            .unzip();
        StreamCtx { compute, comm }
    }
}

pub(crate) struct ProgramHandles {
    pub(crate) probes: Probes,
    pub(crate) packed_bufs: Vec<BufferId>,
    pub(crate) recv_bufs: Vec<BufferId>,
    pub(crate) epilogue_bufs: Vec<Option<BufferId>>,
    /// Per-rank comm→compute gate events of the fused epilogue (empty
    /// when the program has none). Chain recovery re-records them so a
    /// compute stream parked on a wedged layer's epilogue wakes up.
    pub(crate) epilogue_gates: Vec<gpu_sim::GpuEventId>,
    /// The communicator instance the program's collectives rendezvous
    /// through — the recovery runtime aborts its pending state, exactly
    /// like `ncclCommAbort` on the real library's communicator handle.
    pub(crate) comm: CommScope,
    /// Per-rank counting-table indices (fault arming and wait revocation
    /// need them after enqueue).
    pub(crate) tables: Vec<usize>,
}

/// The stamp slots rank 0's probe ops write (see
/// [`Cluster::new_stamps`]): GEMM retirement, epilogue completion, then
/// one per group's collective.
pub(crate) struct Probes {
    first: usize,
    groups: usize,
}

impl Probes {
    fn new(world: &mut Cluster, groups: usize) -> Self {
        Probes {
            first: world.new_stamps(groups + 2),
            groups,
        }
    }

    fn gemm_slot(&self) -> usize {
        self.first
    }

    fn epilogue_slot(&self) -> usize {
        self.first + 1
    }

    pub(crate) fn group_slot(&self, g: usize) -> usize {
        self.first + 2 + g
    }

    /// When the GEMM retired, if it did.
    pub(crate) fn gemm_done(&self, world: &Cluster) -> Option<SimTime> {
        world.stamp(self.gemm_slot())
    }

    /// When the fused epilogue finished, if there is one and it did.
    pub(crate) fn epilogue_done(&self, world: &Cluster) -> Option<SimTime> {
        world.stamp(self.epilogue_slot())
    }

    /// When each group's collective finished, by group.
    pub(crate) fn group_done<'a>(
        &self,
        world: &'a Cluster,
    ) -> impl Iterator<Item = Option<SimTime>> + 'a {
        let first = self.group_slot(0);
        (first..first + self.groups).map(|slot| world.stamp(slot))
    }

    pub(crate) fn report(&self, world: &Cluster) -> RunReport {
        let gemm_done = self
            .gemm_done(world)
            .map_or(SimDuration::ZERO, |t| t - SimTime::ZERO);
        let group_comm_done: Vec<SimDuration> = self
            .group_done(world)
            .map(|t| t.map_or(SimDuration::ZERO, |t| t - SimTime::ZERO))
            .collect();
        let latency = group_comm_done
            .iter()
            .copied()
            .fold(gemm_done, SimDuration::max);
        RunReport {
            latency,
            gemm_done,
            group_comm_done,
            epilogue_done: self.epilogue_done(world).map(|t| t - SimTime::ZERO),
        }
    }
}

#[cfg(test)]
#[allow(clippy::indexing_slicing)]
mod tests {
    use super::*;
    use crate::pipeline::Pipeline;
    use crate::resilience::{Fault, FaultPlan, ResilientOutcome, WatchdogConfig};
    use crate::sequence::execute_sequence;
    use gpu_sim::RuntimeEventKind;
    use tensor::{allclose, gemm};

    fn small_system(n: usize) -> SystemSpec {
        // A tiny architecture so functional tests stay fast: 8 SMs, small
        // tiles come from the standard candidate table (64x64 minimum), so
        // keep shapes modest.
        let mut spec = SystemSpec::rtx4090(n);
        spec.arch.sm_count = 8;
        spec.comm_sms = 2;
        spec
    }

    fn reduced_reference(inputs: &FunctionalInputs) -> Matrix {
        let mut acc = gemm(&inputs.a[0], &inputs.b[0]);
        for r in 1..inputs.a.len() {
            acc = acc.add(&gemm(&inputs.a[r], &inputs.b[r]));
        }
        acc
    }

    fn exec(plan: &OverlapPlan) -> RunReport {
        plan.execute_with(&SequenceOptions::new())
            .unwrap()
            .reports
            .remove(0)
    }

    /// The per-rank outputs of a one-segment functional run.
    fn outputs(outcome: &SequenceOutcome) -> &[Matrix] {
        &outcome.outputs.as_ref().expect("functional outputs")[0]
    }

    fn exec_functional(plan: &OverlapPlan, inputs: &FunctionalInputs) -> (RunReport, Vec<Matrix>) {
        let mut out = plan
            .execute_with(&SequenceOptions::new().functional(std::slice::from_ref(inputs)))
            .unwrap();
        let outputs = outputs(&out).to_vec();
        (out.reports.remove(0), outputs)
    }

    #[test]
    fn all_reduce_overlap_is_numerically_exact() {
        let dims = GemmDims::new(256, 256, 64);
        let system = small_system(2);
        let partition = WavePartition::per_wave(system.planned_waves(dims));
        let plan = OverlapPlan::new(dims, CommPattern::AllReduce, system, partition).unwrap();
        let inputs = FunctionalInputs::random(dims, 2, 77);
        let (report, outputs) = exec_functional(&plan, &inputs);
        let expected = reduced_reference(&inputs);
        for (d, out) in outputs.iter().enumerate() {
            assert!(allclose(out, &expected, 1e-2), "rank {d} output mismatch");
        }
        assert!(report.latency > SimDuration::ZERO);
    }

    fn all_reduce_plan(dims: GemmDims, n: usize) -> OverlapPlan {
        let system = small_system(n);
        let waves = system.planned_waves(dims);
        OverlapPlan::new(
            dims,
            CommPattern::AllReduce,
            system,
            WavePartition::per_wave(waves),
        )
        .unwrap()
    }

    #[test]
    fn predicted_group_completions_align_with_the_plan() {
        let plan = all_reduce_plan(GemmDims::new(256, 256, 64), 2);
        let predicted = plan.predicted_group_completions();
        assert_eq!(predicted.len(), plan.partition.num_groups());
        assert!(
            predicted.windows(2).all(|w| w[0] <= w[1]),
            "group completions must be monotone: {predicted:?}"
        );
        // The measured run produces one completion per group too, so the
        // drift join is well-defined.
        let report = exec(&plan);
        assert_eq!(report.group_comm_done.len(), predicted.len());
    }

    #[test]
    fn resilient_run_without_faults_is_clean_and_matches_execute() {
        let plan = all_reduce_plan(GemmDims::new(256, 256, 64), 2);
        let clean = exec(&plan);
        let resilient = plan
            .execute_with(
                &SequenceOptions::new().resilient(&[FaultPlan::none()], &WatchdogConfig::default()),
            )
            .unwrap();
        assert!(resilient.outcomes[0].is_clean(), "{:?}", resilient.outcomes);
        assert_eq!(resilient.reports[0].latency, clean.latency);
        assert_eq!(resilient.faults_armed, 0);
        assert!(resilient.events.is_empty());
    }

    #[test]
    fn dropped_increment_recovers_via_tail_collective() {
        let dims = GemmDims::new(256, 256, 64);
        let plan = all_reduce_plan(dims, 2);
        assert!(
            plan.group_tile_counts().len() >= 2,
            "need a completed group"
        );
        // Rank 0 loses one signal of group 1: its wait never satisfies, the
        // overlap wedges after group 0, and the watchdog must late-release
        // the remaining groups as tail collectives.
        let faults = [FaultPlan::single(Fault::DroppedIncrement {
            rank: 0,
            group: 1,
            count: 1,
        })];
        let inputs = [FunctionalInputs::random(dims, 2, 21)];
        let result = plan
            .execute_with(
                &SequenceOptions::new()
                    .functional(&inputs)
                    .resilient(&faults, &WatchdogConfig::default()),
            )
            .unwrap();
        match &result.outcomes[0] {
            ResilientOutcome::Recovered { tail_groups, .. } => {
                assert!(
                    tail_groups.contains(&1),
                    "group 1 re-issued: {tail_groups:?}"
                );
            }
            other => panic!("expected tail recovery, got {other:?}"),
        }
        assert!(
            !result.events_of(RuntimeEventKind::TailRecovery).is_empty(),
            "tail recovery must be visible in the event log"
        );
        assert!(
            !result.events_of(RuntimeEventKind::WatchdogFired).is_empty(),
            "the watchdog fired before recovery"
        );
        // The lost signal cost only the signal, never the tile data: the
        // recovered run stays bit-exact.
        let expected = reduced_reference(&inputs[0]);
        for (d, out) in outputs(&result).iter().enumerate() {
            assert!(allclose(out, &expected, 1e-2), "rank {d} output mismatch");
        }
    }

    #[test]
    fn lost_first_signal_degrades_to_bulk_but_stays_exact() {
        let dims = GemmDims::new(256, 256, 64);
        let plan = all_reduce_plan(dims, 2);
        // Group 0 never signals on rank 0, so the overlap completes nothing
        // before wedging: the ladder skips straight to the bulk fallback and
        // reports a structured degradation instead of hanging.
        let faults = [FaultPlan::single(Fault::DroppedIncrement {
            rank: 0,
            group: 0,
            count: 1,
        })];
        let inputs = [FunctionalInputs::random(dims, 2, 22)];
        let result = plan
            .execute_with(
                &SequenceOptions::new()
                    .functional(&inputs)
                    .resilient(&faults, &WatchdogConfig::default()),
            )
            .unwrap();
        match &result.outcomes[0] {
            ResilientOutcome::Degraded {
                cause,
                recovered_groups,
            } => {
                let cause = cause.to_string();
                assert!(!cause.is_empty());
                assert!(cause.contains("group 0"), "cause names the wedge: {cause}");
                assert!(recovered_groups.is_empty(), "{recovered_groups:?}");
            }
            other => panic!("expected degraded fallback, got {other:?}"),
        }
        assert!(!result
            .events_of(RuntimeEventKind::DegradedFallback)
            .is_empty());
        let expected = reduced_reference(&inputs[0]);
        for (d, out) in outputs(&result).iter().enumerate() {
            assert!(allclose(out, &expected, 1e-2), "rank {d} output mismatch");
        }
    }

    #[test]
    fn slow_link_completes_without_recovery() {
        let plan = all_reduce_plan(GemmDims::new(256, 256, 64), 2);
        // A 3x-degraded link makes the run slow, not stuck: the watchdog may
        // extend the deadline but must never abort in-flight collectives.
        let faults = [FaultPlan::single(Fault::LinkDegradation { slowdown: 3.0 })];
        let report = plan
            .execute_with(&SequenceOptions::new().resilient(&faults, &WatchdogConfig::default()))
            .unwrap();
        assert!(
            !report.outcomes[0].is_degraded() || !report.events.is_empty(),
            "a degraded verdict needs an event trail"
        );
        assert!(report.reports[0].latency > SimDuration::ZERO);
        assert!(
            report.events_of(RuntimeEventKind::TailRecovery).is_empty(),
            "no recovery collectives for a merely slow link"
        );
    }

    fn two_node_plan(dims: GemmDims, n: usize) -> OverlapPlan {
        let system = small_system(n).with_nodes(2);
        let waves = system.planned_waves(dims);
        OverlapPlan::new(
            dims,
            CommPattern::AllReduce,
            system,
            WavePartition::per_wave(waves),
        )
        .unwrap()
    }

    #[test]
    fn multi_node_plan_sums_correctly_end_to_end() {
        // Two-tier topology switches the runtime onto the hierarchical
        // collective schedule; the reduced output must still match the
        // flat reference.
        let dims = GemmDims::new(256, 256, 64);
        let plan = two_node_plan(dims, 4);
        let inputs = FunctionalInputs::random(dims, 4, 77);
        let (_, outputs) = exec_functional(&plan, &inputs);
        let expected = reduced_reference(&inputs);
        for (d, out) in outputs.iter().enumerate() {
            assert!(allclose(out, &expected, 1e-2), "rank {d} output mismatch");
        }
    }

    #[test]
    fn inter_link_fault_spares_single_node_plans() {
        let dims = GemmDims::new(256, 256, 64);
        let fault = [FaultPlan::single(Fault::InterLinkDegradation {
            slowdown: 4.0,
        })];
        let none = [FaultPlan::none()];
        let watchdog = WatchdogConfig::default();
        let latency = |plan: &OverlapPlan, faults: &[FaultPlan]| {
            plan.execute_with(&SequenceOptions::new().resilient(faults, &watchdog))
                .unwrap()
                .reports[0]
                .latency
        };
        // Single-node plan: the fault arms but no collective spans nodes,
        // so timing is identical to the fault-free resilient run.
        let plan = all_reduce_plan(dims, 2);
        let (clean, faulted) = (latency(&plan, &none), latency(&plan, &fault));
        assert_eq!(clean, faulted, "inter fault must not touch a single node");
        // Two-node plan: every hierarchical leader phase crosses the
        // degraded tier, so the run slows down.
        let plan = two_node_plan(dims, 4);
        let (clean, faulted) = (latency(&plan, &none), latency(&plan, &fault));
        assert!(
            faulted > clean,
            "node-spanning plan must feel the inter-link fault \
             (clean {clean}, faulted {faulted})"
        );
    }

    #[test]
    fn straggler_rank_terminates_with_verdict() {
        let dims = GemmDims::new(256, 256, 64);
        let plan = all_reduce_plan(dims, 2);
        let faults = [FaultPlan::single(Fault::SlowRank {
            rank: 1,
            delay: SimDuration::from_micros(400),
        })];
        let inputs = [FunctionalInputs::random(dims, 2, 23)];
        let result = plan
            .execute_with(
                &SequenceOptions::new()
                    .functional(&inputs)
                    .resilient(&faults, &WatchdogConfig::default()),
            )
            .unwrap();
        // Whatever the verdict, the run terminated and the data is right.
        let expected = reduced_reference(&inputs[0]);
        for (d, out) in outputs(&result).iter().enumerate() {
            assert!(allclose(out, &expected, 1e-2), "rank {d} output mismatch");
        }
    }

    #[test]
    fn resilient_iterations_run_the_chain_watchdog() {
        // Back-to-back iterations are `n` copies of the plan in one
        // sequence.
        let plan = all_reduce_plan(GemmDims::new(256, 256, 64), 2);
        let iterations = [&plan; 4];
        let watchdog = WatchdogConfig::default();
        // Fault-free: the chain watchdog is timing-neutral.
        let plain = execute_sequence(&iterations, &SequenceOptions::new()).unwrap();
        let none = vec![FaultPlan::none(); 4];
        let clean = execute_sequence(
            &iterations,
            &SequenceOptions::new().resilient(&none, &watchdog),
        )
        .unwrap();
        assert!(
            clean.outcomes.iter().all(ResilientOutcome::is_clean),
            "{:?}",
            clean.outcomes
        );
        assert_eq!(clean.total, plain.total);
        assert_eq!(clean.faults_armed, 0);
        // A fault armed at the final iteration: its counting table is
        // inherited from two iterations earlier, so the wedge exercises
        // the chain (inherited-table) recovery path.
        let mut faults = none.clone();
        faults[3] = FaultPlan::single(Fault::DroppedIncrement {
            rank: 0,
            group: 1,
            count: 64,
        });
        let wedged = execute_sequence(
            &iterations,
            &SequenceOptions::new().resilient(&faults, &watchdog),
        )
        .unwrap();
        assert_eq!(wedged.faults_armed, 1);
        assert!(
            matches!(wedged.outcomes[3], ResilientOutcome::Recovered { .. }),
            "{:?}",
            wedged.outcomes
        );
        assert!(
            wedged
                .events
                .iter()
                .any(|e| e.detail.to_string().contains("segment 3 wedge detected")),
            "the wedge names the final iteration: {:?}",
            wedged.events
        );
        assert!(wedged.total > plain.total);
    }

    #[test]
    fn reduce_scatter_overlap_scatters_correct_rows() {
        let dims = GemmDims::new(256, 128, 64);
        let system = small_system(2);
        let plan = {
            let waves = system.planned_waves(dims);
            OverlapPlan::new(
                dims,
                CommPattern::ReduceScatter,
                system,
                WavePartition::per_wave(waves),
            )
            .unwrap()
        };
        let inputs = FunctionalInputs::random(dims, 2, 5);
        let (_, outputs) = exec_functional(&plan, &inputs);
        let expected = reduced_reference(&inputs);
        for (k, out) in outputs.iter().enumerate() {
            assert_eq!(out.rows(), 128);
            for i in 0..out.rows() {
                let global = k + i * 2;
                for c in 0..out.cols() {
                    let diff = (out[(i, c)] - expected[(global, c)]).abs();
                    assert!(diff < 1e-2, "rank {k} row {i} col {c}: diff {diff}");
                }
            }
        }
    }

    #[test]
    fn all_to_all_overlap_routes_tokens_correctly() {
        let dims = GemmDims::new(128, 128, 32);
        let system = small_system(2);
        let mut rng = sim::DetRng::new(13);
        let routing: Vec<Vec<usize>> = (0..2)
            .map(|_| (0..128).map(|_| rng.next_below(2) as usize).collect())
            .collect();
        let plan = {
            let waves = system.planned_waves(dims);
            OverlapPlan::new(
                dims,
                CommPattern::AllToAll { routing },
                system,
                WavePartition::per_wave(waves),
            )
            .unwrap()
        };
        let inputs = FunctionalInputs::random(dims, 2, 5);
        let per_rank_out: Vec<Matrix> = (0..2).map(|r| gemm(&inputs.a[r], &inputs.b[r])).collect();
        let (_, outputs) = exec_functional(&plan, &inputs);
        let mapping = plan.token_mapping().unwrap();
        for (d, out) in outputs.iter().enumerate() {
            let expected_rows = &mapping.recv_expected[d];
            assert_eq!(out.rows(), expected_rows.len());
            for (i, &(src, row)) in expected_rows.iter().enumerate() {
                for c in 0..out.cols() {
                    let diff = (out[(i, c)] - per_rank_out[src][(row as usize, c)]).abs();
                    assert!(diff < 1e-2, "dest {d} token {i} col {c}");
                }
            }
        }
    }

    fn all_to_all_routing(m: usize, ranks: usize, seed: u64) -> Vec<Vec<usize>> {
        let mut rng = sim::DetRng::new(seed);
        (0..ranks)
            .map(|_| {
                (0..m)
                    .map(|_| rng.next_below(ranks as u64) as usize)
                    .collect()
            })
            .collect()
    }

    #[test]
    fn zero_payload_group_tiles_are_guaranteed_by_the_next_wait() {
        // A row band is wider than one wave, so wave 0 completes no band:
        // group 0 sends nothing and schedules no wait. Its tiles must be
        // counted into group 1's wait, or group 1 reads rows whose first
        // tiles nothing guarantees (a tile race planverify rejects).
        let dims = GemmDims::new(128, 512, 32);
        let system = small_system(2);
        let waves = system.planned_waves(dims);
        let pattern = CommPattern::AllToAll {
            routing: all_to_all_routing(128, 2, 31),
        };
        let plan = OverlapPlan::new(
            dims,
            pattern.clone(),
            system.clone(),
            WavePartition::per_wave(waves),
        )
        .unwrap();
        assert_eq!(plan.group_send_region(0, 0), None, "group 0 is silent");
        assert_eq!(plan.group_tile_counts()[0], 0, "its tiles count later");
        plan.check_static().unwrap();
        let inputs = FunctionalInputs::random(dims, 2, 8);
        let single = OverlapPlan::new(dims, pattern, system, WavePartition::single(waves)).unwrap();
        let (_, expected) = exec_functional(&single, &inputs);
        let (_, outputs) = exec_functional(&plan, &inputs);
        assert_eq!(outputs.len(), expected.len());
        for (d, (out, exp)) in outputs.iter().zip(&expected).enumerate() {
            assert_eq!(out.as_slice(), exp.as_slice(), "rank {d}");
        }
    }

    #[test]
    fn tuned_all_to_all_plans_pass_static_verification() {
        // Tuned partitions of these shapes start with a silent group.
        for (n, k) in [(16384, 4096), (16384, 6144)] {
            for gpus in [2, 4] {
                let dims = GemmDims::new(2048, n, k);
                let pattern = CommPattern::AllToAll {
                    routing: all_to_all_routing(2048, gpus, 5),
                };
                let plan = OverlapPlan::tuned(dims, pattern, SystemSpec::rtx4090(gpus))
                    .unwrap_or_else(|e| panic!("2048x{n}x{k} on {gpus}: {e}"));
                assert!(exec(&plan).latency > SimDuration::ZERO);
            }
        }
    }

    #[test]
    fn grouped_partition_matches_per_wave_numerics() {
        // Different partitions change timing, never data. The shape is
        // sized to give several waves on the tiny test architecture.
        let dims = GemmDims::new(512, 512, 32);
        let system = small_system(2);
        let waves = system.planned_waves(dims);
        assert!(waves >= 2, "need multiple waves, got {waves}");
        let inputs = FunctionalInputs::random(dims, 2, 123);
        let expected = reduced_reference(&inputs);
        for partition in [
            WavePartition::per_wave(waves),
            WavePartition::single(waves),
            WavePartition::new(vec![1, waves - 1]),
        ] {
            let plan = OverlapPlan::new(
                dims,
                CommPattern::AllReduce,
                system.clone(),
                partition.clone(),
            )
            .unwrap();
            let (_, outputs) = exec_functional(&plan, &inputs);
            assert!(
                allclose(&outputs[0], &expected, 1e-2),
                "partition {partition}"
            );
        }
    }

    #[test]
    fn overlap_beats_fully_serialized_partition_when_balanced() {
        // Timing mode on the real 4090 system: a compute/communication
        // balanced shape must benefit from splitting into groups.
        let dims = GemmDims::new(4096, 8192, 16384);
        let system = SystemSpec::rtx4090(4);
        let waves = system.planned_waves(dims);
        assert!(waves >= 4, "test needs several waves, got {waves}");
        let serial = OverlapPlan::new(
            dims,
            CommPattern::AllReduce,
            system.clone(),
            WavePartition::single(waves),
        )
        .unwrap();
        let serial = exec(&serial);
        let overlapped = OverlapPlan::new(
            dims,
            CommPattern::AllReduce,
            system,
            WavePartition::new(vec![2; waves as usize / 2]),
        )
        .unwrap();
        let overlapped = exec(&overlapped);
        assert!(
            overlapped.latency < serial.latency,
            "overlap {} not faster than serial {}",
            overlapped.latency,
            serial.latency
        );
    }

    #[test]
    fn group_comm_times_are_monotone() {
        let dims = GemmDims::new(2048, 4096, 2048);
        let system = SystemSpec::rtx4090(2);
        let waves = system.planned_waves(dims);
        let plan = OverlapPlan::new(
            dims,
            CommPattern::AllReduce,
            system,
            WavePartition::per_wave(waves),
        )
        .unwrap();
        let report = exec(&plan);
        for pair in report.group_comm_done.windows(2) {
            assert!(pair[0] < pair[1], "groups must complete in order");
        }
        assert_eq!(report.latency, *report.group_comm_done.last().unwrap());
        assert!(report.gemm_done < report.latency);
    }

    #[test]
    fn all_gather_overlap_concatenates_column_shards() {
        let dims = GemmDims::new(256, 128, 64);
        let system = small_system(2);
        let waves = system.planned_waves(dims);
        let plan = OverlapPlan::new(
            dims,
            CommPattern::AllGather,
            system,
            WavePartition::per_wave(waves),
        )
        .unwrap();
        let inputs = FunctionalInputs::random(dims, 2, 17);
        let (_, outputs) = exec_functional(&plan, &inputs);
        let shards: Vec<Matrix> = (0..2).map(|r| gemm(&inputs.a[r], &inputs.b[r])).collect();
        for (d, out) in outputs.iter().enumerate() {
            assert_eq!((out.rows(), out.cols()), (256, 256));
            for r in 0..256usize {
                for c in 0..256usize {
                    let src = c / 128;
                    let diff = (out[(r, c)] - shards[src][(r, c % 128)]).abs();
                    assert!(diff < 1e-2, "rank {d} ({r},{c})");
                }
            }
        }
    }

    #[test]
    fn launch_skew_delays_but_never_breaks_runs() {
        let dims = GemmDims::new(2048, 4096, 4096);
        let clean = exec(
            &OverlapPlan::tuned(dims, CommPattern::AllReduce, SystemSpec::rtx4090(4)).unwrap(),
        )
        .latency;
        let skewed = exec(
            &OverlapPlan::tuned(
                dims,
                CommPattern::AllReduce,
                SystemSpec::rtx4090(4).with_launch_skew_ns(200_000),
            )
            .unwrap(),
        )
        .latency;
        assert!(skewed > clean, "skew must cost time");
        assert!(
            skewed < clean + sim::SimDuration::from_micros(400),
            "skew cost bounded by roughly the skew window"
        );
    }

    #[test]
    fn steady_state_average_is_close_to_single_shot() {
        let dims = GemmDims::new(4096, 8192, 8192);
        let system = SystemSpec::rtx4090(4);
        let plan = OverlapPlan::tuned(dims, CommPattern::AllReduce, system).unwrap();
        let single = exec(&plan).latency;
        // The steady state of `n` back-to-back iterations: one sequence
        // of `n` copies, total over `n`.
        let total = execute_sequence(&[&plan; 8], &SequenceOptions::new())
            .unwrap()
            .total;
        let ratio = total.as_nanos() as f64 / 8.0 / single.as_nanos() as f64;
        // Back-pressure can stretch or slightly compress iterations, but
        // the steady state stays near the single-shot latency.
        assert!((0.8..1.3).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn fused_epilogue_applies_rmsnorm_after_overlap() {
        use gpu_sim::elementwise::ElementwiseOp;
        use tensor::rmsnorm;

        let dims = GemmDims::new(256, 256, 64);
        let system = small_system(2);
        let waves = system.planned_waves(dims);
        let plan = OverlapPlan::new(
            dims,
            CommPattern::AllReduce,
            system,
            WavePartition::per_wave(waves),
        )
        .unwrap();
        let inputs = FunctionalInputs::random(dims, 2, 44);
        let weight: Vec<f32> = (0..256).map(|i| 1.0 + (i % 5) as f32 * 0.2).collect();
        let op = ElementwiseOp::RmsNorm {
            weight: std::rc::Rc::new(weight.clone()),
            eps: 1e-6,
        };
        // A fused epilogue is a one-layer pipeline.
        let layer = Pipeline::with_plans(plan.system.clone(), vec![plan], vec![Some(op)]).unwrap();
        let expected = rmsnorm(&reduced_reference(&inputs), &weight, 1e-6);
        let result = layer
            .execute_with(&SequenceOptions::new().functional(&[inputs]))
            .unwrap();
        for (d, out) in outputs(&result).iter().enumerate() {
            assert!(allclose(out, &expected, 2e-2), "rank {d}");
        }
        let report = &result.reports[0];
        let done = report.epilogue_done.expect("epilogue probe");
        assert!(done > report.latency, "epilogue runs after comm");
    }

    #[test]
    fn fused_epilogue_extends_timing() {
        use gpu_sim::elementwise::ElementwiseOp;

        let dims = GemmDims::new(4096, 8192, 8192);
        let system = SystemSpec::rtx4090(4);
        let plan = OverlapPlan::tuned(dims, CommPattern::AllReduce, system.clone()).unwrap();
        let plain = exec(&plan);
        assert!(plain.epilogue_done.is_none());
        // The epilogue adds roughly one memory-bound kernel, not more.
        let bound = plan
            .system
            .arch
            .elementwise_time(dims.out_elems() * 4, Some(plan.remap_granularity()));
        let layer =
            Pipeline::with_plans(system, vec![plan], vec![Some(ElementwiseOp::Relu)]).unwrap();
        let fused = layer
            .execute_with(&SequenceOptions::new())
            .unwrap()
            .reports
            .remove(0);
        let done = fused.epilogue_done.expect("epilogue requested");
        assert!(done > fused.latency);
        let extra = done - fused.latency;
        assert!(extra <= bound.mul_f64(1.2), "epilogue too slow: {extra}");
    }

    #[test]
    fn epilogue_parameter_length_is_validated() {
        use gpu_sim::elementwise::ElementwiseOp;

        let dims = GemmDims::new(256, 256, 64);
        let system = small_system(2);
        let plan = OverlapPlan::tuned(dims, CommPattern::AllReduce, system.clone()).unwrap();
        let bad = ElementwiseOp::RmsNorm {
            weight: std::rc::Rc::new(vec![1.0; 8]),
            eps: 1e-6,
        };
        assert!(matches!(
            Pipeline::with_plans(system, vec![plan], vec![Some(bad)]),
            Err(FlashOverlapError::BadInputs { .. })
        ));
    }

    #[test]
    fn bad_partition_is_rejected() {
        let dims = GemmDims::new(2048, 4096, 2048);
        let system = SystemSpec::rtx4090(2);
        let result = OverlapPlan::new(
            dims,
            CommPattern::AllReduce,
            system,
            WavePartition::new(vec![1]),
        );
        assert!(matches!(
            result.err(),
            Some(FlashOverlapError::PartitionMismatch { .. })
        ));
    }

    #[test]
    fn bad_functional_inputs_are_rejected() {
        let dims = GemmDims::new(256, 256, 64);
        let system = small_system(2);
        let waves = system.planned_waves(dims);
        let plan = OverlapPlan::new(
            dims,
            CommPattern::AllReduce,
            system,
            WavePartition::single(waves),
        )
        .unwrap();
        let bad = [FunctionalInputs::random(GemmDims::new(128, 256, 64), 2, 1)];
        assert!(matches!(
            plan.execute_with(&SequenceOptions::new().functional(&bad)),
            Err(FlashOverlapError::BadInputs { .. })
        ));
    }

    /// The gather map rank `d` remaps with, by identity.
    fn gather_ptr(plan: &OverlapPlan, d: usize) -> *const Vec<u32> {
        match plan.epilogue_gather(d) {
            Gather::Elements(map) | Gather::Rows(map) => Rc::as_ptr(&map),
            Gather::None => std::ptr::null(),
        }
    }

    #[test]
    fn all_to_all_gathers_share_the_mappings_row_maps() {
        let dims = GemmDims::new(128, 256, 32);
        let system = small_system(2);
        let waves = system.planned_waves(dims);
        let pattern = CommPattern::AllToAll {
            routing: all_to_all_routing(128, 2, 7),
        };
        let plan = OverlapPlan::new(dims, pattern, system, WavePartition::per_wave(waves)).unwrap();
        let map = plan
            .token_mapping()
            .expect("an All-to-All plan maps tokens");
        for (d, rows) in map.recv_row_gather.iter().enumerate() {
            let Gather::Rows(gather) = plan.epilogue_gather(d) else {
                panic!("rank {d} remaps rows");
            };
            assert!(Rc::ptr_eq(&gather, rows), "rank {d} copied its row map");
        }
    }

    #[test]
    fn timed_plans_hold_no_functional_tables_and_functional_runs_build_them_once() {
        let dims = GemmDims::new(256, 256, 64);
        let system = small_system(2);
        let waves = system.planned_waves(dims);
        let inputs = FunctionalInputs::random(dims, 2, 9);
        for pattern in [
            CommPattern::AllReduce,
            CommPattern::ReduceScatter,
            CommPattern::AllGather,
        ] {
            let plan = || {
                let partition = WavePartition::per_wave(waves);
                OverlapPlan::new(dims, pattern.clone(), system.clone(), partition).unwrap()
            };
            let (timed, fresh) = (plan(), plan());
            timed.check_static().unwrap();
            exec(&timed);
            assert!(!timed.holds_functional_tables(), "{pattern:?}");

            let (_, first) = exec_functional(&timed, &inputs);
            assert!(timed.holds_functional_tables(), "{pattern:?}");
            let maps = [gather_ptr(&timed, 0), gather_ptr(&timed, 1)];
            let (_, second) = exec_functional(&timed, &inputs);
            assert_eq!(maps, [gather_ptr(&timed, 0), gather_ptr(&timed, 1)]);
            // Tile and AllGather packing is the same on every rank.
            let shared = !matches!(pattern, CommPattern::ReduceScatter);
            assert_eq!(maps[0] == maps[1], shared, "{pattern:?}");

            let (_, expected) = exec_functional(&fresh, &inputs);
            for outputs in [&first, &second] {
                assert_eq!(outputs.len(), expected.len());
                for (out, want) in outputs.iter().zip(&expected) {
                    let bits =
                        |m: &Matrix| m.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                    assert_eq!(bits(out), bits(want), "{pattern:?}");
                }
            }
        }
    }
}
