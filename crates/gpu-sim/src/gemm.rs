//! The tiled GEMM kernel model.
//!
//! The main loop is never modified (the paper's interference-free
//! property): the kernel executes its tiles wave by wave, where each wave
//! takes one tile-duration and runs as many tiles as there are SMs
//! *currently available* — communication kernels that grab SMs slow down
//! subsequent waves, which is exactly the contention the predictor has to
//! account for (Alg. 1 line 3). The epilogue is a hook: it can write tiles
//! at reordered positions ([`EpilogueWriter`]) and bump a counting table
//! ([`CounterHook`]) without touching the main loop, mirroring the EVT
//! epilogue integration of §5.

use std::ops::Range;
use std::rc::Rc;

use sim::SimDuration;
use tensor::Matrix;

use crate::arch::GpuArch;
use crate::cluster::{Cluster, SpanMeta, TileCompletion};
use crate::device::DeviceId;
use crate::memory::BufferId;
use crate::stream::{Completion, Event, StreamId};
use crate::swizzle::Swizzle;
use crate::tile::{TileGrid, TileShape};
use crate::wave::wave_count;
use crate::ClusterSim;

/// GEMM problem dimensions: `A^{M x K} x B^{K x N} = C^{M x N}`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct GemmDims {
    /// Output rows.
    pub m: u32,
    /// Output columns.
    pub n: u32,
    /// Accumulation depth.
    pub k: u32,
}

impl GemmDims {
    /// Creates the dimension triple.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero (see [`GemmDims::try_new`]).
    pub const fn new(m: u32, n: u32, k: u32) -> Self {
        match Self::try_new(m, n, k) {
            Some(dims) => dims,
            None => panic!("GEMM dimensions must be positive"),
        }
    }

    /// Creates the dimension triple from untrusted values; `None` if any
    /// dimension is zero.
    pub const fn try_new(m: u32, n: u32, k: u32) -> Option<Self> {
        if m > 0 && n > 0 && k > 0 {
            Some(GemmDims { m, n, k })
        } else {
            None
        }
    }

    /// Output elements (`M * N`).
    pub const fn out_elems(&self) -> u64 {
        self.m as u64 * self.n as u64
    }

    /// Total multiply-accumulate flops (`2 M N K`).
    pub const fn flops(&self) -> u64 {
        2 * self.m as u64 * self.n as u64 * self.k as u64
    }
}

/// A GEMM kernel configuration: tile shape and rasterization order.
///
/// In the real system this comes from the CUTLASS profiler (§5); here
/// [`GemmConfig::choose`] plays that role with a small candidate table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GemmConfig {
    /// Output tile (threadblock tile) shape.
    pub tile: TileShape,
    /// Threadblock swizzling pattern.
    pub swizzle: Swizzle,
}

/// Candidate tile shapes, largest first (CUTLASS-profiler stand-in).
const TILE_CANDIDATES: [(u32, u32); 4] = [(256, 128), (128, 128), (128, 64), (64, 64)];

impl GemmConfig {
    /// Picks the fastest configuration for a problem on an architecture:
    /// minimize `waves x tile-time` (wave quantization), tie-breaking
    /// toward larger tiles, like the offline profiler step of §4.2.1.
    pub fn choose(dims: GemmDims, arch: &GpuArch) -> GemmConfig {
        let mut best: Option<(u64, TileShape)> = None;
        for &(tm, tn) in &TILE_CANDIDATES {
            let tile = TileShape::new(tm, tn);
            let grid = TileGrid::new(dims.m, dims.n, tile);
            let waves = wave_count(grid.num_tiles(), arch.sm_count);
            // Cost: waves x per-tile time — captures both wave
            // quantization waste and the small-tile efficiency penalty.
            // Larger tiles win ties because candidates are ordered
            // largest first and the comparison is strict.
            let cost = waves as u64 * tile_duration(dims.k, tile, arch).as_nanos();
            if best.is_none_or(|(c, _)| cost < c) {
                best = Some((cost, tile));
            }
        }
        let (_, tile) = best.expect("candidate table is non-empty");
        let grid = TileGrid::new(dims.m, dims.n, tile);
        GemmConfig {
            tile,
            swizzle: Swizzle::Strip {
                width: grid.tiles_n().clamp(1, 4),
            },
        }
    }

    /// The tile grid this configuration induces for `dims`.
    pub fn grid(&self, dims: GemmDims) -> TileGrid {
        TileGrid::new(dims.m, dims.n, self.tile)
    }

    /// The order the swizzle issues this configuration's tiles for
    /// `dims` — the [`GemmKernel::issue`] a kernel of this configuration
    /// must carry. Derive it once per shape and share the `Rc`.
    pub fn issue_order(&self, dims: GemmDims) -> Rc<[u32]> {
        let grid = self.grid(dims);
        // Sized up front, so the `Rc` is the order's only allocation.
        let mut order: Rc<[u32]> = std::iter::repeat_n(0, grid.num_tiles() as usize).collect();
        let slots = Rc::get_mut(&mut order).expect("a fresh Rc has no other owner");
        self.swizzle.fill_issue_order(&grid, slots);
        order
    }
}

/// Duration of one tile's main loop (== one wave) at depth `k`.
///
/// Small tiles sustain a lower fraction of peak (operand reuse shrinks
/// with the tile), modelled by the `tile_eff_half` saturation term.
pub fn tile_duration(k: u32, tile: TileShape, arch: &GpuArch) -> SimDuration {
    let elems = tile.elems() as f64;
    let tile_eff = elems / (elems + arch.tile_eff_half);
    let flops = 2.0 * elems * k as f64;
    SimDuration::from_secs_f64(flops / (arch.per_sm_flops(k) * tile_eff))
}

/// Static (no-contention) estimate of a GEMM's wave count and duration on
/// `sms` available SMs — the offline `gemm_config.duration` of Alg. 1.
pub fn gemm_estimate(
    dims: GemmDims,
    config: &GemmConfig,
    sms: u32,
    arch: &GpuArch,
) -> (u32, SimDuration) {
    let grid = config.grid(dims);
    let waves = wave_count(grid.num_tiles(), sms.max(1));
    let dur = arch.kernel_launch() + tile_duration(dims.k, config.tile, arch) * waves as u64;
    (waves, dur)
}

/// Writes computed tiles into the output buffer. Implementations choose
/// the layout: address order (plain GEMM) or a reordered packing
/// (FlashOverlap's pre-communication reordering).
pub trait EpilogueWriter {
    /// Writes the computed block of tile `t` into `out`.
    fn write_tile(&self, grid: &TileGrid, t: u32, block: &Matrix, out: &mut [f32]);

    /// Required output buffer length in elements.
    fn out_len(&self, grid: &TileGrid) -> usize {
        grid.m() as usize * grid.n() as usize
    }

    /// Appends the output ranges tile `t` writes to `spans`, for access
    /// monitors and the static verifier. Callers own the buffer, so one
    /// allocation serves every tile. The default matches the
    /// address-order layout (one span per tile row); reordered writers
    /// override this to report their packed destinations.
    fn write_spans(&self, grid: &TileGrid, t: u32, spans: &mut Vec<std::ops::Range<usize>>) {
        let rows = grid.rows_of(t);
        let cols = grid.cols_of(t);
        let n = grid.n() as usize;
        spans.extend(rows.map(|r| {
            let base = r as usize * n;
            base + cols.start as usize..base + cols.end as usize
        }));
    }

    /// The footprints of many tiles in one call, for the static
    /// verifier's lowering: hands `sink` the
    /// [`EpilogueWriter::write_spans`] of each tile of `tiles` in turn,
    /// closing each tile with [`FootprintSink::end_tile`]. The default
    /// loops over `write_spans` through one buffer; writers that can
    /// answer from a table override it and buffer nothing.
    fn footprints(&self, grid: &TileGrid, tiles: &[u32], sink: &mut dyn FootprintSink) {
        let mut spans = Vec::new();
        for &t in tiles {
            self.write_spans(grid, t, &mut spans);
            spans.drain(..).for_each(|span| sink.span(span));
            sink.end_tile(t);
        }
    }
}

/// Receives the tile footprints of [`EpilogueWriter::footprints`]: the
/// spans of one tile, then that tile's [`FootprintSink::end_tile`].
pub trait FootprintSink {
    /// One output range the current tile writes.
    fn span(&mut self, span: std::ops::Range<usize>);

    /// Tile `tile`'s spans are complete.
    fn end_tile(&mut self, tile: u32);

    /// Many tiles at once, each writing one whole slot of a packed
    /// buffer: `tiles[i]` writes `offsets[i]..offsets[i + 1]`, the last
    /// tile up to `end`. The default hands each span and tile end over
    /// in turn; a sink that stores footprints flat can take the run in
    /// bulk.
    fn slots(&mut self, tiles: &[u32], offsets: &[usize], end: usize) {
        let ends = offsets.iter().skip(1).chain(std::iter::once(&end));
        for ((&tile, &start), &end) in tiles.iter().zip(offsets).zip(ends) {
            self.span(start..end);
            self.end_tile(tile);
        }
    }
}

/// The default epilogue: writes each tile at its natural matrix position,
/// producing a row-major `M x N` output.
#[derive(Debug, Clone, Copy, Default)]
pub struct AddressOrderWriter;

impl EpilogueWriter for AddressOrderWriter {
    fn write_tile(&self, grid: &TileGrid, t: u32, block: &Matrix, out: &mut [f32]) {
        let rows = grid.rows_of(t);
        let cols = grid.cols_of(t);
        let n = grid.n() as usize;
        for (br, r) in rows.enumerate() {
            let dst = r as usize * n + cols.start as usize;
            out[dst..dst + block.cols()].copy_from_slice(block.row(br));
        }
    }
}

/// One maximal run of consecutive issue positions whose tiles share a
/// signal group: positions `[previous run's end, end)` of the kernel's
/// issue order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GroupRun {
    /// One past the run's last issue position.
    pub end: u32,
    /// The group every tile of the run belongs to.
    pub group: u32,
}

/// The maximal same-group runs of the issue order `issue`, where tile `t`
/// belongs to group `group_of_tile[t]`. Derive them once per plan: a
/// wave signals by clipping them, never by looking tiles up.
///
/// # Panics
///
/// Panics if a tile of `issue` has no entry in `group_of_tile`.
pub fn group_runs(issue: &[u32], group_of_tile: &[u32]) -> Rc<[GroupRun]> {
    let mut runs: Vec<GroupRun> = Vec::new();
    for (pos, &t) in issue.iter().enumerate() {
        let group = group_of_tile[t as usize];
        let end = pos as u32 + 1;
        match runs.last_mut() {
            Some(run) if run.group == group => run.end = end,
            _ => runs.push(GroupRun { end, group }),
        }
    }
    runs.into()
}

/// Epilogue counting-table hook: each finished tile increments its
/// group's slot of `table`, one increment per same-group run of a wave.
#[derive(Debug, Clone)]
pub struct CounterHook {
    /// Counting table index on the launching device.
    pub table: usize,
    /// The kernel's issue order as same-group runs ([`group_runs`]).
    runs: Rc<[GroupRun]>,
}

impl CounterHook {
    /// A hook signaling `table` along `runs`, the [`group_runs`] of the
    /// issue order of the kernel it is attached to.
    pub fn new(table: usize, runs: Rc<[GroupRun]>) -> Self {
        CounterHook { table, runs }
    }
}

/// A tiled GEMM stream kernel.
///
/// Buffers: `a` is `M x K` row-major, `b` is `K x N` row-major, `out` is
/// whatever the writer's layout requires (`M x N` row-major for
/// [`AddressOrderWriter`]).
pub struct GemmKernel {
    /// Input A buffer.
    pub a: BufferId,
    /// Input B buffer.
    pub b: BufferId,
    /// Output buffer.
    pub out: BufferId,
    /// Problem dimensions.
    pub dims: GemmDims,
    /// Kernel configuration.
    pub config: GemmConfig,
    /// Tile issue order: `config.issue_order(dims)`, derived once by
    /// whoever builds the kernel (a plan, a baseline) and shared across
    /// every launch of that shape.
    pub issue: Rc<[u32]>,
    /// Epilogue tile writer.
    pub writer: Rc<dyn EpilogueWriter>,
    /// Optional epilogue counting-table hook.
    pub counter: Option<CounterHook>,
}

impl std::fmt::Debug for GemmKernel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GemmKernel")
            .field("a", &self.a)
            .field("b", &self.b)
            .field("out", &self.out)
            .field("dims", &self.dims)
            .field("config", &self.config)
            .field("counter", &self.counter)
            .finish_non_exhaustive()
    }
}

impl GemmKernel {
    /// Convenience constructor with the default address-order epilogue and
    /// auto-chosen configuration.
    pub fn plain(a: BufferId, b: BufferId, out: BufferId, dims: GemmDims, arch: &GpuArch) -> Self {
        Self::with_config(a, b, out, dims, GemmConfig::choose(dims, arch))
    }

    /// An address-order kernel of an explicit configuration, with the
    /// issue order derived from it.
    pub fn with_config(
        a: BufferId,
        b: BufferId,
        out: BufferId,
        dims: GemmDims,
        config: GemmConfig,
    ) -> Self {
        GemmKernel {
            a,
            b,
            out,
            dims,
            config,
            issue: config.issue_order(dims),
            writer: Rc::new(AddressOrderWriter),
            counter: None,
        }
    }
}

/// A launched GEMM's state between waves, in the cluster's GEMM slab.
pub(crate) struct GemmRun {
    device: DeviceId,
    a: BufferId,
    b: BufferId,
    out: BufferId,
    dims: GemmDims,
    grid: TileGrid,
    tile_dur: SimDuration,
    issue: Rc<[u32]>,
    next: usize,
    wave_idx: u32,
    writer: Rc<dyn EpilogueWriter>,
    counter: Option<CounterHook>,
    /// The counter hook's first run not yet fully signaled (monotone).
    run_cursor: usize,
    completion: Completion,
}

/// Starts `kernel`: after the launch latency its first wave issues.
pub(crate) fn launch(
    kernel: GemmKernel,
    completion: Completion,
    world: &mut Cluster,
    sim: &mut ClusterSim,
) {
    let device = completion.device();
    let grid = kernel.config.grid(kernel.dims);
    debug_assert_eq!(
        kernel.issue.len(),
        grid.num_tiles() as usize,
        "issue order does not cover the kernel's tile grid"
    );
    debug_assert!(
        kernel.counter.as_ref().is_none_or(|hook| hook
            .runs
            .last()
            .map_or(0, |run| run.end as usize)
            == kernel.issue.len()),
        "counter hook runs do not cover the issue order"
    );
    // Per-launch execution noise (positive only): clocks never beat
    // the model.
    let noise = 1.0
        + world.devices[device]
            .rng
            .uniform(0.0, world.noise.gemm_frac.max(0.0));
    let arch = &world.devices[device].arch;
    let tile_dur = tile_duration(kernel.dims.k, kernel.config.tile, arch).mul_f64(noise);
    let launch = arch.kernel_launch();
    if world.functional {
        let mem = &world.devices[device].mem;
        assert_eq!(
            mem.len_of(kernel.a),
            (kernel.dims.m * kernel.dims.k) as usize,
            "A buffer length mismatch"
        );
        assert_eq!(
            mem.len_of(kernel.b),
            (kernel.dims.k * kernel.dims.n) as usize,
            "B buffer length mismatch"
        );
        assert!(
            mem.len_of(kernel.out) >= kernel.writer.out_len(&grid),
            "output buffer too small for epilogue writer"
        );
    }
    let run = world.gemms.insert(GemmRun {
        device,
        a: kernel.a,
        b: kernel.b,
        out: kernel.out,
        dims: kernel.dims,
        grid,
        tile_dur,
        issue: kernel.issue,
        next: 0,
        wave_idx: 0,
        writer: kernel.writer,
        counter: kernel.counter,
        run_cursor: 0,
        completion,
    });
    sim.schedule_in(launch, Event::WaveStart(run));
}

/// Issues the next wave of the GEMM in slab slot `slot`.
pub(crate) fn start_wave(slot: usize, world: &mut Cluster, sim: &mut ClusterSim) {
    let run = world.gemms.take(slot);
    issue_wave(run, world, sim);
}

fn issue_wave(run: GemmRun, world: &mut Cluster, sim: &mut ClusterSim) {
    // SM availability is sampled at wave start: communication kernels and
    // other compute kernels that arrived since the previous wave shrink
    // this wave. The wave holds its SMs until it retires, so concurrent
    // GEMMs (e.g. micro-batch co-execution) genuinely share the machine.
    let device = &mut world.devices[run.device];
    let avail = device.avail_sms_for_compute() as usize;
    let count = avail.min(run.issue.len() - run.next);
    device.occupy_compute_sms(count as u32);
    world.notify_sm_occupancy(sim.now(), run.device);
    let dur = run.tile_dur;
    let run = world.gemms.insert(run);
    sim.schedule_in(dur, Event::WaveFinish { run, count });
}

/// Retires a wave of `count` tiles of the GEMM in slab slot `slot`.
pub(crate) fn finish_wave(slot: usize, count: usize, world: &mut Cluster, sim: &mut ClusterSim) {
    let mut run = world.gemms.take(slot);
    world.devices[run.device].release_compute_sms(count as u32);
    world.notify_sm_occupancy(sim.now(), run.device);
    let wave_tiles = &run.issue[run.next..run.next + count];

    // Access monitoring: report each tile's epilogue writes at the wave
    // boundary (emitted in timing mode too — the sanitizer tracks ranges,
    // not values).
    if let Some(monitor) = world.monitor.as_deref().filter(|m| m.observes_accesses()) {
        let stream = run.completion.stream();
        let mut spans = Vec::new();
        for &t in wave_tiles {
            run.writer.write_spans(&run.grid, t, &mut spans);
            for range in spans.drain(..) {
                monitor.on_access(&crate::monitor::Access {
                    device: run.device,
                    stream,
                    buffer: run.out,
                    range,
                    kind: crate::monitor::AccessKind::Write,
                    scope: crate::monitor::AccessScope::TileWrite,
                    tile: Some(t),
                });
            }
        }
    }

    // Functional epilogue: compute each tile's block and write it through
    // the epilogue writer.
    if world.functional {
        for &t in wave_tiles {
            let block = {
                let mem = &world.devices[run.device].mem;
                compute_tile_block(mem.data(run.a), mem.data(run.b), run.dims, &run.grid, t)
            };
            let mem = &mut world.devices[run.device].mem;
            run.writer
                .write_tile(&run.grid, t, &block, mem.data_mut(run.out));
        }
    }

    // Trace: tiles of a wave complete within a small jitter window before
    // the wave boundary (§3.2.3: "typically within 5% of the wave
    // duration").
    if let Some(trace) = world.tile_trace.as_mut() {
        let device = &mut world.devices[run.device];
        let span = run.tile_dur.as_secs_f64() * device.arch.wave_jitter_frac;
        for (i, &t) in wave_tiles.iter().enumerate() {
            // The last tile of the wave lands exactly on the boundary.
            let jitter = if i + 1 == wave_tiles.len() {
                SimDuration::ZERO
            } else {
                SimDuration::from_secs_f64(device.rng.uniform(0.0, span))
            };
            let at = sim.now().duration_since(sim::SimTime::ZERO);
            let at = sim::SimTime::ZERO + at.saturating_sub(jitter);
            let tile = TileCompletion {
                device: run.device,
                tile: t,
                wave: run.wave_idx,
            };
            trace.push((at, tile));
        }
    }

    if let Some(hook) = &run.counter {
        let stream = run.completion.stream();
        let runs = clipped_runs(&hook.runs, &mut run.run_cursor, run.next..run.next + count);
        signal_wave(world, sim, run.device, stream, hook.table, &run.issue, runs);
    }

    run.next += count;
    run.wave_idx += 1;
    if run.next == run.issue.len() {
        // Overwrite the launch-time placeholder with the realized wave
        // count before the span retires (contention can stretch the
        // schedule past the static estimate).
        if world.op_spans.is_some() {
            let st = &mut world.devices[run.device].streams[run.completion.stream()];
            if let Some((_, meta, _)) = st.current.as_mut() {
                *meta = SpanMeta::Gemm {
                    tiles: run.grid.num_tiles(),
                    waves: run.wave_idx,
                };
            }
        }
        run.completion.finish(world, sim);
    } else {
        issue_wave(run, world, sim);
    }
}

/// The same-group runs of the issue positions `wave`, as `(group,
/// positions)`: `runs` clipped to the window, starting at `*cursor`,
/// which advances past every run the window finishes. Waves cover the
/// issue order left to right, so each wave costs O(runs it touches).
fn clipped_runs<'a>(
    runs: &'a [GroupRun],
    cursor: &'a mut usize,
    wave: Range<usize>,
) -> impl Iterator<Item = (usize, Range<usize>)> + 'a {
    let mut start = wave.start;
    std::iter::from_fn(move || {
        if start >= wave.end {
            return None;
        }
        let run = runs.get(*cursor)?;
        let run_end = run.end as usize;
        if run_end <= wave.end {
            *cursor += 1;
        }
        let end = run_end.min(wave.end);
        let positions = start..end;
        start = end;
        Some((run.group as usize, positions))
    })
}

/// Epilogue signaling for one wave (§3.2.4): each run of consecutive
/// tiles that share a group (`runs`, as `(group, issue positions)`)
/// bumps the group's counting-table slot once, then every satisfied
/// signaling kernel wakes (with its polling delay).
///
/// Fault injection: while a fault is armed on the run's group, the run's
/// leading tiles take it one at a time and are dropped or delayed (the
/// tiles' data writes are unaffected — only the signal misbehaves, as
/// when a real epilogue's atomic is lost or lands late across an
/// incoherent interconnect). The rest of the run lands as one increment.
fn signal_wave(
    world: &mut Cluster,
    sim: &mut ClusterSim,
    device: DeviceId,
    stream: StreamId,
    table_idx: usize,
    issue: &[u32],
    runs: impl Iterator<Item = (usize, Range<usize>)>,
) {
    use crate::counter::IncrementFault;
    use crate::monitor::{RuntimeDetail, RuntimeEvent};
    use crate::stream::{increment_counter, wake_counter_waiters};

    for (group, positions) in runs {
        let mut faulted = 0;
        for &t in issue.get(positions.clone()).unwrap_or_default() {
            let table = &mut world.devices[device].counters[table_idx];
            let Some(fault) = table.take_increment_fault(group) else {
                break;
            };
            faulted += 1;
            let detail = match fault {
                IncrementFault::Dropped => RuntimeDetail::IncrementDropped { tile: t },
                IncrementFault::Delayed(by) => RuntimeDetail::IncrementDelayed { tile: t, by },
            };
            world.log_runtime_event(RuntimeEvent {
                at: sim.now(),
                device,
                group: Some(group),
                detail,
            });
            if let IncrementFault::Delayed(by) = fault {
                let landing = Event::DelayedIncrement {
                    device: device as u32,
                    stream: stream as u32,
                    table: table_idx as u32,
                    group: group as u32,
                };
                sim.schedule_in(by, landing);
            }
        }

        let landed = (positions.len() - faulted) as u32;
        if landed > 0 {
            if let Some(monitor) = world.monitor.as_deref() {
                monitor.on_counter_increment(sim.now(), device, stream, table_idx, group, landed);
            }
            increment_counter(world, device, table_idx, group, landed);
        }
    }
    wake_counter_waiters(world, sim, device, table_idx);
}

/// Computes the output block of tile `t`: `A[rows, :] x B[:, cols]`.
fn compute_tile_block(a: &[f32], b: &[f32], dims: GemmDims, grid: &TileGrid, t: u32) -> Matrix {
    let rows = grid.rows_of(t);
    let cols = grid.cols_of(t);
    let (k, n) = (dims.k as usize, dims.n as usize);
    let mut block = Matrix::zeros(
        (rows.end - rows.start) as usize,
        (cols.end - cols.start) as usize,
    );
    for (br, r) in rows.clone().enumerate() {
        let a_row = &a[r as usize * k..(r as usize + 1) * k];
        let out_row = block.row_mut(br);
        for (p, &a_rp) in a_row.iter().enumerate() {
            let b_row = &b[p * n..p * n + n];
            for (bc, c) in cols.clone().enumerate() {
                out_row[bc] += a_rp * b_row[c as usize];
            }
        }
    }
    block
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::Cluster;
    use crate::stream::{enqueue, Op};
    use proptest::prelude::*;
    use sim::{DetRng, Sim};
    use tensor::{allclose, gemm};

    fn functional_cluster() -> (Cluster, ClusterSim) {
        (Cluster::new(1, GpuArch::rtx4090(), true, 42), Sim::new())
    }

    fn run_gemm(dims: GemmDims, config: Option<GemmConfig>) -> (Matrix, SimDuration) {
        let (mut world, mut sim) = functional_cluster();
        let mut rng = DetRng::new(9);
        let a = Matrix::random(dims.m as usize, dims.k as usize, &mut rng);
        let b = Matrix::random(dims.k as usize, dims.n as usize, &mut rng);
        let dev = &mut world.devices[0];
        let a_id = dev.mem.alloc_init(a.as_slice());
        let b_id = dev.mem.alloc_init(b.as_slice());
        let out_id = dev.mem.alloc((dims.m * dims.n) as usize);
        let stream = dev.create_stream();
        let config = config.unwrap_or_else(|| GemmConfig::choose(dims, &world.devices[0].arch));
        let kernel = GemmKernel::with_config(a_id, b_id, out_id, dims, config);
        enqueue(&mut world, &mut sim, 0, stream, Op::Gemm(kernel));
        let end = sim.run(&mut world).unwrap();
        let out = Matrix::from_vec(
            dims.m as usize,
            dims.n as usize,
            world.devices[0].mem.snapshot(out_id),
        );
        let expected = gemm(&a, &b);
        assert!(allclose(&out, &expected, 1e-3), "GEMM output wrong");
        (out, end - sim::SimTime::ZERO)
    }

    #[test]
    fn try_new_rejects_zero_dimensions() {
        assert_eq!(GemmDims::try_new(0, 64, 64), None);
        assert_eq!(GemmDims::try_new(64, 0, 64), None);
        assert_eq!(GemmDims::try_new(64, 64, 0), None);
        assert_eq!(
            GemmDims::try_new(64, 32, 16),
            Some(GemmDims::new(64, 32, 16))
        );
    }

    #[test]
    fn functional_gemm_matches_reference_exact_tiles() {
        let dims = GemmDims::new(64, 96, 32);
        let config = GemmConfig {
            tile: TileShape::new(16, 16),
            swizzle: Swizzle::Strip { width: 2 },
        };
        run_gemm(dims, Some(config));
    }

    #[test]
    fn functional_gemm_matches_reference_ragged_tiles() {
        let dims = GemmDims::new(50, 70, 24);
        let config = GemmConfig {
            tile: TileShape::new(16, 32),
            swizzle: Swizzle::Strip { width: 3 },
        };
        run_gemm(dims, Some(config));
    }

    #[test]
    fn functional_gemm_matches_reference_identity_swizzle() {
        let dims = GemmDims::new(48, 48, 16);
        let config = GemmConfig {
            tile: TileShape::new(16, 16),
            swizzle: Swizzle::Identity,
        };
        run_gemm(dims, Some(config));
    }

    #[test]
    fn duration_matches_static_estimate_without_contention() {
        let dims = GemmDims::new(2048, 8192, 8192);
        let (mut world, mut sim) = (Cluster::new(1, GpuArch::rtx4090(), false, 1), Sim::new());
        let dev = &mut world.devices[0];
        let a = dev.mem.alloc((dims.m * dims.k) as usize);
        let b = dev.mem.alloc((dims.k * dims.n) as usize);
        let out = dev.mem.alloc((dims.m * dims.n) as usize);
        let stream = dev.create_stream();
        let arch = world.devices[0].arch.clone();
        let kernel = GemmKernel::plain(a, b, out, dims, &arch);
        let config = kernel.config;
        enqueue(&mut world, &mut sim, 0, stream, Op::Gemm(kernel));
        let end = sim.run(&mut world).unwrap();
        let (waves, est) = gemm_estimate(dims, &config, arch.sm_count, &arch);
        assert_eq!(waves, 4, "paper example: 512 tiles / 128 SMs");
        assert_eq!(end.as_nanos(), est.as_nanos());
    }

    #[test]
    fn sm_contention_slows_gemm() {
        let dims = GemmDims::new(2048, 8192, 4096);
        let mut durations = Vec::new();
        for comm_sms in [0u32, 64] {
            let mut world = Cluster::new(1, GpuArch::rtx4090(), false, 1);
            let mut sim: ClusterSim = Sim::new();
            let dev = &mut world.devices[0];
            dev.occupy_comm_sms(comm_sms);
            let a = dev.mem.alloc(1);
            let b = dev.mem.alloc(1);
            let out = dev.mem.alloc(1);
            let stream = dev.create_stream();
            let arch = world.devices[0].arch.clone();
            let kernel = GemmKernel::plain(a, b, out, dims, &arch);
            enqueue(&mut world, &mut sim, 0, stream, Op::Gemm(kernel));
            durations.push(sim.run(&mut world).unwrap().as_nanos());
        }
        assert!(
            durations[1] > durations[0],
            "contended GEMM should be slower: {durations:?}"
        );
    }

    #[test]
    fn mid_run_contention_affects_later_waves() {
        // Occupying SMs halfway through the GEMM stretches only the
        // remaining waves.
        let dims = GemmDims::new(2048, 8192, 4096);
        let arch = GpuArch::rtx4090();
        let config = GemmConfig::choose(dims, &arch);
        let (_, clean) = gemm_estimate(dims, &config, arch.sm_count, &arch);

        let mut world = Cluster::new(1, arch.clone(), false, 1);
        let mut sim: ClusterSim = Sim::new();
        let dev = &mut world.devices[0];
        let a = dev.mem.alloc(1);
        let b = dev.mem.alloc(1);
        let out = dev.mem.alloc(1);
        let s0 = dev.create_stream();
        let s1 = dev.create_stream();
        let kernel = GemmKernel::plain(a, b, out, dims, &arch);
        let gemm_done = world.new_stamps(1);
        enqueue(&mut world, &mut sim, 0, s0, Op::Gemm(kernel));
        enqueue(&mut world, &mut sim, 0, s0, Op::Stamp(gemm_done));
        // Steal half the SMs from 60% of the clean duration on, with a
        // peer copy outlasting the GEMM.
        enqueue(&mut world, &mut sim, 0, s1, Op::Delay(clean.mul_f64(0.6)));
        let steal = crate::collective::P2pOp {
            src_buf: out,
            src_off: 0,
            dst_dev: 0,
            dst_buf: out,
            dst_off: 0,
            count: 0,
            sm_footprint: 64,
            bytes: 0,
            duration: clean * 4,
        };
        enqueue(&mut world, &mut sim, 0, s1, Op::P2p(steal));
        sim.run(&mut world).unwrap();
        let end = world.stamp(gemm_done).expect("the GEMM retired");
        let stretched = end - sim::SimTime::ZERO;
        assert!(stretched > clean, "late contention should stretch the tail");
        assert!(
            stretched < clean * 2,
            "early waves should be unaffected: {stretched:?} vs {clean:?}"
        );
    }

    #[test]
    fn concurrent_gemms_share_the_machine() {
        // Two identical GEMMs on separate streams must take roughly twice
        // as long as one (they split the SMs), not run for free.
        let dims = GemmDims::new(2048, 8192, 4096);
        let arch = GpuArch::rtx4090();
        let run = |kernels: usize| -> u64 {
            let mut world = Cluster::new(1, arch.clone(), false, 1);
            let mut sim: ClusterSim = Sim::new();
            for _ in 0..kernels {
                let dev = &mut world.devices[0];
                let a = dev.mem.alloc(1);
                let b = dev.mem.alloc(1);
                let out = dev.mem.alloc(1);
                let stream = dev.create_stream();
                let kernel = GemmKernel::plain(a, b, out, dims, &arch);
                enqueue(&mut world, &mut sim, 0, stream, Op::Gemm(kernel));
            }
            sim.run(&mut world).unwrap().as_nanos()
        };
        let one = run(1);
        let two = run(2);
        let ratio = two as f64 / one as f64;
        assert!(
            (1.5..2.6).contains(&ratio),
            "two concurrent GEMMs took {ratio}x of one"
        );
    }

    #[test]
    fn counter_hook_counts_every_tile() {
        let dims = GemmDims::new(64, 64, 16);
        let config = GemmConfig {
            tile: TileShape::new(16, 16),
            swizzle: Swizzle::Strip { width: 2 },
        };
        let mut world = Cluster::new(1, GpuArch::rtx4090(), true, 3);
        let mut sim: ClusterSim = Sim::new();
        let mut rng = DetRng::new(5);
        let a = Matrix::random(64, 16, &mut rng);
        let b = Matrix::random(16, 64, &mut rng);
        let dev = &mut world.devices[0];
        let a_id = dev.mem.alloc_init(a.as_slice());
        let b_id = dev.mem.alloc_init(b.as_slice());
        let out = dev.mem.alloc(64 * 64);
        let stream = dev.create_stream();
        let table = dev.create_counter(2);
        // Even tiles to group 0, odd tiles to group 1.
        let grid = config.grid(dims);
        let groups: Vec<u32> = (0..grid.num_tiles()).map(|t| t % 2).collect();
        let mut kernel = GemmKernel::with_config(a_id, b_id, out, dims, config);
        kernel.counter = Some(CounterHook::new(table, group_runs(&kernel.issue, &groups)));
        enqueue(&mut world, &mut sim, 0, stream, Op::Gemm(kernel));
        sim.run(&mut world).unwrap();
        let total = grid.num_tiles();
        assert_eq!(world.devices[0].counter(table).count(0), total / 2);
        assert_eq!(world.devices[0].counter(table).count(1), total / 2);
    }

    #[test]
    fn dropped_increment_fault_loses_exactly_that_many_signals() {
        let dims = GemmDims::new(64, 64, 16);
        let config = GemmConfig {
            tile: TileShape::new(16, 16),
            swizzle: Swizzle::Strip { width: 2 },
        };
        let mut world = Cluster::new(1, GpuArch::rtx4090(), false, 3);
        let mut sim: ClusterSim = Sim::new();
        let dev = &mut world.devices[0];
        let a_id = dev.mem.alloc(1);
        let b_id = dev.mem.alloc(1);
        let out = dev.mem.alloc(1);
        let stream = dev.create_stream();
        let table = dev.create_counter(2);
        dev.counters[table].arm_fault(1, crate::counter::IncrementFault::Dropped, 3);
        let grid = config.grid(dims);
        let groups: Vec<u32> = (0..grid.num_tiles()).map(|t| t % 2).collect();
        let mut kernel = GemmKernel::with_config(a_id, b_id, out, dims, config);
        kernel.counter = Some(CounterHook::new(table, group_runs(&kernel.issue, &groups)));
        enqueue(&mut world, &mut sim, 0, stream, Op::Gemm(kernel));
        sim.run(&mut world).unwrap();
        let total = grid.num_tiles();
        assert_eq!(world.devices[0].counter(table).count(0), total / 2);
        assert_eq!(world.devices[0].counter(table).count(1), total / 2 - 3);
    }

    #[test]
    fn delayed_increment_fault_lands_late_but_completely() {
        let dims = GemmDims::new(64, 64, 16);
        let config = GemmConfig {
            tile: TileShape::new(16, 16),
            swizzle: Swizzle::Strip { width: 2 },
        };
        let run = |delayed: u32| -> (u32, u64) {
            let mut world = Cluster::new(1, GpuArch::rtx4090(), false, 3);
            let mut sim: ClusterSim = Sim::new();
            let dev = &mut world.devices[0];
            let a_id = dev.mem.alloc(1);
            let b_id = dev.mem.alloc(1);
            let out = dev.mem.alloc(1);
            let stream = dev.create_stream();
            let table = dev.create_counter(1);
            dev.counters[table].arm_fault(
                0,
                crate::counter::IncrementFault::Delayed(SimDuration::from_micros(50)),
                delayed,
            );
            let grid = config.grid(dims);
            let groups: Vec<u32> = (0..grid.num_tiles()).map(|_| 0).collect();
            let mut kernel = GemmKernel::with_config(a_id, b_id, out, dims, config);
            kernel.counter = Some(CounterHook::new(table, group_runs(&kernel.issue, &groups)));
            enqueue(&mut world, &mut sim, 0, stream, Op::Gemm(kernel));
            let end = sim.run(&mut world).unwrap();
            (world.devices[0].counter(table).count(0), end.as_nanos())
        };
        let (clean_count, clean_end) = run(0);
        let (count, end) = run(2);
        assert_eq!(count, clean_count, "delayed increments still land");
        assert!(
            end >= clean_end + SimDuration::from_micros(50).as_nanos(),
            "delayed increment should push the drain time: {end} vs {clean_end}"
        );
    }

    /// What a monitor sees of the epilogue signal path.
    #[derive(Default)]
    struct SignalLog {
        /// `(at, group, by)` per counter increment callback.
        increments: std::cell::RefCell<Vec<(sim::SimTime, usize, u32)>>,
        satisfied: std::cell::RefCell<Vec<(usize, u32)>>,
        faults: std::cell::RefCell<Vec<String>>,
    }

    impl crate::monitor::ClusterMonitor for SignalLog {
        fn on_counter_increment(
            &self,
            at: sim::SimTime,
            _device: DeviceId,
            _stream: StreamId,
            _table: usize,
            group: usize,
            by: u32,
        ) {
            self.increments.borrow_mut().push((at, group, by));
        }

        fn on_counter_satisfied(
            &self,
            _at: sim::SimTime,
            _device: DeviceId,
            _stream: StreamId,
            _table: usize,
            group: usize,
            threshold: u32,
        ) {
            self.satisfied.borrow_mut().push((group, threshold));
        }

        fn on_runtime_event(&self, event: &crate::monitor::RuntimeEvent) {
            self.faults.borrow_mut().push(event.detail.to_string());
        }
    }

    /// Runs one 16-tile wave whose first 10 issued tiles belong to group 0
    /// and the last 6 to group 1, with `fault` armed on group 0 for 3
    /// increments. Waits on group 0 (thresholds 9, 7, 5) and group 1
    /// (threshold 6) are parked before the wave finishes. Returns the
    /// signal log, the issue order and the final counts.
    fn faulted_wave(fault: crate::counter::IncrementFault) -> (SignalLog, Vec<u32>, [u32; 2]) {
        let dims = GemmDims::new(64, 64, 16);
        let config = GemmConfig {
            tile: TileShape::new(16, 16),
            swizzle: Swizzle::Strip { width: 2 },
        };
        let grid = config.grid(dims);
        let issue = config.swizzle.issue_order(&grid);
        let mut groups = vec![0; grid.num_tiles() as usize];
        for (i, &t) in issue.iter().enumerate() {
            groups[t as usize] = u32::from(i >= 10);
        }
        let mut world = Cluster::new(1, GpuArch::rtx4090(), false, 3);
        let log = Rc::new(SignalLog::default());
        world.set_monitor(log.clone());
        let mut sim: ClusterSim = Sim::new();
        let dev = &mut world.devices[0];
        let (a, b, out) = (dev.mem.alloc(1), dev.mem.alloc(1), dev.mem.alloc(1));
        let table = dev.create_counter(2);
        dev.counters[table].arm_fault(0, fault, 3);
        let gemm_stream = dev.create_stream();
        for (group, threshold) in [(0, 9), (0, 7), (0, 5), (1, 6)] {
            let s = world.devices[0].create_stream();
            let wait = Op::WaitCounter {
                table,
                group,
                threshold,
            };
            enqueue(&mut world, &mut sim, 0, s, wait);
        }
        let mut kernel = GemmKernel::with_config(a, b, out, dims, config);
        kernel.counter = Some(CounterHook::new(table, group_runs(&kernel.issue, &groups)));
        enqueue(&mut world, &mut sim, 0, gemm_stream, Op::Gemm(kernel));
        let _ = sim.run(&mut world);
        let counts = [0, 1].map(|g| world.devices[0].counter(table).count(g));
        let logged: Vec<String> = world
            .runtime_log
            .iter()
            .map(|e| e.detail.to_string())
            .collect();
        assert_eq!(logged, *log.faults.borrow(), "the monitor sees the log");
        drop(world);
        let log = Rc::into_inner(log).expect("the cluster released its monitor");
        (log, issue, counts)
    }

    #[test]
    fn dropped_fault_takes_only_the_leading_tiles_of_a_group_run() {
        let (log, issue, counts) = faulted_wave(crate::counter::IncrementFault::Dropped);
        let expected: Vec<String> = issue[..3]
            .iter()
            .map(|t| format!("dropped counter increment (tile {t})"))
            .collect();
        assert_eq!(*log.faults.borrow(), expected);
        // Per tile: 7 of group 0's 10 increments land, all of group 1's.
        assert_eq!(counts, [7, 6]);
        // One callback per group run, carrying the tiles that landed.
        let increments = log.increments.borrow();
        let wave_end = increments[0].0;
        assert_eq!(*increments, [(wave_end, 0, 7), (wave_end, 1, 6)]);
        // Group 0's run releases thresholds 5 and 7 (in threshold order),
        // then group 1's; threshold 9 starves.
        assert_eq!(*log.satisfied.borrow(), [(0, 5), (0, 7), (1, 6)]);
    }

    #[test]
    fn delayed_fault_takes_only_the_leading_tiles_of_a_group_run() {
        let delay = SimDuration::from_micros(50);
        let (log, issue, counts) = faulted_wave(crate::counter::IncrementFault::Delayed(delay));
        let expected: Vec<String> = issue[..3]
            .iter()
            .map(|t| format!("delayed counter increment by {delay:?} (tile {t})"))
            .collect();
        assert_eq!(*log.faults.borrow(), expected);
        assert_eq!(counts, [10, 6], "delayed increments still land");
        // The group runs land 7 and 6 at the wave boundary; each delayed
        // tile lands on its own, `delay` later, and the second of them
        // releases threshold 9.
        let increments = log.increments.borrow();
        let (wave_end, late) = (increments[0].0, increments[0].0 + delay);
        assert_eq!(
            *increments,
            [
                (wave_end, 0, 7),
                (wave_end, 1, 6),
                (late, 0, 1),
                (late, 0, 1),
                (late, 0, 1)
            ]
        );
        assert_eq!(*log.satisfied.borrow(), [(0, 5), (0, 7), (1, 6), (0, 9)]);
    }

    /// The per-tile reference for group-run signaling: scans the wave's
    /// issue positions through the tile→group map and cuts a run where
    /// the group changes, as `(group, positions)`.
    fn scanned_runs(
        issue: &[u32],
        group_of_tile: &[u32],
        wave: Range<usize>,
    ) -> Vec<(usize, Range<usize>)> {
        let mut runs: Vec<(usize, Range<usize>)> = Vec::new();
        for pos in wave {
            let group = group_of_tile[issue[pos] as usize] as usize;
            match runs.last_mut() {
                Some((g, positions)) if *g == group => positions.end = pos + 1,
                _ => runs.push((group, pos..pos + 1)),
            }
        }
        runs
    }

    /// Everything the signal path reports, in order.
    #[derive(Default)]
    struct RunLog {
        /// `(at, group, by)` per counter increment callback: a group
        /// run's landed tiles, or one delayed tile landing.
        increments: std::cell::RefCell<Vec<(sim::SimTime, usize, u32)>>,
        /// `(stream, group, threshold)` per released wait.
        satisfied: std::cell::RefCell<Vec<(StreamId, usize, u32)>>,
        details: std::cell::RefCell<Vec<String>>,
    }

    impl crate::monitor::ClusterMonitor for RunLog {
        fn on_counter_increment(
            &self,
            at: sim::SimTime,
            _device: DeviceId,
            _stream: StreamId,
            _table: usize,
            group: usize,
            by: u32,
        ) {
            self.increments.borrow_mut().push((at, group, by));
        }

        fn on_counter_satisfied(
            &self,
            _at: sim::SimTime,
            _device: DeviceId,
            stream: StreamId,
            _table: usize,
            group: usize,
            threshold: u32,
        ) {
            self.satisfied.borrow_mut().push((stream, group, threshold));
        }

        fn on_runtime_event(&self, event: &crate::monitor::RuntimeEvent) {
            self.details.borrow_mut().push(event.detail.to_string());
        }
    }

    /// A seeded permutation of `0..n`.
    fn shuffled(n: usize, seed: u64) -> Vec<u32> {
        let mut rng = DetRng::new(seed);
        let mut order: Vec<u32> = (0..n as u32).collect();
        for i in (1..n).rev() {
            let j = (rng.next_u64() % (i as u64 + 1)) as usize;
            order.swap(i, j);
        }
        order
    }

    /// Splits `0..tiles` into consecutive waves of the given widths
    /// (cycled), the last one clipped.
    fn waves_of(tiles: usize, widths: &[usize]) -> Vec<Range<usize>> {
        let mut waves = Vec::new();
        let mut start = 0;
        for &w in widths.iter().cycle() {
            if start >= tiles {
                break;
            }
            let end = (start + w.max(1)).min(tiles);
            waves.push(start..end);
            start = end;
        }
        waves
    }

    /// One armed-fault scenario for [`signal_through`].
    struct Scenario {
        issue: Rc<[u32]>,
        group_of_tile: Rc<[u32]>,
        groups: usize,
        waves: Vec<Range<usize>>,
        faults: Vec<(usize, crate::counter::IncrementFault, u32)>,
        waits: Vec<(usize, u32)>,
    }

    /// Signals the scenario's waves at 1 µs intervals on a one-device
    /// cluster with the scenario's waits parked and faults armed —
    /// through the group-run path (`runs`) or the per-tile scan — and
    /// returns what the monitor saw plus the final counts.
    fn signal_through(sc: &Scenario, runs: bool) -> (RunLog, Vec<u32>) {
        let mut world = Cluster::new(1, GpuArch::rtx4090(), false, 5);
        let log = Rc::new(RunLog::default());
        world.set_monitor(log.clone());
        let mut sim: ClusterSim = Sim::new();
        let table = world.devices[0].create_counter(sc.groups);
        for &(group, kind, count) in &sc.faults {
            world.devices[0].counters[table].arm_fault(group, kind, count);
        }
        for &(group, threshold) in &sc.waits {
            let s = world.devices[0].create_stream();
            let wait = Op::WaitCounter {
                table,
                group,
                threshold,
            };
            enqueue(&mut world, &mut sim, 0, s, wait);
        }
        let gemm_stream = world.devices[0].create_stream();
        let group_runs = group_runs(&sc.issue, &sc.group_of_tile);
        let mut cursor = 0;
        for (i, wave) in sc.waves.iter().cloned().enumerate() {
            sim.run_until(&mut world, sim::SimTime::from_nanos(1_000 * i as u64))
                .unwrap();
            let (w, s) = (&mut world, &mut sim);
            if runs {
                let clipped = clipped_runs(&group_runs, &mut cursor, wave);
                signal_wave(w, s, 0, gemm_stream, table, &sc.issue, clipped);
            } else {
                let scanned = scanned_runs(&sc.issue, &sc.group_of_tile, wave);
                signal_wave(w, s, 0, gemm_stream, table, &sc.issue, scanned.into_iter());
            }
        }
        let _ = sim.run(&mut world);
        let counts = (0..sc.groups)
            .map(|g| world.devices[0].counter(table).count(g))
            .collect();
        drop(world);
        let log = Rc::into_inner(log).expect("the cluster released its monitor");
        (log, counts)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Clipping the plan's group runs to each wave gives exactly the
        /// runs a per-tile scan of the wave finds, in order, for random
        /// issue orders, group maps and contended wave widths — and with
        /// dropped and delayed faults armed, the same increments, fault
        /// details and released-waiter order.
        #[test]
        fn clipped_group_runs_match_a_per_tile_scan(
            tiles in 1usize..80,
            groups in 1usize..6,
            seed in any::<u64>(),
            blocky in any::<bool>(),
            noise in prop::collection::vec(0u32..6, 80),
            widths in prop::collection::vec(1usize..24, 1..6),
            drop_fault in (0usize..6, 0u32..5),
            delay_fault in (0usize..6, 0u32..5),
            waits in prop::collection::vec((0usize..6, 1u32..40), 0..6),
        ) {
            let issue: Rc<[u32]> = shuffled(tiles, seed).into();
            // Blocky maps group issue positions like real plans (waves
            // in order, a few strays); the rest are uniformly random.
            let mut map = vec![0u32; tiles];
            for (pos, &t) in issue.iter().enumerate() {
                let block = (pos * groups / tiles) as u32;
                map[t as usize] = if blocky && noise[pos] != 0 { block } else { noise[pos] % groups as u32 };
            }
            let group_of_tile: Rc<[u32]> = map.into();
            let waves = waves_of(tiles, &widths);

            let runs = group_runs(&issue, &group_of_tile);
            let mut cursor = 0;
            for wave in &waves {
                let clipped: Vec<_> = clipped_runs(&runs, &mut cursor, wave.clone()).collect();
                prop_assert_eq!(clipped, scanned_runs(&issue, &group_of_tile, wave.clone()));
            }
            prop_assert_eq!(cursor, runs.len(), "every run consumed");

            use crate::counter::IncrementFault;
            let sc = Scenario {
                issue,
                group_of_tile,
                groups,
                waves,
                faults: vec![
                    (drop_fault.0 % groups, IncrementFault::Dropped, drop_fault.1),
                    (
                        delay_fault.0 % groups,
                        IncrementFault::Delayed(SimDuration::from_nanos(1_500)),
                        delay_fault.1,
                    ),
                ],
                waits: waits.iter().map(|&(g, th)| (g % groups, th)).collect(),
            };
            let (got, got_counts) = signal_through(&sc, true);
            let (want, want_counts) = signal_through(&sc, false);
            prop_assert_eq!(got.increments.into_inner(), want.increments.into_inner());
            prop_assert_eq!(got.details.into_inner(), want.details.into_inner());
            prop_assert_eq!(got.satisfied.into_inner(), want.satisfied.into_inner());
            prop_assert_eq!(got_counts, want_counts);
        }
    }

    #[test]
    fn group_runs_are_maximal_and_cover_the_issue_order() {
        let runs = group_runs(&[3, 0, 2, 1, 4], &[1, 0, 1, 1, 0]);
        // Issue positions 0..3 hold tiles 3, 0, 2 (all group 1), and
        // positions 3..5 hold tiles 1, 4 (group 0).
        assert_eq!(
            *runs,
            [GroupRun { end: 3, group: 1 }, GroupRun { end: 5, group: 0 }]
        );
        assert!(group_runs(&[], &[]).is_empty());
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "issue order does not cover")]
    fn launch_rejects_an_issue_order_of_another_grid() {
        let dims = GemmDims::new(64, 64, 16);
        let config = GemmConfig {
            tile: TileShape::new(16, 16),
            swizzle: Swizzle::Strip { width: 2 },
        };
        let (mut world, mut sim) = (Cluster::new(1, GpuArch::rtx4090(), false, 3), Sim::new());
        let dev = &mut world.devices[0];
        let (a, b, out) = (dev.mem.alloc(1), dev.mem.alloc(1), dev.mem.alloc(1));
        let stream = dev.create_stream();
        let mut kernel = GemmKernel::with_config(a, b, out, dims, config);
        // Retiling after construction leaves a 16-tile order on a
        // 4-tile grid.
        kernel.config.tile = TileShape::new(32, 32);
        enqueue(&mut world, &mut sim, 0, stream, Op::Gemm(kernel));
        let _ = sim.run(&mut world);
    }

    #[test]
    fn tile_trace_records_waves() {
        let dims = GemmDims::new(64, 64, 16);
        let mut world = Cluster::new(1, GpuArch::rtx4090(), false, 3);
        world.enable_tile_trace();
        let mut sim: ClusterSim = Sim::new();
        let dev = &mut world.devices[0];
        let a = dev.mem.alloc(1);
        let b = dev.mem.alloc(1);
        let out = dev.mem.alloc(1);
        let stream = dev.create_stream();
        let config = GemmConfig {
            tile: TileShape::new(16, 16),
            swizzle: Swizzle::Strip { width: 2 },
        };
        let kernel = GemmKernel::with_config(a, b, out, dims, config);
        enqueue(&mut world, &mut sim, 0, stream, Op::Gemm(kernel));
        sim.run(&mut world).unwrap();
        let trace = world.tile_trace.as_ref().unwrap();
        // 16 tiles on 128 SMs: a single wave.
        assert_eq!(trace.len(), 16);
        assert!(trace.iter().all(|(_, r)| r.wave == 0));
    }

    #[test]
    fn gemm_noise_is_positive_and_bounded() {
        let dims = GemmDims::new(2048, 4096, 4096);
        let arch = GpuArch::rtx4090();
        let config = GemmConfig::choose(dims, &arch);
        let (_, clean) = gemm_estimate(dims, &config, arch.sm_count, &arch);
        let mut noisy_durations = Vec::new();
        for seed in 0..8u64 {
            let mut world = Cluster::new(1, arch.clone(), false, seed);
            world.noise = crate::cluster::NoiseSpec {
                gemm_frac: 0.05,
                comm_frac: 0.0,
            };
            let mut sim: ClusterSim = Sim::new();
            let dev = &mut world.devices[0];
            let a = dev.mem.alloc(1);
            let b = dev.mem.alloc(1);
            let out = dev.mem.alloc(1);
            let stream = dev.create_stream();
            let kernel = GemmKernel::with_config(a, b, out, dims, config);
            enqueue(&mut world, &mut sim, 0, stream, Op::Gemm(kernel));
            noisy_durations.push(sim.run(&mut world).unwrap().as_nanos());
        }
        for &d in &noisy_durations {
            assert!(d >= clean.as_nanos(), "noise must never speed up");
            assert!(
                d <= clean.mul_f64(1.06).as_nanos(),
                "noise bounded by the configured fraction"
            );
        }
        // Seeds differ, so durations should not all coincide.
        let distinct: std::collections::HashSet<u64> = noisy_durations.iter().copied().collect();
        assert!(distinct.len() > 1);
    }

    #[test]
    fn config_choose_prefers_large_tiles_on_big_shapes() {
        let arch = GpuArch::rtx4090();
        let config = GemmConfig::choose(GemmDims::new(4096, 8192, 8192), &arch);
        assert_eq!(config.tile, TileShape::new(256, 128));
        let grid = config.grid(GemmDims::new(4096, 8192, 8192));
        assert_eq!(grid.num_tiles(), 1024);
    }

    #[test]
    fn config_choose_shrinks_tiles_for_small_m() {
        let arch = GpuArch::rtx4090();
        let config = GemmConfig::choose(GemmDims::new(128, 4096, 4096), &arch);
        // 256-row tiles would waste half of every tile; a smaller tile
        // must win.
        assert!(config.tile.m <= 128);
    }

    #[test]
    fn tile_duration_scales_with_k() {
        let arch = GpuArch::rtx4090();
        let tile = TileShape::new(128, 128);
        let d1 = tile_duration(2048, tile, &arch);
        let d2 = tile_duration(4096, tile, &arch);
        assert!(d2 > d1);
        // Near-linear at large K (efficiency saturates).
        let ratio = d2.as_secs_f64() / d1.as_secs_f64();
        assert!((1.8..2.2).contains(&ratio), "ratio {ratio}");
    }
}
