//! The one chunked program every simulated baseline runs.
//!
//! The output's rows split into `chunks` equal chunks. Each chunk's GEMM
//! runs on a compute stream and records an event; the paired
//! communication stream waits on it and then moves the chunk. A baseline
//! fixes the chunk count, whether chunks share one stream pair per rank
//! or each gets its own (micro-batch), and what a chunk communicates.

use std::ops::Range;
use std::rc::Rc;

use collectives::{p2p_copy, A2aPlan, CollectiveSpec, CommScope, Communicator, Region};
use flashoverlap::runtime::{CommPattern, Instrumentation};
use flashoverlap::{FlashOverlapError, SystemSpec};
use gpu_sim::gemm::{AddressOrderWriter, GemmConfig, GemmDims, GemmKernel};
use gpu_sim::stream::{enqueue, Op};
use gpu_sim::{BufferId, ClusterSim, OpSpan, Wedge};
use sim::{Sim, SimDuration, SimTime};

/// SMs a peer-copy kernel occupies (copy engines + a small SM footprint).
const P2P_SMS: u32 = 8;

/// What one chunk communicates once its GEMM is done.
#[derive(Debug, Clone, Copy)]
pub(crate) enum ChunkComm<'a> {
    /// One collective over the chunk's rows of the output.
    Collective(&'a CommPattern),
    /// Async-TP's peer-copy ring: every rank pushes its partial chunk to
    /// the chunk's owner (rank `chunk % ranks`); with `gather_back`
    /// (AllReduce) the owner copies the reduced chunk back to every peer.
    PeerRing { gather_back: bool },
}

/// A validated chunked program, ready to run.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Chunked<'a> {
    dims: GemmDims,
    system: &'a SystemSpec,
    chunks: u32,
    chunk_rows: u32,
    /// Each chunk gets its own stream pair per rank instead of all chunks
    /// sharing one.
    own_streams: bool,
    comm: ChunkComm<'a>,
}

/// One rank's buffers: every chunk's GEMM reads `a`, `b` and writes its
/// rows of `out`; `recv` receives the collective (`ranks` outputs for
/// AllGather) or stages Async-TP's peer copies.
#[derive(Debug, Clone, Copy)]
struct RankBuffers {
    a: BufferId,
    b: BufferId,
    out: BufferId,
    recv: BufferId,
}

fn incompatible<T>(reason: String) -> Result<T, FlashOverlapError> {
    Err(FlashOverlapError::IncompatibleShape { reason })
}

impl<'a> Chunked<'a> {
    /// Checks that `system` can run `chunks` chunks of `comm` over `dims`:
    /// two or more GPUs, `M` splitting into equal chunks, a ReduceScatter
    /// chunk dividing across the ranks, and peer-to-peer access for the
    /// ring. Each failure is [`FlashOverlapError::IncompatibleShape`].
    pub(crate) fn new(
        dims: GemmDims,
        system: &'a SystemSpec,
        chunks: u32,
        comm: ChunkComm<'a>,
    ) -> Result<Self, FlashOverlapError> {
        system.check_group()?;
        let n = system.n_gpus;
        if chunks == 0 || !dims.m.is_multiple_of(chunks) {
            let m = dims.m;
            return incompatible(format!("M = {m} does not split into {chunks} chunks"));
        }
        let chunk_rows = dims.m / chunks;
        let elems = chunk_rows as usize * dims.n as usize;
        match comm {
            ChunkComm::Collective(CommPattern::ReduceScatter) if !elems.is_multiple_of(n) => {
                incompatible(format!(
                    "output of {elems} elements does not divide {n} ranks"
                ))
            }
            ChunkComm::PeerRing { .. } if !system.fabric.peer_to_peer => incompatible(
                "Async-TP requires peer-to-peer (NVLink) access between all GPU pairs".into(),
            ),
            _ => Ok(Chunked {
                dims,
                system,
                chunks,
                chunk_rows,
                own_streams: false,
                comm,
            }),
        }
    }

    /// Rejects a ReduceScatter whose chunk rows do not divide across the
    /// ranks: VanillaDecomposition and micro-batch scatter whole rows.
    pub(crate) fn whole_row_scatter(self) -> Result<Self, FlashOverlapError> {
        let (rows, n) = (self.chunk_rows, self.system.n_gpus);
        match self.comm {
            ChunkComm::Collective(CommPattern::ReduceScatter)
                if !(rows as usize).is_multiple_of(n) =>
            {
                incompatible(format!("chunk rows {rows} do not divide {n} ranks"))
            }
            _ => Ok(self),
        }
    }

    /// Gives every chunk its own stream pair per rank: independent
    /// micro-batch dataflows.
    pub(crate) fn own_streams(mut self) -> Self {
        self.own_streams = true;
        self
    }

    /// [`Chunked::run`] with no hooks attached, keeping the latency.
    pub(crate) fn latency(&self) -> Result<SimDuration, FlashOverlapError> {
        self.run(&Instrumentation::default()).map(|(l, _)| l)
    }

    /// Runs the program on a fresh cluster with `instr`'s hooks attached
    /// and returns its latency and per-stream operation spans.
    ///
    /// # Errors
    ///
    /// Returns [`FlashOverlapError::BadInputs`] on malformed All-to-All
    /// routing, [`FlashOverlapError::Deadlock`] if a stream never drains,
    /// and propagates simulation failures.
    pub(crate) fn run(
        &self,
        instr: &Instrumentation,
    ) -> Result<(SimDuration, Vec<OpSpan>), FlashOverlapError> {
        let (dims, system, n) = (self.dims, self.system, self.system.n_gpus);
        let mut world = system.build_cluster(false);
        world.enable_op_spans();
        if let Some(monitor) = &instr.monitor {
            world.set_monitor(Rc::clone(monitor));
        }
        let mut sim: ClusterSim = Sim::new();
        if let Some(probe) = &instr.probe {
            sim.set_probe(Rc::clone(probe));
        }
        let ranks = (0..n).collect();
        let comm = Communicator::with_algorithm(
            ranks,
            system.fabric.clone(),
            system.comm_sms,
            system.algorithm,
        );
        let scope = comm.open(&mut world);
        // Host-process launch skew: each rank starts every stream it
        // launches on a random delay late (its host thread submits all).
        let skew: Vec<SimDuration> = match system.launch_skew_ns {
            0 => Vec::new(),
            max => (world.devices.iter_mut())
                .map(|dev| SimDuration::from_nanos(dev.rng.uniform(0.0, max as f64) as u64))
                .collect(),
        };

        // Each chunk GEMM is configured for its own shape, exactly as
        // separate cuBLAS calls would be.
        let chunk_dims = GemmDims::new(self.chunk_rows, dims.n, dims.k);
        let config = GemmConfig::choose(chunk_dims, &system.arch);
        let issue = config.issue_order(chunk_dims);
        let out_elems = dims.m as usize * dims.n as usize;
        let recv_elems = match self.comm {
            ChunkComm::Collective(CommPattern::AllGather) => out_elems * n,
            _ => out_elems,
        };
        let bufs: Vec<RankBuffers> = (world.devices.iter_mut())
            .map(|dev| RankBuffers {
                a: dev.mem.alloc(self.chunk_rows as usize * dims.k as usize),
                b: dev.mem.alloc(dims.k as usize * dims.n as usize),
                out: dev.mem.alloc(out_elems),
                recv: dev.mem.alloc(recv_elems),
            })
            .collect();
        let mut streams = Vec::with_capacity(n);
        for c in 0..self.chunks {
            // Every rank opens a compute and a communication stream, once
            // or (micro-batch) per chunk; launch skew delays both.
            if c == 0 || self.own_streams {
                streams.clear();
                for d in 0..n {
                    let dev = &mut world.devices[d];
                    let pair = [dev.create_stream(), dev.create_stream()];
                    if let Some(&delay) = skew.get(d) {
                        for stream in pair {
                            enqueue(&mut world, &mut sim, d, stream, Op::Delay(delay));
                        }
                    }
                    streams.push(pair);
                }
            }
            let events: Vec<usize> = world.devices.iter_mut().map(|d| d.create_event()).collect();
            for (d, (buf, &[compute, _])) in bufs.iter().zip(&streams).enumerate() {
                let record = Op::RecordEvent(events[d]);
                let kernel = GemmKernel {
                    a: buf.a,
                    b: buf.b,
                    out: buf.out,
                    dims: chunk_dims,
                    config,
                    issue: Rc::clone(&issue),
                    writer: Rc::new(AddressOrderWriter),
                    counter: None,
                };
                enqueue(&mut world, &mut sim, d, compute, Op::Gemm(kernel));
                enqueue(&mut world, &mut sim, d, compute, record);
            }
            for (d, ops) in self.chunk_ops(c, &bufs, &scope)?.into_iter().enumerate() {
                let comm = streams[d][1];
                enqueue(&mut world, &mut sim, d, comm, Op::WaitEvent(events[d]));
                for op in ops {
                    enqueue(&mut world, &mut sim, d, comm, op);
                }
            }
        }
        let end = sim.run(&mut world)?;
        if let Err(Wedge { streams, waits }) = world.check_quiescent() {
            let chain = Vec::new();
            return Err(FlashOverlapError::Deadlock {
                streams,
                waits,
                chain,
            });
        }
        let spans = world.op_spans.take().unwrap_or_default();
        Ok((end - SimTime::ZERO, spans))
    }

    /// Chunk `c`'s communication: the ops each rank's communication
    /// stream runs once the chunk's GEMM is done.
    fn chunk_ops(
        &self,
        c: u32,
        bufs: &[RankBuffers],
        scope: &CommScope,
    ) -> Result<Vec<Vec<Op>>, FlashOverlapError> {
        let n = bufs.len();
        let len = self.chunk_rows as usize * self.dims.n as usize;
        let off = c as usize * len;
        let send = || bufs.iter().map(|b| Region::new(b.out, off, len)).collect();
        let recv = |o, l| bufs.iter().map(|b| Region::new(b.recv, o, l)).collect();
        let spec = match self.comm {
            ChunkComm::Collective(pattern) => match pattern {
                CommPattern::AllReduce => CollectiveSpec::AllReduce { regions: send() },
                CommPattern::ReduceScatter => CollectiveSpec::ReduceScatter {
                    send: send(),
                    recv: recv(off / n, len / n),
                },
                CommPattern::AllGather => CollectiveSpec::AllGather {
                    send: send(),
                    recv: recv(off * n, len * n),
                },
                CommPattern::AllToAll { routing } => {
                    let rows = c * self.chunk_rows..(c + 1) * self.chunk_rows;
                    CollectiveSpec::AllToAllV {
                        send: bufs.iter().map(|b| b.out).collect(),
                        recv: bufs.iter().map(|b| b.recv).collect(),
                        plan: Rc::new(chunk_a2a_plan(self.dims, routing, n, rows)?),
                    }
                }
            },
            ChunkComm::PeerRing { gather_back } => {
                // The per-direction NVLink links run the ranks' puts in
                // parallel, so a chunk occupies each comm stream for one
                // chunk-sized copy (plus the owner's broadcast).
                let owner = c as usize % n;
                let fabric = &self.system.fabric;
                let copy =
                    |src, to, dst| p2p_copy(fabric, (src, off), (to, dst, off), len, P2P_SMS);
                let ring = bufs.iter().enumerate().map(|(d, buf)| {
                    if d != owner {
                        vec![copy(buf.out, owner, bufs[owner].recv)]
                    } else if gather_back {
                        let peers = (0..n).filter(|&peer| peer != owner);
                        peers.map(|p| copy(buf.out, p, bufs[p].out)).collect()
                    } else {
                        Vec::new()
                    }
                });
                return Ok(ring.collect());
            }
        };
        Ok(scope.ops(spec).map(|op| vec![op]).collect())
    }
}

/// The grid search every tuned baseline runs: the fastest candidate and
/// its latency, the first winning ties, or the first error if no
/// candidate is feasible.
pub(crate) fn fastest<T: Copy>(
    candidates: &[T],
    latency: impl Fn(T) -> Result<SimDuration, FlashOverlapError>,
) -> Result<(T, SimDuration), FlashOverlapError> {
    let mut first_err = None;
    let feasible = candidates.iter().filter_map(|&c| match latency(c) {
        Ok(l) => Some((c, l)),
        Err(e) => {
            first_err.get_or_insert(e);
            None
        }
    });
    match (feasible.min_by_key(|&(_, l)| l), first_err) {
        (Some(best), _) => Ok(best),
        (None, Some(e)) => Err(e),
        (None, None) => incompatible("no candidates to try".into()),
    }
}

/// All-to-All plan for output `rows`: rank `s` sends row `r` (one
/// `N`-wide segment) to `routing[s][r]`. Sends must be contiguous per
/// destination, so each rank packs its rows dest-major, row-ascending
/// (the MoE permute assumed fused into the epilogue, as FlashOverlap
/// gets for free), and receivers lay them out source-major.
///
/// # Errors
///
/// Returns [`FlashOverlapError::BadInputs`] on malformed routing.
fn chunk_a2a_plan(
    dims: GemmDims,
    routing: &[Vec<usize>],
    n: usize,
    rows: Range<u32>,
) -> Result<A2aPlan, FlashOverlapError> {
    let bad = |reason| Err(FlashOverlapError::BadInputs { reason });
    if routing.len() != n {
        return bad(format!("{} routing tables for {n} ranks", routing.len()));
    }
    let valid = |table: &Vec<usize>| table.len() == dims.m as usize && table.iter().all(|&d| d < n);
    if let Some(src) = routing.iter().position(|table| !valid(table)) {
        return bad(format!("bad routing table for rank {src}"));
    }
    let (cols, first) = (dims.n as usize, rows.start as usize * dims.n as usize);
    let mut len = vec![vec![0; n]; n];
    for (src, table) in routing.iter().enumerate() {
        for &dest in &table[rows.start as usize..rows.end as usize] {
            len[src][dest] += cols;
        }
    }
    // Both sides lay their blocks out back to back from the chunk's start.
    let (mut send_off, mut recv_off) = (vec![vec![first; n]; n], vec![vec![first; n]; n]);
    for a in 0..n {
        for b in 1..n {
            send_off[a][b] = send_off[a][b - 1] + len[a][b - 1];
            recv_off[a][b] = recv_off[a][b - 1] + len[b - 1][a];
        }
    }
    Ok(A2aPlan {
        send_off,
        len,
        recv_off,
    })
}
