//! The one chunked program every simulated baseline runs.
//!
//! The output's rows split into `chunks` equal chunks. Each chunk's GEMM
//! runs on a compute stream and records an event; the paired
//! communication stream waits on it and then moves the chunk. A baseline
//! fixes the chunk count, whether chunks share one stream pair per rank
//! or each gets its own (micro-batch), and what a chunk communicates.
//! It runs through the chain executor's [`ChainWorld::run`], on the
//! overlap plan's [`SystemSpec::communicator`] and launch-skew draw.

use std::ops::Range;
use std::rc::Rc;

use collectives::{p2p_copy, A2aPlan, CollectiveSpec, CommScope, Region};
use flashoverlap::runtime::{CommPattern, Instrumentation};
use flashoverlap::{ChainWorld, FlashOverlapError, SystemSpec};
use gpu_sim::gemm::{AddressOrderWriter, GemmConfig, GemmDims, GemmKernel};
use gpu_sim::stream::{enqueue, Op};
use gpu_sim::{BufferId, Cluster, ClusterSim, OpSpan, Wedge};
use sim::{SimDuration, SimTime};

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
    /// chunk dividing across the ranks, and peer-to-peer access between
    /// every pair for the ring. Each failure is
    /// [`FlashOverlapError::IncompatibleShape`].
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
            ChunkComm::PeerRing { .. } if !system.peer_to_peer() => incompatible(
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
    /// micro-batch dataflows, which the micro-batch baseline implements
    /// for AllReduce and ReduceScatter only.
    pub(crate) fn own_streams(mut self) -> Result<Self, FlashOverlapError> {
        self.own_streams = true;
        match self.comm {
            ChunkComm::Collective(CommPattern::AllReduce | CommPattern::ReduceScatter) => Ok(self),
            _ => incompatible("micro-batch baseline implements AllReduce and ReduceScatter".into()),
        }
    }

    /// [`Chunked::run`] with no hooks attached and no spans recorded,
    /// keeping the latency.
    pub(crate) fn latency(&self, world: &mut ChainWorld) -> Result<SimDuration, FlashOverlapError> {
        self.run(world, &Instrumentation::default(), false)
            .map(|(latency, _)| latency)
    }

    /// Runs the program in `world` with `instr`'s hooks attached and
    /// returns its latency and, with `trace`, its per-stream operation
    /// spans.
    ///
    /// # Errors
    ///
    /// Returns [`FlashOverlapError::BadInputs`] on malformed All-to-All
    /// routing, [`FlashOverlapError::Deadlock`] if a stream never drains
    /// (hooks attached or not), and propagates simulation failures.
    pub(crate) fn run(
        &self,
        world: &mut ChainWorld,
        instr: &Instrumentation,
        trace: bool,
    ) -> Result<(SimDuration, Vec<OpSpan>), FlashOverlapError> {
        world.run(self.system, false, trace, instr, |cluster, sim| {
            self.enqueue(cluster, sim)?;
            let end = sim.run(cluster)?;
            let deadlock = |Wedge { streams, waits }| {
                let chain = Vec::new();
                FlashOverlapError::Deadlock {
                    streams,
                    waits,
                    chain,
                }
            };
            cluster.check_quiescent().map_err(deadlock)?;
            Ok(end - SimTime::ZERO)
        })
    }

    /// Enqueues the whole program on `world`'s devices.
    fn enqueue(&self, world: &mut Cluster, sim: &mut ClusterSim) -> Result<(), FlashOverlapError> {
        let (dims, system, n) = (self.dims, self.system, self.system.n_gpus);
        let scope = system.communicator()?.open(world);
        // Host-process launch skew: each rank starts every stream it
        // launches on a random delay late (its host thread submits all).
        let skew: Vec<Option<SimDuration>> = (world.devices.iter_mut())
            .map(|dev| system.launch_skew(dev))
            .collect();

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
                let pairs = world.devices.iter_mut();
                streams.extend(pairs.map(|dev| [dev.create_stream(), dev.create_stream()]));
                for (d, (pair, &delay)) in streams.iter().zip(&skew).enumerate() {
                    let Some(delay) = delay else { continue };
                    for &stream in pair {
                        enqueue(world, sim, d, stream, Op::Delay(delay));
                    }
                }
            }
            let events: Vec<usize> = world.devices.iter_mut().map(|d| d.create_event()).collect();
            let ranks = bufs.iter().zip(&streams).zip(&events);
            for (d, ((buf, &[compute, _]), &event)) in ranks.enumerate() {
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
                enqueue(world, sim, d, compute, Op::Gemm(kernel));
                enqueue(world, sim, d, compute, Op::RecordEvent(event));
            }
            let chunk_ops = self.chunk_ops(c, &bufs, &scope)?;
            let ranks = chunk_ops.into_iter().zip(&streams).zip(&events);
            for (d, ((ops, &[_, comm]), &event)) in ranks.enumerate() {
                enqueue(world, sim, d, comm, Op::WaitEvent(event));
                for op in ops {
                    enqueue(world, sim, d, comm, op);
                }
            }
        }
        Ok(())
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
                let Some(owner_recv) = bufs.get(owner).map(|b| b.recv) else {
                    return Ok(Vec::new());
                };
                let topology = &self.system.topology;
                let copy = |(from, src): (usize, BufferId), to, dst| {
                    let link = topology.link(from, to);
                    p2p_copy(link, (src, off), (to, dst, off), len, P2P_SMS)
                };
                let ring = bufs.iter().enumerate().map(|(d, buf)| {
                    if d != owner {
                        vec![copy((d, buf.out), owner, owner_recv)]
                    } else if gather_back {
                        let peers = bufs.iter().enumerate().filter(|&(p, _)| p != owner);
                        peers
                            .map(|(p, peer)| copy((d, buf.out), p, peer.out))
                            .collect()
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

/// The grid search every tuned baseline runs: each candidate's program
/// runs in one shared world, and the fastest candidate wins with its
/// latency — the first winning ties — or the first error if no
/// candidate is feasible.
pub(crate) fn fastest<'a, T: Copy>(
    candidates: &[T],
    program: impl Fn(T) -> Result<Chunked<'a>, FlashOverlapError>,
) -> Result<(T, SimDuration), FlashOverlapError> {
    let mut world = ChainWorld::new();
    let mut first_err = None;
    let mut latency = |c| program(c).and_then(|p| p.latency(&mut world));
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
    let rows = rows.start as usize..rows.end as usize;
    let mut len = vec![vec![0; n]; n];
    for (row, table) in len.iter_mut().zip(routing) {
        for &dest in table.get(rows.clone()).unwrap_or_default() {
            if let Some(l) = row.get_mut(dest) {
                *l += cols;
            }
        }
    }
    // Both sides lay their blocks out back to back from the chunk's start:
    // a source by destination, a destination by source.
    let starts = |sizes: &[usize]| -> Vec<usize> {
        let mut next = first;
        let start = |&size| {
            let start = next;
            next += size;
            start
        };
        sizes.iter().map(start).collect()
    };
    let received: Vec<Vec<usize>> = (0..n)
        .map(|d| {
            len.iter()
                .map(|row| row.get(d).copied().unwrap_or(0))
                .collect()
        })
        .collect();
    Ok(A2aPlan {
        send_off: len.iter().map(|row| starts(row)).collect(),
        recv_off: received.iter().map(|row| starts(row)).collect(),
        len,
    })
}
