//! Element-wise kernels with optional fused remapping.
//!
//! These model the operators that follow a communicated GEMM output —
//! RMSNorm above all (§6.5). The post-communication reordering of
//! FlashOverlap is fused here as a *gather*: instead of loading row/element
//! `i`, the kernel loads `map[i]`, paying the granularity-dependent
//! bandwidth penalty of [`GpuArch::remap_penalty`] but saving a separate
//! un-permute kernel.
//!
//! [`GpuArch::remap_penalty`]: crate::arch::GpuArch::remap_penalty

use std::rc::Rc;

use tensor::Matrix;

use crate::arch::RemapGranularity;
use crate::cluster::Cluster;
use crate::memory::BufferId;
use crate::stream::{Completion, Event};
use crate::ClusterSim;

/// The element-wise operation to apply.
#[derive(Clone)]
pub enum ElementwiseOp {
    /// Copy input to output (pure layout transform).
    Copy,
    /// Rectified linear unit.
    Relu,
    /// SiLU activation.
    Silu,
    /// Per-column bias addition.
    BiasAdd(Rc<Vec<f32>>),
    /// Row-wise RMS normalization with gain weights.
    RmsNorm {
        /// Per-column gain.
        weight: Rc<Vec<f32>>,
        /// Variance epsilon.
        eps: f32,
    },
}

impl std::fmt::Debug for ElementwiseOp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            ElementwiseOp::Copy => "Copy",
            ElementwiseOp::Relu => "Relu",
            ElementwiseOp::Silu => "Silu",
            ElementwiseOp::BiasAdd(_) => "BiasAdd",
            ElementwiseOp::RmsNorm { .. } => "RmsNorm",
        };
        f.write_str(name)
    }
}

/// The fused gather pattern (post-communication remap).
#[derive(Clone)]
pub enum Gather {
    /// No remapping: input is already in logical row-major order.
    None,
    /// Output row `r` is read from input row `map[r]` (token-level remap).
    Rows(Rc<Vec<u32>>),
    /// Output element `i` is read from input element `map[i]` (tile- and
    /// subtile-level remaps, where a logical row crosses packed tiles).
    Elements(Rc<Vec<u32>>),
}

impl std::fmt::Debug for Gather {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Gather::None => f.write_str("None"),
            Gather::Rows(m) => write!(f, "Rows({})", m.len()),
            Gather::Elements(m) => write!(f, "Elements({})", m.len()),
        }
    }
}

/// An element-wise kernel over a logical `rows x cols` operand, optionally
/// gathering its input through a remap.
#[derive(Debug, Clone)]
pub struct ElementwiseKernel {
    /// Input buffer (at least `rows * cols` elements).
    pub input: BufferId,
    /// Output buffer (`rows * cols` elements).
    pub output: BufferId,
    /// Logical rows.
    pub rows: usize,
    /// Logical columns.
    pub cols: usize,
    /// The operation.
    pub op: ElementwiseOp,
    /// Input gather pattern.
    pub gather: Gather,
    /// Timing model granularity of the fused remap; `None` models the
    /// plain kernel even if a gather is set (used to isolate the overhead
    /// in Table 4 measurements the other way around: set this without a
    /// gather in timing mode).
    pub remap_cost: Option<RemapGranularity>,
}

impl ElementwiseKernel {
    /// Builds the logically-ordered input matrix, applying the gather.
    fn gathered_input(&self, data: &[f32]) -> Matrix {
        match &self.gather {
            Gather::None => {
                Matrix::from_vec(self.rows, self.cols, data[..self.rows * self.cols].to_vec())
            }
            Gather::Rows(map) => {
                assert_eq!(map.len(), self.rows, "row gather map length mismatch");
                Matrix::from_fn(self.rows, self.cols, |r, c| {
                    data[map[r] as usize * self.cols + c]
                })
            }
            Gather::Elements(map) => {
                assert_eq!(
                    map.len(),
                    self.rows * self.cols,
                    "element gather map length mismatch"
                );
                Matrix::from_fn(self.rows, self.cols, |r, c| {
                    data[map[r * self.cols + c] as usize]
                })
            }
        }
    }

    fn apply(&self, input: &Matrix) -> Matrix {
        match &self.op {
            ElementwiseOp::Copy => input.clone(),
            ElementwiseOp::Relu => tensor::relu(input),
            ElementwiseOp::Silu => tensor::silu(input),
            ElementwiseOp::BiasAdd(bias) => tensor::bias_add(input, bias),
            ElementwiseOp::RmsNorm { weight, eps } => tensor::rmsnorm(input, weight, *eps),
        }
    }
}

impl ElementwiseKernel {
    /// The input element spans this kernel reads, per its gather pattern.
    fn read_spans(&self) -> Vec<std::ops::Range<usize>> {
        match &self.gather {
            Gather::None => std::iter::once(0..self.rows * self.cols).collect(),
            Gather::Rows(map) => map
                .iter()
                .map(|&r| r as usize * self.cols..(r as usize + 1) * self.cols)
                .collect(),
            Gather::Elements(map) => {
                // Element maps are dense permutations; one covering span
                // keeps the record count bounded.
                let lo = map.iter().copied().min().unwrap_or(0) as usize;
                let hi = map.iter().copied().max().map_or(0, |m| m as usize + 1);
                std::iter::once(lo..hi).collect()
            }
        }
    }
}

/// Starts `kernel`: its reads and writes are reported at launch and
/// land when the bandwidth-bound duration has passed.
pub(crate) fn launch(
    kernel: ElementwiseKernel,
    completion: Completion,
    world: &mut Cluster,
    sim: &mut ClusterSim,
) {
    let (device, stream) = (completion.device(), completion.stream());
    if let Some(monitor) = world.monitor.as_deref().filter(|m| m.observes_accesses()) {
        use crate::monitor::{Access, AccessKind, AccessScope};
        for range in kernel.read_spans() {
            monitor.on_access(&Access {
                device,
                stream,
                buffer: kernel.input,
                range,
                kind: AccessKind::Read,
                scope: AccessScope::RemapRead,
                tile: None,
            });
        }
        monitor.on_access(&Access {
            device,
            stream,
            buffer: kernel.output,
            range: 0..kernel.rows * kernel.cols,
            kind: AccessKind::Write,
            scope: AccessScope::ElementwiseWrite,
            tile: None,
        });
    }
    // Read + write one fp16 element each per position.
    let bytes_moved = (kernel.rows * kernel.cols) as u64 * 2 * 2;
    let duration = world.devices[device]
        .arch
        .elementwise_time(bytes_moved, kernel.remap_cost);
    let slot = world.elementwise.insert((kernel, completion));
    sim.schedule_in(duration, Event::ElementwiseDone(slot));
}

/// Lands the element-wise kernel in slab slot `slot`.
pub(crate) fn finish(slot: usize, world: &mut Cluster, sim: &mut ClusterSim) {
    let (kernel, completion) = world.elementwise.take(slot);
    if world.functional {
        let out = {
            let mem = &world.devices[completion.device()].mem;
            let input = kernel.gathered_input(mem.data(kernel.input));
            kernel.apply(&input)
        };
        let mem = &mut world.devices[completion.device()].mem;
        let dst = mem.data_mut(kernel.output);
        dst[..out.len()].copy_from_slice(out.as_slice());
    }
    completion.finish(world, sim);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arch::GpuArch;
    use crate::stream::{enqueue, Op};
    use sim::{DetRng, Sim};
    use tensor::{allclose, rmsnorm};

    fn run_kernel(kernel: ElementwiseKernel, init: &[f32], out_len: usize) -> (Vec<f32>, u64) {
        let mut world = Cluster::new(1, GpuArch::a800(), true, 1);
        let mut sim: ClusterSim = Sim::new();
        let dev = &mut world.devices[0];
        let input = dev.mem.alloc_init(init);
        let output = dev.mem.alloc(out_len);
        let stream = dev.create_stream();
        let kernel = ElementwiseKernel {
            input,
            output,
            ..kernel
        };
        enqueue(&mut world, &mut sim, 0, stream, Op::Elementwise(kernel));
        let end = sim.run(&mut world).unwrap();
        (world.devices[0].mem.snapshot(output), end.as_nanos())
    }

    fn base_kernel(rows: usize, cols: usize) -> ElementwiseKernel {
        ElementwiseKernel {
            input: 0,
            output: 0,
            rows,
            cols,
            op: ElementwiseOp::Copy,
            gather: Gather::None,
            remap_cost: None,
        }
    }

    #[test]
    fn copy_without_gather_is_identity() {
        let data: Vec<f32> = (0..12).map(|i| i as f32).collect();
        let (out, _) = run_kernel(base_kernel(3, 4), &data, 12);
        assert_eq!(out, data);
    }

    #[test]
    fn rmsnorm_matches_oracle() {
        let mut rng = DetRng::new(2);
        let m = Matrix::random(4, 8, &mut rng);
        let weight: Vec<f32> = (0..8).map(|i| 1.0 + i as f32 * 0.1).collect();
        let kernel = ElementwiseKernel {
            op: ElementwiseOp::RmsNorm {
                weight: Rc::new(weight.clone()),
                eps: 1e-6,
            },
            ..base_kernel(4, 8)
        };
        let (out, _) = run_kernel(kernel, m.as_slice(), 32);
        let expected = rmsnorm(&m, &weight, 1e-6);
        assert!(allclose(&Matrix::from_vec(4, 8, out), &expected, 1e-5));
    }

    #[test]
    fn row_gather_permutes_rows() {
        let data: Vec<f32> = (0..6).map(|i| i as f32).collect();
        let kernel = ElementwiseKernel {
            gather: Gather::Rows(Rc::new(vec![2, 0, 1])),
            ..base_kernel(3, 2)
        };
        let (out, _) = run_kernel(kernel, &data, 6);
        assert_eq!(out, vec![4.0, 5.0, 0.0, 1.0, 2.0, 3.0]);
    }

    #[test]
    fn element_gather_reverses() {
        let data: Vec<f32> = (0..4).map(|i| i as f32).collect();
        let kernel = ElementwiseKernel {
            gather: Gather::Elements(Rc::new(vec![3, 2, 1, 0])),
            ..base_kernel(2, 2)
        };
        let (out, _) = run_kernel(kernel, &data, 4);
        assert_eq!(out, vec![3.0, 2.0, 1.0, 0.0]);
    }

    #[test]
    fn remap_cost_increases_duration_within_table4_band() {
        // Large shape in timing mode: the fused remap must cost a few
        // percent extra, inside the 3%-13% band of Table 4.
        let rows = 4096;
        let cols = 8192;
        let mut world = Cluster::new(1, GpuArch::a800(), false, 1);
        let mut sim: ClusterSim = Sim::new();
        let dev = &mut world.devices[0];
        let input = dev.mem.alloc(rows * cols);
        let output = dev.mem.alloc(rows * cols);
        let stream = dev.create_stream();
        let plain = ElementwiseKernel {
            input,
            output,
            rows,
            cols,
            op: ElementwiseOp::Copy,
            gather: Gather::None,
            remap_cost: None,
        };
        let mut remapped = plain.clone();
        remapped.remap_cost = Some(RemapGranularity::Token);
        enqueue(&mut world, &mut sim, 0, stream, Op::Elementwise(plain));
        let t_plain = sim.run(&mut world).unwrap().as_nanos();
        enqueue(&mut world, &mut sim, 0, stream, Op::Elementwise(remapped));
        let t_remapped = sim.run(&mut world).unwrap().as_nanos() - t_plain;
        let overhead = t_remapped as f64 / t_plain as f64 - 1.0;
        assert!(
            (0.01..0.20).contains(&overhead),
            "remap overhead {overhead} outside Table 4 band"
        );
    }

    #[test]
    fn bias_and_activations_apply() {
        let data = vec![-1.0, 2.0];
        let kernel = ElementwiseKernel {
            op: ElementwiseOp::Relu,
            ..base_kernel(1, 2)
        };
        let (out, _) = run_kernel(kernel, &data, 2);
        assert_eq!(out, vec![0.0, 2.0]);

        let kernel = ElementwiseKernel {
            op: ElementwiseOp::BiasAdd(Rc::new(vec![10.0, 20.0])),
            ..base_kernel(1, 2)
        };
        let (out, _) = run_kernel(kernel, &data, 2);
        assert_eq!(out, vec![9.0, 22.0]);
    }
}
