//! GEMM shapes taken from real model architectures (§2.3).
//!
//! Tensor parallelism splits the weight matrices of a transformer layer
//! across GPUs; the communicated GEMM is the *second* matmul of each
//! block (attention output projection, MLP down projection), whose K is
//! the per-rank shard. These generators produce the per-GPU local shapes
//! for a given batch-token count and TP degree.

use gpu_sim::gemm::GemmDims;

/// A transformer model's relevant dimensions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ModelSpec {
    /// Model (hidden) dimension.
    pub hidden: u32,
    /// MLP intermediate dimension.
    pub intermediate: u32,
    /// Human-readable name.
    pub name: &'static str,
}

/// Llama-2-70B-like dimensions.
pub const LLAMA2_70B: ModelSpec = ModelSpec {
    hidden: 8192,
    intermediate: 28672,
    name: "llama2-70b",
};

/// Llama-3-8B-like dimensions.
pub const LLAMA3_8B: ModelSpec = ModelSpec {
    hidden: 4096,
    intermediate: 14336,
    name: "llama3-8b",
};

/// DeepSeek-V2-Lite-like MoE expert dimensions (per-expert FFN).
pub const DEEPSEEK_MOE_EXPERT: ModelSpec = ModelSpec {
    hidden: 2048,
    intermediate: 1408,
    name: "deepseek-moe-expert",
};

/// The GEMM+AllReduce shapes of one transformer layer under tensor
/// parallelism: attention output projection and MLP down projection,
/// each with K sharded over `tp` ranks.
///
/// # Panics
///
/// Panics if `tp` does not divide the sharded dimensions.
pub fn tp_layer_shapes(model: ModelSpec, tokens: u32, tp: u32) -> Vec<GemmDims> {
    assert!(
        model.hidden.is_multiple_of(tp) && model.intermediate.is_multiple_of(tp),
        "TP degree {tp} does not shard {}",
        model.name
    );
    vec![
        // Attention output projection: [tokens, hidden/tp] x [hidden/tp, hidden].
        GemmDims::new(tokens, model.hidden, model.hidden / tp),
        // MLP down projection: [tokens, inter/tp] x [inter/tp, hidden].
        GemmDims::new(tokens, model.hidden, model.intermediate / tp),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tp_shards_k_not_output() {
        let shapes = tp_layer_shapes(LLAMA2_70B, 4096, 4);
        assert_eq!(shapes.len(), 2);
        for d in &shapes {
            assert_eq!(d.m, 4096);
            assert_eq!(d.n, 8192, "output dimension stays whole");
        }
        assert_eq!(shapes[0].k, 8192 / 4);
        assert_eq!(shapes[1].k, 28672 / 4);
    }

    #[test]
    fn higher_tp_means_less_local_work() {
        let tp2 = tp_layer_shapes(LLAMA3_8B, 2048, 2);
        let tp4 = tp_layer_shapes(LLAMA3_8B, 2048, 4);
        assert!(tp4[0].flops() < tp2[0].flops());
    }

    #[test]
    #[should_panic(expected = "does not shard")]
    fn bad_tp_degree_panics() {
        let _ = tp_layer_shapes(LLAMA2_70B, 1024, 5);
    }
}
