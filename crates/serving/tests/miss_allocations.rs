//! Allocation regression test for the plan-cache miss path.
//!
//! A miss tunes, builds and statically verifies a plan. Its allocations
//! should be what the cached plan keeps plus a fixed handful of
//! transients (the verifier's model), whatever the shape. This binary
//! holds one test so that a counting global allocator sees only it, and
//! the count is per thread, so the test harness's own thread adds
//! nothing.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use flashoverlap::runtime::CommPattern;
use flashoverlap::SystemSpec;
use gpu_sim::gemm::GemmDims;
use serving::PlanCache;
use workloads::models;

/// Allocations one warm churn-shape miss may make, the leader's read of
/// the plan's predicted group completions included: 27 on every shape
/// below. Before the single-pass miss path they made 57 to 83, growing
/// with the wave count.
const PINNED_ALLOCATIONS_PER_MISS: u64 = 27;

thread_local! {
    /// Allocations made by this thread. Const-initialized and free of
    /// destructors, so counting never allocates.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
}

/// The system allocator, counting allocations and reallocations.
struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, so
// `Counting` upholds exactly the contract `System` does; counting only
// bumps a thread-local `Cell`, which neither allocates nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller's contract for `alloc`, passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller's contract for `alloc_zeroed`, passed through.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller's contract for `dealloc`, passed through.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: the caller's contract for `realloc`, passed through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations this thread makes while running `f`.
fn allocations_during(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

/// A churn-mix shape: `tokens` padded to the 16-token bucket, TP 4.
fn churn_shape(model: workloads::ModelSpec, tokens: u32) -> GemmDims {
    GemmDims::new(
        tokens.div_ceil(16) * 16,
        model.hidden,
        model.intermediate / 4,
    )
}

#[test]
fn a_warm_churn_miss_allocates_at_most_the_pinned_count() {
    let system = SystemSpec::rtx4090(4);
    let pattern = CommPattern::AllReduce;
    // A churn replica's cache: eight plans, full, so every miss evicts.
    let mut cache = PlanCache::new(8);
    for tokens in [64, 128, 192, 256, 320, 384, 448, 512] {
        let dims = churn_shape(models::LLAMA3_8B, tokens);
        cache.get_or_tune(dims, &pattern, &system).expect("tunes");
    }
    // Single-group and multi-group plans, partial edge tiles, every
    // churn model.
    let misses = [
        churn_shape(models::LLAMA3_8B, 1000),
        churn_shape(models::LLAMA3_8B, 3000),
        churn_shape(models::LLAMA2_70B, 700),
        churn_shape(models::LLAMA2_70B, 2000),
        churn_shape(models::DEEPSEEK_MOE_EXPERT, 90),
        churn_shape(models::DEEPSEEK_MOE_EXPERT, 1000),
    ];
    let mut counts = Vec::new();
    for dims in misses {
        let allocations = allocations_during(|| {
            let (plan, hit) = cache.get_or_tune(dims, &pattern, &system).expect("tunes");
            assert!(!hit, "{dims:?} must miss");
            std::hint::black_box(plan.predicted_group_completions());
        });
        counts.push((dims, allocations));
    }
    assert_eq!(cache.stats().misses, 14);
    for (dims, allocations) in counts {
        assert!(
            allocations <= PINNED_ALLOCATIONS_PER_MISS,
            "a miss on {dims:?} made {allocations} allocations (pinned: {})",
            PINNED_ALLOCATIONS_PER_MISS
        );
    }
}
