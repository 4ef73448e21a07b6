//! Allocation regression test for a warm chain's analysis.
//!
//! A serve replica analyses every chain it simulates through one reused
//! `ChainIndex`: rebuild the index over the chain's record and spans,
//! fold the signal-latency samples, attribute the critical path. Once
//! the index's buffers have grown, the only allocation left is the
//! segment list the returned `Attribution` keeps. This binary holds one
//! test so that a counting global allocator sees only it, and the count
//! is per thread, so the test harness's own thread adds nothing.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use flashoverlap::runtime::CommPattern;
use flashoverlap::{
    execute_sequence_in, ChainWorld, Instrumentation, OverlapPlan, SequenceOptions, SystemSpec,
    WavePartition,
};
use gpu_sim::gemm::GemmDims;
use gpu_sim::OpSpan;
use telemetry::{ChainIndex, Telemetry, TelemetryRecord};

/// Allocations one warm analysis of either chain below may make: the
/// returned attribution's segment list, 1. Before the chain index, the
/// same analyses (`signal_summary` and `attribute_makespan`, sorting and
/// collecting into fresh vectors) made 6 (4 segments) and 7 (8
/// segments).
const PINNED_ALLOCATIONS_PER_ANALYSIS: u64 = 1;

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

/// A per-wave AllReduce plan on a miniature 2-rank system: several
/// waves, one signal group each.
fn plan(m: u32) -> OverlapPlan {
    let dims = GemmDims::new(m, 256, 64);
    let mut system = SystemSpec::rtx4090(2);
    system.arch.sm_count = 8;
    system.comm_sms = 2;
    let waves = system.planned_waves(dims);
    OverlapPlan::new(
        dims,
        CommPattern::AllReduce,
        system,
        WavePartition::per_wave(waves),
    )
    .expect("valid plan")
}

/// One pipelined chain of `plans`, recorded the way serve records it:
/// monitor-only telemetry, spans traced.
fn record_chain(plans: &[OverlapPlan]) -> (TelemetryRecord, Vec<OpSpan>, u64) {
    let plan_refs: Vec<&OverlapPlan> = plans.iter().collect();
    let telemetry = Telemetry::new();
    let instr = Instrumentation {
        monitor: Some(telemetry.monitor()),
        probe: None,
        mutation: None,
    };
    let options = SequenceOptions::new().trace().instrument(&instr);
    let outcome = execute_sequence_in(&mut ChainWorld::new(), &plan_refs, &options).expect("chain");
    (
        telemetry.take_record(),
        outcome.spans,
        outcome.total.as_nanos(),
    )
}

#[test]
fn a_warm_chain_analysis_allocates_only_the_attribution() {
    let four = record_chain(&[plan(384), plan(256), plan(384), plan(256)]);
    let eight = record_chain(&[
        plan(384),
        plan(256),
        plan(384),
        plan(256),
        plan(128),
        plan(384),
        plan(256),
        plan(384),
    ]);
    let mut index = ChainIndex::new();
    // Serve's shape: rebuild, fold the signal samples, attribute.
    let mut analyse = |(record, spans, total_ns): &(TelemetryRecord, Vec<OpSpan>, u64)| {
        index.rebuild(record, spans);
        let signal = index.signal_sum();
        let attribution = index.attribute(*total_ns);
        (signal, attribution)
    };
    for _ in 0..3 {
        analyse(&four);
        analyse(&eight);
    }
    for chain in [&four, &eight] {
        let mut seen = None;
        let allocations = allocations_during(|| seen = Some(analyse(chain)));
        let ((_, samples), attribution) = seen.expect("analysed");
        assert!(samples > 0, "the chain signals");
        assert!(attribution.identity_holds() && !attribution.segments.is_empty());
        assert_eq!(
            allocations,
            PINNED_ALLOCATIONS_PER_ANALYSIS,
            "a warm analysis of {} spans made {allocations} allocations",
            chain.1.len()
        );
    }
    assert!(eight.1.len() > four.1.len());
}
