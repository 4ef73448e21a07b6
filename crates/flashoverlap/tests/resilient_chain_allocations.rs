//! Allocation regression test for the resilient chain path.
//!
//! A resilient chain arms faults, runs under the watchdog, breaks wedges
//! and reports per-segment outcomes. None of that should format text:
//! fault, watchdog and wedge records are structured data that render only
//! when read. This binary holds one test so that a counting global
//! allocator sees only it, and the count is per thread, so the test
//! harness's own thread adds nothing.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

mod common;

use common::{mini_system, per_wave_plan};
use flashoverlap::resilience::{Fault, FaultPlan, WatchdogConfig};
use flashoverlap::{
    execute_sequence_in, ChainWorld, Instrumentation, OverlapPlan, SequenceOptions,
};
use gpu_sim::gemm::GemmDims;
use gpu_sim::RuntimeEventKind;
use sim::SimDuration;
use telemetry::{Telemetry, TelemetryRecord};

/// Allocations one warm run of the chain below may make, telemetry
/// included: 127. While fault, watchdog and wedge records were formatted
/// as they happened, the same run made 237.
const PINNED_ALLOCATIONS_PER_CHAIN: u64 = 127;

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
    per_wave_plan(&mini_system(2, 2), GemmDims::new(m, 256, 64))
}

#[test]
fn a_warm_resilient_chain_allocates_at_most_the_pinned_count() {
    let plans = [plan(384), plan(256), plan(384), plan(256)];
    let plan_refs: Vec<&OverlapPlan> = plans.iter().collect();
    // Segment 0 arms a delayed-signal budget it never uses up, so
    // segment 2 quarantines it on the inherited table; segment 1 loses
    // one group-1 signal and recovers through a tail re-issue, which
    // re-enqueues segment 2's communication behind it; segment 3 starves
    // group 0 and degrades to bulk collectives.
    let faults = [
        FaultPlan::single(Fault::DelayedIncrement {
            rank: 0,
            group: 0,
            count: 1000,
            delay: SimDuration::from_micros(20),
        }),
        FaultPlan::single(Fault::DroppedIncrement {
            rank: 1,
            group: 1,
            count: 1,
        }),
        FaultPlan::single(Fault::LinkStall {
            stall: SimDuration::from_micros(50),
            count: 2,
        }),
        FaultPlan::single(Fault::DroppedIncrement {
            rank: 0,
            group: 0,
            count: u32::MAX,
        }),
    ];
    let watchdog = WatchdogConfig::default();
    let mut world = ChainWorld::new();
    let mut scratch = TelemetryRecord::default();
    // Serve's shape: a recycled telemetry record on a monitor-only
    // instrumentation, spans traced and handed back.
    let mut run = || {
        let telemetry = Telemetry::recycling(std::mem::take(&mut scratch));
        let instr = Instrumentation {
            monitor: Some(telemetry.monitor()),
            probe: None,
            mutation: None,
        };
        let options = SequenceOptions::new()
            .trace()
            .instrument(&instr)
            .resilient(&faults, &watchdog);
        let outcome = execute_sequence_in(&mut world, &plan_refs, &options).expect("chain");
        drop(instr);
        scratch = telemetry.take_record();
        let labels: Vec<&str> = outcome.outcomes.iter().map(|o| o.label()).collect();
        let events = outcome.events.len();
        let quarantined = !outcome
            .events_of(RuntimeEventKind::FaultQuarantined)
            .is_empty();
        world.recycle_spans(outcome.spans);
        (labels, events, quarantined, scratch.runtime_events.len())
    };
    for _ in 0..3 {
        run();
    }
    let mut seen = None;
    let allocations = allocations_during(|| seen = Some(run()));
    let (labels, events, quarantined, recorded) = seen.expect("ran");
    assert_eq!(labels, ["clean", "recovered", "recovered", "degraded"]);
    assert!(
        quarantined,
        "segment 2 quarantines segment 0's leftover budget"
    );
    assert!(events > 0 && recorded == events, "{events} {recorded}");
    assert!(
        allocations <= PINNED_ALLOCATIONS_PER_CHAIN,
        "a warm resilient chain made {allocations} allocations (pinned: {})",
        PINNED_ALLOCATIONS_PER_CHAIN
    );
}
