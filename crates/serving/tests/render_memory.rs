//! Memory regression test for rendering a serve report.
//!
//! A report writes itself straight into the JSON writer: rendering it
//! to a `String` should hold the text and little else, and streaming it
//! into a sink should hold almost nothing. A tree-building renderer
//! needs several times the text. This binary holds one test so that a
//! counting global allocator sees only it, and the counts are per
//! thread, so the test harness's own thread adds nothing.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use flashoverlap::SystemSpec;
use serving::{serve, ArrivalProcess, RouterPolicy, ServeConfig};

/// Slack above the text a render may peak at, and all a streamed write
/// may peak at.
const SLACK_BYTES: usize = 64 << 10;

thread_local! {
    /// Bytes this thread holds live. Const-initialized and free of
    /// destructors, so counting never allocates.
    static LIVE: Cell<usize> = const { Cell::new(0) };
    /// The most `LIVE` has been since the last [`peak_above_now`] reset.
    static PEAK: Cell<usize> = const { Cell::new(0) };
}

fn grow(bytes: usize) {
    let _ = LIVE.try_with(|live| {
        let now = live.get().wrapping_add(bytes);
        live.set(now);
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(now)));
    });
}

fn shrink(bytes: usize) {
    let _ = LIVE.try_with(|live| live.set(live.get().wrapping_sub(bytes)));
}

/// The system allocator, counting live and peak bytes per thread.
struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, so
// `Counting` upholds exactly the contract `System` does; counting only
// updates thread-local `Cell`s, which neither allocates nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grow(layout.size());
        // SAFETY: the caller's contract for `alloc`, passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        grow(layout.size());
        // SAFETY: the caller's contract for `alloc_zeroed`, passed through.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        shrink(layout.size());
        // SAFETY: the caller's contract for `dealloc`, passed through.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // Counted as the new block arriving before the old one leaves,
        // as a moving reallocation holds both.
        grow(new_size);
        shrink(layout.size());
        // SAFETY: the caller's contract for `realloc`, passed through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Runs `f` and returns its result with the most bytes this thread held
/// during it above what it held before.
fn peak_above_now<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = LIVE.with(Cell::get);
    PEAK.with(|peak| peak.set(before));
    let out = f();
    (out, PEAK.with(Cell::get) - before)
}

#[test]
fn a_report_renders_in_its_text_and_streams_in_constant_memory() {
    let mut config = ServeConfig::new(SystemSpec::rtx4090(2));
    config.process = ArrivalProcess::Poisson { rate_rps: 2400.0 };
    config.requests = 600;
    config.replicas = 4;
    config.router = RouterPolicy::LeastLoaded;
    config.seed = 3;
    let report = serve(&config).expect("serves");
    assert!(report.batches > 1 && report.completed > 0, "{report:?}");

    let (text, rendered) = peak_above_now(|| report.to_json().to_json_pretty());
    assert!(
        text.len() > 4 * SLACK_BYTES,
        "the report ({} B) must dwarf the slack",
        text.len()
    );
    assert!(
        rendered <= text.len() + SLACK_BYTES,
        "rendering {} B of text peaked {rendered} B above the live heap",
        text.len()
    );

    let (written, streamed) = peak_above_now(|| report.to_json().write_pretty(std::io::sink()));
    written.expect("a sink takes every byte");
    assert!(
        streamed <= SLACK_BYTES,
        "streaming {} B of text peaked {streamed} B above the live heap",
        text.len()
    );
}
