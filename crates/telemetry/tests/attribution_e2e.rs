//! End-to-end attribution test on real runs: the critical-path walk
//! must tile every executed plan's makespan exactly, and a tuned
//! partition must attribute less critical-path time to signal waits
//! than the naive per-wave (§4.1.1) baseline on the same workload —
//! the paper's argument, stated as an attribution inequality.

use flashoverlap::runtime::CommPattern;
use flashoverlap::{OverlapPlan, SequenceOptions, SystemSpec, WavePartition};
use gpu_sim::gemm::GemmDims;
use telemetry::attribution::{attribute, Attribution, Category};
use telemetry::Telemetry;

fn run_attributed(plan: &OverlapPlan) -> Attribution {
    let telemetry = Telemetry::new();
    let instr = telemetry.instrumentation();
    let out = plan
        .execute_with(&SequenceOptions::new().instrument(&instr).trace())
        .expect("instrumented run");
    let record = telemetry.take_record();
    let a = attribute(&out.spans, &record);
    assert_eq!(
        a.makespan_ns,
        out.reports[0].latency.as_nanos(),
        "attribution makespan must equal the measured latency"
    );
    a
}

#[test]
fn attribution_tiles_real_runs_exactly() {
    let dims = GemmDims::new(1024, 2048, 2048);
    let system = SystemSpec::a800(2);
    let tuned = OverlapPlan::tuned(dims, CommPattern::AllReduce, system).expect("tuned plan");
    let a = run_attributed(&tuned);
    assert!(a.identity_holds(), "identity: {a:?}");
    assert!(a.total_ns(Category::GemmCompute) > 0, "{}", a.summary());
    assert!(
        a.total_ns(Category::CollectiveTransfer) > 0,
        "{}",
        a.summary()
    );
    for w in a.segments.windows(2) {
        assert_eq!(w[0].end_ns, w[1].start_ns, "segments must abut");
    }
    assert_eq!(a.segments.first().map(|s| s.start_ns), Some(0));
    assert_eq!(a.segments.last().map(|s| s.end_ns), Some(a.makespan_ns));
}

#[test]
fn tuned_plan_attributes_less_signal_wait_than_per_wave() {
    let dims = GemmDims::new(2048, 4096, 4096);
    let system = SystemSpec::a800(2);
    let tuned =
        OverlapPlan::tuned(dims, CommPattern::AllReduce, system.clone()).expect("tuned plan");
    let naive = OverlapPlan::new(
        dims,
        CommPattern::AllReduce,
        system,
        WavePartition::per_wave(tuned.partition.total_waves()),
    )
    .expect("per-wave plan");
    assert_ne!(
        tuned.partition.sizes(),
        naive.partition.sizes(),
        "shape must tune away from the per-wave baseline"
    );
    let a_tuned = run_attributed(&tuned);
    let a_naive = run_attributed(&naive);
    assert!(a_tuned.identity_holds());
    assert!(a_naive.identity_holds());
    assert!(
        a_tuned.total_ns(Category::SignalWait) < a_naive.total_ns(Category::SignalWait),
        "tuned signal-wait {} must beat per-wave {} (tuned: {}; naive: {})",
        a_tuned.total_ns(Category::SignalWait),
        a_naive.total_ns(Category::SignalWait),
        a_tuned.summary(),
        a_naive.summary(),
    );
}
