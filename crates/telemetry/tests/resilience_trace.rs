//! Golden recovery-timeline test: an injected lost signal must
//! demonstrably recover through the watchdog → tail-collective path, with
//! the whole timeline — fault, watchdog firing, tail re-issue — visible
//! in the telemetry record and the exported Perfetto trace.

use flashoverlap::resilience::{Fault, FaultPlan, ResilientOutcome, WatchdogConfig};
use flashoverlap::runtime::CommPattern;
use flashoverlap::{
    Instrumentation, OverlapPlan, SequenceOptions, SequenceOutcome, SystemSpec, WavePartition,
};
use gpu_sim::gemm::{GemmConfig, GemmDims};
use gpu_sim::RuntimeEventKind;
use telemetry::json::{self, Value};
use telemetry::perfetto;
use telemetry::Telemetry;

fn small_plan() -> OverlapPlan {
    let dims = GemmDims::new(256, 256, 64);
    let mut system = SystemSpec::rtx4090(2);
    system.arch.sm_count = 8;
    system.comm_sms = 2;
    let config = GemmConfig::choose(dims, &system.arch);
    let waves = config.grid(dims).num_tiles().div_ceil(system.compute_sms());
    OverlapPlan::new(
        dims,
        CommPattern::AllReduce,
        system,
        WavePartition::per_wave(waves),
    )
    .expect("valid plan")
}

/// The one-segment fault plans of a run that loses one group-1 signal.
fn lost_signal_faults() -> [FaultPlan; 1] {
    [FaultPlan::single(Fault::DroppedIncrement {
        rank: 0,
        group: 1,
        count: 1,
    })]
}

#[test]
fn dropped_increment_recovery_is_visible_in_the_trace() {
    let plan = small_plan();
    let telemetry = Telemetry::new();
    let instr = Instrumentation {
        monitor: Some(telemetry.monitor()),
        probe: None,
        mutation: None,
    };
    let report = plan
        .execute_with(
            &SequenceOptions::new()
                .instrument(&instr)
                .trace()
                .resilient(&lost_signal_faults(), &WatchdogConfig::default()),
        )
        .expect("resilient run");
    let spans = &report.spans;

    // The run recovered through the tail path, and says so.
    match &report.outcomes[0] {
        ResilientOutcome::Recovered { tail_groups, .. } => {
            assert!(tail_groups.contains(&1), "{tail_groups:?}");
        }
        other => panic!("expected tail recovery, got {other:?}"),
    }
    assert!(!report.events_of(RuntimeEventKind::FaultInjected).is_empty());
    assert!(!report.events_of(RuntimeEventKind::WatchdogFired).is_empty());
    assert!(!report.events_of(RuntimeEventKind::TailRecovery).is_empty());

    // The recovery collectives appear as their own span kind, after the
    // wedge was broken.
    let tails: Vec<_> = spans
        .iter()
        .filter(|s| s.name == "tail-collective")
        .collect();
    assert!(!tails.is_empty(), "no tail-collective spans recorded");
    let fired_at = report
        .events_of(RuntimeEventKind::WatchdogFired)
        .first()
        .map(|e| e.at)
        .expect("watchdog fired");
    assert!(
        tails.iter().all(|s| s.start >= fired_at),
        "tail collectives must follow the watchdog"
    );

    // The telemetry record carries the same timeline, and the Perfetto
    // export places instant markers plus the tail-collective slice.
    let record = telemetry.take_record();
    assert!(record
        .runtime_events
        .iter()
        .any(|e| e.kind == RuntimeEventKind::TailRecovery && e.group == Some(1)));
    let doc = json::parse(&perfetto::trace_string(spans, Some(&record))).expect("valid JSON");
    let events = doc
        .get("traceEvents")
        .and_then(Value::as_arr)
        .expect("traceEvents array");
    let instants: Vec<&str> = events
        .iter()
        .filter(|e| e.get("ph").and_then(Value::as_str) == Some("i"))
        .filter_map(|e| e.get("name").and_then(Value::as_str))
        .collect();
    assert!(instants.contains(&"fault-injected"), "{instants:?}");
    assert!(instants.contains(&"watchdog-fired"), "{instants:?}");
    assert!(instants.contains(&"tail-recovery"), "{instants:?}");
    assert!(events.iter().any(|e| {
        e.get("ph").and_then(Value::as_str) == Some("X")
            && e.get("name").and_then(Value::as_str) == Some("tail-collective")
    }));
}

#[test]
fn recovery_timeline_is_deterministic() {
    let plan = small_plan();
    let watchdog = WatchdogConfig::default();
    let run = || {
        plan.execute_with(&SequenceOptions::new().resilient(&lost_signal_faults(), &watchdog))
            .expect("resilient run")
    };
    let (a, b) = (run(), run());
    assert_eq!(a.outcomes, b.outcomes);
    let timeline = |r: &SequenceOutcome| -> Vec<(u64, RuntimeEventKind, Option<usize>)> {
        r.events
            .iter()
            .map(|e| ((e.at - sim::SimTime::ZERO).as_nanos(), e.kind, e.group))
            .collect()
    };
    assert_eq!(timeline(&a), timeline(&b));
    assert_eq!(a.reports[0].latency, b.reports[0].latency);
}
