//! Golden recovery-timeline test: an injected lost signal must
//! demonstrably recover through the watchdog → tail-collective path, with
//! the whole timeline — fault, watchdog firing, tail re-issue — visible
//! in the telemetry record and the exported Perfetto trace. A differential
//! test checks that the run's outcome and the telemetry record hold the
//! same runtime-event timeline, element for element.

use flashoverlap::resilience::{Fault, FaultPlan, ResilientOutcome, WatchdogConfig};
use flashoverlap::runtime::CommPattern;
use flashoverlap::{
    execute_sequence, Instrumentation, OverlapPlan, SequenceOptions, SequenceOutcome, SystemSpec,
    WavePartition,
};
use gpu_sim::gemm::GemmDims;
use gpu_sim::{RuntimeDetail, RuntimeEventKind};
use sim::SimDuration;
use telemetry::json::{self, Value};
use telemetry::perfetto;
use telemetry::Telemetry;

fn small_plan() -> OverlapPlan {
    plan_of(GemmDims::new(256, 256, 64))
}

fn plan_of(dims: GemmDims) -> OverlapPlan {
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
        .any(|e| e.detail.kind() == RuntimeEventKind::TailRecovery && e.group == Some(1)));
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
            .map(|e| {
                (
                    (e.at - sim::SimTime::ZERO).as_nanos(),
                    e.detail.kind(),
                    e.group,
                )
            })
            .collect()
    };
    assert_eq!(timeline(&a), timeline(&b));
    assert_eq!(a.reports[0].latency, b.reports[0].latency);
}

/// Runs `plans` as one resilient chain under `faults` with a telemetry
/// monitor attached, and returns the outcome with the record.
fn traced_chain(
    plans: &[OverlapPlan],
    faults: &[FaultPlan],
) -> (SequenceOutcome, telemetry::TelemetryRecord) {
    let telemetry = Telemetry::new();
    let instr = Instrumentation {
        monitor: Some(telemetry.monitor()),
        probe: None,
        mutation: None,
    };
    let refs: Vec<&OverlapPlan> = plans.iter().collect();
    let outcome = execute_sequence(
        &refs,
        &SequenceOptions::new()
            .instrument(&instr)
            .resilient(faults, &WatchdogConfig::default()),
    )
    .expect("resilient chain terminates");
    (outcome, telemetry.take_record())
}

#[test]
fn outcome_events_are_the_recorded_runtime_events() {
    // The fixed scenarios: the lost signal above, and a chain whose
    // segments delay, drop and stall.
    let chain = [
        plan_of(GemmDims::new(384, 256, 64)),
        plan_of(GemmDims::new(256, 256, 64)),
        plan_of(GemmDims::new(384, 256, 64)),
    ];
    let mixed = [
        FaultPlan::single(Fault::DelayedIncrement {
            rank: 0,
            group: 0,
            count: 2,
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
    ];
    let mut scenarios = vec![
        traced_chain(&[small_plan()], &lost_signal_faults()),
        traced_chain(&chain, &mixed),
    ];
    // Seeded random chains of one to four segments.
    for seed in 0..24u64 {
        let plans: Vec<OverlapPlan> = (0..1 + seed as usize % 4)
            .map(|i| plan_of(GemmDims::new(if i % 2 == 0 { 384 } else { 256 }, 256, 64)))
            .collect();
        let faults: Vec<FaultPlan> = plans
            .iter()
            .enumerate()
            .map(|(i, p)| FaultPlan::random(seed * 8 + i as u64, 2, p.partition.num_groups()))
            .collect();
        scenarios.push(traced_chain(&plans, &faults));
    }

    for (i, (outcome, record)) in scenarios.iter().enumerate() {
        assert_eq!(outcome.events, record.runtime_events, "scenario {i}");
    }
    // The comparison covers every fault the simulator fires itself.
    let fired = |kind: fn(&RuntimeDetail) -> bool| {
        scenarios
            .iter()
            .flat_map(|(outcome, _)| &outcome.events)
            .any(|e| kind(&e.detail))
    };
    assert!(fired(|d| matches!(
        d,
        RuntimeDetail::IncrementDropped { .. }
    )));
    assert!(fired(|d| matches!(
        d,
        RuntimeDetail::IncrementDelayed { .. }
    )));
    assert!(fired(|d| matches!(d, RuntimeDetail::LinkStall { .. })));
}
