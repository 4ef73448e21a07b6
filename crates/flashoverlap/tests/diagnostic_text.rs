//! Golden text of the resilience diagnostics.
//!
//! Fault, watchdog and wedge records are structured data; their text is
//! written only when something formats them (traces, the `chaos` report,
//! error messages). These are the exact sentences earlier builds wrote
//! eagerly, taken from their output, so the text cannot drift.

use std::sync::Arc;

use flashoverlap::resilience::{DegradeCause, Fault, ResilientOutcome};
use flashoverlap::{ChainPosition, FlashOverlapError};
use gpu_sim::{Diagnosis, RuntimeDetail, RuntimeEvent, StuckWait, WedgedStream};
use sim::SimDuration;

/// A starved group-0 wait on rank 0's table 0, as a one-segment chain
/// reports it.
fn starved_group_0() -> FlashOverlapError {
    let wait = StuckWait {
        device: 0,
        stream: 1,
        table: 0,
        group: 0,
        count: 0,
        threshold: 6,
    };
    FlashOverlapError::Deadlock {
        streams: vec![
            WedgedStream {
                device: 0,
                stream: 1,
                in_flight: true,
                queued: 6,
                op: "wait_counter",
                wait: Some(wait),
            },
            WedgedStream {
                device: 1,
                stream: 1,
                in_flight: true,
                queued: 3,
                op: "collective",
                wait: None,
            },
        ],
        waits: vec![wait],
        chain: vec![ChainPosition {
            segment: 0,
            parity: 0,
            table: 0,
        }],
    }
}

const STARVED_GROUP_0: &str = "deadlock: streams never drained — \
    device 0 stream 1: 1 in flight, 6 queued (wait_counter) — rank 0 stream 1 blocked on \
    counter table 0 group 0: count 0 < threshold 6; \
    device 1 stream 1: 1 in flight, 3 queued (collective); \
    rank 0 stream 1 blocked on counter table 0 group 0: count 0 < threshold 6; \
    chain segment 0 (parity 0, inherited table 0)";

#[test]
fn deadlock_text() {
    assert_eq!(starved_group_0().to_string(), STARVED_GROUP_0);
    let idle = FlashOverlapError::Deadlock {
        streams: vec![WedgedStream {
            device: 0,
            stream: 0,
            in_flight: false,
            queued: 1,
            op: "queued work",
            wait: None,
        }],
        waits: Vec::new(),
        chain: Vec::new(),
    };
    assert_eq!(
        idle.to_string(),
        "deadlock: streams never drained — device 0 stream 0: 0 in flight, 1 queued (queued work)"
    );
}

#[test]
fn runtime_detail_text() {
    let us = SimDuration::from_micros;
    let armed = |fault| RuntimeDetail::FaultArmed { segment: 0, fault };
    let cases = [
        (
            armed(Fault::DroppedIncrement {
                rank: 0,
                group: 0,
                count: 1,
            }),
            "segment 0: armed: drop 1 increments of group 0 on rank 0",
        ),
        (
            armed(Fault::DelayedIncrement {
                rank: 1,
                group: 0,
                count: 1,
                delay: us(180),
            }),
            "segment 0: armed: delay 1 increments of group 0 on rank 1 by 180.000us",
        ),
        (
            armed(Fault::LinkDegradation { slowdown: 1.5 }),
            "segment 0: armed: degrade links: 1.50x slower collectives",
        ),
        (
            armed(Fault::InterLinkDegradation { slowdown: 2.25 }),
            "segment 0: armed: degrade inter-node links: 2.25x slower node-spanning collectives",
        ),
        (
            armed(Fault::LinkStall {
                stall: us(166),
                count: 1,
            }),
            "segment 0: armed: stall next 1 collective calls by 166.000us",
        ),
        (
            armed(Fault::StragglerSms { rank: 0, sms: 1 }),
            "segment 0: armed: rank 0 loses 1 SMs for the whole run",
        ),
        (
            armed(Fault::SlowRank {
                rank: 0,
                delay: us(11),
            }),
            "segment 0: armed: rank 0 launches 11.000us late",
        ),
        (
            RuntimeDetail::FaultQuarantined {
                segment: 2,
                cleared: 1,
                table: 0,
            },
            "segment 2: quarantined 1 leftover armed fault(s) on inherited table 0",
        ),
        (
            RuntimeDetail::IncrementDropped { tile: 6 },
            "dropped counter increment (tile 6)",
        ),
        (
            RuntimeDetail::IncrementDelayed {
                tile: 0,
                by: us(20),
            },
            "delayed counter increment by 20000ns (tile 0)",
        ),
        (
            RuntimeDetail::LinkStall {
                stall: us(70),
                call: 0,
            },
            "link stall of 70000ns before collective call 0",
        ),
        (
            RuntimeDetail::Extension {
                segment: 0,
                pending: 1,
                retry: 1,
                max: 2,
            },
            "segment 0: deadline passed with 1 events in flight; extension 1/2",
        ),
        (
            RuntimeDetail::DegradedFallback { segment: 0 },
            "segment 0 marked degraded; completing without abandoning in-flight work",
        ),
        (
            RuntimeDetail::CommReenqueued {
                segment: 3,
                behind: 2,
            },
            "segment 3: comm program re-enqueued behind segment 2 recovery",
        ),
        (
            RuntimeDetail::GroupReissued {
                segment: 2,
                group: 1,
                tail: true,
            },
            "segment 2: group 1 re-issued as tail collective",
        ),
        (
            RuntimeDetail::GroupReissued {
                segment: 3,
                group: 0,
                tail: false,
            },
            "segment 3: group 0 re-issued as bulk collective",
        ),
    ];
    for (detail, text) in cases {
        assert_eq!(detail.to_string(), text);
    }
    let wedge = RuntimeDetail::WedgeDetected {
        segment: 0,
        diagnosis: Diagnosis(Arc::new(starved_group_0())),
    };
    assert_eq!(
        wedge.to_string(),
        format!("segment 0 wedge detected: {STARVED_GROUP_0}")
    );
}

#[test]
fn degrade_cause_text() {
    let error = || Arc::new(starved_group_0());
    let cases = [
        (
            DegradeCause::OverlapAbandoned(error()),
            format!("overlap abandoned: {STARVED_GROUP_0}"),
        ),
        (
            DegradeCause::DeadlineExceeded { extensions: 2 },
            "watchdog deadline exceeded after 2 extensions".into(),
        ),
        (
            DegradeCause::Terminated,
            "chain terminated before this segment completed".into(),
        ),
        // No seeded run reaches the four causes below; their sentences are
        // the ones earlier builds' format strings wrote.
        (
            DegradeCause::WatchdogGaveUp { rounds: 17 },
            "chain watchdog gave up after 17 rounds".into(),
        ),
        (
            DegradeCause::Stalled,
            "chain stalled without a diagnosable wedge".into(),
        ),
        (
            DegradeCause::RecoveryWedged(error()),
            format!("recovery wedged: {STARVED_GROUP_0}"),
        ),
        (
            DegradeCause::WedgedBeforeGemmRetired(error()),
            format!("wedged before GEMM retirement: {STARVED_GROUP_0}"),
        ),
    ];
    for (cause, text) in cases {
        assert_eq!(cause.to_string(), text);
    }
}

/// Outcomes, errors and event logs cross the serving engine's thread
/// boundary, so the shared diagnoses inside them must stay `Send`.
#[test]
fn diagnostics_are_send() {
    fn is_send<T: Send>() {}
    is_send::<RuntimeEvent>();
    is_send::<ResilientOutcome>();
    is_send::<FlashOverlapError>();
}
