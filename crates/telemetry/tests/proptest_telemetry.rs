//! Property-based tests for the telemetry metrics and the vendored JSON
//! codec.

use gpu_sim::{OpSpan, SpanMeta};
use proptest::prelude::*;
use sim::{SimDuration, SimTime};
use telemetry::json::{self, Value};
use telemetry::metrics::{SignalSample, SignalSummary};
use telemetry::record::{IncrementEvent, WaitSatisfied};
use telemetry::{overlap_efficiency, signal_summary, TelemetryRecord};

/// Characters the string generator draws from — ASCII, the JSON escape
/// set, control characters, and multi-byte UTF-8 (incl. non-BMP).
const PALETTE: [char; 12] = [
    'a', 'Z', '0', ' ', '"', '\\', '\n', '\t', '\u{1}', 'µ', '→', '😀',
];

/// Deterministically interprets a word stream as a JSON document of
/// bounded depth, covering every [`Value`] variant.
fn build_value(words: &mut std::slice::Iter<'_, u64>, depth: u32) -> Value {
    let w = *words.next().unwrap_or(&0);
    let variants = if depth == 0 { 4 } else { 6 };
    match w % variants {
        0 => Value::Null,
        1 => Value::Bool(w & 8 != 0),
        2 => {
            let x = (w as f64 / u64::MAX as f64 - 0.5) * 2e12;
            Value::Num(if w & 16 != 0 { x.trunc() } else { x })
        }
        3 => Value::Str(
            (0..w % 9)
                .map(|i| PALETTE[((w >> (4 * i)) % PALETTE.len() as u64) as usize])
                .collect(),
        ),
        4 => Value::Arr((0..w % 5).map(|_| build_value(words, depth - 1)).collect()),
        _ => Value::Obj(
            (0..w % 5)
                .map(|i| (format!("k{i}"), build_value(words, depth - 1)))
                .collect(),
        ),
    }
}

/// The reference join for [`signal_summary`]: for every released wait, a
/// full scan for the latest increment on its slot and the earliest
/// group-tagged collective after it (O(S x I)).
fn naive_signal_summary(record: &TelemetryRecord, spans: &[OpSpan]) -> Option<SignalSummary> {
    let mut samples = Vec::new();
    for ws in &record.satisfied {
        let last_increment = record
            .increments
            .iter()
            .filter(|inc| {
                inc.device == ws.device
                    && inc.table == ws.table
                    && inc.group == ws.group
                    && inc.at <= ws.at
            })
            .map(|inc| inc.at)
            .max();
        let collective_start = spans
            .iter()
            .filter(|s| {
                s.device == ws.device
                    && s.stream == ws.stream
                    && s.start >= ws.at
                    && matches!(s.meta, SpanMeta::Collective { group: Some(g), .. } if g == ws.group)
            })
            .map(|s| s.start)
            .min();
        let increment_to_release_ns = last_increment.map_or(0, |inc| (ws.at - inc).as_nanos());
        let release_to_collective_ns =
            collective_start.map_or(0, |start| (start - ws.at).as_nanos());
        samples.push(SignalSample {
            device: ws.device,
            group: ws.group,
            increment_to_release_ns,
            release_to_collective_ns,
            total_ns: increment_to_release_ns + release_to_collective_ns,
        });
    }
    if samples.is_empty() {
        return None;
    }
    samples.sort_by_key(|s| (s.device, s.group));
    let n = samples.len() as f64;
    Some(SignalSummary {
        mean_total_ns: samples.iter().map(|s| s.total_ns as f64).sum::<f64>() / n,
        min_total_ns: samples.iter().map(|s| s.total_ns).min().unwrap_or(0),
        max_total_ns: samples.iter().map(|s| s.total_ns).max().unwrap_or(0),
        mean_release_to_collective_ns: samples
            .iter()
            .map(|s| s.release_to_collective_ns as f64)
            .sum::<f64>()
            / n,
        samples,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Serialize → parse is the identity on any JSON document, for both
    /// the compact and the pretty writer.
    #[test]
    fn json_round_trips(words in prop::collection::vec(any::<u64>(), 1..64)) {
        let v = build_value(&mut words.iter(), 3);
        let compact = json::parse(&v.to_json());
        prop_assert_eq!(compact.as_ref(), Ok(&v));
        let pretty = json::parse(&v.to_json_pretty());
        prop_assert_eq!(pretty.as_ref(), Ok(&v));
    }

    /// Overlap efficiency is always in [0, 1] whenever it is defined,
    /// regardless of where the measured latency lands relative to the
    /// reference and the bound.
    #[test]
    fn overlap_efficiency_stays_in_unit_interval(
        measured in 0u64..2_000_000,
        base in 0u64..2_000_000,
        theory in 0u64..2_000_000,
    ) {
        let eff = overlap_efficiency(
            SimDuration::from_nanos(measured),
            SimDuration::from_nanos(base),
            SimDuration::from_nanos(theory),
        );
        match eff {
            Some(e) => {
                prop_assert!((0.0..=1.0).contains(&e), "eff {}", e);
                prop_assert!(base > theory);
            }
            None => prop_assert!(base <= theory),
        }
    }

    /// Efficiency is monotone: a faster measured latency never scores
    /// lower, hitting the bound scores a perfect 1, and matching the
    /// non-overlap reference scores 0.
    #[test]
    fn overlap_efficiency_is_monotone(
        theory_ns in 1u64..1_000_000,
        headroom in 1u64..1_000_000,
        a in 0u64..1_000_000,
        b in 0u64..1_000_000,
    ) {
        let base = SimDuration::from_nanos(theory_ns + headroom);
        let theory = SimDuration::from_nanos(theory_ns);
        let (fast, slow) = (a.min(b), a.max(b));
        let eff = |m: u64| {
            overlap_efficiency(SimDuration::from_nanos(m), base, theory)
                .expect("base > theory")
        };
        prop_assert!(eff(theory_ns + fast) >= eff(theory_ns + slow));
        prop_assert!((eff(theory_ns) - 1.0).abs() < 1e-12);
        prop_assert!(eff(theory_ns + headroom).abs() < 1e-12);
    }

    /// The indexed signal join equals the naive full-scan join on any
    /// record, whether its increments arrive in time order (as the
    /// recorder appends them) or out of it (hand-built records).
    #[test]
    fn signal_summary_matches_naive_join(
        increments in prop::collection::vec((0u64..400, 0usize..2, 0usize..2, 0usize..3), 0..40),
        satisfied in prop::collection::vec(
            (0u64..400, 0usize..2, 0usize..2, 0usize..2, 0usize..3),
            0..12,
        ),
        spans in prop::collection::vec((0usize..2, 0usize..2, 0u64..500, 0usize..4), 0..8),
        time_ordered in any::<bool>(),
    ) {
        let mut increments: Vec<IncrementEvent> = increments
            .iter()
            .map(|&(at, device, table, group)| IncrementEvent {
                at: SimTime::from_nanos(at),
                device,
                stream: 0,
                table,
                group,
                by: 1,
            })
            .collect();
        if time_ordered {
            increments.sort_by_key(|inc| inc.at);
        }
        let satisfied = satisfied
            .iter()
            .map(|&(at, device, stream, table, group)| WaitSatisfied {
                at: SimTime::from_nanos(at),
                device,
                stream,
                table,
                group,
                threshold: 1,
            })
            .collect();
        let record = TelemetryRecord {
            increments,
            satisfied,
            ..TelemetryRecord::default()
        };
        let spans: Vec<OpSpan> = spans
            .iter()
            .map(|&(device, stream, start, group)| OpSpan {
                device,
                stream,
                name: "collective",
                // Group 3 stands for an untagged collective.
                meta: SpanMeta::Collective { bytes: 0, group: (group < 3).then_some(group) },
                start: SimTime::from_nanos(start),
                end: SimTime::from_nanos(start + 10),
            })
            .collect();
        prop_assert_eq!(
            signal_summary(&record, &spans),
            naive_signal_summary(&record, &spans)
        );
    }
}
