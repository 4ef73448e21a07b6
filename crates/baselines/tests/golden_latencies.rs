//! Pins every simulated baseline's exact latency, in nanoseconds, and
//! the error variant of every infeasible combination.
//!
//! The table covers NonOverlap, VanillaDecomposition at each chunk count
//! and tuned, Async-TP, and micro-batch at 2, 4 and tuned, over
//! AllReduce, ReduceScatter, AllGather and All-to-All on 4090 ×2, 4090
//! ×4 and A800 ×4, plus NonOverlap under 200 µs launch skew. Two small
//! ReduceScatter shapes whose element count divides the rank count while
//! their rows (or a chunk's rows) do not pin down exactly which shapes
//! each method accepts. Any change to how a baseline is simulated shows
//! up here as a changed line.

use baselines::decomposition::CHUNK_CANDIDATES;
use baselines::{
    run_async_tp, run_decomposition, run_decomposition_tuned, run_microbatch, run_microbatch_tuned,
    run_nonoverlap,
};
use flashoverlap::runtime::CommPattern;
use flashoverlap::{FlashOverlapError, SystemSpec};
use gpu_sim::gemm::GemmDims;
use sim::SimDuration;

fn outcome(result: Result<SimDuration, FlashOverlapError>) -> String {
    match result {
        Ok(latency) => latency.as_nanos().to_string(),
        Err(FlashOverlapError::IncompatibleShape { .. }) => "IncompatibleShape".into(),
        Err(FlashOverlapError::BadInputs { .. }) => "BadInputs".into(),
        Err(e) => format!("other error: {e}"),
    }
}

fn patterns(m: u32, n_gpus: usize) -> Vec<(&'static str, CommPattern)> {
    let routing = (0..n_gpus)
        .map(|s| (0..m as usize).map(|r| (r * 7 + s) % n_gpus).collect())
        .collect();
    vec![
        ("AR", CommPattern::AllReduce),
        ("RS", CommPattern::ReduceScatter),
        ("AG", CommPattern::AllGather),
        ("A2A", CommPattern::AllToAll { routing }),
    ]
}

/// One line per (method, pattern) on one system and shape.
fn rows(
    label: &str,
    dims: GemmDims,
    system: &SystemSpec,
    patterns: &[(&str, CommPattern)],
) -> Vec<String> {
    let mut lines = Vec::new();
    for (name, pattern) in patterns {
        let mut line = |method: &str, result| {
            lines.push(format!("{label} {name} {method} = {}", outcome(result)));
        };
        line("nonoverlap", run_nonoverlap(dims, pattern, system));
        for chunks in CHUNK_CANDIDATES {
            line(
                &format!("decomposition/{chunks}"),
                run_decomposition(dims, pattern, system, chunks),
            );
        }
        line(
            "decomposition/tuned",
            run_decomposition_tuned(dims, pattern, system),
        );
        line("async-tp", run_async_tp(dims, pattern, system));
        for micro_batches in [2, 4] {
            line(
                &format!("microbatch/{micro_batches}"),
                run_microbatch(dims, pattern, system, micro_batches),
            );
        }
        line(
            "microbatch/tuned",
            run_microbatch_tuned(dims, pattern, system),
        );
    }
    lines
}

fn table() -> Vec<String> {
    let dims = GemmDims::new(1536, 2048, 8192);
    let mut lines = Vec::new();
    for (label, system) in [
        ("4090x2", SystemSpec::rtx4090(2)),
        ("4090x4", SystemSpec::rtx4090(4)),
        ("a800x4", SystemSpec::a800(4)),
    ] {
        let patterns = patterns(dims.m, system.n_gpus);
        lines.extend(rows(label, dims, &system, &patterns));
        let skewed = system.clone().with_launch_skew_ns(200_000);
        for (name, pattern) in &patterns {
            lines.push(format!(
                "{label} {name} nonoverlap/skew200us = {}",
                outcome(run_nonoverlap(dims, pattern, &skewed))
            ));
        }
        for odd in [GemmDims::new(24, 64, 64), GemmDims::new(6, 64, 64)] {
            let odd_label = format!("{label} {}x{}x{}", odd.m, odd.n, odd.k);
            let rs = [("RS", CommPattern::ReduceScatter)];
            lines.extend(rows(&odd_label, odd, &system, &rs));
        }
    }
    lines
}

const EXPECTED: &str = "
4090x2 AR nonoverlap = 1376176
4090x2 AR decomposition/2 = 1256450
4090x2 AR decomposition/4 = 1391883
4090x2 AR decomposition/6 = 1960386
4090x2 AR decomposition/8 = 1945611
4090x2 AR decomposition/tuned = 1256450
4090x2 AR async-tp = IncompatibleShape
4090x2 AR microbatch/2 = 1569105
4090x2 AR microbatch/4 = 1771724
4090x2 AR microbatch/tuned = 1569105
4090x2 RS nonoverlap = 1048489
4090x2 RS decomposition/2 = 998671
4090x2 RS decomposition/4 = 1088461
4090x2 RS decomposition/6 = 1845481
4090x2 RS decomposition/8 = 1380399
4090x2 RS decomposition/tuned = 998671
4090x2 RS async-tp = IncompatibleShape
4090x2 RS microbatch/2 = 1365051
4090x2 RS microbatch/4 = 1372498
4090x2 RS microbatch/tuned = 1365051
4090x2 AG nonoverlap = 1310639
4090x2 AG decomposition/2 = 1134707
4090x2 AG decomposition/4 = 1154009
4090x2 AG decomposition/6 = 1891442
4090x2 AG decomposition/8 = 1413467
4090x2 AG decomposition/tuned = 1134707
4090x2 AG async-tp = IncompatibleShape
4090x2 AG microbatch/2 = IncompatibleShape
4090x2 AG microbatch/4 = IncompatibleShape
4090x2 AG microbatch/tuned = IncompatibleShape
4090x2 A2A nonoverlap = 1048489
4090x2 A2A decomposition/2 = 998671
4090x2 A2A decomposition/4 = 1088461
4090x2 A2A decomposition/6 = 1845481
4090x2 A2A decomposition/8 = 1380399
4090x2 A2A decomposition/tuned = 998671
4090x2 A2A async-tp = IncompatibleShape
4090x2 A2A microbatch/2 = IncompatibleShape
4090x2 A2A microbatch/4 = IncompatibleShape
4090x2 A2A microbatch/tuned = IncompatibleShape
4090x2 AR nonoverlap/skew200us = 1551226
4090x2 RS nonoverlap/skew200us = 1205105
4090x2 AG nonoverlap/skew200us = 1482002
4090x2 A2A nonoverlap/skew200us = 1205105
4090x2 24x64x64 RS nonoverlap = 97754
4090x2 24x64x64 RS decomposition/2 = 191347
4090x2 24x64x64 RS decomposition/4 = 363099
4090x2 24x64x64 RS decomposition/6 = 545903
4090x2 24x64x64 RS decomposition/8 = IncompatibleShape
4090x2 24x64x64 RS decomposition/tuned = 191347
4090x2 24x64x64 RS async-tp = IncompatibleShape
4090x2 24x64x64 RS microbatch/2 = 191173
4090x2 24x64x64 RS microbatch/4 = 360882
4090x2 24x64x64 RS microbatch/tuned = 191173
4090x2 6x64x64 RS nonoverlap = 97658
4090x2 6x64x64 RS decomposition/2 = IncompatibleShape
4090x2 6x64x64 RS decomposition/4 = IncompatibleShape
4090x2 6x64x64 RS decomposition/6 = IncompatibleShape
4090x2 6x64x64 RS decomposition/8 = IncompatibleShape
4090x2 6x64x64 RS decomposition/tuned = IncompatibleShape
4090x2 6x64x64 RS async-tp = IncompatibleShape
4090x2 6x64x64 RS microbatch/2 = IncompatibleShape
4090x2 6x64x64 RS microbatch/4 = IncompatibleShape
4090x2 6x64x64 RS microbatch/tuned = IncompatibleShape
4090x4 AR nonoverlap = 1900476
4090x4 AR decomposition/2 = 2079906
4090x4 AR decomposition/4 = 2737842
4090x4 AR decomposition/6 = 3551729
4090x4 AR decomposition/8 = 4373990
4090x4 AR decomposition/tuned = 2079906
4090x4 AR async-tp = IncompatibleShape
4090x4 AR microbatch/2 = 2079906
4090x4 AR microbatch/4 = 2769787
4090x4 AR microbatch/tuned = 2079906
4090x4 RS nonoverlap = 1310639
4090x4 RS decomposition/2 = 1256450
4090x4 RS decomposition/4 = 1526096
4090x4 RS decomposition/6 = 2017608
4090x4 RS decomposition/8 = 2341819
4090x4 RS decomposition/tuned = 1256450
4090x4 RS async-tp = IncompatibleShape
4090x4 RS microbatch/2 = 1569105
4090x4 RS microbatch/4 = 1871531
4090x4 RS microbatch/tuned = 1569105
4090x4 AG nonoverlap = 2490314
4090x4 AG decomposition/2 = 2491633
4090x4 AG decomposition/4 = 2737842
4090x4 AG decomposition/6 = 3143207
4090x4 AG decomposition/8 = 3570045
4090x4 AG decomposition/tuned = 2491633
4090x4 AG async-tp = IncompatibleShape
4090x4 AG microbatch/2 = IncompatibleShape
4090x4 AG microbatch/4 = IncompatibleShape
4090x4 AG microbatch/tuned = IncompatibleShape
4090x4 A2A nonoverlap = 1310639
4090x4 A2A decomposition/2 = 1256450
4090x4 A2A decomposition/4 = 1526096
4090x4 A2A decomposition/6 = 2017608
4090x4 A2A decomposition/8 = 2341819
4090x4 A2A decomposition/tuned = 1256450
4090x4 A2A async-tp = IncompatibleShape
4090x4 A2A microbatch/2 = IncompatibleShape
4090x4 A2A microbatch/4 = IncompatibleShape
4090x4 A2A microbatch/tuned = IncompatibleShape
4090x4 AR nonoverlap/skew200us = 2105020
4090x4 RS nonoverlap/skew200us = 1482002
4090x4 AG nonoverlap/skew200us = 2728038
4090x4 A2A nonoverlap/skew200us = 1482002
4090x4 24x64x64 RS nonoverlap = 228893
4090x4 24x64x64 RS decomposition/2 = 465900
4090x4 24x64x64 RS decomposition/4 = IncompatibleShape
4090x4 24x64x64 RS decomposition/6 = 1363774
4090x4 24x64x64 RS decomposition/8 = IncompatibleShape
4090x4 24x64x64 RS decomposition/tuned = 465900
4090x4 24x64x64 RS async-tp = IncompatibleShape
4090x4 24x64x64 RS microbatch/2 = 465873
4090x4 24x64x64 RS microbatch/4 = IncompatibleShape
4090x4 24x64x64 RS microbatch/tuned = 465873
4090x4 6x64x64 RS nonoverlap = 228749
4090x4 6x64x64 RS decomposition/2 = IncompatibleShape
4090x4 6x64x64 RS decomposition/4 = IncompatibleShape
4090x4 6x64x64 RS decomposition/6 = IncompatibleShape
4090x4 6x64x64 RS decomposition/8 = IncompatibleShape
4090x4 6x64x64 RS decomposition/tuned = IncompatibleShape
4090x4 6x64x64 RS async-tp = IncompatibleShape
4090x4 6x64x64 RS microbatch/2 = IncompatibleShape
4090x4 6x64x64 RS microbatch/4 = IncompatibleShape
4090x4 6x64x64 RS microbatch/tuned = IncompatibleShape
a800x4 AR nonoverlap = 357340
a800x4 AR decomposition/2 = 529049
a800x4 AR decomposition/4 = 717221
a800x4 AR decomposition/6 = 622816
a800x4 AR decomposition/8 = 1010453
a800x4 AR decomposition/tuned = 529049
a800x4 AR async-tp = 447743
a800x4 AR microbatch/2 = 518943
a800x4 AR microbatch/4 = 514307
a800x4 AR microbatch/tuned = 514307
a800x4 RS nonoverlap = 329815
a800x4 RS decomposition/2 = 512724
a800x4 RS decomposition/4 = 707388
a800x4 RS decomposition/6 = 614545
a800x4 RS decomposition/8 = 1003508
a800x4 RS decomposition/tuned = 512724
a800x4 RS async-tp = 415030
a800x4 RS microbatch/2 = 502618
a800x4 RS microbatch/4 = 504474
a800x4 RS microbatch/tuned = 502618
a800x4 AG nonoverlap = 400595
a800x4 AG decomposition/2 = 549452
a800x4 AG decomposition/4 = 725086
a800x4 AG decomposition/6 = 626957
a800x4 AG decomposition/8 = 1012436
a800x4 AG decomposition/tuned = 549452
a800x4 AG async-tp = IncompatibleShape
a800x4 AG microbatch/2 = IncompatibleShape
a800x4 AG microbatch/4 = IncompatibleShape
a800x4 AG microbatch/tuned = IncompatibleShape
a800x4 A2A nonoverlap = 311464
a800x4 A2A decomposition/2 = 501841
a800x4 A2A decomposition/4 = 700833
a800x4 A2A decomposition/6 = 609030
a800x4 A2A decomposition/8 = 998878
a800x4 A2A decomposition/tuned = 501841
a800x4 A2A async-tp = IncompatibleShape
a800x4 A2A microbatch/2 = IncompatibleShape
a800x4 A2A microbatch/4 = IncompatibleShape
a800x4 A2A microbatch/tuned = IncompatibleShape
a800x4 AR nonoverlap/skew200us = 506706
a800x4 RS nonoverlap/skew200us = 477632
a800x4 AG nonoverlap/skew200us = 552395
a800x4 A2A nonoverlap/skew200us = 458250
a800x4 24x64x64 RS nonoverlap = 19229
a800x4 24x64x64 RS decomposition/2 = 32286
a800x4 24x64x64 RS decomposition/4 = IncompatibleShape
a800x4 24x64x64 RS decomposition/6 = 81671
a800x4 24x64x64 RS decomposition/8 = IncompatibleShape
a800x4 24x64x64 RS decomposition/tuned = 32286
a800x4 24x64x64 RS async-tp = 43180
a800x4 24x64x64 RS microbatch/2 = 32271
a800x4 24x64x64 RS microbatch/4 = IncompatibleShape
a800x4 24x64x64 RS microbatch/tuned = 32271
a800x4 6x64x64 RS nonoverlap = 19220
a800x4 6x64x64 RS decomposition/2 = IncompatibleShape
a800x4 6x64x64 RS decomposition/4 = IncompatibleShape
a800x4 6x64x64 RS decomposition/6 = IncompatibleShape
a800x4 6x64x64 RS decomposition/8 = IncompatibleShape
a800x4 6x64x64 RS decomposition/tuned = IncompatibleShape
a800x4 6x64x64 RS async-tp = IncompatibleShape
a800x4 6x64x64 RS microbatch/2 = IncompatibleShape
a800x4 6x64x64 RS microbatch/4 = IncompatibleShape
a800x4 6x64x64 RS microbatch/tuned = IncompatibleShape
";

#[test]
fn every_baseline_latency_matches_the_pinned_table() {
    let actual = table().join("\n");
    assert!(
        actual == EXPECTED.trim(),
        "baseline latencies moved; the run produced:\n{actual}"
    );
}
