//! Visual demo: the overlap as an ASCII Gantt chart.
//!
//! Renders rank 0's compute stream (GEMM + fused epilogue) and
//! communication stream (signal waits + collectives) for three
//! partitions of the same workload: no overlap, the per-wave baseline,
//! and the tuned partition — making Fig. 3's execution structure
//! directly visible in the terminal.

use bench::render_timeline;
use flashoverlap::runtime::CommPattern;
use flashoverlap::{predictive_search, OverlapPlan, SystemSpec, WavePartition};
use gpu_sim::gemm::GemmDims;

fn main() {
    let system = SystemSpec::rtx4090(4);
    let dims = GemmDims::new(4096, 8192, 8192);
    let probe = predictive_search(dims, collectives::Primitive::AllReduce, &system);
    let waves = {
        // Recover T from the tuned partition.
        probe.partition.total_waves()
    };

    for (label, partition) in [
        ("no overlap (single group)", WavePartition::single(waves)),
        ("per-wave baseline", WavePartition::per_wave(waves)),
        ("tuned by predictive search", probe.partition.clone()),
    ] {
        let plan = OverlapPlan::new(
            dims,
            CommPattern::AllReduce,
            system.clone(),
            partition.clone(),
        )
        .expect("plan");
        let mut out = plan
            .execute_with(&flashoverlap::SequenceOptions::new().trace())
            .expect("run");
        let (report, spans) = (out.reports.remove(0), out.spans);
        let rank0: Vec<gpu_sim::OpSpan> = spans
            .into_iter()
            .filter(|s| s.device == 0 && s.name != "callback")
            .collect();
        println!(
            "== {label}: partition {partition}, latency {} ==",
            report.latency
        );
        println!("{}", render_timeline(&rank0, 100));
    }
}
