//! Region-evaluation performance trajectory: times `Statistic::evaluate` on a
//! workload-shaped region mix — full column scan vs. grid index — across
//! N ∈ {10k, 100k, 1M} and d ∈ {2, 4, 8}, and writes the results (including index build
//! times and speedup factors) to `BENCH_region_eval.json` in the working directory, stamped
//! with the host's available parallelism and detected ISA, so CI can accumulate a perf
//! trajectory across commits.
//!
//! `--quick` runs a reduced matrix for CI smoke; `--full` adds more repetitions.

use std::time::{Instant, SystemTime, UNIX_EPOCH};

use serde::Serialize;
use surf_bench::report::print_table;
use surf_bench::Scale;
use surf_data::index::IndexKind;
use surf_data::statistic::Statistic;
use surf_data::synthetic::{SyntheticDataset, SyntheticSpec};
use surf_data::workload::{Workload, WorkloadSpec};

/// One (N, d, statistic, index) measurement.
#[derive(Serialize)]
struct Measurement {
    data_size: usize,
    dimensions: usize,
    statistic: String,
    index: String,
    /// One-off index construction time (0 for the scan).
    build_seconds: f64,
    /// Mean wall-clock time per region evaluation.
    eval_micros: f64,
    /// Scan time divided by this index's time on the same configuration.
    speedup_vs_scan: f64,
}

#[derive(Serialize)]
struct Artifact {
    bench: &'static str,
    unix_time_seconds: u64,
    scale: String,
    /// `std::thread::available_parallelism` of the host the run measured.
    available_parallelism: usize,
    /// The SIMD ISA `surf_simd` detected on that host.
    detected_isa: &'static str,
    queries_per_config: usize,
    repetitions: usize,
    results: Vec<Measurement>,
}

fn main() {
    let scale = Scale::from_args();
    println!("# region_eval — scan vs. grid");

    let sizes: Vec<usize> = scale.pick(
        vec![10_000, 50_000],
        vec![10_000, 100_000, 1_000_000],
        vec![10_000, 100_000, 1_000_000],
    );
    let dims: Vec<usize> = scale.pick(vec![2, 4], vec![2, 4, 8], vec![2, 4, 8]);
    let queries = scale.pick(24, 48, 96);
    let repetitions = scale.pick(3, 5, 10);

    let mut results: Vec<Measurement> = Vec::new();
    let mut rows: Vec<Vec<String>> = Vec::new();
    for &d in &dims {
        for &n in &sizes {
            let synthetic = SyntheticDataset::generate(
                &SyntheticSpec::density(d, 1)
                    .with_points(n)
                    .with_points_per_region(n / 10)
                    .with_seed(41 + d as u64),
            );
            let dataset = &synthetic.dataset;
            let domain = dataset.domain().expect("non-empty dataset");
            let regions = Workload::sample_query_regions(
                &domain,
                &WorkloadSpec::default().with_queries(queries).with_seed(11),
            )
            .expect("valid workload spec");

            let mut scan_micros = f64::NAN;
            for kind in [IndexKind::Scan, IndexKind::Grid] {
                // One-off build cost (cached afterwards; 0 for the scan).
                let build_start = Instant::now();
                dataset.region_index(kind);
                let build_seconds = build_start.elapsed().as_secs_f64();

                // Warm-up pass, then timed repetitions over the whole region mix.
                let evaluate_all = || {
                    let mut acc = 0.0f64;
                    for region in &regions {
                        acc += Statistic::Count
                            .evaluate_with(dataset, region, kind)
                            .expect("evaluation succeeds")
                            .unwrap_or(0.0);
                    }
                    acc
                };
                std::hint::black_box(evaluate_all());
                let timer = Instant::now();
                for _ in 0..repetitions {
                    std::hint::black_box(evaluate_all());
                }
                let eval_micros =
                    timer.elapsed().as_secs_f64() * 1e6 / (repetitions * regions.len()) as f64;
                if kind == IndexKind::Scan {
                    scan_micros = eval_micros;
                }
                let speedup = scan_micros / eval_micros;
                rows.push(vec![
                    n.to_string(),
                    d.to_string(),
                    kind.name().to_string(),
                    format!("{build_seconds:.4}"),
                    format!("{eval_micros:.2}"),
                    format!("{speedup:.1}x"),
                ]);
                results.push(Measurement {
                    data_size: n,
                    dimensions: d,
                    statistic: "count".to_string(),
                    index: kind.name().to_string(),
                    build_seconds,
                    eval_micros,
                    speedup_vs_scan: speedup,
                });
            }
        }
    }

    print_table(
        "region_eval (Count statistic)",
        &["N", "d", "index", "build s", "µs/eval", "speedup"],
        &rows,
    );

    let artifact = Artifact {
        bench: "region_eval",
        unix_time_seconds: SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|t| t.as_secs())
            .unwrap_or(0),
        scale: format!("{scale:?}"),
        available_parallelism: std::thread::available_parallelism().map_or(1, |n| n.get()),
        detected_isa: surf_simd::detected().label(),
        queries_per_config: queries,
        repetitions,
        results,
    };
    match serde_json::to_string_pretty(&artifact) {
        Ok(json) => {
            let path = "BENCH_region_eval.json";
            if let Err(e) = std::fs::write(path, json) {
                eprintln!("warning: could not write {path}: {e}");
            } else {
                println!("\n[trajectory artifact written to {path}]");
            }
        }
        Err(e) => eprintln!("warning: could not serialize artifact: {e}"),
    }
}
