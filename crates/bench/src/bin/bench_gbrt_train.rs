//! GBRT-training performance trajectory: times the exact reference trainer
//! (`Gbrt::fit_exact`, per-node sorting) against the histogram trainer every pipeline uses
//! (a shared `FeatureMatrix` + per-node gradient histograms, `Gbrt::fit_matrix_threaded` on
//! one thread) across N ∈ {1k, 10k, 100k} and d ∈ {2, 4, 8}, and writes the results
//! (including one-off matrix build times and speedup factors) to `BENCH_gbrt_train.json` in
//! the working directory, stamped with the host's available parallelism and detected ISA,
//! so CI can accumulate a perf trajectory across commits.
//!
//! `--quick` runs a reduced matrix for CI smoke; `--full` adds more repetitions.

use std::time::{Instant, SystemTime, UNIX_EPOCH};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::Serialize;
use surf_bench::report::print_table;
use surf_bench::Scale;
use surf_ml::gbrt::{Gbrt, GbrtParams};
use surf_ml::matrix::FeatureMatrix;

/// One (N, d, engine) measurement.
#[derive(Serialize)]
struct Measurement {
    data_size: usize,
    dimensions: usize,
    engine: String,
    /// Histogram bins per feature (0 for the exact trainer, which does not quantize).
    max_bins: usize,
    /// One-off `FeatureMatrix` quantization time (0 for the exact trainer).
    matrix_build_seconds: f64,
    /// Mean wall-clock time per full `Gbrt` fit.
    fit_seconds: f64,
    /// Exact-trainer fit time divided by this trainer's on the same configuration.
    speedup_vs_exact: f64,
    /// Training RMSE after the final boosting round (fidelity check between trainers).
    final_train_rmse: f64,
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
    n_estimators: usize,
    max_depth: usize,
    repetitions: usize,
    results: Vec<Measurement>,
}

/// Synthetic regression data: d features in [0, 1), smooth nonlinear target.
fn training_data(n: usize, d: usize, seed: u64) -> (Vec<Vec<f64>>, Vec<f64>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let features: Vec<Vec<f64>> = (0..n)
        .map(|_| (0..d).map(|_| rng.random::<f64>()).collect())
        .collect();
    let targets: Vec<f64> = features
        .iter()
        .map(|x| {
            x.iter()
                .enumerate()
                .map(|(i, v)| ((i + 1) as f64 * v).sin())
                .sum::<f64>()
        })
        .collect();
    (features, targets)
}

fn main() {
    let scale = Scale::from_args();
    println!("# gbrt_train — exact reference trainer vs. histogram trainer");

    let sizes: Vec<usize> = scale.pick(
        vec![1_000, 10_000],
        vec![1_000, 10_000, 100_000],
        vec![1_000, 10_000, 100_000],
    );
    let dims: Vec<usize> = scale.pick(vec![2, 4], vec![2, 4, 8], vec![2, 4, 8]);
    let repetitions = scale.pick(1, 2, 5);
    let n_estimators = scale.pick(5, 10, 20);

    let base = GbrtParams::quick().with_n_estimators(n_estimators);

    let mut results: Vec<Measurement> = Vec::new();
    let mut rows: Vec<Vec<String>> = Vec::new();
    for &d in &dims {
        for &n in &sizes {
            let (x, y) = training_data(n, d, 41 + d as u64);

            let mut exact_seconds = f64::NAN;
            for max_bins in [0usize, 256] {
                let engine = if max_bins == 0 { "exact" } else { "hist" };
                // One-off quantization cost (shared across folds/cells in real use).
                let (matrix, matrix_build_seconds) = if max_bins > 0 {
                    let start = Instant::now();
                    let matrix = FeatureMatrix::from_rows(&x, max_bins).expect("valid data");
                    (Some(matrix), start.elapsed().as_secs_f64())
                } else {
                    (None, 0.0)
                };

                let fit_once = || match &matrix {
                    Some(matrix) => {
                        Gbrt::fit_matrix_threaded(matrix, &y, &base, 1).expect("fit succeeds")
                    }
                    None => Gbrt::fit_exact(&x, &y, &base).expect("fit succeeds"),
                };
                let model = fit_once();
                let final_train_rmse = model
                    .train_rmse_history()
                    .last()
                    .copied()
                    .unwrap_or(f64::NAN);

                let timer = Instant::now();
                for _ in 0..repetitions {
                    std::hint::black_box(fit_once());
                }
                let fit_seconds = timer.elapsed().as_secs_f64() / repetitions as f64;
                if max_bins == 0 {
                    exact_seconds = fit_seconds;
                }
                let speedup = exact_seconds / fit_seconds;
                rows.push(vec![
                    n.to_string(),
                    d.to_string(),
                    engine.to_string(),
                    format!("{matrix_build_seconds:.4}"),
                    format!("{fit_seconds:.4}"),
                    format!("{speedup:.1}x"),
                    format!("{final_train_rmse:.4}"),
                ]);
                results.push(Measurement {
                    data_size: n,
                    dimensions: d,
                    engine: engine.to_string(),
                    max_bins,
                    matrix_build_seconds,
                    fit_seconds,
                    speedup_vs_exact: speedup,
                    final_train_rmse,
                });
            }
        }
    }

    print_table(
        "gbrt_train (exact reference vs. histogram trainer)",
        &[
            "N",
            "d",
            "engine",
            "matrix s",
            "fit s",
            "speedup",
            "train RMSE",
        ],
        &rows,
    );

    let artifact = Artifact {
        bench: "gbrt_train",
        unix_time_seconds: SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|t| t.as_secs())
            .unwrap_or(0),
        scale: format!("{scale:?}"),
        available_parallelism: std::thread::available_parallelism().map_or(1, |n| n.get()),
        detected_isa: surf_simd::detected().label(),
        n_estimators,
        max_depth: base.max_depth,
        repetitions,
        results,
    };
    match serde_json::to_string_pretty(&artifact) {
        Ok(json) => {
            let path = "BENCH_gbrt_train.json";
            if let Err(e) = std::fs::write(path, json) {
                eprintln!("warning: could not write {path}: {e}");
            } else {
                println!("\n[trajectory artifact written to {path}]");
            }
        }
        Err(e) => eprintln!("warning: could not serialize artifact: {e}"),
    }
}
