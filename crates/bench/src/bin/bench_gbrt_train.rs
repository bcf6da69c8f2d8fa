//! GBRT-training performance trajectory: times the exact reference trainer
//! (`Gbrt::fit_exact`, per-node sorting) against the histogram trainer every pipeline uses
//! (a shared `FeatureMatrix` + per-node gradient histograms, `Gbrt::fit_matrix_threaded` on
//! one thread) on two kinds of case, and writes the results (including one-off matrix build
//! times and speedup factors) to `BENCH_gbrt_train.json` in the working directory, stamped
//! with the host's available parallelism and detected ISA, so CI can accumulate a perf
//! trajectory across commits:
//!
//! * `scaling`: N ∈ {1k, 10k, 100k} × d ∈ {2, 4, 8} on a smooth target, with a few shallow
//!   trees (`GbrtParams::quick` depth 4);
//! * `paper`: the fit `Surf::fit` runs at paper settings, `GbrtParams::paper_default`
//!   (100 trees × depth 7, 256 bins) on 1,600 `[x, l]` workload rows of a 2- and a
//!   4-dimensional dataset (4 and 8 features), each labelled with the point count of its box.
//!
//! Each fit time is the median of separately timed fits. `--quick` runs a reduced scaling
//! matrix and the whole paper case for CI smoke; `--full` adds more repetitions.

use std::time::{Instant, SystemTime, UNIX_EPOCH};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::Serialize;
use surf_bench::report::print_table;
use surf_bench::Scale;
use surf_ml::gbrt::{Gbrt, GbrtParams};
use surf_ml::matrix::FeatureMatrix;

/// One (case, N, d, engine) measurement.
#[derive(Serialize)]
struct Measurement {
    /// `scaling` (smooth target, shallow trees) or `paper` (`Surf::fit`'s model shape).
    case: &'static str,
    data_size: usize,
    /// Feature columns of the training matrix.
    dimensions: usize,
    engine: String,
    n_estimators: usize,
    max_depth: usize,
    /// Histogram bins per feature (0 for the exact trainer, which does not quantize).
    max_bins: usize,
    /// One-off `FeatureMatrix` quantization time (0 for the exact trainer).
    matrix_build_seconds: f64,
    /// Median wall-clock time of `repetitions` separately timed full `Gbrt` fits.
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

/// Workload rows shaped like `Surf::fit`'s training set over a `dims`-dimensional dataset:
/// features `[x, l]` (box centre in the unit cube, half sides in [0.01, 0.15)), target the
/// number of points of a clustered 10,000-point cloud inside the box.
fn box_workload(rows: usize, dims: usize, seed: u64) -> (Vec<Vec<f64>>, Vec<f64>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let cloud: Vec<Vec<f64>> = (0..10_000)
        .map(|i| {
            let clustered = i % 3 == 0;
            (0..dims)
                .map(|_| {
                    let u = rng.random::<f64>();
                    if clustered {
                        0.3 + 0.2 * u
                    } else {
                        u
                    }
                })
                .collect()
        })
        .collect();
    let features: Vec<Vec<f64>> = (0..rows)
        .map(|_| {
            let mut row: Vec<f64> = (0..dims).map(|_| rng.random::<f64>()).collect();
            row.extend((0..dims).map(|_| 0.01 + 0.14 * rng.random::<f64>()));
            row
        })
        .collect();
    let targets = features
        .iter()
        .map(|row| {
            let inside = |p: &&Vec<f64>| (0..dims).all(|k| (p[k] - row[k]).abs() <= row[dims + k]);
            cloud.iter().filter(inside).count() as f64
        })
        .collect();
    (features, targets)
}

/// Median of separately timed runs of `fit`.
fn median_seconds(repetitions: usize, mut fit: impl FnMut() -> Gbrt) -> f64 {
    let mut times: Vec<f64> = (0..repetitions)
        .map(|_| {
            let timer = Instant::now();
            std::hint::black_box(fit());
            timer.elapsed().as_secs_f64()
        })
        .collect();
    times.sort_by(f64::total_cmp);
    let mid = times.len() / 2;
    if times.len() % 2 == 1 {
        times[mid]
    } else {
        0.5 * (times[mid - 1] + times[mid])
    }
}

/// Times the exact and the histogram trainer on one training set, appending a table row and a
/// measurement for each.
fn measure(
    case: &'static str,
    (x, y): (Vec<Vec<f64>>, Vec<f64>),
    params: &GbrtParams,
    repetitions: usize,
    rows: &mut Vec<Vec<String>>,
    results: &mut Vec<Measurement>,
) {
    let (n, d) = (x.len(), x[0].len());
    let mut exact_seconds = f64::NAN;
    for engine in ["exact", "hist"] {
        // One-off quantization cost (shared across folds/cells in real use).
        let (matrix, matrix_build_seconds) = if engine == "hist" {
            let start = Instant::now();
            let matrix = FeatureMatrix::from_rows(&x, params.max_bins).expect("valid data");
            (Some(matrix), start.elapsed().as_secs_f64())
        } else {
            (None, 0.0)
        };

        let fit_once = || match &matrix {
            Some(matrix) => Gbrt::fit_matrix_threaded(matrix, &y, params, 1).expect("fit succeeds"),
            None => Gbrt::fit_exact(&x, &y, params).expect("fit succeeds"),
        };
        let model = fit_once();
        let final_train_rmse = model
            .train_rmse_history()
            .last()
            .copied()
            .unwrap_or(f64::NAN);

        let fit_seconds = median_seconds(repetitions, fit_once);
        if engine == "exact" {
            exact_seconds = fit_seconds;
        }
        let speedup = exact_seconds / fit_seconds;
        rows.push(vec![
            case.to_string(),
            n.to_string(),
            d.to_string(),
            engine.to_string(),
            format!("{}×{}", params.n_estimators, params.max_depth),
            format!("{matrix_build_seconds:.4}"),
            format!("{fit_seconds:.4}"),
            format!("{speedup:.1}x"),
            format!("{final_train_rmse:.4}"),
        ]);
        results.push(Measurement {
            case,
            data_size: n,
            dimensions: d,
            engine: engine.to_string(),
            n_estimators: params.n_estimators,
            max_depth: params.max_depth,
            max_bins: if engine == "hist" { params.max_bins } else { 0 },
            matrix_build_seconds,
            fit_seconds,
            speedup_vs_exact: speedup,
            final_train_rmse,
        });
    }
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
    let repetitions = scale.pick(3, 5, 9);
    let n_estimators = scale.pick(5, 10, 20);

    let scaling = GbrtParams::quick().with_n_estimators(n_estimators);
    let paper = GbrtParams::paper_default();

    let mut results: Vec<Measurement> = Vec::new();
    let mut rows: Vec<Vec<String>> = Vec::new();
    for &d in &dims {
        for &n in &sizes {
            let data = training_data(n, d, 41 + d as u64);
            measure(
                "scaling",
                data,
                &scaling,
                repetitions,
                &mut rows,
                &mut results,
            );
        }
    }
    for dataset_dims in [2, 4] {
        let data = box_workload(1_600, dataset_dims, 7 + dataset_dims as u64);
        measure("paper", data, &paper, repetitions, &mut rows, &mut results);
    }

    print_table(
        "gbrt_train (exact reference vs. histogram trainer)",
        &[
            "case",
            "N",
            "d",
            "engine",
            "trees×depth",
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
