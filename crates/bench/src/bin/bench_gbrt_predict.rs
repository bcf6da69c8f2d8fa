//! GBRT-inference performance trajectory: times batch prediction with the node-walking
//! predictor (`Gbrt::predict`, per-tree arena walks over `Vec<Vec<f64>>` rows) against the
//! compiled engine (`CompiledEnsemble::predict_batch_into`, flat row-major input,
//! cache-blocked trees-outer/examples-inner kernel) on one thread, across batch sizes
//! N ∈ {1k, 10k, 100k} and dimensionalities d ∈ {2, 4, 8}. The compiled outputs are
//! asserted bit-identical to the walker's before either is reported. A swarm-iteration end-to-end case additionally times a full GSO
//! mining run against a surrogate fitness with batching on vs. off — the serving path
//! `/mine` exercises. Results go to `BENCH_gbrt_predict.json` in the working directory,
//! stamped with the host's available parallelism and detected ISA, so CI can accumulate a
//! perf trajectory across commits.
//!
//! Two grid-search-sized ensembles are measured: the paper's reported default XGB setup
//! (`paper_default`, 100 trees × depth 7 — L2-resident, so the win is branch elimination
//! and interleaving) and the largest cell of its default hyper-parameter grid (`grid_max`,
//! 300 trees × depth 9 — larger than cache, where the blocked kernel's streaming pays off).
//! `--quick` runs a reduced matrix for CI smoke; `--full` adds more repetitions.

use std::time::{Instant, SystemTime, UNIX_EPOCH};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::Serialize;
use surf_bench::report::print_table;
use surf_bench::Scale;
use surf_core::finder::RegionFitness;
use surf_core::objective::{Objective, Threshold};
use surf_core::surrogate::GbrtSurrogate;
use surf_data::region::Region;
use surf_ml::compiled::CompiledEnsemble;
use surf_ml::gbrt::{Gbrt, GbrtParams};
use surf_optim::fitness::{FitnessFunction, SolutionBounds};
use surf_optim::gso::{GlowwormSwarm, GsoParams};

/// One (ensemble, N, d, engine) batch-prediction measurement.
#[derive(Serialize)]
struct Measurement {
    /// Which grid-sized ensemble was measured (`paper_default` = 100 trees × depth 7,
    /// `grid_max` = 300 trees × depth 9 — the largest cell of the paper's default grid).
    ensemble: String,
    n_estimators: usize,
    max_depth: usize,
    batch_size: usize,
    dimensions: usize,
    engine: String,
    /// Mean wall-clock time per full batch prediction.
    predict_seconds: f64,
    rows_per_second: f64,
    /// Walker batch time divided by this engine's on the same configuration.
    speedup_vs_walker: f64,
}

/// The swarm-iteration end-to-end case: one GSO mining run against the surrogate fitness,
/// whole-swarm batching on vs. off.
#[derive(Serialize)]
struct SwarmCase {
    glowworms: usize,
    iterations_run: usize,
    fitness_evaluations: usize,
    scalar_seconds: f64,
    batched_seconds: f64,
    speedup: f64,
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
    swarm: Vec<SwarmCase>,
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
                .sum()
        })
        .collect();
    (features, targets)
}

fn time<R>(repetitions: usize, mut f: impl FnMut() -> R) -> f64 {
    let timer = Instant::now();
    for _ in 0..repetitions {
        std::hint::black_box(f());
    }
    timer.elapsed().as_secs_f64() / repetitions as f64
}

/// Forces the scalar fitness path (batching off) while delegating everything else.
struct ScalarFitness<'a>(&'a RegionFitness<'a>);

impl FitnessFunction for ScalarFitness<'_> {
    fn bounds(&self) -> SolutionBounds {
        self.0.bounds()
    }
    fn fitness(&self, solution: &[f64]) -> f64 {
        self.0.fitness(solution)
    }
    fn density_weight(&self, solution: &[f64]) -> f64 {
        self.0.density_weight(solution)
    }
}

fn swarm_case(scale: Scale) -> SwarmCase {
    // A 2-dimensional mining setup: the surrogate consumes 4 region features.
    let params = GbrtParams::paper_default();
    let (x, y) = training_data(4_000, 4, 99);
    let model = Gbrt::fit(&x, &y, &params).expect("fit succeeds");
    let surrogate = GbrtSurrogate::from_model(model, 2).expect("widths match");
    let domain = Region::new(vec![0.5, 0.5], vec![0.5, 0.5]).expect("valid domain");
    let fitness = RegionFitness::new(
        &surrogate,
        Objective::paper_default(),
        Threshold::above(0.5),
        domain,
        None,
        0.01,
        0.5,
    );
    let gso = GsoParams::default()
        .with_iterations(scale.pick(10, 40, 100))
        .with_threads(1)
        .with_seed(3);
    let swarm = GlowwormSwarm::new(gso.clone());
    let timer = Instant::now();
    let outcome = swarm.run(&fitness);
    let batched_seconds = timer.elapsed().as_secs_f64();
    let scalar = ScalarFitness(&fitness);
    let scalar_seconds = time(1, || swarm.run(&scalar));
    SwarmCase {
        glowworms: gso.glowworms,
        iterations_run: outcome.iterations_run,
        fitness_evaluations: outcome.fitness_evaluations,
        scalar_seconds,
        batched_seconds,
        speedup: scalar_seconds / batched_seconds,
    }
}

fn main() {
    let scale = Scale::from_args();
    println!("# gbrt_predict — node-walking predictor vs. compiled inference engine");

    let sizes: Vec<usize> = scale.pick(
        vec![1_000, 10_000],
        vec![1_000, 10_000, 100_000],
        vec![1_000, 10_000, 100_000],
    );
    let dims: Vec<usize> = scale.pick(vec![2, 8], vec![2, 4, 8], vec![2, 4, 8]);
    let repetitions = scale.pick(2, 5, 10);
    let train_rows = scale.pick(2_000, 5_000, 5_000);

    // Grid-search-sized ensembles: the paper's reported default XGB setup (100 × depth 7)
    // and the largest cell of its default hyper-parameter grid (300 × depth 9) — the size
    // class hypertuned surrogates actually land in.
    let configs: Vec<(&str, GbrtParams)> = vec![
        ("paper_default", GbrtParams::paper_default()),
        (
            "grid_max",
            GbrtParams::paper_default()
                .with_n_estimators(300)
                .with_max_depth(9),
        ),
    ];

    let mut results: Vec<Measurement> = Vec::new();
    let mut rows: Vec<Vec<String>> = Vec::new();
    for (ensemble, params) in &configs {
        for &d in &dims {
            // One model per dimensionality, shared across batch sizes.
            let (train_x, train_y) = training_data(train_rows, d, 17 + d as u64);
            let model = Gbrt::fit(&train_x, &train_y, params).expect("fit succeeds");
            let compiled = CompiledEnsemble::compile(&model).expect("compilable");
            for &n in &sizes {
                let (batch, _) = training_data(n, d, 41 + d as u64);
                let flat: Vec<f64> = batch.iter().flatten().copied().collect();
                let mut out = vec![0.0; n];

                let walker_out = model.predict(&batch).expect("predicts");
                compiled
                    .predict_batch_into(&flat, d, &mut out)
                    .expect("predicts");
                for (i, (c, w)) in out.iter().zip(&walker_out).enumerate() {
                    assert_eq!(c.to_bits(), w.to_bits(), "compiled diverged at row {i}");
                }
                let walker_seconds = time(repetitions, || model.predict(&batch).expect("predicts"));
                let compiled_seconds = time(repetitions, || {
                    compiled
                        .predict_batch_into(&flat, d, &mut out)
                        .expect("predicts")
                });
                let engines = [("walker", walker_seconds), ("compiled", compiled_seconds)];

                for (engine, seconds) in engines {
                    let speedup = walker_seconds / seconds;
                    rows.push(vec![
                        ensemble.to_string(),
                        n.to_string(),
                        d.to_string(),
                        engine.to_string(),
                        format!("{seconds:.5}"),
                        format!("{:.0}", n as f64 / seconds),
                        format!("{speedup:.1}x"),
                    ]);
                    results.push(Measurement {
                        ensemble: ensemble.to_string(),
                        n_estimators: params.n_estimators,
                        max_depth: params.max_depth,
                        batch_size: n,
                        dimensions: d,
                        engine: engine.to_string(),
                        predict_seconds: seconds,
                        rows_per_second: n as f64 / seconds,
                        speedup_vs_walker: speedup,
                    });
                }
            }
        }
    }

    print_table(
        "gbrt_predict (walker vs. compiled engine)",
        &[
            "ensemble", "N", "d", "engine", "s/batch", "rows/s", "speedup",
        ],
        &rows,
    );

    let swarm = vec![swarm_case(scale)];
    for case in &swarm {
        println!(
            "\nswarm end-to-end: {} glowworms x {} iterations ({} surrogate evaluations): \
             scalar {:.3}s -> batched {:.3}s ({:.1}x)",
            case.glowworms,
            case.iterations_run,
            case.fitness_evaluations,
            case.scalar_seconds,
            case.batched_seconds,
            case.speedup
        );
    }

    let artifact = Artifact {
        bench: "gbrt_predict",
        unix_time_seconds: SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|t| t.as_secs())
            .unwrap_or(0),
        scale: format!("{scale:?}"),
        available_parallelism: std::thread::available_parallelism().map_or(1, |n| n.get()),
        detected_isa: surf_simd::detected().label(),
        repetitions,
        results,
        swarm,
    };
    match serde_json::to_string_pretty(&artifact) {
        Ok(json) => {
            let path = "BENCH_gbrt_predict.json";
            if let Err(e) = std::fs::write(path, json) {
                eprintln!("warning: could not write {path}: {e}");
            } else {
                println!("\n[trajectory artifact written to {path}]");
            }
        }
        Err(e) => eprintln!("warning: could not serialize artifact: {e}"),
    }
}
