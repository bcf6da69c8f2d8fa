//! The traced run's replays of `Surf::fit` and `Surf::mine_with`, assembled from the same
//! public calls the pipeline makes, with a span around each call into a layer.
//!
//! Mining evaluates through delegating wrappers: [`TimedSurrogate`] around the fitted
//! surrogate and [`TimedFitness`] around `RegionFitness`. They answer exactly what they
//! wrap, so a replay's outcome must equal the real call's bit for bit; the traced run
//! checks that on every engine, which shows the spans time the same program.

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;
use surf_core::finder::{MinedRegion, MiningOutcome, RegionFitness, Surf, SurfState};
use surf_core::objective::{Direction, Threshold};
use surf_core::surrogate::{SurrogateTrainer, TrainingReport};
use surf_core::{GbrtSurrogate, SurfConfig, Surrogate};
use surf_data::dataset::Dataset;
use surf_data::region::Region;
use surf_data::workload::{RegionEvaluation, Workload, WorkloadSpec};
use surf_ml::gbrt::Gbrt;
use surf_ml::kde::KernelDensity;
use surf_ml::matrix::FeatureMatrix;
use surf_optim::fitness::{FitnessFunction, SolutionBounds};
use surf_optim::gso::GlowwormSwarm;

use crate::trace::Tracer;

/// Work counted at the layer boundaries while replaying.
#[derive(Default)]
pub struct Counters {
    pub box_calls: AtomicU64,
    /// Normal-CDF evaluations the KDE boxes imply: support points x 2d per box (computed
    /// from the KDE's size, not counted inside it).
    pub cdf_evals: AtomicU64,
    pub gso_runs: AtomicU64,
    pub gso_iterations: AtomicU64,
    pub fitness_evals: AtomicU64,
    pub mine_calls: AtomicU64,
    pub fits: AtomicU64,
    pub workload_evals: AtomicU64,
}

impl Counters {
    pub fn get(counter: &AtomicU64) -> u64 {
        counter.load(Relaxed)
    }
}

/// Times `Surrogate::predict_batch` on the surrogate it wraps.
struct TimedSurrogate<'a> {
    inner: &'a dyn Surrogate,
    tracer: &'a Tracer,
}

impl Surrogate for TimedSurrogate<'_> {
    fn predict(&self, region: &Region) -> f64 {
        self.inner.predict(region)
    }

    fn predict_batch(&self, regions: &[Region]) -> Vec<f64> {
        self.tracer.span(None, "ml.predict_batch", "ml", |_| {
            self.inner.predict_batch(regions)
        })
    }

    fn dimensions(&self) -> usize {
        self.inner.dimensions()
    }
}

/// Times the swarm's fitness and density callbacks on the landscape it wraps.
struct TimedFitness<'a> {
    inner: &'a RegionFitness<'a>,
    tracer: &'a Tracer,
    counters: &'a Counters,
    /// The GSO run span: parent of callbacks running on the swarm's worker threads.
    run: u64,
    cdf_per_box: u64,
}

impl FitnessFunction for TimedFitness<'_> {
    fn bounds(&self) -> SolutionBounds {
        self.inner.bounds()
    }

    fn fitness(&self, solution: &[f64]) -> f64 {
        self.inner.fitness(solution)
    }

    fn fitness_batch(&self, solutions: &[f64], dim: usize, out: &mut [f64]) {
        self.counters
            .fitness_evals
            .fetch_add(out.len() as u64, Relaxed);
        self.tracer
            .span(Some(self.run), "core.fitness_batch", "core", |_| {
                self.inner.fitness_batch(solutions, dim, out)
            })
    }

    fn density_weight(&self, solution: &[f64]) -> f64 {
        self.counters.box_calls.fetch_add(1, Relaxed);
        self.counters.cdf_evals.fetch_add(self.cdf_per_box, Relaxed);
        self.tracer
            .span(Some(self.run), "ml.kde.box_probability", "ml", |_| {
                self.inner.density_weight(solution)
            })
    }
}

/// A fitted engine plus the parts of its state the mining replay needs.
pub struct Engine {
    pub surf: Surf,
    kde: Option<KernelDensity>,
}

impl Engine {
    pub fn new(surf: Surf) -> Engine {
        let kde = surf.export_state().kde;
        Engine { surf, kde }
    }
}

/// `Surf::mine_with`, replayed: the coverage clamp, the RMSE margin and the raw-threshold
/// fallback around GSO over a timed `RegionFitness`, then clustering.
pub fn mine(
    engine: &Engine,
    threshold: Threshold,
    tracer: &Tracer,
    counters: &Counters,
) -> MiningOutcome {
    let surf = &engine.surf;
    let config = surf.config();
    counters.mine_calls.fetch_add(1, Relaxed);
    tracer.span(None, "op.mine", "bench", |_| {
        let (cov_min, cov_max) = config.workload_coverage;
        let mut min_fraction = config.min_length_fraction.max(cov_min);
        let mut max_fraction = config.max_length_fraction.min(cov_max);
        if min_fraction >= max_fraction {
            min_fraction = config.min_length_fraction;
            max_fraction = config.max_length_fraction;
        }
        let rmse = surf.training_report().holdout_rmse;
        let shift = if rmse.is_finite() {
            config.mining_margin_rmse * rmse
        } else {
            0.0
        };
        let margined = match threshold.direction {
            Direction::Above => Threshold::above(threshold.value + shift),
            Direction::Below => Threshold::below(threshold.value - shift),
        };
        let mut gso = config.gso.clone();
        if gso.threads == 0 {
            gso.threads = surf_ml::parallel::resolve_threads(config.threads);
        }
        let surrogate = TimedSurrogate {
            inner: surf.surrogate(),
            tracer,
        };
        let cdf_per_box = engine
            .kde
            .as_ref()
            .map_or(0, |kde| (kde.len() * 2 * kde.dimensions()) as u64);
        let mine_once = |threshold: Threshold| {
            let start = Instant::now();
            let fitness = RegionFitness::new(
                &surrogate,
                config.objective,
                threshold,
                surf.domain().clone(),
                engine.kde.as_ref(),
                min_fraction,
                max_fraction,
            );
            counters.gso_runs.fetch_add(1, Relaxed);
            let result = tracer.span(None, "optim.gso.run", "optim", |run| {
                let timed = TimedFitness {
                    inner: &fitness,
                    tracer,
                    counters,
                    run,
                    cdf_per_box,
                };
                GlowwormSwarm::new(gso.clone()).run(&timed)
            });
            counters
                .gso_iterations
                .fetch_add(result.iterations_run as u64, Relaxed);
            let regions = tracer.span(None, "core.mine.cluster", "core", |_| {
                let radius = config.cluster_radius_fraction * fitness.bounds().diagonal();
                let mut regions: Vec<MinedRegion> = result
                    .cluster_representatives(radius)
                    .into_iter()
                    .filter_map(|glowworm| {
                        let region = fitness.decode(&glowworm.position)?;
                        let predicted_value = surrogate.predict(&region);
                        let objective_value =
                            config
                                .objective
                                .evaluate(predicted_value, &region, &threshold);
                        (objective_value.is_finite() && threshold.satisfied(predicted_value))
                            .then_some(MinedRegion {
                                region,
                                predicted_value,
                                objective_value,
                            })
                    })
                    .collect();
                regions.sort_by(|a, b| {
                    b.objective_value
                        .partial_cmp(&a.objective_value)
                        .unwrap_or(std::cmp::Ordering::Equal)
                });
                regions
            });
            MiningOutcome {
                regions,
                swarm_valid_fraction: result.valid_fraction(),
                convergence_trace: result.mean_fitness_history.clone(),
                iterations_run: result.iterations_run,
                converged: result.converged,
                surrogate_evaluations: result.fitness_evaluations,
                mining_time: start.elapsed(),
            }
        };
        let outcome = mine_once(margined);
        if outcome.regions.is_empty() && shift > 0.0 {
            return mine_once(threshold);
        }
        outcome
    })
}

/// `Surf::fit`, replayed stage by stage on a dataset whose index is not built yet.
/// Returns the fitted state, to be compared with the real fit's `export_state`.
pub fn fit(
    dataset: &Dataset,
    config: &SurfConfig,
    tracer: &Tracer,
    counters: &Counters,
) -> Result<SurfState, String> {
    counters.fits.fetch_add(1, Relaxed);
    tracer.span(None, "op.fit", "bench", |_| {
        config.validate().map_err(|e| e.to_string())?;
        let spec = WorkloadSpec::default()
            .with_queries(config.training_queries)
            .with_coverage(config.workload_coverage.0, config.workload_coverage.1)
            .with_empty_value(config.empty_value)
            .with_seed(config.seed);
        let domain = dataset.domain().map_err(|e| e.to_string())?;
        let regions = tracer.span(None, "data.sample_regions", "data", |_| {
            Workload::sample_query_regions(&domain, &spec)
        });
        let regions = regions.map_err(|e| e.to_string())?;
        tracer.span(None, "data.index_build", "data", |_| {
            dataset.region_index(config.index_kind)
        });
        let threads = surf_ml::parallel::resolve_threads(config.threads);
        counters
            .workload_evals
            .fetch_add(regions.len() as u64, Relaxed);
        let values = tracer.span(None, "data.workload_eval", "data", |section| {
            surf_ml::parallel::parallel_map(regions, threads, |region| {
                tracer.span(Some(section), "data.evaluate", "data", |_| {
                    config
                        .statistic
                        .evaluate_with(dataset, region, config.index_kind)
                        .map(|value| RegionEvaluation {
                            region: region.clone(),
                            value: value.unwrap_or(config.empty_value),
                        })
                })
            })
        });
        let evaluations = values
            .into_iter()
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| e.to_string())?;
        let workload = Workload::from_evaluations(config.statistic, evaluations);

        let trainer = SurrogateTrainer {
            params: config.gbrt.clone(),
            hypertune: config.hypertune,
            threads: config.threads,
            seed: config.seed,
            engine: config.inference_engine,
            ..SurrogateTrainer::default()
        };
        let (model, report) = tracer.span(None, "ml.train", "ml", |_| {
            train(&trainer, &workload, tracer)
        })?;

        let kde = if config.use_kde_guide {
            let kde = tracer.span(
                None,
                "ml.kde_fit",
                "ml",
                |_| -> Result<KernelDensity, String> {
                    let mut rng = StdRng::seed_from_u64(config.seed ^ 0x5eed_cafe);
                    let sample = dataset
                        .sample(config.kde_sample.max(16), &mut rng)
                        .map_err(|e| e.to_string())?;
                    let points: Vec<Vec<f64>> =
                        (0..sample.len()).map(|i| sample.row(i).values).collect();
                    KernelDensity::fit_scott(&points).map_err(|e| e.to_string())
                },
            );
            Some(kde?)
        } else {
            None
        };
        Ok(SurfState {
            config: config.clone(),
            domain,
            dimensions: dataset.dimensions(),
            model,
            kde,
            training_report: report,
            workload_size: workload.len(),
        })
    })
}

/// `SurrogateTrainer::train`, replayed: split, quantize, boost, score the held-out part,
/// compile. A hyper-tuned configuration is trained in one piece.
fn train(
    trainer: &SurrogateTrainer,
    workload: &Workload,
    tracer: &Tracer,
) -> Result<(Gbrt, TrainingReport), String> {
    if trainer.hypertune {
        let (surrogate, report) = trainer.train(workload).map_err(|e| e.to_string())?;
        return Ok((surrogate.model().clone(), report));
    }
    let start = Instant::now();
    let (train, holdout) = tracer.span(None, "data.split", "data", |_| {
        let (train, holdout) = workload.train_test_split(trainer.holdout_fraction, trainer.seed);
        (train.to_xy(), holdout.to_xy())
    });
    let ((train_x, train_y), (holdout_x, holdout_y)) = (train, holdout);
    let threads = surf_ml::parallel::resolve_threads(trainer.threads);
    let params = &trainer.params;
    let model = if params.max_bins > 0 {
        let matrix = tracer.span(None, "ml.matrix", "ml", |_| {
            FeatureMatrix::from_rows_threaded(&train_x, params.max_bins, threads)
        });
        let matrix = matrix.map_err(|e| e.to_string())?;
        tracer.span(None, "ml.gbrt_fit", "ml", |_| {
            Gbrt::fit_matrix_threaded(&matrix, &train_y, params, threads)
        })
    } else {
        tracer.span(None, "ml.gbrt_fit", "ml", |_| {
            Gbrt::fit(&train_x, &train_y, params)
        })
    }
    .map_err(|e| e.to_string())?;
    let holdout_rmse = tracer.span(None, "ml.holdout", "ml", |_| {
        if holdout_x.is_empty() {
            Ok(f64::NAN)
        } else {
            model
                .predict(&holdout_x)
                .map(|predicted| surf_ml::metrics::rmse(&holdout_y, &predicted))
        }
    });
    let holdout_rmse = holdout_rmse.map_err(|e| e.to_string())?;
    // The surrogate wrapper compiles the ensemble; the replay keeps the walker form, as
    // the persisted state does, and pays the same compile.
    let dimensions = workload.dimensions();
    tracer
        .span(None, "ml.compile", "ml", |_| {
            GbrtSurrogate::from_model_with_engine(model.clone(), dimensions, trainer.engine)
        })
        .map_err(|e| e.to_string())?;
    let report = TrainingReport {
        training_time: start.elapsed(),
        training_examples: train_x.len(),
        holdout_rmse,
        combinations_evaluated: 1,
        chosen_params: params.clone(),
    };
    Ok((model, report))
}

/// Whether two fitted states are the same program output: everything but the measured
/// training time.
pub fn same_state(a: &SurfState, b: &SurfState) -> bool {
    let mut b = b.clone();
    b.training_report.training_time = a.training_report.training_time;
    *a == b
}

/// Whether two mining outcomes are the same program output: everything but the measured
/// mining time, with the convergence trace compared bit for bit (it holds NaN while the
/// whole swarm is infeasible).
pub fn same_outcome(a: &MiningOutcome, b: &MiningOutcome) -> bool {
    a.regions == b.regions
        && a.swarm_valid_fraction.to_bits() == b.swarm_valid_fraction.to_bits()
        && a.iterations_run == b.iterations_run
        && a.converged == b.converged
        && a.surrogate_evaluations == b.surrogate_evaluations
        && a.convergence_trace.len() == b.convergence_trace.len()
        && a.convergence_trace
            .iter()
            .zip(&b.convergence_trace)
            .all(|(x, y)| x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan()))
}
