//! Surrogate models: the cheap stand-ins for the expensive back-end statistic evaluation
//! (Definition 3 and Section IV of the paper).
//!
//! A [`Surrogate`] maps a region to an estimate of the statistic `y = f(x, l)`. Two
//! implementations are provided:
//!
//! * [`TrueFunctionSurrogate`] — evaluates the real statistic over the dataset; this is the
//!   expensive path used by the `f+GlowWorm` and `Naive` baselines.
//! * [`GbrtSurrogate`] — a gradient-boosted ensemble trained on past region evaluations; this
//!   is SuRF's `f̂`, whose evaluation cost is independent of the dataset size `N`.
//!
//! [`SurrogateTrainer`] encapsulates the (one-off) training step, optionally running the
//! paper's 144-combination grid search with K-fold cross-validation.

use std::time::{Duration, Instant};

use surf_data::dataset::Dataset;
use surf_data::region::Region;
use surf_data::statistic::Statistic;
use surf_data::workload::Workload;
use surf_ml::compiled::{CompiledEnsemble, InferenceEngine};
use surf_ml::cv::KFold;
use surf_ml::gbrt::{Gbrt, GbrtParams};
use surf_ml::grid::{GbrtGrid, GridSearch};
use surf_ml::matrix::FeatureMatrix;
use surf_ml::metrics::rmse;

use crate::error::SurfError;

/// A model producing statistic estimates for arbitrary regions.
pub trait Surrogate: Sync {
    /// Estimated statistic for the region.
    fn predict(&self, region: &Region) -> f64;

    /// Estimated statistics for a batch of regions, in request order. The default delegates
    /// to [`Surrogate::predict`] region by region; [`GbrtSurrogate`] overrides it to route
    /// the whole batch through its compiled ensemble in one blocked pass. Overrides
    /// must return exactly the value `predict` would for every region.
    fn predict_batch(&self, regions: &[Region]) -> Vec<f64> {
        regions.iter().map(|r| self.predict(r)).collect()
    }

    /// Data dimensionality `d` the surrogate expects.
    fn dimensions(&self) -> usize;

    /// Whether evaluating the surrogate touches the underlying data (true only for the
    /// true-function surrogate; drives the cost accounting of the comparison harness).
    fn touches_data(&self) -> bool {
        false
    }
}

/// The true statistic `f`, evaluated over the dataset — expensive but exact. Evaluation is
/// served by the dataset's own spatial index (see `surf_data::index` and
/// `Dataset::with_index_kind`).
pub struct TrueFunctionSurrogate<'a> {
    dataset: &'a Dataset,
    statistic: Statistic,
    empty_value: f64,
}

impl<'a> TrueFunctionSurrogate<'a> {
    /// Creates a true-function surrogate. `empty_value` is reported for regions containing no
    /// points when the statistic is undefined on empty sets.
    pub fn new(dataset: &'a Dataset, statistic: Statistic, empty_value: f64) -> Self {
        Self {
            dataset,
            statistic,
            empty_value,
        }
    }

    /// The statistic this surrogate evaluates.
    pub fn statistic(&self) -> Statistic {
        self.statistic
    }
}

impl Surrogate for TrueFunctionSurrogate<'_> {
    fn predict(&self, region: &Region) -> f64 {
        self.statistic
            .evaluate_or(self.dataset, region, self.empty_value)
            .unwrap_or(self.empty_value)
    }

    fn dimensions(&self) -> usize {
        self.dataset.dimensions()
    }

    fn touches_data(&self) -> bool {
        true
    }
}

/// SuRF's learned surrogate `f̂`: a gradient-boosted ensemble over the `2d`-dimensional region
/// representation `[x, l]`.
///
/// Construction compiles the fitted walker into a [`CompiledEnsemble`] once — both
/// `Surf::fit` and `Surf::from_state` go through [`GbrtSurrogate::from_model`], so every
/// serving path (single predictions, batched `/predict`, GSO mining) runs on the
/// compiled form, bit-identical to the walker for every input.
#[derive(Debug, Clone, PartialEq)]
pub struct GbrtSurrogate {
    model: Gbrt,
    compiled: CompiledEnsemble,
    dimensions: usize,
}

impl GbrtSurrogate {
    /// Wraps an already-fitted model, compiling it for inference. The model must have been
    /// trained on `2·dimensions` features.
    pub fn from_model(model: Gbrt, dimensions: usize) -> Result<Self, SurfError> {
        if model.features() != 2 * dimensions {
            return Err(SurfError::InvalidConfig(format!(
                "model expects {} features but a {}-dimensional region space needs {}",
                model.features(),
                dimensions,
                2 * dimensions
            )));
        }
        let compiled = model.compile()?;
        Ok(Self {
            model,
            compiled,
            dimensions,
        })
    }

    /// [`GbrtSurrogate::from_model`] for a configuration's [`InferenceEngine`], whose one
    /// value is the compiled engine.
    pub fn from_model_with_engine(
        model: Gbrt,
        dimensions: usize,
        engine: InferenceEngine,
    ) -> Result<Self, SurfError> {
        let InferenceEngine::Compiled = engine;
        Self::from_model(model, dimensions)
    }

    /// The underlying boosted ensemble (the walker form — this is what gets persisted).
    pub fn model(&self) -> &Gbrt {
        &self.model
    }

    /// The compiled ensemble that serves every prediction.
    pub fn compiled(&self) -> &CompiledEnsemble {
        &self.compiled
    }

    /// Flattens a homogeneous batch of regions, or `None` when any region's width disagrees
    /// with the model (those batches degrade to the per-region scalar path).
    fn flatten_batch(&self, regions: &[Region]) -> Option<Vec<f64>> {
        let width = self.compiled.features();
        if regions.iter().any(|r| 2 * r.dimensions() != width) {
            return None;
        }
        let mut flat = Vec::with_capacity(regions.len() * width);
        for region in regions {
            flat.extend_from_slice(&region.to_solution_vector());
        }
        Some(flat)
    }
}

impl Surrogate for GbrtSurrogate {
    fn predict(&self, region: &Region) -> f64 {
        self.compiled
            .predict_one(&region.to_solution_vector())
            .unwrap_or(f64::NAN)
    }

    fn predict_batch(&self, regions: &[Region]) -> Vec<f64> {
        let width = self.compiled.features();
        // A region of the wrong dimensionality must degrade to a per-region NaN exactly as
        // the scalar path does, so mixed batches fall back to it.
        let Some(flat) = self.flatten_batch(regions) else {
            return regions.iter().map(|region| self.predict(region)).collect();
        };
        let mut out = vec![0.0; regions.len()];
        if self
            .compiled
            .predict_batch_into(&flat, width, &mut out)
            .is_err()
        {
            out.fill(f64::NAN);
        }
        out
    }

    fn dimensions(&self) -> usize {
        self.dimensions
    }
}

/// What [`SurrogateTrainer::train`] reports alongside the fitted surrogate.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct TrainingReport {
    /// Wall-clock time spent on training (including grid search when enabled).
    pub training_time: Duration,
    /// Number of past region evaluations used.
    pub training_examples: usize,
    /// RMSE on a held-out fraction of the workload.
    pub holdout_rmse: f64,
    /// Number of hyper-parameter combinations evaluated (1 when hyper-tuning is disabled).
    pub combinations_evaluated: usize,
    /// The hyper-parameters of the final model.
    pub chosen_params: GbrtParams,
}

/// Trains a [`GbrtSurrogate`] from a past-query workload.
#[derive(Debug, Clone)]
pub struct SurrogateTrainer {
    /// Base GBRT configuration (used directly when hyper-tuning is disabled).
    pub params: GbrtParams,
    /// Run the paper's grid search with K-fold cross-validation before the final fit.
    pub hypertune: bool,
    /// The grid to sweep when hyper-tuning.
    pub grid: GbrtGrid,
    /// Folds used by the grid search.
    pub folds: usize,
    /// Fraction of the workload held out to report the out-of-sample RMSE.
    pub holdout_fraction: f64,
    /// OS threads the grid search fans candidates out over when hyper-tuning (`0` =
    /// automatic, `1` = sequential).
    pub threads: usize,
    /// Seed for splits.
    pub seed: u64,
    /// Inference engine the fitted surrogate serves predictions with (the compiled
    /// engine, the only one).
    pub engine: InferenceEngine,
}

impl Default for SurrogateTrainer {
    fn default() -> Self {
        Self {
            params: GbrtParams::paper_default(),
            hypertune: false,
            grid: GbrtGrid::paper_grid(),
            folds: 3,
            holdout_fraction: 0.2,
            threads: 0,
            seed: 17,
            engine: InferenceEngine::default(),
        }
    }
}

impl SurrogateTrainer {
    /// A fast trainer configuration for tests and examples.
    pub fn quick() -> Self {
        Self {
            params: GbrtParams::quick(),
            ..Self::default()
        }
    }

    /// Enables or disables hyper-parameter tuning.
    pub fn with_hypertune(mut self, hypertune: bool) -> Self {
        self.hypertune = hypertune;
        self
    }

    /// Overrides the hyper-parameter grid.
    pub fn with_grid(mut self, grid: GbrtGrid) -> Self {
        self.grid = grid;
        self
    }

    /// Overrides the base GBRT parameters.
    pub fn with_params(mut self, params: GbrtParams) -> Self {
        self.params = params;
        self
    }

    /// Overrides the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Overrides the grid-search thread count (`0` = automatic).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Trains a surrogate on the workload and reports training cost and held-out accuracy.
    ///
    /// With the histogram training engine enabled (`params.max_bins > 0`, the default) the
    /// workload features are quantized **once** into a [`FeatureMatrix`] that is shared by
    /// reference across every grid cell and fold of the hyper-tuning search *and* the final
    /// refit; per-node histogram construction additionally fans out over the trainer's
    /// thread knob on large nodes.
    pub fn train(&self, workload: &Workload) -> Result<(GbrtSurrogate, TrainingReport), SurfError> {
        if workload.is_empty() {
            return Err(SurfError::InvalidConfig(
                "cannot train a surrogate on an empty workload".into(),
            ));
        }
        let dimensions = workload.dimensions();
        let start = Instant::now();
        let (train, holdout) = workload.train_test_split(self.holdout_fraction, self.seed);
        let (train_x, train_y) = train.to_xy();
        let (holdout_x, holdout_y) = holdout.to_xy();

        let threads = surf_ml::parallel::resolve_threads(self.threads);
        let matrix = if self.params.max_bins > 0 {
            Some(FeatureMatrix::from_rows_threaded(
                &train_x,
                self.params.max_bins,
                threads,
            )?)
        } else {
            None
        };

        let (params, combinations) = if self.hypertune {
            let folds = self.folds.clamp(2, train_x.len().max(2));
            let search = GridSearch::new(self.grid.clone(), self.params.clone())
                .with_kfold(KFold::new(folds, self.seed))
                .with_threads(threads);
            let result = match &matrix {
                Some(matrix) => search.search_matrix(matrix, &train_x, &train_y)?,
                None => search.search(&train_x, &train_y)?,
            };
            (result.best_params().clone(), result.evaluations.len())
        } else {
            (self.params.clone(), 1)
        };

        let model = match &matrix {
            Some(matrix) => Gbrt::fit_matrix_threaded(matrix, &train_y, &params, threads)?,
            None => Gbrt::fit(&train_x, &train_y, &params)?,
        };
        let holdout_rmse = if holdout_x.is_empty() {
            f64::NAN
        } else {
            rmse(&holdout_y, &model.predict(&holdout_x)?)
        };
        let surrogate = GbrtSurrogate::from_model(model, dimensions)?;
        let report = TrainingReport {
            training_time: start.elapsed(),
            training_examples: train_x.len(),
            holdout_rmse,
            combinations_evaluated: combinations,
            chosen_params: params,
        };
        Ok((surrogate, report))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use surf_data::synthetic::{SyntheticDataset, SyntheticSpec};
    use surf_data::workload::WorkloadSpec;
    use surf_ml::grid::GbrtGrid;

    fn density_setup() -> (SyntheticDataset, Workload) {
        let synthetic = SyntheticDataset::generate(
            &SyntheticSpec::density(2, 1)
                .with_points(4_000)
                .with_seed(21),
        );
        let workload = Workload::generate(
            &synthetic.dataset,
            Statistic::Count,
            &WorkloadSpec::default().with_queries(1_200).with_seed(5),
        )
        .unwrap();
        (synthetic, workload)
    }

    #[test]
    fn true_function_surrogate_matches_direct_evaluation() {
        let (synthetic, workload) = density_setup();
        let surrogate = TrueFunctionSurrogate::new(&synthetic.dataset, Statistic::Count, 0.0);
        assert!(surrogate.touches_data());
        assert_eq!(surrogate.dimensions(), 2);
        assert_eq!(surrogate.statistic(), Statistic::Count);
        for eval in workload.evaluations.iter().take(5) {
            assert_eq!(surrogate.predict(&eval.region), eval.value);
        }
    }

    #[test]
    fn trained_surrogate_tracks_the_true_function() {
        let (synthetic, workload) = density_setup();
        let (surrogate, report) = SurrogateTrainer::quick().train(&workload).unwrap();
        assert!(!surrogate.touches_data());
        assert_eq!(surrogate.dimensions(), 2);
        assert!(report.training_examples > 0);
        assert_eq!(report.combinations_evaluated, 1);

        // The surrogate must broadly separate the dense GT region from an empty corner.
        let gt = &synthetic.ground_truth[0];
        let corner = Region::new(vec![0.02, 0.02], vec![0.01, 0.01]).unwrap();
        let dense_estimate = surrogate.predict(gt);
        let sparse_estimate = surrogate.predict(&corner);
        assert!(
            dense_estimate > sparse_estimate,
            "dense {dense_estimate} vs sparse {sparse_estimate}"
        );
        // Holdout RMSE should be far below the dense region's count (~1200).
        assert!(report.holdout_rmse < 600.0, "rmse {}", report.holdout_rmse);
    }

    #[test]
    fn hypertuned_training_evaluates_the_grid_and_takes_longer() {
        let (_, workload) = density_setup();
        let plain = SurrogateTrainer::quick().train(&workload).unwrap().1;
        let tuned = SurrogateTrainer::quick()
            .with_hypertune(true)
            .with_grid(GbrtGrid::quick_grid())
            .train(&workload)
            .unwrap()
            .1;
        assert_eq!(tuned.combinations_evaluated, 8);
        assert!(tuned.training_time >= plain.training_time);
    }

    #[test]
    fn exact_and_histogram_training_engines_both_serve_the_pipeline() {
        let (_, workload) = density_setup();
        let histogram = SurrogateTrainer::quick();
        assert!(
            histogram.params.max_bins > 0,
            "histogram engine is the default"
        );
        let (_, histogram_report) = histogram.train(&workload).unwrap();
        let exact = SurrogateTrainer::quick().with_params(GbrtParams::quick().with_max_bins(0));
        let (_, exact_report) = exact.train(&workload).unwrap();
        // Both engines deliver surrogates in the same accuracy class (dense region counts
        // are ~1200; both must be far below that).
        assert!(
            histogram_report.holdout_rmse < 600.0,
            "histogram rmse {}",
            histogram_report.holdout_rmse
        );
        assert!(
            exact_report.holdout_rmse < 600.0,
            "exact rmse {}",
            exact_report.holdout_rmse
        );
        assert_eq!(histogram_report.chosen_params.max_bins, 256);
        assert_eq!(exact_report.chosen_params.max_bins, 0);
    }

    #[test]
    fn from_model_validates_feature_width() {
        let x = vec![vec![0.1, 0.2, 0.3], vec![0.4, 0.5, 0.6]];
        let y = vec![1.0, 2.0];
        let model = Gbrt::fit(&x, &y, &GbrtParams::quick().with_n_estimators(2)).unwrap();
        // 3 features cannot represent a 2-dimensional region space (needs 4).
        assert!(GbrtSurrogate::from_model(model, 2).is_err());
    }

    #[test]
    fn empty_workload_is_rejected() {
        let workload = Workload {
            statistic: Statistic::Count,
            evaluations: vec![],
        };
        assert!(SurrogateTrainer::quick().train(&workload).is_err());
    }
}
