//! Gradient-Boosted Regression Trees — the "XGB" surrogate model of the paper.
//!
//! The ensemble minimizes squared error by stage-wise fitting regression trees to the current
//! residuals, scaled by a learning rate (shrinkage). The hyper-parameters mirror the ones the
//! paper tunes with grid search (Section V-E): `learning_rate`, `max_depth`, `n_estimators`
//! and `reg_lambda`, plus row subsampling and early stopping on a validation split.
//!
//! Trees are grown by the histogram trainer: the features are quantized once into a
//! [`FeatureMatrix`] of at most `max_bins` bins per feature, and every tree is grown by
//! sweeping per-node gradient histograms — the LightGBM-class algorithm; see
//! [`crate::matrix`]. [`Gbrt::fit`] builds the matrix itself; callers that fit many models on
//! the same data (cross-validation folds, grid cells, the final refit) build it once and share
//! it by reference through [`Gbrt::fit_matrix_threaded`].
//!
//! [`Gbrt::fit_exact`] runs the same boosting loop over the exact sorting trainer, which
//! re-sorts every feature at every node. It is the reference the histogram trainer is tested
//! against, not a training option: with `max_bins` at least the number of distinct values of
//! every feature, the two are **bit-identical** (same trees, same histories, same
//! predictions); the `hist_parity` property suite pins this down.

use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

use crate::error::{validate_targets, validate_xy, MlError};
use crate::matrix::{FeatureMatrix, MAX_BINS_LIMIT};
use crate::metrics::rmse;
use crate::tree::{HistArena, RegressionTree, TreeParams};

/// Hyper-parameters of the boosted ensemble.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GbrtParams {
    /// Number of boosting rounds (`n_estimators` in the paper's grid).
    pub n_estimators: usize,
    /// Shrinkage applied to every tree's contribution (`learning_rate`).
    pub learning_rate: f64,
    /// Maximum depth of each tree (`max_depth`).
    pub max_depth: usize,
    /// L2 regularization on leaf values (`reg_lambda`).
    pub reg_lambda: f64,
    /// Fraction of rows sampled (without replacement) for each tree; 1.0 disables subsampling.
    pub subsample: f64,
    /// Fraction of features each tree may split on (`colsample_bytree`); 1.0 disables the
    /// subsampling. A fresh subset of `ceil(colsample · d)` features (at least one) is drawn
    /// per boosting round from the same seeded RNG as row subsampling, so runs are
    /// deterministic and [`Gbrt::fit_exact`] draws the same subsets as [`Gbrt::fit`].
    pub colsample: f64,
    /// Minimum number of examples per leaf.
    pub min_samples_leaf: usize,
    /// Stop early when the validation RMSE has not improved for this many rounds (0 disables
    /// early stopping).
    pub early_stopping_rounds: usize,
    /// Fraction of the training data held out as the early-stopping validation split.
    pub validation_fraction: f64,
    /// Maximum number of histogram bins per feature, in `1..=65_536` (bin ids are `u16`).
    /// Features with at most `max_bins` distinct values are trained bit-identically to the
    /// exact reference trainer ([`Gbrt::fit_exact`]); coarser quantization trades split
    /// resolution for speed.
    pub max_bins: usize,
    /// RNG seed for subsampling and the validation split.
    pub seed: u64,
}

impl Default for GbrtParams {
    fn default() -> Self {
        Self {
            n_estimators: 100,
            learning_rate: 0.1,
            max_depth: 5,
            reg_lambda: 1.0,
            subsample: 1.0,
            colsample: 1.0,
            min_samples_leaf: 1,
            early_stopping_rounds: 0,
            validation_fraction: 0.1,
            max_bins: 256,
            seed: 0,
        }
    }
}

impl GbrtParams {
    /// Small, fast configuration useful in tests and quick experiments.
    pub fn quick() -> Self {
        Self {
            n_estimators: 40,
            max_depth: 4,
            ..Self::default()
        }
    }

    /// The configuration the paper reports as its default XGB setup.
    pub fn paper_default() -> Self {
        Self {
            n_estimators: 100,
            learning_rate: 0.1,
            max_depth: 7,
            reg_lambda: 1.0,
            ..Self::default()
        }
    }

    /// Builder-style override of the number of boosting rounds.
    pub fn with_n_estimators(mut self, n: usize) -> Self {
        self.n_estimators = n;
        self
    }

    /// Builder-style override of the learning rate.
    pub fn with_learning_rate(mut self, lr: f64) -> Self {
        self.learning_rate = lr;
        self
    }

    /// Builder-style override of the tree depth.
    pub fn with_max_depth(mut self, depth: usize) -> Self {
        self.max_depth = depth;
        self
    }

    /// Builder-style override of the L2 leaf regularization.
    pub fn with_reg_lambda(mut self, lambda: f64) -> Self {
        self.reg_lambda = lambda;
        self
    }

    /// Builder-style override of the row-subsampling fraction.
    pub fn with_subsample(mut self, subsample: f64) -> Self {
        self.subsample = subsample;
        self
    }

    /// Builder-style override of the per-tree feature-subsampling fraction.
    pub fn with_colsample(mut self, colsample: f64) -> Self {
        self.colsample = colsample;
        self
    }

    /// Builder-style override of the early-stopping patience.
    pub fn with_early_stopping(mut self, rounds: usize) -> Self {
        self.early_stopping_rounds = rounds;
        self
    }

    /// Builder-style override of the histogram bin cap (`1..=65_536`).
    pub fn with_max_bins(mut self, max_bins: usize) -> Self {
        self.max_bins = max_bins;
        self
    }

    /// Builder-style override of the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Validates the parameters.
    pub fn validate(&self) -> Result<(), MlError> {
        if self.n_estimators == 0 {
            return Err(MlError::InvalidParameter {
                name: "n_estimators",
                value: "0".into(),
            });
        }
        if self.max_depth == 0 {
            return Err(MlError::InvalidParameter {
                name: "max_depth",
                value: "0".into(),
            });
        }
        if !(self.learning_rate.is_finite() && self.learning_rate > 0.0) {
            return Err(MlError::InvalidParameter {
                name: "learning_rate",
                value: format!("{}", self.learning_rate),
            });
        }
        if !(self.subsample > 0.0 && self.subsample <= 1.0) {
            return Err(MlError::InvalidParameter {
                name: "subsample",
                value: format!("{}", self.subsample),
            });
        }
        if !(self.colsample > 0.0 && self.colsample <= 1.0) {
            return Err(MlError::InvalidParameter {
                name: "colsample",
                value: format!("{}", self.colsample),
            });
        }
        if !(self.validation_fraction > 0.0 && self.validation_fraction < 1.0) {
            return Err(MlError::InvalidParameter {
                name: "validation_fraction",
                value: format!("{}", self.validation_fraction),
            });
        }
        if !(self.reg_lambda.is_finite() && self.reg_lambda >= 0.0) {
            return Err(MlError::InvalidParameter {
                name: "reg_lambda",
                value: format!("{}", self.reg_lambda),
            });
        }
        if !(1..=MAX_BINS_LIMIT).contains(&self.max_bins) {
            return Err(MlError::InvalidParameter {
                name: "max_bins",
                value: self.max_bins.to_string(),
            });
        }
        self.tree_params().validate()
    }

    fn tree_params(&self) -> TreeParams {
        TreeParams {
            max_depth: self.max_depth.max(1),
            min_samples_split: 2 * self.min_samples_leaf.max(1),
            min_samples_leaf: self.min_samples_leaf.max(1),
            min_gain: 1e-12,
            leaf_regularization: self.reg_lambda,
        }
    }
}

/// A fitted gradient-boosted ensemble.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Gbrt {
    base_prediction: f64,
    trees: Vec<RegressionTree>,
    learning_rate: f64,
    features: usize,
    train_rmse_history: Vec<f64>,
    validation_rmse_history: Vec<f64>,
}

/// Where the boosting loop sources its per-round trees from: raw rows (exact sorting
/// trainer) or a shared quantized matrix (histogram trainer) with the histograms its rounds
/// recycle.
enum TreeSource<'a> {
    Exact(&'a [Vec<f64>]),
    Binned {
        matrix: &'a FeatureMatrix,
        threads: usize,
        arena: HistArena,
    },
}

/// One fitted boosting round, able to predict training rows through its source.
enum RoundTree {
    Exact(RegressionTree),
    Binned(crate::tree::BinnedTree),
}

impl TreeSource<'_> {
    fn rows(&self) -> usize {
        match self {
            TreeSource::Exact(features) => features.len(),
            TreeSource::Binned { matrix, .. } => matrix.rows(),
        }
    }

    fn width(&self) -> usize {
        match self {
            TreeSource::Exact(features) => features[0].len(),
            TreeSource::Binned { matrix, .. } => matrix.features(),
        }
    }

    /// Fits one round's tree on the sampled rows and features. The boosting loop's inputs
    /// are validated once at the public entry points, so the per-round fits skip the
    /// O(n·d) re-validation.
    fn fit_round(
        &mut self,
        residuals: &[f64],
        sample: &[usize],
        feature_sample: &[usize],
        tree_params: &TreeParams,
    ) -> Result<RoundTree, MlError> {
        match self {
            TreeSource::Exact(features) => {
                Ok(RoundTree::Exact(RegressionTree::fit_on_prevalidated(
                    features,
                    residuals,
                    sample,
                    tree_params,
                    feature_sample,
                )?))
            }
            TreeSource::Binned {
                matrix,
                threads,
                arena,
            } => Ok(RoundTree::Binned(RegressionTree::fit_binned_prevalidated(
                matrix,
                residuals,
                sample,
                tree_params,
                *threads,
                feature_sample,
                arena,
            )?)),
        }
    }
}

impl RoundTree {
    /// Adds `learning_rate × tree(row)` to the prediction of every row in `sample` (the
    /// rows the round trained on), `unsampled` (training rows the round left out) and
    /// `held_out` (the early-stopping split). The exact trainer walks the tree for every row.
    /// The histogram trainer takes the sample's values from the leaves its rows reached
    /// during growth and walks only the other rows: the same adds, so `Gbrt::fit_exact`
    /// checks them against the walk.
    fn add_to(
        &self,
        source: &TreeSource<'_>,
        learning_rate: f64,
        sample: &[usize],
        unsampled: &[usize],
        held_out: &[usize],
        predictions: &mut [f64],
    ) -> Result<(), MlError> {
        let outside = unsampled.iter().chain(held_out);
        match (self, source) {
            (RoundTree::Exact(tree), TreeSource::Exact(features)) => {
                for &i in sample.iter().chain(outside) {
                    predictions[i] += learning_rate * tree.predict_one(&features[i])?;
                }
            }
            (RoundTree::Binned(tree), TreeSource::Binned { matrix, .. }) => {
                tree.add_leaf_values(learning_rate, predictions);
                for &i in outside {
                    predictions[i] += learning_rate * tree.predict_row(matrix, i);
                }
            }
            _ => unreachable!("round tree always matches its source"),
        }
        Ok(())
    }

    fn into_tree(self) -> RegressionTree {
        match self {
            RoundTree::Exact(tree) => tree,
            RoundTree::Binned(tree) => tree.into_tree(),
        }
    }
}

impl Gbrt {
    /// Fits the ensemble on row-major features: quantizes them into a [`FeatureMatrix`] of
    /// at most `params.max_bins` bins per feature and grows every tree with the histogram
    /// trainer. Callers fitting many models on the same data should build the matrix once
    /// and use [`Gbrt::fit_matrix_threaded`] instead.
    pub fn fit(
        features: &[Vec<f64>],
        targets: &[f64],
        params: &GbrtParams,
    ) -> Result<Self, MlError> {
        let matrix = FeatureMatrix::from_rows(features, params.max_bins)?;
        Self::fit_matrix_threaded(&matrix, targets, params, 1)
    }

    /// Fits the ensemble with the exact sorting trainer, which re-sorts every feature at
    /// every node: the reference [`Gbrt::fit`] is tested against (`hist_parity`), not a
    /// training option. The boosting loop, subsampling and early stopping are
    /// [`Gbrt::fit`]'s; `params.max_bins` is validated but not used.
    pub fn fit_exact(
        features: &[Vec<f64>],
        targets: &[f64],
        params: &GbrtParams,
    ) -> Result<Self, MlError> {
        validate_xy(features, targets)?;
        params.validate()?;
        let rows: Vec<usize> = (0..features.len()).collect();
        Self::fit_rows(TreeSource::Exact(features), targets, &rows, params)
    }

    /// Fits the ensemble on all rows of a pre-built, shared [`FeatureMatrix`]
    /// (`params.max_bins` is validated but not used — the matrix's own quantization
    /// applies), parallelizing per-node histogram construction over up to `threads` OS
    /// threads on large nodes. The fitted model is identical for every thread count.
    pub fn fit_matrix_threaded(
        matrix: &FeatureMatrix,
        targets: &[f64],
        params: &GbrtParams,
        threads: usize,
    ) -> Result<Self, MlError> {
        let rows: Vec<usize> = (0..matrix.rows()).collect();
        Self::fit_matrix_on_threaded(matrix, targets, &rows, params, threads)
    }

    /// Fits the ensemble on the subset of matrix rows given by `rows` — the entry point
    /// cross-validation folds use so a single quantization serves every fold. `targets` is
    /// indexed globally (one entry per matrix row).
    pub(crate) fn fit_matrix_on_threaded(
        matrix: &FeatureMatrix,
        targets: &[f64],
        rows: &[usize],
        params: &GbrtParams,
        threads: usize,
    ) -> Result<Self, MlError> {
        validate_targets(targets)?;
        if targets.len() != matrix.rows() {
            return Err(MlError::LengthMismatch {
                features: matrix.rows(),
                targets: targets.len(),
            });
        }
        params.validate()?;
        if rows.is_empty() {
            return Err(MlError::EmptyTrainingSet);
        }
        if let Some(&row) = rows.iter().find(|&&i| i >= matrix.rows()) {
            return Err(MlError::InvalidParameter {
                name: "rows",
                value: format!("row {row} out of range ({} rows)", matrix.rows()),
            });
        }
        Self::fit_rows(
            TreeSource::Binned {
                matrix,
                threads: threads.max(1),
                arena: HistArena::new(matrix),
            },
            targets,
            rows,
            params,
        )
    }

    /// The boosting loop shared by both trainers. `rows` are the (globally indexed) rows the
    /// ensemble trains and evaluates on; inputs are validated by the callers.
    fn fit_rows(
        mut source: TreeSource<'_>,
        targets: &[f64],
        rows: &[usize],
        params: &GbrtParams,
    ) -> Result<Self, MlError> {
        let width = source.width();
        let n_global = source.rows();
        let n = rows.len();
        let mut rng = StdRng::seed_from_u64(params.seed);

        // Optional validation split for early stopping.
        let use_early_stopping = params.early_stopping_rounds > 0 && n >= 20;
        let (train_idx, valid_idx) = if use_early_stopping {
            let mut idx: Vec<usize> = rows.to_vec();
            shuffle(&mut idx, &mut rng);
            let valid_size = ((n as f64) * params.validation_fraction).ceil() as usize;
            let valid_size = valid_size.clamp(1, n - 1);
            let valid: Vec<usize> = idx[..valid_size].to_vec();
            let train: Vec<usize> = idx[valid_size..].to_vec();
            (train, valid)
        } else {
            (rows.to_vec(), Vec::new())
        };

        let base_prediction =
            train_idx.iter().map(|&i| targets[i]).sum::<f64>() / train_idx.len() as f64;
        let mut predictions = vec![base_prediction; n_global];
        let mut residuals = vec![0.0; n_global];
        let tree_params = params.tree_params();
        let all_features: Vec<usize> = (0..width).collect();

        let mut trees = Vec::with_capacity(params.n_estimators);
        let mut train_rmse_history = Vec::with_capacity(params.n_estimators);
        let mut validation_rmse_history = Vec::new();
        let mut best_validation = f64::INFINITY;
        let mut best_round = 0usize;

        for round in 0..params.n_estimators {
            // Residuals of the squared-error loss are simply y − ŷ.
            for &i in rows {
                residuals[i] = targets[i] - predictions[i];
            }

            // Row subsampling (stochastic gradient boosting): the round trains on `sample`
            // and leaves out `unsampled`.
            let shuffled;
            let (sample, unsampled) = if params.subsample < 1.0 {
                let take = ((train_idx.len() as f64) * params.subsample).ceil() as usize;
                let mut idx = train_idx.clone();
                shuffle(&mut idx, &mut rng);
                shuffled = idx;
                shuffled.split_at(take.clamp(1, train_idx.len()))
            } else {
                (&train_idx[..], &[][..])
            };

            // Per-tree feature subsampling (`colsample`), drawn after the row sample from
            // the same RNG stream in both trainers. Sorted so the split search visits
            // candidates in the full sweep's order (identical tie-breaking).
            let feature_sample: Vec<usize> = if params.colsample < 1.0 {
                let take = ((width as f64) * params.colsample).ceil() as usize;
                let mut cols = all_features.clone();
                shuffle(&mut cols, &mut rng);
                cols.truncate(take.max(1));
                cols.sort_unstable();
                cols
            } else {
                all_features.clone()
            };

            let obs = surf_obs::global();
            let round_span = obs.timer();
            let tree = source.fit_round(&residuals, sample, &feature_sample, &tree_params)?;
            obs.record(&obs.ml_round_fit, round_span);
            tree.add_to(
                &source,
                params.learning_rate,
                sample,
                unsampled,
                &valid_idx,
                &mut predictions,
            )?;
            trees.push(tree.into_tree());

            let train_truth: Vec<f64> = train_idx.iter().map(|&i| targets[i]).collect();
            let train_pred: Vec<f64> = train_idx.iter().map(|&i| predictions[i]).collect();
            train_rmse_history.push(rmse(&train_truth, &train_pred));

            if use_early_stopping {
                let valid_truth: Vec<f64> = valid_idx.iter().map(|&i| targets[i]).collect();
                let valid_pred: Vec<f64> = valid_idx.iter().map(|&i| predictions[i]).collect();
                let validation_rmse = rmse(&valid_truth, &valid_pred);
                validation_rmse_history.push(validation_rmse);
                if validation_rmse < best_validation - 1e-12 {
                    best_validation = validation_rmse;
                    best_round = round;
                } else if round - best_round >= params.early_stopping_rounds {
                    trees.truncate(best_round + 1);
                    break;
                }
            }
        }

        Ok(Gbrt {
            base_prediction,
            trees,
            learning_rate: params.learning_rate,
            features: width,
            train_rmse_history,
            validation_rmse_history,
        })
    }

    /// Number of trees in the fitted ensemble (may be fewer than `n_estimators` when early
    /// stopping triggered).
    pub fn n_trees(&self) -> usize {
        self.trees.len()
    }

    /// Number of input features.
    pub fn features(&self) -> usize {
        self.features
    }

    /// Training RMSE after each boosting round.
    pub fn train_rmse_history(&self) -> &[f64] {
        &self.train_rmse_history
    }

    /// Validation RMSE after each boosting round (empty when early stopping was disabled).
    pub fn validation_rmse_history(&self) -> &[f64] {
        &self.validation_rmse_history
    }

    /// The mean-target base prediction every tree's contribution is added to.
    pub fn base_prediction(&self) -> f64 {
        self.base_prediction
    }

    /// The shrinkage applied to every tree's contribution.
    pub fn learning_rate(&self) -> f64 {
        self.learning_rate
    }

    /// The fitted trees, in boosting order.
    pub fn trees(&self) -> &[RegressionTree] {
        &self.trees
    }

    fn predict_one_prevalidated(&self, example: &[f64]) -> f64 {
        let mut prediction = self.base_prediction;
        for tree in &self.trees {
            prediction += self.learning_rate * tree.predict_one_prevalidated(example);
        }
        prediction
    }

    /// Predicts the target for one example. The feature width is validated once, not per
    /// tree.
    pub fn predict_one(&self, example: &[f64]) -> Result<f64, MlError> {
        if example.len() != self.features {
            return Err(MlError::FeatureWidthMismatch {
                expected: self.features,
                actual: example.len(),
            });
        }
        Ok(self.predict_one_prevalidated(example))
    }

    /// Predicts the targets for a batch of examples. Feature widths are validated once, up
    /// front, instead of per example (per tree) inside the prediction loop.
    pub fn predict(&self, examples: &[Vec<f64>]) -> Result<Vec<f64>, MlError> {
        for example in examples {
            if example.len() != self.features {
                return Err(MlError::FeatureWidthMismatch {
                    expected: self.features,
                    actual: example.len(),
                });
            }
        }
        Ok(examples
            .iter()
            .map(|e| self.predict_one_prevalidated(e))
            .collect())
    }

    /// Total split gain per feature, summed over all trees.
    pub fn feature_importance(&self) -> Vec<f64> {
        let mut importance = vec![0.0; self.features];
        for tree in &self.trees {
            for (i, g) in tree.feature_importance().into_iter().enumerate() {
                importance[i] += g;
            }
        }
        importance
    }
}

/// Fisher–Yates shuffle used for subsampling and validation splits.
fn shuffle(indices: &mut [usize], rng: &mut StdRng) {
    use rand::Rng;
    for i in (1..indices.len()).rev() {
        let j = rng.random_range(0..=i);
        indices.swap(i, j);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    /// Nonlinear target: y = sin(4x0) + x1^2, on a grid.
    fn nonlinear_data(n: usize, seed: u64) -> (Vec<Vec<f64>>, Vec<f64>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let features: Vec<Vec<f64>> = (0..n)
            .map(|_| vec![rng.random::<f64>(), rng.random::<f64>()])
            .collect();
        let targets: Vec<f64> = features
            .iter()
            .map(|x| (4.0 * x[0]).sin() + x[1] * x[1])
            .collect();
        (features, targets)
    }

    #[test]
    fn boosting_beats_the_mean_predictor() {
        let (x, y) = nonlinear_data(600, 1);
        let model = Gbrt::fit(&x, &y, &GbrtParams::quick()).unwrap();
        let predictions = model.predict(&x).unwrap();
        let model_rmse = rmse(&y, &predictions);
        let mean = y.iter().sum::<f64>() / y.len() as f64;
        let baseline_rmse = rmse(&y, &vec![mean; y.len()]);
        assert!(
            model_rmse < 0.35 * baseline_rmse,
            "model {model_rmse} vs baseline {baseline_rmse}"
        );
    }

    #[test]
    fn training_rmse_is_monotonically_non_increasing() {
        let (x, y) = nonlinear_data(300, 2);
        let model = Gbrt::fit(&x, &y, &GbrtParams::quick()).unwrap();
        let history = model.train_rmse_history();
        assert_eq!(history.len(), model.n_trees());
        for window in history.windows(2) {
            assert!(window[1] <= window[0] + 1e-9, "history not decreasing");
        }
    }

    #[test]
    fn more_estimators_fit_better_on_train() {
        let (x, y) = nonlinear_data(400, 3);
        let small = Gbrt::fit(&x, &y, &GbrtParams::quick().with_n_estimators(5)).unwrap();
        let large = Gbrt::fit(&x, &y, &GbrtParams::quick().with_n_estimators(80)).unwrap();
        let rmse_small = rmse(&y, &small.predict(&x).unwrap());
        let rmse_large = rmse(&y, &large.predict(&x).unwrap());
        assert!(rmse_large < rmse_small);
    }

    #[test]
    fn early_stopping_truncates_the_ensemble() {
        let (x, y) = nonlinear_data(400, 4);
        let params = GbrtParams::quick()
            .with_n_estimators(300)
            .with_early_stopping(5);
        let model = Gbrt::fit(&x, &y, &params).unwrap();
        assert!(model.n_trees() <= 300);
        assert!(!model.validation_rmse_history().is_empty());
    }

    #[test]
    fn subsampling_still_learns() {
        let (x, y) = nonlinear_data(500, 6);
        let model = Gbrt::fit(&x, &y, &GbrtParams::quick().with_subsample(0.5)).unwrap();
        let predictions = model.predict(&x).unwrap();
        let mean = y.iter().sum::<f64>() / y.len() as f64;
        assert!(rmse(&y, &predictions) < rmse(&y, &vec![mean; y.len()]));
    }

    #[test]
    fn deterministic_given_seed() {
        let (x, y) = nonlinear_data(200, 7);
        let a = Gbrt::fit(&x, &y, &GbrtParams::quick().with_seed(9)).unwrap();
        let b = Gbrt::fit(&x, &y, &GbrtParams::quick().with_seed(9)).unwrap();
        assert_eq!(a.predict_one(&x[3]).unwrap(), b.predict_one(&x[3]).unwrap());
    }

    #[test]
    fn invalid_parameters_are_rejected() {
        let (x, y) = nonlinear_data(50, 8);
        assert!(Gbrt::fit(&x, &y, &GbrtParams::quick().with_n_estimators(0)).is_err());
        assert!(Gbrt::fit(&x, &y, &GbrtParams::quick().with_learning_rate(0.0)).is_err());
        assert!(Gbrt::fit(&x, &y, &GbrtParams::quick().with_subsample(0.0)).is_err());
        assert!(Gbrt::fit(&x, &y, &GbrtParams::quick().with_reg_lambda(-1.0)).is_err());
        assert!(Gbrt::fit(&x, &y, &GbrtParams::quick().with_max_depth(0)).is_err());
        assert!(Gbrt::fit(&x, &y, &GbrtParams::quick().with_max_bins(1 << 17)).is_err());
        // Zero bins is not a bin count; both entry points refuse it.
        let zero_bins = GbrtParams::quick().with_max_bins(0);
        assert!(Gbrt::fit(&x, &y, &zero_bins).is_err());
        assert!(Gbrt::fit_exact(&x, &y, &zero_bins).is_err());
        assert!(Gbrt::fit(&x, &y, &GbrtParams::quick().with_max_bins(MAX_BINS_LIMIT)).is_ok());
        assert!(Gbrt::fit(&x, &y, &GbrtParams::quick().with_colsample(0.0)).is_err());
        assert!(Gbrt::fit(&x, &y, &GbrtParams::quick().with_colsample(1.5)).is_err());
        assert!(Gbrt::fit(&x, &y, &GbrtParams::quick().with_colsample(f64::NAN)).is_err());
    }

    #[test]
    fn colsample_still_learns_and_is_deterministic() {
        let (x, y) = nonlinear_data(400, 20);
        let params = GbrtParams::quick().with_colsample(0.5).with_seed(4);
        let a = Gbrt::fit(&x, &y, &params).unwrap();
        let b = Gbrt::fit(&x, &y, &params).unwrap();
        assert_eq!(a, b);
        let predictions = a.predict(&x).unwrap();
        let mean = y.iter().sum::<f64>() / y.len() as f64;
        assert!(rmse(&y, &predictions) < rmse(&y, &vec![mean; y.len()]));
        // A different seed draws different feature subsets.
        let c = Gbrt::fit(&x, &y, &params.clone().with_seed(5)).unwrap();
        assert_ne!(a, c);
    }

    #[test]
    fn colsample_bit_parity_between_engines() {
        // Both trainers draw the feature subset from the shared boosting loop, so the
        // histogram trainer stays bit-identical to the exact one under colsample.
        let (x, y) = grid_data(300, 21);
        let params = GbrtParams::quick()
            .with_colsample(0.5)
            .with_subsample(0.8)
            .with_seed(6);
        let exact = Gbrt::fit_exact(&x, &y, &params).unwrap();
        let binned = Gbrt::fit(&x, &y, &params.with_max_bins(1024)).unwrap();
        assert_eq!(exact, binned);
    }

    #[test]
    fn colsample_on_a_single_feature_keeps_at_least_one_column() {
        let x: Vec<Vec<f64>> = (0..60).map(|i| vec![i as f64 / 60.0]).collect();
        let y: Vec<f64> = x.iter().map(|r| r[0] * 2.0).collect();
        let model = Gbrt::fit(
            &x,
            &y,
            &GbrtParams::quick()
                .with_n_estimators(5)
                .with_colsample(0.01),
        )
        .unwrap();
        assert!(model.n_trees() > 0);
    }

    /// Integer-grid data: every sum the trainers accumulate is exactly representable, so the
    /// bit-parity guarantee applies end to end.
    fn grid_data(n: usize, seed: u64) -> (Vec<Vec<f64>>, Vec<f64>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let features: Vec<Vec<f64>> = (0..n)
            .map(|_| {
                vec![
                    rng.random_range(0..32) as f64 * 0.25,
                    rng.random_range(0..16) as f64 * 0.5,
                ]
            })
            .collect();
        let targets: Vec<f64> = features.iter().map(|x| x[0] - 2.0 * x[1] + 1.0).collect();
        (features, targets)
    }

    #[test]
    fn histogram_engine_is_bit_identical_to_exact_on_full_resolution_bins() {
        let (x, y) = grid_data(300, 11);
        let exact = Gbrt::fit_exact(&x, &y, &GbrtParams::quick()).unwrap();
        let binned = Gbrt::fit(&x, &y, &GbrtParams::quick().with_max_bins(512)).unwrap();
        assert_eq!(exact, binned);
    }

    #[test]
    fn histogram_engine_bit_parity_survives_subsampling_and_early_stopping() {
        let (x, y) = grid_data(400, 12);
        let params = GbrtParams::quick()
            .with_subsample(0.6)
            .with_early_stopping(4)
            .with_seed(3);
        let exact = Gbrt::fit_exact(&x, &y, &params).unwrap();
        let binned = Gbrt::fit(&x, &y, &params.with_max_bins(1024)).unwrap();
        assert_eq!(exact, binned);
    }

    #[test]
    fn fit_matrix_shares_one_quantization_across_fits() {
        let (x, y) = nonlinear_data(250, 13);
        let matrix = FeatureMatrix::from_rows(&x, 256).unwrap();
        let via_rows = Gbrt::fit(&x, &y, &GbrtParams::quick().with_max_bins(256)).unwrap();
        let via_matrix = Gbrt::fit_matrix_threaded(&matrix, &y, &GbrtParams::quick(), 1).unwrap();
        assert_eq!(via_rows, via_matrix);
        let threaded = Gbrt::fit_matrix_threaded(&matrix, &y, &GbrtParams::quick(), 4).unwrap();
        assert_eq!(via_matrix, threaded);
    }

    #[test]
    fn per_feature_histogram_fan_out_is_thread_invariant() {
        // Large enough that the root and its first children fan their features out over
        // threads, with subsampling so some rows are routed through the tree walk.
        let (x, y) = nonlinear_data(20_000, 22);
        assert!(x.len() * x[0].len() >= crate::tree::PARALLEL_HIST_CELLS);
        let matrix = FeatureMatrix::from_rows(&x, 256).unwrap();
        let params = GbrtParams::quick()
            .with_n_estimators(6)
            .with_subsample(0.9)
            .with_seed(5);
        let sequential = Gbrt::fit_matrix_threaded(&matrix, &y, &params, 1).unwrap();
        for threads in [2, 4] {
            let threaded = Gbrt::fit_matrix_threaded(&matrix, &y, &params, threads).unwrap();
            assert_eq!(sequential, threaded, "{threads} threads");
        }
    }

    #[test]
    fn adjacent_double_rows_are_predicted_apart() {
        // The two rows' values are adjacent doubles, whose midpoint rounds onto the larger.
        // The split must still separate them, and the round's leaf values must be the ones
        // prediction routes each row to.
        let x = vec![vec![1.0 + f64::EPSILON], vec![1.0 + 2.0 * f64::EPSILON]];
        let y = vec![0.0, 10.0];
        let params = GbrtParams::default()
            .with_n_estimators(1)
            .with_learning_rate(1.0)
            .with_reg_lambda(0.0);
        for model in [
            Gbrt::fit(&x, &y, &params).unwrap(),
            Gbrt::fit_exact(&x, &y, &params).unwrap(),
        ] {
            assert_eq!(model.predict(&x).unwrap(), y);
            assert_eq!(model.train_rmse_history(), &[0.0]);
        }
    }

    #[test]
    fn fit_matrix_on_trains_only_the_requested_rows() {
        // Rows 0..100 carry signal A, rows 100..200 signal B; training on the first half
        // must ignore the second entirely.
        let x: Vec<Vec<f64>> = (0..200).map(|i| vec![(i % 100) as f64 / 100.0]).collect();
        let y: Vec<f64> = (0..200)
            .map(|i| if i < 100 { 1.0 } else { 100.0 })
            .collect();
        let matrix = FeatureMatrix::from_rows(&x, 128).unwrap();
        let rows: Vec<usize> = (0..100).collect();
        let params = GbrtParams::quick().with_n_estimators(10);
        let model = Gbrt::fit_matrix_on_threaded(&matrix, &y, &rows, &params, 1).unwrap();
        assert!((model.predict_one(&[0.5]).unwrap() - 1.0).abs() < 1e-6);
        assert!(Gbrt::fit_matrix_on_threaded(&matrix, &y, &[], &params, 1).is_err());
        assert!(Gbrt::fit_matrix_on_threaded(&matrix, &y, &[500], &params, 1).is_err());
    }

    #[test]
    fn coarse_bins_still_learn_the_nonlinear_target() {
        let (x, y) = nonlinear_data(500, 14);
        let model = Gbrt::fit(&x, &y, &GbrtParams::quick().with_max_bins(16)).unwrap();
        let predictions = model.predict(&x).unwrap();
        let mean = y.iter().sum::<f64>() / y.len() as f64;
        let baseline = rmse(&y, &vec![mean; y.len()]);
        assert!(rmse(&y, &predictions) < 0.5 * baseline);
    }

    #[test]
    fn non_finite_training_data_is_rejected() {
        let (mut x, y) = nonlinear_data(50, 15);
        x[7][1] = f64::NAN;
        assert!(matches!(
            Gbrt::fit(&x, &y, &GbrtParams::quick()),
            Err(MlError::NonFiniteFeature { row: 7, column: 1 })
        ));
        let (x, mut y) = nonlinear_data(50, 16);
        y[3] = f64::INFINITY;
        assert!(matches!(
            Gbrt::fit(&x, &y, &GbrtParams::quick()),
            Err(MlError::NonFiniteTarget { row: 3 })
        ));
    }

    #[test]
    fn prediction_rejects_wrong_width() {
        let (x, y) = nonlinear_data(50, 9);
        let model = Gbrt::fit(&x, &y, &GbrtParams::quick()).unwrap();
        assert!(model.predict_one(&[0.5]).is_err());
    }

    /// `[x, l]`-shaped training rows for a `d`-dimensional workload, built without a libm
    /// call so their bits are the same on every platform: a box centre `x` in the unit cube
    /// and half sides `l` in `[0.01, 0.15)`, each labelled with how many points of a seeded,
    /// clustered cloud fall in the box.
    fn box_workload(d: usize, rows: usize, seed: u64) -> (Vec<Vec<f64>>, Vec<f64>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let cloud: Vec<Vec<f64>> = (0..1_000)
            .map(|i| {
                (0..d)
                    .map(|_| {
                        let u = rng.random::<f64>();
                        if i % 3 == 0 {
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
                let mut row: Vec<f64> = (0..d).map(|_| rng.random::<f64>()).collect();
                row.extend((0..d).map(|_| 0.01 + 0.14 * rng.random::<f64>()));
                row
            })
            .collect();
        let targets = features
            .iter()
            .map(|row| {
                let inside = |p: &Vec<f64>| (0..d).all(|k| (p[k] - row[k]).abs() <= row[d + k]);
                cloud.iter().filter(|p| inside(p)).count() as f64
            })
            .collect();
        (features, targets)
    }

    /// An FNV-1a fold, one 64-bit word at a time, over the bits of every node of every tree,
    /// the base prediction and both RMSE histories.
    fn model_digest(model: &Gbrt) -> u64 {
        use crate::tree::Node;
        let mut words: Vec<u64> = vec![model.base_prediction.to_bits(), model.n_trees() as u64];
        for tree in &model.trees {
            for node in tree.nodes() {
                match node {
                    Node::Leaf { value, samples } => {
                        words.extend([0, value.to_bits(), *samples as u64]);
                    }
                    Node::Split {
                        feature,
                        threshold,
                        left,
                        right,
                        gain,
                    } => words.extend([
                        1,
                        *feature as u64,
                        threshold.to_bits(),
                        *left as u64,
                        *right as u64,
                        gain.to_bits(),
                    ]),
                }
            }
        }
        words.extend(model.train_rmse_history.iter().map(|v| v.to_bits()));
        words.extend(model.validation_rmse_history.iter().map(|v| v.to_bits()));
        words.into_iter().fold(0xcbf2_9ce4_8422_2325, |hash, word| {
            (hash ^ word).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    #[test]
    fn paper_default_fits_in_the_coarse_bin_regime_are_pinned() {
        // 1,600 rows with about as many distinct values per column over 256 bins: the
        // regime `Surf::fit` trains in, which the exact-trainer parity tests do not reach.
        // Recorded from the trainer that built and swept every node's dense histogram and
        // walked every tree over every row; the third case adds row and column subsampling
        // and early stopping.
        let paper = GbrtParams::paper_default();
        let sampled = paper
            .clone()
            .with_subsample(0.7)
            .with_colsample(0.75)
            .with_early_stopping(5)
            .with_seed(3);
        let pinned = [
            (2, paper.clone(), 0x6ae0_7e44_43a0_bead_u64),
            (4, paper, 0xb376_e91b_1465_92a2),
            (2, sampled, 0x08e3_651c_11ef_8089),
        ];
        for (d, params, expected) in pinned {
            let (x, y) = box_workload(d, 1_600, 17 + d as u64);
            let model = Gbrt::fit(&x, &y, &params).unwrap();
            assert_eq!(
                model_digest(&model),
                expected,
                "d = {d}, subsample {}",
                params.subsample
            );
        }
    }

    #[test]
    fn feature_importance_prefers_informative_feature() {
        // Target depends only on feature 0.
        let mut rng = StdRng::seed_from_u64(10);
        let x: Vec<Vec<f64>> = (0..300)
            .map(|_| vec![rng.random::<f64>(), rng.random::<f64>()])
            .collect();
        let y: Vec<f64> = x.iter().map(|r| 3.0 * r[0]).collect();
        let model = Gbrt::fit(&x, &y, &GbrtParams::quick()).unwrap();
        let importance = model.feature_importance();
        assert!(importance[0] > 10.0 * importance[1].max(1e-9));
    }
}
