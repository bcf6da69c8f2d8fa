//! Exhaustive grid search with K-fold cross-validation (the paper's `GridSearchCV`).
//!
//! Section V-E of the paper tunes the surrogate's `learning_rate`, `max_depth`,
//! `n_estimators` and `reg_lambda` over a 3 × 4 × 3 × 4 = 144-combination grid;
//! [`GbrtGrid::paper_grid`] reproduces that grid and [`GridSearch`] evaluates it, optionally
//! in parallel across OS threads, against one [`FeatureMatrix`] shared by every grid cell
//! and fold.

use serde::{Deserialize, Serialize};

use crate::cv::{cross_validate_gbrt_matrix, KFold};
use crate::error::MlError;
use crate::gbrt::GbrtParams;
use crate::matrix::FeatureMatrix;
use crate::parallel::{default_threads, parallel_map};

/// The hyper-parameter ranges to sweep.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GbrtGrid {
    /// Candidate learning rates.
    pub learning_rates: Vec<f64>,
    /// Candidate tree depths.
    pub max_depths: Vec<usize>,
    /// Candidate ensemble sizes.
    pub n_estimators: Vec<usize>,
    /// Candidate L2 leaf regularization strengths.
    pub reg_lambdas: Vec<f64>,
}

impl GbrtGrid {
    /// The paper's 144-combination grid: learning_rate ∈ {0.1, 0.01, 0.001},
    /// max_depth ∈ {3, 5, 7, 9}, n_estimators ∈ {100, 200, 300},
    /// reg_lambda ∈ {1, 0.1, 0.01, 0.001}.
    pub fn paper_grid() -> Self {
        Self {
            learning_rates: vec![0.1, 0.01, 0.001],
            max_depths: vec![3, 5, 7, 9],
            n_estimators: vec![100, 200, 300],
            reg_lambdas: vec![1.0, 0.1, 0.01, 0.001],
        }
    }

    /// A small grid for tests and quick experiments (8 combinations).
    pub fn quick_grid() -> Self {
        Self {
            learning_rates: vec![0.1, 0.3],
            max_depths: vec![3, 5],
            n_estimators: vec![20, 40],
            reg_lambdas: vec![1.0],
        }
    }

    /// Materializes every combination as a [`GbrtParams`], inheriting the non-swept fields
    /// from `base`.
    pub fn candidates(&self, base: &GbrtParams) -> Vec<GbrtParams> {
        let mut out = Vec::with_capacity(
            self.learning_rates.len()
                * self.max_depths.len()
                * self.n_estimators.len()
                * self.reg_lambdas.len(),
        );
        for &lr in &self.learning_rates {
            for &depth in &self.max_depths {
                for &n in &self.n_estimators {
                    for &lambda in &self.reg_lambdas {
                        out.push(GbrtParams {
                            learning_rate: lr,
                            max_depth: depth,
                            n_estimators: n,
                            reg_lambda: lambda,
                            ..base.clone()
                        });
                    }
                }
            }
        }
        out
    }

    /// Number of combinations in the grid.
    pub fn combinations(&self) -> usize {
        self.learning_rates.len()
            * self.max_depths.len()
            * self.n_estimators.len()
            * self.reg_lambdas.len()
    }
}

/// Cross-validated score of one grid candidate.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GridPoint {
    /// The evaluated configuration.
    pub params: GbrtParams,
    /// Mean out-of-sample RMSE across folds.
    pub mean_rmse: f64,
    /// Standard deviation of the per-fold RMSE.
    pub std_rmse: f64,
}

/// The outcome of a grid search.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GridSearchResult {
    /// Every evaluated grid point, in grid order.
    pub evaluations: Vec<GridPoint>,
    /// Index of the best (lowest mean RMSE) grid point.
    pub best_index: usize,
}

impl GridSearchResult {
    /// The best configuration found.
    pub fn best_params(&self) -> &GbrtParams {
        &self.evaluations[self.best_index].params
    }

    /// Mean cross-validated RMSE of the best configuration.
    pub fn best_rmse(&self) -> f64 {
        self.evaluations[self.best_index].mean_rmse
    }
}

/// Exhaustive grid search driver.
#[derive(Debug, Clone, PartialEq)]
pub struct GridSearch {
    /// The grid of hyper-parameters to sweep.
    pub grid: GbrtGrid,
    /// Base configuration supplying the non-swept fields (seed, subsample, ...).
    pub base: GbrtParams,
    /// K-fold configuration used to score each candidate.
    pub kfold: KFold,
    /// Number of OS threads to fan candidates out over (1 = sequential).
    pub threads: usize,
}

impl GridSearch {
    /// Creates a grid search with sensible defaults (5-fold CV, as many threads as cores but
    /// at most 8).
    pub fn new(grid: GbrtGrid, base: GbrtParams) -> Self {
        let kfold = KFold::new(5, base_seed(&base));
        Self {
            grid,
            base,
            kfold,
            threads: default_threads(8),
        }
    }

    /// Overrides the fold configuration.
    pub fn with_kfold(mut self, kfold: KFold) -> Self {
        self.kfold = kfold;
        self
    }

    /// Overrides the thread count.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Runs the search, scoring every candidate with cross-validated RMSE.
    ///
    /// `matrix` is `features` quantized once ([`FeatureMatrix::from_rows_threaded`]); it is
    /// shared by reference across every grid cell and fold, and its quantization applies to
    /// every candidate (their `max_bins`, inherited from `base`, is validated but not used).
    /// Each fold scores its test rows on the raw `features`.
    pub fn search(
        &self,
        matrix: &FeatureMatrix,
        features: &[Vec<f64>],
        targets: &[f64],
    ) -> Result<GridSearchResult, MlError> {
        let candidates = self.grid.candidates(&self.base);
        if candidates.is_empty() {
            return Err(MlError::InvalidParameter {
                name: "grid",
                value: "empty".into(),
            });
        }
        let kfold = self.kfold;
        let scored: Vec<Result<GridPoint, MlError>> =
            parallel_map(candidates, self.threads, |params| {
                // Candidates already fan out across threads; folds run sequentially inside.
                let scores =
                    cross_validate_gbrt_matrix(matrix, features, targets, params, kfold, 1)?;
                Ok(GridPoint {
                    params: params.clone(),
                    mean_rmse: scores.mean_rmse(),
                    std_rmse: scores.std_rmse(),
                })
            });
        let mut evaluations = Vec::with_capacity(scored.len());
        for point in scored {
            evaluations.push(point?);
        }
        let best_index = evaluations
            .iter()
            .enumerate()
            .min_by(|(_, a), (_, b)| {
                a.mean_rmse
                    .partial_cmp(&b.mean_rmse)
                    .unwrap_or(std::cmp::Ordering::Equal)
            })
            .map(|(i, _)| i)
            .unwrap_or(0);
        Ok(GridSearchResult {
            evaluations,
            best_index,
        })
    }
}

fn base_seed(base: &GbrtParams) -> u64 {
    base.seed.wrapping_add(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Regression data and its 256-bin quantization.
    fn data(n: usize) -> (FeatureMatrix, Vec<Vec<f64>>, Vec<f64>) {
        let mut rng = StdRng::seed_from_u64(5);
        let x: Vec<Vec<f64>> = (0..n)
            .map(|_| vec![rng.random::<f64>(), rng.random::<f64>()])
            .collect();
        let y: Vec<f64> = x.iter().map(|r| (3.0 * r[0]).sin() + r[1]).collect();
        (FeatureMatrix::from_rows(&x, 256).unwrap(), x, y)
    }

    #[test]
    fn paper_grid_has_144_combinations() {
        let grid = GbrtGrid::paper_grid();
        assert_eq!(grid.combinations(), 144);
        assert_eq!(grid.candidates(&GbrtParams::default()).len(), 144);
    }

    #[test]
    fn candidates_inherit_base_fields() {
        let base = GbrtParams::default().with_seed(99).with_subsample(0.7);
        let candidates = GbrtGrid::quick_grid().candidates(&base);
        assert!(candidates
            .iter()
            .all(|c| c.seed == 99 && c.subsample == 0.7));
    }

    #[test]
    fn grid_search_finds_a_reasonable_configuration() {
        let (matrix, x, y) = data(240);
        let search = GridSearch::new(GbrtGrid::quick_grid(), GbrtParams::quick())
            .with_kfold(KFold::new(3, 1))
            .with_threads(2);
        let result = search.search(&matrix, &x, &y).unwrap();
        assert_eq!(result.evaluations.len(), 8);
        assert!(result.best_rmse() < 0.3, "best RMSE {}", result.best_rmse());
        // The best index really is the minimum.
        for point in &result.evaluations {
            assert!(result.best_rmse() <= point.mean_rmse + 1e-12);
        }
        assert!(result.best_params().n_estimators >= 20);
    }

    #[test]
    fn sequential_and_parallel_search_agree() {
        let (matrix, x, y) = data(120);
        let base = GbrtParams::quick();
        let grid = GbrtGrid {
            learning_rates: vec![0.1],
            max_depths: vec![3, 4],
            n_estimators: vec![20],
            reg_lambdas: vec![1.0],
        };
        let seq = GridSearch::new(grid.clone(), base.clone())
            .with_kfold(KFold::new(3, 2))
            .with_threads(1)
            .search(&matrix, &x, &y)
            .unwrap();
        let par = GridSearch::new(grid, base)
            .with_kfold(KFold::new(3, 2))
            .with_threads(4)
            .search(&matrix, &x, &y)
            .unwrap();
        assert_eq!(seq.best_index, par.best_index);
        for (a, b) in seq.evaluations.iter().zip(&par.evaluations) {
            assert!((a.mean_rmse - b.mean_rmse).abs() < 1e-12);
        }
    }

    #[test]
    fn empty_grid_is_rejected() {
        let (matrix, x, y) = data(60);
        let grid = GbrtGrid {
            learning_rates: vec![],
            max_depths: vec![3],
            n_estimators: vec![10],
            reg_lambdas: vec![1.0],
        };
        let search = GridSearch::new(grid, GbrtParams::quick());
        assert!(search.search(&matrix, &x, &y).is_err());
    }
}
