//! K-fold cross-validation.
//!
//! The paper hyper-tunes its surrogate models "using Grid-Search with K-fold cross validation"
//! (Section V-A); this module provides the fold construction and a scorer that reports the
//! per-fold out-of-sample RMSE of a [`Gbrt`] configuration, every fold training against one
//! shared [`FeatureMatrix`].

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::error::{validate_xy, MlError};
use crate::gbrt::{Gbrt, GbrtParams};
use crate::matrix::FeatureMatrix;
use crate::metrics::rmse;

/// One fold: `(train_indices, test_indices)`.
pub type FoldSplit = (Vec<usize>, Vec<usize>);

/// A deterministic K-fold splitter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KFold {
    /// Number of folds.
    pub folds: usize,
    /// Shuffle seed.
    pub seed: u64,
}

impl KFold {
    /// Creates a splitter with the given number of folds.
    pub fn new(folds: usize, seed: u64) -> Self {
        Self { folds, seed }
    }

    /// Produces `(train_indices, test_indices)` pairs covering `examples` rows.
    ///
    /// Every row appears in exactly one test fold; fold sizes differ by at most one.
    pub fn splits(&self, examples: usize) -> Result<Vec<FoldSplit>, MlError> {
        if self.folds < 2 || self.folds > examples {
            return Err(MlError::InvalidFolds {
                folds: self.folds,
                examples,
            });
        }
        let mut indices: Vec<usize> = (0..examples).collect();
        let mut rng = StdRng::seed_from_u64(self.seed);
        for i in (1..indices.len()).rev() {
            let j = rng.random_range(0..=i);
            indices.swap(i, j);
        }
        let base = examples / self.folds;
        let remainder = examples % self.folds;
        let mut splits = Vec::with_capacity(self.folds);
        let mut start = 0usize;
        for fold in 0..self.folds {
            let size = base + usize::from(fold < remainder);
            let test: Vec<usize> = indices[start..start + size].to_vec();
            let train: Vec<usize> = indices[..start]
                .iter()
                .chain(&indices[start + size..])
                .copied()
                .collect();
            splits.push((train, test));
            start += size;
        }
        Ok(splits)
    }
}

/// The per-fold scores of a cross-validated configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct CvScores {
    /// Out-of-sample RMSE of each fold.
    pub fold_rmse: Vec<f64>,
}

impl CvScores {
    /// Mean RMSE across folds.
    pub fn mean_rmse(&self) -> f64 {
        crate::metrics::mean(&self.fold_rmse)
    }

    /// Standard deviation of the per-fold RMSE.
    pub fn std_rmse(&self) -> f64 {
        crate::metrics::std_dev(&self.fold_rmse)
    }
}

/// Cross-validates a GBRT configuration and returns the per-fold out-of-sample RMSE. The
/// features are quantized once into a [`FeatureMatrix`] of `params.max_bins` bins per
/// feature, and the folds fan out over up to `threads` OS threads (`0` = automatic). Folds
/// are independent, so the scores are identical for every thread count.
pub fn cross_validate_gbrt(
    features: &[Vec<f64>],
    targets: &[f64],
    params: &GbrtParams,
    kfold: KFold,
    threads: usize,
) -> Result<CvScores, MlError> {
    validate_xy(features, targets)?;
    params.validate()?;
    let threads = crate::parallel::resolve_threads(threads);
    let matrix = FeatureMatrix::from_rows_threaded(features, params.max_bins, threads)?;
    cross_validate_gbrt_matrix(&matrix, features, targets, params, kfold, threads)
}

/// Cross-validates a GBRT configuration against a pre-built, shared [`FeatureMatrix`]
/// (quantized once per dataset — the histogram trainer's whole point). Folds fan out over up
/// to `threads` OS threads; each fold trains on its subset of matrix rows and scores its
/// test rows on the raw `features`. Scores are identical for every thread count.
pub(crate) fn cross_validate_gbrt_matrix(
    matrix: &FeatureMatrix,
    features: &[Vec<f64>],
    targets: &[f64],
    params: &GbrtParams,
    kfold: KFold,
    threads: usize,
) -> Result<CvScores, MlError> {
    validate_xy(features, targets)?;
    if features.len() != matrix.rows() {
        return Err(MlError::InvalidParameter {
            name: "matrix",
            value: format!(
                "matrix has {} rows but features have {}",
                matrix.rows(),
                features.len()
            ),
        });
    }
    let splits = kfold.splits(features.len())?;
    let threads = crate::parallel::resolve_threads(threads);
    let scored = crate::parallel::parallel_map(splits, threads, |(train_idx, test_idx)| {
        let model = Gbrt::fit_matrix_on_threaded(matrix, targets, train_idx, params, 1)?;
        let test_x: Vec<Vec<f64>> = test_idx.iter().map(|&i| features[i].clone()).collect();
        let test_y: Vec<f64> = test_idx.iter().map(|&i| targets[i]).collect();
        let predictions = model.predict(&test_x)?;
        Ok(rmse(&test_y, &predictions))
    });
    let mut fold_rmse = Vec::with_capacity(scored.len());
    for score in scored {
        fold_rmse.push(score?);
    }
    Ok(CvScores { fold_rmse })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn splits_cover_every_example_exactly_once() {
        let kfold = KFold::new(5, 1);
        let splits = kfold.splits(103).unwrap();
        assert_eq!(splits.len(), 5);
        let mut seen = vec![0usize; 103];
        for (train, test) in &splits {
            assert_eq!(train.len() + test.len(), 103);
            for &i in test {
                seen[i] += 1;
            }
        }
        assert!(seen.iter().all(|&c| c == 1));
    }

    #[test]
    fn fold_sizes_differ_by_at_most_one() {
        let splits = KFold::new(4, 2).splits(10).unwrap();
        let sizes: Vec<usize> = splits.iter().map(|(_, test)| test.len()).collect();
        assert_eq!(sizes.iter().sum::<usize>(), 10);
        assert!(sizes.iter().max().unwrap() - sizes.iter().min().unwrap() <= 1);
    }

    #[test]
    fn invalid_fold_counts_are_rejected() {
        assert!(KFold::new(1, 0).splits(10).is_err());
        assert!(KFold::new(11, 0).splits(10).is_err());
        assert!(KFold::new(2, 0).splits(10).is_ok());
    }

    #[test]
    fn splits_are_deterministic_per_seed() {
        let a = KFold::new(3, 9).splits(30).unwrap();
        let b = KFold::new(3, 9).splits(30).unwrap();
        assert_eq!(a, b);
        let c = KFold::new(3, 10).splits(30).unwrap();
        assert_ne!(a, c);
    }

    #[test]
    fn cross_validation_scores_a_learnable_problem() {
        let mut rng = StdRng::seed_from_u64(3);
        let features: Vec<Vec<f64>> = (0..300)
            .map(|_| vec![rng.random::<f64>(), rng.random::<f64>()])
            .collect();
        let targets: Vec<f64> = features.iter().map(|x| 2.0 * x[0] + x[1]).collect();
        let (params, kfold) = (GbrtParams::quick(), KFold::new(4, 7));
        let scores = cross_validate_gbrt(&features, &targets, &params, kfold, 1).unwrap();
        assert_eq!(scores.fold_rmse.len(), 4);
        // Targets span roughly [0, 3]; a useful model should be well below the target spread.
        assert!(scores.mean_rmse() < 0.5, "mean RMSE {}", scores.mean_rmse());
        assert!(scores.std_rmse() >= 0.0);
    }

    #[test]
    fn threaded_cross_validation_matches_sequential() {
        let mut rng = StdRng::seed_from_u64(9);
        let features: Vec<Vec<f64>> = (0..160)
            .map(|_| vec![rng.random::<f64>(), rng.random::<f64>()])
            .collect();
        let targets: Vec<f64> = features.iter().map(|x| x[0] - 0.5 * x[1]).collect();
        for params in [GbrtParams::quick(), GbrtParams::quick().with_max_bins(16)] {
            let kfold = KFold::new(4, 2);
            let seq = cross_validate_gbrt(&features, &targets, &params, kfold, 1).unwrap();
            let par = cross_validate_gbrt(&features, &targets, &params, kfold, 4).unwrap();
            assert_eq!(seq.fold_rmse, par.fold_rmse);
        }
    }

    #[test]
    fn prebuilt_matrix_cross_validation_matches_the_internal_build() {
        let mut rng = StdRng::seed_from_u64(21);
        let features: Vec<Vec<f64>> = (0..140)
            .map(|_| vec![rng.random::<f64>(), rng.random::<f64>()])
            .collect();
        let targets: Vec<f64> = features.iter().map(|x| (2.0 * x[0]).sin() + x[1]).collect();
        let params = GbrtParams::quick();
        let kfold = KFold::new(4, 5);
        let matrix = FeatureMatrix::from_rows(&features, params.max_bins).unwrap();
        let shared =
            cross_validate_gbrt_matrix(&matrix, &features, &targets, &params, kfold, 2).unwrap();
        let internal = cross_validate_gbrt(&features, &targets, &params, kfold, 1).unwrap();
        assert_eq!(shared.fold_rmse, internal.fold_rmse);
        // A matrix of the wrong height is rejected.
        let short = FeatureMatrix::from_rows(&features[..100], params.max_bins).unwrap();
        assert!(
            cross_validate_gbrt_matrix(&short, &features, &targets, &params, kfold, 1).is_err()
        );
    }
}
