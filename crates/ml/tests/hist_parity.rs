//! Property suite: parity between the exact (sorting) and histogram (binned) GBRT trainers.
//!
//! The histogram trainer is the one every pipeline trains with; the exact trainer is its
//! oracle, reached through `RegressionTree::fit` / `fit_on` and `Gbrt::fit_exact`.
//!
//! **Bit-identity regime.** With `max_bins` at least the number of distinct values of every
//! feature, each bin holds exactly one distinct value, candidate thresholds coincide with the
//! exact trainer's midpoints, and the histogram trainer is *bit-identical* to the exact one.
//! The properties pin this down on dyadic-grid data (features and targets are small multiples
//! of powers of two), where every sum either trainer accumulates is exactly representable —
//! so the two trainers' different summation orders cannot even differ in the last ulp, and
//! the assertion `exact == binned` is deterministic rather than probabilistic. Multi-round
//! boosting parity on general (non-dyadic) data is covered by fixed-seed unit tests in
//! `surf_ml::gbrt`.
//!
//! **Coarse regime.** With fewer bins than distinct values the histogram trainer is an
//! approximation; the property is a held-out RMSE tolerance against the exact trainer.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use surf_ml::gbrt::{Gbrt, GbrtParams};
use surf_ml::matrix::FeatureMatrix;
use surf_ml::metrics::rmse;
use surf_ml::tree::{RegressionTree, TreeParams};

/// Dyadic-grid data: features on a 0.25 lattice with at most 24 distinct values per column,
/// targets on a 0.125 lattice. All sums of `n <= 512` such values are exact in an f64.
fn dyadic_data(n: usize, d: usize, seed: u64) -> (Vec<Vec<f64>>, Vec<f64>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let features: Vec<Vec<f64>> = (0..n)
        .map(|_| {
            (0..d)
                .map(|_| rng.random_range(0..24) as f64 * 0.25)
                .collect()
        })
        .collect();
    let targets: Vec<f64> = (0..n)
        .map(|_| rng.random_range(-40..=40) as f64 * 0.125)
        .collect();
    (features, targets)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A single tree fitted through a full-resolution matrix is bit-identical to the exact
    /// trainer: same splits, same thresholds, same gains, same leaves.
    #[test]
    fn tree_bit_parity_at_full_resolution(
        n in 2usize..=80,
        d in 1usize..=3,
        max_depth in 1usize..=6,
        min_samples_leaf in 1usize..=4,
        seed in 0u64..10_000,
    ) {
        let (x, y) = dyadic_data(n, d, seed);
        let params = TreeParams {
            max_depth,
            min_samples_split: 2 * min_samples_leaf,
            min_samples_leaf,
            ..TreeParams::default()
        };
        let exact = RegressionTree::fit(&x, &y, &params).unwrap();
        // 24 distinct values per feature at most; 64 bins put every value in its own bin.
        let matrix = FeatureMatrix::from_rows(&x, 64).unwrap();
        let binned = RegressionTree::fit_matrix(&matrix, &y, &params).unwrap();
        assert_eq!(exact, binned, "n={n} d={d} depth={max_depth} msl={min_samples_leaf} seed={seed}");
    }

    /// Subset fitting (the boosting/CV entry point) is bit-identical too.
    #[test]
    fn subset_tree_bit_parity_at_full_resolution(
        n in 10usize..=80,
        d in 1usize..=3,
        keep_every in 2usize..=4,
        seed in 0u64..10_000,
    ) {
        let (x, y) = dyadic_data(n, d, seed);
        let indices: Vec<usize> = (0..n).step_by(keep_every).collect();
        let params = TreeParams { max_depth: 4, ..TreeParams::default() };
        let exact = RegressionTree::fit_on(&x, &y, &indices, &params).unwrap();
        let matrix = FeatureMatrix::from_rows(&x, 64).unwrap();
        let binned = RegressionTree::fit_on_matrix(&matrix, &y, &indices, &params).unwrap();
        assert_eq!(exact, binned, "n={n} d={d} keep_every={keep_every} seed={seed}");
    }

    /// One boosting round (power-of-two training sizes keep the base prediction and the
    /// residuals exactly representable) is bit-identical end to end — model, histories and
    /// predictions.
    #[test]
    fn single_round_gbrt_bit_parity(
        n_pow in 4u32..=7,              // n in {16, 32, 64, 128}
        d in 1usize..=3,
        max_depth in 1usize..=5,
        lr_pow in 0i32..=3,             // learning rate in {1, 0.5, 0.25, 0.125}
        seed in 0u64..10_000,
    ) {
        let n = 1usize << n_pow;
        let (x, y) = dyadic_data(n, d, seed);
        let params = GbrtParams {
            n_estimators: 1,
            learning_rate: (0.5f64).powi(lr_pow),
            max_depth,
            reg_lambda: 0.0,
            seed,
            ..GbrtParams::default()
        };
        let exact = Gbrt::fit_exact(&x, &y, &params).unwrap();
        let binned = Gbrt::fit(&x, &y, &params.with_max_bins(64)).unwrap();
        assert_eq!(exact, binned, "n={n} d={d} depth={max_depth} seed={seed}");
    }

    /// Coarse bins trade split resolution for speed; on held-out data the histogram model
    /// must stay within a tolerance of the exact model's RMSE.
    #[test]
    fn coarse_bins_stay_within_rmse_tolerance(
        max_bins in 8usize..=48,
        seed in 0u64..1_000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = 400;
        let x: Vec<Vec<f64>> = (0..n)
            .map(|_| vec![rng.random::<f64>(), rng.random::<f64>()])
            .collect();
        let y: Vec<f64> = x.iter().map(|r| (3.0 * r[0]).sin() + r[1] * r[1]).collect();
        // First 300 rows train, last 100 are held out.
        let train_x = x[..300].to_vec();
        let train_y = y[..300].to_vec();
        let test_x = &x[300..];
        let test_y = &y[300..];
        let params = GbrtParams::quick();
        let exact = Gbrt::fit_exact(&train_x, &train_y, &params).unwrap();
        let coarse = Gbrt::fit(&train_x, &train_y, &params.with_max_bins(max_bins)).unwrap();
        let exact_rmse = rmse(test_y, &exact.predict(test_x).unwrap());
        let coarse_rmse = rmse(test_y, &coarse.predict(test_x).unwrap());
        // Target spread is ~0.7; the coarse model may lose a little resolution but must stay
        // in the same accuracy class as the exact model.
        assert!(
            coarse_rmse <= 2.0 * exact_rmse + 0.05,
            "max_bins={max_bins} seed={seed}: coarse {coarse_rmse} vs exact {exact_rmse}"
        );
    }
}
