//! Property suite: the **three** inference paths of a fitted model — the node-walking
//! predictor, the compiled engine's single-row walk (`predict_one` / `predict_staged`) and
//! its blocked, 16-row-interleaved batch kernel (`predict_batch_into` /
//! `predict_batch_threaded`) — are **bit-identical** for every input, and reject malformed
//! input with the same typed errors.
//!
//! `compiled_parity` pins the compiled engine to the walker on batches of at most a few
//! hundred rows. This suite covers what those properties leave out:
//!
//! - batches of up to a few thousand rows, which span several cache blocks and so take the
//!   threaded fan-out (smaller batches run on the calling thread whatever the thread count);
//! - output buffers that arrive dirty: every slot must be overwritten, none accumulated into;
//! - every staged round of a model, from 0 past the last tree, on finite and non-finite rows;
//! - single trees (raw leaf values, no base or shrinkage) on NaN / ±∞ rows and large batches;
//! - the walker and the compiled engine returning the *same* error for the same bad input.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use surf_ml::compiled::CompiledEnsemble;
use surf_ml::gbrt::{Gbrt, GbrtParams};
use surf_ml::tree::{RegressionTree, TreeParams};
use surf_ml::MlError;

/// Unstructured regression data: features in [-3, 3), a rough nonlinear target.
fn random_data(n: usize, d: usize, seed: u64) -> (Vec<Vec<f64>>, Vec<f64>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let features: Vec<Vec<f64>> = (0..n)
        .map(|_| (0..d).map(|_| rng.random_range(-3.0..3.0)).collect())
        .collect();
    let targets: Vec<f64> = features
        .iter()
        .map(|x| {
            x.iter()
                .enumerate()
                .map(|(i, v)| ((i + 2) as f64 * v).sin() + 0.25 * v * v)
                .sum()
        })
        .collect();
    (features, targets)
}

/// Probe points both inside and far outside the training range.
fn probes(n: usize, d: usize, seed: u64) -> Vec<Vec<f64>> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xbeef);
    (0..n)
        .map(|_| (0..d).map(|_| rng.random_range(-50.0..50.0)).collect())
        .collect()
}

/// Probe points with non-finite entries sprinkled in: every row carries at least one of
/// NaN, +∞ or -∞ (in rotation), the rest stay finite.
fn non_finite_probes(n: usize, d: usize, seed: u64) -> Vec<Vec<f64>> {
    let specials = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY];
    let mut rng = StdRng::seed_from_u64(seed ^ 0xfeed);
    (0..n)
        .map(|row| {
            let mut values: Vec<f64> = (0..d).map(|_| rng.random_range(-10.0..10.0)).collect();
            values[row % d] = specials[row % specials.len()];
            values
        })
        .collect()
}

fn flatten(rows: &[Vec<f64>]) -> Vec<f64> {
    rows.iter().flatten().copied().collect()
}

fn width_mismatch(expected: usize, actual: usize) -> MlError {
    MlError::FeatureWidthMismatch { expected, actual }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The walker, the compiled single-row walk and the compiled batch kernel agree bit
    /// for bit on batches of 1 to 3,000 rows at 1–4 threads, and `predict_batch_into`
    /// overwrites a NaN-filled output buffer completely.
    #[test]
    fn three_engine_bit_parity(
        n in 5usize..=80,
        d in 1usize..=5,
        n_estimators in 1usize..=8,
        max_depth in 1usize..=6,
        subsample in 0.6f64..=1.0,
        colsample in 0.4f64..=1.0,
        rows in 1usize..=3_000,
        threads in 1usize..=4,
        seed in 0u64..10_000,
    ) {
        let (x, y) = random_data(n, d, seed);
        let params = GbrtParams {
            n_estimators,
            max_depth,
            subsample,
            colsample,
            seed,
            ..GbrtParams::quick()
        };
        let model = Gbrt::fit(&x, &y, &params).unwrap();
        let compiled = CompiledEnsemble::compile(&model).unwrap();

        let inputs = probes(rows, d, seed);
        let walker = model.predict(&inputs).unwrap();
        let flat = flatten(&inputs);
        let threaded = compiled.predict_batch_threaded(&flat, d, threads).unwrap();
        let mut into = vec![f64::NAN; rows];
        compiled.predict_batch_into(&flat, d, &mut into).unwrap();
        prop_assert_eq!(threaded.len(), rows);
        for (i, expected) in walker.iter().enumerate() {
            let expected = expected.to_bits();
            prop_assert_eq!(compiled.predict_one(&inputs[i]).unwrap().to_bits(), expected);
            prop_assert_eq!(threaded[i].to_bits(), expected, "threaded row {}", i);
            prop_assert_eq!(into[i].to_bits(), expected, "into row {}", i);
        }
    }

    /// Staged prediction matches the walker at every round from 0 to two past the last
    /// tree, on finite and non-finite rows; round 0 is the base prediction and staging
    /// through every tree is the full prediction, on both engines.
    #[test]
    fn staged_bit_parity(
        n in 10usize..=80,
        d in 1usize..=3,
        n_estimators in 1usize..=10,
        seed in 0u64..10_000,
    ) {
        let (x, y) = random_data(n, d, seed);
        let params = GbrtParams {
            n_estimators,
            seed,
            ..GbrtParams::quick()
        };
        let model = Gbrt::fit(&x, &y, &params).unwrap();
        let compiled = CompiledEnsemble::compile(&model).unwrap();
        let trees = model.n_trees();
        let rows: Vec<Vec<f64>> = x
            .into_iter()
            .take(5)
            .chain(non_finite_probes(6, d, seed))
            .collect();
        for row in &rows {
            for rounds in 0..=trees + 2 {
                prop_assert_eq!(
                    compiled.predict_staged(row, rounds).unwrap().to_bits(),
                    model.predict_staged(row, rounds).unwrap().to_bits(),
                    "rounds {}", rounds
                );
            }
            let base = model.base_prediction().to_bits();
            prop_assert_eq!(model.predict_staged(row, 0).unwrap().to_bits(), base);
            prop_assert_eq!(compiled.predict_staged(row, 0).unwrap().to_bits(), base);
            let full = model.predict_one(row).unwrap().to_bits();
            prop_assert_eq!(model.predict_staged(row, trees).unwrap().to_bits(), full);
            prop_assert_eq!(compiled.predict_staged(row, trees).unwrap().to_bits(), full);
            prop_assert_eq!(compiled.predict_one(row).unwrap().to_bits(), full);
        }
    }

    /// A compiled single tree matches the tree walker bit for bit on NaN / ±∞ rows and on
    /// batches of up to 2,500 rows at 1–4 threads — including trees that collapse to a
    /// single leaf (constant targets), whose depth-0 walk reads the root directly.
    #[test]
    fn tree_bit_parity(
        n in 2usize..=100,
        d in 1usize..=4,
        max_depth in 1usize..=8,
        constant_flag in 0usize..=1,
        rows in 1usize..=2_500,
        threads in 1usize..=4,
        seed in 0u64..10_000,
    ) {
        let constant_targets = constant_flag == 1;
        let (x, mut y) = random_data(n, d, seed);
        if constant_targets {
            y = vec![2.5; n];
        }
        let params = TreeParams { max_depth, ..TreeParams::default() };
        let tree = RegressionTree::fit(&x, &y, &params).unwrap();
        let compiled = CompiledEnsemble::from_tree(&tree).unwrap();
        if constant_targets {
            prop_assert_eq!(tree.node_count(), 1);
            prop_assert_eq!(compiled.node_count(), 1);
        }
        let inputs: Vec<Vec<f64>> = non_finite_probes(24, d, seed)
            .into_iter()
            .chain(probes(rows, d, seed))
            .collect();
        let walker = tree.predict(&inputs).unwrap();
        let batch = compiled
            .predict_batch_threaded(&flatten(&inputs), d, threads)
            .unwrap();
        prop_assert_eq!(batch.len(), walker.len());
        for (i, (got, expected)) in batch.iter().zip(&walker).enumerate() {
            prop_assert_eq!(
                compiled.predict_one(&inputs[i]).unwrap().to_bits(),
                expected.to_bits()
            );
            prop_assert_eq!(got.to_bits(), expected.to_bits(), "row {}", i);
        }
    }

    /// Empty batches are empty on every engine and thread count. A row of the wrong width
    /// is the same typed error on the walker and the compiled engine, for ensembles and
    /// single trees alike; ragged flat buffers and output buffers of the wrong length are
    /// rejected without writing a slot.
    #[test]
    fn empty_batches_and_width_mismatches(
        d in 1usize..=4,
        offset in 1usize..=6,
        threads in 1usize..=4,
        seed in 0u64..1_000,
    ) {
        // `wrong` is always a different, positive width.
        let wrong = d + offset;
        let (x, y) = random_data(30, d, seed);
        let model = Gbrt::fit(&x, &y, &GbrtParams::quick().with_n_estimators(3)).unwrap();
        let compiled = CompiledEnsemble::compile(&model).unwrap();
        let tree = RegressionTree::fit(&x, &y, &TreeParams::default()).unwrap();
        let compiled_tree = CompiledEnsemble::from_tree(&tree).unwrap();

        prop_assert!(model.predict(&[]).unwrap().is_empty());
        prop_assert!(tree.predict(&[]).unwrap().is_empty());
        for engine in [&compiled, &compiled_tree] {
            prop_assert!(engine.predict_batch_threaded(&[], d, threads).unwrap().is_empty());
            let mut empty_out: [f64; 0] = [];
            prop_assert!(engine.predict_batch_into(&[], d, &mut empty_out).is_ok());
        }

        let row = vec![0.5; wrong];
        let err = width_mismatch(d, wrong);
        prop_assert_eq!(model.predict_one(&row), Err(err.clone()));
        prop_assert_eq!(compiled.predict_one(&row), Err(err.clone()));
        prop_assert_eq!(model.predict_staged(&row, 1), Err(err.clone()));
        prop_assert_eq!(compiled.predict_staged(&row, 1), Err(err.clone()));
        prop_assert_eq!(tree.predict_one(&row), Err(err.clone()));
        prop_assert_eq!(compiled_tree.predict_one(&row), Err(err.clone()));
        // The walker checks each row's width, the compiled engine the declared one.
        let batch = vec![x[0].clone(), row.clone()];
        prop_assert_eq!(model.predict(&batch), Err(err.clone()));
        prop_assert_eq!(tree.predict(&batch), Err(err.clone()));
        prop_assert_eq!(compiled.predict_batch_threaded(&row, wrong, threads), Err(err.clone()));
        prop_assert_eq!(compiled_tree.predict_batch_threaded(&row, wrong, threads), Err(err));

        // A flat buffer that is not a whole number of rows is rejected, not truncated.
        let ragged = vec![0.25; d + (d + 1)];
        if ragged.len() % d != 0 {
            prop_assert!(matches!(
                compiled.predict_batch_threaded(&ragged, d, threads),
                Err(MlError::InvalidParameter { .. })
            ));
        }
        let flat = flatten(&x);
        for len in [x.len() - 1, x.len() + 1] {
            let mut out = vec![f64::NAN; len];
            prop_assert!(matches!(
                compiled.predict_batch_into(&flat, d, &mut out),
                Err(MlError::LengthMismatch { .. })
            ));
            prop_assert!(out.iter().all(|v| v.is_nan()));
        }
    }
}
