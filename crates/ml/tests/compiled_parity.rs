//! Property suite: the compiled struct-of-arrays inference engine is **bit-identical** to
//! the node-walking predictors.
//!
//! Compilation only rearranges storage — per example the compiled engine performs exactly
//! the walker's comparison sequence and accumulation order — so, unlike the trainer-parity
//! suite (`hist_parity`), these properties need no carefully-representable lattice data:
//! bit-identity must hold for *arbitrary* fitted models and *arbitrary* inputs, including
//! inputs far outside the training range, for `predict_one` and `predict_batch_into`,
//! through single-leaf trees, deep trees, one-tree ensembles and empty batches. Width
//! mismatches must surface as typed errors, never as NaN predictions.
//!
//! Non-finite inputs are the routing edge: the compiled walk uses `!(x <= t)` so that NaN
//! goes right exactly as the walker's `if x <= t { left } else { right }` does, and ±∞
//! compare like any other value. Rows carrying NaN and ±∞ are checked on their own, and
//! on batch sizes around the 16-row interleave group, where the grouped loop and the tail
//! loop take different code.

mod common;

use common::{batch, flatten, non_finite_probes, probes, random_data};
use proptest::prelude::*;
use surf_ml::compiled::CompiledEnsemble;
use surf_ml::gbrt::{Gbrt, GbrtParams};
use surf_ml::MlError;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `predict_one` and `predict_batch_into` of a compiled ensemble are bit-identical to
    /// the boosting walker on arbitrary inputs.
    #[test]
    fn ensemble_bit_parity(
        n in 5usize..=120,
        d in 1usize..=5,
        n_estimators in 1usize..=12,
        max_depth in 1usize..=6,
        subsample in 0.6f64..=1.0,
        colsample in 0.4f64..=1.0,
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
        prop_assert_eq!(compiled.n_trees(), model.n_trees());

        let inputs: Vec<Vec<f64>> = x.into_iter().chain(probes(20, d, seed)).collect();
        let walker = model.predict(&inputs).unwrap();
        for (row, expected) in inputs.iter().zip(&walker) {
            prop_assert_eq!(
                compiled.predict_one(row).unwrap().to_bits(),
                expected.to_bits()
            );
        }
        let batch = batch(&compiled, &flatten(&inputs), d).unwrap();
        prop_assert_eq!(batch.len(), walker.len());
        for (got, expected) in batch.iter().zip(&walker) {
            prop_assert_eq!(got.to_bits(), expected.to_bits());
        }
    }

    /// Rows carrying NaN and ±∞ predict bit-identically to the walker: NaN takes the right
    /// branch of every split (`!(x <= t)`), -∞ the left, +∞ the right.
    #[test]
    fn non_finite_rows_bit_parity(
        n in 5usize..=60,
        d in 1usize..=5,
        n_estimators in 1usize..=10,
        max_depth in 1usize..=6,
        seed in 0u64..10_000,
    ) {
        let (x, y) = random_data(n, d, seed);
        let params = GbrtParams {
            n_estimators,
            max_depth,
            seed,
            ..GbrtParams::quick()
        };
        let model = Gbrt::fit(&x, &y, &params).unwrap();
        let compiled = CompiledEnsemble::compile(&model).unwrap();

        let inputs = non_finite_probes(24, d, seed);
        let walker = model.predict(&inputs).unwrap();
        for (row, expected) in inputs.iter().zip(&walker) {
            prop_assert_eq!(
                compiled.predict_one(row).unwrap().to_bits(),
                expected.to_bits()
            );
        }
        let batch = batch(&compiled, &flatten(&inputs), d).unwrap();
        prop_assert_eq!(batch.len(), walker.len());
        for (got, expected) in batch.iter().zip(&walker) {
            prop_assert_eq!(got.to_bits(), expected.to_bits());
        }
    }

    /// A compiled one-tree ensemble matches both walkers bit for bit: the boosting walker
    /// and `base + lr · leaf` through the tree walker — including trees that collapse to a
    /// single leaf (constant targets), where the root is the leaf.
    #[test]
    fn tree_bit_parity(
        n in 2usize..=100,
        d in 1usize..=4,
        max_depth in 1usize..=8,
        constant_flag in 0usize..=1,
        seed in 0u64..10_000,
    ) {
        let constant_targets = constant_flag == 1;
        let (x, mut y) = random_data(n, d, seed);
        if constant_targets {
            y = vec![2.5; n];
        }
        let params = GbrtParams::quick().with_n_estimators(1).with_max_depth(max_depth);
        let model = Gbrt::fit(&x, &y, &params.with_seed(seed)).unwrap();
        let tree = &model.trees()[0];
        let compiled = CompiledEnsemble::compile(&model).unwrap();
        prop_assert_eq!(compiled.node_count(), tree.node_count());
        if constant_targets {
            prop_assert_eq!(tree.node_count(), 1);
        }
        let inputs: Vec<Vec<f64>> = x.into_iter().chain(probes(10, d, seed)).collect();
        let walker = model.predict(&inputs).unwrap();
        let batch = batch(&compiled, &flatten(&inputs), d).unwrap();
        for ((row, expected), got) in inputs.iter().zip(&walker).zip(&batch) {
            let leaf = tree.predict_one(row).unwrap();
            let through_tree = model.base_prediction() + model.learning_rate() * leaf;
            prop_assert_eq!(through_tree.to_bits(), expected.to_bits());
            prop_assert_eq!(
                compiled.predict_one(row).unwrap().to_bits(),
                expected.to_bits()
            );
            prop_assert_eq!(got.to_bits(), expected.to_bits());
        }
    }

    /// Empty batches yield empty outputs; width mismatches are typed errors on every entry
    /// point (never NaN-filled results).
    #[test]
    fn empty_batches_and_width_mismatches(
        d in 1usize..=4,
        offset in 1usize..=6,
        seed in 0u64..1_000,
    ) {
        // `wrong` is always a different, positive width.
        let wrong = d + offset;
        let (x, y) = random_data(30, d, seed);
        let model = Gbrt::fit(&x, &y, &GbrtParams::quick().with_n_estimators(3)).unwrap();
        let compiled = CompiledEnsemble::compile(&model).unwrap();

        prop_assert!(batch(&compiled, &[], d).unwrap().is_empty());

        let row = vec![0.5; wrong];
        prop_assert_eq!(
            compiled.predict_one(&row),
            Err(MlError::FeatureWidthMismatch { expected: d, actual: wrong })
        );
        prop_assert!(matches!(
            batch(&compiled, &row, wrong),
            Err(MlError::FeatureWidthMismatch { .. })
        ));
        // A flat buffer that is not a whole number of rows is rejected, not truncated.
        let ragged = vec![0.25; d + (d + 1)];
        if ragged.len() % d != 0 {
            prop_assert!(matches!(
                batch(&compiled, &ragged, d),
                Err(MlError::InvalidParameter { .. })
            ));
        }
    }
}

/// Deterministic tail-lane coverage: every batch size around the 16-row interleave-group
/// boundary, with a third of the rows carrying **only** non-finite entries (NaN / ±∞ in
/// every slot), predicts bit-identically to the walker.
#[test]
fn tail_lanes_and_all_non_finite_rows_match_the_walker() {
    let (x, y) = random_data(200, 3, 42);
    let params = GbrtParams {
        n_estimators: 8,
        max_depth: 6,
        seed: 42,
        ..GbrtParams::quick()
    };
    let model = Gbrt::fit(&x, &y, &params).unwrap();
    let compiled = CompiledEnsemble::compile(&model).unwrap();
    let specials = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY];

    for n in [1usize, 2, 5, 15, 16, 17, 31, 32, 33, 47, 48, 49, 63, 64, 65] {
        let mut rows = probes(n, 3, 1_000 + n as u64);
        for (i, row) in rows.iter_mut().enumerate() {
            if i % 3 == 0 {
                for (j, value) in row.iter_mut().enumerate() {
                    *value = specials[(i + j) % specials.len()];
                }
            }
        }
        let walker = model.predict(&rows).unwrap();
        let batch = batch(&compiled, &flatten(&rows), 3).unwrap();
        assert_eq!(batch.len(), walker.len());
        for (i, (got, expected)) in batch.iter().zip(&walker).enumerate() {
            assert_eq!(got.to_bits(), expected.to_bits(), "n={n} row={i}");
        }
    }
}
