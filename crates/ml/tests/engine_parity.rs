//! Property suite: the **three** inference paths of a fitted model — the node-walking
//! predictor, the compiled engine's single-row walk (`predict_one`) and its blocked,
//! 16-row-interleaved batch kernel (`predict_batch_into`) — are **bit-identical** for every
//! input, and reject malformed input with the same typed errors.
//!
//! `compiled_parity` pins the compiled engine to the walker on batches of at most a few
//! hundred rows. This suite covers what those properties leave out:
//!
//! - batches of up to a few thousand rows, which span several 1,024-row cache blocks;
//! - output buffers that arrive dirty: every slot must be overwritten, none accumulated into;
//! - one-tree ensembles (single-leaf ones included) on NaN / ±∞ rows and large batches;
//! - the walker and the compiled engine returning the *same* error for the same bad input.

mod common;

use common::{batch, flatten, non_finite_probes, probes, random_data};
use proptest::prelude::*;
use surf_ml::compiled::CompiledEnsemble;
use surf_ml::gbrt::{Gbrt, GbrtParams};
use surf_ml::MlError;

fn width_mismatch(expected: usize, actual: usize) -> MlError {
    MlError::FeatureWidthMismatch { expected, actual }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The walker, the compiled single-row walk and the compiled batch kernel agree bit
    /// for bit on batches of 1 to 3,000 rows, and `predict_batch_into` overwrites a
    /// NaN-filled output buffer completely.
    #[test]
    fn three_engine_bit_parity(
        n in 5usize..=80,
        d in 1usize..=5,
        n_estimators in 1usize..=8,
        max_depth in 1usize..=6,
        subsample in 0.6f64..=1.0,
        colsample in 0.4f64..=1.0,
        rows in 1usize..=3_000,
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
        let into = batch(&compiled, &flatten(&inputs), d).unwrap();
        prop_assert_eq!(into.len(), rows);
        for (i, expected) in walker.iter().enumerate() {
            let expected = expected.to_bits();
            prop_assert_eq!(compiled.predict_one(&inputs[i]).unwrap().to_bits(), expected);
            prop_assert_eq!(into[i].to_bits(), expected, "into row {}", i);
        }
    }

    /// A compiled one-tree ensemble matches the walker bit for bit on NaN / ±∞ rows and
    /// on batches of up to 2,500 rows — including trees that collapse to a single leaf
    /// (constant targets), whose depth-0 walk reads the root directly.
    #[test]
    fn tree_bit_parity(
        n in 2usize..=100,
        d in 1usize..=4,
        max_depth in 1usize..=8,
        constant_flag in 0usize..=1,
        rows in 1usize..=2_500,
        seed in 0u64..10_000,
    ) {
        let constant_targets = constant_flag == 1;
        let (x, mut y) = random_data(n, d, seed);
        if constant_targets {
            y = vec![2.5; n];
        }
        let params = GbrtParams::quick().with_n_estimators(1).with_max_depth(max_depth);
        let model = Gbrt::fit(&x, &y, &params.with_seed(seed)).unwrap();
        let compiled = CompiledEnsemble::compile(&model).unwrap();
        if constant_targets {
            prop_assert_eq!(model.trees()[0].node_count(), 1);
            prop_assert_eq!(compiled.node_count(), 1);
        }
        let inputs: Vec<Vec<f64>> = non_finite_probes(24, d, seed)
            .into_iter()
            .chain(probes(rows, d, seed))
            .collect();
        let walker = model.predict(&inputs).unwrap();
        let batch = batch(&compiled, &flatten(&inputs), d).unwrap();
        prop_assert_eq!(batch.len(), walker.len());
        for (i, (got, expected)) in batch.iter().zip(&walker).enumerate() {
            prop_assert_eq!(
                compiled.predict_one(&inputs[i]).unwrap().to_bits(),
                expected.to_bits()
            );
            prop_assert_eq!(got.to_bits(), expected.to_bits(), "row {}", i);
        }
    }

    /// Empty batches are empty on every engine. A row of the wrong width is the same typed
    /// error on the ensemble walker, the tree walker and the compiled engine; ragged flat
    /// buffers and output buffers of the wrong length are rejected without writing a slot.
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
        let tree = &model.trees()[0];

        prop_assert!(model.predict(&[]).unwrap().is_empty());
        prop_assert!(tree.predict(&[]).unwrap().is_empty());
        prop_assert!(batch(&compiled, &[], d).unwrap().is_empty());

        let row = vec![0.5; wrong];
        let err = width_mismatch(d, wrong);
        prop_assert_eq!(model.predict_one(&row), Err(err.clone()));
        prop_assert_eq!(compiled.predict_one(&row), Err(err.clone()));
        prop_assert_eq!(tree.predict_one(&row), Err(err.clone()));
        // The walker checks each row's width, the compiled engine the declared one.
        let rows = vec![x[0].clone(), row.clone()];
        prop_assert_eq!(model.predict(&rows), Err(err.clone()));
        prop_assert_eq!(tree.predict(&rows), Err(err.clone()));
        prop_assert_eq!(batch(&compiled, &row, wrong), Err(err));

        // A flat buffer that is not a whole number of rows is rejected, not truncated.
        let ragged = vec![0.25; d + (d + 1)];
        if ragged.len() % d != 0 {
            prop_assert!(matches!(
                batch(&compiled, &ragged, d),
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
