//! Data and batch helpers shared by the `compiled_parity` and `engine_parity` suites.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use surf_ml::compiled::CompiledEnsemble;
use surf_ml::MlError;

/// Unstructured regression data: features in [-3, 3), a rough nonlinear target.
pub fn random_data(n: usize, d: usize, seed: u64) -> (Vec<Vec<f64>>, Vec<f64>) {
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
pub fn probes(n: usize, d: usize, seed: u64) -> Vec<Vec<f64>> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xbeef);
    (0..n)
        .map(|_| (0..d).map(|_| rng.random_range(-50.0..50.0)).collect())
        .collect()
}

/// Probe points with non-finite entries sprinkled in: every row carries at least one of
/// NaN, +∞ or -∞ (in rotation), the rest stay finite.
pub fn non_finite_probes(n: usize, d: usize, seed: u64) -> Vec<Vec<f64>> {
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

pub fn flatten(rows: &[Vec<f64>]) -> Vec<f64> {
    rows.iter().flatten().copied().collect()
}

/// `predict_batch_into` over a fresh NaN-filled buffer sized for `data`.
pub fn batch(compiled: &CompiledEnsemble, data: &[f64], width: usize) -> Result<Vec<f64>, MlError> {
    let mut out = vec![f64::NAN; data.len() / width];
    compiled.predict_batch_into(data, width, &mut out)?;
    Ok(out)
}
