//! Gaussian Kernel Density Estimation.
//!
//! SuRF approximates the data distribution `p_A(a)` with a KDE (over a sample for large
//! datasets) and uses the probability mass a candidate region captures, `∫_{x−l}^{x+l} p_A(a)
//! da`, to bias glowworm movement toward populated parts of the space (Eq. 8 of the paper).
//! The product Gaussian kernel makes that box integral a product of one-dimensional normal
//! CDF differences, evaluated here with an erf approximation.

use serde::{Deserialize, Serialize};

use crate::error::MlError;

/// A fitted kernel density estimate with a diagonal (per-dimension) bandwidth.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct KernelDensity {
    points: Vec<Vec<f64>>,
    bandwidths: Vec<f64>,
}

/// Bandwidth selection rules.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Bandwidth {
    /// Scott's rule: `h_j = σ_j · n^(−1/(d+4))`.
    Scott,
    /// Silverman's rule: `h_j = σ_j · (4 / (d + 2))^(1/(d+4)) · n^(−1/(d+4))`.
    Silverman,
    /// A fixed bandwidth shared by every dimension.
    Fixed(f64),
}

impl KernelDensity {
    /// Fits a KDE on the given points with the chosen bandwidth rule.
    pub fn fit(points: &[Vec<f64>], bandwidth: Bandwidth) -> Result<Self, MlError> {
        if points.is_empty() {
            return Err(MlError::EmptyTrainingSet);
        }
        let d = points[0].len();
        if d == 0 {
            return Err(MlError::RaggedFeatures {
                first: 0,
                row: 0,
                width: 0,
            });
        }
        for (i, p) in points.iter().enumerate() {
            if p.len() != d {
                return Err(MlError::RaggedFeatures {
                    first: d,
                    row: i,
                    width: p.len(),
                });
            }
        }
        let n = points.len() as f64;
        let bandwidths: Vec<f64> = (0..d)
            .map(|dim| {
                let sigma = column_std(points, dim).max(1e-6);
                match bandwidth {
                    Bandwidth::Scott => sigma * n.powf(-1.0 / (d as f64 + 4.0)),
                    Bandwidth::Silverman => {
                        sigma
                            * (4.0 / (d as f64 + 2.0)).powf(1.0 / (d as f64 + 4.0))
                            * n.powf(-1.0 / (d as f64 + 4.0))
                    }
                    Bandwidth::Fixed(h) => h.max(1e-9),
                }
            })
            .collect();
        Ok(Self {
            points: points.to_vec(),
            bandwidths,
        })
    }

    /// Fits a KDE with Scott's rule (the default used by SuRF).
    pub fn fit_scott(points: &[Vec<f64>]) -> Result<Self, MlError> {
        Self::fit(points, Bandwidth::Scott)
    }

    /// Dimensionality of the estimate.
    pub fn dimensions(&self) -> usize {
        self.bandwidths.len()
    }

    /// Number of support points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the estimate holds no support points (never true for a fitted KDE).
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// The per-dimension bandwidths.
    pub fn bandwidths(&self) -> &[f64] {
        &self.bandwidths
    }

    /// Density estimate `p̂(x)`.
    pub fn density(&self, x: &[f64]) -> Result<f64, MlError> {
        if x.len() != self.dimensions() {
            return Err(MlError::FeatureWidthMismatch {
                expected: self.dimensions(),
                actual: x.len(),
            });
        }
        let norm: f64 = self
            .bandwidths
            .iter()
            .map(|h| h * (2.0 * std::f64::consts::PI).sqrt())
            .product();
        let mut total = 0.0;
        for point in &self.points {
            let mut k = 1.0;
            for ((xi, pi), h) in x.iter().zip(point).zip(&self.bandwidths) {
                let z = (xi - pi) / h;
                k *= (-0.5 * z * z).exp();
            }
            total += k;
        }
        Ok(total / (self.points.len() as f64 * norm))
    }

    /// Probability mass the axis-aligned box `[lower, upper]` captures under the estimate:
    /// `∫_box p̂(a) da ∈ [0, 1]`.
    pub fn box_probability(&self, lower: &[f64], upper: &[f64]) -> Result<f64, MlError> {
        for bound in [lower, upper] {
            if bound.len() != self.dimensions() {
                return Err(MlError::FeatureWidthMismatch {
                    expected: self.dimensions(),
                    actual: bound.len(),
                });
            }
        }
        let mut total = 0.0;
        for point in &self.points {
            let mut mass = 1.0;
            for dim in 0..self.dimensions() {
                let h = self.bandwidths[dim];
                let hi = normal_cdf((upper[dim] - point[dim]) / h);
                let lo = normal_cdf((lower[dim] - point[dim]) / h);
                mass *= (hi - lo).max(0.0);
            }
            total += mass;
        }
        Ok((total / self.points.len() as f64).clamp(0.0, 1.0))
    }
}

/// Population standard deviation of one coordinate of the support points.
fn column_std(points: &[Vec<f64>], dim: usize) -> f64 {
    let n = points.len() as f64;
    let mean = points.iter().map(|p| p[dim]).sum::<f64>() / n;
    (points.iter().map(|p| (p[dim] - mean).powi(2)).sum::<f64>() / n).sqrt()
}

/// Standard normal cumulative distribution function via the Abramowitz–Stegun erf
/// approximation (absolute error < 1.5e−7, ample for guiding a swarm).
pub fn normal_cdf(z: f64) -> f64 {
    0.5 * (1.0 + erf(z / std::f64::consts::SQRT_2))
}

/// Error function approximation (Abramowitz & Stegun 7.1.26).
pub fn erf(x: f64) -> f64 {
    let sign = if x < 0.0 { -1.0 } else { 1.0 };
    let x = x.abs();
    let t = 1.0 / (1.0 + 0.3275911 * x);
    let y = 1.0
        - (((((1.061405429 * t - 1.453152027) * t) + 1.421413741) * t - 0.284496736) * t
            + 0.254829592)
            * t
            * (-x * x).exp();
    sign * y
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn uniform_points(n: usize, d: usize, seed: u64) -> Vec<Vec<f64>> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| (0..d).map(|_| rng.random::<f64>()).collect())
            .collect()
    }

    #[test]
    fn erf_matches_known_values() {
        assert!((erf(0.0)).abs() < 1e-7);
        assert!((erf(1.0) - 0.8427007).abs() < 1e-5);
        assert!((erf(-1.0) + 0.8427007).abs() < 1e-5);
        assert!((erf(3.0) - 0.9999779).abs() < 1e-5);
    }

    #[test]
    fn normal_cdf_is_monotone_and_symmetric() {
        assert!((normal_cdf(0.0) - 0.5).abs() < 1e-7);
        assert!(normal_cdf(1.0) > normal_cdf(0.5));
        assert!((normal_cdf(1.96) - 0.975).abs() < 1e-3);
        assert!((normal_cdf(-1.96) - 0.025).abs() < 1e-3);
    }

    #[test]
    fn density_is_higher_where_points_concentrate() {
        let mut points = uniform_points(300, 2, 1);
        // Add a dense blob around (0.2, 0.2).
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..700 {
            points.push(vec![
                0.2 + 0.02 * (rng.random::<f64>() - 0.5),
                0.2 + 0.02 * (rng.random::<f64>() - 0.5),
            ]);
        }
        let kde = KernelDensity::fit_scott(&points).unwrap();
        let dense = kde.density(&[0.2, 0.2]).unwrap();
        let sparse = kde.density(&[0.8, 0.8]).unwrap();
        assert!(dense > 3.0 * sparse, "dense {dense} vs sparse {sparse}");
    }

    #[test]
    fn box_probability_of_whole_domain_is_close_to_one() {
        let points = uniform_points(500, 2, 3);
        let kde = KernelDensity::fit_scott(&points).unwrap();
        let p = kde.box_probability(&[-2.0, -2.0], &[3.0, 3.0]).unwrap();
        assert!(p > 0.99, "p = {p}");
        let empty = kde.box_probability(&[5.0, 5.0], &[6.0, 6.0]).unwrap();
        assert!(empty < 0.01, "empty = {empty}");
    }

    #[test]
    fn box_probability_is_monotone_in_box_size() {
        let points = uniform_points(400, 2, 4);
        let kde = KernelDensity::fit_scott(&points).unwrap();
        let small = kde.box_probability(&[0.4, 0.4], &[0.6, 0.6]).unwrap();
        let large = kde.box_probability(&[0.2, 0.2], &[0.8, 0.8]).unwrap();
        assert!(large > small);
    }

    #[test]
    fn bandwidth_rules_and_accessors() {
        let points = uniform_points(200, 3, 5);
        let scott = KernelDensity::fit(&points, Bandwidth::Scott).unwrap();
        let silverman = KernelDensity::fit(&points, Bandwidth::Silverman).unwrap();
        let fixed = KernelDensity::fit(&points, Bandwidth::Fixed(0.05)).unwrap();
        assert_eq!(scott.dimensions(), 3);
        assert_eq!(scott.len(), 200);
        assert!(!scott.is_empty());
        assert_eq!(fixed.bandwidths(), &[0.05, 0.05, 0.05]);
        // Scott and Silverman give similar (same order of magnitude) bandwidths.
        for (a, b) in scott.bandwidths().iter().zip(silverman.bandwidths()) {
            assert!(a / b > 0.5 && a / b < 2.0);
        }
    }

    #[test]
    fn invalid_inputs_are_rejected() {
        assert!(KernelDensity::fit_scott(&[]).is_err());
        assert!(KernelDensity::fit_scott(&[vec![]]).is_err());
        let ragged = vec![vec![0.1, 0.2], vec![0.3]];
        assert!(KernelDensity::fit_scott(&ragged).is_err());
        let kde = KernelDensity::fit_scott(&uniform_points(10, 2, 6)).unwrap();
        assert!(kde.density(&[0.5]).is_err());
        assert!(kde.box_probability(&[0.0], &[1.0]).is_err());
        // The error reports the width of the slice that mismatches, not the wider one.
        let mismatch = |actual| {
            Err(MlError::FeatureWidthMismatch {
                expected: 2,
                actual,
            })
        };
        assert_eq!(kde.box_probability(&[0.0], &[1.0, 1.0]), mismatch(1));
        assert_eq!(
            kde.box_probability(&[0.0, 0.0], &[1.0, 1.0, 1.0]),
            mismatch(3)
        );
    }
}
