//! Gaussian Kernel Density Estimation.
//!
//! SuRF approximates the data distribution `p_A(a)` with a KDE (over a sample for large
//! datasets) and uses the probability mass a candidate region captures, `∫_{x−l}^{x+l} p_A(a)
//! da`, to bias glowworm movement toward populated parts of the space (Eq. 8 of the paper).
//! The product Gaussian kernel makes that box integral a product of one-dimensional normal
//! CDF differences, evaluated here with the Abramowitz–Stegun 7.1.26 erf approximation.
//!
//! # Scoring a box
//!
//! [`KernelDensity::box_probability`] is the cost of KDE-guided mining: GSO asks for one box
//! mass per glowworm a movement decision reads, thousands per mining call, and every box walks
//! the whole support. The support is scored in blocks of [`BLOCK`] points. For each dimension
//! the block's coordinates are gathered from their rows into a stack array, `1/(h·√2)` is
//! computed once, and the normal CDF is evaluated at the box's upper and lower bound for every
//! point of the block; the per-point masses are multiplied across dimensions and then added in
//! point order.
//!
//! The `exp` inside A&S 7.1.26 is written inline: a Cody–Waite reduction by ln 2, a
//! degree-13 Taylor polynomial on `|r| ≤ ln2/2` evaluated by Estrin's scheme, and `2^k`
//! assembled from exponent bits. It is within 1 ulp of `f64::exp` on `[−708, 0]`, and it is
//! built from adds, multiplies, a `max` and bit operations, so the block loop compiles to packed
//! SIMD. A libm `exp` is an opaque call per CDF that keeps the loop scalar, whatever the data
//! layout.
//!
//! The loop is one `#[inline(always)]` body compiled twice: for the baseline x86-64 target,
//! whose SSE2 packs two lanes, and as a private `#[target_feature(enable = "avx2")]` function
//! with four. `box_probability` takes the AVX2 build whenever
//! `is_x86_feature_detected!("avx2")` holds, the same probe whose answer surf-simd stamps on
//! benchmark records. That call is this crate's one `unsafe` block. AVX2 alone does not fuse a
//! multiply and an add (that is FMA, which stays off), so both builds run the same operations in
//! the same order and every box mass keeps its bits; a unit test compares the two builds by
//! `to_bits()`.
//!
//! Against the same A&S formula with two divisions and a libm `exp` per CDF (the oracle of the
//! `kde_parity` suite), a box mass differs by at most `1e−14` relative plus `1e−16` absolute,
//! far inside the approximation's own `1.5e−7` erf error; GSO trajectories over the suite's
//! mining fixtures stay bit-identical.

use std::f64::consts::{FRAC_1_SQRT_2, LOG2_E};

use serde::{Deserialize, Serialize};

use crate::error::{validate_features, MlError};

/// Support points [`KernelDensity::box_probability`] scores together; a block's coordinates and
/// masses live in stack arrays of this length.
pub const BLOCK: usize = 64;

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
    ///
    /// # Errors
    ///
    /// Whatever [`KernelDensity::validate`] finds wrong with the fit: no points, ragged or
    /// non-finite points, or a [`Bandwidth::Fixed`] value that is not finite and positive.
    pub fn fit(points: &[Vec<f64>], bandwidth: Bandwidth) -> Result<Self, MlError> {
        let d = points.first().map_or(0, Vec::len);
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
                    Bandwidth::Fixed(h) => h,
                }
            })
            .collect();
        let kde = Self {
            points: points.to_vec(),
            bandwidths,
        };
        kde.validate()?;
        Ok(kde)
    }

    /// Fits a KDE with Scott's rule (the default used by SuRF).
    pub fn fit_scott(points: &[Vec<f64>]) -> Result<Self, MlError> {
        Self::fit(points, Bandwidth::Scott)
    }

    /// Checks what scoring indexes and divides by: at least one support point, every point
    /// finite and exactly as wide as the bandwidths, and every bandwidth finite and positive.
    /// [`KernelDensity::fit`] runs it on the estimate it builds; a caller restoring an
    /// estimate from serialized state runs it before scoring a box.
    ///
    /// # Errors
    ///
    /// [`MlError::EmptyTrainingSet`] without points, [`MlError::RaggedFeatures`] for a
    /// zero-width or ragged row, [`MlError::NonFiniteFeature`] for a NaN or infinite
    /// coordinate, [`MlError::FeatureWidthMismatch`] when the points' width differs from the
    /// number of bandwidths, and [`MlError::InvalidParameter`] for a bandwidth that is not
    /// finite and positive.
    pub fn validate(&self) -> Result<(), MlError> {
        let width = validate_features(&self.points)?;
        if width != self.bandwidths.len() {
            return Err(MlError::FeatureWidthMismatch {
                expected: self.bandwidths.len(),
                actual: width,
            });
        }
        if let Some(h) = self
            .bandwidths
            .iter()
            .find(|h| !(h.is_finite() && **h > 0.0))
        {
            return Err(MlError::InvalidParameter {
                name: "bandwidth",
                value: h.to_string(),
            });
        }
        Ok(())
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
    /// `∫_box p̂(a) da ∈ [0, 1]`. Scored in blocks of [`BLOCK`] support points (see the module
    /// documentation); a NaN, inverted or zero-width side captures no mass.
    pub fn box_probability(&self, lower: &[f64], upper: &[f64]) -> Result<f64, MlError> {
        for bound in [lower, upper] {
            if bound.len() != self.dimensions() {
                return Err(MlError::FeatureWidthMismatch {
                    expected: self.dimensions(),
                    actual: bound.len(),
                });
            }
        }
        Ok((self.support_mass(lower, upper) / self.points.len() as f64).clamp(0.0, 1.0))
    }

    /// The support's summed box masses from the widest build of [`block_loop`] this CPU runs:
    /// the AVX2 instantiation when `is_x86_feature_detected!("avx2")` holds, the baseline
    /// build otherwise. Both return the same bits.
    fn support_mass(&self, lower: &[f64], upper: &[f64]) -> f64 {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: `block_loop_avx2` requires only that the CPU executes AVX2, which the
            // check above has just confirmed.
            #[allow(unsafe_code)]
            let total = unsafe { block_loop_avx2(&self.points, &self.bandwidths, lower, upper) };
            return total;
        }
        block_loop(&self.points, &self.bandwidths, lower, upper)
    }
}

/// Sum over the support of each point's box mass, the product over dimensions of
/// `max(Φ(upper) − Φ(lower), 0)`, scored in blocks of [`BLOCK`] points and added in point
/// order. `lower` and `upper` hold one bound per bandwidth. Compiled twice: inline into
/// [`KernelDensity::support_mass`] for the baseline target, and as [`block_loop_avx2`].
#[inline(always)]
fn block_loop(points: &[Vec<f64>], bandwidths: &[f64], lower: &[f64], upper: &[f64]) -> f64 {
    let mut coords = [0.0; BLOCK];
    let mut masses = [0.0; BLOCK];
    let mut total = 0.0;
    for block in points.chunks(BLOCK) {
        let coords = &mut coords[..block.len()];
        let masses = &mut masses[..block.len()];
        masses.fill(1.0);
        for (dim, h) in bandwidths.iter().enumerate() {
            for (coord, point) in coords.iter_mut().zip(block) {
                *coord = point[dim];
            }
            let scale = FRAC_1_SQRT_2 / h;
            let (hi, lo) = (upper[dim], lower[dim]);
            for (mass, &coord) in masses.iter_mut().zip(coords.iter()) {
                let above = 0.5 * (1.0 + erf((hi - coord) * scale));
                let below = 0.5 * (1.0 + erf((lo - coord) * scale));
                *mass *= (above - below).max(0.0);
            }
        }
        for &mass in masses.iter() {
            total += mass;
        }
    }
    total
}

/// [`block_loop`] compiled with AVX2 enabled: four lanes where the baseline build has two, and
/// the same operations in the same order (AVX2 brings no FMA), so the same bits.
///
/// # Safety
///
/// The CPU must execute AVX2 instructions.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[allow(unsafe_code)]
// SAFETY: `unsafe` only because a safe `#[target_feature]` function needs Rust 1.86 and the
// workspace supports 1.80; the body is safe code, and the one caller checks for AVX2 first.
unsafe fn block_loop_avx2(
    points: &[Vec<f64>],
    bandwidths: &[f64],
    lower: &[f64],
    upper: &[f64],
) -> f64 {
    block_loop(points, bandwidths, lower, upper)
}

/// Population standard deviation of one coordinate of the support points. A row too short to
/// have the coordinate is skipped; [`KernelDensity::validate`] rejects the fit it belongs to.
fn column_std(points: &[Vec<f64>], dim: usize) -> f64 {
    let column = || points.iter().filter_map(|p| p.get(dim));
    let n = points.len() as f64;
    let mean = column().sum::<f64>() / n;
    (column().map(|v| (v - mean).powi(2)).sum::<f64>() / n).sqrt()
}

/// Error function approximation (Abramowitz & Stegun 7.1.26, absolute error < 1.5e−7, ample
/// for guiding a swarm), with the inline [`exp`].
#[inline(always)]
fn erf(x: f64) -> f64 {
    let a = x.abs();
    let t = 1.0 / (1.0 + 0.3275911 * a);
    let y = 1.0
        - (((((1.061405429 * t - 1.453152027) * t) + 1.421413741) * t - 0.284496736) * t
            + 0.254829592)
            * t
            * exp(-a * a);
    if x < 0.0 {
        -y
    } else {
        y
    }
}

/// `e^x` for `x ≤ 0`, within 1 ulp of `f64::exp` on `[−708, 0]`, from adds, multiplies, one
/// `max` and bit operations alone so that a loop calling it vectorizes.
///
/// `x = k·ln2 + r` with `k` the nearest integer to `x/ln2`, found by adding `1.5·2^52`, which
/// rounds to an integer in the low mantissa bits (`f64::round` is a libm call on baseline
/// x86-64). `r` is reduced against a two-part ln 2 whose high part has enough trailing zeros
/// that `k·LN2_HI` is exact, `e^r` is the Taylor polynomial through `r^13` (truncation below
/// 1e−17 relative for `|r| ≤ ln2/2`), and `2^k` is `k + 1023` moved into the exponent field.
/// Arguments below −708, where `2^k` would leave the normal range, are clamped to −708: there
/// A&S 7.1.26 multiplies `e^x` by less than 1, so the term it subtracts from 1 is below 1e−307
/// either way and no result changes.
#[inline(always)]
fn exp(x: f64) -> f64 {
    const SHIFT: f64 = 6_755_399_441_055_744.0; // 1.5 · 2^52
    const LN2_HI: f64 = 0.693_147_180_369_123_8;
    const LN2_LO: f64 = 1.908_214_929_270_587_7e-10;
    /// `1/n!` for `n = 2, 3, …, 13`.
    const C: [f64; 12] = [
        1.0 / 2.0,
        1.0 / 6.0,
        1.0 / 24.0,
        1.0 / 120.0,
        1.0 / 720.0,
        1.0 / 5_040.0,
        1.0 / 40_320.0,
        1.0 / 362_880.0,
        1.0 / 3_628_800.0,
        1.0 / 39_916_800.0,
        1.0 / 479_001_600.0,
        1.0 / 6_227_020_800.0,
    ];
    let x = x.max(-708.0);
    let shifted = x * LOG2_E + SHIFT;
    let k = shifted - SHIFT;
    let r = (x - k * LN2_HI) - k * LN2_LO;
    // e^r = 1 + r + r²·p(r). Estrin's scheme keeps p's dependency chain four multiplies deep
    // where Horner's rule is twelve, so more of a block's points are in flight at once.
    let r2 = r * r;
    let r4 = r2 * r2;
    let p = (C[0] + C[1] * r + (C[2] + C[3] * r) * r2)
        + (C[4] + C[5] * r + (C[6] + C[7] * r) * r2) * r4
        + (C[8] + C[9] * r + (C[10] + C[11] * r) * r2) * (r4 * r4);
    let e_r = 1.0 + (r + r2 * p);
    // The low bits of `shifted` hold `2^51 + k`; the shift by 52 drops everything above
    // `k + 1023`, which lands in the exponent field as 2^k.
    e_r * f64::from_bits(shifted.to_bits().wrapping_add(1023) << 52)
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

    /// The standard normal CDF as the kernel evaluates it.
    fn normal_cdf(z: f64) -> f64 {
        0.5 * (1.0 + erf(z * FRAC_1_SQRT_2))
    }

    #[test]
    fn erf_matches_known_values() {
        assert!((erf(0.0)).abs() < 1e-7);
        assert!((erf(1.0) - 0.8427007).abs() < 1e-5);
        assert!((erf(-1.0) + 0.8427007).abs() < 1e-5);
        assert!((erf(3.0) - 0.9999779).abs() < 1e-5);
        assert_eq!(erf(f64::INFINITY), 1.0);
        assert_eq!(erf(f64::NEG_INFINITY), -1.0);
        assert!(erf(f64::NAN).is_nan());
    }

    #[test]
    fn normal_cdf_is_monotone_and_symmetric() {
        assert!((normal_cdf(0.0) - 0.5).abs() < 1e-7);
        assert!(normal_cdf(1.0) > normal_cdf(0.5));
        assert!((normal_cdf(1.96) - 0.975).abs() < 1e-3);
        assert!((normal_cdf(-1.96) - 0.025).abs() < 1e-3);
    }

    #[test]
    fn inline_exp_is_within_one_ulp_of_libm() {
        let ulps = |x: f64| {
            let (ours, libm) = (exp(x), x.exp());
            assert!(ours.is_finite() && ours > 0.0, "exp({x}) = {ours}");
            (ours.to_bits() as i64 - libm.to_bits() as i64).unsigned_abs()
        };
        let edges = [
            0.0,
            -0.0,
            -f64::MIN_POSITIVE,
            -1e-300,
            -f64::EPSILON,
            -0.5 * std::f64::consts::LN_2,
            -1.5 * std::f64::consts::LN_2,
            -1.0,
            -700.0,
            -707.999_999,
            -708.0,
        ];
        for x in edges {
            assert!(ulps(x) <= 1, "exp({x}): {} ulps", ulps(x));
        }
        let samples = 1_000_000;
        let mut rng = StdRng::seed_from_u64(7);
        for i in 0..samples {
            // An even grid over [−708, 0], then the same count spread log-uniformly toward 0.
            let grid = -708.0 * i as f64 / samples as f64;
            let near_zero = -(10f64).powf(rng.random::<f64>() * 18.0 - 16.0);
            for x in [grid, near_zero] {
                assert!(ulps(x) <= 1, "exp({x}): {} ulps", ulps(x));
            }
        }
        // Past the clamp the value stays e^−708: positive, normal and below any A&S term.
        assert_eq!(exp(-1e6), exp(-708.0));
        assert_eq!(exp(f64::NEG_INFINITY), exp(-708.0));
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

    /// Half the points uniform on the unit cube, half in a tight cluster at 0.3.
    fn mixed_support(n: usize, d: usize, rng: &mut StdRng) -> Vec<Vec<f64>> {
        (0..n)
            .map(|i| {
                let (origin, width) = if i % 2 == 0 { (0.0, 1.0) } else { (0.3, 0.05) };
                (0..d)
                    .map(|_| origin + width * rng.random::<f64>())
                    .collect()
            })
            .collect()
    }

    /// A box inside the data, across the cluster's edge, or far outside the data in the first
    /// dimension.
    fn random_box(d: usize, rng: &mut StdRng) -> (Vec<f64>, Vec<f64>) {
        let kind = rng.random_range(0..3usize);
        (0..d)
            .map(|dim| {
                let (centre, half) = match kind {
                    0 => (rng.random::<f64>(), 0.001 + 0.3 * rng.random::<f64>()),
                    1 => (0.3 + 0.05 * rng.random::<f64>(), 0.05 * rng.random::<f64>()),
                    _ if dim == 0 => {
                        let side = if rng.random::<bool>() { 1.0 } else { -1.0 };
                        (0.5 + side * (3.0 + 50.0 * rng.random::<f64>()), 0.5)
                    }
                    _ => (rng.random::<f64>(), 0.3 * rng.random::<f64>()),
                };
                (centre - half, centre + half)
            })
            .unzip()
    }

    /// `box_probability` and the kernel it dispatches to (the AVX2 instantiation on an AVX2
    /// CPU) against the baseline build of the block loop, bit for bit.
    fn assert_same_bits(kde: &KernelDensity, lower: &[f64], upper: &[f64]) {
        let baseline = block_loop(&kde.points, &kde.bandwidths, lower, upper);
        let dispatched = kde.support_mass(lower, upper);
        let context = || format!("{} points, box {lower:?}..{upper:?}", kde.len());
        assert_eq!(
            dispatched.to_bits(),
            baseline.to_bits(),
            "dispatched {dispatched:e} vs baseline {baseline:e}: {}",
            context()
        );
        let expected = (baseline / kde.len() as f64).clamp(0.0, 1.0);
        let probability = kde.box_probability(lower, upper).unwrap();
        assert_eq!(probability.to_bits(), expected.to_bits(), "{}", context());
    }

    #[test]
    fn every_build_of_the_block_loop_gives_the_same_bits() {
        #[cfg(target_arch = "x86_64")]
        let avx2 = std::arch::is_x86_feature_detected!("avx2");
        #[cfg(not(target_arch = "x86_64"))]
        let avx2 = false;
        if !avx2 {
            println!("no AVX2 on this CPU: checked the baseline build of the block loop alone");
        }
        let mut rng = StdRng::seed_from_u64(26);
        let special = [
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            0.3,
            f64::MAX,
            -f64::MAX,
        ];
        for d in 1..=5 {
            for n in [1, BLOCK - 1, BLOCK, BLOCK + 1, 2_000] {
                let points = mixed_support(n, d, &mut rng);
                let kde = KernelDensity::fit_scott(&points).unwrap();
                for _ in 0..if n == 2_000 { 100 } else { 400 } {
                    let (lower, upper) = random_box(d, &mut rng);
                    assert_same_bits(&kde, &lower, &upper);
                }
                // Every pair of special values on one side of one box, which includes NaN,
                // infinite, inverted and zero-width sides, then a whole box inverted and one
                // of zero width.
                let (lower, upper) = random_box(d, &mut rng);
                let dim = rng.random_range(0..d);
                for &lo in &special {
                    for &hi in &special {
                        let (mut l, mut u) = (lower.clone(), upper.clone());
                        (l[dim], u[dim]) = (lo, hi);
                        assert_same_bits(&kde, &l, &u);
                    }
                }
                assert_same_bits(&kde, &upper, &lower);
                assert_same_bits(&kde, &lower, &lower);
            }
        }
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
        assert_eq!(
            KernelDensity::fit_scott(&[]),
            Err(MlError::EmptyTrainingSet)
        );
        assert!(KernelDensity::fit_scott(&[vec![]]).is_err());
        let ragged = vec![vec![0.1, 0.2], vec![0.3]];
        assert!(KernelDensity::fit_scott(&ragged).is_err());
        // A non-finite coordinate makes its column's σ non-finite, which `.max(1e-6)` would
        // pass off as a usable bandwidth.
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let points = vec![vec![0.1, 0.2], vec![0.3, 0.4], vec![bad, 0.5]];
            for rule in [
                Bandwidth::Scott,
                Bandwidth::Silverman,
                Bandwidth::Fixed(0.1),
            ] {
                assert_eq!(
                    KernelDensity::fit(&points, rule),
                    Err(MlError::NonFiniteFeature { row: 2, column: 0 })
                );
            }
        }
        // A fixed bandwidth must be finite and positive; nothing floors it to a usable one.
        let points = uniform_points(10, 2, 6);
        for h in [f64::NAN, f64::INFINITY, -1.0, 0.0] {
            assert!(matches!(
                KernelDensity::fit(&points, Bandwidth::Fixed(h)),
                Err(MlError::InvalidParameter {
                    name: "bandwidth",
                    ..
                })
            ));
        }
        let kde = KernelDensity::fit_scott(&points).unwrap();
        assert_eq!(kde.validate(), Ok(()));
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
