//! Parity of the blocked KDE box kernel with the scalar form it replaced.
//!
//! `KernelDensity::box_probability` scores support points in blocks, with `1/(h·√2)` hoisted
//! to one multiply per dimension and an inline `exp` inside the Abramowitz–Stegun 7.1.26 erf.
//! The oracle here is the scalar form: per point and dimension, two divisions and a libm `exp`
//! per CDF. Two properties let the kernel change floating-point results safely:
//!
//! * every box mass is within `1e−14` relative plus `1e−16` absolute of the oracle's, across
//!   dimensionalities, support sizes around the block width, and boxes inside, outside and
//!   across the data, including NaN, infinite, inverted and zero-width bounds;
//! * a paper-default GSO run guided by the kernel is bit-identical to the same run guided by
//!   the oracle, so mining outcomes do not move.
//!
//! CI runs this suite in a release build as well, where the kernel's loop is vectorized.

use std::f64::consts::SQRT_2;
use std::sync::atomic::{AtomicUsize, Ordering};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use surf_core::finder::RegionFitness;
use surf_core::{Objective, Threshold, TrueFunctionSurrogate};
use surf_data::statistic::Statistic;
use surf_data::synthetic::{SyntheticDataset, SyntheticSpec};
use surf_ml::kde::{KernelDensity, BLOCK};
use surf_optim::fitness::{FitnessFunction, SolutionBounds};
use surf_optim::gso::{GlowwormSwarm, GsoParams, GsoResult};

/// Error function approximation (Abramowitz & Stegun 7.1.26) with libm's `exp`.
fn oracle_erf(x: f64) -> f64 {
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

fn oracle_normal_cdf(z: f64) -> f64 {
    0.5 * (1.0 + oracle_erf(z / SQRT_2))
}

/// The scalar box mass: one point at a time, dimensions in order, masses added in point order.
fn oracle_box_probability(
    points: &[Vec<f64>],
    bandwidths: &[f64],
    lower: &[f64],
    upper: &[f64],
) -> f64 {
    let mut total = 0.0;
    for point in points {
        let mut mass = 1.0;
        for (dim, h) in bandwidths.iter().enumerate() {
            let hi = oracle_normal_cdf((upper[dim] - point[dim]) / h);
            let lo = oracle_normal_cdf((lower[dim] - point[dim]) / h);
            mass *= (hi - lo).max(0.0);
        }
        total += mass;
    }
    (total / points.len() as f64).clamp(0.0, 1.0)
}

/// Half the points uniform on the unit cube, half in a tight cluster, so the Scott bandwidths
/// sit between the two scales.
fn support(n: usize, d: usize, rng: &mut StdRng) -> Vec<Vec<f64>> {
    (0..n)
        .map(|i| {
            (0..d)
                .map(|_| {
                    if i % 2 == 0 {
                        rng.random::<f64>()
                    } else {
                        0.3 + 0.05 * rng.random::<f64>()
                    }
                })
                .collect()
        })
        .collect()
}

/// A random box: inside the data, straddling its edge, or far outside it.
fn random_box(d: usize, rng: &mut StdRng) -> (Vec<f64>, Vec<f64>) {
    let kind = rng.random_range(0..4usize);
    let mut lower = Vec::with_capacity(d);
    let mut upper = Vec::with_capacity(d);
    for dim in 0..d {
        let (centre, half) = match kind {
            0 => (rng.random::<f64>(), 0.001 + 0.3 * rng.random::<f64>()),
            1 => (
                0.3 + 0.05 * rng.random::<f64>(),
                1e-4 + 0.05 * rng.random::<f64>(),
            ),
            2 => (-0.5 + 2.0 * rng.random::<f64>(), 0.01 + rng.random::<f64>()),
            // Far outside in the first dimension only, or in every dimension.
            _ if dim == 0 || rng.random::<bool>() => {
                let side = if rng.random::<bool>() { 1.0 } else { -1.0 };
                (
                    0.5 + side * (3.0 + 50.0 * rng.random::<f64>()),
                    0.1 + rng.random::<f64>(),
                )
            }
            _ => (rng.random::<f64>(), 0.01 + 0.3 * rng.random::<f64>()),
        };
        lower.push(centre - half);
        upper.push(centre + half);
    }
    (lower, upper)
}

fn assert_matches_oracle(kde: &KernelDensity, points: &[Vec<f64>], lower: &[f64], upper: &[f64]) {
    let kernel = kde.box_probability(lower, upper).unwrap();
    let oracle = oracle_box_probability(points, kde.bandwidths(), lower, upper);
    let difference = (kernel - oracle).abs();
    assert!(
        difference <= 1e-14 * oracle + 1e-16,
        "kernel {kernel:e} vs oracle {oracle:e} (difference {difference:e}) for \
         {} points in d = {}, box {lower:?}..{upper:?}",
        points.len(),
        kde.dimensions()
    );
}

#[test]
fn kernel_matches_the_scalar_oracle_around_the_block_width() {
    let mut rng = StdRng::seed_from_u64(16);
    for d in 1..=5 {
        for n in [1, BLOCK - 1, BLOCK, BLOCK + 1, 2_000] {
            let points = support(n, d, &mut rng);
            let kde = KernelDensity::fit_scott(&points).unwrap();
            let boxes = if n == 2_000 { 150 } else { 1_000 };
            for _ in 0..boxes {
                let (lower, upper) = random_box(d, &mut rng);
                assert_matches_oracle(&kde, &points, &lower, &upper);
            }
        }
    }
}

#[test]
fn kernel_matches_the_scalar_oracle_on_degenerate_bounds() {
    let mut rng = StdRng::seed_from_u64(17);
    for d in 1..=3 {
        for n in [1, BLOCK + 1, 300] {
            let points = support(n, d, &mut rng);
            let kde = KernelDensity::fit_scott(&points).unwrap();
            let (lower, upper) = random_box(d, &mut rng);
            let special = [
                f64::NAN,
                f64::INFINITY,
                f64::NEG_INFINITY,
                0.3,
                f64::MAX,
                -f64::MAX,
            ];
            for dim in 0..d {
                for &lo in &special {
                    for &hi in &special {
                        let (mut l, mut u) = (lower.clone(), upper.clone());
                        l[dim] = lo;
                        u[dim] = hi;
                        assert_matches_oracle(&kde, &points, &l, &u);
                    }
                }
            }
            // The whole line in every dimension holds all the mass; a NaN, inverted or
            // zero-width side holds none.
            let everything = kde
                .box_probability(&vec![f64::NEG_INFINITY; d], &vec![f64::INFINITY; d])
                .unwrap();
            assert_eq!(everything, 1.0);
            let mut nan = upper.clone();
            nan[d - 1] = f64::NAN;
            assert_eq!(kde.box_probability(&lower, &nan).unwrap(), 0.0);
            assert_eq!(kde.box_probability(&upper, &lower).unwrap(), 0.0);
            assert_eq!(kde.box_probability(&lower, &lower).unwrap(), 0.0);
        }
    }
}

/// Delegates everything to the kernel-guided landscape except the density weight, which it
/// computes with the oracle exactly as `RegionFitness::density_weight` does with the kernel.
struct OracleGuided<'a> {
    inner: &'a RegionFitness<'a>,
    points: &'a [Vec<f64>],
    bandwidths: &'a [f64],
    weights: AtomicUsize,
}

impl FitnessFunction for OracleGuided<'_> {
    fn bounds(&self) -> SolutionBounds {
        self.inner.bounds()
    }

    fn fitness(&self, solution: &[f64]) -> f64 {
        self.inner.fitness(solution)
    }

    fn fitness_batch(&self, solutions: &[f64], dim: usize, out: &mut [f64]) {
        self.inner.fitness_batch(solutions, dim, out)
    }

    fn density_weight(&self, solution: &[f64]) -> f64 {
        self.weights.fetch_add(1, Ordering::Relaxed);
        match self.inner.decode(solution) {
            Some(region) => oracle_box_probability(
                self.points,
                self.bandwidths,
                &region.lower(),
                &region.upper(),
            )
            .max(1e-12),
            None => 1.0,
        }
    }
}

/// An FNV-1a fold, one 64-bit word at a time, over the bits of every value in a result.
fn digest(result: &GsoResult) -> u64 {
    let mut words: Vec<u64> = Vec::new();
    for g in &result.glowworms {
        words.extend(g.position.iter().map(|v| v.to_bits()));
        words.extend([g.fitness.to_bits(), g.luciferin.to_bits()]);
    }
    words.extend(result.mean_fitness_history.iter().map(|v| v.to_bits()));
    words.extend([
        result.iterations_run as u64,
        u64::from(result.converged),
        result.fitness_evaluations as u64,
    ]);
    words.into_iter().fold(0xcbf2_9ce4_8422_2325, |hash, word| {
        (hash ^ word).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[test]
fn guided_mining_is_bit_identical_under_the_oracle() {
    let synthetic = SyntheticDataset::generate(
        &SyntheticSpec::density(2, 1)
            .with_points(4_000)
            .with_points_per_region(1_200)
            .with_seed(11),
    );
    let dataset = &synthetic.dataset;
    let points: Vec<Vec<f64>> = (0..dataset.len())
        .step_by(4)
        .map(|i| dataset.row(i).values)
        .collect();
    let kde = KernelDensity::fit_scott(&points).unwrap();
    let surrogate = TrueFunctionSurrogate::new(dataset, Statistic::Count, 0.0);
    let fitness = RegionFitness::new(
        &surrogate,
        Objective::paper_default(),
        Threshold::above(600.0),
        dataset.domain().unwrap(),
        Some(&kde),
        0.01,
        0.15,
    );
    let oracle = OracleGuided {
        inner: &fitness,
        points: &points,
        bandwidths: kde.bandwidths(),
        weights: AtomicUsize::new(0),
    };
    for seed in [1, 2, 3, 4] {
        let swarm = GlowwormSwarm::new(GsoParams::paper_default().with_seed(seed));
        let before = oracle.weights.load(Ordering::Relaxed);
        let kernel_run = swarm.run(&fitness);
        let oracle_run = swarm.run(&oracle);
        let weights = oracle.weights.load(Ordering::Relaxed) - before;
        assert!(weights > 100, "seed {seed}: only {weights} density weights");
        assert!(kernel_run.valid_fraction() > 0.0, "seed {seed}");
        assert_eq!(digest(&kernel_run), digest(&oracle_run), "seed {seed}");
    }
}
