//! Synthetic ground-truth datasets (Section V-A of the paper, Fig. 2).
//!
//! Each dataset lives on the unit hyper-cube `[0, 1]^d` and embeds `k` ground-truth (GT)
//! hyper-rectangles that are either
//!
//! * **density** GT regions — purposely denser in points than the background, evaluated with
//!   the [`Statistic::Count`] statistic (the paper uses `y_R = 1000`), or
//! * **aggregate** GT regions — regions whose points carry a higher *measure* value, evaluated
//!   with [`Statistic::Average`] of [`Target::Measure`] (the paper uses `y_R = 2`).
//!
//! The paper's evaluation sweeps `d ∈ {1..5}`, `k ∈ {1, 3}` and dataset sizes of
//! 7,500–12,500 points; [`SyntheticSpec::paper_suite`] reproduces that grid of 20 datasets.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::dataset::Dataset;
use crate::random::normal;
use crate::region::Region;
use crate::statistic::{Statistic, Target};

/// Which kind of ground-truth structure is embedded in the synthetic data.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum StatisticKind {
    /// GT regions are denser than the background; statistic of interest is the point count.
    Density,
    /// GT regions carry a higher mean measure value; statistic is the average measure.
    Aggregate,
}

/// Specification of a synthetic ground-truth dataset.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SyntheticSpec {
    /// Data dimensionality `d` (the region solution space has `2d` dimensions).
    pub dimensions: usize,
    /// Number of ground-truth regions `k`.
    pub regions: usize,
    /// Density or aggregate ground truth.
    pub kind: StatisticKind,
    /// Total number of data vectors `N`.
    pub points: usize,
    /// Half side length of each GT hyper-rectangle, per dimension.
    pub gt_half_length: f64,
    /// Number of points planted inside each density GT region.
    pub points_per_region: usize,
    /// Mean of the measure values inside aggregate GT regions (background mean is 0).
    pub aggregate_high_mean: f64,
    /// Standard deviation of measure values.
    pub aggregate_std: f64,
    /// RNG seed.
    pub seed: u64,
}

impl SyntheticSpec {
    /// Spec for a density dataset with `d` dimensions and `k` GT regions, using the paper's
    /// defaults (≈10,000 points, ≈1,200 points per GT region so `y_R = 1000` is satisfiable).
    pub fn density(dimensions: usize, regions: usize) -> Self {
        Self {
            dimensions,
            regions,
            kind: StatisticKind::Density,
            points: 10_000,
            gt_half_length: 0.12,
            points_per_region: 1_200,
            aggregate_high_mean: 3.0,
            aggregate_std: 0.8,
            seed: 1,
        }
    }

    /// Spec for an aggregate dataset with `d` dimensions and `k` GT regions (background measure
    /// mean 0, GT measure mean 3, so `y_R = 2` separates them).
    pub fn aggregate(dimensions: usize, regions: usize) -> Self {
        Self {
            kind: StatisticKind::Aggregate,
            ..Self::density(dimensions, regions)
        }
    }

    /// Overrides the total number of points.
    pub fn with_points(mut self, points: usize) -> Self {
        self.points = points;
        self
    }

    /// Overrides the number of points planted in each density GT region.
    pub fn with_points_per_region(mut self, points: usize) -> Self {
        self.points_per_region = points;
        self
    }

    /// Overrides the GT half side length.
    pub fn with_gt_half_length(mut self, half_length: f64) -> Self {
        self.gt_half_length = half_length;
        self
    }

    /// Overrides the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// The statistic of interest for this dataset kind.
    pub fn statistic(&self) -> Statistic {
        match self.kind {
            StatisticKind::Density => Statistic::Count,
            StatisticKind::Aggregate => Statistic::Average(Target::Measure),
        }
    }

    /// The threshold `y_R` the paper uses for this dataset kind (1000 for density, 2 for
    /// aggregate).
    pub fn paper_threshold(&self) -> f64 {
        match self.kind {
            StatisticKind::Density => 1000.0,
            StatisticKind::Aggregate => 2.0,
        }
    }

    /// The 20 synthetic datasets of the paper's evaluation: `d ∈ 1..=5`, `k ∈ {1, 3}`,
    /// kind ∈ {density, aggregate}. Dataset sizes vary in 7,500–12,500 as in the paper.
    pub fn paper_suite(base_seed: u64) -> Vec<SyntheticSpec> {
        let mut specs = Vec::with_capacity(20);
        let mut seed = base_seed;
        for &kind in &[StatisticKind::Density, StatisticKind::Aggregate] {
            for &k in &[1usize, 3] {
                for d in 1..=5usize {
                    seed += 1;
                    let points = 7_500 + ((seed as usize * 997) % 5_001);
                    let mut spec = match kind {
                        StatisticKind::Density => SyntheticSpec::density(d, k),
                        StatisticKind::Aggregate => SyntheticSpec::aggregate(d, k),
                    };
                    spec.points = points;
                    spec.seed = seed;
                    specs.push(spec);
                }
            }
        }
        specs
    }
}

/// A generated synthetic dataset together with its ground truth.
#[derive(Debug, Clone)]
pub struct SyntheticDataset {
    /// The generated data.
    pub dataset: Dataset,
    /// The planted ground-truth regions.
    pub ground_truth: Vec<Region>,
    /// The statistic of interest for this dataset.
    pub statistic: Statistic,
    /// The threshold `y_R` used by the paper for this dataset kind.
    pub threshold: f64,
    /// The spec the dataset was generated from.
    pub spec: SyntheticSpec,
}

impl SyntheticDataset {
    /// Generates a dataset according to the spec. Panics only on programmer error (zero
    /// dimensions or zero points), which is validated with `assert!`.
    pub fn generate(spec: &SyntheticSpec) -> Self {
        assert!(spec.dimensions >= 1, "dimensions must be >= 1");
        assert!(spec.regions >= 1, "at least one ground-truth region");
        assert!(spec.points >= 100, "at least 100 points");
        assert!(
            spec.gt_half_length > 0.0 && spec.gt_half_length < 0.5,
            "gt_half_length must be in (0, 0.5)"
        );

        let mut rng = StdRng::seed_from_u64(spec.seed);
        let ground_truth = place_ground_truth(&mut rng, spec);

        match spec.kind {
            StatisticKind::Density => Self::generate_density(spec, &ground_truth, &mut rng),
            StatisticKind::Aggregate => Self::generate_aggregate(spec, &ground_truth, &mut rng),
        }
    }

    fn generate_density(
        spec: &SyntheticSpec,
        ground_truth: &[Region],
        rng: &mut StdRng,
    ) -> SyntheticDataset {
        let planted = spec.points_per_region * spec.regions;
        let background = spec.points.saturating_sub(planted).max(1);
        let mut columns = vec![Vec::with_capacity(spec.points); spec.dimensions];

        // Background points: uniform over the unit cube.
        for _ in 0..background {
            for (dim, column) in columns.iter_mut().enumerate() {
                let _ = dim;
                column.push(rng.random::<f64>());
            }
        }
        // Planted points: uniform inside each GT hyper-rectangle.
        for gt in ground_truth {
            let lower = gt.lower();
            let upper = gt.upper();
            for _ in 0..spec.points_per_region {
                for (dim, column) in columns.iter_mut().enumerate() {
                    column.push(rng.random_range(lower[dim]..upper[dim]));
                }
            }
        }

        let dataset = Dataset::from_columns(columns).expect("columns are consistent");
        SyntheticDataset {
            dataset,
            ground_truth: ground_truth.to_vec(),
            statistic: spec.statistic(),
            threshold: spec.paper_threshold(),
            spec: spec.clone(),
        }
    }

    fn generate_aggregate(
        spec: &SyntheticSpec,
        ground_truth: &[Region],
        rng: &mut StdRng,
    ) -> SyntheticDataset {
        let mut columns = vec![Vec::with_capacity(spec.points); spec.dimensions];
        let mut measure = Vec::with_capacity(spec.points);
        for _ in 0..spec.points {
            let point: Vec<f64> = (0..spec.dimensions).map(|_| rng.random::<f64>()).collect();
            let inside_gt = ground_truth.iter().any(|gt| gt.contains(&point));
            let mean = if inside_gt {
                spec.aggregate_high_mean
            } else {
                0.0
            };
            measure.push(normal(rng, mean, spec.aggregate_std));
            for (dim, column) in columns.iter_mut().enumerate() {
                column.push(point[dim]);
            }
        }
        let dataset = Dataset::from_columns(columns)
            .expect("columns are consistent")
            .with_measure("value", measure)
            .expect("measure has matching length");
        SyntheticDataset {
            dataset,
            ground_truth: ground_truth.to_vec(),
            statistic: spec.statistic(),
            threshold: spec.paper_threshold(),
            spec: spec.clone(),
        }
    }

    /// Fraction of the unit-cube volume covered by the ground truth (the paper discusses how
    /// this shrinks as `0.3^d` with dimensionality, driving the IoU drop of Fig. 3).
    pub fn ground_truth_coverage(&self) -> f64 {
        self.ground_truth.iter().map(Region::volume).sum()
    }
}

/// Places `k` non-overlapping GT hyper-rectangles inside the unit cube, keeping a margin from
/// the domain boundary so the full rectangle fits.
fn place_ground_truth(rng: &mut StdRng, spec: &SyntheticSpec) -> Vec<Region> {
    let margin = spec.gt_half_length;
    let mut regions: Vec<Region> = Vec::with_capacity(spec.regions);
    let mut attempts = 0usize;
    while regions.len() < spec.regions {
        attempts += 1;
        let center: Vec<f64> = (0..spec.dimensions)
            .map(|_| rng.random_range(margin..(1.0 - margin)))
            .collect();
        let candidate = Region::new(center, vec![spec.gt_half_length; spec.dimensions])
            .expect("valid construction");
        let overlaps = regions.iter().any(|r| r.intersection(&candidate).is_some());
        if !overlaps || attempts > 200 {
            regions.push(candidate);
        }
    }
    regions
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn density_dataset_has_dense_ground_truth() {
        let spec = SyntheticSpec::density(2, 1).with_points(5_000).with_seed(3);
        let synthetic = SyntheticDataset::generate(&spec);
        assert_eq!(synthetic.dataset.len(), 5_000);
        assert_eq!(synthetic.ground_truth.len(), 1);
        let gt = &synthetic.ground_truth[0];
        let inside = synthetic.dataset.count_in(gt).unwrap();
        // All 1,200 planted points plus some background must be inside.
        assert!(inside >= spec.points_per_region, "inside = {inside}");
        // The GT region must clearly exceed the paper threshold while a random far corner does
        // not.
        assert!(inside as f64 > synthetic.threshold);
    }

    #[test]
    fn density_points_stay_in_unit_cube() {
        let spec = SyntheticSpec::density(3, 3).with_points(3_000).with_seed(5);
        let synthetic = SyntheticDataset::generate(&spec);
        let domain = synthetic.dataset.domain().unwrap();
        assert!(Region::unit_cube(3).contains_region(&domain));
    }

    #[test]
    fn aggregate_dataset_separates_means() {
        let spec = SyntheticSpec::aggregate(2, 1)
            .with_points(6_000)
            .with_seed(11);
        let synthetic = SyntheticDataset::generate(&spec);
        let gt = &synthetic.ground_truth[0];
        let stat = synthetic.statistic;
        let inside = stat.evaluate(&synthetic.dataset, gt).unwrap().unwrap();
        assert!(
            inside > synthetic.threshold,
            "GT aggregate {inside} should exceed threshold {}",
            synthetic.threshold
        );
        let overall = stat
            .evaluate(&synthetic.dataset, &Region::unit_cube(2))
            .unwrap()
            .unwrap();
        assert!(overall < synthetic.threshold, "background mean {overall}");
    }

    #[test]
    fn ground_truth_regions_do_not_overlap_for_small_k() {
        let spec = SyntheticSpec::density(2, 3)
            .with_seed(17)
            .with_points(2_000);
        let synthetic = SyntheticDataset::generate(&spec);
        let gts = &synthetic.ground_truth;
        assert_eq!(gts.len(), 3);
        for i in 0..gts.len() {
            for j in (i + 1)..gts.len() {
                assert!(
                    gts[i].intersection(&gts[j]).is_none(),
                    "GT regions {i} and {j} overlap"
                );
            }
        }
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let spec = SyntheticSpec::density(2, 1)
            .with_points(1_000)
            .with_seed(42);
        let a = SyntheticDataset::generate(&spec);
        let b = SyntheticDataset::generate(&spec);
        assert_eq!(a.dataset, b.dataset);
        assert_eq!(a.ground_truth, b.ground_truth);
        let c = SyntheticDataset::generate(&spec.clone().with_seed(43));
        assert_ne!(a.dataset, c.dataset);
    }

    #[test]
    fn paper_suite_has_twenty_datasets() {
        let suite = SyntheticSpec::paper_suite(100);
        assert_eq!(suite.len(), 20);
        assert!(suite
            .iter()
            .all(|s| (7_500..=12_500).contains(&s.points) && (1..=5).contains(&s.dimensions)));
        assert_eq!(
            suite
                .iter()
                .filter(|s| s.kind == StatisticKind::Density)
                .count(),
            10
        );
        assert_eq!(suite.iter().filter(|s| s.regions == 3).count(), 10);
    }

    #[test]
    fn coverage_shrinks_with_dimensionality() {
        let d2 = SyntheticDataset::generate(&SyntheticSpec::density(2, 1).with_points(1_000));
        let d4 = SyntheticDataset::generate(&SyntheticSpec::density(4, 1).with_points(1_000));
        assert!(d4.ground_truth_coverage() < d2.ground_truth_coverage());
    }

    #[test]
    fn statistic_and_threshold_match_kind() {
        let density = SyntheticSpec::density(1, 1);
        assert_eq!(density.statistic(), Statistic::Count);
        assert_eq!(density.paper_threshold(), 1000.0);
        let aggregate = SyntheticSpec::aggregate(1, 1);
        assert_eq!(aggregate.statistic(), Statistic::Average(Target::Measure));
        assert_eq!(aggregate.paper_threshold(), 2.0);
    }
}
