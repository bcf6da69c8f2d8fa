//! The four-method comparison harness behind the paper's accuracy (Figures 3–4) and
//! performance (Table I) experiments.
//!
//! The methods compared are exactly the paper's:
//!
//! * **SuRF** — learned surrogate + GSO (this repository's contribution path),
//! * **Naive** — the discretized exhaustive baseline of Section II-A,
//! * **f+GlowWorm** — GSO driven by the true, data-touching statistic,
//! * **PRIM** — Friedman & Fisher bump hunting.

use std::time::{Duration, Instant};

use serde::{Deserialize, Serialize};
use surf_data::dataset::Dataset;
use surf_data::region::Region;
use surf_data::statistic::{Statistic, Target};
use surf_data::synthetic::SyntheticDataset;
use surf_ml::gbrt::GbrtParams;
use surf_optim::gso::GsoParams;
use surf_optim::naive::{NaiveParams, NaiveSearch};
use surf_optim::prim::{Prim, PrimParams};

use crate::error::SurfError;
use crate::evaluation::match_regions;
use crate::finder::{mine_regions, Surf};
use crate::objective::{Objective, Threshold};
use crate::pipeline::SurfConfig;
use crate::surrogate::{Surrogate, TrueFunctionSurrogate};

/// The region-mining methods compared by the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Method {
    /// Learned surrogate + Glowworm Swarm Optimization.
    Surf,
    /// Discretized exhaustive search using the true statistic.
    Naive,
    /// Glowworm Swarm Optimization driven by the true statistic.
    FGlowworm,
    /// PRIM bump hunting.
    Prim,
}

impl Method {
    /// All four methods, in the paper's reporting order.
    pub const ALL: [Method; 4] = [Method::Surf, Method::Naive, Method::FGlowworm, Method::Prim];

    /// Human-readable name as used in the paper's figures.
    pub fn name(&self) -> &'static str {
        match self {
            Method::Surf => "SuRF",
            Method::Naive => "Naive",
            Method::FGlowworm => "f+GlowWorm",
            Method::Prim => "PRIM",
        }
    }
}

/// Shared configuration of a comparison run.
#[derive(Debug, Clone, PartialEq)]
pub struct ComparisonConfig {
    /// Objective (shape and `c`) used by SuRF, Naive and f+GlowWorm.
    pub objective: Objective,
    /// GSO parameters shared by SuRF and f+GlowWorm.
    pub gso: GsoParams,
    /// Naive baseline parameters (grid resolution, time limit).
    pub naive: NaiveParams,
    /// PRIM parameters.
    pub prim: PrimParams,
    /// Number of past region evaluations used to train SuRF's surrogate.
    pub training_queries: usize,
    /// Surrogate hyper-parameters.
    pub gbrt: GbrtParams,
    /// Smallest allowed half side length (fraction of the domain side).
    pub min_length_fraction: f64,
    /// Largest allowed half side length (fraction of the domain side).
    pub max_length_fraction: f64,
    /// Glowworm clustering radius (fraction of the solution-space diagonal).
    pub cluster_radius_fraction: f64,
    /// Report at most this many regions per method.
    pub max_reported_regions: usize,
    /// Master seed.
    pub seed: u64,
}

impl Default for ComparisonConfig {
    fn default() -> Self {
        Self {
            objective: Objective::paper_default(),
            gso: GsoParams::paper_default(),
            naive: NaiveParams::default(),
            prim: PrimParams::paper_default(),
            training_queries: 2_000,
            gbrt: GbrtParams::quick(),
            min_length_fraction: 0.005,
            max_length_fraction: 0.5,
            cluster_radius_fraction: 0.15,
            max_reported_regions: 24,
            seed: 29,
        }
    }
}

impl ComparisonConfig {
    /// A reduced configuration for tests and quick experiment runs.
    pub fn quick() -> Self {
        Self {
            gso: GsoParams::quick(),
            naive: NaiveParams::default().with_grid(5, 4),
            training_queries: 800,
            ..Self::default()
        }
    }

    /// Builder-style override of the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Builder-style override of the Naive time limit.
    pub fn with_naive_time_limit(mut self, limit: Duration) -> Self {
        self.naive = self.naive.clone().with_time_limit(limit);
        self
    }
}

/// The outcome of running one method on one mining task.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MethodRun {
    /// Which method produced this run.
    pub method: Method,
    /// The regions the method proposed.
    pub regions: Vec<Region>,
    /// Wall-clock time of the mining step (what Table I reports).
    pub mining_time: Duration,
    /// One-off training time (non-zero only for SuRF).
    pub training_time: Duration,
    /// Fraction of the candidate space examined (Naive only; 1.0 for the others).
    pub coverage: f64,
    /// Whether the method hit its time limit before finishing.
    pub timed_out: bool,
}

impl MethodRun {
    /// Mean best IoU of the proposed regions against ground truth (the Fig. 3 metric).
    pub fn mean_iou(&self, ground_truth: &[Region]) -> f64 {
        match_regions(&self.regions, ground_truth).mean_iou
    }
}

/// The comparison harness.
///
/// The data-touching work — Naive, f+GlowWorm and SuRF's workload generation — is served by
/// the dataset's own spatial index: pin the full column scans of the paper's Table I cost
/// regime with `Dataset::with_index_kind(IndexKind::Scan)`.
#[derive(Debug, Clone)]
pub struct MethodComparison {
    config: ComparisonConfig,
}

impl MethodComparison {
    /// Creates a harness with the given configuration.
    pub fn new(config: ComparisonConfig) -> Self {
        Self { config }
    }

    /// The configuration in use.
    pub fn config(&self) -> &ComparisonConfig {
        &self.config
    }

    /// Runs one method on a dataset for the given statistic and threshold.
    pub fn run(
        &self,
        method: Method,
        dataset: &Dataset,
        statistic: Statistic,
        threshold: Threshold,
    ) -> Result<MethodRun, SurfError> {
        match method {
            Method::Surf => self.run_surf(dataset, statistic, threshold),
            Method::Naive => self.run_naive(dataset, statistic, threshold),
            Method::FGlowworm => self.run_f_glowworm(dataset, statistic, threshold),
            Method::Prim => self.run_prim(dataset, statistic),
        }
    }

    /// Runs one method on a synthetic dataset, using the dataset's own statistic and paper
    /// threshold.
    pub fn run_on_synthetic(
        &self,
        method: Method,
        synthetic: &SyntheticDataset,
    ) -> Result<MethodRun, SurfError> {
        self.run(
            method,
            &synthetic.dataset,
            synthetic.statistic,
            Threshold::above(synthetic.threshold),
        )
    }

    /// Runs all four methods on a synthetic dataset.
    pub fn run_all_on_synthetic(
        &self,
        synthetic: &SyntheticDataset,
    ) -> Result<Vec<MethodRun>, SurfError> {
        Method::ALL
            .iter()
            .map(|&m| self.run_on_synthetic(m, synthetic))
            .collect()
    }

    fn run_surf(
        &self,
        dataset: &Dataset,
        statistic: Statistic,
        threshold: Threshold,
    ) -> Result<MethodRun, SurfError> {
        let config = SurfConfig {
            statistic,
            threshold,
            objective: self.config.objective,
            training_queries: self.config.training_queries,
            gbrt: self.config.gbrt.clone(),
            gso: self.config.gso.clone(),
            min_length_fraction: self.config.min_length_fraction,
            max_length_fraction: self.config.max_length_fraction,
            cluster_radius_fraction: self.config.cluster_radius_fraction,
            index_kind: dataset.index_kind(),
            seed: self.config.seed,
            ..SurfConfig::default()
        };
        let surf = Surf::fit(dataset, &config)?;
        let outcome = surf.mine();
        let mut regions = outcome.region_list();
        regions.truncate(self.config.max_reported_regions);
        Ok(MethodRun {
            method: Method::Surf,
            regions,
            mining_time: outcome.mining_time,
            training_time: surf.training_report().training_time,
            coverage: 1.0,
            timed_out: false,
        })
    }

    fn run_f_glowworm(
        &self,
        dataset: &Dataset,
        statistic: Statistic,
        threshold: Threshold,
    ) -> Result<MethodRun, SurfError> {
        let domain = dataset.domain()?;
        let surrogate = TrueFunctionSurrogate::new(dataset, statistic, 0.0);
        let start = Instant::now();
        let outcome = mine_regions(
            &surrogate,
            &domain,
            self.config.objective,
            threshold,
            &self.config.gso,
            None,
            self.config.min_length_fraction,
            self.config.max_length_fraction,
            self.config.cluster_radius_fraction,
        );
        let mut regions = outcome.region_list();
        regions.truncate(self.config.max_reported_regions);
        Ok(MethodRun {
            method: Method::FGlowworm,
            regions,
            mining_time: start.elapsed(),
            training_time: Duration::ZERO,
            coverage: 1.0,
            timed_out: false,
        })
    }

    fn run_naive(
        &self,
        dataset: &Dataset,
        statistic: Statistic,
        threshold: Threshold,
    ) -> Result<MethodRun, SurfError> {
        let domain = dataset.domain()?;
        let surrogate = TrueFunctionSurrogate::new(dataset, statistic, 0.0);
        let objective = self.config.objective;
        let start = Instant::now();
        let result = NaiveSearch::new(self.config.naive.clone()).search(&domain, |region| {
            let value = surrogate.predict(region);
            objective.evaluate(value, region, &threshold)
        });
        let regions: Vec<Region> = result
            .top_k(self.config.max_reported_regions)
            .iter()
            .map(|s| s.region.clone())
            .collect();
        Ok(MethodRun {
            method: Method::Naive,
            regions,
            mining_time: start.elapsed(),
            training_time: Duration::ZERO,
            coverage: result.coverage(),
            timed_out: result.timed_out,
        })
    }

    fn run_prim(&self, dataset: &Dataset, statistic: Statistic) -> Result<MethodRun, SurfError> {
        let points: Vec<Vec<f64>> = (0..dataset.len()).map(|i| dataset.row(i).values).collect();
        // PRIM maximizes the mean of a response attribute. For aggregate statistics that is the
        // measure column; for density statistics no meaningful response exists (the paper's
        // point), so a flat response is used and PRIM degenerates gracefully.
        let response: Vec<f64> = match statistic {
            Statistic::Average(Target::Measure) | Statistic::Sum(Target::Measure) => dataset
                .measure()
                .ok_or(SurfError::Data(surf_data::error::DataError::MissingMeasure))?
                .to_vec(),
            Statistic::Average(Target::Dimension(d)) => dataset.column(d)?.to_vec(),
            Statistic::Ratio { label } => dataset
                .labels()
                .ok_or(SurfError::Data(surf_data::error::DataError::MissingLabels))?
                .iter()
                .map(|&l| if l == label { 1.0 } else { 0.0 })
                .collect(),
            _ => vec![1.0; dataset.len()],
        };
        let start = Instant::now();
        let boxes = Prim::new(self.config.prim.clone()).fit(&points, &response);
        let regions: Vec<Region> = boxes
            .into_iter()
            .take(self.config.max_reported_regions)
            .map(|b| b.region)
            .collect();
        Ok(MethodRun {
            method: Method::Prim,
            regions,
            mining_time: start.elapsed(),
            training_time: Duration::ZERO,
            coverage: 1.0,
            timed_out: false,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use surf_data::index::IndexKind;
    use surf_data::synthetic::SyntheticSpec;

    fn density_synthetic() -> SyntheticDataset {
        SyntheticDataset::generate(
            &SyntheticSpec::density(2, 1)
                .with_points(3_000)
                .with_points_per_region(900)
                .with_seed(31),
        )
    }

    fn aggregate_synthetic() -> SyntheticDataset {
        SyntheticDataset::generate(
            &SyntheticSpec::aggregate(2, 1)
                .with_points(3_000)
                .with_seed(33),
        )
    }

    #[test]
    fn method_names_and_order() {
        assert_eq!(Method::ALL.len(), 4);
        assert_eq!(Method::Surf.name(), "SuRF");
        assert_eq!(Method::FGlowworm.name(), "f+GlowWorm");
    }

    #[test]
    fn surf_and_f_glowworm_find_the_dense_region() {
        let synthetic = density_synthetic();
        // Threshold low enough to be satisfiable with the quick settings.
        let harness = MethodComparison::new(ComparisonConfig::quick().with_seed(5));
        let threshold = Threshold::above(400.0);
        for method in [Method::Surf, Method::FGlowworm] {
            let run = harness
                .run(method, &synthetic.dataset, Statistic::Count, threshold)
                .unwrap();
            assert!(!run.regions.is_empty(), "{} found nothing", method.name());
            let iou = run.mean_iou(&synthetic.ground_truth);
            assert!(iou > 0.1, "{} IoU {iou}", method.name());
            assert!(!run.timed_out);
        }
    }

    #[test]
    fn naive_examines_the_whole_grid_without_a_time_limit() {
        let synthetic = density_synthetic();
        let harness = MethodComparison::new(ComparisonConfig::quick());
        let run = harness
            .run(
                Method::Naive,
                &synthetic.dataset,
                Statistic::Count,
                Threshold::above(400.0),
            )
            .unwrap();
        assert!((run.coverage - 1.0).abs() < 1e-12);
        assert!(!run.regions.is_empty());
        assert!(run.mean_iou(&synthetic.ground_truth) > 0.05);
    }

    #[test]
    fn prim_works_on_aggregate_but_not_density() {
        let aggregate = aggregate_synthetic();
        let harness = MethodComparison::new(ComparisonConfig::quick());
        let run = harness.run_on_synthetic(Method::Prim, &aggregate).unwrap();
        assert!(!run.regions.is_empty());
        let aggregate_iou = run.mean_iou(&aggregate.ground_truth);
        assert!(aggregate_iou > 0.2, "PRIM aggregate IoU {aggregate_iou}");

        let density = density_synthetic();
        let run = harness.run_on_synthetic(Method::Prim, &density).unwrap();
        let density_iou = run.mean_iou(&density.ground_truth);
        assert!(
            density_iou < aggregate_iou,
            "PRIM should do worse on density ({density_iou}) than aggregate ({aggregate_iou})"
        );
    }

    #[test]
    fn prim_requires_a_measure_for_aggregate_statistics() {
        let density = density_synthetic();
        let harness = MethodComparison::new(ComparisonConfig::quick());
        let result = harness.run(
            Method::Prim,
            &density.dataset,
            Statistic::average_of_measure(),
            Threshold::above(2.0),
        );
        assert!(result.is_err());
    }

    #[test]
    fn naive_time_limit_reports_partial_coverage() {
        let synthetic = density_synthetic();
        let config = ComparisonConfig {
            naive: NaiveParams::default()
                .with_grid(6, 6)
                .with_time_limit(Duration::from_millis(5)),
            ..ComparisonConfig::quick()
        };
        // Pin the unindexed scan path: the timeout/coverage reporting is what is under test
        // here, and it needs the original per-candidate full-scan cost regime (the grid index
        // finishes all 1,296 candidates well inside 5 ms).
        let dataset = synthetic.dataset.with_index_kind(IndexKind::Scan);
        let harness = MethodComparison::new(config);
        let run = harness
            .run(
                Method::Naive,
                &dataset,
                Statistic::Count,
                Threshold::above(400.0),
            )
            .unwrap();
        // 1296 candidates, each requiring a full data scan of 3,000 points: 5 ms cannot finish.
        assert!(run.timed_out);
        assert!(run.coverage < 1.0);
    }

    #[test]
    fn indexed_naive_finishes_where_the_scan_times_out() {
        let synthetic = density_synthetic();
        // Generous deadline: the indexed sweep takes single-digit milliseconds, so 2 s only
        // fails on a genuine regression, not on CI scheduling noise.
        let limit = Duration::from_secs(2);
        let run_with = |kind: IndexKind| {
            let config = ComparisonConfig {
                naive: NaiveParams::default()
                    .with_grid(6, 6)
                    .with_time_limit(limit),
                ..ComparisonConfig::quick()
            };
            MethodComparison::new(config)
                .run(
                    Method::Naive,
                    &synthetic.dataset.clone().with_index_kind(kind),
                    Statistic::Count,
                    Threshold::above(400.0),
                )
                .unwrap()
        };
        let indexed = run_with(IndexKind::Grid);
        assert!(
            !indexed.timed_out,
            "indexed naive should finish in {limit:?}"
        );
        assert!((indexed.coverage - 1.0).abs() < 1e-12);
        // Identical candidate grid, identical statistic values: the indexed sweep proposes
        // the same regions the scan sweep would.
        let scanned = run_with(IndexKind::Scan);
        if !scanned.timed_out {
            assert_eq!(indexed.regions, scanned.regions);
        }
    }
}
