//! The SuRF region-mining engine.
//!
//! [`Surf::fit`] pays the one-off costs — generating (or accepting) a past-query workload,
//! training the gradient-boosted surrogate and fitting the KDE guide — and returns a reusable
//! engine. [`Surf::mine`] then answers an analyst request (threshold + direction) by running
//! Glowworm Swarm Optimization over the `2d`-dimensional region space against the surrogate,
//! never touching the data. The same fitted engine can serve many thresholds and users, which
//! is exactly the amortization argument of the paper's Table I discussion.

use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use surf_data::dataset::Dataset;
use surf_data::region::Region;
use surf_data::workload::{Workload, WorkloadSpec};
use surf_ml::error::MlError;
use surf_ml::gbrt::Gbrt;
use surf_ml::kde::KernelDensity;
use surf_optim::fitness::{FitnessFunction, SolutionBounds};
use surf_optim::gso::{GlowwormSwarm, GsoParams};

use crate::error::SurfError;
use crate::objective::{Objective, Threshold};
use crate::pipeline::SurfConfig;
use crate::surrogate::{GbrtSurrogate, Surrogate, SurrogateTrainer, TrainingReport};

/// The fitness landscape GSO explores: candidate solution vectors `[x, l]` are decoded into
/// regions, scored by the objective applied to the surrogate's statistic estimate, and
/// optionally weighted by the KDE mass they capture (Eq. 8).
pub struct RegionFitness<'a> {
    surrogate: &'a dyn Surrogate,
    objective: Objective,
    threshold: Threshold,
    domain: Region,
    kde: Option<&'a KernelDensity>,
    min_half_lengths: Vec<f64>,
    max_half_lengths: Vec<f64>,
}

impl<'a> RegionFitness<'a> {
    /// Creates the fitness landscape for a mining request.
    pub fn new(
        surrogate: &'a dyn Surrogate,
        objective: Objective,
        threshold: Threshold,
        domain: Region,
        kde: Option<&'a KernelDensity>,
        min_length_fraction: f64,
        max_length_fraction: f64,
    ) -> Self {
        let d = domain.dimensions();
        let min_half_lengths: Vec<f64> = (0..d)
            .map(|dim| {
                let side = domain.upper_in(dim) - domain.lower_in(dim);
                (min_length_fraction * side).max(f64::MIN_POSITIVE)
            })
            .collect();
        let max_half_lengths: Vec<f64> = (0..d)
            .map(|dim| {
                let side = domain.upper_in(dim) - domain.lower_in(dim);
                (max_length_fraction * side).max(f64::MIN_POSITIVE)
            })
            .collect();
        Self {
            surrogate,
            objective,
            threshold,
            domain,
            kde,
            min_half_lengths,
            max_half_lengths,
        }
    }

    /// Decodes a solution vector into a region, clamping half side lengths into the allowed
    /// range.
    pub fn decode(&self, solution: &[f64]) -> Option<Region> {
        let d = self.domain.dimensions();
        if solution.len() != 2 * d {
            return None;
        }
        let mut center = Vec::with_capacity(d);
        let mut half = Vec::with_capacity(d);
        for dim in 0..d {
            let c = solution[dim].clamp(self.domain.lower_in(dim), self.domain.upper_in(dim));
            let l = solution[d + dim]
                .abs()
                .clamp(self.min_half_lengths[dim], self.max_half_lengths[dim]);
            center.push(c);
            half.push(l);
        }
        Region::new(center, half).ok()
    }
}

impl FitnessFunction for RegionFitness<'_> {
    fn bounds(&self) -> SolutionBounds {
        let d = self.domain.dimensions();
        let mut lower = Vec::with_capacity(2 * d);
        let mut upper = Vec::with_capacity(2 * d);
        for dim in 0..d {
            lower.push(self.domain.lower_in(dim));
            upper.push(self.domain.upper_in(dim));
        }
        lower.extend_from_slice(&self.min_half_lengths);
        upper.extend_from_slice(&self.max_half_lengths);
        SolutionBounds::new(lower, upper)
    }

    fn fitness(&self, solution: &[f64]) -> f64 {
        match self.decode(solution) {
            Some(region) => {
                let estimate = self.surrogate.predict(&region);
                self.objective.evaluate(estimate, &region, &self.threshold)
            }
            None => f64::NEG_INFINITY,
        }
    }

    /// Batched evaluation of a whole swarm: all candidates are decoded, the surrogate
    /// estimates the entire batch in one [`Surrogate::predict_batch`] call (one blocked pass
    /// of the compiled ensemble for [`GbrtSurrogate`]), and the objective is applied per
    /// candidate. Produces exactly the values the scalar [`RegionFitness::fitness`] would.
    fn fitness_batch(&self, solutions: &[f64], dim: usize, out: &mut [f64]) {
        let mut regions = Vec::with_capacity(out.len());
        let mut slots = Vec::with_capacity(out.len());
        for (slot, candidate) in solutions.chunks(dim).enumerate() {
            match self.decode(candidate) {
                Some(region) => {
                    slots.push(slot);
                    regions.push(region);
                }
                None => out[slot] = f64::NEG_INFINITY,
            }
        }
        let estimates = self.surrogate.predict_batch(&regions);
        for ((&slot, region), estimate) in slots.iter().zip(&regions).zip(estimates) {
            out[slot] = self.objective.evaluate(estimate, region, &self.threshold);
        }
    }

    fn density_weight(&self, solution: &[f64]) -> f64 {
        match (self.kde, self.decode(solution)) {
            (Some(kde), Some(region)) => kde
                .box_probability(&region.lower(), &region.upper())
                .unwrap_or(0.0)
                .max(1e-12),
            _ => 1.0,
        }
    }
}

/// One mined region together with its predicted statistic and objective value.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MinedRegion {
    /// The region proposed by SuRF.
    pub region: Region,
    /// The surrogate's statistic estimate for the region.
    pub predicted_value: f64,
    /// The objective value the region achieved.
    pub objective_value: f64,
}

/// The outcome of one mining request.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MiningOutcome {
    /// The distinct regions found, sorted by descending objective value.
    pub regions: Vec<MinedRegion>,
    /// Fraction of the swarm that converged onto constraint-satisfying candidates (Fig. 1's
    /// "84 % of the particles").
    pub swarm_valid_fraction: f64,
    /// Mean objective of valid glowworms after each GSO iteration (the Fig. 9 traces).
    pub convergence_trace: Vec<f64>,
    /// Number of GSO iterations executed.
    pub iterations_run: usize,
    /// Whether GSO converged before exhausting its iteration budget.
    pub converged: bool,
    /// Number of surrogate evaluations performed during mining.
    pub surrogate_evaluations: usize,
    /// Wall-clock time of the mining step (excludes surrogate training).
    pub mining_time: Duration,
}

impl MiningOutcome {
    /// The regions only, without their scores.
    pub fn region_list(&self) -> Vec<Region> {
        self.regions.iter().map(|m| m.region.clone()).collect()
    }

    /// The best (highest objective) region, if any.
    pub fn best(&self) -> Option<&MinedRegion> {
        self.regions.first()
    }
}

/// Mines regions with GSO against an arbitrary surrogate. This is the engine shared by SuRF
/// (learned surrogate) and the `f+GlowWorm` baseline (true-function surrogate).
#[allow(clippy::too_many_arguments)]
pub fn mine_regions(
    surrogate: &dyn Surrogate,
    domain: &Region,
    objective: Objective,
    threshold: Threshold,
    gso: &GsoParams,
    kde: Option<&KernelDensity>,
    min_length_fraction: f64,
    max_length_fraction: f64,
    cluster_radius_fraction: f64,
) -> MiningOutcome {
    let start = Instant::now();
    let fitness = RegionFitness::new(
        surrogate,
        objective,
        threshold,
        domain.clone(),
        kde,
        min_length_fraction,
        max_length_fraction,
    );
    // Without a KDE every density weight is 1, the value GSO assumes for a weight it never
    // computes, so turning the guide off saves the work without changing the trajectory.
    let mut params = gso.clone();
    params.use_density_guide &= kde.is_some();
    let result = GlowwormSwarm::new(params).run(&fitness);
    let radius = cluster_radius_fraction * fitness.bounds().diagonal();
    let representatives = result.cluster_representatives(radius);

    let mut regions: Vec<MinedRegion> = representatives
        .into_iter()
        .filter_map(|glowworm| {
            let region = fitness.decode(&glowworm.position)?;
            let predicted_value = surrogate.predict(&region);
            let objective_value = objective.evaluate(predicted_value, &region, &threshold);
            if objective_value.is_finite() && threshold.satisfied(predicted_value) {
                Some(MinedRegion {
                    region,
                    predicted_value,
                    objective_value,
                })
            } else {
                None
            }
        })
        .collect();
    regions.sort_by(|a, b| {
        b.objective_value
            .partial_cmp(&a.objective_value)
            .unwrap_or(std::cmp::Ordering::Equal)
    });

    MiningOutcome {
        regions,
        swarm_valid_fraction: result.valid_fraction(),
        convergence_trace: result.mean_fitness_history.clone(),
        iterations_run: result.iterations_run,
        converged: result.converged,
        surrogate_evaluations: result.fitness_evaluations,
        mining_time: start.elapsed(),
    }
}

/// A fitted SuRF engine: trained surrogate + KDE guide + domain, ready to serve mining
/// requests.
pub struct Surf {
    config: SurfConfig,
    domain: Region,
    surrogate: GbrtSurrogate,
    kde: Option<KernelDensity>,
    training_report: TrainingReport,
    workload_size: usize,
}

/// The complete fitted state of a [`Surf`] engine, exposed as plain serializable data so a
/// surrogate trained in one process can be persisted and served from another (the
/// amortization argument of the paper's Table I, across process boundaries).
///
/// [`Surf::export_state`] extracts it; [`Surf::from_state`] rebuilds a working engine,
/// re-validating the configuration and the model's feature width. Everything else the engine
/// holds (the spatial index, datasets) is training-time machinery that a restored engine does
/// not need: mining never touches the data.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SurfState {
    /// The configuration the engine was fitted with.
    pub config: SurfConfig,
    /// The data domain the engine searches.
    pub domain: Region,
    /// The fitted gradient-boosted ensemble backing the surrogate.
    pub model: Gbrt,
    /// Data dimensionality `d` (the model consumes `2d` features).
    pub dimensions: usize,
    /// The fitted KDE movement guide, when one was trained.
    pub kde: Option<KernelDensity>,
    /// Cost and accuracy report of the surrogate training step.
    pub training_report: TrainingReport,
    /// Number of past region evaluations the surrogate was trained on.
    pub workload_size: usize,
}

impl Surf {
    /// Trains a SuRF engine on a dataset: generates the past-query workload, fits the
    /// surrogate (optionally grid-searched) and the KDE guide.
    ///
    /// The workload evaluation — `training_queries` region statistics, the paper's Fig. 6
    /// cost — is served by the spatial index selected with [`SurfConfig::index_kind`] (built
    /// once up front) and fans out over [`SurfConfig::threads`] OS threads. At paper settings
    /// it is not the dominant cost: surfbench's 2- and 4-dimensional datasets evaluate their
    /// workloads in 0.004–0.006 s, and the GBRT training that follows takes most of the fit
    /// (0.045–0.06 s). The workload, and so the fitted state, is identical
    /// for every thread count. Across index choices it is bit-identical for Count,
    /// CountPerVolume, Ratio, Min, Max and Median; Sum, Average and Variance add per-cell
    /// partial sums on the grid, so their values differ from the scan's in the last bits
    /// (floating-point re-association) and the fitted model may differ with them.
    pub fn fit(dataset: &Dataset, config: &SurfConfig) -> Result<Surf, SurfError> {
        config.validate()?;
        let workload_spec = WorkloadSpec::default()
            .with_queries(config.training_queries)
            .with_coverage(config.workload_coverage.0, config.workload_coverage.1)
            .with_empty_value(config.empty_value)
            .with_seed(config.seed);
        let domain = dataset.domain()?;
        let regions = Workload::sample_query_regions(&domain, &workload_spec)?;
        // Build the index before fanning out, so worker threads share the cached handle
        // instead of racing to construct it.
        dataset.region_index(config.index_kind);
        let threads = surf_ml::parallel::resolve_threads(config.threads);
        let values = surf_ml::parallel::parallel_map(regions, threads, |region| {
            let value = config
                .statistic
                .evaluate_with(dataset, region, config.index_kind)?
                .unwrap_or(config.empty_value);
            Ok::<_, surf_data::error::DataError>(surf_data::workload::RegionEvaluation {
                region: region.clone(),
                value,
            })
        });
        let mut evaluations = Vec::with_capacity(values.len());
        for evaluation in values {
            evaluations.push(evaluation?);
        }
        let workload = Workload::from_evaluations(config.statistic, evaluations);
        Self::fit_with_workload(dataset, &workload, config)
    }

    /// Trains a SuRF engine from an existing past-query workload (e.g. queries harvested from
    /// a production system) instead of generating one.
    pub fn fit_with_workload(
        dataset: &Dataset,
        workload: &Workload,
        config: &SurfConfig,
    ) -> Result<Surf, SurfError> {
        config.validate()?;
        if workload.dimensions() != dataset.dimensions() {
            return Err(SurfError::InvalidConfig(format!(
                "workload dimensionality {} does not match dataset dimensionality {}",
                workload.dimensions(),
                dataset.dimensions()
            )));
        }
        let domain = dataset.domain()?;

        let trainer = SurrogateTrainer {
            params: config.gbrt.clone(),
            hypertune: config.hypertune,
            threads: config.threads,
            seed: config.seed,
            ..SurrogateTrainer::default()
        };
        let (surrogate, training_report) = trainer.train(workload)?;

        let kde = if config.use_kde_guide {
            let mut rng = StdRng::seed_from_u64(config.seed ^ 0x5eed_cafe);
            let sample = dataset.sample(config.kde_sample.max(16), &mut rng)?;
            let points: Vec<Vec<f64>> = (0..sample.len()).map(|i| sample.row(i).values).collect();
            Some(KernelDensity::fit_scott(&points)?)
        } else {
            None
        };

        Ok(Surf {
            config: config.clone(),
            domain,
            surrogate,
            kde,
            training_report,
            workload_size: workload.len(),
        })
    }

    /// Mines regions for the threshold given in the configuration.
    pub fn mine(&self) -> MiningOutcome {
        self.mine_with(self.config.threshold)
    }

    /// Mines regions for a different threshold, reusing the already-trained surrogate (no
    /// retraining — the point of SuRF).
    pub fn mine_with(&self, threshold: Threshold) -> MiningOutcome {
        // The surrogate has only seen training regions inside the workload coverage range;
        // outside it the gradient-boosted trees extrapolate (flatly), which GSO happily
        // exploits — e.g. slivers far below the trained sizes that the surrogate still
        // scores above the threshold. Keep the search inside the trained support where it
        // overlaps the configured length range.
        let (cov_min, cov_max) = self.config.workload_coverage;
        let mut min_fraction = self.config.min_length_fraction.max(cov_min);
        let mut max_fraction = self.config.max_length_fraction.min(cov_max);
        if min_fraction >= max_fraction {
            // Disjoint ranges: the analyst explicitly asked for sizes the surrogate was not
            // trained on; honour the configuration rather than searching an empty range.
            min_fraction = self.config.min_length_fraction;
            max_fraction = self.config.max_length_fraction;
        }

        // Mine against a conservative threshold first: shifting the cut-off by a fraction of
        // the surrogate's held-out RMSE keeps GSO away from the error band at the constraint
        // boundary, where the objective's size penalty would otherwise park every glowworm on
        // regions the true function rejects.
        let shift = if self.training_report.holdout_rmse.is_finite() {
            self.config.mining_margin_rmse * self.training_report.holdout_rmse
        } else {
            0.0
        };
        let margined = match threshold.direction {
            crate::objective::Direction::Above => Threshold::above(threshold.value + shift),
            crate::objective::Direction::Below => Threshold::below(threshold.value - shift),
        };
        // GSO fitness evaluation inherits the pipeline's thread knob when left automatic
        // (an explicit thread count on the GSO parameters themselves wins).
        let mut gso = self.config.gso.clone();
        if gso.threads == 0 {
            gso.threads = surf_ml::parallel::resolve_threads(self.config.threads);
        }
        let mine = |threshold: Threshold| {
            mine_regions(
                &self.surrogate,
                &self.domain,
                self.config.objective,
                threshold,
                &gso,
                self.kde.as_ref(),
                min_fraction,
                max_fraction,
                self.config.cluster_radius_fraction,
            )
        };
        // Counted per pass, so `/metrics` shows how often the fallback fires. Without a
        // margin the first pass runs at the raw threshold but still counts as margined.
        let obs = surf_obs::global();
        obs.core_mine_runs_margined.inc();
        let outcome = mine(margined);
        if outcome.regions.is_empty() && shift > 0.0 {
            // The conservative constraint is infeasible under the surrogate (e.g. a small
            // "below" threshold with a large RMSE); honour the analyst's raw threshold.
            obs.core_mine_runs_raw.inc();
            return mine(threshold);
        }
        outcome
    }

    /// Extracts the engine's complete fitted state for persistence (see [`SurfState`]).
    pub fn export_state(&self) -> SurfState {
        SurfState {
            config: self.config.clone(),
            domain: self.domain.clone(),
            model: self.surrogate.model().clone(),
            dimensions: self.surrogate.dimensions(),
            kde: self.kde.clone(),
            training_report: self.training_report.clone(),
            workload_size: self.workload_size,
        }
    }

    /// Rebuilds a working engine from previously exported state, re-validating the
    /// configuration, the model's feature width and the KDE guide
    /// ([`KernelDensity::validate`], plus its width against the exported dimensionality). The
    /// restored engine answers [`Surf::mine`] / [`Surf::mine_with`] identically to the engine
    /// that exported the state.
    pub fn from_state(state: SurfState) -> Result<Surf, SurfError> {
        state.config.validate()?;
        if state.domain.dimensions() != state.dimensions {
            return Err(SurfError::InvalidConfig(format!(
                "domain dimensionality {} does not match the exported dimensionality {}",
                state.domain.dimensions(),
                state.dimensions
            )));
        }
        if let Some(kde) = &state.kde {
            kde.validate()?;
            if kde.dimensions() != state.dimensions {
                return Err(MlError::FeatureWidthMismatch {
                    expected: state.dimensions,
                    actual: kde.dimensions(),
                }
                .into());
            }
        }
        let surrogate = GbrtSurrogate::from_model(state.model, state.dimensions)?;
        Ok(Surf {
            config: state.config,
            domain: state.domain,
            surrogate,
            kde: state.kde,
            training_report: state.training_report,
            workload_size: state.workload_size,
        })
    }

    /// The trained surrogate.
    pub fn surrogate(&self) -> &GbrtSurrogate {
        &self.surrogate
    }

    /// The data domain the engine searches.
    pub fn domain(&self) -> &Region {
        &self.domain
    }

    /// Cost and accuracy report of the surrogate training step.
    pub fn training_report(&self) -> &TrainingReport {
        &self.training_report
    }

    /// Number of past region evaluations the surrogate was trained on.
    pub fn workload_size(&self) -> usize {
        self.workload_size
    }

    /// The configuration the engine was fitted with.
    pub fn config(&self) -> &SurfConfig {
        &self.config
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::surrogate::TrueFunctionSurrogate;
    use surf_data::index::IndexKind;
    use surf_data::iou::average_best_iou;
    use surf_data::statistic::{Statistic, Target};
    use surf_data::synthetic::{SyntheticDataset, SyntheticSpec};

    fn quick_config(threshold: f64) -> SurfConfig {
        SurfConfig::builder()
            .statistic(Statistic::Count)
            .threshold(Threshold::above(threshold))
            .training_queries(900)
            .gbrt(surf_ml::gbrt::GbrtParams::quick())
            .gso(GsoParams::quick().with_iterations(60))
            .kde_sample(400)
            .seed(3)
            .build()
    }

    fn dense_dataset() -> SyntheticDataset {
        SyntheticDataset::generate(
            &SyntheticSpec::density(2, 1)
                .with_points(4_000)
                .with_points_per_region(1_200)
                .with_seed(11),
        )
    }

    #[test]
    fn surf_finds_regions_overlapping_the_ground_truth() {
        let synthetic = dense_dataset();
        let config = quick_config(600.0);
        let surf = Surf::fit(&synthetic.dataset, &config).unwrap();
        let outcome = surf.mine();
        assert!(!outcome.regions.is_empty(), "no regions found");
        assert!(outcome.swarm_valid_fraction > 0.0);
        let iou = average_best_iou(&outcome.region_list(), &synthetic.ground_truth);
        assert!(iou > 0.15, "IoU with ground truth too low: {iou}");
        // Every proposed region must satisfy the constraint under the surrogate.
        assert!(outcome
            .regions
            .iter()
            .all(|m| m.predicted_value > 600.0 && m.objective_value.is_finite()));
        // Regions are sorted by objective.
        for pair in outcome.regions.windows(2) {
            assert!(pair[0].objective_value >= pair[1].objective_value);
        }
        assert!(outcome.best().is_some());
    }

    #[test]
    fn mine_with_reuses_the_surrogate_for_new_thresholds() {
        let synthetic = dense_dataset();
        let surf = Surf::fit(&synthetic.dataset, &quick_config(400.0)).unwrap();
        let strict = surf.mine_with(Threshold::above(900.0));
        let lenient = surf.mine_with(Threshold::above(100.0));
        // A stricter threshold cannot admit more of the swarm than a lenient one.
        assert!(lenient.swarm_valid_fraction >= strict.swarm_valid_fraction);
        assert_eq!(surf.workload_size(), 900);
        assert!(surf.training_report().training_examples > 0);
        assert_eq!(surf.domain().dimensions(), 2);
        assert_eq!(surf.config().seed, 3);
    }

    #[test]
    fn region_fitness_rejects_malformed_solutions() {
        let synthetic = dense_dataset();
        let surrogate = TrueFunctionSurrogate::new(&synthetic.dataset, Statistic::Count, 0.0);
        let fitness = RegionFitness::new(
            &surrogate,
            Objective::paper_default(),
            Threshold::above(500.0),
            synthetic.dataset.domain().unwrap(),
            None,
            0.005,
            0.5,
        );
        // Wrong width.
        assert!(fitness.fitness(&[0.5, 0.5, 0.1]).is_infinite());
        assert!(fitness.decode(&[0.5, 0.5, 0.1]).is_none());
        // A solution over the dense region is valid and finite.
        let gt = &synthetic.ground_truth[0];
        let solution = gt.to_solution_vector();
        assert!(fitness.fitness(&solution).is_finite());
        // Bounds have 2d entries.
        assert_eq!(fitness.bounds().dimensions(), 4);
        // Without a KDE the density weight defaults to 1.
        assert_eq!(fitness.density_weight(&solution), 1.0);
    }

    #[test]
    fn fit_with_workload_validates_dimensions() {
        let synthetic = dense_dataset();
        let other = SyntheticDataset::generate(
            &SyntheticSpec::density(3, 1).with_points(1_000).with_seed(1),
        );
        let workload = surf_data::workload::Workload::generate(
            &other.dataset,
            Statistic::Count,
            &surf_data::workload::WorkloadSpec::default().with_queries(50),
        )
        .unwrap();
        let config = quick_config(100.0);
        assert!(Surf::fit_with_workload(&synthetic.dataset, &workload, &config).is_err());
    }

    #[test]
    fn invalid_config_is_rejected_at_fit_time() {
        let synthetic = dense_dataset();
        let mut config = quick_config(100.0);
        config.training_queries = 0;
        assert!(Surf::fit(&synthetic.dataset, &config).is_err());
    }

    #[test]
    fn exported_state_rebuilds_an_identical_engine() {
        let synthetic = dense_dataset();
        let surf = Surf::fit(&synthetic.dataset, &quick_config(600.0)).unwrap();
        let state = surf.export_state();

        // Through JSON, as the serving layer persists it.
        let json = serde_json::to_string(&state).unwrap();
        let restored_state: SurfState = serde_json::from_str(&json).unwrap();
        assert_eq!(state, restored_state);

        let restored = Surf::from_state(restored_state).unwrap();
        assert_eq!(restored.workload_size(), surf.workload_size());
        assert_eq!(restored.domain(), surf.domain());
        // Identical surrogate predictions, hence identical mining outcomes.
        let probe = Region::new(vec![0.4, 0.6], vec![0.05, 0.08]).unwrap();
        assert_eq!(
            surf.surrogate().predict(&probe),
            restored.surrogate().predict(&probe)
        );
        assert_eq!(surf.mine().regions, restored.mine().regions);
    }

    /// The exported state with the wall-clock training time and the two knobs under test
    /// normalized away.
    fn comparable_state(surf: &Surf) -> SurfState {
        let mut state = surf.export_state();
        state.training_report.training_time = Duration::ZERO;
        state.config.index_kind = IndexKind::Grid;
        state.config.threads = 0;
        state
    }

    #[test]
    fn count_fit_is_identical_for_every_index_and_thread_count() {
        // The grid answers Count bit-identically to the scan, and each workload evaluation is
        // independent of the others, so neither knob may move the fitted state.
        let synthetic = dense_dataset();
        let fit = |kind: IndexKind, threads: usize| {
            let mut config = quick_config(600.0);
            config.index_kind = kind;
            config.threads = threads;
            comparable_state(&Surf::fit(&synthetic.dataset, &config).unwrap())
        };
        let reference = fit(IndexKind::Scan, 1);
        for (kind, threads) in [
            (IndexKind::Scan, 2),
            (IndexKind::Grid, 1),
            (IndexKind::Grid, 2),
        ] {
            assert!(
                fit(kind, threads) == reference,
                "{kind:?} on {threads} threads"
            );
        }
    }

    #[test]
    fn average_fit_is_identical_for_every_thread_count_on_the_grid() {
        // The grid adds an Average's per-cell partial sums in another order than the scan, so
        // its workload may differ from the scan's in the last bits; the thread count must
        // still not matter.
        let synthetic = SyntheticDataset::generate(
            &SyntheticSpec::aggregate(2, 1)
                .with_points(4_000)
                .with_seed(3),
        );
        let fit = |threads: usize| {
            let mut config = quick_config(0.0);
            config.statistic = Statistic::Average(Target::Measure);
            config.index_kind = IndexKind::Grid;
            config.threads = threads;
            comparable_state(&Surf::fit(&synthetic.dataset, &config).unwrap())
        };
        assert!(fit(1) == fit(2));
    }

    #[test]
    fn batched_surrogate_mining_matches_scalar_mining_exactly() {
        /// Forces the default (scalar) `Surrogate::predict_batch` path while delegating
        /// single predictions — the "batching off" side of the invariance.
        struct ScalarOnly<'a>(&'a GbrtSurrogate);
        impl Surrogate for ScalarOnly<'_> {
            fn predict(&self, region: &Region) -> f64 {
                self.0.predict(region)
            }
            fn dimensions(&self) -> usize {
                Surrogate::dimensions(self.0)
            }
        }

        let synthetic = dense_dataset();
        let surf = Surf::fit(&synthetic.dataset, &quick_config(600.0)).unwrap();
        let gso = surf.config().gso.clone().with_threads(1);
        let mine = |surrogate: &dyn Surrogate| {
            mine_regions(
                surrogate,
                surf.domain(),
                surf.config().objective,
                Threshold::above(600.0),
                &gso,
                None,
                0.01,
                0.15,
                surf.config().cluster_radius_fraction,
            )
        };
        let batched = mine(surf.surrogate());
        let scalar = mine(&ScalarOnly(surf.surrogate()));
        // The compiled batch path must be bit-identical to the scalar path, so the entire
        // mining outcome (regions, scores, traces, convergence) coincides.
        assert_eq!(batched.regions, scalar.regions);
        // Trace entries are NaN while the whole swarm is infeasible, so compare bitwise.
        assert_eq!(
            batched.convergence_trace.len(),
            scalar.convergence_trace.len()
        );
        for (a, b) in batched
            .convergence_trace
            .iter()
            .zip(&scalar.convergence_trace)
        {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        assert_eq!(batched.iterations_run, scalar.iterations_run);
        assert_eq!(batched.swarm_valid_fraction, scalar.swarm_valid_fraction);

        // Spot-check the surrogate-level contract directly on a few probe regions.
        let probes: Vec<Region> = (1..6)
            .map(|i| {
                Region::new(
                    vec![0.15 * i as f64, 0.9 - 0.1 * i as f64],
                    vec![0.05, 0.07],
                )
                .unwrap()
            })
            .collect();
        let batch = surf.surrogate().predict_batch(&probes);
        for (region, value) in probes.iter().zip(&batch) {
            assert_eq!(value.to_bits(), surf.surrogate().predict(region).to_bits());
        }
    }

    #[test]
    fn from_state_rejects_inconsistent_state() {
        let synthetic = dense_dataset();
        let surf = Surf::fit(&synthetic.dataset, &quick_config(600.0)).unwrap();

        let mut bad = surf.export_state();
        bad.config.training_queries = 0;
        assert!(Surf::from_state(bad).is_err());

        let mut bad = surf.export_state();
        bad.dimensions = 3;
        assert!(Surf::from_state(bad).is_err());

        // A state whose GBRT configuration has zero bins is refused with a typed error.
        let mut bad = surf.export_state();
        bad.config.gbrt.max_bins = 0;
        assert!(matches!(
            Surf::from_state(bad),
            Err(SurfError::Ml(MlError::InvalidParameter {
                name: "max_bins",
                ..
            }))
        ));
    }

    #[test]
    fn from_state_rejects_an_inconsistent_kde() {
        let synthetic = dense_dataset();
        let surf = Surf::fit(&synthetic.dataset, &quick_config(600.0)).unwrap();
        // Each guide arrives as JSON, the way a served artifact carries it; `null` decodes to
        // NaN and `1e999` to infinity. Scoring the first would index past its short row, and
        // the second would put every density weight at the 1e-12 floor.
        let cases = [
            (
                r#"{"points":[[0.5],[0.4,0.6]],"bandwidths":[0.1,0.1]}"#,
                MlError::RaggedFeatures {
                    first: 1,
                    row: 1,
                    width: 2,
                },
            ),
            (
                r#"{"points":[[0.1,0.2,0.3]],"bandwidths":[0.1,0.1,0.1]}"#,
                MlError::FeatureWidthMismatch {
                    expected: 2,
                    actual: 3,
                },
            ),
            (
                r#"{"points":[[0.5],[0.4]],"bandwidths":[0.1,0.1]}"#,
                MlError::FeatureWidthMismatch {
                    expected: 2,
                    actual: 1,
                },
            ),
            (
                r#"{"points":[],"bandwidths":[0.1,0.1]}"#,
                MlError::EmptyTrainingSet,
            ),
            (
                r#"{"points":[[0.5,0.5],[0.4,null]],"bandwidths":[0.1,0.1]}"#,
                MlError::NonFiniteFeature { row: 1, column: 1 },
            ),
            (
                r#"{"points":[[1e999,0.5]],"bandwidths":[0.1,0.1]}"#,
                MlError::NonFiniteFeature { row: 0, column: 0 },
            ),
        ];
        let restore = |kde: &str| {
            let mut state = surf.export_state();
            state.kde = Some(serde_json::from_str(kde).unwrap());
            let json = serde_json::to_string(&state).unwrap();
            Surf::from_state(serde_json::from_str(&json).unwrap())
        };
        for (kde, expected) in cases {
            assert_eq!(restore(kde).err(), Some(SurfError::Ml(expected)), "{kde}");
        }
        for h in ["0.0", "-0.1", "null", "1e999"] {
            let kde = format!(r#"{{"points":[[0.5,0.5]],"bandwidths":[0.1,{h}]}}"#);
            assert!(
                matches!(
                    restore(&kde),
                    Err(SurfError::Ml(MlError::InvalidParameter {
                        name: "bandwidth",
                        ..
                    }))
                ),
                "{kde}"
            );
        }
        // A consistent guide restores, and mining with it scores boxes.
        restore(r#"{"points":[[0.5,0.5],[0.4,0.6]],"bandwidths":[0.1,0.1]}"#)
            .unwrap()
            .mine();
    }
}
