//! End-to-end configuration of a SuRF mining task.
//!
//! A [`SurfConfig`] bundles everything the pipeline needs: the statistic of interest, the
//! analyst threshold, the objective shape and its regularization strength `c`, the past-query
//! workload used to train the surrogate, the surrogate hyper-parameters (optionally
//! grid-searched), the GSO parameters and the KDE guidance settings.

use serde::{Deserialize, Serialize};
use surf_data::index::IndexKind;
use surf_data::statistic::Statistic;
use surf_ml::compiled::InferenceEngine;
use surf_ml::gbrt::GbrtParams;
use surf_optim::gso::GsoParams;

use crate::error::SurfError;
use crate::objective::{Objective, Threshold};

/// Full configuration of a SuRF mining run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SurfConfig {
    /// The statistic of interest `y = f(x, l)`.
    pub statistic: Statistic,
    /// The analyst threshold `y_R` and its direction.
    pub threshold: Threshold,
    /// The objective shape and regularization strength `c`.
    pub objective: Objective,
    /// Number of past region evaluations generated to train the surrogate.
    pub training_queries: usize,
    /// Coverage range (fractions of the domain side) of the training regions (paper: 1–15 %).
    pub workload_coverage: (f64, f64),
    /// Value recorded for regions where the statistic is undefined (empty regions).
    pub empty_value: f64,
    /// Hyper-parameters of the gradient-boosted surrogate. The workload features are
    /// quantized once into a shared columnar `FeatureMatrix` of `gbrt.max_bins` bins per
    /// feature (1–65,536, default 256), and every tree is grown from per-node gradient
    /// histograms.
    pub gbrt: GbrtParams,
    /// Run the paper's grid search with cross-validation before the final surrogate fit.
    pub hypertune: bool,
    /// Inference engine serving the fitted surrogate: the compiled engine, the only one.
    /// Defaults on deserialization too (the engine's `Deserialize::absent` hook), so
    /// configurations persisted before the field existed load unchanged.
    pub inference_engine: InferenceEngine,
    /// Glowworm Swarm Optimization parameters.
    pub gso: GsoParams,
    /// Guide glowworm movement with a KDE over (a sample of) the data (Eq. 8).
    pub use_kde_guide: bool,
    /// Number of data points sampled to fit the KDE.
    pub kde_sample: usize,
    /// Smallest allowed half side length, as a fraction of the domain side.
    pub min_length_fraction: f64,
    /// Largest allowed half side length, as a fraction of the domain side.
    pub max_length_fraction: f64,
    /// Radius (as a fraction of the solution-space diagonal) used to cluster converged
    /// glowworms into distinct regions.
    pub cluster_radius_fraction: f64,
    /// OS threads used by the pipeline's data-parallel stages — workload evaluation,
    /// grid-search/cross-validation during hyper-tuning, and GSO fitness evaluation during
    /// mining. `0` = automatic (available parallelism, capped at 8), `1` = fully sequential.
    /// Results are identical for every thread count.
    pub threads: usize,
    /// Spatial index serving the workload evaluation of `Surf::fit`: the uniform grid
    /// (default) or `Scan` to disable indexing. Everything else that touches the data — the
    /// true-function baselines and helpers like `validity_fraction` — follows the
    /// *dataset's* own choice (`Dataset::with_index_kind`). The grid is built lazily once per
    /// dataset and cached. Count, CountPerVolume, Ratio, Min, Max and Median evaluate
    /// bit-identically under either choice; Sum, Average and Variance differ in the last bits
    /// (floating-point re-association, see `surf_data::index`), and so may the fitted model.
    pub index_kind: IndexKind,
    /// Confidence margin applied to the threshold during mining, in units of the surrogate's
    /// held-out RMSE. GSO otherwise converges onto the surrogate's error band at the
    /// constraint boundary (the smallest region the surrogate barely scores as valid), which
    /// yields regions the true function rejects. If the margined constraint is infeasible
    /// under the surrogate, mining falls back to the raw threshold.
    pub mining_margin_rmse: f64,
    /// Master seed for workload generation, KDE sampling and GSO.
    pub seed: u64,
}

impl Default for SurfConfig {
    fn default() -> Self {
        Self {
            statistic: Statistic::Count,
            threshold: Threshold::above(0.0),
            objective: Objective::paper_default(),
            training_queries: 2_000,
            workload_coverage: (0.01, 0.15),
            empty_value: 0.0,
            gbrt: GbrtParams::paper_default(),
            hypertune: false,
            inference_engine: InferenceEngine::default(),
            gso: GsoParams::paper_default(),
            use_kde_guide: true,
            kde_sample: 2_000,
            min_length_fraction: 0.005,
            max_length_fraction: 0.5,
            cluster_radius_fraction: 0.15,
            threads: 0,
            index_kind: IndexKind::default(),
            mining_margin_rmse: 0.5,
            seed: 7,
        }
    }
}

impl SurfConfig {
    /// Starts a builder pre-populated with the paper's defaults.
    pub fn builder() -> SurfConfigBuilder {
        SurfConfigBuilder {
            config: SurfConfig::default(),
        }
    }

    /// Validates the configuration.
    pub fn validate(&self) -> Result<(), SurfError> {
        if self.training_queries == 0 {
            return Err(SurfError::InvalidConfig(
                "training_queries must be positive".into(),
            ));
        }
        if !(self.workload_coverage.0 > 0.0 && self.workload_coverage.0 <= self.workload_coverage.1)
        {
            return Err(SurfError::InvalidConfig(format!(
                "workload coverage range {:?} is not ordered and positive",
                self.workload_coverage
            )));
        }
        if !(self.min_length_fraction > 0.0
            && self.min_length_fraction < self.max_length_fraction
            && self.max_length_fraction <= 1.0)
        {
            return Err(SurfError::InvalidConfig(format!(
                "length fractions ({}, {}) must satisfy 0 < min < max <= 1",
                self.min_length_fraction, self.max_length_fraction
            )));
        }
        if !(self.cluster_radius_fraction > 0.0 && self.cluster_radius_fraction <= 1.0) {
            return Err(SurfError::InvalidConfig(
                "cluster_radius_fraction must be in (0, 1]".into(),
            ));
        }
        if !(self.mining_margin_rmse.is_finite() && self.mining_margin_rmse >= 0.0) {
            return Err(SurfError::InvalidConfig(
                "mining_margin_rmse must be finite and non-negative".into(),
            ));
        }
        if !self.objective.c().is_finite() || self.objective.c() < 0.0 {
            return Err(SurfError::InvalidConfig(
                "objective parameter c must be finite and non-negative".into(),
            ));
        }
        self.gbrt.validate().map_err(SurfError::from)?;
        Ok(())
    }
}

/// Builder for [`SurfConfig`].
#[derive(Debug, Clone)]
pub struct SurfConfigBuilder {
    config: SurfConfig,
}

impl SurfConfigBuilder {
    /// Sets the statistic of interest.
    pub fn statistic(mut self, statistic: Statistic) -> Self {
        self.config.statistic = statistic;
        self
    }

    /// Sets the analyst threshold.
    pub fn threshold(mut self, threshold: Threshold) -> Self {
        self.config.threshold = threshold;
        self
    }

    /// Sets the objective (shape and `c`).
    pub fn objective(mut self, objective: Objective) -> Self {
        self.config.objective = objective;
        self
    }

    /// Sets the number of past region evaluations used for surrogate training.
    pub fn training_queries(mut self, queries: usize) -> Self {
        self.config.training_queries = queries;
        self
    }

    /// Sets the training-region coverage range.
    pub fn workload_coverage(mut self, min: f64, max: f64) -> Self {
        self.config.workload_coverage = (min, max);
        self
    }

    /// Sets the GBRT hyper-parameters of the surrogate.
    pub fn gbrt(mut self, params: GbrtParams) -> Self {
        self.config.gbrt = params;
        self
    }

    /// Sets the histogram trainer's per-feature bin cap (`GbrtParams::max_bins`, 1–65,536).
    /// See `surf_ml::matrix` for the trade-off.
    pub fn max_bins(mut self, max_bins: usize) -> Self {
        self.config.gbrt.max_bins = max_bins;
        self
    }

    /// Sets the surrogate's per-tree feature-subsampling fraction
    /// (`GbrtParams::colsample`): each boosting round draws a fresh subset of
    /// `ceil(colsample · 2d)` region features to split on — the standard variance-reduction
    /// knob. `1.0` (the default) disables the subsampling.
    pub fn colsample(mut self, colsample: f64) -> Self {
        self.config.gbrt.colsample = colsample;
        self
    }

    /// Enables or disables grid-search hyper-tuning.
    pub fn hypertune(mut self, hypertune: bool) -> Self {
        self.config.hypertune = hypertune;
        self
    }

    /// Sets the GSO parameters.
    pub fn gso(mut self, params: GsoParams) -> Self {
        self.config.gso = params;
        self
    }

    /// Enables or disables the KDE movement guide (Eq. 8).
    pub fn kde_guide(mut self, enabled: bool) -> Self {
        self.config.use_kde_guide = enabled;
        self
    }

    /// Sets the KDE sample size.
    pub fn kde_sample(mut self, sample: usize) -> Self {
        self.config.kde_sample = sample;
        self
    }

    /// Sets the allowed half-side-length range (fractions of the domain side).
    pub fn length_fractions(mut self, min: f64, max: f64) -> Self {
        self.config.min_length_fraction = min;
        self.config.max_length_fraction = max;
        self
    }

    /// Sets the value recorded for empty regions.
    pub fn empty_value(mut self, value: f64) -> Self {
        self.config.empty_value = value;
        self
    }

    /// Sets the glowworm clustering radius (fraction of the solution-space diagonal).
    pub fn cluster_radius(mut self, fraction: f64) -> Self {
        self.config.cluster_radius_fraction = fraction;
        self
    }

    /// Sets the confidence margin used while mining, in units of the surrogate's held-out
    /// RMSE (0 disables the margin).
    pub fn mining_margin(mut self, margin: f64) -> Self {
        self.config.mining_margin_rmse = margin;
        self
    }

    /// Sets the thread count of the pipeline's data-parallel stages (`0` = automatic,
    /// `1` = sequential).
    pub fn threads(mut self, threads: usize) -> Self {
        self.config.threads = threads;
        self
    }

    /// Sets the spatial index serving `Surf::fit`'s workload evaluation
    /// ([`IndexKind::Grid`] by default; [`IndexKind::Scan`] disables indexing).
    pub fn index_kind(mut self, kind: IndexKind) -> Self {
        self.config.index_kind = kind;
        self
    }

    /// Sets the master seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.config.seed = seed;
        self
    }

    /// Finalizes the configuration.
    pub fn build(self) -> SurfConfig {
        self.config
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use surf_optim::gso::GsoParams;

    #[test]
    fn builder_overrides_defaults() {
        let config = SurfConfig::builder()
            .statistic(Statistic::Count)
            .threshold(Threshold::above(100.0))
            .objective(Objective::log(2.0))
            .training_queries(500)
            .workload_coverage(0.02, 0.2)
            .hypertune(true)
            .gso(GsoParams::quick())
            .kde_guide(false)
            .kde_sample(100)
            .length_fractions(0.01, 0.4)
            .empty_value(-1.0)
            .cluster_radius(0.1)
            .index_kind(IndexKind::Scan)
            .max_bins(128)
            .colsample(0.75)
            .seed(99)
            .build();
        assert_eq!(config.threshold, Threshold::above(100.0));
        assert_eq!(config.training_queries, 500);
        assert!(config.hypertune);
        assert!(!config.use_kde_guide);
        assert_eq!(config.seed, 99);
        assert_eq!(config.objective.c(), 2.0);
        assert_eq!(config.index_kind, IndexKind::Scan);
        assert_eq!(config.gbrt.max_bins, 128);
        assert_eq!(config.gbrt.colsample, 0.75);
        assert!(config.validate().is_ok());
    }

    #[test]
    fn default_config_is_valid() {
        assert!(SurfConfig::default().validate().is_ok());
    }

    #[test]
    fn inference_engine_round_trips_and_defaults_when_absent() {
        let config = SurfConfig::default();
        let json = serde_json::to_string(&config).unwrap();
        let restored: SurfConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(restored.inference_engine, InferenceEngine::Compiled);

        let entries = || {
            let serde::Value::Object(entries) = serde_json::from_str::<serde::Value>(&json)
                .expect("config serializes to an object")
            else {
                panic!("config serializes to an object");
            };
            entries
        };
        // Configurations persisted before the field existed carry no `inference_engine`
        // key; deserialization must fall back to the compiled engine, not error.
        let mut legacy = entries();
        legacy.retain(|(key, _)| key != "inference_engine");
        let legacy = serde_json::to_string(&serde::Value::Object(legacy)).unwrap();
        let restored: SurfConfig = serde_json::from_str(&legacy).unwrap();
        assert_eq!(restored.inference_engine, InferenceEngine::Compiled);

        // An engine this build does not have is an error, not a silent substitution.
        let mut unknown = entries();
        for (key, value) in &mut unknown {
            if key == "inference_engine" {
                *value = serde::Value::String("NoSuchEngine".into());
            }
        }
        let unknown = serde_json::to_string(&serde::Value::Object(unknown)).unwrap();
        assert!(serde_json::from_str::<SurfConfig>(&unknown).is_err());
    }

    #[test]
    fn index_kinds_round_trip_and_the_removed_kd_tree_fails_to_decode() {
        for kind in [IndexKind::Scan, IndexKind::Grid] {
            let config = SurfConfig {
                index_kind: kind,
                ..SurfConfig::default()
            };
            let json = serde_json::to_string(&config).unwrap();
            assert_eq!(serde_json::from_str::<SurfConfig>(&json).unwrap(), config);
        }

        // A configuration persisted while the k-d tree index existed names `KdTree`. It must
        // fail to decode (retrain, schema version 6), not fall back to another index.
        let json = serde_json::to_string(&SurfConfig::default()).unwrap();
        let serde::Value::Object(mut entries) =
            serde_json::from_str::<serde::Value>(&json).expect("config serializes to an object")
        else {
            panic!("config serializes to an object");
        };
        let slot = entries
            .iter_mut()
            .find(|(key, _)| key == "index_kind")
            .map(|(_, value)| value)
            .expect("config carries its index kind");
        assert_eq!(*slot, serde::Value::String("Grid".into()));
        *slot = serde::Value::String("KdTree".into());
        let kd = serde_json::to_string(&serde::Value::Object(entries)).unwrap();
        assert!(serde_json::from_str::<SurfConfig>(&kd).is_err());
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let config = SurfConfig {
            training_queries: 0,
            ..SurfConfig::default()
        };
        assert!(config.validate().is_err());

        let config = SurfConfig {
            workload_coverage: (0.3, 0.1),
            ..SurfConfig::default()
        };
        assert!(config.validate().is_err());

        let config = SurfConfig {
            min_length_fraction: 0.9,
            max_length_fraction: 0.5,
            ..SurfConfig::default()
        };
        assert!(config.validate().is_err());

        let config = SurfConfig {
            cluster_radius_fraction: 0.0,
            ..SurfConfig::default()
        };
        assert!(config.validate().is_err());

        let config = SurfConfig {
            objective: Objective::log(f64::NAN),
            ..SurfConfig::default()
        };
        assert!(config.validate().is_err());

        let config = SurfConfig {
            mining_margin_rmse: -1.0,
            ..SurfConfig::default()
        };
        assert!(config.validate().is_err());

        let config = SurfConfig {
            gbrt: GbrtParams::paper_default().with_n_estimators(0),
            ..SurfConfig::default()
        };
        assert!(config.validate().is_err());

        let config = SurfConfig {
            gbrt: GbrtParams::paper_default().with_max_bins(1 << 17),
            ..SurfConfig::default()
        };
        assert!(config.validate().is_err());

        let config = SurfConfig {
            gbrt: GbrtParams::paper_default().with_max_bins(0),
            ..SurfConfig::default()
        };
        assert!(config.validate().is_err());

        let config = SurfConfig {
            gbrt: GbrtParams::paper_default().with_colsample(0.0),
            ..SurfConfig::default()
        };
        assert!(config.validate().is_err());
    }
}
