//! Versioned persistence envelope for fitted surrogates.
//!
//! A [`ModelArtifact`] wraps the complete fitted state of a [`Surf`] engine
//! ([`surf_core::SurfState`]) together with a schema version and the metadata a serving
//! process needs to describe the model without deserializing it end to end: the statistic it
//! predicts, the default analyst threshold, the coverage range it was trained on and its
//! held-out accuracy.
//!
//! # Schema version policy
//!
//! [`SCHEMA_VERSION`] identifies the JSON layout of the envelope *and* of the nested fitted
//! state. A build reads and writes exactly one version; [`ModelArtifact::from_json`] inspects
//! the `schema_version` field *before* attempting a full decode and rejects any other value
//! with [`ServeError::SchemaVersion`] — a changed model layout must bump the constant rather
//! than silently misread old files. Trained artifacts are cheap to regenerate (minutes, the
//! paper's Fig. 6), so no cross-version migration machinery is provided: retrain and re-save.
//!
//! Round-trip guarantee: every finite float in the fitted state is serialized in Rust's
//! shortest-round-trip decimal form, so a loaded artifact produces **bit-identical**
//! predictions to the engine that saved it (non-finite values come back as NaN; see the
//! vendored `serde` docs).

use std::path::Path;

use serde::{Deserialize, Serialize};
use surf_core::objective::Threshold;
use surf_core::{Surf, SurfState};
use surf_data::statistic::Statistic;

use crate::error::ServeError;

/// The artifact layout version this build reads and writes.
///
/// Version history: `1` — initial layout; `2` — `GbrtParams` gained the `max_bins`
/// histogram-engine knob (nested in `SurfState::config`), changing the fitted-state layout;
/// `3` — `GbrtParams` gained the `colsample` per-tree feature-subsampling knob;
/// `4` — `SurfConfig` gained the `inference_engine` knob selecting the batch-prediction
/// engine; `5` — the compiled engine became the only one, so `inference_engine` accepts
/// only `Compiled` (older artifacts are retrained, not migrated); `6` — the k-d tree index
/// was removed, so `SurfConfig::index_kind` accepts only `Scan` and `Grid` (an artifact
/// naming `KdTree` is retrained, not migrated).
pub const SCHEMA_VERSION: u64 = 6;

/// Descriptive metadata of a persisted surrogate, denormalized out of the fitted state so
/// registries and `/models` listings can describe a model cheaply.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ArtifactMetadata {
    /// The statistic the surrogate predicts.
    pub statistic: Statistic,
    /// The default analyst threshold the engine was configured with.
    pub threshold: Threshold,
    /// Coverage range (fractions of the domain side) of the training regions — the region
    /// sizes the surrogate has actually seen (mining is clamped to this support).
    pub trained_coverage: (f64, f64),
    /// Held-out RMSE of the surrogate (NaN when no holdout split was taken).
    pub holdout_rmse: f64,
    /// Number of past region evaluations the surrogate was trained on.
    pub workload_size: usize,
    /// Data dimensionality `d` (the model consumes `2d`-dimensional region vectors).
    pub dimensions: usize,
}

/// A persisted, versioned surrogate: envelope + fitted state.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ModelArtifact {
    /// Layout version of this artifact (see [`SCHEMA_VERSION`]).
    pub schema_version: u64,
    /// The name the model is registered and queried under.
    pub name: String,
    /// Descriptive metadata (also derivable from `state`; stored for cheap listings).
    pub metadata: ArtifactMetadata,
    /// The complete fitted engine state.
    pub state: SurfState,
}

impl ModelArtifact {
    /// Packages a fitted engine as a current-version artifact.
    pub fn from_engine(name: impl Into<String>, engine: &Surf) -> Self {
        let state = engine.export_state();
        let metadata = ArtifactMetadata {
            statistic: state.config.statistic,
            threshold: state.config.threshold,
            trained_coverage: state.config.workload_coverage,
            holdout_rmse: state.training_report.holdout_rmse,
            workload_size: state.workload_size,
            dimensions: state.dimensions,
        };
        ModelArtifact {
            schema_version: SCHEMA_VERSION,
            name: name.into(),
            metadata,
            state,
        }
    }

    /// Rebuilds a working engine from the artifact's fitted state.
    ///
    /// # Errors
    ///
    /// [`ServeError::Surf`] when the fitted state is internally inconsistent (e.g. a
    /// truncated ensemble or dimension mismatch) and the pipeline refuses to rebuild.
    pub fn into_engine(self) -> Result<Surf, ServeError> {
        Ok(Surf::from_state(self.state)?)
    }

    /// Serializes the artifact as pretty-printed JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).unwrap_or_default()
    }

    /// Parses an artifact from JSON, rejecting incompatible schema versions *before*
    /// attempting to decode the fitted state.
    ///
    /// # Errors
    ///
    /// [`ServeError::BadRequest`] when the JSON is unreadable, lacks a numeric
    /// `schema_version`, or decodes to a malformed artifact;
    /// [`ServeError::SchemaVersion`] when the version is not [`SCHEMA_VERSION`].
    pub fn from_json(json: &str) -> Result<Self, ServeError> {
        let value = serde_json::parse_value(json)
            .map_err(|e| ServeError::BadRequest(format!("unreadable artifact: {e}")))?;
        let found = value
            .get("schema_version")
            .and_then(serde::Value::as_u64)
            .ok_or_else(|| {
                ServeError::BadRequest("artifact has no numeric `schema_version` field".into())
            })?;
        if found != SCHEMA_VERSION {
            return Err(ServeError::SchemaVersion {
                found,
                supported: SCHEMA_VERSION,
            });
        }
        ModelArtifact::deserialize(&value)
            .map_err(|e| ServeError::BadRequest(format!("malformed artifact: {e}")))
    }

    /// Writes the artifact to a JSON file.
    ///
    /// # Errors
    ///
    /// [`ServeError::Io`] when the file cannot be written.
    pub fn save_json(&self, path: impl AsRef<Path>) -> Result<(), ServeError> {
        std::fs::write(path.as_ref(), self.to_json())?;
        Ok(())
    }

    /// Reads an artifact from a JSON file, enforcing the schema version.
    ///
    /// # Errors
    ///
    /// [`ServeError::Io`] when the file cannot be read; otherwise any
    /// [`Self::from_json`] error.
    pub fn load_json(path: impl AsRef<Path>) -> Result<Self, ServeError> {
        let json = std::fs::read_to_string(path.as_ref())?;
        Self::from_json(&json)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use surf_core::{SurfConfig, Surrogate};
    use surf_data::synthetic::{SyntheticDataset, SyntheticSpec};

    fn small_engine() -> Surf {
        let synthetic = SyntheticDataset::generate(
            &SyntheticSpec::density(2, 1).with_points(1_500).with_seed(5),
        );
        let config = SurfConfig::builder()
            .statistic(Statistic::Count)
            .threshold(Threshold::above(200.0))
            .training_queries(300)
            .gbrt(surf_ml::gbrt::GbrtParams::quick().with_n_estimators(10))
            .kde_sample(100)
            .seed(5)
            .build();
        Surf::fit(&synthetic.dataset, &config).unwrap()
    }

    #[test]
    fn artifact_round_trips_through_json() {
        let engine = small_engine();
        let artifact = ModelArtifact::from_engine("demo", &engine);
        assert_eq!(artifact.schema_version, SCHEMA_VERSION);
        assert_eq!(artifact.metadata.dimensions, 2);
        assert_eq!(artifact.metadata.workload_size, 300);

        let parsed = ModelArtifact::from_json(&artifact.to_json()).unwrap();
        assert_eq!(parsed, artifact);

        let restored = parsed.into_engine().unwrap();
        let probe = surf_data::region::Region::new(vec![0.5, 0.5], vec![0.1, 0.1]).unwrap();
        assert_eq!(
            restored.surrogate().predict(&probe),
            engine.surrogate().predict(&probe)
        );
    }

    #[test]
    fn save_and_load_through_a_file() {
        let engine = small_engine();
        let artifact = ModelArtifact::from_engine("demo", &engine);
        let path = std::env::temp_dir().join("surf_serve_artifact_test.json");
        artifact.save_json(&path).unwrap();
        let loaded = ModelArtifact::load_json(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(loaded, artifact);
    }

    #[test]
    fn incompatible_versions_are_rejected() {
        let engine = small_engine();
        let mut artifact = ModelArtifact::from_engine("demo", &engine);
        artifact.schema_version = SCHEMA_VERSION + 1;
        let err = ModelArtifact::from_json(&artifact.to_json()).unwrap_err();
        assert_eq!(
            err,
            ServeError::SchemaVersion {
                found: SCHEMA_VERSION + 1,
                supported: SCHEMA_VERSION
            }
        );
        assert!(ModelArtifact::from_json("{\"no_version\": true}").is_err());
        assert!(ModelArtifact::from_json("not json").is_err());
    }
}
