//! Thread-safe registry of servable surrogate models.
//!
//! A [`ModelRegistry`] maps names to loaded engines behind an `RwLock`: request handlers take
//! cheap read locks and clone out an `Arc`, so a model can be **hot-swapped** (re-registered
//! under the same name from a newer artifact) while in-flight requests keep serving from the
//! engine they already resolved. Registration rebuilds the engine from the artifact's fitted
//! state up front, so a slot never holds a model that cannot serve.

use std::collections::HashMap;
use std::sync::{Arc, RwLock};

use serde::{Deserialize, Serialize};

use crate::artifact::{ArtifactMetadata, ModelArtifact};
use crate::error::ServeError;

/// A loaded model: the rebuilt engine plus the artifact metadata describing it.
pub struct ServableModel {
    /// The name the model is registered under.
    pub name: String,
    /// Descriptive metadata carried over from the artifact envelope.
    pub metadata: ArtifactMetadata,
    /// Schema version of the artifact the model was loaded from.
    pub schema_version: u64,
    /// The working engine.
    pub engine: surf_core::Surf,
}

/// One row of a `/models` listing.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ModelInfo {
    /// Registered name.
    pub name: String,
    /// Artifact schema version the model was loaded from.
    pub schema_version: u64,
    /// Descriptive metadata.
    pub metadata: ArtifactMetadata,
}

/// Named slots of servable models behind a reader/writer lock.
#[derive(Default)]
pub struct ModelRegistry {
    slots: RwLock<HashMap<String, Arc<ServableModel>>>,
}

impl ModelRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Takes the read lock, mapping poisoning to a structured 500 instead of panicking:
    /// a panic on one worker must not cascade through every later request on the lock.
    fn read_slots(
        &self,
    ) -> Result<std::sync::RwLockReadGuard<'_, HashMap<String, Arc<ServableModel>>>, ServeError>
    {
        self.slots.read().map_err(|_| ServeError::LockPoisoned {
            what: "model registry",
        })
    }

    /// Takes the write lock; same poisoning policy as [`Self::read_slots`].
    fn write_slots(
        &self,
    ) -> Result<std::sync::RwLockWriteGuard<'_, HashMap<String, Arc<ServableModel>>>, ServeError>
    {
        self.slots.write().map_err(|_| ServeError::LockPoisoned {
            what: "model registry",
        })
    }

    /// Loads an artifact into its named slot, rebuilding the engine. Replacing an existing
    /// name hot-swaps it: subsequent lookups see the new engine, requests already holding the
    /// old `Arc` finish undisturbed. Returns the previous occupant, if any.
    ///
    /// # Errors
    ///
    /// [`ServeError::BadRequest`] when the artifact's metadata disagrees with its fitted
    /// state, any engine-rebuild error from the pipeline, and
    /// [`ServeError::LockPoisoned`] when the registry lock is poisoned.
    pub fn register(
        &self,
        artifact: ModelArtifact,
    ) -> Result<Option<Arc<ServableModel>>, ServeError> {
        let name = artifact.name.clone();
        let metadata = artifact.metadata.clone();
        let schema_version = artifact.schema_version;
        // The denormalized metadata drives request validation (e.g. /predict's region
        // dimensionality check), so it must agree with the state actually served: an
        // artifact whose envelope was edited out of sync would otherwise reject valid
        // regions and answer mis-sized ones with NaN.
        if metadata.dimensions != artifact.state.dimensions {
            return Err(ServeError::BadRequest(format!(
                "artifact metadata claims {} dimensions but the fitted state has {}",
                metadata.dimensions, artifact.state.dimensions
            )));
        }
        let engine = artifact.into_engine()?;
        let model = Arc::new(ServableModel {
            name: name.clone(),
            metadata,
            schema_version,
            engine,
        });
        let mut slots = self.write_slots()?;
        Ok(slots.insert(name, model))
    }

    /// Resolves a model by name.
    ///
    /// # Errors
    ///
    /// [`ServeError::NotFound`] when no model is registered under `name`;
    /// [`ServeError::LockPoisoned`] when the registry lock is poisoned.
    pub fn get(&self, name: &str) -> Result<Arc<ServableModel>, ServeError> {
        self.read_slots()?
            .get(name)
            .cloned()
            .ok_or_else(|| ServeError::NotFound(format!("model `{name}`")))
    }

    /// Removes a model; returns whether a slot was occupied.
    ///
    /// # Errors
    ///
    /// [`ServeError::LockPoisoned`] when the registry lock is poisoned.
    pub fn remove(&self, name: &str) -> Result<bool, ServeError> {
        Ok(self.write_slots()?.remove(name).is_some())
    }

    /// Lists registered models, sorted by name.
    ///
    /// # Errors
    ///
    /// [`ServeError::LockPoisoned`] when the registry lock is poisoned.
    pub fn list(&self) -> Result<Vec<ModelInfo>, ServeError> {
        let slots = self.read_slots()?;
        let mut infos: Vec<ModelInfo> = slots
            .values()
            .map(|m| ModelInfo {
                name: m.name.clone(),
                schema_version: m.schema_version,
                metadata: m.metadata.clone(),
            })
            .collect();
        infos.sort_by(|a, b| a.name.cmp(&b.name));
        Ok(infos)
    }

    /// Number of registered models.
    ///
    /// # Errors
    ///
    /// [`ServeError::LockPoisoned`] when the registry lock is poisoned.
    pub fn len(&self) -> Result<usize, ServeError> {
        Ok(self.read_slots()?.len())
    }

    /// Whether the registry is empty.
    ///
    /// # Errors
    ///
    /// [`ServeError::LockPoisoned`] when the registry lock is poisoned.
    pub fn is_empty(&self) -> Result<bool, ServeError> {
        Ok(self.len()? == 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use surf_core::objective::Threshold;
    use surf_core::{Surf, SurfConfig, Surrogate};
    use surf_data::statistic::Statistic;
    use surf_data::synthetic::{SyntheticDataset, SyntheticSpec};

    fn artifact(name: &str, seed: u64) -> ModelArtifact {
        let synthetic = SyntheticDataset::generate(
            &SyntheticSpec::density(2, 1)
                .with_points(1_200)
                .with_seed(seed),
        );
        let config = SurfConfig::builder()
            .statistic(Statistic::Count)
            .threshold(Threshold::above(150.0))
            .training_queries(200)
            .gbrt(surf_ml::gbrt::GbrtParams::quick().with_n_estimators(8))
            .kde_sample(64)
            .seed(seed)
            .build();
        let engine = Surf::fit(&synthetic.dataset, &config).unwrap();
        ModelArtifact::from_engine(name, &engine)
    }

    #[test]
    fn register_get_list_remove() {
        let registry = ModelRegistry::new();
        assert!(registry.is_empty().unwrap());
        assert!(registry.get("missing").is_err());

        registry.register(artifact("beta", 1)).unwrap();
        registry.register(artifact("alpha", 2)).unwrap();
        assert_eq!(registry.len().unwrap(), 2);

        let model = registry.get("alpha").unwrap();
        assert_eq!(model.name, "alpha");
        assert_eq!(model.metadata.dimensions, 2);

        let names: Vec<String> = registry
            .list()
            .unwrap()
            .into_iter()
            .map(|i| i.name)
            .collect();
        assert_eq!(names, vec!["alpha", "beta"]);

        assert!(registry.remove("beta").unwrap());
        assert!(!registry.remove("beta").unwrap());
        assert_eq!(registry.len().unwrap(), 1);
    }

    #[test]
    fn hot_swap_replaces_while_old_handles_survive() {
        let registry = ModelRegistry::new();
        registry.register(artifact("m", 1)).unwrap();
        let old = registry.get("m").unwrap();
        let old_prediction = old
            .engine
            .surrogate()
            .predict(&surf_data::region::Region::new(vec![0.5, 0.5], vec![0.1, 0.1]).unwrap());

        let previous = registry.register(artifact("m", 99)).unwrap();
        assert!(previous.is_some(), "hot-swap reports the replaced model");
        let new = registry.get("m").unwrap();
        assert!(!Arc::ptr_eq(&old, &new));
        // The retained handle still answers with the old engine.
        let still = old
            .engine
            .surrogate()
            .predict(&surf_data::region::Region::new(vec![0.5, 0.5], vec![0.1, 0.1]).unwrap());
        assert_eq!(old_prediction, still);
        assert_eq!(registry.len().unwrap(), 1);
    }

    #[test]
    fn registration_rejects_corrupt_state() {
        let mut bad = artifact("m", 3);
        bad.state.dimensions = 7;
        let registry = ModelRegistry::new();
        assert!(registry.register(bad).is_err());
        assert!(registry.is_empty().unwrap());
    }

    #[test]
    fn registration_rejects_metadata_out_of_sync_with_state() {
        let mut bad = artifact("m", 4);
        bad.metadata.dimensions = 3; // state is 2-d
        let registry = ModelRegistry::new();
        let err = registry
            .register(bad)
            .err()
            .expect("registration must fail");
        assert!(matches!(err, ServeError::BadRequest(_)), "{err}");
        assert!(registry.is_empty().unwrap());
    }
}
