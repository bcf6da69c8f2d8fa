//! # SuRF — SUrrogate Region Finder
//!
//! A Rust reproduction of *"SuRF: Identification of Interesting Data Regions with Surrogate
//! Models"* (Savva, Anagnostopoulos, Triantafillou — IEEE ICDE 2020).
//!
//! SuRF answers the query: *given a threshold `y_R` on a statistic (density, average, ratio,
//! ...), find all hyper-rectangular regions of a multidimensional dataset whose statistic
//! exceeds (or is below) `y_R`* — without scanning the data at query time. It does so by
//!
//! 1. training a **surrogate model** (gradient-boosted regression trees) on past region
//!    evaluations, and
//! 2. running **Glowworm Swarm Optimization** (a multimodal evolutionary optimizer) over the
//!    `2d`-dimensional region space to maximize a size-regularized objective.
//!
//! This umbrella crate re-exports the four library crates of the workspace:
//!
//! * [`data`] — datasets, regions, statistics, synthetic/real-world-like generators.
//! * [`ml`] — regression trees, gradient boosting, KDE, cross-validation, grid search.
//! * [`optim`] — Glowworm Swarm Optimization, the Naive baseline and PRIM.
//! * [`core`] — objective functions, surrogate abstraction and the SuRF pipeline.
//! * [`serve`] — surrogate persistence (versioned JSON artifacts) and a concurrent HTTP
//!   serving subsystem (model registry, worker-pool JSON API).
//!
//! ## Quick start
//!
//! ```
//! use surf::prelude::*;
//!
//! // A small synthetic dataset with one dense ground-truth region.
//! let spec = SyntheticSpec::density(2, 1).with_points(4_000).with_seed(7);
//! let synthetic = SyntheticDataset::generate(&spec);
//!
//! // Train a surrogate on past region evaluations and mine regions above the threshold.
//! let config = SurfConfig::builder()
//!     .statistic(Statistic::Count)
//!     .threshold(Threshold::above(150.0))
//!     .training_queries(800)
//!     .gbrt(GbrtParams::quick())
//!     .gso(GsoParams::quick())
//!     .kde_sample(300)
//!     .seed(7)
//!     .build();
//! let surf = Surf::fit(&synthetic.dataset, &config).expect("training succeeds");
//! let outcome = surf.mine();
//! assert!(!outcome.regions.is_empty());
//! ```
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use surf_core as core;
pub use surf_data as data;
pub use surf_ml as ml;
pub use surf_optim as optim;
pub use surf_serve as serve;

/// Commonly used types, re-exported for convenience.
pub mod prelude {
    pub use surf_core::{
        comparison::{ComparisonConfig, Method, MethodComparison, MethodRun},
        evaluation::{match_regions, validity_fraction, validity_fraction_threaded, RegionMatch},
        finder::{MinedRegion, MiningOutcome, Surf, SurfState},
        objective::{Direction, LogObjective, Objective, RatioObjective, Threshold},
        pipeline::SurfConfig,
        surrogate::{GbrtSurrogate, Surrogate, SurrogateTrainer, TrueFunctionSurrogate},
    };
    pub use surf_data::{
        activity::{Activity, ActivityDataset, ActivitySpec},
        crimes::{CrimesDataset, CrimesSpec},
        dataset::Dataset,
        index::{IndexKind, RegionIndex},
        iou::iou,
        region::Region,
        statistic::Statistic,
        synthetic::{SyntheticDataset, SyntheticSpec},
        workload::{Workload, WorkloadSpec},
    };
    pub use surf_ml::{
        compiled::CompiledEnsemble,
        gbrt::{Gbrt, GbrtParams},
        kde::KernelDensity,
        matrix::FeatureMatrix,
        metrics::rmse,
    };
    pub use surf_optim::{
        gso::{GlowwormSwarm, GsoParams, GsoResult},
        naive::{NaiveParams, NaiveSearch},
        prim::{Prim, PrimParams},
    };
    pub use surf_serve::{serve, ModelArtifact, ModelRegistry, ServeError, ServerConfig};
}
