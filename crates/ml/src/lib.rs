//! # surf-ml
//!
//! Statistical-learning substrate for the SuRF reproduction. The paper trains its surrogate
//! models with XGBoost + scikit-learn grid search; mature Rust equivalents for boosted
//! regression do not exist, so this crate implements the required pieces from scratch:
//!
//! * [`matrix`] — the columnar, quantized-bin [`FeatureMatrix`] shared across folds, grid
//!   cells and boosting rounds (built once per dataset).
//! * [`tree`] — CART-style regression trees: the exact (sorting) trainer and the
//!   histogram (binned) trainer that sweeps per-node gradient histograms.
//! * [`gbrt`] — gradient-boosted regression trees with shrinkage, L2 leaf regularization,
//!   row/feature subsampling and early stopping (the "XGB" surrogate of the paper). The
//!   histogram engine (`GbrtParams::max_bins`) is the default; `max_bins = 0` selects the
//!   exact engine.
//! * [`compiled`] — the inference engine: fitted ensembles flatten once into contiguous
//!   packed-node arrays ([`CompiledEnsemble`]) with blocked, parallel batch prediction,
//!   bit-identical to the node-walking predictors, which stay as its test oracle.
//! * [`kde`] — Gaussian kernel density estimation with box-probability queries (used to guide
//!   glowworm movement, Eq. 8 of the paper).
//! * [`cv`], [`grid`] — K-fold cross-validation and exhaustive grid search (the paper's
//!   `GridSearchCV` over 144 hyper-parameter combinations, Fig. 6).
//! * [`metrics`] — RMSE, MAE, R², Pearson correlation.
//!
//! Everything is deterministic given explicit seeds.
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod compiled;
pub mod cv;
pub mod error;
pub mod gbrt;
pub mod grid;
pub mod kde;
pub mod matrix;
pub mod metrics;
pub mod parallel;
pub mod tree;

pub use compiled::{CompiledEnsemble, InferenceEngine};
pub use error::MlError;
pub use gbrt::{Gbrt, GbrtParams};
pub use kde::KernelDensity;
pub use matrix::FeatureMatrix;
