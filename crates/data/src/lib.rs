//! # surf-data
//!
//! Data substrate for the SuRF reproduction: multidimensional data vectors, an in-memory
//! columnar [`dataset::Dataset`], hyper-rectangular [`region::Region`]s, the statistics
//! engine that maps a region to a scalar statistic (Definition 2 of the paper) backed by the
//! spatial index of [`index`] (a uniform grid with per-cell summaries), synthetic
//! ground-truth dataset generators (Section V-A), simulators standing in for the Crimes and
//! Human-Activity real datasets (Section V-C), and the past-query workload generator used to
//! train surrogate models (Section IV).
//!
//! All randomized components take explicit seeds so experiments are reproducible.
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod activity;
pub mod crimes;
pub mod dataset;
pub mod error;
pub mod index;
pub mod iou;
pub mod random;
pub mod region;
pub mod schema;
pub mod statistic;
pub mod synthetic;
pub mod vector;
pub mod workload;

pub use dataset::Dataset;
pub use error::DataError;
pub use index::{GridIndex, IndexKind};
pub use region::Region;
pub use statistic::Statistic;
