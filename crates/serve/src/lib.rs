//! # surf-serve
//!
//! Surrogate persistence and concurrent region-query serving: the subsystem that turns a
//! fitted SuRF pipeline from a process-local object into a production artifact.
//!
//! SuRF's amortization argument (Table I of the paper) is that the surrogate is trained
//! *once* and then answers region-statistic queries and mining requests without touching the
//! data. This crate carries that argument across process boundaries, in three layers:
//!
//! * [`artifact`] — a versioned persistence envelope ([`artifact::ModelArtifact`]) around the
//!   complete fitted engine state, with `save_json` / `load_json` that reject incompatible
//!   schema versions. A loaded surrogate produces **bit-identical** predictions to the one
//!   that was saved.
//! * [`registry`] — a thread-safe, hot-swappable name → model registry
//!   ([`registry::ModelRegistry`]).
//! * [`server`] + [`routes`] — a dependency-free HTTP/1.1 JSON API over `std::net`: `POST
//!   /predict` (single + batched region queries), `POST /mine` (GSO mining), `GET /models`,
//!   `GET /healthz`, and the observability pair `GET /metrics` (Prometheus text over the
//!   [`obs`] instruments) and `GET /trace` (sampled request traces). One transport serves
//!   them: a readiness-based epoll event loop (built on the in-tree `surf-reactor` crate)
//!   with keep-alive, pipelining, idle timeouts and bounded-queue admission control. A
//!   `/predict` handler answers all of a request's regions with one
//!   `Surrogate::predict_batch` call and a `/mine` handler calls `Surf::mine_with`, so a
//!   served answer is the in-process answer, bit for bit. Errors map onto structured JSON
//!   bodies via [`error::ServeError`].
//!
//! The `surf-serve` binary wires the layers into `train` / `serve` / `query` subcommands; see
//! the crate README section and `examples/serve.rs` for the full train → save → serve → query
//! walk-through.
//!
//! ## Artifact schema versioning
//!
//! Artifacts carry a `schema_version` field checked against [`artifact::SCHEMA_VERSION`]
//! *before* the fitted state is decoded; a mismatch is rejected with HTTP 409 semantics
//! rather than misread. The policy is intentionally minimal — one supported version per
//! build, no migrations: surrogates retrain in minutes, so "retrain and re-save" beats
//! carrying decode paths for every historical layout. Bump the constant whenever the JSON
//! layout of [`surf_core::SurfState`] or the envelope changes.
#![forbid(unsafe_code)] // raw FFI lives in `surf-reactor`, behind its safe Poller/Waker API
#![warn(missing_docs)]
// Panicking constructs are banned from production serve code (a worker panic drops the
// connection and poisons locks); tests keep them for brevity. `surf-analyze check`
// enforces the same invariant per request-handling module even when clippy does not run.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod artifact;
mod conn;
pub mod error;
mod event_loop;
pub mod http;
pub mod obs;
mod queue;
pub mod registry;
pub mod routes;
pub mod server;

pub use artifact::{ModelArtifact, SCHEMA_VERSION};
pub use error::ServeError;
pub use obs::ServeObs;
pub use registry::{ModelInfo, ModelRegistry, ServableModel};
pub use server::{serve, ServeContext, ServerConfig, ServerHandle};
pub use surf_obs::ObsConfig;
