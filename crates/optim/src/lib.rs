//! # surf-optim
//!
//! Optimization substrate for the SuRF reproduction:
//!
//! * [`gso`] — Glowworm Swarm Optimization (Krishnanand & Ghose), the multimodal evolutionary
//!   optimizer SuRF uses to locate *all* regions satisfying the analyst's threshold (Section
//!   III of the paper), including the KDE-guided movement rule of Eq. 8.
//! * [`naive`] — the discretized exhaustive baseline of Section II-A (`O((n·m)^d · N)`).
//! * [`prim`] — the PRIM bump-hunting baseline (Friedman & Fisher) used in the accuracy
//!   comparison of Section V-B.
//!
//! GSO acts on an abstract [`fitness::FitnessFunction`], so it is reusable for any
//! objective; `surf-core` wires it to the paper's surrogate-backed objective. The swarm
//! evaluates a whole iteration's candidates through
//! [`fitness::FitnessFunction::fitness_batch`] (see [`fitness::evaluate_swarm`]), so a
//! batch-capable fitness — SuRF's compiled surrogate — amortizes its per-call cost over the
//! entire swarm; results are identical for batched and unbatched implementations and for
//! every thread count.
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fitness;
pub mod gso;
pub mod naive;
pub mod prim;

pub use fitness::{evaluate_swarm, FitnessFunction};
pub use gso::{GlowwormSwarm, GsoParams, GsoResult};
pub use naive::{NaiveParams, NaiveSearch};
pub use prim::{Prim, PrimParams};
