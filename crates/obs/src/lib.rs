//! # surf-obs
//!
//! Dependency-free observability for the SuRF stack: metrics, tracing and a flight
//! recorder, built so that *recording* never takes a lock and *reading* never blocks a
//! request.
//!
//! Three layers:
//!
//! * [`metrics`] — monotonic [`metrics::Counter`]s, [`metrics::Gauge`]s and fixed-boundary
//!   log-bucketed [`metrics::Histogram`]s whose hot path is a handful of relaxed atomic
//!   adds. Instruments register once in a [`metrics::MetricsRegistry`] and are then shared
//!   as `Arc`s; snapshots are deterministic in order (families sorted by name, series by
//!   label set) and mergeable across registries.
//! * [`expo`] — a hand-rolled Prometheus text-exposition writer over registry snapshots
//!   (`# HELP`/`# TYPE`, label escaping, cumulative `_bucket`/`_sum`/`_count`), plus a
//!   parser and a well-formedness [`expo::validate`] checker used by tests and the serve
//!   benchmark.
//! * [`trace`] — a per-request [`trace::Trace`] of named spans timed on the monotonic
//!   clock, fed into a sampling [`trace::FlightRecorder`] of bounded per-shard rings.
//!   Deep call sites (the kernel under a route handler, a swarm iteration under `/mine`)
//!   attach spans through a thread-local current trace without threading a handle through
//!   every signature.
//!
//! Histogram observations are integer nanoseconds, not float seconds: integer atomic adds
//! commute, so a concurrent snapshot is independent of thread interleaving order — the
//! property the workspace's determinism posture demands of every merge.
//!
//! Every instrument always records. The one setting, [`ObsConfig`], sizes a server's
//! flight recorder and picks how many requests it samples. Library-level coarse spans
//! (training rounds in `surf-ml`, swarm evaluations and density weights in `surf-optim`)
//! and counters (density-weight outcomes, mining passes in `surf-core`) record through the
//! process-wide [`global()`] handle.
#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Recording must never panic a worker thread out from under a request; tests keep the
// usual shortcuts. `surf-analyze check` enforces the same invariant per module.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod expo;
pub mod metrics;
pub mod trace;

use std::sync::{Arc, LazyLock};
use std::time::Instant;

use serde::{Deserialize, Serialize};

pub use metrics::{Counter, Gauge, Histogram, MetricsRegistry, Snapshot};
pub use trace::{FlightRecorder, Trace, TraceSample};

/// Sampling settings of a server's flight recorder. Metrics always record; only the
/// per-request traces are sampled.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ObsConfig {
    /// Sample one request trace out of every `trace_sample_every` (0 samples no request).
    pub trace_sample_every: u64,
    /// Most recent traces the flight recorder retains across its shards.
    pub trace_capacity: usize,
}

impl Default for ObsConfig {
    fn default() -> Self {
        ObsConfig {
            trace_sample_every: 16,
            trace_capacity: 256,
        }
    }
}

/// The process-wide observability handle for library-level coarse spans: training and
/// mining record here because they run under no particular server (CLI `train`, tests,
/// or a `/mine` handler alike). Servers render this registry into their `/metrics`
/// output alongside their own.
pub struct GlobalObs {
    /// The process-wide registry the well-known instruments below live in.
    pub registry: MetricsRegistry,
    /// Per-boosting-round `fit_round` wall time (`surf-ml`).
    pub ml_round_fit: Arc<Histogram>,
    /// Per-node gradient/hessian histogram build time (`surf-ml`).
    pub ml_hist_build: Arc<Histogram>,
    /// Per-node best-split search time over built histograms (`surf-ml`).
    pub ml_split_search: Arc<Histogram>,
    /// Per-iteration whole-swarm fitness evaluation time (`surf-optim`).
    pub optim_swarm_fitness: Arc<Histogram>,
    /// Time of one GSO iteration's density-weight computations, observed only by
    /// iterations that compute at least one weight (`surf-optim`).
    pub optim_density_weights: Arc<Histogram>,
    /// GSO density-weight slots computed because a movement decision read them.
    pub optim_density_weights_computed: Arc<Counter>,
    /// GSO density-weight slots read from the cache of a glowworm that had not moved.
    pub optim_density_weights_reused: Arc<Counter>,
    /// GSO density-weight slots no movement decision read, so never computed.
    pub optim_density_weights_unread: Arc<Counter>,
    /// GSO passes a mining call ran at its RMSE-margined threshold (`surf-core`).
    pub core_mine_runs_margined: Arc<Counter>,
    /// GSO passes a mining call re-ran at the raw threshold after the margined pass found
    /// nothing (`surf-core`).
    pub core_mine_runs_raw: Arc<Counter>,
}

impl GlobalObs {
    /// Starts a span timer:
    ///
    /// ```
    /// let g = surf_obs::global();
    /// let t = g.timer();
    /// // ... the measured work ...
    /// g.record(&g.ml_round_fit, t);
    /// ```
    pub fn timer(&self) -> Instant {
        Instant::now()
    }

    /// Completes a [`GlobalObs::timer`] span into `histogram`.
    pub fn record(&self, histogram: &Histogram, started: Instant) {
        histogram.observe_duration(started.elapsed());
    }
}

static GLOBAL: LazyLock<GlobalObs> = LazyLock::new(|| {
    let registry = MetricsRegistry::new();
    let bounds = metrics::default_duration_bounds();
    let ml_round_fit = registry.histogram(
        "surf_ml_round_fit_nanos",
        "Wall time of one GBRT boosting round (fit_round)",
        &bounds,
    );
    let ml_hist_build = registry.histogram(
        "surf_ml_hist_build_nanos",
        "Wall time of one per-node gradient histogram build",
        &bounds,
    );
    let ml_split_search = registry.histogram(
        "surf_ml_split_search_nanos",
        "Wall time of one per-node best-split search over built histograms",
        &bounds,
    );
    let optim_swarm_fitness = registry.histogram(
        "surf_optim_swarm_fitness_nanos",
        "Wall time of one whole-swarm fitness_batch evaluation",
        &bounds,
    );
    let optim_density_weights = registry.histogram(
        "surf_optim_density_weights_nanos",
        "Wall time of one GSO iteration's density-weight computations (iterations computing none are not observed)",
        &bounds,
    );
    let density_weights = |outcome: &str| {
        registry.counter_with(
            "surf_optim_density_weights_total",
            "GSO density-weight slots, one per glowworm per iteration, by outcome",
            &[("outcome", outcome)],
        )
    };
    let optim_density_weights_computed = density_weights("computed");
    let optim_density_weights_reused = density_weights("reused");
    let optim_density_weights_unread = density_weights("unread");
    let mine_runs = |pass: &str| {
        registry.counter_with(
            "surf_core_mine_runs_total",
            "GSO passes run by mining calls, at the RMSE-margined threshold or as the raw-threshold fallback",
            &[("pass", pass)],
        )
    };
    let core_mine_runs_margined = mine_runs("margined");
    let core_mine_runs_raw = mine_runs("raw");
    GlobalObs {
        registry,
        ml_round_fit,
        ml_hist_build,
        ml_split_search,
        optim_swarm_fitness,
        optim_density_weights,
        optim_density_weights_computed,
        optim_density_weights_reused,
        optim_density_weights_unread,
        core_mine_runs_margined,
        core_mine_runs_raw,
    }
});

/// The process-wide [`GlobalObs`] handle (created on first use; the coarse spans it carries
/// cost nanoseconds against work that costs microseconds, so they always record).
pub fn global() -> &'static GlobalObs {
    &GLOBAL
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn global_timer_records_one_observation_per_span() {
        let g = global();
        let count_before = g.ml_round_fit.snapshot().count;
        let t = g.timer();
        g.record(&g.ml_round_fit, t);
        assert_eq!(g.ml_round_fit.snapshot().count, count_before + 1);
    }

    #[test]
    fn obs_config_round_trips_and_samples_by_default() {
        let config = ObsConfig::default();
        let json = serde_json::to_string(&config).unwrap();
        let back: ObsConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(back, config);
        assert!(config.trace_sample_every > 0 && config.trace_capacity > 0);
    }
}
