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
//!   parser and a well-formedness [`expo::validate`] checker used by tests, the
//!   `expocheck` bin and the serve benchmark.
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
//! The per-server recorders live behind an [`ObsConfig`]; library-level coarse spans
//! (training rounds in `surf-ml`, swarm evaluations and density weights in `surf-optim`)
//! and counters (density-weight outcomes, mining passes in `surf-core`) record through the
//! process-wide [`global()`] handle, whose disabled span path is a single relaxed load.
#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Recording must never panic a worker thread out from under a request; tests keep the
// usual shortcuts. `surf-analyze check` enforces the same invariant per module.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod expo;
pub mod metrics;
pub mod trace;

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, LazyLock};
use std::time::Instant;

use serde::{Deserialize, Serialize};

pub use metrics::{Counter, Gauge, Histogram, MetricsRegistry, Snapshot};
pub use trace::{FlightRecorder, Trace, TraceSample};

/// Switches for the per-server recorders. Metrics and tracing are independently
/// toggleable so benchmarks can pin either mode and measure the other's overhead.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ObsConfig {
    /// Record the latency-breakdown histograms (the counters and gauges that `/stats`
    /// always served keep updating regardless — they cost what they always cost).
    pub metrics: bool,
    /// Assemble sampled per-request traces for the flight recorder.
    pub tracing: bool,
    /// Sample one request trace out of every `trace_sample_every` (0 disables sampling
    /// even when `tracing` is on).
    pub trace_sample_every: u64,
    /// Most recent traces the flight recorder retains across its shards.
    pub trace_capacity: usize,
}

impl Default for ObsConfig {
    fn default() -> Self {
        ObsConfig {
            metrics: true,
            tracing: true,
            trace_sample_every: 16,
            trace_capacity: 256,
        }
    }
}

impl ObsConfig {
    /// Everything off: the configuration benches pin to measure the uninstrumented
    /// baseline.
    pub fn disabled() -> Self {
        ObsConfig {
            metrics: false,
            tracing: false,
            trace_sample_every: 0,
            trace_capacity: 0,
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
    enabled: AtomicBool,
}

impl GlobalObs {
    /// Whether library spans are being recorded (one relaxed load — the entire cost of a
    /// disabled call site). Counters count regardless.
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Turns library-span recording on or off process-wide.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Starts a span timer, or `None` when recording is off — the pattern that keeps the
    /// disabled hot path free of clock reads:
    ///
    /// ```
    /// let g = surf_obs::global();
    /// let t = g.timer();
    /// // ... the measured work ...
    /// g.record(&g.ml_round_fit, t);
    /// ```
    pub fn timer(&self) -> Option<Instant> {
        if self.enabled() {
            Some(Instant::now())
        } else {
            None
        }
    }

    /// Completes a [`GlobalObs::timer`] span into `histogram` (no-op when the timer was
    /// never started).
    pub fn record(&self, histogram: &Histogram, started: Option<Instant>) {
        if let Some(started) = started {
            histogram.observe_duration(started.elapsed());
        }
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
        enabled: AtomicBool::new(true),
    }
});

/// The process-wide [`GlobalObs`] handle (created on first use; enabled by default —
/// the coarse spans it carries cost nanoseconds against work that costs microseconds).
pub fn global() -> &'static GlobalObs {
    &GLOBAL
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn global_timer_respects_the_enable_flag() {
        let g = global();
        let before = g.enabled();
        g.set_enabled(false);
        assert!(g.timer().is_none());
        g.set_enabled(true);
        let t = g.timer();
        assert!(t.is_some());
        let count_before = g.ml_round_fit.snapshot().count;
        g.record(&g.ml_round_fit, t);
        g.record(&g.ml_round_fit, None);
        assert_eq!(g.ml_round_fit.snapshot().count, count_before + 1);
        g.set_enabled(before);
    }

    #[test]
    fn obs_config_round_trips_and_disabled_is_all_off() {
        let config = ObsConfig::default();
        let json = serde_json::to_string(&config).unwrap();
        let back: ObsConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(back, config);
        let off = ObsConfig::disabled();
        assert!(!off.metrics && !off.tracing);
        assert_eq!(off.trace_sample_every, 0);
    }
}
