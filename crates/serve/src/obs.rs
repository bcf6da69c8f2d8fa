//! Per-server observability: the metrics registry, latency-breakdown histograms and
//! flight recorder behind `GET /metrics` and `GET /trace`.
//!
//! One [`ServeObs`] is owned by each [`ServeContext`] — servers in the same process (the
//! e2e suite runs several) never share counters. The registry is the **single source of
//! truth**: component state kept outside it (job queue, registry, uptime) is appended to
//! the `/metrics` snapshot as adapter families, so every number the server knows has a
//! Prometheus series with a stable name.
//!
//! Cost model: every instrument always records — counters and gauges are relaxed atomics,
//! and each breakdown histogram (`recv_parse`, `queue_wait`, `kernel`, `write_flush`)
//! costs one clock read and a few atomic adds per request. Only the flight recorder's
//! per-request traces are sampled, one request in [`ObsConfig::trace_sample_every`].

use std::sync::Arc;
use std::time::{Duration, Instant};

use surf_obs::metrics::{default_duration_bounds, Counter, Gauge, Histogram, MetricsRegistry};
use surf_obs::trace::{FlightRecorder, Trace};
use surf_obs::{ObsConfig, Snapshot};

use crate::server::ServeContext;

/// Request/error counters and a latency histogram for one route family, all registered
/// instruments rendered by `/metrics`.
pub struct RouteStats {
    requests: Arc<Counter>,
    errors: Arc<Counter>,
    latency: Arc<Histogram>,
}

impl RouteStats {
    fn new(registry: &MetricsRegistry, route: &'static str) -> Self {
        let labels = [("route", route)];
        RouteStats {
            requests: registry.counter_with(
                "surf_serve_requests_total",
                "Requests handled, by route family",
                &labels,
            ),
            errors: registry.counter_with(
                "surf_serve_errors_total",
                "Requests answered with a 4xx/5xx status, by route family",
                &labels,
            ),
            latency: registry.histogram_with(
                "surf_serve_request_nanos",
                "End-to-end request handling time (parse to response queued), by route family",
                &default_duration_bounds(),
                &labels,
            ),
        }
    }

    /// Records one handled request. The elapsed time was already being measured before
    /// this module existed, so the histogram add costs what the old sum-of-micros did.
    pub fn record(&self, status: u16, elapsed: Duration) {
        self.requests.inc();
        if status >= 400 {
            self.errors.inc();
        }
        self.latency.observe_duration(elapsed);
    }
}

/// The per-server observability state: registry, route stats, breakdown histograms,
/// connection instruments and the flight recorder.
pub struct ServeObs {
    config: ObsConfig,
    registry: MetricsRegistry,
    recorder: FlightRecorder,
    /// `/predict` counters.
    pub predict: RouteStats,
    /// `/mine` counters.
    pub mine: RouteStats,
    /// Counters for every other route (listings, health, metrics, trace, errors).
    pub other: RouteStats,
    /// First request byte to complete parse.
    pub recv_parse: Arc<Histogram>,
    /// Parsed request to handler-pool dequeue.
    pub queue_wait: Arc<Histogram>,
    /// `predict_batch` wall time of a `/predict` evaluation.
    pub kernel: Arc<Histogram>,
    /// One reactor write-flush pass over a connection with pending bytes.
    pub write_flush: Arc<Histogram>,
    /// Currently open client connections.
    pub open_connections: Arc<Gauge>,
    /// Requests served over a reused keep-alive connection.
    pub keepalive_reuses: Arc<Counter>,
    /// Accepts refused at the connection cap.
    pub rejects_connections: Arc<Counter>,
    /// Heavy requests refused at the handler-queue cap.
    pub rejects_queue: Arc<Counter>,
}

impl ServeObs {
    /// Builds the registry, registers every serve instrument, and sizes the flight
    /// recorder from the config.
    pub fn new(config: &ObsConfig) -> Self {
        let registry = MetricsRegistry::new();
        let bounds = default_duration_bounds();
        let recorder = FlightRecorder::new(config.trace_sample_every, config.trace_capacity);
        let predict = RouteStats::new(&registry, "/predict");
        let mine = RouteStats::new(&registry, "/mine");
        let other = RouteStats::new(&registry, "other");
        ServeObs {
            recv_parse: registry.histogram(
                "surf_serve_recv_parse_nanos",
                "First request byte to complete parse",
                &bounds,
            ),
            queue_wait: registry.histogram(
                "surf_serve_queue_wait_nanos",
                "Parsed heavy request to handler-pool dequeue",
                &bounds,
            ),
            kernel: registry.histogram(
                "surf_serve_kernel_nanos",
                "predict_batch wall time of a /predict evaluation",
                &bounds,
            ),
            write_flush: registry.histogram(
                "surf_serve_write_flush_nanos",
                "One write-flush pass over a connection with pending response bytes",
                &bounds,
            ),
            open_connections: registry.gauge(
                "surf_serve_open_connections",
                "Currently open client connections",
            ),
            keepalive_reuses: registry.counter(
                "surf_serve_keepalive_reuses_total",
                "Requests served over a reused keep-alive connection",
            ),
            rejects_connections: registry.counter_with(
                "surf_serve_admission_rejects_total",
                "Requests refused by admission control with a 503, by cause",
                &[("cause", "connections")],
            ),
            rejects_queue: registry.counter_with(
                "surf_serve_admission_rejects_total",
                "Requests refused by admission control with a 503, by cause",
                &[("cause", "queue")],
            ),
            predict,
            mine,
            other,
            config: config.clone(),
            registry,
            recorder,
        }
    }

    /// The configuration this server was started with.
    pub fn config(&self) -> &ObsConfig {
        &self.config
    }

    /// The flight recorder (`/trace` reads it; the transport finishes traces into it).
    pub fn recorder(&self) -> &FlightRecorder {
        &self.recorder
    }

    /// Records the time since `started` into `histogram`.
    pub fn observe_since(&self, histogram: &Histogram, started: Instant) {
        histogram.observe_duration(started.elapsed());
    }

    /// Starts a sampled request trace, or `None` when this request was not sampled.
    pub fn begin_trace(&self, label: &str) -> Option<Trace> {
        self.recorder.begin(label)
    }

    /// Finishes a trace (if one was being carried) into the flight recorder.
    pub fn finish_trace(&self, trace: Option<Trace>) {
        if let Some(trace) = trace {
            self.recorder.finish(trace);
        }
    }
}

/// Assembles the full `/metrics` snapshot for a server: the serve registry, adapter
/// families for the component state kept outside it (job queue, registry, uptime), and
/// the process-wide [`surf_obs::global`] registry
/// (training/mining spans). Deterministically ordered.
pub fn metrics_snapshot(context: &ServeContext) -> Snapshot {
    let mut snapshot = context.obs.registry.snapshot();

    snapshot.push_gauge(
        "surf_serve_uptime_seconds",
        "Seconds since the server started",
        &[],
        context.started.elapsed().as_secs() as i64,
    );
    snapshot.push_gauge(
        "surf_serve_workers",
        "Resolved worker-pool size",
        &[],
        context.workers as i64,
    );
    snapshot.push_gauge(
        "surf_serve_queue_depth",
        "Heavy requests currently queued for the handler pool",
        &[],
        context.queue_depth() as i64,
    );
    snapshot.push_gauge(
        "surf_serve_models",
        "Registered models",
        &[],
        context.registry.len().unwrap_or(0) as i64,
    );

    snapshot.merge(surf_obs::global().registry.snapshot());
    snapshot.sort();
    snapshot
}

/// Renders the assembled snapshot as Prometheus text (the `GET /metrics` body).
pub fn render_metrics(context: &ServeContext) -> String {
    surf_obs::expo::render(&metrics_snapshot(context))
}
