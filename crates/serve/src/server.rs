//! The serving front end: shared state and lifecycle.
//!
//! One transport serves every request: a single reactor thread multiplexes every
//! connection over an epoll [`surf_reactor::Poller`] — non-blocking accept, read and
//! write, HTTP/1.1 keep-alive and pipelining, idle timeouts, and admission control. Heavy
//! routes (`POST /predict`, `POST /mine`) run on a handler pool fed through a bounded
//! `WorkQueue`; see the `event_loop` module. The pool sizes with the `workers` knob where
//! `0` means "automatic" (available parallelism, capped at 8), resolved through
//! [`surf_ml::parallel::resolve_threads`] — the same semantics as `SurfConfig::threads`.
//!
//! A handler evaluates a `/predict` batch with one direct `Surrogate::predict_batch` call
//! on the model's surrogate, and a `/mine` with `Surf::mine_with`.
//!
//! Shutdown is cooperative: [`ServerHandle::shutdown`] flips an atomic flag, wakes the
//! reactor, closes the job queue and joins every thread — requests in flight are drained,
//! not abandoned mid-write.

use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use serde::{Deserialize, Serialize};
use surf_data::region::Region;
use surf_obs::ObsConfig;

use crate::error::ServeError;
use crate::event_loop::{spawn_event_transport, EventLoopSettings, HandlerJob};
use crate::obs::{RouteStats, ServeObs};
use crate::queue::WorkQueue;
use crate::registry::{ModelRegistry, ServableModel};

/// Configuration of a serving process.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServerConfig {
    /// Address to bind (`127.0.0.1:0` picks an ephemeral port).
    pub addr: String,
    /// Handler threads (`0` = automatic: available parallelism capped at 8, exactly like
    /// `SurfConfig::threads`).
    pub workers: usize,
    /// Largest accepted request body; larger requests are answered with `413`.
    pub max_body_bytes: usize,
    /// Close keep-alive connections idle for longer than this. Also the ceiling a
    /// slowloris client can dribble header bytes without completing a request.
    pub idle_timeout_ms: u64,
    /// Most concurrent connections the event loop holds; accepts beyond it are answered
    /// `503` and dropped.
    pub max_connections: usize,
    /// Most heavy requests (`/predict`, `/mine`) queued for the handler pool; requests
    /// arriving past it are answered `503` with `Retry-After`.
    pub max_pending_requests: usize,
    /// Observability: metrics registry and flight-recorder tracing (see [`crate::obs`]).
    pub obs: ObsConfig,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_string(),
            workers: 0,
            max_body_bytes: 1024 * 1024,
            idle_timeout_ms: 5_000,
            max_connections: 1_024,
            max_pending_requests: 256,
            obs: ObsConfig::default(),
        }
    }
}

/// Per-endpoint counters as served by `/stats` — derived from the
/// [`crate::obs::RouteStats`] instruments, which also feed `/metrics`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct EndpointSnapshot {
    /// Requests handled.
    pub requests: u64,
    /// Requests answered with a 4xx/5xx status.
    pub errors: u64,
    /// Total handling latency in microseconds.
    pub total_micros: u64,
    /// Mean handling latency in microseconds.
    pub mean_micros: u64,
}

/// Shared state of a serving process: registry, job queue and instruments.
pub struct ServeContext {
    /// The models being served.
    pub registry: Arc<ModelRegistry>,
    /// Every instrument this server records — the single source `/stats`, `/metrics` and
    /// `/trace` all read from.
    pub obs: ServeObs,
    /// Resolved worker-pool size.
    pub workers: usize,
    /// When the server started.
    pub started: Instant,
    /// The handler-pool job queue — exposed for `/stats` depth reads and admission checks.
    pub(crate) jobs: Arc<WorkQueue<HandlerJob>>,
}

impl ServeContext {
    /// The endpoint counter bucket for a request path.
    pub(crate) fn stats_for(&self, path: &str) -> &RouteStats {
        match path {
            "/predict" => &self.obs.predict,
            "/mine" => &self.obs.mine,
            _ => &self.obs.other,
        }
    }

    /// Evaluates regions against a model's surrogate in one `predict_batch` call, timed
    /// into the `kernel` histogram and the request's trace.
    pub(crate) fn evaluate_regions(
        &self,
        model: &Arc<ServableModel>,
        regions: &[Region],
    ) -> Vec<f64> {
        let timer = self.obs.timer();
        let span = surf_obs::trace::span_timer();
        let values = surf_core::Surrogate::predict_batch(model.engine.surrogate(), regions);
        self.obs.observe(&self.obs.kernel, timer);
        surf_obs::trace::record_span("kernel", span);
        values
    }

    /// Heavy requests currently queued for the handler pool.
    pub fn queue_depth(&self) -> u64 {
        self.jobs.len()
    }
}

/// A running server: join it down with [`ServerHandle::shutdown`].
pub struct ServerHandle {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    threads: Vec<std::thread::JoinHandle<()>>,
    context: Arc<ServeContext>,
    waker: Arc<surf_reactor::Waker>,
}

impl ServerHandle {
    /// The bound address (with the ephemeral port resolved).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared serving state (e.g. to hot-swap a model or read instruments in-process).
    pub fn context(&self) -> &Arc<ServeContext> {
        &self.context
    }

    /// Stops accepting, drains in-flight work and joins every thread (reactor and
    /// handlers).
    pub fn shutdown(self) {
        self.shutdown.store(true, Ordering::SeqCst);
        // Interrupt the reactor's poll so it observes the flag now, not a tick later.
        let _ = self.waker.wake();
        for thread in self.threads {
            let _ = thread.join();
        }
    }
}

/// Binds the configured address and spawns the event-loop transport: the reactor thread
/// plus `workers` handler threads.
///
/// # Errors
///
/// [`ServeError::Io`] when the address cannot be bound, the listener cannot be configured
/// (non-blocking mode, local-address resolution), or the event loop's poller cannot be
/// created.
pub fn serve(
    registry: Arc<ModelRegistry>,
    config: &ServerConfig,
) -> Result<ServerHandle, ServeError> {
    let listener = TcpListener::bind(&config.addr)?;
    listener.set_nonblocking(true)?;
    let addr = listener.local_addr()?;
    let workers = surf_ml::parallel::resolve_threads(config.workers);
    let shutdown = Arc::new(AtomicBool::new(false));
    let context = Arc::new(ServeContext {
        registry,
        obs: ServeObs::new(&config.obs),
        workers,
        started: Instant::now(),
        jobs: Arc::new(WorkQueue::new()),
    });

    let settings = EventLoopSettings {
        workers,
        max_body_bytes: config.max_body_bytes,
        idle_timeout: Duration::from_millis(config.idle_timeout_ms.max(1)),
        max_connections: config.max_connections.max(1),
        max_pending_requests: config.max_pending_requests as u64,
    };
    let (waker, threads) = spawn_event_transport(
        listener,
        Arc::clone(&context),
        Arc::clone(&shutdown),
        settings,
    )?;

    Ok(ServerHandle {
        addr,
        shutdown,
        threads,
        context,
        waker,
    })
}
