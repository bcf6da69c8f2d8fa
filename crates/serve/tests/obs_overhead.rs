//! Overhead smoke test: full instrumentation (metrics + per-request tracing) must not
//! meaningfully slow the serving hot path. The bound is deliberately generous — this is a
//! tripwire for accidental O(request) work (a lock on the hot path, an allocation storm,
//! a syscall per counter), not a micro-benchmark; CI boxes are noisy.

use std::sync::Arc;
use std::time::{Duration, Instant};

use surf_serve::http::HttpClient;
use surf_serve::{serve, ModelRegistry, ObsConfig, ServerConfig, ServerHandle};

fn start(obs: ObsConfig) -> ServerHandle {
    let registry = Arc::new(ModelRegistry::new());
    serve(
        registry,
        &ServerConfig {
            workers: 2,
            obs,
            ..ServerConfig::default()
        },
    )
    .unwrap()
}

/// Best-of-`rounds` time for `n` keep-alive `/healthz` requests (the cheapest route, so
/// instrumentation overhead is the largest fraction of the work it will ever be).
fn best_time(addr: &str, n: usize, rounds: usize) -> Duration {
    let mut best = Duration::MAX;
    for _ in 0..rounds {
        let mut client = HttpClient::connect(addr).unwrap();
        let started = Instant::now();
        for _ in 0..n {
            let response = client.request("GET", "/healthz", None).unwrap();
            assert_eq!(response.status, 200);
        }
        best = best.min(started.elapsed());
    }
    best
}

#[test]
fn full_instrumentation_stays_within_overhead_budget() {
    let n = 300;
    let rounds = 3;

    let instrumented = start(ObsConfig {
        trace_sample_every: 1, // worst case: every request assembles a trace
        ..ObsConfig::default()
    });
    let instrumented_time = best_time(&instrumented.addr().to_string(), n, rounds);
    instrumented.shutdown();

    let disabled = start(ObsConfig::disabled());
    let disabled_time = best_time(&disabled.addr().to_string(), n, rounds);
    disabled.shutdown();

    // Generous: 3x plus a 30ms absolute floor so sub-millisecond baselines (everything is
    // loopback) don't turn scheduler noise into failures.
    let budget = disabled_time * 3 + Duration::from_millis(30);
    assert!(
        instrumented_time <= budget,
        "instrumented {n} requests took {instrumented_time:?}, budget {budget:?} \
         (uninstrumented baseline {disabled_time:?})"
    );
}
