//! Overhead smoke test: tracing every request must not meaningfully slow the serving hot
//! path against tracing none (metrics record on both servers). The bound is deliberately
//! generous — this is a tripwire for accidental O(request) work in the flight recorder (a
//! lock on the hot path, an allocation storm, a syscall per span), not a micro-benchmark;
//! CI boxes are noisy.

use std::sync::Arc;
use std::time::{Duration, Instant};

use surf_serve::http::HttpClient;
use surf_serve::{serve, ModelRegistry, ObsConfig, ServerConfig, ServerHandle};

fn start(trace_sample_every: u64) -> ServerHandle {
    let registry = Arc::new(ModelRegistry::new());
    serve(
        registry,
        &ServerConfig {
            workers: 2,
            obs: ObsConfig {
                trace_sample_every,
                ..ObsConfig::default()
            },
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

    // Worst case: every request assembles a trace.
    let traced = start(1);
    let traced_time = best_time(&traced.addr().to_string(), n, rounds);
    traced.shutdown();

    let untraced = start(0);
    let untraced_time = best_time(&untraced.addr().to_string(), n, rounds);
    untraced.shutdown();

    // Generous: 3x plus a 30ms absolute floor so sub-millisecond baselines (everything is
    // loopback) don't turn scheduler noise into failures.
    let budget = untraced_time * 3 + Duration::from_millis(30);
    assert!(
        traced_time <= budget,
        "traced {n} requests took {traced_time:?}, budget {budget:?} \
         (untraced baseline {untraced_time:?})"
    );
}
