//! CI smoke check for the observability surface: starts a server in-process, drives a
//! few requests over real TCP, validates the `/metrics` exposition (format *and* that the
//! breakdown histograms actually recorded), checks `/stats` and `/trace` parse, and
//! prints the `/metrics` body to stdout — so a pipeline can additionally pipe it through
//! `expocheck` for an independent second opinion.
//!
//! Exit status: `0` all checks passed, `1` a check failed (reason on stderr).

use std::process::ExitCode;
use std::sync::Arc;

use surf_obs::expo;
use surf_serve::http::HttpClient;
use surf_serve::{serve, ModelRegistry, ObsConfig, ServerConfig};

fn main() -> ExitCode {
    match run() {
        Ok(metrics_body) => {
            println!("{metrics_body}");
            eprintln!("obs-smoke: OK");
            ExitCode::SUCCESS
        }
        Err(reason) => {
            eprintln!("obs-smoke: FAILED: {reason}");
            ExitCode::FAILURE
        }
    }
}

fn run() -> Result<String, String> {
    let registry = Arc::new(ModelRegistry::new());
    let handle = serve(
        registry,
        &ServerConfig {
            workers: 2,
            obs: ObsConfig {
                trace_sample_every: 1,
                ..ObsConfig::default()
            },
            ..ServerConfig::default()
        },
    )
    .map_err(|e| format!("serve: {e}"))?;
    let addr = handle.addr().to_string();

    let result = drive(&addr);
    handle.shutdown();
    result
}

fn drive(addr: &str) -> Result<String, String> {
    let mut client = HttpClient::connect(addr).map_err(|e| format!("connect: {e}"))?;
    for _ in 0..5 {
        let response = client
            .request("GET", "/healthz", None)
            .map_err(|e| format!("healthz: {e}"))?;
        if response.status != 200 {
            return Err(format!("healthz status {}", response.status));
        }
    }
    // `/healthz` is served inline by the event loop; `POST /predict` goes through the
    // handler pool, so it is what exercises the queue-wait stage. The registry is empty,
    // so the route answers 404 — the breakdown histograms record either way.
    for _ in 0..2 {
        let response = client
            .request("POST", "/predict", Some(r#"{"model":"none"}"#))
            .map_err(|e| format!("predict: {e}"))?;
        if response.status == 200 {
            return Err("predict against an empty registry unexpectedly succeeded".to_string());
        }
    }

    let stats = client
        .request("GET", "/stats", None)
        .map_err(|e| format!("stats: {e}"))?;
    serde_json::from_str::<serde::Value>(&stats.body)
        .map_err(|e| format!("stats body did not parse as JSON: {e}"))?;

    let trace = client
        .request("GET", "/trace", None)
        .map_err(|e| format!("trace: {e}"))?;
    let trace_json = serde_json::from_str::<serde::Value>(&trace.body)
        .map_err(|e| format!("trace body did not parse as JSON: {e}"))?;
    let has_samples = matches!(
        trace_json.get("samples"),
        Some(serde::Value::Array(samples)) if !samples.is_empty()
    );
    if !has_samples {
        return Err("trace returned no samples with sample_every=1".to_string());
    }

    let metrics = client
        .request("GET", "/metrics", None)
        .map_err(|e| format!("metrics: {e}"))?;
    if metrics.header("content-type") != Some("text/plain; version=0.0.4; charset=utf-8") {
        return Err(format!(
            "wrong /metrics content-type: {:?}",
            metrics.header("content-type")
        ));
    }
    expo::validate(&metrics.body)
        .map_err(|violations| format!("invalid exposition: {violations:?}"))?;
    let samples =
        expo::parse(&metrics.body).map_err(|e| format!("exposition did not parse: {e}"))?;
    for required in [
        "surf_serve_recv_parse_nanos_count",
        "surf_serve_queue_wait_nanos_count",
        "surf_serve_write_flush_nanos_count",
    ] {
        let recorded = samples
            .iter()
            .find(|s| s.name == required)
            .map(|s| s.value)
            .unwrap_or(0.0);
        if recorded <= 0.0 {
            return Err(format!("{required} recorded nothing after traffic"));
        }
    }
    Ok(metrics.body)
}
