//! End-to-end tests of the observability surface over real TCP: `/metrics` serves valid
//! Prometheus text whose breakdown histograms were actually recorded by the transport and
//! whose route and connection counters match the traffic exactly, the flight recorder
//! serves traces on `/trace`, and a served `/mine` reaches the process-global mining
//! instruments.

use std::sync::Arc;

use serde::Value;
use surf_core::objective::Threshold;
use surf_core::{Surf, SurfConfig};
use surf_data::region::Region;
use surf_data::statistic::Statistic;
use surf_data::synthetic::{SyntheticDataset, SyntheticSpec};
use surf_obs::expo;
use surf_optim::gso::GsoParams;
use surf_serve::http::HttpClient;
use surf_serve::routes::{MineResponse, PredictRequest, RegionSpec};
use surf_serve::{serve, ModelArtifact, ModelRegistry, ObsConfig, ServerConfig, ServerHandle};

fn quick_engine(seed: u64) -> Surf {
    let synthetic = SyntheticDataset::generate(
        &SyntheticSpec::density(2, 1)
            .with_points(1_500)
            .with_seed(seed),
    );
    let config = SurfConfig::builder()
        .statistic(Statistic::Count)
        .threshold(Threshold::above(200.0))
        .training_queries(300)
        .gbrt(surf_ml::gbrt::GbrtParams::quick().with_n_estimators(10))
        .gso(GsoParams::quick().with_iterations(25))
        .kde_sample(96)
        .seed(seed)
        .build();
    Surf::fit(&synthetic.dataset, &config).unwrap()
}

fn start(engine: &Surf, config: ServerConfig) -> ServerHandle {
    let registry = Arc::new(ModelRegistry::new());
    registry
        .register(ModelArtifact::from_engine("m", engine))
        .unwrap();
    serve(registry, &config).unwrap()
}

/// Trace sampling pinned to every request so the flight recorder's contents are
/// deterministic.
fn obs_config() -> ServerConfig {
    ServerConfig {
        workers: 2,
        obs: ObsConfig {
            trace_sample_every: 1,
            ..ObsConfig::default()
        },
        ..ServerConfig::default()
    }
}

fn predict_body(regions: &[Region]) -> String {
    serde_json::to_string(&PredictRequest {
        model: "m".to_string(),
        region: None,
        regions: Some(regions.iter().map(RegionSpec::from_region).collect()),
    })
    .unwrap()
}

fn probe_regions(offset: usize, count: usize) -> Vec<Region> {
    (0..count)
        .map(|i| {
            let t = (offset + i) as f64 * 0.31;
            Region::new(
                vec![
                    0.15 + 0.7 * (t.sin() * 0.5 + 0.5),
                    0.2 + 0.6 * (t.cos() * 0.5 + 0.5),
                ],
                vec![0.05 + 0.02 * ((i % 3) as f64), 0.07],
            )
            .unwrap()
        })
        .collect()
}

/// Drives two `/predict` and two `/healthz` requests over one keep-alive connection, then
/// returns the parsed samples of a `/metrics` scrape on the same connection.
fn drive_and_scrape(addr: &str) -> Vec<expo::Sample> {
    let mut client = HttpClient::connect(addr).unwrap();
    let regions = probe_regions(0, 3);
    for i in 0..4 {
        let response = if i % 2 == 0 {
            client
                .request("POST", "/predict", Some(&predict_body(&regions)))
                .unwrap()
        } else {
            client.request("GET", "/healthz", None).unwrap()
        };
        assert_eq!(response.status, 200, "request {i}: {}", response.body);
    }
    let metrics = client.request("GET", "/metrics", None).unwrap();
    assert_eq!(metrics.status, 200);
    assert_eq!(
        metrics.header("content-type"),
        Some("text/plain; version=0.0.4; charset=utf-8")
    );
    expo::validate(&metrics.body)
        .unwrap_or_else(|violations| panic!("invalid exposition: {violations:?}"));
    expo::parse(&metrics.body).unwrap()
}

fn value(samples: &[expo::Sample], name: &str) -> f64 {
    samples
        .iter()
        .find(|s| s.name == name && s.labels.is_empty())
        .unwrap_or_else(|| panic!("sample `{name}` missing"))
        .value
}

fn labeled(samples: &[expo::Sample], name: &str, key: &str, label: &str) -> f64 {
    samples
        .iter()
        .find(|s| s.name == name && s.label(key) == Some(label))
        .unwrap_or_else(|| panic!("sample `{name}{{{key}=\"{label}\"}}` missing"))
        .value
}

#[test]
fn event_loop_metrics_record_breakdown_and_count_the_traffic() {
    let engine = quick_engine(41);
    let handle = start(&engine, obs_config());
    let addr = handle.addr().to_string();

    let samples = drive_and_scrape(&addr);

    // The breakdown histograms were actually recorded by the transport, per stage.
    for stage in [
        "surf_serve_recv_parse_nanos_count",
        "surf_serve_queue_wait_nanos_count",
        "surf_serve_write_flush_nanos_count",
    ] {
        assert!(
            value(&samples, stage) > 0.0,
            "{stage} must have observations after traffic"
        );
    }
    // One unlabelled kernel series carries every `/predict` evaluation.
    let kernel_series: Vec<_> = samples
        .iter()
        .filter(|s| s.name == "surf_serve_kernel_nanos_count")
        .collect();
    assert_eq!(
        kernel_series.len(),
        1,
        "one kernel series: {kernel_series:?}"
    );
    assert!(kernel_series[0].labels.is_empty(), "{kernel_series:?}");
    assert!(
        kernel_series[0].value > 0.0,
        "surf_serve_kernel_nanos_count must have observations"
    );

    // This server saw only the requests above, and a route is counted before its
    // response is sent, so the route counters are exact. `/metrics` itself lands in the
    // `other` family only after it renders.
    assert_eq!(
        labeled(&samples, "surf_serve_requests_total", "route", "/predict"),
        2.0
    );
    assert_eq!(
        labeled(&samples, "surf_serve_errors_total", "route", "/predict"),
        0.0
    );
    assert_eq!(
        labeled(&samples, "surf_serve_requests_total", "route", "other"),
        2.0
    );
    // Every request after the first on the connection is a reuse, the scrape included
    // (counted at parse, before it renders).
    assert_eq!(value(&samples, "surf_serve_keepalive_reuses_total"), 4.0);
    assert_eq!(value(&samples, "surf_serve_workers"), 2.0);
    // The process-global training spans ride along in the same exposition (the engine
    // above was trained in this process).
    assert!(
        value(&samples, "surf_ml_round_fit_nanos_count") > 0.0,
        "training rounds must have recorded into the global registry"
    );

    handle.shutdown();
}

/// A served `/mine` shows up in the process-global mining instruments: the margined GSO
/// pass and the density-weight slots of every iteration it ran. Other tests in this binary
/// may mine concurrently, so the assertions are lower bounds.
#[test]
fn mine_records_gso_passes_and_density_weights() {
    let engine = quick_engine(61);
    let handle = start(&engine, obs_config());
    let addr = handle.addr().to_string();

    let mut client = HttpClient::connect(&addr).unwrap();
    let response = client
        .request("POST", "/mine", Some("{\"model\": \"m\"}"))
        .unwrap();
    assert_eq!(response.status, 200, "{}", response.body);
    let mined: MineResponse = serde_json::from_str(&response.body).unwrap();
    let metrics = client.request("GET", "/metrics", None).unwrap();
    expo::validate(&metrics.body)
        .unwrap_or_else(|violations| panic!("invalid exposition: {violations:?}"));
    let samples = expo::parse(&metrics.body).unwrap();

    assert!(labeled(&samples, "surf_core_mine_runs_total", "pass", "margined") >= 1.0);
    // Pre-registered: present whether or not any fallback ran.
    labeled(&samples, "surf_core_mine_runs_total", "pass", "raw");
    let slots: f64 = ["computed", "reused", "unread"]
        .into_iter()
        .map(|outcome| {
            labeled(
                &samples,
                "surf_optim_density_weights_total",
                "outcome",
                outcome,
            )
        })
        .sum();
    let glowworms = engine.config().gso.glowworms;
    assert!(
        slots >= (glowworms * mined.outcome.iterations_run) as f64,
        "{slots} density-weight slots for {} iterations",
        mined.outcome.iterations_run
    );
    if labeled(
        &samples,
        "surf_optim_density_weights_total",
        "outcome",
        "computed",
    ) > 0.0
    {
        assert!(value(&samples, "surf_optim_density_weights_nanos_count") > 0.0);
    }

    handle.shutdown();
}

#[test]
fn trace_endpoint_serves_sampled_spans() {
    let engine = quick_engine(43);
    let handle = start(&engine, obs_config());
    let addr = handle.addr().to_string();

    let mut client = HttpClient::connect(&addr).unwrap();
    let regions = probe_regions(5, 2);
    for _ in 0..3 {
        let response = client
            .request("POST", "/predict", Some(&predict_body(&regions)))
            .unwrap();
        assert_eq!(response.status, 200);
    }
    let trace = client.request("GET", "/trace", None).unwrap();
    assert_eq!(trace.status, 200);
    let parsed: Value = serde_json::from_str(&trace.body).unwrap();
    assert_eq!(parsed.get("enabled"), Some(&Value::Bool(true)));
    let Some(Value::Array(samples)) = parsed.get("samples") else {
        panic!("trace body missing `samples` array: {}", trace.body);
    };
    assert!(
        !samples.is_empty(),
        "sample_every=1 must record every request"
    );
    let predict_sample = samples
        .iter()
        .find(|s| s.get("label").and_then(Value::as_str) == Some("POST /predict"))
        .expect("a /predict trace must be recorded");
    let Some(Value::Array(spans)) = predict_sample.get("spans") else {
        panic!("trace sample missing `spans` array: {predict_sample:?}");
    };
    let span_names: Vec<&str> = spans
        .iter()
        .filter_map(|s| s.get("name").and_then(Value::as_str))
        .collect();
    for expected in ["recv_parse", "queue_wait", "kernel", "serialize"] {
        assert!(
            span_names.contains(&expected),
            "span `{expected}` missing from {span_names:?}"
        );
    }
    handle.shutdown();
}

/// A server that samples no request still records every instrument: the route counters
/// and the latency-breakdown histograms move, while `/trace` reports sampling off and
/// holds nothing.
#[test]
fn unsampled_server_still_records_metrics_and_serves_an_empty_trace() {
    let engine = quick_engine(53);
    let mut config = obs_config();
    config.obs.trace_sample_every = 0;
    let handle = start(&engine, config);
    let addr = handle.addr().to_string();

    let mut client = HttpClient::connect(&addr).unwrap();
    let regions = probe_regions(2, 2);
    let response = client
        .request("POST", "/predict", Some(&predict_body(&regions)))
        .unwrap();
    assert_eq!(response.status, 200);

    let metrics = client.request("GET", "/metrics", None).unwrap();
    expo::validate(&metrics.body)
        .unwrap_or_else(|violations| panic!("invalid exposition: {violations:?}"));
    let samples = expo::parse(&metrics.body).unwrap();
    assert_eq!(
        labeled(&samples, "surf_serve_requests_total", "route", "/predict"),
        1.0
    );
    for stage in [
        "surf_serve_recv_parse_nanos_count",
        "surf_serve_queue_wait_nanos_count",
        "surf_serve_kernel_nanos_count",
        "surf_serve_write_flush_nanos_count",
    ] {
        assert!(value(&samples, stage) > 0.0, "{stage} recorded nothing");
    }

    let trace = client.request("GET", "/trace", None).unwrap();
    let parsed: Value = serde_json::from_str(&trace.body).unwrap();
    assert_eq!(parsed.get("enabled"), Some(&Value::Bool(false)));
    assert_eq!(parsed.get("sample_every").and_then(Value::as_u64), Some(0));
    match parsed.get("samples") {
        Some(Value::Array(samples)) => assert!(samples.is_empty()),
        other => panic!("trace body missing `samples` array: {other:?}"),
    }
    handle.shutdown();
}
