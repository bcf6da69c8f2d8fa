//! End-to-end tests of the event-loop transport over real TCP: keep-alive reuse,
//! pipelining, slow/partial clients hitting the idle timeout, oversized-body draining,
//! admission control, and bit-identity of responses served to concurrent clients against
//! in-process `predict_batch`.

use std::sync::Arc;
use std::time::Duration;

use surf_core::objective::Threshold;
use surf_core::{Surf, SurfConfig, Surrogate};
use surf_data::region::Region;
use surf_data::statistic::Statistic;
use surf_data::synthetic::{SyntheticDataset, SyntheticSpec};
use surf_obs::expo;
use surf_optim::gso::GsoParams;
use surf_serve::http::HttpClient;
use surf_serve::routes::{PredictRequest, PredictResponse, RegionSpec};
use surf_serve::{serve, ModelArtifact, ModelRegistry, ServerConfig, ServerHandle};

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

/// A server with four handler threads.
fn event_config() -> ServerConfig {
    ServerConfig {
        workers: 4,
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

/// Scrapes `/metrics` over `client`'s connection and returns the value of the sample
/// `name` whose labels are exactly `labels`.
fn scraped(client: &mut HttpClient, name: &str, labels: &[(&str, &str)]) -> u64 {
    let metrics = client.request("GET", "/metrics", None).unwrap();
    assert_eq!(metrics.status, 200);
    expo::parse(&metrics.body)
        .unwrap()
        .iter()
        .find(|s| {
            s.name == name
                && s.labels.len() == labels.len()
                && labels.iter().all(|&(k, v)| s.label(k) == Some(v))
        })
        .unwrap_or_else(|| panic!("sample `{name}{labels:?}` missing"))
        .value as u64
}

#[test]
fn keep_alive_connection_serves_a_request_sequence() {
    let engine = quick_engine(31);
    let handle = start(&engine, event_config());
    let addr = handle.addr().to_string();

    let mut client = HttpClient::connect(&addr).unwrap();
    let regions = probe_regions(0, 2);
    for i in 0..5 {
        let response = if i % 2 == 0 {
            client.request("GET", "/healthz", None).unwrap()
        } else {
            client
                .request("POST", "/predict", Some(&predict_body(&regions)))
                .unwrap()
        };
        assert_eq!(response.status, 200, "request {i}: {}", response.body);
        assert_eq!(response.header("connection"), Some("keep-alive"));
    }

    // The scrape is the sixth request on this connection, counted as a reuse at parse,
    // before it renders; the client's connection is the server's only one.
    assert_eq!(
        scraped(&mut client, "surf_serve_keepalive_reuses_total", &[]),
        5
    );
    assert_eq!(scraped(&mut client, "surf_serve_open_connections", &[]), 1);
    handle.shutdown();
}

#[test]
fn pipelined_requests_are_answered_in_order() {
    let engine = quick_engine(33);
    let handle = start(&engine, event_config());
    let addr = handle.addr().to_string();

    let first = probe_regions(0, 1);
    let second = probe_regions(7, 1);
    let (b1, b2) = (predict_body(&first), predict_body(&second));
    let wire = format!(
        "POST /predict HTTP/1.1\r\nHost: surf\r\nContent-Length: {}\r\n\r\n{b1}\
         POST /predict HTTP/1.1\r\nHost: surf\r\nContent-Length: {}\r\n\r\n{b2}",
        b1.len(),
        b2.len()
    );

    let mut client = HttpClient::connect(&addr).unwrap();
    client.send_raw(wire.as_bytes()).unwrap();
    let r1 = client.read_response().unwrap();
    let r2 = client.read_response().unwrap();
    assert_eq!(
        (r1.status, r2.status),
        (200, 200),
        "{} / {}",
        r1.body,
        r2.body
    );

    let p1: PredictResponse = serde_json::from_str(&r1.body).unwrap();
    let p2: PredictResponse = serde_json::from_str(&r2.body).unwrap();
    assert_eq!(
        p1.predictions[0].to_bits(),
        engine.surrogate().predict(&first[0]).to_bits(),
        "first pipelined response must answer the first request"
    );
    assert_eq!(
        p2.predictions[0].to_bits(),
        engine.surrogate().predict(&second[0]).to_bits(),
        "second pipelined response must answer the second request"
    );
    handle.shutdown();
}

#[test]
fn slowloris_partial_header_is_cut_off_by_the_idle_timeout() {
    let engine = quick_engine(35);
    let mut config = event_config();
    config.idle_timeout_ms = 200;
    let handle = start(&engine, config);
    let addr = handle.addr().to_string();

    let mut client = HttpClient::connect(&addr).unwrap();
    client.send_raw(b"GET /healthz HT").unwrap(); // never completes the header
    let result = client.read_response();
    assert!(
        result.is_err(),
        "a dribbled partial header must be disconnected, got {result:?}"
    );

    // The server is still healthy for well-behaved clients.
    let mut fresh = HttpClient::connect(&addr).unwrap();
    assert_eq!(fresh.request("GET", "/healthz", None).unwrap().status, 200);
    handle.shutdown();
}

#[test]
fn oversized_body_is_drained_and_answered_413() {
    let engine = quick_engine(37);
    let mut config = event_config();
    config.max_body_bytes = 16 * 1024;
    let handle = start(&engine, config);
    let addr = handle.addr().to_string();

    let huge = format!(
        "{{\"model\": \"m\", \"pad\": \"{}\"}}",
        "x".repeat(64 * 1024)
    );
    let mut client = HttpClient::connect(&addr).unwrap();
    client.send("POST", "/predict", Some(&huge)).unwrap();
    let response = client.read_response().unwrap();
    assert_eq!(response.status, 413, "{}", response.body);
    assert!(response.body.contains("payload_too_large"));
    assert_eq!(
        response.header("connection"),
        Some("close"),
        "a 413 closes the connection"
    );
    handle.shutdown();
}

#[test]
fn admission_control_answers_503_with_retry_after() {
    let engine = quick_engine(39);
    let mut config = event_config();
    config.max_pending_requests = 0; // every heavy request is over capacity
    let handle = start(&engine, config);
    let addr = handle.addr().to_string();

    let mut client = HttpClient::connect(&addr).unwrap();
    let response = client
        .request(
            "POST",
            "/predict",
            Some(&predict_body(&probe_regions(0, 1))),
        )
        .unwrap();
    assert_eq!(response.status, 503, "{}", response.body);
    assert!(response.body.contains("overloaded"));
    assert_eq!(response.header("retry-after"), Some("1"));
    assert_eq!(
        response.header("connection"),
        Some("keep-alive"),
        "back-pressure must not cost the client its connection"
    );

    // Cheap routes stay up, on the same connection.
    assert_eq!(client.request("GET", "/healthz", None).unwrap().status, 200);
    assert_eq!(
        scraped(
            &mut client,
            "surf_serve_admission_rejects_total",
            &[("cause", "queue")]
        ),
        1
    );
    handle.shutdown();
}

/// Concurrent clients asking for distinct regions each get exactly the bits an in-process
/// `predict_batch` over their own regions returns.
#[test]
fn concurrent_responses_are_bit_identical_to_in_process_predict_batch() {
    let engine = quick_engine(41);
    let handle = start(&engine, event_config());
    let addr = handle.addr().to_string();

    let served: Vec<(Vec<Region>, Vec<f64>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..6)
            .map(|k| {
                let addr = addr.clone();
                scope.spawn(move || {
                    let regions = probe_regions(k * 10, 3);
                    let mut client = HttpClient::connect(&addr).unwrap();
                    let response = client
                        .request("POST", "/predict", Some(&predict_body(&regions)))
                        .unwrap();
                    assert_eq!(response.status, 200, "{}", response.body);
                    let parsed: PredictResponse = serde_json::from_str(&response.body).unwrap();
                    (regions, parsed.predictions)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    for (regions, predictions) in &served {
        let local = engine.surrogate().predict_batch(regions);
        let served_bits: Vec<u64> = predictions.iter().map(|v| v.to_bits()).collect();
        let local_bits: Vec<u64> = local.iter().map(|v| v.to_bits()).collect();
        assert_eq!(
            served_bits, local_bits,
            "served != in-process predict_batch"
        );
    }
    handle.shutdown();
}

/// Shutdown with idle keep-alive connections open must not hang or panic.
#[test]
fn shutdown_with_open_keepalive_connections_is_clean() {
    let engine = quick_engine(43);
    let handle = start(&engine, event_config());
    let addr = handle.addr().to_string();

    let mut open = HttpClient::connect(&addr).unwrap();
    assert_eq!(open.request("GET", "/healthz", None).unwrap().status, 200);
    // Leave the connection open and idle.
    std::thread::sleep(Duration::from_millis(30));
    handle.shutdown();
}
