//! End-to-end test of the serving subsystem: train → save → load (as a fresh process would)
//! → register → serve on an ephemeral port → query over real TCP.
//!
//! Covers the happy paths (`/predict` single + batch, `/mine`, `/models`, `/healthz`,
//! `/metrics`), the error paths (malformed JSON, unknown model, unknown route, wrong method,
//! oversized body, invalid regions), ≥ 8 concurrent clients receiving correct answers,
//! hot-swapping a model, and regions closer than 1e-9 that each get their own prediction.

use std::sync::Arc;

use surf_core::objective::Threshold;
use surf_core::{Surf, SurfConfig, Surrogate};
use surf_data::region::Region;
use surf_data::statistic::Statistic;
use surf_data::synthetic::{SyntheticDataset, SyntheticSpec};
use surf_obs::expo;
use surf_optim::gso::GsoParams;
use surf_serve::http::http_request;
use surf_serve::routes::{
    HealthResponse, MineResponse, ModelsResponse, PredictRequest, PredictResponse, RegionSpec,
};
use surf_serve::{serve, ModelArtifact, ModelRegistry, ServerConfig, ServerHandle};

fn quick_engine(seed: u64) -> Surf {
    let synthetic = SyntheticDataset::generate(
        &SyntheticSpec::density(2, 1)
            .with_points(2_000)
            .with_points_per_region(800)
            .with_seed(seed),
    );
    let config = SurfConfig::builder()
        .statistic(Statistic::Count)
        .threshold(Threshold::above(300.0))
        .training_queries(400)
        .gbrt(surf_ml::gbrt::GbrtParams::quick().with_n_estimators(12))
        .gso(GsoParams::quick().with_iterations(40))
        .kde_sample(128)
        .seed(seed)
        .build();
    Surf::fit(&synthetic.dataset, &config).unwrap()
}

/// Train, persist to disk, reload (what a fresh serving process would do), serve.
fn start_server() -> (ServerHandle, Surf) {
    let engine = quick_engine(11);
    let path = std::env::temp_dir().join(format!("surf_e2e_artifact_{}.json", std::process::id()));
    ModelArtifact::from_engine("hotspots", &engine)
        .save_json(&path)
        .unwrap();
    let loaded = ModelArtifact::load_json(&path).unwrap();
    std::fs::remove_file(&path).ok();

    let registry = Arc::new(ModelRegistry::new());
    registry.register(loaded).unwrap();
    let config = ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 8,
        max_body_bytes: 64 * 1024,
        ..ServerConfig::default()
    };
    let handle = serve(registry, &config).unwrap();
    (handle, engine)
}

fn post(addr: &str, path: &str, body: &str) -> (u16, String) {
    http_request(addr, "POST", path, Some(body)).unwrap()
}

fn get(addr: &str, path: &str) -> (u16, String) {
    http_request(addr, "GET", path, None).unwrap()
}

fn predict_body(model: &str, regions: &[Region]) -> String {
    let specs: Vec<RegionSpec> = regions.iter().map(RegionSpec::from_region).collect();
    let request = match specs.as_slice() {
        [single] => PredictRequest {
            model: model.to_string(),
            region: Some(single.clone()),
            regions: None,
        },
        many => PredictRequest {
            model: model.to_string(),
            region: None,
            regions: Some(many.to_vec()),
        },
    };
    serde_json::to_string(&request).unwrap()
}

/// Scrapes `/metrics` and returns its parsed samples.
fn scrape(addr: &str) -> Vec<expo::Sample> {
    let (status, body) = get(addr, "/metrics");
    assert_eq!(status, 200);
    expo::parse(&body).unwrap()
}

/// The value of the sample `name` whose labels are exactly `labels`.
fn metric(samples: &[expo::Sample], name: &str, labels: &[(&str, &str)]) -> u64 {
    samples
        .iter()
        .find(|s| {
            s.name == name
                && s.labels.len() == labels.len()
                && labels.iter().all(|&(k, v)| s.label(k) == Some(v))
        })
        .unwrap_or_else(|| panic!("sample `{name}{labels:?}` missing"))
        .value as u64
}

fn route_count(samples: &[expo::Sample], name: &str, route: &str) -> u64 {
    metric(samples, name, &[("route", route)])
}

fn error_code(body: &str) -> String {
    let value = serde_json::parse_value(body).unwrap();
    value
        .get("error")
        .and_then(|e| e.get("code"))
        .and_then(|c| c.as_str())
        .unwrap_or_default()
        .to_string()
}

#[test]
fn end_to_end_serving() {
    let (handle, local_engine) = start_server();
    let addr = handle.addr().to_string();

    // --- health + listings ------------------------------------------------------------
    let (status, body) = get(&addr, "/healthz");
    assert_eq!(status, 200, "healthz: {body}");
    let health: HealthResponse = serde_json::from_str(&body).unwrap();
    assert_eq!((health.status.as_str(), health.models), ("ok", 1));

    let (status, body) = get(&addr, "/models");
    assert_eq!(status, 200);
    let models: ModelsResponse = serde_json::from_str(&body).unwrap();
    assert_eq!(models.models.len(), 1);
    assert_eq!(models.models[0].name, "hotspots");
    assert_eq!(models.models[0].metadata.dimensions, 2);
    assert_eq!(models.models[0].schema_version, surf_serve::SCHEMA_VERSION);

    // --- single predict: bit-identical to the engine that trained the artifact ---------
    let probe = Region::new(vec![0.4, 0.6], vec![0.08, 0.05]).unwrap();
    let (status, body) = post(
        &addr,
        "/predict",
        &predict_body("hotspots", std::slice::from_ref(&probe)),
    );
    assert_eq!(status, 200, "predict: {body}");
    let response: PredictResponse = serde_json::from_str(&body).unwrap();
    assert_eq!(response.predictions.len(), 1);
    assert_eq!(
        response.predictions[0].to_bits(),
        local_engine.surrogate().predict(&probe).to_bits(),
        "served prediction must be bit-identical to the trainer's"
    );
    assert_eq!((response.cache_hits, response.cache_misses), (0, 1));

    // The same query again gets the same bits.
    let (status, body) = post(
        &addr,
        "/predict",
        &predict_body("hotspots", std::slice::from_ref(&probe)),
    );
    assert_eq!(status, 200);
    let response: PredictResponse = serde_json::from_str(&body).unwrap();
    assert_eq!((response.cache_hits, response.cache_misses), (0, 1));
    assert_eq!(
        response.predictions[0].to_bits(),
        local_engine.surrogate().predict(&probe).to_bits()
    );

    // --- batched predict ----------------------------------------------------------------
    let batch: Vec<Region> = (0..5)
        .map(|i| Region::new(vec![0.1 + 0.15 * i as f64, 0.5], vec![0.05, 0.05]).unwrap())
        .collect();
    let (status, body) = post(&addr, "/predict", &predict_body("hotspots", &batch));
    assert_eq!(status, 200);
    let response: PredictResponse = serde_json::from_str(&body).unwrap();
    assert_eq!(response.predictions.len(), 5);
    for (region, served) in batch.iter().zip(&response.predictions) {
        assert_eq!(
            served.to_bits(),
            local_engine.surrogate().predict(region).to_bits()
        );
    }

    // --- batched predict with duplicates: each repeat gets the same bits ----------------
    let fresh = Region::new(vec![0.42, 0.17], vec![0.04, 0.06]).unwrap();
    let duplicates = vec![fresh.clone(), fresh.clone(), fresh.clone()];
    let (status, body) = post(&addr, "/predict", &predict_body("hotspots", &duplicates));
    assert_eq!(status, 200);
    let response: PredictResponse = serde_json::from_str(&body).unwrap();
    assert_eq!((response.cache_hits, response.cache_misses), (0, 3));
    let expected_fresh = local_engine.surrogate().predict(&fresh);
    for served in &response.predictions {
        assert_eq!(served.to_bits(), expected_fresh.to_bits());
    }

    // --- mine: the restored engine mines the exact same regions ------------------------
    let (status, body) = post(
        &addr,
        "/mine",
        "{\"model\": \"hotspots\", \"threshold\": {\"value\": 350.0, \"direction\": \"above\"}}",
    );
    assert_eq!(status, 200, "mine: {body}");
    let mined: MineResponse = serde_json::from_str(&body).unwrap();
    let local = local_engine.mine_with(Threshold::above(350.0));
    assert!(!mined.outcome.regions.is_empty(), "mining found nothing");
    assert_eq!(mined.outcome.regions, local.regions);

    // `top` truncates.
    let (status, body) = post(&addr, "/mine", "{\"model\": \"hotspots\", \"top\": 1}");
    assert_eq!(status, 200);
    let mined: MineResponse = serde_json::from_str(&body).unwrap();
    assert!(mined.outcome.regions.len() <= 1);

    // `top: 0` asks for no region, so it is refused before any GSO pass runs. No other test
    // in this binary mines, so the process-wide pass counters hold still.
    let passes = |samples: &[expo::Sample]| {
        ["margined", "raw"]
            .map(|pass| metric(samples, "surf_core_mine_runs_total", &[("pass", pass)]))
    };
    let before = passes(&scrape(&addr));
    let (status, body) = post(&addr, "/mine", "{\"model\": \"hotspots\", \"top\": 0}");
    assert_eq!(status, 400, "top 0: {body}");
    assert_eq!(error_code(&body), "bad_request");
    assert_eq!(passes(&scrape(&addr)), before, "`top: 0` ran a mining pass");

    // --- concurrent clients: correct answers, counted requests --------------------------
    let before = scrape(&addr);
    let clients = 10u64;
    let requests_per_client = 6u64;
    let expected = local_engine.surrogate().predict(&probe);
    std::thread::scope(|scope| {
        for _ in 0..clients {
            let addr = addr.clone();
            let body = predict_body("hotspots", std::slice::from_ref(&probe));
            scope.spawn(move || {
                for _ in 0..requests_per_client {
                    let (status, response) = post(&addr, "/predict", &body);
                    assert_eq!(status, 200, "concurrent predict failed: {response}");
                    let parsed: PredictResponse = serde_json::from_str(&response).unwrap();
                    assert_eq!(parsed.predictions[0].to_bits(), expected.to_bits());
                }
            });
        }
    });
    let after = scrape(&addr);
    let requests = "surf_serve_requests_total";
    let errors = "surf_serve_errors_total";
    assert_eq!(
        route_count(&after, requests, "/predict") - route_count(&before, requests, "/predict"),
        clients * requests_per_client
    );
    assert_eq!(
        route_count(&after, errors, "/predict"),
        route_count(&before, errors, "/predict")
    );
    assert_eq!(metric(&after, "surf_serve_workers", &[]), 8);

    // --- error paths --------------------------------------------------------------------
    let (status, body) = post(&addr, "/predict", "{not json");
    assert_eq!(status, 400, "malformed JSON: {body}");
    assert_eq!(error_code(&body), "bad_request");

    let (status, body) = post(
        &addr,
        "/predict",
        &predict_body("nope", std::slice::from_ref(&probe)),
    );
    assert_eq!(status, 404);
    assert_eq!(error_code(&body), "not_found");

    for unknown in ["/nonexistent", "/stats"] {
        let (status, body) = get(&addr, unknown);
        assert_eq!(status, 404, "{unknown}: {body}");
        assert_eq!(error_code(&body), "not_found");
    }

    let (status, body) = get(&addr, "/predict");
    assert_eq!(status, 405);
    assert_eq!(error_code(&body), "method_not_allowed");

    // Missing region entirely.
    let (status, body) = post(&addr, "/predict", "{\"model\": \"hotspots\"}");
    assert_eq!(status, 400);
    assert_eq!(error_code(&body), "bad_request");

    // Invalid half length and wrong dimensionality.
    let bad = "{\"model\": \"hotspots\", \"region\": {\"center\": [0.5, 0.5], \"half_lengths\": [0.1, -0.1]}}";
    let (status, body) = post(&addr, "/predict", bad);
    assert_eq!(status, 400, "{body}");
    let bad = "{\"model\": \"hotspots\", \"region\": {\"center\": [0.5], \"half_lengths\": [0.1]}}";
    let (status, _) = post(&addr, "/predict", bad);
    assert_eq!(status, 400);

    // Bad mine direction.
    let (status, body) = post(
        &addr,
        "/mine",
        "{\"model\": \"hotspots\", \"threshold\": {\"value\": 1.0, \"direction\": \"sideways\"}}",
    );
    assert_eq!(status, 400);
    assert_eq!(error_code(&body), "bad_request");

    // Oversized body (the server caps at 64 KiB).
    let huge = format!(
        "{{\"model\": \"hotspots\", \"pad\": \"{}\"}}",
        "x".repeat(80 * 1024)
    );
    let (status, body) = post(&addr, "/predict", &huge);
    assert_eq!(status, 413, "{body}");
    assert_eq!(error_code(&body), "payload_too_large");

    // Errors were counted, and the server still answers.
    let samples = scrape(&addr);
    // Malformed JSON, unknown model, missing region, invalid half, wrong dims, 405: all
    // attributed to the /predict bucket.
    assert!(route_count(&samples, errors, "/predict") >= 5);
    assert!(route_count(&samples, errors, "/mine") >= 1);
    // Unknown routes + oversized body land in the catch-all bucket.
    assert!(route_count(&samples, errors, "other") >= 3);
    let (status, _) = get(&addr, "/healthz");
    assert_eq!(status, 200);

    // --- hot-swap: the new model answers at once ---------------------------------------
    let replacement = quick_engine(97);
    let replaced = handle
        .context()
        .registry
        .register(ModelArtifact::from_engine("hotspots", &replacement))
        .unwrap();
    assert!(replaced.is_some());
    let (status, body) = post(
        &addr,
        "/predict",
        &predict_body("hotspots", std::slice::from_ref(&probe)),
    );
    assert_eq!(status, 200);
    let response: PredictResponse = serde_json::from_str(&body).unwrap();
    assert_eq!(
        response.predictions[0].to_bits(),
        replacement.surrogate().predict(&probe).to_bits(),
        "hot-swapped model must answer with its own predictions"
    );

    handle.shutdown();
}

/// Two regions on either side of one of `engine`'s splits whose bounds differ by less than
/// 1e-9. Bisects along the first centre coordinate between two regions that predict
/// differently, keeping the two predictions apart, until the centres are adjacent floats.
fn pair_straddling_a_split(engine: &Surf) -> (Region, Region) {
    let surrogate = engine.surrogate();
    let at = |x: f64| Region::new(vec![x, 0.5], vec![0.05, 0.05]).unwrap();
    let predict = |x: f64| surrogate.predict(&at(x)).to_bits();
    let (mut lo, mut hi) = (1..100)
        .map(|i| (0.01 * (i - 1) as f64, 0.01 * i as f64))
        .find(|&(a, b)| predict(a) != predict(b))
        .expect("the model's prediction varies along the first centre coordinate");
    loop {
        let mid = 0.5 * (lo + hi);
        if mid <= lo || mid >= hi {
            break;
        }
        if predict(mid) == predict(lo) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    let (a, b) = (at(lo), at(hi));
    let bounds = |r: &Region| [r.lower(), r.upper()].concat();
    for (p, q) in bounds(&a).into_iter().zip(bounds(&b)) {
        assert!(
            (p - q).abs() < 1e-9,
            "bounds {p} and {q} are 1e-9 or more apart"
        );
    }
    assert_ne!(
        surrogate.predict(&a).to_bits(),
        surrogate.predict(&b).to_bits()
    );
    (a, b)
}

/// Regions whose bounds differ by less than 1e-9 but straddle a split each get their own
/// prediction, in one batch and alone: no rounding of bounds stands between a request and
/// `predict_batch`.
#[test]
fn regions_closer_than_1e_9_get_their_own_predictions() {
    let local_engine = quick_engine(11);
    let registry = Arc::new(ModelRegistry::new());
    registry
        .register(ModelArtifact::from_engine("hotspots", &local_engine))
        .unwrap();
    let handle = serve(registry, &ServerConfig::default()).unwrap();
    let addr = handle.addr().to_string();
    let (a, b) = pair_straddling_a_split(&local_engine);

    for regions in [vec![a, b.clone()], vec![b]] {
        let (status, body) = post(&addr, "/predict", &predict_body("hotspots", &regions));
        assert_eq!(status, 200, "predict: {body}");
        let response: PredictResponse = serde_json::from_str(&body).unwrap();
        let served: Vec<u64> = response.predictions.iter().map(|v| v.to_bits()).collect();
        let local: Vec<u64> = local_engine
            .surrogate()
            .predict_batch(&regions)
            .iter()
            .map(|v| v.to_bits())
            .collect();
        assert_eq!(served, local, "served != in-process predict_batch");
    }
    handle.shutdown();
}

/// A second server on another ephemeral port proves instances are isolated and shutdown is
/// clean under an empty registry.
#[test]
fn empty_registry_serves_health_and_404s() {
    let registry = Arc::new(ModelRegistry::new());
    let handle = serve(
        registry,
        &ServerConfig {
            workers: 2,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let addr = handle.addr().to_string();

    let health: HealthResponse = serde_json::from_str(&get(&addr, "/healthz").1).unwrap();
    assert_eq!(health.models, 0);
    let (status, body) = post(
        &addr,
        "/predict",
        "{\"model\": \"ghost\", \"region\": {\"center\": [0.5], \"half_lengths\": [0.1]}}",
    );
    assert_eq!(status, 404);
    assert_eq!(error_code(&body), "not_found");
    handle.shutdown();
}
