//! Serving walk-through: train → save → load → serve → query.
//!
//! ```bash
//! cargo run --release --example serve
//! ```
//!
//! The example trains a surrogate on a synthetic dataset, persists it as a versioned JSON
//! artifact (`ModelArtifact::save_json`), reloads it exactly as a fresh serving process
//! would (`ModelArtifact::load_json`), registers it into a `ModelRegistry` and serves it on
//! an ephemeral port with the worker-pool HTTP API. It then queries `/predict` twice (both
//! answers carry the bits of the in-process prediction), mines regions over HTTP via
//! `/mine`, and prints the per-route request counters of `/metrics` before shutting the
//! server down.

use std::sync::Arc;

use surf::prelude::*;
use surf::serve::http::http_request;
use surf::serve::routes::{PredictRequest, PredictResponse, RegionSpec};

fn main() {
    // 1. Train a surrogate on a synthetic dataset with one planted dense region.
    let spec = SyntheticSpec::density(2, 1)
        .with_points(6_000)
        .with_points_per_region(1_500)
        .with_seed(42);
    let synthetic = SyntheticDataset::generate(&spec);
    let config = SurfConfig::builder()
        .statistic(Statistic::Count)
        .threshold(Threshold::above(800.0))
        .training_queries(1_200)
        .gbrt(GbrtParams::quick())
        .gso(GsoParams::quick().with_seed(42))
        .kde_sample(500)
        .seed(42)
        .build();
    let engine = Surf::fit(&synthetic.dataset, &config).expect("training succeeds");
    println!(
        "trained surrogate: {} workload queries, holdout RMSE {:.2}",
        engine.workload_size(),
        engine.training_report().holdout_rmse
    );

    // 2. Persist the fitted engine as a versioned artifact and reload it — this is exactly
    //    what a separate serving process would do, and predictions are bit-identical.
    let path = std::env::temp_dir().join("surf_serve_example.json");
    ModelArtifact::from_engine("hotspots", &engine)
        .save_json(&path)
        .expect("artifact saves");
    let artifact = ModelArtifact::load_json(&path).expect("artifact loads");
    std::fs::remove_file(&path).ok();
    println!(
        "artifact round trip: schema v{}, model `{}`, {} training examples",
        artifact.schema_version, artifact.name, artifact.metadata.workload_size
    );

    // 3. Register the model and serve it on an ephemeral port.
    let registry = Arc::new(ModelRegistry::new());
    registry.register(artifact).expect("model registers");
    let handle = surf::serve::serve(
        registry,
        &ServerConfig {
            workers: 4,
            ..ServerConfig::default()
        },
    )
    .expect("server starts");
    let addr = handle.addr().to_string();
    println!("serving on http://{addr} with 4 workers");

    // 4. Query /predict twice: both answers are the in-process prediction, bit for bit.
    let region = Region::new(vec![0.5, 0.5], vec![0.1, 0.1]).expect("valid region");
    let body = serde_json::to_string(&PredictRequest {
        model: "hotspots".to_string(),
        region: Some(RegionSpec::from_region(&region)),
        regions: None,
    })
    .unwrap();
    let local = engine.surrogate().predict(&region);
    for round in 1..=2 {
        let (status, response) =
            http_request(&addr, "POST", "/predict", Some(&body)).expect("predict succeeds");
        let served: PredictResponse = serde_json::from_str(&response).expect("reply parses");
        println!(
            "predict round {round}: HTTP {status} {response} (same bits as in-process: {})",
            served.predictions[0].to_bits() == local.to_bits()
        );
    }

    // 5. Mine regions over HTTP — no data access happens anywhere in the serving path.
    let (status, response) = http_request(
        &addr,
        "POST",
        "/mine",
        Some("{\"model\": \"hotspots\", \"top\": 3}"),
    )
    .expect("mine succeeds");
    println!("mine: HTTP {status}, {} bytes of outcome", response.len());

    // 6. Inspect the per-route request counters and shut down cleanly.
    let (_, metrics) = http_request(&addr, "GET", "/metrics", None).expect("metrics succeed");
    for line in metrics
        .lines()
        .filter(|line| line.starts_with("surf_serve_requests_total"))
    {
        println!("metrics: {line}");
    }
    handle.shutdown();
    println!("server drained and shut down");
}
