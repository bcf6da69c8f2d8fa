//! Endpoint dispatch and the JSON request/response DTOs.
//!
//! | Route            | Method | Purpose                                              |
//! |------------------|--------|------------------------------------------------------|
//! | `/predict`       | POST   | Surrogate estimates for one or many regions          |
//! | `/mine`          | POST   | GSO region mining against a registered surrogate     |
//! | `/models`        | GET    | List registered models                               |
//! | `/healthz`       | GET    | Liveness + model count                               |
//! | `/metrics`       | GET    | Prometheus text exposition of the metrics registry   |
//! | `/trace`         | GET    | Flight-recorder samples (recent request traces)      |
//!
//! Every error path returns `{"error": {"code", "message"}}` with the status from
//! [`ServeError::status`] — handlers never panic on user input and never drop the connection
//! without a response. `/metrics` renders every instrument the server records (see
//! [`crate::obs`]).

use serde::{Deserialize, Serialize};
use surf_core::finder::MiningOutcome;
use surf_core::objective::Threshold;
use surf_data::region::Region;
use surf_data::statistic::Statistic;
use surf_obs::TraceSample;

use crate::error::ServeError;
use crate::http::{Request, CONTENT_TYPE_JSON, CONTENT_TYPE_METRICS};
use crate::registry::ModelInfo;
use crate::server::ServeContext;

/// A region in center / half-length form, as accepted on the wire.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RegionSpec {
    /// Center point `x`.
    pub center: Vec<f64>,
    /// Per-dimension half side lengths `l` (strictly positive).
    pub half_lengths: Vec<f64>,
}

impl RegionSpec {
    /// Validates the spec into a [`Region`].
    ///
    /// # Errors
    ///
    /// [`ServeError::BadRequest`] when a center coordinate is non-finite, the vectors
    /// disagree in length, or a half-length is not strictly positive.
    pub fn to_region(&self) -> Result<Region, ServeError> {
        if self.center.iter().any(|c| !c.is_finite()) {
            return Err(ServeError::BadRequest(
                "region center must be finite".into(),
            ));
        }
        Region::new(self.center.clone(), self.half_lengths.clone())
            .map_err(|e| ServeError::BadRequest(format!("invalid region: {e}")))
    }

    /// The wire form of a region.
    pub fn from_region(region: &Region) -> Self {
        Self {
            center: region.center().to_vec(),
            half_lengths: region.half_lengths().to_vec(),
        }
    }
}

/// Body of `POST /predict`: one `region` or a `regions` batch (or both).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PredictRequest {
    /// The registered model to query.
    pub model: String,
    /// A single region to evaluate.
    pub region: Option<RegionSpec>,
    /// A batch of regions to evaluate.
    pub regions: Option<Vec<RegionSpec>>,
}

/// Response of `POST /predict`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PredictResponse {
    /// The model that answered.
    pub model: String,
    /// The statistic the predictions estimate.
    pub statistic: Statistic,
    /// One estimate per requested region, in request order (single `region` first).
    pub predictions: Vec<f64>,
    /// Always 0: the server keeps no prediction cache. Held only because the benchmark in
    /// `surfbench/` builds a `PredictResponse` with it; delete it once that stops.
    pub cache_hits: usize,
    /// The number of regions, every one answered by the surrogate. Held for the same
    /// reason as `cache_hits`.
    pub cache_misses: usize,
}

/// An analyst threshold on the wire.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ThresholdSpec {
    /// The cut-off value `y_R`.
    pub value: f64,
    /// `"above"` or `"below"`.
    pub direction: String,
}

impl ThresholdSpec {
    fn to_threshold(&self) -> Result<Threshold, ServeError> {
        if !self.value.is_finite() {
            return Err(ServeError::BadRequest("threshold must be finite".into()));
        }
        match self.direction.to_ascii_lowercase().as_str() {
            "above" => Ok(Threshold::above(self.value)),
            "below" => Ok(Threshold::below(self.value)),
            other => Err(ServeError::BadRequest(format!(
                "unknown threshold direction `{other}` (use \"above\" or \"below\")"
            ))),
        }
    }
}

/// Body of `POST /mine`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MineRequest {
    /// The registered model to mine against.
    pub model: String,
    /// Threshold override; the model's configured threshold is used when absent.
    pub threshold: Option<ThresholdSpec>,
    /// Keep only the best `top` regions of the outcome; 0 is refused as a bad request.
    pub top: Option<usize>,
}

/// Response of `POST /mine`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MineResponse {
    /// The model that answered.
    pub model: String,
    /// The full mining outcome (regions sorted by descending objective).
    pub outcome: MiningOutcome,
}

/// Response of `GET /models`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ModelsResponse {
    /// Registered models, sorted by name.
    pub models: Vec<ModelInfo>,
}

/// Response of `GET /healthz`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HealthResponse {
    /// Always `"ok"` when the server can answer at all.
    pub status: String,
    /// Number of registered models.
    pub models: usize,
}

/// Response of `GET /trace`: the flight recorder's most recent sampled request traces.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct TraceResponse {
    /// Whether this server samples any request (`sample_every > 0`).
    pub enabled: bool,
    /// One request in this many is sampled (0 = none).
    pub sample_every: u64,
    /// Requests that passed through the sampling decision (sampled or not).
    pub requests_seen: u64,
    /// Recorded traces, newest first.
    pub samples: Vec<TraceSample>,
}

/// A dispatched response: status, body, and the body's `Content-Type` (JSON everywhere
/// except the Prometheus text of `GET /metrics`).
#[derive(Debug, Clone, PartialEq)]
pub struct Reply {
    /// HTTP status code.
    pub status: u16,
    /// Response body.
    pub body: String,
    /// `Content-Type` of the body.
    pub content_type: &'static str,
}

/// Dispatches one request; always returns a complete [`Reply`] (errors become structured
/// JSON bodies, never dropped connections).
pub fn handle_request(context: &ServeContext, request: &Request) -> Reply {
    match route(context, request) {
        Ok(reply) => reply,
        Err(e) => Reply {
            status: e.status(),
            body: e.to_body(),
            content_type: CONTENT_TYPE_JSON,
        },
    }
}

fn json_reply(body: String) -> Reply {
    Reply {
        status: 200,
        body,
        content_type: CONTENT_TYPE_JSON,
    }
}

fn route(context: &ServeContext, request: &Request) -> Result<Reply, ServeError> {
    match (request.method.as_str(), request.path.as_str()) {
        ("POST", "/predict") => predict(context, &request.body).map(json_reply),
        ("POST", "/mine") => mine(context, &request.body).map(json_reply),
        ("GET", "/models") => to_json(&ModelsResponse {
            models: context.registry.list()?,
        })
        .map(json_reply),
        ("GET", "/healthz") => to_json(&HealthResponse {
            status: "ok".to_string(),
            models: context.registry.len()?,
        })
        .map(json_reply),
        ("GET", "/metrics") => Ok(Reply {
            status: 200,
            body: crate::obs::render_metrics(context),
            content_type: CONTENT_TYPE_METRICS,
        }),
        ("GET", "/trace") => {
            let obs = &context.obs;
            let config = obs.config();
            to_json(&TraceResponse {
                enabled: config.trace_sample_every > 0,
                sample_every: config.trace_sample_every,
                requests_seen: obs.recorder().requests_seen(),
                samples: obs.recorder().samples(config.trace_capacity.max(1)),
            })
            .map(json_reply)
        }
        (_, "/predict" | "/mine" | "/models" | "/healthz" | "/metrics" | "/trace") => {
            Err(ServeError::MethodNotAllowed(request.method.clone()))
        }
        (_, path) => Err(ServeError::NotFound(format!("route `{path}`"))),
    }
}

fn predict(context: &ServeContext, body: &str) -> Result<String, ServeError> {
    let request: PredictRequest = serde_json::from_str(body)?;
    let mut specs: Vec<RegionSpec> = Vec::new();
    if let Some(region) = request.region {
        specs.push(region);
    }
    if let Some(regions) = request.regions {
        specs.extend(regions);
    }
    if specs.is_empty() {
        return Err(ServeError::BadRequest(
            "provide `region` or a non-empty `regions` batch".into(),
        ));
    }

    let model = context.registry.get(&request.model)?;
    // Validate every region up front, then answer them all in one `Surrogate::predict_batch`
    // call: a single blocked pass of the model's compiled ensemble, in request order.
    let mut regions = Vec::with_capacity(specs.len());
    for spec in &specs {
        let region = spec.to_region()?;
        if region.dimensions() != model.metadata.dimensions {
            return Err(ServeError::BadRequest(format!(
                "region has {} dimensions but model `{}` expects {}",
                region.dimensions(),
                model.name,
                model.metadata.dimensions
            )));
        }
        regions.push(region);
    }
    let predictions = context.evaluate_regions(&model, &regions);
    to_json(&PredictResponse {
        model: model.name.clone(),
        statistic: model.metadata.statistic,
        cache_hits: 0,
        cache_misses: predictions.len(),
        predictions,
    })
}

fn mine(context: &ServeContext, body: &str) -> Result<String, ServeError> {
    let request: MineRequest = serde_json::from_str(body)?;
    // A whole mining call to return no region: refuse it before it runs.
    if request.top == Some(0) {
        return Err(ServeError::BadRequest("`top` must be at least 1".into()));
    }
    let model = context.registry.get(&request.model)?;
    let threshold = match &request.threshold {
        Some(spec) => spec.to_threshold()?,
        None => model.engine.config().threshold,
    };
    let mut outcome = model.engine.mine_with(threshold);
    if let Some(top) = request.top {
        outcome.regions.truncate(top);
    }
    to_json(&MineResponse {
        model: model.name.clone(),
        outcome,
    })
}

fn to_json<T: serde::Serialize>(value: &T) -> Result<String, ServeError> {
    // When this thread carries a sampled trace, the serialization cost shows up as its
    // own span; untraced requests pay two thread-local reads.
    let span = surf_obs::trace::span_timer();
    let rendered = serde_json::to_string(value).map_err(|e| ServeError::Io(e.to_string()));
    surf_obs::trace::record_span("serialize", span);
    rendered
}
