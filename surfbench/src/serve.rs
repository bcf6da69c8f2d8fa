//! The serving phases, open loop over TCP against an in-process `surf-serve` with the
//! default `ServerConfig` serving the workload's paper-default engine:
//!
//! * predict-only: a seeded stream of `/predict` requests stepped through a fixed ladder
//!   of offered rates that includes the reference rate;
//! * mixed: the same kind of stream at the reference rate plus `/mine` at a fixed low rate.
//!
//! Sampled `/predict` replies must equal in-process `predict_batch` bit for bit, and every
//! `/mine` reply must equal `Surf::mine_with` at its threshold.

use std::sync::Arc;
use std::time::{Duration, Instant};

use surf_core::finder::MiningOutcome;
use surf_core::objective::Threshold;
use surf_core::{Surf, Surrogate};
use surf_obs::expo;
use surf_serve::http::HttpClient;
use surf_serve::routes::{MineResponse, PredictRequest, PredictResponse};
use surf_serve::{serve, ModelArtifact, ModelRegistry, ServerConfig, ServerHandle};

use crate::inputs::{self, PredictCall};
use crate::loadgen::{self, Arrival, Limits, Outcome, Route, RouteTally};
use crate::stats::{self, Cumulative};

/// `/predict` rate of the reference rung, per second.
pub const REFERENCE_RATE: f64 = 2_000.0;
/// The predict-only ladder of offered rates, ascending, starting at the reference rate.
pub const LADDER: [f64; 3] = [REFERENCE_RATE, 4_000.0, 6_000.0];
/// `/predict` rate of the mixed phase, per second. Lower than the reference rate: while
/// a `/mine` holds both cores, the server answers fewer `/predict` per second than the
/// reference rate offers, and the backlog that builds each interval would make the
/// phase measure its own queue rather than the blocking.
pub const MIXED_RATE: f64 = 500.0;
/// Share of the predict-only phase spent at the reference rate; the other rungs split
/// the rest evenly.
const REFERENCE_SHARE: f64 = 2.0 / 3.0;
/// Latency percentiles at the reference rate are taken per window of this many seconds
/// (1,000 requests, so a p99 has ten samples beyond it) and reported as the median
/// across windows.
pub const REFERENCE_WINDOW_S: f64 = 0.5;
/// How often `/mine` requests arrive in the mixed phase on a `d`-dimensional engine; the
/// mixed phase's percentiles are taken per interval, each holding one `/mine`. A served d=4
/// call takes 3–4 s next to the `/predict` stream, over three times a d=2 call, so its
/// interval is longer: the calls must not overlap, or the phase would measure their queue.
pub fn mine_interval(d: usize) -> Duration {
    Duration::from_secs(if d <= 2 { 3 } else { 6 })
}

/// A rung meets the ROADMAP SLO when its p99 stays within this bound...
pub const SLO_P99_MS: f64 = 10.0;
/// ...under this share of failed or unsent requests...
pub const MAX_FAILED_SHARE: f64 = 0.01;
/// ...with the achieved rate at least this share of the offered one (no growing backlog).
pub const MIN_ACHIEVED_SHARE: f64 = 0.9;
/// A rung whose generator sent later than this at p99 measured the generator, not the
/// server: it is marked invalid and cannot count as meeting the SLO.
pub const LATENESS_P99_BOUND_MS: f64 = 2.0;
/// Every `CHECK_EVERY`-th `/predict` reply is compared with in-process inference.
const CHECK_EVERY: usize = 8;

/// Server-side histograms read from `/metrics`, by stage.
pub const STAGES: [(&str, &str); 5] = [
    ("recv_parse", "surf_serve_recv_parse_nanos"),
    ("queue_wait", "surf_serve_queue_wait_nanos"),
    ("batch_wait", "surf_serve_batch_wait_nanos"),
    ("kernel", "surf_serve_kernel_nanos"),
    ("write_flush", "surf_serve_write_flush_nanos"),
];

/// Starts the default server with the engine registered as [`inputs::MODEL`].
pub fn start(engine: &Surf) -> ServerHandle {
    let registry = Arc::new(ModelRegistry::new());
    registry
        .register(ModelArtifact::from_engine(inputs::MODEL, engine))
        .expect("the fitted engine registers");
    serve(registry, &ServerConfig::default()).expect("the server starts")
}

pub fn client_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn limits() -> Limits {
    Limits {
        give_up: Duration::from_secs(1),
        drain: Duration::from_secs(20),
        max_connections: 64,
    }
}

/// Sends `calls` at `rate` and waits for every reply; used to warm the server up.
pub fn warm_up(addr: &str, calls: &[PredictCall], rate: f64) {
    let duration = Duration::from_secs_f64(calls.len() as f64 / rate);
    let arrivals = loadgen::merge(&[(
        Route::Predict,
        loadgen::open_loop(rate, duration, Duration::ZERO),
    )]);
    loadgen::run(
        addr,
        &arrivals,
        client_threads(),
        limits(),
        &|a: &Arrival| calls[a.request % calls.len()].bytes.as_slice(),
        &|_| false,
    );
}

/// One rung of offered load, accounted per route.
pub struct Rung {
    pub offered: f64,
    pub seconds: f64,
    pub predict: RouteTally,
    pub mine: RouteTally,
    /// `/predict` requests of this rung: (index into the call stream, outcome) for the
    /// replies kept for checking.
    pub checked: Vec<(usize, Outcome)>,
    /// `/mine` replies: (threshold, outcome).
    pub mined: Vec<(f64, Outcome)>,
    /// Server histograms and counters over the rung, when scraped.
    pub server: Option<ServerDelta>,
    /// The invalid first attempt this rung replaced.
    pub retried: Option<Box<Rung>>,
}

impl Rung {
    /// `/predict` replies per second over the rung.
    pub fn achieved(&self) -> f64 {
        self.predict.achieved()
    }

    pub fn lateness_p99_ms(&self) -> f64 {
        let mut all = self.predict.lateness_ms.clone();
        all.extend(&self.mine.lateness_ms);
        stats::percentile(&all, 0.99).map_or(0.0, |s| s.value)
    }

    pub fn valid(&self) -> bool {
        self.lateness_p99_ms() <= LATENESS_P99_BOUND_MS
    }

    pub fn p99_ms(&self) -> Option<f64> {
        stats::percentile(&self.predict.latencies_ms(), 0.99).map(|s| s.value)
    }

    /// Meets the SLO, the failure bound and the no-backlog bound, on a valid rung.
    pub fn meets(&self) -> bool {
        let scheduled = self.predict.scheduled.max(1) as f64;
        self.valid()
            && self.p99_ms().is_some_and(|p99| p99 <= SLO_P99_MS)
            && (self.predict.bad() as f64) <= MAX_FAILED_SHARE * scheduled
            && self.achieved() >= MIN_ACHIEVED_SHARE * self.offered
    }

    /// One line of load-generator health and latency for the report.
    pub fn describe(&self, label: &str) -> String {
        let mut line = format!(
            "{label} offered={:.0}/s achieved={:.1}/s {} {}",
            self.offered,
            self.achieved(),
            if self.valid() { "valid" } else { "INVALID" },
            if self.meets() {
                "meets-slo"
            } else {
                "misses-slo"
            }
        );
        for (route, tally) in [(Route::Predict, &self.predict), (Route::Mine, &self.mine)] {
            if tally.scheduled == 0 {
                continue;
            }
            let q = |v: &[f64], p: f64| stats::percentile(v, p).map_or(f64::NAN, |s| s.value);
            line.push_str(&format!(
                " | {}: sent={} ok={} failed={} unsent={} late_p50={:.3}ms late_p99={:.3}ms lat_p50={:.3}ms lat_p99={:.3}ms n={}",
                route.label(),
                tally.sent,
                tally.succeeded,
                tally.failed,
                tally.unsent,
                q(&tally.lateness_ms, 0.5),
                q(&tally.lateness_ms, 0.99),
                q(&tally.latencies_ms(), 0.5),
                q(&tally.latencies_ms(), 0.99),
                tally.latencies.len()
            ));
        }
        line
    }
}

/// What `/metrics` recorded over a rung.
#[derive(Default)]
pub struct ServerDelta {
    pub stages: Vec<(&'static str, Cumulative)>,
    pub cache_hits: f64,
    pub cache_misses: f64,
    pub fused_rows: f64,
    pub fused_batches: f64,
    pub admission_rejects: f64,
}

struct Scrape(Vec<expo::Sample>);

fn scrape(addr: &str) -> Scrape {
    let body = HttpClient::connect(addr)
        .and_then(|mut client| client.request("GET", "/metrics", None))
        .map(|response| response.body)
        .unwrap_or_default();
    Scrape(expo::parse(&body).unwrap_or_default())
}

fn delta(before: &Scrape, after: &Scrape) -> ServerDelta {
    let value =
        |name: &str| stats::scrape_value(&after.0, name) - stats::scrape_value(&before.0, name);
    ServerDelta {
        stages: STAGES
            .iter()
            .map(|&(stage, name)| {
                let a = stats::scrape_histogram(&after.0, name);
                (stage, a.delta(&stats::scrape_histogram(&before.0, name)))
            })
            .collect(),
        cache_hits: value("surf_serve_cache_hits_total"),
        cache_misses: value("surf_serve_cache_misses_total"),
        fused_rows: value("surf_serve_coalesce_fused_rows_total"),
        fused_batches: value("surf_serve_coalesce_fused_batches_total"),
        admission_rejects: value("surf_serve_admission_rejects_total"),
    }
}

/// Runs one rung: `/predict` at `rate` from the calls starting at `first_call`, plus
/// `/mine` at `thresholds` spaced `interval` apart when given.
#[allow(clippy::too_many_arguments)]
fn rung(
    addr: &str,
    calls: &[PredictCall],
    first_call: usize,
    rate: f64,
    seconds: f64,
    thresholds: &[f64],
    interval: Duration,
    scrape_server: bool,
) -> (Rung, usize) {
    let duration = Duration::from_secs_f64(seconds);
    let predict_dues = loadgen::open_loop(rate, duration, Duration::ZERO);
    let mine_bytes: Vec<Vec<u8>> = thresholds.iter().map(|&t| inputs::mine_call(t)).collect();
    let mine_dues: Vec<Duration> = (0..thresholds.len())
        .map(|i| interval * i as u32 + interval / 4)
        .filter(|&due| due < duration)
        .collect();
    let used = predict_dues.len();
    let arrivals = loadgen::merge(&[(Route::Predict, predict_dues), (Route::Mine, mine_dues)]);
    let call = |a: &Arrival| &calls[(first_call + a.request) % calls.len()];
    let before = scrape_server.then(|| scrape(addr));
    let outcomes = loadgen::run(
        addr,
        &arrivals,
        client_threads(),
        limits(),
        &|a| match a.route {
            Route::Predict => call(a).bytes.as_slice(),
            Route::Mine => mine_bytes[a.request].as_slice(),
        },
        &|a| a.route == Route::Mine || a.request % CHECK_EVERY == 0,
    );
    let server = before.map(|before| delta(&before, &scrape(addr)));
    let mut result = Rung {
        offered: rate,
        seconds,
        predict: RouteTally::default(),
        mine: RouteTally::default(),
        checked: Vec::new(),
        mined: Vec::new(),
        server,
        retried: None,
    };
    for (arrival, outcome) in arrivals.iter().zip(outcomes) {
        match arrival.route {
            Route::Predict => {
                result.predict.add(arrival.due, &outcome);
                if outcome.body.is_some() {
                    result
                        .checked
                        .push(((first_call + arrival.request) % calls.len(), outcome));
                }
            }
            Route::Mine => {
                result.mine.add(arrival.due, &outcome);
                result.mined.push((thresholds[arrival.request], outcome));
            }
        }
    }
    (result, first_call + used)
}

/// The predict-only phase: every rung of the ladder in turn. A rung the generator could
/// not drive on time (invalid) is measured once more, and the second attempt stands. The
/// reference rung's server histograms are scraped when `scrape_reference` is set.
pub fn predict_phase(
    addr: &str,
    calls: &[PredictCall],
    seconds: f64,
    scrape_reference: bool,
) -> Vec<Rung> {
    let mut rungs = Vec::new();
    let mut next_call = 0;
    for rate in LADDER {
        let reference = rate == REFERENCE_RATE;
        let mut attempt = || {
            let (result, next) = rung(
                addr,
                calls,
                next_call,
                rate,
                rung_seconds(rate, seconds),
                &[],
                Duration::ZERO,
                reference && scrape_reference,
            );
            next_call = next;
            result
        };
        let mut result = attempt();
        if !result.valid() {
            let first = result;
            result = attempt();
            result.retried = Some(Box::new(first));
        }
        rungs.push(result);
    }
    rungs
}

/// Seconds of each predict-only rung within a phase of `seconds`.
pub fn rung_seconds(rate: f64, seconds: f64) -> f64 {
    let others = (LADDER.len() - 1) as f64;
    if rate == REFERENCE_RATE {
        seconds * REFERENCE_SHARE
    } else {
        seconds * (1.0 - REFERENCE_SHARE) / others
    }
}

/// The mixed phase: `/predict` at [`MIXED_RATE`] plus `/mine` every `interval`.
pub fn mixed_phase(
    addr: &str,
    calls: &[PredictCall],
    thresholds: &[f64],
    interval: Duration,
    seconds: f64,
    scrape_server: bool,
) -> Rung {
    rung(
        addr,
        calls,
        0,
        MIXED_RATE,
        seconds,
        thresholds,
        interval,
        scrape_server,
    )
    .0
}

/// Number of `/mine` requests the mixed phase sends in `seconds`, one per `interval`.
pub fn mine_requests(seconds: f64, interval: Duration) -> usize {
    let interval = interval.as_secs_f64();
    ((seconds - interval / 4.0) / interval).ceil().max(0.0) as usize
}

/// Compares every kept `/predict` reply with in-process inference on the same regions.
pub fn check_predictions(
    surf: &Surf,
    calls: &[PredictCall],
    rung: &Rung,
    failures: &mut Vec<String>,
) -> u64 {
    let mut bad = 0;
    for (index, outcome) in &rung.checked {
        let Some(body) = &outcome.body else { continue };
        if outcome.failed {
            continue; // already counted as a failed request
        }
        let expected = surf.surrogate().predict_batch(&calls[*index].regions());
        let served = std::str::from_utf8(body)
            .ok()
            .and_then(|text| serde_json::from_str::<PredictResponse>(text).ok());
        let same = served.as_ref().is_some_and(|reply| {
            reply.predictions.len() == expected.len()
                && reply
                    .predictions
                    .iter()
                    .zip(&expected)
                    .all(|(a, b)| a.to_bits() == b.to_bits())
        });
        if !same {
            bad += 1;
            if failures.len() < 20 {
                failures.push(format!(
                    "/predict request {index}: served {:?}, in-process {expected:?}",
                    served.map(|r| r.predictions)
                ));
            }
        }
    }
    bad
}

/// Compares every `/mine` reply with the in-process outcome at its threshold, and checks
/// its regions against the surrogate.
pub fn check_mines(
    surf: &Surf,
    rung: &Rung,
    reference: &mut dyn FnMut(f64) -> MiningOutcome,
    failures: &mut Vec<String>,
) -> u64 {
    let mut bad = 0;
    for (threshold, outcome) in &rung.mined {
        let Some(body) = &outcome.body else { continue };
        if outcome.failed {
            continue;
        }
        let served = std::str::from_utf8(body)
            .ok()
            .and_then(|text| serde_json::from_str::<MineResponse>(text).ok());
        let Some(served) = served else {
            bad += 1;
            failures.push(format!("/mine at {threshold}: unreadable reply"));
            continue;
        };
        let expected = reference(*threshold);
        if !crate::replay::same_outcome(&served.outcome, &expected) {
            bad += 1;
            failures.push(format!(
                "/mine at {threshold}: served outcome differs from Surf::mine_with"
            ));
        } else if let Some(problem) =
            crate::mine::check_regions(surf, Threshold::above(*threshold), &served.outcome)
        {
            bad += 1;
            failures.push(format!("/mine: {problem}"));
        }
    }
    bad
}

/// Times `serde_json` decoding the workload's own request bodies and encoding the replies
/// they get: (mean decode µs, mean encode µs).
pub fn json_costs(surf: &Surf, calls: &[PredictCall]) -> (f64, f64) {
    let (mut decode, mut encode) = (Duration::ZERO, Duration::ZERO);
    for call in calls {
        let body = call.body();
        let began = Instant::now();
        let request: PredictRequest = serde_json::from_str(body).expect("own bodies parse");
        decode += began.elapsed();
        let regions = call.regions();
        let reply = PredictResponse {
            model: request.model,
            statistic: surf.config().statistic,
            predictions: surf.surrogate().predict_batch(&regions),
            cache_hits: 0,
            cache_misses: regions.len(),
        };
        let began = Instant::now();
        std::hint::black_box(serde_json::to_string(&reply).expect("replies serialize"));
        encode += began.elapsed();
    }
    let n = calls.len().max(1) as f64;
    (
        decode.as_secs_f64() * 1e6 / n,
        encode.as_secs_f64() * 1e6 / n,
    )
}
