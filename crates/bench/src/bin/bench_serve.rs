//! Serving performance trajectory: open-loop load generation against the `surf-serve`
//! event loop answering `POST /predict`.
//!
//! For each connection count ∈ {1, 16, 64, 256} a ladder of target arrival rates is
//! offered; every request's latency is measured from its *scheduled* arrival time (open
//! loop — queueing delay the server causes is charged to the server, avoiding coordinated
//! omission). A rung is **sustained** when the achieved rate reaches 90% of the target
//! with p99 under a production-style 10 ms SLO and an error rate under 1%; a cell's
//! figure is its highest sustained rate.
//!
//! Client design notes: connection slots are multiplexed over at most 32 OS threads
//! (hundreds of client threads would thrash the scheduler and charge client wake-up jitter
//! to the server), request bytes are pre-rendered outside the timed path, and responses
//! are consumed by a minimal status/content-length reader rather than the full header
//! parser — the generator's job is to spend the machine on the *server under test*. Every
//! slot holds its keep-alive socket open across requests.
//!
//! Results go to `BENCH_serve.json` in the working directory, stamped with the host's
//! available parallelism and detected SIMD ISA so numbers from different machines are
//! never compared blind. `--quick` runs a reduced matrix for CI smoke; `--full` runs
//! longer rungs.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

use serde::Serialize;
use surf_bench::report::{percentile, print_table};
use surf_bench::Scale;
use surf_core::objective::Threshold;
use surf_core::{Surf, SurfConfig};
use surf_data::region::Region;
use surf_data::statistic::Statistic;
use surf_data::synthetic::{SyntheticDataset, SyntheticSpec};
use surf_obs::expo;
use surf_serve::http::HttpClient;
use surf_serve::routes::{PredictRequest, RegionSpec};
use surf_serve::{serve, ModelArtifact, ModelRegistry, ServerConfig, ServerHandle};

/// The p99 bar: a rung only counts as sustained when p99 stays inside a 10 ms
/// online-serving SLO.
const P99_CAP_MS: f64 = 10.0;
/// Fraction of the target rate that must be achieved.
const SUSTAIN_FRACTION: f64 = 0.9;
/// Tolerated request error rate per rung.
const MAX_ERROR_FRACTION: f64 = 0.01;
/// Most OS threads the load generator spends; connection slots are striped across them.
const MAX_CLIENT_THREADS: usize = 32;
/// Distinct pre-rendered request payloads cycled through a rung.
const BODY_VARIANTS: usize = 64;

#[derive(Serialize)]
struct Rung {
    connections: usize,
    target_qps: f64,
    achieved_qps: f64,
    completed: u64,
    errors: u64,
    p50_ms: f64,
    p90_ms: f64,
    p99_ms: f64,
    /// Server-side handler-queue wait for this rung only (delta of the
    /// `surf_serve_queue_wait_nanos` histogram scraped from `/metrics` before and after
    /// the rung). `None` when the stage recorded nothing during the rung.
    queue_wait_p50_us: Option<f64>,
    queue_wait_p99_us: Option<f64>,
    sustained: bool,
}

#[derive(Serialize)]
struct SustainedCell {
    connections: usize,
    /// Highest achieved QPS among sustained rungs (0 when none sustained).
    sustained_qps: f64,
}

#[derive(Serialize)]
struct Artifact {
    bench: &'static str,
    unix_time_seconds: u64,
    scale: String,
    /// `std::thread::available_parallelism` of the host the run measured.
    available_parallelism: usize,
    /// The SIMD ISA `surf_simd` detected on that host.
    detected_isa: &'static str,
    p99_cap_ms: f64,
    sustain_fraction: f64,
    rungs: Vec<Rung>,
    sustained: Vec<SustainedCell>,
}

fn quick_engine() -> Surf {
    let synthetic = SyntheticDataset::generate(
        &SyntheticSpec::density(2, 1)
            .with_points(2_000)
            .with_seed(17),
    );
    let config = SurfConfig::builder()
        .statistic(Statistic::Count)
        .threshold(Threshold::above(250.0))
        .training_queries(300)
        .gbrt(surf_ml::gbrt::GbrtParams::quick().with_n_estimators(16))
        .kde_sample(96)
        .seed(17)
        .build();
    Surf::fit(&synthetic.dataset, &config).expect("bench engine must train")
}

fn start_server(engine: &Surf) -> ServerHandle {
    let registry = Arc::new(ModelRegistry::new());
    registry
        .register(ModelArtifact::from_engine("bench", engine))
        .expect("bench model must register");
    let config = ServerConfig {
        // Pinned (not auto-resolved) so runs on different hosts use the identical pool;
        // handler workers mostly park, so this oversubscribes fine.
        workers: 8,
        max_connections: 4_096,
        max_pending_requests: 8_192, // admission off: rungs saturate, not 503
        ..ServerConfig::default()
    };
    serve(registry, &config).expect("bench server must start")
}

/// Pre-renders [`BODY_VARIANTS`] complete `POST /predict` requests (headers + JSON body),
/// deterministically varied so no two consecutive arrivals are byte-identical. Rendering
/// outside the timed path keeps JSON serialization off the load generator's budget.
fn build_requests() -> Vec<Vec<u8>> {
    (0..BODY_VARIANTS)
        .map(|v| {
            let t = v as f64 * 0.137;
            let regions: Vec<Region> = (0..4)
                .map(|j| {
                    let s = t + j as f64 * 0.71;
                    Region::new(
                        vec![
                            0.1 + 0.8 * (s.sin() * 0.5 + 0.5),
                            0.1 + 0.8 * (s.cos() * 0.5 + 0.5),
                        ],
                        vec![0.05, 0.06],
                    )
                    .expect("bench regions are valid by construction")
                })
                .collect();
            let body = serde_json::to_string(&PredictRequest {
                model: "bench".to_string(),
                region: None,
                regions: Some(regions.iter().map(RegionSpec::from_region).collect()),
            })
            .expect("bench body serializes");
            format!(
                "POST /predict HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n{body}",
                body.len(),
            )
            .into_bytes()
        })
        .collect()
}

/// A minimal blocking HTTP client: writes pre-rendered request bytes and consumes exactly
/// one response, parsing only the status code and `Content-Length`. Deliberately leaner
/// than `surf_serve::http::HttpClient` (no header map, no UTF-8 body) so client-side
/// parsing does not eat the machine budget the server is being measured on.
struct LeanClient {
    stream: TcpStream,
    carry: Vec<u8>,
}

impl LeanClient {
    fn connect(addr: &str) -> std::io::Result<LeanClient> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(10)))?;
        stream.set_write_timeout(Some(Duration::from_secs(10)))?;
        Ok(LeanClient {
            stream,
            carry: Vec::new(),
        })
    }

    fn exchange(&mut self, request: &[u8]) -> std::io::Result<u16> {
        self.stream.write_all(request)?;
        let mut buf = std::mem::take(&mut self.carry);
        let header_end = loop {
            if let Some(pos) = find(&buf, b"\r\n\r\n") {
                break pos + 4;
            }
            read_more(&mut self.stream, &mut buf)?;
        };
        let head = &buf[..header_end];
        // "HTTP/1.1 NNN ..." — the three status digits start at byte 9.
        let status: u16 = std::str::from_utf8(&head[9..12])
            .ok()
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::InvalidData, "bad status"))?;
        let content_length = content_length(head)
            .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::InvalidData, "no length"))?;
        let total = header_end + content_length;
        while buf.len() < total {
            read_more(&mut self.stream, &mut buf)?;
        }
        self.carry = buf.split_off(total);
        Ok(status)
    }
}

fn read_more(stream: &mut TcpStream, buf: &mut Vec<u8>) -> std::io::Result<()> {
    let mut chunk = [0u8; 4096];
    let n = stream.read(&mut chunk)?;
    if n == 0 {
        return Err(std::io::Error::new(
            std::io::ErrorKind::UnexpectedEof,
            "connection closed mid-response",
        ));
    }
    buf.extend_from_slice(&chunk[..n]);
    Ok(())
}

fn find(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    haystack
        .windows(needle.len())
        .position(|window| window == needle)
}

fn content_length(head: &[u8]) -> Option<usize> {
    for line in head.split(|&b| b == b'\n') {
        let line = line.strip_suffix(b"\r").unwrap_or(line);
        if line.len() > 15 && line[..15].eq_ignore_ascii_case(b"content-length:") {
            return std::str::from_utf8(&line[15..]).ok()?.trim().parse().ok();
        }
    }
    None
}

/// Offers `target_qps` for `duration`, spread over `connections` client slots striped
/// across at most [`MAX_CLIENT_THREADS`] threads. Open loop: arrival `i` is scheduled at
/// `start + i/target_qps` and its latency is measured from that schedule, so server-side
/// queueing is fully charged. Returns (completed, errors, latencies_ms, elapsed_seconds).
fn run_rung(
    addr: &str,
    connections: usize,
    requests: &[Vec<u8>],
    target_qps: f64,
    duration: Duration,
) -> (u64, u64, Vec<f64>, f64) {
    let threads = connections.min(MAX_CLIENT_THREADS);
    let slots_per_thread = connections.div_ceil(threads);
    let total = (target_qps * duration.as_secs_f64()).max(1.0) as u64;
    let interval = Duration::from_secs_f64(1.0 / target_qps);
    // Past this, a saturated rung stops issuing (unsent arrivals count as errors): the
    // rung has already failed, there is no point waiting out a deep queue.
    let hard_deadline_offset = duration + duration.max(Duration::from_secs(2));
    let errors = Arc::new(AtomicU64::new(0));
    let start = Instant::now() + Duration::from_millis(10);

    let mut latencies: Vec<Vec<f64>> = Vec::new();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|k| {
                let errors = Arc::clone(&errors);
                scope.spawn(move || {
                    let mut slots: Vec<Option<LeanClient>> =
                        (0..slots_per_thread).map(|_| None).collect();
                    let mut observed: Vec<f64> = Vec::new();
                    let mut i = k as u64;
                    while i < total {
                        let scheduled = start + interval.mul_f64(i as f64);
                        let now = Instant::now();
                        if now < scheduled {
                            std::thread::sleep(scheduled - now);
                        } else if now > start + hard_deadline_offset {
                            // Count every arrival this thread will never issue.
                            errors
                                .fetch_add((total - i).div_ceil(threads as u64), Ordering::Relaxed);
                            break;
                        }
                        let slot = ((i / threads as u64) as usize) % slots_per_thread;
                        let request = &requests[(i as usize) % requests.len()];
                        let outcome = (|| -> std::io::Result<u16> {
                            if slots[slot].is_none() {
                                slots[slot] = Some(LeanClient::connect(addr)?);
                            }
                            let client = slots[slot].as_mut().expect("connected above");
                            client.exchange(request)
                        })();
                        match outcome {
                            Ok(200) => {
                                observed.push(scheduled.elapsed().as_secs_f64() * 1_000.0);
                            }
                            Ok(_) | Err(_) => {
                                errors.fetch_add(1, Ordering::Relaxed);
                                slots[slot] = None; // reconnect after any failure
                            }
                        }
                        i += threads as u64;
                    }
                    observed
                })
            })
            .collect();
        latencies = handles
            .into_iter()
            .map(|h| h.join().expect("client thread must not panic"))
            .collect();
    });

    let elapsed = (Instant::now() - start).as_secs_f64().max(1e-9);
    let all: Vec<f64> = latencies.into_iter().flatten().collect();
    (
        all.len() as u64,
        errors.load(Ordering::Relaxed),
        all,
        elapsed,
    )
}

/// Scrapes `/metrics` (off the timed path — rungs are bracketed, not interleaved) and
/// returns the cumulative `(le, count)` bucket points of the queue-wait histogram. Scrape
/// failures degrade to empty points — the latency columns become `None`, the rung's
/// client-side numbers are unaffected.
fn scrape_queue_wait(addr: &str) -> Vec<(f64, f64)> {
    let body = HttpClient::connect(addr)
        .and_then(|mut client| client.request("GET", "/metrics", None))
        .map(|response| response.body)
        .unwrap_or_default();
    let samples = expo::parse(&body).unwrap_or_default();
    expo::bucket_points(&samples, "surf_serve_queue_wait_nanos")
}

/// Cumulative bucket counts observed *during* a rung: `after - before` per bound. Bounds
/// are fixed at registration, so the two scrapes always expose the same `le` grid.
fn bucket_delta(before: &[(f64, f64)], after: &[(f64, f64)]) -> Vec<(f64, f64)> {
    after
        .iter()
        .map(|&(le, count)| {
            let prior = before
                .iter()
                .find(|&&(b, _)| b == le)
                .map_or(0.0, |&(_, c)| c);
            (le, (count - prior).max(0.0))
        })
        .collect()
}

/// Quantile of a rung-delta histogram, converted from the nanosecond bounds the serve
/// histograms use to microseconds.
fn delta_quantile_us(delta: &[(f64, f64)], q: f64) -> Option<f64> {
    expo::histogram_quantile(delta, q).map(|nanos| nanos / 1_000.0)
}

fn main() {
    let scale = Scale::from_args();
    let connection_counts: &[usize] = match scale {
        Scale::Quick => &[1, 16],
        _ => &[1, 16, 64, 256],
    };
    let targets: &[f64] = match scale {
        Scale::Quick => &[200.0, 1_000.0],
        _ => &[
            500.0, 1_000.0, 2_000.0, 4_000.0, 6_000.0, 8_000.0, 12_000.0, 16_000.0, 20_000.0,
            24_000.0, 28_000.0, 32_000.0, 48_000.0,
        ],
    };
    let rung_duration = scale.pick(
        Duration::from_millis(400),
        Duration::from_secs(2),
        Duration::from_secs(4),
    );
    eprintln!("training bench model...");
    let engine = quick_engine();
    let requests = build_requests();
    let mut rungs: Vec<Rung> = Vec::new();
    let mut sustained_cells: Vec<SustainedCell> = Vec::new();

    let handle = start_server(&engine);
    let addr = handle.addr().to_string();
    for &connections in connection_counts {
        // Unmeasured warmup: establish connections, fault in code paths and spin up worker
        // threads so the first measured rung isn't charged for cold start.
        let _ = run_rung(
            &addr,
            connections,
            &requests,
            targets[0],
            Duration::from_millis(200),
        );
        let mut best = 0.0f64;
        // One failed rung can be noise (a scheduler hiccup on a shared core); two in a row
        // is saturation. Stop the ladder only on the latter so an isolated flake doesn't
        // zero out a cell's sustained figure.
        let mut consecutive_failures = 0u32;
        for &target in targets {
            let before = scrape_queue_wait(&addr);
            let (completed, errors, mut lat, elapsed) =
                run_rung(&addr, connections, &requests, target, rung_duration);
            let after = scrape_queue_wait(&addr);
            let queue_wait = bucket_delta(&before, &after);
            lat.sort_by(|a, b| a.total_cmp(b));
            let achieved = completed as f64 / elapsed;
            let attempted = completed + errors;
            let p99 = percentile(&lat, 0.99);
            let sustained = achieved >= SUSTAIN_FRACTION * target
                && p99 <= P99_CAP_MS
                && (errors as f64) <= MAX_ERROR_FRACTION * attempted.max(1) as f64;
            if sustained {
                best = best.max(achieved);
                consecutive_failures = 0;
            } else {
                consecutive_failures += 1;
            }
            eprintln!(
                "conns={connections:<4} target={target:>8.0} -> {achieved:>9.1} qps  p99={p99:>8.2}ms  qwait_p99={}  errors={errors}  {}",
                delta_quantile_us(&queue_wait, 0.99)
                    .map_or_else(|| "-".to_string(), |us| format!("{us:.0}us")),
                if sustained { "SUSTAINED" } else { "failed" }
            );
            rungs.push(Rung {
                connections,
                target_qps: target,
                achieved_qps: achieved,
                completed,
                errors,
                p50_ms: percentile(&lat, 0.50),
                p90_ms: percentile(&lat, 0.90),
                p99_ms: p99,
                queue_wait_p50_us: delta_quantile_us(&queue_wait, 0.50),
                queue_wait_p99_us: delta_quantile_us(&queue_wait, 0.99),
                sustained,
            });
            if consecutive_failures >= 2 {
                break; // two failures in a row: genuinely saturated
            }
        }
        sustained_cells.push(SustainedCell {
            connections,
            sustained_qps: best,
        });
    }
    handle.shutdown();

    let rows: Vec<Vec<String>> = sustained_cells
        .iter()
        .map(|c| vec![c.connections.to_string(), format!("{:.0}", c.sustained_qps)])
        .collect();
    print_table(
        &format!("Sustained QPS by connection count (p99 <= {P99_CAP_MS} ms)"),
        &["connections", "sustained qps"],
        &rows,
    );

    let artifact = Artifact {
        bench: "serve",
        unix_time_seconds: SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| d.as_secs())
            .unwrap_or(0),
        scale: format!("{scale:?}"),
        available_parallelism: std::thread::available_parallelism().map_or(1, |n| n.get()),
        detected_isa: surf_simd::detected().label(),
        p99_cap_ms: P99_CAP_MS,
        sustain_fraction: SUSTAIN_FRACTION,
        rungs,
        sustained: sustained_cells,
    };
    let path = "BENCH_serve.json";
    match serde_json::to_string_pretty(&artifact) {
        Ok(json) => match std::fs::write(path, json) {
            Ok(()) => println!("\n[artifact written to {path}]"),
            Err(e) => eprintln!("warning: could not write {path}: {e}"),
        },
        Err(e) => eprintln!("warning: could not serialize artifact: {e}"),
    }
}
