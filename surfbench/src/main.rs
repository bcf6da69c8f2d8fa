//! `surfbench`: the SuRF end-to-end benchmark.
//!
//! ```text
//! surfbench --workload <d2|d4> --seed <n> --seconds <s> --trace <0|1>
//! surfbench compare <result.json> <result.json>
//! ```
//!
//! Every run sets the system up several times, then measures three phases in one process
//! on the workload's paper-default density engine: offline mining (`Surf::fit` and
//! `Surf::mine_with`), predict-only serving (a ladder of open-loop `/predict` rates) and
//! mixed serving (`/predict` at a fixed rate with `/mine` alongside). The two workloads
//! differ in the data's dimensionality: `d2` mines and serves a 2-d engine, `d4` a 4-d one,
//! whose mining does twice the KDE work per box, falls back to the raw threshold on every
//! call, and lies outside the d <= 3 regime of a binned density guide. Every output is
//! checked; the run prints its metrics by name, unit and sample count, then one JSON result
//! line, and exits non-zero when a check failed. With `--trace 1` it replays fit and mining
//! with spans around each layer's public calls and reports per-layer figures instead.

mod inputs;
mod layers;
mod loadgen;
mod mine;
mod replay;
mod report;
mod serve;
mod stats;
mod trace;

use std::collections::HashMap;
use std::time::{Duration, Instant};

use surf_core::finder::MiningOutcome;
use surf_core::objective::Threshold;
use surf_core::Surf;
use surf_data::iou::average_best_iou;
use surf_data::synthetic::SyntheticDataset;

use crate::replay::{Counters, Engine};
use crate::report::{Metric, RunResult, Stamp};
use crate::trace::Tracer;

/// The workloads, as named in `BENCHMARK.json`, with the dimensionality of their data.
const WORKLOADS: [(&str, usize); 2] = [("d2", 2), ("d4", 4)];
/// End-to-end metrics the result line carries (the `end_to_end` list of `BENCHMARK.json`).
/// The run also reports `fit_s`, `iou`, `true_valid_frac`, `failed_frac`, the
/// predict-only phase's `predict_p50_ms`, `predict_p99_ms` and `predict_max_qps`, and the
/// mixed phase's `mixed_predict_p50_ms` and `mixed_predict_p99_ms`, without a bound: on a
/// shared two-core host these swing with the neighbours' load by more than any bound
/// allows (see the README), quality varies with the seed's dataset, and failures are
/// carried by the result's `failed` count.
const END_TO_END: [&str; 4] = ["setup_s", "mine_s", "mine_served_s", "rss_peak_mb"];
/// Where result records and spans are written, relative to the working directory.
const RESULTS: &str = ".bench_results";
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Shares of `--seconds` given to the offline, predict-only and mixed phases.
const PHASE_SHARES: [f64; 3] = [0.25, 0.15, 0.6];
/// `/predict` requests sent to warm each set-up's server.
const WARM_UP_REQUESTS: usize = 200;

struct Args {
    workload: String,
    d: usize,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: String::new(),
        d: 0,
        seed: 0,
        seconds: 0,
        trace: false,
    };
    let mut iter = args.iter();
    while let Some(flag) = iter.next() {
        let value = iter.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {value}"))
        };
        match flag.as_str() {
            "--workload" => parsed.workload = value.clone(),
            "--seed" => parsed.seed = number()?,
            "--seconds" => parsed.seconds = number()?,
            "--trace" => parsed.trace = number()? != 0,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    parsed.d = WORKLOADS
        .iter()
        .find(|(name, _)| *name == parsed.workload)
        .map(|&(_, d)| d)
        .ok_or_else(|| format!("--workload must be one of {:?}", WORKLOADS.map(|w| w.0)))?;
    if parsed.seconds == 0 {
        return Err("--seconds must be positive".into());
    }
    Ok(parsed)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        let read = |i: usize| {
            std::fs::read_to_string(args.get(i).map(String::as_str).unwrap_or_default())
                .unwrap_or_else(|e| exit_with(&format!("cannot read result file {i}: {e}")))
        };
        match report::compare(&read(1), &read(2)) {
            Ok(table) => print!("{table}"),
            Err(refusal) => exit_with(&refusal),
        }
        return;
    }
    let args = parse_args(&args).unwrap_or_else(|e| exit_with(&e));
    let stamp = Stamp::new(&args.workload, args.seed, args.trace, args.seconds);
    let result = run(stamp, args.d);

    let name = format!(
        "{RESULTS}/{}-seed{}-trace{}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    let written = std::fs::create_dir_all(RESULTS)
        .and_then(|()| std::fs::write(format!("{name}.json"), result.to_json()))
        .and_then(|()| match &result.spans {
            Some(spans) => std::fs::write(format!("{name}-spans.json"), spans),
            None => Ok(()),
        });
    print!("{}", result.render());
    match written {
        Ok(()) => println!("[result written to {name}.json]"),
        Err(e) => eprintln!("warning: could not write results under {RESULTS}: {e}"),
    }
    let declared: &[&str] = if args.trace {
        &layers::PER_LAYER
    } else {
        &END_TO_END
    };
    println!("{}", result.result_line(declared));
    if !result.correct() {
        std::process::exit(1);
    }
}

fn exit_with(message: &str) -> ! {
    eprintln!("surfbench: {message}");
    std::process::exit(2);
}

/// Peak resident set of this process (`VmHWM`), in MB.
fn rss_peak_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status.lines().find_map(|line| {
                let kb = line.strip_prefix("VmHWM:")?.trim().strip_suffix("kB")?;
                kb.trim().parse::<f64>().ok()
            })
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// One set-up: the dataset, its fitted engine, the server serving that engine, and a
/// warm-up of each path the phases take.
struct Setup {
    data: SyntheticDataset,
    engine: Engine,
    /// Taken when the server is shut down.
    server: Option<surf_serve::ServerHandle>,
}

fn set_up(seed: u64, d: usize, warm: &[inputs::PredictCall]) -> Setup {
    let data = inputs::dataset(seed, d);
    let surf = Surf::fit(&data.dataset, &inputs::config(seed)).expect("paper-default fit");
    let server = serve::start(&surf);
    let addr = server.addr().to_string();
    serve::warm_up(&addr, warm, serve::REFERENCE_RATE);
    // One untimed mining call, through the server: it warms the process's mining path
    // and the server's handler pool alike.
    let warm_mine = surf_serve::http::HttpClient::connect(&addr).and_then(|mut client| {
        client.request(
            "POST",
            "/mine",
            Some(&inputs::mine_body(inputs::REFERENCE_THRESHOLD)),
        )
    });
    assert!(
        warm_mine.is_ok_and(|reply| reply.status == 200),
        "the warm-up /mine is answered"
    );
    Setup {
        data,
        engine: Engine::new(surf),
        server: Some(server),
    }
}

fn run(stamp: Stamp, d: usize) -> RunResult {
    let seed = stamp.seed;
    let seconds = stamp.run_seconds as f64;
    let [mine_secs, predict_secs, mixed_secs] = PHASE_SHARES.map(|share| share * seconds);
    let interval = serve::mine_interval(d);

    // Inputs first, off every clock.
    // Room for every rung to be measured twice (an invalid rung is retried).
    let predict_requests = serve::LADDER
        .iter()
        .map(|&rate| 2.0 * rate * serve::rung_seconds(rate, predict_secs))
        .sum::<f64>()
        .ceil() as usize
        + 1;
    let mixed_requests = (serve::MIXED_RATE * mixed_secs).ceil() as usize + 1;
    let predict_calls = inputs::predict_calls(seed, 0, predict_requests, d);
    let mixed_calls = inputs::predict_calls(seed, 1, mixed_requests, d);
    let warm = inputs::predict_calls(seed, 2, WARM_UP_REQUESTS, d);
    // Served `/mine` walks the offline schedule from its start, so its outcomes can be
    // checked against the offline calls.
    let schedule = inputs::thresholds(seed, mine::SCHEDULE);
    let mixed_thresholds: Vec<f64> = (0..serve::mine_requests(mixed_secs, interval))
        .map(|i| schedule[i % mine::SCHEDULE])
        .collect();

    let mut setups = Vec::new();
    let mut setup: Option<Setup> = None;
    for _ in 0..SETUP_REPS {
        if let Some(server) = setup.take().and_then(|mut previous| previous.server.take()) {
            server.shutdown();
        }
        let began = Instant::now();
        setup = Some(set_up(seed, d, &warm));
        setups.push(began.elapsed().as_secs_f64());
    }
    let mut setup = setup.expect("at least one set-up");
    let server = setup.server.take().expect("a running server");
    let state = setup.engine.surf.export_state();
    let addr = server.addr().to_string();

    let tracer = Tracer::default();
    let counters = Counters::default();
    let traced = stamp.trace.then_some((&tracer, &counters));
    let offline = mine::run(
        seed,
        d,
        &setup.engine,
        &state,
        Duration::from_secs_f64(mine_secs),
        traced,
    );
    let ladder = serve::predict_phase(&addr, &predict_calls, predict_secs, stamp.trace);
    let mixed = serve::mixed_phase(
        &addr,
        &mixed_calls,
        &mixed_thresholds,
        interval,
        mixed_secs,
        stamp.trace,
    );
    server.shutdown();

    // Output checks, off the timed path.
    let surf = &setup.engine.surf;
    let mut failures = offline.failures.clone();
    let mut bad = 0;
    for rung in &ladder {
        bad += serve::check_predictions(surf, &predict_calls, rung, &mut failures);
    }
    bad += serve::check_predictions(surf, &mixed_calls, &mixed, &mut failures);
    // The server serves the offline engine, so a served outcome must equal the offline
    // call at its threshold; thresholds the offline phase did not reach are mined here.
    // A traced run's offline outcomes come from replays, which are checked on their own.
    let mut references: HashMap<u64, MiningOutcome> = if stamp.trace {
        HashMap::new()
    } else {
        offline
            .first
            .iter()
            .map(|(&bits, (outcome, _))| (bits, outcome.clone()))
            .collect()
    };
    bad += serve::check_mines(
        surf,
        &mixed,
        &mut |threshold| {
            references
                .entry(threshold.to_bits())
                .or_insert_with(|| surf.mine_with(Threshold::above(threshold)))
                .clone()
        },
        &mut failures,
    );
    // A retried rung's first attempt is reported but not counted: it measured the
    // generator, not the server.
    let rungs = ladder.iter().chain(std::iter::once(&mixed));
    let attempted = offline.attempted
        + rungs
            .clone()
            .map(|r| r.predict.scheduled + r.mine.scheduled)
            .sum::<u64>();
    let failed = offline.failures.len() as u64
        + bad
        + rungs
            .clone()
            .map(|r| r.predict.bad() + r.mine.bad())
            .sum::<u64>();

    let listed = |values: &[f64]| {
        values
            .iter()
            .map(|v| format!("{v:.4}"))
            .collect::<Vec<_>>()
            .join(" ")
    };
    let mut lines = vec![
        format!("setup seconds: {}", listed(&setups)),
        format!(
            "offline d={d}: {} rounds in {:.2} s; thresholds {:?}",
            offline.rounds, offline.seconds, schedule
        ),
    ];
    for rung in &ladder {
        if let Some(first) = &rung.retried {
            lines.push(first.describe("retried "));
        }
        let label = if rung.offered == serve::REFERENCE_RATE {
            "predict*"
        } else {
            "predict "
        };
        lines.push(rung.describe(label));
    }
    lines.push(mixed.describe("mixed   "));
    lines.push(format!("mixed /mine thresholds {mixed_thresholds:?}"));
    lines.push(format!("fit seconds: {}", listed(&offline.fit_s)));
    lines.push(format!("mine seconds: {}", listed(&offline.mine_s)));
    lines.push(format!(
        "served /mine seconds: {}",
        listed(
            &mixed
                .mine
                .latencies_ms()
                .iter()
                .map(|ms| ms / 1e3)
                .collect::<Vec<_>>()
        )
    ));

    let metrics = if stamp.trace {
        traced_metrics(
            &setup,
            &offline,
            &ladder,
            &mixed,
            &predict_calls,
            &tracer,
            &counters,
            &mut lines,
        )
    } else {
        end_to_end(
            &setup, &setups, &offline, &ladder, &mixed, interval, failed, attempted, &mut lines,
        )
    };
    let spans = stamp.trace.then(|| trace::to_json(&tracer.spans()));
    RunResult {
        stamp,
        metrics,
        attempted,
        failed,
        check_failures: failures,
        lines,
        spans,
    }
}

#[allow(clippy::too_many_arguments)]
fn end_to_end(
    setup: &Setup,
    setups: &[f64],
    offline: &mine::MinePhase,
    ladder: &[serve::Rung],
    mixed: &serve::Rung,
    interval: Duration,
    failed: u64,
    attempted: u64,
    lines: &mut Vec<String>,
) -> Vec<Metric> {
    // Quality of the offline quality rounds' mining calls, off the timed path. Served
    // calls are not scored again: they are checked equal to the offline ones.
    let data = &setup.data;
    let mut ious = Vec::new();
    let (mut valid, mut regions_total) = (0.0, 0usize);
    for (threshold, outcome) in &offline.quality {
        let regions = outcome.region_list();
        ious.push(average_best_iou(&regions, &data.ground_truth));
        if !regions.is_empty() {
            let fraction = surf_core::evaluation::validity_fraction(
                &data.dataset,
                data.statistic,
                &Threshold::above(*threshold),
                &regions,
                0.0,
            )
            .expect("mined regions have the dataset's dimensionality");
            valid += fraction * regions.len() as f64;
            regions_total += regions.len();
        }
    }
    lines.push(format!("iou per scored call: {ious:.3?}"));

    let median =
        |values: &[f64]| stats::median(values).map_or((f64::NAN, 0), |s| (s.value, s.samples));
    let reference = ladder
        .iter()
        .find(|r| r.offered == serve::REFERENCE_RATE)
        .expect("the ladder starts at the reference rate");
    let best = ladder.iter().rfind(|r| r.meets());
    let windowed = |rung: &serve::Rung, window: f64, p: f64| {
        stats::windowed_percentile(&rung.predict.latencies, window, rung.seconds, p)
            .map_or((f64::NAN, 0), |s| (s.value, s.samples))
    };
    let interval = interval.as_secs_f64();
    let mined_s: Vec<f64> = mixed
        .mine
        .latencies_ms()
        .iter()
        .map(|ms| ms / 1e3)
        .collect();
    let iou = stats::mean(&ious).map_or((f64::NAN, 0), |s| (s.value, s.samples));
    let metric =
        |name, unit, (value, samples): (f64, usize)| Metric::new(name, unit, value, samples);
    vec![
        metric("setup_s", "s", median(setups)),
        metric("fit_s", "s", median(&offline.fit_s)),
        metric("mine_s", "s", median(&offline.mine_s)),
        metric("iou", "ratio", iou),
        metric(
            "true_valid_frac",
            "ratio",
            (valid / regions_total as f64, regions_total),
        ),
        metric(
            "predict_p50_ms",
            "ms",
            windowed(reference, serve::REFERENCE_WINDOW_S, 0.5),
        ),
        metric(
            "predict_p99_ms",
            "ms",
            windowed(reference, serve::REFERENCE_WINDOW_S, 0.99),
        ),
        // No rung meeting the conditions is a measurement too: no rate was sustained.
        metric(
            "predict_max_qps",
            "1/s",
            best.map_or((0.0, 0), |r| (r.achieved(), r.predict.succeeded as usize)),
        ),
        metric("mixed_predict_p50_ms", "ms", windowed(mixed, interval, 0.5)),
        metric(
            "mixed_predict_p99_ms",
            "ms",
            windowed(mixed, interval, 0.99),
        ),
        metric("mine_served_s", "s", median(&mined_s)),
        metric("rss_peak_mb", "MB", (rss_peak_mb(), 1)),
        metric(
            "failed_frac",
            "ratio",
            (failed as f64 / attempted.max(1) as f64, attempted as usize),
        ),
    ]
}

#[allow(clippy::too_many_arguments)]
fn traced_metrics(
    setup: &Setup,
    offline: &mine::MinePhase,
    ladder: &[serve::Rung],
    mixed: &serve::Rung,
    predict_calls: &[inputs::PredictCall],
    tracer: &Tracer,
    counters: &Counters,
    lines: &mut Vec<String>,
) -> Vec<Metric> {
    // The replays must be the program: the quality rounds' replays against real calls at
    // the same thresholds, which also give the tracing overhead.
    let mut mismatches = offline.replay_mismatches;
    let (mut traced_s, mut untraced_s) = (0.0, 0.0);
    for (value, _) in &offline.quality {
        let Some((replayed, traced_wall)) = offline.first.get(&value.to_bits()) else {
            continue;
        };
        let began = Instant::now();
        let real = setup.engine.surf.mine_with(Threshold::above(*value));
        let untraced = began.elapsed().as_secs_f64();
        if !replay::same_outcome(&real, replayed) {
            mismatches += 1;
        }
        traced_s += traced_wall;
        untraced_s += untraced;
        lines.push(format!(
            "threshold {value}: traced replay {traced_wall:.4} s, untraced Surf::mine_with {untraced:.4} s"
        ));
    }
    if mismatches > 0 {
        lines.push(format!(
            "WARNING: {mismatches} replays differ from the real calls; the per-layer figures do not describe this program"
        ));
    }
    let spans = tracer.spans();
    let mut metrics = layers::mining(&spans, counters);
    metrics.extend(layers::fitting(&spans, counters));
    metrics.extend(layers::attribution(&spans));

    let reference = ladder
        .iter()
        .find(|r| r.offered == serve::REFERENCE_RATE)
        .expect("the ladder reaches the reference rate");
    metrics.extend(layers::inference(reference));
    metrics.push(layers::predict_during_mining(&spans, counters));

    let sample = &predict_calls[..predict_calls.len().min(2_000)];
    let (decode_us, encode_us) = serve::json_costs(&setup.engine.surf, sample);
    metrics.extend(layers::serving(reference, mixed, decode_us, encode_us));
    metrics.push(Metric::new(
        "trace.overhead_share",
        "ratio",
        (traced_s - untraced_s) / untraced_s,
        offline.quality.len(),
    ));
    metrics.push(Metric::new(
        "trace.replay_mismatches",
        "count",
        mismatches as f64,
        1,
    ));
    metrics
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric names the code emits are the ones `BENCHMARK.json` declares.
    #[test]
    fn declared_metrics_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        let json = serde_json::parse_value(&text).expect("valid JSON");
        let names = |key: &str| -> Vec<String> {
            match json.get(key) {
                Some(serde::Value::Array(items)) => items
                    .iter()
                    .filter_map(|m| {
                        m.get("name")
                            .and_then(serde::Value::as_str)
                            .map(String::from)
                    })
                    .collect(),
                _ => panic!("{key} missing"),
            }
        };
        assert_eq!(names("end_to_end"), END_TO_END.map(String::from).to_vec());
        assert_eq!(
            names("per_layer"),
            layers::PER_LAYER.map(String::from).to_vec()
        );
        assert_eq!(
            names("workloads"),
            WORKLOADS.map(|(name, _)| name.to_string()).to_vec()
        );
    }

    #[test]
    fn arguments_are_checked() {
        let args = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let parsed = parse_args(&args("--workload d4 --seed 3 --seconds 10 --trace 1")).unwrap();
        assert_eq!(
            (parsed.d, parsed.seed, parsed.seconds, parsed.trace),
            (4, 3, 10, true)
        );
        assert!(parse_args(&args("--workload nope --seed 3 --seconds 10 --trace 0")).is_err());
        assert!(parse_args(&args("--workload d2 --seed x --seconds 10 --trace 0")).is_err());
        assert!(parse_args(&args("--workload d2 --seed 1 --seconds 0 --trace 0")).is_err());
        assert!(parse_args(&args("--workload d2 --seed")).is_err());
    }
}
