//! Per-layer figures of a traced run, read off its spans and counters.
//!
//! Mining figures are per mining call and fit figures per fit, so a count repeats exactly
//! between runs however many operations the window held; the bases are reported too.

use crate::replay::Counters;
use crate::report::Metric;
use crate::serve::{Rung, ServerDelta};
use crate::trace::{layer_self_times, section, self_times, Span};

/// Per-layer metrics the traced run's result line carries (the `per_layer` list of
/// `BENCHMARK.json`).
pub const PER_LAYER: [&str; 49] = [
    "ml.kde.box_calls",
    "ml.kde.box_busy_s",
    "ml.kde.ns_per_box",
    "ml.kde.cdf_evals",
    "optim.gso.runs",
    "optim.gso.iterations",
    "optim.gso.fitness_evals",
    "optim.gso.move_s",
    "core.fitness.objective_s",
    "core.mine.cluster_s",
    "core.mine.fallback_share",
    "core.mine.calls",
    "trace.kde.busy_over_wall",
    "trace.fitness.busy_over_wall",
    "data.index_build_s",
    "data.workload_evals",
    "data.workload_eval_s",
    "ml.matrix_s",
    "ml.train_s",
    "ml.kde_fit_s",
    "trace.workload_eval.busy_over_wall",
    "layer.data.self_share",
    "layer.ml.self_share",
    "layer.optim.self_share",
    "layer.core.self_share",
    "trace.unattributed_share",
    "trace.ops",
    "ml.predict.calls",
    "ml.predict.rows",
    "ml.predict.rows_per_call",
    "ml.predict.busy_s",
    "ml.predict.mine_busy_s",
    "serve.recv_parse_p99_us",
    "serve.queue_wait_p99_us",
    "serve.batch_wait_p99_us",
    "serve.kernel_p99_us",
    "serve.write_flush_p99_us",
    "serve.json_decode_us",
    "serve.json_encode_us",
    "serve.client_mean_us",
    "serve.unattributed_share",
    "serve.cache_hit_ratio",
    "serve.cache_lookups",
    "serve.coalesce.rows_per_batch",
    "serve.coalesce.batches",
    "serve.admission_rejects",
    "serve.mixed.queue_wait_p99_us",
    "trace.overhead_share",
    "trace.replay_mismatches",
];

fn per(total: f64, base: u64) -> f64 {
    if base == 0 {
        0.0
    } else {
        total / base as f64
    }
}

fn secs(nanos: u64) -> f64 {
    nanos as f64 * 1e-9
}

fn busy(spans: &[Span], name: &str) -> u64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::duration)
        .sum()
}

/// Mining-side figures (KDE guide, swarm, fitness, clustering) from the mining replays.
pub fn mining(spans: &[Span], counters: &Counters) -> Vec<Metric> {
    let calls = Counters::get(&counters.mine_calls);
    let runs = Counters::get(&counters.gso_runs);
    let boxes = Counters::get(&counters.box_calls);
    let box_busy = busy(spans, "ml.kde.box_probability");
    let own = self_times(spans);
    let self_of = |name: &str| -> u64 {
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| own[&s.id])
            .sum()
    };
    let fitness_busy = busy(spans, "core.fitness_batch");
    let predict_in_fitness: u64 = {
        let fitness_ids: std::collections::HashSet<u64> = spans
            .iter()
            .filter(|s| s.name == "core.fitness_batch")
            .map(|s| s.id)
            .collect();
        spans
            .iter()
            .filter(|s| {
                s.name == "ml.predict_batch" && s.parent.is_some_and(|p| fitness_ids.contains(&p))
            })
            .map(Span::duration)
            .sum()
    };
    let n = calls as usize;
    vec![
        Metric::new("ml.kde.box_calls", "count", per(boxes as f64, calls), n),
        Metric::new("ml.kde.box_busy_s", "s", per(secs(box_busy), calls), n),
        Metric::new(
            "ml.kde.ns_per_box",
            "ns",
            per(box_busy as f64, boxes),
            boxes as usize,
        ),
        Metric::new(
            "ml.kde.cdf_evals",
            "count",
            per(Counters::get(&counters.cdf_evals) as f64, calls),
            n,
        ),
        Metric::new("optim.gso.runs", "count", per(runs as f64, calls), n),
        Metric::new(
            "optim.gso.iterations",
            "count",
            per(Counters::get(&counters.gso_iterations) as f64, calls),
            n,
        ),
        Metric::new(
            "optim.gso.fitness_evals",
            "count",
            per(Counters::get(&counters.fitness_evals) as f64, calls),
            n,
        ),
        Metric::new(
            "optim.gso.move_s",
            "s",
            per(secs(self_of("optim.gso.run")), calls),
            n,
        ),
        Metric::new(
            "core.fitness.objective_s",
            "s",
            per(secs(fitness_busy.saturating_sub(predict_in_fitness)), calls),
            n,
        ),
        Metric::new(
            "core.mine.cluster_s",
            "s",
            per(secs(busy(spans, "core.mine.cluster")), calls),
            n,
        ),
        Metric::new(
            "core.mine.fallback_share",
            "ratio",
            per(runs.saturating_sub(calls) as f64, calls),
            n,
        ),
        Metric::new("core.mine.calls", "count", calls as f64, 1),
        parallelism("trace.kde.busy_over_wall", spans, "ml.kde.box_probability"),
        parallelism("trace.fitness.busy_over_wall", spans, "core.fitness_batch"),
    ]
}

/// Inference figures of the serving path, per `/predict` request of the reference rung:
/// the server's `predict_batch` calls and busy time (its kernel histogram) and the rows
/// they evaluated (the coalescing queue's fused rows), as `/metrics` deltas.
pub fn inference(reference: &Rung) -> Vec<Metric> {
    let empty = ServerDelta::default();
    let server = reference.server.as_ref().unwrap_or(&empty);
    let kernel = server
        .stages
        .iter()
        .find(|(stage, _)| *stage == "kernel")
        .map(|(_, histogram)| histogram.clone())
        .unwrap_or_default();
    let requests = reference.predict.succeeded;
    let n = requests as usize;
    vec![
        Metric::new("ml.predict.calls", "count", per(kernel.count, requests), n),
        Metric::new(
            "ml.predict.rows",
            "count",
            per(server.fused_rows, requests),
            n,
        ),
        Metric::new(
            "ml.predict.rows_per_call",
            "count",
            per(server.fused_rows, kernel.count as u64),
            kernel.count as usize,
        ),
        Metric::new(
            "ml.predict.busy_s",
            "s",
            per(kernel.sum * 1e-9, requests),
            n,
        ),
    ]
}

/// Fit-stage figures from the fit replays, per fit.
pub fn fitting(spans: &[Span], counters: &Counters) -> Vec<Metric> {
    let fits = Counters::get(&counters.fits);
    let n = fits as usize;
    let stage = |metric: &'static str, span: &str| {
        Metric::new(metric, "s", per(secs(busy(spans, span)), fits), n)
    };
    vec![
        stage("data.index_build_s", "data.index_build"),
        Metric::new(
            "data.workload_evals",
            "count",
            per(Counters::get(&counters.workload_evals) as f64, fits),
            n,
        ),
        stage("data.workload_eval_s", "data.workload_eval"),
        stage("ml.matrix_s", "ml.matrix"),
        stage("ml.train_s", "ml.gbrt_fit"),
        stage("ml.kde_fit_s", "ml.kde_fit"),
        parallelism("trace.workload_eval.busy_over_wall", spans, "data.evaluate"),
    ]
}

/// Busy time of the spans named `name` over the wall time their union covers.
fn parallelism(metric: &'static str, spans: &[Span], name: &str) -> Metric {
    let s = section(spans, name);
    Metric::new(
        metric,
        "ratio",
        per(s.busy as f64, s.wall),
        s.spans as usize,
    )
}

/// Self time per layer as a share of the replayed operations' wall time, and the share
/// no layer span covers (the policy glue between the calls). Parallel work counts its
/// busy time, so shares can sum past 1.
pub fn attribution(spans: &[Span]) -> Vec<Metric> {
    let layers = layer_self_times(spans);
    let roots = spans.iter().filter(|s| s.parent.is_none());
    let ops = roots.clone().count();
    let root_wall: u64 = roots.map(Span::duration).sum();
    let share = |metric: &'static str, name: &str| {
        let own = layers.get(name).copied().unwrap_or(0);
        Metric::new(metric, "ratio", per(own as f64, root_wall), ops)
    };
    vec![
        share("layer.data.self_share", "data"),
        share("layer.ml.self_share", "ml"),
        share("layer.optim.self_share", "optim"),
        share("layer.core.self_share", "core"),
        share("trace.unattributed_share", "bench"),
        Metric::new("trace.ops", "count", ops as f64, 1),
    ]
}

/// Inference time spent inside mining, per mining call.
pub fn predict_during_mining(spans: &[Span], counters: &Counters) -> Metric {
    let calls = Counters::get(&counters.mine_calls);
    Metric::new(
        "ml.predict.mine_busy_s",
        "s",
        per(secs(busy(spans, "ml.predict_batch")), calls),
        calls as usize,
    )
}

/// Serving figures from the server's own histograms over the reference rung and the
/// mixed phase, with the JSON costs timed on the workload's bodies.
pub fn serving(reference: &Rung, mixed: &Rung, decode_us: f64, encode_us: f64) -> Vec<Metric> {
    let empty = ServerDelta::default();
    let server = reference.server.as_ref().unwrap_or(&empty);
    let stage = |delta: &ServerDelta, name: &str| {
        delta
            .stages
            .iter()
            .find(|(stage, _)| *stage == name)
            .map(|(_, histogram)| histogram.clone())
            .unwrap_or_default()
    };
    let p99_us = |delta: &ServerDelta, name: &str| {
        let histogram = stage(delta, name);
        (
            histogram.quantile(0.99).unwrap_or(0.0) / 1e3,
            histogram.count as usize,
        )
    };
    let mut metrics: Vec<Metric> = crate::serve::STAGES
        .iter()
        .map(|&(name, _)| {
            let (value, samples) = p99_us(server, name);
            Metric::new(stage_metric(name), "us", value, samples)
        })
        .collect();
    let requests = reference.predict.succeeded;
    let client_mean_us =
        reference.predict.latencies_ms().iter().sum::<f64>() * 1e3 / requests.max(1) as f64;
    let stage_means_us: f64 = crate::serve::STAGES
        .iter()
        .map(|&(name, _)| stage(server, name).mean().unwrap_or(0.0) / 1e3)
        .sum();
    let lookups = server.cache_hits + server.cache_misses;
    let n = requests as usize;
    metrics.extend([
        Metric::new("serve.json_decode_us", "us", decode_us, n),
        Metric::new("serve.json_encode_us", "us", encode_us, n),
        Metric::new("serve.client_mean_us", "us", client_mean_us, n),
        Metric::new(
            "serve.unattributed_share",
            "ratio",
            if client_mean_us > 0.0 {
                (client_mean_us - stage_means_us - decode_us - encode_us) / client_mean_us
            } else {
                0.0
            },
            n,
        ),
        Metric::new(
            "serve.cache_hit_ratio",
            "ratio",
            per(server.cache_hits, lookups as u64),
            lookups as usize,
        ),
        Metric::new("serve.cache_lookups", "count", lookups, 1),
        Metric::new(
            "serve.coalesce.rows_per_batch",
            "count",
            per(server.fused_rows, server.fused_batches as u64),
            server.fused_batches as usize,
        ),
        Metric::new("serve.coalesce.batches", "count", server.fused_batches, 1),
        Metric::new(
            "serve.admission_rejects",
            "count",
            server.admission_rejects,
            reference.predict.sent as usize,
        ),
    ]);
    let mixed_server = mixed.server.as_ref().unwrap_or(&empty);
    let (value, samples) = p99_us(mixed_server, "queue_wait");
    metrics.push(Metric::new(
        "serve.mixed.queue_wait_p99_us",
        "us",
        value,
        samples,
    ));
    metrics
}

fn stage_metric(stage: &str) -> &'static str {
    match stage {
        "recv_parse" => "serve.recv_parse_p99_us",
        "queue_wait" => "serve.queue_wait_p99_us",
        "batch_wait" => "serve.batch_wait_p99_us",
        "kernel" => "serve.kernel_p99_us",
        _ => "serve.write_flush_p99_us",
    }
}
