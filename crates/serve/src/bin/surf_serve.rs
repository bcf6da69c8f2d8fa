//! `surf-serve` — train, persist and serve SuRF surrogates from the command line.
//!
//! ```text
//! surf-serve train --out model.json [--name demo] [--dims 2] [--points 20000]
//!                  [--queries 2000] [--threshold 500] [--seed 7]
//! surf-serve serve --artifact model.json [--artifact other.json ...] [--addr 127.0.0.1:7878]
//!                  [--workers 0] [--idle-timeout-ms 5000] [--max-conns 1024]
//!                  [--max-pending 256] [--trace-sample-every 16]
//! surf-serve query --addr 127.0.0.1:7878 --model demo --center 0.5,0.5 --half 0.1,0.1
//! ```
//!
//! `train` fits a surrogate on a synthetic density dataset (a stand-in for a real back-end —
//! any `Dataset` works through the library API) and saves a versioned artifact; `serve` loads
//! artifacts into a registry and serves the JSON API until interrupted; `query` issues one
//! `POST /predict` against a running server.
//! An unknown flag, a flag without a value or a stray argument exits non-zero with the usage.

use std::process::ExitCode;
use std::sync::Arc;

use surf_core::objective::Threshold;
use surf_core::{Surf, SurfConfig};
use surf_data::statistic::Statistic;
use surf_data::synthetic::{SyntheticDataset, SyntheticSpec};
use surf_serve::http::http_request;
use surf_serve::{serve, ModelArtifact, ModelRegistry, ServerConfig};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("train") => train(&args[1..]),
        Some("serve") => run_server(&args[1..]),
        Some("query") => query(&args[1..]),
        Some("--help" | "-h") | None => {
            eprint!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Some(other) => Err(format!("unknown subcommand `{other}`\n{USAGE}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "usage:
  surf-serve train --out <file> [--name demo] [--dims 2] [--points 20000] [--queries 2000]
                   [--threshold 500] [--seed 7]
  surf-serve serve --artifact <file> [--artifact <file> ...] [--addr 127.0.0.1:7878] [--workers 0]
                   [--idle-timeout-ms 5000] [--max-conns 1024] [--max-pending 256]
                   [--trace-sample-every 16]
  surf-serve query --addr <host:port> --model <name> --center x,y,... --half l1,l2,...
";

/// Each subcommand's flags, space-separated. Every flag takes a value.
const TRAIN_FLAGS: &str = "--out --name --dims --points --queries --threshold --seed";
const SERVE_FLAGS: &str =
    "--artifact --addr --workers --idle-timeout-ms --max-conns --max-pending --trace-sample-every";
const QUERY_FLAGS: &str = "--addr --model --center --half";

/// Parses `args` as `--flag value` pairs drawn from `known`, refusing (with the usage text)
/// an unknown flag, a positional argument, a flag whose value is missing or is another flag,
/// and a second occurrence of any flag but `--artifact`.
fn parse_flags(args: &[String], known: &str) -> Result<Vec<(String, String)>, String> {
    let mut flags: Vec<(String, String)> = Vec::new();
    for pair in args.chunks(2) {
        let flag = &pair[0];
        let problem = if !flag.starts_with('-') {
            "unexpected argument"
        } else if !known.split(' ').any(|name| name == flag) {
            "unknown flag"
        } else if pair.len() < 2 || pair[1].starts_with("--") {
            "missing value for"
        } else if flag != "--artifact" && flags.iter().any(|(seen, _)| seen == flag) {
            "repeated flag"
        } else {
            flags.push((flag.clone(), pair[1].clone()));
            continue;
        };
        return Err(format!("{problem} `{flag}`\n{USAGE}"));
    }
    Ok(flags)
}

/// The value given for `name`, or `default`.
fn flag<'a>(flags: &'a [(String, String)], name: &str, default: &'a str) -> &'a str {
    let value = flags.iter().find(|(flag, _)| flag == name);
    value.map_or(default, |(_, value)| value)
}

fn parse<T: std::str::FromStr>(text: &str, what: &str) -> Result<T, String> {
    text.parse()
        .map_err(|_| format!("unparseable {what} `{text}`"))
}

fn parse_csv(text: &str, what: &str) -> Result<Vec<f64>, String> {
    text.split(',').map(|v| parse(v.trim(), what)).collect()
}

fn train(args: &[String]) -> Result<(), String> {
    let flags = parse_flags(args, TRAIN_FLAGS)?;
    let out = flag(&flags, "--out", "");
    if out.is_empty() {
        return Err(format!("`train` needs --out <file>\n{USAGE}"));
    }
    let name = flag(&flags, "--name", "demo");
    let dims: usize = parse(flag(&flags, "--dims", "2"), "--dims")?;
    let points: usize = parse(flag(&flags, "--points", "20000"), "--points")?;
    let queries: usize = parse(flag(&flags, "--queries", "2000"), "--queries")?;
    let threshold: f64 = parse(flag(&flags, "--threshold", "500"), "--threshold")?;
    let seed: u64 = parse(flag(&flags, "--seed", "7"), "--seed")?;

    eprintln!("training `{name}`: {dims}-d synthetic density dataset, {points} points, {queries} workload queries");
    let synthetic = SyntheticDataset::generate(
        &SyntheticSpec::density(dims, 1)
            .with_points(points)
            .with_seed(seed),
    );
    let config = SurfConfig::builder()
        .statistic(Statistic::Count)
        .threshold(Threshold::above(threshold))
        .training_queries(queries)
        .seed(seed)
        .build();
    let engine = Surf::fit(&synthetic.dataset, &config).map_err(|e| e.to_string())?;
    let report = engine.training_report();
    eprintln!(
        "trained in {:?} on {} examples (holdout RMSE {:.3})",
        report.training_time, report.training_examples, report.holdout_rmse
    );
    let artifact = ModelArtifact::from_engine(name, &engine);
    artifact.save_json(out).map_err(|e| e.to_string())?;
    eprintln!("saved artifact to {out}");
    Ok(())
}

fn run_server(args: &[String]) -> Result<(), String> {
    let flags = parse_flags(args, SERVE_FLAGS)?;
    let paths: Vec<&str> = flags
        .iter()
        .filter(|(flag, _)| flag == "--artifact")
        .map(|(_, path)| path.as_str())
        .collect();
    if paths.is_empty() {
        return Err(format!(
            "`serve` needs at least one --artifact <file>\n{USAGE}"
        ));
    }
    let registry = Arc::new(ModelRegistry::new());
    for path in paths {
        let artifact = ModelArtifact::load_json(path).map_err(|e| format!("{path}: {e}"))?;
        let name = artifact.name.clone();
        registry.register(artifact).map_err(|e| e.to_string())?;
        eprintln!("registered model `{name}` from {path}");
    }
    let obs = surf_serve::ObsConfig {
        trace_sample_every: parse(
            flag(&flags, "--trace-sample-every", "16"),
            "--trace-sample-every",
        )?,
        ..surf_serve::ObsConfig::default()
    };
    let config = ServerConfig {
        addr: flag(&flags, "--addr", "127.0.0.1:7878").to_string(),
        workers: parse(flag(&flags, "--workers", "0"), "--workers")?,
        idle_timeout_ms: parse(
            flag(&flags, "--idle-timeout-ms", "5000"),
            "--idle-timeout-ms",
        )?,
        max_connections: parse(flag(&flags, "--max-conns", "1024"), "--max-conns")?,
        max_pending_requests: parse(flag(&flags, "--max-pending", "256"), "--max-pending")?,
        obs,
        ..ServerConfig::default()
    };
    let handle = serve(registry, &config).map_err(|e| e.to_string())?;
    eprintln!(
        "serving {} model(s) on http://{} — {} workers — Ctrl-C to stop",
        handle.context().registry.len().unwrap_or(0),
        handle.addr(),
        handle.context().workers,
    );
    let sampled = match config.obs.trace_sample_every {
        0 => "no request sampled".to_string(),
        n => format!("1 in {n} requests sampled"),
    };
    eprintln!("observability: GET /metrics, GET /trace ({sampled})");
    // Serve until the process is killed.
    loop {
        std::thread::sleep(std::time::Duration::from_secs(3600));
    }
}

fn query(args: &[String]) -> Result<(), String> {
    let flags = parse_flags(args, QUERY_FLAGS)?;
    let addr = flag(&flags, "--addr", "127.0.0.1:7878");
    let model = flag(&flags, "--model", "demo");
    let center = parse_csv(flag(&flags, "--center", "0.5,0.5"), "--center value")?;
    let half = parse_csv(flag(&flags, "--half", "0.1,0.1"), "--half value")?;
    let body = serde_json::to_string(&surf_serve::routes::PredictRequest {
        model: model.to_string(),
        region: Some(surf_serve::routes::RegionSpec {
            center,
            half_lengths: half,
        }),
        regions: None,
    })
    .map_err(|e| e.to_string())?;
    let (status, response) =
        http_request(addr, "POST", "/predict", Some(&body)).map_err(|e| e.to_string())?;
    println!("{response}");
    if status == 200 {
        Ok(())
    } else {
        Err(format!("server answered {status}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parsed(line: &str, known: &str) -> Result<Vec<(String, String)>, String> {
        let args: Vec<String> = line.split_whitespace().map(String::from).collect();
        parse_flags(&args, known)
    }

    #[test]
    fn each_subcommand_accepts_its_own_flags() {
        let line = "--artifact a.json --workers 3 --artifact b.json";
        let flags = parsed(line, SERVE_FLAGS).unwrap();
        assert_eq!(flags.len(), 3);
        assert_eq!(flag(&flags, "--workers", "0"), "3");
        assert_eq!(flag(&flags, "--addr", "127.0.0.1:7878"), "127.0.0.1:7878");
        let flags = parsed("--out m.json --threshold -5", TRAIN_FLAGS).unwrap();
        assert_eq!(flag(&flags, "--threshold", "500"), "-5");
        assert!(parsed("--model demo --half 0.1,0.1", QUERY_FLAGS).is_ok());
    }

    #[test]
    fn unknown_flags_missing_values_and_positionals_are_refused() {
        for case in [
            "--artifact m.json --no-metrics --trace-sample-evry 0 => unknown flag `--no-metrics`",
            "--artifact m.json --trace-sample-evry 0 => unknown flag `--trace-sample-evry`",
            "--artifact m.json --addr => missing value for `--addr`",
            "--artifact --addr 127.0.0.1:0 => missing value for `--artifact`",
            "m.json => unexpected argument `m.json`",
            "--workers 1 --workers 2 => repeated flag `--workers`",
        ] {
            let (line, expected) = case.split_once(" => ").unwrap();
            let err = parsed(line, SERVE_FLAGS).unwrap_err();
            assert!(
                err.starts_with(expected) && err.ends_with(USAGE),
                "{line}: {err}"
            );
        }
        assert!(parsed("--out m.json --artifact x", TRAIN_FLAGS).is_err());
        assert!(parsed("--center 0.5,0.5 stray", QUERY_FLAGS).is_err());
    }
}
