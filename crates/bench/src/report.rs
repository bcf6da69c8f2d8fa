//! Output helpers shared by the experiment binaries: markdown tables on stdout and JSON
//! artifacts under `target/experiments/`.

use std::fs;
use std::path::PathBuf;

use serde::Serialize;

/// Prints a markdown table.
pub fn print_table(title: &str, header: &[&str], rows: &[Vec<String>]) {
    println!("\n## {title}\n");
    println!("| {} |", header.join(" | "));
    println!(
        "|{}|",
        header.iter().map(|_| "---").collect::<Vec<_>>().join("|")
    );
    for row in rows {
        println!("| {} |", row.join(" | "));
    }
}

/// Directory experiment artifacts are written to.
pub fn artifact_dir() -> PathBuf {
    PathBuf::from("target").join("experiments")
}

/// Serializes an experiment result to `target/experiments/<name>.json`. Failures are reported
/// on stderr but never abort the experiment (the stdout table is the primary output).
pub fn write_artifact<T: Serialize>(name: &str, value: &T) {
    let dir = artifact_dir();
    if let Err(e) = fs::create_dir_all(&dir) {
        eprintln!("warning: could not create {}: {e}", dir.display());
        return;
    }
    let path = dir.join(format!("{name}.json"));
    match serde_json::to_string_pretty(value) {
        Ok(json) => {
            if let Err(e) = fs::write(&path, json) {
                eprintln!("warning: could not write {}: {e}", path.display());
            } else {
                println!("\n[artifact written to {}]", path.display());
            }
        }
        Err(e) => eprintln!("warning: could not serialize artifact {name}: {e}"),
    }
}

/// The nearest-rank `p`-quantile of ascending `sorted`: the smallest sample with at least a
/// `p` share of the samples at or below it (NaN when there are none).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = ((sorted.len() as f64) * p).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Formats a duration in seconds with millisecond resolution, the unit Table I uses.
pub fn seconds(duration: std::time::Duration) -> String {
    format!("{:.3}", duration.as_secs_f64())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seconds_formats_with_three_decimals() {
        assert_eq!(seconds(std::time::Duration::from_millis(1_500)), "1.500");
        assert_eq!(seconds(std::time::Duration::from_micros(500)), "0.001");
    }

    #[test]
    fn percentile_takes_the_nearest_rank() {
        let sorted = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(percentile(&sorted, 0.0), 1.0);
        assert_eq!(percentile(&sorted, 0.25), 2.0);
        assert_eq!(percentile(&sorted, 0.5), 3.0);
        assert_eq!(percentile(&sorted, 0.75), 4.0);
        assert_eq!(percentile(&sorted, 0.99), 5.0);
        assert_eq!(percentile(&sorted, 1.0), 5.0);
        assert_eq!(percentile(&[7.0], 0.5), 7.0);
        assert!(percentile(&[], 0.5).is_nan());
    }

    #[test]
    fn artifact_round_trip() {
        #[derive(Serialize)]
        struct Demo {
            value: u32,
        }
        write_artifact("unit_test_artifact", &Demo { value: 7 });
        let path = artifact_dir().join("unit_test_artifact.json");
        let content = std::fs::read_to_string(path).unwrap();
        assert!(content.contains("\"value\": 7"));
    }
}
