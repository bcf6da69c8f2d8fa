//! What a run reports: its stamp, its metrics with units and sample counts, the health of
//! the load generator, and the result line the run ends with.

use serde::Value;

/// One reported figure.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    /// How many measurements the value rests on (1 for a count or a single reading).
    pub samples: usize,
}

impl Metric {
    /// A non-finite value (a figure with nothing to measure, such as the validity of no
    /// regions) rests on no samples.
    pub fn new(name: &'static str, unit: &'static str, value: f64, samples: usize) -> Metric {
        Metric {
            name,
            unit,
            value,
            samples: if value.is_finite() { samples } else { 0 },
        }
    }
}

/// Where and how a result was produced. Results are only comparable when their
/// parallelism and ISA agree.
#[derive(Debug, Clone, PartialEq)]
pub struct Stamp {
    pub workload: String,
    pub seed: u64,
    pub trace: bool,
    pub run_seconds: u64,
    pub parallelism: usize,
    pub isa: &'static str,
    pub commit: String,
    pub profile: &'static str,
}

impl Stamp {
    pub fn new(workload: &str, seed: u64, trace: bool, run_seconds: u64) -> Stamp {
        Stamp {
            workload: workload.to_string(),
            seed,
            trace,
            run_seconds,
            parallelism: std::thread::available_parallelism().map_or(1, |n| n.get()),
            isa: surf_simd::detected().label(),
            commit: commit(),
            profile: if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            },
        }
    }

    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("workload".into(), Value::String(self.workload.clone())),
            ("seed".into(), Value::UInt(self.seed)),
            ("trace".into(), Value::Bool(self.trace)),
            ("run_seconds".into(), Value::UInt(self.run_seconds)),
            ("parallelism".into(), Value::UInt(self.parallelism as u64)),
            ("isa".into(), Value::String(self.isa.into())),
            ("commit".into(), Value::String(self.commit.clone())),
            ("profile".into(), Value::String(self.profile.into())),
        ])
    }
}

/// The commit of the checkout the benchmark runs in, read from `.git` in the working
/// directory; `unknown` outside a git checkout.
fn commit() -> String {
    let read = |path: &str| std::fs::read_to_string(path).ok();
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Some(hash) = read(&format!(".git/{reference}")) {
        return hash.trim().to_string();
    }
    read(".git/packed-refs")
        .and_then(|packed| {
            packed.lines().find_map(|line| {
                let (hash, name) = line.split_once(' ')?;
                (name == reference).then(|| hash.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into())
}

/// A finished run.
pub struct RunResult {
    pub stamp: Stamp,
    pub metrics: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    /// Every failed output check, described.
    pub check_failures: Vec<String>,
    /// Human-readable lines: set-up, load-generator health per rate, notes.
    pub lines: Vec<String>,
    /// The traced run's spans, rendered.
    pub spans: Option<String>,
}

impl RunResult {
    /// Whether every output check passed.
    pub fn correct(&self) -> bool {
        self.check_failures.is_empty()
    }

    /// The complete record written to the results directory.
    pub fn to_json(&self) -> String {
        let value = Value::Object(vec![
            ("stamp".into(), self.stamp.to_value()),
            ("correct".into(), Value::Bool(self.correct())),
            ("attempted".into(), Value::UInt(self.attempted)),
            ("failed".into(), Value::UInt(self.failed)),
            ("metrics".into(), metrics_value(&self.metrics, true)),
            (
                "check_failures".into(),
                Value::Array(
                    self.check_failures
                        .iter()
                        .map(|s| Value::String(s.clone()))
                        .collect(),
                ),
            ),
            (
                "report".into(),
                Value::Array(
                    self.lines
                        .iter()
                        .map(|s| Value::String(s.clone()))
                        .collect(),
                ),
            ),
        ]);
        serde_json::to_string_pretty(&value).unwrap_or_default()
    }

    /// The one-line result the run ends with, carrying the `declared` metrics in their
    /// declared order. A declared metric the run did not produce, or produced without a
    /// finite value, makes it incorrect.
    pub fn result_line(&self, declared: &[&'static str]) -> String {
        let chosen: Vec<Metric> = declared
            .iter()
            .map(|name| {
                self.metrics
                    .iter()
                    .find(|m| m.name == *name)
                    .cloned()
                    .unwrap_or(Metric::new(name, "", f64::NAN, 0))
            })
            .collect();
        let complete = chosen.iter().all(|m| m.value.is_finite());
        let value = Value::Object(vec![
            ("correct".into(), Value::Bool(self.correct() && complete)),
            ("attempted".into(), Value::UInt(self.attempted.max(1))),
            ("failed".into(), Value::UInt(self.failed)),
            ("metrics".into(), metrics_value(&chosen, false)),
        ]);
        serde_json::to_string(&value).unwrap_or_default()
    }

    /// The human-readable report printed before the result line.
    pub fn render(&self) -> String {
        let s = &self.stamp;
        let mut out = format!(
            "surfbench workload={} seed={} trace={} run_seconds={} parallelism={} isa={} commit={} profile={}\n",
            s.workload, s.seed, u8::from(s.trace), s.run_seconds, s.parallelism, s.isa, s.commit, s.profile
        );
        for line in &self.lines {
            out.push_str(line);
            out.push('\n');
        }
        for m in &self.metrics {
            out.push_str(&format!(
                "{:<34} {:>16} {:<6} n={}\n",
                m.name,
                format!("{:.6}", m.value),
                m.unit,
                m.samples
            ));
        }
        out.push_str(&format!(
            "operations attempted={} failed={} failed_frac={:.6}\n",
            self.attempted,
            self.failed,
            self.failed as f64 / self.attempted.max(1) as f64
        ));
        for failure in &self.check_failures {
            out.push_str(&format!("CHECK FAILED: {failure}\n"));
        }
        out
    }
}

/// Metrics as a JSON object keyed by name: value and unit, and the sample count when
/// `with_samples` is set.
fn metrics_value(metrics: &[Metric], with_samples: bool) -> Value {
    Value::Object(
        metrics
            .iter()
            .map(|m| {
                let mut fields = vec![
                    ("value".into(), Value::Float(finite(m.value))),
                    ("unit".into(), Value::String(m.unit.into())),
                ];
                if with_samples {
                    fields.push(("samples".into(), Value::UInt(m.samples as u64)));
                }
                (m.name.to_string(), Value::Object(fields))
            })
            .collect(),
    )
}

/// Non-finite values would not be JSON numbers; they print as 0 (with no samples). A
/// declared one marks the result line incorrect (see [`RunResult::result_line`]).
fn finite(value: f64) -> f64 {
    if value.is_finite() {
        value
    } else {
        0.0
    }
}

/// Compares two result records metric by metric. Refuses (with an error) when their
/// parallelism or ISA differ, since such numbers come from different machines.
pub fn compare(a: &str, b: &str) -> Result<String, String> {
    let parse = |text: &str| serde_json::parse_value(text).map_err(|e| e.to_string());
    let (a, b) = (parse(a)?, parse(b)?);
    let stamp_field = |v: &Value, key: &str| {
        v.get("stamp")
            .and_then(|s| s.get(key))
            .map(|x| serde_json::to_string(x).unwrap_or_default())
            .unwrap_or_default()
    };
    for key in ["parallelism", "isa"] {
        let (x, y) = (stamp_field(&a, key), stamp_field(&b, key));
        if x != y {
            return Err(format!("refusing to compare: {key} differs ({x} vs {y})"));
        }
    }
    let mut out = String::new();
    let (Some(Value::Object(ma)), Some(Value::Object(mb))) = (a.get("metrics"), b.get("metrics"))
    else {
        return Err("a record has no metrics".into());
    };
    for (name, first) in ma {
        let Some((_, second)) = mb.iter().find(|(n, _)| n == name) else {
            continue;
        };
        let read = |v: &Value| v.get("value").and_then(Value::as_f64).unwrap_or(f64::NAN);
        let (x, y) = (read(first), read(second));
        let change = if x != 0.0 {
            (y - x) / x.abs()
        } else {
            f64::NAN
        };
        out.push_str(&format!(
            "{name:<34} {x:>14.6} {y:>14.6} {:>+9.2}%\n",
            100.0 * change
        ));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result(parallelism: usize, value: f64) -> RunResult {
        RunResult {
            stamp: Stamp {
                workload: "mine".into(),
                seed: 1,
                trace: false,
                run_seconds: 5,
                parallelism,
                isa: "avx2",
                commit: "abc".into(),
                profile: "release",
            },
            metrics: vec![Metric::new("mine_s", "s", value, 4)],
            attempted: 10,
            failed: 0,
            check_failures: vec![],
            lines: vec![],
            spans: None,
        }
    }

    #[test]
    fn result_line_has_exactly_the_four_keys_and_full_digits() {
        let line = result(2, 0.123456789012).result_line(&["mine_s"]);
        let parsed = serde_json::parse_value(&line).unwrap();
        let Value::Object(entries) = &parsed else {
            panic!("object");
        };
        let keys: Vec<&str> = entries.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert!(line.contains("\"value\":0.123456789012"));
        assert!(!line.contains("samples"));
        let incomplete = result(2, 1.0).result_line(&["mine_s", "fit_s"]);
        assert!(incomplete.starts_with("{\"correct\":false"));
        // A metric with nothing to measure has no samples and fails only the result line
        // that declares it; a failed check fails the run.
        let unmeasured = result(2, f64::NAN);
        assert_eq!(unmeasured.metrics[0].samples, 0);
        assert!(unmeasured.correct());
        assert!(unmeasured.result_line(&[]).starts_with("{\"correct\":true"));
        assert!(unmeasured
            .result_line(&["mine_s"])
            .starts_with("{\"correct\":false"));
        let mut broken = result(2, 1.0);
        broken.check_failures.push("mismatch".into());
        assert!(!broken.correct());
    }

    #[test]
    fn compare_refuses_different_machines() {
        let a = result(2, 1.0).to_json();
        let b = result(2, 1.1).to_json();
        let table = compare(&a, &b).unwrap();
        assert!(table.contains("mine_s"));
        assert!(table.contains("+10.00%"));
        let c = result(4, 1.0).to_json();
        assert!(compare(&a, &c).unwrap_err().contains("parallelism"));
    }
}
