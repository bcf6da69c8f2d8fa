//! Prometheus text exposition: a hand-rolled writer over [`Snapshot`]s, a parser, and a
//! well-formedness checker.
//!
//! The writer emits the version-0.0.4 text format: `# HELP` / `# TYPE` per family, one
//! sample line per series, histograms as cumulative `_bucket{le=...}` lines (ending in
//! `le="+Inf"`) plus `_sum` and `_count`. Every value is an exact integer — the
//! instruments count events and nanoseconds, so nothing is lost to float formatting.
//!
//! [`parse`] and [`validate`] close the loop: the e2e suite verifies that a live
//! `/metrics` body is well-formed (declared types, legal names, escaped labels, cumulative
//! buckets, `_count` = `+Inf`, `_sum` present), and the serve benchmark reads bucket deltas
//! back out of scraped text to attribute latency.

use crate::metrics::{SampleValue, Snapshot};

/// Renders a snapshot in Prometheus text exposition format. Rendering the same snapshot
/// twice is byte-identical (families and series are pre-sorted by [`Snapshot::sort`]).
pub fn render(snapshot: &Snapshot) -> String {
    let mut out = String::new();
    for family in &snapshot.families {
        out.push_str("# HELP ");
        out.push_str(&family.name);
        out.push(' ');
        out.push_str(&escape_help(&family.help));
        out.push('\n');
        out.push_str("# TYPE ");
        out.push_str(&family.name);
        out.push(' ');
        out.push_str(family.kind.type_keyword());
        out.push('\n');
        for series in &family.series {
            let labels: Vec<(&str, &str)> = series
                .labels
                .iter()
                .map(|(k, v)| (k.as_str(), v.as_str()))
                .collect();
            match &series.value {
                SampleValue::Counter(v) => {
                    sample_line(&mut out, &family.name, &labels, None, &v.to_string());
                }
                SampleValue::Gauge(v) => {
                    sample_line(&mut out, &family.name, &labels, None, &v.to_string());
                }
                SampleValue::Histogram(h) => {
                    let bucket_name = format!("{}_bucket", family.name);
                    let mut cumulative = 0u64;
                    for (bound, count) in h.bounds.iter().zip(h.counts.iter()) {
                        cumulative += count;
                        sample_line(
                            &mut out,
                            &bucket_name,
                            &labels,
                            Some(&bound.to_string()),
                            &cumulative.to_string(),
                        );
                    }
                    cumulative += h.counts.last().copied().unwrap_or(0);
                    sample_line(
                        &mut out,
                        &bucket_name,
                        &labels,
                        Some("+Inf"),
                        &cumulative.to_string(),
                    );
                    sample_line(
                        &mut out,
                        &format!("{}_sum", family.name),
                        &labels,
                        None,
                        &h.sum.to_string(),
                    );
                    sample_line(
                        &mut out,
                        &format!("{}_count", family.name),
                        &labels,
                        None,
                        &cumulative.to_string(),
                    );
                }
            }
        }
    }
    out
}

fn sample_line(
    out: &mut String,
    name: &str,
    labels: &[(&str, &str)],
    le: Option<&str>,
    value: &str,
) {
    out.push_str(name);
    if !labels.is_empty() || le.is_some() {
        out.push('{');
        let mut first = true;
        for (k, v) in labels {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(k);
            out.push_str("=\"");
            out.push_str(&escape_label(v));
            out.push('"');
        }
        if let Some(le) = le {
            if !first {
                out.push(',');
            }
            out.push_str("le=\"");
            out.push_str(le);
            out.push('"');
        }
        out.push('}');
    }
    out.push(' ');
    out.push_str(value);
    out.push('\n');
}

/// Escapes a `# HELP` text: backslash and newline.
pub fn escape_help(help: &str) -> String {
    help.replace('\\', "\\\\").replace('\n', "\\n")
}

/// Escapes a label value: backslash, double quote and newline.
pub fn escape_label(value: &str) -> String {
    value
        .replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

/// One parsed sample line.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    /// Full sample name as written (`surf_serve_queue_wait_nanos_bucket`, ...).
    pub name: String,
    /// Label pairs in wire order, values unescaped.
    pub labels: Vec<(String, String)>,
    /// The sample value (`+Inf` parses as [`f64::INFINITY`]).
    pub value: f64,
}

impl Sample {
    /// The value of the label `key`, if present.
    pub fn label(&self, key: &str) -> Option<&str> {
        self.labels
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }
}

/// Parses exposition text into its sample lines (comments skipped).
///
/// # Errors
///
/// A message naming the first malformed line (bad label syntax, unparseable value).
pub fn parse(text: &str) -> Result<Vec<Sample>, String> {
    let mut samples = Vec::new();
    for (index, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        samples.push(parse_sample(line).map_err(|e| format!("line {}: {e}", index + 1))?);
    }
    Ok(samples)
}

fn parse_sample(line: &str) -> Result<Sample, String> {
    let (name_and_labels, value_text) = match line.find('{') {
        Some(open) => {
            let close = line
                .rfind('}')
                .ok_or_else(|| "unterminated label set".to_string())?;
            if close < open {
                return Err("malformed label braces".to_string());
            }
            (
                (&line[..open], Some(&line[open + 1..close])),
                line[close + 1..].trim(),
            )
        }
        None => {
            let mut parts = line.splitn(2, ' ');
            let name = parts.next().unwrap_or_default();
            let rest = parts.next().unwrap_or_default().trim();
            ((name, None), rest)
        }
    };
    let (name, label_text) = name_and_labels;
    let name = name.trim();
    if name.is_empty() {
        return Err("missing sample name".to_string());
    }
    let labels = match label_text {
        Some(text) => parse_labels(text)?,
        None => Vec::new(),
    };
    // The value may be followed by an optional timestamp; take the first token.
    let value_token = value_text.split_whitespace().next().unwrap_or_default();
    let value = parse_value(value_token)
        .ok_or_else(|| format!("unparseable sample value `{value_token}`"))?;
    Ok(Sample {
        name: name.to_string(),
        labels,
        value,
    })
}

fn parse_value(token: &str) -> Option<f64> {
    match token {
        "+Inf" | "Inf" => Some(f64::INFINITY),
        "-Inf" => Some(f64::NEG_INFINITY),
        "NaN" => Some(f64::NAN),
        other => other.parse().ok(),
    }
}

fn parse_labels(text: &str) -> Result<Vec<(String, String)>, String> {
    let mut labels = Vec::new();
    let mut rest = text.trim();
    while !rest.is_empty() {
        let eq = rest
            .find('=')
            .ok_or_else(|| "label without `=`".to_string())?;
        let key = rest[..eq].trim().to_string();
        let after = rest[eq + 1..].trim_start();
        if !after.starts_with('"') {
            return Err(format!("label `{key}` value is not quoted"));
        }
        let mut value = String::new();
        let mut escaped = false;
        let mut consumed = None;
        for (i, ch) in after.char_indices().skip(1) {
            if escaped {
                match ch {
                    'n' => value.push('\n'),
                    '\\' => value.push('\\'),
                    '"' => value.push('"'),
                    other => value.push(other),
                }
                escaped = false;
            } else if ch == '\\' {
                escaped = true;
            } else if ch == '"' {
                consumed = Some(i + ch.len_utf8());
                break;
            } else {
                value.push(ch);
            }
        }
        let end = consumed.ok_or_else(|| format!("label `{key}` value is unterminated"))?;
        labels.push((key, value));
        rest = after[end..].trim_start();
        if let Some(stripped) = rest.strip_prefix(',') {
            rest = stripped.trim_start();
        } else if !rest.is_empty() {
            return Err("labels not comma-separated".to_string());
        }
    }
    Ok(labels)
}

fn legal_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

fn legal_label_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_')
}

/// Checks exposition text for well-formedness: every sample under a `# TYPE`-declared
/// family, legal metric/label names, parseable values, no duplicate series, and — for
/// histograms — ascending cumulative buckets ending in `le="+Inf"`, with `_count` equal
/// to the `+Inf` bucket and `_sum` present.
///
/// # Errors
///
/// Every violation found, one message each (empty text is a violation too: a `/metrics`
/// endpoint that serves nothing is broken, not trivially valid).
pub fn validate(text: &str) -> Result<(), Vec<String>> {
    let mut errors: Vec<String> = Vec::new();
    // family name -> declared kind
    let mut declared: Vec<(String, String)> = Vec::new();
    for (index, line) in text.lines().enumerate() {
        let line_no = index + 1;
        let line = line.trim();
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut parts = rest.split_whitespace();
            let name = parts.next().unwrap_or_default().to_string();
            let kind = parts.next().unwrap_or_default().to_string();
            if !legal_metric_name(&name) {
                errors.push(format!("line {line_no}: illegal family name `{name}`"));
            }
            if !matches!(
                kind.as_str(),
                "counter" | "gauge" | "histogram" | "summary" | "untyped"
            ) {
                errors.push(format!("line {line_no}: unknown TYPE `{kind}`"));
            }
            if declared.iter().any(|(n, _)| *n == name) {
                errors.push(format!(
                    "line {line_no}: family `{name}` TYPE-declared twice"
                ));
            } else {
                declared.push((name, kind));
            }
        }
    }

    let samples = match parse(text) {
        Ok(samples) => samples,
        Err(e) => {
            errors.push(e);
            return Err(errors);
        }
    };
    if samples.is_empty() {
        errors.push("no samples".to_string());
    }

    let mut seen_series: Vec<String> = Vec::new();
    for sample in &samples {
        if !legal_metric_name(&sample.name) {
            errors.push(format!("illegal metric name `{}`", sample.name));
        }
        for (key, _) in &sample.labels {
            if !legal_label_name(key) {
                errors.push(format!("illegal label name `{key}` on `{}`", sample.name));
            }
        }
        if family_of(&sample.name, &declared).is_none() {
            errors.push(format!(
                "sample `{}` has no # TYPE declaration",
                sample.name
            ));
        }
        let mut identity = sample.name.clone();
        let mut labels = sample.labels.clone();
        labels.sort();
        for (k, v) in &labels {
            identity.push_str(&format!(",{k}={v}"));
        }
        if seen_series.contains(&identity) {
            errors.push(format!("duplicate series `{identity}`"));
        } else {
            seen_series.push(identity);
        }
    }

    for (family, kind) in &declared {
        if kind != "histogram" {
            continue;
        }
        validate_histogram(family, &samples, &mut errors);
    }

    if errors.is_empty() {
        Ok(())
    } else {
        Err(errors)
    }
}

/// Maps a sample name back to its declared family (exact for counters/gauges; with the
/// `_bucket`/`_sum`/`_count` suffixes stripped for histograms).
fn family_of<'a>(name: &str, declared: &'a [(String, String)]) -> Option<&'a (String, String)> {
    declared.iter().find(|(family, kind)| {
        if family == name {
            return true;
        }
        if kind == "histogram" || kind == "summary" {
            for suffix in ["_bucket", "_sum", "_count"] {
                if let Some(stripped) = name.strip_suffix(suffix) {
                    if stripped == family {
                        return true;
                    }
                }
            }
        }
        false
    })
}

/// One histogram series group during validation: its non-`le` labels and its
/// `(le, cumulative count)` bucket points.
type BucketGroup = (Vec<(String, String)>, Vec<(f64, f64)>);

fn validate_histogram(family: &str, samples: &[Sample], errors: &mut Vec<String>) {
    let bucket_name = format!("{family}_bucket");
    // Group buckets by their non-`le` label sets.
    let mut groups: Vec<BucketGroup> = Vec::new();
    for sample in samples.iter().filter(|s| s.name == bucket_name) {
        let Some(le) = sample.label("le") else {
            errors.push(format!("`{bucket_name}` sample without an `le` label"));
            continue;
        };
        let Some(bound) = parse_value(le) else {
            errors.push(format!("`{bucket_name}` has unparseable le `{le}`"));
            continue;
        };
        let rest: Vec<(String, String)> = sample
            .labels
            .iter()
            .filter(|(k, _)| k != "le")
            .cloned()
            .collect();
        match groups.iter_mut().find(|(labels, _)| *labels == rest) {
            Some((_, buckets)) => buckets.push((bound, sample.value)),
            None => groups.push((rest, vec![(bound, sample.value)])),
        }
    }
    if groups.is_empty() {
        errors.push(format!("histogram `{family}` has no buckets"));
        return;
    }
    for (labels, buckets) in &groups {
        let tag = if labels.is_empty() {
            family.to_string()
        } else {
            format!("{family}{labels:?}")
        };
        let mut sorted = buckets.clone();
        sorted.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal));
        let mut last = f64::NEG_INFINITY;
        for (_bound, cumulative) in &sorted {
            if *cumulative < last {
                errors.push(format!("histogram `{tag}` buckets are not cumulative"));
                break;
            }
            last = *cumulative;
        }
        let inf = sorted
            .iter()
            .find(|(bound, _)| bound.is_infinite())
            .map(|(_, v)| *v);
        let Some(inf) = inf else {
            errors.push(format!("histogram `{tag}` is missing the +Inf bucket"));
            continue;
        };
        let count = samples
            .iter()
            .find(|s| {
                s.name == format!("{family}_count") && {
                    let mut rest: Vec<(String, String)> = s.labels.clone();
                    rest.retain(|(k, _)| k != "le");
                    rest == *labels
                }
            })
            .map(|s| s.value);
        match count {
            Some(count) if count == inf => {}
            Some(count) => errors.push(format!(
                "histogram `{tag}`: _count {count} != +Inf bucket {inf}"
            )),
            None => errors.push(format!("histogram `{tag}` is missing _count")),
        }
        let has_sum = samples.iter().any(|s| {
            s.name == format!("{family}_sum") && {
                let mut rest: Vec<(String, String)> = s.labels.clone();
                rest.retain(|(k, _)| k != "le");
                rest == *labels
            }
        });
        if !has_sum {
            errors.push(format!("histogram `{tag}` is missing _sum"));
        }
    }
}

/// The cumulative `(le, count)` points of histogram `name` in `samples` (ascending `le`,
/// `+Inf` last). Empty when the histogram is absent.
pub fn bucket_points(samples: &[Sample], name: &str) -> Vec<(f64, f64)> {
    let bucket_name = format!("{name}_bucket");
    let mut points: Vec<(f64, f64)> = samples
        .iter()
        .filter(|s| s.name == bucket_name)
        .filter_map(|s| {
            let le = parse_value(s.label("le")?)?;
            Some((le, s.value))
        })
        .collect();
    points.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal));
    points
}

/// Estimates quantile `q` (in `[0, 1]`) from cumulative `(le, count)` points, Prometheus
/// `histogram_quantile` style: find the bucket the rank falls in and interpolate linearly
/// inside it. Observations in the `+Inf` bucket clamp to the last finite bound. `None`
/// when there are no observations (or no points).
pub fn histogram_quantile(points: &[(f64, f64)], q: f64) -> Option<f64> {
    let total = points.last().map(|(_, count)| *count)?;
    if total <= 0.0 {
        return None;
    }
    let rank = q.clamp(0.0, 1.0) * total;
    let mut previous_bound = 0.0;
    let mut previous_count = 0.0;
    let mut last_finite = 0.0;
    for (bound, cumulative) in points {
        if bound.is_finite() {
            last_finite = *bound;
        }
        if *cumulative >= rank {
            if bound.is_infinite() {
                return Some(last_finite);
            }
            let in_bucket = cumulative - previous_count;
            if in_bucket <= 0.0 {
                return Some(*bound);
            }
            let fraction = (rank - previous_count) / in_bucket;
            return Some(previous_bound + (bound - previous_bound) * fraction);
        }
        previous_bound = *bound;
        previous_count = *cumulative;
    }
    Some(last_finite)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{MetricsRegistry, Snapshot};

    fn sample_snapshot() -> Snapshot {
        let registry = MetricsRegistry::new();
        registry
            .counter("surf_requests_total", "Requests handled")
            .add(7);
        registry
            .counter_with(
                "surf_route_total",
                "Per-route requests",
                &[("route", "/predict")],
            )
            .add(3);
        registry
            .gauge("surf_open_connections", "Open connections")
            .set(2);
        let h = registry.histogram("surf_wait_nanos", "Queue wait", &[10, 100]);
        for v in [5, 50, 500] {
            h.observe(v);
        }
        registry.snapshot()
    }

    #[test]
    fn render_is_pinned_and_deterministic() {
        let text = render(&sample_snapshot());
        let expected = "\
# HELP surf_open_connections Open connections
# TYPE surf_open_connections gauge
surf_open_connections 2
# HELP surf_requests_total Requests handled
# TYPE surf_requests_total counter
surf_requests_total 7
# HELP surf_route_total Per-route requests
# TYPE surf_route_total counter
surf_route_total{route=\"/predict\"} 3
# HELP surf_wait_nanos Queue wait
# TYPE surf_wait_nanos histogram
surf_wait_nanos_bucket{le=\"10\"} 1
surf_wait_nanos_bucket{le=\"100\"} 2
surf_wait_nanos_bucket{le=\"+Inf\"} 3
surf_wait_nanos_sum 555
surf_wait_nanos_count 3
";
        assert_eq!(text, expected);
        assert_eq!(render(&sample_snapshot()), text, "deterministic");
    }

    #[test]
    fn escaping_round_trips_through_the_parser() {
        let mut snapshot = Snapshot::new();
        snapshot.push_counter(
            "surf_esc_total",
            "help with \\ and\nnewline",
            &[("path", "a\"b\\c\nd")],
            1,
        );
        let text = render(&snapshot);
        assert!(text.contains("# HELP surf_esc_total help with \\\\ and\\nnewline"));
        let samples = parse(&text).unwrap();
        assert_eq!(samples[0].label("path").unwrap(), "a\"b\\c\nd");
        validate(&text).unwrap();
    }

    #[test]
    fn rendered_output_validates() {
        validate(&render(&sample_snapshot())).unwrap();
    }

    #[test]
    fn validate_rejects_malformed_documents() {
        // No TYPE declaration.
        let errs = validate("surf_x_total 1\n").unwrap_err();
        assert!(errs.iter().any(|e| e.contains("no # TYPE")), "{errs:?}");
        // Non-cumulative buckets.
        let bad = "\
# TYPE surf_h histogram
surf_h_bucket{le=\"1\"} 5
surf_h_bucket{le=\"2\"} 3
surf_h_bucket{le=\"+Inf\"} 5
surf_h_sum 9
surf_h_count 5
";
        let errs = validate(bad).unwrap_err();
        assert!(
            errs.iter().any(|e| e.contains("not cumulative")),
            "{errs:?}"
        );
        // _count disagreeing with +Inf.
        let bad = "\
# TYPE surf_h histogram
surf_h_bucket{le=\"+Inf\"} 5
surf_h_sum 9
surf_h_count 4
";
        let errs = validate(bad).unwrap_err();
        assert!(errs.iter().any(|e| e.contains("!= +Inf")), "{errs:?}");
        // Missing +Inf bucket and empty text.
        let bad =
            "# TYPE surf_h histogram\nsurf_h_bucket{le=\"1\"} 1\nsurf_h_sum 1\nsurf_h_count 1\n";
        assert!(validate(bad).is_err());
        assert!(validate("").is_err());
        // Duplicate series.
        let bad = "# TYPE surf_c counter\nsurf_c 1\nsurf_c 2\n";
        let errs = validate(bad).unwrap_err();
        assert!(errs.iter().any(|e| e.contains("duplicate")), "{errs:?}");
    }

    #[test]
    fn quantiles_interpolate_within_buckets() {
        // 100 observations: 50 in (0,10], 40 in (10,100], 10 above.
        let points = vec![(10.0, 50.0), (100.0, 90.0), (f64::INFINITY, 100.0)];
        let p50 = histogram_quantile(&points, 0.5).unwrap();
        assert!((p50 - 10.0).abs() < 1e-9, "{p50}");
        let p90 = histogram_quantile(&points, 0.9).unwrap();
        assert!((p90 - 100.0).abs() < 1e-9, "{p90}");
        let p99 = histogram_quantile(&points, 0.99).unwrap();
        assert_eq!(p99, 100.0, "overflow clamps to last finite bound");
        assert_eq!(histogram_quantile(&[(1.0, 0.0)], 0.5), None);
        assert_eq!(histogram_quantile(&[], 0.5), None);
    }

    #[test]
    fn parser_handles_label_edge_cases() {
        let samples = parse("m{a=\"x,y\",b=\"{}\"} 4.5\n").unwrap();
        assert_eq!(samples[0].label("a").unwrap(), "x,y");
        assert_eq!(samples[0].label("b").unwrap(), "{}");
        assert_eq!(samples[0].value, 4.5);
        assert!(parse("m{a=\"unterminated} 1\n").is_err());
        assert!(parse("m{a=nope} 1\n").is_err());
        assert!(parse("m notanumber\n").is_err());
        let inf = parse("m_bucket{le=\"+Inf\"} 3\n").unwrap();
        assert_eq!(inf[0].label("le").unwrap(), "+Inf");
    }
}
