//! The benchmark's own arithmetic: order statistics with their sample counts, and
//! quantiles and means of the server's cumulative histograms taken as deltas over a
//! measured window.

/// A summary of one sample set: the value reported plus how many samples it rests on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub value: f64,
    pub samples: usize,
}

/// Nearest-rank percentile (`p` in `[0, 1]`) of `values`, with the sample count.
/// `None` when there are no samples.
pub fn percentile(values: &[f64], p: f64) -> Option<Summary> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((sorted.len() as f64) * p.clamp(0.0, 1.0)).ceil() as usize;
    Some(Summary {
        value: sorted[rank.clamp(1, sorted.len()) - 1],
        samples: sorted.len(),
    })
}

/// Median (mean of the two middle values for an even count), with the sample count.
pub fn median(values: &[f64]) -> Option<Summary> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    let value = if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        0.5 * (sorted[mid - 1] + sorted[mid])
    };
    Some(Summary {
        value,
        samples: sorted.len(),
    })
}

/// Arithmetic mean, with the sample count.
pub fn mean(values: &[f64]) -> Option<Summary> {
    if values.is_empty() {
        return None;
    }
    Some(Summary {
        value: values.iter().sum::<f64>() / values.len() as f64,
        samples: values.len(),
    })
}

/// Percentile `p` of each full `window`-second slice of `(time s, value)` samples over
/// `[0, span)`, and the median of those per-window figures: a tail that one stall inside
/// a single window cannot move. `samples` counts every sample in the full windows.
pub fn windowed_percentile(
    samples: &[(f64, f64)],
    window: f64,
    span: f64,
    p: f64,
) -> Option<Summary> {
    let per_window = per_window(samples, window, span, p);
    median(&per_window).map(|m| Summary {
        value: m.value,
        samples: samples
            .iter()
            .filter(|(at, _)| *at >= 0.0 && *at < window * per_window.len() as f64)
            .count(),
    })
}

/// Percentile `p` of each full `window`-second slice of `samples` over `[0, span)`.
fn per_window(samples: &[(f64, f64)], window: f64, span: f64, p: f64) -> Vec<f64> {
    let windows = (span / window).floor() as usize;
    let mut slices: Vec<Vec<f64>> = vec![Vec::new(); windows];
    for &(at, value) in samples {
        let slot = (at / window).floor();
        if slot >= 0.0 && (slot as usize) < windows {
            slices[slot as usize].push(value);
        }
    }
    slices
        .iter()
        .filter_map(|slice| percentile(slice, p).map(|s| s.value))
        .collect()
}

/// A cumulative histogram as scraped from `/metrics`: `(le, cumulative count)` points in
/// ascending `le` with `+Inf` last, plus the `_sum` and `_count` samples.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Cumulative {
    pub points: Vec<(f64, f64)>,
    pub sum: f64,
    pub count: f64,
}

impl Cumulative {
    /// The observations recorded between `before` and `self` (a later scrape of the same
    /// series). Bucket bounds are fixed at registration, so both scrapes share one grid;
    /// a bound missing from `before` counts as empty there.
    pub fn delta(&self, before: &Cumulative) -> Cumulative {
        let points = self
            .points
            .iter()
            .map(|&(le, count)| {
                let prior = before
                    .points
                    .iter()
                    .find(|&&(b, _)| b == le)
                    .map_or(0.0, |&(_, c)| c);
                (le, (count - prior).max(0.0))
            })
            .collect();
        Cumulative {
            points,
            sum: (self.sum - before.sum).max(0.0),
            count: (self.count - before.count).max(0.0),
        }
    }

    /// Mean observation, or `None` when the window recorded nothing.
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0.0).then(|| self.sum / self.count)
    }

    /// Quantile `q` by linear interpolation inside the bucket the rank falls in (the
    /// Prometheus `histogram_quantile` rule). `None` when the window recorded nothing.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        surf_obs::expo::histogram_quantile(&self.points, q)
    }
}

/// Parses the named histogram out of a Prometheus text scrape, summing every label series
/// of that name (a family split by engine reads as one distribution).
pub fn scrape_histogram(samples: &[surf_obs::expo::Sample], name: &str) -> Cumulative {
    let bucket = format!("{name}_bucket");
    let sum_name = format!("{name}_sum");
    let count_name = format!("{name}_count");
    let mut points: Vec<(f64, f64)> = Vec::new();
    let mut sum = 0.0;
    let mut count = 0.0;
    for sample in samples {
        if sample.name == bucket {
            let Some(le) = sample.label("le").and_then(parse_le) else {
                continue;
            };
            match points.iter_mut().find(|(b, _)| *b == le) {
                Some(point) => point.1 += sample.value,
                None => points.push((le, sample.value)),
            }
        } else if sample.name == sum_name {
            sum += sample.value;
        } else if sample.name == count_name {
            count += sample.value;
        }
    }
    points.sort_by(|a, b| a.0.total_cmp(&b.0));
    Cumulative { points, sum, count }
}

/// Sum of every series of a counter or gauge named `name`.
pub fn scrape_value(samples: &[surf_obs::expo::Sample], name: &str) -> f64 {
    samples
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.value)
        .sum()
}

fn parse_le(text: &str) -> Option<f64> {
    if text == "+Inf" {
        Some(f64::INFINITY)
    } else {
        text.parse().ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank_and_carries_the_count() {
        let values: Vec<f64> = (1..=100).map(f64::from).rev().collect();
        assert_eq!(
            percentile(&values, 0.5),
            Some(Summary {
                value: 50.0,
                samples: 100
            })
        );
        assert_eq!(percentile(&values, 0.99).map(|s| s.value), Some(99.0));
        assert_eq!(percentile(&values, 1.0).map(|s| s.value), Some(100.0));
        assert_eq!(percentile(&values, 0.0).map(|s| s.value), Some(1.0));
        assert_eq!(percentile(&[7.0], 0.99).map(|s| s.value), Some(7.0));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn median_and_mean_carry_counts() {
        assert_eq!(
            median(&[3.0, 1.0, 2.0]),
            Some(Summary {
                value: 2.0,
                samples: 3
            })
        );
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]).map(|s| s.value), Some(2.5));
        assert_eq!(
            mean(&[1.0, 2.0, 6.0]).map(|s| (s.value, s.samples)),
            Some((3.0, 3))
        );
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn windowed_percentile_takes_the_median_of_full_windows() {
        // Three 1 s windows of ten samples; the second holds a stall. A fourth, partial
        // window is ignored.
        let mut samples = Vec::new();
        for w in 0..3 {
            for i in 0..10 {
                let value = if w == 1 {
                    100.0 + i as f64
                } else {
                    (w * 10 + i) as f64
                };
                samples.push((w as f64 + i as f64 / 10.0, value));
            }
        }
        samples.push((3.5, 1e9));
        let p90 = windowed_percentile(&samples, 1.0, 3.5, 0.9).unwrap();
        // Per-window p90s: 8, 108, 28 -> median 28.
        assert_eq!((p90.value, p90.samples), (28.0, 30));
        assert_eq!(windowed_percentile(&samples, 5.0, 3.5, 0.9), None);
    }

    #[test]
    fn histogram_delta_subtracts_bucketwise_and_reads_quantile_and_mean() {
        let before = Cumulative {
            points: vec![(1.0, 2.0), (2.0, 4.0), (4.0, 4.0), (f64::INFINITY, 4.0)],
            sum: 5.0,
            count: 4.0,
        };
        // Ten new observations: four in (0, 1], four in (2, 4], two in (4, +Inf).
        let after = Cumulative {
            points: vec![(1.0, 6.0), (2.0, 8.0), (4.0, 12.0), (f64::INFINITY, 14.0)],
            sum: 5.0 + 34.0,
            count: 14.0,
        };
        let delta = after.delta(&before);
        assert_eq!(
            delta.points,
            vec![(1.0, 4.0), (2.0, 4.0), (4.0, 8.0), (f64::INFINITY, 10.0)]
        );
        assert_eq!(delta.count, 10.0);
        assert_eq!(delta.mean(), Some(3.4));
        // Rank 5 of 10 lies in (2, 4], one quarter of the way through its four samples.
        assert_eq!(delta.quantile(0.5), Some(2.5));
        // Rank 2 of 10 is inside the first bucket, interpolated from 0.
        assert_eq!(delta.quantile(0.2), Some(0.5));
        // The tail past the last finite bound clamps to it.
        assert_eq!(delta.quantile(0.99), Some(4.0));
        // A window with no observations has neither.
        let empty = before.delta(&before);
        assert_eq!(empty.mean(), None);
        assert_eq!(empty.quantile(0.5), None);
    }

    #[test]
    fn scrape_sums_label_series_of_one_histogram() {
        let text = "\
# TYPE h histogram
h_bucket{engine=\"a\",le=\"1\"} 1
h_bucket{engine=\"a\",le=\"+Inf\"} 2
h_sum{engine=\"a\"} 3
h_count{engine=\"a\"} 2
h_bucket{engine=\"b\",le=\"1\"} 0
h_bucket{engine=\"b\",le=\"+Inf\"} 1
h_sum{engine=\"b\"} 4
h_count{engine=\"b\"} 1
# TYPE c counter
c{cause=\"x\"} 2
c{cause=\"y\"} 5
";
        let samples = surf_obs::expo::parse(text).expect("valid exposition");
        let h = scrape_histogram(&samples, "h");
        assert_eq!(h.points, vec![(1.0, 1.0), (f64::INFINITY, 3.0)]);
        assert_eq!((h.sum, h.count), (7.0, 3.0));
        assert_eq!(scrape_value(&samples, "c"), 7.0);
    }
}
