//! The statistics engine: maps a (dataset, region) pair to the scalar statistic `y = f(x, l)`
//! (Definition 2 / Definition 3 of the paper).
//!
//! This module is the expensive "true function" `f` that SuRF's surrogate models replace at
//! mining time. Any statistic — decomposable (COUNT, SUM) or non-decomposable (MEDIAN) — can
//! be expressed; the paper's experiments use the *density* (point count) and *aggregate*
//! (average) statistics plus the class-ratio statistic of the Human-Activity use case.

use serde::{Deserialize, Serialize};

use crate::dataset::Dataset;
use crate::error::DataError;
use crate::index::{GridIndex, IndexKind};
use crate::region::Region;

/// Which values a value-aggregating statistic operates on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Target {
    /// One of the `d` data dimensions. Per Definition 2, the targeted dimension is *not*
    /// constrained by the region when evaluating the statistic.
    Dimension(usize),
    /// The dataset's measure column (e.g. a crime index), which never bounds regions.
    Measure,
}

/// A statistic of interest `y = f(x, l)` extracted from the data vectors inside a region.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Statistic {
    /// Number of data vectors inside the region (the paper's *density* statistic).
    Count,
    /// Number of data vectors per unit of region volume.
    CountPerVolume,
    /// Average of the target values over the region (the paper's *aggregate* statistic).
    Average(Target),
    /// Sum of the target values over the region.
    Sum(Target),
    /// Minimum of the target values over the region.
    Min(Target),
    /// Maximum of the target values over the region.
    Max(Target),
    /// Population variance of the target values over the region.
    Variance(Target),
    /// Median of the target values over the region (a non-decomposable statistic).
    Median(Target),
    /// Fraction of points inside the region carrying the given class label (the Human-Activity
    /// use case: ratio of `activity = stand`).
    Ratio {
        /// The class label whose frequency is measured.
        label: u32,
    },
}

impl Statistic {
    /// Convenience constructor: average of a data dimension.
    pub fn average_of_dimension(dimension: usize) -> Self {
        Statistic::Average(Target::Dimension(dimension))
    }

    /// Convenience constructor: average of the measure column.
    pub fn average_of_measure() -> Self {
        Statistic::Average(Target::Measure)
    }

    /// Whether this statistic needs the dataset's measure column.
    pub fn needs_measure(&self) -> bool {
        matches!(
            self,
            Statistic::Average(Target::Measure)
                | Statistic::Sum(Target::Measure)
                | Statistic::Min(Target::Measure)
                | Statistic::Max(Target::Measure)
                | Statistic::Variance(Target::Measure)
                | Statistic::Median(Target::Measure)
        )
    }

    /// Whether this statistic needs the dataset's label column.
    pub fn needs_labels(&self) -> bool {
        matches!(self, Statistic::Ratio { .. })
    }

    /// Value reported for an empty region. `Some` for statistics with a natural neutral value
    /// (counts and ratios), `None` for undefined aggregates.
    pub fn empty_value(&self) -> Option<f64> {
        match self {
            Statistic::Count | Statistic::CountPerVolume | Statistic::Ratio { .. } => Some(0.0),
            _ => None,
        }
    }

    /// Evaluates the statistic over the subset of `dataset` covered by `region`.
    ///
    /// Returns `Ok(None)` when the region contains no points and the statistic is undefined on
    /// empty sets (averages, medians, ...). Count-like statistics return `Ok(Some(0.0))`.
    ///
    /// Evaluation is served by the dataset's spatial index (see [`crate::index`]) when one is
    /// configured — the default — making the cost sublinear in the dataset size; with
    /// [`IndexKind::Scan`] it streams a full column scan. Count-like statistics (Count,
    /// CountPerVolume, Ratio) and Min/Max/Median are identical between the two paths;
    /// Sum/Average/Variance differ only by floating-point re-association of per-cell partial
    /// sums (≲ 1e-12 relative).
    pub fn evaluate(&self, dataset: &Dataset, region: &Region) -> Result<Option<f64>, DataError> {
        self.evaluate_with(dataset, region, dataset.index_kind())
    }

    /// Like [`Statistic::evaluate`], with an explicit index choice overriding the dataset's
    /// default (the [`crate::index::IndexKind`] knob of the pipeline configuration).
    pub fn evaluate_with(
        &self,
        dataset: &Dataset,
        region: &Region,
        kind: IndexKind,
    ) -> Result<Option<f64>, DataError> {
        self.validate(dataset, region)?;
        match dataset.region_index(kind) {
            Some(index) => self.evaluate_indexed(dataset, index.as_ref(), region),
            None => self.evaluate_scan_unchecked(dataset, region),
        }
    }

    /// Evaluates the statistic with a full streaming column scan, bypassing any index — the
    /// reference path the property tests compare the indexed path against.
    pub fn evaluate_scan(
        &self,
        dataset: &Dataset,
        region: &Region,
    ) -> Result<Option<f64>, DataError> {
        self.validate(dataset, region)?;
        self.evaluate_scan_unchecked(dataset, region)
    }

    /// Validates dimensionality and label/measure requirements up front, so the index and
    /// scan paths share identical error behaviour.
    fn validate(&self, dataset: &Dataset, region: &Region) -> Result<(), DataError> {
        if region.dimensions() != dataset.dimensions() {
            return Err(DataError::DimensionMismatch {
                expected: dataset.dimensions(),
                actual: region.dimensions(),
            });
        }
        if let Some(dim) = self.ignored_dimension() {
            if dim >= dataset.dimensions() {
                return Err(DataError::UnknownDimension {
                    dimension: dim,
                    dimensions: dataset.dimensions(),
                });
            }
        }
        if self.needs_labels() && dataset.labels().is_none() {
            return Err(DataError::MissingLabels);
        }
        match self.target() {
            Some(Target::Measure) if dataset.measure().is_none() => Err(DataError::MissingMeasure),
            Some(Target::Dimension(d)) if d >= dataset.dimensions() => {
                Err(DataError::UnknownDimension {
                    dimension: d,
                    dimensions: dataset.dimensions(),
                })
            }
            _ => Ok(()),
        }
    }

    /// The grid-accelerated evaluation path. Fully covered cells are answered from
    /// precomputed summaries; only boundary cells stream per-row filters. No intermediate
    /// index vector is allocated on the count/sum paths (MEDIAN materializes its values, as
    /// the scan path must too).
    fn evaluate_indexed(
        &self,
        dataset: &Dataset,
        index: &GridIndex,
        region: &Region,
    ) -> Result<Option<f64>, DataError> {
        let ignored = self.ignored_dimension();
        match self {
            Statistic::Count => Ok(Some(index.count(dataset, region, ignored) as f64)),
            Statistic::CountPerVolume => {
                let volume = region.volume();
                if volume <= 0.0 {
                    Ok(Some(0.0))
                } else {
                    Ok(Some(index.count(dataset, region, ignored) as f64 / volume))
                }
            }
            Statistic::Ratio { label } => {
                let (matching, total) = index.label_count(dataset, region, ignored, *label);
                if total == 0 {
                    Ok(Some(0.0))
                } else {
                    Ok(Some(matching as f64 / total as f64))
                }
            }
            Statistic::Median(target) => {
                let mut values = Vec::new();
                index.values_in(dataset, region, ignored, *target, &mut values)?;
                if values.is_empty() {
                    Ok(None)
                } else {
                    Ok(Some(self.aggregate(&values)))
                }
            }
            Statistic::Average(target)
            | Statistic::Sum(target)
            | Statistic::Min(target)
            | Statistic::Max(target)
            | Statistic::Variance(target) => {
                let agg = index.moments(dataset, region, ignored, *target)?;
                if agg.count == 0 {
                    return Ok(None);
                }
                let n = agg.count as f64;
                Ok(Some(match self {
                    Statistic::Average(_) => agg.sum / n,
                    Statistic::Sum(_) => agg.sum,
                    Statistic::Min(_) => agg.min,
                    Statistic::Max(_) => agg.max,
                    // Population variance from the centered second moment (Welford/Chan);
                    // clamped because merging can dip a few ulps below zero.
                    Statistic::Variance(_) => (agg.m2 / n).max(0.0),
                    _ => unreachable!("only moment statistics reach this arm"),
                }))
            }
        }
    }

    /// The streaming scan path: one pass over the columns with the membership predicate,
    /// no intermediate index vector on the count-like paths. Aggregates collect their target
    /// values (in ascending row order, exactly like the original implementation) and reuse
    /// [`Statistic::aggregate`].
    fn evaluate_scan_unchecked(
        &self,
        dataset: &Dataset,
        region: &Region,
    ) -> Result<Option<f64>, DataError> {
        let ignored = self.ignored_dimension();
        match self {
            Statistic::Count => {
                let mut count = 0usize;
                dataset.for_each_row_in(region, ignored, |_| count += 1);
                Ok(Some(count as f64))
            }
            Statistic::CountPerVolume => {
                let volume = region.volume();
                if volume <= 0.0 {
                    return Ok(Some(0.0));
                }
                let mut count = 0usize;
                dataset.for_each_row_in(region, ignored, |_| count += 1);
                Ok(Some(count as f64 / volume))
            }
            Statistic::Ratio { label } => {
                let labels = dataset.labels().ok_or(DataError::MissingLabels)?;
                let (mut matching, mut total) = (0usize, 0usize);
                dataset.for_each_row_in(region, ignored, |i| {
                    total += 1;
                    if labels[i] == *label {
                        matching += 1;
                    }
                });
                if total == 0 {
                    Ok(Some(0.0))
                } else {
                    Ok(Some(matching as f64 / total as f64))
                }
            }
            Statistic::Average(target)
            | Statistic::Sum(target)
            | Statistic::Min(target)
            | Statistic::Max(target)
            | Statistic::Variance(target)
            | Statistic::Median(target) => {
                let column = match target {
                    Target::Dimension(d) => dataset.column(*d)?,
                    Target::Measure => dataset.measure().ok_or(DataError::MissingMeasure)?,
                };
                let mut values = Vec::new();
                dataset.for_each_row_in(region, ignored, |i| values.push(column[i]));
                if values.is_empty() {
                    return Ok(None);
                }
                Ok(Some(self.aggregate(&values)))
            }
        }
    }

    /// Evaluates the statistic, substituting `default` when the statistic is undefined on the
    /// (empty) region.
    pub fn evaluate_or(
        &self,
        dataset: &Dataset,
        region: &Region,
        default: f64,
    ) -> Result<f64, DataError> {
        Ok(self.evaluate(dataset, region)?.unwrap_or(default))
    }

    /// The aggregation target of a value-aggregating statistic, `None` for count-likes.
    fn target(&self) -> Option<Target> {
        match self {
            Statistic::Average(t)
            | Statistic::Sum(t)
            | Statistic::Min(t)
            | Statistic::Max(t)
            | Statistic::Variance(t)
            | Statistic::Median(t) => Some(*t),
            _ => None,
        }
    }

    fn ignored_dimension(&self) -> Option<usize> {
        match self.target() {
            Some(Target::Dimension(d)) => Some(d),
            _ => None,
        }
    }

    fn aggregate(&self, values: &[f64]) -> f64 {
        debug_assert!(!values.is_empty());
        match self {
            Statistic::Average(_) => values.iter().sum::<f64>() / values.len() as f64,
            Statistic::Sum(_) => values.iter().sum(),
            Statistic::Min(_) => values.iter().copied().fold(f64::INFINITY, f64::min),
            Statistic::Max(_) => values.iter().copied().fold(f64::NEG_INFINITY, f64::max),
            Statistic::Variance(_) => {
                let mean = values.iter().sum::<f64>() / values.len() as f64;
                values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / values.len() as f64
            }
            Statistic::Median(_) => {
                let mut sorted = values.to_vec();
                sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
                let mid = sorted.len() / 2;
                if sorted.len() % 2 == 1 {
                    sorted[mid]
                } else {
                    0.5 * (sorted[mid - 1] + sorted[mid])
                }
            }
            // Count-like statistics never reach aggregate().
            _ => unreachable!("aggregate called on a count-like statistic"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dataset() -> Dataset {
        // 6 points in [0,1]^2, measure = 10 * x, labels alternate 0/1.
        let xs = vec![0.1, 0.2, 0.3, 0.6, 0.7, 0.8];
        let ys = vec![0.1, 0.2, 0.3, 0.6, 0.7, 0.8];
        let measure: Vec<f64> = xs.iter().map(|x| 10.0 * x).collect();
        Dataset::from_columns(vec![xs, ys])
            .unwrap()
            .with_labels(vec![0, 1, 0, 1, 0, 1])
            .unwrap()
            .with_measure("m", measure)
            .unwrap()
    }

    fn left_half() -> Region {
        Region::from_bounds(&[0.0, 0.0], &[0.45, 0.45]).unwrap()
    }

    #[test]
    fn count_and_count_per_volume() {
        let d = dataset();
        let r = left_half();
        assert_eq!(Statistic::Count.evaluate(&d, &r).unwrap(), Some(3.0));
        let cpv = Statistic::CountPerVolume.evaluate(&d, &r).unwrap().unwrap();
        assert!((cpv - 3.0 / (0.45 * 0.45)).abs() < 1e-9);
    }

    #[test]
    fn empty_region_behaviour() {
        let d = dataset();
        let empty = Region::from_bounds(&[0.90, 0.90], &[0.95, 0.95]).unwrap();
        assert_eq!(Statistic::Count.evaluate(&d, &empty).unwrap(), Some(0.0));
        assert_eq!(
            Statistic::average_of_measure()
                .evaluate(&d, &empty)
                .unwrap(),
            None
        );
        assert_eq!(
            Statistic::average_of_measure()
                .evaluate_or(&d, &empty, -1.0)
                .unwrap(),
            -1.0
        );
        assert_eq!(
            Statistic::Ratio { label: 1 }.evaluate(&d, &empty).unwrap(),
            Some(0.0)
        );
    }

    #[test]
    fn average_sum_min_max_variance_median_of_measure() {
        let d = dataset();
        let r = left_half();
        // Measure values inside: 1.0, 2.0, 3.0.
        let avg = Statistic::average_of_measure().evaluate(&d, &r).unwrap();
        assert_eq!(avg, Some(2.0));
        assert_eq!(
            Statistic::Sum(Target::Measure).evaluate(&d, &r).unwrap(),
            Some(6.0)
        );
        assert_eq!(
            Statistic::Min(Target::Measure).evaluate(&d, &r).unwrap(),
            Some(1.0)
        );
        assert_eq!(
            Statistic::Max(Target::Measure).evaluate(&d, &r).unwrap(),
            Some(3.0)
        );
        let var = Statistic::Variance(Target::Measure)
            .evaluate(&d, &r)
            .unwrap()
            .unwrap();
        assert!((var - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(
            Statistic::Median(Target::Measure).evaluate(&d, &r).unwrap(),
            Some(2.0)
        );
    }

    #[test]
    fn median_of_even_count() {
        let d = dataset();
        let r = Region::from_bounds(&[0.0, 0.0], &[0.65, 0.65]).unwrap();
        // Measure values inside: 1,2,3,6 -> median 2.5.
        assert_eq!(
            Statistic::Median(Target::Measure).evaluate(&d, &r).unwrap(),
            Some(2.5)
        );
    }

    #[test]
    fn dimension_target_ignores_its_own_dimension() {
        let d = dataset();
        // Region narrow in y but the statistic averages dimension 1 (y), so membership is only
        // constrained on x: points x <= 0.45 are 0.1, 0.2, 0.3 with y values 0.1, 0.2, 0.3.
        let r = Region::from_bounds(&[0.0, 0.0], &[0.45, 0.01]).unwrap();
        let avg_y = Statistic::average_of_dimension(1).evaluate(&d, &r).unwrap();
        assert!((avg_y.unwrap() - 0.2).abs() < 1e-12);
        // With a dimension-0 target instead, dimension 1's narrow bound applies and only the
        // point (0.1, 0.1) falls inside... none actually because y <= 0.01 excludes it? y=0.1 > 0.01.
        let avg_x = Statistic::average_of_dimension(0).evaluate(&d, &r).unwrap();
        assert!(avg_x.is_none());
    }

    #[test]
    fn ratio_statistic() {
        let d = dataset();
        let r = left_half();
        // Labels inside: 0, 1, 0 -> ratio of label 1 is 1/3.
        let ratio = Statistic::Ratio { label: 1 }.evaluate(&d, &r).unwrap();
        assert!((ratio.unwrap() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn ratio_requires_labels_and_measure_requires_measure() {
        let bare = Dataset::from_columns(vec![vec![0.1, 0.2], vec![0.1, 0.2]]).unwrap();
        let r = Region::unit_cube(2);
        assert!(Statistic::Ratio { label: 1 }.evaluate(&bare, &r).is_err());
        assert!(Statistic::average_of_measure().evaluate(&bare, &r).is_err());
    }

    #[test]
    fn unknown_dimension_is_an_error() {
        let d = dataset();
        let r = left_half();
        assert!(Statistic::average_of_dimension(9).evaluate(&d, &r).is_err());
    }

    #[test]
    fn missing_measure_reports_the_measure_variant() {
        let bare = Dataset::from_columns(vec![vec![0.1, 0.2], vec![0.1, 0.2]]).unwrap();
        let r = Region::unit_cube(2);
        assert_eq!(
            Statistic::average_of_measure().evaluate(&bare, &r),
            Err(DataError::MissingMeasure)
        );
        assert_eq!(
            Statistic::Ratio { label: 1 }.evaluate(&bare, &r),
            Err(DataError::MissingLabels)
        );
    }

    #[test]
    fn indexed_and_scan_paths_agree_on_every_variant() {
        use crate::index::IndexKind;
        let d = dataset();
        let regions = [
            left_half(),
            Region::from_bounds(&[0.0, 0.0], &[0.65, 0.65]).unwrap(),
            Region::from_bounds(&[0.90, 0.90], &[0.95, 0.95]).unwrap(), // empty
            Region::from_bounds(&[0.0, 0.0], &[0.45, 0.01]).unwrap(),   // ignored-dim case
        ];
        let statistics = [
            Statistic::Count,
            Statistic::CountPerVolume,
            Statistic::Ratio { label: 1 },
            Statistic::average_of_measure(),
            Statistic::average_of_dimension(1),
            Statistic::Sum(Target::Measure),
            Statistic::Min(Target::Dimension(0)),
            Statistic::Max(Target::Measure),
            Statistic::Variance(Target::Measure),
            Statistic::Median(Target::Measure),
        ];
        for statistic in statistics {
            for region in &regions {
                let scan = statistic.evaluate_scan(&d, region).unwrap();
                let indexed = statistic
                    .evaluate_with(&d, region, IndexKind::Grid)
                    .unwrap();
                match (scan, indexed) {
                    (None, None) => {}
                    (Some(a), Some(b)) => assert!(
                        (a - b).abs() <= 1e-9 * (1.0 + a.abs()),
                        "{statistic:?}: scan {a} vs indexed {b}"
                    ),
                    other => panic!("{statistic:?}: definedness mismatch {other:?}"),
                }
            }
        }
    }

    #[test]
    fn needs_flags_and_empty_values() {
        assert!(Statistic::Ratio { label: 0 }.needs_labels());
        assert!(!Statistic::Count.needs_labels());
        assert!(Statistic::average_of_measure().needs_measure());
        assert!(!Statistic::average_of_dimension(0).needs_measure());
        assert_eq!(Statistic::Count.empty_value(), Some(0.0));
        assert_eq!(Statistic::average_of_measure().empty_value(), None);
    }
}
