//! Columnar, quantized-bin feature representation shared across the training stack.
//!
//! Fitting a CART tree the textbook way re-sorts every feature at every node — an
//! O(n·log n·d) cost paid once per node, per tree, per boosting round, per fold, per grid
//! cell. A [`FeatureMatrix`] removes the sort from the hot path: each feature column is
//! quantized **once** into at most `max_bins` ordered bins (edges chosen by equal-frequency
//! quantiles over the column), and every row is stored as a `u16` bin id in a column-major
//! layout. Tree construction then reduces to building per-node *gradient histograms*
//! (count / Σy / Σy² per bin) with one linear pass and sweeping bin boundaries — the
//! LightGBM-class histogram algorithm.
//!
//! The matrix is immutable after construction and is shared **by reference** across every
//! cross-validation fold, grid-search cell and boosting round
//! ([`crate::cv::cross_validate_gbrt`], [`crate::grid::GridSearch::search`],
//! [`crate::gbrt::Gbrt::fit_matrix_threaded`]), so the quantization cost is paid a single
//! time per dataset; [`crate::gbrt::Gbrt::fit`] builds one too.
//!
//! # Bin semantics
//!
//! For each feature the sorted distinct values are grouped into at most `max_bins`
//! contiguous, non-empty bins. Each bin `b` records the smallest ([`FeatureMatrix::bin_lower`])
//! and largest ([`FeatureMatrix::bin_upper`]) raw value it contains; the split threshold
//! between two adjacent bins `b` and `b + 1` is the midpoint
//! `0.5 · (upper(b) + lower(b + 1))`, or `upper(b)` when the two edges are adjacent doubles
//! and the midpoint rounds onto `lower(b + 1)`, so it always strictly separates the bins.
//! When a feature has no more than `max_bins` distinct values every distinct value receives
//! its own bin, and the candidate thresholds coincide **exactly** with the ones the exact
//! (sorting) trainer produces — this is what makes the histogram trainer bit-identical to the
//! exact reference trainer ([`crate::gbrt::Gbrt::fit_exact`]) in that regime (see the
//! `hist_parity` property suite). At `max_bins = MAX_BINS_LIMIT` that covers any feature with
//! at most 65,536 distinct values.
//!
//! Non-finite feature values are rejected at construction with a typed
//! [`MlError::NonFiniteFeature`]: NaNs would silently scramble any ordering-based split
//! search.

use crate::error::{validate_features, MlError};
use crate::parallel::parallel_map;

/// Hard cap on bins per feature: bin ids are stored as `u16`.
pub const MAX_BINS_LIMIT: usize = u16::MAX as usize + 1;

/// Per-feature quantization: the raw-value span of every bin.
#[derive(Debug, Clone, PartialEq)]
struct FeatureCuts {
    /// Smallest raw value in each bin (global over the construction data).
    lowers: Vec<f64>,
    /// Largest raw value in each bin (global over the construction data).
    uppers: Vec<f64>,
}

/// A columnar, quantized-bin view of a training set: per-feature bin edges computed once
/// from quantiles, rows stored as `u16` bin ids.
///
/// Build it once per dataset with [`FeatureMatrix::from_rows`] (or the
/// [`FeatureMatrix::from_rows_threaded`] variant that quantizes features in parallel) and
/// share it by reference across folds, grid cells and boosting rounds. See the
/// [module docs](self) for the bin semantics and the exact-parity guarantee.
#[derive(Debug, Clone, PartialEq)]
pub struct FeatureMatrix {
    rows: usize,
    features: usize,
    /// Column-major bin ids: `bins[f * rows + r]` is the bin of row `r` in feature `f`.
    bins: Vec<u16>,
    cuts: Vec<FeatureCuts>,
}

impl FeatureMatrix {
    /// Quantizes a row-major training set into at most `max_bins` bins per feature.
    ///
    /// Errors on empty/ragged input, non-finite values and `max_bins` outside
    /// `1..=`[`MAX_BINS_LIMIT`].
    pub fn from_rows(features: &[Vec<f64>], max_bins: usize) -> Result<Self, MlError> {
        Self::from_rows_threaded(features, max_bins, 1)
    }

    /// Like [`FeatureMatrix::from_rows`], quantizing features in parallel over up to
    /// `threads` OS threads. The result is identical for every thread count.
    pub fn from_rows_threaded(
        features: &[Vec<f64>],
        max_bins: usize,
        threads: usize,
    ) -> Result<Self, MlError> {
        if !(1..=MAX_BINS_LIMIT).contains(&max_bins) {
            return Err(MlError::InvalidParameter {
                name: "max_bins",
                value: max_bins.to_string(),
            });
        }
        let width = validate_features(features)?;
        let rows = features.len();

        let columns: Vec<usize> = (0..width).collect();
        let quantized = parallel_map(columns, threads, |&f| {
            quantize_column(features, f, max_bins)
        });

        let mut bins = vec![0u16; rows * width];
        let mut cuts = Vec::with_capacity(width);
        for (f, (cut, column_bins)) in quantized.into_iter().enumerate() {
            bins[f * rows..(f + 1) * rows].copy_from_slice(&column_bins);
            cuts.push(cut);
        }

        Ok(Self {
            rows,
            features: width,
            bins,
            cuts,
        })
    }

    /// Number of rows the matrix was built from.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of features (columns).
    pub fn features(&self) -> usize {
        self.features
    }

    /// Number of (non-empty) bins of `feature`.
    pub fn num_bins(&self, feature: usize) -> usize {
        self.cuts[feature].lowers.len()
    }

    /// Bin id of `row` in `feature`.
    #[inline]
    pub fn bin(&self, row: usize, feature: usize) -> u16 {
        self.bins[feature * self.rows + row]
    }

    /// The bin-id column of `feature` (all rows, in row order).
    #[inline]
    pub fn column(&self, feature: usize) -> &[u16] {
        &self.bins[feature * self.rows..(feature + 1) * self.rows]
    }

    /// Smallest raw value bin `bin` of `feature` contains.
    pub fn bin_lower(&self, feature: usize, bin: usize) -> f64 {
        self.cuts[feature].lowers[bin]
    }

    /// Largest raw value bin `bin` of `feature` contains.
    pub fn bin_upper(&self, feature: usize, bin: usize) -> f64 {
        self.cuts[feature].uppers[bin]
    }

    /// The split threshold separating bins `left_bin` and `right_bin` of `feature`
    /// (`left_bin < right_bin`): the midpoint between `left_bin`'s largest and `right_bin`'s
    /// smallest raw value, or `left_bin`'s largest value when that midpoint rounds onto
    /// `right_bin`'s smallest. Rows with `value <= threshold` sit in bins `<= left_bin`, and
    /// rows in bins `>= right_bin` have `value > threshold`.
    pub fn split_threshold(&self, feature: usize, left_bin: usize, right_bin: usize) -> f64 {
        separating_threshold(
            self.bin_upper(feature, left_bin),
            self.bin_lower(feature, right_bin),
        )
    }

    /// Bin a previously unseen `value` would fall into: the first bin whose upper edge is
    /// `>= value`, or the last bin for values beyond the trained range.
    pub fn bin_for(&self, feature: usize, value: f64) -> u16 {
        let uppers = &self.cuts[feature].uppers;
        let b = uppers.partition_point(|&u| u < value);
        b.min(uppers.len() - 1) as u16
    }
}

/// The threshold a split between feature values `lo < hi` tests with `value <= threshold`:
/// their midpoint, or `lo` when the midpoint is not below `hi`. That happens when `lo` and
/// `hi` are adjacent doubles (the midpoint rounds onto `hi` for about one such pair in four)
/// or when `lo + hi` overflows; a midpoint at `hi` would send both sides left.
pub(crate) fn separating_threshold(lo: f64, hi: f64) -> f64 {
    let mid = 0.5 * (lo + hi);
    if mid < hi {
        mid
    } else {
        lo
    }
}

/// Quantizes one column: returns the bin spans and the per-row bin ids.
fn quantize_column(features: &[Vec<f64>], f: usize, max_bins: usize) -> (FeatureCuts, Vec<u16>) {
    let n = features.len();
    let mut sorted: Vec<f64> = features.iter().map(|row| row[f]).collect();
    // Values are validated finite, so total_cmp and partial_cmp order identically.
    sorted.sort_unstable_by(f64::total_cmp);

    // Group into runs of equal values (distinct values with multiplicities).
    let mut distinct: Vec<(f64, usize)> = Vec::new();
    for &v in &sorted {
        match distinct.last_mut() {
            Some((last, count)) if *last == v => *count += 1,
            _ => distinct.push((v, 1)),
        }
    }

    let mut lowers = Vec::new();
    let mut uppers = Vec::new();
    if distinct.len() <= max_bins {
        // One bin per distinct value: candidate split thresholds coincide exactly with the
        // exact trainer's midpoints-between-adjacent-values.
        lowers.extend(distinct.iter().map(|&(v, _)| v));
        uppers.extend(distinct.iter().map(|&(v, _)| v));
    } else {
        // Greedy equal-frequency binning: close a bin once it reaches the target share of
        // the remaining rows, so every bin is non-empty and at most `max_bins` are used.
        let mut remaining_rows = n;
        let mut remaining_bins = max_bins;
        let mut acc = 0usize;
        let mut lo: Option<f64> = None;
        for (i, &(v, count)) in distinct.iter().enumerate() {
            if lo.is_none() {
                lo = Some(v);
            }
            acc += count;
            let target = remaining_rows.div_ceil(remaining_bins);
            let groups_left = distinct.len() - i - 1;
            if (acc >= target && remaining_bins > 1) || groups_left < remaining_bins {
                lowers.push(lo.take().expect("bin has a first value"));
                uppers.push(v);
                remaining_rows -= acc;
                acc = 0;
                remaining_bins -= 1;
                if remaining_bins == 0 {
                    break;
                }
            }
        }
        // The final group always satisfies `groups_left < remaining_bins`, so the loop
        // closes its last bin before exiting.
        debug_assert!(lo.is_none(), "every value group lands in a closed bin");
    }

    // Assign every row to the first bin whose upper edge reaches its value.
    let column_bins: Vec<u16> = features
        .iter()
        .map(|row| {
            let v = row[f];
            uppers.partition_point(|&u| u < v) as u16
        })
        .collect();

    (FeatureCuts { lowers, uppers }, column_bins)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows(columns: &[&[f64]]) -> Vec<Vec<f64>> {
        let n = columns[0].len();
        (0..n)
            .map(|r| columns.iter().map(|c| c[r]).collect())
            .collect()
    }

    #[test]
    fn distinct_values_get_their_own_bins() {
        let x = rows(&[&[3.0, 1.0, 2.0, 1.0, 3.0]]);
        let m = FeatureMatrix::from_rows(&x, 16).unwrap();
        assert_eq!(m.rows(), 5);
        assert_eq!(m.features(), 1);
        assert_eq!(m.num_bins(0), 3);
        let bins: Vec<u16> = (0..5).map(|r| m.bin(r, 0)).collect();
        assert_eq!(bins, vec![2, 0, 1, 0, 2]);
        assert_eq!(m.bin_lower(0, 1), 2.0);
        assert_eq!(m.bin_upper(0, 1), 2.0);
        // Thresholds are the exact trainer's midpoints.
        assert_eq!(m.split_threshold(0, 0, 1), 1.5);
        assert_eq!(m.split_threshold(0, 1, 2), 2.5);
    }

    #[test]
    fn coarse_binning_respects_the_cap_and_keeps_bins_nonempty() {
        let x: Vec<Vec<f64>> = (0..1000).map(|i| vec![i as f64]).collect();
        let m = FeatureMatrix::from_rows(&x, 8).unwrap();
        assert_eq!(m.num_bins(0), 8);
        // Every bin holds some rows, and bins are ordered and contiguous.
        let mut counts = vec![0usize; 8];
        for r in 0..1000 {
            counts[m.bin(r, 0) as usize] += 1;
        }
        assert!(counts.iter().all(|&c| c > 0));
        // Roughly equal-frequency: no bin is more than twice the ideal share.
        assert!(counts.iter().all(|&c| c <= 250), "counts {counts:?}");
        for b in 0..7 {
            assert!(m.bin_upper(0, b) < m.bin_lower(0, b + 1));
        }
    }

    #[test]
    fn binning_is_order_consistent_with_raw_values() {
        let x = rows(&[&[0.9, 0.1, 0.5, 0.3, 0.7, 0.1, 0.5]]);
        let m = FeatureMatrix::from_rows(&x, 4).unwrap();
        for a in 0..x.len() {
            for b in 0..x.len() {
                if x[a][0] < x[b][0] {
                    assert!(m.bin(a, 0) <= m.bin(b, 0));
                }
                if x[a][0] == x[b][0] {
                    assert_eq!(m.bin(a, 0), m.bin(b, 0));
                }
            }
        }
    }

    #[test]
    fn threaded_build_matches_sequential() {
        let x: Vec<Vec<f64>> = (0..500)
            .map(|i| vec![(i % 97) as f64, (i % 13) as f64, i as f64 * 0.25])
            .collect();
        let seq = FeatureMatrix::from_rows(&x, 32).unwrap();
        let par = FeatureMatrix::from_rows_threaded(&x, 32, 4).unwrap();
        assert_eq!(seq, par);
    }

    #[test]
    fn constant_column_yields_a_single_bin() {
        let x = rows(&[
            &[4.2; 10],
            &[1.0, 2.0, 1.0, 2.0, 1.0, 2.0, 1.0, 2.0, 1.0, 2.0],
        ]);
        let m = FeatureMatrix::from_rows(&x, 256).unwrap();
        assert_eq!(m.num_bins(0), 1);
        assert_eq!(m.num_bins(1), 2);
        assert!((0..10).all(|r| m.bin(r, 0) == 0));
    }

    #[test]
    fn bin_for_locates_seen_and_unseen_values() {
        let x = rows(&[&[1.0, 3.0, 5.0]]);
        let m = FeatureMatrix::from_rows(&x, 16).unwrap();
        assert_eq!(m.bin_for(0, 1.0), 0);
        assert_eq!(m.bin_for(0, 3.0), 1);
        assert_eq!(m.bin_for(0, 0.0), 0); // below the trained range
        assert_eq!(m.bin_for(0, 2.0), 1); // in a gap: first bin reaching it
        assert_eq!(m.bin_for(0, 99.0), 2); // beyond the trained range
    }

    #[test]
    fn invalid_inputs_are_rejected() {
        let x = rows(&[&[1.0, 2.0]]);
        assert!(matches!(
            FeatureMatrix::from_rows(&x, 0),
            Err(MlError::InvalidParameter { .. })
        ));
        assert!(matches!(
            FeatureMatrix::from_rows(&x, MAX_BINS_LIMIT + 1),
            Err(MlError::InvalidParameter { .. })
        ));
        assert!(FeatureMatrix::from_rows(&[], 16).is_err());
        let ragged = vec![vec![1.0, 2.0], vec![3.0]];
        assert!(matches!(
            FeatureMatrix::from_rows(&ragged, 16),
            Err(MlError::RaggedFeatures { .. })
        ));
        let nan = vec![vec![1.0], vec![f64::NAN]];
        assert!(matches!(
            FeatureMatrix::from_rows(&nan, 16),
            Err(MlError::NonFiniteFeature { row: 1, column: 0 })
        ));
    }

    #[test]
    fn column_view_matches_bin_accessor() {
        let x: Vec<Vec<f64>> = (0..40).map(|i| vec![(i % 5) as f64, i as f64]).collect();
        let m = FeatureMatrix::from_rows(&x, 8).unwrap();
        for f in 0..2 {
            for (r, &bin) in m.column(f).iter().enumerate() {
                assert_eq!(bin, m.bin(r, f));
            }
        }
    }
}
