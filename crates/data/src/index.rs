//! The spatial index making region-statistic evaluation sublinear in the dataset size.
//!
//! The ground-truth path of the reproduction — [`crate::statistic::Statistic::evaluate`] —
//! originally paid a full `O(N·d)` column scan per region. Workload generation, the Naive and
//! PRIM baselines, accuracy scoring and the comparison harness issue thousands of such
//! evaluations, so this module provides [`GridIndex`]: a uniform grid whose every cell stores
//! its row list **and** precomputed aggregate summaries (row count, per-label counts,
//! per-column count / sum / centered second moment / min / max), so cells fully covered by a
//! query region answer Count / Ratio / Sum / Average / Min / Max / Variance without touching a
//! single row.
//!
//! Only *partially* covered cells fall back to streaming per-row filters, using the **exact
//! same inclusive-bounds predicate** as the scan path, and full coverage is decided against the
//! cell's *data-derived* bounding box (the per-column min/max of the points it actually holds)
//! rather than its geometric edges. Count-like statistics are therefore bit-identical to the
//! scan path; sum-like aggregates differ only by floating-point re-association (≲ 1e-12
//! relative — see the `index_equivalence` property tests).
//!
//! The index never allocates per-row scratch vectors at query time: counting and moment
//! queries stream, and only `values_in` (used by the non-decomposable MEDIAN) materializes
//! values.

use serde::{Deserialize, Serialize};

use crate::dataset::Dataset;
use crate::error::DataError;
use crate::region::Region;
use crate::statistic::Target;

/// Which spatial index [`crate::statistic::Statistic::evaluate`] consults.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum IndexKind {
    /// No index: always run the streaming column scan (the original behaviour).
    Scan,
    /// Uniform grid with per-cell aggregate summaries ([`GridIndex`]).
    #[default]
    Grid,
}

impl IndexKind {
    /// Human-readable name, as used by the benches and artifacts.
    pub fn name(&self) -> &'static str {
        match self {
            IndexKind::Scan => "scan",
            IndexKind::Grid => "grid",
        }
    }
}

/// Precomputed aggregate of one column over one grid cell: count, sum, *centered* second
/// moment and extrema.
///
/// The second moment is kept centered (`m2 = Σ (v − mean)²`, maintained with Welford's
/// recurrence and merged with Chan's pairwise formula) rather than as a raw sum of squares:
/// `Σv² / n − mean²` cancels catastrophically on offset data (e.g. values near 1e8 with
/// small spread), while the centered form matches the scan path's two-pass variance to
/// floating-point re-association accuracy.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ColumnMoments {
    /// Number of values aggregated.
    pub count: usize,
    /// Sum of the values.
    pub sum: f64,
    /// Centered second moment `Σ (v − mean)²`.
    pub m2: f64,
    /// Minimum value (`+∞` when empty).
    pub min: f64,
    /// Maximum value (`-∞` when empty).
    pub max: f64,
}

impl Default for ColumnMoments {
    fn default() -> Self {
        Self {
            count: 0,
            sum: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }
}

impl ColumnMoments {
    /// Folds one value in (Welford's recurrence for the centered second moment).
    fn add(&mut self, value: f64) {
        let mean_old = if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        };
        self.count += 1;
        self.sum += value;
        let mean_new = self.sum / self.count as f64;
        self.m2 += (value - mean_old) * (value - mean_new);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Merges another summary in (Chan et al.'s pairwise update for the second moment).
    fn merge(&mut self, other: &ColumnMoments) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        let n1 = self.count as f64;
        let n2 = other.count as f64;
        let delta = other.sum / n2 - self.sum / n1;
        self.m2 += other.m2 + delta * delta * n1 * n2 / (n1 + n2);
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// Streaming aggregate of a target column over a query region — the same shape as
/// [`ColumnMoments`], accumulated across fully covered cells and boundary rows.
pub type Aggregates = ColumnMoments;

/// Resolves an aggregation target to a column slice of the dataset.
fn target_column(dataset: &Dataset, target: Target) -> Result<&[f64], DataError> {
    match target {
        Target::Dimension(d) => dataset.column(d),
        Target::Measure => dataset.measure().ok_or(DataError::MissingMeasure),
    }
}

/// The column-summary slot a target maps to (data dimensions first, measure last).
fn target_slot(dims: usize, target: Target) -> usize {
    match target {
        Target::Dimension(d) => d,
        Target::Measure => dims,
    }
}

/// The exact row-membership predicate shared by the scan path
/// (`Dataset::for_each_row_in`) and the grid's boundary-cell filter — a single definition so
/// the bit-identical-to-scan guarantee cannot drift. Written as
/// `lower ≤ v ∧ v ≤ upper` so NaN bounds or values exclude the row.
#[inline]
pub(crate) fn row_in_region(
    columns: &[Vec<f64>],
    row: usize,
    lower: &[f64],
    upper: &[f64],
    ignored: Option<usize>,
) -> bool {
    for (k, column) in columns.iter().enumerate() {
        if Some(k) == ignored {
            continue;
        }
        let v = column[row];
        if !(lower[k] <= v && v <= upper[k]) {
            return false;
        }
    }
    true
}

/// One step of a grid traversal: either a fully covered cell (consume its summary) or a
/// single boundary row that passed the exact membership predicate.
enum Visit<'a> {
    /// A fully covered, non-empty cell.
    Full(&'a CellSummary),
    /// One surviving row of a partially covered cell.
    Row(usize),
}

/// Sorted distinct labels of a dataset (the dense slot mapping of the label histograms).
fn label_slots(dataset: &Dataset) -> Vec<u32> {
    match dataset.labels() {
        Some(labels) => {
            let mut slots: Vec<u32> = labels.to_vec();
            slots.sort_unstable();
            slots.dedup();
            slots
        }
        None => Vec::new(),
    }
}

/// Per-cell aggregate summary: row list, label histogram and column moments.
#[derive(Debug, Clone, Default)]
struct CellSummary {
    /// Rows assigned to the cell, in ascending row order.
    rows: Vec<u32>,
    /// Per-label row counts, indexed by the dense label slot.
    label_counts: Vec<u32>,
    /// Per-column moments; data dimensions first, then the measure column when present.
    moments: Vec<ColumnMoments>,
    /// Whether any row carries a NaN coordinate. NaN is invisible to the min/max bounding
    /// box (the fold ignores it), so such cells must never be classified fully covered —
    /// their rows go through the exact streamed predicate, which excludes NaN rows just
    /// like the scan.
    has_nan_coordinate: bool,
}

impl CellSummary {
    /// Whether every row of the cell lies inside `[lower, upper]` on all non-ignored
    /// dimensions — decided against the cell's *data-derived* bounding box, so the answer is
    /// exact regardless of floating-point bin-edge effects.
    fn fully_covered(
        &self,
        lower: &[f64],
        upper: &[f64],
        dims: usize,
        ignored: Option<usize>,
    ) -> bool {
        if self.has_nan_coordinate {
            return false;
        }
        for k in 0..dims {
            if Some(k) == ignored {
                continue;
            }
            let m = &self.moments[k];
            if !(lower[k] <= m.min && m.max <= upper[k]) {
                return false;
            }
        }
        true
    }
}

/// A uniform grid over the data's bounding box with per-cell aggregate summaries.
///
/// Cell resolution is chosen automatically from `N` and `d` (targeting ~16 rows per cell,
/// capped at 64 bins per dimension and 65 536 cells overall).
///
/// All query methods take the owning [`Dataset`] so that boundary cells can stream the raw
/// column values; the index must only ever be queried with the dataset it was built from
/// (the per-dataset cache in [`Dataset::region_index`] guarantees this). `ignored` excludes
/// one dimension from the region membership test (Definition 2's aggregate-statistic
/// variant). Callers are expected to have validated region dimensionality, the ignored
/// dimension and label/measure presence.
#[derive(Debug, Clone)]
pub struct GridIndex {
    dims: usize,
    rows: usize,
    /// Bins per dimension.
    bins: Vec<usize>,
    /// Lower data bound per dimension.
    lower: Vec<f64>,
    /// Upper data bound per dimension.
    upper: Vec<f64>,
    /// `bins / (upper − lower)` per dimension (0 for degenerate dimensions).
    inv_width: Vec<f64>,
    /// Row-major strides over the cell array.
    strides: Vec<usize>,
    cells: Vec<CellSummary>,
    label_slots: Vec<u32>,
}

impl GridIndex {
    /// Builds a grid index over the dataset.
    pub fn build(dataset: &Dataset) -> Self {
        let dims = dataset.dimensions();
        let rows = dataset.len();
        let columns = dataset.raw_columns();

        // Data bounding box.
        let mut lower = vec![f64::INFINITY; dims];
        let mut upper = vec![f64::NEG_INFINITY; dims];
        for (k, column) in columns.iter().enumerate() {
            for &v in column {
                lower[k] = lower[k].min(v);
                upper[k] = upper[k].max(v);
            }
        }

        let per_dim = Self::bins_per_dimension(rows, dims);
        let mut bins = Vec::with_capacity(dims);
        let mut inv_width = Vec::with_capacity(dims);
        for k in 0..dims {
            let side = upper[k] - lower[k];
            if rows == 0 || !side.is_finite() || side <= 0.0 {
                bins.push(1);
                inv_width.push(0.0);
            } else {
                bins.push(per_dim);
                inv_width.push(per_dim as f64 / side);
            }
        }
        let mut strides = vec![1usize; dims];
        for k in (0..dims.saturating_sub(1)).rev() {
            strides[k] = strides[k + 1] * bins[k + 1];
        }
        let total_cells: usize = bins.iter().product();

        let label_slots = label_slots(dataset);
        let labels = dataset.labels();
        let measure = dataset.measure();
        let cols = dims + usize::from(measure.is_some());

        let mut cells = vec![CellSummary::default(); total_cells];
        for cell in &mut cells {
            cell.label_counts = vec![0; label_slots.len()];
            cell.moments = vec![ColumnMoments::default(); cols];
        }

        for row in 0..rows {
            let mut id = 0usize;
            for k in 0..dims {
                let t = (columns[k][row] - lower[k]) * inv_width[k];
                let bin = (t as usize).min(bins[k] - 1);
                id += bin * strides[k];
            }
            let cell = &mut cells[id];
            cell.rows.push(row as u32);
            for (k, column) in columns.iter().enumerate() {
                cell.moments[k].add(column[row]);
                cell.has_nan_coordinate |= column[row].is_nan();
            }
            if let Some(measure) = measure {
                cell.moments[dims].add(measure[row]);
            }
            if let Some(labels) = labels {
                let slot = label_slots
                    .binary_search(&labels[row])
                    .expect("every label is in the slot table");
                cell.label_counts[slot] += 1;
            }
        }

        Self {
            dims,
            rows,
            bins,
            lower,
            upper,
            inv_width,
            strides,
            cells,
            label_slots,
        }
    }

    /// Bins per dimension targeting ~16 rows per cell, capped at 64 per dimension.
    fn bins_per_dimension(rows: usize, dims: usize) -> usize {
        if rows == 0 || dims == 0 {
            return 1;
        }
        let target_cells = (rows / 16).clamp(1, 65_536) as f64;
        (target_cells.powf(1.0 / dims as f64).floor() as usize).clamp(1, 64)
    }

    /// Total number of grid cells.
    pub fn cell_count(&self) -> usize {
        self.cells.len()
    }

    /// Number of rows the index was built over.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of rows inside the region (bit-identical to the scan path).
    pub fn count(&self, dataset: &Dataset, region: &Region, ignored: Option<usize>) -> usize {
        let (lower, upper) = (region.lower(), region.upper());
        let mut count = 0usize;
        self.visit(dataset, &lower, &upper, ignored, |visit| match visit {
            Visit::Full(cell) => count += cell.rows.len(),
            Visit::Row(_) => count += 1,
        });
        count
    }

    /// `(matching, total)` rows inside the region, where `matching` carries the given label.
    /// With no label column attached, `matching` is 0.
    pub fn label_count(
        &self,
        dataset: &Dataset,
        region: &Region,
        ignored: Option<usize>,
        label: u32,
    ) -> (usize, usize) {
        let (lower, upper) = (region.lower(), region.upper());
        let slot = self.label_slots.binary_search(&label).ok();
        let labels = dataset.labels();
        let (mut matching, mut total) = (0usize, 0usize);
        self.visit(dataset, &lower, &upper, ignored, |visit| match visit {
            Visit::Full(cell) => {
                total += cell.rows.len();
                if let Some(slot) = slot {
                    matching += cell.label_counts[slot] as usize;
                }
            }
            Visit::Row(row) => {
                total += 1;
                if labels.map(|l| l[row] == label).unwrap_or(false) {
                    matching += 1;
                }
            }
        });
        (matching, total)
    }

    /// Count, sum, centered second moment and extrema of the target column over the region.
    pub fn moments(
        &self,
        dataset: &Dataset,
        region: &Region,
        ignored: Option<usize>,
        target: Target,
    ) -> Result<Aggregates, DataError> {
        let values = target_column(dataset, target)?;
        let slot = target_slot(self.dims, target);
        let (lower, upper) = (region.lower(), region.upper());
        let mut agg = Aggregates::default();
        self.visit(dataset, &lower, &upper, ignored, |visit| match visit {
            Visit::Full(cell) => agg.merge(&cell.moments[slot]),
            Visit::Row(row) => agg.add(values[row]),
        });
        Ok(agg)
    }

    /// Appends the target values of every row inside the region to `out` (row order is
    /// unspecified; the only consumer, MEDIAN, sorts anyway).
    pub fn values_in(
        &self,
        dataset: &Dataset,
        region: &Region,
        ignored: Option<usize>,
        target: Target,
        out: &mut Vec<f64>,
    ) -> Result<(), DataError> {
        let values = target_column(dataset, target)?;
        let (lower, upper) = (region.lower(), region.upper());
        self.visit(dataset, &lower, &upper, ignored, |visit| match visit {
            Visit::Full(cell) => out.extend(cell.rows.iter().map(|&row| values[row as usize])),
            Visit::Row(row) => out.push(values[row]),
        });
        Ok(())
    }

    /// Visits every cell overlapping the query box: fully covered, non-empty cells are
    /// reported as [`Visit::Full`], rows of partially covered cells are filtered with the
    /// exact scan predicate and surviving rows reported as [`Visit::Row`].
    fn visit<F>(
        &self,
        dataset: &Dataset,
        lower: &[f64],
        upper: &[f64],
        ignored: Option<usize>,
        mut f: F,
    ) where
        F: FnMut(Visit<'_>),
    {
        if self.rows == 0 {
            return;
        }
        // Bin range overlapped per dimension. The value→bin map is monotone, so every row
        // satisfying the region predicate lies in a cell within these (conservative) ranges.
        let mut ranges: Vec<(usize, usize)> = Vec::with_capacity(self.dims);
        for k in 0..self.dims {
            if Some(k) == ignored {
                ranges.push((0, self.bins[k] - 1));
                continue;
            }
            // Emptiness is decided in *value* space (bin space cannot distinguish "at the
            // data maximum" — clamped into the last bin — from "beyond it").
            // A NaN upper bound excludes every row (the scan predicate rejects NaN), hence
            // the explicit is_nan arm; self.lower/self.upper are data-derived and non-NaN.
            if upper[k] < self.lower[k] || upper[k].is_nan() || lower[k] > self.upper[k] {
                return; // Region entirely outside the data in this dimension.
            }
            let t_lo = (lower[k] - self.lower[k]) * self.inv_width[k];
            let t_hi = (upper[k] - self.lower[k]) * self.inv_width[k];
            let lo = (t_lo.max(0.0) as usize).min(self.bins[k] - 1);
            let hi = (t_hi.max(0.0) as usize).min(self.bins[k] - 1);
            ranges.push((lo, hi));
        }

        let columns = dataset.raw_columns();
        let mut odometer: Vec<usize> = ranges.iter().map(|r| r.0).collect();
        loop {
            let id: usize = odometer
                .iter()
                .zip(&self.strides)
                .map(|(bin, stride)| bin * stride)
                .sum();
            let cell = &self.cells[id];
            if !cell.rows.is_empty() {
                if cell.fully_covered(lower, upper, self.dims, ignored) {
                    f(Visit::Full(cell));
                } else {
                    for &row in &cell.rows {
                        let row = row as usize;
                        if row_in_region(columns, row, lower, upper, ignored) {
                            f(Visit::Row(row));
                        }
                    }
                }
            }
            // Advance the odometer over the bin ranges.
            let mut k = self.dims;
            loop {
                if k == 0 {
                    return;
                }
                k -= 1;
                if odometer[k] < ranges[k].1 {
                    odometer[k] += 1;
                    break;
                }
                odometer[k] = ranges[k].0;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synthetic::{SyntheticDataset, SyntheticSpec};

    fn labeled_dataset() -> Dataset {
        let synthetic = SyntheticDataset::generate(
            &SyntheticSpec::density(2, 1).with_points(2_000).with_seed(5),
        );
        let n = synthetic.dataset.len();
        let labels: Vec<u32> = (0..n as u32).map(|i| i % 3).collect();
        let measure: Vec<f64> = (0..n).map(|i| (i as f64).sin() * 10.0).collect();
        synthetic
            .dataset
            .with_labels(labels)
            .unwrap()
            .with_measure("m", measure)
            .unwrap()
    }

    fn probe_regions() -> Vec<Region> {
        vec![
            Region::new(vec![0.5, 0.5], vec![0.2, 0.2]).unwrap(),
            Region::new(vec![0.1, 0.9], vec![0.15, 0.05]).unwrap(),
            Region::new(vec![0.5, 0.5], vec![0.6, 0.6]).unwrap(), // covers everything
            Region::new(vec![5.0, 5.0], vec![0.1, 0.1]).unwrap(), // empty
        ]
    }

    #[test]
    fn count_matches_the_scan_exactly() {
        let dataset = labeled_dataset();
        let index = GridIndex::build(&dataset);
        assert_eq!(index.rows(), dataset.len());
        for region in probe_regions() {
            let expected = dataset.indices_in(&region).unwrap().len();
            assert_eq!(index.count(&dataset, &region, None), expected);
            for ignored in 0..2 {
                let expected = dataset.indices_in_ignoring(&region, ignored).unwrap().len();
                assert_eq!(index.count(&dataset, &region, Some(ignored)), expected);
            }
        }
    }

    #[test]
    fn label_count_matches_the_scan_exactly() {
        let dataset = labeled_dataset();
        let labels = dataset.labels().unwrap().to_vec();
        let index = GridIndex::build(&dataset);
        for region in probe_regions() {
            for label in [0u32, 2, 99] {
                let inside = dataset.indices_in(&region).unwrap();
                let expected_matching = inside.iter().filter(|&&i| labels[i] == label).count();
                let (matching, total) = index.label_count(&dataset, &region, None, label);
                assert_eq!(total, inside.len());
                assert_eq!(matching, expected_matching);
            }
        }
    }

    #[test]
    fn moments_match_the_scan_closely() {
        let dataset = labeled_dataset();
        let measure = dataset.measure().unwrap().to_vec();
        let index = GridIndex::build(&dataset);
        for region in probe_regions() {
            let inside = dataset.indices_in(&region).unwrap();
            let agg = index
                .moments(&dataset, &region, None, Target::Measure)
                .unwrap();
            assert_eq!(agg.count, inside.len());
            let expected_sum: f64 = inside.iter().map(|&i| measure[i]).sum();
            assert!((agg.sum - expected_sum).abs() <= 1e-9 * (1.0 + expected_sum.abs()));
            if !inside.is_empty() {
                let expected_min = inside
                    .iter()
                    .map(|&i| measure[i])
                    .fold(f64::INFINITY, f64::min);
                let expected_max = inside
                    .iter()
                    .map(|&i| measure[i])
                    .fold(f64::NEG_INFINITY, f64::max);
                assert_eq!(agg.min, expected_min);
                assert_eq!(agg.max, expected_max);
            }
        }
    }

    #[test]
    fn values_in_collects_the_same_multiset() {
        let dataset = labeled_dataset();
        let index = GridIndex::build(&dataset);
        for region in probe_regions() {
            let inside = dataset.indices_in(&region).unwrap();
            let mut expected: Vec<f64> = inside
                .iter()
                .map(|&i| dataset.column(0).unwrap()[i])
                .collect();
            let mut got = Vec::new();
            index
                .values_in(&dataset, &region, None, Target::Dimension(0), &mut got)
                .unwrap();
            expected.sort_by(|a, b| a.partial_cmp(b).unwrap());
            got.sort_by(|a, b| a.partial_cmp(b).unwrap());
            assert_eq!(got, expected);
        }
    }

    #[test]
    fn missing_measure_is_reported() {
        let dataset = Dataset::from_columns(vec![vec![0.1, 0.2], vec![0.3, 0.4]]).unwrap();
        let region = Region::unit_cube(2);
        assert_eq!(
            GridIndex::build(&dataset)
                .moments(&dataset, &region, None, Target::Measure)
                .unwrap_err(),
            DataError::MissingMeasure
        );
    }

    #[test]
    fn degenerate_and_empty_datasets_are_handled() {
        // Constant column: one degenerate grid dimension.
        let constant =
            Dataset::from_columns(vec![vec![0.5; 100], (0..100).map(|i| i as f64).collect()])
                .unwrap();
        let region = Region::from_bounds(&[0.4, 10.0], &[0.6, 20.0]).unwrap();
        assert_eq!(
            GridIndex::build(&constant).count(&constant, &region, None),
            11
        );

        // Empty dataset (zero rows).
        let empty = Dataset::from_columns(vec![Vec::new(), Vec::new()]).unwrap();
        let index = GridIndex::build(&empty);
        assert_eq!(index.rows(), 0);
        assert_eq!(index.count(&empty, &region, None), 0);
    }

    #[test]
    fn nan_coordinate_rows_are_excluded_exactly_like_the_scan() {
        // NaN is invisible to the min/max bounding boxes, so without the per-cell NaN flag
        // a fully-covered cell would count the NaN row the scan predicate excludes.
        let dataset = Dataset::from_columns(vec![vec![0.5, f64::NAN, 0.25, 0.75]]).unwrap();
        let region = Region::from_bounds(&[0.0], &[1.0]).unwrap();
        assert_eq!(dataset.indices_in(&region).unwrap().len(), 3);
        assert_eq!(
            GridIndex::build(&dataset).count(&dataset, &region, None),
            3,
            "the grid counts the NaN row"
        );
        // A column that is entirely NaN matches nothing anywhere.
        let all_nan = Dataset::from_columns(vec![vec![f64::NAN; 4]]).unwrap();
        assert_eq!(GridIndex::build(&all_nan).count(&all_nan, &region, None), 0);
    }

    #[test]
    fn grid_resolution_scales_with_rows_and_dims() {
        assert_eq!(GridIndex::bins_per_dimension(0, 2), 1);
        assert_eq!(GridIndex::bins_per_dimension(100, 2), 2);
        assert!(GridIndex::bins_per_dimension(1_000_000, 2) <= 64);
        assert!(GridIndex::bins_per_dimension(1_000_000, 8) >= 2);
        let grid = GridIndex::build(&labeled_dataset());
        assert!(grid.cell_count() > 1);
    }

    #[test]
    fn index_kind_names() {
        assert_eq!(IndexKind::Scan.name(), "scan");
        assert_eq!(IndexKind::Grid.name(), "grid");
        assert_eq!(IndexKind::default(), IndexKind::Grid);
    }
}
