//! In-memory columnar dataset (the back-end data system SuRF's surrogates stand in for).
//!
//! The dataset stores the `d` numerical dimensions column-wise for cache-friendly region
//! scans, plus an optional categorical label column (for ratio statistics) and an optional
//! numerical *measure* column (a value attribute that is aggregated but never used to bound
//! regions — e.g. the "crime index" of the paper's use case).

use std::fmt;
use std::sync::{Arc, OnceLock};

use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::error::DataError;
use crate::index::{GridIndex, IndexKind};
use crate::random::shuffled_indices;
use crate::region::Region;
use crate::schema::Schema;
use crate::vector::DataVector;

/// The lazily-built grid index of a dataset, shared between clones.
///
/// The slot lives behind an `Arc` so that *every* clone of a dataset — including clones made
/// before the index is built — shares one cache: whichever handle builds first, all see the
/// result. The cache is invisible to equality and serialization: two datasets holding the
/// same rows are equal whether or not their index has been built yet.
#[derive(Clone, Default)]
struct IndexCache(Arc<OnceLock<Arc<GridIndex>>>);

impl fmt::Debug for IndexCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("IndexCache")
            .field("grid_built", &self.0.get().is_some())
            .finish()
    }
}

impl Serialize for IndexCache {
    fn serialize(&self) -> serde::Value {
        serde::Value::Null
    }
}

/// Deserializes to an empty cache: the index is derived data and is rebuilt lazily.
impl Deserialize for IndexCache {
    fn deserialize(_: &serde::Value) -> Result<Self, serde::DeError> {
        Ok(IndexCache::default())
    }
}

/// A collection of `N` data vectors in `R^d` (Definition 1), stored column-wise.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Dataset {
    schema: Schema,
    columns: Vec<Vec<f64>>,
    labels: Option<Vec<u32>>,
    measure: Option<Vec<f64>>,
    measure_name: Option<String>,
    index_kind: IndexKind,
    index_cache: IndexCache,
}

/// Equality covers the data itself (schema, columns, labels, measure) — not the index
/// configuration or cache: the index kind changes how a statistic is computed, not which
/// rows it covers, so two datasets holding the same rows compare equal regardless of
/// indexing.
impl PartialEq for Dataset {
    fn eq(&self, other: &Self) -> bool {
        self.schema == other.schema
            && self.columns == other.columns
            && self.labels == other.labels
            && self.measure == other.measure
            && self.measure_name == other.measure_name
    }
}

impl Dataset {
    /// Builds a dataset from column vectors. All columns must have the same length and at
    /// least one column must be supplied.
    pub fn from_columns(columns: Vec<Vec<f64>>) -> Result<Self, DataError> {
        if columns.is_empty() {
            return Err(DataError::Empty("columns"));
        }
        let n = columns[0].len();
        for (i, c) in columns.iter().enumerate() {
            if c.len() != n {
                return Err(DataError::RaggedColumns {
                    first: n,
                    column: i,
                    len: c.len(),
                });
            }
        }
        Ok(Self {
            schema: Schema::anonymous(columns.len()),
            columns,
            labels: None,
            measure: None,
            measure_name: None,
            index_kind: IndexKind::default(),
            index_cache: IndexCache::default(),
        })
    }

    /// Builds a dataset from row vectors. All rows must share the same dimensionality.
    pub fn from_rows(rows: &[DataVector]) -> Result<Self, DataError> {
        if rows.is_empty() {
            return Err(DataError::Empty("rows"));
        }
        let d = rows[0].dimensions();
        let mut columns = vec![Vec::with_capacity(rows.len()); d];
        let mut labels = Vec::with_capacity(rows.len());
        let mut any_label = false;
        for row in rows {
            if row.dimensions() != d {
                return Err(DataError::DimensionMismatch {
                    expected: d,
                    actual: row.dimensions(),
                });
            }
            for (column, value) in columns.iter_mut().zip(&row.values) {
                column.push(*value);
            }
            labels.push(row.label.unwrap_or(0));
            any_label |= row.label.is_some();
        }
        let mut dataset = Dataset::from_columns(columns)?;
        if any_label {
            dataset.labels = Some(labels);
        }
        Ok(dataset)
    }

    /// Replaces the auto-generated schema.
    pub fn with_schema(mut self, schema: Schema) -> Result<Self, DataError> {
        if schema.dimensions() != self.dimensions() {
            return Err(DataError::DimensionMismatch {
                expected: self.dimensions(),
                actual: schema.dimensions(),
            });
        }
        self.schema = schema;
        Ok(self)
    }

    /// Attaches a categorical label column (used by ratio statistics).
    pub fn with_labels(mut self, labels: Vec<u32>) -> Result<Self, DataError> {
        if labels.len() != self.len() {
            return Err(DataError::RaggedColumns {
                first: self.len(),
                column: self.dimensions(),
                len: labels.len(),
            });
        }
        self.labels = Some(labels);
        self.index_cache = IndexCache::default();
        Ok(self)
    }

    /// Attaches a numerical measure column (aggregated by measure statistics, never used for
    /// bounding regions).
    pub fn with_measure<S: Into<String>>(
        mut self,
        name: S,
        measure: Vec<f64>,
    ) -> Result<Self, DataError> {
        if measure.len() != self.len() {
            return Err(DataError::RaggedColumns {
                first: self.len(),
                column: self.dimensions(),
                len: measure.len(),
            });
        }
        self.measure = Some(measure);
        self.measure_name = Some(name.into());
        self.index_cache = IndexCache::default();
        Ok(self)
    }

    /// Sets the spatial index consulted by [`crate::statistic::Statistic::evaluate`],
    /// [`Dataset::count_in`] and everything built on them (see [`crate::index`]). The default
    /// is [`IndexKind::Grid`]; [`IndexKind::Scan`] disables indexing entirely. The grid is
    /// built lazily on first use and cached (clones share the cache).
    pub fn with_index_kind(mut self, kind: IndexKind) -> Self {
        self.index_kind = kind;
        self
    }

    /// The index kind of this dataset.
    pub fn index_kind(&self) -> IndexKind {
        self.index_kind
    }

    /// Lazily builds (and caches) the grid index for [`IndexKind::Grid`]; returns `None` for
    /// [`IndexKind::Scan`]. Safe to call concurrently: the first caller builds, the rest
    /// share the cached handle.
    pub fn region_index(&self, kind: IndexKind) -> Option<Arc<GridIndex>> {
        match kind {
            IndexKind::Scan => None,
            IndexKind::Grid => Some(Arc::clone(
                self.index_cache
                    .0
                    .get_or_init(|| Arc::new(GridIndex::build(self))),
            )),
        }
    }

    /// The dataset's spatial index (per [`Dataset::index_kind`]), built lazily.
    pub fn default_region_index(&self) -> Option<Arc<GridIndex>> {
        self.region_index(self.index_kind)
    }

    /// Raw column storage, for the grid builder of [`crate::index`].
    pub(crate) fn raw_columns(&self) -> &[Vec<f64>] {
        &self.columns
    }

    /// Number of data vectors `N`.
    pub fn len(&self) -> usize {
        self.columns[0].len()
    }

    /// Whether the dataset holds no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Dimensionality `d` of the data vectors.
    pub fn dimensions(&self) -> usize {
        self.columns.len()
    }

    /// The dataset schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The values of one dimension.
    pub fn column(&self, dimension: usize) -> Result<&[f64], DataError> {
        self.columns
            .get(dimension)
            .map(Vec::as_slice)
            .ok_or(DataError::UnknownDimension {
                dimension,
                dimensions: self.dimensions(),
            })
    }

    /// The label column, if present.
    pub fn labels(&self) -> Option<&[u32]> {
        self.labels.as_deref()
    }

    /// The measure column, if present.
    pub fn measure(&self) -> Option<&[f64]> {
        self.measure.as_deref()
    }

    /// Name of the measure column, if present.
    pub fn measure_name(&self) -> Option<&str> {
        self.measure_name.as_deref()
    }

    /// Materializes the `i`-th row.
    pub fn row(&self, index: usize) -> DataVector {
        let values: Vec<f64> = self.columns.iter().map(|c| c[index]).collect();
        match &self.labels {
            Some(labels) => DataVector::labeled(values, labels[index]),
            None => DataVector::new(values),
        }
    }

    /// The tight bounding box of the data (used as the search domain by the optimizers).
    ///
    /// Degenerate dimensions (constant value) are widened by a small epsilon so the result is
    /// a valid region.
    pub fn domain(&self) -> Result<Region, DataError> {
        if self.is_empty() {
            return Err(DataError::Empty("dataset"));
        }
        let mut lower = Vec::with_capacity(self.dimensions());
        let mut upper = Vec::with_capacity(self.dimensions());
        for column in &self.columns {
            let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
            for &v in column {
                lo = lo.min(v);
                hi = hi.max(v);
            }
            if hi - lo < 1e-9 {
                lo -= 5e-10;
                hi += 5e-10;
            }
            lower.push(lo);
            upper.push(hi);
        }
        Region::from_bounds(&lower, &upper)
    }

    /// Indices of the rows falling inside a region (every dimension constrained).
    ///
    /// This materializes an index vector; the statistic hot paths use the streaming
    /// [`Dataset::count_in`] / [`crate::statistic::Statistic::evaluate`] instead, which
    /// consult the spatial index and avoid per-row allocations (only O(d) bound/range
    /// scratch per query).
    pub fn indices_in(&self, region: &Region) -> Result<Vec<usize>, DataError> {
        self.indices_in_impl(region, None)
    }

    /// Indices of the rows falling inside a region while one dimension is left unconstrained
    /// (Definition 2's aggregate-statistic variant).
    pub fn indices_in_ignoring(
        &self,
        region: &Region,
        ignored_dimension: usize,
    ) -> Result<Vec<usize>, DataError> {
        if ignored_dimension >= self.dimensions() {
            return Err(DataError::UnknownDimension {
                dimension: ignored_dimension,
                dimensions: self.dimensions(),
            });
        }
        self.indices_in_impl(region, Some(ignored_dimension))
    }

    fn indices_in_impl(
        &self,
        region: &Region,
        ignored: Option<usize>,
    ) -> Result<Vec<usize>, DataError> {
        if region.dimensions() != self.dimensions() {
            return Err(DataError::DimensionMismatch {
                expected: self.dimensions(),
                actual: region.dimensions(),
            });
        }
        let lower = region.lower();
        let upper = region.upper();
        let mut selected: Vec<usize> = (0..self.len()).collect();
        // Column-at-a-time filtering: shrink the candidate set one dimension after another so
        // later columns are only probed for surviving rows.
        for (dim, column) in self.columns.iter().enumerate() {
            if Some(dim) == ignored {
                continue;
            }
            let (lo, hi) = (lower[dim], upper[dim]);
            selected.retain(|&i| {
                let v = column[i];
                lo <= v && v <= hi
            });
            if selected.is_empty() {
                break;
            }
        }
        Ok(selected)
    }

    /// Calls `f` with the index of every row inside the region (ascending row order), using
    /// [`crate::index::row_in_region`] — the exact inclusive-bounds predicate shared with
    /// the grid's boundary-cell filter. Streams — no intermediate index
    /// vector is allocated.
    pub(crate) fn for_each_row_in(
        &self,
        region: &Region,
        ignored: Option<usize>,
        mut f: impl FnMut(usize),
    ) {
        let lower = region.lower();
        let upper = region.upper();
        for i in 0..self.len() {
            if crate::index::row_in_region(&self.columns, i, &lower, &upper, ignored) {
                f(i);
            }
        }
    }

    /// Number of rows falling inside a region (the paper's density statistic).
    ///
    /// Served by the dataset's spatial index when one is configured (the default); the scan
    /// fallback streams the membership predicate without materializing an index vector.
    pub fn count_in(&self, region: &Region) -> Result<usize, DataError> {
        if region.dimensions() != self.dimensions() {
            return Err(DataError::DimensionMismatch {
                expected: self.dimensions(),
                actual: region.dimensions(),
            });
        }
        if let Some(index) = self.default_region_index() {
            return Ok(index.count(self, region, None));
        }
        let mut count = 0usize;
        self.for_each_row_in(region, None, |_| count += 1);
        Ok(count)
    }

    /// Returns a new dataset holding the rows at the given indices (labels, measure and the
    /// configured index kind are carried over). An empty index list yields an empty dataset
    /// with the same schema and column structure.
    pub fn select(&self, indices: &[usize]) -> Result<Dataset, DataError> {
        let columns: Vec<Vec<f64>> = self
            .columns
            .iter()
            .map(|c| indices.iter().map(|&i| c[i]).collect())
            .collect();
        let mut out = Dataset::from_columns(columns)?.with_schema(self.schema.clone())?;
        if let Some(labels) = &self.labels {
            out = out.with_labels(indices.iter().map(|&i| labels[i]).collect())?;
        }
        if let (Some(measure), Some(name)) = (&self.measure, &self.measure_name) {
            out = out.with_measure(name.clone(), indices.iter().map(|&i| measure[i]).collect())?;
        }
        out.index_kind = self.index_kind;
        Ok(out)
    }

    /// Uniform random sample (without replacement) of at most `n` rows.
    pub fn sample<R: Rng + ?Sized>(&self, n: usize, rng: &mut R) -> Result<Dataset, DataError> {
        if self.is_empty() {
            return Err(DataError::Empty("dataset"));
        }
        let take = n.min(self.len()).max(1);
        let indices = shuffled_indices(rng, self.len());
        self.select(&indices[..take])
    }

    /// Concatenates another dataset with the same dimensionality (labels/measure are kept only
    /// when both sides carry them).
    pub fn concat(&self, other: &Dataset) -> Result<Dataset, DataError> {
        if self.dimensions() != other.dimensions() {
            return Err(DataError::DimensionMismatch {
                expected: self.dimensions(),
                actual: other.dimensions(),
            });
        }
        let columns: Vec<Vec<f64>> = self
            .columns
            .iter()
            .zip(&other.columns)
            .map(|(a, b)| {
                let mut c = a.clone();
                c.extend_from_slice(b);
                c
            })
            .collect();
        let mut out = Dataset::from_columns(columns)?.with_schema(self.schema.clone())?;
        if let (Some(a), Some(b)) = (&self.labels, &other.labels) {
            let mut l = a.clone();
            l.extend_from_slice(b);
            out = out.with_labels(l)?;
        }
        if let (Some(a), Some(b), Some(name)) = (&self.measure, &other.measure, &self.measure_name)
        {
            let mut m = a.clone();
            m.extend_from_slice(b);
            out = out.with_measure(name.clone(), m)?;
        }
        out.index_kind = self.index_kind;
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn toy() -> Dataset {
        Dataset::from_columns(vec![vec![0.1, 0.2, 0.5, 0.9], vec![0.1, 0.8, 0.5, 0.9]]).unwrap()
    }

    #[test]
    fn from_columns_validates() {
        assert!(Dataset::from_columns(vec![]).is_err());
        assert!(Dataset::from_columns(vec![vec![1.0], vec![1.0, 2.0]]).is_err());
        let d = toy();
        assert_eq!(d.len(), 4);
        assert_eq!(d.dimensions(), 2);
        assert!(!d.is_empty());
    }

    #[test]
    fn from_rows_round_trips() {
        let rows = vec![
            DataVector::labeled(vec![0.1, 0.2], 1),
            DataVector::labeled(vec![0.3, 0.4], 2),
        ];
        let d = Dataset::from_rows(&rows).unwrap();
        assert_eq!(d.len(), 2);
        assert_eq!(d.labels(), Some(&[1, 2][..]));
        assert_eq!(d.row(1), rows[1]);

        let mismatched = vec![DataVector::new(vec![0.1, 0.2]), DataVector::new(vec![0.3])];
        assert!(Dataset::from_rows(&mismatched).is_err());
        assert!(Dataset::from_rows(&[]).is_err());
    }

    #[test]
    fn unlabeled_rows_produce_no_label_column() {
        let rows = vec![DataVector::new(vec![0.1]), DataVector::new(vec![0.2])];
        let d = Dataset::from_rows(&rows).unwrap();
        assert!(d.labels().is_none());
    }

    #[test]
    fn labels_and_measure_length_checked() {
        let d = toy();
        assert!(d.clone().with_labels(vec![0, 1, 2, 3]).is_ok());
        assert!(d.clone().with_labels(vec![0, 1]).is_err());
        assert!(d
            .clone()
            .with_measure("crime_index", vec![1.0, 2.0, 3.0, 4.0])
            .is_ok());
        assert!(d.with_measure("crime_index", vec![1.0]).is_err());
    }

    #[test]
    fn domain_is_tight_bounding_box() {
        let d = toy();
        let domain = d.domain().unwrap();
        assert!((domain.lower()[0] - 0.1).abs() < 1e-12);
        assert!((domain.upper()[1] - 0.9).abs() < 1e-12);
    }

    #[test]
    fn domain_handles_constant_columns() {
        let d = Dataset::from_columns(vec![vec![0.5, 0.5, 0.5]]).unwrap();
        let domain = d.domain().unwrap();
        assert!(domain.volume() > 0.0);
        assert!(domain.contains(&[0.5]));
    }

    #[test]
    fn indices_in_region() {
        let d = toy();
        let region = Region::from_bounds(&[0.0, 0.0], &[0.6, 0.6]).unwrap();
        assert_eq!(d.indices_in(&region).unwrap(), vec![0, 2]);
        assert_eq!(d.count_in(&region).unwrap(), 2);
        let wrong = Region::unit_cube(3);
        assert!(d.indices_in(&wrong).is_err());
    }

    #[test]
    fn indices_in_ignoring_dimension() {
        let d = toy();
        let region = Region::from_bounds(&[0.0, 0.0], &[0.6, 0.6]).unwrap();
        // Ignoring dimension 1 admits row 1 (y=0.8) as well.
        assert_eq!(d.indices_in_ignoring(&region, 1).unwrap(), vec![0, 1, 2]);
        assert!(d.indices_in_ignoring(&region, 9).is_err());
    }

    #[test]
    fn select_and_concat_preserve_extra_columns() {
        let d = toy()
            .with_labels(vec![1, 1, 2, 2])
            .unwrap()
            .with_measure("m", vec![10.0, 20.0, 30.0, 40.0])
            .unwrap();
        let s = d.select(&[1, 3]).unwrap();
        assert_eq!(s.len(), 2);
        assert_eq!(s.labels(), Some(&[1, 2][..]));
        assert_eq!(s.measure(), Some(&[20.0, 40.0][..]));

        // An empty selection is an empty dataset, not an error.
        let empty = d.select(&[]).unwrap();
        assert!(empty.is_empty());
        assert_eq!(empty.dimensions(), d.dimensions());
        assert_eq!(empty.labels(), Some(&[][..]));
        assert_eq!(empty.measure(), Some(&[][..]));

        let both = d.concat(&d).unwrap();
        assert_eq!(both.len(), 8);
        assert_eq!(both.labels().unwrap().len(), 8);
        assert_eq!(both.measure().unwrap().len(), 8);
    }

    #[test]
    fn count_in_uses_every_index_kind_consistently() {
        let region = Region::from_bounds(&[0.0, 0.0], &[0.6, 0.6]).unwrap();
        for kind in [IndexKind::Scan, IndexKind::Grid] {
            let d = toy().with_index_kind(kind);
            assert_eq!(d.index_kind(), kind);
            assert_eq!(d.count_in(&region).unwrap(), 2, "kind {kind:?}");
            assert_eq!(
                d.region_index(kind).is_some(),
                kind != IndexKind::Scan,
                "kind {kind:?}"
            );
        }
    }

    #[test]
    fn select_and_concat_carry_the_index_kind() {
        let d = toy().with_index_kind(IndexKind::Scan);
        assert_eq!(d.select(&[0, 1]).unwrap().index_kind(), IndexKind::Scan);
        assert_eq!(d.concat(&d).unwrap().index_kind(), IndexKind::Scan);
        let mut rng = StdRng::seed_from_u64(4);
        assert_eq!(d.sample(2, &mut rng).unwrap().index_kind(), IndexKind::Scan);
    }

    #[test]
    fn attaching_columns_resets_the_index_cache() {
        let d = toy();
        // Build the grid index, then attach labels: the stale (label-free) index must not
        // survive into the labelled clone.
        d.region_index(IndexKind::Grid).unwrap();
        let labelled = d.clone().with_labels(vec![0, 1, 0, 1]).unwrap();
        let region = Region::from_bounds(&[0.0, 0.0], &[0.6, 0.6]).unwrap();
        let index = labelled.region_index(IndexKind::Grid).unwrap();
        // Rows 0 and 2 fall inside; both carry label 0.
        assert_eq!(index.label_count(&labelled, &region, None, 0), (2, 2));
    }

    #[test]
    fn clones_share_lazily_built_indexes() {
        // Clone BEFORE any index exists: whichever handle builds first, both must share it.
        let original = toy();
        let clone = original.clone();
        let built_via_clone = clone.region_index(IndexKind::Grid).unwrap();
        let seen_by_original = original.region_index(IndexKind::Grid).unwrap();
        assert!(Arc::ptr_eq(&built_via_clone, &seen_by_original));
    }

    #[test]
    fn index_configuration_is_invisible_to_equality() {
        let a = toy();
        let b = toy();
        a.region_index(IndexKind::Grid).unwrap();
        assert_eq!(a, b); // built cache does not affect equality
        assert_eq!(a, b.clone().with_index_kind(IndexKind::Scan)); // nor does the kind knob
        let debug = format!("{a:?}");
        assert!(debug.contains("grid_built: true"), "{debug}");
    }

    #[test]
    fn sample_is_without_replacement() {
        let d = toy();
        let mut rng = StdRng::seed_from_u64(1);
        let s = d.sample(3, &mut rng).unwrap();
        assert_eq!(s.len(), 3);
        let s_all = d.sample(100, &mut rng).unwrap();
        assert_eq!(s_all.len(), 4);
    }
}
