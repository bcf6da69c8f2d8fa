//! CART-style regression trees: exact (sorting) and histogram (binned) trainers.
//!
//! A single tree greedily partitions the feature space by choosing, at every node, the
//! (feature, threshold) split that maximizes the reduction in squared error. Leaves predict
//! the (optionally L2-regularized) mean of their targets, which is exactly the leaf weight of
//! XGBoost's squared-error objective `w = Σg / (n + λ)`; the boosting machinery of
//! [`crate::gbrt`] fits these trees to residuals.
//!
//! Two trainers produce the same [`RegressionTree`] structure:
//!
//! * **Exact** ([`RegressionTree::fit_on`]) re-sorts every feature at every node —
//!   O(n·log n·d) per node, the textbook algorithm.
//! * **Histogram** ([`RegressionTree::fit_on_matrix`]) consumes a pre-quantized
//!   [`FeatureMatrix`]: each node builds per-feature gradient histograms (count / Σy / Σy²
//!   per bin) in one linear pass, finds the best split with a linear sweep over bin
//!   boundaries, and derives each sibling's histogram from its parent's by subtraction
//!   (`child = parent − other child`), so only the smaller child is ever scanned. When every
//!   feature has at most `max_bins` distinct values the two trainers are bit-identical; see
//!   [`crate::matrix`] for why.
//!
//! # What a histogram node costs
//!
//! A histogram node costs its rows, not the histogram's width (2d × 256 cells for a
//! paper-default surrogate over `d` dimensions):
//!
//! * Only a child that will search for a split gets a histogram. A child at `max_depth` or
//!   below `min_samples_split` is a leaf whatever its histogram says, so neither sibling is
//!   built when neither searches. When only the larger one searches, the smaller is still
//!   scanned and subtracted, so the larger's cells carry the same float operations either way.
//! * Each histogram keeps a bitset of its occupied bins beside the cells. A node scans its
//!   rows into a recycled all-zero histogram, and the sibling subtraction, the split sweep and
//!   the clearing before reuse visit occupied bins only. The sweep skips `count == 0` cells as
//!   a dense sweep would, so every float operation lands on the same cell in the same order.
//! * Growth records the leaf each training row reaches, so the boosting loop adds
//!   `learning_rate × leaf` to those rows' predictions without walking the tree again; it
//!   walks the tree only for rows outside the round's sample.
//!
//! Per node that is O(rows × features) for the scan, O(rows) for the leaf sums, the partition
//! and the row-by-row recount of the winning split's gain, and O(occupied bins) for the rest.

use serde::{Deserialize, Serialize};

use crate::error::{validate_xy, MlError};
use crate::matrix::{separating_threshold, FeatureMatrix};
use crate::parallel::parallel_for_each;

/// Hyper-parameters of a regression tree.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TreeParams {
    /// Maximum depth of the tree (a depth of 1 yields a single split, i.e. a stump).
    pub max_depth: usize,
    /// Minimum number of examples a node must hold to be considered for splitting.
    pub min_samples_split: usize,
    /// Minimum number of examples each child of a split must receive.
    pub min_samples_leaf: usize,
    /// Minimum squared-error reduction a split must achieve to be applied.
    pub min_gain: f64,
    /// L2 regularization added to the leaf denominator (XGBoost's `reg_lambda`).
    pub leaf_regularization: f64,
}

impl Default for TreeParams {
    fn default() -> Self {
        Self {
            max_depth: 5,
            min_samples_split: 2,
            min_samples_leaf: 1,
            min_gain: 1e-12,
            leaf_regularization: 0.0,
        }
    }
}

impl TreeParams {
    /// Whether a node at `depth` holding `count` rows searches for a split; one that does not
    /// is a leaf.
    fn searches(&self, depth: usize, count: usize) -> bool {
        depth < self.max_depth
            && count >= self.min_samples_split
            && count >= 2 * self.min_samples_leaf
    }

    /// Validates the parameters.
    pub fn validate(&self) -> Result<(), MlError> {
        if self.max_depth == 0 {
            return Err(MlError::InvalidParameter {
                name: "max_depth",
                value: "0".into(),
            });
        }
        if self.min_samples_leaf == 0 {
            return Err(MlError::InvalidParameter {
                name: "min_samples_leaf",
                value: "0".into(),
            });
        }
        if !(self.leaf_regularization.is_finite() && self.leaf_regularization >= 0.0) {
            return Err(MlError::InvalidParameter {
                name: "leaf_regularization",
                value: format!("{}", self.leaf_regularization),
            });
        }
        Ok(())
    }
}

/// One node of the tree, stored in a flat arena. `pub(crate)` so the compiled inference
/// engine ([`crate::compiled`]) can flatten fitted trees without a traversal API.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub(crate) enum Node {
    /// Terminal node carrying the prediction.
    Leaf {
        /// Predicted value.
        value: f64,
        /// Number of training examples that reached the leaf.
        samples: usize,
    },
    /// Internal split node.
    Split {
        /// Feature index tested by the node.
        feature: usize,
        /// Threshold: examples with `x[feature] <= threshold` go left.
        threshold: f64,
        /// Arena index of the left child.
        left: usize,
        /// Arena index of the right child.
        right: usize,
        /// Squared-error reduction achieved by the split (used for feature importance).
        gain: f64,
    },
}

/// A fitted regression tree.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RegressionTree {
    nodes: Vec<Node>,
    features: usize,
}

/// The best split found for a node, if any.
struct BestSplit {
    feature: usize,
    threshold: f64,
    gain: f64,
}

/// The best split found by the histogram sweep, if any: like [`BestSplit`] plus the bin
/// boundary, so training-time traversal can route rows by bin id without touching raw values.
struct BestBinnedSplit {
    feature: usize,
    /// Last bin routed to the left child.
    bin: u16,
    threshold: f64,
    gain: f64,
}

/// One cell of a per-node gradient histogram: count, Σy and Σy² of the rows in the bin.
///
/// Only these three moments are needed to score a squared-error split, and they subtract
/// cleanly: a sibling's histogram is `parent − other child`.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
struct HistBin {
    count: usize,
    sum: f64,
    sq: f64,
}

/// A tree fitted by the histogram trainer, able to predict *training* rows straight from
/// their bin ids (the boosting loop never needs the raw feature rows), and knowing which leaf
/// each row it was grown on reached.
pub(crate) struct BinnedTree {
    tree: RegressionTree,
    /// The rows the tree was grown on, in the order growth left them: each leaf owns one
    /// contiguous range.
    rows: Vec<usize>,
    leaves: Vec<LeafSpan>,
}

impl BinnedTree {
    /// Adds `learning_rate × leaf` to the prediction of every row the tree was grown on, from
    /// the leaf the row reached during growth. Growth routes a row left when its bin is at
    /// most the split's last left bin, and [`BinnedTree::predict_row`] when the bin's upper
    /// edge is `<= threshold`: the threshold lies below the first right bin's lower edge
    /// ([`FeatureMatrix::split_threshold`]), so for every row of the node the two agree and
    /// this adds the same value a walk would.
    pub(crate) fn add_leaf_values(&self, learning_rate: f64, predictions: &mut [f64]) {
        for leaf in &self.leaves {
            for &row in &self.rows[leaf.start..leaf.end] {
                predictions[row] += learning_rate * leaf.value;
            }
        }
    }

    /// Predicts the target of training row `row` by routing its bins through the tree: a row
    /// goes left when its bin's largest raw value is `<= threshold`. With one bin per
    /// distinct value that comparison *is* `value <= threshold`, so this is bit-equivalent
    /// to [`RegressionTree::predict_one`] on the row's raw values — including for rows the
    /// split's node never saw (subsampling, early-stopping holdouts). Under coarse bins a
    /// threshold can bisect a bin; the whole bin then routes by its upper edge, which is the
    /// histogram engine's documented approximation.
    pub(crate) fn predict_row(&self, matrix: &FeatureMatrix, row: usize) -> f64 {
        let mut node = 0usize;
        loop {
            match &self.tree.nodes[node] {
                Node::Leaf { value, .. } => return *value,
                Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                    ..
                } => {
                    let bin = matrix.bin(row, *feature) as usize;
                    node = if matrix.bin_upper(*feature, bin) <= *threshold {
                        *left
                    } else {
                        *right
                    };
                }
            }
        }
    }

    /// Extracts the plain tree (identical structure to an exact-trainer tree).
    pub(crate) fn into_tree(self) -> RegressionTree {
        self.tree
    }
}

impl RegressionTree {
    /// Fits a tree on the full training set.
    pub fn fit(
        features: &[Vec<f64>],
        targets: &[f64],
        params: &TreeParams,
    ) -> Result<Self, MlError> {
        let indices: Vec<usize> = (0..features.len()).collect();
        Self::fit_on(features, targets, &indices, params)
    }

    /// Fits a tree on the subset of rows given by `indices` (used by boosting with row
    /// subsampling).
    pub fn fit_on(
        features: &[Vec<f64>],
        targets: &[f64],
        indices: &[usize],
        params: &TreeParams,
    ) -> Result<Self, MlError> {
        validate_xy(features, targets)?;
        params.validate()?;
        let all: Vec<usize> = (0..features[0].len()).collect();
        Self::fit_on_prevalidated(features, targets, indices, params, &all)
    }

    /// Exact trainer without input re-validation — the boosting loop validates the training
    /// set and the parameters once up front and calls this every round (the finiteness scan
    /// is O(n·d) and must not run per round). `feature_subset` restricts the split search to
    /// the given (sorted) features — the boosting loop's per-tree `colsample` draw.
    pub(crate) fn fit_on_prevalidated(
        features: &[Vec<f64>],
        targets: &[f64],
        indices: &[usize],
        params: &TreeParams,
        feature_subset: &[usize],
    ) -> Result<Self, MlError> {
        if indices.is_empty() {
            return Err(MlError::EmptyTrainingSet);
        }
        let mut tree = RegressionTree {
            nodes: Vec::new(),
            features: features[0].len(),
        };
        let mut working = indices.to_vec();
        tree.build(features, targets, &mut working, params, 0, feature_subset);
        Ok(tree)
    }

    /// Number of features the tree was trained with.
    pub fn features(&self) -> usize {
        self.features
    }

    /// The node arena (root at index 0), for the compiled inference engine.
    pub(crate) fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// Number of nodes (splits + leaves).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of leaves.
    pub fn leaf_count(&self) -> usize {
        self.nodes
            .iter()
            .filter(|n| matches!(n, Node::Leaf { .. }))
            .count()
    }

    /// Depth of the tree (0 for a single leaf).
    pub fn depth(&self) -> usize {
        self.depth_of(0)
    }

    fn depth_of(&self, node: usize) -> usize {
        match &self.nodes[node] {
            Node::Leaf { .. } => 0,
            Node::Split { left, right, .. } => 1 + self.depth_of(*left).max(self.depth_of(*right)),
        }
    }

    /// Predicts the target for one example.
    pub fn predict_one(&self, example: &[f64]) -> Result<f64, MlError> {
        if example.len() != self.features {
            return Err(MlError::FeatureWidthMismatch {
                expected: self.features,
                actual: example.len(),
            });
        }
        Ok(self.predict_one_prevalidated(example))
    }

    /// The arena walk without the width check — batch callers ([`RegressionTree::predict`],
    /// the boosting walker) validate once up front instead of once per example per tree.
    pub(crate) fn predict_one_prevalidated(&self, example: &[f64]) -> f64 {
        let mut node = 0usize;
        loop {
            match &self.nodes[node] {
                Node::Leaf { value, .. } => return *value,
                Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                    ..
                } => {
                    node = if example[*feature] <= *threshold {
                        *left
                    } else {
                        *right
                    };
                }
            }
        }
    }

    /// Predicts the targets for a batch of examples. Feature widths are validated once, up
    /// front, instead of per example inside the prediction loop.
    pub fn predict(&self, examples: &[Vec<f64>]) -> Result<Vec<f64>, MlError> {
        for example in examples {
            if example.len() != self.features {
                return Err(MlError::FeatureWidthMismatch {
                    expected: self.features,
                    actual: example.len(),
                });
            }
        }
        Ok(examples
            .iter()
            .map(|e| self.predict_one_prevalidated(e))
            .collect())
    }

    /// Total split gain attributed to each feature (an importance measure).
    pub fn feature_importance(&self) -> Vec<f64> {
        let mut importance = vec![0.0; self.features];
        for node in &self.nodes {
            if let Node::Split { feature, gain, .. } = node {
                importance[*feature] += *gain;
            }
        }
        importance
    }

    /// Recursively grows the tree; returns the arena index of the created node.
    fn build(
        &mut self,
        features: &[Vec<f64>],
        targets: &[f64],
        indices: &mut [usize],
        params: &TreeParams,
        depth: usize,
        feature_subset: &[usize],
    ) -> usize {
        let (sum, count) = indices
            .iter()
            .fold((0.0, 0usize), |(s, c), &i| (s + targets[i], c + 1));
        let leaf_value = sum / (count as f64 + params.leaf_regularization);

        let best = if params.searches(depth, count) {
            self.best_split(features, targets, indices, params, feature_subset)
        } else {
            None
        };

        match best {
            None => {
                self.nodes.push(Node::Leaf {
                    value: leaf_value,
                    samples: count,
                });
                self.nodes.len() - 1
            }
            Some(split) => {
                let left_len = partition(indices, |row| {
                    features[row][split.feature] <= split.threshold
                });
                // Reserve the slot for this split node before recursing so the root stays at
                // index 0.
                let node_index = self.nodes.len();
                self.nodes.push(Node::Leaf {
                    value: leaf_value,
                    samples: count,
                });
                let (left_indices, right_indices) = indices.split_at_mut(left_len);
                let left = self.build(
                    features,
                    targets,
                    left_indices,
                    params,
                    depth + 1,
                    feature_subset,
                );
                let right = self.build(
                    features,
                    targets,
                    right_indices,
                    params,
                    depth + 1,
                    feature_subset,
                );
                self.nodes[node_index] = Node::Split {
                    feature: split.feature,
                    threshold: split.threshold,
                    left,
                    right,
                    gain: split.gain,
                };
                node_index
            }
        }
    }

    /// Finds the squared-error-optimal split over the candidate features, if one satisfying
    /// the constraints exists.
    fn best_split(
        &self,
        features: &[Vec<f64>],
        targets: &[f64],
        indices: &[usize],
        params: &TreeParams,
        feature_subset: &[usize],
    ) -> Option<BestSplit> {
        let n = indices.len();
        let total_sum: f64 = indices.iter().map(|&i| targets[i]).sum();
        let total_sq: f64 = indices.iter().map(|&i| targets[i] * targets[i]).sum();
        let parent_sse = total_sq - total_sum * total_sum / n as f64;

        let mut best: Option<BestSplit> = None;
        let mut sortable: Vec<(f64, f64)> = Vec::with_capacity(n);
        for &feature in feature_subset {
            sortable.clear();
            sortable.extend(indices.iter().map(|&i| (features[i][feature], targets[i])));
            // Inputs are validated finite, so the comparison is total; the stable sort keeps
            // equal values in `indices` order, which the histogram trainer's per-bin
            // accumulation mirrors (the bit-parity guarantee relies on this).
            sortable.sort_by(|a, b| {
                a.0.partial_cmp(&b.0)
                    .expect("feature values validated finite")
            });

            let mut left_sum = 0.0;
            let mut left_sq = 0.0;
            for split_at in 1..n {
                let (value, target) = sortable[split_at - 1];
                left_sum += target;
                left_sq += target * target;
                let next_value = sortable[split_at].0;
                // Can't split between identical feature values.
                if next_value <= value {
                    continue;
                }
                let left_n = split_at;
                let right_n = n - split_at;
                if left_n < params.min_samples_leaf || right_n < params.min_samples_leaf {
                    continue;
                }
                let right_sum = total_sum - left_sum;
                let right_sq = total_sq - left_sq;
                let left_sse = left_sq - left_sum * left_sum / left_n as f64;
                let right_sse = right_sq - right_sum * right_sum / right_n as f64;
                let gain = parent_sse - left_sse - right_sse;
                if gain > params.min_gain && best.as_ref().map(|b| gain > b.gain).unwrap_or(true) {
                    best = Some(BestSplit {
                        feature,
                        threshold: separating_threshold(value, next_value),
                        gain,
                    });
                }
            }
        }
        best
    }

    /// Fits a tree on all rows of a pre-quantized [`FeatureMatrix`] (histogram trainer).
    ///
    /// `targets` must have one entry per matrix row. With `max_bins` at least the number of
    /// distinct values of every feature, the result is bit-identical to
    /// [`RegressionTree::fit`]; coarser matrices trade fidelity for speed.
    pub fn fit_matrix(
        matrix: &FeatureMatrix,
        targets: &[f64],
        params: &TreeParams,
    ) -> Result<Self, MlError> {
        let indices: Vec<usize> = (0..matrix.rows()).collect();
        Self::fit_on_matrix(matrix, targets, &indices, params)
    }

    /// Fits a tree on the subset of matrix rows given by `indices` (histogram trainer).
    pub fn fit_on_matrix(
        matrix: &FeatureMatrix,
        targets: &[f64],
        indices: &[usize],
        params: &TreeParams,
    ) -> Result<Self, MlError> {
        crate::error::validate_targets(targets)?;
        if targets.len() != matrix.rows() {
            return Err(MlError::LengthMismatch {
                features: matrix.rows(),
                targets: targets.len(),
            });
        }
        params.validate()?;
        if let Some(&row) = indices.iter().find(|&&i| i >= matrix.rows()) {
            return Err(MlError::InvalidParameter {
                name: "indices",
                value: format!("row {row} out of range ({} rows)", matrix.rows()),
            });
        }
        let all: Vec<usize> = (0..matrix.features()).collect();
        let mut arena = HistArena::new(matrix);
        let binned =
            Self::fit_binned_prevalidated(matrix, targets, indices, params, 1, &all, &mut arena)?;
        Ok(binned.into_tree())
    }

    /// Histogram trainer without input re-validation — the boosting loop validates once up
    /// front and calls this every round (re-scanning all targets for finiteness per round
    /// would put O(n) of redundant work in the hot loop). `feature_subset` restricts the
    /// split search to the given (sorted) features — the per-tree `colsample` draw. `arena`
    /// holds `matrix`'s recycled histograms across the rounds of one fit.
    pub(crate) fn fit_binned_prevalidated(
        matrix: &FeatureMatrix,
        targets: &[f64],
        indices: &[usize],
        params: &TreeParams,
        threads: usize,
        feature_subset: &[usize],
        arena: &mut HistArena,
    ) -> Result<BinnedTree, MlError> {
        if indices.is_empty() {
            return Err(MlError::EmptyTrainingSet);
        }
        let mut grower = BinnedGrower {
            matrix,
            targets,
            params,
            threads,
            feature_subset,
            arena,
            nodes: Vec::new(),
            rows: indices.to_vec(),
            leaves: Vec::new(),
        };
        grower.grow(0, indices.len(), None, 0);
        Ok(BinnedTree {
            tree: RegressionTree {
                nodes: grower.nodes,
                features: matrix.features(),
            },
            rows: grower.rows,
            leaves: grower.leaves,
        })
    }
}

/// Node sizes below `count × features` of this threshold build their histograms inline; the
/// scoped-thread fan-out only pays off on large nodes.
pub(crate) const PARALLEL_HIST_CELLS: usize = 1 << 15;

/// Bits per word of a histogram's occupancy bitset.
const WORD_BITS: usize = u64::BITS as usize;

/// A node's gradient histogram over every feature: one cell per bin and a bitset of the bins
/// the node's rows occupy. Every cell outside the bitset is zero, so scanning, subtracting,
/// sweeping and clearing cost the node's rows and occupied bins, not the histogram's width.
///
/// Feature `f` owns the bitset words `[words[f], words[f + 1])` of its [`HistArena`] layout
/// and the cells from `words[f] × 64`: features never share a word, so they scan on separate
/// threads into disjoint slices.
struct Histogram {
    cells: Vec<HistBin>,
    occupied: Vec<u64>,
}

/// Indices of the set bits of `words`, in increasing order.
fn set_bits(words: &[u64]) -> impl Iterator<Item = usize> + '_ {
    words.iter().enumerate().flat_map(|(w, &word)| {
        let mut bits = word;
        std::iter::from_fn(move || {
            (bits != 0).then(|| {
                let bit = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                w * WORD_BITS + bit
            })
        })
    })
}

impl Histogram {
    /// In-place sibling subtraction, `self − child`, over the child's occupied bins (a
    /// subset of the parent's). A bin the child takes whole keeps its bit with a zero count.
    fn subtract(&mut self, child: &Histogram) {
        for i in set_bits(&child.occupied) {
            let (p, c) = (&mut self.cells[i], &child.cells[i]);
            p.count -= c.count;
            p.sum -= c.sum;
            p.sq -= c.sq;
        }
    }
}

/// The histogram trainer's working memory for one fitted model: the padded per-feature
/// layout of a [`FeatureMatrix`]'s histograms and a pool of recycled all-zero histograms, so
/// a boosting run allocates about one histogram per tree level, not one per node.
pub(crate) struct HistArena {
    /// Feature `f` owns bitset words `[words[f], words[f + 1])`.
    words: Vec<usize>,
    free: Vec<Histogram>,
    /// [`BinnedGrower::winner_gain`]'s counting sort: a slot cursor per bin of the widest
    /// feature, and the sorted left targets.
    cursors: Vec<usize>,
    ordered: Vec<f64>,
}

impl HistArena {
    pub(crate) fn new(matrix: &FeatureMatrix) -> Self {
        let mut words = vec![0];
        for f in 0..matrix.features() {
            words.push(words[f] + matrix.num_bins(f).div_ceil(WORD_BITS));
        }
        let widest = (0..matrix.features())
            .map(|f| matrix.num_bins(f))
            .max()
            .unwrap_or(0);
        Self {
            words,
            free: Vec::new(),
            cursors: vec![0; widest],
            ordered: Vec::new(),
        }
    }

    /// An all-zero histogram.
    fn take(&mut self) -> Histogram {
        self.free.pop().unwrap_or_else(|| {
            let words = *self.words.last().expect("layout never empty");
            Histogram {
                cells: vec![HistBin::default(); words * WORD_BITS],
                occupied: vec![0; words],
            }
        })
    }

    /// Zeroes the occupied cells and the bitset, and returns the histogram to the pool.
    fn recycle(&mut self, mut hist: Histogram) {
        for i in set_bits(&hist.occupied) {
            hist.cells[i] = HistBin::default();
        }
        hist.occupied.fill(0);
        self.free.push(hist);
    }

    /// Splits `hist` into the cells and bitset words of each feature of `features` (sorted).
    fn columns<'h>(
        &self,
        hist: &'h mut Histogram,
        features: &[usize],
    ) -> Vec<(usize, &'h mut [HistBin], &'h mut [u64])> {
        let mut cells = hist.cells.as_mut_slice();
        let mut words = hist.occupied.as_mut_slice();
        let mut columns = Vec::with_capacity(features.len());
        for (f, span) in self.words.windows(2).enumerate() {
            let width = span[1] - span[0];
            let (own_words, rest) = std::mem::take(&mut words).split_at_mut(width);
            words = rest;
            let (own_cells, rest) = std::mem::take(&mut cells).split_at_mut(width * WORD_BITS);
            cells = rest;
            if features.binary_search(&f).is_ok() {
                columns.push((f, own_cells, own_words));
            }
        }
        columns
    }
}

/// One feature's histogram cells for a node: a single linear pass over the node's rows into
/// all-zero cells, marking each bin it touches.
fn scan_feature(
    column: &[u16],
    targets: &[f64],
    rows: &[usize],
    cells: &mut [HistBin],
    occupied: &mut [u64],
) {
    for &row in rows {
        let bin = column[row] as usize;
        let t = targets[row];
        let cell = &mut cells[bin];
        cell.count += 1;
        cell.sum += t;
        cell.sq += t * t;
        occupied[bin / WORD_BITS] |= 1 << (bin % WORD_BITS);
    }
}

/// The rows of a training set that reached one leaf: `rows[start..end]` of the grower's
/// final row order.
struct LeafSpan {
    value: f64,
    start: usize,
    end: usize,
}

/// Grows one binned tree. Mirrors [`RegressionTree::build`] exactly (same node arena layout,
/// same partition, same gain formula and tie-breaking) but finds splits by sweeping
/// histograms instead of sorting.
struct BinnedGrower<'a> {
    matrix: &'a FeatureMatrix,
    targets: &'a [f64],
    params: &'a TreeParams,
    threads: usize,
    feature_subset: &'a [usize],
    arena: &'a mut HistArena,
    nodes: Vec<Node>,
    /// The node's rows: each node owns a contiguous range, partitioned in place.
    rows: Vec<usize>,
    leaves: Vec<LeafSpan>,
}

impl BinnedGrower<'_> {
    /// Grows the subtree over `rows[start..end]`; returns the arena index of its root. `hist`
    /// is the node's histogram when its parent built one, which it does exactly for the
    /// children that search for a split (`None` at the root).
    fn grow(&mut self, start: usize, end: usize, hist: Option<Histogram>, depth: usize) -> usize {
        // Same sequential fold as the exact trainer, so leaf values are bit-identical.
        let (sum, sq, count) =
            self.rows[start..end]
                .iter()
                .fold((0.0, 0.0, 0usize), |(s, q, c), &i| {
                    let t = self.targets[i];
                    (s + t, q + t * t, c + 1)
                });
        let leaf_value = sum / (count as f64 + self.params.leaf_regularization);

        if !self.params.searches(depth, count) {
            debug_assert!(hist.is_none(), "only searching nodes get a histogram");
            return self.leaf(leaf_value, start, end);
        }
        let hist = hist.unwrap_or_else(|| self.build(start, end));
        let Some(mut split) = self.best_split(&hist, sum, sq, count) else {
            self.arena.recycle(hist);
            return self.leaf(leaf_value, start, end);
        };
        split.gain = self.winner_gain(&hist, start, end, &split, sum, sq, count);

        // Routes exactly the rows the exact trainer's `value <= threshold` routes: bins
        // `<= split.bin` hold precisely the node's values below the threshold.
        let column = self.matrix.column(split.feature);
        let mid = start + partition(&mut self.rows[start..end], |row| column[row] <= split.bin);
        // Reserve the arena slot before recursing so the root stays at index 0.
        let node_index = self.nodes.len();
        self.nodes.push(Node::Leaf {
            value: leaf_value,
            samples: count,
        });
        let (left_hist, right_hist) = self.child_histograms(hist, start, mid, end, depth + 1);
        let left = self.grow(start, mid, left_hist, depth + 1);
        let right = self.grow(mid, end, right_hist, depth + 1);
        self.nodes[node_index] = Node::Split {
            feature: split.feature,
            threshold: split.threshold,
            left,
            right,
            gain: split.gain,
        };
        node_index
    }

    fn leaf(&mut self, value: f64, start: usize, end: usize) -> usize {
        self.nodes.push(Node::Leaf {
            value,
            samples: end - start,
        });
        self.leaves.push(LeafSpan { value, start, end });
        self.nodes.len() - 1
    }

    /// The histograms of a split's children `rows[start..mid]` and `rows[mid..end]`, built
    /// only for a child that will search for a split. The smaller child is scanned (the left
    /// one on a tie) and the larger is `parent − smaller`, also when only the larger
    /// searches, so every cell carries the same float operations whichever children search.
    fn child_histograms(
        &mut self,
        mut parent: Histogram,
        start: usize,
        mid: usize,
        end: usize,
        depth: usize,
    ) -> (Option<Histogram>, Option<Histogram>) {
        let left_is_small = mid - start <= end - mid;
        let (small, large) = if left_is_small {
            ((start, mid), (mid, end))
        } else {
            ((mid, end), (start, mid))
        };
        let small_searches = self.params.searches(depth, small.1 - small.0);
        let large_searches = self.params.searches(depth, large.1 - large.0);
        let (small_hist, large_hist) = match (small_searches, large_searches) {
            (false, false) => {
                self.arena.recycle(parent);
                (None, None)
            }
            (true, false) => {
                self.arena.recycle(parent);
                (Some(self.build(small.0, small.1)), None)
            }
            (_, true) => {
                let small_hist = self.build(small.0, small.1);
                parent.subtract(&small_hist);
                if small_searches {
                    (Some(small_hist), Some(parent))
                } else {
                    self.arena.recycle(small_hist);
                    (None, Some(parent))
                }
            }
        };
        if left_is_small {
            (small_hist, large_hist)
        } else {
            (large_hist, small_hist)
        }
    }

    /// Scans the histogram of `rows[start..end]` into a recycled all-zero histogram (only
    /// `feature_subset` columns; the rest stay zero and produce no split candidates). Each
    /// feature fills its own slice, so the per-feature fan-out on large nodes builds the same
    /// cells for every thread count.
    fn build(&mut self, start: usize, end: usize) -> Histogram {
        let obs = surf_obs::global();
        let span = obs.timer();
        let mut hist = self.arena.take();
        let rows = &self.rows[start..end];
        let d = self.feature_subset.len();
        let threads = if d > 1 && rows.len().saturating_mul(d) >= PARALLEL_HIST_CELLS {
            self.threads
        } else {
            1
        };
        let mut columns = self.arena.columns(&mut hist, self.feature_subset);
        let (matrix, targets) = (self.matrix, self.targets);
        parallel_for_each(&mut columns, threads, |(f, cells, occupied)| {
            scan_feature(matrix.column(*f), targets, rows, cells, occupied)
        });
        obs.record(&obs.ml_hist_build, span);
        hist
    }

    /// Recomputes the winning split's gain in the exact trainer's accumulation order. The
    /// sweep's gain is built from per-bin partial sums, which re-associates the floating-point
    /// additions relative to the exact trainer's row-by-row scan, so only the winner is
    /// summed again, row by row: the left rows sorted by bin. Equal feature values always
    /// share a bin, and the stable counting sort keeps them in node order, which is the
    /// exact trainer's stable value sort over the same node order (both trainers leave a
    /// node's rows in the order the shared [`partition`] gave them). With one bin per
    /// distinct value this reproduces the exact gain bit for bit. The node histogram's counts
    /// place each bin's rows, so the sort costs the node's rows and occupied bins.
    #[allow(clippy::too_many_arguments)]
    fn winner_gain(
        &mut self,
        hist: &Histogram,
        start: usize,
        end: usize,
        split: &BestBinnedSplit,
        total_sum: f64,
        total_sq: f64,
        count: usize,
    ) -> f64 {
        let (first, last) = (
            self.arena.words[split.feature],
            self.arena.words[split.feature + 1],
        );
        let cells = &hist.cells[first * WORD_BITS..];
        let last_left = split.bin as usize;
        let HistArena {
            cursors, ordered, ..
        } = &mut *self.arena;
        let mut left_n = 0usize;
        for b in set_bits(&hist.occupied[first..last]) {
            if b > last_left {
                break;
            }
            cursors[b] = left_n;
            left_n += cells[b].count;
        }
        ordered.clear();
        ordered.resize(left_n, 0.0);
        let column = self.matrix.column(split.feature);
        for &row in &self.rows[start..end] {
            let b = column[row] as usize;
            if b <= last_left {
                ordered[cursors[b]] = self.targets[row];
                cursors[b] += 1;
            }
        }
        let mut left_sum = 0.0;
        let mut left_sq = 0.0;
        for &t in ordered.iter() {
            left_sum += t;
            left_sq += t * t;
        }
        let right_n = count - left_n;
        let right_sum = total_sum - left_sum;
        let right_sq = total_sq - left_sq;
        let parent_sse = total_sq - total_sum * total_sum / count as f64;
        let left_sse = left_sq - left_sum * left_sum / left_n as f64;
        let right_sse = right_sq - right_sum * right_sum / right_n as f64;
        parent_sse - left_sse - right_sse
    }

    /// Linear histogram sweep over every feature's occupied bins: same candidate order, gain
    /// formula and strict-improvement tie-breaking as [`RegressionTree::best_split`], with
    /// empty bins skipped so thresholds sit between the node's *locally present* value groups
    /// (the exact trainer's midpoints).
    fn best_split(
        &self,
        hist: &Histogram,
        total_sum: f64,
        total_sq: f64,
        count: usize,
    ) -> Option<BestBinnedSplit> {
        let obs = surf_obs::global();
        let span = obs.timer();
        let n = count;
        let parent_sse = total_sq - total_sum * total_sum / n as f64;
        let min_leaf = self.params.min_samples_leaf;
        let mut best: Option<BestBinnedSplit> = None;
        for &feature in self.feature_subset {
            let (first, last) = (self.arena.words[feature], self.arena.words[feature + 1]);
            let cells = &hist.cells[first * WORD_BITS..];
            let mut left_sum = 0.0;
            let mut left_sq = 0.0;
            let mut left_n = 0usize;
            let mut left_bin: Option<usize> = None;
            for b in set_bits(&hist.occupied[first..last]) {
                let cell = &cells[b];
                // A bin a sibling subtraction emptied keeps its bit.
                if cell.count == 0 {
                    continue;
                }
                if let Some(prev) = left_bin {
                    // Candidate boundary between the previous non-empty bin and this one.
                    let right_n = n - left_n;
                    if left_n >= min_leaf && right_n >= min_leaf {
                        let right_sum = total_sum - left_sum;
                        let right_sq = total_sq - left_sq;
                        // Same expression (and rounding sequence) as the exact trainer's
                        // `best_split` — required for the bit-parity guarantee.
                        let left_sse = left_sq - left_sum * left_sum / left_n as f64;
                        let right_sse = right_sq - right_sum * right_sum / right_n as f64;
                        let gain = parent_sse - left_sse - right_sse;
                        if gain > self.params.min_gain
                            && best.as_ref().map(|s| gain > s.gain).unwrap_or(true)
                        {
                            best = Some(BestBinnedSplit {
                                feature,
                                bin: prev as u16,
                                threshold: self.matrix.split_threshold(feature, prev, b),
                                gain,
                            });
                        }
                    }
                }
                left_sum += cell.sum;
                left_sq += cell.sq;
                left_n += cell.count;
                left_bin = Some(b);
            }
        }
        obs.record(&obs.ml_split_search, span);
        best
    }
}

/// Moves the rows `goes_left` accepts to the front of `rows`, keeping their order, and
/// returns how many there are. The rows that go right end up permuted. Both trainers
/// partition with this one function, so their children receive the same rows in the same
/// order, and that is what keeps the two trainers' accumulation orders, and so their trees,
/// bit-identical.
fn partition(rows: &mut [usize], goes_left: impl Fn(usize) -> bool) -> usize {
    let mut left_len = 0usize;
    for i in 0..rows.len() {
        if goes_left(rows[i]) {
            rows.swap(i, left_len);
            left_len += 1;
        }
    }
    left_len
}

#[cfg(test)]
mod tests {
    use super::*;

    /// y = 1 for x < 0.5, y = 5 otherwise: a single split recovers it exactly.
    fn step_data() -> (Vec<Vec<f64>>, Vec<f64>) {
        let features: Vec<Vec<f64>> = (0..100).map(|i| vec![i as f64 / 100.0]).collect();
        let targets: Vec<f64> = features
            .iter()
            .map(|x| if x[0] < 0.5 { 1.0 } else { 5.0 })
            .collect();
        (features, targets)
    }

    #[test]
    fn fits_a_step_function_exactly() {
        let (x, y) = step_data();
        let tree = RegressionTree::fit(&x, &y, &TreeParams::default()).unwrap();
        assert!((tree.predict_one(&[0.1]).unwrap() - 1.0).abs() < 1e-9);
        assert!((tree.predict_one(&[0.9]).unwrap() - 5.0).abs() < 1e-9);
        assert!(tree.depth() >= 1);
    }

    #[test]
    fn depth_zero_is_rejected_and_depth_limit_respected() {
        let (x, y) = step_data();
        let mut params = TreeParams {
            max_depth: 0,
            ..TreeParams::default()
        };
        assert!(RegressionTree::fit(&x, &y, &params).is_err());
        params.max_depth = 2;
        let tree = RegressionTree::fit(&x, &y, &params).unwrap();
        assert!(tree.depth() <= 2);
    }

    #[test]
    fn constant_targets_yield_single_leaf() {
        let x: Vec<Vec<f64>> = (0..20).map(|i| vec![i as f64]).collect();
        let y = vec![3.0; 20];
        let tree = RegressionTree::fit(&x, &y, &TreeParams::default()).unwrap();
        assert_eq!(tree.leaf_count(), 1);
        assert_eq!(tree.node_count(), 1);
        assert!((tree.predict_one(&[7.0]).unwrap() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn min_samples_leaf_is_respected() {
        let (x, y) = step_data();
        let params = TreeParams {
            min_samples_leaf: 40,
            ..TreeParams::default()
        };
        let tree = RegressionTree::fit(&x, &y, &params).unwrap();
        // With 100 points and a 40-sample minimum, at most one split is possible.
        assert!(tree.leaf_count() <= 2);
    }

    #[test]
    fn leaf_regularization_shrinks_predictions() {
        let x = vec![vec![0.0], vec![1.0]];
        let y = vec![10.0, 10.0];
        let plain = RegressionTree::fit(&x, &y, &TreeParams::default()).unwrap();
        let reg = RegressionTree::fit(
            &x,
            &y,
            &TreeParams {
                leaf_regularization: 2.0,
                ..TreeParams::default()
            },
        )
        .unwrap();
        assert!((plain.predict_one(&[0.5]).unwrap() - 10.0).abs() < 1e-12);
        assert!((reg.predict_one(&[0.5]).unwrap() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn multi_feature_split_picks_the_informative_feature() {
        // Feature 0 is noise, feature 1 carries the signal.
        let features: Vec<Vec<f64>> = (0..200)
            .map(|i| vec![(i % 7) as f64, (i / 2) as f64 / 100.0])
            .collect();
        let targets: Vec<f64> = features
            .iter()
            .map(|x| if x[1] < 0.5 { -2.0 } else { 2.0 })
            .collect();
        let tree = RegressionTree::fit(&features, &targets, &TreeParams::default()).unwrap();
        let importance = tree.feature_importance();
        assert!(importance[1] > importance[0]);
        assert!((tree.predict_one(&[3.0, 0.9]).unwrap() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn prediction_rejects_wrong_width() {
        let (x, y) = step_data();
        let tree = RegressionTree::fit(&x, &y, &TreeParams::default()).unwrap();
        assert!(matches!(
            tree.predict_one(&[0.1, 0.2]),
            Err(MlError::FeatureWidthMismatch { .. })
        ));
    }

    #[test]
    fn fit_on_subset_only_uses_requested_rows() {
        let (x, y) = step_data();
        // Train only on the left half: the tree should predict ~1 everywhere.
        let indices: Vec<usize> = (0..50).collect();
        let tree = RegressionTree::fit_on(&x, &y, &indices, &TreeParams::default()).unwrap();
        assert!((tree.predict_one(&[0.9]).unwrap() - 1.0).abs() < 1e-9);
        assert!(RegressionTree::fit_on(&x, &y, &[], &TreeParams::default()).is_err());
    }

    /// Fits the same data with the exact and the (full-resolution) histogram trainer and
    /// asserts the trees are identical.
    fn assert_parity(x: &[Vec<f64>], y: &[f64], params: &TreeParams) -> RegressionTree {
        let exact = RegressionTree::fit(x, y, params).unwrap();
        let matrix = FeatureMatrix::from_rows(x, x.len().max(2)).unwrap();
        let binned = RegressionTree::fit_matrix(&matrix, y, params).unwrap();
        assert_eq!(exact, binned);
        exact
    }

    #[test]
    fn histogram_trainer_matches_exact_on_step_data() {
        let (x, y) = step_data();
        let tree = assert_parity(&x, &y, &TreeParams::default());
        assert!((tree.predict_one(&[0.1]).unwrap() - 1.0).abs() < 1e-9);
        assert!((tree.predict_one(&[0.9]).unwrap() - 5.0).abs() < 1e-9);
    }

    #[test]
    fn histogram_trainer_handles_constant_features() {
        // Every feature constant: no split can separate anything — single leaf.
        let x: Vec<Vec<f64>> = (0..30).map(|_| vec![1.5, -2.0]).collect();
        let y: Vec<f64> = (0..30).map(|i| i as f64).collect();
        let tree = assert_parity(&x, &y, &TreeParams::default());
        assert_eq!(tree.node_count(), 1);
        let mean = y.iter().sum::<f64>() / 30.0;
        assert!((tree.predict_one(&[0.0, 0.0]).unwrap() - mean).abs() < 1e-12);
    }

    #[test]
    fn histogram_trainer_handles_identical_targets() {
        let x: Vec<Vec<f64>> = (0..25).map(|i| vec![i as f64, (i % 5) as f64]).collect();
        let y = vec![-3.25; 25];
        let tree = assert_parity(&x, &y, &TreeParams::default());
        assert_eq!(tree.leaf_count(), 1);
        assert!((tree.predict_one(&[4.0, 1.0]).unwrap() + 3.25).abs() < 1e-12);
    }

    #[test]
    fn histogram_trainer_grows_single_row_leaves() {
        // Deep tree on strictly increasing targets: every row ends in its own leaf.
        let x: Vec<Vec<f64>> = (0..8).map(|i| vec![i as f64]).collect();
        let y: Vec<f64> = (0..8).map(|i| (i * i) as f64).collect();
        let params = TreeParams {
            max_depth: 10,
            ..TreeParams::default()
        };
        let tree = assert_parity(&x, &y, &params);
        assert_eq!(tree.leaf_count(), 8);
        for (row, target) in x.iter().zip(&y) {
            assert_eq!(tree.predict_one(row).unwrap(), *target);
        }
    }

    #[test]
    fn histogram_trainer_respects_min_samples_leaf_boundaries() {
        let (x, y) = step_data();
        for min_samples_leaf in [1usize, 10, 40, 50, 51] {
            let params = TreeParams {
                min_samples_leaf,
                ..TreeParams::default()
            };
            let tree = assert_parity(&x, &y, &params);
            if min_samples_leaf > 50 {
                // 100 rows cannot produce two children of 51+.
                assert_eq!(tree.leaf_count(), 1);
            }
        }
    }

    #[test]
    fn coarse_histogram_still_recovers_the_step() {
        // 4 bins on 100 distinct values: thresholds move to bin boundaries, but a clean step
        // is still recovered exactly because a boundary lands between the two plateaus.
        let (x, y) = step_data();
        let matrix = FeatureMatrix::from_rows(&x, 4).unwrap();
        let tree = RegressionTree::fit_matrix(&matrix, &y, &TreeParams::default()).unwrap();
        assert!((tree.predict_one(&[0.1]).unwrap() - 1.0).abs() < 1e-9);
        assert!((tree.predict_one(&[0.9]).unwrap() - 5.0).abs() < 1e-9);
    }

    #[test]
    fn binned_predict_row_matches_tree_prediction() {
        let (x, y) = step_data();
        let matrix = FeatureMatrix::from_rows(&x, 128).unwrap();
        let indices: Vec<usize> = (0..x.len()).collect();
        let params = TreeParams::default();
        let mut arena = HistArena::new(&matrix);
        let binned = RegressionTree::fit_binned_prevalidated(
            &matrix,
            &y,
            &indices,
            &params,
            1,
            &[0],
            &mut arena,
        )
        .unwrap();
        for (row, example) in x.iter().enumerate() {
            let via_bins = binned.predict_row(&matrix, row);
            let via_values = binned.tree.predict_one(example).unwrap();
            assert_eq!(via_bins, via_values);
        }
    }

    #[test]
    fn adjacent_double_thresholds_separate_the_rows() {
        // Adjacent doubles: their midpoint rounds onto the larger one, so a midpoint
        // threshold would send both rows left and leave an empty right child.
        let (lo, hi) = (1.0 + f64::EPSILON, 1.0 + 2.0 * f64::EPSILON);
        assert_eq!(0.5 * (lo + hi), hi);
        let x = vec![vec![lo], vec![hi]];
        let y = vec![0.0, 10.0];
        let exact = RegressionTree::fit(&x, &y, &TreeParams::default()).unwrap();
        let matrix = FeatureMatrix::from_rows(&x, 2).unwrap();
        assert_eq!(matrix.split_threshold(0, 0, 1), lo);
        let binned = RegressionTree::fit_matrix(&matrix, &y, &TreeParams::default()).unwrap();
        for tree in [&exact, &binned] {
            assert_eq!(tree.leaf_count(), 2);
            assert_eq!(tree.predict_one(&[lo]).unwrap(), 0.0);
            assert_eq!(tree.predict_one(&[hi]).unwrap(), 10.0);
        }
        assert_eq!(exact, binned);
    }

    #[test]
    fn fit_binned_rejects_bad_inputs() {
        let (x, y) = step_data();
        let matrix = FeatureMatrix::from_rows(&x, 128).unwrap();
        assert!(matches!(
            RegressionTree::fit_matrix(&matrix, &y[..50], &TreeParams::default()),
            Err(MlError::LengthMismatch { .. })
        ));
        assert!(matches!(
            RegressionTree::fit_on_matrix(&matrix, &y, &[], &TreeParams::default()),
            Err(MlError::EmptyTrainingSet)
        ));
        assert!(matches!(
            RegressionTree::fit_on_matrix(&matrix, &y, &[999], &TreeParams::default()),
            Err(MlError::InvalidParameter { .. })
        ));
        let mut bad = y.clone();
        bad[3] = f64::NAN;
        assert!(matches!(
            RegressionTree::fit_matrix(&matrix, &bad, &TreeParams::default()),
            Err(MlError::NonFiniteTarget { row: 3 })
        ));
    }

    #[test]
    fn non_finite_features_are_rejected_before_sorting() {
        // Regression test for the NaN-unsafe `partial_cmp(...).unwrap_or(Equal)` ordering:
        // non-finite features are now rejected up front with a typed error instead of
        // silently scrambling the split search.
        let mut x: Vec<Vec<f64>> = (0..10).map(|i| vec![i as f64]).collect();
        let y: Vec<f64> = (0..10).map(|i| i as f64).collect();
        x[4][0] = f64::NAN;
        assert_eq!(
            RegressionTree::fit(&x, &y, &TreeParams::default()),
            Err(MlError::NonFiniteFeature { row: 4, column: 0 })
        );
        x[4][0] = f64::INFINITY;
        assert_eq!(
            RegressionTree::fit(&x, &y, &TreeParams::default()),
            Err(MlError::NonFiniteFeature { row: 4, column: 0 })
        );
    }

    #[test]
    fn prediction_is_piecewise_constant_mean() {
        // Two clusters of targets; leaf predictions must equal cluster means.
        let x = vec![vec![0.0], vec![0.1], vec![0.9], vec![1.0]];
        let y = vec![1.0, 3.0, 7.0, 9.0];
        let params = TreeParams {
            max_depth: 1,
            ..TreeParams::default()
        };
        let tree = RegressionTree::fit(&x, &y, &params).unwrap();
        assert!((tree.predict_one(&[0.05]).unwrap() - 2.0).abs() < 1e-9);
        assert!((tree.predict_one(&[0.95]).unwrap() - 8.0).abs() < 1e-9);
    }
}
