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

use serde::{Deserialize, Serialize};

use crate::error::{validate_xy, MlError};
use crate::matrix::FeatureMatrix;
use crate::parallel::parallel_map;

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
/// their bin ids (the boosting loop never needs the raw feature rows).
pub(crate) struct BinnedTree {
    tree: RegressionTree,
}

impl BinnedTree {
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

        let should_split = depth < params.max_depth
            && count >= params.min_samples_split
            && count >= 2 * params.min_samples_leaf;
        let best = if should_split {
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
                // Partition indices in place: left part holds x[feature] <= threshold.
                let mut left_len = 0usize;
                for i in 0..indices.len() {
                    if features[indices[i]][split.feature] <= split.threshold {
                        indices.swap(i, left_len);
                        left_len += 1;
                    }
                }
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
                        threshold: 0.5 * (value + next_value),
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
        let binned = Self::fit_binned_prevalidated(matrix, targets, indices, params, 1, &all)?;
        Ok(binned.into_tree())
    }

    /// Histogram trainer without input re-validation — the boosting loop validates once up
    /// front and calls this every round (re-scanning all targets for finiteness per round
    /// would put O(n) of redundant work in the hot loop). `feature_subset` restricts the
    /// split search to the given (sorted) features — the per-tree `colsample` draw.
    pub(crate) fn fit_binned_prevalidated(
        matrix: &FeatureMatrix,
        targets: &[f64],
        indices: &[usize],
        params: &TreeParams,
        threads: usize,
        feature_subset: &[usize],
    ) -> Result<BinnedTree, MlError> {
        if indices.is_empty() {
            return Err(MlError::EmptyTrainingSet);
        }
        let mut binned = BinnedTree {
            tree: RegressionTree {
                nodes: Vec::new(),
                features: matrix.features(),
            },
        };
        let mut working = indices.to_vec();
        grow_binned(
            &mut binned,
            matrix,
            targets,
            &mut working,
            None,
            params,
            0,
            threads,
            feature_subset,
        );
        Ok(binned)
    }
}

/// Node sizes below `count × features` of this threshold build their histograms inline; the
/// scoped-thread fan-out only pays off on large nodes.
const PARALLEL_HIST_CELLS: usize = 1 << 15;

/// Builds the flattened per-feature gradient histogram of a node (layout given by the
/// matrix's feature offsets; only `feature_subset` columns are scanned, the rest stay
/// zeroed and produce no split candidates). Per-feature construction is independent, so
/// the parallel path is bit-identical to the sequential one.
fn build_histogram(
    matrix: &FeatureMatrix,
    targets: &[f64],
    indices: &[usize],
    threads: usize,
    feature_subset: &[usize],
) -> Vec<HistBin> {
    let obs = surf_obs::global();
    let span = obs.timer();
    let d = feature_subset.len();
    let mut hist = vec![HistBin::default(); matrix.total_bins()];
    if threads > 1 && d > 1 && indices.len().saturating_mul(d) >= PARALLEL_HIST_CELLS {
        let per_feature = parallel_map(feature_subset.to_vec(), threads, |&f| {
            scan_feature(matrix, targets, indices, f)
        });
        for (&f, column) in feature_subset.iter().zip(per_feature) {
            hist[matrix.offset(f)..matrix.offset(f + 1)].copy_from_slice(&column);
        }
    } else {
        for &f in feature_subset {
            let column = scan_feature(matrix, targets, indices, f);
            hist[matrix.offset(f)..matrix.offset(f + 1)].copy_from_slice(&column);
        }
    }
    obs.record(&obs.ml_hist_build, span);
    hist
}

/// One feature's histogram cells for a node: a single linear pass over the node's rows.
fn scan_feature(
    matrix: &FeatureMatrix,
    targets: &[f64],
    indices: &[usize],
    feature: usize,
) -> Vec<HistBin> {
    let column = matrix.column(feature);
    let mut cells = vec![HistBin::default(); matrix.num_bins(feature)];
    for &row in indices {
        let cell = &mut cells[column[row] as usize];
        let t = targets[row];
        cell.count += 1;
        cell.sum += t;
        cell.sq += t * t;
    }
    cells
}

/// In-place sibling subtraction: `parent − child`, cell by cell.
fn subtract_histogram(parent: &mut [HistBin], child: &[HistBin]) {
    for (p, c) in parent.iter_mut().zip(child) {
        p.count -= c.count;
        p.sum -= c.sum;
        p.sq -= c.sq;
    }
}

/// Recursively grows the binned tree; mirrors [`RegressionTree::build`] exactly (same node
/// arena layout, same stable partition, same gain formula and tie-breaking) but finds splits
/// by sweeping histograms instead of sorting. `hist` is the node's histogram when the parent
/// already derived it (`None` at the root and for nodes whose parent skipped the work).
#[allow(clippy::too_many_arguments)]
fn grow_binned(
    binned: &mut BinnedTree,
    matrix: &FeatureMatrix,
    targets: &[f64],
    indices: &mut [usize],
    hist: Option<Vec<HistBin>>,
    params: &TreeParams,
    depth: usize,
    threads: usize,
    feature_subset: &[usize],
) -> usize {
    // Same sequential fold as the exact trainer, so leaf values are bit-identical.
    let (sum, sq, count) = indices.iter().fold((0.0, 0.0, 0usize), |(s, q, c), &i| {
        (s + targets[i], q + targets[i] * targets[i], c + 1)
    });
    let leaf_value = sum / (count as f64 + params.leaf_regularization);

    let should_split = depth < params.max_depth
        && count >= params.min_samples_split
        && count >= 2 * params.min_samples_leaf;
    let (best, hist) = if should_split {
        let hist = hist
            .unwrap_or_else(|| build_histogram(matrix, targets, indices, threads, feature_subset));
        let mut best = best_split_histogram(matrix, &hist, sum, sq, count, params, feature_subset);
        if let Some(split) = best.as_mut() {
            // The sweep's gain is built from per-bin partial sums, which re-associates the
            // floating-point additions relative to the exact trainer's row-by-row scan.
            // Recompute the winner's gain (only the winner — O(n + bins)) in the exact
            // trainer's accumulation order so the stored value is bit-identical.
            split.gain = winner_gain(matrix, targets, indices, split, sum, sq, count);
        }
        (best, Some(hist))
    } else {
        (None, None)
    };

    match best {
        None => {
            binned.tree.nodes.push(Node::Leaf {
                value: leaf_value,
                samples: count,
            });
            binned.tree.nodes.len() - 1
        }
        Some(split) => {
            // Stable in-place partition by bin id — routes exactly the same rows left as the
            // exact trainer's `value <= threshold` (bins `<= split.bin` hold precisely the
            // values below the boundary midpoint) and preserves the same index order.
            let column = matrix.column(split.feature);
            let mut left_len = 0usize;
            for i in 0..indices.len() {
                if column[indices[i]] <= split.bin {
                    indices.swap(i, left_len);
                    left_len += 1;
                }
            }
            // Reserve the arena slot before recursing so the root stays at index 0.
            let node_index = binned.tree.nodes.len();
            binned.tree.nodes.push(Node::Leaf {
                value: leaf_value,
                samples: count,
            });

            // Scan only the smaller child; the larger one is parent − smaller.
            let mut parent_hist = hist.expect("split implies histogram");
            let (left_indices, right_indices) = indices.split_at_mut(left_len);
            let (left_hist, right_hist) = if left_indices.len() <= right_indices.len() {
                let small = build_histogram(matrix, targets, left_indices, threads, feature_subset);
                subtract_histogram(&mut parent_hist, &small);
                (small, parent_hist)
            } else {
                let small =
                    build_histogram(matrix, targets, right_indices, threads, feature_subset);
                subtract_histogram(&mut parent_hist, &small);
                (parent_hist, small)
            };

            let left = grow_binned(
                binned,
                matrix,
                targets,
                left_indices,
                Some(left_hist),
                params,
                depth + 1,
                threads,
                feature_subset,
            );
            let right = grow_binned(
                binned,
                matrix,
                targets,
                right_indices,
                Some(right_hist),
                params,
                depth + 1,
                threads,
                feature_subset,
            );
            binned.tree.nodes[node_index] = Node::Split {
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

/// Recomputes the winning split's gain with the exact trainer's accumulation order: rows
/// sorted by bin (equal feature values always share a bin, and the stable counting sort
/// keeps them in `indices` order — exactly the exact trainer's stable value sort), summed
/// row by row. With one bin per distinct value this reproduces the exact gain bit for bit.
fn winner_gain(
    matrix: &FeatureMatrix,
    targets: &[f64],
    indices: &[usize],
    split: &BestBinnedSplit,
    total_sum: f64,
    total_sq: f64,
    count: usize,
) -> f64 {
    let column = matrix.column(split.feature);
    let bins = matrix.num_bins(split.feature);
    // Stable counting sort of the node's rows by bin id.
    let mut cursors = vec![0usize; bins + 1];
    for &i in indices {
        cursors[column[i] as usize + 1] += 1;
    }
    for b in 0..bins {
        cursors[b + 1] += cursors[b];
    }
    let mut ordered = vec![0usize; indices.len()];
    for &i in indices {
        let b = column[i] as usize;
        ordered[cursors[b]] = i;
        cursors[b] += 1;
    }
    // `cursors[split.bin]` now points one past the last left row.
    let left_n = cursors[split.bin as usize];
    let mut left_sum = 0.0;
    let mut left_sq = 0.0;
    for &i in &ordered[..left_n] {
        let t = targets[i];
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

/// Linear histogram sweep over every feature's bin boundaries: same candidate order, gain
/// formula and strict-improvement tie-breaking as [`RegressionTree::best_split`], with empty
/// bins skipped so thresholds sit between the node's *locally present* value groups (the
/// exact trainer's midpoints).
fn best_split_histogram(
    matrix: &FeatureMatrix,
    hist: &[HistBin],
    total_sum: f64,
    total_sq: f64,
    count: usize,
    params: &TreeParams,
    feature_subset: &[usize],
) -> Option<BestBinnedSplit> {
    let obs = surf_obs::global();
    let span = obs.timer();
    let n = count;
    let parent_sse = total_sq - total_sum * total_sum / n as f64;
    let mut best: Option<BestBinnedSplit> = None;
    for &feature in feature_subset {
        let cells = &hist[matrix.offset(feature)..matrix.offset(feature + 1)];
        let mut left_sum = 0.0;
        let mut left_sq = 0.0;
        let mut left_n = 0usize;
        let mut left_bin: Option<usize> = None;
        for (b, cell) in cells.iter().enumerate() {
            if cell.count == 0 {
                continue;
            }
            if let Some(prev) = left_bin {
                // Candidate boundary between the previous non-empty bin and this one.
                let right_n = n - left_n;
                if left_n >= params.min_samples_leaf && right_n >= params.min_samples_leaf {
                    let right_sum = total_sum - left_sum;
                    let right_sq = total_sq - left_sq;
                    // Same expression (and rounding sequence) as the exact trainer's
                    // `best_split` — required for the bit-parity guarantee.
                    let left_sse = left_sq - left_sum * left_sum / left_n as f64;
                    let right_sse = right_sq - right_sum * right_sum / right_n as f64;
                    let gain = parent_sse - left_sse - right_sse;
                    if gain > params.min_gain
                        && best.as_ref().map(|s| gain > s.gain).unwrap_or(true)
                    {
                        best = Some(BestBinnedSplit {
                            feature,
                            bin: prev as u16,
                            threshold: matrix.split_threshold(feature, prev, b),
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
        let binned =
            RegressionTree::fit_binned_prevalidated(&matrix, &y, &indices, &params, 1, &[0])
                .unwrap();
        for (row, example) in x.iter().enumerate() {
            let via_bins = binned.predict_row(&matrix, row);
            let via_values = binned.tree.predict_one(example).unwrap();
            assert_eq!(via_bins, via_values);
        }
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
