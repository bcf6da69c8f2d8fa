//! Compiled struct-of-arrays inference engine for fitted tree ensembles.
//!
//! [`crate::tree::RegressionTree`] stores its nodes as a `Vec` of a two-variant enum — ideal
//! for training (splits carry gains, leaves carry sample counts) but hostile to inference:
//! every traversal step matches on a ~56-byte enum and then takes a *data-dependent branch*
//! on the split comparison. Split outcomes are close to random, so the branch predictor
//! misses on roughly every other node, and the boosting walker
//! ([`crate::gbrt::Gbrt::predict_one`]) pays that pipeline flush once per node per tree per
//! example — the dominant cost of every GSO iteration and every serve-side prediction.
//!
//! [`CompiledEnsemble`] flattens a fitted ensemble once into a packed-node representation
//! built for serving:
//!
//! ```text
//! nodes  (one 24-byte packed record per node, all trees concatenated, arena order)
//!        ┌───────────────┬──────────┬──────────┬──────────┐
//!        │ threshold f64 │ left u32 │ right u32│ feat u16 │   split: x[feat] <= threshold
//!        ├───────────────┼──────────┼──────────┼──────────┤          ? left : right
//!        │ value     f64 │ self     │ self     │ 0        │   leaf: children self-loop,
//!        └───────────────┴──────────┴──────────┴──────────┘         value in the threshold slot
//! roots  │ u32 per tree │      depths │ u32 per tree │
//! ```
//!
//! Because leaves *self-loop*, a traversal needs no exit test: walking exactly `depth(tree)`
//! steps always lands on (and then stays on) the correct leaf. That turns the per-node
//! branch into a conditional move — no control dependence, no mispredictions — and makes
//! every example's walk a straight-line dependency chain the CPU can overlap with its
//! neighbours'. [`CompiledEnsemble::predict_batch`] exploits exactly that: input arrives as
//! one flat row-major `&[f64]` (no per-row `Vec` indirection) and is processed in
//! cache-sized blocks, **trees outer, examples inner**, with the inner loop interleaving a
//! small group of examples so several independent traversal chains are in flight at once.
//! Blocks are independent, so [`CompiledEnsemble::predict_batch_threaded`] fans them out
//! over OS threads.
//!
//! **Bit-identity.** Compilation only rearranges storage and control flow: per example the
//! engine performs exactly the walker's comparison sequence (extra self-loop steps change
//! nothing) and exactly the walker's accumulation order (`base + lr·t₀ + lr·t₁ + …`), so
//! compiled predictions are bit-identical to [`crate::gbrt::Gbrt::predict_one`] /
//! [`crate::tree::RegressionTree::predict_one`] for every input and every block/thread
//! configuration. The `compiled_parity` property suite pins this down, NaN and ±∞ inputs
//! included.

use serde::Serialize;

use crate::error::MlError;
use crate::gbrt::Gbrt;
use crate::tree::RegressionTree;

/// Inference engine selection for a fitted GBRT surrogate. [`CompiledEnsemble`] is the only
/// engine, so [`InferenceEngine::Compiled`] is the only value.
///
/// Serialized with model configurations. Deserialization treats an absent field as
/// [`InferenceEngine::Compiled`], so configurations persisted before the field existed
/// load unchanged.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize)]
pub enum InferenceEngine {
    /// The branchless packed-node walker ([`CompiledEnsemble`]).
    #[default]
    Compiled,
}

// Manual impl rather than derived: the vendored `serde` derive has no helper attributes,
// and this field needs `#[serde(default)]` semantics — `absent()` maps a missing field to
// the default engine so older configurations keep deserializing.
impl serde::Deserialize for InferenceEngine {
    fn deserialize(value: &serde::Value) -> Result<Self, serde::DeError> {
        match value {
            serde::Value::String(s) if s == "Compiled" => Ok(InferenceEngine::Compiled),
            serde::Value::String(other) => Err(serde::DeError::custom(format!(
                "unknown variant `{other}` of `InferenceEngine`"
            ))),
            other => Err(serde::DeError::expected(
                "enum `InferenceEngine` representation",
                other,
            )),
        }
    }

    fn absent() -> Option<Self> {
        Some(InferenceEngine::default())
    }
}

/// Rows per cache block of the batch kernel: the accumulators (8 KiB) plus a block of input
/// rows stay cache-resident while every tree is streamed over them, and each streaming pass
/// over a larger-than-cache ensemble is amortized over this many rows.
const BATCH_BLOCK_ROWS: usize = 1024;

/// Examples interleaved in the inner traversal loop — enough independent dependency chains
/// to keep the load ports saturated while each chain waits on its next node.
const GROUP: usize = 16;

/// Hard cap on total nodes per compiled ensemble (child indices are `u32`).
const MAX_NODES: usize = u32::MAX as usize;

/// One node in packed form; see the [module docs](self) for the encoding.
///
/// The two children sit in an array indexed by the comparison outcome
/// (`children[!(x <= threshold) as usize]`) — an always-in-bounds computed index the
/// compiler lowers to straight-line code, never a data-dependent branch.
#[derive(Debug, Clone, Copy, PartialEq)]
struct PackedNode {
    /// Split threshold for internal nodes; the leaf *value* for leaves.
    threshold: f64,
    /// `[left, right]`: taken on `x[feature] <= threshold` / otherwise (self for leaves).
    children: [u32; 2],
    /// Feature tested by the node (0, never read to effect, for leaves).
    feature: u16,
}

impl PackedNode {
    fn new(threshold: f64, left: usize, right: usize, feature: u16) -> Self {
        Self {
            threshold,
            children: [left as u32, right as u32],
            feature,
        }
    }

    #[inline]
    fn feature(&self) -> usize {
        self.feature as usize
    }

    /// The child for comparison outcome `go_right` (0 = left, 1 = right).
    #[inline]
    fn child(&self, go_right: bool) -> u32 {
        self.children[usize::from(go_right)]
    }
}

/// A fitted ensemble flattened into contiguous packed-node form for fast inference.
///
/// Build one with [`CompiledEnsemble::compile`] (from a [`Gbrt`]) or
/// [`CompiledEnsemble::from_tree`] (from a single [`RegressionTree`]); the compiled form is
/// immutable and independent of the source model. See the [module docs](self) for the layout
/// and the bit-identity guarantee.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledEnsemble {
    /// Expected input feature width.
    features: usize,
    /// The walker's starting value (mean target for a boosted ensemble, 0 for a plain tree).
    base_prediction: f64,
    /// Shrinkage applied to every tree's leaf value (1 for a plain tree).
    learning_rate: f64,
    /// Compiled from a bare tree: predictions are raw leaf values, with no base/shrinkage
    /// arithmetic (keeps even the sign of zero identical to the tree walker).
    plain: bool,
    /// All trees' nodes, concatenated in boosting order (each tree in arena order).
    nodes: Vec<PackedNode>,
    /// Node index of every tree's root.
    roots: Vec<u32>,
    /// Depth of every tree — the number of branchless steps that provably reaches a leaf.
    depths: Vec<u32>,
}

impl CompiledEnsemble {
    /// Flattens a fitted boosted ensemble. Predictions are bit-identical to
    /// [`Gbrt::predict_one`].
    ///
    /// Errors only on models this layout cannot address: more than `u16::MAX + 1` input
    /// features or more than `u32::MAX` nodes (far beyond anything the trainer produces).
    pub fn compile(model: &Gbrt) -> Result<Self, MlError> {
        let mut compiled = Self::empty(
            model.features(),
            model.base_prediction(),
            model.learning_rate(),
            false,
        )?;
        for tree in model.trees() {
            compiled.push_tree(tree)?;
        }
        Ok(compiled)
    }

    /// Flattens a single fitted tree. Predictions are bit-identical to
    /// [`RegressionTree::predict_one`].
    pub fn from_tree(tree: &RegressionTree) -> Result<Self, MlError> {
        let mut compiled = Self::empty(tree.features(), 0.0, 1.0, true)?;
        compiled.push_tree(tree)?;
        Ok(compiled)
    }

    fn empty(
        features: usize,
        base_prediction: f64,
        learning_rate: f64,
        plain: bool,
    ) -> Result<Self, MlError> {
        if features > u16::MAX as usize + 1 {
            return Err(MlError::InvalidParameter {
                name: "features",
                value: format!("{features} exceeds the compiled layout's u16 feature index"),
            });
        }
        Ok(Self {
            features,
            base_prediction,
            learning_rate,
            plain,
            nodes: Vec::new(),
            roots: Vec::new(),
            depths: Vec::new(),
        })
    }

    /// Appends one tree's nodes (in arena order, so child indices just shift by the base).
    fn push_tree(&mut self, tree: &RegressionTree) -> Result<(), MlError> {
        let arena = tree.nodes();
        let base = self.nodes.len();
        if base + arena.len() > MAX_NODES {
            return Err(MlError::InvalidParameter {
                name: "trees",
                value: "ensemble exceeds the compiled layout's u32 node budget".into(),
            });
        }
        for (offset, node) in arena.iter().enumerate() {
            let packed = match node {
                crate::tree::Node::Leaf { value, .. } => {
                    PackedNode::new(*value, base + offset, base + offset, 0)
                }
                crate::tree::Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                    ..
                } => PackedNode::new(*threshold, base + left, base + right, *feature as u16),
            };
            self.nodes.push(packed);
        }
        self.roots.push(base as u32);
        self.depths.push(tree.depth() as u32);
        Ok(())
    }

    /// Number of input features the engine expects.
    pub fn features(&self) -> usize {
        self.features
    }

    /// Number of compiled trees.
    pub fn n_trees(&self) -> usize {
        self.roots.len()
    }

    /// Total node count (splits + leaves) across all trees.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Routes one example through one tree and returns its raw leaf value: `depth`
    /// branchless steps from the root always land on the leaf (leaves self-loop).
    // The negated comparison is the point: `!(x <= t)` routes NaN right, as the walker does.
    #[allow(clippy::neg_cmp_op_on_partial_ord)]
    #[inline]
    fn eval_tree(&self, root: u32, depth: u32, example: &[f64]) -> f64 {
        let mut node = root;
        for _ in 0..depth {
            let n = &self.nodes[node as usize];
            // `!(x <= t)` (not `x > t`) so NaN inputs route right, exactly as the walker's
            // `if x <= t { left } else { right }` does.
            node = n.child(!(example[n.feature()] <= n.threshold));
        }
        self.nodes[node as usize].threshold
    }

    #[inline]
    fn predict_one_prevalidated(&self, example: &[f64]) -> f64 {
        if self.plain {
            return self.eval_tree(self.roots[0], self.depths[0], example);
        }
        let mut prediction = self.base_prediction;
        for (&root, &depth) in self.roots.iter().zip(&self.depths) {
            prediction += self.learning_rate * self.eval_tree(root, depth, example);
        }
        prediction
    }

    /// Predicts the target for one example (bit-identical to the walker it was compiled
    /// from).
    pub fn predict_one(&self, example: &[f64]) -> Result<f64, MlError> {
        if example.len() != self.features {
            return Err(MlError::FeatureWidthMismatch {
                expected: self.features,
                actual: example.len(),
            });
        }
        Ok(self.predict_one_prevalidated(example))
    }

    /// Prediction using only the first `rounds` trees — the compiled counterpart of
    /// [`Gbrt::predict_staged`] (bit-identical to it for ensembles).
    pub fn predict_staged(&self, example: &[f64], rounds: usize) -> Result<f64, MlError> {
        if example.len() != self.features {
            return Err(MlError::FeatureWidthMismatch {
                expected: self.features,
                actual: example.len(),
            });
        }
        let mut prediction = self.base_prediction;
        for (&root, &depth) in self.roots.iter().zip(&self.depths).take(rounds) {
            prediction += self.learning_rate * self.eval_tree(root, depth, example);
        }
        Ok(prediction)
    }

    /// Validates a flat row-major batch and returns its row count.
    fn validate_batch(&self, data: &[f64], width: usize) -> Result<usize, MlError> {
        if width != self.features {
            return Err(MlError::FeatureWidthMismatch {
                expected: self.features,
                actual: width,
            });
        }
        if data.len() % width != 0 {
            return Err(MlError::InvalidParameter {
                name: "data",
                value: format!(
                    "flat batch of {} values is not a multiple of width {width}",
                    data.len()
                ),
            });
        }
        Ok(data.len() / width)
    }

    /// Routes one tree over a block of rows, adding `learning_rate · leaf` to each slot.
    /// The inner loop interleaves [`GROUP`] examples so their branchless traversal chains
    /// overlap in the pipeline; per example the adds happen in exactly the walker's order,
    /// so results are bit-identical to [`CompiledEnsemble::predict_one`].
    // The negated comparison is the point: `!(x <= t)` routes NaN right, as the walker does.
    #[allow(clippy::neg_cmp_op_on_partial_ord)]
    #[inline]
    fn tree_over_block(
        &self,
        root: u32,
        depth: u32,
        rows: &[f64],
        width: usize,
        out: &mut [f64],
        scale: Option<f64>,
    ) {
        let groups = rows.chunks_exact(GROUP * width);
        let tail_rows = groups.remainder();
        let (grouped_out, tail_out) = out.split_at_mut(out.len() - tail_rows.len() / width);
        for (rows_g, out_g) in groups.zip(grouped_out.chunks_exact_mut(GROUP)) {
            let mut state = [root; GROUP];
            // Keeps the 16 chains' node ids in one stack array. Promoted to registers, they
            // spill, and the block kernel measured 15–30 % slower on the paper-default and
            // grid-max ensembles (2-vCPU AVX2 host, 10k-row batches).
            std::hint::black_box(&mut state);
            for _ in 0..depth {
                for k in 0..GROUP {
                    let n = &self.nodes[state[k] as usize];
                    let x = rows_g[k * width + n.feature()];
                    state[k] = n.child(!(x <= n.threshold));
                }
            }
            for k in 0..GROUP {
                let leaf = self.nodes[state[k] as usize].threshold;
                match scale {
                    Some(lr) => out_g[k] += lr * leaf,
                    None => out_g[k] = leaf,
                }
            }
        }
        for (row, slot) in tail_rows.chunks_exact(width).zip(tail_out.iter_mut()) {
            let leaf = self.eval_tree(root, depth, row);
            match scale {
                Some(lr) => *slot += lr * leaf,
                None => *slot = leaf,
            }
        }
    }

    /// The blocked batch kernel: trees outer, examples inner.
    fn predict_block(&self, rows: &[f64], width: usize, out: &mut [f64]) {
        if self.plain {
            self.tree_over_block(self.roots[0], self.depths[0], rows, width, out, None);
            return;
        }
        out.fill(self.base_prediction);
        for (&root, &depth) in self.roots.iter().zip(&self.depths) {
            self.tree_over_block(root, depth, rows, width, out, Some(self.learning_rate));
        }
    }

    fn predict_blocks(&self, data: &[f64], width: usize, out: &mut [f64]) {
        for (rows, slots) in data
            .chunks(BATCH_BLOCK_ROWS * width)
            .zip(out.chunks_mut(BATCH_BLOCK_ROWS))
        {
            self.predict_block(rows, width, slots);
        }
    }

    /// Predicts a flat row-major batch (`width` values per example), writing one prediction
    /// per example into `out`. Empty batches are a no-op.
    pub fn predict_batch_into(
        &self,
        data: &[f64],
        width: usize,
        out: &mut [f64],
    ) -> Result<(), MlError> {
        let rows = self.validate_batch(data, width)?;
        if out.len() != rows {
            return Err(MlError::LengthMismatch {
                features: rows,
                targets: out.len(),
            });
        }
        self.predict_blocks(data, width, out);
        Ok(())
    }

    /// Predicts a flat row-major batch on the calling thread. See
    /// [`CompiledEnsemble::predict_batch_threaded`] for the parallel variant.
    pub fn predict_batch(&self, data: &[f64], width: usize) -> Result<Vec<f64>, MlError> {
        self.predict_batch_threaded(data, width, 1)
    }

    /// Like [`CompiledEnsemble::predict_batch`], fanning cache-sized blocks out over up to
    /// `threads` OS threads. Blocks are independent, so the result is bit-identical for
    /// every thread count.
    pub fn predict_batch_threaded(
        &self,
        data: &[f64],
        width: usize,
        threads: usize,
    ) -> Result<Vec<f64>, MlError> {
        let rows = self.validate_batch(data, width)?;
        let mut out = vec![0.0; rows];
        let threads = threads.max(1);
        if threads == 1 || rows <= BATCH_BLOCK_ROWS {
            self.predict_blocks(data, width, &mut out);
            return Ok(out);
        }
        // Hand each thread a contiguous run of whole blocks.
        let blocks_per_thread = rows.div_ceil(BATCH_BLOCK_ROWS).div_ceil(threads);
        let rows_per_thread = blocks_per_thread * BATCH_BLOCK_ROWS;
        std::thread::scope(|scope| {
            for (rows_chunk, out_chunk) in data
                .chunks(rows_per_thread * width)
                .zip(out.chunks_mut(rows_per_thread))
            {
                scope.spawn(move || self.predict_blocks(rows_chunk, width, out_chunk));
            }
        });
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gbrt::GbrtParams;
    use crate::tree::TreeParams;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn nonlinear_data(n: usize, d: usize, seed: u64) -> (Vec<Vec<f64>>, Vec<f64>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let features: Vec<Vec<f64>> = (0..n)
            .map(|_| (0..d).map(|_| rng.random::<f64>()).collect())
            .collect();
        let targets: Vec<f64> = features
            .iter()
            .map(|x| {
                x.iter()
                    .enumerate()
                    .map(|(i, v)| ((i + 1) as f64 * v).sin())
                    .sum()
            })
            .collect();
        (features, targets)
    }

    fn flatten(rows: &[Vec<f64>]) -> Vec<f64> {
        rows.iter().flatten().copied().collect()
    }

    #[test]
    fn compiled_matches_walker_bit_for_bit() {
        let (x, y) = nonlinear_data(400, 3, 1);
        let model = Gbrt::fit(&x, &y, &GbrtParams::quick()).unwrap();
        let compiled = CompiledEnsemble::compile(&model).unwrap();
        assert_eq!(compiled.n_trees(), model.n_trees());
        assert_eq!(compiled.features(), 3);
        for row in &x {
            assert_eq!(
                compiled.predict_one(row).unwrap().to_bits(),
                model.predict_one(row).unwrap().to_bits()
            );
        }
    }

    #[test]
    fn batch_matches_single_for_every_thread_count() {
        let (x, y) = nonlinear_data(1_200, 4, 2);
        let model = Gbrt::fit(&x, &y, &GbrtParams::quick()).unwrap();
        let compiled = CompiledEnsemble::compile(&model).unwrap();
        let flat = flatten(&x);
        let singles: Vec<f64> = x
            .iter()
            .map(|row| compiled.predict_one(row).unwrap())
            .collect();
        for threads in [1usize, 2, 4, 7] {
            let batch = compiled.predict_batch_threaded(&flat, 4, threads).unwrap();
            assert_eq!(batch.len(), singles.len());
            for (a, b) in batch.iter().zip(&singles) {
                assert_eq!(a.to_bits(), b.to_bits(), "threads={threads}");
            }
        }
        let mut out = vec![0.0; x.len()];
        compiled.predict_batch_into(&flat, 4, &mut out).unwrap();
        assert_eq!(out, singles);
    }

    #[test]
    fn odd_batch_sizes_exercise_the_interleave_remainder() {
        let (x, y) = nonlinear_data(300, 2, 9);
        let model = Gbrt::fit(&x, &y, &GbrtParams::quick().with_n_estimators(6)).unwrap();
        let compiled = CompiledEnsemble::compile(&model).unwrap();
        for n in [1usize, 3, 7, 8, 9, 15, 17, 255, 256, 257, 263] {
            let (batch, _) = nonlinear_data(n, 2, 100 + n as u64);
            let flat = flatten(&batch);
            let got = compiled.predict_batch(&flat, 2).unwrap();
            for (row, value) in batch.iter().zip(&got) {
                assert_eq!(
                    value.to_bits(),
                    model.predict_one(row).unwrap().to_bits(),
                    "n={n}"
                );
            }
        }
    }

    #[test]
    fn plain_tree_matches_tree_walker() {
        let (x, y) = nonlinear_data(200, 2, 3);
        let tree = RegressionTree::fit(&x, &y, &TreeParams::default()).unwrap();
        let compiled = CompiledEnsemble::from_tree(&tree).unwrap();
        assert_eq!(compiled.n_trees(), 1);
        assert_eq!(compiled.node_count(), tree.node_count());
        let flat = flatten(&x);
        let batch = compiled.predict_batch(&flat, 2).unwrap();
        for (row, value) in x.iter().zip(&batch) {
            assert_eq!(value.to_bits(), tree.predict_one(row).unwrap().to_bits());
        }
    }

    #[test]
    fn single_leaf_ensemble_predicts_the_mean() {
        // Constant targets: every tree collapses to one self-looping leaf (depth 0).
        let x: Vec<Vec<f64>> = (0..30).map(|i| vec![i as f64]).collect();
        let y = vec![4.25; 30];
        let model = Gbrt::fit(&x, &y, &GbrtParams::quick().with_n_estimators(3)).unwrap();
        let compiled = CompiledEnsemble::compile(&model).unwrap();
        assert_eq!(
            compiled.predict_one(&[5.0]).unwrap().to_bits(),
            model.predict_one(&[5.0]).unwrap().to_bits()
        );
        let batch = compiled.predict_batch(&[1.0, 2.0, 99.0], 1).unwrap();
        assert_eq!(batch.len(), 3);
    }

    #[test]
    fn staged_matches_walker() {
        let (x, y) = nonlinear_data(150, 2, 4);
        let model = Gbrt::fit(&x, &y, &GbrtParams::quick().with_n_estimators(12)).unwrap();
        let compiled = CompiledEnsemble::compile(&model).unwrap();
        for rounds in [0usize, 1, 5, 12, 40] {
            assert_eq!(
                compiled.predict_staged(&x[7], rounds).unwrap().to_bits(),
                model.predict_staged(&x[7], rounds).unwrap().to_bits()
            );
        }
    }

    #[test]
    fn empty_batch_and_width_mismatch() {
        let (x, y) = nonlinear_data(50, 2, 5);
        let model = Gbrt::fit(&x, &y, &GbrtParams::quick().with_n_estimators(2)).unwrap();
        let compiled = CompiledEnsemble::compile(&model).unwrap();
        assert!(compiled.predict_batch(&[], 2).unwrap().is_empty());
        assert!(matches!(
            compiled.predict_batch(&[0.5, 0.5, 0.5], 3),
            Err(MlError::FeatureWidthMismatch {
                expected: 2,
                actual: 3
            })
        ));
        assert!(matches!(
            compiled.predict_batch(&[0.5, 0.5, 0.5], 2),
            Err(MlError::InvalidParameter { .. })
        ));
        assert!(matches!(
            compiled.predict_one(&[0.5]),
            Err(MlError::FeatureWidthMismatch { .. })
        ));
        let mut short = vec![0.0; 1];
        assert!(matches!(
            compiled.predict_batch_into(&[0.1, 0.2, 0.3, 0.4], 2, &mut short),
            Err(MlError::LengthMismatch { .. })
        ));
    }
}
