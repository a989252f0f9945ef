//! Gradient-boosted regression trees (XGBoost-style boosting, LightGBM-style
//! histogram split finding).
//!
//! The paper's best stage-1 engine is "GBT-250" (250 boosted trees via
//! XGBoost). This module implements the same second-order boosting recipe:
//! per-round gradients/hessians of the squared loss, greedy splits
//! maximising the regularised gain, leaf weights `-G/(H+lambda)` and
//! shrinkage. The squared loss's hessian is 1 for every row, so a node's
//! hessian sum `H` is its row count, exactly, and is never accumulated.
//!
//! Two split-finding strategies are available behind
//! [`GbtParams::split_strategy`]:
//!
//! * [`SplitStrategy::Exact`] — the classic exact greedy algorithm: at every
//!   node, every feature column is gathered and sorted and every boundary
//!   between adjacent distinct values is a candidate. `O(rows · log rows ·
//!   features)` *per node*, which dominates training at paper scale.
//! * [`SplitStrategy::Histogram`] (the default) — feature values are
//!   quantised once per fit into at most `max_bins` bins per feature
//!   ([`BinnedDataset`]: quantile cut points, `u8` bin codes stored
//!   column-major). Each node accumulates one (grad-sum, count) histogram
//!   per feature and only bin boundaries are split candidates.
//!   A node's sibling histogram is derived with the parent-minus-child
//!   *subtraction trick*, so only the smaller child is ever scanned.
//!   Thresholds are real cut values, so trained trees are identical in
//!   form to exact trees and [`Regressor::predict_row`] is
//!   strategy-agnostic.
//!
//! The histogram grower does as little as it can per tree without
//! changing a bit of the trees it grows (pinned against a frozen copy of
//! the plain grower in `tests/grower_reference.rs`):
//!
//! * a tree on every row takes its root histogram as run sums along each
//!   feature's rows sorted by (bin, row), which adds the same rows in the
//!   same order as a row-by-row scan;
//! * histogram buffers, the row index and the gradients are allocated
//!   once per fit and reused by every node and tree;
//! * a split candidate first gets a multiply-only score, which is exact
//!   enough to discard candidates that cannot beat the node's best; only
//!   the rest compute the divided gain, and compare it exactly as before;
//! * each row's prediction is updated from the leaf it lands in while the
//!   tree grows, instead of walking the finished tree for every row.
//!
//! When a feature has at most `max_bins` distinct values the binning is
//! lossless: cut points are the midpoints between adjacent distinct values —
//! the exact splitter's threshold formula — so histogram training considers
//! the same candidate *partitions* as exact training and grows the same row
//! splits (inside a child node's value gaps the chosen threshold may sit at
//! a different — equally valid — boundary; see the parity suite in
//! `tests/gbt_parity.rs`). A constant feature produces zero cut points and
//! can never be selected for a split.
//!
//! ```
//! use perfbug_ml::{Dataset, Gbt, GbtParams, Regressor, SplitStrategy};
//!
//! let rows: Vec<Vec<f64>> = (0..50).map(|i| vec![i as f64 / 10.0]).collect();
//! let y: Vec<f64> = rows.iter().map(|r| if r[0] < 2.5 { -1.0 } else { 2.0 }).collect();
//! let data = Dataset::from_rows(&rows, &y).unwrap();
//!
//! // Histogram split finding is the default...
//! let mut model = Gbt::new(GbtParams { n_trees: 60, ..GbtParams::default() });
//! model.fit(&data, None);
//! assert!((model.predict_row(&[0.5]) - -1.0).abs() < 0.1);
//!
//! // ...and the exact splitter stays available behind the same knob.
//! let mut exact = Gbt::new(GbtParams {
//!     n_trees: 60,
//!     split_strategy: SplitStrategy::Exact,
//!     ..GbtParams::default()
//! });
//! exact.fit(&data, None);
//! assert!((exact.predict_row(&[4.0]) - 2.0).abs() < 0.1);
//! ```

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::dataset::Dataset;
use crate::Regressor;

/// How split candidates are enumerated while growing trees.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SplitStrategy {
    /// Exact greedy split finding: sort every feature column at every node
    /// and consider every boundary between adjacent distinct values.
    Exact,
    /// Histogram split finding: quantise each feature into at most
    /// `max_bins` bins once per fit and consider only bin boundaries,
    /// with per-node gradient histograms and the subtraction trick.
    Histogram {
        /// Upper bound on bins per feature (clamped to `2..=256`; bin
        /// codes are stored as `u8`). 255 matches LightGBM's default.
        max_bins: u16,
    },
}

impl Default for SplitStrategy {
    fn default() -> Self {
        SplitStrategy::Histogram { max_bins: 255 }
    }
}

/// Hyper-parameters for [`Gbt`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GbtParams {
    /// Number of boosted trees (the paper evaluates 150 and 250).
    pub n_trees: usize,
    /// Maximum tree depth.
    pub max_depth: usize,
    /// Shrinkage applied to each tree's contribution.
    pub learning_rate: f64,
    /// L2 regularisation on leaf weights (XGBoost's `lambda`).
    pub lambda: f64,
    /// Minimum gain required to split (XGBoost's `gamma`).
    pub gamma: f64,
    /// Minimum sum of hessians in a child (XGBoost's `min_child_weight`);
    /// with the squared loss, a minimum row count.
    pub min_child_weight: f64,
    /// Fraction of rows sampled per tree (1.0 disables subsampling).
    pub subsample: f64,
    /// Seed for row subsampling.
    pub seed: u64,
    /// Split-finding strategy (histogram by default; see [`SplitStrategy`]).
    pub split_strategy: SplitStrategy,
}

impl Default for GbtParams {
    fn default() -> Self {
        GbtParams {
            n_trees: 250,
            max_depth: 4,
            learning_rate: 0.1,
            lambda: 1.0,
            gamma: 0.0,
            min_child_weight: 1.0,
            subsample: 1.0,
            seed: 0,
            split_strategy: SplitStrategy::default(),
        }
    }
}

// --------------------------------------------------------------------------
// Binned dataset
// --------------------------------------------------------------------------

/// Per-node, per-feature, per-bin gradient statistics. The bin's hessian
/// sum is `count`: the squared loss's hessian is 1.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
struct HistBin {
    grad: f64,
    count: u32,
}

/// A dataset quantised for histogram split finding: per-feature quantile
/// cut points and `u8` bin codes stored column-major.
///
/// Built once per [`Gbt::fit`] and reused across every tree and boosting
/// round. Bin `b` of a feature holds the values `v` with
/// `cuts[b-1] <= v < cuts[b]`, so a split "code ≤ b" is exactly the tree
/// predicate `v < cuts[b]` — thresholds in trained trees are real feature
/// values, never bin indices.
///
/// When a feature has at most `max_bins` distinct values, every distinct
/// value receives its own bin and the cut points are the midpoints between
/// adjacent distinct values (the exact splitter's candidate formula);
/// otherwise cut points are chosen at (approximately) equal-frequency
/// quantiles of the column. A constant feature produces **zero** cut
/// points: it occupies a single bin and can never be selected for a split.
///
/// Cut points come from the non-NaN values only, and a NaN value codes to
/// the last bin, past every cut: every split routes it right, as the
/// trained tree's `value < threshold` test does at inference.
///
/// ```
/// use perfbug_ml::{BinnedDataset, Dataset};
///
/// let rows: Vec<Vec<f64>> = (0..8).map(|i| vec![i as f64, 7.0]).collect();
/// let y = vec![0.0; 8];
/// let binned = BinnedDataset::from_dataset(&Dataset::from_rows(&rows, &y).unwrap(), 255);
/// assert_eq!(binned.n_bins(0), 8); // 8 distinct values, lossless binning
/// assert_eq!(binned.cuts(0)[0], 0.5); // midpoints between adjacent values
/// assert_eq!(binned.n_bins(1), 1); // constant column: zero cuts, one bin
/// assert!(binned.cuts(1).is_empty());
/// ```
#[derive(Debug, Clone)]
pub struct BinnedDataset {
    n_rows: usize,
    /// Ascending cut points per feature; `cuts[f].len() + 1` bins.
    cuts: Vec<Vec<f64>>,
    /// Column-major bin codes: `codes[f * n_rows + r]`.
    codes: Vec<u8>,
    /// Flat histogram offsets per feature (`n_features + 1` entries).
    offsets: Vec<usize>,
    /// Every feature's rows sorted by (code, row), feature after feature:
    /// `order[f * n_rows..(f + 1) * n_rows]`.
    order: Vec<u32>,
    /// Rows per bin over the whole dataset, laid out like a histogram: the
    /// run lengths of `order`.
    bin_counts: Vec<u32>,
}

impl BinnedDataset {
    /// Quantises `data` into at most `max_bins` bins per feature
    /// (`max_bins` is clamped to `2..=256`).
    pub fn from_dataset(data: &Dataset, max_bins: u16) -> Self {
        let max_bins = (max_bins as usize).clamp(2, 256);
        let n_rows = data.len();
        let n_features = data.n_features();
        let mut cuts = Vec::with_capacity(n_features);
        let mut codes = vec![0u8; n_features * n_rows];
        let mut offsets = Vec::with_capacity(n_features + 1);
        offsets.push(0);
        let mut order = vec![0u32; n_features * n_rows];
        let mut bin_counts = Vec::new();
        let mut column = Vec::with_capacity(n_rows);
        let mut next = Vec::new();
        for f in 0..n_features {
            column.clear();
            column.extend(
                (0..n_rows)
                    .map(|r| data.sample(r).0[f])
                    .filter(|v| !v.is_nan()),
            );
            column.sort_by(f64::total_cmp);
            let feature_cuts = quantile_cuts(&column, max_bins);
            let col_codes = &mut codes[f * n_rows..(f + 1) * n_rows];
            for (r, code) in col_codes.iter_mut().enumerate() {
                let v = data.sample(r).0[f];
                *code = if v.is_nan() {
                    feature_cuts.len()
                } else {
                    feature_cuts.partition_point(|&c| c <= v)
                } as u8;
            }
            // Counting sort of the rows by code; rows stay ascending
            // within a bin.
            let counts_at = bin_counts.len();
            bin_counts.resize(counts_at + feature_cuts.len() + 1, 0);
            let counts = &mut bin_counts[counts_at..];
            for &code in col_codes.iter() {
                counts[usize::from(code)] += 1;
            }
            next.clear();
            next.extend(counts.iter().scan(f * n_rows, |start, &count| {
                let at = *start;
                *start += count as usize;
                Some(at)
            }));
            for (r, &code) in col_codes.iter().enumerate() {
                let slot = &mut next[usize::from(code)];
                order[*slot] = r as u32;
                *slot += 1;
            }
            offsets.push(offsets[f] + feature_cuts.len() + 1);
            cuts.push(feature_cuts);
        }
        BinnedDataset {
            n_rows,
            cuts,
            codes,
            offsets,
            order,
            bin_counts,
        }
    }

    /// Number of samples.
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Number of features.
    pub fn n_features(&self) -> usize {
        self.cuts.len()
    }

    /// Number of bins of `feature` (1 for a constant feature).
    ///
    /// # Panics
    ///
    /// Panics if `feature` is out of bounds.
    pub fn n_bins(&self, feature: usize) -> usize {
        self.cuts[feature].len() + 1
    }

    /// The ascending cut points of `feature` (empty for a constant
    /// feature). Bin `b` holds values in `[cuts[b-1], cuts[b])`.
    ///
    /// # Panics
    ///
    /// Panics if `feature` is out of bounds.
    pub fn cuts(&self, feature: usize) -> &[f64] {
        &self.cuts[feature]
    }

    /// Total histogram slots across all features.
    fn total_bins(&self) -> usize {
        *self.offsets.last().unwrap_or(&0)
    }

    /// The bin codes of one feature column.
    fn feature_codes(&self, feature: usize) -> &[u8] {
        &self.codes[feature * self.n_rows..(feature + 1) * self.n_rows]
    }

    /// Accumulates the (grad, count) histogram of one feature over `rows`
    /// into `bins` (pre-zeroed, `n_bins(feature)` long).
    fn accumulate_feature(&self, feature: usize, rows: &[u32], grad: &[f64], bins: &mut [HistBin]) {
        let col = self.feature_codes(feature);
        for &r in rows {
            let r = r as usize;
            let bin = &mut bins[col[r] as usize];
            bin.grad += grad[r];
            bin.count += 1;
        }
    }

    /// Builds the full per-feature histogram of one node into `hist`
    /// (length [`Self::total_bins`]): one feature at a time, each in row
    /// order, on the calling thread.
    fn build_histogram(&self, rows: &[u32], grad: &[f64], hist: &mut [HistBin]) {
        debug_assert_eq!(hist.len(), self.total_bins());
        hist.fill(HistBin::default());
        for f in 0..self.n_features() {
            let (lo, hi) = (self.offsets[f], self.offsets[f + 1]);
            self.accumulate_feature(f, rows, grad, &mut hist[lo..hi]);
        }
    }

    /// Builds the histogram of a node holding every row in row order as
    /// run sums along the sorted `order`: each bin adds the same rows in
    /// the same order as [`Self::build_histogram`] would, so the two
    /// histograms are identical.
    fn build_root_histogram(&self, grad: &[f64], hist: &mut [HistBin]) {
        debug_assert_eq!(hist.len(), self.total_bins());
        let mut rows = self.order.iter();
        for (bin, &count) in hist.iter_mut().zip(&self.bin_counts) {
            let mut sum = 0.0;
            for &r in rows.by_ref().take(count as usize) {
                sum += grad[r as usize];
            }
            *bin = HistBin { grad: sum, count };
        }
    }
}

/// Chooses the cut points of one feature from its sorted column. Lossless
/// midpoint cuts when the column has at most `max_bins` distinct values,
/// (approximately) equal-frequency quantile cuts otherwise. A constant
/// column yields no cuts.
fn quantile_cuts(sorted: &[f64], max_bins: usize) -> Vec<f64> {
    // Run-length encode the distinct values.
    let mut distinct: Vec<(f64, usize)> = Vec::new();
    for &v in sorted {
        match distinct.last_mut() {
            Some((last, count)) if *last == v => *count += 1,
            _ => distinct.push((v, 1)),
        }
    }
    if distinct.len() <= 1 {
        return Vec::new();
    }
    let mut cuts = Vec::with_capacity(distinct.len().min(max_bins) - 1);
    if distinct.len() <= max_bins {
        // One bin per distinct value: cut points are the exact splitter's
        // midpoint thresholds, making the binning lossless.
        for pair in distinct.windows(2) {
            cuts.push((pair[0].0 + pair[1].0) / 2.0);
        }
        return cuts;
    }
    // Greedy equal-frequency quantiles: emit a cut whenever the cumulative
    // row count passes the next multiple of n/max_bins. A value heavier
    // than one whole stride additionally forces cuts on both of its
    // boundaries (its own bin, LightGBM-style) — without that, a dominant
    // value swallows every target and a feature the exact splitter can
    // split ends up with no cuts at all. Cuts stay strictly increasing
    // and are capped at max_bins - 1 so codes always fit in a u8.
    let stride = sorted.len() as f64 / max_bins as f64;
    let mut cum = 0usize;
    let mut next_target = stride;
    for pair in distinct.windows(2) {
        cum += pair[0].1;
        let heavy_boundary = pair[0].1 as f64 >= stride || pair[1].1 as f64 >= stride;
        if (cum as f64) >= next_target || heavy_boundary {
            cuts.push((pair[0].0 + pair[1].0) / 2.0);
            if cuts.len() == max_bins - 1 {
                break;
            }
            while (cum as f64) >= next_target {
                next_target += stride;
            }
        }
    }
    cuts
}

// --------------------------------------------------------------------------
// Trees
// --------------------------------------------------------------------------

#[derive(Debug, Clone)]
enum Node {
    Leaf {
        weight: f64,
    },
    Split {
        feature: usize,
        threshold: f64,
        /// Rows with `x[feature] < threshold` go left.
        left: usize,
        right: usize,
    },
}

/// One regression tree stored as a flat arena of nodes.
#[derive(Debug, Clone)]
struct Tree {
    nodes: Vec<Node>,
}

impl Tree {
    fn predict(&self, x: &[f64]) -> f64 {
        let mut idx = 0;
        loop {
            match &self.nodes[idx] {
                Node::Leaf { weight } => return *weight,
                Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    idx = if x[*feature] < *threshold {
                        *left
                    } else {
                        *right
                    };
                }
            }
        }
    }
}

/// Gradient-boosted tree ensemble for regression (squared loss).
#[derive(Debug, Clone)]
pub struct Gbt {
    params: GbtParams,
    base_score: f64,
    trees: Vec<Tree>,
    n_features: usize,
}

impl Gbt {
    /// Creates an untrained ensemble.
    pub fn new(params: GbtParams) -> Self {
        Gbt {
            params,
            base_score: 0.0,
            trees: Vec::new(),
            n_features: 0,
        }
    }

    /// Number of trees actually grown.
    pub fn n_trees(&self) -> usize {
        self.trees.len()
    }

    /// Every split's `(feature, threshold)` across all trees, in tree
    /// order (pre-order within each tree). Introspection for feature
    /// audits and the exact-vs-histogram parity suite.
    pub fn split_thresholds(&self) -> Vec<(usize, f64)> {
        self.trees
            .iter()
            .flat_map(|t| &t.nodes)
            .filter_map(|n| match n {
                Node::Split {
                    feature, threshold, ..
                } => Some((*feature, *threshold)),
                Node::Leaf { .. } => None,
            })
            .collect()
    }

    /// Builds one tree on the given rows against gradients with the exact
    /// greedy splitter; returns the tree.
    fn build_tree(&self, data: &Dataset, rows: &[u32], grad: &[f64]) -> Tree {
        let mut tree = Tree { nodes: Vec::new() };
        let rows = rows.iter().map(|&r| r as usize).collect();
        self.grow(&mut tree, data, rows, grad, 0);
        tree
    }

    /// Recursively grows `tree` with exact splits, returning the index of
    /// the created node.
    fn grow(
        &self,
        tree: &mut Tree,
        data: &Dataset,
        rows: Vec<usize>,
        grad: &[f64],
        depth: usize,
    ) -> usize {
        let g_sum: f64 = rows.iter().map(|&r| grad[r]).sum();
        let h_sum = rows.len() as f64;
        let leaf = |tree: &mut Tree| {
            let weight = -g_sum / (h_sum + self.params.lambda);
            tree.nodes.push(Node::Leaf { weight });
            tree.nodes.len() - 1
        };
        if depth >= self.params.max_depth || rows.len() < 2 {
            return leaf(tree);
        }

        // Exact greedy: best split over every feature.
        let parent_score = g_sum * g_sum / (h_sum + self.params.lambda);
        let mut best: Option<(f64, usize, f64)> = None; // (gain, feature, threshold)
        let mut sorted: Vec<(f64, f64)> = Vec::with_capacity(rows.len());
        for feature in 0..data.n_features() {
            sorted.clear();
            for &r in &rows {
                sorted.push((data.sample(r).0[feature], grad[r]));
            }
            sorted.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal));
            let mut gl = 0.0;
            for i in 0..sorted.len() - 1 {
                gl += sorted[i].1;
                let hl = (i + 1) as f64;
                if sorted[i].0 == sorted[i + 1].0 {
                    continue; // cannot split between equal values
                }
                let gr = g_sum - gl;
                let hr = h_sum - hl;
                if hl < self.params.min_child_weight || hr < self.params.min_child_weight {
                    continue;
                }
                let gain = 0.5
                    * (gl * gl / (hl + self.params.lambda) + gr * gr / (hr + self.params.lambda)
                        - parent_score)
                    - self.params.gamma;
                if gain > 0.0 && best.is_none_or(|(g, _, _)| gain > g) {
                    let threshold = (sorted[i].0 + sorted[i + 1].0) / 2.0;
                    best = Some((gain, feature, threshold));
                }
            }
        }

        match best {
            None => leaf(tree),
            Some((_, feature, threshold)) => {
                let (left_rows, right_rows): (Vec<usize>, Vec<usize>) = rows
                    .into_iter()
                    .partition(|&r| data.sample(r).0[feature] < threshold);
                // Reserve our slot before children are pushed.
                tree.nodes.push(Node::Leaf { weight: 0.0 });
                let me = tree.nodes.len() - 1;
                let left = self.grow(tree, data, left_rows, grad, depth + 1);
                let right = self.grow(tree, data, right_rows, grad, depth + 1);
                tree.nodes[me] = Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                };
                me
            }
        }
    }
}

/// Resets `rows` to `0..rows.len()` and, when `subsample < 1`, shuffles
/// it: the tree grows on the first `k` rows (returned), in that order.
fn sample_rows(rows: &mut [u32], subsample: f64, rng: &mut StdRng) -> usize {
    for (i, r) in rows.iter_mut().enumerate() {
        *r = i as u32;
    }
    if subsample < 1.0 {
        rows.shuffle(rng);
        ((rows.len() as f64) * subsample).max(1.0) as usize
    } else {
        rows.len()
    }
}

/// The histogram grower of one fit: every buffer its trees need,
/// allocated once and reused by every node and tree.
struct HistGrower<'a> {
    params: GbtParams,
    binned: &'a BinnedDataset,
    /// The current tree's rows. A node owns a contiguous range, which its
    /// split partitions stably in place; sampled-out rows sit past the
    /// tree's range.
    rows: Vec<u32>,
    /// The right-hand rows of the partition in progress.
    right: Vec<u32>,
    /// The nodes of the tree being grown.
    nodes: Vec<Node>,
    /// Free histogram buffers, each `binned.total_bins()` long.
    pool: Vec<Vec<HistBin>>,
    /// `inv_h[n] = 1 / (n + lambda)`, the gain pre-filter's multipliers.
    inv_h: Vec<f64>,
}

impl<'a> HistGrower<'a> {
    fn new(params: GbtParams, binned: &'a BinnedDataset) -> Self {
        let n = binned.n_rows();
        HistGrower {
            params,
            binned,
            rows: vec![0; n],
            right: Vec::with_capacity(n),
            nodes: Vec::new(),
            pool: Vec::new(),
            inv_h: (0..=n).map(|h| 1.0 / (h as f64 + params.lambda)).collect(),
        }
    }

    /// Grows one tree against `grad` on a fresh row sample and adds its
    /// shrunken output to every row's `pred`.
    fn build_tree(
        &mut self,
        data: &Dataset,
        grad: &[f64],
        pred: &mut [f64],
        rng: &mut StdRng,
    ) -> Tree {
        let k = sample_rows(&mut self.rows, self.params.subsample, rng);
        let mut hist = self.take_hist();
        if self.params.subsample >= 1.0 {
            // Unshuffled: the tree holds every row, in row order.
            self.binned.build_root_histogram(grad, &mut hist);
        } else {
            self.binned
                .build_histogram(&self.rows[..k], grad, &mut hist);
        }
        self.nodes.clear();
        self.grow(grad, pred, 0, k, Some(hist), 0);
        let tree = Tree {
            nodes: self.nodes.clone(),
        };
        // Rows left out of the sample reach no leaf while growing.
        for &r in &self.rows[k..] {
            let r = r as usize;
            pred[r] += self.params.learning_rate * tree.predict(data.sample(r).0);
        }
        tree
    }

    fn take_hist(&mut self) -> Vec<HistBin> {
        self.pool
            .pop()
            .unwrap_or_else(|| vec![HistBin::default(); self.binned.total_bins()])
    }

    /// Recursively grows the node holding `rows[lo..hi]`, returning its
    /// index in `nodes`. `hist` is the node's own histogram (consumed: the
    /// larger child's is derived from it in place via the subtraction
    /// trick), or `None` for a node at `max_depth`, which is always a
    /// leaf. A leaf adds its shrunken weight to its rows' `pred`.
    fn grow(
        &mut self,
        grad: &[f64],
        pred: &mut [f64],
        lo: usize,
        hi: usize,
        hist: Option<Vec<HistBin>>,
        depth: usize,
    ) -> usize {
        // Node totals from the row list (not the bins): the same
        // summation order as the exact splitter, so leaf weights agree.
        let g_sum: f64 = self.rows[lo..hi].iter().map(|&r| grad[r as usize]).sum();
        let mut split = None;
        if let Some(hist) = hist {
            let found = if depth < self.params.max_depth && hi - lo >= 2 {
                self.best_split(&hist, g_sum, hi - lo)
            } else {
                None
            };
            match found {
                Some(at) => split = Some((hist, at)),
                None => self.pool.push(hist),
            }
        }
        let Some((mut hist, (feature, cut_idx))) = split else {
            let weight = -g_sum / ((hi - lo) as f64 + self.params.lambda);
            // The same `learning_rate * weight` a walk of the finished
            // tree would add for these rows.
            let step = self.params.learning_rate * weight;
            for &r in &self.rows[lo..hi] {
                pred[r as usize] += step;
            }
            self.nodes.push(Node::Leaf { weight });
            return self.nodes.len() - 1;
        };

        let mid = self.partition(lo, hi, feature, cut_idx);
        // Reserve our slot before children are pushed.
        self.nodes.push(Node::Leaf { weight: 0.0 });
        let me = self.nodes.len() - 1;
        let (left_hist, right_hist) = if depth + 1 >= self.params.max_depth {
            // Both children are leaves, and leaf weights come from the
            // row lists: they never read a histogram.
            self.pool.push(hist);
            (None, None)
        } else {
            // Subtraction trick: scan only the smaller child; the larger
            // child's histogram is parent minus sibling.
            let small_is_left = mid - lo <= hi - mid;
            let small_rows = if small_is_left { lo..mid } else { mid..hi };
            let mut small = self.take_hist();
            self.binned
                .build_histogram(&self.rows[small_rows], grad, &mut small);
            for (l, s) in hist.iter_mut().zip(&small) {
                l.grad -= s.grad;
                l.count -= s.count;
            }
            if small_is_left {
                (Some(small), Some(hist))
            } else {
                (Some(hist), Some(small))
            }
        };
        let left = self.grow(grad, pred, lo, mid, left_hist, depth + 1);
        let right = self.grow(grad, pred, mid, hi, right_hist, depth + 1);
        self.nodes[me] = Node::Split {
            feature,
            threshold: self.binned.cuts[feature][cut_idx],
            left,
            right,
        };
        me
    }

    /// The best split of a node with histogram `hist`, `n` rows and
    /// gradient sum `g_sum`, as (feature, cut index): the first candidate
    /// of greatest positive gain, or `None`.
    ///
    /// The gain `0.5 * (S - parent) - gamma` is monotone in the score
    /// `S = gl²/(nl+λ) + gr²/(nr+λ)`, so a candidate whose score is below
    /// the best one's cannot beat it. Each candidate first gets the
    /// multiply-only score `gl²·inv_h[nl] + gr²·inv_h[nr]`, within a few
    /// ulps of `S` (both terms are non-negative when `λ ≥ 0`). Below
    /// `best_S·(1 − 1e-9)` (less the smallest normal, which covers
    /// subnormal rounding) its exact score is certainly below `best_S`, so
    /// it is dropped; every other candidate computes the divided gain and
    /// compares it exactly as the plain scan does.
    fn best_split(&self, hist: &[HistBin], g_sum: f64, n: usize) -> Option<(usize, usize)> {
        let params = &self.params;
        let h_sum = n as f64;
        let parent_score = g_sum * g_sum / (h_sum + params.lambda);
        let total = n as u32;
        let mut best: Option<(f64, usize, usize)> = None; // (gain, feature, cut index)
        let mut floor = f64::NEG_INFINITY;
        for (feature, cuts) in self.binned.cuts.iter().enumerate() {
            let start = self.binned.offsets[feature];
            let mut gl = 0.0;
            let mut nl = 0u32;
            // Candidate b splits between bin b and b+1: threshold cuts[b].
            for (b, bin) in hist[start..start + cuts.len()].iter().enumerate() {
                if bin.count == 0 && bin.grad == 0.0 {
                    // An empty bin leaves (gl, nl) as they were: candidate
                    // b repeats candidate b-1. A subtraction residue in an
                    // empty bin does move gl, so it is scanned.
                    continue;
                }
                gl += bin.grad;
                nl += bin.count;
                if nl == 0 {
                    continue; // nothing on the left yet
                }
                if nl == total {
                    break; // nothing left on the right
                }
                let hl = f64::from(nl);
                if hl < params.min_child_weight || (h_sum - hl) < params.min_child_weight {
                    continue;
                }
                let gr = g_sum - gl;
                let approx =
                    gl * gl * self.inv_h[nl as usize] + gr * gr * self.inv_h[(total - nl) as usize];
                if approx < floor {
                    continue;
                }
                let hr = h_sum - hl;
                let score = gl * gl / (hl + params.lambda) + gr * gr / (hr + params.lambda);
                let gain = 0.5 * (score - parent_score) - params.gamma;
                if gain > 0.0 && best.is_none_or(|(g, _, _)| gain > g) {
                    best = Some((gain, feature, b));
                    if params.lambda >= 0.0 {
                        floor = score * (1.0 - 1e-9) - f64::MIN_POSITIVE;
                    }
                }
            }
        }
        best.map(|(_, feature, b)| (feature, b))
    }

    /// Stably partitions `rows[lo..hi]` on "code ≤ `cut_idx`" of `feature`
    /// and returns the boundary. Code ≤ `cut_idx` ⇔ value <
    /// `cuts[cut_idx]` (NaN included): the same rows the trained tree
    /// routes left at inference.
    fn partition(&mut self, lo: usize, hi: usize, feature: usize, cut_idx: usize) -> usize {
        let col = self.binned.feature_codes(feature);
        self.right.clear();
        let mut mid = lo;
        for i in lo..hi {
            let r = self.rows[i];
            if usize::from(col[r as usize]) <= cut_idx {
                self.rows[mid] = r;
                mid += 1;
            } else {
                self.right.push(r);
            }
        }
        self.rows[mid..hi].copy_from_slice(&self.right);
        mid
    }
}

impl Regressor for Gbt {
    fn fit(&mut self, train: &Dataset, _val: Option<&Dataset>) {
        assert!(!train.is_empty(), "cannot fit GBT on an empty dataset");
        assert!(
            train.len() <= u32::MAX as usize,
            "histogram GBT indexes rows as u32"
        );
        self.n_features = train.n_features();
        self.base_score = train.y().iter().sum::<f64>() / train.len() as f64;
        self.trees.clear();

        // Binning happens once per fit and is shared by every tree/round.
        let binned = match self.params.split_strategy {
            SplitStrategy::Histogram { max_bins } if self.params.max_depth > 0 => {
                Some(BinnedDataset::from_dataset(train, max_bins))
            }
            _ => None,
        };
        let mut grower = binned.as_ref().map(|b| HistGrower::new(self.params, b));

        let mut pred = vec![self.base_score; train.len()];
        let mut grad = vec![0.0; train.len()];
        let mut exact_rows = vec![0u32; train.len()];
        let mut rng = StdRng::seed_from_u64(self.params.seed);
        for _ in 0..self.params.n_trees {
            // Squared loss: grad = pred - y; hess = 1, so the splitters
            // take a node's row count as its hessian sum.
            for ((g, p), y) in grad.iter_mut().zip(&pred).zip(train.y()) {
                *g = p - y;
            }
            let tree = match &mut grower {
                Some(grower) => grower.build_tree(train, &grad, &mut pred, &mut rng),
                None => {
                    let k = sample_rows(&mut exact_rows, self.params.subsample, &mut rng);
                    let tree = self.build_tree(train, &exact_rows[..k], &grad);
                    for (i, p) in pred.iter_mut().enumerate() {
                        *p += self.params.learning_rate * tree.predict(train.sample(i).0);
                    }
                    tree
                }
            };
            self.trees.push(tree);
        }
    }

    fn predict_row(&self, x: &[f64]) -> f64 {
        assert_eq!(x.len(), self.n_features, "feature count mismatch");
        self.base_score
            + self
                .trees
                .iter()
                .map(|t| self.params.learning_rate * t.predict(x))
                .sum::<f64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::mse;

    fn wave_data(n: usize) -> Dataset {
        let rows: Vec<Vec<f64>> = (0..n)
            .map(|i| {
                let t = i as f64 / n as f64 * 6.0;
                vec![t, (t * 2.0).sin()]
            })
            .collect();
        let y: Vec<f64> = rows.iter().map(|r| r[0].sin() + 0.5 * r[1]).collect();
        Dataset::from_rows(&rows, &y).unwrap()
    }

    #[test]
    fn fits_nonlinear_function() {
        let data = wave_data(200);
        let mut m = Gbt::new(GbtParams {
            n_trees: 100,
            ..GbtParams::default()
        });
        m.fit(&data, None);
        let preds = m.predict(data.x());
        assert!(mse(&preds, data.y()) < 1e-3);
    }

    #[test]
    fn exact_strategy_fits_nonlinear_function() {
        let data = wave_data(200);
        let mut m = Gbt::new(GbtParams {
            n_trees: 100,
            split_strategy: SplitStrategy::Exact,
            ..GbtParams::default()
        });
        m.fit(&data, None);
        let preds = m.predict(data.x());
        assert!(mse(&preds, data.y()) < 1e-3);
    }

    #[test]
    fn more_trees_reduce_training_error() {
        let data = wave_data(200);
        let mut small = Gbt::new(GbtParams {
            n_trees: 5,
            ..GbtParams::default()
        });
        let mut large = Gbt::new(GbtParams {
            n_trees: 100,
            ..GbtParams::default()
        });
        small.fit(&data, None);
        large.fit(&data, None);
        let e_small = mse(&small.predict(data.x()), data.y());
        let e_large = mse(&large.predict(data.x()), data.y());
        assert!(e_large < e_small, "{e_large} !< {e_small}");
    }

    #[test]
    fn constant_target_predicts_constant() {
        let rows: Vec<Vec<f64>> = (0..20).map(|i| vec![i as f64]).collect();
        let y = vec![4.2; 20];
        let data = Dataset::from_rows(&rows, &y).unwrap();
        let mut m = Gbt::new(GbtParams::default());
        m.fit(&data, None);
        assert!((m.predict_row(&[7.0]) - 4.2).abs() < 1e-9);
    }

    #[test]
    fn subsampling_is_deterministic_per_seed() {
        let data = wave_data(100);
        let params = GbtParams {
            n_trees: 20,
            subsample: 0.7,
            seed: 9,
            ..GbtParams::default()
        };
        let mut a = Gbt::new(params);
        let mut b = Gbt::new(params);
        a.fit(&data, None);
        b.fit(&data, None);
        assert_eq!(a.predict(data.x()), b.predict(data.x()));
    }

    #[test]
    fn depth_zero_trees_are_stumps_of_mean() {
        let data = wave_data(50);
        let mut m = Gbt::new(GbtParams {
            n_trees: 3,
            max_depth: 0,
            ..GbtParams::default()
        });
        m.fit(&data, None);
        // Every tree is a single leaf; with grad = pred - y the first leaf
        // weight is -(sum residual)/(n + lambda) which is ~0 since base
        // score is the mean. Prediction stays near the mean everywhere.
        let mean = data.y().iter().sum::<f64>() / data.len() as f64;
        assert!((m.predict_row(data.sample(0).0) - mean).abs() < 0.05);
    }

    #[test]
    fn coarse_max_bins_still_learns() {
        let data = wave_data(200);
        let mut m = Gbt::new(GbtParams {
            n_trees: 60,
            split_strategy: SplitStrategy::Histogram { max_bins: 8 },
            ..GbtParams::default()
        });
        m.fit(&data, None);
        let base = data.y().iter().sum::<f64>() / data.len() as f64;
        let base_mse = mse(&vec![base; data.len()], data.y());
        let model_mse = mse(&m.predict(data.x()), data.y());
        assert!(
            model_mse < base_mse * 0.1,
            "8-bin model should still fit: {model_mse} vs baseline {base_mse}"
        );
    }

    #[test]
    fn binning_is_lossless_below_max_bins() {
        // 40 distinct values <= 255 bins: cut points are exactly the
        // midpoints between adjacent distinct values.
        let rows: Vec<Vec<f64>> = (0..120).map(|i| vec![(i % 40) as f64]).collect();
        let y = vec![0.0; 120];
        let data = Dataset::from_rows(&rows, &y).unwrap();
        let binned = BinnedDataset::from_dataset(&data, 255);
        assert_eq!(binned.n_bins(0), 40);
        for (b, cut) in binned.cuts(0).iter().enumerate() {
            assert_eq!(*cut, b as f64 + 0.5);
        }
    }

    #[test]
    fn quantile_binning_caps_bin_count() {
        // 1000 distinct values with max_bins 16: at most 15 cuts, strictly
        // increasing, and every value codes to a valid bin.
        let rows: Vec<Vec<f64>> = (0..1000).map(|i| vec![(i as f64).sqrt()]).collect();
        let y = vec![0.0; 1000];
        let data = Dataset::from_rows(&rows, &y).unwrap();
        let binned = BinnedDataset::from_dataset(&data, 16);
        assert!(binned.n_bins(0) <= 16);
        assert!(binned.n_bins(0) >= 8, "quantiles should use most bins");
        let cuts = binned.cuts(0);
        assert!(cuts.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn heavy_value_still_gets_cut_points() {
        // A dominant value used to swallow every quantile target: 30
        // singleton values (cumulative 30 < stride 37.5) followed by one
        // value holding 570 of 600 rows left the feature with zero cuts —
        // unsplittable under the default strategy while exact split it
        // fine. Heavy values now force boundary cuts (their own bin).
        let rows: Vec<Vec<f64>> = (0..600)
            .map(|i| vec![if i < 30 { i as f64 } else { 100.0 }])
            .collect();
        let y: Vec<f64> = rows
            .iter()
            .map(|r| if r[0] < 50.0 { -1.0 } else { 1.0 })
            .collect();
        let data = Dataset::from_rows(&rows, &y).unwrap();
        let binned = BinnedDataset::from_dataset(&data, 16);
        assert!(
            binned.n_bins(0) >= 2,
            "heavy-tailed feature must stay splittable"
        );
        assert!(binned.cuts(0).windows(2).all(|w| w[0] < w[1]));
        let mut m = Gbt::new(GbtParams {
            n_trees: 10,
            split_strategy: SplitStrategy::Histogram { max_bins: 16 },
            ..GbtParams::default()
        });
        m.fit(&data, None);
        assert!(
            m.split_thresholds().iter().any(|&(f, _)| f == 0),
            "model must split the heavy-tailed feature"
        );
        let preds = m.predict(data.x());
        assert!(mse(&preds, data.y()) < 0.1);
    }

    #[test]
    fn constant_feature_has_zero_cuts_and_is_never_split() {
        // Mirrors the StandardScaler constant-mask behaviour: a feature
        // with one distinct value carries no signal. It must produce zero
        // cut points and never appear in a trained tree.
        let rows: Vec<Vec<f64>> = (0..60).map(|i| vec![7.5, i as f64]).collect();
        let y: Vec<f64> = (0..60).map(|i| if i < 30 { -1.0 } else { 1.0 }).collect();
        let data = Dataset::from_rows(&rows, &y).unwrap();
        let binned = BinnedDataset::from_dataset(&data, 255);
        assert_eq!(binned.n_bins(0), 1);
        assert!(binned.cuts(0).is_empty());
        for strategy in [
            SplitStrategy::Histogram { max_bins: 255 },
            SplitStrategy::Exact,
        ] {
            let mut m = Gbt::new(GbtParams {
                n_trees: 10,
                split_strategy: strategy,
                ..GbtParams::default()
            });
            m.fit(&data, None);
            assert!(
                m.split_thresholds().iter().all(|&(f, _)| f != 0),
                "{strategy:?} split on a constant feature"
            );
            assert!(!m.split_thresholds().is_empty());
        }
    }

    #[test]
    fn nan_values_train_on_the_side_prediction_takes() {
        // 16 rows of value i with target 0 and 4 NaN rows with target 10.
        // NaN used to produce NaN cut points and code into bin 0, so
        // training routed it left while `Tree::predict` routes it right:
        // the model predicted ~0.015 for NaN. Cuts now come from the
        // non-NaN values and NaN codes past the last cut; NaN rows share
        // the last bin with value 15, whose leaf learns their mean, 8.
        let rows: Vec<Vec<f64>> = (0..20)
            .map(|i| vec![if i < 16 { i as f64 } else { f64::NAN }])
            .collect();
        let y: Vec<f64> = (0..20).map(|i| if i < 16 { 0.0 } else { 10.0 }).collect();
        let data = Dataset::from_rows(&rows, &y).unwrap();
        let binned = BinnedDataset::from_dataset(&data, 255);
        assert_eq!(binned.n_bins(0), 16);
        assert!(binned.cuts(0).iter().all(|c| c.is_finite()));
        assert!(binned.feature_codes(0)[16..].iter().all(|&c| c == 15));
        let mut m = Gbt::new(GbtParams {
            n_trees: 50,
            ..GbtParams::default()
        });
        m.fit(&data, None);
        let nan = m.predict_row(&[f64::NAN]);
        assert!((nan - 8.0).abs() < 0.5, "NaN predicts {nan}");
        assert_eq!(nan.to_bits(), m.predict_row(&[15.0]).to_bits());
        assert!(m.predict_row(&[3.0]).abs() < 0.5);
    }

    #[test]
    fn root_histogram_equals_the_row_order_scan() {
        // The sorted run sums add each bin's rows in row order, so they
        // must reproduce the row-by-row histogram bit for bit.
        let data = wave_data(300);
        let grad: Vec<f64> = (0..300).map(|i| (i as f64 * 0.37).sin() * 1e3).collect();
        for max_bins in [2, 7, 255] {
            let binned = BinnedDataset::from_dataset(&data, max_bins);
            let rows: Vec<u32> = (0..300).collect();
            let mut scan = vec![HistBin::default(); binned.total_bins()];
            binned.build_histogram(&rows, &grad, &mut scan);
            let mut runs = vec![HistBin::default(); binned.total_bins()];
            binned.build_root_histogram(&grad, &mut runs);
            for (a, b) in scan.iter().zip(&runs) {
                assert_eq!((a.grad.to_bits(), a.count), (b.grad.to_bits(), b.count));
            }
        }
    }
}
