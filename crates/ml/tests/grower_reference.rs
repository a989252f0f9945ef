//! Reference property for the histogram GBT grower.
//!
//! `reference_fit` below is a frozen, self-contained copy of the plain
//! histogram trainer: quantile binning, one `vec!` histogram per scanned
//! node built row by row, the subtraction trick, a divided gain for every
//! candidate, partitions into fresh row vectors, and a prediction update
//! that walks each finished tree for every training row. `Gbt::fit`
//! replaces all of that with sorted root accumulation, pooled buffers, an
//! exact gain pre-filter and leaf-based prediction updates; this property
//! checks that it still grows the *same* ensemble, bit for bit: equal
//! `split_thresholds()` and equal `predict_row` bits, over random finite
//! datasets (1–300 rows, 1–80 duplicate-heavy, all-distinct or constant
//! columns), `max_bins` 2–255, `max_depth` 0–6, with and without row
//! subsampling, and varied `lambda`, `gamma` and `min_child_weight`.

use perfbug_ml::{Dataset, Gbt, GbtParams, Regressor, SplitStrategy};
use proptest::prelude::*;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

#[derive(Clone, Copy, Default)]
struct Bin {
    grad: f64,
    count: u32,
}

enum Node {
    Leaf(f64),
    Split {
        feature: usize,
        threshold: f64,
        left: usize,
        right: usize,
    },
}

struct RefTree(Vec<Node>);

impl RefTree {
    fn predict(&self, x: &[f64]) -> f64 {
        let mut idx = 0;
        loop {
            match self.0[idx] {
                Node::Leaf(w) => return w,
                Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => idx = if x[feature] < threshold { left } else { right },
            }
        }
    }
}

struct RefModel {
    base: f64,
    lr: f64,
    trees: Vec<RefTree>,
}

impl RefModel {
    fn predict_row(&self, x: &[f64]) -> f64 {
        self.base
            + self
                .trees
                .iter()
                .map(|t| self.lr * t.predict(x))
                .sum::<f64>()
    }

    fn split_thresholds(&self) -> Vec<(usize, f64)> {
        self.trees
            .iter()
            .flat_map(|t| &t.0)
            .filter_map(|n| match *n {
                Node::Split {
                    feature, threshold, ..
                } => Some((feature, threshold)),
                Node::Leaf(_) => None,
            })
            .collect()
    }
}

fn quantile_cuts(sorted: &[f64], max_bins: usize) -> Vec<f64> {
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
    let mut cuts = Vec::new();
    if distinct.len() <= max_bins {
        for pair in distinct.windows(2) {
            cuts.push((pair[0].0 + pair[1].0) / 2.0);
        }
        return cuts;
    }
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

struct Binned {
    cuts: Vec<Vec<f64>>,
    /// `codes[f][r]`.
    codes: Vec<Vec<u8>>,
    offsets: Vec<usize>,
}

impl Binned {
    fn new(data: &Dataset, max_bins: u16) -> Self {
        let max_bins = (max_bins as usize).clamp(2, 256);
        let mut b = Binned {
            cuts: Vec::new(),
            codes: Vec::new(),
            offsets: vec![0],
        };
        for f in 0..data.n_features() {
            let mut column: Vec<f64> = (0..data.len()).map(|r| data.sample(r).0[f]).collect();
            column.sort_by(f64::total_cmp);
            let cuts = quantile_cuts(&column, max_bins);
            b.codes.push(
                (0..data.len())
                    .map(|r| cuts.partition_point(|&c| c <= data.sample(r).0[f]) as u8)
                    .collect(),
            );
            b.offsets.push(b.offsets[f] + cuts.len() + 1);
            b.cuts.push(cuts);
        }
        b
    }

    fn histogram(&self, rows: &[usize], grad: &[f64]) -> Vec<Bin> {
        let mut hist = vec![Bin::default(); *self.offsets.last().unwrap()];
        for (f, codes) in self.codes.iter().enumerate() {
            for &r in rows {
                let bin = &mut hist[self.offsets[f] + codes[r] as usize];
                bin.grad += grad[r];
                bin.count += 1;
            }
        }
        hist
    }
}

fn grow(
    p: &GbtParams,
    tree: &mut Vec<Node>,
    binned: &Binned,
    rows: Vec<usize>,
    hist: Vec<Bin>,
    grad: &[f64],
    depth: usize,
) -> usize {
    let g_sum: f64 = rows.iter().map(|&r| grad[r]).sum();
    let h_sum = rows.len() as f64;
    if depth >= p.max_depth || rows.len() < 2 {
        tree.push(Node::Leaf(-g_sum / (h_sum + p.lambda)));
        return tree.len() - 1;
    }
    let parent_score = g_sum * g_sum / (h_sum + p.lambda);
    let total = rows.len() as u32;
    let mut best: Option<(f64, usize, usize)> = None;
    for (feature, cuts) in binned.cuts.iter().enumerate() {
        let bins = &hist[binned.offsets[feature]..binned.offsets[feature + 1]];
        let mut gl = 0.0;
        let mut nl = 0u32;
        for (b, bin) in bins[..cuts.len()].iter().enumerate() {
            gl += bin.grad;
            nl += bin.count;
            let hl = f64::from(nl);
            if nl == 0 {
                continue;
            }
            if nl == total {
                break;
            }
            if hl < p.min_child_weight || (h_sum - hl) < p.min_child_weight {
                continue;
            }
            let gr = g_sum - gl;
            let hr = h_sum - hl;
            let gain = 0.5 * (gl * gl / (hl + p.lambda) + gr * gr / (hr + p.lambda) - parent_score)
                - p.gamma;
            if gain > 0.0 && best.is_none_or(|(g, _, _)| gain > g) {
                best = Some((gain, feature, b));
            }
        }
    }
    let Some((_, feature, cut)) = best else {
        tree.push(Node::Leaf(-g_sum / (h_sum + p.lambda)));
        return tree.len() - 1;
    };
    let codes = &binned.codes[feature];
    let (left_rows, right_rows): (Vec<usize>, Vec<usize>) =
        rows.into_iter().partition(|&r| codes[r] as usize <= cut);
    tree.push(Node::Leaf(0.0));
    let me = tree.len() - 1;
    let (left_hist, right_hist) = if depth + 1 >= p.max_depth {
        (Vec::new(), Vec::new())
    } else {
        let small_is_left = left_rows.len() <= right_rows.len();
        let small = binned.histogram(
            if small_is_left {
                &left_rows
            } else {
                &right_rows
            },
            grad,
        );
        let mut large = hist;
        for (l, s) in large.iter_mut().zip(&small) {
            l.grad -= s.grad;
            l.count -= s.count;
        }
        if small_is_left {
            (small, large)
        } else {
            (large, small)
        }
    };
    let left = grow(p, tree, binned, left_rows, left_hist, grad, depth + 1);
    let right = grow(p, tree, binned, right_rows, right_hist, grad, depth + 1);
    tree[me] = Node::Split {
        feature,
        threshold: binned.cuts[feature][cut],
        left,
        right,
    };
    me
}

/// The plain histogram trainer, frozen as the reference.
fn reference_fit(data: &Dataset, p: &GbtParams) -> RefModel {
    let SplitStrategy::Histogram { max_bins } = p.split_strategy else {
        unreachable!("the reference covers the histogram strategy only")
    };
    let binned = Binned::new(data, max_bins);
    let n = data.len();
    let mut model = RefModel {
        base: data.y().iter().sum::<f64>() / n as f64,
        lr: p.learning_rate,
        trees: Vec::new(),
    };
    let mut pred = vec![model.base; n];
    let mut rng = rand::rngs::StdRng::seed_from_u64(p.seed);
    let all_rows: Vec<usize> = (0..n).collect();
    for _ in 0..p.n_trees {
        let grad: Vec<f64> = pred.iter().zip(data.y()).map(|(p, y)| p - y).collect();
        let rows = if p.subsample < 1.0 {
            let k = ((n as f64) * p.subsample).max(1.0) as usize;
            let mut shuffled = all_rows.clone();
            shuffled.shuffle(&mut rng);
            shuffled.truncate(k);
            shuffled
        } else {
            all_rows.clone()
        };
        let hist = binned.histogram(&rows, &grad);
        let mut nodes = Vec::new();
        grow(p, &mut nodes, &binned, rows, hist, &grad, 0);
        let tree = RefTree(nodes);
        for (i, pr) in pred.iter_mut().enumerate() {
            *pr += p.learning_rate * tree.predict(data.sample(i).0);
        }
        model.trees.push(tree);
    }
    model
}

/// A random finite dataset and parameter set drawn from `seed`.
fn random_case(seed: u64) -> (Dataset, GbtParams) {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let n = rng.gen_range(1usize..=300);
    let n_features = rng.gen_range(1usize..=80);
    let mut columns: Vec<Vec<f64>> = Vec::with_capacity(n_features);
    for _ in 0..n_features {
        let column = match rng.gen_range(0u32..3) {
            // Duplicate-heavy: a few levels, so bins hold many rows.
            0 => {
                let levels = rng.gen_range(1u32..=12);
                (0..n)
                    .map(|_| f64::from(rng.gen_range(0..levels)) * 0.5 - 2.0)
                    .collect()
            }
            // All distinct (with probability ~1): more values than most
            // `max_bins`, so quantile cuts are exercised too.
            1 => (0..n).map(|_| rng.gen_range(-10.0..10.0f64)).collect(),
            // Constant.
            _ => vec![rng.gen_range(-5.0..5.0f64); n],
        };
        columns.push(column);
    }
    let rows: Vec<Vec<f64>> = (0..n)
        .map(|r| columns.iter().map(|c| c[r]).collect())
        .collect();
    let y: Vec<f64> = rows
        .iter()
        .map(|row| (row[0] * 0.7).sin() + row[row.len() / 2] * 0.3 + rng.gen_range(-0.2..0.2f64))
        .collect();
    let params = GbtParams {
        n_trees: rng.gen_range(1usize..=12),
        max_depth: rng.gen_range(0usize..=6),
        learning_rate: rng.gen_range(0.05..0.5f64),
        lambda: if rng.gen_bool(0.2) {
            0.0
        } else {
            rng.gen_range(0.01..4.0f64)
        },
        gamma: if rng.gen_bool(0.5) {
            0.0
        } else {
            rng.gen_range(0.0..0.05f64)
        },
        min_child_weight: rng.gen_range(0.0..4.0f64),
        subsample: if rng.gen_bool(0.5) {
            1.0
        } else {
            rng.gen_range(0.3..1.0f64)
        },
        seed: rng.gen_range(0u64..1000),
        split_strategy: SplitStrategy::Histogram {
            max_bins: rng.gen_range(2u16..=255),
        },
    };
    (Dataset::from_rows(&rows, &y).unwrap(), params)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn fit_matches_the_reference_grower_bit_for_bit(seed in any::<u64>()) {
        let (data, params) = random_case(seed);
        let reference = reference_fit(&data, &params);
        let mut model = Gbt::new(params);
        model.fit(&data, None);
        // Splits as (feature, threshold bits), reported from the first
        // difference on.
        let bits = |s: Vec<(usize, f64)>| -> Vec<(usize, u64)> {
            s.into_iter().map(|(f, t)| (f, t.to_bits())).collect()
        };
        let (got, want) = (bits(model.split_thresholds()), bits(reference.split_thresholds()));
        let first = got.iter().zip(&want).take_while(|(a, b)| a == b).count();
        prop_assert!(
            got == want,
            "{params:?}: splits differ from split {first}: {:?} vs {:?}",
            got.get(first),
            want.get(first)
        );
        for r in 0..data.len() {
            let x = data.sample(r).0;
            prop_assert_eq!(model.predict_row(x).to_bits(), reference.predict_row(x).to_bits());
        }
    }
}
