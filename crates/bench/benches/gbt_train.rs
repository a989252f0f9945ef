//! Criterion benchmark of GBT stage-1 training: exact greedy split finding
//! against histogram split finding on a paper-shaped dataset.
//!
//! The paper's best engine is GBT-250 (250 trees, depth 4); at paper scale
//! a probe's training set easily reaches tens of thousands of step rows
//! over ~30 selected counters. The exact splitter re-sorts every feature
//! column at every node (`O(rows log rows · features)` per node); the
//! histogram splitter bins once per fit and scans at most `max_bins` bins
//! per feature per node. The acceptance bar for the histogram engine is a
//! ≥ 3x win on this shape (see `docs/ENGINES.md` for recorded numbers).
//!
//! A second histogram case times one of the single-stage baseline's
//! per-probe classifiers (100 trees, depth 3): a few dozen designs of
//! aggregated counters and design parameters with 0/1 bug labels. The
//! baseline fits hundreds of these per evaluation, so this is the layer
//! behind perfbench's `baseline.eval_s`, in isolation.
//!
//! The exact fit takes tens of seconds at this shape — `sample_size(1)`
//! keeps the benchmark runnable (one warm-up plus one timed fit per
//! strategy). Run with:
//!
//! ```sh
//! cargo bench -p perfbug-bench --bench gbt_train
//! ```

use criterion::{criterion_group, criterion_main, Criterion};

use perfbug_ml::{BinnedDataset, Dataset, Gbt, GbtParams, Regressor, SplitStrategy};

/// Paper-shaped stage-1 training data: `n` step rows of `f` selected
/// counters with a nonlinear counters -> IPC target.
fn stage1_shaped(n: usize, f: usize) -> Dataset {
    let rows: Vec<Vec<f64>> = (0..n)
        .map(|i| {
            (0..f)
                .map(|j| ((i * (j + 3)) as f64 * 0.0137).sin() + ((i / 7 + j) as f64 * 0.011).cos())
                .collect()
        })
        .collect();
    let y: Vec<f64> = rows
        .iter()
        .map(|r| (r[0] * 1.3 + r[f / 2] * 0.7 + r[f - 1]).tanh() + 0.8)
        .collect();
    Dataset::from_rows(&rows, &y).expect("aligned")
}

/// Baseline-shaped data: `n` designs of `f` aggregated features and a
/// 0/1 bug label. A third of the columns are distinct per design (mean
/// counters, IPC), a third design parameters of two to six levels, and a
/// third counters that are zero on all but a few designs.
fn baseline_shaped(n: usize, f: usize) -> Dataset {
    let rows: Vec<Vec<f64>> = (0..n)
        .map(|i| {
            (0..f)
                .map(|j| match j % 3 {
                    0 => ((i * (j + 5)) as f64 * 0.173).sin() * (1.0 + j as f64 * 0.1),
                    1 => ((i * (j + 1)) % (j % 5 + 2)) as f64,
                    _ if i % 16 == j % 16 => (i + j) as f64 * 0.01,
                    _ => 0.0,
                })
                .collect()
        })
        .collect();
    let y: Vec<f64> = rows
        .iter()
        .map(|r| f64::from(u8::from(r[0] + 0.5 * r[f / 2] - 0.2 * r[1] > 0.0)))
        .collect();
    Dataset::from_rows(&rows, &y).expect("aligned")
}

fn params(strategy: SplitStrategy) -> GbtParams {
    GbtParams {
        n_trees: 250,
        max_depth: 4,
        split_strategy: strategy,
        ..GbtParams::default()
    }
}

fn bench_gbt_train(c: &mut Criterion) {
    let data = stage1_shaped(10_000, 30);
    c.bench_function("gbt250_train_histogram_10000x30", |b| {
        b.iter(|| {
            let mut m = Gbt::new(params(SplitStrategy::Histogram { max_bins: 255 }));
            m.fit(&data, None);
            m.n_trees()
        })
    });
    c.bench_function("gbt250_train_exact_10000x30", |b| {
        b.iter(|| {
            let mut m = Gbt::new(params(SplitStrategy::Exact));
            m.fit(&data, None);
            m.n_trees()
        })
    });
    let baseline = baseline_shaped(64, 48);
    c.bench_function("gbt100_train_baseline_64x48", |b| {
        b.iter(|| {
            let mut m = Gbt::new(GbtParams {
                n_trees: 100,
                max_depth: 3,
                ..GbtParams::default()
            });
            m.fit(&baseline, None);
            m.n_trees()
        })
    });
    // The once-per-fit quantisation cost in isolation.
    c.bench_function("binned_dataset_build_10000x30", |b| {
        b.iter(|| BinnedDataset::from_dataset(&data, 255).n_features())
    });
}

criterion_group!(
    name = gbt;
    config = Criterion::default().sample_size(1);
    targets = bench_gbt_train
);
criterion_main!(gbt);
