//! # perfbug-ml
//!
//! From-scratch machine learning engines and metrics used by the
//! performance-bug-detection methodology of *"Automatic Microprocessor
//! Performance Bug Detection"* (HPCA 2021).
//!
//! The paper's stage-1 IPC models are implemented natively in Rust:
//!
//! * [`Lasso`] — L1-regularised linear regression (scikit-learn analogue),
//! * [`Mlp`] — multi-layer perceptron (Keras analogue),
//! * [`Cnn`] — 1-D convolutional network (Keras analogue),
//! * [`Lstm`] — long short-term memory network (Keras analogue),
//! * [`Gbt`] — gradient-boosted regression trees (XGBoost analogue) with
//!   LightGBM-style histogram split finding by default (see
//!   [`SplitStrategy`] and the [`gbt`] module docs).
//!
//! All engines train with deterministic seeded initialisation so that
//! experiments are reproducible. Each neural engine holds its parameters
//! in one flat buffer that the [`Adam`] optimiser (with gradient
//! clipping) steps in place, and stops early on a validation set,
//! matching the training protocol of the paper (§V-A). [`Gbt`] grows
//! each tree on the calling thread: stage-1 and baseline fits already
//! run one per worker of the collection and evaluation pools.
//!
//! ```
//! use perfbug_ml::{Dataset, Gbt, GbtParams, Regressor};
//!
//! // y = 2*x0 + noise-free offset
//! let x = vec![vec![0.0], vec![1.0], vec![2.0], vec![3.0]];
//! let y = vec![0.0, 2.0, 4.0, 6.0];
//! let data = Dataset::from_rows(&x, &y).unwrap();
//! let mut model = Gbt::new(GbtParams { n_trees: 50, ..GbtParams::default() });
//! model.fit(&data, None);
//! let pred = model.predict_row(&[1.5]);
//! assert!((pred - 3.0).abs() < 1.5);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod adam;
mod cnn;
pub mod dataset;
pub mod gbt;
mod linear;
mod lstm;
pub mod matrix;
pub mod metrics;
mod mlp;
mod scaler;

pub use adam::Adam;
pub use cnn::{Cnn, CnnParams};
pub use dataset::{Dataset, DatasetError, Sequence};
pub use gbt::{BinnedDataset, Gbt, GbtParams, SplitStrategy};
pub use linear::{Lasso, LassoParams};
pub use lstm::{Lstm, LstmParams};
pub use matrix::{axpy, dot, gemv, gemv_acc, matmul, matmul_ta, matmul_transb, Matrix};
pub use mlp::{Mlp, MlpParams};
pub use scaler::StandardScaler;

/// A trained (or trainable) regression model operating on independent rows.
///
/// Implemented by every stage-1 engine except [`Lstm`], which consumes whole
/// time-series sequences and implements [`SequenceRegressor`] instead.
pub trait Regressor {
    /// Fits the model to `train`. When `val` is provided, engines that
    /// support early stopping monitor validation loss and restore the best
    /// parameters seen (the paper stops after 100 epochs without
    /// improvement on the validation microarchitectures).
    fn fit(&mut self, train: &Dataset, val: Option<&Dataset>);

    /// Predicts the target for a single feature row.
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` differs from the feature count seen during
    /// [`fit`](Regressor::fit).
    fn predict_row(&self, x: &[f64]) -> f64;

    /// Predicts the target for every row of `x`.
    fn predict(&self, x: &Matrix) -> Vec<f64> {
        (0..x.rows()).map(|r| self.predict_row(x.row(r))).collect()
    }

    /// Predicts the target for a batch of feature rows.
    ///
    /// The default delegates to [`predict_row`](Regressor::predict_row);
    /// engines whose forward pass is linear-algebra shaped ([`Mlp`],
    /// [`Lasso`]) override it to run the whole batch through the blocked
    /// `matmul`/`gemv` kernels. Overrides must match the row-by-row path
    /// exactly while the reduction fits one kernel block (256 features),
    /// and to blocked-summation rounding beyond that.
    fn predict_batch(&self, rows: &[Vec<f64>]) -> Vec<f64> {
        rows.iter().map(|r| self.predict_row(r)).collect()
    }
}

/// A regression model over time-series sequences (one prediction per step).
pub trait SequenceRegressor {
    /// Fits the model on whole sequences, optionally early-stopping on a
    /// validation set of sequences.
    fn fit_sequences(&mut self, train: &[Sequence], val: Option<&[Sequence]>);

    /// Predicts one target value per time step of `seq`, consuming the
    /// sequence statefully from its first step.
    fn predict_sequence(&self, steps: &[Vec<f64>]) -> Vec<f64>;
}
