//! L1-regularised linear regression (Lasso) via cyclic coordinate descent.

use crate::dataset::Dataset;
use crate::matrix::{dot, gemv};
use crate::scaler::StandardScaler;
use crate::Regressor;

/// Hyper-parameters for [`Lasso`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LassoParams {
    /// L1 penalty weight (scikit-learn's `alpha`).
    pub alpha: f64,
    /// Maximum number of full coordinate-descent sweeps.
    pub max_iter: usize,
    /// Stop when the largest coefficient update in a sweep falls below this.
    pub tol: f64,
}

impl Default for LassoParams {
    fn default() -> Self {
        LassoParams {
            alpha: 0.001,
            max_iter: 1000,
            tol: 1e-6,
        }
    }
}

/// Lasso regression: `y = x·w + b` with an L1 penalty on `w`.
///
/// The paper uses Lasso as the simplest stage-1 engine; its appeal is
/// training speed (Table IV's fastest row) at the cost of accuracy. Features
/// are standardised internally so the penalty treats them uniformly.
#[derive(Debug, Clone)]
pub struct Lasso {
    params: LassoParams,
    scaler: Option<StandardScaler>,
    weights: Vec<f64>,
    intercept: f64,
}

impl Lasso {
    /// Creates an untrained Lasso model.
    pub fn new(params: LassoParams) -> Self {
        Lasso {
            params,
            scaler: None,
            weights: Vec::new(),
            intercept: 0.0,
        }
    }

    /// Fitted coefficients in standardised feature space (empty before
    /// training).
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// Fitted intercept.
    pub fn intercept(&self) -> f64 {
        self.intercept
    }

    /// Number of non-zero coefficients (the L1 penalty drives irrelevant
    /// features to exactly zero).
    pub fn n_active(&self) -> usize {
        self.weights.iter().filter(|w| **w != 0.0).count()
    }

    fn soft_threshold(z: f64, gamma: f64) -> f64 {
        if z > gamma {
            z - gamma
        } else if z < -gamma {
            z + gamma
        } else {
            0.0
        }
    }
}

impl Regressor for Lasso {
    fn fit(&mut self, train: &Dataset, _val: Option<&Dataset>) {
        assert!(!train.is_empty(), "cannot fit Lasso on an empty dataset");
        let scaler = StandardScaler::fit(train.x());
        let x = scaler.transform(train.x());
        let y = train.y();
        let n = x.rows() as f64;
        let d = x.cols();

        // Centre the target; the intercept absorbs its mean.
        let y_mean = y.iter().sum::<f64>() / n;
        let mut residual: Vec<f64> = y.iter().map(|v| v - y_mean).collect();

        // Column squared norms (columns are standardised, but guard anyway).
        let col_sq: Vec<f64> = (0..d)
            .map(|j| x.column(j).iter().map(|v| v * v).sum::<f64>())
            .collect();

        let mut w = vec![0.0; d];
        for _ in 0..self.params.max_iter {
            let mut max_delta: f64 = 0.0;
            for j in 0..d {
                if col_sq[j] < 1e-12 {
                    continue;
                }
                // rho = x_j . (residual + w_j * x_j)
                let mut rho = 0.0;
                for (r, res) in residual.iter().enumerate() {
                    let xj = x.get(r, j);
                    rho += xj * (res + w[j] * xj);
                }
                let new_w = Self::soft_threshold(rho / n, self.params.alpha) / (col_sq[j] / n);
                let delta = new_w - w[j];
                if delta != 0.0 {
                    for (r, res) in residual.iter_mut().enumerate() {
                        *res -= delta * x.get(r, j);
                    }
                    w[j] = new_w;
                    max_delta = max_delta.max(delta.abs());
                }
            }
            if max_delta < self.params.tol {
                break;
            }
        }
        self.scaler = Some(scaler);
        self.weights = w;
        self.intercept = y_mean;
    }

    fn predict_row(&self, x: &[f64]) -> f64 {
        let scaler = self
            .scaler
            .as_ref()
            .expect("Lasso::predict_row called before fit");
        let z = scaler.transform_row(x);
        assert_eq!(z.len(), self.weights.len(), "feature count mismatch");
        // Same `dot` kernel as the batched path, so both orders of
        // summation are identical.
        self.intercept + dot(&z, &self.weights)
    }

    /// Batched inference: one blocked [`gemv`] over the scaled row block
    /// instead of a dot product per row.
    fn predict_batch(&self, rows: &[Vec<f64>]) -> Vec<f64> {
        let scaler = self
            .scaler
            .as_ref()
            .expect("Lasso::predict_batch called before fit");
        let d = self.weights.len();
        let mut flat = Vec::with_capacity(rows.len() * d);
        for r in rows {
            let start = flat.len();
            flat.extend_from_slice(r);
            scaler.transform_row_in_place(&mut flat[start..]);
        }
        let mut y = vec![0.0; rows.len()];
        gemv(&flat, rows.len(), d, &self.weights, &mut y);
        for v in &mut y {
            *v += self.intercept;
        }
        y
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn linear_data(n: usize) -> Dataset {
        // y = 3*x0 - 2*x1 + 1, x2 is pure noise-free junk (constant).
        let rows: Vec<Vec<f64>> = (0..n)
            .map(|i| {
                let a = (i as f64 * 0.7).sin() * 5.0;
                let b = (i as f64 * 1.3).cos() * 3.0;
                vec![a, b, 1.0]
            })
            .collect();
        let y: Vec<f64> = rows.iter().map(|r| 3.0 * r[0] - 2.0 * r[1] + 1.0).collect();
        Dataset::from_rows(&rows, &y).unwrap()
    }

    #[test]
    fn recovers_linear_relationship() {
        let data = linear_data(100);
        let mut m = Lasso::new(LassoParams::default());
        m.fit(&data, None);
        let preds = m.predict(data.x());
        let err = crate::metrics::mse(&preds, data.y());
        assert!(err < 1e-2, "mse {err}");
    }

    #[test]
    fn strong_penalty_zeroes_weights() {
        let data = linear_data(100);
        let mut m = Lasso::new(LassoParams {
            alpha: 1e6,
            ..LassoParams::default()
        });
        m.fit(&data, None);
        assert_eq!(m.n_active(), 0);
        // Degenerates to predicting the mean.
        let mean = data.y().iter().sum::<f64>() / data.len() as f64;
        assert!((m.predict_row(data.sample(0).0) - mean).abs() < 1e-9);
    }

    #[test]
    fn sparsity_increases_with_alpha() {
        let data = linear_data(100);
        let mut weak = Lasso::new(LassoParams {
            alpha: 1e-4,
            ..LassoParams::default()
        });
        let mut strong = Lasso::new(LassoParams {
            alpha: 2.0,
            ..LassoParams::default()
        });
        weak.fit(&data, None);
        strong.fit(&data, None);
        assert!(strong.n_active() <= weak.n_active());
    }

    #[test]
    fn batched_inference_matches_scalar_path() {
        let data = linear_data(100);
        let mut m = Lasso::new(LassoParams::default());
        m.fit(&data, None);
        let rows: Vec<Vec<f64>> = (0..300)
            .map(|i| vec![(i as f64 * 0.31).sin() * 4.0, (i as f64 * 0.17).cos(), 1.0])
            .collect();
        let batched = m.predict_batch(&rows);
        let scalar: Vec<f64> = rows.iter().map(|r| m.predict_row(r)).collect();
        assert_eq!(batched, scalar);
    }

    #[test]
    #[should_panic(expected = "before fit")]
    fn predict_before_fit_panics() {
        Lasso::new(LassoParams::default()).predict_row(&[1.0]);
    }
}
