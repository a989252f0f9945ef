//! Long short-term memory network for per-step time-series regression.
//!
//! The paper feeds the counter time series of a probe to an LSTM and reads
//! an IPC estimate at every step; history is carried by the recurrent state
//! (§III-C). Models are named `<layers>-LSTM-<hidden>` (e.g. `1-LSTM-500`).
//! Training is full back-propagation through time with Adam and gradient
//! clipping — the paper notes that LSTMs are hard to train and exhibit
//! non-convergent outliers, which this implementation reproduces when the
//! clip is disabled.

use rand::seq::SliceRandom;
use rand::Rng;
use rand::SeedableRng;

use crate::adam::Adam;
use crate::dataset::Sequence;
use crate::matrix::{axpy, dot, gemv_acc};
use crate::scaler::StandardScaler;
use crate::{Matrix, SequenceRegressor};

/// Hyper-parameters for [`Lstm`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LstmParams {
    /// Number of stacked LSTM layers (paper prefix).
    pub layers: usize,
    /// Hidden state width per layer (paper postfix).
    pub hidden: usize,
    /// Learning rate for Adam.
    pub lr: f64,
    /// Global-norm gradient clip (the paper uses 0.01).
    pub clip_norm: Option<f64>,
    /// Hard cap on training epochs.
    pub max_epochs: usize,
    /// Early-stopping patience in epochs.
    pub patience: usize,
    /// Seed for initialisation and shuffling.
    pub seed: u64,
}

impl Default for LstmParams {
    fn default() -> Self {
        LstmParams {
            layers: 1,
            hidden: 32,
            lr: 3e-3,
            clip_norm: Some(0.01),
            max_epochs: 200,
            patience: 100,
            seed: 0,
        }
    }
}

fn sigmoid(x: f64) -> f64 {
    1.0 / (1.0 + (-x).exp())
}

/// Parameter layout for one LSTM layer inside the flat buffer.
#[derive(Debug, Clone, Copy)]
struct LayerLayout {
    in_dim: usize,
    hidden: usize,
    /// Offset of `Wx` (`4H x in_dim`).
    wx: usize,
    /// Offset of `Wh` (`4H x H`).
    wh: usize,
    /// Offset of `b` (`4H`).
    b: usize,
}

impl LayerLayout {
    fn size(&self) -> usize {
        4 * self.hidden * (self.in_dim + self.hidden + 1)
    }
}

/// Activations of one layer over one sequence, kept for BPTT in flat
/// step-major buffers (stride `in_dim` for `x`, `4H` for `gates`, `H`
/// otherwise). Cleared and refilled per sequence, so the allocations are
/// reused across the whole fit.
#[derive(Debug, Default, Clone)]
struct LayerTrace {
    /// Inputs per step (`steps x in_dim`).
    x: Vec<f64>,
    /// Activated gates per step (`steps x 4H`, ordered `[i f g o]` to
    /// match the weight-row layout).
    gates: Vec<f64>,
    /// Cell state per step (`steps x H`).
    c: Vec<f64>,
    /// `tanh(c)` per step (`steps x H`).
    tc: Vec<f64>,
    /// Hidden state per step (`steps x H`).
    h: Vec<f64>,
}

impl LayerTrace {
    fn clear(&mut self) {
        self.x.clear();
        self.gates.clear();
        self.c.clear();
        self.tc.clear();
        self.h.clear();
    }
}

/// Reusable forward/backward buffers shared across the sequences and
/// epochs of one fit (or one prediction pass).
#[derive(Debug, Default)]
struct LstmScratch {
    /// Per-layer activation traces of the current sequence.
    traces: Vec<LayerTrace>,
    /// Per-step predictions of the current sequence.
    preds: Vec<f64>,
    /// Gate pre-activation / activation workspace (`4H`).
    gates: Vec<f64>,
    /// Per-layer carry of dL/dh from the future (`layers x H`).
    dh_next: Vec<f64>,
    /// Per-layer carry of dL/dc from the future (`layers x H`).
    dc_next: Vec<f64>,
    /// Gate-preactivation gradients (`4H`).
    da: Vec<f64>,
    /// Gradient flowing into the layer below / the input (`max in_dim`).
    dx: Vec<f64>,
    /// Gradient into the previous step's hidden state (`H`).
    dh_prev: Vec<f64>,
    /// dL/dh arriving from the layer above at the current step.
    dh_above: Vec<f64>,
    /// All-zero row standing in for pre-sequence state (`max dim`).
    zeros: Vec<f64>,
}

/// Stacked LSTM regressor with a linear per-step output head.
#[derive(Debug, Clone)]
pub struct Lstm {
    params: LstmParams,
    layouts: Vec<LayerLayout>,
    /// Flat parameters: all layers, then output head (`H` weights + bias).
    theta: Vec<f64>,
    out_w_off: usize,
    n_features: usize,
    scaler: Option<StandardScaler>,
}

impl Lstm {
    /// Creates an untrained LSTM.
    pub fn new(params: LstmParams) -> Self {
        Lstm {
            params,
            layouts: Vec::new(),
            theta: Vec::new(),
            out_w_off: 0,
            n_features: 0,
            scaler: None,
        }
    }

    /// Total number of trainable parameters (0 before fit).
    pub fn n_params(&self) -> usize {
        self.theta.len()
    }

    fn init(&mut self, n_features: usize, rng: &mut impl Rng) {
        self.n_features = n_features;
        self.layouts.clear();
        let h = self.params.hidden;
        let mut off = 0;
        for l in 0..self.params.layers.max(1) {
            let in_dim = if l == 0 { n_features } else { h };
            let layout = LayerLayout {
                in_dim,
                hidden: h,
                wx: off,
                wh: off + 4 * h * in_dim,
                b: off + 4 * h * (in_dim + h),
            };
            off += layout.size();
            self.layouts.push(layout);
        }
        self.out_w_off = off;
        let total = off + h + 1;
        let mut theta = vec![0.0; total];
        for layout in &self.layouts {
            let scale = (1.0 / layout.in_dim as f64).sqrt();
            for w in &mut theta[layout.wx..layout.wh] {
                *w = (rng.gen::<f64>() * 2.0 - 1.0) * scale;
            }
            let scale = (1.0 / layout.hidden as f64).sqrt();
            for w in &mut theta[layout.wh..layout.b] {
                *w = (rng.gen::<f64>() * 2.0 - 1.0) * scale;
            }
            // Forget-gate bias starts at 1.0 (standard trick for gradient
            // flow); other gate biases start at 0.
            for j in 0..layout.hidden {
                theta[layout.b + layout.hidden + j] = 1.0;
            }
        }
        let scale = (1.0 / h as f64).sqrt();
        for w in &mut theta[self.out_w_off..self.out_w_off + h] {
            *w = (rng.gen::<f64>() * 2.0 - 1.0) * scale;
        }
        self.theta = theta;
    }

    /// Runs the stack over `steps`, filling the scratch's traces and
    /// per-step predictions. The forward path allocates nothing once the
    /// scratch buffers reach steady state: each gate block is two
    /// [`gemv_acc`] kernels over contiguous weight rows.
    fn forward_into(&self, steps: &[Vec<f64>], scratch: &mut LstmScratch) {
        let h_dim = self.params.hidden;
        let n_layers = self.layouts.len();
        scratch.traces.resize_with(n_layers, LayerTrace::default);
        for tr in &mut scratch.traces {
            tr.clear();
        }
        scratch.preds.clear();
        scratch.gates.resize(4 * h_dim, 0.0);
        let max_dim = self
            .layouts
            .iter()
            .map(|l| l.in_dim)
            .max()
            .unwrap_or(0)
            .max(h_dim);
        scratch.zeros.clear();
        scratch.zeros.resize(max_dim, 0.0);

        let out_w = &self.theta[self.out_w_off..self.out_w_off + h_dim];
        let out_b = self.theta[self.out_w_off + h_dim];
        for (t, step) in steps.iter().enumerate() {
            for li in 0..n_layers {
                let layout = self.layouts[li];
                // Previous hidden state: this layer's own trace at t-1,
                // or zeros at the sequence start.
                let h_prev_start = t.saturating_sub(1) * h_dim;
                // Gate pre-activations: b + Wx·x + Wh·h_prev.
                let gates = &mut scratch.gates;
                gates.copy_from_slice(&self.theta[layout.b..layout.b + 4 * h_dim]);
                {
                    // Current input: the raw step for layer 0, the layer
                    // below's fresh hidden state otherwise. Borrow it out
                    // of the traces before mutating this layer's trace.
                    let x: &[f64] = if li == 0 {
                        step
                    } else {
                        let below = &scratch.traces[li - 1].h;
                        &below[t * h_dim..(t + 1) * h_dim]
                    };
                    gemv_acc(
                        &self.theta[layout.wx..layout.wx + 4 * h_dim * layout.in_dim],
                        4 * h_dim,
                        layout.in_dim,
                        x,
                        gates,
                    );
                    let h_prev: &[f64] = if t == 0 {
                        &scratch.zeros[..h_dim]
                    } else {
                        &scratch.traces[li].h[h_prev_start..h_prev_start + h_dim]
                    };
                    gemv_acc(
                        &self.theta[layout.wh..layout.wh + 4 * h_dim * h_dim],
                        4 * h_dim,
                        h_dim,
                        h_prev,
                        gates,
                    );
                    // Activate in place: i, f, o sigmoid; g tanh.
                    for (r, v) in gates.iter_mut().enumerate() {
                        *v = if (2 * h_dim..3 * h_dim).contains(&r) {
                            v.tanh()
                        } else {
                            sigmoid(*v)
                        };
                    }
                    // Record the input now that the gates no longer need it.
                    let tr_x = &mut scratch.traces[li];
                    if li == 0 {
                        tr_x.x.extend_from_slice(step);
                    }
                }
                if li > 0 {
                    // Copy the layer-below hidden state into this layer's
                    // input trace (split_at_mut to satisfy the borrows).
                    let (below, above) = scratch.traces.split_at_mut(li);
                    let src = &below[li - 1].h[t * h_dim..(t + 1) * h_dim];
                    above[0].x.extend_from_slice(src);
                }
                // State update: c = f*c_prev + i*g; h = o*tanh(c).
                let tr = &mut scratch.traces[li];
                tr.gates.extend_from_slice(&scratch.gates);
                let gates = &scratch.gates;
                for j in 0..h_dim {
                    let c_prev = if t == 0 {
                        0.0
                    } else {
                        tr.c[(t - 1) * h_dim + j]
                    };
                    let c = gates[h_dim + j] * c_prev + gates[j] * gates[2 * h_dim + j];
                    let tc = c.tanh();
                    tr.c.push(c);
                    tr.tc.push(tc);
                    tr.h.push(gates[3 * h_dim + j] * tc);
                }
            }
            let h_top = &scratch.traces[n_layers - 1].h[t * h_dim..(t + 1) * h_dim];
            scratch.preds.push(out_b + dot(out_w, h_top));
        }
    }

    /// BPTT for one sequence over the traces left by
    /// [`Lstm::forward_into`]; accumulates into `grad` and returns the
    /// mean squared error. All intermediates live in the scratch and every
    /// inner loop is an [`axpy`] over a contiguous weight or gradient row.
    fn backward(&self, scratch: &mut LstmScratch, targets: &[f64], grad: &mut [f64]) -> f64 {
        let h_dim = self.params.hidden;
        let n_layers = self.layouts.len();
        let steps = scratch.preds.len();
        let inv_t = 1.0 / steps as f64;
        let out_w = self.out_w_off;

        scratch.dh_next.clear();
        scratch.dh_next.resize(n_layers * h_dim, 0.0);
        scratch.dc_next.clear();
        scratch.dc_next.resize(n_layers * h_dim, 0.0);
        scratch.da.resize(4 * h_dim, 0.0);
        let max_in = self.layouts.iter().map(|l| l.in_dim).max().unwrap_or(0);
        scratch.dx.resize(max_in, 0.0);
        scratch.dh_prev.resize(h_dim, 0.0);
        scratch.dh_above.resize(max_in.max(h_dim), 0.0);

        let mut sq_err = 0.0;
        for t in (0..steps).rev() {
            let err = scratch.preds[t] - targets[t];
            sq_err += err * err;
            let d_pred = 2.0 * err * inv_t;
            // Output head gradient and seed for the top layer's dh.
            let top = n_layers - 1;
            let h_top = &scratch.traces[top].h[t * h_dim..(t + 1) * h_dim];
            grad[out_w + h_dim] += d_pred;
            axpy(d_pred, h_top, &mut grad[out_w..out_w + h_dim]);
            scratch.dh_above[..h_dim].copy_from_slice(&self.theta[out_w..out_w + h_dim]);
            scratch.dh_above[..h_dim]
                .iter_mut()
                .for_each(|v| *v *= d_pred);
            for li in (0..n_layers).rev() {
                let layout = self.layouts[li];
                let tr = &scratch.traces[li];
                let gates = &tr.gates[t * 4 * h_dim..(t + 1) * 4 * h_dim];
                let tc = &tr.tc[t * h_dim..(t + 1) * h_dim];
                // Gate-preactivation gradients.
                for j in 0..h_dim {
                    let dh = scratch.dh_above[j] + scratch.dh_next[li * h_dim + j];
                    let (i, f, g, o) = (
                        gates[j],
                        gates[h_dim + j],
                        gates[2 * h_dim + j],
                        gates[3 * h_dim + j],
                    );
                    let c_prev = if t > 0 {
                        tr.c[(t - 1) * h_dim + j]
                    } else {
                        0.0
                    };
                    let do_ = dh * tc[j];
                    let dc = dh * o * (1.0 - tc[j] * tc[j]) + scratch.dc_next[li * h_dim + j];
                    scratch.dc_next[li * h_dim + j] = dc * f;
                    scratch.da[j] = dc * g * i * (1.0 - i);
                    scratch.da[h_dim + j] = dc * c_prev * f * (1.0 - f);
                    scratch.da[2 * h_dim + j] = dc * i * (1.0 - g * g);
                    scratch.da[3 * h_dim + j] = do_ * o * (1.0 - o);
                }
                // Parameter gradients and downstream gradients.
                let x = &tr.x[t * layout.in_dim..(t + 1) * layout.in_dim];
                let h_prev: &[f64] = if t > 0 {
                    &tr.h[(t - 1) * h_dim..t * h_dim]
                } else {
                    &scratch.zeros[..h_dim]
                };
                let dx = &mut scratch.dx[..layout.in_dim];
                dx.iter_mut().for_each(|v| *v = 0.0);
                let dh_prev = &mut scratch.dh_prev[..h_dim];
                dh_prev.iter_mut().for_each(|v| *v = 0.0);
                for (r, &d) in scratch.da.iter().enumerate() {
                    if d == 0.0 {
                        continue;
                    }
                    grad[layout.b + r] += d;
                    let wx_row = layout.wx + r * layout.in_dim;
                    axpy(d, x, &mut grad[wx_row..wx_row + layout.in_dim]);
                    axpy(d, &self.theta[wx_row..wx_row + layout.in_dim], dx);
                    let wh_row = layout.wh + r * h_dim;
                    axpy(d, h_prev, &mut grad[wh_row..wh_row + h_dim]);
                    axpy(d, &self.theta[wh_row..wh_row + h_dim], dh_prev);
                }
                scratch.dh_next[li * h_dim..(li + 1) * h_dim].copy_from_slice(dh_prev);
                // dx feeds the layer below as part of its dh at this step.
                scratch.dh_above[..layout.in_dim].copy_from_slice(&scratch.dx[..layout.in_dim]);
            }
        }
        sq_err * inv_t
    }

    fn eval_with(&self, seqs: &[Sequence], scratch: &mut LstmScratch) -> f64 {
        let mut total = 0.0;
        let mut n = 0usize;
        for s in seqs {
            self.forward_into(&s.steps, scratch);
            for (p, y) in scratch.preds.iter().zip(&s.targets) {
                total += (p - y) * (p - y);
            }
            n += s.len();
        }
        if n == 0 {
            0.0
        } else {
            total / n as f64
        }
    }

    #[cfg(test)]
    fn eval(&self, seqs: &[Sequence]) -> f64 {
        self.eval_with(seqs, &mut LstmScratch::default())
    }

    fn scale_sequences(&self, seqs: &[Sequence]) -> Vec<Sequence> {
        let scaler = self.scaler.as_ref().expect("scaler fitted");
        seqs.iter()
            .map(|s| Sequence {
                steps: s
                    .steps
                    .iter()
                    .map(|row| scaler.transform_row(row))
                    .collect(),
                targets: s.targets.clone(),
            })
            .collect()
    }
}

impl SequenceRegressor for Lstm {
    fn fit_sequences(&mut self, train: &[Sequence], val: Option<&[Sequence]>) {
        assert!(!train.is_empty(), "cannot fit LSTM on no sequences");
        let n_features = train[0].n_features();
        assert!(
            train
                .iter()
                .all(|s| s.n_features() == n_features && !s.is_empty()),
            "all training sequences must be non-empty with equal feature counts"
        );
        // Fit the scaler over every step of every sequence.
        let all_rows: Vec<Vec<f64>> = train.iter().flat_map(|s| s.steps.iter().cloned()).collect();
        let flat = Matrix::from_rows(&all_rows).expect("validated shapes");
        self.scaler = Some(StandardScaler::fit(&flat));

        let mut rng = rand::rngs::StdRng::seed_from_u64(self.params.seed);
        self.init(n_features, &mut rng);

        let train_scaled = self.scale_sequences(train);
        let val_scaled = val.map(|v| self.scale_sequences(v));

        let mut adam = Adam::new(self.theta.len(), self.params.lr, self.params.clip_norm);
        let mut order: Vec<usize> = (0..train_scaled.len()).collect();
        let mut grad = vec![0.0; self.theta.len()];
        let mut scratch = LstmScratch::default();
        let mut best = self.theta.clone();
        let mut best_loss = f64::INFINITY;
        let mut stale = 0;
        for _epoch in 0..self.params.max_epochs {
            order.shuffle(&mut rng);
            for &si in &order {
                let seq = &train_scaled[si];
                self.forward_into(&seq.steps, &mut scratch);
                grad.iter_mut().for_each(|g| *g = 0.0);
                self.backward(&mut scratch, &seq.targets, &mut grad);
                adam.step(&mut self.theta, &grad);
            }
            let loss = match &val_scaled {
                Some(v) => self.eval_with(v, &mut scratch),
                None => self.eval_with(&train_scaled, &mut scratch),
            };
            if loss + 1e-12 < best_loss {
                best_loss = loss;
                best.copy_from_slice(&self.theta);
                stale = 0;
            } else {
                stale += 1;
                if stale >= self.params.patience {
                    break;
                }
            }
        }
        self.theta = best;
    }

    fn predict_sequence(&self, steps: &[Vec<f64>]) -> Vec<f64> {
        let scaler = self
            .scaler
            .as_ref()
            .expect("Lstm::predict_sequence called before fit");
        let scaled: Vec<Vec<f64>> = steps.iter().map(|r| scaler.transform_row(r)).collect();
        let mut scratch = LstmScratch::default();
        self.forward_into(&scaled, &mut scratch);
        scratch.preds
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Target depends on the running mean of the input — requires state.
    fn stateful_sequences(n_seq: usize, len: usize) -> Vec<Sequence> {
        (0..n_seq)
            .map(|s| {
                let mut acc = 0.0;
                let mut steps = Vec::new();
                let mut targets = Vec::new();
                for t in 0..len {
                    let x = ((s * 7 + t) as f64 * 0.61).sin();
                    acc = 0.8 * acc + 0.2 * x;
                    steps.push(vec![x]);
                    targets.push(acc);
                }
                Sequence::new(steps, targets).unwrap()
            })
            .collect()
    }

    #[test]
    fn learns_stateful_target() {
        let seqs = stateful_sequences(6, 25);
        let mut m = Lstm::new(LstmParams {
            layers: 1,
            hidden: 12,
            max_epochs: 300,
            clip_norm: None,
            lr: 1e-2,
            ..LstmParams::default()
        });
        m.fit_sequences(&seqs, None);
        let mut total = 0.0;
        let mut n = 0;
        for s in &seqs {
            let preds = m.predict_sequence(&s.steps);
            for (p, y) in preds.iter().zip(&s.targets) {
                total += (p - y) * (p - y);
                n += 1;
            }
        }
        let err = total / n as f64;
        assert!(err < 0.02, "mse {err}");
    }

    #[test]
    fn stacked_layers_run() {
        let seqs = stateful_sequences(3, 10);
        let mut m = Lstm::new(LstmParams {
            layers: 2,
            hidden: 6,
            max_epochs: 10,
            ..LstmParams::default()
        });
        m.fit_sequences(&seqs, None);
        let preds = m.predict_sequence(&seqs[0].steps);
        assert_eq!(preds.len(), 10);
        assert!(preds.iter().all(|p| p.is_finite()));
    }

    #[test]
    fn deterministic_per_seed() {
        let seqs = stateful_sequences(3, 8);
        let params = LstmParams {
            hidden: 4,
            max_epochs: 5,
            ..LstmParams::default()
        };
        let mut a = Lstm::new(params);
        let mut b = Lstm::new(params);
        a.fit_sequences(&seqs, None);
        b.fit_sequences(&seqs, None);
        assert_eq!(
            a.predict_sequence(&seqs[0].steps),
            b.predict_sequence(&seqs[0].steps)
        );
    }

    #[test]
    fn early_stopping_with_validation() {
        let seqs = stateful_sequences(6, 15);
        let (train, val) = seqs.split_at(4);
        let mut m = Lstm::new(LstmParams {
            hidden: 8,
            max_epochs: 120,
            patience: 15,
            ..LstmParams::default()
        });
        m.fit_sequences(train, Some(val));
        assert!(m.eval(&m.scale_sequences(val)).is_finite());
    }
}
