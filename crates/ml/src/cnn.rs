//! 1-D convolutional network regressor.
//!
//! Following the paper (§III-C), the per-step feature vector is treated as a
//! one-dimensional signal (after Eren et al. and Lee et al.), convolved by a
//! stack of `conv -> ReLU -> max-pool(2)` blocks, then flattened into a
//! ReLU dense layer and a linear output. Like [`crate::Mlp`] and
//! [`crate::Lstm`], every parameter lives in one flat buffer that
//! [`Adam`] steps in place.

use rand::seq::SliceRandom;
use rand::Rng;
use rand::SeedableRng;

use crate::adam::Adam;
use crate::dataset::Dataset;
use crate::matrix::{axpy, dot, gemv};
use crate::metrics::mse;
use crate::scaler::StandardScaler;
use crate::Regressor;

/// Hyper-parameters for [`Cnn`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CnnParams {
    /// Number of `conv -> ReLU -> pool` blocks (paper prefix, e.g.
    /// `4-CNN-150` has 4).
    pub conv_blocks: usize,
    /// Convolution channels per block.
    pub filters: usize,
    /// Width of the dense hidden layer after flattening (paper postfix).
    pub hidden: usize,
    /// Learning rate for Adam.
    pub lr: f64,
    /// Global-norm gradient clip (the paper uses 0.01).
    pub clip_norm: Option<f64>,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Hard cap on training epochs.
    pub max_epochs: usize,
    /// Early-stopping patience in epochs.
    pub patience: usize,
    /// Seed for initialisation and shuffling.
    pub seed: u64,
}

impl Default for CnnParams {
    fn default() -> Self {
        CnnParams {
            conv_blocks: 1,
            filters: 8,
            hidden: 64,
            lr: 1e-3,
            clip_norm: Some(0.01),
            batch_size: 32,
            max_epochs: 300,
            patience: 100,
            seed: 0,
        }
    }
}

const KERNEL: usize = 3;

/// Parameter layout of one conv block inside the flat buffer.
#[derive(Debug, Clone, Copy)]
struct ConvLayout {
    in_ch: usize,
    out_ch: usize,
    /// Offset of the weights (`[out_ch][in_ch][KERNEL]`).
    w: usize,
    /// Offset of the biases (`out_ch`).
    b: usize,
}

impl ConvLayout {
    /// Index of weight `(o, c, k)` relative to [`ConvLayout::w`].
    fn w_idx(&self, o: usize, c: usize, k: usize) -> usize {
        (o * self.in_ch + c) * KERNEL + k
    }
}

/// Forward activations of one conv block, in flat channel-major buffers
/// (`ch x len` with stride `len`). Reused across samples: buffers are
/// resized once and overwritten thereafter.
#[derive(Debug, Clone, Default)]
struct BlockTrace {
    /// Pre-activation conv output (`out_ch x len`).
    pre: Vec<f64>,
    /// Signal length entering this block.
    len: usize,
    /// Pooled output (`out_ch x len/2`).
    pooled: Vec<f64>,
    /// Pooled length (`len/2`).
    pooled_len: usize,
    /// Argmax offset (within the channel) for each pooled element.
    argmax: Vec<usize>,
}

/// Reusable per-sample forward/backward buffers. Allocated once per fit
/// (or per prediction) and recycled across every sample and epoch.
#[derive(Debug, Clone, Default)]
struct CnnScratch {
    /// One trace per conv block.
    traces: Vec<BlockTrace>,
    /// Dense hidden activations (post-ReLU).
    hidden: Vec<f64>,
    /// Gradient wrt the dense hidden activations.
    d_hidden: Vec<f64>,
    /// Gradient wrt the flattened conv output.
    d_flat: Vec<f64>,
    /// Gradient wrt a block's ReLU output (`out_ch x len`).
    d_relu: Vec<f64>,
    /// Gradient wrt a block's input (`in_ch x len`).
    d_input: Vec<f64>,
    /// Secondary signal-gradient buffer (ping-pong with `d_input`).
    d_signal: Vec<f64>,
}

/// 1-D convolutional regressor over feature vectors.
#[derive(Debug, Clone)]
pub struct Cnn {
    params: CnnParams,
    convs: Vec<ConvLayout>,
    /// Flat parameters: per conv block weights then biases, then the
    /// dense hidden layer (`[hidden][flat]` weights, `hidden` biases),
    /// then the output layer (`hidden` weights, one bias).
    theta: Vec<f64>,
    /// Offsets of the dense weights and biases and the output weights
    /// and bias inside `theta`.
    dense_w: usize,
    dense_b: usize,
    out_w: usize,
    out_b: usize,
    flat_len: usize,
    n_features: usize,
    scaler: Option<StandardScaler>,
}

impl Cnn {
    /// Creates an untrained CNN.
    pub fn new(params: CnnParams) -> Self {
        Cnn {
            params,
            convs: Vec::new(),
            theta: Vec::new(),
            dense_w: 0,
            dense_b: 0,
            out_w: 0,
            out_b: 0,
            flat_len: 0,
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
        self.convs.clear();
        self.theta.clear();
        let mut draw = |theta: &mut Vec<f64>, n: usize, scale: f64| {
            theta.extend((0..n).map(|_| (rng.gen::<f64>() * 2.0 - 1.0) * scale));
        };
        let mut len = n_features;
        let mut in_ch = 1;
        for _ in 0..self.params.conv_blocks {
            if len < 2 {
                break; // signal too short to pool further
            }
            let out_ch = self.params.filters;
            let w = self.theta.len();
            draw(
                &mut self.theta,
                out_ch * in_ch * KERNEL,
                (2.0 / (in_ch * KERNEL) as f64).sqrt(),
            );
            let b = self.theta.len();
            self.theta.resize(b + out_ch, 0.0);
            self.convs.push(ConvLayout {
                in_ch,
                out_ch,
                w,
                b,
            });
            len /= 2;
            in_ch = out_ch;
        }
        self.flat_len = len * in_ch;
        let h = self.params.hidden;
        self.dense_w = self.theta.len();
        draw(
            &mut self.theta,
            h * self.flat_len,
            (2.0 / self.flat_len as f64).sqrt(),
        );
        self.dense_b = self.theta.len();
        self.theta.resize(self.dense_b + h, 0.0);
        self.out_w = self.theta.len();
        draw(&mut self.theta, h, (2.0 / h as f64).sqrt());
        self.out_b = self.theta.len();
        self.theta.push(0.0);
    }

    /// Convolves `input` (`in_ch x len`, flat channel-major) into the
    /// trace's reusable buffers.
    fn conv_forward(
        layer: &ConvLayout,
        theta: &[f64],
        input: &[f64],
        len: usize,
        trace: &mut BlockTrace,
    ) {
        let (w, b) = (&theta[layer.w..layer.b], &theta[layer.b..]);
        trace.len = len;
        trace.pre.clear();
        trace.pre.resize(layer.out_ch * len, 0.0);
        for o in 0..layer.out_ch {
            let pre = &mut trace.pre[o * len..(o + 1) * len];
            pre.iter_mut().for_each(|v| *v = b[o]);
            for c in 0..layer.in_ch {
                let ch = &input[c * len..(c + 1) * len];
                for k in 0..KERNEL {
                    // Same padding: output p reads input p + k - 1.
                    let w = w[layer.w_idx(o, c, k)];
                    let shift = k as isize - 1;
                    let (p0, p1) = match shift {
                        -1 => (1, len),
                        0 => (0, len),
                        _ => (0, len.saturating_sub(1)),
                    };
                    for p in p0..p1 {
                        pre[p] += w * ch[(p as isize + shift) as usize];
                    }
                }
            }
        }
        let pooled_len = len / 2;
        trace.pooled_len = pooled_len;
        trace.pooled.clear();
        trace.pooled.resize(layer.out_ch * pooled_len, 0.0);
        trace.argmax.clear();
        trace.argmax.resize(layer.out_ch * pooled_len, 0);
        for o in 0..layer.out_ch {
            let pre = &trace.pre[o * len..(o + 1) * len];
            for q in 0..pooled_len {
                let (a, b) = (pre[2 * q].max(0.0), pre[2 * q + 1].max(0.0));
                let (v, idx) = if a >= b { (a, 2 * q) } else { (b, 2 * q + 1) };
                trace.pooled[o * pooled_len + q] = v;
                trace.argmax[o * pooled_len + q] = idx;
            }
        }
    }

    /// Full forward pass into the scratch; returns the scalar output. The
    /// dense layers run through the [`gemv`]/[`dot`] kernels and every
    /// intermediate lives in a reused buffer.
    fn forward_with(&self, x: &[f64], scratch: &mut CnnScratch) -> f64 {
        scratch
            .traces
            .resize_with(self.convs.len(), BlockTrace::default);
        let mut len = x.len();
        for (bi, layer) in self.convs.iter().enumerate() {
            let (done, rest) = scratch.traces.split_at_mut(bi);
            let input: &[f64] = if bi == 0 { x } else { &done[bi - 1].pooled };
            Self::conv_forward(layer, &self.theta, input, len, &mut rest[0]);
            len = rest[0].pooled_len;
        }
        let flat: &[f64] = match scratch.traces.last() {
            Some(last) => &last.pooled,
            None => x,
        };
        debug_assert_eq!(flat.len(), self.flat_len);
        let h = self.params.hidden;
        scratch.hidden.resize(h, 0.0);
        gemv(
            &self.theta[self.dense_w..self.dense_b],
            h,
            self.flat_len,
            flat,
            &mut scratch.hidden,
        );
        for (v, b) in scratch
            .hidden
            .iter_mut()
            .zip(&self.theta[self.dense_b..self.out_w])
        {
            *v = (*v + b).max(0.0);
        }
        self.theta[self.out_b] + dot(&self.theta[self.out_w..self.out_b], &scratch.hidden)
    }

    /// Backward pass over the activations left by [`Cnn::forward_with`];
    /// accumulates into `grad` (laid out like `theta`) and returns the
    /// squared error.
    fn backward_with(
        &self,
        x: &[f64],
        out: f64,
        target: f64,
        scratch: &mut CnnScratch,
        grad: &mut [f64],
    ) -> f64 {
        let err = out - target;
        let d_out = 2.0 * err;
        grad[self.out_b] += d_out;
        let h = self.params.hidden;
        let hidden = &scratch.hidden;
        axpy(d_out, hidden, &mut grad[self.out_w..self.out_b]);
        scratch.d_hidden.resize(h, 0.0);
        for ((dh, &a), &w) in scratch
            .d_hidden
            .iter_mut()
            .zip(hidden)
            .zip(&self.theta[self.out_w..self.out_b])
        {
            *dh = if a > 0.0 { d_out * w } else { 0.0 };
        }
        scratch.d_flat.clear();
        scratch.d_flat.resize(self.flat_len, 0.0);
        let flat: &[f64] = match scratch.traces.last() {
            Some(last) => &last.pooled,
            None => x,
        };
        for (i, &d) in scratch.d_hidden.iter().enumerate() {
            if d == 0.0 {
                continue;
            }
            grad[self.dense_b + i] += d;
            let row = self.dense_w + i * self.flat_len;
            axpy(d, flat, &mut grad[row..row + self.flat_len]);
            axpy(
                d,
                &self.theta[row..row + self.flat_len],
                &mut scratch.d_flat,
            );
        }
        // Backward through conv blocks in reverse; the signal gradient
        // ping-pongs between two reusable buffers.
        scratch.d_signal.clear();
        scratch.d_signal.extend_from_slice(&scratch.d_flat);
        for (bi, layer) in self.convs.iter().enumerate().rev() {
            let (done, rest) = scratch.traces.split_at_mut(bi);
            let trace = &rest[0];
            let input: &[f64] = if bi == 0 { x } else { &done[bi - 1].pooled };
            let len = trace.len;
            // Through pool: route gradient to argmax positions, then gate
            // by ReLU'(pre).
            scratch.d_relu.clear();
            scratch.d_relu.resize(layer.out_ch * len, 0.0);
            for o in 0..layer.out_ch {
                for q in 0..trace.pooled_len {
                    let idx = trace.argmax[o * trace.pooled_len + q];
                    if trace.pre[o * len + idx] > 0.0 {
                        scratch.d_relu[o * len + idx] += scratch.d_signal[o * trace.pooled_len + q];
                    }
                }
            }
            // Conv weight/bias/input gradients.
            scratch.d_input.clear();
            scratch.d_input.resize(layer.in_ch * len, 0.0);
            let w = &self.theta[layer.w..layer.b];
            let (gw, gb) = grad[layer.w..layer.b + layer.out_ch].split_at_mut(layer.b - layer.w);
            for (o, gb) in gb.iter_mut().enumerate() {
                for p in 0..len {
                    let d = scratch.d_relu[o * len + p];
                    if d == 0.0 {
                        continue;
                    }
                    *gb += d;
                    for c in 0..layer.in_ch {
                        let ch = &input[c * len..(c + 1) * len];
                        let d_ch = &mut scratch.d_input[c * len..(c + 1) * len];
                        for k in 0..KERNEL {
                            let idx = p as isize + k as isize - 1;
                            if idx >= 0 && (idx as usize) < len {
                                let wi = layer.w_idx(o, c, k);
                                gw[wi] += d * ch[idx as usize];
                                d_ch[idx as usize] += d * w[wi];
                            }
                        }
                    }
                }
            }
            std::mem::swap(&mut scratch.d_signal, &mut scratch.d_input);
        }
        err * err
    }

    fn eval(&self, data: &Dataset, scratch: &mut CnnScratch) -> f64 {
        let preds: Vec<f64> = (0..data.len())
            .map(|i| self.forward_with(data.sample(i).0, scratch))
            .collect();
        mse(&preds, data.y())
    }
}

impl Regressor for Cnn {
    fn fit(&mut self, train: &Dataset, val: Option<&Dataset>) {
        assert!(!train.is_empty(), "cannot fit CNN on an empty dataset");
        assert!(
            train.n_features() >= 2,
            "CNN needs at least 2 features to convolve"
        );
        let mut rng = rand::rngs::StdRng::seed_from_u64(self.params.seed);
        let scaler = StandardScaler::fit(train.x());
        let train_scaled =
            Dataset::new(scaler.transform(train.x()), train.y().to_vec()).expect("shape kept");
        let val_scaled =
            val.map(|v| Dataset::new(scaler.transform(v.x()), v.y().to_vec()).expect("shape kept"));
        self.init(train.n_features(), &mut rng);
        self.scaler = None;

        let mut adam = Adam::new(self.theta.len(), self.params.lr, self.params.clip_norm);
        let mut grad = vec![0.0; self.theta.len()];
        let mut scratch = CnnScratch::default();
        let mut order: Vec<usize> = (0..train_scaled.len()).collect();
        let mut best = self.theta.clone();
        let mut best_loss = f64::INFINITY;
        let mut stale = 0;
        for _epoch in 0..self.params.max_epochs {
            order.shuffle(&mut rng);
            for chunk in order.chunks(self.params.batch_size.max(1)) {
                grad.fill(0.0);
                for &i in chunk {
                    let (row, y) = train_scaled.sample(i);
                    let out = self.forward_with(row, &mut scratch);
                    self.backward_with(row, out, y, &mut scratch, &mut grad);
                }
                let inv = 1.0 / chunk.len() as f64;
                grad.iter_mut().for_each(|g| *g *= inv);
                adam.step(&mut self.theta, &grad);
            }
            let monitored = val_scaled.as_ref().unwrap_or(&train_scaled);
            let loss = self.eval(monitored, &mut scratch);
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
        self.scaler = Some(scaler);
    }

    fn predict_row(&self, x: &[f64]) -> f64 {
        let scaler = self
            .scaler
            .as_ref()
            .expect("Cnn::predict_row called before fit");
        let z = scaler.transform_row(x);
        self.forward_with(&z, &mut CnnScratch::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn patterned_data(n: usize) -> Dataset {
        // 8-feature signal whose target depends on a local pattern.
        let rows: Vec<Vec<f64>> = (0..n)
            .map(|i| {
                let t = i as f64 * 0.37;
                (0..8).map(|j| ((t + j as f64) * 0.9).sin()).collect()
            })
            .collect();
        let y: Vec<f64> = rows.iter().map(|r| r[2] * r[3] + 0.3 * r[5]).collect();
        Dataset::from_rows(&rows, &y).unwrap()
    }

    #[test]
    fn learns_local_pattern() {
        let data = patterned_data(150);
        let mut m = Cnn::new(CnnParams {
            conv_blocks: 1,
            filters: 8,
            hidden: 32,
            max_epochs: 250,
            clip_norm: None,
            lr: 3e-3,
            ..CnnParams::default()
        });
        m.fit(&data, None);
        let err = mse(&m.predict(data.x()), data.y());
        assert!(err < 0.1, "mse {err}");
    }

    #[test]
    fn deterministic_per_seed() {
        let data = patterned_data(40);
        let params = CnnParams {
            conv_blocks: 1,
            filters: 4,
            hidden: 8,
            max_epochs: 10,
            ..CnnParams::default()
        };
        let mut a = Cnn::new(params);
        let mut b = Cnn::new(params);
        a.fit(&data, None);
        b.fit(&data, None);
        assert_eq!(
            a.predict_row(data.sample(3).0),
            b.predict_row(data.sample(3).0)
        );
    }

    #[test]
    fn deep_stack_clamps_to_signal_length() {
        // 8 features can only be pooled 3 times; asking for 6 blocks must
        // not panic or produce an empty flat layer.
        let data = patterned_data(30);
        let mut m = Cnn::new(CnnParams {
            conv_blocks: 6,
            filters: 4,
            hidden: 8,
            max_epochs: 3,
            ..CnnParams::default()
        });
        m.fit(&data, None);
        assert!(m.predict_row(data.sample(0).0).is_finite());
    }
}
