//! The Adam optimiser with global-norm gradient clipping.
//!
//! Matches the training protocol of the paper (§V-A): Adam with a gradient
//! clipping of 0.01 to avoid gradient explosion in recurrent networks.

/// Adam optimiser state for a flat parameter vector.
#[derive(Debug, Clone)]
pub struct Adam {
    lr: f64,
    beta1: f64,
    beta2: f64,
    eps: f64,
    clip_norm: Option<f64>,
    m: Vec<f64>,
    v: Vec<f64>,
    t: u64,
}

impl Adam {
    /// Creates an optimiser for `n` parameters with the given learning rate
    /// and optional global-norm gradient clipping.
    pub fn new(n: usize, lr: f64, clip_norm: Option<f64>) -> Self {
        Adam {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            clip_norm,
            m: vec![0.0; n],
            v: vec![0.0; n],
            t: 0,
        }
    }

    /// Applies one Adam update to `params` given `grads`.
    ///
    /// When clipping is enabled the gradient vector is rescaled so its L2
    /// norm does not exceed the configured threshold (Keras `clipnorm`
    /// semantics).
    ///
    /// # Panics
    ///
    /// Panics if `params` and `grads` do not match the configured size.
    pub fn step(&mut self, params: &mut [f64], grads: &[f64]) {
        assert_eq!(params.len(), self.m.len(), "parameter count mismatch");
        assert_eq!(grads.len(), self.m.len(), "gradient count mismatch");
        let mut scale = 1.0;
        if let Some(max_norm) = self.clip_norm {
            let norm = grads.iter().map(|g| g * g).sum::<f64>().sqrt();
            if norm > max_norm && norm > 0.0 {
                scale = max_norm / norm;
            }
        }
        self.t += 1;
        let bc1 = 1.0 - self.beta1.powi(self.t as i32);
        let bc2 = 1.0 - self.beta2.powi(self.t as i32);
        for i in 0..params.len() {
            let g = grads[i] * scale;
            self.m[i] = self.beta1 * self.m[i] + (1.0 - self.beta1) * g;
            self.v[i] = self.beta2 * self.v[i] + (1.0 - self.beta2) * g * g;
            let m_hat = self.m[i] / bc1;
            let v_hat = self.v[i] / bc2;
            params[i] -= self.lr * m_hat / (v_hat.sqrt() + self.eps);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn converges_on_quadratic() {
        // Minimise (p - 3)^2 — Adam should approach p = 3.
        let mut p = vec![0.0];
        let mut opt = Adam::new(1, 0.1, None);
        for _ in 0..500 {
            let g = vec![2.0 * (p[0] - 3.0)];
            opt.step(&mut p, &g);
        }
        assert!((p[0] - 3.0).abs() < 1e-2, "got {}", p[0]);
    }

    #[test]
    fn clipping_limits_update_magnitude() {
        let mut clipped = vec![0.0];
        let mut free = vec![0.0];
        let huge = vec![1e9];
        let mut opt_c = Adam::new(1, 0.1, Some(0.01));
        let mut opt_f = Adam::new(1, 0.1, None);
        opt_c.step(&mut clipped, &huge);
        opt_f.step(&mut free, &huge);
        // Both take a step in the same direction; the first-step Adam update
        // magnitude is ~lr either way, but the accumulated second moment of
        // the clipped run must be vastly smaller.
        assert!(clipped[0] < 0.0 && free[0] < 0.0);
        // After a tiny follow-up gradient, the clipped optimiser recovers a
        // normal step size while the unclipped one is frozen by its huge v.
        let tiny = vec![1e-3];
        opt_c.step(&mut clipped, &tiny);
        opt_f.step(&mut free, &tiny);
        let c_step = clipped[0];
        let f_step = free[0];
        assert!(
            c_step.abs() > f_step.abs() * 0.5,
            "clip should keep Adam responsive"
        );
    }

    #[test]
    #[should_panic(expected = "parameter count mismatch")]
    fn size_mismatch_panics() {
        let mut opt = Adam::new(2, 0.1, None);
        let mut p = vec![0.0];
        opt.step(&mut p, &[0.0]);
    }
}
