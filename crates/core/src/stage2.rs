//! Stage 2 — rule-based bug classification over per-probe errors (§III-D).
//!
//! Per-probe error statistics (μ±ασ) of labelled buggy and bug-free designs
//! normalise a new design's error vector into γ⁺/γ⁻ ratios; the design is
//! flagged when one probe's γ⁺ exceeds η (= 15) or the mean γ⁻ exceeds
//! λ (= 5). α is trained by grid search maximising TPR subject to
//! FPR ≤ 0.25 on the labelled data.

/// Floor applied to γ denominators so zero-variance probes cannot produce
/// infinities.
const DENOM_FLOOR: f64 = 1e-9;

/// Stage-2 hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Stage2Params {
    /// Rule-1 threshold on the maximum γ⁺.
    ///
    /// The paper's empirical value is 15 for its gem5/SPEC error scale;
    /// the default here is recalibrated (η = 3) to this reproduction's
    /// error scale — chosen, like the paper's, as the value maximising TPR
    /// at zero observed FPR on the labelled designs (Sets II and III).
    pub eta: f64,
    /// Rule-2 threshold on the mean γ⁻ (paper: 5; recalibrated to 1.5,
    /// with λ < η as the paper requires).
    pub lambda: f64,
    /// Grid of α candidates evaluated during training.
    pub alpha_grid: (f64, f64, usize),
    /// Maximum false-positive rate allowed when picking α (paper: 0.25).
    pub max_train_fpr: f64,
}

impl Default for Stage2Params {
    fn default() -> Self {
        Stage2Params {
            eta: 3.0,
            lambda: 1.5,
            alpha_grid: (0.0, 4.0, 41),
            max_train_fpr: 0.25,
        }
    }
}

impl Stage2Params {
    /// The paper's literal thresholds (η = 15, λ = 5) — appropriate for
    /// error scales where bugs inflate probe errors by an order of
    /// magnitude; kept for ablation.
    pub fn paper_thresholds() -> Self {
        Stage2Params {
            eta: 15.0,
            lambda: 5.0,
            ..Stage2Params::default()
        }
    }
}

/// The trained rule-based classifier.
#[derive(Debug, Clone)]
pub struct Stage2Classifier {
    params: Stage2Params,
    alpha: f64,
    mu_pos: Vec<f64>,
    sigma_pos: Vec<f64>,
    mu_neg: Vec<f64>,
    sigma_neg: Vec<f64>,
}

fn column_stats(samples: &[Vec<f64>], col: usize) -> (f64, f64) {
    let n = samples.len() as f64;
    let mean = samples.iter().map(|s| s[col]).sum::<f64>() / n;
    let var = samples.iter().map(|s| (s[col] - mean).powi(2)).sum::<f64>() / n;
    (mean, var.sqrt())
}

impl Stage2Classifier {
    /// Trains the classifier from labelled per-probe error vectors.
    ///
    /// `positives` are error vectors of designs with an injected bug,
    /// `negatives` of bug-free designs; every vector must have one entry
    /// per probe. α is chosen from the grid to maximise TPR on the labelled
    /// data subject to `max_train_fpr`.
    ///
    /// # Panics
    ///
    /// Panics if either class is empty or vector lengths are inconsistent.
    pub fn fit(params: Stage2Params, positives: &[Vec<f64>], negatives: &[Vec<f64>]) -> Self {
        assert!(
            !positives.is_empty(),
            "stage 2 needs positive (buggy) samples"
        );
        assert!(
            !negatives.is_empty(),
            "stage 2 needs negative (bug-free) samples"
        );
        let n_probes = positives[0].len();
        assert!(
            positives
                .iter()
                .chain(negatives)
                .all(|v| v.len() == n_probes),
            "all error vectors must cover the same probes"
        );

        let mut mu_pos = Vec::with_capacity(n_probes);
        let mut sigma_pos = Vec::with_capacity(n_probes);
        let mut mu_neg = Vec::with_capacity(n_probes);
        let mut sigma_neg = Vec::with_capacity(n_probes);
        for c in 0..n_probes {
            let (mp, sp) = column_stats(positives, c);
            let (mn, sn) = column_stats(negatives, c);
            mu_pos.push(mp);
            sigma_pos.push(sp);
            mu_neg.push(mn);
            sigma_neg.push(sn);
        }

        let mut best = Stage2Classifier {
            params,
            alpha: 0.0,
            mu_pos,
            sigma_pos,
            mu_neg,
            sigma_neg,
        };
        let (lo, hi, steps) = params.alpha_grid;
        let mut best_alpha = lo;
        let mut best_tpr = -1.0;
        for i in 0..steps.max(1) {
            let alpha = lo + (hi - lo) * i as f64 / (steps.max(2) - 1) as f64;
            best.alpha = alpha;
            let tp = positives.iter().filter(|v| best.classify(v)).count() as f64;
            let fp = negatives.iter().filter(|v| best.classify(v)).count() as f64;
            let tpr = tp / positives.len() as f64;
            let fpr = fp / negatives.len() as f64;
            if fpr <= params.max_train_fpr && tpr > best_tpr {
                best_tpr = tpr;
                best_alpha = alpha;
            }
        }
        best.alpha = best_alpha;
        best
    }

    /// The trained α.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// Computes the (γ⁺, γ⁻) vectors of Eq. (2) for a new design's errors.
    ///
    /// # Panics
    ///
    /// Panics if `deltas` has the wrong probe count.
    pub fn gammas(&self, deltas: &[f64]) -> (Vec<f64>, Vec<f64>) {
        assert_eq!(deltas.len(), self.mu_pos.len(), "probe count mismatch");
        let gamma = |d: f64, mu: f64, sigma: f64| d / (mu + self.alpha * sigma).max(DENOM_FLOOR);
        let pos = deltas
            .iter()
            .zip(self.mu_pos.iter().zip(&self.sigma_pos))
            .map(|(&d, (&m, &s))| gamma(d, m, s))
            .collect();
        let neg = deltas
            .iter()
            .zip(self.mu_neg.iter().zip(&self.sigma_neg))
            .map(|(&d, (&m, &s))| gamma(d, m, s))
            .collect();
        (pos, neg)
    }

    /// Continuous bug-likelihood score: `max(max γ⁺ / η, mean γ⁻ / λ)`.
    /// The default decision rule is `score >= 1`; sweeping the threshold
    /// yields the ROC curves of Fig. 8.
    pub fn score(&self, deltas: &[f64]) -> f64 {
        let (pos, neg) = self.gammas(deltas);
        let max_pos = pos.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let mean_neg = neg.iter().sum::<f64>() / neg.len().max(1) as f64;
        (max_pos / self.params.eta).max(mean_neg / self.params.lambda)
    }

    /// The paper's rule-based verdict: `true` means "bug detected".
    pub fn classify(&self, deltas: &[f64]) -> bool {
        self.score(deltas) >= 1.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Buggy designs have ~10x the error of bug-free designs on probe 1.
    fn toy_data() -> (Vec<Vec<f64>>, Vec<Vec<f64>>) {
        let positives: Vec<Vec<f64>> = (0..8)
            .map(|i| vec![0.1 + 0.01 * i as f64, 2.0 + 0.1 * i as f64, 0.2])
            .collect();
        let negatives: Vec<Vec<f64>> = (0..6)
            .map(|i| vec![0.1 + 0.01 * i as f64, 0.15, 0.18])
            .collect();
        (positives, negatives)
    }

    #[test]
    fn separable_data_classified_correctly() {
        let (pos, neg) = toy_data();
        let clf = Stage2Classifier::fit(Stage2Params::default(), &pos, &neg);
        for p in &pos {
            assert!(clf.classify(p), "buggy sample must be flagged: {p:?}");
        }
        for n in &neg {
            assert!(!clf.classify(n), "bug-free sample must pass: {n:?}");
        }
    }

    #[test]
    fn score_orders_severity() {
        let (pos, neg) = toy_data();
        let clf = Stage2Classifier::fit(Stage2Params::default(), &pos, &neg);
        let mild = vec![0.1, 0.4, 0.2];
        let severe = vec![0.1, 9.0, 0.2];
        assert!(clf.score(&severe) > clf.score(&mild));
    }

    #[test]
    fn gammas_use_trained_alpha() {
        let (pos, neg) = toy_data();
        let clf = Stage2Classifier::fit(Stage2Params::default(), &pos, &neg);
        let (gp, gn) = clf.gammas(&[0.1, 1.0, 0.2]);
        assert_eq!(gp.len(), 3);
        assert_eq!(gn.len(), 3);
        assert!(gp.iter().all(|g| g.is_finite() && *g >= 0.0));
        assert!(gn.iter().all(|g| g.is_finite() && *g >= 0.0));
    }

    #[test]
    fn zero_variance_probes_do_not_explode() {
        let pos = vec![vec![1.0, 1.0]; 4];
        let neg = vec![vec![0.0, 0.0]; 4]; // zero mean AND zero sigma
        let clf = Stage2Classifier::fit(Stage2Params::default(), &pos, &neg);
        let s = clf.score(&[0.5, 0.5]);
        assert!(s.is_finite());
    }

    #[test]
    #[should_panic(expected = "probe count mismatch")]
    fn wrong_probe_count_panics() {
        let (pos, neg) = toy_data();
        let clf = Stage2Classifier::fit(Stage2Params::default(), &pos, &neg);
        clf.gammas(&[1.0]);
    }

    #[test]
    fn alpha_respects_fpr_budget() {
        // Overlapping classes: alpha must be chosen so that training FPR
        // stays within the budget.
        let positives: Vec<Vec<f64>> = (0..10).map(|i| vec![0.5 + 0.05 * i as f64]).collect();
        let negatives: Vec<Vec<f64>> = (0..10).map(|i| vec![0.4 + 0.05 * i as f64]).collect();
        let params = Stage2Params::default();
        let clf = Stage2Classifier::fit(params, &positives, &negatives);
        let fp = negatives.iter().filter(|v| clf.classify(v)).count() as f64;
        assert!(fp / negatives.len() as f64 <= params.max_train_fpr + 1e-9);
    }
}
