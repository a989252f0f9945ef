//! The naïve single-stage baseline detector (§II).
//!
//! One supervised classifier per probe consumes aggregated performance
//! counters, the simulated IPC and the design parameters, and votes "bug"
//! or "no bug"; the design-level verdict is `ρ ≥ θ` where ρ is the
//! fraction of positive probe votes. Unlike the proposed method there is
//! no bug-free reference model — the classifier must separate buggy from
//! bug-free behaviour directly, across microarchitectures.

use perfbug_ml::{Dataset, Gbt, GbtParams, Regressor};

/// Baseline hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BaselineParams {
    /// Boosted-tree configuration of the per-probe classifiers (the paper
    /// uses its best engine, GBT-250; smaller forests trade accuracy for
    /// speed at reproduction scale). The split-finding strategy flows
    /// through unchanged: the default is histogram split finding, and
    /// `GbtParams { split_strategy: SplitStrategy::Exact, .. }` restores
    /// the exact greedy splitter (see `perfbug_ml::SplitStrategy`).
    pub gbt: GbtParams,
    /// Grid of voting thresholds θ evaluated during training.
    pub theta_grid: (f64, f64, usize),
    /// Maximum training FPR allowed when picking θ.
    pub max_train_fpr: f64,
}

impl Default for BaselineParams {
    fn default() -> Self {
        BaselineParams {
            gbt: GbtParams {
                n_trees: 100,
                max_depth: 3,
                ..GbtParams::default()
            },
            theta_grid: (0.05, 0.95, 19),
            max_train_fpr: 0.25,
        }
    }
}

/// One training sample for one probe: aggregated features and the label.
#[derive(Debug, Clone)]
pub struct BaselineSample {
    /// Aggregated feature vector (mean counters + IPC + design parameters).
    pub features: Vec<f64>,
    /// Whether the design producing this sample had an injected bug.
    pub has_bug: bool,
}

/// The trained single-stage detector.
#[derive(Debug)]
pub struct BaselineClassifier {
    models: Vec<Gbt>,
    theta: f64,
    theta_feasible: bool,
}

impl BaselineClassifier {
    /// Trains one classifier per probe, then picks the voting threshold θ
    /// maximising training TPR subject to the FPR budget. When no grid θ
    /// meets the budget, θ stays 0.5 and [`Self::theta_feasible`] is false.
    ///
    /// `per_probe` holds, for every probe, the same number of samples in
    /// the same (design, bug) order so that votes can be assembled
    /// design-wise.
    ///
    /// # Panics
    ///
    /// Panics if probes disagree on sample counts or there are no samples.
    pub fn fit(params: &BaselineParams, per_probe: &[Vec<BaselineSample>]) -> Self {
        assert!(!per_probe.is_empty(), "baseline needs at least one probe");
        let n_samples = per_probe[0].len();
        assert!(n_samples > 0, "baseline needs samples");
        assert!(
            per_probe.iter().all(|p| p.len() == n_samples),
            "all probes must see the same designs"
        );

        // Train per-probe regressors to the 0/1 label.
        let mut models = Vec::with_capacity(per_probe.len());
        for samples in per_probe {
            let rows: Vec<Vec<f64>> = samples.iter().map(|s| s.features.clone()).collect();
            let y: Vec<f64> = samples.iter().map(|s| f64::from(s.has_bug as u8)).collect();
            let data = Dataset::from_rows(&rows, &y).expect("aligned baseline data");
            let mut model = Gbt::new(params.gbt);
            model.fit(&data, None);
            models.push(model);
        }

        // Assemble training votes per design and pick θ.
        let mut clf = BaselineClassifier {
            models,
            theta: 0.5,
            theta_feasible: false,
        };
        let rhos: Vec<(f64, bool)> = (0..n_samples)
            .map(|i| {
                let features: Vec<&[f64]> =
                    per_probe.iter().map(|p| p[i].features.as_slice()).collect();
                (clf.vote_fraction(&features), per_probe[0][i].has_bug)
            })
            .collect();
        let (lo, hi, steps) = params.theta_grid;
        let n_pos = rhos.iter().filter(|(_, b)| *b).count().max(1) as f64;
        let n_neg = rhos.iter().filter(|(_, b)| !*b).count().max(1) as f64;
        let mut best_theta = 0.5;
        let mut best_tpr = -1.0;
        for k in 0..steps.max(1) {
            let theta = lo + (hi - lo) * k as f64 / (steps.max(2) - 1) as f64;
            let tp = rhos.iter().filter(|(r, b)| *b && *r >= theta).count() as f64;
            let fp = rhos.iter().filter(|(r, b)| !*b && *r >= theta).count() as f64;
            if fp / n_neg <= params.max_train_fpr && tp / n_pos > best_tpr {
                best_tpr = tp / n_pos;
                best_theta = theta;
            }
        }
        clf.theta = best_theta;
        clf.theta_feasible = best_tpr >= 0.0;
        clf
    }

    /// Fraction of probes voting "bug" for one design.
    ///
    /// # Panics
    ///
    /// Panics if the number of feature vectors differs from the number of
    /// trained probes.
    pub fn vote_fraction(&self, per_probe_features: &[&[f64]]) -> f64 {
        assert_eq!(
            per_probe_features.len(),
            self.models.len(),
            "probe count mismatch"
        );
        let votes = self
            .models
            .iter()
            .zip(per_probe_features)
            .filter(|(m, f)| m.predict_row(f) >= 0.5)
            .count();
        votes as f64 / self.models.len() as f64
    }

    /// Continuous score (ρ normalised by θ; ≥ 1 means "bug").
    pub fn score(&self, per_probe_features: &[&[f64]]) -> f64 {
        self.vote_fraction(per_probe_features) / self.theta.max(1e-9)
    }

    /// Binary verdict at the trained operating point.
    pub fn classify(&self, per_probe_features: &[&[f64]]) -> bool {
        self.vote_fraction(per_probe_features) >= self.theta
    }

    /// The trained voting threshold θ.
    pub fn theta(&self) -> f64 {
        self.theta
    }

    /// Whether any grid θ met `max_train_fpr` on the training designs.
    /// When false, [`Self::theta`] is the 0.5 fallback, not a choice.
    pub fn theta_feasible(&self) -> bool {
        self.theta_feasible
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Three probes, designs alternating bug-free / buggy with a feature
    /// that (noisily) encodes the label.
    fn toy() -> Vec<Vec<BaselineSample>> {
        (0..3)
            .map(|p| {
                (0..20)
                    .map(|i| {
                        let has_bug = i % 2 == 1;
                        let signal = if has_bug { 1.0 } else { 0.0 };
                        let noise = ((i * 31 + p * 7) % 10) as f64 / 20.0;
                        BaselineSample {
                            features: vec![signal + noise, p as f64],
                            has_bug,
                        }
                    })
                    .collect()
            })
            .collect()
    }

    #[test]
    fn learns_separable_votes() {
        let data = toy();
        let clf = BaselineClassifier::fit(&BaselineParams::default(), &data);
        // Classify each training design.
        let mut correct = 0;
        for i in 0..20 {
            let features: Vec<&[f64]> = data.iter().map(|p| p[i].features.as_slice()).collect();
            if clf.classify(&features) == data[0][i].has_bug {
                correct += 1;
            }
        }
        assert!(
            correct >= 16,
            "baseline should fit separable data, got {correct}/20"
        );
    }

    #[test]
    fn score_scales_with_votes() {
        let data = toy();
        let clf = BaselineClassifier::fit(&BaselineParams::default(), &data);
        let buggy: Vec<&[f64]> = data.iter().map(|p| p[1].features.as_slice()).collect();
        let clean: Vec<&[f64]> = data.iter().map(|p| p[0].features.as_slice()).collect();
        assert!(clf.score(&buggy) > clf.score(&clean));
    }

    #[test]
    fn reports_whether_theta_met_the_fpr_budget() {
        let clf = BaselineClassifier::fit(&BaselineParams::default(), &toy());
        assert!(clf.theta_feasible());

        // Label-independent features: every probe predicts the base rate
        // (above 0.5) for every design, so ρ = 1 everywhere and any θ
        // flags every bug-free design.
        let blind: Vec<Vec<BaselineSample>> = (0..3)
            .map(|_| {
                (0..20)
                    .map(|i| BaselineSample {
                        features: vec![1.0],
                        has_bug: i % 4 != 0,
                    })
                    .collect()
            })
            .collect();
        let params = BaselineParams {
            max_train_fpr: 0.0,
            ..BaselineParams::default()
        };
        let clf = BaselineClassifier::fit(&params, &blind);
        assert!(!clf.theta_feasible());
        assert_eq!(clf.theta(), 0.5);
    }

    #[test]
    #[should_panic(expected = "probe count mismatch")]
    fn wrong_probe_count_panics() {
        let data = toy();
        let clf = BaselineClassifier::fit(&BaselineParams::default(), &data);
        clf.vote_fraction(&[&[1.0, 0.0]]);
    }
}
