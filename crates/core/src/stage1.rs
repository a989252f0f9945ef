//! Stage 1 — per-probe IPC modelling (§III-C).
//!
//! One regression model is trained *per probe* on counter time series from
//! presumed-bug-free designs (Set I), early-stopped on the validation
//! designs (Set II). Applying the model to a design under test yields an
//! inference-error signal (Eq. 1) that stage 2 turns into a bug verdict.

use perfbug_ml::{
    Cnn, CnnParams, Dataset, Gbt, GbtParams, Lasso, LassoParams, Lstm, LstmParams, Mlp, MlpParams,
    Regressor, Sequence, SequenceRegressor, SplitStrategy,
};
use perfbug_workloads::RowMatrix;

/// One simulated probe run prepared for modelling: per-step counter rows,
/// the per-step target (IPC for the core study, IPC or AMAT for the memory
/// study) and the design's static parameter features.
#[derive(Debug, Clone)]
pub struct RunSeries {
    /// Per-step counter feature rows (full counter set; selection happens
    /// in [`FeatureSpec`]), stored contiguously.
    pub rows: RowMatrix,
    /// Per-step target values aligned with `rows`.
    pub target: Vec<f64>,
    /// Static microarchitecture design-parameter features.
    pub arch_features: Vec<f64>,
}

/// Feature assembly configuration for one probe's model.
#[derive(Debug, Clone, PartialEq)]
pub struct FeatureSpec {
    /// Selected counter column indices.
    pub selected: Vec<usize>,
    /// Whether to append the design-parameter features (§V-G ablation).
    pub arch_features: bool,
    /// Time-series window size `w` (§III-C item 4; default 1).
    pub window: usize,
}

impl FeatureSpec {
    /// Builds the per-step feature vectors of one run.
    ///
    /// A window of `w` concatenates the selected counters of steps
    /// `t-w+1..=t` (clamped at the series start) and appends the static
    /// design features once.
    pub fn build(&self, run: &RunSeries) -> Vec<Vec<f64>> {
        let w = self.window.max(1);
        (0..run.rows.len())
            .map(|t| {
                let mut row = Vec::with_capacity(self.selected.len() * w + run.arch_features.len());
                for k in 0..w {
                    let idx = t.saturating_sub(w - 1 - k);
                    let src = run.rows.row(idx);
                    row.extend(self.selected.iter().map(|&c| src[c]));
                }
                if self.arch_features {
                    row.extend_from_slice(&run.arch_features);
                }
                row
            })
            .collect()
    }
}

/// Stage-1 engine family and hyper-parameters.
///
/// Names follow the paper: `<layers>-<family>-<width>` for neural engines
/// and `GBT-<trees>` for boosted trees. A boosted-tree engine using the
/// exact splitter (instead of the default histogram split finding) is
/// named `GBT-<trees>-exact`, so the persisted engine catalog of a
/// [`crate::experiment::Collection`] records which trainer produced each
/// delta matrix and the two variants can coexist in one collection.
#[derive(Debug, Clone, PartialEq)]
pub enum EngineSpec {
    /// L1-regularised linear regression.
    Lasso(LassoParams),
    /// Multi-layer perceptron.
    Mlp(MlpParams),
    /// 1-D convolutional network.
    Cnn(CnnParams),
    /// LSTM over the step sequence.
    Lstm(LstmParams),
    /// Gradient-boosted trees.
    Gbt(GbtParams),
}

impl EngineSpec {
    /// The paper's display name for this configuration.
    pub fn name(&self) -> String {
        match self {
            EngineSpec::Lasso(_) => "Lasso".to_string(),
            EngineSpec::Mlp(p) => format!(
                "{}-MLP-{}",
                p.hidden.len(),
                p.hidden.first().copied().unwrap_or(0)
            ),
            EngineSpec::Cnn(p) => format!("{}-CNN-{}", p.conv_blocks, p.hidden),
            EngineSpec::Lstm(p) => format!("{}-LSTM-{}", p.layers, p.hidden),
            EngineSpec::Gbt(p) => match p.split_strategy {
                SplitStrategy::Histogram { .. } => format!("GBT-{}", p.n_trees),
                SplitStrategy::Exact => format!("GBT-{}-exact", p.n_trees),
            },
        }
    }

    /// The paper's best-performing configuration (GBT-250).
    pub fn gbt250() -> Self {
        EngineSpec::Gbt(GbtParams {
            n_trees: 250,
            ..GbtParams::default()
        })
    }

    /// GBT-150 (the other boosted-tree row of Table IV).
    pub fn gbt150() -> Self {
        EngineSpec::Gbt(GbtParams {
            n_trees: 150,
            ..GbtParams::default()
        })
    }
}

enum Trained {
    Row(Box<dyn Regressor + Send>),
    Seq(Box<Lstm>),
}

impl std::fmt::Debug for Trained {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Trained::Row(_) => write!(f, "Trained::Row"),
            Trained::Seq(_) => write!(f, "Trained::Seq"),
        }
    }
}

/// A trained stage-1 model for one probe.
#[derive(Debug)]
pub struct ProbeModel {
    features: FeatureSpec,
    model: Trained,
}

impl ProbeModel {
    /// Trains a model on the bug-free training runs, early-stopping on the
    /// validation runs where the engine supports it. Runs are borrowed so
    /// the caller's simulation results can be shared between consumers
    /// without cloning the counter series.
    ///
    /// # Panics
    ///
    /// Panics if `train` is empty or contains empty runs.
    pub fn train(
        engine: &EngineSpec,
        features: FeatureSpec,
        train: &[&RunSeries],
        val: &[&RunSeries],
    ) -> ProbeModel {
        assert!(!train.is_empty(), "stage 1 needs training runs");
        let model = match engine {
            EngineSpec::Lstm(params) => {
                let to_seq = |runs: &[&RunSeries]| -> Vec<Sequence> {
                    runs.iter()
                        .filter(|r| !r.rows.is_empty())
                        .map(|r| {
                            Sequence::new(features.build(r), r.target.clone())
                                .expect("aligned rows/targets")
                        })
                        .collect()
                };
                let train_seqs = to_seq(train);
                let val_seqs = to_seq(val);
                let mut lstm = Lstm::new(*params);
                lstm.fit_sequences(
                    &train_seqs,
                    if val_seqs.is_empty() {
                        None
                    } else {
                        Some(&val_seqs)
                    },
                );
                Trained::Seq(Box::new(lstm))
            }
            _ => {
                let to_dataset = |runs: &[&RunSeries]| -> Dataset {
                    let mut rows = Vec::new();
                    let mut y = Vec::new();
                    for r in runs {
                        rows.extend(features.build(r));
                        y.extend_from_slice(&r.target);
                    }
                    Dataset::from_rows(&rows, &y).expect("aligned rows/targets")
                };
                let train_data = to_dataset(train);
                assert!(!train_data.is_empty(), "training runs contain no steps");
                let val_data = to_dataset(val);
                let val_ref = (!val_data.is_empty()).then_some(&val_data);
                let mut boxed: Box<dyn Regressor + Send> = match engine {
                    EngineSpec::Lasso(p) => Box::new(Lasso::new(*p)),
                    EngineSpec::Mlp(p) => Box::new(Mlp::new(p.clone())),
                    EngineSpec::Cnn(p) => Box::new(Cnn::new(*p)),
                    EngineSpec::Gbt(p) => Box::new(Gbt::new(*p)),
                    EngineSpec::Lstm(_) => unreachable!("handled above"),
                };
                boxed.fit(&train_data, val_ref);
                Trained::Row(boxed)
            }
        };
        ProbeModel { features, model }
    }

    /// Infers the per-step target for one run. Row engines take the whole
    /// step sequence through [`Regressor::predict_batch`], so engines with
    /// a linear-algebra forward pass run one blocked kernel call per layer
    /// instead of a `gemv` per step.
    pub fn infer(&self, run: &RunSeries) -> Vec<f64> {
        let rows = self.features.build(run);
        match &self.model {
            Trained::Row(m) => m.predict_batch(&rows),
            Trained::Seq(m) => m.predict_sequence(&rows),
        }
    }

    /// The feature specification this model was trained with.
    pub fn features(&self) -> &FeatureSpec {
        &self.features
    }
}

/// The paper's Eq. (1): trapezoidal area between the simulated and inferred
/// target series — approximately the total absolute error, chosen so that a
/// large error in a few steps is not averaged away (unlike MSE).
///
/// The trapezoid rule integrates `|actual - inferred|` over the `n - 1`
/// unit intervals between samples, which half-weights the two endpoints.
/// A series of fewer than two samples spans zero intervals, so its area is
/// 0 — the degenerate cases are the limit of the general formula rather
/// than a special full-weight rule (a 1-sample series used to return the
/// full `|a - b|`, double the weight the same sample carries as an
/// endpoint of any longer series).
///
/// # Panics
///
/// Panics if the series lengths differ.
pub fn inference_error(actual: &[f64], inferred: &[f64]) -> f64 {
    assert_eq!(actual.len(), inferred.len(), "series must align");
    let mut sum = 0.0;
    for j in 1..actual.len() {
        sum += (actual[j] - inferred[j]).abs() + (actual[j - 1] - inferred[j - 1]).abs();
    }
    sum / 2.0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_run(offset: f64, n: usize) -> RunSeries {
        let rows: Vec<Vec<f64>> = (0..n)
            .map(|t| {
                let x = (t as f64 * 0.4).sin() + offset;
                vec![x, x * 2.0, 0.5]
            })
            .collect();
        let target: Vec<f64> = rows.iter().map(|r| r[0] * 0.8 + 0.1).collect();
        RunSeries {
            rows: RowMatrix::from_rows(&rows),
            target,
            arch_features: vec![offset],
        }
    }

    #[test]
    fn eq1_matches_hand_computation() {
        let actual = [1.0, 2.0, 3.0];
        let inferred = [1.5, 1.5, 3.5];
        // |e| = [0.5, 0.5, 0.5]; sum over j=2..3 of (|e_j|+|e_{j-1}|)/2
        // = (0.5+0.5)/2 + (0.5+0.5)/2 = 1.0.
        assert!((inference_error(&actual, &inferred) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn eq1_degenerate_lengths() {
        assert_eq!(inference_error(&[], &[]), 0.0);
        // One sample spans zero trapezoid intervals: zero area, matching
        // the n >= 2 formula's endpoint weighting as the series shrinks.
        assert_eq!(inference_error(&[2.0], &[3.0]), 0.0);
    }

    #[test]
    fn eq1_single_sample_is_trapezoid_limit() {
        // A 2-sample series with equal per-step error |e| integrates to
        // exactly |e| (each endpoint contributes |e|/2); removing one
        // interval removes the whole area. The n = 1 case must therefore
        // sit on the same formula (0 intervals -> 0), not re-weight the
        // lone sample at full |e|.
        assert_eq!(inference_error(&[1.0, 1.0], &[3.0, 3.0]), 2.0);
        assert_eq!(inference_error(&[1.0], &[3.0]), 0.0);
    }

    #[test]
    fn eq1_zero_on_perfect_inference() {
        let y = [0.3, 0.4, 0.5, 0.4];
        assert_eq!(inference_error(&y, &y), 0.0);
    }

    #[test]
    fn windowed_features_stack_history() {
        let run = toy_run(0.0, 5);
        let spec = FeatureSpec {
            selected: vec![0, 2],
            arch_features: true,
            window: 2,
        };
        let built = spec.build(&run);
        assert_eq!(built.len(), 5);
        // 2 selected x window 2 + 1 arch feature.
        assert_eq!(built[3].len(), 5);
        // Step 3's window is steps 2 and 3.
        assert_eq!(built[3][0], run.rows.row(2)[0]);
        assert_eq!(built[3][2], run.rows.row(3)[0]);
        // First step clamps to itself.
        assert_eq!(built[0][0], run.rows.row(0)[0]);
        assert_eq!(built[0][2], run.rows.row(0)[0]);
    }

    #[test]
    fn gbt_model_fits_bug_free_runs() {
        let train: Vec<RunSeries> = (0..4).map(|i| toy_run(i as f64 * 0.2, 30)).collect();
        let train_refs: Vec<&RunSeries> = train.iter().collect();
        let val = toy_run(0.15, 30);
        let features = FeatureSpec {
            selected: vec![0, 1],
            arch_features: true,
            window: 1,
        };
        let model = ProbeModel::train(&EngineSpec::gbt250(), features, &train_refs, &[&val]);
        let test = toy_run(0.1, 30);
        let inferred = model.infer(&test);
        let err = inference_error(&test.target, &inferred);
        // Near-interpolation on this trivial function.
        assert!(err < 0.5, "error {err}");
    }

    #[test]
    fn lstm_engine_trains_and_infers() {
        let train: Vec<RunSeries> = (0..3).map(|i| toy_run(i as f64 * 0.2, 15)).collect();
        let train_refs: Vec<&RunSeries> = train.iter().collect();
        let features = FeatureSpec {
            selected: vec![0],
            arch_features: false,
            window: 1,
        };
        let engine = EngineSpec::Lstm(LstmParams {
            hidden: 8,
            max_epochs: 40,
            ..LstmParams::default()
        });
        let model = ProbeModel::train(&engine, features, &train_refs, &[]);
        let preds = model.infer(&train[0]);
        assert_eq!(preds.len(), 15);
        assert!(preds.iter().all(|p| p.is_finite()));
    }

    #[test]
    fn engine_names_match_paper_convention() {
        assert_eq!(EngineSpec::gbt250().name(), "GBT-250");
        assert_eq!(
            EngineSpec::Gbt(GbtParams {
                n_trees: 250,
                split_strategy: SplitStrategy::Exact,
                ..GbtParams::default()
            })
            .name(),
            "GBT-250-exact"
        );
        assert_eq!(
            EngineSpec::Lstm(LstmParams {
                layers: 1,
                hidden: 500,
                ..LstmParams::default()
            })
            .name(),
            "1-LSTM-500"
        );
        assert_eq!(
            EngineSpec::Mlp(MlpParams {
                hidden: vec![2500],
                ..MlpParams::default()
            })
            .name(),
            "1-MLP-2500"
        );
        assert_eq!(
            EngineSpec::Cnn(CnnParams {
                conv_blocks: 4,
                hidden: 150,
                ..CnnParams::default()
            })
            .name(),
            "4-CNN-150"
        );
        assert_eq!(EngineSpec::Lasso(LassoParams::default()).name(), "Lasso");
    }
}
