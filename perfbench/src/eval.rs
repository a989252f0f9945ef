//! The evaluation half of a workload: what `pbeval` and the bench targets
//! run on a corpus. Two-stage detection over all probes and over every
//! probe prefix (the detection-latency sweep), per-fold ROC curves, and
//! the single-stage baseline.

use perfbug_core::baseline::BaselineParams;
use perfbug_core::detmetrics::DetectionMetrics;
use perfbug_core::experiment::{evaluate_baseline, evaluate_two_stage_subset, Collection};
use perfbug_core::stage2::Stage2Params;

use crate::digest::{self, Fnv};
use crate::spans::Recorder;

pub struct EvalOutcome {
    /// Digest of the whole detection report.
    pub report: u64,
    /// Pooled leave-one-type-out metrics over all probes.
    pub pooled: DetectionMetrics,
}

fn timed<T>(rec: Option<&Recorder>, layer: &'static str, f: impl FnOnce() -> T) -> T {
    match rec {
        Some(rec) => rec.time(layer, None, f),
        None => f(),
    }
}

/// Runs the evaluation suite on engine 0 of `col`, recording one span per
/// evaluation function when `rec` is given.
pub fn run(col: &Collection, rec: Option<&Recorder>) -> EvalOutcome {
    let params = Stage2Params::default();
    let n = col.probes.len();
    let all: Vec<usize> = (0..n).collect();
    let (full, rocs) = timed(rec, "stage2.eval", || {
        let full = evaluate_two_stage_subset(col, 0, params, &all);
        let rocs: Vec<_> = full
            .folds
            .iter()
            .map(|f| DetectionMetrics::roc(&f.decisions))
            .collect();
        (full, rocs)
    });
    let sweep: Vec<_> = timed(rec, "stage2.sweep", || {
        (1..=n)
            .map(|k| evaluate_two_stage_subset(col, 0, params, &all[..k]))
            .collect()
    });
    let baseline = timed(rec, "baseline.eval", || {
        evaluate_baseline(col, &BaselineParams::default())
    });

    let mut h = Fnv::new();
    digest::evaluation(&mut h, &full);
    for roc in rocs.iter().flatten() {
        h.f64(roc.fpr);
        h.f64(roc.tpr);
    }
    for eval in &sweep {
        digest::metrics(&mut h, &eval.metrics);
    }
    digest::evaluation(&mut h, &baseline);
    EvalOutcome {
        report: h.finish(),
        pooled: full.metrics,
    }
}
