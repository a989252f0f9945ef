//! Output digests: the oracle half of the benchmark.
//!
//! A digest covers what the system computes, not how it stores it: the
//! corpus digest hashes a collection's numeric content and the report
//! digest hashes the detection report. Encoded file bytes are deliberately not hashed, so a
//! change of on-disk format or fingerprint is not a wrong output.

use perfbug_core::detmetrics::{Decision, DetectionMetrics};
use perfbug_core::experiment::{Collection, Evaluation};

/// Streaming 64-bit FNV-1a.
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// Hashes the exact bit pattern, so any numeric drift shows.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    pub fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Digest of a corpus's numeric content: run keys, probe metadata,
/// per-engine deltas, the overall metric and the aggregated features. The
/// wall-clock stage-1 timings, the only fields `Collection::zero_timings`
/// clears, are left out.
pub fn corpus(col: &Collection) -> u64 {
    let mut h = Fnv::new();
    for key in &col.keys {
        h.str(&key.arch);
        h.str(&format!("{:?}", key.set));
        h.u64(key.bug.map_or(u64::MAX, |b| b as u64));
    }
    for probe in &col.probes {
        h.str(&probe.id);
        h.str(&probe.benchmark);
        h.f64(probe.weight);
    }
    for engine in &col.engines {
        h.str(&engine.name);
        engine.deltas.iter().flatten().for_each(|&d| h.f64(d));
    }
    col.overall_ipc.iter().flatten().for_each(|&v| h.f64(v));
    col.agg_features
        .iter()
        .flatten()
        .flatten()
        .for_each(|&v| h.f64(v));
    h.finish()
}

pub fn metrics(h: &mut Fnv, m: &DetectionMetrics) {
    for v in [m.tpr, m.fpr, m.precision, m.roc_auc] {
        h.f64(v);
    }
    for v in m.tpr_by_severity {
        h.f64(v.unwrap_or(-1.0));
    }
    h.u64(m.positives as u64);
    h.u64(m.negatives as u64);
}

pub fn decisions(h: &mut Fnv, decisions: &[Decision]) {
    for d in decisions {
        h.f64(d.score);
        h.u64(u64::from(d.flagged) | (u64::from(d.has_bug) << 1));
        h.str(&format!("{:?}", d.severity));
    }
}

pub fn evaluation(h: &mut Fnv, eval: &Evaluation) {
    metrics(h, &eval.metrics);
    for fold in &eval.folds {
        h.u64(u64::from(fold.type_id));
        decisions(h, &fold.decisions);
    }
    eval.impacts.iter().for_each(|&v| h.f64(v));
}
