//! Two-step Pearson-correlation counter selection (§III-B2).
//!
//! Step 1 keeps counters whose correlation with the target (IPC) exceeds
//! 0.7 in magnitude; step 2 prunes one of every pair of surviving counters
//! correlated above 0.95 with each other (redundancy). Selection runs
//! independently per probe, which is what makes the methodology resilient
//! to counter-set differences across designs.

use perfbug_ml::metrics::pearson;
use perfbug_workloads::RowMatrix;

/// Thresholds of the two selection steps.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SelectionThresholds {
    /// Minimum |r| against the target to survive step 1 (paper: 0.7).
    pub target_corr: f64,
    /// |r| between two counters above which one is pruned (paper: 0.95).
    pub redundancy_corr: f64,
    /// Lower bound on selected counters (paper reports 4–64 per probe).
    pub min_counters: usize,
    /// Upper bound on selected counters.
    pub max_counters: usize,
}

impl Default for SelectionThresholds {
    fn default() -> Self {
        SelectionThresholds {
            target_corr: 0.7,
            redundancy_corr: 0.95,
            min_counters: 4,
            max_counters: 64,
        }
    }
}

/// How a probe's feature counters are chosen.
#[derive(Debug, Clone, PartialEq)]
pub enum CounterMode {
    /// The paper's automatic two-step Pearson selection.
    Automatic(SelectionThresholds),
    /// A fixed manual counter list shared by all probes (Fig. 10's
    /// comparison point). Entries are column indices into the counter rows.
    Manual(Vec<usize>),
}

impl Default for CounterMode {
    fn default() -> Self {
        CounterMode::Automatic(SelectionThresholds::default())
    }
}

/// Selects counter columns for one probe given its training rows.
///
/// `rows` are per-step counter vectors pooled over all bug-free training
/// runs of the probe; `target` is the per-step IPC aligned with `rows`.
/// Columns listed in `banned` are never candidates — the experiment layer
/// bans counters that are deterministic functions of the target in a
/// trace-driven simulator (see [`leakage_banned_counters`]). Returns
/// sorted column indices.
///
/// # Panics
///
/// Panics if `rows` and `target` lengths differ or are empty.
pub fn select_counters(
    rows: &RowMatrix,
    target: &[f64],
    thresholds: &SelectionThresholds,
    banned: &[usize],
) -> Vec<usize> {
    assert_eq!(rows.len(), target.len(), "one target per row required");
    assert!(!rows.is_empty(), "cannot select counters without data");
    let n_cols = rows.width();

    // Step 1: correlation with the target.
    let mut scored: Vec<(usize, f64)> = (0..n_cols)
        .filter(|c| !banned.contains(c))
        .map(|c| {
            let col: Vec<f64> = rows.iter().map(|r| r[c]).collect();
            (c, pearson(&col, target).abs())
        })
        .collect();
    let mut kept: Vec<(usize, f64)> = scored
        .iter()
        .copied()
        .filter(|(_, r)| *r > thresholds.target_corr)
        .collect();

    // Guarantee the paper's lower bound by falling back to the strongest
    // correlations when the 0.7 cut leaves too few.
    if kept.len() < thresholds.min_counters {
        scored.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
        kept = scored
            .iter()
            .copied()
            .take(thresholds.min_counters)
            .collect();
    }
    // Strongest-first so redundancy pruning keeps the better of a pair.
    kept.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));

    // Step 2: pairwise redundancy pruning.
    let mut selected: Vec<usize> = Vec::new();
    for &(c, _) in &kept {
        if selected.len() >= thresholds.max_counters {
            break;
        }
        let col: Vec<f64> = rows.iter().map(|r| r[c]).collect();
        let redundant = selected.iter().any(|&s| {
            let sel: Vec<f64> = rows.iter().map(|r| r[s]).collect();
            pearson(&col, &sel).abs() > thresholds.redundancy_corr
        });
        if !redundant {
            selected.push(c);
        }
    }
    // Redundancy pruning may dip below the minimum; refill with the next
    // strongest non-selected counters.
    if selected.len() < thresholds.min_counters {
        for &(c, _) in &kept {
            if selected.len() >= thresholds.min_counters {
                break;
            }
            if !selected.contains(&c) {
                selected.push(c);
            }
        }
    }
    selected.sort_unstable();
    selected
}

/// Core-simulator counters banned from stage-1 feature candidacy.
///
/// Two groups, both substrate-calibration decisions:
///
/// 1. **Target leakage.** gem5's front end fetches and executes wrong
///    paths, so its fetched/issued counts exceed the committed count and
///    carry independent signal. Our trace-driven substrate replays only
///    the correct path, which makes every throughput/event count equal
///    (a fraction of) the committed count — i.e. the IPC target times the
///    step length. Leaving them in lets any engine reconstruct IPC
///    exactly, bug or no bug, silently defeating the methodology.
/// 2. **Bug symptoms.** Stall and occupancy counters co-move with *any*
///    slowdown, so a model trained on them keeps tracking IPC when a bug
///    bites instead of exposing the divergence the methodology relies on
///    (the paper's Fig. 6b behaviour — inferred IPC staying at bug-free
///    levels — requires features that encode what the IPC *should* be).
///
/// The surviving candidates are workload-composition and rate features
/// (branch fraction, misprediction rate, per-level miss rates, commit-
/// saturation fraction, …) plus the design-parameter features.
pub fn leakage_banned_counters() -> Vec<usize> {
    // Ban everything except the derived composition/rate columns.
    let allowed = [
        "branch_frac",
        "mispredict_rate",
        "indirect_correct_frac",
        "l1d_miss_rate",
        "l2_miss_rate",
        "l3_miss_rate",
    ];
    perfbug_uarch::counter_names()
        .iter()
        .enumerate()
        .filter(|(_, n)| !allowed.contains(n))
        .map(|(i, _)| i)
        .collect()
}

/// The fixed 22-counter manual list used as Fig. 10's comparison point:
/// cache miss counts and rates for every level, branch statistics, and
/// per-stage instruction counts.
pub fn manual_counter_indices() -> Vec<usize> {
    use perfbug_uarch::Counter as C;
    let raw = [
        C::FetchedInsts,
        C::DecodedInsts,
        C::RenamedInsts,
        C::IssuedInsts,
        C::CommittedInsts,
        C::BranchInsts,
        C::CondBranches,
        C::TakenBranches,
        C::Mispredicts,
        C::IndirectBranches,
        C::L1dAccesses,
        C::L1dMisses,
        C::L2Accesses,
        C::L2Misses,
        C::L3Accesses,
        C::L3Misses,
        C::MemAccesses,
        C::IcacheMisses,
    ];
    let mut cols: Vec<usize> = raw.iter().map(|&c| c as usize).collect();
    // Derived ratio counters: miss rates and branch fraction (by name).
    let names = perfbug_uarch::counter_names();
    for wanted in [
        "l1d_miss_rate",
        "l2_miss_rate",
        "l3_miss_rate",
        "branch_frac",
    ] {
        if let Some(i) = names.iter().position(|n| *n == wanted) {
            cols.push(i);
        }
    }
    assert_eq!(cols.len(), 22, "manual list must have 22 counters");
    cols
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Synthetic rows: col0 tracks target, col1 = 2*col0 (redundant), col2
    /// noise-ish, col3 anti-correlated.
    fn synthetic() -> (RowMatrix, Vec<f64>) {
        let mut rows = Vec::new();
        let mut target = Vec::new();
        for i in 0..50 {
            let t = (i as f64 * 0.37).sin();
            let noise = ((i * 7919) % 23) as f64 / 23.0 - 0.5;
            rows.push(vec![t, 2.0 * t, noise, -t, 0.0]);
            target.push(t);
        }
        (RowMatrix::from_rows(&rows), target)
    }

    #[test]
    fn keeps_correlated_prunes_redundant() {
        let (rows, target) = synthetic();
        let thresholds = SelectionThresholds {
            min_counters: 1,
            ..Default::default()
        };
        let selected = select_counters(&rows, &target, &thresholds, &[]);
        // col0 and col1 are mutually redundant: exactly one survives.
        assert!(selected.contains(&0) ^ selected.contains(&1));
        // col3 (anti-correlated) survives step 1 via |r|, but it is also
        // perfectly redundant with col0 (|r| = 1), so it must be pruned.
        assert!(!selected.contains(&3));
        // Noise and constant columns are dropped.
        assert!(!selected.contains(&2));
        assert!(!selected.contains(&4));
    }

    #[test]
    fn enforces_minimum() {
        let (rows, target) = synthetic();
        let thresholds = SelectionThresholds::default(); // min 4
        let selected = select_counters(&rows, &target, &thresholds, &[]);
        assert!(selected.len() >= 4);
    }

    #[test]
    fn respects_maximum() {
        // 100 identical copies of the target: redundancy pruning keeps one,
        // refill tops up to the minimum, but never past the maximum.
        let rows = RowMatrix::from_rows(
            &(0..40)
                .map(|i| vec![(i as f64).sin(); 100])
                .collect::<Vec<_>>(),
        );
        let target: Vec<f64> = (0..40).map(|i| (i as f64).sin()).collect();
        let thresholds = SelectionThresholds {
            max_counters: 8,
            ..Default::default()
        };
        let selected = select_counters(&rows, &target, &thresholds, &[]);
        assert!(selected.len() <= 8);
        assert!(selected.len() >= 4);
    }

    #[test]
    fn manual_list_is_22_valid_columns() {
        let cols = manual_counter_indices();
        assert_eq!(cols.len(), 22);
        let n = perfbug_uarch::N_COUNTERS;
        assert!(cols.iter().all(|&c| c < n));
    }

    #[test]
    fn selection_is_deterministic() {
        let (rows, target) = synthetic();
        let t = SelectionThresholds::default();
        assert_eq!(
            select_counters(&rows, &target, &t, &[]),
            select_counters(&rows, &target, &t, &[])
        );
    }
}
