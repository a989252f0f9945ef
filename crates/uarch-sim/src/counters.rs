//! Performance counters and per-time-step sampling.
//!
//! Real cores expose hundreds of counters; the paper selects a per-probe
//! subset of them by correlation with IPC (§III-B2). This module defines
//! the raw counter file maintained by the pipeline plus a set of derived
//! ratio counters (branch fraction, miss rates, …) computed at each sample
//! boundary — the derived values model counters like "percentage of
//! correctly predicted indirect branches" the paper lists among the most
//! commonly selected.

/// Raw event counters incremented by the pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
#[allow(missing_docs)] // names are self-describing; the list is long
pub enum Counter {
    Cycles,
    FetchedInsts,
    FetchStallCycles,
    IcacheAccesses,
    IcacheMisses,
    DecodedInsts,
    RenamedInsts,
    RenameStallCycles,
    RobFullStalls,
    IqFullStalls,
    LqFullStalls,
    SqFullStalls,
    PhysRegStalls,
    IssuedInsts,
    IssueIdleCycles,
    IqOccupancySum,
    RobOccupancySum,
    CommittedInsts,
    MaxCommitCycles,
    CommitIdleCycles,
    BranchInsts,
    CondBranches,
    TakenBranches,
    Mispredicts,
    IndirectBranches,
    IndirectMispredicts,
    MispredictStallCycles,
    RegReads,
    RegWrites,
    Loads,
    Stores,
    L1dAccesses,
    L1dMisses,
    L2Accesses,
    L2Misses,
    L3Accesses,
    L3Misses,
    MemAccesses,
    IntAluOps,
    IntMulOps,
    DivOps,
    FpOps,
    VecOps,
    LoadStoreStallCycles,
}

/// Number of raw counters.
pub const N_RAW: usize = 44;

const RAW_NAMES: [&str; N_RAW] = [
    "cycles",
    "fetched_insts",
    "fetch_stall_cycles",
    "icache_accesses",
    "icache_misses",
    "decoded_insts",
    "renamed_insts",
    "rename_stall_cycles",
    "rob_full_stalls",
    "iq_full_stalls",
    "lq_full_stalls",
    "sq_full_stalls",
    "phys_reg_stalls",
    "issued_insts",
    "issue_idle_cycles",
    "iq_occupancy_sum",
    "rob_occupancy_sum",
    "committed_insts",
    "max_commit_cycles",
    "commit_idle_cycles",
    "branch_insts",
    "cond_branches",
    "taken_branches",
    "mispredicts",
    "indirect_branches",
    "indirect_mispredicts",
    "mispredict_stall_cycles",
    "reg_reads",
    "reg_writes",
    "loads",
    "stores",
    "l1d_accesses",
    "l1d_misses",
    "l2_accesses",
    "l2_misses",
    "l3_accesses",
    "l3_misses",
    "mem_accesses",
    "int_alu_ops",
    "int_mul_ops",
    "div_ops",
    "fp_ops",
    "vec_ops",
    "load_store_stall_cycles",
];

const DERIVED_NAMES: [&str; 9] = [
    "branch_frac",
    "mispredict_rate",
    "indirect_correct_frac",
    "l1d_miss_rate",
    "l2_miss_rate",
    "l3_miss_rate",
    "max_commit_frac",
    "avg_rob_occupancy",
    "avg_iq_occupancy",
];

/// Total number of counter features emitted per time step (raw + derived).
pub const N_COUNTERS: usize = N_RAW + DERIVED_NAMES.len();

/// Names of all per-step counter features, raw first, derived last.
pub fn counter_names() -> Vec<&'static str> {
    RAW_NAMES
        .iter()
        .chain(DERIVED_NAMES.iter())
        .copied()
        .collect()
}

/// The raw counter file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CounterFile {
    vals: [u64; N_RAW],
}

impl Default for CounterFile {
    fn default() -> Self {
        CounterFile { vals: [0; N_RAW] }
    }
}

/// Raw counter totals captured at a step boundary. A plain value copy —
/// taking one allocates nothing, unlike the full [`CounterFile`] clone
/// the sampler used historically.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Snapshot {
    vals: [u64; N_RAW],
}

impl Default for Snapshot {
    fn default() -> Self {
        Snapshot { vals: [0; N_RAW] }
    }
}

impl Snapshot {
    /// Value of a counter at the captured boundary.
    #[inline]
    pub fn get(&self, c: Counter) -> u64 {
        self.vals[c as usize]
    }
}

impl CounterFile {
    /// Creates a zeroed counter file.
    pub fn new() -> Self {
        Self::default()
    }

    /// Increments a counter by one.
    #[inline]
    pub fn inc(&mut self, c: Counter) {
        self.vals[c as usize] += 1;
    }

    /// Adds `n` to a counter.
    #[inline]
    pub fn add(&mut self, c: Counter, n: u64) {
        self.vals[c as usize] += n;
    }

    /// Current value of a counter.
    #[inline]
    pub fn get(&self, c: Counter) -> u64 {
        self.vals[c as usize]
    }

    /// Adds `k` more copies of every counter's change since `since`: the
    /// totals become `since + (k + 1) × (self − since)`. The core
    /// simulator uses it to replay one idle cycle's increments over a
    /// stretch of identical idle cycles it skips.
    #[inline]
    pub fn repeat_delta(&mut self, since: &Snapshot, k: u64) {
        for (cur, old) in self.vals.iter_mut().zip(&since.vals) {
            *cur += (*cur - old) * k;
        }
    }

    /// Captures the current totals as a step-boundary [`Snapshot`].
    #[inline]
    pub fn snapshot(&self) -> Snapshot {
        Snapshot { vals: self.vals }
    }

    /// Appends the per-step feature row — raw deltas between `self`
    /// (current totals) and `prev` (the previous step boundary) followed
    /// by derived ratios — to `out` without allocating: exactly
    /// [`N_COUNTERS`] values are pushed into the caller's buffer, which is
    /// typically the tail of a preallocated
    /// [`RowMatrix`](perfbug_workloads::RowMatrix).
    pub fn sample_row_into(&self, prev: &Snapshot, out: &mut Vec<f64>) {
        let mut delta = [0u64; N_RAW];
        out.reserve(N_COUNTERS);
        for (d, (cur, old)) in delta.iter_mut().zip(self.vals.iter().zip(&prev.vals)) {
            *d = cur - old;
            out.push(*d as f64);
        }
        let d = |c: Counter| delta[c as usize] as f64;
        let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
        let committed = d(Counter::CommittedInsts);
        let cycles = d(Counter::Cycles);
        out.push(ratio(d(Counter::BranchInsts), committed));
        out.push(ratio(d(Counter::Mispredicts), d(Counter::CondBranches)));
        out.push(ratio(
            d(Counter::IndirectBranches) - d(Counter::IndirectMispredicts),
            d(Counter::IndirectBranches),
        ));
        out.push(ratio(d(Counter::L1dMisses), d(Counter::L1dAccesses)));
        out.push(ratio(d(Counter::L2Misses), d(Counter::L2Accesses)));
        out.push(ratio(d(Counter::L3Misses), d(Counter::L3Accesses)));
        out.push(ratio(d(Counter::MaxCommitCycles), cycles));
        out.push(ratio(d(Counter::RobOccupancySum), cycles));
        out.push(ratio(d(Counter::IqOccupancySum), cycles));
    }

    /// Computes the per-step feature row against a previous counter file
    /// (compatibility wrapper over [`CounterFile::sample_row_into`]).
    pub fn sample_row(&self, prev: &CounterFile) -> Vec<f64> {
        let mut row = Vec::with_capacity(N_COUNTERS);
        self.sample_row_into(&prev.snapshot(), &mut row);
        row
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_align_with_count() {
        assert_eq!(counter_names().len(), N_COUNTERS);
        assert_eq!(RAW_NAMES.len(), N_RAW);
        // The last raw enum variant must map to the last raw slot.
        assert_eq!(Counter::LoadStoreStallCycles as usize, N_RAW - 1);
    }

    #[test]
    fn sample_row_is_delta_based() {
        let mut prev = CounterFile::new();
        prev.add(Counter::Cycles, 100);
        prev.add(Counter::CommittedInsts, 50);
        let mut cur = prev.clone();
        cur.add(Counter::Cycles, 10);
        cur.add(Counter::CommittedInsts, 20);
        cur.add(Counter::BranchInsts, 5);
        let row = cur.sample_row(&prev);
        assert_eq!(row[Counter::Cycles as usize], 10.0);
        assert_eq!(row[Counter::CommittedInsts as usize], 20.0);
        // branch_frac = 5 / 20.
        assert!((row[N_RAW] - 0.25).abs() < 1e-12);
    }

    #[test]
    fn repeat_delta_scales_the_change_since_a_snapshot() {
        let mut file = CounterFile::new();
        file.add(Counter::Cycles, 100);
        file.add(Counter::IqOccupancySum, 7);
        let since = file.snapshot();
        file.inc(Counter::Cycles);
        file.add(Counter::IqOccupancySum, 3);
        file.repeat_delta(&since, 4);
        assert_eq!(file.get(Counter::Cycles), 105);
        assert_eq!(file.get(Counter::IqOccupancySum), 22);
        assert_eq!(file.get(Counter::CommittedInsts), 0);
        file.repeat_delta(&file.snapshot(), 9);
        assert_eq!(file.get(Counter::Cycles), 105);
    }

    #[test]
    fn ratios_guard_against_zero_denominators() {
        let prev = CounterFile::new();
        let cur = CounterFile::new();
        let row = cur.sample_row(&prev);
        assert!(row.iter().all(|v| v.is_finite()));
    }
}
