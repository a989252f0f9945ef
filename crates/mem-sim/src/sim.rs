//! Trace-driven cache-hierarchy timing model (the ChampSim stand-in).
//!
//! A simple core front retires up to `width` instructions per cycle; loads
//! walk the L1D → L2 → LLC → memory hierarchy, train the SPP
//! prefetcher at the L2 boundary and accumulate Average Memory Access Time
//! (AMAT). Miss latency beyond the L1 is charged with a fixed
//! memory-level-parallelism discount, approximating an out-of-order
//! window without simulating one — the per-step *shape* of AMAT and IPC is
//! what the stage-1 models consume.

use perfbug_workloads::{Inst, Opcode, RowMatrix};

use crate::bugs::{CacheLevel, MemBugSpec};
use crate::cache::{RecencyCache, ReplacementBugs};
use crate::config::MemArchConfig;
use crate::spp::{Spp, SppBugs};

/// Overlap factor applied to post-L1 miss latency (models MLP).
const MLP_FACTOR: u64 = 4;

/// Names of the per-step counter features of the memory simulator.
pub fn mem_counter_names() -> Vec<&'static str> {
    vec![
        "cycles",
        "insts",
        "loads",
        "stores",
        "l1d_hits",
        "l1d_misses",
        "l2_accesses",
        "l2_hits",
        "l2_misses",
        "llc_accesses",
        "llc_hits",
        "llc_misses",
        "mem_accesses",
        "load_latency_sum",
        "pf_issued",
        "pf_filled",
        "pf_useful",
        // Derived.
        "l1d_miss_rate",
        "l2_miss_rate",
        "llc_miss_rate",
        "amat",
        "pf_accuracy",
        "mpki",
    ]
}

/// Number of per-step counter features.
pub const N_MEM_COUNTERS: usize = 23;
const N_MEM_RAW: usize = 17;

#[derive(Debug, Clone, Copy, Default)]
struct Raw {
    v: [u64; N_MEM_RAW],
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
enum C {
    Cycles,
    Insts,
    Loads,
    Stores,
    L1dHits,
    L1dMisses,
    L2Accesses,
    L2Hits,
    L2Misses,
    LlcAccesses,
    LlcHits,
    LlcMisses,
    MemAccesses,
    LoadLatencySum,
    PfIssued,
    PfFilled,
    PfUseful,
}

impl Raw {
    fn inc(&mut self, c: C) {
        self.v[c as usize] += 1;
    }
    fn add(&mut self, c: C, n: u64) {
        self.v[c as usize] += n;
    }
    fn get(&self, c: C) -> u64 {
        self.v[c as usize]
    }
}

/// Result of simulating one probe on one memory hierarchy.
#[derive(Debug, Clone)]
pub struct MemRun {
    /// One feature row per time step (see [`mem_counter_names`]),
    /// stored contiguously.
    pub counter_rows: RowMatrix,
    /// Per-step IPC.
    pub ipc: Vec<f64>,
    /// Per-step AMAT in cycles.
    pub amat: Vec<f64>,
    /// Total simulated cycles.
    pub total_cycles: u64,
    /// Total instructions.
    pub total_insts: u64,
}

impl MemRun {
    /// Whole-run IPC.
    pub fn overall_ipc(&self) -> f64 {
        if self.total_cycles == 0 {
            0.0
        } else {
            self.total_insts as f64 / self.total_cycles as f64
        }
    }

    /// Whole-run average AMAT (mean of per-step AMATs).
    pub fn overall_amat(&self) -> f64 {
        if self.amat.is_empty() {
            0.0
        } else {
            self.amat.iter().sum::<f64>() / self.amat.len() as f64
        }
    }
}

/// Appends the per-step feature row (raw deltas + derived ratios) into
/// `out` without allocating, returning the step's (IPC, AMAT).
fn sample_row_into(cur: &Raw, prev: &Raw, step_cycles: u64, out: &mut Vec<f64>) -> (f64, f64) {
    let mut delta = [0u64; N_MEM_RAW];
    out.reserve(N_MEM_COUNTERS);
    for (d, (c, p)) in delta.iter_mut().zip(cur.v.iter().zip(&prev.v)) {
        *d = c - p;
        out.push(*d as f64);
    }
    let d = |c: C| delta[c as usize] as f64;
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let loads = d(C::Loads);
    let amat = ratio(d(C::LoadLatencySum), loads);
    out.push(ratio(d(C::L1dMisses), loads));
    out.push(ratio(d(C::L2Misses), d(C::L2Accesses)));
    out.push(ratio(d(C::LlcMisses), d(C::LlcAccesses)));
    out.push(amat);
    out.push(ratio(d(C::PfUseful), d(C::PfIssued)));
    out.push(ratio(d(C::L1dMisses) * 1000.0, d(C::Insts)));
    let ipc = d(C::Insts) / step_cycles as f64;
    (ipc, amat)
}

/// Simulates `trace` on the memory hierarchy `cfg`, optionally with one
/// injected bug, sampling every `step_cycles` cycles.
///
/// # Panics
///
/// Panics if `step_cycles` is zero.
pub fn simulate_memory(
    cfg: &MemArchConfig,
    bug: Option<MemBugSpec>,
    trace: &[Inst],
    step_cycles: u64,
) -> MemRun {
    assert!(step_cycles > 0, "step_cycles must be positive");
    let mut l1d = RecencyCache::new(cfg.l1d.size, cfg.l1d.assoc);
    let mut l2 = RecencyCache::new(cfg.l2.size, cfg.l2.assoc);
    let mut llc = RecencyCache::new(cfg.llc.size, cfg.llc.assoc);
    let mut spp = Spp::new(cfg.spp);

    // Install bugs.
    let mut l1_miss_delay: Option<(u32, u32)> = None; // (threshold, delay)
    let mut l2_miss_delay: Option<(u32, u32)> = None;
    let mut drop_period: Option<u32> = None;
    let mut dram_close: Option<u32> = None;
    match bug {
        Some(MemBugSpec::NoAgeUpdate { level }) => {
            let bugs = ReplacementBugs {
                skip_age_update: true,
                ..Default::default()
            };
            match level {
                CacheLevel::L1d => l1d.set_bugs(bugs),
                CacheLevel::L2 => l2.set_bugs(bugs),
            }
        }
        Some(MemBugSpec::EvictMru { level }) => {
            let bugs = ReplacementBugs {
                evict_mru: true,
                ..Default::default()
            };
            match level {
                CacheLevel::L1d => l1d.set_bugs(bugs),
                CacheLevel::L2 => l2.set_bugs(bugs),
            }
        }
        Some(MemBugSpec::MissesDelay { level, n, t }) => match level {
            CacheLevel::L1d => l1_miss_delay = Some((n, t)),
            CacheLevel::L2 => l2_miss_delay = Some((n, t)),
        },
        Some(MemBugSpec::SppSignatureReset) => spp.set_bugs(SppBugs {
            reset_signature: true,
            ..Default::default()
        }),
        Some(MemBugSpec::SppLeastConfidence) => spp.set_bugs(SppBugs {
            least_confidence: true,
            ..Default::default()
        }),
        Some(MemBugSpec::SppDroppedPrefetch { n }) => drop_period = Some(n.max(1)),
        Some(MemBugSpec::SppDegreeStride { degree, skew }) => spp.set_bugs(SppBugs {
            degree_override: degree.max(1),
            delta_skew: skew,
            ..Default::default()
        }),
        Some(MemBugSpec::DramPageCloseDelay { t }) => dram_close = Some(t),
        None => {}
    }
    // Bug 8 state: per-bank last open row, tracked only when installed.
    let mut dram_banks = [u32::MAX; 8];

    let mut raw = Raw::default();
    let mut snapshot = raw;
    let mut rows = RowMatrix::new(N_MEM_COUNTERS);
    let mut ipc_series = Vec::new();
    let mut amat_series = Vec::new();

    // Fixed-point cycle accumulator in twelfths of a cycle, so each
    // width in 1..=4 retires a whole number of twelfths per instruction.
    let mut qcycles: u64 = 0;
    let inst_q = 12 / cfg.width.clamp(1, 4) as u64;
    let mut next_boundary = step_cycles;
    let mut l1_misses_seen = 0u32;
    let mut l2_misses_seen = 0u32;

    for inst in trace {
        raw.inc(C::Insts);
        qcycles += inst_q;
        match inst.opcode {
            Opcode::Load => {
                raw.inc(C::Loads);
                let addr = inst.mem_addr;
                let mut latency;
                let l1 = l1d.access(addr);
                if l1.hit {
                    raw.inc(C::L1dHits);
                    latency = cfg.l1d.latency;
                } else {
                    raw.inc(C::L1dMisses);
                    l1_misses_seen += 1;
                    raw.inc(C::L2Accesses);
                    // Train the prefetcher on the L2 access stream.
                    for &pf in spp.access(addr.into()) {
                        raw.inc(C::PfIssued);
                        let dropped = drop_period
                            .map(|n| raw.get(C::PfIssued) % n as u64 == 0)
                            .unwrap_or(false);
                        if !dropped {
                            raw.inc(C::PfFilled);
                            // Prefetches stay in the page of a u32
                            // address, so they fit in one.
                            l2.prefetch_fill(pf as u32);
                            llc.prefetch_fill(pf as u32);
                        }
                    }
                    let l2r = l2.access(addr);
                    if l2r.hit {
                        raw.inc(C::L2Hits);
                        if l2r.prefetch_hit {
                            raw.inc(C::PfUseful);
                        }
                        latency = cfg.l2.latency;
                        if let Some((n, t)) = l2_miss_delay {
                            if l2_misses_seen >= n {
                                latency += t;
                            }
                        }
                    } else {
                        raw.inc(C::L2Misses);
                        l2_misses_seen += 1;
                        raw.inc(C::LlcAccesses);
                        let llcr = llc.access(addr);
                        if llcr.hit {
                            raw.inc(C::LlcHits);
                            latency = cfg.llc.latency;
                        } else {
                            raw.inc(C::LlcMisses);
                            raw.inc(C::MemAccesses);
                            latency = cfg.mem_latency;
                            // Bug 8: the flat memory latency already prices
                            // an open-page average; forced page-close makes
                            // every would-be row hit pay the activate again.
                            if let Some(t) = dram_close {
                                let bank = ((addr >> 6) & 7) as usize;
                                let row = addr >> 13;
                                if dram_banks[bank] == row {
                                    latency += t;
                                }
                                dram_banks[bank] = row;
                            }
                        }
                    }
                }
                if let Some((n, t)) = l1_miss_delay {
                    if l1_misses_seen >= n {
                        latency += t;
                    }
                }
                raw.add(C::LoadLatencySum, latency as u64);
                // Post-L1 stall with MLP overlap.
                let stall = latency.saturating_sub(cfg.l1d.latency) as u64;
                qcycles += stall * 12 / MLP_FACTOR;
            }
            Opcode::Store => {
                raw.inc(C::Stores);
                let addr = inst.mem_addr;
                let s1 = l1d.access(addr);
                if !s1.hit {
                    // Write-allocate fill path (no retire stall: the store
                    // buffer hides it).
                    raw.inc(C::L2Accesses);
                    let s2 = l2.access(addr);
                    if !s2.hit {
                        raw.inc(C::L2Misses);
                        l2_misses_seen += 1;
                        raw.inc(C::LlcAccesses);
                        let s3 = llc.access(addr);
                        if !s3.hit {
                            raw.inc(C::LlcMisses);
                            raw.inc(C::MemAccesses);
                        } else {
                            raw.inc(C::LlcHits);
                        }
                    } else {
                        raw.inc(C::L2Hits);
                    }
                } else {
                    raw.inc(C::L1dHits);
                }
            }
            _ => {}
        }

        let cycles = qcycles / 12;
        while cycles >= next_boundary {
            raw.v[C::Cycles as usize] = next_boundary;
            let mut step = (0.0, 0.0);
            rows.push_row_with(|buf| step = sample_row_into(&raw, &snapshot, step_cycles, buf));
            ipc_series.push(step.0);
            amat_series.push(step.1);
            snapshot = raw;
            next_boundary += step_cycles;
        }
    }
    let total_cycles = qcycles / 12;
    // Trailing partial step if it covers at least half a step.
    let covered = snapshot.get(C::Cycles);
    if total_cycles > covered && (total_cycles - covered) * 2 >= step_cycles {
        raw.v[C::Cycles as usize] = total_cycles;
        let mut step = (0.0, 0.0);
        rows.push_row_with(|buf| step = sample_row_into(&raw, &snapshot, step_cycles, buf));
        let insts = raw.get(C::Insts) - snapshot.get(C::Insts);
        ipc_series.push(insts as f64 / (total_cycles - covered) as f64);
        amat_series.push(step.1);
    }

    MemRun {
        counter_rows: rows,
        ipc: ipc_series,
        amat: amat_series,
        total_cycles,
        total_insts: trace.len() as u64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config;
    use perfbug_workloads::{benchmark, WorkloadScale};

    fn mem_trace() -> Vec<Inst> {
        let scale = WorkloadScale::tiny();
        let spec = benchmark("462.libquantum").expect("suite benchmark");
        let program = spec.program(&scale);
        spec.probes(&scale)[0].trace(&program)
    }

    fn skylake() -> MemArchConfig {
        config::by_name("Skylake").expect("preset")
    }

    #[test]
    fn runs_and_samples() {
        let trace = mem_trace();
        let run = simulate_memory(&skylake(), None, &trace, 200);
        assert_eq!(run.total_insts, trace.len() as u64);
        assert!(!run.counter_rows.is_empty());
        assert_eq!(run.counter_rows.len(), run.ipc.len());
        assert_eq!(run.counter_rows.len(), run.amat.len());
        for row in &run.counter_rows {
            assert_eq!(row.len(), N_MEM_COUNTERS);
            assert!(row.iter().all(|v| v.is_finite()));
        }
        assert!(run.overall_ipc() > 0.0 && run.overall_ipc() <= 4.0);
        assert!(run.overall_amat() >= skylake().l1d.latency as f64);
    }

    #[test]
    fn deterministic() {
        let trace = mem_trace();
        let a = simulate_memory(&skylake(), None, &trace, 200);
        let b = simulate_memory(&skylake(), None, &trace, 200);
        assert_eq!(a.counter_rows, b.counter_rows);
    }

    #[test]
    fn evict_mru_bug_raises_amat() {
        // Hot lines with heavy reuse interleaved with a cold stream: true
        // LRU keeps the hot set resident; MRU eviction throws out a hot
        // line the moment a cold miss follows its access.
        let mut trace = Vec::new();
        let mut cold = 0x6000_0000u32;
        for i in 0..30_000u32 {
            let mut hot = Inst::nop(0x1000);
            hot.opcode = Opcode::Load;
            hot.mem_addr = 0x5000_0000 + (i % 128) * 64; // 8 KiB hot set
            trace.push(hot);
            if i % 3 == 0 {
                let mut c = Inst::nop(0x1004);
                c.opcode = Opcode::Load;
                c.mem_addr = cold;
                cold += 64; // endless cold stream
                trace.push(c);
            }
        }
        let healthy = simulate_memory(&skylake(), None, &trace, 200);
        let buggy = simulate_memory(
            &skylake(),
            Some(MemBugSpec::EvictMru {
                level: CacheLevel::L1d,
            }),
            &trace,
            200,
        );
        assert!(
            buggy.overall_amat() > healthy.overall_amat(),
            "MRU eviction must raise AMAT ({} !> {})",
            buggy.overall_amat(),
            healthy.overall_amat()
        );
    }

    #[test]
    fn miss_delay_bug_raises_amat() {
        let trace = mem_trace();
        let healthy = simulate_memory(&skylake(), None, &trace, 200);
        let buggy = simulate_memory(
            &skylake(),
            Some(MemBugSpec::MissesDelay {
                level: CacheLevel::L1d,
                n: 50,
                t: 20,
            }),
            &trace,
            200,
        );
        assert!(buggy.overall_amat() > healthy.overall_amat());
        assert!(buggy.total_cycles > healthy.total_cycles);
    }

    #[test]
    fn prefetcher_helps_streaming_code() {
        let trace = mem_trace();
        let with_pf = simulate_memory(&skylake(), None, &trace, 200);
        // Breaking the prefetcher entirely (drop every prefetch) must hurt.
        let without = simulate_memory(
            &skylake(),
            Some(MemBugSpec::SppDroppedPrefetch { n: 1 }),
            &trace,
            200,
        );
        assert!(
            without.overall_amat() >= with_pf.overall_amat(),
            "dropping all prefetches cannot improve AMAT"
        );
    }

    #[test]
    fn degree_stride_bug_wastes_prefetches() {
        // A unit-stride stream of fresh cache lines: every load misses L1
        // and trains SPP. Healthy lookahead runs ahead of the stream; a
        // negative skew lands every prefetch *behind* it, so usefulness
        // collapses and AMAT rises.
        let mut trace = Vec::new();
        for i in 0..30_000u32 {
            let mut ld = Inst::nop(0x1000);
            ld.opcode = Opcode::Load;
            ld.mem_addr = 0x4000_0000 + i * 64;
            trace.push(ld);
        }
        let healthy = simulate_memory(&skylake(), None, &trace, 200);
        let buggy = simulate_memory(
            &skylake(),
            Some(MemBugSpec::SppDegreeStride {
                degree: 8,
                skew: -2,
            }),
            &trace,
            200,
        );
        let useful = |run: &MemRun| {
            run.counter_rows
                .iter()
                .map(|row| row[C::PfUseful as usize])
                .sum::<f64>()
        };
        assert!(
            useful(&buggy) < useful(&healthy),
            "skewed prefetches must be less useful ({} !< {})",
            useful(&buggy),
            useful(&healthy)
        );
        assert!(
            buggy.overall_amat() > healthy.overall_amat(),
            "lost coverage must raise AMAT ({} !> {})",
            buggy.overall_amat(),
            healthy.overall_amat()
        );
    }

    #[test]
    fn dram_page_close_bug_taxes_row_locality() {
        // A streaming region far larger than the LLC: nearly every load
        // reaches memory, and consecutive same-bank accesses share a DRAM
        // row — exactly the row hits forced page-close throws away.
        let mut trace = Vec::new();
        for i in 0..40_000u32 {
            let mut ld = Inst::nop(0x1000);
            ld.opcode = Opcode::Load;
            ld.mem_addr = 0x4000_0000 + i * 64;
            trace.push(ld);
        }
        let healthy = simulate_memory(&skylake(), None, &trace, 200);
        let buggy = simulate_memory(
            &skylake(),
            Some(MemBugSpec::DramPageCloseDelay { t: 40 }),
            &trace,
            200,
        );
        assert!(
            buggy.total_cycles > healthy.total_cycles,
            "lost row hits must cost cycles ({} !> {})",
            buggy.total_cycles,
            healthy.total_cycles
        );
        assert!(buggy.overall_amat() > healthy.overall_amat());
    }

    #[test]
    fn load_free_code_retires_width_instructions_per_cycle() {
        let trace = vec![Inst::nop(0x1000); 12_000];
        for width in 1..=4 {
            let cfg = MemArchConfig { width, ..skylake() };
            let run = simulate_memory(&cfg, None, &trace, 200);
            assert_eq!(run.total_cycles, 12_000 / width as u64, "width {width}");
            assert_eq!(run.overall_ipc(), width as f64, "width {width}");
        }
    }

    #[test]
    fn counter_names_match_row_width() {
        assert_eq!(mem_counter_names().len(), N_MEM_COUNTERS);
    }
}
