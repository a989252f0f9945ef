//! Microarchitecture configuration: the knobs of Tables II and III.

use perfbug_workloads::FuClass;

pub use perfbug_memsim::{ArchSet, CacheConfig};

/// Functional-unit latencies (Table II's "FP / Multiplier / Divider").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FuLatency {
    /// Floating-point add/mul/vector latency.
    pub fp: u32,
    /// Integer multiplier latency.
    pub mul: u32,
    /// Divider latency (integer and FP divides).
    pub div: u32,
}

/// Full configuration of a simulated out-of-order core.
#[derive(Debug, Clone, PartialEq)]
pub struct MicroarchConfig {
    /// Design name (e.g. `Skylake`, `Artificial 3`).
    pub name: String,
    /// Experiment-set membership (Table II, leftmost column).
    pub set: ArchSet,
    /// Whether this models a real commercial design.
    pub real: bool,
    /// Core clock in GHz (affects memory latency in cycles).
    pub clock_ghz: f64,
    /// Pipeline width (fetch/decode/rename/issue/commit per cycle).
    pub width: u32,
    /// Re-order buffer capacity.
    pub rob_size: u32,
    /// Instruction-queue (scheduler) capacity.
    pub iq_size: u32,
    /// Load-queue capacity.
    pub lq_size: u32,
    /// Store-queue capacity.
    pub sq_size: u32,
    /// Physical register file size (shared int/fp pool).
    pub phys_regs: u32,
    /// L1 instruction cache.
    pub l1i: CacheConfig,
    /// L1 data cache.
    pub l1d: CacheConfig,
    /// Unified L2.
    pub l2: CacheConfig,
    /// Optional L3.
    pub l3: Option<CacheConfig>,
    /// Main-memory latency in nanoseconds.
    pub mem_latency_ns: f64,
    /// Functional-unit latencies.
    pub fu: FuLatency,
    /// Issue ports: each port lists the functional units reachable through
    /// it (Table III). One instruction per port per cycle; at most 64.
    pub ports: Vec<Vec<FuClass>>,
    /// Branch-predictor global-history table bits (2^bits counters).
    pub bp_table_bits: u32,
    /// Branch-target-buffer entries (power of two).
    pub btb_entries: u32,
    /// Front-end refill penalty in cycles after a branch mispredict
    /// resolves.
    pub mispredict_penalty: u32,
}

impl MicroarchConfig {
    /// Main-memory latency in core cycles.
    pub fn mem_latency_cycles(&self) -> u32 {
        (self.mem_latency_ns * self.clock_ghz).round().max(1.0) as u32
    }

    /// Names of the microarchitectural design-parameter features exposed to
    /// the stage-1 models (§III-C: "clock cycle, pipeline width, re-order
    /// buffer size and some cache characteristics").
    pub fn feature_names() -> &'static [&'static str] {
        &[
            "arch.clock_ghz",
            "arch.width",
            "arch.rob_size",
            "arch.iq_size",
            "arch.phys_regs",
            "arch.l1d_kib",
            "arch.l1d_assoc",
            "arch.l1d_latency",
            "arch.l2_kib",
            "arch.l2_assoc",
            "arch.l2_latency",
            "arch.l3_mib",
            "arch.l3_latency",
            "arch.fp_latency",
            "arch.mul_latency",
            "arch.div_latency",
            "arch.n_ports",
        ]
    }

    /// The static design-parameter feature vector (constant across a run).
    pub fn feature_vector(&self) -> Vec<f64> {
        vec![
            self.clock_ghz,
            self.width as f64,
            self.rob_size as f64,
            self.iq_size as f64,
            self.phys_regs as f64,
            self.l1d.size as f64 / 1024.0,
            self.l1d.assoc as f64,
            self.l1d.latency as f64,
            self.l2.size as f64 / 1024.0,
            self.l2.assoc as f64,
            self.l2.latency as f64,
            self.l3.map_or(0.0, |c| c.size as f64 / (1024.0 * 1024.0)),
            self.l3.map_or(0.0, |c| c.latency as f64),
            self.fu.fp as f64,
            self.fu.mul as f64,
            self.fu.div as f64,
            self.ports.len() as f64,
        ]
    }

    /// Validates internal consistency.
    ///
    /// # Panics
    ///
    /// Panics when a structural invariant is violated (zero width, no
    /// ports or more than 64, missing load/store port, ROB smaller than
    /// width, …).
    pub fn validate(&self) {
        assert!(self.width >= 1, "{}: width must be >= 1", self.name);
        assert!(
            self.rob_size >= 2 * self.width,
            "{}: ROB too small",
            self.name
        );
        assert!(self.iq_size >= self.width, "{}: IQ too small", self.name);
        assert!(
            !self.ports.is_empty(),
            "{}: needs at least one port",
            self.name
        );
        assert!(
            self.ports.len() <= 64,
            "{}: at most 64 issue ports (the scheduler tracks them in a u64 mask)",
            self.name
        );
        let has = |fu: FuClass| self.ports.iter().any(|p| p.contains(&fu));
        assert!(has(FuClass::Load), "{}: no load port", self.name);
        assert!(has(FuClass::Store), "{}: no store port", self.name);
        // Branches fall back to integer ALUs on designs without a
        // dedicated branch unit (e.g. the K8-style port organisation).
        assert!(has(FuClass::IntAlu), "{}: no integer ALU", self.name);
        assert!(
            self.phys_regs > self.rob_size / 2,
            "{}: physical register file unrealistically small",
            self.name
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets;

    #[test]
    fn feature_vector_matches_names() {
        let cfg = presets::skylake();
        assert_eq!(
            cfg.feature_vector().len(),
            MicroarchConfig::feature_names().len()
        );
    }

    #[test]
    fn mem_latency_scales_with_clock() {
        let mut cfg = presets::skylake();
        cfg.clock_ghz = 4.0;
        let fast = cfg.mem_latency_cycles();
        cfg.clock_ghz = 2.0;
        let slow = cfg.mem_latency_cycles();
        assert_eq!(fast, 2 * slow);
    }

    #[test]
    #[should_panic(expected = "at most 64 issue ports")]
    fn validate_rejects_more_than_64_ports() {
        let mut cfg = presets::skylake();
        let port = cfg.ports[0].clone();
        cfg.ports.resize(65, port);
        cfg.validate();
    }

    #[test]
    fn validate_accepts_64_ports() {
        let mut cfg = presets::skylake();
        let port = cfg.ports[0].clone();
        cfg.ports.resize(64, port);
        cfg.validate();
    }

    #[test]
    #[should_panic(expected = "width must be")]
    fn validate_rejects_zero_width() {
        let mut cfg = presets::skylake();
        cfg.width = 0;
        cfg.validate();
    }
}
