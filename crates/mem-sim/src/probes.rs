//! The 22-probe suite of the memory-system evaluation (§IV-D).
//!
//! The paper extracts 22 SimPoints from seven SPEC CPU2006 applications for
//! the ChampSim experiment. The per-application split is not published; we
//! use the seven most memory-relevant applications of our suite with
//! SimPoint counts summing to 22 ([`MEMORY_SUITE`]).

use perfbug_workloads::{benchmark, BenchmarkSpec};

/// The seven applications and their SimPoint counts (total 22).
pub const MEMORY_SUITE: [(&str, usize); 7] = [
    ("426.mcf", 4),
    ("462.libquantum", 4),
    ("433.milc", 3),
    ("450.soplex", 3),
    ("403.gcc", 3),
    ("401.bzip2", 3),
    ("436.cactusADM", 2),
];

/// Benchmark specs for the memory evaluation, with `k` overridden to the
/// memory-suite SimPoint counts.
pub fn memory_suite() -> Vec<BenchmarkSpec> {
    MEMORY_SUITE
        .iter()
        .map(|&(name, k)| {
            let mut spec = benchmark(name).expect("memory suite uses suite benchmarks");
            spec.k = k;
            spec
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use perfbug_workloads::WorkloadScale;

    #[test]
    fn twenty_two_probes_total() {
        let suite = memory_suite();
        assert_eq!(suite.len(), 7);
        let total: usize = suite.iter().map(|s| s.k).sum();
        assert_eq!(
            total, 22,
            "the paper uses 22 SimPoints for the memory study"
        );
    }

    #[test]
    fn probes_extract_at_tiny_scale() {
        let scale = WorkloadScale::tiny();
        let spec = &memory_suite()[6]; // cactusADM, cheapest (k = 2)
        let probes = spec.probes(&scale);
        assert_eq!(probes.len(), 2);
    }
}
