//! Memory-hierarchy configurations and the twelve presets of §IV-D.
//!
//! The paper emulates Intel Broadwell, Haswell, Skylake, Sandybridge,
//! Ivybridge, Nehalem, AMD K10 and Ryzen 7, plus four artificial designs,
//! in ChampSim. The paper does not publish the set partitioning for the
//! memory experiment; we partition analogously to the core experiment's
//! sets I–IV (roles in `docs/ARCHITECTURE.md`, pipeline steps 4–5): five
//! designs train the stage-1 models, two validate, two more label stage 2,
//! and three (all real) are held out.
//!
//! [`CacheConfig`] and [`ArchSet`] are shared with the core simulator
//! (`perfbug-uarch` re-exports them), so both experiments describe a cache
//! level and a design's set the same way.

use crate::spp::SppConfig;

/// Which of the paper's disjoint design sets a core or memory design
/// belongs to.
///
/// * Set I trains the stage-1 models.
/// * Set II validates stage-1 training and provides stage-2 labels.
/// * Set III provides additional stage-2 labels.
/// * Set IV is reserved for final testing (all real designs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ArchSet {
    /// Stage-1 training designs.
    I,
    /// Stage-1 validation / stage-2 training designs.
    II,
    /// Additional stage-2 training designs.
    III,
    /// Held-out test designs (real microarchitectures only).
    IV,
}

/// Geometry and latency of one cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Capacity in bytes.
    pub size: u64,
    /// Associativity (ways).
    pub assoc: u32,
    /// Load-to-use latency in cycles when this level hits.
    pub latency: u32,
}

impl CacheConfig {
    /// Convenience constructor: `size` in KiB.
    pub fn kib(size_kib: u64, assoc: u32, latency: u32) -> Self {
        CacheConfig {
            size: size_kib * 1024,
            assoc,
            latency,
        }
    }

    /// Convenience constructor: `size` in MiB.
    pub fn mib(size_mib: u64, assoc: u32, latency: u32) -> Self {
        CacheConfig {
            size: size_mib * 1024 * 1024,
            assoc,
            latency,
        }
    }
}

/// One simulated cache-hierarchy design.
#[derive(Debug, Clone, PartialEq)]
pub struct MemArchConfig {
    /// Design name.
    pub name: String,
    /// Experiment-set membership.
    pub set: ArchSet,
    /// Whether this models a real commercial design.
    pub real: bool,
    /// L1 data cache.
    pub l1d: CacheConfig,
    /// L2 cache (SPP prefetches into this level).
    pub l2: CacheConfig,
    /// Last-level cache.
    pub llc: CacheConfig,
    /// Main-memory latency in cycles.
    pub mem_latency: u32,
    /// Prefetcher configuration.
    pub spp: SppConfig,
    /// Retire width of the modelled core front in instructions per cycle
    /// (for the IPC estimate), clamped to `1..=4`.
    pub width: u32,
}

impl MemArchConfig {
    /// Names of the design-parameter features for the stage-1 models.
    pub fn feature_names() -> &'static [&'static str] {
        &[
            "arch.l1d_kib",
            "arch.l1d_assoc",
            "arch.l1d_latency",
            "arch.l2_kib",
            "arch.l2_assoc",
            "arch.l2_latency",
            "arch.llc_mib",
            "arch.llc_assoc",
            "arch.llc_latency",
            "arch.mem_latency",
            "arch.pf_degree",
        ]
    }

    /// Static design-parameter feature vector.
    pub fn feature_vector(&self) -> Vec<f64> {
        vec![
            self.l1d.size as f64 / 1024.0,
            self.l1d.assoc as f64,
            self.l1d.latency as f64,
            self.l2.size as f64 / 1024.0,
            self.l2.assoc as f64,
            self.l2.latency as f64,
            self.llc.size as f64 / (1024.0 * 1024.0),
            self.llc.assoc as f64,
            self.llc.latency as f64,
            self.mem_latency as f64,
            self.spp.max_degree as f64,
        ]
    }
}

fn mem_arch(
    name: &str,
    set: ArchSet,
    real: bool,
    l1d: CacheConfig,
    l2: CacheConfig,
    llc: CacheConfig,
    mem_latency: u32,
) -> MemArchConfig {
    MemArchConfig {
        name: name.to_string(),
        set,
        real,
        l1d,
        l2,
        llc,
        mem_latency,
        spp: SppConfig::default(),
        width: 4,
    }
}

/// The twelve memory-hierarchy designs of the §IV-D evaluation.
pub fn all() -> Vec<MemArchConfig> {
    vec![
        mem_arch(
            "Nehalem",
            ArchSet::I,
            true,
            CacheConfig::kib(32, 8, 4),
            CacheConfig::kib(256, 8, 10),
            CacheConfig::mib(8, 16, 38),
            220,
        ),
        mem_arch(
            "Sandybridge",
            ArchSet::I,
            true,
            CacheConfig::kib(32, 8, 4),
            CacheConfig::kib(256, 8, 11),
            CacheConfig::mib(8, 16, 30),
            210,
        ),
        mem_arch(
            "Haswell",
            ArchSet::I,
            true,
            CacheConfig::kib(32, 8, 4),
            CacheConfig::kib(256, 8, 11),
            CacheConfig::mib(8, 16, 34),
            205,
        ),
        mem_arch(
            "Artificial M1",
            ArchSet::I,
            false,
            CacheConfig::kib(64, 4, 5),
            CacheConfig::kib(512, 8, 14),
            CacheConfig::mib(4, 16, 30),
            240,
        ),
        mem_arch(
            "Artificial M2",
            ArchSet::I,
            false,
            CacheConfig::kib(16, 4, 3),
            CacheConfig::mib(1, 16, 18),
            CacheConfig::mib(16, 32, 44),
            190,
        ),
        mem_arch(
            "Ivybridge",
            ArchSet::II,
            true,
            CacheConfig::kib(32, 8, 4),
            CacheConfig::kib(256, 8, 11),
            CacheConfig::mib(16, 16, 30),
            215,
        ),
        mem_arch(
            "Artificial M3",
            ArchSet::II,
            false,
            CacheConfig::kib(32, 2, 3),
            CacheConfig::kib(512, 4, 12),
            CacheConfig::mib(2, 8, 26),
            230,
        ),
        mem_arch(
            "Broadwell",
            ArchSet::III,
            true,
            CacheConfig::kib(32, 8, 4),
            CacheConfig::kib(256, 8, 12),
            CacheConfig::mib(6, 16, 42),
            200,
        ),
        mem_arch(
            "Artificial M4",
            ArchSet::III,
            false,
            CacheConfig::kib(48, 12, 5),
            CacheConfig::mib(1, 16, 16),
            CacheConfig::mib(12, 12, 40),
            225,
        ),
        mem_arch(
            "K10",
            ArchSet::IV,
            true,
            CacheConfig::kib(64, 2, 3),
            CacheConfig::kib(512, 16, 12),
            CacheConfig::mib(6, 16, 40),
            235,
        ),
        mem_arch(
            "Ryzen7",
            ArchSet::IV,
            true,
            CacheConfig::kib(32, 8, 4),
            CacheConfig::kib(512, 8, 12),
            CacheConfig::mib(8, 16, 35),
            200,
        ),
        mem_arch(
            "Skylake",
            ArchSet::IV,
            true,
            CacheConfig::kib(32, 8, 4),
            CacheConfig::kib(256, 4, 12),
            CacheConfig::mib(8, 16, 34),
            195,
        ),
    ]
}

/// Designs belonging to one experiment set.
pub fn by_set(set: ArchSet) -> Vec<MemArchConfig> {
    all().into_iter().filter(|a| a.set == set).collect()
}

/// Looks up a design by name.
pub fn by_name(name: &str) -> Option<MemArchConfig> {
    all().into_iter().find(|a| a.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn twelve_designs_partitioned() {
        assert_eq!(all().len(), 12);
        assert_eq!(by_set(ArchSet::I).len(), 5);
        assert_eq!(by_set(ArchSet::II).len(), 2);
        assert_eq!(by_set(ArchSet::III).len(), 2);
        assert_eq!(by_set(ArchSet::IV).len(), 3);
    }

    #[test]
    fn eight_real_designs() {
        assert_eq!(all().iter().filter(|a| a.real).count(), 8);
        assert!(by_set(ArchSet::IV).iter().all(|a| a.real));
    }

    #[test]
    fn cache_constructors() {
        assert_eq!(CacheConfig::kib(32, 8, 4).size, 32 * 1024);
        assert_eq!(CacheConfig::mib(8, 16, 34).size, 8 * 1024 * 1024);
    }

    #[test]
    fn feature_vector_matches_names() {
        let cfg = by_name("Skylake").unwrap();
        assert_eq!(
            cfg.feature_vector().len(),
            MemArchConfig::feature_names().len()
        );
    }
}
