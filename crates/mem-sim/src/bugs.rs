//! The memory-system performance-bug types: the six of §IV-D plus two
//! extension families (7: prefetcher degree/stride pathology, 8: DRAM
//! row-policy/page-close regression) grown past the paper's catalogue.

/// Cache level selector for bugs with per-level variants.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheLevel {
    /// First-level data cache.
    L1d,
    /// Second-level cache.
    L2,
}

/// One injected memory-system performance bug (at most one per simulation).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MemBugSpec {
    /// Bug 1 — on a cache-block access the replacement-policy age counter
    /// is not updated, so recency information is lost. A line's age is
    /// its position in its set's recency list, so a hit leaves the line
    /// where it is instead of moving it to the front.
    NoAgeUpdate {
        /// Affected level.
        level: CacheLevel,
    },
    /// Bug 2 — evictions pick the most recently used block instead of the
    /// least recently used one.
    EvictMru {
        /// Affected level.
        level: CacheLevel,
    },
    /// Bug 3 — after `n` load misses, each read is delayed by `t` extra
    /// cycles (variants for L1D and L2).
    MissesDelay {
        /// Affected level.
        level: CacheLevel,
        /// Miss-count threshold.
        n: u32,
        /// Extra delay in cycles.
        t: u32,
    },
    /// Bug 4 — Signature Path Prefetcher signatures are reset, making the
    /// prefetcher predict from a zeroed signature (wrong addresses).
    SppSignatureReset,
    /// Bug 5 — lookahead prefetching follows the path with the *least*
    /// confidence.
    SppLeastConfidence,
    /// Bug 6 — every `n`-th prefetch is marked executed without actually
    /// being issued (found in the original SPP code).
    SppDroppedPrefetch {
        /// Drop period.
        n: u32,
    },
    /// Bug 7 — the prefetcher's degree/stride control is broken: the
    /// lookahead walk ignores path confidence and always runs `degree`
    /// deep, and every predicted delta is skewed by `skew` blocks, so
    /// low-confidence and off-target prefetches pollute the caches.
    SppDegreeStride {
        /// Forced lookahead depth (confidence threshold ignored).
        degree: u32,
        /// Blocks added to every predicted delta (0 = stride intact).
        skew: i64,
    },
    /// Bug 8 — DRAM row-buffer policy regression: the controller closes
    /// the row after every access (forced page-close), so an access that
    /// would have been a row-buffer hit under the open-page policy pays
    /// `t` extra cycles of activate latency.
    DramPageCloseDelay {
        /// Extra cycles per lost row-buffer hit.
        t: u32,
    },
}

impl MemBugSpec {
    /// The memory bug-type number (1–6 from the paper, 7–8 extensions).
    pub fn type_id(&self) -> u32 {
        match self {
            MemBugSpec::NoAgeUpdate { .. } => 1,
            MemBugSpec::EvictMru { .. } => 2,
            MemBugSpec::MissesDelay { .. } => 3,
            MemBugSpec::SppSignatureReset => 4,
            MemBugSpec::SppLeastConfidence => 5,
            MemBugSpec::SppDroppedPrefetch { .. } => 6,
            MemBugSpec::SppDegreeStride { .. } => 7,
            MemBugSpec::DramPageCloseDelay { .. } => 8,
        }
    }

    /// Short type name.
    pub fn type_name(&self) -> &'static str {
        match self {
            MemBugSpec::NoAgeUpdate { .. } => "NoAgeUpdate",
            MemBugSpec::EvictMru { .. } => "EvictMRU",
            MemBugSpec::MissesDelay { .. } => "NMissesDelayT",
            MemBugSpec::SppSignatureReset => "SppSignatureReset",
            MemBugSpec::SppLeastConfidence => "SppLeastConfidence",
            MemBugSpec::SppDroppedPrefetch { .. } => "SppDroppedPrefetch",
            MemBugSpec::SppDegreeStride { .. } => "SppDegreeStride",
            MemBugSpec::DramPageCloseDelay { .. } => "DramPageCloseDelayT",
        }
    }

    /// Human-readable description.
    pub fn describe(&self) -> String {
        match self {
            MemBugSpec::NoAgeUpdate { level } => {
                format!("{level:?}: age counter not updated on access")
            }
            MemBugSpec::EvictMru { level } => format!("{level:?}: evict MRU instead of LRU"),
            MemBugSpec::MissesDelay { level, n, t } => {
                format!("{level:?}: after {n} load misses, delay reads {t} cycles")
            }
            MemBugSpec::SppSignatureReset => "SPP signatures reset".to_string(),
            MemBugSpec::SppLeastConfidence => {
                "SPP lookahead follows least-confidence path".to_string()
            }
            MemBugSpec::SppDroppedPrefetch { n } => {
                format!("every {n}-th SPP prefetch dropped but marked executed")
            }
            MemBugSpec::SppDegreeStride { degree, skew } => {
                format!("SPP walks {degree} deep ignoring confidence, deltas skewed by {skew}")
            }
            MemBugSpec::DramPageCloseDelay { t } => {
                format!("DRAM rows closed after every access, lost row hits cost {t} cycles")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn type_ids_cover_all_types() {
        let bugs = [
            MemBugSpec::NoAgeUpdate {
                level: CacheLevel::L1d,
            },
            MemBugSpec::EvictMru {
                level: CacheLevel::L2,
            },
            MemBugSpec::MissesDelay {
                level: CacheLevel::L1d,
                n: 100,
                t: 5,
            },
            MemBugSpec::SppSignatureReset,
            MemBugSpec::SppLeastConfidence,
            MemBugSpec::SppDroppedPrefetch { n: 4 },
            MemBugSpec::SppDegreeStride { degree: 8, skew: 1 },
            MemBugSpec::DramPageCloseDelay { t: 20 },
        ];
        let ids: Vec<u32> = bugs.iter().map(MemBugSpec::type_id).collect();
        assert_eq!(ids, (1..=8).collect::<Vec<u32>>());
        for b in &bugs {
            assert!(!b.describe().is_empty());
        }
    }
}
