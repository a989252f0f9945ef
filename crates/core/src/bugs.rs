//! Bug catalogues and severity grading (§IV-C, Fig. 4).
//!
//! Each of the paper's 14 core bug types (and 6 memory bug types) is
//! instantiated in several variants by varying its `X`/`Y`/`N`/`T`/`R`
//! parameters, producing bugs across the whole severity spectrum. Severity
//! is graded by measured average IPC impact: Very-Low < 1 %, Low 1–5 %,
//! Medium 5–10 %, High ≥ 10 %.

use perfbug_memsim::{CacheLevel, MemBugSpec};
use perfbug_uarch::BugSpec;
use perfbug_workloads::Opcode;

/// Severity buckets of Fig. 4 / Table V.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Severity {
    /// Average IPC impact below 1 %.
    VeryLow,
    /// 1–5 %.
    Low,
    /// 5–10 %.
    Medium,
    /// 10 % or more.
    High,
}

impl Severity {
    /// Grades a relative impact (`0.07` = 7 % average IPC degradation).
    pub fn grade(impact: f64) -> Severity {
        if impact >= 0.10 {
            Severity::High
        } else if impact >= 0.05 {
            Severity::Medium
        } else if impact >= 0.01 {
            Severity::Low
        } else {
            Severity::VeryLow
        }
    }

    /// Display label.
    pub fn label(&self) -> &'static str {
        match self {
            Severity::VeryLow => "Very Low",
            Severity::Low => "Low",
            Severity::Medium => "Medium",
            Severity::High => "High",
        }
    }

    /// All buckets, mildest first.
    pub fn all() -> [Severity; 4] {
        [
            Severity::VeryLow,
            Severity::Low,
            Severity::Medium,
            Severity::High,
        ]
    }
}

/// The core bug catalogue: a list of concrete bug variants.
#[derive(Debug, Clone, PartialEq)]
pub struct BugCatalog {
    variants: Vec<BugSpec>,
}

impl BugCatalog {
    /// Builds a catalogue from explicit variants.
    ///
    /// # Panics
    ///
    /// Panics if `variants` is empty.
    pub fn new(variants: Vec<BugSpec>) -> Self {
        assert!(!variants.is_empty(), "catalogue cannot be empty");
        BugCatalog { variants }
    }

    /// The full default catalogue: three variants of each of the 14 types
    /// (42 bugs), spanning rare-opcode to common-opcode and mild to severe
    /// parameterisations.
    pub fn core_full() -> Self {
        use BugSpec::*;
        use Opcode::*;
        BugCatalog::new(vec![
            // 1: Serialize X.
            SerializeOpcode { x: Xor },
            SerializeOpcode { x: Sub },
            SerializeOpcode { x: FpMul },
            // 2: Issue X only if oldest.
            IssueOnlyIfOldest { x: Popcnt },
            IssueOnlyIfOldest { x: Xor },
            IssueOnlyIfOldest { x: Load },
            // 3: If X is oldest, issue only X.
            IfOldestIssueOnlyX { x: Xor },
            IfOldestIssueOnlyX { x: Add },
            IfOldestIssueOnlyX { x: FpAdd },
            // 4: If X depends on Y, delay T.
            DelayIfDependsOn {
                x: Add,
                y: Load,
                t: 8,
            },
            DelayIfDependsOn {
                x: Sub,
                y: Mul,
                t: 20,
            },
            DelayIfDependsOn {
                x: FpMul,
                y: FpAdd,
                t: 6,
            },
            // 5: IQ below N, delay T.
            IqBelowDelay { n: 4, t: 2 },
            IqBelowDelay { n: 8, t: 6 },
            IqBelowDelay { n: 16, t: 12 },
            // 6: ROB below N, delay T.
            RobBelowDelay { n: 8, t: 2 },
            RobBelowDelay { n: 16, t: 6 },
            RobBelowDelay { n: 24, t: 12 },
            // 7: Mispredict extra delay.
            MispredictExtraDelay { t: 4 },
            MispredictExtraDelay { t: 12 },
            MispredictExtraDelay { t: 30 },
            // 8: N stores to line, delay T.
            StoresToLineDelay { n: 8, t: 4 },
            StoresToLineDelay { n: 4, t: 12 },
            StoresToLineDelay { n: 2, t: 30 },
            // 9: N writes to register, delay T.
            WritesToRegDelay {
                n: 64,
                t: 4,
                periodic: false,
            },
            WritesToRegDelay {
                n: 16,
                t: 10,
                periodic: false,
            },
            WritesToRegDelay {
                n: 32,
                t: 6,
                periodic: true,
            },
            // 10: L2 latency + T.
            L2ExtraLatency { t: 2 },
            L2ExtraLatency { t: 8 },
            L2ExtraLatency { t: 24 },
            // 11: Fewer physical registers.
            FewerPhysRegs { n: 64 },
            FewerPhysRegs { n: 160 },
            FewerPhysRegs { n: 280 },
            // 12: Branch longer than N bytes, delay T.
            LongBranchDelay { bytes: 6, t: 4 },
            LongBranchDelay { bytes: 4, t: 10 },
            LongBranchDelay { bytes: 5, t: 20 },
            // 13: X uses register R, delay T.
            OpcodeUsesRegDelay {
                x: Add,
                r: 0,
                t: 10,
            },
            OpcodeUsesRegDelay {
                x: Load,
                r: 3,
                t: 8,
            },
            OpcodeUsesRegDelay {
                x: Xor,
                r: 1,
                t: 20,
            },
            // 14: Predictor index mask.
            BtbIndexMask { lost_bits: 4 },
            BtbIndexMask { lost_bits: 8 },
            BtbIndexMask { lost_bits: 12 },
        ])
    }

    /// The extended catalogue: [`BugCatalog::core_full`] plus three
    /// variants of each extension type (15: TLB/page-walk latency, 16:
    /// issue replay), 48 bugs in all. Paper-faithful experiments keep
    /// `core_full`; the fuzzer and the per-family evaluation harness draw
    /// from here.
    pub fn core_extended() -> Self {
        use BugSpec::*;
        let mut variants = Self::core_full().variants;
        variants.extend([
            // 15: Data TLB holds N pages, misses walk T cycles.
            TlbPageWalkDelay { entries: 64, t: 10 },
            TlbPageWalkDelay { entries: 16, t: 30 },
            TlbPageWalkDelay { entries: 4, t: 60 },
            // 16: Every N-th issue grant squashed, replay after T cycles.
            IssueReplayEveryN { n: 64, t: 4 },
            IssueReplayEveryN { n: 16, t: 8 },
            IssueReplayEveryN { n: 4, t: 16 },
        ]);
        BugCatalog::new(variants)
    }

    /// A reduced catalogue (one mid-severity variant per type) for quick
    /// runs and tests.
    pub fn core_small() -> Self {
        use BugSpec::*;
        use Opcode::*;
        BugCatalog::new(vec![
            SerializeOpcode { x: Sub },
            IssueOnlyIfOldest { x: Xor },
            IfOldestIssueOnlyX { x: Xor },
            DelayIfDependsOn {
                x: Add,
                y: Load,
                t: 12,
            },
            IqBelowDelay { n: 8, t: 6 },
            RobBelowDelay { n: 16, t: 6 },
            MispredictExtraDelay { t: 12 },
            StoresToLineDelay { n: 4, t: 12 },
            WritesToRegDelay {
                n: 16,
                t: 10,
                periodic: false,
            },
            L2ExtraLatency { t: 8 },
            FewerPhysRegs { n: 160 },
            LongBranchDelay { bytes: 4, t: 10 },
            OpcodeUsesRegDelay {
                x: Add,
                r: 0,
                t: 10,
            },
            BtbIndexMask { lost_bits: 8 },
        ])
    }

    /// All variants in catalogue order.
    pub fn variants(&self) -> &[BugSpec] {
        &self.variants
    }

    /// Number of variants.
    pub fn len(&self) -> usize {
        self.variants.len()
    }

    /// Whether the catalogue is empty (never true after construction).
    pub fn is_empty(&self) -> bool {
        self.variants.is_empty()
    }

    /// The distinct bug-type ids present, ascending.
    pub fn type_ids(&self) -> Vec<u32> {
        let mut ids: Vec<u32> = self.variants.iter().map(BugSpec::type_id).collect();
        ids.sort_unstable();
        ids.dedup();
        ids
    }

    /// Indices of the variants belonging to one type.
    pub fn variants_of_type(&self, type_id: u32) -> Vec<usize> {
        self.variants
            .iter()
            .enumerate()
            .filter(|(_, b)| b.type_id() == type_id)
            .map(|(i, _)| i)
            .collect()
    }
}

/// The memory-system bug catalogue (§IV-D).
#[derive(Debug, Clone)]
pub struct MemBugCatalog {
    variants: Vec<MemBugSpec>,
}

impl MemBugCatalog {
    /// Builds a catalogue from explicit variants.
    ///
    /// # Panics
    ///
    /// Panics if `variants` is empty.
    pub fn new(variants: Vec<MemBugSpec>) -> Self {
        assert!(!variants.is_empty(), "catalogue cannot be empty");
        MemBugCatalog { variants }
    }

    /// The default memory catalogue: the six types of §IV-D with level /
    /// parameter variants (10 bugs).
    pub fn full() -> Self {
        use MemBugSpec::*;
        MemBugCatalog {
            variants: vec![
                NoAgeUpdate {
                    level: CacheLevel::L1d,
                },
                NoAgeUpdate {
                    level: CacheLevel::L2,
                },
                EvictMru {
                    level: CacheLevel::L1d,
                },
                EvictMru {
                    level: CacheLevel::L2,
                },
                MissesDelay {
                    level: CacheLevel::L1d,
                    n: 500,
                    t: 4,
                },
                MissesDelay {
                    level: CacheLevel::L2,
                    n: 200,
                    t: 20,
                },
                SppSignatureReset,
                SppLeastConfidence,
                SppDroppedPrefetch { n: 2 },
                SppDroppedPrefetch { n: 6 },
            ],
        }
    }

    /// The extended memory catalogue: [`MemBugCatalog::full`] plus
    /// variants of the extension types (7: prefetcher degree/stride
    /// pathology, 8: DRAM page-close regression), 14 bugs in all.
    pub fn extended() -> Self {
        use MemBugSpec::*;
        let mut cat = Self::full();
        cat.variants.extend([
            // 7: SPP degree forced / stride skewed.
            SppDegreeStride { degree: 8, skew: 0 },
            SppDegreeStride {
                degree: 8,
                skew: -2,
            },
            // 8: DRAM forced page-close.
            DramPageCloseDelay { t: 12 },
            DramPageCloseDelay { t: 40 },
        ]);
        cat
    }

    /// All variants in catalogue order.
    pub fn variants(&self) -> &[MemBugSpec] {
        &self.variants
    }

    /// Number of variants.
    pub fn len(&self) -> usize {
        self.variants.len()
    }

    /// Whether the catalogue is empty.
    pub fn is_empty(&self) -> bool {
        self.variants.is_empty()
    }

    /// The distinct bug-type ids present, ascending.
    pub fn type_ids(&self) -> Vec<u32> {
        let mut ids: Vec<u32> = self.variants.iter().map(MemBugSpec::type_id).collect();
        ids.sort_unstable();
        ids.dedup();
        ids
    }

    /// Indices of the variants belonging to one type.
    pub fn variants_of_type(&self, type_id: u32) -> Vec<usize> {
        self.variants
            .iter()
            .enumerate()
            .filter(|(_, b)| b.type_id() == type_id)
            .map(|(i, _)| i)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn severity_grading_boundaries() {
        assert_eq!(Severity::grade(0.005), Severity::VeryLow);
        assert_eq!(Severity::grade(0.01), Severity::Low);
        assert_eq!(Severity::grade(0.049), Severity::Low);
        assert_eq!(Severity::grade(0.05), Severity::Medium);
        assert_eq!(Severity::grade(0.10), Severity::High);
        assert_eq!(Severity::grade(0.5), Severity::High);
    }

    #[test]
    fn full_catalogue_covers_all_types() {
        let cat = BugCatalog::core_full();
        assert_eq!(cat.len(), 42);
        assert_eq!(cat.type_ids(), (1..=14).collect::<Vec<u32>>());
        for t in cat.type_ids() {
            assert_eq!(cat.variants_of_type(t).len(), 3);
        }
    }

    #[test]
    fn small_catalogue_one_variant_per_type() {
        let cat = BugCatalog::core_small();
        assert_eq!(cat.len(), 14);
        assert_eq!(cat.type_ids(), (1..=14).collect::<Vec<u32>>());
    }

    #[test]
    fn memory_catalogue_covers_six_types() {
        let cat = MemBugCatalog::full();
        assert_eq!(cat.type_ids(), vec![1, 2, 3, 4, 5, 6]);
        assert_eq!(cat.len(), 10);
    }

    #[test]
    fn extended_catalogues_add_new_families_without_touching_paper_ones() {
        let core = BugCatalog::core_extended();
        assert_eq!(core.len(), 48);
        assert_eq!(core.type_ids(), (1..=16).collect::<Vec<u32>>());
        assert_eq!(
            core.variants()[..42],
            BugCatalog::core_full().variants()[..],
            "extension must be a strict superset of the paper catalogue"
        );
        let mem = MemBugCatalog::extended();
        assert_eq!(mem.len(), 14);
        assert_eq!(mem.type_ids(), (1..=8).collect::<Vec<u32>>());
        assert_eq!(mem.variants()[..10], MemBugCatalog::full().variants()[..]);
    }
}
