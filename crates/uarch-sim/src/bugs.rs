//! The configurable core performance-bug types: the fourteen of §IV-C
//! plus two extension families (15: TLB/page-walk latency, 16: issue
//! replay/scheduler livelock) grown past the paper's catalogue.
//!
//! Each bug is purely a *timing* defect: the executed instruction stream is
//! unchanged, only when things happen differs. Variants are produced by
//! instantiating the parameters (`X`, `Y`, `N`, `T`, `R`) — the paper's
//! device for generating bugs of arbitrary severity.

use perfbug_workloads::{Opcode, Reg};

/// One injected core performance bug (at most one per simulation, matching
/// the paper's protocol).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum BugSpec {
    /// Bug 1 — every instruction with opcode `x` is treated as
    /// serialising: it issues only once all older instructions have
    /// issued, and younger instructions stall until it has issued (the
    /// semantics of the motivating "sub marked synchronising" bug of
    /// Fig. 1).
    SerializeOpcode {
        /// The affected opcode.
        x: Opcode,
    },
    /// Bug 2 — instructions with opcode `x` issue only once they are the
    /// oldest instruction in the instruction queue (cf. Intel POPCNT
    /// erratum).
    IssueOnlyIfOldest {
        /// The affected opcode.
        x: Opcode,
    },
    /// Bug 3 — when an instruction with opcode `x` is the oldest in the
    /// queue, only that instruction may issue that cycle.
    IfOldestIssueOnlyX {
        /// The affected opcode.
        x: Opcode,
    },
    /// Bug 4 — if an `x` instruction depends on a `y` instruction, its
    /// issue is delayed by `t` cycles.
    DelayIfDependsOn {
        /// Consumer opcode.
        x: Opcode,
        /// Producer opcode.
        y: Opcode,
        /// Extra delay in cycles.
        t: u32,
    },
    /// Bug 5 — instructions dispatched while fewer than `n` instruction
    /// queue slots are free are delayed by `t` cycles.
    IqBelowDelay {
        /// Free-slot threshold.
        n: u32,
        /// Extra delay in cycles.
        t: u32,
    },
    /// Bug 6 — instructions renamed while fewer than `n` re-order buffer
    /// slots are free are delayed by `t` cycles.
    RobBelowDelay {
        /// Free-slot threshold.
        n: u32,
        /// Extra delay in cycles.
        t: u32,
    },
    /// Bug 7 — mispredicted branches incur an extra `t`-cycle redirect
    /// penalty.
    MispredictExtraDelay {
        /// Extra penalty in cycles.
        t: u32,
    },
    /// Bug 8 — after `n` stores to the same cache line, subsequent stores
    /// to that line are delayed by `t` cycles (cf. MPC7448 store-gathering
    /// erratum).
    StoresToLineDelay {
        /// Store-count threshold per line.
        n: u32,
        /// Extra delay in cycles.
        t: u32,
    },
    /// Bug 9 — after `n` writes to the same physical register, writes to
    /// it are delayed by `t` cycles; the `periodic` variant delays only
    /// every `n`-th write (cf. TI AM3517 GPMC erratum, generalised).
    WritesToRegDelay {
        /// Write-count threshold per physical register.
        n: u32,
        /// Extra delay in cycles.
        t: u32,
        /// Delay once every `n` writes instead of every write past `n`.
        periodic: bool,
    },
    /// Bug 10 — L2 hit latency increased by `t` cycles (cf. MPC7448 L2
    /// latency erratum).
    L2ExtraLatency {
        /// Extra latency in cycles.
        t: u32,
    },
    /// Bug 11 — `n` fewer physical registers are available for renaming.
    FewerPhysRegs {
        /// Registers removed from the pool.
        n: u32,
    },
    /// Bug 12 — branches whose encoding exceeds `bytes` bytes are delayed
    /// by `t` cycles at execution.
    LongBranchDelay {
        /// Encoded-size threshold in bytes.
        bytes: u8,
        /// Extra delay in cycles.
        t: u32,
    },
    /// Bug 13 — instructions with opcode `x` reading or writing
    /// architectural register `r` are delayed by `t` cycles (cf. Intel 386
    /// POPA/POPAD erratum).
    OpcodeUsesRegDelay {
        /// The affected opcode.
        x: Opcode,
        /// The architectural register.
        r: Reg,
        /// Extra delay in cycles.
        t: u32,
    },
    /// Bug 14 — the branch predictor's index function loses `lost_bits`
    /// index bits, shrinking the effective table by `2^lost_bits`.
    BtbIndexMask {
        /// Index bits masked away.
        lost_bits: u32,
    },
    /// Bug 15 — the data TLB behaves as if it held only `entries` page
    /// translations (direct-mapped); every miss pays a `t`-cycle page
    /// walk on the load/store path. Models a TLB-sizing or page-walk
    /// latency regression invisible to the retired instruction stream.
    TlbPageWalkDelay {
        /// Effective data-TLB capacity in pages.
        entries: u32,
        /// Page-walk penalty in cycles per TLB miss.
        t: u32,
    },
    /// Bug 16 — the scheduler spuriously squashes every `n`-th issue
    /// grant and replays the instruction `t` cycles later; the squashed
    /// grant still occupies its issue port for the cycle (a bounded
    /// replay-storm / scheduler-livelock pathology).
    IssueReplayEveryN {
        /// Squash every `n`-th issue grant.
        n: u32,
        /// Cycles before the squashed instruction may re-issue.
        t: u32,
    },
}

impl BugSpec {
    /// The paper's bug-type number (1–14).
    pub fn type_id(&self) -> u32 {
        match self {
            BugSpec::SerializeOpcode { .. } => 1,
            BugSpec::IssueOnlyIfOldest { .. } => 2,
            BugSpec::IfOldestIssueOnlyX { .. } => 3,
            BugSpec::DelayIfDependsOn { .. } => 4,
            BugSpec::IqBelowDelay { .. } => 5,
            BugSpec::RobBelowDelay { .. } => 6,
            BugSpec::MispredictExtraDelay { .. } => 7,
            BugSpec::StoresToLineDelay { .. } => 8,
            BugSpec::WritesToRegDelay { .. } => 9,
            BugSpec::L2ExtraLatency { .. } => 10,
            BugSpec::FewerPhysRegs { .. } => 11,
            BugSpec::LongBranchDelay { .. } => 12,
            BugSpec::OpcodeUsesRegDelay { .. } => 13,
            BugSpec::BtbIndexMask { .. } => 14,
            BugSpec::TlbPageWalkDelay { .. } => 15,
            BugSpec::IssueReplayEveryN { .. } => 16,
        }
    }

    /// Short type name matching the paper's terminology.
    pub fn type_name(&self) -> &'static str {
        match self {
            BugSpec::SerializeOpcode { .. } => "SerializeX",
            BugSpec::IssueOnlyIfOldest { .. } => "IssueXOnlyIfOldest",
            BugSpec::IfOldestIssueOnlyX { .. } => "IfOldestIssueOnlyX",
            BugSpec::DelayIfDependsOn { .. } => "IfXDependsOnYDelayT",
            BugSpec::IqBelowDelay { .. } => "IqBelowNDelayT",
            BugSpec::RobBelowDelay { .. } => "RobBelowNDelayT",
            BugSpec::MispredictExtraDelay { .. } => "MispredictDelayT",
            BugSpec::StoresToLineDelay { .. } => "NStoresToLineDelayT",
            BugSpec::WritesToRegDelay { .. } => "NWritesToRegDelayT",
            BugSpec::L2ExtraLatency { .. } => "L2LatencyPlusT",
            BugSpec::FewerPhysRegs { .. } => "FewerRegsN",
            BugSpec::LongBranchDelay { .. } => "IfBranchLongerNDelayT",
            BugSpec::OpcodeUsesRegDelay { .. } => "IfXUsesRegNDelayT",
            BugSpec::BtbIndexMask { .. } => "BpIndexMaskN",
            BugSpec::TlbPageWalkDelay { .. } => "TlbPageWalkDelayT",
            BugSpec::IssueReplayEveryN { .. } => "ReplayEveryNDelayT",
        }
    }

    /// Full human-readable variant description.
    pub fn describe(&self) -> String {
        match self {
            BugSpec::SerializeOpcode { x } => format!("Serialize {x:?}"),
            BugSpec::IssueOnlyIfOldest { x } => format!("Issue {x:?} only if oldest"),
            BugSpec::IfOldestIssueOnlyX { x } => format!("If {x:?} is oldest, issue only {x:?}"),
            BugSpec::DelayIfDependsOn { x, y, t } => {
                format!("If {x:?} depends on {y:?}, delay {t} cycles")
            }
            BugSpec::IqBelowDelay { n, t } => {
                format!("If less than {n} IQ slots free, delay {t} cycles")
            }
            BugSpec::RobBelowDelay { n, t } => {
                format!("If less than {n} ROB slots free, delay {t} cycles")
            }
            BugSpec::MispredictExtraDelay { t } => {
                format!("If mispredicted branch, delay {t} cycles")
            }
            BugSpec::StoresToLineDelay { n, t } => {
                format!("If {n} stores to cache line, delay {t} cycles")
            }
            BugSpec::WritesToRegDelay { n, t, periodic } => format!(
                "After {n} writes to the same register, delay {t} cycles{}",
                if *periodic { " (once every N)" } else { "" }
            ),
            BugSpec::L2ExtraLatency { t } => format!("L2 latency increased by {t} cycles"),
            BugSpec::FewerPhysRegs { n } => format!("Available registers reduced by {n}"),
            BugSpec::LongBranchDelay { bytes, t } => {
                format!("If branch longer than {bytes} bytes, delay {t} cycles")
            }
            BugSpec::OpcodeUsesRegDelay { x, r, t } => {
                format!("If {x:?} uses register {r}, delay {t} cycles")
            }
            BugSpec::BtbIndexMask { lost_bits } => {
                format!("Branch predictor index loses {lost_bits} bits")
            }
            BugSpec::TlbPageWalkDelay { entries, t } => {
                format!("Data TLB holds {entries} pages, misses walk {t} cycles")
            }
            BugSpec::IssueReplayEveryN { n, t } => {
                format!("Every {n}-th issue grant squashed, replay after {t} cycles")
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
            BugSpec::SerializeOpcode { x: Opcode::Xor },
            BugSpec::IssueOnlyIfOldest { x: Opcode::Popcnt },
            BugSpec::IfOldestIssueOnlyX { x: Opcode::Xor },
            BugSpec::DelayIfDependsOn {
                x: Opcode::Add,
                y: Opcode::Load,
                t: 4,
            },
            BugSpec::IqBelowDelay { n: 4, t: 3 },
            BugSpec::RobBelowDelay { n: 8, t: 3 },
            BugSpec::MispredictExtraDelay { t: 10 },
            BugSpec::StoresToLineDelay { n: 4, t: 8 },
            BugSpec::WritesToRegDelay {
                n: 16,
                t: 4,
                periodic: false,
            },
            BugSpec::L2ExtraLatency { t: 6 },
            BugSpec::FewerPhysRegs { n: 32 },
            BugSpec::LongBranchDelay { bytes: 6, t: 5 },
            BugSpec::OpcodeUsesRegDelay {
                x: Opcode::Add,
                r: 0,
                t: 10,
            },
            BugSpec::BtbIndexMask { lost_bits: 8 },
            BugSpec::TlbPageWalkDelay { entries: 16, t: 30 },
            BugSpec::IssueReplayEveryN { n: 8, t: 6 },
        ];
        let ids: Vec<u32> = bugs.iter().map(BugSpec::type_id).collect();
        assert_eq!(ids, (1..=16).collect::<Vec<u32>>());
        for b in &bugs {
            assert!(!b.describe().is_empty());
            assert!(!b.type_name().is_empty());
        }
    }
}
