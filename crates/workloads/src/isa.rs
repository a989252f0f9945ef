//! The dynamic micro-op trace model shared by the simulators.
//!
//! Both the out-of-order core simulator (`perfbug-uarch`) and the memory
//! hierarchy simulator (`perfbug-memsim`) are trace driven: a workload is a
//! deterministic stream of [`Inst`] records carrying everything a timing
//! model needs (opcode class, register operands, effective address, branch
//! outcome and target, instruction size). Because performance bugs are
//! timing-only, the same trace is replayed on every microarchitecture and
//! every injected bug — exactly the property the paper relies on.

/// Architectural register identifier (`0..NUM_ARCH_REGS`).
pub type Reg = u8;

/// Number of architectural registers in the synthetic ISA
/// (16 integer + 16 floating-point).
pub const NUM_ARCH_REGS: usize = 32;

/// First floating-point register; `0..FP_REG_BASE` are integer registers.
pub const FP_REG_BASE: Reg = 16;

/// Sentinel meaning "no register operand".
pub const NO_REG: Reg = u8::MAX;

/// Micro-operation opcode classes of the synthetic ISA.
///
/// Granularity follows what the paper's bugs key on: bugs are parameterised
/// by opcode (`xor`, `sub`, …), so common x86-ish integer opcodes are
/// distinguished rather than collapsed into one ALU class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[repr(u8)]
pub enum Opcode {
    /// Integer addition (also covers `lea`-like address arithmetic).
    Add,
    /// Integer subtraction / comparison.
    Sub,
    /// Bitwise exclusive or.
    Xor,
    /// Bitwise and/or/not.
    Logic,
    /// Shifts and rotates.
    Shift,
    /// Integer multiply.
    Mul,
    /// Integer divide.
    Div,
    /// Population count.
    Popcnt,
    /// Floating-point add/sub/compare.
    FpAdd,
    /// Floating-point multiply.
    FpMul,
    /// Floating-point divide / sqrt.
    FpDiv,
    /// Integer SIMD operation.
    VecInt,
    /// Floating-point SIMD operation.
    VecFp,
    /// Memory load.
    Load,
    /// Memory store.
    Store,
    /// Conditional direct branch.
    Branch,
    /// Unconditional direct jump (includes calls and returns).
    Jump,
    /// Indirect branch/jump (target from a register).
    IndirectBranch,
    /// No-op / fence placeholder.
    Nop,
}

/// All opcodes, for iteration and bug-variant enumeration.
///
/// An opcode's index in this table is its opcode id in the PBCL corpus
/// format (`perfbug-core`'s `persist`, `docs/FORMAT.md`), so the table is
/// append-only: add new opcodes at the end and never reorder or remove
/// one, or existing corpora would decode to the wrong opcodes.
pub const ALL_OPCODES: [Opcode; 19] = [
    Opcode::Add,
    Opcode::Sub,
    Opcode::Xor,
    Opcode::Logic,
    Opcode::Shift,
    Opcode::Mul,
    Opcode::Div,
    Opcode::Popcnt,
    Opcode::FpAdd,
    Opcode::FpMul,
    Opcode::FpDiv,
    Opcode::VecInt,
    Opcode::VecFp,
    Opcode::Load,
    Opcode::Store,
    Opcode::Branch,
    Opcode::Jump,
    Opcode::IndirectBranch,
    Opcode::Nop,
];

/// Functional-unit class an opcode executes on (the paper's Table III port
/// pools are expressed in these classes).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FuClass {
    /// Simple integer ALU.
    IntAlu,
    /// Integer multiplier.
    IntMult,
    /// Divider (integer and FP divide share it, as in many real designs).
    Divider,
    /// Floating-point add/compare unit.
    FpUnit,
    /// Floating-point multiplier.
    FpMult,
    /// Vector/SIMD unit.
    Vector,
    /// Load port.
    Load,
    /// Store port.
    Store,
    /// Branch resolution unit.
    Branch,
}

impl Opcode {
    /// The functional-unit class this opcode executes on.
    pub fn fu_class(self) -> FuClass {
        match self {
            Opcode::Add
            | Opcode::Sub
            | Opcode::Xor
            | Opcode::Logic
            | Opcode::Shift
            | Opcode::Popcnt
            | Opcode::Nop => FuClass::IntAlu,
            Opcode::Mul => FuClass::IntMult,
            Opcode::Div => FuClass::Divider,
            Opcode::FpAdd => FuClass::FpUnit,
            Opcode::FpMul => FuClass::FpMult,
            Opcode::FpDiv => FuClass::Divider,
            Opcode::VecInt | Opcode::VecFp => FuClass::Vector,
            Opcode::Load => FuClass::Load,
            Opcode::Store => FuClass::Store,
            Opcode::Branch | Opcode::Jump | Opcode::IndirectBranch => FuClass::Branch,
        }
    }

    /// Whether this opcode transfers control.
    pub fn is_control(self) -> bool {
        matches!(self, Opcode::Branch | Opcode::Jump | Opcode::IndirectBranch)
    }

    /// Whether this opcode accesses memory.
    pub fn is_memory(self) -> bool {
        matches!(self, Opcode::Load | Opcode::Store)
    }
}

/// One dynamic instruction of a workload trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Inst {
    /// Program counter of this instruction.
    pub pc: u32,
    /// Effective address for loads/stores (0 otherwise).
    pub mem_addr: u32,
    /// Branch target for control instructions (0 otherwise).
    pub target: u32,
    /// Opcode class.
    pub opcode: Opcode,
    /// Encoded instruction length in bytes (1–15, x86-like).
    pub size: u8,
    /// First source register or [`NO_REG`].
    pub src1: Reg,
    /// Second source register or [`NO_REG`].
    pub src2: Reg,
    /// Destination register or [`NO_REG`].
    pub dst: Reg,
    /// For control instructions: whether the branch is taken.
    pub taken: bool,
}

impl Inst {
    /// A placeholder no-op at the given PC.
    pub fn nop(pc: u32) -> Self {
        Inst {
            pc,
            mem_addr: 0,
            target: 0,
            opcode: Opcode::Nop,
            size: 1,
            src1: NO_REG,
            src2: NO_REG,
            dst: NO_REG,
            taken: false,
        }
    }

    /// Source registers actually present, in order.
    pub fn sources(&self) -> impl Iterator<Item = Reg> + '_ {
        [self.src1, self.src2].into_iter().filter(|&r| r != NO_REG)
    }

    /// Destination register if present.
    pub fn dest(&self) -> Option<Reg> {
        (self.dst != NO_REG).then_some(self.dst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fu_classes_cover_all_opcodes() {
        for op in ALL_OPCODES {
            // Must not panic, and control/memory predicates are consistent.
            let fu = op.fu_class();
            if op.is_control() {
                assert_eq!(fu, FuClass::Branch);
            }
            if op == Opcode::Load {
                assert_eq!(fu, FuClass::Load);
            }
            if op == Opcode::Store {
                assert_eq!(fu, FuClass::Store);
            }
        }
    }

    #[test]
    fn nop_has_no_operands() {
        let n = Inst::nop(100);
        assert_eq!(n.sources().count(), 0);
        assert_eq!(n.dest(), None);
        assert_eq!(n.pc, 100);
    }

    #[test]
    fn inst_is_compact() {
        // The experiment runner streams millions of these; keep them small.
        assert!(std::mem::size_of::<Inst>() <= 24);
    }
}
