//! Synthetic program model and deterministic trace walker.
//!
//! A [`Program`] is a phase-structured control-flow graph of basic blocks
//! with baked-in opcode mixes, register dependence patterns and memory
//! streams. Walking it yields an infinite, deterministic dynamic
//! instruction trace ([`Inst`] stream) with recurring phase behaviour —
//! exactly the structure SimPoint-style interval clustering needs.
//!
//! The model replaces the SPEC CPU2006 binaries of the paper: what the
//! methodology consumes is not SPEC itself but *long workloads with
//! distinct, recurring, performance-orthogonal phases*, which this module
//! synthesises under full control.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::isa::{Inst, Opcode, Reg, FP_REG_BASE, NO_REG};

/// A memory access stream: loads/stores walk a working set with a stride.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemStreamSpec {
    /// Access stride in bytes; `0` means uniformly random within the
    /// working set (pointer-chasing behaviour).
    pub stride: u32,
    /// Working-set size in bytes (power of two recommended).
    pub working_set: u32,
}

/// Statistical description of one program phase.
///
/// A phase is lowered at build time into `n_blocks` concrete basic blocks
/// whose instructions, registers and branch structure are fixed; only
/// memory-stream positions and data-dependent branch outcomes evolve at
/// walk time.
#[derive(Debug, Clone)]
pub struct PhaseSpec {
    /// Relative weights of computational opcodes (loads/stores/branches are
    /// governed by the fractions below and must not appear here).
    pub mix: Vec<(Opcode, f64)>,
    /// Fraction of instructions that are loads.
    pub load_frac: f64,
    /// Fraction of instructions that are stores.
    pub store_frac: f64,
    /// Fraction of conditional-branch block endings that are data-dependent
    /// (hard to predict) rather than loop-style (predictable).
    pub chaotic_branch_frac: f64,
    /// Fraction of block endings that are indirect branches.
    pub indirect_frac: f64,
    /// Number of distinct basic blocks lowered for this phase.
    pub n_blocks: usize,
    /// Mean basic-block length in instructions (min 3).
    pub block_len: usize,
    /// Memory streams available to this phase.
    pub streams: Vec<MemStreamSpec>,
    /// Maximum register-dependence distance when wiring sources to recent
    /// producers (1 = chain every instruction to its predecessor).
    pub dep_distance: usize,
}

impl Default for PhaseSpec {
    fn default() -> Self {
        PhaseSpec {
            mix: vec![(Opcode::Add, 1.0)],
            load_frac: 0.2,
            store_frac: 0.1,
            chaotic_branch_frac: 0.2,
            indirect_frac: 0.0,
            n_blocks: 8,
            block_len: 12,
            streams: vec![MemStreamSpec {
                stride: 8,
                working_set: 1 << 14,
            }],
            dep_distance: 4,
        }
    }
}

/// How a block-ending branch resolves at walk time.
#[derive(Debug, Clone, Copy, PartialEq)]
enum BranchBehavior {
    /// Taken `trip - 1` consecutive times, then not taken once (loop).
    Loop {
        /// Loop trip count.
        trip: u32,
    },
    /// Taken with probability `p` independently each execution.
    Chaotic {
        /// Probability of being taken.
        p: f64,
    },
    /// Indirect: target chosen uniformly among the successors.
    Indirect,
    /// Unconditional jump to the taken successor.
    Always,
}

#[derive(Debug, Clone, Copy)]
struct TemplInst {
    opcode: Opcode,
    size: u8,
    src1: Reg,
    src2: Reg,
    dst: Reg,
    /// Stream index for memory ops ([`NO_STREAM`] otherwise).
    stream: u8,
}

/// [`TemplInst::stream`] of an instruction that is not a memory op.
const NO_STREAM: u8 = u8::MAX;

/// One lowered basic block.
#[derive(Debug, Clone)]
struct Block {
    pc_base: u32,
    body: Vec<TemplInst>,
    /// Stream index of each memory op in `body`, in order.
    mem_ops: Vec<u8>,
    branch_size: u8,
    behavior: BranchBehavior,
    /// Block index (within the phase) on the taken path.
    succ_taken: usize,
    /// Block index on the fall-through path.
    succ_not: usize,
    /// Extra indirect targets (for [`BranchBehavior::Indirect`]).
    extra_targets: Vec<usize>,
}

impl Block {
    /// Total encoded size in bytes (used to place the next block).
    fn byte_len(&self) -> u32 {
        self.body.iter().map(|t| t.size as u32).sum::<u32>() + self.branch_size as u32
    }
}

/// A memory stream as the walker advances it.
#[derive(Debug, Clone, Copy)]
struct Stream {
    stride: u32,
    /// Working set in bytes, at least 64.
    ws: u32,
    /// `ws - 1` when `ws` is a power of two (every suite working set is),
    /// so wrapping is a mask; `None` keeps `%` for any other size.
    mask: Option<u32>,
}

impl Stream {
    fn new(spec: &MemStreamSpec) -> Self {
        let ws = spec.working_set.max(64);
        Stream {
            stride: spec.stride,
            ws,
            mask: ws.is_power_of_two().then(|| ws - 1),
        }
    }

    /// Moves `st` on by one access and returns the accessed address. The
    /// new position is a uniform 8-byte-aligned draw from `rng` for a
    /// stride-0 stream, else `pos + stride` wrapped.
    fn step(&self, st: &mut StreamState, rng: &mut SmallRng) -> u32 {
        st.pos = if self.stride == 0 {
            let r = rng.gen::<u32>();
            match self.mask {
                Some(m) => (r & (m >> 3)) * 8,
                None => (r % (self.ws / 8)) * 8,
            }
        } else {
            let p = st.pos + self.stride;
            match self.mask {
                Some(m) => p & m,
                None => p % self.ws,
            }
        };
        st.base + st.pos
    }
}

#[derive(Debug, Clone)]
struct Phase {
    blocks: Vec<Block>,
    streams: Vec<Stream>,
    /// Global id of this phase's first block (for BBV indexing).
    first_block_id: usize,
}

/// One entry of a program's phase schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Segment {
    /// Phase index to execute.
    pub phase: usize,
    /// How many instructions to emit before moving on.
    pub insts: u64,
}

/// A fully lowered synthetic program.
#[derive(Debug, Clone)]
pub struct Program {
    name: String,
    phases: Vec<Phase>,
    schedule: Vec<Segment>,
    seed: u64,
    n_blocks: usize,
}

impl Program {
    /// Lowers phase specifications into a concrete program.
    ///
    /// `schedule` entries reference `specs` by index; the walker loops the
    /// schedule forever, so any trace length can be drawn.
    ///
    /// # Panics
    ///
    /// Panics if `specs` is empty, a schedule entry references a missing
    /// phase or has no instructions, or a phase has no blocks/streams
    /// where required.
    pub fn build(name: &str, specs: &[PhaseSpec], schedule: Vec<Segment>, seed: u64) -> Self {
        assert!(!specs.is_empty(), "a program needs at least one phase");
        assert!(!schedule.is_empty(), "a program needs a schedule");
        assert!(
            schedule.iter().all(|s| s.phase < specs.len()),
            "schedule references a phase out of range"
        );
        assert!(
            schedule.iter().all(|s| s.insts > 0),
            "schedule entries need at least one instruction"
        );
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x5eed_5eed);
        let mut phases = Vec::with_capacity(specs.len());
        let mut next_block_id = 0usize;
        for (pi, spec) in specs.iter().enumerate() {
            let phase = Self::lower_phase(pi, spec, next_block_id, &mut rng);
            next_block_id += phase.blocks.len();
            phases.push(phase);
        }
        Program {
            name: name.to_string(),
            phases,
            schedule,
            seed,
            n_blocks: next_block_id,
        }
    }

    fn lower_phase(
        pi: usize,
        spec: &PhaseSpec,
        first_block_id: usize,
        rng: &mut SmallRng,
    ) -> Phase {
        assert!(spec.n_blocks >= 2, "phase needs at least 2 blocks");
        assert!(!spec.streams.is_empty() || (spec.load_frac == 0.0 && spec.store_frac == 0.0));
        let mix_total: f64 = spec.mix.iter().map(|(_, w)| w).sum();
        assert!(
            mix_total > 0.0,
            "phase opcode mix must have positive weight"
        );

        let mut blocks = Vec::with_capacity(spec.n_blocks);
        // Ring of recent destination registers for dependence wiring.
        let mut recent: Vec<Reg> = vec![0, 1];
        let mut pc = 0x1000_0000 + (pi as u32) * 0x0010_0000;
        for bi in 0..spec.n_blocks {
            let len = (spec.block_len.max(3) as f64 * (0.6 + rng.gen::<f64>() * 0.8)) as usize;
            let len = len.max(3);
            let mut body = Vec::with_capacity(len);
            for k in 0..len {
                let r: f64 = rng.gen();
                let (opcode, stream) = if r < spec.load_frac {
                    (Opcode::Load, (rng.gen_range(0..spec.streams.len())) as u8)
                } else if r < spec.load_frac + spec.store_frac {
                    (Opcode::Store, (rng.gen_range(0..spec.streams.len())) as u8)
                } else {
                    let mut pick = rng.gen::<f64>() * mix_total;
                    let mut chosen = spec.mix[0].0;
                    for &(op, w) in &spec.mix {
                        if pick < w {
                            chosen = op;
                            break;
                        }
                        pick -= w;
                    }
                    (chosen, NO_STREAM)
                };
                let is_fp = matches!(
                    opcode,
                    Opcode::FpAdd | Opcode::FpMul | Opcode::FpDiv | Opcode::VecFp
                );
                let reg_base: Reg = if is_fp { FP_REG_BASE } else { 0 };
                // Wire sources to recent producers within dep_distance.
                let pick_src = |rng: &mut SmallRng, recent: &Vec<Reg>| -> Reg {
                    let d = rng
                        .gen_range(0..spec.dep_distance.max(1))
                        .min(recent.len() - 1);
                    recent[recent.len() - 1 - d]
                };
                let src1 = pick_src(rng, &recent);
                let src2 = if rng.gen::<f64>() < 0.6 {
                    pick_src(rng, &recent)
                } else {
                    NO_REG
                };
                let dst = if opcode == Opcode::Store {
                    NO_REG
                } else {
                    reg_base + rng.gen_range(0..14) as Reg
                };
                if let Some(d) = (dst != NO_REG).then_some(dst) {
                    recent.push(d);
                    if recent.len() > 16 {
                        recent.remove(0);
                    }
                }
                let size = match opcode {
                    Opcode::Load | Opcode::Store => rng.gen_range(3..=7),
                    Opcode::VecInt | Opcode::VecFp => rng.gen_range(4..=9),
                    _ => rng.gen_range(2..=5),
                } as u8;
                let _ = k;
                body.push(TemplInst {
                    opcode,
                    size,
                    src1,
                    src2,
                    dst,
                    stream,
                });
            }

            // Block-ending control flow.
            let behavior = if rng.gen::<f64>() < spec.indirect_frac {
                BranchBehavior::Indirect
            } else if rng.gen::<f64>() < spec.chaotic_branch_frac {
                // Data-dependent branches are biased but not fully
                // predictable (real hard branches mispredict a few percent
                // to ~25%, not 50%).
                let bias = 0.62 + rng.gen::<f64>() * 0.33;
                let p = if rng.gen::<bool>() { bias } else { 1.0 - bias };
                BranchBehavior::Chaotic { p }
            } else if bi + 1 == spec.n_blocks {
                // Last block always loops back so the phase is closed.
                BranchBehavior::Always
            } else {
                BranchBehavior::Loop {
                    trip: rng.gen_range(4..64),
                }
            };
            let succ_taken = if bi + 1 == spec.n_blocks {
                0
            } else {
                // Loop back a few blocks or stay local.
                bi.saturating_sub(rng.gen_range(0..4))
            };
            let succ_not = (bi + 1) % spec.n_blocks;
            let extra_targets = if matches!(behavior, BranchBehavior::Indirect) {
                (0..3).map(|_| rng.gen_range(0..spec.n_blocks)).collect()
            } else {
                Vec::new()
            };
            let branch_size = rng.gen_range(2..=8) as u8;
            let block = Block {
                pc_base: pc,
                mem_ops: body
                    .iter()
                    .map(|t| t.stream)
                    .filter(|&s| s != NO_STREAM)
                    .collect(),
                body,
                branch_size,
                behavior,
                succ_taken,
                succ_not,
                extra_targets,
            };
            pc += block.byte_len() + rng.gen_range(0..32);
            blocks.push(block);
        }
        Phase {
            blocks,
            streams: spec.streams.iter().map(Stream::new).collect(),
            first_block_id,
        }
    }

    /// Program name (benchmark identity).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Total number of lowered basic blocks across all phases (the BBV
    /// dimensionality).
    pub fn n_blocks(&self) -> usize {
        self.n_blocks
    }

    /// Total instructions in one pass of the schedule.
    pub fn schedule_len(&self) -> u64 {
        self.schedule.iter().map(|s| s.insts).sum()
    }

    /// Creates a fresh deterministic walker over this program's trace.
    pub fn walker(&self) -> Walker<'_> {
        Walker::new(self)
    }
}

/// Per-stream walk-time state.
#[derive(Debug, Clone)]
struct StreamState {
    base: u32,
    pos: u32,
}

/// Deterministic trace generator over a [`Program`].
///
/// The walker is an infinite iterator: the schedule loops forever. Use
/// [`Walker::skip`] to fast-forward to an interval of interest and
/// [`Walker::current_block`] to attribute emitted instructions to basic
/// blocks (for BBV profiling).
#[derive(Debug, Clone)]
pub struct Walker<'a> {
    program: &'a Program,
    rng: SmallRng,
    /// Index into the schedule.
    seg: usize,
    /// Instructions remaining in the current segment.
    seg_left: u64,
    /// Current block index within the current phase.
    block: usize,
    /// Per-(phase, block) loop counters.
    loop_counts: Vec<Vec<u32>>,
    /// Per-(phase, stream) positions.
    streams: Vec<Vec<StreamState>>,
    /// Instructions of the most recently lowered block, in program order.
    /// Filled only when some of them will be emitted (see `lower`).
    pending: Vec<Inst>,
    /// Length of the most recently lowered block.
    pending_len: usize,
    /// How many of its instructions have been consumed.
    cursor: usize,
    /// Global id of the block the pending instructions belong to.
    pending_block_id: usize,
}

impl<'a> Walker<'a> {
    fn new(program: &'a Program) -> Self {
        let loop_counts = program
            .phases
            .iter()
            .map(|p| vec![0u32; p.blocks.len()])
            .collect();
        let streams = program
            .phases
            .iter()
            .enumerate()
            .map(|(pi, p)| {
                p.streams
                    .iter()
                    .enumerate()
                    .map(|(si, _)| StreamState {
                        base: 0x4000_0000u32
                            .wrapping_add((pi as u32) << 24)
                            .wrapping_add((si as u32) << 20),
                        pos: 0,
                    })
                    .collect()
            })
            .collect();
        let seg_left = program.schedule[0].insts;
        Walker {
            program,
            rng: SmallRng::seed_from_u64(program.seed ^ 0x77a1_4e55),
            seg: 0,
            seg_left,
            block: 0,
            loop_counts,
            streams,
            pending: Vec::new(),
            pending_len: 0,
            cursor: 0,
            pending_block_id: 0,
        }
    }

    /// Global basic-block id of the most recently emitted instruction.
    pub fn current_block(&self) -> usize {
        self.pending_block_id
    }

    /// Emits the next dynamic instruction.
    pub fn next_inst(&mut self) -> Inst {
        if self.cursor == self.pending_len {
            self.lower(true);
        }
        if self.seg_left == 0 {
            self.advance_segment();
        }
        self.seg_left -= 1;
        let inst = self.pending[self.cursor];
        self.cursor += 1;
        inst
    }

    /// Fast-forwards the walker by `n` instructions, leaving it exactly
    /// where `n` calls to [`Walker::next_inst`] would.
    ///
    /// It moves a basic block at a time and builds instructions only for
    /// the block the skip ends inside, so its cost follows the number of
    /// blocks and memory operations passed, not the number of
    /// instructions. A block that straddles a segment boundary still
    /// comes from the old segment's phase, as it does instruction by
    /// instruction.
    pub fn skip(&mut self, n: u64) {
        let mut left = n;
        while left > 0 {
            left -= self.skip_run(left);
        }
    }

    /// Consumes the next `min(n, left in block, left in segment)`
    /// instructions and returns how many that was; they all belong to
    /// [`Walker::current_block`] afterwards. A block is lowered first if
    /// none is pending, with its instructions built only when `n` ends
    /// inside it.
    ///
    /// `n` must be positive.
    pub(crate) fn skip_run(&mut self, n: u64) -> u64 {
        debug_assert!(n > 0, "a run consumes at least one instruction");
        if self.cursor == self.pending_len {
            let (phase, block) = self.position();
            let len = self.program.phases[phase].blocks[block].body.len() + 1;
            self.lower(n < len as u64);
        }
        if self.seg_left == 0 {
            self.advance_segment();
        }
        let run = n
            .min((self.pending_len - self.cursor) as u64)
            .min(self.seg_left);
        self.cursor += run as usize;
        self.seg_left -= run;
        run
    }

    /// Collects the next `n` instructions into a vector.
    pub fn take_trace(&mut self, n: usize) -> Vec<Inst> {
        (0..n).map(|_| self.next_inst()).collect()
    }

    fn advance_segment(&mut self) {
        self.seg = (self.seg + 1) % self.program.schedule.len();
        self.seg_left = self.program.schedule[self.seg].insts;
        // Entering a (possibly different) phase: restart at its block 0 but
        // keep loop counters and stream positions so behaviour persists
        // across phase revisits.
        self.block = 0;
    }

    /// The (phase, block) indices the next lowered block comes from.
    fn position(&self) -> (usize, usize) {
        let phase = self.program.schedule[self.seg].phase;
        let block = self.block.min(self.program.phases[phase].blocks.len() - 1);
        (phase, block)
    }

    /// Lowers the current block and advances control flow: the one place
    /// a block's effects are applied. In order, those are one stream step
    /// per memory operation (an RNG draw for a stride-0 stream), then the
    /// branch's RNG draw (`Chaotic`, `Indirect`) or loop-counter update.
    ///
    /// With `build` the block's instructions are written to `pending`;
    /// without it only the walker's state advances, for a block that
    /// will be consumed whole and never read.
    fn lower(&mut self, build: bool) {
        let program = self.program;
        let (phase_idx, block_idx) = self.position();
        let phase = &program.phases[phase_idx];
        let block = &phase.blocks[block_idx];
        self.pending_block_id = phase.first_block_id + block_idx;
        self.pending_len = block.body.len() + 1;
        self.cursor = 0;
        self.pending.clear();

        let states = &mut self.streams[phase_idx];
        let mut pc = block.pc_base;
        if build {
            for t in &block.body {
                let mem_addr = if t.stream == NO_STREAM {
                    0
                } else {
                    let si = t.stream as usize;
                    phase.streams[si].step(&mut states[si], &mut self.rng)
                };
                self.pending.push(Inst {
                    pc,
                    mem_addr,
                    target: 0,
                    opcode: t.opcode,
                    size: t.size,
                    src1: t.src1,
                    src2: t.src2,
                    dst: t.dst,
                    taken: false,
                });
                pc += t.size as u32;
            }
        } else {
            for &si in &block.mem_ops {
                let si = si as usize;
                phase.streams[si].step(&mut states[si], &mut self.rng);
            }
        }

        // Resolve the block-ending control transfer.
        let (taken, next_block, opcode) = match block.behavior {
            BranchBehavior::Always => (true, block.succ_taken, Opcode::Jump),
            BranchBehavior::Loop { trip } => {
                let c = &mut self.loop_counts[phase_idx][block_idx];
                *c += 1;
                if *c >= trip {
                    *c = 0;
                    (false, block.succ_not, Opcode::Branch)
                } else {
                    (true, block.succ_taken, Opcode::Branch)
                }
            }
            BranchBehavior::Chaotic { p } => {
                if self.rng.gen::<f64>() < p {
                    (true, block.succ_taken, Opcode::Branch)
                } else {
                    (false, block.succ_not, Opcode::Branch)
                }
            }
            BranchBehavior::Indirect => {
                let pick = self.rng.gen_range(0..block.extra_targets.len() + 1);
                let target = if pick == 0 {
                    block.succ_taken
                } else {
                    block.extra_targets[pick - 1]
                };
                (true, target, Opcode::IndirectBranch)
            }
        };
        if build {
            self.pending.push(Inst {
                pc,
                mem_addr: 0,
                target: phase.blocks[next_block].pc_base,
                opcode,
                size: block.branch_size,
                src1: 0,
                src2: NO_REG,
                dst: NO_REG,
                taken,
            });
        }
        self.block = next_block;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::ALL_OPCODES;

    fn tiny_program(seed: u64) -> Program {
        let phase_a = PhaseSpec {
            mix: vec![(Opcode::Add, 2.0), (Opcode::Xor, 1.0)],
            ..PhaseSpec::default()
        };
        let phase_b = PhaseSpec {
            mix: vec![(Opcode::FpMul, 1.0), (Opcode::FpAdd, 1.0)],
            load_frac: 0.3,
            ..PhaseSpec::default()
        };
        Program::build(
            "tiny",
            &[phase_a, phase_b],
            vec![
                Segment {
                    phase: 0,
                    insts: 500,
                },
                Segment {
                    phase: 1,
                    insts: 500,
                },
            ],
            seed,
        )
    }

    #[test]
    fn walker_is_deterministic() {
        let p = tiny_program(7);
        let a: Vec<Inst> = p.walker().take_trace(2000);
        let b: Vec<Inst> = p.walker().take_trace(2000);
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let a: Vec<Inst> = tiny_program(1).walker().take_trace(1000);
        let b: Vec<Inst> = tiny_program(2).walker().take_trace(1000);
        assert_ne!(a, b);
    }

    #[test]
    fn schedule_switches_phases() {
        let p = tiny_program(3);
        let mut w = p.walker();
        // First segment: integer phase — no FP ops.
        let first: Vec<Inst> = w.take_trace(400);
        assert!(first
            .iter()
            .all(|i| !matches!(i.opcode, Opcode::FpMul | Opcode::FpAdd)));
        // Jump into the second segment and check FP ops appear.
        w.skip(200);
        let second: Vec<Inst> = w.take_trace(400);
        assert!(second
            .iter()
            .any(|i| matches!(i.opcode, Opcode::FpMul | Opcode::FpAdd)));
    }

    #[test]
    fn memory_ops_carry_addresses() {
        let p = tiny_program(4);
        let trace = p.walker().take_trace(3000);
        for i in &trace {
            if i.opcode.is_memory() {
                assert!(i.mem_addr >= 0x4000_0000);
            } else {
                assert_eq!(i.mem_addr, 0);
            }
            if i.opcode.is_control() {
                assert!(i.target >= 0x1000_0000);
            }
        }
    }

    #[test]
    fn block_ids_within_range() {
        let p = tiny_program(6);
        let mut w = p.walker();
        for _ in 0..5000 {
            w.next_inst();
            assert!(w.current_block() < p.n_blocks());
        }
    }

    #[test]
    fn build_validates_schedule() {
        let spec = PhaseSpec::default();
        let result = std::panic::catch_unwind(|| {
            Program::build(
                "bad",
                &[spec],
                vec![Segment {
                    phase: 3,
                    insts: 10,
                }],
                0,
            )
        });
        assert!(result.is_err());
    }

    #[test]
    fn opcode_mix_respected() {
        // A phase with only Popcnt compute ops must emit Popcnt (plus
        // memory/control glue) and nothing else exotic.
        let spec = PhaseSpec {
            mix: vec![(Opcode::Popcnt, 1.0)],
            load_frac: 0.1,
            store_frac: 0.0,
            ..PhaseSpec::default()
        };
        let p = Program::build(
            "popcnt",
            &[spec],
            vec![Segment {
                phase: 0,
                insts: 100,
            }],
            9,
        );
        let trace = p.walker().take_trace(1000);
        for i in trace {
            assert!(
                matches!(
                    i.opcode,
                    Opcode::Popcnt
                        | Opcode::Load
                        | Opcode::Branch
                        | Opcode::Jump
                        | Opcode::IndirectBranch
                ),
                "unexpected opcode {:?}",
                i.opcode
            );
            assert!(ALL_OPCODES.contains(&i.opcode));
        }
    }
}
