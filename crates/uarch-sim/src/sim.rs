//! The cycle-level out-of-order core timing model.
//!
//! Trace-driven analogue of gem5's O3CPU at the resource granularity the
//! paper's experiments exercise: a banked front end with branch prediction
//! and an L1I, rename with a finite physical register file, an issue queue
//! scheduled oldest-first onto Table III port/functional-unit pools, a
//! load/store path through a three-level cache hierarchy, and in-order
//! commit from a re-order buffer. All sixteen bug types (§IV-C's fourteen
//! plus the TLB and replay extensions) hook into this loop.
//!
//! # Idle-cycle jumps
//!
//! A *quiescent* cycle is one in which nothing commits, issues or is
//! squashed, nothing is renamed and nothing is fetched (so there is no
//! I-cache access and neither `fetch_resume_at` nor
//! `fetch_blocked_on_branch` changes). After such a cycle the pipeline
//! state differs only in `cycle`, and every stage decision compares
//! `cycle` against a recorded time. Each later cycle therefore repeats the
//! quiescent cycle's counter increments exactly until the earliest
//! pending event, the first recorded time still ahead of `cycle`:
//!
//! * the ROB head's `complete_at`;
//! * the first non-empty slot ahead in the wait calendar, which holds
//!   every unissued instruction whose producers have all issued and whose
//!   `ready_at` is still ahead (see below). That slot's cycle is at or
//!   before every entry's `ready_at`: an entry a lap or more ahead sits in
//!   a slot that comes round first, and stopping there only re-runs a
//!   quiescent cycle;
//! * the decode-pipe head's `ready_at`;
//! * `fetch_resume_at`;
//! * every non-pipelined divider's `div_busy_until`.
//!
//! An instruction with a producer still unissued contributes nothing. It can
//! become ready only when that producer issues, and an issue grant is
//! progress, so it never falls inside a skipped stretch. Whatever first
//! lets the producer issue is an event in this list (the producer's own
//! `ready_at` or a divider freeing up) or another issue grant, which is
//! progress too, so the jump still stops before the first cycle that
//! differs.
//!
//! The main loop jumps over that stretch, stopping one cycle short of the
//! event, the next sample boundary or the watchdog limit, whichever comes
//! first, and adds the skipped cycles' increments in one step. Sample rows
//! land on the same cycles with the same values as a cycle-by-cycle run,
//! and a deadlocked pipeline reaches the watchdog in one jump per sample.
//!
//! # Wakeup-driven issue
//!
//! Readiness is pushed, not polled. Rename gives each instruction a
//! `ready_at` (the cycle after rename, raised to the `complete_at` of each
//! producer that has already issued) and links it into the consumer list
//! of each producer that has not. When a producer issues, it walks that
//! list once: each consumer's `ready_at` rises to the producer's
//! `complete_at` and its count of unissued producers falls. Once the count
//! is zero the instruction waits in a calendar until `ready_at`.
//!
//! The calendar is a ring of `CALENDAR_SLOTS` (512) slots indexed by cycle,
//! each heading a list of ROB slots linked through `Slot::next_due`, so
//! scheduling allocates nothing, plus a bitmap of the non-empty slots.
//! An entry due a full span or more ahead sits in the slot of its due
//! cycle and is re-linked there each time an earlier lap comes round.
//! A bug-16 replay reschedules a squashed instruction the same way, at
//! `cycle + t`, and the slot records that due cycle in `ready_at`.
//!
//! The issue queue is a set of bitsets over ROB positions: instruction
//! `seq` sits at bit `seq & mask` of a ring of `max(rob_size, 64)` rounded
//! up to a power of two, so in-flight instructions never share a bit and
//! ring order from the ROB head is program order. `unissued` holds every
//! instruction in the IQ, `ready` those whose `ready_at` has passed and
//! `serial` the unissued serialising ones (bug 1). Each cycle `issue()`
//! drains the calendar slot of the current cycle into `ready` (a set, so
//! the order entries arrive in never matters) and visits only ready bits,
//! oldest first: the first `unissued` bit is the oldest unissued
//! instruction (bugs 2 and 3), and the first `serial` bit bounds the scan.
//! `next_event()` scans the bitmap for the first non-empty slot ahead.
//! Ports are bitmasks: each functional-unit class has a mask of the ports
//! that reach it, and the lowest free port in the first acceptable class
//! wins.

use std::collections::{HashMap, VecDeque};

use perfbug_memsim::LINE_BYTES;
use perfbug_workloads::{FuClass, Inst, Opcode, RowMatrix};

use crate::branch::BranchPredictor;
use crate::bugs::BugSpec;
use crate::cache::{AccessOutcome, Hierarchy};
use crate::config::MicroarchConfig;
use crate::counters::{Counter, CounterFile, N_COUNTERS};

/// Pipeline depth between fetch and rename, in cycles.
const DECODE_LATENCY: u64 = 3;
/// Front-end buffer capacity in multiples of the pipeline width.
const FRONTEND_BUFFER_FACTOR: usize = 8;

/// Result of simulating one probe trace on one design.
#[derive(Debug, Clone)]
pub struct ProbeRun {
    /// One feature row per time step (raw counter deltas + derived ratios,
    /// see [`crate::counters::counter_names`]), stored contiguously.
    pub counter_rows: RowMatrix,
    /// Per-step IPC (committed instructions per cycle within the step).
    pub ipc: Vec<f64>,
    /// Total simulated cycles.
    pub total_cycles: u64,
    /// Total committed instructions.
    pub total_insts: u64,
}

impl Default for ProbeRun {
    fn default() -> Self {
        Self::empty()
    }
}

impl ProbeRun {
    /// An empty run whose buffers are ready to be filled by
    /// [`simulate_into`].
    pub fn empty() -> Self {
        ProbeRun {
            counter_rows: RowMatrix::new(N_COUNTERS),
            ipc: Vec::new(),
            total_cycles: 0,
            total_insts: 0,
        }
    }

    /// Clears the run for reuse, retaining row and IPC buffer capacity.
    pub fn reset(&mut self) {
        self.counter_rows.clear();
        self.ipc.clear();
        self.total_cycles = 0;
        self.total_insts = 0;
    }

    /// Whole-run IPC.
    pub fn overall_ipc(&self) -> f64 {
        if self.total_cycles == 0 {
            0.0
        } else {
            self.total_insts as f64 / self.total_cycles as f64
        }
    }
}

/// End of a consumer edge list. Edge `2 * seq + i` is source `i` of the
/// instruction numbered `seq`.
const NO_EDGE: u64 = u64::MAX;

/// Slots in the wait calendar (see the module docs), a power of two: the
/// span of cycles ahead it covers without re-linking an entry.
const CALENDAR_SLOTS: usize = 512;

/// End of a calendar slot's list.
const NO_SEQ: u64 = u64::MAX;

/// Number of [`FuClass`] variants, `Branch` being the last (the index
/// range of the port masks).
const FU_CLASSES: usize = FuClass::Branch as usize + 1;

#[derive(Debug, Clone, Copy)]
struct Slot {
    inst: Inst,
    seq: u64,
    /// While producers are unissued: the max of the earliest cycle issue
    /// is permitted and the `complete_at` of every producer issued so far.
    /// The instruction is scheduled at it once the last producer issues.
    /// Once scheduled: the cycle it becomes ready to issue.
    ready_at: u64,
    /// While in the wait calendar: the next instruction in its slot's list.
    next_due: u64,
    /// Producers not yet issued (one per source edge, so at most two).
    pending: u8,
    /// Head of the list of edges from this instruction to its consumers.
    consumers: u64,
    /// For source `i`, the next edge in its producer's consumer list.
    next_edge: [u64; 2],
    /// Extra execution latency from bugs.
    extra_exec: u32,
    issued: bool,
    complete_at: u64,
    phys_reg: u32,
    serialized: bool,
    mispredicted: bool,
    /// Bug 16: this instruction's issue grant has already been squashed
    /// and replayed once (each grant is squashed at most once, so replay
    /// storms stay bounded and the watchdog is never tripped).
    replayed: bool,
}

/// A set of in-flight instructions: instruction `seq` is bit `seq & mask`
/// of a ring at least as large as the ROB (see the module docs).
#[derive(Debug, Clone)]
struct SeqSet {
    words: Vec<u64>,
    mask: u64,
}

impl SeqSet {
    /// An empty set over a ring of `ring` positions, a power of two of at
    /// least 64.
    fn new(ring: usize) -> Self {
        SeqSet {
            words: vec![0; ring / 64],
            mask: ring as u64 - 1,
        }
    }

    fn insert(&mut self, seq: u64) {
        let pos = seq & self.mask;
        self.words[(pos / 64) as usize] |= 1 << (pos % 64);
    }

    fn remove(&mut self, seq: u64) {
        let pos = seq & self.mask;
        self.words[(pos / 64) as usize] &= !(1 << (pos % 64));
    }

    fn contains(&self, seq: u64) -> bool {
        let pos = seq & self.mask;
        self.words[(pos / 64) as usize] >> (pos % 64) & 1 == 1
    }

    /// The first member in `from..end`, a window no wider than the ring.
    fn first_in(&self, from: u64, end: u64) -> Option<u64> {
        let mut seq = from;
        while seq < end {
            let pos = seq & self.mask;
            let bits = self.words[(pos / 64) as usize] >> (pos % 64);
            if bits != 0 {
                let found = seq + bits.trailing_zeros() as u64;
                return (found < end).then_some(found);
            }
            seq += 64 - pos % 64;
        }
        None
    }
}

/// Simulates `trace` on `cfg`, optionally with one injected bug, sampling
/// counters every `step_cycles` cycles.
///
/// # Panics
///
/// Panics if `step_cycles` is zero, the configuration is invalid, or the
/// pipeline fails to make forward progress (an internal error).
pub fn simulate(
    cfg: &MicroarchConfig,
    bug: Option<BugSpec>,
    trace: &[Inst],
    step_cycles: u64,
) -> ProbeRun {
    let mut run = ProbeRun::empty();
    simulate_into(cfg, bug, trace, step_cycles, &mut run);
    run
}

/// [`simulate`] into a caller-provided [`ProbeRun`], reusing its row and
/// IPC buffers. Callers that simulate many runs (throughput measurement,
/// benchmarks) recycle one `ProbeRun` and pay no per-run — let alone
/// per-step — row allocations once the buffers have grown to steady state.
///
/// # Panics
///
/// Same contract as [`simulate`].
pub fn simulate_into(
    cfg: &MicroarchConfig,
    bug: Option<BugSpec>,
    trace: &[Inst],
    step_cycles: u64,
    run: &mut ProbeRun,
) {
    assert!(step_cycles > 0, "step_cycles must be positive");
    cfg.validate();
    run.reset();
    assert_eq!(
        run.counter_rows.width(),
        N_COUNTERS,
        "ProbeRun row buffer must be sized for the counter file (use ProbeRun::empty)"
    );
    Pipeline::new(cfg, bug).run(trace, step_cycles, run);
}

struct Pipeline<'c> {
    cfg: &'c MicroarchConfig,
    bug: Option<BugSpec>,
    cycle: u64,
    counters: CounterFile,
    hierarchy: Hierarchy,
    predictor: BranchPredictor,
    // Front end.
    fetch_pos: usize,
    fetch_resume_at: u64,
    fetch_blocked_on_branch: bool,
    last_fetch_line: u32,
    decode_pipe: VecDeque<(u64, Inst, bool)>, // (ready_at, inst, mispredicted)
    // Back end.
    rob: VecDeque<Slot>,
    head_seq: u64,
    next_seq: u64,
    /// The issue queue (see the module docs): unissued instructions,
    /// those of them ready to issue and the serialising ones.
    unissued: SeqSet,
    ready: SeqSet,
    serial: SeqSet,
    /// The wait calendar (see the module docs): per slot, the first
    /// instruction of its list, and the set of non-empty slots, both
    /// indexed by cycle.
    due_heads: Vec<u64>,
    due_slots: SeqSet,
    /// Instructions in the IQ.
    iq_len: u32,
    lq_count: u32,
    sq_count: u32,
    free_regs: Vec<u32>,
    reg_write_counts: Vec<u32>,
    reg_map: [Option<(u64, Opcode)>; perfbug_workloads::NUM_ARCH_REGS],
    div_busy_until: Vec<u64>,
    /// Per [`FuClass`]: bit `p` is set if port `p` reaches that class.
    fu_ports: [u64; FU_CLASSES],
    /// Every port's bit.
    all_ports: u64,
    store_line_counts: HashMap<u32, u32>,
    mispredict_extra: u32,
    /// Bug 15: direct-mapped data-TLB page slots (`u64::MAX` = invalid)
    /// and the page-walk penalty.
    dtlb: Option<(Vec<u64>, u32)>,
    /// Bug 16: issue grants observed so far (squashed grants included).
    issue_grants: u64,
}

impl<'c> Pipeline<'c> {
    fn new(cfg: &'c MicroarchConfig, bug: Option<BugSpec>) -> Self {
        let mut phys_regs = cfg.phys_regs;
        let mut hierarchy = Hierarchy::new(cfg);
        let mut predictor = BranchPredictor::new(cfg.bp_table_bits, cfg.btb_entries);
        let mut mispredict_extra = 0;
        let mut dtlb = None;
        match bug {
            Some(BugSpec::FewerPhysRegs { n }) => {
                phys_regs = phys_regs.saturating_sub(n).max(cfg.rob_size / 2 + 1);
            }
            Some(BugSpec::L2ExtraLatency { t }) => hierarchy.l2_extra_latency = t,
            Some(BugSpec::BtbIndexMask { lost_bits }) => {
                predictor.set_index_mask_lost_bits(lost_bits);
            }
            Some(BugSpec::MispredictExtraDelay { t }) => mispredict_extra = t,
            Some(BugSpec::TlbPageWalkDelay { entries, t }) => {
                dtlb = Some((vec![u64::MAX; entries.max(1) as usize], t));
            }
            _ => {}
        }
        let mut fu_ports = [0u64; FU_CLASSES];
        for (p, pool) in cfg.ports.iter().enumerate() {
            for &fu in pool {
                fu_ports[fu as usize] |= 1 << p;
            }
        }
        let all_ports = fu_ports.iter().fold(0, |all, &mask| all | mask);
        let ring = (cfg.rob_size.max(64) as usize).next_power_of_two();
        Pipeline {
            cfg,
            bug,
            cycle: 0,
            counters: CounterFile::new(),
            hierarchy,
            predictor,
            fetch_pos: 0,
            fetch_resume_at: 0,
            fetch_blocked_on_branch: false,
            last_fetch_line: u32::MAX,
            decode_pipe: VecDeque::new(),
            rob: VecDeque::new(),
            head_seq: 0,
            next_seq: 0,
            unissued: SeqSet::new(ring),
            ready: SeqSet::new(ring),
            serial: SeqSet::new(ring),
            due_heads: vec![NO_SEQ; CALENDAR_SLOTS],
            due_slots: SeqSet::new(CALENDAR_SLOTS),
            iq_len: 0,
            lq_count: 0,
            sq_count: 0,
            free_regs: (0..phys_regs).collect(),
            reg_write_counts: vec![0; phys_regs as usize],
            reg_map: [None; perfbug_workloads::NUM_ARCH_REGS],
            div_busy_until: vec![0; cfg.ports.len()],
            fu_ports,
            all_ports,
            store_line_counts: HashMap::new(),
            mispredict_extra,
            dtlb,
            issue_grants: 0,
        }
    }

    fn run(mut self, trace: &[Inst], step_cycles: u64, out: &mut ProbeRun) {
        // Delta snapshots are plain value copies of the raw counter array;
        // sampled rows are appended straight into the output's
        // preallocated row matrix — the per-step path allocates nothing
        // once the output buffers reach steady state.
        let mut snapshot = self.counters.snapshot();
        let mut last_sample_cycle = 0u64;
        // Generous watchdog: no healthy or buggy configuration comes close.
        let max_cycles = 400 * trace.len() as u64 + 1_000_000;

        while self.fetch_pos < trace.len() || !self.rob.is_empty() || !self.decode_pipe.is_empty() {
            let before = self.counters.snapshot();
            self.cycle += 1;
            self.counters.inc(Counter::Cycles);
            // Every stage runs, in order; each reports whether it made
            // progress.
            let progress = [
                self.commit(),
                self.issue(),
                self.rename(),
                self.fetch(trace),
            ];
            self.counters
                .add(Counter::RobOccupancySum, self.rob.len() as u64);
            self.counters
                .add(Counter::IqOccupancySum, self.iq_len as u64);

            if self.cycle - last_sample_cycle == step_cycles {
                out.counter_rows
                    .push_row_with(|buf| self.counters.sample_row_into(&snapshot, buf));
                let committed = self.counters.get(Counter::CommittedInsts)
                    - snapshot.get(Counter::CommittedInsts);
                out.ipc.push(committed as f64 / step_cycles as f64);
                snapshot = self.counters.snapshot();
                last_sample_cycle = self.cycle;
            }
            assert!(
                self.cycle < max_cycles,
                "pipeline deadlock on {} at cycle {} (bug {:?})",
                self.cfg.name,
                self.cycle,
                self.bug
            );
            if !progress.contains(&true) {
                // Quiescent: the cycles up to the next event repeat this
                // one (see the module docs), so skip them.
                let until = self
                    .next_event()
                    .min(last_sample_cycle.saturating_add(step_cycles))
                    .min(max_cycles)
                    - 1;
                if until > self.cycle {
                    self.counters.repeat_delta(&before, until - self.cycle);
                    self.cycle = until;
                }
            }
        }
        // Keep a trailing partial step if it covers at least half a step.
        let leftover = self.cycle - last_sample_cycle;
        if leftover * 2 >= step_cycles && leftover > 0 {
            out.counter_rows
                .push_row_with(|buf| self.counters.sample_row_into(&snapshot, buf));
            let committed =
                self.counters.get(Counter::CommittedInsts) - snapshot.get(Counter::CommittedInsts);
            out.ipc.push(committed as f64 / leftover as f64);
        }
        out.total_cycles = self.cycle;
        out.total_insts = self.counters.get(Counter::CommittedInsts);
    }

    /// The earliest pending event of a quiescent pipeline: the first cycle
    /// after the current one at which any stage's decision can change
    /// (`u64::MAX` if none; see the module docs for the list).
    fn next_event(&self) -> u64 {
        let cycle = self.cycle;
        let ahead = |t: u64| if t > cycle { t } else { u64::MAX };
        let mut next = ahead(self.fetch_resume_at);
        if let Some(head) = self.rob.front() {
            next = next.min(ahead(head.complete_at));
        }
        if let Some(&(ready_at, ..)) = self.decode_pipe.front() {
            next = next.min(ahead(ready_at));
        }
        for &busy in &self.div_busy_until {
            next = next.min(ahead(busy));
        }
        let lap_end = cycle + 1 + CALENDAR_SLOTS as u64;
        if let Some(due) = self.due_slots.first_in(cycle + 1, lap_end) {
            next = next.min(due);
        }
        next
    }

    // ---- commit ----------------------------------------------------------

    /// Retires up to `width` completed instructions; `true` if any did.
    fn commit(&mut self) -> bool {
        let mut committed = 0;
        while committed < self.cfg.width {
            let Some(front) = self.rob.front() else { break };
            if !front.issued || front.complete_at > self.cycle {
                break;
            }
            let slot = self.rob.pop_front().expect("front checked");
            if slot.phys_reg != u32::MAX {
                self.free_regs.push(slot.phys_reg);
            }
            match slot.inst.opcode {
                Opcode::Load => self.lq_count -= 1,
                Opcode::Store => self.sq_count -= 1,
                _ => {}
            }
            self.head_seq = slot.seq + 1;
            self.counters.inc(Counter::CommittedInsts);
            committed += 1;
        }
        if committed == self.cfg.width {
            self.counters.inc(Counter::MaxCommitCycles);
        } else if committed == 0 {
            self.counters.inc(Counter::CommitIdleCycles);
        }
        committed > 0
    }

    // ---- issue -----------------------------------------------------------

    fn acceptable_fus(op: Opcode) -> &'static [FuClass] {
        match op {
            Opcode::Mul => &[FuClass::IntMult],
            Opcode::Div => &[FuClass::Divider, FuClass::IntMult],
            Opcode::FpAdd => &[FuClass::FpUnit, FuClass::FpMult],
            Opcode::FpMul => &[FuClass::FpMult, FuClass::FpUnit],
            Opcode::FpDiv => &[FuClass::Divider, FuClass::FpUnit],
            Opcode::VecInt | Opcode::VecFp => &[FuClass::Vector, FuClass::FpUnit],
            Opcode::Load => &[FuClass::Load],
            Opcode::Store => &[FuClass::Store],
            Opcode::Branch | Opcode::Jump | Opcode::IndirectBranch => {
                &[FuClass::Branch, FuClass::IntAlu]
            }
            _ => &[FuClass::IntAlu],
        }
    }

    fn exec_latency(&self, op: Opcode) -> u32 {
        match op {
            Opcode::Mul => self.cfg.fu.mul,
            Opcode::Div | Opcode::FpDiv => self.cfg.fu.div,
            Opcode::FpAdd | Opcode::FpMul | Opcode::VecFp => self.cfg.fu.fp,
            Opcode::VecInt => 2,
            _ => 1,
        }
    }

    /// Finds the lowest free port able to execute `op`, trying its
    /// acceptable classes in order and honouring the non-pipelined
    /// divider. Bit `p` of `port_used` marks port `p` as taken this cycle
    /// ([`MicroarchConfig::validate`] caps designs at 64 ports).
    fn allocate_port(&self, op: Opcode, port_used: u64) -> Option<usize> {
        for &fu in Self::acceptable_fus(op) {
            let mut free = self.fu_ports[fu as usize] & !port_used;
            if fu == FuClass::Divider {
                let mut dividers = free;
                while dividers != 0 {
                    let p = dividers.trailing_zeros() as usize;
                    if self.div_busy_until[p] > self.cycle {
                        free &= !(1 << p);
                    }
                    dividers &= dividers - 1;
                }
            }
            if free != 0 {
                return Some(free.trailing_zeros() as usize);
            }
        }
        None
    }

    fn count_data_outcome(&mut self, outcome: AccessOutcome) {
        self.counters.inc(Counter::L1dAccesses);
        if !outcome.l1_hit {
            self.counters.inc(Counter::L1dMisses);
            self.counters.inc(Counter::L2Accesses);
            if !outcome.l2_hit {
                self.counters.inc(Counter::L2Misses);
                if self.cfg.l3.is_some() {
                    self.counters.inc(Counter::L3Accesses);
                    if !outcome.l3_hit {
                        self.counters.inc(Counter::L3Misses);
                    }
                }
                if outcome.mem {
                    self.counters.inc(Counter::MemAccesses);
                }
            }
        }
    }

    fn count_fu_op(&mut self, op: Opcode) {
        match op.fu_class() {
            FuClass::IntAlu => self.counters.inc(Counter::IntAluOps),
            FuClass::IntMult => self.counters.inc(Counter::IntMulOps),
            FuClass::Divider => self.counters.inc(Counter::DivOps),
            FuClass::FpUnit | FuClass::FpMult => self.counters.inc(Counter::FpOps),
            FuClass::Vector => self.counters.inc(Counter::VecOps),
            _ => {}
        }
    }

    /// Issues ready instructions oldest-first; `true` if any issue grant
    /// was made (a squashed grant included).
    fn issue(&mut self) -> bool {
        let now = self.cycle as usize % CALENDAR_SLOTS;
        let mut seq = std::mem::replace(&mut self.due_heads[now], NO_SEQ);
        if seq != NO_SEQ {
            self.due_slots.remove(self.cycle);
            while seq != NO_SEQ {
                let slot = &self.rob[(seq - self.head_seq) as usize];
                let (next, ready_at) = (slot.next_due, slot.ready_at);
                if ready_at > self.cycle {
                    self.link_due(seq, ready_at);
                } else {
                    self.ready.insert(seq);
                }
                seq = next;
            }
        }
        let mut port_used = 0u64;
        let mut issued = 0u32;

        // The oldest unissued instruction as the cycle begins, and the
        // end of the program-order window that may issue this cycle.
        let oldest = self.unissued.first_in(self.head_seq, self.next_seq);
        let mut end = self.next_seq;
        match (self.bug, oldest) {
            // Bug 3: when the oldest unissued instruction has opcode X,
            // only it may issue this cycle.
            (Some(BugSpec::IfOldestIssueOnlyX { x }), Some(oldest))
                if self.rob[(oldest - self.head_seq) as usize].inst.opcode == x =>
            {
                end = oldest + 1;
            }
            // Bug 1: a serialising instruction issues only once it is the
            // oldest unissued instruction, and younger instructions stall
            // until it has been issued (the Fig. 1 "Bug 2" semantics). The
            // first one bounds the scan, unless it is the oldest and ready;
            // then the next one does.
            (Some(BugSpec::SerializeOpcode { .. }), _) => {
                if let Some(first) = self.serial.first_in(self.head_seq, self.next_seq) {
                    end = if Some(first) == oldest && self.ready.contains(first) {
                        self.serial.first_in(first + 1, end).unwrap_or(end)
                    } else {
                        first
                    };
                }
            }
            _ => {}
        }

        let mut from = self.head_seq;
        while issued < self.cfg.width && port_used != self.all_ports {
            let Some(seq) = self.ready.first_in(from, end) else {
                break;
            };
            from = seq + 1;
            let rob_idx = (seq - self.head_seq) as usize;
            let slot = &self.rob[rob_idx];
            let op = slot.inst.opcode;
            // Bug 2: X issues only when it is the oldest unissued.
            if let Some(BugSpec::IssueOnlyIfOldest { x }) = self.bug {
                if op == x && Some(seq) != oldest {
                    continue;
                }
            }
            let serialized = slot.serialized;
            let Some(p) = self.allocate_port(op, port_used) else {
                if serialized {
                    break;
                }
                continue;
            };
            port_used |= 1 << p;
            // Bug 16: every n-th issue grant is squashed; the instruction
            // keeps its port for the cycle but replays t cycles later. Each
            // instruction is squashed at most once, so the pathology is
            // severe yet bounded. Its consumers stay linked and wake when
            // the replayed grant issues it.
            if let Some(BugSpec::IssueReplayEveryN { n, t }) = self.bug {
                self.issue_grants += 1;
                if !self.rob[rob_idx].replayed && self.issue_grants.is_multiple_of(n.max(1) as u64)
                {
                    self.rob[rob_idx].replayed = true;
                    self.ready.remove(seq);
                    self.schedule(seq, self.cycle + t as u64);
                    continue;
                }
            }
            self.issue_slot(rob_idx, p);
            self.unissued.remove(seq);
            self.ready.remove(seq);
            self.serial.remove(seq);
            self.iq_len -= 1;
            issued += 1;
        }
        if issued == 0 {
            self.counters.inc(Counter::IssueIdleCycles);
        }
        self.counters.add(Counter::IssuedInsts, issued as u64);
        port_used != 0
    }

    /// Lets unissued instruction `seq`, whose producers have all issued,
    /// issue from `ready_at`: at once if that is not ahead, else once the
    /// calendar drains it on that cycle.
    fn schedule(&mut self, seq: u64, ready_at: u64) {
        if ready_at > self.cycle {
            self.rob[(seq - self.head_seq) as usize].ready_at = ready_at;
            self.link_due(seq, ready_at);
        } else {
            self.ready.insert(seq);
        }
    }

    /// Links `seq`, due on cycle `due`, into that cycle's calendar slot.
    fn link_due(&mut self, seq: u64, due: u64) {
        let head = &mut self.due_heads[due as usize % CALENDAR_SLOTS];
        self.rob[(seq - self.head_seq) as usize].next_due = *head;
        *head = seq;
        self.due_slots.insert(due);
    }

    fn issue_slot(&mut self, rob_idx: usize, port: usize) {
        let inst = self.rob[rob_idx].inst;
        let extra_exec = self.rob[rob_idx].extra_exec;
        let mispredicted = self.rob[rob_idx].mispredicted;
        let op = inst.opcode;
        self.count_fu_op(op);

        let mut latency = self.exec_latency(op) + extra_exec;
        // Bug 15: loads and stores translate through an undersized
        // direct-mapped data TLB; a miss pays the page-walk penalty on the
        // access's critical path.
        if matches!(op, Opcode::Load | Opcode::Store) {
            if let Some((slots, walk)) = self.dtlb.as_mut() {
                let page = (inst.mem_addr >> 12) as u64;
                let idx = (page % slots.len() as u64) as usize;
                if slots[idx] != page {
                    slots[idx] = page;
                    latency += *walk;
                }
            }
        }
        match op {
            Opcode::Load => {
                self.counters.inc(Counter::Loads);
                let outcome = self.hierarchy.access_data(inst.mem_addr);
                self.count_data_outcome(outcome);
                latency += outcome.latency;
                if !outcome.l1_hit {
                    self.counters
                        .add(Counter::LoadStoreStallCycles, outcome.latency as u64);
                }
            }
            Opcode::Store => {
                self.counters.inc(Counter::Stores);
                let outcome = self.hierarchy.access_data(inst.mem_addr);
                self.count_data_outcome(outcome);
                // Stores retire through the store buffer; their cache fill
                // happens off the critical path, but bug 8 gates the buffer.
                if let Some(BugSpec::StoresToLineDelay { n, t }) = self.bug {
                    let line = inst.mem_addr / LINE_BYTES;
                    let count = self.store_line_counts.entry(line).or_insert(0);
                    *count += 1;
                    if *count > n {
                        latency += t;
                    }
                }
            }
            _ => {}
        }
        if matches!(op, Opcode::Div | Opcode::FpDiv) {
            // Non-pipelined divider: hold the port.
            self.div_busy_until[port] = self.cycle + latency as u64;
        }
        let complete_at = self.cycle + latency as u64;
        let slot = &mut self.rob[rob_idx];
        slot.issued = true;
        slot.complete_at = complete_at;
        let consumers = slot.consumers;
        self.wake_consumers(consumers, complete_at);
        if mispredicted {
            // The front end was waiting on this branch: resume after it
            // resolves plus the refill penalty (bug 7 adds to it).
            self.fetch_blocked_on_branch = false;
            self.fetch_resume_at =
                complete_at + self.cfg.mispredict_penalty as u64 + self.mispredict_extra as u64;
        }
    }

    /// Walks a just-issued producer's consumer edges (from `edge`): each
    /// consumer becomes ready no earlier than `complete_at`, and one whose
    /// last unissued producer this was is scheduled at its `ready_at`.
    fn wake_consumers(&mut self, mut edge: u64, complete_at: u64) {
        while edge != NO_EDGE {
            let seq = edge / 2;
            let consumer = &mut self.rob[(seq - self.head_seq) as usize];
            edge = consumer.next_edge[(edge % 2) as usize];
            consumer.ready_at = consumer.ready_at.max(complete_at);
            consumer.pending -= 1;
            if consumer.pending == 0 {
                let ready_at = consumer.ready_at;
                self.schedule(seq, ready_at);
            }
        }
    }

    // ---- rename / dispatch -----------------------------------------------

    /// Renames and dispatches decoded instructions; `true` if any was.
    fn rename(&mut self) -> bool {
        let mut renamed = 0;
        while renamed < self.cfg.width {
            let Some(&(decoded_at, inst, mispredicted)) = self.decode_pipe.front() else {
                break;
            };
            if decoded_at > self.cycle {
                break;
            }
            // Structural hazards.
            if self.rob.len() as u32 >= self.cfg.rob_size {
                self.counters.inc(Counter::RobFullStalls);
                self.counters.inc(Counter::RenameStallCycles);
                break;
            }
            if self.iq_len >= self.cfg.iq_size {
                self.counters.inc(Counter::IqFullStalls);
                self.counters.inc(Counter::RenameStallCycles);
                break;
            }
            match inst.opcode {
                Opcode::Load if self.lq_count >= self.cfg.lq_size => {
                    self.counters.inc(Counter::LqFullStalls);
                    self.counters.inc(Counter::RenameStallCycles);
                    break;
                }
                Opcode::Store if self.sq_count >= self.cfg.sq_size => {
                    self.counters.inc(Counter::SqFullStalls);
                    self.counters.inc(Counter::RenameStallCycles);
                    break;
                }
                _ => {}
            }
            let needs_reg = inst.dest().is_some();
            if needs_reg && self.free_regs.is_empty() {
                self.counters.inc(Counter::PhysRegStalls);
                self.counters.inc(Counter::RenameStallCycles);
                break;
            }

            self.decode_pipe.pop_front();
            let seq = self.next_seq;
            self.next_seq += 1;
            self.counters.inc(Counter::DecodedInsts);
            self.counters.inc(Counter::RenamedInsts);

            // Wire source dependences: an issued producer bounds
            // `ready_at` now, an unissued one gets a consumer edge and
            // wakes this instruction when it issues. Committed producers
            // constrain nothing.
            let mut dep_ops = [None; 2];
            let mut ready_at = self.cycle + 1;
            let mut pending = 0u8;
            let mut next_edge = [NO_EDGE; 2];
            for (i, src) in inst.sources().enumerate() {
                self.counters.inc(Counter::RegReads);
                let Some((producer_seq, producer_op)) = self.reg_map[src as usize] else {
                    continue;
                };
                dep_ops[i] = Some(producer_op);
                if producer_seq < self.head_seq {
                    continue;
                }
                let producer = &mut self.rob[(producer_seq - self.head_seq) as usize];
                if producer.issued {
                    ready_at = ready_at.max(producer.complete_at);
                } else {
                    next_edge[i] = producer.consumers;
                    producer.consumers = 2 * seq + i as u64;
                    pending += 1;
                }
            }
            let mut extra_exec = 0u32;
            let mut serialized = false;
            let phys_reg = if needs_reg {
                self.counters.inc(Counter::RegWrites);
                let r = self.free_regs.pop().expect("free list checked");
                self.reg_write_counts[r as usize] += 1;
                if let Some(BugSpec::WritesToRegDelay { n, t, periodic }) = self.bug {
                    let count = self.reg_write_counts[r as usize];
                    let fires = if periodic {
                        count.is_multiple_of(n)
                    } else {
                        count > n
                    };
                    if fires {
                        extra_exec += t;
                    }
                }
                r
            } else {
                u32::MAX
            };

            match self.bug {
                Some(BugSpec::SerializeOpcode { x }) if inst.opcode == x => serialized = true,
                Some(BugSpec::DelayIfDependsOn { x, y, t })
                    if inst.opcode == x && dep_ops.contains(&Some(y)) =>
                {
                    extra_exec += t;
                }
                Some(BugSpec::IqBelowDelay { n, t }) if self.cfg.iq_size - self.iq_len < n => {
                    extra_exec += t;
                }
                Some(BugSpec::RobBelowDelay { n, t })
                    if self.cfg.rob_size - (self.rob.len() as u32) < n =>
                {
                    extra_exec += t;
                }
                Some(BugSpec::LongBranchDelay { bytes, t })
                    if inst.opcode.is_control() && inst.size > bytes =>
                {
                    extra_exec += t;
                }
                Some(BugSpec::OpcodeUsesRegDelay { x, r, t }) if inst.opcode == x => {
                    let uses = inst.sources().any(|s| s == r) || inst.dest() == Some(r);
                    if uses {
                        extra_exec += t;
                    }
                }
                _ => {}
            }

            if let Some(dst) = inst.dest() {
                self.reg_map[dst as usize] = Some((seq, inst.opcode));
            }
            match inst.opcode {
                Opcode::Load => self.lq_count += 1,
                Opcode::Store => self.sq_count += 1,
                _ => {}
            }
            self.iq_len += 1;
            self.unissued.insert(seq);
            if serialized {
                self.serial.insert(seq);
            }
            self.rob.push_back(Slot {
                inst,
                seq,
                ready_at,
                next_due: NO_SEQ,
                pending,
                consumers: NO_EDGE,
                next_edge,
                extra_exec,
                issued: false,
                complete_at: u64::MAX,
                phys_reg,
                serialized,
                mispredicted,
                replayed: false,
            });
            if pending == 0 {
                self.schedule(seq, ready_at);
            }
            renamed += 1;
        }
        renamed > 0
    }

    // ---- fetch -----------------------------------------------------------

    /// Fetches up to `width` instructions into the decode pipe; `true`
    /// unless fetch was idle or stalled (a fetch attempt always fetches an
    /// instruction or accesses the I-cache).
    fn fetch(&mut self, trace: &[Inst]) -> bool {
        if self.fetch_pos >= trace.len() {
            return false;
        }
        if self.decode_pipe.len() >= FRONTEND_BUFFER_FACTOR * self.cfg.width as usize {
            return false; // front-end buffer full; not a stall of interest
        }
        if self.fetch_blocked_on_branch || self.cycle < self.fetch_resume_at {
            self.counters.inc(Counter::FetchStallCycles);
            if self.fetch_blocked_on_branch || self.fetch_resume_at > 0 {
                self.counters.inc(Counter::MispredictStallCycles);
            }
            return false;
        }
        for _ in 0..self.cfg.width {
            if self.fetch_pos >= trace.len() {
                break;
            }
            let inst = trace[self.fetch_pos];
            let line = inst.pc / LINE_BYTES;
            if line != self.last_fetch_line {
                self.counters.inc(Counter::IcacheAccesses);
                let outcome = self.hierarchy.access_inst(inst.pc);
                self.last_fetch_line = line;
                if !outcome.l1_hit {
                    self.counters.inc(Counter::IcacheMisses);
                    self.fetch_resume_at = self.cycle + outcome.latency as u64;
                    break; // refill; this instruction fetches afterwards
                }
            }
            self.fetch_pos += 1;
            self.counters.inc(Counter::FetchedInsts);
            let mut mispredicted = false;
            if inst.opcode.is_control() {
                self.counters.inc(Counter::BranchInsts);
                if inst.opcode == Opcode::Branch {
                    self.counters.inc(Counter::CondBranches);
                }
                if inst.taken {
                    self.counters.inc(Counter::TakenBranches);
                }
                let prediction = self.predictor.predict_and_train(&inst);
                if prediction.indirect {
                    self.counters.inc(Counter::IndirectBranches);
                }
                if !prediction.correct {
                    self.counters.inc(Counter::Mispredicts);
                    if prediction.indirect {
                        self.counters.inc(Counter::IndirectMispredicts);
                    }
                    mispredicted = true;
                }
            }
            self.decode_pipe
                .push_back((self.cycle + DECODE_LATENCY, inst, mispredicted));
            if mispredicted {
                // The wrong path would be fetched from here; in a
                // trace-driven model the front end simply waits for the
                // branch to resolve.
                self.fetch_blocked_on_branch = true;
                break;
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets;
    use perfbug_workloads::{benchmark, WorkloadScale};

    fn probe_trace() -> Vec<Inst> {
        let scale = WorkloadScale::tiny();
        let spec = benchmark("458.sjeng").expect("suite benchmark");
        let program = spec.program(&scale);
        let probes = spec.probes(&scale);
        probes[0].trace(&program)
    }

    #[test]
    fn simulation_commits_whole_trace() {
        let trace = probe_trace();
        let run = simulate(&presets::skylake(), None, &trace, 500);
        assert_eq!(run.total_insts, trace.len() as u64);
        assert!(run.total_cycles > 0);
        let ipc = run.overall_ipc();
        assert!(
            ipc > 0.1 && ipc <= presets::skylake().width as f64,
            "ipc {ipc}"
        );
    }

    #[test]
    fn deterministic() {
        let trace = probe_trace();
        let a = simulate(&presets::skylake(), None, &trace, 500);
        let b = simulate(&presets::skylake(), None, &trace, 500);
        assert_eq!(a.counter_rows, b.counter_rows);
        assert_eq!(a.ipc, b.ipc);
    }

    #[test]
    fn wide_core_beats_narrow_core() {
        let trace = probe_trace();
        let fast = simulate(&presets::skylake(), None, &trace, 500);
        let slow = simulate(&presets::k8(), None, &trace, 500);
        assert!(
            fast.overall_ipc() > slow.overall_ipc(),
            "Skylake {} !> K8 {}",
            fast.overall_ipc(),
            slow.overall_ipc()
        );
    }

    #[test]
    fn per_step_ipc_bounded_by_width() {
        let trace = probe_trace();
        let cfg = presets::skylake();
        let run = simulate(&cfg, None, &trace, 500);
        assert!(!run.ipc.is_empty());
        for &v in &run.ipc {
            assert!(v >= 0.0 && v <= cfg.width as f64);
        }
    }

    #[test]
    fn serialize_bug_slows_the_core() {
        let trace = probe_trace();
        // Serialise the most common compute opcode so the bug has targets.
        let mut counts = std::collections::HashMap::new();
        for i in &trace {
            if !i.opcode.is_control() && !i.opcode.is_memory() {
                *counts.entry(i.opcode).or_insert(0usize) += 1;
            }
        }
        let (&victim, _) = counts
            .iter()
            .max_by_key(|(_, &c)| c)
            .expect("compute ops exist");
        let cfg = presets::skylake();
        let healthy = simulate(&cfg, None, &trace, 500);
        let buggy = simulate(
            &cfg,
            Some(BugSpec::SerializeOpcode { x: victim }),
            &trace,
            500,
        );
        assert!(
            buggy.total_cycles > healthy.total_cycles,
            "serialising {victim:?} must cost cycles ({} !> {})",
            buggy.total_cycles,
            healthy.total_cycles
        );
    }

    #[test]
    fn l2_latency_bug_slows_l2_resident_code() {
        // Dependent loads striding through a 128 KiB region: misses L1D
        // (32 KiB) but lives in L2 (256 KiB) after one warm-up pass, so
        // nearly every load is an L2 hit — exactly what bug 10 taxes.
        let mut trace = Vec::new();
        let region = 128 * 1024u32;
        let mut addr = 0x4000_0000u32;
        for i in 0..12_000u32 {
            let mut ld = Inst::nop(0x1000 + (i % 64) * 4);
            ld.opcode = Opcode::Load;
            ld.mem_addr = addr;
            ld.dst = 1;
            ld.src1 = 1; // dependent chain: no overlap hides the latency
            trace.push(ld);
            addr = 0x4000_0000 + ((addr - 0x4000_0000) + 64) % region;
        }
        let cfg = presets::skylake();
        let healthy = simulate(&cfg, None, &trace, 500);
        let buggy = simulate(&cfg, Some(BugSpec::L2ExtraLatency { t: 20 }), &trace, 500);
        assert!(
            buggy.total_cycles > healthy.total_cycles,
            "L2 tax must cost cycles ({} !> {})",
            buggy.total_cycles,
            healthy.total_cycles
        );
    }

    #[test]
    fn mispredict_penalty_bug_slows_branchy_code() {
        let trace = probe_trace();
        let cfg = presets::skylake();
        let healthy = simulate(&cfg, None, &trace, 500);
        let buggy = simulate(
            &cfg,
            Some(BugSpec::MispredictExtraDelay { t: 30 }),
            &trace,
            500,
        );
        assert!(buggy.total_cycles > healthy.total_cycles);
    }

    #[test]
    #[should_panic(expected = "pipeline deadlock")]
    fn a_stuck_pipeline_still_trips_the_watchdog() {
        // No port can execute a multiply, so the ROB head waits forever
        // and every cycle is quiescent; the idle-cycle jumps must stop at
        // the watchdog limit rather than run past it.
        let mut cfg = presets::skylake();
        for pool in &mut cfg.ports {
            pool.retain(|fu| !matches!(fu, FuClass::IntMult | FuClass::Divider));
        }
        let mut mul = Inst::nop(0x1000);
        mul.opcode = Opcode::Mul;
        mul.dst = 1;
        mul.src1 = 2;
        simulate(&cfg, None, &[mul], 500);
    }

    #[test]
    fn counter_rows_match_counter_names() {
        let trace = probe_trace();
        let run = simulate(&presets::skylake(), None, &trace, 500);
        let names = crate::counters::counter_names();
        for row in &run.counter_rows {
            assert_eq!(row.len(), names.len());
            assert!(row.iter().all(|v| v.is_finite()));
        }
        assert_eq!(run.counter_rows.len(), run.ipc.len());
    }

    #[test]
    fn fewer_regs_bug_reduces_effective_window() {
        let trace = probe_trace();
        let cfg = presets::skylake();
        let healthy = simulate(&cfg, None, &trace, 500);
        let buggy = simulate(&cfg, Some(BugSpec::FewerPhysRegs { n: 200 }), &trace, 500);
        assert!(buggy.total_cycles >= healthy.total_cycles);
    }

    #[test]
    fn tlb_bug_slows_page_striding_loads() {
        // Dependent loads touching a new 4 KiB page each time: with only
        // 4 TLB slots every access conflict-misses and pays the walk.
        let mut trace = Vec::new();
        for i in 0..6_000u32 {
            let mut ld = Inst::nop(0x1000 + (i % 64) * 4);
            ld.opcode = Opcode::Load;
            ld.mem_addr = 0x4000_0000 + (i % 64) * 4096;
            ld.dst = 1;
            ld.src1 = 1; // dependent chain: walks serialise
            trace.push(ld);
        }
        let cfg = presets::skylake();
        let healthy = simulate(&cfg, None, &trace, 500);
        let buggy = simulate(
            &cfg,
            Some(BugSpec::TlbPageWalkDelay { entries: 4, t: 40 }),
            &trace,
            500,
        );
        assert!(
            buggy.total_cycles > healthy.total_cycles,
            "TLB walks must cost cycles ({} !> {})",
            buggy.total_cycles,
            healthy.total_cycles
        );
    }

    #[test]
    fn tlb_bug_is_mild_on_page_resident_code() {
        // The same page over and over: after one walk everything hits even
        // in a tiny TLB, so the bug barely moves single-page code.
        let mut trace = Vec::new();
        for i in 0..4_000u32 {
            let mut ld = Inst::nop(0x1000 + (i % 64) * 4);
            ld.opcode = Opcode::Load;
            ld.mem_addr = 0x4000_0000 + (i % 16) * 8;
            ld.dst = 1;
            ld.src1 = 1;
            trace.push(ld);
        }
        let cfg = presets::skylake();
        let healthy = simulate(&cfg, None, &trace, 500);
        let buggy = simulate(
            &cfg,
            Some(BugSpec::TlbPageWalkDelay { entries: 4, t: 40 }),
            &trace,
            500,
        );
        let slowdown = buggy.total_cycles as f64 / healthy.total_cycles as f64;
        assert!(
            slowdown < 1.02,
            "page-resident code should be nearly unaffected (slowdown {slowdown})"
        );
    }

    #[test]
    fn replay_bug_slows_the_core_and_terminates() {
        let trace = probe_trace();
        let cfg = presets::skylake();
        let healthy = simulate(&cfg, None, &trace, 500);
        let buggy = simulate(
            &cfg,
            Some(BugSpec::IssueReplayEveryN { n: 4, t: 12 }),
            &trace,
            500,
        );
        assert!(
            buggy.total_cycles > healthy.total_cycles,
            "replay storms must cost cycles ({} !> {})",
            buggy.total_cycles,
            healthy.total_cycles
        );
        // The retired stream is unchanged: same instruction count.
        assert_eq!(buggy.total_insts, healthy.total_insts);
    }

    // ---- wakeup edge cases ----------------------------------------------
    //
    // Hand-timed traces on Skylake (width 4; IntMult on ports 0 and 1,
    // the divider on port 0, IntAlu on ports 0, 1, 5 and 6; mul 4, div 20
    // and ALU 1 cycle). Every instruction sits in one I-cache line, which misses on
    // cycle 1; the first fetch group arrives on cycle F, is renamed on
    // F + 3 and may issue from F + 4. Group k (four instructions each) is
    // fetched on F + k. An instruction completing on cycle c commits on c
    // if it is at the ROB head by then, and the run ends on the cycle of
    // the last commit.

    /// Cycle of the first fetch group: the cycle after the cold I-cache
    /// miss on cycle 1 resolves.
    fn first_fetch_cycle(cfg: &MicroarchConfig) -> u64 {
        1 + Hierarchy::new(cfg).access_inst(0x1000).latency as u64
    }

    /// An instruction at slot `i` of a one-line trace.
    fn op(i: u32, opcode: Opcode, dst: u8, srcs: [u8; 2]) -> Inst {
        let mut inst = Inst::nop(0x1000 + 4 * i);
        inst.opcode = opcode;
        inst.dst = dst;
        [inst.src1, inst.src2] = srcs;
        inst
    }

    const NONE: u8 = perfbug_workloads::NO_REG;

    #[test]
    fn two_sources_from_one_producer_wake_once() {
        let cfg = presets::skylake();
        let f = first_fetch_cycle(&cfg);
        // r1 = mul (issues F+4, completes F+8); r2 = r1 + r1 links two
        // edges to the multiply and must issue once both are walked, on
        // F+8, completing and committing on F+9.
        let trace = [
            op(0, Opcode::Mul, 1, [NONE, NONE]),
            op(1, Opcode::Add, 2, [1, 1]),
        ];
        let run = simulate(&cfg, None, &trace, 500);
        assert_eq!(run.total_insts, 2);
        assert_eq!(run.total_cycles, f + 9);
    }

    #[test]
    fn consumer_renamed_after_its_producer_issued_waits_for_completion() {
        let cfg = presets::skylake();
        let f = first_fetch_cycle(&cfg);
        // The multiply issues on F+4 (completes F+8), before the divide,
        // fetched one group later, is renamed in the same cycle. The
        // divide must take the issued multiply's completion as its ready
        // time: issue F+8, complete and commit F+28. Treating the issued
        // producer as already done would issue it on F+5 and end on F+25.
        let mut trace = vec![op(0, Opcode::Mul, 1, [NONE, NONE])];
        trace.extend((1..4).map(|i| op(i, Opcode::Nop, NONE, [NONE, NONE])));
        trace.push(op(4, Opcode::Div, 2, [1, NONE]));
        let run = simulate(&cfg, None, &trace, 500);
        assert_eq!(run.total_insts, 5);
        assert_eq!(run.total_cycles, f + 28);
    }

    #[test]
    fn consumer_renamed_after_its_producer_committed_is_unconstrained() {
        let cfg = presets::skylake();
        let f = first_fetch_cycle(&cfg);
        // r1 = add issues on F+4 and commits on F+5 with its group. The
        // divide, fetched in the third group, is renamed on F+5 after that
        // commit; its producer constrains nothing, so it issues on F+6 and
        // completes and commits on F+26.
        let mut trace = vec![op(0, Opcode::Add, 1, [NONE, NONE])];
        trace.extend((1..8).map(|i| op(i, Opcode::Nop, NONE, [NONE, NONE])));
        trace.push(op(8, Opcode::Div, 2, [1, NONE]));
        let run = simulate(&cfg, None, &trace, 500);
        assert_eq!(run.total_insts, 9);
        assert_eq!(run.total_cycles, f + 26);
    }

    #[test]
    fn a_serialising_instruction_admits_younger_issue_up_to_the_next_one() {
        let cfg = presets::skylake();
        let f = first_fetch_cycle(&cfg);
        // Bug 1 serialises Logic; all four are ready on F+4. The first
        // Logic is the oldest unissued instruction, so it issues on F+4
        // and the younger add issues beside it. The second Logic was not
        // the oldest unissued when the cycle began, so it stops the scan
        // and the multiply behind it waits too. Both issue on F+5 (ports
        // 0 and 1); the multiply completes and the run ends on F+9.
        let trace = [
            op(0, Opcode::Logic, 1, [NONE, NONE]),
            op(1, Opcode::Add, 2, [NONE, NONE]),
            op(2, Opcode::Logic, 3, [NONE, NONE]),
            op(3, Opcode::Mul, 4, [NONE, NONE]),
        ];
        let bug = BugSpec::SerializeOpcode { x: Opcode::Logic };
        let run = simulate(&cfg, Some(bug), &trace, 1);
        // Row `c - 1` samples cycle `c`.
        let issued: Vec<u64> = run
            .counter_rows
            .iter()
            .map(|row| row[Counter::IssuedInsts as usize] as u64)
            .collect();
        let first_issue = (f + 3) as usize;
        assert_eq!(issued[first_issue..first_issue + 2], [2, 2]);
        assert_eq!(issued.iter().sum::<u64>(), 4);
        assert_eq!(run.total_cycles, f + 9);
    }

    #[test]
    fn a_squashed_producer_wakes_its_consumers_only_when_replayed() {
        let cfg = presets::skylake();
        let f = first_fetch_cycle(&cfg);
        let t = 10;
        // Every third grant is squashed. On F+4 the nops take grants 1 and
        // 2 on ports 0 and 1, the only multiply ports, so the multiply's
        // grant 3 comes on F+5 and is squashed (replay on F+5+t); the add
        // waits on the multiply. The replayed multiply takes grant 4 on
        // F+5+t and completes on F+9+t, so the add takes grant 5 then and
        // completes and commits on F+10+t. Waking the add at the squash
        // would let it issue early and end the run on F+9+t.
        let trace = [
            op(0, Opcode::Nop, NONE, [NONE, NONE]),
            op(1, Opcode::Nop, NONE, [NONE, NONE]),
            op(2, Opcode::Mul, 1, [NONE, NONE]),
            op(3, Opcode::Add, 2, [1, NONE]),
        ];
        let bug = BugSpec::IssueReplayEveryN { n: 3, t };
        let run = simulate(&cfg, Some(bug), &trace, 500);
        assert_eq!(run.total_insts, 4);
        assert_eq!(run.total_cycles, f + 10 + t as u64);
    }
}
