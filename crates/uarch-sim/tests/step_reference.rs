//! Step-1 reference property: sampling every cycle must not change the
//! simulation, and coarser samples must be exact sums of per-cycle ones.
//!
//! With `step_cycles = 1` every cycle is a sample boundary, so the
//! simulator can never jump over an idle stretch; that run is a
//! cycle-by-cycle reference without a second code path. For `None` plus
//! every extended-catalogue bug, on Skylake, K8 and Broadwell, over three
//! tiny-scale probes, a run sampled every N cycles must match it: the same
//! `total_cycles` and `total_insts`, and every step-N row's raw counter
//! columns equal to the sum of the step-1 rows it covers. The same check
//! runs over random short traces, which reach dependence and port shapes
//! the suite probes may never produce, with two more bug settings whose
//! delays run past the simulator's 512-cycle wait calendar.

use perfbug_core::bugs::BugCatalog;
use perfbug_uarch::counters::N_RAW;
use perfbug_uarch::{presets, simulate, BugSpec, MicroarchConfig, ProbeRun};
use perfbug_workloads::{benchmark, Inst, WorkloadScale, ALL_OPCODES, NO_REG};
use proptest::prelude::*;

/// Sample steps. An idle-cycle jump stops at the next sample boundary, so
/// only a step longer than the 512-slot wait calendar lets one jump cover
/// a whole lap of it.
const STEPS: [u64; 3] = [97, 500, 2_000];

fn probe_trace(bench: &str) -> Vec<Inst> {
    let scale = WorkloadScale::tiny();
    let spec = benchmark(bench).expect("suite benchmark");
    let program = spec.program(&scale);
    spec.probes(&scale)[0].trace(&program)
}

fn bug_settings() -> Vec<Option<BugSpec>> {
    std::iter::once(None)
        .chain(
            BugCatalog::core_extended()
                .variants()
                .iter()
                .copied()
                .map(Some),
        )
        .collect()
}

/// [`bug_settings`] plus two settings with delays past the wait
/// calendar's span: every instruction executes 700 cycles longer (its
/// free-IQ threshold always holds), so each wakeup lands more than a span
/// ahead; and every second issue grant is replayed 1,100 cycles later,
/// more than two spans ahead.
fn long_delay_bug_settings() -> Vec<Option<BugSpec>> {
    let mut bugs = bug_settings();
    bugs.push(Some(BugSpec::IqBelowDelay {
        n: u32::MAX,
        t: 700,
    }));
    bugs.push(Some(BugSpec::IssueReplayEveryN { n: 2, t: 1_100 }));
    bugs
}

/// Raw counter columns of one row as exact integers.
fn raw(row: &[f64]) -> [u64; N_RAW] {
    let mut out = [0u64; N_RAW];
    for (o, &v) in out.iter_mut().zip(row) {
        *o = v as u64;
    }
    out
}

/// Checks `run`, sampled every `step` cycles, against the step-1
/// `reference` of the same simulation.
fn matches_reference(reference: &ProbeRun, run: &ProbeRun, step: u64) -> Result<(), String> {
    if (run.total_cycles, run.total_insts) != (reference.total_cycles, reference.total_insts) {
        return Err(format!(
            "step {step}: totals {:?} differ from the step-1 reference {:?}",
            (run.total_cycles, run.total_insts),
            (reference.total_cycles, reference.total_insts)
        ));
    }
    if reference.counter_rows.len() as u64 != reference.total_cycles {
        return Err("the step-1 run must sample every cycle".into());
    }
    let leftover = reference.total_cycles % step;
    let rows = reference.total_cycles / step + u64::from(leftover > 0 && leftover * 2 >= step);
    if run.counter_rows.len() as u64 != rows {
        return Err(format!(
            "step {step}: {} sampled rows, expected {rows}",
            run.counter_rows.len()
        ));
    }
    let per_cycle: Vec<[u64; N_RAW]> = reference.counter_rows.iter().map(raw).collect();
    for (j, row) in run.counter_rows.iter().enumerate() {
        let start = j * step as usize;
        let end = (start + step as usize).min(per_cycle.len());
        let mut sum = [0u64; N_RAW];
        for cycle in &per_cycle[start..end] {
            for (s, v) in sum.iter_mut().zip(cycle) {
                *s += v;
            }
        }
        if raw(row) != sum {
            return Err(format!(
                "step {step}: row {j} (cycles {start}..{end}) is not the sum of its cycles"
            ));
        }
    }
    Ok(())
}

/// Runs `trace` under every setting in `bugs` on `cfg`: each run must
/// commit the whole trace and agree with its step-1 reference at every
/// step.
fn check_trace(
    cfg: &MicroarchConfig,
    trace: &[Inst],
    what: &str,
    bugs: &[Option<BugSpec>],
) -> Result<(), String> {
    for &bug in bugs {
        let context = |e: String| format!("{} on {what} with {bug:?}: {e}", cfg.name);
        let reference = simulate(cfg, bug, trace, 1);
        if reference.total_insts != trace.len() as u64 {
            return Err(context(format!(
                "committed {} of {} instructions",
                reference.total_insts,
                trace.len()
            )));
        }
        for step in STEPS {
            matches_reference(&reference, &simulate(cfg, bug, trace, step), step)
                .map_err(context)?;
        }
    }
    Ok(())
}

fn check_design(cfg: &MicroarchConfig) {
    for bench in ["426.mcf", "444.namd", "400.perlbench"] {
        if let Err(e) = check_trace(cfg, &probe_trace(bench), bench, &bug_settings()) {
            panic!("{e}");
        }
    }
}

#[test]
fn skylake_samples_sum_to_the_per_cycle_reference() {
    check_design(&presets::skylake());
}

#[test]
fn k8_samples_sum_to_the_per_cycle_reference() {
    check_design(&presets::k8());
}

/// Broadwell's ROB (192) is not a power of two and its L3 is 64 MiB, so
/// this covers ROB sizes and cache geometries Skylake and K8 do not.
#[test]
fn broadwell_samples_sum_to_the_per_cycle_reference() {
    check_design(&presets::broadwell());
}

/// Decodes one random word into the instruction at slot `i`. Its opcode
/// is any of them. Its sources and destination are each one of eight
/// registers, so dependences are dense and two sources often name one
/// producer, or absent one time in four. It has a data address within
/// 1 MiB, a branch direction, a target and a size. Eight slots share an
/// I-cache line.
fn random_inst(i: usize, word: u64) -> Inst {
    let field = |shift: u32, bits: u32| (word >> shift) & ((1 << bits) - 1);
    let reg = |shift: u32| match field(shift, 4) {
        r @ 0..12 => (r % 8) as u8,
        _ => NO_REG,
    };
    let mut inst = Inst::nop(0x1000 + 8 * i as u32);
    inst.opcode = ALL_OPCODES[field(0, 8) as usize % ALL_OPCODES.len()];
    inst.src1 = reg(8);
    inst.src2 = reg(12);
    inst.dst = reg(16);
    inst.mem_addr = 0x4000_0000 + field(20, 20) as u32;
    inst.taken = field(40, 1) == 1;
    inst.target = 0x1000 + 8 * field(41, 6) as u32;
    inst.size = 1 + (field(48, 8) % 15) as u8;
    inst
}

fn random_trace() -> impl Strategy<Value = Vec<Inst>> {
    prop::collection::vec(any::<u64>(), 1..40).prop_map(|words| {
        words
            .into_iter()
            .enumerate()
            .map(|(i, word)| random_inst(i, word))
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn random_traces_sum_to_the_per_cycle_reference(trace in random_trace()) {
        for cfg in [presets::skylake(), presets::k8()] {
            if let Err(e) = check_trace(&cfg, &trace, "a random trace", &long_delay_bug_settings()) {
                return Err(TestCaseError::Fail(format!("{e}\ntrace: {trace:?}")));
            }
        }
    }
}
