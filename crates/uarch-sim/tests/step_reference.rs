//! Step-1 reference property: sampling every cycle must not change the
//! simulation, and coarser samples must be exact sums of per-cycle ones.
//!
//! With `step_cycles = 1` every cycle is a sample boundary, so the
//! simulator can never jump over an idle stretch; that run is a
//! cycle-by-cycle reference without a second code path. For `None` plus
//! every extended-catalogue bug, on Skylake and K8, over three tiny-scale
//! probes, a run sampled every N cycles must match it: the same
//! `total_cycles` and `total_insts`, and every step-N row's raw counter
//! columns equal to the sum of the step-1 rows it covers.

use perfbug_core::bugs::BugCatalog;
use perfbug_uarch::counters::N_RAW;
use perfbug_uarch::{presets, simulate, BugSpec, ProbeRun};
use perfbug_workloads::{benchmark, Inst, WorkloadScale};

const STEPS: [u64; 2] = [97, 500];

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

/// Raw counter columns of one row as exact integers.
fn raw(row: &[f64]) -> [u64; N_RAW] {
    let mut out = [0u64; N_RAW];
    for (o, &v) in out.iter_mut().zip(row) {
        *o = v as u64;
    }
    out
}

fn assert_matches_reference(reference: &ProbeRun, run: &ProbeRun, step: u64, what: &str) {
    assert_eq!(
        (run.total_cycles, run.total_insts),
        (reference.total_cycles, reference.total_insts),
        "{what}, step {step}: totals differ from the step-1 reference"
    );
    assert_eq!(
        reference.counter_rows.len() as u64,
        reference.total_cycles,
        "{what}: the step-1 run must sample every cycle"
    );
    let leftover = reference.total_cycles % step;
    let rows = reference.total_cycles / step + u64::from(leftover > 0 && leftover * 2 >= step);
    assert_eq!(
        run.counter_rows.len() as u64,
        rows,
        "{what}, step {step}: wrong number of sampled rows"
    );
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
        assert_eq!(
            raw(row),
            sum,
            "{what}, step {step}: row {j} (cycles {start}..{end}) is not the sum of its cycles"
        );
    }
}

fn check_design(cfg: &perfbug_uarch::MicroarchConfig) {
    let bugs = bug_settings();
    for bench in ["426.mcf", "444.namd", "400.perlbench"] {
        let trace = probe_trace(bench);
        for &bug in &bugs {
            let what = format!("{} on {bench} with {bug:?}", cfg.name);
            let reference = simulate(cfg, bug, &trace, 1);
            for step in STEPS {
                assert_matches_reference(
                    &reference,
                    &simulate(cfg, bug, &trace, step),
                    step,
                    &what,
                );
            }
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
