//! Cross-crate integration tests: the full detection pipeline at tiny
//! scale, determinism across the stack, and the memory-system variant.

use perfbug_core::baseline::BaselineParams;
use perfbug_core::bugs::BugCatalog;
use perfbug_core::experiment::{
    collect, evaluate_baseline, evaluate_two_stage, CollectionConfig, ProbeScale,
};
use perfbug_core::memory::{MemCollectionConfig, TargetMetric};
use perfbug_core::stage1::EngineSpec;
use perfbug_core::stage2::Stage2Params;
use perfbug_ml::GbtParams;
use perfbug_uarch::BugSpec;
use perfbug_workloads::{benchmark, Opcode, WorkloadScale};

fn tiny_config() -> CollectionConfig {
    let catalog = BugCatalog::new(vec![
        BugSpec::SerializeOpcode { x: Opcode::Logic },
        BugSpec::MispredictExtraDelay { t: 25 },
        BugSpec::L2ExtraLatency { t: 30 },
        BugSpec::FewerPhysRegs { n: 150 },
    ]);
    let mut config = CollectionConfig::new(
        vec![EngineSpec::Gbt(GbtParams {
            n_trees: 50,
            ..GbtParams::default()
        })],
        catalog,
    );
    config.scale = ProbeScale::tiny();
    config.benchmarks = vec![
        benchmark("458.sjeng").expect("suite benchmark"),
        benchmark("403.gcc").expect("suite benchmark"),
    ];
    config.max_probes = Some(8);
    config
}

#[test]
fn two_stage_pipeline_detects_better_than_chance() {
    let config = tiny_config();
    let collection = collect(&config);
    let eval = evaluate_two_stage(&collection, 0, Stage2Params::default());
    assert!(
        eval.metrics.roc_auc > 0.6,
        "two-stage AUC should clearly beat chance, got {}",
        eval.metrics.roc_auc
    );
    // Every fold produced decisions for all four test designs.
    for fold in &eval.folds {
        assert_eq!(
            fold.decisions.len(),
            8,
            "4 designs x (1 bug-free + 1 variant)"
        );
    }
}

#[test]
fn collection_is_deterministic() {
    let config = tiny_config();
    let a = collect(&config);
    let b = collect(&config);
    assert_eq!(a.keys.len(), b.keys.len());
    for (ea, eb) in a.engines.iter().zip(&b.engines) {
        assert_eq!(
            ea.deltas, eb.deltas,
            "deltas must be bit-identical across runs"
        );
    }
    assert_eq!(a.overall_ipc, b.overall_ipc);
}

#[test]
fn baseline_runs_under_same_protocol() {
    let config = tiny_config();
    let collection = collect(&config);
    let params = BaselineParams {
        gbt: GbtParams {
            n_trees: 25,
            max_depth: 3,
            ..GbtParams::default()
        },
        ..BaselineParams::default()
    };
    let eval = evaluate_baseline(&collection, &params);
    assert_eq!(eval.folds.len(), 4);
    assert!(eval.metrics.roc_auc.is_finite());
}

#[test]
fn memory_pipeline_detects_memory_bugs() {
    let mut config = MemCollectionConfig::new(
        vec![EngineSpec::Gbt(GbtParams {
            n_trees: 40,
            ..GbtParams::default()
        })],
        TargetMetric::Amat,
    );
    config.workload = WorkloadScale::tiny();
    config.step_cycles = 300;
    config.max_probes = Some(6);
    let collection = collect(&config);
    let eval = evaluate_two_stage(&collection, 0, Stage2Params::default());
    assert_eq!(eval.folds.len(), 6, "six memory bug types");
    assert!(
        eval.metrics.roc_auc > 0.5,
        "memory AUC {}",
        eval.metrics.roc_auc
    );
}

#[test]
fn injected_bug_raises_inference_error() {
    // The core claim of stage 1: a bug breaks the counter-to-IPC relation
    // learned from bug-free designs, inflating Eq. (1) errors.
    let config = tiny_config();
    let collection = collect(&config);
    let deltas = &collection.engines[0].deltas;
    // Compare mean delta on bug-free vs severe-bug keys (Set IV).
    let mut bugfree = Vec::new();
    let mut buggy = Vec::new();
    for (k, key) in collection.keys.iter().enumerate() {
        if key.set != perfbug_uarch::ArchSet::IV {
            continue;
        }
        for probe_deltas in deltas {
            match key.bug {
                None => bugfree.push(probe_deltas[k]),
                Some(_) => buggy.push(probe_deltas[k]),
            }
        }
    }
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    assert!(
        mean(&buggy) > mean(&bugfree),
        "buggy designs must show larger stage-1 errors ({} !> {})",
        mean(&buggy),
        mean(&bugfree)
    );
}
