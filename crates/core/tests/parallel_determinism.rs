//! The run-level parallel execution engine must be invisible in the
//! results: `collect()` with one worker and with many workers has to
//! produce byte-identical collections — same `RunKey` ordering, same
//! stage-1 deltas, same aggregate features — because scheduling must
//! never leak into the science.

use perfbug_core::bugs::BugCatalog;
use perfbug_core::experiment::{collect, CollectionConfig, ProbeScale};
use perfbug_core::memory::{MemCollectionConfig, TargetMetric};
use perfbug_core::stage1::EngineSpec;
use perfbug_ml::GbtParams;
use perfbug_uarch::BugSpec;
use perfbug_workloads::{benchmark, Opcode, WorkloadScale};

fn config_with_threads(threads: usize) -> CollectionConfig {
    let catalog = BugCatalog::new(vec![
        BugSpec::SerializeOpcode { x: Opcode::Logic },
        BugSpec::L2ExtraLatency { t: 30 },
    ]);
    let mut config = CollectionConfig::new(
        vec![EngineSpec::Gbt(GbtParams {
            n_trees: 30,
            ..GbtParams::default()
        })],
        catalog,
    );
    config.scale = ProbeScale::tiny();
    config.benchmarks = vec![
        benchmark("458.sjeng").expect("suite benchmark"),
        benchmark("462.libquantum").expect("suite benchmark"),
    ];
    config.max_probes = Some(4);
    config.threads = threads;
    config
}

#[test]
fn collect_is_identical_across_worker_counts() {
    let serial = collect(&config_with_threads(1));
    for threads in [2, 4, 7] {
        let parallel = collect(&config_with_threads(threads));

        // Same key list in the same order.
        assert_eq!(
            serial.keys, parallel.keys,
            "threads={threads}: key order diverged"
        );
        assert_eq!(
            serial.probes, parallel.probes,
            "threads={threads}: probe order diverged"
        );

        // Byte-identical stage-1 errors.
        assert_eq!(serial.engines.len(), parallel.engines.len());
        for (a, b) in serial.engines.iter().zip(&parallel.engines) {
            assert_eq!(a.name, b.name);
            assert_eq!(a.deltas, b.deltas, "threads={threads}: deltas diverged");
        }

        // Byte-identical simulated IPC and baseline aggregates.
        assert_eq!(
            serial.overall_ipc, parallel.overall_ipc,
            "threads={threads}"
        );
        assert_eq!(
            serial.agg_features, parallel.agg_features,
            "threads={threads}"
        );
    }
}

#[test]
fn collect_memory_is_identical_across_worker_counts() {
    let build = |threads: usize| {
        let mut config = MemCollectionConfig::new(
            vec![EngineSpec::Gbt(GbtParams {
                n_trees: 20,
                ..GbtParams::default()
            })],
            TargetMetric::Amat,
        );
        config.workload = WorkloadScale::tiny();
        config.step_cycles = 300;
        config.max_probes = Some(3);
        config.threads = threads;
        collect(&config)
    };
    let serial = build(1);
    let parallel = build(8);
    assert_eq!(serial.keys, parallel.keys);
    assert_eq!(serial.engines[0].deltas, parallel.engines[0].deltas);
    assert_eq!(serial.overall_ipc, parallel.overall_ipc);
    assert_eq!(serial.agg_features, parallel.agg_features);
}

#[test]
fn thread_count_defaults_to_available_parallelism() {
    let config = CollectionConfig::new(
        vec![EngineSpec::gbt250()],
        BugCatalog::new(vec![BugSpec::L2ExtraLatency { t: 10 }]),
    );
    // No 8-thread cap: the default must equal the machine's parallelism
    // and never be clamped above 1.
    assert_eq!(config.threads, perfbug_core::exec::default_threads());
    assert!(config.threads >= 1);
}
