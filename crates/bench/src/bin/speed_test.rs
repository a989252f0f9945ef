//! Developer tool: measures probe-extraction, trace-generation and
//! simulation throughput per benchmark, cross-design IPC spreads, and the
//! run-level parallel collection engine's throughput (runs/sec) against a
//! serial baseline.
//!
//! ```sh
//! cargo run --release -p perfbug-bench --bin speed_test
//! ```

use std::time::Instant;

use perfbug_core::bugs::BugCatalog;
use perfbug_core::exec;
use perfbug_core::experiment::{collect, CollectionConfig, ProbeScale};
use perfbug_core::stage1::EngineSpec;
use perfbug_ml::{Dataset, Gbt, GbtParams, Regressor, SplitStrategy};
use perfbug_uarch::{simulate_into, BugSpec, ProbeRun};
use perfbug_workloads::Opcode;

fn per_benchmark_simulation() {
    let scale = perfbug_workloads::WorkloadScale::default();
    // One reused ProbeRun: the simulate loop below allocates no rows.
    let mut run = ProbeRun::empty();
    for name in [
        "400.perlbench",
        "403.gcc",
        "426.mcf",
        "433.milc",
        "444.namd",
        "458.sjeng",
        "462.libquantum",
    ] {
        let spec = perfbug_workloads::benchmark(name).unwrap();
        let program = spec.program(&scale);
        let probes = spec.probes(&scale);
        let trace = probes[0].trace(&program);
        let sky = perfbug_uarch::presets::skylake();
        let ivy = perfbug_uarch::presets::ivybridge();
        let k8 = perfbug_uarch::presets::k8();
        let t0 = Instant::now();
        simulate_into(&sky, None, &trace, 1000, &mut run);
        let dt = t0.elapsed();
        let (sky_ipc, sky_cycles, steps) = (run.overall_ipc(), run.total_cycles, run.ipc.len());
        simulate_into(&ivy, None, &trace, 1000, &mut run);
        let (ivy_ipc, ivy_cycles) = (run.overall_ipc(), run.total_cycles);
        simulate_into(&k8, None, &trace, 1000, &mut run);
        let k8_ipc = run.overall_ipc();
        let speedup = (sky_cycles as f64 / 4.0).recip() / (ivy_cycles as f64 / 3.4).recip();
        println!(
            "{name:16} sky ipc {sky_ipc:.2} ivy ipc {ivy_ipc:.2} k8 ipc {k8_ipc:.2} | sky/ivy time-speedup {speedup:.2} | steps {steps} | {:.1} ms/sim",
            dt.as_secs_f64() * 1e3
        );
    }
}

/// The tiny collection configuration shared by the throughput sections.
fn tiny_collect_config(threads: usize) -> CollectionConfig {
    let catalog = BugCatalog::new(vec![
        BugSpec::SerializeOpcode { x: Opcode::Logic },
        BugSpec::L2ExtraLatency { t: 30 },
        BugSpec::MispredictExtraDelay { t: 25 },
    ]);
    let mut config = CollectionConfig::new(
        vec![EngineSpec::Gbt(GbtParams {
            n_trees: 40,
            ..GbtParams::default()
        })],
        catalog,
    );
    config.scale = ProbeScale::tiny();
    config.benchmarks = vec![
        perfbug_workloads::benchmark("458.sjeng").expect("suite"),
        perfbug_workloads::benchmark("462.libquantum").expect("suite"),
    ];
    config.max_probes = Some(8);
    config.threads = threads;
    config
}

/// Times one `collect()` pass and returns (runs simulated, seconds).
fn timed_collect(threads: usize) -> (usize, f64) {
    let config = tiny_collect_config(threads);
    let n_units = perfbug_core::experiment::simulation_units_per_probe(&config);
    let t0 = Instant::now();
    let col = collect(&config);
    let secs = t0.elapsed().as_secs_f64();
    (col.probes.len() * n_units, secs)
}

/// Measures cold collect+save against an evaluation-only replay of the
/// persisted collection, and proves the replay ran zero simulations.
fn replay_throughput() {
    use perfbug_core::persist::{
        cache_file_name, collect_or_load, config_fingerprint, ExperimentKind,
    };

    let config = tiny_collect_config(exec::default_threads());
    let dir = std::env::temp_dir().join(format!("perfbug-speedtest-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp cache dir");
    let path = dir.join(cache_file_name(
        "speed-test",
        ExperimentKind::Core,
        config_fingerprint(&config),
    ));
    let _ = std::fs::remove_file(&path);

    println!();
    println!("collection persistence (same tiny scale):");
    let t0 = Instant::now();
    let (cold, _) = collect_or_load(&path, &config).expect("cold collect+save");
    let cold_secs = t0.elapsed().as_secs_f64();
    let sims_before = exec::simulations_run();
    let t1 = Instant::now();
    let (warm, _) = collect_or_load(&path, &config).expect("replay load");
    let warm_secs = t1.elapsed().as_secs_f64();
    let resimulated = exec::simulations_run() - sims_before;
    assert_eq!(warm, cold, "replayed collection must be identical");
    let bytes = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
    println!("  cold collect+save:   {cold_secs:8.2}s  ({bytes} bytes on disk)");
    println!(
        "  replay load:         {warm_secs:8.4}s  ({:.0}x faster; re-simulated runs: {resimulated})",
        cold_secs / warm_secs.max(1e-9)
    );
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_dir(&dir);
}

fn collection_throughput() {
    let threads = exec::default_threads();
    println!();
    println!("collection throughput (tiny scale, GBT-40, 8 probes):");
    let (runs, serial_secs) = timed_collect(1);
    let serial_rps = runs as f64 / serial_secs;
    println!(
        "  threads=1            {runs:4} runs in {serial_secs:6.2}s -> {serial_rps:8.1} runs/sec"
    );
    let (runs, par_secs) = timed_collect(threads);
    let par_rps = runs as f64 / par_secs;
    println!("  threads={threads:<12} {runs:4} runs in {par_secs:6.2}s -> {par_rps:8.1} runs/sec");
    println!("  parallel speedup: {:.2}x", par_rps / serial_rps);
}

/// Times one GBT fit and the resulting training MSE.
fn timed_gbt_fit(data: &Dataset, strategy: SplitStrategy) -> (f64, f64) {
    let mut model = Gbt::new(GbtParams {
        n_trees: 100,
        split_strategy: strategy,
        ..GbtParams::default()
    });
    let t0 = Instant::now();
    model.fit(data, None);
    let secs = t0.elapsed().as_secs_f64();
    let mse = perfbug_ml::metrics::mse(&model.predict(data.x()), data.y());
    (secs, mse)
}

/// Exact vs histogram GBT split finding on a stage-1-shaped training set.
fn gbt_split_throughput() {
    let (n, f) = (4000, 24);
    let rows: Vec<Vec<f64>> = (0..n)
        .map(|i| {
            (0..f)
                .map(|j| ((i * (j + 3)) as f64 * 0.0137).sin())
                .collect()
        })
        .collect();
    let y: Vec<f64> = rows
        .iter()
        .map(|r| (r[0] + 0.5 * r[f / 2] - r[f - 1]).tanh())
        .collect();
    let data = Dataset::from_rows(&rows, &y).expect("aligned");
    println!();
    println!("GBT split finding ({n}x{f}, 100 trees, depth 4):");
    let (exact_secs, exact_mse) = timed_gbt_fit(&data, SplitStrategy::Exact);
    println!("  exact:               {exact_secs:8.2}s  (train mse {exact_mse:.2e})");
    let (hist_secs, hist_mse) = timed_gbt_fit(&data, SplitStrategy::Histogram { max_bins: 255 });
    println!(
        "  histogram (255 bins):{hist_secs:9.2}s  (train mse {hist_mse:.2e}; {:.1}x faster)",
        exact_secs / hist_secs.max(1e-9)
    );
}

fn main() {
    per_benchmark_simulation();
    gbt_split_throughput();
    collection_throughput();
    replay_throughput();
}
