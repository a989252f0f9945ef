//! Criterion micro-benchmarks of the performance-critical kernels:
//! out-of-order simulation throughput, memory-hierarchy simulation,
//! stage-1 engine training, k-means clustering and counter selection.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};

use perfbug_core::counter_select::{select_counters, SelectionThresholds};
use perfbug_ml::{
    axpy, dot, gemv, matmul_transb, Dataset, Gbt, GbtParams, Matrix, Mlp, MlpParams, Regressor,
};
use perfbug_uarch::{presets, simulate, simulate_into, BugSpec, ProbeRun};
use perfbug_workloads::{benchmark, kmeans::kmeans, Inst, Opcode, WorkloadScale};

fn probe_trace() -> Vec<Inst> {
    let scale = WorkloadScale::tiny();
    let spec = benchmark("458.sjeng").expect("suite benchmark");
    let program = spec.program(&scale);
    spec.probes(&scale)[0].trace(&program)
}

fn bench_linalg(c: &mut Criterion) {
    // MLP-batch-shaped operands: a 32-row batch against a 256x64 layer.
    let a = Matrix::from_vec(
        32,
        64,
        (0..32 * 64)
            .map(|i| ((i * 37) % 101) as f64 / 50.0 - 1.0)
            .collect(),
    );
    let wt = Matrix::from_vec(
        256,
        64,
        (0..256 * 64)
            .map(|i| ((i * 53) % 97) as f64 / 48.0 - 1.0)
            .collect(),
    );
    let mut out = vec![0.0; 32 * 256];
    c.bench_function("matmul_transb_32x64_by_64x256", |b| {
        b.iter(|| {
            matmul_transb(a.as_slice(), wt.as_slice(), 32, 64, 256, &mut out);
            out[0]
        })
    });
    let x: Vec<f64> = (0..64).map(|i| (i as f64 * 0.11).sin()).collect();
    let mut y = vec![0.0; 256];
    c.bench_function("gemv_256x64", |b| {
        b.iter(|| {
            gemv(wt.as_slice(), 256, 64, &x, &mut y);
            y[0]
        })
    });
    let src: Vec<f64> = (0..4096).map(|i| (i as f64 * 0.01).cos()).collect();
    let mut dst = vec![0.0; 4096];
    c.bench_function("axpy_4096", |b| {
        b.iter(|| {
            axpy(1.0001, &src, &mut dst);
            dst[0]
        })
    });
    // Audit partner of axpy_4096: both innermost kernels 4-lane unrolled
    // (numbers recorded in docs/ENGINES.md).
    c.bench_function("dot_4096", |b| b.iter(|| dot(&src, &dst)));
}

fn bench_simulators(c: &mut Criterion) {
    let trace = probe_trace();
    let sky = presets::skylake();
    c.bench_function("uarch_sim_3k_insts_skylake", |b| {
        b.iter(|| simulate(&sky, None, &trace, 500))
    });
    // A 64 MiB L3 and a 64-entry IQ: what a simulation costs on the
    // largest design, so cost that scales with the design stays visible.
    let broadwell = presets::broadwell();
    c.bench_function("uarch_sim_3k_insts_broadwell", |b| {
        b.iter(|| simulate(&broadwell, None, &trace, 500))
    });
    // The allocation-free path: one reused ProbeRun across iterations, so
    // each iteration measures pure pipeline + delta-snapshot sampling.
    let mut reused = ProbeRun::empty();
    c.bench_function("uarch_sim_3k_insts_reused_buffers", |b| {
        b.iter(|| {
            simulate_into(&sky, None, &trace, 500, &mut reused);
            reused.total_cycles
        })
    });
    // Per-step sampling cost in isolation: a step period so short that
    // the run is dominated by sample_row_into invocations.
    c.bench_function("uarch_sim_single_step_sampling", |b| {
        b.iter(|| {
            simulate_into(&sky, None, &trace, 16, &mut reused);
            reused.counter_rows.len()
        })
    });
    c.bench_function("uarch_sim_3k_insts_with_bug", |b| {
        b.iter(|| {
            simulate(
                &sky,
                Some(BugSpec::SerializeOpcode { x: Opcode::Logic }),
                &trace,
                500,
            )
        })
    });
    let mem_cfg = perfbug_memsim::config::by_name("Skylake").expect("preset");
    c.bench_function("memsim_3k_insts_skylake", |b| {
        b.iter(|| perfbug_memsim::simulate_memory(&mem_cfg, None, &trace, 300))
    });
    // A 16 MiB 32-way LLC and a 1 MiB L2, the largest memory geometry: what
    // a memory simulation costs when the cache arrays are biggest.
    let m2 = perfbug_memsim::config::by_name("Artificial M2").expect("preset");
    c.bench_function("memsim_3k_insts_artificial_m2", |b| {
        b.iter(|| perfbug_memsim::simulate_memory(&m2, None, &trace, 300))
    });
}

fn bench_engines(c: &mut Criterion) {
    // A stage-1-shaped dataset: 300 samples x 8 features.
    let rows: Vec<Vec<f64>> = (0..300)
        .map(|i| {
            (0..8)
                .map(|j| ((i * (j + 3)) as f64 * 0.013).sin())
                .collect()
        })
        .collect();
    let y: Vec<f64> = rows
        .iter()
        .map(|r| r.iter().sum::<f64>() * 0.2 + 0.5)
        .collect();
    let data = Dataset::from_rows(&rows, &y).expect("aligned");
    c.bench_function("gbt250_train_300x8", |b| {
        b.iter_batched(
            || Gbt::new(GbtParams::default()),
            |mut m| m.fit(&data, None),
            BatchSize::SmallInput,
        )
    });
    c.bench_function("mlp64_train_300x8_50epochs", |b| {
        b.iter_batched(
            || {
                Mlp::new(MlpParams {
                    hidden: vec![64],
                    max_epochs: 50,
                    patience: 50,
                    ..MlpParams::default()
                })
            },
            |mut m| m.fit(&data, None),
            BatchSize::SmallInput,
        )
    });
    let trained = {
        let mut m = Gbt::new(GbtParams::default());
        m.fit(&data, None);
        m
    };
    c.bench_function("gbt250_infer_300", |b| b.iter(|| trained.predict(data.x())));
}

fn bench_pipeline_pieces(c: &mut Criterion) {
    // k-means on SimPoint-shaped data: 78 intervals x 15 dims, k = 26.
    let points: Vec<Vec<f64>> = (0..78)
        .map(|i| {
            (0..15)
                .map(|j| (((i / 3) * 31 + j * 7) as f64 * 0.17).sin())
                .collect()
        })
        .collect();
    c.bench_function("kmeans_78x15_k26", |b| {
        b.iter(|| kmeans(&points, 26, 1, 200))
    });

    // Counter selection on a probe-shaped pool: 400 steps x 53 counters.
    let rows = perfbug_workloads::RowMatrix::from_rows(
        &(0..400)
            .map(|i| {
                (0..53)
                    .map(|j| ((i * (j + 2)) as f64 * 0.011).sin())
                    .collect()
            })
            .collect::<Vec<Vec<f64>>>(),
    );
    let target: Vec<f64> = rows.iter().map(|r| r[3] * 0.7 + r[10] * 0.3).collect();
    let thresholds = SelectionThresholds::default();
    c.bench_function("counter_selection_400x53", |b| {
        b.iter(|| select_counters(&rows, &target, &thresholds, &[]))
    });
}

criterion_group!(
    name = kernels;
    config = Criterion::default().sample_size(10);
    targets = bench_linalg, bench_simulators, bench_engines, bench_pipeline_pieces
);
criterion_main!(kernels);
