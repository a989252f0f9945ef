//! Memory-system bug detection with AMAT as the target metric (§IV-D).
//!
//! Exercises the ChampSim-like hierarchy simulator: probes from the
//! 22-SimPoint memory suite run on twelve cache-hierarchy designs, a GBT
//! model per probe learns bug-free AMAT behaviour, and the two-stage
//! detector is evaluated on replacement-policy and prefetcher defects.
//!
//! ```sh
//! cargo run --release --example memory_system
//! ```

use perfbug_core::experiment::{collect, evaluate_two_stage};
use perfbug_core::memory::{mem_variant_names, MemCollectionConfig, TargetMetric};
use perfbug_core::stage1::EngineSpec;
use perfbug_core::stage2::Stage2Params;
use perfbug_core::MemBugCatalog;
use perfbug_workloads::WorkloadScale;

fn main() {
    let mut config = MemCollectionConfig::new(vec![EngineSpec::gbt250()], TargetMetric::Amat);
    config.workload = WorkloadScale::tiny();
    config.step_cycles = 300;
    config.max_probes = Some(10);

    println!("simulating the memory probe suite on 12 hierarchies...");
    let names = mem_variant_names(&config.catalog);
    let col = collect(&config);
    println!(
        "collected {} probes x {} runs",
        col.probes.len(),
        col.keys.len()
    );

    let eval = evaluate_two_stage(&col, 0, Stage2Params::default());
    println!(
        "\nAMAT-based detection: TPR {:.3}  FPR {:.3}  precision {:.3}  AUC {:.3}",
        eval.metrics.tpr, eval.metrics.fpr, eval.metrics.precision, eval.metrics.roc_auc
    );

    println!("\nper held-out memory bug type:");
    for fold in &eval.folds {
        let hits = fold
            .decisions
            .iter()
            .filter(|d| d.has_bug && d.flagged)
            .count();
        let total = fold.decisions.iter().filter(|d| d.has_bug).count();
        println!(
            "  type {:2} {:20} {hits}/{total}",
            fold.type_id, fold.type_name
        );
    }

    println!("\ninjected variants and their measured AMAT-side impact:");
    let catalog = MemBugCatalog::full();
    for (v, name) in names.iter().enumerate().take(catalog.len()) {
        println!("  {:52} impact {:6.2}%", name, eval.impacts[v] * 100.0);
    }
}
