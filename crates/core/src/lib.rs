//! # perfbug-core
//!
//! The two-stage, machine-learning-based microprocessor performance-bug
//! detection methodology of *"Automatic Microprocessor Performance Bug
//! Detection"* (HPCA 2021), built on the substrates of this workspace:
//! synthetic SPEC-like workloads with SimPoint probes
//! ([`perfbug_workloads`]), a cycle-level out-of-order core simulator
//! ([`perfbug_uarch`]), a cache-hierarchy simulator ([`perfbug_memsim`])
//! and from-scratch ML engines ([`perfbug_ml`]).
//!
//! ## Pipeline
//!
//! 1. [`counter_select`] — per-probe two-step Pearson counter selection.
//! 2. [`stage1`] — one IPC (or AMAT) regression model per probe, trained
//!    on bug-free legacy designs; Eq. (1) inference-error signal.
//! 3. [`stage2`] — rule-based classifier over per-probe errors (γ ratios,
//!    trained α, η = 15, λ = 5).
//! 4. [`experiment`] — the leave-one-bug-type-out evaluation protocol over
//!    the Table II design sets; [`baseline`] is the single-stage voting
//!    detector the paper compares against.
//!
//! ```no_run
//! use perfbug_core::bugs::BugCatalog;
//! use perfbug_core::experiment::{collect, evaluate_two_stage, CollectionConfig};
//! use perfbug_core::stage1::EngineSpec;
//! use perfbug_core::stage2::Stage2Params;
//!
//! let config = CollectionConfig::new(vec![EngineSpec::gbt250()], BugCatalog::core_small());
//! let collection = collect(&config);
//! let eval = evaluate_two_stage(&collection, 0, Stage2Params::default());
//! println!("TPR {:.2} FPR {:.2}", eval.metrics.tpr, eval.metrics.fpr);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baseline;
pub mod bugs;
pub mod counter_select;
pub mod detmetrics;
pub mod exec;
pub mod experiment;
pub mod fuzz;
pub mod localize;
pub mod memory;
pub mod orchestrate;
pub mod persist;
pub mod report;
pub mod serve;
pub mod stage1;
pub mod stage2;
pub mod tracecache;

pub use bugs::{BugCatalog, MemBugCatalog, Severity};
pub use detmetrics::{Decision, DetectionMetrics};
pub use exec::ShardSpec;
pub use experiment::{
    collect, evaluate_baseline, evaluate_two_stage, evaluate_two_stage_subset, ArchPartition,
    Collection, CollectionConfig, ProbeScale, RunKey,
};
pub use fuzz::{Family, FuzzSpec, FuzzedCatalog, FuzzedVariant};
pub use memory::{MemCollectionConfig, TargetMetric};
pub use orchestrate::{
    orchestrate_collection, run_orchestrator, CollectPlan, Fault, OrchestrateError,
    OrchestratedRun, OrchestratorConfig, RunReport,
};
pub use persist::{
    collect_or_load, collect_shard_or_resume, config_fingerprint, load_collection,
    merge_shard_files, part_path_for, save_collection, scan_part, scan_part_file, verify_stream,
    CacheStatus, ChunkEntry, ExperimentKind, FileHeader, PersistError, ProbeReader,
    RecoveredPrefix, ShardManifest, ShardOutcome, ShardStreamWriter,
};
pub use stage1::{inference_error, EngineSpec, FeatureSpec, ProbeModel, RunSeries};
pub use stage2::{Stage2Classifier, Stage2Params};
