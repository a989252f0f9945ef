//! # perfbug-uarch
//!
//! Trace-driven, cycle-level out-of-order core simulator with configurable
//! performance-bug injection — the gem5-O3CPU stand-in of the HPCA 2021
//! performance-bug-detection reproduction.
//!
//! The simulator models the resources the paper's experiments vary
//! (Tables II/III): pipeline width, re-order buffer, issue queue with
//! per-port functional-unit pools, physical register file, a gshare+BTB
//! branch predictor, and a three-level cache hierarchy. Performance
//! counters are sampled every time step, producing the per-probe feature
//! time series consumed by the stage-1 IPC models.
//!
//! All sixteen core bug types (§IV-C's fourteen plus two extensions) are
//! injectable via [`BugSpec`]; each is a pure timing defect parameterised
//! for arbitrary severity.
//!
//! ```
//! use perfbug_uarch::{presets, simulate};
//! use perfbug_workloads::{benchmark, WorkloadScale};
//!
//! let scale = WorkloadScale::tiny();
//! let spec = benchmark("426.mcf").expect("suite benchmark");
//! let program = spec.program(&scale);
//! let probe = &spec.probes(&scale)[0];
//! let run = simulate(&presets::skylake(), None, &probe.trace(&program), 500);
//! assert!(run.overall_ipc() > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod branch;
pub mod bugs;
pub mod cache;
pub mod config;
pub mod counters;
pub mod presets;
pub mod sim;

pub use branch::{BranchPredictor, Prediction};
pub use bugs::BugSpec;
pub use cache::{AccessOutcome, Hierarchy};
pub use config::{ArchSet, CacheConfig, FuLatency, MicroarchConfig};
pub use counters::{counter_names, Counter, CounterFile, Snapshot, N_COUNTERS};
pub use perfbug_memsim::LINE_BYTES;
pub use sim::{simulate, simulate_into, ProbeRun};
