//! # perfbug-memsim
//!
//! Trace-driven cache-hierarchy simulator — the ChampSim stand-in of the
//! HPCA 2021 performance-bug-detection reproduction (§IV-D).
//!
//! Models a three-level data-cache hierarchy with LRU replacement over
//! per-set recency lists and a Signature Path Prefetcher (SPP) at the L2
//! boundary.
//! Per-time-step counters, IPC and AMAT series feed the same two-stage
//! detection methodology used for the core; the six memory bug types of
//! the paper are injectable via [`MemBugSpec`].
//!
//! ```
//! use perfbug_memsim::{config, simulate_memory};
//! use perfbug_workloads::{benchmark, WorkloadScale};
//!
//! let scale = WorkloadScale::tiny();
//! let spec = benchmark("462.libquantum").expect("suite benchmark");
//! let program = spec.program(&scale);
//! let probe = &spec.probes(&scale)[0];
//! let cfg = config::by_name("Skylake").expect("preset");
//! let run = simulate_memory(&cfg, None, &probe.trace(&program), 200);
//! assert!(run.overall_amat() > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bugs;
pub mod cache;
pub mod config;
pub mod probes;
pub mod sim;
pub mod spp;

pub use bugs::{CacheLevel, MemBugSpec};
pub use cache::{LookupResult, RecencyCache, ReplacementBugs, LINE_BYTES};
pub use config::{ArchSet, CacheConfig, MemArchConfig};
pub use probes::{memory_suite, MEMORY_SUITE};
pub use sim::{mem_counter_names, simulate_memory, MemRun, N_MEM_COUNTERS};
pub use spp::{Spp, SppBugs, SppConfig};
