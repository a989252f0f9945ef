//! # perfbug-workloads
//!
//! Synthetic workload generation and SimPoint extraction for the HPCA 2021
//! performance-bug-detection reproduction.
//!
//! The paper probes microarchitectures with short, performance-orthogonal
//! microbenchmarks extracted from SPEC CPU2006 via SimPoints (§III-B1).
//! This crate provides the whole substrate:
//!
//! * [`isa`] — the dynamic micro-op trace model ([`Inst`]) shared by the
//!   core and memory-system simulators,
//! * [`program`] — phase-structured synthetic programs with deterministic
//!   trace walkers,
//! * [`spec`] — ten benchmark profiles modelled on Table I of the paper
//!   (190 SimPoints in total),
//! * [`bbv`], [`kmeans`], [`simpoint`] — the SimPoint pipeline:
//!   basic-block-vector profiling, random projection, k-means clustering
//!   and representative-interval selection producing [`Probe`]s.
//!
//! ```
//! use perfbug_workloads::{benchmark, WorkloadScale};
//!
//! let scale = WorkloadScale::tiny();
//! let mcf = benchmark("426.mcf").expect("suite benchmark");
//! let probes = mcf.probes(&scale);
//! assert_eq!(probes.len(), 15); // Table I: 426.mcf has 15 SimPoints
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bbv;
pub mod isa;
pub mod kmeans;
pub mod program;
pub mod rowmat;
pub mod simpoint;
pub mod spec;

pub use isa::{FuClass, Inst, Opcode, Reg, ALL_OPCODES, FP_REG_BASE, NO_REG, NUM_ARCH_REGS};
pub use program::{MemStreamSpec, PhaseSpec, Program, Segment, Walker};
pub use rowmat::RowMatrix;
pub use simpoint::{extract_probes, extract_simpoints, Probe, SimPoint, SimPointConfig};
pub use spec::{benchmark, spec2006, BenchmarkSpec, WorkloadScale};
