//! The retired workload-trace cache knob.
//!
//! Collection passes regenerate every probe trace from its workload
//! program (`Probe::trace`); no trace is read from or written to disk.

/// The retired `PERFBUG_TRACE_DIR` environment variable: nothing reads
/// it. The constant stays only for the benchmark harness (`perfbench/`),
/// which clears the variable before a run.
pub const TRACE_DIR_ENV: &str = "PERFBUG_TRACE_DIR";
