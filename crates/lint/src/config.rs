//! Workspace policy: which files each rule class applies to, and the
//! declared `PERFBUG_*` environment-variable registry.
//!
//! Paths are workspace-relative with forward slashes. The lists are
//! deliberately explicit — adding a file to an invariant scope is a
//! reviewed decision, recorded here and in `docs/LINTS.md`.

/// Files whose bytes or text end up in deterministic output: the PBCL
/// codec, the orchestrator run report, detection reports and the cache
/// CLIs. `HashMap`/`HashSet` iteration order must not reach any of them
/// ([`hash-iter`](crate::rules)).
pub const OUTPUT_CRITICAL: &[&str] = &[
    "crates/core/src/persist.rs",
    "crates/core/src/orchestrate/mod.rs",
    "crates/core/src/orchestrate/remote.rs",
    "crates/core/src/serve.rs",
    "crates/core/src/report.rs",
    "crates/bench/src/lib.rs",
    "crates/bench/src/specs.rs",
    "crates/bench/src/bin/pbcol.rs",
    "crates/bench/src/bin/pborch.rs",
    "crates/bench/src/bin/pbeval.rs",
    "crates/bench/src/bin/pbserve.rs",
    "crates/bench/src/bin/pbsub.rs",
];

/// Files allowed to read wall clocks (`Instant::now`, `SystemTime::now`):
/// the benchmark harness, the execution engine's timing fields (zeroed
/// before any identity comparison) and supervision timeouts. Everything
/// else must not read time.
pub const TIMING_ALLOWED: &[&str] = &[
    "crates/compat/criterion/src/lib.rs",
    "crates/core/src/exec.rs",
    "crates/core/src/orchestrate/mod.rs",
    "crates/core/src/orchestrate/remote.rs",
];

/// Panic-free zones: codec decode/recovery paths and orchestrator
/// supervision. A panic here aborts the supervisor or turns a corrupt
/// cache file into a crash instead of a reported `Err`, making
/// retry/resume logic unreachable.
pub const PANIC_FREE: &[&str] = &[
    "crates/core/src/persist.rs",
    "crates/core/src/orchestrate/mod.rs",
    "crates/core/src/orchestrate/remote.rs",
    "crates/core/src/serve.rs",
];

/// Rule applicability of one scanned file.
#[derive(Debug, Clone, Copy, Default)]
pub struct FileClass {
    /// In [`OUTPUT_CRITICAL`].
    pub output_critical: bool,
    /// In [`TIMING_ALLOWED`].
    pub timing_allowed: bool,
    /// In [`PANIC_FREE`].
    pub panic_free: bool,
}

/// Classifies a workspace-relative path.
pub fn classify(rel: &str) -> FileClass {
    FileClass {
        output_critical: OUTPUT_CRITICAL.contains(&rel),
        timing_allowed: TIMING_ALLOWED.contains(&rel),
        panic_free: PANIC_FREE.contains(&rel),
    }
}

/// One declared `PERFBUG_*` environment variable.
#[derive(Debug, Clone, Copy)]
pub struct EnvVar {
    /// The exact variable name.
    pub name: &'static str,
    /// What it does (mirrors README / docs).
    pub purpose: &'static str,
}

/// The registry of every `PERFBUG_*` variable the workspace may read.
/// [`env-registry`](crate::rules) fails on any `PERFBUG_*` spelling in
/// code that is not listed here, on registry entries no code mentions,
/// and on entries absent from README/docs.
pub const ENV_REGISTRY: &[EnvVar] = &[
    EnvVar {
        name: "PERFBUG_SCALE",
        purpose: "bench harness scale: quick (default) or paper",
    },
    EnvVar {
        name: "PERFBUG_CACHE_DIR",
        purpose: "collection cache directory for evaluation targets",
    },
    EnvVar {
        name: "PERFBUG_TRACE_DIR",
        purpose: "retired; read by nothing",
    },
    EnvVar {
        name: "PERFBUG_SHARD",
        purpose: "run a bench target as shard worker <i>/<n>",
    },
    EnvVar {
        name: "PERFBUG_ORCH_FAULT",
        purpose: "orchestrator fault injection (CI guard test hook)",
    },
    EnvVar {
        name: "PERFBUG_SERVE_ADDR",
        purpose: "pbserve/pbsub service address (default 127.0.0.1:7411)",
    },
    EnvVar {
        name: "PERFBUG_SERVE_STORE",
        purpose: "pbserve multi-tenant corpus store root directory",
    },
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classify_matches_lists() {
        assert!(classify("crates/core/src/persist.rs").output_critical);
        assert!(classify("crates/core/src/persist.rs").panic_free);
        assert!(classify("crates/core/src/exec.rs").timing_allowed);
        let none = classify("crates/ml/src/gbt.rs");
        assert!(!none.output_critical && !none.timing_allowed && !none.panic_free);
    }

    #[test]
    fn registry_names_are_unique_and_prefixed() {
        for (i, v) in ENV_REGISTRY.iter().enumerate() {
            assert!(v.name.starts_with("PERFBUG_"), "{}", v.name);
            assert!(
                ENV_REGISTRY[i + 1..].iter().all(|w| w.name != v.name),
                "duplicate {}",
                v.name
            );
        }
    }
}
