//! `pbeval` — per-family detection evaluation over a fuzzed bug catalog.
//!
//! Generates a deterministic bug corpus with [`perfbug_core::fuzz`], runs
//! the full two-stage detection pipeline (collection → stage-1 inference
//! models → stage-2 classification, leave-one-bug-type-out) over it, and
//! reports ROC/AUC and detection latency *per bug family* — the view the
//! pooled Table V numbers hide. Same seed, same report, byte for byte:
//! the fuzzed catalogue is a pure function of the spec and the pipeline
//! is deterministic, so two invocations with equal options diff clean.
//!
//! ```text
//! pbeval [--seed <u64>] [--families <name,...|all>] [--count <n>]
//!        [--band <min[..max]>] [--out <file>] [--list-families]
//! ```
//!
//! The corpus is chosen by flags only. Collection respects the shared
//! cache and shard knobs (`PERFBUG_CACHE_DIR`, `PERFBUG_SHARD`) exactly
//! like the bench targets. See `docs/BUGS.md` for the family list and a
//! walkthrough.

use std::path::PathBuf;
use std::process::ExitCode;

use perfbug_bench::collect_cached;
use perfbug_core::bugs::{BugCatalog, MemBugCatalog, Severity};
use perfbug_core::detmetrics::{Decision, DetectionMetrics};
use perfbug_core::experiment::{
    evaluate_two_stage_subset, Collection, CollectionConfig, ProbeScale,
};
use perfbug_core::fuzz::{Family, FuzzSpec, FuzzedCatalog};
use perfbug_core::memory::{MemCollectionConfig, TargetMetric};
use perfbug_core::report::{json_str, Table};
use perfbug_core::stage1::EngineSpec;
use perfbug_core::stage2::Stage2Params;
use perfbug_ml::GbtParams;
use perfbug_workloads::{benchmark, WorkloadScale};

const USAGE: &str = "\
pbeval — per-family detection evaluation over a fuzzed bug catalog

usage: pbeval [--seed <u64>] [--families <name,...|all>] [--count <n>]
              [--band <min[..max]>] [--out <file>] [--list-families]

  --seed <u64>        fuzzer seed (default 1)
  --families <list>   comma-separated family names, or `all`
                      (default: the four post-paper families)
  --count <n>         variants per family (default 2)
  --band <min[..max]> severity band the calibrated grade must land in,
                      e.g. `Medium..High` or `High`
                      (severities: VeryLow, Low, Medium, High)
  --out <file>        write the JSON report to <file> and print the
                      human-readable table to stdout (default: JSON to
                      stdout)
  --list-families     print every fuzzable family name and exit

The leave-one-bug-type-out protocol needs at least two families per
simulator side; requesting a lone core (or memory) family is an error.
Collection honours PERFBUG_CACHE_DIR and PERFBUG_SHARD.";

/// The post-paper families added on top of the paper's Table III types —
/// the default corpus `pbeval` exercises.
const DEFAULT_FAMILIES: &[&str] = &[
    "TlbPageWalkDelayT",
    "ReplayEveryNDelayT",
    "SppDegreeStride",
    "DramPageCloseDelayT",
];

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("pbeval: {e}");
            eprintln!("run `pbeval --help` for usage");
            ExitCode::FAILURE
        }
    }
}

struct Options {
    seed: u64,
    families: Vec<Family>,
    count: usize,
    band: Option<(Severity, Severity)>,
    out: Option<PathBuf>,
}

fn run(args: &[String]) -> Result<(), String> {
    let mut seed_arg = None;
    let mut families_arg = None;
    let mut count_arg = None;
    let mut band_arg = None;
    let mut out = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| -> Result<String, String> {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} requires a value"))
        };
        match arg.as_str() {
            "--help" | "-h" | "help" => {
                println!("{USAGE}");
                return Ok(());
            }
            "--list-families" => {
                for f in Family::all() {
                    println!("{}", f.name());
                }
                return Ok(());
            }
            "--seed" => seed_arg = Some(value("--seed")?),
            "--families" => families_arg = Some(value("--families")?),
            "--count" => count_arg = Some(value("--count")?),
            "--band" => band_arg = Some(value("--band")?),
            "--out" => out = Some(PathBuf::from(value("--out")?)),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let opts = Options {
        seed: parse_seed(seed_arg)?,
        families: parse_families(families_arg)?,
        count: parse_count(count_arg)?,
        band: parse_band(band_arg)?,
        out,
    };
    evaluate(&opts)
}

fn parse_seed(raw: Option<String>) -> Result<u64, String> {
    match raw {
        None => Ok(1),
        Some(s) => s.parse().map_err(|e| format!("bad seed {s:?}: {e}")),
    }
}

fn parse_count(raw: Option<String>) -> Result<usize, String> {
    let count = match raw {
        None => 2,
        Some(s) => s.parse().map_err(|e| format!("bad count {s:?}: {e}"))?,
    };
    if count == 0 {
        return Err("count must be at least 1".into());
    }
    Ok(count)
}

fn parse_families(raw: Option<String>) -> Result<Vec<Family>, String> {
    let raw = match raw {
        None => return Ok(resolve_names(DEFAULT_FAMILIES.iter().copied())),
        Some(raw) => raw,
    };
    if raw == "all" {
        return Ok(Family::all());
    }
    let mut families = Vec::new();
    for name in raw.split(',').map(str::trim).filter(|n| !n.is_empty()) {
        let family = Family::parse(name)
            .ok_or_else(|| format!("unknown family {name:?} (see --list-families)"))?;
        if !families.contains(&family) {
            families.push(family);
        }
    }
    if families.is_empty() {
        return Err("no families requested".into());
    }
    Ok(families)
}

/// Resolves built-in family names; the names are compile-time constants,
/// so a mismatch is a bug, not user error.
fn resolve_names<'a>(names: impl Iterator<Item = &'a str>) -> Vec<Family> {
    names
        .map(|n| Family::parse(n).unwrap_or_else(|| panic!("built-in family {n:?} must resolve")))
        .collect()
}

fn parse_band(raw: Option<String>) -> Result<Option<(Severity, Severity)>, String> {
    let Some(raw) = raw else { return Ok(None) };
    let (lo, hi) = match raw.split_once("..") {
        Some((lo, hi)) => (parse_severity(lo)?, parse_severity(hi)?),
        None => {
            let s = parse_severity(&raw)?;
            (s, s)
        }
    };
    if lo > hi {
        return Err(format!("empty band {raw:?}: min is above max"));
    }
    Ok(Some((lo, hi)))
}

fn parse_severity(s: &str) -> Result<Severity, String> {
    Severity::all()
        .into_iter()
        .find(|sev| format!("{sev:?}").eq_ignore_ascii_case(s.trim()))
        .ok_or_else(|| format!("unknown severity {s:?} (VeryLow, Low, Medium, High)"))
}

/// Which simulator a collection's folds belong to — fixes how a fold's
/// `type_id` maps back to a [`Family`]. (The memory collection's embedded
/// catalogue is a same-id core placeholder, so its `type_name`s must not
/// be trusted; the id is authoritative.)
#[derive(Clone, Copy)]
enum Side {
    Core,
    Mem,
}

impl Side {
    fn family(self, type_id: u32) -> Family {
        match self {
            Side::Core => Family::Core(type_id),
            Side::Mem => Family::Mem(type_id),
        }
    }

    fn label(self) -> &'static str {
        match self {
            Side::Core => "core",
            Side::Mem => "mem",
        }
    }
}

/// One family's slice of the evaluation.
struct FamilyReport {
    name: &'static str,
    simulator: &'static str,
    /// `(describe, severity, impact)` of each fuzzed variant.
    variants: Vec<(String, Severity, f64)>,
    /// `None` when the fold produced no test decisions.
    metrics: Option<DetectionMetrics>,
    /// ROC curve of the fold's decisions as `(fpr, tpr)` pairs.
    roc: Vec<(f64, f64)>,
    /// Smallest probe-prefix length reaching TPR >= 0.5; `None` = never.
    latency: Option<usize>,
}

fn evaluate(opts: &Options) -> Result<(), String> {
    let spec = FuzzSpec {
        seed: opts.seed,
        families: opts.families.clone(),
        count: opts.count,
        severity_band: opts.band,
    };
    let catalog = spec.generate();
    let params = Stage2Params::default();
    let mut reports = Vec::new();
    let mut overall_core = None;
    let mut overall_mem = None;

    if let Some(core) = catalog.core_catalog() {
        require_two_types(core.type_ids().len(), "core")?;
        eprintln!(
            "pbeval: collecting core side ({} variants, {} families)...",
            core.variants().len(),
            core.type_ids().len()
        );
        let col = collect_cached("pbeval-core", &core_config(core));
        let (fams, pooled) = eval_side(&col, Side::Core, &catalog, params);
        reports.extend(fams);
        overall_core = Some(pooled);
    }
    if let Some(mem) = catalog.mem_catalog() {
        require_two_types(mem.type_ids().len(), "memory")?;
        eprintln!(
            "pbeval: collecting memory side ({} variants, {} families)...",
            mem.variants().len(),
            mem.type_ids().len()
        );
        let col = collect_cached("pbeval-mem", &mem_config(mem));
        let (fams, pooled) = eval_side(&col, Side::Mem, &catalog, params);
        reports.extend(fams);
        overall_mem = Some(pooled);
    }

    let json = render_json(opts, &reports, &overall_core, &overall_mem);
    match &opts.out {
        Some(path) => {
            std::fs::write(path, &json)
                .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
            println!("{}", render_table(&reports));
            println!("JSON report written to {}", path.display());
        }
        None => println!("{json}"),
    }
    Ok(())
}

fn require_two_types(n: usize, side: &str) -> Result<(), String> {
    if n < 2 {
        return Err(format!(
            "the leave-one-type-out protocol needs at least two {side} families \
             (got {n}); request more families or none on this side"
        ));
    }
    Ok(())
}

fn gbt40() -> EngineSpec {
    EngineSpec::Gbt(GbtParams {
        n_trees: 40,
        ..GbtParams::default()
    })
}

/// Core-side collection: the replay-demo footprint (tiny scale, two
/// benchmarks, six probes, GBT-40) with the fuzzed catalogue swapped in.
fn core_config(catalog: BugCatalog) -> CollectionConfig {
    let mut config = CollectionConfig::new(vec![gbt40()], catalog);
    config.scale = ProbeScale::tiny();
    config.benchmarks = vec![
        benchmark("458.sjeng").expect("suite benchmark"),
        benchmark("462.libquantum").expect("suite benchmark"),
    ];
    config.max_probes = Some(6);
    config
}

/// Memory-side collection at the same footprint, targeting AMAT (the
/// paper's memory-focused stage-1 metric).
fn mem_config(catalog: MemBugCatalog) -> MemCollectionConfig {
    let mut config = MemCollectionConfig::new(vec![gbt40()], TargetMetric::Amat);
    config.workload = WorkloadScale::tiny();
    config.max_probes = Some(6);
    config.catalog = catalog;
    config
}

/// Runs the leave-one-type-out evaluation over one collection and slices
/// the outcome per family: fold metrics, fold ROC, and detection latency
/// (the smallest probe-prefix whose fold already reaches TPR >= 0.5 — how
/// few probes the methodology needs before it starts catching the family).
fn eval_side(
    col: &Collection,
    side: Side,
    catalog: &FuzzedCatalog,
    params: Stage2Params,
) -> (Vec<FamilyReport>, DetectionMetrics) {
    let all: Vec<usize> = (0..col.probes.len()).collect();
    let full = evaluate_two_stage_subset(col, 0, params, &all);
    let prefixes: Vec<_> = (1..=col.probes.len())
        .map(|k| {
            let subset: Vec<usize> = (0..k).collect();
            evaluate_two_stage_subset(col, 0, params, &subset)
        })
        .collect();

    let mut reports = Vec::new();
    for fold in &full.folds {
        let metrics =
            (!fold.decisions.is_empty()).then(|| DetectionMetrics::from_decisions(&fold.decisions));
        let roc = DetectionMetrics::roc(&fold.decisions)
            .iter()
            .map(|p| (p.fpr, p.tpr))
            .collect();
        let latency = prefixes.iter().enumerate().find_map(|(i, ev)| {
            let f = ev.folds.iter().find(|f| f.type_id == fold.type_id)?;
            let tpr = fold_tpr(&f.decisions)?;
            (tpr >= 0.5).then_some(i + 1)
        });
        reports.push(FamilyReport {
            name: side.family(fold.type_id).name(),
            simulator: side.label(),
            variants: fuzzed_variants(catalog, side, fold.type_id),
            metrics,
            roc,
            latency,
        });
    }
    (reports, full.metrics)
}

/// TPR of one fold's decisions; `None` when the fold has no positives.
fn fold_tpr(decisions: &[Decision]) -> Option<f64> {
    let pos = decisions.iter().filter(|d| d.has_bug).count();
    if pos == 0 {
        return None;
    }
    let tp = decisions.iter().filter(|d| d.has_bug && d.flagged).count();
    Some(tp as f64 / pos as f64)
}

/// The fuzzed variants of one family, with their calibration evidence.
fn fuzzed_variants(
    catalog: &FuzzedCatalog,
    side: Side,
    type_id: u32,
) -> Vec<(String, Severity, f64)> {
    match side {
        Side::Core => catalog
            .core
            .iter()
            .filter(|v| v.spec.type_id() == type_id)
            .map(|v| (v.spec.describe(), v.severity, v.impact))
            .collect(),
        Side::Mem => catalog
            .mem
            .iter()
            .filter(|v| v.spec.type_id() == type_id)
            .map(|v| (v.spec.describe(), v.severity, v.impact))
            .collect(),
    }
}

// ---------------------------------------------------------------------------
// Rendering. The JSON is hand-rolled (no serde in the workspace) and must
// stay deterministic: fixed field order, fixed float precision, no
// timestamps or timings — two equal invocations diff byte-identical.

fn render_json(
    opts: &Options,
    reports: &[FamilyReport],
    overall_core: &Option<DetectionMetrics>,
    overall_mem: &Option<DetectionMetrics>,
) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"tool\": \"pbeval\",\n");
    out.push_str(&format!("  \"seed\": {},\n", opts.seed));
    out.push_str(&format!("  \"count\": {},\n", opts.count));
    let band = match opts.band {
        Some((lo, hi)) => format!("\"{lo:?}..{hi:?}\""),
        None => "null".into(),
    };
    out.push_str(&format!("  \"band\": {band},\n"));
    let requested: Vec<String> = opts.families.iter().map(|f| json_str(f.name())).collect();
    out.push_str(&format!("  \"requested\": [{}],\n", requested.join(", ")));
    out.push_str("  \"families\": [\n");
    for (i, r) in reports.iter().enumerate() {
        out.push_str("    {\n");
        out.push_str(&format!("      \"family\": {},\n", json_str(r.name)));
        out.push_str(&format!(
            "      \"simulator\": {},\n",
            json_str(r.simulator)
        ));
        out.push_str("      \"variants\": [\n");
        for (j, (describe, severity, impact)) in r.variants.iter().enumerate() {
            out.push_str(&format!(
                "        {{\"describe\": {}, \"severity\": \"{severity:?}\", \
                 \"impact\": {}}}{}\n",
                json_str(describe),
                json_f(*impact),
                comma(j, r.variants.len()),
            ));
        }
        out.push_str("      ],\n");
        out.push_str(&format!(
            "      \"metrics\": {},\n",
            metrics_json(&r.metrics.as_ref())
        ));
        let latency = match r.latency {
            Some(k) => k.to_string(),
            None => "null".into(),
        };
        out.push_str(&format!("      \"detection_latency_probes\": {latency},\n"));
        let roc: Vec<String> = r
            .roc
            .iter()
            .map(|(fpr, tpr)| format!("[{}, {}]", json_f(*fpr), json_f(*tpr)))
            .collect();
        out.push_str(&format!("      \"roc\": [{}]\n", roc.join(", ")));
        out.push_str(&format!("    }}{}\n", comma(i, reports.len())));
    }
    out.push_str("  ],\n");
    out.push_str(&format!(
        "  \"overall\": {{\"core\": {}, \"mem\": {}}}\n",
        metrics_json(&overall_core.as_ref()),
        metrics_json(&overall_mem.as_ref()),
    ));
    out.push_str("}\n");
    out
}

fn comma(i: usize, len: usize) -> &'static str {
    if i + 1 < len {
        ","
    } else {
        ""
    }
}

fn metrics_json(m: &Option<&DetectionMetrics>) -> String {
    let Some(m) = m else { return "null".into() };
    format!(
        "{{\"tpr\": {}, \"fpr\": {}, \"precision\": {}, \"auc\": {}, \
         \"positives\": {}, \"negatives\": {}}}",
        json_f(m.tpr),
        json_f(m.fpr),
        json_f(m.precision),
        json_f(m.roc_auc),
        m.positives,
        m.negatives,
    )
}

/// Fixed-precision JSON float; non-finite values become `null`.
fn json_f(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.6}")
    } else {
        "null".into()
    }
}

fn render_table(reports: &[FamilyReport]) -> String {
    let mut table = Table::new(vec![
        "Family",
        "Sim",
        "Variants",
        "TPR",
        "FPR",
        "Precision",
        "AUC",
        "Latency (probes)",
    ]);
    for r in reports {
        let m = |f: fn(&DetectionMetrics) -> f64| match &r.metrics {
            Some(m) => format!("{:.2}", f(m)),
            None => "-".into(),
        };
        table.row(vec![
            r.name.to_string(),
            r.simulator.to_string(),
            r.variants.len().to_string(),
            m(|m| m.tpr),
            m(|m| m.fpr),
            m(|m| m.precision),
            m(|m| m.roc_auc),
            match r.latency {
                Some(k) => k.to_string(),
                None => "never".into(),
            },
        ]);
    }
    table.render()
}
