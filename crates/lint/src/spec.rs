//! `format-spec`: the constants `docs/FORMAT.md` promises must be the
//! constants `crates/core/src/persist.rs` declares.
//!
//! The spec is the contract external tooling reads; the codec is what
//! actually writes bytes. Each side is parsed independently — the doc
//! through sentence anchors, the source through `const` declarations
//! (with a small `+`/parenthesis evaluator so layout constants written
//! as field sums stay self-describing) — and any disagreement, or a
//! missing anchor, is a finding. Renaming a constant or rewording an
//! anchored sentence without updating the other side fails CI.

use std::collections::BTreeMap;

use crate::Finding;

/// A value promised by the spec: either a number or an ASCII tag.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpecValue {
    /// Numeric constant (sizes, versions, hash parameters).
    Num(u64),
    /// ASCII tag (the magic).
    Tag(String),
}

impl std::fmt::Display for SpecValue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SpecValue::Num(n) => write!(f, "{n} (0x{n:x})"),
            SpecValue::Tag(s) => write!(f, "{s:?}"),
        }
    }
}

const DOC_PATH: &str = "docs/FORMAT.md";
const CODE_PATH: &str = "crates/core/src/persist.rs";

/// Checks FORMAT.md (`doc`) against persist.rs (`code`). Both are passed
/// as strings so the drift tests can feed mutated copies.
pub fn check_format_spec(doc: &str, code: &str) -> Vec<Finding> {
    let mut findings = Vec::new();
    let doc_vals = parse_format_md(doc, &mut findings);
    let code_vals = parse_persist_consts(code, &mut findings);

    // (spec key, source constant) pairs under one contract.
    let contract: &[(&str, &str)] = &[
        ("magic", "MAGIC"),
        ("format version", "FORMAT_VERSION"),
        ("header bytes", "HEADER_LEN"),
        ("trailer bytes", "TRAILER_LEN"),
        ("chunk frame bytes", "CHUNK_FRAME_LEN"),
        ("chunk overhead bytes", "CHUNK_OVERHEAD"),
        ("fnv offset basis", "FNV_BASIS"),
        ("fnv prime", "FNV_PRIME"),
    ];

    for (doc_key, const_name) in contract {
        match (doc_vals.get(*doc_key), code_vals.get(*const_name)) {
            (Some(d), Some(c)) if d != c => findings.push(Finding {
                rule: "format-spec",
                file: DOC_PATH.to_string(),
                line: 0,
                message: format!(
                    "spec drift: FORMAT.md says {doc_key} = {d}, but persist.rs \
                     declares {const_name} = {c}"
                ),
            }),
            (Some(_), Some(_)) => {}
            // Extraction failures were already reported by the parsers.
            _ => {}
        }
    }
    findings
}

/// Extracts the anchored constants from FORMAT.md. A missing anchor is
/// itself a finding: the sentence the check keys on is part of the spec.
fn parse_format_md(doc: &str, findings: &mut Vec<Finding>) -> BTreeMap<&'static str, SpecValue> {
    // Collapse whitespace so anchors can span line wraps.
    let flat: String = doc.split_whitespace().collect::<Vec<_>>().join(" ");
    let mut vals = BTreeMap::new();
    let miss = |findings: &mut Vec<Finding>, key: &str, anchor: &str| {
        findings.push(Finding {
            rule: "format-spec",
            file: DOC_PATH.to_string(),
            line: 0,
            message: format!(
                "FORMAT.md anchor for {key} not found (expected a sentence containing \
                 {anchor:?}) — the spec and this check must move together"
            ),
        });
    };

    match tag_after(&flat, "magic: the ASCII bytes \"") {
        Some(t) => {
            vals.insert("magic", SpecValue::Tag(t));
        }
        None => miss(findings, "magic", "magic: the ASCII bytes \""),
    }
    match num_after(&flat, "(this spec: ") {
        Some(n) => {
            vals.insert("format version", SpecValue::Num(n));
        }
        None => miss(findings, "format version", "(this spec: "),
    }
    match num_between(&flat, "The fixed header is ", " bytes") {
        Some(n) => {
            vals.insert("header bytes", SpecValue::Num(n));
        }
        None => miss(findings, "header bytes", "The fixed header is <n> bytes"),
    }
    match num_between(&flat, "the fixed trailer is the last ", " bytes") {
        Some(n) => {
            vals.insert("trailer bytes", SpecValue::Num(n));
        }
        None => miss(
            findings,
            "trailer bytes",
            "the fixed trailer is the last <n> bytes",
        ),
    }
    match num_between(&flat, "The ", "-byte frame plus the") {
        Some(n) => {
            vals.insert("chunk frame bytes", SpecValue::Num(n));
        }
        None => miss(findings, "chunk frame bytes", "The <n>-byte frame plus the"),
    }
    match num_between(&flat, "per-chunk overhead ", " bytes") {
        Some(n) => {
            vals.insert("chunk overhead bytes", SpecValue::Num(n));
        }
        None => miss(
            findings,
            "chunk overhead bytes",
            "per-chunk overhead <n> bytes",
        ),
    }
    match hex_after(&flat, "offset basis `0x") {
        Some(n) => {
            vals.insert("fnv offset basis", SpecValue::Num(n));
        }
        None => miss(findings, "fnv offset basis", "offset basis `0x"),
    }
    match hex_after(&flat, "prime `0x") {
        Some(n) => {
            vals.insert("fnv prime", SpecValue::Num(n));
        }
        None => miss(findings, "fnv prime", "prime `0x"),
    }
    vals
}

fn tag_after(flat: &str, anchor: &str) -> Option<String> {
    let rest = &flat[flat.find(anchor)? + anchor.len()..];
    let end = rest.find('"')?;
    (!rest[..end].is_empty()).then(|| rest[..end].to_string())
}

fn num_after(flat: &str, anchor: &str) -> Option<u64> {
    let rest = &flat[flat.find(anchor)? + anchor.len()..];
    take_digits(rest)
}

/// First number appearing between `pre` and a following `post`.
fn num_between(flat: &str, pre: &str, post: &str) -> Option<u64> {
    let mut from = 0;
    while let Some(p) = flat[from..].find(pre) {
        let start = from + p + pre.len();
        let rest = &flat[start..];
        let digits: String = rest.chars().take_while(|c| c.is_ascii_digit()).collect();
        if !digits.is_empty() && rest[digits.len()..].starts_with(post) {
            return digits.parse().ok();
        }
        from = start;
    }
    None
}

fn hex_after(flat: &str, anchor: &str) -> Option<u64> {
    let rest = &flat[flat.find(anchor)? + anchor.len()..];
    let hex: String = rest.chars().take_while(|c| c.is_ascii_hexdigit()).collect();
    (!hex.is_empty()).then(|| u64::from_str_radix(&hex, 16).ok())?
}

fn take_digits(rest: &str) -> Option<u64> {
    let digits: String = rest.chars().take_while(|c| c.is_ascii_digit()).collect();
    digits.parse().ok()
}

/// The `const` names the contract needs from persist.rs.
const CONST_NAMES: &[&str] = &[
    "MAGIC",
    "FORMAT_VERSION",
    "HEADER_LEN",
    "TRAILER_LEN",
    "CHUNK_FRAME_LEN",
    "CHUNK_OVERHEAD",
    "FNV_BASIS",
    "FNV_PRIME",
];

/// Extracts the contract constants from persist.rs, evaluating `+` /
/// parenthesis expressions (layout constants are written as field sums)
/// and resolving references between them.
fn parse_persist_consts(code: &str, findings: &mut Vec<Finding>) -> BTreeMap<String, SpecValue> {
    // Raw initializer text per constant.
    let mut raw: BTreeMap<String, String> = BTreeMap::new();
    for line in code.lines() {
        let t = line.trim();
        if t.starts_with("//") || t.starts_with('*') {
            continue;
        }
        let t = t
            .strip_prefix("pub(crate) ")
            .or_else(|| t.strip_prefix("pub "))
            .unwrap_or(t);
        let Some(rest) = t.strip_prefix("const ") else {
            continue;
        };
        let Some((name, after)) = rest.split_once(':') else {
            continue;
        };
        let name = name.trim();
        if !CONST_NAMES.contains(&name) {
            continue;
        }
        if let Some((_, init)) = after.split_once('=') {
            if let Some(init) = init.trim().strip_suffix(';') {
                raw.insert(name.to_string(), init.trim().to_string());
            }
        }
    }

    let mut vals: BTreeMap<String, SpecValue> = BTreeMap::new();
    // MAGIC is an ASCII byte-string literal, not arithmetic.
    if let Some(init) = raw.get("MAGIC") {
        if let Some(tag) = init
            .split("b\"")
            .nth(1)
            .and_then(|r| r.split('"').next())
            .filter(|t| !t.is_empty())
        {
            vals.insert("MAGIC".into(), SpecValue::Tag(tag.to_string()));
        }
    }
    // Two resolution passes cover one level of const-to-const reference
    // (CHUNK_OVERHEAD = CHUNK_FRAME_LEN + 8).
    for _ in 0..2 {
        for name in CONST_NAMES {
            if *name == "MAGIC" || vals.contains_key(*name) {
                continue;
            }
            if let Some(init) = raw.get(*name) {
                if let Some(n) = eval_expr(init, &vals) {
                    vals.insert((*name).to_string(), SpecValue::Num(n));
                }
            }
        }
    }

    for name in CONST_NAMES {
        if !vals.contains_key(*name) {
            findings.push(Finding {
                rule: "format-spec",
                file: CODE_PATH.to_string(),
                line: 0,
                message: format!(
                    "could not extract const {name} from persist.rs — if it was renamed or \
                     restructured, update crates/lint/src/spec.rs and docs/FORMAT.md together"
                ),
            });
        }
    }
    vals
}

/// Evaluates `+`-and-parenthesis expressions over integer literals
/// (decimal, hex, `_` separators) and already-resolved const names.
fn eval_expr(expr: &str, env: &BTreeMap<String, SpecValue>) -> Option<u64> {
    let mut total = 0u64;
    for part in split_top_level(expr)? {
        let part = part.trim();
        let v = if let Some(inner) = part.strip_prefix('(').and_then(|p| p.strip_suffix(')')) {
            eval_expr(inner, env)?
        } else if let Some(hex) = part.strip_prefix("0x") {
            u64::from_str_radix(&hex.replace('_', ""), 16).ok()?
        } else if part.chars().all(|c| c.is_ascii_digit() || c == '_') && !part.is_empty() {
            part.replace('_', "").parse().ok()?
        } else {
            match env.get(part)? {
                SpecValue::Num(n) => *n,
                SpecValue::Tag(_) => return None,
            }
        };
        total = total.checked_add(v)?;
    }
    Some(total)
}

/// Splits on `+` at parenthesis depth zero.
fn split_top_level(expr: &str) -> Option<Vec<String>> {
    let mut parts = Vec::new();
    let mut cur = String::new();
    let mut depth = 0i32;
    for c in expr.chars() {
        match c {
            '(' => {
                depth += 1;
                cur.push(c);
            }
            ')' => {
                depth -= 1;
                if depth < 0 {
                    return None;
                }
                cur.push(c);
            }
            '+' if depth == 0 => {
                parts.push(std::mem::take(&mut cur));
            }
            _ => cur.push(c),
        }
    }
    if depth != 0 {
        return None;
    }
    parts.push(cur);
    Some(parts)
}

#[cfg(test)]
mod tests {
    use super::*;

    const DOC: &str = r#"
magic: the ASCII bytes "PBCL" (50 42 43 4C)
format version       u32 LE   (this spec: 3)
The fixed header is 53 bytes; the fixed trailer is the last 16 bytes.
The 21-byte frame plus the 8-byte checksum make the fixed per-chunk
overhead 29 bytes.
offset basis `0xcbf29ce484222325`, prime `0x00000100000001b3`.
"#;

    const CODE: &str = r#"
pub const FORMAT_VERSION: u32 = 3;
const MAGIC: [u8; 4] = *b"PBCL";
const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
const HEADER_LEN: usize = 4 + 4 + 4 + 1 + 8 + (4 + 4 + 8 + 8 + 8);
pub(crate) const CHUNK_FRAME_LEN: usize = 1 + 8 + 4 + 8;
const CHUNK_OVERHEAD: usize = CHUNK_FRAME_LEN + 8;
pub(crate) const TRAILER_LEN: usize = 16;
"#;

    #[test]
    fn matching_spec_and_code_are_clean() {
        assert_eq!(check_format_spec(DOC, CODE), vec![]);
    }

    #[test]
    fn constant_drift_fires() {
        let drifted = CODE.replace("FORMAT_VERSION: u32 = 3", "FORMAT_VERSION: u32 = 4");
        let findings = check_format_spec(DOC, &drifted);
        assert!(
            findings
                .iter()
                .any(|f| f.message.contains("format version")),
            "{findings:?}"
        );
    }

    #[test]
    fn doc_drift_fires() {
        let drifted = DOC.replace(
            "The fixed header is 53 bytes",
            "The fixed header is 61 bytes",
        );
        let findings = check_format_spec(&drifted, CODE);
        assert!(
            findings.iter().any(|f| f.message.contains("header bytes")),
            "{findings:?}"
        );
    }

    #[test]
    fn missing_anchor_fires() {
        let gutted = DOC.replace("offset basis", "starting seed");
        let findings = check_format_spec(&gutted, CODE);
        assert!(
            findings.iter().any(|f| f.message.contains("anchor")),
            "{findings:?}"
        );
    }

    #[test]
    fn missing_const_fires() {
        let gutted = CODE.replace("FNV_PRIME", "FNV_MULT");
        let findings = check_format_spec(DOC, &gutted);
        assert!(
            findings
                .iter()
                .any(|f| f.message.contains("could not extract const FNV_PRIME")),
            "{findings:?}"
        );
    }

    #[test]
    fn expression_evaluation() {
        let env = BTreeMap::new();
        assert_eq!(
            eval_expr("4 + 4 + 4 + 1 + 8 + (4 + 4 + 8 + 8 + 8)", &env),
            Some(53)
        );
        assert_eq!(eval_expr("0xff", &env), Some(255));
        assert_eq!(eval_expr("1 + (2", &env), None);
    }
}
