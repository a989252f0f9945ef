//! Golden detection metrics: the detection-eval CI leg's fixed-seed
//! `pbeval` corpus must report exactly the JSON committed in
//! `golden/pbeval-seed42.json`.
//!
//! The report covers fuzzed TLB, replay, SPP and DRAM bugs end to end
//! (fuzzing, severity calibration, collection, both stages), so any change
//! that moves a single detection number fails here. The re-pin rule is in
//! docs/BUGS.md.

use std::path::Path;
use std::process::Command;

#[test]
fn pbeval_seed42_matches_the_committed_report() {
    let golden_path = Path::new(env!("CARGO_MANIFEST_DIR")).join("golden/pbeval-seed42.json");
    let golden = std::fs::read(&golden_path).expect("committed golden report");
    let dir = std::env::temp_dir().join(format!("pbeval-golden-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let out = dir.join("report.json");
    let status = Command::new(env!("CARGO_BIN_EXE_pbeval"))
        .args([
            "--seed",
            "42",
            "--families",
            "TlbPageWalkDelayT,ReplayEveryNDelayT,SppDegreeStride,DramPageCloseDelayT",
            "--count",
            "2",
            "--out",
        ])
        .arg(&out)
        // Flags only: no cache, shard, scale or fuzz knob may leak in.
        .env_clear()
        .stdout(std::process::Stdio::null())
        .status()
        .expect("pbeval runs");
    assert!(status.success(), "pbeval exited with {status}");
    let report = std::fs::read(&out).expect("pbeval wrote its report");
    let _ = std::fs::remove_dir_all(&dir);
    assert!(
        report == golden,
        "pbeval seed-42 report differs from {}: if the change is intended, \
         follow the re-pin rule in docs/BUGS.md",
        golden_path.display()
    );
}
