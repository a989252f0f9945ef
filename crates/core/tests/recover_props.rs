//! Crash-recovery properties of the v3 chunked format: a part file
//! truncated or corrupted at *any* byte offset yields a clean durable
//! chunk prefix (or a precise rejection) — never wrong probe data — and
//! resuming from a kill at any point, or from an injected write fault
//! after any chunk, finishes a file bit-identical to an uninterrupted
//! pass.

use std::path::{Path, PathBuf};
use std::time::Duration;

use perfbug_core::bugs::BugCatalog;
use perfbug_core::experiment::{CapturedSeries, Collection, EngineResult, ProbeMeta, RunKey};
use perfbug_core::persist::{
    encode_collection_with, part_path_for, scan_part, ExperimentKind, FileHeader, PersistError,
    ProbeRecord, ShardManifest, ShardStreamWriter, WriteFault, CORPUS_REVISION,
};
use perfbug_uarch::{ArchSet, BugSpec};
use perfbug_workloads::Opcode;
use proptest::prelude::*;

/// A small synthetic collection with *zeroed* engine timings, so a
/// streamed re-write (whose resumed timings restart at zero) can be
/// compared byte-for-byte against the direct encode.
fn synth_collection(n_probes: usize, floats: &[f64]) -> Collection {
    let mut next = {
        let mut i = 0;
        move || {
            let v = floats[i % floats.len()];
            i += 1;
            v
        }
    };
    let catalog = BugCatalog::new(vec![
        BugSpec::SerializeOpcode { x: Opcode::FpMul },
        BugSpec::OpcodeUsesRegDelay {
            x: Opcode::Load,
            r: 3,
            t: 8,
        },
    ]);
    let mut keys = vec![RunKey {
        arch: "Skylake".into(),
        set: ArchSet::IV,
        bug: None,
    }];
    for b in 0..catalog.len() {
        keys.push(RunKey {
            arch: "Skylake".into(),
            set: ArchSet::II,
            bug: Some(b),
        });
    }
    let probes: Vec<ProbeMeta> = (0..n_probes)
        .map(|p| ProbeMeta {
            id: format!("bench#{p}"),
            benchmark: "bench".into(),
            weight: next(),
        })
        .collect();
    let engines: Vec<EngineResult> = (0..2)
        .map(|e| EngineResult {
            name: format!("GBT-{e}"),
            deltas: (0..n_probes)
                .map(|_| keys.iter().map(|_| next()).collect())
                .collect(),
            train_time: Duration::ZERO,
            infer_time: Duration::ZERO,
        })
        .collect();
    Collection {
        overall_ipc: (0..n_probes)
            .map(|_| keys.iter().map(|_| next()).collect())
            .collect(),
        agg_features: (0..n_probes)
            .map(|_| keys.iter().map(|_| vec![next(), next()]).collect())
            .collect(),
        captures: (0..n_probes)
            .map(|p| CapturedSeries {
                probe_id: format!("bench#{p}"),
                arch: "IvyBridge".into(),
                bug: (p % 2 == 0).then_some(p % 2),
                engine: "GBT-0".into(),
                simulated: vec![next(), next()],
                inferred: vec![next(), next()],
            })
            .collect(),
        keys,
        probes,
        engines,
        catalog,
    }
}

fn header_for(col: &Collection, fingerprint: u64) -> FileHeader {
    FileHeader {
        kind: ExperimentKind::Core,
        corpus_revision: CORPUS_REVISION,
        fingerprint,
        manifest: ShardManifest::full(col.probes.len()),
    }
}

/// The probe record the v3 codec stores for probe `p` of `col`.
fn record_for(col: &Collection, p: usize) -> ProbeRecord {
    ProbeRecord {
        meta: col.probes[p].clone(),
        overall: col.overall_ipc[p].clone(),
        agg: col.agg_features[p].clone(),
        deltas: col.engines.iter().map(|e| e.deltas[p].clone()).collect(),
        captures: col
            .captures
            .iter()
            .filter(|c| c.probe_id == col.probes[p].id)
            .cloned()
            .collect(),
    }
}

/// A scratch directory unique to one proptest case.
fn scratch(tag: &str, case: u64) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "perfbug-recover-{tag}-{}-{case}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    // Killing the writer after any byte count — the part file is an
    // arbitrary prefix of the finished file — and resuming finishes a
    // file bit-identical to the uninterrupted pass.
    #[test]
    fn resume_from_any_kill_point_is_bit_identical(
        cut_seed in any::<u64>(),
        n_probes in 1usize..5,
        floats in prop::collection::vec(-1e9..1e9f64, 8..16),
    ) {
        let col = synth_collection(n_probes, &floats);
        let header = header_for(&col, 0xfeed);
        let reference = encode_collection_with(&col, &header);
        let cut = (cut_seed as usize) % reference.len();

        let dir = scratch("kill", cut as u64);
        let target = dir.join("shard.pbcol");
        std::fs::write(part_path_for(&target), &reference[..cut]).expect("write part");

        let engine_names: Vec<String> =
            col.engines.iter().map(|e| e.name.clone()).collect();
        let mut writer = ShardStreamWriter::create_or_resume(
            &target, &header, &col.keys, &engine_names, &col.catalog,
        ).expect("create_or_resume");
        let resumed = writer.resumed_probes();
        prop_assert!(resumed <= n_probes as u64, "cannot resume more than exists");
        for p in resumed as usize..n_probes {
            writer
                .append_probe(&record_for(&col, p), &[(Duration::ZERO, Duration::ZERO); 2])
                .expect("append");
        }
        writer.finish().expect("finish");

        let finished = std::fs::read(&target).expect("read finished");
        prop_assert!(
            finished == reference,
            "kill at byte {cut}/{} (resumed {resumed} probes): finished file differs",
            reference.len()
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    // A worker whose writer fires an injected fault right after its k-th
    // durable chunk, for every k and with or without tearing that chunk,
    // leaves a part that resumes exactly k probes (k - 1 after a tear);
    // the resumed pass finishes the uninterrupted file. The synthetic
    // timings are zero, so this is the zero_timings comparison.
    #[test]
    fn a_write_fault_after_any_chunk_resumes_its_durable_prefix(
        n_probes in 1usize..5,
        floats in prop::collection::vec(-1e9..1e9f64, 8..16),
    ) {
        let col = synth_collection(n_probes, &floats);
        let header = header_for(&col, 0xfa17);
        let reference = encode_collection_with(&col, &header);
        let engine_names: Vec<String> =
            col.engines.iter().map(|e| e.name.clone()).collect();
        let open = |target: &Path| {
            ShardStreamWriter::create_or_resume(
                target, &header, &col.keys, &engine_names, &col.catalog,
            ).expect("create_or_resume")
        };
        let times = [(Duration::ZERO, Duration::ZERO); 2];
        for chunks in 1..=n_probes as u64 {
            for tear in [false, true] {
                let dir = scratch("fault", 2 * chunks + u64::from(tear));
                let target = dir.join("shard.pbcol");
                let mut writer = open(&target);
                writer.inject(WriteFault { chunks, tear });
                let stopped = (0..n_probes)
                    .find_map(|p| writer.append_probe(&record_for(&col, p), &times).err().map(|e| (p, e)));
                prop_assert!(
                    matches!(stopped, Some((p, PersistError::Faulted)) if p as u64 + 1 == chunks),
                    "fault after chunk {chunks} (tear {tear}) stopped as {stopped:?}"
                );
                drop(writer);

                let mut writer = open(&target);
                prop_assert_eq!(writer.resumed_probes(), chunks - u64::from(tear));
                for p in writer.resumed_probes() as usize..n_probes {
                    writer.append_probe(&record_for(&col, p), &times).expect("append");
                }
                writer.finish().expect("finish");
                let finished = std::fs::read(&target).expect("read finished");
                prop_assert!(
                    finished == reference,
                    "fault after chunk {chunks} (tear {tear}): finished file differs"
                );
                let _ = std::fs::remove_dir_all(&dir);
            }
        }
    }

    // A part truncated at any offset scans to a clean chunk prefix whose
    // probe records are exactly the first `k` originals — or is rejected
    // outright (cut inside header/meta). Never wrong data.
    #[test]
    fn truncation_recovers_a_clean_prefix_or_rejects(
        cut_seed in any::<u64>(),
        floats in prop::collection::vec(-1e9..1e9f64, 8..16),
    ) {
        let col = synth_collection(3, &floats);
        let header = header_for(&col, 0xbeef);
        let reference = encode_collection_with(&col, &header);
        let cut = (cut_seed as usize) % reference.len();
        let full = scan_part(&reference).expect("finished file scans");
        let meta_end = (full.chunks[0].offset + full.chunks[0].len) as usize;

        match scan_part(&reference[..cut]) {
            Ok(prefix) => {
                prop_assert!(prefix.durable_len as usize <= cut);
                prop_assert_eq!(prefix.torn_bytes as usize, cut - prefix.durable_len as usize);
                // Every durable chunk boundary matches the uninterrupted
                // file's chunk table exactly.
                prop_assert_eq!(
                    &full.chunks[..prefix.chunks.len()],
                    &prefix.chunks[..]
                );
                prop_assert_eq!(prefix.header, header);
            }
            Err(_) => {
                // Rejection is precise: only a cut inside the mandatory
                // header + meta chunk makes the part unscannable.
                prop_assert!(
                    cut < meta_end,
                    "cut at {cut} (meta ends {meta_end}) must scan"
                );
            }
        }
    }

    // Flipping any single byte of a torn part never produces wrong probe
    // data: the scan either rejects the part or yields probe records
    // equal to the originals (the flipped chunk and everything after it
    // are dropped; a header flip may relabel the file but cannot forge
    // payload).
    #[test]
    fn corruption_never_yields_wrong_probe_data(
        pos_seed in any::<u64>(),
        flip in 1u8..=255,
        floats in prop::collection::vec(-1e9..1e9f64, 8..16),
    ) {
        let col = synth_collection(3, &floats);
        let header = header_for(&col, 0xdead);
        let reference = encode_collection_with(&col, &header);
        let full = scan_part(&reference).expect("finished file scans");
        // Only the chunked body: the footer region is already a torn tail
        // to scan_part, so flips there are trivially invisible.
        let body_len = full.durable_len as usize;
        let mut bytes = reference[..body_len].to_vec();
        let pos = (pos_seed as usize) % body_len;
        bytes[pos] ^= flip;

        if let Ok(prefix) = scan_part(&bytes) {
            for entry in prefix.chunks.iter().filter(|c| !c.is_meta()) {
                prop_assert!(
                    (pos as u64) < entry.offset || (pos as u64) >= entry.offset + entry.len,
                    "flip at {pos} landed inside a chunk reported durable \
                     ({}..{})",
                    entry.offset,
                    entry.offset + entry.len
                );
            }
        }
    }
}
