//! Wire-protocol robustness for the distributed shard fan-out
//! (`orchestrate::remote`): every frame round-trips byte-exactly,
//! streams of concatenated frames decode incrementally with correct
//! consumed offsets, and — mirroring the persist codec's corruption
//! discipline — any truncation waits (`Ok(None)`) while any single-bit
//! flip is rejected or keeps waiting; a flipped frame must never decode
//! back to the original. `decode` must not panic on any input. A daemon
//! answers a launch frame of an older protocol version with a rejection
//! that names the version.

use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use perfbug_core::exec::ShardSpec;
use perfbug_core::orchestrate::remote::{
    serve_connection, DaemonOptions, Frame, LaunchRequest, ShardAgent, MAX_FRAME_LEN,
    PROTOCOL_VERSION,
};
use perfbug_core::orchestrate::{ExitKind, WorkerFault, WorkerHandle};
use perfbug_core::persist::{fnv1a, ExperimentKind};
use proptest::prelude::*;

/// Number of frame variants [`frame_from`] covers.
const VARIANTS: u64 = 5;

/// Deterministically expands a numeric seed tuple into one frame,
/// covering every variant (the compat proptest has no `prop_oneof`, so
/// variant choice is the seed's low bits).
fn frame_from(sel: u64, a: u64, b: u64, c: u32) -> Frame {
    match sel % VARIANTS {
        0 => {
            let count = (a % 64) as usize + 1;
            Frame::Launch(LaunchRequest {
                prefix: format!("spec-{:x}", a % 0x1000),
                kind: if a.is_multiple_of(2) {
                    ExperimentKind::Core
                } else {
                    ExperimentKind::Memory
                },
                fingerprint: b,
                shard: ShardSpec::new(b as usize % count, count),
                attempt: c,
                cache_dir: format!("cache/dir-{:x}", b % 0x1000),
                fault: [None, Some(WorkerFault::KillMid), Some(WorkerFault::Torn)]
                    [(a >> 8) as usize % 3],
            })
        }
        1 => Frame::Accepted,
        2 => Frame::Rejected {
            reason: format!("refused because {:x} ({})", a, b % 97),
        },
        3 => Frame::ShardChecksum { checksum: a },
        _ => Frame::Exited {
            exit: match a % 3 {
                0 => ExitKind::Success,
                1 => ExitKind::Failure {
                    code: Some(b as i32),
                },
                _ => ExitKind::Failure { code: None },
            },
        },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn every_frame_round_trips_byte_exactly(
        sel in 0u64..VARIANTS,
        a in any::<u64>(),
        b in any::<u64>(),
        c in any::<u32>(),
    ) {
        let frame = frame_from(sel, a, b, c);
        let bytes = frame.encode();
        let decoded = Frame::decode(&bytes);
        prop_assert_eq!(
            decoded,
            Ok(Some((frame, bytes.len()))),
            "a self-encoded frame must decode in full"
        );
    }

    #[test]
    fn concatenated_frames_decode_in_order_with_exact_offsets(
        seeds in prop::collection::vec((0u64..VARIANTS, any::<u64>(), any::<u64>(), any::<u32>()), 1..6),
    ) {
        let frames: Vec<Frame> = seeds
            .iter()
            .map(|&(sel, a, b, c)| frame_from(sel, a, b, c))
            .collect();
        let mut stream = Vec::new();
        for f in &frames {
            stream.extend_from_slice(&f.encode());
        }
        let mut offset = 0usize;
        for expected in &frames {
            let (decoded, consumed) = Frame::decode(&stream[offset..])
                .expect("valid stream")
                .expect("complete frame available");
            prop_assert_eq!(&decoded, expected);
            offset += consumed;
        }
        prop_assert_eq!(offset, stream.len(), "the stream must be consumed exactly");
    }

    #[test]
    fn any_truncation_waits_for_more_bytes(
        sel in 0u64..VARIANTS,
        a in any::<u64>(),
        b in any::<u64>(),
        c in any::<u32>(),
        cut_seed in any::<u64>(),
    ) {
        let bytes = frame_from(sel, a, b, c).encode();
        // Every strict prefix is an incomplete frame: the decoder must
        // ask for more bytes, not guess or panic.
        let cut = (cut_seed % bytes.len() as u64) as usize;
        prop_assert_eq!(
            Frame::decode(&bytes[..cut]).expect("prefixes are never invalid"),
            None,
            "truncated at {}/{}",
            cut,
            bytes.len()
        );
    }

    #[test]
    fn any_single_bit_flip_is_rejected_or_left_pending(
        sel in 0u64..VARIANTS,
        a in any::<u64>(),
        b in any::<u64>(),
        c in any::<u32>(),
        pos_seed in any::<u64>(),
        bit in 0u64..8,
    ) {
        let frame = frame_from(sel, a, b, c);
        let mut flipped = frame.encode();
        let pos = (pos_seed % flipped.len() as u64) as usize;
        flipped[pos] ^= 1 << bit;
        match Frame::decode(&flipped) {
            // Flips in the tag/payload/checksum trip the FNV check; flips
            // in the length field either leave the legal range (error) or
            // claim a longer frame than the buffer holds (pending).
            Err(_) | Ok(None) => {}
            Ok(Some((decoded, _))) => {
                prop_assert!(
                    decoded != frame,
                    "bit {} of byte {} flipped yet the original frame decoded",
                    bit,
                    pos
                );
                prop_assert!(
                    false,
                    "a corrupted frame decoded successfully (byte {}, bit {})",
                    pos,
                    bit
                );
            }
        }
    }

    #[test]
    fn arbitrary_bytes_never_panic_the_decoder(
        bytes in prop::collection::vec(0u64..256, 0..256),
    ) {
        let raw: Vec<u8> = bytes.iter().map(|&b| b as u8).collect();
        // Any result is fine — the property is "no panic".
        let _ = Frame::decode(&raw);
    }
}

#[test]
fn out_of_range_length_fields_are_rejected_up_front() {
    let mut oversized = (MAX_FRAME_LEN + 1).to_le_bytes().to_vec();
    oversized.extend_from_slice(&[0u8; 16]);
    assert!(
        Frame::decode(&oversized).is_err(),
        "len above the cap must not 'wait' for a mebibyte that never comes"
    );
    let undersized = 1u32.to_le_bytes().to_vec(); // below the tag+checksum floor
    assert!(Frame::decode(&undersized).is_err());
}

#[test]
fn foreign_protocol_versions_are_rejected() {
    let req = LaunchRequest {
        prefix: "demo".into(),
        kind: ExperimentKind::Core,
        fingerprint: 0xfeed,
        shard: ShardSpec::new(0, 2),
        attempt: 0,
        cache_dir: "cache".into(),
        fault: None,
    };
    let good = Frame::Launch(req).encode();
    // Version is the first payload field (after len + tag). Patch it and
    // re-checksum so only the version disagrees.
    let mut body = good[4..good.len() - 8].to_vec();
    body[1..5].copy_from_slice(&(PROTOCOL_VERSION + 1).to_le_bytes());
    let sum = perfbug_core::persist::fnv1a(&body);
    let mut patched = ((body.len() + 8) as u32).to_le_bytes().to_vec();
    patched.extend_from_slice(&body);
    patched.extend_from_slice(&sum.to_le_bytes());
    let err = Frame::decode(&patched).expect_err("version skew must be an error");
    assert!(err.0.contains("protocol version"), "{err}");
}

/// A launch frame as a protocol-1 supervisor wrote it: the version-2
/// layout up to the cache directory, then a u64 resume offset where
/// version 2 has its fault byte.
fn v1_launch_frame() -> Vec<u8> {
    fn put_str(body: &mut Vec<u8>, s: &str) {
        body.extend_from_slice(&(s.len() as u32).to_le_bytes());
        body.extend_from_slice(s.as_bytes());
    }
    let mut body = vec![1u8]; // the launch tag
    body.extend_from_slice(&1u32.to_le_bytes());
    put_str(&mut body, "demo");
    put_str(&mut body, "core");
    body.extend_from_slice(&0xfeedu64.to_le_bytes());
    for field in [0u32, 2, 0] {
        body.extend_from_slice(&field.to_le_bytes()); // shard 0/2, attempt 0
    }
    put_str(&mut body, "cache");
    body.extend_from_slice(&3u64.to_le_bytes()); // the resume offset
    let mut frame = ((body.len() + 8) as u32).to_le_bytes().to_vec();
    frame.extend_from_slice(&body);
    frame.extend_from_slice(&fnv1a(&body).to_le_bytes());
    frame
}

/// A daemon agent that counts launches; none is expected.
struct CountingAgent(AtomicUsize);

impl ShardAgent for CountingAgent {
    fn launch(&self, _req: &LaunchRequest) -> io::Result<Box<dyn WorkerHandle + Send>> {
        self.0.fetch_add(1, Ordering::SeqCst);
        Err(io::Error::other("no worker in this test"))
    }
}

#[test]
fn a_version_1_launch_is_rejected_with_a_reason_naming_the_version() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("local addr");
    let agent = Arc::new(CountingAgent(AtomicUsize::new(0)));
    let daemon_agent = Arc::clone(&agent);
    let daemon = std::thread::spawn(move || {
        let (stream, _) = listener.accept().expect("accept");
        serve_connection(stream, daemon_agent.as_ref(), DaemonOptions::default())
    });
    let mut client = TcpStream::connect(addr).expect("connect");
    client.write_all(&v1_launch_frame()).expect("send");
    let mut reply = Vec::new();
    client.read_to_end(&mut reply).expect("read reply");
    assert!(
        daemon.join().expect("daemon thread").is_err(),
        "an undecodable handshake ends the connection with an error"
    );
    match Frame::decode(&reply) {
        Ok(Some((Frame::Rejected { reason }, n))) if n == reply.len() => assert!(
            reason.contains(&format!(
                "protocol version 1 (this build speaks {PROTOCOL_VERSION})"
            )),
            "{reason}"
        ),
        other => panic!("expected one rejected frame, got {other:?}"),
    }
    assert_eq!(agent.0.load(Ordering::SeqCst), 0, "nothing may launch");
}
