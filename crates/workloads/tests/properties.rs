//! Property-based tests for the workload substrate.

use perfbug_workloads::bbv;
use perfbug_workloads::kmeans::kmeans;
use perfbug_workloads::{MemStreamSpec, Opcode, PhaseSpec, Program, Segment};
use proptest::prelude::*;

/// One to three memory streams: random (stride 0) or strided, over a
/// working set that is a power of two, is not one, or is under the
/// walker's 64-byte floor.
fn arb_streams() -> impl Strategy<Value = Vec<MemStreamSpec>> {
    prop::collection::vec(
        (0usize..4, 0usize..4).prop_map(|(s, w)| MemStreamSpec {
            stride: [0, 8, 24, 64][s],
            working_set: [1 << 14, 3000, 40, 1 << 10][w],
        }),
        1..4,
    )
}

fn arb_phase() -> impl Strategy<Value = PhaseSpec> {
    (
        2usize..12,   // n_blocks
        3usize..16,   // block_len
        0.0..0.4f64,  // load_frac
        0.0..0.25f64, // store_frac
        0.0..0.7f64,  // chaotic
        0.0..0.3f64,  // indirect
        1usize..8,    // dep distance
        arb_streams(),
    )
        .prop_map(
            |(n_blocks, block_len, load_frac, store_frac, chaotic, indirect, dep, streams)| {
                PhaseSpec {
                    mix: vec![(Opcode::Add, 1.0), (Opcode::Xor, 0.5), (Opcode::FpMul, 0.5)],
                    load_frac,
                    store_frac,
                    chaotic_branch_frac: chaotic,
                    indirect_frac: indirect,
                    n_blocks,
                    block_len,
                    streams,
                    dep_distance: dep,
                }
            },
        )
}

/// A program whose segments (1–39 instructions, cycling through the
/// phases) are shorter than many of its blocks, so walks cross segment
/// boundaries mid-block.
fn short_segment_program(phases: &[PhaseSpec], seg_lens: &[u64], seed: u64) -> Program {
    let schedule = seg_lens
        .iter()
        .enumerate()
        .map(|(i, &insts)| Segment {
            phase: i % phases.len(),
            insts,
        })
        .collect();
    Program::build("prop", phases, schedule, seed)
}

/// A skip length: 0, a random count, or exactly the end of a segment
/// (the schedule loops, so any prefix of its repetition counts).
fn skip_len(seg_lens: &[u64], (kind, raw): (usize, u64)) -> u64 {
    match kind {
        0 => 0,
        1 => raw,
        _ => {
            let ends = raw as usize % (2 * seg_lens.len()) + 1;
            seg_lens.iter().cycle().take(ends).sum()
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn any_program_walks_deterministically(
        phases in prop::collection::vec(arb_phase(), 1..4),
        seed in any::<u64>(),
    ) {
        let schedule: Vec<Segment> =
            (0..phases.len()).map(|p| Segment { phase: p, insts: 700 }).collect();
        let program = Program::build("prop", &phases, schedule, seed);
        let a = program.walker().take_trace(2500);
        let b = program.walker().take_trace(2500);
        prop_assert_eq!(a, b);
    }

    #[test]
    fn traces_are_well_formed(
        phases in prop::collection::vec(arb_phase(), 1..3),
        seed in any::<u64>(),
    ) {
        let schedule: Vec<Segment> =
            (0..phases.len()).map(|p| Segment { phase: p, insts: 600 }).collect();
        let program = Program::build("prop", &phases, schedule, seed);
        let mut walker = program.walker();
        for _ in 0..2000 {
            let inst = walker.next_inst();
            prop_assert!(inst.size >= 1 && inst.size <= 15, "x86-like sizes");
            prop_assert!(inst.opcode.is_memory() == (inst.mem_addr != 0));
            if inst.opcode.is_control() {
                prop_assert!(inst.target != 0, "control flow must carry a target");
            }
            prop_assert!(walker.current_block() < program.n_blocks());
        }
    }

    #[test]
    fn skip_matches_consumption(
        phases in prop::collection::vec(arb_phase(), 1..4),
        seg_lens in prop::collection::vec(1u64..40, 1..6),
        seed in any::<u64>(),
        first in (0usize..3, 0u64..3000),
        second in (0usize..3, 0u64..300),
        m in 1usize..120,
    ) {
        // Two skips with a trace in between, so the second one starts
        // part-way through a block.
        let program = short_segment_program(&phases, &seg_lens, seed);
        let mut fast = program.walker();
        let mut slow = program.walker();
        for n in [skip_len(&seg_lens, first), skip_len(&seg_lens, second)] {
            fast.skip(n);
            for _ in 0..n {
                slow.next_inst();
            }
            prop_assert_eq!(fast.current_block(), slow.current_block(), "after skip({})", n);
            prop_assert_eq!(fast.take_trace(m), slow.take_trace(m), "after skip({})", n);
            prop_assert_eq!(fast.current_block(), slow.current_block());
        }
    }

    #[test]
    fn profile_matches_per_instruction_reference(
        phases in prop::collection::vec(arb_phase(), 1..4),
        seg_lens in prop::collection::vec(1u64..40, 1..6),
        seed in any::<u64>(),
        interval_len in 1usize..200,
        n_intervals in 1usize..6,
    ) {
        let program = short_segment_program(&phases, &seg_lens, seed);
        let mut walker = program.walker();
        let reference: Vec<Vec<f64>> = (0..n_intervals)
            .map(|_| {
                let mut counts = vec![0.0f64; program.n_blocks()];
                for _ in 0..interval_len {
                    walker.next_inst();
                    counts[walker.current_block()] += 1.0;
                }
                let total: f64 = counts.iter().sum();
                counts.iter().map(|c| c / total).collect()
            })
            .collect();
        let bits = |bbvs: &[Vec<f64>]| -> Vec<u64> {
            bbvs.iter().flatten().map(|v| v.to_bits()).collect()
        };
        let got = bbv::profile(&program, interval_len, n_intervals);
        prop_assert_eq!(bits(&got), bits(&reference));
    }

    #[test]
    fn kmeans_inertia_never_negative_and_assignment_valid(
        pts in prop::collection::vec(prop::collection::vec(-10.0..10.0f64, 3), 4..40),
        k in 1usize..6,
        seed in any::<u64>(),
    ) {
        let result = kmeans(&pts, k, seed, 50);
        prop_assert!(result.inertia >= 0.0);
        prop_assert_eq!(result.assignments.len(), pts.len());
        let k_eff = result.centroids.len();
        prop_assert!(result.assignments.iter().all(|&a| a < k_eff));
    }

    #[test]
    fn kmeans_more_clusters_never_increase_inertia(
        pts in prop::collection::vec(prop::collection::vec(-5.0..5.0f64, 2), 8..30),
        seed in any::<u64>(),
    ) {
        // k-means++ with enough iterations: inertia at k=4 should not be
        // (much) worse than k=1 — a loose sanity bound rather than strict
        // monotonicity (local optima permitting small noise).
        let k1 = kmeans(&pts, 1, seed, 50).inertia;
        let k4 = kmeans(&pts, 4, seed, 100).inertia;
        prop_assert!(k4 <= k1 * 1.001 + 1e-9, "k=4 inertia {k4} vs k=1 {k1}");
    }
}
