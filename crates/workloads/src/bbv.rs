//! Basic-block-vector (BBV) profiling of program traces.
//!
//! SimPoint clusters fixed-length instruction intervals by the frequency of
//! the basic blocks they execute. This module walks a [`Program`] and
//! produces one normalised BBV per interval, optionally randomly projected
//! to a low dimension exactly as SimPoint 3.0 does before clustering.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::program::Program;

/// One interval's normalised basic-block execution-frequency vector.
pub type Bbv = Vec<f64>;

/// Profiles `n_intervals` intervals of `interval_len` instructions each,
/// returning one BBV per interval (dimension = [`Program::n_blocks`]).
///
/// Block counts are weighted by the number of instructions executed in the
/// block (SimPoint's convention) and L1-normalised.
///
/// The walker advances a basic block at a time without building
/// instructions, and each run's instruction count is added to its block's
/// entry in one step. That is exact: the entries are integer-valued `f64`s
/// far below 2^53, so the result is bit-identical to adding 1.0 per
/// instruction.
///
/// # Panics
///
/// Panics if `interval_len` or `n_intervals` is zero.
pub fn profile(program: &Program, interval_len: usize, n_intervals: usize) -> Vec<Bbv> {
    assert!(interval_len > 0, "interval length must be positive");
    assert!(n_intervals > 0, "need at least one interval");
    let dim = program.n_blocks();
    let mut walker = program.walker();
    let mut out = Vec::with_capacity(n_intervals);
    for _ in 0..n_intervals {
        let mut counts = vec![0.0f64; dim];
        let mut left = interval_len as u64;
        while left > 0 {
            let run = walker.skip_run(left);
            counts[walker.current_block()] += run as f64;
            left -= run;
        }
        let total: f64 = counts.iter().sum();
        if total > 0.0 {
            for c in &mut counts {
                *c /= total;
            }
        }
        out.push(counts);
    }
    out
}

/// Randomly projects BBVs down to `target_dim` dimensions (SimPoint 3.0
/// projects to 15) using a seeded dense Gaussian-ish projection.
///
/// Returns the input unchanged when it is already at or below the target
/// dimension.
pub fn random_project(bbvs: &[Bbv], target_dim: usize, seed: u64) -> Vec<Bbv> {
    let src_dim = bbvs.first().map_or(0, Vec::len);
    if src_dim <= target_dim {
        return bbvs.to_vec();
    }
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x9e37_79b9);
    // One projection matrix shared by all vectors.
    let proj: Vec<Vec<f64>> = (0..target_dim)
        .map(|_| (0..src_dim).map(|_| rng.gen::<f64>() * 2.0 - 1.0).collect())
        .collect();
    bbvs.iter()
        .map(|v| {
            proj.iter()
                .map(|row| row.iter().zip(v).map(|(p, x)| p * x).sum::<f64>())
                .collect()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::{PhaseSpec, Program, Segment};
    use crate::Opcode;

    fn two_phase_program() -> Program {
        let a = PhaseSpec {
            mix: vec![(Opcode::Add, 1.0)],
            ..PhaseSpec::default()
        };
        let b = PhaseSpec {
            mix: vec![(Opcode::FpMul, 1.0)],
            ..PhaseSpec::default()
        };
        Program::build(
            "two",
            &[a, b],
            vec![
                Segment {
                    phase: 0,
                    insts: 4000,
                },
                Segment {
                    phase: 1,
                    insts: 4000,
                },
            ],
            11,
        )
    }

    #[test]
    fn bbvs_are_normalised() {
        let p = two_phase_program();
        let bbvs = profile(&p, 1000, 8);
        assert_eq!(bbvs.len(), 8);
        for v in &bbvs {
            assert_eq!(v.len(), p.n_blocks());
            let sum: f64 = v.iter().sum();
            assert!((sum - 1.0).abs() < 1e-9, "sum {sum}");
        }
    }

    #[test]
    fn phases_produce_distinct_bbvs() {
        let p = two_phase_program();
        let bbvs = profile(&p, 1000, 8);
        // Interval 0 (phase A) and interval 4 (phase B) should touch almost
        // disjoint blocks (a partial block may straddle the phase switch).
        let cross: f64 = bbvs[0].iter().zip(&bbvs[4]).map(|(a, b)| a * b).sum();
        let within: f64 = bbvs[0].iter().zip(&bbvs[1]).map(|(a, b)| a * b).sum();
        assert!(
            cross < 0.05,
            "phases should barely share blocks, dot={cross}"
        );
        assert!(
            within > 10.0 * cross,
            "same-phase intervals must be far more similar"
        );
    }

    #[test]
    fn projection_reduces_dimension_deterministically() {
        let p = two_phase_program();
        let bbvs = profile(&p, 500, 6);
        let a = random_project(&bbvs, 4, 3);
        let b = random_project(&bbvs, 4, 3);
        assert_eq!(a, b);
        assert!(a.iter().all(|v| v.len() == 4));
        let c = random_project(&bbvs, 4, 4);
        assert_ne!(a, c);
    }

    #[test]
    fn projection_noop_when_small() {
        let bbvs = vec![vec![1.0, 0.0], vec![0.0, 1.0]];
        assert_eq!(random_project(&bbvs, 5, 1), bbvs);
    }
}
