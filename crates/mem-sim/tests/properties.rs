//! Property-based tests for the memory-hierarchy substrate.

use perfbug_memsim::{RecencyCache, ReplacementBugs, Spp, SppConfig};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn cache_hit_after_fill(addrs in prop::collection::vec(0u32..1_000_000, 1..200)) {
        let mut c = RecencyCache::new(8 * 1024, 4);
        for &a in &addrs {
            c.access(a);
            prop_assert!(c.access(a).hit, "immediate re-access must hit");
        }
    }

    #[test]
    fn working_set_within_capacity_never_misses_after_warmup(
        base in 0u32..1_000_000,
    ) {
        // 16 lines in a 32-line cache: after one pass, everything hits.
        let mut c = RecencyCache::new(32 * 64, 4);
        let lines: Vec<u32> = (0..16).map(|i| (base + i * 64) & !63).collect();
        for &a in &lines {
            c.access(a);
        }
        for _ in 0..3 {
            for &a in &lines {
                prop_assert!(c.access(a).hit);
            }
        }
    }

    #[test]
    fn buggy_replacement_never_affects_correctness_only_hits(
        addrs in prop::collection::vec(0u32..65_536, 50..300),
    ) {
        // Both caches must agree that a just-filled line is resident; the
        // bug only changes WHICH lines survive, never containment of the
        // most recent fill.
        let mut healthy = RecencyCache::new(4 * 1024, 2);
        let mut buggy = RecencyCache::new(4 * 1024, 2);
        buggy.set_bugs(ReplacementBugs { evict_mru: true, skip_age_update: true });
        for &a in &addrs {
            healthy.access(a);
            buggy.access(a);
            prop_assert!(healthy.contains(a));
            prop_assert!(buggy.contains(a));
        }
    }

    #[test]
    fn spp_prefetches_stay_in_page_and_block_aligned(
        offsets in prop::collection::vec(0i64..64, 4..64),
        page in 0u64..4096,
    ) {
        let mut spp = Spp::new(SppConfig::default());
        for &o in &offsets {
            let addr = (page << 12) | ((o as u64) << 6);
            for &pf in spp.access(addr) {
                prop_assert_eq!(pf >> 12, page, "prefetch crossed the page");
                prop_assert_eq!(pf & 63, 0, "prefetch not block aligned");
            }
        }
    }

    #[test]
    fn spp_is_deterministic(
        offsets in prop::collection::vec(0i64..64, 4..48),
    ) {
        let run = || {
            let mut spp = Spp::new(SppConfig::default());
            let mut out = Vec::new();
            for &o in &offsets {
                out.extend_from_slice(spp.access(((o as u64) << 6) | (7 << 12)));
            }
            out
        };
        prop_assert_eq!(run(), run());
    }

    #[test]
    fn spp_degree_limits_prefetches(
        offsets in prop::collection::vec(0i64..64, 4..48),
        degree in 1usize..6,
    ) {
        let mut spp = Spp::new(SppConfig { max_degree: degree, ..SppConfig::default() });
        for &o in &offsets {
            let n = spp.access(((o as u64) << 6) | (3 << 12)).len();
            prop_assert!(n <= degree, "issued {n} > degree {degree}");
        }
    }
}
