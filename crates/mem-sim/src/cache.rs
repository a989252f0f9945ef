//! Set-associative cache whose sets are recency lists.
//!
//! This is the one cache model of the workspace: the memory simulator's
//! L1D, L2 and LLC, and every level of the core simulator's hierarchy
//! (`perfbug_uarch::Hierarchy`), are [`RecencyCache`]s.
//!
//! Each set keeps its valid lines in order of last touch, most recently
//! used first, so a line's list position is its LRU age. The paper's
//! memory bugs 1 ("age counter not updated on access") and 2 ("evict the
//! MRU block") are injected at that recency state: bug 1 skips the move
//! to the front on a hit, and bug 2 makes a fill into a full set replace
//! the front instead of dropping the back. The core simulator installs
//! neither, so its caches are plain true LRU with invalid-first fill.
//!
//! `access`, `contains` and their helpers are `#[inline]` because the core
//! simulator calls them from another crate on every load, store and
//! instruction fetch.

/// Cache line size in bytes.
pub const LINE_BYTES: u32 = 64;

/// Marks a line brought in by a prefetch and not yet demanded. Addresses
/// are `u32`, so a tag (`addr / LINE_BYTES / sets`) never reaches this bit.
const PREFETCHED: u32 = 1 << 31;

/// Replacement-policy defects injectable into a [`RecencyCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ReplacementBugs {
    /// Bug 1: hits do not refresh the line's age (its list position).
    pub skip_age_update: bool,
    /// Bug 2: evict the most recently used block instead of the LRU one.
    pub evict_mru: bool,
}

/// A set-associative cache with LRU replacement over per-set recency
/// lists.
///
/// A hit moves its line to the front of the set; a miss or a prefetch
/// fill inserts at the front, dropping the back (least recently used)
/// line once the set is full. Until then a fill takes an unused way. The
/// arrays start zeroed and are never pre-filled, so sets no access
/// reaches cost nothing.
#[derive(Debug, Clone)]
pub struct RecencyCache {
    sets: u32,
    ways: u32,
    /// `lines[set * ways..][..fill[set]]`: the set's tags, most recently
    /// used first, each with [`PREFETCHED`] set while its prefetch is
    /// unused.
    lines: Vec<u32>,
    /// Valid lines per set.
    fill: Vec<u32>,
    bugs: ReplacementBugs,
}

/// Result of a cache lookup-with-fill.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LookupResult {
    /// Whether the access hit.
    pub hit: bool,
    /// Whether the hit line had been brought in by a prefetch (cleared on
    /// first demand hit).
    pub prefetch_hit: bool,
}

impl RecencyCache {
    /// Builds a cache of `size` bytes and `assoc` ways (at least one set
    /// and one way).
    pub fn new(size: u64, assoc: u32) -> Self {
        let ways = assoc.max(1);
        let sets = (size / (LINE_BYTES as u64 * ways as u64)).max(1) as u32;
        RecencyCache {
            sets,
            ways,
            lines: vec![0; sets as usize * ways as usize],
            fill: vec![0; sets as usize],
            bugs: ReplacementBugs::default(),
        }
    }

    /// Installs replacement-policy bugs.
    pub fn set_bugs(&mut self, bugs: ReplacementBugs) {
        self.bugs = bugs;
    }

    /// Number of sets.
    pub fn sets(&self) -> u32 {
        self.sets
    }

    /// The set `addr` maps to, the way its tag holds there (if resident)
    /// and the tag.
    #[inline]
    fn lookup(&self, addr: u32) -> (usize, Option<usize>, u32) {
        let line = addr / LINE_BYTES;
        let set = (line % self.sets) as usize;
        let tag = line / self.sets;
        let base = set * self.ways as usize;
        let resident = &self.lines[base..base + self.fill[set] as usize];
        let way = resident.iter().position(|&l| l & !PREFETCHED == tag);
        (set, way, tag)
    }

    /// Demand access: looks up `addr`, fills on miss. Returns hit status.
    #[inline]
    pub fn access(&mut self, addr: u32) -> LookupResult {
        let (set, way, tag) = self.lookup(addr);
        let Some(way) = way else {
            self.insert(set, tag);
            return LookupResult {
                hit: false,
                prefetch_hit: false,
            };
        };
        let base = set * self.ways as usize;
        let prefetch_hit = self.lines[base + way] & PREFETCHED != 0;
        if self.bugs.skip_age_update {
            self.lines[base + way] = tag;
        } else {
            self.lines.copy_within(base..base + way, base + 1);
            self.lines[base] = tag;
        }
        LookupResult {
            hit: true,
            prefetch_hit,
        }
    }

    /// Prefetch fill: like a miss fill but marks the line as prefetched.
    /// Returns whether the line was already present (then nothing
    /// changes).
    pub fn prefetch_fill(&mut self, addr: u32) -> bool {
        let (set, way, tag) = self.lookup(addr);
        if way.is_none() {
            self.insert(set, tag | PREFETCHED);
        }
        way.is_some()
    }

    /// Inserts `line` at the front of `set`: into an unused way while the
    /// set has one, else over the back (LRU) line, or over the front one
    /// under bug 2.
    #[inline]
    fn insert(&mut self, set: usize, line: u32) {
        let base = set * self.ways as usize;
        let filled = self.fill[set] as usize;
        let shifted = if filled < self.ways as usize {
            self.fill[set] += 1;
            filled
        } else if self.bugs.evict_mru {
            0
        } else {
            filled - 1
        };
        self.lines.copy_within(base..base + shifted, base + 1);
        self.lines[base] = line;
    }

    /// Whether `addr` is resident (no state change).
    #[inline]
    pub fn contains(&self, addr: u32) -> bool {
        self.lookup(addr).1.is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The reference cache: one tag, one age counter and one prefetch bit
    /// per way; every touch ages each way of the set and resets the
    /// touched one, and the victim is the first invalid way, else the
    /// oldest (or, under bug 2, the youngest).
    #[derive(Debug, Clone)]
    struct AgedReference {
        sets: u64,
        ways: usize,
        tags: Vec<u64>,
        /// Age counters: 0 = most recently used.
        ages: Vec<u32>,
        /// Prefetch bit per line (for prefetcher usefulness accounting).
        prefetched: Vec<bool>,
        bugs: ReplacementBugs,
    }

    impl AgedReference {
        fn new(size: u64, assoc: u32) -> Self {
            let ways = assoc.max(1) as usize;
            let sets = (size / (LINE_BYTES as u64 * ways as u64)).max(1);
            AgedReference {
                sets,
                ways,
                tags: vec![u64::MAX; (sets as usize) * ways],
                ages: vec![u32::MAX; (sets as usize) * ways],
                prefetched: vec![false; (sets as usize) * ways],
                bugs: ReplacementBugs::default(),
            }
        }

        fn set_bugs(&mut self, bugs: ReplacementBugs) {
            self.bugs = bugs;
        }

        fn slot_range(&self, addr: u64) -> (usize, u64) {
            let line = addr / LINE_BYTES as u64;
            let set = (line % self.sets) as usize;
            (set * self.ways, line / self.sets)
        }

        fn access(&mut self, addr: u64) -> LookupResult {
            self.access_inner(addr, false)
        }

        fn prefetch_fill(&mut self, addr: u64) -> bool {
            let (base, tag) = self.slot_range(addr);
            if self.tags[base..base + self.ways].contains(&tag) {
                return true;
            }
            let victim = self.pick_victim(base);
            self.tags[base + victim] = tag;
            self.prefetched[base + victim] = true;
            self.touch(base, victim);
            false
        }

        fn access_inner(&mut self, addr: u64, _is_write: bool) -> LookupResult {
            let (base, tag) = self.slot_range(addr);
            let hit_way = self.tags[base..base + self.ways]
                .iter()
                .position(|&t| t == tag);
            match hit_way {
                Some(way) => {
                    let was_prefetch = self.prefetched[base + way];
                    self.prefetched[base + way] = false;
                    if !self.bugs.skip_age_update {
                        self.touch(base, way);
                    }
                    LookupResult {
                        hit: true,
                        prefetch_hit: was_prefetch,
                    }
                }
                None => {
                    let victim = self.pick_victim(base);
                    self.tags[base + victim] = tag;
                    self.prefetched[base + victim] = false;
                    // Fills always stamp the age (the line must have *some*
                    // recency state); bug 1 affects the hit path.
                    self.touch(base, victim);
                    LookupResult {
                        hit: false,
                        prefetch_hit: false,
                    }
                }
            }
        }

        fn pick_victim(&self, base: usize) -> usize {
            // Invalid ways first.
            if let Some(w) = self.tags[base..base + self.ways]
                .iter()
                .position(|&t| t == u64::MAX)
            {
                return w;
            }
            let ages = &self.ages[base..base + self.ways];
            if self.bugs.evict_mru {
                // Most recently used = smallest age.
                ages.iter()
                    .enumerate()
                    .min_by_key(|(_, &a)| a)
                    .map(|(i, _)| i)
                    .expect("ways > 0")
            } else {
                ages.iter()
                    .enumerate()
                    .max_by_key(|(_, &a)| a)
                    .map(|(i, _)| i)
                    .expect("ways > 0")
            }
        }

        fn touch(&mut self, base: usize, way: usize) {
            for a in &mut self.ages[base..base + self.ways] {
                *a = a.saturating_add(1);
            }
            self.ages[base + way] = 0;
        }

        fn contains(&self, addr: u64) -> bool {
            let (base, tag) = self.slot_range(addr);
            self.tags[base..base + self.ways].contains(&tag)
        }
    }

    /// Every level geometry of the twelve designs: 2-32 ways, 64-16384
    /// sets, including 6 MiB/16-way (6144 sets) and 48 KiB/12-way.
    fn preset_geometries() -> Vec<(u64, u32)> {
        crate::config::all()
            .iter()
            .flat_map(|c| [c.l1d, c.l2, c.llc])
            .map(|l| (l.size, l.assoc))
            .collect()
    }

    /// A cache geometry as (size, ways): half the time a preset level,
    /// else 1-32 ways over 1-40 sets.
    fn geometry() -> impl Strategy<Value = (u64, u32)> {
        let presets = preset_geometries();
        let pick = 0..presets.len();
        (any::<bool>(), pick, 1u32..=32, 1u64..=40).prop_map(move |(preset, i, ways, sets)| {
            if preset {
                presets[i]
            } else {
                (LINE_BYTES as u64 * ways as u64 * sets, ways)
            }
        })
    }

    /// One cache operation: a demand access or a prefetch fill.
    #[derive(Debug, Clone, Copy)]
    enum Op {
        Demand(u32),
        Prefetch(u32),
    }

    /// A geometry, its bugs and an operation stream over three times the
    /// capacity of up to eight sets, one prefetch fill in four, and one
    /// address in eight anywhere in the address space.
    fn case() -> impl Strategy<Value = ((u64, u32), ReplacementBugs, Vec<Op>)> {
        let bugs = (any::<bool>(), any::<bool>()).prop_map(|(skip, mru)| ReplacementBugs {
            skip_age_update: skip,
            evict_mru: mru,
        });
        let words = prop::collection::vec(any::<u64>(), 1..600);
        let hot = prop::collection::vec(any::<u32>(), 8);
        (geometry(), bugs, hot, words).prop_map(|(geometry, bugs, hot, words)| {
            let probe = RecencyCache::new(geometry.0, geometry.1);
            let (sets, ways) = (probe.sets(), probe.ways);
            let hot: Vec<u32> = hot
                .iter()
                .take(sets.min(8) as usize)
                .map(|h| h % sets)
                .collect();
            let ops = words
                .into_iter()
                .map(|w| {
                    let addr = match w % 8 {
                        0 => (w >> 32) as u32,
                        _ => {
                            let set = hot[(w >> 3) as usize % hot.len()] as u64;
                            let nth = (w >> 8) % (3 * ways as u64);
                            ((set + nth * sets as u64) * LINE_BYTES as u64 + (w >> 40) % 64) as u32
                        }
                    };
                    if (w >> 16) % 4 == 0 {
                        Op::Prefetch(addr)
                    } else {
                        Op::Demand(addr)
                    }
                })
                .collect();
            (geometry, bugs, ops)
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn recency_lists_match_the_aged_reference(case in case()) {
            let ((size, assoc), bugs, ops) = case;
            let mut cache = RecencyCache::new(size, assoc);
            let mut reference = AgedReference::new(size, assoc);
            cache.set_bugs(bugs);
            reference.set_bugs(bugs);
            prop_assert_eq!(cache.sets() as u64, reference.sets);
            for (i, &op) in ops.iter().enumerate() {
                let (Op::Demand(probe) | Op::Prefetch(probe)) = ops[i / 2];
                prop_assert_eq!(cache.contains(probe), reference.contains(probe.into()));
                match op {
                    Op::Demand(addr) => prop_assert_eq!(
                        cache.access(addr),
                        reference.access(addr.into()),
                        "demand access {}",
                        i
                    ),
                    Op::Prefetch(addr) => prop_assert_eq!(
                        cache.prefetch_fill(addr),
                        reference.prefetch_fill(addr.into()),
                        "prefetch fill {}",
                        i
                    ),
                }
            }
        }
    }

    fn cache2() -> RecencyCache {
        // 2 sets x 2 ways.
        RecencyCache::new(256, 2)
    }

    #[test]
    fn fill_and_hit() {
        let mut c = cache2();
        assert!(!c.access(0).hit);
        assert!(c.access(0).hit);
        assert!(c.access(63).hit); // same line
        assert!(!c.access(64).hit); // next line, other set
    }

    #[test]
    fn lru_keeps_recently_used() {
        let mut c = cache2();
        // Set stride: 2 sets -> lines 0, 2, 4 map to set 0.
        let (a, b, d) = (0, 128, 256);
        c.access(a);
        c.access(b);
        c.access(a); // refresh a
        c.access(d); // evicts b
        assert!(c.contains(a) && !c.contains(b) && c.contains(d));
    }

    #[test]
    fn bug_no_age_update_forgets_recency() {
        let mut c = cache2();
        c.set_bugs(ReplacementBugs {
            skip_age_update: true,
            ..Default::default()
        });
        let (a, b, d) = (0, 128, 256);
        c.access(a);
        c.access(b);
        c.access(a); // with the bug this does NOT refresh a
        c.access(d); // evicts a (oldest fill) instead of b
        assert!(!c.contains(a), "bugged cache must forget the re-used line");
        assert!(c.contains(b) && c.contains(d));
    }

    #[test]
    fn bug_evict_mru_thrashes() {
        let mut c = cache2();
        c.set_bugs(ReplacementBugs {
            evict_mru: true,
            ..Default::default()
        });
        let (a, b, d) = (0, 128, 256);
        c.access(a);
        c.access(b); // b is MRU
        c.access(d); // evicts b (MRU) instead of a
        assert!(c.contains(a) && !c.contains(b) && c.contains(d));
    }

    #[test]
    fn prefetch_fill_marks_lines() {
        let mut c = cache2();
        assert!(!c.prefetch_fill(0));
        let r = c.access(0);
        assert!(
            r.hit && r.prefetch_hit,
            "first demand hit sees the prefetch bit"
        );
        let r = c.access(0);
        assert!(r.hit && !r.prefetch_hit, "bit clears after first use");
    }

    #[test]
    fn highest_addresses_keep_their_tags() {
        // One set: the tag is the whole line number, 2^26 - 1 at the top
        // of the address space, still clear of the prefetch bit.
        let mut c = RecencyCache::new(64, 1);
        assert!(!c.prefetch_fill(u32::MAX));
        assert!(c.contains(u32::MAX) && !c.contains(u32::MAX - 64));
        assert_eq!(
            c.access(u32::MAX),
            LookupResult {
                hit: true,
                prefetch_hit: true
            }
        );
    }
}
