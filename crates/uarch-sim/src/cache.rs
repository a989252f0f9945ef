//! Set-associative caches and the three-level data/instruction hierarchy.

use crate::config::{CacheConfig, MicroarchConfig};

/// Cache line size in bytes (fixed across the hierarchy, like gem5's
/// default).
pub const LINE_BYTES: u32 = 64;

/// One set-associative cache level with true-LRU replacement.
///
/// Each set is a recency list of at most `ways` tags, most recently used
/// first, so LRU order needs no per-line ages: a hit moves its tag to the
/// front, and a miss inserts at the front, dropping the last (least
/// recently used) tag once the set is full. Until then a miss fills an
/// unused way, so this is true LRU with invalid-first fill. The arrays
/// start zeroed and are never pre-filled, so sets no access reaches cost
/// nothing.
#[derive(Debug, Clone)]
pub struct Cache {
    sets: u32,
    ways: u32,
    /// `tags[set * ways..][..fill[set]]`: the set's tags, most recently
    /// used first. Addresses are `u32`, so tags are too.
    tags: Vec<u32>,
    /// Valid tags per set.
    fill: Vec<u32>,
    /// Hit latency in cycles.
    latency: u32,
}

impl Cache {
    /// Builds a cache from its configuration.
    pub fn new(cfg: CacheConfig) -> Self {
        let ways = cfg.assoc.max(1);
        let sets = (cfg.size / (LINE_BYTES as u64 * ways as u64)).max(1) as u32;
        Cache {
            sets,
            ways,
            tags: vec![0; sets as usize * ways as usize],
            fill: vec![0; sets as usize],
            latency: cfg.latency,
        }
    }

    /// Number of sets.
    pub fn sets(&self) -> u32 {
        self.sets
    }

    /// Hit latency in cycles.
    pub fn latency(&self) -> u32 {
        self.latency
    }

    /// The set `addr` maps to, its resident tags (most recently used
    /// first) and its tag.
    fn lookup(&self, addr: u32) -> (usize, &[u32], u32) {
        let line = addr / LINE_BYTES;
        let set = (line % self.sets) as usize;
        let base = set * self.ways as usize;
        let resident = &self.tags[base..base + self.fill[set] as usize];
        (set, resident, line / self.sets)
    }

    /// Looks up `addr`; on miss the line is filled (evicting LRU). Returns
    /// whether the access hit.
    pub fn access(&mut self, addr: u32) -> bool {
        let (set, resident, tag) = self.lookup(addr);
        let hit_way = resident.iter().position(|&t| t == tag);
        let filled = resident.len();
        // Tags ahead of the one moving to the front shift back one way.
        let shifted = match hit_way {
            Some(way) => way,
            None if filled < self.ways as usize => {
                self.fill[set] += 1;
                filled
            }
            None => filled - 1,
        };
        let base = set * self.ways as usize;
        self.tags.copy_within(base..base + shifted, base + 1);
        self.tags[base] = tag;
        hit_way.is_some()
    }

    /// Whether `addr` is currently resident (no state change).
    pub fn contains(&self, addr: u32) -> bool {
        let (_, resident, tag) = self.lookup(addr);
        resident.contains(&tag)
    }
}

/// Counters produced by one hierarchy access.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AccessOutcome {
    /// Latency in cycles until data is available.
    pub latency: u32,
    /// Whether L1 (I or D as appropriate) hit.
    pub l1_hit: bool,
    /// Whether the L2 was accessed and hit.
    pub l2_hit: bool,
    /// Whether the L3 was accessed and hit.
    pub l3_hit: bool,
    /// Whether main memory was reached.
    pub mem: bool,
}

/// The full cache hierarchy of one core: split L1, unified L2/L3.
#[derive(Debug, Clone)]
pub struct Hierarchy {
    l1i: Cache,
    l1d: Cache,
    l2: Cache,
    l3: Option<Cache>,
    mem_latency: u32,
    /// Extra cycles added to L2 hits (bug 10 hook).
    pub l2_extra_latency: u32,
}

impl Hierarchy {
    /// Builds the hierarchy for a design.
    pub fn new(cfg: &MicroarchConfig) -> Self {
        Hierarchy {
            l1i: Cache::new(cfg.l1i),
            l1d: Cache::new(cfg.l1d),
            l2: Cache::new(cfg.l2),
            l3: cfg.l3.map(Cache::new),
            mem_latency: cfg.mem_latency_cycles(),
            l2_extra_latency: 0,
        }
    }

    fn beyond_l1(&mut self, addr: u32, mut outcome: AccessOutcome) -> AccessOutcome {
        if self.l2.access(addr) {
            outcome.l2_hit = true;
            outcome.latency = self.l2.latency() + self.l2_extra_latency;
            return outcome;
        }
        outcome.latency = self.l2.latency() + self.l2_extra_latency;
        if let Some(l3) = &mut self.l3 {
            if l3.access(addr) {
                outcome.l3_hit = true;
                outcome.latency = l3.latency();
                return outcome;
            }
            outcome.latency = l3.latency();
        }
        outcome.mem = true;
        outcome.latency = self.mem_latency;
        outcome
    }

    /// Data-side access (load or store) returning latency and per-level
    /// hit flags.
    pub fn access_data(&mut self, addr: u32) -> AccessOutcome {
        let mut outcome = AccessOutcome::default();
        if self.l1d.access(addr) {
            outcome.l1_hit = true;
            outcome.latency = self.l1d.latency();
            return outcome;
        }
        self.beyond_l1(addr, outcome)
    }

    /// Instruction-side access returning latency and per-level hit flags.
    pub fn access_inst(&mut self, addr: u32) -> AccessOutcome {
        let mut outcome = AccessOutcome::default();
        if self.l1i.access(addr) {
            outcome.l1_hit = true;
            outcome.latency = self.l1i.latency();
            return outcome;
        }
        self.beyond_l1(addr, outcome)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The reference true-LRU cache: one tag and one age per way, the
    /// touched way's age reset and every other way in the set aged on each
    /// access, and a miss filling the first invalid way, else the oldest.
    struct AgedReference {
        sets: u32,
        ways: u32,
        /// `u64::MAX` marks an invalid way.
        tags: Vec<u64>,
        ages: Vec<u32>,
    }

    impl AgedReference {
        fn new(cfg: CacheConfig) -> Self {
            let ways = cfg.assoc.max(1);
            let sets = (cfg.size / (LINE_BYTES as u64 * ways as u64)).max(1) as u32;
            AgedReference {
                sets,
                ways,
                tags: vec![u64::MAX; (sets * ways) as usize],
                ages: vec![0; (sets * ways) as usize],
            }
        }

        fn index(&self, addr: u32) -> (usize, u64) {
            let line = addr / LINE_BYTES;
            let base = (line % self.sets * self.ways) as usize;
            (base, (line / self.sets) as u64)
        }

        fn access(&mut self, addr: u32) -> bool {
            let (base, tag) = self.index(addr);
            let ways = base..base + self.ways as usize;
            let hit_way = self.tags[ways.clone()].iter().position(|&t| t == tag);
            let way = hit_way.unwrap_or_else(|| {
                let victim = self.tags[ways.clone()]
                    .iter()
                    .position(|&t| t == u64::MAX)
                    .unwrap_or_else(|| {
                        let ages = self.ages[ways.clone()].iter().enumerate();
                        ages.max_by_key(|(_, &a)| a).expect("nonzero ways").0
                    });
                self.tags[base + victim] = tag;
                victim
            });
            for a in &mut self.ages[ways] {
                *a = a.saturating_add(1);
            }
            self.ages[base + way] = 0;
            hit_way.is_some()
        }

        fn contains(&self, addr: u32) -> bool {
            let (base, tag) = self.index(addr);
            self.tags[base..base + self.ways as usize].contains(&tag)
        }
    }

    /// A geometry of 1-32 ways and 1-40 sets (powers of two or not), and
    /// an address stream over about three times its capacity in lines,
    /// with one access in eight anywhere in the address space.
    fn geometry_and_stream() -> impl Strategy<Value = (CacheConfig, Vec<u32>)> {
        let words = prop::collection::vec(any::<u64>(), 1..400);
        (1u32..=32, 1u32..=40, words).prop_map(|(ways, sets, words)| {
            let cfg = CacheConfig {
                size: LINE_BYTES as u64 * ways as u64 * sets as u64,
                assoc: ways,
                latency: 1,
            };
            let lines = 3 * (ways * sets) as u64;
            let stream = words
                .into_iter()
                .map(|w| match w % 8 {
                    0 => (w >> 32) as u32,
                    _ => ((w >> 3) % lines * LINE_BYTES as u64 + (w >> 40) % 64) as u32,
                })
                .collect();
            (cfg, stream)
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn recency_lists_match_the_aged_reference(case in geometry_and_stream()) {
            let (cfg, stream) = case;
            let mut cache = Cache::new(cfg);
            let mut reference = AgedReference::new(cfg);
            prop_assert_eq!(cache.sets(), reference.sets);
            for (i, &addr) in stream.iter().enumerate() {
                let probe = stream[i / 2];
                prop_assert_eq!(cache.contains(probe), reference.contains(probe));
                prop_assert_eq!(cache.access(addr), reference.access(addr), "access {}", i);
                prop_assert!(cache.contains(addr));
            }
        }
    }

    fn tiny_cache() -> Cache {
        // 4 sets x 2 ways x 64B = 512B.
        Cache::new(CacheConfig {
            size: 512,
            assoc: 2,
            latency: 3,
        })
    }

    #[test]
    fn miss_then_hit() {
        let mut c = tiny_cache();
        assert!(!c.access(0x1000));
        assert!(c.access(0x1000));
        assert!(c.access(0x1001)); // same line
    }

    #[test]
    fn lru_evicts_oldest() {
        let mut c = tiny_cache();
        // Three lines mapping to the same set (set stride = 4 lines = 256B).
        let a = 0x0000;
        let b = 0x0100;
        let d = 0x0200;
        c.access(a);
        c.access(b);
        c.access(a); // a is now MRU, b is LRU
        c.access(d); // evicts b
        assert!(c.contains(a));
        assert!(!c.contains(b));
        assert!(c.contains(d));
    }

    #[test]
    fn hierarchy_latency_ordering() {
        let cfg = crate::presets::skylake();
        let mut h = Hierarchy::new(&cfg);
        let first = h.access_data(0x4000_0000);
        assert!(first.mem, "cold access must reach memory");
        let second = h.access_data(0x4000_0000);
        assert!(second.l1_hit);
        assert!(second.latency < first.latency);
        assert_eq!(second.latency, cfg.l1d.latency);
    }

    #[test]
    fn l2_extra_latency_applies_on_l2_hits_only() {
        let cfg = crate::presets::skylake();
        let mut h = Hierarchy::new(&cfg);
        h.access_data(0x5000_0000); // fill everything
        let l1 = h.access_data(0x5000_0000);
        assert!(l1.l1_hit);

        let mut buggy = Hierarchy::new(&cfg);
        buggy.l2_extra_latency = 7;
        buggy.access_data(0x5000_0000);
        let l1b = buggy.access_data(0x5000_0000);
        assert_eq!(l1.latency, l1b.latency, "L1 hits unaffected by the L2 bug");
    }

    #[test]
    fn instruction_and_data_l1_are_split() {
        let cfg = crate::presets::skylake();
        let mut h = Hierarchy::new(&cfg);
        h.access_inst(0x1000_0000);
        let d = h.access_data(0x1000_0000);
        assert!(!d.l1_hit, "L1D must not hit on a line only in L1I");
        assert!(d.l2_hit, "but unified L2 holds it");
    }
}
