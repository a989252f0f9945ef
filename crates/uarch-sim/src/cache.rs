//! The three-level data/instruction hierarchy of one core.
//!
//! Each level is a [`RecencyCache`], the memory simulator's true-LRU
//! set-associative cache, plus a hit latency. The core simulator injects
//! no replacement bugs, so its caches are plain LRU with invalid-first
//! fill.

use perfbug_memsim::RecencyCache;

use crate::config::{CacheConfig, MicroarchConfig};

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

/// One cache level: its tags and its hit latency.
#[derive(Debug, Clone)]
struct Level {
    cache: RecencyCache,
    latency: u32,
}

impl Level {
    fn new(cfg: CacheConfig) -> Self {
        Level {
            cache: RecencyCache::new(cfg.size, cfg.assoc),
            latency: cfg.latency,
        }
    }
}

/// The full cache hierarchy of one core: split L1, unified L2/L3.
#[derive(Debug, Clone)]
pub struct Hierarchy {
    l1i: Level,
    l1d: Level,
    l2: Level,
    l3: Option<Level>,
    mem_latency: u32,
    /// Extra cycles added to L2 hits (bug 10 hook).
    pub l2_extra_latency: u32,
}

impl Hierarchy {
    /// Builds the hierarchy for a design.
    pub fn new(cfg: &MicroarchConfig) -> Self {
        Hierarchy {
            l1i: Level::new(cfg.l1i),
            l1d: Level::new(cfg.l1d),
            l2: Level::new(cfg.l2),
            l3: cfg.l3.map(Level::new),
            mem_latency: cfg.mem_latency_cycles(),
            l2_extra_latency: 0,
        }
    }

    fn beyond_l1(&mut self, addr: u32, mut outcome: AccessOutcome) -> AccessOutcome {
        if self.l2.cache.access(addr).hit {
            outcome.l2_hit = true;
            outcome.latency = self.l2.latency + self.l2_extra_latency;
            return outcome;
        }
        if let Some(l3) = &mut self.l3 {
            if l3.cache.access(addr).hit {
                outcome.l3_hit = true;
                outcome.latency = l3.latency;
                return outcome;
            }
        }
        outcome.mem = true;
        outcome.latency = self.mem_latency;
        outcome
    }

    /// Data-side access (load or store) returning latency and per-level
    /// hit flags.
    pub fn access_data(&mut self, addr: u32) -> AccessOutcome {
        let mut outcome = AccessOutcome::default();
        if self.l1d.cache.access(addr).hit {
            outcome.l1_hit = true;
            outcome.latency = self.l1d.latency;
            return outcome;
        }
        self.beyond_l1(addr, outcome)
    }

    /// Instruction-side access returning latency and per-level hit flags.
    pub fn access_inst(&mut self, addr: u32) -> AccessOutcome {
        let mut outcome = AccessOutcome::default();
        if self.l1i.cache.access(addr).hit {
            outcome.l1_hit = true;
            outcome.latency = self.l1i.latency;
            return outcome;
        }
        self.beyond_l1(addr, outcome)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_level() -> Level {
        // 4 sets x 2 ways x 64B = 512B.
        Level::new(CacheConfig {
            size: 512,
            assoc: 2,
            latency: 3,
        })
    }

    #[test]
    fn miss_then_hit() {
        let mut c = tiny_level().cache;
        assert!(!c.access(0x1000).hit);
        assert!(c.access(0x1000).hit);
        assert!(c.access(0x1001).hit); // same line
    }

    #[test]
    fn lru_evicts_oldest() {
        let mut c = tiny_level().cache;
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

    /// `addr`, then `n` more lines in its L2 set, all through the L1I, so
    /// the L1D never holds them and `addr` leaves the L2 once `n` reaches
    /// the L2's associativity.
    fn fill_l2_set_through_l1i(h: &mut Hierarchy, cfg: &MicroarchConfig, addr: u32, n: u32) {
        let l2_stride = (cfg.l2.size / cfg.l2.assoc as u64) as u32;
        h.access_inst(addr);
        for k in 1..=n {
            h.access_inst(addr + k * l2_stride);
        }
    }

    #[test]
    fn l2_extra_latency_applies_on_l2_hits_only() {
        let cfg = crate::presets::skylake();
        let l3 = cfg.l3.expect("Skylake has an L3");
        let mut healthy = Hierarchy::new(&cfg);
        let mut buggy = Hierarchy::new(&cfg);
        buggy.l2_extra_latency = 7;
        for h in [&mut healthy, &mut buggy] {
            // Memory: a cold access misses every level.
            let mem = h.access_data(0x5000_0000);
            assert!(mem.mem);
            assert_eq!(mem.latency, cfg.mem_latency_cycles());
            // L1D hit.
            let l1 = h.access_data(0x5000_0000);
            assert!(l1.l1_hit);
            assert_eq!(l1.latency, cfg.l1d.latency);
            // L3 hit: the line went in through the L1I and was then pushed
            // out of its L2 set, but the L3 keeps it.
            fill_l2_set_through_l1i(h, &cfg, 0x6000_0000, cfg.l2.assoc);
            let l3_hit = h.access_data(0x6000_0000);
            assert!(!l3_hit.l1_hit && !l3_hit.l2_hit && l3_hit.l3_hit);
            assert_eq!(l3_hit.latency, l3.latency);
        }
        // L2 hit: a line only the L1I and the L2 hold.
        healthy.access_inst(0x7000_0000);
        buggy.access_inst(0x7000_0000);
        let l2 = healthy.access_data(0x7000_0000);
        let l2b = buggy.access_data(0x7000_0000);
        assert!(l2.l2_hit && l2b.l2_hit);
        assert_eq!(l2.latency, cfg.l2.latency);
        assert_eq!(l2b.latency, cfg.l2.latency + 7, "L2 hits pay the bug");
    }

    #[test]
    fn l2_miss_without_an_l3_goes_to_memory() {
        let cfg = crate::presets::jaguar();
        assert!(cfg.l3.is_none());
        let mut h = Hierarchy::new(&cfg);
        let cold = h.access_data(0x5000_0000);
        assert!(cold.mem && !cold.l3_hit);
        assert_eq!(cold.latency, cfg.mem_latency_cycles());
        // A line evicted from the L2 (and never in the L1D) goes to memory
        // again.
        fill_l2_set_through_l1i(&mut h, &cfg, 0x6000_0000, cfg.l2.assoc);
        let evicted = h.access_data(0x6000_0000);
        assert!(!evicted.l2_hit && evicted.mem && !evicted.l3_hit);
        assert_eq!(evicted.latency, cfg.mem_latency_cycles());
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
