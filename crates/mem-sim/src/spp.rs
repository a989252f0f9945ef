//! Signature Path Prefetcher (SPP) after Kim et al., MICRO 2016.
//!
//! A compressed-history (signature) table per page feeds a pattern table of
//! delta predictions with confidence counters; lookahead prefetching walks
//! the most confident delta path until confidence falls below a threshold.
//! The paper's memory bugs 4 and 5 live here: signature reset and
//! least-confidence path selection.

/// Block offset bits within a 4 KiB page (64 blocks of 64 B).
const BLOCKS_PER_PAGE: i64 = 64;
const PAGE_SHIFT: u32 = 12;
const BLOCK_SHIFT: u32 = 6;
const SIG_BITS: u32 = 12;
const SIG_MASK: u16 = (1 << SIG_BITS) - 1;

/// Configuration of the prefetcher.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SppConfig {
    /// Signature-table entries (direct-mapped by page).
    pub st_entries: usize,
    /// Pattern-table entries (direct-mapped by signature).
    pub pt_entries: usize,
    /// Maximum lookahead depth per access.
    pub max_degree: usize,
    /// Minimum path confidence to keep prefetching.
    pub confidence_threshold: f64,
}

impl Default for SppConfig {
    fn default() -> Self {
        SppConfig {
            st_entries: 256,
            pt_entries: 512,
            max_degree: 8,
            confidence_threshold: 0.25,
        }
    }
}

/// Behavioural defects injectable into the prefetcher.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SppBugs {
    /// Bug 4: signatures are reset on update (prefetcher predicts from a
    /// zeroed signature, i.e. the wrong table row).
    pub reset_signature: bool,
    /// Bug 5: lookahead follows the *least* confident delta.
    pub least_confidence: bool,
    /// Bug 7 (degree half): walk exactly this deep, ignoring the path
    /// confidence threshold. `0` = healthy (confidence-gated) walk.
    pub degree_override: u32,
    /// Bug 7 (stride half): blocks added to every predicted delta, so the
    /// prefetch lands next to — not on — the predicted block.
    pub delta_skew: i64,
}

#[derive(Debug, Clone, Copy)]
struct StEntry {
    page: u64,
    last_offset: i64,
    signature: u16,
    valid: bool,
}

/// Four-way delta pattern entry.
#[derive(Debug, Clone, Copy, Default)]
struct PtEntry {
    deltas: [i64; 4],
    counts: [u32; 4],
    sig_count: u32,
}

/// The Signature Path Prefetcher.
#[derive(Debug, Clone)]
pub struct Spp {
    cfg: SppConfig,
    st: Vec<StEntry>,
    pt: Vec<PtEntry>,
    bugs: SppBugs,
    /// The last [`Spp::access`]'s prefetch addresses, reused across calls.
    prefetches: Vec<u64>,
}

impl Spp {
    /// Creates a prefetcher.
    pub fn new(cfg: SppConfig) -> Self {
        Spp {
            st: vec![
                StEntry {
                    page: 0,
                    last_offset: 0,
                    signature: 0,
                    valid: false
                };
                cfg.st_entries.max(1)
            ],
            pt: vec![PtEntry::default(); cfg.pt_entries.max(1)],
            cfg,
            bugs: SppBugs::default(),
            prefetches: Vec::new(),
        }
    }

    /// Installs prefetcher bugs.
    pub fn set_bugs(&mut self, bugs: SppBugs) {
        self.bugs = bugs;
    }

    fn advance_signature(sig: u16, delta: i64) -> u16 {
        // 6-bit two's-complement delta folded into the signature.
        let d = (delta & 0x3F) as u16;
        ((sig << 3) ^ d) & SIG_MASK
    }

    /// Trains on a demand access and returns the lookahead prefetch
    /// addresses (block-aligned, same page). The slice is valid until the
    /// next call.
    pub fn access(&mut self, addr: u64) -> &[u64] {
        self.prefetches.clear();
        let page = addr >> PAGE_SHIFT;
        let offset = ((addr >> BLOCK_SHIFT) as i64) % BLOCKS_PER_PAGE;
        let st_idx = (page as usize) % self.st.len();
        let entry = self.st[st_idx];

        let mut signature = 0u16;
        if entry.valid && entry.page == page {
            let delta = offset - entry.last_offset;
            if delta == 0 {
                return &self.prefetches; // same block, nothing to learn
            }
            // Train the pattern table on (old signature -> delta).
            let pt_idx = (entry.signature as usize) % self.pt.len();
            let pt = &mut self.pt[pt_idx];
            pt.sig_count = pt.sig_count.saturating_add(1);
            if let Some(slot) = pt.deltas.iter().position(|&d| d == delta) {
                pt.counts[slot] = pt.counts[slot].saturating_add(1);
            } else {
                // Replace the weakest slot.
                let weakest = pt
                    .counts
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, &c)| c)
                    .map(|(i, _)| i)
                    .expect("four slots");
                pt.deltas[weakest] = delta;
                pt.counts[weakest] = 1;
            }
            signature = if self.bugs.reset_signature {
                0
            } else {
                Self::advance_signature(entry.signature, delta)
            };
        }
        self.st[st_idx] = StEntry {
            page,
            last_offset: offset,
            signature,
            valid: true,
        };

        // Lookahead walk.
        let mut sig = signature;
        let mut cur = offset;
        let mut confidence = 1.0f64;
        // Bug 7: a forced degree walks past the confidence gate.
        let depth = if self.bugs.degree_override > 0 {
            self.bugs.degree_override as usize
        } else {
            self.cfg.max_degree
        };
        for _ in 0..depth {
            let pt = &self.pt[(sig as usize) % self.pt.len()];
            if pt.sig_count == 0 {
                break;
            }
            let candidates = pt.deltas.iter().zip(&pt.counts).filter(|(_, &c)| c > 0);
            let chosen = if self.bugs.least_confidence {
                candidates.min_by_key(|(_, &c)| c)
            } else {
                candidates.max_by_key(|(_, &c)| c)
            };
            let Some((&delta, &count)) = chosen else {
                break;
            };
            let path_conf = confidence * (count as f64 / pt.sig_count as f64);
            if self.bugs.degree_override == 0 && path_conf < self.cfg.confidence_threshold {
                break;
            }
            // Bug 7: the issued stride is skewed off the predicted delta.
            let next = cur + delta + self.bugs.delta_skew;
            if !(0..BLOCKS_PER_PAGE).contains(&next) {
                break; // SPP does not cross pages (without the GHR trick)
            }
            self.prefetches
                .push((page << PAGE_SHIFT) | ((next as u64) << BLOCK_SHIFT));
            sig = Self::advance_signature(sig, delta);
            cur = next;
            confidence = path_conf;
        }
        &self.prefetches
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn walk(spp: &mut Spp, page: u64, offsets: &[i64]) -> Vec<Vec<u64>> {
        offsets
            .iter()
            .map(|&o| {
                spp.access((page << PAGE_SHIFT) | ((o as u64) << BLOCK_SHIFT))
                    .to_vec()
            })
            .collect()
    }

    #[test]
    fn learns_unit_stride() {
        let mut spp = Spp::new(SppConfig::default());
        // Train: page 1, offsets 0..16 with stride 1.
        let offsets: Vec<i64> = (0..16).collect();
        walk(&mut spp, 1, &offsets);
        // On a fresh page-2 stream with the same pattern the signature path
        // should start prefetching ahead after a few accesses.
        let results = walk(&mut spp, 2, &(0..8).collect::<Vec<_>>());
        let issued: usize = results.iter().map(Vec::len).sum();
        assert!(
            issued > 0,
            "stride-1 pattern must trigger lookahead prefetches"
        );
        // All prefetches stay in page 2.
        for r in &results {
            for &addr in r {
                assert_eq!(addr >> PAGE_SHIFT, 2);
            }
        }
    }

    #[test]
    fn prefetches_run_ahead_of_the_stream() {
        let mut spp = Spp::new(SppConfig::default());
        let offsets: Vec<i64> = (0..32).collect();
        let results = walk(&mut spp, 7, &offsets);
        // After warm-up, accessing offset k should prefetch k+1 (at least).
        let late = &results[20];
        assert!(late
            .iter()
            .any(|&a| (a >> BLOCK_SHIFT) as i64 % BLOCKS_PER_PAGE == 21));
    }

    #[test]
    fn signature_reset_bug_degrades_prefetching() {
        // A two-phase pattern (stride 1 then stride 2, alternating) that a
        // signature distinguishes but a zeroed signature conflates.
        let pattern: Vec<i64> = vec![
            0, 1, 3, 4, 6, 7, 9, 10, 12, 13, 15, 16, 18, 19, 21, 22, 24, 25, 27, 28,
        ];
        let run = |bugs: SppBugs| -> usize {
            let mut spp = Spp::new(SppConfig::default());
            spp.set_bugs(bugs);
            let mut useful = 0;
            for page in 0..12u64 {
                let results = walk(&mut spp, page, &pattern);
                // Count prefetches that the later stream actually touches.
                let touched: Vec<u64> = pattern
                    .iter()
                    .map(|&o| (page << PAGE_SHIFT) | ((o as u64) << BLOCK_SHIFT))
                    .collect();
                for (i, r) in results.iter().enumerate() {
                    for &p in r {
                        if touched[i + 1..].contains(&p) {
                            useful += 1;
                        }
                    }
                }
            }
            useful
        };
        let healthy = run(SppBugs::default());
        let buggy = run(SppBugs {
            reset_signature: true,
            ..Default::default()
        });
        assert!(
            buggy < healthy,
            "reset signatures must produce fewer useful prefetches ({buggy} !< {healthy})"
        );
    }

    #[test]
    fn least_confidence_bug_changes_path() {
        // Two training populations share the (1, 1) prefix then diverge:
        // most pages continue +1, a minority jumps +3. The shared signature
        // ends up with two candidate deltas of different confidence, so
        // bug 5 (least-confidence path) must prefetch a different address.
        let majority: Vec<i64> = (0..16).collect(); // deltas 1,1,1,...
        let minority: Vec<i64> = vec![0, 1, 2, 5, 6, 7, 10, 11, 12, 15]; // 1,1,3 repeating
        let train = |spp: &mut Spp| {
            for page in 0..9u64 {
                walk(spp, 2 * page, &majority);
            }
            for page in 0..3u64 {
                walk(spp, 2 * page + 1, &minority);
            }
        };
        let mut healthy = Spp::new(SppConfig {
            confidence_threshold: 0.05,
            ..Default::default()
        });
        let mut buggy = Spp::new(SppConfig {
            confidence_threshold: 0.05,
            ..Default::default()
        });
        buggy.set_bugs(SppBugs {
            least_confidence: true,
            ..Default::default()
        });
        train(&mut healthy);
        train(&mut buggy);
        let h = walk(&mut healthy, 100, &[0, 1, 2]);
        let b = walk(&mut buggy, 100, &[0, 1, 2]);
        assert_ne!(
            h, b,
            "bug 5 must choose a different lookahead path: {h:?} vs {b:?}"
        );
    }

    #[test]
    fn no_cross_page_prefetches() {
        let mut spp = Spp::new(SppConfig::default());
        let offsets: Vec<i64> = (48..64).collect();
        for page in 0..6u64 {
            for r in walk(&mut spp, page, &offsets) {
                for &addr in &r {
                    assert_eq!(addr >> PAGE_SHIFT, page);
                }
            }
        }
    }
}
