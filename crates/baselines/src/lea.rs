//! A Doug Lea (`dlmalloc` 2.x) style allocator.
//!
//! The manager underlying Linux allocators, simplified to the mechanisms
//! that drive its footprint shape in the paper's Figure 5:
//!
//! - boundary tags (header + footer, 8 bytes per block) enable bidirectional
//!   coalescing;
//! - exact-spaced **small bins** (< 512 bytes) and one size-ordered
//!   **large bin**;
//! - an **unsorted list**: frees park there first, and only an allocation
//!   miss consolidates them with their neighbours ("Lea coalesces seldom");
//! - splitting with a small-remainder floor;
//! - trimming only when the top free block exceeds 128 KiB — so Lea's
//!   footprint plateaus where the paper's custom manager tracks demand.

use std::collections::{BTreeMap, HashMap, VecDeque};

use dmm_core::error::{Error, Result};
use dmm_core::heap::{Arena, Block, BlockMap, BlockState, Span};
use dmm_core::manager::{Allocator, BlockHandle};
use dmm_core::metrics::AllocStats;
use dmm_core::units::{align_up, MIN_ALIGN, MIN_BLOCK, POINTER_BYTES};

/// Header + footer boundary tags.
const TAGS: usize = 8;
/// Requests below this use the exact small bins.
const SMALL_LIMIT: usize = 512;
/// Spacing of the small bins.
const SMALL_SPACING: usize = 8;
/// Top free block above this is returned to the system.
const TRIM_THRESHOLD: usize = 128 * 1024;
/// Smallest split remainder kept as a block.
const SPLIT_FLOOR: usize = 32;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Bin {
    Small(usize),
    Large,
    Unsorted,
}

/// Hand-rolled Lea-style allocator.
///
/// # Examples
///
/// ```
/// use dmm_baselines::LeaAllocator;
/// use dmm_core::manager::Allocator;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut lea = LeaAllocator::new();
/// let h = lea.alloc(300)?;
/// lea.free(h)?;
/// // The freed block parks in the unsorted list; nothing was merged yet.
/// assert_eq!(lea.stats().coalesces, 0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct LeaAllocator {
    arena: Arena,
    blocks: BlockMap,
    small_bins: HashMap<usize, VecDeque<usize>>,
    large_bin: BTreeMap<(usize, usize), ()>,
    unsorted: VecDeque<usize>,
    bin_of: HashMap<usize, Bin>,
    stats: AllocStats,
}

impl Default for LeaAllocator {
    fn default() -> Self {
        Self::new()
    }
}

impl LeaAllocator {
    /// A fresh allocator with an unbounded arena.
    pub fn new() -> Self {
        LeaAllocator {
            arena: Arena::unbounded(),
            blocks: BlockMap::new(),
            small_bins: HashMap::new(),
            large_bin: BTreeMap::new(),
            unsorted: VecDeque::new(),
            bin_of: HashMap::new(),
            stats: AllocStats::default(),
        }
    }

    fn block_len_for(req: usize) -> usize {
        align_up(req + TAGS, MIN_ALIGN).max(MIN_BLOCK)
    }

    fn small_bin_size(len: usize) -> Option<usize> {
        if len < SMALL_LIMIT {
            Some(align_up(len, SMALL_SPACING))
        } else {
            None
        }
    }

    fn static_overhead(&self) -> usize {
        // Bin head pointers: the classic static bin array (64 small bins +
        // one large bin + the unsorted list head).
        (SMALL_LIMIT / SMALL_SPACING + 2) * POINTER_BYTES
    }

    fn sync(&mut self) {
        self.stats
            .set_system(self.arena.brk(), self.static_overhead());
    }

    fn bin_insert(&mut self, span: Span) {
        let bin = match Self::small_bin_size(span.len) {
            Some(_) if span.len < SMALL_LIMIT => Bin::Small(span.len),
            _ => Bin::Large,
        };
        match bin {
            Bin::Small(sz) => self
                .small_bins
                .entry(sz)
                .or_default()
                .push_front(span.offset),
            Bin::Large => {
                self.large_bin.insert((span.len, span.offset), ());
            }
            Bin::Unsorted => unreachable!(),
        }
        self.bin_of.insert(span.offset, bin);
        self.stats.search_steps += 1;
    }

    fn unsorted_insert(&mut self, span: Span) {
        self.unsorted.push_front(span.offset);
        self.bin_of.insert(span.offset, Bin::Unsorted);
        self.stats.search_steps += 1;
    }

    fn bin_remove(&mut self, offset: usize) {
        let Some(bin) = self.bin_of.remove(&offset) else {
            return;
        };
        self.stats.search_steps += 1;
        match bin {
            Bin::Small(sz) => {
                if let Some(q) = self.small_bins.get_mut(&sz) {
                    if let Some(pos) = q.iter().position(|&o| o == offset) {
                        q.remove(pos);
                    }
                }
            }
            Bin::Large => {
                let len = self
                    .blocks
                    .get(offset)
                    .expect("binned block exists")
                    .span
                    .len;
                self.large_bin.remove(&(len, offset));
            }
            Bin::Unsorted => {
                if let Some(pos) = self.unsorted.iter().position(|&o| o == offset) {
                    self.unsorted.remove(pos);
                }
            }
        }
    }

    /// Merge the free block at `offset` with free neighbours (removing them
    /// from their bins) and return the merged span, left unbinned.
    fn coalesce(&mut self, offset: usize) -> Span {
        let mut span = self.blocks.get(offset).expect("block exists").span;
        while let Some(next) = self.blocks.next_of(span.offset).copied() {
            if !next.is_free() {
                break;
            }
            self.stats.search_steps += 1;
            self.bin_remove(next.span.offset);
            self.blocks.remove(next.span.offset);
            span = Span::new(span.offset, span.len + next.span.len);
            self.blocks.get_mut(span.offset).expect("exists").span = span;
            self.stats.coalesces += 1;
        }
        while let Some(prev) = self.blocks.prev_of(span.offset).copied() {
            if !prev.is_free() || prev.span.end() != span.offset {
                break;
            }
            self.stats.search_steps += 1; // footer makes this O(1)
            self.bin_remove(prev.span.offset);
            self.blocks.remove(span.offset);
            span = Span::new(prev.span.offset, prev.span.len + span.len);
            self.blocks.get_mut(span.offset).expect("exists").span = span;
            self.stats.coalesces += 1;
        }
        span
    }

    /// Consolidate the unsorted list into the proper bins, merging
    /// neighbours — dlmalloc's malloc-time lazy coalescing.
    fn consolidate(&mut self) {
        while let Some(offset) = self.unsorted.pop_back() {
            self.stats.search_steps += 1;
            self.bin_of.remove(&offset);
            if self
                .blocks
                .get(offset)
                .map(|b| !b.is_free())
                .unwrap_or(true)
            {
                continue; // already absorbed by an earlier merge
            }
            let span = self.coalesce(offset);
            self.bin_insert(span);
        }
    }

    /// Find a block of at least `len` bytes: exact small bin, then best fit
    /// over the large bin.
    fn search_bins(&mut self, len: usize) -> Option<Span> {
        if let Some(sz) = Self::small_bin_size(len) {
            // Exact bin and the next few spacings up, like dlmalloc's
            // small-bin scan.
            let mut probe = sz;
            while probe < SMALL_LIMIT {
                self.stats.search_steps += 1;
                if let Some(q) = self.small_bins.get_mut(&probe) {
                    if let Some(offset) = q.pop_front() {
                        self.bin_of.remove(&offset);
                        return Some(Span::new(offset, probe));
                    }
                }
                probe += SMALL_SPACING;
            }
        }
        self.stats.search_steps += 1;
        if let Some((&(l, o), ())) = self.large_bin.range((len, 0)..).next() {
            self.large_bin.remove(&(l, o));
            self.bin_of.remove(&o);
            return Some(Span::new(o, l));
        }
        None
    }

    /// Split `span` down to `need` if the remainder is worth keeping.
    fn split(&mut self, span: Span, need: usize) -> usize {
        let remainder = span.len - need;
        if remainder < SPLIT_FLOOR.max(MIN_BLOCK) {
            return span.len;
        }
        self.stats.splits += 1;
        self.stats.search_steps += 2;
        self.blocks.get_mut(span.offset).expect("exists").span = Span::new(span.offset, need);
        let rem = Span::new(span.offset + need, remainder);
        self.blocks.insert(Block::free(rem, 0));
        self.bin_insert(rem);
        need
    }

    fn trim_top(&mut self) {
        while let Some(top) = self.blocks.top().copied() {
            if !top.is_free() || top.span.len < TRIM_THRESHOLD {
                break;
            }
            self.bin_remove(top.span.offset);
            self.blocks.remove(top.span.offset);
            self.arena.trim(top.span.offset);
            self.stats.trims += 1;
        }
    }

    /// Tiling/bin consistency check for tests.
    pub fn check_invariants(&self) -> std::result::Result<(), String> {
        if let Some(e) = self.blocks.check_tiling(self.arena.brk()) {
            return Err(e);
        }
        for (&offset, _) in self.bin_of.iter() {
            match self.blocks.get(offset) {
                Some(b) if b.is_free() => {}
                _ => return Err(format!("binned offset {offset} is not a free block")),
            }
        }
        Ok(())
    }
}

impl Allocator for LeaAllocator {
    fn name(&self) -> &str {
        "Lea"
    }

    fn alloc(&mut self, req: usize) -> Result<BlockHandle> {
        let req = req.max(1);
        let need = Self::block_len_for(req);

        let mut found = self.search_bins(need);
        if found.is_none() && !self.unsorted.is_empty() {
            self.stats.failed_fits += 1;
            self.consolidate();
            found = self.search_bins(need);
        }
        let span = match found {
            Some(s) => s,
            None => {
                // Extend or create the top block.
                self.stats.failed_fits += 1;
                if let Some(top) = self.blocks.top().copied() {
                    if top.is_free() && top.span.len < need {
                        let grow = need - top.span.len;
                        self.arena.sbrk(grow)?;
                        self.stats.sbrk_calls += 1;
                        self.bin_remove(top.span.offset);
                        let span = Span::new(top.span.offset, need);
                        self.blocks.get_mut(top.span.offset).expect("exists").span = span;
                        span
                    } else {
                        let base = self.arena.sbrk(need)?;
                        self.stats.sbrk_calls += 1;
                        self.blocks.insert(Block::free(Span::new(base, need), 0));
                        Span::new(base, need)
                    }
                } else {
                    let base = self.arena.sbrk(need)?;
                    self.stats.sbrk_calls += 1;
                    self.blocks.insert(Block::free(Span::new(base, need), 0));
                    Span::new(base, need)
                }
            }
        };

        let kept = self.split(span, need);
        let blk = self.blocks.get_mut(span.offset).expect("exists");
        blk.state = BlockState::Used;
        blk.requested = req;
        self.stats.on_alloc(req, kept);
        self.sync();
        Ok(BlockHandle::new(span.offset, 0))
    }

    fn free(&mut self, handle: BlockHandle) -> Result<()> {
        let offset = handle.offset();
        let (req, len) = match self.blocks.get(offset) {
            Some(b) if !b.is_free() => (b.requested, b.span.len),
            _ => return Err(Error::InvalidFree { offset }),
        };
        self.stats.on_free(req, len);
        {
            let blk = self.blocks.get_mut(offset).expect("exists");
            blk.state = BlockState::Free;
            blk.requested = 0;
        }
        // dlmalloc consolidates frees bordering the top immediately (and
        // may then trim); everything else parks in the unsorted list.
        let borders_top = self
            .blocks
            .next_of(offset)
            .map(|n| !n.is_free())
            .unwrap_or(true)
            && self
                .blocks
                .top()
                .map(|t| t.span.offset == offset)
                .unwrap_or(false);
        if borders_top {
            let span = self.coalesce(offset);
            self.bin_insert(span);
            self.trim_top();
        } else {
            self.unsorted_insert(Span::new(offset, len));
        }
        self.sync();
        Ok(())
    }

    fn footprint(&self) -> usize {
        self.stats.system
    }

    fn stats(&self) -> &AllocStats {
        &self.stats
    }

    fn reset(&mut self) {
        *self = LeaAllocator::new();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn boundary_tags_cost_eight_bytes() {
        let mut lea = LeaAllocator::new();
        let _ = lea.alloc(120).unwrap(); // 120 + 8 -> 128
        assert_eq!(lea.stats().live_block, 128);
    }

    #[test]
    fn frees_park_in_unsorted_until_a_miss() {
        let mut lea = LeaAllocator::new();
        let a = lea.alloc(100).unwrap();
        let b = lea.alloc(100).unwrap();
        let _guard = lea.alloc(100).unwrap(); // keeps a/b off the top
        lea.free(a).unwrap();
        lea.free(b).unwrap();
        assert_eq!(lea.stats().coalesces, 0);
        assert_eq!(lea.unsorted.len(), 2);
        // A request that no parked block satisfies triggers consolidation:
        // a and b are adjacent, so they merge.
        let big = lea.alloc(180).unwrap();
        assert!(lea.stats().coalesces >= 1);
        lea.free(big).unwrap();
        lea.check_invariants().unwrap();
    }

    #[test]
    fn small_bins_reuse_exact_sizes() {
        let mut lea = LeaAllocator::new();
        let a = lea.alloc(56).unwrap(); // 64-byte block
        let _guard = lea.alloc(56).unwrap();
        lea.free(a).unwrap();
        let brk = lea.footprint();
        // Force consolidation so the parked block lands in its small bin...
        // (an exact-size request can take it straight from unsorted
        // consolidation's bin placement)
        let c = lea.alloc(56).unwrap();
        assert_eq!(c.offset(), a.offset(), "exact small-bin reuse");
        assert_eq!(lea.footprint(), brk, "no growth for a binned size");
        lea.check_invariants().unwrap();
    }

    #[test]
    fn splits_large_blocks_with_floor() {
        let mut lea = LeaAllocator::new();
        let big = lea.alloc(2048).unwrap();
        let _guard = lea.alloc(64).unwrap();
        lea.free(big).unwrap();
        let _small = lea.alloc(500).unwrap(); // miss -> consolidate -> split
        assert!(lea.stats().splits >= 1);
        lea.check_invariants().unwrap();
    }

    #[test]
    fn trims_only_above_threshold() {
        let mut lea = LeaAllocator::new();
        // A medium block frees straight into the top but stays resident.
        let m = lea.alloc(64 * 1024).unwrap();
        lea.free(m).unwrap();
        assert_eq!(lea.stats().trims, 0, "64 KiB top is below the threshold");
        assert!(lea.footprint() >= 64 * 1024);
        // A huge block crosses the 128 KiB threshold and is returned.
        let h = lea.alloc(256 * 1024).unwrap();
        lea.free(h).unwrap();
        assert!(lea.stats().trims >= 1);
        lea.check_invariants().unwrap();
    }

    #[test]
    fn footprint_plateaus_with_parked_free_lists() {
        // The Figure 5 shape: after a burst is freed (off the top), Lea's
        // footprint stays at the plateau.
        let mut lea = LeaAllocator::new();
        let hs: Vec<_> = (0..64).map(|_| lea.alloc(500).unwrap()).collect();
        let guard = lea.alloc(16).unwrap(); // pins the top
        let peak = lea.footprint();
        for h in hs {
            lea.free(h).unwrap();
        }
        assert_eq!(lea.footprint(), peak, "freed burst parks, no shrink");
        lea.free(guard).unwrap();
        lea.check_invariants().unwrap();
    }

    #[test]
    fn interleaved_stress_keeps_invariants() {
        let mut lea = LeaAllocator::new();
        let mut live = Vec::new();
        let mut x: u64 = 0xDEADBEEFCAFE;
        for i in 0..3000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            if live.is_empty() || !x.is_multiple_of(3) {
                live.push(lea.alloc(8 + (x % 3000) as usize).unwrap());
            } else {
                let idx = (x as usize / 5) % live.len();
                lea.free(live.swap_remove(idx)).unwrap();
            }
            if i % 750 == 0 {
                lea.check_invariants().unwrap();
            }
        }
        for h in live {
            lea.free(h).unwrap();
        }
        lea.check_invariants().unwrap();
        assert_eq!(lea.stats().live_requested, 0);
    }
}
