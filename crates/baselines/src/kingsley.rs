//! The Kingsley power-of-two segregated-freelist allocator.
//!
//! The fastest general-purpose manager in the paper's experiments and the
//! basis of Windows-family allocators: requests round up to a power-of-two
//! class, each class keeps a LIFO free list, fresh memory is taken a page
//! at a time and distributed among the class lists, and nothing is ever
//! split, merged or returned to the system. Footprint suffers exactly as
//! Section 5 describes: "only a limited amount of block sizes is used and
//! thus memory is misused".

use std::collections::HashMap;

use dmm_core::error::{Error, Result};
use dmm_core::heap::Arena;
use dmm_core::manager::{Allocator, BlockHandle};
use dmm_core::metrics::AllocStats;
use dmm_core::units::{pow2_class, MIN_BLOCK, POINTER_BYTES, SBRK_GRANULARITY, SIZE_FIELD_BYTES};

/// Per-block header: the class size (so `free` can route the block back).
const HEADER: usize = SIZE_FIELD_BYTES;

/// Hand-rolled Kingsley allocator.
///
/// # Examples
///
/// ```
/// use dmm_baselines::KingsleyAllocator;
/// use dmm_core::manager::Allocator;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut k = KingsleyAllocator::new();
/// let h = k.alloc(100)?; // rounds to the 128-byte class
/// let before = k.footprint();
/// k.free(h)?;
/// assert_eq!(k.footprint(), before, "Kingsley never returns memory");
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct KingsleyAllocator {
    arena: Arena,
    /// Free list per class; index `i` holds blocks of `MIN_BLOCK << i`.
    free_lists: Vec<Vec<usize>>,
    live: HashMap<usize, (usize, usize)>,
    stats: AllocStats,
}

impl Default for KingsleyAllocator {
    fn default() -> Self {
        Self::new()
    }
}

impl KingsleyAllocator {
    /// A fresh allocator with an unbounded arena and no initial region.
    pub fn new() -> Self {
        KingsleyAllocator {
            arena: Arena::unbounded(),
            free_lists: Vec::new(),
            live: HashMap::new(),
            stats: AllocStats::default(),
        }
    }

    /// The Windows-flavoured variant of Section 5: "an initial memory
    /// region is reserved and distributed among the different lists of
    /// block sizes. However, only a limited amount of block sizes is used
    /// and thus memory is misused."
    ///
    /// `bytes` are reserved immediately and split evenly across the
    /// classes from 16 B to 8 KiB; shares belonging to classes the
    /// application never requests are pure waste.
    pub fn with_initial_region(bytes: usize) -> Self {
        let mut k = KingsleyAllocator::new();
        if bytes == 0 {
            return k;
        }
        const CLASSES: usize = 10; // 16 B .. 8 KiB
        k.free_lists.resize_with(CLASSES, Vec::new);
        let share = bytes / CLASSES;
        for idx in 0..CLASSES {
            let class = MIN_BLOCK << idx;
            let count = share / class;
            if count == 0 {
                continue;
            }
            let base = k
                .arena
                .sbrk(count * class)
                .expect("unbounded arena cannot fail");
            for i in 0..count {
                k.free_lists[idx].push(base + i * class);
            }
        }
        k.stats.sbrk_calls += 1;
        k.sync();
        k
    }

    fn class_of(req: usize) -> (usize, usize) {
        let class = pow2_class(req + HEADER);
        let idx = (class.trailing_zeros() - MIN_BLOCK.trailing_zeros()) as usize;
        (class, idx)
    }

    fn static_overhead(&self) -> usize {
        // One list-head pointer per class.
        self.free_lists.len() * POINTER_BYTES
    }

    fn sync(&mut self) {
        self.stats
            .set_system(self.arena.brk(), self.static_overhead());
    }
}

impl Allocator for KingsleyAllocator {
    fn name(&self) -> &str {
        "Kingsley"
    }

    fn alloc(&mut self, req: usize) -> Result<BlockHandle> {
        let req = req.max(1);
        let (class, idx) = Self::class_of(req);
        if self.free_lists.len() <= idx {
            self.free_lists.resize_with(idx + 1, Vec::new);
        }
        self.stats.search_steps += 1; // class routing is a shift
        let offset = match self.free_lists[idx].pop() {
            Some(o) => o,
            None => {
                // Grab a granule and distribute it among this class's list.
                let reserve = class.max(SBRK_GRANULARITY);
                let base = self.arena.sbrk(reserve)?;
                self.stats.sbrk_calls += 1;
                let mut at = base + class;
                while at + class <= base + reserve {
                    self.free_lists[idx].push(at);
                    at += class;
                }
                base
            }
        };
        self.live.insert(offset, (req, idx));
        self.stats.on_alloc(req, class);
        self.sync();
        Ok(BlockHandle::new(offset, 0))
    }

    fn free(&mut self, handle: BlockHandle) -> Result<()> {
        let offset = handle.offset();
        let (req, idx) = self
            .live
            .remove(&offset)
            .ok_or(Error::InvalidFree { offset })?;
        self.stats.search_steps += 1; // read header, push head
        self.free_lists[idx].push(offset);
        self.stats.on_free(req, MIN_BLOCK << idx);
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
        *self = KingsleyAllocator::new();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rounds_to_power_of_two_classes() {
        let mut k = KingsleyAllocator::new();
        let _ = k.alloc(100).unwrap(); // 100 + 4 -> 128
        assert_eq!(k.stats().live_block, 128);
        let _ = k.alloc(124).unwrap(); // 124 + 4 -> 128
        assert_eq!(k.stats().live_block, 256);
        let _ = k.alloc(125).unwrap(); // 125 + 4 -> 256
        assert_eq!(k.stats().live_block, 512);
    }

    #[test]
    fn page_is_distributed_among_class_list() {
        let mut k = KingsleyAllocator::new();
        let _ = k.alloc(60).unwrap(); // 64-byte class; page carves 64 blocks
        assert_eq!(k.footprint() - k.stats().static_overhead, SBRK_GRANULARITY);
        // 63 siblings are ready: next allocs must not sbrk.
        let before = k.stats().sbrk_calls;
        for _ in 0..63 {
            let _ = k.alloc(60).unwrap();
        }
        assert_eq!(k.stats().sbrk_calls, before);
        // The 65th block of this class needs another page.
        let _ = k.alloc(60).unwrap();
        assert_eq!(k.stats().sbrk_calls, before + 1);
    }

    #[test]
    fn freed_blocks_are_reused_lifo() {
        let mut k = KingsleyAllocator::new();
        let a = k.alloc(60).unwrap();
        let b = k.alloc(60).unwrap();
        k.free(a).unwrap();
        k.free(b).unwrap();
        let c = k.alloc(60).unwrap();
        assert_eq!(c.offset(), b.offset(), "LIFO reuse");
    }

    #[test]
    fn footprint_is_monotone_nondecreasing() {
        let mut k = KingsleyAllocator::new();
        let mut peak = 0;
        let hs: Vec<_> = (0..100).map(|i| k.alloc(16 + i * 37).unwrap()).collect();
        for h in hs {
            assert!(k.footprint() >= peak);
            peak = k.footprint();
            k.free(h).unwrap();
            assert_eq!(k.footprint(), peak, "free never shrinks Kingsley");
        }
        assert_eq!(k.stats().trims, 0);
        assert_eq!(k.stats().coalesces, 0);
        assert_eq!(k.stats().splits, 0);
    }

    #[test]
    fn large_blocks_get_exact_power_of_two_reservations() {
        let mut k = KingsleyAllocator::new();
        let _ = k.alloc(100_000).unwrap(); // -> 131072 class
        assert_eq!(k.footprint() - k.stats().static_overhead, 131_072);
    }

    #[test]
    fn internal_fragmentation_is_visible() {
        let mut k = KingsleyAllocator::new();
        let _ = k.alloc(65).unwrap(); // 65+4 -> 128 class
        assert_eq!(k.stats().internal_fragmentation(), 63);
    }

    #[test]
    fn initial_region_is_reserved_up_front_and_reused() {
        let mut k = KingsleyAllocator::with_initial_region(256 * 1024);
        let base = k.footprint();
        assert!(base >= 250 * 1024, "initial region reserved: {base}");
        // Requests inside the pre-carved classes do not grow the arena.
        let hs: Vec<_> = (0..64).map(|_| k.alloc(100).unwrap()).collect();
        assert_eq!(k.footprint(), base, "served from the initial region");
        for h in hs {
            k.free(h).unwrap();
        }
        assert_eq!(k.footprint(), base);
    }

    #[test]
    fn unused_classes_of_the_initial_region_are_misused_memory() {
        // Only one size is ever requested; the other classes' shares are
        // dead weight — the paper's criticism in the 3D-recon comparison.
        let mut k = KingsleyAllocator::with_initial_region(256 * 1024);
        let _ = k.alloc(60).unwrap();
        let live = k.stats().live_block;
        assert!(k.footprint() > 40 * live, "most of the region is idle");
    }
}
