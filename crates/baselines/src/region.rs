//! A fixed-block-size region allocator.
//!
//! Models the "simple region allocators" of recent embedded real-time OSs
//! that the paper compares against on the 3D-reconstruction case study
//! (Gay & Aiken-style regions with per-region fixed block sizes, as in
//! RTEMS partitions): each region serves exactly one block size; requests
//! round up to the region's slot, creating the internal fragmentation the
//! paper blames ("the requests of several block sizes creates internal
//! fragmentation"). Regions grow in chunks and never shrink.

use std::collections::HashMap;

use dmm_core::error::{Error, Result};
use dmm_core::heap::Arena;
use dmm_core::manager::{Allocator, BlockHandle};
use dmm_core::metrics::AllocStats;
use dmm_core::units::{align_up, MIN_ALIGN, POINTER_BYTES, SIZE_FIELD_BYTES};

/// Bytes a chunk extension aims for; small-slot regions carve many slots
/// per chunk, large-slot regions carve one.
const CHUNK_TARGET_BYTES: usize = 8 * 1024;
/// Ceiling on slots carved per chunk.
const MAX_SLOTS_PER_CHUNK: usize = 16;

fn slots_per_chunk(slot: usize) -> usize {
    (CHUNK_TARGET_BYTES / slot.max(1)).clamp(1, MAX_SLOTS_PER_CHUNK)
}

#[derive(Debug)]
struct Region {
    slot: usize,
    free: Vec<usize>,
}

/// Hand-rolled fixed-slot region allocator.
///
/// # Examples
///
/// ```
/// use dmm_baselines::RegionAllocator;
/// use dmm_core::manager::Allocator;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut r = RegionAllocator::with_regions(&[64, 1024, 65536]);
/// let h = r.alloc(100)?; // served from the 1024-byte region
/// assert_eq!(r.stats().live_block, 1024);
/// r.free(h)?;
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct RegionAllocator {
    arena: Arena,
    regions: Vec<Region>,
    /// Oversize blocks served directly, keyed by offset -> length.
    oversize_free: HashMap<usize, Vec<usize>>, // len -> offsets
    live: HashMap<usize, (usize, usize)>, // offset -> (req, block len)
    slot_of_live: HashMap<usize, Option<usize>>, // offset -> region idx (None = oversize)
    stats: AllocStats,
}

impl RegionAllocator {
    /// Regions with the given slot sizes (ascending).
    ///
    /// # Panics
    ///
    /// Panics if `slots` is empty or not strictly ascending.
    pub fn with_regions(slots: &[usize]) -> Self {
        assert!(!slots.is_empty(), "at least one region required");
        assert!(
            slots.windows(2).all(|w| w[0] < w[1]),
            "region slots must be strictly ascending"
        );
        RegionAllocator {
            arena: Arena::unbounded(),
            regions: slots
                .iter()
                .map(|&s| Region {
                    slot: align_up(s, MIN_ALIGN),
                    free: Vec::new(),
                })
                .collect(),
            oversize_free: HashMap::new(),
            live: HashMap::new(),
            slot_of_live: HashMap::new(),
            stats: AllocStats::default(),
        }
    }

    /// The coarse default region set used when no profile is available
    /// (64 B, 1 KiB, 16 KiB, 128 KiB, 512 KiB, 4 MiB).
    pub fn with_default_regions() -> Self {
        Self::with_regions(&[64, 1024, 16 * 1024, 128 * 1024, 512 * 1024, 4 * 1024 * 1024])
    }

    /// Regions sized the way the paper's "manually designed" region
    /// manager was: a designer profiles the application and dedicates a
    /// region to each dominant block size (rounded to a designer-friendly
    /// value), plus one for the largest blocks seen.
    pub fn with_profile(profile: &dmm_core::profile::Profile) -> Self {
        fn designer_round(n: usize) -> usize {
            // Small blocks round to the next power of two, large ones to
            // the next 4 KiB boundary — what a human would pick.
            if n <= 4096 {
                n.next_power_of_two().max(16)
            } else {
                align_up(n, 4096)
            }
        }
        let mut slots: Vec<usize> = profile
            .histogram
            .top_k(4)
            .into_iter()
            .map(|(s, _)| designer_round(s))
            .collect();
        // Also cover the largest sizes by byte volume (e.g. image buffers
        // that occur rarely but dominate memory).
        let mut biggest: Vec<usize> = profile.histogram.iter().map(|(s, _)| s).collect();
        biggest.sort_unstable();
        for s in biggest.into_iter().rev().take(2) {
            slots.push(designer_round(s));
        }
        slots.sort_unstable();
        slots.dedup();
        if slots.is_empty() {
            slots.push(64);
        }
        Self::with_regions(&slots)
    }

    fn static_overhead(&self) -> usize {
        // Region descriptor: slot size + free-list head + chunk counter.
        self.regions.len() * (SIZE_FIELD_BYTES + POINTER_BYTES + SIZE_FIELD_BYTES)
    }

    fn sync(&mut self) {
        self.stats
            .set_system(self.arena.brk(), self.static_overhead());
    }

    fn region_for(&self, len: usize) -> Option<usize> {
        self.regions.iter().position(|r| r.slot >= len)
    }
}

impl Allocator for RegionAllocator {
    fn name(&self) -> &str {
        "Regions"
    }

    fn alloc(&mut self, req: usize) -> Result<BlockHandle> {
        let req = req.max(1);
        let need = align_up(req, MIN_ALIGN);
        match self.region_for(need) {
            Some(idx) => {
                self.stats.search_steps += idx as u64 + 1; // walk region list
                let slot = self.regions[idx].slot;
                let offset = match self.regions[idx].free.pop() {
                    Some(o) => o,
                    None => {
                        let n = slots_per_chunk(slot);
                        let base = self.arena.sbrk(slot * n)?;
                        self.stats.sbrk_calls += 1;
                        for i in 1..n {
                            self.regions[idx].free.push(base + i * slot);
                        }
                        base
                    }
                };
                self.live.insert(offset, (req, slot));
                self.slot_of_live.insert(offset, Some(idx));
                self.stats.on_alloc(req, slot);
                self.sync();
                Ok(BlockHandle::new(offset, 0))
            }
            None => {
                // Oversize: dedicated block, reusable only at exactly the
                // same rounded length.
                self.stats.search_steps += self.regions.len() as u64 + 1;
                let offset = match self.oversize_free.get_mut(&need).and_then(|v| v.pop()) {
                    Some(o) => o,
                    None => {
                        let base = self.arena.sbrk(need)?;
                        self.stats.sbrk_calls += 1;
                        base
                    }
                };
                self.live.insert(offset, (req, need));
                self.slot_of_live.insert(offset, None);
                self.stats.on_alloc(req, need);
                self.sync();
                Ok(BlockHandle::new(offset, 0))
            }
        }
    }

    fn free(&mut self, handle: BlockHandle) -> Result<()> {
        let offset = handle.offset();
        let (req, len) = self
            .live
            .remove(&offset)
            .ok_or(Error::InvalidFree { offset })?;
        let region = self
            .slot_of_live
            .remove(&offset)
            .expect("live block has a region record");
        self.stats.search_steps += 1;
        match region {
            Some(idx) => self.regions[idx].free.push(offset),
            None => self.oversize_free.entry(len).or_default().push(offset),
        }
        self.stats.on_free(req, len);
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
        let slots: Vec<usize> = self.regions.iter().map(|r| r.slot).collect();
        *self = RegionAllocator::with_regions(&slots);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_round_to_region_slots() {
        let mut r = RegionAllocator::with_regions(&[64, 1024]);
        let _ = r.alloc(10).unwrap();
        assert_eq!(r.stats().live_block, 64);
        let _ = r.alloc(65).unwrap();
        assert_eq!(r.stats().live_block, 64 + 1024);
        // Fragmentation: 65 bytes in a 1024-byte slot.
        assert!(r.stats().internal_fragmentation() >= 959);
    }

    #[test]
    fn chunks_carve_multiple_slots() {
        let mut r = RegionAllocator::with_regions(&[64]);
        let n = slots_per_chunk(64);
        assert_eq!(n, MAX_SLOTS_PER_CHUNK);
        let _ = r.alloc(64).unwrap();
        assert_eq!(r.stats().sbrk_calls, 1);
        for _ in 0..n - 1 {
            let _ = r.alloc(64).unwrap();
        }
        assert_eq!(r.stats().sbrk_calls, 1, "chunk serves {n} slots");
        let _ = r.alloc(64).unwrap();
        assert_eq!(r.stats().sbrk_calls, 2);
    }

    #[test]
    fn large_slot_regions_carve_one_slot_per_chunk() {
        assert_eq!(slots_per_chunk(512 * 1024), 1);
        let mut r = RegionAllocator::with_regions(&[512 * 1024]);
        let _ = r.alloc(400_000).unwrap();
        assert_eq!(
            r.footprint() - r.stats().static_overhead,
            512 * 1024,
            "one big slot reserved, not a 16-slot chunk"
        );
    }

    #[test]
    fn slots_recycle_within_their_region() {
        let mut r = RegionAllocator::with_regions(&[64, 1024]);
        let a = r.alloc(600).unwrap();
        r.free(a).unwrap();
        let before = r.footprint();
        let b = r.alloc(900).unwrap(); // same region, reuses the slot
        assert_eq!(b.offset(), a.offset());
        assert_eq!(r.footprint(), before);
    }

    #[test]
    fn oversize_blocks_reuse_only_exact_lengths() {
        let mut r = RegionAllocator::with_regions(&[64]);
        let a = r.alloc(10_000).unwrap();
        r.free(a).unwrap();
        let b = r.alloc(10_000).unwrap();
        assert_eq!(b.offset(), a.offset(), "exact oversize reuse");
        let before = r.footprint();
        let _c = r.alloc(10_008).unwrap(); // different rounded length
        assert!(r.footprint() > before, "no cross-size reuse");
    }

    #[test]
    fn never_returns_memory() {
        let mut r = RegionAllocator::with_default_regions();
        let hs: Vec<_> = (0..40).map(|i| r.alloc(100 + i * 97).unwrap()).collect();
        let peak = r.footprint();
        for h in hs {
            r.free(h).unwrap();
        }
        assert_eq!(r.footprint(), peak);
        assert_eq!(r.stats().trims, 0);
    }

    #[test]
    #[should_panic(expected = "ascending")]
    fn unsorted_regions_are_rejected() {
        let _ = RegionAllocator::with_regions(&[1024, 64]);
    }
}
