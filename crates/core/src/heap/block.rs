//! Block spans and the classic offset-keyed block map.
//!
//! Every byte the arena has handed out belongs to exactly one [`Block`],
//! free or used — the *tiling invariant*. [`BlockMap`] was the
//! simulation's ground truth through PR 4; the policy layer now runs on
//! the O(1) boundary-tag [`Tiling`](crate::heap::tiling::Tiling) instead,
//! and this `BTreeMap`-backed map remains as (a) the **debug-only shadow
//! oracle** the tiling cross-checks every block sequence against and
//! (b) the block table of the independently hand-rolled Lea baseline.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

/// A contiguous byte span inside the arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Span {
    /// Offset of the first byte.
    pub offset: usize,
    /// Length in bytes (never zero).
    pub len: usize,
}

impl Span {
    /// Create a span; `len` must be non-zero.
    pub fn new(offset: usize, len: usize) -> Self {
        debug_assert!(len > 0, "zero-length span");
        Span { offset, len }
    }

    /// One past the last byte.
    pub fn end(&self) -> usize {
        self.offset + self.len
    }

    /// Whether `self` immediately precedes `other`.
    pub fn precedes(&self, other: &Span) -> bool {
        self.end() == other.offset
    }

    /// Whether the two spans overlap.
    pub fn overlaps(&self, other: &Span) -> bool {
        self.offset < other.end() && other.offset < self.end()
    }
}

/// A run of `count` adjacent free blocks of `len` bytes each — what one
/// fixed-class carve or `grow` creates. The members are ordinary modelled
/// blocks; the run only stores them as one tiling node and one free-index
/// entry. An ordinary block is a run of one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Run {
    /// Offset of the lowest member.
    pub offset: usize,
    /// Length of each member in bytes (never zero).
    pub len: usize,
    /// Number of members (never zero).
    pub count: usize,
}

impl Run {
    /// A run of `count` members of `len` bytes from `offset`.
    pub fn new(offset: usize, len: usize, count: usize) -> Self {
        debug_assert!(len > 0 && count > 0, "empty run");
        Run { offset, len, count }
    }

    /// The run of one block.
    pub fn single(span: Span) -> Self {
        Run::new(span.offset, span.len, 1)
    }

    /// The bytes all members cover.
    pub fn span(&self) -> Span {
        Span::new(self.offset, self.len * self.count)
    }

    /// Member `i` (0 is the lowest address).
    pub fn member(&self, i: usize) -> Span {
        debug_assert!(i < self.count, "member {i} of a {}-member run", self.count);
        Span::new(self.offset + i * self.len, self.len)
    }

    /// How many of the lowest members fit beside `have` bytes in a merge
    /// capped at `cap` bytes: `(cap - have) / len`, at most all of them.
    pub fn members_under(&self, have: usize, cap: usize) -> usize {
        if self.count == 1 {
            // A single block needs no division.
            usize::from(have.checked_add(self.len).is_some_and(|t| t <= cap))
        } else {
            self.count.min(cap.saturating_sub(have) / self.len)
        }
    }

    /// Every member, in ascending address order.
    pub fn members(self) -> impl Iterator<Item = Span> {
        (0..self.count).map(move |i| self.member(i))
    }
}

/// Whether a block is free or holds an application object.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum BlockState {
    /// Available for allocation.
    Free,
    /// Currently allocated to the application.
    Used,
}

/// One block of the tiled arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Block {
    /// The bytes this block covers.
    pub span: Span,
    /// Free or used.
    pub state: BlockState,
    /// Bytes the application requested (payload), meaningful when used.
    pub requested: usize,
    /// Pool the block currently belongs to.
    pub pool: usize,
}

impl Block {
    /// A new free block in `pool`.
    pub fn free(span: Span, pool: usize) -> Self {
        Block {
            span,
            state: BlockState::Free,
            requested: 0,
            pool,
        }
    }

    /// Whether the block is free.
    pub fn is_free(&self) -> bool {
        self.state == BlockState::Free
    }
}

/// Authoritative offset-ordered table of every block.
#[derive(Debug, Clone, Default)]
pub struct BlockMap {
    map: BTreeMap<usize, Block>,
}

impl BlockMap {
    /// An empty map.
    pub fn new() -> Self {
        BlockMap::default()
    }

    /// Number of blocks (free + used).
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether there are no blocks at all.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Insert a block.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if a block already starts at the same offset.
    pub fn insert(&mut self, block: Block) {
        let prev = self.map.insert(block.span.offset, block);
        debug_assert!(prev.is_none(), "duplicate block at {}", block.span.offset);
    }

    /// Remove the block starting at `offset`.
    pub fn remove(&mut self, offset: usize) -> Option<Block> {
        self.map.remove(&offset)
    }

    /// The block starting exactly at `offset`.
    pub fn get(&self, offset: usize) -> Option<&Block> {
        self.map.get(&offset)
    }

    /// Mutable access to the block starting at `offset`.
    pub fn get_mut(&mut self, offset: usize) -> Option<&mut Block> {
        self.map.get_mut(&offset)
    }

    /// The block physically after the one starting at `offset`.
    pub fn next_of(&self, offset: usize) -> Option<&Block> {
        let block = self.map.get(&offset)?;
        self.map.get(&block.span.end())
    }

    /// The block physically before the one starting at `offset`.
    pub fn prev_of(&self, offset: usize) -> Option<&Block> {
        self.map.range(..offset).next_back().map(|(_, b)| b)
    }

    /// The top-most block (highest offset), if any.
    pub fn top(&self) -> Option<&Block> {
        self.map.values().next_back()
    }

    /// Iterate blocks in address order.
    pub fn iter(&self) -> impl Iterator<Item = &Block> {
        self.map.values()
    }

    /// Drop everything.
    pub fn clear(&mut self) {
        self.map.clear();
    }

    /// Verify the tiling invariant against an arena of size `brk`:
    /// blocks start at 0, are contiguous, non-overlapping, and end at `brk`.
    ///
    /// Returns a description of the first violation, if any.
    pub fn check_tiling(&self, brk: usize) -> Option<String> {
        let mut cursor = 0usize;
        for block in self.map.values() {
            if block.span.offset != cursor {
                return Some(format!(
                    "gap or overlap: expected block at {cursor}, found {}",
                    block.span.offset
                ));
            }
            if block.span.len == 0 {
                return Some(format!("zero-length block at {}", block.span.offset));
            }
            cursor = block.span.end();
        }
        if cursor != brk {
            return Some(format!("tiling ends at {cursor}, arena brk is {brk}"));
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn b(offset: usize, len: usize, state: BlockState) -> Block {
        Block {
            span: Span::new(offset, len),
            state,
            requested: 0,
            pool: 0,
        }
    }

    #[test]
    fn span_geometry() {
        let a = Span::new(0, 16);
        let c = Span::new(16, 8);
        assert_eq!(a.end(), 16);
        assert!(a.precedes(&c));
        assert!(!c.precedes(&a));
        assert!(!a.overlaps(&c));
        assert!(a.overlaps(&Span::new(8, 16)));
        assert!(Span::new(8, 16).overlaps(&a));
    }

    #[test]
    fn neighbours() {
        let mut m = BlockMap::new();
        m.insert(b(0, 16, BlockState::Free));
        m.insert(b(16, 32, BlockState::Used));
        m.insert(b(48, 16, BlockState::Free));
        assert_eq!(m.next_of(0).unwrap().span.offset, 16);
        assert_eq!(m.next_of(16).unwrap().span.offset, 48);
        assert!(m.next_of(48).is_none());
        assert_eq!(m.prev_of(16).unwrap().span.offset, 0);
        assert!(m.prev_of(0).is_none());
        assert_eq!(m.top().unwrap().span.offset, 48);
    }

    #[test]
    fn tiling_detects_gap_and_short_end() {
        let mut m = BlockMap::new();
        m.insert(b(0, 16, BlockState::Free));
        m.insert(b(32, 16, BlockState::Free)); // gap at 16..32
        assert!(m.check_tiling(48).unwrap().contains("gap"));

        let mut m = BlockMap::new();
        m.insert(b(0, 16, BlockState::Free));
        assert!(m.check_tiling(32).unwrap().contains("ends at 16"));
        assert!(m.check_tiling(16).is_none());
    }

    #[test]
    fn empty_map_tiles_empty_arena() {
        let m = BlockMap::new();
        assert!(m.check_tiling(0).is_none());
        assert!(m.check_tiling(1).is_some());
    }
}
