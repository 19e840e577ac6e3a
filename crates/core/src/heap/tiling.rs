//! The boundary-tag block store: an intrusive neighbour list over the
//! tiled arena.
//!
//! Every byte the arena has handed out belongs to exactly one
//! [`TiledBlock`], free or used — the *tiling invariant*. [`Tiling`] is the
//! simulation's ground truth, replacing the offset-keyed `BTreeMap` of
//! [`BlockMap`](crate::heap::block::BlockMap): blocks live in a slab and
//! carry prev/next neighbour handles, exactly like the boundary tags of a
//! real manager, so the operations the policy engine performs per event —
//! neighbour lookup, split, coalesce-with-neighbours, top access — are all
//! O(1) instead of O(log n).
//!
//! # Handles and invariants
//!
//! Blocks are addressed by [`BlockRef`] — a stable slab slot that never
//! moves while its block exists. The invariants every user must maintain
//! (and [`Tiling::check_tiling`] verifies):
//!
//! - the neighbour list is ordered by address, starts at offset 0 and ends
//!   at the arena break with no gaps or overlaps (`prev.end() == next.offset`
//!   for every adjacent pair);
//! - a block's **offset never changes** while it is in the store — splits
//!   shrink a block in place and insert the remainder after it, coalesces
//!   extend the survivor and remove the absorbed neighbour;
//! - a free node may stand for a [`Run`] of `count` adjacent free blocks of
//!   one class (`span` covers all members). The modelled blocks are the
//!   members: [`Tiling::len`] counts them, and [`Tiling::split`] /
//!   [`Tiling::fuse`] are the only ways members leave a run or merge;
//! - all mutation goes through the `Tiling` methods below (there is no
//!   `&mut TiledBlock` escape hatch), which is what keeps the debug-only
//!   shadow oracle in lock-step.
//!
//! # The shadow oracle
//!
//! In debug builds the store additionally mirrors every block — every run
//! member — into the old `BTreeMap`-backed
//! [`BlockMap`](crate::heap::block::BlockMap).
//! [`Tiling::check_tiling`] walks the neighbour list and cross-checks the
//! sequence — span, state, requested bytes and pool of every block — against
//! that oracle, so any divergence between the intrusive list and the
//! reference implementation fails loudly at the operation that caused it.
//! Release builds carry no shadow and pay nothing.

use crate::heap::block::{Block, BlockState, Run, Span};

/// Sentinel slot meaning "no neighbour".
const NIL: u32 = u32::MAX;

/// A stable handle to one block in a [`Tiling`].
///
/// Valid from the insertion that returned it until the block is removed;
/// never invalidated by operations on other blocks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BlockRef(u32);

impl BlockRef {
    /// The raw slot index (for embedding in compact externals like
    /// [`BlockHandle`](crate::manager::BlockHandle)).
    pub fn index(self) -> u32 {
        self.0
    }

    /// Rebuild a handle from [`BlockRef::index`]. The caller asserts the
    /// slot still names the block it was taken from ([`Tiling::get`]
    /// panics on vacant slots; stale-but-reused slots must be detected by
    /// the caller, e.g. by comparing offsets).
    pub fn from_index(index: u32) -> BlockRef {
        BlockRef(index)
    }
}

/// One block of the tiled arena, with its intrusive neighbour links.
#[derive(Debug, Clone, Copy)]
pub struct TiledBlock {
    /// The bytes this block covers.
    pub span: Span,
    /// Free or used.
    pub state: BlockState,
    /// Bytes the application requested (payload), meaningful when used.
    pub requested: usize,
    /// Pool the block currently belongs to.
    pub pool: usize,
    /// Token of this block's node in its pool's free index (meaningful
    /// only while the block is free and indexed). Not part of the modelled
    /// block — it is how the simulator finds the index node in O(1).
    pub index_token: usize,
    /// Members this node stands for: 1 for an ordinary block, `k` for a
    /// run of `k` free blocks of `span.len / k` bytes each.
    pub count: u32,
    prev: u32,
    next: u32,
    occupied: bool,
}

impl TiledBlock {
    /// Whether the block is free.
    pub fn is_free(&self) -> bool {
        self.state == BlockState::Free
    }

    /// Project the modelled fields into the classic [`Block`] record (the
    /// whole span, for a run).
    pub fn as_block(&self) -> Block {
        Block {
            span: self.span,
            state: self.state,
            requested: self.requested,
            pool: self.pool,
        }
    }

    /// Bytes of one member.
    pub fn member_len(&self) -> usize {
        // Most nodes are single blocks: skip the division for them.
        match self.count {
            1 => self.span.len,
            k => self.span.len / k as usize,
        }
    }

    /// The members this node stands for.
    pub fn run(&self) -> Run {
        Run::new(self.span.offset, self.member_len(), self.count as usize)
    }

    /// The modelled blocks this node stands for, in address order.
    #[cfg(debug_assertions)]
    fn member_blocks(&self) -> impl Iterator<Item = Block> + '_ {
        let run = self.run();
        (0..run.count).map(move |i| Block {
            span: run.member(i),
            ..self.as_block()
        })
    }
}

/// The slab-backed boundary-tag block store. See the module docs.
#[derive(Debug, Clone, Default)]
pub struct Tiling {
    slots: Vec<TiledBlock>,
    free_slots: Vec<u32>,
    head: u32,
    tail: u32,
    /// Linked nodes.
    nodes: usize,
    /// Modelled blocks: the members of every node.
    len: usize,
    /// Debug-only shadow oracle: the `BTreeMap` tiling with one entry per
    /// modelled block, mirrored on every mutation and cross-checked by
    /// [`Tiling::check_tiling`].
    #[cfg(debug_assertions)]
    shadow: crate::heap::block::BlockMap,
}

impl Tiling {
    /// An empty store.
    pub fn new() -> Self {
        Tiling {
            slots: Vec::new(),
            free_slots: Vec::new(),
            head: NIL,
            tail: NIL,
            nodes: 0,
            len: 0,
            #[cfg(debug_assertions)]
            shadow: crate::heap::block::BlockMap::new(),
        }
    }

    /// Number of modelled blocks (free + used), counting every run member.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Number of linked nodes: a run counts once.
    pub fn node_count(&self) -> usize {
        self.nodes
    }

    /// Whether there are no blocks at all.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The block `r` names.
    ///
    /// # Panics
    ///
    /// Panics if `r` names a vacant slot (a removed block).
    pub fn get(&self, r: BlockRef) -> &TiledBlock {
        let b = &self.slots[r.0 as usize];
        assert!(b.occupied, "stale BlockRef {}", r.0);
        b
    }

    /// Whether `r` currently names a live block (stale handles name vacant
    /// or recycled slots; recycled slots are the caller's to detect by
    /// offset comparison).
    pub fn is_live(&self, r: BlockRef) -> bool {
        (r.0 as usize) < self.slots.len() && self.slots[r.0 as usize].occupied
    }

    /// First block in address order (offset 0), if any.
    pub fn first(&self) -> Option<BlockRef> {
        (self.head != NIL).then_some(BlockRef(self.head))
    }

    /// Top-most block (highest offset), if any.
    pub fn top(&self) -> Option<BlockRef> {
        (self.tail != NIL).then_some(BlockRef(self.tail))
    }

    /// The physical neighbour after `r`.
    pub fn next(&self, r: BlockRef) -> Option<BlockRef> {
        let n = self.get(r).next;
        (n != NIL).then_some(BlockRef(n))
    }

    /// The physical neighbour before `r`.
    pub fn prev(&self, r: BlockRef) -> Option<BlockRef> {
        let p = self.get(r).prev;
        (p != NIL).then_some(BlockRef(p))
    }

    /// Iterate blocks in address order.
    pub fn iter(&self) -> TilingIter<'_> {
        TilingIter {
            tiling: self,
            cur: self.head,
        }
    }

    fn alloc_slot(&mut self, block: TiledBlock) -> u32 {
        debug_assert!(block.span.len > 0, "zero-length block");
        match self.free_slots.pop() {
            Some(s) => {
                debug_assert!(!self.slots[s as usize].occupied);
                self.slots[s as usize] = block;
                s
            }
            None => {
                self.slots.push(block);
                (self.slots.len() - 1) as u32
            }
        }
    }

    /// Append a free or used block at the top of the tiling. Its offset
    /// must equal the current end of the tiling (0 when empty).
    pub fn push_top(&mut self, block: Block) -> BlockRef {
        self.insert_run(None, block, 1)
    }

    /// Insert a node of `count` members covering `block.span` immediately
    /// after `anchor`, or at the top when `anchor` is `None`. It must tile
    /// exactly against its predecessor; a run of several members must be
    /// free and its span a multiple of `count`.
    pub fn insert_run(&mut self, anchor: Option<BlockRef>, block: Block, count: usize) -> BlockRef {
        let (prev, next) = match anchor {
            Some(a) => (a.0, self.get(a).next),
            None => (self.tail, NIL),
        };
        let start = match prev {
            NIL => 0,
            p => self.slots[p as usize].span.end(),
        };
        debug_assert_eq!(
            block.span.offset, start,
            "a new node must tile against its predecessor"
        );
        debug_assert!(
            count == 1 || (block.is_free() && block.span.len.is_multiple_of(count)),
            "malformed run of {count} over {:?}",
            block.span
        );
        let node = TiledBlock {
            span: block.span,
            state: block.state,
            requested: block.requested,
            pool: block.pool,
            index_token: 0,
            count: u32::try_from(count).expect("run count fits u32"),
            prev,
            next,
            occupied: true,
        };
        let slot = self.alloc_slot(node);
        if prev != NIL {
            self.slots[prev as usize].next = slot;
        } else {
            self.head = slot;
        }
        if next != NIL {
            self.slots[next as usize].prev = slot;
        } else {
            self.tail = slot;
        }
        self.nodes += 1;
        self.len += count;
        #[cfg(debug_assertions)]
        for b in node.member_blocks() {
            self.shadow.insert(b);
        }
        BlockRef(slot)
    }

    /// Split the run `r` before member `at`: `r` keeps members `[0, at)`
    /// and a new node right after it takes `[at, count)`, with the same
    /// state, pool and index token. Returns the new node. No modelled
    /// block changes, so the shadow is untouched.
    pub fn split(&mut self, r: BlockRef, at: usize) -> BlockRef {
        let b = *self.get(r);
        let k = b.count as usize;
        assert!(0 < at && at < k, "split of a {k}-member run at {at}");
        let len = b.member_len();
        let slot = r.0 as usize;
        self.slots[slot].span = Span::new(b.span.offset, at * len);
        self.slots[slot].count = at as u32;
        let upper = TiledBlock {
            span: Span::new(b.span.offset + at * len, (k - at) * len),
            count: (k - at) as u32,
            prev: r.0,
            ..b
        };
        let s = self.alloc_slot(upper);
        self.slots[slot].next = s;
        if b.next != NIL {
            self.slots[b.next as usize].prev = s;
        } else {
            self.tail = s;
        }
        self.nodes += 1;
        BlockRef(s)
    }

    /// Merge the members of the run `r` into one block over its span.
    pub fn fuse(&mut self, r: BlockRef) {
        let b = *self.get(r);
        if b.count == 1 {
            return;
        }
        #[cfg(debug_assertions)]
        {
            for m in b.member_blocks().skip(1) {
                let gone = self.shadow.remove(m.span.offset);
                debug_assert!(gone.is_some(), "shadow missed member at {}", m.span.offset);
            }
            self.shadow
                .get_mut(b.span.offset)
                .expect("shadow tracks every block")
                .span = b.span;
        }
        self.len -= b.count as usize - 1;
        self.slots[r.0 as usize].count = 1;
    }

    /// Remove the node `r` names — every member of a run — returning its
    /// record. Neighbours are relinked around the hole (the caller is
    /// responsible for the tiling invariant — removal is only legal
    /// mid-merge or at the trimmed top).
    pub fn remove(&mut self, r: BlockRef) -> Block {
        let (prev, next, node) = {
            let b = self.get(r);
            (b.prev, b.next, *b)
        };
        if prev != NIL {
            self.slots[prev as usize].next = next;
        } else {
            self.head = next;
        }
        if next != NIL {
            self.slots[next as usize].prev = prev;
        } else {
            self.tail = prev;
        }
        self.slots[r.0 as usize].occupied = false;
        self.free_slots.push(r.0);
        self.nodes -= 1;
        self.len -= node.count as usize;
        #[cfg(debug_assertions)]
        for m in node.member_blocks() {
            let gone = self.shadow.remove(m.span.offset);
            debug_assert!(gone.is_some(), "shadow missed block at {}", m.span.offset);
        }
        node.as_block()
    }

    /// Change the block's length in place (split shrink / coalesce grow /
    /// top extension). The offset is immutable by design.
    pub fn set_len(&mut self, r: BlockRef, new_len: usize) {
        debug_assert!(new_len > 0, "zero-length block");
        let slot = r.0 as usize;
        assert!(self.slots[slot].occupied, "stale BlockRef {}", r.0);
        debug_assert_eq!(self.slots[slot].count, 1, "resizing a run");
        self.slots[slot].span = Span::new(self.slots[slot].span.offset, new_len);
        #[cfg(debug_assertions)]
        {
            let b = self.slots[slot];
            let sh = self
                .shadow
                .get_mut(b.span.offset)
                .expect("shadow tracks every block");
            sh.span = b.span;
        }
    }

    /// Mark the block used by the application.
    pub fn set_used(&mut self, r: BlockRef, requested: usize, pool: usize) {
        let slot = r.0 as usize;
        assert!(self.slots[slot].occupied, "stale BlockRef {}", r.0);
        debug_assert_eq!(self.slots[slot].count, 1, "a run is never used");
        self.slots[slot].state = BlockState::Used;
        self.slots[slot].requested = requested;
        self.slots[slot].pool = pool;
        #[cfg(debug_assertions)]
        self.shadow_sync(slot);
    }

    /// Mark the block free and assign its pool.
    pub fn set_free(&mut self, r: BlockRef, pool: usize) {
        let slot = r.0 as usize;
        assert!(self.slots[slot].occupied, "stale BlockRef {}", r.0);
        self.slots[slot].state = BlockState::Free;
        self.slots[slot].requested = 0;
        self.slots[slot].pool = pool;
        #[cfg(debug_assertions)]
        self.shadow_sync(slot);
    }

    /// Re-home the block (every member of a run) to another pool, keeping
    /// its state.
    pub fn set_pool(&mut self, r: BlockRef, pool: usize) {
        let slot = r.0 as usize;
        assert!(self.slots[slot].occupied, "stale BlockRef {}", r.0);
        self.slots[slot].pool = pool;
        #[cfg(debug_assertions)]
        self.shadow_sync(slot);
    }

    /// Update the requested-payload field of a used block (realloc in
    /// place).
    pub fn set_requested(&mut self, r: BlockRef, requested: usize) {
        let slot = r.0 as usize;
        assert!(self.slots[slot].occupied, "stale BlockRef {}", r.0);
        debug_assert_eq!(self.slots[slot].state, BlockState::Used);
        self.slots[slot].requested = requested;
        #[cfg(debug_assertions)]
        self.shadow_sync(slot);
    }

    /// Record the block's node token in its pool's free index. Simulator
    /// bookkeeping only — the shadow oracle does not track it.
    pub fn set_index_token(&mut self, r: BlockRef, token: usize) {
        let slot = r.0 as usize;
        assert!(self.slots[slot].occupied, "stale BlockRef {}", r.0);
        self.slots[slot].index_token = token;
    }

    #[cfg(debug_assertions)]
    fn shadow_sync(&mut self, slot: usize) {
        let b = self.slots[slot];
        for m in b.member_blocks() {
            let sh = self
                .shadow
                .get_mut(m.span.offset)
                .expect("shadow tracks every block");
            *sh = m;
        }
    }

    /// Linear fallback lookup by offset (stale or externally-minted
    /// handles only — every hot path resolves blocks through [`BlockRef`]),
    /// charging one step per block visited — the modelled cost of the
    /// linear scan a manager performs to resolve a handle that carries no
    /// slot. A run is visited member by member; a hit on one of its
    /// members names the run's node.
    pub fn find_by_offset_charged(&self, offset: usize, steps: &mut u64) -> Option<BlockRef> {
        for (r, b) in self.iter() {
            if b.count > 1 && (b.span.offset..b.span.end()).contains(&offset) {
                let run = b.run();
                let i = (offset - run.offset) / run.len;
                if run.member(i).offset == offset {
                    *steps += i as u64 + 1;
                    return Some(r);
                }
            } else if b.span.offset == offset {
                *steps += 1;
                return Some(r);
            }
            *steps += u64::from(b.count);
        }
        None
    }

    /// Drop everything.
    pub fn clear(&mut self) {
        self.slots.clear();
        self.free_slots.clear();
        self.head = NIL;
        self.tail = NIL;
        self.nodes = 0;
        self.len = 0;
        #[cfg(debug_assertions)]
        self.shadow.clear();
    }

    /// Verify the tiling invariant against an arena of size `brk`: blocks
    /// start at 0, are contiguous, non-overlapping, end at `brk`, and the
    /// prev links mirror the next links; runs are free, non-empty and a
    /// whole number of members. Debug builds additionally cross-check the
    /// whole block sequence, member by member, against the shadow
    /// [`BlockMap`](crate::heap::block::BlockMap) oracle.
    ///
    /// Returns a description of the first violation, if any.
    pub fn check_tiling(&self, brk: usize) -> Option<String> {
        let mut cursor = 0usize;
        let mut prev: u32 = NIL;
        let mut cur = self.head;
        let mut count = 0usize;
        let mut members = 0usize;
        while cur != NIL {
            let b = &self.slots[cur as usize];
            if !b.occupied {
                return Some(format!("linked slot {cur} is vacant"));
            }
            if b.prev != prev {
                return Some(format!(
                    "block at {}: prev link {} disagrees with walk ({prev})",
                    b.span.offset, b.prev
                ));
            }
            if b.span.offset != cursor {
                return Some(format!(
                    "gap or overlap: expected block at {cursor}, found {}",
                    b.span.offset
                ));
            }
            if b.span.len == 0 {
                return Some(format!("zero-length block at {}", b.span.offset));
            }
            if b.count == 0
                || (b.count > 1 && (!b.is_free() || !b.span.len.is_multiple_of(b.count as usize)))
            {
                return Some(format!(
                    "malformed run of {} at {} ({:?})",
                    b.count, b.span.offset, b.state
                ));
            }
            cursor = b.span.end();
            prev = cur;
            cur = b.next;
            count += 1;
            members += b.count as usize;
            if count > self.nodes {
                return Some("neighbour list is cyclic".into());
            }
        }
        if prev != self.tail {
            return Some(format!("tail {} disagrees with walk ({prev})", self.tail));
        }
        if (count, members) != (self.nodes, self.len) {
            return Some(format!(
                "{} nodes of {} blocks, but walked {count} nodes of {members}",
                self.nodes, self.len
            ));
        }
        if cursor != brk {
            return Some(format!("tiling ends at {cursor}, arena brk is {brk}"));
        }
        #[cfg(debug_assertions)]
        {
            if let Some(err) = self.shadow.check_tiling(brk) {
                return Some(format!("shadow oracle: {err}"));
            }
            if self.shadow.len() != self.len {
                return Some(format!(
                    "shadow oracle holds {} blocks, list holds {}",
                    self.shadow.len(),
                    self.len
                ));
            }
            let members = self.iter().flat_map(|(_, b)| b.member_blocks());
            for (b, oracle) in members.zip(self.shadow.iter()) {
                if b != *oracle {
                    return Some(format!(
                        "divergence from the shadow oracle at {}: {b:?} vs {oracle:?}",
                        oracle.span.offset
                    ));
                }
            }
        }
        None
    }
}

/// Address-order iterator over a [`Tiling`].
#[derive(Debug)]
pub struct TilingIter<'a> {
    tiling: &'a Tiling,
    cur: u32,
}

impl<'a> Iterator for TilingIter<'a> {
    type Item = (BlockRef, &'a TiledBlock);

    fn next(&mut self) -> Option<Self::Item> {
        if self.cur == NIL {
            return None;
        }
        let slot = self.cur;
        let b = &self.tiling.slots[slot as usize];
        self.cur = b.next;
        Some((BlockRef(slot), b))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn free(offset: usize, len: usize) -> Block {
        Block::free(Span::new(offset, len), 0)
    }

    #[test]
    fn push_top_builds_an_ordered_list() {
        let mut t = Tiling::new();
        let a = t.push_top(free(0, 16));
        let b = t.push_top(free(16, 32));
        let c = t.push_top(free(48, 16));
        assert_eq!(t.len(), 3);
        assert_eq!(t.first(), Some(a));
        assert_eq!(t.top(), Some(c));
        assert_eq!(t.next(a), Some(b));
        assert_eq!(t.next(b), Some(c));
        assert_eq!(t.next(c), None);
        assert_eq!(t.prev(b), Some(a));
        assert_eq!(t.prev(a), None);
        assert!(t.check_tiling(64).is_none());
        assert!(t.check_tiling(65).is_some());
    }

    #[test]
    fn insert_after_splices_mid_list() {
        let mut t = Tiling::new();
        let a = t.push_top(free(0, 64));
        t.set_len(a, 16);
        let b = t.insert_run(Some(a), free(16, 48), 1);
        assert_eq!(t.next(a), Some(b));
        assert_eq!(t.top(), Some(b));
        t.set_len(b, 16);
        let c = t.insert_run(Some(b), free(32, 32), 1);
        assert_eq!(t.top(), Some(c));
        assert_eq!(t.prev(c), Some(b));
        assert!(t.check_tiling(64).is_none());
    }

    #[test]
    fn remove_relinks_neighbours_and_recycles_slots() {
        let mut t = Tiling::new();
        let a = t.push_top(free(0, 16));
        let b = t.push_top(free(16, 16));
        let c = t.push_top(free(32, 16));
        t.remove(b);
        t.set_len(a, 32); // a absorbs b's bytes: tiling restored
        assert_eq!(t.next(a), Some(c));
        assert_eq!(t.prev(c), Some(a));
        assert!(t.check_tiling(48).is_none());
        assert!(!t.is_live(b));
        // The freed slot is recycled by the next insertion.
        let d = t.insert_run(Some(c), free(48, 8), 1);
        assert_eq!(d.index(), b.index());
        assert!(t.is_live(d));
        assert!(t.check_tiling(56).is_none());
    }

    #[test]
    fn remove_tail_and_head_update_anchors() {
        let mut t = Tiling::new();
        let a = t.push_top(free(0, 16));
        let b = t.push_top(free(16, 16));
        t.remove(b);
        assert_eq!(t.top(), Some(a));
        assert!(t.check_tiling(16).is_none());
        t.remove(a);
        assert!(t.is_empty());
        assert_eq!(t.first(), None);
        assert_eq!(t.top(), None);
        assert!(t.check_tiling(0).is_none());
    }

    #[test]
    fn state_mutators_keep_the_shadow_in_step() {
        let mut t = Tiling::new();
        let a = t.push_top(free(0, 64));
        t.set_used(a, 60, 3);
        assert_eq!(t.get(a).state, BlockState::Used);
        assert_eq!(t.get(a).requested, 60);
        assert_eq!(t.get(a).pool, 3);
        assert!(t.check_tiling(64).is_none());
        t.set_requested(a, 50);
        t.set_free(a, 1);
        t.set_pool(a, 2);
        assert_eq!(t.get(a).pool, 2);
        assert!(t.get(a).is_free());
        assert!(t.check_tiling(64).is_none());
    }

    #[test]
    fn find_by_offset_resolves_and_misses() {
        let mut t = Tiling::new();
        let _ = t.push_top(free(0, 16));
        let b = t.push_top(free(16, 16));
        let mut steps = 0u64;
        assert_eq!(t.find_by_offset_charged(16, &mut steps), Some(b));
        assert_eq!(steps, 2, "one step per block visited");
        assert_eq!(t.find_by_offset_charged(8, &mut steps), None);
        assert_eq!(t.find_by_offset_charged(999, &mut steps), None);
    }

    #[test]
    fn check_tiling_detects_gaps() {
        let mut t = Tiling::new();
        let a = t.push_top(free(0, 16));
        let _ = t.push_top(free(16, 16));
        // Shrink the first block without inserting a filler: gap at 8..16.
        t.set_len(a, 8);
        let err = t.check_tiling(32).expect("gap must be detected");
        assert!(err.contains("expected block at 8"), "{err}");
    }

    #[test]
    #[should_panic(expected = "stale BlockRef")]
    fn stale_ref_is_rejected() {
        let mut t = Tiling::new();
        let a = t.push_top(free(0, 16));
        t.remove(a);
        let _ = t.get(a);
    }

    #[test]
    fn clear_resets_everything() {
        let mut t = Tiling::new();
        let _ = t.push_top(free(0, 16));
        let _ = t.push_top(free(16, 16));
        t.clear();
        assert!(t.is_empty());
        assert!(t.check_tiling(0).is_none());
        let a = t.push_top(free(0, 32));
        assert_eq!(t.first(), Some(a));
        assert!(t.check_tiling(32).is_none());
    }

    #[test]
    fn runs_count_members_and_split_fuse_remove_by_member() {
        let mut t = Tiling::new();
        let head = t.push_top(Block {
            state: BlockState::Used,
            requested: 10,
            ..free(0, 16)
        });
        let r = t.insert_run(Some(head), free(16, 8 * 32), 8);
        let top = t.push_top(free(16 + 8 * 32, 24));
        assert_eq!(t.len(), 10, "a run counts its members");
        assert_eq!(t.get(r).run(), Run::new(16, 32, 8));
        assert!(t.check_tiling(16 + 8 * 32 + 24).is_none());

        // Split off the top three members, then the lowest two.
        let upper = t.split(r, 5);
        assert_eq!(t.get(r).run(), Run::new(16, 32, 5));
        assert_eq!(t.get(upper).run(), Run::new(16 + 5 * 32, 32, 3));
        assert_eq!((t.next(r), t.next(upper)), (Some(upper), Some(top)));
        let mid = t.split(r, 2);
        assert_eq!(t.get(mid).run(), Run::new(16 + 2 * 32, 32, 3));
        assert_eq!(t.len(), 10, "splits move no block");
        assert!(t.check_tiling(16 + 8 * 32 + 24).is_none());

        // Fusing merges members into one block; removing a run drops all.
        t.fuse(mid);
        assert_eq!(t.get(mid).count, 1);
        assert_eq!(t.len(), 8);
        assert!(t.check_tiling(16 + 8 * 32 + 24).is_none());
        t.remove(upper);
        t.set_len(mid, 6 * 32);
        assert_eq!(t.len(), 5);
        assert!(t.check_tiling(16 + 8 * 32 + 24).is_none());

        // The offset scan visits members one by one.
        let mut steps = 0u64;
        assert_eq!(t.find_by_offset_charged(16 + 32, &mut steps), Some(r));
        assert_eq!(steps, 3, "head, then the run's first two members");
        steps = 0;
        assert_eq!(t.find_by_offset_charged(16 + 8 * 32, &mut steps), Some(top));
        assert_eq!(steps, 5);
        steps = 0;
        assert_eq!(t.find_by_offset_charged(24, &mut steps), None);
        assert_eq!(steps, 5, "a miss visits every block");
    }

    #[test]
    #[should_panic(expected = "split of a 1-member run")]
    fn a_single_block_cannot_split() {
        let mut t = Tiling::new();
        let a = t.push_top(free(0, 16));
        t.split(a, 1);
    }

    #[test]
    fn iter_yields_address_order() {
        let mut t = Tiling::new();
        let mut expect = Vec::new();
        for i in 0..10 {
            t.push_top(free(i * 8, 8));
            expect.push(i * 8);
        }
        let got: Vec<usize> = t.iter().map(|(_, b)| b.span.offset).collect();
        assert_eq!(got, expect);
    }
}
