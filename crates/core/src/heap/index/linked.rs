//! Linked-list free indexes (A1 leaves *singly linked list* and
//! *doubly linked list*), backed by a slab so the simulation is allocation-
//! free on the hot path.
//!
//! The cost model mirrors the real structures: a singly linked list charges
//! a walk for every unlink (it must find the predecessor), while the doubly
//! linked list unlinks in O(1) — which is exactly why immediate coalescing
//! wants it (paper Section 5: "the most simple DDT that allows coalescing
//! and splitting, i.e. double linked list").
//!
//! # Rank-computed walk charges
//!
//! Every node is stamped with a monotonically increasing `seq` on insert,
//! and every insert is `push_front` — so **link order is exactly descending
//! `seq`**, and with the rank key `u64::MAX - seq`, ascending key order *is*
//! link order. The slab mirrors its membership into a flat order-statistic
//! segment tree ([`SeqTree`], which exploits exactly that monotone stamp
//! discipline) keyed that way (weight = span length) plus per-size LIFO
//! buckets ([`SizeBuckets`]), which together compute every fit charge
//! without touching a node:
//!
//! - a node's walk distance is `rank(key)` (first/next-fit hits, exact-fit
//!   hits, and the singly-linked unlink charge);
//! - a **miss** full scan charges `len` in one add; a first-fit walk that
//!   terminates early at a parked next-fit cursor charges
//!   `count_below(cursor key)`;
//! - next-fit's two passes (cursor→tail, wrap, head→cursor) decompose into
//!   `first_at_least_from` / `first_at_least_below` selects plus rank
//!   arithmetic;
//! - **best fit without an exact hit** and **worst fit** scan the whole
//!   list (charge `len`) and resolve the winner from the size buckets: the
//!   first fitting node in link order is the smallest key — i.e. the most
//!   recently inserted live node — of the winning size (the bucket's LIFO
//!   top; the largest live size is the rank tree's root max-weight).
//!
//! # Demand-driven replica
//!
//! Everything above is simulator acceleration, so each piece exists only
//! from the first query that reads it:
//!
//! - **Short lists run bare.** Below [`LinkedSlab::ACTIVATE`] nodes no
//!   replica is maintained at all — push and unlink are pure pointer ops
//!   and every search runs the faithful walk, which over a handful of
//!   nodes is cheaper than any replica lookup. Crossing the threshold
//!   only lets queries build what they read ([`LinkedSlab::activate`]);
//!   shrinking far below it drops every structure
//!   ([`LinkedSlab::deactivate`], with wide hysteresis so churn around
//!   either edge cannot thrash rebuilds).
//! - **Head hits need no replica.** Every first-fit walk starts at the
//!   head member, wherever a next-fit cursor is parked, so a head that
//!   fits is the hit at charge 1; a singly linked unlink of the head node
//!   is at position 1. Neither reads a structure — a segregated pool of
//!   one class, whose head always fits, never builds one.
//! - **The position tree is query-lazy.** Only rank/select *queries* —
//!   first fit past the head, the next-fit decompositions, worst-fit max,
//!   SLL unlink positions past the head — read [`SeqTree`]; exact- and
//!   best-fit *hit* charges come off the faithful walk when the tree is
//!   down (the walk is the oracle, so the value is identical and walking
//!   costs exactly what it charges), and misses charge the list length. A
//!   configuration that never issues a rank query — the paper's DRR
//!   manager: exact-then-best fit over a doubly linked list — never pays a
//!   tree update. The first query that needs it triggers
//!   [`LinkedSlab::ensure_pos`], which restamps densely and builds the
//!   tree sized to the live list.
//! - **The size buckets are query-lazy too**: built by the first exact-,
//!   best- or worst-fit search ([`LinkedSlab::ensure_sizes`]), their only
//!   readers, so first- and next-fit lists never maintain them.
//! - **So is the ordered size set**: built by the first best-fit search
//!   ([`SizeBuckets::ensure_ordered`]) as a two-level bitmap over
//!   granule-aligned sizes (spilling odd sizes to a `BTreeSet`), then
//!   maintained incrementally on live-size 0↔1 transitions.
//!
//! # Shadow oracle
//!
//! The faithful node-by-node walks stay compiled in ([`walk_search`],
//! [`LinkedSlab::walk_distance`]) and every `find`/SLL `remove` asserts, in
//! debug builds, that the computed answer AND charge are bit-identical to
//! the walk — the same pattern as the boundary-tag `BlockMap` oracle. The
//! replica's structural invariants (tree order == link order, weights ==
//! span lengths, size buckets == live membership) are re-validated per
//! replay event through [`FreeIndex::check_oracle`]. The rank structures
//! are simulator-side acceleration, not part of the modelled manager, so
//! they contribute nothing to `control_overhead_bytes`.
//!
//! # Runs
//!
//! A node may stand for a run of `k` equal blocks, pushed in ascending
//! address order: its members occupy `k` consecutive link positions, the
//! highest address first. Positions, list lengths and size-bucket counts
//! are in members (the [`SeqTree`] leaf carries the count), the oracle
//! walks visit members, and a NextFit cursor names a member. Fits hit a
//! node's head-most member; only a cursor parked inside a run hits a
//! member below it. Removing members from either end shrinks the node in
//! place; removing interior ones (a cursor hit) links the upper members
//! as a node of their own and rebuilds the replica, which no manager
//! replay does.

use std::collections::BTreeSet;

use std::ops::Range;

use crate::heap::block::{Run, Span};
use crate::heap::index::rank::SeqTree;
use crate::heap::index::{Found, FreeIndex, Unlink};
use crate::heap::tiling::BlockRef;
use crate::space::trees::FitAlgorithm;
use crate::units::POINTER_BYTES;

// Node links are stored as u32 (the slab cannot exceed u32 slots — slot
// payloads in the rank replica are u32 already), so the nil sentinel is
// u32::MAX widened: link reads cast to usize and compare against it.
const NIL: usize = u32::MAX as usize;

/// Rank key for a push stamp: ascending key order == link order.
fn rank_key(seq: u64) -> u64 {
    u64::MAX - seq
}

/// One modelled block of the list: a node's slot and the member's index in
/// its run (0 is the lowest address, the last in link order).
type Member = (usize, usize);

/// The member-less position (no cursor, or past the tail).
const NO_MEMBER: Member = (NIL, 0);

/// One list node: a run of `count` blocks of `len` bytes from `offset`.
/// Kept to 40 bytes — the walks stream through nodes.
#[derive(Debug, Clone)]
struct Node {
    offset: usize,
    len: usize,
    /// Unique push stamp: identifies this node across slot recycling.
    seq: u64,
    block: BlockRef,
    /// Members; 0 marks a free slot.
    count: u32,
    prev: u32,
    next: u32,
}

impl Node {
    fn new(run: Run, block: BlockRef, seq: u64, prev: u32, next: u32) -> Node {
        Node {
            offset: run.offset,
            len: run.len,
            seq,
            block,
            count: u32::try_from(run.count).expect("run count fits u32"),
            prev,
            next,
        }
    }

    fn run(&self) -> Run {
        Run::new(self.offset, self.len, self.count as usize)
    }

    fn present(&self) -> bool {
        self.count > 0
    }
}

/// Ordered live-size set for the best-fit winner lookup: a two-level
/// bitmap over [`SIZE_GRANULE`]-aligned sizes up to [`SIZE_LIMIT`], with a
/// `BTreeSet` spill for sizes the bitmap cannot represent exactly. The
/// bitmap makes the hot operations branch-light: membership flips are two
/// bit ops, and the smallest-size-at-least query is a masked word scan.
#[derive(Debug, Clone)]
struct OrderedSizes {
    /// Bit `w` set iff `words[w] != 0`.
    summary: u64,
    /// Bit `i` of word `i / 64` set iff size `(i + 1) * SIZE_GRANULE` is
    /// live.
    words: [u64; SIZE_WORDS],
    /// Live sizes outside the bitmap's exact domain (unaligned or too
    /// large). Empty for the common aligned workloads.
    large: BTreeSet<usize>,
}

/// Bitmap size granule: the alignment every split/coalesce-produced span
/// length shares in practice.
const SIZE_GRANULE: usize = 8;
/// Bitmap word count; covers sizes up to [`SIZE_LIMIT`].
const SIZE_WORDS: usize = 64;
/// Largest size the bitmap represents exactly.
const SIZE_LIMIT: usize = SIZE_GRANULE * 64 * SIZE_WORDS;

impl Default for OrderedSizes {
    fn default() -> Self {
        OrderedSizes {
            summary: 0,
            words: [0; SIZE_WORDS],
            large: BTreeSet::new(),
        }
    }
}

impl OrderedSizes {
    /// Bit index of `size`, when the bitmap represents it exactly.
    #[inline(always)]
    fn bit_of(size: usize) -> Option<usize> {
        (size.is_multiple_of(SIZE_GRANULE) && (SIZE_GRANULE..=SIZE_LIMIT).contains(&size))
            .then(|| size / SIZE_GRANULE - 1)
    }

    fn insert(&mut self, size: usize) {
        match Self::bit_of(size) {
            Some(i) => {
                self.words[i / 64] |= 1u64 << (i % 64);
                self.summary |= 1u64 << (i / 64);
            }
            None => {
                self.large.insert(size);
            }
        }
    }

    fn remove(&mut self, size: usize) {
        match Self::bit_of(size) {
            Some(i) => {
                let w = i / 64;
                self.words[w] &= !(1u64 << (i % 64));
                if self.words[w] == 0 {
                    self.summary &= !(1u64 << w);
                }
            }
            None => {
                self.large.remove(&size);
            }
        }
    }

    fn contains(&self, size: usize) -> bool {
        match Self::bit_of(size) {
            Some(i) => self.words[i / 64] & (1u64 << (i % 64)) != 0,
            None => self.large.contains(&size),
        }
    }

    fn len(&self) -> usize {
        self.words
            .iter()
            .map(|w| w.count_ones() as usize)
            .sum::<usize>()
            + self.large.len()
    }

    /// Smallest live size `>= len`. The bitmap and the spill set are
    /// consulted independently — the spill can hold unaligned sizes below
    /// the bitmap's limit — and the smaller candidate wins.
    fn smallest_at_least(&self, len: usize) -> Option<usize> {
        let small = (len <= SIZE_LIMIT).then(|| self.scan_from(len)).flatten();
        let big = self.large.range(len..).next().copied();
        match (small, big) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    /// First set bit at or after `len`'s slot, as a size.
    fn scan_from(&self, len: usize) -> Option<usize> {
        let start = len.div_ceil(SIZE_GRANULE).max(1) - 1;
        let (w0, b0) = (start / 64, start % 64);
        let first = self.words[w0] & (!0u64 << b0);
        if first != 0 {
            return Some((w0 * 64 + first.trailing_zeros() as usize + 1) * SIZE_GRANULE);
        }
        let later = if w0 + 1 < 64 {
            self.summary & (!0u64 << (w0 + 1))
        } else {
            0
        };
        if later != 0 {
            let w = later.trailing_zeros() as usize;
            let b = self.words[w].trailing_zeros() as usize;
            return Some((w * 64 + b + 1) * SIZE_GRANULE);
        }
        None
    }
}

/// Per-size LIFO buckets behind a small open-addressed hash table, plus a
/// lazily enabled ordered size set for the best-fit winner lookup.
///
/// Each bucket stacks `(slot, seq)` push records for one size and counts
/// its live members. Unlink decrements the live count and pops any dead
/// records it exposes at the top, so **whenever `live > 0` the top record
/// is the newest live node of that size** — the first one a head-to-tail
/// walk meets — and every `newest_of_size` query is two loads. Buried
/// records go stale in place and are reclaimed when exposed (or by the
/// occasional retain sweep); they are record-keeping only and never
/// consulted while stale.
#[derive(Debug, Clone, Default)]
struct SizeBuckets {
    /// Open-addressed buckets; capacity is a power of two. `size == 0`
    /// marks a never-occupied slot. Buckets whose live count drops to zero
    /// persist (keeping their stack allocation for the size's return) and
    /// are only dropped on rehash.
    slots: Vec<Bucket>,
    /// Occupied buckets, including live == 0 ones.
    occupied: usize,
    /// Live sizes in order, built on the first best-fit search that needs
    /// an ordered winner and maintained incrementally afterwards.
    ordered: Option<Box<OrderedSizes>>,
}

#[derive(Debug, Clone, Default)]
struct Bucket {
    size: usize,
    live: u32,
    stack: Vec<(u32, u64)>,
}

impl SizeBuckets {
    /// Index of `size`'s bucket, or of the empty slot where it belongs.
    /// Callers must ensure the table is non-empty and has a free slot.
    #[inline(always)]
    fn probe(&self, size: usize) -> usize {
        let mask = self.slots.len() - 1;
        let mut i = (size.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) & mask;
        loop {
            let s = self.slots[i].size;
            if s == size || s == 0 {
                return i;
            }
            i = (i + 1) & mask;
        }
    }

    fn rehash_grow(&mut self) {
        let cap = (self.slots.len() * 2).max(16);
        let old = std::mem::replace(&mut self.slots, vec![Bucket::default(); cap]);
        self.occupied = 0;
        for b in old {
            // Dead buckets (live == 0) hold only stale records: drop them.
            if b.live > 0 {
                let i = self.probe(b.size);
                self.slots[i] = b;
                self.occupied += 1;
            }
        }
    }

    fn on_push(&mut self, size: usize, slot: u32, seq: u64, count: usize) {
        debug_assert!(size > 0, "free spans are never empty");
        if (self.occupied + 1) * 10 > self.slots.len() * 7 {
            self.rehash_grow();
        }
        let i = self.probe(size);
        let b = &mut self.slots[i];
        if b.size == 0 {
            b.size = size;
            self.occupied += 1;
        }
        b.live += count as u32;
        b.stack.push((slot, seq));
        if b.live as usize == count {
            if let Some(set) = self.ordered.as_mut() {
                set.insert(size);
            }
        }
    }

    /// Settle the removal of `count` members of a live `size` node.
    fn on_shrink(&mut self, size: usize, count: usize) {
        let i = self.probe(size);
        let b = &mut self.slots[i];
        debug_assert!(
            b.size == size && b.live as usize > count,
            "shrink below one member"
        );
        b.live -= count as u32;
    }

    /// Settle an unlink of a `size` node of `count` members. The node is
    /// already marked dead in `nodes`, so popping dead tops here
    /// re-establishes the live-top invariant.
    fn on_unlink(&mut self, size: usize, count: usize, nodes: &[Node]) {
        let i = self.probe(size);
        let b = &mut self.slots[i];
        debug_assert_eq!(b.size, size, "unlink of an unindexed size");
        debug_assert!(
            b.live as usize >= count,
            "unlink of more members than are live"
        );
        b.live -= count as u32;
        let alive = |&(slot, seq): &(u32, u64)| {
            nodes[slot as usize].present() && nodes[slot as usize].seq == seq
        };
        while let Some(top) = b.stack.last() {
            if alive(top) {
                break;
            }
            b.stack.pop();
        }
        // Mostly-stale stacks get compacted so buried records cannot
        // accumulate past a small multiple of the live count.
        if b.stack.len() >= 16 && b.stack.len() >= 4 * b.live as usize {
            b.stack.retain(alive);
        }
        if b.live == 0 {
            if let Some(set) = self.ordered.as_mut() {
                set.remove(size);
            }
        }
    }

    /// The newest live node of exactly `size`, O(1).
    #[inline(always)]
    fn newest(&self, size: usize) -> Option<u32> {
        if self.slots.is_empty() {
            return None;
        }
        let b = &self.slots[self.probe(size)];
        if b.size != size || b.live == 0 {
            return None;
        }
        Some(b.stack.last().expect("live bucket has a live top").0)
    }

    /// Smallest live size `>= len`. Requires [`SizeBuckets::ensure_ordered`].
    fn best_at_least(&self, len: usize) -> Option<usize> {
        self.ordered
            .as_ref()
            .expect("ordered sizes enabled before a best-fit search")
            .smallest_at_least(len)
    }

    /// Empty every bucket in place, keeping the table and each bucket's
    /// stack allocation for the rebuild that follows. The ordered set is
    /// dropped — the next best-fit search rebuilds it from live buckets.
    fn reset(&mut self) {
        for b in self.slots.iter_mut() {
            b.size = 0;
            b.live = 0;
            b.stack.clear();
        }
        self.occupied = 0;
        self.ordered = None;
    }

    /// Drop every stale record, validating against the nodes' *current*
    /// stamps. First half of the owner's restamp protocol: must run while
    /// the old stamps are still in place.
    fn prune_dead(&mut self, nodes: &[Node]) {
        for b in self.slots.iter_mut().filter(|b| b.size != 0) {
            b.stack.retain(|&(slot, seq)| {
                nodes[slot as usize].present() && nodes[slot as usize].seq == seq
            });
        }
    }

    /// Rewrite every (pruned) record's stamp from its node. Second half of
    /// the restamp protocol: runs after the owner reassigned stamps, which
    /// preserves relative order, so each stack stays in push order. The
    /// bucket topology (hash slots, live counts, ordered set) is untouched
    /// — restamping changes no live membership.
    fn restamp(&mut self, nodes: &[Node]) {
        for b in self.slots.iter_mut().filter(|b| b.size != 0) {
            for e in b.stack.iter_mut() {
                e.1 = nodes[e.0 as usize].seq;
            }
        }
    }

    fn ensure_ordered(&mut self) {
        if self.ordered.is_none() {
            let mut set = Box::<OrderedSizes>::default();
            for b in self.slots.iter().filter(|b| b.live > 0) {
                set.insert(b.size);
            }
            self.ordered = Some(set);
        }
    }

    fn clear(&mut self) {
        self.slots.clear();
        self.occupied = 0;
        self.ordered = None;
    }

    /// Validate the buckets against the live-size census `(nodes,
    /// members)` from a faithful list walk.
    fn check(
        &self,
        counts: &std::collections::HashMap<usize, (u32, u32)>,
        nodes: &[Node],
    ) -> Result<(), String> {
        let mut live_buckets = 0usize;
        for b in self.slots.iter().filter(|b| b.size != 0) {
            let (want_nodes, want) = counts.get(&b.size).copied().unwrap_or((0, 0));
            if b.live != want {
                return Err(format!(
                    "size bucket {} counts {} live members, list has {want}",
                    b.size, b.live
                ));
            }
            let alive = b
                .stack
                .iter()
                .filter(|&&(slot, seq)| {
                    nodes
                        .get(slot as usize)
                        .is_some_and(|n| n.present() && n.seq == seq && n.len == b.size)
                })
                .count();
            if alive as u32 != want_nodes {
                return Err(format!(
                    "size bucket {} stack holds {alive} live records for {want_nodes} live nodes",
                    b.size
                ));
            }
            if b.live > 0 {
                live_buckets += 1;
                let &(slot, seq) = b
                    .stack
                    .last()
                    .ok_or_else(|| format!("size bucket {} live but its stack is empty", b.size))?;
                let newest = nodes
                    .get(slot as usize)
                    .filter(|n| n.present() && n.seq == seq && n.len == b.size);
                if newest.is_none() {
                    return Err(format!("size bucket {} has a stale top record", b.size));
                }
            }
        }
        if counts.len() != live_buckets {
            return Err(format!(
                "list walks {} live sizes, buckets hold {live_buckets}",
                counts.len()
            ));
        }
        if let Some(set) = &self.ordered {
            if set.len() != counts.len() || !counts.keys().all(|&s| set.contains(s)) {
                return Err("ordered size set diverged from live sizes".into());
            }
        }
        Ok(())
    }
}

/// Slab-backed intrusive list shared by both linked variants.
///
/// The NextFit roving cursor lives here rather than in the index wrappers:
/// only the slab knows when a slot is unlinked or reused, and both events
/// must guard the cursor — an unlinked cursor advances to its successor,
/// and a cursor that somehow still names a slot being handed out by
/// [`LinkedSlab::push_front`] is invalidated instead of silently pointing
/// at the unrelated node now occupying that slot.
#[derive(Debug, Clone)]
struct LinkedSlab {
    nodes: Vec<Node>,
    free_slots: Vec<usize>,
    head: usize,
    /// Live members (modelled blocks).
    len: usize,
    /// Live nodes.
    node_count: usize,
    /// The NextFit cursor's node, or `NIL`.
    cursor: usize,
    /// The cursor's member index in its node's run (0 without a cursor).
    cursor_idx: usize,
    /// Monotonic push stamp source.
    seq: u64,
    /// Order-statistic replica of the list: key `u64::MAX - seq`
    /// (ascending == link order), weight = member length, count = members,
    /// payload = slot.
    pos: SeqTree,
    /// Per-size LIFO buckets: each bucket's top is the newest live node of
    /// that size — the first one a head-to-tail walk meets, because
    /// `push_front` keeps the list in reverse insertion order.
    sizes: SizeBuckets,
    /// Whether the list is long enough for the rank replica. Short lists
    /// stay unindexed — the faithful walk over a handful of nodes is
    /// cheaper than any replica lookup — and a list becomes indexed the
    /// first time it reaches [`LinkedSlab::ACTIVATE`] nodes, staying so
    /// until it shrinks far below the threshold. Either way every answer
    /// and charge is the walk's, bit for bit: below the threshold the walk
    /// runs, above it the rank layer computes the same values (and debug
    /// builds assert so).
    indexed: bool,
    /// Whether the position tree is maintained. Only rank/select *queries*
    /// (first/next-fit decompositions past the head, worst-fit max, SLL
    /// unlink positions past the head) read `pos`, and a configuration
    /// that never issues one — e.g. exact-then-best fit over a doubly
    /// linked list, where hit charges come off the faithful walk and miss
    /// charges are the list length — never pays its per-push and
    /// per-unlink tree updates. The first query that needs the tree builds
    /// it via [`LinkedSlab::renumber`] and maintenance starts from there.
    /// Implies `indexed`.
    pos_live: bool,
    /// Whether the size buckets are maintained: built by the first exact-,
    /// best- or worst-fit search ([`LinkedSlab::ensure_sizes`]), their only
    /// readers, so a first- or next-fit list never pays for them. Implies
    /// `indexed`.
    sizes_live: bool,
}

impl Default for LinkedSlab {
    fn default() -> Self {
        LinkedSlab::new()
    }
}

impl LinkedSlab {
    /// List length, in members, at which the rank replica is built. Below
    /// this a fit walk touches at most a few cache lines and beats the
    /// replica's per-operation maintenance; above it walk costs grow
    /// linearly while rank queries stay logarithmic.
    const ACTIVATE: usize = 32;

    fn new() -> Self {
        LinkedSlab {
            nodes: Vec::new(),
            free_slots: Vec::new(),
            head: NIL,
            len: 0,
            node_count: 0,
            cursor: NIL,
            cursor_idx: 0,
            seq: 0,
            pos: SeqTree::new(),
            sizes: SizeBuckets::default(),
            indexed: false,
            pos_live: false,
            sizes_live: false,
        }
    }

    /// Link order, head to tail, as a slot vector.
    fn link_order(&self) -> Vec<usize> {
        let mut order: Vec<usize> = Vec::with_capacity(self.len);
        let mut cur = self.head;
        while cur != NIL {
            order.push(cur);
            cur = self.nodes[cur].next as usize;
        }
        order
    }

    /// Restamp every live node with fresh dense stamps, tail first so they
    /// ascend toward the head exactly as `push_front`'s do. Invisible to
    /// the cost model — ranks are positions in link order, which
    /// restamping preserves.
    fn restamp_dense(&mut self, order: &[usize]) {
        self.seq = 0;
        for &slot in order.iter().rev() {
            self.seq += 1;
            self.nodes[slot].seq = self.seq;
        }
    }

    /// Rebuild the position tree from freshly densified stamps, in a leaf
    /// space sized for the live count. Must run right after
    /// [`LinkedSlab::restamp_dense`]: the tree's leaves are allotted in
    /// stamp order.
    fn rebuild_pos(&mut self, order: &[usize]) {
        self.pos.reset_with_room_for(order.len());
        for &slot in order.iter().rev() {
            let n = &self.nodes[slot];
            self.pos
                .insert(rank_key(n.seq), n.len, n.count as usize, slot as u32);
        }
    }

    /// Let searches use the rank replica: the list has grown past
    /// [`LinkedSlab::ACTIVATE`]. Nothing is built here — each structure is
    /// built by the first query that reads it ([`LinkedSlab::ensure_pos`],
    /// [`LinkedSlab::ensure_sizes`]).
    fn activate(&mut self) {
        debug_assert!(!self.indexed && !self.pos_live && !self.sizes_live);
        self.indexed = true;
    }

    /// Stop maintaining the replica: the list has shrunk to where faithful
    /// walks are cheaper again. Both structures are left stale in place —
    /// nothing reads them until a query rebuilds them from the list. The
    /// wide gap between the activation and deactivation thresholds keeps
    /// churn around either one from thrashing rebuilds.
    fn deactivate(&mut self) {
        debug_assert!(self.indexed);
        self.indexed = false;
        self.drop_replicas();
    }

    /// Stop maintaining both replica structures; the next query that reads
    /// one rebuilds it from the list.
    fn drop_replicas(&mut self) {
        self.pos_live = false;
        self.sizes_live = false;
    }

    /// Rebuild the position tree in a leaf space sized for the live count.
    /// Runs on activation, and when the append-only stamp space fills and
    /// most of it is dead: the tree's depth and footprint then track the
    /// *live* list, not the total push history. The size buckets are
    /// pruned and restamped in place — their topology doesn't depend on
    /// the stamps.
    fn renumber(&mut self) {
        // The buckets' stale records can only be recognised while the old
        // stamps are in place, so prune first, restamp last.
        if self.sizes_live {
            self.sizes.prune_dead(&self.nodes);
        }
        let order = self.link_order();
        self.restamp_dense(&order);
        self.rebuild_pos(&order);
        if self.sizes_live {
            self.sizes.restamp(&self.nodes);
        }
    }

    /// Build (if not yet maintained) the position tree a rank/select query
    /// is about to read, and keep it maintained from here on.
    fn ensure_pos(&mut self) {
        if self.indexed && !self.pos_live {
            self.renumber();
            self.pos_live = true;
        }
    }

    /// Build (if not yet maintained) the size buckets an exact-, best- or
    /// worst-fit search is about to read, and keep them maintained from
    /// here on. Records are pushed tail first, in stamp order, so each
    /// bucket's top is its size's newest node.
    fn ensure_sizes(&mut self) {
        if self.indexed && !self.sizes_live {
            self.sizes.reset();
            for &slot in self.link_order().iter().rev() {
                let n = &self.nodes[slot];
                self.sizes
                    .on_push(n.len, slot as u32, n.seq, n.count as usize);
            }
            self.sizes_live = true;
        }
    }

    /// Store `node` in a free slot (or a new one) and return the slot.
    fn alloc_node(&mut self, node: Node) -> usize {
        self.node_count += 1;
        match self.free_slots.pop() {
            Some(s) => {
                // Defence in depth: `unlink` already moves the cursor off
                // any slot it frees, but if the cursor ever names a reused
                // slot it would silently point at this unrelated node —
                // invalidate instead.
                if self.cursor == s {
                    (self.cursor, self.cursor_idx) = NO_MEMBER;
                }
                self.nodes[s] = node;
                s
            }
            None => {
                self.nodes.push(node);
                self.nodes.len() - 1
            }
        }
    }

    fn push_front(&mut self, run: Run, block: BlockRef) -> usize {
        // The 4x slack keeps renumbering amortised: at least 3/4 of the
        // leaf space is reclaimed dead stamps, so at least 3x the live
        // count in pushes must elapse before the space can fill again.
        if self.pos_live && self.pos.at_capacity() && 4 * self.node_count <= self.pos.capacity() {
            self.renumber();
        }
        self.seq += 1;
        let slot = self.alloc_node(Node::new(
            run,
            block,
            self.seq,
            NIL as u32,
            self.head as u32,
        ));
        if self.head != NIL {
            self.nodes[self.head].prev = slot as u32;
        }
        self.head = slot;
        self.len += run.count;
        if self.sizes_live {
            self.sizes
                .on_push(run.len, slot as u32, self.seq, run.count);
        }
        if self.pos_live {
            self.pos
                .insert(rank_key(self.seq), run.len, run.count, slot as u32);
        }
        if !self.indexed && self.len >= Self::ACTIVATE {
            self.activate();
        }
        slot
    }

    /// Move the cursor to the head-most member of the node after `slot`.
    fn cursor_past(&mut self, slot: usize) {
        (self.cursor, self.cursor_idx) = self.link_next((slot, 0));
    }

    fn unlink(&mut self, slot: usize) -> Run {
        let (prev, next, run, seq) = {
            let n = &self.nodes[slot];
            (n.prev as usize, n.next as usize, n.run(), n.seq)
        };
        if self.cursor == slot {
            self.cursor_past(slot);
        }
        if prev != NIL {
            self.nodes[prev].next = next as u32;
        } else {
            self.head = next;
        }
        if next != NIL {
            self.nodes[next].prev = prev as u32;
        }
        self.nodes[slot].count = 0;
        self.free_slots.push(slot);
        self.len -= run.count;
        self.node_count -= 1;
        if self.sizes_live {
            self.sizes.on_unlink(run.len, run.count, &self.nodes);
        }
        if self.pos_live {
            let removed = self.pos.remove(rank_key(seq));
            debug_assert!(removed, "unlinked node must be in the rank replica");
        }
        if self.indexed && self.len < Self::ACTIVATE / 8 {
            self.deactivate();
        }
        run
    }

    /// Take members `members` out of the node at `slot`. Members below the
    /// range stay in the node; members above it stay in the list as a run
    /// backed by `upper` — in this node, rebased, when nothing is left
    /// below, else in a node of their own linked just ahead of this one.
    /// Returns the slot holding the upper members (`NIL` if none). The
    /// cursor moves as it would under member-by-member unlinks: off a
    /// removed member to the next member in link order.
    fn take_members(
        &mut self,
        slot: usize,
        members: Range<usize>,
        upper: Option<BlockRef>,
    ) -> usize {
        let run = self.nodes[slot].run();
        let (a, b, k) = (members.start, members.end, run.count);
        if a == 0 && b == k {
            self.unlink(slot);
            return NIL;
        }
        let upper_run = (b < k).then(|| {
            let block = upper.expect("an upper remainder needs its tiling node");
            (Run::new(run.member(b).offset, run.len, k - b), block)
        });
        let mut cursor_to_upper = None;
        if self.cursor == slot {
            let i = self.cursor_idx;
            if members.contains(&i) {
                if a > 0 {
                    self.cursor_idx = a - 1;
                } else {
                    self.cursor_past(slot);
                }
            } else if i >= b {
                cursor_to_upper = Some(i - b);
            }
        }
        self.len -= b - a;
        let node = &mut self.nodes[slot];
        let (kept, upper_slot) = match (a, upper_run) {
            (0, Some((rest, block))) => {
                node.offset = rest.offset;
                node.count = rest.count as u32;
                node.block = block;
                (rest.count, slot)
            }
            _ => {
                node.count = a as u32;
                (a, NIL)
            }
        };
        if self.sizes_live {
            self.sizes.on_shrink(run.len, b - a);
        }
        if self.pos_live {
            self.pos.set_count(rank_key(self.nodes[slot].seq), kept);
        }
        let upper_slot = match (a, upper_run) {
            (1.., Some((rest, block))) => self.link_ahead(slot, rest, block),
            _ => upper_slot,
        };
        if let Some(i) = cursor_to_upper {
            (self.cursor, self.cursor_idx) = (upper_slot, i);
        }
        if self.indexed && self.len < Self::ACTIVATE / 8 {
            self.deactivate();
        }
        upper_slot
    }

    /// Link a node for `run` immediately ahead of `slot` in link order,
    /// then restamp the whole list so stamps descend in link order again
    /// and drop the replica, which the next query rebuilds. Only an
    /// interior member removal — a cursor hit inside a run — needs this.
    fn link_ahead(&mut self, slot: usize, run: Run, block: BlockRef) -> usize {
        let prev = self.nodes[slot].prev;
        let new = self.alloc_node(Node::new(run, block, 0, prev, slot as u32));
        if prev as usize != NIL {
            self.nodes[prev as usize].next = new as u32;
        } else {
            self.head = new;
        }
        self.nodes[slot].prev = new as u32;
        let order = self.link_order();
        self.restamp_dense(&order);
        self.drop_replicas();
        new
    }

    /// Faithful walk distance from the head to the head-most member of
    /// `slot` — the shadow oracle for [`LinkedSlab::position_of`]. Members
    /// of the nodes before it are counted, not visited.
    fn walk_distance(&self, slot: usize) -> u64 {
        let mut cur = self.head;
        let mut dist = 0;
        while cur != NIL && cur != slot {
            dist += u64::from(self.nodes[cur].count);
            cur = self.nodes[cur].next as usize;
        }
        dist + 1
    }

    /// 1-based link position of a live slot's head-most member: 1 at the
    /// head, by rank query while the position tree is maintained, else by
    /// the faithful walk itself — the walk *is* the oracle, so the values
    /// are identical, and walking costs exactly what it charges. This is
    /// the walk charge for hitting `slot` as the first fitting node, and
    /// the singly linked unlink's position.
    fn position_of(&self, slot: usize) -> u64 {
        let dist = if slot == self.head {
            1
        } else if self.pos_live {
            self.pos.rank(rank_key(self.nodes[slot].seq))
        } else {
            return self.walk_distance(slot);
        };
        debug_assert_eq!(dist, self.walk_distance(slot), "rank diverged from walk");
        dist
    }

    /// The most recently inserted live node of exactly `size` — the first
    /// such node a head-to-tail walk meets. Requires
    /// [`LinkedSlab::ensure_sizes`].
    fn newest_of_size(&self, size: usize) -> Option<usize> {
        debug_assert!(self.sizes_live, "size query before the buckets are built");
        self.sizes.newest(size).map(|slot| slot as usize)
    }

    /// The first node in link order whose size is the smallest live size
    /// `>= len` — the best-fit winner when no exact size is live. Requires
    /// [`LinkedSlab::ensure_ordered_sizes`].
    fn newest_of_best_size(&self, len: usize) -> Option<usize> {
        self.newest_of_size(self.sizes.best_at_least(len)?)
    }

    /// Largest live size, if any — the position tree's root max-weight
    /// (its weights *are* the live span lengths). Indexed only; unindexed
    /// searches walk the list instead.
    fn max_size(&self) -> Option<usize> {
        debug_assert!(self.pos_live);
        match self.pos.max_weight() {
            0 => None,
            m => Some(m),
        }
    }

    /// Build (if not yet built) the size buckets and the ordered live-size
    /// set the best-fit winner lookup reads. The search paths themselves
    /// are `&self`, so the index wrappers call this before any best-fit
    /// search.
    fn ensure_ordered_sizes(&mut self) {
        self.ensure_sizes();
        if self.sizes_live {
            self.sizes.ensure_ordered();
        }
    }

    fn iter(&self) -> LinkedIter<'_> {
        LinkedIter {
            slab: self,
            cur: self.head,
        }
    }

    /// The member index of `slot`'s head-most member.
    fn top(&self, slot: usize) -> usize {
        self.nodes[slot].count as usize - 1
    }

    /// The first member in link order.
    fn head_member(&self) -> Member {
        if self.head == NIL {
            NO_MEMBER
        } else {
            (self.head, self.top(self.head))
        }
    }

    /// The head member, if it fits `len`: where every first-fit walk stops
    /// after one step, wherever a next-fit cursor is parked.
    fn head_fit(&self, len: usize) -> Option<Member> {
        (self.head != NIL && self.nodes[self.head].len >= len).then(|| self.head_member())
    }

    /// The member after `(slot, idx)` in link order.
    fn link_next(&self, (slot, idx): Member) -> Member {
        if idx > 0 {
            return (slot, idx - 1);
        }
        match self.nodes[slot].next as usize {
            NIL => NO_MEMBER,
            next => (next, self.top(next)),
        }
    }

    fn clear(&mut self) {
        self.nodes.clear();
        self.free_slots.clear();
        self.head = NIL;
        self.len = 0;
        self.node_count = 0;
        self.cursor = NIL;
        self.cursor_idx = 0;
        self.seq = 0;
        self.pos.clear();
        self.sizes.clear();
        self.indexed = false;
        self.drop_replicas();
    }

    fn found(&self, (slot, idx): Member) -> Found {
        let n = &self.nodes[slot];
        Found {
            span: n.run().member(idx),
            run: n.run(),
            block: n.block,
            token: slot,
        }
    }

    /// Validate the rank replica against the list itself: every live node
    /// has its leaf (with its span length and slot) in the tree, link order
    /// is strictly descending stamp order (so leaf order == link order),
    /// and the size buckets match live membership exactly.
    fn check_replica(&self) -> Result<(), String> {
        let mut counts: std::collections::HashMap<usize, (u32, u32)> =
            std::collections::HashMap::new();
        let mut walked = 0usize;
        let mut nodes = 0usize;
        let mut last_seq = u64::MAX;
        for (slot, run) in self.iter() {
            let n = &self.nodes[slot];
            if n.seq >= last_seq {
                return Err(format!(
                    "link order is not descending stamps at slot {slot} (seq {})",
                    n.seq
                ));
            }
            last_seq = n.seq;
            if self.pos_live {
                match self.pos.leaf_entry(rank_key(n.seq)) {
                    Some((w, c, p)) if (w, c, p as usize) == (run.len, run.count, slot) => {}
                    other => {
                        return Err(format!(
                            "rank replica leaf for slot {slot} diverged: {other:?} vs ({}, {}, {slot})",
                            run.len, run.count
                        ));
                    }
                }
            }
            let census = counts.entry(run.len).or_default();
            census.0 += 1;
            census.1 += run.count as u32;
            walked += run.count;
            nodes += 1;
        }
        // A replica structure nothing maintains is stale by design —
        // nothing reads it — so only the maintained ones are checked.
        if (walked, nodes) != (self.len, self.node_count)
            || (self.pos_live && self.pos.len() != nodes)
        {
            return Err(format!(
                "list walks {walked} members in {nodes} nodes, slab counts {} in {}, rank replica {}",
                self.len,
                self.node_count,
                self.pos.len()
            ));
        }
        if self.sizes_live {
            self.sizes.check(&counts, &self.nodes)?;
        }
        if self.cursor != NIL
            && !self
                .nodes
                .get(self.cursor)
                .is_some_and(|n| n.present() && self.cursor_idx < n.count as usize)
        {
            return Err(format!(
                "cursor ({}, {}) names a dead member",
                self.cursor, self.cursor_idx
            ));
        }
        Ok(())
    }
}

struct LinkedIter<'a> {
    slab: &'a LinkedSlab,
    cur: usize,
}

impl Iterator for LinkedIter<'_> {
    type Item = (usize, Run);

    fn next(&mut self) -> Option<(usize, Run)> {
        if self.cur == NIL {
            return None;
        }
        let slot = self.cur;
        let node = &self.slab.nodes[slot];
        self.cur = node.next as usize;
        Some((slot, node.run()))
    }
}

/// The faithful fit walk — the shadow oracle for [`search`]. This is the
/// modelled cost: one step per member visited, from the head (or, for
/// next fit, from the cursor member), and every charge [`search`] computes
/// by rank query must equal what this walk would have charged.
fn walk_search(slab: &LinkedSlab, fit: FitAlgorithm, len: usize) -> (Option<Member>, u64) {
    let mut steps = 0u64;
    let size = |(slot, _): Member| slab.nodes[slot].len;
    match fit {
        FitAlgorithm::FirstFit | FitAlgorithm::NextFit => {
            let head = slab.head_member();
            let start = (slab.cursor, slab.cursor_idx);
            // NextFit: first pass from the cursor, then wrap to the head.
            let mut cur = if fit == FitAlgorithm::NextFit && start.0 != NIL {
                start
            } else {
                head
            };
            let mut wrapped = cur == head;
            loop {
                if cur.0 == NIL {
                    if wrapped {
                        return (None, steps);
                    }
                    wrapped = true;
                    cur = head;
                    if cur.0 == NIL {
                        return (None, steps);
                    }
                }
                steps += 1;
                if size(cur) >= len {
                    return (Some(cur), steps);
                }
                cur = slab.link_next(cur);
                if wrapped && cur == start {
                    return (None, steps);
                }
            }
        }
        // Every member of a node has the node's size, so these walks stop
        // at a node's head-most member or pass all of its members.
        FitAlgorithm::BestFit => {
            let mut best: Option<(Member, usize)> = None;
            for (slot, run) in slab.iter() {
                if run.len >= len && best.is_none_or(|(_, b)| run.len < b) {
                    steps += 1;
                    best = Some(((slot, run.count - 1), run.len));
                    if run.len == len {
                        return (Some((slot, run.count - 1)), steps); // cannot do better
                    }
                    steps += run.count as u64 - 1;
                } else {
                    steps += run.count as u64;
                }
            }
            (best.map(|(m, _)| m), steps)
        }
        FitAlgorithm::WorstFit => {
            let mut worst: Option<(Member, usize)> = None;
            for (slot, run) in slab.iter() {
                steps += run.count as u64;
                if run.len >= len && worst.is_none_or(|(_, w)| run.len > w) {
                    worst = Some(((slot, run.count - 1), run.len));
                }
            }
            (worst.map(|(m, _)| m), steps)
        }
        FitAlgorithm::ExactFit => {
            for (slot, run) in slab.iter() {
                if run.len == len {
                    return (Some((slot, run.count - 1)), steps + 1);
                }
                steps += run.count as u64;
            }
            (None, steps)
        }
    }
}

/// Generic fit search over the list's link order, with every charge
/// computed by rank/select query — bit-identical to [`walk_search`] (see
/// the module docs for the decomposition per fit). Ranks and counts are in
/// members; a node's rank is the position of its head-most member.
fn search(slab: &LinkedSlab, fit: FitAlgorithm, len: usize, steps: &mut u64) -> Option<Member> {
    if !slab.indexed {
        // Below the activation threshold the faithful walk *is* the
        // implementation: over a handful of members it touches fewer cache
        // lines than any replica lookup, and it is the oracle — answer
        // and charge are identical by construction.
        let (hit, walked) = walk_search(slab, fit, len);
        *steps += walked;
        return hit;
    }
    let total = slab.len as u64;
    let head_most = |slot: u32| (slot as usize, slab.top(slot as usize));
    match fit {
        FitAlgorithm::FirstFit => {
            // The walk's first step is the head member: a head that fits
            // is the hit at charge 1, with no rank query.
            if let Some(head) = slab.head_fit(len) {
                *steps += 1;
                return Some(head);
            }
            debug_assert!(slab.pos_live, "first-fit search needs the position tree");
            // A first-fit walk terminates early at a parked next-fit cursor
            // (`wrapped && cur == start` in the faithful walk), so with one
            // parked away from the head it only ever sees the members
            // before the cursor.
            let (cs, ci) = (slab.cursor, slab.cursor_idx);
            if cs == NIL || (cs, ci) == slab.head_member() {
                match slab.pos.first_at_least(len) {
                    Some((key, slot)) => {
                        *steps += slab.pos.rank(key);
                        Some(head_most(slot))
                    }
                    None => {
                        *steps += total;
                        None
                    }
                }
            } else {
                let ck = rank_key(slab.nodes[cs].seq);
                if let Some((key, slot)) = slab.pos.first_at_least_below(ck, len) {
                    *steps += slab.pos.rank(key);
                    Some(head_most(slot))
                } else if ci < slab.top(cs) && slab.nodes[cs].len >= len {
                    // The cursor's own node, met above the cursor member.
                    *steps += slab.pos.rank(ck);
                    Some((cs, slab.top(cs)))
                } else {
                    *steps += slab.pos.count_below(ck) + (slab.top(cs) - ci) as u64;
                    None
                }
            }
        }
        FitAlgorithm::NextFit => {
            debug_assert!(slab.pos_live, "next-fit search needs the position tree");
            let (cs, ci) = (slab.cursor, slab.cursor_idx);
            if cs == NIL {
                match slab.pos.first_at_least(len) {
                    Some((key, slot)) => {
                        *steps += slab.pos.rank(key);
                        Some(head_most(slot))
                    }
                    None => {
                        *steps += total;
                        None
                    }
                }
            } else {
                // Pass 1 covers the cursor member onward; the wrap pass
                // covers the nodes before the cursor's (its own members
                // above the cursor failed pass 1 already).
                let ck = rank_key(slab.nodes[cs].seq);
                let before_cursor = slab.pos.count_below(ck) + (slab.top(cs) - ci) as u64;
                if let Some((key, slot)) = slab.pos.first_at_least_from(ck, len) {
                    if slot as usize == cs {
                        *steps += 1;
                        Some((cs, ci))
                    } else {
                        *steps += slab.pos.rank(key) - before_cursor;
                        Some(head_most(slot))
                    }
                } else if let Some((key, slot)) = slab.pos.first_at_least_below(ck, len) {
                    *steps += (total - before_cursor) + slab.pos.rank(key);
                    Some(head_most(slot))
                } else {
                    *steps += total;
                    None
                }
            }
        }
        FitAlgorithm::BestFit => {
            // With an exact-size node present the faithful walk stops at
            // the first one (cannot do better than exact).
            if let Some(slot) = slab.newest_of_size(len) {
                *steps += slab.position_of(slot);
                return Some((slot, slab.top(slot)));
            }
            // No exact node: the walk visits every member, and the winner
            // is the first node of the smallest fitting size in link order
            // — the most recent insertion of that size.
            *steps += total;
            slab.newest_of_best_size(len)
                .map(|slot| (slot, slab.top(slot)))
        }
        FitAlgorithm::WorstFit => {
            // The walk always visits every member; the winner is the first
            // node of the largest size in link order.
            *steps += total;
            let max = slab.max_size().filter(|&m| m >= len)?;
            let slot = slab.newest_of_size(max).expect("live size has a node");
            Some((slot, slab.top(slot)))
        }
        FitAlgorithm::ExactFit => {
            match slab.newest_of_size(len) {
                Some(slot) => {
                    *steps += slab.position_of(slot);
                    Some((slot, slab.top(slot)))
                }
                None => {
                    // Miss: a full scan found nothing.
                    *steps += total;
                    None
                }
            }
        }
    }
}

/// Rank-computed search checked against the faithful walk in debug builds.
fn checked_search(
    slab: &LinkedSlab,
    fit: FitAlgorithm,
    len: usize,
    steps: &mut u64,
) -> Option<Member> {
    let mut charged = 0u64;
    let hit = search(slab, fit, len, &mut charged);
    #[cfg(debug_assertions)]
    {
        let (walk_hit, walk_steps) = walk_search(slab, fit, len);
        debug_assert_eq!(
            (hit, charged),
            (walk_hit, walk_steps),
            "rank-computed {fit:?} search for {len} diverged from the faithful walk"
        );
    }
    *steps += charged;
    hit
}

/// A singly linked list unlinks member `j` of a `k`-member run whose
/// head-most member sits at link position `p` by walking to position
/// `p + k - 1 - j`. Taking members `a..b` one by one costs the sum: in
/// ascending address order each unlink leaves the positions above it in
/// place; in descending order every unlink happens at the range's top.
fn sll_unlink_cost(p: u64, k: usize, members: &Range<usize>, order: Unlink) -> u64 {
    let (a, b) = (members.start as u64, members.end as u64);
    let (k, m) = (k as u64, b - a);
    match order {
        Unlink::Ascending => m * (p + k - 1) - (a + b - 1) * m / 2,
        Unlink::Descending => m * (p + k - b),
    }
}

/// The fit search both linked variants share: build whatever lazily
/// maintained structure `fit` reads, search, and rove the NextFit cursor
/// past the hit.
fn linked_find(
    slab: &mut LinkedSlab,
    fit: FitAlgorithm,
    len: usize,
    steps: &mut u64,
) -> Option<Found> {
    // The search paths are `&slab`: build whatever lazily maintained
    // structure this fit reads before descending. Exact fit reads the size
    // buckets and best fit the ordered live-size set too; first fit past
    // the head and next fit decompose their charges through the position
    // tree, and worst fit reads both.
    match fit {
        FitAlgorithm::ExactFit => slab.ensure_sizes(),
        FitAlgorithm::BestFit => slab.ensure_ordered_sizes(),
        FitAlgorithm::FirstFit => {
            if slab.head_fit(len).is_none() {
                slab.ensure_pos();
            }
        }
        FitAlgorithm::NextFit => slab.ensure_pos(),
        FitAlgorithm::WorstFit => {
            slab.ensure_pos();
            slab.ensure_sizes();
        }
    }
    let hit = checked_search(slab, fit, len, steps)?;
    if fit == FitAlgorithm::NextFit {
        (slab.cursor, slab.cursor_idx) = slab.link_next(hit);
    }
    Some(slab.found(hit))
}

/// Whether `token` names a live node holding exactly `run`.
fn live_run(slab: &LinkedSlab, token: usize, run: Run) -> Option<BlockRef> {
    slab.nodes
        .get(token)
        .filter(|n| n.present() && n.run() == run)
        .map(|n| n.block)
}

/// A LIFO singly linked free list.
#[derive(Debug, Clone, Default)]
pub struct SllIndex {
    slab: LinkedSlab,
}

impl SllIndex {
    /// An empty singly linked index.
    pub fn new() -> Self {
        SllIndex {
            slab: LinkedSlab::new(),
        }
    }
}

impl FreeIndex for SllIndex {
    fn insert_run(&mut self, run: Run, block: BlockRef, steps: &mut u64) -> usize {
        *steps += run.count as u64; // one head insert per member
        self.slab.push_front(run, block)
    }

    fn remove_members(
        &mut self,
        token: usize,
        run: Run,
        members: Range<usize>,
        order: Unlink,
        upper: Option<BlockRef>,
        steps: &mut u64,
    ) -> Option<(BlockRef, usize)> {
        // Stale token: entry already removed or slot reused.
        let block = live_run(&self.slab, token, run)?;
        // A singly linked list must walk to the predecessor to unlink;
        // the charge is the member's position: 1 at the head, computed by
        // rank query past it.
        if token != self.slab.head {
            self.slab.ensure_pos();
        }
        let p = self.slab.position_of(token);
        *steps += sll_unlink_cost(p, run.count, &members, order);
        Some((block, self.slab.take_members(token, members, upper)))
    }

    fn find(&mut self, fit: FitAlgorithm, len: usize, steps: &mut u64) -> Option<Found> {
        linked_find(&mut self.slab, fit, len, steps)
    }

    fn len(&self) -> usize {
        self.slab.len
    }

    fn spans(&self) -> Vec<Span> {
        self.slab
            .iter()
            .flat_map(|(_, run)| run.members())
            .collect()
    }

    fn clear(&mut self) {
        self.slab.clear();
    }

    fn control_overhead_bytes(&self) -> usize {
        POINTER_BYTES // the head pointer
    }

    fn check_oracle(&self) -> Result<(), String> {
        self.slab.check_replica()
    }
}

/// A doubly linked free list with O(1) unlink.
#[derive(Debug, Clone, Default)]
pub struct DllIndex {
    slab: LinkedSlab,
}

impl DllIndex {
    /// An empty doubly linked index.
    pub fn new() -> Self {
        DllIndex {
            slab: LinkedSlab::new(),
        }
    }
}

impl FreeIndex for DllIndex {
    fn insert_run(&mut self, run: Run, block: BlockRef, steps: &mut u64) -> usize {
        *steps += run.count as u64;
        self.slab.push_front(run, block)
    }

    fn remove_members(
        &mut self,
        token: usize,
        run: Run,
        members: Range<usize>,
        _order: Unlink,
        upper: Option<BlockRef>,
        steps: &mut u64,
    ) -> Option<(BlockRef, usize)> {
        // Stale token: entry already removed or slot reused.
        let block = live_run(&self.slab, token, run)?;
        *steps += members.len() as u64; // O(1) unlinks thanks to the back pointer
        Some((block, self.slab.take_members(token, members, upper)))
    }

    fn find(&mut self, fit: FitAlgorithm, len: usize, steps: &mut u64) -> Option<Found> {
        linked_find(&mut self.slab, fit, len, steps)
    }

    fn len(&self) -> usize {
        self.slab.len
    }

    fn spans(&self) -> Vec<Span> {
        self.slab
            .iter()
            .flat_map(|(_, run)| run.members())
            .collect()
    }

    fn clear(&mut self) {
        self.slab.clear();
    }

    fn control_overhead_bytes(&self) -> usize {
        2 * POINTER_BYTES // head + tail pointers
    }

    fn check_oracle(&self) -> Result<(), String> {
        self.slab.check_replica()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bref(offset: usize) -> BlockRef {
        BlockRef::from_index((offset / 8) as u32)
    }

    /// A flat list of members, head first: the reference walk the indexed
    /// searches must match, answer and charge.
    #[derive(Clone)]
    struct RefList(Vec<Span>);

    impl RefList {
        fn search(&self, fit: FitAlgorithm, len: usize) -> (Option<Span>, u64) {
            let mut steps = 0u64;
            match fit {
                FitAlgorithm::FirstFit => {
                    for s in &self.0 {
                        steps += 1;
                        if s.len >= len {
                            return (Some(*s), steps);
                        }
                    }
                    (None, steps)
                }
                FitAlgorithm::BestFit => {
                    let mut best: Option<Span> = None;
                    for s in &self.0 {
                        steps += 1;
                        if s.len >= len && best.is_none_or(|b| s.len < b.len) {
                            best = Some(*s);
                            if s.len == len {
                                break;
                            }
                        }
                    }
                    (best, steps)
                }
                FitAlgorithm::WorstFit => {
                    let mut worst: Option<Span> = None;
                    for s in &self.0 {
                        steps += 1;
                        if s.len >= len && worst.is_none_or(|w| s.len > w.len) {
                            worst = Some(*s);
                        }
                    }
                    (worst, steps)
                }
                FitAlgorithm::ExactFit => {
                    for s in &self.0 {
                        steps += 1;
                        if s.len == len {
                            return (Some(*s), steps);
                        }
                    }
                    (None, steps)
                }
                FitAlgorithm::NextFit => unreachable!("cursor handled separately"),
            }
        }
    }

    /// Which replica structures a list keeps: `(indexed, position tree,
    /// size buckets)`.
    fn replica(slab: &LinkedSlab) -> (bool, bool, bool) {
        (slab.indexed, slab.pos_live, slab.sizes_live)
    }

    /// Find with `fit`, then unlink the one member found: `(hit, find
    /// charge, unlink charge)`.
    fn take(idx: &mut dyn FreeIndex, fit: FitAlgorithm, len: usize) -> (Option<Span>, u64, u64) {
        let mut find = 0u64;
        let Some(f) = idx.find(fit, len, &mut find) else {
            return (None, find, 0);
        };
        let m = f.member();
        let upper = (m + 1 < f.run.count).then(|| bref(f.run.member(m + 1).offset));
        let mut unlink = 0u64;
        idx.remove_members(
            f.token,
            f.run,
            m..m + 1,
            Unlink::Ascending,
            upper,
            &mut unlink,
        )
        .expect("a found member is live");
        (Some(f.span), find, unlink)
    }

    /// On uniform-size lists past the activation threshold the head serves
    /// every first-fit request: the hit charges 1, a singly linked unlink
    /// of the head node is at position 1, and neither builds the position
    /// tree or the size buckets. A request the head cannot serve builds the
    /// tree, the first exact-fit search builds the buckets, and from then
    /// on every answer and charge is the flat reference walk's.
    #[test]
    fn head_hits_build_no_replica() {
        let mut sll = SllIndex::new();
        let mut dll = DllIndex::new();
        let mut reference = RefList(Vec::new());
        let mut tokens = std::collections::HashMap::new();
        let mut s = 0u64;
        for i in 0..2 * LinkedSlab::ACTIVATE {
            let span = Span::new(i * 64, 32);
            let t = sll.insert(span, bref(span.offset), &mut s);
            let t_dll = dll.insert(span, bref(span.offset), &mut s);
            tokens.insert(span.offset, (t, t_dll));
            reference.0.insert(0, span);
        }
        // A run of four at the head: its members leave from the top.
        let run = Run::new(1 << 20, 32, 4);
        sll.insert_run(run, bref(run.offset), &mut s);
        dll.insert_run(run, bref(run.offset), &mut s);
        for m in run.members() {
            reference.0.insert(0, m);
        }
        for _ in 0..6 {
            let want = reference.0.remove(0);
            for idx in [&mut sll as &mut dyn FreeIndex, &mut dll] {
                assert_eq!(take(idx, FitAlgorithm::FirstFit, 32), (Some(want), 1, 1));
            }
        }
        // The singly linked charge is the unlink cost at position 1.
        assert_eq!(sll_unlink_cost(1, 4, &(3..4), Unlink::Ascending), 1);
        assert_eq!(replica(&sll.slab), (true, false, false));
        assert_eq!(replica(&dll.slab), (true, false, false));

        // A head too small for the request: the walk goes past it, so the
        // position tree is built.
        let small = Span::new(1 << 24, 16);
        let t = sll.insert(small, bref(small.offset), &mut s);
        let t_dll = dll.insert(small, bref(small.offset), &mut s);
        tokens.insert(small.offset, (t, t_dll));
        reference.0.insert(0, small);
        let (want, want_steps) = reference.search(FitAlgorithm::FirstFit, 32);
        assert_eq!(want_steps, 2);
        for idx in [&mut sll as &mut dyn FreeIndex, &mut dll] {
            let mut got_steps = 0u64;
            let got = idx.find(FitAlgorithm::FirstFit, 32, &mut got_steps);
            assert_eq!((got.map(|f| f.span), got_steps), (want, want_steps));
        }
        assert_eq!(replica(&sll.slab), (true, true, false));
        assert_eq!(replica(&dll.slab), (true, true, false));

        // The first exact-fit search builds the size buckets.
        let (want, want_steps) = reference.search(FitAlgorithm::ExactFit, 32);
        for idx in [&mut sll as &mut dyn FreeIndex, &mut dll] {
            let mut got_steps = 0u64;
            let got = idx.find(FitAlgorithm::ExactFit, 32, &mut got_steps);
            assert_eq!((got.map(|f| f.span), got_steps), (want, want_steps));
        }
        assert_eq!(replica(&sll.slab), (true, true, true));
        assert_eq!(replica(&dll.slab), (true, true, true));

        // From here on both structures are maintained: unlinks past the
        // head charge their position, and every fit matches the walk.
        for i in [3, 17, 5, 40, 0] {
            let span = reference.0.remove(i);
            let (t, t_dll) = tokens[&span.offset];
            let mut unlink = 0u64;
            sll.remove(t, span, &mut unlink).unwrap();
            assert_eq!(unlink, i as u64 + 1, "SLL unlink charge diverged");
            dll.remove(t_dll, span, &mut s).unwrap();
            for fit in [
                FitAlgorithm::FirstFit,
                FitAlgorithm::BestFit,
                FitAlgorithm::WorstFit,
                FitAlgorithm::ExactFit,
            ] {
                for len in [8, 16, 24, 32, 48] {
                    let (want, want_steps) = reference.search(fit, len);
                    for idx in [&mut sll as &mut dyn FreeIndex, &mut dll] {
                        let mut got_steps = 0u64;
                        let got = idx.find(fit, len, &mut got_steps);
                        assert_eq!(
                            (got.map(|f| f.span), got_steps),
                            (want, want_steps),
                            "{fit:?}/{len}"
                        );
                    }
                }
            }
        }
        sll.check_oracle().unwrap();
        dll.check_oracle().unwrap();
    }

    #[test]
    fn sll_remove_charges_walk_dll_does_not() {
        let mut sll = SllIndex::new();
        let mut dll = DllIndex::new();
        let mut s = 0u64;
        let mut sll_t0 = 0;
        let mut dll_t0 = 0;
        for i in 0..10 {
            let t = sll.insert(Span::new(i * 32, 32), bref(i * 32), &mut s);
            if i == 0 {
                sll_t0 = t;
            }
            let t = dll.insert(Span::new(i * 32, 32), bref(i * 32), &mut s);
            if i == 0 {
                dll_t0 = t;
            }
        }
        // Offset 0 was inserted first => it is at the tail (distance 10).
        let mut sll_steps = 0u64;
        sll.remove(sll_t0, Span::new(0, 32), &mut sll_steps)
            .unwrap();
        let mut dll_steps = 0u64;
        dll.remove(dll_t0, Span::new(0, 32), &mut dll_steps)
            .unwrap();
        assert!(sll_steps >= 10, "SLL unlink must walk: {sll_steps}");
        assert_eq!(dll_steps, 1, "DLL unlink is O(1)");
    }

    #[test]
    fn lifo_order_drives_first_fit() {
        let mut idx = DllIndex::new();
        let mut s = 0u64;
        idx.insert(Span::new(0, 64), bref(0), &mut s);
        idx.insert(Span::new(64, 128), bref(64), &mut s); // most recent => head
        let found = idx.find(FitAlgorithm::FirstFit, 32, &mut s).unwrap();
        assert_eq!(
            found.span.offset, 64,
            "first fit sees the most recent insert"
        );
    }

    #[test]
    fn next_fit_roves() {
        let mut idx = DllIndex::new();
        let mut s = 0u64;
        for i in 0..4 {
            idx.insert(Span::new(i * 64, 64), bref(i * 64), &mut s);
        }
        // Head order is offsets 192,128,64,0.
        let a = idx.find(FitAlgorithm::NextFit, 64, &mut s).unwrap();
        let b = idx.find(FitAlgorithm::NextFit, 64, &mut s).unwrap();
        assert_ne!(
            a.span.offset, b.span.offset,
            "next fit advances past its last hit"
        );
    }

    #[test]
    fn next_fit_wraps_around() {
        let mut idx = SllIndex::new();
        let mut s = 0u64;
        idx.insert(Span::new(0, 32), bref(0), &mut s);
        idx.insert(Span::new(32, 256), bref(32), &mut s);
        // First call lands on the 256 block (head), cursor moves past it.
        assert_eq!(
            idx.find(FitAlgorithm::NextFit, 100, &mut s)
                .unwrap()
                .span
                .offset,
            32
        );
        // Only the 256 block fits 100; next fit must wrap to find it again.
        assert_eq!(
            idx.find(FitAlgorithm::NextFit, 100, &mut s)
                .unwrap()
                .span
                .offset,
            32
        );
    }

    #[test]
    fn next_fit_cursor_survives_remove_then_reinsert() {
        // Remove a node (freeing its slot), then reinsert a different span
        // so push_front reuses that slot. The roving cursor must keep
        // pointing at live nodes: every subsequent NextFit hit is a
        // currently indexed span, and repeated searches cycle over all of
        // them rather than chasing the recycled slot.
        for mk in [
            || Box::new(SllIndex::new()) as Box<dyn FreeIndex>,
            || Box::new(DllIndex::new()) as Box<dyn FreeIndex>,
        ] {
            let mut idx = mk();
            let mut s = 0u64;
            let mut tokens = std::collections::HashMap::new();
            for i in 0..4 {
                let t = idx.insert(Span::new(i * 64, 64), bref(i * 64), &mut s);
                tokens.insert(i * 64, t);
            }
            // Park the cursor mid-list.
            let hit = idx.find(FitAlgorithm::NextFit, 64, &mut s).unwrap();
            // Unlink a *different* node than the cursor's, then reuse its
            // slot for a fresh span.
            let victim = (hit.span.offset + 128) % 256;
            idx.remove(tokens[&victim], Span::new(victim, 64), &mut s)
                .unwrap();
            idx.insert(Span::new(1024, 64), bref(1024), &mut s);
            let mut seen = std::collections::HashSet::new();
            for _ in 0..16 {
                let f = idx.find(FitAlgorithm::NextFit, 64, &mut s).unwrap();
                assert!(
                    idx.spans().contains(&f.span),
                    "cursor produced a phantom span {:?}",
                    f.span
                );
                seen.insert(f.span.offset);
            }
            assert_eq!(
                seen.len(),
                idx.len(),
                "roving search must still visit every live span"
            );
        }
    }

    #[test]
    fn cursor_survives_removal_of_cursor_block() {
        let mut idx = DllIndex::new();
        let mut s = 0u64;
        for i in 0..3 {
            idx.insert(Span::new(i * 64, 64), bref(i * 64), &mut s);
        }
        let hit = idx.find(FitAlgorithm::NextFit, 64, &mut s).unwrap();
        idx.remove(hit.token, hit.span, &mut s).unwrap();
        // Cursor pointed into the removed node's neighbourhood; the next
        // search must still terminate and find something.
        assert!(idx.find(FitAlgorithm::NextFit, 64, &mut s).is_some());
    }

    /// The rank-computed fast paths must charge and answer exactly what
    /// the faithful walk would: cross-check every fit — and the SLL unlink
    /// charge — against an independent flat reference on a churned list.
    #[test]
    fn computed_search_matches_reference_walk() {
        // The DLL carries the fit probes; a mirrored SLL cross-checks the
        // position-charged unlinks against the reference index.
        let mut idx = DllIndex::new();
        let mut sll = SllIndex::new();
        let mut reference = RefList(Vec::new());
        let mut tokens: std::collections::HashMap<usize, (usize, usize)> =
            std::collections::HashMap::new();
        let mut s = 0u64;
        let mut x: u64 = 0x1234_5678_9ABC_DEF1;
        let mut next_off = 0usize;
        for _ in 0..600 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            if reference.0.len() < 3 || !x.is_multiple_of(3) {
                let span = Span::new(next_off, 16 + (x % 9) as usize * 8);
                next_off += 4096;
                let t = idx.insert(span, bref(span.offset), &mut s);
                let t_sll = sll.insert(span, bref(span.offset), &mut s);
                tokens.insert(span.offset, (t, t_sll));
                reference.0.insert(0, span);
            } else {
                let i = (x as usize / 5) % reference.0.len();
                let span = reference.0.remove(i);
                let (t, t_sll) = tokens.remove(&span.offset).unwrap();
                idx.remove(t, span, &mut s).unwrap();
                // The SLL unlink charge is the node's 1-based position in
                // link order — which is its index in the flat reference.
                let mut unlink = 0u64;
                sll.remove(t_sll, span, &mut unlink).unwrap();
                assert_eq!(unlink, i as u64 + 1, "SLL unlink charge diverged");
            }
            // Probe every non-roving fit at several sizes, comparing both
            // the answer and the charge to the reference walk. (NextFit is
            // covered by the in-find walk oracle via the roving tests.)
            for fit in [
                FitAlgorithm::FirstFit,
                FitAlgorithm::BestFit,
                FitAlgorithm::WorstFit,
                FitAlgorithm::ExactFit,
            ] {
                for len in [16, 40, 48, 64, 88, 512] {
                    let (want, want_steps) = reference.search(fit, len);
                    let mut got_steps = 0u64;
                    let got = idx.find(fit, len, &mut got_steps);
                    assert_eq!(got.map(|f| f.span), want, "{fit:?}/{len}");
                    assert_eq!(got_steps, want_steps, "{fit:?}/{len} charge diverged");
                }
            }
            idx.check_oracle().unwrap();
            sll.check_oracle().unwrap();
        }
    }

    #[test]
    fn first_fit_miss_with_a_parked_cursor_charges_the_faithful_early_stop() {
        // The faithful first-fit walk terminates at a parked next-fit
        // cursor, so its miss charge is the distance to the cursor, not a
        // full scan — the fast path must not fire in that state. (This is
        // the PR 4 behaviour for mixed NextFit-then-FirstFit searches on
        // one slab, e.g. the segregated larger-class fallback.)
        let mut idx = DllIndex::new();
        let mut s = 0u64;
        for i in 0..4 {
            idx.insert(Span::new(i * 64, 64), bref(i * 64), &mut s);
        }
        // Park the cursor one past the head (head order: 192,128,64,0).
        let hit = idx.find(FitAlgorithm::NextFit, 64, &mut s).unwrap();
        assert_eq!(hit.span.offset, 192, "next fit starts at the head");
        // Nothing fits 4096: the faithful walk charges head→cursor only.
        let mut miss = 0u64;
        assert!(idx.find(FitAlgorithm::FirstFit, 4096, &mut miss).is_none());
        assert_eq!(miss, 1, "first-fit miss must stop at the parked cursor");
        // A next-fit miss still visits every node exactly once.
        let mut nf_miss = 0u64;
        assert!(idx
            .find(FitAlgorithm::NextFit, 4096, &mut nf_miss)
            .is_none());
        assert_eq!(nf_miss, 4, "next-fit miss is one full cycle");
    }

    #[test]
    fn exact_fit_rank_matches_the_walk_distance() {
        let mut idx = DllIndex::new();
        let mut s = 0u64;
        for i in 0..8 {
            idx.insert(Span::new(i * 64, 16 + (i % 4) * 16), bref(i * 64), &mut s);
        }
        let mut first = 0u64;
        let a = idx.find(FitAlgorithm::ExactFit, 48, &mut first).unwrap();
        let mut second = 0u64;
        let b = idx.find(FitAlgorithm::ExactFit, 48, &mut second).unwrap();
        assert_eq!(a, b, "repeated search must return the same node");
        assert_eq!(first, second, "computed charge must be stable");
        assert_eq!(first, 2, "newest 48-byte node sits one past the head");
        // A fresh exact insert becomes the new first hit, one step away.
        idx.insert(Span::new(4096, 48), bref(4096), &mut s);
        let mut third = 0u64;
        let c = idx.find(FitAlgorithm::ExactFit, 48, &mut third).unwrap();
        assert_eq!(c.span.offset, 4096, "fresh insert is the new first hit");
        assert_eq!(third, 1, "new head is one step away");
    }

    /// Grow past the activation threshold so the rank replica builds, then
    /// churn it hard enough to force stamp-space renumbering. Every find in
    /// a debug build cross-checks answer AND charge against the faithful
    /// walk, so this drives the full indexed lifecycle through the oracle:
    /// activation restamp, per-op maintenance, renumber, and the replica
    /// structural check.
    #[test]
    fn rank_replica_lifecycle_tracks_the_walk() {
        let mut dll = DllIndex::new();
        let mut sll = SllIndex::new();
        let mut s = 0u64;
        let size = |i: usize| 16 + (i % 7) * 16;
        let mut tokens = Vec::new();
        for i in 0..100 {
            let span = Span::new(i * 256, size(i));
            tokens.push((dll.insert(span, bref(i * 256), &mut s), span));
            sll.insert(span, bref(i * 256), &mut s);
        }
        assert!(dll.slab.indexed, "100 nodes must activate the replica");
        for fit in [
            FitAlgorithm::FirstFit,
            FitAlgorithm::NextFit,
            FitAlgorithm::BestFit,
            FitAlgorithm::WorstFit,
            FitAlgorithm::ExactFit,
        ] {
            for want in [16, 48, 112, 200] {
                dll.find(fit, want, &mut s);
                sll.find(fit, want, &mut s);
            }
        }
        // Unlink every other node (SLL removes charge their position by
        // rank — position_of debug-asserts against the walk distance).
        for (t, span) in tokens.iter().step_by(2) {
            assert!(dll.remove(*t, *span, &mut s).is_some());
            let mut walk = 0u64;
            if let Some(f) = sll.find(FitAlgorithm::ExactFit, span.len, &mut walk) {
                sll.remove(f.token, f.span, &mut s);
            }
        }
        // Churn until the stamp space fills at a mostly-dead leaf range,
        // forcing at least one renumber (activation capacity is 256 leaves
        // for ~200 stamps; each push-and-remove pair burns a fresh stamp).
        for i in 0..2000 {
            let span = Span::new(1 << 20 | (i * 256), size(i));
            let t = dll.insert(span, bref(1 << 20 | (i * 256)), &mut s);
            let f = dll.find(FitAlgorithm::ExactFit, span.len, &mut s).unwrap();
            assert_eq!(f.token, t, "fresh exact push is the newest of its size");
            dll.remove(t, span, &mut s).unwrap();
        }
        dll.check_oracle().expect("replica survives churn");
        sll.check_oracle().expect("sll replica survives removals");
    }
}
