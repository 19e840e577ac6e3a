//! Order-statistic rank/select support for the free indexes.
//!
//! Both structures here answer, in sub-linear time, the questions the
//! faithful free-list walks answer in O(n):
//!
//! - `rank` (`AddrList::locate`, which also returns the entry) — the
//!   1-based position of a key in walk order, which *is* the walk distance
//!   to that node;
//! - `count_below` — how many keys precede a bound (the charge of a walk
//!   that terminates early at that bound);
//!
//! Entries may stand for runs of equal free blocks (see
//! [`Run`](crate::heap::block::Run)): positions and counts are then in
//! *members*, the blocks the faithful walks visit, and a run's rank is the
//! position of the member a walk meets first.
//! - `first_at_least` / `first_at_least_from` (and, on [`SeqTree`],
//!   `first_at_least_below`) — the first position in (a range of) walk
//!   order whose length satisfies a fit, i.e. the node a first/next-fit
//!   walk would stop at.
//!
//! `AddrList` is the address-ordered list itself: a chunked,
//! address-sorted array that is both the modelled list (walked linearly by
//! the debug shadow oracle in `ordered.rs`) and its own rank/select
//! structure. [`SeqTree`] is a *replica* of the linked slab's link order:
//! every key is inserted exactly when its node becomes reachable by the
//! faithful walk and removed exactly when it stops being reachable, with
//! the walked node's span length as its weight.
//!
//! Under that discipline every rank/select answer is bit-identical to the
//! faithful walk's charge — the owners assert exactly that, per query, in
//! debug builds (see the shadow-oracle notes in `linked.rs` and
//! `ordered.rs`), and
//! [`FreeIndex::check_oracle`](crate::heap::index::FreeIndex::check_oracle)
//! re-validates the structures per replay event in debug builds. Like the
//! memo tables of earlier revisions, the rank bookkeeping is simulator-side
//! acceleration: it is *not* part of the modelled manager, so it
//! contributes nothing to `control_overhead_bytes`.

use crate::heap::block::Run;
use crate::heap::tiling::BlockRef;

/// One run of free blocks of the address-ordered list.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct AddrEntry {
    /// Offset of the lowest member — the sort key.
    pub(crate) offset: usize,
    /// Length of each member — the fit weight.
    pub(crate) len: usize,
    /// Members of the run.
    pub(crate) count: u32,
    /// The tiling node the entry indexes.
    pub(crate) block: BlockRef,
}

impl AddrEntry {
    /// The members the entry stands for.
    pub(crate) fn run(&self) -> Run {
        Run::new(self.offset, self.len, self.count as usize)
    }

    /// Members whose offset is below `offset`.
    fn members_below(&self, offset: usize) -> u64 {
        if offset <= self.offset {
            0
        } else if self.count == 1 {
            1
        } else {
            (offset - self.offset)
                .div_ceil(self.len)
                .min(self.count as usize) as u64
        }
    }
}

/// Members of the entries in `entries`.
fn members_of(entries: &[AddrEntry]) -> u64 {
    entries.iter().map(|e| u64::from(e.count)).sum()
}

/// Most entries a chunk holds; one more splits it in half.
pub(super) const CHUNK_MAX: usize = 64;

/// The address-ordered free list as a chunked, address-sorted array.
///
/// Entries live in address-sorted chunks of at most [`CHUNK_MAX`] entries
/// (every offset in chunk `c` is below every offset in chunk `c + 1`; no
/// chunk is empty). Three flat per-chunk arrays sit beside them: each
/// chunk's first offset (a binary search locates a key's chunk), its
/// member count (prefix sums give ranks) and its largest member length
/// (selects skip chunks that cannot fit). Inserts and removes move at most
/// one chunk's entries; a rank is one prefix sum over the counts plus one
/// in-chunk binary search and sum.
#[derive(Debug, Clone, Default)]
pub(crate) struct AddrList {
    chunks: Vec<Vec<AddrEntry>>,
    /// `firsts[c] == chunks[c][0].offset`.
    firsts: Vec<usize>,
    /// `counts[c]` is the number of members in `chunks[c]`.
    counts: Vec<u32>,
    /// `maxes[c]` is the largest `len` in `chunks[c]`.
    maxes: Vec<usize>,
    /// Members of every entry.
    len: usize,
}

impl AddrList {
    /// Number of members.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Remove every entry.
    pub(crate) fn clear(&mut self) {
        self.chunks.clear();
        self.firsts.clear();
        self.counts.clear();
        self.maxes.clear();
        self.len = 0;
    }

    /// Every entry in address order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &AddrEntry> {
        self.chunks.iter().flatten()
    }

    /// Every member in address order, with its entry — the faithful walk.
    pub(crate) fn members(&self) -> impl Iterator<Item = (usize, &AddrEntry)> {
        self.iter()
            .flat_map(|e| (0..e.count as usize).map(move |i| (e.offset + i * e.len, e)))
    }

    /// The chunk that holds (or would hold) `offset`: the last chunk whose
    /// first offset is `<= offset`, or chunk 0 below every chunk. Only
    /// meaningful on a non-empty list.
    fn chunk_of(&self, offset: usize) -> usize {
        self.firsts
            .partition_point(|&f| f <= offset)
            .saturating_sub(1)
    }

    /// Members of the first `i` entries of chunk `c` — `i` itself when the
    /// chunk holds no run of more than one block.
    fn members_before(&self, c: usize, i: usize) -> u64 {
        let chunk = &self.chunks[c];
        if self.counts[c] as usize == chunk.len() {
            i as u64
        } else {
            members_of(&chunk[..i])
        }
    }

    /// Members in the chunks before chunk `c`.
    fn count_before(&self, c: usize) -> u64 {
        self.counts[..c].iter().map(|&n| u64::from(n)).sum()
    }

    /// Insert an entry whose members must not overlap any present entry.
    pub(crate) fn insert(&mut self, entry: AddrEntry) {
        self.len += entry.count as usize;
        if self.chunks.is_empty() {
            self.chunks.push(vec![entry]);
            self.firsts.push(entry.offset);
            self.counts.push(entry.count);
            self.maxes.push(entry.len);
            return;
        }
        let c = self.chunk_of(entry.offset);
        let chunk = &mut self.chunks[c];
        let i = chunk.partition_point(|e| e.offset < entry.offset);
        debug_assert!(
            chunk.get(i).is_none_or(|e| e.offset != entry.offset),
            "duplicate offset {}",
            entry.offset
        );
        chunk.insert(i, entry);
        if i == 0 {
            self.firsts[c] = entry.offset;
        }
        self.counts[c] += entry.count;
        self.maxes[c] = self.maxes[c].max(entry.len);
        if chunk.len() > CHUNK_MAX {
            self.split(c);
        }
    }

    /// Split chunk `c` in half, the upper half becoming chunk `c + 1`.
    fn split(&mut self, c: usize) {
        let mid = self.chunks[c].len() / 2;
        let mut upper = Vec::with_capacity(CHUNK_MAX + 1);
        upper.extend(self.chunks[c].drain(mid..));
        let max_of = |v: &[AddrEntry]| v.iter().map(|e| e.len).max().unwrap_or(0);
        let upper_count = members_of(&upper) as u32;
        self.counts[c] -= upper_count;
        self.maxes[c] = max_of(&self.chunks[c]);
        self.firsts.insert(c + 1, upper[0].offset);
        self.counts.insert(c + 1, upper_count);
        self.maxes.insert(c + 1, max_of(&upper));
        self.chunks.insert(c + 1, upper);
    }

    /// Take members `members` out of the entry at `offset`, returning the
    /// entry as it was, or `None` if no entry starts there. Members below
    /// the range keep the entry; members above it stay as an entry backed
    /// by `upper`.
    pub(crate) fn take(
        &mut self,
        offset: usize,
        members: std::ops::Range<usize>,
        upper: Option<BlockRef>,
    ) -> Option<AddrEntry> {
        if self.chunks.is_empty() {
            return None;
        }
        let c = self.chunk_of(offset);
        let i = self.chunks[c]
            .binary_search_by_key(&offset, |e| e.offset)
            .ok()?;
        let entry = self.chunks[c][i];
        let k = entry.count as usize;
        debug_assert!(members.start < members.end && members.end <= k);
        let taken = members.end - members.start;
        self.len -= taken;
        self.counts[c] -= taken as u32;
        let rest = upper.filter(|_| members.end < k).map(|block| AddrEntry {
            offset: entry.offset + members.end * entry.len,
            count: (k - members.end) as u32,
            block,
            ..entry
        });
        let chunk = &mut self.chunks[c];
        match (members.start, rest) {
            (0, None) => {
                chunk.remove(i);
                if chunk.is_empty() {
                    self.chunks.remove(c);
                    self.firsts.remove(c);
                    self.counts.remove(c);
                    self.maxes.remove(c);
                    return Some(entry);
                }
                if entry.len == self.maxes[c] {
                    self.maxes[c] = chunk.iter().map(|e| e.len).max().unwrap_or(0);
                }
            }
            (0, Some(rest)) => chunk[i] = rest,
            (lower, rest) => {
                chunk[i].count = lower as u32;
                if let Some(rest) = rest {
                    chunk.insert(i + 1, rest);
                    if chunk.len() > CHUNK_MAX {
                        self.split(c);
                    }
                }
            }
        }
        self.firsts[c] = self.chunks[c][0].offset;
        Some(entry)
    }

    /// The entry at `offset`, if present.
    pub(crate) fn get(&self, offset: usize) -> Option<AddrEntry> {
        self.locate(offset).map(|(entry, _)| entry)
    }

    /// The entry at `offset` with the 1-based position of its lowest
    /// member in address order — the faithful walk's distance to it — if
    /// present.
    pub(crate) fn locate(&self, offset: usize) -> Option<(AddrEntry, u64)> {
        if self.chunks.is_empty() {
            return None;
        }
        let c = self.chunk_of(offset);
        let chunk = &self.chunks[c];
        let i = chunk.binary_search_by_key(&offset, |e| e.offset).ok()?;
        Some((
            chunk[i],
            self.count_before(c) + self.members_before(c, i) + 1,
        ))
    }

    /// Number of members strictly below `offset` (which need not be
    /// present) — the charge of a walk that stops just before that bound.
    pub(crate) fn count_below(&self, offset: usize) -> u64 {
        if self.chunks.is_empty() {
            return 0;
        }
        let c = self.chunk_of(offset);
        let chunk = &self.chunks[c];
        // Entries never overlap, so only the last entry starting below
        // `offset` can straddle it.
        let i = chunk.partition_point(|e| e.offset < offset);
        let straddling = i
            .checked_sub(1)
            .map_or(0, |j| chunk[j].members_below(offset));
        self.count_before(c) + self.members_before(c, i.saturating_sub(1)) + straddling
    }

    /// First entry (ascending address) with `len >= min_len`, with the
    /// rank of its lowest member — the node a first-fit walk stops at.
    pub(crate) fn first_at_least(&self, min_len: usize) -> Option<(AddrEntry, u64)> {
        self.first_fit_from_chunk(0, 0, min_len)
    }

    /// The lowest-addressed entry of the largest length — where a
    /// worst-fit scan's winner ends up.
    pub(crate) fn first_largest(&self) -> Option<AddrEntry> {
        let largest = self.maxes.iter().copied().max()?;
        self.first_at_least(largest).map(|(entry, _)| entry)
    }

    /// First entry at or after chunk `c` with `len >= min_len`, where
    /// `before` members precede chunk `c`.
    fn first_fit_from_chunk(
        &self,
        mut c: usize,
        mut before: u64,
        min_len: usize,
    ) -> Option<(AddrEntry, u64)> {
        while c < self.chunks.len() {
            if self.maxes[c] >= min_len {
                let chunk = &self.chunks[c];
                let i = chunk
                    .iter()
                    .position(|e| e.len >= min_len)
                    .expect("chunk maximum promised a fit");
                return Some((chunk[i], before + self.members_before(c, i) + 1));
            }
            before += u64::from(self.counts[c]);
            c += 1;
        }
        None
    }

    /// First member at offset `>= lo` with `len >= min_len`, as its entry,
    /// its index in the entry and its rank — where a roving walk starting
    /// at `lo`'s position stops before wrapping. The member can lie inside
    /// a run that starts below `lo`.
    pub(crate) fn first_at_least_from(
        &self,
        lo: usize,
        min_len: usize,
    ) -> Option<(AddrEntry, usize, u64)> {
        if self.chunks.is_empty() {
            return None;
        }
        let c = self.chunk_of(lo);
        let before = self.count_before(c);
        if self.maxes[c] >= min_len {
            let chunk = &self.chunks[c];
            let start = chunk.partition_point(|e| e.offset < lo);
            if let Some(e) = start.checked_sub(1).map(|j| &chunk[j]) {
                let j = e.members_below(lo);
                if j < u64::from(e.count) && e.len >= min_len {
                    let rank = before + self.members_before(c, start - 1) + j + 1;
                    return Some((*e, j as usize, rank));
                }
            }
            if let Some(j) = chunk[start..].iter().position(|e| e.len >= min_len) {
                let i = start + j;
                return Some((chunk[i], 0, before + self.members_before(c, i) + 1));
            }
        }
        self.first_fit_from_chunk(c + 1, before + u64::from(self.counts[c]), min_len)
            .map(|(e, rank)| (e, 0, rank))
    }

    /// Validate the chunk layout: members in strictly ascending address
    /// order, no chunk empty or over
    /// [`CHUNK_MAX`], and `firsts`, `counts`, `maxes` and the total length
    /// all matching the entries.
    pub(crate) fn check(&self) -> Result<(), String> {
        let n = self.chunks.len();
        if (self.firsts.len(), self.counts.len(), self.maxes.len()) != (n, n, n) {
            return Err(format!("{n} chunks with mismatched summary arrays"));
        }
        let walked: Vec<(usize, &AddrEntry)> = self.members().collect();
        if walked.len() != self.len
            || walked.windows(2).any(|w| w[0].0 >= w[1].0)
            || self.iter().any(|e| e.count == 0)
        {
            return Err(format!(
                "{} members (length {}) not in strictly ascending address order",
                walked.len(),
                self.len
            ));
        }
        for (c, chunk) in self.chunks.iter().enumerate() {
            let summary = (self.firsts[c], self.counts[c] as usize, self.maxes[c]);
            let actual = (
                chunk.first().map_or(0, |e| e.offset),
                members_of(chunk) as usize,
                chunk.iter().map(|e| e.len).max().unwrap_or(0),
            );
            if chunk.is_empty() || chunk.len() > CHUNK_MAX || summary != actual {
                return Err(format!(
                    "chunk {c}: (first, count, max) {summary:?} vs entries {actual:?}"
                ));
            }
        }
        Ok(())
    }
}

/// Packed segment-tree node: live member count in the high 32 bits, maximum
/// leaf weight in the low 32. A leaf's count is its node's member count.
const COUNT_SHIFT: u32 = 32;
const COUNT_MASK: u64 = !(u32::MAX as u64);

#[inline(always)]
fn seg_combine(a: u64, b: u64) -> u64 {
    // Counts can never carry out of the high half (they are bounded by the
    // member count), so the halves add and max independently.
    ((a & COUNT_MASK) + (b & COUNT_MASK)) | u64::from((a as u32).max(b as u32))
}

#[inline(always)]
fn seg_count(v: u64) -> u64 {
    v >> COUNT_SHIFT
}

#[inline(always)]
fn seg_leaf(weight: usize, count: usize) -> u64 {
    debug_assert!(
        u32::try_from(weight).is_ok() && u32::try_from(count).is_ok() && count > 0,
        "leaf ({weight}, {count}) exceeds the packed range"
    );
    ((count as u64) << COUNT_SHIFT) | u64::from(weight as u32)
}

#[inline(always)]
fn seg_maxw(v: u64) -> u32 {
    v as u32
}

/// A flat order-statistic structure specialised for *monotonically
/// decreasing* keys — the linked slab's `u64::MAX - seq` push stamps.
///
/// Because each inserted key is strictly smaller than every key before it,
/// the key space maps to a dense, append-only leaf space (`leaf =
/// u64::MAX - key - 1`, i.e. the zero-based push stamp) and the whole tree
/// flattens into one contiguous array of packed `(count, max weight)`
/// nodes: updates walk a root path of adjacent sibling pairs (one cache
/// line per level) instead of chasing tree pointers, which is what makes
/// the per-event rank charges cheaper than the walks they replace.
///
/// Ascending key order == *descending* leaf order, so "first in link
/// order" selects are rightmost-leaf descents and rank/count queries are
/// suffix counts. Each leaf carries its node's member count, so ranks and
/// counts are in members: a key's rank is the position of its node's
/// first member in link order.
#[derive(Debug, Clone, Default)]
pub struct SeqTree {
    /// `2 * cap` packed nodes; node `i`'s children are `2i` and `2i + 1`,
    /// leaf `l` lives at `cap + l`. Empty until the first insert.
    tree: Vec<u64>,
    /// Caller payload per leaf, append-only (dead leaves keep their stale
    /// payload; the packed count says whether a leaf is live).
    payload: Vec<u32>,
    /// Leaf capacity: a power of two, doubled (with an O(cap) rebuild) when
    /// the append-only leaf space fills.
    cap: usize,
    len: usize,
}

impl SeqTree {
    /// An empty tree.
    pub fn new() -> Self {
        SeqTree::default()
    }

    /// Number of live keys (nodes, not members).
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the tree holds no keys.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Remove every key, keeping the allocation. The leaf space restarts
    /// from zero, matching the owner slab's restarted push stamps.
    pub fn clear(&mut self) {
        self.tree.fill(0);
        self.payload.clear();
        self.len = 0;
    }

    #[inline(always)]
    fn leaf_of(key: u64) -> usize {
        (u64::MAX - key - 1) as usize
    }

    #[inline(always)]
    fn key_of(leaf: usize) -> u64 {
        u64::MAX - leaf as u64 - 1
    }

    /// Recompute the packed nodes on the path from leaf `l` to the root.
    #[inline(always)]
    fn pull_path(&mut self, l: usize) {
        let mut i = (self.cap + l) >> 1;
        while i >= 1 {
            self.tree[i] = seg_combine(self.tree[2 * i], self.tree[2 * i + 1]);
            i >>= 1;
        }
    }

    /// Double the leaf capacity, keeping leaves in place (the space is
    /// append-only, so existing leaves never move) and rebuilding the
    /// internal levels. Amortised O(1) per insert.
    fn grow(&mut self, need: usize) {
        let old_cap = self.cap;
        let mut cap = if old_cap == 0 { 64 } else { old_cap };
        while cap <= need {
            cap *= 2;
        }
        let mut tree = vec![0u64; 2 * cap];
        tree[cap..cap + old_cap].copy_from_slice(&self.tree[old_cap..2 * old_cap]);
        for i in (1..cap).rev() {
            tree[i] = seg_combine(tree[2 * i], tree[2 * i + 1]);
        }
        self.tree = tree;
        self.cap = cap;
    }

    /// Insert `key` with `weight` standing for `count` members. Keys must
    /// arrive strictly decreasing — the linked slab's push-stamp
    /// discipline — so each insert appends the next leaf.
    pub fn insert(&mut self, key: u64, weight: usize, count: usize, payload: u32) {
        let leaf = Self::leaf_of(key);
        debug_assert_eq!(leaf, self.payload.len(), "seq keys must be monotone");
        if leaf >= self.cap {
            self.grow(leaf);
        }
        self.payload.push(payload);
        self.tree[self.cap + leaf] = seg_leaf(weight, count);
        self.pull_path(leaf);
        self.len += 1;
    }

    /// Change the member count of the present `key`.
    pub fn set_count(&mut self, key: u64, count: usize) {
        let leaf = Self::leaf_of(key);
        debug_assert!(self.contains(key), "recount of an absent key");
        let node = &mut self.tree[self.cap + leaf];
        *node = seg_leaf(seg_maxw(*node) as usize, count);
        self.pull_path(leaf);
    }

    /// Remove `key`, returning whether it was present.
    pub fn remove(&mut self, key: u64) -> bool {
        let leaf = Self::leaf_of(key);
        if leaf >= self.payload.len() || self.tree[self.cap + leaf] == 0 {
            return false;
        }
        self.tree[self.cap + leaf] = 0;
        self.pull_path(leaf);
        self.len -= 1;
        true
    }

    /// Whether `key` is present.
    pub fn contains(&self, key: u64) -> bool {
        let leaf = Self::leaf_of(key);
        leaf < self.payload.len() && self.tree[self.cap + leaf] != 0
    }

    /// Members of the live leaves strictly greater than `leaf` — i.e. of
    /// keys strictly below `key_of(leaf)` (suffix sum along the root path).
    #[inline(always)]
    fn count_leaves_above(&self, leaf: usize) -> u64 {
        let mut i = self.cap + leaf;
        let mut acc = 0u64;
        while i > 1 {
            if i & 1 == 0 {
                acc += seg_count(self.tree[i + 1]);
            }
            i >>= 1;
        }
        acc
    }

    /// 1-based position, in members, of a present key's first member in
    /// ascending key order.
    pub fn rank(&self, key: u64) -> u64 {
        debug_assert!(self.contains(key), "rank of an absent key");
        self.count_leaves_above(Self::leaf_of(key)) + 1
    }

    /// Members of the keys strictly below `key` (which need not be
    /// present).
    pub fn count_below(&self, key: u64) -> u64 {
        if self.cap == 0 {
            return 0;
        }
        let leaf = Self::leaf_of(key);
        if leaf >= self.cap {
            // `key` is below every possible stamp: nothing precedes it.
            return 0;
        }
        self.count_leaves_above(leaf)
    }

    /// Descend from internal node `i` to its rightmost leaf of weight
    /// `>= min_w`. Caller guarantees such a leaf exists under `i`.
    #[inline(always)]
    fn descend_rightmost(&self, mut i: usize, min_w: u32) -> (u64, u32) {
        while i < self.cap {
            i *= 2;
            if seg_maxw(self.tree[i + 1]) >= min_w {
                i += 1;
            }
        }
        let leaf = i - self.cap;
        (Self::key_of(leaf), self.payload[leaf])
    }

    /// Rightmost leaf in `[lo, hi)` with weight `>= min_w`, as
    /// `(key, payload)`. The canonical cover of the range is scanned from
    /// its right end, so the first satisfying node wins.
    fn rightmost_fit_in(&self, lo: usize, hi: usize, min_w: u32) -> Option<(u64, u32)> {
        let mut l = self.cap + lo;
        let mut r = self.cap + hi;
        // Canonical cover: `lefts` in left-to-right order, `rights` in
        // right-to-left order (the scan order we want).
        let mut lefts = [0usize; 64];
        let mut nl = 0;
        let mut rights = [0usize; 64];
        let mut nr = 0;
        while l < r {
            if l & 1 == 1 {
                lefts[nl] = l;
                nl += 1;
                l += 1;
            }
            if r & 1 == 1 {
                r -= 1;
                rights[nr] = r;
                nr += 1;
            }
            l >>= 1;
            r >>= 1;
        }
        for &i in rights[..nr].iter() {
            if seg_maxw(self.tree[i]) >= min_w {
                return Some(self.descend_rightmost(i, min_w));
            }
        }
        for &i in lefts[..nl].iter().rev() {
            if seg_maxw(self.tree[i]) >= min_w {
                return Some(self.descend_rightmost(i, min_w));
            }
        }
        None
    }

    #[inline(always)]
    fn clamp_w(min_weight: usize) -> u32 {
        debug_assert!(
            u32::try_from(min_weight).is_ok(),
            "fit request {min_weight} exceeds the packed weight range"
        );
        min_weight.min(u32::MAX as usize) as u32
    }

    /// First key in ascending key order with weight `>= min_weight` — the
    /// rightmost fitting leaf.
    pub fn first_at_least(&self, min_weight: usize) -> Option<(u64, u32)> {
        if self.cap == 0 {
            return None;
        }
        self.rightmost_fit_in(0, self.cap, Self::clamp_w(min_weight))
    }

    /// First key `>= lo` in ascending key order with weight `>= min_weight`
    /// — the rightmost fitting leaf at or below `lo`'s stamp.
    pub fn first_at_least_from(&self, lo: u64, min_weight: usize) -> Option<(u64, u32)> {
        if self.cap == 0 {
            return None;
        }
        let leaf = Self::leaf_of(lo).min(self.cap - 1);
        self.rightmost_fit_in(0, leaf + 1, Self::clamp_w(min_weight))
    }

    /// First key strictly below `hi` in ascending key order with weight
    /// `>= min_weight` — the rightmost fitting leaf above `hi`'s stamp.
    pub fn first_at_least_below(&self, hi: u64, min_weight: usize) -> Option<(u64, u32)> {
        if self.cap == 0 {
            return None;
        }
        let leaf = Self::leaf_of(hi);
        if leaf + 1 >= self.cap {
            return None;
        }
        self.rightmost_fit_in(leaf + 1, self.cap, Self::clamp_w(min_weight))
    }

    /// Whether the append-only leaf space is full. The owner can either
    /// let the next insert double it ([`SeqTree::insert`] grows
    /// automatically) or — when most leaves are dead — restamp its nodes
    /// and [`SeqTree::reset_with_room_for`] a compact space, which keeps
    /// the tree depth at `log2(live)`-ish instead of `log2(total inserts)`.
    pub fn at_capacity(&self) -> bool {
        self.payload.len() == self.cap
    }

    /// Current leaf capacity.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Empty the tree and restart the leaf space sized for `n` live keys
    /// (with slack so the next compaction is at least `n` inserts away).
    pub fn reset_with_room_for(&mut self, n: usize) {
        let cap = (2 * n).next_power_of_two().max(64);
        if self.tree.len() == 2 * cap {
            self.tree.fill(0);
        } else {
            self.tree = vec![0u64; 2 * cap];
        }
        self.cap = cap;
        self.payload.clear();
        self.len = 0;
    }

    /// Largest live weight, or 0 when empty.
    pub fn max_weight(&self) -> usize {
        if self.cap == 0 {
            0
        } else {
            seg_maxw(self.tree[1]) as usize
        }
    }

    /// The `(weight, count, payload)` at `key`'s leaf — replica validation
    /// hook.
    pub fn leaf_entry(&self, key: u64) -> Option<(usize, usize, u32)> {
        let leaf = Self::leaf_of(key);
        let node = *self.tree.get(self.cap + leaf)?;
        if leaf >= self.payload.len() || node == 0 {
            return None;
        }
        Some((
            seg_maxw(node) as usize,
            seg_count(node) as usize,
            self.payload[leaf],
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Flat reference: sorted (key, weight, count) triples.
    #[derive(Default)]
    struct RefSet(Vec<(u64, usize, usize)>);

    impl RefSet {
        fn insert(&mut self, key: u64, w: usize, count: usize) {
            let i = self.0.partition_point(|&(k, _, _)| k < key);
            self.0.insert(i, (key, w, count));
        }
        fn remove(&mut self, key: u64) -> bool {
            match self.0.iter().position(|&(k, _, _)| k == key) {
                Some(i) => {
                    self.0.remove(i);
                    true
                }
                None => false,
            }
        }
        fn count_below(&self, key: u64) -> u64 {
            self.0
                .iter()
                .filter(|&&(k, _, _)| k < key)
                .map(|&(_, _, c)| c as u64)
                .sum()
        }
        fn rank(&self, key: u64) -> u64 {
            self.count_below(key) + 1
        }
        fn first_at_least(&self, w: usize) -> Option<u64> {
            self.0.iter().find(|&&(_, x, _)| x >= w).map(|&(k, _, _)| k)
        }
        fn first_from(&self, lo: u64, w: usize) -> Option<u64> {
            self.0
                .iter()
                .find(|&&(k, x, _)| k >= lo && x >= w)
                .map(|&(k, _, _)| k)
        }
        fn first_below(&self, hi: u64, w: usize) -> Option<u64> {
            self.0
                .iter()
                .find(|&&(k, x, _)| k < hi && x >= w)
                .map(|&(k, _, _)| k)
        }
    }

    /// SeqTree under the owner slab's discipline (strictly decreasing
    /// keys, member counts that shrink in place), cross-checked per op
    /// against the flat reference.
    #[test]
    fn seq_tree_matches_reference_under_monotone_churn() {
        let mut seq_tree = SeqTree::new();
        let mut reference = RefSet::default();
        let mut live: Vec<u64> = Vec::new();
        let mut seq = 0u64;
        let mut x: u64 = 0xDEAD_BEEF_1234_5678;
        for round in 0..3000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            if live.len() < 4 || x % 4 < 2 {
                seq += 1;
                let key = u64::MAX - seq;
                let w = 16 + (x >> 32) as usize % 96;
                let count = 1 + (x >> 20) as usize % 9;
                let p = (seq % 11) as u32;
                seq_tree.insert(key, w, count, p);
                reference.insert(key, w, count);
                live.push(key);
            } else if x % 4 == 2 {
                let i = (x as usize / 5) % live.len();
                let key = live.swap_remove(i);
                assert!(seq_tree.remove(key));
                assert!(!seq_tree.remove(key), "double remove must miss");
                assert!(reference.remove(key));
            } else {
                let i = (x as usize / 5) % live.len();
                let key = live[i];
                let entry = reference.0.iter_mut().find(|e| e.0 == key).unwrap();
                entry.2 = 1 + (x >> 33) as usize % entry.2;
                seq_tree.set_count(key, entry.2);
                assert_eq!(seq_tree.leaf_entry(key).map(|e| e.1), Some(entry.2));
            }
            assert_eq!(seq_tree.len(), reference.0.len());
            assert_eq!(
                seq_tree.max_weight(),
                reference.0.iter().map(|&(_, w, _)| w).max().unwrap_or(0)
            );
            if round % 5 == 0 {
                let probes = [
                    u64::MAX - 1,
                    u64::MAX - seq.max(1),
                    u64::MAX - seq / 2 - 1,
                    u64::MAX - seq - 40, // below every stamp issued so far
                ];
                // Each key's payload is its stamp mod 11 (see the insert).
                let with_payload = |k: Option<u64>| k.map(|k| (k, ((u64::MAX - k) % 11) as u32));
                for probe in probes {
                    assert_eq!(
                        seq_tree.count_below(probe),
                        reference.count_below(probe),
                        "count_below({probe:#x})"
                    );
                    for w in [1usize, 40, 80, 200] {
                        assert_eq!(
                            seq_tree.first_at_least(w),
                            with_payload(reference.first_at_least(w)),
                            "first_at_least({w})"
                        );
                        assert_eq!(
                            seq_tree.first_at_least_from(probe, w),
                            with_payload(reference.first_from(probe, w)),
                            "first_from({probe:#x},{w})"
                        );
                        assert_eq!(
                            seq_tree.first_at_least_below(probe, w),
                            with_payload(reference.first_below(probe, w)),
                            "first_below({probe:#x},{w})"
                        );
                    }
                }
                for &key in live.iter().take(8) {
                    assert_eq!(seq_tree.rank(key), reference.rank(key), "rank");
                    assert!(seq_tree.contains(key));
                }
            }
        }
        // Clear restarts the stamp space from zero.
        seq_tree.clear();
        assert!(seq_tree.is_empty());
        seq_tree.insert(u64::MAX - 1, 32, 3, 9);
        assert_eq!(seq_tree.first_at_least(1), Some((u64::MAX - 1, 9)));
        assert_eq!(seq_tree.leaf_entry(u64::MAX - 1), Some((32, 3, 9)));
    }
}
