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

use crate::heap::tiling::BlockRef;

/// One free block of the address-ordered list.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct AddrEntry {
    /// Block offset — the sort key.
    pub(crate) offset: usize,
    /// Block length — the fit weight.
    pub(crate) len: usize,
    /// The tiling block the entry indexes.
    pub(crate) block: BlockRef,
}

/// Most entries a chunk holds; one more splits it in half.
pub(super) const CHUNK_MAX: usize = 64;

/// The address-ordered free list as a chunked, address-sorted array.
///
/// Entries live in address-sorted chunks of at most [`CHUNK_MAX`] entries
/// (every offset in chunk `c` is below every offset in chunk `c + 1`; no
/// chunk is empty). Three flat per-chunk arrays sit beside them: each
/// chunk's first offset (a binary search locates a key's chunk), its entry
/// count (prefix sums give ranks) and its largest length (selects skip
/// chunks that cannot fit). Inserts and removes move at most one chunk's
/// entries; a rank is one prefix sum over the counts plus one in-chunk
/// binary search.
#[derive(Debug, Clone, Default)]
pub(crate) struct AddrList {
    chunks: Vec<Vec<AddrEntry>>,
    /// `firsts[c] == chunks[c][0].offset`.
    firsts: Vec<usize>,
    /// `counts[c] == chunks[c].len()`.
    counts: Vec<u32>,
    /// `maxes[c]` is the largest `len` in `chunks[c]`.
    maxes: Vec<usize>,
    len: usize,
}

impl AddrList {
    /// Number of entries.
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

    /// Every entry in address order — the faithful walk.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &AddrEntry> {
        self.chunks.iter().flatten()
    }

    /// The chunk that holds (or would hold) `offset`: the last chunk whose
    /// first offset is `<= offset`, or chunk 0 below every chunk. Only
    /// meaningful on a non-empty list.
    fn chunk_of(&self, offset: usize) -> usize {
        self.firsts
            .partition_point(|&f| f <= offset)
            .saturating_sub(1)
    }

    /// Entries in the chunks before chunk `c`.
    fn count_before(&self, c: usize) -> u64 {
        self.counts[..c].iter().map(|&n| u64::from(n)).sum()
    }

    /// Insert an entry whose offset must not already be present.
    pub(crate) fn insert(&mut self, entry: AddrEntry) {
        self.len += 1;
        if self.chunks.is_empty() {
            self.chunks.push(vec![entry]);
            self.firsts.push(entry.offset);
            self.counts.push(1);
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
        self.counts[c] += 1;
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
        self.counts[c] = mid as u32;
        self.maxes[c] = max_of(&self.chunks[c]);
        self.firsts.insert(c + 1, upper[0].offset);
        self.counts.insert(c + 1, upper.len() as u32);
        self.maxes.insert(c + 1, max_of(&upper));
        self.chunks.insert(c + 1, upper);
    }

    /// Remove the entry at `offset`, returning it, or `None` if absent.
    pub(crate) fn remove(&mut self, offset: usize) -> Option<AddrEntry> {
        if self.chunks.is_empty() {
            return None;
        }
        let c = self.chunk_of(offset);
        let chunk = &mut self.chunks[c];
        let i = chunk.binary_search_by_key(&offset, |e| e.offset).ok()?;
        let entry = chunk.remove(i);
        self.len -= 1;
        if chunk.is_empty() {
            self.chunks.remove(c);
            self.firsts.remove(c);
            self.counts.remove(c);
            self.maxes.remove(c);
            return Some(entry);
        }
        if i == 0 {
            self.firsts[c] = chunk[0].offset;
        }
        self.counts[c] -= 1;
        if entry.len == self.maxes[c] {
            self.maxes[c] = chunk.iter().map(|e| e.len).max().unwrap_or(0);
        }
        Some(entry)
    }

    /// The entry at `offset`, if present.
    pub(crate) fn get(&self, offset: usize) -> Option<AddrEntry> {
        self.locate(offset).map(|(entry, _)| entry)
    }

    /// The entry at `offset` with its 1-based position in address order —
    /// the faithful walk's distance to it — if present.
    pub(crate) fn locate(&self, offset: usize) -> Option<(AddrEntry, u64)> {
        if self.chunks.is_empty() {
            return None;
        }
        let c = self.chunk_of(offset);
        let i = self.chunks[c]
            .binary_search_by_key(&offset, |e| e.offset)
            .ok()?;
        Some((self.chunks[c][i], self.count_before(c) + i as u64 + 1))
    }

    /// Number of entries strictly below `offset` (which need not be
    /// present) — the charge of a walk that stops just before that bound.
    pub(crate) fn count_below(&self, offset: usize) -> u64 {
        if self.chunks.is_empty() {
            return 0;
        }
        let c = self.chunk_of(offset);
        self.count_before(c) + self.chunks[c].partition_point(|e| e.offset < offset) as u64
    }

    /// First entry (ascending address) with `len >= min_len`, with its
    /// rank — the node a first-fit walk stops at.
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
    /// `before` entries precede chunk `c`.
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
                return Some((chunk[i], before + i as u64 + 1));
            }
            before += u64::from(self.counts[c]);
            c += 1;
        }
        None
    }

    /// First entry at offset `>= lo` with `len >= min_len`, with its rank
    /// — where a roving walk starting at `lo`'s position stops before
    /// wrapping.
    pub(crate) fn first_at_least_from(
        &self,
        lo: usize,
        min_len: usize,
    ) -> Option<(AddrEntry, u64)> {
        if self.chunks.is_empty() {
            return None;
        }
        let c = self.chunk_of(lo);
        let before = self.count_before(c);
        if self.maxes[c] >= min_len {
            let chunk = &self.chunks[c];
            let start = chunk.partition_point(|e| e.offset < lo);
            if let Some(j) = chunk[start..].iter().position(|e| e.len >= min_len) {
                let i = start + j;
                return Some((chunk[i], before + i as u64 + 1));
            }
        }
        self.first_fit_from_chunk(c + 1, before + u64::from(self.counts[c]), min_len)
    }

    /// Validate the chunk layout: entries in strictly ascending address
    /// order, no chunk empty or over [`CHUNK_MAX`], and `firsts`, `counts`,
    /// `maxes` and the total length all matching the entries.
    pub(crate) fn check(&self) -> Result<(), String> {
        let n = self.chunks.len();
        if (self.firsts.len(), self.counts.len(), self.maxes.len()) != (n, n, n) {
            return Err(format!("{n} chunks with mismatched summary arrays"));
        }
        let walked: Vec<&AddrEntry> = self.iter().collect();
        if walked.len() != self.len || walked.windows(2).any(|w| w[0].offset >= w[1].offset) {
            return Err(format!(
                "{} entries (length {}) not in strictly ascending address order",
                walked.len(),
                self.len
            ));
        }
        for (c, chunk) in self.chunks.iter().enumerate() {
            let summary = (self.firsts[c], self.counts[c] as usize, self.maxes[c]);
            let actual = (
                chunk.first().map_or(0, |e| e.offset),
                chunk.len(),
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

/// Packed segment-tree node: live-leaf count in the high 32 bits, maximum
/// leaf weight in the low 32.
const COUNT_ONE: u64 = 1 << 32;
const COUNT_MASK: u64 = !(u32::MAX as u64);

#[inline(always)]
fn seg_combine(a: u64, b: u64) -> u64 {
    // Counts can never carry out of the high half (they are bounded by the
    // leaf count), so the halves add and max independently.
    ((a & COUNT_MASK) + (b & COUNT_MASK)) | u64::from((a as u32).max(b as u32))
}

#[inline(always)]
fn seg_count(v: u64) -> u64 {
    v >> 32
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
/// suffix counts.
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

    /// Number of live keys.
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

    /// Insert `key` with `weight`. Keys must arrive strictly decreasing —
    /// the linked slab's push-stamp discipline — so each insert appends the
    /// next leaf.
    pub fn insert(&mut self, key: u64, weight: usize, payload: u32) {
        let leaf = Self::leaf_of(key);
        debug_assert_eq!(leaf, self.payload.len(), "seq keys must be monotone");
        debug_assert!(
            u32::try_from(weight).is_ok(),
            "span length {weight} exceeds the packed weight range"
        );
        if leaf >= self.cap {
            self.grow(leaf);
        }
        self.payload.push(payload);
        self.tree[self.cap + leaf] = COUNT_ONE | u64::from(weight as u32);
        self.pull_path(leaf);
        self.len += 1;
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

    /// Count of live leaves strictly greater than `leaf` — i.e. of keys
    /// strictly below `key_of(leaf)` (suffix sum along the root path).
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

    /// 1-based position of a present key in ascending key order.
    pub fn rank(&self, key: u64) -> u64 {
        debug_assert!(self.contains(key), "rank of an absent key");
        self.count_leaves_above(Self::leaf_of(key)) + 1
    }

    /// Number of keys strictly below `key` (which need not be present).
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

    /// The packed count at `key`'s leaf — replica validation hook.
    pub fn leaf_entry(&self, key: u64) -> Option<(usize, u32)> {
        let leaf = Self::leaf_of(key);
        if leaf >= self.payload.len() || self.tree[self.cap + leaf] == 0 {
            return None;
        }
        Some((
            seg_maxw(self.tree[self.cap + leaf]) as usize,
            self.payload[leaf],
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Flat reference: sorted (key, weight) pairs.
    #[derive(Default)]
    struct RefSet(Vec<(u64, usize)>);

    impl RefSet {
        fn insert(&mut self, key: u64, w: usize) {
            let i = self.0.partition_point(|&(k, _)| k < key);
            self.0.insert(i, (key, w));
        }
        fn remove(&mut self, key: u64) -> bool {
            match self.0.iter().position(|&(k, _)| k == key) {
                Some(i) => {
                    self.0.remove(i);
                    true
                }
                None => false,
            }
        }
        fn rank(&self, key: u64) -> u64 {
            self.0.iter().position(|&(k, _)| k == key).unwrap() as u64 + 1
        }
        fn count_below(&self, key: u64) -> u64 {
            self.0.iter().filter(|&&(k, _)| k < key).count() as u64
        }
        fn first_at_least(&self, w: usize) -> Option<u64> {
            self.0.iter().find(|&&(_, x)| x >= w).map(|&(k, _)| k)
        }
        fn first_from(&self, lo: u64, w: usize) -> Option<u64> {
            self.0
                .iter()
                .find(|&&(k, x)| k >= lo && x >= w)
                .map(|&(k, _)| k)
        }
        fn first_below(&self, hi: u64, w: usize) -> Option<u64> {
            self.0
                .iter()
                .find(|&&(k, x)| k < hi && x >= w)
                .map(|&(k, _)| k)
        }
    }

    /// SeqTree under the owner slab's discipline (strictly decreasing
    /// keys), cross-checked per op against the flat reference.
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
            if live.len() < 4 || !x.is_multiple_of(3) {
                seq += 1;
                let key = u64::MAX - seq;
                let w = 16 + (x >> 32) as usize % 96;
                let p = (seq % 11) as u32;
                seq_tree.insert(key, w, p);
                reference.insert(key, w);
                live.push(key);
            } else {
                let i = (x as usize / 5) % live.len();
                let key = live.swap_remove(i);
                assert!(seq_tree.remove(key));
                assert!(!seq_tree.remove(key), "double remove must miss");
                assert!(reference.remove(key));
            }
            assert_eq!(seq_tree.len(), reference.0.len());
            assert_eq!(
                seq_tree.max_weight(),
                reference.0.iter().map(|&(_, w)| w).max().unwrap_or(0)
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
        seq_tree.insert(u64::MAX - 1, 32, 9);
        assert_eq!(seq_tree.first_at_least(1), Some((u64::MAX - 1, 9)));
        assert_eq!(seq_tree.leaf_entry(u64::MAX - 1), Some((32, 9)));
    }
}
