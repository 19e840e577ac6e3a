//! Ordered free indexes (A1 leaves *address-ordered list* and
//! *size-ordered tree*).
//!
//! The address-ordered list keeps free blocks sorted by offset — sweeps and
//! address-local placement are cheap, size searches are linear. The
//! size-ordered tree keys blocks by `(len, offset)` — best/exact fit are
//! logarithmic, which is why the soft interdependency arrows point best-fit
//! searchers at it.
//!
//! Both indexes key directly on the span the caller hands to
//! [`FreeIndex::remove`] — the offset→length side lookup the size tree
//! used to carry is gone — and both store the [`BlockRef`] of the backing
//! tiling block as their value, so a hit resolves to the block in O(1).
//!
//! # Rank-computed walk charges
//!
//! [`AddrIndex`] models a linear list: its charges are walk distances in
//! address order. Those distances are *computed*, not walked — the list is
//! an [`AddrList`], a chunked address-sorted array that answers rank and
//! select queries itself. Best and exact fit also need "the
//! lowest-addressed block of size S", which a `(len, offset)` set answers;
//! the first best- or exact-fit search builds that set and every insert
//! and remove maintains it from then on, so first-, next- and worst-fit
//! managers never pay for it. Every fit resolves as one select or rank
//! query, bit-identical to the faithful linear scan of the same entries,
//! which stays compiled in as the debug shadow oracle ([`walk_find`]); the
//! chunk layout and the length set are revalidated per replay event
//! through [`FreeIndex::check_oracle`]. The chunk bookkeeping and the
//! length set are simulator-side acceleration, not part of the modelled
//! manager — they cost nothing in `control_overhead_bytes`.
//!
//! [`SizeTreeIndex`] needs none of this: its `(len, offset)` tree *is* the
//! modelled structure, and its logarithmic charge (`log_cost`, the subtree
//! descent depth) is already computed from the tree size in one add.
//!
//! Both key a run of equal blocks by its lowest member: no other block
//! lies between two members, so a run's members are adjacent in address
//! order and in `(len, offset)` order alike. Charges read the member
//! count, and a run's inserts and removals charge `log_cost` at each
//! successive member count ([`log_cost_sum`]).

use std::collections::{BTreeMap, BTreeSet};
use std::ops::Range;

use crate::heap::block::{Run, Span};
use crate::heap::index::rank::{AddrEntry, AddrList};
use crate::heap::index::{Found, FreeIndex, Unlink};
use crate::heap::tiling::BlockRef;
use crate::space::trees::{BlockStructure, FitAlgorithm};
use crate::units::POINTER_BYTES;

/// Ordered indexes need no unlink token — removal keys on the span.
const NO_TOKEN: usize = 0;

fn log_cost(n: usize) -> u64 {
    (usize::BITS - n.max(1).leading_zeros()) as u64
}

/// `Σ log_cost(x)` over `x` in `lo..hi`, one multiply per bit length: the
/// summed charge of successive inserts (`n..n + m`) or removals
/// (`n + 1 - m..n + 1`) at a tree of `n` blocks.
fn log_cost_sum(lo: usize, hi: usize) -> u64 {
    let mut sum = u64::from(lo == 0 && hi > 0); // log_cost(0) == log_cost(1)
    let mut x = lo.max(1);
    while x < hi {
        let bits = usize::BITS - x.leading_zeros();
        let end = 1usize.checked_shl(bits).map_or(hi, |p| p.min(hi));
        sum += u64::from(bits) * (end - x) as u64;
        x = end;
    }
    sum
}

/// A run's member count as stored in an entry.
fn count_u32(count: usize) -> u32 {
    u32::try_from(count).expect("run count fits u32")
}

/// The charge of removing `m` members from a tree of `n` blocks, or of
/// the single lookup a stale removal costs.
fn removal_cost(n: usize, m: usize) -> u64 {
    if m <= n {
        log_cost_sum(n + 1 - m, n + 1)
    } else {
        log_cost(n)
    }
}

/// Free list kept sorted by block address.
///
/// NextFit parks its cursor one byte past the block it returned. Block
/// offsets are aligned, so the cursor never equals a block offset and
/// removing that block leaves it in place: the roving search resumes at
/// the first block above the old hit, including blocks inserted later —
/// which may be a member inside a run.
#[derive(Debug, Clone, Default)]
pub struct AddrIndex {
    list: AddrList,
    cursor: Option<usize>,
    /// Live `(len, offset)` pairs: the winner resolver for best and exact
    /// fit, whose walks end on "the lowest-addressed block of size S".
    /// `None` until the first such search.
    by_len: Option<BTreeSet<(usize, usize)>>,
}

impl AddrIndex {
    /// An empty address-ordered index.
    pub fn new() -> Self {
        AddrIndex::default()
    }

    /// Rank-computed fit resolution: `(winner entry and member, charge)`,
    /// bit-identical to [`walk_find`]. Does not move the cursor.
    fn fast_find(&self, fit: FitAlgorithm, len: usize) -> (Option<(AddrEntry, usize)>, u64) {
        let total = self.list.len() as u64;
        let list = &self.list;
        match fit {
            FitAlgorithm::FirstFit => match list.first_at_least(len) {
                Some((e, rank)) => (Some((e, 0)), rank),
                None => (None, total),
            },
            FitAlgorithm::NextFit => {
                // Pass 1 covers offsets >= the parked cursor; the wrap pass
                // re-scans everything below it. Nothing in pass 1 fits by
                // then, so the wrap pass stops at the first fit overall.
                let start = self.cursor.unwrap_or(0);
                let below = list.count_below(start);
                if let Some((e, j, rank)) = list.first_at_least_from(start, len) {
                    (Some((e, j)), rank - below)
                } else if let Some((e, rank)) = list.first_at_least(len) {
                    (Some((e, 0)), (total - below) + rank)
                } else {
                    (None, total)
                }
            }
            FitAlgorithm::WorstFit => {
                // Always a full scan; the winner is the lowest-addressed
                // block of the largest size, if that size fits.
                (
                    list.first_largest()
                        .filter(|e| e.len >= len)
                        .map(|e| (e, 0)),
                    total,
                )
            }
            FitAlgorithm::BestFit | FitAlgorithm::ExactFit => {
                let by_len = self.by_len.as_ref().expect("find builds the length set");
                // With an exact-size block present both walks stop at the
                // lowest-addressed one (best fit cannot do better).
                if let Some(&(_, o)) = by_len.range((len, 0)..=(len, usize::MAX)).next() {
                    let (entry, rank) = list.locate(o).expect("length set names live blocks");
                    return (Some((entry, 0)), rank);
                }
                // Otherwise both scan everything; best fit's winner is the
                // lowest-addressed block of the smallest fitting size.
                let winner = match fit {
                    FitAlgorithm::BestFit => by_len.range((len, 0)..).next(),
                    _ => None,
                };
                (
                    winner.and_then(|&(_, o)| list.get(o)).map(|e| (e, 0)),
                    total,
                )
            }
        }
    }
}

/// The faithful address-order scan — the shadow oracle for
/// [`AddrIndex::fast_find`]. This is the modelled cost of the A1 leaf: one
/// step per block visited, from the list head (or, for next fit, from the
/// cursor, wrapping round to the head).
/// Stays compiled in release builds even though only debug builds call it.
#[cfg_attr(not(debug_assertions), allow(dead_code))]
fn walk_find(
    list: &AddrList,
    cursor: Option<usize>,
    fit: FitAlgorithm,
    len: usize,
) -> (Option<usize>, u64) {
    let start = if fit == FitAlgorithm::NextFit {
        cursor.unwrap_or(0)
    } else {
        0
    };
    let from_start = list.members().filter(|&(o, _)| o >= start);
    let wrapped = list.members().filter(|&(o, _)| o < start);
    let mut steps = 0u64;
    let mut kept: Option<(usize, usize)> = None;
    for (offset, e) in from_start.chain(wrapped) {
        steps += 1;
        match fit {
            FitAlgorithm::FirstFit | FitAlgorithm::NextFit if e.len >= len => {
                return (Some(offset), steps)
            }
            FitAlgorithm::ExactFit if e.len == len => return (Some(offset), steps),
            FitAlgorithm::BestFit if e.len >= len && kept.is_none_or(|(_, b)| e.len < b) => {
                kept = Some((offset, e.len));
                if e.len == len {
                    break;
                }
            }
            FitAlgorithm::WorstFit if e.len >= len && kept.is_none_or(|(_, w)| e.len > w) => {
                kept = Some((offset, e.len));
            }
            _ => {}
        }
    }
    (kept.map(|(offset, _)| offset), steps)
}

impl FreeIndex for AddrIndex {
    fn insert_run(&mut self, run: Run, block: BlockRef, steps: &mut u64) -> usize {
        let n = self.list.len();
        *steps += log_cost_sum(n, n + run.count);
        self.list.insert(AddrEntry {
            offset: run.offset,
            len: run.len,
            count: count_u32(run.count),
            block,
        });
        if let Some(by_len) = &mut self.by_len {
            by_len.insert((run.len, run.offset));
        }
        NO_TOKEN
    }

    fn remove_members(
        &mut self,
        _token: usize,
        run: Run,
        members: Range<usize>,
        _order: Unlink,
        upper: Option<BlockRef>,
        steps: &mut u64,
    ) -> Option<(BlockRef, usize)> {
        let n = self.list.len();
        if self.list.get(run.offset).is_none_or(|e| e.run() != run) {
            *steps += log_cost(n);
            return None;
        }
        debug_assert_eq!(upper.is_some(), members.end < run.count, "upper remainder");
        *steps += removal_cost(n, members.len());
        let entry = self.list.take(run.offset, members.clone(), upper)?;
        if let Some(by_len) = &mut self.by_len {
            if members.start == 0 {
                let mapped = by_len.remove(&(run.len, run.offset));
                debug_assert!(mapped, "length set missed ({}, {})", run.len, run.offset);
            }
            if members.end < run.count {
                by_len.insert((run.len, run.member(members.end).offset));
            }
        }
        Some((entry.block, NO_TOKEN))
    }

    fn find(&mut self, fit: FitAlgorithm, len: usize, steps: &mut u64) -> Option<Found> {
        if matches!(fit, FitAlgorithm::BestFit | FitAlgorithm::ExactFit) && self.by_len.is_none() {
            self.by_len = Some(self.list.iter().map(|e| (e.len, e.offset)).collect());
        }
        let (winner, charged) = self.fast_find(fit, len);
        let winner = winner.map(|(e, j)| (e.run(), j, e.block));
        #[cfg(debug_assertions)]
        {
            let (walk_winner, walk_steps) = walk_find(&self.list, self.cursor, fit, len);
            debug_assert_eq!(
                (winner.map(|(run, j, _)| run.member(j).offset), charged),
                (walk_winner, walk_steps),
                "rank-computed {fit:?} find for {len} diverged from the faithful scan"
            );
        }
        *steps += charged;
        let (run, j, block) = winner?;
        let span = run.member(j);
        if fit == FitAlgorithm::NextFit {
            self.cursor = Some(span.offset + 1);
        }
        Some(Found {
            span,
            run,
            block,
            token: NO_TOKEN,
        })
    }

    fn len(&self) -> usize {
        self.list.len()
    }

    fn spans(&self) -> Vec<Span> {
        self.list
            .members()
            .map(|(offset, e)| Span::new(offset, e.len))
            .collect()
    }

    fn clear(&mut self) {
        self.list.clear();
        self.cursor = None;
        self.by_len = None;
    }

    fn control_overhead_bytes(&self) -> usize {
        POINTER_BYTES // head pointer; links are in-band in free blocks
    }

    fn check_oracle(&self) -> Result<(), String> {
        self.list.check()?;
        let Some(by_len) = &self.by_len else {
            return Ok(());
        };
        let entries = self.list.iter().count();
        if by_len.len() != entries {
            return Err(format!(
                "length set has {} entries for {entries} runs",
                by_len.len()
            ));
        }
        for e in self.list.iter() {
            if !by_len.contains(&(e.len, e.offset)) {
                return Err(format!("length set missing ({}, {})", e.len, e.offset));
            }
        }
        Ok(())
    }
}

/// Balanced tree of free blocks keyed by `(len, offset)`; a run is one
/// node keyed by its lowest member.
#[derive(Debug, Clone, Default)]
pub struct SizeTreeIndex {
    /// Runs by `(member len, lowest offset)`, with their backing node and
    /// member count.
    by_size: BTreeMap<(usize, usize), (BlockRef, u32)>,
    /// Members of every run: the modelled tree's size.
    members: usize,
    cursor: Option<(usize, usize)>,
}

impl SizeTreeIndex {
    /// An empty size-ordered index.
    pub fn new() -> Self {
        SizeTreeIndex::default()
    }

    /// The first member at or after key `start` in `(len, offset)` order,
    /// as its run, member index and node.
    fn member_from(&self, start: (usize, usize)) -> Option<(Run, usize, BlockRef)> {
        if let Some((&(l, o), &(b, k))) = self.by_size.range(..=start).next_back() {
            let k = k as usize;
            let j = if l == start.0 {
                (start.1 - o).div_ceil(l)
            } else {
                k
            };
            if j < k {
                return Some((Run::new(o, l, k), j, b));
            }
        }
        self.by_size
            .range(start..)
            .next()
            .map(|(&(l, o), &(b, k))| (Run::new(o, l, k as usize), 0, b))
    }
}

/// The fit a free index of A1 structure `structure` runs when asked for
/// `fit`. In a size-ordered tree the first block that fits *is* the best
/// fit: [`SizeTreeIndex`]'s `find` answers both with one lookup at one
/// `log_cost` charge, so that tree runs best fit as first fit. Every other
/// structure runs the fit it is asked for.
///
/// The policy allocator searches with this fit and the projection key
/// keeps it, so configurations that differ only in a fit their index does
/// not tell apart share a key.
pub fn executed_fit(structure: BlockStructure, fit: FitAlgorithm) -> FitAlgorithm {
    match (structure, fit) {
        (BlockStructure::SizeOrderedTree, FitAlgorithm::BestFit) => FitAlgorithm::FirstFit,
        _ => fit,
    }
}

impl FreeIndex for SizeTreeIndex {
    fn insert_run(&mut self, run: Run, block: BlockRef, steps: &mut u64) -> usize {
        *steps += log_cost_sum(self.members, self.members + run.count);
        let dup = self
            .by_size
            .insert((run.len, run.offset), (block, count_u32(run.count)));
        debug_assert!(dup.is_none(), "duplicate span at {}", run.offset);
        self.members += run.count;
        NO_TOKEN
    }

    fn remove_members(
        &mut self,
        _token: usize,
        run: Run,
        members: Range<usize>,
        _order: Unlink,
        upper: Option<BlockRef>,
        steps: &mut u64,
    ) -> Option<(BlockRef, usize)> {
        let key = (run.len, run.offset);
        let Some(&(block, count)) = self.by_size.get(&key).filter(|e| e.1 as usize == run.count)
        else {
            *steps += log_cost(self.members);
            return None;
        };
        debug_assert_eq!(upper.is_some(), members.end < run.count, "upper remainder");
        *steps += removal_cost(self.members, members.len());
        self.members -= members.len();
        // `find` parks the NextFit cursor just *past* the block it
        // returned, i.e. at `(len, offset + 1)` — compare against that
        // stored form. Matching the block's own key `(len, offset)` can
        // never fire, so the roving pointer used to survive its block's
        // removal and skip blocks re-inserted at or below that key.
        if let Some((l, past)) = self.cursor {
            let gone = run.member(members.start).offset..run.member(members.end - 1).end();
            if l == run.len
                && gone.contains(&(past - 1))
                && (past - 1 - run.offset).is_multiple_of(l)
            {
                self.cursor = None;
            }
        }
        if members.start == 0 {
            self.by_size.remove(&key);
        } else {
            self.by_size.insert(key, (block, members.start as u32));
        }
        if let Some(upper) = upper {
            let rest = (run.len, run.member(members.end).offset);
            self.by_size
                .insert(rest, (upper, count - members.end as u32));
        }
        Some((block, NO_TOKEN))
    }

    fn find(&mut self, fit: FitAlgorithm, len: usize, steps: &mut u64) -> Option<Found> {
        *steps += log_cost(self.members);
        // An empty tree answers every fit at its root.
        if self.members == 0 {
            return None;
        }
        let lowest = |(&(l, o), &(b, k)): (&(usize, usize), &(BlockRef, u32))| {
            (Run::new(o, l, k as usize), 0, b)
        };
        let hit = match fit {
            // In a size-ordered structure the "first" block that fits *is*
            // the best fit — a realistic consequence of the A1 choice, and
            // what `executed_fit` states.
            FitAlgorithm::FirstFit | FitAlgorithm::BestFit => {
                self.by_size.range((len, 0)..).next().map(lowest)
            }
            FitAlgorithm::NextFit => {
                let start = self.cursor.unwrap_or((len, 0)).max((len, 0));
                let hit = self
                    .member_from(start)
                    .or_else(|| self.by_size.range((len, 0)..).next().map(lowest));
                if let Some((run, j, _)) = hit {
                    self.cursor = Some((run.len, run.member(j).offset + 1));
                }
                hit
            }
            // The largest key is the highest member of the last run.
            FitAlgorithm::WorstFit => self
                .by_size
                .iter()
                .next_back()
                .map(|(&(l, o), &(b, k))| (Run::new(o, l, k as usize), k as usize - 1, b))
                .filter(|(run, _, _)| run.len >= len),
            FitAlgorithm::ExactFit => self
                .by_size
                .range((len, 0)..(len + 1, 0))
                .next()
                .map(lowest),
        };
        hit.map(|(run, j, block)| Found {
            span: run.member(j),
            run,
            block,
            token: NO_TOKEN,
        })
    }

    fn len(&self) -> usize {
        self.members
    }

    fn spans(&self) -> Vec<Span> {
        self.by_size
            .iter()
            .flat_map(|(&(l, o), &(_, k))| Run::new(o, l, k as usize).members())
            .collect()
    }

    fn clear(&mut self) {
        self.by_size.clear();
        self.members = 0;
        self.cursor = None;
    }

    fn control_overhead_bytes(&self) -> usize {
        POINTER_BYTES // root pointer; node links are in-band
    }

    fn check_oracle(&self) -> Result<(), String> {
        let members: usize = self.by_size.values().map(|&(_, k)| k as usize).sum();
        if members != self.members || self.by_size.values().any(|&(_, k)| k == 0) {
            return Err(format!(
                "size tree counts {} members, its runs hold {members}",
                self.members
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bref(offset: usize) -> BlockRef {
        BlockRef::from_index((offset / 8) as u32)
    }

    #[test]
    fn addr_index_first_fit_is_lowest_address() {
        let mut idx = AddrIndex::new();
        let mut s = 0u64;
        idx.insert(Span::new(200, 64), bref(200), &mut s);
        idx.insert(Span::new(0, 64), bref(0), &mut s);
        idx.insert(Span::new(100, 64), bref(100), &mut s);
        let hit = idx.find(FitAlgorithm::FirstFit, 32, &mut s).unwrap();
        assert_eq!(hit.span.offset, 0);
        assert_eq!(hit.block, bref(0));
    }

    /// An empty size tree answers every fit with no block at one step, on
    /// a fresh tree and on one emptied with a next-fit cursor parked.
    #[test]
    fn empty_size_tree_answers_every_fit_at_one_step() {
        let mut idx = SizeTreeIndex::new();
        for round in 0..2 {
            for fit in FitAlgorithm::ALL {
                for len in [8, 64, 4096] {
                    let mut steps = 0u64;
                    assert_eq!(idx.find(fit, len, &mut steps), None, "{fit:?}/{len}");
                    assert_eq!(steps, 1, "round {round}: {fit:?}/{len}");
                }
            }
            let mut s = 0u64;
            let span = Span::new(64, 32);
            idx.insert(span, bref(64), &mut s);
            let hit = idx.find(FitAlgorithm::NextFit, 16, &mut s).unwrap();
            assert_eq!(hit.span, span);
            idx.remove(hit.token, hit.span, &mut s).unwrap();
        }
    }

    /// The size tree runs best fit as first fit, as `executed_fit` says:
    /// both return the same hit — the smallest block that fits, lowest
    /// address first — at the same charge, on a fixed example and over a
    /// random sequence of run inserts, whole-run and first-member
    /// removals and finds.
    #[test]
    fn size_tree_first_fit_equals_best_fit() {
        let runs_as = executed_fit(BlockStructure::SizeOrderedTree, FitAlgorithm::BestFit);
        assert_eq!(runs_as, FitAlgorithm::FirstFit);
        let mut idx = SizeTreeIndex::new();
        let mut s = 0u64;
        idx.insert(Span::new(0, 256), bref(0), &mut s);
        idx.insert(Span::new(256, 32), bref(256), &mut s);
        idx.insert(Span::new(288, 64), bref(288), &mut s);
        let first = idx.find(FitAlgorithm::FirstFit, 48, &mut s).unwrap();
        let best = idx.find(FitAlgorithm::BestFit, 48, &mut s).unwrap();
        assert_eq!(first, best);
        assert_eq!(first.span.len, 64);

        idx.clear();
        // Runs start on distinct 1 KiB slots and span at most 320 bytes.
        let mut live: Vec<Run> = Vec::new();
        let mut x: u64 = 0x5EED_0FBE_57F1_7701;
        for _ in 0..2_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            if live.len() < 3 || !x.is_multiple_of(3) {
                let slot = (x % 512) as usize;
                let member_len = 16 + (x >> 32) as usize % 9 * 8;
                let run = Run::new(slot * 1024, member_len, 1 + (x >> 40) as usize % 4);
                if live.iter().all(|r| r.offset / 1024 != slot) {
                    idx.insert_run(run, bref(run.offset), &mut s);
                    live.push(run);
                }
            } else {
                let i = (x as usize / 5) % live.len();
                let run = live[i];
                if run.count > 1 && x & 8 == 0 {
                    let rest = Run::new(run.member(1).offset, run.len, run.count - 1);
                    let upper = Some(bref(rest.offset));
                    idx.remove_members(NO_TOKEN, run, 0..1, Unlink::Ascending, upper, &mut s)
                        .unwrap();
                    live[i] = rest;
                } else {
                    idx.remove_members(
                        NO_TOKEN,
                        run,
                        0..run.count,
                        Unlink::Ascending,
                        None,
                        &mut s,
                    )
                    .unwrap();
                    live.swap_remove(i);
                }
            }
            let len = 8 + (x >> 48) as usize % 96;
            let (mut ran_steps, mut best_steps) = (0u64, 0u64);
            let ran = idx.find(runs_as, len, &mut ran_steps);
            let best = idx.find(FitAlgorithm::BestFit, len, &mut best_steps);
            assert_eq!(ran, best, "hit for {len} B");
            assert_eq!(ran_steps, best_steps, "charge for {len} B");
            let smallest = live
                .iter()
                .filter(|r| r.len >= len)
                .map(|r| (r.len, r.offset))
                .min();
            assert_eq!(best.map(|f| (f.span.len, f.span.offset)), smallest);
        }
        idx.check_oracle().unwrap();
    }

    #[test]
    fn size_tree_worst_fit_is_largest() {
        let mut idx = SizeTreeIndex::new();
        let mut s = 0u64;
        idx.insert(Span::new(0, 128), bref(0), &mut s);
        idx.insert(Span::new(128, 512), bref(128), &mut s);
        let hit = idx.find(FitAlgorithm::WorstFit, 64, &mut s).unwrap();
        assert_eq!(hit.span.len, 512);
        assert!(idx.find(FitAlgorithm::WorstFit, 1024, &mut s).is_none());
    }

    #[test]
    fn size_tree_exact_fit_misses_close_sizes() {
        let mut idx = SizeTreeIndex::new();
        let mut s = 0u64;
        idx.insert(Span::new(0, 64), bref(0), &mut s);
        assert!(idx.find(FitAlgorithm::ExactFit, 63, &mut s).is_none());
        assert!(idx.find(FitAlgorithm::ExactFit, 65, &mut s).is_none());
        assert_eq!(
            idx.find(FitAlgorithm::ExactFit, 64, &mut s)
                .unwrap()
                .span
                .offset,
            0
        );
    }

    #[test]
    fn addr_index_search_is_linear_tree_is_logarithmic() {
        let mut addr = AddrIndex::new();
        let mut tree = SizeTreeIndex::new();
        let mut s = 0u64;
        for i in 0..1024 {
            addr.insert(Span::new(i * 64, 32), bref(i * 64), &mut s);
            tree.insert(Span::new(i * 64, 32), bref(i * 64), &mut s);
        }
        // Add the only fitting block at the high end.
        addr.insert(Span::new(1024 * 64, 4096), bref(1024 * 64), &mut s);
        tree.insert(Span::new(1024 * 64, 4096), bref(1024 * 64), &mut s);
        let mut addr_steps = 0u64;
        let hit = addr
            .find(FitAlgorithm::BestFit, 4096, &mut addr_steps)
            .unwrap();
        let mut tree_steps = 0u64;
        tree.find(FitAlgorithm::BestFit, 4096, &mut tree_steps)
            .unwrap();
        // The linear charge must equal an independently computed faithful
        // best-fit scan over the same spans (early-break on exact), not a
        // pinned magic constant.
        let mut spans = addr.spans();
        spans.sort();
        let (want, want_steps) = RefScan {
            spans: spans.clone(),
            cursor: None,
        }
        .find(FitAlgorithm::BestFit, 4096);
        assert_eq!(Some(hit.span), want, "winner diverged from the scan");
        assert_eq!(addr_steps, want_steps, "charge diverged from the scan");
        assert!(
            addr_steps as usize > spans.len() / 2,
            "scan should be linear here: {addr_steps}"
        );
        assert!(tree_steps < 16, "{tree_steps}");
    }

    /// Independent flat model of the address-ordered list: a sorted span
    /// vector scanned node by node, with its own NextFit cursor.
    struct RefScan {
        spans: Vec<Span>, // sorted by offset
        cursor: Option<usize>,
    }

    impl RefScan {
        fn new() -> Self {
            RefScan {
                spans: Vec::new(),
                cursor: None,
            }
        }

        fn find(&mut self, fit: FitAlgorithm, len: usize) -> (Option<Span>, u64) {
            let mut steps = 0u64;
            match fit {
                FitAlgorithm::NextFit => {
                    let start = self.cursor.unwrap_or(0);
                    let at = self.spans.partition_point(|s| s.offset < start);
                    let (below, from) = self.spans.split_at(at);
                    let hit = from.iter().chain(below).copied().find(|s| {
                        steps += 1;
                        s.len >= len
                    });
                    if let Some(h) = hit {
                        self.cursor = Some(h.offset + 1);
                    }
                    (hit, steps)
                }
                FitAlgorithm::FirstFit | FitAlgorithm::ExactFit => {
                    let exact = fit == FitAlgorithm::ExactFit;
                    let hit = self.spans.iter().copied().find(|s| {
                        steps += 1;
                        if exact {
                            s.len == len
                        } else {
                            s.len >= len
                        }
                    });
                    (hit, steps)
                }
                FitAlgorithm::BestFit => {
                    let mut best: Option<Span> = None;
                    for s in &self.spans {
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
                    for s in &self.spans {
                        steps += 1;
                        if s.len >= len && worst.is_none_or(|w| s.len > w.len) {
                            worst = Some(*s);
                        }
                    }
                    (worst, steps)
                }
            }
        }
    }

    /// An [`AddrIndex`] driven in lockstep with its [`RefScan`]; every
    /// step runs the whole fit battery and compares winner, charge and
    /// cursor.
    struct Lockstep {
        idx: AddrIndex,
        reference: RefScan,
    }

    impl Lockstep {
        fn new() -> Self {
            Lockstep {
                idx: AddrIndex::new(),
                reference: RefScan::new(),
            }
        }

        /// Insert without searching (the cursor stays where it is).
        fn place(&mut self, span: Span) {
            let mut s = 0u64;
            self.idx.insert(span, bref(span.offset), &mut s);
            let at = self
                .reference
                .spans
                .partition_point(|sp| sp.offset < span.offset);
            self.reference.spans.insert(at, span);
        }

        /// Remove the `i`-th block in address order without searching.
        fn take(&mut self, i: usize) {
            let span = self.reference.spans.remove(i);
            let mut s = 0u64;
            assert_eq!(
                self.idx.remove(NO_TOKEN, span, &mut s),
                Some(bref(span.offset))
            );
        }

        fn insert(&mut self, span: Span) {
            self.place(span);
            self.battery();
        }

        fn remove_at(&mut self, i: usize) {
            self.take(i);
            self.battery();
        }

        fn has(&self, offset: usize) -> bool {
            self.reference.spans.iter().any(|sp| sp.offset == offset)
        }

        /// One NextFit search for `len`, compared like the battery's.
        fn next_fit(&mut self, len: usize) -> Option<Span> {
            self.compare(FitAlgorithm::NextFit, len)
        }

        fn compare(&mut self, fit: FitAlgorithm, len: usize) -> Option<Span> {
            let (want, want_steps) = self.reference.find(fit, len);
            let mut got_steps = 0u64;
            let got = self.idx.find(fit, len, &mut got_steps);
            assert_eq!(got.map(|f| f.span), want, "{fit:?}/{len}");
            assert_eq!(got_steps, want_steps, "{fit:?}/{len} charge diverged");
            assert_eq!(
                self.idx.cursor, self.reference.cursor,
                "{fit:?}/{len} cursor"
            );
            want
        }

        fn battery(&mut self) {
            for fit in FitAlgorithm::ALL {
                for len in [16, 40, 56, 88, 512] {
                    self.compare(fit, len);
                }
            }
            self.idx.check_oracle().unwrap();
        }
    }

    /// Cross-check answer AND charge of every AddrIndex fit — including
    /// the roving NextFit with its parked cursor — against an independent
    /// flat scan of the sorted spans: under random churn, across ascending
    /// runs of more than three chunks drained from either end, with the
    /// cursor parked across a chunk split and a chunk drop, on stale
    /// removes, and after `clear()`.
    #[test]
    fn addr_find_matches_reference_scan_under_churn() {
        use crate::heap::index::rank::CHUNK_MAX;

        let mut ls = Lockstep::new();
        let mut x: u64 = 0xC0FF_EE00_DEAD_0001;
        let mut churn = |ls: &mut Lockstep, rounds: usize| {
            for _ in 0..rounds {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                if ls.reference.spans.len() < 3 || !x.is_multiple_of(3) {
                    let offset = (x % 4096) as usize * 64;
                    if !ls.has(offset) {
                        ls.insert(Span::new(offset, 16 + (x >> 32) as usize % 9 * 8));
                    }
                } else {
                    let i = (x as usize / 5) % ls.reference.spans.len();
                    ls.remove_at(i);
                }
            }
        };
        churn(&mut ls, 600);

        // A sliced granule: an ascending run of more than three chunks
        // above every churned block, drained from the front, then again
        // from the back.
        let base = 1 << 20;
        let run = 4 * CHUNK_MAX - 1;
        let run_span = |k: usize| Span::new(base + 32 * k, 16 + (k % 5) * 24);
        for drain_front in [true, false] {
            for k in 0..run {
                ls.insert(run_span(k));
            }
            for _ in 0..run {
                let first = ls.reference.spans.partition_point(|sp| sp.offset < base);
                let i = if drain_front {
                    first
                } else {
                    ls.reference.spans.len() - 1
                };
                ls.remove_at(i);
            }
        }

        // Cursor parked inside a chunk that then splits under it: park it
        // just past the only 512-byte block, then pack more than a chunk's
        // worth of blocks around it without searching in between.
        for k in 0..CHUNK_MAX {
            ls.place(Span::new(base + 1024 * k, 16));
        }
        let mid = base + 1024 * (CHUNK_MAX / 2) + 512;
        ls.place(Span::new(mid, 512));
        assert_eq!(ls.next_fit(512).map(|sp| sp.offset), Some(mid));
        for j in 1..=CHUNK_MAX / 2 {
            ls.place(Span::new(mid - 8 * j, 16));
            ls.place(Span::new(mid + 8 * j, 16));
        }
        ls.idx.check_oracle().unwrap();
        assert_eq!(ls.next_fit(16).map(|sp| sp.offset), Some(mid + 8));
        ls.battery();

        // Cursor parked in a chunk that is then emptied and dropped: keep
        // only the lowest block, so every chunk above the first goes.
        assert_eq!(ls.next_fit(512).map(|sp| sp.offset), Some(mid));
        while ls.reference.spans.len() > 1 {
            ls.take(ls.reference.spans.len() - 1);
        }
        ls.idx.check_oracle().unwrap();
        let lowest = ls.reference.spans[0];
        assert_eq!(
            ls.next_fit(lowest.len),
            Some(lowest),
            "wraps to the survivor"
        );
        ls.place(Span::new(mid + 64, 64));
        assert_eq!(ls.next_fit(16).map(|sp| sp.offset), Some(mid + 64));
        ls.battery();

        // A stale remove (the entry is already gone, or never existed)
        // misses without disturbing anything.
        ls.remove_at(ls.reference.spans.len() - 1);
        let mut s = 0u64;
        assert_eq!(
            ls.idx.remove(NO_TOKEN, Span::new(mid + 64, 64), &mut s),
            None
        );
        assert_eq!(
            ls.idx.remove(NO_TOKEN, Span::new(7 << 30, 16), &mut s),
            None
        );
        ls.battery();

        // clear() forgets blocks, cursor and length set; the index is
        // reusable, and a length set first built over a long list agrees.
        ls.idx.clear();
        ls.reference = RefScan::new();
        assert!(ls.idx.is_empty() && ls.idx.by_len.is_none());
        for k in 0..run {
            ls.place(run_span(k));
        }
        ls.idx.check_oracle().unwrap();
        assert!(
            ls.idx.by_len.is_none(),
            "only best/exact fit build the length set"
        );
        ls.battery();
        churn(&mut ls, 200);
    }

    /// The NextFit cursor convention: it parks one byte past its hit, so
    /// removing the hit block leaves it in place, and a block inserted
    /// later between that block and its old successor is the next hit.
    #[test]
    fn addr_next_fit_cursor_survives_removal_of_its_block() {
        let mut idx = AddrIndex::new();
        let mut s = 0u64;
        for off in [0usize, 256] {
            idx.insert(Span::new(off, 64), bref(off), &mut s);
        }
        let first = idx.find(FitAlgorithm::NextFit, 64, &mut s).unwrap();
        assert_eq!(first.span.offset, 0);
        assert_eq!(idx.cursor, Some(1));
        idx.remove(first.token, first.span, &mut s).unwrap();
        assert_eq!(idx.cursor, Some(1), "removal must not move the cursor");
        idx.insert(Span::new(128, 64), bref(128), &mut s);
        let second = idx.find(FitAlgorithm::NextFit, 64, &mut s).unwrap();
        assert_eq!(
            second.span.offset, 128,
            "the block inserted past the cursor is next"
        );
    }

    #[test]
    fn size_tree_next_fit_cursor_resets_when_its_block_is_removed() {
        let mut idx = SizeTreeIndex::new();
        let mut s = 0u64;
        idx.insert(Span::new(0, 64), bref(0), &mut s);
        idx.insert(Span::new(100, 64), bref(100), &mut s);
        // NextFit lands on (64, 0) and parks the cursor at (64, 1).
        let first = idx.find(FitAlgorithm::NextFit, 64, &mut s).unwrap();
        assert_eq!(first.span.offset, 0);
        // The found block is taken (allocated), then returned (freed) —
        // the remove must invalidate the cursor it derived from, or the
        // roving pointer skips the re-inserted block forever.
        idx.remove(first.token, first.span, &mut s).unwrap();
        idx.insert(Span::new(0, 64), bref(0), &mut s);
        let second = idx.find(FitAlgorithm::NextFit, 64, &mut s).unwrap();
        assert_eq!(
            second.span.offset, 0,
            "stale cursor skipped the re-inserted block"
        );
    }

    #[test]
    fn size_tree_next_fit_cursor_survives_removal_of_other_blocks() {
        let mut idx = SizeTreeIndex::new();
        let mut s = 0u64;
        for off in [0usize, 100, 200] {
            idx.insert(Span::new(off, 64), bref(off), &mut s);
        }
        let first = idx.find(FitAlgorithm::NextFit, 64, &mut s).unwrap();
        assert_eq!(first.span.offset, 0);
        // Removing a block the cursor was *not* derived from keeps the
        // roving behaviour: the next search continues past the last hit.
        idx.remove(NO_TOKEN, Span::new(200, 64), &mut s).unwrap();
        let second = idx.find(FitAlgorithm::NextFit, 64, &mut s).unwrap();
        assert_eq!(second.span.offset, 100, "cursor must keep roving");
    }

    #[test]
    fn remove_returns_block_and_none_for_absent() {
        let mut idx = SizeTreeIndex::new();
        let mut s = 0u64;
        idx.insert(Span::new(64, 96), bref(64), &mut s);
        assert_eq!(
            idx.remove(NO_TOKEN, Span::new(64, 96), &mut s),
            Some(bref(64))
        );
        assert_eq!(idx.remove(NO_TOKEN, Span::new(64, 96), &mut s), None);
        assert_eq!(idx.len(), 0);
    }
}
