//! Free-block index structures — the implementations of the A1
//! (*Block structure*) decision tree.
//!
//! Each index organises the free blocks of one pool and charges
//! [`search steps`](crate::metrics::AllocStats::search_steps) that reflect
//! its real algorithmic cost on the modelled target, so the performance
//! consequences of the A1 decision are measurable as well as the footprint
//! ones.
//!
//! # Handles, tokens and rank-computed walks
//!
//! Since the boundary-tag refactor the indexes speak the handle language
//! of the [`Tiling`](crate::heap::tiling::Tiling): every entry records the
//! [`BlockRef`] of the block it indexes, [`FreeIndex::insert`] returns an
//! opaque *token* the caller stores in that block, and
//! [`FreeIndex::remove`] takes the token (plus the span, which the caller
//! always has in hand) — there are **no** offset→node side lookups left in
//! any index.
//!
//! The simulated cost model is unchanged and bit-identical to the faithful
//! node-by-node walks, but since the order-statistic layer ([`rank`]) *no
//! charge is walked at all*: the linked lists mirror their link order into
//! a rank/select tree, and the address-ordered list is a chunked sorted
//! array that answers rank/select queries itself, so hit distances,
//! early-stop miss charges, and singly-linked unlink positions are each
//! one sub-linear query. The faithful walks stay compiled in as debug
//! shadow oracles — every find asserts the computed answer and charge
//! against them in debug builds, and [`FreeIndex::check_oracle`]
//! revalidates the rank structures per replay event.
//!
//! # Runs
//!
//! An entry stands for a [`Run`] of equal adjacent free blocks — what one
//! fixed-class carve or `grow` creates — with a member count, and an
//! ordinary block is a run of one. The modelled manager still holds one
//! list node per member: [`FreeIndex::len`] counts members,
//! [`FreeIndex::spans`] lists them, every walk oracle visits them, and
//! every charge equals the sum the member-by-member operations would
//! charge. [`FreeIndex::insert_run`] adds a run as if its members were
//! pushed in ascending address order; [`FreeIndex::remove_members`] takes
//! a contiguous range of members out as if they were unlinked one by one
//! in a given [`Unlink`] order, splitting the entry only where members
//! stay on both sides. A fit hit names one member: the one its walk meets
//! first — the highest address in the LIFO lists, the lowest in the
//! ordered indexes (the size tree's worst fit takes the highest) — or, for
//! next fit, the member the cursor reaches.

mod linked;
mod ordered;
pub mod rank;

pub use linked::{DllIndex, SllIndex};
pub use ordered::{executed_fit, AddrIndex, SizeTreeIndex};

use std::ops::Range;

use crate::heap::block::{Run, Span};
use crate::heap::tiling::BlockRef;
use crate::space::trees::{BlockStructure, FitAlgorithm};

/// A located free block: where it is, the run it belongs to, which tiling
/// node backs that run, and the index-internal token that unlinks it
/// without any lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Found {
    /// The span of the located block (one member of `run`).
    pub span: Span,
    /// The run the located block is a member of.
    pub run: Run,
    /// The tiling node the run's entry indexes.
    pub block: BlockRef,
    /// Token to pass to [`FreeIndex::remove_members`].
    pub token: usize,
}

impl Found {
    /// The located block's member index in its run (0 is the lowest).
    pub fn member(&self) -> usize {
        match self.run.count {
            1 => 0,
            _ => (self.span.offset - self.run.offset) / self.run.len,
        }
    }
}

/// The order in which the modelled manager unlinks the members a removal
/// takes, one block at a time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Unlink {
    /// Lowest address first: the deferred sweep, forward coalescing and
    /// in-place realloc growth absorb a run from its bottom.
    Ascending,
    /// Highest address first: backward coalescing and trimming eat a run
    /// from its top.
    Descending,
}

/// Common interface of all free-block indexes.
///
/// Implementations must tolerate any interleaving of operations; `steps`
/// accumulates the abstract unit-cost of each operation.
pub trait FreeIndex: std::fmt::Debug {
    /// Add a run of free blocks backed by tiling node `block`, charging
    /// what inserting its members one by one in ascending address order
    /// would. Returns the token that reaches this entry in O(1); the
    /// caller stores it in the node.
    fn insert_run(&mut self, run: Run, block: BlockRef, steps: &mut u64) -> usize;

    /// Remove members `members` (indexes into `run`, 0 the lowest) of the
    /// entry `token`/`run` name, charging what unlinking them one by one
    /// in `order` would. Members below the range keep the entry, its token
    /// and its block; members above it stay indexed as a run backed by
    /// tiling node `upper`, which must be given exactly when the range
    /// ends below the run's end. Returns the entry's block and the token
    /// of the upper remainder (meaningless without one). A stale token
    /// (entry already removed, or token recycled for a different run)
    /// returns `None`.
    fn remove_members(
        &mut self,
        token: usize,
        run: Run,
        members: Range<usize>,
        order: Unlink,
        upper: Option<BlockRef>,
        steps: &mut u64,
    ) -> Option<(BlockRef, usize)>;

    /// Locate (without removing) a block satisfying `fit` for `len` bytes.
    fn find(&mut self, fit: FitAlgorithm, len: usize, steps: &mut u64) -> Option<Found>;

    /// Number of indexed blocks (run members).
    fn len(&self) -> usize;

    /// Whether the index holds no blocks.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Snapshot of all indexed blocks, one span per run member (order
    /// unspecified).
    fn spans(&self) -> Vec<Span>;

    /// Add one free block: a run of one.
    fn insert(&mut self, span: Span, block: BlockRef, steps: &mut u64) -> usize {
        self.insert_run(Run::single(span), block, steps)
    }

    /// Remove the one-block entry `token`/`span` name; returns the backing
    /// block if the entry was present.
    fn remove(&mut self, token: usize, span: Span, steps: &mut u64) -> Option<BlockRef> {
        self.remove_members(
            token,
            Run::single(span),
            0..1,
            Unlink::Ascending,
            None,
            steps,
        )
        .map(|(block, _)| block)
    }

    /// Drop all spans.
    fn clear(&mut self);

    /// Static control-structure bytes this index costs on the target.
    fn control_overhead_bytes(&self) -> usize;

    /// Validate any rank/select replica against the walked structure it
    /// mirrors (debug replays call this per event). Indexes whose charges
    /// are computed directly from their primary structure have nothing to
    /// cross-check and keep the default.
    fn check_oracle(&self) -> Result<(), String> {
        Ok(())
    }
}

/// A pool's free index with the A1 leaf resolved by enum, not vtable.
///
/// The pool set holds these instead of `Box<dyn FreeIndex>`: a replay
/// drives a handful of index calls per event through the pool layer, and a
/// predictable four-way match the optimiser can inline through is
/// measurably cheaper than virtual dispatch on that path.
#[derive(Debug)]
pub enum PoolIndex {
    /// A1: singly linked list.
    Sll(SllIndex),
    /// A1: doubly linked list.
    Dll(DllIndex),
    /// A1: address-ordered list.
    Addr(AddrIndex),
    /// A1: size-ordered tree.
    SizeTree(SizeTreeIndex),
}

impl PoolIndex {
    /// Instantiate the variant matching an A1 leaf.
    pub fn new(structure: BlockStructure) -> Self {
        match structure {
            BlockStructure::SinglyLinkedList => PoolIndex::Sll(SllIndex::new()),
            BlockStructure::DoublyLinkedList => PoolIndex::Dll(DllIndex::new()),
            BlockStructure::AddressOrderedList => PoolIndex::Addr(AddrIndex::new()),
            BlockStructure::SizeOrderedTree => PoolIndex::SizeTree(SizeTreeIndex::new()),
        }
    }
}

/// Forward every [`FreeIndex`] method through one four-way match.
macro_rules! pool_index_dispatch {
    ($self:expr, $idx:ident => $body:expr) => {
        match $self {
            PoolIndex::Sll($idx) => $body,
            PoolIndex::Dll($idx) => $body,
            PoolIndex::Addr($idx) => $body,
            PoolIndex::SizeTree($idx) => $body,
        }
    };
}

impl FreeIndex for PoolIndex {
    #[inline]
    fn insert_run(&mut self, run: Run, block: BlockRef, steps: &mut u64) -> usize {
        pool_index_dispatch!(self, idx => idx.insert_run(run, block, steps))
    }

    #[inline]
    fn remove_members(
        &mut self,
        token: usize,
        run: Run,
        members: Range<usize>,
        order: Unlink,
        upper: Option<BlockRef>,
        steps: &mut u64,
    ) -> Option<(BlockRef, usize)> {
        pool_index_dispatch!(self, idx => idx.remove_members(token, run, members, order, upper, steps))
    }

    #[inline]
    fn find(&mut self, fit: FitAlgorithm, len: usize, steps: &mut u64) -> Option<Found> {
        pool_index_dispatch!(self, idx => idx.find(fit, len, steps))
    }

    #[inline]
    fn len(&self) -> usize {
        pool_index_dispatch!(self, idx => idx.len())
    }

    fn spans(&self) -> Vec<Span> {
        pool_index_dispatch!(self, idx => idx.spans())
    }

    fn clear(&mut self) {
        pool_index_dispatch!(self, idx => idx.clear())
    }

    fn control_overhead_bytes(&self) -> usize {
        pool_index_dispatch!(self, idx => idx.control_overhead_bytes())
    }

    fn check_oracle(&self) -> Result<(), String> {
        pool_index_dispatch!(self, idx => idx.check_oracle())
    }
}

#[cfg(test)]
mod contract_tests {
    //! Behavioural contract every index implementation must satisfy.

    use super::*;
    use std::collections::HashMap;

    fn all_indexes() -> Vec<(BlockStructure, PoolIndex)> {
        BlockStructure::ALL
            .iter()
            .map(|&s| (s, PoolIndex::new(s)))
            .collect()
    }

    /// Test stand-in for tiling refs: offset / 8 (distinct per span).
    fn bref(offset: usize) -> BlockRef {
        BlockRef::from_index((offset / 8) as u32)
    }

    #[test]
    fn insert_find_remove_round_trip() {
        for (kind, mut idx) in all_indexes() {
            let mut steps = 0u64;
            idx.insert(Span::new(0, 64), bref(0), &mut steps);
            let t64 = idx.insert(Span::new(64, 128), bref(64), &mut steps);
            idx.insert(Span::new(192, 32), bref(192), &mut steps);
            assert_eq!(idx.len(), 3, "{kind:?}");

            for fit in FitAlgorithm::ALL {
                let found = idx.find(fit, 32, &mut steps);
                let f = found.unwrap_or_else(|| panic!("{kind:?}/{fit:?} found nothing"));
                assert!(f.span.len >= 32, "{kind:?}/{fit:?} returned too-small span");
            }

            assert_eq!(
                idx.remove(t64, Span::new(64, 128), &mut steps),
                Some(bref(64)),
                "{kind:?}"
            );
            assert_eq!(
                idx.remove(t64, Span::new(64, 128), &mut steps),
                None,
                "{kind:?} double remove"
            );
            assert_eq!(idx.len(), 2);
            idx.clear();
            assert!(idx.is_empty());
            assert!(idx.find(FitAlgorithm::FirstFit, 1, &mut steps).is_none());
        }
    }

    #[test]
    fn find_reports_the_backing_block_and_a_removing_token() {
        for (kind, mut idx) in all_indexes() {
            let mut steps = 0u64;
            idx.insert(Span::new(0, 64), bref(0), &mut steps);
            idx.insert(Span::new(64, 96), bref(64), &mut steps);
            let f = idx.find(FitAlgorithm::BestFit, 80, &mut steps).unwrap();
            assert_eq!(f.span, Span::new(64, 96), "{kind:?}");
            assert_eq!(f.block, bref(64), "{kind:?}");
            // The reported token removes exactly that entry.
            assert_eq!(idx.remove(f.token, f.span, &mut steps), Some(bref(64)));
            assert_eq!(idx.len(), 1, "{kind:?}");
            assert!(idx.find(FitAlgorithm::BestFit, 80, &mut steps).is_none());
        }
    }

    #[test]
    fn fit_postconditions() {
        for (kind, mut idx) in all_indexes() {
            let mut steps = 0u64;
            let sizes = [48usize, 256, 96, 64, 512, 64];
            for (i, &len) in sizes.iter().enumerate() {
                idx.insert(Span::new(i * 1024, len), bref(i * 1024), &mut steps);
            }
            let need = 64;

            let best = idx.find(FitAlgorithm::BestFit, need, &mut steps).unwrap();
            assert_eq!(best.span.len, 64, "{kind:?} best fit must be tightest");

            let worst = idx.find(FitAlgorithm::WorstFit, need, &mut steps).unwrap();
            assert_eq!(worst.span.len, 512, "{kind:?} worst fit must be largest");

            let exact = idx.find(FitAlgorithm::ExactFit, need, &mut steps).unwrap();
            assert_eq!(exact.span.len, 64, "{kind:?} exact fit must match exactly");
            assert!(
                idx.find(FitAlgorithm::ExactFit, 100, &mut steps).is_none(),
                "{kind:?} exact fit must miss absent sizes"
            );

            let first = idx.find(FitAlgorithm::FirstFit, need, &mut steps).unwrap();
            assert!(first.span.len >= need);

            // Requests larger than everything must miss for every fit.
            for fit in FitAlgorithm::ALL {
                assert!(
                    idx.find(fit, 4096, &mut steps).is_none(),
                    "{kind:?}/{fit:?} fabricated a span"
                );
            }
        }
    }

    #[test]
    fn spans_snapshot_is_complete() {
        for (kind, mut idx) in all_indexes() {
            let mut steps = 0u64;
            let mut expect = Vec::new();
            for i in 0..16 {
                let span = Span::new(i * 100, 16 + i);
                idx.insert(span, bref(i * 104), &mut steps);
                expect.push(span);
            }
            let mut got = idx.spans();
            got.sort();
            expect.sort();
            assert_eq!(got, expect, "{kind:?}");
        }
    }

    #[test]
    fn steps_always_advance() {
        for (kind, mut idx) in all_indexes() {
            let mut steps = 0u64;
            let token = idx.insert(Span::new(0, 64), bref(0), &mut steps);
            assert!(steps > 0, "{kind:?} insert charged nothing");
            let before = steps;
            idx.find(FitAlgorithm::FirstFit, 16, &mut steps);
            assert!(steps > before, "{kind:?} find charged nothing");
            let before = steps;
            idx.remove(token, Span::new(0, 64), &mut steps);
            assert!(steps > before, "{kind:?} remove charged nothing");
        }
    }

    #[test]
    fn next_fit_eventually_visits_everything() {
        // With equal-size blocks, repeated next-fit hits must cycle through
        // distinct offsets rather than hammering one block.
        for (kind, mut idx) in all_indexes() {
            let mut steps = 0u64;
            for i in 0..8 {
                idx.insert(Span::new(i * 64, 64), bref(i * 64), &mut steps);
            }
            let mut seen = std::collections::HashSet::new();
            for _ in 0..32 {
                let f = idx.find(FitAlgorithm::NextFit, 64, &mut steps).unwrap();
                seen.insert(f.span.offset);
            }
            assert!(seen.len() >= 2, "{kind:?} next fit never roved: {seen:?}");
        }
    }

    #[test]
    fn misses_charge_exactly_one_full_walk() {
        // The memoised fast paths must charge what the faithful walk
        // charged: a fit that cannot be satisfied visits every node once.
        for (kind, mut idx) in all_indexes() {
            if matches!(kind, BlockStructure::SizeOrderedTree) {
                continue; // logarithmic by design, not walk-charged
            }
            let mut steps = 0u64;
            for i in 0..10 {
                idx.insert(
                    Span::new(i * 64, 32 + (i % 3) * 16),
                    bref(i * 64),
                    &mut steps,
                );
            }
            for fit in [
                FitAlgorithm::FirstFit,
                FitAlgorithm::NextFit,
                FitAlgorithm::BestFit,
                FitAlgorithm::WorstFit,
                FitAlgorithm::ExactFit,
            ] {
                let mut walk = 0u64;
                assert!(idx.find(fit, 4096, &mut walk).is_none(), "{kind:?}/{fit:?}");
                assert_eq!(walk, 10, "{kind:?}/{fit:?} miss must charge the full walk");
            }
        }
    }

    /// A run-fed index and a member-fed index stay indistinguishable: for
    /// every A1 × C1, one index gets `k`-member runs, the other the same
    /// members one at a time (ascending), and random finds (NextFit ones
    /// park the cursor inside runs), takes of the found block, prefix and
    /// suffix removals and fresh inserts must return the same block, span
    /// and charge from both, with the same length and member spans after
    /// every step.
    #[test]
    fn runs_match_member_by_member_indexes() {
        struct Entry {
            run: Run,
            token: usize,
            block: BlockRef,
        }
        for structure in BlockStructure::ALL {
            for fit in FitAlgorithm::ALL {
                let label = format!("{structure:?}/{fit:?}");
                let mut runs = PoolIndex::new(structure);
                let mut members = PoolIndex::new(structure);
                let mut entries: Vec<Entry> = Vec::new();
                let mut tokens: HashMap<usize, usize> = HashMap::new();
                let mut next_block = 1u32 << 24;
                let mut fresh = || {
                    next_block += 1;
                    BlockRef::from_index(next_block)
                };
                let mut next_addr = 0usize;
                let mut x: u64 = 0x9E37_79B9_7F4A_7C15 ^ (structure as u64) << 8 ^ fit as u64;
                for round in 0..400 {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    let (mut sa, mut sb) = (0u64, 0u64);
                    let op = if entries.len() < 3 { 0 } else { x % 8 };
                    match op {
                        // A fresh run (sometimes a single block).
                        0 | 1 => {
                            let len = [16, 24, 32, 48, 64][(x >> 8) as usize % 5];
                            let k = if op == 0 {
                                1 + (x >> 16) as usize % 40
                            } else {
                                1
                            };
                            let run = Run::new(next_addr, len, k);
                            next_addr += run.span().len + 8 * ((x >> 24) as usize % 2);
                            let block = fresh();
                            let token = runs.insert_run(run, block, &mut sa);
                            entries.push(Entry { run, token, block });
                            for m in run.members() {
                                tokens.insert(m.offset, members.insert(m, bref(m.offset), &mut sb));
                            }
                        }
                        // A find, taken or left in place (which parks a
                        // NextFit cursor inside a run).
                        2..=4 => {
                            let want = [8, 16, 20, 24, 32, 40, 48, 64, 100][(x >> 8) as usize % 9];
                            let fa = runs.find(fit, want, &mut sa);
                            let fb = members.find(fit, want, &mut sb);
                            assert_eq!(fa.map(|f| f.span), fb.map(|f| f.span), "{label}: winner");
                            if let (Some(fa), Some(fb)) = (fa, fb) {
                                assert_eq!(fb.block, bref(fb.span.offset), "{label}");
                                let e = entries
                                    .iter()
                                    .position(|e| e.run == fa.run && e.token == fa.token)
                                    .unwrap_or_else(|| panic!("{label}: found an unknown run"));
                                assert_eq!(fa.block, entries[e].block, "{label}: run's node");
                                if op == 4 {
                                    continue;
                                }
                                let i = fa.member();
                                let k = fa.run.count;
                                let upper = (i + 1 < k).then(&mut fresh);
                                let (_, t) = runs
                                    .remove_members(
                                        fa.token,
                                        fa.run,
                                        i..i + 1,
                                        Unlink::Ascending,
                                        upper,
                                        &mut sa,
                                    )
                                    .expect("found run is live");
                                members
                                    .remove(tokens[&fa.span.offset], fa.span, &mut sb)
                                    .unwrap();
                                let e = entries.swap_remove(e);
                                if i > 0 {
                                    entries.push(Entry {
                                        run: Run::new(e.run.offset, e.run.len, i),
                                        ..e
                                    });
                                }
                                if let Some(block) = upper {
                                    let run =
                                        Run::new(e.run.member(i + 1).offset, e.run.len, k - i - 1);
                                    entries.push(Entry {
                                        run,
                                        token: t,
                                        block,
                                    });
                                }
                            }
                        }
                        // A prefix (ascending) or suffix (descending) of a
                        // random run leaves.
                        _ => {
                            let e = entries.swap_remove((x >> 8) as usize % entries.len());
                            let k = e.run.count;
                            let m = 1 + (x >> 20) as usize % k;
                            let (range, order) = if op % 2 == 0 {
                                (0..m, Unlink::Ascending)
                            } else {
                                (k - m..k, Unlink::Descending)
                            };
                            let upper = (range.end < k).then(&mut fresh);
                            let (block, t) = runs
                                .remove_members(
                                    e.token,
                                    e.run,
                                    range.clone(),
                                    order,
                                    upper,
                                    &mut sa,
                                )
                                .expect("modelled run is live");
                            assert_eq!(block, e.block, "{label}");
                            let mut gone: Vec<usize> = range.clone().collect();
                            if order == Unlink::Descending {
                                gone.reverse();
                            }
                            for j in gone {
                                let m = e.run.member(j);
                                members.remove(tokens[&m.offset], m, &mut sb).unwrap();
                            }
                            if range.start > 0 {
                                entries.push(Entry {
                                    run: Run::new(e.run.offset, e.run.len, range.start),
                                    ..e
                                });
                            }
                            if let Some(block) = upper {
                                let run = Run::new(
                                    e.run.member(range.end).offset,
                                    e.run.len,
                                    k - range.end,
                                );
                                entries.push(Entry {
                                    run,
                                    token: t,
                                    block,
                                });
                            }
                        }
                    }
                    assert_eq!(
                        sa, sb,
                        "{label}: charge diverged at round {round} (op {op})"
                    );
                    assert_eq!(runs.len(), members.len(), "{label}");
                    let (mut a, mut b) = (runs.spans(), members.spans());
                    a.sort();
                    b.sort();
                    assert_eq!(a, b, "{label}: members diverged at round {round}");
                    runs.check_oracle()
                        .unwrap_or_else(|e| panic!("{label}: {e}"));
                    members
                        .check_oracle()
                        .unwrap_or_else(|e| panic!("{label}: {e}"));
                }
            }
        }
    }

    #[test]
    fn tokens_stay_valid_under_churn() {
        // Tokens returned by insert keep removing the right entry across
        // arbitrary interleavings (slot recycling included).
        for (kind, mut idx) in all_indexes() {
            let mut steps = 0u64;
            let mut live: HashMap<usize, (usize, Span)> = HashMap::new();
            let mut x: u64 = 0xDEADBEEFCAFEF00D;
            let mut next_off = 0usize;
            for _ in 0..400 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                if live.len() < 4 || !x.is_multiple_of(3) {
                    let span = Span::new(next_off, 16 + (x % 7) as usize * 16);
                    let token = idx.insert(span, bref(next_off), &mut steps);
                    live.insert(next_off, (token, span));
                    next_off += 1024;
                } else {
                    let &k = live.keys().nth(x as usize % live.len()).unwrap();
                    let (token, span) = live.remove(&k).unwrap();
                    assert_eq!(
                        idx.remove(token, span, &mut steps),
                        Some(bref(span.offset)),
                        "{kind:?}: token failed to remove its span"
                    );
                }
            }
            assert_eq!(idx.len(), live.len(), "{kind:?}");
            let mut got = idx.spans();
            got.sort();
            let mut expect: Vec<Span> = live.values().map(|(_, s)| *s).collect();
            expect.sort();
            assert_eq!(got, expect, "{kind:?}");
        }
    }
}
