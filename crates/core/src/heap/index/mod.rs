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

mod linked;
mod ordered;
pub mod rank;

pub use linked::{DllIndex, SllIndex};
pub use ordered::{AddrIndex, SizeTreeIndex};

use crate::heap::block::Span;
use crate::heap::tiling::BlockRef;
use crate::space::trees::{BlockStructure, FitAlgorithm};

/// A located free block: where it is, which tiling block backs it, and the
/// index-internal token that unlinks it without any lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Found {
    /// The span of the located block.
    pub span: Span,
    /// The tiling block the entry indexes.
    pub block: BlockRef,
    /// Token to pass to [`FreeIndex::remove`].
    pub token: usize,
}

/// Common interface of all free-block indexes.
///
/// Implementations must tolerate any interleaving of operations; `steps`
/// accumulates the abstract unit-cost of each operation.
pub trait FreeIndex: std::fmt::Debug {
    /// Add a free span backed by tiling block `block`. Returns the token
    /// that removes this entry in O(1); the caller stores it in the block.
    fn insert(&mut self, span: Span, block: BlockRef, steps: &mut u64) -> usize;

    /// Remove the entry `token`/`span` name; returns the backing block if
    /// the entry was present. A stale token (entry already removed, or
    /// token recycled for a different span) returns `None`.
    fn remove(&mut self, token: usize, span: Span, steps: &mut u64) -> Option<BlockRef>;

    /// Locate (without removing) a span satisfying `fit` for `len` bytes.
    fn find(&mut self, fit: FitAlgorithm, len: usize, steps: &mut u64) -> Option<Found>;

    /// Number of indexed spans.
    fn len(&self) -> usize;

    /// Whether the index holds no spans.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Snapshot of all indexed spans (order unspecified).
    fn spans(&self) -> Vec<Span>;

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

/// Instantiate the index matching an A1 leaf.
pub fn new_index(structure: BlockStructure) -> Box<dyn FreeIndex + Send> {
    match structure {
        BlockStructure::SinglyLinkedList => Box::new(SllIndex::new()),
        BlockStructure::DoublyLinkedList => Box::new(DllIndex::new()),
        BlockStructure::AddressOrderedList => Box::new(AddrIndex::new()),
        BlockStructure::SizeOrderedTree => Box::new(SizeTreeIndex::new()),
    }
}

/// A pool's free index with the A1 leaf resolved by enum, not vtable.
///
/// The pool set holds these instead of `Box<dyn FreeIndex>`: a replay
/// drives a handful of index calls per event through the pool layer, and a
/// predictable four-way match the optimiser can inline through is
/// measurably cheaper than virtual dispatch on that path. The trait object
/// form ([`new_index`]) remains for callers that want open-ended
/// composition.
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
    fn insert(&mut self, span: Span, block: BlockRef, steps: &mut u64) -> usize {
        pool_index_dispatch!(self, idx => idx.insert(span, block, steps))
    }

    #[inline]
    fn remove(&mut self, token: usize, span: Span, steps: &mut u64) -> Option<BlockRef> {
        pool_index_dispatch!(self, idx => idx.remove(token, span, steps))
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

    fn all_indexes() -> Vec<(BlockStructure, Box<dyn FreeIndex + Send>)> {
        BlockStructure::ALL
            .iter()
            .map(|&s| (s, new_index(s)))
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
                idx.insert(Span::new(i * 64, 32 + (i % 3) * 16), bref(i * 64), &mut steps);
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
