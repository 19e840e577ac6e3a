//! Pool routing — the implementations of trees B1 (*pool division based on
//! size*), B4 (*pool structure*) and the class rounding of A2
//! (*block sizes*).
//!
//! A pool owns one free-block index. With a single pool everything routes to
//! pool 0; with per-class pools the request is classed first (power-of-two
//! or profiled classes) and routed through the pool index structure, whose
//! shape (array / list / tree) determines both the routing step cost and the
//! descriptor overhead bytes.

use crate::heap::block::Span;
use crate::heap::index::{Found, FreeIndex, PoolIndex};
use crate::space::config::DmConfig;
use crate::space::trees::{BlockSizes, BlockStructure, FitAlgorithm, PoolDivision, PoolStructure};
use crate::units::{pow2_class, MIN_BLOCK, POINTER_BYTES, SIZE_FIELD_BYTES};

/// Sentinel pool id for free blocks that are deliberately *not* indexed
/// (carving slack that a non-coalescing manager can never reuse).
pub const UNINDEXED: usize = usize::MAX;

/// Bytes of one pool descriptor, depending on the B4 structure:
/// class size + block count + index anchor, plus the link fields the
/// structure itself needs.
fn descriptor_bytes(structure: PoolStructure) -> usize {
    let base = SIZE_FIELD_BYTES + SIZE_FIELD_BYTES + POINTER_BYTES;
    match structure {
        PoolStructure::Array => base,
        PoolStructure::LinkedList => base + POINTER_BYTES,
        PoolStructure::BinaryTree => base + 2 * POINTER_BYTES,
    }
}

/// The pool set of one policy allocator.
pub struct Pools {
    division: PoolDivision,
    structure: PoolStructure,
    sizes: BlockSizes,
    block_structure: BlockStructure,
    /// Ascending class ceilings for `ProfiledClasses` routing.
    profiled: Vec<usize>,
    indexes: Vec<PoolIndex>,
    /// Cached [`Pools::static_overhead`]. Every index's
    /// `control_overhead_bytes` is a constant of its structure, so the sum
    /// only moves when [`Pools::ensure`] materialises a pool — recomputing
    /// it per allocation event (the manager syncs its system bytes after
    /// every operation) was O(pools) of virtual calls on the replay hot
    /// path.
    overhead: usize,
}

impl std::fmt::Debug for Pools {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pools")
            .field("division", &self.division)
            .field("structure", &self.structure)
            .field("pool_count", &self.indexes.len())
            .finish_non_exhaustive()
    }
}

impl Pools {
    /// Build the pool set for a configuration.
    pub fn new(cfg: &DmConfig) -> Self {
        let mut pools = Pools {
            division: cfg.pool_division,
            structure: cfg.pool_structure,
            sizes: cfg.block_sizes,
            block_structure: cfg.block_structure,
            profiled: cfg.params.profiled_classes.clone(),
            indexes: Vec::new(),
            overhead: 0,
        };
        pools.ensure_initial();
        pools
    }

    /// Create the pools that exist from the start: the single pool, or
    /// every profiled class plus the overflow pool. Power-of-two pools are
    /// created on first use.
    fn ensure_initial(&mut self) {
        match (self.division, self.sizes) {
            (PoolDivision::SinglePool, _) => self.ensure(0),
            (PoolDivision::PoolPerSizeClass, BlockSizes::ProfiledClasses) => {
                self.ensure(self.profiled.len());
            }
            (PoolDivision::PoolPerSizeClass, _) => {}
        }
    }

    fn ensure(&mut self, pool: usize) {
        while self.indexes.len() <= pool {
            let index = PoolIndex::new(self.block_structure);
            self.overhead += descriptor_bytes(self.structure) + index.control_overhead_bytes();
            self.indexes.push(index);
        }
    }

    /// Round a block length according to the A2 decision. Delegates to
    /// [`crate::space::config::class_len_for`] — the same rounding the
    /// footprint-bound analysis assumes, kept in one place by design.
    pub fn class_len(&self, len: usize) -> usize {
        crate::space::config::class_len_for(self.sizes, &self.profiled, len)
    }

    /// Pool id a block of `len` bytes belongs to, charging the routing cost
    /// of the B4 structure.
    pub fn route(&mut self, len: usize, steps: &mut u64) -> usize {
        self.route_times(len, 1, steps)
    }

    /// [`Pools::route`] for each of `times` blocks of `len` bytes — a run's
    /// members. Only the first can create the pool, and the routing cost
    /// is read after it has, so every member is charged the same.
    pub fn route_times(&mut self, len: usize, times: usize, steps: &mut u64) -> usize {
        let pool = match self.division {
            PoolDivision::SinglePool => 0,
            PoolDivision::PoolPerSizeClass => match self.sizes {
                BlockSizes::ProfiledClasses => self
                    .profiled
                    .iter()
                    .position(|&c| c >= len)
                    .unwrap_or(self.profiled.len()),
                // Power-of-two routing also classes `Many` blocks for
                // segregated-fit storage; the block keeps its exact size.
                BlockSizes::PowerOfTwoClasses | BlockSizes::Many => {
                    let class = pow2_class(len);
                    (class.trailing_zeros() - MIN_BLOCK.trailing_zeros()) as usize
                }
            },
        };
        self.ensure(pool);
        *steps += times as u64
            * match self.structure {
                PoolStructure::Array => 1,
                PoolStructure::LinkedList => pool as u64 + 1,
                PoolStructure::BinaryTree => {
                    (usize::BITS - self.indexes.len().max(1).leading_zeros()) as u64
                }
            };
        pool
    }

    /// Mutable access to one pool's index.
    ///
    /// # Panics
    ///
    /// Panics if `pool` does not exist (route first) or is [`UNINDEXED`].
    // Not `std::ops::IndexMut`: that trait must be paired with `Index`,
    // which has no use here.
    #[allow(clippy::should_implement_trait)]
    pub fn index_mut(&mut self, pool: usize) -> &mut PoolIndex {
        assert_ne!(pool, UNINDEXED, "unindexed pseudo-pool has no index");
        &mut self.indexes[pool]
    }

    /// Number of materialised pools.
    pub fn pool_count(&self) -> usize {
        self.indexes.len()
    }

    /// Total free blocks (run members) across all pools.
    pub fn total_free(&self) -> usize {
        self.indexes.iter().map(|i| i.len()).sum()
    }

    /// Snapshot of every indexed block (every run member) with its pool id.
    pub fn all_spans(&self) -> Vec<(usize, Span)> {
        self.indexes
            .iter()
            .enumerate()
            .flat_map(|(p, idx)| idx.spans().into_iter().map(move |s| (p, s)))
            .collect()
    }

    /// Pools with ids strictly greater than `pool`, for larger-class
    /// fallback searches.
    pub fn pools_above(&self, pool: usize) -> std::ops::Range<usize> {
        (pool + 1)..self.indexes.len()
    }

    /// Search one pool (convenience wrapper).
    pub fn find_in(
        &mut self,
        pool: usize,
        fit: FitAlgorithm,
        len: usize,
        steps: &mut u64,
    ) -> Option<Found> {
        self.indexes[pool].find(fit, len, steps)
    }

    /// Static control-structure bytes: pool descriptors plus each index's
    /// own anchors — the paper's *assisting data structures* overhead
    /// (Section 4.1, factor 1b). O(1): maintained incrementally as pools
    /// materialise.
    pub fn static_overhead(&self) -> usize {
        debug_assert_eq!(
            self.overhead,
            self.indexes
                .iter()
                .map(|i| descriptor_bytes(self.structure) + i.control_overhead_bytes())
                .sum::<usize>(),
            "cached static overhead drifted from the recomputed sum"
        );
        self.overhead
    }

    /// Validate every index's rank/select replica against the walked
    /// structure it mirrors (see [`FreeIndex::check_oracle`]). Debug
    /// replays run this per event through the manager's invariant check.
    pub fn check_indexes(&self) -> Result<(), String> {
        for (pool, idx) in self.indexes.iter().enumerate() {
            idx.check_oracle()
                .map_err(|e| format!("pool {pool}: {e}"))?;
        }
        Ok(())
    }

    /// Drop every indexed span (blocks themselves live in the block map)
    /// and every pool routing created: routing costs, larger-class searches
    /// and static overhead read the pool count, so a cleared set must start
    /// where a new one does.
    pub fn clear(&mut self) {
        self.indexes.clear();
        self.overhead = 0;
        self.ensure_initial();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::presets;
    use crate::units::{align_up, MIN_ALIGN};

    #[test]
    fn single_pool_routes_everything_to_zero() {
        let mut pools = Pools::new(&presets::drr_paper());
        let mut s = 0u64;
        assert_eq!(pools.route(16, &mut s), 0);
        assert_eq!(pools.route(1 << 20, &mut s), 0);
        assert_eq!(pools.pool_count(), 1);
    }

    #[test]
    fn pow2_routing_grows_pools_on_demand() {
        let mut pools = Pools::new(&presets::kingsley_like());
        let mut s = 0u64;
        let p16 = pools.route(16, &mut s);
        let p32 = pools.route(32, &mut s);
        let p17 = pools.route(17, &mut s); // classes to 32
        assert_eq!(p16, 0);
        assert_eq!(p32, 1);
        assert_eq!(p17, 1);
        let p4k = pools.route(4096, &mut s);
        assert_eq!(p4k, 8); // 16<<8 = 4096
        assert_eq!(pools.pool_count(), 9);
    }

    #[test]
    fn class_len_matches_a2_decision() {
        let pools = Pools::new(&presets::kingsley_like());
        assert_eq!(pools.class_len(1), 16);
        assert_eq!(pools.class_len(100), 128);
        assert_eq!(pools.class_len(128), 128);

        let pools = Pools::new(&presets::drr_paper());
        assert_eq!(pools.class_len(100), 100, "many sizes keep exact lengths");
    }

    #[test]
    fn profiled_classes_route_with_overflow_pool() {
        let mut cfg = presets::kingsley_like();
        cfg.block_sizes = crate::space::trees::BlockSizes::ProfiledClasses;
        cfg.params.profiled_classes = vec![32, 64, 256];
        cfg.validate().unwrap();
        let mut pools = Pools::new(&cfg);
        let mut s = 0u64;
        assert_eq!(pools.route(20, &mut s), 0);
        assert_eq!(pools.route(64, &mut s), 1);
        assert_eq!(pools.route(65, &mut s), 2);
        assert_eq!(pools.route(1000, &mut s), 3, "overflow pool");
        assert_eq!(pools.class_len(20), 32);
        assert_eq!(pools.class_len(1000), align_up(1000, MIN_ALIGN));
    }

    #[test]
    fn routing_cost_depends_on_pool_structure() {
        use crate::space::trees::{Leaf, PoolStructure};
        let mk = |ps: PoolStructure| {
            let cfg = presets::kingsley_like().with_leaf(Leaf::B4(ps));
            Pools::new(&cfg)
        };
        for (ps, expect_more_than_array) in [
            (PoolStructure::Array, false),
            (PoolStructure::LinkedList, true),
            (PoolStructure::BinaryTree, true),
        ] {
            let mut pools = mk(ps);
            let mut s = 0u64;
            // Populate several pools, then route to a high class.
            for len in [16, 32, 64, 128, 256, 512] {
                pools.route(len, &mut s);
            }
            let mut cost = 0u64;
            pools.route(512, &mut cost);
            if expect_more_than_array {
                assert!(cost > 1, "{ps:?} should cost more than an array hop");
            } else {
                assert_eq!(cost, 1);
            }
        }
    }

    #[test]
    #[should_panic(expected = "unindexed pseudo-pool has no index")]
    fn unindexed_pseudo_pool_has_no_index() {
        let mut pools = Pools::new(&presets::drr_paper());
        let _ = pools.index_mut(UNINDEXED);
    }

    #[test]
    fn unindexed_never_collides_with_a_real_pool() {
        // Route far more classes than any workload uses: the sentinel must
        // stay out of reach of materialised pool ids.
        let mut pools = Pools::new(&presets::kingsley_like());
        let mut s = 0u64;
        for shift in 4..30 {
            let p = pools.route(1usize << shift, &mut s);
            assert_ne!(p, UNINDEXED);
        }
        assert!(pools.pool_count() < UNINDEXED);
    }

    #[test]
    fn many_sizes_route_like_pow2_but_keep_exact_lengths() {
        // With per-class pools, `Many` routes through power-of-two classes
        // for segregated storage while class_len stays exact.
        use crate::space::trees::{BlockSizes, Leaf, PoolDivision};
        let cfg = presets::kingsley_like()
            .with_leaf(Leaf::B1(PoolDivision::PoolPerSizeClass));
        let mut pow2 = Pools::new(&cfg);
        let mut many = Pools::new(&{
            let mut c = cfg.clone();
            c.block_sizes = BlockSizes::Many;
            c
        });
        let mut s = 0u64;
        for len in [1, 16, 17, 100, 1000, 4096] {
            assert_eq!(pow2.route(len, &mut s), many.route(len, &mut s), "len {len}");
            assert_eq!(many.class_len(len), len, "many keeps exact length");
            assert_eq!(pow2.class_len(len), pow2_class(len));
        }
    }

    #[test]
    fn find_in_returns_indexed_spans_and_total_free_tracks_them() {
        use crate::heap::tiling::BlockRef;
        use crate::space::trees::FitAlgorithm;
        let mut pools = Pools::new(&presets::drr_paper());
        let mut s = 0u64;
        let pool = pools.route(64, &mut s);
        assert_eq!(pools.total_free(), 0);
        pools
            .index_mut(pool)
            .insert(Span::new(0, 64), BlockRef::from_index(0), &mut s);
        pools
            .index_mut(pool)
            .insert(Span::new(128, 32), BlockRef::from_index(1), &mut s);
        assert_eq!(pools.total_free(), 2);
        let hit = pools.find_in(pool, FitAlgorithm::BestFit, 48, &mut s);
        assert_eq!(
            hit.map(|f| (f.span, f.block)),
            Some((Span::new(0, 64), BlockRef::from_index(0))),
            "best fit picks the 64-byte span and reports its block"
        );
        pools.clear();
        assert_eq!(pools.total_free(), 0);
    }

    #[test]
    fn clear_drops_the_pools_routing_materialised() {
        let cfg = presets::kingsley_like();
        let fresh = Pools::new(&cfg);
        let mut pools = Pools::new(&cfg);
        let mut s = 0u64;
        pools.route(4096, &mut s);
        assert!(pools.pool_count() > fresh.pool_count());
        pools.clear();
        assert_eq!(pools.pool_count(), fresh.pool_count());
        assert_eq!(pools.static_overhead(), fresh.static_overhead());
    }

    #[test]
    fn pools_above_covers_larger_classes_only() {
        let mut pools = Pools::new(&presets::kingsley_like());
        let mut s = 0u64;
        pools.route(4096, &mut s); // materialise classes 16..=4096
        let above = pools.pools_above(3);
        assert_eq!(above, 4..pools.pool_count());
    }

    #[test]
    fn static_overhead_scales_with_pool_count() {
        let mut pools = Pools::new(&presets::kingsley_like());
        let mut s = 0u64;
        let before = pools.static_overhead();
        pools.route(1 << 16, &mut s); // force many pools into existence
        let after = pools.static_overhead();
        assert!(after > before);
        // Array descriptor (12) + SLL head (4) per pool.
        assert_eq!(after % pools.pool_count(), 0);
        assert_eq!(after / pools.pool_count(), 16);
    }
}
