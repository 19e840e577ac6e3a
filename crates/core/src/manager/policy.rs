//! The policy allocator: one [`DmConfig`] in, one atomic DM manager out.
//!
//! Every mechanism the search space can express is implemented here and
//! driven purely by the configuration: tag overhead (A3/A4), class rounding
//! (A2), pool routing (B1/B4), fit search (C1), splitting (A5/E1/E2),
//! coalescing (A5/D1/D2) and returning memory to the system. The engine
//! maintains the tiling invariant of the boundary-tag [`Tiling`] store —
//! blocks are addressed by stable [`BlockRef`] handles and carry intrusive
//! neighbour links, so neighbour lookup, split and coalesce are O(1) — and
//! charges search steps that reflect what the chosen structures would
//! really cost.
//!
//! # Class runs
//!
//! A fixed-class carve or `grow` creates `k` adjacent free blocks of one
//! class at once. They are stored as one [`Run`]: one tiling node and one
//! free-index entry with a member count, so carving, growing, sweeping and
//! coalescing cost per run instead of per block. Members leave a run only
//! where the modelled manager separates them — a fit hit takes one member,
//! forward merges and the deferred sweep absorb a prefix, backward merges
//! and trimming a suffix — through `PolicyAllocator::detach`. Every
//! charge, counter and peak is the sum the member-by-member operations
//! would produce.
//!
//! # Dirty stretches
//!
//! The deferred sweep (D2 = deferred) models a walk over the whole heap and
//! charges one step per block. A sweep leaves no two free neighbours that
//! could merge, and only a free node made or split off afterwards can
//! change that, so the simulator lists those nodes and the next sweep
//! visits only their stretches of free nodes, each from its first node and
//! in address order: the merges, index operations and charges are the ones
//! the whole-heap walk would make, in its order. Once the list holds an
//! eighth of the tiling's nodes the sweep walks the whole heap instead.
//! Debug builds check after every sweep that no group could still merge.

use std::ops::Range;

use crate::error::{Error, Result};
use crate::heap::arena::Arena;
use crate::heap::block::{Block, Run, Span};
use crate::heap::index::{executed_fit, FreeIndex, Unlink};
use crate::heap::tiling::{BlockRef, Tiling};
use crate::manager::pools::{Pools, UNINDEXED};
use crate::manager::{Allocator, BlockHandle};
use crate::metrics::AllocStats;
use crate::space::config::DmConfig;
use crate::space::trees::{BlockSizes, CoalesceMaxSizes, CoalesceWhen, FitAlgorithm, PoolDivision};
use crate::units::{align_up, MIN_ALIGN, MIN_BLOCK, SBRK_GRANULARITY};

/// The deferred sweep walks the whole heap once its dirty list would
/// reach `1 / WHOLE_HEAP_SHARE` of the tiling's nodes — at once on heaps
/// under that many nodes. Tiny heaps and sweeps after mass frees thus
/// take the plain walk, where sorting the list and walking back to each
/// stretch's first node would save nothing; it also bounds the list.
const WHOLE_HEAP_SHARE: usize = 8;

/// What the deferred sweeps of a [`PolicyAllocator`] did (debug builds
/// only).
#[cfg(debug_assertions)]
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SweepVisits {
    /// Sweeps that walked the whole heap.
    pub whole: u64,
    /// Sweeps that visited only the listed stretches.
    pub listed: u64,
    /// Tiling nodes the sweeps stepped onto, walking back to a stretch's
    /// first node included.
    pub nodes: u64,
}

/// An atomic DM manager interpreting one point of the search space.
///
/// # Examples
///
/// ```
/// use dmm_core::manager::{Allocator, PolicyAllocator};
/// use dmm_core::space::presets;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut m = PolicyAllocator::new(presets::drr_paper())?;
/// let h = m.alloc(100)?;
/// assert!(m.footprint() >= 100);
/// m.free(h)?;
/// // The paper's custom manager returns coalesced memory to the system.
/// assert_eq!(m.stats().live_requested, 0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct PolicyAllocator {
    cfg: DmConfig,
    /// Interned copy of `cfg.name`, stamped into replay statistics without
    /// allocating (see [`Allocator::name_shared`]).
    name_arc: std::sync::Arc<str>,
    tag_bytes: usize,
    /// The C1 fit the pool indexes run ([`executed_fit`]): the only fit
    /// the manager reads.
    fit: FitAlgorithm,
    arena: Arena,
    blocks: Tiling,
    pools: Pools,
    stats: AllocStats,
    coalesce_dirty: bool,
    /// Free nodes made or split off since the last deferred sweep, with
    /// their offsets then: the stretches the next sweep must visit (D2 =
    /// deferred only; entries may be stale).
    dirty: Vec<(BlockRef, usize)>,
    /// The next deferred sweep walks the whole heap; `dirty` is empty and
    /// stays so.
    sweep_all: bool,
    /// Count of event-boundary [`PolicyAllocator::sync_system`] settles —
    /// lets tests pin "system stats settle exactly once per event".
    #[cfg(debug_assertions)]
    sync_calls: u64,
    #[cfg(debug_assertions)]
    sweep_visits: SweepVisits,
    /// Reusable buffer for the current free run of
    /// [`PolicyAllocator::sweep_coalesce`], as tiling nodes and the members
    /// of each that join it — bounded by the longest run of adjacent free
    /// nodes, reused across sweeps so a deferred-coalescing manager
    /// allocates nothing per pass.
    sweep_run: Vec<(BlockRef, Range<usize>)>,
}

impl PolicyAllocator {
    /// Build a manager from a configuration.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] if the configuration violates an
    /// interdependency rule or parameter constraint.
    pub fn new(cfg: DmConfig) -> Result<Self> {
        cfg.validate()?;
        let arena = match cfg.params.arena_limit {
            Some(l) => Arena::with_limit(l),
            None => Arena::unbounded(),
        };
        let pools = Pools::new(&cfg);
        let mut m = PolicyAllocator {
            name_arc: std::sync::Arc::from(cfg.name.as_str()),
            tag_bytes: cfg.tag_bytes_per_block(),
            fit: executed_fit(cfg.block_structure, cfg.fit),
            arena,
            blocks: Tiling::new(),
            pools,
            stats: AllocStats::default(),
            coalesce_dirty: false,
            dirty: Vec::new(),
            sweep_all: false,
            #[cfg(debug_assertions)]
            sync_calls: 0,
            #[cfg(debug_assertions)]
            sweep_visits: SweepVisits::default(),
            sweep_run: Vec::new(),
            cfg,
        };
        // Full rebase: steady-state events maintain system bytes by delta.
        m.stats.set_system(m.arena.brk(), m.pools.static_overhead());
        Ok(m)
    }

    /// The configuration this manager runs.
    pub fn config(&self) -> &DmConfig {
        &self.cfg
    }

    /// Physical block length for a payload request: payload + tags, aligned,
    /// floored at [`MIN_BLOCK`], then classed per the A2 decision.
    fn block_len_for(&self, req: usize) -> usize {
        let raw = align_up(req + self.tag_bytes, MIN_ALIGN).max(MIN_BLOCK);
        self.pools.class_len(raw)
    }

    /// The fit an exact-fit manager that may split retries with when its
    /// size is missing — A5's "activated according to the availability of
    /// the size of the memory block requested". `None` for every other
    /// configuration (they retry with their own fit, which already
    /// searched).
    fn split_retry_fit(&self) -> Option<FitAlgorithm> {
        (self.fit == FitAlgorithm::ExactFit && self.cfg.may_split())
            .then_some(FitAlgorithm::BestFit)
    }

    /// Settle system statistics at an event boundary.
    ///
    /// `system` and `static_overhead` are maintained incrementally — the
    /// [`PolicyAllocator::sbrk`], [`PolicyAllocator::maybe_trim`] and
    /// [`PolicyAllocator::route`] wrappers push deltas as they happen — so
    /// this only *observes*: the footprint peak is sampled here, and only
    /// here, keeping peak semantics bit-identical to the former
    /// recompute-on-every-sync implementation (an intra-event high-water
    /// mark, e.g. static overhead grown just before a trim, was never
    /// recorded by it either).
    fn sync_system(&mut self) {
        #[cfg(debug_assertions)]
        {
            self.sync_calls += 1;
            debug_assert_eq!(
                self.stats.system,
                self.arena.brk() + self.pools.static_overhead(),
                "incrementally maintained system bytes drifted from the rederived sum"
            );
        }
        self.stats.observe_peak();
    }

    /// Number of event-boundary system settles so far (debug builds only).
    #[cfg(debug_assertions)]
    pub fn sync_system_calls(&self) -> u64 {
        self.sync_calls
    }

    /// What the deferred sweeps did so far (debug builds only).
    #[cfg(debug_assertions)]
    pub fn sweep_visits(&self) -> SweepVisits {
        self.sweep_visits
    }

    /// List the free node `r` at `offset` for the next deferred sweep (D2
    /// = deferred only): a stretch may have become mergeable there. The
    /// list gives way to a whole-heap walk at [`WHOLE_HEAP_SHARE`].
    fn mark_dirty(&mut self, r: BlockRef, offset: usize) {
        if self.cfg.coalesce_when != CoalesceWhen::Deferred || self.sweep_all {
            return;
        }
        if self.dirty.len() >= self.blocks.node_count() / WHOLE_HEAP_SHARE {
            self.dirty.clear();
            self.sweep_all = true;
        } else {
            self.dirty.push((r, offset));
        }
    }

    /// [`Arena::sbrk`] plus incremental stats: counts the call and pushes
    /// the grown bytes into the system counter. No stats move on failure —
    /// the arena rejects an over-limit request without mutating.
    fn sbrk(&mut self, bytes: usize) -> Result<usize> {
        let base = self.arena.sbrk(bytes)?;
        self.stats.sbrk_calls += 1;
        self.stats.on_system_grow(bytes);
        Ok(base)
    }

    /// [`Pools::route`] plus incremental stats: descriptor bytes of any
    /// pool the routing materialises are pushed into the static-overhead
    /// counter.
    fn route(&mut self, len: usize, steps: &mut u64) -> usize {
        self.route_times(len, 1, steps)
    }

    /// [`PolicyAllocator::route`] for each of a run's `times` members.
    fn route_times(&mut self, len: usize, times: usize, steps: &mut u64) -> usize {
        let before = self.pools.static_overhead();
        let pool = self.pools.route_times(len, times, steps);
        let grown = self.pools.static_overhead() - before;
        if grown > 0 {
            self.stats.on_static_grow(grown);
        }
        pool
    }

    /// Index the free run `r` in `pool`, wiring the returned token back
    /// into its node.
    fn index_run(&mut self, r: BlockRef, run: Run, pool: usize, steps: &mut u64) {
        let token = self.pools.index_mut(pool).insert_run(run, r, steps);
        self.blocks.set_index_token(r, token);
    }

    /// Index the free block `r` in `pool` (a run of one).
    fn index_free(&mut self, r: BlockRef, span: Span, pool: usize, steps: &mut u64) {
        self.index_run(r, Run::single(span), pool, steps);
    }

    /// Take members `members` of the free node `r` out of its pool index
    /// (none for [`UNINDEXED`] blocks), charging their one-by-one unlinks
    /// in `order`, and split them off in the tiling. Returns the node now
    /// holding exactly those members: members below them stay in `r`,
    /// members above move to a new node that keeps the index entry and is
    /// listed for the next deferred sweep — a run never swept may merge
    /// within itself.
    fn detach(
        &mut self,
        r: BlockRef,
        members: Range<usize>,
        order: Unlink,
        steps: &mut u64,
    ) -> BlockRef {
        let blk = *self.blocks.get(r);
        let k = blk.count as usize;
        let upper = (members.end < k).then(|| self.blocks.split(r, members.end));
        let taken = if members.start > 0 {
            self.blocks.split(r, members.start)
        } else {
            r
        };
        if blk.pool != UNINDEXED {
            let (_, token) = self
                .pools
                .index_mut(blk.pool)
                .remove_members(blk.index_token, blk.run(), members, order, upper, steps)
                .expect("indexed block's token must be live");
            if let Some(u) = upper {
                self.blocks.set_index_token(u, token);
            }
        }
        if let Some(u) = upper {
            self.mark_dirty(u, self.blocks.get(u).span.offset);
        }
        taken
    }

    /// Insert `len` free bytes at `offset` — physically right after
    /// `anchor` (or as the new top) — into the tiling and pool indexes,
    /// carving to class sizes when A2 fixes them. Slack that fits no class
    /// stays as an unindexed free block (Kingsley's misused memory).
    fn insert_free_carved(
        &mut self,
        anchor: Option<BlockRef>,
        offset: usize,
        len: usize,
        steps: &mut u64,
    ) {
        debug_assert!(len > 0);
        if self.cfg.block_sizes == BlockSizes::Many {
            let pool = self.route(len, steps);
            let span = Span::new(offset, len);
            let r = self.blocks.insert_run(anchor, Block::free(span, pool), 1);
            self.index_free(r, span, pool, steps);
            self.mark_dirty(r, offset);
            return;
        }
        // Fixed classes: greedy carve, largest class first. The greedy
        // choice repeats a class until the rest falls below it, so each
        // class present is cut as one run.
        let mut cursor = anchor;
        let mut at = offset;
        let mut rest = len;
        while rest >= MIN_BLOCK {
            let class = self.largest_class_at_most(rest);
            let Some(class) = class else { break };
            let run = Run::new(at, class, rest / class);
            let pool = self.route_times(class, run.count, steps);
            let r = self
                .blocks
                .insert_run(cursor, Block::free(run.span(), pool), run.count);
            self.index_run(r, run, pool, steps);
            self.mark_dirty(r, at);
            cursor = Some(r);
            at += run.span().len;
            rest -= run.span().len;
        }
        if rest > 0 {
            // Unusable slack: present in the tiling, in no index.
            let slack = Block::free(Span::new(at, rest), UNINDEXED);
            let r = self.blocks.insert_run(cursor, slack, 1);
            self.mark_dirty(r, at);
        }
    }

    /// Largest configured class size that is `<= len`.
    fn largest_class_at_most(&self, len: usize) -> Option<usize> {
        match self.cfg.block_sizes {
            BlockSizes::Many => Some(len),
            BlockSizes::PowerOfTwoClasses => {
                if len < MIN_BLOCK {
                    None
                } else {
                    Some(1usize << (usize::BITS - 1 - len.leading_zeros()))
                }
            }
            BlockSizes::ProfiledClasses => self
                .cfg
                .params
                .profiled_classes
                .iter()
                .rev()
                .copied()
                .find(|&c| c <= len),
        }
    }

    /// Obtain fresh memory for a `block_len` request. Returns a free,
    /// *unindexed* block already present in the tiling.
    fn grow(&mut self, block_len: usize, steps: &mut u64) -> Result<(BlockRef, Span)> {
        self.stats.failed_fits += 1;
        if self.cfg.block_sizes.is_fixed() {
            // Reserve a granule and distribute it among the class lists —
            // the "initial memory region ... distributed among the
            // different lists of block sizes" behaviour of Section 5.
            let reserve = if block_len >= SBRK_GRANULARITY {
                block_len
            } else {
                SBRK_GRANULARITY
            };
            let base = self.sbrk(reserve)?;
            let pool = self.route(block_len, steps);
            // Candidate block for the current request:
            let span = Span::new(base, block_len);
            let candidate = self.blocks.push_top(Block::free(span, UNINDEXED));
            // Siblings of the same class, as one run:
            let siblings = (reserve - block_len) / block_len;
            let at = base + (1 + siblings) * block_len;
            if siblings > 0 {
                let run = Run::new(span.end(), block_len, siblings);
                let r = self
                    .blocks
                    .insert_run(None, Block::free(run.span(), pool), siblings);
                self.index_run(r, run, pool, steps);
                self.mark_dirty(r, run.offset);
            }
            let slack = base + reserve - at;
            if slack > 0 {
                let r = self
                    .blocks
                    .push_top(Block::free(Span::new(at, slack), UNINDEXED));
                self.mark_dirty(r, at);
            }
            return Ok((candidate, span));
        }

        // Many sizes: extend the top free block if the policy can merge new
        // memory into it, otherwise take an exact extension.
        if self.cfg.may_coalesce() {
            if let Some(top_ref) = self.blocks.top() {
                let top = *self.blocks.get(top_ref);
                if top.is_free() && top.span.len < block_len {
                    let need = block_len - top.span.len;
                    self.sbrk(need)?;
                    debug_assert_eq!(top.count, 1, "many sizes never carve runs");
                    self.detach(top_ref, 0..1, Unlink::Ascending, steps);
                    let span = Span::new(top.span.offset, block_len);
                    self.blocks.set_len(top_ref, block_len);
                    self.blocks.set_pool(top_ref, UNINDEXED);
                    let _pool = self.route(block_len, steps);
                    return Ok((top_ref, span));
                }
            }
        }
        let base = self.sbrk(block_len)?;
        let span = Span::new(base, block_len);
        let r = self.blocks.push_top(Block::free(span, UNINDEXED));
        let _pool = self.route(block_len, steps);
        Ok((r, span))
    }

    /// Split the free unindexed block `r` down to `need` bytes if the
    /// E-category policy allows; returns the length actually kept.
    fn try_split(&mut self, r: BlockRef, need: usize, steps: &mut u64) -> usize {
        let span = self.blocks.get(r).span;
        debug_assert!(span.len >= need);
        let remainder = span.len - need;
        let Some(trigger) = self.cfg.split_trigger() else {
            return span.len;
        };
        if remainder < trigger {
            return span.len;
        }
        // Perform the split: shrink this block, carve the remainder.
        self.stats.splits += 1;
        *steps += 2; // re-stamp two tags
        self.blocks.set_len(r, need);
        self.insert_free_carved(Some(r), span.offset + need, remainder, steps);
        need
    }

    /// Immediately merge the free block `r` with free physical neighbours,
    /// honouring the D1 cap. Returns the surviving block — left in the
    /// tiling, free and unindexed — and its merged span. A neighbouring run
    /// is absorbed member by member from the side facing `r`, as far as
    /// the cap allows.
    fn coalesce_at(&mut self, mut r: BlockRef, steps: &mut u64) -> (BlockRef, Span) {
        let cap = self.coalesce_cap();
        let mut span = self.blocks.get(r).span;

        // Forward merges: the next header is one tag read away.
        while let Some(next_ref) = self.blocks.next(r) {
            let next = *self.blocks.get(next_ref);
            let run = next.run();
            let m = run.members_under(span.len, cap);
            if !next.is_free() || m == 0 {
                break;
            }
            *steps += m as u64;
            let gone = self.detach(next_ref, 0..m, Unlink::Ascending, steps);
            self.blocks.remove(gone);
            span = Span::new(span.offset, span.len + m * run.len);
            self.blocks.set_len(r, span.len);
            self.stats.coalesces += m as u64;
            if m < run.count {
                break;
            }
        }

        // Backward merges: O(1) with a footer or prev-size field, otherwise
        // the manager must search its free structures for the predecessor.
        let cheap_prev = self.cfg.cheap_prev();
        while let Some(prev_ref) = self.blocks.prev(r) {
            let prev = *self.blocks.get(prev_ref);
            let run = prev.run();
            let m = run.members_under(span.len, cap);
            if !prev.is_free() || prev.span.end() != span.offset || m == 0 {
                break;
            }
            let m64 = m as u64;
            *steps += if cheap_prev {
                m64
            } else {
                // The search walks every free block, one fewer per merge.
                let free = self.pools.total_free() as u64;
                m64 * (free + 1) - m64 * (m64 - 1) / 2
            };
            let k = run.count;
            let survivor = self.detach(prev_ref, k - m..k, Unlink::Descending, steps);
            self.blocks.fuse(survivor);
            self.blocks.remove(r);
            span = Span::new(run.member(k - m).offset, m * run.len + span.len);
            self.blocks.set_len(survivor, span.len);
            self.blocks.set_free(survivor, UNINDEXED);
            r = survivor;
            self.stats.coalesces += m64;
            if m < k {
                break;
            }
        }
        (r, span)
    }

    /// Deferred coalescing sweep (D2 = deferred): merge adjacent free runs
    /// in address order, honouring the D1 cap, as a walk over the whole
    /// tiling does. It charges that walk, one step per block, though it
    /// visits only the stretches listed since the last sweep unless the
    /// list gave way to the whole heap (see the module docs).
    ///
    /// The walk runs **in place**: only the free run currently being
    /// gathered is buffered (in the reusable `sweep_run` scratch), never a
    /// snapshot of the whole heap — a sweep over a mostly-used heap copies
    /// nothing. Runs are disjoint and each merge keeps its first member's
    /// block (extended over the run) while unlinking the rest, so mutating
    /// behind the cursor cannot disturb the blocks still ahead of it;
    /// charges and ordering are identical to a snapshot-then-merge sweep.
    ///
    /// A listed stretch is swept from its first free node: the cap forms
    /// groups greedily from there, and without a cap a start further up
    /// would leave the part below unmerged. A listed node that left its
    /// offset, was taken or lies in a stretch already swept is skipped.
    fn sweep_coalesce(&mut self, steps: &mut u64) {
        *steps += self.blocks.len() as u64;
        let cap = self.coalesce_cap();
        // Take the scratch so the walk can borrow `self.blocks` freely.
        let mut run = std::mem::take(&mut self.sweep_run);
        if self.sweep_all {
            #[cfg(debug_assertions)]
            {
                self.sweep_visits.whole += 1;
            }
            let mut cursor = self.blocks.first();
            while let Some(r) = cursor {
                cursor = self.sweep_step(r, cap, &mut run, steps);
            }
        } else {
            #[cfg(debug_assertions)]
            {
                self.sweep_visits.listed += 1;
            }
            // Nothing the sweep itself splits off needs listing: it leaves
            // every stretch it touches settled.
            self.sweep_all = true;
            let mut dirty = std::mem::take(&mut self.dirty);
            dirty.sort_unstable_by_key(|&(_, offset)| offset);
            // Offset of the used node that ended the last stretch swept.
            let mut swept_to = 0;
            for &(r, offset) in &dirty {
                if offset < swept_to || !self.blocks.is_live(r) {
                    continue;
                }
                let blk = self.blocks.get(r);
                if blk.span.offset != offset || !blk.is_free() {
                    continue;
                }
                let mut first = r;
                while let Some(p) = self.blocks.prev(first) {
                    if !self.blocks.get(p).is_free() {
                        break;
                    }
                    first = p;
                    #[cfg(debug_assertions)]
                    {
                        self.sweep_visits.nodes += 1;
                    }
                }
                let mut cursor = Some(first);
                while let Some(c) = cursor.filter(|&c| self.blocks.get(c).is_free()) {
                    cursor = self.sweep_step(c, cap, &mut run, steps);
                }
                swept_to = cursor.map_or(usize::MAX, |c| self.blocks.get(c).span.offset);
            }
            dirty.clear();
            self.dirty = dirty;
        }
        #[cfg(debug_assertions)]
        self.assert_settled(cap, &mut run);
        run.clear();
        self.sweep_run = run;
        self.sweep_all = false;
        self.coalesce_dirty = false;
    }

    /// The D1 cap on a merged block's length.
    fn coalesce_cap(&self) -> usize {
        match self.cfg.coalesce_max {
            CoalesceMaxSizes::Unlimited => usize::MAX,
            CoalesceMaxSizes::Capped => self.cfg.params.coalesce_cap,
        }
    }

    /// One step of the deferred sweep at node `r`: merge the free group
    /// starting there, if it holds two members or more. Returns the node
    /// the walk goes on from.
    #[inline(always)]
    fn sweep_step(
        &mut self,
        r: BlockRef,
        cap: usize,
        run: &mut Vec<(BlockRef, Range<usize>)>,
        steps: &mut u64,
    ) -> Option<BlockRef> {
        #[cfg(debug_assertions)]
        {
            self.sweep_visits.nodes += 1;
        }
        let blk = *self.blocks.get(r);
        if !blk.is_free() {
            return self.blocks.next(r);
        }
        let (members, run_len) = self.gather(r, blk.run(), cap, run);
        if members == 1 {
            // A run of one merges nothing; resume after it.
            return self.blocks.next(r);
        }
        // Unlink every member in address order, keep the first one's
        // block and drop the rest.
        let mut survivor = None;
        for (node, range) in run.drain(..) {
            let part = self.detach(node, range, Unlink::Ascending, steps);
            match survivor {
                None => {
                    self.blocks.fuse(part);
                    survivor = Some(part);
                }
                Some(_) => {
                    self.blocks.remove(part);
                }
            }
        }
        let s = survivor.expect("a merged run has a first block");
        self.stats.coalesces += members as u64 - 1; // n blocks -> n-1 merges
        self.blocks.set_len(s, run_len);
        let pool = self.route(run_len, steps);
        self.blocks.set_free(s, pool);
        let span = Span::new(self.blocks.get(s).span.offset, run_len);
        self.index_free(s, span, pool, steps);
        // Resume after the run.
        self.blocks.next(s)
    }

    /// Gather into `run` the free group the sweep merges from the free
    /// node `r`, whose members are `first`, as tiling nodes and the
    /// members of each that join it; returns its member count and length.
    /// The tiling makes every next block physically adjacent; only the D1
    /// cap ends a group early.
    ///
    /// A class run takes part by members: the cap cuts it into groups of as
    /// many members as fit together, each merged on its own, and when no
    /// two fit together only its top member can start a merge with what
    /// follows — the members below it are free runs of one, which merge
    /// nothing.
    fn gather(
        &self,
        r: BlockRef,
        first: Run,
        cap: usize,
        run: &mut Vec<(BlockRef, Range<usize>)>,
    ) -> (usize, usize) {
        let group = first.members_under(0, cap).max(1);
        let lead = if group == 1 {
            first.count - 1..first.count
        } else {
            0..group
        };
        let mut run_len = lead.len() * first.len;
        let mut members = lead.len();
        let whole = lead.end == first.count;
        run.clear();
        run.push((r, lead));
        let mut tail = r;
        while let Some(next_ref) = self.blocks.next(tail).filter(|_| whole) {
            let next = *self.blocks.get(next_ref);
            let nrun = next.run();
            let m = nrun.members_under(run_len, cap);
            if !next.is_free() || m == 0 {
                break;
            }
            run_len += m * nrun.len;
            members += m;
            run.push((next_ref, 0..m));
            if m < nrun.count {
                break;
            }
            tail = next_ref;
        }
        (members, run_len)
    }

    /// Debug oracle: after a sweep no free node may start a group of two
    /// members or more — a whole-heap sweep straight after would merge
    /// nothing.
    #[cfg(debug_assertions)]
    fn assert_settled(&self, cap: usize, run: &mut Vec<(BlockRef, Range<usize>)>) {
        for (r, blk) in self.blocks.iter() {
            if blk.is_free() {
                let (members, _) = self.gather(r, blk.run(), cap, run);
                assert_eq!(
                    members, 1,
                    "the deferred sweep left a mergeable group at {}",
                    blk.span.offset
                );
            }
        }
    }

    /// Give the top of the arena back to the system when the configuration
    /// asks for it.
    fn maybe_trim(&mut self, steps: &mut u64) {
        let Some(threshold) = self.cfg.params.trim_threshold else {
            return;
        };
        while let Some(top_ref) = self.blocks.top() {
            let top = *self.blocks.get(top_ref);
            if !top.is_free() || top.member_len() < threshold {
                break;
            }
            // Every member of a top run is as large as the first: trim them
            // all, top down.
            let k = top.count as usize;
            *steps += k as u64;
            let gone = self.detach(top_ref, 0..k, Unlink::Descending, steps);
            self.blocks.remove(gone);
            let released = self.arena.brk() - top.span.offset;
            self.arena.trim(top.span.offset);
            self.stats.on_system_shrink(released);
            self.stats.trims += k as u64;
        }
    }

    /// Resolve a handle to its live (used) block.
    ///
    /// O(1) through the tiling slot the handle carries, validated against
    /// the handle's offset so a recycled slot cannot free an unrelated
    /// block. Slotless or stale handles fall back to the linear offset
    /// scan, which reproduces the legacy offset-keyed semantics exactly:
    /// a free is valid iff a used block starts at the handle's offset.
    /// The fallback walk is real work the paper's model must see, so it
    /// charges one step per block visited into `steps`; the slotted fast
    /// path charges nothing beyond the caller's tag read.
    fn resolve_used(&self, handle: BlockHandle, steps: &mut u64) -> Option<BlockRef> {
        let offset = handle.offset();
        if let Some(slot) = handle.slot() {
            let r = BlockRef::from_index(slot);
            if self.blocks.is_live(r) {
                let b = self.blocks.get(r);
                if b.span.offset == offset && !b.is_free() {
                    return Some(r);
                }
            }
        }
        let r = self.blocks.find_by_offset_charged(offset, steps)?;
        (!self.blocks.get(r).is_free()).then_some(r)
    }

    /// Common epilogue of the in-place realloc cases: account the event,
    /// optionally trim, and settle system stats exactly once.
    ///
    /// `trim_after` reproduces the shrink case's pinned quirk: the trim
    /// runs *after* the search-step settle, so its steps were always
    /// dropped from `search_steps`. That stays — golden digests pin it.
    fn finish_in_place(&mut self, steps: u64, trim_after: bool) {
        self.stats.reallocs_in_place += 1;
        self.stats.search_steps += steps;
        if trim_after {
            let mut dropped = 0u64;
            self.maybe_trim(&mut dropped);
        }
        self.sync_system();
    }

    /// Verify every internal invariant; returns a description of the first
    /// violation. Used by tests, property checks, and — per event, in
    /// debug builds — the replay kernels (via [`Allocator::check_invariants`]).
    pub fn check_invariants(&self) -> std::result::Result<(), String> {
        if let Some(err) = self.blocks.check_tiling(self.arena.brk()) {
            return Err(format!("tiling violated: {err}"));
        }
        // Rank replicas (position tree + size map) must mirror the faithful
        // structures they answer for — see `heap::index::rank`.
        self.pools
            .check_indexes()
            .map_err(|e| format!("index replica violated: {e}"))?;
        // One snapshot of every indexed span; duplicates across indexes are
        // caught on insertion. (This check runs per event in debug replays,
        // so it is one map and one tiling pass, not several.)
        let mut indexed: std::collections::HashMap<usize, (usize, Span)> =
            std::collections::HashMap::new();
        for (pool, span) in self.pools.all_spans() {
            if indexed.insert(span.offset, (pool, span)).is_some() {
                return Err(format!("span at {} indexed twice", span.offset));
            }
        }
        // Walk the tiling once: every free block with a pool assignment
        // must be indexed with agreeing span and pool; used blocks must not
        // be indexed; live accounting must match.
        let mut matched = 0usize;
        let (mut live_req, mut live_block) = (0usize, 0usize);
        for (_, blk) in self.blocks.iter() {
            if blk.is_free() {
                if blk.pool == UNINDEXED {
                    continue;
                }
                for member in blk.run().members() {
                    let Some(&(pool, span)) = indexed.get(&member.offset) else {
                        return Err(format!(
                            "free block at {} claims pool {} but is unindexed",
                            member.offset, blk.pool
                        ));
                    };
                    if span != member {
                        return Err(format!("indexed span {span:?} disagrees with {member:?}"));
                    }
                    if pool != blk.pool {
                        return Err(format!(
                            "indexed span {span:?} pool {pool} disagrees with block pool {}",
                            blk.pool
                        ));
                    }
                    matched += 1;
                }
            } else {
                if indexed.contains_key(&blk.span.offset) {
                    return Err(format!("indexed span at {} is not free", blk.span.offset));
                }
                live_req += blk.requested;
                live_block += blk.span.len;
            }
        }
        if matched != indexed.len() {
            return Err(format!(
                "{} indexed spans name no live free block in the tiling",
                indexed.len() - matched
            ));
        }
        if live_req != self.stats.live_requested {
            return Err(format!(
                "live_requested {} != tiling sum {live_req}",
                self.stats.live_requested
            ));
        }
        if live_block != self.stats.live_block {
            return Err(format!(
                "live_block {} != tiling sum {live_block}",
                self.stats.live_block
            ));
        }
        Ok(())
    }

    /// Number of free blocks currently indexed (diagnostic).
    pub fn free_block_count(&self) -> usize {
        self.pools.total_free()
    }
}

impl Allocator for PolicyAllocator {
    fn name(&self) -> &str {
        &self.cfg.name
    }

    fn name_shared(&self) -> std::sync::Arc<str> {
        self.name_arc.clone()
    }

    fn alloc(&mut self, req: usize) -> Result<BlockHandle> {
        let req = req.max(1);
        let mut steps = 0u64;
        let block_len = self.block_len_for(req);
        let home = self.route(block_len, &mut steps);
        let fit = self.fit;

        let mut found = self
            .pools
            .find_in(home, fit, block_len, &mut steps)
            .map(|f| (home, f));

        // Exact fit missing its size falls through to splitting a larger
        // block (the A5 availability rule — see `split_retry_fit`).
        if found.is_none() {
            if let Some(retry) = self.split_retry_fit() {
                found = self
                    .pools
                    .find_in(home, retry, block_len, &mut steps)
                    .map(|f| (home, f));
            }
        }

        // Deferred coalescing reacts to an allocation miss.
        if found.is_none()
            && self.cfg.coalesce_when == CoalesceWhen::Deferred
            && self.coalesce_dirty
        {
            self.sweep_coalesce(&mut steps);
            let retry_fit = self.split_retry_fit().unwrap_or(fit);
            found = self
                .pools
                .find_in(home, retry_fit, block_len, &mut steps)
                .map(|f| (home, f));
        }

        // Segregated managers that can split search larger classes next.
        if found.is_none()
            && self.cfg.pool_division == PoolDivision::PoolPerSizeClass
            && self.cfg.may_split()
        {
            for p in self.pools.pools_above(home) {
                if let Some(f) =
                    self.pools
                        .find_in(p, FitAlgorithm::FirstFit, block_len, &mut steps)
                {
                    found = Some((p, f));
                    break;
                }
            }
        }

        let (r, span) = match found {
            Some((pool, f)) => {
                debug_assert_eq!(self.blocks.get(f.block).pool, pool, "found in its pool");
                let i = f.member();
                let r = self.detach(f.block, i..i + 1, Unlink::Ascending, &mut steps);
                self.blocks.set_pool(r, UNINDEXED);
                (r, f.span)
            }
            None => self.grow(block_len, &mut steps)?,
        };

        let kept = self.try_split(r, block_len, &mut steps);
        let home_final = self.route(kept, &mut steps);
        self.blocks.set_used(r, req, home_final);
        steps += 1; // stamp the tag

        self.stats.on_alloc(req, kept);
        self.stats.search_steps += steps;
        self.sync_system();
        Ok(BlockHandle::with_slot(span.offset, r.index(), 0))
    }

    fn free(&mut self, handle: BlockHandle) -> Result<()> {
        let mut steps = 1u64; // read the tag
        let offset = handle.offset();
        let Some(r) = self.resolve_used(handle, &mut steps) else {
            return Err(Error::InvalidFree { offset });
        };
        let blk = *self.blocks.get(r);
        let (req, len) = (blk.requested, blk.span.len);
        self.stats.on_free(req, len);
        self.blocks.set_free(r, UNINDEXED);

        match self.cfg.coalesce_when {
            CoalesceWhen::Always => {
                let (mr, span) = self.coalesce_at(r, &mut steps);
                let pool = self.route(span.len, &mut steps);
                self.blocks.set_pool(mr, pool);
                self.index_free(mr, span, pool, &mut steps);
            }
            CoalesceWhen::Deferred | CoalesceWhen::Never => {
                let span = Span::new(offset, len);
                let pool = self.route(len, &mut steps);
                self.blocks.set_pool(r, pool);
                self.index_free(r, span, pool, &mut steps);
                if self.cfg.coalesce_when == CoalesceWhen::Deferred {
                    self.coalesce_dirty = true;
                    self.mark_dirty(r, offset);
                }
            }
        }

        self.maybe_trim(&mut steps);
        self.stats.search_steps += steps;
        self.sync_system();
        Ok(())
    }

    fn realloc(&mut self, handle: BlockHandle, new_req: usize) -> Result<BlockHandle> {
        let new_req = new_req.max(1);
        let offset = handle.offset();
        let mut steps = 1u64; // read the tag
        let Some(r) = self.resolve_used(handle, &mut steps) else {
            return Err(Error::InvalidFree { offset });
        };
        let blk = *self.blocks.get(r);
        let (old_req, old_len) = (blk.requested, blk.span.len);
        self.stats.reallocs += 1;
        let new_len = self.block_len_for(new_req);

        // Case 1: the existing block already fits (same class, or a shrink
        // whose tail is not worth splitting off).
        let fits_in_place = new_len == old_len
            || (new_len < old_len
                && self
                    .cfg
                    .split_trigger()
                    .is_none_or(|t| old_len - new_len < t));
        if fits_in_place {
            self.blocks.set_requested(r, new_req);
            self.stats.on_resize(old_req, new_req, old_len, old_len);
            self.finish_in_place(steps, false);
            return Ok(handle);
        }

        // Case 2: shrink by splitting the tail off in place.
        if new_len < old_len && self.cfg.may_split() {
            self.stats.splits += 1;
            steps += 2;
            self.blocks.set_len(r, new_len);
            self.blocks.set_requested(r, new_req);
            let tail = offset + new_len;
            let tail_len = old_len - new_len;
            self.insert_free_carved(Some(r), tail, tail_len, &mut steps);
            if self.cfg.coalesce_when == CoalesceWhen::Always {
                // Merge the tail with a free successor right away.
                if let Some(tail_ref) = self.blocks.next(r) {
                    let tail_blk = *self.blocks.get(tail_ref);
                    if tail_blk.is_free() && tail_blk.pool != UNINDEXED {
                        // The first carved block; the rest of its run is
                        // what it then merges forward with.
                        let tail_ref = self.detach(tail_ref, 0..1, Unlink::Ascending, &mut steps);
                        self.blocks.set_pool(tail_ref, UNINDEXED);
                        let (mr, span) = self.coalesce_at(tail_ref, &mut steps);
                        let pool = self.route(span.len, &mut steps);
                        self.blocks.set_pool(mr, pool);
                        self.index_free(mr, span, pool, &mut steps);
                    }
                }
            }
            self.stats.on_resize(old_req, new_req, old_len, new_len);
            self.finish_in_place(steps, true);
            return Ok(handle);
        }

        // Case 3: grow in place by absorbing the free successor.
        if new_len > old_len && self.cfg.may_coalesce() {
            if let Some(next_ref) = self.blocks.next(r) {
                let next = *self.blocks.get(next_ref);
                if next.is_free() && old_len + next.member_len() >= new_len {
                    // Absorb the successor — the first member of a run.
                    steps += 1;
                    let first = self.detach(next_ref, 0..1, Unlink::Ascending, &mut steps);
                    self.blocks.remove(first);
                    let absorbed = old_len + next.member_len();
                    self.blocks.set_len(r, absorbed);
                    self.blocks.set_requested(r, new_req);
                    self.stats.coalesces += 1;
                    // Split the surplus back off if the policy allows.
                    let kept = self.try_split(r, new_len, &mut steps);
                    self.stats.on_resize(old_req, new_req, old_len, kept);
                    self.finish_in_place(steps, false);
                    return Ok(handle);
                }
            }
        }

        // Case 4: move — allocate, then free (classic realloc). The two
        // nested events each settle system stats once, and both settles
        // are load-bearing: the alloc's settle may record a footprint
        // peak that the free's trim then releases.
        self.stats.search_steps += steps;
        let new = self.alloc(new_req)?;
        self.free(handle)?;
        Ok(new)
    }

    fn footprint(&self) -> usize {
        self.stats.system
    }

    fn stats(&self) -> &AllocStats {
        &self.stats
    }

    fn check_invariants(&self) -> std::result::Result<(), String> {
        PolicyAllocator::check_invariants(self)
    }

    fn reset(&mut self) {
        self.arena.reset();
        self.blocks.clear();
        self.pools.clear();
        self.stats = AllocStats::default();
        self.coalesce_dirty = false;
        self.dirty.clear();
        self.sweep_all = false;
        // Full rebase, mirroring `new` — deltas resume from here.
        self.stats
            .set_system(self.arena.brk(), self.pools.static_overhead());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::presets;
    use crate::space::trees::{BlockTags, Leaf, SplitWhen};

    fn drr() -> PolicyAllocator {
        PolicyAllocator::new(presets::drr_paper()).unwrap()
    }

    fn kingsley() -> PolicyAllocator {
        PolicyAllocator::new(presets::kingsley_like()).unwrap()
    }

    fn lea() -> PolicyAllocator {
        PolicyAllocator::new(presets::lea_like()).unwrap()
    }

    #[test]
    fn alloc_free_round_trip_all_presets() {
        for cfg in presets::all() {
            let mut m = PolicyAllocator::new(cfg).unwrap();
            let h = m.alloc(100).unwrap();
            assert!(m.footprint() >= 100, "{}", m.name());
            m.free(h).unwrap();
            m.check_invariants()
                .unwrap_or_else(|e| panic!("{}: {e}", m.name()));
            assert_eq!(m.stats().live_requested, 0);
            assert_eq!(m.stats().allocs, 1);
            assert_eq!(m.stats().frees, 1);
        }
    }

    #[test]
    fn double_free_is_rejected() {
        let mut m = drr();
        let h = m.alloc(64).unwrap();
        m.free(h).unwrap();
        assert!(matches!(m.free(h), Err(Error::InvalidFree { .. })));
    }

    #[test]
    fn bogus_handle_is_rejected() {
        let mut m = drr();
        let _ = m.alloc(64).unwrap();
        let bogus = BlockHandle::new(999_999, 0);
        assert!(m.free(bogus).is_err());
    }

    #[test]
    fn slotless_handle_resolves_through_the_offset_fallback() {
        // A handle minted without a tiling slot (the legacy constructor)
        // must still free the used block starting at its offset.
        let mut m = drr();
        let h = m.alloc(64).unwrap();
        assert!(h.slot().is_some(), "policy handles carry their slot");
        let legacy = BlockHandle::new(h.offset(), 0);
        m.free(legacy).unwrap();
        assert_eq!(m.stats().live_requested, 0);
        m.check_invariants().unwrap();
    }

    #[test]
    fn slotless_free_charges_the_fallback_walk() {
        // The linear offset resolve is real work: freeing through a
        // slotless handle must cost more search steps than freeing the
        // same block through its slotted handle does.
        let mut a = drr();
        let mut b = drr();
        for m in [&mut a, &mut b] {
            for _ in 0..8 {
                let _ = m.alloc(64).unwrap();
            }
        }
        let ha = a.alloc(64).unwrap();
        let hb = b.alloc(64).unwrap();
        assert_eq!(a.stats().search_steps, b.stats().search_steps);
        a.free(ha).unwrap();
        let slotted_cost = a.stats().search_steps;
        b.free(BlockHandle::new(hb.offset(), 0)).unwrap();
        let slotless_cost = b.stats().search_steps;
        assert!(
            slotless_cost > slotted_cost,
            "slotless resolve walked the tiling for free: {slotless_cost} vs {slotted_cost}"
        );
    }

    #[cfg(debug_assertions)]
    #[test]
    fn system_stats_settle_exactly_once_per_event() {
        // The debug settle counter pins "one sync per event" for every
        // in-place realloc case; the moving case is two nested events
        // (alloc + free) and settles twice.
        let mut m = lea(); // may_split + may_coalesce: all four cases reachable
        let sync_delta = |m: &mut PolicyAllocator, f: &mut dyn FnMut(&mut PolicyAllocator)| {
            let before = m.sync_system_calls();
            f(m);
            m.sync_system_calls() - before
        };

        let h = m.alloc(4096).unwrap();
        // Case 1: same block length — fits in place.
        let h = {
            let mut out = None;
            let d = sync_delta(&mut m, &mut |m| out = Some(m.realloc(h, 4090).unwrap()));
            assert_eq!(d, 1, "fit-in-place realloc must settle once");
            out.unwrap()
        };
        // Case 2: shrink splits the tail off in place.
        let h = {
            let mut out = None;
            let d = sync_delta(&mut m, &mut |m| out = Some(m.realloc(h, 512).unwrap()));
            assert_eq!(d, 1, "shrink-in-place realloc must settle once");
            out.unwrap()
        };
        // Case 3: grow absorbs the free successor left by the shrink.
        let h = {
            let mut out = None;
            let d = sync_delta(&mut m, &mut |m| out = Some(m.realloc(h, 2048).unwrap()));
            assert_eq!(d, 1, "grow-in-place realloc must settle once");
            out.unwrap()
        };
        // Case 4: pin the block with a neighbour so growth must move.
        let pin = {
            let mut out = None;
            let d = sync_delta(&mut m, &mut |m| out = Some(m.alloc(64).unwrap()));
            assert_eq!(d, 1, "alloc must settle once");
            out.unwrap()
        };
        let h2 = {
            let mut out = None;
            let d = sync_delta(&mut m, &mut |m| out = Some(m.realloc(h, 1 << 20).unwrap()));
            assert_eq!(d, 2, "moving realloc is two nested events");
            out.unwrap()
        };
        assert_ne!(h2.offset(), h.offset(), "the moving case must have moved");
        let d = sync_delta(&mut m, &mut |m| m.free(h2).unwrap());
        assert_eq!(d, 1, "free must settle once");
        m.free(pin).unwrap();
        m.check_invariants().unwrap();
    }

    #[test]
    fn zero_byte_request_is_served() {
        let mut m = drr();
        let h = m.alloc(0).unwrap();
        m.free(h).unwrap();
        m.check_invariants().unwrap();
    }

    #[test]
    fn kingsley_rounds_to_powers_of_two() {
        let mut m = kingsley();
        let _ = m.alloc(100).unwrap(); // block: 100+4 tag -> 104 -> class 128
        assert_eq!(m.stats().live_block, 128);
        assert_eq!(m.stats().internal_fragmentation(), 28);
    }

    #[test]
    fn kingsley_distributes_a_granule_and_never_returns() {
        let mut m = kingsley();
        let h = m.alloc(24).unwrap();
        // One page was reserved and carved into 32-byte blocks.
        assert_eq!(m.footprint() - m.stats().static_overhead, 4096);
        m.free(h).unwrap();
        assert_eq!(
            m.footprint() - m.stats().static_overhead,
            4096,
            "Kingsley never trims"
        );
        assert_eq!(m.stats().trims, 0);
        m.check_invariants().unwrap();
    }

    #[test]
    fn fixed_class_grow_stores_its_siblings_as_one_run() {
        let mut m = kingsley();
        let h = m.alloc(24).unwrap();
        // One 4096-byte granule: the 32-byte candidate plus 127 siblings,
        // every one a modelled free block, all in one tiling node.
        assert_eq!(m.free_block_count(), 127);
        assert_eq!(m.blocks.len(), 128);
        assert_eq!(m.blocks.iter().count(), 2);
        // Taking a sibling splits one member off the run.
        let h2 = m.alloc(24).unwrap();
        assert_eq!(m.free_block_count(), 126);
        assert_eq!(m.blocks.iter().count(), 3);
        m.check_invariants().unwrap();
        m.free(h).unwrap();
        m.free(h2).unwrap();
        m.check_invariants().unwrap();
    }

    #[test]
    fn drr_custom_returns_memory_to_system() {
        let mut m = drr();
        let handles: Vec<_> = (0..64).map(|_| m.alloc(512).unwrap()).collect();
        let peak = m.footprint();
        assert!(peak >= 64 * 512);
        for h in handles {
            m.free(h).unwrap();
        }
        m.check_invariants().unwrap();
        // Everything coalesced into the top block and was trimmed away.
        assert_eq!(m.stats().system - m.stats().static_overhead, 0);
        assert!(m.stats().trims >= 1);
        assert_eq!(m.stats().peak_footprint, peak);
    }

    #[test]
    fn splitting_reuses_a_large_block_for_small_requests() {
        let mut m = drr();
        let big = m.alloc(1024).unwrap();
        m.free(big).unwrap();
        // trim threshold is one granule (4096); 1024+tag stays resident.
        let before = m.stats().sbrk_calls;
        let a = m.alloc(100).unwrap();
        let b = m.alloc(100).unwrap();
        assert_eq!(
            m.stats().sbrk_calls,
            before,
            "small requests must be served by splitting the freed block"
        );
        assert!(m.stats().splits >= 2);
        m.free(a).unwrap();
        m.free(b).unwrap();
        m.check_invariants().unwrap();
    }

    #[test]
    fn split_retry_fit_applies_to_splitting_exact_fit_only() {
        // The deduplicated A5 fallback: an exact-fit manager that may
        // split retries with best fit; everything else has no special
        // retry (its own fit already searched).
        assert_eq!(drr().split_retry_fit(), Some(FitAlgorithm::BestFit));
        assert_eq!(kingsley().split_retry_fit(), None, "first fit: no retry");
        assert_eq!(lea().split_retry_fit(), None, "best fit: no retry");
        let no_split = presets::drr_paper()
            .with_leaf(Leaf::E2(SplitWhen::Never))
            .with_leaf(Leaf::A5(crate::space::trees::FlexibleSize::CoalesceOnly));
        no_split.validate().unwrap();
        let m = PolicyAllocator::new(no_split).unwrap();
        assert_eq!(
            m.split_retry_fit(),
            None,
            "exact fit without split: no retry"
        );
    }

    #[test]
    fn exact_fit_split_retry_also_fires_after_a_deferred_sweep() {
        // Both call sites of the retry selection: the plain miss and the
        // post-sweep retry must pick best fit for a splitting exact-fit
        // manager — the sweep-merged block is found and split, with no
        // fresh system memory.
        let mut cfg = presets::drr_paper();
        cfg.coalesce_when = CoalesceWhen::Deferred;
        cfg.params.trim_threshold = None;
        cfg.validate().unwrap();
        let mut m = PolicyAllocator::new(cfg).unwrap();
        let hs: Vec<_> = (0..4).map(|_| m.alloc(300).unwrap()).collect();
        for h in hs {
            m.free(h).unwrap();
        }
        assert_eq!(m.stats().coalesces, 0, "deferred: nothing merged yet");
        let sbrks = m.stats().sbrk_calls;
        // 1000 bytes fit no single 300-byte block: exact fit misses, the
        // best-fit retry misses, the sweep merges, the post-sweep best-fit
        // retry finds the merged block and splits it.
        let big = m.alloc(1000).unwrap();
        assert!(m.stats().coalesces > 0, "sweep must have merged");
        assert_eq!(m.stats().sbrk_calls, sbrks, "served from merged memory");
        assert!(m.stats().splits > 0, "best-fit retry splits the big block");
        m.free(big).unwrap();
        m.check_invariants().unwrap();
    }

    #[test]
    fn immediate_coalescing_restores_one_block() {
        let mut m = drr();
        // 8 x (600 + 4-byte tag -> 608) = 4864 bytes: once coalesced, the
        // merged top block exceeds the 4096-byte trim threshold.
        let hs: Vec<_> = (0..8).map(|_| m.alloc(600).unwrap()).collect();
        // Free in an order that exercises prev- and next-merging.
        for &i in &[1usize, 3, 5, 7, 0, 2, 4, 6] {
            m.free(hs[i]).unwrap();
        }
        m.check_invariants().unwrap();
        assert!(m.stats().coalesces >= 7);
        // All memory merged and returned.
        assert_eq!(m.stats().system - m.stats().static_overhead, 0);
    }

    #[test]
    fn never_coalesce_leaves_fragments() {
        let mut m = kingsley();
        let hs: Vec<_> = (0..8).map(|_| m.alloc(240).unwrap()).collect();
        for h in hs {
            m.free(h).unwrap();
        }
        assert_eq!(m.stats().coalesces, 0);
        assert!(m.free_block_count() >= 8);
        m.check_invariants().unwrap();
    }

    #[test]
    fn deferred_coalescing_sweeps_on_miss() {
        let mut m = lea();
        let hs: Vec<_> = (0..16).map(|_| m.alloc(200).unwrap()).collect();
        for h in hs {
            m.free(h).unwrap();
        }
        assert_eq!(m.stats().coalesces, 0, "no merging before a miss");
        let brk_before = m.stats().system;
        // A request bigger than any single free block forces the sweep.
        let big = m.alloc(1500).unwrap();
        assert!(m.stats().coalesces > 0, "miss must trigger the sweep");
        assert!(
            m.stats().system <= brk_before + 256,
            "sweep should satisfy the request mostly from merged memory"
        );
        m.free(big).unwrap();
        m.check_invariants().unwrap();
    }

    #[test]
    fn deferred_capped_sweep_merges_runs_up_to_the_cap() {
        // Exercises the in-place sweep with the D1 cap ending runs early:
        // a free block that would overflow the running merge must start a
        // new run of its own, exactly as the snapshot-based sweep did.
        let mut cfg = presets::lea_like();
        cfg.coalesce_max = CoalesceMaxSizes::Capped;
        cfg.params.coalesce_cap = 1024;
        cfg.params.trim_threshold = None;
        let mut m = PolicyAllocator::new(cfg).unwrap();
        let hs: Vec<_> = (0..24).map(|_| m.alloc(300).unwrap()).collect();
        for h in hs {
            m.free(h).unwrap();
        }
        assert_eq!(m.stats().coalesces, 0, "deferred: no merging before a miss");
        let big = m.alloc(900).unwrap();
        assert!(m.stats().coalesces > 0, "miss must trigger the sweep");
        m.free(big).unwrap();
        m.check_invariants().unwrap();
        for (_, blk) in m.blocks.iter() {
            assert!(blk.span.len <= 1024, "cap violated: {:?}", blk.span);
        }
    }

    /// Make `m`'s next deferred sweep walk the whole heap.
    fn force_whole_heap(m: &mut PolicyAllocator) {
        m.dirty.clear();
        m.sweep_all = true;
    }

    #[cfg(debug_assertions)]
    #[test]
    fn a_sweep_visits_only_the_listed_stretches() {
        // 1,000 used blocks, then two freed pairs and two freed singles,
        // none next to another: the sweep on the next miss steps onto one
        // node per stretch, yet merges, indexes and charges exactly what
        // the whole-heap walk does — `Tiling::len` steps included.
        let build = |whole_heap: bool| {
            let mut m = lea();
            let hs: Vec<_> = (0..1000).map(|_| m.alloc(56).unwrap()).collect();
            for i in [100, 101, 300, 500, 501, 700] {
                m.free(hs[i]).unwrap();
            }
            if whole_heap {
                force_whole_heap(&mut m);
            }
            assert_eq!(m.stats().coalesces, 0, "deferred: nothing merged yet");
            let _miss = m.alloc(4000).unwrap();
            m.check_invariants().unwrap();
            m
        };
        let listed = build(false);
        let whole = build(true);
        assert_eq!(listed.stats().coalesces, 2, "both pairs merge");
        assert_eq!(listed.stats(), whole.stats());
        let visits = |m: &PolicyAllocator| {
            let v = m.sweep_visits();
            (v.whole, v.listed, v.nodes)
        };
        assert_eq!(visits(&listed), (0, 1, 4), "one node per listed stretch");
        assert_eq!(visits(&whole), (1, 0, 998), "all but the merged nodes");
    }

    #[cfg(debug_assertions)]
    #[test]
    fn listing_an_eighth_of_the_nodes_falls_back_to_the_whole_heap() {
        // 80 nodes: ten listed frees stay under an eighth, the eleventh
        // reaches it and the next sweep walks the whole heap.
        for (frees, whole) in [(10, 0), (11, 1)] {
            let mut m = lea();
            let hs: Vec<_> = (0..80).map(|_| m.alloc(56).unwrap()).collect();
            for h in hs.iter().step_by(2).take(frees) {
                m.free(*h).unwrap();
            }
            assert_eq!(m.blocks.node_count(), 80);
            assert_eq!(m.dirty.len(), if whole == 1 { 0 } else { frees });
            let _miss = m.alloc(4000).unwrap();
            let v = m.sweep_visits();
            assert_eq!((v.whole, v.listed), (whole, 1 - whole), "{frees} frees");
            m.check_invariants().unwrap();
        }
    }

    #[test]
    fn a_listed_node_after_a_capped_group_merges_from_its_stretch_start() {
        // P, Q and X are adjacent; P + Q exceeds the cap, Q + X does not.
        // The first sweep leaves P and Q apart. Once X is freed, the
        // whole-heap walk forms groups greedily from P: {P}, then {Q, X}.
        // Starting at the listed X alone would merge nothing.
        let build = |whole_heap: bool| {
            let mut cfg = presets::lea_like();
            cfg.coalesce_max = CoalesceMaxSizes::Capped;
            cfg.params.coalesce_cap = 1024;
            cfg.validate().unwrap();
            let mut m = PolicyAllocator::new(cfg).unwrap();
            // Enough nodes for two listed frees.
            for _ in 0..16 {
                let _ = m.alloc(56).unwrap();
            }
            let p = m.alloc(900).unwrap(); // 912-byte block
            let q = m.alloc(300).unwrap(); // 312-byte block
            let x = m.alloc(300).unwrap();
            let _guard = m.alloc(56).unwrap();
            m.free(p).unwrap();
            m.free(q).unwrap();
            let _miss = m.alloc(2000).unwrap();
            assert_eq!(m.stats().coalesces, 0, "P + Q exceeds the cap");
            m.free(x).unwrap();
            if whole_heap {
                force_whole_heap(&mut m);
            }
            let _miss = m.alloc(3000).unwrap();
            m.check_invariants().unwrap();
            (m, q.offset())
        };
        let (listed, q_at) = build(false);
        let (whole, _) = build(true);
        assert_eq!(listed.stats().coalesces, 1, "Q and X merge");
        let merged = listed.blocks.iter().find(|(_, b)| b.span.offset == q_at);
        assert_eq!(merged.map(|(_, b)| b.span.len), Some(624));
        assert_eq!(listed.stats(), whole.stats());
        #[cfg(debug_assertions)]
        assert_eq!(listed.sweep_visits().listed, 2, "both sweeps took the list");
    }

    #[test]
    fn a_deferred_replay_after_reset_equals_a_fresh_one() {
        let mut b = crate::trace::Trace::builder();
        let mut live = Vec::new();
        let mut x: u64 = 0x9E3779B97F4A7C15;
        for _ in 0..3000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            if live.is_empty() || !x.is_multiple_of(3) {
                live.push(b.alloc(1 + (x as usize % 2000)));
            } else {
                let idx = (x as usize / 5) % live.len();
                b.free(live.swap_remove(idx));
            }
        }
        for id in live {
            b.free(id);
        }
        let trace = b.finish().unwrap();
        let fresh = crate::trace::replay(&trace, &mut lea()).unwrap();
        let mut m = lea();
        let first = crate::trace::replay(&trace, &mut m).unwrap();
        assert_eq!(first, fresh);
        m.reset();
        let again = crate::trace::replay(&trace, &mut m).unwrap();
        assert_eq!(again, fresh);
        #[cfg(debug_assertions)]
        {
            let v = m.sweep_visits();
            assert!(v.whole > 0 && v.listed > 0, "both paths ran: {v:?}");
        }
    }

    #[test]
    fn capped_coalescing_respects_the_cap() {
        let mut cfg = presets::drr_paper();
        cfg.coalesce_max = CoalesceMaxSizes::Capped;
        cfg.params.coalesce_cap = 512;
        cfg.params.trim_threshold = None;
        let mut m = PolicyAllocator::new(cfg).unwrap();
        let hs: Vec<_> = (0..16).map(|_| m.alloc(240).unwrap()).collect();
        for h in hs {
            m.free(h).unwrap();
        }
        m.check_invariants().unwrap();
        for (_, blk) in m.blocks.iter() {
            assert!(blk.span.len <= 512, "cap violated: {:?}", blk.span);
        }
    }

    #[test]
    fn split_floor_keeps_remainders_attached() {
        let mut cfg = presets::drr_paper();
        cfg.split_min = crate::space::trees::SplitMinSizes::Floored;
        cfg.params.split_floor = 256;
        cfg.params.trim_threshold = None;
        let mut m = PolicyAllocator::new(cfg).unwrap();
        let big = m.alloc(1000).unwrap();
        m.free(big).unwrap();
        // Splitting a ~1 KiB block for a 800-byte request leaves < 256
        // bytes of remainder => no split; block allocated whole.
        let h = m.alloc(800).unwrap();
        assert_eq!(m.stats().splits, 0);
        assert!(m.stats().live_block >= 1000);
        m.free(h).unwrap();
        m.check_invariants().unwrap();
    }

    #[test]
    fn arena_limit_surfaces_out_of_memory() {
        let mut cfg = presets::drr_paper();
        cfg.params.arena_limit = Some(8192);
        let mut m = PolicyAllocator::new(cfg).unwrap();
        let _a = m.alloc(4000).unwrap();
        let _b = m.alloc(3000).unwrap();
        let err = m.alloc(4000).unwrap_err();
        assert!(matches!(err, Error::OutOfMemory { .. }));
        // State stays consistent after the failure.
        m.check_invariants().unwrap();
        assert!(m.alloc(500).is_ok());
    }

    #[test]
    fn reset_restores_pristine_state() {
        let mut m = drr();
        let _ = m.alloc(100).unwrap();
        let _ = m.alloc(200).unwrap();
        m.reset();
        m.check_invariants().unwrap();
        assert_eq!(m.stats().allocs, 0);
        assert_eq!(m.footprint(), m.stats().static_overhead);
        let h = m.alloc(64).unwrap();
        m.free(h).unwrap();
    }

    #[test]
    fn exact_fit_reuses_same_size_blocks_without_growth() {
        let mut cfg = presets::drr_paper();
        cfg.params.trim_threshold = None; // keep freed memory resident
        let mut m = PolicyAllocator::new(cfg).unwrap();
        let h = m.alloc(300).unwrap();
        m.free(h).unwrap();
        let brk = m.stats().system;
        for _ in 0..10 {
            let h = m.alloc(300).unwrap();
            m.free(h).unwrap();
        }
        assert_eq!(m.stats().system, brk, "steady-state reuse must not grow");
        m.check_invariants().unwrap();
    }

    #[test]
    fn tagless_fixed_class_manager_works() {
        // A3 = none is only coherent with no split/coalesce; build such a
        // manager and verify it still serves requests.
        let cfg = DmConfig::builder("tagless")
            .leaf(Leaf::A3(BlockTags::None))
            .unwrap()
            .leaf(Leaf::A2(crate::space::trees::BlockSizes::PowerOfTwoClasses))
            .unwrap()
            .build()
            .unwrap();
        let mut m = PolicyAllocator::new(cfg).unwrap();
        assert_eq!(m.tag_bytes, 0);
        let h = m.alloc(60).unwrap();
        // 60 bytes + 0 tag -> 64-byte class exactly.
        assert_eq!(m.stats().live_block, 64);
        m.free(h).unwrap();
        m.check_invariants().unwrap();
    }

    #[test]
    fn tag_overhead_is_charged_per_config() {
        // Same trace, three tag configurations, strictly ordered overhead.
        let base = presets::drr_paper();
        let mut footer_both = base.clone();
        footer_both.block_tags = BlockTags::HeaderAndFooter;
        footer_both.name = "both".into();
        let mut none_mgr = presets::kingsley_like();
        none_mgr.block_tags = BlockTags::None;
        none_mgr.recorded_info = crate::space::trees::RecordedInfo::None;
        none_mgr.flexible_size = crate::space::trees::FlexibleSize::None;
        none_mgr.coalesce_when = CoalesceWhen::Never;
        none_mgr.split_when = SplitWhen::Never;
        none_mgr.name = "none".into();
        none_mgr.validate().unwrap();

        // 121 bytes: header-only tags give 121+4 -> 128; header+footer tags
        // give 121+8 -> 136 (a size where the rounding does not mask the
        // extra tag).
        let block_of = |cfg: DmConfig| {
            let mut m = PolicyAllocator::new(cfg).unwrap();
            let _ = m.alloc(121).unwrap();
            m.stats().live_block
        };
        let header = block_of(base);
        let both = block_of(footer_both);
        assert!(both > header, "two tags must cost more than one");
    }

    #[test]
    fn search_steps_accumulate() {
        let mut m = drr();
        let h = m.alloc(100).unwrap();
        let after_alloc = m.stats().search_steps;
        assert!(after_alloc > 0);
        m.free(h).unwrap();
        assert!(m.stats().search_steps > after_alloc);
    }

    #[test]
    fn realloc_grows_in_place_into_free_neighbour() {
        let mut m = drr();
        let a = m.alloc(200).unwrap();
        let b = m.alloc(200).unwrap();
        let _guard = m.alloc(64).unwrap(); // keeps the arena from trimming
        m.free(b).unwrap(); // the block after `a` is now free
        let allocs_before = m.stats().allocs;
        let grown = m.realloc(a, 350).unwrap();
        assert_eq!(grown.offset(), a.offset(), "in-place growth");
        assert_eq!(m.stats().allocs, allocs_before, "no new allocation");
        assert_eq!(m.stats().reallocs_in_place, 1);
        assert_eq!(m.stats().live_requested, 350 + 64);
        m.check_invariants().unwrap();
        m.free(grown).unwrap();
        m.check_invariants().unwrap();
    }

    #[test]
    fn realloc_shrinks_in_place_and_releases_the_tail() {
        let mut m = drr();
        let a = m.alloc(1000).unwrap();
        let _guard = m.alloc(64).unwrap();
        let before_block = m.stats().live_block;
        let shrunk = m.realloc(a, 200).unwrap();
        assert_eq!(shrunk.offset(), a.offset(), "in-place shrink");
        assert!(m.stats().live_block < before_block, "tail released");
        assert_eq!(m.stats().live_requested, 200 + 64);
        assert!(m.stats().splits >= 1);
        m.check_invariants().unwrap();
        // The released tail is reusable without growing the arena.
        let sbrks = m.stats().sbrk_calls;
        let c = m.alloc(500).unwrap();
        assert_eq!(m.stats().sbrk_calls, sbrks, "tail served the request");
        m.free(c).unwrap();
        m.free(shrunk).unwrap();
        m.check_invariants().unwrap();
    }

    #[test]
    fn realloc_moves_when_no_neighbour_is_free() {
        let mut m = drr();
        let a = m.alloc(200).unwrap();
        let _wall = m.alloc(200).unwrap(); // pins the next block
        let moved = m.realloc(a, 5000).unwrap();
        assert_ne!(moved.offset(), a.offset(), "blocked growth must move");
        assert_eq!(m.stats().live_requested, 5000 + 200);
        m.check_invariants().unwrap();
        // Old handle is dead now.
        assert!(m.free(a).is_err());
        m.free(moved).unwrap();
    }

    #[test]
    fn realloc_same_class_is_trivial() {
        let mut m = kingsley();
        let a = m.alloc(100).unwrap(); // 128-byte class
        let same = m.realloc(a, 110).unwrap(); // still the 128-byte class
        assert_eq!(same.offset(), a.offset());
        assert_eq!(m.stats().reallocs_in_place, 1);
        m.free(same).unwrap();
        m.check_invariants().unwrap();
    }

    #[test]
    fn realloc_of_dead_handle_is_rejected() {
        let mut m = drr();
        let a = m.alloc(64).unwrap();
        m.free(a).unwrap();
        assert!(m.realloc(a, 128).is_err());
    }

    #[test]
    fn realloc_stress_keeps_invariants_and_accounting() {
        let mut m = drr();
        let mut live: Vec<(BlockHandle, usize)> = Vec::new();
        let mut x: u64 = 0xA5A5A5A55A5A5A5A;
        for i in 0..1500 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            match x % 4 {
                0 | 1 => {
                    let size = 16 + (x as usize % 1200);
                    live.push((m.alloc(size).unwrap(), size));
                }
                2 if !live.is_empty() => {
                    let idx = (x as usize / 5) % live.len();
                    let (h, _) = live.swap_remove(idx);
                    m.free(h).unwrap();
                }
                _ if !live.is_empty() => {
                    let idx = (x as usize / 7) % live.len();
                    let new_size = 16 + (x as usize / 11 % 2000);
                    let (h, _) = live.swap_remove(idx);
                    let h = m.realloc(h, new_size).unwrap();
                    live.push((h, new_size));
                }
                _ => {}
            }
            if i % 300 == 0 {
                m.check_invariants()
                    .unwrap_or_else(|e| panic!("op {i}: {e}"));
                let expect: usize = live.iter().map(|(_, s)| *s).sum();
                assert_eq!(m.stats().live_requested, expect, "op {i}");
            }
        }
        for (h, _) in live {
            m.free(h).unwrap();
        }
        m.check_invariants().unwrap();
        assert_eq!(m.stats().live_requested, 0);
        assert!(m.stats().reallocs > 0);
        assert!(
            m.stats().reallocs_in_place > 0,
            "some reallocs stay in place"
        );
    }

    #[test]
    fn many_interleaved_ops_keep_invariants() {
        // Deterministic pseudo-random interleaving across all presets.
        for cfg in presets::all() {
            let mut m = PolicyAllocator::new(cfg).unwrap();
            let mut live: Vec<BlockHandle> = Vec::new();
            let mut x: u64 = 0x2545F4914F6CDD1D;
            for i in 0..2000 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                if live.is_empty() || !x.is_multiple_of(3) {
                    let size = 16 + (x as usize % 2000);
                    live.push(m.alloc(size).unwrap());
                } else {
                    let idx = (x as usize / 7) % live.len();
                    let h = live.swap_remove(idx);
                    m.free(h).unwrap();
                }
                if i % 500 == 0 {
                    m.check_invariants()
                        .unwrap_or_else(|e| panic!("{} at op {i}: {e}", m.name()));
                }
            }
            for h in live {
                m.free(h).unwrap();
            }
            m.check_invariants()
                .unwrap_or_else(|e| panic!("{} final: {e}", m.name()));
            assert_eq!(m.stats().live_requested, 0);
        }
    }
}
