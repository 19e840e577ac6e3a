//! Replay memoisation for the exploration engine.
//!
//! The greedy traversal scores every candidate leaf by *completing* it into
//! a full configuration and replaying the whole trace. Completions taken at
//! different trees frequently collapse to the **same** full configuration
//! (the winning completion at tree *k* reappears verbatim as the preferred
//! default at tree *k+1*, and the portfolio probes of
//! [`Methodology::explore`](crate::methodology::Methodology::explore)
//! re-derive designs the primary traversal already paid for). Since
//! [`replay`](crate::trace::replay) is a pure function of
//! `(trace, configuration)`, those duplicate replays can be served from a
//! cache — that is what [`ReplayCache`] does.
//!
//! Keys are structural: the twelve decided leaves plus the quantitative
//! [`Params`] (the manager *name* is display-only and deliberately
//! excluded), paired with a fingerprint of the trace so one cache can be
//! shared across traces (e.g. across the per-phase sub-traces of
//! [`explore_phases`](crate::methodology::Methodology::explore_phases), or
//! across repeated designs in a bench harness).
//!
//! # Sweeps bypass the structural tier
//!
//! The structural cache only pays off when the *same* `(trace, config)`
//! pair is evaluated twice — which the greedy traversal and the portfolio
//! probes do constantly, but an exhaustive branch-and-bound sweep never
//! does: [`SpaceIter`](crate::space::enumerate::SpaceIter) enumerates each
//! coherent configuration exactly once (a property
//! `space::enumerate`'s tests check over the whole space). So the sweep
//! entry point,
//! [`ExplorationEngine::evaluate_bounded`](crate::methodology::ExplorationEngine::evaluate_bounded),
//! neither reads nor writes this tier; storing one entry per replayed
//! candidate would only hold memory. Collapsing the sweep needs a
//! *coarser* equivalence than structural identity — that is what
//! [`ProjectedKey`] provides.
//!
//! # Trace-conditioned config projection
//!
//! Two structurally-different configurations frequently *behave*
//! identically on a given trace: a coalesce cap larger than the arena can
//! ever grow is indistinguishable from no cap, a split threshold no
//! remainder can reach is indistinguishable from any other unreachable
//! threshold, and on an alloc-only trace every `free`-path knob (trim,
//! boundary tags beyond their byte cost, deferred vs immediate
//! coalescing) is dead code. [`TraceProjection`] captures the trace facts
//! needed to decide reachability — the per-size allocation census and
//! whether the trace frees at all — and [`ProjectedKey::of`] canonicalizes
//! a configuration against them, so behaviourally-identical candidates
//! collapse to one projected cache entry ([`ReplayCache::get_projected`]).
//! Soundness (equal projected key ⇒ bit-identical
//! [`FootprintStats`]) is argued rule-by-rule on [`ProjectedKey::of`],
//! enforced in debug builds by the engine's shadow oracle, proptested
//! across presets × flat/phased/re-entrant traces, and checked over the
//! whole space on the quick case-study traces in release.
//!
//! # Entries: full stats or a floor
//!
//! Both tiers hold a [`CacheEntry`]: a full replay's stats or, when a
//! replay was cut short at its peak cap, the floor its peak had already
//! reached. A projected class's floor binds every member, because every
//! member replays identically. The structural tier keeps the floors of
//! greedy replays capped at their tree's best peak; a later caller whose
//! cap is below a floor learns from it that the configuration loses,
//! without a replay, and an uncapped caller replays the configuration in
//! full and replaces the floor with its stats.

use std::collections::hash_map::{DefaultHasher, Entry};
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::Mutex;

use crate::analyze::TraceFacts;
use crate::heap::index::executed_fit;
use crate::metrics::FootprintStats;
use crate::space::config::{DmConfig, Params};
use crate::space::trees::{
    BlockSizes, BlockStructure, CoalesceMaxSizes, CoalesceWhen, FitAlgorithm, Leaf, PoolDivision,
    PoolStructure, TreeId,
};
use crate::trace::Trace;
use crate::units::SBRK_GRANULARITY;

/// Structural identity of a configuration: one leaf per tree plus the
/// quantitative parameters. The name is excluded — two managers that differ
/// only in their label replay identically.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ConfigKey {
    leaves: [Leaf; 12],
    params: Params,
}

impl ConfigKey {
    /// The structural key of a configuration.
    pub fn of(cfg: &DmConfig) -> Self {
        let mut leaves = [Leaf::A1(cfg.block_structure); 12];
        for (slot, tree) in leaves.iter_mut().zip(TreeId::ALL) {
            *slot = cfg.leaf(tree);
        }
        ConfigKey {
            leaves,
            params: cfg.params.clone(),
        }
    }
}

/// Identity of a trace for cache partitioning: a 64-bit content hash plus
/// the event count. Structural configuration keys make config collisions
/// impossible; trace collisions would need two traces with equal length
/// *and* equal content hash inside one engine's lifetime.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TraceKey {
    fingerprint: u64,
    events: usize,
}

impl TraceKey {
    /// Fingerprint a trace (hashes every event once, O(n)).
    pub fn of(trace: &Trace) -> Self {
        let mut h = DefaultHasher::new();
        trace.hash(&mut h);
        TraceKey {
            fingerprint: h.finish(),
            events: trace.len(),
        }
    }

    /// The 64-bit content hash half of the key — what the checkpoint
    /// journal persists to recognise the trace across processes.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// The event-count half of the key.
    pub fn events(&self) -> usize {
        self.events
    }
}

/// The slice of [`TraceFacts`] that decides which configuration arms are
/// reachable on a trace: the whole-trace per-size allocation census (which
/// bounds how far the arena can ever grow) and whether the trace frees at
/// all (which decides whether any `free`-path machinery runs).
///
/// Computed once per trace and shared across every candidate of a sweep.
#[derive(Debug)]
pub struct TraceProjection {
    /// `true` when the trace contains no free events.
    frees_zero: bool,
    /// `(requested size, total allocation count)`, ascending by size.
    size_census: Vec<(usize, usize)>,
    /// The arena bounds folded so far, one per [`BoundInputs`]. A sweep's
    /// candidates share a handful of inputs, so a linear scan finds them.
    bounds: Mutex<Vec<(BoundInputs, usize)>>,
}

/// What [`TraceProjection::arena_bound`] reads of a configuration:
/// `block_len_for` depends on it only through the tag bytes and the A2
/// rounding, which reads the profiled classes only under A2 = profiled
/// classes (`classes` is empty otherwise).
#[derive(Debug)]
struct BoundInputs {
    tag_bytes: usize,
    sizes: BlockSizes,
    classes: Vec<usize>,
}

impl TraceProjection {
    /// Extract the projection-relevant facts.
    pub fn of(facts: &TraceFacts) -> TraceProjection {
        TraceProjection {
            frees_zero: facts.frees == 0,
            size_census: facts.size_census.clone(),
            bounds: Mutex::default(),
        }
    }

    /// A sound upper bound on the arena break (`brk`) any replay of this
    /// trace under `cfg` can reach, in bytes.
    ///
    /// Each allocation triggers at most one `grow`; a fixed-class grow
    /// reserves exactly `max(block_len, SBRK_GRANULARITY)` and a
    /// many-sizes grow reserves at most `block_len` — both are at most
    /// `block_len_for(size) + SBRK_GRANULARITY`. Summing that over the
    /// whole-trace census (every allocation, not just the live peak)
    /// therefore dominates every possible `brk`. Saturating arithmetic:
    /// on overflow the bound degrades to `usize::MAX`, which simply
    /// disables the reachability collapses (still sound).
    ///
    /// The fold runs once per distinct tag byte count, A2 leaf and
    /// profiled class list; later calls read the memoised bound.
    pub fn arena_bound(&self, cfg: &DmConfig) -> usize {
        let tag_bytes = cfg.tag_bytes_per_block();
        let classes: &[usize] = match cfg.block_sizes {
            BlockSizes::ProfiledClasses => &cfg.params.profiled_classes,
            _ => &[],
        };
        let mut memo = self.bounds.lock().unwrap_or_else(|p| p.into_inner());
        // Element-wise: compared with `==`, which calls `memcmp`, a hit on
        // empty class lists read about 140 ns instead of 20 ns on a 2-core
        // Xeon VM.
        let known = memo.iter().find(|(k, _)| {
            k.tag_bytes == tag_bytes && k.sizes == cfg.block_sizes && k.classes.iter().eq(classes)
        });
        if let Some(&(_, bound)) = known {
            debug_assert_eq!(bound, self.fold_bound(cfg), "memoised arena bound");
            return bound;
        }
        let bound = self.fold_bound(cfg);
        let inputs = BoundInputs {
            tag_bytes,
            sizes: cfg.block_sizes,
            classes: classes.to_vec(),
        };
        memo.push((inputs, bound));
        bound
    }

    /// [`TraceProjection::arena_bound`], folded over the census.
    fn fold_bound(&self, cfg: &DmConfig) -> usize {
        self.size_census.iter().fold(0usize, |acc, &(size, count)| {
            acc.saturating_add(
                count.saturating_mul(cfg.block_len_for(size).saturating_add(SBRK_GRANULARITY)),
            )
        })
    }
}

/// Trace-conditioned behavioural identity of a configuration: the
/// [`ConfigKey`] quotient under "replays bit-identically on this trace".
///
/// Two configurations with equal projected keys execute the policy
/// allocator step-for-step identically on the projection's trace —
/// identical [`FootprintStats`] *and* identical errors. Every collapse is
/// justified by an arm the manager never reads, or by a reachability
/// argument against [`TraceProjection`]'s arena bound `B` (no block span,
/// remainder, merged span or `brk` can ever reach `B`):
///
/// - **A3 × A4 → byte cost + neighbour knowledge.** The tag trees act
///   only through `tag_bytes_per_block()` (block rounding) and
///   [`DmConfig::cheap_prev`], which only the backward merge of
///   `coalesce_at` reads. `free` and the in-place shrink of `realloc` call
///   `coalesce_at` only under D2 = always (the deferred sweep merges
///   forward only), so neighbour knowledge is dead under D2 = deferred or
///   never, when the trace never frees, or when the config never
///   coalesces.
/// - **E1/E2 × split params → canonical trigger.** Splitting acts only
///   through [`DmConfig::split_trigger`] (`None` ⇔ `may_split()` is false,
///   which the exact-fit retry and the segregated fallback also consult —
///   so `None` is reserved for that case) and an unreachable trigger
///   `t ≥ B` is canonicalized to `usize::MAX` rather than `None`.
/// - **D1 × coalesce cap → effective cap.** The cap acts only inside the
///   merge paths; `cap ≥ B` can never reject a merge (canonical
///   `usize::MAX`), and with zero frees the merge paths are dead
///   (canonical `0`).
/// - **D2 on an alloc-only trace.** `free` never runs, so immediate vs
///   deferred coalescing is indistinguishable (`Deferred → Always`);
///   `Never` stays distinct because `may_coalesce()` steers `grow`'s
///   top-extension even without frees.
/// - **C1 × A1 → executed fit.** The manager searches only with
///   [`executed_fit`]: a size-ordered tree runs best fit as first fit
///   (one lookup, one charge, the same hit), and the exact-fit split retry
///   reads exact fit only.
/// - **Trim / arena limit.** `maybe_trim` only runs from `free` and only
///   trims blocks of `len ≥ threshold`; a threshold `> B` or an
///   alloc-only trace make it dead (canonical `None`). An arena limit
///   `≥ B` can never trip (canonical `None`).
/// - **A5 → derived predicates.** The flexibility tree acts only through
///   `may_split()`/`may_coalesce()`, both of which are encoded above.
/// - **Profiled classes** are consulted only under
///   `A2 = ProfiledClasses` (class rounding and pool routing); otherwise
///   canonically empty.
///
/// A1/A2/B1/B4 are always behaviourally live (block structure, class
/// rounding, pool layout and routing charges) and are kept verbatim.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ProjectedKey {
    block_structure: BlockStructure,
    block_sizes: BlockSizes,
    pool_division: PoolDivision,
    pool_structure: PoolStructure,
    fit: FitAlgorithm,
    tag_bytes: usize,
    may_coalesce: bool,
    coalesce_when: CoalesceWhen,
    coalesce_cap: usize,
    cheap_prev: bool,
    split_trigger: Option<usize>,
    profiled_classes: Vec<usize>,
    trim_threshold: Option<usize>,
    arena_limit: Option<usize>,
}

impl ProjectedKey {
    /// Project a configuration against a trace.
    pub fn of(cfg: &DmConfig, projection: &TraceProjection) -> ProjectedKey {
        let bound = projection.arena_bound(cfg);
        let frees_zero = projection.frees_zero;
        let may_coalesce = cfg.may_coalesce();

        // A remainder is strictly smaller than its block (the carved part
        // is at least MIN_BLOCK), so `t ≥ bound` can never fire. Keep
        // `Some`: `may_split()` stays observable through the exact-fit
        // retry and the segregated fallback.
        let split_trigger = cfg
            .split_trigger()
            .map(|t| if t >= bound { usize::MAX } else { t });

        // With no frees, `free` (and with it `coalesce_at`, the deferred
        // dirty flag and `sweep_coalesce`) never runs; only
        // `may_coalesce()` remains observable, via `grow`.
        let coalesce_when = match (frees_zero, cfg.coalesce_when) {
            (true, CoalesceWhen::Deferred) => CoalesceWhen::Always,
            (_, w) => w,
        };
        let coalesce_reachable = may_coalesce && !frees_zero;
        let coalesce_cap = if !coalesce_reachable {
            0 // sentinel: the merge paths are dead code
        } else {
            let cap = match cfg.coalesce_max {
                CoalesceMaxSizes::Unlimited => usize::MAX,
                CoalesceMaxSizes::Capped => cfg.params.coalesce_cap,
            };
            // A merged span is at most `brk ≤ bound`, so a cap at least
            // that large never rejects a merge.
            if cap >= bound {
                usize::MAX
            } else {
                cap
            }
        };
        // Only immediate coalescing merges backwards.
        let cheap_prev =
            coalesce_reachable && cfg.coalesce_when == CoalesceWhen::Always && cfg.cheap_prev();

        // `maybe_trim` only runs from `free`, and only releases top blocks
        // of `len ≥ threshold ≤ brk ≤ bound`.
        let trim_threshold = match cfg.params.trim_threshold {
            _ if frees_zero => None,
            Some(t) if t > bound => None,
            other => other,
        };
        // `brk` never exceeds `bound`, so a limit at least that large
        // never trips.
        let arena_limit = match cfg.params.arena_limit {
            Some(l) if l >= bound => None,
            other => other,
        };

        ProjectedKey {
            block_structure: cfg.block_structure,
            block_sizes: cfg.block_sizes,
            pool_division: cfg.pool_division,
            pool_structure: cfg.pool_structure,
            fit: executed_fit(cfg.block_structure, cfg.fit),
            tag_bytes: cfg.tag_bytes_per_block(),
            may_coalesce,
            coalesce_when,
            coalesce_cap,
            cheap_prev,
            split_trigger,
            profiled_classes: if cfg.block_sizes == BlockSizes::ProfiledClasses {
                cfg.params.profiled_classes.clone()
            } else {
                Vec::new()
            },
            trim_threshold,
            arena_limit,
        }
    }
}

/// What a cache tier knows about one configuration (structural tier) or
/// one equivalence class (projected tier).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CacheEntry {
    /// A replay ran to the end: the configuration (every class member)
    /// replays to these stats. Boxed: nearly every entry a sweep leaves is
    /// a floor, and a floor should not pay for the stats' size.
    Stats(Box<FootprintStats>),
    /// A replay was cut once its running peak reached this many bytes, so
    /// the configuration's (every class member's) peak is at least that.
    PeakAtLeast(usize),
}

impl CacheEntry {
    /// Fold `new` into what is known: full stats replace anything, and a
    /// floor only ever rises. Parallel greedy workers can publish a floor
    /// for a configuration another worker has just replayed in full.
    fn absorb(&mut self, new: CacheEntry) {
        match (&*self, &new) {
            (CacheEntry::Stats(_), CacheEntry::PeakAtLeast(_)) => {}
            (CacheEntry::PeakAtLeast(old), CacheEntry::PeakAtLeast(floor)) if old >= floor => {}
            _ => *self = new,
        }
    }
}

/// A thread-safe memo table from `(trace, configuration)` to the replay's
/// [`FootprintStats`].
///
/// # Examples
///
/// ```
/// use dmm_core::methodology::cache::{ReplayCache, TraceKey};
/// use dmm_core::manager::PolicyAllocator;
/// use dmm_core::space::presets;
/// use dmm_core::trace::{replay, Trace};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut b = Trace::builder();
/// let id = b.alloc(100);
/// b.free(id);
/// let trace = b.finish()?;
///
/// let cache = ReplayCache::new();
/// let key = TraceKey::of(&trace);
/// let cfg = presets::drr_paper();
/// assert!(cache.get(key, &cfg).is_none());
/// let fs = replay(&trace, &mut PolicyAllocator::new(cfg.clone())?)?;
/// cache.insert(key, &cfg, fs.clone());
/// assert_eq!(cache.get(key, &cfg), Some(fs));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Default)]
pub struct ReplayCache {
    map: Mutex<HashMap<(TraceKey, ConfigKey), CacheEntry>>,
    /// The projected tier: one entry per behavioural equivalence class
    /// (trace-conditioned), shared by every structural member of the
    /// class. Kept separate from the structural map so the exact-identity
    /// contract of [`ReplayCache::get`] is untouched. Keyed by trace first,
    /// so a lookup borrows the projected key instead of cloning it.
    projected: Mutex<HashMap<TraceKey, HashMap<ProjectedKey, CacheEntry>>>,
}

impl ReplayCache {
    /// An empty cache.
    pub fn new() -> Self {
        ReplayCache::default()
    }

    /// Cached replay statistics of `cfg` on the trace fingerprinted as
    /// `trace`, if a replay of it ran to the end (a floor is not stats).
    ///
    /// The returned statistics carry the *cached* manager name; callers
    /// that care about labels should restore their own (the engine does).
    pub fn get(&self, trace: TraceKey, cfg: &DmConfig) -> Option<FootprintStats> {
        match self.lookup(trace, cfg)? {
            CacheEntry::Stats(stats) => Some(*stats),
            CacheEntry::PeakAtLeast(_) => None,
        }
    }

    /// What is known of `cfg` on the trace fingerprinted as `trace`: full
    /// stats, a floor under its peak, or nothing.
    pub fn lookup(&self, trace: TraceKey, cfg: &DmConfig) -> Option<CacheEntry> {
        self.map
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .get(&(trace, ConfigKey::of(cfg)))
            .cloned()
    }

    /// Record the replay statistics of `cfg` on the trace fingerprinted as
    /// `trace`.
    pub fn insert(&self, trace: TraceKey, cfg: &DmConfig, stats: FootprintStats) {
        self.record(trace, cfg, CacheEntry::Stats(Box::new(stats)));
    }

    /// Record what a replay of `cfg` revealed: full stats replace anything
    /// known, a floor only raises a lower floor.
    pub fn record(&self, trace: TraceKey, cfg: &DmConfig, entry: CacheEntry) {
        let mut map = self.map.lock().unwrap_or_else(|p| p.into_inner());
        match map.entry((trace, ConfigKey::of(cfg))) {
            Entry::Occupied(mut known) => known.get_mut().absorb(entry),
            Entry::Vacant(slot) => {
                slot.insert(entry);
            }
        }
    }

    /// What is known of a projected equivalence class, if any member of
    /// the class was replayed on this trace before.
    ///
    /// As with [`ReplayCache::get`], returned statistics carry the
    /// *cached* member's manager name; callers restore their own.
    pub fn get_projected(&self, trace: TraceKey, key: &ProjectedKey) -> Option<CacheEntry> {
        self.projected
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .get(&trace)?
            .get(key)
            .cloned()
    }

    /// Record what a member of a projected equivalence class revealed,
    /// replacing what was known. A sweep only replays a member when the
    /// class holds no stats and at most a floor its cap reaches, so the
    /// replacement is full stats or a higher floor.
    pub fn insert_projected(&self, trace: TraceKey, key: ProjectedKey, entry: CacheEntry) {
        self.projected
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .entry(trace)
            .or_default()
            .insert(key, entry);
    }

    /// Number of memoised projected equivalence classes.
    pub fn projected_len(&self) -> usize {
        self.projected
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .values()
            .map(HashMap::len)
            .sum()
    }

    /// Number of memoised replays.
    pub fn len(&self) -> usize {
        self.map.lock().unwrap_or_else(|p| p.into_inner()).len()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manager::PolicyAllocator;
    use crate::space::presets;
    use crate::space::trees::{BlockTags, SplitWhen};
    use crate::trace::replay;

    fn tiny_trace() -> Trace {
        let mut b = Trace::builder();
        let a = b.alloc(100);
        let c = b.alloc(50);
        b.free(a);
        b.free(c);
        b.finish().unwrap()
    }

    #[test]
    fn name_is_excluded_from_the_key() {
        let trace = tiny_trace();
        let cache = ReplayCache::new();
        let key = TraceKey::of(&trace);
        let cfg = presets::drr_paper();
        let fs = replay(&trace, &mut PolicyAllocator::new(cfg.clone()).unwrap()).unwrap();
        cache.insert(key, &cfg, fs.clone());

        let mut renamed = cfg.clone();
        renamed.name = "same machinery, different label".into();
        assert_eq!(
            cache.get(key, &renamed),
            Some(fs),
            "a rename must not defeat memoisation"
        );
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn different_configs_and_traces_miss() {
        let trace = tiny_trace();
        let cache = ReplayCache::new();
        let key = TraceKey::of(&trace);
        let cfg = presets::drr_paper();
        let fs = replay(&trace, &mut PolicyAllocator::new(cfg.clone()).unwrap()).unwrap();
        cache.insert(key, &cfg, fs);

        assert!(cache.get(key, &presets::kingsley_like()).is_none());
        let mut reparam = presets::drr_paper();
        reparam.params.trim_threshold = None;
        assert!(
            cache.get(key, &reparam).is_none(),
            "params are part of the structural key"
        );

        let mut b = Trace::builder();
        let a = b.alloc(101); // one byte different
        b.free(a);
        let other = b.finish().unwrap();
        assert!(cache
            .get(TraceKey::of(&other), &presets::drr_paper())
            .is_none());
    }

    fn alloc_only_trace() -> Trace {
        let mut b = Trace::builder();
        b.alloc(100);
        b.alloc(48);
        b.alloc(100);
        b.finish().unwrap()
    }

    fn projection_of(trace: &Trace) -> TraceProjection {
        TraceProjection::of(&crate::analyze::TraceFacts::of(trace))
    }

    #[test]
    fn alloc_only_traces_collapse_dead_free_machinery() {
        let no_frees = projection_of(&alloc_only_trace());
        let with_frees = projection_of(&tiny_trace());

        // Same tag byte cost, different neighbour knowledge: Header vs
        // Footer matters only inside `coalesce_at`, which never runs
        // without frees.
        let header = presets::drr_paper();
        let footer = header.clone().with_leaf(Leaf::A3(BlockTags::Footer));
        assert_eq!(header.tag_bytes_per_block(), footer.tag_bytes_per_block());
        assert_eq!(
            ProjectedKey::of(&header, &no_frees),
            ProjectedKey::of(&footer, &no_frees),
            "cheap-prev must be canonicalized away on an alloc-only trace"
        );
        assert_ne!(
            ProjectedKey::of(&header, &with_frees),
            ProjectedKey::of(&footer, &with_frees),
            "with frees, neighbour knowledge steers coalescing"
        );

        // Deferred vs immediate coalescing is free-path machinery too.
        let deferred = header.clone().with_leaf(Leaf::D2(CoalesceWhen::Deferred));
        assert_eq!(
            ProjectedKey::of(&header, &no_frees),
            ProjectedKey::of(&deferred, &no_frees)
        );
        assert_ne!(
            ProjectedKey::of(&header, &with_frees),
            ProjectedKey::of(&deferred, &with_frees)
        );

        // Trimming only happens from `free`.
        let mut untrimmed = header.clone();
        untrimmed.params.trim_threshold = None;
        assert_eq!(
            ProjectedKey::of(&header, &no_frees),
            ProjectedKey::of(&untrimmed, &no_frees)
        );
    }

    #[test]
    fn tag_placement_counts_only_under_immediate_coalescing() {
        let with_frees = projection_of(&tiny_trace());
        let key = |tags, when| {
            let cfg = presets::drr_paper()
                .with_leaf(Leaf::A3(tags))
                .with_leaf(Leaf::D2(when));
            ProjectedKey::of(&cfg, &with_frees)
        };
        // The deferred sweep merges forward only: no merge reads a footer.
        assert_eq!(
            key(BlockTags::Header, CoalesceWhen::Deferred),
            key(BlockTags::Footer, CoalesceWhen::Deferred)
        );
        // Immediate coalescing merges backwards too, and a footer makes
        // finding the predecessor O(1).
        assert_ne!(
            key(BlockTags::Header, CoalesceWhen::Always),
            key(BlockTags::Footer, CoalesceWhen::Always)
        );
    }

    #[test]
    fn size_tree_best_fit_keys_as_first_fit() {
        let proj = projection_of(&tiny_trace());
        let key = |structure, fit| {
            let cfg = presets::neutral()
                .with_leaf(Leaf::A1(structure))
                .with_leaf(Leaf::C1(fit));
            ProjectedKey::of(&cfg, &proj)
        };
        assert_eq!(
            key(BlockStructure::SizeOrderedTree, FitAlgorithm::BestFit),
            key(BlockStructure::SizeOrderedTree, FitAlgorithm::FirstFit)
        );
        // A linked list walks in link order: its first fit is not its best.
        assert_ne!(
            key(BlockStructure::DoublyLinkedList, FitAlgorithm::BestFit),
            key(BlockStructure::DoublyLinkedList, FitAlgorithm::FirstFit)
        );
    }

    #[test]
    fn unreachable_split_thresholds_collapse_but_preserve_may_split() {
        let trace = tiny_trace();
        let proj = projection_of(&trace);
        let base = presets::drr_paper();
        let bound = proj.arena_bound(&base);

        let mut huge_a = base.clone().with_leaf(Leaf::E2(SplitWhen::Threshold));
        huge_a.params.split_threshold = bound;
        let mut huge_b = huge_a.clone();
        huge_b.params.split_threshold = bound.saturating_mul(2);
        assert_eq!(
            ProjectedKey::of(&huge_a, &proj),
            ProjectedKey::of(&huge_b, &proj),
            "two unreachable thresholds are the same behaviour"
        );

        // A config that *cannot* split stays distinct: `may_split()` is
        // observable (exact-fit retry, segregated fallback) even when the
        // trigger never fires.
        let never = base
            .clone()
            .with_leaf(Leaf::E2(SplitWhen::Never))
            .with_leaf(Leaf::A5(crate::space::trees::FlexibleSize::CoalesceOnly));
        assert_ne!(
            ProjectedKey::of(&huge_a, &proj),
            ProjectedKey::of(&never, &proj)
        );
    }

    #[test]
    fn unreachable_coalesce_caps_collapse_to_unlimited() {
        let trace = tiny_trace();
        let proj = projection_of(&trace);
        let unlimited = presets::drr_paper();
        let bound = proj.arena_bound(&unlimited);

        let mut capped_high = unlimited
            .clone()
            .with_leaf(Leaf::D1(CoalesceMaxSizes::Capped));
        capped_high.params.coalesce_cap = bound;
        assert_eq!(
            ProjectedKey::of(&unlimited, &proj),
            ProjectedKey::of(&capped_high, &proj),
            "a cap the arena can never reach is no cap"
        );

        let mut capped_low = capped_high.clone();
        capped_low.params.coalesce_cap = 64;
        assert_ne!(
            ProjectedKey::of(&unlimited, &proj),
            ProjectedKey::of(&capped_low, &proj)
        );

        // An arena limit the arena can never reach is no limit either.
        let mut limited = unlimited.clone();
        limited.params.arena_limit = Some(bound);
        assert_eq!(
            ProjectedKey::of(&unlimited, &proj),
            ProjectedKey::of(&limited, &proj)
        );
    }

    #[test]
    fn projected_tier_round_trips_and_ignores_names() {
        let trace = tiny_trace();
        let proj = projection_of(&trace);
        let cache = ReplayCache::new();
        let cfg = presets::drr_paper();
        let key = TraceKey::of(&trace);
        let pk = ProjectedKey::of(&cfg, &proj);
        assert!(cache.get_projected(key, &pk).is_none());
        let fs = replay(&trace, &mut PolicyAllocator::new(cfg.clone()).unwrap()).unwrap();
        cache.insert_projected(key, pk.clone(), CacheEntry::PeakAtLeast(100));
        assert_eq!(
            cache.get_projected(key, &pk),
            Some(CacheEntry::PeakAtLeast(100))
        );
        let stats = CacheEntry::Stats(Box::new(fs));
        cache.insert_projected(key, pk.clone(), stats.clone());
        assert_eq!(cache.get_projected(key, &pk), Some(stats));
        assert_eq!(cache.projected_len(), 1);
        assert!(cache.is_empty(), "the structural tier is untouched");

        let mut renamed = cfg.clone();
        renamed.name = "same machinery".into();
        assert_eq!(pk, ProjectedKey::of(&renamed, &proj));
    }

    #[test]
    fn config_key_round_trips_every_leaf() {
        for cfg in presets::all() {
            let key = ConfigKey::of(&cfg);
            for (slot, tree) in key.leaves.iter().zip(TreeId::ALL) {
                assert_eq!(*slot, cfg.leaf(tree), "{}: {tree}", cfg.name);
            }
        }
    }

    #[test]
    fn fingerprint_agrees_with_config_key_identity() {
        // `DmConfig::fingerprint()` and `ConfigKey` are two views of the
        // same structural identity (leaves + params, name excluded); keep
        // them from drifting apart.
        for a in presets::all() {
            let mut renamed = a.clone();
            renamed.name = format!("{} (renamed)", a.name);
            assert_eq!(a.fingerprint(), renamed.fingerprint());
            assert_eq!(ConfigKey::of(&a), ConfigKey::of(&renamed));
            for b in presets::all() {
                let same_key = ConfigKey::of(&a) == ConfigKey::of(&b);
                let same_fp = a.fingerprint() == b.fingerprint();
                assert_eq!(
                    same_key, same_fp,
                    "{} vs {}: key/fingerprint identity disagree",
                    a.name, b.name
                );
            }
        }
    }
}
