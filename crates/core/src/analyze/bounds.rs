//! Admissible footprint bounds: abstract interpretation over
//! traces × configurations.
//!
//! Every candidate the exploration engine cannot prune structurally
//! ([`super::config_lints::prune_reason`]) still pays a full replay. This
//! module derives a **sound lower bound** on the peak footprint a
//! configuration would reach on a trace — `lower_bound_peak(facts, cfg)
//! ≤ replayed peak`, always — turning
//! [`exhaustive_best_with_engine`](crate::methodology::exhaustive_best_with_engine)
//! into true branch-and-bound: once an incumbent's *actual* peak is known, any
//! candidate whose bound already loses is skipped without replay or cache
//! lookup, counted by the engine's `bound_pruned` counter.
//!
//! The split mirrors classic abstract interpretation:
//!
//! - [`TraceFacts`] is the *trace abstraction*, computed **once per
//!   trace** in O(events) time and O(peak live) memory (the same bound
//!   [`Trace::live_set_peak`] maintains): size histograms of the live set
//!   at its peak instants (the whole trace's byte and block peaks and each
//!   phase's byte peak), and the maximum number of simultaneously-live
//!   blocks per request size. What crosses a phase boundary is measured
//!   where phases are cut, by [`shard_trace`](crate::trace::shard_trace).
//! - [`lower_bound_peak`] is the *config interpreter*: it replays the
//!   facts against a [`DmConfig`]'s structural costs — tag bytes per
//!   block, alignment and minimum-block rounding, A2 class rounding
//!   (through [`DmConfig::block_len_for`], the same helper the policy
//!   allocator uses), pool-descriptor static overhead and the fixed-class
//!   sbrk granule — and keeps only components that hold for *every*
//!   execution.
//!
//! # Admissibility contract
//!
//! For any trace `t` and valid config `cfg`:
//! `lower_bound_peak(&TraceFacts::of(&t), &cfg) ≤ replay(&t,
//! &mut PolicyAllocator::new(cfg)?)?.peak_footprint`.
//!
//! The proof leans on invariants the manager already maintains:
//!
//! 1. every used block's span is at least `cfg.block_len_for(request)`
//!    (blocks are carved to exactly that length, splits never cut below
//!    it, and traces contain no realloc events);
//! 2. blocks tile the arena `[0, brk)` disjointly, so at any event end
//!    `brk ≥ Σ` used spans, and `system = brk + static_overhead` with the
//!    static overhead monotone from its at-construction value;
//! 3. the footprint peak is observed at construction and at every event
//!    end, which includes the event that completes each live-set snapshot
//!    recorded by the facts pass;
//! 4. a fixed-class config's first allocation always misses and reserves
//!    at least one [`SBRK_GRANULARITY`] granule, which no trim can
//!    release while a block in it is live (guarded on the trim threshold
//!    for pathological parameter choices).
//!
//! Soundness is enforced by a proptest over every preset × workload
//! family and by the 49 golden replay digests (`tests/golden_replay.rs`
//! inputs), plus `tests/lint_soundness.rs`: the winner-bit-identity test
//! and a whole-space check that no config's bound exceeds its replayed
//! peak on the quick DRR, recon and render traces (release builds; debug
//! builds check a stride).
//!
//! The bound reads only five leaves of a configuration plus its
//! [`Params`] (see `BoundKey`): the 39,840 configurations of the sweep's
//! space share 192 keys. [`rank_by_bound`] and the sweep compute it once
//! per key (`BoundMemo`).

use std::collections::HashMap;

use crate::manager::pools::Pools;
use crate::space::config::{DmConfig, Params};
use crate::space::trees::{BlockSizes, BlockStructure, PoolDivision, PoolStructure};
use crate::trace::{LiveSetPeak, Trace, TraceEvent};
use crate::units::SBRK_GRANULARITY;

use super::diag::{CatalogEntry, Diagnostic, Severity};

/// The live set at one recorded instant of the trace, as a size histogram.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LiveSnapshot {
    /// Index of the event whose completion produced this live set.
    pub event: usize,
    /// `(requested size, simultaneously-live count)`, ascending by size.
    pub histogram: Vec<(usize, usize)>,
}

impl LiveSnapshot {
    /// Requested bytes of the snapshot (no structural costs).
    pub fn requested_bytes(&self) -> usize {
        self.histogram.iter().map(|&(s, c)| s * c).sum()
    }

    /// Bytes the snapshot's blocks occupy under `cfg`'s structural costs:
    /// every live block carved to at least [`DmConfig::block_len_for`].
    pub fn classed_bytes(&self, cfg: &DmConfig) -> usize {
        self.histogram
            .iter()
            .map(|&(s, c)| c * cfg.block_len_for(s))
            .sum()
    }
}

/// Everything the bound interpreter needs to know about a trace, computed
/// once in two O(events) walks with O(peak live) bookkeeping.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TraceFacts {
    /// The trace's live-set peaks ([`Trace::live_set_peak`]).
    pub peak: LiveSetPeak,
    /// Allocation event count.
    pub allocs: usize,
    /// Free event count.
    pub frees: usize,
    /// Live-set histograms at the peak instants: the global byte peak,
    /// the global block-count peak, and each phase's byte peak.
    pub snapshots: Vec<LiveSnapshot>,
    /// `(requested size, max simultaneously-live count)` per distinct
    /// request size, ascending by size.
    pub max_simultaneous: Vec<(usize, usize)>,
    /// `(requested size, total allocation count)` per distinct request
    /// size, ascending by size — the whole-trace census (not the live
    /// set), used by trace-conditioned config projection to bound the
    /// arena a replay can ever grow to.
    pub size_census: Vec<(usize, usize)>,
}

impl TraceFacts {
    /// Compute the facts for a trace.
    ///
    /// Pass 1 walks the events recording *where* the peaks happen (plus
    /// the per-size maxima and census); pass 2 re-walks only as far as the
    /// last peak instant to reconstruct the histograms there. Keeping
    /// snapshots to a handful of recorded instants is what holds the
    /// memory at O(peak live) instead of O(events × peak live).
    pub fn of(trace: &Trace) -> TraceFacts {
        // Pass 1: peak locations. Entries leave `sizes`/`live_counts` on
        // free, so both stay bounded by the peak live set.
        let mut sizes: HashMap<u64, usize> = HashMap::new();
        let mut live_counts: HashMap<usize, usize> = HashMap::new();
        let mut max_counts: HashMap<usize, usize> = HashMap::new();
        let mut total_counts: HashMap<usize, usize> = HashMap::new();
        let mut live_bytes = 0usize;
        let (mut peak_bytes, mut peak_bytes_at) = (0usize, None::<usize>);
        let (mut peak_blocks, mut peak_blocks_at) = (0usize, None::<usize>);
        let (mut allocs, mut frees) = (0usize, 0usize);
        // `(phase, live bytes, event)` at each phase's byte peak, in
        // first-allocation order; re-entered segments share one entry.
        // Events before the first marker belong to phase 0.
        let mut phase_peaks: Vec<(u32, usize, usize)> = Vec::new();
        let mut current = 0u32;

        for (i, ev) in trace.events().iter().enumerate() {
            match ev {
                TraceEvent::Alloc { id, size } => {
                    allocs += 1;
                    sizes.insert(*id, *size);
                    live_bytes += size;
                    let c = live_counts.entry(*size).or_insert(0);
                    *c += 1;
                    let m = max_counts.entry(*size).or_insert(0);
                    *m = (*m).max(*c);
                    *total_counts.entry(*size).or_insert(0) += 1;
                    if live_bytes > peak_bytes {
                        peak_bytes = live_bytes;
                        peak_bytes_at = Some(i);
                    }
                    if sizes.len() > peak_blocks {
                        peak_blocks = sizes.len();
                        peak_blocks_at = Some(i);
                    }
                    match phase_peaks.iter_mut().find(|p| p.0 == current) {
                        Some(p) if live_bytes > p.1 => *p = (current, live_bytes, i),
                        Some(_) => {}
                        None => phase_peaks.push((current, live_bytes, i)),
                    }
                }
                TraceEvent::Free { id } => {
                    frees += 1;
                    if let Some(size) = sizes.remove(id) {
                        live_bytes -= size;
                        if let Some(c) = live_counts.get_mut(&size) {
                            *c -= 1;
                            if *c == 0 {
                                live_counts.remove(&size);
                            }
                        }
                    }
                }
                TraceEvent::Phase { phase } => current = *phase,
            }
        }

        // Pass 2: histograms at the recorded instants (deduplicated —
        // the global byte peak is usually also some phase's byte peak).
        let mut wanted: Vec<usize> = peak_bytes_at
            .into_iter()
            .chain(peak_blocks_at)
            .chain(phase_peaks.iter().map(|&(_, _, at)| at))
            .collect();
        wanted.sort_unstable();
        wanted.dedup();
        let mut snapshots = Vec::with_capacity(wanted.len());
        if let Some(&last) = wanted.last() {
            let mut counts: HashMap<usize, usize> = HashMap::new();
            let mut ids: HashMap<u64, usize> = HashMap::new();
            let mut next = 0usize;
            for (i, ev) in trace.events().iter().enumerate().take(last + 1) {
                match ev {
                    TraceEvent::Alloc { id, size } => {
                        ids.insert(*id, *size);
                        *counts.entry(*size).or_insert(0) += 1;
                    }
                    TraceEvent::Free { id } => {
                        if let Some(size) = ids.remove(id) {
                            if let Some(c) = counts.get_mut(&size) {
                                *c -= 1;
                                if *c == 0 {
                                    counts.remove(&size);
                                }
                            }
                        }
                    }
                    TraceEvent::Phase { .. } => {}
                }
                if wanted[next] == i {
                    let mut histogram: Vec<(usize, usize)> =
                        counts.iter().map(|(&s, &c)| (s, c)).collect();
                    histogram.sort_unstable();
                    snapshots.push(LiveSnapshot {
                        event: i,
                        histogram,
                    });
                    next += 1;
                    if next == wanted.len() {
                        break;
                    }
                }
            }
        }

        let mut max_simultaneous: Vec<(usize, usize)> = max_counts.into_iter().collect();
        max_simultaneous.sort_unstable();
        let mut size_census: Vec<(usize, usize)> = total_counts.into_iter().collect();
        size_census.sort_unstable();

        TraceFacts {
            peak: LiveSetPeak {
                bytes: peak_bytes,
                blocks: peak_blocks,
            },
            allocs,
            frees,
            snapshots,
            max_simultaneous,
            size_census,
        }
    }
}

/// The additive pieces of one bound, for reporting (`dmm bounds`) and the
/// `BD0xx` advisories.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BoundBreakdown {
    /// Pool descriptors + index anchors the config materialises at
    /// construction — the footprint floor before any allocation.
    pub static_overhead: usize,
    /// Largest live-set snapshot under the config's block rounding: at
    /// that instant the arena held at least these bytes in used blocks.
    pub snapshot_demand: usize,
    /// Largest single-size demand: some instant holds `count` blocks of
    /// one request size, each carved to at least `block_len_for(size)`.
    pub class_demand: usize,
    /// The sbrk granule a fixed-class config's first miss reserves
    /// ([`SBRK_GRANULARITY`], or 0 when the component does not apply).
    pub quantum: usize,
}

impl BoundBreakdown {
    /// The admissible bound: static overhead plus the strongest of the
    /// mutually-incomparable demand components. (Summing them would be
    /// tighter but unsound — they can describe the same bytes.)
    pub fn total(&self) -> usize {
        self.static_overhead
            + self
                .snapshot_demand
                .max(self.class_demand)
                .max(self.quantum)
    }

    /// The demand component that decides the bound (for reporting).
    pub fn dominant(&self) -> &'static str {
        if self.quantum >= self.snapshot_demand && self.quantum >= self.class_demand {
            "quantum"
        } else if self.snapshot_demand >= self.class_demand {
            "snapshot"
        } else {
            "class"
        }
    }
}

/// Everything [`bound_breakdown`] reads from a configuration besides its
/// [`Params`]: A1 (the index control overhead in [`Pools::new`]), A2,
/// the tag bytes of A3 × A4, B1 and B4. Configurations with equal keys
/// and equal parameters have equal bounds on every trace, so a sweep
/// computes one bound per key ([`BoundMemo`]). A change to what the bound
/// reads must change this key with it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct BoundKey {
    block_structure: BlockStructure,
    block_sizes: BlockSizes,
    tag_bytes: usize,
    pool_division: PoolDivision,
    pool_structure: PoolStructure,
}

impl BoundKey {
    fn of(cfg: &DmConfig) -> BoundKey {
        BoundKey {
            block_structure: cfg.block_structure,
            block_sizes: cfg.block_sizes,
            tag_bytes: cfg.tag_bytes_per_block(),
            pool_division: cfg.pool_division,
            pool_structure: cfg.pool_structure,
        }
    }
}

/// Break one (facts, config) bound into its components.
pub fn bound_breakdown(facts: &TraceFacts, cfg: &DmConfig) -> BoundBreakdown {
    let static_overhead = Pools::new(cfg).static_overhead();
    let snapshot_demand = facts
        .snapshots
        .iter()
        .map(|s| s.classed_bytes(cfg))
        .max()
        .unwrap_or(0);
    let class_demand = facts
        .max_simultaneous
        .iter()
        .map(|&(s, c)| c * cfg.block_len_for(s))
        .max()
        .unwrap_or(0);
    // The first allocation of a fixed-class run reserves a whole granule.
    // A trim threshold below the granule could hand parts of it back
    // before the event-end peak sample, so the component is guarded.
    let quantum = if facts.allocs > 0
        && cfg.block_sizes.is_fixed()
        && cfg
            .params
            .trim_threshold
            .is_none_or(|t| t >= SBRK_GRANULARITY)
    {
        SBRK_GRANULARITY
    } else {
        0
    };
    BoundBreakdown {
        static_overhead,
        snapshot_demand,
        class_demand,
        quantum,
    }
}

/// Admissible lower bound on the peak footprint `cfg` would reach
/// replaying the trace behind `facts`: `lower_bound_peak(facts, cfg) ≤
/// replay(trace, cfg).peak_footprint`, for every trace and valid config.
pub fn lower_bound_peak(facts: &TraceFacts, cfg: &DmConfig) -> usize {
    bound_breakdown(facts, cfg).total()
}

/// [`lower_bound_peak`] on one trace, computed once per [`BoundKey`].
///
/// A memo serves one sweep (or one [`rank_by_bound`] call) and starts over
/// whenever a configuration's [`Params`] differ from the previous one's,
/// since the bound reads the class list and trim threshold too. Debug
/// builds recompute every hit and check it against the memo.
pub(crate) struct BoundMemo<'a> {
    facts: &'a TraceFacts,
    params: Option<Params>,
    bounds: HashMap<BoundKey, usize>,
}

impl<'a> BoundMemo<'a> {
    pub(crate) fn new(facts: &'a TraceFacts) -> Self {
        BoundMemo {
            facts,
            params: None,
            bounds: HashMap::new(),
        }
    }

    /// `lower_bound_peak(facts, cfg)`.
    pub(crate) fn bound(&mut self, cfg: &DmConfig) -> usize {
        if self.params.as_ref() != Some(&cfg.params) {
            self.params = Some(cfg.params.clone());
            self.bounds.clear();
        }
        let key = BoundKey::of(cfg);
        if let Some(&bound) = self.bounds.get(&key) {
            debug_assert_eq!(
                bound,
                lower_bound_peak(self.facts, cfg),
                "bound memo differs from a fresh bound for {}",
                cfg.summary()
            );
            return bound;
        }
        let bound = lower_bound_peak(self.facts, cfg);
        self.bounds.insert(key, bound);
        bound
    }
}

/// `(candidate index, bound)` for each bound in candidate order, sorted
/// ascending by `(bound, index)`: the sort is stable, so equal bounds keep
/// their index order.
pub(crate) fn rank_bounds(bounds: impl Iterator<Item = usize>) -> Vec<(usize, usize)> {
    let mut ranked: Vec<(usize, usize)> = bounds.enumerate().collect();
    ranked.sort_by_key(|&(_, b)| b);
    ranked
}

/// Rank candidate configurations for best-first exploration: returns
/// `(index into configs, bound)` sorted ascending by `(bound, index)`.
///
/// The secondary index order makes the schedule deterministic and lets
/// the branch-and-bound loop reproduce the first-seen-minimum winner of
/// the plain enumeration fold exactly (see
/// `crate::methodology::exhaustive_best_with_engine`, which ranks its
/// space the same way). Each bound is computed once per distinct
/// (A1, A2, tag bytes, B1, B4) key and parameter block: 192 bounds for
/// the whole 39,840-config space, not 39,840.
pub fn rank_by_bound(facts: &TraceFacts, configs: &[DmConfig]) -> Vec<(usize, usize)> {
    let mut memo = BoundMemo::new(facts);
    rank_bounds(configs.iter().map(|cfg| memo.bound(cfg)))
}

/// The `BD0xx` catalogue: advisories the bound interpreter derives from
/// one (facts, config) pair. None are prune-safe — bound pruning is
/// incumbent-relative and runs through the engine's `bound_pruned`
/// counter, not through [`super::prune_reason`].
pub(crate) const BOUNDS_CATALOGUE: &[CatalogEntry] = &[
    CatalogEntry {
        code: "BD001",
        severity: Severity::Note,
        prune_safe: false,
        summary: "admissible peak-footprint floor for this trace and configuration",
        fix: "informational: compare floors across configs with `dmm bounds`",
        details: "The abstract interpreter combines the trace's live-set peaks \
                  with the configuration's structural costs (tag bytes, alignment, \
                  A2 class rounding, pool descriptors, the fixed-class sbrk granule) \
                  into a sound lower bound on the replayed peak footprint. \
                  Exploration uses it as a branch-and-bound admission test: \
                  candidates whose floor already exceeds the incumbent's actual \
                  peak are skipped without a replay.",
    },
    CatalogEntry {
        code: "BD002",
        severity: Severity::Warn,
        prune_safe: false,
        summary: "class rounding inflates the live-set peak by 50% or more",
        fix: "use A2 = many, or profile size classes closer to the request sizes",
        details: "Rounding every request up to its A2 size class makes the \
                  footprint floor at least 1.5x the requested live-set peak on \
                  this trace: the class grid sits badly against the workload's \
                  size mix (e.g. power-of-two classes against sizes just above \
                  a power of two). No fit or coalescing policy can recover \
                  bytes lost to class rounding.",
    },
    CatalogEntry {
        code: "BD003",
        severity: Severity::Note,
        prune_safe: false,
        summary: "the fixed-class sbrk granule, not the live set, sets the floor",
        fix: "expected on tiny traces; use A2 = many if the granule matters",
        details: "Fixed-class configurations reserve a whole sbrk granule on \
                  their first miss and distribute it among the class free \
                  lists. On this trace the live-set demand never reaches one \
                  granule, so the bound (and the real footprint) is dominated \
                  by the reservation quantum rather than by anything the \
                  allocation pattern does.",
    },
    CatalogEntry {
        code: "BD004",
        severity: Severity::Warn,
        prune_safe: false,
        summary: "per-block tag overhead is at least a quarter of the live-set peak",
        fix: "shrink the A3 placement or A4 field width, or batch small objects",
        details: "Tag bytes are paid per live block, so many small objects \
                  multiply them: on this trace the configuration's tag overhead \
                  alone (A3 copies x A4 field bytes x peak live blocks) amounts \
                  to 25% or more of the requested live-set peak. The headers \
                  are a structural floor no policy choice below A3/A4 can \
                  remove.",
    },
];

/// Look up a bounds catalogue entry (the codes are compile-time constants,
/// so a miss is a programming error).
fn bounds_entry(code: &str) -> &'static CatalogEntry {
    BOUNDS_CATALOGUE
        .iter()
        .find(|e| e.code == code)
        .expect("bounds catalogue entry exists")
}

/// Run the bound advisories for one (facts, config) pair.
///
/// `BD001` always reports the computed floor (informational); the others
/// fire when one structural cost dominates the trace's demand.
pub fn lint_bounds(facts: &TraceFacts, cfg: &DmConfig) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let b = bound_breakdown(facts, cfg);
    out.push(Diagnostic::from_entry(
        bounds_entry("BD001"),
        format!(
            "peak footprint floor is {} bytes (static overhead {} + {} demand {})",
            b.total(),
            b.static_overhead,
            b.dominant(),
            b.snapshot_demand.max(b.class_demand).max(b.quantum),
        ),
    ));
    let requested = facts
        .snapshots
        .iter()
        .map(LiveSnapshot::requested_bytes)
        .max()
        .unwrap_or(0);
    if requested > 0 && b.snapshot_demand * 2 >= requested * 3 {
        out.push(Diagnostic::from_entry(
            bounds_entry("BD002"),
            format!(
                "class rounding lifts the {requested}-byte live-set peak to at \
                 least {} bytes",
                b.snapshot_demand
            ),
        ));
    }
    if b.quantum > 0 && b.quantum > b.snapshot_demand.max(b.class_demand) {
        out.push(Diagnostic::from_entry(
            bounds_entry("BD003"),
            format!(
                "the {}-byte sbrk granule exceeds the classed live-set demand \
                 of {} bytes",
                b.quantum,
                b.snapshot_demand.max(b.class_demand)
            ),
        ));
    }
    let tag_floor = cfg.tag_bytes_per_block() * facts.peak.blocks;
    if tag_floor > 0 && facts.peak.bytes > 0 && tag_floor * 4 >= facts.peak.bytes {
        out.push(Diagnostic::from_entry(
            bounds_entry("BD004"),
            format!(
                "{} tag bytes x {} peak live blocks = {} bytes of pure tag \
                 overhead against a {}-byte requested peak",
                cfg.tag_bytes_per_block(),
                facts.peak.blocks,
                tag_floor,
                facts.peak.bytes
            ),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manager::PolicyAllocator;
    use crate::space::presets;
    use crate::space::trees::{BlockSizes, BlockTags, Leaf, RecordedInfo};
    use crate::trace::replay;
    use crate::units::MIN_BLOCK;

    fn mixed_trace() -> Trace {
        let mut b = Trace::builder();
        b.phase(0);
        let a: Vec<u64> = (0..8).map(|_| b.alloc(17)).collect();
        b.phase(1);
        let c: Vec<u64> = (0..4).map(|_| b.alloc(200)).collect();
        for id in a {
            b.free(id);
        }
        b.phase(0); // re-enter
        let d = b.alloc(40);
        for id in c {
            b.free(id);
        }
        b.free(d);
        b.finish().unwrap()
    }

    #[test]
    fn facts_agree_with_live_set_peak() {
        for t in [mixed_trace(), Trace::builder().finish().unwrap()] {
            let facts = TraceFacts::of(&t);
            assert_eq!(facts.peak, t.live_set_peak());
            assert_eq!(facts.allocs, t.alloc_count());
            assert_eq!(facts.frees, t.free_count());
        }
    }

    #[test]
    fn snapshots_capture_the_byte_peak_exactly() {
        let t = mixed_trace();
        let facts = TraceFacts::of(&t);
        let best = facts
            .snapshots
            .iter()
            .map(LiveSnapshot::requested_bytes)
            .max()
            .unwrap();
        assert_eq!(best, t.peak_live_requested());
        // Histograms are sorted, deduplicated by event, and all counts
        // positive.
        let mut seen = std::collections::HashSet::new();
        for s in &facts.snapshots {
            assert!(seen.insert(s.event), "snapshot event duplicated");
            assert!(s.histogram.windows(2).all(|w| w[0].0 < w[1].0));
            assert!(s.histogram.iter().all(|&(_, c)| c > 0));
        }
    }

    #[test]
    fn max_simultaneous_counts_per_size_not_globally() {
        let mut b = Trace::builder();
        // Three 32s live together, then freed; five 64s live together.
        let xs: Vec<u64> = (0..3).map(|_| b.alloc(32)).collect();
        for id in xs {
            b.free(id);
        }
        let ys: Vec<u64> = (0..5).map(|_| b.alloc(64)).collect();
        for id in ys {
            b.free(id);
        }
        let facts = TraceFacts::of(&b.finish().unwrap());
        assert_eq!(facts.max_simultaneous, vec![(32, 3), (64, 5)]);
        assert_eq!(facts.peak.blocks, 5);
    }

    /// The histogram `facts` holds at `event`, if it holds one.
    fn snapshot_at(facts: &TraceFacts, event: usize) -> Option<&[(usize, usize)]> {
        facts
            .snapshots
            .iter()
            .find(|s| s.event == event)
            .map(|s| s.histogram.as_slice())
    }

    #[test]
    fn phase_facts_merge_reentrant_segments_and_report_boundaries() {
        let t = mixed_trace();
        let facts = TraceFacts::of(&t);
        // Phase 1 peaks at its fourth 200-byte allocation (event 13), with
        // phase 0's 17-byte objects still live: also the global peak.
        assert_eq!(snapshot_at(&facts, 13), Some(&[(17, 8), (200, 4)][..]));
        // Phase 0's peak spans both segments: the re-entered one (event
        // 23) sees the four 200-byte objects still live, above the first
        // segment's 8 x 17 bytes.
        assert_eq!(snapshot_at(&facts, 23), Some(&[(40, 1), (200, 4)][..]));
        assert_eq!(facts.snapshots.len(), 2, "no per-segment instants");
        // What crosses a phase boundary is the phase shards' to report.
        let shards = crate::trace::shard_trace(&t, 1);
        let p0 = shards.iter().find(|s| s.phase == Some(0)).unwrap();
        let p1 = shards.iter().find(|s| s.phase == Some(1)).unwrap();
        assert!(p0.boundary.is_closed(), "phase 0 starts the trace");
        assert_eq!(p1.boundary.carried_blocks, 8, "the 17-byte objects");
        assert_eq!(p1.boundary.carried_bytes, 8 * 17);
    }

    #[test]
    fn single_phase_trace_gets_one_profile() {
        let mut b = Trace::builder();
        let a = b.alloc(100);
        b.free(a);
        let facts = TraceFacts::of(&b.finish().unwrap());
        // Phase 0's byte peak is also both global peaks: one snapshot.
        assert_eq!(
            facts.snapshots,
            vec![LiveSnapshot {
                event: 0,
                histogram: vec![(100, 1)],
            }]
        );
    }

    #[test]
    fn empty_trace_bounds_to_static_overhead_only() {
        let t = Trace::builder().finish().unwrap();
        let facts = TraceFacts::of(&t);
        assert!(facts.snapshots.is_empty());
        for cfg in presets::all() {
            let b = bound_breakdown(&facts, &cfg);
            assert_eq!(b.quantum, 0, "no alloc, no granule");
            assert_eq!(b.total(), b.static_overhead);
            let mut m = PolicyAllocator::new(cfg).unwrap();
            let fs = replay(&t, &mut m).unwrap();
            assert!(b.total() <= fs.peak_footprint);
        }
    }

    #[test]
    fn bounds_are_admissible_on_the_mixed_trace() {
        let t = mixed_trace();
        let facts = TraceFacts::of(&t);
        for cfg in presets::all() {
            let bound = lower_bound_peak(&facts, &cfg);
            let mut m = PolicyAllocator::new(cfg.clone()).unwrap();
            let fs = replay(&t, &mut m).unwrap();
            assert!(
                bound <= fs.peak_footprint,
                "{}: bound {bound} > replayed peak {}",
                cfg.name,
                fs.peak_footprint
            );
            assert!(bound > 0, "{}: trivial bound", cfg.name);
        }
    }

    #[test]
    fn classed_bytes_uses_the_shared_rounding() {
        let t = mixed_trace();
        let facts = TraceFacts::of(&t);
        let cfg = presets::kingsley_like();
        let pools = Pools::new(&cfg);
        for s in &facts.snapshots {
            let direct: usize = s
                .histogram
                .iter()
                .map(|&(sz, c)| {
                    let raw = crate::units::align_up(
                        sz + cfg.tag_bytes_per_block(),
                        crate::units::MIN_ALIGN,
                    )
                    .max(MIN_BLOCK);
                    c * pools.class_len(raw)
                })
                .sum();
            assert_eq!(s.classed_bytes(&cfg), direct);
        }
    }

    #[test]
    fn rank_by_bound_is_a_deterministic_permutation() {
        let t = mixed_trace();
        let facts = TraceFacts::of(&t);
        let configs = presets::all();
        let ranked = rank_by_bound(&facts, &configs);
        assert_eq!(ranked.len(), configs.len());
        let mut idx: Vec<usize> = ranked.iter().map(|&(i, _)| i).collect();
        idx.sort_unstable();
        assert_eq!(idx, (0..configs.len()).collect::<Vec<_>>());
        assert!(ranked.windows(2).all(|w| w[0].1 <= w[1].1));
        assert_eq!(ranked, rank_by_bound(&facts, &configs));
    }

    #[test]
    fn bd_lints_fire_on_their_fixtures() {
        // BD001 fires on anything; BD002 wants sizes that class badly.
        let mut b = Trace::builder();
        let ids: Vec<u64> = (0..16).map(|_| b.alloc(33)).collect();
        for id in ids {
            b.free(id);
        }
        let facts = TraceFacts::of(&b.finish().unwrap());
        let pow2 = presets::kingsley_like();
        let codes: Vec<String> = lint_bounds(&facts, &pow2)
            .into_iter()
            .map(|d| d.code)
            .collect();
        assert!(codes.contains(&"BD001".to_string()));
        assert!(codes.contains(&"BD002".to_string()), "33 -> 64 rounds 94%");

        // BD003: one tiny allocation on a fixed-class config.
        let mut b = Trace::builder();
        let a = b.alloc(8);
        b.free(a);
        let tiny = TraceFacts::of(&b.finish().unwrap());
        let codes: Vec<String> = lint_bounds(&tiny, &pow2)
            .into_iter()
            .map(|d| d.code)
            .collect();
        assert!(codes.contains(&"BD003".to_string()));

        // BD004: fat tags against small objects.
        let tagged = presets::lea_like()
            .with_leaf(Leaf::A3(BlockTags::HeaderAndFooter))
            .with_leaf(Leaf::A4(RecordedInfo::SizeAndStatus));
        assert!(tagged.tag_bytes_per_block() >= 8);
        let mut b = Trace::builder();
        let ids: Vec<u64> = (0..32).map(|_| b.alloc(8)).collect();
        for id in ids {
            b.free(id);
        }
        let small = TraceFacts::of(&b.finish().unwrap());
        let codes: Vec<String> = lint_bounds(&small, &tagged)
            .into_iter()
            .map(|d| d.code)
            .collect();
        assert!(codes.contains(&"BD004".to_string()));

        // A many-size, thin-tag config on a friendly trace stays at BD001.
        let friendly = presets::drr_paper();
        let codes: Vec<String> = lint_bounds(&facts, &friendly)
            .into_iter()
            .map(|d| d.code)
            .collect();
        assert_eq!(codes, vec!["BD001".to_string()]);
    }

    #[test]
    fn quantum_component_applies_to_fixed_classes_only() {
        let mut b = Trace::builder();
        let a = b.alloc(8);
        b.free(a);
        let facts = TraceFacts::of(&b.finish().unwrap());
        let many = presets::drr_paper();
        assert_eq!(bound_breakdown(&facts, &many).quantum, 0);
        let pow2 = presets::kingsley_like();
        assert!(pow2.block_sizes == BlockSizes::PowerOfTwoClasses);
        assert_eq!(bound_breakdown(&facts, &pow2).quantum, SBRK_GRANULARITY);
        // Pathological trim thresholds disable the component.
        let mut trimmed = pow2;
        trimmed.params.trim_threshold = Some(64);
        assert_eq!(bound_breakdown(&facts, &trimmed).quantum, 0);
    }
}
