//! Sharding large traces into self-contained windows.
//!
//! Exploration replays one trace end to end per candidate, so without
//! sharding it is bounded by a single trace's length and one machine's
//! memory. This module removes that bound: [`shard_trace`] splits a trace
//! into self-contained shards — **phase-aligned** when the trace carries
//! phase markers, **lifetime-closed windows** otherwise — and
//! [`replay_shards`] folds a stream of shards one at a time, with memory
//! bounded by the *largest shard*, not the whole trace.
//!
//! Every shard is a valid [`Trace`] on its own: an object's free is
//! attributed to the shard that allocated it, so no shard ever frees an id
//! it did not allocate. Objects that are live across a shard's entry
//! boundary are summarised in the shard's [`BoundarySummary`] — the
//! quantity the composed accounting can be off by, reported rather than
//! hidden.
//!
//! Phase markers are *re-entrant* (see [`TraceEvent::Phase`]): the
//! phase-aligned path merges every segment of a phase into that phase's
//! single shard, so `A B A` yields two shards, not three. That split is
//! also [`Trace::split_phases`], which returns the same shards without
//! their boundary summaries.
//!
//! [`replay_shards`] is the one fold over a shard stream, whatever scores
//! each shard: [`replay_shards_config`] replays it fresh, and sharded
//! exploration asks its engine.

use std::collections::HashMap;

use crate::error::Result;
use crate::manager::PolicyAllocator;
use crate::metrics::FootprintStats;
use crate::space::config::DmConfig;

use super::compiled::{replay_compiled_with, CompiledTrace, ReplayScratch};
use super::{Trace, TraceEvent};

/// Live memory crossing a shard's entry boundary: objects allocated by an
/// earlier shard (or another phase) that are still live when this shard's
/// window begins in the original trace.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BoundarySummary {
    /// Number of live objects carried across the boundary.
    pub carried_blocks: usize,
    /// Requested bytes carried across the boundary.
    pub carried_bytes: usize,
}

impl BoundarySummary {
    /// Whether nothing was live across the entry boundary — the shard is a
    /// lifetime-closed window and per-shard replay loses no signal.
    pub fn is_closed(&self) -> bool {
        self.carried_blocks == 0
    }
}

/// One self-contained window of a larger trace.
#[derive(Debug, Clone)]
pub struct TraceShard {
    /// Position of the shard in the original trace (0-based).
    pub index: usize,
    /// The phase this shard covers, when sharding was phase-aligned.
    pub phase: Option<u32>,
    /// The shard's events — a valid trace on its own.
    pub trace: Trace,
    /// Live memory crossing the shard's entry boundary.
    pub boundary: BoundarySummary,
}

impl TraceShard {
    /// A lifetime-closed shard (nothing live across either boundary) —
    /// what streaming generators produce.
    pub fn closed(index: usize, trace: Trace) -> Self {
        TraceShard {
            index,
            phase: None,
            trace,
            boundary: BoundarySummary::default(),
        }
    }

    /// Bytes of memory this shard's events occupy while resident — the
    /// quantity streaming replay bounds by the largest shard.
    pub fn resident_bytes(&self) -> usize {
        self.trace.resident_bytes()
    }

    /// The shard's vote weight in the sharded-exploration merge rule: its
    /// peak live demand in bytes (never zero, so every shard gets a say).
    pub fn weight(&self) -> f64 {
        self.trace.peak_live_requested().max(1) as f64
    }
}

/// Split a trace into at most `shards` self-contained shards.
///
/// Traces with more than one distinct phase are split **phase-aligned**:
/// one shard per phase (re-entered phases merge into their shard, see
/// [`Trace::split_phases`]), and `shards` is ignored — phase boundaries
/// are the paper's own decomposition (Section 3.3) and always win.
///
/// Unphased traces are split into **windows** of roughly equal event
/// count. Each cut searches a quarter-window of slack on *either side* of
/// its target and takes the first point there where nothing is live (a
/// lifetime-closed boundary); if the neighbourhood has no such point the
/// cut is forced at the boundary crossed by the fewest live objects, the
/// spanning objects are attributed to their allocating shard, and the
/// crossing live set is recorded in the next shard's [`BoundarySummary`].
///
/// Empty traces yield no shards; fewer shards than requested are returned
/// when the trace is too short.
pub fn shard_trace(trace: &Trace, shards: usize) -> Vec<TraceShard> {
    if trace.is_empty() {
        return Vec::new();
    }
    if trace.phases().len() > 1 {
        shard_by_phases(trace)
    } else {
        shard_by_windows(trace, shards.max(1))
    }
}

/// One shard per distinct phase, owner-attributed, with boundary
/// summaries of cross-phase live memory at each phase's first entry.
/// Events before the first marker belong to phase 0; a trace without
/// markers yields one phase-0 shard.
pub(super) fn shard_by_phases(trace: &Trace) -> Vec<TraceShard> {
    // id -> (owning phase, size); entries removed on free so the map is
    // bounded by the peak live set, not the total allocation count.
    let mut owner: HashMap<u64, (u32, usize)> = HashMap::new();
    let mut buckets: Vec<(u32, Vec<TraceEvent>, BoundarySummary)> = Vec::new();
    let mut current = 0u32;

    let ensure_bucket = |buckets: &mut Vec<(u32, Vec<TraceEvent>, BoundarySummary)>,
                         owner: &HashMap<u64, (u32, usize)>,
                         phase: u32| {
        if buckets.iter().all(|(p, _, _)| *p != phase) {
            // First entry into this phase: everything currently live is
            // owned elsewhere and crosses the boundary.
            let mut b = BoundarySummary::default();
            for &(_, size) in owner.values() {
                b.carried_blocks += 1;
                b.carried_bytes += size;
            }
            buckets.push((phase, Vec::new(), b));
        }
    };
    ensure_bucket(&mut buckets, &owner, 0);

    for ev in trace.events() {
        match ev {
            TraceEvent::Phase { phase } => {
                current = *phase;
                ensure_bucket(&mut buckets, &owner, current);
            }
            TraceEvent::Alloc { id, size } => {
                owner.insert(*id, (current, *size));
                let b = buckets
                    .iter_mut()
                    .find(|(p, _, _)| *p == current)
                    .expect("bucket exists");
                b.1.push(*ev);
            }
            TraceEvent::Free { id } => {
                let (ph, _) = owner.remove(id).unwrap_or((current, 0));
                let b = buckets
                    .iter_mut()
                    .find(|(p, _, _)| *p == ph)
                    .expect("owner bucket exists");
                b.1.push(*ev);
            }
        }
    }
    buckets
        .into_iter()
        .filter(|(_, evs, _)| !evs.is_empty())
        .enumerate()
        .map(|(index, (phase, evs, boundary))| TraceShard {
            index,
            phase: Some(phase),
            trace: Trace::from_events(evs).expect("phase projection preserves validity"),
            boundary,
        })
        .collect()
}

/// Equal-event windows with lifetime-closed cut preference and owner
/// attribution of spanning objects.
fn shard_by_windows(trace: &Trace, want: usize) -> Vec<TraceShard> {
    let n = trace.len();
    let want = want.min(n);
    let target = n.div_ceil(want);
    let slack = target / 4;

    // Pass 1: pick cut points (indices where a new window starts). Each
    // cut searches a ±slack neighbourhood of its target for the cheapest
    // boundary: the first lifetime-closed one, else the one crossed by the
    // fewest live objects — forced cuts sever as little as possible.
    let live: Vec<LiveAfter> = live_after(trace.events()).collect();
    let mut cuts: Vec<usize> = vec![0];
    let mut ideal = target;
    while cuts.len() < want && ideal < n {
        let lo = ideal
            .saturating_sub(slack)
            .max(cuts.last().expect("non-empty") + 1);
        let hi = (ideal + slack).min(n - 1);
        if lo > hi {
            break;
        }
        // A cut at `c` ends the previous window after event c-1.
        let (after, _) =
            cheapest_cut((lo - 1..hi).map(|i| (i, live[i]))).expect("range checked non-empty");
        let cut = after + 1;
        cuts.push(cut);
        ideal = cut + target;
    }

    // Pass 2: attribute events to windows (frees to the allocating
    // window) and snapshot the live set crossing each cut.
    let mut bufs: Vec<Vec<TraceEvent>> = cuts.iter().map(|_| Vec::new()).collect();
    let mut boundaries: Vec<BoundarySummary> =
        cuts.iter().map(|_| BoundarySummary::default()).collect();
    // id -> (owning window, size); removed on free (bounded by peak live).
    let mut owner: HashMap<u64, (usize, usize)> = HashMap::new();
    let mut w = 0usize;
    for (i, ev) in trace.events().iter().enumerate() {
        while w + 1 < cuts.len() && i >= cuts[w + 1] {
            w += 1;
            let b = &mut boundaries[w];
            for &(_, size) in owner.values() {
                b.carried_blocks += 1;
                b.carried_bytes += size;
            }
        }
        match ev {
            TraceEvent::Alloc { id, size } => {
                owner.insert(*id, (w, *size));
                bufs[w].push(*ev);
            }
            TraceEvent::Free { id } => {
                let (ow, _) = owner.remove(id).unwrap_or((w, 0));
                bufs[ow].push(*ev);
            }
            TraceEvent::Phase { .. } => bufs[w].push(*ev),
        }
    }

    bufs.into_iter()
        .zip(boundaries)
        .filter(|(evs, _)| !evs.is_empty())
        .enumerate()
        .map(|(index, (evs, boundary))| TraceShard {
            index,
            phase: None,
            trace: Trace::from_events(evs).expect("window projection preserves validity"),
            boundary,
        })
        .collect()
}

/// Feasibility of cutting an event stream into lifetime-closed windows:
/// the cheapest interior cut any forced window boundary could take.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CutFeasibility {
    /// Event index after which the cheapest interior cut falls (the cut
    /// severs the live set *after* this event). Earliest on ties.
    pub best_cut_after: usize,
    /// Live blocks that cut would carry across the boundary. Zero means a
    /// lifetime-closed cut exists and sharding loses no signal.
    pub min_live_blocks: usize,
    /// Requested bytes that cut would carry across the boundary.
    pub min_live_bytes: usize,
}

/// Report the cheapest interior cut of `events`: the cut [`shard_trace`]'s
/// window cutter would force there, read from the same live-set walk and
/// chosen by the same rule, so the `TR007` lint of
/// [`crate::analyze::trace_lints`] predicts exactly what a forced cut would
/// carry. Interior means after events `0..len-1`: cutting after the final
/// event yields an empty window. Returns `None` for streams with fewer than
/// two events.
pub fn cut_feasibility(events: &[TraceEvent]) -> Option<CutFeasibility> {
    let interior = &events[..events.len().checked_sub(1)?];
    let (after, live) = cheapest_cut(live_after(interior).enumerate())?;
    Some(CutFeasibility {
        best_cut_after: after,
        min_live_blocks: live.blocks,
        min_live_bytes: live.bytes,
    })
}

/// The live set after one event.
#[derive(Debug, Clone, Copy)]
struct LiveAfter {
    /// Live blocks.
    blocks: usize,
    /// Their requested bytes.
    bytes: usize,
}

/// The live set after each event of `events`, in order: the one walk both
/// the window cutter and [`cut_feasibility`] read. It also takes the raw
/// streams the trace lints see: a free of an id that is not live frees
/// nothing.
fn live_after(events: &[TraceEvent]) -> impl Iterator<Item = LiveAfter> + '_ {
    // id -> size; entries leave on free (bounded by the peak live set).
    let mut sizes: HashMap<u64, usize> = HashMap::new();
    let mut bytes = 0usize;
    events.iter().map(move |ev| {
        match ev {
            TraceEvent::Alloc { id, size } => {
                sizes.insert(*id, *size);
                bytes += size;
            }
            TraceEvent::Free { id } => bytes -= sizes.remove(id).unwrap_or(0),
            TraceEvent::Phase { .. } => {}
        }
        LiveAfter {
            blocks: sizes.len(),
            bytes,
        }
    })
}

/// The cheapest of `cuts`, each an event index and the live set after it:
/// the fewest live blocks, earliest on ties, so a lifetime-closed point
/// wins whenever there is one.
fn cheapest_cut(cuts: impl Iterator<Item = (usize, LiveAfter)>) -> Option<(usize, LiveAfter)> {
    cuts.min_by_key(|&(_, live)| live.blocks)
}

/// Result of a streaming sharded replay.
#[derive(Debug, Clone)]
pub struct ShardedReplay {
    /// Composed statistics over every shard: counters summed, peaks
    /// maxed, final state from the last shard (see
    /// [`FootprintStats::absorb_shard`]).
    pub stats: FootprintStats,
    /// Number of shards replayed.
    pub shard_count: usize,
    /// Largest single shard held resident during the replay — the
    /// replay's trace-memory bound (the whole trace is never resident).
    pub peak_resident_trace_bytes: usize,
    /// Worst boundary carry seen — the bytes by which any shard's
    /// accounting can under-state the whole-trace live set.
    pub max_carried_bytes: usize,
}

/// Fold a stream of shards into one [`ShardedReplay`]: `score` replays
/// (or otherwise evaluates) each shard, and the fold composes the
/// per-shard statistics ([`FootprintStats::absorb_shard`]) while tracking
/// the largest resident shard and the worst boundary carry. Shards are
/// consumed one at a time: memory is bounded by the largest shard, never
/// the whole trace. An empty stream folds to default statistics and a
/// zero `shard_count`.
///
/// For lifetime-closed shards the composed `peak_requested` equals the
/// whole-trace value exactly; `peak_footprint` is the max over the
/// per-shard replays, which tracks the whole-trace peak to within
/// arena-granularity effects when each shard starts from an empty arena
/// instead of the previous shard's trimmed one.
///
/// # Errors
///
/// Propagates the first error `score` returns.
pub fn replay_shards<I, F>(shards: I, mut score: F) -> Result<ShardedReplay>
where
    I: IntoIterator<Item = TraceShard>,
    F: FnMut(&TraceShard) -> Result<FootprintStats>,
{
    let mut composed: Option<FootprintStats> = None;
    let mut shard_count = 0usize;
    let mut peak_resident = 0usize;
    let mut max_carried = 0usize;
    for shard in shards {
        peak_resident = peak_resident.max(shard.resident_bytes());
        max_carried = max_carried.max(shard.boundary.carried_bytes);
        let fs = score(&shard)?;
        match composed.as_mut() {
            None => composed = Some(fs),
            Some(c) => c.absorb_shard(&fs),
        }
        shard_count += 1;
    }
    Ok(ShardedReplay {
        stats: composed.unwrap_or_default(),
        shard_count,
        peak_resident_trace_bytes: peak_resident,
        max_carried_bytes: max_carried,
    })
}

/// [`replay_shards`] with a fresh [`PolicyAllocator`] of `cfg` per shard.
///
/// Each shard is compiled ([`CompiledTrace`]) and replayed through the
/// monomorphized kernel. All shards share one slot table: shard *i*'s
/// slots occupy the range `0..slot_count(i)` of a [`ReplayScratch`] that
/// persists across the stream (cleared between shards, grown once to the
/// largest shard's slot count), and each compiled shard is dropped with
/// its shard, preserving the largest-shard memory bound.
///
/// # Errors
///
/// Propagates manager construction and replay failures.
pub fn replay_shards_config<I>(shards: I, cfg: &DmConfig) -> Result<ShardedReplay>
where
    I: IntoIterator<Item = TraceShard>,
{
    let mut scratch = ReplayScratch::new();
    replay_shards(shards, |shard| {
        let compiled = CompiledTrace::compile(&shard.trace);
        let mut mgr = PolicyAllocator::new(cfg.clone())?;
        replay_compiled_with(&compiled, &mut mgr, &mut scratch)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::presets;
    use crate::trace::replay;

    /// Churny unphased trace with natural live==0 points sprinkled in.
    fn churn_trace(windows: usize, per_window: usize) -> Trace {
        let mut b = Trace::builder();
        let mut x: u64 = 0x2545F4914F6CDD1D;
        for _ in 0..windows {
            let mut live = Vec::new();
            for _ in 0..per_window {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                if live.is_empty() || x % 7 < 4 {
                    live.push(b.alloc(16 + (x % 700) as usize));
                } else {
                    let i = (x as usize / 3) % live.len();
                    b.free(live.swap_remove(i));
                }
            }
            for id in live {
                b.free(id); // drain: a lifetime-closed boundary
            }
        }
        b.finish().unwrap()
    }

    /// Two churn windows under one long-lived object, so every possible
    /// cut crosses at least the long-lived allocation.
    fn spanning_trace() -> Trace {
        let mut b = Trace::builder();
        let long = b.alloc(1000); // lives the whole trace
        for _ in 0..2 {
            let ids: Vec<u64> = (0..40).map(|i| b.alloc(32 + i)).collect();
            for id in ids {
                b.free(id);
            }
        }
        b.free(long);
        b.finish().unwrap()
    }

    #[test]
    fn windows_partition_every_event() {
        let t = churn_trace(4, 60);
        let shards = shard_trace(&t, 4);
        assert!(shards.len() >= 2, "got {} shards", shards.len());
        let events: usize = shards.iter().map(|s| s.trace.len()).sum();
        assert_eq!(events, t.len());
        let allocs: usize = shards.iter().map(|s| s.trace.alloc_count()).sum();
        assert_eq!(allocs, t.alloc_count());
        let frees: usize = shards.iter().map(|s| s.trace.free_count()).sum();
        assert_eq!(frees, t.free_count());
    }

    #[test]
    fn drained_windows_cut_at_closed_boundaries() {
        let t = churn_trace(4, 80);
        let shards = shard_trace(&t, 4);
        assert_eq!(shards.len(), 4);
        for s in &shards {
            assert!(
                s.boundary.is_closed(),
                "shard {} carries {} bytes across its boundary",
                s.index,
                s.boundary.carried_bytes
            );
        }
    }

    #[test]
    fn spanning_objects_are_owner_attributed_and_reported() {
        let t = spanning_trace();
        let shards = shard_trace(&t, 2);
        assert_eq!(shards.len(), 2);
        // The long-lived 1000-byte object crosses the cut (and nothing
        // else does: the forced cut severs the fewest live objects)...
        assert!(!shards[1].boundary.is_closed());
        assert_eq!(shards[1].boundary.carried_blocks, 1);
        assert_eq!(shards[1].boundary.carried_bytes, 1000);
        // ...and both its alloc and free live in shard 0, so every shard
        // stays a balanced, valid trace.
        for s in &shards {
            assert_eq!(s.trace.alloc_count(), s.trace.free_count());
        }
    }

    #[test]
    fn phased_traces_shard_phase_aligned_and_reentrant_phases_merge() {
        let mut b = Trace::builder();
        b.phase(0);
        let a = b.alloc(64);
        b.phase(1);
        let c = b.alloc(128);
        b.phase(0); // re-enter phase 0: merges into phase 0's shard
        let d = b.alloc(64);
        b.free(a);
        b.free(c);
        b.free(d);
        let t = b.finish().unwrap();
        let shards = shard_trace(&t, 8);
        assert_eq!(shards.len(), 2, "A B A merges to two shards");
        let p0 = shards.iter().find(|s| s.phase == Some(0)).unwrap();
        assert_eq!(p0.trace.alloc_count(), 2);
        let p1 = shards.iter().find(|s| s.phase == Some(1)).unwrap();
        assert_eq!(p1.trace.alloc_count(), 1);
        // Phase 1 first opens while phase 0's object `a` is live.
        assert_eq!(p1.boundary.carried_bytes, 64);
    }

    #[test]
    fn composed_replay_matches_whole_on_closed_shards() {
        let t = churn_trace(3, 70);
        let cfg = presets::drr_paper();
        let whole = replay(&t, &mut PolicyAllocator::new(cfg.clone()).unwrap()).unwrap();
        let shards = shard_trace(&t, 3);
        assert!(shards.iter().all(|s| s.boundary.is_closed()));
        let sharded = replay_shards_config(shards, &cfg).unwrap();
        assert_eq!(sharded.stats.events, whole.events);
        assert_eq!(sharded.stats.stats.allocs, whole.stats.allocs);
        assert_eq!(sharded.stats.stats.frees, whole.stats.frees);
        assert_eq!(
            sharded.stats.peak_requested, whole.peak_requested,
            "closed shards preserve the demand peak exactly"
        );
        assert_eq!(sharded.max_carried_bytes, 0);
    }

    #[test]
    fn streaming_replay_is_bounded_by_the_largest_shard() {
        let t = churn_trace(4, 80);
        let whole_bytes = t.resident_bytes();
        let shards = shard_trace(&t, 4);
        let sharded = replay_shards_config(shards, &presets::lea_like()).unwrap();
        assert_eq!(sharded.shard_count, 4);
        assert!(
            sharded.peak_resident_trace_bytes < whole_bytes,
            "resident {} not below whole-trace {}",
            sharded.peak_resident_trace_bytes,
            whole_bytes
        );
        // The bound is the largest shard, which cannot be smaller than a
        // fair quarter of the trace.
        assert!(sharded.peak_resident_trace_bytes >= whole_bytes / 8);
    }

    #[test]
    fn cut_feasibility_matches_the_forced_cut_metric() {
        // The spanning trace has no closed interior cut: the cheapest
        // boundary carries exactly the long-lived 1000-byte object —
        // the same carry shard_trace's forced cut reports.
        let f = cut_feasibility(spanning_trace().events()).unwrap();
        assert_eq!(f.min_live_blocks, 1);
        assert_eq!(f.min_live_bytes, 1000);
        // Drained churn windows expose a closed cut.
        let f = cut_feasibility(churn_trace(2, 40).events()).unwrap();
        assert_eq!(f.min_live_blocks, 0);
        assert_eq!(f.min_live_bytes, 0);
        // Degenerate streams have no interior cut at all.
        assert!(cut_feasibility(&[]).is_none());
        assert!(cut_feasibility(&[TraceEvent::Alloc { id: 1, size: 8 }]).is_none());
    }

    #[test]
    fn degenerate_inputs() {
        assert!(shard_trace(&Trace::from_events(vec![]).unwrap(), 4).is_empty());
        let mut b = Trace::builder();
        let a = b.alloc(10);
        b.free(a);
        let t = b.finish().unwrap();
        // More shards than events: clamps, stays valid.
        let shards = shard_trace(&t, 64);
        let total: usize = shards.iter().map(|s| s.trace.len()).sum();
        assert_eq!(total, t.len());
        // One shard reproduces the whole trace.
        let one = shard_trace(&t, 1);
        assert_eq!(one.len(), 1);
        assert_eq!(one[0].trace, t);
    }
}
