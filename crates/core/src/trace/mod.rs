//! Allocation traces: recording, validation and replay.
//!
//! The methodology is trace-driven (Section 5: "we first profile its DM
//! behaviour"): a workload runs once against a [`RecordingAllocator`],
//! producing a [`Trace`]; the trace then replays against any manager to
//! measure the footprint that manager *would* have had — identical inputs
//! for every comparator, exactly like the paper's 10-simulation averages.
//!
//! Each replay job has one implementation:
//!
//! - [`compiled`] is the replay kernel: every replay that scores a
//!   manager, the sampled footprint curve ([`replay_compiled_sampled`])
//!   and the capped or budgeted sweep replay ([`replay_compiled_limited`]);
//! - [`shard`] cuts a trace into self-contained shards (its phase-aligned
//!   split is also [`Trace::split_phases`]), and [`replay_shards`] is the
//!   one fold over a stream of shards;
//! - [`replay`] is the reference interpreter: a plain `HashMap` event loop
//!   that the kernel's checks compare against, never a scoring path.

pub mod compiled;
mod record;
pub mod shard;
pub mod store;

pub use compiled::{
    replay_compiled, replay_compiled_limited, replay_compiled_sampled, replay_compiled_with,
    CappedReplay, CompiledTrace, ReplayBudget, ReplayScratch,
};
pub use record::RecordingAllocator;
pub use shard::{
    replay_shards, replay_shards_config, shard_trace, BoundarySummary, ShardedReplay, TraceShard,
};
pub use store::{
    decode_trace, encode_trace, read_trace, recover_bytes, recover_trace, write_trace,
    RecoveredTrace,
};

use std::collections::HashMap;

use serde::{Deserialize, Serialize};

use crate::error::{Error, Result};
use crate::manager::{Allocator, BlockHandle};
use crate::metrics::FootprintStats;

/// One event of an allocation trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TraceEvent {
    /// The application requested `size` bytes; the object is named `id`.
    Alloc {
        /// Unique object id within the trace.
        id: u64,
        /// Requested payload bytes.
        size: usize,
    },
    /// The application released object `id`.
    Free {
        /// Id of a previously allocated, still-live object.
        id: u64,
    },
    /// The application entered logical phase `phase` (Section 3.3).
    ///
    /// Markers are **re-entrant**: phase ids may repeat and revisit
    /// earlier phases in any order (the rendering case study alternates
    /// `1, 0, 1, 0, …` every frame). Consumers that need one bucket per
    /// phase — [`Trace::split_phases`] and phase-aligned sharding
    /// ([`shard_trace`]) — merge every segment of a phase into that
    /// phase's single bucket, attributing each object to the phase that
    /// allocated it. [`Trace::phases_are_monotonic`] reports whether a
    /// trace happens to use the simpler one-shot phase discipline.
    Phase {
        /// Phase id; re-entrant (see above).
        phase: u32,
    },
}

/// A validated allocation trace.
///
/// Construct with [`Trace::builder`] or by recording a workload through
/// [`RecordingAllocator`]. Every construction path validates — including
/// deserialization, which routes through [`Trace::from_events`] — so a
/// `Trace` in hand always satisfies the alloc/free discipline (consumers
/// like [`CompiledTrace::compile`] rely on it).
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize)]
pub struct Trace {
    events: Vec<TraceEvent>,
}

// Manual deserialization so a trace loaded from JSON cannot bypass
// `from_events` validation (a dangling free in hand-edited input must
// surface here, not as a panic deep inside a replay consumer).
impl serde::Deserialize for Trace {
    fn from_value(v: &serde::Value) -> std::result::Result<Self, serde::DeError> {
        let map = v
            .as_map()
            .ok_or_else(|| serde::DeError::msg("expected map for Trace"))?;
        let events: Vec<TraceEvent> = serde::Deserialize::from_value(serde::field(map, "events")?)?;
        Trace::from_events(events).map_err(|e| serde::DeError::msg(format!("invalid trace: {e}")))
    }
}

impl Trace {
    /// Start building a trace event by event.
    pub fn builder() -> TraceBuilder {
        TraceBuilder::new()
    }

    /// Validate and wrap raw events.
    ///
    /// # Errors
    ///
    /// Returns [`Error::MalformedTrace`] on duplicate ids, frees of unknown
    /// or dead ids, or zero-id reuse. Phase markers are deliberately
    /// unconstrained — any sequence of ids is well-formed under the
    /// re-entrant contract documented on [`TraceEvent::Phase`].
    pub fn from_events(events: Vec<TraceEvent>) -> Result<Self> {
        // The checks live in the trace sanitizer (single source for the
        // `TR0xx` codes); this chokepoint covers every record, shard and
        // deserialization path, so malformed input fails with a coded
        // diagnostic instead of a mid-replay panic.
        match crate::analyze::trace_lints::first_error(&events) {
            Some(d) => Err(Error::MalformedTrace(format!("{}: {}", d.code, d.message))),
            None => Ok(Trace { events }),
        }
    }

    /// The events, in order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the trace has no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Number of allocation events.
    pub fn alloc_count(&self) -> usize {
        self.events
            .iter()
            .filter(|e| matches!(e, TraceEvent::Alloc { .. }))
            .count()
    }

    /// Number of free events.
    pub fn free_count(&self) -> usize {
        self.events
            .iter()
            .filter(|e| matches!(e, TraceEvent::Free { .. }))
            .count()
    }

    /// Distinct phase ids appearing in the trace (sorted).
    pub fn phases(&self) -> Vec<u32> {
        let mut ps: Vec<u32> = self
            .events
            .iter()
            .filter_map(|e| match e {
                TraceEvent::Phase { phase } => Some(*phase),
                _ => None,
            })
            .collect();
        ps.sort_unstable();
        ps.dedup();
        ps
    }

    /// Total bytes requested over the whole trace.
    pub fn total_requested(&self) -> usize {
        self.events
            .iter()
            .map(|e| match e {
                TraceEvent::Alloc { size, .. } => *size,
                _ => 0,
            })
            .sum()
    }

    /// Peak simultaneously-live requested bytes — a manager-independent
    /// lower bound for any manager's footprint.
    pub fn peak_live_requested(&self) -> usize {
        self.live_set_peak().bytes
    }

    /// Walk the live set once and report its peaks.
    ///
    /// The walk's own bookkeeping is bounded by the peak live set — dead
    /// entries are dropped as frees arrive, never retained for the rest of
    /// the trace — so [`LiveSetPeak::blocks`] (the bookkeeping's measured
    /// high-water mark) is O(peak live), not O(total allocs).
    pub fn live_set_peak(&self) -> LiveSetPeak {
        let mut sizes: HashMap<u64, usize> = HashMap::new();
        let (mut live, mut peak) = (0usize, 0usize);
        let mut peak_blocks = 0usize;
        for ev in &self.events {
            match ev {
                TraceEvent::Alloc { id, size } => {
                    sizes.insert(*id, *size);
                    live += size;
                    peak = peak.max(live);
                    peak_blocks = peak_blocks.max(sizes.len());
                }
                TraceEvent::Free { id } => {
                    live -= sizes.remove(id).unwrap_or(0);
                }
                TraceEvent::Phase { .. } => {}
            }
        }
        LiveSetPeak {
            bytes: peak,
            blocks: peak_blocks,
        }
    }

    /// Bytes this trace's events occupy while resident in memory — what a
    /// whole-trace replay must hold, and what sharded replay bounds by the
    /// largest shard instead.
    pub fn resident_bytes(&self) -> usize {
        self.events.len() * std::mem::size_of::<TraceEvent>()
    }

    /// Whether the phase markers follow the simple one-shot discipline
    /// (each marker ≥ its predecessor). Re-entrant traces (the rendering
    /// workload's `1, 0, 1, 0, …`) return `false`; both are well-formed —
    /// see [`TraceEvent::Phase`].
    pub fn phases_are_monotonic(&self) -> bool {
        let mut last: Option<u32> = None;
        for ev in &self.events {
            if let TraceEvent::Phase { phase } = ev {
                if last.is_some_and(|l| *phase < l) {
                    return false;
                }
                last = Some(*phase);
            }
        }
        true
    }

    /// Split into per-phase sub-traces: each contains the allocations made
    /// during that phase and the frees of those same objects (frees landing
    /// in later phases are attributed to the *owning* phase, keeping every
    /// sub-trace self-contained).
    ///
    /// Phase markers are re-entrant ([`TraceEvent::Phase`]): a repeated or
    /// revisited marker **merges** into the phase's existing bucket, so a
    /// trace announcing `0, 1, 0` yields two sub-traces, with both phase-0
    /// segments in the first. Traces without phase markers yield a single
    /// sub-trace. These are the phase-aligned shards of [`shard_trace`]
    /// without their boundary summaries.
    pub fn split_phases(&self) -> Vec<(u32, Trace)> {
        shard::shard_by_phases(self)
            .into_iter()
            .map(|s| (s.phase.expect("phase shards carry their phase"), s.trace))
            .collect()
    }
}

/// Peaks of a trace's live set (see [`Trace::live_set_peak`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LiveSetPeak {
    /// Peak simultaneously-live requested bytes.
    pub bytes: usize,
    /// Peak simultaneously-live object count — measured as the walk's own
    /// bookkeeping high-water mark, so it doubles as the proof that the
    /// walk is O(peak live), not O(total allocs).
    pub blocks: usize,
}

/// Incremental, validating trace builder.
#[derive(Debug, Clone, Default)]
pub struct TraceBuilder {
    events: Vec<TraceEvent>,
    next_id: u64,
    live: HashMap<u64, usize>,
}

impl TraceBuilder {
    /// An empty builder.
    pub fn new() -> Self {
        TraceBuilder::default()
    }

    /// Append an allocation of `size` bytes, returning its object id.
    ///
    /// Zero-size requests are recorded as one byte, mirroring `malloc(0)`.
    pub fn alloc(&mut self, size: usize) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        let size = size.max(1);
        self.live.insert(id, size);
        self.events.push(TraceEvent::Alloc { id, size });
        id
    }

    /// Append a free of object `id`.
    ///
    /// Invalid frees are recorded; [`TraceBuilder::finish`] rejects them.
    pub fn free(&mut self, id: u64) {
        self.live.remove(&id);
        self.events.push(TraceEvent::Free { id });
    }

    /// Append a phase marker.
    pub fn phase(&mut self, phase: u32) {
        self.events.push(TraceEvent::Phase { phase });
    }

    /// Number of events recorded so far.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether no events were recorded yet.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Bytes currently live in the builder's model.
    pub fn live_bytes(&self) -> usize {
        self.live.values().sum()
    }

    /// Validate and produce the trace.
    ///
    /// # Errors
    ///
    /// Returns [`Error::MalformedTrace`] if any recorded free was invalid.
    pub fn finish(self) -> Result<Trace> {
        Trace::from_events(self.events)
    }
}

/// Replay a trace against a manager, returning footprint statistics.
///
/// This is the reference interpreter: a plain event loop that matches
/// every `Free { id }` to its handle through a per-replay hash map. It is
/// deliberately independent of the compiled kernel, so the kernel's
/// checks (the goldens, the proptests, the benchmark's cross-checks) have
/// something other than the kernel to agree with. Replay loops should
/// compile the trace once and use [`replay_compiled`] (bit-identical
/// statistics, no per-event hashing), and footprint curves come from
/// [`replay_compiled_sampled`].
///
/// # Errors
///
/// Propagates manager errors ([`Error::OutOfMemory`]) and trace/manager
/// disagreements ([`Error::UnknownTraceId`]).
pub fn replay(trace: &Trace, manager: &mut dyn Allocator) -> Result<FootprintStats> {
    let mut handles: HashMap<u64, BlockHandle> = HashMap::new();
    for (i, ev) in trace.events().iter().enumerate() {
        match ev {
            TraceEvent::Alloc { id, size } => {
                let h = manager.alloc(*size)?;
                handles.insert(*id, h);
            }
            TraceEvent::Free { id } => {
                let h = handles.remove(id).ok_or(Error::UnknownTraceId(*id))?;
                manager.free(h)?;
            }
            TraceEvent::Phase { phase } => manager.set_phase(*phase),
        }
        // Debug builds verify the manager's structural invariants after
        // every event (throttled on very long traces — see
        // `should_deep_check`), so a corrupted tiling or index fails at
        // the event that caused it instead of thousands of events later.
        if cfg!(debug_assertions) && should_deep_check(i) {
            if let Err(e) = manager.check_invariants() {
                panic!("invariants violated after event {i} ({ev:?}): {e}");
            }
        }
    }
    let stats = manager.stats().clone();
    Ok(FootprintStats {
        manager: manager.name_shared(),
        peak_footprint: stats.peak_footprint,
        final_footprint: stats.system,
        peak_requested: stats.peak_requested,
        events: trace.len(),
        stats,
        series: None,
    })
}

/// Debug-build invariant-check schedule for the replay loops: every
/// event is checked through `DEEP_CHECK_EVENTS` (test-scale traces get
/// exact causal attribution for any corruption), after which long replays
/// are checked every `DEEP_CHECK_STRIDE` events — an O(heap) check per
/// event is quadratic, and the debug suite replays million-event traces.
pub(crate) fn should_deep_check(event: usize) -> bool {
    const DEEP_CHECK_EVENTS: usize = 512;
    const DEEP_CHECK_STRIDE: usize = 32;
    event < DEEP_CHECK_EVENTS || event.is_multiple_of(DEEP_CHECK_STRIDE)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manager::PolicyAllocator;
    use crate::space::presets;

    fn tiny_trace() -> Trace {
        let mut b = Trace::builder();
        let a = b.alloc(100);
        let c = b.alloc(200);
        b.free(a);
        let d = b.alloc(50);
        b.free(c);
        b.free(d);
        b.finish().unwrap()
    }

    #[test]
    fn builder_produces_valid_trace() {
        let t = tiny_trace();
        assert_eq!(t.alloc_count(), 3);
        assert_eq!(t.free_count(), 3);
        assert_eq!(t.total_requested(), 350);
        assert_eq!(t.peak_live_requested(), 300);
    }

    #[test]
    fn malformed_traces_are_rejected() {
        // Double free.
        let evs = vec![
            TraceEvent::Alloc { id: 0, size: 8 },
            TraceEvent::Free { id: 0 },
            TraceEvent::Free { id: 0 },
        ];
        assert!(matches!(
            Trace::from_events(evs),
            Err(Error::MalformedTrace(_))
        ));
        // Free before alloc.
        let evs = vec![TraceEvent::Free { id: 3 }];
        assert!(Trace::from_events(evs).is_err());
        // Duplicate id.
        let evs = vec![
            TraceEvent::Alloc { id: 1, size: 8 },
            TraceEvent::Alloc { id: 1, size: 8 },
        ];
        assert!(Trace::from_events(evs).is_err());
        // Zero size.
        let evs = vec![TraceEvent::Alloc { id: 1, size: 0 }];
        assert!(Trace::from_events(evs).is_err());
    }

    #[test]
    fn replay_matches_direct_use() {
        let t = tiny_trace();
        let mut m = PolicyAllocator::new(presets::drr_paper()).unwrap();
        let fs = replay(&t, &mut m).unwrap();
        assert_eq!(fs.events, t.len());
        assert_eq!(fs.stats.allocs, 3);
        assert_eq!(fs.stats.frees, 3);
        assert!(fs.peak_footprint >= t.peak_live_requested());
        assert_eq!(fs.peak_requested, t.peak_live_requested());
    }

    #[test]
    fn replay_is_deterministic() {
        let t = tiny_trace();
        let run = || {
            let mut m = PolicyAllocator::new(presets::lea_like()).unwrap();
            replay(&t, &mut m).unwrap()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn sampled_replay_produces_series() {
        let t = tiny_trace();
        let mut m = PolicyAllocator::new(presets::kingsley_like()).unwrap();
        let fs = replay_compiled_sampled(&CompiledTrace::compile(&t), &mut m, 1).unwrap();
        let ts = fs.series.unwrap();
        assert_eq!(ts.points.len(), t.len());
        assert_eq!(ts.peak(), fs.peak_footprint);
    }

    #[test]
    fn phase_markers_reach_the_manager() {
        let mut b = Trace::builder();
        b.phase(0);
        let a = b.alloc(64);
        b.phase(1);
        let c = b.alloc(64);
        b.free(a);
        b.free(c);
        let t = b.finish().unwrap();
        assert_eq!(t.phases(), vec![0, 1]);

        let mut g = crate::manager::GlobalManager::new(
            "g",
            vec![presets::drr_paper(), presets::kingsley_like()],
        )
        .unwrap();
        let fs = replay(&t, &mut g).unwrap();
        assert_eq!(fs.stats.allocs, 2);
        assert_eq!(g.atomic(0).stats().allocs, 1);
        assert_eq!(g.atomic(1).stats().allocs, 1);
    }

    #[test]
    fn split_phases_attributes_cross_phase_frees_to_owner() {
        let mut b = Trace::builder();
        b.phase(0);
        let a = b.alloc(64); // phase 0 object...
        b.phase(1);
        let c = b.alloc(32);
        b.free(a); // ...freed during phase 1
        b.free(c);
        let t = b.finish().unwrap();
        let parts = t.split_phases();
        assert_eq!(parts.len(), 2);
        let p0 = &parts.iter().find(|(p, _)| *p == 0).unwrap().1;
        assert_eq!(p0.alloc_count(), 1);
        assert_eq!(p0.free_count(), 1, "free of `a` belongs to phase 0");
        let p1 = &parts.iter().find(|(p, _)| *p == 1).unwrap().1;
        assert_eq!(p1.alloc_count(), 1);
        assert_eq!(p1.free_count(), 1);
    }

    #[test]
    fn sampled_replay_always_samples_the_final_event() {
        // Monotone growth: the peak footprint is reached by the *last*
        // event, and 10 events with sample_every=4 leaves (len-1)=9 off
        // the sampling grid — the terminal sample must cover it.
        let mut b = Trace::builder();
        for i in 0..10 {
            b.alloc(100 + i * 50);
        }
        let t = b.finish().unwrap();
        assert_eq!((t.len() - 1) % 4, 1, "last event must be off-grid");
        let mut m = PolicyAllocator::new(presets::lea_like()).unwrap();
        let fs = replay_compiled_sampled(&CompiledTrace::compile(&t), &mut m, 4).unwrap();
        let ts = fs.series.as_ref().unwrap();
        let last = ts.points.last().unwrap();
        assert_eq!(last.event, t.len() - 1);
        assert_eq!(last.footprint, fs.final_footprint);
        assert_eq!(
            ts.peak(),
            fs.peak_footprint,
            "series must see the terminal peak"
        );
    }

    #[test]
    fn sampled_replay_does_not_duplicate_an_on_grid_final_event() {
        let t = tiny_trace(); // 6 events; (6-1) % 5 == 0 ⇒ already sampled
        let mut m = PolicyAllocator::new(presets::kingsley_like()).unwrap();
        let fs = replay_compiled_sampled(&CompiledTrace::compile(&t), &mut m, 5).unwrap();
        let ts = fs.series.unwrap();
        assert_eq!(ts.points.len(), 2, "events 0 and 5, no duplicate");
        assert_eq!(ts.points.last().unwrap().event, t.len() - 1);
    }

    #[test]
    fn live_set_walk_is_bounded_by_peak_live_not_total_allocs() {
        // 10 000 allocations but never more than 4 live at once: the
        // walk's bookkeeping must stay at 4 entries, not grow to 10 000.
        let mut b = Trace::builder();
        let mut live = std::collections::VecDeque::new();
        for i in 0..10_000usize {
            live.push_back(b.alloc(32 + (i % 7) * 8));
            if live.len() > 4 {
                b.free(live.pop_front().unwrap());
            }
        }
        for id in live {
            b.free(id);
        }
        let t = b.finish().unwrap();
        let peak = t.live_set_peak();
        // `blocks` is measured as the bookkeeping map's high-water mark:
        // were dead entries retained (the O(total allocs) regression),
        // this would report thousands, not 5.
        assert_eq!(peak.blocks, 5);
        assert_eq!(peak.bytes, t.peak_live_requested());
        assert!(peak.bytes < 6 * 80);
    }

    #[test]
    fn live_set_peak_normalises_zero_size_adjacent_requests() {
        // The builder records malloc(0) as one byte; a zero-size request
        // sitting next to genuine 1-byte requests must land in the same
        // histogram bucket, not create a phantom zero-size class.
        let mut b = Trace::builder();
        let z = b.alloc(0); // recorded as 1
        let one = b.alloc(1);
        let two = b.alloc(2);
        b.free(z);
        b.free(one);
        b.free(two);
        let t = b.finish().unwrap();
        let peak = t.live_set_peak();
        assert_eq!(peak.bytes, 1 + 1 + 2, "zero-size alloc counts as one byte");
        assert_eq!(peak.blocks, 3);
        let facts = crate::analyze::TraceFacts::of(&t);
        assert_eq!(facts.peak, peak);
        // One size-1 class with both blocks in it, one size-2 class.
        assert_eq!(facts.max_simultaneous, vec![(1, 2), (2, 1)]);
    }

    #[test]
    fn live_set_peak_is_phase_blind_on_reentrant_traces() {
        // Phase markers never move the live set: a re-entrant 0,1,0,1
        // trace and its marker-free twin report identical peaks, while
        // the facts pass still merges re-entered segments into one
        // profile per phase id.
        let build = |with_markers: bool| {
            let mut b = Trace::builder();
            let mut carried: Option<u64> = None;
            for round in 0..6u32 {
                if with_markers {
                    b.phase(round % 2);
                }
                let id = b.alloc(100 + round as usize);
                if let Some(p) = carried.take() {
                    b.free(p);
                }
                carried = Some(id);
            }
            if let Some(p) = carried {
                b.free(p);
            }
            b.finish().unwrap()
        };
        let phased = build(true);
        let flat = build(false);
        assert!(!phased.phases_are_monotonic());
        assert_eq!(phased.live_set_peak(), flat.live_set_peak());
        let facts = crate::analyze::TraceFacts::of(&phased);
        assert_eq!(facts.peak, flat.live_set_peak());
        assert_eq!(facts.phases.len(), 2, "re-entered phases merge");
        // Every phase saw at most two simultaneously-live blocks.
        for p in &facts.phases {
            assert_eq!(p.peak_live_blocks, 2, "phase {}", p.phase);
        }
    }

    #[test]
    fn live_set_peak_on_single_phase_traces_matches_the_unmarked_twin() {
        // A single leading marker delimits one segment covering the whole
        // trace; peaks and per-phase facts must match the unmarked twin.
        let build = |marked: bool| {
            let mut b = Trace::builder();
            if marked {
                b.phase(0);
            }
            let a = b.alloc(64);
            let c = b.alloc(32);
            b.free(a);
            let d = b.alloc(8);
            b.free(c);
            b.free(d);
            b.finish().unwrap()
        };
        let marked = build(true);
        let flat = build(false);
        assert_eq!(marked.live_set_peak(), flat.live_set_peak());
        assert_eq!(marked.live_set_peak().bytes, 96);
        assert_eq!(marked.live_set_peak().blocks, 2);
        let mf = crate::analyze::TraceFacts::of(&marked);
        let ff = crate::analyze::TraceFacts::of(&flat);
        assert_eq!(mf.phases.len(), 1);
        assert_eq!(
            mf.phases, ff.phases,
            "a lone phase-0 marker changes nothing"
        );
        assert_eq!(mf.phases[0].peak_live_bytes, 96);
        assert_eq!(mf.phases[0].boundary.carried_blocks, 0);
    }

    #[test]
    fn reentrant_phase_markers_merge_into_owning_buckets() {
        // The rendering workload's discipline: 0, 1, 0, 1 … — markers
        // revisit earlier phases, and split_phases merges the segments.
        let mut b = Trace::builder();
        b.phase(0);
        let a = b.alloc(64);
        b.phase(1);
        let c = b.alloc(32);
        b.phase(0); // re-enter
        let d = b.alloc(16);
        b.free(d);
        b.free(a);
        b.phase(1); // re-enter
        b.free(c);
        let t = b.finish().unwrap();
        assert!(!t.phases_are_monotonic());
        assert_eq!(t.phases(), vec![0, 1]);
        let parts = t.split_phases();
        assert_eq!(parts.len(), 2, "re-entered phases merge, never re-open");
        let p0 = &parts.iter().find(|(p, _)| *p == 0).unwrap().1;
        assert_eq!(p0.alloc_count(), 2, "both phase-0 segments in one bucket");
        assert_eq!(p0.free_count(), 2);
        let p1 = &parts.iter().find(|(p, _)| *p == 1).unwrap().1;
        assert_eq!(p1.alloc_count(), 1);
        assert_eq!(p1.free_count(), 1);
    }

    #[test]
    fn monotonic_phase_helper_accepts_one_shot_discipline() {
        let mut b = Trace::builder();
        b.phase(0);
        let a = b.alloc(8);
        b.phase(0); // repeat of the same phase is still monotonic
        b.phase(2);
        b.free(a);
        assert!(b.finish().unwrap().phases_are_monotonic());
    }

    #[test]
    fn serde_round_trip() {
        let t = tiny_trace();
        let json = serde_json::to_string(&t).unwrap();
        let back: Trace = serde_json::from_str(&json).unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn deserialization_validates_the_event_discipline() {
        // A hand-edited JSON trace with a dangling free must error at
        // deserialization time — it may never reach consumers that rely
        // on `Trace` validity (the compiled-replay pass in particular).
        let json = r#"{"events": [{"Free": {"id": 7}}]}"#;
        assert!(serde_json::from_str::<Trace>(json).is_err());
        let json =
            r#"{"events": [{"Alloc": {"id": 1, "size": 8}}, {"Alloc": {"id": 1, "size": 8}}]}"#;
        assert!(serde_json::from_str::<Trace>(json).is_err());
    }

    #[test]
    fn replay_interns_the_manager_name() {
        // Thousands of replays per explore: the label must come from the
        // manager's cached Arc (a refcount bump), not a fresh String.
        let t = tiny_trace();
        let mut m = PolicyAllocator::new(presets::drr_paper()).unwrap();
        let a = replay(&t, &mut m).unwrap();
        m.reset();
        let b = replay(&t, &mut m).unwrap();
        assert!(
            std::sync::Arc::ptr_eq(&a.manager, &b.manager),
            "manager name must be interned, not re-allocated per replay"
        );
    }
}
