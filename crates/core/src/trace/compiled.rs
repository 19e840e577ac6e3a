//! Compiled trace replay: the interpreter's hot path without per-event
//! hashing.
//!
//! The methodology is replay-bound — every candidate configuration is
//! scored by re-simulating the same recorded trace, so replay throughput
//! *is* the exploration budget. The reference interpreter
//! ([`replay`](super::replay)) pays two per-event costs that a pre-pass
//! can eliminate:
//!
//! 1. a `HashMap<u64, BlockHandle>` insert/remove per alloc/free to match
//!    each `Free { id }` with the handle its `Alloc` produced, and
//! 2. a virtual call through `&mut dyn Allocator` per event.
//!
//! [`CompiledTrace::compile`] runs one pass over a validated [`Trace`] and
//! resolves every free to the **dense slot index** of its matching
//! allocation. Slots are recycled as objects die, so the slot space — and
//! with it the replay's scratch table — is bounded by the *peak live
//! block count*, not the total allocation count (the same O(peak live)
//! discipline as [`Trace::live_set_peak`]). Events are stored in SoA
//! layout (opcode / slot / size arrays) for cache density.
//!
//! [`replay_compiled`] is the matching kernel: monomorphized over the
//! allocator (`A: Allocator + ?Sized`, so `&mut dyn Allocator` still
//! works as a compatibility path) and driven by an indexed
//! [`ReplayScratch`] instead of a hash map. A caller replaying one trace
//! against hundreds of configurations — the
//! [`ExplorationEngine`](crate::methodology::ExplorationEngine) does
//! exactly that — compiles once, keeps one scratch per worker, and pays
//! zero hashing and zero per-replay allocation in the loop.
//!
//! The kernel is **bit-identical** to the reference interpreter
//! ([`replay`](super::replay)): same [`FootprintStats`], same error
//! surfacing. [`replay_compiled_sampled`] is the one footprint sampler;
//! the interpreter keeps no series.
//!
//! [`replay_compiled_limited`] adds a [`ReplayBudget`] and a peak cap for
//! branch-and-bound sweeps: a replay's running peak never decreases, so
//! the first event that lifts it past the cap decides that the candidate
//! cannot win, and the kernel stops there with [`CappedReplay::Cut`].

use std::collections::HashMap;
use std::time::Instant;

use crate::error::{Error, Result};
use crate::manager::{Allocator, BlockHandle};
use crate::metrics::{FootprintStats, SeriesPoint, TimeSeries};

use super::{Trace, TraceEvent};

/// How often (in events) the budgeted kernel samples its step budget. A
/// power of two so the check is a mask. Both budget axes are checked once
/// more after the last event, so the trailing partial block — the whole
/// trace, when it is shorter than a stride — is never left unchecked.
const BUDGET_STEP_STRIDE: usize = 64;

/// How often (in events) the budgeted kernel consults the wall clock —
/// deliberately sparser than the step check, `Instant::now` being the
/// costlier probe.
const BUDGET_CLOCK_STRIDE: usize = 1024;

/// A per-candidate replay budget: abort the replay of a pathological
/// configuration instead of letting it hang an exploration worker.
///
/// Two independent axes, each unbounded when `None`:
///
/// - **steps** — a cap on the manager's charged
///   [`search_steps`](crate::metrics::AllocStats::search_steps), the
///   deterministic time proxy. Step budgets make budget-exceeded outcomes
///   reproducible bit for bit, which is what the fault-injection suite
///   uses.
/// - **millis** — a wall-clock cut-off counted from the replay's start,
///   the production guard against candidates whose cost the step model
///   under-charges.
///
/// Checks are throttled (every `BUDGET_STEP_STRIDE` events for steps,
/// every `BUDGET_CLOCK_STRIDE` for the clock, and both once after the
/// last event), so a budgeted replay that stays under budget is
/// bit-identical to — and nearly as fast as — an unbudgeted one.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReplayBudget {
    /// Cap on charged search steps per replay.
    pub max_steps: Option<u64>,
    /// Wall-clock cap in milliseconds per replay.
    pub max_millis: Option<u64>,
}

impl ReplayBudget {
    /// Whether any axis is bounded.
    pub fn is_bounded(&self) -> bool {
        self.max_steps.is_some() || self.max_millis.is_some()
    }

    /// Check the step axis, and the clock too when `poll_clock` is set.
    /// `deadline` is the instant the replay's `max_millis` runs out.
    #[inline]
    fn check(
        &self,
        deadline: Option<Instant>,
        stats: &crate::metrics::AllocStats,
        poll_clock: bool,
    ) -> Result<()> {
        if let Some(limit) = self.max_steps {
            let spent = stats.search_steps;
            if spent > limit {
                return Err(Error::BudgetExceeded { spent, limit });
            }
        }
        if let (Some(deadline), Some(ms)) = (deadline, self.max_millis) {
            if poll_clock && Instant::now() >= deadline {
                // Report the time axis in its own units: ms spent vs ms
                // budgeted (spent >= limit by construction here).
                return Err(Error::BudgetExceeded {
                    spent: ms.max(1),
                    limit: ms,
                });
            }
        }
        Ok(())
    }
}

/// How a peak-capped replay ([`replay_compiled_limited`]) ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CappedReplay {
    /// The running peak never exceeded the cap: the full replay's stats,
    /// bit-identical to [`replay_compiled`].
    Complete(FootprintStats),
    /// The running peak first exceeded the cap after event `event` and the
    /// rest of the trace was not replayed. The peak never decreases, so the
    /// full replay's peak is at least `peak`.
    Cut {
        /// The running peak footprint after `event`; greater than the cap.
        peak: usize,
        /// Index of the event that lifted the peak past the cap.
        event: usize,
    },
}

/// Opcode of one compiled event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Op {
    /// Allocate `sizes[i]` bytes into slot `slots[i]`.
    Alloc,
    /// Free the handle stored in slot `slots[i]`.
    Free,
    /// Enter phase `slots[i]`.
    Phase,
}

/// A trace compiled for replay: frees pre-resolved to dense slot indices,
/// events in SoA layout.
///
/// Compile once ([`CompiledTrace::compile`]), replay many times
/// ([`replay_compiled`]); the compile pass is the only place ids are ever
/// hashed.
///
/// Deliberately **not** serializable: a compiled trace is a derived
/// artifact whose slot indices the kernel trusts without bounds-checking
/// hazards beyond `slot_count` — persist the validated [`Trace`] and
/// recompile instead of round-tripping this form past validation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompiledTrace {
    /// One opcode per event.
    ops: Vec<Op>,
    /// Slot index (alloc/free) or phase id (phase), parallel to `ops`.
    slots: Vec<u32>,
    /// Requested bytes for allocs, 0 otherwise, parallel to `ops`.
    sizes: Vec<usize>,
    /// Number of distinct slots — the peak simultaneously-live block
    /// count, because slots are recycled on free.
    slot_count: usize,
}

impl CompiledTrace {
    /// Compile a validated trace: resolve every free to its allocation's
    /// slot in one O(n) pass (the last time any id is hashed).
    ///
    /// Slots are recycled LIFO as objects die, so `slot_count` equals the
    /// trace's peak live block count — the scratch table a replay needs is
    /// O(peak live), never O(total allocs).
    pub fn compile(trace: &Trace) -> CompiledTrace {
        let n = trace.len();
        let mut ops = Vec::with_capacity(n);
        let mut slots = Vec::with_capacity(n);
        let mut sizes = Vec::with_capacity(n);
        // id -> slot; entries removed on free (bounded by peak live).
        let mut slot_of: HashMap<u64, u32> = HashMap::new();
        let mut recycled: Vec<u32> = Vec::new();
        let mut slot_count: u32 = 0;
        for ev in trace.events() {
            match ev {
                TraceEvent::Alloc { id, size } => {
                    let slot = recycled.pop().unwrap_or_else(|| {
                        let s = slot_count;
                        slot_count = slot_count
                            .checked_add(1)
                            .expect("more than u32::MAX simultaneously live blocks");
                        s
                    });
                    slot_of.insert(*id, slot);
                    ops.push(Op::Alloc);
                    slots.push(slot);
                    sizes.push(*size);
                }
                TraceEvent::Free { id } => {
                    let slot = slot_of
                        .remove(id)
                        .expect("validated traces only free live ids");
                    recycled.push(slot);
                    ops.push(Op::Free);
                    slots.push(slot);
                    sizes.push(0);
                }
                TraceEvent::Phase { phase } => {
                    ops.push(Op::Phase);
                    slots.push(*phase);
                    sizes.push(0);
                }
            }
        }
        CompiledTrace {
            ops,
            slots,
            sizes,
            slot_count: slot_count as usize,
        }
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the compiled trace has no events.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Size of the slot space a replay's scratch table must cover — the
    /// peak simultaneously-live block count of the source trace.
    pub fn slot_count(&self) -> usize {
        self.slot_count
    }

    /// Bytes this compiled trace occupies while resident (SoA arrays).
    pub fn resident_bytes(&self) -> usize {
        self.ops.len()
            * (std::mem::size_of::<Op>()
                + std::mem::size_of::<u32>()
                + std::mem::size_of::<usize>())
    }
}

/// Sentinel for a slot holding no live handle.
const VACANT: BlockHandle = BlockHandle::new(usize::MAX, u32::MAX);

/// The reusable slot table of compiled replay: one [`BlockHandle`] per
/// live slot, indexed directly — no hashing.
///
/// One scratch serves any number of sequential replays (of any number of
/// distinct compiled traces): every replay starts by clearing and resizing
/// the table to the trace's [`CompiledTrace::slot_count`], so no handle —
/// not even one stranded by a mid-replay error such as
/// [`Error::OutOfMemory`] — can leak from one replay into the next. Reuse
/// is what makes the exploration loop
/// allocation-free: the engine keeps one scratch per worker thread across
/// the hundreds of replays of an `explore` call.
#[derive(Debug, Clone, Default)]
pub struct ReplayScratch {
    handles: Vec<BlockHandle>,
}

impl ReplayScratch {
    /// An empty scratch (grows to each trace's slot count on use).
    pub fn new() -> Self {
        ReplayScratch::default()
    }

    /// Clear every slot and cover `slot_count` slots. Called by the replay
    /// kernels on entry; public so tests can assert the clearing contract.
    pub fn prepare(&mut self, slot_count: usize) {
        self.handles.clear();
        self.handles.resize(slot_count, VACANT);
    }

    /// Number of slots currently holding a live handle. After
    /// [`ReplayScratch::prepare`] this is 0, whatever happened before.
    pub fn live_slots(&self) -> usize {
        self.handles.iter().filter(|h| **h != VACANT).count()
    }

    /// Current slot capacity.
    pub fn slot_count(&self) -> usize {
        self.handles.len()
    }
}

/// Replay a compiled trace against a manager — the monomorphized hot-path
/// kernel. Bit-identical [`FootprintStats`] to [`replay`](super::replay)
/// on the source trace.
///
/// `A: Allocator + ?Sized`, so this serves both worlds: call it with a
/// concrete manager type and the event loop monomorphizes (no virtual
/// dispatch); call it with `&mut dyn Allocator` and it degrades to the
/// classic dispatch while still skipping all per-event hashing.
///
/// # Errors
///
/// Propagates manager errors ([`Error::OutOfMemory`]).
pub fn replay_compiled<A: Allocator + ?Sized>(
    compiled: &CompiledTrace,
    manager: &mut A,
) -> Result<FootprintStats> {
    let mut scratch = ReplayScratch::new();
    replay_uncapped(compiled, manager, &mut scratch, None, None)
}

/// Like [`replay_compiled`], reusing a caller-owned [`ReplayScratch`] —
/// the zero-allocation path for replay loops. The scratch is fully
/// cleared on entry; any residue from a previous (possibly failed) replay
/// is discarded.
///
/// # Errors
///
/// As for [`replay_compiled`].
pub fn replay_compiled_with<A: Allocator + ?Sized>(
    compiled: &CompiledTrace,
    manager: &mut A,
    scratch: &mut ReplayScratch,
) -> Result<FootprintStats> {
    replay_uncapped(compiled, manager, scratch, None, None)
}

/// Like [`replay_compiled_with`], under a per-candidate [`ReplayBudget`]
/// and an optional peak cap — the exploration engine's kernel.
///
/// The replay aborts with [`Error::BudgetExceeded`] once the manager's
/// charged search steps (or the wall clock, started when the replay
/// begins) cross the budget. With a `cap`, it stops at the first event
/// after which the manager's peak footprint exceeds the cap — the cut-off
/// for a candidate that can no longer win, in a sweep (see
/// [`ExplorationEngine::evaluate_bounded`](crate::methodology::ExplorationEngine::evaluate_bounded))
/// and in the footprint-only greedy traversal of
/// [`Methodology::explore`](crate::methodology::Methodology::explore).
/// The peak is compared after **every** event: it only changes at event
/// boundaries, and sweep traces are a few hundred events long, so a
/// coarser stride would forfeit most of the saving. Without a cap the
/// loop carries no per-event cap check at all. A replay that stays under
/// budget and within the cap returns [`CappedReplay::Complete`] with
/// stats bit-identical to [`replay_compiled`].
///
/// # Errors
///
/// As for [`replay_compiled`], plus [`Error::BudgetExceeded`]; a cut is an
/// outcome, not an error.
pub fn replay_compiled_limited<A: Allocator + ?Sized>(
    compiled: &CompiledTrace,
    manager: &mut A,
    scratch: &mut ReplayScratch,
    budget: &ReplayBudget,
    cap: Option<usize>,
) -> Result<CappedReplay> {
    let budget = budget.is_bounded().then_some(budget);
    match cap {
        Some(cap) => {
            replay_compiled_inner::<A, true>(compiled, manager, scratch, None, budget, cap)
        }
        None => {
            replay_compiled_inner::<A, false>(compiled, manager, scratch, None, budget, usize::MAX)
        }
    }
}

/// Like [`replay_compiled`], additionally sampling the footprint curve
/// every `sample_every` events (paper Figure 5).
///
/// The final event is always sampled, whatever the period: the curve ends
/// on the trace's final footprint, and a peak reached by the last event is
/// never silently dropped from the series.
///
/// # Errors
///
/// As for [`replay_compiled`].
pub fn replay_compiled_sampled<A: Allocator + ?Sized>(
    compiled: &CompiledTrace,
    manager: &mut A,
    sample_every: usize,
) -> Result<FootprintStats> {
    let mut scratch = ReplayScratch::new();
    replay_uncapped(
        compiled,
        manager,
        &mut scratch,
        Some(sample_every.max(1)),
        None,
    )
}

/// The replay loop without a cap, which always reaches the end.
fn replay_uncapped<A: Allocator + ?Sized>(
    compiled: &CompiledTrace,
    manager: &mut A,
    scratch: &mut ReplayScratch,
    sample_every: Option<usize>,
    budget: Option<&ReplayBudget>,
) -> Result<FootprintStats> {
    let replayed = replay_compiled_inner::<A, false>(
        compiled,
        manager,
        scratch,
        sample_every,
        budget,
        usize::MAX,
    )?;
    match replayed {
        CappedReplay::Complete(stats) => Ok(stats),
        CappedReplay::Cut { .. } => unreachable!("a replay without a cap is never cut"),
    }
}

/// The replay loop. `CAPPED` selects the peak cap at compile time, so the
/// uncapped kernels carry no per-event cap check; `cap` is read only when
/// `CAPPED` is set.
fn replay_compiled_inner<A: Allocator + ?Sized, const CAPPED: bool>(
    compiled: &CompiledTrace,
    manager: &mut A,
    scratch: &mut ReplayScratch,
    sample_every: Option<usize>,
    budget: Option<&ReplayBudget>,
    cap: usize,
) -> Result<CappedReplay> {
    scratch.prepare(compiled.slot_count);
    let deadline = budget
        .and_then(|b| b.max_millis)
        .map(|ms| Instant::now() + std::time::Duration::from_millis(ms));
    let mut series = sample_every.map(|s| TimeSeries {
        sample_every: s,
        points: Vec::with_capacity(compiled.len() / s + 1),
    });
    let mut last_sampled: Option<usize> = None;
    for i in 0..compiled.len() {
        let slot = compiled.slots[i];
        match compiled.ops[i] {
            Op::Alloc => {
                let h = manager.alloc(compiled.sizes[i])?;
                scratch.handles[slot as usize] = h;
            }
            Op::Free => {
                let h = std::mem::replace(&mut scratch.handles[slot as usize], VACANT);
                debug_assert_ne!(h, VACANT, "free of a vacant slot {slot}");
                manager.free(h)?;
            }
            Op::Phase => manager.set_phase(slot),
        }
        // Same per-event contract as the reference interpreter: in debug
        // builds, structural corruption fails at the event that caused it
        // (throttled on very long traces — see `should_deep_check`).
        #[cfg(debug_assertions)]
        if super::should_deep_check(i) {
            if let Err(e) = manager.check_invariants() {
                panic!("invariants violated after event {i}: {e}");
            }
        }
        if let Some(b) = budget {
            if (i + 1).is_multiple_of(BUDGET_STEP_STRIDE) {
                b.check(
                    deadline,
                    manager.stats(),
                    (i + 1).is_multiple_of(BUDGET_CLOCK_STRIDE),
                )?;
            }
        }
        if CAPPED {
            let peak = manager.stats().peak_footprint;
            if peak > cap {
                return Ok(CappedReplay::Cut { peak, event: i });
            }
        }
        if let Some(ts) = series.as_mut() {
            if i % ts.sample_every == 0 {
                let s = manager.stats();
                ts.points.push(SeriesPoint {
                    event: i,
                    footprint: s.system,
                    requested: s.live_requested,
                    live_block: s.live_block,
                });
                last_sampled = Some(i);
            }
        }
    }
    if let Some(b) = budget {
        b.check(deadline, manager.stats(), true)?;
    }
    // Terminal sample: the curve always ends on the final event, or a
    // peak reached by the last event would be missing from the series.
    if let Some(ts) = series.as_mut() {
        let last = compiled.len().wrapping_sub(1);
        if !compiled.is_empty() && last_sampled != Some(last) {
            let s = manager.stats();
            ts.points.push(SeriesPoint {
                event: last,
                footprint: s.system,
                requested: s.live_requested,
                live_block: s.live_block,
            });
        }
    }
    let stats = manager.stats().clone();
    Ok(CappedReplay::Complete(FootprintStats {
        manager: manager.name_shared(),
        peak_footprint: stats.peak_footprint,
        final_footprint: stats.system,
        peak_requested: stats.peak_requested,
        events: compiled.len(),
        stats,
        series,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manager::{GlobalManager, PolicyAllocator};
    use crate::space::presets;
    use crate::trace::replay;

    fn churn_trace(n: usize) -> Trace {
        let mut b = Trace::builder();
        let mut live = Vec::new();
        let mut x: u64 = 0x9E3779B97F4A7C15;
        for _ in 0..n {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            if live.is_empty() || x % 5 < 3 {
                live.push(b.alloc(16 + (x % 1200) as usize));
            } else {
                let i = (x as usize / 7) % live.len();
                b.free(live.swap_remove(i));
            }
        }
        for id in live {
            b.free(id);
        }
        b.finish().unwrap()
    }

    fn phased_trace() -> Trace {
        let mut b = Trace::builder();
        b.phase(0);
        let a = b.alloc(64);
        b.phase(1);
        let c = b.alloc(128);
        b.phase(0); // re-entrant
        let d = b.alloc(32);
        b.free(a);
        b.free(d);
        b.phase(1);
        b.free(c);
        b.finish().unwrap()
    }

    #[test]
    fn slot_space_is_bounded_by_peak_live_not_total_allocs() {
        // 5 000 allocations, never more than 5 live at once.
        let mut b = Trace::builder();
        let mut live = std::collections::VecDeque::new();
        for i in 0..5_000usize {
            live.push_back(b.alloc(16 + (i % 9) * 8));
            if live.len() > 4 {
                b.free(live.pop_front().unwrap());
            }
        }
        for id in live {
            b.free(id);
        }
        let t = b.finish().unwrap();
        let ct = CompiledTrace::compile(&t);
        assert_eq!(ct.len(), t.len());
        assert_eq!(
            ct.slot_count(),
            t.live_set_peak().blocks,
            "slots must be recycled, not minted per alloc"
        );
        assert!(ct.slot_count() <= 5);
    }

    #[test]
    fn compiled_replay_is_bit_identical_to_classic() {
        let t = churn_trace(400);
        let ct = CompiledTrace::compile(&t);
        for cfg in presets::all() {
            let classic = replay(&t, &mut PolicyAllocator::new(cfg.clone()).unwrap()).unwrap();
            let compiled =
                replay_compiled(&ct, &mut PolicyAllocator::new(cfg.clone()).unwrap()).unwrap();
            assert_eq!(classic, compiled, "{}", cfg.name);
        }
    }

    #[test]
    fn compiled_replay_drives_phases_through_a_global_manager() {
        let t = phased_trace();
        let ct = CompiledTrace::compile(&t);
        let make = || {
            GlobalManager::new("g", vec![presets::drr_paper(), presets::kingsley_like()]).unwrap()
        };
        let classic = replay(&t, &mut make()).unwrap();
        let compiled = replay_compiled(&ct, &mut make()).unwrap();
        assert_eq!(classic, compiled);
        let mut g = make();
        let _ = replay_compiled(&ct, &mut g).unwrap();
        assert_eq!(g.atomic(0).stats().allocs, 2, "both phase-0 segments");
        assert_eq!(g.atomic(1).stats().allocs, 1);
    }

    /// The sampler checked against the reference interpreter, for every
    /// period from 1 to 15: the period-1 curve peaks at the interpreter's
    /// peak, each period's points are the period-1 points on its grid plus
    /// the final event, and the stats without the series are the
    /// interpreter's.
    #[test]
    fn sampled_series_agrees_with_the_oracle() {
        let t = churn_trace(137);
        let ct = CompiledTrace::compile(&t);
        let make = || PolicyAllocator::new(presets::lea_like()).unwrap();
        let oracle = replay(&t, &mut make()).unwrap();
        let every_event = replay_compiled_sampled(&ct, &mut make(), 1)
            .unwrap()
            .series
            .unwrap()
            .points;
        let peak = every_event.iter().map(|p| p.footprint).max();
        assert_eq!(peak, Some(oracle.peak_footprint));
        let last = t.len() - 1;
        for every in 1..=15 {
            let mut fs = replay_compiled_sampled(&ct, &mut make(), every).unwrap();
            let series = fs.series.take().unwrap();
            let on_grid: Vec<SeriesPoint> = every_event
                .iter()
                .copied()
                .filter(|p| p.event % every == 0 || p.event == last)
                .collect();
            assert_eq!(series.sample_every, every);
            assert_eq!(series.points, on_grid, "sample_every={every}");
            assert_eq!(fs, oracle, "sample_every={every}");
        }
    }

    #[test]
    fn compiled_replay_works_through_dyn_dispatch() {
        let t = churn_trace(120);
        let ct = CompiledTrace::compile(&t);
        let mut boxed: Box<dyn Allocator> =
            Box::new(PolicyAllocator::new(presets::drr_paper()).unwrap());
        // A = dyn Allocator: the compatibility path of the same kernel.
        let via_dyn = replay_compiled(&ct, boxed.as_mut()).unwrap();
        let classic = replay(&t, &mut PolicyAllocator::new(presets::drr_paper()).unwrap()).unwrap();
        assert_eq!(via_dyn, classic);
    }

    #[test]
    fn scratch_is_fully_cleared_between_replays() {
        // First replay dies of OOM mid-trace, stranding live handles in
        // the scratch; the next replay through the same scratch must see
        // none of them.
        let t = churn_trace(300);
        let ct = CompiledTrace::compile(&t);
        let mut scratch = ReplayScratch::new();
        let mut tight = presets::drr_paper();
        tight.params.arena_limit = Some(2048);
        let err =
            replay_compiled_with(&ct, &mut PolicyAllocator::new(tight).unwrap(), &mut scratch);
        assert!(err.is_err(), "tight arena must OOM");
        assert!(scratch.live_slots() > 0, "residue proves the hazard");

        scratch.prepare(ct.slot_count());
        assert_eq!(scratch.live_slots(), 0, "prepare must clear every slot");

        let reused = replay_compiled_with(
            &ct,
            &mut PolicyAllocator::new(presets::lea_like()).unwrap(),
            &mut scratch,
        )
        .unwrap();
        let fresh =
            replay_compiled(&ct, &mut PolicyAllocator::new(presets::lea_like()).unwrap()).unwrap();
        assert_eq!(reused, fresh, "residue must not leak across replays");
    }

    #[test]
    fn one_scratch_serves_traces_of_different_slot_counts() {
        let big = churn_trace(400);
        let small = churn_trace(40);
        let (cb, cs) = (CompiledTrace::compile(&big), CompiledTrace::compile(&small));
        let mut scratch = ReplayScratch::new();
        let cfg = presets::kingsley_like();
        for ct in [&cb, &cs, &cb] {
            let reused = replay_compiled_with(
                ct,
                &mut PolicyAllocator::new(cfg.clone()).unwrap(),
                &mut scratch,
            )
            .unwrap();
            let fresh =
                replay_compiled(ct, &mut PolicyAllocator::new(cfg.clone()).unwrap()).unwrap();
            assert_eq!(reused, fresh);
        }
    }

    #[test]
    fn empty_trace_compiles_and_replays() {
        let t = Trace::from_events(vec![]).unwrap();
        let ct = CompiledTrace::compile(&t);
        assert!(ct.is_empty());
        assert_eq!(ct.slot_count(), 0);
        let fs = replay_compiled(
            &ct,
            &mut PolicyAllocator::new(presets::drr_paper()).unwrap(),
        )
        .unwrap();
        assert_eq!(fs.events, 0);
    }

    /// A fresh `cfg` manager's replay of `ct` under `budget`, uncapped.
    fn budgeted(
        ct: &CompiledTrace,
        cfg: crate::space::DmConfig,
        budget: ReplayBudget,
    ) -> Result<FootprintStats> {
        let mut mgr = PolicyAllocator::new(cfg).unwrap();
        match replay_compiled_limited(ct, &mut mgr, &mut ReplayScratch::new(), &budget, None)? {
            CappedReplay::Complete(stats) => Ok(stats),
            CappedReplay::Cut { .. } => unreachable!("a replay without a cap is never cut"),
        }
    }

    #[test]
    fn generous_budget_is_bit_identical_to_unbudgeted() {
        let t = churn_trace(400);
        let ct = CompiledTrace::compile(&t);
        let generous = ReplayBudget {
            max_steps: Some(u64::MAX),
            max_millis: Some(u64::MAX),
        };
        for cfg in presets::all() {
            let plain =
                replay_compiled(&ct, &mut PolicyAllocator::new(cfg.clone()).unwrap()).unwrap();
            let name = cfg.name.clone();
            assert_eq!(plain, budgeted(&ct, cfg, generous).unwrap(), "{name}");
        }
    }

    #[test]
    fn tiny_step_budget_trips_deterministically() {
        let t = churn_trace(2_000);
        let ct = CompiledTrace::compile(&t);
        let tiny = ReplayBudget {
            max_steps: Some(1),
            max_millis: None,
        };
        let run = || budgeted(&ct, presets::drr_paper(), tiny);
        let first = run().unwrap_err();
        match &first {
            Error::BudgetExceeded { spent, limit } => {
                assert_eq!(*limit, 1);
                assert!(*spent > 1, "tripped with spent={spent}");
            }
            other => panic!("expected BudgetExceeded, got {other:?}"),
        }
        // Step budgets are deterministic: the same replay trips at the
        // same charge every time.
        assert_eq!(run().unwrap_err(), first);
    }

    #[test]
    fn capped_replay_stops_at_the_first_event_past_the_cap() {
        let t = churn_trace(300);
        let ct = CompiledTrace::compile(&t);
        let mut scratch = ReplayScratch::new();
        let cfg = presets::drr_paper();
        // Footprint after every event; its running maximum is the peak.
        let sampled =
            replay_compiled_sampled(&ct, &mut PolicyAllocator::new(cfg.clone()).unwrap(), 1)
                .unwrap();
        let curve: Vec<usize> = sampled
            .series
            .as_ref()
            .unwrap()
            .points
            .iter()
            .map(|p| p.footprint)
            .collect();
        assert_eq!(curve.iter().max(), Some(&sampled.peak_footprint));
        let full = replay_compiled(&ct, &mut PolicyAllocator::new(cfg.clone()).unwrap()).unwrap();

        let mut capped = |cap| {
            let mut mgr = PolicyAllocator::new(cfg.clone()).unwrap();
            replay_compiled_limited(
                &ct,
                &mut mgr,
                &mut scratch,
                &ReplayBudget::default(),
                Some(cap),
            )
            .unwrap()
        };
        assert_eq!(
            capped(full.peak_footprint),
            CappedReplay::Complete(full.clone())
        );
        let cap = full.peak_footprint / 2;
        let first_past = curve.iter().position(|&f| f > cap).unwrap();
        assert_eq!(
            capped(cap),
            CappedReplay::Cut {
                peak: curve[first_past],
                event: first_past,
            }
        );
    }

    #[test]
    fn zero_deadline_trips_on_a_trace_shorter_than_the_clock_stride() {
        let t = churn_trace(100);
        assert!(t.len() < BUDGET_CLOCK_STRIDE && !t.len().is_multiple_of(BUDGET_STEP_STRIDE));
        let ct = CompiledTrace::compile(&t);
        let zero = ReplayBudget {
            max_steps: None,
            max_millis: Some(0),
        };
        let err = budgeted(&ct, presets::drr_paper(), zero).unwrap_err();
        assert_eq!(err, Error::BudgetExceeded { spent: 1, limit: 0 });
    }

    #[test]
    fn step_budget_crossed_in_the_last_partial_block_trips() {
        // Alloc-only, so every event charges steps and the last partial
        // block (events 64..100) spends part of the total.
        let mut b = Trace::builder();
        for i in 0..100usize {
            b.alloc(16 + (i % 13) * 8);
        }
        let t = b.finish().unwrap();
        assert!(!t.len().is_multiple_of(BUDGET_STEP_STRIDE));
        let ct = CompiledTrace::compile(&t);
        let make = || PolicyAllocator::new(presets::drr_paper()).unwrap();
        let total = replay_compiled(&ct, &mut make())
            .unwrap()
            .stats
            .search_steps;
        let short = ReplayBudget {
            max_steps: Some(total - 1),
            max_millis: None,
        };
        let err = budgeted(&ct, presets::drr_paper(), short).unwrap_err();
        // Tripped on the final count, after the last event: by event 63
        // fewer steps were spent, and no more than the budget.
        assert_eq!(
            err,
            Error::BudgetExceeded {
                spent: total,
                limit: total - 1
            }
        );
    }

    #[test]
    fn unlimited_budget_never_trips() {
        let t = churn_trace(300);
        let ct = CompiledTrace::compile(&t);
        let b = ReplayBudget::default();
        assert!(!b.is_bounded());
        let plain = replay_compiled(
            &ct,
            &mut PolicyAllocator::new(presets::drr_paper()).unwrap(),
        )
        .unwrap();
        assert_eq!(plain, budgeted(&ct, presets::drr_paper(), b).unwrap());
    }
}
