//! Property-based tests over the whole manager zoo: random traces through
//! every allocator must preserve the structural invariants, balance
//! accounting, and replay deterministically.

use proptest::prelude::*;

use dmm::core::methodology::ExplorationEngine;
use dmm::core::trace::TraceEvent;
use dmm::prelude::*;

/// Strategy: a well-formed trace of interleaved allocs/frees with sizes in
/// `1..=max_size`, always freeing everything at the end.
fn trace_strategy(max_ops: usize, max_size: usize) -> impl Strategy<Value = Trace> {
    trace_strategy_between(1..max_ops, max_size)
}

/// [`trace_strategy`] with a number of operations drawn from `ops`.
fn trace_strategy_between(
    ops: std::ops::Range<usize>,
    max_size: usize,
) -> impl Strategy<Value = Trace> {
    proptest::collection::vec((any::<u16>(), 1..=max_size), ops).prop_map(|ops| {
        let mut b = Trace::builder();
        let mut live: Vec<u64> = Vec::new();
        for (sel, size) in ops {
            // Two thirds allocate, one third frees a pseudo-random live id.
            if live.is_empty() || sel % 3 != 0 {
                live.push(b.alloc(size));
            } else {
                let idx = (sel as usize / 3) % live.len();
                b.free(live.swap_remove(idx));
            }
        }
        for id in live {
            b.free(id);
        }
        b.finish().expect("constructed traces are valid")
    })
}

/// Strategy: a two-phase trace — a uniform phase 0 then a variable-size
/// phase 1, both internally balanced so phase boundaries are clean.
fn phased_trace_strategy(
    max_ops_per_phase: usize,
    max_size: usize,
) -> impl Strategy<Value = Trace> {
    (
        proptest::collection::vec(1..=64usize, 1..max_ops_per_phase),
        proptest::collection::vec((any::<u16>(), 1..=max_size), 1..max_ops_per_phase),
    )
        .prop_map(|(uniform, mixed)| {
            let mut b = Trace::builder();
            b.phase(0);
            let ids: Vec<u64> = uniform.iter().map(|&s| b.alloc(s * 8)).collect();
            for id in ids.into_iter().rev() {
                b.free(id);
            }
            b.phase(1);
            let mut live: Vec<u64> = Vec::new();
            for (sel, size) in mixed {
                if live.is_empty() || sel % 3 != 0 {
                    live.push(b.alloc(size));
                } else {
                    let idx = (sel as usize / 3) % live.len();
                    b.free(live.swap_remove(idx));
                }
            }
            for id in live {
                b.free(id);
            }
            b.finish().expect("constructed traces are valid")
        })
}

/// Every manager under test, freshly constructed.
fn all_managers() -> Vec<Box<dyn Allocator>> {
    vec![
        Box::new(PolicyAllocator::new(presets::drr_paper()).expect("valid")),
        Box::new(PolicyAllocator::new(presets::kingsley_like()).expect("valid")),
        Box::new(PolicyAllocator::new(presets::lea_like()).expect("valid")),
        Box::new(KingsleyAllocator::new()),
        Box::new(LeaAllocator::new()),
        Box::new(RegionAllocator::with_default_regions()),
        Box::new(ObstackAllocator::new()),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// After a balanced trace, every manager reports zero live memory and
    /// a footprint at least the trace's peak demand at its peak.
    #[test]
    fn balanced_traces_leave_no_live_memory(trace in trace_strategy(120, 4096)) {
        for mut m in all_managers() {
            let fs = replay(&trace, m.as_mut()).expect("replay");
            prop_assert_eq!(fs.stats.live_requested, 0, "{} leaked", fs.manager);
            prop_assert_eq!(fs.stats.allocs as usize, trace.alloc_count());
            prop_assert_eq!(fs.stats.frees as usize, trace.free_count());
            prop_assert!(fs.peak_footprint >= trace.peak_live_requested(),
                "{}: peak {} below demand {}", fs.manager, fs.peak_footprint,
                trace.peak_live_requested());
        }
    }

    /// The policy allocator's internal invariants (tiling, index/map
    /// agreement, live accounting) hold mid-trace for every preset.
    #[test]
    fn policy_invariants_hold_mid_trace(trace in trace_strategy(100, 2048)) {
        for cfg in presets::all() {
            let mut m = PolicyAllocator::new(cfg).expect("valid");
            let mut handles = std::collections::HashMap::new();
            for (i, ev) in trace.events().iter().enumerate() {
                match ev {
                    TraceEvent::Alloc { id, size } => {
                        handles.insert(*id, m.alloc(*size).expect("alloc"));
                    }
                    TraceEvent::Free { id } => {
                        let h = handles.remove(id).expect("live handle");
                        m.free(h).expect("free");
                    }
                    TraceEvent::Phase { .. } => {}
                }
                if i % 17 == 0 {
                    if let Err(e) = m.check_invariants() {
                        prop_assert!(false, "{} at event {i}: {e}", m.name());
                    }
                }
            }
            prop_assert!(m.check_invariants().is_ok());
        }
    }

    /// Replay is a pure function of (trace, manager construction).
    #[test]
    fn replay_is_deterministic(trace in trace_strategy(80, 1024)) {
        for (mut a, mut b) in all_managers().into_iter().zip(all_managers()) {
            let fa = replay(&trace, a.as_mut()).expect("replay");
            let fb = replay(&trace, b.as_mut()).expect("replay");
            prop_assert_eq!(fa, fb);
        }
    }

    /// Live handles are unique: no two live blocks overlap in address
    /// space for the policy allocator (spot-checked through offsets).
    #[test]
    fn live_handles_never_alias(sizes in proptest::collection::vec(1usize..2000, 1..40)) {
        let mut m = PolicyAllocator::new(presets::drr_paper()).expect("valid");
        let mut live: Vec<(usize, usize)> = Vec::new(); // (offset, len)
        for s in sizes {
            let h = m.alloc(s).expect("alloc");
            for &(o, l) in &live {
                let no_overlap = h.offset() + s <= o || o + l <= h.offset();
                prop_assert!(no_overlap, "block at {} size {s} overlaps ({o},{l})", h.offset());
            }
            live.push((h.offset(), s));
        }
    }

    /// Footprint accounting identity: internal + external fragmentation +
    /// live payload + static overhead always equals the reported system
    /// bytes.
    #[test]
    fn fragmentation_identity(trace in trace_strategy(60, 1024)) {
        for cfg in presets::all() {
            let mut m = PolicyAllocator::new(cfg).expect("valid");
            let _ = replay(&trace, &mut m).expect("replay");
            let s = m.stats();
            prop_assert_eq!(
                s.internal_fragmentation()
                    + s.external_fragmentation()
                    + s.live_requested
                    + s.static_overhead,
                s.system,
                "{}", m.name()
            );
        }
    }

    /// Random alloc/realloc/free interleavings keep the policy allocator's
    /// invariants and accounting exact.
    #[test]
    fn realloc_interleavings_stay_consistent(
        ops in proptest::collection::vec((any::<u16>(), 1usize..3000), 1..100)
    ) {
        for cfg in [presets::drr_paper(), presets::lea_like()] {
            let mut m = PolicyAllocator::new(cfg).expect("valid");
            let mut live: Vec<(BlockHandle, usize)> = Vec::new();
            for (sel, size) in &ops {
                match sel % 3 {
                    0 => live.push((m.alloc(*size).expect("alloc"), *size)),
                    1 if !live.is_empty() => {
                        let idx = (*sel as usize / 3) % live.len();
                        let (h, _) = live.swap_remove(idx);
                        m.free(h).expect("free");
                    }
                    _ if !live.is_empty() => {
                        let idx = (*sel as usize / 7) % live.len();
                        let (h, _) = live.swap_remove(idx);
                        let h = m.realloc(h, *size).expect("realloc");
                        live.push((h, *size));
                    }
                    _ => live.push((m.alloc(*size).expect("alloc"), *size)),
                }
            }
            let expect: usize = live.iter().map(|(_, s)| *s).sum();
            prop_assert_eq!(m.stats().live_requested, expect, "{}", m.name());
            if let Err(e) = m.check_invariants() {
                prop_assert!(false, "{}: {e}", m.name());
            }
            for (h, _) in live {
                m.free(h).expect("free");
            }
            prop_assert_eq!(m.stats().live_requested, 0);
        }
    }

    /// The methodology always returns a valid configuration whose replay
    /// does not exceed the worst candidate it evaluated. The log holds
    /// exact peaks only for each tree's best and its ties; a candidate
    /// logged as lost peaks above its tree's best. So the largest exact
    /// peak is at most the worst candidate's, and the bound below implies
    /// the one against every candidate.
    #[test]
    fn methodology_output_is_valid_and_not_worst(trace in trace_strategy(60, 2000)) {
        let outcome = Methodology::new().explore(&trace).expect("explore");
        outcome.config.validate().expect("valid config");
        let worst = outcome
            .decisions
            .iter()
            .flat_map(|d| d.candidates.iter().filter_map(|c| c.exact()).map(|(peak, _)| peak))
            .max()
            .expect("every tree scores its choice exactly");
        prop_assert!(outcome.footprint.peak_footprint <= worst);
    }

    /// Parallel, cache-backed exploration is bit-identical to serial on
    /// random traces: same designed configuration, same replayed peak,
    /// same per-tree decision log (argmin and tie-breaks included). The
    /// evaluation total also agrees; only the replay/cache-hit split may
    /// differ under concurrency.
    #[test]
    fn parallel_exploration_matches_serial(trace in trace_strategy(80, 2048)) {
        let serial = Methodology::new().explore(&trace).expect("explore");
        let parallel = Methodology::new()
            .explore_with_engine(&trace, &ExplorationEngine::new(4))
            .expect("explore");
        prop_assert_eq!(serial.config.summary(), parallel.config.summary());
        prop_assert_eq!(
            serial.footprint.peak_footprint,
            parallel.footprint.peak_footprint
        );
        prop_assert_eq!(&serial.decisions, &parallel.decisions);
        prop_assert_eq!(serial.counters.evaluations, parallel.counters.evaluations);
        prop_assert_eq!(
            serial.counters.replays + serial.counters.cache_hits,
            parallel.counters.replays + parallel.counters.cache_hits
        );
    }

    /// Same identity for the phased explorer: per-phase configurations and
    /// the composed global manager's footprint must not depend on the job
    /// count.
    #[test]
    fn parallel_phased_exploration_matches_serial(trace in trace_strategy(60, 1024)) {
        let serial = Methodology::new().explore_phases(&trace).expect("phases");
        let parallel = Methodology::new()
            .explore_phases_with_engine(&trace, &ExplorationEngine::new(4))
            .expect("phases");
        prop_assert_eq!(serial.phase_configs.len(), parallel.phase_configs.len());
        for ((sp, sc), (pp, pc)) in serial
            .phase_configs
            .iter()
            .zip(&parallel.phase_configs)
        {
            prop_assert_eq!(sp, pp);
            prop_assert_eq!(sc.summary(), pc.summary());
        }
        prop_assert_eq!(
            serial.footprint.peak_footprint,
            parallel.footprint.peak_footprint
        );
    }

    /// Sharded replay composes per-shard accounting exactly: work counters
    /// sum to the whole-trace replay's, the composed peak footprint is the
    /// max over the per-shard replays, and the demand peak never exceeds
    /// the whole trace's (equality when every boundary is lifetime-closed).
    #[test]
    fn sharded_replay_accounting_composes_exactly(trace in trace_strategy(120, 2048)) {
        let whole = replay(&trace, &mut PolicyAllocator::new(presets::drr_paper()).expect("valid"))
            .expect("replay");
        let shards = shard_trace(&trace, 3);
        let all_closed = shards.iter().all(|s| s.boundary.is_closed());
        let per_shard_peaks: Vec<usize> = shards
            .iter()
            .map(|s| {
                replay(&s.trace, &mut PolicyAllocator::new(presets::drr_paper()).expect("valid"))
                    .expect("replay")
                    .peak_footprint
            })
            .collect();
        let composed = replay_shards_config(shards, &presets::drr_paper()).expect("sharded replay");
        prop_assert_eq!(composed.stats.events, whole.events);
        prop_assert_eq!(composed.stats.stats.allocs, whole.stats.allocs);
        prop_assert_eq!(composed.stats.stats.frees, whole.stats.frees);
        prop_assert_eq!(
            composed.stats.peak_footprint,
            per_shard_peaks.iter().copied().max().unwrap_or(0)
        );
        prop_assert!(
            composed.stats.peak_requested <= whole.peak_requested,
            "shard demand {} above whole {}",
            composed.stats.peak_requested, whole.peak_requested
        );
        if all_closed {
            prop_assert_eq!(composed.stats.peak_requested, whole.peak_requested);
            prop_assert_eq!(composed.max_carried_bytes, 0);
        } else {
            prop_assert!(composed.max_carried_bytes > 0);
        }
        prop_assert!(
            composed.peak_resident_trace_bytes <= trace.resident_bytes(),
            "sharded replay held more than the whole trace"
        );
    }
}

// Admissibility of the static footprint floor.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The abstract interpreter's floor is admissible: for every preset,
    /// on random flat and phased traces, `lower_bound_peak(facts, cfg)`
    /// never exceeds the peak footprint an actual replay reports. This is
    /// the soundness contract that makes bound pruning safe — an
    /// inadmissible bound could retire the true winner.
    #[test]
    fn footprint_floor_is_admissible(
        flat in trace_strategy(100, 4096),
        phased in phased_trace_strategy(30, 2048),
    ) {
        use dmm::core::analyze::{lower_bound_peak, TraceFacts};
        for trace in [&flat, &phased] {
            let facts = TraceFacts::of(trace);
            for cfg in presets::all() {
                let mut m = PolicyAllocator::new(cfg.clone()).expect("valid");
                let fs = replay(trace, &mut m).expect("replay");
                let bound = lower_bound_peak(&facts, &cfg);
                prop_assert!(
                    bound <= fs.peak_footprint,
                    "{}: floor {} above replayed peak {}",
                    cfg.name, bound, fs.peak_footprint
                );
            }
        }
    }

    /// Admissibility holds on re-entrant-phase traces too — the phase
    /// discipline whose per-phase facts are most likely to double-count
    /// live blocks if the interpreter were wrong.
    #[test]
    fn footprint_floor_is_admissible_on_reentrant_phases(
        trace in reentrant_phase_strategy(8, 2048),
    ) {
        use dmm::core::analyze::{lower_bound_peak, TraceFacts};
        let facts = TraceFacts::of(&trace);
        for cfg in presets::all() {
            let mut m = PolicyAllocator::new(cfg.clone()).expect("valid");
            let fs = replay(&trace, &mut m).expect("replay");
            let bound = lower_bound_peak(&facts, &cfg);
            prop_assert!(
                bound <= fs.peak_footprint,
                "{}: floor {} above replayed peak {}",
                cfg.name, bound, fs.peak_footprint
            );
        }
    }
}

// Exploration-heavy properties run fewer cases.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Sharded exploration's merged design replays the whole trace within
    /// the documented tolerance of whole-trace exploration, on small
    /// unphased traces.
    #[test]
    fn sharded_exploration_tracks_whole_trace_exploration(trace in trace_strategy(70, 1500)) {
        use dmm::core::methodology::SHARD_MERGE_TOLERANCE;
        use dmm::core::units::SBRK_GRANULARITY;

        let whole = Methodology::new().explore(&trace).expect("explore");
        let sharded = Methodology::new().explore_sharded(&trace, 2).expect("sharded");
        sharded.config.validate().expect("merged config valid");
        prop_assert_eq!(sharded.merges.len(), 12);
        prop_assert_eq!(
            sharded.counters.replays + sharded.counters.cache_hits,
            sharded.counters.evaluations
        );
        let mut m = PolicyAllocator::new(sharded.config.clone()).expect("valid");
        let merged_on_whole = replay(&trace, &mut m).expect("replay");
        let bound = (whole.footprint.peak_footprint as f64 * (1.0 + SHARD_MERGE_TOLERANCE))
            as usize
            + 2 * SBRK_GRANULARITY;
        prop_assert!(
            merged_on_whole.peak_footprint <= bound,
            "merged design peak {} vs whole-trace design peak {}",
            merged_on_whole.peak_footprint, whole.footprint.peak_footprint
        );
    }

    /// The same agreement holds on phased traces, where sharding is
    /// phase-aligned — one shard per phase.
    #[test]
    fn sharded_exploration_tracks_whole_trace_on_phased_traces(
        trace in phased_trace_strategy(40, 1024)
    ) {
        use dmm::core::methodology::SHARD_MERGE_TOLERANCE;
        use dmm::core::units::SBRK_GRANULARITY;

        let whole = Methodology::new().explore(&trace).expect("explore");
        let sharded = Methodology::new().explore_sharded(&trace, 4).expect("sharded");
        prop_assert_eq!(sharded.shard_count, 2, "phase boundaries win");
        for s in &sharded.per_shard {
            prop_assert!(s.phase.is_some());
        }
        let mut m = PolicyAllocator::new(sharded.config.clone()).expect("valid");
        let merged_on_whole = replay(&trace, &mut m).expect("replay");
        let bound = (whole.footprint.peak_footprint as f64 * (1.0 + SHARD_MERGE_TOLERANCE))
            as usize
            + 2 * SBRK_GRANULARITY;
        prop_assert!(
            merged_on_whole.peak_footprint <= bound,
            "merged design peak {} vs whole-trace design peak {}",
            merged_on_whole.peak_footprint, whole.footprint.peak_footprint
        );
    }
}

/// Strategy: a re-entrant-phase trace — segments alternate `0, 1, 0, 1…`
/// (the rendering discipline), each segment allocating and freeing its own
/// objects, with some objects deliberately freed a segment later.
fn reentrant_phase_strategy(max_segments: usize, max_size: usize) -> impl Strategy<Value = Trace> {
    proptest::collection::vec(
        proptest::collection::vec((any::<u16>(), 1..=max_size), 1..12),
        2..max_segments.max(3),
    )
    .prop_map(|segments| {
        let mut b = Trace::builder();
        let mut carried: Vec<u64> = Vec::new();
        for (i, ops) in segments.iter().enumerate() {
            b.phase((i % 2) as u32);
            // Free what the previous segment left over first.
            for id in carried.drain(..) {
                b.free(id);
            }
            let mut live: Vec<u64> = Vec::new();
            for (sel, size) in ops {
                if live.is_empty() || sel % 3 != 0 {
                    live.push(b.alloc(*size));
                } else {
                    let idx = (*sel as usize / 3) % live.len();
                    b.free(live.swap_remove(idx));
                }
            }
            // Carry up to two survivors into the next segment.
            carried = live.split_off(live.len().saturating_sub(2));
            for id in live {
                b.free(id);
            }
        }
        for id in carried {
            b.free(id);
        }
        b.finish().expect("constructed traces are valid")
    })
}

// Compiled replay must be indistinguishable from the classic interpreter.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// `replay_compiled == replay` bit for bit — stats, peaks, counters —
    /// for every manager in the zoo, on flat traces, through one reused
    /// scratch table.
    #[test]
    fn compiled_replay_matches_classic_for_all_managers(trace in trace_strategy(100, 2048)) {
        let compiled = CompiledTrace::compile(&trace);
        let mut scratch = ReplayScratch::new();
        for (mut classic_mgr, mut compiled_mgr) in all_managers().into_iter().zip(all_managers()) {
            let classic = replay(&trace, classic_mgr.as_mut()).expect("classic replay");
            let fast = replay_compiled_with(&compiled, compiled_mgr.as_mut(), &mut scratch)
                .expect("compiled replay");
            prop_assert_eq!(classic, fast);
        }
    }

    /// Bit-identity holds on phased traces, both for a phase-ignoring
    /// atomic manager and for a global manager that routes on the markers.
    #[test]
    fn compiled_replay_matches_classic_on_phased_traces(
        trace in phased_trace_strategy(40, 2048)
    ) {
        let compiled = CompiledTrace::compile(&trace);
        let classic = replay(&trace, &mut PolicyAllocator::new(presets::drr_paper()).expect("valid"))
            .expect("classic replay");
        let fast = replay_compiled(&compiled, &mut PolicyAllocator::new(presets::drr_paper()).expect("valid"))
            .expect("compiled replay");
        prop_assert_eq!(classic, fast);

        let make_global = || GlobalManager::new(
            "proptest global",
            vec![presets::drr_paper(), presets::kingsley_like()],
        ).expect("valid composition");
        let classic = replay(&trace, &mut make_global()).expect("classic replay");
        let fast = replay_compiled(&compiled, &mut make_global()).expect("compiled replay");
        prop_assert_eq!(classic, fast);
    }

    /// Bit-identity holds on re-entrant-phase traces (`0, 1, 0, 1…`), the
    /// discipline that stresses slot recycling across phase boundaries.
    #[test]
    fn compiled_replay_matches_classic_on_reentrant_phases(
        trace in reentrant_phase_strategy(8, 1024)
    ) {
        let compiled = CompiledTrace::compile(&trace);
        let make_global = || GlobalManager::new(
            "proptest global",
            vec![presets::lea_like(), presets::kingsley_like()],
        ).expect("valid composition");
        let classic = replay(&trace, &mut make_global()).expect("classic replay");
        let fast = replay_compiled(&compiled, &mut make_global()).expect("compiled replay");
        prop_assert_eq!(classic, fast);
    }

    /// The sampler checked against the reference interpreter, for every
    /// period from 1 to 15: the period-1 curve peaks at the interpreter's
    /// peak, each period's points are the period-1 points on its grid plus
    /// the final event, and the stats without the series are the
    /// interpreter's.
    #[test]
    fn sampled_series_agrees_with_the_oracle(trace in trace_strategy(80, 1024)) {
        let compiled = CompiledTrace::compile(&trace);
        let make = || PolicyAllocator::new(presets::lea_like()).expect("valid");
        let oracle = replay(&trace, &mut make()).expect("classic replay");
        let every_event = replay_compiled_sampled(&compiled, &mut make(), 1)
            .expect("sampled replay")
            .series
            .expect("a sampled replay returns a series")
            .points;
        let peak = every_event.iter().map(|p| p.footprint).max();
        prop_assert_eq!(peak, Some(oracle.peak_footprint));
        let last = trace.len() - 1;
        for every in 1..=15 {
            let mut fs = replay_compiled_sampled(&compiled, &mut make(), every)
                .expect("sampled replay");
            let series = fs.series.take().expect("a sampled replay returns a series");
            let on_grid: Vec<_> = every_event
                .iter()
                .copied()
                .filter(|p| p.event % every == 0 || p.event == last)
                .collect();
            prop_assert_eq!(series.points, on_grid, "sample_every={}", every);
            prop_assert_eq!(&fs, &oracle, "sample_every={}", every);
        }
    }

    /// Differential check for the boundary-tag block store, across every
    /// preset manager on flat **and** phased traces, through both replay
    /// kernels: identical `FootprintStats` — footprints, peaks, and the
    /// charged `search_steps` of the fit cost model. Because this suite
    /// runs in debug builds, the per-event invariant hook additionally
    /// cross-checks the intrusive neighbour list against the `BTreeMap`
    /// `BlockMap` shadow oracle after every single event (identical block
    /// sequences: span, state, requested bytes and pool), so any
    /// divergence between the new tiling and the reference implementation
    /// panics at the event that caused it.
    #[test]
    fn boundary_tag_tiling_is_oracle_checked_and_charge_identical(
        flat in trace_strategy(90, 2048),
        phased in phased_trace_strategy(25, 1024),
    ) {
        let mut scratch = ReplayScratch::new();
        for trace in [&flat, &phased] {
            let compiled = CompiledTrace::compile(trace);
            for cfg in presets::all() {
                let classic = replay(trace, &mut PolicyAllocator::new(cfg.clone()).expect("valid"))
                    .expect("classic replay");
                let fast = replay_compiled_with(
                    &compiled,
                    &mut PolicyAllocator::new(cfg.clone()).expect("valid"),
                    &mut scratch,
                ).expect("compiled replay");
                prop_assert_eq!(&classic, &fast, "{}", cfg.name);
                prop_assert!(classic.stats.search_steps > 0, "{} charged nothing", cfg.name);
            }
        }
        // Sharded replays run the same per-event oracle checks shard by
        // shard; the composition must agree with the manual classic one.
        for cfg in [presets::drr_paper(), presets::lea_like()] {
            let shards = shard_trace(&flat, 3);
            let mut manual: Option<dmm::core::metrics::FootprintStats> = None;
            for s in &shards {
                let fs = replay(&s.trace, &mut PolicyAllocator::new(cfg.clone()).expect("valid"))
                    .expect("classic replay");
                match manual.as_mut() {
                    None => manual = Some(fs),
                    Some(acc) => acc.absorb_shard(&fs),
                }
            }
            let composed = replay_shards_config(shards, &cfg).expect("sharded replay");
            prop_assert_eq!(Some(composed.stats), manual, "{}", cfg.name);
        }
    }

    /// Differential check for the rank/order-statistic layer over the
    /// free-list indexes: managers spanning every A1 block structure
    /// (singly/doubly linked list, address-ordered list, size-ordered
    /// tree) crossed with every fit algorithm replay flat **and** phased
    /// traces through both kernels. Every find charge — first/next-fit
    /// hit distances, SLL unlink positions, `AddrIndex` miss charges —
    /// is computed from subtree counts, and because this suite runs in
    /// debug builds each one is recomputed by the faithful walk compiled
    /// in next to the rank query (`linked::walk_search`,
    /// `ordered::walk_find`), panicking at the first divergence in
    /// answer OR charge; the per-event invariant hook re-validates the
    /// position-tree and size-map replicas against the lists they answer
    /// for. Both kernels must agree bit for bit, charges included.
    ///
    /// Each point also runs with deferred coalescing (A2 = many, D2 =
    /// deferred), merges unlimited and capped at 512 bytes, where the debug
    /// oracle checks after every sweep that nothing is left to merge. The
    /// flat traces are long enough that the heap outgrows eight times the
    /// frees between two sweeps: debug builds count the sweeps that walked
    /// the whole heap and those that visited only the listed stretches,
    /// and both must have run.
    #[test]
    fn rank_computed_charges_match_faithful_walks(
        flat in trace_strategy_between(48..112, 2048),
        phased in phased_trace_strategy(20, 1024),
    ) {
        use dmm::core::space::trees::{
            BlockStructure, CoalesceMaxSizes, CoalesceWhen, FitAlgorithm,
        };

        let structures = [
            BlockStructure::SinglyLinkedList,
            BlockStructure::DoublyLinkedList,
            BlockStructure::AddressOrderedList,
            BlockStructure::SizeOrderedTree,
        ];
        let fits = [
            FitAlgorithm::FirstFit,
            FitAlgorithm::NextFit,
            FitAlgorithm::BestFit,
            FitAlgorithm::WorstFit,
            FitAlgorithm::ExactFit,
        ];
        // The preset's immediate coalescing, then deferred sweeps with
        // merges unlimited and capped.
        let arms = [None, Some(CoalesceMaxSizes::Unlimited), Some(CoalesceMaxSizes::Capped)];
        let mut scratch = ReplayScratch::new();
        // Deferred sweeps that walked the whole heap, and listed ones.
        #[cfg(debug_assertions)]
        let mut paths = (0u64, 0u64);
        for trace in [&flat, &phased] {
            let compiled = CompiledTrace::compile(trace);
            for s in structures {
                for f in fits {
                    for deferred in arms {
                        let mut cfg = presets::drr_paper();
                        cfg.name = format!("{s}/{f}/deferred={deferred:?}");
                        cfg.block_structure = s;
                        cfg.fit = f;
                        if let Some(max) = deferred {
                            cfg.coalesce_when = CoalesceWhen::Deferred;
                            cfg.coalesce_max = max;
                            cfg.params.coalesce_cap = 512;
                        }
                        if cfg.validate().is_err() {
                            continue; // interdependency-pruned point
                        }
                        let classic =
                            replay(trace, &mut PolicyAllocator::new(cfg.clone()).expect("valid"))
                                .expect("classic replay");
                        let mut m = PolicyAllocator::new(cfg.clone()).expect("valid");
                        let fast = replay_compiled_with(&compiled, &mut m, &mut scratch)
                            .expect("compiled replay");
                        prop_assert_eq!(&classic, &fast, "{}", cfg.name);
                        prop_assert!(classic.stats.search_steps > 0, "{} charged nothing", cfg.name);
                        #[cfg(debug_assertions)]
                        {
                            let v = m.sweep_visits();
                            paths.0 += v.whole;
                            paths.1 += v.listed;
                        }
                    }
                }
            }
        }
        #[cfg(debug_assertions)]
        prop_assert!(
            paths.0 > 0 && paths.1 > 0,
            "sweeps (whole heap, listed): {:?}",
            paths
        );
        // Sharded replay runs the same in-find walk oracles shard by
        // shard; exercise the structure presets::all() never covers.
        for s in [BlockStructure::AddressOrderedList, BlockStructure::SinglyLinkedList] {
            let mut cfg = presets::drr_paper();
            cfg.name = format!("sharded {s}");
            cfg.block_structure = s;
            cfg.fit = FitAlgorithm::NextFit;
            if cfg.validate().is_err() {
                continue;
            }
            let shards = shard_trace(&flat, 3);
            let mut manual: Option<dmm::core::metrics::FootprintStats> = None;
            for sh in &shards {
                let fs = replay(&sh.trace, &mut PolicyAllocator::new(cfg.clone()).expect("valid"))
                    .expect("classic replay");
                match manual.as_mut() {
                    None => manual = Some(fs),
                    Some(acc) => acc.absorb_shard(&fs),
                }
            }
            let composed = replay_shards_config(shards, &cfg).expect("sharded replay");
            prop_assert_eq!(Some(composed.stats), manual, "{}", cfg.name);
        }
    }

    /// Sharded composition through the compiled path (what
    /// `replay_shards` runs, sharing one slot table across shards) equals
    /// the manual classic composition of the same shards.
    #[test]
    fn compiled_sharded_composition_matches_classic(trace in trace_strategy(120, 2048)) {
        let shards = shard_trace(&trace, 3);
        let mut manual: Option<dmm::core::metrics::FootprintStats> = None;
        for s in &shards {
            let fs = replay(&s.trace, &mut PolicyAllocator::new(presets::drr_paper()).expect("valid"))
                .expect("classic replay");
            match manual.as_mut() {
                None => manual = Some(fs),
                Some(acc) => acc.absorb_shard(&fs),
            }
        }
        let composed = replay_shards_config(shards, &presets::drr_paper()).expect("sharded replay");
        prop_assert_eq!(Some(composed.stats), manual);
    }
}

// The fixed-class arms of the rank-computed charge check, kept to a few
// cases: each replays close to two hundred configurations.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The fixed-class arms of `rank_computed_charges_match_faithful_walks`:
    /// A2 ∈ {profiled classes, power-of-two classes} × every A1 × every C1
    /// × D2 ∈ {always, deferred}, where carving and `grow` create runs of
    /// class blocks and merges, sweeps and trims take them apart. Both
    /// kernels replay flat and phased traces under the debug walk oracles,
    /// the per-member tiling shadow and the per-event invariant hook, and
    /// must agree bit for bit. A first-fit variant of every A2 × A1 × D2
    /// point caps coalescing at 512 bytes where the rules allow it, so runs
    /// are absorbed only in part.
    #[test]
    fn fixed_class_runs_match_faithful_walks(
        flat in trace_strategy(60, 1024),
        phased in phased_trace_strategy(15, 512),
    ) {
        use dmm::core::space::trees::{
            BlockSizes, BlockStructure, CoalesceMaxSizes, CoalesceWhen, FitAlgorithm,
        };

        let mut points = Vec::new();
        for sizes in [BlockSizes::ProfiledClasses, BlockSizes::PowerOfTwoClasses] {
            for s in BlockStructure::ALL {
                for when in [CoalesceWhen::Always, CoalesceWhen::Deferred] {
                    for f in FitAlgorithm::ALL {
                        points.push((sizes, s, f, when, false));
                    }
                    points.push((sizes, s, FitAlgorithm::FirstFit, when, true));
                }
            }
        }
        let mut scratch = ReplayScratch::new();
        let mut replayed = 0usize;
        for trace in [&flat, &phased] {
            let compiled = CompiledTrace::compile(trace);
            for &(sizes, s, f, when, capped) in &points {
                let mut cfg = presets::drr_paper();
                cfg.name = format!("{sizes}/{s}/{f}/{when}/capped={capped}");
                cfg.block_sizes = sizes;
                cfg.params.profiled_classes = vec![16, 32, 48, 64, 128];
                cfg.block_structure = s;
                cfg.fit = f;
                cfg.coalesce_when = when;
                if capped {
                    cfg.coalesce_max = CoalesceMaxSizes::Capped;
                    cfg.params.coalesce_cap = 512;
                }
                if cfg.validate().is_err() {
                    continue;
                }
                let classic =
                    replay(trace, &mut PolicyAllocator::new(cfg.clone()).expect("valid"))
                        .expect("classic replay");
                let fast = replay_compiled_with(
                    &compiled,
                    &mut PolicyAllocator::new(cfg.clone()).expect("valid"),
                    &mut scratch,
                )
                .expect("compiled replay");
                prop_assert_eq!(&classic, &fast, "{}", cfg.name);
                replayed += 1;
            }
        }
        prop_assert_eq!(replayed, 2 * points.len(), "a fixed-class point stopped validating");
    }
}

// Trace-conditioned config projection: the soundness contract behind the
// projected replay cache.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Equal [`ProjectedKey`]s imply bit-identical replays. The projection
    /// tier serves one candidate's stats for a whole equivalence class, so
    /// this is the property that makes it a cache rather than an
    /// approximation: for random flat, phased and re-entrant traces, any
    /// two configurations the projection maps to the same key must replay
    /// to the same `FootprintStats` (names normalised — the name is the
    /// one field the projection deliberately ignores).
    #[test]
    fn equal_projected_keys_imply_bit_identical_replays(
        flat in trace_strategy(80, 2048),
        phased in phased_trace_strategy(20, 1024),
        reentrant in reentrant_phase_strategy(6, 1024),
    ) {
        use dmm::core::analyze::TraceFacts;
        use dmm::core::methodology::{ProjectedKey, TraceProjection};
        use dmm::core::space::trees::{
            BlockStructure, BlockTags, CoalesceMaxSizes, CoalesceWhen, FitAlgorithm, Leaf,
        };
        use std::collections::HashMap;
        use std::sync::Arc;

        // Candidate pool: the presets plus mutations that differ only in
        // arms the projection may canonicalise away on a given trace
        // (boundary-tag flavour, tag placement under deferred coalescing,
        // best vs first fit on a size tree, unreachable
        // caps/thresholds/limits).
        let mut candidates = presets::all();
        for base in presets::all() {
            for (label, leaves) in [
                ("+footer", vec![Leaf::A3(BlockTags::Footer)]),
                ("+deferred", vec![Leaf::D2(CoalesceWhen::Deferred)]),
                (
                    "+deferred footer",
                    vec![Leaf::D2(CoalesceWhen::Deferred), Leaf::A3(BlockTags::Footer)],
                ),
                (
                    "+size-tree first fit",
                    vec![
                        Leaf::A1(BlockStructure::SizeOrderedTree),
                        Leaf::C1(FitAlgorithm::FirstFit),
                    ],
                ),
                (
                    "+size-tree best fit",
                    vec![
                        Leaf::A1(BlockStructure::SizeOrderedTree),
                        Leaf::C1(FitAlgorithm::BestFit),
                    ],
                ),
            ] {
                let mut c = leaves.into_iter().fold(base.clone(), DmConfig::with_leaf);
                c.name = format!("{} {label}", base.name);
                if c.validate().is_ok() {
                    candidates.push(c);
                }
            }
            let mut c = base.clone();
            c.name = format!("{} +huge-cap", c.name);
            c = c.with_leaf(Leaf::D1(CoalesceMaxSizes::Capped));
            c.params.coalesce_cap = 1 << 40;
            if c.validate().is_ok() {
                candidates.push(c);
            }
            let mut c = base.clone();
            c.name = format!("{} +huge-trim", c.name);
            c.params.trim_threshold = Some(1 << 40);
            if c.validate().is_ok() {
                candidates.push(c);
            }
            let mut c = base.clone();
            c.name = format!("{} +huge-limit", c.name);
            c.params.arena_limit = Some(1 << 40);
            if c.validate().is_ok() {
                candidates.push(c);
            }
        }

        for trace in [&flat, &phased, &reentrant] {
            let projection = TraceProjection::of(&TraceFacts::of(trace));
            let compiled = CompiledTrace::compile(trace);
            let mut by_key: HashMap<ProjectedKey, dmm::core::metrics::FootprintStats> =
                HashMap::new();
            for cfg in &candidates {
                let key = ProjectedKey::of(cfg, &projection);
                let mut m = PolicyAllocator::new(cfg.clone()).expect("valid");
                let mut fs = replay_compiled(&compiled, &mut m).expect("replay");
                fs.manager = Arc::from("normalised");
                match by_key.get(&key) {
                    None => {
                        by_key.insert(key, fs);
                    }
                    Some(rep) => prop_assert_eq!(
                        rep, &fs,
                        "'{}' shares a projected key with an earlier candidate \
                         but replays differently", cfg.name
                    ),
                }
            }
        }
    }
}

// Pruned sweeps — bound, projection and peak cut-off — crown the winner
// of the unpruned fold on random traces (heavier: few cases).
proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Both engines — plain and projected — cut losing replays short, so
    /// each is checked against the independent oracle, the unpruned
    /// classic-interpreter fold `exhaustive_best`: same configuration
    /// fingerprint, same peak. The engines' buckets still partition the
    /// enumerated prefix, and projection never adds a replay.
    #[test]
    fn projected_sweeps_match_the_unpruned_fold_on_random_traces(
        trace in trace_strategy(60, 1500),
    ) {
        use dmm::core::methodology::{exhaustive_best, exhaustive_best_with_engine};

        let limit = 120;
        let (ocfg, opeak, _) =
            exhaustive_best(&trace, Params::default(), Some(limit)).expect("unpruned fold");

        let plain = ExplorationEngine::serial();
        let (pcfg, ppeak, pevald) =
            exhaustive_best_with_engine(&trace, Params::default(), Some(limit), &plain)
                .expect("plain sweep");

        let projected = ExplorationEngine::serial().with_projection(true);
        let (jcfg, jpeak, jevald) =
            exhaustive_best_with_engine(&trace, Params::default(), Some(limit), &projected)
                .expect("projected sweep");

        prop_assert_eq!(pcfg.fingerprint(), ocfg.fingerprint());
        prop_assert_eq!(ppeak, opeak);
        prop_assert_eq!(jcfg.fingerprint(), ocfg.fingerprint());
        prop_assert_eq!(jpeak, opeak);
        let (pc, jc) = (plain.counters(), projected.counters());
        prop_assert_eq!(jevald, jc.evaluations + jc.projection_hits);
        prop_assert_eq!(
            jc.candidates(),
            limit,
            "projected buckets must partition the enumerated prefix"
        );
        prop_assert!(jc.replays <= pc.replays);
        prop_assert_eq!(pevald, pc.evaluations + pc.projection_hits);
        prop_assert_eq!(pc.candidates(), limit);
    }
}

// Parsers of untrusted bytes are total: every input yields a value or a
// typed error, never a panic.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Arbitrary bytes, and valid trace encodings with random bytes
    /// flipped and a random cut, through `decode_trace` and
    /// `recover_bytes`.
    #[test]
    fn trace_decoders_are_total(
        noise in proptest::collection::vec(any::<u8>(), 0..512),
        trace in trace_strategy(40, 512),
        edits in proptest::collection::vec((any::<u16>(), any::<u8>()), 0..6),
        cut in any::<u16>(),
    ) {
        use dmm::core::trace::{decode_trace, encode_trace, recover_bytes};

        let _ = decode_trace(&noise);
        let _ = recover_bytes(&noise);
        let mut bytes = encode_trace(&trace);
        prop_assert_eq!(&decode_trace(&bytes).expect("round trip"), &trace);
        let cut = cut as usize % (bytes.len() + 1);
        let _ = decode_trace(&bytes[..cut]);
        let _ = recover_bytes(&bytes[..cut]);
        for (at, mask) in edits {
            let i = at as usize % bytes.len();
            bytes[i] ^= mask.max(1);
        }
        let _ = decode_trace(&bytes);
        let _ = recover_bytes(&bytes);
        let _ = decode_trace(&bytes[..cut]);
        let _ = recover_bytes(&bytes[..cut]);
    }

    /// `CheckpointJournal::resume` over arbitrary bytes and over mutated
    /// journals returns a journal or `Error::Checkpoint`; any cut of a
    /// valid journal — with multi-byte manager names — resumes with
    /// exactly the records that end before the cut.
    #[test]
    fn journal_resume_is_total_and_keeps_the_records_before_a_cut(
        names in proptest::collection::vec(any::<u16>(), 1..6),
        cut in any::<u32>(),
        noise in proptest::collection::vec(any::<u8>(), 0..256),
        edits in proptest::collection::vec((any::<u16>(), any::<u8>()), 1..4),
    ) {
        use dmm::core::error::Error;
        use dmm::core::methodology::CheckpointJournal;
        use dmm::core::metrics::FootprintStats;

        let path = std::env::temp_dir().join(format!(
            "dmm-proptest-journal-{}.journal",
            std::process::id()
        ));
        let total = |p: &std::path::Path| match CheckpointJournal::resume(p) {
            Ok(_) | Err(Error::Checkpoint(_)) => Ok(()),
            Err(e) => Err(e),
        };
        std::fs::write(&path, &noise).unwrap();
        prop_assert!(total(&path).is_ok(), "untyped error on noise");

        std::fs::remove_file(&path).ok();
        {
            let j = CheckpointJournal::create(&path).unwrap();
            for (i, n) in names.iter().enumerate() {
                let stats = FootprintStats {
                    manager: std::sync::Arc::from(format!("m{n} [shard {i} · phase é]")),
                    peak_footprint: *n as usize,
                    ..FootprintStats::default()
                };
                j.record(5, 7, i as u64, &stats).unwrap();
            }
        }
        let bytes = std::fs::read(&path).unwrap();
        let ends: Vec<usize> = (0..bytes.len()).filter(|&i| bytes[i] == b'\n').map(|i| i + 1).collect();
        prop_assert_eq!(ends.len(), names.len());
        let cut = cut as usize % (bytes.len() + 1);
        std::fs::write(&path, &bytes[..cut]).unwrap();
        let j = CheckpointJournal::resume(&path).expect("a cut journal resumes");
        let kept = ends.iter().filter(|&&e| e <= cut).count();
        prop_assert_eq!(j.entries(), kept);
        prop_assert_eq!(j.recovered_bytes(), cut - ends[..kept].last().copied().unwrap_or(0));
        for i in 0..names.len() {
            prop_assert_eq!(j.lookup(5, 7, i as u64).is_some(), i < kept);
        }
        drop(j);

        let mut mutated = bytes.clone();
        for (at, mask) in edits {
            let i = at as usize % mutated.len();
            mutated[i] ^= mask.max(1);
        }
        std::fs::write(&path, &mutated).unwrap();
        prop_assert!(total(&path).is_ok(), "untyped error on a mutated journal");
        std::fs::remove_file(&path).ok();
    }
}
