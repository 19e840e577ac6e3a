//! Soundness of the prune-safe static lints.
//!
//! The exploration engine skips candidates carrying a prune-safe
//! diagnostic ([`dmm::core::analyze::prune_reason`]) without replaying
//! them. That is only sound if the skip can never change an exhaustive
//! search's winner — prune-safe findings must exclusively flag candidates
//! whose replay is bit-identical to an *earlier-enumerated* sibling, so a
//! first-seen strict-minimum fold already holds the same result.
//!
//! This test runs the paper's quick case studies through both paths —
//! [`exhaustive_best`] (no pruning, classic interpreter) and
//! [`exhaustive_best_with_engine`] (pruning + compiled kernel) — over the
//! same enumeration prefix and demands the identical winner and peak,
//! while the pruned path actually skips work. Debug builds walk a bounded
//! prefix of the space (replays are ~100× slower); release builds (CI)
//! walk the whole pruned space.
//!
//! The engine path now also prunes by admissible footprint bound
//! ([`dmm::core::analyze::lower_bound_peak`]): candidates whose floor
//! already loses to the incumbent are skipped without a replay. That is
//! sound for the same reason — an admissible bound can only skip
//! candidates that cannot strictly improve on the incumbent, and ties are
//! only skipped when they enumerate *later* than the incumbent, exactly
//! what the first-seen strict-minimum fold would discard. The accounting
//! identity `evaluated + statically_pruned + bound_pruned == enumerated`
//! is asserted on every run; in release, where the full 39,840-config
//! space is walked, bound pruning must retire at least 25% of it on the
//! DRR case study.
//!
//! Two more checks cover the bound itself on the quick DRR, recon and
//! render traces:
//!
//! - The sweep ranks its candidates through one bound per structural key
//!   and writes each one into a single reused configuration instead of
//!   building all 39,840. A reference sweep built from the public
//!   per-config steps (enumerate, bound every config, sort,
//!   `evaluate_bounded`) must give the same winner, count, counters and
//!   cuts, with projection on and off; and `rank_by_bound` must equal the
//!   per-config reference ranking over the whole space.
//! - Admissibility: no config's bound exceeds its replayed peak. Release
//!   builds replay the whole space, debug builds a fixed stride of it.
//!
//! The same replays check the projection contract and the prune-safe
//! lints directly: configs with equal `ProjectedKey`s replay to identical
//! `FootprintStats`, and every config a prune-safe lint flags replays like
//! the canonical sibling it points at. Release builds check both over the
//! whole space, under the sweep's parameters and under the ones the greedy
//! methodology seeds on each quick trace and on each phase of the render
//! trace, since the greedy traversal keys its replays by `ProjectedKey`
//! too. Under the sweep's parameters they also check the sweep's cuts:
//! every candidate the sweep decides lost on peak without a full replay
//! (its replay cut at its cap, or a cached floor above the cap) peaks
//! above that cap in its full replay, with projection on and off.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

use dmm::core::analyze::{lower_bound_peak, prune_reason, rank_by_bound, TraceFacts};
use dmm::core::methodology::cache::{ProjectedKey, TraceKey, TraceProjection};
use dmm::core::methodology::{exhaustive_best_with_engine, ExplorationEngine, Incumbent};
use dmm::core::metrics::FootprintStats;
use dmm::core::space::enumerate::SpaceIter;
use dmm::core::space::order::TRAVERSAL_ORDER;
use dmm::core::space::trees::{
    BlockTags, CoalesceMaxSizes, RecordedInfo, SplitMinSizes, SplitWhen,
};
use dmm::core::space::{Leaf, TreeId};
use dmm::core::units::MIN_BLOCK;
use dmm::core::Error;
use dmm::prelude::*;
use dmm::workloads::{DrrWorkload, RenderWorkload};

fn leaf_key(cfg: &DmConfig) -> String {
    cfg.summary()
}

/// The sweep's parameters. The full space includes A2 = profiled classes,
/// which demands a non-empty class list: the same provisioning the
/// methodology performs before its own sweep.
fn sweep_params() -> Params {
    let mut params = Params::footprint_optimised();
    params.profiled_classes = vec![MIN_BLOCK, 2 * MIN_BLOCK, 4 * MIN_BLOCK, 8 * MIN_BLOCK];
    params
}

/// Debug replays are about two orders of magnitude slower than release;
/// debug sweeps walk this prefix, release sweeps the whole space.
fn sweep_limit() -> Option<usize> {
    if cfg!(debug_assertions) {
        Some(600)
    } else {
        None
    }
}

fn space(limit: Option<usize>) -> Vec<DmConfig> {
    SpaceIter::with_order_and_params(TRAVERSAL_ORDER.to_vec(), sweep_params())
        .take(limit.unwrap_or(usize::MAX))
        .collect()
}

/// `(index, bound)` of every config, each bound computed on its own,
/// sorted by `(bound, index)`.
fn reference_ranking(facts: &TraceFacts, configs: &[DmConfig]) -> Vec<(usize, usize)> {
    let mut ranked: Vec<(usize, usize)> = configs
        .iter()
        .enumerate()
        .map(|(i, cfg)| (i, lower_bound_peak(facts, cfg)))
        .collect();
    ranked.sort_by_key(|&(i, bound)| (bound, i));
    ranked
}

/// What a sweep returns: the winner, its peak and the evaluated count.
type SweepResult = (DmConfig, usize, usize);

/// The sweep through its public per-config steps: every config built and
/// bounded on its own, then `evaluate_bounded` in rank order against the
/// first-seen-minimum incumbent. Returns what `exhaustive_best_with_engine`
/// returns, and `(enumeration index, cap)` for every candidate the sweep
/// decided lost on peak without a full replay: its replay was cut at the
/// cap, or a cached floor above the cap answered it.
fn reference_sweep(
    trace: &Trace,
    limit: Option<usize>,
    engine: &ExplorationEngine,
) -> (SweepResult, Vec<(usize, usize)>) {
    let configs = space(limit);
    let ranked = reference_ranking(&TraceFacts::of(trace), &configs);
    let key = TraceKey::of(trace);
    let before = engine.counters();
    let mut best: Option<(usize, usize)> = None;
    let mut lost = Vec::new();
    for &(order, bound) in &ranked {
        let incumbent = best.map(|(peak, order)| Incumbent { peak, order });
        let (cuts, hits) = (engine.peak_cut(), engine.counters().projection_hits);
        let Some(eval) = engine
            .evaluate_bounded(trace, key, &configs[order], bound, order, incumbent)
            .unwrap()
        else {
            if engine.peak_cut() > cuts || engine.counters().projection_hits > hits {
                // The cap `evaluate_bounded` documents: an earlier
                // candidate wins a tie, a later one must beat the incumbent.
                let inc = incumbent.expect("only a capped replay loses on peak");
                let cap = if order < inc.order {
                    inc.peak
                } else {
                    inc.peak - 1
                };
                lost.push((order, cap));
            }
            continue;
        };
        let peak = eval.stats.peak_footprint;
        if best.is_none_or(|(bp, bo)| peak < bp || (peak == bp && order < bo)) {
            best = Some((peak, order));
        }
    }
    let after = engine.counters();
    let evaluated =
        (after.evaluations - before.evaluations) + (after.projection_hits - before.projection_hits);
    let (peak, order) = best.expect("the sweep evaluated a candidate");
    ((configs[order].clone(), peak, evaluated), lost)
}

/// Returns `(enumerated, bound_skipped)` so callers can assert
/// workload-specific prune-rate floors.
fn check(name: &str, trace: &Trace, limit: Option<usize>) -> (usize, usize) {
    let engine = ExplorationEngine::serial();
    let params = sweep_params();
    let (plain_cfg, plain_peak, plain_n) = exhaustive_best(trace, params.clone(), limit).unwrap();
    let (pruned_cfg, pruned_peak, pruned_n) =
        exhaustive_best_with_engine(trace, params, limit, &engine).unwrap();

    assert_eq!(plain_peak, pruned_peak, "{name}: winner peak changed");
    assert_eq!(
        leaf_key(&plain_cfg),
        leaf_key(&pruned_cfg),
        "{name}: winner configuration changed"
    );
    let counters = engine.counters();
    let (skipped, bound_skipped) = (counters.statically_pruned, counters.bound_pruned);
    assert!(skipped > 0, "{name}: static pruning never fired");
    assert_eq!(
        pruned_n + skipped + bound_skipped,
        plain_n,
        "{name}: every enumerated candidate is either evaluated or pruned"
    );
    if !cfg!(debug_assertions) {
        // Full-space release sweeps must actually exercise the bound
        // prune; debug prefixes stay inside the outermost A2 = many
        // subtree where every floor sits below the incumbent peak.
        assert!(bound_skipped > 0, "{name}: bound pruning never fired");
    }
    // The winner itself must never carry a prune-safe finding — if it did,
    // the pruned path would have skipped it.
    assert!(
        prune_reason(&plain_cfg).is_none(),
        "{name}: winner carries a prune-safe diagnostic"
    );
    (plain_n, bound_skipped)
}

/// The README's "Static analysis" table is generated from
/// [`dmm::core::analyze::catalogue`]; keep the two in lock-step so
/// `--explain` and the documented codes never drift apart.
#[test]
fn readme_catalogue_table_matches_the_code() {
    let readme = include_str!(concat!(env!("CARGO_MANIFEST_DIR"), "/README.md"));
    let catalogue = dmm::core::analyze::catalogue();
    assert!(!catalogue.is_empty());
    for e in catalogue {
        let row = format!(
            "| `{}` | {} | {} | {} | {} |",
            e.code,
            e.severity,
            if e.prune_safe { "yes" } else { "" },
            e.summary,
            e.fix
        );
        assert!(
            readme.contains(&row),
            "README catalogue row for {} is missing or stale; expected:\n{}",
            e.code,
            row
        );
    }
}

#[test]
fn pruned_exhaustive_search_matches_unpruned_winner() {
    // The debug prefix still covers every A3/A4 sibling group many times
    // over (those trees enumerate innermost), so pruning fires within the
    // first dozen candidates.
    let limit = sweep_limit();
    let (enumerated, bound_skipped) =
        check("drr-quick", &DrrWorkload::quick(0).record().unwrap(), limit);
    if !cfg!(debug_assertions) {
        // Over the full space the admissible floors must carry real
        // weight: at least a quarter of all enumerated candidates retire
        // without a replay on the DRR case study (measured: ~64%).
        assert!(
            bound_skipped * 4 >= enumerated,
            "drr-quick: bound pruning retired only {bound_skipped} of {enumerated}"
        );
    }
    check(
        "render-quick",
        &RenderWorkload::quick(0).record().unwrap(),
        limit,
    );
}

#[test]
fn memoised_ranking_equals_the_per_config_bounds_over_the_whole_space() {
    let configs = space(None);
    assert_eq!(configs.len(), 39_840);
    for w in quick_studies(0) {
        let facts = TraceFacts::of(&w.record().unwrap());
        let got = rank_by_bound(&facts, &configs);
        let want = reference_ranking(&facts, &configs);
        assert_eq!(got.len(), want.len(), "{}", w.name());
        if let Some((g, r)) = got.iter().zip(&want).find(|(g, r)| g != r) {
            panic!(
                "{}: the memoised ranking has (index, bound) {g:?} where the per-config \
                 bounds give {r:?}",
                w.name()
            );
        }
    }
}

/// Every candidate a reference sweep decided lost on peak without a full
/// replay, as `(enumeration index, cap)`, by quick trace name and projection.
type SweepLosses = HashMap<(String, bool), Vec<(usize, usize)>>;

/// The memoised sweep against the per-config steps on each quick trace, with
/// projection on and off: the same winner, count, counters and cuts. Runs
/// once per test binary and returns the reference sweeps' losses on peak,
/// which the whole-space pass checks against its own full replays, so the
/// cut check adds neither a sweep nor a replay.
fn checked_sweeps() -> &'static SweepLosses {
    static SWEEPS: OnceLock<SweepLosses> = OnceLock::new();
    SWEEPS.get_or_init(|| {
        let mut losses = HashMap::new();
        for w in quick_studies(0) {
            let trace = w.record().unwrap();
            for projection in [false, true] {
                let engine = || ExplorationEngine::serial().with_projection(projection);
                let (reference, swept) = (engine(), engine());
                let ((want_cfg, want_peak, want_n), lost) =
                    reference_sweep(&trace, sweep_limit(), &reference);
                let (got_cfg, got_peak, got_n) =
                    exhaustive_best_with_engine(&trace, sweep_params(), sweep_limit(), &swept)
                        .unwrap();
                let what = format!("{} (projection {projection})", w.name());
                assert_eq!(got_cfg, want_cfg, "{what}: winner");
                assert_eq!(got_peak, want_peak, "{what}");
                assert_eq!(got_n, want_n, "{what}");
                assert_eq!(swept.counters(), reference.counters(), "{what}");
                assert_eq!(swept.peak_cut(), reference.peak_cut(), "{what}");
                assert!(
                    !lost.is_empty(),
                    "{what}: the sweep never lost a candidate on peak"
                );
                losses.insert((w.name().to_string(), projection), lost);
            }
        }
        losses
    })
}

#[test]
fn memoised_sweep_matches_the_per_config_steps() {
    assert_eq!(checked_sweeps().len(), 2 * quick_studies(0).len());
}

/// Debug builds replay every 401st config of the space, release builds all
/// of them.
fn space_stride() -> usize {
    if cfg!(debug_assertions) {
        401
    } else {
        1
    }
}

/// The sibling a prune-safe finding says `cfg` replays like; it enumerates
/// earlier (`space::enumerate`'s tests check that over the whole space).
fn canonical_sibling(cfg: &DmConfig, code: &str) -> DmConfig {
    cfg.clone().with_leaf(match code {
        "DM030" => Leaf::A4(RecordedInfo::Size),
        "DM031" => Leaf::A3(BlockTags::Header),
        "DM033" => Leaf::E2(SplitWhen::Always),
        "DM034" => Leaf::E1(SplitMinSizes::Unrestricted),
        "DM035" => Leaf::D1(CoalesceMaxSizes::Unlimited),
        other => panic!("unexpected prune-safe code {other}"),
    })
}

fn leaves(cfg: &DmConfig) -> Vec<Leaf> {
    TreeId::ALL.iter().map(|&tree| cfg.leaf(tree)).collect()
}

/// Replays every `space_stride()`-th config enumerated under `params` on
/// `trace` once, and checks with those replays alone that
///
/// - its bound is at most its replayed peak;
/// - every config sharing its `ProjectedKey` replays to the same result:
///   the same stats with names normalised (the one field the key ignores),
///   or the same error;
/// - when a prune-safe lint flags it, it replays like the canonical
///   sibling the finding points at, if that sibling was replayed too.
///
/// Returns each config's replayed peak by enumeration index (`None` where
/// the stride skipped it or its replay failed).
fn replay_space(what: &str, trace: &Trace, params: Params) -> Vec<Option<usize>> {
    let facts = TraceFacts::of(trace);
    let projection = TraceProjection::of(&facts);
    let compiled = CompiledTrace::compile(trace);
    let mut scratch = ReplayScratch::new();
    let mut classes: HashMap<ProjectedKey, Result<FootprintStats, Error>> = HashMap::new();
    let mut by_leaves: HashMap<Vec<Leaf>, Result<FootprintStats, Error>> = HashMap::new();
    let (mut replayed, mut findings) = (0usize, 0usize);
    let mut peaks = vec![None; 39_840];
    for (order, cfg) in SpaceIter::with_order_and_params(TRAVERSAL_ORDER.to_vec(), params)
        .enumerate()
        .step_by(space_stride())
    {
        let name = || format!("{what}: {} ({})", cfg.name, cfg.summary());
        let result = PolicyAllocator::new(cfg.clone()).and_then(|mut mgr| {
            let mut stats = replay_compiled_with(&compiled, &mut mgr, &mut scratch)?;
            stats.manager = Arc::from("normalised");
            Ok(stats)
        });
        if let Ok(stats) = &result {
            let (bound, peak) = (lower_bound_peak(&facts, &cfg), stats.peak_footprint);
            assert!(
                bound <= peak,
                "{} bounds at {bound} B above its replayed peak {peak} B",
                name()
            );
            peaks[order] = Some(peak);
        }
        match classes.entry(ProjectedKey::of(&cfg, &projection)) {
            Entry::Vacant(slot) => {
                slot.insert(result.clone());
            }
            Entry::Occupied(class) => assert_eq!(
                class.get(),
                &result,
                "{} shares a projected key with an earlier config but replays differently",
                name()
            ),
        }
        if let Some(finding) = prune_reason(&cfg) {
            let sibling = canonical_sibling(&cfg, &finding.code);
            if let Some(want) = by_leaves.get(&leaves(&sibling)) {
                assert_eq!(
                    want,
                    &result,
                    "{} carries prune-safe {} but replays unlike its sibling {}",
                    name(),
                    finding.code,
                    sibling.summary()
                );
                findings += 1;
            }
        }
        by_leaves.insert(leaves(&cfg), result);
        replayed += 1;
    }
    assert_eq!(replayed, 39_840usize.div_ceil(space_stride()), "{what}");
    if space_stride() == 1 {
        assert!(
            classes.len() < replayed,
            "{what}: no two of the {replayed} configs share a projected key"
        );
        assert!(findings > 0, "{what}: no prune-safe finding was compared");
    }
    peaks
}

/// The sweep's pass over the whole space on each quick trace: bounds,
/// projection classes and prune-safe findings (release replays all 39,840
/// configs per trace, debug every 401st). The same replays check the
/// sweep's cuts: every candidate `checked_sweeps` decided lost on peak
/// without a full replay peaks above its cap, with projection on and off
/// (debug checks those the stride replayed).
#[test]
fn bounds_are_admissible_over_the_whole_space_on_the_quick_traces() {
    for w in quick_studies(0) {
        let trace = w.record().unwrap();
        let peaks = replay_space(w.name(), &trace, sweep_params());
        for projection in [false, true] {
            let what = format!("{} (projection {projection})", w.name());
            for &(order, cap) in &checked_sweeps()[&(w.name().to_string(), projection)] {
                if let Some(peak) = peaks[order] {
                    assert!(
                        peak > cap,
                        "{what}: space-point-{} was decided lost at a cap of {cap} B but \
                         peaks at {peak} B in a full replay",
                        order + 1
                    );
                }
            }
        }
    }
}

/// The same pass under the parameters the greedy methodology seeds: its
/// replays are keyed by `ProjectedKey` as the sweep's are, and its
/// profiled class lists differ from the sweep's. Each quick trace is
/// checked under the parameters `explore` seeds on it, and each phase of
/// the render trace under those `explore_phases` seeds on that phase.
#[test]
fn greedy_parameter_classes_replay_identically_over_the_whole_space() {
    let seeded = |trace: &Trace| Methodology::new().explore(trace).unwrap().config.params;
    let render = RenderWorkload::quick(0).record().unwrap();
    assert!(render.phases().len() > 1, "the render trace is phased");
    for w in quick_studies(0) {
        let trace = w.record().unwrap();
        let mut traces = vec![(w.name().to_string(), trace.clone())];
        if trace == render {
            for (phase, sub) in trace.split_phases() {
                traces.push((format!("{} phase {phase}", w.name()), sub));
            }
        }
        for (what, trace) in traces {
            let params = seeded(&trace);
            assert_ne!(
                params.profiled_classes,
                sweep_params().profiled_classes,
                "{what}"
            );
            replay_space(&what, &trace, params);
        }
    }
}
