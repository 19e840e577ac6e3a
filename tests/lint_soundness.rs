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

use dmm::core::analyze::prune_reason;
use dmm::core::methodology::{exhaustive_best_with_engine, ExplorationEngine};
use dmm::core::units::MIN_BLOCK;
use dmm::prelude::*;
use dmm::workloads::{DrrWorkload, RenderWorkload};

fn leaf_key(cfg: &DmConfig) -> String {
    cfg.summary()
}

/// Returns `(enumerated, bound_skipped)` so callers can assert
/// workload-specific prune-rate floors.
fn check(name: &str, trace: &Trace, limit: Option<usize>) -> (usize, usize) {
    let engine = ExplorationEngine::serial();
    // The full space includes A2 = profiled classes, which demands a
    // non-empty class list — same provisioning the methodology performs
    // before its own sweep.
    let mut params = Params::footprint_optimised();
    params.profiled_classes = vec![MIN_BLOCK, 2 * MIN_BLOCK, 4 * MIN_BLOCK, 8 * MIN_BLOCK];
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
    // Debug replays are ~two orders of magnitude slower than release;
    // bound the walk there. The prefix still covers every A3/A4 sibling
    // group many times over (those trees enumerate innermost), so pruning
    // fires within the first dozen candidates.
    let limit = if cfg!(debug_assertions) {
        Some(600)
    } else {
        None
    };
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
