//! Tour of the search space itself: the taxonomy (Figure 1), constraint
//! propagation (Figures 2–3), exhaustive enumeration, and the greedy
//! methodology vs. a bounded exhaustive search.
//!
//! Run with `cargo run --release --example explore_space`.

use dmm::core::space::config::PartialConfig;
use dmm::core::space::enumerate::SpaceIter;
use dmm::core::space::interdep;
use dmm::core::space::trees::{BlockTags, Leaf, TreeId};
use dmm::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The raw space vs. the rule-pruned space.
    let raw: usize = TreeId::ALL.iter().map(|t| t.leaves().len()).product();
    let valid = SpaceIter::new().count();
    println!("raw combinations:     {raw}");
    println!("coherent atomic mgrs: {valid} (after the hard interdependency rules)");

    // Figure 3 live: choose 'none' block tags and watch the cascade.
    let mut p = PartialConfig::default();
    p.set(Leaf::A3(BlockTags::None));
    println!("\nconstraint propagation from A3 = none:");
    for tree in [
        TreeId::A4RecordedInfo,
        TreeId::A5FlexibleSize,
        TreeId::D2CoalesceWhen,
        TreeId::E2SplitWhen,
    ] {
        let admissible = interdep::admissible_leaves(tree, &p);
        println!(
            "  {}: {}",
            tree.code(),
            admissible
                .iter()
                .map(|l| l.to_string())
                .collect::<Vec<_>>()
                .join(", ")
        );
        if admissible.len() == 1 {
            p.set(admissible[0]);
        }
    }

    // The general-purpose managers are points of this space.
    println!("\ngeneral-purpose managers recreated as space points:");
    for cfg in [presets::kingsley_like(), presets::lea_like()] {
        println!("  {}: {}", cfg.name, cfg.summary());
    }

    // Greedy ordered methodology vs. a bounded exhaustive sweep.
    let trace = dmm::workloads::synthetic::fragmenting(11, 400, 1500);
    let outcome = Methodology::new().explore(&trace)?;
    println!(
        "\ngreedy methodology: peak {} B after {} evaluations",
        outcome.footprint.peak_footprint, outcome.counters.evaluations
    );
    let (best_cfg, best_peak, evaluated) =
        exhaustive_best(&trace, outcome.config.params.clone(), Some(400))?;
    println!(
        "exhaustive prefix ({evaluated} configs): best peak {best_peak} B ({})",
        best_cfg.summary()
    );
    println!(
        "greedy/exhaustive-prefix gap: {:.1}%",
        (outcome.footprint.peak_footprint as f64 / best_peak as f64 - 1.0) * 100.0
    );
    Ok(())
}
