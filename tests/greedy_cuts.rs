//! Differential test of the greedy traversal's capped replays.
//!
//! Under `Objective::Footprint` the methodology stops a candidate's replay
//! once its peak passes the lowest peak among its tree's completions, keeps
//! the floor it reached in the structural cache, and logs the candidate as
//! "peak > best". `Objective::Weighted { step_weight: 0.0 }` ranks every
//! candidate exactly as `Footprint` does (peak first, then steps) but
//! replays each one in full, so it is the reference: the capped run must
//! design the same configuration with the same footprint, choose the same
//! leaf at every tree and log the same exact scores, and every candidate it
//! logs as lost must peak above the chosen peak in the reference log.

use dmm::core::methodology::{
    CandidateScore, DecisionRecord, ExplorationEngine, ExplorationOutcome, Objective,
};
use dmm::prelude::*;

fn reference() -> Methodology {
    Methodology::new().with_objective(Objective::Weighted { step_weight: 0.0 })
}

fn assert_same_decisions(name: &str, capped: &[DecisionRecord], full: &[DecisionRecord]) {
    assert_eq!(capped.len(), full.len(), "{name}");
    for (c, f) in capped.iter().zip(full) {
        assert_eq!((c.tree, c.chosen), (f.tree, f.chosen), "{name}");
        let (best, _) = f
            .candidates
            .iter()
            .find(|e| e.leaf == f.chosen)
            .and_then(|e| e.exact())
            .expect("the reference scores its choice exactly");
        assert_eq!(c.candidates.len(), f.candidates.len(), "{name} {}", c.tree);
        for (ce, fe) in c.candidates.iter().zip(&f.candidates) {
            assert_eq!(ce.leaf, fe.leaf, "{name} {}", c.tree);
            let (peak, _) = fe.exact().expect("weighted scores are exact");
            match ce.score {
                CandidateScore::Exact { .. } => assert_eq!(ce, fe, "{name} {}", c.tree),
                CandidateScore::PeakAbove(bound) => {
                    assert_eq!(bound, best, "{name} {} {}", c.tree, ce.leaf);
                    assert!(
                        peak > best,
                        "{name} {} {}: logged as lost, but peaks at {peak} B against {best} B",
                        c.tree,
                        ce.leaf
                    );
                }
            }
        }
    }
}

fn assert_same_design(name: &str, capped: &ExplorationOutcome, full: &ExplorationOutcome) {
    assert_eq!(capped.config, full.config, "{name}");
    assert_eq!(capped.footprint, full.footprint, "{name}");
    assert_same_decisions(name, &capped.decisions, &full.decisions);
    assert_eq!(
        capped.counters.evaluations, full.counters.evaluations,
        "{name}"
    );
}

#[test]
fn capped_greedy_designs_match_full_replays_on_the_quick_traces() {
    let mut lost = 0usize;
    for workload in quick_studies(0) {
        let trace = workload.record().expect("record");
        let name = workload.name().to_string();
        let full = reference().explore(&trace).expect("explore");
        let full_phases = reference().explore_phases(&trace).expect("phases");
        for jobs in [1, 4] {
            let engine = ExplorationEngine::new(jobs);
            let capped = Methodology::new()
                .explore_with_engine(&trace, &engine)
                .expect("explore");
            let label = format!("{name} --jobs={jobs}");
            assert_same_design(&label, &capped, &full);
            assert!(engine.peak_cut() > 0, "{label}: no replay was cut");
            lost += capped
                .decisions
                .iter()
                .flat_map(|d| &d.candidates)
                .filter(|c| c.exact().is_none())
                .count();

            let phased = Methodology::new()
                .explore_phases_with_engine(&trace, &ExplorationEngine::new(jobs))
                .expect("phases");
            assert_eq!(phased.phase_configs, full_phases.phase_configs, "{label}");
            assert_eq!(phased.footprint, full_phases.footprint, "{label}");
            assert_eq!(phased.per_phase.len(), full_phases.per_phase.len());
            for ((phase, c), (_, f)) in phased.per_phase.iter().zip(&full_phases.per_phase) {
                assert_same_design(&format!("{label} phase {phase}"), c, f);
            }
        }
    }
    assert!(lost > 0, "no candidate was logged as lost");
}
