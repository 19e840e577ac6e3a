//! Bit-identity goldens for the manager simulation.
//!
//! These digests were captured from the replay of fixed, deterministic
//! traces through every preset manager **before** the boundary-tag tiling
//! refactor (the PR 4 `BTreeMap`-based `BlockMap` implementation). The
//! refactored manager must reproduce every number exactly — footprints,
//! peaks, *and* the charged search steps of the fit cost model — proving
//! the new block store is observationally identical, not merely similar.
//!
//! Regenerate (only when an intentional behaviour change is made) with:
//!
//! ```sh
//! cargo test --release --test golden_replay -- --ignored print_goldens --nocapture
//! ```

use dmm::core::trace::{replay_shards_config, shard_trace, CompiledTrace};
use dmm::prelude::*;

/// One digest line: every counter a manager's replay can influence.
#[derive(Debug, PartialEq, Eq)]
struct Digest {
    peak_footprint: usize,
    final_footprint: usize,
    peak_requested: usize,
    search_steps: u64,
    splits: u64,
    coalesces: u64,
    trims: u64,
    sbrk_calls: u64,
    failed_fits: u64,
    static_overhead: usize,
}

impl Digest {
    fn of(fs: &dmm::core::metrics::FootprintStats) -> Digest {
        Digest {
            peak_footprint: fs.peak_footprint,
            final_footprint: fs.final_footprint,
            peak_requested: fs.peak_requested,
            search_steps: fs.stats.search_steps,
            splits: fs.stats.splits,
            coalesces: fs.stats.coalesces,
            trims: fs.stats.trims,
            sbrk_calls: fs.stats.sbrk_calls,
            failed_fits: fs.stats.failed_fits,
            static_overhead: fs.stats.static_overhead,
        }
    }

    fn as_tuple(&self) -> String {
        format!(
            "({}, {}, {}, {}, {}, {}, {}, {}, {}, {})",
            self.peak_footprint,
            self.final_footprint,
            self.peak_requested,
            self.search_steps,
            self.splits,
            self.coalesces,
            self.trims,
            self.sbrk_calls,
            self.failed_fits,
            self.static_overhead
        )
    }

    #[allow(clippy::too_many_arguments)]
    fn from_tuple(t: GoldenTuple) -> Digest {
        Digest {
            peak_footprint: t.0,
            final_footprint: t.1,
            peak_requested: t.2,
            search_steps: t.3,
            splits: t.4,
            coalesces: t.5,
            trims: t.6,
            sbrk_calls: t.7,
            failed_fits: t.8,
            static_overhead: t.9,
        }
    }
}

/// Deterministic churn trace (xorshift; alloc-heavy with interleaved frees).
fn churn(seed: u64, ops: usize, max_size: usize) -> Trace {
    let mut b = Trace::builder();
    let mut live: Vec<u64> = Vec::new();
    let mut x: u64 = seed | 1;
    for _ in 0..ops {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        if live.is_empty() || !x.is_multiple_of(3) {
            live.push(b.alloc(1 + (x as usize % max_size)));
        } else {
            let idx = (x as usize / 5) % live.len();
            b.free(live.swap_remove(idx));
        }
    }
    for id in live {
        b.free(id);
    }
    b.finish().expect("valid")
}

/// Deterministic re-entrant phased trace (0,1,0,1… segments).
fn phased(seed: u64, segments: usize, ops_per_segment: usize) -> Trace {
    let mut b = Trace::builder();
    let mut x: u64 = seed | 1;
    let mut carried: Vec<u64> = Vec::new();
    for s in 0..segments {
        b.phase((s % 2) as u32);
        for id in carried.drain(..) {
            b.free(id);
        }
        let mut live: Vec<u64> = Vec::new();
        for _ in 0..ops_per_segment {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            if live.is_empty() || !x.is_multiple_of(3) {
                live.push(b.alloc(1 + (x as usize % 1800)));
            } else {
                let idx = (x as usize / 5) % live.len();
                b.free(live.swap_remove(idx));
            }
        }
        carried = live.split_off(live.len().saturating_sub(2));
        for id in live {
            b.free(id);
        }
    }
    for id in carried {
        b.free(id);
    }
    b.finish().expect("valid")
}

/// The fixed workloads the goldens cover, with stable labels.
fn workloads() -> Vec<(&'static str, Trace)> {
    vec![
        ("churn-a", churn(0x9E3779B97F4A7C15, 800, 2000)),
        ("churn-b", churn(0x2545F4914F6CDD1D, 500, 300)),
        ("phased", phased(0xA5A5A5A55A5A5A5A, 6, 120)),
        (
            "large_churn-quick",
            dmm::workloads::synthetic::large_churn(0, 4, 1500),
        ),
    ]
}

/// Replays computed per workload: every preset through the classic
/// interpreter, the compiled kernel, and the sharded composition, plus a
/// two-manager global composition on the phased trace.
fn compute() -> Vec<(String, Digest)> {
    let mut out = Vec::new();
    for (wname, trace) in workloads() {
        let compiled = CompiledTrace::compile(&trace);
        for cfg in presets::all() {
            let mut m = PolicyAllocator::new(cfg.clone()).expect("valid");
            let fs = replay(&trace, &mut m).expect("replay");
            out.push((format!("{wname}/classic/{}", cfg.name), Digest::of(&fs)));

            let mut m = PolicyAllocator::new(cfg.clone()).expect("valid");
            let fs = dmm::core::trace::replay_compiled(&compiled, &mut m).expect("replay");
            out.push((format!("{wname}/compiled/{}", cfg.name), Digest::of(&fs)));

            let shards = shard_trace(&trace, 3);
            let sharded = replay_shards_config(shards, &cfg).expect("sharded replay");
            out.push((format!("{wname}/sharded/{}", cfg.name), Digest::of(&sharded.stats)));
        }
        if trace.phases().len() > 1 {
            let mut g = GlobalManager::new(
                "golden-global",
                vec![presets::drr_paper(), presets::lea_like()],
            )
            .expect("valid");
            let fs = replay(&trace, &mut g).expect("replay");
            out.push((format!("{wname}/classic/global"), Digest::of(&fs)));
        }
    }
    out
}

/// Regenerator: prints the golden table in the exact format of `GOLDENS`.
#[test]
#[ignore = "run manually to regenerate the golden table"]
fn print_goldens() {
    for (label, d) in compute() {
        println!("    (\"{label}\", {}),", d.as_tuple());
    }
}

/// One golden record: (peak_footprint, final_footprint, peak_requested,
/// search_steps, splits, coalesces, trims, sbrk_calls, failed_fits,
/// static_overhead).
type GoldenTuple = (usize, usize, usize, u64, u64, u64, u64, u64, u64, usize);

/// The digests captured from the PR 4 implementation. Field order:
/// (peak_footprint, final_footprint, peak_requested, search_steps, splits,
/// coalesces, trims, sbrk_calls, failed_fits, static_overhead).
#[rustfmt::skip]
const GOLDENS: &[(&str, GoldenTuple)] = &[
    ("churn-a/classic/custom DM manager 1 (paper DRR)", (262772, 20, 253844, 49099, 282, 452, 2, 176, 176, 20)),
    ("churn-a/compiled/custom DM manager 1 (paper DRR)", (262772, 20, 253844, 49099, 282, 452, 2, 176, 176, 20)),
    ("churn-a/sharded/custom DM manager 1 (paper DRR)", (143260, 20, 139625, 22309, 214, 481, 6, 278, 278, 20)),
    ("churn-a/classic/Kingsley-like (space preset)", (364672, 364672, 253844, 4752, 0, 0, 0, 89, 89, 128)),
    ("churn-a/compiled/Kingsley-like (space preset)", (364672, 364672, 253844, 4752, 0, 0, 0, 89, 89, 128)),
    ("churn-a/sharded/Kingsley-like (space preset)", (209024, 209024, 139625, 5490, 0, 0, 0, 130, 130, 128)),
    ("churn-a/classic/Lea-like (space preset)", (265416, 265416, 253844, 28011, 241, 114, 0, 177, 177, 144)),
    ("churn-a/compiled/Lea-like (space preset)", (265416, 265416, 253844, 28011, 241, 114, 0, 177, 177, 144)),
    ("churn-a/sharded/Lea-like (space preset)", (143368, 143368, 139625, 14984, 196, 57, 0, 277, 277, 128)),
    ("churn-a/classic/neutral", (280660, 20, 253844, 28129, 326, 500, 2, 182, 182, 20)),
    ("churn-a/compiled/neutral", (280660, 20, 253844, 28129, 326, 500, 2, 182, 182, 20)),
    ("churn-a/sharded/neutral", (144860, 20, 139625, 14914, 231, 498, 6, 279, 279, 20)),
    ("churn-b/classic/custom DM manager 1 (paper DRR)", (23948, 1932, 21717, 11361, 110, 223, 2, 121, 121, 20)),
    ("churn-b/compiled/custom DM manager 1 (paper DRR)", (23948, 1932, 21717, 11361, 110, 223, 2, 121, 121, 20)),
    ("churn-b/sharded/custom DM manager 1 (paper DRR)", (13420, 20, 12408, 7567, 80, 272, 4, 201, 201, 20)),
    ("churn-b/classic/Kingsley-like (space preset)", (49248, 49248, 21717, 3216, 0, 0, 0, 12, 12, 96)),
    ("churn-b/compiled/Kingsley-like (space preset)", (49248, 49248, 21717, 3216, 0, 0, 0, 12, 12, 96)),
    ("churn-b/sharded/Kingsley-like (space preset)", (32864, 32864, 12408, 4178, 0, 0, 0, 23, 23, 96)),
    ("churn-b/classic/Lea-like (space preset)", (24856, 24856, 21717, 11331, 72, 26, 0, 122, 122, 96)),
    ("churn-b/compiled/Lea-like (space preset)", (24856, 24856, 21717, 11331, 72, 26, 0, 122, 122, 96)),
    ("churn-b/sharded/Lea-like (space preset)", (14112, 14112, 12408, 7143, 57, 19, 0, 202, 202, 96)),
    ("churn-b/classic/neutral", (25244, 460, 21717, 9812, 161, 275, 3, 123, 123, 20)),
    ("churn-b/compiled/neutral", (25244, 460, 21717, 9812, 161, 275, 3, 123, 123, 20)),
    ("churn-b/sharded/neutral", (13492, 3996, 12408, 6620, 108, 296, 3, 198, 198, 20)),
    ("phased/classic/custom DM manager 1 (paper DRR)", (51508, 20, 48257, 13582, 230, 440, 14, 238, 238, 20)),
    ("phased/compiled/custom DM manager 1 (paper DRR)", (51508, 20, 48257, 13582, 230, 440, 14, 238, 238, 20)),
    ("phased/sharded/custom DM manager 1 (paper DRR)", (51508, 20, 48257, 13490, 229, 439, 14, 239, 239, 20)),
    ("phased/classic/Kingsley-like (space preset)", (98432, 98432, 48257, 4470, 0, 0, 0, 24, 24, 128)),
    ("phased/compiled/Kingsley-like (space preset)", (98432, 98432, 48257, 4470, 0, 0, 0, 24, 24, 128)),
    ("phased/sharded/Kingsley-like (space preset)", (94336, 94336, 48257, 4718, 0, 0, 0, 43, 43, 128)),
    ("phased/classic/Lea-like (space preset)", (52560, 52560, 48257, 13332, 371, 349, 0, 47, 47, 208)),
    ("phased/compiled/Lea-like (space preset)", (52560, 52560, 48257, 13332, 371, 349, 0, 47, 47, 208)),
    ("phased/sharded/Lea-like (space preset)", (52552, 52552, 48257, 12642, 334, 305, 0, 89, 89, 208)),
    ("phased/classic/neutral", (52188, 20, 48257, 9426, 245, 459, 10, 239, 239, 20)),
    ("phased/compiled/neutral", (52188, 20, 48257, 9426, 245, 459, 10, 239, 239, 20)),
    ("phased/sharded/neutral", (52188, 20, 48257, 9426, 245, 459, 10, 239, 239, 20)),
    ("phased/classic/global", (92516, 52572, 48257, 13514, 294, 375, 7, 161, 161, 228)),
    ("large_churn-quick/classic/custom DM manager 1 (paper DRR)", (256868, 20, 238491, 362926, 2156, 2874, 9, 768, 768, 20)),
    ("large_churn-quick/compiled/custom DM manager 1 (paper DRR)", (256868, 20, 238491, 362926, 2156, 2874, 9, 768, 768, 20)),
    ("large_churn-quick/sharded/custom DM manager 1 (paper DRR)", (256868, 20, 238491, 362926, 2156, 2874, 9, 768, 768, 20)),
    ("large_churn-quick/classic/Kingsley-like (space preset)", (393344, 393344, 238491, 28430, 0, 0, 0, 96, 96, 128)),
    ("large_churn-quick/compiled/Kingsley-like (space preset)", (393344, 393344, 238491, 28430, 0, 0, 0, 96, 96, 128)),
    ("large_churn-quick/sharded/Kingsley-like (space preset)", (372864, 344192, 238491, 29072, 0, 0, 0, 264, 264, 128)),
    ("large_churn-quick/classic/Lea-like (space preset)", (260344, 260344, 238491, 214645, 2037, 1979, 0, 215, 215, 224)),
    ("large_churn-quick/compiled/Lea-like (space preset)", (260344, 260344, 238491, 214645, 2037, 1979, 0, 215, 215, 224)),
    ("large_churn-quick/sharded/Lea-like (space preset)", (257288, 230432, 238491, 211766, 1817, 1455, 0, 607, 607, 208)),
    ("large_churn-quick/classic/neutral", (276236, 20, 238491, 193760, 2615, 3358, 13, 804, 804, 20)),
    ("large_churn-quick/compiled/neutral", (276236, 20, 238491, 193760, 2615, 3358, 13, 804, 804, 20)),
    ("large_churn-quick/sharded/neutral", (276236, 20, 238491, 193760, 2615, 3358, 13, 804, 804, 20)),
];

/// The static analyser must wave every golden input through: presets lint
/// free of error-severity diagnostics and every golden trace passes the
/// sanitizer. This pins that the digests above are reproduced *with* the
/// lint pass wired into the record/replay paths, not by bypassing it.
#[test]
fn golden_inputs_lint_clean() {
    use dmm::core::analyze::{lint_config, lint_trace, Severity};
    for cfg in presets::all() {
        let errs: Vec<String> = lint_config(&cfg)
            .into_iter()
            .filter(|d| d.severity == Severity::Error)
            .map(|d| d.render())
            .collect();
        assert!(errs.is_empty(), "preset '{}' has errors: {errs:?}", cfg.name);
    }
    for (name, trace) in workloads() {
        let errs: Vec<String> = lint_trace(&trace)
            .into_iter()
            .filter(|d| d.severity == Severity::Error)
            .map(|d| d.render())
            .collect();
        assert!(errs.is_empty(), "golden trace {name} fails the sanitizer: {errs:?}");
    }
}

/// The admissible footprint floor holds against the golden digests
/// themselves: for every golden workload × preset, the bound the abstract
/// interpreter computes from trace facts alone never exceeds the
/// whole-trace peak the goldens pin (classic and compiled rows share it).
/// Sharded rows are excluded — a whole-trace floor is not a bound on a
/// shard's local peak.
#[test]
fn footprint_floor_is_admissible_against_the_goldens() {
    use dmm::core::analyze::{lower_bound_peak, TraceFacts};
    let mut checked = 0usize;
    for (wname, trace) in workloads() {
        let facts = TraceFacts::of(&trace);
        for cfg in presets::all() {
            let label = format!("{wname}/classic/{}", cfg.name);
            let (_, gtuple) = GOLDENS
                .iter()
                .find(|(l, _)| *l == label)
                .expect("every workload x preset has a classic golden");
            let golden_peak = gtuple.0;
            let bound = lower_bound_peak(&facts, &cfg);
            assert!(
                bound <= golden_peak,
                "{label}: floor {bound} above the golden peak {golden_peak}"
            );
            checked += 1;
        }
    }
    assert_eq!(checked, 16, "workload x preset coverage changed");
}

#[test]
fn replays_match_pr4_goldens() {
    assert!(!GOLDENS.is_empty(), "golden table must be populated");
    let computed = compute();
    assert_eq!(computed.len(), GOLDENS.len(), "golden coverage changed");
    for ((label, digest), (glabel, gtuple)) in computed.iter().zip(GOLDENS) {
        assert_eq!(label, glabel, "golden ordering changed");
        let expect = Digest::from_tuple(*gtuple);
        assert_eq!(
            digest, &expect,
            "{label}: replay diverged from the PR 4 implementation"
        );
    }
}
