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

/// Every configuration of the sweep's space in `SpaceIter` order, with
/// the sweep's parameters (footprint-optimised, classes 16/32/64/128
/// bytes).
fn sweep_space() -> impl Iterator<Item = DmConfig> {
    use dmm::core::space::enumerate::SpaceIter;
    use dmm::core::space::order::TRAVERSAL_ORDER;
    use dmm::core::units::MIN_BLOCK;

    let mut params = Params::footprint_optimised();
    params.profiled_classes = vec![MIN_BLOCK, 2 * MIN_BLOCK, 4 * MIN_BLOCK, 8 * MIN_BLOCK];
    SpaceIter::with_order_and_params(TRAVERSAL_ORDER.to_vec(), params)
}

/// The address-ordered configurations `ADDR_GOLDENS` covers. No preset
/// uses A1 = address-ordered list, so `GOLDENS` never replays that index.
/// Selection rule: enumerate the space in `SpaceIter` order with the
/// sweep's parameters (footprint-optimised, classes 16/32/64/128 bytes)
/// and, for every C1 fit × A2 ∈ {profiled classes, many} × D2 ∈
/// {always (immediate), deferred}, take the *first* configuration with
/// A1 = address-ordered list — 20 configurations, in that loop order.
fn address_ordered_configs() -> Vec<DmConfig> {
    use dmm::core::space::trees::{BlockSizes, BlockStructure, CoalesceWhen, FitAlgorithm};

    let mut first = std::collections::HashMap::new();
    for cfg in sweep_space() {
        if cfg.block_structure == BlockStructure::AddressOrderedList {
            first
                .entry((cfg.fit, cfg.block_sizes, cfg.coalesce_when))
                .or_insert(cfg);
        }
    }
    let mut picked = Vec::new();
    for fit in FitAlgorithm::ALL {
        for sizes in [BlockSizes::ProfiledClasses, BlockSizes::Many] {
            for when in [CoalesceWhen::Always, CoalesceWhen::Deferred] {
                let cfg = first.remove(&(fit, sizes, when)).unwrap_or_else(|| {
                    panic!("no address-ordered config for {fit}/{sizes}/{when}")
                });
                picked.push(cfg);
            }
        }
    }
    picked
}

/// The fixed-class configurations `CLASS_GOLDENS` covers: the managers
/// that carve and grow runs of class blocks and merge them back. Outside
/// `ADDR_GOLDENS`, `GOLDENS` reaches fixed classes only through the
/// Kingsley-like preset, which never coalesces. Selection rule: enumerate
/// the space in `SpaceIter` order with the sweep's parameters and A2 =
/// profiled classes and, for every A1 × C1 × D2 ∈ {always (immediate),
/// deferred} × B1 ∈ {single pool, pool per size class}, take the *first*
/// configuration — 80 configurations, in that loop order.
fn class_configs() -> Vec<DmConfig> {
    use dmm::core::space::trees::{
        BlockSizes, BlockStructure, CoalesceWhen, FitAlgorithm, PoolDivision,
    };

    let mut first = std::collections::HashMap::new();
    for cfg in sweep_space() {
        if cfg.block_sizes == BlockSizes::ProfiledClasses {
            first
                .entry((
                    cfg.block_structure,
                    cfg.fit,
                    cfg.coalesce_when,
                    cfg.pool_division,
                ))
                .or_insert(cfg);
        }
    }
    let mut picked = Vec::new();
    for structure in BlockStructure::ALL {
        for fit in FitAlgorithm::ALL {
            for when in [CoalesceWhen::Always, CoalesceWhen::Deferred] {
                for division in [PoolDivision::SinglePool, PoolDivision::PoolPerSizeClass] {
                    let cfg = first
                        .remove(&(structure, fit, when, division))
                        .unwrap_or_else(|| {
                            panic!(
                                "no profiled-class config for {structure}/{fit}/{when}/{division}"
                            )
                        });
                    picked.push(cfg);
                }
            }
        }
    }
    picked
}

/// Compiled-kernel replays of `configs` on the golden workload `wname`,
/// labelled by the leaves the selection rule varies.
fn compute_configs(
    wname: &str,
    configs: &[DmConfig],
    label: fn(&DmConfig) -> String,
) -> Vec<(String, Digest)> {
    let (_, trace) = workloads()
        .into_iter()
        .find(|(w, _)| *w == wname)
        .expect("a golden workload");
    let compiled = CompiledTrace::compile(&trace);
    configs
        .iter()
        .map(|cfg| {
            let mut m = PolicyAllocator::new(cfg.clone()).expect("valid");
            let fs = dmm::core::trace::replay_compiled(&compiled, &mut m).expect("replay");
            (format!("{wname}/{}", label(cfg)), Digest::of(&fs))
        })
        .collect()
}

/// Compiled-kernel replays of [`address_ordered_configs`] on every golden
/// workload.
fn compute_address_ordered() -> Vec<(String, Digest)> {
    let configs = address_ordered_configs();
    let label = |cfg: &DmConfig| {
        format!(
            "{}/{}/{}/{}",
            cfg.fit, cfg.block_sizes, cfg.coalesce_when, cfg.name
        )
    };
    workloads()
        .iter()
        .flat_map(|(wname, _)| compute_configs(wname, &configs, label))
        .collect()
}

/// Compiled-kernel replays of [`class_configs`] on one golden workload.
fn compute_class(wname: &str) -> Vec<(String, Digest)> {
    let label = |cfg: &DmConfig| {
        format!(
            "{}/{}/{}/{}/{}",
            cfg.block_structure, cfg.fit, cfg.coalesce_when, cfg.pool_division, cfg.name
        )
    };
    compute_configs(wname, &class_configs(), label)
}

/// Regenerator: prints the golden tables in the exact format of `GOLDENS`,
/// `ADDR_GOLDENS` and `CLASS_GOLDENS`.
#[test]
#[ignore = "run manually to regenerate the golden table"]
fn print_goldens() {
    for (label, d) in compute() {
        println!("    (\"{label}\", {}),", d.as_tuple());
    }
    println!();
    for (label, d) in compute_address_ordered() {
        println!("    (\"{label}\", {}),", d.as_tuple());
    }
    println!();
    for (wname, _) in workloads() {
        for (label, d) in compute_class(wname) {
            println!("    (\"{label}\", {}),", d.as_tuple());
        }
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

/// Compiled-kernel digests of [`address_ordered_configs`] on every golden
/// workload, captured from the `BTreeMap` + treap `AddrIndex` before the
/// flat chunked address index replaced it. Field order as in `GOLDENS`.
#[rustfmt::skip]
const ADDR_GOLDENS: &[(&str, GoldenTuple)] = &[
    ("churn-a/first fit/fixed: profiled classes/always/space-point-30253", (427720, 16, 253844, 17470, 0, 431, 8, 111, 111, 16)),
    ("churn-a/first fit/fixed: profiled classes/deferred (on allocation miss)/space-point-31213", (442384, 442384, 253844, 22284, 0, 332, 2, 110, 110, 16)),
    ("churn-a/first fit/many (not fixed)/always/space-point-3693", (330144, 16, 253844, 12505, 0, 263, 2, 268, 268, 16)),
    ("churn-a/first fit/many (not fixed)/deferred (on allocation miss)/space-point-4653", (324744, 324744, 253844, 20501, 0, 7, 0, 260, 260, 16)),
    ("churn-a/next fit/fixed: profiled classes/always/space-point-30277", (438016, 16, 253844, 32781, 0, 489, 9, 113, 113, 16)),
    ("churn-a/next fit/fixed: profiled classes/deferred (on allocation miss)/space-point-31237", (442384, 442384, 253844, 20707, 0, 249, 2, 110, 110, 16)),
    ("churn-a/next fit/many (not fixed)/always/space-point-3717", (334456, 16, 253844, 12606, 0, 262, 2, 266, 266, 16)),
    ("churn-a/next fit/many (not fixed)/deferred (on allocation miss)/space-point-4677", (323632, 323632, 253844, 19777, 0, 6, 0, 259, 259, 16)),
    ("churn-a/best fit/fixed: profiled classes/always/space-point-30301", (389056, 16, 253844, 26817, 0, 506, 9, 101, 101, 16)),
    ("churn-a/best fit/fixed: profiled classes/deferred (on allocation miss)/space-point-31261", (413712, 413712, 253844, 23671, 0, 344, 2, 103, 103, 16)),
    ("churn-a/best fit/many (not fixed)/always/space-point-3741", (318056, 16, 253844, 12947, 0, 257, 2, 261, 261, 16)),
    ("churn-a/best fit/many (not fixed)/deferred (on allocation miss)/space-point-4701", (315024, 315024, 253844, 20218, 0, 9, 0, 262, 262, 16)),
    ("churn-a/worst fit/fixed: profiled classes/always/space-point-30325", (474960, 16, 253844, 20137, 0, 430, 10, 121, 121, 16)),
    ("churn-a/worst fit/fixed: profiled classes/deferred (on allocation miss)/space-point-31285", (462864, 462864, 253844, 27139, 0, 477, 2, 115, 115, 16)),
    ("churn-a/worst fit/many (not fixed)/always/space-point-3765", (346888, 16, 253844, 13371, 0, 265, 2, 268, 268, 16)),
    ("churn-a/worst fit/many (not fixed)/deferred (on allocation miss)/space-point-4725", (344432, 344432, 253844, 22432, 0, 3, 0, 258, 258, 16)),
    ("churn-a/exact fit/fixed: profiled classes/always/space-point-30349", (1594080, 16, 253844, 1176917, 0, 3705, 11, 400, 400, 16)),
    ("churn-a/exact fit/fixed: profiled classes/deferred (on allocation miss)/space-point-31309", (2117648, 2117648, 253844, 240722, 0, 5268, 0, 517, 517, 16)),
    ("churn-a/exact fit/many (not fixed)/always/space-point-3789", (483016, 16, 253844, 38905, 0, 479, 1, 481, 481, 16)),
    ("churn-a/exact fit/many (not fixed)/deferred (on allocation miss)/space-point-4749", (481904, 481904, 253844, 62027, 0, 159, 0, 479, 479, 16)),
    ("churn-b/first fit/fixed: profiled classes/always/space-point-30253", (81112, 16, 21717, 20084, 0, 618, 8, 30, 30, 16)),
    ("churn-b/first fit/fixed: profiled classes/deferred (on allocation miss)/space-point-31213", (167952, 167952, 21717, 34814, 0, 1645, 0, 41, 41, 16)),
    ("churn-b/first fit/many (not fixed)/always/space-point-3693", (30464, 16, 21717, 6229, 0, 168, 1, 174, 174, 16)),
    ("churn-b/first fit/many (not fixed)/deferred (on allocation miss)/space-point-4653", (30040, 30040, 21717, 9925, 0, 5, 0, 167, 167, 16)),
    ("churn-b/next fit/fixed: profiled classes/always/space-point-30277", (98720, 16, 21717, 127778, 0, 1111, 4, 29, 29, 16)),
    ("churn-b/next fit/fixed: profiled classes/deferred (on allocation miss)/space-point-31237", (86032, 86032, 21717, 16587, 0, 551, 0, 21, 21, 16)),
    ("churn-b/next fit/many (not fixed)/always/space-point-3717", (30856, 3728, 21717, 6361, 0, 170, 1, 175, 175, 16)),
    ("churn-b/next fit/many (not fixed)/deferred (on allocation miss)/space-point-4677", (30264, 30264, 21717, 9846, 0, 7, 0, 168, 168, 16)),
    ("churn-b/best fit/fixed: profiled classes/always/space-point-30301", (78024, 16, 21717, 22898, 0, 633, 4, 22, 22, 16)),
    ("churn-b/best fit/fixed: profiled classes/deferred (on allocation miss)/space-point-31261", (65552, 65552, 21717, 17959, 0, 341, 0, 16, 16, 16)),
    ("churn-b/best fit/many (not fixed)/always/space-point-3741", (29072, 16, 21717, 6214, 0, 167, 1, 170, 170, 16)),
    ("churn-b/best fit/many (not fixed)/deferred (on allocation miss)/space-point-4701", (28728, 28728, 21717, 9458, 0, 5, 0, 166, 166, 16)),
    ("churn-b/worst fit/fixed: profiled classes/always/space-point-30325", (91104, 16, 21717, 51140, 0, 777, 4, 27, 27, 16)),
    ("churn-b/worst fit/fixed: profiled classes/deferred (on allocation miss)/space-point-31285", (106512, 106512, 21717, 16944, 0, 415, 0, 26, 26, 16)),
    ("churn-b/worst fit/many (not fixed)/always/space-point-3765", (31024, 16, 21717, 6905, 0, 168, 2, 173, 173, 16)),
    ("churn-b/worst fit/many (not fixed)/deferred (on allocation miss)/space-point-4725", (30848, 30848, 21717, 10667, 0, 8, 0, 171, 171, 16)),
    ("churn-b/exact fit/fixed: profiled classes/always/space-point-30349", (378312, 16, 21717, 1232490, 0, 4246, 11, 108, 108, 16)),
    ("churn-b/exact fit/fixed: profiled classes/deferred (on allocation miss)/space-point-31309", (1028112, 1028112, 21717, 243843, 0, 10270, 0, 251, 251, 16)),
    ("churn-b/exact fit/many (not fixed)/always/space-point-3789", (40920, 16, 21717, 13172, 0, 272, 1, 276, 276, 16)),
    ("churn-b/exact fit/many (not fixed)/deferred (on allocation miss)/space-point-4749", (39672, 39672, 21717, 20657, 0, 80, 0, 269, 269, 16)),
    ("phased/first fit/fixed: profiled classes/always/space-point-30253", (97520, 16, 48257, 17757, 0, 842, 33, 148, 148, 16)),
    ("phased/first fit/fixed: profiled classes/deferred (on allocation miss)/space-point-31213", (94224, 83680, 48257, 10979, 0, 118, 2, 24, 24, 16)),
    ("phased/first fit/many (not fixed)/always/space-point-3693", (58608, 16, 48257, 7141, 0, 304, 12, 322, 322, 16)),
    ("phased/first fit/many (not fixed)/deferred (on allocation miss)/space-point-4653", (178176, 178176, 48257, 9912, 0, 124, 0, 176, 176, 16)),
    ("phased/next fit/fixed: profiled classes/always/space-point-30277", (98320, 16, 48257, 16769, 0, 813, 32, 143, 143, 16)),
    ("phased/next fit/fixed: profiled classes/deferred (on allocation miss)/space-point-31237", (119800, 119800, 48257, 10034, 0, 111, 2, 32, 32, 16)),
    ("phased/next fit/many (not fixed)/always/space-point-3717", (59424, 16, 48257, 7180, 0, 301, 14, 320, 320, 16)),
    ("phased/next fit/many (not fixed)/deferred (on allocation miss)/space-point-4677", (133248, 133248, 48257, 9696, 0, 96, 1, 153, 153, 16)),
    ("phased/best fit/fixed: profiled classes/always/space-point-30301", (86032, 16, 48257, 17014, 0, 773, 32, 138, 138, 16)),
    ("phased/best fit/fixed: profiled classes/deferred (on allocation miss)/space-point-31261", (86032, 86032, 48257, 22871, 0, 99, 1, 22, 22, 16)),
    ("phased/best fit/many (not fixed)/always/space-point-3741", (58512, 16, 48257, 7290, 0, 294, 17, 317, 317, 16)),
    ("phased/best fit/many (not fixed)/deferred (on allocation miss)/space-point-4701", (122656, 122656, 48257, 15601, 0, 78, 1, 132, 132, 16)),
    ("phased/worst fit/fixed: profiled classes/always/space-point-30325", (118800, 16, 48257, 19660, 0, 849, 27, 162, 162, 16)),
    ("phased/worst fit/fixed: profiled classes/deferred (on allocation miss)/space-point-31285", (184336, 184336, 48257, 19253, 0, 179, 1, 46, 46, 16)),
    ("phased/worst fit/many (not fixed)/always/space-point-3765", (58768, 16, 48257, 7469, 0, 303, 13, 321, 321, 16)),
    ("phased/worst fit/many (not fixed)/deferred (on allocation miss)/space-point-4725", (169816, 169816, 48257, 14480, 0, 128, 1, 183, 183, 16)),
    ("phased/exact fit/fixed: profiled classes/always/space-point-30349", (303120, 16, 48257, 501172, 0, 4664, 34, 450, 450, 16)),
    ("phased/exact fit/fixed: profiled classes/deferred (on allocation miss)/space-point-31309", (1990672, 1990672, 48257, 109777, 0, 5029, 0, 486, 486, 16)),
    ("phased/exact fit/many (not fixed)/always/space-point-3789", (73816, 16, 48257, 12157, 0, 467, 10, 485, 485, 16)),
    ("phased/exact fit/many (not fixed)/deferred (on allocation miss)/space-point-4749", (417088, 417088, 48257, 17744, 0, 408, 0, 482, 482, 16)),
    ("large_churn-quick/first fit/fixed: profiled classes/always/space-point-30253", (482616, 16, 238491, 116156, 0, 2269, 49, 490, 490, 16)),
    ("large_churn-quick/first fit/fixed: profiled classes/deferred (on allocation miss)/space-point-31213", (495632, 495632, 238491, 95670, 0, 493, 1, 122, 122, 16)),
    ("large_churn-quick/first fit/many (not fixed)/always/space-point-3693", (349096, 16, 238491, 72482, 0, 1246, 9, 1278, 1278, 16)),
    ("large_churn-quick/first fit/many (not fixed)/deferred (on allocation miss)/space-point-4653", (396096, 384120, 238491, 112678, 0, 164, 2, 442, 442, 16)),
    ("large_churn-quick/next fit/fixed: profiled classes/always/space-point-30277", (471168, 16, 238491, 95016, 0, 2100, 37, 467, 467, 16)),
    ("large_churn-quick/next fit/fixed: profiled classes/deferred (on allocation miss)/space-point-31237", (495632, 495632, 238491, 93704, 0, 356, 0, 121, 121, 16)),
    ("large_churn-quick/next fit/many (not fixed)/always/space-point-3717", (346240, 16, 238491, 72174, 0, 1228, 14, 1263, 1263, 16)),
    ("large_churn-quick/next fit/many (not fixed)/deferred (on allocation miss)/space-point-4677", (398800, 398800, 238491, 104943, 0, 91, 1, 380, 380, 16)),
    ("large_churn-quick/best fit/fixed: profiled classes/always/space-point-30301", (443832, 16, 238491, 153885, 0, 2300, 41, 428, 428, 16)),
    ("large_churn-quick/best fit/fixed: profiled classes/deferred (on allocation miss)/space-point-31261", (426000, 426000, 238491, 418249, 0, 482, 0, 104, 104, 16)),
    ("large_churn-quick/best fit/many (not fixed)/always/space-point-3741", (329120, 16, 238491, 75169, 0, 1202, 14, 1232, 1232, 16)),
    ("large_churn-quick/best fit/many (not fixed)/deferred (on allocation miss)/space-point-4701", (301904, 301904, 238491, 369612, 0, 7, 0, 294, 294, 16)),
    ("large_churn-quick/worst fit/fixed: profiled classes/always/space-point-30325", (554096, 16, 238491, 159177, 0, 2523, 45, 544, 544, 16)),
    ("large_churn-quick/worst fit/fixed: profiled classes/deferred (on allocation miss)/space-point-31285", (790544, 790544, 238491, 423634, 0, 666, 2, 204, 204, 16)),
    ("large_churn-quick/worst fit/many (not fixed)/always/space-point-3765", (377136, 16, 238491, 82624, 0, 1273, 15, 1307, 1307, 16)),
    ("large_churn-quick/worst fit/many (not fixed)/deferred (on allocation miss)/space-point-4725", (915112, 915112, 238491, 256581, 0, 693, 3, 920, 920, 16)),
    ("large_churn-quick/exact fit/fixed: profiled classes/always/space-point-30349", (2497936, 16, 238491, 5768869, 0, 22538, 62, 2513, 2513, 16)),
    ("large_churn-quick/exact fit/fixed: profiled classes/deferred (on allocation miss)/space-point-31309", (14098448, 14098448, 238491, 1703240, 0, 33612, 0, 3442, 3442, 16)),
    ("large_churn-quick/exact fit/many (not fixed)/always/space-point-3789", (664584, 16, 238491, 303267, 0, 3135, 10, 3171, 3171, 16)),
    ("large_churn-quick/exact fit/many (not fixed)/deferred (on allocation miss)/space-point-4749", (2568648, 2568648, 238491, 557176, 0, 2831, 0, 3141, 3141, 16)),
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

#[test]
fn address_ordered_replays_match_goldens() {
    let computed = compute_address_ordered();
    assert_eq!(
        computed.len(),
        ADDR_GOLDENS.len(),
        "address-ordered coverage changed"
    );
    for ((label, digest), (glabel, gtuple)) in computed.iter().zip(ADDR_GOLDENS) {
        assert_eq!(
            label, glabel,
            "address-ordered selection or ordering changed"
        );
        assert_eq!(
            digest,
            &Digest::from_tuple(*gtuple),
            "{label}: address-ordered replay diverged from its golden"
        );
    }
}

/// Compiled-kernel digests of [`class_configs`] on every golden workload,
/// captured from the per-block class carving, growing and merging before
/// runs of class blocks became single tiling and index entries. Field
/// order as in `GOLDENS`.
#[rustfmt::skip]
const CLASS_GOLDENS: &[(&str, GoldenTuple)] = &[
    ("churn-a/singly linked list/first fit/always/single pool/space-point-30241", (474960, 16, 253844, 24034, 0, 507, 7, 121, 121, 16)),
    ("churn-a/singly linked list/first fit/always/one pool per size class/space-point-30361", (483440, 80, 253844, 238370, 0, 1464, 8, 124, 124, 80)),
    ("churn-a/singly linked list/first fit/deferred (on allocation miss)/single pool/space-point-31201", (458768, 458768, 253844, 56417, 0, 540, 2, 114, 114, 16)),
    ("churn-a/singly linked list/first fit/deferred (on allocation miss)/one pool per size class/space-point-31321", (479312, 479312, 253844, 150837, 0, 1777, 2, 119, 119, 80)),
    ("churn-a/singly linked list/next fit/always/single pool/space-point-30265", (438016, 16, 253844, 19112, 0, 456, 9, 114, 114, 16)),
    ("churn-a/singly linked list/next fit/always/one pool per size class/space-point-30385", (438304, 80, 253844, 216527, 0, 1466, 11, 115, 115, 80)),
    ("churn-a/singly linked list/next fit/deferred (on allocation miss)/single pool/space-point-31225", (446480, 446480, 253844, 66001, 0, 594, 2, 111, 111, 16)),
    ("churn-a/singly linked list/next fit/deferred (on allocation miss)/one pool per size class/space-point-31345", (454736, 454736, 253844, 154728, 0, 1896, 2, 113, 113, 80)),
    ("churn-a/singly linked list/best fit/always/single pool/space-point-30289", (385976, 16, 253844, 27624, 0, 462, 9, 102, 102, 16)),
    ("churn-a/singly linked list/best fit/always/one pool per size class/space-point-30409", (402424, 80, 253844, 213824, 0, 1382, 10, 106, 106, 80)),
    ("churn-a/singly linked list/best fit/deferred (on allocation miss)/single pool/space-point-31249", (430096, 430096, 253844, 65725, 0, 552, 2, 107, 107, 16)),
    ("churn-a/singly linked list/best fit/deferred (on allocation miss)/one pool per size class/space-point-31369", (442448, 442448, 253844, 151926, 0, 1797, 2, 110, 110, 80)),
    ("churn-a/singly linked list/worst fit/always/single pool/space-point-30313", (474960, 16, 253844, 19189, 0, 426, 7, 121, 121, 16)),
    ("churn-a/singly linked list/worst fit/always/one pool per size class/space-point-30433", (495728, 80, 253844, 276390, 0, 1476, 8, 127, 127, 80)),
    ("churn-a/singly linked list/worst fit/deferred (on allocation miss)/single pool/space-point-31273", (466960, 466960, 253844, 21570, 0, 217, 2, 116, 116, 16)),
    ("churn-a/singly linked list/worst fit/deferred (on allocation miss)/one pool per size class/space-point-31393", (491600, 491600, 253844, 164474, 0, 1940, 2, 122, 122, 80)),
    ("churn-a/singly linked list/exact fit/always/single pool/space-point-30337", (1565232, 16, 253844, 2127211, 0, 3583, 11, 394, 394, 16)),
    ("churn-a/singly linked list/exact fit/always/one pool per size class/space-point-30457", (1565296, 80, 253844, 1479378, 0, 3583, 11, 394, 394, 80)),
    ("churn-a/singly linked list/exact fit/deferred (on allocation miss)/single pool/space-point-31297", (2117648, 2117648, 253844, 493752, 0, 5268, 0, 517, 517, 16)),
    ("churn-a/singly linked list/exact fit/deferred (on allocation miss)/one pool per size class/space-point-31417", (2117712, 2117712, 253844, 408670, 0, 5268, 0, 517, 517, 80)),
    ("churn-a/doubly linked list/first fit/always/single pool/space-point-30247", (474964, 20, 253844, 17701, 0, 507, 7, 121, 121, 20)),
    ("churn-a/doubly linked list/first fit/always/one pool per size class/space-point-30367", (483460, 100, 253844, 189457, 0, 1464, 8, 124, 124, 100)),
    ("churn-a/doubly linked list/first fit/deferred (on allocation miss)/single pool/space-point-31207", (458772, 458772, 253844, 18750, 0, 540, 2, 114, 114, 20)),
    ("churn-a/doubly linked list/first fit/deferred (on allocation miss)/one pool per size class/space-point-31327", (479332, 479332, 253844, 23043, 0, 1777, 2, 119, 119, 100)),
    ("churn-a/doubly linked list/next fit/always/single pool/space-point-30271", (438020, 20, 253844, 14164, 0, 456, 9, 114, 114, 20)),
    ("churn-a/doubly linked list/next fit/always/one pool per size class/space-point-30391", (438324, 100, 253844, 166971, 0, 1466, 11, 115, 115, 100)),
    ("churn-a/doubly linked list/next fit/deferred (on allocation miss)/single pool/space-point-31231", (446484, 446484, 253844, 20736, 0, 594, 2, 111, 111, 20)),
    ("churn-a/doubly linked list/next fit/deferred (on allocation miss)/one pool per size class/space-point-31351", (454756, 454756, 253844, 22470, 0, 1896, 2, 113, 113, 100)),
    ("churn-a/doubly linked list/best fit/always/single pool/space-point-30295", (385980, 20, 253844, 21628, 0, 462, 9, 102, 102, 20)),
    ("churn-a/doubly linked list/best fit/always/one pool per size class/space-point-30415", (402444, 100, 253844, 156048, 0, 1382, 10, 106, 106, 100)),
    ("churn-a/doubly linked list/best fit/deferred (on allocation miss)/single pool/space-point-31255", (430100, 430100, 253844, 21176, 0, 552, 2, 107, 107, 20)),
    ("churn-a/doubly linked list/best fit/deferred (on allocation miss)/one pool per size class/space-point-31375", (442468, 442468, 253844, 23072, 0, 1797, 2, 110, 110, 100)),
    ("churn-a/doubly linked list/worst fit/always/single pool/space-point-30319", (474964, 20, 253844, 14300, 0, 426, 7, 121, 121, 20)),
    ("churn-a/doubly linked list/worst fit/always/one pool per size class/space-point-30439", (495748, 100, 253844, 228839, 0, 1476, 8, 127, 127, 100)),
    ("churn-a/doubly linked list/worst fit/deferred (on allocation miss)/single pool/space-point-31279", (466964, 466964, 253844, 19395, 0, 217, 2, 116, 116, 20)),
    ("churn-a/doubly linked list/worst fit/deferred (on allocation miss)/one pool per size class/space-point-31399", (491620, 491620, 253844, 26302, 0, 1940, 2, 122, 122, 100)),
    ("churn-a/doubly linked list/exact fit/always/single pool/space-point-30343", (1565236, 20, 253844, 1159061, 0, 3583, 11, 394, 394, 20)),
    ("churn-a/doubly linked list/exact fit/always/one pool per size class/space-point-30463", (1565316, 100, 253844, 1063793, 0, 3583, 11, 394, 394, 100)),
    ("churn-a/doubly linked list/exact fit/deferred (on allocation miss)/single pool/space-point-31303", (2117652, 2117652, 253844, 162497, 0, 5268, 0, 517, 517, 20)),
    ("churn-a/doubly linked list/exact fit/deferred (on allocation miss)/one pool per size class/space-point-31423", (2117732, 2117732, 253844, 147943, 0, 5268, 0, 517, 517, 100)),
    ("churn-a/address-ordered list/first fit/always/single pool/space-point-30253", (427720, 16, 253844, 17470, 0, 431, 8, 111, 111, 16)),
    ("churn-a/address-ordered list/first fit/always/one pool per size class/space-point-30373", (467952, 80, 253844, 226253, 0, 1801, 11, 120, 120, 80)),
    ("churn-a/address-ordered list/first fit/deferred (on allocation miss)/single pool/space-point-31213", (442384, 442384, 253844, 22284, 0, 332, 2, 110, 110, 16)),
    ("churn-a/address-ordered list/first fit/deferred (on allocation miss)/one pool per size class/space-point-31333", (458832, 458832, 253844, 42799, 0, 1838, 2, 114, 114, 80)),
    ("churn-a/address-ordered list/next fit/always/single pool/space-point-30277", (438016, 16, 253844, 32781, 0, 489, 9, 113, 113, 16)),
    ("churn-a/address-ordered list/next fit/always/one pool per size class/space-point-30397", (455664, 80, 253844, 222403, 0, 1734, 8, 117, 117, 80)),
    ("churn-a/address-ordered list/next fit/deferred (on allocation miss)/single pool/space-point-31237", (442384, 442384, 253844, 20707, 0, 249, 2, 110, 110, 16)),
    ("churn-a/address-ordered list/next fit/deferred (on allocation miss)/one pool per size class/space-point-31357", (454736, 454736, 253844, 43908, 0, 1925, 2, 113, 113, 80)),
    ("churn-a/address-ordered list/best fit/always/single pool/space-point-30301", (389056, 16, 253844, 26817, 0, 506, 9, 101, 101, 16)),
    ("churn-a/address-ordered list/best fit/always/one pool per size class/space-point-30421", (404528, 80, 253844, 127183, 0, 1413, 11, 106, 106, 80)),
    ("churn-a/address-ordered list/best fit/deferred (on allocation miss)/single pool/space-point-31261", (413712, 413712, 253844, 23671, 0, 344, 2, 103, 103, 16)),
    ("churn-a/address-ordered list/best fit/deferred (on allocation miss)/one pool per size class/space-point-31381", (454736, 454736, 253844, 42788, 0, 1877, 2, 113, 113, 80)),
    ("churn-a/address-ordered list/worst fit/always/single pool/space-point-30325", (474960, 16, 253844, 20137, 0, 430, 10, 121, 121, 16)),
    ("churn-a/address-ordered list/worst fit/always/one pool per size class/space-point-30445", (499824, 80, 253844, 386133, 0, 1790, 8, 128, 128, 80)),
    ("churn-a/address-ordered list/worst fit/deferred (on allocation miss)/single pool/space-point-31285", (462864, 462864, 253844, 27139, 0, 477, 2, 115, 115, 16)),
    ("churn-a/address-ordered list/worst fit/deferred (on allocation miss)/one pool per size class/space-point-31405", (491600, 491600, 253844, 48692, 0, 2059, 2, 122, 122, 80)),
    ("churn-a/address-ordered list/exact fit/always/single pool/space-point-30349", (1594080, 16, 253844, 1176917, 0, 3705, 11, 400, 400, 16)),
    ("churn-a/address-ordered list/exact fit/always/one pool per size class/space-point-30469", (1594144, 80, 253844, 1079140, 0, 3705, 11, 400, 400, 80)),
    ("churn-a/address-ordered list/exact fit/deferred (on allocation miss)/single pool/space-point-31309", (2117648, 2117648, 253844, 240722, 0, 5268, 0, 517, 517, 16)),
    ("churn-a/address-ordered list/exact fit/deferred (on allocation miss)/one pool per size class/space-point-31429", (2117712, 2117712, 253844, 214631, 0, 5268, 0, 517, 517, 80)),
    ("churn-a/size-ordered tree/first fit/always/single pool/space-point-30259", (389056, 16, 253844, 23362, 0, 506, 9, 101, 101, 16)),
    ("churn-a/size-ordered tree/first fit/always/one pool per size class/space-point-30379", (404528, 80, 253844, 123873, 0, 1413, 11, 106, 106, 80)),
    ("churn-a/size-ordered tree/first fit/deferred (on allocation miss)/single pool/space-point-31219", (413712, 413712, 253844, 21948, 0, 344, 2, 103, 103, 16)),
    ("churn-a/size-ordered tree/first fit/deferred (on allocation miss)/one pool per size class/space-point-31339", (454736, 454736, 253844, 42027, 0, 1877, 2, 113, 113, 80)),
    ("churn-a/size-ordered tree/next fit/always/single pool/space-point-30283", (389056, 16, 253844, 23362, 0, 506, 9, 101, 101, 16)),
    ("churn-a/size-ordered tree/next fit/always/one pool per size class/space-point-30403", (404528, 80, 253844, 123873, 0, 1413, 11, 106, 106, 80)),
    ("churn-a/size-ordered tree/next fit/deferred (on allocation miss)/single pool/space-point-31243", (413712, 413712, 253844, 21948, 0, 344, 2, 103, 103, 16)),
    ("churn-a/size-ordered tree/next fit/deferred (on allocation miss)/one pool per size class/space-point-31363", (454736, 454736, 253844, 42027, 0, 1877, 2, 113, 113, 80)),
    ("churn-a/size-ordered tree/best fit/always/single pool/space-point-30307", (389056, 16, 253844, 23362, 0, 506, 9, 101, 101, 16)),
    ("churn-a/size-ordered tree/best fit/always/one pool per size class/space-point-30427", (404528, 80, 253844, 123873, 0, 1413, 11, 106, 106, 80)),
    ("churn-a/size-ordered tree/best fit/deferred (on allocation miss)/single pool/space-point-31267", (413712, 413712, 253844, 21948, 0, 344, 2, 103, 103, 16)),
    ("churn-a/size-ordered tree/best fit/deferred (on allocation miss)/one pool per size class/space-point-31387", (454736, 454736, 253844, 42027, 0, 1877, 2, 113, 113, 80)),
    ("churn-a/size-ordered tree/worst fit/always/single pool/space-point-30331", (474960, 16, 253844, 16376, 0, 426, 7, 121, 121, 16)),
    ("churn-a/size-ordered tree/worst fit/always/one pool per size class/space-point-30451", (495728, 80, 253844, 238153, 0, 1476, 8, 127, 127, 80)),
    ("churn-a/size-ordered tree/worst fit/deferred (on allocation miss)/single pool/space-point-31291", (466960, 466960, 253844, 22062, 0, 217, 2, 116, 116, 16)),
    ("churn-a/size-ordered tree/worst fit/deferred (on allocation miss)/one pool per size class/space-point-31411", (491600, 491600, 253844, 46299, 0, 1940, 2, 122, 122, 80)),
    ("churn-a/size-ordered tree/exact fit/always/single pool/space-point-30355", (1594080, 16, 253844, 950620, 0, 3705, 11, 400, 400, 16)),
    ("churn-a/size-ordered tree/exact fit/always/one pool per size class/space-point-30475", (1594144, 80, 253844, 940718, 0, 3705, 11, 400, 400, 80)),
    ("churn-a/size-ordered tree/exact fit/deferred (on allocation miss)/single pool/space-point-31315", (2117648, 2117648, 253844, 144907, 0, 5268, 0, 517, 517, 16)),
    ("churn-a/size-ordered tree/exact fit/deferred (on allocation miss)/one pool per size class/space-point-31435", (2117712, 2117712, 253844, 133206, 0, 5268, 0, 517, 517, 80)),
    ("churn-b/singly linked list/first fit/always/single pool/space-point-30241", (90168, 16, 21717, 23993, 0, 572, 5, 27, 27, 16)),
    ("churn-b/singly linked list/first fit/always/one pool per size class/space-point-30361", (151784, 80, 21717, 285875, 0, 2549, 8, 46, 46, 80)),
    ("churn-b/singly linked list/first fit/deferred (on allocation miss)/single pool/space-point-31201", (151568, 151568, 21717, 68054, 0, 1036, 0, 37, 37, 16)),
    ("churn-b/singly linked list/first fit/deferred (on allocation miss)/one pool per size class/space-point-31321", (237648, 237648, 21717, 356031, 0, 4165, 0, 58, 58, 80)),
    ("churn-b/singly linked list/next fit/always/single pool/space-point-30265", (86072, 16, 21717, 23249, 0, 586, 4, 25, 25, 16)),
    ("churn-b/singly linked list/next fit/always/one pool per size class/space-point-30385", (147624, 80, 21717, 349657, 0, 2734, 9, 43, 43, 80)),
    ("churn-b/singly linked list/next fit/deferred (on allocation miss)/single pool/space-point-31225", (102416, 102416, 21717, 44459, 0, 680, 0, 25, 25, 16)),
    ("churn-b/singly linked list/next fit/deferred (on allocation miss)/one pool per size class/space-point-31345", (192592, 192592, 21717, 313524, 0, 3646, 0, 47, 47, 80)),
    ("churn-b/singly linked list/best fit/always/single pool/space-point-30289", (82120, 16, 21717, 48458, 0, 698, 3, 23, 23, 16)),
    ("churn-b/singly linked list/best fit/always/one pool per size class/space-point-30409", (127064, 80, 21717, 306063, 0, 2588, 8, 40, 40, 80)),
    ("churn-b/singly linked list/best fit/deferred (on allocation miss)/single pool/space-point-31249", (65552, 65552, 21717, 24791, 0, 339, 0, 16, 16, 16)),
    ("churn-b/singly linked list/best fit/deferred (on allocation miss)/one pool per size class/space-point-31369", (217168, 217168, 21717, 319237, 0, 3840, 0, 53, 53, 80)),
    ("churn-b/singly linked list/worst fit/always/single pool/space-point-30313", (90032, 16, 21717, 29318, 0, 570, 7, 27, 27, 16)),
    ("churn-b/singly linked list/worst fit/always/one pool per size class/space-point-30433", (151720, 80, 21717, 274840, 0, 2484, 7, 44, 44, 80)),
    ("churn-b/singly linked list/worst fit/deferred (on allocation miss)/single pool/space-point-31273", (135184, 135184, 21717, 64204, 0, 806, 0, 33, 33, 16)),
    ("churn-b/singly linked list/worst fit/deferred (on allocation miss)/one pool per size class/space-point-31393", (254032, 254032, 21717, 371550, 0, 4418, 0, 62, 62, 80)),
    ("churn-b/singly linked list/exact fit/always/single pool/space-point-30337", (373584, 16, 21717, 1162093, 0, 3867, 11, 104, 104, 16)),
    ("churn-b/singly linked list/exact fit/always/one pool per size class/space-point-30457", (373648, 80, 21717, 762282, 0, 3867, 11, 104, 104, 80)),
    ("churn-b/singly linked list/exact fit/deferred (on allocation miss)/single pool/space-point-31297", (1040400, 1040400, 21717, 1278777, 0, 10311, 0, 254, 254, 16)),
    ("churn-b/singly linked list/exact fit/deferred (on allocation miss)/one pool per size class/space-point-31417", (1040464, 1040464, 21717, 650471, 0, 10311, 0, 254, 254, 80)),
    ("churn-b/doubly linked list/first fit/always/single pool/space-point-30247", (90172, 20, 21717, 11696, 0, 572, 5, 27, 27, 20)),
    ("churn-b/doubly linked list/first fit/always/one pool per size class/space-point-30367", (151804, 100, 21717, 129034, 0, 2549, 8, 46, 46, 100)),
    ("churn-b/doubly linked list/first fit/deferred (on allocation miss)/single pool/space-point-31207", (151572, 151572, 21717, 10975, 0, 1036, 0, 37, 37, 20)),
    ("churn-b/doubly linked list/first fit/deferred (on allocation miss)/one pool per size class/space-point-31327", (237668, 237668, 21717, 19075, 0, 4165, 0, 58, 58, 100)),
    ("churn-b/doubly linked list/next fit/always/single pool/space-point-30271", (86076, 20, 21717, 11582, 0, 586, 4, 25, 25, 20)),
    ("churn-b/doubly linked list/next fit/always/one pool per size class/space-point-30391", (147644, 100, 21717, 217818, 0, 2734, 9, 43, 43, 100)),
    ("churn-b/doubly linked list/next fit/deferred (on allocation miss)/single pool/space-point-31231", (102420, 102420, 21717, 10565, 0, 680, 0, 25, 25, 20)),
    ("churn-b/doubly linked list/next fit/deferred (on allocation miss)/one pool per size class/space-point-31351", (192612, 192612, 21717, 17192, 0, 3646, 0, 47, 47, 100)),
    ("churn-b/doubly linked list/best fit/always/single pool/space-point-30295", (82124, 20, 21717, 31854, 0, 698, 3, 23, 23, 20)),
    ("churn-b/doubly linked list/best fit/always/one pool per size class/space-point-30415", (127084, 100, 21717, 147979, 0, 2588, 8, 40, 40, 100)),
    ("churn-b/doubly linked list/best fit/deferred (on allocation miss)/single pool/space-point-31255", (65556, 65556, 21717, 12208, 0, 339, 0, 16, 16, 20)),
    ("churn-b/doubly linked list/best fit/deferred (on allocation miss)/one pool per size class/space-point-31375", (217188, 217188, 21717, 19596, 0, 3840, 0, 53, 53, 100)),
    ("churn-b/doubly linked list/worst fit/always/single pool/space-point-30319", (90036, 20, 21717, 17719, 0, 570, 7, 27, 27, 20)),
    ("churn-b/doubly linked list/worst fit/always/one pool per size class/space-point-30439", (151740, 100, 21717, 117492, 0, 2484, 7, 44, 44, 100)),
    ("churn-b/doubly linked list/worst fit/deferred (on allocation miss)/single pool/space-point-31279", (135188, 135188, 21717, 15351, 0, 806, 0, 33, 33, 20)),
    ("churn-b/doubly linked list/worst fit/deferred (on allocation miss)/one pool per size class/space-point-31399", (254052, 254052, 21717, 24793, 0, 4418, 0, 62, 62, 100)),
    ("churn-b/doubly linked list/exact fit/always/single pool/space-point-30343", (373588, 20, 21717, 523953, 0, 3867, 11, 104, 104, 20)),
    ("churn-b/doubly linked list/exact fit/always/one pool per size class/space-point-30463", (373668, 100, 21717, 470223, 0, 3867, 11, 104, 104, 100)),
    ("churn-b/doubly linked list/exact fit/deferred (on allocation miss)/single pool/space-point-31303", (1040404, 1040404, 21717, 99076, 0, 10311, 0, 254, 254, 20)),
    ("churn-b/doubly linked list/exact fit/deferred (on allocation miss)/one pool per size class/space-point-31423", (1040484, 1040484, 21717, 66705, 0, 10311, 0, 254, 254, 100)),
    ("churn-b/address-ordered list/first fit/always/single pool/space-point-30253", (81112, 16, 21717, 20084, 0, 618, 8, 30, 30, 16)),
    ("churn-b/address-ordered list/first fit/always/one pool per size class/space-point-30373", (131928, 80, 21717, 288954, 0, 2148, 9, 42, 42, 80)),
    ("churn-b/address-ordered list/first fit/deferred (on allocation miss)/single pool/space-point-31213", (167952, 167952, 21717, 34814, 0, 1645, 0, 41, 41, 16)),
    ("churn-b/address-ordered list/first fit/deferred (on allocation miss)/one pool per size class/space-point-31333", (245840, 245840, 21717, 63942, 0, 4172, 0, 60, 60, 80)),
    ("churn-b/address-ordered list/next fit/always/single pool/space-point-30277", (98720, 16, 21717, 127778, 0, 1111, 4, 29, 29, 16)),
    ("churn-b/address-ordered list/next fit/always/one pool per size class/space-point-30397", (116184, 80, 21717, 328839, 0, 2482, 7, 36, 36, 80)),
    ("churn-b/address-ordered list/next fit/deferred (on allocation miss)/single pool/space-point-31237", (86032, 86032, 21717, 16587, 0, 551, 0, 21, 21, 16)),
    ("churn-b/address-ordered list/next fit/deferred (on allocation miss)/one pool per size class/space-point-31357", (188496, 188496, 21717, 51270, 0, 3302, 0, 46, 46, 80)),
    ("churn-b/address-ordered list/best fit/always/single pool/space-point-30301", (78024, 16, 21717, 22898, 0, 633, 4, 22, 22, 16)),
    ("churn-b/address-ordered list/best fit/always/one pool per size class/space-point-30421", (113128, 80, 21717, 386234, 0, 2549, 10, 37, 37, 80)),
    ("churn-b/address-ordered list/best fit/deferred (on allocation miss)/single pool/space-point-31261", (65552, 65552, 21717, 17959, 0, 341, 0, 16, 16, 16)),
    ("churn-b/address-ordered list/best fit/deferred (on allocation miss)/one pool per size class/space-point-31381", (213072, 213072, 21717, 60850, 0, 3842, 0, 52, 52, 80)),
    ("churn-b/address-ordered list/worst fit/always/single pool/space-point-30325", (91104, 16, 21717, 51140, 0, 777, 4, 27, 27, 16)),
    ("churn-b/address-ordered list/worst fit/always/one pool per size class/space-point-30445", (123672, 80, 21717, 265638, 0, 2043, 8, 38, 38, 80)),
    ("churn-b/address-ordered list/worst fit/deferred (on allocation miss)/single pool/space-point-31285", (106512, 106512, 21717, 16944, 0, 415, 0, 26, 26, 16)),
    ("churn-b/address-ordered list/worst fit/deferred (on allocation miss)/one pool per size class/space-point-31405", (241744, 241744, 21717, 67735, 0, 4125, 0, 59, 59, 80)),
    ("churn-b/address-ordered list/exact fit/always/single pool/space-point-30349", (378312, 16, 21717, 1232490, 0, 4246, 11, 108, 108, 16)),
    ("churn-b/address-ordered list/exact fit/always/one pool per size class/space-point-30469", (378376, 80, 21717, 1144524, 0, 4246, 11, 108, 108, 80)),
    ("churn-b/address-ordered list/exact fit/deferred (on allocation miss)/single pool/space-point-31309", (1028112, 1028112, 21717, 243843, 0, 10270, 0, 251, 251, 16)),
    ("churn-b/address-ordered list/exact fit/deferred (on allocation miss)/one pool per size class/space-point-31429", (1028176, 1028176, 21717, 174914, 0, 10270, 0, 251, 251, 80)),
    ("churn-b/size-ordered tree/first fit/always/single pool/space-point-30259", (78024, 16, 21717, 17410, 0, 633, 4, 22, 22, 16)),
    ("churn-b/size-ordered tree/first fit/always/one pool per size class/space-point-30379", (113128, 80, 21717, 385015, 0, 2549, 10, 37, 37, 80)),
    ("churn-b/size-ordered tree/first fit/deferred (on allocation miss)/single pool/space-point-31219", (65552, 65552, 21717, 11944, 0, 341, 0, 16, 16, 16)),
    ("churn-b/size-ordered tree/first fit/deferred (on allocation miss)/one pool per size class/space-point-31339", (213072, 213072, 21717, 59761, 0, 3842, 0, 52, 52, 80)),
    ("churn-b/size-ordered tree/next fit/always/single pool/space-point-30283", (78024, 16, 21717, 17410, 0, 633, 4, 22, 22, 16)),
    ("churn-b/size-ordered tree/next fit/always/one pool per size class/space-point-30403", (113128, 80, 21717, 385015, 0, 2549, 10, 37, 37, 80)),
    ("churn-b/size-ordered tree/next fit/deferred (on allocation miss)/single pool/space-point-31243", (65552, 65552, 21717, 11944, 0, 341, 0, 16, 16, 16)),
    ("churn-b/size-ordered tree/next fit/deferred (on allocation miss)/one pool per size class/space-point-31363", (213072, 213072, 21717, 59761, 0, 3842, 0, 52, 52, 80)),
    ("churn-b/size-ordered tree/best fit/always/single pool/space-point-30307", (78024, 16, 21717, 17410, 0, 633, 4, 22, 22, 16)),
    ("churn-b/size-ordered tree/best fit/always/one pool per size class/space-point-30427", (113128, 80, 21717, 385015, 0, 2549, 10, 37, 37, 80)),
    ("churn-b/size-ordered tree/best fit/deferred (on allocation miss)/single pool/space-point-31267", (65552, 65552, 21717, 11944, 0, 341, 0, 16, 16, 16)),
    ("churn-b/size-ordered tree/best fit/deferred (on allocation miss)/one pool per size class/space-point-31387", (213072, 213072, 21717, 59761, 0, 3842, 0, 52, 52, 80)),
    ("churn-b/size-ordered tree/worst fit/always/single pool/space-point-30331", (94272, 16, 21717, 20659, 0, 595, 4, 27, 27, 16)),
    ("churn-b/size-ordered tree/worst fit/always/one pool per size class/space-point-30451", (143528, 80, 21717, 183455, 0, 2563, 6, 42, 42, 80)),
    ("churn-b/size-ordered tree/worst fit/deferred (on allocation miss)/single pool/space-point-31291", (126992, 126992, 21717, 20010, 0, 846, 0, 31, 31, 16)),
    ("churn-b/size-ordered tree/worst fit/deferred (on allocation miss)/one pool per size class/space-point-31411", (213072, 213072, 21717, 58559, 0, 3788, 0, 52, 52, 80)),
    ("churn-b/size-ordered tree/exact fit/always/single pool/space-point-30355", (378312, 16, 21717, 1139998, 0, 4246, 11, 108, 108, 16)),
    ("churn-b/size-ordered tree/exact fit/always/one pool per size class/space-point-30475", (378376, 80, 21717, 1120971, 0, 4246, 11, 108, 108, 80)),
    ("churn-b/size-ordered tree/exact fit/deferred (on allocation miss)/single pool/space-point-31315", (1028112, 1028112, 21717, 193373, 0, 10270, 0, 251, 251, 16)),
    ("churn-b/size-ordered tree/exact fit/deferred (on allocation miss)/one pool per size class/space-point-31435", (1028176, 1028176, 21717, 158313, 0, 10270, 0, 251, 251, 80)),
    ("phased/singly linked list/first fit/always/single pool/space-point-30241", (114704, 16, 48257, 16008, 0, 806, 30, 156, 156, 16)),
    ("phased/singly linked list/first fit/always/one pool per size class/space-point-30361", (125968, 80, 48257, 197785, 0, 2411, 34, 171, 171, 80)),
    ("phased/singly linked list/first fit/deferred (on allocation miss)/single pool/space-point-31201", (114704, 114704, 48257, 7942, 0, 106, 1, 29, 29, 16)),
    ("phased/singly linked list/first fit/deferred (on allocation miss)/one pool per size class/space-point-31321", (319568, 319568, 48257, 98834, 0, 1491, 2, 80, 80, 80)),
    ("phased/singly linked list/next fit/always/single pool/space-point-30265", (102416, 16, 48257, 22779, 0, 963, 33, 151, 151, 16)),
    ("phased/singly linked list/next fit/always/one pool per size class/space-point-30385", (121872, 80, 48257, 191635, 0, 2372, 38, 162, 162, 80)),
    ("phased/singly linked list/next fit/deferred (on allocation miss)/single pool/space-point-31225", (122896, 122896, 48257, 12174, 0, 147, 1, 31, 31, 16)),
    ("phased/singly linked list/next fit/deferred (on allocation miss)/one pool per size class/space-point-31345", (163920, 163920, 48257, 58901, 0, 829, 2, 42, 42, 80)),
    ("phased/singly linked list/best fit/always/single pool/space-point-30289", (90128, 16, 48257, 17840, 0, 744, 30, 133, 133, 16)),
    ("phased/singly linked list/best fit/always/one pool per size class/space-point-30409", (109472, 80, 48257, 190622, 0, 2331, 37, 158, 158, 80)),
    ("phased/singly linked list/best fit/deferred (on allocation miss)/single pool/space-point-31249", (90128, 90128, 48257, 24786, 0, 97, 1, 23, 23, 16)),
    ("phased/singly linked list/best fit/deferred (on allocation miss)/one pool per size class/space-point-31369", (310336, 310336, 48257, 106240, 0, 1548, 3, 79, 79, 80)),
    ("phased/singly linked list/worst fit/always/single pool/space-point-30313", (110608, 16, 48257, 17852, 0, 820, 26, 158, 158, 16)),
    ("phased/singly linked list/worst fit/always/one pool per size class/space-point-30433", (133360, 80, 48257, 229323, 0, 2441, 33, 177, 177, 80)),
    ("phased/singly linked list/worst fit/deferred (on allocation miss)/single pool/space-point-31273", (229392, 229392, 48257, 20899, 0, 248, 1, 57, 57, 16)),
    ("phased/singly linked list/worst fit/deferred (on allocation miss)/one pool per size class/space-point-31393", (311376, 311376, 48257, 71988, 0, 1184, 2, 78, 78, 80)),
    ("phased/singly linked list/exact fit/always/single pool/space-point-30337", (304528, 16, 48257, 906168, 0, 4704, 35, 452, 452, 16)),
    ("phased/singly linked list/exact fit/always/one pool per size class/space-point-30457", (304592, 80, 48257, 560423, 0, 4704, 35, 452, 452, 80)),
    ("phased/singly linked list/exact fit/deferred (on allocation miss)/single pool/space-point-31297", (1990672, 1990672, 48257, 322333, 0, 5029, 0, 486, 486, 16)),
    ("phased/singly linked list/exact fit/deferred (on allocation miss)/one pool per size class/space-point-31417", (1990736, 1990736, 48257, 226913, 0, 5029, 0, 486, 486, 80)),
    ("phased/doubly linked list/first fit/always/single pool/space-point-30247", (114708, 20, 48257, 10875, 0, 806, 30, 156, 156, 20)),
    ("phased/doubly linked list/first fit/always/one pool per size class/space-point-30367", (125988, 100, 48257, 156746, 0, 2411, 34, 171, 171, 100)),
    ("phased/doubly linked list/first fit/deferred (on allocation miss)/single pool/space-point-31207", (114708, 114708, 48257, 5915, 0, 106, 1, 29, 29, 20)),
    ("phased/doubly linked list/first fit/deferred (on allocation miss)/one pool per size class/space-point-31327", (319588, 319588, 48257, 10770, 0, 1491, 2, 80, 80, 100)),
    ("phased/doubly linked list/next fit/always/single pool/space-point-30271", (102420, 20, 48257, 15718, 0, 963, 33, 151, 151, 20)),
    ("phased/doubly linked list/next fit/always/one pool per size class/space-point-30391", (121892, 100, 48257, 150973, 0, 2372, 38, 162, 162, 100)),
    ("phased/doubly linked list/next fit/deferred (on allocation miss)/single pool/space-point-31231", (122900, 122900, 48257, 6168, 0, 147, 1, 31, 31, 20)),
    ("phased/doubly linked list/next fit/deferred (on allocation miss)/one pool per size class/space-point-31351", (163940, 163940, 48257, 8007, 0, 829, 2, 42, 42, 100)),
    ("phased/doubly linked list/best fit/always/single pool/space-point-30295", (90132, 20, 48257, 12254, 0, 744, 30, 133, 133, 20)),
    ("phased/doubly linked list/best fit/always/one pool per size class/space-point-30415", (109492, 100, 48257, 150158, 0, 2331, 37, 158, 158, 100)),
    ("phased/doubly linked list/best fit/deferred (on allocation miss)/single pool/space-point-31255", (90132, 90132, 48257, 18514, 0, 97, 1, 23, 23, 20)),
    ("phased/doubly linked list/best fit/deferred (on allocation miss)/one pool per size class/space-point-31375", (310356, 310356, 48257, 15509, 0, 1548, 3, 79, 79, 100)),
    ("phased/doubly linked list/worst fit/always/single pool/space-point-30319", (110612, 20, 48257, 12472, 0, 820, 26, 158, 158, 20)),
    ("phased/doubly linked list/worst fit/always/one pool per size class/space-point-30439", (133380, 100, 48257, 188279, 0, 2441, 33, 177, 177, 100)),
    ("phased/doubly linked list/worst fit/deferred (on allocation miss)/single pool/space-point-31279", (229396, 229396, 48257, 15771, 0, 248, 1, 57, 57, 20)),
    ("phased/doubly linked list/worst fit/deferred (on allocation miss)/one pool per size class/space-point-31399", (311396, 311396, 48257, 15698, 0, 1184, 2, 78, 78, 100)),
    ("phased/doubly linked list/exact fit/always/single pool/space-point-30343", (304532, 20, 48257, 416121, 0, 4704, 35, 452, 452, 20)),
    ("phased/doubly linked list/exact fit/always/one pool per size class/space-point-30463", (304612, 100, 48257, 379497, 0, 4704, 35, 452, 452, 100)),
    ("phased/doubly linked list/exact fit/deferred (on allocation miss)/single pool/space-point-31303", (1990676, 1990676, 48257, 56060, 0, 5029, 0, 486, 486, 20)),
    ("phased/doubly linked list/exact fit/deferred (on allocation miss)/one pool per size class/space-point-31423", (1990756, 1990756, 48257, 47315, 0, 5029, 0, 486, 486, 100)),
    ("phased/address-ordered list/first fit/always/single pool/space-point-30253", (97520, 16, 48257, 17757, 0, 842, 33, 148, 148, 16)),
    ("phased/address-ordered list/first fit/always/one pool per size class/space-point-30373", (112880, 80, 48257, 190110, 0, 2391, 36, 165, 165, 80)),
    ("phased/address-ordered list/first fit/deferred (on allocation miss)/single pool/space-point-31213", (94224, 83680, 48257, 10979, 0, 118, 2, 24, 24, 16)),
    ("phased/address-ordered list/first fit/deferred (on allocation miss)/one pool per size class/space-point-31333", (368720, 368720, 48257, 27191, 0, 1633, 2, 92, 92, 80)),
    ("phased/address-ordered list/next fit/always/single pool/space-point-30277", (98320, 16, 48257, 16769, 0, 813, 32, 143, 143, 16)),
    ("phased/address-ordered list/next fit/always/one pool per size class/space-point-30397", (113680, 80, 48257, 173568, 0, 2248, 33, 155, 155, 80)),
    ("phased/address-ordered list/next fit/deferred (on allocation miss)/single pool/space-point-31237", (119800, 119800, 48257, 10034, 0, 111, 2, 32, 32, 16)),
    ("phased/address-ordered list/next fit/deferred (on allocation miss)/one pool per size class/space-point-31357", (188496, 188496, 48257, 20160, 0, 967, 2, 48, 48, 80)),
    ("phased/address-ordered list/best fit/always/single pool/space-point-30301", (86032, 16, 48257, 17014, 0, 773, 32, 138, 138, 16)),
    ("phased/address-ordered list/best fit/always/one pool per size class/space-point-30421", (105488, 80, 48257, 184192, 0, 2238, 38, 147, 147, 80)),
    ("phased/address-ordered list/best fit/deferred (on allocation miss)/single pool/space-point-31261", (86032, 86032, 48257, 22871, 0, 99, 1, 22, 22, 16)),
    ("phased/address-ordered list/best fit/deferred (on allocation miss)/one pool per size class/space-point-31381", (302144, 302144, 48257, 31782, 0, 1567, 3, 77, 77, 80)),
    ("phased/address-ordered list/worst fit/always/single pool/space-point-30325", (118800, 16, 48257, 19660, 0, 849, 27, 162, 162, 16)),
    ("phased/address-ordered list/worst fit/always/one pool per size class/space-point-30445", (125168, 80, 48257, 207259, 0, 2349, 33, 173, 173, 80)),
    ("phased/address-ordered list/worst fit/deferred (on allocation miss)/single pool/space-point-31285", (184336, 184336, 48257, 19253, 0, 179, 1, 46, 46, 16)),
    ("phased/address-ordered list/worst fit/deferred (on allocation miss)/one pool per size class/space-point-31405", (311376, 311376, 48257, 27236, 0, 1150, 2, 78, 78, 80)),
    ("phased/address-ordered list/exact fit/always/single pool/space-point-30349", (303120, 16, 48257, 501172, 0, 4664, 34, 450, 450, 16)),
    ("phased/address-ordered list/exact fit/always/one pool per size class/space-point-30469", (303184, 80, 48257, 453766, 0, 4664, 34, 450, 450, 80)),
    ("phased/address-ordered list/exact fit/deferred (on allocation miss)/single pool/space-point-31309", (1990672, 1990672, 48257, 109777, 0, 5029, 0, 486, 486, 16)),
    ("phased/address-ordered list/exact fit/deferred (on allocation miss)/one pool per size class/space-point-31429", (1990736, 1990736, 48257, 94551, 0, 5029, 0, 486, 486, 80)),
    ("phased/size-ordered tree/first fit/always/single pool/space-point-30259", (86032, 16, 48257, 15050, 0, 773, 32, 138, 138, 16)),
    ("phased/size-ordered tree/first fit/always/one pool per size class/space-point-30379", (105488, 80, 48257, 182456, 0, 2238, 38, 147, 147, 80)),
    ("phased/size-ordered tree/first fit/deferred (on allocation miss)/single pool/space-point-31219", (86032, 86032, 48257, 11412, 0, 99, 1, 22, 22, 16)),
    ("phased/size-ordered tree/first fit/deferred (on allocation miss)/one pool per size class/space-point-31339", (302144, 302144, 48257, 27637, 0, 1567, 3, 77, 77, 80)),
    ("phased/size-ordered tree/next fit/always/single pool/space-point-30283", (86032, 16, 48257, 15050, 0, 773, 32, 138, 138, 16)),
    ("phased/size-ordered tree/next fit/always/one pool per size class/space-point-30403", (105488, 80, 48257, 182456, 0, 2238, 38, 147, 147, 80)),
    ("phased/size-ordered tree/next fit/deferred (on allocation miss)/single pool/space-point-31243", (86032, 86032, 48257, 11412, 0, 99, 1, 22, 22, 16)),
    ("phased/size-ordered tree/next fit/deferred (on allocation miss)/one pool per size class/space-point-31363", (302144, 302144, 48257, 27637, 0, 1567, 3, 77, 77, 80)),
    ("phased/size-ordered tree/best fit/always/single pool/space-point-30307", (86032, 16, 48257, 15050, 0, 773, 32, 138, 138, 16)),
    ("phased/size-ordered tree/best fit/always/one pool per size class/space-point-30427", (105488, 80, 48257, 182456, 0, 2238, 38, 147, 147, 80)),
    ("phased/size-ordered tree/best fit/deferred (on allocation miss)/single pool/space-point-31267", (86032, 86032, 48257, 11412, 0, 99, 1, 22, 22, 16)),
    ("phased/size-ordered tree/best fit/deferred (on allocation miss)/one pool per size class/space-point-31387", (302144, 302144, 48257, 27637, 0, 1567, 3, 77, 77, 80)),
    ("phased/size-ordered tree/worst fit/always/single pool/space-point-30331", (110608, 16, 48257, 15385, 0, 820, 26, 158, 158, 16)),
    ("phased/size-ordered tree/worst fit/always/one pool per size class/space-point-30451", (133360, 80, 48257, 205686, 0, 2441, 33, 177, 177, 80)),
    ("phased/size-ordered tree/worst fit/deferred (on allocation miss)/single pool/space-point-31291", (229392, 229392, 48257, 12450, 0, 248, 1, 57, 57, 16)),
    ("phased/size-ordered tree/worst fit/deferred (on allocation miss)/one pool per size class/space-point-31411", (315472, 315472, 48257, 22890, 0, 1214, 2, 79, 79, 80)),
    ("phased/size-ordered tree/exact fit/always/single pool/space-point-30355", (303120, 16, 48257, 432937, 0, 4664, 34, 450, 450, 16)),
    ("phased/size-ordered tree/exact fit/always/one pool per size class/space-point-30475", (303184, 80, 48257, 421971, 0, 4664, 34, 450, 450, 80)),
    ("phased/size-ordered tree/exact fit/deferred (on allocation miss)/single pool/space-point-31315", (1990672, 1990672, 48257, 83267, 0, 5029, 0, 486, 486, 16)),
    ("phased/size-ordered tree/exact fit/deferred (on allocation miss)/one pool per size class/space-point-31435", (1990736, 1990736, 48257, 76508, 0, 5029, 0, 486, 486, 80)),
    ("large_churn-quick/singly linked list/first fit/always/single pool/space-point-30241", (537952, 16, 238491, 106292, 0, 2332, 38, 526, 526, 16)),
    ("large_churn-quick/singly linked list/first fit/always/one pool per size class/space-point-30361", (562720, 80, 238491, 484905, 0, 6457, 43, 559, 559, 80)),
    ("large_churn-quick/singly linked list/first fit/deferred (on allocation miss)/single pool/space-point-31201", (491536, 491536, 238491, 57543, 0, 279, 0, 120, 120, 16)),
    ("large_churn-quick/singly linked list/first fit/deferred (on allocation miss)/one pool per size class/space-point-31321", (700496, 700496, 238491, 150108, 0, 2405, 0, 171, 171, 80)),
    ("large_churn-quick/singly linked list/next fit/always/single pool/space-point-30265", (496424, 16, 238491, 102430, 0, 2187, 38, 480, 480, 16)),
    ("large_churn-quick/singly linked list/next fit/always/one pool per size class/space-point-30385", (524184, 80, 238491, 486666, 0, 6490, 45, 516, 516, 80)),
    ("large_churn-quick/singly linked list/next fit/deferred (on allocation miss)/single pool/space-point-31225", (499728, 499728, 238491, 195982, 0, 462, 0, 122, 122, 16)),
    ("large_churn-quick/singly linked list/next fit/deferred (on allocation miss)/one pool per size class/space-point-31345", (671824, 671824, 238491, 222995, 0, 1821, 1, 165, 165, 80)),
    ("large_churn-quick/singly linked list/best fit/always/single pool/space-point-30289", (437032, 16, 238491, 145449, 0, 2174, 43, 435, 435, 16)),
    ("large_churn-quick/singly linked list/best fit/always/one pool per size class/space-point-30409", (458784, 80, 238491, 495668, 0, 6385, 48, 466, 466, 80)),
    ("large_churn-quick/singly linked list/best fit/deferred (on allocation miss)/single pool/space-point-31249", (438288, 438288, 238491, 456135, 0, 436, 0, 107, 107, 16)),
    ("large_churn-quick/singly linked list/best fit/deferred (on allocation miss)/one pool per size class/space-point-31369", (512080, 512080, 238491, 472632, 0, 1820, 1, 126, 126, 80)),
    ("large_churn-quick/singly linked list/worst fit/always/single pool/space-point-30313", (559248, 16, 238491, 156603, 0, 2519, 36, 552, 552, 16)),
    ("large_churn-quick/singly linked list/worst fit/always/one pool per size class/space-point-30433", (575864, 80, 238491, 479347, 0, 6343, 46, 571, 571, 80)),
    ("large_churn-quick/singly linked list/worst fit/deferred (on allocation miss)/single pool/space-point-31273", (737296, 729104, 238491, 484977, 0, 613, 1, 181, 181, 16)),
    ("large_churn-quick/singly linked list/worst fit/deferred (on allocation miss)/one pool per size class/space-point-31393", (1093712, 1093712, 238491, 474034, 0, 3451, 1, 268, 268, 80)),
    ("large_churn-quick/singly linked list/exact fit/always/single pool/space-point-30337", (2489320, 16, 238491, 9087934, 0, 22434, 63, 2520, 2520, 16)),
    ("large_churn-quick/singly linked list/exact fit/always/one pool per size class/space-point-30457", (2489384, 80, 238491, 7328431, 0, 22434, 63, 2520, 2520, 80)),
    ("large_churn-quick/singly linked list/exact fit/deferred (on allocation miss)/single pool/space-point-31297", (14082064, 14082064, 238491, 2667800, 0, 33598, 0, 3438, 3438, 16)),
    ("large_churn-quick/singly linked list/exact fit/deferred (on allocation miss)/one pool per size class/space-point-31417", (14082128, 14082128, 238491, 2389815, 0, 33598, 0, 3438, 3438, 80)),
    ("large_churn-quick/doubly linked list/first fit/always/single pool/space-point-30247", (537956, 20, 238491, 72109, 0, 2332, 38, 526, 526, 20)),
    ("large_churn-quick/doubly linked list/first fit/always/one pool per size class/space-point-30367", (562740, 100, 238491, 370287, 0, 6457, 43, 559, 559, 100)),
    ("large_churn-quick/doubly linked list/first fit/deferred (on allocation miss)/single pool/space-point-31207", (491540, 491540, 238491, 53309, 0, 279, 0, 120, 120, 20)),
    ("large_churn-quick/doubly linked list/first fit/deferred (on allocation miss)/one pool per size class/space-point-31327", (700516, 700516, 238491, 66351, 0, 2405, 0, 171, 171, 100)),
    ("large_churn-quick/doubly linked list/next fit/always/single pool/space-point-30271", (496428, 20, 238491, 73480, 0, 2187, 38, 480, 480, 20)),
    ("large_churn-quick/doubly linked list/next fit/always/one pool per size class/space-point-30391", (524204, 100, 238491, 370800, 0, 6490, 45, 516, 516, 100)),
    ("large_churn-quick/doubly linked list/next fit/deferred (on allocation miss)/single pool/space-point-31231", (499732, 499732, 238491, 55758, 0, 462, 0, 122, 122, 20)),
    ("large_churn-quick/doubly linked list/next fit/deferred (on allocation miss)/one pool per size class/space-point-31351", (671844, 671844, 238491, 66053, 0, 1821, 1, 165, 165, 100)),
    ("large_churn-quick/doubly linked list/best fit/always/single pool/space-point-30295", (437036, 20, 238491, 109828, 0, 2174, 43, 435, 435, 20)),
    ("large_churn-quick/doubly linked list/best fit/always/one pool per size class/space-point-30415", (458804, 100, 238491, 354686, 0, 6385, 48, 466, 466, 100)),
    ("large_churn-quick/doubly linked list/best fit/deferred (on allocation miss)/single pool/space-point-31255", (438292, 438292, 238491, 365305, 0, 436, 0, 107, 107, 20)),
    ("large_churn-quick/doubly linked list/best fit/deferred (on allocation miss)/one pool per size class/space-point-31375", (512100, 512100, 238491, 346550, 0, 1820, 1, 126, 126, 100)),
    ("large_churn-quick/doubly linked list/worst fit/always/single pool/space-point-30319", (559252, 20, 238491, 119003, 0, 2519, 36, 552, 552, 20)),
    ("large_churn-quick/doubly linked list/worst fit/always/one pool per size class/space-point-30439", (575884, 100, 238491, 348117, 0, 6343, 46, 571, 571, 100)),
    ("large_churn-quick/doubly linked list/worst fit/deferred (on allocation miss)/single pool/space-point-31279", (737300, 729108, 238491, 415290, 0, 613, 1, 181, 181, 20)),
    ("large_churn-quick/doubly linked list/worst fit/deferred (on allocation miss)/one pool per size class/space-point-31399", (1093732, 1093732, 238491, 322394, 0, 3451, 1, 268, 268, 100)),
    ("large_churn-quick/doubly linked list/exact fit/always/single pool/space-point-30343", (2489324, 20, 238491, 5222885, 0, 22434, 63, 2520, 2520, 20)),
    ("large_churn-quick/doubly linked list/exact fit/always/one pool per size class/space-point-30463", (2489404, 100, 238491, 4914848, 0, 22434, 63, 2520, 2520, 100)),
    ("large_churn-quick/doubly linked list/exact fit/deferred (on allocation miss)/single pool/space-point-31303", (14082068, 14082068, 238491, 1217883, 0, 33598, 0, 3438, 3438, 20)),
    ("large_churn-quick/doubly linked list/exact fit/deferred (on allocation miss)/one pool per size class/space-point-31423", (14082148, 14082148, 238491, 1156764, 0, 33598, 0, 3438, 3438, 100)),
    ("large_churn-quick/address-ordered list/first fit/always/single pool/space-point-30253", (482616, 16, 238491, 116156, 0, 2269, 49, 490, 490, 16)),
    ("large_churn-quick/address-ordered list/first fit/always/one pool per size class/space-point-30373", (536872, 80, 238491, 382702, 0, 6515, 55, 532, 532, 80)),
    ("large_churn-quick/address-ordered list/first fit/deferred (on allocation miss)/single pool/space-point-31213", (495632, 495632, 238491, 95670, 0, 493, 1, 122, 122, 16)),
    ("large_churn-quick/address-ordered list/first fit/deferred (on allocation miss)/one pool per size class/space-point-31333", (880720, 880720, 238491, 123296, 0, 2534, 2, 217, 217, 80)),
    ("large_churn-quick/address-ordered list/next fit/always/single pool/space-point-30277", (471168, 16, 238491, 95016, 0, 2100, 37, 467, 467, 16)),
    ("large_churn-quick/address-ordered list/next fit/always/one pool per size class/space-point-30397", (516344, 80, 238491, 381019, 0, 6068, 40, 511, 511, 80)),
    ("large_churn-quick/address-ordered list/next fit/deferred (on allocation miss)/single pool/space-point-31237", (495632, 495632, 238491, 93704, 0, 356, 0, 121, 121, 16)),
    ("large_churn-quick/address-ordered list/next fit/deferred (on allocation miss)/one pool per size class/space-point-31357", (872528, 872528, 238491, 129526, 0, 3256, 1, 214, 214, 80)),
    ("large_churn-quick/address-ordered list/best fit/always/single pool/space-point-30301", (443832, 16, 238491, 153885, 0, 2300, 41, 428, 428, 16)),
    ("large_churn-quick/address-ordered list/best fit/always/one pool per size class/space-point-30421", (476784, 80, 238491, 427205, 0, 6865, 43, 476, 476, 80)),
    ("large_churn-quick/address-ordered list/best fit/deferred (on allocation miss)/single pool/space-point-31261", (426000, 426000, 238491, 418249, 0, 482, 0, 104, 104, 16)),
    ("large_churn-quick/address-ordered list/best fit/deferred (on allocation miss)/one pool per size class/space-point-31381", (774224, 774224, 238491, 339934, 0, 3397, 2, 191, 191, 80)),
    ("large_churn-quick/address-ordered list/worst fit/always/single pool/space-point-30325", (554096, 16, 238491, 159177, 0, 2523, 45, 544, 544, 16)),
    ("large_churn-quick/address-ordered list/worst fit/always/one pool per size class/space-point-30445", (576376, 80, 238491, 428424, 0, 6568, 47, 572, 572, 80)),
    ("large_churn-quick/address-ordered list/worst fit/deferred (on allocation miss)/single pool/space-point-31285", (790544, 790544, 238491, 423634, 0, 666, 2, 204, 204, 16)),
    ("large_churn-quick/address-ordered list/worst fit/deferred (on allocation miss)/one pool per size class/space-point-31405", (880720, 880720, 238491, 399211, 0, 2337, 1, 216, 216, 80)),
    ("large_churn-quick/address-ordered list/exact fit/always/single pool/space-point-30349", (2497936, 16, 238491, 5768869, 0, 22538, 62, 2513, 2513, 16)),
    ("large_churn-quick/address-ordered list/exact fit/always/one pool per size class/space-point-30469", (2498000, 80, 238491, 5375001, 0, 22538, 62, 2513, 2513, 80)),
    ("large_churn-quick/address-ordered list/exact fit/deferred (on allocation miss)/single pool/space-point-31309", (14098448, 14098448, 238491, 1703240, 0, 33612, 0, 3442, 3442, 16)),
    ("large_churn-quick/address-ordered list/exact fit/deferred (on allocation miss)/one pool per size class/space-point-31429", (14098512, 14098512, 238491, 1578606, 0, 33612, 0, 3442, 3442, 80)),
    ("large_churn-quick/size-ordered tree/first fit/always/single pool/space-point-30259", (443832, 16, 238491, 113231, 0, 2300, 41, 428, 428, 16)),
    ("large_churn-quick/size-ordered tree/first fit/always/one pool per size class/space-point-30379", (476784, 80, 238491, 408139, 0, 6865, 43, 476, 476, 80)),
    ("large_churn-quick/size-ordered tree/first fit/deferred (on allocation miss)/single pool/space-point-31219", (426000, 426000, 238491, 105400, 0, 482, 0, 104, 104, 16)),
    ("large_churn-quick/size-ordered tree/first fit/deferred (on allocation miss)/one pool per size class/space-point-31339", (774224, 774224, 238491, 138315, 0, 3397, 2, 191, 191, 80)),
    ("large_churn-quick/size-ordered tree/next fit/always/single pool/space-point-30283", (443832, 16, 238491, 113231, 0, 2300, 41, 428, 428, 16)),
    ("large_churn-quick/size-ordered tree/next fit/always/one pool per size class/space-point-30403", (476784, 80, 238491, 408139, 0, 6865, 43, 476, 476, 80)),
    ("large_churn-quick/size-ordered tree/next fit/deferred (on allocation miss)/single pool/space-point-31243", (426000, 426000, 238491, 105400, 0, 482, 0, 104, 104, 16)),
    ("large_churn-quick/size-ordered tree/next fit/deferred (on allocation miss)/one pool per size class/space-point-31363", (774224, 774224, 238491, 138315, 0, 3397, 2, 191, 191, 80)),
    ("large_churn-quick/size-ordered tree/best fit/always/single pool/space-point-30307", (443832, 16, 238491, 113231, 0, 2300, 41, 428, 428, 16)),
    ("large_churn-quick/size-ordered tree/best fit/always/one pool per size class/space-point-30427", (476784, 80, 238491, 408139, 0, 6865, 43, 476, 476, 80)),
    ("large_churn-quick/size-ordered tree/best fit/deferred (on allocation miss)/single pool/space-point-31267", (426000, 426000, 238491, 105400, 0, 482, 0, 104, 104, 16)),
    ("large_churn-quick/size-ordered tree/best fit/deferred (on allocation miss)/one pool per size class/space-point-31387", (774224, 774224, 238491, 138315, 0, 3397, 2, 191, 191, 80)),
    ("large_churn-quick/size-ordered tree/worst fit/always/single pool/space-point-30331", (567440, 16, 238491, 112813, 0, 2514, 36, 554, 554, 16)),
    ("large_churn-quick/size-ordered tree/worst fit/always/one pool per size class/space-point-30451", (576968, 80, 238491, 415302, 0, 6555, 44, 576, 576, 80)),
    ("large_churn-quick/size-ordered tree/worst fit/deferred (on allocation miss)/single pool/space-point-31291", (851008, 851008, 238491, 127574, 0, 853, 1, 210, 210, 16)),
    ("large_churn-quick/size-ordered tree/worst fit/deferred (on allocation miss)/one pool per size class/space-point-31411", (942160, 942160, 238491, 144780, 0, 2659, 1, 231, 231, 80)),
    ("large_churn-quick/size-ordered tree/exact fit/always/single pool/space-point-30355", (2497936, 16, 238491, 4572261, 0, 22538, 62, 2513, 2513, 16)),
    ("large_churn-quick/size-ordered tree/exact fit/always/one pool per size class/space-point-30475", (2498000, 80, 238491, 4521303, 0, 22538, 62, 2513, 2513, 80)),
    ("large_churn-quick/size-ordered tree/exact fit/deferred (on allocation miss)/single pool/space-point-31315", (14098448, 14098448, 238491, 1026045, 0, 33612, 0, 3442, 3442, 16)),
    ("large_churn-quick/size-ordered tree/exact fit/deferred (on allocation miss)/one pool per size class/space-point-31435", (14098512, 14098512, 238491, 962962, 0, 33612, 0, 3442, 3442, 80)),
];

/// Check one golden workload's fixed-class replays against
/// `CLASS_GOLDENS` — 80 digests per workload.
fn check_class_goldens(wname: &str) {
    let computed = compute_class(wname);
    let prefix = format!("{wname}/");
    let golden: Vec<&(&str, GoldenTuple)> = CLASS_GOLDENS
        .iter()
        .filter(|(label, _)| label.starts_with(&prefix))
        .collect();
    assert_eq!(golden.len(), 80, "{wname}: fixed-class coverage changed");
    assert_eq!(computed.len(), golden.len(), "{wname}: selection changed");
    for ((label, digest), (glabel, gtuple)) in computed.iter().zip(golden) {
        assert_eq!(label, glabel, "fixed-class selection or ordering changed");
        assert_eq!(
            digest,
            &Digest::from_tuple(*gtuple),
            "{label}: fixed-class replay diverged from its golden"
        );
    }
}

#[test]
fn class_replays_match_goldens_churn_a() {
    check_class_goldens("churn-a");
}

#[test]
fn class_replays_match_goldens_churn_b() {
    check_class_goldens("churn-b");
}

#[test]
fn class_replays_match_goldens_phased() {
    check_class_goldens("phased");
}

#[test]
fn class_replays_match_goldens_large_churn_quick() {
    check_class_goldens("large_churn-quick");
}
