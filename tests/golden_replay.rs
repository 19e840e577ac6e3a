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

/// The address-ordered configurations `ADDR_GOLDENS` covers. No preset
/// uses A1 = address-ordered list, so `GOLDENS` never replays that index.
/// Selection rule: enumerate the space in `SpaceIter` order with the
/// sweep's parameters (footprint-optimised, classes 16/32/64/128 bytes)
/// and, for every C1 fit × A2 ∈ {profiled classes, many} × D2 ∈
/// {always (immediate), deferred}, take the *first* configuration with
/// A1 = address-ordered list — 20 configurations, in that loop order.
fn address_ordered_configs() -> Vec<DmConfig> {
    use dmm::core::space::enumerate::SpaceIter;
    use dmm::core::space::order::TRAVERSAL_ORDER;
    use dmm::core::space::trees::{BlockSizes, BlockStructure, CoalesceWhen, FitAlgorithm};
    use dmm::core::units::MIN_BLOCK;

    let mut params = Params::footprint_optimised();
    params.profiled_classes = vec![MIN_BLOCK, 2 * MIN_BLOCK, 4 * MIN_BLOCK, 8 * MIN_BLOCK];
    let mut first = std::collections::HashMap::new();
    for cfg in SpaceIter::with_order_and_params(TRAVERSAL_ORDER.to_vec(), params) {
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

/// Compiled-kernel replays of [`address_ordered_configs`] on every golden
/// workload.
fn compute_address_ordered() -> Vec<(String, Digest)> {
    let configs = address_ordered_configs();
    let mut out = Vec::new();
    for (wname, trace) in workloads() {
        let compiled = CompiledTrace::compile(&trace);
        for cfg in &configs {
            let mut m = PolicyAllocator::new(cfg.clone()).expect("valid");
            let fs = dmm::core::trace::replay_compiled(&compiled, &mut m).expect("replay");
            let label = format!(
                "{wname}/{}/{}/{}/{}",
                cfg.fit, cfg.block_sizes, cfg.coalesce_when, cfg.name
            );
            out.push((label, Digest::of(&fs)));
        }
    }
    out
}

/// Regenerator: prints the golden tables in the exact format of `GOLDENS`
/// and `ADDR_GOLDENS`.
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
