//! Synthetic micro-workloads: small, targeted traces for unit tests,
//! property tests and policy ablations.
//!
//! Each generator is deterministic per seed and returns a validated
//! [`Trace`] directly (no application loop).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use dmm_core::trace::{Trace, TraceBuilder, TraceShard};

/// `n` allocations of a single `size`, freed FIFO afterwards.
pub fn uniform(n: usize, size: usize) -> Trace {
    let mut b = Trace::builder();
    let ids: Vec<u64> = (0..n).map(|_| b.alloc(size)).collect();
    for id in ids {
        b.free(id);
    }
    b.finish().expect("generator produces valid traces")
}

/// Alternating small/large allocations with interleaved lifetimes — the
/// mixed-size pattern that punishes fixed-class managers.
pub fn bimodal(seed: u64, n: usize, small: usize, large: usize) -> Trace {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = Trace::builder();
    let mut live: Vec<u64> = Vec::new();
    for i in 0..n {
        let size = if i % 2 == 0 { small } else { large };
        live.push(b.alloc(size));
        if live.len() > 8 && rng.gen_bool(0.5) {
            let idx = rng.gen_range(0..live.len());
            b.free(live.swap_remove(idx));
        }
    }
    for id in live {
        b.free(id);
    }
    b.finish().expect("generator produces valid traces")
}

/// Pure LIFO (stack-like) behaviour — the pattern Obstacks exploits.
pub fn stack_like(depth: usize, size: usize) -> Trace {
    let mut b = Trace::builder();
    let ids: Vec<u64> = (0..depth).map(|i| b.alloc(size + (i % 5) * 16)).collect();
    for id in ids.into_iter().rev() {
        b.free(id);
    }
    b.finish().expect("generator produces valid traces")
}

/// Ramp up to a plateau, hold, then ramp down — the Figure 5 DRR shape.
pub fn plateau(seed: u64, peak: usize, size: usize) -> Trace {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = Trace::builder();
    let mut live: Vec<u64> = Vec::new();
    for _ in 0..peak {
        live.push(b.alloc(size + rng.gen_range(0..size)));
    }
    // Hold with churn.
    for _ in 0..peak {
        let idx = rng.gen_range(0..live.len());
        b.free(live.swap_remove(idx));
        live.push(b.alloc(size + rng.gen_range(0..size)));
    }
    for id in live {
        b.free(id);
    }
    b.finish().expect("generator produces valid traces")
}

/// Highly variable sizes, random frees — the fragmentation-adversarial
/// pattern of the DRR case study.
pub fn fragmenting(seed: u64, n: usize, max_size: usize) -> Trace {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = Trace::builder();
    let mut live: Vec<u64> = Vec::new();
    for _ in 0..n {
        if live.is_empty() || rng.gen_bool(0.6) {
            live.push(b.alloc(rng.gen_range(16..=max_size.max(17))));
        } else {
            let idx = rng.gen_range(0..live.len());
            b.free(live.swap_remove(idx));
        }
    }
    for id in live {
        b.free(id);
    }
    b.finish().expect("generator produces valid traces")
}

/// Two-phase trace: a stack-like phase 0 followed by a fragmenting
/// phase 1 — the rendering case study in miniature.
pub fn two_phase(seed: u64, n: usize) -> Trace {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = Trace::builder();
    b.phase(0);
    let ids: Vec<u64> = (0..n).map(|i| b.alloc(64 + (i % 7) * 32)).collect();
    for id in ids.into_iter().rev() {
        b.free(id);
    }
    b.phase(1);
    let mut live: Vec<u64> = Vec::new();
    for _ in 0..n {
        if live.is_empty() || rng.gen_bool(0.55) {
            live.push(b.alloc(rng.gen_range(100..4000)));
        } else {
            let idx = rng.gen_range(0..live.len());
            b.free(live.swap_remove(idx));
        }
    }
    for id in live {
        b.free(id);
    }
    b.finish().expect("generator produces valid traces")
}

/// One lifetime-closed churn window written into `b`: ~`events` mixed
/// alloc/free events followed by a full drain of the survivors.
///
/// Both large-trace entry points share this body, so the whole trace of
/// [`large_churn`] and the shard stream of [`large_churn_shards`] carry
/// byte-identical size/order behaviour (only object ids differ).
fn churn_window(rng: &mut StdRng, b: &mut TraceBuilder, events: usize) {
    let mut live: Vec<u64> = Vec::new();
    for _ in 0..events {
        if live.is_empty() || rng.gen_bool(0.58) {
            live.push(b.alloc(rng.gen_range(16..=1600)));
        } else {
            let idx = rng.gen_range(0..live.len());
            b.free(live.swap_remove(idx));
        }
    }
    for id in live {
        b.free(id);
    }
}

/// A large churn trace of `windows` lifetime-closed windows of
/// ~`events_per_window` events each, materialised whole. Prefer
/// [`large_churn_shards`] when the trace would not fit comfortably in
/// memory — it generates the identical behaviour shard by shard.
pub fn large_churn(seed: u64, windows: usize, events_per_window: usize) -> Trace {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = Trace::builder();
    for _ in 0..windows.max(1) {
        churn_window(&mut rng, &mut b, events_per_window);
    }
    b.finish().expect("generator produces valid traces")
}

/// The same behaviour as [`large_churn`], yielded as a stream of
/// lifetime-closed [`TraceShard`]s: at no point is more than one window's
/// events resident, so arbitrarily long traces can be explored on a fixed
/// memory budget (`Methodology::explore_shard_stream`). Deterministic per
/// seed, so a second pass over a fresh iterator replays identically.
pub fn large_churn_shards(
    seed: u64,
    windows: usize,
    events_per_window: usize,
) -> impl Iterator<Item = TraceShard> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..windows.max(1)).map(move |i| {
        let mut b = Trace::builder();
        churn_window(&mut rng, &mut b, events_per_window);
        TraceShard::closed(i, b.finish().expect("generator produces valid traces"))
    })
}

/// One lifetime-closed adversarial window written into `b` (~`6 × pairs`
/// events), crafted to defeat address-ordered fit policies:
///
/// 1. a dense run of `2 × pairs` equal small blocks is laid down;
/// 2. every *other* block is freed — the holes are never adjacent, so no
///    amount of coalescing can rebuild a larger block from them;
/// 3. `pairs` requests arrive at just over twice the hole size — FirstFit
///    and BestFit walk the whole free list, fit nothing, and must grow
///    the heap while the hole bytes sit stranded;
/// 4. the window drains completely (shard-friendly).
///
/// Both entry points share this body, so [`adversarial_fragmentation`]
/// and [`adversarial_fragmentation_shards`] carry byte-identical
/// size/order behaviour (only object ids differ).
fn adversarial_window(rng: &mut StdRng, b: &mut TraceBuilder, pairs: usize) {
    let small = 24 + rng.gen_range(0..6usize) * 8;
    let run: Vec<u64> = (0..pairs.max(1) * 2).map(|_| b.alloc(small)).collect();
    let mut survivors = Vec::with_capacity(pairs.max(1));
    for (i, id) in run.into_iter().enumerate() {
        if i % 2 == 0 {
            b.free(id);
        } else {
            survivors.push(id);
        }
    }
    let big: Vec<u64> = (0..pairs.max(1)).map(|_| b.alloc(small * 2 + 8)).collect();
    for id in survivors {
        b.free(id);
    }
    for id in big {
        b.free(id);
    }
}

/// An adversarial fragmentation trace of `windows` lifetime-closed
/// `adversarial_window`s, materialised whole: the alloc/free sequence
/// is crafted so FirstFit/BestFit strand half of every window's small
/// bytes as unusable holes at the moment demand peaks. Deterministic per
/// seed; prefer [`adversarial_fragmentation_shards`] for streaming.
pub fn adversarial_fragmentation(seed: u64, windows: usize, pairs_per_window: usize) -> Trace {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = Trace::builder();
    for _ in 0..windows.max(1) {
        adversarial_window(&mut rng, &mut b, pairs_per_window);
    }
    b.finish().expect("generator produces valid traces")
}

/// The same behaviour as [`adversarial_fragmentation`], yielded as a
/// stream of lifetime-closed [`TraceShard`]s — one window of events
/// resident at a time, deterministic per seed.
pub fn adversarial_fragmentation_shards(
    seed: u64,
    windows: usize,
    pairs_per_window: usize,
) -> impl Iterator<Item = TraceShard> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..windows.max(1)).map(move |i| {
        let mut b = Trace::builder();
        adversarial_window(&mut rng, &mut b, pairs_per_window);
        TraceShard::closed(i, b.finish().expect("generator produces valid traces"))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmm_core::profile::Profile;

    #[test]
    fn all_generators_balance_allocs_and_frees() {
        let traces = [
            uniform(50, 64),
            bimodal(1, 100, 32, 2048),
            stack_like(40, 64),
            plateau(2, 60, 256),
            fragmenting(3, 200, 1500),
            two_phase(4, 50),
        ];
        for t in traces {
            assert_eq!(t.alloc_count(), t.free_count());
        }
    }

    #[test]
    fn generators_are_deterministic() {
        assert_eq!(fragmenting(9, 100, 500), fragmenting(9, 100, 500));
        assert_ne!(fragmenting(9, 100, 500), fragmenting(10, 100, 500));
    }

    #[test]
    fn stack_like_profile_detects_lifo() {
        let p = Profile::of(&stack_like(30, 64));
        assert!(p.phases[0].stack_like);
        let p = Profile::of(&fragmenting(5, 200, 800));
        assert!(!p.phases[0].stack_like);
    }

    #[test]
    fn plateau_peaks_at_construction_height() {
        let t = plateau(6, 50, 100);
        // At the hold point, ~50 blocks of 100..200 bytes are live.
        assert!(t.peak_live_requested() >= 50 * 100);
        assert!(t.peak_live_requested() <= 50 * 200 + 200);
    }

    #[test]
    fn two_phase_has_phase_markers() {
        let t = two_phase(7, 30);
        assert_eq!(t.phases(), vec![0, 1]);
        let parts = t.split_phases();
        assert_eq!(parts.len(), 2);
    }

    #[test]
    fn large_churn_shards_stream_the_same_behaviour_as_the_whole_trace() {
        use dmm_core::manager::PolicyAllocator;
        use dmm_core::space::presets;
        use dmm_core::trace::{replay, replay_shards_config};

        let whole = large_churn(11, 3, 200);
        let shards: Vec<TraceShard> = large_churn_shards(11, 3, 200).collect();
        assert_eq!(shards.len(), 3);
        let shard_events: usize = shards.iter().map(|s| s.trace.len()).sum();
        assert_eq!(shard_events, whole.len());
        assert!(shards.iter().all(|s| s.boundary.is_closed()));
        // Identical per-window behaviour: the composed replay and the
        // whole-trace replay agree on the demand peak exactly.
        let cfg = presets::drr_paper();
        let whole_fs = replay(&whole, &mut PolicyAllocator::new(cfg.clone()).unwrap()).unwrap();
        let sharded = replay_shards_config(shards, &cfg).unwrap();
        assert_eq!(sharded.stats.peak_requested, whole_fs.peak_requested);
        assert_eq!(sharded.stats.stats.allocs, whole_fs.stats.allocs);
        // Streaming held at most one window of events resident.
        assert!(sharded.peak_resident_trace_bytes < whole.resident_bytes());
    }

    #[test]
    fn large_churn_shard_stream_is_deterministic_per_seed() {
        let a: Vec<TraceShard> = large_churn_shards(5, 2, 120).collect();
        let b: Vec<TraceShard> = large_churn_shards(5, 2, 120).collect();
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.trace, y.trace, "second pass must replay identically");
        }
        let c: Vec<TraceShard> = large_churn_shards(6, 2, 120).collect();
        assert_ne!(a[0].trace, c[0].trace);
    }

    #[test]
    fn adversarial_fragmentation_strands_holes_under_fit_policies() {
        use dmm_core::manager::PolicyAllocator;
        use dmm_core::space::presets;
        use dmm_core::trace::replay;

        let t = adversarial_fragmentation(13, 2, 120);
        assert_eq!(t.alloc_count(), t.free_count(), "windows drain fully");
        // A benign twin: the identical multiset of requests, but the small
        // blocks are freed only *after* the large run — no holes exist
        // when the large requests arrive.
        let mut b = Trace::builder();
        let mut rng = StdRng::seed_from_u64(13);
        for _ in 0..2 {
            let small = 24 + rng.gen_range(0..6usize) * 8;
            let run: Vec<u64> = (0..240).map(|_| b.alloc(small)).collect();
            let big: Vec<u64> = (0..120).map(|_| b.alloc(small * 2 + 8)).collect();
            for id in run.into_iter().chain(big) {
                b.free(id);
            }
        }
        let benign = b.finish().unwrap();
        for cfg in [presets::lea_like(), presets::kingsley_like()] {
            let adv = replay(&t, &mut PolicyAllocator::new(cfg.clone()).unwrap()).unwrap();
            let nice = replay(&benign, &mut PolicyAllocator::new(cfg.clone()).unwrap()).unwrap();
            let adv_ratio = adv.peak_footprint as f64 / t.peak_live_requested() as f64;
            let nice_ratio = nice.peak_footprint as f64 / benign.peak_live_requested() as f64;
            assert!(
                adv_ratio > nice_ratio,
                "{}: adversarial order must fragment worse than the benign \
                 order of the same requests ({adv_ratio:.3} vs {nice_ratio:.3})",
                cfg.name
            );
        }
    }

    #[test]
    fn adversarial_fragmentation_shards_match_the_whole_trace() {
        let whole = adversarial_fragmentation(21, 3, 80);
        let shards: Vec<TraceShard> = adversarial_fragmentation_shards(21, 3, 80).collect();
        assert_eq!(shards.len(), 3);
        assert_eq!(
            shards.iter().map(|s| s.trace.len()).sum::<usize>(),
            whole.len()
        );
        assert!(shards.iter().all(|s| s.boundary.is_closed()));
        // Determinism per seed.
        assert_eq!(
            adversarial_fragmentation(21, 3, 80),
            adversarial_fragmentation(21, 3, 80)
        );
        assert_ne!(
            adversarial_fragmentation(21, 3, 80),
            adversarial_fragmentation(22, 3, 80)
        );
    }

    #[test]
    fn bimodal_has_exactly_two_dominant_sizes() {
        let p = Profile::of(&bimodal(8, 100, 32, 2048));
        let top = p.histogram.top_k(2);
        let sizes: Vec<usize> = top.iter().map(|(s, _)| *s).collect();
        assert!(sizes.contains(&32) && sizes.contains(&2048));
    }
}
