//! Fast per-workload smoke tests: recording is reproducible per seed and
//! `record()` → `replay()` produces identical footprint statistics across
//! repeated runs — the determinism contract every experiment in
//! `dmm-bench` relies on.

use dmm::prelude::*;
use dmm::workloads::synthetic;

/// Replays `trace` through a fresh paper-preset policy allocator and a
/// fresh Lea baseline, returning both footprint statistics.
fn replay_both(
    trace: &Trace,
) -> (
    dmm::core::metrics::FootprintStats,
    dmm::core::metrics::FootprintStats,
) {
    let mut policy = PolicyAllocator::new(presets::drr_paper()).expect("valid preset");
    let mut lea = LeaAllocator::new();
    (
        replay(trace, &mut policy).expect("policy replay"),
        replay(trace, &mut lea).expect("lea replay"),
    )
}

/// Asserts the record → replay round trip is a pure function of the seed:
/// same seed, same trace, identical peak footprint on every manager.
fn assert_round_trip(name: &str, record: impl Fn() -> Trace) {
    let t1 = record();
    let t2 = record();
    assert_eq!(t1, t2, "{name}: recording is not deterministic");
    assert!(!t1.is_empty(), "{name}: empty trace");

    let (p1, l1) = replay_both(&t1);
    let (p2, l2) = replay_both(&t2);
    assert_eq!(p1, p2, "{name}: policy replay diverged");
    assert_eq!(l1, l2, "{name}: lea replay diverged");
    assert_eq!(
        p1.peak_footprint, p2.peak_footprint,
        "{name}: peak footprint not reproducible"
    );
    assert!(p1.peak_footprint >= t1.peak_live_requested(), "{name}");
    assert_eq!(p1.stats.live_requested, 0, "{name}: replay leaked");
}

#[test]
fn drr_record_replay_round_trips() {
    assert_round_trip("drr", || DrrWorkload::quick(11).record().expect("record"));
}

#[test]
fn recon_record_replay_round_trips() {
    assert_round_trip("recon", || {
        ReconWorkload::quick(11).record().expect("record")
    });
}

#[test]
fn render_record_replay_round_trips() {
    assert_round_trip("render", || {
        RenderWorkload::quick(11).record().expect("record")
    });
}

#[test]
fn synthetic_fragmenting_round_trips() {
    assert_round_trip("synthetic::fragmenting", || {
        synthetic::fragmenting(11, 400, 900)
    });
}

#[test]
fn synthetic_stack_like_round_trips() {
    assert_round_trip("synthetic::stack_like", || synthetic::stack_like(128, 96));
}
