//! Chaos suite: deterministic fault injection against the exploration
//! stack.
//!
//! Every test here wires a [`FaultPlan`] (or corrupts bytes on disk) and
//! asserts the documented recovery contract, not merely "no crash":
//!
//! - a quarantined sweep skips the faulted candidates, keeps its
//!   partition accounting exact, and still crowns the fault-free winner;
//! - transient worker death is retried to a bit-identical result, fatal
//!   death either errors (Fail) or degrades with explicit accounting
//!   (Degrade);
//! - an exploration killed mid-run resumes from its checkpoint journal to
//!   a bit-identical winner — including at *arbitrary* kill offsets, via
//!   the property test at the bottom;
//! - a truncated durable trace file is a structured `TR011` error whose
//!   recovery reader salvages exactly the checksummed prefix.
//!
//! All faults are injected by fingerprint / shard index / byte offset, so
//! every failure is replayable from the seed alone.

use std::path::PathBuf;

use proptest::prelude::*;

use dmm::core::analyze::{prune_reason, rank_by_bound, TraceFacts};
use dmm::core::error::Error;
use dmm::core::fault::{truncate_at, FaultPlan};
use dmm::core::methodology::{
    exhaustive_best_with_engine, CheckpointJournal, ExplorationEngine, ExplorationOutcome,
    ShardFailurePolicy, SHARD_RETRY_ATTEMPTS,
};
use dmm::core::space::enumerate::SpaceIter;
use dmm::core::space::order::TRAVERSAL_ORDER;
use dmm::core::trace::store::FRAME_EVENTS;
use dmm::core::trace::{read_trace, recover_trace, write_trace};
use dmm::core::units::MIN_BLOCK;
use dmm::prelude::*;

/// Deterministic fragmenting trace: interleaved lifetimes and varied
/// sizes, fully balanced at the end.
fn chaos_trace() -> Trace {
    let mut b = Trace::builder();
    let mut x: u64 = 0x243F6A8885A308D3;
    let mut live: Vec<u64> = Vec::new();
    for _ in 0..400 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        if live.is_empty() || x % 5 < 3 {
            live.push(b.alloc(16 + (x % 900) as usize));
        } else {
            b.free(live.swap_remove((x % live.len() as u64) as usize));
        }
    }
    for id in live {
        b.free(id);
    }
    b.finish().expect("constructed trace is valid")
}

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("dmm-chaos-test");
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir.join(name)
}

/// The branch-and-bound sweep with injected candidate faults: the
/// quarantined and budget-killed candidates are skipped, the partition
/// invariant stays exact, and the winner matches the fault-free sweep
/// bit for bit (the victims are chosen among provably non-winning
/// candidates).
#[test]
fn quarantined_sweep_survives_candidate_faults_with_the_same_winner() {
    let t = chaos_trace();
    let mut params = Params::footprint_optimised();
    params.profiled_classes = vec![MIN_BLOCK, 2 * MIN_BLOCK, 4 * MIN_BLOCK, 8 * MIN_BLOCK];
    let limit = 160usize;

    let clean = ExplorationEngine::serial();
    let (winner, peak, _) =
        exhaustive_best_with_engine(&t, params.clone(), Some(limit), &clean).expect("clean sweep");

    // Victims: enumerated candidates that are never statically pruned,
    // carry an admissible bound strictly below the winner's actual peak
    // (so no incumbent can ever bound-prune them — they *will* reach the
    // replay), and are not the winner (so skipping them cannot move the
    // argmin).
    let configs: Vec<DmConfig> =
        SpaceIter::with_order_and_params(TRAVERSAL_ORDER.to_vec(), params.clone())
            .take(limit)
            .collect();
    let facts = TraceFacts::of(&t);
    let ranked = rank_by_bound(&facts, &configs);
    let mut victims = ranked.iter().filter_map(|&(order, bound)| {
        let cfg = &configs[order];
        (bound < peak && cfg.fingerprint() != winner.fingerprint() && prune_reason(cfg).is_none())
            .then(|| cfg.fingerprint())
    });
    let panic_fp = victims.next().expect("a non-winning evaluated candidate");
    let exhaust_fp = victims
        .find(|fp| *fp != panic_fp)
        .expect("a second non-winning evaluated candidate");

    let engine = ExplorationEngine::serial()
        .with_quarantine(true)
        .with_fault_plan(
            FaultPlan::new()
                .panic_candidate(panic_fp)
                .exhaust_candidate(exhaust_fp),
        );
    let (w, p, _) = exhaustive_best_with_engine(&t, params, Some(limit), &engine)
        .expect("faulted sweep still completes");

    assert_eq!(w.fingerprint(), winner.fingerprint(), "winner moved");
    assert_eq!(p, peak, "winner peak moved");
    let c = engine.counters();
    assert!(c.quarantined >= 1, "injected panic was never quarantined");
    assert!(c.budget_exceeded >= 1, "injected exhaustion never fired");
    assert_eq!(c.candidates(), limit, "partition invariant broken: {c}");
}

/// Transient worker death: the shard is retried and the run ends
/// bit-identical to an uninjected one, with the retries on the record.
#[test]
fn transient_worker_death_is_retried_to_a_bit_identical_result() {
    let t = chaos_trace();
    let clean = Methodology::new()
        .explore_sharded(&t, 3)
        .expect("clean run");

    let engine =
        ExplorationEngine::serial().with_fault_plan(FaultPlan::new().kill_shard_transiently(1, 2));
    let out = Methodology::new()
        .explore_sharded_with_engine(&t, 3, &engine)
        .expect("two worker deaths are within the retry budget");

    assert_eq!(out.config, clean.config);
    assert_eq!(out.footprint, clean.footprint);
    assert_eq!(out.shard_retries, 2);
    assert!(out.failed_shards.is_empty());
    assert_eq!(out.confidence, 1.0);
}

/// Fatal worker death: a structured error under the default policy, an
/// explicitly-accounted partial result under `Degrade`.
#[test]
fn fatal_worker_death_errors_or_degrades_explicitly() {
    let t = chaos_trace();
    let engine = ExplorationEngine::serial().with_fault_plan(FaultPlan::new().kill_shard(1));

    let err = Methodology::new()
        .explore_sharded_with_engine(&t, 3, &engine)
        .expect_err("Fail policy must surface the dead shard");
    let Error::ShardFailed {
        shard,
        attempts,
        cause,
    } = &err
    else {
        panic!("expected ShardFailed, got {err}");
    };
    assert_eq!((*shard, *attempts), (1, SHARD_RETRY_ATTEMPTS));
    assert!(
        matches!(cause.as_ref(), Error::WorkerDied { .. }),
        "{cause}"
    );

    let engine = ExplorationEngine::serial().with_fault_plan(FaultPlan::new().kill_shard(1));
    let out = Methodology::new()
        .with_shard_failure_policy(ShardFailurePolicy::Degrade)
        .explore_sharded_with_engine(&t, 3, &engine)
        .expect("degraded run completes on the surviving shards");
    assert_eq!(out.failed_shards.len(), 1);
    let failed = &out.failed_shards[0];
    assert_eq!((failed.index, failed.attempts), (1, SHARD_RETRY_ATTEMPTS));
    assert!(
        out.confidence > 0.0 && out.confidence < 1.0,
        "{}",
        out.confidence
    );
}

/// One journaled exploration; returns the outcome for comparison.
fn journaled_explore(t: &Trace, journal: CheckpointJournal) -> ExplorationOutcome {
    let engine = ExplorationEngine::serial().with_journal(journal);
    Methodology::new()
        .explore_with_engine(t, &engine)
        .expect("journaled exploration")
}

/// Kill + resume at fixed offsets: whatever prefix of the journal
/// survives the kill (none, a third, all but the torn tail), the resumed
/// exploration reproduces the uninterrupted winner bit for bit and never
/// replays a journalled candidate twice.
#[test]
fn killed_exploration_resumes_bit_identical_from_any_journal_prefix() {
    let t = chaos_trace();
    let full_path = tmp("resume-full.journal");
    let full = journaled_explore(
        &t,
        CheckpointJournal::create(&full_path).expect("create journal"),
    );
    assert!(full.counters.replays > 0, "fixture must do real work");
    let bytes = std::fs::read(&full_path).expect("journal exists");

    for (i, cut) in [0, bytes.len() / 3, bytes.len() / 2, bytes.len() - 7]
        .into_iter()
        .enumerate()
    {
        // Simulate the kill: only `cut` bytes of the journal hit disk,
        // possibly tearing the last line in half.
        let path = tmp(&format!("resume-cut-{i}.journal"));
        std::fs::write(&path, &bytes[..cut]).expect("write prefix");
        let journal = CheckpointJournal::resume(&path).expect("resume self-heals");
        let salvaged = journal.entries();
        let resumed = journaled_explore(&t, journal);

        assert_eq!(resumed.config, full.config, "winner moved at cut {cut}");
        assert_eq!(resumed.footprint, full.footprint, "peak moved at cut {cut}");
        assert_eq!(resumed.counters.evaluations, full.counters.evaluations);
        // The full run journals one entry per complete replay, so every
        // salvaged entry is exactly one replay the resumed run must not
        // repeat. Cut replays are not journalled: the resumed run cuts
        // them again, at the same caps.
        assert_eq!(
            resumed.counters.replays,
            full.counters.replays - salvaged,
            "resume must serve all {salvaged} journalled evaluations without replaying them"
        );
    }
}

/// A torn durable trace is a structured `TR011`, and recovery salvages
/// exactly the checksummed frame prefix.
#[test]
fn truncated_durable_trace_salvages_the_exact_checksummed_prefix() {
    // Two frames: pairs keep every even-length prefix lifetime-closed.
    let trace = {
        let mut b = Trace::builder();
        for i in 0..(FRAME_EVENTS / 2 + 300) {
            let id = b.alloc(16 + (i % 700));
            b.free(id);
        }
        b.finish().expect("valid trace")
    };
    let whole = tmp("torn.dmmt");
    write_trace(&whole, &trace).expect("write");
    let bytes = std::fs::read(&whole).expect("read back");
    let torn = tmp("torn-cut.dmmt");
    std::fs::write(&torn, truncate_at(&bytes, bytes.len() - 9)).expect("write torn");

    let err = read_trace(&torn).expect_err("torn file must not load silently");
    let Error::TraceStore { code, .. } = &err else {
        panic!("expected TraceStore, got {err}");
    };
    assert_eq!(code, "TR011");

    let rec = recover_trace(&torn).expect("prefix recovery");
    assert_eq!(rec.frames, 1, "exactly the intact frame survives");
    assert_eq!(rec.trace.events(), &trace.events()[..FRAME_EVENTS]);
    match rec.truncated {
        Some(Error::TraceStore { ref code, .. }) => assert_eq!(code, "TR011"),
        ref other => panic!("recovery must report what it dropped, got {other:?}"),
    }
}

/// Strategy: a balanced flat trace of interleaved allocs/frees.
fn flat_trace(max_ops: usize) -> impl Strategy<Value = Trace> {
    proptest::collection::vec((any::<u16>(), 1..=512usize), 8..max_ops).prop_map(|ops| {
        let mut b = Trace::builder();
        let mut live: Vec<u64> = Vec::new();
        for (sel, size) in ops {
            if live.is_empty() || !sel.is_multiple_of(3) {
                live.push(b.alloc(size));
            } else {
                b.free(live.swap_remove(sel as usize / 3 % live.len()));
            }
        }
        for id in live {
            b.free(id);
        }
        b.finish().expect("constructed traces are valid")
    })
}

/// Strategy: the same, split over two phases.
fn phased_trace(max_ops: usize) -> impl Strategy<Value = Trace> {
    (flat_trace(max_ops), flat_trace(max_ops)).prop_map(|(a, z)| {
        let mut b = Trace::builder();
        for (phase, part) in [(0u32, a), (1u32, z)].iter() {
            b.phase(*phase);
            let mut map = std::collections::HashMap::new();
            for ev in part.events() {
                match *ev {
                    dmm::core::trace::TraceEvent::Alloc { id, size } => {
                        map.insert(id, b.alloc(size));
                    }
                    dmm::core::trace::TraceEvent::Free { id } => {
                        b.free(map[&id]);
                    }
                    dmm::core::trace::TraceEvent::Phase { .. } => {}
                }
            }
        }
        b.finish().expect("re-numbered trace is valid")
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Satellite invariant: kill the exploration at a *random* journal
    /// byte offset, resume, and the winner, footprint, and evaluation
    /// count are bit-identical to the uninterrupted run — across
    /// methodology styles and flat/phased traces.
    #[test]
    fn prop_kill_resume_is_bit_identical(
        flat in flat_trace(120),
        phased in phased_trace(60),
        use_phased in any::<bool>(),
        myopic in any::<bool>(),
        cut_permille in 0..=1000usize,
    ) {
        let trace = if use_phased { phased } else { flat };
        let method = if myopic {
            Methodology::new().with_style(CompletionStyle::Myopic)
        } else {
            Methodology::new()
        };
        let full_path = tmp(&format!("prop-full-{use_phased}-{myopic}.journal"));
        let engine = ExplorationEngine::serial()
            .with_journal(CheckpointJournal::create(&full_path).expect("create"));
        let full = method.explore_with_engine(&trace, &engine).expect("full run");

        let bytes = std::fs::read(&full_path).expect("journal exists");
        let cut = bytes.len() * cut_permille / 1000;
        let torn_path = tmp(&format!("prop-torn-{use_phased}-{myopic}.journal"));
        std::fs::write(&torn_path, &bytes[..cut]).expect("write torn prefix");

        let journal = CheckpointJournal::resume(&torn_path).expect("resume self-heals");
        let engine = ExplorationEngine::serial().with_journal(journal);
        let resumed = method.explore_with_engine(&trace, &engine).expect("resumed run");

        prop_assert_eq!(&resumed.config, &full.config);
        prop_assert_eq!(&resumed.footprint, &full.footprint);
        prop_assert_eq!(resumed.counters.evaluations, full.counters.evaluations);
        prop_assert!(resumed.counters.replays <= full.counters.replays);
    }
}
