//! Replay inner-loop benchmark: classic interpreter vs compiled kernel.
//!
//! Measures events/second for [`dmm_core::trace::replay`] (per-event
//! hashing, dyn dispatch) against [`dmm_core::trace::replay_compiled_with`]
//! (slot-resolved events, monomorphized, reused scratch) on the paper
//! workloads plus `synthetic::large_churn`, asserting bit-identical
//! statistics first, and writes the machine-readable trajectory to
//! `BENCH_replay.json`.
//!
//! Usage: `cargo run -p dmm-bench --release --bin replay_hot
//! [--quick] [--csv] [--check] [--out=PATH]`
//!
//! `--check` is the CI regression tripwire; it exits non-zero when any
//! gate fails:
//!
//! 1. **interpreter gate** — the compiled kernel must be at least as fast
//!    as the classic interpreter on the `large_churn` nop row;
//! 2. **manager-bound gate vs PR 4** — the end-to-end DRR-manager row
//!    must be at least 1.3× the committed PR 4 baseline (normalised by
//!    the same run's nop row, so machine speed cancels — see
//!    `dmm_bench::GateBaseline`). This is the boundary-tag tiling's
//!    speedup staying regression-guarded;
//! 3. **manager-bound gate vs PR 5** — the same row must be at least
//!    1.5× the PR 5 baseline, guarding the order-statistic free-list
//!    layer's speedup (lazy rank replica, bitmap size set, O(1) hit
//!    charges) at both quick and full scale;
//! 4. **sweep gate** — both sweeps' counters must partition the
//!    enumerated space and, in release builds, the projected sweep must
//!    fire the projection tier and strictly reduce replays against the
//!    plain serial sweep, and each full-space sweep must cut at least one
//!    losing replay short at its peak cap, with the winner bit-identical
//!    (asserted inside the harness). The gate counts; it never times. The
//!    wall-clock ratio is printed and recorded, but sweep wall-clock is a
//!    benchmark figure (`perfbench`'s sweep-drr workload), not a
//!    pass/fail check.

fn main() {
    let opts = dmm_bench::opts::parse();
    let args: Vec<String> = std::env::args().collect();
    let check = args.iter().any(|a| a == "--check");
    let out = args
        .iter()
        .find_map(|a| a.strip_prefix("--out="))
        .unwrap_or("BENCH_replay.json")
        .to_string();

    let (table, report) = dmm_bench::replay_hot(opts.quick).expect("replay_hot harness failed");
    if opts.csv {
        print!("{}", table.to_csv());
    } else {
        print!("{}", table.to_ascii());
    }
    std::fs::write(&out, report.to_json()).expect("failed to write the JSON report");
    eprintln!("wrote {out}");
    let e = &report.exploration;
    eprintln!(
        "exploration ({}): {} enumerated -> {} evaluations ({} replays, {} projection hits, \
         {} statically pruned, {} bound pruned, {} quarantined, {} budget exceeded)",
        e.workload, e.enumerated, e.evaluations, e.replays, e.projection_hits,
        e.statically_pruned, e.bound_pruned, e.quarantined, e.budget_exceeded
    );
    let s = &report.sweep;
    eprintln!(
        "sweep ({}): baseline {} replays ({} cut) in {:.3}s vs projected {} replays \
         ({} cut, {} projection hits) in {:.3}s -> {:.2}x wall-clock, {:.1}% of enumerated \
         replayed",
        s.workload,
        s.baseline.replays,
        s.baseline.peak_cut,
        s.baseline.wallclock_secs,
        s.projected.replays,
        s.projected.peak_cut,
        s.projected.projection_hits,
        s.projected.wallclock_secs,
        s.sweep_wallclock_speedup,
        100.0 * s.projected_replay_ratio
    );

    if check {
        // Branch-and-bound gate: the buckets (including the resilience
        // counters) must partition the enumerated space, both prune kinds
        // must actually fire on the full release sweep, and an uninjected,
        // unbudgeted sweep must be fault-free.
        if e.partitioned != e.enumerated || e.statically_pruned == 0 || e.bound_pruned == 0 {
            eprintln!(
                "REGRESSION: exploration pruning accounting broken or a prune kind never \
                 fired ({} candidates in the buckets vs {} enumerated; {} statically, {} bound \
                 pruned)",
                e.partitioned, e.enumerated, e.statically_pruned, e.bound_pruned
            );
            std::process::exit(1);
        }
        if e.quarantined != 0 || e.budget_exceeded != 0 {
            eprintln!(
                "REGRESSION: healthy sweep reported faults ({} quarantined, {} budget \
                 exceeded) with no fault plan or budget installed",
                e.quarantined, e.budget_exceeded
            );
            std::process::exit(1);
        }
        eprintln!(
            "exploration gate ok: {:.1}% bound pruned, {:.1}% statically pruned",
            100.0 * e.bound_pruned as f64 / e.enumerated as f64,
            100.0 * e.statically_pruned as f64 / e.enumerated as f64
        );

        let gate = report.gate_row();
        if gate.speedup < 1.0 {
            eprintln!(
                "REGRESSION: compiled replay is slower than classic on {} ({:.0} vs {:.0} ev/s, {:.2}x)",
                gate.workload,
                gate.compiled_events_per_sec,
                gate.classic_events_per_sec,
                gate.speedup
            );
            std::process::exit(1);
        }
        eprintln!(
            "interpreter gate ok: {:.2}x on {} (compiled {:.0} ev/s vs classic {:.0} ev/s)",
            gate.speedup, gate.workload, gate.compiled_events_per_sec, gate.classic_events_per_sec
        );

        // Manager-bound gates: the end-to-end manager simulation must stay
        // >= 1.3x the committed PR 4 entry (boundary-tag tiling) and
        // >= 1.5x the committed PR 5 entry (order-statistic free lists) on
        // the gate workload.
        const PR4_MANAGER_GATE: f64 = 1.3;
        const PR5_MANAGER_GATE: f64 = 1.5;
        let mgr = report.manager_gate_row();
        for (label, gate, speedup) in [
            ("PR 4", PR4_MANAGER_GATE, report.manager_bound_speedup_vs_pr4),
            ("PR 5", PR5_MANAGER_GATE, report.manager_bound_speedup_vs_pr5),
        ] {
            if speedup < gate {
                eprintln!(
                    "REGRESSION: manager-bound replay on {} x {} is only {:.2}x the {label} baseline \
                     (gate {gate}x; {:.0} ev/s now, normalised by the nop row)",
                    mgr.workload, mgr.manager, speedup, mgr.compiled_events_per_sec
                );
                std::process::exit(1);
            }
            eprintln!(
                "manager-bound gate ok: {:.2}x the {label} baseline on {} x {} ({:.0} ev/s end-to-end)",
                speedup, mgr.workload, mgr.manager, mgr.compiled_events_per_sec
            );
        }

        // Sweep gate: projection must pay for itself in replays on the
        // branch-and-bound space, and the peak cut-off must fire. Winner
        // bit-identity was already asserted inside the harness; here the
        // accounting, the replay reduction and the cuts are enforced.
        // Debug builds sweep a prefix too uniform to collapse, so the
        // replay and cut half is release-only; the accounting half always
        // holds.
        for side in [&s.baseline, &s.projected] {
            if side.partitioned != side.enumerated {
                eprintln!(
                    "REGRESSION: {} sweep accounting broken ({} candidates in the buckets vs \
                     {} enumerated)",
                    side.label, side.partitioned, side.enumerated
                );
                std::process::exit(1);
            }
        }
        if !cfg!(debug_assertions) {
            if s.projected.projection_hits == 0 || s.projected.replays >= s.baseline.replays {
                eprintln!(
                    "REGRESSION: projection did not reduce replays ({} projected vs {} \
                     baseline, {} projection hits)",
                    s.projected.replays, s.baseline.replays, s.projected.projection_hits
                );
                std::process::exit(1);
            }
            for side in [&s.baseline, &s.projected] {
                if side.peak_cut == 0 {
                    eprintln!(
                        "REGRESSION: the {} full-space sweep cut no replay at its peak cap \
                         ({} replays)",
                        side.label, side.replays
                    );
                    std::process::exit(1);
                }
            }
            eprintln!(
                "sweep gate ok: replays {} -> {} ({} projection hits, {:.1}% of enumerated \
                 replayed; {} and {} replays cut; {:.2}x wall-clock, not gated)",
                s.baseline.replays, s.projected.replays, s.projected.projection_hits,
                100.0 * s.projected_replay_ratio, s.baseline.peak_cut, s.projected.peak_cut,
                s.sweep_wallclock_speedup
            );
        } else {
            eprintln!("sweep gate: accounting ok (replay half is release-only)");
        }
    }
}
