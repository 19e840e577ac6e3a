//! Replay inner-loop benchmark: classic interpreter vs compiled kernel.
//!
//! Measures events/second for [`dmm_core::trace::replay`] (per-event
//! hashing, dyn dispatch) against [`dmm_core::trace::replay_compiled_with`]
//! (slot-resolved events, monomorphized, reused scratch) on the paper
//! workloads plus `synthetic::large_churn`, asserting bit-identical
//! statistics first, and writes the machine-readable trajectory to
//! `BENCH_replay.json` (full scale) or `target/BENCH_replay.quick.json`
//! (`--quick`, so a smoke run never overwrites the committed full-scale
//! record); `--out=PATH` overrides either. Every row's events/second is
//! the median of 5 timed windows; each workload's nop and DRR-manager
//! compiled windows alternate.
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
//!    must be at least 1.3× the committed PR 4 baseline, normalised by
//!    the same run's nop row so machine speed cancels (see
//!    `dmm_bench::GateBaseline`). The two rows' compiled windows are
//!    timed in 5 interleaved pairs (nop, DRR, nop, DRR, …) and the gate
//!    reads the median of the per-pair DRR/nop ratios, so a slow spell
//!    of the host lands on both sides of a ratio and one noisy pair
//!    cannot fail the gate. This is the boundary-tag tiling's speedup
//!    staying regression-guarded;
//! 3. **manager-bound gate vs PR 5** — the same row must be at least
//!    1.5× the PR 5 baseline, guarding the order-statistic free-list
//!    layer's speedup (lazy rank replica, bitmap size set, O(1) hit
//!    charges) at both quick and full scale;
//! 4. **sweep gate** — both sweeps' counters must partition the
//!    enumerated space; the plain serial (baseline) sweep must fire both
//!    the static and the bound prune and, with no fault plan or budget
//!    installed, quarantine nothing and trip no budget; in release builds
//!    the projected sweep must fire the projection tier and strictly
//!    reduce replays against the baseline, and each full-space sweep must
//!    cut at least one losing replay short at its peak cap, with the
//!    winner bit-identical (asserted inside the harness). The gate counts;
//!    it never times. The wall-clock ratio is printed and recorded, but
//!    sweep wall-clock is a benchmark figure (`perfbench`'s sweep-drr
//!    workload), not a pass/fail check;
//! 5. **index gate** — on the free-index churn probe (a 255-block
//!    ascending run, the blocks a fixed-class `grow` slices from one
//!    granule, inserted and then taken back by first-fit searches, with 0,
//!    100 and 1,000 other entries present; median of 5 repeats per cell),
//!    the address-ordered list must cost at most 3× the size-ordered tree
//!    at every background, in the same run. Both are ordered structures
//!    whose searches always run a query; the linked lists' first-fit
//!    takes all hit the list head, which reads no replica, so they are no
//!    yardstick for an ordered index.

fn main() {
    let opts = dmm_bench::opts::parse();
    let args: Vec<String> = std::env::args().collect();
    let check = args.iter().any(|a| a == "--check");
    let default_out = if opts.quick {
        "target/BENCH_replay.quick.json"
    } else {
        "BENCH_replay.json"
    };
    let out = args
        .iter()
        .find_map(|a| a.strip_prefix("--out="))
        .unwrap_or(default_out)
        .to_string();

    let (table, report) = dmm_bench::replay_hot(opts.quick).expect("replay_hot harness failed");
    let churn_table = report.index_churn.table();
    if opts.csv {
        print!("{}", table.to_csv());
        print!("{}", churn_table.to_csv());
    } else {
        print!("{}", table.to_ascii());
        print!("{}", churn_table.to_ascii());
    }
    if let Some(dir) = std::path::Path::new(&out).parent() {
        std::fs::create_dir_all(dir).expect("failed to create the report's directory");
    }
    std::fs::write(&out, report.to_json()).expect("failed to write the JSON report");
    eprintln!("wrote {out}");
    let s = &report.sweep;
    for side in [&s.baseline, &s.projected] {
        eprintln!(
            "{} sweep ({}): {} enumerated -> {}; {} replays cut, {:.3}s",
            side.label,
            s.workload,
            side.enumerated,
            side.counters,
            side.peak_cut,
            side.wallclock_secs
        );
    }
    eprintln!(
        "sweep: {:.2}x wall-clock, {:.1}% of enumerated replayed",
        s.sweep_wallclock_speedup,
        100.0 * s.projected_replay_ratio
    );

    if check {
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
            (
                "PR 4",
                PR4_MANAGER_GATE,
                report.manager_bound_speedup_vs_pr4,
            ),
            (
                "PR 5",
                PR5_MANAGER_GATE,
                report.manager_bound_speedup_vs_pr5,
            ),
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

        // Sweep gate: the buckets (including the resilience counters) must
        // partition the enumerated space, both prune kinds must fire on the
        // baseline sweep, an uninjected, unbudgeted sweep must be
        // fault-free, projection must pay for itself in replays, and the
        // peak cut-off must fire. Winner bit-identity was already asserted
        // inside the harness. Debug builds sweep a prefix too uniform to
        // collapse, so the replay and cut half is release-only.
        for side in [&s.baseline, &s.projected] {
            if side.counters.candidates() != side.enumerated {
                eprintln!(
                    "REGRESSION: {} sweep accounting broken ({} candidates in the buckets vs \
                     {} enumerated)",
                    side.label,
                    side.counters.candidates(),
                    side.enumerated
                );
                std::process::exit(1);
            }
        }
        let (base, projected) = (&s.baseline.counters, &s.projected.counters);
        if base.statically_pruned == 0 || base.bound_pruned == 0 {
            eprintln!(
                "REGRESSION: a prune kind never fired on the baseline sweep ({} statically, \
                 {} bound pruned)",
                base.statically_pruned, base.bound_pruned
            );
            std::process::exit(1);
        }
        if base.quarantined != 0 || base.budget_exceeded != 0 {
            eprintln!(
                "REGRESSION: healthy sweep reported faults ({} quarantined, {} budget \
                 exceeded) with no fault plan or budget installed",
                base.quarantined, base.budget_exceeded
            );
            std::process::exit(1);
        }
        eprintln!(
            "sweep gate: accounting ok, {:.1}% bound pruned, {:.1}% statically pruned",
            100.0 * base.bound_pruned as f64 / s.baseline.enumerated as f64,
            100.0 * base.statically_pruned as f64 / s.baseline.enumerated as f64
        );
        if !cfg!(debug_assertions) {
            if projected.projection_hits == 0 || projected.replays >= base.replays {
                eprintln!(
                    "REGRESSION: projection did not reduce replays ({} projected vs {} \
                     baseline, {} projection hits)",
                    projected.replays, base.replays, projected.projection_hits
                );
                std::process::exit(1);
            }
            for side in [&s.baseline, &s.projected] {
                if side.peak_cut == 0 {
                    eprintln!(
                        "REGRESSION: the {} full-space sweep cut no replay at its peak cap \
                         ({} replays)",
                        side.label, side.counters.replays
                    );
                    std::process::exit(1);
                }
            }
            eprintln!(
                "sweep gate ok: replays {} -> {} ({} projection hits, {:.1}% of enumerated \
                 replayed; {} and {} replays cut; {:.2}x wall-clock, not gated)",
                base.replays,
                projected.replays,
                projected.projection_hits,
                100.0 * s.projected_replay_ratio,
                s.baseline.peak_cut,
                s.projected.peak_cut,
                s.sweep_wallclock_speedup
            );
        } else {
            eprintln!("sweep gate: accounting ok (replay half is release-only)");
        }

        // Index gate: the address-ordered list's sliced-granule churn must
        // stay within a small factor of the size-ordered tree's.
        const ADDR_VS_SIZE_TREE_GATE: f64 = 3.0;
        let churn = &report.index_churn;
        if churn.addr_vs_size_tree > ADDR_VS_SIZE_TREE_GATE {
            eprintln!(
                "REGRESSION: address-ordered index churn costs {:.2}x the size-ordered tree \
                 (gate {ADDR_VS_SIZE_TREE_GATE}x)",
                churn.addr_vs_size_tree
            );
            std::process::exit(1);
        }
        eprintln!(
            "index gate ok: address-ordered churn at most {:.2}x the size-ordered tree",
            churn.addr_vs_size_tree
        );
    }
}
