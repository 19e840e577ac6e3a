//! `sweep-drr`: the branch-and-bound sweep of all 39,840 configurations
//! over DRR traffic.
//!
//! Sweep wall-clock is bimodal across traffic seeds: at 100 ms of traffic
//! a sweep takes, on a 2-core Xeon VM, either 0.1–1 s (the bound prunes
//! almost everything) or 3.5–6 s (it cannot), with no trace property that
//! predicts which (40 seeds measured). No sample of seeded traces that
//! fits in one run averages that out, so the timed pass sweeps a fixed
//! panel of traffic seeds, `PANEL_SEEDS`, whose winners were computed once
//! by the unpruned `exhaustive_best` fold and are stored in
//! `reference_sweep.tsv`. Every
//! run also sweeps one trace derived from `--seed`, checked against the
//! classic interpreter and reported as `seeded.pass_s`.
//!
//! The traces are 60 ms long so that no single sweep takes more than about
//! 2 s: the timed loop repeats each sweep and keeps its fastest time, which
//! only steadies the figure when a sweep is short next to the host's slow
//! spells. Two of the ten still sweep in the regime where the bound cannot
//! prune (7,200 replays each).

use std::hint::black_box;
use std::time::Instant;

use dmm_core::analyze::{prune_reason, rank_by_bound, TraceFacts};
use dmm_core::methodology::cache::{ProjectedKey, TraceKey, TraceProjection};
use dmm_core::methodology::{
    exhaustive_best, exhaustive_best_with_engine, EngineCounters, ExplorationEngine, Incumbent,
};
use dmm_core::space::enumerate::SpaceIter;
use dmm_core::space::order::TRAVERSAL_ORDER;
use dmm_core::space::{DmConfig, Params};
use dmm_core::trace::{replay, Trace};
use dmm_core::units::MIN_BLOCK;
use dmm_core::PolicyAllocator;
use dmm_netbench::DrrConfig;
use dmm_trafficgen::TrafficConfig;
use dmm_workloads::{DrrWorkload, Workload};

use crate::cli::Args;
use crate::layers::{add_counters, construct_us, peak_rss_mb, ArmSample, Report};
use crate::setup::{self, Prepared, SetupParts};
use crate::spans::Tracer;
use crate::stats::{median, ratio};
use crate::{lib, Res};

/// Traffic duration of every swept trace.
const DURATION_MS: u64 = 60;

/// Traffic seeds of the timed panel.
const PANEL_SEEDS: std::ops::Range<u64> = 0..10;

/// Winners of the unpruned fold, one line per panel seed:
/// `seed duration_ms events fingerprint peak` (regenerate with
/// `dmm-perfbench --make-reference sweep-drr`).
const REFERENCE: &str = include_str!("../reference_sweep.tsv");

/// The sweep's parameters: those of `sweep_comparison`.
pub(crate) fn params() -> Params {
    let mut params = Params::footprint_optimised();
    params.profiled_classes = vec![MIN_BLOCK, 2 * MIN_BLOCK, 4 * MIN_BLOCK, 8 * MIN_BLOCK];
    params
}

fn engine() -> ExplorationEngine {
    ExplorationEngine::new(2)
        .with_projection(true)
        .with_quarantine(true)
}

fn drr_trace(seed: u64) -> Res<Trace> {
    let w = DrrWorkload::with_configs(
        seed,
        TrafficConfig {
            duration_ms: DURATION_MS,
            ..TrafficConfig::drr_case_study(seed)
        },
        DrrConfig {
            quantum: 1500,
            link_rate_bps: 12_000_000,
        },
    );
    lib(w.record())
}

/// The traffic seed of the per-run trace: disjoint from the panel.
fn seeded_traffic_seed(seed: u64) -> u64 {
    seed.wrapping_add(1_000_000)
}

/// One sweep's answer and counters.
#[derive(Debug, Clone, PartialEq)]
struct Swept {
    fingerprint: u64,
    peak: usize,
    config: DmConfig,
    counters: EngineCounters,
}

fn sweep(trace: &Trace) -> Res<Swept> {
    let engine = engine();
    let (config, peak, _) = lib(exhaustive_best_with_engine(trace, params(), None, &engine))?;
    Ok(Swept {
        fingerprint: config.fingerprint(),
        peak,
        config,
        counters: engine.counters(),
    })
}

/// Print the reference table: the unpruned fold over each panel trace.
pub fn make_reference() -> Res<String> {
    let mut out = String::from("# seed\tduration_ms\tevents\tfingerprint\tpeak\n");
    for seed in PANEL_SEEDS {
        let trace = drr_trace(seed)?;
        let t = Instant::now();
        let (cfg, peak, _) = lib(exhaustive_best(&trace, params(), None))?;
        eprintln!("seed {seed}: {:.1} s", t.elapsed().as_secs_f64());
        out.push_str(&format!(
            "{seed}\t{DURATION_MS}\t{}\t{:016x}\t{peak}\n",
            trace.len(),
            cfg.fingerprint()
        ));
    }
    Ok(out)
}

/// `(seed, events, fingerprint, peak)` rows of the stored reference.
fn reference() -> Res<Vec<(u64, usize, u64, usize)>> {
    REFERENCE
        .lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
        .map(|l| {
            let f: Vec<&str> = l.split('\t').collect();
            let bad = || format!("malformed reference line {l:?}");
            if f.len() != 5 || f[1].parse::<u64>().ok() != Some(DURATION_MS) {
                return Err(bad());
            }
            Ok((
                f[0].parse().map_err(|_| bad())?,
                f[2].parse().map_err(|_| bad())?,
                u64::from_str_radix(f[3], 16).map_err(|_| bad())?,
                f[4].parse().map_err(|_| bad())?,
            ))
        })
        .collect()
}

struct Inputs {
    panel: Vec<Prepared>,
    seeded: Prepared,
    enumerated: usize,
}

pub fn run(args: &Args) -> Res<Report> {
    let mut report = Report::default();
    // Set-up takes about 8 ms on a 2-core Xeon VM, so 25 repetitions cost
    // nothing.
    let build = |parts: &mut SetupParts| -> Res<Inputs> {
        let mut panel = Vec::new();
        for seed in PANEL_SEEDS {
            panel.push(setup::prepare(
                format!("drr seed {seed}"),
                || drr_trace(seed),
                parts,
            )?);
        }
        let s = seeded_traffic_seed(args.seed);
        let seeded = setup::prepare(format!("drr seed {s}"), || drr_trace(s), parts)?;
        let t = setup::cpu_s();
        let enumerated =
            SpaceIter::with_order_and_params(TRAVERSAL_ORDER.to_vec(), params()).count();
        parts.enumerated(setup::cpu_s() - t);
        Ok(Inputs {
            panel,
            seeded,
            enumerated,
        })
    };
    let (inputs, first) = setup::set_up(build)?;

    // The timed rounds, tracing off.
    let timed = setup::rounds(
        args.seconds,
        inputs.panel.len(),
        |u| sweep(&inputs.panel[u].trace),
        |a, b| a == b,
        24, // more set-ups
        || Ok(setup::set_up(build)?.1),
    )?;
    let parts = setup::fastest_parts(&first, &timed.setups);
    let pass_s = timed.pass_cpu_s();
    let wall_s = timed.pass_wall_s();
    report.passes = timed.round_s();
    let results = timed.first.into_iter().collect::<Res<Vec<_>>>()?;

    let t = Instant::now();
    let seeded = sweep(&inputs.seeded.trace)?;
    let seeded_s = t.elapsed().as_secs_f64();

    check(&mut report, &inputs, &results, &seeded)?;
    report.e2e("pass_cpu_s", pass_s);
    report.layer("run.pass_wall_s", wall_s);
    report.e2e("setup_s", parts.total_s);
    report.e2e(
        "peak_footprint_bytes",
        results.iter().map(|r| r.peak as f64).sum(),
    );

    if args.trace {
        traced(&mut report, args, &inputs, &results, wall_s, &parts)?;
        report.layer("seeded.pass_s", seeded_s);
    }
    report.e2e("peak_rss_mb", peak_rss_mb());
    Ok(report)
}

/// Output checks and failure accounting for every sweep of the run.
fn check(report: &mut Report, inputs: &Inputs, results: &[Swept], seeded: &Swept) -> Res<()> {
    let reference = reference()?;
    report.check(reference.len() == results.len(), || {
        format!(
            "reference_sweep.tsv has {} rows for {} panel traces",
            reference.len(),
            results.len()
        )
    });
    let all = inputs
        .panel
        .iter()
        .zip(results)
        .chain([(&inputs.seeded, seeded)]);
    for (p, r) in all {
        let c = r.counters;
        report.attempted += inputs.enumerated as u64;
        report.failed += (c.quarantined + c.budget_exceeded) as u64;
        let parts = c.evaluations
            + c.projection_hits
            + c.statically_pruned
            + c.bound_pruned
            + c.quarantined
            + c.budget_exceeded;
        report.check(parts == inputs.enumerated, || {
            format!(
                "{}: counters partition {parts} candidates of {} enumerated",
                p.name, inputs.enumerated
            )
        });
        // The winner, replayed by the classic interpreter, has the peak the
        // sweep reported.
        let mut mgr = lib(PolicyAllocator::new(r.config.clone()))?;
        let classic = lib(replay(&p.trace, &mut mgr))?;
        report.check(classic.peak_footprint == r.peak, || {
            format!(
                "{}: winner replays to {} B, sweep reported {} B",
                p.name, classic.peak_footprint, r.peak
            )
        });
    }
    for ((seed, events, fp, peak), (p, r)) in reference.iter().zip(inputs.panel.iter().zip(results))
    {
        report.check(
            p.trace.len() == *events && r.fingerprint == *fp && r.peak == *peak,
            || {
                format!(
                    "{}: winner {:016x} / {} B on {} events, reference (seed {seed}) {fp:016x} / {peak} B on {events} events",
                    p.name,
                    r.fingerprint,
                    r.peak,
                    p.trace.len()
                )
            },
        );
    }
    Ok(())
}

/// How the engine decided one candidate, from its counter deltas.
fn outcome(before: EngineCounters, after: EngineCounters) -> &'static str {
    if after.statically_pruned > before.statically_pruned {
        "static"
    } else if after.bound_pruned > before.bound_pruned {
        "bound"
    } else if after.projection_hits > before.projection_hits {
        "projected"
    } else if after.quarantined > before.quarantined {
        "quarantined"
    } else if after.budget_exceeded > before.budget_exceeded {
        "budget"
    } else if after.cache_hits > before.cache_hits {
        "cached"
    } else {
        "replayed"
    }
}

/// The traced pass: the same sweep through its public steps, one span per
/// step and per candidate.
fn traced(
    report: &mut Report,
    args: &Args,
    inputs: &Inputs,
    untraced: &[Swept],
    wall_s: f64,
    parts: &SetupParts,
) -> Res<()> {
    let mut tr = Tracer::new(true);
    let mut arms = Vec::new();
    let mut totals = EngineCounters::default();
    let (mut steps, mut splits, mut coalesces, mut sbrk, mut replayed_events) =
        (0u64, 0u64, 0u64, 0u64, 0usize);
    for (p, expect) in inputs.panel.iter().zip(untraced) {
        let engine = engine();
        let (configs, winner) = tr.span("sweep", |tr| -> Res<_> {
            let configs: Vec<DmConfig> = tr.span("space.enumerate", |_| {
                SpaceIter::with_order_and_params(TRAVERSAL_ORDER.to_vec(), params()).collect()
            });
            let facts = tr.span("analyze.facts", |_| TraceFacts::of(&p.trace));
            let ranked = tr.span("analyze.rank", |_| rank_by_bound(&facts, &configs));
            let key = TraceKey::of(&p.trace);
            let mut best: Option<(usize, usize)> = None;
            for &(order, bound) in &ranked {
                let incumbent = best.map(|(peak, order)| Incumbent { peak, order });
                let before = engine.counters();
                let eval = tr.span("engine.evaluate", |_| {
                    engine.evaluate_bounded(&p.trace, key, &configs[order], bound, order, incumbent)
                });
                let label = outcome(before, engine.counters());
                tr.label_last(label);
                let Some(eval) = lib(eval)? else { continue };
                if label == "replayed" {
                    let s = &eval.stats.stats;
                    let secs = tr.spans().last().map_or(0.0, |s| s.secs());
                    arms.push(ArmSample::of(&configs[order], secs, s.search_steps));
                    (steps, splits, coalesces, sbrk) = (
                        steps + s.search_steps,
                        splits + s.splits,
                        coalesces + s.coalesces,
                        sbrk + s.sbrk_calls,
                    );
                    replayed_events += p.trace.len();
                }
                let peak = eval.stats.peak_footprint;
                if best.is_none_or(|(bp, bo)| peak < bp || (peak == bp && order < bo)) {
                    best = Some((peak, order));
                }
            }
            Ok((configs, best))
        })?;
        let (peak, order) = winner.ok_or("traced sweep evaluated nothing")?;
        report.check(
            configs[order].fingerprint() == expect.fingerprint && peak == expect.peak,
            || {
                format!(
                    "{}: traced sweep chose {:016x} / {peak} B, untraced {:016x} / {} B",
                    p.name,
                    configs[order].fingerprint(),
                    expect.fingerprint,
                    expect.peak
                )
            },
        );
        totals = add_counters(totals, engine.counters());
        // Work the engine does inside each call, timed on its own.
        tr.span("analyze.lint", |_| {
            black_box(configs.iter().filter(|c| prune_reason(c).is_some()).count())
        });
        let facts = TraceFacts::of(&p.trace);
        tr.span("cache.projection_key", |_| {
            let projection = TraceProjection::of(&facts);
            let keys: Vec<ProjectedKey> = configs
                .iter()
                .map(|c| ProjectedKey::of(c, &projection))
                .collect();
            black_box(keys)
        });
    }
    let traced_s = tr.total("sweep");
    let enumerated = inputs.enumerated * inputs.panel.len();
    let construct: Vec<f64> = SpaceIter::with_order_and_params(TRAVERSAL_ORDER.to_vec(), params())
        .step_by(10)
        .map(construct_us)
        .collect();

    let replayed = tr.durations("engine.evaluate", Some("replayed"));
    let skipped: Vec<f64> = tr
        .spans()
        .iter()
        .filter(|s| s.name == "engine.evaluate" && s.label != "replayed")
        .map(|s| s.secs() * 1e6)
        .collect();
    let busy: f64 = replayed.iter().sum();
    report.layer("workloads.record_s", parts.record_s);
    report.layer("workloads.events", parts.events as f64);
    report.layer("store.decode_s", parts.decode_s);
    report.layer("trace.compile_s", parts.compile_s);
    report.replays(&replayed, replayed_events as u64);
    report.layer("space.enumerate_s", tr.total("space.enumerate"));
    report.layer("space.enumerated", enumerated as f64);
    report.layer("analyze.facts_s", tr.total("analyze.facts"));
    report.layer("analyze.rank_s", tr.total("analyze.rank"));
    report.layer("analyze.lint_s", tr.total("analyze.lint"));
    report.layer("analyze.statically_pruned", totals.statically_pruned as f64);
    report.layer("analyze.bound_pruned", totals.bound_pruned as f64);
    report.layer("cache.projection_key_s", tr.total("cache.projection_key"));
    report.layer("cache.projection_hits", totals.projection_hits as f64);
    report.layer("cache.structural_hits", totals.cache_hits as f64);
    report.layer(
        "cache.hit_ratio",
        ratio(
            (totals.projection_hits + totals.cache_hits) as f64,
            (totals.evaluations + totals.projection_hits) as f64,
        ),
    );
    report.layer("engine.evaluations", totals.evaluations as f64);
    report.layer("engine.replays", totals.replays as f64);
    report.layer(
        "engine.replay_frac",
        ratio(totals.replays as f64, enumerated as f64),
    );
    report.layer("engine.replay_busy_s", busy);
    report.layer("engine.skip_us_p50", median(&skipped));
    report.layer("engine.driver_s", traced_s - tr.total("engine.evaluate"));
    report.layer("engine.quarantined", totals.quarantined as f64);
    report.layer("engine.budget_exceeded", totals.budget_exceeded as f64);
    report.layer("manager.construct_us", median(&construct));
    report.layer("manager.search_steps", steps as f64);
    report.layer("manager.steps_per_us", ratio(steps as f64, busy * 1e6));
    report.layer("manager.splits", splits as f64);
    report.layer("manager.coalesces", coalesces as f64);
    report.layer("manager.sbrk_calls", sbrk as f64);
    report.arms(&arms);
    report.layer(
        "run.failed_frac",
        ratio(report.failed as f64, report.attempted as f64),
    );
    report.layer("tracing.overhead_s", traced_s - wall_s);
    report.layer("tracing.overhead_frac", ratio(traced_s - wall_s, wall_s));
    let parts_sum = totals.evaluations
        + totals.projection_hits
        + totals.statically_pruned
        + totals.bound_pruned
        + totals.quarantined
        + totals.budget_exceeded;
    report.check(parts_sum == enumerated, || {
        format!("traced sweep partitions {parts_sum} of {enumerated} candidates")
    });
    tr.write(&crate::spans_path(args))
        .map_err(|e| e.to_string())
}
