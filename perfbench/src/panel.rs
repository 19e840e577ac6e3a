//! `replay-panel`: no engine, just manager construction and the compiled
//! replay kernel over a fixed panel of configurations — the four presets
//! plus a fixed-stride sample of the enumerated space on a case-study DRR
//! trace, and the presets again on two synthetic traces at full scale:
//! `large_churn` (allocation-heavy growth) and `adversarial_fragmentation`
//! (free/coalesce-heavy stranding).
//!
//! Panel replay time moves with the traffic seed (a stride-97 panel took
//! 4.0 to 8.6 s over five seeds on a 2-core Xeon VM), so the timed panel
//! is built from seed 0 and its classic-interpreter results are stored in
//! `reference_panel.tsv`. Each
//! run also builds the same traces from a seed derived from `--seed`,
//! replays the presets and a sparser sample on them, checks every result
//! against the classic interpreter and reports their time as
//! `seeded.pass_s`.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use dmm_core::metrics::FootprintStats;
use dmm_core::space::enumerate::SpaceIter;
use dmm_core::space::order::TRAVERSAL_ORDER;
use dmm_core::space::{presets, DmConfig};
use dmm_core::trace::{replay, replay_compiled_with, ReplayScratch, Trace};
use dmm_core::PolicyAllocator;
use dmm_workloads::synthetic::{adversarial_fragmentation, large_churn};
use dmm_workloads::{DrrWorkload, Workload};

use crate::cli::Args;
use crate::layers::{peak_rss_mb, ArmSample, Report};
use crate::setup::{self, Prepared, SetupParts};
use crate::spans::Tracer;
use crate::stats::{median, ratio};
use crate::{lib, Res};

/// Every `STRIDE`-th configuration of the enumerated space joins the
/// timed panel on the DRR trace; every `SEEDED_STRIDE`-th the seeded one.
/// At stride 503 one round of the panel takes about 2 s of CPU, so a 30 s
/// run repeats each replay about 15 times: enough for its fastest
/// repetition to be steady (at stride 193, 6 s rounds and 5 repetitions
/// moved the pass by a third between runs).
const STRIDE: usize = 503;
const SEEDED_STRIDE: usize = 997;

/// Classic-interpreter results of the timed panel, one line per replay:
/// `trace config_fingerprint peak_footprint search_steps` (regenerate with
/// `dmm-perfbench --make-reference replay-panel`).
const REFERENCE: &str = include_str!("../reference_panel.tsv");

type Generator = Box<dyn Fn() -> Res<Trace>>;

/// The panel traces for one seed: `(name, generator)`.
fn traces(seed: u64) -> [(String, Generator); 3] {
    [
        (
            format!("DRR case study seed {seed}"),
            Box::new(move || lib(DrrWorkload::case_study(seed).record())),
        ),
        (
            format!("large_churn seed {seed}"),
            Box::new(move || Ok(large_churn(seed, 6, 40_000))),
        ),
        (
            format!("adversarial_fragmentation seed {seed}"),
            Box::new(move || Ok(adversarial_fragmentation(seed, 6, 10_000))),
        ),
    ]
}

/// `(trace index, config)` in replay order: presets plus every `stride`-th
/// enumerated config on the DRR trace, presets on the others.
fn panel(stride: usize, parts: &mut SetupParts) -> Vec<(usize, DmConfig)> {
    let t = crate::setup::cpu_s();
    let sample: Vec<DmConfig> =
        SpaceIter::with_order_and_params(TRAVERSAL_ORDER.to_vec(), crate::sweep::params())
            .step_by(stride)
            .collect();
    parts.enumerated(setup::cpu_s() - t);
    let mut panel: Vec<(usize, DmConfig)> = presets::all()
        .into_iter()
        .chain(sample)
        .map(|c| (0, c))
        .collect();
    for ti in 1..3 {
        panel.extend(presets::all().into_iter().map(|c| (ti, c)));
    }
    panel
}

struct Inputs {
    traces: Vec<Prepared>,
    panel: Vec<(usize, DmConfig)>,
    seeded_traces: Vec<Prepared>,
    seeded_panel: Vec<(usize, DmConfig)>,
}

/// One replay: construction time and the result.
#[derive(Debug, Clone, PartialEq)]
struct Replayed {
    construct_s: f64,
    stats: Option<FootprintStats>,
}

fn replay_one(p: &Prepared, cfg: &DmConfig, scratch: &mut ReplayScratch) -> Replayed {
    let t = Instant::now();
    let mut construct_s = 0.0;
    let stats = catch_unwind(AssertUnwindSafe(|| -> Res<FootprintStats> {
        let mut mgr = lib(PolicyAllocator::new(cfg.clone()))?;
        construct_s = t.elapsed().as_secs_f64();
        lib(replay_compiled_with(&p.compiled, &mut mgr, scratch))
    }))
    .unwrap_or_else(|_| Err("panicked".into()));
    if let Err(e) = &stats {
        eprintln!("{} × {}: replay failed: {e}", p.name, cfg.name);
    }
    Replayed {
        construct_s,
        stats: stats.ok(),
    }
}

/// Print the reference table: the timed panel replayed by the classic
/// interpreter.
pub fn make_reference() -> Res<String> {
    let mut parts = SetupParts::default();
    let traces: Vec<Trace> = traces(0)
        .into_iter()
        .map(|(_, g)| g())
        .collect::<Res<_>>()?;
    let mut out = String::from("# trace\tconfig_fingerprint\tpeak_footprint\tsearch_steps\n");
    for (ti, cfg) in panel(STRIDE, &mut parts) {
        let mut mgr = lib(PolicyAllocator::new(cfg.clone()))?;
        let fs = lib(replay(&traces[ti], &mut mgr))?;
        out.push_str(&format!(
            "{ti}\t{:016x}\t{}\t{}\n",
            cfg.fingerprint(),
            fs.peak_footprint,
            fs.stats.search_steps
        ));
    }
    Ok(out)
}

pub fn run(args: &Args) -> Res<Report> {
    let mut report = Report::default();
    // About 0.35 s per set-up on a 2-core Xeon VM.
    let build = |parts: &mut SetupParts| -> Res<Inputs> {
        let prepare = |seed: u64, parts: &mut SetupParts| -> Res<Vec<Prepared>> {
            traces(seed)
                .into_iter()
                .map(|(name, g)| setup::prepare(name, g, parts))
                .collect()
        };
        Ok(Inputs {
            traces: prepare(0, parts)?,
            panel: panel(STRIDE, parts),
            seeded_traces: prepare(args.seed.wrapping_add(1_000_000), parts)?,
            seeded_panel: panel(SEEDED_STRIDE, parts),
        })
    };
    let (inputs, first) = setup::set_up(build)?;

    let mut scratch = ReplayScratch::new();
    let timed = setup::rounds(
        args.seconds,
        inputs.panel.len(),
        |u| {
            let (ti, cfg) = &inputs.panel[u];
            replay_one(&inputs.traces[*ti], cfg, &mut scratch).stats
        },
        |a, b| a == b,
        10, // more set-ups
        || Ok(setup::set_up(build)?.1),
    )?;
    let parts = setup::fastest_parts(&first, &timed.setups);
    let pass_s = timed.pass_cpu_s();
    let wall_s = timed.pass_wall_s();
    report.passes = timed.round_s();
    let results = &timed.first;

    let t = Instant::now();
    let seeded: Vec<Replayed> = inputs
        .seeded_panel
        .iter()
        .map(|(ti, cfg)| replay_one(&inputs.seeded_traces[*ti], cfg, &mut scratch))
        .collect();
    let seeded_s = t.elapsed().as_secs_f64();
    check(&mut report, &inputs, results, &seeded)?;

    report.e2e("pass_cpu_s", pass_s);
    report.layer("run.pass_wall_s", wall_s);
    report.e2e("setup_s", parts.total_s);
    report.e2e(
        "peak_footprint_bytes",
        results
            .iter()
            .flatten()
            .map(|s| s.peak_footprint as f64)
            .sum(),
    );

    if args.trace {
        traced(&mut report, args, &inputs, wall_s, &parts, &mut scratch)?;
        report.layer("seeded.pass_s", seeded_s);
    }
    report.e2e("peak_rss_mb", peak_rss_mb());
    Ok(report)
}

/// Timed results against the stored classic results; seeded results
/// against the classic interpreter run now. Failed replays are counted.
fn check(
    report: &mut Report,
    inputs: &Inputs,
    results: &[Option<FootprintStats>],
    seeded: &[Replayed],
) -> Res<()> {
    report.attempted = (results.len() + seeded.len()) as u64;
    report.failed = (results.iter().filter(|r| r.is_none()).count()
        + seeded.iter().filter(|r| r.stats.is_none()).count()) as u64;
    let reference: Vec<&str> = REFERENCE
        .lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
        .collect();
    report.check(reference.len() == results.len(), || {
        format!(
            "reference_panel.tsv has {} rows for {} panel replays",
            reference.len(),
            results.len()
        )
    });
    for (((ti, cfg), r), line) in inputs.panel.iter().zip(results).zip(&reference) {
        let Some(s) = r else { continue };
        let got = format!(
            "{ti}\t{:016x}\t{}\t{}",
            cfg.fingerprint(),
            s.peak_footprint,
            s.stats.search_steps
        );
        report.check(got == *line, || {
            format!(
                "{} × {}: replay gave {got:?}, reference {line:?}",
                inputs.traces[*ti].name, cfg.name
            )
        });
    }
    for ((ti, cfg), r) in inputs.seeded_panel.iter().zip(seeded) {
        let Some(s) = &r.stats else { continue };
        let p = &inputs.seeded_traces[*ti];
        let mut mgr = lib(PolicyAllocator::new(cfg.clone()))?;
        let classic = lib(replay(&p.trace, &mut mgr))?;
        report.check(classic == *s, || {
            format!(
                "{} × {}: compiled replay {} B differs from classic {} B",
                p.name, cfg.name, s.peak_footprint, classic.peak_footprint
            )
        });
    }
    Ok(())
}

/// One more round of the timed panel with a span around every replay.
fn traced(
    report: &mut Report,
    args: &Args,
    inputs: &Inputs,
    wall_s: f64,
    parts: &SetupParts,
    scratch: &mut ReplayScratch,
) -> Res<()> {
    let mut tr = Tracer::new(true);
    let traced: Vec<Replayed> = tr.span("panel", |tr| {
        inputs
            .panel
            .iter()
            .map(|(ti, cfg)| {
                tr.span("trace.replay", |_| {
                    replay_one(&inputs.traces[*ti], cfg, scratch)
                })
            })
            .collect()
    });
    let traced_s = tr.total("panel");
    let secs = tr.durations("trace.replay", None);
    let ok: Vec<(&DmConfig, f64, &FootprintStats)> = inputs
        .panel
        .iter()
        .zip(&traced)
        .zip(&secs)
        .filter_map(|(((_, c), r), secs)| r.stats.as_ref().map(|s| (c, *secs, s)))
        .collect();
    let arms: Vec<ArmSample> = ok
        .iter()
        .map(|(c, secs, s)| ArmSample::of(c, *secs, s.stats.search_steps))
        .collect();
    let sum = |f: fn(&FootprintStats) -> u64| ok.iter().map(|(_, _, s)| f(s)).sum::<u64>() as f64;
    let steps = sum(|s| s.stats.search_steps);
    let events: usize = inputs
        .panel
        .iter()
        .map(|(ti, _)| inputs.traces[*ti].trace.len())
        .sum();
    let construct: Vec<f64> = traced.iter().map(|r| r.construct_s * 1e6).collect();
    report.layer("workloads.record_s", parts.record_s);
    report.layer("workloads.events", parts.events as f64);
    report.layer("store.decode_s", parts.decode_s);
    report.layer("trace.compile_s", parts.compile_s);
    report.replays(&secs, events as u64);
    report.layer("space.enumerate_s", parts.enumerate_s);
    report.layer(
        "space.enumerated",
        inputs.panel.iter().filter(|(ti, _)| *ti == 0).count() as f64,
    );
    report.layer("manager.construct_us", median(&construct));
    report.layer("manager.search_steps", steps);
    report.layer(
        "manager.steps_per_us",
        ratio(steps, secs.iter().sum::<f64>() * 1e6),
    );
    report.layer("manager.splits", sum(|s| s.stats.splits));
    report.layer("manager.coalesces", sum(|s| s.stats.coalesces));
    report.layer("manager.sbrk_calls", sum(|s| s.stats.sbrk_calls));
    report.arms(&arms);
    report.layer(
        "run.failed_frac",
        ratio(report.failed as f64, report.attempted as f64),
    );
    report.layer("tracing.overhead_s", traced_s - wall_s);
    report.layer("tracing.overhead_frac", ratio(traced_s - wall_s, wall_s));
    tr.write(&crate::spans_path(args))
        .map_err(|e| e.to_string())
}
