//! `design-cases`: the paper's Table-1 protocol at case-study scale. For
//! each DRR, reconstruction and rendering trace, the greedy methodology
//! designs a manager on a fresh engine (per phase, composed into a global
//! manager, for phased traces — what `dmm_bench::design_custom_with`
//! does), then the design and the four comparators replay the trace
//! through the compiled kernel.
//!
//! The timed designs use case-study seeds `0..TIMED_SEEDS`: over five
//! seed-derived sets the designed footprint alone moved by 10%, so timing
//! them would measure the inputs as much as the program. Each run also
//! designs for `SEEDED_SEEDS` seeds derived from `--seed`, checks those
//! designs the same way and reports their time as `seeded.pass_s`.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use dmm_core::manager::{Allocator, GlobalManager};
use dmm_core::methodology::{EngineCounters, ExplorationEngine, Methodology};
use dmm_core::metrics::FootprintStats;
use dmm_core::space::DmConfig;
use dmm_core::trace::{replay, replay_compiled};
use dmm_core::PolicyAllocator;
use dmm_workloads::{DrrWorkload, ReconWorkload, RenderWorkload, Workload};

use crate::cli::Args;
use crate::layers::{add_counters, construct_us, peak_rss_mb, ArmSample, Report};
use crate::setup::{self, Prepared, SetupParts};
use crate::spans::Tracer;
use crate::stats::ratio;
use crate::{lib, Res};

const TIMED_SEEDS: u64 = 8;
const SEEDED_SEEDS: u64 = 2;

const NAME: &str = "our DM manager";

/// What one design produced.
#[derive(Debug, Clone)]
struct Designed {
    /// `(phase, config)`; one entry with phase `u32::MAX` for an atomic
    /// (unphased) design.
    configs: Vec<(u32, DmConfig)>,
    footprint: FootprintStats,
    /// Thread-timing dependent with more than one worker: two workers can
    /// both miss on one config.
    counters: EngineCounters,
}

impl Designed {
    fn manager(&self) -> Res<Box<dyn Allocator>> {
        match self.configs.as_slice() {
            [(u32::MAX, cfg)] => Ok(Box::new(lib(PolicyAllocator::new(cfg.clone()))?)),
            phased => Ok(Box::new(lib(GlobalManager::new_mapped(
                format!("{NAME} [global]"),
                phased.to_vec(),
            ))?)),
        }
    }
}

/// One worker: the pass is timed in CPU seconds, and with two workers on
/// the host's two cores the time the pair spent handing work to each other
/// moved the pass by up to a tenth from run to run.
fn design(p: &Prepared) -> Res<Designed> {
    let engine = ExplorationEngine::new(1);
    let m = Methodology::new().with_name(NAME);
    let (configs, footprint) = if p.trace.phases().len() > 1 {
        let o = lib(m.explore_phases_with_engine(&p.trace, &engine))?;
        (o.phase_configs, o.footprint)
    } else {
        let o = lib(m.explore_with_engine(&p.trace, &engine))?;
        (vec![(u32::MAX, o.config)], o.footprint)
    };
    Ok(Designed {
        configs,
        footprint,
        counters: engine.counters(),
    })
}

/// Run `f`, turning a panic into an error so one failure is counted, not
/// fatal.
fn guarded<T>(f: impl FnOnce() -> Res<T>) -> Res<T> {
    catch_unwind(AssertUnwindSafe(f)).unwrap_or_else(|_| Err("panicked".into()))
}

/// One trace's design and Table-1 row.
#[derive(Debug, Clone)]
struct Case {
    design: Option<Designed>,
    /// The design's compiled replay, then the four comparators'.
    row: Vec<Option<FootprintStats>>,
    design_replay_s: f64,
}

impl Case {
    fn same(&self, other: &Case) -> bool {
        let answer = |c: &Case| {
            c.design
                .as_ref()
                .map(|d| (d.configs.clone(), d.footprint.clone()))
        };
        answer(self) == answer(other) && self.row == other.row
    }

    /// Operations attempted and failed.
    fn ops(&self) -> (u64, u64) {
        let failed = u64::from(self.design.is_none())
            + self.row.iter().filter(|r| r.is_none()).count() as u64;
        (1 + self.row.len() as u64, failed)
    }
}

fn case(p: &Prepared, tr: &mut Tracer) -> Case {
    let design = tr.span("greedy.design", |_| guarded(|| design(p)));
    let d = match design {
        Ok(d) => d,
        Err(e) => {
            eprintln!("{}: design failed: {e}", p.name);
            return Case {
                design: None,
                row: Vec::new(),
                design_replay_s: 0.0,
            };
        }
    };
    let t = Instant::now();
    let mut row = vec![tr.span("trace.replay", |_| {
        guarded(|| lib(replay_compiled(&p.compiled, d.manager()?.as_mut())))
    })];
    let design_replay_s = t.elapsed().as_secs_f64();
    for mut mgr in dmm_bench::comparators(&p.trace, false) {
        row.push(tr.span("baselines.replay", |_| {
            guarded(|| lib(replay_compiled(&p.compiled, mgr.as_mut())))
        }));
    }
    let row = row
        .into_iter()
        .map(|r| {
            r.inspect_err(|e| eprintln!("{}: replay failed: {e}", p.name))
                .ok()
        })
        .collect();
    Case {
        design: Some(d),
        row,
        design_replay_s,
    }
}

fn studies(seed: u64, parts: &mut SetupParts) -> Res<Vec<Prepared>> {
    let studies: [Box<dyn Workload>; 3] = [
        Box::new(DrrWorkload::case_study(seed)),
        Box::new(ReconWorkload::case_study(seed)),
        Box::new(RenderWorkload::case_study(seed)),
    ];
    studies
        .iter()
        .map(|w| setup::prepare(w.name().to_string(), || lib(w.record()), parts))
        .collect()
}

pub fn run(args: &Args) -> Res<Report> {
    let mut report = Report::default();
    // About 0.85 s per set-up on a 2-core Xeon VM: recording 30 case-study
    // traces. Seven set-ups take a fifth of a 30 s run.
    let build = |parts: &mut SetupParts| -> Res<(Vec<Prepared>, Vec<Prepared>)> {
        let mut timed = Vec::new();
        for s in 0..TIMED_SEEDS {
            timed.extend(studies(s, parts)?);
        }
        let mut seeded = Vec::new();
        for i in 0..SEEDED_SEEDS {
            seeded.extend(studies(
                args.seed
                    .wrapping_mul(SEEDED_SEEDS)
                    .wrapping_add(1_000_000 + i),
                parts,
            )?);
        }
        Ok((timed, seeded))
    };
    let ((timed_inputs, seeded_inputs), first) = setup::set_up(build)?;

    let timed = setup::rounds(
        args.seconds,
        timed_inputs.len(),
        |u| case(&timed_inputs[u], &mut Tracer::new(false)),
        Case::same,
        6, // more set-ups
        || Ok(setup::set_up(build)?.1),
    )?;
    let parts = setup::fastest_parts(&first, &timed.setups);
    let pass_s = timed.pass_cpu_s();
    let wall_s = timed.pass_wall_s();
    report.passes = timed.round_s();

    let t = Instant::now();
    let seeded: Vec<Case> = seeded_inputs
        .iter()
        .map(|p| case(p, &mut Tracer::new(false)))
        .collect();
    let seeded_s = t.elapsed().as_secs_f64();
    for (p, c) in timed_inputs
        .iter()
        .zip(&timed.first)
        .chain(seeded_inputs.iter().zip(&seeded))
    {
        let (attempted, failed) = c.ops();
        report.attempted += attempted;
        report.failed += failed;
        check(&mut report, p, c)?;
    }

    report.e2e("pass_cpu_s", pass_s);
    report.layer("run.pass_wall_s", wall_s);
    report.e2e("setup_s", parts.total_s);
    report.e2e(
        "peak_footprint_bytes",
        timed
            .first
            .iter()
            .filter_map(|c| c.design.as_ref())
            .map(|d| d.footprint.peak_footprint as f64)
            .sum(),
    );

    if args.trace {
        traced(&mut report, args, &timed_inputs, wall_s, &parts)?;
        report.layer("seeded.pass_s", seeded_s);
    }
    report.e2e("peak_rss_mb", peak_rss_mb());
    Ok(report)
}

/// Designed configurations validate, and re-replaying them through the
/// classic interpreter reproduces both the methodology's statistics and
/// the compiled Table-1 replay.
fn check(report: &mut Report, p: &Prepared, c: &Case) -> Res<()> {
    let Some(d) = &c.design else { return Ok(()) };
    for (_, cfg) in &d.configs {
        report.check(cfg.validate().is_ok(), || {
            format!("{}: designed config does not validate", p.name)
        });
    }
    let classic = lib(replay(&p.trace, d.manager()?.as_mut()))?;
    let same = |a: &FootprintStats, b: &FootprintStats| {
        (
            a.peak_footprint,
            a.final_footprint,
            a.peak_requested,
            a.events,
            &a.stats,
        ) == (
            b.peak_footprint,
            b.final_footprint,
            b.peak_requested,
            b.events,
            &b.stats,
        )
    };
    report.check(same(&classic, &d.footprint), || {
        format!(
            "{}: design re-replays to {} B, methodology reported {} B",
            p.name, classic.peak_footprint, d.footprint.peak_footprint
        )
    });
    if let Some(Some(compiled)) = c.row.first() {
        report.check(same(&classic, compiled), || {
            format!(
                "{}: compiled and classic replays of the design differ",
                p.name
            )
        });
    }
    Ok(())
}

/// One more round of the timed designs with a span around each design and
/// replay call.
fn traced(
    report: &mut Report,
    args: &Args,
    inputs: &[Prepared],
    wall_s: f64,
    parts: &SetupParts,
) -> Res<()> {
    let mut tr = Tracer::new(true);
    let cases: Vec<Case> = tr.span("pass", |tr| inputs.iter().map(|p| case(p, tr)).collect());
    let traced_s = tr.total("pass");
    let designs = || cases.iter().filter_map(|c| c.design.as_ref());
    let c = designs().fold(EngineCounters::default(), |a, d| {
        add_counters(a, d.counters)
    });
    let mut arms = Vec::new();
    let mut replay_s = Vec::new();
    let (mut events, mut steps, mut splits, mut coalesces, mut sbrk) =
        (0usize, 0u64, 0u64, 0u64, 0u64);
    for (p, case) in inputs.iter().zip(&cases) {
        let (Some(d), Some(Some(fs))) = (&case.design, case.row.first()) else {
            continue;
        };
        if let [(u32::MAX, cfg)] = d.configs.as_slice() {
            arms.push(ArmSample::of(
                cfg,
                case.design_replay_s,
                fs.stats.search_steps,
            ));
        }
        replay_s.push(case.design_replay_s);
        events += p.trace.len();
        (steps, splits, coalesces, sbrk) = (
            steps + fs.stats.search_steps,
            splits + fs.stats.splits,
            coalesces + fs.stats.coalesces,
            sbrk + fs.stats.sbrk_calls,
        );
    }
    let construct: Vec<f64> = designs()
        .flat_map(|d| d.configs.iter().map(|(_, c)| construct_us(c.clone())))
        .collect();
    report.layer("workloads.record_s", parts.record_s);
    report.layer("workloads.events", parts.events as f64);
    report.layer("store.decode_s", parts.decode_s);
    report.layer("trace.compile_s", parts.compile_s);
    report.replays(&replay_s, events as u64);
    report.layer("cache.structural_hits", c.cache_hits as f64);
    report.layer(
        "cache.hit_ratio",
        ratio(c.cache_hits as f64, c.evaluations as f64),
    );
    report.layer("engine.evaluations", c.evaluations as f64);
    report.layer("engine.replays", c.replays as f64);
    report.layer(
        "engine.replay_frac",
        ratio(c.replays as f64, c.evaluations as f64),
    );
    report.layer("greedy.design_s", tr.total("greedy.design"));
    report.layer("greedy.evaluations", c.evaluations as f64);
    report.layer("greedy.replays", c.replays as f64);
    report.layer("manager.construct_us", crate::stats::median(&construct));
    report.layer("manager.search_steps", steps as f64);
    report.layer(
        "manager.steps_per_us",
        ratio(steps as f64, replay_s.iter().sum::<f64>() * 1e6),
    );
    report.layer("manager.splits", splits as f64);
    report.layer("manager.coalesces", coalesces as f64);
    report.layer("manager.sbrk_calls", sbrk as f64);
    report.layer("baselines.replay_s", tr.total("baselines.replay"));
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
