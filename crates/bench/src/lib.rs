//! # dmm-bench
//!
//! The experiment harness: every table and figure of the paper's evaluation
//! is regenerated by a function here (and a thin binary under `src/bin/`):
//!
//! | Paper artefact | Function | Binary |
//! |---|---|---|
//! | Figure 1 (search space) | [`fig1_space_text`] | `fig1_space` |
//! | Figure 2 (interdependencies) | [`fig2_interdep_text`] | `fig2_interdep` |
//! | Figure 3 (A3=none example) | [`fig3_example_text`] | `fig3_example` |
//! | Figure 4 (decision order) | [`fig4_order_ablation`] | `fig4_order_ablation` |
//! | Figure 5 (DRR footprint vs time) | [`fig5_drr_timeline`] | `fig5_drr_timeline` |
//! | Table 1 (max footprint) | [`table1_footprint`] | `table1_footprint` |
//! | Sec. 5 runtime overhead | Criterion bench `perf_overhead` + [`perf_steps_table`] | `perf_steps` |
//! | Sec. 1 static-vs-DM motivation | [`motivation_static`] | `motivation_static` |
//! | design-choice ablations | [`ablation_policies`] | `ablation_policies` |
//!
//! All harness functions take `quick: bool` — `true` shrinks workloads for
//! tests/CI, `false` runs at case-study scale (use release builds).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use dmm_baselines::{
    KingsleyAllocator, LeaAllocator, ObstackAllocator, RegionAllocator, StaticWorstCase,
};
use dmm_core::error::Result;
use dmm_core::manager::{Allocator, GlobalManager, PolicyAllocator};
use dmm_core::methodology::{CompletionStyle, EngineCounters, ExplorationEngine, Methodology};
use dmm_core::metrics::TimeSeries;
use dmm_core::space::order::{format_order, A3_FIRST_ORDER, TRAVERSAL_ORDER};
use dmm_core::space::trees::{Category, TreeId};
use dmm_core::space::{interdep, presets};
use dmm_core::trace::{
    replay, replay_compiled, replay_compiled_sampled, replay_compiled_with, CompiledTrace,
    ReplayScratch, Trace,
};
use dmm_report::{Cell, NamedSeries, Table};
use dmm_workloads::{case_studies, quick_studies, DrrWorkload, Workload};

/// Number of seeded runs averaged per cell (the paper's "set of 10
/// simulations for each DM manager").
pub const PAPER_SEEDS: u64 = 10;

/// Shared command-line parsing for the harness binaries.
pub mod opts {
    /// Parsed harness options.
    #[derive(Debug, Clone, Copy)]
    pub struct Opts {
        /// Use test-scale workloads.
        pub quick: bool,
        /// Emit CSV instead of ASCII.
        pub csv: bool,
        /// Number of seeded runs to average.
        pub seeds: u64,
        /// Exploration worker threads (0 = all cores; results are
        /// bit-identical to a serial run).
        pub jobs: usize,
        /// Shard count for sharded-exploration harnesses.
        pub shards: usize,
    }

    /// Parse `std::env::args`: `--quick`, `--csv`, `--seeds=N`, `--jobs=N`,
    /// `--shards=N`.
    pub fn parse() -> Opts {
        let args: Vec<String> = std::env::args().collect();
        Opts {
            quick: args.iter().any(|a| a == "--quick"),
            csv: args.iter().any(|a| a == "--csv"),
            seeds: args
                .iter()
                .find_map(|a| a.strip_prefix("--seeds="))
                .and_then(|s| s.parse().ok())
                .unwrap_or(super::PAPER_SEEDS),
            // Absent --jobs means all cores (0); a malformed value falls
            // back to serial (1) rather than silently maxing out.
            jobs: args
                .iter()
                .find_map(|a| a.strip_prefix("--jobs="))
                .map(|s| s.parse().unwrap_or(1))
                .unwrap_or(0),
            // A malformed shard count falls back to unsharded (1).
            shards: args
                .iter()
                .find_map(|a| a.strip_prefix("--shards="))
                .map(|s| s.parse().unwrap_or(1))
                .unwrap_or(4)
                .max(1),
        }
    }
}

/// The custom manager the methodology designs for a trace.
///
/// Multi-phase traces get per-phase atomic managers composed into a global
/// manager (Section 3.3); single-phase traces get one atomic manager.
///
/// # Errors
///
/// Propagates exploration failures.
pub fn design_custom(trace: &Trace) -> Result<Box<dyn Allocator + Send>> {
    design_custom_with(trace, &ExplorationEngine::serial())
}

/// Like [`design_custom`], exploring through a caller-provided
/// [`ExplorationEngine`]: repeated designs (e.g. once per seed) are served
/// almost entirely from the engine's replay cache, and the engine's job
/// count fans the remaining replays out over threads.
///
/// # Errors
///
/// Propagates exploration failures.
pub fn design_custom_with(
    trace: &Trace,
    engine: &ExplorationEngine,
) -> Result<Box<dyn Allocator + Send>> {
    let m = Methodology::new().with_name("our DM manager");
    if trace.phases().len() > 1 {
        let phased = m.explore_phases_with_engine(trace, engine)?;
        Ok(Box::new(GlobalManager::new_mapped(
            "our DM manager",
            phased.phase_configs,
        )?))
    } else {
        let outcome = m.explore_with_engine(trace, engine)?;
        Ok(Box::new(PolicyAllocator::new(outcome.config)?))
    }
}

/// The comparator managers as Section 5 ran them: the Windows-flavoured
/// Kingsley (initial region reserved up front), plain Lea, a region manager
/// manually sized from the application profile, and Obstacks.
pub fn comparators(trace: &Trace, quick: bool) -> Vec<Box<dyn Allocator + Send>> {
    let profile = dmm_core::profile::Profile::of(trace);
    let initial = if quick { 64 * 1024 } else { 2 * 1024 * 1024 };
    vec![
        Box::new(KingsleyAllocator::with_initial_region(initial)),
        Box::new(LeaAllocator::new()),
        Box::new(RegionAllocator::with_profile(&profile)),
        Box::new(ObstackAllocator::new()),
    ]
}

/// Display names of the Table 1 rows, paper order.
pub const TABLE1_ROWS: [&str; 5] = [
    "Kingsley-Windows",
    "Lea-Linux",
    "Regions",
    "Obstacks",
    "our DM manager",
];

fn studies(seed: u64, quick: bool) -> Vec<Box<dyn Workload>> {
    if quick {
        quick_studies(seed)
    } else {
        case_studies(seed)
    }
}

/// Regenerate **Table 1**: maximum memory footprint (bytes) of every
/// manager on every case study, averaged over `seeds` seeded runs.
///
/// The custom manager is designed once per study from the seed-0 profile
/// (the paper's flow: profile → design → deploy) and then re-measured on
/// every seed after a [`Allocator::reset`]. One [`ExplorationEngine`]
/// serves the designs, and its counters are returned alongside the table.
/// `jobs` threads fan the exploration replays out (0 = all cores) — the
/// table is bit-identical regardless.
///
/// # Errors
///
/// Propagates workload/exploration failures.
pub fn table1_footprint(seeds: u64, quick: bool, jobs: usize) -> Result<(Table, EngineCounters)> {
    let seeds = seeds.max(1);
    let engine = ExplorationEngine::new(jobs);
    let mut table = Table::new(
        "Table 1: maximum memory footprint results (Bytes), mean over seeds",
        vec![
            "Dyn. mem. managers".into(),
            "DRR scheduler".into(),
            "3D image reconst.".into(),
            "3D scalable rendering".into(),
        ],
    );

    // rows[manager][study] -> accumulated peak
    let mut sums = vec![vec![0u128; 3]; TABLE1_ROWS.len()];

    // Design the custom manager per study from the seed-0 trace — once;
    // the seed loop below only re-measures it on fresh inputs.
    let design_traces: Vec<Trace> = studies(0, quick)
        .iter()
        .map(|w| w.record())
        .collect::<Result<Vec<_>>>()?;
    let mut customs: Vec<Box<dyn Allocator + Send>> = design_traces
        .iter()
        .map(|t| design_custom_with(t, &engine))
        .collect::<Result<Vec<_>>>()?;

    for seed in 0..seeds {
        for (si, workload) in studies(seed, quick).iter().enumerate() {
            let trace = workload.record()?;
            // One compilation serves all five rows of this cell.
            let compiled = CompiledTrace::compile(&trace);
            for (mi, mut mgr) in comparators(&design_traces[si], quick)
                .into_iter()
                .enumerate()
            {
                let fs = replay_compiled(&compiled, mgr.as_mut())?;
                sums[mi][si] += fs.peak_footprint as u128;
            }
            customs[si].reset();
            let fs = replay_compiled(&compiled, customs[si].as_mut())?;
            sums[4][si] += fs.peak_footprint as u128;
        }
    }

    for (mi, name) in TABLE1_ROWS.iter().enumerate() {
        let cells: Vec<Cell> = (0..3)
            .map(|si| Cell::Bytes((sums[mi][si] / seeds as u128) as usize))
            .collect();
        table.push_row(*name, cells);
    }
    Ok((table, engine.counters()))
}

/// Regenerate **Figure 5**: DRR footprint over time for Lea vs. the custom
/// manager. Returns the two sampled series and the rendered ASCII plot.
///
/// # Errors
///
/// Propagates workload/exploration failures.
pub fn fig5_drr_timeline(quick: bool) -> Result<(TimeSeries, TimeSeries, String)> {
    let workload = if quick {
        DrrWorkload::quick(0)
    } else {
        DrrWorkload::case_study(0)
    };
    let trace = workload.record()?;
    let sample = (trace.len() / 400).max(1);
    let compiled = CompiledTrace::compile(&trace);

    let mut lea = LeaAllocator::new();
    let lea_fs = replay_compiled_sampled(&compiled, &mut lea, sample)?;
    let mut custom = design_custom(&trace)?;
    let custom_fs = replay_compiled_sampled(&compiled, custom.as_mut(), sample)?;

    let lea_series = lea_fs.series.expect("sampled replay returns a series");
    let custom_series = custom_fs.series.expect("sampled replay returns a series");
    let plot = dmm_report::ascii_footprint_plot(
        &[
            NamedSeries {
                name: "Lea",
                series: &lea_series,
            },
            NamedSeries {
                name: "custom DM manager 1",
                series: &custom_series,
            },
        ],
        100,
        24,
    );
    Ok((lea_series, custom_series, plot))
}

/// Regenerate the **Figure 4** experiment: the paper's traversal order vs.
/// the myopic A3-first order (and the reversed order) on the DRR trace.
///
/// The three hypotheses stay isolated (portfolio off), but they share one
/// [`ExplorationEngine`]: replays are pure functions of the configuration,
/// so cross-hypothesis duplicates are cache hits without any cross-talk in
/// the decisions. Counters are returned alongside the table.
///
/// # Errors
///
/// Propagates exploration failures.
pub fn fig4_order_ablation(quick: bool, jobs: usize) -> Result<(Table, EngineCounters)> {
    let workload = if quick {
        DrrWorkload::quick(0)
    } else {
        DrrWorkload::case_study(0)
    };
    let trace = workload.record()?;
    let engine = ExplorationEngine::new(jobs);

    let mut table = Table::new(
        "Figure 4: decision-order ablation on the DRR trace",
        vec![
            "order".into(),
            "peak footprint".into(),
            "split/coalesce in final config".into(),
        ],
    );
    // Portfolio off: each row must isolate exactly one (order, style)
    // hypothesis, or the paper-order row would internally run the myopic
    // A3-first probe and the comparison would be true by construction.
    let mut run = |label: String, order: &[TreeId; 12], style: CompletionStyle| -> Result<usize> {
        let outcome = Methodology::new()
            .with_order(&order[..])
            .with_style(style)
            .with_portfolio(false)
            .explore_with_engine(&trace, &engine)?;
        let has_sc = outcome.config.may_split() || outcome.config.may_coalesce();
        table.push_row(
            label,
            vec![
                Cell::Bytes(outcome.footprint.peak_footprint),
                Cell::Text(if has_sc { "yes".into() } else { "no".into() }),
            ],
        );
        Ok(outcome.footprint.peak_footprint)
    };
    let paper = run(
        format!("paper: {}", format_order(&TRAVERSAL_ORDER[..])),
        TRAVERSAL_ORDER,
        CompletionStyle::Simulated,
    )?;
    let myopic = run(
        "myopic designer, A3 first (Figure 4's wrong order)".into(),
        A3_FIRST_ORDER,
        CompletionStyle::Myopic,
    )?;
    let reversed_order = dmm_core::space::order::reversed_order();
    let _ = run(
        "myopic designer, reversed paper order".into(),
        &reversed_order,
        CompletionStyle::Myopic,
    )?;
    assert!(
        paper <= myopic,
        "paper order regressed against the myopic order: {paper} vs {myopic}"
    );
    Ok((table, engine.counters()))
}

/// Regenerate the **Section 1 motivation**: static worst-case pool vs. the
/// DM custom manager on the DRR traces.
///
/// The static pool must be provisioned for the worst observed input (the
/// max peak over all seeds, plus a safety margin); DM pays only for the
/// actual input.
///
/// # Errors
///
/// Propagates workload failures.
pub fn motivation_static(seeds: u64, quick: bool) -> Result<Table> {
    let seeds = seeds.max(1);
    let mut traces = Vec::new();
    for seed in 0..seeds {
        let w = if quick {
            DrrWorkload::quick(seed)
        } else {
            DrrWorkload::case_study(seed)
        };
        traces.push(w.record()?);
    }
    // Provision the static pool: worst-case over all inputs + 20% margin
    // (an embedded designer cannot cut it thinner and survive).
    let worst_peak = traces
        .iter()
        .map(|t| t.peak_live_requested())
        .max()
        .unwrap_or(0);
    let capacity = worst_peak + worst_peak / 5 + 4096;

    // Designed once from the seed-0 trace, then re-measured on every
    // input after a reset.
    let mut custom = design_custom(&traces[0])?;
    let mut sum_static = 0u128;
    let mut sum_custom = 0u128;
    for trace in &traces {
        let compiled = CompiledTrace::compile(trace);
        let mut s = StaticWorstCase::with_capacity(capacity);
        let fs = replay_compiled(&compiled, &mut s)?;
        sum_static += fs.peak_footprint as u128;
        custom.reset();
        let fs = replay_compiled(&compiled, custom.as_mut())?;
        sum_custom += fs.peak_footprint as u128;
    }
    let mut table = Table::new(
        "Motivation: static worst-case pool vs. dynamic memory (DRR)",
        vec![
            "approach".into(),
            "mean peak footprint".into(),
            "relative".into(),
        ],
    );
    let st = (sum_static / seeds as u128) as usize;
    let cu = (sum_custom / seeds as u128) as usize;
    table.push_row(
        "static worst-case pool",
        vec![
            Cell::Bytes(st),
            Cell::Percent((st as f64 / cu as f64 - 1.0) * 100.0),
        ],
    );
    table.push_row(
        "custom DM manager",
        vec![Cell::Bytes(cu), Cell::Percent(0.0)],
    );
    Ok(table)
}

/// Deterministic performance proxy for the **Section 5 overhead claim**:
/// abstract search steps per manager on the DRR trace (wall-clock numbers
/// come from the Criterion bench `perf_overhead`).
///
/// # Errors
///
/// Propagates workload failures.
pub fn perf_steps_table(quick: bool, jobs: usize) -> Result<(Table, EngineCounters)> {
    let w = if quick {
        DrrWorkload::quick(0)
    } else {
        DrrWorkload::case_study(0)
    };
    let trace = w.record()?;
    let engine = ExplorationEngine::new(jobs);
    let mut table = Table::new(
        "Execution-cost proxy: free-structure search steps on the DRR trace",
        vec![
            "manager".into(),
            "search steps".into(),
            "steps per op".into(),
        ],
    );
    let ops = trace.len() as f64;
    let compiled = CompiledTrace::compile(&trace);
    let mut managers: Vec<Box<dyn Allocator + Send>> = comparators(&trace, quick);
    managers.push(design_custom_with(&trace, &engine)?);
    for mut m in managers {
        let fs = replay_compiled(&compiled, m.as_mut())?;
        table.push_row(
            fs.manager.to_string(),
            vec![
                Cell::Number(fs.stats.search_steps as f64),
                Cell::Number(fs.stats.search_steps as f64 / ops),
            ],
        );
    }
    Ok((table, engine.counters()))
}

/// Design-choice ablations called out in DESIGN.md: sweep the fit
/// algorithm (C1) and the coalescing policy (D2) around the DRR custom
/// manager, one tree at a time.
///
/// # Errors
///
/// Propagates workload failures.
pub fn ablation_policies(quick: bool) -> Result<Table> {
    use dmm_core::space::trees::{CoalesceWhen, FitAlgorithm, Leaf};
    let w = if quick {
        DrrWorkload::quick(0)
    } else {
        DrrWorkload::case_study(0)
    };
    let compiled = CompiledTrace::compile(&w.record()?);
    let mut table = Table::new(
        "Ablation: one-tree deviations from the paper's DRR manager",
        vec![
            "variant".into(),
            "peak footprint".into(),
            "search steps".into(),
        ],
    );
    let base = presets::drr_paper();
    let mut eval = |label: String, cfg: dmm_core::space::DmConfig| -> Result<()> {
        let mut m = PolicyAllocator::new(cfg)?;
        let fs = replay_compiled(&compiled, &mut m)?;
        table.push_row(
            label,
            vec![
                Cell::Bytes(fs.peak_footprint),
                Cell::Number(fs.stats.search_steps as f64),
            ],
        );
        Ok(())
    };
    eval(
        "paper DRR config (exact fit, always coalesce)".into(),
        base.clone(),
    )?;
    for fit in FitAlgorithm::ALL {
        if fit != base.fit {
            eval(
                format!("C1 -> {fit}"),
                base.clone().with_leaf(Leaf::C1(fit)),
            )?;
        }
    }
    for when in [CoalesceWhen::Deferred, CoalesceWhen::Never] {
        let mut cfg = base.clone().with_leaf(Leaf::D2(when));
        if when == CoalesceWhen::Never {
            // Keep the configuration coherent (rules R3b/R7).
            cfg = cfg
                .with_leaf(Leaf::A5(dmm_core::space::trees::FlexibleSize::SplitOnly))
                .with_leaf(Leaf::D1(
                    dmm_core::space::trees::CoalesceMaxSizes::Unlimited,
                ));
        }
        cfg.validate()
            .map_err(|e| dmm_core::Error::InvalidConfig(format!("ablation config: {e}")))?;
        eval(format!("D2 -> {when}"), cfg)?;
    }
    Ok(table)
}

/// Render **Figure 1**: the full decision-tree taxonomy, from the live
/// type model.
pub fn fig1_space_text() -> String {
    let mut out = String::from("Figure 1: DM management search space of orthogonal decisions\n\n");
    for category in Category::ALL {
        out.push_str(&format!("{category}\n"));
        for tree in TreeId::ALL.iter().filter(|t| t.category() == category) {
            out.push_str(&format!("  {} — {}\n", tree.code(), tree.paper_name()));
            for leaf in tree.leaves() {
                out.push_str(&format!("      · {leaf}\n"));
            }
        }
        out.push('\n');
    }
    let total: usize = TreeId::ALL.iter().map(|t| t.leaves().len()).product();
    out.push_str(&format!(
        "raw combinations: {total}; coherent (rule-pruned) configurations: {}\n",
        dmm_core::space::enumerate::count_valid()
    ));
    out
}

/// Render **Figure 2**: the interdependency arrows between trees.
pub fn fig2_interdep_text() -> String {
    let mut out = String::from(
        "Figure 2: interdependencies between orthogonal trees in the search space\n\n",
    );
    out.push_str("full arrows (hard: source leaf disables target leaves):\n");
    for a in interdep::ARROWS
        .iter()
        .filter(|a| a.kind == interdep::ArrowKind::Hard)
    {
        out.push_str(&format!(
            "  {} ==> {}   ({})\n",
            a.from.code(),
            a.to.code(),
            a.why
        ));
    }
    out.push_str("\ndotted arrows (soft: linked purposes):\n");
    for a in interdep::ARROWS
        .iter()
        .filter(|a| a.kind == interdep::ArrowKind::Soft)
    {
        out.push_str(&format!(
            "  {} --> {}   ({})\n",
            a.from.code(),
            a.to.code(),
            a.why
        ));
    }
    out.push_str("\nbacking rules:\n");
    for r in interdep::RULES {
        out.push_str(&format!("  {}: {}\n", r.id, r.description));
    }
    out
}

/// Render **Figure 3**: the `A3 = none` constraint-propagation example,
/// computed live from the rule engine.
pub fn fig3_example_text() -> String {
    use dmm_core::space::config::PartialConfig;
    use dmm_core::space::trees::{BlockTags, Leaf};
    let mut out = String::from(
        "Figure 3: example of interdependency between two orthogonal trees\n\n\
         choosing the 'none' leaf in A3 (Block tags)...\n",
    );
    let mut p = PartialConfig::default();
    p.set(Leaf::A3(BlockTags::None));
    for tree in [
        TreeId::A4RecordedInfo,
        TreeId::A5FlexibleSize,
        TreeId::D2CoalesceWhen,
        TreeId::E2SplitWhen,
    ] {
        let leaves = interdep::admissible_leaves(tree, &p);
        out.push_str(&format!(
            "  {} admissible leaves: {}\n",
            tree.code(),
            leaves
                .iter()
                .map(|l| l.to_string())
                .collect::<Vec<_>>()
                .join(", ")
        ));
        // Propagate the forced decision to show the cascade.
        if leaves.len() == 1 {
            p.set(leaves[0]);
        }
    }
    out.push_str(
        "\n=> no space is reserved to store any information, so the block\n\
         recorded info tree is prohibited and splitting/coalescing are\n\
         transitively disabled — exactly the paper's Figure 3 cascade.\n",
    );
    out
}

/// Run **sharded exploration** over a generated large churn trace that is
/// never materialised whole: shards stream from
/// [`dmm_workloads::synthetic::large_churn_shards`] one window at a time,
/// per-shard designs are merged by the score-weighted vote, and the table
/// reports each shard next to the merged result.
///
/// Returns the per-shard table and a summary block with shard counts,
/// engine counters (replays vs cache hits) and the trace-memory story:
/// peak resident shard bytes vs what the whole trace would have occupied.
/// In `quick` mode a whole-trace exploration runs too and the summary
/// reports the agreement gap.
///
/// # Errors
///
/// Propagates exploration failures.
pub fn sharded_explore(
    quick: bool,
    shards: usize,
    jobs: usize,
    seed: u64,
) -> Result<(Table, String)> {
    use dmm_workloads::synthetic::{large_churn, large_churn_shards};

    let shards = shards.max(1);
    let events_per_shard = if quick { 600 } else { 25_000 };
    let engine = ExplorationEngine::new(jobs);
    let methodology = Methodology::new().with_name("sharded custom");
    let outcome = methodology.explore_shard_stream(
        || large_churn_shards(seed, shards, events_per_shard),
        &engine,
    )?;

    let mut table = Table::new(
        format!("sharded exploration (seed {seed}, {shards} shards)"),
        vec![
            "shard".into(),
            "events".into(),
            "peak footprint".into(),
            "vote weight".into(),
        ],
    );
    for s in &outcome.per_shard {
        table.push_row(
            match s.phase {
                Some(p) => format!("shard {} (phase {p})", s.index),
                None => format!("shard {}", s.index),
            },
            vec![
                Cell::Number(s.events as f64),
                Cell::Bytes(s.outcome.footprint.peak_footprint),
                Cell::Bytes(s.weight as usize),
            ],
        );
    }
    table.push_row(
        "merged (composed replay)",
        vec![
            Cell::Number(outcome.footprint.events as f64),
            Cell::Bytes(outcome.footprint.peak_footprint),
            Cell::Missing,
        ],
    );

    let whole_bytes = outcome.per_shard.iter().map(|s| s.events).sum::<usize>()
        * std::mem::size_of::<dmm_core::trace::TraceEvent>();
    let mut summary = String::new();
    use std::fmt::Write as _;
    let _ = writeln!(summary, "merged config: {}", outcome.config.summary());
    let unanimous = outcome.merges.iter().filter(|m| m.unanimous).count();
    let _ = writeln!(
        summary,
        "merge rule: {unanimous}/{} trees unanimous across {} shards",
        outcome.merges.len(),
        outcome.shard_count
    );
    let _ = writeln!(summary, "exploration: {}", outcome.counters);
    let _ = writeln!(
        summary,
        "peak resident trace bytes: {} (whole trace would be {}, carried across \
         boundaries: {} B)",
        outcome.peak_resident_trace_bytes, whole_bytes, outcome.max_carried_bytes
    );
    if quick {
        let whole = methodology
            .explore_with_engine(&large_churn(seed, shards, events_per_shard), &engine)?;
        let gap = dmm_core::metrics::percent_improvement(
            whole.footprint.peak_footprint,
            outcome.footprint.peak_footprint,
        );
        let _ = writeln!(
            summary,
            "whole-trace agreement: sharded peak {} B vs whole-trace explore {} B \
             ({gap:.1} % gap; tolerance {} %)",
            outcome.footprint.peak_footprint,
            whole.footprint.peak_footprint,
            dmm_core::methodology::SHARD_MERGE_TOLERANCE * 100.0
        );
    }
    Ok((table, summary))
}

/// Measurement fixture: an [`Allocator`] whose every operation is O(1)
/// bookkeeping, so a replay against it measures the **interpreter** — event
/// decoding, id→handle matching, dispatch — rather than any manager
/// policy. The classic/compiled gap on this fixture is the pure kernel
/// speedup; rows against a real manager then show how much of an
/// end-to-end replay that interpreter overhead was.
#[derive(Debug, Default)]
pub struct NopAllocator {
    stats: dmm_core::metrics::AllocStats,
    next: usize,
}

impl Allocator for NopAllocator {
    fn name(&self) -> &str {
        "nop (interpreter-overhead fixture)"
    }

    fn alloc(&mut self, req: usize) -> Result<dmm_core::manager::BlockHandle> {
        let h = dmm_core::manager::BlockHandle::new(self.next, 0);
        self.next += 1;
        let req = req.max(1);
        self.stats.on_alloc(req, req);
        self.stats
            .set_system(self.stats.live_requested.max(self.stats.system), 0);
        Ok(h)
    }

    fn free(&mut self, _handle: dmm_core::manager::BlockHandle) -> Result<()> {
        self.stats.frees += 1;
        Ok(())
    }

    fn footprint(&self) -> usize {
        self.stats.system
    }

    fn stats(&self) -> &dmm_core::metrics::AllocStats {
        &self.stats
    }

    fn reset(&mut self) {
        self.stats = dmm_core::metrics::AllocStats::default();
        self.next = 0;
    }
}

/// Measured replay throughput of one workload under both interpreters.
#[derive(Debug, Clone, serde::Serialize)]
pub struct ReplayHotRow {
    /// Workload name.
    pub workload: String,
    /// Events in the trace.
    pub events: usize,
    /// Manager configuration replayed against.
    pub manager: String,
    /// Classic interpreter throughput (per-event hashing, dyn dispatch).
    pub classic_events_per_sec: f64,
    /// Compiled kernel throughput (slot-resolved, monomorphized).
    pub compiled_events_per_sec: f64,
    /// `compiled / classic`.
    pub speedup: f64,
}

/// Compiled-kernel events/second of an earlier PR's implementation on
/// `synthetic::large_churn` — a committed baseline a manager-bound gate
/// compares against. The DRR number alone is machine-dependent, so each
/// gate normalises by the nop (interpreter-overhead) row measured in the
/// *same* run: `(drr/nop) / (baseline drr/baseline nop)` cancels the
/// machine's speed and isolates how much cheaper the manager simulation
/// itself became.
#[derive(Debug, Clone, Copy)]
pub struct GateBaseline {
    /// `large_churn × nop` compiled events/second.
    pub nop_events_per_sec: f64,
    /// `large_churn × paper-DRR manager` compiled events/second.
    pub drr_events_per_sec: f64,
}

/// Full-scale PR 4 (`BTreeMap` tiling) baseline: the `BENCH_replay.json`
/// committed by PR 4.
pub const PR4_LARGE_CHURN_FULL: GateBaseline = GateBaseline {
    nop_events_per_sec: 138_943_481.7,
    drr_events_per_sec: 450_756.9,
};

/// Quick-scale PR 4 baseline, measured with the same harness on the PR 4
/// tree (quick workloads are what CI smoke-runs).
pub const PR4_LARGE_CHURN_QUICK: GateBaseline = GateBaseline {
    nop_events_per_sec: 234_735_774.7,
    drr_events_per_sec: 1_841_057.9,
};

/// Full-scale PR 5 (boundary-tag store, memoised fit walks) baseline: the
/// `BENCH_replay.json` committed by PR 5.
pub const PR5_LARGE_CHURN_FULL: GateBaseline = GateBaseline {
    nop_events_per_sec: 131_801_233.67,
    drr_events_per_sec: 3_680_580.04,
};

/// Quick-scale PR 5 baseline, measured with the same harness on the PR 5
/// tree (quick workloads are what CI smoke-runs).
pub const PR5_LARGE_CHURN_QUICK: GateBaseline = GateBaseline {
    nop_events_per_sec: 253_331_002.0,
    drr_events_per_sec: 4_977_470.0,
};

/// Number of configurations a sweep over (a `limit` prefix of) the space
/// enumerates — the engine-independent side of the partition check.
fn swept_configs(params: &dmm_core::space::config::Params, limit: Option<usize>) -> usize {
    dmm_core::space::enumerate::SpaceIter::with_order_and_params(
        TRAVERSAL_ORDER.to_vec(),
        params.clone(),
    )
    .take(limit.unwrap_or(usize::MAX))
    .count()
}

/// One side of the [`sweep_comparison`] — a full branch-and-bound sweep
/// timed end to end, with its counter partition and winner identity.
#[derive(Debug, Clone, serde::Serialize)]
pub struct SweepSide {
    /// Which engine ran: `baseline` or `projected`.
    pub label: String,
    /// End-to-end wall-clock of the sweep, seconds: the median of
    /// `wallclock_runs_secs`.
    pub wallclock_secs: f64,
    /// Wall-clock of each of the [`SWEEP_REPEATS`] runs, seconds, in run
    /// order (every run's counters and winner are asserted identical).
    pub wallclock_runs_secs: Vec<f64>,
    /// Configurations enumerated from the (possibly limited) space,
    /// counted independently of the engine: every one lands in exactly one
    /// bucket of `counters`, so [`EngineCounters::candidates`] equals it.
    pub enumerated: usize,
    /// The engine's counters after the sweep. Replays include cut ones;
    /// projection hits are 0 on the baseline.
    pub counters: EngineCounters,
    /// Replays stopped once the candidate's peak passed the incumbent
    /// ([`ExplorationEngine::peak_cut`]).
    pub peak_cut: usize,
    /// Structural fingerprint of the winning configuration.
    pub winner_fingerprint: String,
    /// The winner's replayed peak footprint.
    pub winner_peak: usize,
}

/// The `sweep` block of `BENCH_replay.json`: the same full
/// branch-and-bound sweep run twice — once on a plain serial engine, once
/// with trace-conditioned projection — with the winner asserted
/// bit-identical and the wall-clock/replay savings recorded (the replay
/// savings are gated by `replay_hot --check` in release).
#[derive(Debug, Clone, serde::Serialize)]
pub struct SweepReport {
    /// Workload swept.
    pub workload: String,
    /// The plain serial sweep.
    pub baseline: SweepSide,
    /// The projected sweep.
    pub projected: SweepSide,
    /// `baseline.wallclock_secs / projected.wallclock_secs`.
    pub sweep_wallclock_speedup: f64,
    /// `projected.replays / enumerated` — the fraction of the enumerated
    /// space that still needed a replay after all prune/collapse tiers.
    pub projected_replay_ratio: f64,
}

/// Runs of each side of [`sweep_comparison`]; the side reports their
/// median wall-clock. Debug builds sweep a bounded prefix once.
pub const SWEEP_REPEATS: usize = if cfg!(debug_assertions) { 1 } else { 3 };

/// Run the DRR branch-and-bound sweep both ways — plain serial baseline vs
/// projection, [`SWEEP_REPEATS`] times each — and report the comparison.
/// Panics if the two winners (fingerprint or peak) disagree: the
/// optimisation's bit-identity contract is checked on every run, not just
/// in CI.
///
/// # Errors
///
/// Propagates workload and replay failures.
pub fn sweep_comparison(quick: bool) -> Result<SweepReport> {
    use dmm_core::methodology::exhaustive_best_with_engine;
    use dmm_core::space::config::Params;
    use dmm_core::units::MIN_BLOCK;

    let w = if quick {
        DrrWorkload::quick(0)
    } else {
        DrrWorkload::case_study(0)
    };
    let trace = w.record()?;
    // Debug replays are ~100× slower, so debug bounds the walk (and its
    // shadow oracle re-replays every projection hit — the *soundness*
    // check); the prefix is too shallow to leave the A2 = many subtree, so
    // only the static prune fires there. Release sweeps the whole space
    // (the bound-prune and replay gates fire there).
    let limit = if cfg!(debug_assertions) {
        Some(300)
    } else {
        None
    };
    let mut params = Params::footprint_optimised();
    params.profiled_classes = vec![MIN_BLOCK, 2 * MIN_BLOCK, 4 * MIN_BLOCK, 8 * MIN_BLOCK];
    let enumerated = swept_configs(&params, limit);

    let run_once = |label: &str, engine: &ExplorationEngine| -> Result<SweepSide> {
        let start = std::time::Instant::now();
        let (cfg, peak, _) = exhaustive_best_with_engine(&trace, params.clone(), limit, engine)?;
        let wallclock_secs = start.elapsed().as_secs_f64();
        Ok(SweepSide {
            label: label.to_string(),
            wallclock_secs,
            wallclock_runs_secs: vec![wallclock_secs],
            enumerated,
            counters: engine.counters(),
            peak_cut: engine.peak_cut(),
            winner_fingerprint: format!("{:016x}", cfg.fingerprint()),
            winner_peak: peak,
        })
    };
    // Each side runs SWEEP_REPEATS times on a fresh engine and reports
    // the median wall-clock; everything else must repeat exactly.
    let run = |label: &str, engine: fn() -> ExplorationEngine| -> Result<SweepSide> {
        let mut runs = (0..SWEEP_REPEATS)
            .map(|_| run_once(label, &engine()))
            .collect::<Result<Vec<_>>>()?;
        let mut side = runs.remove(0);
        for again in runs {
            assert_eq!(
                (
                    again.counters,
                    again.peak_cut,
                    &again.winner_fingerprint,
                    again.winner_peak
                ),
                (
                    side.counters,
                    side.peak_cut,
                    &side.winner_fingerprint,
                    side.winner_peak
                ),
                "{label} sweep did not repeat"
            );
            side.wallclock_runs_secs.push(again.wallclock_secs);
        }
        side.wallclock_secs = median_of(side.wallclock_runs_secs.iter().copied());
        Ok(side)
    };

    let baseline = run("baseline", ExplorationEngine::serial)?;
    let projected = run("projected", || {
        ExplorationEngine::serial().with_projection(true)
    })?;
    assert_eq!(
        (&baseline.winner_fingerprint, baseline.winner_peak),
        (&projected.winner_fingerprint, projected.winner_peak),
        "projection broke the bit-identical-winner contract"
    );
    let sweep_wallclock_speedup =
        baseline.wallclock_secs / projected.wallclock_secs.max(f64::MIN_POSITIVE);
    let projected_replay_ratio =
        projected.counters.replays as f64 / projected.enumerated.max(1) as f64;
    Ok(SweepReport {
        workload: w.name().to_string(),
        baseline,
        projected,
        sweep_wallclock_speedup,
        projected_replay_ratio,
    })
}

/// Entries already indexed, all too small to fit and below the run, when
/// the [`index_churn`] probe runs.
const INDEX_CHURN_BACKGROUNDS: [usize; 3] = [0, 100, 1_000];

/// Blocks in the [`index_churn`] run: what a fixed-class `grow` indexes
/// when it slices one 4 KiB granule into 16-byte blocks (256, less the
/// block it hands to the request).
const INDEX_CHURN_RUN: usize = 255;

/// Repeats per [`index_churn`] cell; the cell reports their median.
const INDEX_CHURN_REPEATS: usize = 5;

/// One A1 leaf's row of the [`index_churn`] probe.
#[derive(Debug, Clone, serde::Serialize)]
pub struct IndexChurnRow {
    /// The A1 leaf.
    pub structure: String,
    /// Nanoseconds per block, one cell per background size, each the
    /// median of the repeats.
    pub ns_per_block: Vec<f64>,
}

/// The `index_churn` block of `BENCH_replay.json`: the free-index cost of
/// a sliced granule, per A1 leaf.
#[derive(Debug, Clone, serde::Serialize)]
pub struct IndexChurnReport {
    /// Blocks per ascending run.
    pub run_blocks: usize,
    /// Entries present besides the run, one row cell each.
    pub backgrounds: Vec<usize>,
    /// Timed repeats per cell; the cell is their median.
    pub repeats: usize,
    /// One row per A1 leaf.
    pub rows: Vec<IndexChurnRow>,
    /// Largest address-ordered / size-ordered-tree cost ratio over the
    /// backgrounds — what `replay_hot --check` gates.
    pub addr_vs_size_tree: f64,
}

impl IndexChurnReport {
    /// Render as a table: one row per A1 leaf, one column per background.
    pub fn table(&self) -> Table {
        let mut columns = vec!["A1 leaf".to_string()];
        columns.extend(
            self.backgrounds
                .iter()
                .map(|b| format!("ns/block, {b} others")),
        );
        let mut table = Table::new(
            format!(
                "free-index churn: {}-block ascending run inserted, then first fit takes it (median of {})",
                self.run_blocks, self.repeats
            ),
            columns,
        );
        for row in &self.rows {
            table.push_row(
                row.structure.clone(),
                row.ns_per_block
                    .iter()
                    .map(|&ns| Cell::Number(ns))
                    .collect(),
            );
        }
        table
    }
}

/// Time the free index of every A1 leaf on the pattern a fixed-class
/// `grow` produces: a run of 255 blocks inserted in ascending address
/// order above the existing entries, then handed back out one at a time
/// by first-fit searches (find, then remove the hit), with 0, 100 and
/// 1,000 other, too-small entries present. The searches keep every
/// index's query structures live, as in a replay. Each cell is the median
/// of 5 timed repeats, in nanoseconds per block (one insert, one find,
/// one remove).
pub fn index_churn() -> IndexChurnReport {
    use dmm_core::heap::index::{FreeIndex, PoolIndex};
    use dmm_core::heap::{BlockRef, Span};
    use dmm_core::space::trees::{BlockStructure, FitAlgorithm};

    // Debug builds run every search against its shadow walk; a few rounds
    // exercise the probe there without timing anything meaningful.
    const ROUNDS: usize = if cfg!(debug_assertions) { 2 } else { 100 };
    let bref = |offset: usize| BlockRef::from_index((offset / 16) as u32);
    let run_base = 1 << 24;
    let mut rows = Vec::new();
    for structure in BlockStructure::ALL {
        let mut ns_per_block = Vec::new();
        for background in INDEX_CHURN_BACKGROUNDS {
            let mut idx = PoolIndex::new(structure);
            let mut steps = 0u64;
            for i in 0..background {
                let span = Span::new(64 * i, 8);
                idx.insert(span, bref(span.offset), &mut steps);
            }
            let samples: Vec<f64> = (0..INDEX_CHURN_REPEATS)
                .map(|_| {
                    let start = std::time::Instant::now();
                    for _ in 0..ROUNDS {
                        for k in 0..INDEX_CHURN_RUN {
                            let span = Span::new(run_base + 16 * k, 16);
                            idx.insert(span, bref(span.offset), &mut steps);
                        }
                        for _ in 0..INDEX_CHURN_RUN {
                            let f = idx
                                .find(FitAlgorithm::FirstFit, 16, &mut steps)
                                .expect("the run fits");
                            std::hint::black_box(idx.remove(f.token, f.span, &mut steps));
                        }
                    }
                    start.elapsed().as_nanos() as f64 / (ROUNDS * INDEX_CHURN_RUN) as f64
                })
                .collect();
            std::hint::black_box(steps);
            ns_per_block.push(median_of(samples));
        }
        rows.push(IndexChurnRow {
            structure: structure.to_string(),
            ns_per_block,
        });
    }
    let cost = |s: BlockStructure| {
        &rows
            .iter()
            .find(|r| r.structure == s.to_string())
            .expect("every A1 leaf has a row")
            .ns_per_block
    };
    let addr_vs_size_tree = cost(BlockStructure::AddressOrderedList)
        .iter()
        .zip(cost(BlockStructure::SizeOrderedTree))
        .map(|(a, t)| a / t.max(f64::MIN_POSITIVE))
        .fold(0.0, f64::max);
    IndexChurnReport {
        run_blocks: INDEX_CHURN_RUN,
        backgrounds: INDEX_CHURN_BACKGROUNDS.to_vec(),
        repeats: INDEX_CHURN_REPEATS,
        rows,
        addr_vs_size_tree,
    }
}

/// The machine-readable result of [`replay_hot`] — written to
/// `BENCH_replay.json` so future changes have a perf trajectory to regress
/// against.
#[derive(Debug, Clone, serde::Serialize)]
pub struct ReplayHotReport {
    /// Harness name (`replay_hot`).
    pub bench: String,
    /// Whether test-scale workloads were used.
    pub quick: bool,
    /// Timed windows behind every row's events/second (the median wins).
    pub repeats: usize,
    /// One row per workload.
    pub rows: Vec<ReplayHotRow>,
    /// Baseline vs projected sweep comparison on the same space (see
    /// [`sweep_comparison`]): wall-clock speedup, replay reduction, winner
    /// bit-identity.
    pub sweep: SweepReport,
    /// The manager-bound gates' measurement: on `large_churn`, the median
    /// over [`REPLAY_HOT_REPEATS`] interleaved window pairs of the paper-DRR
    /// row's compiled events/second over the nop row's, timed back to back.
    pub manager_nop_ratio: f64,
    /// Manager-bound trajectory: `(drr/nop) / (PR 4 drr/nop)` on the
    /// `large_churn` gate workload — how much faster the end-to-end
    /// manager simulation is than the PR 4 `BTreeMap` tiling, with the
    /// machine's raw speed cancelled out (see [`GateBaseline`]).
    pub manager_bound_speedup_vs_pr4: f64,
    /// Same trajectory against the PR 5 entry (boundary-tag store with
    /// memoised fit walks) — what the rank/order-statistic free-list layer
    /// bought, normalised the same way.
    pub manager_bound_speedup_vs_pr5: f64,
    /// Free-index cost of a sliced granule per A1 leaf (see
    /// [`index_churn`]).
    pub index_churn: IndexChurnReport,
    /// The machine the report was measured on.
    pub host: Host,
    /// `git describe --always --dirty` of the measured source, or
    /// `unknown` outside a git checkout.
    pub commit: String,
}

/// The machine a bench report was measured on.
#[derive(Debug, Clone, serde::Serialize)]
pub struct Host {
    /// Cores available to the process.
    pub cores: usize,
    /// The `model name` of `/proc/cpuinfo`, or `unknown`.
    pub cpu_model: String,
}

impl Host {
    /// Describe this machine.
    pub fn detect() -> Host {
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines().find_map(|l| {
                    l.strip_prefix("model name")
                        .map(|r| r.trim_start_matches([' ', '\t', ':']).to_string())
                })
            })
            .unwrap_or_else(|| "unknown".into());
        Host {
            cores: std::thread::available_parallelism().map_or(0, |n| n.get()),
            cpu_model,
        }
    }
}

/// `git describe --always --dirty --abbrev=12` of the working directory,
/// or `unknown` when git or the checkout is unavailable.
fn source_commit() -> String {
    std::process::Command::new("git")
        .args(["describe", "--always", "--dirty", "--abbrev=12"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

impl ReplayHotReport {
    /// The interpreter-overhead gate row: `synthetic::large_churn` against
    /// the [`NopAllocator`] fixture, where the compiled kernel's speedup
    /// is isolated from manager policy cost.
    pub fn gate_row(&self) -> &ReplayHotRow {
        self.rows
            .iter()
            .find(|r| r.workload.contains("large_churn") && r.manager.contains("nop"))
            .expect("large_churn interpreter row always present")
    }

    /// The manager-bound gate row: `synthetic::large_churn` end-to-end
    /// against the paper's DRR manager, where the manager *simulation*
    /// (tiling + fit walks) dominates the cost of every event.
    pub fn manager_gate_row(&self) -> &ReplayHotRow {
        self.rows
            .iter()
            .find(|r| r.workload.contains("large_churn") && !r.manager.contains("nop"))
            .expect("large_churn end-to-end row always present")
    }

    /// The PR 4 baseline matching this report's scale.
    pub fn pr4_baseline(&self) -> GateBaseline {
        if self.quick {
            PR4_LARGE_CHURN_QUICK
        } else {
            PR4_LARGE_CHURN_FULL
        }
    }

    /// The PR 5 baseline matching this report's scale.
    pub fn pr5_baseline(&self) -> GateBaseline {
        if self.quick {
            PR5_LARGE_CHURN_QUICK
        } else {
            PR5_LARGE_CHURN_FULL
        }
    }

    /// Manager-bound gate ratio of this run, normalised by a committed
    /// baseline: the paired `drr/nop` ([`ReplayHotReport::manager_nop_ratio`])
    /// over `baseline drr/baseline nop`.
    fn manager_bound_speedup_vs(&self, baseline: GateBaseline) -> f64 {
        self.manager_nop_ratio / (baseline.drr_events_per_sec / baseline.nop_events_per_sec)
    }

    /// Serialize as pretty JSON (the `BENCH_replay.json` payload).
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("report serializes")
    }
}

/// One workload × manager check: assert classic and compiled agree bit
/// for bit, then time the classic interpreter. It runs through
/// `&mut dyn Allocator`, its real interface; the compiled side is timed by
/// [`paired_compiled_windows`].
fn classic_events_per_sec<A, F>(
    name: &str,
    trace: &Trace,
    compiled: &CompiledTrace,
    label: &str,
    min_duration: std::time::Duration,
    scratch: &mut ReplayScratch,
    mut make: F,
) -> Result<f64>
where
    A: Allocator,
    F: FnMut() -> Result<A>,
{
    let classic_fs = replay(trace, &mut make()?)?;
    let compiled_fs = replay_compiled_with(compiled, &mut make()?, scratch)?;
    assert_eq!(
        classic_fs, compiled_fs,
        "{name} × {label}: compiled replay diverged from the classic interpreter"
    );
    measure_events_per_sec(trace.len(), min_duration, || {
        replay(trace, &mut make()?).map(|_| ())
    })
}

/// Timed windows per [`replay_hot`] row; each row reports their median.
pub const REPLAY_HOT_REPEATS: usize = 5;

/// One timed window: repeat `run` until `min_duration` has elapsed (at
/// least twice) and return its events/second.
fn window_events_per_sec<F>(
    events: usize,
    min_duration: std::time::Duration,
    run: &mut F,
) -> Result<f64>
where
    F: FnMut() -> Result<()>,
{
    let start = std::time::Instant::now();
    let mut reps = 0usize;
    loop {
        run()?;
        reps += 1;
        if reps >= 2 && start.elapsed() >= min_duration {
            break;
        }
    }
    let secs = start.elapsed().as_secs_f64();
    Ok(events as f64 * reps as f64 / secs.max(f64::MIN_POSITIVE))
}

/// The median of `samples` (the upper one of an even count).
fn median_of(samples: impl IntoIterator<Item = f64>) -> f64 {
    let mut samples: Vec<f64> = samples.into_iter().collect();
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

/// Time [`REPLAY_HOT_REPEATS`] windows after a warm-up and return the
/// median window's events/second: one slow window on a shared host cannot
/// move a row.
fn measure_events_per_sec<F>(
    events: usize,
    min_duration: std::time::Duration,
    mut run: F,
) -> Result<f64>
where
    F: FnMut() -> Result<()>,
{
    run()?; // warm-up: page in the trace, size the allocator's tables
    let samples = (0..REPLAY_HOT_REPEATS)
        .map(|_| window_events_per_sec(events, min_duration, &mut run))
        .collect::<Result<Vec<f64>>>()?;
    Ok(median_of(samples))
}

/// Time the compiled kernel against two managers in interleaved windows,
/// `a` then `b`, [`REPLAY_HOT_REPEATS`] times after a warm-up of each, and
/// return each pair's `(a, b)` events/second. A slow spell of a shared
/// host then lands on both windows of a pair, so the pair's ratio holds
/// where the ratio of two separately timed medians would not.
fn paired_compiled_windows<A, B>(
    compiled: &CompiledTrace,
    min_duration: std::time::Duration,
    mut make_a: impl FnMut() -> Result<A>,
    mut make_b: impl FnMut() -> Result<B>,
) -> Result<Vec<(f64, f64)>>
where
    A: Allocator,
    B: Allocator,
{
    let (mut scratch_a, mut scratch_b) = (ReplayScratch::new(), ReplayScratch::new());
    let mut run_a = || replay_compiled_with(compiled, &mut make_a()?, &mut scratch_a).map(|_| ());
    let mut run_b = || replay_compiled_with(compiled, &mut make_b()?, &mut scratch_b).map(|_| ());
    run_a()?;
    run_b()?;
    let events = compiled.len();
    (0..REPLAY_HOT_REPEATS)
        .map(|_| {
            let a = window_events_per_sec(events, min_duration, &mut run_a)?;
            Ok((a, window_events_per_sec(events, min_duration, &mut run_b)?))
        })
        .collect()
}

/// Benchmark the replay inner loop: classic interpreter ([`replay`]) vs.
/// compiled kernel ([`replay_compiled_with`]) on the three paper workloads
/// plus `synthetic::large_churn`, in events/second.
///
/// Each workload is measured twice:
///
/// - against the [`NopAllocator`] fixture — **interpreter overhead only**,
///   the isolated kernel speedup (this is what the `large_churn` gate row
///   tracks across PRs);
/// - against the paper's DRR custom manager — **end-to-end** replay, where
///   the manager's simulated policy work (tree searches, coalescing,
///   tiling bookkeeping) dominates and bounds the visible gain.
///
/// Conditions mirror the exploration engine's hot loop: a fresh manager
/// per replay (construction included in the timing), the trace compiled
/// **once** outside the loop, and one reused [`ReplayScratch`] per
/// manager — exactly what an `explore` call amortises over its hundreds
/// of replays. The two managers' compiled windows interleave (nop, DRR,
/// nop, DRR, …); each row is the median of its own windows, and the
/// manager-bound gates read the median of the per-pair DRR/nop ratios on
/// `large_churn` ([`ReplayHotReport::manager_nop_ratio`]). Before
/// timing, the harness asserts the two interpreters produce
/// **bit-identical** [`dmm_core::metrics::FootprintStats`] on every
/// workload and manager.
///
/// Returns the rendered table and the machine-readable report
/// (`BENCH_replay.json`).
///
/// # Errors
///
/// Propagates workload and replay failures.
///
/// # Panics
///
/// Panics if the compiled kernel diverges from the classic interpreter.
pub fn replay_hot(quick: bool) -> Result<(Table, ReplayHotReport)> {
    use dmm_workloads::synthetic::{adversarial_fragmentation, large_churn};

    let mut traces: Vec<(String, Trace)> = studies(0, quick)
        .iter()
        .map(|w| Ok((w.name().to_string(), w.record()?)))
        .collect::<Result<Vec<_>>>()?;
    let (windows, per_window) = if quick { (4, 1_500) } else { (6, 40_000) };
    traces.push((
        "synthetic large_churn".to_string(),
        large_churn(0, windows, per_window),
    ));
    let (adv_windows, adv_pairs) = if quick { (4, 250) } else { (6, 10_000) };
    traces.push((
        "synthetic adversarial_frag".to_string(),
        adversarial_fragmentation(0, adv_windows, adv_pairs),
    ));

    let cfg = presets::drr_paper();
    let min_duration = std::time::Duration::from_millis(if quick { 40 } else { 300 });

    let mut table = Table::new(
        "replay throughput: classic interpreter vs compiled kernel",
        vec![
            "workload / manager".into(),
            "events".into(),
            "classic ev/s".into(),
            "compiled ev/s".into(),
            "speedup".into(),
        ],
    );
    let mut rows = Vec::with_capacity(traces.len() * 2);
    let mut scratch = ReplayScratch::new();
    let mut manager_nop_ratio = 0.0;
    for (name, trace) in &traces {
        let compiled = CompiledTrace::compile(trace);
        let nop = || Ok(NopAllocator::default());
        let drr = || PolicyAllocator::new(cfg.clone());
        let nop_label = "nop (interpreter overhead)";
        let classic = [
            classic_events_per_sec(
                name,
                trace,
                &compiled,
                nop_label,
                min_duration,
                &mut scratch,
                nop,
            )?,
            classic_events_per_sec(
                name,
                trace,
                &compiled,
                &cfg.name,
                min_duration,
                &mut scratch,
                drr,
            )?,
        ];
        let pairs = paired_compiled_windows(&compiled, min_duration, nop, drr)?;
        if name.contains("large_churn") {
            manager_nop_ratio = median_of(pairs.iter().map(|&(nop, drr)| drr / nop));
        }
        let compiled_eps = [
            median_of(pairs.iter().map(|p| p.0)),
            median_of(pairs.iter().map(|p| p.1)),
        ];
        let labels = [nop_label, cfg.name.as_str()];
        for ((label, classic), compiled) in labels.into_iter().zip(classic).zip(compiled_eps) {
            let row = ReplayHotRow {
                workload: name.to_string(),
                events: trace.len(),
                manager: label.to_string(),
                classic_events_per_sec: classic,
                compiled_events_per_sec: compiled,
                speedup: compiled / classic,
            };
            table.push_row(
                format!("{} × {}", row.workload, row.manager),
                vec![
                    Cell::Number(row.events as f64),
                    Cell::Number(row.classic_events_per_sec),
                    Cell::Number(row.compiled_events_per_sec),
                    Cell::Number(row.speedup),
                ],
            );
            rows.push(row);
        }
    }
    let mut report = ReplayHotReport {
        bench: "replay_hot".into(),
        quick,
        repeats: REPLAY_HOT_REPEATS,
        rows,
        sweep: sweep_comparison(quick)?,
        manager_nop_ratio,
        manager_bound_speedup_vs_pr4: 0.0,
        manager_bound_speedup_vs_pr5: 0.0,
        index_churn: index_churn(),
        host: Host::detect(),
        commit: source_commit(),
    };
    report.manager_bound_speedup_vs_pr4 = report.manager_bound_speedup_vs(report.pr4_baseline());
    report.manager_bound_speedup_vs_pr5 = report.manager_bound_speedup_vs(report.pr5_baseline());
    Ok((table, report))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig1_lists_every_tree_and_leaf() {
        let text = fig1_space_text();
        for tree in TreeId::ALL {
            assert!(text.contains(tree.code()), "missing {}", tree.code());
        }
        assert!(
            text.contains("829440")
                || text.contains("829_440")
                || text.contains("raw combinations: 829440")
        );
    }

    #[test]
    fn fig2_lists_every_rule() {
        let text = fig2_interdep_text();
        for r in interdep::RULES {
            assert!(text.contains(r.id), "missing rule {}", r.id);
        }
        assert!(text.contains("==>") && text.contains("-->"));
    }

    #[test]
    fn fig3_shows_the_cascade() {
        let text = fig3_example_text();
        assert!(text.contains("A4 admissible leaves: none"));
        assert!(text.contains("D2 admissible leaves: never"));
        assert!(text.contains("E2 admissible leaves: never"));
    }

    #[test]
    fn table1_quick_has_expected_shape() {
        let (t, counters) = table1_footprint(2, true, 1).unwrap();
        assert_eq!(t.rows.len(), 5);
        assert_eq!(t.columns.len(), 4);
        // Every cell must hold a positive byte count.
        for (label, cells) in &t.rows {
            for c in cells {
                match c {
                    Cell::Bytes(b) => assert!(*b > 0, "{label} has a zero cell"),
                    other => panic!("{label}: unexpected cell {other:?}"),
                }
            }
        }
        // Candidate completions collapse to duplicate configurations, so
        // the engine must have served some evaluations from its cache.
        assert!(counters.cache_hits > 0, "no cache hits: {counters}");
        assert_eq!(counters.replays + counters.cache_hits, counters.evaluations);
    }

    #[test]
    fn table1_is_bit_identical_across_job_counts() {
        let (serial, _) = table1_footprint(2, true, 1).unwrap();
        let (parallel, _) = table1_footprint(2, true, 4).unwrap();
        assert_eq!(serial.rows, parallel.rows);
    }

    #[test]
    fn table1_custom_wins_drr_and_recon_quick() {
        let (t, _) = table1_footprint(2, true, 1).unwrap();
        let get = |row: &str, col: usize| -> usize {
            let (_, cells) = t.rows.iter().find(|(l, _)| l == row).unwrap();
            match cells[col] {
                Cell::Bytes(b) => b,
                _ => unreachable!(),
            }
        };
        for col in 0..3 {
            let ours = get("our DM manager", col);
            let kingsley = get("Kingsley-Windows", col);
            assert!(
                ours < kingsley,
                "col {col}: ours {ours} !< Kingsley {kingsley}"
            );
        }
        // At quick scale the custom manager (designed on seed 0) may land
        // within noise of Lea on other seeds; allow 5% slack here — the
        // case-study-scale run recorded in EXPERIMENTS.md checks the real
        // gap.
        let (ours, lea) = (get("our DM manager", 0), get("Lea-Linux", 0));
        assert!(
            ours as f64 <= lea as f64 * 1.05,
            "DRR: ours {ours} vs Lea {lea}"
        );
    }

    #[test]
    fn fig5_quick_produces_two_series() {
        let (lea, custom, plot) = fig5_drr_timeline(true).unwrap();
        assert!(!lea.points.is_empty());
        assert!(!custom.points.is_empty());
        assert!(plot.contains("Lea"));
        assert!(
            custom.peak() <= lea.peak(),
            "custom must not exceed Lea's peak"
        );
    }

    #[test]
    fn fig4_quick_runs_and_orders() {
        let (t, counters) = fig4_order_ablation(true, 1).unwrap();
        assert_eq!(t.rows.len(), 3);
        assert!(counters.evaluations > 0);
    }

    #[test]
    fn motivation_static_is_worse_than_dm() {
        let t = motivation_static(2, true).unwrap();
        let bytes = |row: usize| match t.rows[row].1[0] {
            Cell::Bytes(b) => b,
            _ => unreachable!(),
        };
        assert!(
            bytes(0) > bytes(1),
            "static {} must exceed DM {}",
            bytes(0),
            bytes(1)
        );
    }

    #[test]
    fn ablation_policies_covers_fits_and_coalescing() {
        let t = ablation_policies(true).unwrap();
        assert!(t.rows.len() >= 7);
        let text = t.to_ascii();
        assert!(text.contains("best fit"));
        assert!(text.contains("never"));
    }

    #[test]
    fn perf_steps_has_all_managers() {
        let (t, _) = perf_steps_table(true, 1).unwrap();
        assert_eq!(t.rows.len(), 5);
    }

    #[test]
    fn replay_hot_reports_both_interpreter_and_end_to_end_rows() {
        let (t, report) = replay_hot(true).unwrap();
        // 5 workloads × 2 managers; bit-identity was asserted inside.
        assert_eq!(t.rows.len(), 10);
        assert_eq!(report.rows.len(), 10);
        assert!(
            report
                .rows
                .iter()
                .any(|r| r.workload.contains("adversarial_frag")),
            "adversarial fragmentation workload must be measured"
        );
        for r in &report.rows {
            assert!(r.events > 0);
            assert!(r.classic_events_per_sec > 0.0, "{}", r.workload);
            assert!(r.compiled_events_per_sec > 0.0, "{}", r.workload);
        }
        let gate = report.gate_row();
        assert!(gate.workload.contains("large_churn"));
        assert!(gate.manager.contains("nop"));
        // The manager-bound gate row is the end-to-end twin of the same
        // workload, and the normalised PR 4 trajectory is recorded.
        let mgr = report.manager_gate_row();
        assert!(mgr.workload.contains("large_churn"));
        assert!(!mgr.manager.contains("nop"));
        assert!(
            report.manager_bound_speedup_vs_pr4 > 0.0,
            "normalised manager-bound speedup must be computed"
        );
        // JSON payload is well-formed and carries the gate row.
        let json = report.to_json();
        assert!(json.contains("\"bench\""), "{json}");
        assert!(json.contains("large_churn"), "{json}");
        assert!(json.contains("manager_bound_speedup_vs_pr4"), "{json}");
        // The sweep comparison rides along: winner bit-identity was
        // asserted inside `sweep_comparison`; here, check the accounting.
        // The baseline's counters are the pruning telemetry: the static
        // prune fires and a healthy unbudgeted sweep is fault-free.
        assert!(json.contains("\"bound_pruned\""), "{json}");
        let s = &report.sweep;
        let base = &s.baseline.counters;
        assert_eq!(s.baseline.enumerated, s.projected.enumerated);
        assert_eq!(base.projection_hits, 0);
        assert_eq!(base.replays, base.evaluations);
        assert!(base.statically_pruned > 0, "static pruning never fired");
        assert_eq!(
            (base.quarantined, base.budget_exceeded),
            (0, 0),
            "a healthy unbudgeted sweep must be fault-free"
        );
        // The debug prefix never leaves the A2 = many subtree, where every
        // floor stays below the incumbent; the full release sweep (CI's
        // `replay_hot --check`) asserts the bound prune actually fires.
        if !cfg!(debug_assertions) {
            assert!(base.bound_pruned > 0, "bound pruning never fired");
        }
        for side in [&s.baseline, &s.projected] {
            assert_eq!(
                side.counters.candidates(),
                side.enumerated,
                "{}: every enumerated candidate lands in exactly one bucket",
                side.label
            );
            assert!(side.peak_cut <= side.counters.replays, "{}", side.label);
        }
        assert!(
            s.projected.counters.replays <= base.replays,
            "projection must never add replays"
        );
        assert!(s.sweep_wallclock_speedup > 0.0);
        // The index-churn probe times every A1 leaf at every background.
        let churn = &report.index_churn;
        assert_eq!(churn.rows.len(), 4);
        for row in &churn.rows {
            assert_eq!(row.ns_per_block.len(), INDEX_CHURN_BACKGROUNDS.len());
            assert!(
                row.ns_per_block.iter().all(|&ns| ns > 0.0),
                "{}",
                row.structure
            );
        }
        // The gate compares the address-ordered list with the
        // size-ordered tree: both ordered indexes query on every search.
        assert!(churn.addr_vs_size_tree > 0.0);
        assert!(json.contains("\"index_churn\""), "{json}");
        assert!(json.contains("\"addr_vs_size_tree\""), "{json}");
        // The debug prefix is too uniform to collapse (and its shadow
        // oracle re-replays every hit); the release sweep over the full
        // space is where the projection gates fire (CI `--check`).
        if !cfg!(debug_assertions) {
            assert!(
                s.projected.counters.projection_hits > 0,
                "projection never fired on the full space"
            );
            assert!(
                s.projected.counters.replays < base.replays,
                "projection must strictly reduce replays on the full space"
            );
            for side in [&s.baseline, &s.projected] {
                assert!(side.peak_cut > 0, "{}: no replay was cut", side.label);
            }
        }
        assert!(json.contains("\"sweep\""), "{json}");
        assert!(json.contains("sweep_wallclock_speedup"), "{json}");
    }

    #[test]
    fn sharded_explore_quick_reports_shards_and_memory_bound() {
        let (t, summary) = sharded_explore(true, 3, 2, 0).unwrap();
        assert_eq!(t.rows.len(), 4, "3 shards + merged row");
        assert!(summary.contains("merged config:"), "{summary}");
        assert!(summary.contains("peak resident trace bytes"), "{summary}");
        assert!(summary.contains("whole-trace agreement"), "{summary}");
        // The streamed windows are lifetime-closed.
        assert!(summary.contains("boundaries: 0 B"), "{summary}");
    }
}
