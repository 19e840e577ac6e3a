//! # dmm-cli
//!
//! Library backing the `dmm` command-line tool: each subcommand is a
//! function from parsed arguments to rendered text, so the whole surface
//! is unit-testable without spawning processes.
//!
//! Subcommands:
//!
//! - `space` — print the decision-tree taxonomy (Figure 1);
//! - `interdep` — print the interdependency rules and arrows (Figure 2);
//! - `profile <workload>` — profile a case study's DM behaviour;
//! - `explore <workload>` — run the methodology and show the decision log;
//! - `compare <workload>` — footprint table of every manager;
//! - `lint <target>` — static diagnostics over a preset configuration or
//!   a workload trace (`--json` for machines, `--explain CODE` for the
//!   catalogue entry, `--deny SEVERITY` for a gating exit code);
//! - `bounds <workload>` — admissible footprint floors
//!   ([`dmm_core::analyze::lower_bound_peak`]) of every preset on a
//!   workload trace, next to the replayed peaks they undercut;
//! - `record <workload> --out=FILE` — record a workload once and write the
//!   trace as a durable checksummed file (`--trace=FILE` feeds it back to
//!   `profile`/`explore`/`compare`; `--recover` salvages the valid prefix
//!   of a damaged file);
//! - `help` — usage.
//!
//! Workloads: `drr`, `recon`, `render` (add `--full` for paper scale,
//! `--seed=N` to change the input).
//!
//! Robustness flags: `--checkpoint=FILE` journals every completed replay
//! so a killed sweep resumes with `--resume` (bit-identical winner);
//! `--budget-steps=N`/`--budget-ms=N` bound each candidate replay.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use std::fmt::Write as _;

use dmm_baselines::{KingsleyAllocator, LeaAllocator, ObstackAllocator, RegionAllocator};
use dmm_core::analyze::{self, Diagnostic, Severity};
use dmm_core::error::{Error, Result};
use dmm_core::manager::{Allocator, PolicyAllocator};
use dmm_core::methodology::{
    CandidateEval, CandidateScore, CheckpointJournal, ExplorationEngine, Methodology,
};
use dmm_core::profile::Profile;
use dmm_core::space::config::DmConfig;
use dmm_core::space::interdep;
use dmm_core::space::presets;
use dmm_core::space::trees::{Category, Leaf, TreeId};
use dmm_core::trace::{replay_compiled, CompiledTrace, ReplayBudget, Trace};
use dmm_report::{Cell, Table};
use dmm_workloads::{DrrWorkload, ReconWorkload, RenderWorkload, Workload};
use serde::{Deserialize, Serialize};

/// Parsed command-line invocation.
#[derive(Debug, Clone)]
pub struct Invocation {
    /// Subcommand name.
    pub command: String,
    /// Positional arguments after the subcommand.
    pub positional: Vec<String>,
    /// `--full` flag: paper-scale workloads.
    pub full: bool,
    /// `--seed=N` option.
    pub seed: u64,
    /// `--jobs=N` option: exploration worker threads (0 = all cores).
    pub jobs: usize,
    /// `--shards=N` option: split the trace into N shards and explore
    /// per shard, merging the designs (1 = whole-trace exploration).
    pub shards: usize,
    /// `--json` flag: machine-readable output (lint).
    pub json: bool,
    /// `--all-presets` flag: lint every shipped preset.
    pub all_presets: bool,
    /// `--explain CODE` / `--explain=CODE`: print one catalogue entry.
    pub explain: Option<String>,
    /// `--deny SEVERITY` / `--deny=SEVERITY`: fail (non-zero exit) when
    /// any lint finding reaches the severity.
    pub deny: Option<String>,
    /// `--trace=FILE`: operate on a durable trace file (written by
    /// `dmm record`) instead of recording the workload live.
    pub trace: Option<String>,
    /// `--out=FILE`: where `dmm record` writes the durable trace.
    pub out: Option<String>,
    /// `--checkpoint=FILE`: journal completed replays for crash resume.
    pub checkpoint: Option<String>,
    /// `--resume` flag: resume from the `--checkpoint` journal instead of
    /// truncating it.
    pub resume: bool,
    /// `--recover` flag: salvage the valid prefix of a damaged
    /// `--trace` file instead of failing on the first defect.
    pub recover: bool,
    /// `--budget-steps=N`: per-candidate replay budget in search steps
    /// (malformed values read as 0 and trip immediately — loud, not
    /// silently unlimited).
    pub budget_steps: Option<u64>,
    /// `--budget-ms=N`: per-candidate replay budget in wall-clock
    /// milliseconds (malformed values read as 0).
    pub budget_ms: Option<u64>,
}

impl Invocation {
    /// Parse raw arguments (without the program name). `--help` or `-h`
    /// anywhere selects the `help` command.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidConfig`] naming the argument for an unrecognised
    /// flag or a malformed `--seed`. Malformed `--jobs`, `--shards` and
    /// `--budget-*` values keep their documented fallbacks instead. Any
    /// argument list parses to one or the other; none panics.
    pub fn parse(args: &[String]) -> Result<Invocation> {
        let mut inv = Invocation {
            command: String::from("help"),
            positional: Vec::new(),
            full: false,
            seed: 0,
            jobs: 0,
            shards: 1,
            json: false,
            all_presets: false,
            explain: None,
            deny: None,
            trace: None,
            out: None,
            checkpoint: None,
            resume: false,
            recover: false,
            budget_steps: None,
            budget_ms: None,
        };
        let mut help = false;
        let mut seen_command = false;
        let mut args = args.iter();
        while let Some(a) = args.next() {
            // `--explain`/`--deny` take the next argument as their value. A
            // dangling flag reads as an unknown empty value (the lint
            // handler reports it), not a silent no-op.
            if a == "--explain" {
                inv.explain = Some(args.next().cloned().unwrap_or_default());
            } else if a == "--deny" {
                inv.deny = Some(args.next().cloned().unwrap_or_default());
            } else if let Some(s) = a.strip_prefix("--explain=") {
                inv.explain = Some(s.to_string());
            } else if let Some(s) = a.strip_prefix("--deny=") {
                inv.deny = Some(s.to_string());
            } else if a == "--json" {
                inv.json = true;
            } else if a == "--all-presets" {
                inv.all_presets = true;
            } else if a == "--full" {
                inv.full = true;
            } else if a == "--resume" {
                inv.resume = true;
            } else if a == "--recover" {
                inv.recover = true;
            } else if a == "--help" || a == "-h" {
                help = true;
            } else if let Some(s) = a.strip_prefix("--trace=") {
                inv.trace = Some(s.to_string());
            } else if let Some(s) = a.strip_prefix("--out=") {
                inv.out = Some(s.to_string());
            } else if let Some(s) = a.strip_prefix("--checkpoint=") {
                inv.checkpoint = Some(s.to_string());
            } else if let Some(s) = a.strip_prefix("--budget-steps=") {
                // A malformed budget trips immediately (0) rather than
                // silently running unlimited.
                inv.budget_steps = Some(s.parse().unwrap_or(0));
            } else if let Some(s) = a.strip_prefix("--budget-ms=") {
                inv.budget_ms = Some(s.parse().unwrap_or(0));
            } else if let Some(s) = a.strip_prefix("--seed=") {
                inv.seed = s.parse().map_err(|_| {
                    Error::InvalidConfig(format!(
                        "malformed '{a}' (expected --seed=N, N a non-negative integer)"
                    ))
                })?;
            } else if let Some(s) = a.strip_prefix("--jobs=") {
                // A malformed value falls back to serial (1), not to all
                // cores (0) — the opposite extreme of a likely typo.
                inv.jobs = s.parse().unwrap_or(1);
            } else if let Some(s) = a.strip_prefix("--shards=") {
                // Malformed or zero means unsharded.
                inv.shards = s.parse().unwrap_or(1).max(1);
            } else if a.starts_with('-') {
                return Err(Error::InvalidConfig(format!(
                    "unknown flag '{a}' — try 'dmm help'"
                )));
            } else if !seen_command {
                inv.command = a.clone();
                seen_command = true;
            } else {
                inv.positional.push(a.clone());
            }
        }
        if help {
            inv.command = String::from("help");
        }
        Ok(inv)
    }
}

fn workload(inv: &Invocation) -> Result<Box<dyn Workload>> {
    let name = inv.positional.first().map(String::as_str).unwrap_or("drr");
    let w: Box<dyn Workload> = match (name, inv.full) {
        ("drr", false) => Box::new(DrrWorkload::quick(inv.seed)),
        ("drr", true) => Box::new(DrrWorkload::case_study(inv.seed)),
        ("recon", false) => Box::new(ReconWorkload::quick(inv.seed)),
        ("recon", true) => Box::new(ReconWorkload::case_study(inv.seed)),
        ("render", false) => Box::new(RenderWorkload::quick(inv.seed)),
        ("render", true) => Box::new(RenderWorkload::case_study(inv.seed)),
        (other, _) => {
            return Err(Error::InvalidConfig(format!(
                "unknown workload '{other}' (expected drr, recon or render)"
            )))
        }
    };
    Ok(w)
}

/// The trace a subcommand operates on: loaded from a durable
/// `--trace=FILE` (written by `dmm record`), or recorded live from the
/// named workload. Returns the display name, the trace, and — when
/// `--recover` salvaged a damaged file — a note describing the stopping
/// defect.
fn trace_source(inv: &Invocation) -> Result<(String, Trace, Option<String>)> {
    let Some(path) = &inv.trace else {
        let w = workload(inv)?;
        return Ok((w.name().to_string(), w.record()?, None));
    };
    let p = std::path::Path::new(path);
    if inv.recover {
        let rec = dmm_core::trace::recover_trace(p)?;
        let note = rec.truncated.as_ref().map(|e| {
            format!(
                "recovered valid prefix of {path}: {} frame(s), {} event(s); stopped at: {e}",
                rec.frames,
                rec.trace.len()
            )
        });
        Ok((path.clone(), rec.trace, note))
    } else {
        Ok((path.clone(), dmm_core::trace::read_trace(p)?, None))
    }
}

/// The exploration engine a subcommand evaluates through, with the
/// robustness flags applied: the per-candidate replay budget and the
/// checkpoint journal. Every subcommand explores greedily or by shards,
/// and both need every score they ask for, so a tripped budget fails the
/// command.
fn engine_for(inv: &Invocation) -> Result<ExplorationEngine> {
    if inv.resume && inv.checkpoint.is_none() {
        return Err(Error::InvalidConfig(
            "--resume needs --checkpoint=FILE (the journal to resume from)".into(),
        ));
    }
    let engine = ExplorationEngine::new(inv.jobs).with_budget(ReplayBudget {
        max_steps: inv.budget_steps,
        max_millis: inv.budget_ms,
    });
    let Some(path) = &inv.checkpoint else {
        return Ok(engine);
    };
    let p = std::path::Path::new(path);
    let journal = if inv.resume {
        CheckpointJournal::resume(p)?
    } else {
        CheckpointJournal::create(p)?
    };
    Ok(engine.with_journal(journal))
}

/// Pre-run snapshot of the engine's journal: path, replays already
/// journalled, damaged bytes dropped on resume. Take it **before**
/// exploring — afterwards the journal also holds this run's replays.
fn journal_snapshot(engine: &ExplorationEngine) -> Option<(String, usize, usize)> {
    engine.journal().map(|j| {
        (
            j.path().display().to_string(),
            j.entries(),
            j.recovered_bytes(),
        )
    })
}

/// The `workload:` / checkpoint header lines shared by the exploration
/// surfaces.
fn write_source_header(
    out: &mut String,
    name: &str,
    note: &Option<String>,
    journal: &Option<(String, usize, usize)>,
) {
    let _ = writeln!(out, "workload: {name}");
    if let Some(n) = note {
        let _ = writeln!(out, "note: {n}");
    }
    if let Some((path, entries, recovered)) = journal {
        let dropped = if *recovered > 0 {
            format!(", {recovered} damaged byte(s) dropped")
        } else {
            String::new()
        };
        let _ = writeln!(
            out,
            "checkpoint: {path} ({entries} replay(s) already journalled{dropped})"
        );
    }
}

/// `dmm record <workload> --out=FILE`: record the workload once and write
/// its trace as a durable, checksummed file for `--trace=FILE` reuse.
///
/// # Errors
///
/// [`Error::InvalidConfig`] without `--out`; workload and I/O failures
/// propagate ([`Error::TraceStore`] `TR013` for the write).
pub fn record_text(inv: &Invocation) -> Result<String> {
    let Some(out_path) = &inv.out else {
        return Err(Error::InvalidConfig(
            "record needs --out=FILE for the durable trace".into(),
        ));
    };
    let w = workload(inv)?;
    let trace = w.record()?;
    let path = std::path::Path::new(out_path);
    dmm_core::trace::write_trace(path, &trace)?;
    let bytes = std::fs::metadata(path).map(|m| m.len()).unwrap_or(0);
    let mut out = String::new();
    let _ = writeln!(out, "workload: {}", w.name());
    let _ = writeln!(
        out,
        "recorded {} event(s) ({} allocs) to {} ({bytes} B, checksummed frames of {} events)",
        trace.len(),
        trace.alloc_count(),
        path.display(),
        dmm_core::trace::store::FRAME_EVENTS
    );
    let _ = writeln!(
        out,
        "(replay it with --trace={}; --recover salvages the valid prefix of a damaged file)",
        path.display()
    );
    Ok(out)
}

/// Usage text. A `\` line continuation would drop the indentation of
/// the command list, so the text is one literal with its layout as printed.
pub fn help_text() -> String {
    HELP.to_string()
}

const HELP: &str = "\
dmm — custom dynamic-memory-manager design methodology (DATE 2004)

USAGE: dmm <command> [workload] [--full] [--seed=N] [--jobs=N] [--shards=N]

COMMANDS:
  space              print the DM-management decision trees (Figure 1)
  interdep           print the interdependency rules/arrows (Figure 2)
  profile <wl>       profile a workload's DM behaviour
  explore <wl>       design a custom manager for a workload
  compare <wl>       footprint of every manager on a workload
  phases <wl>        detect logical phases from DM behaviour alone
  lint <target>      static diagnostics (DM0xx/TR0xx/BD0xx) over a preset
                     configuration or a workload trace; targets are a
                     preset (drr_paper|kingsley_like|lea_like|neutral),
                     a workload, or --all-presets; --json for machines,
                     --explain CODE for one catalogue entry,
                     --deny SEVERITY (note|warn|error) for a gating
                     non-zero exit when any finding reaches it
  bounds <wl>        admissible footprint floors of every preset on a
                     workload trace, next to the replayed peaks
  record <wl>        record the workload once and write its trace as a
                     durable checksummed file (--out=FILE required)
  help               this text

WORKLOADS: drr | recon | render  (test scale; add --full for paper scale)

--jobs=N fans exploration replays out over N threads (0 = all cores;
results are bit-identical to a serial run)
--shards=N splits the trace into N self-contained shards, explores
each independently and merges the designs by score-weighted vote
(phase-aligned when the trace has phases; memory is bounded by the
largest shard instead of the whole trace)
--trace=FILE replays a durable trace (from `dmm record`) instead of
recording the workload live; --recover salvages the valid prefix of
a damaged file (defects are structured TR01x errors otherwise)
--checkpoint=FILE journals every completed replay; after a crash,
--resume skips the journalled candidates (bit-identical winner)
--budget-steps=N / --budget-ms=N bound each candidate replay; a
tripped budget fails the command (exit 1)
";

/// `dmm space`.
pub fn space_text() -> String {
    let mut out = String::new();
    for category in Category::ALL {
        let _ = writeln!(out, "{category}");
        for tree in TreeId::ALL.iter().filter(|t| t.category() == category) {
            let _ = writeln!(out, "  {tree}");
            for leaf in tree.leaves() {
                let _ = writeln!(out, "      - {leaf}");
            }
        }
    }
    out
}

/// `dmm interdep`. Regenerated from the [`interdep::RULES`] and
/// [`interdep::ARROWS`] tables — the same tables the lint engine reads —
/// so each line carries the diagnostic code it fires under.
pub fn interdep_text() -> String {
    let mut out = String::from("hard rules (full arrows):\n");
    for r in interdep::RULES {
        let _ = writeln!(out, "  {} [{}]: {}", r.id, r.code, r.description);
    }
    out.push_str("soft arrows (linked purposes):\n");
    for a in interdep::ARROWS
        .iter()
        .filter(|a| a.kind == interdep::ArrowKind::Soft)
    {
        let code = analyze::soft_arrow_code(a.from, a.to)
            .map(|c| format!(" [{c}]"))
            .unwrap_or_default();
        let _ = writeln!(
            out,
            "  {} --> {}{code}: {}",
            a.from.code(),
            a.to.code(),
            a.why
        );
    }
    out.push_str("(dmm lint --explain CODE prints the catalogue entry)\n");
    out
}

/// One linted target: the element shape of `dmm lint --json`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LintReport {
    /// What was linted: a preset key or a workload name.
    pub target: String,
    /// `"config"` or `"trace"`.
    pub kind: String,
    /// Diagnostics in emission order (stable codes — see the catalogue).
    pub diagnostics: Vec<Diagnostic>,
}

/// A preset constructor paired with its stable CLI key.
type PresetEntry = (&'static str, fn() -> DmConfig);

/// The shipped presets by stable key, in lint order.
const PRESET_KEYS: &[PresetEntry] = &[
    ("drr_paper", presets::drr_paper),
    ("kingsley_like", presets::kingsley_like),
    ("lea_like", presets::lea_like),
    ("neutral", presets::neutral),
];

fn config_report(target: &str, cfg: &DmConfig) -> LintReport {
    LintReport {
        target: target.to_string(),
        kind: "config".into(),
        diagnostics: analyze::lint_config(cfg),
    }
}

fn lint_reports(inv: &Invocation) -> Result<Vec<LintReport>> {
    if inv.all_presets {
        return Ok(PRESET_KEYS
            .iter()
            .map(|(k, f)| config_report(k, &f()))
            .collect());
    }
    let Some(name) = inv.positional.first().map(String::as_str) else {
        return Err(Error::InvalidConfig(
            "lint needs a target: a preset (drr_paper|kingsley_like|lea_like|neutral), \
             a workload (drr|recon|render), or --all-presets"
                .into(),
        ));
    };
    if let Some((k, f)) = PRESET_KEYS.iter().find(|(k, _)| *k == name) {
        return Ok(vec![config_report(k, &f())]);
    }
    match name {
        "drr" | "recon" | "render" => {
            let w = workload(inv)?;
            let trace = w.record()?;
            Ok(vec![LintReport {
                target: w.name().to_string(),
                kind: "trace".into(),
                diagnostics: analyze::lint_trace(&trace),
            }])
        }
        other => Err(Error::InvalidConfig(format!(
            "unknown lint target '{other}' (expected a preset drr_paper|kingsley_like|\
             lea_like|neutral, a workload drr|recon|render, or --all-presets)"
        ))),
    }
}

/// Parse a `--deny` severity name (`note`, `warn`, `error`).
fn parse_severity(name: &str) -> Result<Severity> {
    match name {
        "note" => Ok(Severity::Note),
        "warn" | "warning" => Ok(Severity::Warn),
        "error" => Ok(Severity::Error),
        other => Err(Error::InvalidConfig(format!(
            "unknown severity '{other}' for --deny (expected note, warn or error)"
        ))),
    }
}

/// `dmm lint <target>`: static diagnostics over a preset configuration or
/// a recorded workload trace. `--json` emits machine-readable reports,
/// `--explain CODE` prints one catalogue entry instead of linting, and
/// `--deny SEVERITY` turns any finding at or above the severity into an
/// error (non-zero process exit) carrying the full report.
///
/// # Errors
///
/// Unknown targets, unknown `--explain` codes and unknown `--deny`
/// severities are [`Error::InvalidConfig`]; a tripped `--deny` threshold
/// is too; workload recording failures propagate.
pub fn lint_text(inv: &Invocation) -> Result<String> {
    if let Some(code) = &inv.explain {
        return match analyze::explain(code) {
            Some(entry) => Ok(entry.explain_text()),
            None => Err(Error::InvalidConfig(format!(
                "unknown diagnostic code '{code}' (codes are DM0xx for configurations, \
                 TR0xx for traces, BD0xx for bounds; see the README catalogue)"
            ))),
        };
    }
    // Validate the threshold before doing any work, so a typo'd severity
    // fails fast instead of silently gating nothing.
    let deny = inv.deny.as_deref().map(parse_severity).transpose()?;
    let reports = lint_reports(inv)?;
    let out = if inv.json {
        let mut s = serde_json::to_string(&reports)
            .map_err(|e| Error::InvalidConfig(format!("lint serialization failed: {e}")))?;
        s.push('\n');
        s
    } else {
        let mut out = String::new();
        let (mut errors, mut warns, mut notes) = (0usize, 0usize, 0usize);
        for r in &reports {
            if r.diagnostics.is_empty() {
                let _ = writeln!(out, "{} ({}): clean", r.target, r.kind);
                continue;
            }
            let _ = writeln!(out, "{} ({}):", r.target, r.kind);
            for d in &r.diagnostics {
                match d.severity {
                    Severity::Error => errors += 1,
                    Severity::Warn => warns += 1,
                    Severity::Note => notes += 1,
                }
                let _ = writeln!(out, "  {}", d.render());
            }
        }
        let _ = writeln!(
            out,
            "{errors} error(s), {warns} warning(s), {notes} note(s)"
        );
        out
    };
    if let Some(threshold) = deny {
        let offenders: Vec<&Diagnostic> = reports
            .iter()
            .flat_map(|r| &r.diagnostics)
            .filter(|d| d.severity >= threshold)
            .collect();
        if !offenders.is_empty() {
            return Err(Error::InvalidConfig(format!(
                "lint: {} finding(s) at or above --deny {threshold}:\n{}",
                offenders.len(),
                offenders
                    .iter()
                    .map(|d| format!("  {}", d.render()))
                    .collect::<Vec<_>>()
                    .join("\n")
            )));
        }
    }
    Ok(out)
}

/// `dmm bounds <workload>`: admissible footprint floors of every shipped
/// preset on the workload's trace, next to the peaks their replays
/// actually reach. The floor is [`analyze::lower_bound_peak`] — computed
/// without replaying — so the table shows both how configurations rank
/// before any simulation and how tight the static analysis is
/// (`floor/peak`, 100% = exact). BD0xx advisories per configuration
/// follow the table; `dmm lint --explain BD001` documents the contract.
///
/// # Errors
///
/// Propagates workload recording and replay failures.
pub fn bounds_text(inv: &Invocation) -> Result<String> {
    let w = workload(inv)?;
    let trace = w.record()?;
    let facts = analyze::TraceFacts::of(&trace);
    let mut out = String::new();
    let _ = writeln!(out, "workload: {}", w.name());
    let _ = writeln!(
        out,
        "trace: {} events, live-set peak {} B in {} blocks",
        trace.len(),
        facts.peak.bytes,
        facts.peak.blocks
    );
    let mut table = Table::new(
        format!("admissible footprint floors on {}", w.name()),
        vec![
            "configuration".into(),
            "lower bound".into(),
            "dominant term".into(),
            "replayed peak".into(),
            "floor/peak".into(),
        ],
    );
    let compiled = CompiledTrace::compile(&trace);
    let mut advisories = String::new();
    for (key, make) in PRESET_KEYS {
        let cfg = make();
        let breakdown = analyze::bound_breakdown(&facts, &cfg);
        let bound = breakdown.total();
        let mut mgr = PolicyAllocator::new(cfg.clone())?;
        let fs = replay_compiled(&compiled, &mut mgr)?;
        debug_assert!(bound <= fs.peak_footprint, "inadmissible bound for {key}");
        table.push_row(
            (*key).to_string(),
            vec![
                Cell::Bytes(bound),
                Cell::Text(breakdown.dominant().to_string()),
                Cell::Bytes(fs.peak_footprint),
                Cell::Percent(100.0 * bound as f64 / fs.peak_footprint.max(1) as f64),
            ],
        );
        for d in analyze::lint_bounds(&facts, &cfg) {
            let _ = writeln!(advisories, "  [{key}] {}", d.render());
        }
    }
    out.push_str(&table.to_ascii());
    if !advisories.is_empty() {
        let _ = writeln!(out, "advisories:");
        out.push_str(&advisories);
    }
    let _ = writeln!(
        out,
        "(floors are admissible: bound <= replayed peak for every configuration; \
         the exploration engine uses them to skip provably-losing candidates)"
    );
    Ok(out)
}

/// `dmm profile <workload>`.
///
/// # Errors
///
/// Propagates workload failures.
pub fn profile_text(inv: &Invocation) -> Result<String> {
    let (name, trace, note) = trace_source(inv)?;
    let p = Profile::of(&trace);
    let mut out = String::new();
    let _ = writeln!(out, "workload: {name}");
    if let Some(n) = &note {
        let _ = writeln!(out, "note: {n}");
    }
    let _ = writeln!(
        out,
        "events: {} ({} allocs, {} frees)",
        trace.len(),
        p.allocs,
        p.frees
    );
    let _ = writeln!(out, "distinct sizes: {}", p.histogram.distinct());
    let _ = writeln!(out, "mean size: {:.1} B", p.histogram.mean());
    let _ = writeln!(
        out,
        "size variability (cv): {:.2}",
        p.histogram.coefficient_of_variation()
    );
    let _ = writeln!(
        out,
        "peak live: {} B in {} blocks",
        p.peak_live_bytes, p.peak_live_count
    );
    let _ = writeln!(out, "mean lifetime: {:.1} events", p.lifetimes.mean);
    for ph in &p.phases {
        let _ = writeln!(
            out,
            "phase {}: {} allocs, peak live {} B, stack-like: {}",
            ph.phase, ph.allocs, ph.peak_live, ph.stack_like
        );
    }
    let _ = writeln!(out, "top sizes (size x count):");
    for (s, c) in p.histogram.top_k(8) {
        let _ = writeln!(out, "  {s:>8} B x {c}");
    }
    Ok(out)
}

/// `dmm explore <workload>`.
///
/// # Errors
///
/// Propagates workload/exploration failures.
pub fn explore_text(inv: &Invocation) -> Result<String> {
    if inv.shards > 1 {
        return explore_sharded_text(inv);
    }
    let (name, trace, note) = trace_source(inv)?;
    let engine = engine_for(inv)?;
    let journal = journal_snapshot(&engine);
    let outcome = Methodology::new().explore_with_engine(&trace, &engine)?;
    let mut out = String::new();
    write_source_header(&mut out, &name, &note, &journal);
    let _ = writeln!(out, "exploration: {}", outcome.counters);
    let _ = writeln!(out, "decision log (traversal order of Section 4.2):");
    for d in &outcome.decisions {
        let _ = writeln!(out, "  {} -> {}", d.tree.code(), d.chosen);
        for c in &d.candidates {
            let _ = writeln!(out, "{}", candidate_line(c, d.chosen));
        }
    }
    // The designed config is the best completion found anywhere during the
    // search (incumbent + probe portfolio), which can differ from the
    // greedy per-tree choices starred above — say so to avoid reading the
    // two as contradictory.
    let _ = writeln!(
        out,
        "\nfinal configuration (best design evaluated; may differ from the \
         starred greedy path): {}",
        outcome.config.summary()
    );
    let _ = writeln!(
        out,
        "config fingerprint: {:016x}",
        outcome.config.fingerprint()
    );
    let _ = writeln!(
        out,
        "peak footprint: {} B (application peak live: {} B)",
        outcome.footprint.peak_footprint,
        trace.peak_live_requested()
    );
    Ok(out)
}

/// One candidate of the decision log: the chosen leaf (starred) and its
/// peak ties with their exact peak and steps, and a candidate that lost on
/// peak as `peak > N B`, `N` being the tree's best peak.
fn candidate_line(c: &CandidateEval, chosen: Leaf) -> String {
    let marker = if c.leaf == chosen { "*" } else { " " };
    let leaf = c.leaf.to_string();
    match c.score {
        CandidateScore::Exact {
            peak_footprint,
            search_steps,
        } => {
            format!("     {marker} {leaf:<28} peak {peak_footprint:>10} B, {search_steps:>8} steps")
        }
        CandidateScore::PeakAbove(best) => format!("     {marker} {leaf:<28} peak > {best:>8} B"),
    }
}

/// `dmm explore <workload> --shards=N`: sharded exploration with the
/// merge-decision log.
///
/// # Errors
///
/// Propagates workload/exploration failures.
fn explore_sharded_text(inv: &Invocation) -> Result<String> {
    let (name, trace, note) = trace_source(inv)?;
    let engine = engine_for(inv)?;
    let journal = journal_snapshot(&engine);
    let outcome = Methodology::new().explore_sharded_with_engine(&trace, inv.shards, &engine)?;
    let mut out = String::new();
    write_source_header(&mut out, &name, &note, &journal);
    let _ = writeln!(
        out,
        "shards: {} (requested {}; phase-aligned shards win over the flag)",
        outcome.shard_count, inv.shards
    );
    for s in &outcome.per_shard {
        let label = match s.phase {
            Some(p) => format!("shard {} (phase {p})", s.index),
            None => format!("shard {}", s.index),
        };
        let _ = writeln!(
            out,
            "  {label}: {} events, peak {} B, vote weight {} B",
            s.events, s.outcome.footprint.peak_footprint, s.weight as usize
        );
    }
    let _ = writeln!(out, "exploration: {}", outcome.counters);
    let _ = writeln!(out, "merge log (score-weighted vote per tree):");
    for d in &outcome.merges {
        let votes = d
            .votes
            .iter()
            .map(|v| format!("{} ({} shards, {} B)", v.leaf, v.shards, v.weight as usize))
            .collect::<Vec<_>>()
            .join("; ");
        let mark = if d.unanimous { "=" } else { "~" };
        let _ = writeln!(out, "  {} {mark}> {}   [{votes}]", d.tree.code(), d.chosen);
    }
    let _ = writeln!(out, "\nmerged configuration: {}", outcome.config.summary());
    let _ = writeln!(
        out,
        "composed peak footprint: {} B (application peak live: {} B)",
        outcome.footprint.peak_footprint,
        trace.peak_live_requested()
    );
    // This in-memory path holds the recorded trace and its shards at
    // once; only the streaming API (`explore_shard_stream`) realises the
    // per-shard bound — report the figure as that path's bound, not as
    // this invocation's resident memory.
    let _ = writeln!(
        out,
        "largest shard: {} B of {} B total trace (streaming exploration is \
         bounded by the largest shard; carried across boundaries: {} B)",
        outcome.peak_resident_trace_bytes,
        trace.resident_bytes(),
        outcome.max_carried_bytes
    );
    Ok(out)
}

/// `dmm compare <workload>`.
///
/// # Errors
///
/// Propagates workload/exploration failures.
pub fn compare_text(inv: &Invocation) -> Result<String> {
    let (name, trace, _note) = trace_source(inv)?;
    let engine = engine_for(inv)?;
    let profile = Profile::of(&trace);
    let methodology = Methodology::new().with_name("our DM manager");
    // With --shards=N the custom design comes from sharded exploration —
    // same comparison table, scalable design path.
    let custom_config = if inv.shards > 1 {
        let mut sharded = methodology.explore_sharded_with_engine(&trace, inv.shards, &engine)?;
        sharded.config.name = "our DM manager (sharded)".into();
        sharded.config
    } else {
        methodology.explore_with_engine(&trace, &engine)?.config
    };
    let mut managers: Vec<Box<dyn Allocator>> = vec![
        Box::new(KingsleyAllocator::with_initial_region(if inv.full {
            2 * 1024 * 1024
        } else {
            64 * 1024
        })),
        Box::new(LeaAllocator::new()),
        Box::new(RegionAllocator::with_profile(&profile)),
        Box::new(ObstackAllocator::new()),
        Box::new(PolicyAllocator::new(custom_config)?),
    ];
    let mut table = Table::new(
        format!("footprint on {name}"),
        vec![
            "manager".into(),
            "peak footprint".into(),
            "ours improves by".into(),
        ],
    );
    // One compilation serves every comparator's replay: frees are already
    // slot-resolved, so each row pays no per-event id hashing.
    let compiled = CompiledTrace::compile(&trace);
    let mut results = Vec::new();
    for m in managers.iter_mut() {
        let fs = replay_compiled(&compiled, m.as_mut())?;
        results.push((fs.manager.to_string(), fs.peak_footprint));
    }
    let ours = results.last().expect("non-empty").1;
    for (name, peak) in &results {
        table.push_row(
            name.clone(),
            vec![
                Cell::Bytes(*peak),
                Cell::Percent(dmm_core::metrics::percent_improvement(ours, *peak)),
            ],
        );
    }
    Ok(table.to_ascii())
}

/// `dmm phases <workload>` — detect logical phases from the allocation
/// behaviour alone and compare with the application's own markers.
///
/// # Errors
///
/// Propagates workload failures.
pub fn phases_text(inv: &Invocation) -> Result<String> {
    use dmm_core::profile::{annotate_phases, detect_phase_boundaries};
    use dmm_core::trace::{Trace, TraceEvent};

    let w = workload(inv)?;
    let trace = w.record()?;
    let announced = trace.phases();
    // Strip the application's markers, then detect blind.
    let stripped = Trace::from_events(
        trace
            .events()
            .iter()
            .copied()
            .filter(|e| !matches!(e, TraceEvent::Phase { .. }))
            .collect(),
    )
    .expect("stripping markers preserves validity");
    let bounds = detect_phase_boundaries(&stripped, 32, 0.8);
    let annotated = annotate_phases(&stripped, 32, 0.8);

    let mut out = String::new();
    let _ = writeln!(out, "workload: {}", w.name());
    let _ = writeln!(out, "announced phases: {announced:?}");
    let _ = writeln!(out, "detected boundaries (event indices): {bounds:?}");
    let _ = writeln!(out, "detected phases: {:?}", annotated.phases());
    for (phase, sub) in annotated.split_phases() {
        let p = Profile::of(&sub);
        let _ = writeln!(
            out,
            "  phase {phase}: {} allocs, mean size {:.0} B, stack-like: {}",
            p.allocs,
            p.histogram.mean(),
            p.phases.first().map(|x| x.stack_like).unwrap_or(false)
        );
    }
    // --shards=N: show how the detected structure shards (phase-aligned
    // when the detector found phases, lifetime-closed windows otherwise).
    if inv.shards > 1 {
        let shards = dmm_core::trace::shard_trace(&annotated, inv.shards);
        let _ = writeln!(out, "shard plan ({} shards):", shards.len());
        for s in &shards {
            let label = match s.phase {
                Some(p) => format!("phase {p}"),
                None => "window".to_string(),
            };
            let _ = writeln!(
                out,
                "  shard {} ({label}): {} events, {} resident B, boundary carry {} B{}",
                s.index,
                s.trace.len(),
                s.resident_bytes(),
                s.boundary.carried_bytes,
                if s.boundary.is_closed() {
                    " (closed)"
                } else {
                    ""
                }
            );
        }
    }
    Ok(out)
}

/// Dispatch an invocation to its subcommand.
///
/// # Errors
///
/// Returns [`Error::InvalidConfig`] for unknown commands or workloads, and
/// propagates harness failures.
pub fn run(inv: &Invocation) -> Result<String> {
    match inv.command.as_str() {
        "space" => Ok(space_text()),
        "interdep" => Ok(interdep_text()),
        "profile" => profile_text(inv),
        "explore" => explore_text(inv),
        "compare" => compare_text(inv),
        "phases" => phases_text(inv),
        "lint" => lint_text(inv),
        "bounds" => bounds_text(inv),
        "record" => record_text(inv),
        "help" => Ok(help_text()),
        other => Err(Error::InvalidConfig(format!(
            "unknown command '{other}' — try 'dmm help'"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(parts: &[&str]) -> Result<Invocation> {
        Invocation::parse(&parts.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    fn inv(parts: &[&str]) -> Invocation {
        parse(parts).unwrap()
    }

    #[test]
    fn help_lists_all_commands() {
        // Every command `run` dispatches sits on a line of the COMMANDS
        // list indented by two spaces, its description starting in the
        // description column; every other line there continues a
        // description in that column.
        const COLUMN: usize = 21;
        let h = help_text();
        let list: Vec<&str> = h
            .lines()
            .skip_while(|l| *l != "COMMANDS:")
            .skip(1)
            .take_while(|l| !l.is_empty())
            .collect();
        let indent = |l: &str| l.chars().take_while(|&c| c == ' ').count();
        let commands = [
            "space", "interdep", "profile", "explore", "compare", "phases", "lint", "bounds",
            "record", "help",
        ];
        for cmd in commands {
            let line = list
                .iter()
                .find(|l| l.split_whitespace().next() == Some(cmd))
                .unwrap_or_else(|| panic!("help missing {cmd}"));
            assert_eq!(indent(line), 2, "{line:?}");
            let b = line.as_bytes();
            assert!(
                b[COLUMN - 1] == b' ' && b[COLUMN] != b' ',
                "{cmd}: description not in column {COLUMN}: {line:?}"
            );
        }
        for line in &list {
            let word = line.split_whitespace().next().unwrap_or("");
            if !commands.contains(&word) {
                assert_eq!(indent(line), COLUMN, "continuation off column: {line:?}");
            }
        }
    }

    #[test]
    fn parse_flags_and_positionals() {
        let i = inv(&[
            "explore",
            "recon",
            "--seed=7",
            "--full",
            "--jobs=4",
            "--shards=8",
        ]);
        assert_eq!(i.command, "explore");
        assert_eq!(i.positional, vec!["recon"]);
        assert_eq!(i.seed, 7);
        assert!(i.full);
        assert_eq!(i.jobs, 4);
        assert_eq!(i.shards, 8);
        assert_eq!(inv(&["explore"]).jobs, 0, "jobs defaults to all cores");
        assert_eq!(inv(&["explore"]).shards, 1, "shards defaults to unsharded");
        assert_eq!(
            inv(&["explore", "--jobs=oops"]).jobs,
            1,
            "malformed jobs falls back to serial, not all cores"
        );
        assert_eq!(
            inv(&["explore", "--shards=oops"]).shards,
            1,
            "malformed shard count falls back to unsharded"
        );
        assert_eq!(inv(&["explore", "--shards=0"]).shards, 1);
    }

    #[test]
    fn parse_rejects_malformed_seeds_and_unknown_flags() {
        for bad in ["--seed=oops", "--seed=-1", "--seed="] {
            let err = parse(&["explore", "drr", bad]).unwrap_err();
            assert!(matches!(err, Error::InvalidConfig(_)), "{err}");
            assert!(err.to_string().contains("--seed"), "{err}");
        }
        for flag in ["--width=8", "--bogus", "--seed", "-x"] {
            let err = parse(&["explore", "drr", flag]).unwrap_err();
            assert!(matches!(err, Error::InvalidConfig(_)), "{err}");
            assert!(err.to_string().contains(flag), "{err}");
        }
        // Help still parses, as a command or anywhere after one.
        for args in [&["--help"][..], &["-h"], &["explore", "--help"]] {
            assert!(run(&inv(args)).unwrap().contains("USAGE"), "{args:?}");
        }
    }

    /// Argument fragments: flags the parser knows, bare and with `=`,
    /// malformed values, a bare `=`, empty strings and non-ASCII text.
    const FRAGMENTS: &[&str] = &[
        "",
        "=",
        "-",
        "--",
        "-h",
        "--help",
        "--explain",
        "--deny",
        "--explain=",
        "--deny=",
        "--json",
        "--full",
        "--resume",
        "--trace=",
        "--checkpoint=",
        "--budget-steps=",
        "--budget-ms=",
        "--seed=",
        "--jobs=",
        "--shards=",
        "--seed",
        "--bogus",
        "explore",
        "drr",
        "lint",
        "7",
        "-1",
        "oops",
        "18446744073709551616",
        "é",
        "日本",
        "\u{0}",
        " ",
    ];

    /// Parsing is total: `Ok`, or [`Error::InvalidConfig`] naming one of
    /// the flag arguments it was given — never a panic.
    fn parses_totally(args: &[String]) -> std::result::Result<(), String> {
        match Invocation::parse(args) {
            Ok(_) => Ok(()),
            Err(Error::InvalidConfig(msg))
                if args
                    .iter()
                    .any(|a| a.starts_with('-') && msg.contains(a.as_str())) =>
            {
                Ok(())
            }
            Err(e) => Err(format!("{args:?} -> {e:?}")),
        }
    }

    #[test]
    fn parse_is_total_on_edge_arguments() {
        let cases: &[&[&str]] = &[
            &[],
            &[""],
            &["="],
            &["", "=", ""],
            &["explore", "--explain"],
            &["lint", "--deny"],
            &["--explain", "--deny"],
            &["--seed=é"],
            &["explore", "日本", "--é"],
            &["--seed=18446744073709551616"],
        ];
        for args in cases {
            let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
            parses_totally(&args).unwrap();
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(512))]

        #[test]
        fn parse_is_total_on_arbitrary_arguments(
            picks in proptest::collection::vec(
                proptest::collection::vec(0..FRAGMENTS.len(), 0..4),
                0..6,
            ),
        ) {
            let args: Vec<String> = picks
                .iter()
                .map(|p| p.iter().map(|&i| FRAGMENTS[i]).collect())
                .collect();
            parses_totally(&args)?;
        }
    }

    #[test]
    fn explore_reports_cache_counters_and_jobs_agree() {
        let serial = explore_text(&inv(&["explore", "drr", "--jobs=1"])).unwrap();
        let parallel = explore_text(&inv(&["explore", "drr", "--jobs=4"])).unwrap();
        assert!(serial.contains("cache hits"), "{serial}");
        // Same decisions and final configuration line, whatever the
        // fan-out. (Counters may split differently between replays and
        // cache hits; compare everything below the counter line.)
        let tail = |s: &str| {
            s.lines()
                .skip_while(|l| !l.starts_with("decision log"))
                .collect::<Vec<_>>()
                .join("\n")
        };
        assert_eq!(tail(&serial), tail(&parallel));
    }

    #[test]
    fn decision_log_prints_losers_as_a_bound_on_the_best_peak() {
        use dmm_core::space::trees::BlockSizes;
        let (many, pow2) = (
            Leaf::A2(BlockSizes::Many),
            Leaf::A2(BlockSizes::PowerOfTwoClasses),
        );
        let exact = CandidateEval {
            leaf: many,
            score: CandidateScore::Exact {
                peak_footprint: 8364,
                search_steps: 3366,
            },
        };
        let lost = CandidateEval {
            leaf: pow2,
            score: CandidateScore::PeakAbove(8364),
        };
        assert_eq!(
            candidate_line(&exact, many),
            "     * many (not fixed)             peak       8364 B,     3366 steps"
        );
        assert_eq!(
            candidate_line(&lost, many),
            "       fixed: power-of-two classes  peak >     8364 B"
        );
        // End to end: the chosen leaf and its peak ties keep their exact
        // peak and steps, and every other candidate reads `peak > N B`
        // with N the chosen peak.
        let text = explore_text(&inv(&["explore", "drr", "--jobs=1"])).unwrap();
        // One block of candidate rows per tree, after its `  XX -> leaf`
        // header line.
        let mut trees: Vec<Vec<Vec<&str>>> = Vec::new();
        for line in text
            .lines()
            .skip_while(|l| !l.starts_with("decision log"))
            .skip(1)
            .take_while(|l| !l.is_empty())
        {
            if line.starts_with("     ") {
                trees
                    .last_mut()
                    .unwrap()
                    .push(line.split_whitespace().collect());
            } else {
                trees.push(Vec::new());
            }
        }
        assert_eq!(trees.len(), TreeId::ALL.len());
        let mut lost = 0;
        for rows in &trees {
            let tree = format!("{rows:?}");
            let peak_of = |row: &[&str]| -> Vec<String> {
                let at = row.iter().position(|w| *w == "peak").unwrap();
                row[at + 1..].iter().map(|w| w.to_string()).collect()
            };
            let chosen = rows.iter().find(|r| r[0] == "*").expect(&tree);
            let chosen = peak_of(chosen);
            assert_eq!(chosen[1..], ["B,", &chosen[2], "steps"], "{tree}");
            for row in rows {
                let score = peak_of(row);
                if score[0] == ">" {
                    assert_eq!(score[1..], [&chosen[0], "B"], "{tree}");
                    lost += 1;
                } else {
                    assert_eq!(score[0], chosen[0], "a tie keeps its exact score: {tree}");
                    assert_eq!(score.last().unwrap(), "steps", "{tree}");
                }
            }
        }
        assert!(lost > 0, "{text}");
    }

    #[test]
    fn empty_args_default_to_help() {
        let i = inv(&[]);
        assert_eq!(i.command, "help");
        assert!(run(&i).unwrap().contains("USAGE"));
    }

    #[test]
    fn space_shows_all_trees() {
        let s = space_text();
        for tree in TreeId::ALL {
            assert!(s.contains(tree.code()));
        }
    }

    #[test]
    fn interdep_shows_rules() {
        let s = interdep_text();
        assert!(s.contains("R1a"));
        assert!(s.contains("-->"));
        // Every hard rule line carries its diagnostic code, straight from
        // the same table the lint engine reads.
        for r in interdep::RULES {
            assert!(s.contains(r.code), "missing {} in interdep text", r.code);
        }
        assert!(
            s.contains("[DM020]"),
            "soft arrows carry advisory codes:\n{s}"
        );
    }

    #[test]
    fn parse_lint_flags() {
        let i = inv(&["lint", "--all-presets", "--json"]);
        assert_eq!(i.command, "lint");
        assert!(i.json && i.all_presets);
        assert_eq!(
            inv(&["lint", "--explain", "DM007"]).explain.as_deref(),
            Some("DM007")
        );
        assert_eq!(
            inv(&["lint", "--explain=TR001"]).explain.as_deref(),
            Some("TR001")
        );
        assert_eq!(
            inv(&["lint", "--explain"]).explain.as_deref(),
            Some(""),
            "dangling --explain reads as an (unknown) empty code"
        );
    }

    #[test]
    fn parse_deny_flag_both_spellings() {
        assert_eq!(
            inv(&["lint", "--deny", "error"]).deny.as_deref(),
            Some("error")
        );
        assert_eq!(inv(&["lint", "--deny=warn"]).deny.as_deref(), Some("warn"));
        assert_eq!(
            inv(&["lint", "--deny"]).deny.as_deref(),
            Some(""),
            "dangling --deny reads as an (unknown) empty severity"
        );
        assert_eq!(inv(&["lint", "drr"]).deny, None);
    }

    #[test]
    fn deny_gates_on_severity_and_rejects_unknown_thresholds() {
        // Shipped presets carry warnings but no errors: error passes, note
        // trips (every preset has at least an advisory or warning).
        assert!(lint_text(&inv(&["lint", "--all-presets", "--deny", "error"])).is_ok());
        let err = lint_text(&inv(&["lint", "--all-presets", "--deny", "note"]))
            .expect_err("notes present, note threshold must trip");
        let msg = err.to_string();
        assert!(msg.contains("--deny note"), "{msg}");
        assert!(msg.contains('['), "offending findings are listed: {msg}");
        // The clean drr trace passes even the strictest gate.
        assert!(lint_text(&inv(&["lint", "drr", "--deny", "note"])).is_ok());
        // Unknown severity fails fast, before linting anything.
        assert!(lint_text(&inv(&["lint", "drr", "--deny", "fatal"])).is_err());
    }

    #[test]
    fn lint_all_presets_json_round_trips_with_stable_codes() {
        let out = lint_text(&inv(&["lint", "--all-presets", "--json"])).unwrap();
        let reports: Vec<LintReport> = serde_json::from_str(out.trim()).unwrap();
        assert_eq!(reports.len(), 4);
        for r in &reports {
            assert_eq!(r.kind, "config");
            for d in &r.diagnostics {
                assert!(
                    d.code.starts_with("DM") && d.code.len() == 5,
                    "unstable code {:?}",
                    d.code
                );
                assert_ne!(
                    d.severity,
                    Severity::Error,
                    "shipped preset {} carries an error: {}",
                    r.target,
                    d.render()
                );
            }
        }
        // Round trip: parse -> serialize is byte-identical.
        let again = serde_json::to_string(&reports).unwrap();
        assert_eq!(out.trim(), again);
    }

    #[test]
    fn lint_workload_trace_is_clean() {
        let out = lint_text(&inv(&["lint", "drr"])).unwrap();
        assert!(out.contains("(trace): clean"), "{out}");
        assert!(out.contains("0 error(s)"), "{out}");
    }

    #[test]
    fn lint_explain_prints_the_catalogue_entry() {
        let out = lint_text(&inv(&["lint", "--explain", "DM007"])).unwrap();
        assert!(out.starts_with("DM007"), "{out}");
        assert!(out.contains("fix:"), "{out}");
        assert!(lint_text(&inv(&["lint", "--explain", "DM999"])).is_err());
    }

    #[test]
    fn lint_needs_a_target_and_rejects_unknown_ones() {
        assert!(lint_text(&inv(&["lint"])).is_err());
        assert!(lint_text(&inv(&["lint", "nosuch"])).is_err());
    }

    #[test]
    fn bounds_table_lists_every_preset_with_admissible_floors() {
        let out = bounds_text(&inv(&["bounds", "drr"])).unwrap();
        for key in ["drr_paper", "kingsley_like", "lea_like", "neutral"] {
            assert!(out.contains(key), "missing {key} in:\n{out}");
        }
        assert!(out.contains("lower bound"), "{out}");
        assert!(out.contains("floor/peak"), "{out}");
        assert!(
            out.contains("BD001"),
            "every config gets the floor advisory:\n{out}"
        );
        assert!(run(&inv(&["bounds", "nosuch"])).is_err());
    }

    #[test]
    fn explain_covers_the_bd_codes() {
        for code in ["BD001", "BD002", "BD003", "BD004"] {
            let out = lint_text(&inv(&["lint", "--explain", code])).unwrap();
            assert!(out.starts_with(code), "{out}");
        }
    }

    #[test]
    fn profile_runs_on_quick_drr() {
        let out = profile_text(&inv(&["profile", "drr"])).unwrap();
        assert!(out.contains("peak live"));
        assert!(out.contains("top sizes"));
    }

    #[test]
    fn explore_prints_decision_log() {
        let out = explore_text(&inv(&["explore", "drr"])).unwrap();
        assert!(out.contains("A2 ->"));
        assert!(out.contains("final configuration"));
    }

    #[test]
    fn compare_lists_five_managers() {
        let out = compare_text(&inv(&["compare", "render"])).unwrap();
        for m in ["Kingsley", "Lea", "Regions", "Obstacks", "our DM manager"] {
            assert!(out.contains(m), "missing {m} in:\n{out}");
        }
    }

    #[test]
    fn unknown_command_and_workload_error() {
        assert!(run(&inv(&["frobnicate"])).is_err());
        assert!(run(&inv(&["profile", "nosuch"])).is_err());
    }

    #[test]
    fn sharded_explore_prints_merge_log_and_memory_bound() {
        let out = explore_text(&inv(&["explore", "drr", "--shards=3", "--jobs=2"])).unwrap();
        assert!(out.contains("merge log"), "{out}");
        assert!(out.contains("merged configuration"), "{out}");
        assert!(out.contains("largest shard:"), "{out}");
        for code in ["A1", "A2", "C1"] {
            assert!(out.contains(code), "merge log missing {code}:\n{out}");
        }
    }

    #[test]
    fn sharded_compare_still_lists_five_managers() {
        let out = compare_text(&inv(&["compare", "drr", "--shards=2"])).unwrap();
        assert!(out.contains("our DM manager"), "{out}");
        assert!(out.contains("Lea"), "{out}");
    }

    #[test]
    fn phases_with_shards_prints_the_shard_plan() {
        let out = phases_text(&inv(&["phases", "render", "--shards=4"])).unwrap();
        assert!(out.contains("shard plan"), "{out}");
        assert!(out.contains("shard 0"), "{out}");
    }

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("dmm-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    /// Output below the header lines (workload/note/checkpoint/counters),
    /// which legitimately differ between live/loaded or fresh/resumed runs.
    fn below_header(s: &str) -> String {
        s.lines()
            .skip_while(|l| !l.starts_with("decision log") && !l.starts_with("merge log"))
            .collect::<Vec<_>>()
            .join("\n")
    }

    #[test]
    fn parse_robustness_flags() {
        let i = inv(&[
            "explore",
            "--trace=/tmp/t.dmmt",
            "--checkpoint=/tmp/c.journal",
            "--resume",
            "--recover",
            "--budget-steps=5000",
            "--budget-ms=250",
        ]);
        assert_eq!(i.trace.as_deref(), Some("/tmp/t.dmmt"));
        assert_eq!(i.checkpoint.as_deref(), Some("/tmp/c.journal"));
        assert!(i.resume && i.recover);
        assert_eq!(i.budget_steps, Some(5000));
        assert_eq!(i.budget_ms, Some(250));
        let d = inv(&["explore", "drr"]);
        assert!(d.trace.is_none() && d.checkpoint.is_none());
        assert!(!d.resume && !d.recover);
        assert_eq!(d.budget_steps, None);
        assert_eq!(
            inv(&["explore", "--budget-steps=oops"]).budget_steps,
            Some(0),
            "malformed budget trips immediately, never silently unlimited"
        );
        assert_eq!(
            inv(&["record", "drr", "--out=x.dmmt"]).out.as_deref(),
            Some("x.dmmt")
        );
    }

    #[test]
    fn record_then_explore_from_durable_trace_matches_live() {
        let path = tmp("roundtrip.dmmt");
        std::fs::remove_file(&path).ok();
        let rec = record_text(&inv(&[
            "record",
            "drr",
            &format!("--out={}", path.display()),
        ]))
        .unwrap();
        assert!(rec.contains("checksummed"), "{rec}");
        let live = explore_text(&inv(&["explore", "drr"])).unwrap();
        let loaded =
            explore_text(&inv(&["explore", &format!("--trace={}", path.display())])).unwrap();
        assert_eq!(
            below_header(&live),
            below_header(&loaded),
            "a durable trace must explore bit-identically to a live recording"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn record_requires_out() {
        assert!(record_text(&inv(&["record", "drr"])).is_err());
        assert!(run(&inv(&["record", "drr"])).is_err());
    }

    #[test]
    fn damaged_trace_is_structured_error_and_recover_salvages_the_prefix() {
        let path = tmp("damaged.dmmt");
        std::fs::remove_file(&path).ok();
        // Multi-frame trace: chopping the tail must leave a whole valid
        // frame to salvage (the quick workloads fit in one frame).
        let mut b = Trace::builder();
        for i in 0..(dmm_core::trace::store::FRAME_EVENTS + 200) {
            let id = b.alloc(32 + (i % 60));
            b.free(id);
        }
        dmm_core::trace::write_trace(&path, &b.finish().unwrap()).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 7]).unwrap();
        let flag = format!("--trace={}", path.display());
        let err = explore_text(&inv(&["explore", &flag])).unwrap_err();
        assert!(err.to_string().contains("TR011"), "{err}");
        let out = explore_text(&inv(&["explore", &flag, "--recover"])).unwrap();
        assert!(out.contains("note: recovered valid prefix"), "{out}");
        assert!(out.contains("final configuration"), "{out}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn checkpointed_explore_resumes_bit_identical() {
        let path = tmp("resume.journal");
        std::fs::remove_file(&path).ok();
        let flag = format!("--checkpoint={}", path.display());
        let fresh = explore_text(&inv(&["explore", "drr", &flag])).unwrap();
        assert!(fresh.contains("checkpoint:"), "{fresh}");
        assert!(fresh.contains("0 replay(s) already journalled"), "{fresh}");
        // "Crash" after the completed run, then resume: every candidate is
        // served from the journal, and the result is bit-identical.
        let resumed = explore_text(&inv(&["explore", "drr", &flag, "--resume"])).unwrap();
        assert!(
            !resumed.contains("0 replay(s) already journalled"),
            "resume must see the journalled replays:\n{resumed}"
        );
        assert_eq!(below_header(&fresh), below_header(&resumed));
        assert!(
            explore_text(&inv(&["explore", "drr", "--resume"])).is_err(),
            "--resume without --checkpoint must fail fast"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn generous_budget_leaves_exploration_unchanged() {
        let plain = explore_text(&inv(&["explore", "drr"])).unwrap();
        let budgeted = explore_text(&inv(&["explore", "drr", "--budget-steps=100000000"])).unwrap();
        assert_eq!(below_header(&plain), below_header(&budgeted));
        // A zero budget trips on the very first candidate — loudly.
        assert!(explore_text(&inv(&["explore", "drr", "--budget-steps=0"])).is_err());
    }

    #[test]
    fn zero_and_malformed_millisecond_budgets_trip_on_the_quick_trace() {
        // The quick DRR trace is shorter than the kernel's clock stride,
        // so this holds only because the budget is checked after the last
        // event too.
        for budget in ["--budget-ms=0", "--budget-ms=oops"] {
            let err = explore_text(&inv(&["explore", "drr", "--jobs=1", budget])).unwrap_err();
            assert!(
                matches!(err, Error::BudgetExceeded { .. }),
                "{budget}: {err}"
            );
        }
    }

    #[test]
    fn explain_covers_the_ex_codes() {
        for code in ["EX001", "EX002", "EX003", "EX004"] {
            let out = lint_text(&inv(&["lint", "--explain", code])).unwrap();
            assert!(out.starts_with(code), "{out}");
        }
    }

    #[test]
    fn help_mentions_the_robustness_surface() {
        let h = help_text();
        for needle in [
            "record",
            "--trace=",
            "--checkpoint=",
            "--resume",
            "--budget-steps=",
        ] {
            assert!(h.contains(needle), "help missing {needle}");
        }
    }

    #[test]
    fn phases_detects_render_structure() {
        let out = phases_text(&inv(&["phases", "render"])).unwrap();
        assert!(out.contains("announced phases: [0, 1]"), "{out}");
        assert!(out.contains("detected phases"));
    }
}
