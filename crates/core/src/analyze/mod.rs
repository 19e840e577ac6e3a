//! Static analysis: clippy-style diagnostics over configurations and
//! traces.
//!
//! Everything the rest of the workspace discovers the expensive way — by
//! replaying a candidate or crashing mid-replay on a malformed trace —
//! this module surfaces up front as [`Diagnostic`]s with **stable codes**
//! (`DM0xx` for configurations, `TR0xx` for traces, `BD0xx` for footprint
//! bounds, `EX0xx` for exploration-resilience telemetry), a severity, the
//! trees or events pointed at, prose and a machine-readable fix hint.
//!
//! Four consumers:
//!
//! - [`crate::methodology::engine::ExplorationEngine`] runs the
//!   **prune-safe** config lints ([`config_lints::prune_reason`]) before
//!   scheduling a replay and counts skips in
//!   [`EngineCounters::statically_pruned`](crate::methodology::EngineCounters::statically_pruned);
//! - the same engine's branch-and-bound path skips candidates whose
//!   admissible footprint floor ([`bounds::lower_bound_peak`]) already
//!   loses to the incumbent, counted in
//!   [`EngineCounters::bound_pruned`](crate::methodology::EngineCounters::bound_pruned);
//! - [`crate::trace::Trace::from_events`] (the chokepoint of every record
//!   and shard path) rejects malformed streams with the first `TR0xx`
//!   error from [`trace_lints::first_error`];
//! - `dmm lint`/`dmm bounds` render [`lint_config`]/[`lint_trace`]/
//!   [`lint_bounds`] for humans and as JSON, with `--explain CODE`
//!   printing the [`catalogue`] entry.

pub mod bounds;
pub mod config_lints;
pub mod diag;
pub mod exploration;
pub mod trace_lints;

pub use bounds::{
    bound_breakdown, lint_bounds, lower_bound_peak, rank_by_bound, BoundBreakdown, LiveSnapshot,
    PhaseFacts, TraceFacts,
};
pub use config_lints::{lint_config, lint_dominance, prune_reason, soft_arrow_code};
pub use diag::{catalogue, explain, CatalogEntry, Diagnostic, Severity};
pub use exploration::{lint_exploration, ResilienceReport, EXPLORATION_CATALOGUE};
pub use trace_lints::{first_error, lint_events, lint_trace};
