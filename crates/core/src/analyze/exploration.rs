//! Exploration-resilience diagnostics: stable `EX0xx` codes over what a
//! fault-tolerant sweep survived.
//!
//! Unlike the config/trace lints, these are not *static* findings — they
//! are the post-run rendering of the engine's resilience telemetry
//! ([`EngineCounters::quarantined`], [`EngineCounters::budget_exceeded`],
//! [`ShardedOutcome::shard_retries`], [`ShardedOutcome::failed_shards`]) —
//! but they share the catalogue so `dmm lint --explain EX001` documents
//! them and CI gates can match on the codes.
//!
//! [`EngineCounters::quarantined`]: crate::methodology::EngineCounters::quarantined
//! [`EngineCounters::budget_exceeded`]: crate::methodology::EngineCounters::budget_exceeded
//! [`ShardedOutcome::shard_retries`]: crate::methodology::ShardedOutcome::shard_retries
//! [`ShardedOutcome::failed_shards`]: crate::methodology::ShardedOutcome::failed_shards

use super::diag::{CatalogEntry, Diagnostic, Severity};
use crate::methodology::EngineCounters;

/// Catalogue of exploration-resilience codes.
pub const EXPLORATION_CATALOGUE: &[CatalogEntry] = &[
    CatalogEntry {
        code: "EX001",
        severity: Severity::Error,
        prune_safe: false,
        summary: "candidate replay panicked and was quarantined",
        fix: "inspect the quarantined fingerprint; file the panic as an allocator bug",
        details: "A candidate configuration's replay panicked. With quarantine on, the \
                  engine catches the panic at the evaluation boundary, records the \
                  candidate's fingerprint, and keeps sweeping — the partition invariant \
                  counts it under `quarantined` instead of `evaluations`. The winner is \
                  chosen only among candidates that completed, so a quarantined sweep's \
                  result is sound but its search space was effectively smaller.",
    },
    CatalogEntry {
        code: "EX002",
        severity: Severity::Warn,
        prune_safe: false,
        summary: "candidate exceeded its replay budget and was aborted",
        fix: "raise --budget-steps / --budget-ms, or accept the pruned sweep",
        details: "A candidate's replay spent more search steps (or wall-clock time) than \
                  the configured per-candidate budget and was aborted mid-replay. Budgeted \
                  aborts are counted under `budget_exceeded`, keeping the partition \
                  invariant intact. Step budgets are deterministic: the same candidate \
                  trips at the same charge on every run.",
    },
    CatalogEntry {
        code: "EX003",
        severity: Severity::Note,
        prune_safe: false,
        summary: "shard exploration retried after a transient worker failure",
        fix: "none needed — informational; investigate if retries recur",
        details: "A shard's exploration worker died (panicked) and the bounded retry \
                  policy re-ran it successfully. Up to SHARD_RETRY_ATTEMPTS total tries \
                  are made with a small deterministic backoff; deterministic errors are \
                  not retried. A retried run's result is bit-identical to a fault-free \
                  one — this note is purely telemetry.",
    },
    CatalogEntry {
        code: "EX004",
        severity: Severity::Error,
        prune_safe: false,
        summary: "shard failed permanently; result is degraded or aborted",
        fix: "re-run the failing shard alone; under Degrade, check `confidence`",
        details: "A shard exhausted every retry. Under the default Fail policy the whole \
                  sharded exploration surfaces Error::ShardFailed; under Degrade the \
                  failed shards are dropped from the merge *and* the composition, the \
                  outcome lists them in `failed_shards`, and `confidence` reports the \
                  completed fraction of the total vote weight — a degraded merge is \
                  explicit, never silent.",
    },
];

/// Resilience telemetry of one finished sweep, as the lint producer
/// consumes it. Sharded fields are zero/1.0 for unsharded runs.
#[derive(Debug, Clone, Copy, Default)]
pub struct ResilienceReport {
    /// Candidates quarantined after panicking (`EX001`).
    pub quarantined: usize,
    /// Candidates aborted by the per-candidate budget (`EX002`).
    pub budget_exceeded: usize,
    /// Shard retry attempts beyond each shard's first try (`EX003`).
    pub shard_retries: usize,
    /// Shards dropped permanently (`EX004`).
    pub failed_shards: usize,
    /// Completed fraction of the shard vote weight (1.0 when clean).
    pub confidence: f64,
}

impl ResilienceReport {
    /// Build the unsharded portion from the engine's counters.
    pub fn from_counters(c: &EngineCounters) -> Self {
        ResilienceReport {
            quarantined: c.quarantined,
            budget_exceeded: c.budget_exceeded,
            shard_retries: 0,
            failed_shards: 0,
            confidence: 1.0,
        }
    }

    /// Attach sharded telemetry.
    pub fn with_shards(mut self, retries: usize, failed: usize, confidence: f64) -> Self {
        self.shard_retries = retries;
        self.failed_shards = failed;
        self.confidence = confidence;
        self
    }
}

fn entry(code: &str) -> &'static CatalogEntry {
    EXPLORATION_CATALOGUE
        .iter()
        .find(|e| e.code == code)
        .expect("EX code catalogued")
}

/// Render a sweep's resilience telemetry as diagnostics — one finding per
/// fired code, empty for a fault-free run.
pub fn lint_exploration(report: &ResilienceReport) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    if report.quarantined > 0 {
        out.push(Diagnostic::from_entry(
            entry("EX001"),
            format!(
                "{} candidate(s) panicked during replay and were quarantined",
                report.quarantined
            ),
        ));
    }
    if report.budget_exceeded > 0 {
        out.push(Diagnostic::from_entry(
            entry("EX002"),
            format!(
                "{} candidate(s) exceeded the per-candidate replay budget",
                report.budget_exceeded
            ),
        ));
    }
    if report.shard_retries > 0 {
        out.push(Diagnostic::from_entry(
            entry("EX003"),
            format!(
                "{} transient shard failure(s) recovered by retry",
                report.shard_retries
            ),
        ));
    }
    if report.failed_shards > 0 {
        out.push(Diagnostic::from_entry(
            entry("EX004"),
            format!(
                "{} shard(s) failed permanently; confidence {:.3}",
                report.failed_shards, report.confidence
            ),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_free_run_lints_clean() {
        assert!(
            lint_exploration(&ResilienceReport::from_counters(&EngineCounters::default()))
                .is_empty()
        );
    }

    #[test]
    fn every_ex_code_fires_from_its_telemetry() {
        let report = ResilienceReport {
            quarantined: 2,
            budget_exceeded: 1,
            shard_retries: 3,
            failed_shards: 1,
            confidence: 0.75,
        };
        let diags = lint_exploration(&report);
        let codes: Vec<&str> = diags.iter().map(|d| d.code.as_str()).collect();
        assert_eq!(codes, vec!["EX001", "EX002", "EX003", "EX004"]);
        assert!(diags[3].message.contains("0.750"));
        for d in &diags {
            assert!(
                !d.prune_safe,
                "{}: resilience findings never license pruning",
                d.code
            );
            assert!(!d.render().is_empty());
        }
    }

    #[test]
    fn report_builders_compose() {
        let c = EngineCounters {
            quarantined: 1,
            ..EngineCounters::default()
        };
        let r = ResilienceReport::from_counters(&c).with_shards(2, 1, 0.5);
        assert_eq!(r.quarantined, 1);
        assert_eq!(r.shard_retries, 2);
        assert_eq!(r.failed_shards, 1);
        assert_eq!(r.confidence, 0.5);
    }
}
