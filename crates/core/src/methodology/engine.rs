//! The exploration engine: memoised, optionally parallel candidate
//! evaluation for the methodology.
//!
//! Every score the methodology needs is "replay this full configuration
//! against this trace" — a pure function. The engine owns the
//! [`ReplayCache`] that deduplicates those replays and the thread fan-out
//! that runs distinct ones concurrently ([`std::thread::scope`]; no
//! external dependencies). Results are returned **in input order**, so a
//! caller that folds them sequentially gets bit-identical argmins and
//! tie-breaks whether the engine ran with one job or many.
//!
//! Every memoised evaluation takes one per-candidate step: look the
//! candidate's behavioural class ([`ProjectedKey`]) up in the cache, serve
//! a hit (checked against a fresh replay in debug builds), or replay the
//! candidate, stopped at an optional peak cap, and record what the replay
//! revealed. Greedy, phased and sharded explorations (through
//! [`Methodology::explore`](crate::methodology::Methodology::explore) and
//! its siblings) always take that step; under a pure-footprint objective
//! each tree's completions are capped at the lowest peak among them. The
//! sweep entry point ([`ExplorationEngine::evaluate_bounded`]) runs lint →
//! bound first and then takes the same step, capped at its incumbent, when
//! projection is on ([`ExplorationEngine::with_projection`]); with
//! projection off it replays every survivor without touching the cache.
//!
//! One engine may serve many explorations — the cache key includes a trace
//! fingerprint, so sharing an engine across portfolio probes, phases,
//! objective sweeps or repeated designs only ever *adds* cache hits.

use std::cell::RefCell;
use std::collections::HashMap;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use crate::error::{Error, Result};
use crate::fault::FaultPlan;
use crate::manager::PolicyAllocator;
use crate::methodology::cache::{ProjectedKey, ReplayCache, TraceKey, TraceProjection};
use crate::methodology::checkpoint::CheckpointJournal;
use crate::metrics::FootprintStats;
use crate::space::config::DmConfig;
use crate::trace::{
    replay_compiled_limited, CappedReplay, CompiledTrace, ReplayBudget, ReplayScratch, Trace,
};

thread_local! {
    /// Per-worker slot table for compiled replay. Workers are the engine's
    /// scoped threads (plus the calling thread), each of which runs many
    /// replays back to back during one `explore`; the kernel clears the
    /// table on entry, so reuse across traces, configs and engines is
    /// safe — and allocation-free once the table has grown to the largest
    /// slot count seen.
    static REPLAY_SCRATCH: RefCell<ReplayScratch> = RefCell::new(ReplayScratch::new());
}

/// Monotonic counters of one engine's work — the one record every
/// exploration surface reports: engine snapshots, exploration outcomes,
/// the CLI's `exploration:` line and the bench reports.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, serde::Serialize)]
pub struct EngineCounters {
    /// Candidate evaluations requested (cache hits + replays).
    pub evaluations: usize,
    /// Full trace replays actually performed.
    pub replays: usize,
    /// Evaluations served without a replay of their own: for greedy,
    /// phased and sharded callers, from the replay cache (a member of the
    /// candidate's [`ProjectedKey`] class was replayed on this trace
    /// before, or its floor decided the candidate) or the checkpoint
    /// journal; for a sweep without projection, from the journal.
    pub cache_hits: usize,
    /// Candidates rejected by a prune-safe static lint before any replay
    /// (or cache lookup) was scheduled. Not counted in `evaluations`.
    pub statically_pruned: usize,
    /// Candidates rejected by branch-and-bound: their admissible footprint
    /// floor ([`crate::analyze::lower_bound_peak`]) already exceeded the
    /// incumbent's replayed peak, so neither a replay nor a cache lookup
    /// was scheduled. Not counted in `evaluations`.
    pub bound_pruned: usize,
    /// Candidates whose replay panicked and was quarantined (`EX001`) by a
    /// sweep running in quarantine mode — the sweep skipped them and kept
    /// going. Not counted in `evaluations`.
    pub quarantined: usize,
    /// Candidates whose replay exceeded its per-candidate budget (`EX002`)
    /// in quarantine mode — aborted and skipped instead of hanging a
    /// worker. Not counted in `evaluations`.
    pub budget_exceeded: usize,
    /// Sweep candidates served from the replay cache ([`ProjectedKey`]): a
    /// behaviorally-identical sibling was already replayed on this trace,
    /// so the candidate's stats were copied (or its sibling's cut-off floor
    /// decided it), not recomputed. A sweep with projection on counts the
    /// candidates the checkpoint journal serves here too. Not counted in
    /// `evaluations` — the sweep partition is
    /// [`EngineCounters::candidates`]` == enumerated`.
    pub projection_hits: usize,
}

impl EngineCounters {
    /// Every candidate a sweep decided, each in exactly one bucket:
    /// `evaluations + projection_hits + statically_pruned + bound_pruned +
    /// quarantined + budget_exceeded`. A sweep's partition invariant is
    /// that this equals the number of configurations it enumerated.
    pub fn candidates(&self) -> usize {
        self.evaluations
            + self.projection_hits
            + self.statically_pruned
            + self.bound_pruned
            + self.quarantined
            + self.budget_exceeded
    }
}

impl std::ops::AddAssign for EngineCounters {
    fn add_assign(&mut self, other: EngineCounters) {
        self.evaluations += other.evaluations;
        self.replays += other.replays;
        self.cache_hits += other.cache_hits;
        self.statically_pruned += other.statically_pruned;
        self.bound_pruned += other.bound_pruned;
        self.quarantined += other.quarantined;
        self.budget_exceeded += other.budget_exceeded;
        self.projection_hits += other.projection_hits;
    }
}

impl std::iter::Sum for EngineCounters {
    fn sum<I: Iterator<Item = EngineCounters>>(iter: I) -> Self {
        iter.fold(EngineCounters::default(), |mut total, c| {
            total += c;
            total
        })
    }
}

impl std::fmt::Display for EngineCounters {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} evaluations ({} replays, {} cache hits, {} projection hits, {} statically \
             pruned, {} bound pruned, {} quarantined, {} over budget)",
            self.evaluations,
            self.replays,
            self.cache_hits,
            self.projection_hits,
            self.statically_pruned,
            self.bound_pruned,
            self.quarantined,
            self.budget_exceeded
        )
    }
}

/// The incumbent a branch-and-bound sweep compares candidates against:
/// the best *replayed* peak so far and the enumeration position that
/// achieved it (for exact first-seen-minimum tie-breaking).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Incumbent {
    /// The incumbent's replayed peak footprint.
    pub peak: usize,
    /// The incumbent's enumeration index in the original space order.
    pub order: usize,
}

/// One evaluated configuration.
#[derive(Debug, Clone)]
pub struct Evaluation {
    /// Replay statistics of the configuration on the trace.
    pub stats: FootprintStats,
    /// Whether the result came from the cache instead of a fresh replay.
    pub cache_hit: bool,
}

/// Memoised, parallel evaluator shared by every exploration entry point.
#[derive(Debug)]
pub struct ExplorationEngine {
    jobs: usize,
    cache: ReplayCache,
    /// What the engine derived from every trace it has seen, keyed like the
    /// replay cache (see [`TraceRecord`]).
    traces: Mutex<HashMap<TraceKey, Arc<TraceRecord>>>,
    evaluations: AtomicUsize,
    replays: AtomicUsize,
    cache_hits: AtomicUsize,
    projection_hits: AtomicUsize,
    statically_pruned: AtomicUsize,
    bound_pruned: AtomicUsize,
    quarantined: AtomicUsize,
    budget_exceeded: AtomicUsize,
    /// Replays stopped at their peak cap; each is also an evaluation and a
    /// replay (see [`ExplorationEngine::peak_cut`]).
    peak_cut: AtomicUsize,
    /// Worker threads currently spawned by [`ExplorationEngine::run_parallel`]
    /// across all nesting levels — the shared budget that keeps
    /// phases × hypotheses × candidates from multiplying thread counts.
    spawned: AtomicUsize,
    /// Quarantine mode: the sweep entry point skips (instead of
    /// propagating) candidates that panic or run out of budget.
    quarantine: bool,
    /// Whether the sweep entry point reads and writes the cache, collapsing
    /// candidates whose [`ProjectedKey`] matches an already-replayed
    /// sibling into a copied result ([`EngineCounters::projection_hits`]).
    projection: bool,
    /// Per-candidate replay budget, enforced inside the compiled kernel.
    budget: ReplayBudget,
    /// Injected faults (tests only; `None` in production).
    fault_plan: Option<FaultPlan>,
    /// Attached checkpoint journal: fresh replays are journalled, journal
    /// hits short-circuit replays exactly like cache hits.
    journal: Option<CheckpointJournal>,
}

impl Default for ExplorationEngine {
    fn default() -> Self {
        ExplorationEngine::new(1)
    }
}

impl ExplorationEngine {
    /// An engine running `jobs` worker threads; `jobs == 0` resolves to
    /// the machine's available parallelism, `jobs == 1` is strictly
    /// serial. Results are bit-identical either way.
    pub fn new(jobs: usize) -> Self {
        let jobs = if jobs == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        } else {
            jobs
        };
        ExplorationEngine {
            jobs,
            cache: ReplayCache::new(),
            traces: Mutex::new(HashMap::new()),
            evaluations: AtomicUsize::new(0),
            replays: AtomicUsize::new(0),
            cache_hits: AtomicUsize::new(0),
            projection_hits: AtomicUsize::new(0),
            statically_pruned: AtomicUsize::new(0),
            bound_pruned: AtomicUsize::new(0),
            quarantined: AtomicUsize::new(0),
            budget_exceeded: AtomicUsize::new(0),
            peak_cut: AtomicUsize::new(0),
            spawned: AtomicUsize::new(0),
            quarantine: false,
            projection: false,
            budget: ReplayBudget::default(),
            fault_plan: None,
            journal: None,
        }
    }

    /// Enable/disable quarantine mode: with it on, the sweep entry point
    /// ([`ExplorationEngine::evaluate_bounded`]) *skips* candidates that
    /// panic ([`EngineCounters::quarantined`], `EX001`) or exceed their
    /// replay budget ([`EngineCounters::budget_exceeded`], `EX002`)
    /// instead of failing the whole sweep. All other errors still
    /// propagate, and greedy, phased and sharded explorations always
    /// propagate everything — a greedy traversal needs every score it asks
    /// for.
    #[must_use]
    pub fn with_quarantine(mut self, on: bool) -> Self {
        self.quarantine = on;
        self
    }

    /// Enable/disable the replay cache on the sweep entry point
    /// ([`ExplorationEngine::evaluate_bounded`]): candidates whose
    /// [`ProjectedKey`] matches an already-replayed sibling are served a
    /// copy of that sibling's stats — counted in
    /// [`EngineCounters::projection_hits`], never in `evaluations` — and in
    /// debug builds every served copy is checked against a fresh shadow
    /// replay (the soundness oracle). With it off (the default), a sweep
    /// replays every candidate that survives lint and bound. Greedy,
    /// phased and sharded explorations always go through the cache,
    /// whatever this says.
    #[must_use]
    pub fn with_projection(mut self, on: bool) -> Self {
        self.projection = on;
        self
    }

    /// Set the per-candidate replay budget (applies to every subsequent
    /// fresh replay; cache and journal hits are free and never budgeted).
    /// A budgeted replay is never cut at its peak cap, so budget outcomes
    /// are those of an uncut sweep.
    #[must_use]
    pub fn with_budget(mut self, budget: ReplayBudget) -> Self {
        self.budget = budget;
        self
    }

    /// Install a deterministic fault plan (tests only): panics and budget
    /// exhaustion injected per candidate fingerprint, shard deaths per
    /// shard index.
    #[must_use]
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = Some(plan);
        self
    }

    /// The installed fault plan, if any (consulted by the sharded
    /// explorer's retry loop).
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.fault_plan.as_ref()
    }

    /// Attach a checkpoint journal: every fresh replay is journalled
    /// (append + flush), and candidates the journal already scored are
    /// served from it like cache hits — so a killed sweep, resumed with
    /// the same journal, skips all completed work and still produces a
    /// bit-identical winner.
    #[must_use]
    pub fn with_journal(mut self, journal: CheckpointJournal) -> Self {
        self.journal = Some(journal);
        self
    }

    /// The attached checkpoint journal, if any.
    pub fn journal(&self) -> Option<&CheckpointJournal> {
        self.journal.as_ref()
    }

    /// A strictly serial engine.
    pub fn serial() -> Self {
        ExplorationEngine::new(1)
    }

    /// The resolved worker-thread count.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// Snapshot of the engine's lifetime counters.
    pub fn counters(&self) -> EngineCounters {
        EngineCounters {
            evaluations: self.evaluations.load(Ordering::Relaxed),
            replays: self.replays.load(Ordering::Relaxed),
            cache_hits: self.cache_hits.load(Ordering::Relaxed),
            projection_hits: self.projection_hits.load(Ordering::Relaxed),
            statically_pruned: self.statically_pruned.load(Ordering::Relaxed),
            bound_pruned: self.bound_pruned.load(Ordering::Relaxed),
            quarantined: self.quarantined.load(Ordering::Relaxed),
            budget_exceeded: self.budget_exceeded.load(Ordering::Relaxed),
        }
    }

    /// Replays this engine cut short: the candidate's running peak passed
    /// its cap, so the replay stopped at that event. Sweeps cap at the
    /// incumbent (see [`ExplorationEngine::evaluate_bounded`]), the
    /// footprint-only greedy step of
    /// [`Methodology::explore`](crate::methodology::Methodology::explore)
    /// at the lowest peak among its tree's completions. Each cut is also
    /// counted in `evaluations` and `replays`. A candidate decided by a
    /// floor already in the cache is not a cut: it counts in
    /// `projection_hits` when a sweep asked, and in `cache_hits` when a
    /// greedy or sharded caller did.
    pub fn peak_cut(&self) -> usize {
        self.peak_cut.load(Ordering::Relaxed)
    }

    /// The engine's replay cache (for diagnostics/tests).
    pub fn cache(&self) -> &ReplayCache {
        &self.cache
    }

    /// Score a list of configurations against `trace` (fingerprinted as
    /// `key`, so a caller scoring many lists against one trace — the
    /// greedy traversal does, once per tree — hashes it once), fanned out
    /// over the engine's jobs. The results are **in input order**; on
    /// failure the error of the earliest failing input is returned,
    /// exactly as a serial loop would surface it.
    ///
    /// Each configuration takes the memoised step when its turn comes, so
    /// a class sibling scored earlier — in this list or by any earlier
    /// caller on the trace — answers it as a cache hit. Each result is
    /// what is known of the configuration and whether it was served
    /// without a replay of its own (from the cache or the checkpoint
    /// journal). Without `capped` every record is
    /// [`CappedReplay::Complete`]: a class the cache holds only a floor for
    /// is replayed in full, and its stats replace the floor.
    ///
    /// With `capped`, which the methodology passes for a greedy tree's
    /// completions under a pure-footprint objective, every configuration
    /// whose peak is the lowest in `cfgs` comes back with full stats, and
    /// any other may come back [`CappedReplay::Cut`], since it can be
    /// neither the tree's argmin nor the exploration's incumbent. The
    /// starting cap is the lowest peak the cache holds stats for among
    /// `cfgs`; each replay is capped at the lowest peak known when it
    /// starts (with more than one job, the workers share that running
    /// cap), and a class whose floor already exceeds the cap is answered
    /// from the floor. A cut replay leaves its floor in the cache and
    /// counts in `replays` and [`ExplorationEngine::peak_cut`].
    ///
    /// # Errors
    ///
    /// Propagates manager construction and replay failures.
    pub(crate) fn evaluate_all(
        &self,
        trace: &Trace,
        key: TraceKey,
        cfgs: &[DmConfig],
        capped: bool,
    ) -> Result<Vec<(CappedReplay, bool)>> {
        let record = self.trace_record(key);
        let projection = record.projection(trace);
        let classes: Vec<(&DmConfig, ProjectedKey)> = cfgs
            .iter()
            .map(|cfg| (cfg, ProjectedKey::of(cfg, projection)))
            .collect();
        // The lowest peak known among `cfgs`, seeded from the cache.
        let best = AtomicUsize::new(usize::MAX);
        if capped {
            for (_, class) in &classes {
                if let Some(CappedReplay::Complete(stats)) = self.cache.get(key, class) {
                    best.fetch_min(stats.peak_footprint, Ordering::Relaxed);
                }
            }
        }
        let results = self.run_parallel(&classes, |(cfg, class)| {
            let cap = Some(best.load(Ordering::Relaxed)).filter(|&cap| capped && cap != usize::MAX);
            let (replayed, served) = self.evaluate_memoised(trace, key, cfg, class.clone(), cap)?;
            if served {
                self.evaluations.fetch_add(1, Ordering::Relaxed);
                self.cache_hits.fetch_add(1, Ordering::Relaxed);
            }
            if let CappedReplay::Complete(stats) = &replayed {
                best.fetch_min(stats.peak_footprint, Ordering::Relaxed);
            }
            Ok((replayed, served))
        });
        results.into_iter().collect()
    }

    /// Branch-and-bound evaluation — the sweep entry point. A candidate is
    /// skipped (`Ok(None)`) when
    ///
    /// - a **prune-safe** static lint ([`crate::analyze::prune_reason`])
    ///   proves an earlier-enumerated sibling replays bit-identically
    ///   (counted in [`EngineCounters::statically_pruned`]), or
    /// - its admissible footprint floor (`bound`, from
    ///   [`crate::analyze::lower_bound_peak`]) already loses to the
    ///   `incumbent`'s **actual** replayed peak (counted in
    ///   [`EngineCounters::bound_pruned`]); `incumbent: None` admits
    ///   every candidate the lints let through.
    ///
    /// Survivors take the memoised step when projection is on
    /// ([`ExplorationEngine::with_projection`]) and are replayed without
    /// touching the cache otherwise.
    ///
    /// A survivor's replay is capped at the largest peak that can still
    /// win: `incumbent.peak` if it enumerates earlier than the incumbent,
    /// `incumbent.peak - 1` otherwise. The running peak never decreases,
    /// so the first event that lifts it past the cap stops the replay
    /// ([`replay_compiled_limited`]) and the candidate is skipped
    /// (`Ok(None)`, counted in `evaluations`, `replays` and
    /// [`ExplorationEngine::peak_cut`], never journalled). With projection
    /// on, the cut leaves its floor in the cache, and a later class member
    /// whose cap is below that floor is skipped without a replay (counted
    /// in `projection_hits`). A replay under a budget or fault plan runs
    /// uncut.
    ///
    /// "Loses" is exact, not merely strict: with `bound > incumbent.peak`
    /// the candidate's peak can only be worse; with `bound ==
    /// incumbent.peak` it can at best *tie*, which only matters if the
    /// candidate enumerates **earlier** than the incumbent (`order <
    /// incumbent.order`) — the plain enumeration fold keeps the first-seen
    /// minimum. Both skip cases therefore leave the winner of
    /// [`exhaustive_best`](crate::methodology::exhaustive_best)
    /// bit-identical, whatever order candidates are presented in.
    ///
    /// # Errors
    ///
    /// Propagates manager construction and replay failures of candidates
    /// that were *not* skipped (panics and budget trips become counted
    /// skips in quarantine mode — see [`ExplorationEngine::with_quarantine`]).
    pub fn evaluate_bounded(
        &self,
        trace: &Trace,
        key: TraceKey,
        cfg: &DmConfig,
        bound: usize,
        order: usize,
        incumbent: Option<Incumbent>,
    ) -> Result<Option<Evaluation>> {
        if crate::analyze::config_lints::is_prunable(cfg) {
            self.statically_pruned.fetch_add(1, Ordering::Relaxed);
            return Ok(None);
        }
        if let Some(inc) = incumbent {
            if bound > inc.peak || (bound == inc.peak && order > inc.order) {
                self.bound_pruned.fetch_add(1, Ordering::Relaxed);
                return Ok(None);
            }
        }
        // The largest peak that still wins the first-seen-minimum fold: an
        // earlier-enumerated candidate wins a tie, a later one must beat
        // the incumbent.
        let cap = incumbent.map(|inc| {
            if order < inc.order {
                inc.peak
            } else {
                inc.peak.saturating_sub(1)
            }
        });
        let result = if self.projection {
            let class = ProjectedKey::of(cfg, self.trace_record(key).projection(trace));
            self.evaluate_memoised(trace, key, cfg, class, cap)
        } else {
            self.replay_fresh(trace, key, cfg, cap)
        };
        let Some((replayed, served)) = self.quarantine_or_raise(result)? else {
            return Ok(None);
        };
        if served && self.projection {
            self.projection_hits.fetch_add(1, Ordering::Relaxed);
        } else if served {
            self.evaluations.fetch_add(1, Ordering::Relaxed);
            self.cache_hits.fetch_add(1, Ordering::Relaxed);
        }
        Ok(match replayed {
            CappedReplay::Complete(stats) => Some(Evaluation {
                stats: *stats,
                cache_hit: served,
            }),
            CappedReplay::Cut { .. } => None,
        })
    }

    /// The one memoised evaluation step: `cfg`'s class `class` is looked up
    /// in the cache, and a hit is served — full stats, or the floor there
    /// when it already exceeds `cap`. Anything else goes to
    /// [`ExplorationEngine::replay_fresh`] (the journal, or a replay
    /// stopped at `cap`), and what that reveals, full stats or the floor a
    /// cut reached, is recorded for the rest of the class. Returns the
    /// record and whether it was served without a replay of its own; the
    /// caller counts what was served. Debug builds check every cache hit
    /// against a full replay of `cfg`.
    fn evaluate_memoised(
        &self,
        trace: &Trace,
        key: TraceKey,
        cfg: &DmConfig,
        class: ProjectedKey,
        cap: Option<usize>,
    ) -> Result<(CappedReplay, bool)> {
        let hit = match self.cache.get(key, &class) {
            Some(CappedReplay::Complete(mut stats)) => {
                relabel(&mut stats, cfg);
                #[cfg(debug_assertions)]
                assert_eq!(
                    self.shadow_replay(trace, key, cfg),
                    *stats,
                    "projection oracle violated for '{}': served stats differ from a fresh replay",
                    cfg.name
                );
                CappedReplay::Complete(stats)
            }
            // A sibling's replay already passed `peak`, and this member
            // replays identically: above its cap, it cannot win either.
            Some(CappedReplay::Cut { peak }) if cap.is_some_and(|cap| peak > cap) => {
                #[cfg(debug_assertions)]
                self.cut_oracle_check(trace, key, cfg, peak, cap);
                CappedReplay::Cut { peak }
            }
            _ => {
                let (replayed, served) = self.replay_fresh(trace, key, cfg, cap)?;
                self.cache.record(key, class, replayed.clone());
                return Ok((replayed, served));
            }
        };
        Ok((hit, true))
    }

    /// A fresh, uncounted replay of `cfg` to the last event: the debug
    /// oracle that cache hits (a failure is a hole in a
    /// [`ProjectedKey::of`] canonicalization rule) and peak cut-offs are
    /// checked against.
    #[cfg(debug_assertions)]
    fn shadow_replay(&self, trace: &Trace, key: TraceKey, cfg: &DmConfig) -> FootprintStats {
        let record = self.trace_record(key);
        let mut mgr =
            PolicyAllocator::new(cfg.clone()).expect("shadow oracle: candidate must construct");
        let mut scratch = ReplayScratch::new();
        let mut fresh =
            crate::trace::replay_compiled_with(record.compiled(trace), &mut mgr, &mut scratch)
                .expect("shadow oracle: candidate must replay");
        relabel(&mut fresh, cfg);
        fresh
    }

    /// The cut-off oracle (debug builds only): a candidate skipped because
    /// its peak reached `floor` above its cap (its own cut replay, or a
    /// floor the cache served) must, replayed in full, peak at least at
    /// `floor` and above the cap. A failure here means a cut could have
    /// dropped the winner: a sweep's or a greedy tree's.
    #[cfg(debug_assertions)]
    fn cut_oracle_check(
        &self,
        trace: &Trace,
        key: TraceKey,
        cfg: &DmConfig,
        floor: usize,
        cap: Option<usize>,
    ) {
        let peak = self.shadow_replay(trace, key, cfg).peak_footprint;
        assert!(
            peak >= floor && cap.is_some_and(|cap| peak > cap),
            "peak cut-off violated for '{}': the full replay peaks at {peak} B, the cut \
             claimed at least {floor} B against a cap of {cap:?}",
            cfg.name
        );
    }

    /// The sweep entry point's failure policy. In quarantine mode a
    /// panicking (`EX001`) or over-budget (`EX002`) candidate becomes a
    /// counted skip — `Ok(None)` — keeping the partition invariant
    /// [`EngineCounters::candidates`]` == enumerated`. Everything else
    /// (and everything, with quarantine off) propagates.
    fn quarantine_or_raise<T>(&self, result: Result<T>) -> Result<Option<T>> {
        match result {
            Ok(e) => Ok(Some(e)),
            Err(e) if !self.quarantine => Err(e),
            Err(Error::CandidatePanicked { .. }) => {
                self.quarantined.fetch_add(1, Ordering::Relaxed);
                Ok(None)
            }
            Err(Error::BudgetExceeded { .. }) => {
                self.budget_exceeded.fetch_add(1, Ordering::Relaxed);
                Ok(None)
            }
            Err(e) => Err(e),
        }
    }

    /// Score one candidate without touching the cache: journal →
    /// fresh replay under the engine's budget and fault plan, inside the
    /// quarantine boundary, stopped at `cap` when there is one. Returns the
    /// record and whether the journal served it without a replay; the
    /// caller counts journal hits, and replays are counted here. Counters
    /// are bumped only on success, so failed candidates can be
    /// re-attributed (quarantined, over budget) by the caller without
    /// breaking the partition invariant. Only complete replays are
    /// journalled: a resumed sweep recomputes its cuts.
    fn replay_fresh(
        &self,
        trace: &Trace,
        key: TraceKey,
        cfg: &DmConfig,
        cap: Option<usize>,
    ) -> Result<(CappedReplay, bool)> {
        let fingerprint = cfg.fingerprint();
        if let Some(journal) = &self.journal {
            if let Some(stats) = journal.lookup(key.fingerprint(), key.events(), fingerprint) {
                let mut stats = Box::new(stats);
                relabel(&mut stats, cfg);
                return Ok((CappedReplay::Complete(stats), true));
            }
        }
        let record = self.trace_record(key);
        let compiled = record.compiled(trace);
        let budget = match &self.fault_plan {
            Some(plan) if plan.should_exhaust(fingerprint) => ReplayBudget {
                max_steps: Some(0),
                max_millis: None,
            },
            _ => self.budget,
        };
        // Budgets take precedence over the cut: a budgeted replay runs
        // uncut, so it trips exactly where an uncut one would.
        let cap = cap.filter(|_| !budget.is_bounded());
        let inject_panic = self
            .fault_plan
            .as_ref()
            .is_some_and(|p| p.should_panic(fingerprint));
        // The quarantine boundary: a panicking replay (the worker owns its
        // scratch, the manager is ours alone, the caches are only touched
        // on success) unwinds to here and becomes a typed error.
        let replayed = std::panic::catch_unwind(AssertUnwindSafe(|| {
            if inject_panic {
                panic!("injected fault: candidate {fingerprint:016x}");
            }
            let mut mgr = PolicyAllocator::new(cfg.clone())?;
            REPLAY_SCRATCH.with(|s| {
                replay_compiled_limited(compiled, &mut mgr, &mut s.borrow_mut(), &budget, cap)
            })
        }));
        let replayed = match replayed {
            Ok(Ok(replayed)) => replayed,
            Ok(Err(e)) => return Err(e),
            Err(payload) => {
                return Err(Error::CandidatePanicked {
                    fingerprint,
                    reason: panic_reason(payload.as_ref()),
                })
            }
        };
        self.evaluations.fetch_add(1, Ordering::Relaxed);
        self.replays.fetch_add(1, Ordering::Relaxed);
        match &replayed {
            CappedReplay::Complete(stats) => {
                if let Some(journal) = &self.journal {
                    journal.record(key.fingerprint(), key.events(), fingerprint, stats)?;
                }
            }
            #[cfg_attr(not(debug_assertions), allow(unused_variables))]
            CappedReplay::Cut { peak } => {
                self.peak_cut.fetch_add(1, Ordering::Relaxed);
                #[cfg(debug_assertions)]
                self.cut_oracle_check(trace, key, cfg, *peak, cap);
            }
        }
        Ok((replayed, false))
    }

    /// The record of the trace fingerprinted as `key`, created empty on
    /// first sight. Its parts are derived outside the table lock, so
    /// parallel workers first-touching *distinct* traces (sharded
    /// exploration does) never serialize their O(n) passes behind it.
    fn trace_record(&self, key: TraceKey) -> Arc<TraceRecord> {
        let mut table = self.traces.lock().unwrap_or_else(|p| p.into_inner());
        Arc::clone(table.entry(key).or_default())
    }

    /// Number of distinct traces this engine holds a compiled form of
    /// (diagnostic).
    pub fn compiled_traces(&self) -> usize {
        self.traces
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .values()
            .filter(|record| record.compiled.get().is_some())
            .count()
    }

    /// Forget the compiled form and projection of the trace fingerprinted
    /// as `key`. The compiled copy is O(trace) bytes, so streaming callers
    /// that promise trace memory bounded by the largest shard
    /// ([`Methodology::explore_shard_stream`](crate::methodology::Methodology::explore_shard_stream))
    /// release each shard's record as soon as they drop the shard —
    /// otherwise the table would quietly accumulate the whole trace. The
    /// replay cache keeps its entries, so the released trace's classes
    /// still answer later evaluations. Safe at any time: a later
    /// evaluation of the same trace simply derives the record again.
    pub fn release_compiled(&self, key: TraceKey) {
        self.traces
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .remove(&key);
    }

    /// Apply `f` to every item, fanning out over scoped worker threads,
    /// and return the results in input order. With one job (or one item)
    /// this is a plain serial map — no threads, no locks.
    ///
    /// Fan-outs nest (phases → portfolio hypotheses → per-tree
    /// candidates), so all levels draw on one engine-wide budget of
    /// [`ExplorationEngine::jobs`] spawned threads: an inner call made
    /// from a worker only spawns what the outer levels left over, and
    /// degrades to the serial map when nothing is left. The calling
    /// thread always works through items itself, so progress never waits
    /// on budget.
    pub fn run_parallel<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(&T) -> R + Sync,
    {
        let available = self
            .jobs
            .saturating_sub(1)
            .saturating_sub(self.spawned.load(Ordering::Relaxed));
        let extra = available.min(items.len().saturating_sub(1));
        if extra == 0 {
            return items.iter().map(f).collect();
        }
        let next = AtomicUsize::new(0);
        let slots: Vec<Mutex<Option<R>>> = items.iter().map(|_| Mutex::new(None)).collect();
        let work = || loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            let Some(item) = items.get(i) else { break };
            let r = f(item);
            *slots[i].lock().unwrap_or_else(|p| p.into_inner()) = Some(r);
        };
        self.spawned.fetch_add(extra, Ordering::Relaxed);
        std::thread::scope(|scope| {
            for _ in 0..extra {
                scope.spawn(work);
            }
            work();
        });
        self.spawned.fetch_sub(extra, Ordering::Relaxed);
        slots
            .into_iter()
            .map(|s| {
                s.into_inner()
                    .unwrap_or_else(|p| p.into_inner())
                    .expect("every slot filled by a worker")
            })
            .collect()
    }
}

/// What the engine derives from one trace, each part on first use.
#[derive(Debug, Default)]
struct TraceRecord {
    /// The compiled form. Compiling is O(n) and hashes each id once;
    /// every later replay of the trace — hundreds per `explore` — runs the
    /// hash-free [`replay_compiled_limited`] kernel on it.
    compiled: OnceLock<CompiledTrace>,
    /// The trace-conditioned projection. Deriving it is one O(events)
    /// [`crate::analyze::TraceFacts`] pass; every later candidate on the
    /// trace reuses it to compute its [`ProjectedKey`] in O(1).
    projection: OnceLock<TraceProjection>,
}

impl TraceRecord {
    /// The compiled form of `trace`, compiled on first use.
    fn compiled(&self, trace: &Trace) -> &CompiledTrace {
        self.compiled.get_or_init(|| CompiledTrace::compile(trace))
    }

    /// The projection of `trace`, derived on first use.
    fn projection(&self, trace: &Trace) -> &TraceProjection {
        self.projection
            .get_or_init(|| TraceProjection::of(&crate::analyze::TraceFacts::of(trace)))
    }
}

/// Label `stats` with `cfg`'s name. Cache keys ignore names, so cached,
/// projected and journalled stats carry whichever name they were replayed
/// under; restoring the caller's label keeps hit and miss paths
/// indistinguishable. Candidate completions usually inherit the
/// methodology's one name, so this is normally a comparison, not an
/// allocation.
fn relabel(stats: &mut FootprintStats, cfg: &DmConfig) {
    if stats.manager.as_ref() != cfg.name {
        stats.manager = Arc::from(cfg.name.as_str());
    }
}

/// Best-effort stringification of a caught panic payload.
pub(crate) fn panic_reason(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

// The fan-out moves managers and traces across scoped threads; keep the
// bounds explicit so a future field (e.g. an Rc-backed index) fails here,
// at the declaration, instead of deep inside a thread spawn.
fn _assert_engine_bounds() {
    fn send<T: Send>() {}
    fn sync<T: Sync>() {}
    send::<PolicyAllocator>();
    send::<Trace>();
    sync::<Trace>();
    send::<CompiledTrace>();
    sync::<CompiledTrace>();
    send::<DmConfig>();
    sync::<ExplorationEngine>();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::presets;

    fn trace() -> Trace {
        let mut b = Trace::builder();
        let mut live = Vec::new();
        let mut x: u64 = 17;
        for _ in 0..200 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            if live.is_empty() || !x.is_multiple_of(3) {
                live.push(b.alloc(16 + (x % 900) as usize));
            } else {
                let i = (x as usize / 5) % live.len();
                b.free(live.swap_remove(i));
            }
        }
        for id in live {
            b.free(id);
        }
        b.finish().unwrap()
    }

    /// `cfgs` scored uncapped, as the sharded composition and weighted
    /// objectives score them.
    fn evaluate_all(
        engine: &ExplorationEngine,
        trace: &Trace,
        key: TraceKey,
        cfgs: &[DmConfig],
    ) -> Result<Vec<Evaluation>> {
        let outcomes = engine.evaluate_all(trace, key, cfgs, false)?;
        Ok(outcomes
            .into_iter()
            .map(|(replayed, served)| match replayed {
                CappedReplay::Complete(stats) => Evaluation {
                    stats: *stats,
                    cache_hit: served,
                },
                CappedReplay::Cut { .. } => unreachable!("an uncapped evaluation is never cut"),
            })
            .collect())
    }

    fn evaluate_one(
        engine: &ExplorationEngine,
        trace: &Trace,
        key: TraceKey,
        cfg: &DmConfig,
    ) -> Result<Evaluation> {
        Ok(evaluate_all(engine, trace, key, std::slice::from_ref(cfg))?.remove(0))
    }

    /// `cfg`'s class on `trace`.
    fn class_of(trace: &Trace, cfg: &DmConfig) -> ProjectedKey {
        ProjectedKey::of(
            cfg,
            &TraceProjection::of(&crate::analyze::TraceFacts::of(trace)),
        )
    }

    #[test]
    fn duplicate_configs_hit_the_cache() {
        let t = trace();
        let engine = ExplorationEngine::serial();
        let cfg = presets::drr_paper();
        let cfgs = vec![cfg.clone(), presets::lea_like(), cfg.clone()];
        let evals = evaluate_all(&engine, &t, TraceKey::of(&t), &cfgs).unwrap();
        assert!(!evals[0].cache_hit && !evals[1].cache_hit);
        assert!(evals[2].cache_hit, "third config duplicates the first");
        assert_eq!(evals[0].stats, evals[2].stats);
        let c = engine.counters();
        assert_eq!(c.evaluations, 3);
        assert_eq!(c.replays, 2);
        assert_eq!(c.cache_hits, 1);
        assert_eq!(engine.cache().len(), 2);
    }

    #[test]
    fn parallel_results_match_serial_in_order() {
        let t = trace();
        let key = TraceKey::of(&t);
        let cfgs: Vec<DmConfig> = presets::all();
        let serial = evaluate_all(&ExplorationEngine::serial(), &t, key, &cfgs).unwrap();
        let parallel = evaluate_all(&ExplorationEngine::new(4), &t, key, &cfgs).unwrap();
        assert_eq!(serial.len(), parallel.len());
        for (s, p) in serial.iter().zip(&parallel) {
            assert_eq!(s.stats, p.stats);
        }
    }

    #[test]
    fn errors_surface_in_input_order() {
        let t = trace();
        // Two distinguishable OOM failures: the earliest one must win, just
        // as a serial loop would have stopped there.
        let mut bad_early = presets::drr_paper();
        bad_early.params.arena_limit = Some(64);
        let mut bad_late = presets::drr_paper();
        bad_late.params.arena_limit = Some(96);
        let cfgs = vec![presets::lea_like(), bad_early, bad_late];
        let err =
            evaluate_all(&ExplorationEngine::new(4), &t, TraceKey::of(&t), &cfgs).unwrap_err();
        assert!(
            matches!(err, crate::error::Error::OutOfMemory { limit: 64, .. }),
            "{err}"
        );
    }

    #[test]
    fn worker_scratch_residue_does_not_leak_across_configs() {
        // An arena-limited config OOMs mid-replay, stranding live handles
        // in the worker's thread-local slot table. The very next replay on
        // this thread reuses that table: it must be fully cleared, or a
        // stale handle would surface as a bogus free in another config's
        // replay. Compare against a fresh engine to prove nothing leaked.
        let t = trace();
        let key = TraceKey::of(&t);
        let engine = ExplorationEngine::serial();
        let mut tight = presets::drr_paper();
        tight.params.arena_limit = Some(512);
        assert!(
            evaluate_one(&engine, &t, key, &tight).is_err(),
            "tight arena must OOM mid-replay"
        );
        let reused = evaluate_one(&engine, &t, key, &presets::lea_like()).unwrap();
        let fresh =
            evaluate_one(&ExplorationEngine::serial(), &t, key, &presets::lea_like()).unwrap();
        assert_eq!(reused.stats, fresh.stats);
    }

    #[test]
    fn engine_compiles_each_trace_exactly_once() {
        let t = trace();
        let key = TraceKey::of(&t);
        let engine = ExplorationEngine::serial();
        let _ = evaluate_one(&engine, &t, key, &presets::drr_paper()).unwrap();
        assert_eq!(engine.compiled_traces(), 1);
        // Replaying another configuration reuses the compilation.
        let _ = evaluate_one(&engine, &t, key, &presets::lea_like()).unwrap();
        assert_eq!(engine.counters().replays, 2);
        assert_eq!(engine.compiled_traces(), 1);
    }

    #[test]
    fn evaluate_bounded_skips_losers_and_ties_without_touching_the_cache() {
        let t = trace();
        let engine = ExplorationEngine::serial();
        let key = TraceKey::of(&t);
        let cfg = presets::drr_paper();
        let eval = engine
            .evaluate_bounded(&t, key, &cfg, 0, 0, None)
            .unwrap()
            .expect("no incumbent, must evaluate");
        let inc = Incumbent {
            peak: eval.stats.peak_footprint,
            order: 0,
        };
        // Strictly losing bound: skipped.
        let skipped = engine
            .evaluate_bounded(&t, key, &presets::lea_like(), inc.peak + 1, 1, Some(inc))
            .unwrap();
        assert!(skipped.is_none());
        // A tie that enumerates *later* than the incumbent can never win
        // the first-seen-minimum fold: skipped too.
        let tied_later = engine
            .evaluate_bounded(&t, key, &presets::lea_like(), inc.peak, 2, Some(inc))
            .unwrap();
        assert!(tied_later.is_none());
        assert_eq!(engine.counters().bound_pruned, 2);
        // A bound that ties and enumerates *earlier* could displace the
        // incumbent in the plain fold: the bound tier lets it through to a
        // replay (where `lea_like`, whose real peak is higher, is cut).
        let earlier = Incumbent {
            peak: inc.peak,
            order: 5,
        };
        engine
            .evaluate_bounded(&t, key, &presets::lea_like(), inc.peak, 0, Some(earlier))
            .unwrap();
        let c = engine.counters();
        assert_eq!(c.bound_pruned, 2, "an earlier tie is not bound-pruned");
        assert_eq!(c.evaluations, 2, "incumbent + earlier tie");
        // A configuration that really ties, enumerated earlier, is neither
        // pruned nor cut: it displaces the incumbent.
        let mut twin = presets::drr_paper();
        twin.name = "drr_paper twin".into();
        let tied_earlier = engine
            .evaluate_bounded(&t, key, &twin, inc.peak, 0, Some(earlier))
            .unwrap()
            .expect("an earlier exact tie is kept");
        assert_eq!(tied_earlier.stats.peak_footprint, inc.peak);
        assert_eq!(engine.counters().evaluations, 3);
        assert!(
            engine.cache().is_empty(),
            "a sweep without projection never writes the cache"
        );
    }

    #[test]
    fn losing_replays_are_cut_and_their_class_is_decided_by_the_floor() {
        let dir = std::env::temp_dir().join("dmm-engine-cut-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cut.journal");
        std::fs::remove_file(&path).ok();
        let t = trace();
        let key = TraceKey::of(&t);
        let engine = ExplorationEngine::serial()
            .with_projection(true)
            .with_journal(CheckpointJournal::create(&path).unwrap());
        let winner = engine
            .evaluate_bounded(&t, key, &presets::drr_paper(), 0, 0, None)
            .unwrap()
            .expect("no incumbent: replayed in full");
        let inc = Incumbent {
            peak: winner.stats.peak_footprint,
            order: 0,
        };
        // `kingsley_like` rounds every request up to a power of two, so
        // its full replay peaks above the incumbent.
        let loser = presets::kingsley_like();
        let full = evaluate_one(&ExplorationEngine::serial(), &t, key, &loser).unwrap();
        assert!(full.stats.peak_footprint > inc.peak, "fixture premise");

        let before = engine.counters();
        let cut = engine
            .evaluate_bounded(&t, key, &loser, 0, 1, Some(inc))
            .unwrap();
        assert!(cut.is_none(), "a loser is skipped, never partially scored");
        let c = engine.counters();
        assert_eq!(c.evaluations, before.evaluations + 1);
        assert_eq!(c.replays, before.replays + 1);
        assert_eq!(engine.peak_cut(), 1);
        assert_eq!(
            (c.projection_hits, c.quarantined, c.budget_exceeded),
            (0, 0, 0)
        );
        let journal = engine.journal().unwrap();
        assert_eq!(
            journal.entries(),
            1,
            "only the complete replay is journalled"
        );
        assert!(journal
            .lookup(key.fingerprint(), key.events(), loser.fingerprint())
            .is_none());

        // A structurally different class member (an arena limit the arena
        // never reaches is no limit) is decided by the cut's floor.
        let projection = TraceProjection::of(&crate::analyze::TraceFacts::of(&t));
        let mut sibling = loser.clone();
        sibling.params.arena_limit = Some(usize::MAX);
        assert_ne!(sibling.fingerprint(), loser.fingerprint());
        assert_eq!(
            ProjectedKey::of(&sibling, &projection),
            ProjectedKey::of(&loser, &projection)
        );
        let served = engine
            .evaluate_bounded(&t, key, &sibling, 0, 2, Some(inc))
            .unwrap();
        assert!(served.is_none());
        let c2 = engine.counters();
        assert_eq!(c2.projection_hits, 1);
        assert_eq!((c2.evaluations, c2.replays), (c.evaluations, c.replays));
        assert_eq!(engine.peak_cut(), 1, "a floor-served member is not a cut");

        // A member whose cap the floor does not exceed replays, and its
        // full stats replace the floor for the rest of the class.
        let mut uncapped = loser.clone();
        uncapped.params.arena_limit = Some(usize::MAX - 1);
        let scored = engine
            .evaluate_bounded(&t, key, &uncapped, 0, 3, None)
            .unwrap()
            .expect("no incumbent: replayed in full");
        assert_eq!(scored.stats.peak_footprint, full.stats.peak_footprint);
        assert_eq!(engine.counters().replays, c.replays + 1);
        let pkey = ProjectedKey::of(&loser, &projection);
        assert!(matches!(
            engine.cache().get(key, &pkey),
            Some(CappedReplay::Complete(_))
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn capped_greedy_step_cuts_losers_and_serves_their_floors() {
        let t = trace();
        let key = TraceKey::of(&t);
        let engine = ExplorationEngine::serial();
        let (winner, loser) = (presets::drr_paper(), presets::kingsley_like());
        let full = evaluate_one(&ExplorationEngine::serial(), &t, key, &loser).unwrap();
        let cfgs = [winner.clone(), loser.clone()];
        let first = engine.evaluate_all(&t, key, &cfgs, true).unwrap();
        let (CappedReplay::Complete(best), false) = &first[0] else {
            panic!("the lowest peak is replayed in full");
        };
        assert!(
            full.stats.peak_footprint > best.peak_footprint,
            "fixture premise"
        );
        let (CappedReplay::Cut { peak: floor }, false) = first[1] else {
            panic!("the loser's replay is cut");
        };
        assert!(floor > best.peak_footprint && floor <= full.stats.peak_footprint);
        assert_eq!(engine.peak_cut(), 1);
        let c = engine.counters();
        assert_eq!((c.evaluations, c.replays, c.cache_hits), (2, 2, 0));
        let loser_class = class_of(&t, &loser);
        assert_eq!(
            engine.cache().get(key, &loser_class),
            Some(CappedReplay::Cut { peak: floor }),
            "a floor is not stats"
        );

        // Asked again under the same cap: both answers come from the
        // cache, the loser's from its floor.
        let again = engine.evaluate_all(&t, key, &cfgs, true).unwrap();
        assert!(again[0].1 && again[1].1);
        assert_eq!(again[1].0, CappedReplay::Cut { peak: floor });
        let c = engine.counters();
        assert_eq!((c.evaluations, c.replays, c.cache_hits), (4, 2, 2));
        assert_eq!(
            engine.peak_cut(),
            1,
            "a floor-served candidate is not a cut"
        );

        // Alone, the loser is its tree's best: replayed in full, its stats
        // replace the floor.
        let alone = engine.evaluate_all(&t, key, &cfgs[1..], true).unwrap();
        let full_record = CappedReplay::Complete(Box::new(full.stats.clone()));
        assert_eq!(alone[0], (full_record.clone(), false));
        assert_eq!(engine.cache().get(key, &loser_class), Some(full_record));

        // An uncapped caller replays a floor in full, too.
        let other = ExplorationEngine::serial();
        other.evaluate_all(&t, key, &cfgs, true).unwrap();
        let eval = evaluate_one(&other, &t, key, &loser).unwrap();
        assert!(!eval.cache_hit);
        assert_eq!(eval.stats, full.stats);
        assert_eq!(other.counters().replays, 3);
    }

    #[test]
    fn class_siblings_in_one_tree_answer_each_other() {
        // Alloc-only trace: Header vs Footer tags (same byte cost) share a
        // class, so the second completion is a cache hit, counted as
        // greedy hits are, and checked by the debug shadow oracle.
        let mut b = Trace::builder();
        for i in 0..30usize {
            b.alloc(32 + (i % 7) * 24);
        }
        let t = b.finish().unwrap();
        let key = TraceKey::of(&t);
        let header = presets::drr_paper();
        let footer = header.clone().with_leaf(crate::space::trees::Leaf::A3(
            crate::space::trees::BlockTags::Footer,
        ));
        for capped in [false, true] {
            let engine = ExplorationEngine::serial();
            let out = engine
                .evaluate_all(&t, key, &[header.clone(), footer.clone()], capped)
                .unwrap();
            let [(CappedReplay::Complete(first), false), (CappedReplay::Complete(second), true)] =
                &out[..]
            else {
                panic!("capped {capped}: the first is replayed, its sibling served in full");
            };
            assert_eq!(second.manager.as_ref(), footer.name);
            assert_eq!(second.peak_footprint, first.peak_footprint);
            let c = engine.counters();
            assert_eq!((c.evaluations, c.replays, c.cache_hits), (2, 1, 1));
            assert_eq!(c.projection_hits, 0, "greedy hits are cache hits");
            assert_eq!(engine.cache().len(), 1);
        }
    }

    #[test]
    fn budgeted_replays_are_never_cut() {
        // A fault-plan exhaustion (a zero step budget) and a roomy budget
        // both run the candidate uncut, so it is counted exactly as an
        // uncut sweep would count it.
        let t = trace();
        let key = TraceKey::of(&t);
        let loser = presets::kingsley_like();
        let inc = Incumbent { peak: 1, order: 0 };
        let exhausted = ExplorationEngine::serial()
            .with_quarantine(true)
            .with_fault_plan(FaultPlan::new().exhaust_candidate(loser.fingerprint()));
        assert!(exhausted
            .evaluate_bounded(&t, key, &loser, 0, 1, Some(inc))
            .unwrap()
            .is_none());
        assert_eq!(exhausted.counters().budget_exceeded, 1);
        assert_eq!(exhausted.peak_cut(), 0);

        let roomy = ExplorationEngine::serial().with_budget(ReplayBudget {
            max_steps: Some(u64::MAX),
            max_millis: None,
        });
        let scored = roomy
            .evaluate_bounded(&t, key, &loser, 0, 1, Some(inc))
            .unwrap();
        assert!(scored.is_some_and(|e| e.stats.peak_footprint > inc.peak));
        assert_eq!(roomy.peak_cut(), 0);
    }

    #[test]
    fn injected_panic_is_quarantined_in_sweeps_and_strict_in_greedy() {
        let t = trace();
        let key = TraceKey::of(&t);
        let victim = presets::kingsley_like();
        let plan = FaultPlan::new().panic_candidate(victim.fingerprint());

        // Quarantine on: the sweep skips the offender and keeps going.
        let engine = ExplorationEngine::serial()
            .with_quarantine(true)
            .with_projection(true)
            .with_fault_plan(FaultPlan::new().panic_candidate(victim.fingerprint()));
        assert!(engine
            .evaluate_bounded(&t, key, &victim, 0, 0, None)
            .unwrap()
            .is_none());
        assert!(engine
            .evaluate_bounded(&t, key, &presets::drr_paper(), 0, 1, None)
            .unwrap()
            .is_some());
        let c = engine.counters();
        assert_eq!(c.quarantined, 1);
        assert_eq!(
            c.evaluations, 1,
            "the quarantined candidate is not an evaluation"
        );
        assert_eq!(
            engine.cache().len(),
            1,
            "no poisoned score enters the cache"
        );

        // Quarantine off (the default): the panic surfaces as a typed error.
        let strict = ExplorationEngine::serial().with_fault_plan(plan);
        let err = strict
            .evaluate_bounded(&t, key, &victim, 0, 0, None)
            .unwrap_err();
        assert!(
            matches!(err, Error::CandidatePanicked { fingerprint, .. }
                if fingerprint == victim.fingerprint()),
            "{err}"
        );
        // Greedy entry points are always strict, even with quarantine on.
        let greedy = ExplorationEngine::serial()
            .with_quarantine(true)
            .with_fault_plan(FaultPlan::new().panic_candidate(victim.fingerprint()));
        assert!(evaluate_one(&greedy, &t, key, &victim).is_err());
    }

    #[test]
    fn injected_budget_exhaustion_is_counted_and_skipped() {
        let t = trace();
        let key = TraceKey::of(&t);
        let victim = presets::lea_like();
        let engine = ExplorationEngine::serial()
            .with_quarantine(true)
            .with_fault_plan(FaultPlan::new().exhaust_candidate(victim.fingerprint()));
        assert!(engine
            .evaluate_bounded(&t, key, &victim, 0, 0, None)
            .unwrap()
            .is_none());
        let ok = engine
            .evaluate_bounded(&t, key, &presets::drr_paper(), 0, 1, None)
            .unwrap();
        assert!(ok.is_some());
        let c = engine.counters();
        assert_eq!(c.budget_exceeded, 1);
        assert_eq!(c.evaluations, 1);
        assert_eq!(c.replays, 1);
    }

    #[test]
    fn engine_budget_spec_applies_to_fresh_replays() {
        let t = trace();
        let key = TraceKey::of(&t);
        let strict = ExplorationEngine::serial().with_budget(ReplayBudget {
            max_steps: Some(1),
            max_millis: None,
        });
        let err = evaluate_one(&strict, &t, key, &presets::drr_paper()).unwrap_err();
        assert!(
            matches!(err, Error::BudgetExceeded { limit: 1, .. }),
            "{err}"
        );
        // A generous budget changes nothing.
        let roomy = ExplorationEngine::serial().with_budget(ReplayBudget {
            max_steps: Some(u64::MAX),
            max_millis: None,
        });
        let budgeted = evaluate_one(&roomy, &t, key, &presets::drr_paper()).unwrap();
        let plain =
            evaluate_one(&ExplorationEngine::serial(), &t, key, &presets::drr_paper()).unwrap();
        assert_eq!(budgeted.stats, plain.stats);
    }

    #[test]
    fn journalled_scores_survive_into_a_new_engine() {
        let dir = std::env::temp_dir().join("dmm-engine-journal-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("engine.journal");
        std::fs::remove_file(&path).ok();
        let t = trace();
        let key = TraceKey::of(&t);
        let cfgs = presets::all();

        let first =
            ExplorationEngine::serial().with_journal(CheckpointJournal::create(&path).unwrap());
        let original = evaluate_all(&first, &t, key, &cfgs).unwrap();
        assert_eq!(first.counters().replays, cfgs.len());

        // A brand-new engine (fresh cache, fresh process in spirit) resumes
        // from the journal: same stats, zero replays.
        let second =
            ExplorationEngine::serial().with_journal(CheckpointJournal::resume(&path).unwrap());
        let resumed = evaluate_all(&second, &t, key, &cfgs).unwrap();
        let c = second.counters();
        assert_eq!(c.replays, 0, "every score must come from the journal");
        assert_eq!(c.cache_hits, cfgs.len());
        for (a, b) in original.iter().zip(&resumed) {
            assert_eq!(a.stats, b.stats);
        }

        // A sweep with projection on counts what the journal serves where
        // it counts cache hits: in `projection_hits`.
        let sweep = ExplorationEngine::serial()
            .with_projection(true)
            .with_journal(CheckpointJournal::resume(&path).unwrap());
        let eval = sweep
            .evaluate_bounded(&t, key, &cfgs[0], 0, 0, None)
            .unwrap()
            .expect("no incumbent: served in full");
        assert!(eval.cache_hit);
        let c = sweep.counters();
        assert_eq!((c.projection_hits, c.evaluations, c.replays), (1, 0, 0));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn projection_serves_behavioral_duplicates_without_replaying() {
        // Alloc-only trace: the free-path machinery is dead, so Header vs
        // Footer tags (same byte cost, different neighbour knowledge)
        // project to the same key. The debug shadow oracle re-replays
        // every served copy, so this test also exercises the soundness
        // check.
        let mut b = Trace::builder();
        for i in 0..30usize {
            b.alloc(32 + (i % 7) * 24);
        }
        let t = b.finish().unwrap();
        let key = TraceKey::of(&t);
        let engine = ExplorationEngine::serial().with_projection(true);
        let header = presets::drr_paper();
        let footer = header.clone().with_leaf(crate::space::trees::Leaf::A3(
            crate::space::trees::BlockTags::Footer,
        ));
        let first = engine
            .evaluate_bounded(&t, key, &header, 0, 0, None)
            .unwrap()
            .unwrap();
        let second = engine
            .evaluate_bounded(&t, key, &footer, 0, 1, None)
            .unwrap()
            .unwrap();
        assert!(!first.cache_hit);
        assert!(second.cache_hit);
        assert_eq!(second.stats.manager.as_ref(), footer.name);
        assert_eq!(first.stats.peak_footprint, second.stats.peak_footprint);
        let c = engine.counters();
        assert_eq!(c.replays, 1, "the duplicate must not replay");
        assert_eq!(c.projection_hits, 1);
        assert_eq!(c.evaluations, 1, "projection hits are not evaluations");
        assert_eq!(engine.cache().len(), 1);
    }

    #[test]
    fn jobs_zero_resolves_to_available_parallelism() {
        assert!(ExplorationEngine::new(0).jobs() >= 1);
        assert_eq!(ExplorationEngine::new(3).jobs(), 3);
    }

    #[test]
    fn run_parallel_preserves_order() {
        let engine = ExplorationEngine::new(8);
        let items: Vec<usize> = (0..100).collect();
        let out = engine.run_parallel(&items, |i| i * 2);
        assert_eq!(out, (0..100).map(|i| i * 2).collect::<Vec<_>>());
    }
}
