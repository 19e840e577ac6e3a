//! The design methodology (Sections 4–5): traverse the decision trees in
//! the footprint-oriented order, simulate every admissible leaf against the
//! application's profiled trace, fix the best, propagate its constraints,
//! and continue — producing a custom DM manager for the application (and,
//! with phase markers, one atomic manager per phase composed into a global
//! manager).
//!
//! Two evaluation styles are provided:
//!
//! - [`CompletionStyle::Simulated`] — the methodology proper: a candidate
//!   leaf is scored by completing the remaining trees with *preferred*
//!   admissible defaults and replaying the trace;
//! - [`CompletionStyle::Myopic`] — the strawman designer of Figure 4: the
//!   completion assumes *no* machinery for undecided trees, so early tag
//!   decisions see only their own overhead ("the obvious choice to save
//!   memory space would be to choose the None leaf") and the propagated
//!   constraints then lock fragmentation handling out. Used by the order
//!   ablation experiment.
//!
//! All candidate scoring flows through the [`engine::ExplorationEngine`]:
//! a replay cache deduplicates candidate completions that behave
//! identically on the trace ([`ProjectedKey`]), and the engine's worker count
//! ([`ExplorationEngine::new`]) fans distinct replays out over scoped
//! threads — with results guaranteed bit-identical to a serial run.

pub mod cache;
pub mod checkpoint;
pub mod engine;

pub use cache::{ProjectedKey, TraceProjection};
pub use checkpoint::CheckpointJournal;
pub use engine::{EngineCounters, Evaluation, ExplorationEngine, Incumbent};

use serde::{Deserialize, Serialize};

use crate::error::{Error, Result};
use crate::manager::{GlobalManager, PolicyAllocator};
use crate::metrics::FootprintStats;
use crate::profile::Profile;
use crate::space::config::{DmConfig, Params, PartialConfig};
use crate::space::interdep::{admissible_leaves, default_leaf};
use crate::space::order::TRAVERSAL_ORDER;
use crate::space::trees::{
    BlockSizes, BlockStructure, BlockTags, CoalesceMaxSizes, CoalesceWhen, FitAlgorithm,
    FlexibleSize, Leaf, PoolDivision, PoolStructure, RecordedInfo, SplitMinSizes, SplitWhen,
    TreeId,
};
use crate::trace::shard::{replay_shards, shard_trace, TraceShard};
use crate::trace::{replay, Trace};

/// How undecided trees are filled while scoring a candidate leaf.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CompletionStyle {
    /// Preferred admissible defaults (split/coalesce-capable) — the real
    /// methodology.
    Simulated,
    /// Minimal-machinery defaults (no tags, never split/coalesce where
    /// admissible) — models the naive designer of Figure 4.
    Myopic,
}

/// The evaluation of one candidate leaf during exploration.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CandidateEval {
    /// The leaf under evaluation.
    pub leaf: Leaf,
    /// How the completed configuration scored on the trace.
    pub score: CandidateScore,
}

impl CandidateEval {
    /// `(peak footprint, search steps)` of the completed configuration,
    /// when the log holds them exactly.
    pub fn exact(&self) -> Option<(usize, u64)> {
        match self.score {
            CandidateScore::Exact {
                peak_footprint,
                search_steps,
            } => Some((peak_footprint, search_steps)),
            CandidateScore::PeakAbove(_) => None,
        }
    }
}

/// A candidate's score in the decision log.
///
/// Under [`Objective::Footprint`] every candidate whose peak exceeds its
/// tree's best is logged as [`CandidateScore::PeakAbove`] that best,
/// however far its replay ran, so the log does not depend on evaluation
/// order, worker count or a journal resume. Candidates that tie on the
/// best peak stay exact: the step tie-break reads them. Under
/// [`Objective::Weighted`] every score is exact.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CandidateScore {
    /// The completed configuration's replayed peak and search steps.
    Exact {
        /// Peak footprint on the trace.
        peak_footprint: usize,
        /// Search steps (the tie-breaker).
        search_steps: u64,
    },
    /// The completed configuration peaks above this many bytes, the best
    /// peak among the tree's candidates: it lost on peak.
    PeakAbove(usize),
}

/// The record of one tree's decision.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DecisionRecord {
    /// Which tree was decided.
    pub tree: TreeId,
    /// The chosen leaf.
    pub chosen: Leaf,
    /// Every admissible candidate with its score.
    pub candidates: Vec<CandidateEval>,
}

/// Result of exploring one trace.
#[derive(Debug, Clone)]
pub struct ExplorationOutcome {
    /// The custom manager configuration the methodology designed.
    pub config: DmConfig,
    /// Replay statistics of the final configuration on the input trace.
    pub footprint: FootprintStats,
    /// Per-tree decision log, in traversal order.
    pub decisions: Vec<DecisionRecord>,
    /// Candidate evaluations spent, over every portfolio hypothesis: each
    /// is a fresh replay or a hit in the engine's [`cache::ReplayCache`]
    /// (a class sibling was scored on this trace before) or checkpoint
    /// journal. Under [`Objective::Footprint`] a replay
    /// may stop once the candidate's peak passes its tree's best (it still
    /// counts in `replays`, and in the engine's
    /// [`ExplorationEngine::peak_cut`]), and a cached floor above that
    /// best answers a candidate as a cache hit. Greedy exploration never
    /// prunes, projects or quarantines, so the other counters stay zero.
    pub counters: EngineCounters,
    /// The profile that seeded the parameters.
    pub profile: Profile,
}

/// Result of per-phase exploration (Section 3.3).
#[derive(Debug, Clone)]
pub struct PhasedOutcome {
    /// One designed configuration per phase, in phase order.
    pub phase_configs: Vec<(u32, DmConfig)>,
    /// Replay statistics of the composed global manager on the full trace.
    pub footprint: FootprintStats,
    /// Per-phase exploration outcomes.
    pub per_phase: Vec<(u32, ExplorationOutcome)>,
}

impl PhasedOutcome {
    /// Evaluation counters summed over every phase's exploration.
    pub fn counters(&self) -> EngineCounters {
        self.per_phase.iter().map(|(_, o)| o.counters).sum()
    }
}

/// Documented agreement tolerance of sharded exploration: on small,
/// shardable traces the merged design's peak footprint stays within this
/// fraction of whole-trace [`Methodology::explore`]'s (tests enforce it).
/// The slack exists because each shard votes from its own window — a
/// shard-local winner can differ from the whole-trace winner when windows
/// have genuinely different behaviour, and per-shard replays each start
/// from a fresh arena.
pub const SHARD_MERGE_TOLERANCE: f64 = 0.25;

/// One leaf's tally in the sharded merge rule.
#[derive(Debug, Clone, PartialEq)]
pub struct MergeVote {
    /// The leaf voted for.
    pub leaf: Leaf,
    /// Summed weight of the shards that chose it (each shard weighs its
    /// peak live demand in bytes — see
    /// [`TraceShard::weight`](crate::trace::TraceShard::weight)).
    pub weight: f64,
    /// Number of shards that chose it.
    pub shards: usize,
}

/// The record of one tree's merged decision across shards.
#[derive(Debug, Clone, PartialEq)]
pub struct MergeDecision {
    /// Which tree was merged.
    pub tree: TreeId,
    /// The winning leaf.
    pub chosen: Leaf,
    /// Every leaf that received at least one (admissible) shard vote.
    pub votes: Vec<MergeVote>,
    /// Whether every shard voted for the winner.
    pub unanimous: bool,
}

/// Attempts per shard before its failure is permanent: the initial try
/// plus two retries. Retries target *transient* failures (a worker death,
/// a panicking replay outside quarantine); deterministic config errors
/// fail on every attempt and simply exhaust the budget quickly.
pub const SHARD_RETRY_ATTEMPTS: usize = 3;

/// What sharded exploration does when a shard fails permanently (every
/// retry exhausted).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ShardFailurePolicy {
    /// Surface [`Error::ShardFailed`] — never merge a partial result as if
    /// it were complete (the default).
    #[default]
    Fail,
    /// Drop the failed shards from the merge and composition, reporting
    /// them in [`ShardedOutcome::failed_shards`] with the remaining weight
    /// fraction in [`ShardedOutcome::confidence`]. Fails anyway if *no*
    /// shard completes.
    Degrade,
}

/// A shard that failed permanently inside a degraded sharded run.
#[derive(Debug, Clone)]
pub struct FailedShard {
    /// Shard position in the original trace.
    pub index: usize,
    /// Phase covered, when sharding was phase-aligned.
    pub phase: Option<u32>,
    /// The weight its vote would have carried.
    pub weight: f64,
    /// Events in the shard.
    pub events: usize,
    /// Attempts made (initial try plus retries).
    pub attempts: usize,
    /// The last attempt's failure.
    pub error: Error,
}

/// One shard's exploration inside a sharded run.
#[derive(Debug, Clone)]
pub struct ShardOutcome {
    /// Shard position in the original trace.
    pub index: usize,
    /// Phase covered, when sharding was phase-aligned.
    pub phase: Option<u32>,
    /// The shard's merge-vote weight (peak live requested bytes).
    pub weight: f64,
    /// Events in the shard.
    pub events: usize,
    /// The shard's own exploration.
    pub outcome: ExplorationOutcome,
}

/// Result of sharded exploration ([`Methodology::explore_sharded`]).
#[derive(Debug, Clone)]
pub struct ShardedOutcome {
    /// The merged configuration (majority/score-weighted vote per tree).
    pub config: DmConfig,
    /// Composed replay of the merged configuration over every shard
    /// (counters summed, peaks maxed — see
    /// [`FootprintStats::absorb_shard`]).
    pub footprint: FootprintStats,
    /// Per-tree merge log, in traversal order — one entry per merged
    /// choice.
    pub merges: Vec<MergeDecision>,
    /// Per-shard explorations, in shard order.
    pub per_shard: Vec<ShardOutcome>,
    /// Candidate evaluations across shards and composition.
    pub counters: EngineCounters,
    /// Number of shards explored.
    pub shard_count: usize,
    /// Largest single shard resident during the composed replay pass —
    /// the streaming path's trace-memory bound.
    pub peak_resident_trace_bytes: usize,
    /// Worst live-set carry across any shard boundary (0 = every shard
    /// was lifetime-closed and no footprint signal crossed a cut).
    pub max_carried_bytes: usize,
    /// Shards dropped by [`ShardFailurePolicy::Degrade`] after exhausting
    /// their retries (empty under [`ShardFailurePolicy::Fail`], which
    /// errors instead).
    pub failed_shards: Vec<FailedShard>,
    /// Completed fraction of the total shard vote weight: `1.0` for a
    /// clean run, below it when shards were dropped — the explicit
    /// "how much of the trace actually voted" signal a degraded merge
    /// must carry.
    pub confidence: f64,
    /// Retry attempts consumed across all shards beyond each shard's
    /// first try (`EX003` telemetry).
    pub shard_retries: usize,
}

/// What the per-tree argmin optimises.
///
/// The paper optimises footprint and notes that "trade-offs between the
/// relevant design factors (e.g. improving performance consuming a little
/// more memory footprint) are possible using our methodology" — the
/// weighted objective implements exactly that knob.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Objective {
    /// Minimise peak footprint; break ties on search steps (the default).
    Footprint,
    /// Minimise `peak_footprint + step_weight × search_steps`: raising the
    /// weight trades memory for speed.
    Weighted {
        /// Bytes of footprint one search step is worth.
        step_weight: f64,
    },
}

impl Objective {
    fn score_raw(self, peak_footprint: usize, search_steps: u64) -> f64 {
        match self {
            Objective::Footprint => peak_footprint as f64,
            Objective::Weighted { step_weight } => {
                peak_footprint as f64 + step_weight * search_steps as f64
            }
        }
    }

    /// The total order every selection in the methodology uses: objective
    /// score first, fewer search steps as the tie-break.
    ///
    /// A non-finite score (a user-supplied `step_weight` of NaN or ±∞ can
    /// produce one) must not panic mid-sweep: incomparable scores rank as
    /// equal and fall through to the deterministic step tie-break.
    fn cmp_raw(self, a: (usize, u64), b: (usize, u64)) -> std::cmp::Ordering {
        self.score_raw(a.0, a.1)
            .partial_cmp(&self.score_raw(b.0, b.1))
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.1.cmp(&b.1))
    }
}

/// The methodology driver.
#[derive(Debug, Clone)]
pub struct Methodology {
    order: Vec<TreeId>,
    style: CompletionStyle,
    objective: Objective,
    max_classes: usize,
    name: String,
    portfolio: bool,
    shard_failure: ShardFailurePolicy,
}

impl Default for Methodology {
    fn default() -> Self {
        Methodology::new()
    }
}

impl Methodology {
    /// The paper's methodology: traversal order of Section 4.2, simulated
    /// evaluation.
    pub fn new() -> Self {
        Methodology {
            order: TRAVERSAL_ORDER.to_vec(),
            style: CompletionStyle::Simulated,
            objective: Objective::Footprint,
            max_classes: 8,
            name: "custom (methodology)".into(),
            portfolio: true,
            shard_failure: ShardFailurePolicy::default(),
        }
    }

    /// What sharded exploration does when a shard fails permanently
    /// (default [`ShardFailurePolicy::Fail`]: a structured
    /// [`Error::ShardFailed`], never a silent partial merge).
    pub fn with_shard_failure_policy(mut self, policy: ShardFailurePolicy) -> Self {
        self.shard_failure = policy;
        self
    }

    /// Enable or disable the probe portfolio of [`Methodology::explore`]
    /// (on by default). Disabling saves ~2/3 of the trace replays and
    /// restricts the search to this methodology's own (order, style)
    /// hypothesis — incumbent tracking within that traversal still
    /// applies. Used when a single hypothesis must be isolated (order
    /// ablations) or when exploration time matters more than the last few
    /// footprint bytes.
    pub fn with_portfolio(mut self, portfolio: bool) -> Self {
        self.portfolio = portfolio;
        self
    }

    /// Change the optimisation objective (footprint vs. weighted
    /// footprint/performance trade-off).
    pub fn with_objective(mut self, objective: Objective) -> Self {
        self.objective = objective;
        self
    }

    /// Use a different traversal order (for the Figure 4 ablation).
    pub fn with_order(mut self, order: &[TreeId]) -> Self {
        assert_eq!(order.len(), TreeId::ALL.len(), "order must cover all trees");
        self.order = order.to_vec();
        self
    }

    /// Use a different completion style.
    pub fn with_style(mut self, style: CompletionStyle) -> Self {
        self.style = style;
        self
    }

    /// Name given to designed configurations.
    pub fn with_name(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }

    /// Derive the quantitative parameters from a profile.
    fn seed_params(&self, profile: &Profile) -> Params {
        let mut params = Params::footprint_optimised();
        // Tag width is unknown before A3/A4 are decided; seed classes with a
        // plain 4-byte header, the neutral default.
        params.profiled_classes = profile.suggested_classes(self.max_classes, 4);
        if params.profiled_classes.is_empty() {
            params.profiled_classes = vec![crate::units::MIN_BLOCK];
        }
        params
    }

    fn complete(
        &self,
        partial: &PartialConfig,
        params: &Params,
        style: CompletionStyle,
    ) -> Result<DmConfig> {
        let mut p = partial.clone();
        for tree in &self.order {
            if p.get(*tree).is_none() {
                let leaf = match style {
                    CompletionStyle::Simulated => default_leaf(*tree, &p)?,
                    CompletionStyle::Myopic => myopic_leaf(*tree, &p)?,
                };
                p.set(leaf);
            }
        }
        p.freeze(self.name.clone(), params.clone())
    }

    /// Run the methodology on one trace.
    ///
    /// With the default [`CompletionStyle::Simulated`], the primary
    /// exploration (this methodology's order, preferred-machinery
    /// completion) is backed by a small portfolio of probe explorations
    /// covering the qualitatively different region of the space: the
    /// minimal-machinery hypothesis under the same order, and under the
    /// tag-first order (which fixes A3/A4 before the fragmentation trees —
    /// where zero-tag designs live). Traces without fragmentation pressure
    /// are won by a zero-machinery design; fragmenting traces by the
    /// split/coalesce-capable one. The best design found becomes
    /// [`ExplorationOutcome::config`]; the decision log always documents
    /// the primary traversal. The portfolio runs only for
    /// [`CompletionStyle::Simulated`]; to isolate a single (order, style)
    /// hypothesis — as the Figure 4 order ablation must — use
    /// [`Methodology::with_portfolio`]`(false)` and/or a pinned
    /// [`Methodology::with_style`].
    ///
    /// # Errors
    ///
    /// Returns an error if the trace is empty or a candidate manager fails
    /// (e.g. an arena limit in `params`).
    pub fn explore(&self, trace: &Trace) -> Result<ExplorationOutcome> {
        self.explore_with_engine(trace, &ExplorationEngine::serial())
    }

    /// Like [`Methodology::explore`], but evaluating through a
    /// caller-provided [`ExplorationEngine`], whose worker count governs
    /// the fan-out.
    ///
    /// Parallel exploration is **bit-identical** to serial: candidates are
    /// scored in input order and every replay is deterministic, so the
    /// argmin, its tie-breaks and the decision log do not depend on the
    /// engine's jobs. Only the cache-hit/replay split of the counters may
    /// differ, because concurrent workers can both miss on the same
    /// class, and under [`Objective::Footprint`] a worker may cut
    /// a loser later than a serial run would, or not at all. Sharing one
    /// engine across related explorations (objective sweeps, repeated
    /// designs on the same trace, bench harnesses) lets its replay cache
    /// deduplicate configurations the separate runs would otherwise
    /// re-replay.
    ///
    /// # Errors
    ///
    /// As for [`Methodology::explore`].
    pub fn explore_with_engine(
        &self,
        trace: &Trace,
        engine: &ExplorationEngine,
    ) -> Result<ExplorationOutcome> {
        if trace.is_empty() {
            return Err(Error::EmptySearchSpace(
                "cannot explore an empty trace".into(),
            ));
        }
        // Profile and hash the trace once; every hypothesis reads both.
        let profile = Profile::of(trace);
        let trace_key = cache::TraceKey::of(trace);
        let explore = |m: &Methodology, style| {
            m.explore_with_style(trace, &profile, trace_key, style, engine)
        };
        if !self.portfolio || self.style != CompletionStyle::Simulated {
            return explore(self, self.style);
        }
        // The portfolio's hypotheses are independent explorations over the
        // same trace: fan them out, first entry is the primary.
        let mut hypotheses: Vec<(Methodology, CompletionStyle)> = vec![
            (self.clone(), self.style),
            (self.clone(), CompletionStyle::Myopic),
        ];
        // The tag-first probe duplicates the minimal one when this
        // methodology already traverses tag-first; don't pay for the same
        // hypothesis twice.
        if self.order != crate::space::order::A3_FIRST_ORDER {
            hypotheses.push((
                self.clone()
                    .with_order(&crate::space::order::A3_FIRST_ORDER[..]),
                CompletionStyle::Myopic,
            ));
        }
        let outcomes = engine.run_parallel(&hypotheses, |(m, style)| explore(m, *style));
        let mut outcomes = outcomes.into_iter();
        let mut primary = outcomes.next().expect("primary hypothesis present")?;
        // Score on the replayed statistics alone; the winner keeps
        // `primary`'s decision log, so the log always documents the
        // methodology's own traversal.
        let key =
            |o: &ExplorationOutcome| (o.footprint.peak_footprint, o.footprint.stats.search_steps);
        for probe in outcomes {
            let probe = probe?;
            primary.counters += probe.counters;
            if self.objective.cmp_raw(key(&probe), key(&primary)).is_lt() {
                primary.config = probe.config;
                primary.footprint = probe.footprint;
            }
        }
        Ok(primary)
    }

    /// One greedy traversal of a non-empty `trace`, whose profile and key
    /// the caller computed.
    fn explore_with_style(
        &self,
        trace: &Trace,
        profile: &Profile,
        trace_key: cache::TraceKey,
        style: CompletionStyle,
        engine: &ExplorationEngine,
    ) -> Result<ExplorationOutcome> {
        let params = self.seed_params(profile);
        let mut partial = PartialConfig::default();
        let mut decisions = Vec::with_capacity(self.order.len());
        let mut counters = EngineCounters::default();
        // Every candidate is scored by completing it into a full runnable
        // configuration, so the search has already paid for its replay;
        // keep the best completion seen as an incumbent. The final greedy
        // configuration is itself the last tree's chosen completion, so
        // returning the incumbent makes `explore` the argmin over every
        // configuration it evaluated — never worse than plain greedy
        // (including greedy's fewer-search-steps tie-break).
        let mut incumbent: Option<(DmConfig, FootprintStats)> = None;
        // A pure-footprint objective ranks on peak first, so a completion
        // whose peak passes its tree's best can be neither that tree's
        // argmin nor the incumbent, and its replay may stop there. A
        // weighted objective can trade peak for steps: full replays.
        let capped = self.objective == Objective::Footprint;

        for &tree in &self.order {
            let candidates = admissible_leaves(tree, &partial);
            if candidates.is_empty() {
                return Err(Error::EmptySearchSpace(format!(
                    "tree {} has no admissible leaf",
                    tree.code()
                )));
            }
            // Complete every candidate into a full configuration (cheap,
            // serial), then let the engine score them — memoised and
            // fanned out — before folding the results back in input order
            // so argmin and tie-breaks match the serial traversal bit for
            // bit.
            let mut completions = Vec::with_capacity(candidates.len());
            for &leaf in &candidates {
                let mut trial = partial.clone();
                trial.set(leaf);
                completions.push(self.complete(&trial, &params, style)?);
            }
            let outcomes = engine.evaluate_all(trace, trace_key, &completions, capped)?;
            let best_peak = outcomes
                .iter()
                .filter_map(|o| o.stats().map(|fs| fs.peak_footprint))
                .min()
                .expect("a tree's lowest peak is always replayed in full");
            let mut evals = Vec::with_capacity(candidates.len());
            for ((leaf, cfg), outcome) in candidates.into_iter().zip(completions).zip(outcomes) {
                tally(&mut counters, outcome.cache_hit());
                let fs = match outcome {
                    engine::Outcome::Scored(eval)
                        if !capped || eval.stats.peak_footprint == best_peak =>
                    {
                        eval.stats
                    }
                    _ => {
                        evals.push(CandidateEval {
                            leaf,
                            score: CandidateScore::PeakAbove(best_peak),
                        });
                        continue;
                    }
                };
                let score = (fs.peak_footprint, fs.stats.search_steps);
                let better_than_incumbent = incumbent.as_ref().is_none_or(|(_, best)| {
                    self.objective
                        .cmp_raw(score, (best.peak_footprint, best.stats.search_steps))
                        .is_lt()
                });
                if better_than_incumbent {
                    incumbent = Some((cfg, fs));
                }
                evals.push(CandidateEval {
                    leaf,
                    score: CandidateScore::Exact {
                        peak_footprint: score.0,
                        search_steps: score.1,
                    },
                });
            }
            let objective = self.objective;
            let (chosen, _) = evals
                .iter()
                .filter_map(|e| Some((e.leaf, e.exact()?)))
                .min_by(|a, b| objective.cmp_raw(a.1, b.1))
                .expect("candidates checked non-empty");
            partial.set(chosen);
            decisions.push(DecisionRecord {
                tree,
                chosen,
                candidates: evals,
            });
        }

        // `with_order` keeps all twelve trees in the order, and the first
        // tree's lowest-peak completion always becomes the incumbent.
        let (config, footprint) =
            incumbent.expect("the first tree's best completion is always the incumbent");
        config.validate()?;
        Ok(ExplorationOutcome {
            config,
            footprint,
            decisions,
            counters,
            profile: profile.clone(),
        })
    }

    /// Run the methodology per phase and compose the atomic managers into
    /// the application's global manager (Section 3.3).
    ///
    /// # Errors
    ///
    /// As for [`Methodology::explore`].
    pub fn explore_phases(&self, trace: &Trace) -> Result<PhasedOutcome> {
        self.explore_phases_with_engine(trace, &ExplorationEngine::serial())
    }

    /// Like [`Methodology::explore_phases`], evaluating through a
    /// caller-provided [`ExplorationEngine`] (see
    /// [`Methodology::explore_with_engine`]). The phase explorations
    /// themselves fan out over the engine's jobs.
    ///
    /// # Errors
    ///
    /// As for [`Methodology::explore`].
    pub fn explore_phases_with_engine(
        &self,
        trace: &Trace,
        engine: &ExplorationEngine,
    ) -> Result<PhasedOutcome> {
        let parts = trace.split_phases();
        if parts.is_empty() {
            return Err(Error::EmptySearchSpace("trace has no events".into()));
        }
        let outcomes = engine.run_parallel(&parts, |(phase, sub)| {
            self.clone()
                .with_name(format!("{} [phase {phase}]", self.name))
                .explore_with_engine(sub, engine)
        });
        let mut per_phase = Vec::with_capacity(parts.len());
        let mut phase_configs = Vec::with_capacity(parts.len());
        for ((phase, _), outcome) in parts.iter().zip(outcomes) {
            let outcome = outcome?;
            phase_configs.push((*phase, outcome.config.clone()));
            per_phase.push((*phase, outcome));
        }
        let mut global =
            GlobalManager::new_mapped(format!("{} [global]", self.name), phase_configs.clone())?;
        // One composed replay over the full trace: compile once and run
        // the monomorphized kernel (the per-phase engine caches only hold
        // the sub-traces).
        let footprint = crate::trace::replay_compiled(
            &crate::trace::CompiledTrace::compile(trace),
            &mut global,
        )?;
        Ok(PhasedOutcome {
            phase_configs,
            footprint,
            per_phase,
        })
    }

    /// Shard a trace ([`shard_trace`]) and run the methodology per shard,
    /// merging the per-shard designs into one configuration.
    ///
    /// Each shard is explored independently (fanned out over the engine's
    /// jobs, memoised per shard fingerprint), then the **merge rule**
    /// composes the designs: traversing the trees in this methodology's
    /// order, every shard votes for the leaf its design chose, weighted by
    /// the shard's peak live demand; the heaviest admissible leaf wins and
    /// constrains the trees below it, with a [`MergeDecision`] logged per
    /// tree. On shardable traces the merged design agrees with whole-trace
    /// [`Methodology::explore`] within [`SHARD_MERGE_TOLERANCE`].
    ///
    /// # Errors
    ///
    /// As for [`Methodology::explore`]; also errors on an empty trace.
    pub fn explore_sharded(&self, trace: &Trace, shards: usize) -> Result<ShardedOutcome> {
        self.explore_sharded_with_engine(trace, shards, &ExplorationEngine::serial())
    }

    /// Like [`Methodology::explore_sharded`], evaluating through a
    /// caller-provided [`ExplorationEngine`]. Shard explorations fan out
    /// over the engine's jobs; the composed replay of the merged design is
    /// served from the cache wherever a shard already scored it.
    ///
    /// # Errors
    ///
    /// As for [`Methodology::explore_sharded`].
    pub fn explore_sharded_with_engine(
        &self,
        trace: &Trace,
        shards: usize,
        engine: &ExplorationEngine,
    ) -> Result<ShardedOutcome> {
        let parts = shard_trace(trace, shards);
        if parts.is_empty() {
            return Err(Error::EmptySearchSpace(
                "cannot explore an empty trace".into(),
            ));
        }
        let attempts = engine.run_parallel(&parts, |s| self.explore_shard_attempts(s, engine));
        let mut results = ShardResults::default();
        for (s, attempt) in parts.iter().zip(attempts) {
            results.file(s, attempt, self.shard_failure)?;
        }
        self.compose_sharded(results, parts, engine)
    }

    /// Explore one shard with bounded retry: a caught worker panic (real,
    /// or injected by the engine's [`FaultPlan`](crate::fault::FaultPlan))
    /// is transient and retried with a small deterministic backoff, up to
    /// [`SHARD_RETRY_ATTEMPTS`] total tries; a deterministic [`Error`]
    /// from exploration is permanent immediately — retrying replays the
    /// same failure. Returns the result plus the attempts consumed.
    fn explore_shard_attempts(
        &self,
        s: &TraceShard,
        engine: &ExplorationEngine,
    ) -> (Result<ExplorationOutcome>, usize) {
        let mut attempts = 0usize;
        loop {
            attempts += 1;
            let inject = engine
                .fault_plan()
                .is_some_and(|p| p.take_shard_fault(s.index));
            let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                if inject {
                    panic!("injected fault: worker death on shard {}", s.index);
                }
                self.shard_methodology(s)
                    .explore_with_engine(&s.trace, engine)
            }));
            match run {
                Ok(Ok(outcome)) => return (Ok(outcome), attempts),
                Ok(Err(e)) => {
                    return (
                        Err(Error::ShardFailed {
                            shard: s.index,
                            attempts,
                            cause: Box::new(e),
                        }),
                        attempts,
                    )
                }
                Err(payload) => {
                    let died = Error::WorkerDied {
                        reason: engine::panic_reason(payload.as_ref()),
                    };
                    if attempts >= SHARD_RETRY_ATTEMPTS {
                        return (
                            Err(Error::ShardFailed {
                                shard: s.index,
                                attempts,
                                cause: Box::new(died),
                            }),
                            attempts,
                        );
                    }
                    // Linear backoff, milliseconds: long enough to let a
                    // transient (contention, injected chaos) clear, short
                    // enough to be invisible in a sweep.
                    std::thread::sleep(std::time::Duration::from_millis(attempts as u64));
                }
            }
        }
    }

    /// Streaming sharded exploration: shards are drawn from `source` one
    /// at a time and dropped as soon as they are explored, so trace memory
    /// is bounded by the **largest shard** — never the whole trace. The
    /// source is invoked twice: once to explore each shard, once to replay
    /// the merged design over them (seed-deterministic generators make the
    /// second pass free of any whole-trace materialisation too).
    ///
    /// Within each shard, candidate evaluation still fans out over the
    /// engine's jobs; across shards this path is deliberately serial —
    /// that is what keeps the memory bound.
    ///
    /// # Errors
    ///
    /// As for [`Methodology::explore_sharded`]; also errors if `source`
    /// yields no shards.
    pub fn explore_shard_stream<F, I>(
        &self,
        source: F,
        engine: &ExplorationEngine,
    ) -> Result<ShardedOutcome>
    where
        F: Fn() -> I,
        I: IntoIterator<Item = TraceShard>,
    {
        let mut results = ShardResults::default();
        for shard in source() {
            let attempt = self.explore_shard_attempts(&shard, engine);
            // The engine compiled this shard for its replays; release the
            // O(shard) compiled copy along with the shard itself, or the
            // engine's table would quietly accumulate the whole trace.
            engine.release_compiled(cache::TraceKey::of(&shard.trace));
            results.file(&shard, attempt, self.shard_failure)?;
            // `shard` drops here: only one shard is ever resident.
        }
        if results.per_shard.is_empty() && results.failed.is_empty() {
            return Err(Error::EmptySearchSpace(
                "shard source yielded no shards".into(),
            ));
        }
        self.compose_sharded(results, source(), engine)
    }

    /// Per-shard methodology: same hypothesis, labelled for the shard.
    fn shard_methodology(&self, s: &TraceShard) -> Methodology {
        let label = match s.phase {
            Some(p) => format!("{} [shard {} · phase {p}]", self.name, s.index),
            None => format!("{} [shard {}]", self.name, s.index),
        };
        self.clone().with_name(label)
    }

    /// The merge rule: score-weighted majority vote per tree leaf,
    /// constrained to admissibility under the already-merged prefix.
    fn merge_shard_designs(
        &self,
        per_shard: &[ShardOutcome],
    ) -> Result<(DmConfig, Vec<MergeDecision>)> {
        if per_shard.is_empty() {
            return Err(Error::EmptySearchSpace(
                "no shard exploration completed — nothing to merge".into(),
            ));
        }
        let mut partial = PartialConfig::default();
        let mut merges = Vec::with_capacity(self.order.len());
        for &tree in &self.order {
            let admissible = admissible_leaves(tree, &partial);
            if admissible.is_empty() {
                return Err(Error::EmptySearchSpace(format!(
                    "tree {} has no admissible leaf under the merged prefix",
                    tree.code()
                )));
            }
            // Tally in admissible order so ties break deterministically
            // toward the earlier leaf, independent of shard order.
            let mut votes: Vec<MergeVote> = admissible
                .iter()
                .map(|&leaf| MergeVote {
                    leaf,
                    weight: 0.0,
                    shards: 0,
                })
                .collect();
            for s in per_shard {
                let leaf = s.outcome.config.leaf(tree);
                // A shard whose choice became inadmissible under the
                // merged prefix abstains on this tree.
                if let Some(v) = votes.iter_mut().find(|v| v.leaf == leaf) {
                    v.weight += s.weight;
                    v.shards += 1;
                }
            }
            let mut winner: Option<(Leaf, f64)> = None;
            for v in votes.iter().filter(|v| v.shards > 0) {
                if winner.is_none_or(|(_, w)| v.weight > w) {
                    winner = Some((v.leaf, v.weight));
                }
            }
            let chosen = match winner {
                Some((leaf, _)) => leaf,
                // Every shard abstained: fall back to the preferred
                // admissible default, as a completion would.
                None => default_leaf(tree, &partial)?,
            };
            votes.retain(|v| v.shards > 0);
            let unanimous = votes.len() == 1 && votes[0].shards == per_shard.len();
            partial.set(chosen);
            merges.push(MergeDecision {
                tree,
                chosen,
                votes,
                unanimous,
            });
        }
        // Quantitative parameters come from the merged shard profiles —
        // the whole trace is never profiled in one piece.
        let mut profile = per_shard[0].outcome.profile.clone();
        for s in &per_shard[1..] {
            profile.merge(&s.outcome.profile);
        }
        let params = self.seed_params(&profile);
        let config = partial.freeze(
            format!("{} [merged ×{}]", self.name, per_shard.len()),
            params,
        )?;
        config.validate()?;
        Ok((config, merges))
    }

    /// Merge the completed shards' designs, replay the merged design over
    /// them (cache-assisted) and assemble the outcome. `shards` is the
    /// shard stream again; shards that failed under
    /// [`ShardFailurePolicy::Degrade`] are left out of the composition as
    /// well as the merge.
    fn compose_sharded<I>(
        &self,
        results: ShardResults,
        shards: I,
        engine: &ExplorationEngine,
    ) -> Result<ShardedOutcome>
    where
        I: IntoIterator<Item = TraceShard>,
    {
        let ShardResults {
            per_shard,
            failed: failed_shards,
            retries: shard_retries,
        } = results;
        let (config, merges) = self.merge_shard_designs(&per_shard)?;
        let completed: std::collections::BTreeSet<usize> =
            per_shard.iter().map(|s| s.index).collect();
        let mut counters: EngineCounters = per_shard.iter().map(|s| s.outcome.counters).sum();
        let composed = replay_shards(
            shards.into_iter().filter(|s| completed.contains(&s.index)),
            |shard| {
                // One fingerprint serves both the evaluation and the release.
                let key = cache::TraceKey::of(&shard.trace);
                let eval = engine
                    .evaluate_all(&shard.trace, key, std::slice::from_ref(&config), false)?
                    .pop()
                    .expect("one configuration, one outcome")
                    .uncapped();
                // Keep the streaming bound: drop the shard's compiled copy
                // and projection with the shard.
                engine.release_compiled(key);
                tally(&mut counters, eval.cache_hit);
                Ok(eval.stats)
            },
        )?;
        if composed.shard_count == 0 {
            return Err(Error::EmptySearchSpace(
                "shard source yielded no shards to compose".into(),
            ));
        }
        let shard_count = per_shard.len();
        let completed_weight: f64 = per_shard.iter().map(|s| s.weight).sum();
        let failed_weight: f64 = failed_shards.iter().map(|s| s.weight).sum();
        let total_weight = completed_weight + failed_weight;
        let confidence = if total_weight > 0.0 {
            completed_weight / total_weight
        } else {
            1.0
        };
        Ok(ShardedOutcome {
            config,
            footprint: composed.stats,
            merges,
            per_shard,
            counters,
            shard_count,
            peak_resident_trace_bytes: composed.peak_resident_trace_bytes,
            max_carried_bytes: composed.max_carried_bytes,
            failed_shards,
            confidence,
            shard_retries,
        })
    }
}

/// Per-shard results of a sharded exploration, filed in shard order.
#[derive(Default)]
struct ShardResults {
    per_shard: Vec<ShardOutcome>,
    failed: Vec<FailedShard>,
    /// Attempts beyond each shard's first try.
    retries: usize,
}

impl ShardResults {
    /// File one shard's exploration and the attempts it took
    /// ([`Methodology::explore_shard_attempts`]). A permanent failure is
    /// returned under [`ShardFailurePolicy::Fail`] and kept for the
    /// outcome under [`ShardFailurePolicy::Degrade`].
    fn file(
        &mut self,
        s: &TraceShard,
        (result, attempts): (Result<ExplorationOutcome>, usize),
        policy: ShardFailurePolicy,
    ) -> Result<()> {
        self.retries += attempts - 1;
        match result {
            Ok(outcome) => self.per_shard.push(ShardOutcome {
                index: s.index,
                phase: s.phase,
                weight: s.weight(),
                events: s.trace.len(),
                outcome,
            }),
            Err(e) if policy == ShardFailurePolicy::Fail => return Err(e),
            Err(error) => self.failed.push(FailedShard {
                index: s.index,
                phase: s.phase,
                weight: s.weight(),
                events: s.trace.len(),
                attempts,
                error,
            }),
        }
        Ok(())
    }
}

/// Count one greedy or sharded evaluation: a fresh replay (cut or
/// complete) or a cache (or journal) hit, as the engine counted it.
fn tally(counters: &mut EngineCounters, cache_hit: bool) {
    counters.evaluations += 1;
    if cache_hit {
        counters.cache_hits += 1;
    } else {
        counters.replays += 1;
    }
}

/// Minimal-machinery admissible leaf — the myopic designer's preference.
fn myopic_leaf(tree: TreeId, partial: &PartialConfig) -> Result<Leaf> {
    let prefs: Vec<Leaf> = match tree {
        TreeId::A1BlockStructure => vec![
            Leaf::A1(BlockStructure::SinglyLinkedList),
            Leaf::A1(BlockStructure::DoublyLinkedList),
        ],
        TreeId::A2BlockSizes => vec![
            Leaf::A2(BlockSizes::Many),
            Leaf::A2(BlockSizes::PowerOfTwoClasses),
        ],
        TreeId::A3BlockTags => vec![Leaf::A3(BlockTags::None), Leaf::A3(BlockTags::Header)],
        TreeId::A4RecordedInfo => vec![
            Leaf::A4(RecordedInfo::None),
            Leaf::A4(RecordedInfo::Size),
            Leaf::A4(RecordedInfo::SizeAndStatus),
        ],
        TreeId::A5FlexibleSize => vec![
            Leaf::A5(FlexibleSize::None),
            Leaf::A5(FlexibleSize::SplitOnly),
            Leaf::A5(FlexibleSize::CoalesceOnly),
            Leaf::A5(FlexibleSize::SplitAndCoalesce),
        ],
        TreeId::B1PoolDivision => vec![Leaf::B1(PoolDivision::SinglePool)],
        TreeId::B4PoolStructure => vec![Leaf::B4(PoolStructure::Array)],
        TreeId::C1FitAlgorithm => vec![Leaf::C1(FitAlgorithm::FirstFit)],
        TreeId::D1CoalesceMaxSizes => vec![
            Leaf::D1(CoalesceMaxSizes::Unlimited),
            Leaf::D1(CoalesceMaxSizes::Capped),
        ],
        TreeId::D2CoalesceWhen => vec![
            Leaf::D2(CoalesceWhen::Never),
            Leaf::D2(CoalesceWhen::Always),
            Leaf::D2(CoalesceWhen::Deferred),
        ],
        TreeId::E1SplitMinSizes => vec![
            Leaf::E1(SplitMinSizes::Unrestricted),
            Leaf::E1(SplitMinSizes::Floored),
        ],
        TreeId::E2SplitWhen => vec![
            Leaf::E2(SplitWhen::Never),
            Leaf::E2(SplitWhen::Always),
            Leaf::E2(SplitWhen::Threshold),
        ],
    };
    let admissible = admissible_leaves(tree, partial);
    prefs
        .into_iter()
        .chain(admissible.iter().copied())
        .find(|l| admissible.contains(l))
        .ok_or_else(|| Error::EmptySearchSpace(format!("no admissible leaf for {}", tree.code())))
}

/// One point of the footprint/performance trade-off curve.
#[derive(Debug, Clone)]
pub struct TradeoffPoint {
    /// Step weight that produced this design.
    pub step_weight: f64,
    /// The designed configuration.
    pub config: DmConfig,
    /// Peak footprint on the input trace.
    pub peak_footprint: usize,
    /// Search steps on the input trace.
    pub search_steps: u64,
}

/// Sweep the weighted objective over `step_weights` and return the
/// resulting designs — the paper's closing "trade-offs … are possible"
/// remark as a concrete Pareto sweep.
///
/// # Errors
///
/// Propagates exploration failures.
pub fn tradeoff_curve(trace: &Trace, step_weights: &[f64]) -> Result<Vec<TradeoffPoint>> {
    tradeoff_curve_with(trace, step_weights, &ExplorationEngine::serial())
}

/// Like [`tradeoff_curve`], evaluating through a caller-provided
/// [`ExplorationEngine`]. The sweep points all replay the same trace, so
/// the shared cache deduplicates every configuration that more than one
/// weight re-derives.
///
/// # Errors
///
/// Propagates exploration failures.
pub fn tradeoff_curve_with(
    trace: &Trace,
    step_weights: &[f64],
    engine: &ExplorationEngine,
) -> Result<Vec<TradeoffPoint>> {
    let mut points = Vec::with_capacity(step_weights.len());
    for &w in step_weights {
        let outcome = Methodology::new()
            .with_objective(if w == 0.0 {
                Objective::Footprint
            } else {
                Objective::Weighted { step_weight: w }
            })
            .with_name(format!("custom (step weight {w})"))
            .explore_with_engine(trace, engine)?;
        points.push(TradeoffPoint {
            step_weight: w,
            config: outcome.config,
            peak_footprint: outcome.footprint.peak_footprint,
            search_steps: outcome.footprint.stats.search_steps,
        });
    }
    Ok(points)
}

/// Exhaustively evaluate (a bounded prefix of) the pruned space.
///
/// Returns the best configuration, its peak footprint, and the number of
/// configurations evaluated. Used to measure the greedy/optimal gap.
///
/// # Errors
///
/// Propagates replay errors; errors if the space yields nothing.
pub fn exhaustive_best(
    trace: &Trace,
    params: Params,
    limit: Option<usize>,
) -> Result<(DmConfig, usize, usize)> {
    let iter =
        crate::space::enumerate::SpaceIter::with_order_and_params(TRAVERSAL_ORDER.to_vec(), params);
    let mut best: Option<(DmConfig, usize)> = None;
    let mut evaluated = 0usize;
    for cfg in iter.take(limit.unwrap_or(usize::MAX)) {
        let mut mgr = PolicyAllocator::new(cfg.clone())?;
        let fs = replay(trace, &mut mgr)?;
        evaluated += 1;
        if best.as_ref().is_none_or(|(_, b)| fs.peak_footprint < *b) {
            best = Some((cfg, fs.peak_footprint));
        }
    }
    let (cfg, peak) =
        best.ok_or_else(|| Error::EmptySearchSpace("no configuration enumerated".into()))?;
    Ok((cfg, peak, evaluated))
}

/// Like [`exhaustive_best`], but evaluating through an
/// [`ExplorationEngine`] with **both static prunes** switched on — a
/// branch-and-bound sweep of the space:
///
/// - candidates carrying a prune-safe diagnostic
///   ([`crate::analyze::prune_reason`]) are skipped without a replay and
///   counted in [`EngineCounters::statically_pruned`];
/// - candidates whose admissible footprint floor
///   ([`crate::analyze::lower_bound_peak`]) already loses to the incumbent
///   are skipped without a replay *or a cache lookup* and counted in
///   [`EngineCounters::bound_pruned`]. Candidates are visited
///   **best-first** (ascending bound, enumeration order as tie-break) so
///   the incumbent tightens as early as possible.
///
/// The returned winner is bit-identical to [`exhaustive_best`] over the
/// same prefix of the space: prune-safe lints only fire for candidates
/// whose replay is byte-for-byte that of an **earlier-enumerated**
/// sibling; the bound prune only skips candidates that are provably worse
/// than the incumbent (or tie it with a later enumeration index), neither
/// of which the first-seen strict-minimum fold would have kept; and the
/// incumbent replacement rule reproduces that fold's tie-break exactly.
/// Replays stop as soon as the candidate's running peak passes the
/// incumbent (see [`ExplorationEngine::evaluate_bounded`]), which is
/// exactly the point from which the fold could no longer keep it.
/// The returned evaluation count is the number of candidates actually
/// evaluated (replays, cut ones included, + journal hits + projection
/// hits), i.e. enumerated minus pruned, read from the engine's counters
/// across the sweep — so the engine must not run another sweep at the
/// same time.
///
/// Engines with [`ExplorationEngine::with_projection`] additionally
/// collapse behaviorally-identical candidates to one replay per
/// [`cache::ProjectedKey`] equivalence class, preserving the
/// bit-identical-winner guarantee; without it the sweep never touches the
/// engine's cache (see [`ExplorationEngine::evaluate_bounded`]).
///
/// The sweep analyses each distinct behaviour once. It enumerates the
/// space as bare leaf tuples (points), not as named configurations; it
/// ranks them with one bound per (A1, A2, tag bytes, B1, B4) key, the
/// memoised ranking [`crate::analyze::rank_by_bound`] uses too; and it
/// writes each candidate's leaves and its [`SpaceIter`] name
/// (`space-point-N`) into one reused configuration before handing it to
/// [`ExplorationEngine::evaluate_bounded`]. Every count, name and winner
/// is that of the same call on each [`SpaceIter`] configuration in
/// [`crate::analyze::rank_by_bound`] order.
///
/// [`SpaceIter`]: crate::space::enumerate::SpaceIter
///
/// # Errors
///
/// Propagates replay errors; errors if the space yields nothing.
pub fn exhaustive_best_with_engine(
    trace: &Trace,
    params: Params,
    limit: Option<usize>,
    engine: &ExplorationEngine,
) -> Result<(DmConfig, usize, usize)> {
    use std::fmt::Write as _;

    let mut space = crate::space::enumerate::SpaceIter::with_order_and_params(
        TRAVERSAL_ORDER.to_vec(),
        params.clone(),
    );
    let points: Vec<PartialConfig> = std::iter::from_fn(|| space.next_point())
        .take(limit.unwrap_or(usize::MAX))
        .collect();
    let Some(first) = points.first() else {
        return Err(Error::EmptySearchSpace(
            "no configuration enumerated".into(),
        ));
    };
    // The one configuration every candidate is written into, named as
    // `SpaceIter` names it.
    let mut cfg = first.clone().freeze(String::new(), params)?;
    let assign = |cfg: &mut DmConfig, order: usize| {
        points[order].assign_to(cfg);
        cfg.name.clear();
        write!(cfg.name, "space-point-{}", order + 1).expect("writing to a String cannot fail");
    };
    let facts = crate::analyze::TraceFacts::of(trace);
    let mut bounds = crate::analyze::bounds::BoundMemo::new(&facts);
    let ranked = crate::analyze::bounds::rank_bounds(points.iter().map(|point| {
        point.assign_to(&mut cfg);
        bounds.bound(&cfg)
    }));
    let key = cache::TraceKey::of(trace);
    // Incumbent = the candidate the plain first-seen-minimum fold over
    // enumeration order would currently hold: smallest peak, earliest
    // enumeration index among peak ties.
    let mut best: Option<(usize, usize)> = None; // (peak, enum index)
    let before = engine.counters();
    for &(order, bound) in &ranked {
        let incumbent = best.map(|(peak, o)| engine::Incumbent { peak, order: o });
        assign(&mut cfg, order);
        let Some(eval) = engine.evaluate_bounded(trace, key, &cfg, bound, order, incumbent)? else {
            continue;
        };
        let peak = eval.stats.peak_footprint;
        if best.is_none_or(|(bp, bo)| peak < bp || (peak == bp && order < bo)) {
            best = Some((peak, order));
        }
    }
    let after = engine.counters();
    let evaluated =
        (after.evaluations - before.evaluations) + (after.projection_hits - before.projection_hits);
    let (peak, order) =
        best.ok_or_else(|| Error::EmptySearchSpace("no configuration enumerated".into()))?;
    assign(&mut cfg, order);
    Ok((cfg, peak, evaluated))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::presets;

    /// Variable-size trace with interleaved lifetimes — the fragmenting
    /// behaviour the DRR case study exhibits.
    fn fragmenting_trace() -> Trace {
        let mut b = Trace::builder();
        let mut x: u64 = 0x9E3779B97F4A7C15;
        let mut live: Vec<u64> = Vec::new();
        for _ in 0..600 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            if live.is_empty() || x % 5 < 3 {
                let size = 24 + (x % 1450) as usize;
                live.push(b.alloc(size));
            } else {
                let idx = (x as usize / 11) % live.len();
                b.free(live.swap_remove(idx));
            }
        }
        for id in live {
            b.free(id);
        }
        b.finish().unwrap()
    }

    /// Two-phase trace: uniform stack-like phase 0, fragmenting phase 1.
    fn phased_trace() -> Trace {
        let mut b = Trace::builder();
        b.phase(0);
        let ids: Vec<u64> = (0..64).map(|_| b.alloc(64)).collect();
        for id in ids.into_iter().rev() {
            b.free(id);
        }
        b.phase(1);
        let mut x: u64 = 7;
        let mut live = Vec::new();
        for _ in 0..128 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            if live.is_empty() || !x.is_multiple_of(3) {
                live.push(b.alloc(256 + (x % 2048) as usize));
            } else {
                let i = (x as usize) % live.len();
                b.free(live.swap_remove(i));
            }
        }
        for id in live {
            b.free(id);
        }
        b.finish().unwrap()
    }

    #[test]
    fn explore_produces_valid_config_and_full_log() {
        let t = fragmenting_trace();
        let outcome = Methodology::new().explore(&t).unwrap();
        outcome.config.validate().unwrap();
        assert_eq!(outcome.decisions.len(), 12);
        assert!(outcome.counters.evaluations >= 12);
        // Decisions come in the paper's order.
        let order: Vec<TreeId> = outcome.decisions.iter().map(|d| d.tree).collect();
        assert_eq!(order, TRAVERSAL_ORDER.to_vec());
        // Every decision's chosen leaf is the argmin of its candidates: its
        // exact score is the lowest exact one, and every candidate logged
        // as lost peaks above it.
        for d in &outcome.decisions {
            let (chosen, _) = d
                .candidates
                .iter()
                .find(|c| c.leaf == d.chosen)
                .and_then(CandidateEval::exact)
                .expect("the chosen leaf is scored exactly");
            for c in &d.candidates {
                match c.score {
                    CandidateScore::Exact { peak_footprint, .. } => {
                        assert_eq!(peak_footprint, chosen, "{:?}: an exact loser", d.tree)
                    }
                    CandidateScore::PeakAbove(best) => assert_eq!(best, chosen, "{:?}", d.tree),
                }
            }
        }
    }

    #[test]
    fn greedy_cuts_leave_floors_that_answer_a_repeated_design() {
        let t = fragmenting_trace();
        let engine = ExplorationEngine::serial();
        let first = Methodology::new().explore_with_engine(&t, &engine).unwrap();
        let cuts = engine.peak_cut();
        assert!(cuts > 0);
        // Every cut configuration's floor still exceeds its tree's cap, so
        // the repeat replays nothing, and logs the same decisions.
        let again = Methodology::new().explore_with_engine(&t, &engine).unwrap();
        assert_eq!(again.counters.replays, 0);
        assert_eq!(again.counters.cache_hits, again.counters.evaluations);
        assert_eq!(engine.peak_cut(), cuts);
        assert_eq!(again.decisions, first.decisions);
    }

    #[test]
    fn custom_beats_general_purpose_presets_on_fragmenting_trace() {
        let t = fragmenting_trace();
        let outcome = Methodology::new().explore(&t).unwrap();
        for preset in [presets::kingsley_like(), presets::lea_like()] {
            let name = preset.name.clone();
            let mut m = PolicyAllocator::new(preset).unwrap();
            let fs = replay(&t, &mut m).unwrap();
            assert!(
                outcome.footprint.peak_footprint <= fs.peak_footprint,
                "custom {} > {} {}",
                outcome.footprint.peak_footprint,
                name,
                fs.peak_footprint
            );
        }
    }

    #[test]
    fn paper_order_is_no_worse_than_myopic_a3_first() {
        use crate::space::order::A3_FIRST_ORDER;
        let t = fragmenting_trace();
        // Portfolio off: this test isolates the traversal *order* itself,
        // so the paper-order run must not get to adopt the A3-first
        // probe's design (which would make the comparison tautological).
        let good = Methodology::new()
            .with_portfolio(false)
            .explore(&t)
            .unwrap();
        let bad = Methodology::new()
            .with_order(&A3_FIRST_ORDER[..])
            .with_style(CompletionStyle::Myopic)
            .explore(&t)
            .unwrap();
        assert!(
            good.footprint.peak_footprint <= bad.footprint.peak_footprint,
            "paper order {} vs myopic A3-first {}",
            good.footprint.peak_footprint,
            bad.footprint.peak_footprint
        );
    }

    #[test]
    fn myopic_a3_first_locks_out_coalescing() {
        use crate::space::order::A3_FIRST_ORDER;
        let t = fragmenting_trace();
        let bad = Methodology::new()
            .with_order(&A3_FIRST_ORDER[..])
            .with_style(CompletionStyle::Myopic)
            .explore(&t)
            .unwrap();
        // The Figure 4 story: whatever A3 chose myopically constrains the
        // fragmentation trees. If None was chosen, split/coalesce are gone.
        if bad.config.block_tags == BlockTags::None {
            assert_eq!(bad.config.coalesce_when, CoalesceWhen::Never);
            assert_eq!(bad.config.split_when, SplitWhen::Never);
        }
    }

    #[test]
    fn explore_rejects_empty_trace() {
        let t = Trace::from_events(vec![]).unwrap();
        assert!(Methodology::new().explore(&t).is_err());
    }

    #[test]
    fn phased_exploration_composes_a_global_manager() {
        let t = phased_trace();
        let phased = Methodology::new().explore_phases(&t).unwrap();
        assert_eq!(phased.phase_configs.len(), 2);
        assert_eq!(phased.per_phase.len(), 2);
        // The composition serves the full trace.
        assert_eq!(phased.footprint.stats.allocs as usize, t.alloc_count());
    }

    #[test]
    fn parallel_exploration_is_bit_identical_to_serial() {
        let t = fragmenting_trace();
        let serial = Methodology::new().explore(&t).unwrap();
        let parallel = Methodology::new()
            .explore_with_engine(&t, &ExplorationEngine::new(4))
            .unwrap();
        assert_eq!(serial.config.summary(), parallel.config.summary());
        assert_eq!(
            serial.footprint.peak_footprint,
            parallel.footprint.peak_footprint
        );
        assert_eq!(serial.footprint, parallel.footprint);
        assert_eq!(serial.decisions, parallel.decisions);
        assert_eq!(serial.counters.evaluations, parallel.counters.evaluations);
    }

    #[test]
    fn parallel_phased_exploration_is_bit_identical_to_serial() {
        let t = phased_trace();
        let serial = Methodology::new().explore_phases(&t).unwrap();
        let parallel = Methodology::new()
            .explore_phases_with_engine(&t, &ExplorationEngine::new(4))
            .unwrap();
        assert_eq!(serial.phase_configs.len(), parallel.phase_configs.len());
        for ((sp, sc), (pp, pc)) in serial.phase_configs.iter().zip(&parallel.phase_configs) {
            assert_eq!(sp, pp);
            assert_eq!(sc.summary(), pc.summary());
        }
        assert_eq!(
            serial.footprint.peak_footprint,
            parallel.footprint.peak_footprint
        );
        for ((_, so), (_, po)) in serial.per_phase.iter().zip(&parallel.per_phase) {
            assert_eq!(so.decisions, po.decisions);
        }
        // The aggregated counters partition identically: every evaluation
        // is either a replay or a cache hit, and the total is job-count
        // independent.
        let (sc, pc) = (serial.counters(), parallel.counters());
        assert_eq!(sc.evaluations, pc.evaluations);
        assert_eq!(sc.replays + sc.cache_hits, sc.evaluations);
        assert_eq!(pc.replays + pc.cache_hits, pc.evaluations);
    }

    #[test]
    fn portfolio_run_reports_cache_hits() {
        let t = fragmenting_trace();
        let outcome = Methodology::new().explore(&t).unwrap();
        assert_eq!(
            outcome.counters.replays + outcome.counters.cache_hits,
            outcome.counters.evaluations,
            "counters must partition the evaluations"
        );
        assert!(
            outcome.counters.cache_hits > 0,
            "duplicate completions must hit the cache"
        );
        assert!(
            outcome.counters.replays < outcome.counters.evaluations,
            "fewer unique replays than total evaluations"
        );
    }

    #[test]
    fn shared_engine_deduplicates_repeated_designs() {
        let t = fragmenting_trace();
        let engine = ExplorationEngine::serial();
        let first = Methodology::new().explore_with_engine(&t, &engine).unwrap();
        let second = Methodology::new().explore_with_engine(&t, &engine).unwrap();
        assert_eq!(first.config.summary(), second.config.summary());
        assert_eq!(first.footprint, second.footprint);
        assert_eq!(
            second.counters.replays, 0,
            "a repeated design is fully cached"
        );
        assert_eq!(second.counters.cache_hits, second.counters.evaluations);
    }

    #[test]
    fn outcome_counters_equal_the_engines() {
        // An outcome tallies its evaluations from their `cache_hit` flags;
        // the engine counts the same events on its own.
        let t = phased_trace();
        let engine = ExplorationEngine::serial();
        let outcome = Methodology::new().explore_with_engine(&t, &engine).unwrap();
        assert_eq!(outcome.counters, engine.counters());

        let engine = ExplorationEngine::serial();
        let phased = Methodology::new()
            .explore_phases_with_engine(&t, &engine)
            .unwrap();
        assert_eq!(phased.counters(), engine.counters());

        let engine = ExplorationEngine::serial();
        let sharded = Methodology::new()
            .explore_sharded_with_engine(&windowed_trace(3, 100), 3, &engine)
            .unwrap();
        assert_eq!(sharded.counters, engine.counters());
    }

    #[test]
    fn tradeoff_sweep_moves_along_the_pareto_front() {
        let t = fragmenting_trace();
        let points = tradeoff_curve(&t, &[0.0, 1000.0]).unwrap();
        assert_eq!(points.len(), 2);
        let (mem_opt, perf_opt) = (&points[0], &points[1]);
        // The performance-weighted design must not be slower, and the
        // footprint-optimal design must not be bigger.
        assert!(
            perf_opt.search_steps <= mem_opt.search_steps,
            "weighted design slower: {} vs {}",
            perf_opt.search_steps,
            mem_opt.search_steps
        );
        assert!(
            mem_opt.peak_footprint <= perf_opt.peak_footprint,
            "footprint design bigger: {} vs {}",
            mem_opt.peak_footprint,
            perf_opt.peak_footprint
        );
        for p in &points {
            p.config.validate().unwrap();
        }
    }

    #[test]
    fn weighted_objective_with_zero_weight_equals_default() {
        let t = fragmenting_trace();
        let a = Methodology::new().explore(&t).unwrap();
        let b = Methodology::new()
            .with_objective(Objective::Weighted { step_weight: 0.0 })
            .explore(&t)
            .unwrap();
        assert_eq!(a.config.summary(), b.config.summary());
    }

    /// Homogeneous churn trace with lifetime-closed window boundaries:
    /// every window repeats the same statistical behaviour.
    fn windowed_trace(windows: usize, per_window: usize) -> Trace {
        let mut b = Trace::builder();
        let mut x: u64 = 0x9E3779B97F4A7C15;
        for _ in 0..windows {
            let mut live: Vec<u64> = Vec::new();
            for _ in 0..per_window {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                if live.is_empty() || x % 5 < 3 {
                    live.push(b.alloc(24 + (x % 1450) as usize));
                } else {
                    let idx = (x as usize / 11) % live.len();
                    b.free(live.swap_remove(idx));
                }
            }
            for id in live {
                b.free(id);
            }
        }
        b.finish().unwrap()
    }

    #[test]
    fn sharded_exploration_agrees_with_whole_trace_within_tolerance() {
        let t = windowed_trace(3, 150);
        let whole = Methodology::new().explore(&t).unwrap();
        let sharded = Methodology::new().explore_sharded(&t, 3).unwrap();
        assert_eq!(sharded.shard_count, 3);
        sharded.config.validate().unwrap();
        // The merged design replays the whole trace within the documented
        // tolerance of the whole-trace design.
        let mut m = PolicyAllocator::new(sharded.config.clone()).unwrap();
        let merged_on_whole = replay(&t, &mut m).unwrap();
        let bound =
            (whole.footprint.peak_footprint as f64 * (1.0 + SHARD_MERGE_TOLERANCE)) as usize;
        assert!(
            merged_on_whole.peak_footprint <= bound,
            "merged {} vs whole {} exceeds tolerance",
            merged_on_whole.peak_footprint,
            whole.footprint.peak_footprint
        );
        // Homogeneous windows: the shards should largely agree with the
        // whole-trace design tree for tree.
        let agreeing = TreeId::ALL
            .iter()
            .filter(|&&tr| sharded.config.leaf(tr) == whole.config.leaf(tr))
            .count();
        assert!(agreeing >= 9, "only {agreeing}/12 trees agree");
    }

    #[test]
    fn sharded_outcome_accounting_is_consistent() {
        let t = windowed_trace(3, 120);
        let sharded = Methodology::new().explore_sharded(&t, 3).unwrap();
        assert_eq!(
            sharded.counters.replays + sharded.counters.cache_hits,
            sharded.counters.evaluations,
            "counters must partition the evaluations"
        );
        assert_eq!(sharded.merges.len(), 12, "one merge entry per tree");
        assert_eq!(sharded.footprint.events, t.len());
        assert_eq!(sharded.footprint.stats.allocs as usize, t.alloc_count());
        assert_eq!(sharded.max_carried_bytes, 0, "drained windows are closed");
        assert!(
            sharded.peak_resident_trace_bytes < t.resident_bytes(),
            "composed replay must never hold the whole trace"
        );
        // Closed shards preserve the demand peak exactly.
        assert_eq!(sharded.footprint.peak_requested, t.peak_live_requested());
        for d in &sharded.merges {
            assert!(
                d.votes.iter().any(|v| v.leaf == d.chosen) || d.votes.is_empty(),
                "{:?}: winner must come from the votes when any were cast",
                d.tree
            );
        }
    }

    #[test]
    fn sharded_exploration_is_phase_aligned_on_phased_traces() {
        let t = phased_trace();
        let sharded = Methodology::new().explore_sharded(&t, 7).unwrap();
        assert_eq!(sharded.shard_count, 2, "phase boundaries win over --shards");
        let phases: Vec<Option<u32>> = sharded.per_shard.iter().map(|s| s.phase).collect();
        assert_eq!(phases, vec![Some(0), Some(1)]);
    }

    #[test]
    fn shard_stream_matches_materialised_sharding() {
        let t = windowed_trace(3, 100);
        let engine_a = ExplorationEngine::serial();
        let a = Methodology::new()
            .explore_sharded_with_engine(&t, 3, &engine_a)
            .unwrap();
        let engine_b = ExplorationEngine::serial();
        let b = Methodology::new()
            .explore_shard_stream(|| crate::trace::shard_trace(&t, 3), &engine_b)
            .unwrap();
        assert_eq!(a.config.summary(), b.config.summary());
        assert_eq!(a.footprint.peak_footprint, b.footprint.peak_footprint);
        assert_eq!(a.shard_count, b.shard_count);
        assert_eq!(a.merges, b.merges);
        assert_eq!(a.counters.evaluations, b.counters.evaluations);
    }

    #[test]
    fn shard_stream_releases_compiled_shards_as_it_goes() {
        // The streaming path's contract is trace memory bounded by the
        // largest shard; the engine's compiled-trace table must not
        // quietly retain an O(shard) compiled copy per explored shard.
        let t = windowed_trace(3, 100);
        let engine = ExplorationEngine::serial();
        let _ = Methodology::new()
            .explore_shard_stream(|| crate::trace::shard_trace(&t, 3), &engine)
            .unwrap();
        assert_eq!(
            engine.compiled_traces(),
            0,
            "every shard's compilation must be released with the shard"
        );
    }

    #[test]
    fn parallel_sharded_exploration_is_bit_identical_to_serial() {
        let t = windowed_trace(2, 120);
        let serial = Methodology::new().explore_sharded(&t, 2).unwrap();
        let parallel = Methodology::new()
            .explore_sharded_with_engine(&t, 2, &ExplorationEngine::new(4))
            .unwrap();
        assert_eq!(serial.config.summary(), parallel.config.summary());
        assert_eq!(serial.merges, parallel.merges);
        assert_eq!(
            serial.footprint.peak_footprint,
            parallel.footprint.peak_footprint
        );
        assert_eq!(serial.counters.evaluations, parallel.counters.evaluations);
    }

    #[test]
    fn sharded_exploration_rejects_empty_traces() {
        let t = Trace::from_events(vec![]).unwrap();
        assert!(Methodology::new().explore_sharded(&t, 4).is_err());
        let engine = ExplorationEngine::serial();
        assert!(Methodology::new()
            .explore_shard_stream(|| Vec::new().into_iter(), &engine)
            .is_err());
    }

    #[test]
    fn nan_objective_weight_does_not_panic_mid_sweep() {
        let obj = Objective::Weighted {
            step_weight: f64::NAN,
        };
        // Incomparable scores rank equal and fall to the step tie-break.
        assert_eq!(obj.cmp_raw((10, 5), (20, 5)), std::cmp::Ordering::Equal);
        assert_eq!(obj.cmp_raw((20, 4), (10, 5)), std::cmp::Ordering::Less);
        let t = fragmenting_trace();
        let out = Methodology::new().with_objective(obj).explore(&t);
        assert!(out.is_ok(), "{out:?}");
    }

    #[test]
    fn transient_shard_death_is_retried_to_success() {
        let t = windowed_trace(3, 100);
        let clean = Methodology::new().explore_sharded(&t, 3).unwrap();
        let engine = ExplorationEngine::serial()
            .with_fault_plan(crate::fault::FaultPlan::new().kill_shard_transiently(1, 2));
        let out = Methodology::new()
            .explore_sharded_with_engine(&t, 3, &engine)
            .unwrap();
        assert_eq!(out.shard_retries, 2, "two failed attempts consumed");
        assert!(out.failed_shards.is_empty());
        assert_eq!(out.confidence, 1.0);
        assert_eq!(out.config.summary(), clean.config.summary());
        assert_eq!(
            out.footprint.peak_footprint, clean.footprint.peak_footprint,
            "a retried run must be bit-identical to a fault-free one"
        );
    }

    #[test]
    fn fatal_shard_is_a_structured_error_under_fail_policy() {
        let t = windowed_trace(3, 100);
        let engine = ExplorationEngine::serial()
            .with_fault_plan(crate::fault::FaultPlan::new().kill_shard(1));
        let e = Methodology::new()
            .explore_sharded_with_engine(&t, 3, &engine)
            .unwrap_err();
        match e {
            Error::ShardFailed {
                shard,
                attempts,
                cause,
            } => {
                assert_eq!(shard, 1);
                assert_eq!(attempts, SHARD_RETRY_ATTEMPTS);
                assert!(matches!(*cause, Error::WorkerDied { .. }), "{cause:?}");
            }
            other => panic!("expected ShardFailed, got {other:?}"),
        }
    }

    #[test]
    fn fatal_shard_degrades_explicitly_under_degrade_policy() {
        let t = windowed_trace(3, 100);
        let engine = ExplorationEngine::serial()
            .with_fault_plan(crate::fault::FaultPlan::new().kill_shard(1));
        let out = Methodology::new()
            .with_shard_failure_policy(ShardFailurePolicy::Degrade)
            .explore_sharded_with_engine(&t, 3, &engine)
            .unwrap();
        assert_eq!(out.shard_count, 2, "two of three shards completed");
        assert_eq!(out.failed_shards.len(), 1);
        let failed = &out.failed_shards[0];
        assert_eq!(failed.index, 1);
        assert_eq!(failed.attempts, SHARD_RETRY_ATTEMPTS);
        assert!(matches!(failed.error, Error::ShardFailed { .. }));
        assert!(
            out.confidence > 0.0 && out.confidence < 1.0,
            "degraded confidence must expose the missing weight, got {}",
            out.confidence
        );
        out.config.validate().unwrap();
        // The composition covered only the completed shards.
        assert!(out.footprint.events < t.len());
    }

    #[test]
    fn degrade_with_no_surviving_shard_is_still_an_error() {
        let t = windowed_trace(2, 80);
        let engine = ExplorationEngine::serial()
            .with_fault_plan(crate::fault::FaultPlan::new().kill_shard(0).kill_shard(1));
        let e = Methodology::new()
            .with_shard_failure_policy(ShardFailurePolicy::Degrade)
            .explore_sharded_with_engine(&t, 2, &engine)
            .unwrap_err();
        assert!(matches!(e, Error::EmptySearchSpace(_)), "{e:?}");
    }

    #[test]
    fn shard_stream_applies_the_same_retry_and_degrade_policy() {
        let t = windowed_trace(3, 100);
        let engine = ExplorationEngine::serial()
            .with_fault_plan(crate::fault::FaultPlan::new().kill_shard_transiently(0, 1));
        let out = Methodology::new()
            .explore_shard_stream(|| crate::trace::shard_trace(&t, 3), &engine)
            .unwrap();
        assert_eq!(out.shard_retries, 1);
        assert_eq!(out.confidence, 1.0);
        let engine = ExplorationEngine::serial()
            .with_fault_plan(crate::fault::FaultPlan::new().kill_shard(2));
        let out = Methodology::new()
            .with_shard_failure_policy(ShardFailurePolicy::Degrade)
            .explore_shard_stream(|| crate::trace::shard_trace(&t, 3), &engine)
            .unwrap();
        assert_eq!(out.shard_count, 2);
        assert_eq!(out.failed_shards.len(), 1);
        assert!(out.confidence < 1.0);
    }

    #[test]
    fn exhaustive_prefix_is_no_better_than_its_own_members() {
        let t = fragmenting_trace();
        let params = Methodology::new().seed_params(&Profile::of(&t));
        let (cfg, peak, n) = exhaustive_best(&t, params, Some(50)).unwrap();
        assert_eq!(n, 50);
        cfg.validate().unwrap();
        let mut m = PolicyAllocator::new(cfg).unwrap();
        let fs = replay(&t, &mut m).unwrap();
        assert_eq!(fs.peak_footprint, peak);
    }

    #[test]
    fn projected_batched_sweep_matches_the_plain_engine_bit_for_bit() {
        // Projection on against projection off: same winner, same peak,
        // an exact partition, and never more replays.
        let t = fragmenting_trace();
        let params = Methodology::new().seed_params(&Profile::of(&t));
        let limit = Some(150);

        let plain = ExplorationEngine::serial();
        let (want_cfg, want_peak, _) =
            exhaustive_best_with_engine(&t, params.clone(), limit, &plain).unwrap();

        let projected = ExplorationEngine::serial().with_projection(true);
        let (got_cfg, got_peak, evaluated) =
            exhaustive_best_with_engine(&t, params, limit, &projected).unwrap();

        assert_eq!(got_cfg.fingerprint(), want_cfg.fingerprint());
        assert_eq!(got_peak, want_peak);
        let c = projected.counters();
        assert_eq!(
            evaluated,
            c.evaluations + c.projection_hits,
            "the returned count is every non-pruned candidate"
        );
        assert_eq!(c.candidates(), 150, "sweep partition invariant");
        assert!(
            c.replays <= plain.counters().replays,
            "projection hits must come out of the replay budget"
        );
    }

    #[test]
    fn sweeps_count_projection_hits_and_greedy_counts_cache_hits() {
        let t = fragmenting_trace();
        let params = Methodology::new().seed_params(&Profile::of(&t));
        for projection in [false, true] {
            let engine = ExplorationEngine::serial().with_projection(projection);
            exhaustive_best_with_engine(&t, params.clone(), Some(150), &engine).unwrap();
            let c = engine.counters();
            assert_eq!(c.cache_hits, 0, "projection {projection}");
            assert_eq!(
                !engine.cache().is_empty(),
                projection,
                "only a projected sweep reads and writes the cache"
            );
            // A greedy exploration on the same engine goes through the
            // cache either way, and counts its hits as cache hits.
            let outcome = Methodology::new().explore_with_engine(&t, &engine).unwrap();
            assert!(
                outcome.counters.cache_hits > 0,
                "greedy completions must hit the cache (projection {projection})"
            );
            assert_eq!(outcome.counters.projection_hits, 0);
            assert_eq!(
                engine.counters().projection_hits,
                c.projection_hits,
                "projection {projection}"
            );
        }
    }
}
