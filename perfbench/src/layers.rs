//! The metric catalogue and the result a workload run produces.
//!
//! Every workload reports every metric: end-to-end metrics with tracing
//! off, per-layer metrics with tracing on. A per-layer metric a workload
//! does not exercise reads 0.

use std::collections::BTreeMap;

use dmm_core::methodology::EngineCounters;
use dmm_core::space::trees::{BlockSizes, BlockStructure, CoalesceWhen, FitAlgorithm};
use dmm_core::space::{DmConfig, Leaf, TreeId};

/// End-to-end metrics: (name, unit).
pub fn end_to_end() -> Vec<(&'static str, &'static str)> {
    vec![
        ("pass_cpu_s", "s"),
        ("setup_s", "s"),
        ("peak_footprint_bytes", "B"),
        ("peak_rss_mb", "MiB"),
    ]
}

const LAYER_METRICS: &[(&str, &str)] = &[
    ("workloads.record_s", "s"),
    ("workloads.events", "count"),
    ("store.decode_s", "s"),
    ("trace.compile_s", "s"),
    ("trace.replay_ms_p50", "ms"),
    ("trace.replay_ms_p99", "ms"),
    ("trace.replay_ms_max", "ms"),
    ("trace.replay_ns_per_event", "ns"),
    ("trace.top10_time_frac", "ratio"),
    ("space.enumerate_s", "s"),
    ("space.enumerated", "count"),
    ("analyze.facts_s", "s"),
    ("analyze.rank_s", "s"),
    ("analyze.lint_s", "s"),
    ("analyze.statically_pruned", "count"),
    ("analyze.bound_pruned", "count"),
    ("cache.projection_key_s", "s"),
    ("cache.projection_hits", "count"),
    ("cache.structural_hits", "count"),
    ("cache.hit_ratio", "ratio"),
    ("engine.evaluations", "count"),
    ("engine.replays", "count"),
    ("engine.replay_frac", "ratio"),
    ("engine.replay_busy_s", "s"),
    ("engine.skip_us_p50", "us"),
    ("engine.driver_s", "s"),
    ("engine.quarantined", "count"),
    ("engine.budget_exceeded", "count"),
    ("greedy.design_s", "s"),
    ("greedy.evaluations", "count"),
    ("greedy.replays", "count"),
    ("manager.construct_us", "us"),
    ("manager.search_steps", "count"),
    ("manager.steps_per_us", "1/us"),
    ("manager.splits", "count"),
    ("manager.coalesces", "count"),
    ("manager.sbrk_calls", "count"),
    ("baselines.replay_s", "s"),
    ("seeded.pass_s", "s"),
    ("run.failed_frac", "ratio"),
    ("run.pass_wall_s", "s"),
    ("tracing.overhead_s", "s"),
    ("tracing.overhead_frac", "ratio"),
];

/// The trees whose arms get a cost row.
pub const ARM_TREES: [TreeId; 4] = [
    TreeId::A1BlockStructure,
    TreeId::A2BlockSizes,
    TreeId::C1FitAlgorithm,
    TreeId::D2CoalesceWhen,
];

const ARM_METRICS: [(&str, &str); 3] = [
    ("replay_ms_mean", "ms"),
    ("replay_ms_p99", "ms"),
    ("steps_per_us", "1/us"),
];

/// Per-layer metrics: (name, unit).
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut v: Vec<(String, &'static str)> = LAYER_METRICS
        .iter()
        .map(|&(n, u)| (n.to_string(), u))
        .collect();
    for tree in ARM_TREES {
        for leaf in tree.leaves() {
            for (m, unit) in ARM_METRICS {
                v.push((arm_metric(leaf, m), unit));
            }
        }
    }
    v
}

pub fn arm_metric(leaf: Leaf, metric: &str) -> String {
    format!("arm.{}.{}.{metric}", leaf.tree().code(), leaf_slug(leaf))
}

fn leaf_slug(leaf: Leaf) -> &'static str {
    match leaf {
        Leaf::A1(BlockStructure::SinglyLinkedList) => "singly_linked",
        Leaf::A1(BlockStructure::DoublyLinkedList) => "doubly_linked",
        Leaf::A1(BlockStructure::AddressOrderedList) => "address_ordered",
        Leaf::A1(BlockStructure::SizeOrderedTree) => "size_tree",
        Leaf::A2(BlockSizes::Many) => "many",
        Leaf::A2(BlockSizes::PowerOfTwoClasses) => "pow2_classes",
        Leaf::A2(BlockSizes::ProfiledClasses) => "profiled_classes",
        Leaf::C1(FitAlgorithm::FirstFit) => "first_fit",
        Leaf::C1(FitAlgorithm::NextFit) => "next_fit",
        Leaf::C1(FitAlgorithm::BestFit) => "best_fit",
        Leaf::C1(FitAlgorithm::WorstFit) => "worst_fit",
        Leaf::C1(FitAlgorithm::ExactFit) => "exact_fit",
        Leaf::D2(CoalesceWhen::Never) => "never",
        Leaf::D2(CoalesceWhen::Always) => "always",
        Leaf::D2(CoalesceWhen::Deferred) => "deferred",
        _ => "other",
    }
}

/// One replay of a policy manager, kept for the per-arm cost table.
#[derive(Debug, Clone, Copy)]
pub struct ArmSample {
    pub leaves: [Leaf; 4],
    pub secs: f64,
    pub steps: u64,
}

impl ArmSample {
    pub fn of(cfg: &DmConfig, secs: f64, steps: u64) -> Self {
        ArmSample {
            leaves: ARM_TREES.map(|t| cfg.leaf(t)),
            secs,
            steps,
        }
    }
}

/// The result of one workload run.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// Wall-clock of every timed pass, s.
    pub passes: Vec<f64>,
    /// Wrong outputs found by the checks; any entry fails the run.
    pub problems: Vec<String>,
    e2e: BTreeMap<&'static str, f64>,
    layer: BTreeMap<String, f64>,
}

impl Report {
    pub fn correct(&self) -> bool {
        self.problems.is_empty()
    }

    /// Record a wrong output unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(what());
        }
    }

    /// Every end-to-end metric must have been measured.
    pub fn require_end_to_end(&mut self) {
        for (name, _) in end_to_end() {
            if !self.e2e.get(name).is_some_and(|v| v.is_finite()) {
                self.problems
                    .push(format!("end-to-end metric {name} was not measured"));
            }
        }
    }

    pub fn e2e(&mut self, name: &'static str, value: f64) {
        debug_assert!(end_to_end().iter().any(|(n, _)| *n == name), "{name}");
        self.e2e.insert(name, value);
    }

    pub fn layer(&mut self, name: &str, value: f64) {
        self.layer.insert(name.to_string(), value);
    }

    /// Fill the per-arm rows from replay samples.
    pub fn arms(&mut self, samples: &[ArmSample]) {
        for (i, tree) in ARM_TREES.iter().enumerate() {
            for leaf in tree.leaves() {
                let mine: Vec<&ArmSample> =
                    samples.iter().filter(|s| s.leaves[i] == leaf).collect();
                let ms: Vec<f64> = mine.iter().map(|s| s.secs * 1e3).collect();
                let steps: u64 = mine.iter().map(|s| s.steps).sum();
                let us: f64 = mine.iter().map(|s| s.secs * 1e6).sum();
                self.layer(&arm_metric(leaf, "replay_ms_mean"), crate::stats::mean(&ms));
                self.layer(
                    &arm_metric(leaf, "replay_ms_p99"),
                    crate::stats::quantile(&ms, 0.99),
                );
                self.layer(
                    &arm_metric(leaf, "steps_per_us"),
                    crate::stats::ratio(steps as f64, us),
                );
            }
        }
    }

    /// Fill the replay-latency rows from per-replay seconds and events.
    pub fn replays(&mut self, secs: &[f64], events: u64) {
        let ms: Vec<f64> = secs.iter().map(|s| s * 1e3).collect();
        self.layer("trace.replay_ms_p50", crate::stats::median(&ms));
        self.layer("trace.replay_ms_p99", crate::stats::quantile(&ms, 0.99));
        self.layer("trace.replay_ms_max", crate::stats::max(&ms));
        self.layer(
            "trace.replay_ns_per_event",
            crate::stats::ratio(secs.iter().sum::<f64>() * 1e9, events as f64),
        );
        self.layer(
            "trace.top10_time_frac",
            crate::stats::top_decile_share(secs),
        );
    }

    /// The final result line.
    pub fn to_json(&self, trace: bool) -> String {
        let mut metrics = Vec::new();
        if trace {
            for (name, unit) in per_layer() {
                let v = self.layer.get(&name).copied().unwrap_or(0.0);
                metrics.push((name, v, unit));
            }
        } else {
            for (name, unit) in end_to_end() {
                let v = self.e2e.get(name).copied().unwrap_or(f64::NAN);
                metrics.push((name.to_string(), v, unit));
            }
        }
        let body: Vec<String> = metrics
            .iter()
            .map(|(n, v, u)| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    json_str(n),
                    json_num(*v),
                    json_str(u)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            body.join(", ")
        )
    }
}

/// A JSON number; non-finite values (a metric that was never measured)
/// become `null`, which no consumer mistakes for a measurement.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Field-wise sum of two counter snapshots.
pub fn add_counters(a: EngineCounters, b: EngineCounters) -> EngineCounters {
    EngineCounters {
        evaluations: a.evaluations + b.evaluations,
        replays: a.replays + b.replays,
        cache_hits: a.cache_hits + b.cache_hits,
        statically_pruned: a.statically_pruned + b.statically_pruned,
        bound_pruned: a.bound_pruned + b.bound_pruned,
        quarantined: a.quarantined + b.quarantined,
        budget_exceeded: a.budget_exceeded + b.budget_exceeded,
        projection_hits: a.projection_hits + b.projection_hits,
    }
}

/// Microseconds `PolicyAllocator::new` takes for `cfg`.
pub fn construct_us(cfg: DmConfig) -> f64 {
    let t = std::time::Instant::now();
    let m = dmm_core::PolicyAllocator::new(cfg);
    let us = t.elapsed().as_secs_f64() * 1e6;
    drop(std::hint::black_box(m));
    us
}

/// Peak resident set size of this process (VmHWM), MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|r| r.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}
