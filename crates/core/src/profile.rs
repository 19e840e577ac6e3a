//! DM-behaviour profiling (the "we first profile its DM behaviour" step of
//! Section 5).
//!
//! A [`Profile`] condenses a trace into the quantities the methodology
//! consults: the block-size mix and its variability, live-memory pressure,
//! object lifetimes, and per-phase breakdowns. It also proposes the
//! quantitative parameters ("determined via simulation" in the paper) such
//! as profiled size classes.

use std::collections::{BTreeMap, HashMap};

use serde::{Deserialize, Serialize};

use crate::trace::{Trace, TraceEvent};
use crate::units::{align_up, MIN_ALIGN, MIN_BLOCK};

/// Exact request-size histogram.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SizeHistogram {
    counts: BTreeMap<usize, u64>,
}

impl SizeHistogram {
    /// Record one request of `size` bytes.
    pub fn record(&mut self, size: usize) {
        *self.counts.entry(size).or_insert(0) += 1;
    }

    /// Number of distinct request sizes.
    pub fn distinct(&self) -> usize {
        self.counts.len()
    }

    /// Total requests recorded.
    pub fn total(&self) -> u64 {
        self.counts.values().sum()
    }

    /// Iterate `(size, count)` in ascending size order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
        self.counts.iter().map(|(&s, &c)| (s, c))
    }

    /// The `k` most frequent sizes, most frequent first.
    pub fn top_k(&self, k: usize) -> Vec<(usize, u64)> {
        let mut v: Vec<(usize, u64)> = self.iter().collect();
        v.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        v.truncate(k);
        v
    }

    /// Mean request size.
    pub fn mean(&self) -> f64 {
        let total = self.total();
        if total == 0 {
            return 0.0;
        }
        let sum: u128 = self.iter().map(|(s, c)| s as u128 * c as u128).sum();
        sum as f64 / total as f64
    }

    /// Fold another histogram's counts into this one.
    pub fn merge(&mut self, other: &SizeHistogram) {
        for (size, count) in other.iter() {
            *self.counts.entry(size).or_insert(0) += count;
        }
    }

    /// Coefficient of variation of request sizes (σ/μ); the paper's
    /// "blocks that vary greatly in size" shows up as a large value.
    pub fn coefficient_of_variation(&self) -> f64 {
        let mu = self.mean();
        let total = self.total();
        if total == 0 || mu == 0.0 {
            return 0.0;
        }
        let var: f64 = self
            .iter()
            .map(|(s, c)| {
                let d = s as f64 - mu;
                d * d * c as f64
            })
            .sum::<f64>()
            / total as f64;
        var.sqrt() / mu
    }
}

/// Per-phase slice of the profile.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PhaseProfile {
    /// Phase id.
    pub phase: u32,
    /// Allocations made during the phase.
    pub allocs: u64,
    /// Frees charged to the phase (of objects it allocated).
    pub frees: u64,
    /// Size histogram of the phase's allocations.
    pub histogram: SizeHistogram,
    /// Peak live requested bytes attributable to the phase's objects.
    pub peak_live: usize,
    /// Whether frees follow allocation order in reverse (stack-like
    /// behaviour, the pattern Obstacks exploits).
    pub stack_like: bool,
}

/// Lifetime statistics in units of trace events.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct LifetimeStats {
    /// Mean events between an object's alloc and free.
    pub mean: f64,
    /// Longest observed lifetime.
    pub max: usize,
    /// Objects never freed inside the trace.
    pub immortal: u64,
}

/// Condensed DM behaviour of one trace.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Profile {
    /// Total allocations.
    pub allocs: u64,
    /// Total frees.
    pub frees: u64,
    /// Request-size histogram across the whole trace.
    pub histogram: SizeHistogram,
    /// Peak simultaneously live requested bytes.
    pub peak_live_bytes: usize,
    /// Peak simultaneously live object count.
    pub peak_live_count: usize,
    /// Object lifetime statistics.
    pub lifetimes: LifetimeStats,
    /// Per-phase breakdown (one entry when the trace has no markers).
    pub phases: Vec<PhaseProfile>,
}

impl Profile {
    /// Profile a trace.
    pub fn of(trace: &Trace) -> Profile {
        let mut histogram = SizeHistogram::default();
        let mut live_sizes: HashMap<u64, (usize, usize)> = HashMap::new(); // id -> (size, birth)
        let mut owner: HashMap<u64, u32> = HashMap::new();
        let (mut live_bytes, mut peak_live_bytes) = (0usize, 0usize);
        let mut peak_live_count = 0usize;
        let (mut allocs, mut frees) = (0u64, 0u64);
        let mut life_sum = 0u128;
        let mut life_max = 0usize;
        let mut current_phase = 0u32;

        struct PhaseAcc {
            allocs: u64,
            frees: u64,
            histogram: SizeHistogram,
            live: usize,
            peak_live: usize,
            /// LIFO simulation: frees must always hit the top of this stack.
            stack: Vec<u64>,
            stack_like: bool,
        }
        impl Default for PhaseAcc {
            fn default() -> Self {
                PhaseAcc {
                    allocs: 0,
                    frees: 0,
                    histogram: SizeHistogram::default(),
                    live: 0,
                    peak_live: 0,
                    stack: Vec::new(),
                    stack_like: true,
                }
            }
        }
        let mut phase_accs: BTreeMap<u32, PhaseAcc> = BTreeMap::new();
        phase_accs.entry(0).or_default();

        for (i, ev) in trace.events().iter().enumerate() {
            match ev {
                TraceEvent::Phase { phase } => {
                    current_phase = *phase;
                    phase_accs.entry(current_phase).or_default();
                }
                TraceEvent::Alloc { id, size } => {
                    allocs += 1;
                    histogram.record(*size);
                    live_sizes.insert(*id, (*size, i));
                    owner.insert(*id, current_phase);
                    live_bytes += size;
                    peak_live_bytes = peak_live_bytes.max(live_bytes);
                    peak_live_count = peak_live_count.max(live_sizes.len());
                    let acc = phase_accs.get_mut(&current_phase).expect("phase exists");
                    acc.allocs += 1;
                    acc.histogram.record(*size);
                    acc.live += size;
                    acc.peak_live = acc.peak_live.max(acc.live);
                    acc.stack.push(*id);
                }
                TraceEvent::Free { id } => {
                    frees += 1;
                    if let Some((size, birth)) = live_sizes.remove(id) {
                        live_bytes -= size;
                        let life = i - birth;
                        life_sum += life as u128;
                        life_max = life_max.max(life);
                        // Remove, don't peek: dead entries kept for the
                        // rest of the walk would grow the map to O(total
                        // allocs) instead of O(peak live).
                        let ph = owner.remove(id).unwrap_or(current_phase);
                        let acc = phase_accs.get_mut(&ph).expect("owner phase exists");
                        acc.frees += 1;
                        acc.live = acc.live.saturating_sub(size);
                        if acc.stack.last() == Some(id) {
                            acc.stack.pop();
                        } else {
                            acc.stack_like = false;
                        }
                    }
                }
            }
        }

        let immortal = live_sizes.len() as u64;
        let lifetimes = LifetimeStats {
            mean: if frees == 0 {
                0.0
            } else {
                life_sum as f64 / frees as f64
            },
            max: life_max,
            immortal,
        };

        let phases = phase_accs
            .into_iter()
            .filter(|(_, a)| a.allocs > 0)
            .map(|(phase, acc)| PhaseProfile {
                phase,
                allocs: acc.allocs,
                frees: acc.frees,
                histogram: acc.histogram,
                peak_live: acc.peak_live,
                // Stack-like: every free hit the top of the live stack
                // (and at least one free happened at all).
                stack_like: acc.stack_like && acc.frees > 0,
            })
            .collect();

        Profile {
            allocs,
            frees,
            histogram,
            peak_live_bytes,
            peak_live_count,
            lifetimes,
            phases,
        }
    }

    /// Fold the profile of a *disjoint* trace shard into this one — the
    /// aggregation sharded exploration uses to seed the merged
    /// configuration's parameters without ever profiling the whole trace
    /// at once.
    ///
    /// Counters and histograms sum; live peaks take the maximum (shards
    /// are lifetime-closed windows or owner-attributed phases, so their
    /// live sets never stack); lifetime means combine weighted by free
    /// counts. Per-phase breakdowns concatenate, keeping the first
    /// occurrence of a phase id.
    pub fn merge(&mut self, other: &Profile) {
        let total_frees = self.frees + other.frees;
        if total_frees > 0 {
            self.lifetimes.mean = (self.lifetimes.mean * self.frees as f64
                + other.lifetimes.mean * other.frees as f64)
                / total_frees as f64;
        }
        self.lifetimes.max = self.lifetimes.max.max(other.lifetimes.max);
        self.lifetimes.immortal += other.lifetimes.immortal;
        self.allocs += other.allocs;
        self.frees += other.frees;
        self.histogram.merge(&other.histogram);
        self.peak_live_bytes = self.peak_live_bytes.max(other.peak_live_bytes);
        self.peak_live_count = self.peak_live_count.max(other.peak_live_count);
        for ph in &other.phases {
            if self.phases.iter().all(|p| p.phase != ph.phase) {
                self.phases.push(ph.clone());
            }
        }
    }

    /// Propose up to `max_classes` size classes for `A2 = ProfiledClasses`:
    /// the most frequent block lengths (tag-inclusive rounding is the
    /// manager's job, so classes are aligned request ceilings).
    pub fn suggested_classes(&self, max_classes: usize, tag_bytes: usize) -> Vec<usize> {
        let mut classes: Vec<usize> = self
            .histogram
            .top_k(max_classes)
            .into_iter()
            .map(|(s, _)| align_up(s + tag_bytes, MIN_ALIGN).max(MIN_BLOCK))
            .collect();
        classes.sort_unstable();
        classes.dedup();
        classes
    }

    /// Whether the application's sizes vary enough that fragmentation
    /// outweighs per-block header cost (the Section 4.2 criterion for
    /// deciding D/E before A3).
    pub fn has_variable_sizes(&self) -> bool {
        self.histogram.distinct() > 4 || self.histogram.coefficient_of_variation() > 0.5
    }
}

/// Normalised log₂-bucketed size distribution of a window of allocations.
fn window_signature(sizes: &[usize]) -> [f64; 24] {
    let mut buckets = [0f64; 24];
    for &s in sizes {
        let b = (usize::BITS - s.max(1).leading_zeros()) as usize;
        buckets[b.min(23)] += 1.0;
    }
    let total: f64 = buckets.iter().sum::<f64>().max(1.0);
    for b in &mut buckets {
        *b /= total;
    }
    buckets
}

fn l1_distance(a: &[f64; 24], b: &[f64; 24]) -> f64 {
    a.iter().zip(b).map(|(x, y)| (x - y).abs()).sum()
}

/// Detect logical-phase boundaries from the allocation behaviour alone
/// (for applications that do not announce phases): consecutive windows of
/// `window` allocations whose size-mix distributions diverge by more than
/// `threshold` (L1 on normalised log₂ buckets, range 0..2) start a new
/// phase.
///
/// Returns the event indices where new phases begin (never includes 0).
pub fn detect_phase_boundaries(trace: &Trace, window: usize, threshold: f64) -> Vec<usize> {
    let window = window.max(4);
    let mut boundaries = Vec::new();
    let mut current: Vec<usize> = Vec::with_capacity(window);
    let mut prev_sig: Option<[f64; 24]> = None;
    let mut window_start = 0usize;
    for (i, ev) in trace.events().iter().enumerate() {
        if let TraceEvent::Alloc { size, .. } = ev {
            if current.is_empty() {
                window_start = i;
            }
            current.push(*size);
            if current.len() == window {
                let sig = window_signature(&current);
                if let Some(prev) = prev_sig {
                    if l1_distance(&prev, &sig) > threshold {
                        boundaries.push(window_start);
                    }
                }
                prev_sig = Some(sig);
                current.clear();
            }
        }
    }
    boundaries
}

/// Rewrite a trace with `Phase` markers at the detected boundaries,
/// replacing any existing markers. Phases are numbered 0, 1, 2… in order.
///
/// # Examples
///
/// ```
/// use dmm_core::profile::annotate_phases;
/// use dmm_core::trace::Trace;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut b = Trace::builder();
/// for _ in 0..32 { let id = b.alloc(64); b.free(id); }
/// for _ in 0..32 { let id = b.alloc(8192); b.free(id); }
/// let t = annotate_phases(&b.finish()?, 16, 0.8);
/// assert!(t.phases().len() >= 2, "size-mix shift must split the trace");
/// # Ok(())
/// # }
/// ```
pub fn annotate_phases(trace: &Trace, window: usize, threshold: f64) -> Trace {
    let boundaries = detect_phase_boundaries(trace, window, threshold);
    let mut events = Vec::with_capacity(trace.len() + boundaries.len() + 1);
    let mut phase = 0u32;
    let mut next_boundary = 0usize;
    events.push(TraceEvent::Phase { phase });
    for (i, ev) in trace.events().iter().enumerate() {
        if matches!(ev, TraceEvent::Phase { .. }) {
            continue; // replace pre-existing markers
        }
        if next_boundary < boundaries.len() && i >= boundaries[next_boundary] {
            phase += 1;
            next_boundary += 1;
            events.push(TraceEvent::Phase { phase });
        }
        events.push(*ev);
    }
    Trace::from_events(events).expect("re-annotation preserves validity")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::Trace;

    fn mixed_trace() -> Trace {
        let mut b = Trace::builder();
        b.phase(0);
        let mut ids = Vec::new();
        for i in 0..10 {
            ids.push(b.alloc(64 + (i % 3) * 100));
        }
        b.phase(1);
        for id in ids {
            b.free(id);
        }
        let last = b.alloc(1000);
        b.free(last);
        b.finish().unwrap()
    }

    #[test]
    fn histogram_counts_and_moments() {
        let mut h = SizeHistogram::default();
        for _ in 0..3 {
            h.record(100);
        }
        h.record(200);
        assert_eq!(h.distinct(), 2);
        assert_eq!(h.total(), 4);
        assert!((h.mean() - 125.0).abs() < 1e-9);
        assert!(h.coefficient_of_variation() > 0.0);
        assert_eq!(h.top_k(1), vec![(100, 3)]);
    }

    #[test]
    fn uniform_sizes_have_zero_variation() {
        let mut h = SizeHistogram::default();
        for _ in 0..10 {
            h.record(64);
        }
        assert_eq!(h.coefficient_of_variation(), 0.0);
    }

    #[test]
    fn profile_basics() {
        let t = mixed_trace();
        let p = Profile::of(&t);
        assert_eq!(p.allocs, 11);
        assert_eq!(p.frees, 11);
        assert_eq!(p.peak_live_bytes, t.peak_live_requested());
        assert_eq!(p.lifetimes.immortal, 0);
        assert!(p.lifetimes.mean > 0.0);
        assert_eq!(p.phases.len(), 2);
    }

    #[test]
    fn per_phase_attribution() {
        let t = mixed_trace();
        let p = Profile::of(&t);
        let p0 = p.phases.iter().find(|x| x.phase == 0).unwrap();
        assert_eq!(p0.allocs, 10);
        assert_eq!(p0.frees, 10, "frees of phase-0 objects belong to phase 0");
        let p1 = p.phases.iter().find(|x| x.phase == 1).unwrap();
        assert_eq!(p1.allocs, 1);
    }

    #[test]
    fn stack_like_detection() {
        let mut b = Trace::builder();
        let ids: Vec<_> = (0..8).map(|_| b.alloc(32)).collect();
        for id in ids.into_iter().rev() {
            b.free(id);
        }
        let p = Profile::of(&b.finish().unwrap());
        assert!(p.phases[0].stack_like);

        let mut b = Trace::builder();
        let ids: Vec<_> = (0..8).map(|_| b.alloc(32)).collect();
        for id in ids {
            b.free(id); // FIFO order, not stack-like
        }
        let p = Profile::of(&b.finish().unwrap());
        assert!(!p.phases[0].stack_like);
    }

    #[test]
    fn suggested_classes_are_aligned_sorted_unique() {
        let t = mixed_trace();
        let p = Profile::of(&t);
        let classes = p.suggested_classes(8, 4);
        assert!(!classes.is_empty());
        assert!(classes.windows(2).all(|w| w[0] < w[1]));
        assert!(classes
            .iter()
            .all(|c| c % MIN_ALIGN == 0 && *c >= MIN_BLOCK));
    }

    #[test]
    fn merged_shard_profiles_agree_with_the_whole_trace_profile() {
        // Two lifetime-closed halves of one trace: merging their profiles
        // must reproduce the whole-trace counts, histogram and peaks.
        let build = |b: &mut crate::trace::TraceBuilder, sizes: &[usize]| {
            let ids: Vec<u64> = sizes.iter().map(|&s| b.alloc(s)).collect();
            for id in ids {
                b.free(id);
            }
        };
        let (first, second) = (&[64usize, 128, 64][..], &[256usize, 64][..]);
        let mut whole = Trace::builder();
        build(&mut whole, first);
        build(&mut whole, second);
        let whole = Profile::of(&whole.finish().unwrap());

        let mut a = Trace::builder();
        build(&mut a, first);
        let mut merged = Profile::of(&a.finish().unwrap());
        let mut b = Trace::builder();
        build(&mut b, second);
        merged.merge(&Profile::of(&b.finish().unwrap()));

        assert_eq!(merged.allocs, whole.allocs);
        assert_eq!(merged.frees, whole.frees);
        assert_eq!(merged.histogram, whole.histogram);
        assert_eq!(merged.peak_live_bytes, whole.peak_live_bytes);
        assert_eq!(merged.peak_live_count, whole.peak_live_count);
        assert_eq!(
            merged.suggested_classes(8, 4),
            whole.suggested_classes(8, 4),
            "merged profiles must seed the same size classes"
        );
    }

    #[test]
    fn histogram_merge_sums_counts() {
        let mut a = SizeHistogram::default();
        a.record(100);
        a.record(100);
        let mut b = SizeHistogram::default();
        b.record(100);
        b.record(200);
        a.merge(&b);
        assert_eq!(a.total(), 4);
        assert_eq!(a.top_k(1), vec![(100, 3)]);
    }

    #[test]
    fn immortal_objects_are_counted() {
        let mut b = Trace::builder();
        let _leak = b.alloc(100);
        let x = b.alloc(50);
        b.free(x);
        let p = Profile::of(&b.finish().unwrap());
        assert_eq!(p.lifetimes.immortal, 1);
    }

    #[test]
    fn phase_detection_finds_a_size_mix_shift() {
        // 64 uniform small allocations, then 64 uniform huge ones: one
        // clear boundary in the middle.
        let mut b = Trace::builder();
        for _ in 0..64 {
            let id = b.alloc(64);
            b.free(id);
        }
        for _ in 0..64 {
            let id = b.alloc(16 * 1024);
            b.free(id);
        }
        let t = b.finish().unwrap();
        let bounds = detect_phase_boundaries(&t, 16, 0.8);
        assert_eq!(bounds.len(), 1, "exactly one shift: {bounds:?}");
        // The boundary lands within a window of the true shift (event 128).
        assert!(
            (96..=160).contains(&bounds[0]),
            "boundary at {} too far from 128",
            bounds[0]
        );
    }

    #[test]
    fn phase_detection_is_quiet_on_uniform_traces() {
        let mut b = Trace::builder();
        for _ in 0..200 {
            let id = b.alloc(64);
            b.free(id);
        }
        let t = b.finish().unwrap();
        assert!(detect_phase_boundaries(&t, 16, 0.8).is_empty());
        let annotated = annotate_phases(&t, 16, 0.8);
        assert_eq!(annotated.phases(), vec![0]);
    }

    #[test]
    fn annotate_phases_enables_phased_exploration() {
        let mut b = Trace::builder();
        for _ in 0..48 {
            let id = b.alloc(32);
            b.free(id);
        }
        for _ in 0..48 {
            let id = b.alloc(8000);
            b.free(id);
        }
        let t = annotate_phases(&b.finish().unwrap(), 16, 0.8);
        assert!(t.phases().len() >= 2);
        let parts = t.split_phases();
        assert!(parts.len() >= 2);
        // Alloc counts are preserved across re-annotation.
        let total: usize = parts.iter().map(|(_, p)| p.alloc_count()).sum();
        assert_eq!(total, 96);
    }

    #[test]
    fn variable_size_detection() {
        let t = mixed_trace();
        assert!(Profile::of(&t).has_variable_sizes());
        let mut b = Trace::builder();
        for _ in 0..10 {
            let id = b.alloc(64);
            b.free(id);
        }
        assert!(!Profile::of(&b.finish().unwrap()).has_variable_sizes());
    }
}
