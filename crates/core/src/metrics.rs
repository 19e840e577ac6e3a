//! Byte-exact footprint accounting (Section 4.1 of the paper).
//!
//! The paper decomposes DM footprint into **organisation overhead** (tag
//! fields and assisting data structures) and **fragmentation waste**
//! (internal + external). [`AllocStats`] tracks both, live, for any manager
//! on the simulated heap; [`FootprintStats`] summarises a whole trace
//! replay; [`TimeSeries`] records the footprint-over-time curve of Figure 5.

use serde::{Deserialize, Serialize};

/// Running statistics of one manager instance.
///
/// All byte quantities refer to the modelled 32-bit embedded target.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct AllocStats {
    /// Bytes the application asked for and has not yet freed.
    pub live_requested: usize,
    /// Bytes occupied by live blocks including tags and rounding.
    pub live_block: usize,
    /// Bytes currently reserved from the system (arena + control structures).
    pub system: usize,
    /// Bytes of static control structures (pool descriptors, list heads…).
    pub static_overhead: usize,
    /// Peak of [`AllocStats::live_requested`] over time.
    pub peak_requested: usize,
    /// Peak of [`AllocStats::system`] over time — the paper's
    /// *maximum memory footprint* (Table 1).
    pub peak_footprint: usize,
    /// Number of successful allocations.
    pub allocs: u64,
    /// Number of successful frees.
    pub frees: u64,
    /// Number of block splits performed.
    pub splits: u64,
    /// Number of block merges performed.
    pub coalesces: u64,
    /// Number of times memory was requested from the system.
    pub sbrk_calls: u64,
    /// Number of times memory was returned to the system.
    pub trims: u64,
    /// Abstract unit-cost steps spent searching free structures — a
    /// deterministic proxy for execution time, complementing the wall-clock
    /// Criterion benches.
    pub search_steps: u64,
    /// Fit attempts that found no block and fell through to
    /// coalescing/sbrk.
    pub failed_fits: u64,
    /// Number of realloc requests served.
    pub reallocs: u64,
    /// Reallocs resolved without moving the block (in-place grow/shrink).
    pub reallocs_in_place: u64,
}

impl AllocStats {
    /// Record a successful allocation of `req` bytes inside a block of
    /// `block_len` bytes.
    pub fn on_alloc(&mut self, req: usize, block_len: usize) {
        self.allocs += 1;
        self.live_requested += req;
        self.live_block += block_len;
        self.peak_requested = self.peak_requested.max(self.live_requested);
    }

    /// Record an in-place resize (does not count as an alloc or a free).
    ///
    /// The accounting saturates rather than underflowing: on a drifted
    /// trace (an `old_req`/`old_len` larger than the live totals, e.g. a
    /// replay driven by a recorder that missed events) the counters clamp
    /// at zero instead of wrapping to `usize::MAX` — which would poison
    /// every subsequent peak. Debug builds still assert the invariant so
    /// internal bookkeeping bugs cannot hide behind the clamp.
    pub fn on_resize(&mut self, old_req: usize, new_req: usize, old_len: usize, new_len: usize) {
        debug_assert!(
            old_req <= self.live_requested,
            "resize of {old_req} requested bytes but only {} live",
            self.live_requested
        );
        debug_assert!(
            old_len <= self.live_block,
            "resize of a {old_len}-byte block but only {} live",
            self.live_block
        );
        self.live_requested = self.live_requested.saturating_sub(old_req) + new_req;
        self.live_block = self.live_block.saturating_sub(old_len) + new_len;
        self.peak_requested = self.peak_requested.max(self.live_requested);
    }

    /// Record a successful free.
    pub fn on_free(&mut self, req: usize, block_len: usize) {
        self.frees += 1;
        self.live_requested = self.live_requested.saturating_sub(req);
        self.live_block = self.live_block.saturating_sub(block_len);
    }

    /// Update the system-reserved byte count and its peak (full rebase —
    /// construction and reset; steady-state events push deltas instead).
    pub fn set_system(&mut self, arena_bytes: usize, static_overhead: usize) {
        self.static_overhead = static_overhead;
        self.system = arena_bytes + static_overhead;
        self.peak_footprint = self.peak_footprint.max(self.system);
    }

    /// Push freshly reserved arena bytes into the system counter. The
    /// footprint peak is *not* observed here: peaks are sampled only at
    /// event boundaries ([`AllocStats::observe_peak`]), which keeps peak
    /// semantics identical to the former recompute-per-event sync.
    pub fn on_system_grow(&mut self, bytes: usize) {
        self.system += bytes;
    }

    /// Remove arena bytes returned to the system (a trim) from the counter.
    pub fn on_system_shrink(&mut self, bytes: usize) {
        debug_assert!(bytes <= self.system, "trimmed more than was reserved");
        self.system = self.system.saturating_sub(bytes);
    }

    /// Push freshly materialised control-structure bytes (a new pool's
    /// descriptor and index anchors) into the overhead and system counters.
    pub fn on_static_grow(&mut self, bytes: usize) {
        self.static_overhead += bytes;
        self.system += bytes;
    }

    /// Sample the footprint peak — called at the same event boundaries
    /// where the former implementation recomputed `system`, so recorded
    /// peaks are bit-identical to it.
    pub fn observe_peak(&mut self) {
        self.peak_footprint = self.peak_footprint.max(self.system);
    }

    /// Internal fragmentation: live bytes lost to rounding and tags.
    pub fn internal_fragmentation(&self) -> usize {
        self.live_block.saturating_sub(self.live_requested)
    }

    /// External fragmentation: reserved bytes held in free blocks.
    pub fn external_fragmentation(&self) -> usize {
        self.system
            .saturating_sub(self.static_overhead)
            .saturating_sub(self.live_block)
    }

    /// Fraction of reserved memory doing useful work (0.0–1.0).
    ///
    /// Returns 1.0 for an empty manager.
    pub fn utilization(&self) -> f64 {
        if self.system == 0 {
            1.0
        } else {
            self.live_requested as f64 / self.system as f64
        }
    }

    /// Fold the statistics of a *subsequent, independently run* manager
    /// into this one — the composition rule of sharded replay.
    ///
    /// Monotone work counters (allocs, frees, splits, searches…) sum;
    /// peaks take the maximum (each shard ran against a fresh arena, so
    /// peaks never stack); instantaneous state (`live_*`, `system`,
    /// `static_overhead`) takes `other`'s final values, as the composed
    /// run ends where the last shard ended.
    pub fn absorb(&mut self, other: &AllocStats) {
        self.allocs += other.allocs;
        self.frees += other.frees;
        self.splits += other.splits;
        self.coalesces += other.coalesces;
        self.sbrk_calls += other.sbrk_calls;
        self.trims += other.trims;
        self.search_steps += other.search_steps;
        self.failed_fits += other.failed_fits;
        self.reallocs += other.reallocs;
        self.reallocs_in_place += other.reallocs_in_place;
        self.peak_requested = self.peak_requested.max(other.peak_requested);
        self.peak_footprint = self.peak_footprint.max(other.peak_footprint);
        self.live_requested = other.live_requested;
        self.live_block = other.live_block;
        self.system = other.system;
        self.static_overhead = other.static_overhead;
    }

    /// Live-count of allocations (allocs − frees).
    ///
    /// Saturates at zero on drifted traces where frees outnumber allocs
    /// (debug builds assert the invariant instead of panicking on the
    /// subtraction itself).
    pub fn live_count(&self) -> u64 {
        debug_assert!(
            self.frees <= self.allocs,
            "{} frees recorded against {} allocs",
            self.frees,
            self.allocs
        );
        self.allocs.saturating_sub(self.frees)
    }
}

/// One sample of the footprint curve.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SeriesPoint {
    /// Index of the trace event after which the sample was taken.
    pub event: usize,
    /// Bytes reserved from the system.
    pub footprint: usize,
    /// Bytes the application was using.
    pub requested: usize,
    /// Bytes in live blocks (incl. tags/rounding).
    pub live_block: usize,
}

/// The footprint-over-time curve of a replay (paper Figure 5).
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TimeSeries {
    /// Sampling period in trace events.
    pub sample_every: usize,
    /// Samples, in event order.
    pub points: Vec<SeriesPoint>,
}

impl TimeSeries {
    /// Largest footprint in the series.
    pub fn peak(&self) -> usize {
        self.points.iter().map(|p| p.footprint).max().unwrap_or(0)
    }

    /// Render as CSV with header `event,footprint,requested,live_block`.
    pub fn to_csv(&self) -> String {
        let mut s = String::from("event,footprint,requested,live_block\n");
        for p in &self.points {
            s.push_str(&format!(
                "{},{},{},{}\n",
                p.event, p.footprint, p.requested, p.live_block
            ));
        }
        s
    }
}

/// Summary of replaying one trace against one manager.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FootprintStats {
    /// Name of the manager that was measured — interned
    /// ([`std::sync::Arc`]), so the replay hot path stamps it with a
    /// reference-count bump instead of a fresh `String` allocation
    /// (managers cache theirs; see
    /// [`Allocator::name_shared`](crate::manager::Allocator::name_shared)).
    pub manager: std::sync::Arc<str>,
    /// Peak bytes reserved from the system — Table 1's metric.
    pub peak_footprint: usize,
    /// Bytes still reserved after the last event.
    pub final_footprint: usize,
    /// Peak bytes the application itself requested (manager-independent
    /// lower bound on any manager's footprint).
    pub peak_requested: usize,
    /// Number of trace events replayed.
    pub events: usize,
    /// Final running statistics.
    pub stats: AllocStats,
    /// Optional footprint curve (present when sampling was requested).
    pub series: Option<TimeSeries>,
}

impl FootprintStats {
    /// The paper's improvement formula: how much smaller `self`'s peak is
    /// relative to `other`'s, in percent.
    ///
    /// `improvement_over` of 36.0 means "36 % less footprint than `other`".
    pub fn improvement_over(&self, other: &FootprintStats) -> f64 {
        percent_improvement(self.peak_footprint, other.peak_footprint)
    }

    /// Fold the replay of a *subsequent shard* into this summary (see
    /// [`AllocStats::absorb`] for the composition rule). The manager name
    /// stays this summary's; any sampled series is dropped — per-shard
    /// curves do not concatenate into one meaningful timeline.
    pub fn absorb_shard(&mut self, other: &FootprintStats) {
        self.peak_footprint = self.peak_footprint.max(other.peak_footprint);
        self.final_footprint = other.final_footprint;
        self.peak_requested = self.peak_requested.max(other.peak_requested);
        self.events += other.events;
        self.stats.absorb(&other.stats);
        self.series = None;
    }
}

/// Percentage by which `ours` improves on (is smaller than) `theirs`.
///
/// Returns 0.0 when `theirs` is zero.
///
/// # Examples
///
/// ```
/// use dmm_core::metrics::percent_improvement;
/// assert!((percent_improvement(64, 100) - 36.0).abs() < 1e-9);
/// ```
pub fn percent_improvement(ours: usize, theirs: usize) -> f64 {
    if theirs == 0 {
        0.0
    } else {
        (1.0 - ours as f64 / theirs as f64) * 100.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_free_balance() {
        let mut s = AllocStats::default();
        s.on_alloc(100, 112);
        s.on_alloc(50, 64);
        assert_eq!(s.live_requested, 150);
        assert_eq!(s.live_block, 176);
        assert_eq!(s.internal_fragmentation(), 26);
        s.on_free(100, 112);
        s.on_free(50, 64);
        assert_eq!(s.live_requested, 0);
        assert_eq!(s.live_block, 0);
        assert_eq!(s.peak_requested, 150);
        assert_eq!(s.live_count(), 0);
    }

    #[test]
    fn resize_accounting_balances() {
        let mut s = AllocStats::default();
        s.on_alloc(100, 112);
        s.on_resize(100, 150, 112, 160);
        assert_eq!(s.live_requested, 150);
        assert_eq!(s.live_block, 160);
        assert_eq!(s.peak_requested, 150);
        s.on_resize(150, 20, 160, 32);
        assert_eq!(s.live_requested, 20);
        assert_eq!(s.live_block, 32);
        assert_eq!(s.peak_requested, 150, "shrink must not lower the peak");
    }

    // Drifted-trace behaviour differs by profile: debug builds assert the
    // invariant, release builds clamp at zero instead of wrapping.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "resize of 500 requested bytes")]
    fn resize_drift_asserts_in_debug() {
        let mut s = AllocStats::default();
        s.on_alloc(100, 112);
        s.on_resize(500, 50, 112, 64);
    }

    #[test]
    #[cfg(not(debug_assertions))]
    fn resize_drift_saturates_in_release() {
        let mut s = AllocStats::default();
        s.on_alloc(100, 112);
        s.on_resize(500, 50, 600, 64);
        assert_eq!(s.live_requested, 50, "clamped, not wrapped");
        assert_eq!(s.live_block, 64);
        assert!(s.peak_requested < usize::MAX / 2, "no wrap-around peak");
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "frees recorded against")]
    fn live_count_drift_asserts_in_debug() {
        let s = AllocStats {
            allocs: 1,
            frees: 3,
            ..AllocStats::default()
        };
        let _ = s.live_count();
    }

    #[test]
    #[cfg(not(debug_assertions))]
    fn live_count_drift_saturates_in_release() {
        let s = AllocStats {
            allocs: 1,
            frees: 3,
            ..AllocStats::default()
        };
        assert_eq!(s.live_count(), 0, "clamped, not wrapped");
    }

    #[test]
    fn absorb_sums_counters_and_maxes_peaks() {
        let mut a = AllocStats::default();
        a.on_alloc(100, 112);
        a.set_system(4096, 16);
        a.on_free(100, 112);
        a.search_steps = 7;
        let mut b = AllocStats::default();
        b.on_alloc(50, 64);
        b.set_system(1024, 16);
        b.search_steps = 5;
        let b_live = b.live_requested;
        a.absorb(&b);
        assert_eq!(a.allocs, 2);
        assert_eq!(a.frees, 1);
        assert_eq!(a.search_steps, 12);
        assert_eq!(a.peak_footprint, 4112, "peaks max, never sum");
        assert_eq!(a.peak_requested, 100);
        assert_eq!(a.live_requested, b_live, "state comes from the last shard");
        assert_eq!(a.system, 1040);
    }

    #[test]
    fn absorb_shard_composes_footprint_summaries() {
        let mut first = FootprintStats {
            manager: "m".into(),
            peak_footprint: 5000,
            final_footprint: 0,
            peak_requested: 3000,
            events: 10,
            stats: AllocStats::default(),
            series: Some(TimeSeries::default()),
        };
        let second = FootprintStats {
            manager: "other".into(),
            peak_footprint: 4000,
            final_footprint: 128,
            peak_requested: 3500,
            events: 6,
            stats: AllocStats::default(),
            series: None,
        };
        first.absorb_shard(&second);
        assert_eq!(first.manager.as_ref(), "m");
        assert_eq!(first.peak_footprint, 5000);
        assert_eq!(first.final_footprint, 128);
        assert_eq!(first.peak_requested, 3500);
        assert_eq!(first.events, 16);
        assert!(
            first.series.is_none(),
            "per-shard series do not concatenate"
        );
    }

    #[test]
    fn peaks_are_monotone() {
        let mut s = AllocStats::default();
        s.set_system(1000, 24);
        assert_eq!(s.peak_footprint, 1024);
        s.set_system(500, 24);
        assert_eq!(s.system, 524);
        assert_eq!(s.peak_footprint, 1024, "peak must not decrease");
        s.set_system(2000, 24);
        assert_eq!(s.peak_footprint, 2024);
    }

    #[test]
    fn fragmentation_identities() {
        let mut s = AllocStats::default();
        s.on_alloc(40, 48);
        s.set_system(4096, 16);
        // internal + external + requested + static == system
        assert_eq!(
            s.internal_fragmentation()
                + s.external_fragmentation()
                + s.live_requested
                + s.static_overhead,
            s.system
        );
    }

    #[test]
    fn utilization_bounds() {
        let mut s = AllocStats::default();
        assert_eq!(s.utilization(), 1.0);
        s.on_alloc(512, 512);
        s.set_system(1024, 0);
        assert!((s.utilization() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn percent_improvement_matches_paper_arithmetic() {
        // Table 1 DRR: custom 1.48e5 vs Lea 2.34e5  => ~36 %.
        let p = percent_improvement(148_000, 234_000);
        assert!((p - 36.75).abs() < 0.1, "{p}");
        // custom vs Kingsley 2.09e6 => ~93 %.
        let p = percent_improvement(148_000, 2_090_000);
        assert!((p - 92.9).abs() < 0.1, "{p}");
        assert_eq!(percent_improvement(10, 0), 0.0);
    }

    #[test]
    fn series_csv_and_peak() {
        let ts = TimeSeries {
            sample_every: 1,
            points: vec![
                SeriesPoint {
                    event: 0,
                    footprint: 10,
                    requested: 5,
                    live_block: 8,
                },
                SeriesPoint {
                    event: 1,
                    footprint: 30,
                    requested: 25,
                    live_block: 28,
                },
            ],
        };
        assert_eq!(ts.peak(), 30);
        let csv = ts.to_csv();
        assert!(csv.starts_with("event,footprint"));
        assert_eq!(csv.lines().count(), 3);
    }
}
