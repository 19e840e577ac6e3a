//! The global DM manager of Section 3.3.
//!
//! Real applications have several DM behaviour phases; the methodology
//! designs one *atomic* manager per phase, and "the global DM manager of the
//! application is the inclusion of all these atomic DM managers in one".
//! [`GlobalManager`] routes allocations to the atomic manager of the current
//! phase and frees back to whichever manager issued the block, so objects
//! may outlive their phase.

use crate::error::{Error, Result};
use crate::manager::policy::PolicyAllocator;
use crate::manager::{Allocator, BlockHandle};
use crate::metrics::AllocStats;
use crate::space::config::DmConfig;

/// A phase-indexed composition of atomic managers.
///
/// # Examples
///
/// ```
/// use dmm_core::manager::{Allocator, GlobalManager};
/// use dmm_core::space::presets;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut g = GlobalManager::new(
///     "two-phase",
///     vec![presets::drr_paper(), presets::lea_like()],
/// )?;
/// g.set_phase(0);
/// let a = g.alloc(128)?;
/// g.set_phase(1);
/// let b = g.alloc(256)?;
/// // Frees route back to the issuing atomic manager automatically.
/// g.free(a)?;
/// g.free(b)?;
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct GlobalManager {
    /// Interned composition name (stamped into replay statistics without
    /// allocating — see [`Allocator::name_shared`]).
    name: std::sync::Arc<str>,
    managers: Vec<PolicyAllocator>,
    /// The phase id each atomic manager serves, by manager index.
    phase_map: Vec<u32>,
    /// Index of the atomic manager receiving allocations.
    current: usize,
    merged: AllocStats,
}

impl GlobalManager {
    /// Compose atomic managers from one configuration per phase: phase `i`
    /// is served by `configs[i]`, as [`GlobalManager::new_mapped`] with
    /// phase ids `0..configs.len()` composes them.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] if `configs` is empty or any
    /// configuration is invalid.
    pub fn new(name: impl Into<String>, configs: Vec<DmConfig>) -> Result<Self> {
        GlobalManager::new_mapped(name, (0u32..).zip(configs).collect())
    }

    /// Compose atomic managers with explicit phase ids (which need not be
    /// contiguous): `(phase, config)` pairs map trace phase markers to
    /// atomic managers. Allocations go to the first pair's manager until
    /// the first [`set_phase`](Allocator::set_phase), and a phase without
    /// a pair goes to the last pair's.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] if `configs` is empty, any
    /// configuration is invalid, or a phase id repeats.
    pub fn new_mapped(name: impl Into<String>, configs: Vec<(u32, DmConfig)>) -> Result<Self> {
        if configs.is_empty() {
            return Err(Error::InvalidConfig(
                "a global manager needs at least one atomic manager".into(),
            ));
        }
        let phase_map: Vec<u32> = configs.iter().map(|&(phase, _)| phase).collect();
        for (i, phase) in phase_map.iter().enumerate() {
            if phase_map[..i].contains(phase) {
                return Err(Error::InvalidConfig(format!(
                    "duplicate phase id {phase} in global manager"
                )));
            }
        }
        let managers = configs
            .into_iter()
            .map(|(_, cfg)| PolicyAllocator::new(cfg))
            .collect::<Result<Vec<_>>>()?;
        let mut g = GlobalManager {
            name: std::sync::Arc::from(name.into().as_str()),
            managers,
            phase_map,
            current: 0,
            merged: AllocStats::default(),
        };
        g.refresh_merged();
        Ok(g)
    }

    /// Number of atomic managers composed.
    pub fn atomic_count(&self) -> usize {
        self.managers.len()
    }

    /// The atomic manager serving `phase`.
    pub fn atomic(&self, phase: u32) -> &PolicyAllocator {
        &self.managers[self.index_of(phase)]
    }

    /// The phase id of the atomic manager currently receiving allocations.
    pub fn current_phase(&self) -> u32 {
        self.phase_map[self.current]
    }

    /// Index of the atomic manager serving `phase`: its own, or the last
    /// one for a phase without a manager.
    fn index_of(&self, phase: u32) -> usize {
        self.phase_map
            .iter()
            .position(|&p| p == phase)
            .unwrap_or(self.managers.len() - 1)
    }

    fn refresh_merged(&mut self) {
        let mut m = AllocStats::default();
        let mut static_overhead = 0usize;
        let mut arena = 0usize;
        for a in &self.managers {
            let s = a.stats();
            m.live_requested += s.live_requested;
            m.live_block += s.live_block;
            m.allocs += s.allocs;
            m.frees += s.frees;
            m.splits += s.splits;
            m.coalesces += s.coalesces;
            m.sbrk_calls += s.sbrk_calls;
            m.trims += s.trims;
            m.search_steps += s.search_steps;
            m.failed_fits += s.failed_fits;
            static_overhead += s.static_overhead;
            arena += s.system - s.static_overhead;
        }
        // Peaks of the composition are tracked here, not summed from the
        // atomics (their individual peaks may not coincide in time).
        m.peak_requested = self.merged.peak_requested.max(m.live_requested);
        m.set_system(arena, static_overhead);
        m.peak_footprint = self.merged.peak_footprint.max(m.system);
        self.merged = m;
    }

    /// Run every atomic manager's invariant checks.
    pub fn check_invariants(&self) -> std::result::Result<(), String> {
        for (i, m) in self.managers.iter().enumerate() {
            m.check_invariants()
                .map_err(|e| format!("atomic manager {i}: {e}"))?;
        }
        Ok(())
    }
}

impl Allocator for GlobalManager {
    fn name(&self) -> &str {
        &self.name
    }

    fn name_shared(&self) -> std::sync::Arc<str> {
        self.name.clone()
    }

    fn alloc(&mut self, req: usize) -> Result<BlockHandle> {
        let region = self.current;
        let h = self.managers[region].alloc(req)?;
        self.refresh_merged();
        // Re-stamp the region, keeping the atomic manager's tiling slot so
        // the eventual free stays O(1).
        Ok(h.in_region(region as u32))
    }

    fn free(&mut self, handle: BlockHandle) -> Result<()> {
        let region = handle.region() as usize;
        if region >= self.managers.len() {
            return Err(Error::InvalidFree {
                offset: handle.offset(),
            });
        }
        self.managers[region].free(handle.in_region(0))?;
        self.refresh_merged();
        Ok(())
    }

    fn footprint(&self) -> usize {
        self.merged.system
    }

    fn stats(&self) -> &AllocStats {
        &self.merged
    }

    fn check_invariants(&self) -> std::result::Result<(), String> {
        GlobalManager::check_invariants(self)
    }

    fn set_phase(&mut self, phase: u32) {
        self.current = self.index_of(phase);
    }

    fn reset(&mut self) {
        for m in &mut self.managers {
            m.reset();
        }
        self.current = 0;
        self.merged = AllocStats::default();
        self.refresh_merged();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::presets;

    fn two_phase() -> GlobalManager {
        GlobalManager::new(
            "test-global",
            vec![presets::drr_paper(), presets::kingsley_like()],
        )
        .unwrap()
    }

    #[test]
    fn empty_composition_is_rejected() {
        assert!(GlobalManager::new("empty", vec![]).is_err());
    }

    #[test]
    fn phases_route_to_their_atomic_manager() {
        let mut g = two_phase();
        g.set_phase(0);
        let a = g.alloc(100).unwrap();
        assert_eq!(a.region(), 0);
        g.set_phase(1);
        let b = g.alloc(100).unwrap();
        assert_eq!(b.region(), 1);
        assert_eq!(g.atomic(0).stats().allocs, 1);
        assert_eq!(g.atomic(1).stats().allocs, 1);
        g.free(a).unwrap();
        g.free(b).unwrap();
        g.check_invariants().unwrap();
    }

    #[test]
    fn cross_phase_free_routes_by_handle_region() {
        let mut g = two_phase();
        g.set_phase(0);
        let a = g.alloc(100).unwrap();
        g.set_phase(1); // application moved on; the object lives on
        g.free(a).unwrap(); // must free in atomic manager 0
        assert_eq!(g.atomic(0).stats().frees, 1);
        assert_eq!(g.atomic(1).stats().frees, 0);
    }

    #[test]
    fn out_of_range_phase_clamps() {
        let mut g = two_phase();
        g.set_phase(99);
        let h = g.alloc(64).unwrap();
        assert_eq!(h.region(), 1);
        g.free(h).unwrap();
    }

    #[test]
    fn foreign_region_free_is_invalid() {
        let mut g = two_phase();
        let h = g.alloc(64).unwrap();
        let forged = BlockHandle::new(h.offset(), 7);
        assert!(g.free(forged).is_err());
        g.free(h).unwrap();
    }

    #[test]
    fn slotless_free_after_region_wrapping_resolves_and_charges() {
        // A legacy slotless handle survives the `in_region(0)` re-wrap on
        // the free path: the atomic manager's offset fallback must both
        // resolve the block and charge the linear walk it performs.
        let mut g = two_phase();
        g.set_phase(1);
        for _ in 0..8 {
            let _ = g.alloc(64).unwrap();
        }
        let h = g.alloc(64).unwrap();
        assert!(h.slot().is_some());
        let before = g.atomic(1).stats().search_steps;
        let legacy = BlockHandle::new(h.offset(), h.region());
        assert!(legacy.slot().is_none());
        g.free(legacy).unwrap();
        assert_eq!(g.atomic(1).stats().frees, 1);
        assert_eq!(g.atomic(0).stats().frees, 0);
        let charged = g.atomic(1).stats().search_steps - before;
        assert!(
            charged > 1,
            "slotless resolve after region wrapping charged only the tag read ({charged})"
        );
        g.check_invariants().unwrap();
    }

    #[test]
    fn merged_stats_sum_atomics() {
        let mut g = two_phase();
        g.set_phase(0);
        let a = g.alloc(100).unwrap();
        g.set_phase(1);
        let b = g.alloc(200).unwrap();
        assert_eq!(g.stats().allocs, 2);
        assert_eq!(g.stats().live_requested, 300);
        assert_eq!(
            g.footprint(),
            g.atomic(0).footprint() + g.atomic(1).footprint()
        );
        g.free(a).unwrap();
        g.free(b).unwrap();
        assert_eq!(g.stats().live_requested, 0);
    }

    #[test]
    fn global_peak_is_tracked_across_phases() {
        let mut g = two_phase();
        let hs: Vec<_> = (0..16).map(|_| g.alloc(512).unwrap()).collect();
        let peak = g.stats().peak_footprint;
        for h in hs {
            g.free(h).unwrap();
        }
        assert!(g.stats().peak_footprint >= peak);
        assert!(g.stats().system <= peak);
    }

    #[test]
    fn non_contiguous_phase_ids_are_answered_by_id() {
        let mut g = GlobalManager::new_mapped(
            "mapped",
            vec![(3, presets::drr_paper()), (7, presets::kingsley_like())],
        )
        .unwrap();
        assert_eq!(g.current_phase(), 3, "the first pair serves until a marker");
        g.set_phase(7);
        assert_eq!(g.current_phase(), 7);
        let h = g.alloc(64).unwrap();
        assert_eq!(h.region(), 1);
        assert_eq!(g.atomic(7).stats().allocs, 1);
        assert_eq!(g.atomic(3).stats().allocs, 0, "phase 3 has its own manager");
        g.set_phase(3);
        assert_eq!(g.current_phase(), 3);
        let _ = g.alloc(64).unwrap();
        assert_eq!(g.atomic(3).stats().allocs, 1);
        // An unmapped phase goes to the last pair's manager.
        g.set_phase(5);
        assert_eq!(g.current_phase(), 7);
        assert_eq!(g.atomic(5).stats().allocs, 1);
        assert!(GlobalManager::new_mapped(
            "duplicate",
            vec![(3, presets::drr_paper()), (3, presets::lea_like())]
        )
        .is_err());
    }

    #[test]
    fn reset_clears_all_atomics() {
        let mut g = two_phase();
        let _ = g.alloc(100).unwrap();
        g.set_phase(1);
        let _ = g.alloc(100).unwrap();
        g.reset();
        assert_eq!(g.stats().allocs, 0);
        assert_eq!(g.current_phase(), 0);
    }
}
