//! Exhaustive enumeration of the (constraint-pruned) search space.
//!
//! The raw cartesian product of the twelve trees has 829 440 combinations;
//! the hard interdependency rules prune it to the set of *coherent* atomic
//! managers. [`SpaceIter`] walks that pruned set depth-first in traversal
//! order, so constraint propagation cuts whole subtrees early.

use crate::space::config::{DmConfig, Params, PartialConfig};
use crate::space::interdep::admissible_leaves;
use crate::space::order::TRAVERSAL_ORDER;
use crate::space::trees::{Leaf, TreeId};

/// Depth-first iterator over every valid complete configuration.
///
/// # Examples
///
/// ```
/// use dmm_core::space::enumerate::SpaceIter;
/// let n = SpaceIter::new().take(10).count();
/// assert_eq!(n, 10);
/// ```
#[derive(Debug)]
pub struct SpaceIter {
    order: Vec<TreeId>,
    /// Stack of (depth, leaf-to-apply) pairs still to explore.
    stack: Vec<(usize, Leaf)>,
    /// Current partial assignment along the DFS path.
    path: Vec<Leaf>,
    partial: PartialConfig,
    params: Params,
    counter: u64,
}

impl SpaceIter {
    /// Iterate the full pruned space in the paper's traversal order.
    pub fn new() -> Self {
        Self::with_order_and_params(TRAVERSAL_ORDER.to_vec(), Params::footprint_optimised())
    }

    /// Iterate with a custom tree order and parameter block.
    ///
    /// The order affects only the enumeration sequence, not the set of
    /// configurations produced.
    pub fn with_order_and_params(order: Vec<TreeId>, params: Params) -> Self {
        assert_eq!(order.len(), TreeId::ALL.len(), "order must cover all trees");
        let partial = PartialConfig::default();
        let mut it = SpaceIter {
            order,
            stack: Vec::new(),
            path: Vec::new(),
            partial,
            params,
            counter: 0,
        };
        it.push_children(0);
        it
    }

    fn push_children(&mut self, depth: usize) {
        if depth >= self.order.len() {
            return;
        }
        let tree = self.order[depth];
        // Reverse so the preference-ordered first leaf pops first.
        for leaf in admissible_leaves(tree, &self.partial).into_iter().rev() {
            self.stack.push((depth, leaf));
        }
    }

    fn rewind_to(&mut self, depth: usize) {
        while self.path.len() > depth {
            let leaf = self.path.pop().expect("path rewind underflow");
            self.partial.clear(leaf.tree());
        }
    }
}

impl Default for SpaceIter {
    fn default() -> Self {
        Self::new()
    }
}

impl Iterator for SpaceIter {
    type Item = DmConfig;

    fn next(&mut self) -> Option<DmConfig> {
        while let Some((depth, leaf)) = self.stack.pop() {
            self.rewind_to(depth);
            self.partial.set(leaf);
            self.path.push(leaf);
            if self.path.len() == self.order.len() {
                self.counter += 1;
                let cfg = self
                    .partial
                    .clone()
                    .freeze(format!("space-point-{}", self.counter), self.params.clone())
                    .expect("complete DFS path must freeze");
                return Some(cfg);
            }
            self.push_children(depth + 1);
        }
        None
    }
}

/// Count the valid configurations without materialising them.
pub fn count_valid() -> usize {
    SpaceIter::new().count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn enumeration_yields_only_valid_configs() {
        for cfg in SpaceIter::new().take(500) {
            cfg.validate()
                .unwrap_or_else(|e| panic!("enumerated invalid config: {e}\n{cfg:?}"));
        }
    }

    #[test]
    fn enumeration_has_no_duplicates() {
        let mut seen = HashSet::new();
        for cfg in SpaceIter::new() {
            let key: Vec<Leaf> = TreeId::ALL.iter().map(|t| cfg.leaf(*t)).collect();
            assert!(seen.insert(key), "duplicate configuration enumerated");
        }
    }

    #[test]
    fn pruned_space_is_substantially_smaller_than_raw() {
        let n = count_valid();
        // Raw product is 829_440; the hard rules must prune aggressively,
        // but the space must remain rich (paper: "a huge amount of
        // potential implementations").
        assert!(n > 1_000, "space too small: {n}");
        assert!(n < 829_440, "no pruning happened: {n}");
    }

    #[test]
    fn enumeration_order_independent_of_tree_order() {
        let a: usize = SpaceIter::new().count();
        let b = SpaceIter::with_order_and_params(
            crate::space::order::A3_FIRST_ORDER.to_vec(),
            Params::footprint_optimised(),
        )
        .count();
        assert_eq!(a, b);
    }

    #[test]
    fn prune_safe_findings_point_at_earlier_enumerated_siblings() {
        // The static pruning contract: a prune-safe diagnostic may only
        // fire when the bit-identical canonical sibling enumerates
        // *earlier*, so a first-seen-minimum fold never loses a winner by
        // skipping the flagged candidate. Check it over the whole default
        // space against the actual DFS order.
        use crate::analyze::prune_reason;
        use crate::space::trees::{
            BlockTags, CoalesceMaxSizes, RecordedInfo, SplitMinSizes, SplitWhen,
        };
        use std::collections::HashMap;
        let key = |c: &DmConfig| -> Vec<Leaf> { TreeId::ALL.iter().map(|t| c.leaf(*t)).collect() };
        let all: Vec<DmConfig> = SpaceIter::new().collect();
        let index: HashMap<Vec<Leaf>, usize> =
            all.iter().enumerate().map(|(i, c)| (key(c), i)).collect();
        let mut pruned = 0usize;
        for (i, cfg) in all.iter().enumerate() {
            let Some(d) = prune_reason(cfg) else { continue };
            pruned += 1;
            let mut canon = cfg.clone();
            match d.code.as_str() {
                "DM030" => canon.recorded_info = RecordedInfo::Size,
                "DM031" => canon.block_tags = BlockTags::Header,
                "DM033" => canon.split_when = SplitWhen::Always,
                "DM034" => canon.split_min = SplitMinSizes::Unrestricted,
                "DM035" => canon.coalesce_max = CoalesceMaxSizes::Unlimited,
                other => panic!("unexpected prune-safe code {other}"),
            }
            let j = index
                .get(&key(&canon))
                .unwrap_or_else(|| panic!("canonical sibling of #{i} ({}) not enumerated", d.code));
            assert!(*j < i, "canonical sibling of #{i} enumerates later, at {j}");
        }
        assert!(
            pruned > 0,
            "default space contains prune-safe configurations"
        );
    }

    #[test]
    fn every_enumerated_config_has_a_well_defined_bound_rank() {
        // The branch-and-bound explorer ranks the enumeration by
        // (admissible floor, enumeration index). Over a prefix spanning
        // several A2 subtrees: the ranking must be a permutation of the
        // indices, sorted by that key, with every bound well-defined and
        // at least the configuration's static overhead.
        use crate::analyze::{bound_breakdown, lower_bound_peak, rank_by_bound, TraceFacts};
        use crate::units::MIN_BLOCK;

        let mut b = crate::trace::Trace::builder();
        let ids: Vec<u64> = (0..12).map(|i| b.alloc(24 + 16 * i)).collect();
        for id in ids {
            b.free(id);
        }
        let facts = TraceFacts::of(&b.finish().unwrap());

        let mut params = Params::footprint_optimised();
        params.profiled_classes = vec![MIN_BLOCK, 2 * MIN_BLOCK, 4 * MIN_BLOCK];
        let configs: Vec<DmConfig> =
            SpaceIter::with_order_and_params(crate::space::order::TRAVERSAL_ORDER.to_vec(), params)
                .take(2000)
                .collect();

        let ranked = rank_by_bound(&facts, &configs);
        assert_eq!(ranked.len(), configs.len());
        let mut seen: Vec<usize> = ranked.iter().map(|&(i, _)| i).collect();
        seen.sort_unstable();
        assert_eq!(
            seen,
            (0..configs.len()).collect::<Vec<_>>(),
            "not a permutation"
        );
        for w in ranked.windows(2) {
            let (ia, ba) = w[0];
            let (ib, bb) = w[1];
            assert!(
                ba < bb || (ba == bb && ia < ib),
                "ranking not sorted by (bound, index): ({ia},{ba}) before ({ib},{bb})"
            );
        }
        for &(i, bound) in &ranked {
            assert_eq!(
                bound,
                lower_bound_peak(&facts, &configs[i]),
                "rank caches the bound"
            );
            let breakdown = bound_breakdown(&facts, &configs[i]);
            assert_eq!(bound, breakdown.total());
            assert!(
                bound >= breakdown.static_overhead,
                "bound below static overhead for {}",
                configs[i].summary()
            );
        }
    }

    #[test]
    fn presets_are_points_of_the_enumerated_space() {
        use crate::space::presets;
        let all: HashSet<Vec<Leaf>> = SpaceIter::new()
            .map(|cfg| TreeId::ALL.iter().map(|t| cfg.leaf(*t)).collect())
            .collect();
        for preset in presets::all() {
            let key: Vec<Leaf> = TreeId::ALL.iter().map(|t| preset.leaf(*t)).collect();
            assert!(
                all.contains(&key),
                "preset '{}' not reachable by enumeration",
                preset.name
            );
        }
    }
}
