//! Complete and partial manager configurations.
//!
//! A [`DmConfig`] fixes one leaf in every decision tree plus the quantitative
//! [`Params`] that some leaves reference — together they fully determine one
//! *atomic* DM manager (Section 3.1 of the paper). A [`PartialConfig`] is the
//! working state of the methodology while it traverses the trees.

use serde::{Deserialize, Serialize};

use crate::error::{Error, Result};
use crate::space::interdep;
use crate::space::trees::{
    BlockSizes, BlockStructure, BlockTags, CoalesceMaxSizes, CoalesceWhen, FitAlgorithm,
    FlexibleSize, Leaf, PoolDivision, PoolStructure, RecordedInfo, SplitMinSizes, SplitWhen,
    TreeId,
};
use crate::units::{align_up, pow2_class, MIN_ALIGN, MIN_BLOCK, SBRK_GRANULARITY};

/// Quantitative parameters referenced by parameterised leaves.
///
/// The tree taxonomy is qualitative; the paper fixes these values "via
/// simulation" once the leaves are chosen (end of Section 5's DRR
/// walk-through). [`crate::methodology`] fills them from the profile.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Params {
    /// Size classes used when A2 = `ProfiledClasses` (bytes, strictly
    /// ascending, each at least `MIN_BLOCK` and a multiple of `MIN_ALIGN`).
    pub profiled_classes: Vec<usize>,
    /// Maximum merged-block size when D1 = `Capped`.
    pub coalesce_cap: usize,
    /// Smallest split remainder kept as its own block when E1 = `Floored`.
    pub split_floor: usize,
    /// Minimum remainder that triggers a split when E2 = `Threshold`.
    pub split_threshold: usize,
    /// Free space at the top of the arena larger than this is returned to
    /// the system (`None` = never return). The paper's custom managers
    /// return unused coalesced chunks; Lea trims above 128 KiB; Kingsley
    /// never returns memory.
    pub trim_threshold: Option<usize>,
    /// Optional hard capacity limit of the simulated arena.
    pub arena_limit: Option<usize>,
}

impl Params {
    /// Parameters matching an aggressive footprint-minimising manager.
    pub fn footprint_optimised() -> Self {
        Params {
            trim_threshold: Some(SBRK_GRANULARITY),
            ..Params::default()
        }
    }
}

impl Default for Params {
    fn default() -> Self {
        Params {
            profiled_classes: Vec::new(),
            coalesce_cap: 1 << 20,
            split_floor: 2 * MIN_BLOCK,
            split_threshold: 4 * MIN_BLOCK,
            trim_threshold: None,
            arena_limit: None,
        }
    }
}

/// A fully decided atomic-manager configuration: one leaf per tree.
///
/// Construct via [`DmConfig::builder`] (validating) or one of the presets in
/// [`crate::space::presets`].
///
/// # Examples
///
/// ```
/// use dmm_core::space::presets;
/// let cfg = presets::drr_paper();
/// assert!(cfg.validate().is_ok());
/// assert_eq!(cfg.tag_bytes_per_block(), 4); // header with packed size+status
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct DmConfig {
    /// Human-readable name (shows up in tables and reports).
    pub name: String,
    /// A1 — free-block bookkeeping structure.
    pub block_structure: BlockStructure,
    /// A2 — fixed vs. many block sizes.
    pub block_sizes: BlockSizes,
    /// A3 — tag placement.
    pub block_tags: BlockTags,
    /// A4 — tag contents.
    pub recorded_info: RecordedInfo,
    /// A5 — split/coalesce machinery.
    pub flexible_size: FlexibleSize,
    /// B1 — pool division criterion.
    pub pool_division: PoolDivision,
    /// B4 — pool index structure.
    pub pool_structure: PoolStructure,
    /// C1 — fit algorithm.
    pub fit: FitAlgorithm,
    /// D1 — coalescing size bound.
    pub coalesce_max: CoalesceMaxSizes,
    /// D2 — coalescing frequency.
    pub coalesce_when: CoalesceWhen,
    /// E1 — splitting size bound.
    pub split_min: SplitMinSizes,
    /// E2 — splitting frequency.
    pub split_when: SplitWhen,
    /// Quantitative parameters.
    pub params: Params,
}

impl DmConfig {
    /// Start building a configuration tree by tree.
    pub fn builder(name: impl Into<String>) -> DmConfigBuilder {
        DmConfigBuilder {
            name: name.into(),
            partial: PartialConfig::default(),
            params: Params::default(),
        }
    }

    /// The leaf chosen in `tree`.
    pub fn leaf(&self, tree: TreeId) -> Leaf {
        match tree {
            TreeId::A1BlockStructure => Leaf::A1(self.block_structure),
            TreeId::A2BlockSizes => Leaf::A2(self.block_sizes),
            TreeId::A3BlockTags => Leaf::A3(self.block_tags),
            TreeId::A4RecordedInfo => Leaf::A4(self.recorded_info),
            TreeId::A5FlexibleSize => Leaf::A5(self.flexible_size),
            TreeId::B1PoolDivision => Leaf::B1(self.pool_division),
            TreeId::B4PoolStructure => Leaf::B4(self.pool_structure),
            TreeId::C1FitAlgorithm => Leaf::C1(self.fit),
            TreeId::D1CoalesceMaxSizes => Leaf::D1(self.coalesce_max),
            TreeId::D2CoalesceWhen => Leaf::D2(self.coalesce_when),
            TreeId::E1SplitMinSizes => Leaf::E1(self.split_min),
            TreeId::E2SplitWhen => Leaf::E2(self.split_when),
        }
    }

    /// Replace the leaf of one tree, returning the modified configuration.
    ///
    /// Used by ablation studies; the result is **not** re-validated.
    pub fn with_leaf(mut self, leaf: Leaf) -> Self {
        self.set_leaf(leaf);
        self
    }

    pub(crate) fn set_leaf(&mut self, leaf: Leaf) {
        match leaf {
            Leaf::A1(l) => self.block_structure = l,
            Leaf::A2(l) => self.block_sizes = l,
            Leaf::A3(l) => self.block_tags = l,
            Leaf::A4(l) => self.recorded_info = l,
            Leaf::A5(l) => self.flexible_size = l,
            Leaf::B1(l) => self.pool_division = l,
            Leaf::B4(l) => self.pool_structure = l,
            Leaf::C1(l) => self.fit = l,
            Leaf::D1(l) => self.coalesce_max = l,
            Leaf::D2(l) => self.coalesce_when = l,
            Leaf::E1(l) => self.split_min = l,
            Leaf::E2(l) => self.split_when = l,
        }
    }

    /// View this configuration as a (fully decided) partial configuration.
    pub fn to_partial(&self) -> PartialConfig {
        let mut p = PartialConfig::default();
        for tree in TreeId::ALL {
            p.set(self.leaf(tree));
        }
        p
    }

    /// Check every interdependency rule and parameter constraint.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] naming the first violated rule.
    pub fn validate(&self) -> Result<()> {
        interdep::validate_complete(&self.to_partial())?;
        self.validate_params()
    }

    fn validate_params(&self) -> Result<()> {
        if self.block_sizes == BlockSizes::ProfiledClasses
            && self.params.profiled_classes.is_empty()
        {
            return Err(Error::InvalidConfig(
                "A2 = profiled classes requires a non-empty Params::profiled_classes".into(),
            ));
        }
        if !self.params.profiled_classes.windows(2).all(|w| w[0] < w[1]) {
            return Err(Error::InvalidConfig(
                "Params::profiled_classes must be strictly ascending".into(),
            ));
        }
        if self
            .params
            .profiled_classes
            .first()
            .is_some_and(|&c| c < MIN_BLOCK)
        {
            return Err(Error::InvalidConfig(format!(
                "profiled classes must be at least the minimum block of {MIN_BLOCK} bytes"
            )));
        }
        // A fixed-class grow slices granules into back-to-back blocks of
        // one class, so an unaligned class misaligns every block after the
        // first.
        if let Some(c) = self
            .params
            .profiled_classes
            .iter()
            .find(|&&c| !c.is_multiple_of(MIN_ALIGN))
        {
            return Err(Error::InvalidConfig(format!(
                "profiled class {c} is not a multiple of the {MIN_ALIGN}-byte alignment"
            )));
        }
        if self.split_when == SplitWhen::Threshold && self.params.split_threshold < MIN_BLOCK {
            return Err(Error::InvalidConfig(format!(
                "E2 = threshold requires Params::split_threshold >= {MIN_BLOCK}"
            )));
        }
        if self.split_min == SplitMinSizes::Floored && self.params.split_floor < MIN_BLOCK {
            return Err(Error::InvalidConfig(format!(
                "E1 = floored requires Params::split_floor >= {MIN_BLOCK}"
            )));
        }
        if self.coalesce_max == CoalesceMaxSizes::Capped && self.params.coalesce_cap < MIN_BLOCK {
            return Err(Error::InvalidConfig(format!(
                "D1 = capped requires Params::coalesce_cap >= {MIN_BLOCK}"
            )));
        }
        Ok(())
    }

    /// Bytes of tag overhead added to every allocated block
    /// (A3 placement copies × A4 field width).
    pub fn tag_bytes_per_block(&self) -> usize {
        self.block_tags.copies() * self.recorded_info.field_bytes()
    }

    /// Round a block length according to the A2 decision — the single
    /// definition of class rounding, shared by the pool router
    /// ([`crate::manager::pools::Pools::class_len`] delegates here) and
    /// the footprint-bound abstract interpreter
    /// ([`crate::analyze::bounds`]), so the two can never drift.
    pub fn class_len(&self, len: usize) -> usize {
        class_len_for(self.block_sizes, &self.params.profiled_classes, len)
    }

    /// The exact block span the policy allocator carves for a request of
    /// `req` payload bytes: tag overhead added, alignment and minimum-block
    /// rounding applied, then classed per A2. Mirrors the policy's own
    /// `block_len_for`; monotone non-decreasing in `req`.
    pub fn block_len_for(&self, req: usize) -> usize {
        let padded = align_up(req + self.tag_bytes_per_block(), MIN_ALIGN).max(MIN_BLOCK);
        self.class_len(padded)
    }

    /// Whether the policy may split free blocks.
    pub fn may_split(&self) -> bool {
        self.flexible_size.allows_split() && self.split_when != SplitWhen::Never
    }

    /// Whether the policy may coalesce free blocks.
    pub fn may_coalesce(&self) -> bool {
        self.flexible_size.allows_coalesce() && self.coalesce_when != CoalesceWhen::Never
    }

    /// A 64-bit structural fingerprint of the configuration: the twelve
    /// decided leaves plus the quantitative parameters. The display name
    /// is **excluded** — two managers that differ only in their label
    /// behave identically and fingerprint identically. Used by the
    /// exploration engine's replay cache to identify duplicate candidate
    /// completions.
    pub fn fingerprint(&self) -> u64 {
        use std::hash::{Hash as _, Hasher as _};
        let mut h = std::collections::hash_map::DefaultHasher::new();
        for tree in TreeId::ALL {
            self.leaf(tree).hash(&mut h);
        }
        self.params.hash(&mut h);
        h.finish()
    }

    /// One-line summary of the twelve decisions, in traversal order.
    pub fn summary(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        for (i, tree) in crate::space::order::TRAVERSAL_ORDER.iter().enumerate() {
            if i > 0 {
                s.push_str("; ");
            }
            let _ = write!(s, "{}={}", tree.code(), self.leaf(*tree));
        }
        s
    }
}

/// The A2 class rounding itself, over raw leaf + class list — the one
/// implementation behind [`DmConfig::class_len`] and
/// [`crate::manager::pools::Pools::class_len`]. Profiled lengths above the
/// largest class fall through to plain alignment rounding (the overflow
/// pool stores exact, aligned lengths).
pub fn class_len_for(sizes: BlockSizes, profiled: &[usize], len: usize) -> usize {
    match sizes {
        BlockSizes::Many => len,
        BlockSizes::PowerOfTwoClasses => pow2_class(len),
        BlockSizes::ProfiledClasses => profiled
            .iter()
            .copied()
            .find(|&c| c >= len)
            .unwrap_or_else(|| align_up(len.max(MIN_BLOCK), MIN_ALIGN)),
    }
}

/// Builder for [`DmConfig`] that validates the interdependency rules at
/// every step (C-BUILDER).
///
/// # Examples
///
/// ```
/// use dmm_core::space::config::DmConfig;
/// use dmm_core::space::trees::*;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let cfg = DmConfig::builder("demo")
///     .leaf(Leaf::A2(BlockSizes::Many))?
///     .leaf(Leaf::A5(FlexibleSize::SplitAndCoalesce))?
///     .leaf(Leaf::E2(SplitWhen::Always))?
///     .leaf(Leaf::D2(CoalesceWhen::Always))?
///     .build()?;
/// assert!(cfg.may_split() && cfg.may_coalesce());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct DmConfigBuilder {
    name: String,
    partial: PartialConfig,
    params: Params,
}

impl DmConfigBuilder {
    /// Fix one leaf, checking it is admissible given the decisions so far.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] if the leaf violates an
    /// interdependency rule against an already decided tree.
    pub fn leaf(mut self, leaf: Leaf) -> Result<Self> {
        let admissible = interdep::admissible_leaves(leaf.tree(), &self.partial);
        if !admissible.contains(&leaf) {
            // Name the rule(s) the trial decision would break — the same
            // table (and codes) `dmm lint` reports against.
            let mut trial = self.partial.clone();
            trial.set(leaf);
            let broken: Vec<String> = interdep::violations(&trial)
                .iter()
                .map(|r| format!("{} [{}]", r.id, r.code))
                .collect();
            let why = if broken.is_empty() {
                "conflicts with earlier decisions".to_string()
            } else {
                format!("violates {}", broken.join(", "))
            };
            return Err(Error::InvalidConfig(format!(
                "leaf '{leaf}' of tree {} {why}",
                leaf.tree().code()
            )));
        }
        self.partial.set(leaf);
        Ok(self)
    }

    /// Set the quantitative parameters.
    pub fn params(mut self, params: Params) -> Self {
        self.params = params;
        self
    }

    /// Finish, filling every undecided tree with its preferred admissible
    /// default (see [`interdep::default_leaf`]).
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] if some tree has no admissible leaf
    /// left or the parameters violate a chosen leaf's requirements.
    pub fn build(mut self) -> Result<DmConfig> {
        for tree in crate::space::order::TRAVERSAL_ORDER {
            if self.partial.get(*tree).is_none() {
                let leaf = interdep::default_leaf(*tree, &self.partial)?;
                self.partial.set(leaf);
            }
        }
        let cfg = self.partial.freeze(self.name, self.params)?;
        cfg.validate()?;
        Ok(cfg)
    }
}

/// A configuration under construction: each tree is either decided or open.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PartialConfig {
    a1: Option<BlockStructure>,
    a2: Option<BlockSizes>,
    a3: Option<BlockTags>,
    a4: Option<RecordedInfo>,
    a5: Option<FlexibleSize>,
    b1: Option<PoolDivision>,
    b4: Option<PoolStructure>,
    c1: Option<FitAlgorithm>,
    d1: Option<CoalesceMaxSizes>,
    d2: Option<CoalesceWhen>,
    e1: Option<SplitMinSizes>,
    e2: Option<SplitWhen>,
}

impl PartialConfig {
    /// The decision taken in `tree`, if any.
    pub fn get(&self, tree: TreeId) -> Option<Leaf> {
        match tree {
            TreeId::A1BlockStructure => self.a1.map(Leaf::A1),
            TreeId::A2BlockSizes => self.a2.map(Leaf::A2),
            TreeId::A3BlockTags => self.a3.map(Leaf::A3),
            TreeId::A4RecordedInfo => self.a4.map(Leaf::A4),
            TreeId::A5FlexibleSize => self.a5.map(Leaf::A5),
            TreeId::B1PoolDivision => self.b1.map(Leaf::B1),
            TreeId::B4PoolStructure => self.b4.map(Leaf::B4),
            TreeId::C1FitAlgorithm => self.c1.map(Leaf::C1),
            TreeId::D1CoalesceMaxSizes => self.d1.map(Leaf::D1),
            TreeId::D2CoalesceWhen => self.d2.map(Leaf::D2),
            TreeId::E1SplitMinSizes => self.e1.map(Leaf::E1),
            TreeId::E2SplitWhen => self.e2.map(Leaf::E2),
        }
    }

    /// Record a decision (overwrites any previous one for the same tree).
    pub fn set(&mut self, leaf: Leaf) {
        match leaf {
            Leaf::A1(l) => self.a1 = Some(l),
            Leaf::A2(l) => self.a2 = Some(l),
            Leaf::A3(l) => self.a3 = Some(l),
            Leaf::A4(l) => self.a4 = Some(l),
            Leaf::A5(l) => self.a5 = Some(l),
            Leaf::B1(l) => self.b1 = Some(l),
            Leaf::B4(l) => self.b4 = Some(l),
            Leaf::C1(l) => self.c1 = Some(l),
            Leaf::D1(l) => self.d1 = Some(l),
            Leaf::D2(l) => self.d2 = Some(l),
            Leaf::E1(l) => self.e1 = Some(l),
            Leaf::E2(l) => self.e2 = Some(l),
        }
    }

    /// Re-open a tree.
    pub fn clear(&mut self, tree: TreeId) {
        match tree {
            TreeId::A1BlockStructure => self.a1 = None,
            TreeId::A2BlockSizes => self.a2 = None,
            TreeId::A3BlockTags => self.a3 = None,
            TreeId::A4RecordedInfo => self.a4 = None,
            TreeId::A5FlexibleSize => self.a5 = None,
            TreeId::B1PoolDivision => self.b1 = None,
            TreeId::B4PoolStructure => self.b4 = None,
            TreeId::C1FitAlgorithm => self.c1 = None,
            TreeId::D1CoalesceMaxSizes => self.d1 = None,
            TreeId::D2CoalesceWhen => self.d2 = None,
            TreeId::E1SplitMinSizes => self.e1 = None,
            TreeId::E2SplitWhen => self.e2 = None,
        }
    }

    /// Number of decided trees.
    pub fn decided_count(&self) -> usize {
        TreeId::ALL
            .iter()
            .filter(|t| self.get(**t).is_some())
            .count()
    }

    /// Whether every tree is decided.
    pub fn is_complete(&self) -> bool {
        self.decided_count() == TreeId::ALL.len()
    }

    /// Turn a complete partial configuration into a [`DmConfig`].
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] if any tree is still open.
    pub fn freeze(self, name: impl Into<String>, params: Params) -> Result<DmConfig> {
        fn missing<T>(o: Option<T>, code: &str) -> Result<T> {
            o.ok_or_else(|| Error::InvalidConfig(format!("tree {code} is undecided")))
        }
        Ok(DmConfig {
            name: name.into(),
            block_structure: missing(self.a1, "A1")?,
            block_sizes: missing(self.a2, "A2")?,
            block_tags: missing(self.a3, "A3")?,
            recorded_info: missing(self.a4, "A4")?,
            flexible_size: missing(self.a5, "A5")?,
            pool_division: missing(self.b1, "B1")?,
            pool_structure: missing(self.b4, "B4")?,
            fit: missing(self.c1, "C1")?,
            coalesce_max: missing(self.d1, "D1")?,
            coalesce_when: missing(self.d2, "D2")?,
            split_min: missing(self.e1, "E1")?,
            split_when: missing(self.e2, "E2")?,
            params,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::presets;

    #[test]
    fn builder_rejects_conflicting_leaf() {
        // A3 = None followed by A4 = Size violates R1.
        let b = DmConfig::builder("bad")
            .leaf(Leaf::A3(BlockTags::None))
            .unwrap();
        let err = b.leaf(Leaf::A4(RecordedInfo::Size)).unwrap_err();
        assert!(matches!(err, Error::InvalidConfig(_)));
        // The message names the broken rule and its diagnostic code, not
        // just generic "conflict" prose.
        let msg = err.to_string();
        assert!(msg.contains("R1a") && msg.contains("DM001"), "{msg}");
    }

    #[test]
    fn builder_fills_defaults_consistently() {
        let cfg = DmConfig::builder("defaults").build().unwrap();
        cfg.validate().unwrap();
    }

    #[test]
    fn builder_propagates_none_tags_to_no_split() {
        let cfg = DmConfig::builder("tagless")
            .leaf(Leaf::A3(BlockTags::None))
            .unwrap()
            .build()
            .unwrap();
        // Figure 3: None tags force the recorded-info tree to none and
        // disable the flexible-size machinery.
        assert_eq!(cfg.recorded_info, RecordedInfo::None);
        assert_eq!(cfg.flexible_size, FlexibleSize::None);
        assert!(!cfg.may_split());
        assert!(!cfg.may_coalesce());
    }

    #[test]
    fn complete_partial_round_trips() {
        let cfg = presets::drr_paper();
        let partial = cfg.to_partial();
        assert!(partial.is_complete());
        let back = partial
            .freeze(cfg.name.clone(), cfg.params.clone())
            .unwrap();
        assert_eq!(back, cfg);
    }

    #[test]
    fn freeze_rejects_incomplete() {
        let p = PartialConfig::default();
        assert!(p.freeze("x", Params::default()).is_err());
    }

    #[test]
    fn params_validation_catches_bad_classes() {
        let mut cfg = presets::kingsley_like();
        cfg.block_sizes = BlockSizes::ProfiledClasses;
        cfg.params.profiled_classes = vec![];
        assert!(cfg.validate().is_err());
        cfg.params.profiled_classes = vec![64, 32]; // not ascending
        assert!(cfg.validate().is_err());
        cfg.params.profiled_classes = vec![8, 32]; // below MIN_BLOCK
        assert!(cfg.validate().is_err());
        cfg.params.profiled_classes = vec![20, 36]; // not MIN_ALIGN multiples
        assert!(cfg.validate().is_err());
        cfg.params.profiled_classes = vec![32, 64];
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn with_leaf_replaces_single_tree() {
        let cfg = presets::drr_paper().with_leaf(Leaf::C1(FitAlgorithm::BestFit));
        assert_eq!(cfg.fit, FitAlgorithm::BestFit);
        assert_eq!(cfg.block_sizes, presets::drr_paper().block_sizes);
    }

    #[test]
    fn summary_mentions_every_tree_code() {
        let s = presets::drr_paper().summary();
        for tree in TreeId::ALL {
            assert!(s.contains(tree.code()), "summary missing {}", tree.code());
        }
    }

    #[test]
    fn serde_round_trip() {
        let cfg = presets::lea_like();
        let json = serde_json::to_string(&cfg).unwrap();
        let back: DmConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(back, cfg);
    }
}
