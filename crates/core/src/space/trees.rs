//! The orthogonal decision trees of the DM-management search space
//! (Figure 1 of the paper).
//!
//! Five categories group twelve decision trees. Choosing one leaf in every
//! tree defines one *atomic* DM manager. Quantitative parameters attached to
//! some leaves (size-class sets, thresholds, caps) are not part of the tree
//! taxonomy itself; they live in [`crate::space::config::Params`] and are
//! fixed "via simulation" exactly as Section 5 of the paper describes.

use std::fmt;

/// The five decision categories of Figure 1.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, serde::Serialize, serde::Deserialize,
)]
pub enum Category {
    /// A. Creating block structures.
    CreatingBlockStructures,
    /// B. Pool division based on (criterion).
    PoolDivision,
    /// C. Allocating blocks.
    AllocatingBlocks,
    /// D. Coalescing blocks.
    CoalescingBlocks,
    /// E. Splitting blocks.
    SplittingBlocks,
}

impl Category {
    /// All categories in the paper's A→E order.
    pub const ALL: [Category; 5] = [
        Category::CreatingBlockStructures,
        Category::PoolDivision,
        Category::AllocatingBlocks,
        Category::CoalescingBlocks,
        Category::SplittingBlocks,
    ];

    /// The paper's single-letter label.
    pub fn letter(self) -> char {
        match self {
            Category::CreatingBlockStructures => 'A',
            Category::PoolDivision => 'B',
            Category::AllocatingBlocks => 'C',
            Category::CoalescingBlocks => 'D',
            Category::SplittingBlocks => 'E',
        }
    }
}

impl fmt::Display for Category {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            Category::CreatingBlockStructures => "Creating block structures",
            Category::PoolDivision => "Pool division based on",
            Category::AllocatingBlocks => "Allocating blocks",
            Category::CoalescingBlocks => "Coalescing blocks",
            Category::SplittingBlocks => "Splitting blocks",
        };
        write!(f, "{}. {}", self.letter(), name)
    }
}

/// Identifier of one decision tree.
///
/// Numbering follows the paper's prose. The traversal-order string in
/// Section 4.2 writes "B4→B1"; we map **B4 ≙ pool structure** and
/// **B1 ≙ pool division by size** (see DESIGN.md §1).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, serde::Serialize, serde::Deserialize,
)]
pub enum TreeId {
    /// A1 — Block structure: the dynamic data type that organises free blocks.
    A1BlockStructure,
    /// A2 — Block sizes: one fixed set of sizes vs. arbitrarily many.
    A2BlockSizes,
    /// A3 — Block tags: where per-block bookkeeping fields live.
    A3BlockTags,
    /// A4 — Block recorded info: what the tags store.
    A4RecordedInfo,
    /// A5 — Flexible block size manager: whether split/coalesce machinery exists.
    A5FlexibleSize,
    /// B1 — Pool division based on size.
    B1PoolDivision,
    /// B4 — Pool structure: the dynamic data type that indexes the pools.
    B4PoolStructure,
    /// C1 — Fit algorithm used to pick a free block.
    C1FitAlgorithm,
    /// D1 — Number of max block sizes allowed after coalescing.
    D1CoalesceMaxSizes,
    /// D2 — When coalescing is performed.
    D2CoalesceWhen,
    /// E1 — Number of min block sizes allowed after splitting.
    E1SplitMinSizes,
    /// E2 — When splitting is performed.
    E2SplitWhen,
}

impl TreeId {
    /// All twelve trees, in category order (A1..A5, B1, B4, C1, D1, D2, E1, E2).
    pub const ALL: [TreeId; 12] = [
        TreeId::A1BlockStructure,
        TreeId::A2BlockSizes,
        TreeId::A3BlockTags,
        TreeId::A4RecordedInfo,
        TreeId::A5FlexibleSize,
        TreeId::B1PoolDivision,
        TreeId::B4PoolStructure,
        TreeId::C1FitAlgorithm,
        TreeId::D1CoalesceMaxSizes,
        TreeId::D2CoalesceWhen,
        TreeId::E1SplitMinSizes,
        TreeId::E2SplitWhen,
    ];

    /// The category this tree belongs to.
    pub fn category(self) -> Category {
        match self {
            TreeId::A1BlockStructure
            | TreeId::A2BlockSizes
            | TreeId::A3BlockTags
            | TreeId::A4RecordedInfo
            | TreeId::A5FlexibleSize => Category::CreatingBlockStructures,
            TreeId::B1PoolDivision | TreeId::B4PoolStructure => Category::PoolDivision,
            TreeId::C1FitAlgorithm => Category::AllocatingBlocks,
            TreeId::D1CoalesceMaxSizes | TreeId::D2CoalesceWhen => Category::CoalescingBlocks,
            TreeId::E1SplitMinSizes | TreeId::E2SplitWhen => Category::SplittingBlocks,
        }
    }

    /// Paper-style short code, e.g. `"A2"`.
    pub fn code(self) -> &'static str {
        match self {
            TreeId::A1BlockStructure => "A1",
            TreeId::A2BlockSizes => "A2",
            TreeId::A3BlockTags => "A3",
            TreeId::A4RecordedInfo => "A4",
            TreeId::A5FlexibleSize => "A5",
            TreeId::B1PoolDivision => "B1",
            TreeId::B4PoolStructure => "B4",
            TreeId::C1FitAlgorithm => "C1",
            TreeId::D1CoalesceMaxSizes => "D1",
            TreeId::D2CoalesceWhen => "D2",
            TreeId::E1SplitMinSizes => "E1",
            TreeId::E2SplitWhen => "E2",
        }
    }

    /// Human-readable tree name as used in the paper.
    pub fn paper_name(self) -> &'static str {
        match self {
            TreeId::A1BlockStructure => "Block structure",
            TreeId::A2BlockSizes => "Block sizes",
            TreeId::A3BlockTags => "Block tags",
            TreeId::A4RecordedInfo => "Block recorded info",
            TreeId::A5FlexibleSize => "Flexible block size manager",
            TreeId::B1PoolDivision => "Pool division based on size",
            TreeId::B4PoolStructure => "Pool structure",
            TreeId::C1FitAlgorithm => "Fit algorithms",
            TreeId::D1CoalesceMaxSizes => "Number of max block size",
            TreeId::D2CoalesceWhen => "When (coalescing)",
            TreeId::E1SplitMinSizes => "Number of min block size",
            TreeId::E2SplitWhen => "When (splitting)",
        }
    }

    /// Every leaf of this tree, wrapped in the type-erased [`Leaf`] enum.
    pub fn leaves(self) -> Vec<Leaf> {
        match self {
            TreeId::A1BlockStructure => BlockStructure::ALL.iter().copied().map(Leaf::A1).collect(),
            TreeId::A2BlockSizes => BlockSizes::ALL.iter().copied().map(Leaf::A2).collect(),
            TreeId::A3BlockTags => BlockTags::ALL.iter().copied().map(Leaf::A3).collect(),
            TreeId::A4RecordedInfo => RecordedInfo::ALL.iter().copied().map(Leaf::A4).collect(),
            TreeId::A5FlexibleSize => FlexibleSize::ALL.iter().copied().map(Leaf::A5).collect(),
            TreeId::B1PoolDivision => PoolDivision::ALL.iter().copied().map(Leaf::B1).collect(),
            TreeId::B4PoolStructure => PoolStructure::ALL.iter().copied().map(Leaf::B4).collect(),
            TreeId::C1FitAlgorithm => FitAlgorithm::ALL.iter().copied().map(Leaf::C1).collect(),
            TreeId::D1CoalesceMaxSizes => CoalesceMaxSizes::ALL
                .iter()
                .copied()
                .map(Leaf::D1)
                .collect(),
            TreeId::D2CoalesceWhen => CoalesceWhen::ALL.iter().copied().map(Leaf::D2).collect(),
            TreeId::E1SplitMinSizes => SplitMinSizes::ALL.iter().copied().map(Leaf::E1).collect(),
            TreeId::E2SplitWhen => SplitWhen::ALL.iter().copied().map(Leaf::E2).collect(),
        }
    }
}

impl fmt::Display for TreeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ({})", self.code(), self.paper_name())
    }
}

/// A1 — dynamic data type organising the free blocks inside a pool.
///
/// These are the "combinations of dynamic data types required to construct
/// any dynamic data representation" the paper imports from Daylight et al.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, serde::Serialize, serde::Deserialize,
)]
pub enum BlockStructure {
    /// LIFO singly-linked free list; cheapest fields, O(n) unlink.
    SinglyLinkedList,
    /// Doubly-linked free list; O(1) unlink (needed for cheap immediate
    /// coalescing), one extra pointer per free block.
    DoublyLinkedList,
    /// Free list kept sorted by block address; enables sweep coalescing.
    AddressOrderedList,
    /// Balanced tree ordered by (size, address); O(log n) best/exact fit.
    SizeOrderedTree,
}

impl BlockStructure {
    /// All leaves of tree A1.
    pub const ALL: [BlockStructure; 4] = [
        BlockStructure::SinglyLinkedList,
        BlockStructure::DoublyLinkedList,
        BlockStructure::AddressOrderedList,
        BlockStructure::SizeOrderedTree,
    ];
}

impl fmt::Display for BlockStructure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            BlockStructure::SinglyLinkedList => "singly linked list",
            BlockStructure::DoublyLinkedList => "doubly linked list",
            BlockStructure::AddressOrderedList => "address-ordered list",
            BlockStructure::SizeOrderedTree => "size-ordered tree",
        })
    }
}

/// A2 — the set of block sizes the manager deals in.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, serde::Serialize, serde::Deserialize,
)]
pub enum BlockSizes {
    /// Blocks may take any (aligned) size — "many / not fixed".
    Many,
    /// Blocks are rounded to power-of-two classes (Kingsley-style).
    PowerOfTwoClasses,
    /// Blocks are rounded to an application-profiled class set
    /// ([`crate::space::config::Params::profiled_classes`]).
    ProfiledClasses,
}

impl BlockSizes {
    /// All leaves of tree A2.
    pub const ALL: [BlockSizes; 3] = [
        BlockSizes::Many,
        BlockSizes::PowerOfTwoClasses,
        BlockSizes::ProfiledClasses,
    ];

    /// Whether this leaf fixes block sizes to a finite class set.
    pub fn is_fixed(self) -> bool {
        !matches!(self, BlockSizes::Many)
    }
}

impl fmt::Display for BlockSizes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            BlockSizes::Many => "many (not fixed)",
            BlockSizes::PowerOfTwoClasses => "fixed: power-of-two classes",
            BlockSizes::ProfiledClasses => "fixed: profiled classes",
        })
    }
}

/// A3 — where the per-block bookkeeping fields are placed.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, serde::Serialize, serde::Deserialize,
)]
pub enum BlockTags {
    /// No tag at all; zero overhead, but the manager cannot learn a block's
    /// size or status at free time (Figure 3's restricting leaf).
    None,
    /// A header before the payload.
    Header,
    /// A footer after the payload (boundary tag).
    Footer,
    /// Both header and footer; doubles the field cost, gives O(1) access to
    /// both physical neighbours.
    HeaderAndFooter,
}

impl BlockTags {
    /// All leaves of tree A3.
    pub const ALL: [BlockTags; 4] = [
        BlockTags::None,
        BlockTags::Header,
        BlockTags::Footer,
        BlockTags::HeaderAndFooter,
    ];

    /// Number of tag copies stored per block.
    pub fn copies(self) -> usize {
        match self {
            BlockTags::None => 0,
            BlockTags::Header | BlockTags::Footer => 1,
            BlockTags::HeaderAndFooter => 2,
        }
    }
}

impl fmt::Display for BlockTags {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            BlockTags::None => "none",
            BlockTags::Header => "header",
            BlockTags::Footer => "footer",
            BlockTags::HeaderAndFooter => "header and footer",
        })
    }
}

/// A4 — what each tag records.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, serde::Serialize, serde::Deserialize,
)]
pub enum RecordedInfo {
    /// Nothing is recorded (only valid with [`BlockTags::None`]).
    None,
    /// Block size only (status is implied by free-list membership).
    Size,
    /// Size plus an in-use status bit (packed into the size word).
    SizeAndStatus,
    /// Size, status and the previous neighbour's size — allows backwards
    /// coalescing without a footer (dlmalloc-style `prev_size`).
    SizeStatusPrevSize,
}

impl RecordedInfo {
    /// All leaves of tree A4.
    pub const ALL: [RecordedInfo; 4] = [
        RecordedInfo::None,
        RecordedInfo::Size,
        RecordedInfo::SizeAndStatus,
        RecordedInfo::SizeStatusPrevSize,
    ];

    /// Bytes one copy of this record occupies on the modelled target.
    pub fn field_bytes(self) -> usize {
        use crate::units::SIZE_FIELD_BYTES;
        match self {
            RecordedInfo::None => 0,
            // Status is packed into the low bit of the size word, so
            // `Size` and `SizeAndStatus` cost the same.
            RecordedInfo::Size | RecordedInfo::SizeAndStatus => SIZE_FIELD_BYTES,
            RecordedInfo::SizeStatusPrevSize => 2 * SIZE_FIELD_BYTES,
        }
    }

    /// Whether the record includes the block size.
    pub fn knows_size(self) -> bool {
        !matches!(self, RecordedInfo::None)
    }

    /// Whether the record includes a free/used status bit.
    pub fn knows_status(self) -> bool {
        matches!(
            self,
            RecordedInfo::SizeAndStatus | RecordedInfo::SizeStatusPrevSize
        )
    }

    /// Whether the record lets the manager locate the *previous* physical
    /// neighbour (needed for immediate backwards coalescing without a footer).
    pub fn knows_prev(self) -> bool {
        matches!(self, RecordedInfo::SizeStatusPrevSize)
    }
}

impl fmt::Display for RecordedInfo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            RecordedInfo::None => "none",
            RecordedInfo::Size => "size",
            RecordedInfo::SizeAndStatus => "size + status",
            RecordedInfo::SizeStatusPrevSize => "size + status + prev size",
        })
    }
}

/// A5 — whether the flexible-block-size machinery (split/coalesce) exists.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, serde::Serialize, serde::Deserialize,
)]
pub enum FlexibleSize {
    /// Block sizes are immutable once carved.
    None,
    /// Only splitting is available.
    SplitOnly,
    /// Only coalescing is available.
    CoalesceOnly,
    /// Both splitting and coalescing are available (the paper's DRR choice).
    SplitAndCoalesce,
}

impl FlexibleSize {
    /// All leaves of tree A5.
    pub const ALL: [FlexibleSize; 4] = [
        FlexibleSize::None,
        FlexibleSize::SplitOnly,
        FlexibleSize::CoalesceOnly,
        FlexibleSize::SplitAndCoalesce,
    ];

    /// Whether splitting is permitted.
    pub fn allows_split(self) -> bool {
        matches!(
            self,
            FlexibleSize::SplitOnly | FlexibleSize::SplitAndCoalesce
        )
    }

    /// Whether coalescing is permitted.
    pub fn allows_coalesce(self) -> bool {
        matches!(
            self,
            FlexibleSize::CoalesceOnly | FlexibleSize::SplitAndCoalesce
        )
    }
}

impl fmt::Display for FlexibleSize {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            FlexibleSize::None => "none",
            FlexibleSize::SplitOnly => "split only",
            FlexibleSize::CoalesceOnly => "coalesce only",
            FlexibleSize::SplitAndCoalesce => "split and coalesce",
        })
    }
}

/// B1 — how the heap is divided into pools.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, serde::Serialize, serde::Deserialize,
)]
pub enum PoolDivision {
    /// One pool holds blocks of every size (the paper's DRR choice).
    SinglePool,
    /// One pool per block-size class (segregated storage).
    PoolPerSizeClass,
}

impl PoolDivision {
    /// All leaves of tree B1.
    pub const ALL: [PoolDivision; 2] = [PoolDivision::SinglePool, PoolDivision::PoolPerSizeClass];
}

impl fmt::Display for PoolDivision {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            PoolDivision::SinglePool => "single pool",
            PoolDivision::PoolPerSizeClass => "one pool per size class",
        })
    }
}

/// B4 — the dynamic data type that indexes the pools themselves.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, serde::Serialize, serde::Deserialize,
)]
pub enum PoolStructure {
    /// Dense array indexed by class id; O(1) routing, fixed overhead.
    Array,
    /// Linked list of pool descriptors; O(#pools) routing, minimal overhead.
    LinkedList,
    /// Balanced tree keyed by class size; O(log #pools) routing.
    BinaryTree,
}

impl PoolStructure {
    /// All leaves of tree B4.
    pub const ALL: [PoolStructure; 3] = [
        PoolStructure::Array,
        PoolStructure::LinkedList,
        PoolStructure::BinaryTree,
    ];
}

impl fmt::Display for PoolStructure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            PoolStructure::Array => "array",
            PoolStructure::LinkedList => "linked list",
            PoolStructure::BinaryTree => "binary tree",
        })
    }
}

/// C1 — fit algorithm used to select a free block.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, serde::Serialize, serde::Deserialize,
)]
pub enum FitAlgorithm {
    /// First block that fits, scanning from the head.
    FirstFit,
    /// First block that fits, scanning from a roving pointer.
    NextFit,
    /// Smallest block that fits.
    BestFit,
    /// Largest block (maximises the usable remainder after splitting).
    WorstFit,
    /// Only a block of exactly the requested size (the paper's DRR choice;
    /// misses fall through to splitting/coalescing/sbrk).
    ExactFit,
}

impl FitAlgorithm {
    /// All leaves of tree C1.
    pub const ALL: [FitAlgorithm; 5] = [
        FitAlgorithm::FirstFit,
        FitAlgorithm::NextFit,
        FitAlgorithm::BestFit,
        FitAlgorithm::WorstFit,
        FitAlgorithm::ExactFit,
    ];
}

impl fmt::Display for FitAlgorithm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            FitAlgorithm::FirstFit => "first fit",
            FitAlgorithm::NextFit => "next fit",
            FitAlgorithm::BestFit => "best fit",
            FitAlgorithm::WorstFit => "worst fit",
            FitAlgorithm::ExactFit => "exact fit",
        })
    }
}

/// D1 — block sizes allowed to result from coalescing.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, serde::Serialize, serde::Deserialize,
)]
pub enum CoalesceMaxSizes {
    /// "Many and not fixed": merged blocks may grow without bound
    /// (the paper's DRR choice).
    Unlimited,
    /// Merged blocks may not exceed [`crate::space::config::Params::coalesce_cap`].
    Capped,
}

impl CoalesceMaxSizes {
    /// All leaves of tree D1.
    pub const ALL: [CoalesceMaxSizes; 2] = [CoalesceMaxSizes::Unlimited, CoalesceMaxSizes::Capped];
}

impl fmt::Display for CoalesceMaxSizes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            CoalesceMaxSizes::Unlimited => "many, not fixed",
            CoalesceMaxSizes::Capped => "fixed maximum",
        })
    }
}

/// D2 — how often coalescing runs.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, serde::Serialize, serde::Deserialize,
)]
pub enum CoalesceWhen {
    /// Never coalesce (Kingsley).
    Never,
    /// Coalesce with physical neighbours at every free — the paper's
    /// "always" leaf.
    Always,
    /// Defer: sweep-coalesce the whole pool only when an allocation misses
    /// (Lea-style laziness).
    Deferred,
}

impl CoalesceWhen {
    /// All leaves of tree D2.
    pub const ALL: [CoalesceWhen; 3] = [
        CoalesceWhen::Never,
        CoalesceWhen::Always,
        CoalesceWhen::Deferred,
    ];
}

impl fmt::Display for CoalesceWhen {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            CoalesceWhen::Never => "never",
            CoalesceWhen::Always => "always",
            CoalesceWhen::Deferred => "deferred (on allocation miss)",
        })
    }
}

/// E1 — block sizes allowed to result from splitting.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, serde::Serialize, serde::Deserialize,
)]
pub enum SplitMinSizes {
    /// "Many and not fixed": remainders may shrink to the heap minimum
    /// (the paper's DRR choice).
    Unrestricted,
    /// Remainders below [`crate::space::config::Params::split_floor`] are
    /// left attached as internal fragmentation.
    Floored,
}

impl SplitMinSizes {
    /// All leaves of tree E1.
    pub const ALL: [SplitMinSizes; 2] = [SplitMinSizes::Unrestricted, SplitMinSizes::Floored];
}

impl fmt::Display for SplitMinSizes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            SplitMinSizes::Unrestricted => "many, not fixed",
            SplitMinSizes::Floored => "fixed minimum",
        })
    }
}

/// E2 — how often splitting runs.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, serde::Serialize, serde::Deserialize,
)]
pub enum SplitWhen {
    /// Never split.
    Never,
    /// Split whenever the remainder is usable — the paper's "always" leaf.
    Always,
    /// Split only when the remainder exceeds
    /// [`crate::space::config::Params::split_threshold`].
    Threshold,
}

impl SplitWhen {
    /// All leaves of tree E2.
    pub const ALL: [SplitWhen; 3] = [SplitWhen::Never, SplitWhen::Always, SplitWhen::Threshold];
}

impl fmt::Display for SplitWhen {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            SplitWhen::Never => "never",
            SplitWhen::Always => "always",
            SplitWhen::Threshold => "above threshold",
        })
    }
}

/// A type-erased leaf: one choice in one tree.
///
/// Used by the generic methodology traversal and the interdependency engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum Leaf {
    /// Leaf of tree A1.
    A1(BlockStructure),
    /// Leaf of tree A2.
    A2(BlockSizes),
    /// Leaf of tree A3.
    A3(BlockTags),
    /// Leaf of tree A4.
    A4(RecordedInfo),
    /// Leaf of tree A5.
    A5(FlexibleSize),
    /// Leaf of tree B1.
    B1(PoolDivision),
    /// Leaf of tree B4.
    B4(PoolStructure),
    /// Leaf of tree C1.
    C1(FitAlgorithm),
    /// Leaf of tree D1.
    D1(CoalesceMaxSizes),
    /// Leaf of tree D2.
    D2(CoalesceWhen),
    /// Leaf of tree E1.
    E1(SplitMinSizes),
    /// Leaf of tree E2.
    E2(SplitWhen),
}

impl Leaf {
    /// The tree this leaf belongs to.
    pub fn tree(self) -> TreeId {
        match self {
            Leaf::A1(_) => TreeId::A1BlockStructure,
            Leaf::A2(_) => TreeId::A2BlockSizes,
            Leaf::A3(_) => TreeId::A3BlockTags,
            Leaf::A4(_) => TreeId::A4RecordedInfo,
            Leaf::A5(_) => TreeId::A5FlexibleSize,
            Leaf::B1(_) => TreeId::B1PoolDivision,
            Leaf::B4(_) => TreeId::B4PoolStructure,
            Leaf::C1(_) => TreeId::C1FitAlgorithm,
            Leaf::D1(_) => TreeId::D1CoalesceMaxSizes,
            Leaf::D2(_) => TreeId::D2CoalesceWhen,
            Leaf::E1(_) => TreeId::E1SplitMinSizes,
            Leaf::E2(_) => TreeId::E2SplitWhen,
        }
    }
}

impl fmt::Display for Leaf {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Leaf::A1(l) => write!(f, "{l}"),
            Leaf::A2(l) => write!(f, "{l}"),
            Leaf::A3(l) => write!(f, "{l}"),
            Leaf::A4(l) => write!(f, "{l}"),
            Leaf::A5(l) => write!(f, "{l}"),
            Leaf::B1(l) => write!(f, "{l}"),
            Leaf::B4(l) => write!(f, "{l}"),
            Leaf::C1(l) => write!(f, "{l}"),
            Leaf::D1(l) => write!(f, "{l}"),
            Leaf::D2(l) => write!(f, "{l}"),
            Leaf::E1(l) => write!(f, "{l}"),
            Leaf::E2(l) => write!(f, "{l}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn twelve_trees_in_five_categories() {
        assert_eq!(TreeId::ALL.len(), 12);
        let categories: HashSet<_> = TreeId::ALL.iter().map(|t| t.category()).collect();
        assert_eq!(categories.len(), 5);
    }

    #[test]
    fn tree_codes_are_unique() {
        let codes: HashSet<_> = TreeId::ALL.iter().map(|t| t.code()).collect();
        assert_eq!(codes.len(), 12);
    }

    #[test]
    fn category_letters_match_codes() {
        for tree in TreeId::ALL {
            assert_eq!(
                tree.code().chars().next().unwrap(),
                tree.category().letter(),
                "{tree}"
            );
        }
    }

    #[test]
    fn leaves_round_trip_to_their_tree() {
        for tree in TreeId::ALL {
            let leaves = tree.leaves();
            assert!(!leaves.is_empty(), "{tree} has no leaves");
            for leaf in leaves {
                assert_eq!(leaf.tree(), tree);
            }
        }
    }

    #[test]
    fn leaf_counts_match_paper_taxonomy() {
        let counts: Vec<usize> = TreeId::ALL.iter().map(|t| t.leaves().len()).collect();
        // A1 A2 A3 A4 A5 B1 B4 C1 D1 D2 E1 E2
        assert_eq!(counts, vec![4, 3, 4, 4, 4, 2, 3, 5, 2, 3, 2, 3]);
    }

    #[test]
    fn total_space_size_without_constraints() {
        let product: usize = TreeId::ALL.iter().map(|t| t.leaves().len()).product();
        // 4*3*4*4*4*2*3*5*2*3*2*3 = 829_440 raw combinations.
        assert_eq!(product, 829_440);
    }

    #[test]
    fn displays_are_nonempty_and_distinct_within_tree() {
        for tree in TreeId::ALL {
            let labels: Vec<String> = tree.leaves().iter().map(|l| l.to_string()).collect();
            let set: HashSet<_> = labels.iter().collect();
            assert_eq!(set.len(), labels.len(), "duplicate label in {tree}");
            assert!(labels.iter().all(|s| !s.is_empty()));
        }
    }

    #[test]
    fn recorded_info_byte_costs() {
        assert_eq!(RecordedInfo::None.field_bytes(), 0);
        assert_eq!(RecordedInfo::Size.field_bytes(), 4);
        assert_eq!(RecordedInfo::SizeAndStatus.field_bytes(), 4);
        assert_eq!(RecordedInfo::SizeStatusPrevSize.field_bytes(), 8);
    }

    #[test]
    fn flexible_size_capabilities() {
        assert!(!FlexibleSize::None.allows_split());
        assert!(!FlexibleSize::None.allows_coalesce());
        assert!(FlexibleSize::SplitOnly.allows_split());
        assert!(!FlexibleSize::SplitOnly.allows_coalesce());
        assert!(!FlexibleSize::CoalesceOnly.allows_split());
        assert!(FlexibleSize::CoalesceOnly.allows_coalesce());
        assert!(FlexibleSize::SplitAndCoalesce.allows_split());
        assert!(FlexibleSize::SplitAndCoalesce.allows_coalesce());
    }

    #[test]
    fn tag_copies() {
        assert_eq!(BlockTags::None.copies(), 0);
        assert_eq!(BlockTags::Header.copies(), 1);
        assert_eq!(BlockTags::Footer.copies(), 1);
        assert_eq!(BlockTags::HeaderAndFooter.copies(), 2);
    }
}
