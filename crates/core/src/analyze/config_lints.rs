//! Configuration lints: `DM0xx`.
//!
//! Three families, in code order:
//!
//! - **`DM001`–`DM012` (error)** — every hard interdependency rule of
//!   [`interdep::RULES`] re-surfaced as a diagnostic *from the same table*
//!   (no second encoding: the rule's `check` fn and `description` are the
//!   single source), plus `DM012` for parameter-validation failures.
//! - **`DM020`–`DM026` (note)** — one advisory per *soft* (dotted) arrow
//!   of Figure 2, firing when the configuration goes against the linked
//!   purpose the arrow documents. Prose comes from [`interdep::ARROWS`].
//! - **`DM030`–`DM038` (warn)** — dominance/redundancy analyses that need
//!   no replay. The **prune-safe** subset ([`prune_reason`]) only contains
//!   findings whose canonical replacement replays **bit-identically** and
//!   enumerates earlier, so the exploration engine can skip the replay
//!   without ever changing a winner; the rest are advisories about
//!   dominated-in-practice (but not provably identical) choices.

use std::ops::ControlFlow;

use crate::space::config::DmConfig;
use crate::space::interdep::{self, ArrowKind, ARROWS, RULES};
use crate::space::trees::{
    BlockSizes, BlockStructure, BlockTags, CoalesceMaxSizes, CoalesceWhen, FitAlgorithm,
    FlexibleSize, PoolDivision, RecordedInfo, SplitMinSizes, SplitWhen, TreeId,
};
use crate::units::MIN_BLOCK;

use super::diag::{CatalogEntry, Diagnostic, Severity};

/// Fix hints for the hard rules, keyed by [`interdep::Rule::code`]. Only
/// the *hint* lives here — the rule logic and description stay in the
/// `RULES` table (a coverage test asserts the keys match 1:1).
const HARD_RULE_FIXES: &[(&str, &str)] = &[
    ("DM001", "set A4 = none, or give A3 a tag placement"),
    ("DM002", "set A3 = none, or record something in A4"),
    ("DM003", "record at least the block size in A4"),
    (
        "DM004",
        "pick an A5 leaf with a coalescing mechanism, or set D2 = never",
    ),
    (
        "DM005",
        "set D2 = always or deferred, or drop the coalescing mechanism from A5",
    ),
    (
        "DM006",
        "pick an A5 leaf with a splitting mechanism, or set E2 = never",
    ),
    (
        "DM007",
        "set E2 = always or threshold, or drop the splitting mechanism from A5",
    ),
    ("DM008", "record the free/used status in A4"),
    ("DM009", "set B4 = array, or divide into more than one pool"),
    ("DM010", "set D1 = unlimited when D2 = never"),
    ("DM011", "set E1 = unrestricted when E2 = never"),
];

const HARD_RULE_DETAILS: &str = "Hard interdependency rule (full arrow of Figure 2); violating \
     combinations are rejected by the builder and never enumerated. \
     `dmm interdep` prints the full rule table.";

fn hard_rule_fix(code: &str) -> &'static str {
    HARD_RULE_FIXES
        .iter()
        .find(|(c, _)| *c == code)
        .map(|(_, f)| *f)
        .unwrap_or("choose leaves consistent with the rule")
}

/// The prose of the soft arrow `from --> to`, read from [`ARROWS`] so the
/// advisory lints and `dmm interdep` share one source.
fn soft_arrow_why(from: TreeId, to: TreeId) -> &'static str {
    ARROWS
        .iter()
        .find(|a| a.kind == ArrowKind::Soft && a.from == from && a.to == to)
        .map(|a| a.why)
        .unwrap_or("linked purposes")
}

/// One advisory lint per soft arrow of Figure 2.
struct SoftLint {
    code: &'static str,
    from: TreeId,
    to: TreeId,
    /// Fires when the configuration goes *against* the arrow's advice.
    fires: fn(&DmConfig) -> bool,
    fix: &'static str,
    details: &'static str,
}

const SOFT_LINTS: &[SoftLint] = &[
    SoftLint {
        code: "DM020",
        from: TreeId::A2BlockSizes,
        to: TreeId::C1FitAlgorithm,
        fires: |c| {
            c.block_sizes != BlockSizes::Many
                && c.pool_division == PoolDivision::PoolPerSizeClass
                && c.fit != FitAlgorithm::FirstFit
        },
        fix: "use C1 = first fit (cheapest of the coinciding policies)",
        details: "Inside a single-size pool every free block fits equally, so \
                  first, next, best, worst and exact fit all succeed \
                  immediately; the fit policy is irrelevant and the pricier \
                  search buys nothing.",
    },
    SoftLint {
        code: "DM021",
        from: TreeId::A2BlockSizes,
        to: TreeId::B1PoolDivision,
        fires: |c| c.block_sizes != BlockSizes::Many && c.pool_division == PoolDivision::SinglePool,
        fix: "consider B1 = one pool per size class",
        details: "Fixed size classes pair naturally with one pool per class: \
                  the class lookup replaces the free-list search entirely.",
    },
    SoftLint {
        code: "DM022",
        from: TreeId::C1FitAlgorithm,
        to: TreeId::A1BlockStructure,
        fires: |c| {
            matches!(c.fit, FitAlgorithm::BestFit | FitAlgorithm::ExactFit)
                && c.block_structure != BlockStructure::SizeOrderedTree
        },
        fix: "consider A1 = size-ordered tree for best/exact fit",
        details: "Best and exact fit scan the whole free list on an unordered \
                  structure; a size-ordered tree answers them in logarithmic \
                  steps.",
    },
    SoftLint {
        code: "DM023",
        from: TreeId::D2CoalesceWhen,
        to: TreeId::A3BlockTags,
        fires: |c| {
            c.coalesce_when == CoalesceWhen::Always
                && !matches!(c.block_tags, BlockTags::Footer | BlockTags::HeaderAndFooter)
                && !c.recorded_info.knows_prev()
        },
        fix: "add a footer (A3) or record prev-size (A4) for O(1) backward merge",
        details: "Immediate coalescing merges with the physical predecessor on \
                  every free; without a footer or a recorded prev-size that \
                  lookup walks the heap (the Figure 4 cost trap).",
    },
    SoftLint {
        code: "DM024",
        from: TreeId::D2CoalesceWhen,
        to: TreeId::A1BlockStructure,
        fires: |c| {
            c.coalesce_when == CoalesceWhen::Deferred
                && c.block_structure != BlockStructure::AddressOrderedList
        },
        fix: "consider A1 = address-ordered list for deferred sweeps",
        details: "A deferred coalescing sweep walks blocks in address order; \
                  an address-ordered free list makes the sweep a single merge \
                  pass instead of repeated searches.",
    },
    SoftLint {
        code: "DM025",
        from: TreeId::B1PoolDivision,
        to: TreeId::D2CoalesceWhen,
        fires: |c| c.pool_division == PoolDivision::PoolPerSizeClass && c.may_coalesce(),
        fix: "consider D2 = never when pools are divided per size class",
        details: "Dividing pools per size class already prevents the external \
                  fragmentation coalescing cures; running both pays the \
                  machinery twice for one benefit.",
    },
    SoftLint {
        code: "DM026",
        from: TreeId::B1PoolDivision,
        to: TreeId::E2SplitWhen,
        fires: |c| c.pool_division == PoolDivision::PoolPerSizeClass && c.may_split(),
        fix: "consider E2 = never when pools are divided per size class",
        details: "Dividing pools per size class already prevents the internal \
                  fragmentation splitting cures; running both pays the \
                  machinery twice for one benefit.",
    },
];

/// Dominance/redundancy catalogue entries (`DM030`+). The firing logic
/// lives in [`lint_dominance`] / [`prune_reason`].
const DOMINANCE_ENTRIES: &[CatalogEntry] = &[
    CatalogEntry {
        code: "DM030",
        severity: Severity::Warn,
        prune_safe: true,
        summary: "A4 status bit is dead without coalescing: size+status equals plain size",
        fix: "set A4 = size",
        details: "The manager only reads the recorded free/used status inside \
                  the coalescing path. With coalescing off, A4 = size+status \
                  packs into the same 4-byte field as A4 = size and every \
                  replay decision is bit-identical, so the candidate is \
                  redundant with an earlier-enumerated sibling.",
    },
    CatalogEntry {
        code: "DM031",
        severity: Severity::Warn,
        prune_safe: true,
        summary: "A3 footer placement is dead without coalescing: footer equals header",
        fix: "set A3 = header",
        details: "Footer tags only matter to the backward-merge lookup of the \
                  coalescing path. With coalescing off, A3 = footer carries \
                  the same one tag copy as A3 = header and replays \
                  bit-identically, so the candidate is redundant with an \
                  earlier-enumerated sibling.",
    },
    CatalogEntry {
        code: "DM032",
        severity: Severity::Warn,
        prune_safe: false,
        summary: "A4 prev-size field is dead without coalescing and doubles the tag",
        fix: "set A4 = size",
        details: "Without coalescing nothing reads the prev-size or status \
                  fields, yet A4 = size+status+prev-size widens every tag \
                  from 4 to 8 bytes. Strictly more overhead for information \
                  nothing consumes — advisory because the wider tag shifts \
                  block sizes, so the replay is not bit-identical.",
    },
    CatalogEntry {
        code: "DM033",
        severity: Severity::Warn,
        prune_safe: true,
        summary: "E2 split threshold at or below the minimum remainder never binds",
        fix: "set E2 = always, or raise Params::split_threshold",
        details: "The splitter keeps a remainder only when it is at least \
                  max(split_threshold, minimum remainder). A threshold at or \
                  below the minimum remainder decides nothing: every split \
                  decision equals E2 = always, bit-identically.",
    },
    CatalogEntry {
        code: "DM034",
        severity: Severity::Warn,
        prune_safe: true,
        summary: "E1 split floor at or below the minimum block size never binds",
        fix: "set E1 = unrestricted, or raise Params::split_floor",
        details: "The minimum split remainder is max(split_floor, MIN_BLOCK). \
                  A floor at or below MIN_BLOCK leaves that maximum unchanged, \
                  so E1 = floored replays bit-identically to E1 = \
                  unrestricted.",
    },
    CatalogEntry {
        code: "DM035",
        severity: Severity::Warn,
        prune_safe: true,
        summary: "D1 coalesce cap at or above the arena limit never binds",
        fix: "set D1 = unlimited, or lower Params::coalesce_cap",
        details: "A merged block can never outgrow the arena. With a hard \
                  arena limit, a cap at or above that limit rejects no merge, \
                  so D1 = capped replays bit-identically to D1 = unlimited.",
    },
    CatalogEntry {
        code: "DM036",
        severity: Severity::Warn,
        prune_safe: false,
        summary: "A3 header+footer doubles the tag but nothing reads the footer",
        fix: "set A3 = header",
        details: "Without coalescing the footer copy is never consulted, yet \
                  header+footer charges two tag copies per block. Advisory \
                  because the extra bytes shift block sizes, so the replay is \
                  not bit-identical.",
    },
    CatalogEntry {
        code: "DM037",
        severity: Severity::Warn,
        prune_safe: false,
        summary: "D1 coalesce cap below two minimum blocks silently disables coalescing",
        fix: "raise Params::coalesce_cap, or set D2 = never honestly",
        details: "The smallest possible merge joins two minimum-size blocks. \
                  A cap below 2×MIN_BLOCK rejects every merge, leaving the \
                  coalescing machinery (and its tag requirements) as pure \
                  dead weight.",
    },
    CatalogEntry {
        code: "DM038",
        severity: Severity::Warn,
        prune_safe: false,
        summary: "tags carried but no split/coalesce machinery consumes them",
        fix: "set A3 = none and A4 = none, or enable splitting/coalescing",
        details: "With A5 = none, nothing ever reads the block tags, yet every \
                  block pays the tag bytes. Dropping both tag trees to none \
                  (the Figure 3 canonical form) sheds the overhead — advisory \
                  because it changes two trees and the byte savings shift \
                  block sizes.",
    },
];

const PARAM_ENTRY: CatalogEntry = CatalogEntry {
    code: "DM012",
    severity: Severity::Error,
    prune_safe: false,
    summary: "quantitative parameters violate a chosen leaf's requirements",
    fix: "repair Params (see the message for the failing constraint, e.g. a class not a multiple of 8)",
    details: "The leaves are qualitative; some reference quantitative \
              Params (profiled classes, thresholds, caps). This code fires \
              when DmConfig::validate rejects those values — e.g. empty, \
              non-ascending or undersized profiled classes, classes that \
              are not a multiple of MIN_ALIGN (8 bytes: a fixed-class grow \
              slices granules into back-to-back blocks of one class, so an \
              unaligned class misaligns every block after the first), or \
              thresholds below the minimum block.",
};

/// The config half of the catalogue (`DM0xx`), unsorted.
pub(crate) fn config_catalogue() -> Vec<CatalogEntry> {
    let mut out: Vec<CatalogEntry> = RULES
        .iter()
        .map(|r| CatalogEntry {
            code: r.code,
            severity: Severity::Error,
            prune_safe: false,
            summary: r.description,
            fix: hard_rule_fix(r.code),
            details: HARD_RULE_DETAILS,
        })
        .collect();
    out.push(PARAM_ENTRY);
    for s in SOFT_LINTS {
        out.push(CatalogEntry {
            code: s.code,
            severity: Severity::Note,
            prune_safe: false,
            summary: soft_arrow_why(s.from, s.to),
            fix: s.fix,
            details: s.details,
        });
    }
    out.extend_from_slice(DOMINANCE_ENTRIES);
    out
}

fn dominance_entry(code: &str) -> &'static CatalogEntry {
    DOMINANCE_ENTRIES
        .iter()
        .find(|e| e.code == code)
        .expect("dominance code catalogued")
}

/// The minimum split remainder the policy enforces — mirrors the private
/// `PolicyAllocator::min_remainder` (policy.rs); a unit test pins the two
/// against each other via replay identity.
fn effective_min_remainder(cfg: &DmConfig) -> usize {
    match cfg.split_min {
        SplitMinSizes::Unrestricted => MIN_BLOCK,
        SplitMinSizes::Floored => cfg.params.split_floor.max(MIN_BLOCK),
    }
}

/// All configuration diagnostics for `cfg`: hard-rule violations
/// (`DM001`–`DM011`), parameter failures (`DM012`), soft-arrow advisories
/// (`DM020`–`DM026`) and dominance findings (`DM030`+).
pub fn lint_config(cfg: &DmConfig) -> Vec<Diagnostic> {
    let partial = cfg.to_partial();
    let mut out = Vec::new();
    let broken = interdep::violations(&partial);
    for rule in &broken {
        let entry = CatalogEntry {
            code: rule.code,
            severity: Severity::Error,
            prune_safe: false,
            summary: rule.description,
            fix: hard_rule_fix(rule.code),
            details: HARD_RULE_DETAILS,
        };
        out.push(
            Diagnostic::from_entry(
                &entry,
                format!("rule {} violated: {}", rule.id, rule.description),
            )
            .with_trees(rule.trees),
        );
    }
    if broken.is_empty() {
        if let Err(e) = cfg.validate() {
            out.push(Diagnostic::from_entry(&PARAM_ENTRY, e.to_string()));
        }
    }
    for s in SOFT_LINTS {
        if (s.fires)(cfg) {
            let entry = CatalogEntry {
                code: s.code,
                severity: Severity::Note,
                prune_safe: false,
                summary: soft_arrow_why(s.from, s.to),
                fix: s.fix,
                details: s.details,
            };
            out.push(
                Diagnostic::from_entry(
                    &entry,
                    format!("{} --> {}: {}", s.from.code(), s.to.code(), entry.summary),
                )
                .with_trees(&[s.from, s.to]),
            );
        }
    }
    out.extend(lint_dominance(cfg));
    out
}

/// The advisory code (`DM020`+) attached to the soft arrow `from --> to`,
/// if one carries a lint — lets `dmm interdep` print the code next to the
/// arrow it documents.
pub fn soft_arrow_code(from: TreeId, to: TreeId) -> Option<&'static str> {
    SOFT_LINTS
        .iter()
        .find(|s| s.from == from && s.to == to)
        .map(|s| s.code)
}

/// The dominance/redundancy findings (`DM030`+) for `cfg`.
pub fn lint_dominance(cfg: &DmConfig) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let _ = dominance(cfg, |entry, trees, message| -> ControlFlow<()> {
        out.push(Diagnostic::from_entry(entry, message()).with_trees(trees));
        ControlFlow::Continue(())
    });
    out
}

/// Walk the dominance findings (`DM030`+) of `cfg` in code-family order,
/// handing each to `finding` as its catalogue entry, the trees it points at
/// and a builder for its message; the walk stops at the first `Break`.
/// The one copy of the firing conditions: [`lint_dominance`] renders every
/// finding, [`prune_reason`] the first prune-safe one, and
/// [`is_prunable`] renders nothing.
fn dominance<B>(
    cfg: &DmConfig,
    mut finding: impl FnMut(
        &'static CatalogEntry,
        &'static [TreeId],
        &dyn Fn() -> String,
    ) -> ControlFlow<B>,
) -> ControlFlow<B> {
    let mut push = |code: &str, trees: &'static [TreeId], message: &dyn Fn() -> String| {
        finding(dominance_entry(code), trees, message)
    };
    if !cfg.may_coalesce() {
        match cfg.recorded_info {
            RecordedInfo::SizeAndStatus => push("DM030", &[TreeId::A4RecordedInfo], &|| {
                "status bit recorded but coalescing is off; identical to A4 = size".into()
            })?,
            RecordedInfo::SizeStatusPrevSize => push("DM032", &[TreeId::A4RecordedInfo], &|| {
                "prev-size+status recorded but coalescing is off; 8-byte tag where 4 suffice".into()
            })?,
            _ => {}
        }
        match cfg.block_tags {
            BlockTags::Footer => push("DM031", &[TreeId::A3BlockTags], &|| {
                "footer tag but coalescing is off; identical to A3 = header".into()
            })?,
            BlockTags::HeaderAndFooter => push("DM036", &[TreeId::A3BlockTags], &|| {
                "header+footer tags but coalescing is off; the footer copy is never read".into()
            })?,
            _ => {}
        }
    }
    if cfg.split_when == SplitWhen::Threshold
        && cfg.params.split_threshold <= effective_min_remainder(cfg)
    {
        push(
            "DM033",
            &[TreeId::E2SplitWhen, TreeId::E1SplitMinSizes],
            &|| {
                format!(
                    "split_threshold = {} never exceeds the minimum remainder {}; identical to E2 = always",
                    cfg.params.split_threshold,
                    effective_min_remainder(cfg)
                )
            },
        )?;
    }
    if cfg.split_min == SplitMinSizes::Floored && cfg.params.split_floor <= MIN_BLOCK {
        push("DM034", &[TreeId::E1SplitMinSizes], &|| {
            format!(
                "split_floor = {} is at or below MIN_BLOCK = {MIN_BLOCK}; identical to E1 = unrestricted",
                cfg.params.split_floor
            )
        })?;
    }
    if cfg.coalesce_max == CoalesceMaxSizes::Capped {
        if let Some(limit) = cfg.params.arena_limit {
            if cfg.params.coalesce_cap >= limit {
                push("DM035", &[TreeId::D1CoalesceMaxSizes], &|| {
                    format!(
                        "coalesce_cap = {} is at or above the arena limit {limit}; identical to D1 = unlimited",
                        cfg.params.coalesce_cap
                    )
                })?;
            }
        }
        if cfg.may_coalesce() && cfg.params.coalesce_cap < 2 * MIN_BLOCK {
            push(
                "DM037",
                &[TreeId::D1CoalesceMaxSizes, TreeId::D2CoalesceWhen],
                &|| {
                    format!(
                        "coalesce_cap = {} is below the smallest possible merge of {}; coalescing never runs",
                        cfg.params.coalesce_cap,
                        2 * MIN_BLOCK
                    )
                },
            )?;
        }
    }
    if cfg.flexible_size == FlexibleSize::None && cfg.block_tags != BlockTags::None {
        push(
            "DM038",
            &[
                TreeId::A5FlexibleSize,
                TreeId::A3BlockTags,
                TreeId::A4RecordedInfo,
            ],
            &|| {
                format!(
                    "A5 = none leaves the {} tag byte(s) per block unread",
                    cfg.tag_bytes_per_block()
                )
            },
        )?;
    }
    ControlFlow::Continue(())
}

/// Why the exploration engine may skip replaying `cfg`, if it may.
///
/// Returns the first **prune-safe** finding: a proof that some sibling
/// configuration — equal in every tree except one, whose leaf sits
/// *earlier* in that tree's canonical `ALL` order — replays
/// **bit-identically** on every trace:
///
/// - `DM030`: A4 = size+status without coalescing ≡ A4 = size (status is
///   only read on the coalesce path; both pack into the same 4 bytes).
/// - `DM031`: A3 = footer without coalescing ≡ A3 = header (placement is
///   only consulted by the backward-merge lookup; both carry one copy).
/// - `DM033`: E2 = threshold with `split_threshold ≤` minimum remainder
///   ≡ E2 = always (the policy splits on `max(threshold, min-remainder)`).
/// - `DM034`: E1 = floored with `split_floor ≤ MIN_BLOCK` ≡
///   E1 = unrestricted (the minimum remainder is `max(floor, MIN_BLOCK)`).
/// - `DM035`: D1 = capped with `coalesce_cap ≥` the arena limit ≡
///   D1 = unlimited (no merge can outgrow the arena).
///
/// Because [`crate::space::enumerate::SpaceIter`] emits configurations in
/// lexicographic `ALL`-order over the traversal order, that sibling is
/// always enumerated **first**, and the exhaustive fold keeps the earliest
/// of tied scores — so skipping the pruned candidate can never change a
/// winner. Conditions here are deliberately a subset of the `prune_safe`
/// diagnostics of [`lint_config`]; a space-wide test pins the equivalence.
pub fn prune_reason(cfg: &DmConfig) -> Option<Diagnostic> {
    match dominance(cfg, |entry, trees, message| {
        if entry.prune_safe {
            ControlFlow::Break(Diagnostic::from_entry(entry, message()).with_trees(trees))
        } else {
            ControlFlow::Continue(())
        }
    }) {
        ControlFlow::Break(reason) => Some(reason),
        ControlFlow::Continue(()) => None,
    }
}

/// Whether [`prune_reason`] finds a reason to skip `cfg`, without building
/// the diagnostic: the sweep asks this of every candidate and reads
/// nothing else.
pub(crate) fn is_prunable(cfg: &DmConfig) -> bool {
    dominance(cfg, |entry, _, _| {
        if entry.prune_safe {
            ControlFlow::Break(())
        } else {
            ControlFlow::Continue(())
        }
    })
    .is_break()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::presets;

    #[test]
    fn soft_lints_cover_every_soft_arrow_exactly_once() {
        for arrow in ARROWS.iter().filter(|a| a.kind == ArrowKind::Soft) {
            let n = SOFT_LINTS
                .iter()
                .filter(|s| s.from == arrow.from && s.to == arrow.to)
                .count();
            assert_eq!(
                n, 1,
                "soft arrow {:?} --> {:?} has {n} lints",
                arrow.from, arrow.to
            );
        }
        assert_eq!(
            SOFT_LINTS.len(),
            ARROWS.iter().filter(|a| a.kind == ArrowKind::Soft).count()
        );
    }

    #[test]
    fn hard_rule_fixes_cover_every_rule_exactly() {
        let rule_codes: Vec<&str> = RULES.iter().map(|r| r.code).collect();
        let fix_codes: Vec<&str> = HARD_RULE_FIXES.iter().map(|(c, _)| *c).collect();
        assert_eq!(rule_codes, fix_codes);
    }

    #[test]
    fn presets_carry_no_error_diagnostics() {
        for cfg in presets::all() {
            let errs: Vec<_> = lint_config(&cfg)
                .into_iter()
                .filter(|d| d.severity == Severity::Error)
                .collect();
            assert!(errs.is_empty(), "{}: {errs:?}", cfg.name);
        }
    }

    #[test]
    fn hard_violation_surfaces_rule_code_and_trees() {
        use crate::space::trees::Leaf;
        // An invalid combination assembled without the builder.
        let cfg = presets::neutral()
            .with_leaf(Leaf::A3(BlockTags::None))
            .with_leaf(Leaf::A4(RecordedInfo::Size));
        let diags = lint_config(&cfg);
        let d = diags
            .iter()
            .find(|d| d.code == "DM001")
            .expect("DM001 fires");
        assert_eq!(d.severity, Severity::Error);
        assert!(d.trees.contains(&TreeId::A3BlockTags));
        assert!(d.message.contains("R1a"));
    }

    #[test]
    fn param_failure_fires_dm012() {
        let mut cfg = presets::kingsley_like();
        cfg.block_sizes = BlockSizes::ProfiledClasses;
        cfg.params.profiled_classes = vec![64, 32];
        let diags = lint_config(&cfg);
        assert!(diags.iter().any(|d| d.code == "DM012"), "{diags:?}");
    }

    #[test]
    fn misaligned_profiled_classes_fire_dm012() {
        let mut cfg = presets::kingsley_like();
        cfg.block_sizes = BlockSizes::ProfiledClasses;
        cfg.params.profiled_classes = vec![20, 36];
        let diags = lint_config(&cfg);
        let d = diags
            .iter()
            .find(|d| d.code == "DM012")
            .expect("DM012 fires");
        assert_eq!(d.severity, Severity::Error);
        assert!(d.message.contains("profiled class 20"), "{}", d.message);
        assert!(crate::manager::PolicyAllocator::new(cfg).is_err());
    }

    #[test]
    fn dead_status_and_footer_fire_prune_safe() {
        use crate::space::trees::Leaf;
        let cfg = presets::kingsley_like()
            .with_leaf(Leaf::A3(BlockTags::Footer))
            .with_leaf(Leaf::A4(RecordedInfo::SizeAndStatus));
        assert!(!cfg.may_coalesce(), "kingsley preset must not coalesce");
        let codes: Vec<String> = lint_dominance(&cfg)
            .iter()
            .map(|d| d.code.clone())
            .collect();
        assert!(codes.contains(&"DM030".to_string()), "{codes:?}");
        assert!(codes.contains(&"DM031".to_string()), "{codes:?}");
        let reason = prune_reason(&cfg).expect("prune-safe");
        assert!(reason.prune_safe);
    }

    #[test]
    fn unreachable_params_fire() {
        use crate::space::trees::Leaf;
        let mut cfg = presets::drr_paper()
            .with_leaf(Leaf::E2(SplitWhen::Threshold))
            .with_leaf(Leaf::E1(SplitMinSizes::Floored))
            .with_leaf(Leaf::D1(CoalesceMaxSizes::Capped));
        cfg.params.split_threshold = MIN_BLOCK; // <= min remainder
        cfg.params.split_floor = MIN_BLOCK; // <= MIN_BLOCK
        cfg.params.coalesce_cap = 1 << 30;
        cfg.params.arena_limit = Some(1 << 20); // cap >= limit
        let codes: Vec<String> = lint_dominance(&cfg)
            .iter()
            .map(|d| d.code.clone())
            .collect();
        for want in ["DM033", "DM034", "DM035"] {
            assert!(
                codes.contains(&want.to_string()),
                "missing {want}: {codes:?}"
            );
        }
    }

    #[test]
    fn cap_below_smallest_merge_warns() {
        use crate::space::trees::Leaf;
        let mut cfg = presets::drr_paper().with_leaf(Leaf::D1(CoalesceMaxSizes::Capped));
        cfg.params.coalesce_cap = MIN_BLOCK;
        assert!(cfg.may_coalesce());
        let diags = lint_dominance(&cfg);
        assert!(diags.iter().any(|d| d.code == "DM037"), "{diags:?}");
    }

    #[test]
    fn dead_tag_machinery_warns() {
        use crate::space::trees::Leaf;
        let cfg = presets::neutral()
            .with_leaf(Leaf::A5(FlexibleSize::None))
            .with_leaf(Leaf::E2(SplitWhen::Never))
            .with_leaf(Leaf::D2(CoalesceWhen::Never));
        assert!(cfg.block_tags != BlockTags::None);
        let diags = lint_dominance(&cfg);
        assert!(diags.iter().any(|d| d.code == "DM038"), "{diags:?}");
    }

    #[test]
    fn prune_reason_matches_prune_safe_flag_across_the_space() {
        use crate::space::enumerate::SpaceIter;
        let mut checked = 0usize;
        let mut prunable = 0usize;
        for cfg in SpaceIter::new() {
            let from_full = lint_config(&cfg).into_iter().any(|d| d.prune_safe);
            let fast = prune_reason(&cfg).is_some();
            assert_eq!(from_full, fast, "{}", cfg.summary());
            assert_eq!(is_prunable(&cfg), fast, "{}", cfg.summary());
            assert_eq!(
                prune_reason(&cfg),
                lint_dominance(&cfg).into_iter().find(|d| d.prune_safe)
            );
            checked += 1;
            prunable += usize::from(fast);
        }
        assert!(checked > 1000, "space unexpectedly small: {checked}");
        assert!(prunable > 0, "no prunable configs in the default space");
        assert!(prunable < checked, "everything pruned");
    }
}
