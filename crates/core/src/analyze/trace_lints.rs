//! Trace lints: `TR0xx` — a single-pass sanitizer over raw event streams.
//!
//! [`lint_events`] walks a `&[TraceEvent]` once and reports everything it
//! finds; [`first_error`] is the early-exit variant [`Trace::from_events`]
//! uses so malformed input fails with a coded diagnostic instead of a
//! mid-replay panic. Constructed [`Trace`]s are valid by construction, so
//! [`lint_trace`] can only surface the advisory codes (`TR005`–`TR007`).
//!
//! The phase lints respect the **re-entrant phase contract** of
//! [`TraceEvent::Phase`]: `1,0,1,0,…` sequences with events in between are
//! legal and lint clean; only markers that change nothing (repeating the
//! current phase, or immediately overwritten by the next marker) are
//! flagged.

use std::collections::HashMap;

use crate::trace::{shard, Trace, TraceEvent};

use super::diag::{CatalogEntry, Diagnostic, Severity};

/// The trace half of the catalogue (`TR0xx`).
pub(crate) const TRACE_CATALOGUE: &[CatalogEntry] = &[
    CatalogEntry {
        code: "TR001",
        severity: Severity::Error,
        prune_safe: false,
        summary: "double free: the id was already freed",
        fix: "drop the second Free event, or renumber the second lifetime",
        details: "Each allocation id has one lifetime. Freeing an id whose \
                  allocation was already freed would make the replay's \
                  handle table dangle; Trace::from_events rejects the \
                  stream at this event.",
    },
    CatalogEntry {
        code: "TR002",
        severity: Severity::Error,
        prune_safe: false,
        summary: "free of an id that was never allocated",
        fix: "record the allocation, or drop the stray Free event",
        details: "A Free event names an id with no preceding Alloc. The \
                  replay would have no block to release; Trace::from_events \
                  rejects the stream at this event.",
    },
    CatalogEntry {
        code: "TR003",
        severity: Severity::Error,
        prune_safe: false,
        summary: "zero-size allocation",
        fix: "record the real request size (at least 1 byte)",
        details: "The simulated heap models malloc(n>0); a zero-size request \
                  has no defined block and Trace::from_events rejects it.",
    },
    CatalogEntry {
        code: "TR004",
        severity: Severity::Error,
        prune_safe: false,
        summary: "allocation id used twice",
        fix: "renumber the second allocation (ids are never recycled)",
        details: "Trace ids identify one allocation each for the whole \
                  stream — they are never recycled, even after a free — so \
                  the slot-resolving trace compiler can key lifetimes by id. \
                  Trace::from_events rejects the stream at the second Alloc.",
    },
    CatalogEntry {
        code: "TR005",
        severity: Severity::Warn,
        prune_safe: false,
        summary: "leaked allocations: ids still live at end of trace",
        fix: "free the listed ids, or accept a final-footprint floor",
        details: "Allocations never freed keep the arena's final footprint \
                  (and possibly its peak) pinned above the leaked bytes for \
                  every manager; scores still compare fairly, but absolute \
                  footprints include the leak.",
    },
    CatalogEntry {
        code: "TR006",
        severity: Severity::Note,
        prune_safe: false,
        summary: "redundant phase marker",
        fix: "drop the marker (it changes nothing)",
        details: "A Phase marker that announces the phase the trace is \
                  already in, or that is immediately overwritten by another \
                  marker, delimits an empty segment. Re-entrant sequences \
                  like 1,0,1,0 with events in between are legal and not \
                  flagged.",
    },
    CatalogEntry {
        code: "TR007",
        severity: Severity::Warn,
        prune_safe: false,
        summary: "no lifetime-closed cut point: every shard boundary carries live memory",
        fix: "shard phase-aligned, or accept the reported boundary carry",
        details: "shard_trace prefers cutting where nothing is live. When no \
                  interior event boundary has an empty live set, every cut \
                  is forced and the per-shard accounting can under-state the \
                  live set by the reported carried bytes (boundary live-set \
                  explosion).",
    },
    CatalogEntry {
        code: "TR010",
        severity: Severity::Error,
        prune_safe: false,
        summary: "durable trace file has a bad header",
        fix: "check the file is a dmm trace (magic \"DMMT\") written by a compatible version",
        details: "The durable trace format opens with a fixed 8-byte \
                  header: magic \"DMMT\", a little-endian u16 version, and \
                  a reserved u16. A missing magic, short file or \
                  unsupported version means nothing after the header can \
                  be trusted, so even the recovery reader salvages nothing.",
    },
    CatalogEntry {
        code: "TR011",
        severity: Severity::Error,
        prune_safe: false,
        summary: "durable trace file ends in a truncated or malformed frame",
        fix: "re-record the trace, or use recover_trace to salvage the valid prefix",
        details: "Each frame declares its payload length up front; a frame \
                  whose declared bytes run past end-of-file is the \
                  signature of a torn write or killed recorder. \
                  trace::store::recover_trace returns every intact frame \
                  before the tear together with this error.",
    },
    CatalogEntry {
        code: "TR012",
        severity: Severity::Error,
        prune_safe: false,
        summary: "durable trace frame failed its CRC32 checksum",
        fix: "re-record or re-transfer the file, or salvage the prefix with recover_trace",
        details: "Every frame carries an IEEE CRC32 of its payload. A \
                  stored/computed mismatch means bit rot or in-transit \
                  corruption inside that frame; frames before it are \
                  intact and recoverable.",
    },
    CatalogEntry {
        code: "TR013",
        severity: Severity::Error,
        prune_safe: false,
        summary: "durable trace file could not be read or written",
        fix: "check the path, permissions and free space",
        details: "The I/O layer failed before the format was even \
                  inspected — missing file, permission denied, disk full. \
                  The message carries the operating system's explanation.",
    },
];

fn trace_entry(code: &str) -> &'static CatalogEntry {
    TRACE_CATALOGUE
        .iter()
        .find(|e| e.code == code)
        .expect("trace code catalogued")
}

fn diag(code: &str, event: usize, message: String) -> Diagnostic {
    Diagnostic::from_entry(trace_entry(code), message).with_events(vec![event])
}

/// How many leaked ids [`lint_events`] lists individually before
/// summarising the rest.
const LEAK_LIST_CAP: usize = 8;

/// Traces shorter than this skip the shard-cut feasibility lint (`TR007`)
/// — sharding a handful of events is never worth a warning.
const CUT_LINT_MIN_EVENTS: usize = 64;

/// Single-pass sanitizer over a raw event stream.
///
/// Collects **every** finding: the hard errors `from_events` would reject
/// (`TR001`–`TR004`, reported per offending event, scanning on as if the
/// bad event were dropped), the leak summary (`TR005`), redundant phase
/// markers (`TR006`) and shard-cut feasibility (`TR007`).
pub fn lint_events(events: &[TraceEvent]) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    scan(events, &mut out, false);
    out
}

/// Early-exit variant for [`Trace::from_events`]: the first
/// `Error`-severity finding, if any. Same single pass and check order as
/// [`lint_events`], stopping at the first hard error.
pub fn first_error(events: &[TraceEvent]) -> Option<Diagnostic> {
    let mut out = Vec::new();
    scan(events, &mut out, true);
    out.into_iter().find(|d| d.severity == Severity::Error)
}

/// Lint a constructed (therefore well-formed) trace: only the advisory
/// codes `TR005`–`TR007` can fire.
pub fn lint_trace(trace: &Trace) -> Vec<Diagnostic> {
    lint_events(trace.events())
}

/// The one scan behind both entry points. With `stop_at_error` the scan
/// returns at the first hard error and skips the end-of-stream summaries.
fn scan(events: &[TraceEvent], out: &mut Vec<Diagnostic>, stop_at_error: bool) {
    // id -> (alloc event index, size); removed on free so the map is
    // bounded by the peak live set. `seen` distinguishes double frees
    // (TR001) from never-allocated frees (TR002).
    let mut live: HashMap<u64, (usize, usize)> = HashMap::new();
    let mut seen: HashMap<u64, ()> = HashMap::new();
    let mut phase = 0u32;
    let mut last_marker: Option<usize> = None;
    for (i, ev) in events.iter().enumerate() {
        match ev {
            TraceEvent::Alloc { id, size } => {
                if *size == 0 {
                    out.push(diag(
                        "TR003",
                        i,
                        format!("event {i}: zero-size allocation of id {id}"),
                    ));
                    if stop_at_error {
                        return;
                    }
                }
                if seen.insert(*id, ()).is_some() {
                    out.push(diag(
                        "TR004",
                        i,
                        format!("event {i}: id {id} allocated twice"),
                    ));
                    if stop_at_error {
                        return;
                    }
                } else if *size > 0 {
                    live.insert(*id, (i, *size));
                }
                last_marker = None;
            }
            TraceEvent::Free { id } => {
                if live.remove(id).is_none() {
                    let (code, what) = if seen.contains_key(id) {
                        ("TR001", "double free of id")
                    } else {
                        ("TR002", "free of unknown id")
                    };
                    out.push(diag(code, i, format!("event {i}: {what} {id}")));
                    if stop_at_error {
                        return;
                    }
                }
                last_marker = None;
            }
            TraceEvent::Phase { phase: p } => {
                // Advisory only — skipped entirely on the early-exit path
                // so `from_events` does no work for well-formed streams.
                if !stop_at_error {
                    if *p == phase {
                        out.push(diag(
                            "TR006",
                            i,
                            format!("event {i}: phase marker repeats the current phase {p}"),
                        ));
                    } else if let Some(prev) = last_marker {
                        out.push(diag(
                            "TR006",
                            prev,
                            format!("event {prev}: phase marker delimits an empty segment"),
                        ));
                    }
                }
                phase = *p;
                last_marker = Some(i);
            }
        }
    }
    if stop_at_error {
        return;
    }
    if !live.is_empty() {
        let mut leaked: Vec<(usize, u64, usize)> = live
            .iter()
            .map(|(id, &(at, size))| (at, *id, size))
            .collect();
        leaked.sort_unstable();
        let bytes: usize = leaked.iter().map(|&(_, _, s)| s).sum();
        let shown: Vec<String> = leaked
            .iter()
            .take(LEAK_LIST_CAP)
            .map(|&(_, id, s)| format!("{id} ({s} B)"))
            .collect();
        let more = leaked.len().saturating_sub(LEAK_LIST_CAP);
        let suffix = if more > 0 {
            format!(" and {more} more")
        } else {
            String::new()
        };
        out.push(
            Diagnostic::from_entry(
                trace_entry("TR005"),
                format!(
                    "{} allocation(s) totalling {bytes} bytes never freed: ids {}{suffix}",
                    leaked.len(),
                    shown.join(", ")
                ),
            )
            .with_events(
                leaked
                    .iter()
                    .take(LEAK_LIST_CAP)
                    .map(|&(at, _, _)| at)
                    .collect(),
            ),
        );
    }
    if events.len() >= CUT_LINT_MIN_EVENTS {
        if let Some(f) = shard::cut_feasibility(events) {
            if f.min_live_blocks > 0 {
                out.push(
                    Diagnostic::from_entry(
                        trace_entry("TR007"),
                        format!(
                            "no lifetime-closed cut point: the best interior cut (after event {}) still carries {} live block(s) / {} bytes",
                            f.best_cut_after, f.min_live_blocks, f.min_live_bytes
                        ),
                    )
                    .with_events(vec![f.best_cut_after]),
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn codes(diags: &[Diagnostic]) -> Vec<&str> {
        diags.iter().map(|d| d.code.as_str()).collect()
    }

    #[test]
    fn clean_trace_lints_clean() {
        let mut b = Trace::builder();
        let a = b.alloc(64);
        let c = b.alloc(32);
        b.free(a);
        b.free(c);
        let t = b.finish().unwrap();
        assert!(lint_trace(&t).is_empty(), "{:?}", lint_trace(&t));
    }

    #[test]
    fn tr001_double_free() {
        let evs = vec![
            TraceEvent::Alloc { id: 1, size: 64 },
            TraceEvent::Free { id: 1 },
            TraceEvent::Free { id: 1 },
        ];
        let d = lint_events(&evs);
        assert_eq!(codes(&d), vec!["TR001"]);
        assert_eq!(d[0].events, vec![2]);
        assert_eq!(first_error(&evs).unwrap().code, "TR001");
    }

    #[test]
    fn tr002_free_of_unknown_id() {
        let evs = vec![TraceEvent::Free { id: 9 }];
        let d = lint_events(&evs);
        assert_eq!(codes(&d), vec!["TR002"]);
        assert_eq!(first_error(&evs).unwrap().code, "TR002");
    }

    #[test]
    fn tr003_zero_size_alloc() {
        let evs = vec![TraceEvent::Alloc { id: 1, size: 0 }];
        let d = lint_events(&evs);
        // The zero-size alloc is dropped by the scan, so no leak follows.
        assert_eq!(codes(&d), vec!["TR003"]);
        assert_eq!(first_error(&evs).unwrap().code, "TR003");
    }

    #[test]
    fn tr004_duplicate_alloc_id() {
        let evs = vec![
            TraceEvent::Alloc { id: 1, size: 64 },
            TraceEvent::Alloc { id: 1, size: 32 },
            TraceEvent::Free { id: 1 },
        ];
        let d = lint_events(&evs);
        assert_eq!(codes(&d), vec!["TR004"]);
        assert_eq!(first_error(&evs).unwrap().code, "TR004");
    }

    #[test]
    fn tr005_leak_summary() {
        let mut b = Trace::builder();
        let _leak1 = b.alloc(100);
        let ok = b.alloc(50);
        let _leak2 = b.alloc(23);
        b.free(ok);
        let t = b.finish().unwrap();
        let d = lint_trace(&t);
        assert_eq!(codes(&d), vec!["TR005"]);
        assert!(d[0].message.contains("2 allocation(s)"));
        assert!(d[0].message.contains("123 bytes"));
        assert_eq!(d[0].events, vec![0, 2]);
    }

    #[test]
    fn tr006_redundant_phase_markers() {
        // Repeating the current phase (the stream starts in phase 0).
        let evs = vec![TraceEvent::Phase { phase: 0 }];
        assert_eq!(codes(&lint_events(&evs)), vec!["TR006"]);
        // Marker immediately overwritten: the 1 delimits nothing.
        let evs = vec![
            TraceEvent::Phase { phase: 1 },
            TraceEvent::Phase { phase: 2 },
            TraceEvent::Alloc { id: 1, size: 8 },
            TraceEvent::Free { id: 1 },
        ];
        let d = lint_events(&evs);
        assert_eq!(codes(&d), vec!["TR006"]);
        assert_eq!(d[0].events, vec![0]);
    }

    #[test]
    fn reentrant_phase_contract_lints_clean() {
        // The PR 3 contract: monotonic 1,0,1,0… re-entry with events in
        // between is legal and must produce no diagnostics at all.
        let mut b = Trace::builder();
        let mut prev: Option<u64> = None;
        for round in 0..6u32 {
            b.phase(1 - round % 2); // 1,0,1,0,1,0
            let id = b.alloc(64 + round as usize);
            if let Some(p) = prev.take() {
                b.free(p);
            }
            prev = Some(id);
        }
        if let Some(p) = prev {
            b.free(p);
        }
        let t = b.finish().unwrap();
        assert!(!t.phases_are_monotonic(), "trace must actually re-enter");
        assert!(lint_trace(&t).is_empty(), "{:?}", lint_trace(&t));
    }

    #[test]
    fn tr007_fires_when_no_closed_cut_exists() {
        // One object spans the whole (long) trace: every cut carries it.
        let mut b = Trace::builder();
        let long = b.alloc(1000);
        for i in 0..40 {
            let id = b.alloc(32 + i);
            b.free(id);
        }
        b.free(long);
        let t = b.finish().unwrap();
        assert!(t.len() >= CUT_LINT_MIN_EVENTS);
        let d = lint_trace(&t);
        assert_eq!(codes(&d), vec!["TR007"]);
        assert!(d[0].message.contains("1 live block(s) / 1000 bytes"));
    }

    #[test]
    fn tr007_silent_when_closed_cuts_exist() {
        let mut b = Trace::builder();
        for i in 0..40 {
            let id = b.alloc(32 + i);
            b.free(id); // live set drains after every pair
        }
        let t = b.finish().unwrap();
        assert!(t.len() >= CUT_LINT_MIN_EVENTS);
        assert!(lint_trace(&t).is_empty());
    }

    #[test]
    fn short_traces_skip_the_cut_lint() {
        let mut b = Trace::builder();
        let a = b.alloc(8);
        let c = b.alloc(8);
        b.free(a); // interior boundaries all carry c or a
        b.free(c);
        let t = b.finish().unwrap();
        assert!(lint_trace(&t).is_empty());
    }

    #[test]
    fn multiple_errors_are_all_collected() {
        let evs = vec![
            TraceEvent::Alloc { id: 1, size: 0 },
            TraceEvent::Free { id: 7 },
            TraceEvent::Alloc { id: 2, size: 16 },
            TraceEvent::Free { id: 2 },
            TraceEvent::Free { id: 2 },
        ];
        assert_eq!(codes(&lint_events(&evs)), vec!["TR003", "TR002", "TR001"]);
        // first_error stops at the earliest.
        assert_eq!(first_error(&evs).unwrap().code, "TR003");
    }
}
