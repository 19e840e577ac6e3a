//! The checkpoint journal: crash-resumable exploration.
//!
//! An exploration sweep is a pure fold over `(trace, config) → score`
//! replays, so surviving process death only needs the completed scores to
//! outlive the process. The journal is an append-only text file of
//! checksummed records, one per fresh replay:
//!
//! ```text
//! <crc32-hex-8> <json>\n
//! json := { "trace_fp": u64, "trace_events": usize,
//!           "config_fp": u64, "stats": FootprintStats }
//! ```
//!
//! The CRC32 (shared with the durable trace store) covers the JSON bytes,
//! so a torn final line — the signature of a killed process — is detected
//! and the journal self-heals on [`CheckpointJournal::resume`] by
//! truncating to the last intact record. Keys are the trace's
//! [`TraceKey`](super::cache::TraceKey) (fingerprint + event count) and
//! the configuration's exact identity,
//! [`DmConfig::fingerprint`](crate::space::DmConfig::fingerprint), so a
//! resumed sweep recognises completed candidates across processes, and
//! the in-memory [`ReplayCache`](super::cache::ReplayCache) shares their
//! scores with each candidate's behavioural class again within the new
//! one: the winner of a killed-then-resumed sweep is **bit-identical** to
//! an uninterrupted run — only the replays/cache-hits split differs.

use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use serde::{Deserialize, Serialize};

use crate::error::{Error, Result};
use crate::metrics::FootprintStats;
use crate::trace::store::crc32;

/// One journal record: a completed replay's identity and score.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Record {
    trace_fp: u64,
    trace_events: usize,
    config_fp: u64,
    stats: FootprintStats,
}

/// Identity of a completed replay inside the journal.
type Key = (u64, usize, u64);

fn journal_err(context: &str, e: impl std::fmt::Display) -> Error {
    Error::Checkpoint(format!("{context}: {e}"))
}

/// An append-only, checksummed journal of completed replays, attachable
/// to an [`ExplorationEngine`](super::ExplorationEngine).
///
/// Thread-safe: workers append concurrently behind internal locks. Every
/// record is flushed as it is written, so the journal is as current as
/// the sweep's last completed replay when the process dies.
#[derive(Debug)]
pub struct CheckpointJournal {
    path: PathBuf,
    file: Mutex<File>,
    seen: Mutex<HashMap<Key, FootprintStats>>,
    /// Bytes of damaged suffix dropped while resuming, if any.
    recovered_bytes: usize,
}

impl CheckpointJournal {
    /// Start a fresh journal at `path`, truncating any existing file.
    ///
    /// # Errors
    ///
    /// [`Error::Checkpoint`] on I/O failure.
    pub fn create(path: &Path) -> Result<Self> {
        let file = File::create(path)
            .map_err(|e| journal_err(&format!("cannot create {}", path.display()), e))?;
        Ok(CheckpointJournal {
            path: path.to_path_buf(),
            file: Mutex::new(file),
            seen: Mutex::new(HashMap::new()),
            recovered_bytes: 0,
        })
    }

    /// Resume from the journal at `path`, creating it if missing.
    ///
    /// Every intact record loads into the in-memory overlay; a torn or
    /// corrupt suffix (the killed-process signature) is dropped by
    /// truncating the file to the last intact record, reported via
    /// [`CheckpointJournal::recovered_bytes`]. A record that is not UTF-8 —
    /// one torn inside a multi-byte character of a manager name — is
    /// damaged like any other.
    ///
    /// # Errors
    ///
    /// [`Error::Checkpoint`] on I/O failure or if an *intact* record
    /// fails to deserialize (a format break, not a torn write).
    pub fn resume(path: &Path) -> Result<Self> {
        if !path.exists() {
            return CheckpointJournal::create(path);
        }
        let bytes = std::fs::read(path)
            .map_err(|e| journal_err(&format!("cannot read {}", path.display()), e))?;
        let mut seen = HashMap::new();
        let mut valid_end = 0usize; // byte offset just past the last intact record
        let mut at = 0usize;
        for line in bytes.split_inclusive(|&b| b == b'\n') {
            let start = at;
            at += line.len();
            let complete = line.ends_with(b"\n");
            let body = line.strip_suffix(b"\n").unwrap_or(line);
            let Some(parsed) = std::str::from_utf8(body).ok().and_then(parse_line) else {
                break; // damaged record: keep the prefix before it
            };
            if !complete {
                break; // intact-looking but unterminated: torn write
            }
            let rec: Record = serde_json::from_str(parsed).map_err(|e| {
                journal_err(
                    &format!(
                        "{}: record at byte {start} passes its checksum but does not parse",
                        path.display()
                    ),
                    e,
                )
            })?;
            seen.insert((rec.trace_fp, rec.trace_events, rec.config_fp), rec.stats);
            valid_end = at;
        }
        let recovered_bytes = bytes.len() - valid_end;
        if recovered_bytes > 0 {
            let f = OpenOptions::new()
                .write(true)
                .open(path)
                .map_err(|e| journal_err(&format!("cannot open {}", path.display()), e))?;
            f.set_len(valid_end as u64)
                .map_err(|e| journal_err(&format!("cannot truncate {}", path.display()), e))?;
        }
        let file = OpenOptions::new()
            .append(true)
            .open(path)
            .map_err(|e| journal_err(&format!("cannot open {}", path.display()), e))?;
        Ok(CheckpointJournal {
            path: path.to_path_buf(),
            file: Mutex::new(file),
            seen: Mutex::new(seen),
            recovered_bytes,
        })
    }

    /// The journal's file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Records currently in the overlay (distinct completed replays).
    pub fn entries(&self) -> usize {
        self.seen.lock().unwrap_or_else(|p| p.into_inner()).len()
    }

    /// Bytes of damaged suffix dropped when this journal was resumed
    /// (0 for a clean open).
    pub fn recovered_bytes(&self) -> usize {
        self.recovered_bytes
    }

    /// The score journalled for this `(trace, config)` identity, if any.
    pub fn lookup(
        &self,
        trace_fp: u64,
        trace_events: usize,
        config_fp: u64,
    ) -> Option<FootprintStats> {
        self.seen
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .get(&(trace_fp, trace_events, config_fp))
            .cloned()
    }

    /// Journal a completed replay: append, flush, and add to the overlay.
    ///
    /// # Errors
    ///
    /// [`Error::Checkpoint`] if the append cannot be written or flushed.
    pub fn record(
        &self,
        trace_fp: u64,
        trace_events: usize,
        config_fp: u64,
        stats: &FootprintStats,
    ) -> Result<()> {
        let json = serde_json::to_string(&Record {
            trace_fp,
            trace_events,
            config_fp,
            stats: stats.clone(),
        })
        .map_err(|e| journal_err("cannot serialize record", e))?;
        let line = format!("{:08x} {json}\n", crc32(json.as_bytes()));
        {
            let mut file = self.file.lock().unwrap_or_else(|p| p.into_inner());
            file.write_all(line.as_bytes()).map_err(|e| {
                journal_err(&format!("cannot append to {}", self.path.display()), e)
            })?;
            file.flush()
                .map_err(|e| journal_err(&format!("cannot flush {}", self.path.display()), e))?;
        }
        self.seen
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .insert((trace_fp, trace_events, config_fp), stats.clone());
        Ok(())
    }
}

/// Split and checksum-verify one journal line; `Some(json)` if intact.
fn parse_line(line: &str) -> Option<&str> {
    let (crc_hex, json) = line.split_once(' ')?;
    if crc_hex.len() != 8 {
        return None;
    }
    let want = u32::from_str_radix(crc_hex, 16).ok()?;
    (crc32(json.as_bytes()) == want).then_some(json)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::truncate_at;
    use crate::manager::PolicyAllocator;
    use crate::space::presets;
    use crate::trace::{replay, Trace};

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("dmm-checkpoint-test");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    fn sample_stats() -> Vec<(u64, FootprintStats)> {
        let mut b = Trace::builder();
        let ids: Vec<_> = (0..40).map(|i| b.alloc(24 + i * 3)).collect();
        for id in ids {
            b.free(id);
        }
        let t = b.finish().unwrap();
        presets::all()
            .into_iter()
            .map(|cfg| {
                let fs = replay(&t, &mut PolicyAllocator::new(cfg.clone()).unwrap()).unwrap();
                (cfg.fingerprint(), fs)
            })
            .collect()
    }

    #[test]
    fn record_resume_roundtrip() {
        let path = tmp("roundtrip.journal");
        std::fs::remove_file(&path).ok();
        let scored = sample_stats();
        {
            let j = CheckpointJournal::create(&path).unwrap();
            for (fp, fs) in &scored {
                j.record(0xABCD, 80, *fp, fs).unwrap();
            }
            assert_eq!(j.entries(), scored.len());
        }
        let j = CheckpointJournal::resume(&path).unwrap();
        assert_eq!(j.entries(), scored.len());
        assert_eq!(j.recovered_bytes(), 0);
        for (fp, fs) in &scored {
            assert_eq!(j.lookup(0xABCD, 80, *fp).as_ref(), Some(fs));
        }
        assert!(j.lookup(0xABCD, 80, 0xFFFF).is_none());
        assert!(j.lookup(0xABCE, 80, scored[0].0).is_none());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_final_record_is_dropped_on_resume() {
        let path = tmp("torn.journal");
        std::fs::remove_file(&path).ok();
        let scored = sample_stats();
        {
            let j = CheckpointJournal::create(&path).unwrap();
            for (fp, fs) in &scored {
                j.record(7, 80, *fp, fs).unwrap();
            }
        }
        // Kill the process mid-append: chop the file mid-way through the
        // last record.
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, truncate_at(&bytes, bytes.len() - 10)).unwrap();
        let j = CheckpointJournal::resume(&path).unwrap();
        assert_eq!(j.entries(), scored.len() - 1);
        assert!(j.recovered_bytes() > 0);
        assert!(j.lookup(7, 80, scored.last().unwrap().0).is_none());
        assert!(j.lookup(7, 80, scored[0].0).is_some());
        // The file self-healed: a second resume is clean and appendable.
        let j2 = CheckpointJournal::resume(&path).unwrap();
        assert_eq!(j2.recovered_bytes(), 0);
        assert_eq!(j2.entries(), scored.len() - 1);
        let (fp, fs) = scored.last().unwrap();
        j2.record(7, 80, *fp, fs).unwrap();
        let j3 = CheckpointJournal::resume(&path).unwrap();
        assert_eq!(j3.entries(), scored.len());
        std::fs::remove_file(&path).ok();
    }

    /// Journal `names.len()` records, one per manager name, and return the
    /// file's bytes with the byte offset where each record ends.
    fn journal_named(path: &Path, names: &[&str]) -> (Vec<u8>, Vec<usize>) {
        std::fs::remove_file(path).ok();
        let (_, fs) = &sample_stats()[0];
        let j = CheckpointJournal::create(path).unwrap();
        for (i, name) in names.iter().enumerate() {
            let named = FootprintStats {
                manager: std::sync::Arc::from(*name),
                ..fs.clone()
            };
            j.record(9, 80, i as u64, &named).unwrap();
        }
        drop(j);
        let bytes = std::fs::read(path).unwrap();
        let ends = bytes
            .iter()
            .enumerate()
            .filter(|&(_, &b)| b == b'\n')
            .map(|(i, _)| i + 1)
            .collect();
        (bytes, ends)
    }

    #[test]
    fn journal_torn_inside_a_multibyte_character_resumes() {
        let path = tmp("torn-utf8.journal");
        let names = [
            "custom (methodology) [shard 0 · phase 0]",
            "custom (methodology) [shard 1 · phase 0]",
        ];
        let (bytes, ends) = journal_named(&path, &names);
        // Cut the second record between the two bytes of its `·`.
        let dot = ends[0]
            + bytes[ends[0]..]
                .windows(2)
                .position(|w| w == "·".as_bytes())
                .expect("the second record names a shard");
        std::fs::write(&path, truncate_at(&bytes, dot + 1)).unwrap();
        let j = CheckpointJournal::resume(&path).unwrap();
        assert_eq!(j.entries(), 1);
        assert_eq!(j.recovered_bytes(), dot + 1 - ends[0]);
        assert!(j.lookup(9, 80, 0).is_some());
        assert!(j.lookup(9, 80, 1).is_none());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn create_truncates_an_existing_journal() {
        let path = tmp("truncate.journal");
        std::fs::remove_file(&path).ok();
        let (fp, fs) = &sample_stats()[0];
        CheckpointJournal::create(&path)
            .unwrap()
            .record(1, 2, *fp, fs)
            .unwrap();
        let fresh = CheckpointJournal::create(&path).unwrap();
        assert_eq!(fresh.entries(), 0);
        assert_eq!(CheckpointJournal::resume(&path).unwrap().entries(), 0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn unwritable_path_is_a_typed_error() {
        let e = CheckpointJournal::create(Path::new("/nonexistent/dir/x.journal")).unwrap_err();
        assert!(matches!(e, Error::Checkpoint(_)), "{e:?}");
    }
}
