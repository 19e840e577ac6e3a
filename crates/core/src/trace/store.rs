//! Durable trace files: a checksummed, framed on-disk format.
//!
//! The exploration service north-star needs traces that outlive the
//! process that recorded them — and that fail loudly, not silently, when
//! a file is truncated by a crash or corrupted in transit. The format is
//! deliberately boring:
//!
//! ```text
//! header   := magic "DMMT" (4 bytes) | version u16 LE | reserved u16 LE
//! frame    := payload_len u32 LE | crc32 u32 LE | payload
//! payload  := event*            (up to FRAME_EVENTS events per frame)
//! event    := 0x00 id u64 LE size u64 LE     (Alloc)
//!           | 0x01 id u64 LE                 (Free)
//!           | 0x02 phase u32 LE              (Phase)
//! ```
//!
//! Every frame carries an IEEE CRC32 of its payload, so corruption is
//! detected at frame granularity and a damaged file still yields its
//! valid prefix. The strict readers ([`decode_trace`], [`read_trace`])
//! reject the first defect with a stable structured code
//! ([`Error::TraceStore`]): `TR010` bad header, `TR011` truncated frame,
//! `TR012` checksum mismatch, `TR013` I/O failure. The recovery readers
//! ([`recover_bytes`], [`recover_trace`]) salvage every frame up to the
//! first defect and report the defect alongside the prefix.
//!
//! Decoded events are re-validated through [`Trace::from_events`] — the
//! single validation chokepoint — so a store file can never smuggle a
//! malformed stream past the `TR00x` sanitizer.

use std::path::Path;

use crate::error::{Error, Result};

use super::{Trace, TraceEvent};

/// File magic: the first four bytes of every durable trace.
pub const MAGIC: [u8; 4] = *b"DMMT";

/// Current format version.
pub const VERSION: u16 = 1;

/// Fixed header length (magic + version + reserved).
const HEADER_LEN: usize = 8;

/// Per-frame header length (payload length + CRC32).
const FRAME_HEADER_LEN: usize = 8;

/// Events per frame. Small enough that a torn write loses little, large
/// enough that the per-frame overhead (8 bytes) vanishes.
pub const FRAME_EVENTS: usize = 4096;

/// Event tag bytes.
const TAG_ALLOC: u8 = 0x00;
const TAG_FREE: u8 = 0x01;
const TAG_PHASE: u8 = 0x02;

// IEEE CRC32 (the zlib/PNG polynomial), table generated at compile time.
const CRC_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
};

/// IEEE CRC32 of `bytes` — also used by the checkpoint journal so the two
/// durable formats share one checksum.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFF_u32;
    for &b in bytes {
        c = CRC_TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

fn store_err(code: &str, message: String) -> Error {
    Error::TraceStore {
        code: code.to_string(),
        message,
    }
}

/// A trace salvaged from a damaged file: the valid prefix plus the defect
/// that stopped the read.
#[derive(Debug, Clone)]
pub struct RecoveredTrace {
    /// The trace decoded from every intact frame before the defect.
    pub trace: Trace,
    /// Intact frames decoded.
    pub frames: usize,
    /// The defect that stopped the read — `None` for a clean file.
    pub truncated: Option<Error>,
}

impl RecoveredTrace {
    /// Whether the whole file decoded cleanly.
    pub fn is_complete(&self) -> bool {
        self.truncated.is_none()
    }
}

fn push_event(buf: &mut Vec<u8>, ev: &TraceEvent) {
    match ev {
        TraceEvent::Alloc { id, size } => {
            buf.push(TAG_ALLOC);
            buf.extend_from_slice(&id.to_le_bytes());
            buf.extend_from_slice(&(*size as u64).to_le_bytes());
        }
        TraceEvent::Free { id } => {
            buf.push(TAG_FREE);
            buf.extend_from_slice(&id.to_le_bytes());
        }
        TraceEvent::Phase { phase } => {
            buf.push(TAG_PHASE);
            buf.extend_from_slice(&phase.to_le_bytes());
        }
    }
}

/// Serialize a trace to the framed, checksummed byte format.
pub fn encode_trace(trace: &Trace) -> Vec<u8> {
    // Worst case 17 bytes/event plus headers; reserve roughly that.
    let mut out = Vec::with_capacity(HEADER_LEN + trace.len() * 17 + FRAME_HEADER_LEN);
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&VERSION.to_le_bytes());
    out.extend_from_slice(&0u16.to_le_bytes());
    let mut payload = Vec::with_capacity(FRAME_EVENTS * 17);
    for chunk in trace.events().chunks(FRAME_EVENTS.max(1)) {
        payload.clear();
        for ev in chunk {
            push_event(&mut payload, ev);
        }
        out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        out.extend_from_slice(&crc32(&payload).to_le_bytes());
        out.extend_from_slice(&payload);
    }
    out
}

fn read_u32(bytes: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(bytes[at..at + 4].try_into().expect("4-byte slice"))
}

fn read_u64(bytes: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(bytes[at..at + 8].try_into().expect("8-byte slice"))
}

fn check_header(bytes: &[u8]) -> Result<()> {
    if bytes.len() < HEADER_LEN {
        return Err(store_err(
            "TR010",
            format!(
                "file is {} byte(s), shorter than the {HEADER_LEN}-byte header",
                bytes.len()
            ),
        ));
    }
    if bytes[..4] != MAGIC {
        return Err(store_err(
            "TR010",
            format!(
                "bad magic {:02x?}, expected {MAGIC:02x?} (\"DMMT\")",
                &bytes[..4]
            ),
        ));
    }
    let version = u16::from_le_bytes([bytes[4], bytes[5]]);
    if version != VERSION {
        return Err(store_err(
            "TR010",
            format!("unsupported format version {version}, this build reads version {VERSION}"),
        ));
    }
    Ok(())
}

/// Decode one frame's events out of a checksum-verified payload. A
/// payload that passes its CRC yet fails to parse means an encoder bug or
/// a cross-version stream, reported as `TR011`.
fn decode_payload(payload: &[u8], frame: usize, out: &mut Vec<TraceEvent>) -> Result<()> {
    let mut at = 0;
    while at < payload.len() {
        let tag = payload[at];
        at += 1;
        let need = match tag {
            TAG_ALLOC => 16,
            TAG_FREE => 8,
            TAG_PHASE => 4,
            other => {
                return Err(store_err(
                    "TR011",
                    format!(
                        "frame {frame}: unknown event tag 0x{other:02x} at payload offset {}",
                        at - 1
                    ),
                ))
            }
        };
        if payload.len() - at < need {
            return Err(store_err(
                "TR011",
                format!(
                    "frame {frame}: event at payload offset {} cut short",
                    at - 1
                ),
            ));
        }
        match tag {
            TAG_ALLOC => {
                let id = read_u64(payload, at);
                let size = read_u64(payload, at + 8);
                let size = usize::try_from(size).map_err(|_| {
                    store_err(
                        "TR011",
                        format!("frame {frame}: allocation size {size} overflows this platform"),
                    )
                })?;
                out.push(TraceEvent::Alloc { id, size });
            }
            TAG_FREE => out.push(TraceEvent::Free {
                id: read_u64(payload, at),
            }),
            _ => out.push(TraceEvent::Phase {
                phase: read_u32(payload, at),
            }),
        }
        at += need;
    }
    Ok(())
}

/// Walk the frames of `bytes` (header already verified), appending decoded
/// events to `events`. Returns `(intact frames, first defect)`.
fn walk_frames(bytes: &[u8], events: &mut Vec<TraceEvent>) -> (usize, Option<Error>) {
    let mut at = HEADER_LEN;
    let mut frames = 0usize;
    while at < bytes.len() {
        if bytes.len() - at < FRAME_HEADER_LEN {
            return (
                frames,
                Some(store_err(
                    "TR011",
                    format!(
                        "frame {frames}: {} trailing byte(s), shorter than a frame header",
                        bytes.len() - at
                    ),
                )),
            );
        }
        let len = read_u32(bytes, at) as usize;
        let want = read_u32(bytes, at + 4);
        at += FRAME_HEADER_LEN;
        if bytes.len() - at < len {
            return (
                frames,
                Some(store_err(
                    "TR011",
                    format!(
                        "frame {frames}: payload declares {len} byte(s) but only {} remain",
                        bytes.len() - at
                    ),
                )),
            );
        }
        let payload = &bytes[at..at + len];
        let got = crc32(payload);
        if got != want {
            return (
                frames,
                Some(store_err(
                    "TR012",
                    format!(
                        "frame {frames}: checksum mismatch (stored {want:08x}, computed {got:08x})"
                    ),
                )),
            );
        }
        let before = events.len();
        if let Err(e) = decode_payload(payload, frames, events) {
            events.truncate(before);
            return (frames, Some(e));
        }
        at += len;
        frames += 1;
    }
    (frames, None)
}

/// Strictly decode a durable trace from bytes: any defect is an error.
///
/// # Errors
///
/// [`Error::TraceStore`] with `TR010` (bad header), `TR011` (truncated or
/// malformed frame) or `TR012` (checksum mismatch);
/// [`Error::MalformedTrace`] if the decoded stream fails the `TR00x`
/// sanitizer in [`Trace::from_events`].
pub fn decode_trace(bytes: &[u8]) -> Result<Trace> {
    check_header(bytes)?;
    let mut events = Vec::new();
    let (_, defect) = walk_frames(bytes, &mut events);
    if let Some(e) = defect {
        return Err(e);
    }
    Trace::from_events(events)
}

/// Salvage the valid prefix of a possibly-damaged durable trace.
///
/// Frames decode until the first defect; the events of every intact frame
/// form the returned trace, with the defect (if any) reported in
/// [`RecoveredTrace::truncated`]. A prefix of a well-formed trace is
/// itself well-formed (truncation can only leak, and leaks are advisory),
/// so recovery fails only when the header is unusable or the intact
/// prefix was malformed to begin with.
///
/// # Errors
///
/// [`Error::TraceStore`] `TR010` if the header is unusable (nothing can
/// be salvaged); [`Error::MalformedTrace`] if the intact prefix fails
/// validation.
pub fn recover_bytes(bytes: &[u8]) -> Result<RecoveredTrace> {
    check_header(bytes)?;
    let mut events = Vec::new();
    let (frames, truncated) = walk_frames(bytes, &mut events);
    let trace = Trace::from_events(events)?;
    Ok(RecoveredTrace {
        trace,
        frames,
        truncated,
    })
}

fn io_err(verb: &str, path: &Path, e: std::io::Error) -> Error {
    store_err("TR013", format!("cannot {verb} {}: {e}", path.display()))
}

/// Write a trace to `path` in the durable format.
///
/// # Errors
///
/// [`Error::TraceStore`] `TR013` on I/O failure.
pub fn write_trace(path: &Path, trace: &Trace) -> Result<()> {
    std::fs::write(path, encode_trace(trace)).map_err(|e| io_err("write", path, e))
}

/// Strictly read a durable trace from `path`.
///
/// # Errors
///
/// As [`decode_trace`], plus [`Error::TraceStore`] `TR013` on I/O failure.
pub fn read_trace(path: &Path) -> Result<Trace> {
    decode_trace(&std::fs::read(path).map_err(|e| io_err("read", path, e))?)
}

/// Salvage the valid prefix of a possibly-damaged durable trace file.
///
/// # Errors
///
/// As [`recover_bytes`], plus [`Error::TraceStore`] `TR013` on I/O
/// failure.
pub fn recover_trace(path: &Path) -> Result<RecoveredTrace> {
    recover_bytes(&std::fs::read(path).map_err(|e| io_err("read", path, e))?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{flip_bit, truncate_at};

    fn store_code(e: &Error) -> &str {
        match e {
            Error::TraceStore { code, .. } => code,
            other => panic!("expected TraceStore, got {other:?}"),
        }
    }

    fn sample_trace(n: usize) -> Trace {
        let mut b = Trace::builder();
        let mut live = Vec::new();
        let mut x: u64 = 0x2545_F491_4F6C_DD1D;
        b.phase(0);
        for i in 0..n {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            if i == n / 2 {
                b.phase(1);
            }
            if live.is_empty() || !x.is_multiple_of(3) {
                live.push(b.alloc(8 + (x % 500) as usize));
            } else {
                let k = (x as usize / 5) % live.len();
                b.free(live.swap_remove(k));
            }
        }
        for id in live {
            b.free(id);
        }
        b.finish().unwrap()
    }

    #[test]
    fn roundtrip_is_identity() {
        for n in [0usize, 1, 100, FRAME_EVENTS + 7, 2 * FRAME_EVENTS] {
            let t = sample_trace(n);
            let decoded = decode_trace(&encode_trace(&t)).unwrap();
            assert_eq!(t.events(), decoded.events(), "n={n}");
        }
    }

    #[test]
    fn tr010_bad_magic_and_short_header() {
        let mut bytes = encode_trace(&sample_trace(10));
        bytes[0] = b'X';
        assert_eq!(store_code(&decode_trace(&bytes).unwrap_err()), "TR010");
        assert_eq!(store_code(&recover_bytes(&bytes).unwrap_err()), "TR010");
        assert_eq!(store_code(&decode_trace(&[1, 2, 3]).unwrap_err()), "TR010");
    }

    #[test]
    fn tr010_version_from_the_future() {
        let mut bytes = encode_trace(&sample_trace(10));
        bytes[4] = 0xFF;
        assert_eq!(store_code(&decode_trace(&bytes).unwrap_err()), "TR010");
    }

    #[test]
    fn tr011_truncated_frame_and_prefix_recovery() {
        let t = sample_trace(FRAME_EVENTS + 200); // two frames
        let bytes = encode_trace(&t);
        let cut = truncate_at(&bytes, bytes.len() - 37);
        assert_eq!(store_code(&decode_trace(&cut).unwrap_err()), "TR011");
        let rec = recover_bytes(&cut).unwrap();
        assert!(!rec.is_complete());
        assert_eq!(rec.frames, 1);
        assert_eq!(store_code(rec.truncated.as_ref().unwrap()), "TR011");
        assert_eq!(rec.trace.events(), &t.events()[..FRAME_EVENTS]);
    }

    #[test]
    fn tr012_bit_flip_detected_and_prior_frames_survive() {
        let t = sample_trace(FRAME_EVENTS + 200);
        let bytes = encode_trace(&t);
        // Flip one bit deep inside the second frame's payload.
        let flipped = flip_bit(&bytes, (bytes.len() - 16) * 8 + 3);
        assert_eq!(store_code(&decode_trace(&flipped).unwrap_err()), "TR012");
        let rec = recover_bytes(&flipped).unwrap();
        assert_eq!(rec.frames, 1);
        assert_eq!(store_code(rec.truncated.as_ref().unwrap()), "TR012");
        assert_eq!(rec.trace.events(), &t.events()[..FRAME_EVENTS]);
    }

    #[test]
    fn clean_bytes_recover_completely() {
        let t = sample_trace(300);
        let rec = recover_bytes(&encode_trace(&t)).unwrap();
        assert!(rec.is_complete());
        assert_eq!(rec.frames, 1);
        assert_eq!(rec.trace.events(), t.events());
    }

    #[test]
    fn tr013_missing_file() {
        let e = read_trace(Path::new("/nonexistent/dir/trace.dmmt")).unwrap_err();
        assert_eq!(store_code(&e), "TR013");
    }

    #[test]
    fn file_roundtrip() {
        let dir = std::env::temp_dir().join("dmm-store-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("roundtrip.dmmt");
        let t = sample_trace(500);
        write_trace(&path, &t).unwrap();
        let back = read_trace(&path).unwrap();
        assert_eq!(t.events(), back.events());
        let rec = recover_trace(&path).unwrap();
        assert!(rec.is_complete());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn crc32_matches_known_vector() {
        // The canonical IEEE test vector.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }
}
