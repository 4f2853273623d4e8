//! The one record format on disk, and the one scanner that validates
//! it.
//!
//! Every file `cdb-storage` writes is a magic header followed by
//! frames:
//!
//! ```text
//! file   := magic frame*
//! magic  := b"CDBWAL01"            (log)
//!         | b"CDBCKP01"            (checkpoint slot: one FRAME_CKPT)
//!         | b"CDBPGH03"            (page heap: FRAME_PAGE records)
//! frame  := kind:u8 len:u32le crc:u32le payload:[u8; len]
//! ```
//!
//! The CRC-32 covers `kind`, `len`, and `payload`, so a bit flip in
//! the 9-byte frame header is as detectable as one in the payload —
//! in particular a corrupted `len` cannot silently resynchronize the
//! scanner onto garbage. The checksum lives in a module private to
//! this one, so no second checksum site can appear beside it.
//!
//! [`scan`] validates the longest good prefix and *stops at the first
//! bad frame*: once a length field is untrustworthy there is no way to
//! find the next frame boundary, so everything after the corruption is
//! reported as dropped. Combined with the append-only writer (a frame
//! is entirely within the synced prefix or entirely within the torn
//! tail), this yields the crash-consistency invariant: the scanned
//! prefix is exactly the committed prefix. What happens to the dropped
//! tail is the caller's policy, kept at the call site: the log and the
//! page heap truncate it, a checkpoint slot reads as absent. A failed
//! device read is not a bad frame — it propagates, and nothing is
//! truncated.

mod crc;

use crate::io::{read_exact_at, Io};
use crate::StorageError;

/// Magic header for write-ahead-log files.
pub const WAL_MAGIC: &[u8; 8] = b"CDBWAL01";
/// Magic header for checkpoint files.
pub const CKPT_MAGIC: &[u8; 8] = b"CDBCKP01";

// Kind 1 stays unassigned: it was a bare transaction, and recovery
// must keep refusing such a frame as unknown rather than adopt it.

/// Frame kind: a publish point ([`crate::recovery::PublishRecord`]).
pub const FRAME_PUBLISH: u8 = 2;
/// Frame kind: auxiliary application data (opaque to the WAL; tagged
/// and interpreted by `cdb-core` — lifecycle events and notes).
pub const FRAME_AUX: u8 = 3;
/// Frame kind: a checkpoint snapshot (`gen:u64le` followed by a
/// `cdb_curation::wire::encode_checkpoint` payload; checkpoint files
/// only).
pub const FRAME_CKPT: u8 = 4;
/// Frame kind: an atomic commit — one transaction plus the auxiliary
/// records it produced, in a single frame so a torn write can never
/// separate a transaction from its side effects (see
/// [`crate::recovery::encode_commit`]).
pub const FRAME_COMMIT: u8 = 5;
/// Frame kind: a two-phase-commit PREPARE — a cross-shard transaction's
/// effects on *this* shard, journaled but not yet decided (see
/// [`crate::twopc::PrepareRecord`]). The inner frames are adopted only
/// when a matching DECIDE(commit) is found or resolved.
pub const FRAME_PREPARE: u8 = 6;
/// Frame kind: a two-phase-commit DECIDE — the outcome (commit or
/// abort) for a prepared cross-shard transaction (see
/// [`crate::twopc::DecideRecord`]).
pub const FRAME_DECIDE: u8 = 7;
/// Frame kind: one version of a heap slot (`kind:u8 slot:u64le`
/// followed by the slot's object; page-heap files only, see
/// [`crate::page`]).
pub const FRAME_PAGE: u8 = 8;

/// Per-frame overhead: kind byte, length word, checksum word.
pub const FRAME_HEADER: u64 = 9;

/// Device bytes the scanner reads at a time. A longer frame is read
/// whole.
const READ_CHUNK: u64 = 64 * 1024;

/// A log frame the scan kept, with its payload copied out.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// One of the `FRAME_*` kinds.
    pub kind: u8,
    /// The payload bytes (already checksum-verified).
    pub payload: Vec<u8>,
    /// Absolute logical offset of the byte after the frame. Watermark
    /// recovery uses it to skip checkpoint-covered frames without
    /// decoding them.
    pub end: u64,
}

/// Encodes one frame (header + checksummed payload).
pub fn encode_frame(kind: u8, payload: &[u8]) -> Vec<u8> {
    encode_parts(kind, &[payload])
}

/// Encodes one frame whose payload is the concatenation of `parts`,
/// without first joining them.
pub(crate) fn encode_parts(kind: u8, parts: &[&[u8]]) -> Vec<u8> {
    let len: usize = parts.iter().map(|p| p.len()).sum();
    let mut out = Vec::with_capacity(FRAME_HEADER as usize + len);
    out.push(kind);
    out.extend_from_slice(&(len as u32).to_le_bytes());
    out.extend_from_slice(&[0; 4]);
    for part in parts {
        out.extend_from_slice(part);
    }
    let crc = checksum(kind, &out[FRAME_HEADER as usize..]);
    out[5..9].copy_from_slice(&crc.to_le_bytes());
    out
}

fn checksum(kind: u8, payload: &[u8]) -> u32 {
    let mut h = crc::Hasher::new();
    h.update(&[kind]);
    h.update(&(payload.len() as u32).to_le_bytes());
    h.update(payload);
    h.finish()
}

/// Validates one encoded frame: `(kind, payload)` when `bytes` is
/// exactly one frame whose length and checksum hold, `None` otherwise.
pub(crate) fn decode_frame(bytes: &[u8]) -> Option<(u8, &[u8])> {
    let (header, payload) = bytes.split_first_chunk::<{ FRAME_HEADER as usize }>()?;
    let [kind, l0, l1, l2, l3, c0, c1, c2, c3] = *header;
    let len = u32::from_le_bytes([l0, l1, l2, l3]);
    let crc = u32::from_le_bytes([c0, c1, c2, c3]);
    (payload.len() as u64 == u64::from(len) && checksum(kind, payload) == crc)
        .then_some((kind, payload))
}

/// What a scan found: where the valid frame prefix ends, plus an
/// accounting of everything past it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScanOutcome {
    /// Whether the magic header was intact. `false` means the file was
    /// empty, torn before the header finished, or of another format.
    /// A device whose header segment was retired (`base > 0`) reports
    /// `true`: the header was validated before it was allowed to be
    /// retired.
    pub header_ok: bool,
    /// Logical offset where readable data begins ([`Io::base`]).
    pub base: u64,
    /// Byte offset where the valid prefix ends (truncate here to drop
    /// the torn tail).
    pub valid_len: u64,
    /// Frames whose checksum failed or that were torn mid-frame, by
    /// the device end or by the scan's `limit` (at most 1: scanning
    /// stops at the first bad frame).
    pub frames_dropped: u64,
    /// Bytes past the valid prefix.
    pub bytes_dropped: u64,
}

/// Scans a device from its base, validating `magic` (when the header
/// is still live) and then every frame checksum, stopping at the first
/// torn or corrupt frame. `visit` gets each valid frame's kind,
/// payload and end offset, in order, borrowed from the read buffer;
/// its error aborts the scan.
///
/// `limit` is a watermark: the scan treats the device as if it ended
/// there, so a frame ending past it is dropped even when intact.
pub fn scan(
    io: &mut dyn Io,
    magic: &[u8; 8],
    limit: Option<u64>,
    mut visit: impl FnMut(u8, &[u8], u64) -> Result<(), StorageError>,
) -> Result<ScanOutcome, StorageError> {
    let base = io.base();
    let total = io.len()?;
    let stop = limit.map_or(total, |l| l.min(total));
    let mut window = Window::default();
    let mut pos = base;
    // With a retired prefix the magic header is gone with its segment;
    // it was validated when the log was created, and retirement only
    // covers synced frames. The header read, like every other, stops
    // at the watermark (or at the header's end, if that lies past it).
    if base == 0 {
        let magic_len = magic.len() as u64;
        if total < magic_len || window.get(io, 0, magic_len, stop.max(magic_len))? != magic {
            return Ok(ScanOutcome {
                header_ok: false,
                base,
                valid_len: 0,
                frames_dropped: u64::from(total > 0),
                bytes_dropped: total,
            });
        }
        pos = magic_len;
    }
    let mut frames_dropped = 0;
    while pos < stop {
        let end = if stop - pos < FRAME_HEADER {
            None
        } else {
            let header = window.get(io, pos, FRAME_HEADER, stop)?;
            let len = u32::from_le_bytes([header[1], header[2], header[3], header[4]]);
            pos.checked_add(FRAME_HEADER + u64::from(len))
                .filter(|&end| end <= stop)
        };
        let frame = match end {
            Some(end) => decode_frame(window.get(io, pos, end - pos, stop)?).map(|f| (f, end)),
            None => None,
        };
        let Some(((kind, payload), end)) = frame else {
            frames_dropped = 1;
            break;
        };
        visit(kind, payload, end)?;
        pos = end;
    }
    Ok(ScanOutcome {
        header_ok: true,
        base,
        valid_len: pos,
        frames_dropped,
        bytes_dropped: total - pos,
    })
}

/// The scanner's read buffer: device bytes `[at, at + buf.len())`.
#[derive(Default)]
struct Window {
    at: u64,
    buf: Vec<u8>,
}

impl Window {
    /// Bytes `[pos, pos + n)` of `io`, read in [`READ_CHUNK`]s that
    /// never reach past `stop` (the caller keeps `pos + n <= stop`).
    fn get(&mut self, io: &mut dyn Io, pos: u64, n: u64, stop: u64) -> Result<&[u8], StorageError> {
        if pos < self.at || pos + n > self.at + self.buf.len() as u64 {
            self.buf
                .resize(n.max(READ_CHUNK).min(stop - pos) as usize, 0);
            read_exact_at(io, pos, &mut self.buf)?;
            self.at = pos;
        }
        let from = (pos - self.at) as usize;
        Ok(&self.buf[from..from + n as usize])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::io::MemIo;

    fn device(frames: &[(u8, &[u8])]) -> MemIo {
        let mut bytes = WAL_MAGIC.to_vec();
        for (kind, payload) in frames {
            bytes.extend_from_slice(&encode_frame(*kind, payload));
        }
        MemIo::from_bytes(bytes)
    }

    /// Scans `io` and collects the kept frames.
    fn scan_all(io: &mut MemIo, limit: Option<u64>) -> (ScanOutcome, Vec<Frame>) {
        let mut frames = Vec::new();
        let out = scan(io, WAL_MAGIC, limit, |kind, payload, end| {
            frames.push(Frame {
                kind,
                payload: payload.to_vec(),
                end,
            });
            Ok(())
        })
        .unwrap();
        (out, frames)
    }

    /// The watermarks every table runs under: none, exactly on the
    /// first frame boundary, and strictly inside the first and the
    /// second frame.
    fn limits(first_end: u64) -> [Option<u64>; 4] {
        [
            None,
            Some(first_end),
            Some(first_end - 2),
            Some(first_end + FRAME_HEADER + 1),
        ]
    }

    #[test]
    fn clean_log_scans_fully() {
        let mut io = device(&[
            (FRAME_COMMIT, b"alpha"),
            (FRAME_PUBLISH, b""),
            (FRAME_AUX, b"b"),
        ]);
        let (out, frames) = scan_all(&mut io, None);
        assert!(out.header_ok);
        assert_eq!(frames.len(), 3);
        assert_eq!(frames[0].payload, b"alpha");
        assert_eq!(out.frames_dropped, 0);
        assert_eq!(out.bytes_dropped, 0);
        assert_eq!(out.valid_len, io.len().unwrap());
        assert_eq!(frames[2].end, out.valid_len);
    }

    #[test]
    fn torn_tail_is_dropped_at_every_cut_point() {
        let full = device(&[(FRAME_COMMIT, b"alpha"), (FRAME_COMMIT, b"beta-longer")]);
        let bytes = full.bytes().to_vec();
        let first_end = 8 + FRAME_HEADER as usize + 5;
        let ends = [first_end as u64, bytes.len() as u64];
        for limit in limits(first_end as u64) {
            for cut in first_end..=bytes.len() {
                let mut io = MemIo::from_bytes(bytes[..cut].to_vec());
                let (out, frames) = scan_all(&mut io, limit);
                assert!(out.header_ok);
                let stop = limit.map_or(cut as u64, |l| l.min(cut as u64));
                let kept = ends.iter().filter(|&&e| e <= stop).count();
                assert_eq!(frames.len(), kept, "cut {cut} limit {limit:?}");
                let valid = if kept == 0 { 8 } else { ends[kept - 1] };
                assert_eq!(out.valid_len, valid, "cut {cut} limit {limit:?}");
                assert_eq!(out.bytes_dropped, cut as u64 - valid);
                assert_eq!(out.frames_dropped, u64::from(stop > valid));
            }
        }
    }

    #[test]
    fn every_single_bit_flip_is_detected() {
        let clean = device(&[
            (FRAME_COMMIT, b"payload-one"),
            (FRAME_COMMIT, b"payload-two"),
        ]);
        let bytes = clean.bytes().to_vec();
        let first_end = 8 + FRAME_HEADER + 11;
        for limit in limits(first_end) {
            for i in 8..bytes.len() {
                for bit in 0..8 {
                    let mut corrupt = bytes.clone();
                    corrupt[i] ^= 1 << bit;
                    let mut io = MemIo::from_bytes(corrupt);
                    let (out, frames) = scan_all(&mut io, limit);
                    assert!(
                        frames.len() < 2 || out.frames_dropped > 0 || out.bytes_dropped > 0,
                        "flip at byte {i} bit {bit} went unnoticed"
                    );
                    assert!(out.valid_len <= limit.unwrap_or(u64::MAX));
                    // Whatever survives is a clean prefix of the original.
                    for (n, f) in frames.iter().enumerate() {
                        let expect: &[u8] = if n == 0 {
                            b"payload-one"
                        } else {
                            b"payload-two"
                        };
                        assert_eq!(f.payload, expect);
                    }
                }
            }
        }
    }

    #[test]
    fn corrupt_length_field_cannot_resync_onto_garbage() {
        // Make the second frame's len field absurd; the scanner must
        // stop there, not interpret trailing bytes as a frame.
        let clean = device(&[(FRAME_COMMIT, b"aa"), (FRAME_COMMIT, b"bb")]);
        let mut bytes = clean.bytes().to_vec();
        let second = 8 + FRAME_HEADER as usize + 2;
        bytes[second + 1] = 0xFF;
        bytes[second + 2] = 0xFF;
        bytes[second + 3] = 0xFF;
        bytes[second + 4] = 0xFF;
        let mut io = MemIo::from_bytes(bytes);
        let (out, frames) = scan_all(&mut io, None);
        assert_eq!(frames.len(), 1);
        assert_eq!(out.frames_dropped, 1);
        assert_eq!(out.valid_len, second as u64);
    }

    #[test]
    fn missing_or_torn_magic_reports_header_not_ok() {
        for bytes in [Vec::new(), b"CDBW".to_vec(), b"NOTAFILE".to_vec()] {
            let empty = bytes.is_empty();
            let mut io = MemIo::from_bytes(bytes);
            let (out, frames) = scan_all(&mut io, None);
            assert!(!out.header_ok);
            assert_eq!(frames.len(), 0);
            assert_eq!(out.frames_dropped, u64::from(!empty));
        }
    }

    /// A [`MemIo`] that counts the bytes read from it.
    #[derive(Debug)]
    struct CountingIo {
        inner: MemIo,
        read: u64,
    }

    impl Io for CountingIo {
        fn len(&self) -> Result<u64, StorageError> {
            self.inner.len()
        }
        fn read_at(&mut self, offset: u64, buf: &mut [u8]) -> Result<usize, StorageError> {
            let n = self.inner.read_at(offset, buf)?;
            self.read += n as u64;
            Ok(n)
        }
        fn append(&mut self, bytes: &[u8]) -> Result<(), StorageError> {
            self.inner.append(bytes)
        }
        fn flush(&mut self) -> Result<(), StorageError> {
            self.inner.flush()
        }
        fn truncate(&mut self, len: u64) -> Result<(), StorageError> {
            self.inner.truncate(len)
        }
    }

    #[test]
    fn a_limited_scan_reads_no_byte_past_its_limit() {
        let payload = vec![7u8; 4096];
        let frames: Vec<(u8, &[u8])> = vec![(FRAME_COMMIT, &payload[..]); 256];
        let inner = device(&frames);
        assert!(inner.len().unwrap() > 1 << 20);
        let mut io = CountingIo { inner, read: 0 };
        let out = scan(&mut io, WAL_MAGIC, Some(8), |_, _, _| Ok(())).unwrap();
        assert!(out.header_ok);
        assert_eq!(out.valid_len, 8);
        assert_eq!(io.read, 8, "the header read stops at the limit");
        // A limit inside the header still reads the whole header.
        io.read = 0;
        scan(&mut io, WAL_MAGIC, Some(3), |_, _, _| Ok(())).unwrap();
        assert_eq!(io.read, 8);
    }

    #[test]
    fn empty_payload_frames_are_valid() {
        let mut io = device(&[(FRAME_PUBLISH, b"")]);
        let (_, frames) = scan_all(&mut io, None);
        assert_eq!(frames.len(), 1);
        assert!(frames[0].payload.is_empty());
    }
}
