//! The segmented log device: fixed-size rotating segments behind the
//! [`Io`] trait, so [`crate::DurableLog`] and the group-commit layer
//! are unchanged while recovery and disk usage stop growing with
//! history.
//!
//! A segment file is a 24-byte physical header followed by payload:
//!
//! ```text
//! segment := b"CDBSEG01" seq:u64le logical_start:u64le payload*
//! ```
//!
//! Segment payloads concatenate into one stable *logical* byte space:
//! offsets handed out by [`Io::len`] never move when segments rotate
//! or retire, so frame offsets recorded in checkpoints stay valid for
//! the life of the log. Rotation happens between appends (each append
//! is one whole frame, so frames never straddle a boundary), and only
//! the newest segment is ever written — older segments are sealed.
//! Flushing goes oldest-first, so the durable image is always a
//! contiguous logical prefix plus possibly-torn bytes in the newest
//! flushed segment; [`SegmentedIo::open`] keeps the longest contiguous
//! run of valid segments and discards the rest, which is exactly the
//! torn-tail rule the frame scanner applies within a segment.
//!
//! [`Io::reclaim`] retires sealed segments wholly covered by a durable
//! checkpoint, under [`Retention::Reclaim`] only: they are deleted, and
//! recovery scans only the live segments. Under [`Retention::KeepAll`]
//! (the paper's stance: the curation log is forever) every segment
//! stays live, so the WAL is the one home of the whole log.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use crate::io::{sync_parent_dir, FileIo, Io, ReclaimStats};
use crate::StorageError;

/// Magic header for segment files.
pub const SEG_MAGIC: &[u8; 8] = b"CDBSEG01";
/// Physical header size: magic + seq + logical start.
pub const SEG_HEADER: u64 = 24;
/// Default rotation threshold (1 MiB of payload per segment).
pub const DEFAULT_SEGMENT_BYTES: u64 = 1 << 20;

/// What happens to a segment once a checkpoint durably covers it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Retention {
    /// Keep every segment live. The paper's keep-everything stance:
    /// the WAL holds the whole curation log, and checkpoints carry
    /// only state.
    #[default]
    KeepAll,
    /// Delete covered segments. The checkpoint carries everything
    /// recovery needs; provenance older than the checkpoint is folded
    /// into it and per-transaction history before it is gone.
    Reclaim,
}

/// Rotation and retention policy for a [`SegmentedIo`].
#[derive(Debug, Clone, Copy)]
pub struct SegmentConfig {
    /// Rotate once the active segment's payload reaches this size.
    pub segment_bytes: u64,
    /// What to do with checkpoint-covered segments.
    pub retention: Retention,
}

impl Default for SegmentConfig {
    fn default() -> Self {
        SegmentConfig {
            segment_bytes: DEFAULT_SEGMENT_BYTES,
            retention: Retention::KeepAll,
        }
    }
}

/// Where segment files live: a directory, a test harness, anything
/// that can open, enumerate, and retire numbered segment files.
pub trait SegmentBacking: std::fmt::Debug + Send + Sync {
    /// Opens (creating if absent) the device for segment `seq`.
    fn open(&mut self, seq: u64) -> Result<Box<dyn Io>, StorageError>;
    /// Live segment sequence numbers, ascending.
    fn list(&mut self) -> Result<Vec<u64>, StorageError>;
    /// Removes segment `seq` from the live set, destroying its bytes.
    fn delete(&mut self, seq: u64) -> Result<(), StorageError>;
    /// Removes segment `seq` from the live set, preserving its bytes
    /// out-of-band. [`SegmentedIo`] never calls it (covered segments
    /// stay live under [`Retention::KeepAll`]); [`DirBacking`]'s rename
    /// is kept for backings that wrap it.
    fn archive(&mut self, seq: u64) -> Result<(), StorageError>;
}

// -------------------------------------------------------- dir backing

/// Segment files in a directory: `<name>.wal.<seq>` live,
/// `<name>.walarch.<seq>` archived by [`SegmentBacking::archive`].
/// Every mutation fsyncs the directory so creations, deletions, and
/// archivals are themselves durable.
#[derive(Debug, Clone)]
pub struct DirBacking {
    dir: std::path::PathBuf,
    name: String,
}

impl DirBacking {
    /// A backing over `<dir>/<name>.wal.*`.
    pub fn new(dir: impl Into<std::path::PathBuf>, name: impl Into<String>) -> Self {
        DirBacking {
            dir: dir.into(),
            name: name.into(),
        }
    }

    fn seg_path(&self, seq: u64) -> std::path::PathBuf {
        self.dir.join(format!("{}.wal.{seq}", self.name))
    }

    fn arch_path(&self, seq: u64) -> std::path::PathBuf {
        self.dir.join(format!("{}.walarch.{seq}", self.name))
    }

    fn sync_dir(&self, seq: u64) -> Result<(), StorageError> {
        sync_parent_dir(&self.seg_path(seq))
            .map_err(|e| StorageError::Io(format!("sync dir {}: {e}", self.dir.display())))
    }
}

impl SegmentBacking for DirBacking {
    fn open(&mut self, seq: u64) -> Result<Box<dyn Io>, StorageError> {
        std::fs::create_dir_all(&self.dir)
            .map_err(|e| StorageError::Io(format!("mkdir {}: {e}", self.dir.display())))?;
        Ok(Box::new(FileIo::open(self.seg_path(seq))?))
    }

    fn list(&mut self) -> Result<Vec<u64>, StorageError> {
        let entries = match std::fs::read_dir(&self.dir) {
            Ok(e) => e,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
            Err(e) => {
                return Err(StorageError::Io(format!(
                    "read dir {}: {e}",
                    self.dir.display()
                )))
            }
        };
        let prefix = format!("{}.wal.", self.name);
        let mut seqs = Vec::new();
        for entry in entries {
            let entry = entry
                .map_err(|e| StorageError::Io(format!("read dir {}: {e}", self.dir.display())))?;
            if let Some(suffix) = entry
                .file_name()
                .to_str()
                .and_then(|n| n.strip_prefix(&prefix).map(String::from))
            {
                if let Ok(seq) = suffix.parse::<u64>() {
                    seqs.push(seq);
                }
            }
        }
        seqs.sort_unstable();
        Ok(seqs)
    }

    fn delete(&mut self, seq: u64) -> Result<(), StorageError> {
        let path = self.seg_path(seq);
        std::fs::remove_file(&path)
            .map_err(|e| StorageError::Io(format!("remove {}: {e}", path.display())))?;
        self.sync_dir(seq)
    }

    fn archive(&mut self, seq: u64) -> Result<(), StorageError> {
        let from = self.seg_path(seq);
        let to = self.arch_path(seq);
        std::fs::rename(&from, &to)
            .map_err(|e| StorageError::Io(format!("archive {}: {e}", from.display())))?;
        self.sync_dir(seq)
    }
}

// -------------------------------------------------------- mem backing

/// Scripted faults for [`MemBacking`], the segmented counterpart of
/// [`crate::FaultPlan`].
#[derive(Debug, Default, Clone)]
pub struct SegFaultPlan {
    /// A global budget of durable bytes across all segment files, in
    /// flush order: once the budget is spent, flushed bytes are
    /// silently dropped (a lying disk dying mid-sync). Because flushes
    /// go oldest-segment-first, the budget cuts the *logical* byte
    /// stream at an arbitrary physical offset.
    pub torn_flush_budget: Option<u64>,
    /// The first N segment deletions succeed; later ones fail — a
    /// crash or I/O error inside the segment-retire window, leaving
    /// retirement half done.
    pub fail_retire_after: Option<u32>,
}

#[derive(Debug, Default, Clone)]
struct MemSegFile {
    durable: Vec<u8>,
    pending: Vec<u8>,
}

#[derive(Debug, Default)]
struct MemBackingState {
    files: BTreeMap<u64, MemSegFile>,
    plan: SegFaultPlan,
    durable_total: u64,
    retires: u32,
}

/// An in-memory, cloneable segment backing for tests and benches. All
/// clones share state, so a test can keep a handle while a
/// [`SegmentedIo`] owns another, then [`MemBacking::crash`] to get the
/// post-crash backing a reopen would see.
#[derive(Debug, Clone, Default)]
pub struct MemBacking {
    state: Arc<Mutex<MemBackingState>>,
}

impl MemBacking {
    /// A fault-free in-memory backing.
    pub fn new() -> Self {
        MemBacking::default()
    }

    /// An in-memory backing with a scripted fault plan.
    pub fn with_plan(plan: SegFaultPlan) -> Self {
        let me = MemBacking::default();
        me.state.lock().unwrap().plan = plan;
        me
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, MemBackingState> {
        self.state.lock().unwrap()
    }

    /// Simulates a crash: pending (unflushed) bytes in every segment
    /// file are lost; the surviving durable files are returned as a
    /// fresh fault-free backing for reopening.
    pub fn crash(&self) -> MemBacking {
        let state = self.lock();
        let survivor = MemBacking::default();
        {
            let mut s = survivor.lock();
            for (&seq, f) in &state.files {
                s.files.insert(
                    seq,
                    MemSegFile {
                        durable: f.durable.clone(),
                        pending: Vec::new(),
                    },
                );
            }
        }
        survivor
    }

    /// Live segment sequence numbers (durable view).
    pub fn live_seqs(&self) -> Vec<u64> {
        self.lock().files.keys().copied().collect()
    }

    /// Total physical bytes across live segment files (durable +
    /// pending, as the live handle sees them).
    pub fn live_bytes(&self) -> u64 {
        self.lock()
            .files
            .values()
            .map(|f| (f.durable.len() + f.pending.len()) as u64)
            .sum()
    }
}

impl SegmentBacking for MemBacking {
    fn open(&mut self, seq: u64) -> Result<Box<dyn Io>, StorageError> {
        self.lock().files.entry(seq).or_default();
        Ok(Box::new(MemSegIo {
            state: Arc::clone(&self.state),
            seq,
        }))
    }

    fn list(&mut self) -> Result<Vec<u64>, StorageError> {
        Ok(self.lock().files.keys().copied().collect())
    }

    fn delete(&mut self, seq: u64) -> Result<(), StorageError> {
        let mut state = self.lock();
        state.retires += 1;
        if state
            .plan
            .fail_retire_after
            .is_some_and(|k| state.retires > k)
        {
            return Err(StorageError::Io("injected retire failure".into()));
        }
        state.files.remove(&seq);
        Ok(())
    }

    /// An in-memory backing keeps no archive: refused.
    fn archive(&mut self, seq: u64) -> Result<(), StorageError> {
        Err(StorageError::Io(format!(
            "segment {seq}: an in-memory backing keeps no archive"
        )))
    }
}

/// One segment file of a [`MemBacking`].
#[derive(Debug)]
struct MemSegIo {
    state: Arc<Mutex<MemBackingState>>,
    seq: u64,
}

impl MemSegIo {
    fn with_file<T>(
        &self,
        f: impl FnOnce(&mut MemBackingState, u64) -> Result<T, StorageError>,
    ) -> Result<T, StorageError> {
        let mut state = self.state.lock().unwrap();
        if !state.files.contains_key(&self.seq) {
            return Err(StorageError::Io(format!(
                "segment {} was deleted",
                self.seq
            )));
        }
        f(&mut state, self.seq)
    }
}

impl Io for MemSegIo {
    fn len(&self) -> Result<u64, StorageError> {
        self.with_file(|s, seq| {
            let f = &s.files[&seq];
            Ok((f.durable.len() + f.pending.len()) as u64)
        })
    }

    fn read_at(&mut self, offset: u64, buf: &mut [u8]) -> Result<usize, StorageError> {
        self.with_file(|s, seq| {
            let f = &s.files[&seq];
            let total = f.durable.len() + f.pending.len();
            let offset = offset.min(total as u64) as usize;
            let n = buf.len().min(total - offset);
            for (i, slot) in buf[..n].iter_mut().enumerate() {
                let pos = offset + i;
                *slot = if pos < f.durable.len() {
                    f.durable[pos]
                } else {
                    f.pending[pos - f.durable.len()]
                };
            }
            Ok(n)
        })
    }

    fn append(&mut self, bytes: &[u8]) -> Result<(), StorageError> {
        self.with_file(|s, seq| {
            s.files
                .get_mut(&seq)
                .unwrap()
                .pending
                .extend_from_slice(bytes);
            Ok(())
        })
    }

    fn flush(&mut self) -> Result<(), StorageError> {
        self.with_file(|s, seq| {
            let room = s
                .plan
                .torn_flush_budget
                .map(|b| b.saturating_sub(s.durable_total) as usize);
            let f = s.files.get_mut(&seq).unwrap();
            let n = room.map_or(f.pending.len(), |r| f.pending.len().min(r));
            let moved: Vec<u8> = f.pending.drain(..n).collect();
            // Bytes past the budget are acknowledged but never land —
            // the lying disk. They are gone, not retried.
            f.pending.clear();
            f.durable.extend_from_slice(&moved);
            s.durable_total += n as u64;
            Ok(())
        })
    }

    fn truncate(&mut self, len: u64) -> Result<(), StorageError> {
        self.with_file(|s, seq| {
            let f = s.files.get_mut(&seq).unwrap();
            let len = len as usize;
            if len <= f.durable.len() {
                f.durable.truncate(len);
                f.pending.clear();
            } else {
                f.pending.truncate(len - f.durable.len());
            }
            Ok(())
        })
    }
}

// --------------------------------------------------------- the device

#[derive(Debug)]
struct Seg {
    seq: u64,
    start: u64,
    payload: u64,
    io: Box<dyn Io>,
    dirty: bool,
}

impl Seg {
    fn end(&self) -> u64 {
        self.start + self.payload
    }
}

/// A segmented log device: rotating fixed-size segments presenting one
/// stable logical byte space through the [`Io`] trait.
#[derive(Debug)]
pub struct SegmentedIo {
    backing: Box<dyn SegmentBacking>,
    cfg: SegmentConfig,
    segs: Vec<Seg>,
}

impl SegmentedIo {
    /// Opens (or initializes) a segmented device over `backing`. The
    /// longest contiguous run of valid segments survives: a segment
    /// with a torn header, the wrong sequence number, or a logical
    /// start that doesn't continue its predecessor — and everything
    /// after it — is dropped, the same first-bad-point rule the frame
    /// scanner applies within a segment.
    pub fn open(
        mut backing: Box<dyn SegmentBacking>,
        cfg: SegmentConfig,
    ) -> Result<Self, StorageError> {
        let seqs = backing.list()?;
        let mut segs: Vec<Seg> = Vec::new();
        let mut drop_rest = false;
        for seq in seqs {
            if drop_rest {
                backing.delete(seq)?;
                continue;
            }
            let mut io = backing.open(seq)?;
            let start = match (read_seg_header(&mut io, seq)?, segs.last()) {
                (Some(start), None) => Some(start),
                (Some(start), Some(prev)) if prev.seq + 1 == seq && start == prev.end() => {
                    Some(start)
                }
                _ => None,
            };
            match start {
                Some(start) => {
                    let payload = io.len()? - SEG_HEADER;
                    segs.push(Seg {
                        seq,
                        start,
                        payload,
                        io,
                        dirty: false,
                    });
                }
                None => {
                    drop(io);
                    backing.delete(seq)?;
                    drop_rest = true;
                }
            }
        }
        let mut me = SegmentedIo { backing, cfg, segs };
        if me.segs.is_empty() {
            me.create_segment(0, 0)?;
        }
        Ok(me)
    }

    /// Opens a segmented device over directory files
    /// `<dir>/<name>.wal.<seq>`.
    pub fn open_dir(
        dir: impl Into<std::path::PathBuf>,
        name: impl Into<String>,
        cfg: SegmentConfig,
    ) -> Result<Self, StorageError> {
        SegmentedIo::open(Box::new(DirBacking::new(dir, name)), cfg)
    }

    /// An in-memory segmented device plus a shared handle to its
    /// backing (for crash simulation and inspection).
    pub fn mem(cfg: SegmentConfig) -> Result<(Self, MemBacking), StorageError> {
        let backing = MemBacking::new();
        let io = SegmentedIo::open(Box::new(backing.clone()), cfg)?;
        Ok((io, backing))
    }

    /// The active rotation/retention policy.
    pub fn config(&self) -> SegmentConfig {
        self.cfg
    }

    fn create_segment(&mut self, seq: u64, start: u64) -> Result<(), StorageError> {
        let mut io = self.backing.open(seq)?;
        io.truncate(0)?;
        let mut hdr = Vec::with_capacity(SEG_HEADER as usize);
        hdr.extend_from_slice(SEG_MAGIC);
        hdr.extend_from_slice(&seq.to_le_bytes());
        hdr.extend_from_slice(&start.to_le_bytes());
        io.append(&hdr)?;
        self.segs.push(Seg {
            seq,
            start,
            payload: 0,
            io,
            dirty: true,
        });
        Ok(())
    }

    fn logical_len(&self) -> u64 {
        self.segs.last().map_or(0, Seg::end)
    }

    fn reinit(&mut self) -> Result<(), StorageError> {
        while let Some(seg) = self.segs.pop() {
            drop(seg.io);
            self.backing.delete(seg.seq)?;
        }
        self.create_segment(0, 0)
    }
}

fn read_seg_header(io: &mut Box<dyn Io>, expect_seq: u64) -> Result<Option<u64>, StorageError> {
    if io.len()? < SEG_HEADER {
        return Ok(None);
    }
    let mut hdr = [0u8; SEG_HEADER as usize];
    crate::io::read_exact_at(io, 0, &mut hdr)?;
    if &hdr[..8] != SEG_MAGIC {
        return Ok(None);
    }
    let seq = u64::from_le_bytes(hdr[8..16].try_into().unwrap());
    if seq != expect_seq {
        return Ok(None);
    }
    Ok(Some(u64::from_le_bytes(hdr[16..24].try_into().unwrap())))
}

impl Io for SegmentedIo {
    fn len(&self) -> Result<u64, StorageError> {
        Ok(self.logical_len())
    }

    fn read_at(&mut self, offset: u64, buf: &mut [u8]) -> Result<usize, StorageError> {
        let base = self.base();
        if offset < base {
            return Err(StorageError::Io(format!(
                "read at {offset} below retired base {base}"
            )));
        }
        if offset >= self.logical_len() || buf.is_empty() {
            return Ok(0);
        }
        let idx = self
            .segs
            .iter()
            .rposition(|s| s.start <= offset)
            .expect("offset >= base implies a containing segment");
        let seg = &mut self.segs[idx];
        let within = offset - seg.start;
        let n = buf.len().min((seg.payload - within) as usize);
        seg.io.read_at(SEG_HEADER + within, &mut buf[..n])
    }

    fn append(&mut self, bytes: &[u8]) -> Result<(), StorageError> {
        let rotate = self
            .segs
            .last()
            .is_none_or(|s| s.payload >= self.cfg.segment_bytes);
        if rotate {
            let seq = self.segs.last().map_or(0, |s| s.seq + 1);
            let start = self.logical_len();
            self.create_segment(seq, start)?;
        }
        let seg = self.segs.last_mut().expect("an active segment exists");
        seg.io.append(bytes)?;
        seg.payload += bytes.len() as u64;
        seg.dirty = true;
        Ok(())
    }

    fn flush(&mut self) -> Result<(), StorageError> {
        // Oldest-first, so the durable image is always a contiguous
        // logical prefix (up to torn bytes in the last flushed file).
        for seg in &mut self.segs {
            if seg.dirty {
                seg.io.flush()?;
                seg.dirty = false;
            }
        }
        Ok(())
    }

    fn truncate(&mut self, len: u64) -> Result<(), StorageError> {
        let base = self.base();
        if len < base {
            if len == 0 {
                return self.reinit();
            }
            return Err(StorageError::Io(format!(
                "truncate to {len} below retired base {base}"
            )));
        }
        while self.segs.len() > 1 && self.segs.last().is_some_and(|s| s.start >= len) {
            let seg = self.segs.pop().expect("len checked above");
            drop(seg.io);
            self.backing.delete(seg.seq)?;
        }
        let seg = self.segs.last_mut().expect("at least one segment is live");
        let within = len - seg.start;
        // `<=`: a short write leaves bytes in the file past the payload
        // it counted, and a truncate to the current length cuts them.
        if within <= seg.payload {
            seg.io.truncate(SEG_HEADER + within)?;
            seg.payload = within;
            seg.dirty = true;
        }
        Ok(())
    }

    fn base(&self) -> u64 {
        self.segs.first().map_or(0, |s| s.start)
    }

    fn reclaim(&mut self, covered: u64) -> Result<Option<ReclaimStats>, StorageError> {
        let mut stats = ReclaimStats::default();
        // Only `Reclaim` retires. The active segment never is: recovery
        // always needs a live tail to scan, and losing the newest
        // header would orphan the logical offset chain.
        let reclaim = self.cfg.retention == Retention::Reclaim;
        while reclaim && self.segs.len() > 1 && self.segs[0].end() <= covered {
            let seq = self.segs[0].seq;
            let bytes = SEG_HEADER + self.segs[0].payload;
            if self.backing.delete(seq).is_err() {
                // Half-done retirement is safe: the live set stays
                // contiguous and the next checkpoint retries.
                stats.failed = true;
                break;
            }
            self.segs.remove(0);
            stats.retired += 1;
            stats.reclaimed_bytes += bytes;
        }
        stats.live = self.segs.len() as u64;
        Ok(Some(stats))
    }

    fn live_segments(&self) -> u64 {
        self.segs.len() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::io::read_exact_at;

    fn small(segment_bytes: u64, retention: Retention) -> SegmentConfig {
        SegmentConfig {
            segment_bytes,
            retention,
        }
    }

    fn fill(io: &mut SegmentedIo, chunks: &[&[u8]]) {
        for c in chunks {
            io.append(c).unwrap();
        }
        io.flush().unwrap();
    }

    #[test]
    fn appends_rotate_and_logical_space_is_stable() {
        let (mut io, backing) = SegmentedIo::mem(small(10, Retention::KeepAll)).unwrap();
        fill(&mut io, &[b"aaaaaa", b"bbbbbb", b"cccccc", b"dddddd"]);
        assert_eq!(io.len().unwrap(), 24);
        assert!(io.live_segments() > 1, "rotation must have happened");
        let mut buf = [0u8; 24];
        read_exact_at(&mut io, 0, &mut buf).unwrap();
        assert_eq!(&buf, b"aaaaaabbbbbbccccccdddddd");
        // A read straddling a segment boundary (offset 8 crosses the
        // first rotation at logical 12).
        let mut mid = [0u8; 10];
        read_exact_at(&mut io, 8, &mut mid).unwrap();
        assert_eq!(&mid, b"bbbbcccccc");
        drop(io);
        let mut re =
            SegmentedIo::open(Box::new(backing.crash()), small(10, Retention::KeepAll)).unwrap();
        let mut buf2 = [0u8; 24];
        read_exact_at(&mut re, 0, &mut buf2).unwrap();
        assert_eq!(buf, buf2);
    }

    #[test]
    fn truncate_across_a_boundary_deletes_newer_segments() {
        let (mut io, _) = SegmentedIo::mem(small(8, Retention::KeepAll)).unwrap();
        fill(&mut io, &[b"aaaaaaaa", b"bbbbbbbb", b"cccccccc"]);
        assert_eq!(io.live_segments(), 3);
        io.truncate(10).unwrap();
        assert_eq!(io.len().unwrap(), 10);
        assert_eq!(io.live_segments(), 2);
        io.append(b"XX").unwrap();
        let mut buf = [0u8; 12];
        read_exact_at(&mut io, 0, &mut buf).unwrap();
        assert_eq!(&buf, b"aaaaaaaabbXX");
    }

    #[test]
    fn reclaim_retires_covered_segments_and_advances_base() {
        let (mut io, backing) = SegmentedIo::mem(small(8, Retention::Reclaim)).unwrap();
        fill(&mut io, &[b"aaaaaaaa", b"bbbbbbbb", b"cccccccc"]);
        let stats = io.reclaim(16).unwrap().unwrap();
        assert_eq!(stats.retired, 2);
        assert_eq!(stats.live, 1);
        assert!(!stats.failed);
        assert_eq!(io.base(), 16);
        assert_eq!(io.len().unwrap(), 24);
        assert_eq!(backing.live_seqs(), vec![2]);
        let mut tail = [0u8; 8];
        read_exact_at(&mut io, 16, &mut tail).unwrap();
        assert_eq!(&tail, b"cccccccc");
        assert!(io.read_at(0, &mut tail).is_err(), "reads below base fail");
        // Reopen after retirement: base survives.
        drop(io);
        let re =
            SegmentedIo::open(Box::new(backing.crash()), small(8, Retention::Reclaim)).unwrap();
        assert_eq!(re.base(), 16);
        assert_eq!(re.len().unwrap(), 24);
    }

    /// Under `KeepAll` the WAL is the one home of the log: a covering
    /// checkpoint retires nothing.
    #[test]
    fn keep_all_retires_nothing() {
        let (mut io, backing) = SegmentedIo::mem(small(8, Retention::KeepAll)).unwrap();
        fill(&mut io, &[b"aaaaaaaa", b"bbbbbbbb", b"cccccccc"]);
        let stats = io.reclaim(u64::MAX).unwrap().unwrap();
        assert_eq!((stats.retired, stats.live), (0, 3));
        assert_eq!(io.base(), 0);
        assert_eq!(backing.live_seqs(), vec![0, 1, 2]);
        let mut all = [0u8; 24];
        read_exact_at(&mut io, 0, &mut all).unwrap();
        assert_eq!(&all, b"aaaaaaaabbbbbbbbcccccccc");
    }

    #[test]
    fn reclaim_never_retires_the_active_segment() {
        let (mut io, _) = SegmentedIo::mem(small(8, Retention::Reclaim)).unwrap();
        fill(&mut io, &[b"aaaaaaaa", b"bbbbbbbb"]);
        let stats = io.reclaim(u64::MAX).unwrap().unwrap();
        assert_eq!(stats.live, 1);
        assert_eq!(io.live_segments(), 1);
        assert_eq!(io.len().unwrap(), 16);
    }

    #[test]
    fn failed_retire_keeps_the_live_set_contiguous() {
        let backing = MemBacking::with_plan(SegFaultPlan {
            fail_retire_after: Some(1),
            ..SegFaultPlan::default()
        });
        let mut io =
            SegmentedIo::open(Box::new(backing.clone()), small(8, Retention::Reclaim)).unwrap();
        fill(&mut io, &[b"aaaaaaaa", b"bbbbbbbb", b"cccccccc"]);
        let stats = io.reclaim(16).unwrap().unwrap();
        assert_eq!(stats.retired, 1);
        assert!(stats.failed);
        assert_eq!(io.base(), 8);
        // Reopen: still a contiguous prefix starting at the new base.
        let re =
            SegmentedIo::open(Box::new(backing.crash()), small(8, Retention::Reclaim)).unwrap();
        assert_eq!(re.base(), 8);
        assert_eq!(re.len().unwrap(), 24);
    }

    #[test]
    fn torn_flush_budget_keeps_a_contiguous_durable_prefix() {
        let payload: Vec<&[u8]> = vec![b"aaaaaaaa", b"bbbbbbbb", b"cccccccc"];
        let full: Vec<u8> = payload.concat();
        // Physical bytes = per-segment header + payload; enumerate
        // every budget and assert the surviving logical bytes are a
        // prefix of the full stream.
        for budget in 0..=(3 * SEG_HEADER + 24) {
            let backing = MemBacking::with_plan(SegFaultPlan {
                torn_flush_budget: Some(budget),
                ..SegFaultPlan::default()
            });
            let mut io =
                SegmentedIo::open(Box::new(backing.clone()), small(8, Retention::KeepAll)).unwrap();
            for c in &payload {
                io.append(c).unwrap();
                io.flush().unwrap();
            }
            drop(io);
            let mut re =
                SegmentedIo::open(Box::new(backing.crash()), small(8, Retention::KeepAll)).unwrap();
            let len = re.len().unwrap();
            let base = re.base();
            assert_eq!(base, 0);
            let mut got = vec![0u8; (len - base) as usize];
            if !got.is_empty() {
                read_exact_at(&mut re, base, &mut got).unwrap();
            }
            assert!(
                full.starts_with(&got),
                "budget {budget}: survivors are not a prefix"
            );
        }
    }

    #[test]
    fn truncate_to_the_current_length_cuts_a_short_write_off_the_file() {
        use std::io::Write;
        let dir = std::env::temp_dir().join(format!("cdb-seg-short-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut io = SegmentedIo::open_dir(&dir, "db", small(64, Retention::KeepAll)).unwrap();
        fill(&mut io, &[b"aaaaaaaa"]);
        let file = dir.join("db.wal.0");
        let whole = std::fs::metadata(&file).unwrap().len();
        // What a failed `write_all` leaves behind: bytes in the file
        // that the segment's payload does not count.
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(&file)
            .unwrap();
        f.write_all(b"torn").unwrap();
        let len = io.len().unwrap();
        io.truncate(len).unwrap();
        assert_eq!(std::fs::metadata(&file).unwrap().len(), whole);
        fill(&mut io, &[b"bbbbbbbb"]);
        let mut tail = [0u8; 8];
        read_exact_at(&mut io, 8, &mut tail).unwrap();
        assert_eq!(&tail, b"bbbbbbbb");
        drop(io);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn dir_backing_round_trips_rotation_and_retirement() {
        let dir = std::env::temp_dir().join(format!("cdb-seg-{}", std::process::id()));
        for retention in [Retention::KeepAll, Retention::Reclaim] {
            let _ = std::fs::remove_dir_all(&dir);
            {
                let mut io = SegmentedIo::open_dir(&dir, "db", small(8, retention)).unwrap();
                fill(&mut io, &[b"aaaaaaaa", b"bbbbbbbb", b"cccccccc"]);
                io.reclaim(16).unwrap().unwrap();
            }
            let mut io = SegmentedIo::open_dir(&dir, "db", small(8, retention)).unwrap();
            let base = match retention {
                Retention::KeepAll => 0,
                Retention::Reclaim => 16,
            };
            assert_eq!(io.base(), base);
            assert_eq!(io.len().unwrap(), 24);
            let mut tail = [0u8; 8];
            read_exact_at(&mut io, 16, &mut tail).unwrap();
            assert_eq!(&tail, b"cccccccc");
            for seq in 0..2 {
                assert_eq!(dir.join(format!("db.wal.{seq}")).exists(), base == 0);
                assert!(!dir.join(format!("db.walarch.{seq}")).exists());
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
