//! Byte-device abstraction the WAL writes through.
//!
//! [`Io`] is the narrow waist between the log format and the world:
//! an append-only byte device with explicit sync points and positional
//! reads. Three implementations:
//!
//! - [`FileIo`] — a real file, syncing with `File::sync_data` so the
//!   frame bytes (not just metadata) are durable at each sync point;
//! - [`MemIo`] — an in-memory vector, for tests and benchmarks;
//! - [`FaultyIo`] — the deterministic fault injector: it models the
//!   durable image and the not-yet-flushed write cache separately, and
//!   a scripted [`FaultPlan`] makes writes tear, flushes stop early,
//!   reads come back short, and bits rot — all reproducibly, so every
//!   crash test is a unit test.
//!
//! Reads may legitimately return fewer bytes than asked for (short
//! reads); [`read_exact_at`] is the retry loop recovery uses.

use crate::StorageError;

/// An append-only byte device with positional reads and explicit sync.
///
/// `Send + Sync` is part of the contract: devices are moved into
/// databases that are shared across threads (`cdb-core::SharedDb`),
/// and every access goes through `&mut self` behind a lock, so the
/// bounds cost implementations nothing.
pub trait Io: std::fmt::Debug + Send + Sync {
    /// Current device length in bytes (as visible to this handle,
    /// including unflushed writes).
    fn len(&self) -> Result<u64, StorageError>;

    /// Whether the device holds no bytes at all.
    fn is_empty(&self) -> Result<bool, StorageError> {
        Ok(self.len()? == 0)
    }

    /// Reads up to `buf.len()` bytes at `offset`, returning how many
    /// were read (0 at end of device). Short reads are allowed.
    fn read_at(&mut self, offset: u64, buf: &mut [u8]) -> Result<usize, StorageError>;

    /// Appends bytes at the end of the device. Not durable until
    /// [`Io::flush`] returns.
    fn append(&mut self, bytes: &[u8]) -> Result<(), StorageError>;

    /// Forces previously appended bytes to durable storage.
    fn flush(&mut self) -> Result<(), StorageError>;

    /// Truncates the device to `len` bytes.
    fn truncate(&mut self, len: u64) -> Result<(), StorageError>;

    /// Logical offset where readable data begins. Plain devices keep
    /// every byte, so the base is 0; a segmented device whose oldest
    /// segments have been retired reports the start of the oldest live
    /// segment. Reads below the base are an error.
    fn base(&self) -> u64 {
        0
    }

    /// Retires storage wholly covered by a durable checkpoint at
    /// logical offset `covered`. Plain devices cannot reclaim and
    /// return `Ok(None)`; segmented devices retire fully-covered
    /// sealed segments and report what happened.
    fn reclaim(&mut self, _covered: u64) -> Result<Option<ReclaimStats>, StorageError> {
        Ok(None)
    }

    /// How many live segments back this device (1 for plain devices).
    fn live_segments(&self) -> u64 {
        1
    }
}

/// What one [`Io::reclaim`] pass did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReclaimStats {
    /// Segments retired (deleted) by this pass.
    pub retired: u64,
    /// Physical bytes (headers included) released from the live set.
    pub reclaimed_bytes: u64,
    /// Live segments remaining after the pass.
    pub live: u64,
    /// Whether the pass stopped early on a backing failure (the
    /// remaining covered segments stay live and are retried at the
    /// next checkpoint).
    pub failed: bool,
}

impl Io for Box<dyn Io> {
    fn len(&self) -> Result<u64, StorageError> {
        (**self).len()
    }
    fn read_at(&mut self, offset: u64, buf: &mut [u8]) -> Result<usize, StorageError> {
        (**self).read_at(offset, buf)
    }
    fn append(&mut self, bytes: &[u8]) -> Result<(), StorageError> {
        (**self).append(bytes)
    }
    fn flush(&mut self) -> Result<(), StorageError> {
        (**self).flush()
    }
    fn truncate(&mut self, len: u64) -> Result<(), StorageError> {
        (**self).truncate(len)
    }
    fn base(&self) -> u64 {
        (**self).base()
    }
    fn reclaim(&mut self, covered: u64) -> Result<Option<ReclaimStats>, StorageError> {
        (**self).reclaim(covered)
    }
    fn live_segments(&self) -> u64 {
        (**self).live_segments()
    }
}

/// Reads exactly `buf.len()` bytes at `offset`, looping over short
/// reads. Errors if the device ends first.
pub fn read_exact_at(io: &mut dyn Io, offset: u64, buf: &mut [u8]) -> Result<(), StorageError> {
    let mut done = 0;
    while done < buf.len() {
        let n = io.read_at(offset + done as u64, &mut buf[done..])?;
        if n == 0 {
            return Err(StorageError::Io(format!(
                "unexpected end of device at offset {}",
                offset + done as u64
            )));
        }
        done += n;
    }
    Ok(())
}

/// Reads the whole device into memory (short-read tolerant).
pub fn read_all(io: &mut dyn Io) -> Result<Vec<u8>, StorageError> {
    let len = io.len()? as usize;
    let mut buf = vec![0u8; len];
    if len > 0 {
        read_exact_at(io, 0, &mut buf)?;
    }
    Ok(buf)
}

// ------------------------------------------------------------- files

/// A real file. Appends buffer in the OS; [`Io::flush`] calls
/// `sync_data`, which is the durability point crash consistency
/// depends on.
#[derive(Debug)]
pub struct FileIo {
    file: std::fs::File,
    path: std::path::PathBuf,
}

impl FileIo {
    /// Opens (creating if absent) the file at `path` for logging. The
    /// parent directory is fsynced so a freshly created file's
    /// directory entry is itself durable — without this, a crash soon
    /// after creation can lose the whole (synced) log on filesystems
    /// that don't order directory updates with file data.
    pub fn open(path: impl Into<std::path::PathBuf>) -> Result<Self, StorageError> {
        let path = path.into();
        let file = std::fs::OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(&path)
            .map_err(|e| StorageError::Io(format!("open {}: {e}", path.display())))?;
        sync_parent_dir(&path)
            .map_err(|e| StorageError::Io(format!("sync dir of {}: {e}", path.display())))?;
        Ok(FileIo { file, path })
    }

    /// The backing path.
    pub fn path(&self) -> &std::path::Path {
        &self.path
    }

    fn err(&self, what: &str, e: std::io::Error) -> StorageError {
        StorageError::Io(format!("{what} {}: {e}", self.path.display()))
    }
}

/// Fsyncs the directory holding `path` (unix only; elsewhere a
/// directory handle cannot be fsynced, so this is a no-op).
#[cfg(unix)]
pub(crate) fn sync_parent_dir(path: &std::path::Path) -> std::io::Result<()> {
    let parent = match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p,
        _ => std::path::Path::new("."),
    };
    std::fs::File::open(parent)?.sync_all()
}

#[cfg(not(unix))]
pub(crate) fn sync_parent_dir(_path: &std::path::Path) -> std::io::Result<()> {
    Ok(())
}

impl Io for FileIo {
    fn len(&self) -> Result<u64, StorageError> {
        self.file
            .metadata()
            .map(|m| m.len())
            .map_err(|e| self.err("stat", e))
    }

    fn read_at(&mut self, offset: u64, buf: &mut [u8]) -> Result<usize, StorageError> {
        use std::io::{Read, Seek, SeekFrom};
        self.file
            .seek(SeekFrom::Start(offset))
            .map_err(|e| self.err("seek", e))?;
        self.file.read(buf).map_err(|e| self.err("read", e))
    }

    fn append(&mut self, bytes: &[u8]) -> Result<(), StorageError> {
        use std::io::{Seek, SeekFrom, Write};
        self.file
            .seek(SeekFrom::End(0))
            .map_err(|e| self.err("seek", e))?;
        self.file.write_all(bytes).map_err(|e| self.err("write", e))
    }

    fn flush(&mut self) -> Result<(), StorageError> {
        self.file.sync_data().map_err(|e| self.err("sync", e))
    }

    fn truncate(&mut self, len: u64) -> Result<(), StorageError> {
        self.file.set_len(len).map_err(|e| self.err("truncate", e))
    }
}

// ------------------------------------------------------------ memory

/// An in-memory device. Everything is "durable" immediately.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct MemIo {
    bytes: Vec<u8>,
}

impl MemIo {
    /// An empty device.
    pub fn new() -> Self {
        MemIo::default()
    }

    /// A device pre-loaded with `bytes` — e.g. a crash image from
    /// [`FaultyIo::crash`].
    pub fn from_bytes(bytes: Vec<u8>) -> Self {
        MemIo { bytes }
    }

    /// The device contents.
    pub fn bytes(&self) -> &[u8] {
        &self.bytes
    }
}

impl Io for MemIo {
    fn len(&self) -> Result<u64, StorageError> {
        Ok(self.bytes.len() as u64)
    }

    fn read_at(&mut self, offset: u64, buf: &mut [u8]) -> Result<usize, StorageError> {
        let offset = offset.min(self.bytes.len() as u64) as usize;
        let n = buf.len().min(self.bytes.len() - offset);
        buf[..n].copy_from_slice(&self.bytes[offset..offset + n]);
        Ok(n)
    }

    fn append(&mut self, bytes: &[u8]) -> Result<(), StorageError> {
        self.bytes.extend_from_slice(bytes);
        Ok(())
    }

    fn flush(&mut self) -> Result<(), StorageError> {
        Ok(())
    }

    fn truncate(&mut self, len: u64) -> Result<(), StorageError> {
        self.bytes.truncate(len as usize);
        Ok(())
    }
}

// ----------------------------------------------------- fault injection

/// A scripted fault schedule for [`FaultyIo`]. All offsets are
/// absolute device offsets, so a test can aim a fault at any byte of
/// any frame deterministically.
#[derive(Debug, Default, Clone)]
pub struct FaultPlan {
    /// No byte at or beyond this offset ever reaches durable storage:
    /// the device silently drops the overflow at flush time (a torn
    /// write / lying disk).
    pub torn_write_at: Option<u64>,
    /// Each flush moves at most this many bytes from the write cache
    /// to durable storage (a partial flush that still reports success).
    pub flush_cap: Option<u64>,
    /// The n-th flush (1-based) returns an error and persists nothing.
    pub fail_flush: Option<u32>,
    /// The n-th append (1-based) returns an error and buffers nothing
    /// (a transient write failure — later appends succeed).
    pub fail_append: Option<u32>,
    /// XOR masks applied to the durable image at crash time (bit rot):
    /// `(offset, mask)`. Offsets past the image are ignored.
    pub bit_flips: Vec<(u64, u8)>,
    /// Reads return at most this many bytes, forcing callers through
    /// the short-read retry path.
    pub short_read_chunk: Option<usize>,
}

/// The fault-injecting device: a durable image plus a write cache,
/// faulted per a [`FaultPlan`]. The live handle observes its own
/// writes (like an OS page cache); [`FaultyIo::crash`] discards the
/// cache, applies the scripted corruption, and returns the bytes a
/// post-crash reopen would see.
#[derive(Debug)]
pub struct FaultyIo {
    durable: Vec<u8>,
    pending: Vec<u8>,
    plan: FaultPlan,
    flushes: u32,
    appends: u32,
}

impl FaultyIo {
    /// An empty faulty device with the given schedule.
    pub fn new(plan: FaultPlan) -> Self {
        FaultyIo {
            durable: Vec::new(),
            pending: Vec::new(),
            plan,
            flushes: 0,
            appends: 0,
        }
    }

    /// A faulty device whose durable image starts as `bytes`.
    pub fn with_contents(bytes: Vec<u8>, plan: FaultPlan) -> Self {
        FaultyIo {
            durable: bytes,
            pending: Vec::new(),
            plan,
            flushes: 0,
            appends: 0,
        }
    }

    /// Simulates a crash: unflushed writes are lost, the torn-write
    /// cap and scripted bit flips are applied, and the surviving
    /// durable image is returned (reopen it with [`MemIo::from_bytes`]
    /// or [`FaultyIo::with_contents`]).
    pub fn crash(self) -> Vec<u8> {
        self.durable_image()
    }

    /// The crash image without consuming the device — what a reopen
    /// would see if the machine died right now. Concurrency tests keep
    /// the device alive behind a shared handle and sample this after
    /// the writer threads have been joined.
    pub fn durable_image(&self) -> Vec<u8> {
        let mut image = self.durable.clone();
        if let Some(cap) = self.plan.torn_write_at {
            image.truncate(cap as usize);
        }
        for &(offset, mask) in &self.plan.bit_flips {
            if let Some(b) = image.get_mut(offset as usize) {
                *b ^= mask;
            }
        }
        image
    }

    /// Bytes currently durable (before crash-time corruption).
    pub fn durable_len(&self) -> u64 {
        self.durable.len() as u64
    }
}

impl Io for FaultyIo {
    fn len(&self) -> Result<u64, StorageError> {
        Ok((self.durable.len() + self.pending.len()) as u64)
    }

    fn read_at(&mut self, offset: u64, buf: &mut [u8]) -> Result<usize, StorageError> {
        let total = self.durable.len() + self.pending.len();
        let offset = offset.min(total as u64) as usize;
        let mut n = buf.len().min(total - offset);
        if let Some(chunk) = self.plan.short_read_chunk {
            n = n.min(chunk.max(1));
        }
        for (i, slot) in buf[..n].iter_mut().enumerate() {
            let pos = offset + i;
            *slot = if pos < self.durable.len() {
                self.durable[pos]
            } else {
                self.pending[pos - self.durable.len()]
            };
        }
        Ok(n)
    }

    fn append(&mut self, bytes: &[u8]) -> Result<(), StorageError> {
        self.appends += 1;
        if self.plan.fail_append == Some(self.appends) {
            return Err(StorageError::Io("injected append failure".into()));
        }
        self.pending.extend_from_slice(bytes);
        Ok(())
    }

    fn flush(&mut self) -> Result<(), StorageError> {
        self.flushes += 1;
        if self.plan.fail_flush == Some(self.flushes) {
            return Err(StorageError::Io("injected flush failure".into()));
        }
        let mut n = self.pending.len();
        if let Some(cap) = self.plan.flush_cap {
            n = n.min(cap as usize);
        }
        let moved: Vec<u8> = self.pending.drain(..n).collect();
        self.durable.extend_from_slice(&moved);
        if let Some(cap) = self.plan.torn_write_at {
            if self.durable.len() as u64 >= cap {
                // The lying disk acknowledges but never persists past
                // the cap; the overflow is gone for good, not retried.
                self.durable.truncate(cap as usize);
                self.pending.clear();
            }
        }
        Ok(())
    }

    fn truncate(&mut self, len: u64) -> Result<(), StorageError> {
        let len = len as usize;
        if len <= self.durable.len() {
            self.durable.truncate(len);
            self.pending.clear();
        } else {
            self.pending.truncate(len - self.durable.len());
        }
        Ok(())
    }
}

// ---------------------------------------------------- simulated disks

/// Wraps a device and charges a fixed latency per [`Io::flush`],
/// modelling a disk whose sync cost dwarfs its write cost (the regime
/// where group commit pays off). Benchmarks use it so the measured
/// batching speedup reflects the protocol, not the host's fsync cost.
#[derive(Debug)]
pub struct ThrottledIo<I> {
    inner: I,
    sync_latency: std::time::Duration,
}

impl<I: Io> ThrottledIo<I> {
    /// Wraps `inner`, sleeping `sync_latency` on every flush.
    pub fn new(inner: I, sync_latency: std::time::Duration) -> Self {
        ThrottledIo {
            inner,
            sync_latency,
        }
    }

    /// The wrapped device.
    pub fn into_inner(self) -> I {
        self.inner
    }
}

impl<I: Io> Io for ThrottledIo<I> {
    fn len(&self) -> Result<u64, StorageError> {
        self.inner.len()
    }
    fn read_at(&mut self, offset: u64, buf: &mut [u8]) -> Result<usize, StorageError> {
        self.inner.read_at(offset, buf)
    }
    fn append(&mut self, bytes: &[u8]) -> Result<(), StorageError> {
        self.inner.append(bytes)
    }
    fn flush(&mut self) -> Result<(), StorageError> {
        std::thread::sleep(self.sync_latency);
        self.inner.flush()
    }
    fn truncate(&mut self, len: u64) -> Result<(), StorageError> {
        self.inner.truncate(len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mem_io_round_trips() {
        let mut io = MemIo::new();
        io.append(b"hello ").unwrap();
        io.append(b"world").unwrap();
        io.flush().unwrap();
        assert_eq!(io.len().unwrap(), 11);
        let mut buf = [0u8; 5];
        read_exact_at(&mut io, 6, &mut buf).unwrap();
        assert_eq!(&buf, b"world");
        io.truncate(5).unwrap();
        assert_eq!(io.bytes(), b"hello");
    }

    #[test]
    fn faulty_io_loses_unflushed_writes_on_crash() {
        let mut io = FaultyIo::new(FaultPlan::default());
        io.append(b"durable").unwrap();
        io.flush().unwrap();
        io.append(b" lost").unwrap();
        assert_eq!(io.len().unwrap(), 12); // the handle still sees it
        assert_eq!(io.crash(), b"durable");
    }

    #[test]
    fn torn_write_cap_truncates_durable_bytes() {
        let mut io = FaultyIo::new(FaultPlan {
            torn_write_at: Some(4),
            ..FaultPlan::default()
        });
        io.append(b"abcdefgh").unwrap();
        io.flush().unwrap();
        assert_eq!(io.crash(), b"abcd");
    }

    #[test]
    fn partial_flush_moves_a_bounded_prefix() {
        let mut io = FaultyIo::new(FaultPlan {
            flush_cap: Some(3),
            ..FaultPlan::default()
        });
        io.append(b"abcdef").unwrap();
        io.flush().unwrap();
        assert_eq!(io.durable_len(), 3);
        io.flush().unwrap();
        assert_eq!(io.durable_len(), 6);
        assert_eq!(io.crash(), b"abcdef");
    }

    #[test]
    fn bit_flips_corrupt_the_crash_image_only() {
        let mut io = FaultyIo::new(FaultPlan {
            bit_flips: vec![(1, 0x01), (99, 0xFF)],
            ..FaultPlan::default()
        });
        io.append(b"abc").unwrap();
        io.flush().unwrap();
        let mut buf = [0u8; 3];
        read_exact_at(&mut io, 0, &mut buf).unwrap();
        assert_eq!(&buf, b"abc"); // live reads are clean
        assert_eq!(io.crash(), b"a\x63c"); // b ^ 0x01 = c
    }

    #[test]
    fn short_reads_are_survivable_via_read_exact_at() {
        let mut io = FaultyIo::with_contents(
            b"0123456789".to_vec(),
            FaultPlan {
                short_read_chunk: Some(3),
                ..FaultPlan::default()
            },
        );
        let mut one = [0u8; 10];
        assert_eq!(io.read_at(0, &mut one).unwrap(), 3);
        let mut buf = [0u8; 10];
        read_exact_at(&mut io, 0, &mut buf).unwrap();
        assert_eq!(&buf, b"0123456789");
    }

    #[test]
    fn injected_flush_failure_persists_nothing() {
        let mut io = FaultyIo::new(FaultPlan {
            fail_flush: Some(1),
            ..FaultPlan::default()
        });
        io.append(b"abc").unwrap();
        assert!(io.flush().is_err());
        assert_eq!(io.durable_len(), 0);
        io.flush().unwrap(); // next flush succeeds
        assert_eq!(io.durable_len(), 3);
    }

    #[test]
    fn file_io_round_trips_on_disk() {
        let path = std::env::temp_dir().join(format!("cdb-fileio-{}.wal", std::process::id()));
        let _ = std::fs::remove_file(&path);
        {
            let mut io = FileIo::open(&path).unwrap();
            io.append(b"abcdef").unwrap();
            io.flush().unwrap();
            io.truncate(4).unwrap();
        }
        {
            let mut io = FileIo::open(&path).unwrap();
            assert_eq!(io.len().unwrap(), 4);
            let mut buf = [0u8; 4];
            read_exact_at(&mut io, 0, &mut buf).unwrap();
            assert_eq!(&buf, b"abcd");
        }
        let _ = std::fs::remove_file(&path);
    }
}
