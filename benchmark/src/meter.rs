//! The benchmark's metered device: wrappers over the public [`Io`] and
//! [`SegmentBacking`] traits that count appends, bytes, flushes and
//! reads, time every device call, and remember each file's *flushed
//! length* so the crash step can build the image a power cut would
//! leave behind.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use cdb_storage::{DirBacking, FileIo, Io, SegmentBacking, StorageError};

/// Which device a file belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum DevClass {
    /// A write-ahead-log segment.
    Wal,
    /// The page heap of a paged database.
    Heap,
}

/// Counters of one file. Statistics only, hence `Relaxed`; `len` and
/// `flushed` are written by the one thread that owns the file handle
/// and read after that thread has been joined or is idle.
#[derive(Debug, Default)]
struct FileMeter {
    appends: AtomicU64,
    append_bytes: AtomicU64,
    flushes: AtomicU64,
    flush_ns: AtomicU64,
    reads: AtomicU64,
    read_bytes: AtomicU64,
    device_ns: AtomicU64,
    len: AtomicU64,
    flushed: AtomicU64,
}

/// Totals of one device class.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DevTotals {
    /// `append` calls.
    pub appends: u64,
    /// Bytes appended.
    pub append_bytes: u64,
    /// `flush` calls (each one `fdatasync`).
    pub flushes: u64,
    /// Nanoseconds inside `flush`.
    pub flush_ns: u64,
    /// `read_at` calls.
    pub reads: u64,
    /// Bytes read.
    pub read_bytes: u64,
    /// Nanoseconds inside any device call.
    pub device_ns: u64,
}

impl DevTotals {
    /// Counter-wise difference `self - earlier`.
    pub fn since(&self, earlier: &DevTotals) -> DevTotals {
        DevTotals {
            appends: self.appends - earlier.appends,
            append_bytes: self.append_bytes - earlier.append_bytes,
            flushes: self.flushes - earlier.flushes,
            flush_ns: self.flush_ns - earlier.flush_ns,
            reads: self.reads - earlier.reads,
            read_bytes: self.read_bytes - earlier.read_bytes,
            device_ns: self.device_ns - earlier.device_ns,
        }
    }
}

#[derive(Debug, Default)]
struct MeterState {
    /// Live metered files by path.
    files: BTreeMap<PathBuf, (DevClass, Arc<FileMeter>)>,
    /// Counters of files that were deleted or archived, so totals never
    /// go backwards.
    retired: BTreeMap<DevClass, DevTotals>,
}

/// The registry of every metered file of one database directory.
/// Cloneable; all clones share state.
#[derive(Debug, Clone, Default)]
pub struct Meter {
    state: Arc<Mutex<MeterState>>,
}

fn totals_of(m: &FileMeter) -> DevTotals {
    DevTotals {
        appends: m.appends.load(Ordering::Relaxed),
        append_bytes: m.append_bytes.load(Ordering::Relaxed),
        flushes: m.flushes.load(Ordering::Relaxed),
        flush_ns: m.flush_ns.load(Ordering::Relaxed),
        reads: m.reads.load(Ordering::Relaxed),
        read_bytes: m.read_bytes.load(Ordering::Relaxed),
        device_ns: m.device_ns.load(Ordering::Relaxed),
    }
}

fn add_totals(a: &mut DevTotals, b: &DevTotals) {
    a.appends += b.appends;
    a.append_bytes += b.append_bytes;
    a.flushes += b.flushes;
    a.flush_ns += b.flush_ns;
    a.reads += b.reads;
    a.read_bytes += b.read_bytes;
    a.device_ns += b.device_ns;
}

impl Meter {
    /// An empty registry.
    pub fn new() -> Meter {
        Meter::default()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, MeterState> {
        self.state
            .lock()
            .expect("a thread panicked while holding the meter registry")
    }

    /// Opens `path` as a metered file of `class`. Bytes already in the
    /// file count as flushed: the benchmark only ever reopens complete
    /// crash images.
    pub fn open_file(&self, path: &Path, class: DevClass) -> Result<MeteredIo, StorageError> {
        let started = Instant::now();
        let inner = FileIo::open(path)?;
        let len = inner.len()?;
        let file = Arc::new(FileMeter::default());
        file.len.store(len, Ordering::Relaxed);
        file.flushed.store(len, Ordering::Relaxed);
        file.device_ns
            .store(started.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.lock()
            .files
            .insert(path.to_path_buf(), (class, file.clone()));
        Ok(MeteredIo { inner, file })
    }

    /// Totals of one device class, live and retired files together.
    pub fn totals(&self, class: DevClass) -> DevTotals {
        let st = self.lock();
        let mut out = st.retired.get(&class).copied().unwrap_or_default();
        for (c, f) in st.files.values() {
            if *c == class {
                add_totals(&mut out, &totals_of(f));
            }
        }
        out
    }

    /// The flushed length of a metered file, `None` for files the
    /// meter does not know.
    pub fn flushed_len(&self, path: &Path) -> Option<u64> {
        self.lock()
            .files
            .get(path)
            .map(|(_, f)| f.flushed.load(Ordering::Relaxed))
    }

    fn forget(&self, path: &Path, renamed_to: Option<PathBuf>) {
        let mut st = self.lock();
        if let Some((class, f)) = st.files.remove(path) {
            match renamed_to {
                // An archived segment keeps its bytes on disk; keep
                // its flushed length for the crash image.
                Some(to) => {
                    st.files.insert(to, (class, f));
                }
                None => add_totals(st.retired.entry(class).or_default(), &totals_of(&f)),
            }
        }
    }

    /// Builds the image a power cut would leave: every regular file of
    /// `src` is copied into the fresh directory `dst`, metered files
    /// **truncated to their flushed length**, unmetered files (the
    /// directory checkpoint store syncs before it renames) whole.
    /// Returns the image's total size and the number of unflushed
    /// bytes that were cut off.
    pub fn crash_image(&self, src: &Path, dst: &Path) -> std::io::Result<CrashImage> {
        std::fs::create_dir_all(dst)?;
        let mut image = CrashImage::default();
        let mut names: Vec<PathBuf> = std::fs::read_dir(src)?
            .collect::<Result<Vec<_>, _>>()?
            .into_iter()
            .map(|e| e.path())
            .filter(|p| p.is_file())
            .collect();
        names.sort();
        for path in names {
            let bytes = std::fs::read(&path)?;
            let keep = match self.flushed_len(&path) {
                Some(flushed) => (flushed as usize).min(bytes.len()),
                None => bytes.len(),
            };
            image.cut_bytes += (bytes.len() - keep) as u64;
            image.bytes += keep as u64;
            image.files += 1;
            let name = path.file_name().expect("read_dir yields named files");
            std::fs::write(dst.join(name), &bytes[..keep])?;
        }
        Ok(image)
    }
}

/// What [`Meter::crash_image`] wrote.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CrashImage {
    /// Files in the image.
    pub files: u64,
    /// Bytes in the image.
    pub bytes: u64,
    /// Unflushed bytes that did not make it into the image.
    pub cut_bytes: u64,
}

/// A metered file: every call is forwarded to the real [`FileIo`],
/// counted and timed.
#[derive(Debug)]
pub struct MeteredIo {
    inner: FileIo,
    file: Arc<FileMeter>,
}

impl MeteredIo {
    fn timed<T>(&mut self, op: impl FnOnce(&mut FileIo) -> T) -> (T, u64) {
        let started = Instant::now();
        let out = op(&mut self.inner);
        let ns = started.elapsed().as_nanos() as u64;
        self.file.device_ns.fetch_add(ns, Ordering::Relaxed);
        (out, ns)
    }
}

impl Io for MeteredIo {
    fn len(&self) -> Result<u64, StorageError> {
        self.inner.len()
    }

    fn read_at(&mut self, offset: u64, buf: &mut [u8]) -> Result<usize, StorageError> {
        let (out, _) = self.timed(|io| io.read_at(offset, buf));
        if let Ok(n) = &out {
            self.file.reads.fetch_add(1, Ordering::Relaxed);
            self.file.read_bytes.fetch_add(*n as u64, Ordering::Relaxed);
        }
        out
    }

    fn append(&mut self, bytes: &[u8]) -> Result<(), StorageError> {
        let (out, _) = self.timed(|io| io.append(bytes));
        if out.is_ok() {
            self.file.appends.fetch_add(1, Ordering::Relaxed);
            self.file
                .append_bytes
                .fetch_add(bytes.len() as u64, Ordering::Relaxed);
            self.file
                .len
                .fetch_add(bytes.len() as u64, Ordering::Relaxed);
        }
        out
    }

    fn flush(&mut self) -> Result<(), StorageError> {
        let (out, ns) = self.timed(|io| io.flush());
        if out.is_ok() {
            self.file.flushes.fetch_add(1, Ordering::Relaxed);
            self.file.flush_ns.fetch_add(ns, Ordering::Relaxed);
            let len = self.file.len.load(Ordering::Relaxed);
            self.file.flushed.store(len, Ordering::Relaxed);
        }
        out
    }

    fn truncate(&mut self, len: u64) -> Result<(), StorageError> {
        let (out, _) = self.timed(|io| io.truncate(len));
        if out.is_ok() {
            self.file.len.store(len, Ordering::Relaxed);
            // Cutting a file below what was flushed shortens the
            // durable prefix too; growing never happens here.
            self.file.flushed.fetch_min(len, Ordering::Relaxed);
        }
        out
    }
}

/// A metered segment directory: [`DirBacking`] whose files are opened
/// through the [`Meter`].
#[derive(Debug)]
pub struct MeteredBacking {
    inner: DirBacking,
    dir: PathBuf,
    name: String,
    meter: Meter,
}

impl MeteredBacking {
    /// A backing over `<dir>/<name>.wal.*`, metered by `meter`.
    pub fn new(dir: impl Into<PathBuf>, name: impl Into<String>, meter: Meter) -> Self {
        let dir = dir.into();
        let name = name.into();
        MeteredBacking {
            inner: DirBacking::new(dir.clone(), name.clone()),
            dir,
            name,
            meter,
        }
    }

    // The two names below are `DirBacking`'s documented file layout.
    fn seg_path(&self, seq: u64) -> PathBuf {
        self.dir.join(format!("{}.wal.{seq}", self.name))
    }

    fn arch_path(&self, seq: u64) -> PathBuf {
        self.dir.join(format!("{}.walarch.{seq}", self.name))
    }
}

impl SegmentBacking for MeteredBacking {
    fn open(&mut self, seq: u64) -> Result<Box<dyn Io>, StorageError> {
        std::fs::create_dir_all(&self.dir)
            .map_err(|e| StorageError::Io(format!("mkdir {}: {e}", self.dir.display())))?;
        Ok(Box::new(
            self.meter.open_file(&self.seg_path(seq), DevClass::Wal)?,
        ))
    }

    fn list(&mut self) -> Result<Vec<u64>, StorageError> {
        self.inner.list()
    }

    fn delete(&mut self, seq: u64) -> Result<(), StorageError> {
        self.inner.delete(seq)?;
        self.meter.forget(&self.seg_path(seq), None);
        Ok(())
    }

    fn archive(&mut self, seq: u64) -> Result<(), StorageError> {
        self.inner.archive(seq)?;
        self.meter
            .forget(&self.seg_path(seq), Some(self.arch_path(seq)));
        Ok(())
    }
}

/// Total size of the regular files directly inside `dir`.
pub fn dir_bytes(dir: &Path) -> std::io::Result<u64> {
    let mut total = 0;
    for entry in std::fs::read_dir(dir)? {
        let meta = entry?.metadata()?;
        if meta.is_file() {
            total += meta.len();
        }
    }
    Ok(total)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(tag: &str) -> PathBuf {
        let dir = crate::out_dir().join(format!("test-meter-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn counts_calls_and_remembers_the_flushed_length() {
        let dir = scratch("counts");
        let meter = Meter::new();
        let path = dir.join("db.heap");
        let mut io = meter.open_file(&path, DevClass::Heap).unwrap();
        io.append(b"hello").unwrap();
        io.append(b" world").unwrap();
        assert_eq!(meter.flushed_len(&path), Some(0));
        io.flush().unwrap();
        assert_eq!(meter.flushed_len(&path), Some(11));
        io.append(b"!!").unwrap();
        let mut buf = [0u8; 5];
        io.read_at(0, &mut buf).unwrap();
        let t = meter.totals(DevClass::Heap);
        assert_eq!((t.appends, t.append_bytes, t.flushes), (3, 13, 1));
        assert_eq!((t.reads, t.read_bytes), (1, 5));
        assert!(t.device_ns >= t.flush_ns && t.flush_ns > 0);
        assert_eq!(meter.totals(DevClass::Wal), DevTotals::default());
        io.truncate(4).unwrap();
        assert_eq!(meter.flushed_len(&path), Some(4));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn crash_image_holds_no_byte_past_a_flushed_length() {
        let dir = scratch("crash");
        let meter = Meter::new();
        let mut backing = MeteredBacking::new(dir.join("live"), "db", meter.clone());
        let mut seg = backing.open(0).unwrap();
        seg.append(b"durable-").unwrap();
        seg.flush().unwrap();
        seg.append(b"volatile").unwrap();
        // An unmetered file (a checkpoint installed by rename) is
        // copied whole.
        std::fs::write(dir.join("live").join("db.ckpt"), b"checkpoint").unwrap();
        let image = meter
            .crash_image(&dir.join("live"), &dir.join("image"))
            .unwrap();
        assert_eq!(image.files, 2);
        assert_eq!(image.cut_bytes, 8);
        assert_eq!(
            std::fs::read(dir.join("image").join("db.wal.0")).unwrap(),
            b"durable-"
        );
        assert_eq!(
            std::fs::read(dir.join("image").join("db.ckpt")).unwrap(),
            b"checkpoint"
        );
        assert_eq!(dir_bytes(&dir.join("image")).unwrap(), image.bytes);
        // Archiving keeps the file (and its flushed length) under the
        // new name; deleting keeps only its counters.
        drop(seg);
        backing.archive(0).unwrap();
        assert_eq!(
            meter.flushed_len(&dir.join("live").join("db.walarch.0")),
            Some(8)
        );
        assert_eq!(meter.totals(DevClass::Wal).append_bytes, 16);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
