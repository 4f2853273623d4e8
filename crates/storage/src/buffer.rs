//! A buffer pool over [`PageStore`]: bounded frames, clock
//! replacement, pin/unpin, dirty tracking, write-back on eviction.
//!
//! This is the piece that turns the page heap into a
//! larger-than-memory store: readers and the checkpoint capture path
//! go through a fixed number of in-memory frames, and when the working
//! set exceeds the pool the clock hand evicts unreferenced,
//! unpinned frames — writing dirty ones back to the heap first — so
//! memory stays bounded while throughput degrades gracefully instead
//! of falling off a cliff (bench E21 measures exactly that sweep).
//!
//! Invariants (tested in `crates/storage/tests/buffer_faults.rs`):
//!
//! * the pool never holds more than `capacity` frames;
//! * a pinned frame is never evicted — if every frame is pinned, a
//!   fetch of a non-resident page fails with a typed error instead of
//!   silently growing the pool;
//! * eviction write-back appends to the heap (never overwrites), so a
//!   crash mid-eviction is indistinguishable from a torn WAL tail and
//!   recovery falls back to the previous durable version.
//!
//! Every fetch updates `storage.buffer.{hit,miss,evict,pin}` counters
//! on the [`Metrics`] registry handed to [`BufferPool::new`], and the
//! time spent blocked on the heap device (miss reads, eviction
//! write-backs) lands in the `storage.buffer.stall_ns` histogram.

use std::collections::BTreeMap;

use cdb_obs::{Counter, HistogramHandle, Metrics, SpanGuard};

use crate::io::Io;
use crate::page::PageStore;
use crate::StorageError;

/// Environment variable overriding the default pool capacity (frames)
/// in tests and tools — the `scripts/check.sh` small-pool matrix leg
/// sets `CDB_TEST_POOL_PAGES=4` to force heavy eviction under the full
/// tier-1 suite.
pub const POOL_PAGES_ENV: &str = "CDB_TEST_POOL_PAGES";

/// Default pool capacity when nothing is configured: large enough to
/// hold a typical working set, small enough that eviction is a
/// routinely exercised path.
pub const DEFAULT_POOL_PAGES: usize = 64;

/// Pool capacity in frames: `CDB_TEST_POOL_PAGES` when set and valid,
/// else `default` (or [`DEFAULT_POOL_PAGES`] via `Default`).
pub fn pool_pages_from_env(default: usize) -> usize {
    std::env::var(POOL_PAGES_ENV)
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&n| n >= 1)
        .unwrap_or(default)
}

#[derive(Debug)]
struct Frame {
    page: u64,
    data: Vec<u8>,
    dirty: bool,
    pins: u32,
    referenced: bool,
}

/// Counter handles for the pool's observability surface.
#[derive(Debug, Clone)]
struct BufferCounters {
    hit: Counter,
    miss: Counter,
    evict: Counter,
    pin: Counter,
    /// Foreground stall time: nanoseconds a caller spent blocked on
    /// the heap device inside a fetch/put (miss reads and eviction
    /// write-backs — the latency the pool exists to hide). The
    /// checkpoint barrier's `flush_all` is deliberately excluded: that
    /// is scheduled background work, not a request stalling.
    stall: HistogramHandle,
}

impl BufferCounters {
    fn resolve(metrics: &Metrics) -> Self {
        BufferCounters {
            hit: metrics.counter("storage.buffer.hit"),
            miss: metrics.counter("storage.buffer.miss"),
            evict: metrics.counter("storage.buffer.evict"),
            pin: metrics.counter("storage.buffer.pin"),
            stall: metrics.histogram("storage.buffer.stall_ns"),
        }
    }
}

/// Point-in-time pool statistics (mirrors the obs counters, readable
/// without a metrics registry — the bench harness records these).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BufferStats {
    /// Fetches served from a resident frame.
    pub hits: u64,
    /// Fetches that had to read the heap.
    pub misses: u64,
    /// Frames evicted to make room.
    pub evictions: u64,
    /// Dirty frames written back to the heap (on eviction or flush).
    pub writebacks: u64,
}

impl BufferStats {
    /// Hit fraction in `[0, 1]`; `1.0` for an untouched pool.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            1.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// A clock-replacement buffer pool over a [`PageStore`].
#[derive(Debug)]
pub struct BufferPool<I: Io> {
    store: PageStore<I>,
    capacity: usize,
    frames: Vec<Frame>,
    map: BTreeMap<u64, usize>,
    hand: usize,
    counters: BufferCounters,
    stats: BufferStats,
}

impl<I: Io> BufferPool<I> {
    /// A pool of at most `capacity` frames over `store`, reporting to
    /// `metrics`. `capacity` is clamped to at least 1.
    pub fn new(store: PageStore<I>, capacity: usize, metrics: &Metrics) -> Self {
        BufferPool {
            store,
            capacity: capacity.max(1),
            frames: Vec::new(),
            map: BTreeMap::new(),
            hand: 0,
            counters: BufferCounters::resolve(metrics),
            stats: BufferStats::default(),
        }
    }

    /// Frame capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Frames currently resident (always `<= capacity`).
    pub fn resident(&self) -> usize {
        self.frames.len()
    }

    /// Point-in-time statistics.
    pub fn stats(&self) -> BufferStats {
        self.stats
    }

    /// Read access to the underlying page store.
    pub fn store(&self) -> &PageStore<I> {
        &self.store
    }

    /// Clock sweep: find a victim frame with `pins == 0`, clearing
    /// reference bits as the hand passes. Two full sweeps with no
    /// victim means every frame is pinned.
    fn victim(&mut self) -> Result<usize, StorageError> {
        for _ in 0..self.frames.len() * 2 {
            let i = self.hand;
            self.hand = (self.hand + 1) % self.frames.len();
            let f = &mut self.frames[i];
            if f.pins > 0 {
                continue;
            }
            if f.referenced {
                f.referenced = false;
                continue;
            }
            return Ok(i);
        }
        Err(StorageError::Io(format!(
            "buffer pool exhausted: all {} frames pinned",
            self.frames.len()
        )))
    }

    /// Ensures `page` is resident, returning its frame index.
    fn fetch(&mut self, page: u64) -> Result<usize, StorageError> {
        if let Some(&i) = self.map.get(&page) {
            self.frames[i].referenced = true;
            self.stats.hits += 1;
            self.counters.hit.inc();
            return Ok(i);
        }
        self.stats.misses += 1;
        self.counters.miss.inc();
        let data = {
            let stall = SpanGuard::enter("storage.buffer.stall");
            let data = self.store.read_page(page)?;
            self.counters.stall.observe(stall.elapsed());
            data
        };
        let i = if self.frames.len() < self.capacity {
            self.frames.push(Frame {
                page,
                data: Vec::new(),
                dirty: false,
                pins: 0,
                referenced: false,
            });
            self.frames.len() - 1
        } else {
            let i = self.victim()?;
            let evicted = &self.frames[i];
            if evicted.dirty {
                let stall = SpanGuard::enter("storage.buffer.stall");
                self.store.write_page(evicted.page, &evicted.data)?;
                self.counters.stall.observe(stall.elapsed());
                self.stats.writebacks += 1;
            }
            self.map.remove(&self.frames[i].page);
            self.stats.evictions += 1;
            self.counters.evict.inc();
            i
        };
        let f = &mut self.frames[i];
        f.page = page;
        f.data = data.unwrap_or_default();
        f.dirty = false;
        f.pins = 0;
        f.referenced = true;
        self.map.insert(page, i);
        Ok(i)
    }

    /// Reads `page` through the pool. `None` when the heap has no such
    /// page (an absent page is *not* cached; probing for it again
    /// re-reads the heap).
    pub fn get(&mut self, page: u64) -> Result<Option<&[u8]>, StorageError> {
        if !self.map.contains_key(&page) && !self.store.contains(page) {
            self.stats.misses += 1;
            self.counters.miss.inc();
            return Ok(None);
        }
        let i = self.fetch(page)?;
        Ok(Some(&self.frames[i].data))
    }

    /// Writes `page` through the pool: the frame is overwritten and
    /// marked dirty; the heap sees it on eviction or
    /// [`Self::flush_all`].
    pub fn put(&mut self, page: u64, bytes: &[u8]) -> Result<(), StorageError> {
        let i = if self.map.contains_key(&page) || self.store.contains(page) {
            self.fetch(page)?
        } else {
            // Fresh page: allocate a frame without consulting the heap.
            self.stats.misses += 1;
            self.counters.miss.inc();
            if self.frames.len() < self.capacity {
                self.frames.push(Frame {
                    page,
                    data: Vec::new(),
                    dirty: false,
                    pins: 0,
                    referenced: false,
                });
                let i = self.frames.len() - 1;
                self.map.insert(page, i);
                i
            } else {
                let i = self.victim()?;
                let evicted = &self.frames[i];
                if evicted.dirty {
                    let stall = SpanGuard::enter("storage.buffer.stall");
                    self.store.write_page(evicted.page, &evicted.data)?;
                    self.counters.stall.observe(stall.elapsed());
                    self.stats.writebacks += 1;
                }
                self.map.remove(&self.frames[i].page);
                self.stats.evictions += 1;
                self.counters.evict.inc();
                self.map.insert(page, i);
                i
            }
        };
        let f = &mut self.frames[i];
        f.page = page;
        f.data = bytes.to_vec();
        f.dirty = true;
        f.referenced = true;
        Ok(())
    }

    /// Pins `page` resident: it will not be evicted until a matching
    /// [`unpin`](Self::unpin). Fails when the page does not exist or
    /// every frame is already pinned.
    pub fn pin(&mut self, page: u64) -> Result<(), StorageError> {
        if !self.map.contains_key(&page) && !self.store.contains(page) {
            return Err(StorageError::Io(format!("pin of unknown page {page}")));
        }
        let i = self.fetch(page)?;
        self.frames[i].pins += 1;
        self.counters.pin.inc();
        Ok(())
    }

    /// Releases one pin on `page`. Unbalanced unpins are a typed
    /// error, not a silent saturate — they indicate a caller bug.
    pub fn unpin(&mut self, page: u64) -> Result<(), StorageError> {
        let Some(&i) = self.map.get(&page) else {
            return Err(StorageError::Io(format!(
                "unpin of non-resident page {page}"
            )));
        };
        if self.frames[i].pins == 0 {
            return Err(StorageError::Io(format!("unbalanced unpin of page {page}")));
        }
        self.frames[i].pins -= 1;
        Ok(())
    }

    /// Pins currently held on `page` (0 when not resident).
    pub fn pins(&self, page: u64) -> u32 {
        self.map
            .get(&page)
            .map(|&i| self.frames[i].pins)
            .unwrap_or(0)
    }

    /// Writes every dirty frame back to the heap and flushes the
    /// device — the checkpoint capture barrier: after this returns,
    /// the heap's logical content includes every pooled write.
    pub fn flush_all(&mut self) -> Result<(), StorageError> {
        for i in 0..self.frames.len() {
            if self.frames[i].dirty {
                let (page, data) = {
                    let f = &self.frames[i];
                    (f.page, f.data.clone())
                };
                self.store.write_page(page, &data)?;
                self.frames[i].dirty = false;
                self.stats.writebacks += 1;
            }
        }
        self.store.flush()
    }

    /// Logical heap length (the checkpoint-anchor watermark). Only
    /// meaningful after [`flush_all`](Self::flush_all).
    pub fn heap_len(&self) -> u64 {
        self.store.len()
    }

    /// Consumes the pool, returning the underlying store. Dirty frames
    /// are dropped (call [`flush_all`](Self::flush_all) first to keep
    /// them) — crash harnesses use exactly that to model losing the
    /// in-memory state.
    pub fn into_store(self) -> PageStore<I> {
        self.store
    }
}
