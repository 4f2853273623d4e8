//! Group commit: one sync per batch, shared by every writer in it.
//!
//! [`GroupWal`] is a cloneable (Arc-backed) handle over a
//! [`DurableLog`] that turns `Durability::Batched` into a real
//! multi-writer protocol. Writers [`GroupWal::append`] their frames to
//! an in-memory batch (no device I/O, so it cannot fail) and then
//! [`GroupWal::commit`] the sequence number they were handed. The
//! first committer to find the batch unsynced becomes the **leader**:
//! it takes the batch, releases the append lock, and under a separate
//! device lock writes each frame ([`DurableLog::append`]) and issues
//! one [`DurableLog::sync`]. There is no timer: the next batch is
//! whatever was appended while that sync ran. A commit that returns
//! `Ok` means the frames are durable.
//!
//! Ack rule: `commit(seq)` returns `Ok` only once `synced >= seq`.
//! Sequence numbers are assigned under the append lock and one leader
//! at a time writes its batch in that order, so the durable log is
//! always a *prefix* of the append order — a crash can cut
//! acknowledged frames off the end (if the device lied about a flush)
//! but can never leave a hole in the middle. `tests/concurrent_serving.rs`
//! checks this against scripted [`crate::FaultyIo`] schedules.
//!
//! Failure handling: a leader whose sync fails reports the error and
//! steps down without marking anything synced; each waiter then
//! retries as leader. A leader whose write fails part-way truncates the
//! device back to where the batch began and returns the batch for the
//! next leader to write again; if that truncate fails too, a torn frame
//! may remain, and the group fails closed — every later commit returns
//! the error. So a transient device error delays commits, a persistent
//! one fails them, and no commit returns `Ok` unless a sync that
//! reported success covered its frames.

use std::sync::{Arc, Condvar, Mutex, MutexGuard};

use cdb_obs::{Counter, Gauge, HistogramHandle, Metrics, SpanGuard};

use crate::wal::DurableLog;
use crate::{Io, StorageError};

const POISONED: &str = "a group-commit writer panicked while holding a group lock";

/// Pre-resolved instrument handles — looked up once at construction so
/// the commit hot path never touches the registry lock.
#[derive(Debug, Clone)]
struct GroupInstruments {
    batches: Counter,
    frames_synced: Counter,
    max_batch: Gauge,
    failed_syncs: Counter,
    failed_writes: Counter,
    sync_ns: HistogramHandle,
    commit_ns: HistogramHandle,
}

impl GroupInstruments {
    fn resolve(metrics: &Metrics) -> Self {
        GroupInstruments {
            batches: metrics.counter("storage.group.batches"),
            frames_synced: metrics.counter("storage.group.frames_synced"),
            max_batch: metrics.gauge("storage.group.max_batch"),
            failed_syncs: metrics.counter("storage.group.failed_syncs"),
            failed_writes: metrics.counter("storage.group.failed_writes"),
            sync_ns: metrics.histogram("storage.wal.sync_ns"),
            commit_ns: metrics.histogram("storage.group.commit_ns"),
        }
    }
}

/// What the append lock guards: the batch and the watermarks.
#[derive(Debug, Default)]
struct Batch {
    /// Frames appended but not yet written to the device, in append
    /// order — also the retry queue: a batch whose write failed comes
    /// back here, ahead of anything appended since.
    frames: Vec<(u8, Vec<u8>)>,
    /// Frames appended so far (monotone sequence; `append` returns it).
    appended: u64,
    /// Highest sequence number covered by a successful sync.
    synced: u64,
    /// Whether some thread is currently leading a batch.
    leader_active: bool,
    /// Set once a failed write could not be cut back off the device:
    /// a torn frame may sit there, so nothing more is written.
    failed: Option<StorageError>,
}

/// How a leader's batch failed.
enum Failure {
    /// A write failed; `true` if the device was cut back to where the
    /// batch began, `false` if a torn frame may remain.
    Write(StorageError, bool),
    /// Every frame was written; the sync failed.
    Sync(StorageError),
}

#[derive(Debug)]
struct GroupInner {
    batch: Mutex<Batch>,
    cv: Condvar,
    /// The device lock: held by a leader across its write and sync,
    /// never together with the append lock.
    log: Mutex<DurableLog<Box<dyn Io>>>,
    instr: GroupInstruments,
}

/// A shared, thread-safe group-commit handle over a WAL. Clones refer
/// to the same log; see the module docs for the protocol.
#[derive(Debug, Clone)]
pub struct GroupWal {
    inner: Arc<GroupInner>,
}

impl GroupWal {
    /// Wraps `log` for group commit.
    pub fn new(log: DurableLog<Box<dyn Io>>) -> Self {
        // A private registry: a standalone GroupWal's counters are its
        // own (tests assert exact values). The serving layer passes the
        // database registry via [`GroupWal::with_metrics`] instead.
        GroupWal::with_metrics(log, &Metrics::new())
    }

    /// Like [`GroupWal::new`], but records batching counters and sync
    /// latency into `metrics` (`storage.group.*`, `storage.wal.sync_ns`)
    /// so they surface in `CuratedDatabase::metrics_snapshot`.
    pub fn with_metrics(log: DurableLog<Box<dyn Io>>, metrics: &Metrics) -> Self {
        GroupWal {
            inner: Arc::new(GroupInner {
                batch: Mutex::new(Batch::default()),
                cv: Condvar::new(),
                log: Mutex::new(log),
                instr: GroupInstruments::resolve(metrics),
            }),
        }
    }

    fn batch(&self) -> MutexGuard<'_, Batch> {
        self.inner.batch.lock().expect(POISONED)
    }

    fn log(&self) -> MutexGuard<'_, DurableLog<Box<dyn Io>>> {
        self.inner.log.lock().expect(POISONED)
    }

    /// Adds one frame to the in-memory batch and returns its sequence
    /// number; pass it to [`GroupWal::commit`] to write and sync it.
    /// No device I/O happens here, so it cannot fail.
    pub fn append(&self, kind: u8, payload: Vec<u8>) -> u64 {
        let mut b = self.batch();
        b.frames.push((kind, payload));
        b.appended += 1;
        b.appended
    }

    /// The sequence number of the most recently appended frame. A
    /// writer that appended several frames for one logical commit only
    /// needs to commit the last one.
    pub fn appended_seq(&self) -> u64 {
        self.batch().appended
    }

    /// Blocks until every frame up to `seq` is durable (or the device
    /// fails). See the module docs for the leader election and failure
    /// rules.
    pub fn commit(&self, seq: u64) -> Result<(), StorageError> {
        let span = SpanGuard::with_attr("storage.wal.group_commit", seq);
        let res = self.commit_inner(seq);
        if res.is_ok() {
            self.inner.instr.commit_ns.observe(span.elapsed());
        }
        res
    }

    fn commit_inner(&self, seq: u64) -> Result<(), StorageError> {
        let mut b = self.batch();
        loop {
            if b.synced >= seq {
                return Ok(());
            }
            if let Some(e) = &b.failed {
                return Err(e.clone());
            }
            if b.leader_active {
                let _wait = SpanGuard::enter("storage.group.queue_wait");
                b = self.inner.cv.wait(b).expect(POISONED);
                continue;
            }
            // Become the leader: take everything appended so far and
            // write and sync it with the append lock released, so
            // writers arriving meanwhile form the next batch.
            b.leader_active = true;
            let mut frames = std::mem::take(&mut b.frames);
            let target = b.appended;
            let batch = target - b.synced;
            drop(b);
            let res = self.write_and_sync(&frames, batch);
            b = self.batch();
            b.leader_active = false;
            // Wake the waiters: they are covered, or one of them retries
            // as leader.
            self.inner.cv.notify_all();
            let instr = &self.inner.instr;
            match res {
                Ok(()) => {
                    b.synced = target;
                    instr.batches.inc();
                    instr.frames_synced.add(batch);
                    instr.max_batch.record_max(batch);
                }
                Err(Failure::Write(e, cut)) => {
                    instr.failed_writes.inc();
                    if cut {
                        frames.append(&mut b.frames);
                        b.frames = frames;
                    } else {
                        b.failed = Some(e.clone());
                    }
                    return Err(e);
                }
                // (DurableLog::sync already bumped the global
                // storage.error.sync_failed counter.)
                Err(Failure::Sync(e)) => {
                    instr.failed_syncs.inc();
                    return Err(e);
                }
            }
        }
    }

    /// The leader's device work, under the device lock: write each
    /// frame, cutting the device back to where the batch began if one
    /// fails, then sync once.
    fn write_and_sync(&self, frames: &[(u8, Vec<u8>)], batch: u64) -> Result<(), Failure> {
        let mut log = self.log();
        let start = log.len().map_err(|e| Failure::Write(e, true))?;
        for (kind, payload) in frames {
            if let Err(e) = log.append(*kind, payload) {
                return Err(Failure::Write(e, log.truncate(start).is_ok()));
            }
        }
        let sync_span = SpanGuard::with_attr("storage.group.sync", batch);
        let res = log.sync();
        self.inner.instr.sync_ns.observe(sync_span.elapsed());
        res.map_err(Failure::Sync)
    }

    /// Writes and syncs everything appended so far (an explicit barrier
    /// — checkpoints and publishes use this). Equivalent to committing
    /// the latest sequence number; a no-op when nothing is pending.
    pub fn sync_all(&self) -> Result<(), StorageError> {
        let seq = {
            let b = self.batch();
            if b.synced >= b.appended {
                return Ok(());
            }
            b.appended
        };
        self.commit(seq)
    }

    /// Frames appended but not yet covered by a successful sync.
    pub fn unsynced(&self) -> u64 {
        let b = self.batch();
        b.appended - b.synced
    }

    /// The log's current device length in bytes. With everything
    /// synced this is the coverage watermark a checkpoint can claim
    /// ([`cdb_curation::wire::Checkpoint::covered_len`]).
    pub fn log_len(&self) -> Result<u64, StorageError> {
        self.log().len()
    }

    /// Where the log's readable bytes begin: 0 while the device holds
    /// its whole history, past the retired prefix once segments are
    /// deleted.
    pub fn base(&self) -> u64 {
        self.log().base()
    }

    /// Retires log history covered by a durably installed checkpoint
    /// (see [`DurableLog::reclaim`]). Takes the device lock: retirement
    /// never races a leader's write or sync.
    pub fn reclaim(&self, covered: u64) -> Result<Option<crate::io::ReclaimStats>, StorageError> {
        self.log().reclaim(covered)
    }

    /// Live segments backing the log (1 for unsegmented devices).
    pub fn live_segments(&self) -> u64 {
        self.log().live_segments()
    }

    /// Recovers the underlying log, if this is the last handle. Frames
    /// still in the batch are dropped, as a crash would lose them.
    pub fn try_into_log(self) -> Result<DurableLog<Box<dyn Io>>, GroupWal> {
        match Arc::try_unwrap(self.inner) {
            Ok(inner) => Ok(inner.log.into_inner().expect(POISONED)),
            Err(inner) => Err(GroupWal { inner }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FaultPlan, FaultyIo, MemIo};

    fn mem_group() -> GroupWal {
        let log = DurableLog::create(Box::new(MemIo::new()) as Box<dyn Io>).unwrap();
        GroupWal::new(log)
    }

    /// A device whose flushes block while its gate is held, so a test
    /// can form a batch behind a sync in flight instead of waiting out
    /// a timer. Clones share the device and the gate.
    #[derive(Debug, Clone)]
    struct HeldFlush {
        io: Arc<Mutex<FaultyIo>>,
        /// (held, flushes blocked right now)
        gate: Arc<(Mutex<(bool, usize)>, Condvar)>,
    }

    impl HeldFlush {
        fn new(plan: FaultPlan) -> Self {
            HeldFlush {
                io: Arc::new(Mutex::new(FaultyIo::new(plan))),
                gate: Arc::new((Mutex::new((false, 0)), Condvar::new())),
            }
        }

        fn set_held(&self, held: bool) {
            self.gate.0.lock().unwrap().0 = held;
            self.gate.1.notify_all();
        }

        /// Blocks until a flush is waiting at the held gate.
        fn await_blocked_flush(&self) {
            let (lock, cv) = &*self.gate;
            let _g = cv.wait_while(lock.lock().unwrap(), |g| g.1 == 0).unwrap();
        }
    }

    impl Io for HeldFlush {
        fn len(&self) -> Result<u64, StorageError> {
            self.io.lock().unwrap().len()
        }
        fn read_at(&mut self, offset: u64, buf: &mut [u8]) -> Result<usize, StorageError> {
            self.io.lock().unwrap().read_at(offset, buf)
        }
        fn append(&mut self, bytes: &[u8]) -> Result<(), StorageError> {
            self.io.lock().unwrap().append(bytes)
        }
        fn flush(&mut self) -> Result<(), StorageError> {
            let (lock, cv) = &*self.gate;
            let mut g = lock.lock().unwrap();
            g.1 += 1;
            cv.notify_all();
            g = cv.wait_while(g, |g| g.0).unwrap();
            g.1 -= 1;
            drop(g);
            self.io.lock().unwrap().flush()
        }
        fn truncate(&mut self, len: u64) -> Result<(), StorageError> {
            self.io.lock().unwrap().truncate(len)
        }
    }

    fn held_group(plan: FaultPlan) -> (GroupWal, HeldFlush) {
        let dev = HeldFlush::new(plan);
        let log = DurableLog::create(Box::new(dev.clone()) as Box<dyn Io>).unwrap();
        (GroupWal::new(log), dev)
    }

    /// Spins until `cond` holds: the waits below are for another
    /// thread's append, which signals nothing.
    fn until(cond: impl Fn() -> bool) {
        while !cond() {
            std::thread::yield_now();
        }
    }

    #[test]
    fn single_writer_append_commit_round_trips() {
        let g = mem_group();
        let s1 = g.append(7, b"one".to_vec());
        let s2 = g.append(7, b"two".to_vec());
        assert_eq!((s1, s2), (1, 2));
        assert_eq!(g.unsynced(), 2);
        g.commit(s2).unwrap();
        assert_eq!(g.unsynced(), 0);
        let st = &g.inner.instr;
        assert_eq!(st.batches.get(), 1);
        assert_eq!(st.frames_synced.get(), 2);
        assert_eq!(st.max_batch.get(), 2);
    }

    #[test]
    fn commit_of_already_synced_seq_is_free() {
        let g = mem_group();
        let s = g.append(7, b"x".to_vec());
        g.commit(s).unwrap();
        g.commit(s).unwrap(); // no new batch
        assert_eq!(g.inner.instr.batches.get(), 1);
    }

    #[test]
    fn sync_all_on_empty_batch_is_a_no_op() {
        let g = mem_group();
        g.sync_all().unwrap();
        assert_eq!(g.inner.instr.batches.get(), 0);
        let s = g.append(7, b"x".to_vec());
        g.commit(s).unwrap();
        g.sync_all().unwrap(); // nothing new pending
        assert_eq!(g.inner.instr.batches.get(), 1);
    }

    #[test]
    fn concurrent_writers_share_batches() {
        // The first leader's flush is held until every writer has
        // appended its first frame, so those frames batch behind it.
        let (g, dev) = held_group(FaultPlan::default());
        dev.set_held(true);
        let threads: Vec<_> = (0..4)
            .map(|i| {
                let g = g.clone();
                std::thread::spawn(move || {
                    for j in 0..8 {
                        let seq = g.append(7, format!("w{i}.{j}").into_bytes());
                        g.commit(seq).unwrap();
                    }
                })
            })
            .collect();
        dev.await_blocked_flush();
        until(|| g.appended_seq() >= 4);
        dev.set_held(false);
        for t in threads {
            t.join().unwrap();
        }
        let st = &g.inner.instr;
        assert_eq!(st.frames_synced.get(), 32);
        assert!(
            st.batches.get() < 32,
            "expected batching, got one sync per frame ({} batches)",
            st.batches.get()
        );
        assert!(st.max_batch.get() >= 2);
    }

    #[test]
    fn transient_sync_failure_is_retried_by_the_next_leader() {
        let io = FaultyIo::new(FaultPlan {
            fail_flush: Some(2), // flush 1 is DurableLog::create's header sync
            ..FaultPlan::default()
        });
        let log = DurableLog::create(Box::new(io) as Box<dyn Io>).unwrap();
        let g = GroupWal::new(log);
        let s = g.append(7, b"x".to_vec());
        // First committer leads, hits the injected failure, reports it.
        assert!(g.commit(s).is_err());
        assert_eq!(g.inner.instr.failed_syncs.get(), 1);
        assert_eq!(g.unsynced(), 1);
        // A retry (here: the same caller again) succeeds — the frame
        // was never lost, only its sync was delayed.
        g.commit(s).unwrap();
        assert_eq!(g.unsynced(), 0);
    }

    #[test]
    fn waiters_survive_a_failing_leader() {
        // Writer A leads a sync that is held open and then fails;
        // writer B appends and waits behind it. Exactly one of them
        // eats the injected error as leader, the other retries the
        // sync itself and succeeds — and afterwards both frames are
        // durable.
        let (g, dev) = held_group(FaultPlan {
            fail_flush: Some(2),
            ..FaultPlan::default()
        });
        dev.set_held(true);
        let writer = |i: u8| {
            let g = g.clone();
            std::thread::spawn(move || {
                let seq = g.append(7, vec![i]);
                let first = g.commit(seq);
                if first.is_err() {
                    g.commit(seq).unwrap(); // transient: retry succeeds
                }
            })
        };
        let a = writer(0);
        dev.await_blocked_flush();
        let b = writer(1);
        until(|| g.appended_seq() == 2);
        dev.set_held(false);
        a.join().unwrap();
        b.join().unwrap();
        assert_eq!(g.unsynced(), 0);
        assert_eq!(g.inner.instr.failed_syncs.get(), 1);
    }

    #[test]
    fn failed_write_keeps_the_batch_and_counts_as_a_write_failure() {
        // Append 1 is the header; the frame's write (append 2) is
        // short: half of it reaches the device, then it errors.
        let (g, dev) = held_group(FaultPlan {
            short_append: Some(2),
            ..FaultPlan::default()
        });
        let s = g.append(7, b"first".to_vec());
        assert!(g.commit(s).is_err());
        let st = &g.inner.instr;
        assert_eq!((st.failed_writes.get(), st.failed_syncs.get()), (1, 0));
        assert_eq!(g.unsynced(), 1);
        let s = g.append(7, b"second".to_vec());
        g.commit(s).unwrap();
        // The torn half was cut off: the log holds both frames whole.
        let image = dev.io.lock().unwrap().durable_image();
        let (_, frames, outcome) = DurableLog::open(MemIo::from_bytes(image)).unwrap();
        let payloads: Vec<_> = frames.iter().map(|f| f.payload.as_slice()).collect();
        assert_eq!(payloads, [&b"first"[..], &b"second"[..]]);
        assert_eq!(outcome.bytes_dropped, 0);
    }

    /// A device whose writes and truncates both fail once it is broken.
    #[derive(Debug)]
    struct Broken(MemIo, bool);

    impl Io for Broken {
        fn len(&self) -> Result<u64, StorageError> {
            self.0.len()
        }
        fn read_at(&mut self, offset: u64, buf: &mut [u8]) -> Result<usize, StorageError> {
            self.0.read_at(offset, buf)
        }
        fn append(&mut self, bytes: &[u8]) -> Result<(), StorageError> {
            if self.1 {
                self.0.append(&bytes[..bytes.len() / 2])?;
                return Err(StorageError::Io("short write".into()));
            }
            self.1 = true; // the header goes through; nothing after it
            self.0.append(bytes)
        }
        fn flush(&mut self) -> Result<(), StorageError> {
            self.0.flush()
        }
        fn truncate(&mut self, len: u64) -> Result<(), StorageError> {
            if self.1 {
                return Err(StorageError::Io("truncate refused".into()));
            }
            self.0.truncate(len)
        }
    }

    #[test]
    fn a_torn_write_that_cannot_be_cut_fails_the_group_closed() {
        let log = DurableLog::create(Box::new(Broken(MemIo::new(), false)) as Box<dyn Io>);
        let g = GroupWal::new(log.unwrap());
        let s = g.append(7, b"x".to_vec());
        let err = g.commit(s).unwrap_err();
        // Nothing can be written past the torn frame: every later
        // commit fails with the same error, none is acknowledged.
        let s = g.append(7, b"y".to_vec());
        assert_eq!(g.commit(s).unwrap_err(), err);
        assert_eq!(g.sync_all().unwrap_err(), err);
        assert_eq!(g.inner.instr.failed_writes.get(), 1);
        assert_eq!(g.unsynced(), 2);
    }

    #[test]
    fn try_into_log_returns_the_log_once_sole_owner() {
        let g = mem_group();
        let clone = g.clone();
        let g = g.try_into_log().unwrap_err(); // clone still alive
        drop(clone);
        let log = g.try_into_log().unwrap();
        assert!(log.is_empty().unwrap());
    }
}
