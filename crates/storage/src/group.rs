//! Group commit: one sync per batch, shared by every writer in it.
//!
//! [`GroupWal`] is a cloneable (Arc-backed) handle over a
//! [`DurableLog`] that turns `Durability::Batched` into a real
//! multi-writer protocol. Writers [`GroupWal::append`] their frames —
//! cheap, buffered — and then [`GroupWal::commit`] the sequence number
//! they were handed. The first committer to find the batch unsynced
//! becomes the **leader**: it waits out a tunable batch window (so
//! concurrent writers can pile their frames into the same batch),
//! then issues a single [`DurableLog::sync`] covering everything
//! appended so far. Everyone whose frames the sync covered is released
//! at once; a commit that returns `Ok` means the frames are durable.
//!
//! Ack rule: `commit(seq)` returns `Ok` only once `synced >= seq`.
//! Because appends take the same lock that assigns sequence numbers,
//! the durable log is always a *prefix* of the append order — a crash
//! can cut acknowledged frames off the end (if the device lied about
//! a flush) but can never leave a hole in the middle. The
//! crash-under-concurrency suite in `tests/concurrent_serving.rs`
//! checks exactly this invariant against scripted [`crate::FaultyIo`]
//! schedules.
//!
//! Failure handling: if the leader's sync errors, the leader reports
//! the error to its caller and steps down *without* marking anything
//! synced; each waiter then retries the sync itself (becoming leader
//! in turn). A transient device error therefore delays commits instead
//! of failing them; a persistent one fails every waiting commit with
//! the device's error. No commit ever returns `Ok` unless its frames
//! were covered by a sync that reported success.

use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use cdb_obs::{Counter, Gauge, HistogramHandle, Metrics, SpanGuard};

use crate::wal::DurableLog;
use crate::{Io, StorageError};

/// Pre-resolved instrument handles — looked up once at construction so
/// the commit hot path never touches the registry lock.
#[derive(Debug, Clone)]
struct GroupInstruments {
    batches: Counter,
    frames_synced: Counter,
    max_batch: Gauge,
    failed_syncs: Counter,
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
            sync_ns: metrics.histogram("storage.wal.sync_ns"),
            commit_ns: metrics.histogram("storage.group.commit_ns"),
        }
    }
}

#[derive(Debug)]
struct GroupState {
    log: DurableLog<Box<dyn Io>>,
    /// Frames appended so far (monotone sequence; `append` returns it).
    appended: u64,
    /// Highest sequence number covered by a successful sync.
    synced: u64,
    /// Whether some thread is currently leading a batch.
    leader_active: bool,
    window: Duration,
}

#[derive(Debug)]
struct GroupInner {
    state: Mutex<GroupState>,
    cv: Condvar,
    instr: GroupInstruments,
}

/// A shared, thread-safe group-commit handle over a WAL. Clones refer
/// to the same log; see the module docs for the protocol.
#[derive(Debug, Clone)]
pub struct GroupWal {
    inner: Arc<GroupInner>,
}

impl GroupWal {
    /// Wraps `log` for group commit with the given batch window. A
    /// zero window syncs as soon as a leader takes over (no wait);
    /// larger windows trade commit latency for fewer syncs.
    pub fn new(log: DurableLog<Box<dyn Io>>, window: Duration) -> Self {
        // A private registry: a standalone GroupWal's counters are its
        // own (tests assert exact values). The serving layer passes the
        // database registry via [`GroupWal::with_metrics`] instead.
        GroupWal::with_metrics(log, window, &Metrics::new())
    }

    /// Like [`GroupWal::new`], but records batching counters and sync
    /// latency into `metrics` (`storage.group.*`, `storage.wal.sync_ns`)
    /// so they surface in `CuratedDatabase::metrics_snapshot`.
    pub fn with_metrics(log: DurableLog<Box<dyn Io>>, window: Duration, metrics: &Metrics) -> Self {
        GroupWal {
            inner: Arc::new(GroupInner {
                state: Mutex::new(GroupState {
                    log,
                    appended: 0,
                    synced: 0,
                    leader_active: false,
                    window,
                }),
                cv: Condvar::new(),
                instr: GroupInstruments::resolve(metrics),
            }),
        }
    }

    fn lock(&self) -> MutexGuard<'_, GroupState> {
        self.inner
            .state
            .lock()
            .expect("a group-commit writer panicked while holding the WAL lock")
    }

    /// Appends one frame and returns its sequence number; pass it to
    /// [`GroupWal::commit`] to wait for durability. The frame is
    /// buffered in the device, not yet synced.
    pub fn append(&self, kind: u8, payload: &[u8]) -> Result<u64, StorageError> {
        let mut st = self.lock();
        st.log.append(kind, payload)?;
        st.appended += 1;
        Ok(st.appended)
    }

    /// The sequence number of the most recently appended frame. A
    /// writer that appended several frames for one logical commit only
    /// needs to commit the last one.
    pub fn appended_seq(&self) -> u64 {
        self.lock().appended
    }

    /// Blocks until every frame up to `seq` is durable (or the device
    /// persistently fails). See the module docs for the leader
    /// election and failure rules.
    pub fn commit(&self, seq: u64) -> Result<(), StorageError> {
        let span = SpanGuard::with_attr("storage.wal.group_commit", seq);
        let res = self.commit_inner(seq);
        if res.is_ok() {
            self.inner.instr.commit_ns.observe(span.elapsed());
        }
        res
    }

    fn commit_inner(&self, seq: u64) -> Result<(), StorageError> {
        let mut st = self.lock();
        loop {
            if st.synced >= seq {
                return Ok(());
            }
            if st.leader_active {
                let _wait = SpanGuard::enter("storage.group.queue_wait");
                st = self
                    .inner
                    .cv
                    .wait(st)
                    .expect("a group-commit writer panicked while holding the WAL lock");
                continue;
            }
            // Become the leader: hold the batch open for the window so
            // concurrent appends join it, then sync once for everyone.
            st.leader_active = true;
            if !st.window.is_zero() {
                let _wait = SpanGuard::enter("storage.group.queue_wait");
                let deadline = Instant::now() + st.window;
                loop {
                    let now = Instant::now();
                    if now >= deadline {
                        break;
                    }
                    let (guard, _timeout) = self
                        .inner
                        .cv
                        .wait_timeout(st, deadline - now)
                        .expect("a group-commit writer panicked while holding the WAL lock");
                    st = guard;
                }
            }
            let target = st.appended;
            let batch = target - st.synced;
            let sync_span = SpanGuard::with_attr("storage.group.sync", batch);
            let res = st.log.sync();
            self.inner.instr.sync_ns.observe(sync_span.elapsed());
            drop(sync_span);
            st.leader_active = false;
            let instr = &self.inner.instr;
            match res {
                Ok(()) => {
                    st.synced = target;
                    instr.batches.inc();
                    instr.frames_synced.add(batch);
                    instr.max_batch.record_max(batch);
                    self.inner.cv.notify_all();
                    if target >= seq {
                        return Ok(());
                    }
                }
                Err(e) => {
                    // (DurableLog::sync already bumped the global
                    // storage.error.sync_failed counter.)
                    instr.failed_syncs.inc();
                    // Wake the waiters so one of them retries as leader.
                    self.inner.cv.notify_all();
                    return Err(e);
                }
            }
        }
    }

    /// Syncs everything appended so far (an explicit barrier —
    /// checkpoints and publishes use this). Equivalent to committing
    /// the latest sequence number; a no-op when nothing is pending.
    pub fn sync_all(&self) -> Result<(), StorageError> {
        let seq = {
            let st = self.lock();
            if st.synced >= st.appended {
                return Ok(());
            }
            st.appended
        };
        self.commit(seq)
    }

    /// Adjusts the batch window for future batches.
    pub fn set_window(&self, window: Duration) {
        self.lock().window = window;
    }

    /// Frames appended but not yet covered by a successful sync.
    pub fn unsynced(&self) -> u64 {
        let st = self.lock();
        st.appended - st.synced
    }

    /// The log's current device length in bytes. With everything
    /// synced this is the coverage watermark a checkpoint can claim
    /// ([`cdb_curation::wire::Checkpoint::covered_len`]).
    pub fn log_len(&self) -> Result<u64, StorageError> {
        self.lock().log.len()
    }

    /// Retires log history covered by a durably installed checkpoint
    /// (see [`DurableLog::reclaim`]). Takes the group lock: retirement
    /// never races an append or a sync.
    pub fn reclaim(&self, covered: u64) -> Result<Option<crate::io::ReclaimStats>, StorageError> {
        self.lock().log.reclaim(covered)
    }

    /// Live segments backing the log (1 for unsegmented devices).
    pub fn live_segments(&self) -> u64 {
        self.lock().log.live_segments()
    }

    /// Recovers the underlying log, if this is the last handle.
    pub fn try_into_log(self) -> Result<DurableLog<Box<dyn Io>>, GroupWal> {
        match Arc::try_unwrap(self.inner) {
            Ok(inner) => Ok(inner
                .state
                .into_inner()
                .expect("a group-commit writer panicked while holding the WAL lock")
                .log),
            Err(inner) => Err(GroupWal { inner }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FaultPlan, FaultyIo, MemIo};

    fn mem_group(window: Duration) -> GroupWal {
        let log = DurableLog::create(Box::new(MemIo::new()) as Box<dyn Io>).unwrap();
        GroupWal::new(log, window)
    }

    #[test]
    fn single_writer_append_commit_round_trips() {
        let g = mem_group(Duration::ZERO);
        let s1 = g.append(7, b"one").unwrap();
        let s2 = g.append(7, b"two").unwrap();
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
        let g = mem_group(Duration::ZERO);
        let s = g.append(7, b"x").unwrap();
        g.commit(s).unwrap();
        g.commit(s).unwrap(); // no new batch
        assert_eq!(g.inner.instr.batches.get(), 1);
    }

    #[test]
    fn sync_all_on_empty_batch_is_a_no_op() {
        let g = mem_group(Duration::ZERO);
        g.sync_all().unwrap();
        assert_eq!(g.inner.instr.batches.get(), 0);
        let s = g.append(7, b"x").unwrap();
        g.commit(s).unwrap();
        g.sync_all().unwrap(); // nothing new pending
        assert_eq!(g.inner.instr.batches.get(), 1);
    }

    #[test]
    fn concurrent_writers_share_batches() {
        let g = mem_group(Duration::from_millis(5));
        let threads: Vec<_> = (0..4)
            .map(|i| {
                let g = g.clone();
                std::thread::spawn(move || {
                    for j in 0..8 {
                        let seq = g.append(7, format!("w{i}.{j}").as_bytes()).unwrap();
                        g.commit(seq).unwrap();
                    }
                })
            })
            .collect();
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
        let g = GroupWal::new(log, Duration::ZERO);
        let s = g.append(7, b"x").unwrap();
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
        // Writer A appends and commits against a device whose next
        // flush fails; writer B piles onto the same batch. Exactly one
        // of them eats the injected error as leader, the other retries
        // the sync itself and succeeds — and afterwards both frames
        // are durable.
        let io = FaultyIo::new(FaultPlan {
            fail_flush: Some(2),
            ..FaultPlan::default()
        });
        let log = DurableLog::create(Box::new(io) as Box<dyn Io>).unwrap();
        let g = GroupWal::new(log, Duration::from_millis(10));
        let threads: Vec<_> = (0..2)
            .map(|i| {
                let g = g.clone();
                std::thread::spawn(move || {
                    let seq = g.append(7, &[i]).unwrap();
                    let first = g.commit(seq);
                    if first.is_err() {
                        g.commit(seq).unwrap(); // transient: retry succeeds
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(g.unsynced(), 0);
        assert_eq!(g.inner.instr.failed_syncs.get(), 1);
    }

    #[test]
    fn try_into_log_returns_the_log_once_sole_owner() {
        let g = mem_group(Duration::ZERO);
        let clone = g.clone();
        let g = g.try_into_log().unwrap_err(); // clone still alive
        drop(clone);
        let log = g.try_into_log().unwrap();
        assert!(log.is_empty().unwrap());
    }
}
