//! # cdb-obs — unified observability for the curated-database stack
//!
//! The paper's thesis is that a curated database must answer *"where
//! did this come from and what happened to it?"* — this crate applies
//! the same standard to the engine itself. A trace is lineage for an
//! operation: every request's path through snapshot → plan → join →
//! WAL → sync is recorded the way a curation transaction records its
//! provenance.
//!
//! Three pieces, all std-only (the build environment has no crates
//! registry, so no `tracing`/`prometheus` here):
//!
//! * **[`metrics`]** — a lock-light [`Metrics`] registry of atomic
//!   counters, gauges, and fixed-bucket latency histograms with
//!   p50/p95/p99 estimation. Registration (name → instrument) takes a
//!   lock once; every subsequent record is a relaxed atomic op on a
//!   cloned handle. Stats structs (`ExecStats`, `RecoveryStats`) are
//!   thin views over the same counters.
//! * **[`span`](mod@span)** — structured spans with RAII timing
//!   (`span!("wal.group_commit", txn_id)`), trace ids that flow
//!   through thread-local state from the serving entry points down to
//!   the device sync, and a bounded per-thread ring buffer of recent
//!   span events ([`ring`]) written with a seqlock so emission never
//!   blocks on a reader.
//! * **[`export`]** — a human text table and a line-JSON dump for
//!   metric snapshots, a span-tree renderer for `cdbsh profile`, and
//!   the wire-portable span form ([`WireSpan`]): ring dumps serialize
//!   to line-JSON, parse back anywhere, and merge across processes by
//!   trace id (`export::merge_span_dumps`).
//! * **[`flight`]** — an always-on black box: on a `Corrupt` recovery,
//!   a failed 2PC decision sync, or a server panic, the recent ring
//!   events plus a metrics snapshot are persisted crash-atomically
//!   (temp+fsync+rename, length+checksum header) for `cdbsh blackbox`.
//!
//! Metric names follow `layer.component.metric` (see DESIGN.md S24):
//! `core.commits`, `storage.group.batches`, `relalg.eval.ns`,
//! `storage.error.sync_failed`.
//!
//! # Overhead discipline
//!
//! Metrics default **on**, tracing defaults **off**. A disabled
//! instrument costs one relaxed atomic load; a disabled span costs one
//! load plus the `Instant` read its caller needed anyway (operator
//! timing predates this crate). The end-to-end benchmark's
//! `obs.trace_overhead_share` rung tracks what turning tracing on
//! costs a whole workload run.
//!
//! This crate is the *only* place in the workspace allowed to read the
//! clock for metric/trace purposes — `scripts/check.sh` greps for
//! stray `Instant::now` timing paths outside the span API.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod export;
pub mod flight;
pub mod metrics;
pub mod ring;
pub mod span;

pub use export::WireSpan;
pub use flight::FlightDump;
pub use metrics::{Counter, Gauge, HistogramHandle, HistogramSnapshot, Metrics, MetricsSnapshot};
pub use ring::{events_for_trace, recent_events, SpanEvent, RING_CAPACITY};
pub use span::{
    adopt_trace, current_trace, set_slow_threshold, slow_threshold_ns, trace_root, SpanGuard,
    TraceGuard, TraceId,
};

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;

static METRICS_ENABLED: AtomicBool = AtomicBool::new(true);
static TRACING_ENABLED: AtomicBool = AtomicBool::new(false);

/// Whether metric recording is enabled (default: yes). Disabled
/// instruments drop records on the floor after one atomic load.
pub fn metrics_enabled() -> bool {
    METRICS_ENABLED.load(Ordering::Relaxed)
}

/// Globally enables or disables metric recording, to price the
/// instrumentation itself; production code leaves metrics on.
pub fn set_metrics_enabled(on: bool) {
    METRICS_ENABLED.store(on, Ordering::Relaxed);
}

/// Whether span events are being captured into the per-thread ring
/// buffers (default: no).
pub fn tracing_enabled() -> bool {
    TRACING_ENABLED.load(Ordering::Relaxed)
}

/// Globally enables or disables span capture (`cdbsh trace on|off`).
pub fn set_tracing(on: bool) {
    TRACING_ENABLED.store(on, Ordering::Relaxed);
}

/// The process-wide registry. Layers without a per-database registry
/// (the relational engine, storage error counters) record here;
/// `CuratedDatabase::metrics_snapshot` merges it with the per-database
/// registry so one call sees the whole stack.
pub fn global() -> &'static Metrics {
    static GLOBAL: OnceLock<Metrics> = OnceLock::new();
    GLOBAL.get_or_init(Metrics::new)
}

/// Serializes unit tests that toggle or depend on the process-global
/// enable flags (tests in this crate run on parallel threads).
#[cfg(test)]
pub(crate) fn test_flag_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn enable_flags_round_trip() {
        let _g = test_flag_lock();
        assert!(metrics_enabled());
        set_metrics_enabled(false);
        assert!(!metrics_enabled());
        set_metrics_enabled(true);
        assert!(!tracing_enabled());
        set_tracing(true);
        assert!(tracing_enabled());
        set_tracing(false);
    }

    #[test]
    fn global_registry_is_shared() {
        let _g = test_flag_lock();
        global().counter("test.lib.shared").add(2);
        assert!(global().counter("test.lib.shared").get() >= 2);
    }
}
