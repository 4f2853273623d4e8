//! The lock-light metrics registry: counters, gauges, and fixed-bucket
//! latency histograms.
//!
//! Instruments are `Arc`-backed handles over atomics. The registry map
//! (name → instrument) is behind an `RwLock`, but the lock is touched
//! only at registration / snapshot time: callers look an instrument up
//! once, keep the cloned handle, and every subsequent record is a
//! relaxed atomic operation. Histograms use power-of-two bucket bounds,
//! so a recorded quantile is an *upper bound* on the true quantile and
//! overshoots it by at most 2× — a property the obs test suite proves
//! against sorted samples.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};
use std::time::Duration;

/// Number of histogram buckets: `0, 1, 2, 4, …, 2^63, u64::MAX`.
/// The doubling ladder covers the full `u64` range so the ≤2× quantile
/// bound holds for arbitrary samples, not just nanosecond latencies.
pub const NUM_BUCKETS: usize = 66;

/// The bucket upper bounds shared by every histogram.
pub const BUCKET_BOUNDS: [u64; NUM_BUCKETS] = bucket_bounds();

const fn bucket_bounds() -> [u64; NUM_BUCKETS] {
    let mut b = [0u64; NUM_BUCKETS];
    let mut i = 1;
    while i < NUM_BUCKETS - 1 {
        b[i] = 1u64 << (i - 1);
        i += 1;
    }
    b[NUM_BUCKETS - 1] = u64::MAX;
    b
}

/// The first bucket whose upper bound covers `v`.
fn bucket_index(v: u64) -> usize {
    BUCKET_BOUNDS.partition_point(|&b| b < v)
}

// --------------------------------------------------------- instruments

/// A monotone atomic counter.
#[derive(Debug, Clone, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// A fresh, unregistered counter (registries hand out shared ones).
    pub fn new() -> Self {
        Counter::default()
    }

    /// Adds `delta` (no-op while metrics are globally disabled).
    pub fn add(&self, delta: u64) {
        if crate::metrics_enabled() {
            self.0.fetch_add(delta, Ordering::Relaxed);
        }
    }

    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// The current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// An atomic gauge: last-written value, with a running-maximum mode.
#[derive(Debug, Clone, Default)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// A fresh, unregistered gauge.
    pub fn new() -> Self {
        Gauge::default()
    }

    /// Overwrites the value (no-op while metrics are disabled).
    pub fn set(&self, v: u64) {
        if crate::metrics_enabled() {
            self.0.store(v, Ordering::Relaxed);
        }
    }

    /// Raises the value to `v` if larger (running maximum).
    pub fn record_max(&self, v: u64) {
        if crate::metrics_enabled() {
            self.0.fetch_max(v, Ordering::Relaxed);
        }
    }

    /// Adds one — for occupancy-style gauges (queue depth, sessions
    /// in flight) that pair every `inc` with a later [`Gauge::dec`].
    pub fn inc(&self) {
        if crate::metrics_enabled() {
            self.0.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Subtracts one, saturating at zero (a disabled-metrics window
    /// can make releases outnumber acquires; never wrap to u64::MAX).
    pub fn dec(&self) {
        if crate::metrics_enabled() {
            let _ = self
                .0
                .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
                    Some(v.saturating_sub(1))
                });
        }
    }

    /// The current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

#[derive(Debug)]
struct HistogramInner {
    counts: [AtomicU64; NUM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Default for HistogramInner {
    fn default() -> Self {
        HistogramInner {
            counts: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }
}

/// A fixed-bucket histogram handle (power-of-two bounds, see
/// [`BUCKET_BOUNDS`]). Values are dimensionless; by convention the
/// workspace records nanoseconds.
#[derive(Debug, Clone, Default)]
pub struct HistogramHandle(Arc<HistogramInner>);

impl HistogramHandle {
    /// A fresh, unregistered histogram.
    pub fn new() -> Self {
        HistogramHandle::default()
    }

    /// Records one sample (no-op while metrics are disabled).
    pub fn record(&self, v: u64) {
        if !crate::metrics_enabled() {
            return;
        }
        let h = &self.0;
        h.counts[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        h.count.fetch_add(1, Ordering::Relaxed);
        h.sum.fetch_add(v, Ordering::Relaxed);
        h.min.fetch_min(v, Ordering::Relaxed);
        h.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Records a duration as nanoseconds.
    pub fn observe(&self, d: Duration) {
        self.record(d.as_nanos().min(u64::MAX as u128) as u64);
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }

    /// A frozen copy for quantile math and export.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let h = &self.0;
        HistogramSnapshot {
            counts: h.counts.iter().map(|c| c.load(Ordering::Relaxed)).collect(),
            count: h.count.load(Ordering::Relaxed),
            sum: h.sum.load(Ordering::Relaxed),
            min: h.min.load(Ordering::Relaxed),
            max: h.max.load(Ordering::Relaxed),
        }
    }
}

/// A frozen histogram: bucket counts plus summary stats.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket sample counts, aligned with [`BUCKET_BOUNDS`].
    pub counts: Vec<u64>,
    /// Total samples.
    pub count: u64,
    /// Sum of all samples.
    pub sum: u64,
    /// Smallest sample (`u64::MAX` when empty).
    pub min: u64,
    /// Largest sample.
    pub max: u64,
}

impl HistogramSnapshot {
    /// The `q`-quantile (`0.0..=1.0`) as the upper bound of the bucket
    /// holding it: always ≥ the true quantile, and ≤ 2× it (bucket
    /// bounds double). Returns 0 for an empty histogram.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return BUCKET_BOUNDS[i];
            }
        }
        BUCKET_BOUNDS[NUM_BUCKETS - 1]
    }

    /// Median estimate.
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 95th-percentile estimate.
    pub fn p95(&self) -> u64 {
        self.quantile(0.95)
    }

    /// 99th-percentile estimate.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// Mean of the recorded samples (0 when empty).
    pub fn mean(&self) -> u64 {
        self.sum.checked_div(self.count).unwrap_or(0)
    }

    /// Folds another snapshot in bucket-wise (for merging registries).
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

// ------------------------------------------------------------ registry

#[derive(Debug, Default)]
struct RegistryInner {
    counters: RwLock<BTreeMap<String, Counter>>,
    gauges: RwLock<BTreeMap<String, Gauge>>,
    histograms: RwLock<BTreeMap<String, HistogramHandle>>,
}

/// A named-instrument registry. Cheap to clone (`Arc`); clones share
/// the same instruments. One registry per database plus the process
/// [`crate::global`] one.
#[derive(Debug, Clone, Default)]
pub struct Metrics {
    inner: Arc<RegistryInner>,
}

fn get_or_insert<T: Clone + Default>(map: &RwLock<BTreeMap<String, T>>, name: &str) -> T {
    if let Some(v) = map.read().expect("metrics registry poisoned").get(name) {
        return v.clone();
    }
    map.write()
        .expect("metrics registry poisoned")
        .entry(name.to_owned())
        .or_default()
        .clone()
}

impl Metrics {
    /// An empty registry.
    pub fn new() -> Self {
        Metrics::default()
    }

    /// The counter registered under `name`, created on first use.
    /// Callers on hot paths should keep the returned handle.
    pub fn counter(&self, name: &str) -> Counter {
        get_or_insert(&self.inner.counters, name)
    }

    /// The gauge registered under `name`, created on first use.
    pub fn gauge(&self, name: &str) -> Gauge {
        get_or_insert(&self.inner.gauges, name)
    }

    /// The histogram registered under `name`, created on first use.
    pub fn histogram(&self, name: &str) -> HistogramHandle {
        get_or_insert(&self.inner.histograms, name)
    }

    /// Freezes every instrument into a [`MetricsSnapshot`].
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: self
                .inner
                .counters
                .read()
                .expect("metrics registry poisoned")
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            gauges: self
                .inner
                .gauges
                .read()
                .expect("metrics registry poisoned")
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            histograms: self
                .inner
                .histograms
                .read()
                .expect("metrics registry poisoned")
                .iter()
                .map(|(k, v)| (k.clone(), v.snapshot()))
                .collect(),
        }
    }
}

/// A frozen view of one (or several merged) registries.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, u64>,
    /// Histogram snapshots by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// Merges `other` in: counters add, gauges take the maximum,
    /// histograms fold bucket-wise. Used to overlay the process-global
    /// registry onto a per-database one.
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        for (k, v) in &other.counters {
            *self.counters.entry(k.clone()).or_insert(0) += v;
        }
        for (k, v) in &other.gauges {
            let slot = self.gauges.entry(k.clone()).or_insert(0);
            *slot = (*slot).max(*v);
        }
        for (k, v) in &other.histograms {
            match self.histograms.get_mut(k) {
                Some(h) => h.merge(v),
                None => {
                    self.histograms.insert(k.clone(), v.clone());
                }
            }
        }
    }

    /// Like [`merge`](Self::merge), but every incoming name gains
    /// `prefix` first — how a sharded database labels each shard's
    /// registry (`shard.<i>.core.commits`) so per-shard values stay
    /// distinguishable in one merged snapshot instead of summing into
    /// an unattributable total.
    pub fn merge_prefixed(&mut self, prefix: &str, other: &MetricsSnapshot) {
        for (k, v) in &other.counters {
            *self.counters.entry(format!("{prefix}{k}")).or_insert(0) += v;
        }
        for (k, v) in &other.gauges {
            let slot = self.gauges.entry(format!("{prefix}{k}")).or_insert(0);
            *slot = (*slot).max(*v);
        }
        for (k, v) in &other.histograms {
            match self.histograms.get_mut(&format!("{prefix}{k}")) {
                Some(h) => h.merge(v),
                None => {
                    self.histograms.insert(format!("{prefix}{k}"), v.clone());
                }
            }
        }
    }

    /// Whether nothing was ever recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bounds_double_and_cover_u64() {
        assert_eq!(BUCKET_BOUNDS[0], 0);
        assert_eq!(BUCKET_BOUNDS[1], 1);
        assert_eq!(BUCKET_BOUNDS[2], 2);
        for i in 2..NUM_BUCKETS - 1 {
            assert_eq!(BUCKET_BOUNDS[i], 2 * BUCKET_BOUNDS[i - 1]);
        }
        assert_eq!(BUCKET_BOUNDS[NUM_BUCKETS - 1], u64::MAX);
    }

    #[test]
    fn bucket_index_picks_the_covering_bound() {
        for (v, want) in [(0u64, 0usize), (1, 1), (2, 2), (3, 3), (4, 3), (5, 4)] {
            assert_eq!(bucket_index(v), want, "v={v}");
            assert!(BUCKET_BOUNDS[bucket_index(v)] >= v);
        }
        assert_eq!(BUCKET_BOUNDS[bucket_index(u64::MAX)], u64::MAX);
    }

    #[test]
    fn counters_and_gauges_share_state_by_name() {
        let _g = crate::test_flag_lock();
        let m = Metrics::new();
        m.counter("a.b.c").add(3);
        m.counter("a.b.c").inc();
        assert_eq!(m.counter("a.b.c").get(), 4);
        m.gauge("a.g").set(7);
        m.gauge("a.g").record_max(5);
        assert_eq!(m.gauge("a.g").get(), 7);
        m.gauge("a.g").record_max(9);
        assert_eq!(m.gauge("a.g").get(), 9);
    }

    #[test]
    fn gauge_dec_saturates_at_zero() {
        let _g = crate::test_flag_lock();
        let g = Gauge::new();
        // More releases than acquires (a disabled-metrics window can
        // cause this): the gauge must pin at zero, never wrap to
        // u64::MAX — a wrapped inflight gauge would permanently jam
        // admission control's load-shed threshold.
        g.inc();
        g.dec();
        g.dec();
        g.dec();
        assert_eq!(g.get(), 0);
        g.inc();
        assert_eq!(g.get(), 1);
    }

    #[test]
    fn histogram_quantiles_upper_bound_samples() {
        let _g = crate::test_flag_lock();
        let m = Metrics::new();
        let h = m.histogram("lat.ns");
        for v in [3u64, 3, 3, 100] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 4);
        assert_eq!(s.min, 3);
        assert_eq!(s.max, 100);
        // true p50 = 3 → bucket bound 4; true p99 = 100 → bound 128.
        assert_eq!(s.p50(), 4);
        assert_eq!(s.p99(), 128);
        assert_eq!(s.mean(), (3 + 3 + 3 + 100) / 4);
    }

    #[test]
    fn empty_histogram_is_all_zeros() {
        let s = HistogramHandle::new().snapshot();
        assert_eq!(s.quantile(0.5), 0);
        assert_eq!(s.mean(), 0);
    }

    #[test]
    fn snapshots_merge_counters_gauges_histograms() {
        let _g = crate::test_flag_lock();
        let a = Metrics::new();
        let b = Metrics::new();
        a.counter("c").add(1);
        b.counter("c").add(2);
        b.counter("only_b").add(5);
        a.gauge("g").set(3);
        b.gauge("g").set(9);
        a.histogram("h").record(10);
        b.histogram("h").record(1000);
        let mut s = a.snapshot();
        s.merge(&b.snapshot());
        assert_eq!(s.counters["c"], 3);
        assert_eq!(s.counters["only_b"], 5);
        assert_eq!(s.gauges["g"], 9);
        assert_eq!(s.histograms["h"].count, 2);
        assert_eq!(s.histograms["h"].max, 1000);
    }

    #[test]
    fn disabled_metrics_record_nothing() {
        let _g = crate::test_flag_lock();
        let m = Metrics::new();
        crate::set_metrics_enabled(false);
        m.counter("off").add(10);
        m.histogram("off.h").record(10);
        crate::set_metrics_enabled(true);
        assert_eq!(m.counter("off").get(), 0);
        assert_eq!(m.histogram("off.h").count(), 0);
    }
}
