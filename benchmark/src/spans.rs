//! The benchmark's own spans: recorded in memory around every call
//! into a layer, written out when the run ends.
//!
//! A span has a name (`<layer>.<call>`), a start, an end, the span
//! that was open on the same thread when it started (its parent) and
//! the id of the request it belongs to. A layer's *self time* is its
//! spans' duration minus the part their children cover. Recording is
//! off unless a traced pass turns it on; an untraced pass pays one
//! relaxed atomic load per call site.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// One finished span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Process-unique id.
    pub id: u32,
    /// The span open on this thread when this one started.
    pub parent: Option<u32>,
    /// `<layer>.<call>`.
    pub name: &'static str,
    /// Nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    /// Nanoseconds since the recorder's epoch.
    pub end_ns: u64,
    /// The request this span belongs to (0 = none).
    pub request: u64,
}

impl Span {
    /// The layer: the name up to the first dot.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }

    /// End minus start.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

// Relaxed: the flag publishes no other data; passes toggle it while no
// worker thread is running.
static ON: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU32 = AtomicU32::new(1);

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn collected() -> &'static Mutex<Vec<Span>> {
    static ALL: OnceLock<Mutex<Vec<Span>>> = OnceLock::new();
    ALL.get_or_init(|| Mutex::new(Vec::new()))
}

#[derive(Default)]
struct Local {
    open: Vec<u32>,
    done: Vec<Span>,
    request: u64,
}

thread_local! {
    static LOCAL: RefCell<Local> = RefCell::new(Local::default());
}

/// Turns recording on or off.
pub fn set_recording(on: bool) {
    epoch();
    ON.store(on, Ordering::Relaxed);
}

/// Whether spans are being recorded.
pub fn recording() -> bool {
    ON.load(Ordering::Relaxed)
}

/// Sets the request id stamped on this thread's following spans.
pub fn set_request(id: u64) {
    if recording() {
        LOCAL.with(|l| l.borrow_mut().request = id);
    }
}

/// An open span; closes when dropped.
#[must_use = "a span measures until it is dropped"]
pub struct Guard {
    open: Option<(u32, &'static str, u64)>,
}

/// Opens a span named `<layer>.<call>`.
pub fn span(name: &'static str) -> Guard {
    if !recording() {
        return Guard { open: None };
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    LOCAL.with(|l| l.borrow_mut().open.push(id));
    let start = epoch().elapsed().as_nanos() as u64;
    Guard {
        open: Some((id, name, start)),
    }
}

impl Drop for Guard {
    fn drop(&mut self) {
        let Some((id, name, start_ns)) = self.open.take() else {
            return;
        };
        let end_ns = epoch().elapsed().as_nanos() as u64;
        LOCAL.with(|l| {
            let mut l = l.borrow_mut();
            // Guards drop in reverse order of creation on one thread.
            let popped = l.open.pop();
            debug_assert_eq!(popped, Some(id));
            let parent = l.open.last().copied();
            let request = l.request;
            l.done.push(Span {
                id,
                parent,
                name,
                start_ns,
                end_ns,
                request,
            });
        });
    }
}

/// Moves this thread's finished spans into the shared collection; every
/// recording thread calls it before it ends.
pub fn flush_thread() {
    let done = LOCAL.with(|l| std::mem::take(&mut l.borrow_mut().done));
    if !done.is_empty() {
        collected()
            .lock()
            .expect("a thread panicked while flushing spans")
            .extend(done);
    }
}

/// Takes every collected span, ordered by start.
pub fn drain() -> Vec<Span> {
    flush_thread();
    let mut all = std::mem::take(
        &mut *collected()
            .lock()
            .expect("a thread panicked while flushing spans"),
    );
    all.sort_by_key(|s| (s.start_ns, s.id));
    all
}

/// Self time of every span: its duration minus its children's.
pub fn self_times(spans: &[Span]) -> BTreeMap<u32, u64> {
    let mut own: BTreeMap<u32, u64> = spans.iter().map(|s| (s.id, s.duration_ns())).collect();
    for s in spans {
        if let Some(p) = s.parent {
            if let Some(t) = own.get_mut(&p) {
                *t = t.saturating_sub(s.duration_ns());
            }
        }
    }
    own
}

/// The per-layer self-time table of one traced pass.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerTable {
    /// `(layer, self nanoseconds, spans)`, largest first. The harness's
    /// own named spans (waiting at a barrier, checking answers) are the
    /// `bench` row.
    pub rows: Vec<(String, u64, u64)>,
    /// Time inside root spans that no child span covers.
    pub unaccounted_ns: u64,
    /// Sum of the root spans: the thread time the table explains.
    pub total_ns: u64,
}

/// The name of the root span each traced thread opens around its
/// timed work.
pub const ROOT: &str = "bench.root";

impl LayerTable {
    /// Builds the table. Root spans ([`ROOT`]) define the total; their
    /// own self time is the `unaccounted` row. Spans outside any root
    /// (set-up, checks) are left out.
    pub fn build(spans: &[Span]) -> LayerTable {
        let own = self_times(spans);
        // Only spans under a root count: ids grow with start time, so
        // a parent is always classified before its children.
        let mut by_id: Vec<&Span> = spans.iter().collect();
        by_id.sort_by_key(|s| s.id);
        let mut under_root = std::collections::BTreeSet::new();
        for s in by_id {
            if s.name == ROOT || s.parent.is_some_and(|p| under_root.contains(&p)) {
                under_root.insert(s.id);
            }
        }
        let mut layers: BTreeMap<&str, (u64, u64)> = BTreeMap::new();
        let mut unaccounted_ns = 0;
        let mut total_ns = 0;
        for s in spans.iter().filter(|s| under_root.contains(&s.id)) {
            let t = own[&s.id];
            if s.name == ROOT {
                unaccounted_ns += t;
                total_ns += s.duration_ns();
            } else {
                let row = layers.entry(s.layer()).or_default();
                row.0 += t;
                row.1 += 1;
            }
        }
        let mut rows: Vec<(String, u64, u64)> = layers
            .into_iter()
            .map(|(l, (ns, n))| (l.to_owned(), ns, n))
            .collect();
        rows.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        LayerTable {
            rows,
            unaccounted_ns,
            total_ns,
        }
    }

    /// `unaccounted / total` (0 for an empty table).
    pub fn unaccounted_share(&self) -> f64 {
        if self.total_ns == 0 {
            0.0
        } else {
            self.unaccounted_ns as f64 / self.total_ns as f64
        }
    }

    /// The table as text; rows plus `unaccounted` sum to the total.
    pub fn render(&self, title: &str) -> String {
        let mut out = format!(
            "{title}\n  {:<14} {:>12} {:>8} {:>8}\n",
            "layer", "self ms", "share", "spans"
        );
        let share = |ns: u64| 100.0 * ns as f64 / self.total_ns.max(1) as f64;
        for (layer, ns, n) in &self.rows {
            out += &format!(
                "  {layer:<14} {:>12.3} {:>7.2}% {n:>8}\n",
                *ns as f64 / 1e6,
                share(*ns)
            );
        }
        out += &format!(
            "  {:<14} {:>12.3} {:>7.2}%\n  {:<14} {:>12.3} {:>7.2}%\n",
            "unaccounted",
            self.unaccounted_ns as f64 / 1e6,
            share(self.unaccounted_ns),
            "total",
            self.total_ns as f64 / 1e6,
            100.0
        );
        out
    }
}

/// One JSON object per span, one per line.
pub fn to_jsonl(spans: &[Span]) -> String {
    let mut out = String::new();
    for s in spans {
        let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
        out += &format!(
            "{{\"id\":{},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"request\":{}}}\n",
            s.id, s.name, s.start_ns, s.end_ns, s.request
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(id: u32, parent: Option<u32>, name: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            name,
            start_ns: start,
            end_ns: end,
            request: 0,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let spans = vec![
            sp(1, None, ROOT, 0, 1000),
            sp(2, Some(1), "core.write", 100, 600),
            sp(3, Some(2), "storage.sync", 200, 500),
            sp(4, Some(1), "relalg.exec", 700, 900),
            sp(5, Some(1), "bench.check", 900, 950),
            sp(6, None, "core.setup", 2000, 3000),
        ];
        let own = self_times(&spans);
        assert_eq!(own[&1], 1000 - 500 - 200 - 50);
        assert_eq!(own[&2], 200);
        assert_eq!(own[&3], 300);
        let table = LayerTable::build(&spans);
        assert_eq!(table.total_ns, 1000);
        assert_eq!(table.unaccounted_ns, 250);
        let rows: u64 = table.rows.iter().map(|r| r.1).sum();
        assert_eq!(rows + table.unaccounted_ns, table.total_ns);
        assert_eq!(table.rows[0], ("storage".to_owned(), 300, 1));
        assert!((table.unaccounted_share() - 0.25).abs() < 1e-12);
        assert!(table.render("t").contains("unaccounted"));
    }

    #[test]
    fn guards_nest_and_record_parents() {
        set_recording(true);
        set_request(7);
        {
            let _root = span(ROOT);
            let _a = span("core.a");
            drop(span("storage.b"));
        }
        set_recording(false);
        drop(span("core.ignored"));
        let spans = drain();
        let mine: Vec<&Span> = spans.iter().filter(|s| s.request == 7).collect();
        assert_eq!(mine.len(), 3);
        let root = mine.iter().find(|s| s.name == ROOT).unwrap();
        let a = mine.iter().find(|s| s.name == "core.a").unwrap();
        let b = mine.iter().find(|s| s.name == "storage.b").unwrap();
        assert_eq!(root.parent, None);
        assert_eq!(a.parent, Some(root.id));
        assert_eq!(b.parent, Some(a.id));
        assert!(to_jsonl(&spans).lines().count() >= 3);
    }
}
