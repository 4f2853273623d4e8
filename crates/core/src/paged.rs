//! Page-granular checkpointing: the paged backing store behind
//! [`CuratedDatabase`].
//!
//! A database opened with [`CuratedDatabase::open_paged`] keeps a
//! third device besides the WAL and the checkpoint store: a page heap
//! (see `cdb_storage::page`), an append-only log of slot records, one
//! per tree arena slot or per node's provenance records, of any
//! length. Checkpoints then stop serializing the whole state: they
//! append a record for each slot that differs from what the heap
//! already holds, flush the heap, and install a small anchor
//! checkpoint (the one payload generation, tag 6) carrying a
//! [`PagedRef`] watermark instead of the tree body. The archive of
//! published versions is not paged: the anchor carries it encoded, as
//! an unpaged checkpoint does. Only a checkpoint that installs an
//! anchor (the truncated form) writes the heap; under `KeepAll`, while
//! the WAL holds the whole log, a checkpoint is a sync, and the heap
//! keeps only its header.
//!
//! An open reads the heap once: one scan under the anchor's watermark
//! validates every record and materialises the anchor's tree and
//! provenance (`PagedState::open`).
//!
//! The crash argument, in order:
//!
//! 1. the WAL sync happens first — the watermark the anchor claims is
//!    durable before anything else moves;
//! 2. changed slots are appended and the heap is flushed *before*
//!    the anchor installs, so a durable anchor always references a
//!    durable heap prefix;
//! 3. the anchor install is the existing two-slot / rename protocol —
//!    crash-atomic on its own, and an open discards every heap record
//!    past the installed anchor's watermark;
//! 4. only after the install does WAL retirement run;
//! 5. an open with no usable anchor (none, an unpaged one, or one the
//!    heap cannot serve) empties the heap to its header: no record in
//!    it is vouched for, and the first capture then writes every slot
//!    against an empty heap.
//!
//! If an anchor ever references heap bytes that did not survive (a
//! lying disk), recovery falls back to full WAL replay — the WAL stays
//! authoritative, which is exactly what
//! `crates/storage/tests/heap_faults.rs` drives at every byte
//! offset. A failed heap read is not an unusable anchor: it fails the
//! open, and nothing is truncated.
//!
//! What to capture is found the way the archiver (§5.1) finds what a
//! release changed: by comparing with what is already stored. The
//! backing keeps one value, the **base** — the tree and provenance the
//! heap holds: a chunk-sharing clone taken at the last successful
//! capture, or the anchor an open materialised, or nothing (an empty
//! heap), when every slot is captured and a missing base reads as
//! empty provenance. A capture rewrites exactly the arena slots whose
//! node or records differ from the base, in ascending order
//! ([`wire::changed_slots`]): a chunk the state still shares with the
//! base is skipped by one pointer comparison, and no curation op is
//! interpreted. A slot's provenance record is written when its records
//! differ from the base's. Success replaces the base. A later flush may
//! make a failed capture's records the heap's newest, so the next
//! capture also rewrites the slots it attempted, node and provenance,
//! even those back at the base value.
//!
//! Memory: the base shares chunks with the live state. Under
//! `SharedDb` every chunk a write touches is already shared with the
//! published epoch, so the base adds no copies; what it adds is the
//! old version of each chunk written since the last capture, kept
//! until the next one. In the rare open where recovery discards an
//! anchor that did materialise, the base shares nothing with the
//! replayed state, and the first capture compares every slot.

use cdb_curation::wire::{self, Checkpoint, PagedRef};
use cdb_curation::{ProvStore, TreeDb};
use cdb_storage::{Io, PagedState};

use crate::db::{CuratedDatabase, DbError, DbState};

/// The paged backing store and what its heap holds.
#[derive(Debug)]
pub(crate) struct PagedBacking {
    /// The page heap.
    pub(crate) state: PagedState<Box<dyn Io>>,
    /// What the heap holds; `None` while it holds nothing.
    base: Option<Base>,
    /// Slots attempted since the last successful capture.
    retry: Vec<usize>,
}

/// The state the page heap holds, slot for slot.
#[derive(Debug)]
pub(crate) struct Base {
    tree: TreeDb,
    prov: ProvStore,
}

/// What [`prepare_paged_open`] hands back: the opened page state, the
/// effective checkpoint for recovery (`None` forces full WAL replay),
/// and the base the heap holds.
pub(crate) type PreparedOpen = (PagedState<Box<dyn Io>>, Option<Checkpoint>, Option<Base>);

impl PagedBacking {
    /// Wires a page heap holding `base` onto a just-recovered state.
    pub(crate) fn attach(state: PagedState<Box<dyn Io>>, base: Option<Base>) -> Self {
        PagedBacking {
            state,
            base,
            retry: Vec::new(),
        }
    }

    /// Captures every slot that differs from the base or that a failed
    /// capture attempted, and flushes the heap,
    /// returning the anchor reference for the checkpoint about to
    /// install. Only full success replaces the base and clears `retry`.
    pub(crate) fn capture(
        &mut self,
        db: &DbState,
        metrics: &cdb_obs::Metrics,
    ) -> Result<PagedRef, DbError> {
        let (tree, prov) = (&db.curated.tree, &db.curated.prov);
        let arena = wire::arena_len(tree);
        let retried = std::mem::take(&mut self.retry);
        let mut slots = match &self.base {
            Some(base) => wire::changed_slots(tree, prov, &base.tree, &base.prov),
            None => (0..arena).collect(),
        };
        slots.extend_from_slice(&retried);
        slots.sort_unstable();
        slots.dedup();
        self.retry = slots;
        let base_prov = self.base.as_ref().map(|b| &b.prov);
        for &i in &self.retry {
            self.state.capture_node(tree, i)?;
            let held = base_prov.map_or(&[][..], |p| wire::direct_prov_records(p, i));
            if wire::direct_prov_records(prov, i) != held || retried.binary_search(&i).is_ok() {
                self.state.capture_prov(prov, i)?;
            }
        }
        // The heap must be durable before the anchor that references it.
        self.state.flush()?;
        let captured = std::mem::take(&mut self.retry).len();
        let pref = PagedRef {
            heap_len: self.state.heap_len(),
            arena_len: arena as u64,
            root: tree.root().index() as u64,
        };
        let base = Base {
            tree: tree.clone(),
            prov: prov.clone(),
        };
        #[cfg(feature = "stress")]
        assert_heap_holds(&mut self.state, &base, pref);
        self.base = Some(base);
        metrics
            .counter("storage.page.captured")
            .add(captured as u64);
        metrics
            .gauge("storage.page.heap_bytes")
            .set(self.state.heap_len());
        Ok(pref)
    }
}

/// Stress check after each capture: the heap, rescanned at the new
/// watermark by the open's own pass, equals what was captured slot by
/// slot — a slot the dirty rule missed fails here, at the capture that
/// missed it.
#[cfg(feature = "stress")]
fn assert_heap_holds(state: &mut PagedState<Box<dyn Io>>, base: &Base, pref: PagedRef) {
    let (tree, prov) = state
        .materialise(base.tree.name(), base.prov.mode(), pref)
        .expect("stress: rescanning the heap")
        .expect("stress: the heap serves the anchor it just wrote");
    let missed = wire::changed_slots(&tree, &prov, &base.tree, &base.prov);
    assert!(
        missed.is_empty() && tree == base.tree && prov == base.prov,
        "the heap differs from the captured state at slots {missed:?}"
    );
}

impl CuratedDatabase {
    /// Whether this instance checkpoints through a paged backing.
    pub fn is_paged(&self) -> bool {
        self.durable.as_ref().is_some_and(|d| d.paged.is_some())
    }
}

/// Opens the page heap and, when the newest anchor is paged and the
/// heap serves it, rebuilds the full checkpoint it stands for — the
/// paged step of [`crate::durable::open_all`]. Returns the opened
/// state, the checkpoint to hand to recovery (`None` forces full WAL
/// replay), and the materialised anchor as the base.
pub(crate) fn prepare_paged_open(
    anchor: Option<Checkpoint>,
    page_io: Box<dyn Io>,
    metrics: &cdb_obs::Metrics,
) -> Result<PreparedOpen, DbError> {
    let named = anchor
        .as_ref()
        .and_then(|ck| Some((ck.tree.name(), ck.prov.mode(), ck.paged?)));
    let paged = named.is_some();
    let (state, found) = PagedState::open(page_io, named)?;
    // No checkpoint, or a non-paged one (migration from a classic
    // database): use it as-is; the heap was emptied, and the first
    // capture writes everything.
    if !paged {
        return Ok((state, anchor, None));
    }
    let (Some(mut full), Some((tree, prov))) = (anchor, found) else {
        // Unusable: replay the whole WAL.
        metrics.counter("storage.page.anchor_unusable").inc();
        return Ok((state, None, None));
    };
    let base = Base {
        tree: tree.clone(),
        prov: prov.clone(),
    };
    full.tree = tree;
    full.prov = prov;
    full.paged = None;
    Ok((state, Some(full), Some(base)))
}
