//! Page-granular checkpointing: the paged backing store behind
//! [`CuratedDatabase`].
//!
//! A database opened with [`CuratedDatabase::open_paged`] keeps a
//! third device besides the WAL and the checkpoint store: a page heap
//! (see `cdb_storage::page`) holding the tree arena and per-node
//! provenance records as chunked objects. Checkpoints then stop
//! serializing the whole state: they append only the objects that
//! differ from what the heap already holds, flush the heap, and
//! install a small anchor checkpoint (the one payload
//! generation, tag 6) carrying a [`PagedRef`] watermark instead of the
//! tree body. The archive of published versions is not paged: an
//! anchor in truncated form carries it encoded, as an unpaged
//! checkpoint does.
//!
//! The crash argument, in order:
//!
//! 1. the WAL sync happens first — the watermark the anchor claims is
//!    durable before anything else moves;
//! 2. changed objects are appended and the heap is flushed *before*
//!    the anchor installs, so a durable anchor always references a
//!    durable heap prefix;
//! 3. the anchor install is the existing two-slot / rename protocol —
//!    crash-atomic on its own, and an open discards every heap record
//!    past the installed anchor's watermark;
//! 4. only after the install does WAL retirement run.
//!
//! If an anchor ever references heap bytes that did not survive (a
//! lying disk), recovery falls back to full WAL replay — the WAL stays
//! authoritative, which is exactly what
//! `crates/storage/tests/buffer_faults.rs` drives at every byte
//! offset.
//!
//! What to capture is found the way the archiver (§5.1) finds what a
//! release changed: by comparing with what is already stored. The
//! backing keeps one value, the **base** — the tree and provenance the
//! heap holds: a chunk-sharing clone taken at the last successful
//! capture, or the anchor an open materialised, or nothing (a fresh
//! heap, a fallback open, a migration), when every slot is captured.
//! A capture rewrites exactly the arena slots whose node or records
//! differ from the base, in ascending order
//! ([`wire::changed_slots`]): a chunk the state still shares with the
//! base is skipped by one pointer comparison, and no curation op is
//! interpreted. Success replaces the base. A later flush may make a
//! failed capture's pages the heap's newest, so the next capture also
//! rewrites the slots it attempted, even those back at the base value.
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
use cdb_storage::{Io, PagedState, StorageError};

use crate::db::{CuratedDatabase, DbError, DbState};

/// The paged backing store and what its heap holds.
#[derive(Debug)]
pub(crate) struct PagedBacking {
    /// The page heap.
    pub(crate) state: PagedState<Box<dyn Io>>,
    /// What the heap holds; `None` until the first capture when it
    /// holds nothing usable.
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
        let mut slots = match &self.base {
            Some(base) => wire::changed_slots(tree, prov, &base.tree, &base.prov),
            None => (0..arena).collect(),
        };
        slots.append(&mut self.retry);
        slots.sort_unstable();
        slots.dedup();
        self.retry = slots;
        for &i in &self.retry {
            self.state.capture_node(tree, i)?;
            self.state.capture_prov(prov, i)?;
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

/// Stress check after each capture: the heap, materialised at the new
/// watermark, equals what was captured slot by slot — a slot the dirty
/// rule missed fails here, at the capture that missed it.
#[cfg(feature = "stress")]
fn assert_heap_holds(state: &mut PagedState<Box<dyn Io>>, base: &Base, pref: PagedRef) {
    let tree = state
        .materialize_tree(base.tree.name(), pref.root, pref.arena_len)
        .expect("stress: materialising the captured tree");
    let prov = state
        .materialize_prov(base.prov.mode(), pref.arena_len)
        .expect("stress: materialising the captured provenance");
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

/// Opens the page heap and, when the newest anchor is paged and its
/// heap prefix survived, rebuilds the full checkpoint it stands for —
/// the paged step of [`crate::durable::open_all`]. Returns the opened
/// state, the checkpoint to hand to recovery (`None` forces full WAL
/// replay), and the materialised anchor as the base.
pub(crate) fn prepare_paged_open(
    anchor: Option<Checkpoint>,
    page_io: Box<dyn Io>,
    metrics: &cdb_obs::Metrics,
) -> Result<PreparedOpen, DbError> {
    let pref = anchor.as_ref().and_then(|ck| ck.paged);
    let mut state = PagedState::open(page_io, pref.map(|p| p.heap_len))?;
    // No checkpoint, or a non-paged one (migration from a classic
    // database): use it as-is; the heap starts cold and the first
    // capture writes everything.
    let (Some(ck), Some(pref)) = (&anchor, pref) else {
        return Ok((state, anchor, None));
    };
    // An anchor is usable when the heap still holds every byte it
    // claims (not torn below the watermark) and they materialize.
    let full = (state.heap_len() >= pref.heap_len)
        .then(|| materialize_anchor(&mut state, ck, pref).ok())
        .flatten();
    let Some(full) = full else {
        // Unusable: replay the whole WAL.
        metrics.counter("storage.page.anchor_unusable").inc();
        return Ok((state, None, None));
    };
    let base = Base {
        tree: full.tree.clone(),
        prov: full.prov.clone(),
    };
    Ok((state, Some(full), Some(base)))
}

/// Rebuilds the full checkpoint an anchor stands for by materializing
/// tree and provenance from the page heap.
fn materialize_anchor(
    state: &mut PagedState<Box<dyn Io>>,
    anchor: &Checkpoint,
    pref: PagedRef,
) -> Result<Checkpoint, StorageError> {
    let tree = state.materialize_tree(anchor.tree.name(), pref.root, pref.arena_len)?;
    let prov = state.materialize_prov(anchor.prov.mode(), pref.arena_len)?;
    let mut full = anchor.clone();
    full.tree = tree;
    full.prov = prov;
    full.paged = None;
    Ok(full)
}
