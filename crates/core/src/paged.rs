//! Page-granular checkpointing: the paged backing store behind
//! [`CuratedDatabase`].
//!
//! A database opened with [`CuratedDatabase::open_paged`] keeps a
//! third device besides the WAL and the checkpoint store: a page heap
//! (see `cdb_storage::page`) holding the tree arena, per-node
//! provenance records, and archive snapshot fat-nodes as chunked
//! objects behind a buffer pool. Checkpoints then stop serializing
//! the whole state: they write only the pages of objects *dirtied
//! since the last anchor*, flush the heap, and install a small v3
//! anchor checkpoint carrying a [`PagedRef`] watermark instead of the
//! tree body.
//!
//! The crash argument, in order:
//!
//! 1. the WAL sync happens first — the watermark the anchor claims is
//!    durable before anything else moves;
//! 2. dirty pages are appended (never overwritten) and the heap is
//!    flushed *before* the anchor installs, so a durable anchor always
//!    references a durable heap prefix; a crash mid-capture leaves the
//!    previous anchor pointing at its own intact prefix;
//! 3. the anchor install is the existing two-slot / rename protocol —
//!    crash-atomic on its own;
//! 4. only after the install does WAL retirement run.
//!
//! If an anchor ever references heap bytes that did not survive (a
//! lying disk), recovery falls back to full WAL replay — the WAL stays
//! authoritative, which is exactly what
//! `crates/storage/tests/buffer_faults.rs` drives at every byte
//! offset.
//!
//! Dirty tracking is log-positional: the backing remembers the
//! in-memory log length at the last capture and derives the dirty
//! object set from the transactions after it (insert/modify/paste
//! touch the node and its parent; delete tombstones a whole subtree,
//! walked through raw links because the live-only API can no longer
//! see it), plus every arena slot allocated since. After recovery the
//! seed is an explicit diff of the materialized anchor state against
//! the replayed state, so tail-replayed effects are recaptured without
//! rewriting the whole heap.

use std::collections::BTreeSet;

use cdb_curation::wire::{self, Checkpoint, PagedRef};
use cdb_curation::CurationOp;
use cdb_storage::{BufferStats, Io, PagedState, StorageError};

use crate::db::{CuratedDatabase, DbError, DbState};

/// The paged backing store plus its dirty-tracking cursors.
#[derive(Debug)]
pub(crate) struct PagedBacking {
    /// The page heap behind its buffer pool.
    pub(crate) state: PagedState<Box<dyn Io>>,
    /// In-memory log length at the last successful capture: dirty
    /// objects are derived from the transactions after this prefix.
    clean_txns: usize,
    /// Arena length at the last successful capture: every slot at or
    /// past it is new and captured wholesale.
    clean_arena: usize,
    /// Published versions whose snapshot fat-nodes are captured.
    clean_versions: usize,
    /// Explicitly-seeded stale objects (recovery diff, or capture
    /// retries after a failed checkpoint). Cleared only when a capture
    /// fully succeeds.
    dirty: BTreeSet<usize>,
}

/// What [`prepare_paged_open`] hands back: the opened page state, the
/// effective checkpoint for recovery (`None` forces full WAL replay),
/// and the anchor seed for dirty-diff tracking.
pub(crate) type PreparedOpen = (
    PagedState<Box<dyn Io>>,
    Option<Checkpoint>,
    Option<AnchorSeed>,
);

/// Anchor-time state kept aside during a paged open, to seed dirty
/// tracking by diffing against the post-replay state.
pub(crate) struct AnchorSeed {
    tree: cdb_curation::TreeDb,
    prov: cdb_curation::ProvStore,
    versions: usize,
}

impl PagedBacking {
    /// Wires a page heap onto a just-recovered state, seeding dirty
    /// tracking. With an anchor seed, only objects the tail replay
    /// actually changed are marked; without one (fresh heap, fallback
    /// recovery, migration) everything is dirty and the first capture
    /// writes the full state.
    pub(crate) fn attach(
        state: PagedState<Box<dyn Io>>,
        seed: Option<AnchorSeed>,
        db: &DbState,
    ) -> Self {
        let mut backing = PagedBacking {
            state,
            clean_txns: db.curated.log.len(),
            clean_arena: 0,
            clean_versions: 0,
            dirty: BTreeSet::new(),
        };
        if let Some(seed) = seed {
            let anchor_arena = wire::arena_len(&seed.tree);
            let now_arena = wire::arena_len(&db.curated.tree);
            backing.clean_arena = anchor_arena.min(now_arena);
            for i in 0..backing.clean_arena {
                let node_changed = wire::encode_tree_node(&seed.tree, i)
                    != wire::encode_tree_node(&db.curated.tree, i);
                let prov_changed = wire::direct_prov_records(&seed.prov, i)
                    != wire::direct_prov_records(&db.curated.prov, i);
                if node_changed || prov_changed {
                    backing.dirty.insert(i);
                }
            }
            backing.clean_versions = seed.versions.min(db.archive.version_count() as usize);
        }
        backing
    }

    /// Captures every dirty object into the page heap and flushes it,
    /// returning the anchor reference for the checkpoint about to
    /// install. Cursors advance only on full success: a failed capture
    /// leaves every object marked dirty for the next attempt.
    pub(crate) fn capture(
        &mut self,
        db: &DbState,
        metrics: &cdb_obs::Metrics,
    ) -> Result<PagedRef, DbError> {
        let pref = capture_into(self, db)?;
        let pages = self.dirty.len() as u64;
        self.clean_txns = db.curated.log.len();
        self.clean_arena = wire::arena_len(&db.curated.tree);
        self.clean_versions = db.archive.version_count() as usize;
        self.dirty.clear();
        metrics.counter("storage.page.captured").add(pages);
        metrics
            .gauge("storage.page.heap_bytes")
            .set(self.state.heap_len());
        Ok(pref)
    }
}

impl CuratedDatabase {
    fn paged(&self) -> Option<&PagedBacking> {
        self.durable.as_ref()?.paged.as_ref()
    }

    /// Whether this instance checkpoints through a paged backing.
    pub fn is_paged(&self) -> bool {
        self.paged().is_some()
    }

    /// Buffer-pool statistics of the paged backing, when present.
    pub fn paged_stats(&self) -> Option<BufferStats> {
        self.paged().map(|b| b.state.stats())
    }
}

/// Derives the dirty object set from the log suffix, captures it plus
/// new snapshots, and flushes the heap. On entry `backing.dirty` may
/// already hold seeds; on exit it holds the full set that was (or
/// failed to be) captured.
fn capture_into(backing: &mut PagedBacking, db: &DbState) -> Result<PagedRef, DbError> {
    let tree = &db.curated.tree;
    let arena = wire::arena_len(tree);
    let clean_txns = backing.clean_txns.min(db.curated.log.len());
    let clean_arena = backing.clean_arena.min(arena);
    for txn in db.curated.log.iter_from(clean_txns) {
        for op in &txn.ops {
            match op {
                CurationOp::Insert { node, parent, .. }
                | CurationOp::Paste { node, parent, .. } => {
                    backing.dirty.insert(node.index());
                    backing.dirty.insert(parent.index());
                }
                CurationOp::Modify { node, .. } => {
                    backing.dirty.insert(node.index());
                }
                CurationOp::Delete { node } => {
                    // The deletion unlinked `node` from its parent's
                    // child list and tombstoned the whole subtree;
                    // walk it through raw links (the live-only API
                    // refuses to see dead nodes).
                    if let Some((Some(p), _, _)) = wire::node_links(tree, node.index()) {
                        backing.dirty.insert(p);
                    }
                    let mut stack = vec![node.index()];
                    while let Some(i) = stack.pop() {
                        backing.dirty.insert(i);
                        if let Some((_, children, _)) = wire::node_links(tree, i) {
                            stack.extend(children);
                        }
                    }
                }
            }
        }
    }
    backing.dirty.extend(clean_arena..arena);
    for &i in &backing.dirty {
        if i >= arena {
            // A rolled-back 2PC transaction can shrink nothing today
            // (arena ids are never reused), but stay defensive.
            continue;
        }
        backing.state.capture_node(tree, i)?;
        backing.state.capture_prov(&db.curated.prov, i)?;
    }
    let count = db.archive.version_count() as usize;
    for v in backing.clean_versions.min(count)..count {
        let val = db.archive.retrieve(v as u32)?;
        backing
            .state
            .capture_snapshot(v, &cdb_archive::codec::encode_value(&val))?;
    }
    // The heap must be durable before the anchor that references it.
    backing.state.flush()?;
    Ok(PagedRef {
        heap_len: backing.state.heap_len(),
        arena_len: arena as u64,
        root: tree.root().index() as u64,
    })
}

/// Opens the page heap and, when the newest anchor is paged and its
/// heap prefix survived, rebuilds the full checkpoint it stands for —
/// the paged step of [`crate::durable::open_all`]. Returns the opened
/// state, the checkpoint to hand to recovery (`None` forces full WAL
/// replay), and the anchor seed for dirty-diff tracking.
pub(crate) fn prepare_paged_open(
    anchor: Option<Checkpoint>,
    page_io: Box<dyn Io>,
    pool_pages: usize,
    metrics: &cdb_obs::Metrics,
) -> Result<PreparedOpen, DbError> {
    let pref = anchor.as_ref().and_then(|ck| ck.paged);
    let mut state = PagedState::open(page_io, pool_pages, pref.map(|p| p.heap_len), metrics)?;
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
    let seed = AnchorSeed {
        tree: full.tree.clone(),
        prov: full.prov.clone(),
        versions: full.snapshots.len(),
    };
    Ok((state, Some(full), Some(seed)))
}

/// Rebuilds the full checkpoint an anchor stands for by materializing
/// tree, provenance, and snapshots from the page heap.
fn materialize_anchor(
    state: &mut PagedState<Box<dyn Io>>,
    anchor: &Checkpoint,
    pref: PagedRef,
) -> Result<Checkpoint, StorageError> {
    let tree = state.materialize_tree(anchor.tree.name(), pref.root, pref.arena_len)?;
    let prov = state.materialize_prov(anchor.prov.mode(), pref.arena_len)?;
    let snapshots = state.materialize_snapshots(anchor.publishes.len())?;
    let mut full = anchor.clone();
    full.tree = tree;
    full.prov = prov;
    full.snapshots = snapshots;
    full.paged = None;
    Ok(full)
}
