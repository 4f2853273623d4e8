//! The curated-state layer of the page heap: tree arena slots and
//! per-node provenance records as slot records of a [`PagedState`]
//! (the record format is in [`crate::page`]). A capture appends; the
//! only reader is the open, and it reads the heap once.
//!
//! * [`KIND_NODE`] objects are tree arena slots, encoded by
//!   `cdb_curation::wire::encode_tree_node` — tombstones included,
//!   because checkpoint materialization must round-trip arena order and
//!   dead nodes exactly for tail replay to re-allocate the original
//!   ids;
//! * [`KIND_PROV`] objects are one node's direct provenance records.
//!
//! **One pass.** [`PagedState::open`] makes one [`frame::scan`] of the
//! records under the checkpoint anchor's watermark. It validates every
//! record, keeps each slot's newest object, and then decodes each slot
//! once into the anchor's tree and provenance store. The anchor is
//! unusable when the valid records stop short of the watermark, when a
//! record fails to decode, or when a slot below the anchor's arena
//! length has no node record. A failed device read is none of these:
//! it propagates, and nothing is truncated.
//!
//! **No usable anchor empties the heap.** Records past a usable
//! anchor's watermark are truncated away; with no anchor, or an
//! unusable one, no record is vouched for, and the open truncates the
//! heap to its header. So a heap without a base holds nothing, and a
//! capture can treat a missing base as empty provenance.
//!
//! The archive of published versions is not paged: a checkpoint that
//! needs it carries it encoded.
//!
//! [`frame::scan`]: crate::frame::scan

use cdb_curation::wire::{self, PagedRef};
use cdb_curation::{ProvStore, StoreMode, TreeDb};

use crate::io::Io;
use crate::page::{PagedState, KIND_NODE, KIND_PROV, PAGE_MAGIC};
use crate::StorageError;

impl<I: Io> PagedState<I> {
    /// Opens the heap over `io`, creating it when the device is empty.
    /// A device that is not a heap of this format is refused as
    /// `Corrupt`, never truncated.
    ///
    /// `anchor` is what the installed checkpoint anchor names: the
    /// tree's name, the provenance mode and the heap reference. When
    /// the heap serves it, the anchor's tree and provenance come back
    /// and the heap is cut to the watermark; otherwise the heap is
    /// emptied to its header and `None` comes back (see the module
    /// docs).
    pub fn open(
        io: I,
        anchor: Option<(&str, StoreMode, PagedRef)>,
    ) -> Result<(Self, Option<(TreeDb, ProvStore)>), StorageError> {
        let _span = cdb_obs::SpanGuard::enter("storage.page.scan");
        let mut state = PagedState::attach(io)?;
        let mut keep = PAGE_MAGIC.len() as u64;
        let mut found = None;
        match anchor {
            Some((name, mode, pref)) => {
                found = state.materialise(name, mode, pref)?;
                if found.is_some() {
                    keep = pref.heap_len;
                }
            }
            // No record is vouched for: check only the header.
            None => _ = state.newest(keep, 0)?,
        }
        state.truncate(keep)?;
        Ok((state, found))
    }

    /// Materialises the tree and provenance an anchor stands for from
    /// one scan of the heap under its watermark — the open's pass, and
    /// the stress check's after each capture. `None` when the heap
    /// cannot serve the anchor.
    pub fn materialise(
        &mut self,
        name: &str,
        mode: StoreMode,
        pref: PagedRef,
    ) -> Result<Option<(TreeDb, ProvStore)>, StorageError> {
        let Ok(arena) = usize::try_from(pref.arena_len) else {
            return Ok(None);
        };
        let Some((nodes, prov)) = self.newest(pref.heap_len, arena)? else {
            return Ok(None);
        };
        if nodes.len() < arena || nodes.contains(&None) {
            return Ok(None);
        }
        let slots = nodes.iter().flatten().map(Vec::as_slice);
        let tree = wire::tree_from_node_objects(name, pref.root, slots);
        let slots = prov.iter().enumerate();
        let prov =
            wire::prov_from_objects(mode, slots.filter_map(|(i, o)| Some((i, o.as_deref()?))));
        Ok(tree.ok().zip(prov.ok()))
    }

    /// Captures arena slot `index` of `tree` as a node record.
    pub fn capture_node(&mut self, tree: &TreeDb, index: usize) -> Result<(), StorageError> {
        let bytes = wire::encode_tree_node(tree, index).ok_or_else(|| {
            StorageError::Io(format!("capture of out-of-range arena slot {index}"))
        })?;
        self.append(KIND_NODE, index, &bytes)
    }

    /// Captures node `index`'s direct provenance records as a
    /// provenance record, empty or not.
    pub fn capture_prov(&mut self, prov: &ProvStore, index: usize) -> Result<(), StorageError> {
        let recs = wire::direct_prov_records(prov, index);
        self.append(KIND_PROV, index, &wire::encode_prov_records(recs))
    }
}
