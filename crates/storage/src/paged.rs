//! Paged encoding of the curated database state: tree nodes and
//! per-node provenance records as *objects* chunked across
//! fixed-capacity pages of a [`PageStore`]: a write appends, a read
//! reads the heap. The archive of published versions is not paged: a
//! checkpoint that needs it carries it encoded.
//!
//! Page ids pack an object address into 64 bits:
//!
//! ```text
//! kind: 8 bits | object id: 40 bits | chunk: 16 bits
//! ```
//!
//! * `KIND_NODE` objects are tree arena slots (object id = arena
//!   index), encoded by `cdb_curation::wire::encode_tree_node` —
//!   tombstones included, because checkpoint materialization must
//!   round-trip arena order and dead nodes exactly for tail replay to
//!   re-allocate the original ids;
//! * `KIND_PROV` objects are one node's direct provenance records.
//!
//! Objects larger than a page are chunked: chunk 0 opens with the
//! object's total length, so a shrinking rewrite simply strands its
//! stale tail chunks (the length prefix governs how many chunks a
//! reader follows — no tombstone pages needed).

use cdb_curation::wire::{self, PagedNode};

use crate::io::Io;
use crate::page::{PageStore, PAGE_SIZE};
use crate::StorageError;

/// Page kind: a curated-tree arena slot.
pub const KIND_NODE: u8 = 1;
/// Page kind: one node's direct provenance records.
pub const KIND_PROV: u8 = 2;

/// Payload bytes available in chunk 0 after its length prefix.
const CHUNK0_DATA: usize = PAGE_SIZE - 4;

/// Packs an object address into a page id. Object ids above 2^40 and
/// chunk indices above 2^16 are out of range (a curated tree would
/// need a trillion arena slots to get there).
pub fn page_key(kind: u8, obj: u64, chunk: u16) -> u64 {
    debug_assert!(obj < (1 << 40), "object id {obj} exceeds 40 bits");
    (u64::from(kind) << 56) | ((obj & 0xFF_FFFF_FFFF) << 16) | u64::from(chunk)
}

/// Splits a page id back into `(kind, object, chunk)`.
pub fn split_key(key: u64) -> (u8, u64, u16) {
    ((key >> 56) as u8, (key >> 16) & 0xFF_FFFF_FFFF, key as u16)
}

/// The paged curated-state store: a [`PageStore`] plus the object
/// layer.
#[derive(Debug)]
pub struct PagedState<I: Io> {
    store: PageStore<I>,
}

impl<I: Io> PagedState<I> {
    /// Opens (creating if empty) a paged state over `io`. `limit` is
    /// the checkpoint-anchor heap watermark — see [`PageStore::open`].
    pub fn open(io: I, limit: Option<u64>) -> Result<Self, StorageError> {
        Ok(PagedState {
            store: PageStore::open(io, limit)?,
        })
    }

    /// Writes `bytes` as object `(kind, obj)`, chunking across pages.
    pub fn put_object(&mut self, kind: u8, obj: u64, bytes: &[u8]) -> Result<(), StorageError> {
        let mut chunk0 = Vec::with_capacity(4 + bytes.len().min(CHUNK0_DATA));
        chunk0.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
        let head = bytes.len().min(CHUNK0_DATA);
        chunk0.extend_from_slice(&bytes[..head]);
        self.store.write_page(page_key(kind, obj, 0), &chunk0)?;
        let mut at = head;
        let mut chunk: u16 = 1;
        while at < bytes.len() {
            let take = (bytes.len() - at).min(PAGE_SIZE);
            self.store
                .write_page(page_key(kind, obj, chunk), &bytes[at..at + take])?;
            at += take;
            chunk = chunk.checked_add(1).ok_or_else(|| {
                StorageError::Io(format!("object {kind}/{obj} exceeds chunk range"))
            })?;
        }
        Ok(())
    }

    /// Reads object `(kind, obj)` back, following its chunk chain.
    /// `None` when the heap has no chunk 0 for it.
    pub fn get_object(&mut self, kind: u8, obj: u64) -> Result<Option<Vec<u8>>, StorageError> {
        let Some(first) = self.store.read_page(page_key(kind, obj, 0))? else {
            return Ok(None);
        };
        if first.len() < 4 {
            return Err(StorageError::Corrupt(format!(
                "object {kind}/{obj} chunk 0 shorter than its length prefix"
            )));
        }
        let total = u32::from_le_bytes(first[..4].try_into().unwrap()) as usize;
        let mut out = Vec::with_capacity(total);
        out.extend_from_slice(&first[4..]);
        if out.len() > total {
            out.truncate(total);
        }
        let mut chunk: u16 = 1;
        while out.len() < total {
            let key = page_key(kind, obj, chunk);
            let Some(piece) = self.store.read_page(key)? else {
                return Err(StorageError::Corrupt(format!(
                    "object {kind}/{obj} truncated at chunk {chunk}"
                )));
            };
            let need = total - out.len();
            out.extend_from_slice(&piece[..piece.len().min(need)]);
            chunk = chunk
                .checked_add(1)
                .ok_or_else(|| StorageError::Corrupt("chunk chain overflow".into()))?;
        }
        Ok(Some(out))
    }

    // ------------------------------------------- curated-state layer

    /// Captures arena slot `index` of `tree` as its node object.
    pub fn capture_node(
        &mut self,
        tree: &cdb_curation::TreeDb,
        index: usize,
    ) -> Result<(), StorageError> {
        let bytes = wire::encode_tree_node(tree, index).ok_or_else(|| {
            StorageError::Io(format!("capture of out-of-range arena slot {index}"))
        })?;
        self.put_object(KIND_NODE, index as u64, &bytes)
    }

    /// Captures node `index`'s direct provenance records (a no-op
    /// when the node has none and the heap holds none for it; the
    /// probe reads the page table, not the heap).
    pub fn capture_prov(
        &mut self,
        prov: &cdb_curation::ProvStore,
        index: usize,
    ) -> Result<(), StorageError> {
        let recs = wire::direct_prov_records(prov, index);
        if recs.is_empty() && !self.store.contains(page_key(KIND_PROV, index as u64, 0)) {
            return Ok(());
        }
        self.put_object(KIND_PROV, index as u64, &wire::encode_prov_records(recs))
    }

    /// Reads one tree node (`None` for an absent slot).
    pub fn node(&mut self, index: u64) -> Result<Option<PagedNode>, StorageError> {
        match self.get_object(KIND_NODE, index)? {
            None => Ok(None),
            Some(bytes) => Ok(Some(wire::decode_tree_node(&bytes)?)),
        }
    }

    /// Reads one node's direct provenance records (empty when none
    /// were captured).
    pub fn node_prov(&mut self, index: u64) -> Result<Vec<cdb_curation::ProvRecord>, StorageError> {
        match self.get_object(KIND_PROV, index)? {
            None => Ok(Vec::new()),
            Some(bytes) => Ok(wire::decode_prov_records(&bytes)?),
        }
    }

    /// Materializes the whole tree from node pages `0..arena_len` —
    /// the checkpoint-recovery path. Every slot must be present.
    pub fn materialize_tree(
        &mut self,
        name: &str,
        root: u64,
        arena_len: u64,
    ) -> Result<cdb_curation::TreeDb, StorageError> {
        let mut nodes = Vec::with_capacity(arena_len as usize);
        for i in 0..arena_len {
            let Some(node) = self.node(i)? else {
                return Err(StorageError::Corrupt(format!(
                    "paged checkpoint missing node page {i} of {arena_len}"
                )));
            };
            nodes.push(node);
        }
        Ok(wire::tree_from_paged_nodes(name, root, nodes)?)
    }

    /// Materializes the provenance store from every prov page below
    /// `arena_len`.
    pub fn materialize_prov(
        &mut self,
        mode: cdb_curation::StoreMode,
        arena_len: u64,
    ) -> Result<cdb_curation::ProvStore, StorageError> {
        let objs: Vec<u64> = self
            .store
            .page_ids()
            .filter_map(|k| {
                let (kind, obj, chunk) = split_key(k);
                (kind == KIND_PROV && chunk == 0 && obj < arena_len).then_some(obj)
            })
            .collect();
        let mut entries = Vec::with_capacity(objs.len());
        for obj in objs {
            entries.push((obj, self.node_prov(obj)?));
        }
        Ok(wire::prov_from_paged(mode, entries)?)
    }

    /// Flushes the heap device — the barrier a checkpoint takes
    /// before installing its anchor.
    pub fn flush(&mut self) -> Result<(), StorageError> {
        self.store.flush()
    }

    /// Logical heap length: the anchor watermark.
    pub fn heap_len(&self) -> u64 {
        self.store.len()
    }

    /// Consumes the state, returning the underlying page store (crash
    /// harnesses take the device image from it).
    pub fn into_store(self) -> PageStore<I> {
        self.store
    }
}
