//! Binary wire codec for the durable curation log.
//!
//! `cdb-storage` persists the transaction log as length-prefixed,
//! checksummed frames (see its `frame` module); this module owns the
//! *payload* encoding — a compact, versionless little-endian format for
//! every [`CurationOp`], full [`Transaction`]s, and the checkpoint
//! snapshot of a [`TreeDb`] + [`ProvStore`] pair. The codec lives here
//! (not in the storage crate) because it needs raw arena access: node
//! ids are arena indices, so a checkpoint must round-trip tombstoned
//! nodes and arena order exactly for tail replay to re-allocate the
//! original ids.
//!
//! Framing, checksums, and corruption handling are deliberately *not*
//! here: this codec assumes its input bytes are exactly one valid
//! payload (the storage layer's CRC gate guarantees that), and any
//! decode error therefore means a frame that passed its checksum is
//! structurally invalid — corruption the CRC missed, or a foreign file.

use cdb_model::atom::Decimal;
use cdb_model::{Atom, ChunkVec};

use crate::ops::{ClipNode, CurationOp, Transaction, TxnId};
use crate::provstore::{Origin, ProvEvent, ProvRecord, ProvStore, StoreMode};
use crate::tree::{NodeId, RawNode, TreeDb};

/// Errors while decoding a wire payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The payload ended before the value was complete.
    UnexpectedEof,
    /// An enum tag byte was out of range.
    BadTag(&'static str, u8),
    /// A string payload was not valid UTF-8.
    BadUtf8,
    /// The payload had bytes left over after the value.
    TrailingBytes(usize),
    /// A count field claims more elements than the remaining bytes
    /// could possibly encode — corruption caught *before* any
    /// allocation or element loop runs.
    BadLength {
        /// Elements the count field claims.
        claimed: u64,
        /// Bytes actually left in the payload.
        remaining: usize,
    },
    /// A `u64` identifier field does not fit the platform's `usize`
    /// (only reachable on 32-bit targets; a silent `as` truncation
    /// here would alias two distinct node ids).
    Overflow(&'static str),
    /// A recursive value (clip tree, origin chain) nests deeper than
    /// [`MAX_NESTING`] — decoding it would risk stack exhaustion.
    TooDeep(&'static str),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::UnexpectedEof => write!(f, "payload truncated"),
            WireError::BadTag(what, t) => write!(f, "bad {what} tag {t:#04x}"),
            WireError::BadUtf8 => write!(f, "invalid UTF-8 in payload"),
            WireError::TrailingBytes(n) => write!(f, "{n} trailing bytes after payload"),
            WireError::BadLength { claimed, remaining } => {
                write!(
                    f,
                    "count field claims {claimed} elements but only {remaining} bytes remain"
                )
            }
            WireError::Overflow(what) => write!(f, "{what} does not fit this platform's usize"),
            WireError::TooDeep(what) => {
                write!(f, "{what} nests deeper than {MAX_NESTING} levels")
            }
        }
    }
}

/// Maximum nesting depth accepted for recursive wire values (clip
/// subtrees, origin chains). Decoding is recursive, so an adversarial
/// payload claiming a million-deep chain must be rejected by a typed
/// error, not by blowing the stack. Real curated trees are a handful
/// of levels deep; 256 is far past anything the engine produces.
pub const MAX_NESTING: usize = 256;

impl std::error::Error for WireError {}

/// A checkpoint snapshot: the materialized state as of `last_txn`, so
/// recovery can skip re-applying the log prefix it covers.
///
/// Beyond the core state, a checkpoint is *load-bearing* for segmented
/// logs: `covered_len` anchors the snapshot to a logical WAL offset so
/// recovery can skip (and retention can retire) every frame before it,
/// and the carried log / publish / aux / snapshot payloads preserve
/// what those skipped frames would have contributed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Checkpoint {
    /// The last transaction whose effects the snapshot includes
    /// (`None` = a snapshot of the empty database).
    pub last_txn: Option<TxnId>,
    /// The tree, arena order and tombstones preserved.
    pub tree: TreeDb,
    /// The provenance store.
    pub prov: ProvStore,
    /// Logical WAL byte offset this snapshot durably covers: recovery
    /// skips frames ending at or before it, and retention may retire
    /// segments wholly below it. `None` = a snapshot with no coverage
    /// claim (recovery matches `last_txn` against the log).
    pub covered_len: Option<u64>,
    /// Wall-clock time of the last covered transaction, so time-based
    /// features (publish timestamps) survive history truncation.
    pub last_time: u64,
    /// The covered transaction log. Full under `Retention::KeepAll`
    /// (paper semantics: the curation log is forever); empty under
    /// `Retention::Reclaim`, where the tree + provenance snapshot is
    /// the only record of covered history. The database's own chunked
    /// log, so carrying it shares the chunks instead of copying them.
    pub log: ChunkVec<Transaction>,
    /// Encoded publish records (`cdb-storage` `PublishRecord` wire
    /// form) for every publish point in the covered prefix.
    pub publishes: Vec<Vec<u8>>,
    /// Raw aux payloads (lifecycle events, notes) from the covered
    /// prefix, in replay order.
    pub aux: Vec<Vec<u8>>,
    /// One encoded snapshot `Value` per covered publish point
    /// (`cdb-archive` value codec), populated under
    /// `Retention::Reclaim` so the published-version archive can be
    /// rebuilt without the covered log. Opaque bytes at this layer.
    pub snapshots: Vec<Vec<u8>>,
    /// Present when the snapshot's tree / provenance / archive bodies
    /// live in a paged heap instead of this payload (an *anchor*): the
    /// checkpoint then carries only the small metadata above, plus
    /// this reference telling recovery how to materialize the state
    /// from page records. Page-granular checkpointing writes
    /// only dirty pages to the heap and installs this small anchor,
    /// instead of serializing the whole state on every checkpoint.
    pub paged: Option<PagedRef>,
}

/// Reference from a checkpoint anchor to the paged heap holding its
/// state (see `cdb-storage`'s `page`/`paged` modules).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PagedRef {
    /// Logical heap byte length the anchor covers: only page records
    /// wholly below this watermark belong to the snapshot. The heap is
    /// append-only and flushed *before* the anchor installs, so a
    /// durable anchor always references a durable heap prefix.
    pub heap_len: u64,
    /// Arena length of the snapshotted tree: node pages `0..arena_len`
    /// must all be materializable or the anchor is unusable.
    pub arena_len: u64,
    /// The tree's root node id.
    pub root: u64,
}

impl Checkpoint {
    /// A checkpoint with only the core state: no coverage claim, no
    /// carried history, no paged anchor.
    pub fn basic(last_txn: Option<TxnId>, tree: TreeDb, prov: ProvStore) -> Self {
        Checkpoint {
            last_txn,
            tree,
            prov,
            covered_len: None,
            last_time: 0,
            log: ChunkVec::new(),
            publishes: Vec::new(),
            aux: Vec::new(),
            snapshots: Vec::new(),
            paged: None,
        }
    }
}

/// Tag opening every checkpoint payload: the one payload generation.
/// Payloads opening with anything else (the retired forms opened with
/// 0 to 3) are refused, never adopted.
const CKPT_TAG: u8 = 4;

// ------------------------------------------------------------ writer

/// Appends a little-endian `u32` to `out`.
pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a little-endian `u64` to `out`.
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a little-endian `i64` to `out`.
pub fn put_i64(out: &mut Vec<u8>, v: i64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a length-prefixed UTF-8 string to `out`.
pub fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

/// Appends an optional `u64` (presence byte + value) to `out`.
pub fn put_opt_u64(out: &mut Vec<u8>, v: Option<u64>) {
    match v {
        None => out.push(0),
        Some(x) => {
            out.push(1);
            put_u64(out, x);
        }
    }
}

/// Appends an [`Atom`] (tag byte + payload) to `out`. Public because
/// the server wire protocol (`cdb-server::proto`) reuses this codec
/// for request/response values.
pub fn put_atom(out: &mut Vec<u8>, a: &Atom) {
    match a {
        Atom::Unit => out.push(0),
        Atom::Bool(b) => {
            out.push(1);
            out.push(u8::from(*b));
        }
        Atom::Int(i) => {
            out.push(2);
            put_i64(out, *i);
        }
        Atom::Decimal(d) => {
            out.push(3);
            put_i64(out, d.digits());
            out.push(d.scale());
        }
        Atom::Str(s) => {
            out.push(4);
            put_str(out, s);
        }
    }
}

/// Appends an optional [`Atom`] (presence byte + value) to `out`.
pub fn put_opt_atom(out: &mut Vec<u8>, a: Option<&Atom>) {
    match a {
        None => out.push(0),
        Some(a) => {
            out.push(1);
            put_atom(out, a);
        }
    }
}

fn put_origin(out: &mut Vec<u8>, o: &Origin) {
    match o {
        Origin::Local => out.push(0),
        Origin::CopiedFrom { db, path, chain } => {
            out.push(1);
            put_str(out, db);
            put_str(out, path);
            put_u32(out, chain.len() as u32);
            for c in chain {
                put_origin(out, c);
            }
        }
        Origin::External { source } => {
            out.push(2);
            put_str(out, source);
        }
    }
}

fn put_clip(out: &mut Vec<u8>, c: &ClipNode) {
    put_str(out, &c.label);
    put_opt_atom(out, c.value.as_ref());
    put_u32(out, c.children.len() as u32);
    for child in &c.children {
        put_clip(out, child);
    }
}

fn put_op(out: &mut Vec<u8>, op: &CurationOp) {
    match op {
        CurationOp::Insert {
            node,
            parent,
            label,
            value,
        } => {
            out.push(0);
            put_u64(out, node.0 as u64);
            put_u64(out, parent.0 as u64);
            put_str(out, label);
            put_opt_atom(out, value.as_ref());
        }
        CurationOp::Modify { node, old, new } => {
            out.push(1);
            put_u64(out, node.0 as u64);
            put_opt_atom(out, old.as_ref());
            put_opt_atom(out, new.as_ref());
        }
        CurationOp::Delete { node } => {
            out.push(2);
            put_u64(out, node.0 as u64);
        }
        CurationOp::Paste {
            node,
            parent,
            origin,
            snapshot,
        } => {
            out.push(3);
            put_u64(out, node.0 as u64);
            put_u64(out, parent.0 as u64);
            put_origin(out, origin);
            put_clip(out, snapshot);
        }
    }
}

/// Encodes a transaction as a WAL frame payload.
pub fn encode_transaction(txn: &Transaction) -> Vec<u8> {
    let mut out = Vec::with_capacity(64);
    put_u64(&mut out, txn.id.0);
    put_str(&mut out, &txn.curator);
    put_u64(&mut out, txn.time);
    put_u32(&mut out, txn.ops.len() as u32);
    for op in &txn.ops {
        put_op(&mut out, op);
    }
    out
}

fn put_raw_node(out: &mut Vec<u8>, n: &RawNode) {
    put_str(out, &n.label);
    put_opt_atom(out, n.value.as_ref());
    put_opt_u64(out, n.parent.map(|p| p.0 as u64));
    put_u32(out, n.children.len() as u32);
    for c in &n.children {
        put_u64(out, c.0 as u64);
    }
    out.push(u8::from(n.alive));
}

fn put_tree(out: &mut Vec<u8>, tree: &TreeDb) {
    put_str(out, tree.name());
    put_u64(out, tree.root().0 as u64);
    let raw = tree.raw_slots();
    put_u32(out, raw.len() as u32);
    for n in raw {
        put_raw_node(out, n);
    }
}

fn put_prov_records(out: &mut Vec<u8>, recs: &[ProvRecord]) {
    put_u32(out, recs.len() as u32);
    for r in recs {
        put_u64(out, r.txn.0);
        match &r.event {
            ProvEvent::Created(o) => {
                out.push(0);
                put_origin(out, o);
            }
            ProvEvent::Modified => out.push(1),
        }
    }
}

fn put_prov(out: &mut Vec<u8>, prov: &ProvStore) {
    out.push(match prov.mode() {
        StoreMode::Naive => 0,
        StoreMode::Hereditary => 1,
    });
    put_u32(out, prov.keyed_nodes() as u32);
    for (node, recs) in prov.raw_records() {
        put_u64(out, node.0 as u64);
        put_prov_records(out, recs);
    }
}

fn put_chunk(out: &mut Vec<u8>, bytes: &[u8]) {
    put_u32(out, bytes.len() as u32);
    out.extend_from_slice(bytes);
}

fn put_chunks(out: &mut Vec<u8>, chunks: &[Vec<u8>]) {
    put_u32(out, chunks.len() as u32);
    for c in chunks {
        put_chunk(out, c);
    }
}

/// Encodes a checkpoint snapshot as a checkpoint-file frame payload:
///
/// ```text
/// tag:u8=4 last_txn:opt_u64 tree prov covered_len:opt_u64 last_time:u64
/// paged:(0 | 1 heap_len:u64 arena_len:u64 root:u64)
/// log:chunks publishes:chunks aux:chunks snapshots:chunks
/// ```
pub fn encode_checkpoint(ck: &Checkpoint) -> Vec<u8> {
    let mut out = Vec::with_capacity(256);
    out.push(CKPT_TAG);
    put_opt_u64(&mut out, ck.last_txn.map(|t| t.0));
    put_tree(&mut out, &ck.tree);
    put_prov(&mut out, &ck.prov);
    put_opt_u64(&mut out, ck.covered_len);
    put_u64(&mut out, ck.last_time);
    match &ck.paged {
        None => out.push(0),
        Some(p) => {
            out.push(1);
            put_u64(&mut out, p.heap_len);
            put_u64(&mut out, p.arena_len);
            put_u64(&mut out, p.root);
        }
    }
    put_u32(&mut out, ck.log.len() as u32);
    for txn in &ck.log {
        put_chunk(&mut out, &encode_transaction(txn));
    }
    put_chunks(&mut out, &ck.publishes);
    put_chunks(&mut out, &ck.aux);
    put_chunks(&mut out, &ck.snapshots);
    out
}

// ------------------------------------------------- paged node codec

/// One tree arena slot in its paged encoding — the exact per-node
/// field set the whole-tree codec writes, as a standalone page payload.
/// Tombstones are first-class: a checkpoint must round-trip dead
/// nodes and arena order exactly for tail replay to re-allocate the
/// original ids (same argument as the whole-tree codec above).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PagedNode {
    /// The node label.
    pub label: String,
    /// The node payload, if a leaf.
    pub value: Option<Atom>,
    /// Parent arena index (`None` only for the root slot).
    pub parent: Option<u64>,
    /// Child arena indices, in sibling order.
    pub children: Vec<u64>,
    /// Whether the node is live (tombstones persist in the arena).
    pub alive: bool,
}

/// The number of arena slots in a tree, tombstones included — the
/// range of valid node-page object ids.
pub fn arena_len(tree: &TreeDb) -> usize {
    tree.raw_slots().len()
}

/// The arena slots, ascending, whose node or direct provenance records
/// differ between `(tree, prov)` and `(base_tree, base_prov)`,
/// tombstones included — what a paged capture must rewrite when the
/// heap holds the base. Only slots in chunks the two no longer share
/// are compared, so the cost follows what was written since the base
/// was cloned, not the size of the arena.
pub fn changed_slots(
    tree: &TreeDb,
    prov: &ProvStore,
    base_tree: &TreeDb,
    base_prov: &ProvStore,
) -> Vec<usize> {
    let (nodes, base_nodes) = (tree.raw_slots(), base_tree.raw_slots());
    let recs = prov.raw_slots().unshared_with(base_prov.raw_slots());
    let mut out: Vec<usize> = nodes
        .unshared_with(base_nodes)
        .filter(|&i| nodes.get(i) != base_nodes.get(i))
        .chain(recs.filter(|&i| prov.direct(NodeId(i)) != base_prov.direct(NodeId(i))))
        .collect();
    out.sort_unstable();
    out.dedup();
    out
}

/// Encodes one arena slot as a node-page payload. `None` when `index`
/// is out of range.
pub fn encode_tree_node(tree: &TreeDb, index: usize) -> Option<Vec<u8>> {
    let n = tree.raw_slots().get(index)?;
    let mut out = Vec::with_capacity(32);
    put_raw_node(&mut out, n);
    Some(out)
}

/// Decodes a node-page payload written by [`encode_tree_node`].
pub fn decode_tree_node(bytes: &[u8]) -> Result<PagedNode, WireError> {
    let mut r = Reader::new(bytes);
    let node = r.paged_node()?;
    r.finish()?;
    Ok(node)
}

/// Assembles a tree from per-slot paged nodes in arena order — the
/// paged-recovery counterpart of the whole-tree decoder, so a heap
/// materialization round-trips tombstones and ids exactly.
pub fn tree_from_paged_nodes(
    name: impl Into<String>,
    root: u64,
    nodes: Vec<PagedNode>,
) -> Result<TreeDb, WireError> {
    let root = NodeId(usize::try_from(root).map_err(|_| WireError::Overflow("root id"))?);
    // The decoded nodes move into the arena's chunks as they convert.
    let raw = nodes
        .into_iter()
        .map(|n| {
            let parent = match n.parent {
                None => None,
                Some(p) => Some(NodeId(
                    usize::try_from(p).map_err(|_| WireError::Overflow("parent id"))?,
                )),
            };
            let children = n
                .children
                .into_iter()
                .map(|c| {
                    usize::try_from(c)
                        .map(NodeId)
                        .map_err(|_| WireError::Overflow("child id"))
                })
                .collect::<Result<_, _>>()?;
            Ok(RawNode {
                label: n.label,
                value: n.value,
                parent,
                children,
                alive: n.alive,
            })
        })
        .collect::<Result<ChunkVec<RawNode>, WireError>>()?;
    Ok(TreeDb::from_raw(name.into(), root, raw))
}

/// One node's directly-stored provenance records by arena index —
/// the capture-side accessor for the paged store (node ids are arena
/// indices, but `NodeId` has no public constructor).
pub fn direct_prov_records(prov: &ProvStore, index: usize) -> &[ProvRecord] {
    prov.direct(NodeId(index))
}

/// Encodes one node's direct provenance records as a prov-page
/// payload.
pub fn encode_prov_records(recs: &[ProvRecord]) -> Vec<u8> {
    let mut out = Vec::with_capacity(16 + 16 * recs.len());
    put_prov_records(&mut out, recs);
    out
}

/// Decodes a prov-page payload written by [`encode_prov_records`].
pub fn decode_prov_records(bytes: &[u8]) -> Result<Vec<ProvRecord>, WireError> {
    let mut r = Reader::new(bytes);
    let recs = r.prov_records()?;
    r.finish()?;
    Ok(recs)
}

/// Assembles a provenance store from per-node paged record lists —
/// the paged-recovery counterpart of the whole-store decoder.
pub fn prov_from_paged(
    mode: StoreMode,
    entries: Vec<(u64, Vec<ProvRecord>)>,
) -> Result<ProvStore, WireError> {
    let records = entries
        .into_iter()
        .map(|(node, recs)| {
            let node = usize::try_from(node).map_err(|_| WireError::Overflow("node id"))?;
            Ok((NodeId(node), recs))
        })
        .collect::<Result<Vec<_>, WireError>>()?;
    Ok(ProvStore::from_raw(mode, records))
}

// ------------------------------------------------------------ reader

/// A cursor over a wire payload.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader over the whole payload.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::UnexpectedEof);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Reads a little-endian `i64`.
    pub fn i64(&mut self) -> Result<i64, WireError> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Reads `n` raw bytes.
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        self.take(n)
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String, WireError> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| WireError::BadUtf8)
    }

    /// Reads an optional `u64` (presence byte + value).
    pub fn opt_u64(&mut self) -> Result<Option<u64>, WireError> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(self.u64()?)),
            t => Err(WireError::BadTag("option", t)),
        }
    }

    /// Reads a `u32` element count and validates it against the bytes
    /// remaining: a sequence of `n` elements each at least
    /// `min_elem_bytes` long cannot outrun the payload, so an inflated
    /// count field (bit rot, a foreign file) fails here with a typed
    /// [`WireError::BadLength`] *before* any allocation or element
    /// loop runs.
    pub fn seq_len(&mut self, min_elem_bytes: usize) -> Result<usize, WireError> {
        let n = self.u32()? as usize;
        if n.saturating_mul(min_elem_bytes.max(1)) > self.remaining() {
            return Err(WireError::BadLength {
                claimed: n as u64,
                remaining: self.remaining(),
            });
        }
        Ok(n)
    }

    /// Reads a `u64` that must fit the platform's `usize` (arena
    /// indices); a silent `as` truncation would alias node ids.
    fn index(&mut self, what: &'static str) -> Result<usize, WireError> {
        let v = self.u64()?;
        usize::try_from(v).map_err(|_| WireError::Overflow(what))
    }

    fn node_id(&mut self) -> Result<NodeId, WireError> {
        Ok(NodeId(self.index("node id")?))
    }

    /// Reads an [`Atom`] (tag byte + payload). Public counterpart of
    /// [`put_atom`] for the server wire protocol.
    pub fn atom(&mut self) -> Result<Atom, WireError> {
        match self.u8()? {
            0 => Ok(Atom::Unit),
            1 => Ok(Atom::Bool(self.u8()? != 0)),
            2 => Ok(Atom::Int(self.i64()?)),
            3 => {
                let digits = self.i64()?;
                let scale = self.u8()?;
                Ok(Atom::Decimal(Decimal::new(digits, scale)))
            }
            4 => Ok(Atom::Str(self.str()?)),
            t => Err(WireError::BadTag("atom", t)),
        }
    }

    /// Reads an optional [`Atom`] (presence byte + value). Public
    /// counterpart of [`put_opt_atom`].
    pub fn opt_atom(&mut self) -> Result<Option<Atom>, WireError> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(self.atom()?)),
            t => Err(WireError::BadTag("option", t)),
        }
    }

    fn origin(&mut self) -> Result<Origin, WireError> {
        self.origin_at(0)
    }

    fn origin_at(&mut self, depth: usize) -> Result<Origin, WireError> {
        if depth >= MAX_NESTING {
            return Err(WireError::TooDeep("origin chain"));
        }
        match self.u8()? {
            0 => Ok(Origin::Local),
            1 => {
                let db = self.str()?;
                let path = self.str()?;
                // A chained origin is at least 1 byte (a Local tag).
                let n = self.seq_len(1)?;
                let mut chain = Vec::with_capacity(n);
                for _ in 0..n {
                    chain.push(self.origin_at(depth + 1)?);
                }
                Ok(Origin::CopiedFrom { db, path, chain })
            }
            2 => Ok(Origin::External {
                source: self.str()?,
            }),
            t => Err(WireError::BadTag("origin", t)),
        }
    }

    fn clip(&mut self) -> Result<ClipNode, WireError> {
        self.clip_at(0)
    }

    fn clip_at(&mut self, depth: usize) -> Result<ClipNode, WireError> {
        if depth >= MAX_NESTING {
            return Err(WireError::TooDeep("clip subtree"));
        }
        let label = self.str()?;
        let value = self.opt_atom()?;
        // A child clip is at least 9 bytes: empty label (4), absent
        // value (1), zero child count (4).
        let n = self.seq_len(9)?;
        let mut children = Vec::with_capacity(n);
        for _ in 0..n {
            children.push(self.clip_at(depth + 1)?);
        }
        Ok(ClipNode {
            label,
            value,
            children,
        })
    }

    fn op(&mut self) -> Result<CurationOp, WireError> {
        match self.u8()? {
            0 => Ok(CurationOp::Insert {
                node: self.node_id()?,
                parent: self.node_id()?,
                label: self.str()?,
                value: self.opt_atom()?,
            }),
            1 => Ok(CurationOp::Modify {
                node: self.node_id()?,
                old: self.opt_atom()?,
                new: self.opt_atom()?,
            }),
            2 => Ok(CurationOp::Delete {
                node: self.node_id()?,
            }),
            3 => Ok(CurationOp::Paste {
                node: self.node_id()?,
                parent: self.node_id()?,
                origin: self.origin()?,
                snapshot: self.clip()?,
            }),
            t => Err(WireError::BadTag("curation op", t)),
        }
    }

    fn paged_node(&mut self) -> Result<PagedNode, WireError> {
        let label = self.str()?;
        let value = self.opt_atom()?;
        let parent = self.opt_u64()?;
        let nc = self.seq_len(8)?;
        let mut children = Vec::with_capacity(nc);
        for _ in 0..nc {
            children.push(self.u64()?);
        }
        let alive = self.u8()? != 0;
        Ok(PagedNode {
            label,
            value,
            parent,
            children,
            alive,
        })
    }

    fn tree(&mut self) -> Result<TreeDb, WireError> {
        let name = self.str()?;
        let root = self.u64()?;
        // A raw node is at least 11 bytes: empty label (4), absent
        // value (1), absent parent (1), zero children (4), alive (1).
        let n = self.seq_len(11)?;
        let mut nodes = Vec::with_capacity(n);
        for _ in 0..n {
            nodes.push(self.paged_node()?);
        }
        tree_from_paged_nodes(name, root, nodes)
    }

    fn prov_records(&mut self) -> Result<Vec<ProvRecord>, WireError> {
        // A record is at least 9 bytes: txn id (8) + event tag (1).
        let nr = self.seq_len(9)?;
        let mut recs = Vec::with_capacity(nr);
        for _ in 0..nr {
            let txn = TxnId(self.u64()?);
            let event = match self.u8()? {
                0 => ProvEvent::Created(self.origin()?),
                1 => ProvEvent::Modified,
                t => return Err(WireError::BadTag("prov event", t)),
            };
            recs.push(ProvRecord { txn, event });
        }
        Ok(recs)
    }

    fn prov(&mut self) -> Result<ProvStore, WireError> {
        let mode = match self.u8()? {
            0 => StoreMode::Naive,
            1 => StoreMode::Hereditary,
            t => return Err(WireError::BadTag("store mode", t)),
        };
        // A record-list entry is at least 12 bytes: node id (8) +
        // record count (4).
        let n = self.seq_len(12)?;
        let mut records = Vec::with_capacity(n);
        for _ in 0..n {
            let node = self.node_id()?;
            records.push((node, self.prov_records()?));
        }
        Ok(ProvStore::from_raw(mode, records))
    }

    /// Asserts the payload was fully consumed — a value followed by
    /// trailing bytes is corruption, not a success. Public because
    /// every frame decoder (WAL and network protocol alike) ends with
    /// this check.
    pub fn finish(self) -> Result<(), WireError> {
        if self.remaining() != 0 {
            return Err(WireError::TrailingBytes(self.remaining()));
        }
        Ok(())
    }
}

/// Decodes a transaction frame payload.
pub fn decode_transaction(bytes: &[u8]) -> Result<Transaction, WireError> {
    let mut r = Reader::new(bytes);
    let id = TxnId(r.u64()?);
    let curator = r.str()?;
    let time = r.u64()?;
    // The smallest op is a Delete: tag (1) + node id (8).
    let n = r.seq_len(9)?;
    let mut ops = Vec::with_capacity(n);
    for _ in 0..n {
        ops.push(r.op()?);
    }
    r.finish()?;
    Ok(Transaction {
        id,
        curator,
        time,
        ops,
    })
}

fn read_chunks(r: &mut Reader<'_>) -> Result<Vec<Vec<u8>>, WireError> {
    // A chunk is at least its 4-byte length prefix.
    let n = r.seq_len(4)?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let len = r.u32()? as usize;
        out.push(r.bytes(len)?.to_vec());
    }
    Ok(out)
}

/// Decodes a checkpoint frame payload (see [`encode_checkpoint`]).
/// Any other tag is [`WireError::BadTag`].
pub fn decode_checkpoint(bytes: &[u8]) -> Result<Checkpoint, WireError> {
    let mut r = Reader::new(bytes);
    let tag = r.u8()?;
    if tag != CKPT_TAG {
        return Err(WireError::BadTag("checkpoint payload", tag));
    }
    let last_txn = r.opt_u64()?.map(TxnId);
    let tree = r.tree()?;
    let prov = r.prov()?;
    let mut ck = Checkpoint::basic(last_txn, tree, prov);
    ck.covered_len = r.opt_u64()?;
    ck.last_time = r.u64()?;
    ck.paged = match r.u8()? {
        0 => None,
        1 => Some(PagedRef {
            heap_len: r.u64()?,
            arena_len: r.u64()?,
            root: r.u64()?,
        }),
        other => return Err(WireError::BadTag("paged anchor presence", other)),
    };
    // A carried transaction is at least its 4-byte length prefix.
    let n = r.seq_len(4)?;
    let mut log = Vec::with_capacity(n);
    for _ in 0..n {
        let len = r.u32()? as usize;
        log.push(decode_transaction(r.bytes(len)?)?);
    }
    ck.log = log.into();
    ck.publishes = read_chunks(&mut r)?;
    ck.aux = read_chunks(&mut r)?;
    ck.snapshots = read_chunks(&mut r)?;
    r.finish()?;
    Ok(ck)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::CuratedTree;
    use crate::provstore::StoreMode;

    fn busy_tree() -> CuratedTree {
        // A database exercising every op and atom constructor, with a
        // cross-database paste (nested origin chain) and a deletion
        // (tombstones in the arena).
        let mut src = CuratedTree::new("upstream", StoreMode::Hereditary);
        let sroot = src.tree.root();
        let mut t = src.begin("up", 1);
        let e = t.insert(sroot, "entry", None).unwrap();
        t.insert(e, "ac", Some(Atom::Str("Q1".into()))).unwrap();
        t.insert(e, "mass", Some(Atom::Decimal(Decimal::new(2802, 2))))
            .unwrap();
        t.insert(e, "reviewed", Some(Atom::Bool(true))).unwrap();
        t.commit();
        let clip = src.copy(e).unwrap();

        let mut db = CuratedTree::new("wire", StoreMode::Hereditary);
        let root = db.tree.root();
        let mut t = db.begin("alice", 2);
        let pasted = t.paste(root, &clip).unwrap();
        let note = t.insert(root, "note", Some(Atom::Int(-7))).unwrap();
        t.modify(note, Some(Atom::Unit)).unwrap();
        t.commit();
        let mut t = db.begin("bob", 3);
        let scratch = t.insert(pasted, "scratch", None).unwrap();
        t.delete(scratch).unwrap();
        t.commit();
        db
    }

    #[test]
    fn transactions_round_trip() {
        let db = busy_tree();
        for txn in db.transactions() {
            let bytes = encode_transaction(txn);
            assert_eq!(&decode_transaction(&bytes).unwrap(), txn);
        }
    }

    #[test]
    fn checkpoints_round_trip_tombstones_and_prov() {
        let db = busy_tree();
        let ck = Checkpoint::basic(db.last_txn_id(), db.tree.clone(), db.prov.clone());
        let bytes = encode_checkpoint(&ck);
        let back = decode_checkpoint(&bytes).unwrap();
        assert_eq!(back, ck);
        // Tail replay onto the decoded tree allocates the original ids:
        // a fresh node gets the next arena index, not a reused one.
        let mut recovered = CuratedTree::from_parts(back.tree, db.log.clone(), back.prov);
        let root = recovered.tree.root();
        let mut a = recovered.begin("x", 9);
        let fresh_rec = a.insert(root, "f", None).unwrap();
        a.commit();
        let mut live = db.clone();
        let root = live.tree.root();
        let mut b = live.begin("x", 9);
        let fresh_live = b.insert(root, "f", None).unwrap();
        b.commit();
        assert_eq!(fresh_rec, fresh_live);
        assert_eq!(recovered, live);
    }

    #[test]
    fn truncated_payloads_error_instead_of_panicking() {
        let db = busy_tree();
        let bytes = encode_transaction(db.transactions()[0]);
        for cut in 0..bytes.len() {
            assert!(decode_transaction(&bytes[..cut]).is_err(), "cut at {cut}");
        }
        let ck = encode_checkpoint(&Checkpoint::basic(None, db.tree.clone(), db.prov.clone()));
        for cut in (0..ck.len()).step_by(7) {
            assert!(decode_checkpoint(&ck[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn v2_checkpoints_round_trip_carried_history() {
        let db = busy_tree();
        let mut ck = Checkpoint::basic(db.last_txn_id(), db.tree.clone(), db.prov.clone());
        ck.covered_len = Some(4096);
        ck.last_time = 3;
        ck.log = db.log.clone();
        ck.publishes = vec![vec![1, 2, 3], Vec::new()];
        ck.aux = vec![b"event".to_vec()];
        ck.snapshots = vec![b"value-bytes".to_vec()];
        let bytes = encode_checkpoint(&ck);
        assert_eq!(decode_checkpoint(&bytes).unwrap(), ck);
    }

    #[test]
    fn v3_checkpoints_round_trip_the_paged_anchor() {
        let db = busy_tree();
        let mut ck = Checkpoint::basic(db.last_txn_id(), db.tree.clone(), db.prov.clone());
        ck.covered_len = Some(512);
        ck.paged = Some(PagedRef {
            heap_len: 8192,
            arena_len: 9,
            root: 0,
        });
        let bytes = encode_checkpoint(&ck);
        assert_eq!(bytes[0], CKPT_TAG);
        assert_eq!(decode_checkpoint(&bytes).unwrap(), ck);
        // Truncation discipline holds for the extended form too.
        for cut in (0..bytes.len()).step_by(5) {
            assert!(decode_checkpoint(&bytes[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn paged_node_codec_round_trips_the_arena_exactly() {
        let db = busy_tree();
        let n = arena_len(&db.tree);
        assert!(n > 1);
        let mut nodes = Vec::new();
        for i in 0..n {
            let bytes = encode_tree_node(&db.tree, i).unwrap();
            nodes.push(decode_tree_node(&bytes).unwrap());
        }
        assert!(encode_tree_node(&db.tree, n).is_none());
        // Tombstones survive: the busy tree deleted a node.
        assert!(nodes.iter().any(|p| !p.alive));
        let back =
            tree_from_paged_nodes(db.tree.name(), db.tree.root().index() as u64, nodes).unwrap();
        assert_eq!(back, db.tree);
    }

    #[test]
    fn paged_prov_codec_round_trips_per_node_records() {
        let db = busy_tree();
        let mut entries = Vec::new();
        for i in 0..arena_len(&db.tree) {
            let recs = db.prov.direct(NodeId(i));
            if recs.is_empty() {
                continue;
            }
            let bytes = encode_prov_records(recs);
            entries.push((i as u64, decode_prov_records(&bytes).unwrap()));
        }
        let back = prov_from_paged(db.prov.mode(), entries).unwrap();
        assert_eq!(back, db.prov);
    }

    #[test]
    fn changed_slots_are_exactly_the_rewritten_slots() {
        let mut db = busy_tree();
        let base = db.clone();
        let changed = |db: &CuratedTree| changed_slots(&db.tree, &db.prov, &base.tree, &base.prov);
        assert!(changed(&db).is_empty());
        let note = db.tree.resolve_path("/note").unwrap();
        // A provenance record alone, the node's slot unchanged, is a
        // change of that slot.
        let mut recorded = base.clone();
        recorded.prov.on_modify(note, TxnId(99));
        assert_eq!(changed(&recorded), vec![note.index()]);
        let mut t = db.begin("carol", 4);
        t.modify(note, Some(Atom::Int(1))).unwrap();
        t.commit();
        assert_eq!(changed(&db), vec![note.index()]);
        // A deletion rewrites the parent's child list too.
        let mut t = db.begin("carol", 5);
        t.delete(note).unwrap();
        t.commit();
        assert_eq!(changed(&db), vec![db.tree.root().index(), note.index()]);
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let db = busy_tree();
        let mut bytes = encode_transaction(db.transactions()[0]);
        bytes.push(0);
        assert_eq!(decode_transaction(&bytes), Err(WireError::TrailingBytes(1)));
    }

    #[test]
    fn inflated_op_count_is_a_typed_error_not_a_loop() {
        // A corrupt count field claiming u32::MAX ops with 3 bytes of
        // payload left must fail with BadLength before the op loop
        // (the old decoder looped until it starved, and its
        // `with_capacity(n.min(65_536))` was the only allocation cap).
        let mut b = Vec::new();
        put_u64(&mut b, 0);
        put_str(&mut b, "c");
        put_u64(&mut b, 1);
        put_u32(&mut b, u32::MAX);
        b.extend_from_slice(&[0, 0, 0]);
        assert!(matches!(
            decode_transaction(&b),
            Err(WireError::BadLength {
                claimed,
                remaining: 3
            }) if claimed == u64::from(u32::MAX)
        ));
    }

    #[test]
    fn inflated_chunk_count_in_checkpoint_is_a_typed_error() {
        let db = busy_tree();
        let ck = Checkpoint::basic(db.last_txn_id(), db.tree.clone(), db.prov.clone());
        let mut bytes = encode_checkpoint(&ck);
        // The final chunk list (snapshots) ends the payload: rewrite
        // its count (last 4 bytes — the list is empty) to a huge value.
        let at = bytes.len() - 4;
        bytes[at..].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            decode_checkpoint(&bytes),
            Err(WireError::BadLength { .. })
        ));
    }

    #[test]
    fn over_deep_clip_nesting_is_rejected_without_recursing() {
        // Craft a paste whose clip nests far past MAX_NESTING, built
        // iteratively (a real ClipNode that deep would itself recurse
        // on drop). Each level: empty label, no value, one child; the
        // innermost has zero children.
        let mut b = Vec::new();
        put_u64(&mut b, 0); // txn id
        put_str(&mut b, "c");
        put_u64(&mut b, 1); // time
        put_u32(&mut b, 1); // one op
        b.push(3); // Paste
        put_u64(&mut b, 1); // node
        put_u64(&mut b, 0); // parent
        b.push(0); // Origin::Local
        let depth = MAX_NESTING + 64;
        for _ in 0..depth {
            put_str(&mut b, "");
            b.push(0); // no value
            put_u32(&mut b, 1); // one child
        }
        put_str(&mut b, "");
        b.push(0);
        put_u32(&mut b, 0); // leaf
        assert_eq!(
            decode_transaction(&b),
            Err(WireError::TooDeep("clip subtree"))
        );
    }

    #[test]
    fn over_deep_origin_chain_is_rejected() {
        let mut b = Vec::new();
        for _ in 0..MAX_NESTING + 8 {
            b.push(1); // CopiedFrom
            put_str(&mut b, "db");
            put_str(&mut b, "/p");
            put_u32(&mut b, 1); // one chained origin
        }
        b.push(0); // Local
        let mut r = Reader::new(&b);
        assert_eq!(r.origin(), Err(WireError::TooDeep("origin chain")));
    }

    #[test]
    fn inflated_string_length_errors_cleanly() {
        let mut b = Vec::new();
        put_u64(&mut b, 0);
        // Curator string claims 1 GiB with 2 bytes behind it.
        put_u32(&mut b, 1 << 30);
        b.extend_from_slice(b"ab");
        assert_eq!(decode_transaction(&b), Err(WireError::UnexpectedEof));
    }

    #[test]
    fn seq_len_validates_against_remaining() {
        let mut b = Vec::new();
        put_u32(&mut b, 5);
        b.extend_from_slice(&[1, 2, 3, 4, 5, 6, 7, 8, 9, 10]);
        let mut r = Reader::new(&b);
        // 5 elements × 2 bytes = 10 ≤ 10 remaining: fine.
        assert_eq!(r.seq_len(2), Ok(5));
        let mut b = Vec::new();
        put_u32(&mut b, 5);
        b.extend_from_slice(&[1, 2, 3]);
        let mut r = Reader::new(&b);
        assert_eq!(
            r.seq_len(2),
            Err(WireError::BadLength {
                claimed: 5,
                remaining: 3
            })
        );
    }

    #[test]
    fn bad_tags_are_named() {
        assert!(matches!(
            decode_transaction(&{
                let mut b = Vec::new();
                put_u64(&mut b, 0);
                put_str(&mut b, "c");
                put_u64(&mut b, 1);
                put_u32(&mut b, 1);
                b.push(9); // no such op tag
                b.extend_from_slice(&[0u8; 8]); // pad past the length precheck
                b
            }),
            Err(WireError::BadTag("curation op", 9))
        ));
    }
}
