//! The page heap's record format: an append-only log of **slot
//! records** over the [`Io`] trait.
//!
//! The heap is what makes checkpoints **incremental**: a paged
//! checkpoint appends a record for each arena slot that changed since
//! the last one and installs a small anchor naming the heap watermark,
//! instead of serializing the whole state. This module holds the
//! record format and the record layer of [`PagedState`], the one type
//! over the heap device; [`crate::paged`] holds its curated-state layer
//! (open, materialise, capture).
//!
//! ```text
//! heap   := b"CDBPGH03" record*
//! record := frame(FRAME_PAGE, kind:u8 slot:u64le object)
//! ```
//!
//! * `kind` is [`KIND_NODE`] (one tree arena slot, tombstones
//!   included, encoded by `cdb_curation::wire::encode_tree_node`) or
//!   [`KIND_PROV`] (one node's direct provenance records,
//!   `cdb_curation::wire::encode_prov_records`); `slot` is the arena
//!   index. A record carries 18 bytes ahead of its object: the 9-byte
//!   frame header, the kind and the slot.
//! * An object may be any length: there is no page size, no chunking
//!   and no length prefix beyond the frame's own.
//! * Append order is version order, so a record needs no version
//!   number: the newest record of a slot is the last one, and older
//!   ones simply stay behind it.
//! * A record is one frame, so [`frame::scan`]
//!   validates the heap like every other file, and
//!   [`FaultyIo`](crate::io::FaultyIo) injection — torn writes, flush
//!   caps, bit rot — applies to it unchanged, which is what
//!   `crates/storage/tests/heap_faults.rs` exercises at every byte
//!   offset.

use crate::frame::{self, encode_parts, FRAME_PAGE};
use crate::io::Io;
use crate::StorageError;

/// Magic bytes opening a page-heap device.
pub const PAGE_MAGIC: &[u8; 8] = b"CDBPGH03";

/// Record kind: a curated-tree arena slot.
pub const KIND_NODE: u8 = 1;
/// Record kind: one node's direct provenance records.
pub const KIND_PROV: u8 = 2;

/// Encodes one slot record.
pub(crate) fn encode_record(kind: u8, slot: u64, object: &[u8]) -> Vec<u8> {
    encode_parts(FRAME_PAGE, &[&[kind], &slot.to_le_bytes(), object])
}

/// Splits a scanned frame into `(kind, slot, object)`; `None` when the
/// frame is not a slot record.
pub(crate) fn decode_record(frame_kind: u8, payload: &[u8]) -> Option<(u8, u64, &[u8])> {
    let (&kind, rest) = payload.split_first()?;
    let (slot, object) = rest.split_first_chunk::<8>()?;
    (frame_kind == FRAME_PAGE && matches!(kind, KIND_NODE | KIND_PROV))
        .then(|| (kind, u64::from_le_bytes(*slot), object))
}

/// Each slot's newest object, one vector per kind (node, provenance),
/// indexed by slot; `None` where the heap holds no record of that kind.
pub(crate) type Newest = (Vec<Option<Vec<u8>>>, Vec<Option<Vec<u8>>>);

/// The page heap: an append-only log of slot records.
#[derive(Debug)]
pub struct PagedState<I: Io> {
    io: I,
    /// Logical end of the heap: the next append offset.
    end: u64,
}

impl<I: Io> PagedState<I> {
    /// Attaches to a heap device without reading it, writing the
    /// header on an empty device. The header is checked by every scan
    /// ([`newest`](Self::newest)).
    pub(crate) fn attach(mut io: I) -> Result<Self, StorageError> {
        if io.base() != 0 {
            return Err(StorageError::Corrupt(
                "page heap requires an unsegmented device".into(),
            ));
        }
        if io.is_empty()? {
            io.append(PAGE_MAGIC)?;
        }
        let end = io.len()?;
        Ok(PagedState { io, end })
    }

    /// Appends one record. Not durable until [`flush`](Self::flush)
    /// succeeds.
    pub(crate) fn append(
        &mut self,
        kind: u8,
        slot: usize,
        object: &[u8],
    ) -> Result<(), StorageError> {
        let rec = encode_record(kind, slot as u64, object);
        self.io.append(&rec)?;
        self.end += rec.len() as u64;
        Ok(())
    }

    /// The one pass over the heap: scans the records below `limit` and
    /// keeps the newest object of each slot below `arena`. `None` when
    /// the valid records stop short of `limit` (torn, rotten, or a
    /// shorter device) or a checksummed frame is not a slot record. A
    /// device that is not a heap of this format is refused as
    /// `Corrupt`, and a failed device read propagates.
    pub(crate) fn newest(
        &mut self,
        limit: u64,
        arena: usize,
    ) -> Result<Option<Newest>, StorageError> {
        let (mut nodes, mut prov): Newest = Default::default();
        let mut malformed = false;
        let out = frame::scan(&mut self.io, PAGE_MAGIC, Some(limit), |kind, payload, _| {
            let Some((kind, slot, object)) = decode_record(kind, payload) else {
                malformed = true;
                return Ok(());
            };
            let objects = if kind == KIND_NODE {
                &mut nodes
            } else {
                &mut prov
            };
            // Scan order is append order: a later record of a slot is
            // always its newer version.
            if let Some(i) = usize::try_from(slot).ok().filter(|&i| i < arena) {
                if objects.len() <= i {
                    objects.resize(i + 1, None);
                }
                objects[i] = Some(object.to_vec());
            }
            Ok(())
        })?;
        if !out.header_ok {
            return Err(StorageError::Corrupt("bad page heap magic".into()));
        }
        Ok((!malformed && out.valid_len == limit).then_some((nodes, prov)))
    }

    /// Drops every record at or past byte `len`: later appends go
    /// there.
    pub(crate) fn truncate(&mut self, len: u64) -> Result<(), StorageError> {
        if self.end > len {
            self.io.truncate(len)?;
            self.end = len;
        }
        Ok(())
    }

    /// Flushes appended records to durable storage — the barrier a
    /// checkpoint takes before installing its anchor.
    pub fn flush(&mut self) -> Result<(), StorageError> {
        self.io.flush()
    }

    /// Logical heap length: the end of the newest record, which a
    /// checkpoint anchor records as its watermark.
    pub fn heap_len(&self) -> u64 {
        self.end
    }

    /// Consumes the state, returning the underlying device (crash
    /// harnesses take the durable image from it).
    pub fn into_io(self) -> I {
        self.io
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::io::{FaultPlan, FaultyIo, MemIo};
    use cdb_curation::wire::{self, PagedRef};
    use cdb_curation::{ProvStore, StoreMode, TreeDb};
    use std::sync::{Arc, Mutex};

    /// A device whose reads fail once they reach `fail_from`; the
    /// bytes stay inspectable after the state that owned it is gone.
    #[derive(Debug)]
    struct ReadFailsPast {
        bytes: Arc<Mutex<MemIo>>,
        fail_from: u64,
    }

    impl Io for ReadFailsPast {
        fn len(&self) -> Result<u64, StorageError> {
            self.bytes.lock().unwrap().len()
        }
        fn read_at(&mut self, offset: u64, buf: &mut [u8]) -> Result<usize, StorageError> {
            if offset + buf.len() as u64 > self.fail_from {
                return Err(StorageError::Io(format!("read past {}", self.fail_from)));
            }
            self.bytes.lock().unwrap().read_at(offset, buf)
        }
        fn append(&mut self, bytes: &[u8]) -> Result<(), StorageError> {
            self.bytes.lock().unwrap().append(bytes)
        }
        fn flush(&mut self) -> Result<(), StorageError> {
            self.bytes.lock().unwrap().flush()
        }
        fn truncate(&mut self, len: u64) -> Result<(), StorageError> {
            self.bytes.lock().unwrap().truncate(len)
        }
    }

    /// The newest node objects of the whole heap, for slots below 16.
    fn nodes(s: &mut PagedState<MemIo>) -> Option<Vec<Option<Vec<u8>>>> {
        let len = s.heap_len();
        s.newest(len, 16).unwrap().map(|(nodes, _)| nodes)
    }

    /// A one-node tree's root slot as a node object.
    fn root_object(name: &str) -> Vec<u8> {
        wire::encode_tree_node(&TreeDb::new(name), 0).unwrap()
    }

    /// The anchor of a one-node tree named `t` at watermark `heap_len`.
    fn anchor(heap_len: u64) -> Option<(&'static str, StoreMode, PagedRef)> {
        let pref = PagedRef {
            heap_len,
            arena_len: 1,
            root: 0,
        };
        Some(("t", StoreMode::Hereditary, pref))
    }

    #[test]
    fn create_write_read_round_trip() {
        let mut s = PagedState::attach(MemIo::new()).unwrap();
        assert_eq!(s.heap_len(), PAGE_MAGIC.len() as u64);
        assert_eq!(nodes(&mut s).unwrap(), Vec::<Option<Vec<u8>>>::new());
        // An object longer than a 4 KiB page is one record.
        let big = vec![0xAB; 10_000];
        s.append(KIND_NODE, 7, b"hello").unwrap();
        s.append(KIND_NODE, 9, &big).unwrap();
        let got = nodes(&mut s).unwrap();
        assert_eq!(got[7].as_deref(), Some(&b"hello"[..]));
        assert_eq!(got[9].as_deref(), Some(big.as_slice()));
        assert_eq!(got[8], None);
        assert_eq!(got.iter().flatten().count(), 2);
    }

    #[test]
    fn newest_version_wins_across_reopen() {
        let mut s = PagedState::attach(MemIo::new()).unwrap();
        s.append(KIND_NODE, 1, b"v1").unwrap();
        s.append(KIND_NODE, 1, b"v2").unwrap();
        s.append(KIND_NODE, 1, b"v3").unwrap();
        s.flush().unwrap();
        let io = s.into_io();
        let mut back = PagedState::attach(MemIo::from_bytes(io.bytes().to_vec())).unwrap();
        let got = nodes(&mut back).unwrap();
        assert_eq!(got[1].as_deref(), Some(&b"v3"[..]));
        assert_eq!(got.iter().flatten().count(), 1);
    }

    #[test]
    fn torn_tail_falls_back_to_previous_version_at_every_offset() {
        // Build a heap with two versions of one slot plus a second
        // slot, then replay a crash at every byte offset: a watermark
        // is served only when every record below it survived, and then
        // as the state it covered — never a torn object served as
        // truth.
        let mut s = PagedState::attach(MemIo::new()).unwrap();
        s.append(KIND_NODE, 1, b"one-v1").unwrap();
        let after_v1 = s.heap_len();
        s.append(KIND_NODE, 2, b"two").unwrap();
        let after_two = s.heap_len();
        s.append(KIND_NODE, 1, b"one-v2").unwrap();
        s.flush().unwrap();
        let full = s.heap_len();
        let image = s.into_io().bytes().to_vec();
        let two = Some(&b"two"[..]);
        let marks = [
            (after_v1, &b"one-v1"[..], None),
            (after_two, &b"one-v1"[..], two),
            (full, &b"one-v2"[..], two),
        ];
        for cut in 0..=image.len() {
            let dev = MemIo::from_bytes(image[..cut].to_vec());
            let mut back = PagedState::attach(dev).unwrap();
            if (cut as u64) < PAGE_MAGIC.len() as u64 && cut > 0 {
                assert!(back.newest(full, 3).is_err(), "cut {cut}");
                continue;
            }
            for (mark, one, two) in marks {
                let got = back.newest(mark, 3).unwrap();
                if (cut as u64) < mark {
                    assert!(got.is_none(), "cut {cut} served watermark {mark}");
                    continue;
                }
                let (got, _) = got.unwrap();
                assert_eq!(got[1].as_deref(), Some(one), "cut {cut}");
                assert_eq!(got.get(2).cloned().flatten().as_deref(), two, "cut {cut}");
            }
        }
    }

    #[test]
    fn anchor_limit_restores_the_watermarked_state() {
        let mut s = PagedState::attach(MemIo::new()).unwrap();
        s.append(KIND_NODE, 0, &root_object("t")).unwrap();
        let watermark = s.heap_len();
        s.append(KIND_NODE, 0, &root_object("newer")).unwrap();
        s.flush().unwrap();
        let image = s.into_io().bytes().to_vec();
        let (mut back, found) =
            PagedState::open(MemIo::from_bytes(image.clone()), anchor(watermark)).unwrap();
        let old = (TreeDb::new("t"), ProvStore::new(StoreMode::Hereditary));
        assert_eq!(found, Some(old));
        assert_eq!(back.heap_len(), watermark);
        // Appends after a limited open go at the watermark, not the
        // old device end.
        back.append(KIND_NODE, 3, b"x").unwrap();
        let (got, _) = back.newest(back.heap_len(), 4).unwrap().unwrap();
        assert_eq!(got[3].as_deref(), Some(&b"x"[..]));
        let bytes = back.into_io().bytes().to_vec();
        assert_eq!(bytes[..watermark as usize], image[..watermark as usize]);
    }

    #[test]
    fn bit_rot_is_caught_by_the_opening_scan() {
        let mut s = PagedState::attach(MemIo::new()).unwrap();
        s.append(KIND_NODE, 1, b"payload-bytes").unwrap();
        s.flush().unwrap();
        let full = s.heap_len();
        let image = s.into_io().bytes().to_vec();
        // Flip one object bit: the record fails its CRC, the scan stops
        // there, and the watermark past it is not served.
        let plan = FaultPlan {
            bit_flips: vec![(PAGE_MAGIC.len() as u64 + 18 + 2, 0x04)],
            ..FaultPlan::default()
        };
        let mut io = FaultyIo::with_contents(image, plan);
        io.flush().unwrap();
        let rotten = io.crash();
        let mut back = PagedState::attach(MemIo::from_bytes(rotten)).unwrap();
        assert_eq!(back.newest(full, 2).unwrap(), None);
    }

    #[test]
    fn read_error_in_the_opening_scan_propagates_and_truncates_nothing() {
        let mut s = PagedState::attach(MemIo::new()).unwrap();
        s.append(KIND_NODE, 0, &root_object("t")).unwrap();
        s.append(KIND_NODE, 0, &root_object("t")).unwrap();
        s.flush().unwrap();
        let watermark = s.heap_len();
        let image = s.into_io().bytes().to_vec();
        for fail_from in 0..image.len() as u64 {
            let bytes = Arc::new(Mutex::new(MemIo::from_bytes(image.clone())));
            let dev = ReadFailsPast {
                bytes: bytes.clone(),
                fail_from,
            };
            let res = PagedState::open(dev, anchor(watermark));
            assert!(
                matches!(res, Err(StorageError::Io(_))),
                "fail_from {fail_from}"
            );
            assert_eq!(
                bytes.lock().unwrap().bytes(),
                image,
                "fail_from {fail_from}"
            );
        }
    }
}
