//! A log-structured page heap over the [`Io`] trait.
//!
//! The heap is what makes checkpoints **page-granular and
//! incremental**: a paged checkpoint appends only the pages dirtied
//! since the last one and installs a small anchor naming the heap
//! watermark, instead of serializing the whole state (see
//! `crate::paged` for the object encoding on top).
//!
//! The heap is **append-only**: writing a page appends a new record;
//! the in-memory page table maps each page id to the offset of its
//! newest record, and older versions simply stay behind it. That shape
//! is what makes crash safety compositional with the rest of the
//! storage layer:
//!
//! * a record is one [`FRAME_PAGE`] frame, scanned by [`frame::scan`]
//!   like every other file: the opening scan stops at the first record
//!   that fails its CRC or length check and truncates the device
//!   there, falling back to the previous durable version of any page
//!   whose newest record was torn. A failed device read is not a torn
//!   record: it propagates and nothing is truncated;
//! * a checkpoint anchor (see `cdb_curation::wire::PagedRef`) names a
//!   byte watermark, and because earlier bytes are never rewritten, a
//!   durable anchor always references a durable heap prefix (the heap
//!   is flushed *before* the anchor installs);
//! * [`FaultyIo`](crate::io::FaultyIo) injection — torn writes, flush
//!   caps, bit rot, short reads — applies to the heap unchanged, which
//!   is what `crates/storage/tests/buffer_faults.rs` exercises at
//!   every byte offset.
//!
//! Record layout after the 8-byte magic header: a frame whose payload
//! is `page_id:u64le` followed by the page bytes. Append order is the
//! version order, so a record needs no version number.

use std::collections::BTreeMap;

use crate::frame::{self, decode_frame, encode_parts, FRAME_HEADER, FRAME_PAGE};
use crate::io::{read_exact_at, Io};
use crate::StorageError;

/// Maximum payload bytes per page record. Objects larger than a page
/// are chunked by the layer above (`crate::paged`).
pub const PAGE_SIZE: usize = 4096;

/// Magic bytes opening a page-heap device.
pub const PAGE_MAGIC: &[u8; 8] = b"CDBPGH02";

/// Bytes of a page record ahead of the page: the frame header plus the
/// page id.
const RECORD_HEADER: u64 = FRAME_HEADER + 8;

#[derive(Debug, Clone, Copy)]
struct Slot {
    /// Byte offset of the record's frame.
    at: u64,
    /// Page bytes in the record.
    len: u32,
}

/// A page heap: the latest durable-or-pending version of every page,
/// served from an append-only record log.
#[derive(Debug)]
pub struct PageStore<I: Io> {
    io: I,
    table: BTreeMap<u64, Slot>,
    /// Logical end of valid records (next append offset).
    end: u64,
}

impl<I: Io> PageStore<I> {
    /// Opens a heap, creating it when the device is empty. The opening
    /// scan validates every record and truncates the device at the
    /// first torn or corrupt one — the page table then maps each page
    /// to its newest *surviving* record. A device that is not a heap
    /// of this format is refused as `Corrupt`, never truncated.
    ///
    /// `limit`, when given, is a checkpoint-anchor watermark: records
    /// that end past it are discarded (and truncated away) even if
    /// they are intact, so the materialized table is exactly the state
    /// the anchor covered.
    pub fn open(mut io: I, limit: Option<u64>) -> Result<Self, StorageError> {
        if io.base() != 0 {
            return Err(StorageError::Corrupt(
                "page heap requires an unsegmented device".into(),
            ));
        }
        if io.is_empty()? {
            io.append(PAGE_MAGIC)?;
            return Ok(PageStore {
                io,
                table: BTreeMap::new(),
                end: PAGE_MAGIC.len() as u64,
            });
        }
        let mut table = BTreeMap::new();
        let out = frame::scan(&mut io, PAGE_MAGIC, limit, |kind, payload, end| {
            match (kind, payload.split_first_chunk::<8>()) {
                (FRAME_PAGE, Some((page, bytes))) if bytes.len() <= PAGE_SIZE => {
                    // Scan order is append order, so a later record for
                    // the same page is always the newer version.
                    let len = bytes.len() as u32;
                    let at = end - RECORD_HEADER - u64::from(len);
                    table.insert(u64::from_le_bytes(*page), Slot { at, len });
                    Ok(())
                }
                _ => Err(StorageError::Corrupt(format!(
                    "frame of kind {kind} and {} bytes is not a page record",
                    payload.len()
                ))),
            }
        })?;
        if !out.header_ok {
            return Err(StorageError::Corrupt("bad page heap magic".into()));
        }
        if out.bytes_dropped > 0 {
            io.truncate(out.valid_len)?;
        }
        Ok(PageStore {
            io,
            table,
            end: out.valid_len,
        })
    }

    /// Appends a new version of `page`. Not durable until
    /// [`flush`](Self::flush) succeeds.
    pub fn write_page(&mut self, page: u64, payload: &[u8]) -> Result<(), StorageError> {
        if payload.len() > PAGE_SIZE {
            return Err(StorageError::Io(format!(
                "page payload of {} bytes exceeds PAGE_SIZE ({PAGE_SIZE})",
                payload.len()
            )));
        }
        let rec = encode_parts(FRAME_PAGE, &[&page.to_le_bytes(), payload]);
        self.io.append(&rec)?;
        let slot = Slot {
            at: self.end,
            len: payload.len() as u32,
        };
        self.table.insert(page, slot);
        self.end += rec.len() as u64;
        Ok(())
    }

    /// Reads the newest version of `page`, re-verifying its checksum
    /// (bit rot between open and read is caught here, not served).
    pub fn read_page(&mut self, page: u64) -> Result<Option<Vec<u8>>, StorageError> {
        let Some(slot) = self.table.get(&page).copied() else {
            return Ok(None);
        };
        let mut rec = vec![0u8; (RECORD_HEADER + u64::from(slot.len)) as usize];
        read_exact_at(&mut self.io, slot.at, &mut rec)?;
        match decode_frame(&rec) {
            Some((FRAME_PAGE, payload)) if payload[..8] == page.to_le_bytes() => {
                Ok(Some(payload[8..].to_vec()))
            }
            _ => Err(StorageError::Corrupt(format!(
                "page {page} failed its checksum on read"
            ))),
        }
    }

    /// Whether the heap has a record for `page`.
    pub fn contains(&self, page: u64) -> bool {
        self.table.contains_key(&page)
    }

    /// Flushes appended records to durable storage.
    pub fn flush(&mut self) -> Result<(), StorageError> {
        self.io.flush()
    }

    /// Logical heap length: the end of the newest valid record, which
    /// a checkpoint anchor records as its watermark.
    pub fn len(&self) -> u64 {
        self.end
    }

    /// Whether the heap holds no page records.
    pub fn is_empty(&self) -> bool {
        self.table.is_empty()
    }

    /// Number of distinct pages with a live record.
    pub fn page_count(&self) -> usize {
        self.table.len()
    }

    /// All page ids with a live record, in id order.
    pub fn page_ids(&self) -> impl Iterator<Item = u64> + '_ {
        self.table.keys().copied()
    }

    /// Consumes the store, returning the underlying device (crash
    /// harnesses take the durable image from it).
    pub fn into_io(self) -> I {
        self.io
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::io::{FaultPlan, FaultyIo, MemIo};
    use std::sync::{Arc, Mutex};

    /// A device whose reads fail once they reach `fail_from`; the
    /// bytes stay inspectable after the store that owned it is gone.
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

    #[test]
    fn create_write_read_round_trip() {
        let mut s = PageStore::open(MemIo::new(), None).unwrap();
        assert!(s.is_empty());
        s.write_page(7, b"hello").unwrap();
        s.write_page(9, &[0xAB; PAGE_SIZE]).unwrap();
        assert_eq!(s.read_page(7).unwrap().unwrap(), b"hello");
        assert_eq!(s.read_page(9).unwrap().unwrap(), vec![0xAB; PAGE_SIZE]);
        assert_eq!(s.read_page(8).unwrap(), None);
        assert_eq!(s.page_count(), 2);
    }

    #[test]
    fn newest_version_wins_across_reopen() {
        let mut s = PageStore::open(MemIo::new(), None).unwrap();
        s.write_page(1, b"v1").unwrap();
        s.write_page(1, b"v2").unwrap();
        s.write_page(1, b"v3").unwrap();
        s.flush().unwrap();
        let io = s.into_io();
        let mut back = PageStore::open(MemIo::from_bytes(io.bytes().to_vec()), None).unwrap();
        assert_eq!(back.read_page(1).unwrap().unwrap(), b"v3");
        assert_eq!(back.page_count(), 1);
    }

    #[test]
    fn oversized_payload_is_rejected() {
        let mut s = PageStore::open(MemIo::new(), None).unwrap();
        assert!(s.write_page(0, &vec![0u8; PAGE_SIZE + 1]).is_err());
    }

    #[test]
    fn torn_tail_falls_back_to_previous_version_at_every_offset() {
        // Build a heap with two versions of one page plus a second
        // page, then replay a crash at every byte offset: the reopened
        // table must always be a valid prefix state — never a torn
        // payload served as truth.
        let mut s = PageStore::open(MemIo::new(), None).unwrap();
        s.write_page(1, b"one-v1").unwrap();
        let after_v1 = s.len();
        s.write_page(2, b"two").unwrap();
        let after_two = s.len();
        s.write_page(1, b"one-v2").unwrap();
        s.flush().unwrap();
        let image = s.into_io().bytes().to_vec();
        for cut in 0..=image.len() {
            let dev = MemIo::from_bytes(image[..cut].to_vec());
            if (cut as u64) < PAGE_MAGIC.len() as u64 && cut > 0 {
                assert!(PageStore::open(dev, None).is_err(), "cut {cut}");
                continue;
            }
            let mut back = PageStore::open(dev, None).unwrap();
            let p1 = back.read_page(1).unwrap();
            if (cut as u64) >= image.len() as u64 {
                assert_eq!(p1.unwrap(), b"one-v2");
            } else if (cut as u64) >= after_v1 {
                // v2's record is torn: v1 must survive.
                let got = p1.unwrap();
                assert!(got == b"one-v1" || got == b"one-v2", "cut {cut}");
            }
            if (cut as u64) >= after_two {
                assert_eq!(back.read_page(2).unwrap().unwrap(), b"two");
            }
        }
    }

    #[test]
    fn anchor_limit_restores_the_watermarked_state() {
        let mut s = PageStore::open(MemIo::new(), None).unwrap();
        s.write_page(1, b"old").unwrap();
        let watermark = s.len();
        s.write_page(1, b"new").unwrap();
        s.flush().unwrap();
        let image = s.into_io().bytes().to_vec();
        let mut back = PageStore::open(MemIo::from_bytes(image.clone()), Some(watermark)).unwrap();
        assert_eq!(back.read_page(1).unwrap().unwrap(), b"old");
        assert_eq!(back.len(), watermark);
        // Appends after a limited open go at the watermark, not the
        // old device end.
        back.write_page(3, b"x").unwrap();
        assert_eq!(back.read_page(3).unwrap().unwrap(), b"x");
    }

    #[test]
    fn bit_rot_is_caught_by_the_opening_scan() {
        let mut s = PageStore::open(MemIo::new(), None).unwrap();
        s.write_page(1, b"payload-bytes").unwrap();
        s.flush().unwrap();
        let image = s.into_io().bytes().to_vec();
        // Flip one payload bit: the record fails its CRC and the scan
        // drops it (table has no page 1).
        let plan = FaultPlan {
            bit_flips: vec![(PAGE_MAGIC.len() as u64 + RECORD_HEADER + 2, 0x04)],
            ..FaultPlan::default()
        };
        let mut io = FaultyIo::with_contents(image, plan);
        io.flush().unwrap();
        let rotten = io.crash();
        let mut back = PageStore::open(MemIo::from_bytes(rotten), None).unwrap();
        assert_eq!(back.read_page(1).unwrap(), None);
    }

    #[test]
    fn read_error_in_the_opening_scan_propagates_and_truncates_nothing() {
        let mut s = PageStore::open(MemIo::new(), None).unwrap();
        s.write_page(1, b"durable-one").unwrap();
        s.write_page(2, b"durable-two").unwrap();
        s.flush().unwrap();
        let image = s.into_io().bytes().to_vec();
        for fail_from in 0..image.len() as u64 {
            let bytes = Arc::new(Mutex::new(MemIo::from_bytes(image.clone())));
            let dev = ReadFailsPast {
                bytes: bytes.clone(),
                fail_from,
            };
            let res = PageStore::open(dev, None);
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
