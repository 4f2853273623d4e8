//! Copy-on-write containers: the structural sharing behind cheap
//! snapshots.
//!
//! The archive of §5.1 stores each release by sharing with the release
//! before it whatever did not change. These two containers give an
//! in-memory value the same property: cloning one bumps a reference
//! count per chunk and copies no element, and a write copies only the
//! chunk it lands in, and only while another clone still shares that
//! chunk (`Arc::make_mut`). A clone taken before a write therefore keeps
//! answering exactly as it did when it was taken.
//!
//! * [`ChunkVec`] — a vector for dense ids (arena slots, log positions):
//!   fixed-size chunks of [`CHUNK_LEN`] elements, each behind an `Arc`.
//! * [`BucketMap`] — a map for keyed data: [`BUCKETS`] buckets, each an
//!   `Arc<BTreeMap>`, a key's bucket chosen by a fixed hash.
//!
//! Every copy a write makes is counted by the process-global counter
//! `core.snapshot.chunks_copied` (one per chunk or bucket copied).

use std::borrow::Borrow;
use std::collections::BTreeMap;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::Index;
use std::sync::{Arc, OnceLock};

/// Elements per [`ChunkVec`] chunk. A write to a shared chunk copies
/// this many elements; a clone bumps one count per this many. 64 keeps
/// both small at the sizes this engine serves: a 12 000-node arena is
/// ~190 chunks to share, and a copied chunk of tree nodes is a few
/// microseconds of allocation.
pub const CHUNK_LEN: usize = 64;

/// Buckets per [`BucketMap`]. A write to a shared bucket copies
/// `1 / BUCKETS` of the map (its keys and values are cloned, so values
/// that are large should themselves sit behind an `Arc`); a clone bumps
/// `BUCKETS` counts.
pub const BUCKETS: usize = 64;

fn chunks_copied() -> &'static cdb_obs::Counter {
    static COPIED: OnceLock<cdb_obs::Counter> = OnceLock::new();
    COPIED.get_or_init(|| cdb_obs::global().counter("core.snapshot.chunks_copied"))
}

/// Counts the copy `Arc::make_mut` is about to make when `chunk` is
/// shared. No `Weak` is ever made of a chunk, so a strong count above
/// one is exactly "shared".
fn count_copy<T: ?Sized>(chunk: &Arc<T>) {
    if Arc::strong_count(chunk) != 1 {
        chunks_copied().inc();
    }
}

/// `Arc::make_mut` on a chunk or bucket, counted.
fn make_mut<T: Clone>(chunk: &mut Arc<T>) -> &mut T {
    count_copy(chunk);
    Arc::make_mut(chunk)
}

// ------------------------------------------------------------ ChunkVec

/// A vector stored as `Arc`-shared chunks of [`CHUNK_LEN`] elements:
/// full chunks are sealed (`Arc<[T; CHUNK_LEN]>`, the elements inline
/// behind the count, so a slot needs no bounds check) and the last,
/// open chunk takes the appends. Element `i` lives
/// at chunk `i / CHUNK_LEN`, slot `i % CHUNK_LEN`: a read is one more
/// index step than a `Vec`, with no lock and no allocation.
#[derive(Clone)]
pub struct ChunkVec<T> {
    /// Full chunks.
    sealed: Vec<Arc<Chunk<T>>>,
    /// The open chunk: fewer than `CHUNK_LEN` elements.
    tail: Arc<Vec<T>>,
}

/// A sealed chunk.
type Chunk<T> = [T; CHUNK_LEN];

/// Moves a full open chunk's elements into a sealed one.
fn seal<T>(full: Vec<T>) -> Chunk<T> {
    match full.try_into() {
        Ok(chunk) => chunk,
        Err(_) => unreachable!("only a chunk of exactly CHUNK_LEN elements is sealed"),
    }
}

impl<T> Default for ChunkVec<T> {
    fn default() -> Self {
        ChunkVec::new()
    }
}

impl<T> ChunkVec<T> {
    /// An empty vector.
    pub fn new() -> Self {
        ChunkVec {
            sealed: Vec::new(),
            tail: Arc::new(Vec::new()),
        }
    }

    fn sealed_len(&self) -> usize {
        self.sealed.len() * CHUNK_LEN
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.sealed_len() + self.tail.len()
    }

    /// Whether there are no elements.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Element `i`.
    pub fn get(&self, i: usize) -> Option<&T> {
        match self.sealed.get(i / CHUNK_LEN) {
            Some(chunk) => Some(&chunk[i % CHUNK_LEN]),
            None => self.tail.get(i - self.sealed_len()),
        }
    }

    /// The last element.
    pub fn last(&self) -> Option<&T> {
        match self.tail.last() {
            Some(v) => Some(v),
            None => self.sealed.last().map(|chunk| &chunk[CHUNK_LEN - 1]),
        }
    }

    /// The positions, ascending, that `base` may hold differently: every
    /// position in a chunk the two vectors do not share, which includes
    /// every position past `base`'s end. A chunk both still share is
    /// skipped with one pointer comparison; an open chunk sealed since
    /// `base` was cloned counts as unshared. A chunk copied for one write
    /// yields all its positions, so callers that want only the changed
    /// ones compare the elements.
    pub fn unshared_with<'a>(&'a self, base: &'a ChunkVec<T>) -> impl Iterator<Item = usize> + 'a {
        let shared = |c: usize| match self.sealed.get(c) {
            Some(chunk) => base.sealed.get(c).is_some_and(|b| Arc::ptr_eq(b, chunk)),
            None => base.sealed.len() == c && Arc::ptr_eq(&self.tail, &base.tail),
        };
        (0..=self.sealed.len())
            .filter(move |&c| !shared(c))
            .flat_map(|c| c * CHUNK_LEN..self.len().min((c + 1) * CHUNK_LEN))
    }

    /// The elements in order, read in place chunk by chunk.
    pub fn iter(&self) -> Iter<'_, T> {
        self.iter_from(0)
    }

    /// The elements from position `start` on (none when `start` is past
    /// the end). Reaches `start` directly, not by skipping.
    pub fn iter_from(&self, start: usize) -> Iter<'_, T> {
        let remaining = self.len().saturating_sub(start);
        let chunk = start / CHUNK_LEN;
        if chunk < self.sealed.len() {
            Iter {
                front: self.sealed[chunk][start % CHUNK_LEN..].iter(),
                chunks: self.sealed[chunk + 1..].iter(),
                back: self.tail.iter(),
                remaining,
            }
        } else {
            let slot = (start - self.sealed_len()).min(self.tail.len());
            Iter {
                front: self.tail[slot..].iter(),
                chunks: [].iter(),
                back: [].iter(),
                remaining,
            }
        }
    }
}

impl<T: Clone> ChunkVec<T> {
    /// Appends an element to the open chunk, copying it first if a
    /// clone still shares it; a chunk that fills is sealed (its
    /// elements move, none is cloned).
    pub fn push(&mut self, value: T) {
        let tail = make_mut(&mut self.tail);
        tail.push(value);
        if tail.len() == CHUNK_LEN {
            let full = std::mem::replace(tail, Vec::with_capacity(CHUNK_LEN));
            self.sealed.push(Arc::new(seal(full)));
        }
    }

    /// Element `i`, mutably: copies its chunk first if a clone still
    /// shares it.
    pub fn get_mut(&mut self, i: usize) -> Option<&mut T> {
        let sealed_len = self.sealed_len();
        match self.sealed.get_mut(i / CHUNK_LEN) {
            Some(chunk) => Some(&mut make_mut(chunk)[i % CHUNK_LEN]),
            None if i - sealed_len < self.tail.len() => {
                make_mut(&mut self.tail).get_mut(i - sealed_len)
            }
            None => None,
        }
    }
}

impl<T> FromIterator<T> for ChunkVec<T> {
    /// Builds the chunks by moving the elements in, `CHUNK_LEN` at a
    /// time — no element is cloned and no chunk is written twice.
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        let mut iter = iter.into_iter();
        let mut sealed = Vec::new();
        loop {
            let chunk: Vec<T> = iter.by_ref().take(CHUNK_LEN).collect();
            if chunk.len() < CHUNK_LEN {
                return ChunkVec {
                    sealed,
                    tail: Arc::new(chunk),
                };
            }
            sealed.push(Arc::new(seal(chunk)));
        }
    }
}

impl<T> From<Vec<T>> for ChunkVec<T> {
    fn from(v: Vec<T>) -> Self {
        v.into_iter().collect()
    }
}

impl<T> Index<usize> for ChunkVec<T> {
    type Output = T;
    fn index(&self, i: usize) -> &T {
        match self.get(i) {
            Some(v) => v,
            None => panic!("index {i} out of range for a ChunkVec of {}", self.len()),
        }
    }
}

impl<'a, T> IntoIterator for &'a ChunkVec<T> {
    type Item = &'a T;
    type IntoIter = Iter<'a, T>;
    fn into_iter(self) -> Iter<'a, T> {
        self.iter()
    }
}

impl<T: PartialEq> PartialEq for ChunkVec<T> {
    fn eq(&self, other: &Self) -> bool {
        // Equal lengths chunk identically, so chunks compare pairwise;
        // a chunk both sides still share needs no element comparison.
        self.sealed.len() == other.sealed.len()
            && self
                .sealed
                .iter()
                .zip(&other.sealed)
                .all(|(a, b)| Arc::ptr_eq(a, b) || a == b)
            && self.tail == other.tail
    }
}

impl<T: Eq> Eq for ChunkVec<T> {}

impl<T: fmt::Debug> fmt::Debug for ChunkVec<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// The iterator of [`ChunkVec::iter`]: walks each chunk in place.
#[derive(Debug, Clone)]
pub struct Iter<'a, T> {
    front: std::slice::Iter<'a, T>,
    chunks: std::slice::Iter<'a, Arc<Chunk<T>>>,
    back: std::slice::Iter<'a, T>,
    remaining: usize,
}

impl<'a, T> Iterator for Iter<'a, T> {
    type Item = &'a T;

    fn next(&mut self) -> Option<&'a T> {
        loop {
            if let Some(v) = self.front.next() {
                self.remaining -= 1;
                return Some(v);
            }
            match self.chunks.next() {
                Some(chunk) => self.front = chunk.iter(),
                None => {
                    let v = self.back.next()?;
                    self.remaining -= 1;
                    return Some(v);
                }
            }
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

impl<T> DoubleEndedIterator for Iter<'_, T> {
    fn next_back(&mut self) -> Option<Self::Item> {
        loop {
            if let Some(v) = self.back.next_back() {
                self.remaining -= 1;
                return Some(v);
            }
            match self.chunks.next_back() {
                Some(chunk) => self.back = chunk.iter(),
                None => {
                    let v = self.front.next_back()?;
                    self.remaining -= 1;
                    return Some(v);
                }
            }
        }
    }
}

impl<T> ExactSizeIterator for Iter<'_, T> {}

// ----------------------------------------------------------- BucketMap

/// FNV-1a: fixed, so a key lands in the same bucket in every process
/// and every clone, and fast on the short keys maps here hold.
struct Fnv(u64);

impl Hasher for Fnv {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
}

fn bucket_of<Q: Hash + ?Sized>(key: &Q) -> usize {
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    key.hash(&mut h);
    let h = h.finish();
    ((h ^ (h >> 32)) as usize) % BUCKETS
}

/// A map split into [`BUCKETS`] `Arc`-shared `BTreeMap`s by a fixed hash
/// of the key. A lookup hashes once and probes one bucket; a write
/// copies only its bucket, and only while a clone shares it.
#[derive(Clone)]
pub struct BucketMap<K, V> {
    /// Empty until the first insert, then exactly [`BUCKETS`] long.
    buckets: Vec<Arc<BTreeMap<K, V>>>,
    len: usize,
}

impl<K, V> Default for BucketMap<K, V> {
    fn default() -> Self {
        BucketMap::new()
    }
}

impl<K, V> BucketMap<K, V> {
    /// An empty map (allocates nothing until the first insert).
    pub const fn new() -> Self {
        BucketMap {
            buckets: Vec::new(),
            len: 0,
        }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the map is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

impl<K: Ord + Hash, V> BucketMap<K, V> {
    fn bucket<Q>(&self, key: &Q) -> Option<&BTreeMap<K, V>>
    where
        K: Borrow<Q>,
        Q: Ord + Hash + ?Sized,
    {
        self.buckets.get(bucket_of(key)).map(|b| &**b)
    }

    /// The value under `key`.
    pub fn get<Q>(&self, key: &Q) -> Option<&V>
    where
        K: Borrow<Q>,
        Q: Ord + Hash + ?Sized,
    {
        self.bucket(key)?.get(key)
    }

    /// Whether `key` is present.
    pub fn contains_key<Q>(&self, key: &Q) -> bool
    where
        K: Borrow<Q>,
        Q: Ord + Hash + ?Sized,
    {
        self.get(key).is_some()
    }

    /// The entries bucket by bucket: key order inside a bucket, the
    /// fixed hash's order across them — the same order in every process
    /// and every clone, but not key order.
    pub fn iter(&self) -> impl Iterator<Item = (&K, &V)> {
        self.buckets.iter().flat_map(|b| b.iter())
    }
}

impl<K: Ord + Hash + Clone, V: Clone> BucketMap<K, V> {
    /// The value under `key`, mutably: copies its bucket first if a
    /// clone still shares it. An absent key copies nothing.
    pub fn get_mut<Q>(&mut self, key: &Q) -> Option<&mut V>
    where
        K: Borrow<Q>,
        Q: Ord + Hash + ?Sized,
    {
        let b = bucket_of(key);
        if !self.buckets.get(b)?.contains_key(key) {
            return None;
        }
        make_mut(&mut self.buckets[b]).get_mut(key)
    }

    /// Inserts `value` under `key`, returning the value it replaced.
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        if self.buckets.is_empty() {
            self.buckets = (0..BUCKETS).map(|_| Arc::new(BTreeMap::new())).collect();
        }
        let b = bucket_of(&key);
        let old = make_mut(&mut self.buckets[b]).insert(key, value);
        if old.is_none() {
            self.len += 1;
        }
        old
    }

    /// Removes `key`, returning its value. An absent key copies nothing.
    pub fn remove<Q>(&mut self, key: &Q) -> Option<V>
    where
        K: Borrow<Q>,
        Q: Ord + Hash + ?Sized,
    {
        let b = bucket_of(key);
        if !self.buckets.get(b)?.contains_key(key) {
            return None;
        }
        let old = make_mut(&mut self.buckets[b]).remove(key);
        self.len -= 1;
        old
    }
}

impl<K: PartialEq, V: PartialEq> PartialEq for BucketMap<K, V> {
    fn eq(&self, other: &Self) -> bool {
        // Equal keys hash to equal buckets, so buckets compare pairwise
        // (a never-written map has no buckets and equals only an empty
        // one).
        if self.len != other.len {
            return false;
        }
        if self.buckets.is_empty() || other.buckets.is_empty() {
            return self.len == 0;
        }
        self.buckets
            .iter()
            .zip(&other.buckets)
            .all(|(a, b)| Arc::ptr_eq(a, b) || a == b)
    }
}

impl<K: Eq, V: Eq> Eq for BucketMap<K, V> {}

impl<K: Ord + Hash + fmt::Debug, V: fmt::Debug> fmt::Debug for BucketMap<K, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunk_vec_reads_writes_and_iterates_across_chunks() {
        let n = 3 * CHUNK_LEN + 5;
        let mut v: ChunkVec<usize> = (0..n).collect();
        assert_eq!(v.len(), n);
        assert_eq!(v[CHUNK_LEN], CHUNK_LEN);
        assert_eq!(v.last(), Some(&(n - 1)));
        assert!(v.iter().copied().eq(0..n));
        assert!(v.iter().rev().copied().eq((0..n).rev()));
        assert!(v.iter_from(CHUNK_LEN + 3).copied().eq(CHUNK_LEN + 3..n));
        assert_eq!(v.iter_from(n).count(), 0);
        assert_eq!(v.iter_from(7).len(), n - 7);
        *v.get_mut(2).unwrap() = 99;
        v.push(n);
        assert_eq!((v[2], v[n], v.len()), (99, n, n + 1));
        assert!(v.get_mut(n + 1).is_none());
    }

    #[test]
    fn a_clone_keeps_its_answers_while_the_original_is_written() {
        let mut v: ChunkVec<String> = (0..200).map(|i| i.to_string()).collect();
        let pinned = v.clone();
        *v.get_mut(130).unwrap() = "changed".into();
        v.push("new".into());
        assert_eq!(pinned[130], "130");
        assert_eq!(pinned.len(), 200);
        assert_eq!(v[130], "changed");
        // Untouched chunks are still shared, not copied.
        assert!(Arc::ptr_eq(&v.sealed[0], &pinned.sealed[0]));
        assert!(!Arc::ptr_eq(&v.sealed[2], &pinned.sealed[2]));
        assert_ne!(v, pinned);
    }

    #[test]
    fn unshared_with_yields_the_chunks_written_since_the_clone() {
        let mut v: ChunkVec<usize> = (0..2 * CHUNK_LEN + 3).collect();
        let base = v.clone();
        assert_eq!(v.unshared_with(&base).count(), 0);
        *v.get_mut(CHUNK_LEN + 1).unwrap() = 0;
        // Fill the open chunk so it seals, then open a new one.
        for i in 0..CHUNK_LEN {
            v.push(i);
        }
        let c = CHUNK_LEN;
        assert!(v.unshared_with(&base).eq(c..v.len()));
        // Against an empty base, every position is unshared.
        assert!(v.unshared_with(&ChunkVec::new()).eq(0..v.len()));
        // A written open chunk is unshared, an untouched one is not.
        let base = v.clone();
        *v.get_mut(v.len() - 1).unwrap() = 7;
        assert!(v.unshared_with(&base).eq(3 * c..v.len()));
    }

    #[test]
    fn bucket_map_behaves_like_a_btree_map() {
        let mut m: BucketMap<String, u32> = BucketMap::new();
        let mut reference = BTreeMap::new();
        for i in 0..500u32 {
            let k = format!("k{}", (i * 7919) % 311);
            assert_eq!(m.insert(k.clone(), i), reference.insert(k, i));
        }
        for i in 0..100u32 {
            let k = format!("k{}", i * 3);
            assert_eq!(m.remove(k.as_str()), reference.remove(&k));
        }
        assert_eq!(m.len(), reference.len());
        let mut entries: Vec<_> = m.iter().collect();
        entries.sort();
        assert!(entries.into_iter().eq(reference.iter()));
        assert_eq!(m.get("k1"), reference.get("k1"));
        *m.get_mut("k1").unwrap() += 1;
        assert_eq!(m.get("k1"), reference.get("k1").map(|v| v + 1).as_ref());
        assert!(m.get_mut("absent").is_none());
    }

    #[test]
    fn bucket_map_clone_is_isolated_from_later_writes() {
        let mut m: BucketMap<String, u32> = BucketMap::new();
        for i in 0..100 {
            m.insert(i.to_string(), i);
        }
        let pinned = m.clone();
        m.insert("5".into(), 500);
        m.remove("6");
        assert_eq!(pinned.get("5"), Some(&5));
        assert_eq!(pinned.get("6"), Some(&6));
        assert_eq!((m.get("5"), m.get("6")), (Some(&500), None));
        assert_eq!(pinned.len(), 100);
        let shared = m
            .buckets
            .iter()
            .zip(&pinned.buckets)
            .filter(|(a, b)| Arc::ptr_eq(a, b))
            .count();
        assert!(shared >= BUCKETS - 2, "only the written buckets diverge");
        // A never-written map (no buckets yet) equals an emptied one.
        let mut emptied = BucketMap::new();
        emptied.insert(1u8, 1u8);
        emptied.remove(&1);
        assert_eq!(BucketMap::new(), emptied);
    }
}
