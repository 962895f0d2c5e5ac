//! Fast non-cryptographic hashing for hash joins, hash aggregation and hash
//! partitioning.
//!
//! [`FxHasher`] is the rustc-style multiply-xor hasher: one wrapping multiply
//! and a rotate per word instead of SipHash's four rounds. Quality is far
//! below cryptographic but ample for hash tables and partition routing, and
//! it is 5–10× cheaper per key — which matters because the routing hash
//! (`ColumnBatch::hash_keys`) sits on the hot path of every hash join
//! build/probe, every grouped aggregation, every hash-distributed exchange
//! and every partitioned write.
//!
//! The module also provides [`HashDir`], the engine's one hash-table
//! design: the join table, the group table and the statistics NDV pass
//! keep their keys as typed columns and find them through it.

#![expect(clippy::disallowed_types, reason = "this module defines the one hash function: FxHasher, its BuildHasher and the Fx map aliases over std's maps")]

use std::hash::{BuildHasherDefault, Hasher};

/// Seed constant from FxHash (`0x51_7c_c1_b7_27_22_0a_95` ≈ 2^64 / φ),
/// an odd multiplier that diffuses low-order key bits across the word.
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;
const ROTATE: u32 = 5;

/// FxHash-style hasher: `state = (rotl(state, 5) ^ word) * SEED` per word.
///
/// Deterministic (no per-process random state), so hashes are stable across
/// sites — a requirement for hash-distribution routing, where the planner on
/// the coordinator and the exchange operators on every site must agree on
/// `hash(key) % partitions`.
#[derive(Debug, Clone, Copy, Default)]
pub struct FxHasher {
    state: u64,
}

impl FxHasher {
    #[inline]
    fn add_word(&mut self, word: u64) {
        self.state = (self.state.rotate_left(ROTATE) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    /// Finalizing xor-multiply-xor mix. The per-word multiply only diffuses
    /// bits upward, so inputs differing solely in high bits (e.g. small
    /// integers hashed through their f64 bit pattern, whose low mantissa
    /// bits are all zero) would otherwise share their entire low hash half —
    /// catastrophic for any table that indexes by low bits.
    #[inline]
    fn finish(&self) -> u64 {
        let mut h = self.state;
        h ^= h >> 32;
        h = h.wrapping_mul(0xd6e8_feb8_6659_fd93);
        h ^= h >> 32;
        h
    }

    #[inline]
    fn write(&mut self, mut bytes: &[u8]) {
        while let Some((chunk, rest)) = bytes.split_first_chunk::<8>() {
            self.add_word(u64::from_le_bytes(*chunk));
            bytes = rest;
        }
        if !bytes.is_empty() {
            let mut tail = [0u8; 8];
            tail[..bytes.len()].copy_from_slice(bytes);
            // Fold the tail length in so "ab" + "c" != "a" + "bc".
            tail[7] = bytes.len() as u8;
            self.add_word(u64::from_le_bytes(tail));
        }
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.add_word(v as u64);
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.add_word(v as u64);
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.add_word(v);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.add_word(v as u64);
    }

    #[inline]
    fn write_i32(&mut self, v: i32) {
        self.add_word(v as u64);
    }

    #[inline]
    fn write_i64(&mut self, v: i64) {
        self.add_word(v as u64);
    }
}

/// `BuildHasher` for [`FxHasher`]; plug into `HashMap`/`HashSet` as
/// `HashMap<K, V, FxBuildHasher>`.
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// `std::collections::HashMap` with the fast deterministic hasher.
pub type FxHashMap<K, V> = std::collections::HashMap<K, V, FxBuildHasher>;

/// `std::collections::HashSet` with the fast deterministic hasher.
pub type FxHashSet<T> = std::collections::HashSet<T, FxBuildHasher>;

/// Sentinel entry index: an empty bucket, or the end of a chain.
const END: u32 = u32::MAX;

/// Hash directory over entries `0..len` known by their 64-bit hashes: a
/// power-of-two `u32` bucket directory indexed by the hash's *top* bits
/// (rows reaching one site share their low bits: routing takes `hash % n`)
/// and one `next` link per entry. The caller keeps the keys, as typed
/// columns indexed by entry, and compares them to resolve collisions.
#[derive(Debug, Clone)]
pub struct HashDir {
    /// Per-entry 64-bit hash.
    hashes: Vec<u64>,
    /// Bucket → first entry of its chain ([`END`]: empty bucket).
    dir: Vec<u32>,
    /// `64 - log2(dir.len())`: a hash's bucket is `hash >> shift`.
    shift: u32,
    /// Per-entry link to the next entry of the same bucket.
    next: Vec<u32>,
}

impl Default for HashDir {
    /// An empty directory, grown by [`HashDir::find_or_insert`].
    fn default() -> HashDir {
        HashDir::build(Vec::new(), |_| true)
    }
}

impl HashDir {
    /// A directory over entries with the given `hashes`, sized so nothing
    /// rehashes, linking those for which `linked(entry)` holds (the others
    /// are never found and must not meet an insert, whose doubling links
    /// all). Entries link last to first, so every chain is in insertion
    /// order.
    pub fn build(hashes: Vec<u64>, linked: impl FnMut(usize) -> bool) -> HashDir {
        let slots = (2 * hashes.len()).next_power_of_two().max(16);
        let mut t = HashDir { hashes, dir: Vec::new(), shift: 0, next: Vec::new() };
        t.relink(slots, linked);
        t
    }

    /// Point a fresh directory of `slots` buckets at the `linked` entries.
    fn relink(&mut self, slots: usize, mut linked: impl FnMut(usize) -> bool) {
        self.shift = 64 - slots.trailing_zeros();
        self.dir.clear();
        self.dir.resize(slots, END);
        self.next.clear();
        self.next.resize(self.hashes.len(), END);
        for e in (0..self.hashes.len()).rev() {
            if linked(e) {
                self.link(e);
            }
        }
    }

    #[inline]
    fn link(&mut self, e: usize) {
        let b = (self.hashes[e] >> self.shift) as usize;
        self.next[e] = self.dir[b];
        self.dir[b] = e as u32;
    }

    /// Whether the directory holds no entries.
    pub fn is_empty(&self) -> bool {
        self.hashes.is_empty()
    }

    /// The linked entries whose stored hash is `hash`, in chain order.
    #[inline]
    pub fn matches(&self, hash: u64) -> impl Iterator<Item = u32> + '_ {
        let mut cur = self.dir[(hash >> self.shift) as usize];
        std::iter::from_fn(move || {
            while cur != END {
                let e = cur;
                cur = self.next[e as usize];
                if self.hashes[e as usize] == hash {
                    return Some(e);
                }
            }
            None
        })
    }

    /// The entry with `hash` for which `eq(entry)` holds, or a new entry
    /// appended with that hash, doubling the directory past half full.
    /// Returns `(entry, inserted)`.
    #[inline]
    pub fn find_or_insert(&mut self, hash: u64, mut eq: impl FnMut(u32) -> bool) -> (u32, bool) {
        if let Some(e) = self.matches(hash).find(|&e| eq(e)) {
            return (e, false);
        }
        let e = self.hashes.len();
        self.hashes.push(hash);
        self.next.push(END);
        if 2 * self.hashes.len() > self.dir.len() {
            self.relink(2 * self.dir.len(), |_| true);
        } else {
            self.link(e);
        }
        (e as u32, true)
    }

    /// Keep just `entries` (increasing), renumbered from 0 in that order,
    /// in place: the directory keeps its size and every buffer its
    /// capacity, so a table trimmed after every batch does not regrow.
    pub fn keep(&mut self, entries: &[u32]) {
        for (j, &e) in entries.iter().enumerate() {
            self.hashes[j] = self.hashes[e as usize];
        }
        self.hashes.truncate(entries.len());
        self.relink(self.dir.len(), |_| true);
    }

    /// `(non-empty buckets, buckets)`: how well the entries spread.
    pub fn bucket_use(&self) -> (usize, usize) {
        (self.dir.iter().filter(|&&head| head != END).count(), self.dir.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::Hash;

    fn fxhash<T: Hash>(v: &T) -> u64 {
        let mut h = FxHasher::default();
        v.hash(&mut h);
        h.finish()
    }

    #[test]
    fn deterministic_across_hashers() {
        assert_eq!(fxhash(&42u64), fxhash(&42u64));
        assert_ne!(fxhash(&42u64), fxhash(&43u64));
    }

    #[test]
    fn sequential_ints_spread_over_low_bits() {
        // 1024 uniformly random keys into 1024 slots occupy ~1-1/e ≈ 64% of
        // them; clustering failure modes land far below that.
        let mask = 1023usize;
        let mut seen = std::collections::HashSet::new();
        for i in 0i64..1024 {
            seen.insert(fxhash(&i) as usize & mask);
        }
        assert!(seen.len() > 550, "only {} distinct slots", seen.len());
    }

    #[test]
    fn f64_bit_ints_spread_over_low_bits() {
        // Small integers hash through their f64 bit pattern (`Datum`'s
        // numeric canonicalization), which varies only in high bits; the
        // finish mix must still spread them across table slots.
        let mask = 2047usize;
        let mut seen = std::collections::HashSet::new();
        for i in 0i64..1024 {
            let mut h = FxHasher::default();
            h.write_u8(2);
            h.write_u64((i as f64).to_bits());
            seen.insert(h.finish() as usize & mask);
        }
        assert!(seen.len() > 700, "only {} distinct slots", seen.len());
    }

    #[test]
    fn str_tail_disambiguates() {
        assert_ne!(fxhash(&"abcdefgh1"), fxhash(&"abcdefgh2"));
        assert_ne!(fxhash(&"a"), fxhash(&"ab"));
    }

    #[test]
    fn hash_dir_insert_find_grow() {
        let keys: Vec<i64> = (0..10_000).map(|i| i * 3 + 1).collect();
        let mut dir = HashDir::default();
        let mut stored: Vec<i64> = Vec::new();
        let mut find_or_insert = |dir: &mut HashDir, k: i64| {
            let (e, inserted) = dir.find_or_insert(fxhash(&k), |e| stored[e as usize] == k);
            if inserted {
                assert_eq!(e as usize, stored.len());
                stored.push(k);
            }
            (e, inserted)
        };
        for &k in &keys {
            assert!(find_or_insert(&mut dir, k).1);
        }
        assert_eq!(dir.bucket_use().1, 32_768);
        // Every key survives the doublings at its first entry.
        for (i, &k) in keys.iter().enumerate() {
            assert_eq!(find_or_insert(&mut dir, k), (i as u32, false));
        }
        assert_eq!(find_or_insert(&mut dir, -7), (keys.len() as u32, true));
    }

    #[test]
    fn hash_dir_duplicate_inserts_return_existing() {
        let mut dir = HashDir::default();
        let stored = [5i64];
        for _ in 0..3 {
            let (e, _) = dir.find_or_insert(99, |e| stored[e as usize] == 5i64);
            assert_eq!(e, 0);
        }
        assert_eq!(dir.find_or_insert(100, |_| false), (1, true));
    }

    #[test]
    fn kept_entries_are_renumbered_in_order() {
        let mut dir = HashDir::default();
        let stored = [1i64, 2, 3, 4, 5];
        for k in stored {
            dir.find_or_insert(fxhash(&k), |_| false);
        }
        let buckets = dir.bucket_use().1;
        dir.keep(&[1, 3, 4]);
        assert_eq!(dir.bucket_use().1, buckets);
        for (e, k) in [2i64, 4, 5].iter().enumerate() {
            assert_eq!(dir.matches(fxhash(k)).collect::<Vec<_>>(), vec![e as u32]);
        }
        assert_eq!(dir.matches(fxhash(&1i64)).count(), 0);
        let (e, inserted) = dir.find_or_insert(fxhash(&9i64), |_| false);
        assert_eq!((e, inserted), (3, true));
    }

    #[test]
    fn hash_dir_build_chains_in_insertion_order() {
        // Equal hashes share a chain; unlinked entries are never found.
        let dir = HashDir::build(vec![7, 9, 7, 7, 9], |e| e != 3);
        assert_eq!(dir.matches(7).collect::<Vec<_>>(), vec![0, 2]);
        assert_eq!(dir.matches(9).collect::<Vec<_>>(), vec![1, 4]);
        assert_eq!(dir.matches(8).count(), 0);
        assert_eq!(dir.bucket_use().1, 16);
    }
}
