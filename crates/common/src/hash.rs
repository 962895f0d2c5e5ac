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
//! The module also provides [`FlatMap`], an open-addressing table keyed by
//! precomputed 64-bit hashes with `u32` payloads. Execution kernels use it
//! to map key hashes to group indices without materializing owned
//! `Vec<Datum>` keys per row (see `ic-exec`'s kernels).

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
        while bytes.len() >= 8 {
            let (chunk, rest) = bytes.split_at(8);
            self.add_word(u64::from_le_bytes(chunk.try_into().unwrap()));
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

/// Fold a 64-bit hash into a table index for a power-of-two capacity.
///
/// Plain truncation: [`FxHasher::finish`] already folds the high half down
/// with its xor-multiply-xor mix. (Do NOT "strengthen" this with another
/// `h ^ h >> 32` — xor-shift is an involution, so it would exactly cancel
/// the final shift in `finish` and resurface the unmixed multiply output,
/// whose low bits are constant across keys that differ only in high input
/// bits.)
#[inline]
pub fn fold_hash(hash: u64, mask: usize) -> usize {
    (hash as usize) & mask
}

/// Open-addressing hash table from precomputed 64-bit hashes to `u32`
/// payloads (row/group indices). Linear probing, power-of-two capacity,
/// grows at 7/8 load. The caller resolves hash collisions by comparing the
/// actual keys behind the payload (`insert_with` takes an equality closure),
/// so the table itself never stores or clones key datums.
#[derive(Debug, Clone)]
pub struct FlatMap {
    /// `(hash, payload)` pairs in one array so a probe step touches one
    /// cache line, not two. Slot empty ⇔ payload is [`FlatMap::EMPTY`].
    entries: Vec<(u64, u32)>,
    len: usize,
    mask: usize,
}

impl FlatMap {
    /// Sentinel payload marking an empty slot (so no separate tag array).
    pub const EMPTY: u32 = u32::MAX;

    /// A table sized to hold `cap` entries without growing.
    pub fn with_capacity(cap: usize) -> FlatMap {
        let slots = (cap.max(8) * 8 / 7).next_power_of_two();
        FlatMap { entries: vec![(0, Self::EMPTY); slots], len: 0, mask: slots - 1 }
    }

    /// Number of stored entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the table holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Find `hash`'s payload or insert the one produced by `make()`.
    /// Returns `(payload, inserted)`.
    #[inline]
    pub fn get_or_insert(
        &mut self,
        hash: u64,
        mut eq: impl FnMut(u32) -> bool,
        make: impl FnOnce() -> u32,
    ) -> (u32, bool) {
        if self.len * 8 >= (self.mask + 1) * 7 {
            self.grow();
        }
        let mut slot = fold_hash(hash, self.mask);
        loop {
            let (h, payload) = self.entries[slot];
            if payload == Self::EMPTY {
                let new_payload = make();
                debug_assert_ne!(new_payload, Self::EMPTY);
                self.entries[slot] = (hash, new_payload);
                self.len += 1;
                return (new_payload, true);
            }
            if h == hash && eq(payload) {
                return (payload, false);
            }
            slot = (slot + 1) & self.mask;
        }
    }

    // ic-lint: allow(L012) because rehash allocation is amortized doubling: it runs once per capacity doubling, not per insert
    fn grow(&mut self) {
        let new_slots = (self.mask + 1) * 2;
        let old =
            std::mem::replace(&mut self.entries, vec![(0, Self::EMPTY); new_slots]);
        self.mask = new_slots - 1;
        for (hash, payload) in old {
            if payload == Self::EMPTY {
                continue;
            }
            let mut slot = fold_hash(hash, self.mask);
            while self.entries[slot].1 != Self::EMPTY {
                slot = (slot + 1) & self.mask;
            }
            self.entries[slot] = (hash, payload);
        }
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
            seen.insert(fold_hash(fxhash(&i), mask));
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
            seen.insert(fold_hash(h.finish(), mask));
        }
        assert!(seen.len() > 700, "only {} distinct slots", seen.len());
    }

    #[test]
    fn str_tail_disambiguates() {
        assert_ne!(fxhash(&"abcdefgh1"), fxhash(&"abcdefgh2"));
        assert_ne!(fxhash(&"a"), fxhash(&"ab"));
    }

    #[test]
    fn flatmap_insert_get_grow() {
        let keys: Vec<i64> = (0..10_000).map(|i| i * 3 + 1).collect();
        let mut map = FlatMap::with_capacity(4);
        let mut stored: Vec<i64> = Vec::new();
        let mut find_or_insert = |map: &mut FlatMap, k: i64| {
            let (payload, inserted) =
                map.get_or_insert(fxhash(&k), |p| stored[p as usize] == k, || stored.len() as u32);
            if inserted {
                assert_eq!(payload as usize, stored.len());
                stored.push(k);
            }
            (payload, inserted)
        };
        for &k in &keys {
            assert!(find_or_insert(&mut map, k).1);
        }
        assert_eq!(map.len(), keys.len());
        // Every key survives the growth rehashes at its first payload.
        for (i, &k) in keys.iter().enumerate() {
            assert_eq!(find_or_insert(&mut map, k), (i as u32, false));
        }
        assert_eq!(find_or_insert(&mut map, -7), (keys.len() as u32, true));
    }

    #[test]
    fn flatmap_duplicate_inserts_return_existing() {
        let mut map = FlatMap::with_capacity(8);
        let stored = [5i64];
        for _ in 0..3 {
            let (payload, _) = map.get_or_insert(99, |p| stored[p as usize] == 5i64, || 0);
            assert_eq!(payload, 0);
        }
        assert_eq!(map.len(), 1);
    }
}
