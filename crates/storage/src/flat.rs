//! Flat open-addressing `key → u32` table for group-slot resolution
//! (`qs_engine`'s `GroupTable`, `i64` or packed-`u128` group key → dense
//! group slot), which probes it once per surviving tuple per batch and
//! inserts as it meets new groups. (The CJOIN dimension joins probe a
//! read-only table of their own, `qs_cjoin::KeyIndex`: their keys never
//! change after load, so a cheaper multiply-shift hash at a lower load
//! factor suffices there.)
//!
//! `std::collections::HashMap` pays SipHash plus a bucket indirection per
//! probe; this table stores `(key, value)` pairs inline in one
//! power-of-two array with linear probing, so the batched probe loop is a
//! multiply-shift hash and a cache-linear scan. Semantics match
//! `HashMap<K, u32>` for the operations the hot paths use (`insert`
//! last-wins, `get`, `get_or_insert_with` first-wins), which the property
//! tests in `crates/cjoin/tests/properties.rs` pin against the `HashMap`
//! oracle.
//!
//! The key type is anything implementing [`FlatKey`]: `i64` (single-`Int`
//! group columns) and `u128` (multi-column group keys packed into one
//! word) are provided.

/// Sentinel marking an empty slot. Values must be below it — dimension
/// entry indices and group slots are, by construction (a table with
/// `u32::MAX` rows would not fit in memory).
const EMPTY: u32 = u32::MAX;

/// A key storable inline in a [`FlatMap`]: cheap to copy, cheap to
/// compare, and hashable to a full-avalanche `u64` in a handful of
/// arithmetic ops.
pub trait FlatKey: Copy + PartialEq + Default {
    /// Full-avalanche mix of the key into a table index (and the hash the
    /// radix pre-partition of group resolution buckets by).
    fn mix(self) -> u64;
}

/// SplitMix64 finalizer.
#[inline]
pub fn mix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl FlatKey for i64 {
    #[inline]
    fn mix(self) -> u64 {
        mix64(self as u64)
    }
}

impl FlatKey for u128 {
    #[inline]
    fn mix(self) -> u64 {
        // Mix the halves independently, then cross them: two dependent
        // SplitMix rounds give full avalanche over all 128 input bits.
        mix64(self as u64 ^ mix64((self >> 64) as u64))
    }
}

/// Open-addressing `K → u32` map with linear probing.
#[derive(Debug, Clone)]
pub struct FlatMap<K: FlatKey = i64> {
    /// Keys, parallel to `vals`; meaningful only where `vals != EMPTY`.
    keys: Vec<K>,
    /// Values; `EMPTY` marks a free slot.
    vals: Vec<u32>,
    /// `capacity - 1` (capacity is a power of two).
    mask: usize,
    len: usize,
}

impl<K: FlatKey> FlatMap<K> {
    /// An empty map sized for `n` insertions without growing (load factor
    /// kept under ~0.7).
    pub fn with_capacity(n: usize) -> FlatMap<K> {
        let cap = (n.max(4) * 10 / 7 + 1).next_power_of_two();
        FlatMap {
            keys: vec![K::default(); cap],
            vals: vec![EMPTY; cap],
            mask: cap - 1,
            len: 0,
        }
    }

    /// Number of occupied slots.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the map holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Drop every entry but keep the allocation — one `memset` of the
    /// value array. Lets per-bucket scratch tables be reused across
    /// batches without reallocating.
    pub fn clear(&mut self) {
        self.vals.fill(EMPTY);
        self.len = 0;
    }

    /// Insert `key → value`, overwriting an existing entry (last wins,
    /// like `HashMap::insert`). `value` must not be `u32::MAX` (reserved
    /// as the empty-slot sentinel).
    pub fn insert(&mut self, key: K, value: u32) {
        assert_ne!(value, EMPTY, "u32::MAX is the empty-slot sentinel");
        if (self.len + 1) * 10 > (self.mask + 1) * 7 {
            self.grow();
        }
        let mut i = key.mix() as usize & self.mask;
        loop {
            if self.vals[i] == EMPTY {
                self.keys[i] = key;
                self.vals[i] = value;
                self.len += 1;
                return;
            }
            if self.keys[i] == key {
                self.vals[i] = value;
                return;
            }
            i = (i + 1) & self.mask;
        }
    }

    /// Look up `key`.
    #[inline]
    pub fn get(&self, key: K) -> Option<u32> {
        let mut i = key.mix() as usize & self.mask;
        loop {
            let v = self.vals[i];
            if v == EMPTY {
                return None;
            }
            if self.keys[i] == key {
                return Some(v);
            }
            i = (i + 1) & self.mask;
        }
    }

    /// Look up `key`, inserting `new()` on a miss (first wins, like
    /// `HashMap::entry(..).or_insert_with`), in one probe sequence —
    /// the group-slot resolution primitive. `new()` must not return
    /// `u32::MAX`.
    #[inline]
    pub fn get_or_insert_with(&mut self, key: K, new: impl FnOnce() -> u32) -> u32 {
        // Grow *before* probing so the written slot stays valid.
        if (self.len + 1) * 10 > (self.mask + 1) * 7 {
            self.grow();
        }
        let mut i = key.mix() as usize & self.mask;
        loop {
            let v = self.vals[i];
            if v == EMPTY {
                let value = new();
                debug_assert_ne!(value, EMPTY, "u32::MAX is the empty-slot sentinel");
                self.keys[i] = key;
                self.vals[i] = value;
                self.len += 1;
                return value;
            }
            if self.keys[i] == key {
                return v;
            }
            i = (i + 1) & self.mask;
        }
    }

    fn grow(&mut self) {
        let old_keys =
            std::mem::replace(&mut self.keys, vec![K::default(); (self.mask + 1) * 2]);
        let old_vals =
            std::mem::replace(&mut self.vals, vec![EMPTY; (self.mask + 1) * 2]);
        self.mask = self.keys.len() - 1;
        self.len = 0;
        for (k, v) in old_keys.into_iter().zip(old_vals) {
            if v != EMPTY {
                self.insert(k, v);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_overwrite() {
        let mut m = FlatMap::<i64>::with_capacity(2);
        assert!(m.is_empty());
        m.insert(7, 1);
        m.insert(-3, 2);
        m.insert(i64::MIN, 3);
        assert_eq!(m.len(), 3);
        assert_eq!(m.get(7), Some(1));
        assert_eq!(m.get(-3), Some(2));
        assert_eq!(m.get(i64::MIN), Some(3));
        assert_eq!(m.get(8), None);
        m.insert(7, 9); // last wins
        assert_eq!(m.get(7), Some(9));
        assert_eq!(m.len(), 3);
    }

    #[test]
    fn grows_past_initial_capacity() {
        let mut m = FlatMap::<i64>::with_capacity(1);
        for k in 0..10_000i64 {
            m.insert(k * 31, (k % 1000) as u32);
        }
        assert_eq!(m.len(), 10_000);
        for k in 0..10_000i64 {
            assert_eq!(m.get(k * 31), Some((k % 1000) as u32));
        }
        assert_eq!(m.get(-1), None);
    }

    #[test]
    fn colliding_keys_probe_linearly() {
        // Keys engineered to collide in a tiny table still resolve.
        let mut m = FlatMap::<i64>::with_capacity(4);
        let keys: Vec<i64> = (0..6).map(|i| i * 1_000_003).collect();
        for (i, &k) in keys.iter().enumerate() {
            m.insert(k, i as u32);
        }
        for (i, &k) in keys.iter().enumerate() {
            assert_eq!(m.get(k), Some(i as u32), "key {k}");
        }
    }

    #[test]
    fn get_or_insert_with_first_wins() {
        let mut m = FlatMap::<i64>::with_capacity(2);
        assert_eq!(m.get_or_insert_with(42, || 0), 0);
        assert_eq!(m.get_or_insert_with(42, || 99), 0); // existing wins
        assert_eq!(m.len(), 1);
        // Dense first-touch slot assignment across growth.
        for k in 0..5_000i64 {
            let next = m.len() as u32;
            let got = m.get_or_insert_with(k * 7 - 3, || next);
            if k * 7 - 3 == 42 {
                assert_eq!(got, 0);
            }
        }
        for k in 0..5_000i64 {
            assert!(m.get(k * 7 - 3).is_some());
        }
    }

    #[test]
    fn clear_empties_but_keeps_working() {
        let mut m = FlatMap::<i64>::with_capacity(8);
        for k in 0..100 {
            m.insert(k, k as u32);
        }
        m.clear();
        assert!(m.is_empty());
        assert_eq!(m.get(5), None);
        m.insert(5, 99);
        assert_eq!(m.get(5), Some(99));
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn u128_keys_resolve() {
        let mut m = FlatMap::<u128>::with_capacity(8);
        m.insert(0, 1);
        m.insert(u128::MAX, 2);
        m.insert(1u128 << 64, 3);
        m.insert(1u128, 4);
        assert_eq!(m.get(0), Some(1));
        assert_eq!(m.get(u128::MAX), Some(2));
        assert_eq!(m.get(1u128 << 64), Some(3));
        assert_eq!(m.get(1u128), Some(4));
        assert_eq!(m.get(2u128), None);
        // High-half-only differences must not collide into wrong hits.
        for i in 0..2_000u128 {
            m.insert(i << 64, (i + 10) as u32);
        }
        for i in 0..2_000u128 {
            assert_eq!(m.get(i << 64), Some((i + 10) as u32));
        }
    }
}
