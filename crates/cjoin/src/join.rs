//! The dimension side of one shared hash-join: a read-only key index over
//! the dimension's entries, the entries' query bits and the stage's
//! bypass mask.
//!
//! The join step of the CJOIN pipeline is, per fact tuple,
//! `tuple_bits &= entry_bits | bypass` (the entry matched by the tuple's
//! foreign key; `bypass` alone on a miss), and a tuple whose bits reach
//! zero is dropped. [`DimJoin::probe`] runs it over a whole
//! [`FactBatch`] in one pass: probe, AND, test and compact, with the
//! bypass words loaded once per batch and the entries' words contiguous
//! (entry-major), so a tuple costs one index probe plus
//! `⌈max_queries/64⌉` word loads.
//!
//! # Why plain loads suffice
//!
//! Entry bits and bypass bits are written by admission on the client
//! thread while the join stages run. An admitted batch's bits are all
//! written before its one `Admit` control message is sent to the
//! preprocessor, and a tuple can carry a member's bit only if the
//! preprocessor evaluated it *after* receiving that message; the batch
//! then reaches each join stage through further channel hand-offs.
//! Channel send/receive orders those writes before the stage's loads, so
//! a stage that loads the bypass words once when it starts a batch, and
//! the entry words with `Relaxed` loads, sees every bit of every query the
//! batch carries. Bits of queries the batch does not carry may be stale or
//! mid-update, but they are ANDed into zero tuple bits and cannot change
//! the result. A slot is rewritten only after its previous occupant's
//! terminal message has passed every stage, i.e. after every batch
//! carrying the old bit.
//!
//! Admission writes an entry word with one plain store
//! ([`DimJoin::write_entries`]), which also rewrites the bits of the
//! co-resident queries sharing that word. That is safe because every
//! writer of entry bits holds the pipeline's predicate-cache lock, so no
//! other write can land between the load and the store, and the stored
//! word keeps every other slot's bits as loaded: a concurrent probe sees
//! the old word or the new one, which differ only in the admitted slots.

use crate::bitmap::AtomicBitmap;
use qs_storage::{mask_words, FactBatch};
use std::sync::atomic::{AtomicU64, Ordering};

/// Marks a free slot of a [`KeyIndex`].
const EMPTY: u32 = u32::MAX;

/// 2^64 / φ: the Fibonacci multiplier. Odd, so the product is a
/// bijection on `u64` and the top bits mix every key bit.
const FIB: u64 = 0x9E37_79B9_7F4A_7C15;

/// Read-only `i64 → entry index` table over a dimension's join keys:
/// open addressing with linear probing at load ≤ ½, indexed by the top
/// bits of a multiply-shift (Fibonacci) hash. Built once when the
/// pipeline loads the dimension; never mutated afterwards.
///
/// A duplicate key maps to its last occurrence (the dimension entry a
/// last-wins map insert would keep).
#[derive(Debug, Clone)]
pub struct KeyIndex {
    /// `(key, entry)` pairs inline in one power-of-two array; `entry ==
    /// EMPTY` marks a free slot.
    slots: Box<[(i64, u32)]>,
    /// `64 - log2(slots.len())`.
    shift: u32,
}

impl KeyIndex {
    /// Index `keys`: key `keys[i]` maps to entry `i`. Panics when there
    /// are `u32::MAX` or more keys (the empty-slot sentinel).
    pub fn new(keys: &[i64]) -> KeyIndex {
        assert!(keys.len() < EMPTY as usize, "too many dimension entries");
        let cap = (2 * keys.len()).next_power_of_two().max(2);
        let mut index = KeyIndex {
            slots: vec![(0, EMPTY); cap].into_boxed_slice(),
            shift: 64 - cap.trailing_zeros(),
        };
        let mask = cap - 1;
        for (entry, &key) in keys.iter().enumerate() {
            let mut i = index.home(key);
            while index.slots[i].1 != EMPTY && index.slots[i].0 != key {
                i = (i + 1) & mask;
            }
            index.slots[i] = (key, entry as u32);
        }
        index
    }

    #[inline]
    fn home(&self, key: i64) -> usize {
        ((key as u64).wrapping_mul(FIB) >> self.shift) as usize
    }

    /// The entry indexed under `key`.
    #[inline]
    pub fn get(&self, key: i64) -> Option<u32> {
        let mask = self.slots.len() - 1;
        let mut i = self.home(key);
        loop {
            let (k, entry) = self.slots[i];
            if entry == EMPTY {
                return None;
            }
            if k == key {
                return Some(entry);
            }
            i = (i + 1) & mask;
        }
    }
}

/// One dimension of the CJOIN pipeline as its shared hash-join sees it:
/// the key index, every entry's query bits (bit `q` = the entry satisfies
/// query `q`'s predicate on this dimension) and the bypass mask (bit `q`
/// = query `q` does not join this dimension).
#[derive(Debug)]
pub struct DimJoin {
    index: KeyIndex,
    /// Words of query bits per entry: `⌈max_queries/64⌉`.
    words: usize,
    /// Entry-major query bits: entry `e` owns words `[e·w, (e+1)·w)`.
    entry_bits: Vec<AtomicU64>,
    bypass: AtomicBitmap,
}

impl DimJoin {
    /// A join over entries with join keys `keys` (entry `i` has key
    /// `keys[i]`) for up to `max_queries` query slots, every bit clear.
    pub fn new(keys: &[i64], max_queries: usize) -> DimJoin {
        let words = mask_words(max_queries).max(1);
        DimJoin {
            index: KeyIndex::new(keys),
            words,
            entry_bits: (0..keys.len() * words).map(|_| AtomicU64::new(0)).collect(),
            bypass: AtomicBitmap::zeros(words * 64),
        }
    }

    /// Number of dimension entries.
    pub fn entries(&self) -> usize {
        self.entry_bits.len() / self.words
    }

    /// Query-bit words per entry (and per fact tuple).
    pub fn words(&self) -> usize {
        self.words
    }

    /// Admission's write of entry bits: in every entry's words, the bits
    /// under `mask` (the admitted slots, [`Self::words`] words) become
    /// those of `values` (entry-major, [`Self::words`] words per entry),
    /// and every other slot's bits stay as they are. One store per
    /// (entry, word) that `mask` touches; a reused slot never sees its
    /// predecessor's bits.
    ///
    /// A partly masked word is loaded and stored as two steps, so writers
    /// must be serialized (see the module's "Why plain loads suffice").
    pub fn write_entries(&self, mask: &[u64], values: &[u64]) {
        let w = self.words;
        assert_eq!(mask.len(), w, "one mask word per query-bit word");
        assert_eq!(values.len(), self.entry_bits.len(), "words for every entry");
        for (entry, vals) in self.entry_bits.chunks_exact(w).zip(values.chunks_exact(w)) {
            for ((word, &m), &v) in entry.iter().zip(mask).zip(vals) {
                match m {
                    0 => {}
                    u64::MAX => word.store(v, Ordering::Relaxed),
                    m => word.store(word.load(Ordering::Relaxed) & !m | v & m, Ordering::Relaxed),
                }
            }
        }
    }

    /// Query `slot`'s bit of `entry`.
    #[inline]
    pub fn entry_bit(&self, entry: usize, slot: u32) -> bool {
        let word = self.entry_bits[entry * self.words + slot as usize / 64].load(Ordering::Relaxed);
        word & (1u64 << (slot % 64)) != 0
    }

    /// Write query `slot`'s bypass bit.
    pub fn write_bypass(&self, slot: u32, value: bool) {
        self.bypass.write(slot as usize, value);
    }

    /// The join step over one batch whose key column is `keys` (tuple
    /// `t`'s foreign key is `keys[t]`): every tuple's bits become
    /// `bits & (entry_bits | bypass)` — `bits & bypass` when the key
    /// matches no entry — and tuples left with no bit are dropped, in
    /// the same pass compacting the batch and each column of `prior_hits`
    /// (per-tuple values of earlier stages). Returns the matched entry of
    /// each surviving tuple (`u32::MAX` = no match, survived via bypass).
    /// `bypass` is caller-owned scratch for the mask's words.
    pub fn probe(
        &self,
        keys: &[i64],
        fact: &mut FactBatch,
        prior_hits: &mut [Vec<u32>],
        bypass: &mut Vec<u64>,
    ) -> Vec<u32> {
        let w = self.words;
        debug_assert_eq!(keys.len(), fact.len());
        debug_assert_eq!(fact.bits().words(), w);
        self.bypass.load_into(bypass);
        let bypass = &bypass[..w];
        let mut hits = Vec::with_capacity(keys.len());
        let mut kept = 0usize;
        fact.retain_with(|t, bits| {
            let entry = self.index.get(keys[t]);
            let mut any = 0u64;
            match entry {
                Some(e) => {
                    let ebits = &self.entry_bits[e as usize * w..(e as usize + 1) * w];
                    for ((b, eb), m) in bits.iter_mut().zip(ebits).zip(bypass) {
                        *b &= eb.load(Ordering::Relaxed) | m;
                        any |= *b;
                    }
                }
                None => {
                    for (b, m) in bits.iter_mut().zip(bypass) {
                        *b &= m;
                        any |= *b;
                    }
                }
            }
            if any == 0 {
                return false;
            }
            for col in prior_hits.iter_mut() {
                col[kept] = col[t];
            }
            hits.push(entry.unwrap_or(u32::MAX));
            kept += 1;
            true
        });
        for col in prior_hits.iter_mut() {
            col.truncate(kept);
        }
        hits
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qs_storage::{BitColumn, DataType, Page, Schema, Value};
    use std::sync::Arc;

    #[test]
    fn key_index_last_occurrence_wins_and_misses_are_none() {
        let idx = KeyIndex::new(&[7, -3, 7, i64::MIN, i64::MAX]);
        assert_eq!(idx.get(7), Some(2));
        assert_eq!(idx.get(-3), Some(1));
        assert_eq!(idx.get(i64::MIN), Some(3));
        assert_eq!(idx.get(i64::MAX), Some(4));
        assert_eq!(idx.get(0), None);
        assert_eq!(KeyIndex::new(&[]).get(0), None);
    }

    #[test]
    fn probe_ands_compacts_and_reports_hits() {
        // Entries with keys 10, 20; three queries over 130 slots (three
        // words): q0 and q129 join the dim, q64 bypasses it.
        let join = DimJoin::new(&[10, 20], 130);
        assert_eq!(join.words(), 3);
        join.write_entries(&[1, 0, 0], &[1, 0, 0, 0, 0, 0]);
        // A second admission (slots 1 and 129) shares q0's word: its
        // store keeps q0's bit.
        join.write_entries(&[1 << 1, 0, 1 << 1], &[0, 0, 0, 0, 0, 1 << 1]);
        join.write_bypass(64, true);
        let schema = Schema::from_pairs(&[("fk", DataType::Int)]);
        let rows: Vec<Vec<Value>> = [10, 20, 99, 10].iter().map(|&k| vec![Value::Int(k)]).collect();
        let page = Arc::new(Page::from_values(&schema, &rows).unwrap());
        let mut bits = BitColumn::zeros(3, 4);
        for t in 0..3 {
            for q in [0, 64, 129] {
                bits.set(t, q);
            }
        }
        bits.set(3, 129); // key 10 matches no query-129 bit: dropped
        let mut fact = FactBatch::with_bits(page, vec![0, 1, 2, 3], bits);
        let mut prior = vec![vec![5u32, 6, 7, 8]];
        let mut scratch = Vec::new();
        let hits = join.probe(&[10, 20, 99, 10], &mut fact, &mut prior, &mut scratch);
        assert_eq!(fact.sel(), &[0, 1, 2]);
        assert_eq!(hits, vec![0, 1, u32::MAX]);
        assert_eq!(prior, vec![vec![5, 6, 7]]);
        let ones = |t| fact.bits().tuple(t).to_vec();
        assert_eq!(ones(0), vec![1, 1, 0]); // q0 matched, q64 bypassed
        assert_eq!(ones(1), vec![0, 1, 2]); // q64 bypassed, q129 matched
        assert_eq!(ones(2), vec![0, 1, 0]); // miss: only the bypass survives
    }
}
