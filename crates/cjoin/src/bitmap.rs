//! Query bitmaps — the tuple/query correlation mechanism of the GQP.
//!
//! Every tuple flowing through the CJOIN pipeline carries query bits
//! whose bit `q` means "this tuple is (still) relevant to query `q`".
//! Shared selections set bits; shared hash joins AND the fact tuple's
//! bits with the matching dimension entry's bits; a tuple whose bits
//! reach zero is dropped.
//!
//! The fact side lives in `qs_storage` ([`qs_storage::BitColumn`], one
//! dense column per [`qs_storage::FactBatch`]; the standalone [`Bitmap`]
//! is re-exported here). The dimension side is updated *online* while
//! the pipeline runs (query admission), so it needs atomic words: the
//! entries' bits are one entry-major atomic column per dimension
//! ([`crate::join::DimJoin`]) and each stage's bypass mask is an
//! [`AtomicBitmap`].

pub use qs_storage::bitmap::Bitmap;

use std::sync::atomic::{AtomicU64, Ordering};

/// A bitmap updated concurrently with readers (dimension hash-table
/// entries and per-stage bypass masks).
#[derive(Debug)]
pub struct AtomicBitmap {
    words: Vec<AtomicU64>,
}

impl AtomicBitmap {
    /// All-zero atomic bitmap for `nbits` slots.
    pub fn zeros(nbits: usize) -> Self {
        AtomicBitmap {
            words: (0..nbits.div_ceil(64).max(1))
                .map(|_| AtomicU64::new(0))
                .collect(),
        }
    }

    /// Set bit `i`.
    #[inline]
    pub fn set(&self, i: usize) {
        self.words[i / 64].fetch_or(1u64 << (i % 64), Ordering::Release);
    }

    /// Clear bit `i`.
    #[inline]
    pub fn clear(&self, i: usize) {
        self.words[i / 64].fetch_and(!(1u64 << (i % 64)), Ordering::Release);
    }

    /// Write bit `i` to `value` (admission sets or clears explicitly so
    /// slot reuse never sees stale bits).
    #[inline]
    pub fn write(&self, i: usize, value: bool) {
        if value {
            self.set(i);
        } else {
            self.clear(i);
        }
    }

    /// Read bit `i`.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        self.words[i / 64].load(Ordering::Acquire) & (1u64 << (i % 64)) != 0
    }

    /// Snapshot into a plain bitmap.
    pub fn snapshot(&self) -> Bitmap {
        Bitmap::from_words(self.words.iter().map(|w| w.load(Ordering::Acquire)).collect())
    }

    /// Load every word into `dst` (cleared first): a plain snapshot for
    /// a loop that reads the mask once per batch.
    pub fn load_into(&self, dst: &mut Vec<u64>) {
        dst.clear();
        dst.extend(self.words.iter().map(|w| w.load(Ordering::Acquire)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_roundtrips_both_representations() {
        for bits in [64usize, 200] {
            let a = AtomicBitmap::zeros(bits);
            a.set(0);
            a.set(bits - 1);
            let snap = a.snapshot();
            assert_eq!(snap.iter_ones().collect::<Vec<_>>(), vec![0, bits - 1]);
            assert_eq!(snap.word_count(), bits.div_ceil(64));
        }
    }

    #[test]
    fn atomic_write_and_snapshot() {
        let a = AtomicBitmap::zeros(128);
        a.set(3);
        a.set(100);
        a.write(3, false);
        a.write(7, true);
        assert!(!a.get(3));
        assert!(a.get(7) && a.get(100));
        let snap = a.snapshot();
        assert_eq!(snap.iter_ones().collect::<Vec<_>>(), vec![7, 100]);
    }

    #[test]
    fn atomic_load_into_matches_snapshot() {
        let a = AtomicBitmap::zeros(130);
        a.set(1);
        a.set(70);
        a.set(129);
        let mut words = vec![u64::MAX; 7]; // pre-dirtied scratch
        a.load_into(&mut words);
        assert_eq!(words, a.snapshot().words());
    }

    #[test]
    fn concurrent_admission_updates_are_visible() {
        use std::sync::Arc;
        let a = Arc::new(AtomicBitmap::zeros(256));
        let hs: Vec<_> = (0..4)
            .map(|t| {
                let a = a.clone();
                std::thread::spawn(move || {
                    for i in 0..64 {
                        a.set(t * 64 + i);
                    }
                })
            })
            .collect();
        for h in hs {
            h.join().unwrap();
        }
        assert_eq!(a.snapshot().count_ones(), 256);
    }
}
