//! Query bitmaps and selection masks — the tuple/query correlation
//! currency of batch-at-a-time dataflow.
//!
//! Three closely related bit-level representations live here because
//! every layer above storage consumes them:
//!
//! * **Selection masks** (`&[u64]` + [`mask_words`]/[`iter_ones`]): bit
//!   `i` = "row `i` of the batch is selected". Compiled predicates
//!   (`qs_plan::CompiledPred::eval_batch`) produce them; aggregation
//!   kernels and operators consume them.
//! * **[`BitColumn`]** — the per-tuple query bits of a whole batch as one
//!   dense `u64` column, tuple-major: bit `q` of tuple `t` = "this tuple
//!   is (still) relevant to query `q`". The CJOIN preprocessor writes it,
//!   the shared joins AND into it in place, the distributor and the
//!   shared aggregation route by it. One column per batch, not one
//!   object per tuple: the joins touch `⌈max_queries/64⌉` contiguous
//!   words per tuple and compact the column with the selection.
//! * **[`Bitmap`]** — one standalone bitmap over query slots: a query
//!   set (the shared aggregation's class masks, a union of a batch's
//!   bits) and the per-tuple oracle the column is tested against.
//!
//! `Bitmap` was born in `qs-cjoin`; it moved down here when
//! [`crate::batch::FactBatch`] made (selection, query bits) the
//! post-predicate batch representation shared by every downstream
//! operator.

/// Number of `u64` words a selection mask over `rows` rows needs.
#[inline]
pub fn mask_words(rows: usize) -> usize {
    rows.div_ceil(64)
}

/// Iterate the set bit positions of a selection mask, ascending.
pub fn iter_ones(words: &[u64]) -> impl Iterator<Item = usize> + '_ {
    words.iter().enumerate().flat_map(|(wi, &w)| {
        let mut w = w;
        std::iter::from_fn(move || {
            if w == 0 {
                None
            } else {
                let b = w.trailing_zeros() as usize;
                w &= w - 1;
                Some(wi * 64 + b)
            }
        })
    })
}

/// Words stored inline before spilling to the heap. Two words cover 128
/// query slots — comfortably above the default `max_queries = 64` — so
/// query-set bitmaps of the usual widths are allocation-free.
const INLINE_WORDS: usize = 2;

/// A fixed-width bitmap over query slots.
///
/// Small-inline representation: up to [`INLINE_WORDS`]·64 slots live in
/// the struct itself; wider bitmaps spill to a heap vector. The invariant
/// is canonical (inline words zeroed when spilled, spill empty when
/// inline), so derived equality is structural equality.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Bitmap {
    nwords: u32,
    inline: [u64; INLINE_WORDS],
    spill: Vec<u64>,
}

impl Bitmap {
    /// All-zero bitmap able to hold `nbits` query slots.
    pub fn zeros(nbits: usize) -> Self {
        let nwords = nbits.div_ceil(64).max(1);
        Bitmap {
            nwords: nwords as u32,
            inline: [0; INLINE_WORDS],
            spill: if nwords > INLINE_WORDS {
                vec![0; nwords]
            } else {
                Vec::new()
            },
        }
    }

    /// Build from explicit words (used by `AtomicBitmap::snapshot` in
    /// `qs-cjoin`).
    pub fn from_words(words: Vec<u64>) -> Self {
        let nwords = words.len().max(1);
        if nwords > INLINE_WORDS {
            Bitmap {
                nwords: nwords as u32,
                inline: [0; INLINE_WORDS],
                spill: words,
            }
        } else {
            let mut inline = [0; INLINE_WORDS];
            inline[..words.len()].copy_from_slice(&words);
            Bitmap {
                nwords: nwords as u32,
                inline,
                spill: Vec::new(),
            }
        }
    }

    /// The backing words.
    #[inline]
    pub fn words(&self) -> &[u64] {
        if self.nwords as usize <= INLINE_WORDS {
            &self.inline[..self.nwords as usize]
        } else {
            &self.spill
        }
    }

    /// The backing words, mutable.
    #[inline]
    pub fn words_mut(&mut self) -> &mut [u64] {
        if self.nwords as usize <= INLINE_WORDS {
            &mut self.inline[..self.nwords as usize]
        } else {
            &mut self.spill
        }
    }

    /// Number of 64-bit words.
    #[inline]
    pub fn word_count(&self) -> usize {
        self.nwords as usize
    }

    /// Set bit `i`.
    #[inline]
    pub fn set(&mut self, i: usize) {
        self.words_mut()[i / 64] |= 1u64 << (i % 64);
    }

    /// Clear bit `i`.
    #[inline]
    pub fn clear(&mut self, i: usize) {
        self.words_mut()[i / 64] &= !(1u64 << (i % 64));
    }

    /// Read bit `i`.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        self.words()[i / 64] & (1u64 << (i % 64)) != 0
    }

    /// `self &= other` (the shared hash-join step).
    #[inline]
    pub fn and_assign(&mut self, other: &Bitmap) {
        debug_assert_eq!(self.nwords, other.nwords);
        for (a, b) in self.words_mut().iter_mut().zip(other.words()) {
            *a &= *b;
        }
    }

    /// `self &= (other | mask)` in one pass — the join step with a
    /// bypass mask for queries that do not join this dimension.
    #[inline]
    pub fn and_or_assign(&mut self, other: &Bitmap, mask: &Bitmap) {
        debug_assert_eq!(self.nwords, other.nwords);
        debug_assert_eq!(self.nwords, mask.nwords);
        for ((a, b), m) in self
            .words_mut()
            .iter_mut()
            .zip(other.words())
            .zip(mask.words())
        {
            *a &= *b | *m;
        }
    }

    /// `self &= mask` (join step when the key found no dimension match:
    /// only bypassing queries survive).
    #[inline]
    pub fn and_mask(&mut self, mask: &Bitmap) {
        for (a, m) in self.words_mut().iter_mut().zip(mask.words()) {
            *a &= *m;
        }
    }

    /// Any bit set?
    #[inline]
    pub fn any(&self) -> bool {
        self.words().iter().any(|&w| w != 0)
    }

    /// Whether `self & other` has any bit set (class-relevance test of
    /// the shared aggregator: does any member query still want this
    /// tuple?).
    #[inline]
    pub fn intersects(&self, other: &Bitmap) -> bool {
        self.words()
            .iter()
            .zip(other.words())
            .any(|(a, b)| a & b != 0)
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> usize {
        self.words().iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Iterate the indices of set bits, ascending.
    pub fn iter_ones(&self) -> impl Iterator<Item = usize> + '_ {
        iter_ones(self.words())
    }
}

/// The query bits of a batch's tuples as one dense column: tuple `t`
/// owns words `[t·w, (t+1)·w)`, where `w` = [`Self::words`] is
/// `⌈max_queries/64⌉` for an annotated batch and 0 for a batch that
/// carries no per-tuple annotations (QPipe engine packets). Bit `q` of a
/// tuple's words is query slot `q`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BitColumn {
    pub(crate) words: usize,
    pub(crate) data: Vec<u64>,
}

impl BitColumn {
    /// An all-zero column of `tuples` tuples with `words` words each.
    pub fn zeros(words: usize, tuples: usize) -> BitColumn {
        BitColumn {
            words,
            data: vec![0; words * tuples],
        }
    }

    /// An empty column of `words` words per tuple with room for
    /// `tuples` tuples.
    pub fn with_capacity(words: usize, tuples: usize) -> BitColumn {
        BitColumn {
            words,
            data: Vec::with_capacity(words * tuples),
        }
    }

    /// Stack per-tuple bitmaps into a column (tuple `t` = `bitmaps[t]`),
    /// as wide as the widest of them. Narrower bitmaps are zero-padded.
    pub fn from_bitmaps(bitmaps: &[Bitmap]) -> BitColumn {
        let words = bitmaps.iter().map(Bitmap::word_count).max().unwrap_or(0);
        let mut col = BitColumn::with_capacity(words, bitmaps.len());
        for bm in bitmaps {
            col.push(bm.words());
        }
        col
    }

    /// Words per tuple (0 = the batch is not annotated).
    #[inline]
    pub fn words(&self) -> usize {
        self.words
    }

    /// Number of tuples (0 for an unannotated column).
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len().checked_div(self.words).unwrap_or(0)
    }

    /// Whether the column holds no tuples.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// The words of tuple `t`.
    #[inline]
    pub fn tuple(&self, t: usize) -> &[u64] {
        &self.data[t * self.words..(t + 1) * self.words]
    }

    /// Set query bit `slot` of tuple `t`.
    #[inline]
    pub fn set(&mut self, t: usize, slot: usize) {
        self.data[t * self.words + slot / 64] |= 1u64 << (slot % 64);
    }

    /// Query bit `slot` of tuple `t` (false past the column's width).
    #[inline]
    pub fn get(&self, t: usize, slot: usize) -> bool {
        self.tuple(t)
            .get(slot / 64)
            .is_some_and(|w| w & (1u64 << (slot % 64)) != 0)
    }

    /// Append one tuple's words (zero-padded to the column's width).
    pub fn push(&mut self, words: &[u64]) {
        debug_assert!(words.len() <= self.words);
        self.data.extend_from_slice(words);
        self.data
            .resize(self.data.len() + self.words - words.len(), 0);
    }

    /// Append every tuple of `other` (same width).
    pub fn extend(&mut self, other: &BitColumn) {
        debug_assert!(other.is_empty() || other.words == self.words);
        self.data.extend_from_slice(&other.data);
    }

    /// Drop every tuple and set the width to `words`, keeping the
    /// allocation (reusable scratch).
    pub fn reset(&mut self, words: usize) {
        self.words = words;
        self.data.clear();
    }

    /// The first `n` tuples, copied.
    pub fn prefix(&self, n: usize) -> BitColumn {
        BitColumn {
            words: self.words,
            data: self.data[..n * self.words].to_vec(),
        }
    }

    /// OR of every tuple's bits: the queries the batch still carries.
    pub fn union(&self) -> Bitmap {
        let mut acc = vec![0u64; self.words];
        for t in self.data.chunks_exact(self.words.max(1)) {
            for (a, w) in acc.iter_mut().zip(t) {
                *a |= *w;
            }
        }
        Bitmap::from_words(acc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_get_clear() {
        let mut b = Bitmap::zeros(130);
        assert_eq!(b.word_count(), 3);
        b.set(0);
        b.set(63);
        b.set(64);
        b.set(129);
        assert!(b.get(0) && b.get(63) && b.get(64) && b.get(129));
        assert!(!b.get(1) && !b.get(128));
        b.clear(64);
        assert!(!b.get(64));
        assert_eq!(b.count_ones(), 3);
    }

    #[test]
    fn small_widths_stay_inline_wide_ones_spill() {
        // ≤128 slots: no heap allocation behind the bitmap.
        let mut b = Bitmap::zeros(64);
        assert!(b.spill.is_empty());
        b.set(63);
        assert!(b.get(63));
        let b = Bitmap::zeros(128);
        assert!(b.spill.is_empty());
        assert_eq!(b.word_count(), 2);
        // >128 slots: spilled, still fully functional.
        let mut b = Bitmap::zeros(129);
        assert_eq!(b.spill.len(), 3);
        b.set(128);
        assert!(b.get(128) && !b.get(1));
        assert_eq!(b.iter_ones().collect::<Vec<_>>(), vec![128]);
    }

    #[test]
    fn and_assign_intersects() {
        let mut a = Bitmap::zeros(64);
        let mut b = Bitmap::zeros(64);
        a.set(1);
        a.set(2);
        b.set(2);
        b.set(3);
        assert!(a.intersects(&b));
        a.and_assign(&b);
        assert_eq!(a.iter_ones().collect::<Vec<_>>(), vec![2]);
        let empty = Bitmap::zeros(64);
        assert!(!a.intersects(&empty));
    }

    #[test]
    fn and_or_assign_respects_bypass() {
        // q0 joins the dim (match bit set), q1 bypasses it.
        let mut tuple = Bitmap::zeros(64);
        tuple.set(0);
        tuple.set(1);
        let mut dim = Bitmap::zeros(64);
        dim.set(0);
        let mut bypass = Bitmap::zeros(64);
        bypass.set(1);
        tuple.and_or_assign(&dim, &bypass);
        assert_eq!(tuple.iter_ones().collect::<Vec<_>>(), vec![0, 1]);

        // Dim entry NOT matching q0: q0 dies, q1 survives via bypass.
        let mut tuple = Bitmap::zeros(64);
        tuple.set(0);
        tuple.set(1);
        let dim0 = Bitmap::zeros(64);
        tuple.and_or_assign(&dim0, &bypass);
        assert_eq!(tuple.iter_ones().collect::<Vec<_>>(), vec![1]);
    }

    #[test]
    fn and_mask_for_missing_key() {
        let mut tuple = Bitmap::zeros(64);
        tuple.set(0);
        tuple.set(5);
        let mut bypass = Bitmap::zeros(64);
        bypass.set(5);
        tuple.and_mask(&bypass);
        assert_eq!(tuple.iter_ones().collect::<Vec<_>>(), vec![5]);
        assert!(tuple.any());
    }

    #[test]
    fn iter_ones_across_words() {
        let mut b = Bitmap::zeros(200);
        for i in [0, 63, 64, 127, 128, 199] {
            b.set(i);
        }
        assert_eq!(
            b.iter_ones().collect::<Vec<_>>(),
            vec![0, 63, 64, 127, 128, 199]
        );
    }

    #[test]
    fn empty_bitmap_any_false() {
        let b = Bitmap::zeros(64);
        assert!(!b.any());
        assert_eq!(b.iter_ones().count(), 0);
    }

    #[test]
    fn mask_helpers() {
        assert_eq!(mask_words(0), 0);
        assert_eq!(mask_words(1), 1);
        assert_eq!(mask_words(64), 1);
        assert_eq!(mask_words(65), 2);
        let words = [0b101u64, 1u64 << 63, 1u64];
        assert_eq!(iter_ones(&words).collect::<Vec<_>>(), vec![0, 2, 127, 128]);
    }

    #[test]
    fn bit_column_is_tuple_major_and_matches_bitmaps() {
        let mut a = Bitmap::zeros(130);
        a.set(0);
        a.set(129);
        let mut b = Bitmap::zeros(64);
        b.set(63);
        let col = BitColumn::from_bitmaps(&[a.clone(), b.clone()]);
        assert_eq!((col.words(), col.len()), (3, 2));
        assert_eq!(col.tuple(0), a.words());
        assert_eq!(col.tuple(1), &[1u64 << 63, 0, 0]);
        assert!(col.get(0, 129) && col.get(1, 63) && !col.get(1, 64));
        assert!(!col.get(0, 500), "past the width reads as unset");
        assert_eq!(col.union().iter_ones().collect::<Vec<_>>(), vec![0, 63, 129]);
        assert_eq!(col.prefix(1).tuple(0), a.words());
        let bare = BitColumn::default();
        assert_eq!((bare.words(), bare.len()), (0, 0));
        assert_eq!(bare.union().count_ones(), 0);
    }

    #[test]
    fn from_words_roundtrips_both_representations() {
        for n in [1usize, 2, 3] {
            let mut words = vec![0u64; n];
            words[0] = 0b1001;
            words[n - 1] |= 1u64 << 40;
            let b = Bitmap::from_words(words.clone());
            assert_eq!(b.words(), &words[..]);
            assert_eq!(b.word_count(), n);
        }
    }
}
