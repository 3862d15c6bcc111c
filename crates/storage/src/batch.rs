//! Page-at-a-time column batches — the decode-once substrate for
//! vectorized execution.
//!
//! Interpreted predicate evaluation decodes the referenced columns from
//! row bytes once per *predicate node per row*: with 32 concurrent
//! queries over the same fact page, the same 8 bytes are re-read and
//! re-branched on 32+ times per tuple. A [`ColumnBatch`] decodes each
//! referenced column of a page (or any set of encoded rows) exactly once
//! into a typed vector; every compiled predicate
//! (`qs_plan::CompiledPred`) then runs column-wise over plain `i64`/
//! `f64`/`u32`/`&str` slices, which the compiler auto-vectorizes and the
//! cache prefetches. Aggregation kernels (`qs_engine::kernels`) fold the
//! same typed slices under selection masks.
//!
//! Batches borrow the underlying page. On **row-major** pages, `Char`
//! columns are exposed as trimmed `&str` slices into the page arena, so
//! decoding allocates only the per-column vectors. On **columnar** pages
//! ([`crate::ColumnPage`]) the numeric lanes are zero-copy borrows of the
//! page's typed arrays (`I64View`/`F64View`/`DateView`) — no per-batch
//! decode at all — and dictionary-coded `Char` columns can stay as codes
//! ([`ColumnData::DictStr`], via the `for_predicate` constructors) so
//! compiled predicates evaluate once per dictionary entry instead of once
//! per row.
//!
//! [`FactBatch`] is the owned, channel-crossing sibling: the unit of
//! post-predicate dataflow (page + surviving-row selection + a dense
//! per-tuple query-bit column). Because a `ColumnBatch` borrows its page, a
//! `FactBatch` carries the page by `Arc` and *gathers* decoded column
//! views ([`FactBatch::columns`], [`FactBatch::gather_i64_into`]) and
//! materialized row bytes ([`FactBatch::materialize_rows`]) once per
//! batch for whichever stage needs them.

use crate::bitmap::BitColumn;
use crate::page::{ColumnArray, Page};
use crate::row::{read_date_at, read_f64_at, read_i64_at, trim_char};
use crate::schema::Schema;
use crate::value::DataType;
use std::borrow::Cow;
use std::ops::Range;
use std::sync::Arc;

/// One decoded column of a batch.
#[derive(Debug, Clone, PartialEq)]
pub enum ColumnData<'a> {
    /// `Int` column values (owned — gathered or decompressed).
    I64(Vec<i64>),
    /// `Int` lanes borrowed zero-copy from a columnar page.
    I64View(&'a [i64]),
    /// `Float` column values.
    F64(Vec<f64>),
    /// `Float` lanes borrowed zero-copy from a columnar page.
    F64View(&'a [f64]),
    /// `Date` column values (`yyyymmdd`).
    Date(Vec<u32>),
    /// `Date` lanes borrowed zero-copy from a columnar page.
    DateView(&'a [u32]),
    /// `Char(n)` column values, trailing padding trimmed, borrowing the
    /// underlying row bytes.
    Str(Vec<&'a str>),
    /// Dictionary-coded `Char` column: `codes[row]` indexes `dict`.
    /// Produced only by the `for_predicate` constructors over columnar
    /// pages; compiled predicates evaluate per dictionary entry and
    /// expand through the codes.
    DictStr {
        /// Trimmed distinct values, in code order.
        dict: Vec<&'a str>,
        /// One dictionary code per row (borrowed for full/range views,
        /// owned when gathered through a selection).
        codes: Cow<'a, [u32]>,
    },
}

impl ColumnData<'_> {
    /// Number of rows in the column.
    pub fn len(&self) -> usize {
        match self {
            ColumnData::I64(v) => v.len(),
            ColumnData::I64View(v) => v.len(),
            ColumnData::F64(v) => v.len(),
            ColumnData::F64View(v) => v.len(),
            ColumnData::Date(v) => v.len(),
            ColumnData::DateView(v) => v.len(),
            ColumnData::Str(v) => v.len(),
            ColumnData::DictStr { codes, .. } => codes.len(),
        }
    }

    /// Whether the column holds no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<'a> ColumnData<'a> {
    /// `Int` values. Panics on any other type (a compiled program or
    /// kernel referencing a column under the wrong type is a planner
    /// bug).
    #[inline]
    pub fn i64s(&self) -> &[i64] {
        match self {
            ColumnData::I64(v) => v,
            ColumnData::I64View(v) => v,
            other => panic!("Int column view over {other:?}"),
        }
    }

    /// `Float` values. Panics on any other type.
    #[inline]
    pub fn f64s(&self) -> &[f64] {
        match self {
            ColumnData::F64(v) => v,
            ColumnData::F64View(v) => v,
            other => panic!("Float column view over {other:?}"),
        }
    }

    /// `Date` values. Panics on any other type.
    #[inline]
    pub fn dates(&self) -> &[u32] {
        match self {
            ColumnData::Date(v) => v,
            ColumnData::DateView(v) => v,
            other => panic!("Date column view over {other:?}"),
        }
    }

    /// Trimmed `Char` values. Panics on any other type — including
    /// [`ColumnData::DictStr`], which predicate code must match
    /// explicitly (that is the point of keeping the codes).
    #[inline]
    pub fn strs(&self) -> &[&'a str] {
        match self {
            ColumnData::Str(v) => v,
            other => panic!("Char column view over {other:?}"),
        }
    }
}

/// The referenced columns of a run of encoded rows, decoded once into
/// typed vectors.
///
/// Only the columns named at construction are decoded; asking for any
/// other column panics (it is a planner bug for a compiled predicate to
/// reference a column missing from the batch it runs over).
#[derive(Debug)]
pub struct ColumnBatch<'a> {
    rows: usize,
    /// Indexed by schema column index; `None` = not decoded.
    cols: Vec<Option<ColumnData<'a>>>,
}

/// Decode one column from rows laid out back-to-back in `data`.
fn decode_stride<'a>(
    data: &'a [u8],
    row_size: usize,
    rows: usize,
    off: usize,
    dtype: DataType,
) -> ColumnData<'a> {
    match dtype {
        DataType::Int => {
            let mut v = Vec::with_capacity(rows);
            for i in 0..rows {
                v.push(read_i64_at(data, i * row_size + off));
            }
            ColumnData::I64(v)
        }
        DataType::Float => {
            let mut v = Vec::with_capacity(rows);
            for i in 0..rows {
                v.push(read_f64_at(data, i * row_size + off));
            }
            ColumnData::F64(v)
        }
        DataType::Date => {
            let mut v = Vec::with_capacity(rows);
            for i in 0..rows {
                v.push(read_date_at(data, i * row_size + off));
            }
            ColumnData::Date(v)
        }
        DataType::Char(n) => {
            let n = n as usize;
            let mut v = Vec::with_capacity(rows);
            for i in 0..rows {
                let p = i * row_size + off;
                v.push(trim_char(&data[p..p + n]));
            }
            ColumnData::Str(v)
        }
    }
}

/// Expand rows `range` of an RLE `Int` column into plain lanes.
fn expand_rle_range(values: &[i64], ends: &[u32], range: Range<usize>) -> Vec<i64> {
    let mut out = Vec::with_capacity(range.len());
    if range.is_empty() {
        return out;
    }
    let mut run = ColumnArray::run_of(ends, range.start);
    let mut i = range.start;
    while i < range.end {
        let e = (ends[run] as usize).min(range.end);
        out.resize(out.len() + (e - i), values[run]);
        i = e;
        run += 1;
    }
    out
}

/// Trimmed dictionary entries of a dict-coded `Char` column, code order.
fn dict_strs(width: usize, dict: &[u8]) -> Vec<&str> {
    (0..dict.len() / width.max(1))
        .map(|i| trim_char(&dict[i * width..(i + 1) * width]))
        .collect()
}

/// Decode rows `range` of one columnar-page array. Plain numeric lanes
/// are zero-copy borrows; `keep_dict` keeps dictionary codes coded
/// (predicate path) instead of expanding to `&str` per row.
fn decode_array<'a>(arr: &'a ColumnArray, range: Range<usize>, keep_dict: bool) -> ColumnData<'a> {
    match arr {
        ColumnArray::I64(v) => ColumnData::I64View(&v[range]),
        ColumnArray::RleI64 { values, ends } => {
            ColumnData::I64(expand_rle_range(values, ends, range))
        }
        ColumnArray::F64(v) => ColumnData::F64View(&v[range]),
        ColumnArray::Date(v) => ColumnData::DateView(&v[range]),
        ColumnArray::Chars { width, bytes } => ColumnData::Str(
            range
                .map(|r| trim_char(&bytes[r * width..(r + 1) * width]))
                .collect(),
        ),
        ColumnArray::DictChars { width, dict, codes } => {
            let dict = dict_strs(*width, dict);
            if keep_dict {
                ColumnData::DictStr {
                    dict,
                    codes: Cow::Borrowed(&codes[range]),
                }
            } else {
                ColumnData::Str(codes[range].iter().map(|&c| dict[c as usize]).collect())
            }
        }
    }
}

/// Gather page rows `sel` (any order) of one columnar-page array.
fn gather_array<'a>(arr: &'a ColumnArray, sel: &[u32], keep_dict: bool) -> ColumnData<'a> {
    match arr {
        ColumnArray::I64(v) => {
            ColumnData::I64(sel.iter().map(|&r| v[r as usize]).collect())
        }
        ColumnArray::RleI64 { values, ends } => ColumnData::I64(
            sel.iter()
                .map(|&r| values[ColumnArray::run_of(ends, r as usize)])
                .collect(),
        ),
        ColumnArray::F64(v) => {
            ColumnData::F64(sel.iter().map(|&r| v[r as usize]).collect())
        }
        ColumnArray::Date(v) => {
            ColumnData::Date(sel.iter().map(|&r| v[r as usize]).collect())
        }
        ColumnArray::Chars { .. } => ColumnData::Str(
            sel.iter()
                .map(|&r| trim_char(arr.char_bytes(r as usize)))
                .collect(),
        ),
        ColumnArray::DictChars { width, dict, codes } => {
            let dict = dict_strs(*width, dict);
            if keep_dict {
                ColumnData::DictStr {
                    dict,
                    codes: Cow::Owned(sel.iter().map(|&r| codes[r as usize]).collect()),
                }
            } else {
                ColumnData::Str(
                    sel.iter()
                        .map(|&r| dict[codes[r as usize] as usize])
                        .collect(),
                )
            }
        }
    }
}

impl<'a> ColumnBatch<'a> {
    /// Decode columns `cols` of every row of `page`.
    pub fn from_page(page: &'a Page, cols: &[usize]) -> ColumnBatch<'a> {
        Self::range_impl(page, 0..page.rows(), cols, false)
    }

    /// Like [`Self::from_page`], but dictionary-coded `Char` columns of a
    /// columnar page stay coded ([`ColumnData::DictStr`]) for compiled
    /// predicate evaluation over codes.
    pub fn for_predicate(page: &'a Page, cols: &[usize]) -> ColumnBatch<'a> {
        Self::range_impl(page, 0..page.rows(), cols, true)
    }

    /// Decode columns `cols` of rows `range` of `page`. Row `i` of the
    /// batch is row `range.start + i` of the page.
    pub fn from_page_range(
        page: &'a Page,
        range: Range<usize>,
        cols: &[usize],
    ) -> ColumnBatch<'a> {
        Self::range_impl(page, range, cols, false)
    }

    /// Range form of [`Self::for_predicate`].
    pub fn for_predicate_range(
        page: &'a Page,
        range: Range<usize>,
        cols: &[usize],
    ) -> ColumnBatch<'a> {
        Self::range_impl(page, range, cols, true)
    }

    fn range_impl(
        page: &'a Page,
        range: Range<usize>,
        cols: &[usize],
        keep_dict: bool,
    ) -> ColumnBatch<'a> {
        let schema = page.schema();
        let rows = range.len();
        let mut out = vec![None; schema.len()];
        match page.column_page() {
            Some(cp) => {
                for &c in cols {
                    if out[c].is_none() {
                        out[c] = Some(decode_array(cp.array(c), range.clone(), keep_dict));
                    }
                }
            }
            None => {
                let rs = schema.row_size();
                let data = &page.raw()[range.start * rs..range.end * rs];
                for &c in cols {
                    if out[c].is_none() {
                        out[c] = Some(decode_stride(
                            data,
                            rs,
                            rows,
                            schema.offset(c),
                            schema.dtype(c),
                        ));
                    }
                }
            }
        }
        ColumnBatch { rows, cols: out }
    }

    /// Decode columns `cols` of a set of independently allocated encoded
    /// rows (e.g. dimension hash-table entries). Each slice must be
    /// exactly `schema.row_size()` bytes.
    pub fn from_rows(schema: &Schema, rows: &[&'a [u8]], cols: &[usize]) -> ColumnBatch<'a> {
        let mut out = vec![None; schema.len()];
        for &c in cols {
            if out[c].is_some() {
                continue;
            }
            let off = schema.offset(c);
            out[c] = Some(match schema.dtype(c) {
                DataType::Int => {
                    ColumnData::I64(rows.iter().map(|r| read_i64_at(r, off)).collect())
                }
                DataType::Float => {
                    ColumnData::F64(rows.iter().map(|r| read_f64_at(r, off)).collect())
                }
                DataType::Date => {
                    ColumnData::Date(rows.iter().map(|r| read_date_at(r, off)).collect())
                }
                DataType::Char(n) => ColumnData::Str(
                    rows.iter()
                        .map(|r| trim_char(&r[off..off + n as usize]))
                        .collect(),
                ),
            });
        }
        ColumnBatch {
            rows: rows.len(),
            cols: out,
        }
    }

    /// Decode columns `cols` of the page rows selected by `sel` (page row
    /// indices, any order). Row `i` of the batch is page row `sel[i]` —
    /// the decoded view of a [`FactBatch`]'s surviving tuples.
    pub fn gather(page: &'a Page, sel: &[u32], cols: &[usize]) -> ColumnBatch<'a> {
        Self::gather_impl(page, sel, cols, false)
    }

    /// Selection form of [`Self::for_predicate`]: gather only the
    /// surviving rows, keeping dictionary columns coded.
    pub fn gather_for_predicate(page: &'a Page, sel: &[u32], cols: &[usize]) -> ColumnBatch<'a> {
        Self::gather_impl(page, sel, cols, true)
    }

    fn gather_impl(
        page: &'a Page,
        sel: &[u32],
        cols: &[usize],
        keep_dict: bool,
    ) -> ColumnBatch<'a> {
        let schema = page.schema();
        let mut out = vec![None; schema.len()];
        match page.column_page() {
            Some(cp) => {
                for &c in cols {
                    if out[c].is_none() {
                        out[c] = Some(gather_array(cp.array(c), sel, keep_dict));
                    }
                }
            }
            None => {
                let rs = schema.row_size();
                let data = page.raw();
                for &c in cols {
                    if out[c].is_some() {
                        continue;
                    }
                    let off = schema.offset(c);
                    out[c] = Some(match schema.dtype(c) {
                        DataType::Int => ColumnData::I64(
                            sel.iter()
                                .map(|&r| read_i64_at(data, r as usize * rs + off))
                                .collect(),
                        ),
                        DataType::Float => ColumnData::F64(
                            sel.iter()
                                .map(|&r| read_f64_at(data, r as usize * rs + off))
                                .collect(),
                        ),
                        DataType::Date => ColumnData::Date(
                            sel.iter()
                                .map(|&r| read_date_at(data, r as usize * rs + off))
                                .collect(),
                        ),
                        DataType::Char(n) => ColumnData::Str(
                            sel.iter()
                                .map(|&r| {
                                    let p = r as usize * rs + off;
                                    trim_char(&data[p..p + n as usize])
                                })
                                .collect(),
                        ),
                    });
                }
            }
        }
        ColumnBatch {
            rows: sel.len(),
            cols: out,
        }
    }

    /// Number of rows in the batch.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Whether column `i` was decoded.
    #[inline]
    pub fn has(&self, i: usize) -> bool {
        self.cols.get(i).is_some_and(|c| c.is_some())
    }

    /// Decoded data of column `i`. Panics if the column was not named at
    /// construction.
    #[inline]
    pub fn col(&self, i: usize) -> &ColumnData<'a> {
        self.cols[i]
            .as_ref()
            .expect("column not decoded into this batch")
    }
}

/// The unit of post-predicate dataflow: the surviving tuples of one
/// page, as (selection vector, optional query-bit column) over the
/// shared page — the packet type of both the CJOIN pipeline and the QPipe
/// engine's inter-operator channels.
///
/// Downstream operators never walk rows tuple-at-a-time again; they ask
/// the batch for what they need, once per batch:
///
/// * a hash-join gathers the join-key column into a typed slice
///   ([`Self::gather_i64_into`]) and probes in a tight loop,
/// * the distributor materializes every surviving tuple's encoded row
///   bytes in one pass ([`Self::materialize_rows`]) before fanning out to
///   queries,
/// * an aggregation decodes the columns its kernels fold
///   ([`Self::columns`]),
/// * operators that truly need a tuple's encoded bytes (sort buffers,
///   join build sides, final output) slice them straight out of the page
///   arena ([`Self::tuple_bytes`]) on row-major pages, or re-encode them
///   through a reusable scratch ([`Self::tuple_bytes_in`]) on either
///   layout.
///
/// The page travels by `Arc`, so a `FactBatch` is `Send` and crosses
/// pipeline channels; decoded views borrow the batch locally. The CJOIN
/// side annotates tuples with query bits ([`BitColumn`], one dense `u64`
/// column parallel to the selection); engine batches carry a zero-width
/// column (no per-tuple sharing metadata).
#[derive(Debug)]
pub struct FactBatch {
    page: Arc<Page>,
    /// Page row indices of surviving tuples, strictly ascending.
    sel: Vec<u32>,
    /// Per-tuple query bits, parallel to `sel` — or zero words wide when
    /// the batch carries no per-tuple annotations (QPipe engine packets).
    bits: BitColumn,
    /// Encoded row bytes of the selected tuples, gathered back-to-back at
    /// `row_size` stride. Empty until [`Self::materialize_rows`].
    rows: Vec<u8>,
}

impl FactBatch {
    /// Wrap the surviving tuples of `page`, without query annotations.
    pub fn new(page: Arc<Page>, sel: Vec<u32>) -> FactBatch {
        FactBatch::with_bits(page, sel, BitColumn::default())
    }

    /// Wrap the surviving tuples of `page` annotated with query bits:
    /// tuple `i` of `bits` annotates page row `sel[i]`. A zero-width
    /// column means "no per-tuple annotations".
    pub fn with_bits(page: Arc<Page>, sel: Vec<u32>, bits: BitColumn) -> FactBatch {
        debug_assert!(bits.words() == 0 || bits.len() == sel.len());
        FactBatch {
            page,
            sel,
            bits,
            rows: Vec::new(),
        }
    }

    /// Wrap every row of `page` (identity selection, no query bits) — the
    /// constructor for scan passthrough and for dense operator output
    /// pages entering the batch dataflow.
    pub fn all(page: Arc<Page>) -> FactBatch {
        let n = page.rows() as u32;
        FactBatch {
            page,
            sel: (0..n).collect(),
            bits: BitColumn::default(),
            rows: Vec::new(),
        }
    }

    /// Whether the selection covers every page row (identity selection —
    /// `sel` is strictly ascending, so full length implies identity).
    /// Consumers use this to take dense fast paths, e.g. decoding columns
    /// by stride instead of gathering.
    #[inline]
    pub fn is_full(&self) -> bool {
        self.sel.len() == self.page.rows()
    }

    /// A new batch over the same page keeping only the first `n` tuples
    /// (selection slicing — how `Limit` trims a batch without copying any
    /// row bytes).
    pub fn prefix(&self, n: usize) -> FactBatch {
        FactBatch {
            page: self.page.clone(),
            sel: self.sel[..n].to_vec(),
            bits: self.bits.prefix(n),
            rows: Vec::new(),
        }
    }

    /// Deep copy: the underlying page bytes are duplicated (push-mode SP
    /// charges the producer one real page copy per extra consumer).
    pub fn deep_copy(&self) -> FactBatch {
        FactBatch {
            page: Arc::new(self.page.deep_copy()),
            sel: self.sel.clone(),
            bits: self.bits.clone(),
            rows: self.rows.clone(),
        }
    }

    /// The underlying page.
    #[inline]
    pub fn page(&self) -> &Arc<Page> {
        &self.page
    }

    /// Number of surviving tuples.
    #[inline]
    pub fn len(&self) -> usize {
        self.sel.len()
    }

    /// Whether no tuples survive.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.sel.is_empty()
    }

    /// Page row indices of the surviving tuples.
    #[inline]
    pub fn sel(&self) -> &[u32] {
        &self.sel
    }

    /// Per-tuple query bits, parallel to [`Self::sel`].
    #[inline]
    pub fn bits(&self) -> &BitColumn {
        &self.bits
    }

    /// Gather an `Int` column of the surviving tuples into `out`
    /// (cleared first). Scratch-reusable form of [`Self::columns`] for
    /// the join-key hot path. On columnar pages this reads the typed
    /// lanes directly (walking runs in step with the ascending selection
    /// for RLE columns); on row-major pages it strides the arena.
    pub fn gather_i64_into(&self, col: usize, out: &mut Vec<i64>) {
        let schema = self.page.schema();
        debug_assert_eq!(schema.dtype(col), DataType::Int);
        out.clear();
        match self.page.column_page() {
            Some(cp) => match cp.array(col) {
                ColumnArray::I64(v) => {
                    out.extend(self.sel.iter().map(|&r| v[r as usize]));
                }
                ColumnArray::RleI64 { values, ends } => {
                    // `sel` is strictly ascending, so a single run cursor
                    // suffices: O(sel + runs) instead of a binary search
                    // per tuple.
                    let mut run = 0usize;
                    out.extend(self.sel.iter().map(|&r| {
                        while ends[run] <= r {
                            run += 1;
                        }
                        values[run]
                    }));
                }
                other => panic!("gather_i64_into on {}", other.encoding_name()),
            },
            None => {
                let rs = schema.row_size();
                let off = schema.offset(col);
                let data = self.page.raw();
                out.extend(
                    self.sel
                        .iter()
                        .map(|&r| read_i64_at(data, r as usize * rs + off)),
                );
            }
        }
    }

    /// Decode `cols` of the surviving tuples into a typed column view
    /// (row `i` of the view is tuple `i` of the batch).
    pub fn columns(&self, cols: &[usize]) -> ColumnBatch<'_> {
        ColumnBatch::gather(&self.page, &self.sel, cols)
    }

    /// Predicate form of [`Self::columns`]: dictionary-coded `Char`
    /// columns of a columnar page stay coded through the gather.
    pub fn columns_for_predicate(&self, cols: &[usize]) -> ColumnBatch<'_> {
        ColumnBatch::gather_for_predicate(&self.page, &self.sel, cols)
    }

    /// Gather every surviving tuple's encoded row bytes back-to-back, one
    /// pass over the page. Idempotent; must run before
    /// [`Self::row_bytes`].
    pub fn materialize_rows(&mut self) {
        if !self.rows.is_empty() || self.sel.is_empty() {
            return;
        }
        let rs = self.page.schema().row_size();
        self.rows.reserve_exact(self.sel.len() * rs);
        match self.page.column_page() {
            Some(cp) => {
                for &r in &self.sel {
                    cp.encode_row_into(r as usize, &mut self.rows);
                }
            }
            None => {
                let data = self.page.raw();
                for &r in &self.sel {
                    let p = r as usize * rs;
                    self.rows.extend_from_slice(&data[p..p + rs]);
                }
            }
        }
    }

    /// Whether [`Self::materialize_rows`] has run (and found tuples).
    #[inline]
    pub fn is_materialized(&self) -> bool {
        !self.rows.is_empty()
    }

    /// Encoded row bytes of tuple `t` (batch index, not page row), sliced
    /// straight out of the shared page arena — no materialization.
    /// Row-major pages only (panics via [`Page::raw`] on columnar ones);
    /// layout-generic callers use [`Self::tuple_bytes_in`].
    #[inline]
    pub fn tuple_bytes(&self, t: usize) -> &[u8] {
        let rs = self.page.schema().row_size();
        let p = self.sel[t] as usize * rs;
        &self.page.raw()[p..p + rs]
    }

    /// Encoded row bytes of tuple `t` on either layout: a zero-copy arena
    /// slice on row-major pages, a re-encode into `scratch` on columnar
    /// ones. `scratch` is caller-owned so tight loops reuse one buffer.
    #[inline]
    pub fn tuple_bytes_in<'s>(&'s self, t: usize, scratch: &'s mut Vec<u8>) -> &'s [u8] {
        match self.page.column_page() {
            Some(cp) => {
                scratch.clear();
                cp.encode_row_into(self.sel[t] as usize, scratch);
                scratch
            }
            None => {
                let rs = self.page.schema().row_size();
                let p = self.sel[t] as usize * rs;
                &self.page.raw()[p..p + rs]
            }
        }
    }

    /// Encoded row bytes of tuple `t` (batch index, not page row).
    /// Panics unless materialized.
    #[inline]
    pub fn row_bytes(&self, t: usize) -> &[u8] {
        assert!(
            !self.rows.is_empty(),
            "FactBatch::materialize_rows must run before row_bytes"
        );
        let rs = self.page.schema().row_size();
        &self.rows[t * rs..(t + 1) * rs]
    }

    /// Drop tuples where `keep[t]` is false, compacting the selection,
    /// the query bits and (if materialized) the gathered row bytes in
    /// place. Returns the number of surviving tuples.
    pub fn retain(&mut self, keep: &[bool]) -> usize {
        debug_assert_eq!(keep.len(), self.sel.len());
        self.retain_with(|t, _| keep[t])
    }

    /// One-pass filter over the query bits: `f(t, bits)` sees tuple `t`'s
    /// words (mutable — the shared joins AND into them) and returns
    /// whether the tuple survives; dropped tuples are compacted out of
    /// the selection, the bit column and any materialized row bytes in
    /// the same pass. Tuples are visited in order, each exactly once.
    /// Returns the number of surviving tuples.
    #[inline]
    pub fn retain_with(&mut self, mut f: impl FnMut(usize, &mut [u64]) -> bool) -> usize {
        let w = self.bits.words;
        let rs = if self.rows.is_empty() {
            0
        } else {
            self.page.schema().row_size()
        };
        let n = self.sel.len();
        let mut kept = 0usize;
        for t in 0..n {
            if !f(t, &mut self.bits.data[t * w..(t + 1) * w]) {
                continue;
            }
            if kept != t {
                self.sel[kept] = self.sel[t];
                for i in 0..w {
                    self.bits.data[kept * w + i] = self.bits.data[t * w + i];
                }
                if rs > 0 {
                    self.rows.copy_within(t * rs..(t + 1) * rs, kept * rs);
                }
            }
            kept += 1;
        }
        self.sel.truncate(kept);
        self.bits.data.truncate(kept * w);
        self.rows.truncate(kept * rs);
        kept
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value;

    fn schema() -> Arc<Schema> {
        Schema::from_pairs(&[
            ("k", DataType::Int),
            ("p", DataType::Float),
            ("d", DataType::Date),
            ("s", DataType::Char(4)),
        ])
    }

    fn page() -> Page {
        Page::from_values(
            &schema(),
            &(0..10)
                .map(|i| {
                    vec![
                        Value::Int(i - 3),
                        Value::Float(i as f64 * 0.5),
                        Value::Date(19970000 + i as u32),
                        Value::Str(format!("s{i}")),
                    ]
                })
                .collect::<Vec<_>>(),
        )
        .unwrap()
    }

    #[test]
    fn decodes_only_requested_columns() {
        let p = page();
        let b = ColumnBatch::from_page(&p, &[0, 3]);
        assert_eq!(b.rows(), 10);
        assert!(b.has(0) && b.has(3));
        assert!(!b.has(1) && !b.has(2));
        match b.col(0) {
            ColumnData::I64(v) => assert_eq!(v[..4], [-3, -2, -1, 0]),
            other => panic!("wrong type {other:?}"),
        }
        match b.col(3) {
            ColumnData::Str(v) => {
                assert_eq!(v[0], "s0");
                assert_eq!(v[9], "s9");
            }
            other => panic!("wrong type {other:?}"),
        }
    }

    #[test]
    fn range_offsets_rows() {
        let p = page();
        let b = ColumnBatch::from_page_range(&p, 4..7, &[2]);
        assert_eq!(b.rows(), 3);
        match b.col(2) {
            ColumnData::Date(v) => assert_eq!(v[..], [19970004, 19970005, 19970006]),
            other => panic!("wrong type {other:?}"),
        }
    }

    #[test]
    fn from_rows_matches_from_page() {
        let p = page();
        let slices: Vec<&[u8]> = (0..p.rows()).map(|i| p.row(i).bytes()).collect();
        let a = ColumnBatch::from_page(&p, &[0, 1, 2, 3]);
        let b = ColumnBatch::from_rows(p.schema(), &slices, &[0, 1, 2, 3]);
        for c in 0..4 {
            assert_eq!(a.col(c), b.col(c));
        }
    }

    #[test]
    fn matches_rowref_accessors() {
        let p = page();
        let b = ColumnBatch::from_page(&p, &[0, 1, 2, 3]);
        for (i, row) in p.iter().enumerate() {
            match b.col(0) {
                ColumnData::I64(v) => assert_eq!(v[i], row.i64_col(0)),
                _ => unreachable!(),
            }
            match b.col(1) {
                ColumnData::F64(v) => assert_eq!(v[i], row.f64_col(1)),
                _ => unreachable!(),
            }
            match b.col(2) {
                ColumnData::Date(v) => assert_eq!(v[i], row.date_col(2)),
                _ => unreachable!(),
            }
            match b.col(3) {
                ColumnData::Str(v) => assert_eq!(v[i], row.str_col(3)),
                _ => unreachable!(),
            }
        }
    }

    #[test]
    fn empty_page_empty_batch() {
        let s = schema();
        let b = crate::page::PageBuilder::with_capacity(s, 4).finish();
        let batch = ColumnBatch::from_page(&b, &[0]);
        assert_eq!(batch.rows(), 0);
        assert!(batch.col(0).is_empty());
    }

    #[test]
    fn gather_reorders_and_subsets() {
        let p = page();
        let b = ColumnBatch::gather(&p, &[7, 0, 3], &[0, 3]);
        assert_eq!(b.rows(), 3);
        assert_eq!(b.col(0).i64s(), &[4, -3, 0]);
        assert_eq!(b.col(3).strs(), &["s7", "s0", "s3"]);
    }

    fn fact_batch(sel: &[u32]) -> FactBatch {
        let p = Arc::new(page());
        let mut bits = BitColumn::zeros(1, sel.len());
        for (t, &r) in sel.iter().enumerate() {
            bits.set(t, r as usize % 8);
        }
        FactBatch::with_bits(p, sel.to_vec(), bits)
    }

    #[test]
    fn fact_batch_gathers_keys_and_columns() {
        let fb = fact_batch(&[1, 4, 9]);
        let mut keys = vec![0i64; 99]; // pre-dirtied scratch
        fb.gather_i64_into(0, &mut keys);
        assert_eq!(keys, vec![-2, 1, 6]);
        let view = fb.columns(&[2]);
        assert_eq!(view.col(2).dates(), &[19970001, 19970004, 19970009]);
    }

    #[test]
    fn fact_batch_materializes_and_retains() {
        let mut fb = fact_batch(&[0, 2, 5, 8]);
        fb.materialize_rows();
        assert!(fb.is_materialized());
        let rs = fb.page().schema().row_size();
        for t in 0..fb.len() {
            let want = fb.page().row(fb.sel()[t] as usize).bytes().to_vec();
            assert_eq!(fb.row_bytes(t), &want[..]);
            assert_eq!(fb.row_bytes(t).len(), rs);
        }
        // Drop tuples 0 and 2; survivors keep their bytes and query bits.
        let survivors = fb.retain(&[false, true, false, true]);
        assert_eq!(survivors, 2);
        assert_eq!(fb.sel(), &[2, 8]);
        assert_eq!(fb.bits().len(), 2);
        assert!(fb.bits().get(0, 2) && fb.bits().get(1, 0));
        assert_eq!(fb.row_bytes(1), fb.page().row(8).bytes());
    }

    #[test]
    fn empty_fact_batch_is_harmless() {
        let mut fb = fact_batch(&[]);
        assert!(fb.is_empty());
        fb.materialize_rows();
        assert!(!fb.is_materialized());
        assert_eq!(fb.retain(&[]), 0);
        let mut keys = Vec::new();
        fb.gather_i64_into(0, &mut keys);
        assert!(keys.is_empty());
    }

    /// A page whose columnar form exercises every encoding: RLE ints,
    /// plain ints, dict chars, plain floats/dates.
    fn col_page() -> (Page, Page) {
        let s = Schema::from_pairs(&[
            ("run", DataType::Int),    // long runs -> RLE
            ("k", DataType::Int),      // distinct -> plain
            ("p", DataType::Float),
            ("d", DataType::Date),
            ("tag", DataType::Char(5)), // 3 distinct -> dict
        ]);
        let rows: Vec<Vec<Value>> = (0..64)
            .map(|i| {
                vec![
                    Value::Int((i / 16) as i64),
                    Value::Int(i as i64 * 7 - 100),
                    Value::Float(i as f64 / 4.0),
                    Value::Date(19930101 + i as u32),
                    Value::Str(["aa", "bbb", "c"][i % 3].into()),
                ]
            })
            .collect();
        let row = Page::from_values(&s, &rows).unwrap();
        let col = row.to_columnar();
        (row, col)
    }

    #[test]
    fn columnar_batch_matches_row_batch() {
        let (row, col) = col_page();
        let cols = [0usize, 1, 2, 3, 4];
        let a = ColumnBatch::from_page(&row, &cols);
        let b = ColumnBatch::from_page(&col, &cols);
        assert_eq!(a.col(0).i64s(), b.col(0).i64s());
        assert_eq!(a.col(1).i64s(), b.col(1).i64s());
        assert_eq!(a.col(2).f64s(), b.col(2).f64s());
        assert_eq!(a.col(3).dates(), b.col(3).dates());
        assert_eq!(a.col(4).strs(), b.col(4).strs());
        // Plain numeric lanes are zero-copy borrows, not decodes.
        assert!(matches!(b.col(1), ColumnData::I64View(_)));
        assert!(matches!(b.col(2), ColumnData::F64View(_)));
        // Range + gather forms agree too.
        let ar = ColumnBatch::from_page_range(&row, 5..40, &cols);
        let br = ColumnBatch::from_page_range(&col, 5..40, &cols);
        assert_eq!(ar.col(0).i64s(), br.col(0).i64s());
        assert_eq!(ar.col(4).strs(), br.col(4).strs());
        let sel = [3u32, 17, 18, 40, 63];
        let ag = ColumnBatch::gather(&row, &sel, &cols);
        let bg = ColumnBatch::gather(&col, &sel, &cols);
        assert_eq!(ag.col(0).i64s(), bg.col(0).i64s());
        assert_eq!(ag.col(4).strs(), bg.col(4).strs());
    }

    #[test]
    fn predicate_batches_keep_dict_codes() {
        let (_, col) = col_page();
        let b = ColumnBatch::for_predicate(&col, &[4]);
        match b.col(4) {
            ColumnData::DictStr { dict, codes } => {
                assert_eq!(dict.len(), 3);
                assert_eq!(codes.len(), 64);
                for (i, &c) in codes.iter().enumerate() {
                    assert_eq!(dict[c as usize], ["aa", "bbb", "c"][i % 3]);
                }
                assert!(matches!(codes, Cow::Borrowed(_)));
            }
            other => panic!("expected DictStr, got {other:?}"),
        }
        // Gathered through a selection: codes become owned.
        let fb = FactBatch::new(Arc::new(col_page().1), vec![1, 5, 9]);
        let g = fb.columns_for_predicate(&[4]);
        match g.col(4) {
            ColumnData::DictStr { codes, .. } => {
                assert_eq!(codes.len(), 3);
                assert!(matches!(codes, Cow::Owned(_)));
            }
            other => panic!("expected DictStr, got {other:?}"),
        }
    }

    #[test]
    fn columnar_fact_batch_views_match_row_major() {
        let (row, col) = col_page();
        let sel: Vec<u32> = (0..64).filter(|i| i % 3 != 1).collect();
        let a = FactBatch::new(Arc::new(row), sel.clone());
        let mut b = FactBatch::new(Arc::new(col), sel);
        let mut ka = Vec::new();
        let mut kb = Vec::new();
        a.gather_i64_into(0, &mut ka); // RLE column
        b.gather_i64_into(0, &mut kb);
        assert_eq!(ka, kb);
        a.gather_i64_into(1, &mut ka); // plain column
        b.gather_i64_into(1, &mut kb);
        assert_eq!(ka, kb);
        // tuple_bytes_in re-encodes columnar rows to the row codec.
        let mut scratch = Vec::new();
        for t in 0..a.len() {
            assert_eq!(a.tuple_bytes(t), b.tuple_bytes_in(t, &mut scratch));
        }
        // materialize_rows produces the identical arena gather.
        b.materialize_rows();
        for t in 0..a.len() {
            assert_eq!(a.tuple_bytes(t), b.row_bytes(t));
        }
    }
}
