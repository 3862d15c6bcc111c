//! Group-key → dense-slot resolution, compiled once per grouping spec —
//! the registry behind the engine's `Aggregate` operator.
//!
//! Hash aggregation's irreducible cost is one key probe per surviving
//! tuple. What is *not* irreducible is paying a `Vec<u8>` allocation and
//! a SipHash bucket walk for every probe, which is what the byte-key
//! `HashMap<Vec<u8>, u32>` registries both consumers used until PR 5. A
//! [`GroupTable`] compiles the group-by column set against the input
//! schema once and picks the cheapest resolution tier the key shape
//! admits:
//!
//! * [`GroupTier::DenseInt`] — a single `Int` group column. The key is
//!   read in place from the row bytes and probed through a flat
//!   open-addressing [`FlatMap<i64>`] (SplitMix64 + linear probing): no
//!   key bytes are ever built per tuple.
//! * [`GroupTier::Packed`] — any fixed-width column combination whose
//!   concatenated key fits 16 bytes (e.g. two `Int`s, `Int`+`Date`,
//!   short `Char`s). Key bytes are packed into one `u128` on the stack
//!   and probed through a [`FlatMap<u128>`] — again zero allocation per
//!   tuple.
//! * [`GroupTier::ByteKey`] — the arbitrary-shape fallback: keys are
//!   extracted into one reused scratch buffer, hashed (FNV-1a +
//!   SplitMix finish), and chained through a flat hash → head-slot map;
//!   the key bytes themselves are interned into the table's shared
//!   arena, so a new group costs an arena append and a handle push
//!   instead of the two owned `Vec<u8>` allocations the pre-PR-8
//!   `HashMap<Vec<u8>, u32>` fallback paid.
//!
//! All three tiers assign slots in **first-touch order**, so every
//! consumer's output row order is bit-identical to the pre-PR-5
//! registries — pinned by the oracle proptests in
//! `crates/engine/tests/group_props.rs` and the extended five-mode
//! differential fuzzer.
//!
//! Resolution is batch-at-a-time ([`GroupTable::resolve_batch`] /
//! [`GroupTable::resolve_rows`]) with caller-owned scratch.
//! [`GroupTable::radix_partition`] lays a batch out as hash-radix
//! buckets (equal keys never split across buckets), and
//! [`GroupTable::resolve_rows_parallel`] cashes that layout in: each
//! bucket is resolved against a private sub-table on its own
//! [`crate::pool::WorkerPool`] morsel, then a sequential renumbering
//! pass walks the batch in original row order and interns each
//! sub-table key at first sight — so the dense slot numbering (and
//! therefore every consumer's output bytes) is **identical** to the
//! single-threaded path, batch after batch. Batches smaller than
//! [`PARALLEL_MIN_ROWS`] skip the fan-out entirely.

use crate::error::EngineError;
use crate::pool::{Task, WorkerPool};
use qs_storage::flat::{mix64, FlatKey, FlatMap};
use qs_storage::row::read_i64_at;
use qs_storage::{ColumnPage, DataType, FactBatch, Page, Schema};

/// The resolution strategy a [`GroupTable`] compiled to — exposed so
/// tests (and the differential fuzzer) can assert which tier a grouping
/// shape exercises.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GroupTier {
    /// Single `Int` group column probed as a raw `i64`.
    DenseInt,
    /// Fixed-width multi-column key packed into a `u128` (≤ 16 bytes).
    Packed,
    /// Arbitrary key shape through the byte-key `HashMap` fallback.
    ByteKey,
}

/// Widest concatenated key (bytes) the packed tier can hold.
const PACK_BYTES: usize = 16;

enum TierState {
    DenseInt {
        /// Byte offset of the group column within a row.
        off: usize,
        /// Column index (for columnar pages, where there is no row offset).
        col: usize,
        map: FlatMap<i64>,
    },
    Packed {
        map: FlatMap<u128>,
    },
    ByteKey {
        /// Key hash → head slot of the collision chain. Key bytes live in
        /// the table-wide arena; equality walks the chain via `next`.
        map: FlatMap<i64>,
        /// Per-slot chain link (`u32::MAX` ends a chain).
        next: Vec<u32>,
        /// Per-tuple extraction scratch — the fallback's own fix for the
        /// old per-tuple `Vec::with_capacity(key_size)`.
        key_buf: Vec<u8>,
    },
}

/// FNV-1a over raw key bytes — the byte-key tier's pre-mix hash (shared
/// with the radix partitioner so bucket assignment and chain hashing
/// agree).
#[inline]
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h = (h ^ b as u64).wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Intern `key` into the arena and return its new slot.
#[inline]
fn push_key(arena: &mut Vec<u8>, handles: &mut Vec<(u32, u32)>, key: &[u8]) -> u32 {
    let off = arena.len() as u32;
    arena.extend_from_slice(key);
    handles.push((off, key.len() as u32));
    (handles.len() - 1) as u32
}

/// Byte-key resolution primitive: find `key`'s slot through the hash
/// chain, interning it into the arena on a miss (first-touch slot
/// assignment, same as the flat tiers' `get_or_insert_with`).
fn bytekey_slot(
    map: &mut FlatMap<i64>,
    next: &mut Vec<u32>,
    arena: &mut Vec<u8>,
    handles: &mut Vec<(u32, u32)>,
    key: &[u8],
) -> u32 {
    let h = mix64(fnv1a(key)) as i64;
    let head = map.get(h);
    let mut cur = head;
    while let Some(s) = cur {
        let (off, len) = handles[s as usize];
        if &arena[off as usize..(off + len) as usize] == key {
            return s;
        }
        let n = next[s as usize];
        cur = (n != u32::MAX).then_some(n);
    }
    let s = push_key(arena, handles, key);
    next.push(head.unwrap_or(u32::MAX));
    map.insert(h, s);
    s
}

/// A group-by spec compiled against its input schema: key extraction
/// spans plus the tier-specific probe table. Slots are dense `u32`s in
/// first-touch order; [`Self::key_bytes`] recovers the encoded key of a
/// slot for result emission.
pub struct GroupTable {
    /// `(byte offset, width)` of each group column within a row.
    spans: Vec<(usize, usize)>,
    /// Group column indices (the columnar path extracts by column, not
    /// by row offset).
    cols: Vec<usize>,
    key_size: usize,
    state: TierState,
    /// Interned key bytes of every slot, concatenated in first-touch
    /// order — one arena instead of one `Vec<u8>` per group.
    key_arena: Vec<u8>,
    /// Slot → `(offset, len)` handle into `key_arena`.
    key_spans: Vec<(u32, u32)>,
    /// Columnar-path key assembly scratch.
    cell_buf: Vec<u8>,
}

impl GroupTable {
    /// The tier [`Self::compile`] picks for `group_by` over `schema` —
    /// pure classification, usable by tests and plan generators to know
    /// which resolution path a grouping shape lands on.
    pub fn tier_for(group_by: &[usize], schema: &Schema) -> GroupTier {
        if group_by.len() == 1 && schema.dtype(group_by[0]) == DataType::Int {
            return GroupTier::DenseInt;
        }
        let key_size: usize = group_by.iter().map(|&c| schema.dtype(c).width()).sum();
        if key_size <= PACK_BYTES {
            GroupTier::Packed
        } else {
            GroupTier::ByteKey
        }
    }

    /// Compile `group_by` against `schema`. Every page later resolved
    /// must carry exactly this schema.
    pub fn compile(group_by: &[usize], schema: &Schema) -> GroupTable {
        Self::compile_with_hint(group_by, schema, None)
    }

    /// Like [`Self::compile`] but pre-sizes the probe table for an
    /// expected group count (e.g. from table column statistics), so the
    /// hot resolution loop never pays a rehash-and-grow mid-stream.
    pub fn compile_with_hint(
        group_by: &[usize],
        schema: &Schema,
        groups_hint: Option<usize>,
    ) -> GroupTable {
        let spans: Vec<(usize, usize)> = group_by
            .iter()
            .map(|&c| (schema.offset(c), schema.dtype(c).width()))
            .collect();
        let key_size = spans.iter().map(|&(_, w)| w).sum();
        let cap = groups_hint.unwrap_or(0).clamp(64, 1 << 20);
        let state = match Self::tier_for(group_by, schema) {
            GroupTier::DenseInt => TierState::DenseInt {
                off: spans[0].0,
                col: group_by[0],
                map: FlatMap::with_capacity(cap),
            },
            GroupTier::Packed => TierState::Packed {
                map: FlatMap::with_capacity(cap),
            },
            GroupTier::ByteKey => TierState::ByteKey {
                map: FlatMap::with_capacity(cap),
                next: Vec::with_capacity(cap),
                key_buf: Vec::with_capacity(key_size),
            },
        };
        GroupTable {
            spans,
            cols: group_by.to_vec(),
            key_size,
            state,
            key_arena: Vec::with_capacity(groups_hint.unwrap_or(0) * key_size),
            key_spans: Vec::with_capacity(groups_hint.unwrap_or(0)),
            cell_buf: Vec::with_capacity(key_size),
        }
    }

    /// An empty table with the same compiled spec (spans, columns, tier)
    /// — the private sub-table each radix bucket resolves against on the
    /// parallel path.
    fn fresh(&self) -> GroupTable {
        let state = match &self.state {
            TierState::DenseInt { off, col, .. } => TierState::DenseInt {
                off: *off,
                col: *col,
                map: FlatMap::with_capacity(64),
            },
            TierState::Packed { .. } => TierState::Packed {
                map: FlatMap::with_capacity(64),
            },
            TierState::ByteKey { .. } => TierState::ByteKey {
                map: FlatMap::with_capacity(64),
                next: Vec::new(),
                key_buf: Vec::new(),
            },
        };
        GroupTable {
            spans: self.spans.clone(),
            cols: self.cols.clone(),
            key_size: self.key_size,
            state,
            key_arena: Vec::new(),
            key_spans: Vec::new(),
            cell_buf: Vec::new(),
        }
    }

    /// Forget every interned group but keep all allocations — the
    /// per-batch reset of the parallel path's bucket sub-tables.
    fn reset(&mut self) {
        self.key_arena.clear();
        self.key_spans.clear();
        self.cell_buf.clear();
        match &mut self.state {
            TierState::DenseInt { map, .. } => map.clear(),
            TierState::Packed { map } => map.clear(),
            TierState::ByteKey { map, next, key_buf } => {
                map.clear();
                next.clear();
                key_buf.clear();
            }
        }
    }

    /// The tier this table resolves through.
    pub fn tier(&self) -> GroupTier {
        match self.state {
            TierState::DenseInt { .. } => GroupTier::DenseInt,
            TierState::Packed { .. } => GroupTier::Packed,
            TierState::ByteKey { .. } => GroupTier::ByteKey,
        }
    }

    /// Number of distinct groups interned so far.
    pub fn len(&self) -> usize {
        self.key_spans.len()
    }

    /// Whether no group has been interned yet.
    pub fn is_empty(&self) -> bool {
        self.key_spans.is_empty()
    }

    /// Concatenated key bytes (kept in first-touch order).
    pub fn key_size(&self) -> usize {
        self.key_size
    }

    /// Encoded key bytes of group `slot` — the raw column bytes in
    /// group-by order, exactly what result emission copies into the
    /// output row prefix.
    #[inline]
    pub fn key_bytes(&self, slot: usize) -> &[u8] {
        let (off, len) = self.key_spans[slot];
        &self.key_arena[off as usize..(off + len) as usize]
    }

    /// Resolve every surviving tuple of `batch` to its dense group slot:
    /// `out[i]` is the slot of batch tuple `i`. `out` is cleared first
    /// and reused across batches; tiers [`GroupTier::DenseInt`] and
    /// [`GroupTier::Packed`] allocate nothing per tuple, the fallback
    /// allocates only when a new group is interned.
    pub fn resolve_batch(&mut self, batch: &FactBatch, out: &mut Vec<u32>) {
        self.resolve_rows(batch.page(), batch.sel(), out);
    }

    /// Resolve page rows `rows` (any order, any subset) to dense group
    /// slots.
    pub fn resolve_rows(&mut self, page: &Page, rows: &[u32], out: &mut Vec<u32>) {
        out.clear();
        out.reserve(rows.len());
        if let Some(cp) = page.column_page() {
            self.resolve_rows_columnar(cp, rows, out);
            return;
        }
        let data = page.raw();
        let rs = page.schema().row_size();
        let arena = &mut self.key_arena;
        let handles = &mut self.key_spans;
        match &mut self.state {
            TierState::DenseInt { off, map, .. } => {
                let off = *off;
                for &r in rows {
                    let k = read_i64_at(data, r as usize * rs + off);
                    let slot = map
                        .get_or_insert_with(k, || push_key(arena, handles, &k.to_le_bytes()));
                    out.push(slot);
                }
            }
            TierState::Packed { map } => {
                let spans = &self.spans;
                let key_size = self.key_size;
                for &r in rows {
                    let row = &data[r as usize * rs..(r as usize + 1) * rs];
                    let mut buf = [0u8; PACK_BYTES];
                    let mut p = 0usize;
                    for &(off, w) in spans {
                        buf[p..p + w].copy_from_slice(&row[off..off + w]);
                        p += w;
                    }
                    let k = u128::from_le_bytes(buf);
                    let slot = map
                        .get_or_insert_with(k, || push_key(arena, handles, &buf[..key_size]));
                    out.push(slot);
                }
            }
            TierState::ByteKey { map, next, key_buf } => {
                let spans = &self.spans;
                for &r in rows {
                    let row = &data[r as usize * rs..(r as usize + 1) * rs];
                    key_buf.clear();
                    for &(off, w) in spans {
                        key_buf.extend_from_slice(&row[off..off + w]);
                    }
                    out.push(bytekey_slot(map, next, arena, handles, key_buf));
                }
            }
        }
    }

    /// Columnar twin of the row-major resolution body: keys are read
    /// straight from the column arrays (`i64_at` for the dense-int tier,
    /// per-column `extend_cell` otherwise) — no row needs to exist in
    /// encoded form. Tier, slot numbering, and first-touch order are
    /// identical to the row-major path.
    fn resolve_rows_columnar(&mut self, cp: &ColumnPage, rows: &[u32], out: &mut Vec<u32>) {
        let arena = &mut self.key_arena;
        let handles = &mut self.key_spans;
        match &mut self.state {
            TierState::DenseInt { col, map, .. } => {
                let arr = cp.array(*col);
                for &r in rows {
                    let k = arr.i64_at(r as usize);
                    let slot = map
                        .get_or_insert_with(k, || push_key(arena, handles, &k.to_le_bytes()));
                    out.push(slot);
                }
            }
            TierState::Packed { map } => {
                let cols = &self.cols;
                let key_size = self.key_size;
                let cell = &mut self.cell_buf;
                for &r in rows {
                    cell.clear();
                    for &c in cols {
                        cp.array(c).extend_cell(r as usize, cell);
                    }
                    let mut buf = [0u8; PACK_BYTES];
                    buf[..key_size].copy_from_slice(cell);
                    let slot = map.get_or_insert_with(u128::from_le_bytes(buf), || {
                        push_key(arena, handles, cell)
                    });
                    out.push(slot);
                }
            }
            TierState::ByteKey { map, next, key_buf } => {
                let cols = &self.cols;
                for &r in rows {
                    key_buf.clear();
                    for &c in cols {
                        cp.array(c).extend_cell(r as usize, key_buf);
                    }
                    out.push(bytekey_slot(map, next, arena, handles, key_buf));
                }
            }
        }
    }

    /// Intern an already-encoded key (concatenated group-column bytes,
    /// exactly [`Self::key_size`] long) and return its slot — the entry
    /// point for the scalar-aggregate bootstrap (empty key over empty
    /// input) and for oracles that replay recorded keys.
    pub fn intern_key(&mut self, key: &[u8]) -> u32 {
        debug_assert_eq!(key.len(), self.key_size);
        let arena = &mut self.key_arena;
        let handles = &mut self.key_spans;
        match &mut self.state {
            TierState::DenseInt { map, .. } => {
                let k = i64::from_le_bytes(key.try_into().expect("8-byte Int key"));
                map.get_or_insert_with(k, || push_key(arena, handles, key))
            }
            TierState::Packed { map } => {
                let mut buf = [0u8; PACK_BYTES];
                buf[..key.len()].copy_from_slice(key);
                map.get_or_insert_with(u128::from_le_bytes(buf), || {
                    push_key(arena, handles, key)
                })
            }
            TierState::ByteKey { map, next, .. } => {
                bytekey_slot(map, next, arena, handles, key)
            }
        }
    }

    /// Hash-radix layout of one batch: bucket the rows of `rows` by the
    /// top [`RadixScratch::BITS`] bits of their key hash into
    /// `scratch.buckets`. Rows with equal keys always land in the same
    /// bucket, so each bucket is resolved by an independent worker
    /// against a private table — the layout
    /// [`Self::resolve_rows_parallel`] fans out across the morsel pool.
    pub fn radix_partition(&self, page: &Page, rows: &[u32], scratch: &mut RadixScratch) {
        scratch.hashes.clear();
        scratch.hashes.reserve(rows.len());
        if let Some(cp) = page.column_page() {
            let mut cell: Vec<u8> = Vec::with_capacity(self.key_size);
            match &self.state {
                TierState::DenseInt { col, .. } => {
                    let arr = cp.array(*col);
                    for &r in rows {
                        scratch.hashes.push(arr.i64_at(r as usize).mix());
                    }
                }
                TierState::Packed { .. } => {
                    for &r in rows {
                        cell.clear();
                        for &c in &self.cols {
                            cp.array(c).extend_cell(r as usize, &mut cell);
                        }
                        let mut buf = [0u8; PACK_BYTES];
                        buf[..cell.len()].copy_from_slice(&cell);
                        scratch.hashes.push(u128::from_le_bytes(buf).mix());
                    }
                }
                TierState::ByteKey { .. } => {
                    for &r in rows {
                        cell.clear();
                        for &c in &self.cols {
                            cp.array(c).extend_cell(r as usize, &mut cell);
                        }
                        let mut h = 0xcbf2_9ce4_8422_2325u64;
                        for &b in &cell {
                            h = (h ^ b as u64).wrapping_mul(0x100_0000_01b3);
                        }
                        scratch.hashes.push(mix64(h));
                    }
                }
            }
            for b in &mut scratch.buckets {
                b.clear();
            }
            for (i, &h) in scratch.hashes.iter().enumerate() {
                let part = (h >> (64 - RadixScratch::BITS)) as usize;
                scratch.buckets[part].push(rows[i]);
            }
            return;
        }
        let data = page.raw();
        let rs = page.schema().row_size();
        match &self.state {
            TierState::DenseInt { off, .. } => {
                for &r in rows {
                    scratch
                        .hashes
                        .push(read_i64_at(data, r as usize * rs + off).mix());
                }
            }
            TierState::Packed { .. } => {
                for &r in rows {
                    let row = &data[r as usize * rs..(r as usize + 1) * rs];
                    let mut buf = [0u8; PACK_BYTES];
                    let mut p = 0usize;
                    for &(off, w) in &self.spans {
                        buf[p..p + w].copy_from_slice(&row[off..off + w]);
                        p += w;
                    }
                    scratch.hashes.push(u128::from_le_bytes(buf).mix());
                }
            }
            TierState::ByteKey { .. } => {
                for &r in rows {
                    let row = &data[r as usize * rs..(r as usize + 1) * rs];
                    // FNV-1a over the key spans, SplitMix-finished so the
                    // top radix bits avalanche like the flat tiers'.
                    let mut h = 0xcbf2_9ce4_8422_2325u64;
                    for &(off, w) in &self.spans {
                        for &b in &row[off..off + w] {
                            h = (h ^ b as u64).wrapping_mul(0x100_0000_01b3);
                        }
                    }
                    scratch.hashes.push(mix64(h));
                }
            }
        }
        for b in &mut scratch.buckets {
            b.clear();
        }
        for (i, &h) in scratch.hashes.iter().enumerate() {
            let part = (h >> (64 - RadixScratch::BITS)) as usize;
            scratch.buckets[part].push(rows[i]);
        }
    }

    /// [`Self::resolve_batch`] with the per-bucket fan-out of
    /// [`Self::resolve_rows_parallel`].
    pub fn resolve_batch_parallel(
        &mut self,
        batch: &FactBatch,
        pool: &WorkerPool,
        scratch: &mut ParallelScratch,
        out: &mut Vec<u32>,
    ) -> Result<(), EngineError> {
        self.resolve_rows_parallel(batch.page(), batch.sel(), pool, scratch, out)
    }

    /// Parallel twin of [`Self::resolve_rows`]: radix-partition the
    /// batch, resolve every bucket against a private sub-table on its
    /// own pool morsel, then renumber sub-table slots into this table in
    /// original row order — first-touch slot numbering (and therefore
    /// every consumer's output bytes) is identical to the sequential
    /// path, because a global slot is interned exactly when the
    /// sequential loop would first have seen its key. The renumber pass
    /// probes this table once per *distinct group per batch*, not per
    /// row; the per-row probes all happen in the parallel sub-tables.
    ///
    /// Batches under [`PARALLEL_MIN_ROWS`] rows (or a 1-worker pool) use
    /// the sequential path directly — the fan-out costs one partition
    /// pass plus task dispatch, which small batches cannot amortize.
    ///
    /// `Err` means a bucket task panicked or was killed by the
    /// `pool.task` failpoint; `out` holds garbage and the caller must
    /// abort the query (this table's interned groups remain valid —
    /// sub-tables are merged only by the renumber pass, which runs only
    /// when every bucket resolved cleanly).
    pub fn resolve_rows_parallel(
        &mut self,
        page: &Page,
        rows: &[u32],
        pool: &WorkerPool,
        scratch: &mut ParallelScratch,
        out: &mut Vec<u32>,
    ) -> Result<(), EngineError> {
        if pool.workers() <= 1 || rows.len() < PARALLEL_MIN_ROWS {
            self.resolve_rows(page, rows, out);
            return Ok(());
        }
        self.radix_partition(page, rows, &mut scratch.radix);
        let nb = scratch.radix.buckets.len();
        if scratch.subs.len() != nb {
            scratch.subs = (0..nb).map(|_| self.fresh()).collect();
        } else {
            for sub in &mut scratch.subs {
                sub.reset();
            }
        }
        scratch.local.resize_with(nb, Vec::new);
        {
            let ParallelScratch {
                radix, subs, local, ..
            } = scratch;
            let mut tasks: Vec<Task<'_>> = Vec::with_capacity(nb);
            for ((sub, local_b), bucket) in subs
                .iter_mut()
                .zip(local.iter_mut())
                .zip(radix.buckets.iter())
            {
                local_b.clear();
                if bucket.is_empty() {
                    continue;
                }
                tasks.push(Box::new(move || sub.resolve_rows(page, bucket, local_b)));
            }
            pool.run(tasks)?;
        }
        // Renumbering merge: walk the batch in original row order
        // (scratch.radix.hashes is aligned with `rows`; bucket vectors
        // preserve input order, so a per-bucket cursor recovers each
        // row's local slot without any lookup).
        let ParallelScratch {
            radix,
            subs,
            local,
            global_of,
            cursors,
        } = scratch;
        cursors.clear();
        cursors.resize(nb, 0);
        global_of.resize_with(nb, Vec::new);
        for (g, sub) in global_of.iter_mut().zip(subs.iter()) {
            g.clear();
            g.resize(sub.len(), u32::MAX);
        }
        out.clear();
        out.reserve(rows.len());
        for &h in radix.hashes.iter() {
            let b = (h >> (64 - RadixScratch::BITS)) as usize;
            let l = local[b][cursors[b]] as usize;
            cursors[b] += 1;
            let mut g = global_of[b][l];
            if g == u32::MAX {
                g = self.intern_key(subs[b].key_bytes(l));
                global_of[b][l] = g;
            }
            out.push(g);
        }
        Ok(())
    }
}

/// Minimum batch size (surviving rows) for the parallel resolution
/// fan-out; smaller batches stay on the sequential path.
pub const PARALLEL_MIN_ROWS: usize = 1024;

/// Reusable scratch for [`GroupTable::resolve_rows_parallel`]: the radix
/// buckets, the per-bucket private sub-tables (kept allocated across
/// batches), their local slot outputs, and the renumbering maps.
pub struct ParallelScratch {
    radix: RadixScratch,
    subs: Vec<GroupTable>,
    local: Vec<Vec<u32>>,
    global_of: Vec<Vec<u32>>,
    cursors: Vec<usize>,
}

impl ParallelScratch {
    /// Empty scratch; sub-tables are created lazily from the target
    /// table's compiled spec on first parallel batch.
    pub fn new() -> ParallelScratch {
        ParallelScratch {
            radix: RadixScratch::new(),
            subs: Vec::new(),
            local: Vec::new(),
            global_of: Vec::new(),
            cursors: Vec::new(),
        }
    }
}

impl Default for ParallelScratch {
    fn default() -> Self {
        Self::new()
    }
}

/// Reusable buckets for [`GroupTable::radix_partition`].
pub struct RadixScratch {
    /// Per-row key hashes of the last partitioned batch.
    pub hashes: Vec<u64>,
    /// Row buckets, `1 << BITS` of them.
    pub buckets: Vec<Vec<u32>>,
}

impl RadixScratch {
    /// Radix width: 16 buckets — enough fan-out for the core counts this
    /// container family sees, small enough that per-batch bucket clears
    /// stay free.
    pub const BITS: usize = 4;

    /// Empty scratch with all buckets allocated.
    pub fn new() -> RadixScratch {
        RadixScratch {
            hashes: Vec::new(),
            buckets: (0..1usize << Self::BITS).map(|_| Vec::new()).collect(),
        }
    }
}

impl Default for RadixScratch {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qs_storage::Value;
    use std::collections::HashMap;
    use std::sync::Arc;

    fn schema() -> Arc<Schema> {
        Schema::from_pairs(&[
            ("i", DataType::Int),
            ("d", DataType::Date),
            ("c", DataType::Char(3)),
            ("wide", DataType::Char(20)),
            ("j", DataType::Int),
        ])
    }

    fn page(rows: &[(i64, u32, &str, &str, i64)]) -> Page {
        let vals: Vec<Vec<Value>> = rows
            .iter()
            .map(|&(i, d, c, w, j)| {
                vec![
                    Value::Int(i),
                    Value::Date(d),
                    Value::Str(c.into()),
                    Value::Str(w.into()),
                    Value::Int(j),
                ]
            })
            .collect();
        Page::from_values(&schema(), &vals).unwrap()
    }

    #[test]
    fn tier_selection_by_shape() {
        let s = schema();
        assert_eq!(GroupTable::tier_for(&[0], &s), GroupTier::DenseInt);
        assert_eq!(GroupTable::tier_for(&[4], &s), GroupTier::DenseInt);
        assert_eq!(GroupTable::tier_for(&[1], &s), GroupTier::Packed); // single Date
        assert_eq!(GroupTable::tier_for(&[0, 4], &s), GroupTier::Packed); // 16 B
        assert_eq!(GroupTable::tier_for(&[1, 2], &s), GroupTier::Packed); // 7 B
        assert_eq!(GroupTable::tier_for(&[], &s), GroupTier::Packed); // scalar
        assert_eq!(GroupTable::tier_for(&[3], &s), GroupTier::ByteKey); // 20 B
        assert_eq!(GroupTable::tier_for(&[0, 1, 4], &s), GroupTier::ByteKey); // 20 B
    }

    #[test]
    fn first_touch_order_all_tiers() {
        let p = page(&[
            (5, 20260101, "aa", "left-padded-wide-00", -1),
            (3, 20260102, "bb", "left-padded-wide-01", -1),
            (5, 20260101, "aa", "left-padded-wide-00", -1),
            (i64::MIN, 20260103, "cc", "left-padded-wide-02", 7),
            (3, 20260102, "bb", "left-padded-wide-01", -1),
        ]);
        let rows: Vec<u32> = (0..5).collect();
        for group_by in [vec![0], vec![1, 2], vec![3]] {
            let mut t = GroupTable::compile(&group_by, &schema());
            let mut slots = Vec::new();
            t.resolve_rows(&p, &rows, &mut slots);
            assert_eq!(slots, vec![0, 1, 0, 2, 1], "{group_by:?}");
            assert_eq!(t.len(), 3);
            // Resolving again yields the same slots, no new groups.
            t.resolve_rows(&p, &rows, &mut slots);
            assert_eq!(slots, vec![0, 1, 0, 2, 1]);
            assert_eq!(t.len(), 3);
        }
    }

    #[test]
    fn columnar_resolution_matches_row_major() {
        let p = page(&[
            (5, 20260101, "aa", "left-padded-wide-00", -1),
            (3, 20260102, "bb", "left-padded-wide-01", -1),
            (5, 20260101, "aa", "left-padded-wide-00", -1),
            (i64::MIN, 20260103, "cc", "left-padded-wide-02", 7),
            (3, 20260102, "bb", "left-padded-wide-01", -1),
        ]);
        let c = p.to_columnar();
        let rows: Vec<u32> = (0..5).collect();
        for group_by in [vec![0], vec![1, 2], vec![3]] {
            let mut tr = GroupTable::compile(&group_by, &schema());
            let mut tc = GroupTable::compile_with_hint(&group_by, &schema(), Some(8));
            assert_eq!(tr.tier(), tc.tier());
            let (mut sr, mut sc) = (Vec::new(), Vec::new());
            tr.resolve_rows(&p, &rows, &mut sr);
            tc.resolve_rows(&c, &rows, &mut sc);
            assert_eq!(sr, sc, "{group_by:?}");
            assert_eq!(tr.len(), tc.len());
            for g in 0..tr.len() {
                assert_eq!(tr.key_bytes(g), tc.key_bytes(g));
            }
            let (mut a, mut b) = (RadixScratch::new(), RadixScratch::new());
            tr.radix_partition(&p, &rows, &mut a);
            tc.radix_partition(&c, &rows, &mut b);
            assert_eq!(a.buckets, b.buckets, "{group_by:?}");
        }
    }

    #[test]
    fn key_bytes_roundtrip() {
        let p = page(&[(42, 19991231, "xy", "w", -9)]);
        let mut t = GroupTable::compile(&[0, 1], &schema());
        let mut slots = Vec::new();
        t.resolve_rows(&p, &[0], &mut slots);
        assert_eq!(slots, [0]);
        let key = t.key_bytes(0);
        assert_eq!(key.len(), 12);
        assert_eq!(i64::from_le_bytes(key[..8].try_into().unwrap()), 42);
        assert_eq!(u32::from_le_bytes(key[8..].try_into().unwrap()), 19991231);
    }

    #[test]
    fn intern_key_matches_resolution() {
        let p = page(&[(7, 1, "a", "w", 0)]);
        let mut t = GroupTable::compile(&[0], &schema());
        let slot = t.intern_key(&7i64.to_le_bytes());
        assert_eq!(slot, 0);
        let mut slots = Vec::new();
        t.resolve_rows(&p, &[0], &mut slots);
        assert_eq!(slots, [0]); // same group, not a new slot
        assert_eq!(t.len(), 1);
        // Scalar bootstrap: empty key over an empty-group_by table.
        let mut scalar = GroupTable::compile(&[], &schema());
        assert_eq!(scalar.intern_key(&[]), 0);
        assert_eq!(scalar.intern_key(&[]), 0);
        assert_eq!(scalar.len(), 1);
    }

    #[test]
    fn resolve_batch_uses_selection() {
        let p = Arc::new(page(&[
            (1, 0, "a", "w", 0),
            (2, 0, "a", "w", 0),
            (1, 0, "a", "w", 0),
            (3, 0, "a", "w", 0),
        ]));
        let fb = FactBatch::new(p, vec![1, 3]);
        let mut t = GroupTable::compile(&[0], &schema());
        let mut slots = Vec::new();
        t.resolve_batch(&fb, &mut slots);
        assert_eq!(slots, [0, 1]); // keys 2 then 3; row 0/2 never touched
        assert_eq!(t.key_bytes(0), &2i64.to_le_bytes());
    }

    #[test]
    fn parallel_resolution_matches_sequential_slot_for_slot() {
        // Runs worker-pool tasks: serialize on the fault registry.
        let _guard = qs_storage::fault::test_guard();
        use crate::metrics::Metrics;
        use crate::pool::WorkerPool;
        // Enough rows to clear PARALLEL_MIN_ROWS, spread over two
        // batches so cross-batch first-touch numbering is exercised.
        let mk_rows = |salt: i64| -> Vec<(i64, u32, &'static str, &'static str, i64)> {
            (0..(PARALLEL_MIN_ROWS as i64 + 500))
                .map(|i| {
                    let k = (i * 7 + salt) % 97;
                    (
                        k,
                        20260101 + (k as u32 % 5),
                        "kk",
                        ["wide-key-payload-aa", "wide-key-payload-bb", "wide-key-payload-cc"]
                            [(k % 3) as usize],
                        i,
                    )
                })
                .collect()
        };
        let p1 = page(&mk_rows(0));
        let p2 = page(&mk_rows(13));
        let all: Vec<u32> = (0..p1.rows() as u32).collect();
        for group_by in [vec![0], vec![0, 1], vec![3], vec![0, 1, 3]] {
            for workers in [2, 4] {
                let pool = WorkerPool::new(workers, Metrics::new());
                let mut seq = GroupTable::compile(&group_by, &schema());
                let mut par = GroupTable::compile(&group_by, &schema());
                let mut scratch = ParallelScratch::new();
                let (mut s_out, mut p_out) = (Vec::new(), Vec::new());
                for p in [&p1, &p2, &p1] {
                    seq.resolve_rows(p, &all, &mut s_out);
                    par.resolve_rows_parallel(p, &all, &pool, &mut scratch, &mut p_out)
                        .unwrap();
                    assert_eq!(s_out, p_out, "{group_by:?} workers={workers}");
                }
                assert_eq!(seq.len(), par.len());
                for g in 0..seq.len() {
                    assert_eq!(seq.key_bytes(g), par.key_bytes(g), "slot {g}");
                }
            }
        }
    }

    #[test]
    fn parallel_resolution_matches_on_columnar_pages() {
        // Runs worker-pool tasks: serialize on the fault registry.
        let _guard = qs_storage::fault::test_guard();
        use crate::metrics::Metrics;
        use crate::pool::WorkerPool;
        let rows: Vec<(i64, u32, &str, &str, i64)> = (0..(PARALLEL_MIN_ROWS as i64 * 2))
            .map(|i| (i % 31, 20260101, "aa", "wide-key-payload-xx", i))
            .collect();
        let p = page(&rows).to_columnar();
        let all: Vec<u32> = (0..rows.len() as u32).collect();
        let pool = WorkerPool::new(4, Metrics::new());
        let mut seq = GroupTable::compile(&[0], &schema());
        let mut par = GroupTable::compile(&[0], &schema());
        let mut scratch = ParallelScratch::new();
        let (mut s_out, mut p_out) = (Vec::new(), Vec::new());
        seq.resolve_rows(&p, &all, &mut s_out);
        par.resolve_rows_parallel(&p, &all, &pool, &mut scratch, &mut p_out)
            .unwrap();
        assert_eq!(s_out, p_out);
    }

    #[test]
    fn small_batches_stay_sequential() {
        use crate::metrics::Metrics;
        use crate::pool::WorkerPool;
        let m = Metrics::new();
        let pool = WorkerPool::new(4, m.clone());
        let p = page(&[(1, 0, "a", "w", 0), (2, 0, "a", "w", 0)]);
        let mut t = GroupTable::compile(&[0], &schema());
        let mut scratch = ParallelScratch::new();
        let mut out = Vec::new();
        t.resolve_rows_parallel(&p, &[0, 1], &pool, &mut scratch, &mut out)
            .unwrap();
        assert_eq!(out, [0, 1]);
        assert_eq!(m.snapshot().pool_tasks, 0, "below-threshold batch must not fan out");
    }

    #[test]
    fn bytekey_arena_interning_survives_hash_chains() {
        // Many distinct wide keys: hash chaining plus arena handles must
        // resolve every one and keep first-touch numbering.
        let rows: Vec<(i64, u32, &str, &str, i64)> = (0..256)
            .map(|i| (i, 0, "aa", "wide-key-payload-xx", i % 17))
            .collect();
        let p = page(&rows);
        let all: Vec<u32> = (0..256).collect();
        // (wide, j) is 28 bytes → ByteKey; wide is constant so slots
        // follow j's first-touch order: 0..17 then repeats.
        let mut t = GroupTable::compile(&[3, 4], &schema());
        assert_eq!(t.tier(), GroupTier::ByteKey);
        let mut out = Vec::new();
        t.resolve_rows(&p, &all, &mut out);
        assert_eq!(t.len(), 17);
        for (i, &s) in out.iter().enumerate() {
            assert_eq!(s as i64, (i as i64) % 17);
        }
        let mut expect = Vec::new();
        expect.extend_from_slice("wide-key-payload-xx ".as_bytes()); // space-padded Char(20)
        expect.extend_from_slice(&3i64.to_le_bytes());
        assert_eq!(t.key_bytes(3), &expect[..]);
    }

    #[test]
    fn radix_partition_is_stable_and_complete() {
        let rows: Vec<(i64, u32, &str, &str, i64)> = (0..64)
            .map(|i| (i % 7, 20260101 + (i as u32 % 3), "kk", "wide-key-payload-xx", i))
            .collect();
        let p = page(&rows);
        let all: Vec<u32> = (0..64).collect();
        for group_by in [vec![0], vec![0, 1], vec![3]] {
            let t = GroupTable::compile(&group_by, &schema());
            let mut scratch = RadixScratch::new();
            t.radix_partition(&p, &all, &mut scratch);
            let mut seen: Vec<u32> =
                scratch.buckets.iter().flatten().copied().collect();
            seen.sort_unstable();
            assert_eq!(seen, all, "{group_by:?}: buckets must partition the batch");
            // Equal keys must share a bucket: map key → bucket and check.
            let mut by_key: HashMap<Vec<u8>, usize> = HashMap::new();
            for (b, bucket) in scratch.buckets.iter().enumerate() {
                for &r in bucket {
                    let row = p.row(r as usize);
                    let mut key = Vec::new();
                    for &c in &group_by {
                        let off = schema().offset(c);
                        let w = schema().dtype(c).width();
                        key.extend_from_slice(&row.bytes()[off..off + w]);
                    }
                    let prev = by_key.insert(key, b);
                    if let Some(prev) = prev {
                        assert_eq!(prev, b, "equal keys split across buckets");
                    }
                }
            }
        }
    }
}
