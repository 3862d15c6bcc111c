//! Physical operators: the bodies of stage packets.
//!
//! Each operator is a blocking pull(inputs)/push(hub) loop over
//! [`EngineBatch`]es — shared pages annotated with the selection of
//! surviving rows. Selections flow; row bytes do not: `Scan` and `Filter`
//! emit `(page, selection)` without building intermediate pages, and
//! downstream operators read the tuples they need through gathered views
//! ([`FactBatch::columns`], [`FactBatch::gather_i64_into`],
//! [`FactBatch::tuple_bytes`]). Fresh pages are built only where rows are
//! genuinely new or long-lived: aggregate/join/sort/projection *output*,
//! the join build side, and the client-facing final output.
//!
//! CPU-bound per-batch work runs under a core permit from the
//! [`CoreGovernor`]; waits on inputs, outputs and simulated disk do not
//! hold a permit.

use crate::ctl::QueryCtl;
use crate::error::EngineError;
use crate::fifo::{BatchSource, EngineBatch};
use crate::governor::CoreGovernor;
use crate::group::{GroupTable, ParallelScratch};
use crate::hub::OutputHub;
use crate::kernels::{kernel_columns, update_grouped, AccVec, AggKernel};
use crate::metrics::Metrics;
use crate::pool::{Task, WorkerPool};
use qs_plan::compiled::{refine_selection, selection_from_mask};
use qs_plan::{AggSpec, CompiledPred, Expr, PredScratch};
use qs_storage::{
    BufferPool, CircularCursor, ColumnBatch, DataType, FactBatch, Page, PageBuilder, Schema,
    Table,
};
use std::collections::HashMap;
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// Shared execution context handed to every packet.
pub struct ExecCtx {
    /// Buffer pool (scans read through it).
    pub pool: Arc<BufferPool>,
    /// CPU-parallelism governor.
    pub governor: Arc<CoreGovernor>,
    /// Metrics sink.
    pub metrics: Arc<Metrics>,
    /// Morsel worker pool shared by every operator (group resolution,
    /// parallel scans, the CJOIN preprocessor).
    pub workers: Arc<WorkerPool>,
    /// Byte budget for operator output pages.
    pub out_page_bytes: usize,
}

/// The physical operator of one packet.
pub enum PhysicalOp {
    /// Circular table scan with optional selection and projection.
    Scan {
        /// Table to scan.
        table: Arc<Table>,
        /// Selection over the table schema.
        predicate: Option<Expr>,
        /// Columns to emit; `None` = all.
        projection: Option<Vec<usize>>,
        /// Output schema (projected or full).
        out_schema: Arc<Schema>,
    },
    /// Standalone selection.
    Filter {
        /// Predicate over the input schema.
        predicate: Expr,
    },
    /// Hash equi-join: `inputs[0]` is built, `inputs[1]` probes.
    HashJoin {
        /// Key column in the build schema.
        build_key: usize,
        /// Key column in the probe schema.
        probe_key: usize,
        /// `probe ++ build` output schema.
        out_schema: Arc<Schema>,
    },
    /// Hash aggregation.
    Aggregate {
        /// Group-by columns over the input schema.
        group_by: Vec<usize>,
        /// Aggregate specs.
        aggs: Vec<AggSpec>,
        /// Input schema.
        in_schema: Arc<Schema>,
        /// Output schema (group cols then agg cols).
        out_schema: Arc<Schema>,
        /// Expected group count from table statistics (pre-sizes the
        /// group table); `None` = unknown.
        groups_hint: Option<usize>,
    },
    /// Full sort.
    Sort {
        /// `(column, ascending)` keys.
        keys: Vec<(usize, bool)>,
        /// Row schema (unchanged by sort).
        schema: Arc<Schema>,
    },
    /// Projection.
    Project {
        /// Columns to keep.
        columns: Vec<usize>,
        /// Output schema.
        out_schema: Arc<Schema>,
    },
    /// First-n rows.
    Limit {
        /// Row budget.
        n: usize,
        /// Row schema (unchanged).
        schema: Arc<Schema>,
    },
    /// Whole-row duplicate elimination (first occurrence wins).
    Distinct {
        /// Row schema (unchanged).
        schema: Arc<Schema>,
    },
    /// Heap-based top-n in key order.
    TopK {
        /// `(column, ascending)` keys.
        keys: Vec<(usize, bool)>,
        /// Rows to keep.
        n: usize,
        /// Row schema (unchanged).
        schema: Arc<Schema>,
    },
}

/// Execute one packet body: read `inputs`, write to `hub`. The caller
/// (stage worker) is responsible for `hub.finish()` / `hub.abort()`.
///
/// `ctl` is the owning query's control block, present only when the
/// packet is *exclusive* (not registered for simultaneous pipelining):
/// a shared producer must never be killed by one subscriber's deadline,
/// so shared packets observe control solely at the ticket boundary.
pub fn execute(
    op: &PhysicalOp,
    inputs: &mut [Box<dyn BatchSource>],
    hub: &OutputHub,
    ctx: &ExecCtx,
    ctl: Option<&QueryCtl>,
) -> Result<(), EngineError> {
    match op {
        PhysicalOp::Scan {
            table,
            predicate,
            projection,
            out_schema,
        } => run_scan(table, predicate.as_ref(), projection.as_deref(), out_schema, hub, ctx, ctl),
        PhysicalOp::Filter { predicate } => run_filter(predicate, &mut inputs[0], hub, ctx, ctl),
        PhysicalOp::HashJoin {
            build_key,
            probe_key,
            out_schema,
        } => {
            let (build, probe) = inputs.split_at_mut(1);
            run_hash_join(
                *build_key,
                *probe_key,
                out_schema,
                &mut build[0],
                &mut probe[0],
                hub,
                ctx,
                ctl,
            )
        }
        PhysicalOp::Aggregate {
            group_by,
            aggs,
            in_schema,
            out_schema,
            groups_hint,
        } => run_aggregate(
            group_by,
            aggs,
            in_schema,
            out_schema,
            *groups_hint,
            &mut inputs[0],
            hub,
            ctx,
            ctl,
        ),
        PhysicalOp::Sort { keys, schema } => run_sort(keys, schema, &mut inputs[0], hub, ctx, ctl),
        PhysicalOp::Project { columns, out_schema } => {
            run_project(columns, out_schema, &mut inputs[0], hub, ctx, ctl)
        }
        PhysicalOp::Limit { n, schema } => run_limit(*n, schema, &mut inputs[0], hub, ctx, ctl),
        PhysicalOp::Distinct { schema } => run_distinct(schema, &mut inputs[0], hub, ctx, ctl),
        PhysicalOp::TopK { keys, n, schema } => {
            run_topk(keys, *n, schema, &mut inputs[0], hub, ctx, ctl)
        }
    }
}

/// Batch-boundary control check for exclusive packets; a no-op for
/// shared packets (`ctl == None`).
#[inline]
fn ctl_check(ctl: Option<&QueryCtl>) -> Result<(), EngineError> {
    match ctl {
        Some(c) => c.check(),
        None => Ok(()),
    }
}

/// Precompute the `(byte offset, width)` span of each column — hoists the
/// repeated `schema.offset`/`dtype` lookups out of per-row loops.
fn column_spans(schema: &Schema, columns: &[usize]) -> Vec<(usize, usize)> {
    columns
        .iter()
        .map(|&c| (schema.offset(c), schema.dtype(c).width()))
        .collect()
}

/// Copy precomputed column spans of an encoded row into `buf`.
#[inline]
fn project_spans_into(row: &[u8], spans: &[(usize, usize)], buf: &mut Vec<u8>) {
    buf.clear();
    for &(off, w) in spans {
        buf.extend_from_slice(&row[off..off + w]);
    }
}

/// Flush the emit buffer once the buffered survivors amount to a dense
/// page's worth of tuples…
const EMIT_ROWS: usize = 256;
/// …or once this many batches are buffered (bounds how many upstream
/// pages a selective producer retains before its consumer sees them).
const EMIT_BATCHES: usize = 32;

/// Producer-side grouping of sparse batches.
///
/// A selective scan emits one tiny batch per table page; pushing each one
/// through the hub costs a consumer wakeup that dwarfs the batch's own
/// processing. The buffer accumulates batches until they amount to
/// [`EMIT_ROWS`] survivors (or [`EMIT_BATCHES`] pages) and hands the
/// group to [`OutputHub::push_many`] — one lock, one wakeup. Dense
/// batches meet the row threshold alone and flow through unbuffered.
struct EmitBuffer {
    batches: Vec<EngineBatch>,
    rows: usize,
}

impl EmitBuffer {
    fn new() -> EmitBuffer {
        EmitBuffer {
            batches: Vec::new(),
            rows: 0,
        }
    }

    fn push(&mut self, batch: FactBatch, hub: &OutputHub) -> Result<(), EngineError> {
        self.rows += batch.len();
        self.batches.push(Arc::new(batch));
        if self.rows >= EMIT_ROWS || self.batches.len() >= EMIT_BATCHES {
            self.flush(hub)?;
        }
        Ok(())
    }

    fn flush(&mut self, hub: &OutputHub) -> Result<(), EngineError> {
        self.rows = 0;
        hub.push_many(&mut self.batches)
    }
}

/// Decode the columns a kernel set needs from the batch's surviving
/// tuples: dense pages decode by stride, sparse selections gather.
fn batch_view<'a>(batch: &'a FactBatch, cols: &[usize]) -> ColumnBatch<'a> {
    if batch.is_full() {
        ColumnBatch::from_page(batch.page(), cols)
    } else {
        batch.columns(cols)
    }
}

/// Like [`batch_view`] but for compiled-predicate inputs: on columnar
/// pages, dictionary-coded `Char` columns stay as codes so the predicate
/// evaluates once per dictionary entry instead of once per tuple.
fn pred_view<'a>(batch: &'a FactBatch, cols: &[usize]) -> ColumnBatch<'a> {
    if batch.is_full() {
        ColumnBatch::for_predicate(batch.page(), cols)
    } else {
        batch.columns_for_predicate(cols)
    }
}

fn flush_if_full(
    builder: &mut PageBuilder,
    hub: &OutputHub,
) -> Result<(), EngineError> {
    if builder.is_full() {
        let page = builder.finish_and_reset();
        hub.push_page(Arc::new(page))?;
    }
    Ok(())
}

fn flush_rest(builder: &mut PageBuilder, hub: &OutputHub) -> Result<(), EngineError> {
    if !builder.is_empty() {
        let page = builder.finish_and_reset();
        hub.push_page(Arc::new(page))?;
    }
    Ok(())
}

/// Per-worker scratch for one parallel-scan morsel: predicate state plus
/// the page's surviving-row selection, reused across rounds.
struct ScanSlot {
    scratch: PredScratch,
    mask: Vec<u64>,
    sel: Vec<u32>,
}

fn run_scan(
    table: &Arc<Table>,
    predicate: Option<&Expr>,
    projection: Option<&[usize]>,
    out_schema: &Arc<Schema>,
    hub: &OutputHub,
    ctx: &ExecCtx,
    ctl: Option<&QueryCtl>,
) -> Result<(), EngineError> {
    let mut cursor = CircularCursor::new(table.clone());
    // Predicate fetched from the shared program cache (compiled at most
    // once process-wide per (predicate, schema) — concurrent identical
    // scans share it), evaluated column-wise per page into a selection
    // vector. Only a projecting scan builds fresh rows; a plain selection
    // forwards the table page with the selection attached.
    let compiled = predicate.map(|p| CompiledPred::cached(p, table.schema()));
    let spans = projection.map(|cols| column_spans(table.schema(), cols));
    let mut builder = spans
        .as_ref()
        .map(|_| PageBuilder::with_bytes(out_schema.clone(), ctx.out_page_bytes));
    let mut rowbuf: Vec<u8> = Vec::with_capacity(out_schema.row_size());
    let mut encrow: Vec<u8> = Vec::with_capacity(table.schema().row_size());
    let mut scratch = PredScratch::new();
    let mut mask: Vec<u64> = Vec::new();
    let mut sel: Vec<u32> = Vec::new();
    let mut emit = EmitBuffer::new();
    // Parallel shared scan: with a predicate to evaluate and pool workers
    // available, pages are processed in rounds — up to one page per worker
    // evaluated concurrently, then pushed downstream strictly in page
    // order. Ordered rounds keep the batch stream identical to the
    // sequential scan's (downstream first-touch group slots depend on row
    // order), and the output hub / SPL keeps a single producer.
    if let (Some(c), true) = (&compiled, ctx.workers.workers() > 1) {
        let round = ctx.workers.workers();
        let mut slots: Vec<ScanSlot> = Vec::new();
        slots.resize_with(round, || ScanSlot {
            scratch: PredScratch::new(),
            mask: Vec::new(),
            sel: Vec::new(),
        });
        let mut pages: Vec<Arc<Page>> = Vec::with_capacity(round);
        loop {
            ctl_check(ctl)?;
            pages.clear();
            while pages.len() < round {
                match cursor.next_page(&ctx.pool)? {
                    Some(p) => pages.push(p),
                    None => break,
                }
            }
            if pages.is_empty() {
                break;
            }
            // Evaluate every page of the round under one governed unit:
            // pool parallelism is *within* a core permit — the `--workers`
            // knob is orthogonal to the `--cores` knob.
            ctx.governor.run(|| -> Result<(), EngineError> {
                let mut tasks: Vec<Task> = Vec::with_capacity(pages.len());
                for (slot, page) in slots.iter_mut().zip(&pages) {
                    tasks.push(Box::new(move || {
                        let view = ColumnBatch::for_predicate(page, c.columns());
                        c.eval_batch(&view, &mut slot.scratch, &mut slot.mask);
                        selection_from_mask(&slot.mask, &mut slot.sel);
                    }));
                }
                ctx.workers.run(tasks)
            })?;
            for (slot, page) in slots.iter_mut().zip(&pages) {
                ctx.metrics
                    .rows_scanned
                    .fetch_add(slot.sel.len() as u64, Ordering::Relaxed);
                if let (Some(spans), Some(b)) = (&spans, &mut builder) {
                    let mut pending: Vec<Arc<Page>> = Vec::new();
                    ctx.governor.run(|| {
                        for &r in &slot.sel {
                            let row_bytes: &[u8] = match page.column_page() {
                                Some(_) => {
                                    encrow.clear();
                                    page.encode_row_into(r as usize, &mut encrow);
                                    &encrow
                                }
                                None => page.row(r as usize).bytes(),
                            };
                            project_spans_into(row_bytes, spans, &mut rowbuf);
                            let ok = b.push_encoded(&rowbuf);
                            debug_assert!(ok);
                            if b.is_full() {
                                pending.push(Arc::new(b.finish_and_reset()));
                            }
                        }
                    });
                    for p in pending {
                        hub.push_page(p)?;
                    }
                } else if !slot.sel.is_empty() {
                    emit.push(
                        FactBatch::new(page.clone(), std::mem::take(&mut slot.sel)),
                        hub,
                    )?;
                }
            }
        }
        emit.flush(hub)?;
        if let Some(mut b) = builder {
            flush_rest(&mut b, hub)?;
        }
        return Ok(());
    }
    while let Some(page) = cursor.next_page(&ctx.pool)? {
        ctl_check(ctl)?;
        // Fast path: no selection, no projection — forward table pages
        // as-is under an identity selection (zero copy; the whole point of
        // batch-based exchange).
        if compiled.is_none() && spans.is_none() {
            ctx.metrics
                .rows_scanned
                .fetch_add(page.rows() as u64, Ordering::Relaxed);
            hub.push(Arc::new(FactBatch::all(page)))?;
            continue;
        }
        // Process the page under a core permit, pushing outside of it.
        let mut pending: Vec<Arc<Page>> = Vec::new();
        ctx.governor.run(|| {
            match &compiled {
                Some(c) => {
                    let view = ColumnBatch::for_predicate(&page, c.columns());
                    c.eval_batch(&view, &mut scratch, &mut mask);
                    selection_from_mask(&mask, &mut sel);
                }
                None => {
                    sel.clear();
                    sel.extend(0..page.rows() as u32);
                }
            }
            if let (Some(spans), Some(b)) = (&spans, &mut builder) {
                // Projecting scan: the output rows are new (narrower)
                // rows, so this is a materialization point. Columnar
                // pages re-encode each surviving row through a reused
                // scratch; row-major pages slice the arena in place.
                for &r in &sel {
                    let row_bytes: &[u8] = match page.column_page() {
                        Some(_) => {
                            encrow.clear();
                            page.encode_row_into(r as usize, &mut encrow);
                            &encrow
                        }
                        None => page.row(r as usize).bytes(),
                    };
                    project_spans_into(row_bytes, spans, &mut rowbuf);
                    let ok = b.push_encoded(&rowbuf);
                    debug_assert!(ok);
                    if b.is_full() {
                        pending.push(Arc::new(b.finish_and_reset()));
                    }
                }
            }
        });
        ctx.metrics
            .rows_scanned
            .fetch_add(sel.len() as u64, Ordering::Relaxed);
        if spans.is_none() {
            if !sel.is_empty() {
                emit.push(
                    FactBatch::new(page, std::mem::take(&mut sel)),
                    hub,
                )?;
            }
        } else {
            for p in pending {
                hub.push_page(p)?;
            }
        }
    }
    emit.flush(hub)?;
    if let Some(mut b) = builder {
        flush_rest(&mut b, hub)?;
    }
    Ok(())
}

fn run_filter(
    predicate: &Expr,
    input: &mut Box<dyn BatchSource>,
    hub: &OutputHub,
    ctx: &ExecCtx,
    ctl: Option<&QueryCtl>,
) -> Result<(), EngineError> {
    // Fetched lazily from the shared program cache against the first
    // batch's schema (identical for the whole stream), then evaluated
    // column-wise over the batch's surviving tuples; the output is the
    // same page with a refined selection — no rows are copied here.
    let mut compiled: Option<Arc<CompiledPred>> = None;
    let mut scratch = PredScratch::new();
    let mut mask: Vec<u64> = Vec::new();
    let mut sel: Vec<u32> = Vec::new();
    let mut emit = EmitBuffer::new();
    while let Some(batch) = input.next_batch()? {
        ctl_check(ctl)?;
        let c = compiled
            .get_or_insert_with(|| CompiledPred::cached(predicate, batch.page().schema()));
        ctx.governor.run(|| {
            // Selection-aware: on a partially-selected batch this gathers
            // the predicate columns over the *surviving* tuples only, so
            // evaluation cost tracks the live row count, not page size.
            let view = pred_view(&batch, c.columns());
            c.eval_batch(&view, &mut scratch, &mut mask);
            // Mask bit i refers to batch tuple i = page row sel[i]: the
            // mask → selection handoff composes the two.
            refine_selection(&mask, batch.sel(), &mut sel);
        });
        if !sel.is_empty() {
            emit.push(
                FactBatch::new(batch.page().clone(), std::mem::take(&mut sel)),
                hub,
            )?;
        }
    }
    emit.flush(hub)
}

#[allow(clippy::too_many_arguments)]
fn run_hash_join(
    build_key: usize,
    probe_key: usize,
    out_schema: &Arc<Schema>,
    build: &mut Box<dyn BatchSource>,
    probe: &mut Box<dyn BatchSource>,
    hub: &OutputHub,
    ctx: &ExecCtx,
    ctl: Option<&QueryCtl>,
) -> Result<(), EngineError> {
    // Build phase: hash the (dimension) side. This is a true
    // materialization point — build tuples must outlive their batches, so
    // their encoded bytes are gathered once into a contiguous arena. The
    // key column is gathered per batch into a typed slice; the insert
    // loop never touches row views.
    let mut arena: Vec<u8> = Vec::new();
    let mut build_rs = 0usize;
    let mut ht: HashMap<i64, Vec<u32>> = HashMap::new();
    let mut keys: Vec<i64> = Vec::new();
    let mut tb: Vec<u8> = Vec::new();
    while let Some(batch) = build.next_batch()? {
        ctl_check(ctl)?;
        ctx.governor.run(|| {
            build_rs = batch.page().schema().row_size();
            let base = (arena.len() / build_rs) as u32;
            batch.gather_i64_into(build_key, &mut keys);
            for (i, &k) in keys.iter().enumerate() {
                ht.entry(k).or_default().push(base + i as u32);
            }
            for t in 0..batch.len() {
                arena.extend_from_slice(batch.tuple_bytes_in(t, &mut tb));
            }
        });
    }

    // Probe phase: stream the (fact) side. Keys are batch-gathered from
    // the surviving tuples and probed in a tight loop; matched row bytes
    // are sliced straight out of the shared page and the build arena.
    let mut builder = PageBuilder::with_bytes(out_schema.clone(), ctx.out_page_bytes);
    let mut rowbuf: Vec<u8> = Vec::with_capacity(out_schema.row_size());
    let mut joined = 0u64;
    while let Some(batch) = probe.next_batch()? {
        ctl_check(ctl)?;
        let mut pending: Vec<Arc<Page>> = Vec::new();
        ctx.governor.run(|| {
            batch.gather_i64_into(probe_key, &mut keys);
            for (t, &k) in keys.iter().enumerate() {
                let Some(matches) = ht.get(&k) else {
                    continue;
                };
                let probe_bytes = batch.tuple_bytes_in(t, &mut tb);
                for &bidx in matches {
                    let bidx = bidx as usize;
                    let build_bytes = &arena[bidx * build_rs..(bidx + 1) * build_rs];
                    rowbuf.clear();
                    rowbuf.extend_from_slice(probe_bytes);
                    rowbuf.extend_from_slice(build_bytes);
                    let ok = builder.push_encoded(&rowbuf);
                    debug_assert!(ok);
                    joined += 1;
                    if builder.is_full() {
                        pending.push(Arc::new(builder.finish_and_reset()));
                    }
                }
            }
        });
        for p in pending {
            hub.push_page(p)?;
        }
    }
    ctx.metrics.rows_joined.fetch_add(joined, Ordering::Relaxed);
    flush_rest(&mut builder, hub)
}

#[allow(clippy::too_many_arguments)]
fn run_aggregate(
    group_by: &[usize],
    aggs: &[AggSpec],
    in_schema: &Arc<Schema>,
    out_schema: &Arc<Schema>,
    groups_hint: Option<usize>,
    input: &mut Box<dyn BatchSource>,
    hub: &OutputHub,
    ctx: &ExecCtx,
    ctl: Option<&QueryCtl>,
) -> Result<(), EngineError> {
    // Chaos poison plan: while faults are armed, an aggregate output
    // named `POISON_AGG_NAME` panics deliberately — the chaos harness's
    // deterministic stand-in for the fuzzer-found operator panic. The
    // name is part of the plan signature, so SP can never attach a
    // healthy co-runner to a poisoned packet, and the panic is contained
    // by the stage worker into a single-query abort.
    if qs_storage::fault::armed()
        && aggs.iter().any(|a| a.name == qs_storage::fault::POISON_AGG_NAME)
    {
        panic!("chaos poison plan: aggregate `{}`", qs_storage::fault::POISON_AGG_NAME);
    }
    // Batch shape: per batch, the key-resolution pass maps every surviving
    // tuple to a dense group slot (one probe per tuple — the irreducible
    // cost of hash aggregation), then each aggregate folds the whole batch
    // through its typed kernel over the gathered column view. Resolution
    // goes through the tiered [`GroupTable`] — single-`Int` and ≤16-byte
    // fixed-width keys probe flat open-addressing tables straight off the
    // page bytes with zero per-tuple allocation; only arbitrary-shape keys
    // fall back to the byte-key `HashMap` (extracting into one reused
    // scratch buffer). Slots are first-touch ordered, so output stays
    // deterministic given input order. No intermediate pages are built.
    let mut table = GroupTable::compile_with_hint(group_by, in_schema, groups_hint);
    let kernels: Vec<AggKernel> = aggs
        .iter()
        .map(|a| AggKernel::compile(&a.func, in_schema))
        .collect();
    let agg_cols = kernel_columns(&kernels);
    let mut accs: Vec<AccVec> = kernels.iter().map(AccVec::for_kernel).collect();
    if let Some(h) = groups_hint {
        // Stats-driven pre-size: one allocation up front instead of grow
        // checks mid-stream. Slots never shrink and the output loop reads
        // exactly `0..table.len()`, so an over-estimate costs only memory.
        for acc in &mut accs {
            acc.resize(h.clamp(1, 1 << 20));
        }
    }
    // Per-batch scratch: tuple → group slot, plus the identity tuple list
    // the grouped kernels consume. Large batches fan key resolution across
    // the shared worker pool (radix-partitioned sub-tables merged back in
    // first-touch order, so slot numbering is identical to the sequential
    // path); the kernel folds stay on this thread.
    let mut gidx: Vec<u32> = Vec::new();
    let mut rows_idx: Vec<u32> = Vec::new();
    let mut pscratch = ParallelScratch::new();
    while let Some(batch) = input.next_batch()? {
        ctl_check(ctl)?;
        ctx.governor.run(|| -> Result<(), EngineError> {
            table.resolve_batch_parallel(&batch, &ctx.workers, &mut pscratch, &mut gidx)?;
            rows_idx.clear();
            rows_idx.extend(0..batch.len() as u32);
            let view = batch_view(&batch, &agg_cols);
            for (kernel, acc) in kernels.iter().zip(&mut accs) {
                acc.resize(table.len());
                update_grouped(kernel, acc, &view, &rows_idx, &gidx);
            }
            Ok(())
        })?;
    }

    // Global aggregate over empty input still emits one row of zeroes.
    if group_by.is_empty() && table.is_empty() {
        table.intern_key(&[]);
        for acc in &mut accs {
            acc.resize(1);
        }
    }

    let mut builder = PageBuilder::with_bytes(out_schema.clone(), ctx.out_page_bytes);
    let mut rowbuf: Vec<u8> = vec![0u8; out_schema.row_size()];
    for g in 0..table.len() {
        // Group columns occupy the prefix of the output row with identical
        // widths, so the key bytes land directly.
        let key = table.key_bytes(g);
        rowbuf[..key.len()].copy_from_slice(key);
        for (i, acc) in accs.iter().enumerate() {
            let col = group_by.len() + i;
            let v = acc.finalize(g);
            qs_storage::row::encode_value(&mut rowbuf, out_schema, col, &v)
                .map_err(EngineError::Storage)?;
        }
        if !builder.push_encoded(&rowbuf) {
            hub.push_page(Arc::new(builder.finish_and_reset()))?;
            let ok = builder.push_encoded(&rowbuf);
            debug_assert!(ok);
        }
        flush_if_full(&mut builder, hub)?;
    }
    flush_rest(&mut builder, hub)
}

/// Sort-key layout resolved once per operator: `(byte offset, type,
/// ascending)` per key, so row comparisons do no schema lookups.
type KeySpec = Vec<(usize, DataType, bool)>;

fn key_spec(schema: &Schema, keys: &[(usize, bool)]) -> KeySpec {
    keys.iter()
        .map(|&(c, asc)| (schema.offset(c), schema.dtype(c), asc))
        .collect()
}

/// Compare two encoded rows on a precomputed key spec.
fn cmp_encoded(a: &[u8], b: &[u8], keys: &KeySpec) -> std::cmp::Ordering {
    use qs_storage::row::{read_date_at, read_f64_at, read_i64_at, trim_char};
    use std::cmp::Ordering as O;
    for &(off, dt, asc) in keys {
        let ord = match dt {
            DataType::Int => read_i64_at(a, off).cmp(&read_i64_at(b, off)),
            DataType::Float => read_f64_at(a, off).total_cmp(&read_f64_at(b, off)),
            DataType::Date => read_date_at(a, off).cmp(&read_date_at(b, off)),
            DataType::Char(n) => {
                let n = n as usize;
                trim_char(&a[off..off + n]).cmp(trim_char(&b[off..off + n]))
            }
        };
        let ord = if asc { ord } else { ord.reverse() };
        if ord != O::Equal {
            return ord;
        }
    }
    O::Equal
}

fn run_sort(
    keys: &[(usize, bool)],
    schema: &Arc<Schema>,
    input: &mut Box<dyn BatchSource>,
    hub: &OutputHub,
    ctx: &ExecCtx,
    ctl: Option<&QueryCtl>,
) -> Result<(), EngineError> {
    // The sort buffer is a true materialization point, but even here no
    // row bytes move on ingest: the buffer is (page handle, row) pairs
    // over the shared input pages; rows are copied once, in sorted order,
    // into the output pages.
    let mut pages: Vec<Arc<Page>> = Vec::new();
    let mut index: Vec<(u32, u32)> = Vec::new();
    while let Some(batch) = input.next_batch()? {
        ctl_check(ctl)?;
        let pidx = pages.len() as u32;
        for &r in batch.sel() {
            index.push((pidx, r));
        }
        // The comparator slices encoded rows in place, so columnar input
        // pages are flipped to row-major once here rather than re-encoding
        // each row O(n log n) times during the sort.
        let page = batch.page();
        if page.column_page().is_some() {
            pages.push(Arc::new(page.to_row_major()));
        } else {
            pages.push(page.clone());
        }
    }
    let spec = key_spec(schema, keys);
    ctx.governor.run(|| {
        index.sort_by(|&(pa, ra), &(pb, rb)| {
            let a = pages[pa as usize].row(ra as usize);
            let b = pages[pb as usize].row(rb as usize);
            cmp_encoded(a.bytes(), b.bytes(), &spec)
        });
    });
    let mut builder = PageBuilder::with_bytes(schema.clone(), ctx.out_page_bytes);
    for &(p, r) in &index {
        let row = pages[p as usize].row(r as usize);
        let ok = builder.push_row(row);
        debug_assert!(ok);
        flush_if_full(&mut builder, hub)?;
    }
    flush_rest(&mut builder, hub)
}

fn run_project(
    columns: &[usize],
    out_schema: &Arc<Schema>,
    input: &mut Box<dyn BatchSource>,
    hub: &OutputHub,
    ctx: &ExecCtx,
    ctl: Option<&QueryCtl>,
) -> Result<(), EngineError> {
    let mut builder = PageBuilder::with_bytes(out_schema.clone(), ctx.out_page_bytes);
    let mut rowbuf: Vec<u8> = Vec::with_capacity(out_schema.row_size());
    let mut tb: Vec<u8> = Vec::new();
    let mut spans: Option<Vec<(usize, usize)>> = None;
    while let Some(batch) = input.next_batch()? {
        ctl_check(ctl)?;
        let spans =
            spans.get_or_insert_with(|| column_spans(batch.page().schema(), columns));
        let mut pending: Vec<Arc<Page>> = Vec::new();
        ctx.governor.run(|| {
            for t in 0..batch.len() {
                project_spans_into(batch.tuple_bytes_in(t, &mut tb), spans, &mut rowbuf);
                debug_assert_eq!(rowbuf.len(), out_schema.row_size());
                let ok = builder.push_encoded(&rowbuf);
                debug_assert!(ok);
                if builder.is_full() {
                    pending.push(Arc::new(builder.finish_and_reset()));
                }
            }
        });
        for p in pending {
            hub.push_page(p)?;
        }
    }
    flush_rest(&mut builder, hub)
}

fn run_distinct(
    schema: &Arc<Schema>,
    input: &mut Box<dyn BatchSource>,
    hub: &OutputHub,
    ctx: &ExecCtx,
    ctl: Option<&QueryCtl>,
) -> Result<(), EngineError> {
    // Rows are fixed-width encoded, so whole-row dedup is byte equality
    // over tuple bytes read in place from the shared page.
    let mut seen: std::collections::HashSet<Vec<u8>> = std::collections::HashSet::new();
    let mut builder = PageBuilder::with_bytes(schema.clone(), ctx.out_page_bytes);
    let mut tb: Vec<u8> = Vec::new();
    while let Some(batch) = input.next_batch()? {
        ctl_check(ctl)?;
        let mut pending: Vec<Arc<Page>> = Vec::new();
        ctx.governor.run(|| {
            for t in 0..batch.len() {
                let bytes = batch.tuple_bytes_in(t, &mut tb);
                if seen.insert(bytes.to_vec()) {
                    let ok = builder.push_encoded(bytes);
                    debug_assert!(ok);
                    if builder.is_full() {
                        pending.push(Arc::new(builder.finish_and_reset()));
                    }
                }
            }
        });
        for p in pending {
            hub.push_page(p)?;
        }
    }
    flush_rest(&mut builder, hub)
}

fn run_topk(
    keys: &[(usize, bool)],
    n: usize,
    schema: &Arc<Schema>,
    input: &mut Box<dyn BatchSource>,
    hub: &OutputHub,
    ctx: &ExecCtx,
    ctl: Option<&QueryCtl>,
) -> Result<(), EngineError> {
    if n == 0 {
        // Still drain the input so the producer is not blocked forever.
        while input.next_batch()?.is_some() {}
        return Ok(());
    }
    // Bounded selection: keep the n best encoded rows seen so far. A
    // sorted insertion buffer is O(n) per displacing row but n is small
    // (LIMIT clauses); it keeps the common non-displacing row at one
    // comparison against the current cutoff. Only displacing rows are
    // copied out of the shared page.
    let spec = key_spec(schema, keys);
    let mut best: Vec<Vec<u8>> = Vec::with_capacity(n + 1);
    let mut tb: Vec<u8> = Vec::new();
    while let Some(batch) = input.next_batch()? {
        ctl_check(ctl)?;
        ctx.governor.run(|| {
            for t in 0..batch.len() {
                let bytes = batch.tuple_bytes_in(t, &mut tb);
                let full = best.len() == n;
                if full {
                    let worst = best.last().expect("n > 0");
                    if cmp_encoded(bytes, worst, &spec) != std::cmp::Ordering::Less {
                        continue;
                    }
                }
                let pos = best.partition_point(|b| {
                    cmp_encoded(b, bytes, &spec) != std::cmp::Ordering::Greater
                });
                best.insert(pos, bytes.to_vec());
                if best.len() > n {
                    best.pop();
                }
            }
        });
    }
    let mut builder = PageBuilder::with_bytes(schema.clone(), ctx.out_page_bytes);
    for enc in &best {
        let ok = builder.push_encoded(enc);
        debug_assert!(ok);
        flush_if_full(&mut builder, hub)?;
    }
    flush_rest(&mut builder, hub)
}

fn run_limit(
    n: usize,
    _schema: &Arc<Schema>,
    input: &mut Box<dyn BatchSource>,
    hub: &OutputHub,
    ctx: &ExecCtx,
    ctl: Option<&QueryCtl>,
) -> Result<(), EngineError> {
    // Limit is pure selection slicing: whole batches are forwarded by
    // `Arc` clone, and the boundary batch is trimmed with
    // [`FactBatch::prefix`] — no builder, no row copies.
    let _ = ctx;
    let mut remaining = n;
    while let Some(batch) = input.next_batch()? {
        ctl_check(ctl)?;
        if remaining == 0 {
            break;
        }
        if batch.len() <= remaining {
            remaining -= batch.len();
            hub.push(batch)?;
        } else {
            let trimmed = batch.prefix(remaining);
            remaining = 0;
            hub.push(Arc::new(trimmed))?;
        }
    }
    Ok(())
}
