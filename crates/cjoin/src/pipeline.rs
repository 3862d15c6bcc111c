//! The CJOIN pipeline: preprocessor → shared hash-joins → distributor.
//!
//! CJOIN (Candea, Polyzotis, Vingralek, VLDBJ'11) evaluates *all*
//! concurrent star queries with one always-on global query plan shaped as
//! a chain:
//!
//! ```text
//!            ┌────────┐   ┌──────┐        ┌──────┐   ┌─────────────┐
//!  admit ──▶ │ preproc │──▶│ ⋈ D1 │──...──▶│ ⋈ Dk │──▶│ distributor │──▶ per-query
//!            │ (circular│  └──────┘        └──────┘   └─────────────┘    outputs
//!            │ fact scan)│  shared hash-joins (query-bit AND)
//!            └────────┘
//! ```
//!
//! * The **preprocessor** runs a circular scan of the fact table,
//!   page-at-a-time: the columns referenced by any active query are
//!   decoded once per page into a column batch, every active query's
//!   *compiled* fact predicate ([`CompiledPred`]) runs column-wise into a
//!   per-query selection mask, and the masks are transposed straight into
//!   the batch's dense query-bit column ([`BitColumn`]:
//!   `⌈max_queries/64⌉` words per surviving tuple, one `u64` vector per
//!   batch). A query is complete after one full revolution from its
//!   admission point.
//! * Each **shared hash-join** ([`DimJoin`]) holds the dimension's
//!   read-only multiply-shift key index, one entry-major atomic word
//!   column of query bits maintained online by admissions (bit q = the
//!   entry satisfies query q's dimension predicate) and a per-stage
//!   *bypass mask* (bit q = query q does not join this dimension). The
//!   join step is `tuple_bits &= entry_bits | bypass`, run in one pass per
//!   batch that also drops the tuples whose bits reach zero.
//! * The **distributor** materializes, for every surviving tuple and every
//!   set bit, the query's joined row (fact columns, then its dimensions in
//!   the query's join order) and streams pages into the query's output
//!   hub ([`qs_engine::OutputHub`], pull mode — so SP can share CJOIN
//!   outputs, the paper's Figure 2).
//!
//! Admission/termination control flows through the same channels as data
//! (`Msg::Admitted` / `Msg::QueryDone`), so ordering guarantees are free:
//! a query's output hub is installed downstream before its first tuple,
//! and finished after its last.

use crate::join::DimJoin;
use crate::stats::{CjoinMetrics, CjoinStats};
use crossbeam::channel::{bounded, Receiver, Sender};
use parking_lot::Mutex;
use qs_engine::{BatchSource, ExecCtx, OutputHub, ShareMode, StageKind};
use qs_plan::compiled::{iter_ones, mask_words};
use qs_plan::{CompiledPred, Expr, PredScratch, StarQuery};
use qs_storage::{BitColumn, Catalog, ColumnBatch, FactBatch, Page, PageBuilder, Schema, Table};
use std::collections::HashMap;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// Joins the pipeline's stage threads when dropped. Declared *first* in
/// [`CjoinPipeline::new`] so that on an early error return every channel
/// sender (declared later, dropped sooner) is gone before the join —
/// each stage loop then observes a closed channel and exits.
struct JoinOnDrop(Vec<std::thread::JoinHandle<()>>);

impl Drop for JoinOnDrop {
    fn drop(&mut self) {
        for h in self.0.drain(..) {
            let _ = h.join();
        }
    }
}

/// Spawn one stage thread, propagating spawn failure as a typed error
/// instead of panicking mid-construction (satellite of the fault-model
/// work: a resource-exhausted host degrades to a clean `Err`).
fn spawn_stage(
    threads: &mut JoinOnDrop,
    name: String,
    f: impl FnOnce() + Send + 'static,
) -> Result<(), CjoinError> {
    let h = std::thread::Builder::new()
        .name(name.clone())
        .spawn(f)
        .map_err(|e| CjoinError::Spawn(format!("{name}: {e}")))?;
    threads.0.push(h);
    Ok(())
}

/// Top-level panic belt for a stage thread: runs the loop body, and if it
/// unwinds, records the containment and lets the thread exit. The channel
/// cascade then tears the chain down to the distributors, whose drain
/// path aborts every open query hub — co-runners degrade to failed
/// tickets, never to a dead process or a hung reader.
fn contain_stage_panic(metrics: &Arc<qs_engine::Metrics>, stage: &str, f: impl FnOnce()) {
    if catch_unwind(AssertUnwindSafe(f)).is_err() {
        metrics.panics_contained.fetch_add(1, Ordering::Relaxed);
        eprintln!("cjoin: contained panic in {stage} stage; pipeline shutting down");
    }
}

/// Errors surfaced by the CJOIN operator.
#[derive(Debug, Clone, PartialEq)]
pub enum CjoinError {
    /// The star query does not fit this pipeline (wrong fact table or an
    /// unknown (dim, key) pair).
    Incompatible(String),
    /// All query slots are in use.
    Saturated,
    /// Storage failure during construction.
    Storage(qs_storage::StorageError),
    /// A stage thread could not be spawned at construction.
    Spawn(String),
    /// The pipeline's stage chain has terminated (shutdown, or a stage
    /// thread died); no further admissions are possible.
    Down,
    /// Admission-time work for this query failed (e.g. its dimension
    /// predicate panicked while scanning the hash table). The pipeline
    /// and its co-running queries are unaffected.
    Admission(String),
}

impl fmt::Display for CjoinError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CjoinError::Incompatible(msg) => write!(f, "incompatible star query: {msg}"),
            CjoinError::Saturated => write!(f, "pipeline saturated: no free query slots"),
            CjoinError::Storage(e) => write!(f, "storage: {e}"),
            CjoinError::Spawn(msg) => write!(f, "could not spawn stage thread: {msg}"),
            CjoinError::Down => write!(f, "cjoin pipeline is down"),
            CjoinError::Admission(msg) => write!(f, "admission failed: {msg}"),
        }
    }
}

impl std::error::Error for CjoinError {}

impl From<qs_storage::StorageError> for CjoinError {
    fn from(e: qs_storage::StorageError) -> Self {
        CjoinError::Storage(e)
    }
}

/// One dimension position of the pipeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DimSpec {
    /// Dimension table name.
    pub table: String,
    /// Fact foreign-key column probing this dimension.
    pub fact_key: usize,
    /// Dimension key column.
    pub dim_key: usize,
}

/// Pipeline construction parameters.
#[derive(Debug, Clone)]
pub struct PipelineSpec {
    /// Fact table name.
    pub fact_table: String,
    /// Dimension chain, in pipeline order.
    pub dims: Vec<DimSpec>,
    /// Maximum concurrently admitted queries (bitmap width).
    pub max_queries: usize,
    /// Channel depth between pipeline stages, in batches.
    pub channel_depth: usize,
    /// Byte budget of distributor output pages.
    pub out_page_bytes: usize,
    /// Distributor shards: queries are partitioned by slot across this
    /// many distributor threads, parallelizing the per-(tuple × query)
    /// materialization work the way the CJOIN prototype parallelizes its
    /// pipeline.
    ///
    /// (Preprocessor parallelism — vectorized fact-predicate evaluation
    /// chunked across workers per page — now rides the engine's shared
    /// morsel pool, `ExecCtx::workers`, instead of dedicated helper
    /// threads.)
    pub dist_shards: usize,
}

impl PipelineSpec {
    /// Spec with defaults for `max_queries`/`channel_depth`/page size.
    pub fn new(fact_table: impl Into<String>, dims: Vec<DimSpec>) -> Self {
        PipelineSpec {
            fact_table: fact_table.into(),
            dims,
            max_queries: 64,
            channel_depth: 4,
            out_page_bytes: qs_storage::DEFAULT_PAGE_BYTES,
            dist_shards: 4,
        }
    }
}

struct DimData {
    spec: DimSpec,
    schema: Arc<Schema>,
    /// Encoded rows of the entries back-to-back at `row_size` stride
    /// (entry `e` = [`Self::row`]`(e)`).
    rows: Vec<u8>,
    /// Key index, entry query bits and bypass mask of the shared join.
    join: DimJoin,
}

impl DimData {
    /// Encoded row bytes of entry `e`.
    #[inline]
    fn row(&self, e: usize) -> &[u8] {
        let rs = self.schema.row_size();
        &self.rows[e * rs..(e + 1) * rs]
    }
}

/// Installed per query at the distributor.
struct QueryOutput {
    hub: Arc<OutputHub>,
    builder: PageBuilder,
    /// Pipeline dim indices in the query's join order.
    dim_order: Vec<u32>,
    out_schema: Arc<Schema>,
}

struct Batch {
    /// The surviving tuples of one fact page: selection + per-tuple query
    /// bitmaps over the shared page, the system-wide post-predicate
    /// currency. The fan-out stage materializes the surviving rows' bytes
    /// once before the distributor shards fan them out per query.
    fact: FactBatch,
    /// `dim_hits[d][i]`: matched entry index at pipeline dim `d` for tuple
    /// `i` (`u32::MAX` = no match, survived via bypass). Filled stage by
    /// stage.
    dim_hits: Vec<Vec<u32>>,
}

enum Msg {
    Batch(Batch),
    Admitted(u32, Box<QueryOutput>),
    QueryDone(u32),
    /// The query at this slot hit a contained fault (predicate panic,
    /// failed fact-page read): stop feeding it and abort — not finish —
    /// its output stream so the client sees a typed error, while every
    /// co-running query continues undisturbed.
    QueryAborted(u32, String),
    /// Mid-chain abort (a dim or fan-out stage lost a batch): abort the
    /// query's output stream, but do NOT release its slot — unlike the
    /// terminal `QueryDone`/`QueryAborted`, which the preprocessor still
    /// owes for this slot and which performs the (single) release. The
    /// faulting stage also requests early removal via `Ctl::Remove`, so
    /// that terminal message arrives promptly.
    StreamAborted(u32, String),
}

/// Messages delivered to distributor shards: batches are broadcast
/// (shared), control messages are routed to the owning shard.
enum DistMsg {
    Batch(Arc<Batch>),
    Admitted(u32, Box<QueryOutput>),
    QueryDone(u32),
    QueryAborted(u32, String),
    /// Mid-chain abort: closes the output stream, never frees the slot.
    StreamAborted(u32, String),
}

enum Ctl {
    Admit {
        slot: u32,
        /// Admission generation (see [`ActiveQuery::gen`]).
        gen: u64,
        /// Fact predicate, compiled once at admission; shared by every
        /// page-of-rows snapshot for the query's whole revolution.
        fact_pred: Option<Arc<CompiledPred>>,
        output: Box<QueryOutput>,
    },
    /// Early removal (cancellation): stop feeding the query and finish its
    /// output at the next page boundary. `gen: Some(g)` removes the
    /// occupant only if it is still admission `g` — a cancel arriving
    /// after natural completion must not kill a successor that reused the
    /// slot. `gen: None` (mid-chain fault paths, whose abort already went
    /// to the stream actively receiving batches) removes whatever is
    /// active in the slot.
    Remove { slot: u32, gen: Option<u64> },
    Shutdown,
}

/// Cancels an admitted query early (before its revolution completes).
/// Cheap to clone and `Send`; cancelling an already-finished query is a
/// no-op.
#[derive(Clone)]
pub struct CjoinCancel {
    ctl_tx: Sender<Ctl>,
    slot: u32,
    gen: u64,
}

impl CjoinCancel {
    /// Request removal. The query's output stream ends (cleanly) at the
    /// next fact-page boundary instead of after the full revolution. The
    /// removal is generation-checked: if this admission already completed
    /// and the slot was reused, the cancel is a no-op rather than a kill
    /// of the slot's new occupant.
    pub fn cancel(&self) {
        let _ = self.ctl_tx.send(Ctl::Remove {
            slot: self.slot,
            gen: Some(self.gen),
        });
    }
}

/// Handle returned by [`CjoinPipeline::admit`].
pub struct CjoinQuery {
    /// Stream of joined pages for this query (fact cols ++ dim cols in the
    /// query's join order). Ends after one full fact revolution.
    pub reader: Box<dyn BatchSource>,
    /// The output hub (pull mode) — `qs-core` registers it for SP so a
    /// second identical CJOIN sub-plan can subscribe instead of being
    /// admitted.
    pub hub: Arc<OutputHub>,
    /// Schema of the joined rows.
    pub schema: Arc<Schema>,
    /// The slot (bitmap bit) this query occupies until completion.
    pub slot: u32,
    /// Early-cancellation handle (paper Fig. 1a's "cancel" arrow, applied
    /// to the CJOIN stage).
    pub cancel: CjoinCancel,
}

/// Per-dimension cache of the predicates of *active* queries, used to
/// de-duplicate admission work: when a new query brings a predicate
/// identical to one already evaluated for an active query on the same
/// dimension, its bits are copied from that query's instead of
/// re-evaluating the predicate over every entry (the CJOIN prototype's
/// predicate-sharing optimization).
type PredCache = Mutex<Vec<HashMap<u64, (Option<Expr>, u32)>>>;

/// The always-on CJOIN operator.
pub struct CjoinPipeline {
    fact: Arc<Table>,
    fact_schema: Arc<Schema>,
    dims: Arc<Vec<DimData>>,
    ctl_tx: Sender<Ctl>,
    free_slots: Arc<Mutex<Vec<u32>>>,
    /// Monotonic admission counter (see [`ActiveQuery::gen`]).
    admit_gen: std::sync::atomic::AtomicU64,
    pred_cache: Arc<PredCache>,
    max_queries: usize,
    out_page_bytes: usize,
    ctx: Arc<ExecCtx>,
    metrics: Arc<CjoinMetrics>,
    threads: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

fn pred_key(pred: &Option<Expr>) -> u64 {
    match pred {
        None => 0x716a_f00d_0000_0001, // sentinel for "no predicate"
        Some(e) => qs_plan::signature::expr_signature(e),
    }
}

impl CjoinPipeline {
    /// Build the pipeline: loads every dimension hash table and starts the
    /// stage threads. The pipeline idles until the first admission.
    pub fn new(
        ctx: Arc<ExecCtx>,
        catalog: &Catalog,
        spec: &PipelineSpec,
    ) -> Result<Self, CjoinError> {
        let fact = catalog.get(&spec.fact_table)?;
        let fact_schema = fact.schema().clone();
        for d in &spec.dims {
            if d.fact_key >= fact_schema.len() {
                return Err(CjoinError::Incompatible(format!(
                    "fact key {} out of range for `{}`",
                    d.fact_key, spec.fact_table
                )));
            }
        }

        // Build dimension hash tables (reading through the buffer pool:
        // this is real, accounted I/O, like CJOIN's startup).
        let mut dims = Vec::with_capacity(spec.dims.len());
        for d in &spec.dims {
            let table = catalog.get(&d.table)?;
            let schema = table.schema().clone();
            if d.dim_key >= schema.len() {
                return Err(CjoinError::Incompatible(format!(
                    "dim key {} out of range for `{}`",
                    d.dim_key, d.table
                )));
            }
            let rs = schema.row_size();
            let mut rows = Vec::with_capacity(table.row_count() * rs);
            let mut keys = Vec::with_capacity(table.row_count());
            let mut cursor = qs_storage::CircularCursor::from_position(table.clone(), 0);
            let key_off = schema.offset(d.dim_key);
            while let Some(page) = cursor.next_page(&ctx.pool)? {
                // Rows are kept as encoded bytes (the join output slices
                // them); columnar pages re-encode on the way in.
                for r in 0..page.rows() {
                    let at = rows.len();
                    page.encode_row_into(r, &mut rows);
                    keys.push(qs_storage::row::read_i64_at(&rows[at..], key_off));
                }
            }
            dims.push(DimData {
                spec: d.clone(),
                schema,
                rows,
                join: DimJoin::new(&keys, spec.max_queries),
            });
        }
        let dims = Arc::new(dims);
        let metrics = Arc::new(CjoinMetrics::default());

        // Stage threads are joined by this guard if construction errors
        // out below; declared before every channel sender so the senders
        // drop first and the loops observe closed channels.
        let mut threads = JoinOnDrop(Vec::new());

        // Wire the chain: preproc -> dim[0] -> ... -> dim[k-1] -> dist.
        let (ctl_tx, ctl_rx) = bounded::<Ctl>(spec.max_queries.max(16));
        let (head_tx, mut prev_rx) = bounded::<Msg>(spec.channel_depth.max(1));

        // Preprocessor thread. Per-page fact-predicate evaluation fans
        // out across the engine's shared morsel pool (`ctx.workers`).
        {
            let fact = fact.clone();
            let ctx = ctx.clone();
            let metrics = metrics.clone();
            let max_queries = spec.max_queries;
            spawn_stage(&mut threads, "cjoin-preproc".into(), move || {
                let m = ctx.metrics.clone();
                contain_stage_panic(&m, "preprocessor", move || {
                    preprocessor_loop(fact, ctx, metrics, max_queries, ctl_rx, head_tx)
                });
            })?;
        }

        // One thread per shared hash-join.
        for dim_idx in 0..dims.len() {
            let (tx, rx) = bounded::<Msg>(spec.channel_depth.max(1));
            let dims = dims.clone();
            let ctx = ctx.clone();
            let metrics = metrics.clone();
            let in_rx = prev_rx;
            let ctl = ctl_tx.clone();
            spawn_stage(&mut threads, format!("cjoin-dim{dim_idx}"), move || {
                let m = ctx.metrics.clone();
                contain_stage_panic(&m, "dim", move || {
                    dim_stage_loop(dim_idx, dims, ctx, metrics, in_rx, tx, ctl)
                });
            })?;
            prev_rx = rx;
        }

        // Distributor shards: slot s is owned by shard s % dist_shards.
        let free_slots: Arc<Mutex<Vec<u32>>> =
            Arc::new(Mutex::new((0..spec.max_queries as u32).rev().collect()));
        let pred_cache: Arc<PredCache> =
            Arc::new(Mutex::new(vec![HashMap::new(); dims.len()]));
        let shards = spec.dist_shards.max(1);
        let mut shard_txs: Vec<Sender<DistMsg>> = Vec::with_capacity(shards);
        for shard in 0..shards {
            let (tx, rx) = bounded::<DistMsg>(spec.channel_depth.max(1));
            shard_txs.push(tx);
            let dims = dims.clone();
            let ctx = ctx.clone();
            let metrics = metrics.clone();
            let free = free_slots.clone();
            let cache = pred_cache.clone();
            spawn_stage(&mut threads, format!("cjoin-dist{shard}"), move || {
                distributor_loop(dims, ctx, metrics, free, cache, rx)
            })?;
        }
        // Fan-out thread: broadcasts batches to every shard, routes
        // admissions/completions to the owning shard. Surviving tuples'
        // fact-row bytes are materialized here, once per batch, so the
        // shards fan out from a contiguous buffer instead of each
        // re-reading the page per (tuple × query).
        {
            let ctx = ctx.clone();
            let ctl = ctl_tx.clone();
            spawn_stage(&mut threads, "cjoin-fanout".into(), move || {
                let m = ctx.metrics.clone();
                contain_stage_panic(&m, "fanout", move || {
                    fanout_loop(prev_rx, shard_txs, ctl);
                });
            })?;
        }
        let threads = std::mem::take(&mut threads.0);

        Ok(CjoinPipeline {
            fact,
            fact_schema,
            dims,
            ctl_tx,
            free_slots,
            admit_gen: std::sync::atomic::AtomicU64::new(0),
            pred_cache,
            max_queries: spec.max_queries,
            out_page_bytes: spec.out_page_bytes,
            ctx,
            metrics,
            threads: Mutex::new(threads),
        })
    }

    /// Maximum concurrent queries.
    pub fn capacity(&self) -> usize {
        self.max_queries
    }

    /// Free slots remaining.
    pub fn free_slots(&self) -> usize {
        self.free_slots.lock().len()
    }

    /// Counters.
    pub fn stats(&self) -> CjoinStats {
        self.metrics.snapshot()
    }

    /// Reset counters (between experiment points).
    pub fn reset_stats(&self) {
        self.metrics.reset();
    }

    /// Admit a star query into the GQP. Returns the stream of its joined
    /// tuples; the query is complete when the stream ends (one full fact
    /// revolution).
    pub fn admit(&self, star: &StarQuery) -> Result<CjoinQuery, CjoinError> {
        if star.fact_table != self.fact.name() {
            return Err(CjoinError::Incompatible(format!(
                "fact table `{}` (pipeline serves `{}`)",
                star.fact_table,
                self.fact.name()
            )));
        }
        // Map the query's dims (its join order) onto pipeline positions.
        let mut dim_order = Vec::with_capacity(star.dims.len());
        for d in &star.dims {
            let idx = self
                .dims
                .iter()
                .position(|p| {
                    p.spec.table == d.table
                        && p.spec.fact_key == d.fact_key
                        && p.spec.dim_key == d.dim_key
                })
                .ok_or_else(|| {
                    CjoinError::Incompatible(format!(
                        "join ⋈ {} on fact.{} = dim.{} not in the pipeline",
                        d.table, d.fact_key, d.dim_key
                    ))
                })?;
            if dim_order.contains(&(idx as u32)) {
                return Err(CjoinError::Incompatible(format!(
                    "dimension `{}` joined twice",
                    d.table
                )));
            }
            dim_order.push(idx as u32);
        }

        let slot = self
            .free_slots
            .lock()
            .pop()
            .ok_or(CjoinError::Saturated)?;

        // Update dimension bits and bypass masks *before* the query's bit
        // can appear on any tuple (the admit control message below is
        // what makes the preprocessor start setting it; see the `join`
        // module for why the stages' plain loads then see them).
        let mut evals = 0u64;
        let mut dedup_hits = 0u64;
        {
            let mut cache = self.pred_cache.lock();
            for (idx, dim) in self.dims.iter().enumerate() {
                match dim_order.iter().position(|&d| d == idx as u32) {
                    Some(pos) => {
                        dim.join.write_bypass(slot, false);
                        let pred = star.dims[pos].predicate.clone();
                        let key = pred_key(&pred);
                        // Predicate sharing: an *active* query with the
                        // identical predicate on this dimension already
                        // computed these bits — copy them.
                        let source = cache[idx]
                            .get(&key)
                            .filter(|(p, _)| *p == pred)
                            .map(|(_, s)| *s);
                        match source {
                            Some(src) if src != slot => {
                                for e in 0..dim.join.entries() {
                                    dim.join.write_entry(e, slot, dim.join.entry_bit(e, src));
                                }
                                dedup_hits += 1;
                            }
                            _ => {
                                // Contained: a panicking dimension
                                // predicate fails only this admission.
                                // Entry bits already written for the slot
                                // are fully overwritten by the slot's next
                                // occupant, but cache entries pointing at
                                // this slot must not survive (a later
                                // query would copy half-evaluated bits).
                                match catch_unwind(AssertUnwindSafe(|| {
                                    admission_scan(dim, &pred, slot)
                                })) {
                                    Ok(n) => {
                                        evals += n;
                                        cache[idx].insert(key, (pred, slot));
                                    }
                                    Err(_) => {
                                        for per_dim in cache.iter_mut() {
                                            per_dim.retain(|_, (_, s)| *s != slot);
                                        }
                                        drop(cache);
                                        self.free_slots.lock().push(slot);
                                        self.ctx
                                            .metrics
                                            .panics_contained
                                            .fetch_add(1, Ordering::Relaxed);
                                        return Err(CjoinError::Admission(format!(
                                            "dimension predicate on `{}` panicked",
                                            dim.spec.table
                                        )));
                                    }
                                }
                            }
                        }
                    }
                    None => {
                        dim.join.write_bypass(slot, true);
                        // Entries' bits for this slot are irrelevant
                        // (bypass short-circuits).
                    }
                }
            }
        }
        self.metrics
            .admission_evals
            .fetch_add(evals, Ordering::Relaxed);
        self.metrics
            .admission_dedup_hits
            .fetch_add(dedup_hits, Ordering::Relaxed);

        // Output schema: fact columns, then each dim's columns in the
        // query's join order — identical to the query-centric join chain.
        let mut out_schema = self.fact_schema.clone();
        for &d in &dim_order {
            out_schema = out_schema.join(&self.dims[d as usize].schema);
        }

        let (hub, reader) = OutputHub::new(
            ShareMode::Pull,
            StageKind::Cjoin,
            16,
            self.ctx.metrics.clone(),
            self.ctx.governor.clone(),
        );
        // Output-page allocation runs on the submitter's thread; a panic
        // here (e.g. the `page.alloc` failpoint, or a real OOM-style
        // abort) must degrade to a failed admission, not kill the caller.
        let builder = match catch_unwind(AssertUnwindSafe(|| {
            PageBuilder::with_bytes(out_schema.clone(), self.out_page_bytes)
        })) {
            Ok(b) => b,
            Err(_) => {
                {
                    let mut cache = self.pred_cache.lock();
                    for per_dim in cache.iter_mut() {
                        per_dim.retain(|_, (_, s)| *s != slot);
                    }
                }
                self.free_slots.lock().push(slot);
                self.ctx
                    .metrics
                    .panics_contained
                    .fetch_add(1, Ordering::Relaxed);
                return Err(CjoinError::Admission(
                    "output page allocation panicked".into(),
                ));
            }
        };
        let output = Box::new(QueryOutput {
            hub: hub.clone(),
            builder,
            dim_order,
            out_schema: out_schema.clone(),
        });
        self.metrics.admissions.fetch_add(1, Ordering::Relaxed);
        let fact_pred = star
            .fact_predicate
            .as_ref()
            .map(|e| Arc::new(CompiledPred::compile(e, &self.fact_schema)));
        let gen = self.admit_gen.fetch_add(1, Ordering::Relaxed);
        if self
            .ctl_tx
            .send(Ctl::Admit {
                slot,
                gen,
                fact_pred,
                output,
            })
            .is_err()
        {
            // The preprocessor is gone (pipeline shut down or its thread
            // died): surface a typed error instead of panicking, and give
            // the slot back so a later pipeline rebuild starts clean.
            {
                let mut cache = self.pred_cache.lock();
                for per_dim in cache.iter_mut() {
                    per_dim.retain(|_, (_, s)| *s != slot);
                }
            }
            self.free_slots.lock().push(slot);
            return Err(CjoinError::Down);
        }
        // Slot is returned to the allocator by the distributor when the
        // revolution completes — see `distributor_loop`.
        Ok(CjoinQuery {
            reader,
            hub,
            schema: out_schema,
            slot,
            cancel: CjoinCancel {
                ctl_tx: self.ctl_tx.clone(),
                slot,
                gen,
            },
        })
    }
}

impl Drop for CjoinPipeline {
    fn drop(&mut self) {
        let _ = self.ctl_tx.send(Ctl::Shutdown);
        for h in self.threads.lock().drain(..) {
            let _ = h.join();
        }
    }
}

/// Entry chunk size of the batched dimension-admission scan: large enough
/// to amortize the batch decode, small enough to stay cache-resident.
const ADMIT_BATCH_ROWS: usize = 4096;

/// Evaluate a (possibly absent) dimension predicate for `slot` over every
/// hash-table entry, page-at-a-time: the referenced columns of a chunk of
/// entries are decoded once and the compiled predicate runs column-wise,
/// instead of tree-walking `Expr::eval` per entry. Returns the number of
/// entry evaluations performed (the admission-cost metric).
fn admission_scan(dim: &DimData, pred: &Option<Expr>, slot: u32) -> u64 {
    let n = dim.join.entries();
    let Some(pred) = pred else {
        for e in 0..n {
            dim.join.write_entry(e, slot, true);
        }
        return n as u64;
    };
    let compiled = CompiledPred::compile(pred, &dim.schema);
    let mut scratch = PredScratch::new();
    let mut mask: Vec<u64> = Vec::new();
    let mut slices: Vec<&[u8]> = Vec::with_capacity(ADMIT_BATCH_ROWS.min(n));
    for start in (0..n).step_by(ADMIT_BATCH_ROWS) {
        let end = (start + ADMIT_BATCH_ROWS).min(n);
        slices.clear();
        slices.extend((start..end).map(|e| dim.row(e)));
        let batch = ColumnBatch::from_rows(&dim.schema, &slices, compiled.columns());
        compiled.eval_batch(&batch, &mut scratch, &mut mask);
        for (i, e) in (start..end).enumerate() {
            dim.join.write_entry(e, slot, mask[i / 64] & (1u64 << (i % 64)) != 0);
        }
    }
    n as u64
}

// ---------------------------------------------------------------------
// Stage bodies
// ---------------------------------------------------------------------

struct ActiveQuery {
    slot: u32,
    /// Admission generation: distinguishes this occupancy of `slot` from
    /// earlier (freed) ones, so a stale gen-checked removal can't kill a
    /// successor query that reused the slot.
    gen: u64,
    fact_pred: Option<Arc<CompiledPred>>,
    remaining_pages: usize,
}

/// A unit of parallel fact-predicate evaluation: rows `range` of `page`
/// against the compiled-predicate snapshot. One chunk is one morsel task
/// on the engine's shared worker pool; the preprocessor reassembles chunk
/// results in range order.
struct ChunkJob {
    page: Arc<Page>,
    range: std::ops::Range<usize>,
    preds: Arc<Vec<(u32, Option<Arc<CompiledPred>>)>>,
    /// Union of the columns referenced by any active predicate — the set
    /// the batch decodes once for all queries.
    cols: Arc<Vec<usize>>,
    /// Query-bit words per tuple: `⌈max_queries/64⌉`.
    words: usize,
}

/// Reusable buffers for [`eval_chunk`], held per worker thread so
/// steady-state chunk evaluation allocates only the outgoing
/// rows/bits vectors.
#[derive(Default)]
struct ChunkScratch {
    pred: PredScratch,
    /// Flat `nq × words` per-query selection masks.
    masks: Vec<u64>,
    /// OR of all query masks: rows any active query still wants.
    any: Vec<u64>,
    /// Per-query evaluation output before it lands in `masks`.
    qmask: Vec<u64>,
    /// Chunk-row index → survivor index (`u32::MAX` = dropped).
    sel_index: Vec<u32>,
}

/// Page-at-a-time preprocessor step: decode the referenced columns of the
/// chunk once, run every active query's compiled predicate column-wise
/// into a per-query selection mask, then transpose the masks straight
/// into the query-bit column the shared joins consume. Dead rows (no
/// query bit set) get no words.
fn eval_chunk(job: &ChunkJob, scratch: &mut ChunkScratch) -> (Vec<u32>, BitColumn, Vec<u32>) {
    let n = job.range.len();
    if n == 0 {
        return (Vec::new(), BitColumn::zeros(job.words, 0), Vec::new());
    }
    let words = mask_words(n);
    let nq = job.preds.len();
    // Predicate-shaped decode: dictionary-coded Char columns on columnar
    // pages stay as codes, so every active query's string predicate is
    // evaluated once per dictionary entry instead of once per row.
    let batch = ColumnBatch::for_predicate_range(&job.page, job.range.clone(), &job.cols);

    scratch.masks.clear();
    scratch.masks.resize(nq * words, 0);
    scratch.any.clear();
    scratch.any.resize(words, 0);
    let mut poisoned: Vec<u32> = Vec::new();
    for (qi, (slot, pred)) in job.preds.iter().enumerate() {
        let dst = &mut scratch.masks[qi * words..(qi + 1) * words];
        match pred {
            Some(p) => {
                // Per-query containment: one query's panicking predicate
                // must not take down the chunk (and with it every
                // co-runner's rows). The poisoned query keeps an all-zero
                // mask and is reported for abortion.
                let ok = catch_unwind(AssertUnwindSafe(|| {
                    p.eval_batch(&batch, &mut scratch.pred, &mut scratch.qmask)
                }));
                if ok.is_err() {
                    scratch.pred = PredScratch::new(); // state unknown after unwind
                    poisoned.push(*slot);
                    continue;
                }
                dst.copy_from_slice(&scratch.qmask);
            }
            None => {
                // No predicate: the query wants every row.
                dst.fill(u64::MAX);
                if !n.is_multiple_of(64) {
                    dst[words - 1] = (1u64 << (n % 64)) - 1;
                }
            }
        }
        for (a, m) in scratch.any.iter_mut().zip(dst.iter()) {
            *a |= *m;
        }
    }

    // Survivors: rows at least one query wants.
    let survivors = scratch.any.iter().map(|w| w.count_ones() as usize).sum();
    let mut rows: Vec<u32> = Vec::with_capacity(survivors);
    scratch.sel_index.clear();
    scratch.sel_index.resize(n, u32::MAX);
    for i in iter_ones(&scratch.any) {
        scratch.sel_index[i] = rows.len() as u32;
        rows.push((job.range.start + i) as u32);
    }
    // Transpose the per-query masks into the survivors' query bits.
    let mut bits = BitColumn::zeros(job.words, rows.len());
    for (qi, (slot, _)) in job.preds.iter().enumerate() {
        let m = &scratch.masks[qi * words..(qi + 1) * words];
        for i in iter_ones(m) {
            bits.set(scratch.sel_index[i] as usize, *slot as usize);
        }
    }
    (rows, bits, poisoned)
}

/// Stage-channel failpoints, injected where a stage hands a batch to the
/// next channel. `<point>.delay` stalls the send (stage-channel
/// backpressure); `<point>.abort` fails it — a lost batch. Sites:
/// `cjoin.chan` (preprocessor — aborts every active query, like a
/// poisoned page), `cjoin.dim.chan` (dim hash-join stages) and
/// `cjoin.fanout.chan` (fan-out broadcast), which abort exactly the
/// queries with bits in the lost batch. The pipeline lives on in every
/// case.
fn chan_fault_at(delay: &'static str, abort: &'static str) -> Result<(), String> {
    if !qs_storage::fault::armed() {
        return Ok(());
    }
    qs_storage::fault::maybe_delay(delay);
    if qs_storage::fault::should_fire(abort) {
        return Err(format!("injected fault `{abort}`"));
    }
    Ok(())
}

fn chan_fault() -> Result<(), String> {
    chan_fault_at("cjoin.chan.delay", "cjoin.chan.abort")
}

/// The queries whose bit any tuple of `batch` carries — exactly the set
/// whose rows a lost batch would silently drop. Ascending.
fn affected_slots(batch: &Batch) -> Vec<u32> {
    batch
        .fact
        .bits()
        .union()
        .iter_ones()
        .map(|q| q as u32)
        .collect()
}

fn preprocessor_loop(
    fact: Arc<Table>,
    ctx: Arc<ExecCtx>,
    metrics: Arc<CjoinMetrics>,
    max_queries: usize,
    ctl_rx: Receiver<Ctl>,
    out: Sender<Msg>,
) {
    let mut active: Vec<ActiveQuery> = Vec::new();
    let mut pos = 0usize;
    let pages = fact.page_count();
    // Read-ahead: while queries are active, the next `window` pages after
    // `pos` are kept loading on the disk's spindles (one new page issued
    // per page consumed), so the scan's own `get` rarely waits on the
    // disk. Zero on a memory-resident pool. `ahead` counts the pages
    // after `pos` already issued.
    let window = ctx.pool.read_ahead_window().min(pages.saturating_sub(1));
    let mut ahead = 0usize;
    let words = mask_words(max_queries).max(1);
    let mut inline_scratch = ChunkScratch::default();
    // Per-chunk scratch and result slots for the pooled parallel path,
    // reused across pages: surviving rows, their query bits, poisoned
    // query slots.
    type ChunkResult = (Vec<u32>, BitColumn, Vec<u32>);
    let mut chunk_scratch: Vec<ChunkScratch> = Vec::new();
    let mut chunk_out: Vec<Option<ChunkResult>> = Vec::new();
    // Predicate snapshot shared with the worker pool, plus the union of
    // referenced columns; invariant between admissions/removals, so it is
    // rebuilt only when `active` changes, not per page.
    type PredSnapshot = (
        Arc<Vec<(u32, Option<Arc<CompiledPred>>)>>,
        Arc<Vec<usize>>,
    );
    let mut snapshot: Option<PredSnapshot> = None;
    'outer: loop {
        // Apply pending control messages; block when idle.
        loop {
            let ctl = if active.is_empty() {
                match ctl_rx.recv() {
                    Ok(c) => c,
                    Err(_) => break 'outer,
                }
            } else {
                match ctl_rx.try_recv() {
                    Ok(c) => c,
                    Err(crossbeam::channel::TryRecvError::Empty) => break,
                    Err(crossbeam::channel::TryRecvError::Disconnected) => break 'outer,
                }
            };
            match ctl {
                Ctl::Admit {
                    slot,
                    gen,
                    fact_pred,
                    output,
                } => {
                    if out.send(Msg::Admitted(slot, output)).is_err() {
                        break 'outer;
                    }
                    if pages == 0 {
                        // Empty fact table: the query completes instantly.
                        if out.send(Msg::QueryDone(slot)).is_err() {
                            break 'outer;
                        }
                    } else {
                        active.push(ActiveQuery {
                            slot,
                            gen,
                            fact_pred,
                            remaining_pages: pages,
                        });
                        snapshot = None;
                    }
                }
                Ctl::Remove { slot, gen } => {
                    // Only forward QueryDone if the query is still active;
                    // a natural completion may have raced the removal (in
                    // which case its QueryDone is already in flight and
                    // the slot must not be double-freed). A gen-checked
                    // removal additionally requires the occupant to be the
                    // admission that requested it — a stale cancel must
                    // not kill a successor query that reused the slot.
                    let before = active.len();
                    active.retain(|q| q.slot != slot || gen.is_some_and(|g| g != q.gen));
                    if active.len() < before {
                        snapshot = None;
                        if out.send(Msg::QueryDone(slot)).is_err() {
                            break 'outer;
                        }
                    }
                }
                Ctl::Shutdown => break 'outer,
            }
        }

        if active.is_empty() {
            // Idle: the scan stops here, and so does its read-ahead.
            ahead = 0;
            continue;
        }
        while ahead < window {
            ahead += 1;
            ctx.pool.read_ahead(&fact, (pos + ahead) % pages);
        }

        // One page of the circular fact scan. A failed read poisons every
        // query whose revolution spans this page — i.e. all currently
        // active ones — but not the pipeline: their outputs are aborted
        // with the typed cause and the scan moves on for future admits.
        // (A failed read-ahead of this page is not such a failure: it
        // left no entry, and this `get` read the page itself.)
        let read = ctx.pool.get(&fact, pos);
        let page_no = pos;
        pos = (pos + 1) % pages;
        ahead = ahead.saturating_sub(1);
        let page = match read {
            Ok(p) => p,
            Err(e) => {
                let msg = format!("fact page {page_no} unreadable: {e}");
                for q in active.drain(..) {
                    if out.send(Msg::QueryAborted(q.slot, msg.clone())).is_err() {
                        break 'outer;
                    }
                }
                snapshot = None;
                continue;
            }
        };
        fact.advance_clock(page_no);
        metrics.fact_pages.fetch_add(1, Ordering::Relaxed);

        // Evaluate every active query's fact predicate on every row —
        // page-at-a-time over one shared column batch, chunked across the
        // preprocessor worker pool when the page and query count justify
        // the fan-out. Predicates were compiled at admission and the
        // snapshot survives until the active set changes, so the per-page
        // cost is two `Arc` bumps.
        let (preds, cols) = snapshot
            .get_or_insert_with(|| {
                let preds: Arc<Vec<(u32, Option<Arc<CompiledPred>>)>> = Arc::new(
                    active
                        .iter()
                        .map(|q| (q.slot, q.fact_pred.clone()))
                        .collect(),
                );
                let mut cols: Vec<usize> = preds
                    .iter()
                    .filter_map(|(_, p)| p.as_ref())
                    .flat_map(|p| p.columns().iter().copied())
                    .collect();
                cols.sort_unstable();
                cols.dedup();
                (preds, Arc::new(cols))
            })
            .clone();
        let n_rows = page.rows();
        let parallel = ctx.workers.workers() > 1 && n_rows * active.len() >= 512;
        let mut page_poisoned = false;
        let mut poisoned_slots: Vec<u32> = Vec::new();
        let (rows, bits) = if parallel {
            // Chunked across the shared morsel pool: one task per chunk,
            // each with its own reused scratch and result slot. The pool
            // contains per-task panics (a panic outside any predicate,
            // e.g. in the shared batch decode) and reports them as an
            // `Err` after every sibling finished — the whole-page poison
            // signal that used to be a missing reply.
            let chunks = 4usize;
            let step = n_rows.div_ceil(chunks).max(1);
            let starts: Vec<usize> = (0..n_rows).step_by(step).collect();
            if chunk_scratch.len() < starts.len() {
                chunk_scratch.resize_with(starts.len(), ChunkScratch::default);
            }
            chunk_out.clear();
            chunk_out.resize_with(starts.len(), || None);
            let run = ctx.governor.run(|| {
                let mut tasks: Vec<qs_engine::pool::Task> =
                    Vec::with_capacity(starts.len());
                for ((slot_out, scratch), &start) in chunk_out
                    .iter_mut()
                    .zip(chunk_scratch.iter_mut())
                    .zip(&starts)
                {
                    let job = ChunkJob {
                        page: page.clone(),
                        range: start..(start + step).min(n_rows),
                        preds: preds.clone(),
                        cols: cols.clone(),
                        words,
                    };
                    tasks.push(Box::new(move || {
                        *slot_out = Some(eval_chunk(&job, scratch));
                    }));
                }
                ctx.workers.run(tasks)
            });
            match run {
                Ok(()) => {
                    let parts: Vec<ChunkResult> = chunk_out
                        .iter_mut()
                        .map(|part| part.take().expect("clean pool run fills every chunk"))
                        .collect();
                    let survivors = parts.iter().map(|(r, _, _)| r.len()).sum();
                    let mut rows = Vec::with_capacity(survivors);
                    let mut bits = BitColumn::with_capacity(words, survivors);
                    for (r, b, mut p) in parts {
                        rows.extend(r);
                        bits.extend(&b);
                        poisoned_slots.append(&mut p);
                    }
                    (rows, bits)
                }
                Err(_) => {
                    // A task panicked (or hit the pool failpoint) —
                    // scratches may hold mid-unwind state; rebuild them.
                    chunk_scratch.clear();
                    page_poisoned = true;
                    (Vec::new(), BitColumn::default())
                }
            }
        } else {
            let inline = catch_unwind(AssertUnwindSafe(|| {
                ctx.governor.run(|| {
                    eval_chunk(
                        &ChunkJob {
                            page: page.clone(),
                            range: 0..n_rows,
                            preds: preds.clone(),
                            cols: cols.clone(),
                            words,
                        },
                        &mut inline_scratch,
                    )
                })
            }));
            match inline {
                Ok((rows, bits, poisoned)) => {
                    poisoned_slots = poisoned;
                    (rows, bits)
                }
                Err(_) => {
                    ctx.metrics.panics_contained.fetch_add(1, Ordering::Relaxed);
                    inline_scratch = ChunkScratch::default();
                    page_poisoned = true;
                    (Vec::new(), BitColumn::default())
                }
            }
        };
        if page_poisoned {
            // A chunk evaluated by no surviving reply: any batch built
            // from the remaining chunks would silently drop rows for
            // *every* active query. Abort them all; the pipeline lives.
            let msg = format!("fact page {page_no} evaluation panicked");
            for q in active.drain(..) {
                if out.send(Msg::QueryAborted(q.slot, msg.clone())).is_err() {
                    break 'outer;
                }
            }
            snapshot = None;
            continue;
        }
        // Failpoint on the stage channel: an injected send failure is a
        // lost batch — like a poisoned page, it must abort every query
        // whose revolution spans it, never silently drop their rows.
        if let Err(cause) = chan_fault() {
            let msg = format!("stage channel fault: {cause}");
            for q in active.drain(..) {
                if out.send(Msg::QueryAborted(q.slot, msg.clone())).is_err() {
                    break 'outer;
                }
            }
            snapshot = None;
            continue;
        }
        metrics
            .tuples_in
            .fetch_add(rows.len() as u64, Ordering::Relaxed);
        if out
            .send(Msg::Batch(Batch {
                fact: FactBatch::with_bits(page, rows, bits),
                dim_hits: Vec::new(),
            }))
            .is_err()
        {
            break;
        }
        // Queries whose predicate panicked on this page: contained per
        // query — abort them (after the batch, so the abort supersedes
        // any of their bits already in flight) and keep the co-runners.
        if !poisoned_slots.is_empty() {
            poisoned_slots.sort_unstable();
            poisoned_slots.dedup();
            for slot in poisoned_slots {
                let before = active.len();
                active.retain(|q| q.slot != slot);
                if active.len() < before {
                    snapshot = None;
                    ctx.metrics.panics_contained.fetch_add(1, Ordering::Relaxed);
                    let msg = "fact predicate panicked".to_string();
                    if out.send(Msg::QueryAborted(slot, msg)).is_err() {
                        break 'outer;
                    }
                }
            }
        }

        // Retire queries whose revolution completed.
        let mut done: Vec<u32> = Vec::new();
        active.retain_mut(|q| {
            q.remaining_pages -= 1;
            if q.remaining_pages == 0 {
                done.push(q.slot);
                false
            } else {
                true
            }
        });
        if !done.is_empty() {
            snapshot = None;
        }
        for slot in done {
            if out.send(Msg::QueryDone(slot)).is_err() {
                break 'outer;
            }
        }
    }
    // Channel closes on drop; downstream stages drain and exit.
}

/// Fan-out stage: broadcasts batches to every distributor shard and
/// routes per-query control messages to the owning shard.
fn fanout_loop(in_rx: Receiver<Msg>, shard_txs: Vec<Sender<DistMsg>>, ctl_tx: Sender<Ctl>) {
    while let Ok(msg) = in_rx.recv() {
        match msg {
            Msg::Batch(mut b) => {
                // Failpoint on the broadcast: a batch lost here drops rows
                // for exactly the queries with bits in it — abort their
                // streams (non-terminal; the preprocessor still owes the
                // releasing message) and keep broadcasting for co-runners.
                if let Err(cause) =
                    chan_fault_at("cjoin.fanout.chan.delay", "cjoin.fanout.chan.abort")
                {
                    let msg = format!("fan-out channel fault: {cause}");
                    for slot in affected_slots(&b) {
                        let shard = slot as usize % shard_txs.len();
                        if shard_txs[shard]
                            .send(DistMsg::StreamAborted(slot, msg.clone()))
                            .is_err()
                        {
                            return;
                        }
                        let _ = ctl_tx.try_send(Ctl::Remove { slot, gen: None });
                    }
                    continue;
                }
                b.fact.materialize_rows();
                let slots = affected_slots(&b);
                let b = Arc::new(b);
                for (shard, tx) in shard_txs.iter().enumerate() {
                    // Per-shard failpoint on the distributor channels: a
                    // batch lost on shard `i`'s channel drops rows for
                    // exactly that shard's queries. Abort their streams
                    // (mid-chain `StreamAborted` — the slot release stays
                    // with the preprocessor's terminal message, requested
                    // early via `Ctl::Remove`) and keep delivering to the
                    // other shards.
                    if let Err(cause) =
                        chan_fault_at("cjoin.shard.chan.delay", "cjoin.shard.chan.abort")
                    {
                        let msg = format!("distributor shard {shard} channel fault: {cause}");
                        for &slot in slots.iter().filter(|&&s| s as usize % shard_txs.len() == shard)
                        {
                            if tx.send(DistMsg::StreamAborted(slot, msg.clone())).is_err() {
                                return;
                            }
                            let _ = ctl_tx.try_send(Ctl::Remove { slot, gen: None });
                        }
                        continue;
                    }
                    if tx.send(DistMsg::Batch(b.clone())).is_err() {
                        return;
                    }
                }
            }
            Msg::Admitted(slot, out) => {
                let shard = slot as usize % shard_txs.len();
                if shard_txs[shard].send(DistMsg::Admitted(slot, out)).is_err() {
                    return;
                }
            }
            Msg::QueryDone(slot) => {
                let shard = slot as usize % shard_txs.len();
                if shard_txs[shard].send(DistMsg::QueryDone(slot)).is_err() {
                    return;
                }
            }
            Msg::QueryAborted(slot, cause) => {
                let shard = slot as usize % shard_txs.len();
                if shard_txs[shard]
                    .send(DistMsg::QueryAborted(slot, cause))
                    .is_err()
                {
                    return;
                }
            }
            Msg::StreamAborted(slot, cause) => {
                let shard = slot as usize % shard_txs.len();
                if shard_txs[shard]
                    .send(DistMsg::StreamAborted(slot, cause))
                    .is_err()
                {
                    return;
                }
            }
        }
    }
}

fn dim_stage_loop(
    dim_idx: usize,
    dims: Arc<Vec<DimData>>,
    ctx: Arc<ExecCtx>,
    metrics: Arc<CjoinMetrics>,
    in_rx: Receiver<Msg>,
    out: Sender<Msg>,
    ctl_tx: Sender<Ctl>,
) {
    let dim = &dims[dim_idx];
    // Scratch reused across batches: the key column of the surviving
    // tuples, gathered once per batch into a typed slice, and the bypass
    // words, loaded once per batch.
    let mut keys: Vec<i64> = Vec::new();
    let mut bypass: Vec<u64> = Vec::new();
    while let Ok(msg) = in_rx.recv() {
        match msg {
            Msg::Batch(mut batch) => {
                // Failpoint on this stage's output channel: a lost batch
                // aborts exactly the queries with bits in it (mid-chain,
                // so via the non-terminal `StreamAborted` — the slot is
                // still released by the preprocessor's terminal message,
                // requested early via `Ctl::Remove`). Co-runners admitted
                // later and the pipeline itself continue undisturbed.
                if let Err(cause) =
                    chan_fault_at("cjoin.dim.chan.delay", "cjoin.dim.chan.abort")
                {
                    let msg = format!("dim stage {dim_idx} channel fault: {cause}");
                    for slot in affected_slots(&batch) {
                        if out.send(Msg::StreamAborted(slot, msg.clone())).is_err() {
                            return;
                        }
                        // Never block on the ctl channel from mid-chain
                        // (the preprocessor may be blocked sending to us);
                        // on a full channel the query simply rides out its
                        // revolution and QueryDone releases the slot.
                        let _ = ctl_tx.try_send(Ctl::Remove { slot, gen: None });
                    }
                    continue;
                }
                let before = batch.fact.len();
                // Probe, AND, test and compact in one pass; earlier
                // stages' hit columns compact alongside.
                let hits = ctx.governor.run(|| {
                    batch.fact.gather_i64_into(dim.spec.fact_key, &mut keys);
                    dim.join
                        .probe(&keys, &mut batch.fact, &mut batch.dim_hits, &mut bypass)
                });
                let dropped = before - batch.fact.len();
                if dropped > 0 {
                    metrics
                        .tuples_dropped
                        .fetch_add(dropped as u64, Ordering::Relaxed);
                }
                batch.dim_hits.push(hits);
                if !batch.fact.is_empty() && out.send(Msg::Batch(batch)).is_err() {
                    return;
                }
            }
            other => {
                if out.send(other).is_err() {
                    return;
                }
            }
        }
    }
}

fn distributor_loop(
    dims: Arc<Vec<DimData>>,
    ctx: Arc<ExecCtx>,
    metrics: Arc<CjoinMetrics>,
    free_slots: Arc<Mutex<Vec<u32>>>,
    pred_cache: Arc<PredCache>,
    in_rx: Receiver<DistMsg>,
) {
    let mut outputs: HashMap<u32, Box<QueryOutput>> = HashMap::new();
    let mut rowbuf: Vec<u8> = Vec::new();
    while let Ok(msg) = in_rx.recv() {
        // Per-message panic belt. A panic mid-batch leaves this shard's
        // materialization state ambiguous (which query got which rows),
        // so every open output on the shard is aborted — but their slots
        // are NOT freed here: the preprocessor still scans for them and
        // their eventual QueryDone/QueryAborted performs the (single)
        // slot release. The shard itself keeps serving future queries.
        let step = catch_unwind(AssertUnwindSafe(|| {
            distributor_step(
                msg,
                &dims,
                &ctx,
                &metrics,
                &free_slots,
                &pred_cache,
                &mut outputs,
                &mut rowbuf,
            )
        }));
        if step.is_err() {
            ctx.metrics.panics_contained.fetch_add(1, Ordering::Relaxed);
            for (_, out) in outputs.drain() {
                out.hub.abort("panic in cjoin distributor");
            }
            rowbuf = Vec::new();
        }
    }
    // Pipeline shutting down: abort any query still open.
    for (_, out) in outputs.drain() {
        out.hub.abort("cjoin pipeline shut down");
    }
}

#[allow(clippy::too_many_arguments)]
fn distributor_step(
    msg: DistMsg,
    dims: &Arc<Vec<DimData>>,
    ctx: &Arc<ExecCtx>,
    metrics: &Arc<CjoinMetrics>,
    free_slots: &Arc<Mutex<Vec<u32>>>,
    pred_cache: &Arc<PredCache>,
    outputs: &mut HashMap<u32, Box<QueryOutput>>,
    rowbuf: &mut Vec<u8>,
) {
    // Frees the slot of a terminated query: its predicate-cache entries
    // die with it and the slot returns to the pool. Runs even when the
    // output was already dropped by the shard-level panic belt — the
    // release must happen exactly once, and it is this (terminal) message
    // that performs it. It runs, along with the counter ticks, BEFORE the
    // query's stream is closed: the moment finish/abort lands, a blocked
    // consumer can wake, read stats, and re-admit — every externally
    // observable effect of the termination must already be in place.
    // (Slot reuse cannot race this shard: a re-admission's `Admitted`
    // travels the same preprocessor → fan-out → shard channels behind
    // this message.)
    let release = |slot: u32| {
        {
            let mut cache = pred_cache.lock();
            for per_dim in cache.iter_mut() {
                per_dim.retain(|_, (_, s)| *s != slot);
            }
        }
        free_slots.lock().push(slot);
    };
    match msg {
        DistMsg::Admitted(slot, output) => {
            outputs.insert(slot, output);
        }
        DistMsg::QueryDone(slot) => {
            if let Some(mut out) = outputs.remove(&slot) {
                // A push failure on the final flush must abort, not
                // finish: finishing would hand the consumer a silently
                // truncated stream as a successful result.
                let mut flushed = Ok(());
                if !out.builder.is_empty() {
                    let page = out.builder.finish_and_reset();
                    flushed = out.hub.push_page(Arc::new(page));
                }
                match flushed {
                    Ok(()) => {
                        metrics.completions.fetch_add(1, Ordering::Relaxed);
                        release(slot);
                        out.hub.finish();
                    }
                    Err(e) => {
                        metrics.aborts.fetch_add(1, Ordering::Relaxed);
                        release(slot);
                        out.hub.abort(format!("cjoin output flush failed: {e}"));
                    }
                }
            } else {
                release(slot);
            }
        }
        DistMsg::QueryAborted(slot, cause) => {
            if let Some(out) = outputs.remove(&slot) {
                metrics.aborts.fetch_add(1, Ordering::Relaxed);
                release(slot);
                out.hub.abort(cause);
            } else {
                release(slot);
            }
        }
        DistMsg::StreamAborted(slot, cause) => {
            // Mid-chain abort: close the stream, but the slot stays owned
            // — the preprocessor's terminal message (ordered behind this
            // one on the same channels) performs the single release. With
            // no open output this is a no-op: the terminal message won the
            // race, and re-issuing a release here would double-free a
            // possibly re-admitted slot.
            if let Some(out) = outputs.remove(&slot) {
                metrics.aborts.fetch_add(1, Ordering::Relaxed);
                out.hub.abort(cause);
            }
        }
        DistMsg::Batch(batch) => {
            if outputs.is_empty() {
                return; // none of this shard's queries are active
            }
            let mut flushes: Vec<(u32, Arc<Page>)> = Vec::new();
            ctx.governor.run(|| {
                let bits = batch.fact.bits();
                for t in 0..batch.fact.len() {
                    // Fact bytes were gathered once per batch at
                    // fan-out; the per-(tuple × query) loop only
                    // concatenates slices.
                    let fact_bytes = batch.fact.row_bytes(t);
                    for q in iter_ones(bits.tuple(t)) {
                        let Some(out) = outputs.get_mut(&(q as u32)) else {
                            continue;
                        };
                        rowbuf.clear();
                        rowbuf.extend_from_slice(fact_bytes);
                        for &d in &out.dim_order {
                            let eidx = batch.dim_hits[d as usize][t];
                            debug_assert_ne!(
                                eidx,
                                u32::MAX,
                                "query joined this dim, so it must have matched"
                            );
                            rowbuf.extend_from_slice(dims[d as usize].row(eidx as usize));
                        }
                        debug_assert_eq!(rowbuf.len(), out.out_schema.row_size());
                        if !out.builder.push_encoded(rowbuf) {
                            let page = out.builder.finish_and_reset();
                            flushes.push((q as u32, Arc::new(page)));
                            let ok = out.builder.push_encoded(rowbuf);
                            debug_assert!(ok);
                        }
                        metrics.rows_out.fetch_add(1, Ordering::Relaxed);
                    }
                }
            });
            for (q, page) in flushes {
                if let Some(out) = outputs.get(&q) {
                    // A dropped push reader surfaces as `Cancelled` and is
                    // pruned inside the hub (push_many returns Ok), so an
                    // Err here is a real delivery failure (e.g. an injected
                    // channel abort): close this query's output as aborted
                    // now — the later terminal message would otherwise
                    // `finish` a truncated stream as a success. The slot is
                    // NOT freed here; the terminal message still does that.
                    if let Err(e) = out.hub.push_page(page) {
                        let out = outputs.remove(&q).expect("output just seen");
                        metrics.aborts.fetch_add(1, Ordering::Relaxed);
                        out.hub.abort(format!("cjoin output delivery failed: {e}"));
                    }
                }
            }
        }
    }
}
