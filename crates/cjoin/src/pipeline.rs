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
//! (`Msg::Query`), so ordering guarantees are free: a query's output hub
//! is installed downstream before its first tuple, and finished after its
//! last.
//!
//! # Faults
//!
//! One always-on plan serves every query, so a fault must cost exactly
//! the queries it touched, and each of their slots must come back exactly
//! once. A query's stream ends in one of two ways:
//!
//! * **Terminal** (`QueryEvent::Ended`): only the preprocessor sends it,
//!   when the query leaves its active set — cleanly, after a full
//!   revolution or an early removal (`Ctl::Remove`), or aborted: its fact
//!   predicate panicked, or a page was lost for every active query (an
//!   unreadable page, an evaluation that failed outside any one
//!   predicate, or the `cjoin.chan` failpoint; see `abort_active`). The
//!   distributor closes the stream and releases the slot.
//! * **Stream abort** (`QueryEvent::StreamAborted`): a stage past the
//!   preprocessor lost a batch (the `cjoin.dim.chan`, `cjoin.fanout.chan`
//!   and `cjoin.shard.chan` failpoints; see `lose_batch`), and with it
//!   rows of exactly the queries whose bits it carried. Their streams
//!   abort at once, but their slots stay taken: the stage asks for their
//!   early removal, and the terminal message that follows releases them.
//!
//! A slot goes back only when its `SlotClaim` drops. The claim moves from
//! the admission into `Ctl::Admit`, the preprocessor's active set and the
//! terminal message, so it is released exactly once whichever path ends
//! the query; a batch admission that fails before its `Ctl::Admit` is
//! sent drops every member's claim on the spot.
//!
//! Panics are contained ([`qs_engine::contain_panic`]) per stage thread
//! (the channel cascade then tears the chain down and the distributors
//! abort every open stream), per batch admission (it fails as a whole and
//! alone), per query predicate in the preprocessor (that query aborts),
//! per fact page (every active query aborts) and per distributor message
//! (the shard's open streams abort; their slots wait for their terminal
//! messages).

use crate::join::DimJoin;
use crate::stats::{CjoinMetrics, CjoinStats};
use crossbeam::channel::{bounded, Receiver, SendError, Sender, TryRecvError};
use parking_lot::Mutex;
use qs_engine::pool::Task;
use qs_engine::{
    contain_panic, BatchSource, EngineError, ExecCtx, OutputHub, ShareMode, StageKind,
};
use qs_plan::compiled::{iter_ones, mask_words};
use qs_plan::{CompiledPred, Expr, PredScratch, StarQuery};
use qs_storage::{
    fault, BitColumn, Catalog, ColumnBatch, FactBatch, Page, PageBuilder, Schema, Table,
};
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
/// instead of panicking mid-construction (a resource-exhausted host
/// degrades to a clean `Err`). The stage body runs under the stage belt:
/// if it unwinds, the containment is counted and the thread exits. The
/// channel cascade then tears the chain down to the distributors, whose
/// drain path aborts every open query hub — co-runners degrade to failed
/// tickets, never to a dead process or a hung reader.
fn spawn_stage(
    threads: &mut JoinOnDrop,
    name: String,
    metrics: Arc<qs_engine::Metrics>,
    f: impl FnOnce() + Send + 'static,
) -> Result<(), CjoinError> {
    let stage = name.clone();
    let h = std::thread::Builder::new()
        .name(name.clone())
        .spawn(move || {
            if let Err(panic) = contain_panic(&metrics, &stage, f) {
                eprintln!("cjoin: contained {panic}; pipeline shutting down");
            }
        })
        .map_err(|e| CjoinError::Spawn(format!("{name}: {e}")))?;
    threads.0.push(h);
    Ok(())
}

/// The next stage hung up: the pipeline is shutting down, and the stage
/// loop that sees it returns.
struct Closed;

impl<T> From<SendError<T>> for Closed {
    fn from(_: SendError<T>) -> Closed {
        Closed
    }
}

/// Errors surfaced by the CJOIN operator.
#[derive(Debug, Clone, PartialEq)]
pub enum CjoinError {
    /// The star query does not fit this pipeline (wrong fact table or an
    /// unknown (dim, key) pair).
    Incompatible(String),
    /// Fewer query slots are free than the admission needs.
    Saturated,
    /// Storage failure during construction.
    Storage(qs_storage::StorageError),
    /// A stage thread could not be spawned at construction.
    Spawn(String),
    /// The pipeline's stage chain has terminated (shutdown, or a stage
    /// thread died); no further admissions are possible.
    Down,
    /// Admission-time work failed (e.g. a dimension predicate panicked
    /// while scanning the hash table); a batch admission fails as a
    /// whole. The pipeline and its co-running queries are unaffected.
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

/// What flows down the chain. Batches are `B` = [`Batch`] up to the
/// fan-out, which broadcasts each one to every distributor shard as
/// `Arc<Batch>`; per-query events travel the same channels, and the
/// fan-out routes each to the shard that owns its slot.
enum Msg<B> {
    Batch(B),
    Query(u32, QueryEvent),
}

/// A per-query event (see the module's "Faults" section).
enum QueryEvent {
    /// Install the query's output at its distributor shard.
    Admitted(Box<QueryOutput>),
    /// Terminal: the query left the preprocessor's active set, cleanly
    /// (`Ok`) or aborted by a contained fault (`Err(cause)`, so the client
    /// sees a typed error while every co-runner continues). Closes the
    /// query's stream and, by dropping the claim, releases its slot.
    Ended(SlotClaim, Result<(), String>),
    /// Mid-chain abort (a stage past the preprocessor lost a batch):
    /// aborts the query's stream but keeps its slot, which the terminal
    /// `Ended` the preprocessor still owes releases.
    StreamAborted(String),
}

/// One member of an admitted batch, as the preprocessor takes it over.
struct Admission {
    claim: SlotClaim,
    /// Admission generation (see [`ActiveQuery::gen`]).
    gen: u64,
    /// Fact predicate, compiled once at admission; shared by every
    /// page-of-rows snapshot for the query's whole revolution.
    fact_pred: Option<Arc<CompiledPred>>,
    output: Box<QueryOutput>,
}

enum Ctl {
    /// A batch of admissions: the preprocessor takes all of them between
    /// two pages, so every member starts its revolution on the same page.
    Admit(Vec<Admission>),
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

/// Handle returned by [`CjoinPipeline::admit`] (one per member of
/// [`CjoinPipeline::admit_batch`]).
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

/// Per dimension, the predicates of the slots' *active* admissions:
/// signature → (predicate, slot). When a new query brings a predicate
/// identical to one already evaluated for an active query on the same
/// dimension, its bits are copied from that query's instead of
/// re-evaluating the predicate over every entry (the CJOIN prototype's
/// predicate-sharing optimization).
type PredCache = Vec<HashMap<u64, (Option<Expr>, u32)>>;

/// The pipeline's query slots: the free list, and the predicate cache
/// that admission de-duplicates against.
struct Slots {
    free: Mutex<Vec<u32>>,
    preds: Mutex<PredCache>,
}

impl Slots {
    /// Take `n` free slots, or none when fewer are free. The free list is
    /// a stack: the first claim gets the slot released last.
    fn claim(self: &Arc<Self>, n: usize) -> Option<Vec<SlotClaim>> {
        let taken = {
            let mut free = self.free.lock();
            let keep = free.len().checked_sub(n)?;
            free.split_off(keep)
        };
        let claims = taken.into_iter().rev().map(|slot| SlotClaim {
            slots: self.clone(),
            slot,
        });
        Some(claims.collect())
    }
}

/// Ownership of one query slot. It is not `Clone`, and dropping it is
/// the only way a slot goes back to the free list, so each occupancy is
/// released exactly once, wherever its last owner lets go of it.
struct SlotClaim {
    slots: Arc<Slots>,
    slot: u32,
}

impl Drop for SlotClaim {
    fn drop(&mut self) {
        // The slot's predicate-cache entries die with it: its next
        // occupant overwrites the entry bits a later admission would copy.
        let slot = self.slot;
        for per_dim in self.slots.preds.lock().iter_mut() {
            per_dim.retain(|_, (_, s)| *s != slot);
        }
        self.slots.free.lock().push(slot);
    }
}

/// The always-on CJOIN operator.
pub struct CjoinPipeline {
    fact: Arc<Table>,
    fact_schema: Arc<Schema>,
    dims: Arc<Vec<DimData>>,
    ctl_tx: Sender<Ctl>,
    slots: Arc<Slots>,
    /// Monotonic admission counter (see [`ActiveQuery::gen`]).
    admit_gen: std::sync::atomic::AtomicU64,
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
        let (head_tx, mut prev_rx) = bounded::<Msg<Batch>>(spec.channel_depth.max(1));

        // Preprocessor thread. Per-page fact-predicate evaluation fans
        // out across the engine's shared morsel pool (`ctx.workers`).
        {
            let fact = fact.clone();
            let ctx = ctx.clone();
            let metrics = metrics.clone();
            let max_queries = spec.max_queries;
            spawn_stage(
                &mut threads,
                "cjoin-preproc".into(),
                ctx.metrics.clone(),
                move || {
                    let _ = preprocessor_loop(fact, ctx, metrics, max_queries, ctl_rx, head_tx);
                },
            )?;
        }

        // One thread per shared hash-join.
        for dim_idx in 0..dims.len() {
            let (tx, rx) = bounded::<Msg<Batch>>(spec.channel_depth.max(1));
            let dims = dims.clone();
            let ctx = ctx.clone();
            let metrics = metrics.clone();
            let in_rx = prev_rx;
            let ctl = ctl_tx.clone();
            spawn_stage(
                &mut threads,
                format!("cjoin-dim{dim_idx}"),
                ctx.metrics.clone(),
                move || {
                    let _ = dim_stage_loop(dim_idx, dims, ctx, metrics, in_rx, tx, ctl);
                },
            )?;
            prev_rx = rx;
        }

        // Distributor shards: slot s is owned by shard s % dist_shards.
        let slots = Arc::new(Slots {
            free: Mutex::new((0..spec.max_queries as u32).rev().collect()),
            preds: Mutex::new(vec![HashMap::new(); dims.len()]),
        });
        let shards = spec.dist_shards.max(1);
        let mut shard_txs: Vec<Sender<Msg<Arc<Batch>>>> = Vec::with_capacity(shards);
        for shard in 0..shards {
            let (tx, rx) = bounded::<Msg<Arc<Batch>>>(spec.channel_depth.max(1));
            shard_txs.push(tx);
            let dims = dims.clone();
            let ctx = ctx.clone();
            let metrics = metrics.clone();
            spawn_stage(
                &mut threads,
                format!("cjoin-dist{shard}"),
                ctx.metrics.clone(),
                move || distributor_loop(dims, ctx, metrics, rx),
            )?;
        }
        // Fan-out thread: broadcasts batches to every shard, routes
        // admissions/completions to the owning shard. Surviving tuples'
        // fact-row bytes are materialized here, once per batch, so the
        // shards fan out from a contiguous buffer instead of each
        // re-reading the page per (tuple × query).
        {
            let ctl = ctl_tx.clone();
            spawn_stage(
                &mut threads,
                "cjoin-fanout".into(),
                ctx.metrics.clone(),
                move || {
                    let _ = fanout_loop(prev_rx, shard_txs, ctl);
                },
            )?;
        }
        let threads = std::mem::take(&mut threads.0);

        Ok(CjoinPipeline {
            fact,
            fact_schema,
            dims,
            ctl_tx,
            slots,
            admit_gen: std::sync::atomic::AtomicU64::new(0),
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
        self.slots.free.lock().len()
    }

    /// Counters.
    pub fn stats(&self) -> CjoinStats {
        self.metrics.snapshot()
    }

    /// Reset counters (between experiment points).
    pub fn reset_stats(&self) {
        self.metrics.reset();
    }

    /// Admit a star query into the GQP: a batch of one
    /// ([`Self::admit_batch`]). Returns the stream of its joined tuples;
    /// the query is complete when the stream ends (one full fact
    /// revolution).
    pub fn admit(&self, star: &StarQuery) -> Result<CjoinQuery, CjoinError> {
        let mut admitted = self.admit_batch(&[star])?;
        Ok(admitted.pop().expect("a batch of one admits one query"))
    }

    /// Admit a batch of star queries into the GQP, all or none: the
    /// streams come back in `stars` order, and every member starts its
    /// revolution on the same fact page, so the batch costs the scan one
    /// revolution. A batch larger than [`Self::free_slots`] is
    /// [`CjoinError::Saturated`]; a member that does not fit the pipeline,
    /// or admission work that fails, fails the whole batch, and every slot
    /// it claimed goes back.
    ///
    /// The dimension work is shared across the batch. On each dimension
    /// the members are grouped by identical predicate; a group is copied
    /// from an active query with that predicate or evaluated once, over
    /// entry chunks decoded once for every evaluated group; and each
    /// entry's words are written once for the whole batch.
    pub fn admit_batch(&self, stars: &[&StarQuery]) -> Result<Vec<CjoinQuery>, CjoinError> {
        if stars.is_empty() {
            return Ok(Vec::new());
        }
        let orders = stars
            .iter()
            .map(|star| self.dim_order(star))
            .collect::<Result<Vec<_>, _>>()?;
        let claims = self.slots.claim(stars.len()).ok_or(CjoinError::Saturated)?;
        let slots: Vec<u32> = claims.iter().map(|c| c.slot).collect();
        // Output schema: fact columns, then each dim's columns in the
        // query's join order — identical to the query-centric join chain.
        let schemas: Vec<Arc<Schema>> = orders
            .iter()
            .map(|order| {
                order.iter().fold(self.fact_schema.clone(), |schema, &d| {
                    schema.join(&self.dims[d as usize].schema)
                })
            })
            .collect();

        // The admission's own work runs on the submitter's thread,
        // contained: a panic (a dimension predicate, the `page.alloc`
        // failpoint on an output page) fails only this batch, and `claims`
        // drop on the way out, releasing the slots along with any
        // predicate-cache entries already published for them.
        let builders = contain_panic(&self.ctx.metrics, "cjoin admission", || {
            self.write_dimension_bits(stars, &orders, &slots);
            schemas
                .iter()
                .map(|schema| PageBuilder::with_bytes(schema.clone(), self.out_page_bytes))
                .collect::<Vec<_>>()
        })
        .map_err(CjoinError::Admission)?;

        let mut queries = Vec::with_capacity(stars.len());
        let mut admissions = Vec::with_capacity(stars.len());
        let members = stars.iter().zip(claims).zip(orders).zip(schemas);
        for ((((star, claim), dim_order), out_schema), builder) in members.zip(builders) {
            let (hub, reader) = OutputHub::new(
                ShareMode::Pull,
                StageKind::Cjoin,
                16,
                self.ctx.metrics.clone(),
                self.ctx.governor.clone(),
            );
            let slot = claim.slot;
            let gen = self.admit_gen.fetch_add(1, Ordering::Relaxed);
            queries.push(CjoinQuery {
                reader,
                hub: hub.clone(),
                schema: out_schema.clone(),
                slot,
                cancel: CjoinCancel {
                    ctl_tx: self.ctl_tx.clone(),
                    slot,
                    gen,
                },
            });
            admissions.push(Admission {
                claim,
                gen,
                fact_pred: star
                    .fact_predicate
                    .as_ref()
                    .map(|e| Arc::new(CompiledPred::compile(e, &self.fact_schema))),
                output: Box::new(QueryOutput {
                    hub,
                    builder,
                    dim_order,
                    out_schema,
                }),
            });
        }
        self.metrics
            .admissions
            .fetch_add(stars.len() as u64, Ordering::Relaxed);
        // The send fails only when the preprocessor is gone (pipeline
        // shut down or its thread died): the rejected `Ctl::Admit` drops
        // with the claims in it, so the slots go back and a later rebuild
        // starts clean.
        self.ctl_tx
            .send(Ctl::Admit(admissions))
            .map_err(|_| CjoinError::Down)?;
        Ok(queries)
    }

    /// `star`'s dimensions, in its join order, as pipeline positions.
    fn dim_order(&self, star: &StarQuery) -> Result<Vec<u32>, CjoinError> {
        if star.fact_table != self.fact.name() {
            return Err(CjoinError::Incompatible(format!(
                "fact table `{}` (pipeline serves `{}`)",
                star.fact_table,
                self.fact.name()
            )));
        }
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
        Ok(dim_order)
    }

    /// Write the batch members' bypass bits and entry bits on every
    /// dimension — *before* any member's bit can appear on a tuple (the
    /// `Ctl::Admit` sent after this is what makes the preprocessor start
    /// setting them; see the `join` module for why the stages' plain
    /// loads then see them). The predicate-cache lock, held throughout,
    /// serializes every writer of entry bits.
    fn write_dimension_bits(&self, stars: &[&StarQuery], orders: &[Vec<u32>], slots: &[u32]) {
        let mut evals = 0u64;
        let mut dedup_hits = 0u64;
        let mut cache = self.slots.preds.lock();
        for (idx, (dim, cache)) in self.dims.iter().zip(cache.iter_mut()).enumerate() {
            // The members joining this dimension, grouped by predicate.
            let mut groups: Vec<PredGroup> = Vec::new();
            for ((star, order), &slot) in stars.iter().zip(orders).zip(slots) {
                // A member that bypasses the dimension needs no entry bits:
                // its bypass bit short-circuits the join's AND.
                let pos = order.iter().position(|&d| d == idx as u32);
                dim.join.write_bypass(slot, pos.is_none());
                let Some(pos) = pos else { continue };
                let pred = &star.dims[pos].predicate;
                match groups.iter_mut().find(|g| g.pred == pred) {
                    Some(g) => g.slots.push(slot),
                    None => groups.push(PredGroup {
                        pred,
                        slots: vec![slot],
                    }),
                }
            }
            if !groups.is_empty() {
                let (e, d) = admit_dimension(dim, &groups, cache);
                evals += e;
                dedup_hits += d;
            }
        }
        drop(cache);
        self.metrics
            .admission_evals
            .fetch_add(evals, Ordering::Relaxed);
        self.metrics
            .admission_dedup_hits
            .fetch_add(dedup_hits, Ordering::Relaxed);
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

/// The slots of a batch's members that bring the identical predicate to
/// one dimension.
struct PredGroup<'a> {
    pred: &'a Option<Expr>,
    slots: Vec<u32>,
}

/// Entry chunk size of the dimension-admission scan: large enough to
/// amortize the chunk decode, small enough to stay cache-resident.
const ADMIT_BATCH_ROWS: usize = 4096;

/// Write the entry bits of a batch's members on one dimension, `groups`
/// holding their slots by predicate. A group whose predicate an active
/// query in `cache` already evaluated copies that query's bits (the
/// CJOIN prototype's predicate sharing). Every other group is evaluated
/// once — a compiled predicate over chunks of entries whose columns are
/// decoded once for all such groups — and published in `cache`. Each
/// entry's words are then written once for the whole batch. Returns the
/// entry evaluations (one per evaluated group and entry) and the
/// dedup hits (one per member served without an evaluation of its own).
fn admit_dimension(
    dim: &DimData,
    groups: &[PredGroup],
    cache: &mut HashMap<u64, (Option<Expr>, u32)>,
) -> (u64, u64) {
    let n = dim.join.entries();
    let w = dim.join.words();
    // The members' bits: `mask` over all of them, `values` per entry
    // (entry-major, `w` words each).
    let mut mask = vec![0u64; w];
    let mut values = vec![0u64; n * w];
    let or_entry = |values: &mut [u64], e: usize, bits: &[u64]| {
        for (v, b) in values[e * w..(e + 1) * w].iter_mut().zip(bits) {
            *v |= b;
        }
    };
    let (mut evals, mut dedup_hits) = (0u64, 0u64);
    let mut compiled: Vec<(CompiledPred, Vec<u64>)> = Vec::new();
    for group in groups {
        let mut bits = vec![0u64; w];
        for &slot in &group.slots {
            bits[slot as usize / 64] |= 1u64 << (slot % 64);
        }
        for (m, b) in mask.iter_mut().zip(&bits) {
            *m |= b;
        }
        let key = pred_key(group.pred);
        let source = cache
            .get(&key)
            .filter(|(p, _)| p == group.pred)
            .map(|&(_, slot)| slot);
        if let Some(src) = source {
            for e in (0..n).filter(|&e| dim.join.entry_bit(e, src)) {
                or_entry(&mut values, e, &bits);
            }
            dedup_hits += group.slots.len() as u64;
            continue;
        }
        evals += n as u64;
        dedup_hits += group.slots.len() as u64 - 1;
        cache.insert(key, (group.pred.clone(), group.slots[0]));
        match group.pred {
            None => (0..n).for_each(|e| or_entry(&mut values, e, &bits)),
            Some(pred) => compiled.push((CompiledPred::compile(pred, &dim.schema), bits)),
        }
    }
    if !compiled.is_empty() {
        let mut cols: Vec<usize> = compiled
            .iter()
            .flat_map(|(pred, _)| pred.columns().iter().copied())
            .collect();
        cols.sort_unstable();
        cols.dedup();
        let mut scratch = PredScratch::new();
        let mut hits: Vec<u64> = Vec::new();
        let mut slices: Vec<&[u8]> = Vec::with_capacity(ADMIT_BATCH_ROWS.min(n));
        for start in (0..n).step_by(ADMIT_BATCH_ROWS) {
            slices.clear();
            slices.extend((start..(start + ADMIT_BATCH_ROWS).min(n)).map(|e| dim.row(e)));
            let batch = ColumnBatch::from_rows(&dim.schema, &slices, &cols);
            for (pred, bits) in &compiled {
                pred.eval_batch(&batch, &mut scratch, &mut hits);
                for i in iter_ones(&hits) {
                    or_entry(&mut values, start + i, bits);
                }
            }
        }
    }
    dim.join.write_entries(&mask, &values);
    (evals, dedup_hits)
}

// ---------------------------------------------------------------------
// Stage bodies
// ---------------------------------------------------------------------

struct ActiveQuery {
    claim: SlotClaim,
    /// Admission generation: distinguishes this occupancy of the slot
    /// from earlier (freed) ones, so a stale gen-checked removal can't
    /// kill a successor query that reused the slot.
    gen: u64,
    fact_pred: Option<Arc<CompiledPred>>,
    remaining_pages: usize,
}

/// The active queries' fact predicates by slot, and the union of the
/// columns they reference — the set a page's batch decodes once for all
/// queries.
type PredSnapshot = (Vec<(u32, Option<Arc<CompiledPred>>)>, Vec<usize>);

/// One chunk's evaluation: surviving rows, their query bits, and the
/// slots whose predicate panicked.
type ChunkResult = (Vec<u32>, BitColumn, Vec<u32>);

/// A unit of fact-predicate evaluation: rows `range` of `page` against
/// the active queries' compiled predicates. One chunk is one morsel task
/// on the engine's shared worker pool; the preprocessor reassembles chunk
/// results in range order.
struct ChunkJob<'a> {
    page: &'a Page,
    range: std::ops::Range<usize>,
    preds: &'a [(u32, Option<Arc<CompiledPred>>)],
    cols: &'a [usize],
    /// Query-bit words per tuple: `⌈max_queries/64⌉`.
    words: usize,
}

/// Reusable buffers for [`eval_chunk`], one per chunk position, so
/// steady-state chunk evaluation allocates only the outgoing rows/bits
/// vectors.
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
fn eval_chunk(job: &ChunkJob, scratch: &mut ChunkScratch) -> ChunkResult {
    let n = job.range.len();
    if n == 0 {
        return (Vec::new(), BitColumn::zeros(job.words, 0), Vec::new());
    }
    let words = mask_words(n);
    let nq = job.preds.len();
    // Predicate-shaped decode: dictionary-coded Char columns on columnar
    // pages stay as codes, so every active query's string predicate is
    // evaluated once per dictionary entry instead of once per row.
    let batch = ColumnBatch::for_predicate_range(job.page, job.range.clone(), job.cols);

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

/// Evaluate every active query's fact predicate over `page` as morsel
/// tasks on the engine's shared pool — four chunks when the page and the
/// query count justify the fan-out, else one, which the calling thread
/// runs itself — and reassemble the chunks' survivors in row order. The
/// pool contains a task's panic outside any one predicate (e.g. in the
/// shared batch decode), and its `pool.task` failpoint, as an `Err`
/// reported after every sibling finished: the page is then lost for
/// every active query.
fn evaluate_page(
    ctx: &ExecCtx,
    page: &Page,
    (preds, cols): &PredSnapshot,
    words: usize,
    scratch: &mut Vec<ChunkScratch>,
) -> Result<ChunkResult, EngineError> {
    let n_rows = page.rows();
    let chunks = if ctx.workers.workers() > 1 && n_rows * preds.len() >= 512 {
        4
    } else {
        1
    };
    let step = n_rows.div_ceil(chunks).max(1);
    let starts: Vec<usize> = (0..n_rows.max(1)).step_by(step).collect();
    if scratch.len() < starts.len() {
        scratch.resize_with(starts.len(), ChunkScratch::default);
    }
    let mut parts: Vec<Option<ChunkResult>> = starts.iter().map(|_| None).collect();
    let run = ctx.governor.run(|| {
        let tasks: Vec<Task> = parts
            .iter_mut()
            .zip(scratch.iter_mut())
            .zip(&starts)
            .map(|((part, scratch), &start)| {
                let job = ChunkJob {
                    page,
                    range: start..(start + step).min(n_rows),
                    preds,
                    cols,
                    words,
                };
                Box::new(move || *part = Some(eval_chunk(&job, scratch))) as Task
            })
            .collect();
        ctx.workers.run(tasks)
    });
    if let Err(e) = run {
        // Scratches may hold mid-unwind state; rebuild them.
        scratch.clear();
        return Err(e);
    }
    let mut parts: Vec<ChunkResult> = parts
        .into_iter()
        .map(|part| part.expect("a clean pool run fills every chunk"))
        .collect();
    if parts.len() == 1 {
        // One chunk: its vectors become the batch's, uncopied.
        return Ok(parts.pop().expect("one chunk"));
    }
    let survivors = parts.iter().map(|(r, _, _)| r.len()).sum();
    let mut rows = Vec::with_capacity(survivors);
    let mut bits = BitColumn::with_capacity(words, survivors);
    let mut poisoned = Vec::new();
    for (r, b, mut p) in parts {
        rows.extend(r);
        bits.extend(&b);
        poisoned.append(&mut p);
    }
    Ok((rows, bits, poisoned))
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

/// Terminally abort the active queries whose slot `doomed` selects: each
/// leaves the active set, and its claim travels with the abort to the
/// distributor, which releases the slot. Returns how many were aborted.
fn abort_active(
    active: &mut Vec<ActiveQuery>,
    doomed: impl Fn(u32) -> bool,
    cause: &str,
    out: &Sender<Msg<Batch>>,
) -> Result<u64, Closed> {
    let mut aborted = 0;
    for q in active.extract_if(.., |q| doomed(q.claim.slot)) {
        let slot = q.claim.slot;
        out.send(Msg::Query(
            slot,
            QueryEvent::Ended(q.claim, Err(cause.to_string())),
        ))?;
        aborted += 1;
    }
    Ok(aborted)
}

/// A batch lost past the preprocessor (the `cjoin.dim.chan`,
/// `cjoin.fanout.chan` or `cjoin.shard.chan` failpoint fired): abort the
/// streams of exactly `slots`, the queries whose bits it carried, each
/// down the channel `route` picks for it, and request their early
/// removal so that their terminal messages, which release the slots,
/// come promptly. The request never blocks — the preprocessor may be
/// blocked sending to this stage; on a full control channel the query
/// rides out its revolution instead.
fn lose_batch<'a, B: 'a>(
    slots: impl IntoIterator<Item = u32>,
    cause: &str,
    route: impl Fn(u32) -> &'a Sender<Msg<B>>,
    ctl_tx: &Sender<Ctl>,
) -> Result<(), Closed> {
    for slot in slots {
        route(slot).send(Msg::Query(
            slot,
            QueryEvent::StreamAborted(cause.to_string()),
        ))?;
        let _ = ctl_tx.try_send(Ctl::Remove { slot, gen: None });
    }
    Ok(())
}

fn preprocessor_loop(
    fact: Arc<Table>,
    ctx: Arc<ExecCtx>,
    metrics: Arc<CjoinMetrics>,
    max_queries: usize,
    ctl_rx: Receiver<Ctl>,
    out: Sender<Msg<Batch>>,
) -> Result<(), Closed> {
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
    let mut scratch: Vec<ChunkScratch> = Vec::new();
    // Invariant between admissions/removals, so rebuilt only when
    // `active` changes, not per page.
    let mut snapshot: Option<PredSnapshot> = None;
    loop {
        // Apply pending control messages; block when idle.
        loop {
            let ctl = if active.is_empty() {
                match ctl_rx.recv() {
                    Ok(c) => c,
                    Err(_) => return Ok(()),
                }
            } else {
                match ctl_rx.try_recv() {
                    Ok(c) => c,
                    Err(TryRecvError::Empty) => break,
                    Err(TryRecvError::Disconnected) => return Ok(()),
                }
            };
            match ctl {
                Ctl::Admit(batch) => {
                    for Admission {
                        claim,
                        gen,
                        fact_pred,
                        output,
                    } in batch
                    {
                        let slot = claim.slot;
                        out.send(Msg::Query(slot, QueryEvent::Admitted(output)))?;
                        if pages == 0 {
                            // Empty fact table: the query completes instantly.
                            out.send(Msg::Query(slot, QueryEvent::Ended(claim, Ok(()))))?;
                        } else {
                            active.push(ActiveQuery {
                                claim,
                                gen,
                                fact_pred,
                                remaining_pages: pages,
                            });
                            snapshot = None;
                        }
                    }
                }
                Ctl::Remove { slot, gen } => {
                    // A query no longer active has already sent its
                    // terminal message. A gen-checked removal also
                    // requires the occupant to be the admission that
                    // requested it — a stale cancel must not kill a
                    // successor query that reused the slot.
                    let removed = active
                        .iter()
                        .position(|q| q.claim.slot == slot && gen.is_none_or(|g| g == q.gen));
                    if let Some(i) = removed {
                        let q = active.remove(i);
                        snapshot = None;
                        out.send(Msg::Query(slot, QueryEvent::Ended(q.claim, Ok(()))))?;
                    }
                }
                Ctl::Shutdown => return Ok(()),
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

        // One page of the circular fact scan. Every active query's fact
        // predicate runs over it, page-at-a-time over one shared column
        // batch; predicates were compiled at admission and the snapshot
        // survives until the active set changes. Losing the page — a
        // failed read, an evaluation that failed outside any one
        // predicate, or the `cjoin.chan` failpoint on the send — would
        // silently drop rows of every query whose revolution spans it,
        // i.e. all active ones: they abort, and the scan moves on for
        // future admissions. (A failed read-ahead of this page is not such
        // a failure: it left no entry, and this `get` read the page
        // itself.)
        let snap = snapshot.get_or_insert_with(|| {
            let preds: Vec<(u32, Option<Arc<CompiledPred>>)> = active
                .iter()
                .map(|q| (q.claim.slot, q.fact_pred.clone()))
                .collect();
            let mut cols: Vec<usize> = preds
                .iter()
                .filter_map(|(_, p)| p.as_ref())
                .flat_map(|p| p.columns().iter().copied())
                .collect();
            cols.sort_unstable();
            cols.dedup();
            (preds, cols)
        });
        let page_no = pos;
        pos = (pos + 1) % pages;
        ahead = ahead.saturating_sub(1);
        let scanned = ctx
            .pool
            .get(&fact, page_no)
            .map_err(|e| format!("fact page {page_no} unreadable: {e}"))
            .and_then(|page| {
                fact.advance_clock(page_no);
                metrics.fact_pages.fetch_add(1, Ordering::Relaxed);
                let evaluated = evaluate_page(&ctx, &page, snap, words, &mut scratch)
                    .map_err(|e| format!("fact page {page_no} evaluation failed: {e}"))?;
                fault::maybe_delay_abort("cjoin.chan")
                    .map_err(|cause| format!("stage channel fault: {cause}"))?;
                Ok((page, evaluated))
            });
        let (page, (rows, bits, poisoned)) = match scanned {
            Ok(scanned) => scanned,
            Err(cause) => {
                abort_active(&mut active, |_| true, &cause, &out)?;
                snapshot = None;
                continue;
            }
        };
        metrics
            .tuples_in
            .fetch_add(rows.len() as u64, Ordering::Relaxed);
        out.send(Msg::Batch(Batch {
            fact: FactBatch::with_bits(page, rows, bits),
            dim_hits: Vec::new(),
        }))?;
        // Queries whose predicate panicked on this page: contained per
        // query — abort them (after the batch, so the abort supersedes
        // any of their bits already in flight) and keep the co-runners.
        if !poisoned.is_empty() {
            let aborted = abort_active(
                &mut active,
                |slot| poisoned.contains(&slot),
                "fact predicate panicked",
                &out,
            )?;
            ctx.metrics
                .panics_contained
                .fetch_add(aborted, Ordering::Relaxed);
            snapshot = None;
        }

        // Retire queries whose revolution completed.
        let retired = |q: &mut ActiveQuery| {
            q.remaining_pages -= 1;
            q.remaining_pages == 0
        };
        for q in active.extract_if(.., retired) {
            snapshot = None;
            out.send(Msg::Query(q.claim.slot, QueryEvent::Ended(q.claim, Ok(()))))?;
        }
    }
}

/// Fan-out stage: broadcasts batches to every distributor shard and
/// routes per-query messages to the owning shard.
fn fanout_loop(
    in_rx: Receiver<Msg<Batch>>,
    shard_txs: Vec<Sender<Msg<Arc<Batch>>>>,
    ctl_tx: Sender<Ctl>,
) -> Result<(), Closed> {
    let owner = |slot: u32| &shard_txs[slot as usize % shard_txs.len()];
    while let Ok(msg) = in_rx.recv() {
        let mut batch = match msg {
            Msg::Batch(batch) => batch,
            Msg::Query(slot, event) => {
                owner(slot).send(Msg::Query(slot, event))?;
                continue;
            }
        };
        if let Err(cause) = fault::maybe_delay_abort("cjoin.fanout.chan") {
            let cause = format!("fan-out channel fault: {cause}");
            lose_batch(affected_slots(&batch), &cause, owner, &ctl_tx)?;
            continue;
        }
        batch.fact.materialize_rows();
        let batch = Arc::new(batch);
        for (shard, tx) in shard_txs.iter().enumerate() {
            // A batch lost on shard `i`'s channel drops rows for exactly
            // that shard's queries; the other shards still get it.
            if let Err(cause) = fault::maybe_delay_abort("cjoin.shard.chan") {
                let cause = format!("distributor shard {shard} channel fault: {cause}");
                let mine = affected_slots(&batch)
                    .into_iter()
                    .filter(|&s| s as usize % shard_txs.len() == shard);
                lose_batch(mine, &cause, |_| tx, &ctl_tx)?;
                continue;
            }
            tx.send(Msg::Batch(batch.clone()))?;
        }
    }
    Ok(())
}

fn dim_stage_loop(
    dim_idx: usize,
    dims: Arc<Vec<DimData>>,
    ctx: Arc<ExecCtx>,
    metrics: Arc<CjoinMetrics>,
    in_rx: Receiver<Msg<Batch>>,
    out: Sender<Msg<Batch>>,
    ctl_tx: Sender<Ctl>,
) -> Result<(), Closed> {
    let dim = &dims[dim_idx];
    // Scratch reused across batches: the key column of the surviving
    // tuples, gathered once per batch into a typed slice, and the bypass
    // words, loaded once per batch.
    let mut keys: Vec<i64> = Vec::new();
    let mut bypass: Vec<u64> = Vec::new();
    while let Ok(msg) = in_rx.recv() {
        let mut batch = match msg {
            Msg::Batch(batch) => batch,
            query => {
                out.send(query)?;
                continue;
            }
        };
        if let Err(cause) = fault::maybe_delay_abort("cjoin.dim.chan") {
            let cause = format!("dim stage {dim_idx} channel fault: {cause}");
            lose_batch(affected_slots(&batch), &cause, |_| &out, &ctl_tx)?;
            continue;
        }
        let before = batch.fact.len();
        // Probe, AND, test and compact in one pass; earlier stages' hit
        // columns compact alongside.
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
        if !batch.fact.is_empty() {
            out.send(Msg::Batch(batch))?;
        }
    }
    Ok(())
}

fn distributor_loop(
    dims: Arc<Vec<DimData>>,
    ctx: Arc<ExecCtx>,
    metrics: Arc<CjoinMetrics>,
    in_rx: Receiver<Msg<Arc<Batch>>>,
) {
    let mut outputs: HashMap<u32, Box<QueryOutput>> = HashMap::new();
    let mut rowbuf: Vec<u8> = Vec::new();
    while let Ok(msg) = in_rx.recv() {
        // Per-message panic belt. A panic mid-batch leaves this shard's
        // materialization state ambiguous (which query got which rows),
        // so every open output on the shard is aborted — but their slots
        // stay taken: the preprocessor still scans for them, and their
        // terminal messages release them. The shard itself keeps serving
        // future queries.
        let step = contain_panic(&ctx.metrics, "cjoin distributor", || {
            distributor_step(msg, &dims, &ctx, &metrics, &mut outputs, &mut rowbuf)
        });
        if let Err(panic) = step {
            for (_, out) in outputs.drain() {
                out.hub.abort(panic.clone());
            }
            rowbuf = Vec::new();
        }
    }
    // Pipeline shutting down: abort any query still open.
    for (_, out) in outputs.drain() {
        out.hub.abort("cjoin pipeline shut down");
    }
}

fn distributor_step(
    msg: Msg<Arc<Batch>>,
    dims: &[DimData],
    ctx: &ExecCtx,
    metrics: &CjoinMetrics,
    outputs: &mut HashMap<u32, Box<QueryOutput>>,
    rowbuf: &mut Vec<u8>,
) {
    let batch = match msg {
        Msg::Batch(batch) => batch,
        Msg::Query(slot, QueryEvent::Admitted(output)) => {
            outputs.insert(slot, output);
            return;
        }
        Msg::Query(slot, QueryEvent::Ended(claim, end)) => {
            // With no open output (a stream abort or this shard's belt
            // closed it), the claim just drops, releasing the slot.
            let Some(mut out) = outputs.remove(&slot) else {
                return;
            };
            // A push failure on the final flush must abort, not finish:
            // finishing would hand the consumer a silently truncated
            // stream as a successful result.
            let end = end.and_then(|()| {
                if out.builder.is_empty() {
                    return Ok(());
                }
                let page = out.builder.finish_and_reset();
                out.hub
                    .push_page(Arc::new(page))
                    .map_err(|e| format!("cjoin output flush failed: {e}"))
            });
            // The counter tick and the slot release come BEFORE the
            // stream closes: the moment finish/abort lands, a blocked
            // consumer can wake, read stats, and re-admit — every
            // externally observable effect of the termination must already
            // be in place. (Slot reuse cannot race this shard: a
            // re-admission's `Admitted` travels the same channels behind
            // this message.)
            let counter = if end.is_ok() {
                &metrics.completions
            } else {
                &metrics.aborts
            };
            counter.fetch_add(1, Ordering::Relaxed);
            drop(claim);
            match end {
                Ok(()) => out.hub.finish(),
                Err(cause) => out.hub.abort(cause),
            }
            return;
        }
        Msg::Query(slot, QueryEvent::StreamAborted(cause)) => {
            if let Some(out) = outputs.remove(&slot) {
                metrics.aborts.fetch_add(1, Ordering::Relaxed);
                out.hub.abort(cause);
            }
            return;
        }
    };
    if outputs.is_empty() {
        return; // none of this shard's queries are active
    }
    let mut flushes: Vec<(u32, Arc<Page>)> = Vec::new();
    ctx.governor.run(|| {
        let bits = batch.fact.bits();
        for t in 0..batch.fact.len() {
            // Fact bytes were gathered once per batch at fan-out; the
            // per-(tuple × query) loop only concatenates slices.
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
            // A dropped push reader surfaces as `Cancelled` and is pruned
            // inside the hub (push_many returns Ok), so an Err here is a
            // real delivery failure (e.g. an injected channel abort):
            // close this query's output as aborted now — its terminal
            // message would otherwise `finish` a truncated stream as a
            // success. The slot stays taken until that message.
            if let Err(e) = out.hub.push_page(page) {
                let out = outputs.remove(&q).expect("output just seen");
                metrics.aborts.fetch_add(1, Ordering::Relaxed);
                out.hub.abort(format!("cjoin output delivery failed: {e}"));
            }
        }
    }
}
