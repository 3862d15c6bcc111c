//! The QPipe engine facade: plan → packets → stages → result stream.

use crate::ctl::{CancelHandle, QueryCtl, QueryOpts};
use crate::fifo::{BatchSource, EngineBatch};
use crate::governor::{AdmissionConfig, AdmissionGate, AdmissionPermit, CoreGovernor};
use crate::hub::{OutputHub, ShareMode};
use crate::metrics::{Metrics, MetricsSnapshot, StageKind, NUM_STAGES};
use crate::ops::{ExecCtx, PhysicalOp};
use crate::stage::{Packet, Stage};
use crate::EngineError;
use qs_plan::{signature, LogicalPlan};
use qs_storage::{BufferPool, Catalog, Page, PageBuilder, Schema, Value};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Which stages participate in Simultaneous Pipelining, and how results
/// are distributed (the demo's per-stage SP checkboxes plus the
/// push-vs-pull switch of Scenario I).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SharingPolicy {
    /// Distribution mechanism for shared packets.
    pub mode: ShareMode,
    /// SP at the table-scan stage.
    pub scan: bool,
    /// SP at the filter stage.
    pub filter: bool,
    /// SP at the hash-join stage.
    pub join: bool,
    /// SP at the aggregation stage.
    pub aggregate: bool,
    /// SP at the sort stage.
    pub sort: bool,
    /// SP at the projection stage.
    pub project: bool,
    /// SP at the limit stage.
    pub limit: bool,
    /// SP at the duplicate-elimination stage.
    pub distinct: bool,
    /// SP at the top-k stage.
    pub topk: bool,
}

impl SharingPolicy {
    /// No sharing anywhere: the classic query-centric engine (QPipe with
    /// SP disabled — still using shared circular scans at the I/O layer).
    pub fn query_centric() -> Self {
        SharingPolicy {
            mode: ShareMode::Push,
            scan: false,
            filter: false,
            join: false,
            aggregate: false,
            sort: false,
            project: false,
            limit: false,
            distinct: false,
            topk: false,
        }
    }

    /// SP enabled for every stage with the given mechanism.
    pub fn all_stages(mode: ShareMode) -> Self {
        SharingPolicy {
            mode,
            scan: true,
            filter: true,
            join: true,
            aggregate: true,
            sort: true,
            project: true,
            limit: true,
            distinct: true,
            topk: true,
        }
    }

    /// SP only at the table-scan stage (Scenario I's configuration).
    pub fn scan_only(mode: ShareMode) -> Self {
        SharingPolicy {
            scan: true,
            ..SharingPolicy::query_centric().with_mode(mode)
        }
    }

    /// Same policy with a different mechanism.
    pub fn with_mode(mut self, mode: ShareMode) -> Self {
        self.mode = mode;
        self
    }

    /// Is SP on for `kind`?
    pub fn enabled(&self, kind: StageKind) -> bool {
        match kind {
            StageKind::Scan => self.scan,
            StageKind::Filter => self.filter,
            StageKind::Join => self.join,
            StageKind::Aggregate => self.aggregate,
            StageKind::Sort => self.sort,
            StageKind::Project => self.project,
            StageKind::Limit => self.limit,
            StageKind::Distinct => self.distinct,
            StageKind::TopK => self.topk,
            StageKind::Cjoin => false, // handled by qs-core's CJOIN stage
        }
    }
}

/// Engine construction parameters.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Core permits for CPU-bound work (`0` = unlimited). The demo's
    /// "bind to N cores" knob.
    pub cores: usize,
    /// Morsel worker-pool size for intra-operator parallelism (group
    /// resolution, parallel scans, the CJOIN preprocessor). `1` =
    /// single-threaded (no pool threads are spawned).
    pub workers: usize,
    /// Capacity (pages) of each FIFO buffer.
    pub fifo_capacity: usize,
    /// Byte budget for operator output pages.
    pub out_page_bytes: usize,
    /// Threads each stage starts with.
    pub initial_workers: usize,
    /// Upper bound on each stage's elastic pool.
    pub max_workers: usize,
    /// SP policy.
    pub sharing: SharingPolicy,
    /// Overload valve: when set, every submission must first acquire an
    /// admission permit from a bounded queue, and excess load is shed
    /// with [`EngineError::Shed`] (see [`AdmissionGate`]). `None` (the
    /// default) admits everything, as before.
    pub admission: Option<AdmissionConfig>,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            cores: 0,
            workers: 1,
            fifo_capacity: 16,
            out_page_bytes: qs_storage::DEFAULT_PAGE_BYTES,
            initial_workers: 1,
            max_workers: 1024,
            sharing: SharingPolicy::query_centric(),
            admission: None,
        }
    }
}

/// Handle to a submitted query: a stream of result batches, materialized
/// into dense pages at this boundary (the query's *final output* — the
/// one place a sparse selection becomes fresh row bytes for the client).
pub struct QueryTicket {
    query_id: u64,
    schema: Arc<Schema>,
    source: Box<dyn BatchSource>,
    metrics: Arc<Metrics>,
    ctl: Arc<QueryCtl>,
    /// Admission slot, freed when the ticket is dropped (results consumed
    /// or abandoned). `None` when the engine runs without admission.
    _permit: Option<AdmissionPermit>,
    /// Execution-mode label recorded by the router (`None` for pinned
    /// modes — the mode was the submitter's, not a routing decision).
    route: Option<&'static str>,
}

impl QueryTicket {
    /// Query id.
    pub fn query_id(&self) -> u64 {
        self.query_id
    }

    /// Result schema.
    pub fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    /// The query's control block (cancellation flag + deadline).
    pub fn ctl(&self) -> &Arc<QueryCtl> {
        &self.ctl
    }

    /// Cancel the query. Subsequent batch pulls fail with
    /// [`EngineError::Cancelled`]; exclusive (unshared) operator packets
    /// also observe the flag at batch boundaries and abort early.
    pub fn cancel(&self) {
        self.ctl.cancel();
    }

    /// A clonable handle that can cancel this query from another thread
    /// (e.g. a client disconnect watcher) after the ticket moved away.
    pub fn cancel_handle(&self) -> CancelHandle {
        CancelHandle::new(self.ctl.clone())
    }

    /// Attach an admission permit so it is released when this ticket
    /// drops. Used by submitters whose producer half runs outside the
    /// engine (the CJOIN integration): [`QpipeEngine::submit_consumer_with`]
    /// takes no permit itself, so overload gating there is the caller's
    /// responsibility.
    pub fn with_permit(mut self, permit: AdmissionPermit) -> Self {
        self._permit = Some(permit);
        self
    }

    /// Record the router's mode decision on the ticket.
    pub fn with_route(mut self, route: &'static str) -> Self {
        self.route = Some(route);
        self
    }

    /// The routed execution-mode label, if this query went through the
    /// mode router (`None` when the mode was pinned).
    pub fn route(&self) -> Option<&'static str> {
        self.route
    }

    /// Pull the next result batch without materializing (zero-copy
    /// consumption for clients that understand selections).
    ///
    /// Cancellation/deadline is enforced here — the *ticket boundary* —
    /// for every execution mode: even when the producing packets are
    /// shared with co-runners (and therefore must keep running), this
    /// query's client observes the typed error immediately.
    pub fn next_batch(&mut self) -> Result<Option<EngineBatch>, EngineError> {
        self.ctl.check()?;
        match self.source.next_batch() {
            Err(e) => {
                // An exclusive producer may observe this query's own
                // cancellation/deadline first and abort the stream; the
                // client should see the typed control error, not the
                // secondhand `Aborted("cancelled")`.
                self.ctl.check()?;
                Err(e)
            }
            Ok(None) => {
                // A shared producer reacts to this query's cancel/deadline
                // by releasing its admission lease, which truncates the
                // stream *cleanly* (the co-runners keep it). The clean end
                // must not mask the typed control error the client asked
                // for — re-check before reporting completion.
                self.ctl.check()?;
                Ok(None)
            }
            ok => ok,
        }
    }

    /// Pull the next result page (pipelined consumption). A full batch
    /// hands back its page as-is; a sparse one is compacted here.
    pub fn next_page(&mut self) -> Result<Option<Arc<Page>>, EngineError> {
        match self.next_batch()? {
            None => Ok(None),
            Some(b) if b.is_full() => Ok(Some(b.page().clone())),
            Some(b) => {
                let mut builder =
                    PageBuilder::with_capacity(b.page().schema().clone(), b.len());
                let mut tb = Vec::new();
                for t in 0..b.len() {
                    let ok = builder.push_encoded(b.tuple_bytes_in(t, &mut tb));
                    debug_assert!(ok);
                }
                Ok(Some(Arc::new(builder.finish())))
            }
        }
    }

    /// Drain the query to completion batch-at-a-time, without compacting
    /// sparse batches into fresh pages; returns the number of result
    /// rows. The cheapest way to consume a query whose rows are counted,
    /// not kept (throughput drivers, smoke clients).
    pub fn drain(mut self) -> Result<u64, EngineError> {
        let mut rows = 0u64;
        while let Some(b) = self.next_batch()? {
            rows += b.len() as u64;
        }
        self.metrics
            .queries_completed
            .fetch_add(1, Ordering::Relaxed);
        Ok(rows)
    }

    /// Drain the query to completion, returning all result pages.
    pub fn collect_pages(mut self) -> Result<Vec<Arc<Page>>, EngineError> {
        let mut out = Vec::new();
        while let Some(p) = self.next_page()? {
            out.push(p);
        }
        self.metrics
            .queries_completed
            .fetch_add(1, Ordering::Relaxed);
        Ok(out)
    }

    /// Drain and decode every result row (boundary/test use).
    pub fn collect_rows(self) -> Result<Vec<Vec<Value>>, EngineError> {
        let pages = self.collect_pages()?;
        Ok(pages.iter().flat_map(|p| p.to_values()).collect())
    }
}

/// The QPipe execution engine.
pub struct QpipeEngine {
    catalog: Arc<Catalog>,
    ctx: Arc<ExecCtx>,
    stages: [Stage; NUM_STAGES],
    config: EngineConfig,
    admission: Option<Arc<AdmissionGate>>,
    next_query_id: AtomicU64,
}

impl QpipeEngine {
    /// Build an engine over a catalog and buffer pool.
    pub fn new(catalog: Arc<Catalog>, pool: Arc<BufferPool>, config: EngineConfig) -> Self {
        let metrics = Metrics::new();
        let governor = CoreGovernor::new(config.cores, metrics.clone());
        let workers = crate::pool::WorkerPool::new(config.workers, metrics.clone());
        let ctx = Arc::new(ExecCtx {
            pool,
            governor,
            metrics,
            workers,
            out_page_bytes: config.out_page_bytes,
        });
        let stages = std::array::from_fn(|i| {
            Stage::new(
                crate::metrics::ALL_STAGES[i],
                ctx.clone(),
                config.initial_workers,
                config.max_workers,
            )
        });
        let admission = config
            .admission
            .clone()
            .map(|c| AdmissionGate::new(c, ctx.metrics.clone()));
        QpipeEngine {
            catalog,
            ctx,
            stages,
            config,
            admission,
            next_query_id: AtomicU64::new(1),
        }
    }

    /// The admission gate, if the engine was configured with one.
    pub fn admission(&self) -> Option<&Arc<AdmissionGate>> {
        self.admission.as_ref()
    }

    /// The catalog.
    pub fn catalog(&self) -> &Arc<Catalog> {
        &self.catalog
    }

    /// The execution context (shared with the CJOIN stage in `qs-core`).
    pub fn ctx(&self) -> &Arc<ExecCtx> {
        &self.ctx
    }

    /// The engine configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Metrics snapshot.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.ctx.metrics.snapshot()
    }

    /// Live metrics handle.
    pub fn metrics_handle(&self) -> &Arc<Metrics> {
        &self.ctx.metrics
    }

    /// Reset metrics counters (between experiment points).
    pub fn reset_metrics(&self) {
        self.ctx.metrics.reset();
    }

    /// Stage accessor (used by integration layers and tests).
    pub fn stage(&self, kind: StageKind) -> &Stage {
        &self.stages[kind as usize]
    }

    /// Validate and submit a plan; returns the result stream handle.
    pub fn submit(&self, plan: &LogicalPlan) -> Result<QueryTicket, EngineError> {
        self.submit_with(plan, &QueryOpts::default())
    }

    /// [`Self::submit`] with per-query options (deadline).
    pub fn submit_with(
        &self,
        plan: &LogicalPlan,
        opts: &QueryOpts,
    ) -> Result<QueryTicket, EngineError> {
        let mut tickets = self.submit_batch_with(std::slice::from_ref(plan), opts)?;
        Ok(tickets.pop().expect("one ticket per plan"))
    }

    /// Submit several plans as one batch: every packet graph is built (and
    /// registered for SP) *before* any packet starts executing, so
    /// identical sub-plans in the batch always share — even in push mode,
    /// whose window closes at the first produced page. This is the demo's
    /// "clients co-ordinate to submit their queries in batches" knob.
    pub fn submit_batch(&self, plans: &[LogicalPlan]) -> Result<Vec<QueryTicket>, EngineError> {
        self.submit_batch_with(plans, &QueryOpts::default())
    }

    /// [`Self::submit_batch`] with per-query options applied to every plan
    /// in the batch.
    ///
    /// Admission: one permit is acquired *per plan*, all up front, before
    /// any packet is built. A batch larger than the gate's
    /// `max_concurrent` therefore sheds its tail (a batch cannot admit
    /// itself past the concurrency bound — the permits it already holds
    /// only free when its tickets are dropped).
    pub fn submit_batch_with(
        &self,
        plans: &[LogicalPlan],
        opts: &QueryOpts,
    ) -> Result<Vec<QueryTicket>, EngineError> {
        let permits = plans
            .iter()
            .map(|_| self.admission.as_ref().map(|gate| gate.admit()).transpose())
            .collect::<Result<Vec<_>, _>>()?;
        let mut batch = self.batch();
        let tickets = plans
            .iter()
            .zip(permits)
            .map(|(plan, permit)| batch.add(plan, opts, permit))
            .collect::<Result<Vec<_>, _>>()?;
        batch.dispatch();
        Ok(tickets)
    }

    /// Start a batch whose packets are built (and registered for SP) as
    /// plans are added, and dispatched together by
    /// [`BatchBuilder::dispatch`]: the one way plans enter the engine's
    /// stages, shared by [`Self::submit_batch_with`] and by integration
    /// layers that route some plans of a batch elsewhere.
    pub fn batch(&self) -> BatchBuilder<'_> {
        BatchBuilder {
            engine: self,
            pending: Vec::new(),
        }
    }

    /// Submit a plan *around* an externally produced input stream: the
    /// unary operators of `above_plan` are applied to `input`. Used by the
    /// CJOIN integration, where the join chain's output comes from the
    /// GQP and only the aggregation/sort above it runs query-centric.
    pub fn submit_consumer(
        &self,
        above_plan: &LogicalPlan,
        input: Box<dyn BatchSource>,
    ) -> Result<QueryTicket, EngineError> {
        self.submit_consumer_with(above_plan, input, &QueryOpts::default())
    }

    /// [`Self::submit_consumer`] with per-query options. No admission
    /// permit is taken here: CJOIN admission is governed by the GQP's own
    /// slot table, and double-gating the consumer half would deadlock a
    /// full gate against the already-admitted producer half.
    pub fn submit_consumer_with(
        &self,
        above_plan: &LogicalPlan,
        input: Box<dyn BatchSource>,
        opts: &QueryOpts,
    ) -> Result<QueryTicket, EngineError> {
        let schema = above_plan.output_schema(&self.catalog)?;
        let query_id = self.next_query_id.fetch_add(1, Ordering::Relaxed);
        let ctl = QueryCtl::new(opts, self.ctx.metrics.clone());
        let source = self.build_above(above_plan, input, query_id, &ctl)?;
        Ok(QueryTicket {
            query_id,
            schema,
            source,
            metrics: self.ctx.metrics.clone(),
            ctl,
            _permit: None,
            route: None,
        })
    }

    fn stage_kind(plan: &LogicalPlan) -> StageKind {
        match plan {
            LogicalPlan::Scan { .. } => StageKind::Scan,
            LogicalPlan::Filter { .. } => StageKind::Filter,
            LogicalPlan::HashJoin { .. } => StageKind::Join,
            LogicalPlan::Aggregate { .. } => StageKind::Aggregate,
            LogicalPlan::Sort { .. } => StageKind::Sort,
            LogicalPlan::Project { .. } => StageKind::Project,
            LogicalPlan::Limit { .. } => StageKind::Limit,
            LogicalPlan::Distinct { .. } => StageKind::Distinct,
            LogicalPlan::TopK { .. } => StageKind::TopK,
        }
    }

    fn physical(&self, plan: &LogicalPlan) -> Result<PhysicalOp, EngineError> {
        Ok(match plan {
            LogicalPlan::Scan {
                table,
                predicate,
                projection,
            } => PhysicalOp::Scan {
                table: self.catalog.get(table)?,
                predicate: predicate.clone(),
                projection: projection.clone(),
                out_schema: plan.output_schema(&self.catalog)?,
            },
            LogicalPlan::Filter { predicate, .. } => PhysicalOp::Filter {
                predicate: predicate.clone(),
            },
            LogicalPlan::HashJoin {
                build_key,
                probe_key,
                ..
            } => PhysicalOp::HashJoin {
                build_key: *build_key,
                probe_key: *probe_key,
                out_schema: plan.output_schema(&self.catalog)?,
            },
            LogicalPlan::Aggregate {
                input,
                group_by,
                aggs,
            } => PhysicalOp::Aggregate {
                group_by: group_by.clone(),
                aggs: aggs.clone(),
                in_schema: input.output_schema(&self.catalog)?,
                out_schema: plan.output_schema(&self.catalog)?,
                groups_hint: self.groups_hint(input, group_by),
            },
            LogicalPlan::Sort { keys, .. } => PhysicalOp::Sort {
                keys: keys.clone(),
                schema: plan.output_schema(&self.catalog)?,
            },
            LogicalPlan::Project { columns, .. } => PhysicalOp::Project {
                columns: columns.clone(),
                out_schema: plan.output_schema(&self.catalog)?,
            },
            LogicalPlan::Limit { n, .. } => PhysicalOp::Limit {
                n: *n,
                schema: plan.output_schema(&self.catalog)?,
            },
            LogicalPlan::Distinct { .. } => PhysicalOp::Distinct {
                schema: plan.output_schema(&self.catalog)?,
            },
            LogicalPlan::TopK { keys, n, .. } => PhysicalOp::TopK {
                keys: keys.clone(),
                n: *n,
                schema: plan.output_schema(&self.catalog)?,
            },
        })
    }

    /// Expected group count for an aggregation, from base-table column
    /// statistics. Only the dense-int shape (a single `Int` group column
    /// traceable through schema-preserving operators to a base-table
    /// column) is estimated — filters can only shrink the distinct
    /// count, so the table-level figure is a valid capacity bound.
    fn groups_hint(&self, input: &LogicalPlan, group_by: &[usize]) -> Option<usize> {
        if group_by.len() != 1 {
            return None;
        }
        let mut cur = input;
        loop {
            match cur {
                LogicalPlan::Filter { input, .. }
                | LogicalPlan::Limit { input, .. }
                | LogicalPlan::Distinct { input } => cur = input,
                LogicalPlan::Scan {
                    table, projection, ..
                } => {
                    let col = match projection {
                        None => group_by[0],
                        Some(cols) => *cols.get(group_by[0])?,
                    };
                    let t = self.catalog.get(table).ok()?;
                    return t.int_col_stats(col).map(|s| s.distinct);
                }
                _ => return None,
            }
        }
    }

    /// Recursively convert `plan` into packets, applying SP at each stage.
    /// Packets are buffered into `pending` (dispatched by the caller after
    /// the whole batch is built). Returns the stream the parent reads.
    ///
    /// `root` marks the plan's top node, whose output stream becomes the
    /// client-drained [`QueryTicket`]. Root readers get unbounded FIFOs:
    /// clients drain tickets in an arbitrary order, so a shared producer
    /// must never block on one sibling ticket while the client waits on
    /// another (see [`crate::hub::OutputHub::subscribe_with_capacity`]).
    fn build_node(
        &self,
        plan: &LogicalPlan,
        query_id: u64,
        ctl: &Arc<QueryCtl>,
        policy: &SharingPolicy,
        pending: &mut Vec<(StageKind, Packet)>,
        root: bool,
    ) -> Result<Box<dyn BatchSource>, EngineError> {
        let kind = Self::stage_kind(plan);
        let stage = &self.stages[kind as usize];
        let sharing = policy.enabled(kind);
        let reader_capacity = if root {
            crate::hub::UNBOUNDED_CAPACITY
        } else {
            self.config.fifo_capacity
        };

        if sharing {
            let sig = signature(plan);
            if let Some(reader) = stage.registry().try_subscribe(sig, reader_capacity) {
                self.ctx.metrics.sp_hit(kind);
                return Ok(reader);
            }
            self.ctx.metrics.sp_miss(kind);
        }

        // Children first (build side before probe side for joins).
        let mut inputs = Vec::new();
        for child in plan.children() {
            inputs.push(self.build_node(child, query_id, ctl, policy, pending, false)?);
        }

        let op = self.physical(plan)?;
        let mode = if sharing {
            policy.mode
        } else {
            // Unshared packets always use the bounded push pipeline
            // (backpressure); an unshared SPL would buffer without bound.
            ShareMode::Push
        };
        let (hub, primary) = OutputHub::new(
            mode,
            kind,
            reader_capacity,
            self.ctx.metrics.clone(),
            self.ctx.governor.clone(),
        );
        if sharing {
            stage.registry().register(signature(plan), &hub);
        }
        // An SP-registered packet may acquire subscribers from *other*
        // queries at any time, so it must never honor this query's
        // cancellation or deadline mid-stream (a co-runner would lose
        // rows). Those queries still observe control at the ticket
        // boundary. Only packets that can never be shared run exclusive.
        let exclusive = !sharing;
        pending.push((
            kind,
            Packet {
                query_id,
                op,
                inputs,
                hub,
                ctl: exclusive.then(|| ctl.clone()),
                exclusive,
            },
        ));
        Ok(primary)
    }

    /// Build only the unary operators of `plan` above an external input.
    /// `plan` must be a chain of unary operators whose (transitive) leaf
    /// input produces the `input` stream's schema.
    fn build_above(
        &self,
        plan: &LogicalPlan,
        input: Box<dyn BatchSource>,
        query_id: u64,
        ctl: &Arc<QueryCtl>,
    ) -> Result<Box<dyn BatchSource>, EngineError> {
        // Collect the unary chain top-down, then build bottom-up from the
        // external input.
        let mut chain: Vec<&LogicalPlan> = Vec::new();
        let mut cur = plan;
        // Leaf marker (scan or join) ends the chain: replaced by `input`.
        while let LogicalPlan::Filter { input: i, .. }
        | LogicalPlan::Aggregate { input: i, .. }
        | LogicalPlan::Sort { input: i, .. }
        | LogicalPlan::Project { input: i, .. }
        | LogicalPlan::Limit { input: i, .. }
        | LogicalPlan::Distinct { input: i }
        | LogicalPlan::TopK { input: i, .. } = cur
        {
            chain.push(cur);
            cur = i;
        }
        let mut source = input;
        let chain_len = chain.len();
        for (i, node) in chain.into_iter().rev().enumerate() {
            let kind = Self::stage_kind(node);
            let op = self.physical(node)?;
            // The last operator feeds the client-drained ticket: unbounded
            // (see build_node's liveness rule).
            let capacity = if i + 1 == chain_len {
                crate::hub::UNBOUNDED_CAPACITY
            } else {
                self.config.fifo_capacity
            };
            let (hub, primary) = OutputHub::new(
                ShareMode::Push,
                kind,
                capacity,
                self.ctx.metrics.clone(),
                self.ctx.governor.clone(),
            );
            // Consumer chains are always per-query (never SP-registered),
            // so they honor cancellation/deadline at batch boundaries.
            self.stages[kind as usize].dispatch(Packet {
                query_id,
                op,
                inputs: vec![source],
                hub,
                ctl: Some(ctl.clone()),
                exclusive: true,
            });
            source = primary;
        }
        Ok(source)
    }
}

/// A batch of plans being built into packets ([`QpipeEngine::batch`]).
/// Nothing runs until the batch is dispatched, so every identical
/// sub-plan in it shares — even in push mode, whose window closes at the
/// first produced page.
pub struct BatchBuilder<'e> {
    engine: &'e QpipeEngine,
    pending: Vec<(StageKind, Packet)>,
}

impl BatchBuilder<'_> {
    /// Build `plan`'s packets under `opts` (its sharing policy, or the
    /// engine's, decides which stages register for SP). `permit` is the
    /// query's admission slot, freed when its ticket drops; the caller
    /// acquires it, before building anything.
    pub fn add(
        &mut self,
        plan: &LogicalPlan,
        opts: &QueryOpts,
        permit: Option<AdmissionPermit>,
    ) -> Result<QueryTicket, EngineError> {
        let engine = self.engine;
        plan.validate(&engine.catalog)?;
        let schema = plan.output_schema(&engine.catalog)?;
        let query_id = engine.next_query_id.fetch_add(1, Ordering::Relaxed);
        let ctl = QueryCtl::new(opts, engine.ctx.metrics.clone());
        let policy = opts.sharing.unwrap_or(engine.config.sharing);
        let source = engine.build_node(plan, query_id, &ctl, &policy, &mut self.pending, true)?;
        Ok(QueryTicket {
            query_id,
            schema,
            source,
            metrics: engine.ctx.metrics.clone(),
            ctl,
            _permit: permit,
            route: None,
        })
    }

    /// Start every packet built so far.
    pub fn dispatch(mut self) {
        self.flush();
    }

    fn flush(&mut self) {
        for (kind, packet) in self.pending.drain(..) {
            self.engine.stages[kind as usize].dispatch(packet);
        }
    }
}

impl Drop for BatchBuilder<'_> {
    /// A batch abandoned part-way (a later plan failed) still runs what it
    /// built: an SP-registered packet may already feed another query's
    /// subscriber, which would otherwise wait on a producer that never
    /// starts. A packet left with no reader ends unread: a FIFO push fails
    /// at once, an SPL packet runs out.
    fn drop(&mut self) {
        self.flush();
    }
}
