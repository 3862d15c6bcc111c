//! The unified sharing system: QPipe + CJOIN behind one `submit` call.
//!
//! This is the paper's §3 "Integration": the CJOIN operator is mounted as
//! an additional stage of the QPipe engine, and the execution mode decides
//! how a submitted plan is evaluated:
//!
//! * [`ExecutionMode::QueryCentric`] — plain QPipe operators, no SP,
//! * [`ExecutionMode::SpPush`] / [`ExecutionMode::SpPull`] — QPipe with
//!   Simultaneous Pipelining at every stage (original push model vs the
//!   Shared Pages List),
//! * [`ExecutionMode::Gqp`] — star queries are admitted to the CJOIN
//!   pipeline; their remaining operators (aggregation, sort, …) run as
//!   query-centric QPipe packets consuming the CJOIN output. Non-star
//!   plans fall back to query-centric QPipe, as in the demo.
//! * [`ExecutionMode::GqpSp`] — GQP plus SP *at the CJOIN stage*: two
//!   star queries with identical CJOIN sub-plans (same fact predicate,
//!   same dimension joins and predicates) share a single admission via an
//!   SPL, saving admission and book-keeping costs (the paper's Figure 2).

use parking_lot::Mutex;
use qs_cjoin::{CjoinPipeline, CjoinStats, PipelineSpec};
use qs_engine::{
    AdmissionConfig, EngineConfig, EngineError, Metrics, MetricsSnapshot, QpipeEngine, QueryOpts,
    QueryTicket, ShareMode, SharingPolicy, StageKind,
};
use qs_plan::{LogicalPlan, StarQuery};
use qs_storage::{
    BufferPool, BufferPoolConfig, Catalog, DiskConfig, DiskModel,
};
use std::collections::HashMap;
use std::sync::{Arc, Weak};

/// How queries are evaluated (the demo GUI's main switch).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ExecutionMode {
    /// Independent query-centric operators (baseline).
    QueryCentric,
    /// Reactive sharing, original push model (SP over FIFOs).
    SpPush,
    /// Reactive sharing, pull model (SP over Shared Pages Lists).
    SpPull,
    /// Proactive sharing: CJOIN global query plan for star queries.
    Gqp,
    /// Proactive + reactive: CJOIN with SP at the CJOIN stage.
    GqpSp,
    /// Per-query routing: the [`crate::router::decide`] planner pass
    /// picks one of the fixed modes above for every submitted query, from
    /// plan shape, predicate selectivity estimates, live concurrency and
    /// sharing-feedback counters. The engine is built with the full SP
    /// machinery and a lazily-started CJOIN pipeline side by side.
    Auto,
}

impl ExecutionMode {
    /// All *fixed* modes, plot order. [`ExecutionMode::Auto`] is not a
    /// fixed strategy (it picks one of these per query) and is therefore
    /// excluded — the differential fuzzer and the scenario sweeps iterate
    /// this array and compare Auto against it separately.
    pub fn all() -> [ExecutionMode; 5] {
        [
            ExecutionMode::QueryCentric,
            ExecutionMode::SpPush,
            ExecutionMode::SpPull,
            ExecutionMode::Gqp,
            ExecutionMode::GqpSp,
        ]
    }

    /// Short label used in tables and plots.
    pub fn label(&self) -> &'static str {
        match self {
            ExecutionMode::QueryCentric => "QC",
            ExecutionMode::SpPush => "SP-FIFO",
            ExecutionMode::SpPull => "SP-SPL",
            ExecutionMode::Gqp => "GQP",
            ExecutionMode::GqpSp => "GQP+SP",
            ExecutionMode::Auto => "AUTO",
        }
    }

    /// Whether this mode *eagerly* constructs the CJOIN pipeline at
    /// database build time. `Auto` routes into the GQP too, but starts
    /// its pipeline lazily on the first routed star query (and degrades
    /// to query-centric execution if the catalog cannot host one).
    pub fn uses_gqp(&self) -> bool {
        matches!(self, ExecutionMode::Gqp | ExecutionMode::GqpSp)
    }
}

/// Database construction parameters (the demo GUI's system pane).
#[derive(Debug, Clone)]
pub struct DbConfig {
    /// Execution mode.
    pub mode: ExecutionMode,
    /// Core permits (`0` = unlimited) — "bind server to N cores".
    pub cores: usize,
    /// Morsel worker-pool size for intra-operator parallelism (group
    /// resolution, parallel scans, the CJOIN preprocessor); `1` =
    /// single-threaded.
    pub workers: usize,
    /// Simulated disk.
    pub disk: DiskConfig,
    /// Buffer pool frames; `None` = big enough for everything
    /// (memory-resident database).
    pub buffer_pool_pages: Option<usize>,
    /// FIFO depth for the push pipeline.
    pub fifo_capacity: usize,
    /// Operator output page bytes.
    pub out_page_bytes: usize,
    /// Override the per-stage SP policy implied by `mode` (e.g.
    /// Scenario I uses SP at the scan stage only).
    pub sharing_override: Option<SharingPolicy>,
    /// CJOIN pipeline shape; required for the GQP modes.
    pub pipeline: Option<PipelineSpec>,
    /// Overload valve: bounded admission queue ahead of the engine.
    /// `None` (default) admits every submission.
    pub admission: Option<AdmissionConfig>,
}

impl DbConfig {
    /// Reasonable defaults for `mode` (memory-resident, unlimited cores).
    pub fn new(mode: ExecutionMode) -> Self {
        DbConfig {
            mode,
            cores: 0,
            workers: 1,
            disk: DiskConfig::memory_resident(),
            buffer_pool_pages: None,
            fifo_capacity: 16,
            out_page_bytes: qs_storage::DEFAULT_PAGE_BYTES,
            sharing_override: None,
            pipeline: None,
            admission: None,
        }
    }

    fn sharing_policy(&self) -> SharingPolicy {
        if let Some(p) = self.sharing_override {
            return p;
        }
        match self.mode {
            ExecutionMode::QueryCentric => SharingPolicy::query_centric(),
            ExecutionMode::SpPush => SharingPolicy::all_stages(ShareMode::Push),
            ExecutionMode::SpPull => SharingPolicy::all_stages(ShareMode::Pull),
            // GQP modes run the operators above CJOIN query-centric; SP on
            // them is a separate dimension the demo leaves to the CJOIN
            // stage, which qs-core implements itself (see submit()).
            ExecutionMode::Gqp | ExecutionMode::GqpSp => SharingPolicy::query_centric(),
            // Auto's engine-level baseline is query-centric: the router
            // supplies a per-query `SharingPolicy` override at submit
            // time for queries it sends down an SP route.
            ExecutionMode::Auto => SharingPolicy::query_centric(),
        }
    }

    /// The per-query sharing policy the router applies when it picks
    /// `mode` for a routed query (honoring a config-level override, as
    /// the fixed modes do).
    pub fn routed_policy(&self, mode: ExecutionMode) -> SharingPolicy {
        if let Some(p) = self.sharing_override {
            return p;
        }
        match mode {
            ExecutionMode::SpPush => SharingPolicy::all_stages(ShareMode::Push),
            ExecutionMode::SpPull => SharingPolicy::all_stages(ShareMode::Pull),
            _ => SharingPolicy::query_centric(),
        }
    }
}

/// Build the CJOIN pipeline spec for the SSB star schema registered in
/// `catalog` (lineorder + date/customer/supplier/part).
pub fn ssb_pipeline_spec(catalog: &Catalog) -> Result<PipelineSpec, EngineError> {
    let lo = catalog.get("lineorder")?;
    let key = |name: &str| lo.schema().index_of(name).map_err(EngineError::from);
    let dim = |table: &str, fk: usize| -> Result<qs_cjoin::DimSpec, EngineError> {
        let t = catalog.get(table)?;
        Ok(qs_cjoin::DimSpec {
            table: table.to_string(),
            fact_key: fk,
            dim_key: t.schema().index_of(&format!(
                "{}_{}key",
                &table[..1],
                match table {
                    "date" => "date",
                    "customer" => "cust",
                    "supplier" => "supp",
                    "part" => "part",
                    _ => "x",
                }
            ))?,
        })
    };
    Ok(PipelineSpec::new(
        "lineorder",
        vec![
            dim("date", key("lo_orderdate")?)?,
            dim("customer", key("lo_custkey")?)?,
            dim("supplier", key("lo_suppkey")?)?,
            dim("part", key("lo_partkey")?)?,
        ],
    ))
}

/// One GqpSp share-registry entry: the in-flight admission's output hub
/// plus the lease that keeps the admission alive.
struct ShareEntry {
    hub: Weak<qs_engine::OutputHub>,
    lease: Weak<CjoinLease>,
}

type ShareRegistry = Mutex<HashMap<u64, ShareEntry>>;

/// Shared ownership of one in-flight CJOIN admission (GQP+SP).
///
/// Every query interested in the admission's output — the one that paid
/// for the admission and every SP subscriber — holds one `Arc` through its
/// ticket's cancel/deadline hook. When a query dies (cancelled, deadline,
/// or its ticket dropped) its `Arc` goes with it; the *last* release
/// removes the admission from the pipeline. This fixes the
/// deadline-at-revolution bug where a dead GqpSp query kept consuming fact
/// pages for the rest of the revolution because cancellation "for whoever
/// still listens" had nobody checking whether anyone still listened.
struct CjoinLease {
    sig: u64,
    cancel: qs_cjoin::CjoinCancel,
    registry: Weak<ShareRegistry>,
}

impl Drop for CjoinLease {
    fn drop(&mut self) {
        // Unpublish before cancelling: a subscriber that found the entry
        // after the cancel could attach to a stream CJOIN is about to
        // finish early (silently truncated results). Removing first means
        // late arrivals miss the registry and re-admit. Only a dead entry
        // is removed — a re-admission may have replaced it already.
        if let Some(reg) = self.registry.upgrade() {
            let mut reg = reg.lock();
            if reg
                .get(&self.sig)
                .is_some_and(|e| e.lease.strong_count() == 0)
            {
                reg.remove(&self.sig);
            }
        }
        // Early removal *finishes* the stream at a page boundary and frees
        // the query's slot; a no-op if the revolution already completed.
        self.cancel.cancel();
    }
}

/// The unified system.
pub struct SharingDb {
    catalog: Arc<Catalog>,
    pool: Arc<BufferPool>,
    engine: QpipeEngine,
    /// Eagerly-built pipeline (the fixed GQP modes).
    cjoin: Option<CjoinPipeline>,
    /// Lazily-built pipeline for [`ExecutionMode::Auto`]: started on the
    /// first routed star query; `Some(None)` caches a failed build so the
    /// router degrades to reactive routes instead of retrying forever.
    lazy_cjoin: std::sync::OnceLock<Option<CjoinPipeline>>,
    /// Cached "a pipeline *could* be built" probe (spec resolution only,
    /// no threads) — the router's `gqp_available` signal before the lazy
    /// pipeline exists.
    gqp_probe: std::sync::OnceLock<bool>,
    /// GqpSp: join-signature → live CJOIN admission (hub + lease).
    cjoin_registry: Arc<ShareRegistry>,
    /// Routing decisions (Auto mode only; zero otherwise).
    router_stats: crate::router::RouterStats,
    config: DbConfig,
}

impl SharingDb {
    /// Build the system over an already-populated catalog.
    pub fn new(catalog: Arc<Catalog>, config: DbConfig) -> Result<Self, EngineError> {
        // Honor `QS_FAULTS`/`QS_FAULT_SEED` once per process so every
        // front door (REPL, scenario bins, a future server) can be run
        // under injected faults without code changes.
        static ARM_ENV: std::sync::Once = std::sync::Once::new();
        ARM_ENV.call_once(|| {
            if qs_storage::fault::arm_from_env() {
                eprintln!("fault registry armed from QS_FAULTS");
            }
        });
        let disk = Arc::new(DiskModel::new(config.disk.clone()));
        let pool_cfg = match config.buffer_pool_pages {
            Some(n) => BufferPoolConfig::with_capacity(n),
            None => BufferPoolConfig::unbounded(),
        };
        let pool = Arc::new(BufferPool::new(pool_cfg, disk));
        let engine = QpipeEngine::new(
            catalog.clone(),
            pool.clone(),
            EngineConfig {
                cores: config.cores,
                workers: config.workers,
                fifo_capacity: config.fifo_capacity,
                out_page_bytes: config.out_page_bytes,
                sharing: config.sharing_policy(),
                admission: config.admission.clone(),
                ..Default::default()
            },
        );
        let cjoin = if config.mode.uses_gqp() {
            let spec = config
                .pipeline
                .clone()
                .map(Ok)
                .unwrap_or_else(|| ssb_pipeline_spec(&catalog))?;
            Some(
                CjoinPipeline::new(engine.ctx().clone(), &catalog, &spec)
                    .map_err(|e| EngineError::Aborted(e.to_string()))?,
            )
        } else {
            None
        };
        Ok(SharingDb {
            catalog,
            pool,
            engine,
            cjoin,
            lazy_cjoin: std::sync::OnceLock::new(),
            gqp_probe: std::sync::OnceLock::new(),
            cjoin_registry: Arc::new(Mutex::new(HashMap::new())),
            router_stats: crate::router::RouterStats::default(),
            config,
        })
    }

    /// The catalog.
    pub fn catalog(&self) -> &Arc<Catalog> {
        &self.catalog
    }

    /// The buffer pool (for I/O statistics).
    pub fn pool(&self) -> &Arc<BufferPool> {
        &self.pool
    }

    /// The configured mode.
    pub fn mode(&self) -> ExecutionMode {
        self.config.mode
    }

    /// The full configuration this database was built with (admission
    /// bounds included — the serving front door scales its Retry-After
    /// hints by them).
    pub fn config(&self) -> &DbConfig {
        &self.config
    }

    /// Engine metrics snapshot.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.engine.metrics()
    }

    /// The live engine counters [`Self::metrics`] snapshots. A front door
    /// that runs work under [`qs_engine::contain_panic`] passes this
    /// handle, so its contained panics reach the router's signals too.
    pub fn metrics_handle(&self) -> &Arc<Metrics> {
        self.engine.metrics_handle()
    }

    /// CJOIN statistics (GQP modes, and Auto once its lazy pipeline has
    /// started).
    pub fn cjoin_stats(&self) -> Option<CjoinStats> {
        self.active_cjoin().map(|c| c.stats())
    }

    /// Routing decision counters ([`ExecutionMode::Auto`] only; all-zero
    /// under the fixed modes).
    pub fn router_stats(&self) -> crate::router::RouterSnapshot {
        self.router_stats.snapshot()
    }

    /// Reset all counters between experiment points.
    pub fn reset_metrics(&self) {
        self.engine.reset_metrics();
        if let Some(c) = self.active_cjoin() {
            c.reset_stats();
        }
        self.router_stats.reset();
        self.pool.reset_stats();
        self.pool.disk().reset_stats();
    }

    /// The pipeline currently running, if any (eager or lazily started).
    fn active_cjoin(&self) -> Option<&CjoinPipeline> {
        match self.config.mode {
            ExecutionMode::Auto => self.lazy_cjoin.get().and_then(|p| p.as_ref()),
            _ => self.cjoin.as_ref(),
        }
    }

    /// The pipeline for a GQP-routed submission, starting Auto's lazily.
    /// The typed error (never a panic — this used to be an
    /// `expect("GQP mode has a pipeline")`) lets the submit path degrade
    /// to query-centric execution.
    fn gqp_pipeline(&self) -> Result<&CjoinPipeline, EngineError> {
        let slot = match self.config.mode {
            ExecutionMode::Auto => self
                .lazy_cjoin
                .get_or_init(|| {
                    let spec = match self
                        .config
                        .pipeline
                        .clone()
                        .map(Ok)
                        .unwrap_or_else(|| ssb_pipeline_spec(&self.catalog))
                    {
                        Ok(s) => s,
                        Err(_) => return None,
                    };
                    CjoinPipeline::new(self.engine.ctx().clone(), &self.catalog, &spec).ok()
                })
                .as_ref(),
            _ => self.cjoin.as_ref(),
        };
        slot.ok_or_else(|| {
            EngineError::Plan(qs_plan::PlanError::Invalid(
                "GQP route needs a CJOIN pipeline, but none can be built for this catalog"
                    .into(),
            ))
        })
    }

    /// Router signal: could a GQP route work at all? Cheap — resolves the
    /// pipeline spec against the catalog (cached), never spawns threads.
    fn gqp_route_available(&self) -> bool {
        match self.config.mode {
            ExecutionMode::Auto => match self.lazy_cjoin.get() {
                Some(p) => p.is_some(),
                None => *self.gqp_probe.get_or_init(|| {
                    self.config.pipeline.is_some() || ssb_pipeline_spec(&self.catalog).is_ok()
                }),
            },
            _ => self.cjoin.is_some(),
        }
    }

    /// Parse, bind, optimize and submit a SQL `SELECT`. The statement goes
    /// through the full front-end: `qs-sql` produces a naive plan,
    /// `qs_plan::optimize` pushes predicates into the scans (making star
    /// queries CJOIN-admissible) and the result is submitted under the
    /// configured execution mode.
    pub fn submit_sql(&self, sql: &str) -> Result<QueryTicket, EngineError> {
        let plan = self.plan_sql(sql)?;
        self.submit(&plan)
    }

    /// [`Self::submit_sql`] with per-query options — the serving front
    /// door's entry point: one call from untrusted SQL text to a
    /// streaming ticket, deadline and cancellation included.
    pub fn submit_sql_with(
        &self,
        sql: &str,
        opts: &QueryOpts,
    ) -> Result<QueryTicket, EngineError> {
        let plan = self.plan_sql(sql)?;
        self.submit_with(&plan, opts)
    }

    /// Front-end only: SQL text → optimized [`LogicalPlan`] (no
    /// submission). Useful for EXPLAIN-style inspection and batching.
    /// Lex, parse and bind failures come back as [`EngineError::Sql`],
    /// optimizer failures as [`EngineError::Plan`].
    pub fn plan_sql(&self, sql: &str) -> Result<LogicalPlan, EngineError> {
        let plan = qs_sql::plan_sql(sql, &self.catalog)?;
        Ok(qs_plan::optimize(plan, &self.catalog)?)
    }

    /// Submit one query.
    pub fn submit(&self, plan: &LogicalPlan) -> Result<QueryTicket, EngineError> {
        self.submit_with(plan, &QueryOpts::default())
    }

    /// Submit one query with per-query options (deadline). The returned
    /// ticket can also be cancelled ([`QueryTicket::cancel`]); in the GQP
    /// mode cancellation propagates into the CJOIN pipeline as an early
    /// removal, freeing the query's slot before its revolution completes.
    pub fn submit_with(
        &self,
        plan: &LogicalPlan,
        opts: &QueryOpts,
    ) -> Result<QueryTicket, EngineError> {
        match self.config.mode {
            ExecutionMode::QueryCentric | ExecutionMode::SpPush | ExecutionMode::SpPull => {
                self.engine.submit_with(plan, opts)
            }
            ExecutionMode::Gqp | ExecutionMode::GqpSp => {
                self.submit_gqp_pinned(plan, opts, None, self.config.mode)
            }
            ExecutionMode::Auto => self.submit_routed(plan, opts, None),
        }
    }

    /// Submit a coordinated batch (the demo's batching knob): for the
    /// QPipe modes the whole batch is built before execution starts
    /// (maximal SP window). For the GQP modes the plans are admitted one
    /// after another while the fact scan keeps running, so each query
    /// starts its revolution on whatever page the scan has reached — the
    /// batch's revolutions are staggered, not aligned. What the batch
    /// buys there is sharing: output hubs stay pinned until every plan is
    /// submitted, so identical CJOIN sub-plans in the batch ride one
    /// admission.
    pub fn submit_batch(&self, plans: &[LogicalPlan]) -> Result<Vec<QueryTicket>, EngineError> {
        self.submit_batch_with(plans, &QueryOpts::default())
    }

    /// [`Self::submit_batch`] with per-query options applied to every
    /// plan in the batch.
    pub fn submit_batch_with(
        &self,
        plans: &[LogicalPlan],
        opts: &QueryOpts,
    ) -> Result<Vec<QueryTicket>, EngineError> {
        match self.config.mode {
            ExecutionMode::QueryCentric | ExecutionMode::SpPush | ExecutionMode::SpPull => {
                self.engine.submit_batch_with(plans, opts)
            }
            ExecutionMode::Gqp | ExecutionMode::GqpSp => {
                // Pin every admission's output hub until the whole batch
                // is submitted: with a small fact table the pipeline can
                // finish (and drop the hub) between two submissions, which
                // would break the batch guarantee that identical CJOIN
                // sub-plans share one admission. Pull-mode hubs replay the
                // full history to late subscribers, so pinning is enough.
                let mut pins: Vec<Arc<qs_engine::OutputHub>> = Vec::new();
                plans
                    .iter()
                    .map(|p| self.submit_gqp_pinned(p, opts, Some(&mut pins), self.config.mode))
                    .collect()
            }
            ExecutionMode::Auto => {
                // Each plan is routed individually (one may ride CJOIN
                // while its neighbor runs query-centric); hubs of any
                // GQP-routed members are pinned across the whole batch so
                // identical CJOIN sub-plans still share one admission.
                let mut pins: Vec<Arc<qs_engine::OutputHub>> = Vec::new();
                plans
                    .iter()
                    .map(|p| self.submit_routed(p, opts, Some(&mut pins)))
                    .collect()
            }
        }
    }

    /// [`ExecutionMode::Auto`]: run the router pass, then submit under the
    /// mode it picked. The decision is recorded on the ticket
    /// ([`QueryTicket::route`]) and in [`Self::router_stats`].
    fn submit_routed(
        &self,
        plan: &LogicalPlan,
        opts: &QueryOpts,
        pins: Option<&mut Vec<Arc<qs_engine::OutputHub>>>,
    ) -> Result<QueryTicket, EngineError> {
        let star = StarQuery::detect(plan, &self.catalog);
        let gqp_available = star.is_some() && self.gqp_route_available();
        let m = self.engine.metrics();
        let cstats = self.cjoin_stats().unwrap_or_default();
        let signals = crate::router::RouteSignals {
            star: star.is_some(),
            selectivity: star
                .as_ref()
                .map(|s| crate::router::estimate_star_selectivity(s, &self.catalog)),
            load: self.engine.admission().map(|g| g.load()),
            gqp_available,
            live_share: gqp_available
                && star.as_ref().is_some_and(|s| {
                    let reg = self.cjoin_registry.lock();
                    reg.get(&s.join_signature())
                        .is_some_and(|e| e.lease.strong_count() > 0 && e.hub.strong_count() > 0)
                }),
            cjoin_sp_hits: m.sp_hits_for(StageKind::Cjoin),
            sp_hits: m.total_sp_hits(),
            pages_shared: m.pages_shared,
            admission_evals: cstats.admission_evals,
            panics_contained: m.panics_contained + cstats.aborts,
        };
        let mode = crate::router::decide(&signals);
        self.router_stats.record(mode);
        let ticket = match mode {
            ExecutionMode::QueryCentric | ExecutionMode::SpPush | ExecutionMode::SpPull => {
                // The engine was built with a query-centric baseline
                // policy; SP routes ride the per-query override (an
                // explicit caller override wins, like the fixed modes).
                let routed = match opts.sharing {
                    Some(_) => opts.clone(),
                    None => opts.clone().with_sharing(self.config.routed_policy(mode)),
                };
                self.engine.submit_with(plan, &routed)?
            }
            ExecutionMode::Gqp | ExecutionMode::GqpSp => {
                self.submit_gqp_pinned(plan, opts, pins, mode)?
            }
            ExecutionMode::Auto => unreachable!("router decisions are fixed modes"),
        };
        Ok(ticket.with_route(mode.label()))
    }

    fn submit_gqp_pinned(
        &self,
        plan: &LogicalPlan,
        opts: &QueryOpts,
        pins: Option<&mut Vec<Arc<qs_engine::OutputHub>>>,
        mode: ExecutionMode,
    ) -> Result<QueryTicket, EngineError> {
        let cjoin = match self.gqp_pipeline() {
            Ok(c) => c,
            // No pipeline (Auto's lazy build failed, or a future caller
            // misroutes): degrade to query-centric execution. The old code
            // panicked here, taking the whole worker down for a plan the
            // engine could evaluate fine.
            Err(EngineError::Plan(_)) => return self.engine.submit_with(plan, opts),
            Err(e) => return Err(e),
        };
        let Some(star) = StarQuery::detect(plan, &self.catalog) else {
            // Not a star query: CJOIN cannot evaluate it; fall back to
            // query-centric operators (paper §3).
            return self.engine.submit_with(plan, opts);
        };

        // Admission-gate the star path too. The CJOIN consumer half is
        // submitted via `submit_consumer_with`, which deliberately takes
        // no permit (see its docs), so without this the overload valve
        // only protected the QC/SP modes — a GQP server would accept
        // unbounded concurrent queries and never shed. One permit per
        // query, acquired before anything is held, so the queue wait
        // cannot deadlock against another admitted query.
        let permit = match self.engine.admission() {
            Some(gate) => Some(gate.admit()?),
            None => None,
        };

        let metrics = self.engine.metrics_handle();
        // In plain GQP every admission belongs to exactly one query, so
        // cancelling the query removes its CJOIN admission directly. In
        // GqpSp an admission's output can acquire SP subscribers at any
        // time, so ownership is shared: every interested query holds an
        // `Arc<CjoinLease>` through its ticket hook, and only the *last*
        // release (cancel, deadline, or ticket drop) removes the
        // admission. Survivors are safe — CJOIN keeps streaming until the
        // lease count hits zero — while a revolution with no listeners
        // left stops consuming fact pages instead of running to the end.
        let mut cancel_hook: Option<qs_cjoin::CjoinCancel> = None;
        let mut lease_hook: Option<Arc<CjoinLease>> = None;
        let source: Box<dyn qs_engine::BatchSource> = if mode == ExecutionMode::GqpSp {
            let sig = star.join_signature();
            let mut reg = self.cjoin_registry.lock();
            // A hit needs the hub (to subscribe), a live lease (a dead
            // lease means the admission is being torn down — treat as a
            // miss and replace the entry), and an open SP window.
            let hit = reg.get(&sig).and_then(|e| {
                let reader = e.hub.upgrade()?.subscribe()?;
                // Upgrade the lease *last* so a successfully-created
                // `Arc<CjoinLease>` is always moved out of this locked
                // scope: dropping the last lease ref here would re-lock
                // the registry in `CjoinLease::drop` and self-deadlock.
                let lease = e.lease.upgrade()?;
                Some((reader, lease))
            });
            match hit {
                Some((reader, lease)) => {
                    // SP hit on the CJOIN stage: this query reuses the
                    // in-flight admission's output.
                    metrics.sp_hit(StageKind::Cjoin);
                    lease_hook = Some(lease);
                    reader
                }
                None => {
                    metrics.sp_miss(StageKind::Cjoin);
                    let q = cjoin
                        .admit(&star)
                        .map_err(|e| EngineError::Aborted(e.to_string()))?;
                    metrics.packet(StageKind::Cjoin);
                    let lease = Arc::new(CjoinLease {
                        sig,
                        cancel: q.cancel.clone(),
                        registry: Arc::downgrade(&self.cjoin_registry),
                    });
                    reg.insert(
                        sig,
                        ShareEntry {
                            hub: Arc::downgrade(&q.hub),
                            lease: Arc::downgrade(&lease),
                        },
                    );
                    if reg.len() > 1024 {
                        reg.retain(|_, e| e.hub.strong_count() > 0);
                    }
                    if let Some(pins) = pins {
                        pins.push(q.hub.clone());
                    }
                    lease_hook = Some(lease);
                    q.reader
                }
            }
        } else {
            let q = cjoin
                .admit(&star)
                .map_err(|e| EngineError::Aborted(e.to_string()))?;
            metrics.packet(StageKind::Cjoin);
            cancel_hook = Some(q.cancel.clone());
            q.reader
        };

        // Run the query-centric operators above the join on the CJOIN
        // output. `submit_consumer` replaces the plan's join/scan leaf
        // with the external stream.
        let mut ticket = self.engine.submit_consumer_with(plan, source, opts)?;
        if let Some(p) = permit {
            ticket = ticket.with_permit(p);
        }
        if let Some(cancel) = cancel_hook {
            ticket
                .ctl()
                .set_hook(Box::new(move || cancel.cancel()));
        }
        if let Some(lease) = lease_hook {
            // Fires on cancel/deadline; if neither happens the unfired
            // hook (and the lease with it) drops with the query's ctl.
            ticket.ctl().set_hook(Box::new(move || drop(lease)));
        }
        Ok(ticket)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qs_workload::ssb::data::{generate_ssb, SsbConfig};

    #[test]
    fn gqp_star_path_respects_the_admission_gate() {
        // Runs a CJOIN pipeline: serialize on the fault registry.
        let _guard = qs_storage::fault::test_guard();
        use qs_workload::ssb::queries::TemplateParams;
        use qs_workload::SsbTemplate;
        use std::time::Duration;

        let cat = Catalog::new();
        generate_ssb(
            &cat,
            &SsbConfig {
                scale: 0.0005,
                seed: 2,
                page_bytes: 8192,
                ..Default::default()
            },
        );
        let mut cfg = DbConfig::new(ExecutionMode::GqpSp);
        cfg.admission = Some(AdmissionConfig {
            max_concurrent: 1,
            max_queued: 0,
            queue_timeout: Duration::from_millis(10),
        });
        let db = SharingDb::new(cat, cfg).unwrap();
        let plan = SsbTemplate::Q1_1
            .plan(db.catalog(), &TemplateParams::variant(0))
            .unwrap();

        // Holding the only slot: the next star submission must shed with
        // a typed error — the CJOIN path takes a permit too, it does not
        // bypass the gate via submit_consumer.
        let held = db.submit(&plan).unwrap();
        match db.submit(&plan) {
            Err(EngineError::Shed(hint)) => assert_eq!(hint.running, 1),
            other => panic!("expected shed on the GQP path, got {:?}", other.map(|_| ())),
        }

        // Releasing the ticket frees the slot.
        drop(held);
        let t = db.submit(&plan).unwrap();
        assert!(t.drain().is_ok());
    }

    #[test]
    fn two_clients_keep_stage_pools_at_their_concurrency() {
        use qs_engine::ALL_STAGES;
        use qs_workload::ssb::queries::TemplateParams;
        use qs_workload::SsbTemplate;

        let cat = Catalog::new();
        generate_ssb(
            &cat,
            &SsbConfig {
                scale: 0.0005,
                seed: 4,
                page_bytes: 8192,
                ..Default::default()
            },
        );
        let db = SharingDb::new(cat, DbConfig::new(ExecutionMode::SpPull)).unwrap();
        let plan = |v: u64| {
            let params = TemplateParams {
                selectivity: Some(0.01),
                ..TemplateParams::variant(v)
            };
            SsbTemplate::Q1_1.plan(db.catalog(), &params).unwrap()
        };
        // One query alone: how many packets it puts on each stage.
        db.submit(&plan(0)).unwrap().drain().unwrap();
        let per_query = db.metrics().packets;
        // Two clients, 50 selective Q1.1 queries each, every one drained
        // before the client's next submission.
        std::thread::scope(|s| {
            for c in 0..2u64 {
                let plan = &plan;
                let db = &db;
                s.spawn(move || {
                    for i in 1..=50 {
                        db.submit(&plan(c * 1000 + i)).unwrap().drain().unwrap();
                    }
                });
            }
        });
        // A stage spawns only when it runs more packets at once than it
        // has workers, so two clients need at most twice one query's
        // packets there (and the one worker every stage starts with). An
        // uncounted spare would instead add about one worker per round.
        for (k, &kind) in ALL_STAGES.iter().enumerate() {
            let workers = db.engine.stage(kind).worker_count();
            let bound = (2 * per_query[k] as usize).max(1);
            assert!(
                workers <= bound,
                "{} stage: {workers} workers after 100 two-client queries, at most {bound} packets at once",
                kind.name()
            );
        }
    }

    #[test]
    fn ssb_pipeline_spec_resolves_all_dims() {
        let cat = Catalog::new();
        generate_ssb(
            &cat,
            &SsbConfig {
                scale: 0.0005,
                seed: 1,
                page_bytes: 8192,
                ..Default::default()
            },
        );
        let spec = ssb_pipeline_spec(&cat).unwrap();
        assert_eq!(spec.fact_table, "lineorder");
        let tables: Vec<&str> = spec.dims.iter().map(|d| d.table.as_str()).collect();
        assert_eq!(tables, vec!["date", "customer", "supplier", "part"]);
        let lo = cat.get("lineorder").unwrap();
        for d in &spec.dims {
            // every fact key must be an Int FK column of lineorder
            assert_eq!(
                lo.schema().dtype(d.fact_key),
                qs_storage::DataType::Int
            );
            let dim = cat.get(&d.table).unwrap();
            assert_eq!(d.dim_key, 0, "SSB dim keys are the first column");
            assert_eq!(dim.schema().dtype(d.dim_key), qs_storage::DataType::Int);
        }
    }

    #[test]
    fn mode_labels_are_unique() {
        let labels: std::collections::HashSet<&str> =
            ExecutionMode::all().iter().map(|m| m.label()).collect();
        assert_eq!(labels.len(), 5);
        assert!(ExecutionMode::Gqp.uses_gqp());
        assert!(ExecutionMode::GqpSp.uses_gqp());
        assert!(!ExecutionMode::SpPull.uses_gqp());
    }

    /// A predicate-free one-dim star over the SSB tables (selectivity
    /// 1.0, so the router's GQP gate is decided purely by load).
    fn open_star_plan(db: &SharingDb) -> qs_plan::LogicalPlan {
        use qs_plan::{AggFunc, AggSpec, LogicalPlan};
        let lo = db.catalog().get("lineorder").unwrap();
        let rev = lo.schema().index_of("lo_revenue").unwrap();
        let od = lo.schema().index_of("lo_orderdate").unwrap();
        LogicalPlan::Aggregate {
            input: Box::new(LogicalPlan::HashJoin {
                build: Box::new(LogicalPlan::Scan {
                    table: "date".into(),
                    predicate: None,
                    projection: None,
                }),
                probe: Box::new(LogicalPlan::Scan {
                    table: "lineorder".into(),
                    predicate: None,
                    projection: None,
                }),
                build_key: 0,
                probe_key: od,
            }),
            group_by: vec![],
            aggs: vec![AggSpec::new(AggFunc::Sum(rev), "sum_rev")],
        }
    }

    fn tiny_ssb() -> Arc<Catalog> {
        let cat = Catalog::new();
        generate_ssb(
            &cat,
            &SsbConfig {
                scale: 0.0005,
                seed: 7,
                page_bytes: 8192,
                ..Default::default()
            },
        );
        cat
    }

    #[test]
    fn auto_mode_routes_and_records_the_decision() {
        // Runs a CJOIN pipeline: serialize on the fault registry.
        let _guard = qs_storage::fault::test_guard();
        let cat = tiny_ssb();
        let db = SharingDb::new(cat.clone(), DbConfig::new(ExecutionMode::Auto)).unwrap();
        let qc = SharingDb::new(cat, DbConfig::new(ExecutionMode::QueryCentric)).unwrap();
        let plan = open_star_plan(&db);
        let expect = qc.submit(&plan).unwrap().drain().unwrap();

        // Open star, no admission gate (load unknown): the router bets on
        // sharing and sends it down the CJOIN route.
        let t = db.submit(&plan).unwrap();
        assert_eq!(t.route(), Some("GQP+SP"));
        assert_eq!(t.drain().unwrap(), expect);
        assert_eq!(db.router_stats().gqp_sp, 1);

        // Non-star plans can never ride CJOIN.
        let scan = qs_plan::LogicalPlan::Scan {
            table: "date".into(),
            predicate: None,
            projection: None,
        };
        let t = db.submit(&scan).unwrap();
        assert_eq!(t.route(), Some("SP-SPL"));
        assert!(t.drain().is_ok());
        assert_eq!(db.router_stats().total(), 2);

        // The lazy pipeline exists now, and stats flow through it.
        assert!(db.cjoin_stats().is_some());
    }

    /// Satellite regression: a GQP-routed submission without a working
    /// pipeline must degrade to query-centric execution — this path used
    /// to be `expect("GQP mode has a pipeline")`.
    #[test]
    fn gqp_route_without_pipeline_degrades_to_query_centric() {
        let cat = tiny_ssb();
        let qc = SharingDb::new(cat.clone(), DbConfig::new(ExecutionMode::QueryCentric)).unwrap();

        // A spec naming a missing fact table passes the cheap availability
        // probe (`config.pipeline.is_some()`) but fails the lazy build, so
        // the router picks the GQP route and the submit path has to cope.
        let mut cfg = DbConfig::new(ExecutionMode::Auto);
        cfg.pipeline = Some(qs_cjoin::PipelineSpec::new("no_such_table", vec![]));
        let db = SharingDb::new(cat, cfg).unwrap();

        let plan = open_star_plan(&db);
        let expect = qc.submit(&plan).unwrap().drain().unwrap();
        let t = db.submit(&plan).unwrap();
        assert_eq!(t.route(), Some("GQP+SP"), "decision is still recorded");
        assert_eq!(t.drain().unwrap(), expect, "query-centric fallback ran");
        // The failed build is cached: no pipeline, stats stay absent.
        assert!(db.cjoin_stats().is_none());
    }

    /// Satellite regression: in GQP+SP, a query that dies mid-revolution
    /// hands its admission to the surviving subscribers; when the *last*
    /// one dies the admission is removed instead of silently streaming to
    /// nobody until the revolution completes.
    #[test]
    fn gqpsp_admission_follows_the_surviving_subscribers() {
        // Runs a CJOIN pipeline: serialize on the fault registry.
        let _guard = qs_storage::fault::test_guard();
        let cat = tiny_ssb();
        let db = SharingDb::new(cat.clone(), DbConfig::new(ExecutionMode::GqpSp)).unwrap();
        let qc = SharingDb::new(cat, DbConfig::new(ExecutionMode::QueryCentric)).unwrap();
        let plan = open_star_plan(&db);
        let expect = qc.submit(&plan).unwrap().drain().unwrap();

        // Two tickets share one admission (batch pins the hub).
        let tickets = db.submit_batch(&[plan.clone(), plan.clone()]).unwrap();
        let m = db.metrics();
        assert_eq!(m.sp_hits_for(qs_engine::StageKind::Cjoin), 1);
        let mut it = tickets.into_iter();
        let owner = it.next().unwrap();
        let subscriber = it.next().unwrap();

        // The admission's original owner is cancelled; the subscriber
        // still holds a lease, so its results are complete and exact.
        owner.cancel();
        drop(owner);
        assert_eq!(subscriber.drain().unwrap(), expect);

        // All leases are gone now; the registry entry dies with them and
        // a fresh submission re-admits rather than subscribing to a
        // cancelled stream.
        let t = db.submit(&plan).unwrap();
        assert_eq!(t.drain().unwrap(), expect);
    }

    #[test]
    fn gqp_mode_requires_resolvable_pipeline() {
        // A catalog without SSB tables cannot build the default pipeline.
        let cat = Catalog::new();
        let err = SharingDb::new(cat, DbConfig::new(ExecutionMode::Gqp));
        assert!(err.is_err());
    }
}
