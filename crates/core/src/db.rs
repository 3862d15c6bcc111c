//! The unified sharing system: QPipe + CJOIN behind one `submit` call.
//!
//! This is the paper's §3 "Integration": the CJOIN operator is mounted as
//! an additional stage of the QPipe engine, and the execution mode only
//! decides where a submitted plan goes:
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
//! * [`ExecutionMode::Auto`] — the router picks one of the above per plan.
//!
//! Every submission takes one path, [`SharingDb::submit_batch_with`]. Each
//! plan is first *routed*: a fixed mode is a router that always answers
//! with itself, while `Auto` asks [`crate::router::decide`]. The batch's GQP
//! routes of star plans are then admitted to CJOIN together, in one batch
//! admission (under GQP+SP, a star identical to a live admission or to an
//! earlier member subscribes to it instead). Last, each plan is
//! *dispatched*: a CJOIN member to the operators above its join, every
//! other plan into the batch's one engine batch under its route's sharing
//! policy, so the reactive members of a batch share one SP window in every
//! mode.

use parking_lot::Mutex;
use qs_cjoin::{CjoinPipeline, CjoinStats, PipelineSpec};
use qs_engine::{
    AdmissionConfig, AdmissionPermit, BatchBuilder, BatchSource, EngineConfig, EngineError,
    Metrics, MetricsSnapshot, OutputHub, QpipeEngine, QueryOpts, QueryTicket, ShareMode,
    SharingPolicy, StageKind,
};
use qs_plan::{LogicalPlan, StarQuery};
use qs_storage::{
    BufferPool, BufferPoolConfig, Catalog, DiskConfig, DiskModel,
};
use std::collections::HashMap;
use std::sync::{Arc, OnceLock, Weak};

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
    /// CJOIN sharing feedback. The engine runs the reactive routes and a
    /// lazily-started CJOIN pipeline the proactive ones.
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
    /// Scenario I uses SP at the scan stage only). It applies to plans run
    /// on the engine; the operators above a CJOIN stream run query-centric
    /// whatever the policy ([`QpipeEngine::submit_consumer_with`] does not
    /// apply [`QueryOpts::sharing`]), so under the GQP modes it reaches
    /// only the non-star plans.
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

    /// The sharing policy of a plan routed to `route`: SP at every stage
    /// for the SP modes, query-centric otherwise (the GQP modes run the
    /// operators above CJOIN query-centric, and their non-star plans fall
    /// back to plain QPipe). `sharing_override` wins over the route, and
    /// an explicit [`QueryOpts::sharing`] wins over both.
    pub fn sharing_policy(&self, route: ExecutionMode) -> SharingPolicy {
        self.sharing_override.unwrap_or_else(|| match route {
            ExecutionMode::SpPush => SharingPolicy::all_stages(ShareMode::Push),
            ExecutionMode::SpPull => SharingPolicy::all_stages(ShareMode::Pull),
            _ => SharingPolicy::query_centric(),
        })
    }
}

/// Build the CJOIN pipeline spec for the SSB star schema registered in
/// `catalog` (lineorder + date/customer/supplier/part).
pub fn ssb_pipeline_spec(catalog: &Catalog) -> Result<PipelineSpec, EngineError> {
    let lo = catalog.get("lineorder")?;
    let dims = [
        ("date", "lo_orderdate", "d_datekey"),
        ("customer", "lo_custkey", "c_custkey"),
        ("supplier", "lo_suppkey", "s_suppkey"),
        ("part", "lo_partkey", "p_partkey"),
    ];
    let dims = dims.iter().map(|&(table, fact_col, key_col)| {
        Ok(qs_cjoin::DimSpec {
            table: table.to_string(),
            fact_key: lo.schema().index_of(fact_col)?,
            dim_key: catalog.get(table)?.schema().index_of(key_col)?,
        })
    });
    Ok(PipelineSpec::new("lineorder", dims.collect::<Result<_, EngineError>>()?))
}

/// Start the CJOIN pipeline `config` describes (the SSB star by default).
fn start_pipeline(
    engine: &QpipeEngine,
    catalog: &Catalog,
    config: &DbConfig,
) -> Result<CjoinPipeline, EngineError> {
    let spec = match &config.pipeline {
        Some(spec) => spec.clone(),
        None => ssb_pipeline_spec(catalog)?,
    };
    CjoinPipeline::new(engine.ctx().clone(), catalog, &spec)
        .map_err(|e| EngineError::Aborted(e.to_string()))
}

/// One GqpSp share-registry entry: the in-flight admission's output hub
/// plus the lease that keeps the admission alive.
struct ShareEntry {
    hub: Weak<OutputHub>,
    lease: Weak<CjoinLease>,
}

type ShareRegistry = Mutex<HashMap<u64, ShareEntry>>;

/// Shared ownership of one in-flight CJOIN admission.
///
/// Every query reading the admission's output — the one that paid for the
/// admission and, under GQP+SP, every SP subscriber — holds one `Arc`
/// through its ticket's cancel/deadline hook. When a query dies
/// (cancelled, deadline, or its ticket dropped) its `Arc` goes with it;
/// the *last* release removes the admission from the pipeline, so a
/// revolution nobody reads stops consuming fact pages. Only GQP+SP leases
/// are published in the share registry; a plain GQP lease's is empty.
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

/// A CJOIN member's output stream and the lease on its admission.
type CjoinSource = (Box<dyn BatchSource>, Arc<CjoinLease>);

/// Where one plan goes ([`SharingDb::route`]).
struct Route {
    /// The fixed mode the plan runs under.
    mode: ExecutionMode,
    /// The star the plan rides CJOIN as: `Some` only on a GQP route of a
    /// star plan. Every other plan runs on the engine.
    star: Option<StarQuery>,
    /// The router chose `mode` ([`ExecutionMode::Auto`]) rather than the
    /// configuration pinning it; only then does the ticket record it.
    routed: bool,
}

/// The unified system.
pub struct SharingDb {
    catalog: Arc<Catalog>,
    pool: Arc<BufferPool>,
    engine: QpipeEngine,
    /// The CJOIN pipeline: started in [`Self::new`] under the fixed GQP
    /// modes, on the first GQP route under [`ExecutionMode::Auto`], never
    /// under the others. `Some(None)` caches a failed lazy build, so GQP
    /// routes degrade to query-centric execution instead of retrying.
    pipeline: OnceLock<Option<CjoinPipeline>>,
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
        // The engine's baseline policy stays query-centric: every plan
        // carries its route's policy (`DbConfig::sharing_policy`).
        let engine = QpipeEngine::new(
            catalog.clone(),
            pool.clone(),
            EngineConfig {
                cores: config.cores,
                workers: config.workers,
                fifo_capacity: config.fifo_capacity,
                out_page_bytes: config.out_page_bytes,
                admission: config.admission.clone(),
                ..Default::default()
            },
        );
        // A pinned GQP mode that cannot build its pipeline fails here, at
        // build time, not on its first star query.
        let pipeline = OnceLock::new();
        if matches!(config.mode, ExecutionMode::Gqp | ExecutionMode::GqpSp) {
            let _ = pipeline.set(Some(start_pipeline(&engine, &catalog, &config)?));
        }
        Ok(SharingDb {
            catalog,
            pool,
            engine,
            pipeline,
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

    /// The pipeline currently running, if any.
    fn active_cjoin(&self) -> Option<&CjoinPipeline> {
        self.pipeline.get().and_then(Option::as_ref)
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

    /// Submit one query with per-query options (deadline): a batch of one.
    /// The returned ticket can also be cancelled ([`QueryTicket::cancel`]);
    /// on a GQP route cancellation propagates into the CJOIN pipeline as
    /// an early removal once no query reads the admission any more,
    /// freeing its slot before the revolution completes.
    pub fn submit_with(
        &self,
        plan: &LogicalPlan,
        opts: &QueryOpts,
    ) -> Result<QueryTicket, EngineError> {
        let mut tickets = self.submit_batch_with(std::slice::from_ref(plan), opts)?;
        Ok(tickets.pop().expect("one ticket per plan"))
    }

    /// Submit a coordinated batch (the demo's batching knob). Every member
    /// that runs on the engine — all of them under QC and the SP modes,
    /// the non-star plans under the GQP modes, the reactive routes under
    /// Auto — is built before any of them starts (maximal SP window). The
    /// CJOIN members are admitted together, in one
    /// [`CjoinPipeline::admit_batch`], so their revolutions start on the
    /// same fact page and the batch costs the scan one revolution; under
    /// GQP+SP, identical CJOIN sub-plans in the batch ride one admission.
    pub fn submit_batch(&self, plans: &[LogicalPlan]) -> Result<Vec<QueryTicket>, EngineError> {
        self.submit_batch_with(plans, &QueryOpts::default())
    }

    /// [`Self::submit_batch`] with per-query options applied to every
    /// plan in the batch: the one submit path every `submit*` call takes.
    pub fn submit_batch_with(
        &self,
        plans: &[LogicalPlan],
        opts: &QueryOpts,
    ) -> Result<Vec<QueryTicket>, EngineError> {
        // Route each plan, then take its admission permit, before anything
        // is built: Auto's load signal sees the members routed before it,
        // and a queue wait never holds packets another query may already
        // subscribe to. One permit per query, CJOIN routes included — the
        // consumer half of a CJOIN query takes none of its own.
        let mut routes = Vec::with_capacity(plans.len());
        let mut permits = Vec::with_capacity(plans.len());
        for plan in plans {
            routes.push(self.route(plan));
            let gate = self.engine.admission();
            permits.push(gate.map(|gate| gate.admit()).transpose()?);
        }
        let sources = self.admit_stars(&routes)?;
        let mut batch = self.engine.batch();
        let members = plans.iter().zip(routes).zip(permits).zip(sources);
        let tickets = members
            .map(|(((plan, route), permit), source)| {
                self.dispatch(plan, opts, route, permit, source, &mut batch)
            })
            .collect::<Result<Vec<_>, _>>()?;
        batch.dispatch();
        Ok(tickets)
    }

    /// Where `plan` goes. A fixed mode is a router that always answers
    /// with itself; only the GQP modes look at the plan, since a non-star
    /// plan cannot ride CJOIN. [`ExecutionMode::Auto`] gathers the
    /// router's signals, asks [`crate::router::decide`] and counts the
    /// decision in [`Self::router_stats`].
    fn route(&self, plan: &LogicalPlan) -> Route {
        let mode = self.config.mode;
        let star = match mode {
            ExecutionMode::QueryCentric | ExecutionMode::SpPush | ExecutionMode::SpPull => None,
            _ => StarQuery::detect(plan, &self.catalog),
        };
        if mode != ExecutionMode::Auto {
            return Route {
                mode,
                star,
                routed: false,
            };
        }
        // A GQP route is open while the pipeline runs or, before the first
        // GQP route starts it, while its spec resolves against the catalog.
        let gqp_available = star.is_some()
            && match self.pipeline.get() {
                Some(p) => p.is_some(),
                None => self.config.pipeline.is_some() || ssb_pipeline_spec(&self.catalog).is_ok(),
            };
        let m = self.engine.metrics();
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
            panics_contained: m.panics_contained
                + self.active_cjoin().map_or(0, |c| c.stats().aborts),
        };
        let mode = crate::router::decide(&signals);
        self.router_stats.record(mode);
        let gqp = matches!(mode, ExecutionMode::Gqp | ExecutionMode::GqpSp);
        Route {
            mode,
            star: star.filter(|_| gqp),
            routed: true,
        }
    }

    /// Send one routed plan on its way: a star already admitted to CJOIN
    /// (`source`, from [`Self::admit_stars`]) to the query-centric
    /// operators above its join, every other plan into the batch's engine
    /// batch under its route's sharing policy. `permit` (taken at routing)
    /// rides the ticket.
    fn dispatch(
        &self,
        plan: &LogicalPlan,
        opts: &QueryOpts,
        route: Route,
        permit: Option<AdmissionPermit>,
        source: Option<CjoinSource>,
        batch: &mut BatchBuilder<'_>,
    ) -> Result<QueryTicket, EngineError> {
        let mut ticket = match source {
            Some((source, lease)) => {
                // Run the query-centric operators above the join on the
                // CJOIN output: `submit_consumer_with` replaces the plan's
                // join/scan leaf with the external stream.
                let mut ticket = self.engine.submit_consumer_with(plan, source, opts)?;
                if let Some(p) = permit {
                    ticket = ticket.with_permit(p);
                }
                // Fires on cancel/deadline; if neither happens the unfired
                // hook (and the lease with it) drops with the query's ctl.
                ticket.ctl().set_hook(Box::new(move || drop(lease)));
                ticket
            }
            // A reactive route, a non-star plan, or no pipeline to ride
            // (Auto's lazy build failed): QPipe operators, under the
            // route's sharing policy unless the caller set one.
            None => {
                let sharing = opts
                    .sharing
                    .unwrap_or_else(|| self.config.sharing_policy(route.mode));
                batch.add(plan, &opts.clone().with_sharing(sharing), permit)?
            }
        };
        if route.routed {
            ticket = ticket.with_route(route.mode.label());
        }
        Ok(ticket)
    }

    /// The CJOIN output stream, and the lease that holds its admission,
    /// of every member of a batch that rides CJOIN (`None` for the rest).
    /// The GQP routes of star plans are admitted in one
    /// [`CjoinPipeline::admit_batch`], all or none. Under GQP+SP a member
    /// whose join signature has a live admission subscribes to it instead
    /// (an SP hit at the CJOIN stage), and so does a member identical to
    /// an earlier one of the same batch, to the hub of that member's new
    /// admission; the new admissions are published for later batches.
    fn admit_stars(&self, routes: &[Route]) -> Result<Vec<Option<CjoinSource>>, EngineError> {
        let mut sources: Vec<Option<CjoinSource>> = routes.iter().map(|_| None).collect();
        if routes.iter().all(|r| r.star.is_none()) {
            return Ok(sources);
        }
        // A GQP route starts Auto's pipeline on first use.
        let start = || start_pipeline(&self.engine, &self.catalog, &self.config).ok();
        let Some(cjoin) = self.pipeline.get_or_init(start).as_ref() else {
            return Ok(sources);
        };
        let metrics = self.engine.metrics_handle();
        // Held across the admission, so two identical stars cannot both
        // miss and admit twice.
        let mut reg = self.cjoin_registry.lock();
        // The members to admit (member index, sharing?, signature), and
        // the in-batch duplicates (member index, index into `admit`).
        let mut admit: Vec<(usize, bool, u64)> = Vec::new();
        let mut stars: Vec<&StarQuery> = Vec::new();
        let mut duplicates: Vec<(usize, usize)> = Vec::new();
        let mut hits = 0;
        for (i, route) in routes.iter().enumerate() {
            let Some(star) = &route.star else { continue };
            let share = route.mode == ExecutionMode::GqpSp;
            let sig = star.join_signature();
            if share {
                // A hit needs the hub (to subscribe), a live lease (a dead
                // lease means the admission is being torn down — treat as
                // a miss and replace the entry), and an open SP window.
                let hit = reg.get(&sig).and_then(|e| {
                    let reader = e.hub.upgrade()?.subscribe()?;
                    // Upgrade the lease *last*, so a successfully created
                    // `Arc<CjoinLease>` always lands in `sources`.
                    let lease = e.lease.upgrade()?;
                    Some((reader, lease))
                });
                if hit.is_some() {
                    sources[i] = hit;
                    hits += 1;
                    continue;
                }
                if let Some(j) = admit.iter().position(|&(_, sh, s)| sh && s == sig) {
                    duplicates.push((i, j));
                    hits += 1;
                    continue;
                }
            }
            admit.push((i, share, sig));
            stars.push(star);
        }
        let admitted = match cjoin.admit_batch(&stars) {
            Ok(admitted) => admitted,
            Err(e) => {
                // Unlock before the hits' leases in `sources` drop: the
                // last one's `CjoinLease::drop` re-locks the registry.
                drop(reg);
                drop(sources);
                return Err(EngineError::Aborted(e.to_string()));
            }
        };
        let mut hubs = Vec::with_capacity(admitted.len());
        for (q, &(i, share, sig)) in admitted.into_iter().zip(&admit) {
            metrics.packet(StageKind::Cjoin);
            let lease = Arc::new(CjoinLease {
                sig,
                cancel: q.cancel.clone(),
                registry: if share {
                    Arc::downgrade(&self.cjoin_registry)
                } else {
                    Weak::new()
                },
            });
            if share {
                metrics.sp_miss(StageKind::Cjoin);
                reg.insert(
                    sig,
                    ShareEntry {
                        hub: Arc::downgrade(&q.hub),
                        lease: Arc::downgrade(&lease),
                    },
                );
            }
            hubs.push((q.hub, lease.clone()));
            sources[i] = Some((q.reader, lease));
        }
        for (i, j) in duplicates {
            let (hub, lease) = &hubs[j];
            let reader = hub
                .subscribe()
                .expect("a pull-mode hub accepts subscribers for its whole life");
            sources[i] = Some((reader, lease.clone()));
        }
        for _ in 0..hits {
            metrics.sp_hit(StageKind::Cjoin);
        }
        if reg.len() > 1024 {
            reg.retain(|_, e| e.hub.strong_count() > 0);
        }
        Ok(sources)
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
        let t = db.submit(&date_scan()).unwrap();
        assert_eq!(t.route(), Some("SP-SPL"));
        assert!(t.drain().is_ok());
        assert_eq!(db.router_stats().total(), 2);

        // The lazy pipeline exists now, and stats flow through it.
        assert!(db.cjoin_stats().is_some());
    }

    fn date_scan() -> qs_plan::LogicalPlan {
        qs_plan::LogicalPlan::Scan {
            table: "date".into(),
            predicate: None,
            projection: None,
        }
    }

    /// A pinned mode is a router with a fixed answer: its tickets carry no
    /// route and the router counters stay at zero, while every `Auto`
    /// submission records exactly one decision. Rows match QC either way,
    /// for a star and a non-star plan, alone and as a batch.
    #[test]
    fn pinned_and_routed_submissions_keep_their_bookkeeping() {
        // Runs CJOIN pipelines: serialize on the fault registry.
        let _guard = qs_storage::fault::test_guard();
        use qs_engine::reference::canon;
        let cat = tiny_ssb();
        let qc = SharingDb::new(cat.clone(), DbConfig::new(ExecutionMode::QueryCentric)).unwrap();
        let plans = [open_star_plan(&qc), date_scan()];
        let expect: Vec<_> = plans
            .iter()
            .map(|p| canon(qc.submit(p).unwrap().collect_rows().unwrap()))
            .collect();
        for mode in ExecutionMode::all().into_iter().chain([ExecutionMode::Auto]) {
            let db = SharingDb::new(cat.clone(), DbConfig::new(mode)).unwrap();
            let label = mode.label();
            let routed = mode == ExecutionMode::Auto;
            let decisions = |n: usize| if routed { n as u64 } else { 0 };
            let mut tickets = Vec::new();
            for plan in &plans {
                tickets.push(db.submit(plan).unwrap());
                assert_eq!(db.router_stats().total(), decisions(tickets.len()), "{label}");
            }
            tickets.extend(db.submit_batch(&plans).unwrap());
            assert_eq!(db.router_stats().total(), decisions(tickets.len()), "{label}");
            for (t, expect) in tickets.into_iter().zip(expect.iter().cycle()) {
                assert_eq!(t.route().is_some(), routed, "{label}: route on the ticket");
                assert_eq!(canon(t.collect_rows().unwrap()), *expect, "{label}: rows");
            }
        }
    }

    /// An `Auto` batch builds all its reactive members before any of them
    /// starts. With no admission gate (load unknown) every non-star plan
    /// routes SP-SPL, so k identical plans share deterministically: each
    /// member after the first subscribes at the root stage.
    #[test]
    fn auto_batch_members_share_one_sp_window() {
        // SP registry lookups honor failpoints: serialize on the registry.
        let _guard = qs_storage::fault::test_guard();
        use qs_engine::reference::{canon, eval};
        use qs_plan::{AggFunc, AggSpec};
        let cat = tiny_ssb();
        let db = SharingDb::new(cat.clone(), DbConfig::new(ExecutionMode::Auto)).unwrap();
        let lo = cat.get("lineorder").unwrap();
        let plan = LogicalPlan::Aggregate {
            input: Box::new(LogicalPlan::Scan {
                table: "lineorder".into(),
                predicate: None,
                projection: None,
            }),
            group_by: vec![lo.schema().index_of("lo_quantity").unwrap()],
            aggs: vec![AggSpec::new(
                AggFunc::Sum(lo.schema().index_of("lo_revenue").unwrap()),
                "sum_rev",
            )],
        };
        let expect = canon(eval(&plan, &cat).unwrap());
        let k = 4;
        let tickets = db.submit_batch(&vec![plan.clone(); k]).unwrap();
        assert_eq!(db.metrics().sp_hits_for(StageKind::Aggregate), k as u64 - 1);
        for t in tickets {
            assert_eq!(t.route(), Some("SP-SPL"));
            assert_eq!(canon(t.collect_rows().unwrap()), expect);
        }

        // A star member between them starts Auto's CJOIN pipeline (it loads
        // every dimension) while the batch is being submitted; the
        // non-stars still share, since none starts before the last member.
        let db = SharingDb::new(cat.clone(), DbConfig::new(ExecutionMode::Auto)).unwrap();
        let star = open_star_plan(&db);
        let star_rows = canon(eval(&star, &cat).unwrap());
        let tickets = db.submit_batch(&[plan.clone(), star, plan]).unwrap();
        assert_eq!(db.metrics().sp_hits_for(StageKind::Aggregate), 1);
        let routes: Vec<_> = tickets.iter().map(|t| t.route().unwrap()).collect();
        assert_eq!(routes, ["SP-SPL", "GQP+SP", "SP-SPL"]);
        for (t, expect) in tickets.into_iter().zip([&expect, &star_rows, &expect]) {
            assert_eq!(canon(t.collect_rows().unwrap()), *expect);
        }
    }

    /// Satellite regression: a GQP-routed submission without a working
    /// pipeline must degrade to query-centric execution — this path used
    /// to be `expect("GQP mode has a pipeline")`.
    #[test]
    fn gqp_route_without_pipeline_degrades_to_query_centric() {
        let cat = tiny_ssb();
        let qc = SharingDb::new(cat.clone(), DbConfig::new(ExecutionMode::QueryCentric)).unwrap();

        // No build has failed yet, so the router picks the GQP route; a
        // spec naming a missing fact table then fails the lazy build, and
        // the submit path has to cope.
        let mut cfg = DbConfig::new(ExecutionMode::Auto);
        cfg.pipeline = Some(qs_cjoin::PipelineSpec::new("no_such_table", vec![]));
        let db = SharingDb::new(cat, cfg).unwrap();

        let plan = open_star_plan(&db);
        let expect = qc.submit(&plan).unwrap().drain().unwrap();
        let t = db.submit(&plan).unwrap();
        assert_eq!(t.route(), Some("GQP+SP"), "decision is still recorded");
        assert_eq!(t.drain().unwrap(), expect, "query-centric fallback ran");
        // The failed build is cached: no pipeline, stats stay absent, and
        // later stars route reactively.
        assert!(db.cjoin_stats().is_none());
        assert_eq!(db.submit(&plan).unwrap().route(), Some("SP-SPL"));
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

        // Two tickets share one admission: the batch's second member
        // subscribes to the first's.
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

    /// Sixteen SSB stars, slot `i` template `i mod 3` with variant
    /// `i mod 4`: twelve distinct CJOIN sub-plans and four duplicates.
    fn sixteen_stars(cat: &Catalog) -> Vec<LogicalPlan> {
        use qs_workload::ssb::queries::TemplateParams;
        use qs_workload::SsbTemplate;
        let templates = [SsbTemplate::Q2_1, SsbTemplate::Q3_2, SsbTemplate::Q4_1];
        (0..16u64)
            .map(|i| {
                let params = TemplateParams::variant(i % 4);
                templates[i as usize % 3].plan(cat, &params).unwrap()
            })
            .collect()
    }

    /// A batch's CJOIN members are admitted together: the whole batch
    /// reads the fact table once. Under GQP+SP it admits each distinct
    /// join signature once and its duplicates subscribe (SP hits at the
    /// CJOIN stage); under GQP every member is admitted. Under `Auto`, a
    /// batch mixing CJOIN and engine members returns its tickets in plan
    /// order. Every answer matches the oracle.
    #[test]
    fn batch_admits_its_stars_together_in_one_revolution() {
        // Runs CJOIN pipelines: serialize on the fault registry.
        let _guard = qs_storage::fault::test_guard();
        use qs_engine::reference::{canon, eval};
        let cat = tiny_ssb();
        let plans = sixteen_stars(&cat);
        let signatures: std::collections::HashSet<u64> = plans
            .iter()
            .map(|p| StarQuery::detect(p, &cat).unwrap().join_signature())
            .collect();
        let distinct = signatures.len() as u64;
        assert!(distinct < 16, "the batch has duplicates");
        let oracle = |plan: &LogicalPlan| canon(eval(plan, &cat).unwrap());
        let expect: Vec<_> = plans.iter().map(oracle).collect();
        let revolution = cat.get("lineorder").unwrap().page_count() as u64;
        for (mode, admissions) in [(ExecutionMode::GqpSp, distinct), (ExecutionMode::Gqp, 16)] {
            let label = mode.label();
            let db = SharingDb::new(cat.clone(), DbConfig::new(mode)).unwrap();
            let tickets = db.submit_batch(&plans).unwrap();
            for (t, expect) in tickets.into_iter().zip(&expect) {
                assert_eq!(canon(t.collect_rows().unwrap()), *expect, "{label}: rows");
            }
            let c = db.cjoin_stats().unwrap();
            assert_eq!(c.admissions, admissions, "{label}: admissions");
            let sp_hits = db.metrics().sp_hits_for(StageKind::Cjoin);
            assert_eq!(sp_hits, 16 - admissions, "{label}: CJOIN-stage SP hits");
            assert_eq!(c.fact_pages, revolution, "{label}: one revolution");
        }

        let db = SharingDb::new(cat.clone(), DbConfig::new(ExecutionMode::Auto)).unwrap();
        let mixed = [
            plans[0].clone(),
            date_scan(),
            plans[1].clone(),
            open_star_plan(&db),
            date_scan(),
            plans[2].clone(),
        ];
        let tickets = db.submit_batch(&mixed).unwrap();
        let routes: Vec<_> = tickets.iter().map(|t| t.route().unwrap()).collect();
        let (cjoin, engine) = ("GQP+SP", "SP-SPL");
        assert_eq!(routes, [cjoin, engine, cjoin, cjoin, engine, cjoin]);
        for (t, plan) in tickets.into_iter().zip(&mixed) {
            assert_eq!(canon(t.collect_rows().unwrap()), oracle(plan));
        }
        assert_eq!(db.cjoin_stats().unwrap().fact_pages, revolution);
    }

    /// A GQP+SP batch that CJOIN cannot admit fails as a whole, after one
    /// of its members took a lease on a live admission: the share registry
    /// is unlocked before that lease drops (`CjoinLease::drop` re-locks
    /// it), no slot stays claimed, and the live admission, its registry
    /// entry and later batches are unaffected.
    #[test]
    fn failed_batch_admission_leaves_the_share_registry_usable() {
        // Runs a CJOIN pipeline: serialize on the fault registry.
        let _guard = qs_storage::fault::test_guard();
        use qs_engine::reference::{canon, eval};
        let cat = tiny_ssb();
        let plans = sixteen_stars(&cat);
        let mut cfg = DbConfig::new(ExecutionMode::GqpSp);
        cfg.cores = 1;
        cfg.pipeline = Some(PipelineSpec {
            max_queries: 4,
            ..ssb_pipeline_spec(&cat).unwrap()
        });
        let db = SharingDb::new(cat.clone(), cfg).unwrap();
        let cjoin = db.active_cjoin().unwrap();
        // Holding the only core permit: the live admission cannot finish
        // (and drop out of the registry) during the checks.
        let (live, retry) = db.engine.ctx().governor.run(|| {
            let live = db.submit(&plans[0]).unwrap();
            // A hit on `live`, then four new stars for three free slots.
            let failed = db.submit_batch(&plans[..5]);
            assert!(
                matches!(&failed, Err(EngineError::Aborted(m)) if m.contains("saturated")),
                "{:?}",
                failed.map(|_| ())
            );
            assert_eq!(cjoin.free_slots(), 3, "the failed batch holds no slot");
            assert_eq!(cjoin.stats().admissions, 1);
            // The live admission is still published: a new batch hits it.
            let retry = db.submit_batch(&plans[..3]).unwrap();
            assert_eq!(cjoin.stats().admissions, 3);
            (live, retry)
        });
        assert_eq!(db.metrics().sp_hits_for(StageKind::Cjoin), 1);
        let tickets = [live].into_iter().chain(retry);
        for (t, plan) in tickets.zip(plans[..1].iter().chain(&plans[..3])) {
            let expect = canon(eval(plan, &cat).unwrap());
            assert_eq!(canon(t.collect_rows().unwrap()), expect);
        }
    }

    #[test]
    fn gqp_mode_requires_resolvable_pipeline() {
        // A catalog without SSB tables cannot build the default pipeline.
        let cat = Catalog::new();
        let err = SharingDb::new(cat, DbConfig::new(ExecutionMode::Gqp));
        assert!(err.is_err());
    }
}
