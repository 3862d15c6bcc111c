//! The three workloads. Each generates its data and statements from the
//! seed; then, for each engine instance of the run, builds the database,
//! warms it up, resets every counter and runs its share of a fixed number
//! of closed-loop rounds; and then checks the answers outside the timed
//! phase.

use crate::check::{self, AnswerLog, Row};
use crate::procfs;
use crate::stats::SplitMix;
use crate::trace::{Recorder, Span};
use qs_core::{DbConfig, ExecutionMode, SharingDb};
use qs_engine::{AdmissionConfig, QueryTicket, StageKind};
use qs_plan::LogicalPlan;
use qs_storage::{Catalog, DiskConfig};
use qs_workload::ssb::queries::TemplateParams;
use qs_workload::{generate_ssb, SsbConfig, SsbTemplate};
use std::collections::{HashMap, HashSet};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Command-line options of one run.
pub struct Opts {
    /// Seed of the data and of the statement stream.
    pub seed: u64,
    /// Nominal run length; the work of a run is proportional to it.
    pub seconds: u64,
    /// Record spans (the per-layer run).
    pub trace: bool,
}

/// What one run measured.
pub struct Run {
    /// Process start to the end of the (first) warm-up, seconds.
    pub setup_s: f64,
    /// The timed phase: one window per engine instance, in time order.
    pub windows: Vec<Window>,
    /// `VmHWM` right after the timed phase, MiB.
    pub peak_rss_mb: f64,
    /// Completion time and latency (ms) of every completed query.
    pub done: Vec<(Instant, f64)>,
    /// Queries attempted in the timed phase.
    pub attempted: u64,
    /// Queries that ended in an error.
    pub failed: u64,
    /// Failed output checks (empty = correct).
    pub problems: Vec<String>,
    /// Spans of the timed phase (traced runs only).
    pub spans: Vec<Span>,
    /// Queries covered by one `core.submit` span.
    pub queries_per_submit: f64,
    /// Counters read from the layers' public snapshots, by metric name.
    pub counters: Vec<(&'static str, f64)>,
}

/// The part of the timed phase one engine instance served.
pub struct Window {
    pub start: Instant,
    pub end: Instant,
    /// Sub-runs its completions are split into.
    pub sub_runs: usize,
}

// ---------------------------------------------------------------------
// Workload shapes. The timed phase is a fixed number of sub-runs, one per
// `SUB_RUN_SECONDS` of `--seconds`; a sub-run is a fixed number of rounds
// holding at least 1000 queries, which lasts 1-5 s on a 2-core host. The
// warm-up before each engine instance's share is one more sub-run's worth
// of rounds: it grows the engine's stage worker pools (which only grow) to
// near their size under the workload, so the timed phase does not drift
// as they grow.
// ---------------------------------------------------------------------

/// Nominal length of one sub-run.
const SUB_RUN_SECONDS: u64 = 4;

/// `star-batch-disk`: SSB scale, statements per batch, variants per
/// template, batches per sub-run.
const STAR_SCALE: f64 = 0.02;
const STAR_BATCH: usize = 16;
const STAR_TEMPLATES: [SsbTemplate; 3] = [SsbTemplate::Q2_1, SsbTemplate::Q3_2, SsbTemplate::Q4_1];
const STAR_VARIANTS: usize = 16;
const STAR_BATCHES_PER_SUB_RUN: usize = 63;

/// `selective-spl-memory`: SSB scale, fact selectivity, clients, queries
/// per client per sub-run.
const SPL_SCALE: f64 = 0.02;
const SPL_SELECTIVITY: f64 = 0.01;
const SPL_CLIENTS: usize = 2;
const SPL_QUERIES_PER_SUB_RUN: usize = 500;

/// `sql-wire-auto`: SSB scale, page size (as `qs_server` sets it),
/// connections, variants per template, rounds of all 13 templates per
/// connection per sub-run.
const WIRE_SCALE: f64 = 0.01;
const WIRE_PAGE_BYTES: usize = 16 * 1024;
const WIRE_CLIENTS: usize = 2;
const WIRE_VARIANTS: usize = 32;
const WIRE_ROUNDS_PER_SUB_RUN: usize = 39;

/// Sub-runs of a run of `--seconds`.
fn sub_runs(opts: &Opts) -> usize {
    opts.seconds.div_ceil(SUB_RUN_SECONDS) as usize
}

/// Fresh engine instances an untraced run spreads its timed sub-runs over
/// (a traced run uses one, so its counters cover the whole timed phase).
/// The system CPU time per query of an engine instance is drawn anew with
/// each instance (1 to 5 ms on `star-batch-disk`, see the README) and
/// holds for its life, so a run over three instances averages three draws
/// instead of reporting one.
const INSTANCES: usize = 3;

/// Timed sub-runs of each engine instance of a run: an even share, the
/// larger shares first.
fn instance_shares(opts: &Opts) -> Vec<usize> {
    let total = sub_runs(opts);
    let k = if opts.trace { 1 } else { INSTANCES.min(total) };
    (0..k).map(|i| (total + k - 1 - i) / k).collect()
}

fn ssb_catalog(scale: f64, seed: u64, page_bytes: usize) -> Arc<Catalog> {
    let catalog = Catalog::new();
    generate_ssb(
        &catalog,
        &SsbConfig {
            scale,
            seed,
            page_bytes,
            ..Default::default()
        },
    );
    catalog
}

// ---------------------------------------------------------------------
// Statements
// ---------------------------------------------------------------------

/// One distinct statement: the SQL text the program receives, and the
/// template parameters the oracle rebuilds its plan from.
struct Stmt {
    template: SsbTemplate,
    params: TemplateParams,
    sql: String,
}

/// Distinct statements, deduplicated by SQL text.
#[derive(Default)]
struct Statements {
    list: Vec<Stmt>,
    index: HashMap<String, usize>,
}

impl Statements {
    fn add(
        &mut self,
        catalog: &Catalog,
        template: SsbTemplate,
        params: TemplateParams,
    ) -> Result<usize, String> {
        let sql = template
            .sql(catalog, &params)
            .map_err(|e| format!("{} SQL: {e}", template.name()))?;
        let next = self.list.len();
        let i = *self.index.entry(sql.clone()).or_insert(next);
        if i == next {
            self.list.push(Stmt {
                template,
                params,
                sql,
            });
        }
        Ok(i)
    }

    fn len(&self) -> usize {
        self.list.len()
    }

    fn oracle(&self, catalog: &Catalog, i: usize) -> Result<Vec<Row>, String> {
        let s = &self.list[i];
        let plan = s
            .template
            .plan(catalog, &s.params)
            .map_err(|e| format!("oracle plan for {}: {e}", s.sql))?;
        qs_engine::reference::eval(&plan, catalog).map_err(|e| format!("oracle for {}: {e}", s.sql))
    }

    /// Compare the first answer to every statement with the oracle.
    fn check_in_process(
        &self,
        catalog: &Catalog,
        log: &AnswerLog<Row>,
        problems: &mut Vec<String>,
    ) {
        for (i, rows) in log.firsts() {
            match self.oracle(catalog, i) {
                Ok(want) => {
                    if let Err(e) = check::rows_match(rows, &want) {
                        problems.push(format!("{}: {e}", self.list[i].sql));
                    }
                }
                Err(e) => problems.push(e),
            }
        }
    }

    /// The same over `ROW` payloads.
    fn check_wire(&self, catalog: &Catalog, log: &AnswerLog<String>, problems: &mut Vec<String>) {
        for (i, rows) in log.firsts() {
            match self.oracle(catalog, i) {
                Ok(want) => {
                    let mut got = rows.to_vec();
                    got.sort();
                    let want = check::wire_rows(&want);
                    if got != want {
                        problems.push(format!(
                            "{}: {} rows over the wire, oracle has {} (or they differ)",
                            self.list[i].sql,
                            got.len(),
                            want.len()
                        ));
                    }
                }
                Err(e) => problems.push(e),
            }
        }
    }
}

// ---------------------------------------------------------------------
// One client's bookkeeping and the in-process query path
// ---------------------------------------------------------------------

struct Client<R> {
    rec: Recorder,
    done: Vec<(Instant, f64)>,
    failed: u64,
    log: AnswerLog<R>,
}

impl<R: check::Answer> Client<R> {
    fn new(opts: &Opts, epoch: Instant, thread: u64, statements: usize) -> Self {
        Client {
            rec: Recorder::new(opts.trace, epoch, thread),
            done: Vec::new(),
            failed: 0,
            log: AnswerLog::new(statements),
        }
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// SQL text to an optimized plan: exactly what `SharingDb::plan_sql`
/// does, in two timed calls.
fn plan_stmt(
    catalog: &Catalog,
    sql: &str,
    rec: &mut Recorder,
    req: u64,
) -> Result<LogicalPlan, String> {
    let t0 = Instant::now();
    let plan = qs_sql::plan_sql(sql, catalog).map_err(|e| e.to_string());
    let t1 = Instant::now();
    rec.leaf(req, req, "sql.plan_sql", t0, t1);
    let plan = qs_plan::optimize(plan?, catalog).map_err(|e| e.to_string());
    rec.leaf(req, req, "plan.optimize", t1, Instant::now());
    plan
}

/// Drain a ticket, decoding its rows. `engine.first_batch` runs from
/// `wait_from` (when the client starts waiting on this ticket) to the
/// first batch, `engine.drain` from there to the end of the stream.
fn drain_ticket(
    mut ticket: QueryTicket,
    wait_from: Instant,
    rec: &mut Recorder,
    req: u64,
) -> Result<Vec<Row>, String> {
    let mut rows = Vec::new();
    let mut first: Option<Instant> = None;
    loop {
        let batch = ticket.next_batch().map_err(|e| e.to_string())?;
        if first.is_none() {
            let t = Instant::now();
            rec.leaf(req, req, "engine.first_batch", wait_from, t);
            first = Some(t);
        }
        let Some(batch) = batch else { break };
        let page = batch.page();
        let ncols = page.schema().columns().len();
        for &t in batch.sel() {
            rows.push((0..ncols).map(|c| page.value(t as usize, c)).collect());
        }
    }
    rec.leaf(
        req,
        req,
        "engine.drain",
        first.unwrap_or(wait_from),
        Instant::now(),
    );
    Ok(rows)
}

/// Counters of every layer, read after the timed phase.
fn layer_counters(db: &SharingDb, completed: u64) -> Vec<(&'static str, f64)> {
    let m = db.metrics();
    let qpipe = || {
        qs_engine::ALL_STAGES
            .into_iter()
            .filter(|&s| s != StageKind::Cjoin)
    };
    let sp_hits: u64 = qpipe().map(|s| m.sp_hits[s as usize]).sum();
    let sp_misses: u64 = qpipe().map(|s| m.sp_misses[s as usize]).sum();
    let c = db.cjoin_stats().unwrap_or_default();
    let cjoin_hits = m.sp_hits_for(StageKind::Cjoin);
    let r = db.router_stats();
    let pool = db.pool().stats();
    let disk = db.pool().disk().stats();
    let ratio = |a: u64, b: u64| crate::stats::ratio(a as f64, b as f64);
    vec![
        ("core.routes.qc", r.query_centric as f64),
        ("core.routes.spl", r.sp_pull as f64),
        ("core.routes.gqp", r.gqp_sp as f64),
        ("engine.busy_ms", m.busy_nanos as f64 / 1e6),
        ("engine.rows_scanned", m.rows_scanned as f64),
        ("engine.rows_joined", m.rows_joined as f64),
        ("engine.packets", m.packets.iter().sum::<u64>() as f64),
        ("engine.pool_tasks", m.pool_tasks as f64),
        ("engine.pool_steals", m.pool_steals as f64),
        ("engine.sp_hits", sp_hits as f64),
        ("engine.sp_misses", sp_misses as f64),
        ("engine.sp_hit_ratio", ratio(sp_hits, sp_hits + sp_misses)),
        ("engine.pages_shared", m.pages_shared as f64),
        ("engine.pages_copied", m.pages_copied as f64),
        ("cjoin.admissions", c.admissions as f64),
        ("cjoin.sp_hits", cjoin_hits as f64),
        (
            "cjoin.share_ratio",
            ratio(cjoin_hits, c.admissions + cjoin_hits),
        ),
        ("cjoin.admission_evals", c.admission_evals as f64),
        (
            "cjoin.admission_evals_per_admission",
            ratio(c.admission_evals, c.admissions),
        ),
        ("cjoin.admission_dedup_hits", c.admission_dedup_hits as f64),
        ("cjoin.fact_pages", c.fact_pages as f64),
        ("cjoin.fact_pages_per_query", ratio(c.fact_pages, completed)),
        ("cjoin.tuples_in", c.tuples_in as f64),
        ("cjoin.tuples_dropped", c.tuples_dropped as f64),
        (
            "cjoin.rows_out_per_tuple_in",
            ratio(c.rows_out, c.tuples_in),
        ),
        ("storage.pool.hits", pool.hits as f64),
        ("storage.pool.misses", pool.misses as f64),
        ("storage.pool.evictions", pool.evictions as f64),
        ("storage.pool.hit_ratio", pool.hit_ratio()),
        ("storage.disk.reads", disk.reads as f64),
        ("storage.disk.wait_ms", disk.busy_nanos as f64 / 1e6),
    ]
}

// ---------------------------------------------------------------------
// star-batch-disk
// ---------------------------------------------------------------------

/// GQP+SP on a disk-resident database: one client submits batches of 16
/// Q2.1/Q3.2/Q4.1 statements and drains each batch before the next.
pub fn star_batch_disk(opts: &Opts, started: Instant) -> Result<Run, String> {
    let catalog = ssb_catalog(STAR_SCALE, opts.seed, qs_storage::DEFAULT_PAGE_BYTES);
    let new_db = || {
        SharingDb::new(
            catalog.clone(),
            DbConfig {
                disk: DiskConfig::disk_resident(),
                // As the scenario harness does: the pool holds a quarter of
                // the data, so the fact scan keeps reading from disk.
                buffer_pool_pages: Some((catalog.total_pages() / 4).max(8)),
                ..DbConfig::new(ExecutionMode::GqpSp)
            },
        )
        .map_err(|e| e.to_string())
    };

    let mut g = SplitMix::new(opts.seed, 1);
    let mut stmts = Statements::default();
    let mut space = Vec::new();
    for t in STAR_TEMPLATES {
        let variants = (0..STAR_VARIANTS)
            .map(|_| stmts.add(&catalog, t, TemplateParams::variant(g.next_u64())))
            .collect::<Result<Vec<_>, _>>()?;
        space.push(variants);
    }
    // Slot i of every batch holds template i % 3, with a random variant.
    let draw = |g: &mut SplitMix| -> Vec<usize> {
        (0..STAR_BATCH)
            .map(|i| {
                let v = &space[i % space.len()];
                v[g.below(v.len() as u64) as usize]
            })
            .collect()
    };
    let warmup: Vec<Vec<usize>> = (0..STAR_BATCHES_PER_SUB_RUN)
        .map(|_| draw(&mut g))
        .collect();
    let batches: Vec<Vec<usize>> = (0..sub_runs(opts) * STAR_BATCHES_PER_SUB_RUN)
        .map(|_| draw(&mut g))
        .collect();

    // Each engine instance gets the same warm-up and its share of the
    // timed batches.
    let epoch = Instant::now();
    let mut client = Client::new(opts, epoch, 1, stmts.len());
    let mut setup_s = 0.0;
    let mut windows = Vec::new();
    let mut counters = Vec::new();
    let mut problems = Vec::new();
    let mut rest = &batches[..];
    for (i, share) in instance_shares(opts).into_iter().enumerate() {
        let (chunk, tail) = rest.split_at(share * STAR_BATCHES_PER_SUB_RUN);
        rest = tail;

        let db = new_db()?;
        let mut scratch = Client::new(opts, epoch, 0, stmts.len());
        for b in &warmup {
            run_star_batch(&db, &catalog, &stmts, b, &mut scratch);
        }
        if scratch.failed > 0 {
            return Err(format!("{} warm-up queries failed", scratch.failed));
        }
        db.reset_metrics();
        if i == 0 {
            setup_s = started.elapsed().as_secs_f64();
        }

        let failed_before = client.failed;
        let start = Instant::now();
        for b in chunk {
            run_star_batch(&db, &catalog, &stmts, b, &mut client);
        }
        windows.push(Window {
            start,
            end: Instant::now(),
            sub_runs: share,
        });

        let attempted = (chunk.len() * STAR_BATCH) as u64;
        let failed = client.failed - failed_before;
        counters = layer_counters(&db, attempted - failed);
        let count = |name| {
            counters
                .iter()
                .find(|(n, _)| *n == name)
                .map_or(0, |(_, v)| *v as u64)
        };
        let distinct: u64 = chunk
            .iter()
            .map(|b| b.iter().collect::<HashSet<_>>().len() as u64)
            .sum();
        if failed == 0 {
            if let Err(e) = check::cjoin_conservation(
                count("cjoin.admissions"),
                count("cjoin.sp_hits"),
                attempted,
                distinct,
            ) {
                problems.push(e);
            }
        }
    }
    let peak_rss_mb = procfs::peak_rss_mb();
    stmts.check_in_process(&catalog, &client.log, &mut problems);
    client.log.check_repeats(&mut problems);

    Ok(Run {
        setup_s,
        windows,
        peak_rss_mb,
        done: client.done,
        attempted: (batches.len() * STAR_BATCH) as u64,
        failed: client.failed,
        problems,
        spans: client.rec.into_spans(),
        queries_per_submit: STAR_BATCH as f64,
        counters,
    })
}

/// Plan, submit and drain one batch. Latency runs from the batch's
/// `submit_batch` call to each query's last row.
fn run_star_batch(
    db: &SharingDb,
    catalog: &Catalog,
    stmts: &Statements,
    picks: &[usize],
    client: &mut Client<Row>,
) {
    let rec = &mut client.rec;
    let batch = rec.id();
    let b0 = Instant::now();
    let mut plans = Vec::with_capacity(picks.len());
    let mut reqs = Vec::with_capacity(picks.len());
    for &s in picks {
        let req = rec.id();
        let p0 = Instant::now();
        match plan_stmt(catalog, &stmts.list[s].sql, rec, req) {
            Ok(p) => {
                plans.push(p);
                reqs.push((req, p0, s));
            }
            Err(_) => client.failed += 1,
        }
    }
    let s0 = Instant::now();
    let tickets = db.submit_batch(&plans);
    let s1 = Instant::now();
    rec.leaf(batch, batch, "core.submit", s0, s1);
    match tickets {
        Err(_) => client.failed += plans.len() as u64,
        Ok(tickets) => {
            let mut wait_from = s1;
            for (ticket, (req, p0, s)) in tickets.into_iter().zip(reqs) {
                let rows = drain_ticket(ticket, wait_from, rec, req);
                let end = Instant::now();
                match rows {
                    Ok(rows) => {
                        client.done.push((end, ms(end - s0)));
                        client.log.record(s, rows);
                    }
                    Err(_) => client.failed += 1,
                }
                rec.span(req, batch, req, "request", p0, end);
                wait_from = end;
            }
        }
    }
    rec.span(batch, 0, batch, "batch", b0, Instant::now());
}

// ---------------------------------------------------------------------
// selective-spl-memory
// ---------------------------------------------------------------------

/// SP-SPL on a memory-resident database: two clients, each keeping one
/// selective Q1.1 in flight, parameters from a wide space.
pub fn selective_spl_memory(opts: &Opts, started: Instant) -> Result<Run, String> {
    let catalog = ssb_catalog(SPL_SCALE, opts.seed, qs_storage::DEFAULT_PAGE_BYTES);

    let per_client = sub_runs(opts) * SPL_QUERIES_PER_SUB_RUN;
    let mut stmts = Statements::default();
    let mut streams: Vec<Vec<usize>> = Vec::new();
    for c in 0..SPL_CLIENTS {
        let mut g = SplitMix::new(opts.seed, 100 + c as u64);
        let stream = (0..SPL_QUERIES_PER_SUB_RUN + per_client)
            .map(|_| {
                let params = TemplateParams {
                    variant: g.next_u64(),
                    selectivity: Some(SPL_SELECTIVITY),
                };
                stmts.add(&catalog, SsbTemplate::Q1_1, params)
            })
            .collect::<Result<Vec<_>, _>>()?;
        streams.push(stream);
    }

    // Each engine instance gets the same warm-up and its share of every
    // client's timed stream.
    let epoch = Instant::now();
    let (warm, mut rest): (Vec<&[usize]>, Vec<&[usize]>) = streams
        .iter()
        .map(|s| s.split_at(SPL_QUERIES_PER_SUB_RUN))
        .unzip();
    let mut setup_s = 0.0;
    let mut windows = Vec::new();
    let mut clients = Vec::new();
    let mut counters = Vec::new();
    for (i, share) in instance_shares(opts).into_iter().enumerate() {
        let (timed, tail): (Vec<&[usize]>, Vec<&[usize]>) = rest
            .iter()
            .map(|s| s.split_at(share * SPL_QUERIES_PER_SUB_RUN))
            .unzip();
        rest = tail;

        let db = SharingDb::new(catalog.clone(), DbConfig::new(ExecutionMode::SpPull))
            .map_err(|e| e.to_string())?;
        let warm_failed: u64 = run_clients(opts, epoch, &db, &catalog, &stmts, &warm)
            .iter()
            .map(|c| c.failed)
            .sum();
        if warm_failed > 0 {
            return Err(format!("{warm_failed} warm-up queries failed"));
        }
        db.reset_metrics();
        if i == 0 {
            setup_s = started.elapsed().as_secs_f64();
        }

        let start = Instant::now();
        let timed_clients = run_clients(opts, epoch, &db, &catalog, &stmts, &timed);
        windows.push(Window {
            start,
            end: Instant::now(),
            sub_runs: share,
        });
        let attempted = (SPL_CLIENTS * share * SPL_QUERIES_PER_SUB_RUN) as u64;
        let failed: u64 = timed_clients.iter().map(|c| c.failed).sum();
        counters = layer_counters(&db, attempted - failed);
        clients.extend(timed_clients);
    }
    let peak_rss_mb = procfs::peak_rss_mb();

    let attempted = (SPL_CLIENTS * per_client) as u64;
    let run = merge_clients(clients, stmts.len(), |log, problems| {
        stmts.check_in_process(&catalog, log, problems);
    });
    Ok(Run {
        setup_s,
        windows,
        peak_rss_mb,
        attempted,
        queries_per_submit: 1.0,
        counters,
        ..run
    })
}

/// Run one closed-loop client per stream on its own thread.
fn run_clients(
    opts: &Opts,
    epoch: Instant,
    db: &SharingDb,
    catalog: &Catalog,
    stmts: &Statements,
    streams: &[&[usize]],
) -> Vec<Client<Row>> {
    std::thread::scope(|s| {
        let handles: Vec<_> = streams
            .iter()
            .enumerate()
            .map(|(c, stream)| {
                s.spawn(move || {
                    let mut client = Client::new(opts, epoch, 2 + c as u64, stmts.len());
                    for &q in stream.iter() {
                        run_one(db, catalog, stmts, q, &mut client);
                    }
                    client
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    })
}

/// Plan, submit and drain one statement. Latency runs from the start of
/// planning (the `submit_sql` call) to the last row.
fn run_one(
    db: &SharingDb,
    catalog: &Catalog,
    stmts: &Statements,
    s: usize,
    client: &mut Client<Row>,
) {
    let rec = &mut client.rec;
    let req = rec.id();
    let p0 = Instant::now();
    let result = plan_stmt(catalog, &stmts.list[s].sql, rec, req).and_then(|plan| {
        let s0 = Instant::now();
        let ticket = db.submit(&plan);
        let s1 = Instant::now();
        rec.leaf(req, req, "core.submit", s0, s1);
        drain_ticket(ticket.map_err(|e| e.to_string())?, s1, rec, req)
    });
    let end = Instant::now();
    rec.span(req, 0, req, "request", p0, end);
    match result {
        Ok(rows) => {
            client.done.push((end, ms(end - p0)));
            client.log.record(s, rows);
        }
        Err(_) => client.failed += 1,
    }
}

/// Fold the clients of a multi-client workload into one [`Run`] (phase
/// timings and counters are filled in by the caller), checking answers.
fn merge_clients<R: check::Answer>(
    clients: Vec<Client<R>>,
    statements: usize,
    oracle: impl FnOnce(&AnswerLog<R>, &mut Vec<String>),
) -> Run {
    let mut log = AnswerLog::new(statements);
    let mut run = Run {
        setup_s: 0.0,
        windows: Vec::new(),
        peak_rss_mb: 0.0,
        done: Vec::new(),
        attempted: 0,
        failed: 0,
        problems: Vec::new(),
        spans: Vec::new(),
        queries_per_submit: 1.0,
        counters: Vec::new(),
    };
    for c in clients {
        run.done.extend(c.done);
        run.failed += c.failed;
        run.spans.extend(c.rec.into_spans());
        log.merge(c.log);
    }
    oracle(&log, &mut run.problems);
    log.check_repeats(&mut run.problems);
    run
}

// ---------------------------------------------------------------------
// sql-wire-auto
// ---------------------------------------------------------------------

/// One protocol connection and what it saw.
struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    line: String,
    ends: u64,
    rows_framed: u64,
    exec_ms: Vec<f64>,
    overhead_ms: Vec<f64>,
}

impl Conn {
    fn connect(addr: std::net::SocketAddr) -> Result<Conn, String> {
        let writer = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
        writer
            .set_read_timeout(Some(Duration::from_secs(60)))
            .map_err(|e| e.to_string())?;
        writer.set_nodelay(true).map_err(|e| e.to_string())?;
        let reader = BufReader::new(writer.try_clone().map_err(|e| e.to_string())?);
        Ok(Conn {
            writer,
            reader,
            line: String::new(),
            ends: 0,
            rows_framed: 0,
            exec_ms: Vec::new(),
            overhead_ms: Vec::new(),
        })
    }

    /// Forget what the warm-up counted.
    fn reset(&mut self) {
        self.ends = 0;
        self.rows_framed = 0;
        self.exec_ms.clear();
        self.overhead_ms.clear();
    }

    fn frame(&mut self) -> Result<&str, String> {
        self.line.clear();
        match self.reader.read_line(&mut self.line) {
            Ok(0) => Err("server closed the connection".into()),
            Ok(_) => Ok(self.line.trim_end()),
            Err(e) => Err(format!("read: {e}")),
        }
    }
}

/// An in-process `qs_server` in AUTO mode behind the admission gate the
/// server binary sets by default; two connections each keep one SQL
/// statement in flight over all 13 SSB templates.
pub fn sql_wire_auto(opts: &Opts, started: Instant) -> Result<Run, String> {
    let catalog = ssb_catalog(WIRE_SCALE, opts.seed, WIRE_PAGE_BYTES);

    let mut g = SplitMix::new(opts.seed, 200);
    let mut stmts = Statements::default();
    let mut space = Vec::new();
    for t in SsbTemplate::all() {
        let variants = (0..WIRE_VARIANTS)
            .map(|_| stmts.add(&catalog, t, TemplateParams::variant(g.next_u64())))
            .collect::<Result<Vec<_>, _>>()?;
        space.push(variants);
    }
    // A round sends every template once, in a random order, each with a
    // random variant.
    let per_client = sub_runs(opts) * WIRE_ROUNDS_PER_SUB_RUN;
    let streams: Vec<Vec<usize>> = (0..WIRE_CLIENTS)
        .map(|_| {
            (0..WIRE_ROUNDS_PER_SUB_RUN + per_client)
                .flat_map(|_| {
                    let mut round: Vec<usize> = space
                        .iter()
                        .map(|v| v[g.below(v.len() as u64) as usize])
                        .collect();
                    g.shuffle(&mut round);
                    round
                })
                .collect()
        })
        .collect();

    // Each engine instance, with its own server and connections, gets the
    // same warm-up and its share of every connection's timed stream.
    let epoch = Instant::now();
    let per_round = space.len();
    let sub_run_len = WIRE_ROUNDS_PER_SUB_RUN * per_round;
    let (warm, mut rest): (Vec<&[usize]>, Vec<&[usize]>) =
        streams.iter().map(|s| s.split_at(sub_run_len)).unzip();
    let mut setup_s = 0.0;
    let mut windows = Vec::new();
    let mut clients = Vec::new();
    let mut counters = Vec::new();
    let mut problems = Vec::new();
    for (i, share) in instance_shares(opts).into_iter().enumerate() {
        let (timed, tail): (Vec<&[usize]>, Vec<&[usize]>) =
            rest.iter().map(|s| s.split_at(share * sub_run_len)).unzip();
        rest = tail;

        let db = Arc::new(
            SharingDb::new(
                catalog.clone(),
                DbConfig {
                    admission: Some(AdmissionConfig {
                        max_concurrent: 64,
                        max_queued: 128,
                        queue_timeout: Duration::from_millis(500),
                    }),
                    ..DbConfig::new(ExecutionMode::Auto)
                },
            )
            .map_err(|e| e.to_string())?,
        );
        let server =
            qs_server::serve(db.clone(), "127.0.0.1:0").map_err(|e| format!("serve: {e}"))?;
        let mut conns = (0..WIRE_CLIENTS)
            .map(|_| Conn::connect(server.addr()))
            .collect::<Result<Vec<_>, _>>()?;
        let warm_clients = run_wire_clients(opts, epoch, &catalog, &stmts, &mut conns, &warm);
        let warm_failed: u64 = warm_clients.iter().map(|c| c.failed).sum();
        if warm_failed > 0 {
            return Err(format!("{warm_failed} warm-up requests failed"));
        }
        conns.iter_mut().for_each(Conn::reset);
        db.reset_metrics();
        // A connection serves its requests in order and counts each one
        // after its `END` frame is written; a ping answered on every
        // connection means the counts are settled.
        sync(&mut conns)?;
        let before = server.stats();
        if i == 0 {
            setup_s = started.elapsed().as_secs_f64();
        }

        let start = Instant::now();
        let timed_clients = run_wire_clients(opts, epoch, &catalog, &stmts, &mut conns, &timed);
        windows.push(Window {
            start,
            end: Instant::now(),
            sub_runs: share,
        });
        sync(&mut conns)?;
        let after = server.stats();

        let ends: u64 = conns.iter().map(|c| c.ends).sum();
        let served = after.completed - before.completed;
        if served != ends {
            problems.push(format!(
                "server completed {served} requests, the clients counted {ends} END frames"
            ));
        }
        let gather = |f: fn(&Conn) -> &Vec<f64>| -> Vec<f64> {
            conns.iter().flat_map(|c| f(c).iter().copied()).collect()
        };
        let attempted = (WIRE_CLIENTS * share * sub_run_len) as u64;
        let failed: u64 = timed_clients.iter().map(|c| c.failed).sum();
        counters = layer_counters(&db, attempted - failed);
        counters.extend([
            (
                "server.exec_ms",
                crate::stats::median(&gather(|c| &c.exec_ms)),
            ),
            (
                "server.overhead_ms",
                crate::stats::median(&gather(|c| &c.overhead_ms)),
            ),
            (
                "server.rows_framed",
                conns.iter().map(|c| c.rows_framed).sum::<u64>() as f64,
            ),
        ]);
        clients.extend(timed_clients);

        for c in &mut conns {
            let _ = c.writer.write_all(b".quit\n");
            let _ = c.frame();
        }
        drop(conns);
        server.shutdown();
    }
    let peak_rss_mb = procfs::peak_rss_mb();

    let attempted = (WIRE_CLIENTS * per_client * per_round) as u64;
    let mut run = merge_clients(clients, stmts.len(), |log, problems| {
        stmts.check_wire(&catalog, log, problems);
    });
    run.problems.extend(problems);
    Ok(Run {
        setup_s,
        windows,
        peak_rss_mb,
        attempted,
        queries_per_submit: 1.0,
        counters,
        ..run
    })
}

/// Ping every connection and wait for the answers.
fn sync(conns: &mut [Conn]) -> Result<(), String> {
    for c in conns {
        c.writer
            .write_all(b".ping\n")
            .map_err(|e| format!("send: {e}"))?;
        let pong = c.frame()?;
        if pong != "PONG" {
            return Err(format!("expected PONG, got {pong}"));
        }
    }
    Ok(())
}

/// One answered request, with the arrival times of its frames.
struct Reply {
    rows: Vec<String>,
    schema_at: Instant,
    first_row_at: Option<Instant>,
    end_at: Instant,
    exec_ms: f64,
}

impl Conn {
    /// Send one statement and read frames up to `END` (or `ERR`).
    fn request(&mut self, sql: &str) -> Result<Reply, String> {
        self.writer
            .write_all(format!("{sql}\n").as_bytes())
            .map_err(|e| format!("send: {e}"))?;
        let mut rows = Vec::new();
        let mut schema_at = None;
        let mut first_row_at = None;
        loop {
            let frame = self.frame()?;
            let now = Instant::now();
            if let Some(row) = frame.strip_prefix("ROW ") {
                first_row_at.get_or_insert(now);
                rows.push(row.to_string());
            } else if frame.starts_with("SCHEMA ") {
                schema_at = Some(now);
            } else if let Some(end) = frame.strip_prefix("END ") {
                let micros: f64 = end
                    .split(' ')
                    .nth(1)
                    .and_then(|m| m.parse().ok())
                    .ok_or_else(|| format!("bad END frame: {end}"))?;
                self.ends += 1;
                self.rows_framed += rows.len() as u64;
                return Ok(Reply {
                    rows,
                    schema_at: schema_at.unwrap_or(now),
                    first_row_at,
                    end_at: now,
                    exec_ms: micros / 1e3,
                });
            } else {
                return Err(frame.to_string());
            }
        }
    }
}

/// Run one closed-loop client per connection on its own thread.
fn run_wire_clients(
    opts: &Opts,
    epoch: Instant,
    catalog: &Catalog,
    stmts: &Statements,
    conns: &mut [Conn],
    streams: &[&[usize]],
) -> Vec<Client<String>> {
    std::thread::scope(|s| {
        let handles: Vec<_> = conns
            .iter_mut()
            .zip(streams)
            .enumerate()
            .map(|(c, (conn, stream))| {
                s.spawn(move || {
                    let mut client = Client::new(opts, epoch, 10 + c as u64, stmts.len());
                    for &q in stream.iter() {
                        wire_one(conn, catalog, stmts, q, opts.trace, &mut client);
                    }
                    client
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    })
}

/// Send one statement over the wire. Latency runs from the send to the
/// `END` frame. A traced run first times the front end on the client.
fn wire_one(
    conn: &mut Conn,
    catalog: &Catalog,
    stmts: &Statements,
    s: usize,
    trace: bool,
    client: &mut Client<String>,
) {
    let rec = &mut client.rec;
    let req = rec.id();
    let p0 = Instant::now();
    let sql = &stmts.list[s].sql;
    if trace {
        let _ = plan_stmt(catalog, sql, rec, req);
    }
    let roundtrip = rec.id();
    let sent = Instant::now();
    let reply = conn.request(sql);
    let end = Instant::now();
    match reply {
        Ok(r) => {
            let first = r.first_row_at.unwrap_or(r.end_at);
            rec.leaf(roundtrip, req, "engine.first_batch", r.schema_at, first);
            rec.leaf(roundtrip, req, "engine.drain", first, r.end_at);
            let latency = ms(r.end_at - sent);
            conn.exec_ms.push(r.exec_ms);
            conn.overhead_ms.push(latency - r.exec_ms);
            client.done.push((r.end_at, latency));
            client.log.record(s, r.rows);
        }
        Err(_) => client.failed += 1,
    }
    rec.span(roundtrip, req, req, "server.roundtrip", sent, end);
    rec.span(req, 0, req, "request", p0, end);
}

#[cfg(test)]
mod tests {
    use super::*;
    use qs_storage::Value;

    /// The oracle check accepts what the engine answers for generated SQL
    /// and rejects the same answer with one value perturbed.
    #[test]
    fn oracle_accepts_engine_answers_and_rejects_a_perturbed_row() {
        let catalog = ssb_catalog(0.002, 9, qs_storage::DEFAULT_PAGE_BYTES);
        let db = SharingDb::new(catalog.clone(), DbConfig::new(ExecutionMode::GqpSp)).unwrap();
        let mut stmts = Statements::default();
        let q = stmts
            .add(&catalog, SsbTemplate::Q4_1, TemplateParams::variant(3))
            .unwrap();
        let epoch = Instant::now();
        let mut rec = Recorder::new(false, epoch, 0);
        let plan = plan_stmt(&catalog, &stmts.list[q].sql, &mut rec, 1).unwrap();
        let rows = drain_ticket(db.submit(&plan).unwrap(), epoch, &mut rec, 1).unwrap();
        assert!(!rows.is_empty());

        let mut log = AnswerLog::new(stmts.len());
        log.record(q, rows.clone());
        let mut problems = Vec::new();
        stmts.check_in_process(&catalog, &log, &mut problems);
        assert!(problems.is_empty(), "{problems:?}");

        let mut bad = rows;
        let last = bad[0].len() - 1;
        bad[0][last] = match &bad[0][last] {
            Value::Int(v) => Value::Int(v + 1),
            other => panic!("revenue should be an integer, got {other:?}"),
        };
        let mut log = AnswerLog::new(stmts.len());
        log.record(q, bad);
        stmts.check_in_process(&catalog, &log, &mut problems);
        assert_eq!(problems.len(), 1, "{problems:?}");
    }
}
