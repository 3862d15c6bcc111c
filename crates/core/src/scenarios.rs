//! The demo's four interactive scenarios as reproducible experiments.
//!
//! Each function sets up the workload and system exactly as §4.3/§4.4 of
//! the paper describes, sweeps the scenario's x-axis, and returns the
//! series the demo GUI plots. The `qs-bench` scenario binaries print these
//! rows; EXPERIMENTS.md records representative runs.

use crate::db::{DbConfig, ExecutionMode, SharingDb};
use crate::driver::{run_response_time, run_throughput, DriverConfig};
use qs_engine::{EngineError, ShareMode, SharingPolicy, StageKind};
use qs_storage::{Catalog, DiskConfig, PageLayout};
use qs_workload::ssb::data::{generate_ssb, SsbConfig};
use qs_workload::ssb::queries::TemplateParams;
use qs_workload::{generate_lineitem, tpch_q1_plan, SsbTemplate, TpchConfig, WorkloadKnobs};
use serde::{Deserialize, Serialize};
use std::sync::Arc;
use std::time::Duration;

// ---------------------------------------------------------------------
// Scenario I — push-based vs pull-based SP (paper §4.3, Figures 3a & 4)
// ---------------------------------------------------------------------

/// Scenario I configuration.
#[derive(Debug, Clone)]
pub struct Scenario1Config {
    /// `lineitem` scale factor.
    pub scale: f64,
    /// Concurrency sweep (identical TPC-H Q1 instances per point).
    pub clients: Vec<usize>,
    /// "Bind server to N cores" (0 = unlimited).
    pub cores: usize,
    /// Morsel worker-pool size (`1` = single-threaded).
    pub workers: usize,
    /// Disk-resident database? (memory-resident otherwise)
    pub disk_resident: bool,
    /// Buffer-pool frames for the disk-resident case.
    pub buffer_pool_pages: Option<usize>,
    /// Dataset seed.
    pub seed: u64,
    /// Page layout of the generated tables.
    pub layout: PageLayout,
    /// Pin the sweep to one execution mode (the bins' `--mode` flag);
    /// `None` runs the scenario's default configurations.
    pub mode_override: Option<ExecutionMode>,
}

impl Default for Scenario1Config {
    fn default() -> Self {
        Scenario1Config {
            scale: 0.02,
            clients: vec![1, 2, 4, 8, 16, 32],
            cores: 8,
            workers: 1,
            disk_resident: false,
            buffer_pool_pages: None,
            seed: 42,
            layout: PageLayout::Row,
            mode_override: None,
        }
    }
}

impl Scenario1Config {
    /// A fast configuration for tests.
    pub fn quick() -> Self {
        Scenario1Config {
            scale: 0.002,
            clients: vec![1, 4],
            cores: 4,
            ..Default::default()
        }
    }
}

/// One measured point of Scenario I.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Scenario1Row {
    /// Execution configuration label (`QC`, `SP-FIFO`, `SP-SPL`).
    pub mode: String,
    /// Concurrent identical queries.
    pub clients: usize,
    /// Workload response time (submit → all complete), milliseconds.
    pub response_ms: f64,
    /// CPU busy time accumulated by operators, milliseconds (the GUI's
    /// CPU-utilization plot).
    pub cpu_busy_ms: f64,
    /// Bytes deep-copied by push-based SP.
    pub bytes_copied: u64,
    /// Bytes shared via SPLs.
    pub bytes_shared: u64,
    /// Pages shared via SPLs (the perf-trajectory sharing metric).
    pub pages_shared: u64,
    /// Simulated disk reads (I/O plot, disk-resident runs).
    pub disk_reads: u64,
}

/// Run Scenario I: identical TPC-H Q1 instances, submitted simultaneously,
/// under query-centric execution, push-based SP and pull-based SP at the
/// table-scan stage.
pub fn scenario1(cfg: &Scenario1Config) -> Result<Vec<Scenario1Row>, EngineError> {
    let catalog = Catalog::new();
    generate_lineitem(
        &catalog,
        &TpchConfig {
            scale: cfg.scale,
            seed: cfg.seed,
            page_bytes: qs_storage::DEFAULT_PAGE_BYTES,
            layout: cfg.layout,
        },
    );
    let plan = tpch_q1_plan(&catalog, qs_workload::tpch::Q1_CUTOFF)?;

    let configs: Vec<(&str, ExecutionMode, Option<SharingPolicy>)> = match cfg.mode_override {
        Some(m) => vec![(m.label(), m, None)],
        None => vec![
            ("QC", ExecutionMode::QueryCentric, None),
            (
                "SP-FIFO",
                ExecutionMode::SpPush,
                Some(SharingPolicy::scan_only(ShareMode::Push)),
            ),
            (
                "SP-SPL",
                ExecutionMode::SpPull,
                Some(SharingPolicy::scan_only(ShareMode::Pull)),
            ),
        ],
    };

    let mut rows = Vec::new();
    for (label, mode, over) in configs {
        for &k in &cfg.clients {
            let db = SharingDb::new(
                catalog.clone(),
                DbConfig {
                    cores: cfg.cores,
                    workers: cfg.workers,
                    disk: if cfg.disk_resident {
                        DiskConfig::disk_resident()
                    } else {
                        DiskConfig::memory_resident()
                    },
                    buffer_pool_pages: if cfg.disk_resident {
                        // Default: pool holds a quarter of the data, so a
                        // disk-resident run really does I/O steadily.
                        cfg.buffer_pool_pages
                            .or(Some((catalog.total_pages() / 4).max(8)))
                    } else {
                        None
                    },
                    sharing_override: over,
                    admission: auto_admission(mode),
                    ..DbConfig::new(mode)
                },
            )?;
            // Warm the pool once so points measure steady state, then
            // reset the counters.
            db.submit(&plan)?.collect_pages()?;
            db.reset_metrics();
            let response = run_response_time(&db, &vec![plan.clone(); k])?;
            let m = db.metrics();
            rows.push(Scenario1Row {
                mode: label.to_string(),
                clients: k,
                response_ms: response.as_secs_f64() * 1e3,
                cpu_busy_ms: m.busy_nanos as f64 / 1e6,
                bytes_copied: m.bytes_copied,
                bytes_shared: m.bytes_shared,
                pages_shared: m.pages_shared,
                disk_reads: db.pool().disk().stats().reads,
            });
        }
    }
    Ok(rows)
}

// ---------------------------------------------------------------------
// Scenarios II-IV share the SSB setup
// ---------------------------------------------------------------------

/// The `(label, mode)` pairs a scenario sweeps: its historical default
/// pair, or the single pinned mode (labelled by [`ExecutionMode::label`])
/// when the bin was invoked with `--mode`.
fn mode_sweep(
    over: Option<ExecutionMode>,
    default: &[(&'static str, ExecutionMode)],
) -> Vec<(&'static str, ExecutionMode)> {
    match over {
        Some(m) => vec![(m.label(), m)],
        None => default.to_vec(),
    }
}

/// Auto-mode databases get a generous admission gate — it never sheds at
/// scenario client counts, but it is where the router's live-concurrency
/// signal comes from. Fixed modes keep the historical no-gate setup.
fn auto_admission(mode: ExecutionMode) -> Option<qs_engine::AdmissionConfig> {
    (mode == ExecutionMode::Auto).then(|| qs_engine::AdmissionConfig {
        max_concurrent: 256,
        max_queued: 1024,
        queue_timeout: Duration::from_secs(10),
    })
}

fn ssb_catalog(scale: f64, seed: u64, layout: PageLayout) -> Arc<Catalog> {
    let catalog = Catalog::new();
    generate_ssb(
        &catalog,
        &SsbConfig {
            scale,
            seed,
            page_bytes: qs_storage::DEFAULT_PAGE_BYTES,
            layout,
        },
    );
    catalog
}

fn ssb_db(
    catalog: &Arc<Catalog>,
    mode: ExecutionMode,
    cores: usize,
    workers: usize,
    disk_resident: bool,
    sharing_override: Option<SharingPolicy>,
) -> Result<SharingDb, EngineError> {
    SharingDb::new(
        catalog.clone(),
        DbConfig {
            cores,
            workers,
            disk: if disk_resident {
                DiskConfig::disk_resident()
            } else {
                DiskConfig::memory_resident()
            },
            // A disk-resident database must not fit in the buffer pool,
            // or every scan after the first would be free: cap the pool
            // at a quarter of the data.
            buffer_pool_pages: if disk_resident {
                Some((catalog.total_pages() / 4).max(8))
            } else {
                None
            },
            sharing_override,
            admission: auto_admission(mode),
            ..DbConfig::new(mode)
        },
    )
}

/// One throughput point of Scenarios II–IV.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ThroughputRow {
    /// Execution configuration label.
    pub mode: String,
    /// Swept x value (clients / selectivity / #plans, per scenario).
    pub x: f64,
    /// Queries per second in the measurement window.
    pub qps: f64,
    /// Queries completed.
    pub completed: u64,
    /// Queries that failed (refused at submission or aborted).
    pub failed: u64,
    /// SP hits at the CJOIN stage (Scenario IV's key metric).
    pub cjoin_sp_hits: u64,
    /// Total SP hits across QPipe stages.
    pub sp_hits: u64,
    /// Dimension-entry predicate evaluations performed by CJOIN
    /// admissions (0 for non-GQP modes) — the admission-cost metric the
    /// vectorized admission scan drives down per wall-clock second.
    pub admission_evals: u64,
    /// Pages shared via SPLs across QPipe stages.
    pub pages_shared: u64,
}

/// Scenario II configuration: impact of concurrency (§4.4).
#[derive(Debug, Clone)]
pub struct Scenario2Config {
    /// SSB scale factor.
    pub scale: f64,
    /// Concurrency sweep.
    pub clients: Vec<usize>,
    /// Selectivity (the paper fixes 1%).
    pub selectivity: f64,
    /// Measurement window per point.
    pub window: Duration,
    /// SSB template.
    pub template: SsbTemplate,
    /// Disk-resident (the paper's default for this scenario).
    pub disk_resident: bool,
    /// Cores.
    pub cores: usize,
    /// Morsel worker-pool size (`1` = single-threaded).
    pub workers: usize,
    /// Seed.
    pub seed: u64,
    /// Page layout of the generated tables.
    pub layout: PageLayout,
    /// Pin the sweep to one execution mode (the bins' `--mode` flag).
    pub mode_override: Option<ExecutionMode>,
}

impl Default for Scenario2Config {
    fn default() -> Self {
        Scenario2Config {
            scale: 0.01,
            clients: vec![1, 2, 4, 8, 16, 32],
            selectivity: 0.01,
            window: Duration::from_secs(2),
            template: SsbTemplate::Q3_2,
            disk_resident: true,
            cores: 8,
            workers: 1,
            seed: 42,
            layout: PageLayout::Row,
            mode_override: None,
        }
    }
}

impl Scenario2Config {
    /// A fast configuration for tests.
    pub fn quick() -> Self {
        Scenario2Config {
            scale: 0.001,
            clients: vec![1, 4],
            window: Duration::from_millis(300),
            disk_resident: false,
            ..Default::default()
        }
    }
}

/// Run Scenario II: QPipe with SP on all stages vs the CJOIN GQP, sweeping
/// the number of concurrent clients. Parameters are randomized (wide plan
/// space) to minimize SP common sub-plans, as in the paper.
pub fn scenario2(cfg: &Scenario2Config) -> Result<Vec<ThroughputRow>, EngineError> {
    let catalog = ssb_catalog(cfg.scale, cfg.seed, cfg.layout);
    let mut rows = Vec::new();
    let sweep = mode_sweep(
        cfg.mode_override,
        &[("QPipe+SP", ExecutionMode::SpPull), ("CJOIN", ExecutionMode::Gqp)],
    );
    for (label, mode) in sweep {
        for &k in &cfg.clients {
            let db = ssb_db(&catalog, mode, cfg.cores, cfg.workers, cfg.disk_resident, None)?;
            let knobs = WorkloadKnobs {
                selectivity: Some(cfg.selectivity),
                ..WorkloadKnobs::randomized(cfg.template, cfg.seed)
            };
            let r = run_throughput(
                &db,
                &DriverConfig {
                    clients: k,
                    duration: cfg.window,
                    batching: false,
                    knobs,
                },
            )?;
            let m = db.metrics();
            rows.push(ThroughputRow {
                mode: label.to_string(),
                x: k as f64,
                qps: r.qps,
                completed: r.completed,
                failed: r.failed,
                cjoin_sp_hits: m.sp_hits_for(StageKind::Cjoin),
                sp_hits: m.total_sp_hits(),
                admission_evals: db.cjoin_stats().map(|s| s.admission_evals).unwrap_or(0),
                pages_shared: m.pages_shared,
            });
        }
    }
    Ok(rows)
}

/// Scenario III configuration: impact of selectivity (§4.4).
#[derive(Debug, Clone)]
pub struct Scenario3Config {
    /// SSB scale factor.
    pub scale: f64,
    /// Fixed (low) number of clients.
    pub clients: usize,
    /// Selectivity sweep.
    pub selectivities: Vec<f64>,
    /// Measurement window per point.
    pub window: Duration,
    /// SSB template.
    pub template: SsbTemplate,
    /// Cores.
    pub cores: usize,
    /// Morsel worker-pool size (`1` = single-threaded).
    pub workers: usize,
    /// Seed.
    pub seed: u64,
    /// Page layout of the generated tables.
    pub layout: PageLayout,
    /// Pin the sweep to one execution mode (the bins' `--mode` flag).
    pub mode_override: Option<ExecutionMode>,
}

impl Default for Scenario3Config {
    fn default() -> Self {
        Scenario3Config {
            scale: 0.01,
            clients: 2,
            selectivities: vec![0.01, 0.05, 0.1, 0.25, 0.5, 0.9],
            window: Duration::from_secs(2),
            // Q1.1 joins only `date`, so the always-on 4-dimension GQP
            // pays maximal relative book-keeping — the overhead this
            // scenario is designed to expose.
            template: SsbTemplate::Q1_1,
            cores: 8,
            workers: 1,
            seed: 42,
            layout: PageLayout::Row,
            mode_override: None,
        }
    }
}

impl Scenario3Config {
    /// A fast configuration for tests.
    pub fn quick() -> Self {
        Scenario3Config {
            scale: 0.001,
            selectivities: vec![0.05, 0.5],
            window: Duration::from_millis(300),
            ..Default::default()
        }
    }
}

/// Run Scenario III: memory-resident, low concurrency, sweeping
/// selectivity — exposing the GQP's book-keeping overhead against
/// query-centric operators.
pub fn scenario3(cfg: &Scenario3Config) -> Result<Vec<ThroughputRow>, EngineError> {
    let catalog = ssb_catalog(cfg.scale, cfg.seed, cfg.layout);
    let mut rows = Vec::new();
    let sweep = mode_sweep(
        cfg.mode_override,
        &[("QPipe+SP", ExecutionMode::SpPull), ("CJOIN", ExecutionMode::Gqp)],
    );
    for (label, mode) in sweep {
        for &sel in &cfg.selectivities {
            let db = ssb_db(&catalog, mode, cfg.cores, cfg.workers, false, None)?;
            let knobs = WorkloadKnobs {
                selectivity: Some(sel),
                ..WorkloadKnobs::randomized(cfg.template, cfg.seed)
            };
            let r = run_throughput(
                &db,
                &DriverConfig {
                    clients: cfg.clients,
                    duration: cfg.window,
                    batching: false,
                    knobs,
                },
            )?;
            let m = db.metrics();
            rows.push(ThroughputRow {
                mode: label.to_string(),
                x: sel,
                qps: r.qps,
                completed: r.completed,
                failed: r.failed,
                cjoin_sp_hits: m.sp_hits_for(StageKind::Cjoin),
                sp_hits: m.total_sp_hits(),
                admission_evals: db.cjoin_stats().map(|s| s.admission_evals).unwrap_or(0),
                pages_shared: m.pages_shared,
            });
        }
    }
    Ok(rows)
}

/// Scenario IV configuration: impact of similarity (§4.4).
#[derive(Debug, Clone)]
pub struct Scenario4Config {
    /// SSB scale factor.
    pub scale: f64,
    /// Fixed (high) number of clients.
    pub clients: usize,
    /// Sweep of the number of possible distinct plans.
    pub num_plans: Vec<usize>,
    /// Measurement window per point.
    pub window: Duration,
    /// SSB template.
    pub template: SsbTemplate,
    /// Disk-resident (paper default).
    pub disk_resident: bool,
    /// Cores.
    pub cores: usize,
    /// Morsel worker-pool size (`1` = single-threaded).
    pub workers: usize,
    /// Seed.
    pub seed: u64,
    /// Page layout of the generated tables.
    pub layout: PageLayout,
    /// Pin the sweep to one execution mode (the bins' `--mode` flag).
    pub mode_override: Option<ExecutionMode>,
}

impl Default for Scenario4Config {
    fn default() -> Self {
        Scenario4Config {
            scale: 0.01,
            clients: 16,
            num_plans: vec![1, 2, 4, 8, 16, 32],
            window: Duration::from_secs(2),
            template: SsbTemplate::Q2_1,
            disk_resident: true,
            cores: 8,
            workers: 1,
            seed: 42,
            layout: PageLayout::Row,
            mode_override: None,
        }
    }
}

impl Scenario4Config {
    /// A fast configuration for tests.
    pub fn quick() -> Self {
        Scenario4Config {
            scale: 0.001,
            clients: 4,
            num_plans: vec![1, 8],
            window: Duration::from_millis(300),
            disk_resident: false,
            ..Default::default()
        }
    }
}

/// Run Scenario IV: GQP alone vs GQP with SP at the CJOIN stage, sweeping
/// plan diversity with batched submission. Fewer possible plans ⇒ more
/// common CJOIN sub-plans ⇒ more SP hits ⇒ fewer admissions.
pub fn scenario4(cfg: &Scenario4Config) -> Result<Vec<ThroughputRow>, EngineError> {
    let catalog = ssb_catalog(cfg.scale, cfg.seed, cfg.layout);
    let mut rows = Vec::new();
    let sweep = mode_sweep(
        cfg.mode_override,
        &[("GQP", ExecutionMode::Gqp), ("GQP+SP", ExecutionMode::GqpSp)],
    );
    for (label, mode) in sweep {
        for &n in &cfg.num_plans {
            let db = ssb_db(&catalog, mode, cfg.cores, cfg.workers, cfg.disk_resident, None)?;
            // Every client draws from the same restricted space, and
            // batching aligns their waves (maximal sharing opportunity).
            let knobs = WorkloadKnobs::restricted(cfg.template, n, cfg.seed);
            let r = run_throughput(
                &db,
                &DriverConfig {
                    clients: cfg.clients,
                    duration: cfg.window,
                    batching: true,
                    knobs,
                },
            )?;
            let m = db.metrics();
            rows.push(ThroughputRow {
                mode: label.to_string(),
                x: n as f64,
                qps: r.qps,
                completed: r.completed,
                failed: r.failed,
                cjoin_sp_hits: m.sp_hits_for(StageKind::Cjoin),
                sp_hits: m.total_sp_hits(),
                admission_evals: db.cjoin_stats().map(|s| s.admission_evals).unwrap_or(0),
                pages_shared: m.pages_shared,
            });
        }
    }
    Ok(rows)
}

/// Render throughput rows as an aligned text table (the bench binaries'
/// output format).
pub fn format_throughput_table(title: &str, xlabel: &str, rows: &[ThroughputRow]) -> String {
    let mut s = String::new();
    s.push_str(&format!("# {title}\n"));
    s.push_str(&format!(
        "{:<10} {:>10} {:>10} {:>10} {:>8} {:>14} {:>10} {:>12} {:>12}\n",
        "mode",
        xlabel,
        "qps",
        "completed",
        "failed",
        "cjoin_sp_hits",
        "sp_hits",
        "adm_evals",
        "pg_shared"
    ));
    for r in rows {
        s.push_str(&format!(
            "{:<10} {:>10.3} {:>10.2} {:>10} {:>8} {:>14} {:>10} {:>12} {:>12}\n",
            r.mode,
            r.x,
            r.qps,
            r.completed,
            r.failed,
            r.cjoin_sp_hits,
            r.sp_hits,
            r.admission_evals,
            r.pages_shared
        ));
    }
    s
}

/// Render Scenario I rows as an aligned text table.
pub fn format_scenario1_table(rows: &[Scenario1Row]) -> String {
    let mut s = String::new();
    s.push_str("# Scenario I: push-based vs pull-based SP (TPC-H Q1)\n");
    s.push_str(&format!(
        "{:<8} {:>8} {:>14} {:>12} {:>14} {:>14} {:>10}\n",
        "mode", "clients", "response_ms", "cpu_ms", "bytes_copied", "bytes_shared", "disk_rd"
    ));
    for r in rows {
        s.push_str(&format!(
            "{:<8} {:>8} {:>14.2} {:>12.2} {:>14} {:>14} {:>10}\n",
            r.mode, r.clients, r.response_ms, r.cpu_busy_ms, r.bytes_copied, r.bytes_shared,
            r.disk_reads
        ));
    }
    s
}

/// Build a TPC-H Q1 plan against a catalog (re-exported convenience for
/// examples and benches).
pub fn q1_plan(catalog: &Catalog) -> Result<qs_plan::LogicalPlan, EngineError> {
    Ok(tpch_q1_plan(catalog, qs_workload::tpch::Q1_CUTOFF)?)
}

/// Instantiate an SSB template (convenience for examples and benches).
pub fn ssb_plan(
    catalog: &Catalog,
    template: SsbTemplate,
    variant: u64,
) -> Result<qs_plan::LogicalPlan, EngineError> {
    Ok(template.plan(catalog, &TemplateParams::variant(variant))?)
}
