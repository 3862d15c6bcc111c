//! Client simulator: concurrent clients iteratively submitting template
//! instantiations, measuring response time or throughput — the demo's
//! workload executor.

use crate::db::SharingDb;
use qs_engine::EngineError;
use qs_plan::LogicalPlan;
use qs_workload::{QueryMix, WorkloadKnobs};
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Throughput-run parameters (Scenarios II–IV).
#[derive(Debug, Clone)]
pub struct DriverConfig {
    /// Number of concurrent clients.
    pub clients: usize,
    /// Measurement window.
    pub duration: Duration,
    /// Whether clients co-ordinate to submit in batches (waves).
    pub batching: bool,
    /// Workload knobs (template, plan diversity, selectivity, seed).
    pub knobs: WorkloadKnobs,
}

/// Result of a throughput run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ThroughputResult {
    /// Queries completed inside the window.
    pub completed: u64,
    /// Queries that failed inside the window: refused at submission
    /// (e.g. shed, or CJOIN saturated) or aborted while draining.
    pub failed: u64,
    /// Window actually elapsed.
    pub elapsed: Duration,
    /// Queries per second.
    pub qps: f64,
}

/// Run `cfg.clients` clients against `db` for the configured window and
/// report throughput. Each client runs its own seeded [`QueryMix`], so
/// runs are reproducible. A failed query is counted in
/// [`ThroughputResult::failed`], never in `completed` or `qps`.
pub fn run_throughput(db: &SharingDb, cfg: &DriverConfig) -> Result<ThroughputResult, EngineError> {
    let completed = AtomicU64::new(0);
    let failed = AtomicU64::new(0);
    // Count one drained ticket as completed or failed.
    let tally = |ok: bool| {
        let counter = if ok { &completed } else { &failed };
        counter.fetch_add(1, Ordering::Relaxed);
    };
    let stop = AtomicBool::new(false);
    let start = Instant::now();
    let deadline = start + cfg.duration;

    if cfg.batching {
        // Waves: all clients submit together (one batch), drain together.
        let mut mixes: Vec<QueryMix> = (0..cfg.clients)
            .map(|c| {
                QueryMix::new(WorkloadKnobs {
                    seed: cfg.knobs.seed.wrapping_add(c as u64),
                    ..cfg.knobs
                })
            })
            .collect();
        while Instant::now() < deadline {
            let plans: Vec<LogicalPlan> = mixes
                .iter_mut()
                .map(|m| m.next_plan(db.catalog()))
                .collect::<qs_plan::Result<_>>()
                .map_err(EngineError::Plan)?;
            let tickets = match db.submit_batch(&plans) {
                Ok(tickets) => tickets,
                Err(_) => {
                    // The whole wave was refused: count it, back off.
                    failed.fetch_add(plans.len() as u64, Ordering::Relaxed);
                    std::thread::sleep(Duration::from_millis(1));
                    continue;
                }
            };
            std::thread::scope(|s| {
                for t in tickets {
                    let tally = &tally;
                    // Batch-at-a-time drain: no page re-materialization
                    // just to count rows.
                    s.spawn(move || tally(t.drain().is_ok()));
                }
            });
        }
    } else {
        std::thread::scope(|s| {
            for c in 0..cfg.clients {
                let (tally, failed, stop) = (&tally, &failed, &stop);
                let knobs = WorkloadKnobs {
                    seed: cfg.knobs.seed.wrapping_add(c as u64),
                    ..cfg.knobs
                };
                s.spawn(move || {
                    let mut mix = QueryMix::new(knobs);
                    while !stop.load(Ordering::Relaxed) && Instant::now() < deadline {
                        let Ok(plan) = mix.next_plan(db.catalog()) else {
                            break;
                        };
                        match db.submit(&plan) {
                            Ok(t) => tally(t.drain().is_ok()),
                            Err(_) => {
                                // e.g. CJOIN saturation: count it, back
                                // off briefly.
                                failed.fetch_add(1, Ordering::Relaxed);
                                std::thread::sleep(Duration::from_millis(1));
                            }
                        }
                    }
                });
            }
        });
        stop.store(true, Ordering::Relaxed);
    }

    let elapsed = start.elapsed();
    let done = completed.load(Ordering::Relaxed);
    Ok(ThroughputResult {
        completed: done,
        failed: failed.load(Ordering::Relaxed),
        elapsed,
        qps: done as f64 / elapsed.as_secs_f64(),
    })
}

/// Submit `plans` simultaneously (batched) and measure the wall time until
/// every query completes — Scenario I's response-time metric.
pub fn run_response_time(
    db: &SharingDb,
    plans: &[LogicalPlan],
) -> Result<Duration, EngineError> {
    let start = Instant::now();
    let tickets = db.submit_batch(plans)?;
    let failures = Arc::new(AtomicU64::new(0));
    std::thread::scope(|s| {
        for t in tickets {
            let failures = failures.clone();
            s.spawn(move || {
                if t.drain().is_err() {
                    failures.fetch_add(1, Ordering::Relaxed);
                }
            });
        }
    });
    if failures.load(Ordering::Relaxed) > 0 {
        return Err(EngineError::Aborted("a query in the batch failed".into()));
    }
    Ok(start.elapsed())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::db::{DbConfig, ExecutionMode};
    use qs_storage::Catalog;
    use qs_workload::ssb::data::{generate_ssb, SsbConfig};
    use qs_workload::SsbTemplate;

    fn db(mode: ExecutionMode) -> SharingDb {
        let cat = Catalog::new();
        generate_ssb(
            &cat,
            &SsbConfig {
                scale: 0.0005,
                seed: 3,
                page_bytes: 8 * 1024,
                ..Default::default()
            },
        );
        SharingDb::new(cat, DbConfig::new(mode)).unwrap()
    }

    #[test]
    fn throughput_run_completes_queries() {
        let db = db(ExecutionMode::QueryCentric);
        let r = run_throughput(
            &db,
            &DriverConfig {
                clients: 2,
                duration: Duration::from_millis(300),
                batching: false,
                knobs: WorkloadKnobs::restricted(SsbTemplate::Q1_1, 4, 1),
            },
        )
        .unwrap();
        assert!(r.completed > 0, "no queries completed");
        assert!(r.qps > 0.0);
        assert_eq!(r.failed, 0);
    }

    #[test]
    fn throughput_run_counts_failed_queries() {
        let _guard = qs_storage::fault::test_guard();
        let db = db(ExecutionMode::Gqp);
        // Every CJOIN page send fails: each admitted query is aborted.
        qs_storage::fault::arm(
            1,
            &[("cjoin.chan.abort", qs_storage::fault::FaultSpec::prob(1.0))],
        );
        let run = |batching| {
            run_throughput(
                &db,
                &DriverConfig {
                    clients: 2,
                    duration: Duration::from_millis(200),
                    batching,
                    knobs: WorkloadKnobs::restricted(SsbTemplate::Q2_1, 4, 1),
                },
            )
            .unwrap()
        };
        let (per_client, batched) = (run(false), run(true));
        qs_storage::fault::disarm();
        for r in [per_client, batched] {
            assert!(r.failed > 0, "aborted queries must be counted: {r:?}");
            assert_eq!(r.completed, 0, "no aborted query is completed: {r:?}");
        }
    }

    #[test]
    fn batched_throughput_run() {
        let db = db(ExecutionMode::SpPull);
        let r = run_throughput(
            &db,
            &DriverConfig {
                clients: 3,
                duration: Duration::from_millis(300),
                batching: true,
                knobs: WorkloadKnobs::restricted(SsbTemplate::Q1_1, 1, 1),
            },
        )
        .unwrap();
        assert!(r.completed >= 3, "at least one full wave");
        // identical plans + batching => SP hits at some stage
        assert!(db.metrics().total_sp_hits() > 0);
    }

    #[test]
    fn response_time_batch() {
        let db = db(ExecutionMode::QueryCentric);
        let plan = SsbTemplate::Q1_1
            .plan(
                db.catalog(),
                &qs_workload::ssb::queries::TemplateParams::variant(0),
            )
            .unwrap();
        let d = run_response_time(&db, &vec![plan; 4]).unwrap();
        assert!(d > Duration::ZERO);
    }
}
