//! End-to-end engine tests: every execution configuration must produce the
//! oracle's answer, and the sharing machinery must behave as the paper
//! describes (SP hits, copies vs shares, window semantics).

use qs_engine::reference::{assert_rows_match, eval};
use qs_engine::{
    EngineConfig, QpipeEngine, ShareMode, SharingPolicy, StageKind,
};
use qs_plan::LogicalPlan;
use qs_storage::{BufferPool, BufferPoolConfig, Catalog, DiskConfig, DiskModel};
use qs_workload::ssb::data::{generate_ssb, SsbConfig};
use qs_workload::ssb::queries::{SsbTemplate, TemplateParams};
use qs_workload::{generate_lineitem, tpch_q1_plan, TpchConfig};
use std::sync::Arc;

fn ssb_catalog() -> Arc<Catalog> {
    let cat = Catalog::new();
    generate_ssb(
        &cat,
        &SsbConfig {
            scale: 0.001,
            seed: 21,
            page_bytes: 8 * 1024,
            ..Default::default()
        },
    );
    cat
}

fn engine(catalog: &Arc<Catalog>, sharing: SharingPolicy) -> QpipeEngine {
    let pool = Arc::new(BufferPool::new(
        BufferPoolConfig::unbounded(),
        Arc::new(DiskModel::new(DiskConfig::memory_resident())),
    ));
    QpipeEngine::new(
        catalog.clone(),
        pool,
        EngineConfig {
            out_page_bytes: 4 * 1024,
            fifo_capacity: 4,
            sharing,
            ..Default::default()
        },
    )
}

fn run_and_check(engine: &QpipeEngine, catalog: &Catalog, plan: &LogicalPlan) {
    let expected = eval(plan, catalog).unwrap();
    let got = engine.submit(plan).unwrap().collect_rows().unwrap();
    assert_rows_match(got, expected, 1e-9);
}

#[test]
fn all_ssb_templates_query_centric_match_oracle() {
    let cat = ssb_catalog();
    let eng = engine(&cat, SharingPolicy::query_centric());
    for t in SsbTemplate::all() {
        let plan = t.plan(&cat, &TemplateParams::variant(2)).unwrap();
        let expected = eval(&plan, &cat).unwrap();
        let got = eng.submit(&plan).unwrap().collect_rows().unwrap();
        assert!(!expected.is_empty() || got.is_empty(), "{}", t.name());
        assert_rows_match(got, expected, 1e-9);
    }
}

#[test]
fn all_ssb_templates_full_sharing_pull_match_oracle() {
    let cat = ssb_catalog();
    let eng = engine(&cat, SharingPolicy::all_stages(ShareMode::Pull));
    for t in SsbTemplate::all() {
        let plan = t.plan(&cat, &TemplateParams::variant(1)).unwrap();
        run_and_check(&eng, &cat, &plan);
    }
}

#[test]
fn tpch_q1_all_modes_match_oracle() {
    let cat = Catalog::new();
    generate_lineitem(
        &cat,
        &TpchConfig {
            scale: 0.002,
            seed: 5,
            page_bytes: 8 * 1024,
            ..Default::default()
        },
    );
    let plan = tpch_q1_plan(&cat, qs_workload::tpch::Q1_CUTOFF).unwrap();
    for sharing in [
        SharingPolicy::query_centric(),
        SharingPolicy::scan_only(ShareMode::Push),
        SharingPolicy::scan_only(ShareMode::Pull),
        SharingPolicy::all_stages(ShareMode::Push),
        SharingPolicy::all_stages(ShareMode::Pull),
    ] {
        let eng = engine(&cat, sharing);
        run_and_check(&eng, &cat, &plan);
    }
}

#[test]
fn batch_of_identical_q1_shares_scan_pull() {
    let cat = Catalog::new();
    generate_lineitem(
        &cat,
        &TpchConfig {
            scale: 0.002,
            seed: 5,
            page_bytes: 8 * 1024,
            ..Default::default()
        },
    );
    let plan = tpch_q1_plan(&cat, qs_workload::tpch::Q1_CUTOFF).unwrap();
    let expected = eval(&plan, &cat).unwrap();
    let eng = engine(&cat, SharingPolicy::scan_only(ShareMode::Pull));

    let k = 6;
    let plans = vec![plan; k];
    let tickets = eng.submit_batch(&plans).unwrap();
    for t in tickets {
        assert_rows_match(t.collect_rows().unwrap(), expected.clone(), 1e-9);
    }
    let m = eng.metrics();
    assert_eq!(m.sp_hits_for(StageKind::Scan), (k - 1) as u64);
    assert_eq!(m.pages_copied, 0, "pull mode never copies");
    assert!(m.pages_shared > 0);
    // only one scan packet was dispatched
    assert_eq!(m.packets[StageKind::Scan as usize], 1);
    // but k aggregation packets (scan-only sharing)
    assert_eq!(m.packets[StageKind::Aggregate as usize], k as u64);
}

#[test]
fn batch_of_identical_q1_shares_scan_push_with_copies() {
    let cat = Catalog::new();
    generate_lineitem(
        &cat,
        &TpchConfig {
            scale: 0.002,
            seed: 5,
            page_bytes: 8 * 1024,
            ..Default::default()
        },
    );
    let plan = tpch_q1_plan(&cat, qs_workload::tpch::Q1_CUTOFF).unwrap();
    let expected = eval(&plan, &cat).unwrap();
    let eng = engine(&cat, SharingPolicy::scan_only(ShareMode::Push));

    let k = 4;
    let tickets = eng.submit_batch(&vec![plan; k]).unwrap();
    for t in tickets {
        assert_rows_match(t.collect_rows().unwrap(), expected.clone(), 1e-9);
    }
    let m = eng.metrics();
    assert_eq!(m.sp_hits_for(StageKind::Scan), (k - 1) as u64);
    assert!(
        m.pages_copied > 0,
        "push mode pays one copy per extra consumer"
    );
    // every produced page is copied k-1 times
    assert_eq!(m.pages_copied % (k as u64 - 1), 0);
}

#[test]
fn full_sharing_shares_whole_plan() {
    let cat = ssb_catalog();
    let eng = engine(&cat, SharingPolicy::all_stages(ShareMode::Pull));
    let plan = SsbTemplate::Q2_1
        .plan(&cat, &TemplateParams::variant(0))
        .unwrap();
    let expected = eval(&plan, &cat).unwrap();
    let tickets = eng.submit_batch(&vec![plan; 3]).unwrap();
    for t in tickets {
        assert_rows_match(t.collect_rows().unwrap(), expected.clone(), 1e-9);
    }
    let m = eng.metrics();
    // The top-level sort is shared, so each stage ran exactly one packet.
    assert_eq!(m.packets[StageKind::Sort as usize], 1);
    assert_eq!(m.sp_hits_for(StageKind::Sort), 2);
}

/// A batch dropped before it is dispatched (a later member failed) still
/// starts what it built: another query may already ride one of its packets.
#[test]
fn abandoned_batch_still_runs_the_packets_others_ride() {
    let cat = ssb_catalog();
    let eng = engine(&cat, SharingPolicy::all_stages(ShareMode::Pull));
    let plan = SsbTemplate::Q2_1
        .plan(&cat, &TemplateParams::variant(0))
        .unwrap();
    let expected = eval(&plan, &cat).unwrap();
    let mut batch = eng.batch();
    let owner = batch.add(&plan, &Default::default(), None).unwrap();
    let rider = eng.submit(&plan).unwrap();
    assert_eq!(eng.metrics().sp_hits_for(StageKind::Sort), 1);
    drop(owner);
    drop(batch);
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || tx.send(rider.collect_rows()));
    let got = rx
        .recv_timeout(std::time::Duration::from_secs(60))
        .expect("the rider's producer never started");
    assert_rows_match(got.unwrap(), expected, 1e-9);
}

#[test]
fn different_predicates_do_not_share() {
    let cat = ssb_catalog();
    let eng = engine(&cat, SharingPolicy::all_stages(ShareMode::Pull));
    let a = SsbTemplate::Q1_1
        .plan(&cat, &TemplateParams::variant(0))
        .unwrap();
    let b = SsbTemplate::Q1_1
        .plan(&cat, &TemplateParams::variant(3))
        .unwrap();
    assert_ne!(qs_plan::signature(&a), qs_plan::signature(&b));
    let tickets = eng.submit_batch(&[a.clone(), b.clone()]).unwrap();
    let expected_a = eval(&a, &cat).unwrap();
    let expected_b = eval(&b, &cat).unwrap();
    let mut results = tickets
        .into_iter()
        .map(|t| t.collect_rows().unwrap())
        .collect::<Vec<_>>();
    assert_rows_match(results.remove(0), expected_a, 1e-9);
    assert_rows_match(results.remove(0), expected_b, 1e-9);
    // Scans of lineorder differ (predicates), but the dimension scan of
    // `date` with different predicates differs too — so zero scan hits.
    assert_eq!(eng.metrics().sp_hits_for(StageKind::Scan), 0);
}

#[test]
fn sequential_submission_shares_in_pull_mode_while_in_flight() {
    // Without batching, pull-mode SP can still attach mid-stream.
    let cat = Catalog::new();
    generate_lineitem(
        &cat,
        &TpchConfig {
            scale: 0.005,
            seed: 5,
            page_bytes: 4 * 1024,
            ..Default::default()
        },
    );
    let plan = tpch_q1_plan(&cat, qs_workload::tpch::Q1_CUTOFF).unwrap();
    let expected = eval(&plan, &cat).unwrap();
    let eng = engine(&cat, SharingPolicy::scan_only(ShareMode::Pull));
    // Submit one query, then immediately another while the first is
    // (very likely) still scanning; both must be correct regardless of
    // whether the second one attached or ran its own scan.
    let t1 = eng.submit(&plan).unwrap();
    let t2 = eng.submit(&plan).unwrap();
    assert_rows_match(t1.collect_rows().unwrap(), expected.clone(), 1e-9);
    assert_rows_match(t2.collect_rows().unwrap(), expected, 1e-9);
}

#[test]
fn cancellation_of_one_consumer_does_not_break_others() {
    let cat = Catalog::new();
    generate_lineitem(
        &cat,
        &TpchConfig {
            scale: 0.002,
            seed: 5,
            page_bytes: 4 * 1024,
            ..Default::default()
        },
    );
    let plan = tpch_q1_plan(&cat, qs_workload::tpch::Q1_CUTOFF).unwrap();
    let expected = eval(&plan, &cat).unwrap();
    let eng = engine(&cat, SharingPolicy::scan_only(ShareMode::Pull));
    let mut tickets = eng.submit_batch(&vec![plan; 3]).unwrap();
    // Cancel one mid-stream (paper Fig. 1a: the attached query cancels).
    let cancelled = tickets.remove(1);
    drop(cancelled);
    for t in tickets {
        assert_rows_match(t.collect_rows().unwrap(), expected.clone(), 1e-9);
    }
}

#[test]
fn core_governor_does_not_change_results() {
    let cat = ssb_catalog();
    let pool = Arc::new(BufferPool::new(
        BufferPoolConfig::unbounded(),
        Arc::new(DiskModel::new(DiskConfig::memory_resident())),
    ));
    let eng = QpipeEngine::new(
        cat.clone(),
        pool,
        EngineConfig {
            cores: 2,
            out_page_bytes: 4 * 1024,
            sharing: SharingPolicy::all_stages(ShareMode::Pull),
            ..Default::default()
        },
    );
    let plan = SsbTemplate::Q3_2
        .plan(&cat, &TemplateParams::variant(0))
        .unwrap();
    let expected = eval(&plan, &cat).unwrap();
    let tickets = eng.submit_batch(&vec![plan; 4]).unwrap();
    for t in tickets {
        assert_rows_match(t.collect_rows().unwrap(), expected.clone(), 1e-9);
    }
    assert!(eng.metrics().busy_nanos > 0);
}

#[test]
fn disk_resident_execution_matches_and_counts_io() {
    let cat = ssb_catalog();
    let disk = Arc::new(DiskModel::new(DiskConfig {
        spindles: 2,
        latency: std::time::Duration::from_micros(80),
    }));
    let pool = Arc::new(BufferPool::new(BufferPoolConfig::with_capacity(16), disk));
    let eng = QpipeEngine::new(
        cat.clone(),
        pool.clone(),
        EngineConfig {
            out_page_bytes: 4 * 1024,
            sharing: SharingPolicy::query_centric(),
            ..Default::default()
        },
    );
    let plan = SsbTemplate::Q1_1
        .plan(&cat, &TemplateParams::variant(0))
        .unwrap();
    let expected = eval(&plan, &cat).unwrap();
    let got = eng.submit(&plan).unwrap().collect_rows().unwrap();
    assert_rows_match(got, expected, 1e-9);
    assert!(pool.disk().stats().reads > 0, "disk-resident run must do I/O");
    assert!(pool.stats().misses > 0);
}

// ---------------------------------------------------------------------
// Distinct and TopK operators
// ---------------------------------------------------------------------

#[test]
fn distinct_matches_oracle_in_all_modes() {
    let cat = ssb_catalog();
    let plan = LogicalPlan::Distinct {
        input: Box::new(LogicalPlan::Project {
            input: Box::new(LogicalPlan::Scan {
                table: "lineorder".into(),
                predicate: None,
                projection: None,
            }),
            columns: vec![7], // lo_discount: few distinct values
        }),
    };
    for sharing in [
        SharingPolicy::query_centric(),
        SharingPolicy::all_stages(ShareMode::Push),
        SharingPolicy::all_stages(ShareMode::Pull),
    ] {
        let eng = engine(&cat, sharing);
        run_and_check(&eng, &cat, &plan);
    }
}

#[test]
fn topk_matches_sort_limit_in_all_modes() {
    let cat = ssb_catalog();
    let scan = LogicalPlan::Scan {
        table: "lineorder".into(),
        predicate: None,
        projection: Some(vec![0, 8]), // lo_orderkey, lo_revenue
    };
    let topk = LogicalPlan::TopK {
        input: Box::new(scan.clone()),
        keys: vec![(1, false), (0, true)],
        n: 13,
    };
    let sort_limit = LogicalPlan::Limit {
        input: Box::new(LogicalPlan::Sort {
            input: Box::new(scan),
            keys: vec![(1, false), (0, true)],
        }),
        n: 13,
    };
    let via_sort = eval(&sort_limit, &cat).unwrap();
    for sharing in [
        SharingPolicy::query_centric(),
        SharingPolicy::all_stages(ShareMode::Pull),
    ] {
        let eng = engine(&cat, sharing);
        let got = eng.submit(&topk).unwrap().collect_rows().unwrap();
        // TopK emits in key order, so compare exactly (keys include a
        // tiebreaker making the order total).
        assert_eq!(got, via_sort);
    }
}

#[test]
fn topk_edge_cases() {
    let cat = ssb_catalog();
    let rows = cat.get("lineorder").unwrap().row_count();
    let eng = engine(&cat, SharingPolicy::query_centric());
    // n = 0 produces nothing (and terminates).
    let empty = LogicalPlan::TopK {
        input: Box::new(LogicalPlan::Scan {
            table: "lineorder".into(),
            predicate: None,
            projection: Some(vec![0]),
        }),
        keys: vec![(0, true)],
        n: 0,
    };
    assert!(eng.submit(&empty).unwrap().collect_rows().unwrap().is_empty());
    // n >= input emits the whole (sorted) input.
    let all = LogicalPlan::TopK {
        input: Box::new(LogicalPlan::Scan {
            table: "lineorder".into(),
            predicate: None,
            projection: Some(vec![0]),
        }),
        keys: vec![(0, true)],
        n: rows + 10,
    };
    let got = eng.submit(&all).unwrap().collect_rows().unwrap();
    assert_eq!(got.len(), rows);
    assert!(got.windows(2).all(|w| w[0][0].as_int() <= w[1][0].as_int()));
}

#[test]
fn identical_distinct_and_topk_packets_share() {
    let cat = ssb_catalog();
    let eng = engine(&cat, SharingPolicy::all_stages(ShareMode::Pull));
    let plan = LogicalPlan::TopK {
        input: Box::new(LogicalPlan::Distinct {
            input: Box::new(LogicalPlan::Project {
                input: Box::new(LogicalPlan::Scan {
                    table: "lineorder".into(),
                    predicate: None,
                    projection: None,
                }),
                columns: vec![7, 5],
            }),
        }),
        keys: vec![(0, true), (1, true)],
        n: 20,
    };
    let expected = eval(&plan, &cat).unwrap();
    let k = 4;
    let tickets = eng.submit_batch(&vec![plan; k]).unwrap();
    let handles: Vec<_> = tickets
        .into_iter()
        .map(|t| std::thread::spawn(move || t.collect_rows().unwrap()))
        .collect();
    for h in handles {
        assert_rows_match(h.join().unwrap(), expected.clone(), 1e-9);
    }
    let m = eng.metrics();
    assert_eq!(
        m.sp_hits_for(StageKind::TopK),
        (k - 1) as u64,
        "k identical plans ride one TopK packet"
    );
    assert_eq!(m.sp_hits_for(StageKind::Distinct), 0, "inner nodes shared at the root");
}

/// Regression test for the sequential-drain deadlock: a shared producer
/// with more output pages than any FIFO capacity must not deadlock when
/// the client drains sibling tickets strictly one after another.
#[test]
fn sequential_ticket_draining_cannot_deadlock_shared_push_producers() {
    let cat = ssb_catalog();
    let pool = Arc::new(BufferPool::new(
        BufferPoolConfig::unbounded(),
        Arc::new(DiskModel::new(DiskConfig::memory_resident())),
    ));
    // Tiny pages and a capacity-1 FIFO: before root readers became
    // unbounded this configuration deadlocked almost surely.
    let eng = QpipeEngine::new(
        cat.clone(),
        pool,
        EngineConfig {
            out_page_bytes: 128,
            fifo_capacity: 1,
            sharing: SharingPolicy::all_stages(ShareMode::Push),
            ..Default::default()
        },
    );
    let plan = LogicalPlan::Aggregate {
        input: Box::new(LogicalPlan::Scan {
            table: "lineorder".into(),
            predicate: None,
            projection: None,
        }),
        group_by: vec![7], // lo_discount: 11 groups >> fifo capacity
        aggs: vec![qs_plan::AggSpec::new(qs_plan::AggFunc::Count, "n")],
    };
    let expected = eval(&plan, &cat).unwrap();
    let tickets = eng.submit_batch(&vec![plan; 3]).unwrap();
    for t in tickets {
        // Strictly sequential drains — the deadlocking pattern.
        assert_rows_match(t.collect_rows().unwrap(), expected.clone(), 1e-9);
    }
}
