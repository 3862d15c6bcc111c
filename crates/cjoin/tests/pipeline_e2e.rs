//! End-to-end CJOIN tests: for every admitted star query, the pipeline's
//! output must equal the query-centric join (the oracle), under online
//! admission, predicate variety, bypassed dimensions, saturation and slot
//! reuse.
//!
//! Every test holds [`fault::test_guard`]: one of them arms the
//! process-global `page.alloc` failpoint, which every pipeline evaluates
//! whenever it allocates an output page.

use qs_cjoin::{CjoinError, CjoinPipeline, DimSpec, PipelineSpec};
use qs_engine::reference::{assert_rows_match, eval};
use qs_engine::{BatchSource, CoreGovernor, ExecCtx, Metrics};
use qs_plan::{Expr, LogicalPlan, PlanBuilder, StarQuery};
use qs_storage::{
    fault, BufferPool, BufferPoolConfig, Catalog, DataType, DiskConfig, DiskModel, Schema,
    TableBuilder, Value,
};
use std::sync::Arc;

/// Tiny star schema: fact(f_d1, f_d2, val) with dims d1(k, a), d2(k, a).
fn catalog() -> Arc<Catalog> {
    let cat = Catalog::new();
    for (name, rows) in [("d1", 8i64), ("d2", 5i64)] {
        let schema = Schema::from_pairs(&[("k", DataType::Int), ("a", DataType::Int)]);
        let mut b = TableBuilder::with_page_bytes(name, schema, 64);
        for k in 0..rows {
            b.push_values(&[Value::Int(k), Value::Int(k % 3)]).unwrap();
        }
        cat.register(b);
    }
    let fact = Schema::from_pairs(&[
        ("f_d1", DataType::Int),
        ("f_d2", DataType::Int),
        ("val", DataType::Int),
    ]);
    let mut b = TableBuilder::with_page_bytes("fact", fact, 128); // 5 rows/page
    for i in 0..200i64 {
        // some keys fall outside the dim domains -> dangling FKs dropped
        b.push_values(&[Value::Int(i % 10), Value::Int(i % 7), Value::Int(i)])
            .unwrap();
    }
    cat.register(b);
    cat
}

/// Take the failpoint registry for the whole test, disarmed.
fn serial() -> std::sync::MutexGuard<'static, ()> {
    let guard = fault::test_guard();
    fault::disarm();
    guard
}

fn ctx() -> Arc<ExecCtx> {
    ctx_with_cores(0)
}

/// `cores` core permits (0 = ungoverned).
fn ctx_with_cores(cores: usize) -> Arc<ExecCtx> {
    let metrics = Metrics::new();
    Arc::new(ExecCtx {
        pool: Arc::new(BufferPool::new(
            BufferPoolConfig::unbounded(),
            Arc::new(DiskModel::new(DiskConfig::memory_resident())),
        )),
        governor: CoreGovernor::new(cores, metrics.clone()),
        workers: qs_engine::WorkerPool::new(1, metrics.clone()),
        metrics,
        out_page_bytes: 256,
    })
}

fn spec() -> PipelineSpec {
    PipelineSpec {
        max_queries: 4,
        channel_depth: 2,
        out_page_bytes: 256,
        ..PipelineSpec::new(
            "fact",
            vec![
                DimSpec {
                    table: "d1".into(),
                    fact_key: 0,
                    dim_key: 0,
                },
                DimSpec {
                    table: "d2".into(),
                    fact_key: 1,
                    dim_key: 0,
                },
            ],
        )
    }
}

/// Star plan: fact ⋈ d1[k, pred1] (⋈ d2[pred2] if both).
fn star_plan(cat: &Catalog, p1: Option<Expr>, p2: Option<Option<Expr>>) -> LogicalPlan {
    let mut b = PlanBuilder::scan(cat, "fact")
        .unwrap()
        .join_dim("d1", "f_d1", "k", p1)
        .unwrap();
    if let Some(p2) = p2 {
        b = b.join_dim("d2", "f_d2", "k", p2).unwrap();
    }
    b.build().unwrap()
}

fn drain(mut r: Box<dyn BatchSource>) -> Vec<Vec<Value>> {
    let mut out = Vec::new();
    while let Some(b) = r.next_batch().unwrap() {
        for t in 0..b.len() {
            out.push(b.page().row(b.sel()[t] as usize).values());
        }
    }
    out
}

#[test]
fn single_query_matches_query_centric_join() {
    let _serial = serial();
    let cat = catalog();
    let pipe = CjoinPipeline::new(ctx(), &cat, &spec()).unwrap();
    let plan = star_plan(&cat, Some(Expr::eq(1, 1i64)), Some(None));
    let star = StarQuery::detect(&plan, &cat).unwrap();
    let q = pipe.admit(&star).unwrap();
    assert_eq!(q.schema.len(), 7); // 3 fact + 2 + 2 dim cols
    let got = drain(q.reader);
    let expected = eval(&plan, &cat).unwrap();
    assert!(!expected.is_empty());
    assert_rows_match(got, expected, 0.0);
    let stats = pipe.stats();
    assert_eq!(stats.admissions, 1);
    assert_eq!(stats.completions, 1);
    assert!(stats.rows_out > 0);
}

#[test]
fn query_bypassing_a_dimension() {
    let _serial = serial();
    let cat = catalog();
    let pipe = CjoinPipeline::new(ctx(), &cat, &spec()).unwrap();
    // Only joins d1; d2 is bypassed for this query.
    let plan = star_plan(&cat, Some(Expr::between(1, 0i64, 1i64)), None);
    let star = StarQuery::detect(&plan, &cat).unwrap();
    let q = pipe.admit(&star).unwrap();
    assert_eq!(q.schema.len(), 5);
    let got = drain(q.reader);
    let expected = eval(&plan, &cat).unwrap();
    assert_rows_match(got, expected, 0.0);
}

#[test]
fn concurrent_queries_with_different_predicates() {
    let _serial = serial();
    let cat = catalog();
    let pipe = CjoinPipeline::new(ctx(), &cat, &spec()).unwrap();
    let plans: Vec<LogicalPlan> = vec![
        star_plan(&cat, Some(Expr::eq(1, 0i64)), Some(None)),
        star_plan(&cat, Some(Expr::eq(1, 2i64)), Some(Some(Expr::eq(1, 1i64)))),
        star_plan(&cat, None, Some(None)),
        star_plan(&cat, Some(Expr::lt(0, 3i64)), None),
    ];
    let queries: Vec<_> = plans
        .iter()
        .map(|p| pipe.admit(&StarQuery::detect(p, &cat).unwrap()).unwrap())
        .collect();
    let results: Vec<_> = queries.into_iter().map(|q| drain(q.reader)).collect();
    for (plan, got) in plans.iter().zip(results) {
        let expected = eval(plan, &cat).unwrap();
        assert_rows_match(got, expected, 0.0);
    }
    assert_eq!(pipe.stats().completions, 4);
    assert_eq!(pipe.free_slots(), 4, "all slots returned");
}

#[test]
fn fact_predicate_is_applied_by_preprocessor() {
    let _serial = serial();
    let cat = catalog();
    let pipe = CjoinPipeline::new(ctx(), &cat, &spec()).unwrap();
    let plan = {
        let b = PlanBuilder::scan(&cat, "fact")
            .unwrap()
            .filter(Expr::ge(2, 100i64)) // val >= 100, pushed into the scan
            .unwrap()
            .join_dim("d1", "f_d1", "k", None)
            .unwrap();
        b.build().unwrap()
    };
    let star = StarQuery::detect(&plan, &cat).unwrap();
    assert!(star.fact_predicate.is_some());
    let q = pipe.admit(&star).unwrap();
    let got = drain(q.reader);
    let expected = eval(&plan, &cat).unwrap();
    assert_rows_match(got, expected, 0.0);
    // dropped tuples were counted
    assert!(pipe.stats().tuples_in < 200);
}

#[test]
fn online_admission_while_another_runs() {
    let _serial = serial();
    let cat = catalog();
    let pipe = Arc::new(CjoinPipeline::new(ctx(), &cat, &spec()).unwrap());
    let plan1 = star_plan(&cat, None, Some(None));
    let plan2 = star_plan(&cat, Some(Expr::eq(1, 1i64)), Some(None));
    let q1 = pipe.admit(&StarQuery::detect(&plan1, &cat).unwrap()).unwrap();
    // Admit the second while the first revolution is (likely) in flight.
    let q2 = pipe.admit(&StarQuery::detect(&plan2, &cat).unwrap()).unwrap();
    let h1 = std::thread::spawn(move || drain(q1.reader));
    let h2 = std::thread::spawn(move || drain(q2.reader));
    assert_rows_match(h1.join().unwrap(), eval(&plan1, &cat).unwrap(), 0.0);
    assert_rows_match(h2.join().unwrap(), eval(&plan2, &cat).unwrap(), 0.0);
}

#[test]
fn read_ahead_on_a_disk_resident_pool_reads_each_scanned_page_once() {
    let _serial = serial();
    let cat = catalog();
    let fact_pages = cat.get("fact").unwrap().page_count();
    assert_eq!(fact_pages, 40);
    // A pool of a quarter of the fact table over a seven-spindle disk:
    // the scan misses on every page and reads ahead min(7, 10 / 4) pages.
    let metrics = Metrics::new();
    let ctx = Arc::new(ExecCtx {
        pool: Arc::new(BufferPool::new(
            BufferPoolConfig::with_capacity(fact_pages / 4),
            Arc::new(DiskModel::new(DiskConfig::disk_resident())),
        )),
        governor: CoreGovernor::new(0, metrics.clone()),
        workers: qs_engine::WorkerPool::new(1, metrics.clone()),
        metrics,
        out_page_bytes: 256,
    });
    let pool = ctx.pool.clone();
    let window = pool.read_ahead_window();
    assert_eq!(window, 2);
    let pipe = CjoinPipeline::new(ctx, &cat, &spec()).unwrap();
    // Building the pipeline loaded the dimensions; count fact reads only.
    pool.disk().reset_stats();
    let plans = [
        star_plan(&cat, None, Some(None)),
        star_plan(&cat, Some(Expr::eq(1, 1i64)), Some(None)),
    ];
    for plan in &plans {
        let q = pipe.admit(&StarQuery::detect(plan, &cat).unwrap()).unwrap();
        assert_rows_match(drain(q.reader), eval(plan, &cat).unwrap(), 0.0);
        // Every page the scan consumed was read once; the only surplus is
        // the window still loading ahead where the scan stopped, which
        // the next revolution consumes from the pool.
        let (reads, scanned) = (pool.disk().stats().reads, pipe.stats().fact_pages);
        assert!(
            (scanned..=scanned + window as u64).contains(&reads),
            "{reads} disk reads for {scanned} scanned fact pages"
        );
    }
    assert_eq!(pipe.stats().fact_pages, 2 * fact_pages as u64);
    assert_eq!(pool.reader_threads(), window);
}

#[test]
fn saturation_and_slot_reuse() {
    let _serial = serial();
    let cat = catalog();
    // One core permit, held while filling every slot, so no query can
    // finish and free its slot before the saturation check.
    let ctx = ctx_with_cores(1);
    let pipe = CjoinPipeline::new(ctx.clone(), &cat, &spec()).unwrap();
    let plan = star_plan(&cat, None, None);
    let star = StarQuery::detect(&plan, &cat).unwrap();
    let held: Vec<_> = ctx.governor.run(|| {
        let held = (0..4).map(|_| pipe.admit(&star).unwrap()).collect();
        assert!(matches!(pipe.admit(&star), Err(CjoinError::Saturated)));
        held
    });
    // Drain all four; slots come back and a new admission succeeds.
    let expected = eval(&plan, &cat).unwrap();
    for q in held {
        assert_rows_match(drain(q.reader), expected.clone(), 0.0);
    }
    let q = pipe.admit(&star).expect("slot reused after completion");
    assert_rows_match(drain(q.reader), expected, 0.0);
    assert_eq!(pipe.stats().admissions, 5);
}

#[test]
fn incompatible_queries_rejected() {
    let _serial = serial();
    let cat = catalog();
    let pipe = CjoinPipeline::new(ctx(), &cat, &spec()).unwrap();
    // wrong fact table
    let bogus = StarQuery {
        fact_table: "d1".into(),
        fact_predicate: None,
        dims: vec![],
        above: vec![],
    };
    assert!(matches!(
        pipe.admit(&bogus),
        Err(CjoinError::Incompatible(_))
    ));
    // unknown join pair
    let plan = star_plan(&cat, None, None);
    let mut star = StarQuery::detect(&plan, &cat).unwrap();
    star.dims[0].fact_key = 2; // fact.val is not a pipeline key
    assert!(matches!(
        pipe.admit(&star),
        Err(CjoinError::Incompatible(_))
    ));
}

#[test]
fn dim_order_of_query_is_respected() {
    let _serial = serial();
    // A query joining d2 before d1 must get columns in *its* order.
    let cat = catalog();
    let pipe = CjoinPipeline::new(ctx(), &cat, &spec()).unwrap();
    let plan = {
        let b = PlanBuilder::scan(&cat, "fact")
            .unwrap()
            .join_dim("d2", "f_d2", "k", None)
            .unwrap()
            .join_dim("d1", "f_d1", "k", None)
            .unwrap();
        b.build().unwrap()
    };
    let star = StarQuery::detect(&plan, &cat).unwrap();
    assert_eq!(star.dims[0].table, "d2");
    let q = pipe.admit(&star).unwrap();
    let got = drain(q.reader);
    let expected = eval(&plan, &cat).unwrap();
    assert_rows_match(got, expected, 0.0);
}

#[test]
fn pipeline_shutdown_aborts_open_queries() {
    let _serial = serial();
    let cat = catalog();
    let pipe = CjoinPipeline::new(ctx(), &cat, &spec()).unwrap();
    let plan = star_plan(&cat, None, None);
    let star = StarQuery::detect(&plan, &cat).unwrap();
    let q = pipe.admit(&star).unwrap();
    drop(pipe); // shut down before draining
    let mut r = q.reader;
    // Either we get pages that were already produced, then an abort/EOS.
    loop {
        match r.next_batch() {
            Ok(Some(_)) => continue,
            Ok(None) => break,                    // finished before shutdown
            Err(qs_engine::EngineError::Aborted(_)) => break,
            Err(e) => panic!("unexpected error: {e}"),
        }
    }
}

/// Removals are generation-checked: a cancel handle that outlives its
/// query's natural completion must not kill the admission that reused the
/// slot. (Regression test — GQP+SP admission leases release their cancel
/// on every completion, so stale cancels are the common case, not the
/// exception.)
#[test]
fn stale_cancel_after_slot_reuse_is_a_noop() {
    let _serial = serial();
    let cat = catalog();
    let pipe = CjoinPipeline::new(ctx(), &cat, &spec()).unwrap();
    let plan = star_plan(&cat, None, None);
    let star = StarQuery::detect(&plan, &cat).unwrap();
    let expected = eval(&plan, &cat).unwrap();

    let q1 = pipe.admit(&star).unwrap();
    let stale = q1.cancel.clone();
    let slot1 = q1.slot;
    assert_rows_match(drain(q1.reader), expected.clone(), 0.0);

    // The freed slot is reused by the next admission (free list is a
    // stack, so this is deterministic), then the dead query's cancel
    // fires while the successor's revolution is in flight.
    let q2 = pipe.admit(&star).expect("slot reused after completion");
    assert_eq!(q2.slot, slot1, "successor reuses the freed slot");
    stale.cancel();
    assert_rows_match(drain(q2.reader), expected, 0.0);

    // The successor's own cancel (right generation) still works: admit a
    // third query and remove it early; its stream ends without error.
    let q3 = pipe.admit(&star).unwrap();
    q3.cancel.cancel();
    drain(q3.reader); // finishes at a page boundary, possibly truncated
}

#[test]
fn admission_predicate_dedup_copies_bits() {
    let _serial = serial();
    let cat = catalog();
    // Both admissions happen while the test holds the only core permit,
    // so q1 cannot finish (and drop its cache entries) before q2 arrives.
    let ctx = ctx_with_cores(1);
    let pipe = CjoinPipeline::new(ctx.clone(), &cat, &spec()).unwrap();
    let plan = star_plan(&cat, Some(Expr::eq(1, 1i64)), Some(None));
    let star = StarQuery::detect(&plan, &cat).unwrap();
    let (q1, q2, evals_after_first) = ctx.governor.run(|| {
        let q1 = pipe.admit(&star).unwrap();
        let evals_after_first = pipe.stats().admission_evals;
        // Identical predicates on both dims: the second admission copies
        // bits.
        (q1, pipe.admit(&star).unwrap(), evals_after_first)
    });
    assert!(evals_after_first > 0);
    let s = pipe.stats();
    assert_eq!(
        s.admission_evals, evals_after_first,
        "no re-evaluation for identical predicates"
    );
    assert_eq!(s.admission_dedup_hits, 2, "one hit per joined dimension");
    // Both queries still compute the right answer.
    let expected = eval(&plan, &cat).unwrap();
    assert_rows_match(drain(q1.reader), expected.clone(), 0.0);
    assert_rows_match(drain(q2.reader), expected.clone(), 0.0);
    // After completion the cache is invalidated: a third admission
    // re-evaluates.
    let q3 = pipe.admit(&star).unwrap();
    assert!(pipe.stats().admission_evals > evals_after_first);
    assert_rows_match(drain(q3.reader), expected, 0.0);
}

#[test]
fn dedup_does_not_alias_different_predicates() {
    let _serial = serial();
    let cat = catalog();
    // One core permit, held while admitting: q1 cannot finish first.
    let ctx = ctx_with_cores(1);
    let pipe = CjoinPipeline::new(ctx.clone(), &cat, &spec()).unwrap();
    let p1 = star_plan(&cat, Some(Expr::eq(1, 1i64)), Some(None));
    let p2 = star_plan(&cat, Some(Expr::eq(1, 2i64)), Some(None));
    let (q1, q2) = ctx.governor.run(|| {
        let q1 = pipe.admit(&StarQuery::detect(&p1, &cat).unwrap()).unwrap();
        (q1, pipe.admit(&StarQuery::detect(&p2, &cat).unwrap()).unwrap())
    });
    assert_eq!(pipe.stats().admission_dedup_hits, 1, "only the d2 no-predicate dim dedups");
    assert_rows_match(drain(q1.reader), eval(&p1, &cat).unwrap(), 0.0);
    assert_rows_match(drain(q2.reader), eval(&p2, &cat).unwrap(), 0.0);
}

#[test]
fn early_cancellation_frees_the_slot_and_finishes_the_stream() {
    let _serial = serial();
    let cat = catalog();
    let pipe = CjoinPipeline::new(ctx(), &cat, &spec()).unwrap();
    let plan = star_plan(&cat, None, Some(None));
    let star = StarQuery::detect(&plan, &cat).unwrap();
    let q = pipe.admit(&star).unwrap();
    q.cancel.cancel();
    // Stream ends cleanly (possibly after some already-produced pages).
    let _partial = drain(q.reader);
    // The slot comes back without a full revolution.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
    while pipe.free_slots() != 4 {
        assert!(std::time::Instant::now() < deadline, "slot never freed");
        std::thread::yield_now();
    }
    // Cancelling again is a no-op; the pipeline still admits new queries.
    q.cancel.cancel();
    let q2 = pipe.admit(&star).unwrap();
    assert_rows_match(drain(q2.reader), eval(&plan, &cat).unwrap(), 0.0);
}

/// An admission that fails on the submitter's thread — here its output
/// page allocation, after its dimension bits and predicate-cache entries
/// were written — gives its slot back exactly once, cache entries
/// included: a later admission of the same dimension predicate evaluates
/// it instead of copying bits from the slot's next occupant.
#[test]
fn failed_admission_releases_its_slot_once() {
    let _serial = serial();
    let cat = catalog();
    // One core permit, held while admitting, so no query can finish (and
    // so purge the cache itself) before the checks.
    let ctx = ctx_with_cores(1);
    let pipe = CjoinPipeline::new(ctx.clone(), &cat, &spec()).unwrap();
    let failed = star_plan(&cat, Some(Expr::eq(1, 1i64)), Some(None));
    let other = star_plan(&cat, Some(Expr::eq(1, 2i64)), None);
    let failed_star = StarQuery::detect(&failed, &cat).unwrap();
    let other_star = StarQuery::detect(&other, &cat).unwrap();
    let (q_other, q) = ctx.governor.run(|| {
        fault::arm(0xA110C, &[("page.alloc", fault::FaultSpec::prob(1.0))]);
        let admitted = pipe.admit(&failed_star);
        fault::disarm();
        match admitted {
            Err(CjoinError::Admission(msg)) => assert!(msg.contains("page.alloc"), "{msg}"),
            Err(e) => panic!("expected an admission failure, got {e}"),
            Ok(_) => panic!("admission succeeded with `page.alloc` armed"),
        }
        assert_eq!(
            pipe.free_slots(),
            4,
            "the failed admission's slot came back"
        );
        // `other` takes the failed admission's slot, so a surviving cache
        // entry of it would hand `other`'s bits to the re-admission.
        let q_other = pipe.admit(&other_star).unwrap();
        let q = pipe.admit(&failed_star).unwrap();
        assert_eq!(pipe.free_slots(), 2);
        (q_other, q)
    });
    assert_eq!(
        pipe.stats().admission_dedup_hits,
        0,
        "re-admission was evaluated"
    );
    assert_rows_match(drain(q.reader), eval(&failed, &cat).unwrap(), 0.0);
    assert_rows_match(drain(q_other.reader), eval(&other, &cat).unwrap(), 0.0);
}
