//! CJOIN past 64 query slots: a pipeline of `max_queries = 130` carries
//! three query-bit words per tuple, and 130 star queries held admitted at
//! once put bits at slots ≥ 64 and ≥ 128 through the preprocessor, every
//! shared join, the fan-out and the distributor. Every query must match
//! the query-centric oracle; with a stage-channel fault armed, exactly
//! the queries whose bits the lost batches carried must abort.
//!
//! Both tests hold [`fault::test_guard`]: the channel failpoints are
//! process-global and the pipeline evaluates them on every batch.

use qs_cjoin::{CjoinPipeline, CjoinQuery, DimSpec, PipelineSpec};
use qs_engine::reference::{assert_rows_match, eval};
use qs_engine::{BatchSource, CoreGovernor, EngineError, ExecCtx, Metrics};
use qs_plan::{Expr, LogicalPlan, PlanBuilder, StarQuery};
use qs_storage::{
    fault, BufferPool, BufferPoolConfig, Catalog, DataType, DiskConfig, DiskModel, Schema,
    TableBuilder, Value,
};
use std::sync::Arc;

const SLOTS: usize = 130;

/// fact(f_d1, f_d2, val) with dims d1(k, a) of 8 keys and d2(k, a) of 5;
/// some fact keys dangle.
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
        b.push_values(&[Value::Int(i % 10), Value::Int(i % 7), Value::Int(i)])
            .unwrap();
    }
    cat.register(b);
    cat
}

/// One core permit, held by the test while it admits (see
/// [`admit_all_at_once`]), and two morsel workers so the preprocessor
/// takes its chunked path and concatenates multi-word columns.
fn ctx() -> Arc<ExecCtx> {
    let metrics = Metrics::new();
    Arc::new(ExecCtx {
        pool: Arc::new(BufferPool::new(
            BufferPoolConfig::unbounded(),
            Arc::new(DiskModel::new(DiskConfig::memory_resident())),
        )),
        governor: CoreGovernor::new(1, metrics.clone()),
        workers: qs_engine::WorkerPool::new(2, metrics.clone()),
        metrics,
        out_page_bytes: 256,
    })
}

fn spec() -> PipelineSpec {
    PipelineSpec {
        max_queries: SLOTS,
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

/// Query `i`: a mix of dimension predicates, bypassed dimensions and
/// fact predicates. Every eleventh query's fact predicate selects no row,
/// so its bit never reaches a batch.
fn plan(cat: &Catalog, i: usize) -> LogicalPlan {
    let mut b = PlanBuilder::scan(cat, "fact").unwrap();
    if i % 11 == 10 {
        b = b.filter(Expr::ge(2, 1_000i64)).unwrap();
    } else if i % 4 == 1 {
        b = b.filter(Expr::ge(2, (i as i64 * 3) % 150)).unwrap();
    }
    let p1 = match i % 3 {
        0 => None,
        1 => Some(Expr::eq(1, (i / 3 % 3) as i64)),
        _ => Some(Expr::lt(0, 2 + (i % 6) as i64)),
    };
    b = b.join_dim("d1", "f_d1", "k", p1).unwrap();
    if i % 5 != 2 {
        let p2 = i.is_multiple_of(2).then(|| Expr::eq(1, (i % 3) as i64));
        b = b.join_dim("d2", "f_d2", "k", p2).unwrap();
    }
    b.build().unwrap()
}

/// Admit every plan while holding the pipeline's only core permit: the
/// stages cannot run a single page until all admissions are in, so all
/// queries are active at once and occupy slots `0..SLOTS`.
fn admit_all_at_once(
    pipe: &CjoinPipeline,
    ctx: &ExecCtx,
    cat: &Catalog,
    plans: &[LogicalPlan],
) -> Vec<CjoinQuery> {
    let queries: Vec<CjoinQuery> = ctx.governor.run(|| {
        plans
            .iter()
            .map(|p| pipe.admit(&StarQuery::detect(p, cat).unwrap()).unwrap())
            .collect()
    });
    let mut slots: Vec<u32> = queries.iter().map(|q| q.slot).collect();
    slots.sort_unstable();
    assert_eq!(slots, (0..SLOTS as u32).collect::<Vec<_>>());
    queries
}

fn drain(mut r: Box<dyn BatchSource>) -> Result<Vec<Vec<Value>>, EngineError> {
    let mut out = Vec::new();
    while let Some(b) = r.next_batch()? {
        for t in 0..b.len() {
            out.push(b.page().row(b.sel()[t] as usize).values());
        }
    }
    Ok(out)
}

#[test]
fn three_word_slots_cross_every_stage_and_match_the_oracle() {
    let _guard = fault::test_guard();
    fault::disarm();
    let cat = catalog();
    let ctx = ctx();
    let pipe = CjoinPipeline::new(ctx.clone(), &cat, &spec()).unwrap();
    let plans: Vec<LogicalPlan> = (0..SLOTS).map(|i| plan(&cat, i)).collect();
    let queries = admit_all_at_once(&pipe, &ctx, &cat, &plans);
    for (q, plan) in queries.into_iter().zip(&plans) {
        let slot = q.slot;
        let got = drain(q.reader).unwrap_or_else(|e| panic!("slot {slot}: {e}"));
        assert_rows_match(got, eval(plan, &cat).unwrap(), 0.0);
    }
    let stats = pipe.stats();
    assert_eq!(stats.completions, SLOTS as u64);
    assert!(stats.rows_out > 0 && stats.tuples_dropped > 0);
    assert_eq!(pipe.free_slots(), SLOTS, "every slot returned");
}

/// Which queries lose rows when every batch at a failpoint is lost.
#[derive(Clone, Copy, PartialEq, Debug)]
enum Lost {
    /// The preprocessor's send: every active query.
    Every,
    /// A dim stage: the queries whose fact predicate passes a row.
    FactRows,
    /// The fan-out or a shard channel, past every join: the queries with
    /// at least one joined row.
    JoinedRows,
}

#[test]
fn channel_aborts_at_three_words_abort_only_the_affected_slots() {
    let _guard = fault::test_guard();
    fault::disarm();
    let cat = catalog();
    let ctx = ctx();
    let pipe = CjoinPipeline::new(ctx.clone(), &cat, &spec()).unwrap();
    let plans: Vec<LogicalPlan> = (0..SLOTS).map(|i| plan(&cat, i)).collect();
    for (point, lost) in [
        ("cjoin.chan", Lost::Every),
        ("cjoin.dim.chan", Lost::FactRows),
        ("cjoin.fanout.chan", Lost::JoinedRows),
        ("cjoin.shard.chan", Lost::JoinedRows),
    ] {
        let abort = format!("{point}.abort");
        fault::arm(0x130, &[(abort.as_str(), fault::FaultSpec::prob(1.0))]);
        let queries = admit_all_at_once(&pipe, &ctx, &cat, &plans);
        let mut aborted = Vec::new();
        for (q, plan) in queries.into_iter().zip(&plans) {
            let affected = match lost {
                Lost::Every => true,
                Lost::FactRows => plan_scans_any_fact_row(plan, &cat),
                Lost::JoinedRows => !eval(plan, &cat).unwrap().is_empty(),
            };
            match drain(q.reader) {
                Err(EngineError::Aborted(msg)) => {
                    assert!(
                        affected,
                        "{point}, slot {}: unaffected query aborted: {msg}",
                        q.slot
                    );
                    assert!(msg.contains(&abort), "{point}, slot {}: {msg}", q.slot);
                    aborted.push(q.slot);
                }
                Ok(rows) => {
                    assert!(
                        !affected,
                        "{point}, slot {}: affected query finished",
                        q.slot
                    );
                    assert_rows_match(rows, eval(plan, &cat).unwrap(), 0.0);
                }
                Err(e) => panic!("{point}, slot {}: unexpected error {e}", q.slot),
            }
        }
        fault::disarm();
        assert!(aborted.iter().any(|&s| s >= 64) && aborted.iter().any(|&s| s >= 128));
        if lost == Lost::Every {
            assert_eq!(aborted.len(), SLOTS, "{point}");
        } else {
            assert!(aborted.len() < SLOTS, "{point} aborted every query");
        }

        // Every slot comes back, and the pipeline then runs a clean full
        // house.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while pipe.free_slots() != SLOTS {
            assert!(
                std::time::Instant::now() < deadline,
                "{point}: slots never freed"
            );
            std::thread::yield_now();
        }
        let queries = admit_all_at_once(&pipe, &ctx, &cat, &plans);
        for (q, plan) in queries.into_iter().zip(&plans) {
            assert_rows_match(drain(q.reader).unwrap(), eval(plan, &cat).unwrap(), 0.0);
        }
    }
}

/// Whether the fact scan of `plan` (with its pushed-down predicate)
/// selects at least one row.
fn plan_scans_any_fact_row(plan: &LogicalPlan, cat: &Catalog) -> bool {
    let star = StarQuery::detect(plan, cat).unwrap();
    let scan = LogicalPlan::Scan {
        table: "fact".into(),
        predicate: star.fact_predicate,
        projection: None,
    };
    !eval(&scan, cat).unwrap().is_empty()
}
