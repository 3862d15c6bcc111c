//! End-to-end correctness of the batch-at-a-time dataflow downstream of
//! the predicate stage: vectorized aggregation kernels, batched join-key
//! probes, the selection-aware distributor and the compiled-predicate
//! cache must leave every execution mode's answers exactly where the
//! reference evaluator puts them.

use sharing_repro::cjoin::{AggPlan, SharedAggregator};
use sharing_repro::engine::reference;
use sharing_repro::plan::CompiledPred;
use sharing_repro::prelude::*;
use sharing_repro::storage::BitColumn;
use std::sync::Arc;

fn ssb(scale: f64, seed: u64) -> Arc<Catalog> {
    let catalog = Catalog::new();
    generate_ssb(
        &catalog,
        &SsbConfig {
            scale,
            seed,
            page_bytes: 16 * 1024,
            ..Default::default()
        },
    );
    catalog
}

/// Aggregation-heavy plans exercising every kernel family the batch
/// refactor introduced: exact Int sums, widened Float sums, min/max over
/// Int/Float/Date/Char, averages, and the two-column SumProd/SumDiff
/// forms — grouped and scalar.
fn agg_plans(catalog: &Catalog) -> Vec<LogicalPlan> {
    let lo = catalog.get("lineorder").unwrap();
    let s = lo.schema();
    let col = |n: &str| s.index_of(n).unwrap();
    let scan = |pred: Option<Expr>| LogicalPlan::Scan {
        table: "lineorder".into(),
        predicate: pred,
        projection: None,
    };
    let cust = catalog.get("customer").unwrap();
    let cs = cust.schema();
    let ccol = |n: &str| cs.index_of(n).unwrap();
    vec![
        // Grouped over the fact table: Int sums, averages, min/max and
        // the two-column SumProd/SumDiff forms.
        LogicalPlan::Aggregate {
            input: Box::new(scan(Some(Expr::between(col("lo_quantity"), 5i64, 40i64)))),
            group_by: vec![col("lo_discount")],
            aggs: vec![
                AggSpec::new(AggFunc::Count, "n"),
                AggSpec::new(AggFunc::Sum(col("lo_quantity")), "sq"),
                AggSpec::new(AggFunc::Avg(col("lo_extendedprice")), "ap"),
                AggSpec::new(AggFunc::Min(col("lo_orderdate")), "mind"),
                AggSpec::new(AggFunc::Max(col("lo_extendedprice")), "maxp"),
                AggSpec::new(
                    AggFunc::SumProd(col("lo_extendedprice"), col("lo_discount")),
                    "rev",
                ),
                AggSpec::new(
                    AggFunc::SumDiff(col("lo_quantity"), col("lo_discount")),
                    "sd",
                ),
            ],
        },
        // Grouped over a dimension with Char group keys and Char min/max
        // (the string kernels).
        LogicalPlan::Aggregate {
            input: Box::new(LogicalPlan::Scan {
                table: "customer".into(),
                predicate: None,
                projection: None,
            }),
            group_by: vec![ccol("c_region")],
            aggs: vec![
                AggSpec::new(AggFunc::Count, "n"),
                AggSpec::new(AggFunc::Min(ccol("c_city")), "minc"),
                AggSpec::new(AggFunc::Max(ccol("c_nation")), "maxn"),
                AggSpec::new(AggFunc::Avg(ccol("c_custkey")), "ak"),
            ],
        },
        // Scalar (no GROUP BY) over a selective predicate.
        LogicalPlan::Aggregate {
            input: Box::new(scan(Some(Expr::ge(col("lo_discount"), 7i64)))),
            group_by: vec![],
            aggs: vec![
                AggSpec::new(AggFunc::Count, "n"),
                AggSpec::new(AggFunc::Min(col("lo_quantity")), "minq"),
                AggSpec::new(AggFunc::Max(col("lo_quantity")), "maxq"),
                AggSpec::new(AggFunc::Avg(col("lo_extendedprice")), "ap"),
            ],
        },
        // Scalar over a predicate selecting nothing: one neutral row.
        LogicalPlan::Aggregate {
            input: Box::new(scan(Some(Expr::ge(col("lo_quantity"), 1_000_000i64)))),
            group_by: vec![],
            aggs: vec![
                AggSpec::new(AggFunc::Count, "n"),
                AggSpec::new(AggFunc::Sum(col("lo_quantity")), "s"),
            ],
        },
    ]
}

#[test]
fn all_five_modes_agree_on_kernel_heavy_aggregations() {
    let catalog = ssb(0.002, 41);
    for (i, plan) in agg_plans(&catalog).iter().enumerate() {
        let expected = reference::eval(plan, &catalog).unwrap();
        for mode in ExecutionMode::all() {
            let db = SharingDb::new(catalog.clone(), DbConfig::new(mode)).unwrap();
            let got = db.submit(plan).unwrap().collect_rows().unwrap();
            reference::assert_rows_match(got, expected.clone(), 1e-9);
            drop(db);
            let _ = i;
        }
    }
}

#[test]
fn all_five_modes_agree_on_star_joins_after_batch_probes() {
    // Star templates drive the batched dim-stage probes and the
    // selection-aware distributor (GQP modes) and the engine's batched
    // hash-join key extraction (QC/SP modes).
    let catalog = ssb(0.002, 43);
    for template in [SsbTemplate::Q2_1, SsbTemplate::Q3_2, SsbTemplate::Q4_1] {
        let plan = template
            .plan(&catalog, &TemplateParams::variant(2))
            .unwrap();
        let expected = reference::eval(&plan, &catalog).unwrap();
        for mode in ExecutionMode::all() {
            let db = SharingDb::new(catalog.clone(), DbConfig::new(mode)).unwrap();
            let got = db.submit(&plan).unwrap().collect_rows().unwrap();
            reference::assert_rows_match(got, expected.clone(), 1e-9);
        }
    }
}

#[test]
fn concurrent_identical_predicates_share_compiled_programs() {
    // The engine's scan/filter now fetch programs from the process-wide
    // cache; a batch of identical queries must still answer correctly
    // and must register cache hits.
    let catalog = ssb(0.002, 47);
    let plan = SsbTemplate::Q1_1
        .plan(&catalog, &TemplateParams::variant(1))
        .unwrap();
    let expected = reference::eval(&plan, &catalog).unwrap();
    let (h0, _) = CompiledPred::cache_stats();
    let db = SharingDb::new(catalog.clone(), DbConfig::new(ExecutionMode::QueryCentric)).unwrap();
    let tickets = db.submit_batch(&vec![plan.clone(); 6]).unwrap();
    for t in tickets {
        reference::assert_rows_match(t.collect_rows().unwrap(), expected.clone(), 1e-9);
    }
    let (h1, _) = CompiledPred::cache_stats();
    assert!(
        h1 > h0,
        "six identical scans must share cached compiled predicates (hits {h0} -> {h1})"
    );
}

#[test]
fn shared_aggregator_matches_per_query_reference_on_annotated_stream() {
    // Build an annotated stream by hand (as the CJOIN distributor's input
    // looks) and check the shared batch-routing aggregator against
    // aggregating each query's routed tuples independently with the
    // engine reference path.
    let catalog = ssb(0.002, 53);
    let lo = catalog.get("lineorder").unwrap();
    let s = lo.schema();
    let col = |n: &str| s.index_of(n).unwrap();
    let pool = sharing_repro::storage::BufferPool::new(
        sharing_repro::storage::BufferPoolConfig::unbounded(),
        Arc::new(sharing_repro::storage::DiskModel::new(
            DiskConfig::memory_resident(),
        )),
    );

    // Three queries with per-query predicates (the bitmap annotation)
    // and overlapping grouping classes.
    let preds = [
        Expr::between(col("lo_quantity"), 1i64, 25i64),
        Expr::ge(col("lo_discount"), 5i64),
        Expr::between(col("lo_quantity"), 10i64, 45i64),
    ];
    let plans = [
        AggPlan {
            group_by: vec![col("lo_discount")],
            aggs: vec![
                AggSpec::new(AggFunc::Sum(col("lo_quantity")), "s"),
                AggSpec::new(AggFunc::Count, "n"),
            ],
        },
        AggPlan {
            group_by: vec![col("lo_discount")],
            aggs: vec![AggSpec::new(AggFunc::Avg(col("lo_extendedprice")), "a")],
        },
        AggPlan {
            group_by: vec![],
            aggs: vec![AggSpec::new(
                AggFunc::SumProd(col("lo_extendedprice"), col("lo_discount")),
                "rev",
            )],
        },
    ];

    let mut shared = SharedAggregator::new(s.clone());
    for (q, plan) in plans.iter().enumerate() {
        shared.register(q as u32, plan.clone());
    }
    let mut solo: Vec<SharedAggregator> = plans
        .iter()
        .enumerate()
        .map(|(q, plan)| {
            let mut a = SharedAggregator::new(s.clone());
            a.register(q as u32, plan.clone());
            a
        })
        .collect();

    let mut cursor = sharing_repro::storage::CircularCursor::new(lo.clone());
    while let Some(page) = cursor.next_page(&pool).unwrap() {
        let mut bits = BitColumn::zeros(1, page.rows());
        for (t, row) in page.iter().enumerate() {
            for (q, p) in preds.iter().enumerate() {
                if p.eval(&row) {
                    bits.set(t, q);
                }
            }
        }
        shared.push_page(&page, &bits);
        for a in &mut solo {
            a.push_page(&page, &bits);
        }
    }
    for (q, mut a) in solo.into_iter().enumerate() {
        let want = a.finish(q as u32).unwrap();
        let got = shared.finish(q as u32).unwrap();
        reference::assert_rows_match(got, want, 1e-9);
    }
}
